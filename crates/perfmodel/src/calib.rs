//! Calibrated per-device grind-time table and kernel efficiencies.
//!
//! These constants are the model's fitted layer.  Each one is pinned to a
//! number the paper reports; everything else in [`crate::figures`] is
//! *derived* from this table plus the spec-sheet catalog, so the paper's
//! cross-figure consistency becomes a test of the model:
//!
//! * Fig. 5's speedup ranges (1.5–5.3x over EPYC Genoa, ~3–11x over
//!   Xeon Max/Grace, 9.1–31.3x over Power10) pin the *total* grind times.
//! * Fig. 7's statements pin the per-class split: WENO +5% on V100 and
//!   +4.5% on MI250X vs A100; Riemann +48% / +103%; packing 3.71x / 2.62x.
//! * Fig. 1 pins the achieved fraction of peak FP64: 45% / 13% (V100
//!   WENO / Riemann) and 21% / 3% (MI250X).
//!
//! Grind times are in the paper's unit: ns per grid cell per PDE per RHS
//! evaluation, for the 8-million-cell 3-D two-phase problem of Figs. 6–7.

use serde::{Deserialize, Serialize};

use mfc_acc::KernelClass;

/// Calibrated grind-time decomposition of one device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceGrind {
    pub device: &'static str,
    /// ns/cell/PDE/RHS in the WENO kernels.
    pub weno: f64,
    /// ns/cell/PDE/RHS in the Riemann kernels.
    pub riemann: f64,
    /// ns/cell/PDE/RHS packing/reshaping arrays.
    pub pack: f64,
    /// Everything else (BCs, conversions, updates, sources).
    pub other: f64,
}

impl DeviceGrind {
    /// Total grind time (the number printed atop each Fig. 6 column).
    pub fn total(&self) -> f64 {
        self.weno + self.riemann + self.pack + self.other
    }

    /// Component by kernel class (Halo/Update folded into Other at this
    /// granularity, as in the paper's figures).
    pub fn class(&self, c: KernelClass) -> f64 {
        match c {
            KernelClass::Weno => self.weno,
            KernelClass::Riemann => self.riemann,
            KernelClass::Pack => self.pack,
            _ => self.other,
        }
    }

    /// Fraction of the total in each of the four reported categories.
    pub fn shares(&self) -> [(KernelClass, f64); 4] {
        let t = self.total();
        [
            (KernelClass::Weno, self.weno / t),
            (KernelClass::Riemann, self.riemann / t),
            (KernelClass::Pack, self.pack / t),
            (KernelClass::Other, self.other / t),
        ]
    }
}

/// The calibrated table (see module docs for what pins each entry).
///
/// A100 is the anchor: its split is chosen so the V100/MI250X ratio
/// statements and the Fig. 5 speedup ranges hold simultaneously.
pub const GRIND_TABLE: [DeviceGrind; 9] = [
    DeviceGrind {
        device: "NV GH200",
        weno: 0.193,
        riemann: 0.138,
        pack: 0.157,
        other: 0.212,
    },
    DeviceGrind {
        device: "NV H100 SXM",
        weno: 0.234,
        riemann: 0.168,
        pack: 0.191,
        other: 0.257,
    },
    DeviceGrind {
        device: "NV A100 PCIe",
        weno: 0.302,
        riemann: 0.216,
        pack: 0.247,
        other: 0.335,
    },
    // V100: WENO 1.05x, Riemann 1.48x, pack 3.71x the A100 entries.
    DeviceGrind {
        device: "NV V100 PCIe",
        weno: 0.317,
        riemann: 0.320,
        pack: 0.916,
        other: 0.847,
    },
    // MI250X GCD: WENO 1.045x, Riemann 2.03x, pack 2.62x the A100 entries.
    DeviceGrind {
        device: "AMD MI250X GCD",
        weno: 0.316,
        riemann: 0.438,
        pack: 0.647,
        other: 0.299,
    },
    // CPUs: only totals are meaningful (no packing stage is separated on
    // the CPU path); split roughly evenly between WENO/Riemann/other.
    DeviceGrind {
        device: "AMD EPYC 9654 Genoa",
        weno: 1.45,
        riemann: 1.10,
        pack: 0.0,
        other: 1.05,
    },
    DeviceGrind {
        device: "Intel Xeon Max 9468",
        weno: 2.90,
        riemann: 2.20,
        pack: 0.0,
        other: 2.10,
    },
    DeviceGrind {
        device: "NV Grace CPU",
        weno: 3.00,
        riemann: 2.26,
        pack: 0.0,
        other: 2.14,
    },
    DeviceGrind {
        device: "IBM Power10",
        weno: 8.80,
        riemann: 6.70,
        pack: 0.0,
        other: 6.40,
    },
];

/// Look up a device's calibrated grind decomposition by catalog name.
pub fn grind_for(name: &str) -> Option<DeviceGrind> {
    GRIND_TABLE.iter().copied().find(|g| g.device == name)
}

/// Achieved fraction of peak FP64 per kernel class, per device — Fig. 1's
/// y-axis values (V100 and MI250X from the paper; the others interpolated
/// from their grind entries for completeness).
pub fn achieved_peak_fraction(device: &str, class: KernelClass) -> Option<f64> {
    let v = match (device, class) {
        ("NV V100 PCIe", KernelClass::Weno) => 0.45,
        ("NV V100 PCIe", KernelClass::Riemann) => 0.13,
        ("AMD MI250X GCD", KernelClass::Weno) => 0.21,
        ("AMD MI250X GCD", KernelClass::Riemann) => 0.03,
        ("NV A100 PCIe", KernelClass::Weno) => 0.40,
        ("NV A100 PCIe", KernelClass::Riemann) => 0.11,
        _ => return None,
    };
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hw;

    fn g(name: &str) -> DeviceGrind {
        grind_for(name).unwrap()
    }

    #[test]
    fn component_ratios_match_paper_statements() {
        let a100 = g("NV A100 PCIe");
        let v100 = g("NV V100 PCIe");
        let mi = g("AMD MI250X GCD");
        // WENO +5% / +4.5%.
        assert!((v100.weno / a100.weno - 1.05).abs() < 0.01);
        assert!((mi.weno / a100.weno - 1.045).abs() < 0.01);
        // Riemann +48% / +103%.
        assert!((v100.riemann / a100.riemann - 1.48).abs() < 0.02);
        assert!((mi.riemann / a100.riemann - 2.03).abs() < 0.02);
        // Packing 3.71x / 2.62x.
        assert!((v100.pack / a100.pack - 3.71).abs() < 0.02);
        assert!((mi.pack / a100.pack - 2.62).abs() < 0.02);
    }

    #[test]
    fn fig5_speedup_ranges_hold() {
        let totals: Vec<f64> = hw::GPUS.iter().map(|d| g(d.name).total()).collect();
        let slowest_gpu = totals.iter().cloned().fold(0.0, f64::max);
        let fastest_gpu = totals.iter().cloned().fold(f64::INFINITY, f64::min);

        let epyc = g("AMD EPYC 9654 Genoa").total();
        assert!(
            (epyc / slowest_gpu - 1.5).abs() < 0.15,
            "min EPYC speedup {}",
            epyc / slowest_gpu
        );
        assert!(
            (epyc / fastest_gpu - 5.3).abs() < 0.4,
            "max EPYC speedup {}",
            epyc / fastest_gpu
        );

        let p10 = g("IBM Power10").total();
        assert!(
            (p10 / slowest_gpu - 9.1).abs() < 0.6,
            "min P10 speedup {}",
            p10 / slowest_gpu
        );
        assert!(
            (p10 / fastest_gpu - 31.3).abs() < 1.5,
            "max P10 speedup {}",
            p10 / fastest_gpu
        );

        for cpu in ["Intel Xeon Max 9468", "NV Grace CPU"] {
            let t = g(cpu).total();
            let lo = t / slowest_gpu;
            let hi = t / fastest_gpu;
            assert!(lo > 2.5 && hi < 11.5, "{cpu}: {lo}..{hi}");
        }
    }

    #[test]
    fn pack_share_larger_on_v100_and_mi250x() {
        // Fig. 6: V100 and MI250X spend a more significant fraction packing.
        let share = |name: &str| {
            let d = g(name);
            d.pack / d.total()
        };
        for small_l2 in ["NV V100 PCIe", "AMD MI250X GCD"] {
            for big_l2 in ["NV GH200", "NV H100 SXM", "NV A100 PCIe"] {
                assert!(
                    share(small_l2) > share(big_l2) * 1.4,
                    "{small_l2} vs {big_l2}"
                );
            }
        }
    }

    #[test]
    fn recent_nvidia_gpus_share_similar_breakdowns() {
        // Fig. 6: GH200 / H100 / A100 have near-identical percentage splits.
        let a = g("NV GH200").shares();
        let b = g("NV A100 PCIe").shares();
        for ((_, x), (_, y)) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 0.02);
        }
    }

    #[test]
    fn shares_sum_to_one() {
        for d in GRIND_TABLE {
            let s: f64 = d.shares().iter().map(|(_, v)| v).sum();
            assert!((s - 1.0).abs() < 1e-12, "{}", d.device);
        }
    }

    #[test]
    fn every_catalog_device_has_a_grind_entry() {
        for d in hw::GPUS.iter().chain(hw::CPUS.iter()) {
            assert!(grind_for(d.name).is_some(), "{}", d.name);
        }
    }
}
