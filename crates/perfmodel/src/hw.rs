//! Hardware catalog: the devices of Figs. 1 and 5–7.
//!
//! Numbers are nominal public spec-sheet values (peak vector FP64, HBM/DDR
//! bandwidth, last-level cache). They feed the roofline; achieved
//! fractions of these peaks are calibrated separately in [`crate::calib`].

use serde::{Deserialize, Serialize};

/// CPU socket or GPU die.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceKind {
    Gpu,
    Cpu,
}

/// One device's roofline-relevant specification.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    pub name: &'static str,
    pub kind: DeviceKind,
    /// Peak double-precision rate (GFLOP/s).
    pub peak_fp64_gflops: f64,
    /// Peak memory bandwidth (GB/s).
    pub mem_bw_gbs: f64,
    /// Last-level (L2/L3) cache (MiB).
    pub llc_mib: f64,
}

impl DeviceSpec {
    /// Ridge-point arithmetic intensity (FLOP/byte) separating memory- and
    /// compute-bound kernels.
    pub fn ridge_ai(&self) -> f64 {
        self.peak_fp64_gflops / self.mem_bw_gbs
    }
}

/// NVIDIA GH200 (Hopper die): 34 TF FP64 vector, 4 TB/s HBM3e, 50 MB L2.
pub const GH200: DeviceSpec = DeviceSpec {
    name: "NV GH200",
    kind: DeviceKind::Gpu,
    peak_fp64_gflops: 34_000.0,
    mem_bw_gbs: 4000.0,
    llc_mib: 50.0,
};

/// NVIDIA H100 SXM: 34 TF FP64 vector, 3.35 TB/s HBM3, 50 MB L2.
pub const H100_SXM: DeviceSpec = DeviceSpec {
    name: "NV H100 SXM",
    kind: DeviceKind::Gpu,
    peak_fp64_gflops: 34_000.0,
    mem_bw_gbs: 3350.0,
    llc_mib: 50.0,
};

/// NVIDIA A100 PCIe: 9.7 TF FP64 vector, 1.935 TB/s HBM2e, 40 MB L2.
pub const A100_PCIE: DeviceSpec = DeviceSpec {
    name: "NV A100 PCIe",
    kind: DeviceKind::Gpu,
    peak_fp64_gflops: 9_700.0,
    mem_bw_gbs: 1935.0,
    llc_mib: 40.0,
};

/// NVIDIA V100 PCIe: 7.0 TF FP64, 900 GB/s HBM2, 6 MB L2 (the paper rounds
/// A100's 72% statement from these).
pub const V100_PCIE: DeviceSpec = DeviceSpec {
    name: "NV V100 PCIe",
    kind: DeviceKind::Gpu,
    peak_fp64_gflops: 7_000.0,
    mem_bw_gbs: 900.0,
    llc_mib: 6.0,
};

/// One MI250X graphics compute die: ~24 TF FP64 vector, 1.6 TB/s HBM2e,
/// 8 MB L2 — the small L2 the paper blames for packing cost.
pub const MI250X_GCD: DeviceSpec = DeviceSpec {
    name: "AMD MI250X GCD",
    kind: DeviceKind::Gpu,
    peak_fp64_gflops: 23_950.0,
    mem_bw_gbs: 1600.0,
    llc_mib: 8.0,
};

/// AMD EPYC 9654 "Genoa": 96 cores, ~5.4 TF FP64, 460 GB/s DDR5.
pub const EPYC_GENOA: DeviceSpec = DeviceSpec {
    name: "AMD EPYC 9654 Genoa",
    kind: DeviceKind::Cpu,
    peak_fp64_gflops: 5_400.0,
    mem_bw_gbs: 460.0,
    llc_mib: 384.0,
};

/// Intel Xeon Max 9468 "Sapphire Rapids HBM": 48 cores, ~3 TF, HBM2e.
pub const XEON_MAX: DeviceSpec = DeviceSpec {
    name: "Intel Xeon Max 9468",
    kind: DeviceKind::Cpu,
    peak_fp64_gflops: 3_000.0,
    mem_bw_gbs: 1000.0,
    llc_mib: 105.0,
};

/// NVIDIA Grace (ARM Neoverse V2): 72 cores, ~3.4 TF, 500 GB/s LPDDR5X.
pub const GRACE: DeviceSpec = DeviceSpec {
    name: "NV Grace CPU",
    kind: DeviceKind::Cpu,
    peak_fp64_gflops: 3_400.0,
    mem_bw_gbs: 500.0,
    llc_mib: 114.0,
};

/// IBM Power10 socket: ~1.6 TF, 409 GB/s OMI.
pub const POWER10: DeviceSpec = DeviceSpec {
    name: "IBM Power10",
    kind: DeviceKind::Cpu,
    peak_fp64_gflops: 1_600.0,
    mem_bw_gbs: 409.0,
    llc_mib: 120.0,
};

/// The five GPUs of Figs. 5–7, in the paper's column order.
pub const GPUS: [DeviceSpec; 5] = [GH200, H100_SXM, A100_PCIE, V100_PCIE, MI250X_GCD];

/// The four CPUs of Fig. 5.
pub const CPUS: [DeviceSpec; 4] = [EPYC_GENOA, XEON_MAX, GRACE, POWER10];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mi250x_ridge_is_higher_than_v100() {
        // §IV-A: the MI250X memory→compute transition sits at an
        // arithmetic intensity several times the V100's.
        let ratio = MI250X_GCD.ridge_ai() / V100_PCIE.ridge_ai();
        assert!(ratio > 1.5, "ratio = {ratio}");
    }

    #[test]
    fn v100_has_72_percent_of_a100_peak() {
        let frac = V100_PCIE.peak_fp64_gflops / A100_PCIE.peak_fp64_gflops;
        assert!((frac - 0.72).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn mi250x_gcd_has_2_5x_a100_peak_and_one_fifth_l2() {
        assert!((MI250X_GCD.peak_fp64_gflops / A100_PCIE.peak_fp64_gflops - 2.5).abs() < 0.05);
        assert!((MI250X_GCD.llc_mib / A100_PCIE.llc_mib - 0.2).abs() < 0.01);
    }

    #[test]
    fn bandwidth_ordering_matches_paper() {
        // §V: V100 900 GB/s, A100 2 TB/s, H100 3.35 TB/s, GH200 4 TB/s.
        let bw = [
            V100_PCIE.mem_bw_gbs,
            A100_PCIE.mem_bw_gbs,
            H100_SXM.mem_bw_gbs,
            GH200.mem_bw_gbs,
        ];
        assert!(bw.windows(2).all(|w| w[0] < w[1]), "{bw:?}");
    }

    #[test]
    fn all_names_unique() {
        let mut names: Vec<_> = GPUS.iter().chain(CPUS.iter()).map(|d| d.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 9);
    }
}
