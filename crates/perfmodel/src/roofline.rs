//! Roofline analysis (Fig. 1).

use serde::{Deserialize, Serialize};

use mfc_acc::KernelClass;

use crate::hw::DeviceSpec;

/// Attainable FP64 rate at arithmetic intensity `ai` (FLOP/byte) on a
/// device: `min(peak, ai * bandwidth)`.
pub fn attainable_gflops(spec: &DeviceSpec, ai: f64) -> f64 {
    spec.peak_fp64_gflops.min(ai * spec.mem_bw_gbs)
}

/// One kernel's position on one device's roofline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RooflinePoint {
    pub device: String,
    pub kernel: KernelClass,
    /// Effective arithmetic intensity (FLOP/byte of DRAM traffic).
    pub ai: f64,
    /// Achieved rate (GFLOP/s).
    pub achieved_gflops: f64,
    /// Attainable rate at this AI (GFLOP/s).
    pub attainable_gflops: f64,
    /// Achieved fraction of the device's *peak* (the paper's metric).
    pub peak_fraction: f64,
}

impl RooflinePoint {
    /// Whether the kernel sits left of the ridge (bandwidth-limited).
    pub fn memory_bound(&self, spec: &DeviceSpec) -> bool {
        self.ai < spec.ridge_ai()
    }

    /// Build a point from an achieved-fraction-of-peak calibration.
    pub fn from_peak_fraction(spec: &DeviceSpec, kernel: KernelClass, ai: f64, frac: f64) -> Self {
        RooflinePoint {
            device: spec.name.to_string(),
            kernel,
            ai,
            achieved_gflops: frac * spec.peak_fp64_gflops,
            attainable_gflops: attainable_gflops(spec, ai),
            peak_fraction: frac,
        }
    }
}

/// Lane-tiling summary of a vector-executed run — the accounting behind
/// the OpenACC `vector` analog's efficiency model. The execution context
/// counts whole lane packets and scalar-remainder tail elements
/// (`mfc_acc::Context::lane_stats`); this wraps them into the effective
/// width the roofline projection uses.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct VectorEfficiency {
    /// Configured lane width `W`.
    pub width: usize,
    /// Whole `W`-wide packets executed.
    pub full_packets: u64,
    /// Elements that fell into scalar remainder tails.
    pub tail_elems: u64,
}

impl VectorEfficiency {
    pub fn new(width: usize, (full_packets, tail_elems): (u64, u64)) -> Self {
        VectorEfficiency {
            width,
            full_packets,
            tail_elems,
        }
    }

    /// Effective lane width `W * full / (full + tail)`: each tail element
    /// costs a full scalar issue slot, so a tiling that degenerates into
    /// tails converges to width 1 worth of throughput per issue. `W` when
    /// no vector launch ran.
    pub fn effective_width(&self) -> f64 {
        let issues = self.full_packets + self.tail_elems;
        if issues == 0 {
            return self.width as f64;
        }
        self.width as f64 * self.full_packets as f64 / issues as f64
    }

    /// Fraction of elements processed in scalar tails (0 when none ran).
    pub fn tail_fraction(&self) -> f64 {
        let elems = self.width as u64 * self.full_packets + self.tail_elems;
        if elems == 0 {
            return 0.0;
        }
        self.tail_elems as f64 / elems as f64
    }
}

/// Memory-roofline cap on the speedup vector lanes can deliver at
/// arithmetic intensity `ai` on `spec`, whose spec-sheet peak counts
/// `hw_width`-wide vector issue. Scalar issue runs at `peak / hw_width`;
/// lanes multiply compute throughput but can never push the kernel past
/// `ai * bandwidth`, so the speedup saturates at
/// `ai * bw / scalar_peak` — 1.0 exactly when the kernel is
/// bandwidth-bound already at scalar issue (no headroom).
pub fn vector_roofline_cap(spec: &DeviceSpec, hw_width: usize, ai: f64) -> f64 {
    let scalar_peak = spec.peak_fp64_gflops / hw_width.max(1) as f64;
    (ai * spec.mem_bw_gbs / scalar_peak).max(1.0)
}

/// Predicted speedup of running at effective lane width `effective_width`
/// over scalar issue: the packet stream retires `min(e, hw_width)` lanes
/// per issue at SIMD issue efficiency `issue_efficiency` (calibrated per
/// host, [`crate::calib::HOST_SIMD_ISSUE_EFFICIENCY`] for CI containers),
/// bounded above by the memory roofline via [`vector_roofline_cap`].
pub fn predicted_vector_speedup(
    effective_width: f64,
    hw_width: usize,
    issue_efficiency: f64,
    roofline_cap: f64,
) -> f64 {
    let lanes = effective_width.clamp(1.0, hw_width.max(1) as f64);
    let compute = 1.0 + (lanes - 1.0) * issue_efficiency;
    compute.min(roofline_cap).max(1.0)
}

/// Effective (cache-aware) arithmetic intensity per kernel class.
///
/// The ledger's byte counts assume every stencil operand comes from DRAM;
/// on a device the 2r+1-point stencil and the multi-variable lines hit in
/// cache, so DRAM traffic is lower by a reuse factor. The factors below
/// are the standard stencil-reuse estimates (one DRAM read per cell per
/// sweep for WENO; none for the pure-copy packs).
pub fn effective_ai(class: KernelClass, ledger_ai: f64) -> f64 {
    let reuse = match class {
        KernelClass::Weno => 5.0,    // 5-point stencil: each cell read once
        KernelClass::Riemann => 1.2, // face states read twice (L/R share)
        KernelClass::Pack => 1.0,    // pure data movement
        _ => 1.0,
    };
    ledger_ai * reuse
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hw::{MI250X_GCD, V100_PCIE};

    #[test]
    fn attainable_clamps_at_peak() {
        assert_eq!(attainable_gflops(&V100_PCIE, 1000.0), 7000.0);
        assert!((attainable_gflops(&V100_PCIE, 1.0) - 900.0).abs() < 1e-9);
    }

    #[test]
    fn ridge_separates_regimes() {
        let spec = V100_PCIE;
        let below = RooflinePoint::from_peak_fraction(&spec, KernelClass::Riemann, 1.0, 0.13);
        let above = RooflinePoint::from_peak_fraction(&spec, KernelClass::Weno, 10.0, 0.45);
        assert!(below.memory_bound(&spec));
        assert!(!above.memory_bound(&spec));
    }

    #[test]
    fn same_ai_is_memory_bound_on_mi250x_but_not_v100() {
        // §IV-A: WENO is compute-bound on V100, memory-bound on MI250X.
        let ai = 10.0;
        assert!(ai > V100_PCIE.ridge_ai());
        assert!(ai < MI250X_GCD.ridge_ai());
    }

    #[test]
    fn achieved_cannot_exceed_attainable_for_calibrated_points() {
        for (spec, class, ai, frac) in [
            (V100_PCIE, KernelClass::Weno, 10.0, 0.45),
            (V100_PCIE, KernelClass::Riemann, 1.1, 0.13),
            (MI250X_GCD, KernelClass::Weno, 10.0, 0.21),
            (MI250X_GCD, KernelClass::Riemann, 1.1, 0.03),
        ] {
            let p = RooflinePoint::from_peak_fraction(&spec, class, ai, frac);
            assert!(
                p.achieved_gflops <= p.attainable_gflops * 1.05,
                "{} {:?}: {} > {}",
                spec.name,
                class,
                p.achieved_gflops,
                p.attainable_gflops
            );
        }
    }

    #[test]
    fn effective_width_degrades_with_tails() {
        // Pure packets: full width. Pure tails: width-1 throughput.
        let clean = VectorEfficiency::new(4, (1000, 0));
        assert!((clean.effective_width() - 4.0).abs() < 1e-12);
        assert_eq!(clean.tail_fraction(), 0.0);
        let dirty = VectorEfficiency::new(4, (0, 1000));
        assert!((dirty.effective_width() - 0.0).abs() < 1e-12);
        assert!((dirty.tail_fraction() - 1.0).abs() < 1e-12);
        // A 24-wide row at W=4: 6 packets, no tail; 25-wide: 6 + 1 tail.
        let row25 = VectorEfficiency::new(4, (6, 1));
        assert!(row25.effective_width() < 4.0 && row25.effective_width() > 3.0);
        // No vector launches: neutral.
        assert_eq!(VectorEfficiency::new(4, (0, 0)).effective_width(), 4.0);
    }

    #[test]
    fn memory_bound_kernels_get_no_vector_headroom() {
        // At AI below the scalar-issue ridge the cap collapses to 1 and
        // the prediction refuses any speedup regardless of lane width.
        let spec = V100_PCIE; // ridge at 7000/900 ≈ 7.8; scalar ridge ≈ 0.24 at hw=32
        let cap = vector_roofline_cap(&spec, 32, 0.1);
        assert_eq!(cap, 1.0);
        assert_eq!(predicted_vector_speedup(8.0, 8, 1.0, cap), 1.0);
        // Compute-bound: full lanes at perfect issue efficiency.
        let cap = vector_roofline_cap(&spec, 32, 100.0);
        assert!((predicted_vector_speedup(4.0, 8, 1.0, cap) - 4.0).abs() < 1e-12);
        // Effective width is clamped to what the hardware can retire.
        assert!((predicted_vector_speedup(8.0, 2, 1.0, cap) - 2.0).abs() < 1e-12);
        // Issue efficiency scales the win linearly below the cap.
        assert!((predicted_vector_speedup(2.0, 2, 0.5, cap) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn weno_reuse_lifts_ai_above_v100_ridge() {
        // The ledger counts full stencil traffic (AI ~2 for a division-form
        // WENO5 evaluated per face side — the paper's kernel, and this
        // solver's until its per-cell rewrite halved the FLOPs); the
        // effective AI after stencil reuse must cross the V100 ridge for
        // the paper's "WENO is compute-bound on V100" to reproduce.
        let eff = effective_ai(KernelClass::Weno, 2.0);
        assert!(eff > V100_PCIE.ridge_ai(), "eff = {eff}");
    }
}
