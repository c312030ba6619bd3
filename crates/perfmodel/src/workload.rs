//! Workload characterization: run the real solver, read the real ledger.
//!
//! This is the substitute for profiling MFC with `nsight-compute` /
//! `rocprof`: the Rust solver's instrumented kernels accumulate per-class
//! FLOPs, bytes, and iteration counts while simulating the representative
//! two-phase problem, and the per-cell-per-RHS intensities extracted here
//! feed the roofline and scaling figures.

use std::collections::HashMap;

use mfc_acc::{Context, KernelClass};
use mfc_core::case::presets;
use mfc_core::solver::{DtMode, Solver, SolverConfig};
use mfc_core::{StepControl, Stop};

use serde::{Deserialize, Serialize};

/// Per-class workload intensity of one RHS evaluation.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ClassIntensity {
    /// FLOPs per interior cell per RHS evaluation.
    pub flops_per_cell: f64,
    /// DRAM bytes per interior cell per RHS evaluation (ledger counts, no
    /// cache-reuse correction).
    pub bytes_per_cell: f64,
    /// Kernel iterations (device threads) per cell per RHS evaluation.
    pub items_per_cell: f64,
}

impl ClassIntensity {
    pub fn ai(&self) -> f64 {
        self.flops_per_cell / self.bytes_per_cell.max(1e-300)
    }
}

/// Measured workload profile of the representative two-phase problem.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// Cells used for the measurement.
    pub cells: usize,
    /// Equations (PDEs).
    pub neq: usize,
    /// RHS evaluations profiled.
    pub rhs_evals: u64,
    /// Per-class intensities.
    pub classes: HashMap<KernelClass, ClassIntensity>,
}

impl WorkloadProfile {
    /// Profile an `n^3`-ish 3-D two-phase problem over `steps` RK3 steps.
    ///
    /// `n` per axis; keep it modest (16–32) — the intensities are
    /// per-cell and resolution-independent to within ghost-layer edge
    /// effects.
    pub fn measure(n: usize, steps: usize) -> Self {
        let case = presets::two_phase_benchmark(3, [n, n, n]);
        let cfg = SolverConfig {
            dt: DtMode::Fixed(1e-9), // timing-irrelevant; counts only
            ..Default::default()
        };
        let mut solver = Solver::new(&case, cfg, Context::serial());
        solver.context().ledger().reset();
        solver
            .run(Stop::steps(steps as u64), None, |_| StepControl::Continue)
            .expect("perf-model workload run hit a numerical fault");

        let rhs_evals = solver.steps() * 3; // RK3
        let cells = solver.domain().interior_cells();
        let denom = cells as f64 * rhs_evals as f64;
        let mut classes = HashMap::new();
        for (class, stats) in solver.context().ledger().by_class() {
            classes.insert(
                class,
                ClassIntensity {
                    flops_per_cell: stats.flops / denom,
                    bytes_per_cell: (stats.bytes_read + stats.bytes_written) / denom,
                    items_per_cell: stats.items as f64 / denom,
                },
            );
        }
        WorkloadProfile {
            cells,
            neq: solver.domain().eq.neq(),
            rhs_evals,
            classes,
        }
    }

    pub fn class(&self, c: KernelClass) -> ClassIntensity {
        self.classes.get(&c).copied().unwrap_or_default()
    }

    /// Total FLOPs per cell per RHS across all classes.
    pub fn total_flops_per_cell(&self) -> f64 {
        self.classes.values().map(|c| c.flops_per_cell).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_contains_the_hot_classes() {
        let p = WorkloadProfile::measure(12, 1);
        for class in [
            KernelClass::Weno,
            KernelClass::Riemann,
            KernelClass::Pack,
            KernelClass::Update,
        ] {
            assert!(p.classes.contains_key(&class), "missing {class:?}");
        }
        assert!(p.total_flops_per_cell() > 100.0);
    }

    #[test]
    fn weno_and_riemann_dominate_flops() {
        // §IV-A: the two kernels account for the majority of compute.
        let p = WorkloadProfile::measure(12, 1);
        let hot = p.class(KernelClass::Weno).flops_per_cell
            + p.class(KernelClass::Riemann).flops_per_cell;
        assert!(hot / p.total_flops_per_cell() > 0.5);
    }

    #[test]
    fn intensities_are_resolution_stable() {
        // Per-cell intensities include ghost-layer overcompute that decays
        // like (1 + 2*ng/n)^2, so moderately close resolutions must agree.
        let a = WorkloadProfile::measure(16, 1);
        let b = WorkloadProfile::measure(20, 1);
        let fa = a.class(KernelClass::Weno).flops_per_cell;
        let fb = b.class(KernelClass::Weno).flops_per_cell;
        assert!((fa / fb - 1.0).abs() < 0.35, "fa={fa} fb={fb}");
    }

    #[test]
    fn pack_has_negligible_flops_but_real_traffic() {
        let p = WorkloadProfile::measure(12, 1);
        let pack = p.class(KernelClass::Pack);
        assert!(pack.flops_per_cell < 1.0);
        assert!(pack.bytes_per_cell > 8.0);
    }
}
