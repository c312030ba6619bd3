//! Lane-width equivalence suite for the SIMD vector execution layer.
//!
//! Every hot kernel is written once, generically over the `Lane` trait,
//! and instantiated at `f64` (width 1) or `VecF64<W>`. Because every lane
//! op is purely elementwise and horizontal folds extract lanes in fixed
//! serial order, each lane performs exactly the scalar op sequence — so
//! any width must reproduce the width-1 run **bitwise**, at any worker
//! count, in both sweep engines. These tests are the enforcement:
//!
//! 1. Property: random 3-D domains × widths {2, 4, 8} × workers {1, 4} ×
//!    both sweep engines × every Riemann solver, against the width-1 run.
//! 2. Shipped cases: every `cases/*.json` at the default width
//!    (`mfc_acc::DEFAULT_WIDTH`) reproduces the W=1 state bitwise over the
//!    golden step counts, serially and on 2 ranks. (The golden suite
//!    itself runs at the default width, so goldens recorded under scalar
//!    execution already pin this too.)
//! 3. Engagement: on a 16^3 case the trace's per-launch lane annotation
//!    shows the vector kernels really executing 4-wide packets — the
//!    equivalence above is not vacuous — and the traced per-kernel
//!    totals still reconcile exactly with the analytic ledger.

use proptest::prelude::*;
use std::sync::Arc;

use mfc::core::par::{run_distributed, run_single};
use mfc::core::rhs::{RhsConfig, RhsMode};
use mfc::core::riemann::RiemannSolver;
use mfc::mpsim::Staging;
use mfc::trace::{chrome, reconcile_trace, EventKind, Tracer};
use mfc::{presets, Context, Solver, SolverConfig};
use mfc_acc::DEFAULT_WIDTH;
use mfc_cli::CaseFile;

/// Lane widths exercised against the width-1 reference.
const WIDTHS: [usize; 3] = [2, 4, 8];

fn cases_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../cases")
}

fn cfg_with(mode: RhsMode, solver: RiemannSolver, workers: usize, width: usize) -> SolverConfig {
    SolverConfig {
        rhs: RhsConfig {
            mode,
            solver,
            ..Default::default()
        },
        workers,
        vector_width: width,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Vectorized runs agree bitwise with the scalar path on random 3-D
    /// domains for both sweep engines and every Riemann solver, serial
    /// and gang-parallel.
    #[test]
    fn random_domains_bitwise_equal_at_every_lane_width(
        nx in 8usize..=14,
        ny in 8usize..=14,
        nz in 8usize..=14,
        mode_fused in proptest::bool::ANY,
        solver_idx in 0usize..3,
    ) {
        let mode = if mode_fused { RhsMode::Fused } else { RhsMode::Staged };
        let solver = [RiemannSolver::Hllc, RiemannSolver::Hll, RiemannSolver::Rusanov][solver_idx];
        let case = presets::two_phase_benchmark(3, [nx, ny, nz]);
        let scalar = run_single(&case, cfg_with(mode, solver, 1, 1), 2);
        for width in WIDTHS {
            for workers in [1usize, 4] {
                let vec = run_single(&case, cfg_with(mode, solver, workers, width), 2);
                prop_assert_eq!(
                    vec.max_abs_diff(&scalar), 0.0,
                    "{:?} {:?} W={} workers={}", mode, solver, width, workers
                );
            }
        }
    }
}

/// Every shipped case file reproduces its width-1 state bitwise at the
/// default width over the golden step counts.
#[test]
fn shipped_cases_bitwise_equal_at_default_lane_width() {
    for (name, steps) in [
        ("sod", 12usize),
        ("taylor_green", 6),
        ("shock_droplet_2d", 5),
        ("bubble_cloud_2d", 5),
        ("shock_droplet_3d", 5),
    ] {
        let cf = CaseFile::from_path(&cases_dir().join(format!("{name}.json"))).unwrap();
        let case = cf.to_case().unwrap();
        let cfg = cf.numerics.to_solver_config().unwrap();
        assert_eq!(
            cfg.vector_width, DEFAULT_WIDTH,
            "{name}: shipped cases run at the default width"
        );

        let mut scalar = Solver::new(&case, cfg, Context::serial().with_vector_width(1));
        scalar.run_steps(steps).unwrap();

        let mut vec = Solver::new(
            &case,
            cfg,
            Context::serial().with_vector_width(DEFAULT_WIDTH),
        );
        vec.run_steps(steps).unwrap();

        assert_eq!(
            scalar.state().as_slice(),
            vec.state().as_slice(),
            "{name}: W={DEFAULT_WIDTH} state diverged from scalar"
        );
        assert_eq!(
            scalar.time().to_bits(),
            vec.time().to_bits(),
            "{name}: dt path diverged"
        );
    }
}

/// Shipped cases on 2 simulated ranks at the default width still match
/// the scalar serial state — lane packets compose with halo regions.
#[test]
fn shipped_cases_two_rank_bitwise_equal_at_default_lane_width() {
    for (name, steps) in [
        ("sod", 6usize),
        ("taylor_green", 4),
        ("shock_droplet_2d", 3),
        ("bubble_cloud_2d", 3),
        ("shock_droplet_3d", 3),
    ] {
        let cf = CaseFile::from_path(&cases_dir().join(format!("{name}.json"))).unwrap();
        let case = cf.to_case().unwrap();
        let mut cfg = cf.numerics.to_solver_config().unwrap();
        cfg.vector_width = 1;
        let scalar = run_single(&case, cfg, steps);
        cfg.vector_width = DEFAULT_WIDTH;
        let (dist, _) = run_distributed(&case, cfg, 2, steps, Staging::DeviceDirect).unwrap();
        assert_eq!(
            dist.max_abs_diff(&scalar),
            0.0,
            "{name}: 2 ranks x W={DEFAULT_WIDTH} diverged from scalar serial"
        );
    }
}

/// On a 16^3 case the vector kernels really engage lane packets (trace
/// annotation), the state matches the scalar run bitwise, and the traced
/// per-kernel totals reconcile exactly with the analytic ledger.
#[test]
fn lane_engagement_is_real_and_ledger_reconciles() {
    let case = presets::two_phase_benchmark(3, [16, 16, 16]);
    for mode in [RhsMode::Staged, RhsMode::Fused] {
        let mut scalar = Solver::new(
            &case,
            cfg_with(mode, RiemannSolver::Hllc, 1, 1),
            Context::serial().with_vector_width(1),
        );
        scalar.run_steps(2).unwrap();

        let tracer = Arc::new(Tracer::new());
        let mut ctx = Context::serial().with_vector_width(4);
        ctx.set_tracer(tracer.handle(0));
        let mut vec = Solver::new(&case, cfg_with(mode, RiemannSolver::Hllc, 1, 4), ctx);
        vec.run_steps(2).unwrap();
        assert_eq!(
            scalar.state().as_slice(),
            vec.state().as_slice(),
            "{mode:?}: W=4 state diverged from scalar"
        );
        vec.context().flush_ledger_to_trace();

        let traces = tracer.snapshot();
        let max_lanes = traces[0]
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Kernel { lanes, .. } => Some(lanes),
                _ => None,
            })
            .max()
            .unwrap();
        assert_eq!(
            max_lanes, 4,
            "{mode:?}: no kernel launch recorded 4-wide lane execution"
        );

        let parsed = chrome::parse_str(&chrome::export_to_string(&traces)).unwrap();
        reconcile_trace(&parsed).unwrap_or_else(|e| {
            panic!("{mode:?}: traced totals must match the ledger exactly: {e:?}")
        });

        // The context's lane accounting saw real packets, and most
        // elements ran in them (cell rows tile 16/4 exactly; only the
        // 17-wide face rows leave 1-element tails).
        let (packets, _tail) = vec.context().lane_stats();
        assert!(packets > 0, "{mode:?}: no lane packets recorded");
        let (tail_fraction, effective) = vec.context().lane_efficiency();
        assert!(
            tail_fraction < 0.10 && effective > 3.0,
            "{mode:?}: lane tiling mostly scalar (tail {tail_fraction:.3}, eff {effective:.2})"
        );
    }
}
