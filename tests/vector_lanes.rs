//! Lane engagement for the SIMD vector execution layer.
//!
//! Every hot kernel is written once, generically over the `Lane` trait,
//! and instantiated at `f64` (width 1) or `VecF64<8>`. Because every lane
//! op is purely elementwise and horizontal folds extract lanes in fixed
//! serial order, each lane performs exactly the scalar op sequence — so
//! width 8 must reproduce the width-1 run **bitwise**, at any worker
//! count, in both sweep engines. The lane width is an axis of the
//! generated matrix (`tests/matrix.rs`), whose members hold both widths
//! against every other axis value and are checked against their width-1
//! reference there. This file holds engagement: on a 16^3 case the
//! trace's per-launch lane annotation shows the vector kernels really
//! executing 8-wide packets — the equivalence is not vacuous — and the
//! traced per-kernel totals still reconcile exactly with the analytic
//! ledger.

use std::sync::Arc;

use mfc::core::rhs::{RhsConfig, RhsMode};
use mfc::core::riemann::RiemannSolver;
use mfc::trace::{chrome, reconcile_trace, EventKind, Tracer};
use mfc::{presets, Context, Solver, SolverConfig};

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
        let mut ctx = Context::serial().with_vector_width(8);
        ctx.set_tracer(tracer.handle(0));
        let mut vec = Solver::new(&case, cfg_with(mode, RiemannSolver::Hllc, 1, 8), ctx);
        vec.run_steps(2).unwrap();
        assert_eq!(
            scalar.state().as_slice(),
            vec.state().as_slice(),
            "{mode:?}: W=8 state diverged from scalar"
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
            max_lanes, 8,
            "{mode:?}: no kernel launch recorded 8-wide lane execution"
        );

        let parsed = chrome::parse_str(&chrome::export_to_string(&traces)).unwrap();
        reconcile_trace(&parsed).unwrap_or_else(|e| {
            panic!("{mode:?}: traced totals must match the ledger exactly: {e:?}")
        });
    }
}
