//! Gang-parallel RHS execution: engagement and the recovery ladder.
//!
//! The gang scheduler in `mfc-acc` partitions every hot-path iteration
//! space across worker threads with a fixed gang → index-block mapping,
//! and every kernel body writes disjoint slots of its outputs. That
//! contract makes multi-worker runs **bitwise identical** to
//! [`Context::serial`] at every worker count — including counts that
//! oversubscribe the host, so the check is meaningful on a 1-core CI
//! runner too. The worker count is an axis of the generated matrix
//! (`tests/matrix.rs`), whose members hold every worker count against
//! every other axis value and are checked against their 1-worker
//! reference there. This file holds what the axes do not:
//!
//! 1. Engagement: a deterministic case large enough that every gate
//!    (`PAR_MIN_ITEMS`) opens, checked via the trace's per-launch gang
//!    annotation — so the equivalence is not vacuous.
//! 2. Recovery: the health watchdog + ladder walk the same rungs at
//!    4 workers as serially, bitwise.

use std::sync::Arc;

use mfc::core::recovery::{RecoveryAction, RecoveryPolicy};
use mfc::core::rhs::{RhsConfig, RhsMode};
use mfc::core::riemann::RiemannSolver;
use mfc::trace::{EventKind, Tracer};
use mfc::{presets, Context, DtMode, Solver, SolverConfig};

/// Worker counts of the engagement test: an even split, a remainder
/// split, the CI target, and an oversubscribing count.
const WORKER_COUNTS: [usize; 4] = [2, 3, 4, 8];

fn cfg_with(mode: RhsMode, solver: RiemannSolver, workers: usize) -> SolverConfig {
    SolverConfig {
        rhs: RhsConfig {
            mode,
            solver,
            ..Default::default()
        },
        workers,
        ..Default::default()
    }
}

/// On a domain past every `PAR_MIN_ITEMS` gate the launches really do
/// split into gangs (asserted from the trace), and the state still
/// matches the serial run bitwise at every worker count.
#[test]
fn parallel_engagement_is_real_and_bitwise_transparent() {
    let case = presets::two_phase_benchmark(3, [16, 16, 16]);
    for mode in [RhsMode::Staged, RhsMode::Fused] {
        let cfg = cfg_with(mode, RiemannSolver::Hllc, 1);
        let mut serial = Solver::new(&case, cfg, Context::serial());
        serial.run_steps(2).unwrap();
        for workers in WORKER_COUNTS {
            let tracer = Arc::new(Tracer::new());
            let mut ctx = Context::with_workers(workers);
            ctx.set_tracer(tracer.handle(0));
            let mut par = Solver::new(&case, cfg, ctx);
            par.run_steps(2).unwrap();
            assert_eq!(
                serial.state().as_slice(),
                par.state().as_slice(),
                "{mode:?} workers={workers}"
            );
            // 16^3 interior => every sweep launch is past PAR_MIN_ITEMS,
            // so the gang annotations must show real splits.
            let trace = &tracer.snapshot()[0];
            let max_gangs = trace
                .events
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::Kernel { gangs, .. } => Some(gangs),
                    _ => None,
                })
                .max()
                .unwrap();
            assert!(
                max_gangs as usize == workers.min(16 * 16 * 16),
                "{mode:?} workers={workers}: max gangs {max_gangs}, expected {workers}"
            );
        }
    }
}

/// The recovery ladder walks the same rungs under worker gangs: the
/// health scan's gang-ordered fold reports the same first violation, so
/// an overdriven run retries/degrades identically and lands bitwise on
/// the serial laddered state.
#[test]
fn recovery_ladder_retries_identically_at_four_workers() {
    let case = presets::sod(32);
    let mut probe = Solver::new(&case, SolverConfig::default(), Context::serial());
    let dt0 = probe.step().unwrap().dt;
    let cfg = SolverConfig {
        dt: DtMode::Fixed(dt0 * 16.0),
        ..Default::default()
    };
    let ladder = RecoveryPolicy {
        ladder: vec![
            RecoveryAction::HalveDt,
            RecoveryAction::HalveDt,
            RecoveryAction::HalveDt,
            RecoveryAction::HalveDt,
            RecoveryAction::ZhangShu,
            RecoveryAction::Weno3,
            RecoveryAction::Rusanov,
        ],
        max_retries: 32,
        restore_after: 1_000,
        crash_dump_dir: None,
    };

    let mut serial = Solver::new(&case, cfg, Context::serial()).with_recovery(ladder.clone());
    serial.run_steps(30).expect("serial ladder rides through");
    assert!(serial.recovery_state().total_retries > 0);

    let mut par = Solver::new(&case, cfg, Context::with_workers(4)).with_recovery(ladder);
    par.run_steps(30).expect("4-worker ladder rides through");

    assert_eq!(
        serial.recovery_state().total_retries,
        par.recovery_state().total_retries,
        "worker gangs changed the retry count"
    );
    assert_eq!(
        serial.state().as_slice(),
        par.state().as_slice(),
        "laddered state diverged under worker gangs"
    );
    assert_eq!(serial.time().to_bits(), par.time().to_bits());
}
