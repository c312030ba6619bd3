//! Thread-equivalence suite for gang-parallel RHS execution.
//!
//! The gang scheduler in `mfc-acc` partitions every hot-path iteration
//! space across worker threads with a fixed gang → index-block mapping,
//! and every kernel body writes disjoint slots of its outputs. That
//! contract makes multi-worker runs **bitwise identical** to
//! [`Context::serial`] at every worker count — including counts that
//! oversubscribe the host, so this suite is meaningful on a 1-core CI
//! runner too. These tests are the enforcement:
//!
//! 1. Property: random 3-D domains × both sweep engines × every Riemann
//!    solver, serial vs 2/3/4/8 workers; and 2-D domains on 2 ranks ×
//!    both halo stagings.
//! 2. Engagement: a deterministic case large enough that every gate
//!    (`PAR_MIN_ITEMS`) opens, checked via the trace's per-launch gang
//!    annotation — so the equivalence above is not vacuous.
//! 3. Shipped cases: every `cases/*.json` at 4 workers reproduces the
//!    1-worker state bitwise over the golden step counts, serially and
//!    on 2 simulated ranks.
//! 4. Recovery: the health watchdog + ladder walk the same rungs at
//!    4 workers as serially, bitwise.

use proptest::prelude::*;
use std::sync::Arc;

use mfc::core::par::{run_distributed, run_single};
use mfc::core::recovery::{RecoveryAction, RecoveryPolicy};
use mfc::core::rhs::{RhsConfig, RhsMode};
use mfc::core::riemann::RiemannSolver;
use mfc::mpsim::Staging;
use mfc::trace::{EventKind, Tracer};
use mfc::{presets, Context, DtMode, Solver, SolverConfig};
use mfc_cli::CaseFile;

/// Worker counts exercised everywhere: an even split, a remainder split,
/// the CI target, and an oversubscribing count.
const WORKER_COUNTS: [usize; 4] = [2, 3, 4, 8];

fn cases_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../cases")
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Serial and gang-parallel runs agree bitwise on random 3-D domains
    /// for both sweep engines and every Riemann solver.
    #[test]
    fn random_domains_bitwise_equal_at_every_worker_count(
        nx in 8usize..=14,
        ny in 8usize..=14,
        nz in 8usize..=14,
        mode_fused in proptest::bool::ANY,
        solver_idx in 0usize..3,
    ) {
        let mode = if mode_fused { RhsMode::Fused } else { RhsMode::Staged };
        let solver = [RiemannSolver::Hllc, RiemannSolver::Hll, RiemannSolver::Rusanov][solver_idx];
        let case = presets::two_phase_benchmark(3, [nx, ny, nz]);
        let serial = run_single(&case, cfg_with(mode, solver, 1), 2);
        for workers in WORKER_COUNTS {
            let par = run_single(&case, cfg_with(mode, solver, workers), 2);
            prop_assert_eq!(
                par.max_abs_diff(&serial), 0.0,
                "{:?} {:?} workers={}", mode, solver, workers
            );
        }
    }

    /// Distributed runs keep the bitwise guarantee when worker gangs and
    /// halo staging compose.
    #[test]
    fn distributed_bitwise_equal_with_worker_gangs(
        nx in 10usize..=14,
        ny in 10usize..=14,
        mode_fused in proptest::bool::ANY,
        host_staged in proptest::bool::ANY,
        workers_idx in 0usize..4,
    ) {
        let mode = if mode_fused { RhsMode::Fused } else { RhsMode::Staged };
        let staging = if host_staged { Staging::HostStaged } else { Staging::DeviceDirect };
        let workers = WORKER_COUNTS[workers_idx];
        let case = presets::two_phase_benchmark(2, [nx, ny, 1]);
        let serial = run_single(&case, cfg_with(mode, RiemannSolver::Hllc, 1), 3);
        let (dist, _) =
            run_distributed(&case, cfg_with(mode, RiemannSolver::Hllc, workers), 2, 3, staging)
                .unwrap();
        prop_assert_eq!(
            dist.max_abs_diff(&serial), 0.0,
            "{:?} {:?} workers={}", mode, staging, workers
        );
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

/// Every shipped case file reproduces its 1-worker state bitwise at
/// 4 workers over the golden step counts — the same guarantee the golden
/// harness enforces for the serial path, extended to worker gangs.
#[test]
fn shipped_cases_bitwise_equal_at_four_workers() {
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

        let mut serial = Solver::new(&case, cfg, Context::serial());
        serial.run_steps(steps).unwrap();

        let mut par = Solver::new(&case, cfg, Context::with_workers(4));
        par.run_steps(steps).unwrap();

        assert_eq!(
            serial.state().as_slice(),
            par.state().as_slice(),
            "{name}: 4-worker state diverged from serial"
        );
        assert_eq!(
            serial.time().to_bits(),
            par.time().to_bits(),
            "{name}: dt path diverged"
        );
    }
}

/// Shipped cases on 2 simulated ranks with 4 worker gangs per rank still
/// match the serial state.
#[test]
fn shipped_cases_distributed_bitwise_equal_at_four_workers() {
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
        let serial = run_single(&case, cfg, steps);
        cfg.workers = 4;
        let (dist, _) = run_distributed(&case, cfg, 2, steps, Staging::DeviceDirect).unwrap();
        assert_eq!(
            dist.max_abs_diff(&serial),
            0.0,
            "{name}: 2 ranks x 4 workers diverged from serial"
        );
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
