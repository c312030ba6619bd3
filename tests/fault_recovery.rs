//! Acceptance tests for the fault-injection + recovery subsystem.
//!
//! The central guarantee: a run that loses ranks, drops messages, or
//! stalls — and recovers through checkpoint rollback — produces output
//! **bitwise identical** to a fault-free run. The property test below
//! asserts this for arbitrary seeded recoverable fault plans; the
//! negative tests assert that unrecoverable plans fail fast with a
//! reported error instead of hanging.

use std::sync::{Arc, OnceLock};

use mfc_acc::{Ledger, ResilienceEventKind};
use mfc_core::case::presets;
use mfc_core::par::{
    run_distributed_resilient, run_single, GlobalField, ResilienceError, ResilienceOpts,
};
use mfc_core::solver::SolverConfig;
use mfc_mpsim::{
    DetectorConfig, FailurePolicy, FaultCtx, FaultPlan, MsgDelay, MsgFault, RankDeath, RankStall,
};
use proptest::prelude::*;

const STEPS: usize = 12;

fn fast_detector() -> DetectorConfig {
    DetectorConfig {
        slice_ms: 5,
        retries: 8,
        backoff: 1.5,
    }
}

fn ckpt_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mfc_frec_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The fault-free reference solution, computed once.
fn reference() -> &'static GlobalField {
    static REF: OnceLock<GlobalField> = OnceLock::new();
    REF.get_or_init(|| run_single(&presets::sod(32), SolverConfig::default(), STEPS))
}

/// Run sod(32) under `plan` on `ranks` ranks with recovery enabled and
/// return the result plus the event ledger.
fn run_with_plan(
    tag: &str,
    plan: FaultPlan,
    ranks: usize,
    checkpoint_every: u64,
) -> (Result<GlobalField, ResilienceError>, Arc<Ledger>) {
    let dir = ckpt_dir(tag);
    let events = Arc::new(Ledger::default());
    let opts = ResilienceOpts {
        checkpoint_every,
        ckpt_dir: dir.clone(),
        faults: Some(Arc::new(
            FaultCtx::new(plan, ranks).with_detector(fast_detector()),
        )),
        events: Some(Arc::clone(&events)),
        recovery: None,
        health: mfc_core::HealthConfig::default(),
        trace: None,
        failure_policy: FailurePolicy::Revive,
        spares: 0,
        ckpt_keep: 2,
        output: None,
    };
    let out = run_distributed_resilient(
        &presets::sod(32),
        SolverConfig::default(),
        ranks,
        STEPS,
        mfc_mpsim::Staging::DeviceDirect,
        &opts,
    )
    .map(|(field, _)| field);
    std::fs::remove_dir_all(&dir).ok();
    (out, events)
}

#[test]
fn wave_files_are_written_once_after_the_replay_bitwise_equal_to_fault_free() {
    // The output layer runs after the last *accepted* step: a transient
    // death mid-run is rolled back and replayed first, then every rank
    // writes its wave file exactly once — the same bytes a fault-free run
    // writes.
    use mfc_core::par::WaveOutput;
    use mfc_mpsim::WaveWriter;
    use mfc_trace::{EventKind, Tracer};

    let dir = ckpt_dir("waveout");
    let run = |tag: &str, deaths: Vec<RankDeath>| {
        let plan = FaultPlan {
            deaths,
            ..FaultPlan::none()
        };
        let tracer = Arc::new(Tracer::new());
        let opts = ResilienceOpts {
            faults: Some(Arc::new(
                FaultCtx::new(plan, 2).with_detector(fast_detector()),
            )),
            trace: Some(Arc::clone(&tracer)),
            output: Some(WaveOutput {
                dir: dir.join(tag),
                wave_size: 1,
            }),
            ..ResilienceOpts::fault_free(dir.join(format!("{tag}_ckpt")), 4)
        };
        let (field, _) = run_distributed_resilient(
            &presets::sod(32),
            SolverConfig::default(),
            2,
            STEPS,
            mfc_mpsim::Staging::DeviceDirect,
            &opts,
        )
        .expect("a transient death is recoverable");
        assert_eq!(field.max_abs_diff(reference()), 0.0);
        tracer.snapshot()
    };
    run("clean", Vec::new());
    let traces = run(
        "faulty",
        vec![RankDeath {
            rank: 1,
            step: 6,
            permanent: false,
        }],
    );
    for rank in 0..2 {
        assert_eq!(
            std::fs::read(WaveWriter::rank_path(&dir.join("faulty"), STEPS, rank)).unwrap(),
            std::fs::read(WaveWriter::rank_path(&dir.join("clean"), STEPS, rank)).unwrap(),
            "rank {rank}: recovered wave file differs from the fault-free one"
        );
        let trace = traces.iter().find(|t| t.rank == rank).unwrap();
        let names: Vec<&str> = trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Begin { name, .. } => Some(name),
                _ => None,
            })
            .filter(|name| matches!(*name, "rollback" | "io_wave_write"))
            .collect();
        assert_eq!(
            names,
            ["rollback", "io_wave_write"],
            "rank {rank}: one write, after the rollback"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn multi_rank_deaths_recover_bitwise_identical() {
    // Two separate ranks die at different steps; each death forces a
    // detection, a global rollback, and a replay — and the final state
    // still matches the serial fault-free run bit for bit.
    let plan = FaultPlan {
        deaths: vec![
            RankDeath {
                rank: 1,
                step: 5,
                permanent: false,
            },
            RankDeath {
                rank: 3,
                step: 9,
                permanent: false,
            },
        ],
        ..FaultPlan::none()
    };
    let (out, events) = run_with_plan("multideath", plan, 4, 3);
    let field = out.expect("both deaths are recoverable");
    assert_eq!(
        field.max_abs_diff(reference()),
        0.0,
        "recovered 4-rank run must be bitwise identical to fault-free"
    );
    assert_eq!(
        events.events_of(ResilienceEventKind::FaultDetected).len(),
        2
    );
    assert_eq!(events.events_of(ResilienceEventKind::Rollback).len(), 2);
    assert_eq!(events.events_of(ResilienceEventKind::Replay).len(), 2);
    assert!(events.events_of(ResilienceEventKind::Checkpoint).len() >= 4);
}

#[test]
fn mixed_fault_plan_recovers_bitwise_identical() {
    // Drops, a delayed (reordered) message, a stall, and a death in one
    // plan: retransmission absorbs the message faults, retry/backoff
    // absorbs the stall, rollback absorbs the death.
    let plan = FaultPlan {
        seed: 7,
        drops: vec![
            MsgFault {
                src: 0,
                dst: 1,
                nth: 2,
            },
            MsgFault {
                src: 1,
                dst: 0,
                nth: 9,
            },
        ],
        delays: vec![MsgDelay {
            src: 1,
            dst: 0,
            nth: 5,
            hold: 2,
        }],
        reorders: vec![MsgFault {
            src: 0,
            dst: 1,
            nth: 11,
        }],
        stalls: vec![RankStall {
            rank: 1,
            step: 3,
            millis: 15,
        }],
        deaths: vec![RankDeath {
            rank: 0,
            step: 7,
            permanent: false,
        }],
    };
    let (out, events) = run_with_plan("mixed", plan, 2, 4);
    let field = out.expect("plan is recoverable");
    assert_eq!(field.max_abs_diff(reference()), 0.0);
    assert!(!events.events_of(ResilienceEventKind::Rollback).is_empty());
}

#[test]
fn recovery_events_carry_timing() {
    let plan = FaultPlan {
        deaths: vec![RankDeath {
            rank: 1,
            step: 6,
            permanent: false,
        }],
        ..FaultPlan::none()
    };
    let (out, events) = run_with_plan("timing", plan, 2, 4);
    out.unwrap();
    // Replay re-executes at least two real solver steps, so its recorded
    // wall time must be non-zero; detection waited at least one slice.
    let replay = &events.events_of(ResilienceEventKind::Replay)[0];
    assert!(replay.wall.as_nanos() > 0);
    let detect = &events.events_of(ResilienceEventKind::FaultDetected)[0];
    assert!(detect.wall >= std::time::Duration::from_millis(1));
}

#[test]
fn death_without_checkpoints_errors_instead_of_hanging() {
    let plan = FaultPlan {
        deaths: vec![RankDeath {
            rank: 1,
            step: 4,
            permanent: false,
        }],
        ..FaultPlan::none()
    };
    let (out, _) = run_with_plan("nockpt", plan, 2, 0);
    assert!(matches!(
        out.unwrap_err(),
        ResilienceError::Unrecoverable { .. }
    ));
}

#[test]
fn death_before_first_commit_errors_instead_of_hanging() {
    // The rank dies at step 0, before the wave-0 commit collective can
    // complete — so there is no consistent checkpoint to roll back to.
    let plan = FaultPlan {
        deaths: vec![RankDeath {
            rank: 1,
            step: 0,
            permanent: false,
        }],
        ..FaultPlan::none()
    };
    let (out, _) = run_with_plan("early", plan, 2, 4);
    assert!(matches!(
        out.unwrap_err(),
        ResilienceError::Unrecoverable { .. }
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any seeded recoverable fault plan — random drops and delays on
    /// both flows plus one rank death after the first committed wave —
    /// yields output bitwise equal to the fault-free reference.
    #[test]
    fn any_recoverable_plan_is_bitwise_transparent(
        seed in 0u64..1_000_000,
        drop_nths in proptest::collection::vec(0u64..48, 0..4),
        delay_nth in 0u64..32,
        delay_hold in 1u32..4,
        kill_rank in 0usize..2,
        death_step in 1u64..12,
    ) {
        let plan = FaultPlan {
            seed,
            drops: drop_nths
                .iter()
                .enumerate()
                .map(|(i, &nth)| MsgFault { src: i % 2, dst: (i + 1) % 2, nth })
                .collect(),
            delays: vec![MsgDelay { src: 1, dst: 0, nth: delay_nth, hold: delay_hold }],
            deaths: vec![RankDeath {
                rank: kill_rank,
                step: death_step,
                permanent: false,
            }],
            ..FaultPlan::none()
        };
        let tag = format!("prop{seed}_{death_step}_{kill_rank}");
        let (out, _) = run_with_plan(&tag, plan, 2, 4);
        let field = match out {
            Ok(f) => f,
            Err(e) => {
                return Err(proptest::test_runner::TestCaseError::fail(format!(
                    "recoverable plan failed: {e}"
                )))
            }
        };
        prop_assert_eq!(
            field.max_abs_diff(reference()),
            0.0,
            "fault plan must be bitwise transparent after recovery"
        );
    }
}
