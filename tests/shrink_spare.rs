//! Permanent rank loss: shrink-and-continue and spare-rank takeover.
//!
//! The tentpole guarantee: when a rank dies *permanently*, the survivors
//! either reach consensus on a shrunk communicator (recomputing the
//! Cartesian decomposition and redistributing the last committed
//! checkpoint wave cross-shard) or promote an idle hot spare into the
//! vacant slot — and in both cases the post-recovery trajectory is
//! **bitwise identical** to a fresh run from that checkpoint, which (by
//! the repo's rank-count invariance) equals the serial run. Covers both
//! sweep engines, the recovery
//! trace spans with exact ledger reconciliation, checkpoint retention,
//! and the typed errors for unrecoverable configurations.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mfc_acc::{Ledger, ResilienceEventKind};
use mfc_core::case::presets;
use mfc_core::par::GlobalField;
use mfc_core::par::{run_distributed_resilient, run_single, ResilienceError, ResilienceOpts};
use mfc_core::restart::wave_path;
use mfc_core::rhs::RhsMode;
use mfc_core::solver::SolverConfig;
use mfc_core::HealthConfig;
use mfc_mpsim::{
    DetectorConfig, FailurePolicy, FaultCtx, FaultPlan, RankDeath, RankStall, Staging,
};
use mfc_trace::{chrome, nesting, reconcile_trace, Tracer};
use proptest::prelude::*;

const STEPS: usize = 12;

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mfc_shrink_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn detector() -> DetectorConfig {
    DetectorConfig {
        slice_ms: 5,
        retries: 8,
        backoff: 1.5,
    }
}

/// A plan that kills physical rank 2 permanently at step 7 — after the
/// wave-2 commit at step 6, so both policies recover from that wave.
fn perm_death_plan() -> FaultPlan {
    FaultPlan {
        deaths: vec![RankDeath {
            rank: 2,
            step: 7,
            permanent: true,
        }],
        ..FaultPlan::none()
    }
}

fn opts_for(
    dir: &std::path::Path,
    faults: Arc<FaultCtx>,
    events: &Arc<Ledger>,
    policy: FailurePolicy,
    spares: usize,
) -> ResilienceOpts {
    ResilienceOpts {
        checkpoint_every: 3,
        ckpt_dir: dir.to_path_buf(),
        faults: Some(faults),
        events: Some(Arc::clone(events)),
        recovery: None,
        health: HealthConfig::default(),
        trace: None,
        failure_policy: policy,
        spares,
        ckpt_keep: 2,
        output: None,
    }
}

#[test]
fn wave_files_follow_the_post_recovery_roster_under_both_policies() {
    // The output layer's wave barriers span the *current* roster: after
    // a shrink the three survivors write (and nobody waits for the dead
    // rank); under `spare` the promoted spare writes slot 2's file and
    // the idle second spare is not waited for either. Either way the
    // files reassemble to the serial field.
    use mfc_core::output::postprocess_wave_files;
    use mfc_core::par::WaveOutput;

    let case = presets::sod(64);
    let cfg = SolverConfig::default();
    let serial = run_single(&case, cfg, STEPS);
    for (policy, spares, writers) in [(FailurePolicy::Shrink, 0, 3), (FailurePolicy::Spare, 2, 4)] {
        let dir = tmp_dir(&format!("waves_{policy:?}"));
        let faults = Arc::new(
            FaultCtx::new_with_spares(perm_death_plan(), 4, spares).with_detector(detector()),
        );
        let events = Arc::new(Ledger::default());
        let opts = ResilienceOpts {
            output: Some(WaveOutput {
                dir: dir.join("waves"),
                wave_size: 2,
            }),
            ..opts_for(&dir, faults, &events, policy, spares)
        };
        run_distributed_resilient(&case, cfg, 4, STEPS, Staging::DeviceDirect, &opts)
            .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        let (header, field) = postprocess_wave_files(&dir.join("waves"), STEPS)
            .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        assert_eq!(header.dims.iter().product::<usize>(), writers, "{policy:?}");
        assert_eq!(field.max_abs_diff(&serial), 0.0, "{policy:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn shrink_recovers_permanent_death_bitwise_all_modes() {
    // 4 ranks, rank 2 dies for good at step 7: the three survivors agree
    // on a 3-rank world, re-shard wave 2 (written by the 4-rank layout,
    // dead rank's block included), and replay. The final field must be
    // bitwise the serial answer — under both sweep engines.
    let case = presets::sod(64);
    for rhs_mode in [RhsMode::Staged, RhsMode::Fused] {
        let mut cfg = SolverConfig::default();
        cfg.rhs.mode = rhs_mode;
        let serial = run_single(&case, cfg, STEPS);
        let dir = tmp_dir(&format!("shrink_{rhs_mode:?}"));
        let faults = Arc::new(FaultCtx::new(perm_death_plan(), 4).with_detector(detector()));
        let events = Arc::new(Ledger::default());
        let opts = opts_for(&dir, faults, &events, FailurePolicy::Shrink, 0);
        let (field, _) =
            run_distributed_resilient(&case, cfg, 4, STEPS, Staging::DeviceDirect, &opts)
                .unwrap_or_else(|e| panic!("{rhs_mode:?}: {e}"));
        assert_eq!(
            field.max_abs_diff(&serial),
            0.0,
            "{rhs_mode:?}: shrunk run must stay bitwise serial"
        );
        use ResilienceEventKind as K;
        assert_eq!(events.events_of(K::Shrink).len(), 1, "one shrink consensus");
        assert_eq!(
            events.events_of(K::Redistribute).len(),
            1,
            "the rolled-back wave is re-sharded exactly once"
        );
        assert!(events.events_of(K::PromoteSpare).is_empty());
        assert_eq!(events.events_of(K::FaultDetected).len(), 1);
        assert_eq!(events.events_of(K::Rollback).len(), 1);
        assert_eq!(events.events_of(K::Replay).len(), 1);
        let shrink = &events.events_of(K::Shrink)[0];
        assert!(
            shrink.detail.contains("4 -> 3"),
            "shrink detail: {}",
            shrink.detail
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn spare_takeover_recovers_permanent_death_bitwise_all_modes() {
    // Same death, but a hot spare (physical rank 4) idles outside the
    // decomposition and is promoted into slot 2. No re-decomposition:
    // the spare loads the dead rank's own shard of wave 2 and the world
    // stays 4 wide — still bitwise the serial answer.
    let case = presets::sod(64);
    for rhs_mode in [RhsMode::Staged, RhsMode::Fused] {
        let mut cfg = SolverConfig::default();
        cfg.rhs.mode = rhs_mode;
        let serial = run_single(&case, cfg, STEPS);
        let dir = tmp_dir(&format!("spare_{rhs_mode:?}"));
        let faults =
            Arc::new(FaultCtx::new_with_spares(perm_death_plan(), 4, 1).with_detector(detector()));
        let events = Arc::new(Ledger::default());
        let opts = opts_for(&dir, faults, &events, FailurePolicy::Spare, 1);
        let (field, _) =
            run_distributed_resilient(&case, cfg, 4, STEPS, Staging::DeviceDirect, &opts)
                .unwrap_or_else(|e| panic!("{rhs_mode:?}: {e}"));
        assert_eq!(
            field.max_abs_diff(&serial),
            0.0,
            "{rhs_mode:?}: spare takeover must stay bitwise serial"
        );
        use ResilienceEventKind as K;
        assert_eq!(
            events.events_of(K::PromoteSpare).len(),
            1,
            "exactly one promotion"
        );
        assert!(
            events.events_of(K::Shrink).is_empty(),
            "no re-decomposition"
        );
        assert!(events.events_of(K::Redistribute).is_empty());
        assert_eq!(events.events_of(K::Rollback).len(), 1);
        let promo = &events.events_of(K::PromoteSpare)[0];
        assert!(
            promo.detail.contains("physical rank 4") && promo.detail.contains("slot 2"),
            "promotion detail: {}",
            promo.detail
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn recovery_spans_are_schema_valid_and_ledger_reconciles() {
    // The recovery machinery is visible in the trace: a shrunk run emits
    // `shrink` and `redistribute` spans, a spare run `promote_spare` —
    // and in both cases the chrome export is schema-valid, well-nested,
    // and the per-kernel totals still reconcile exactly against the
    // analytic ledger (dead rank's and spare's timelines included).
    let case = presets::sod(64);
    let cfg = SolverConfig::default();
    let serial = run_single(&case, cfg, STEPS);

    for (policy, spares, wanted) in [
        (FailurePolicy::Shrink, 0usize, ["shrink", "redistribute"]),
        (FailurePolicy::Spare, 1usize, ["promote_spare", "rollback"]),
    ] {
        let dir = tmp_dir(&format!("trace_{policy:?}"));
        let faults = Arc::new(
            FaultCtx::new_with_spares(perm_death_plan(), 4, spares).with_detector(detector()),
        );
        let events = Arc::new(Ledger::default());
        let tracer = Arc::new(Tracer::new());
        let mut opts = opts_for(&dir, faults, &events, policy, spares);
        opts.trace = Some(Arc::clone(&tracer));
        let (field, _) =
            run_distributed_resilient(&case, cfg, 4, STEPS, Staging::DeviceDirect, &opts)
                .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        assert_eq!(field.max_abs_diff(&serial), 0.0, "{policy:?}");

        let traces = tracer.snapshot();
        assert_eq!(traces.len(), 4 + spares, "one timeline per physical rank");
        let text = chrome::export_to_string(&traces);
        let root: serde_json::Value = serde_json::from_str(&text).unwrap();
        let schema_errors = chrome::validate_schema(&root);
        assert!(
            schema_errors.is_empty(),
            "{policy:?}: schema violations: {schema_errors:?}"
        );
        let parsed = chrome::parse_str(&text).unwrap();
        nesting::check_trace(&parsed).expect("recovery spans must stay well-nested");
        reconcile_trace(&parsed)
            .expect("kernel ledger must reconcile exactly across a permanent loss");
        for span in wanted {
            assert!(
                parsed
                    .ranks
                    .values()
                    .any(|events| events.iter().any(|e| e.name == span)),
                "{policy:?}: no `{span}` span in the trace"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn permanent_death_under_revive_policy_is_unrecoverable() {
    // The pre-existing transient semantics: a *permanent* death cannot
    // be revived, so the survivors report a typed error in lockstep
    // instead of hanging in the rendezvous.
    let case = presets::sod(64);
    let cfg = SolverConfig::default();
    let dir = tmp_dir("revive_perm");
    let faults = Arc::new(FaultCtx::new(perm_death_plan(), 4).with_detector(detector()));
    let events = Arc::new(Ledger::default());
    let opts = opts_for(&dir, faults, &events, FailurePolicy::Revive, 0);
    let err = run_distributed_resilient(&case, cfg, 4, STEPS, Staging::DeviceDirect, &opts)
        .expect_err("revive cannot resurrect a permanent loss");
    match err {
        ResilienceError::Unrecoverable { detail, .. } => {
            assert!(detail.contains("Revive"), "detail: {detail}");
        }
        other => panic!("expected Unrecoverable, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exhausted_spare_pool_is_a_typed_error() {
    // Two permanent deaths, one spare: the first promotion drains the
    // pool, the second death leaves a vacant slot with no spare — a
    // typed Unrecoverable, not a hang.
    let case = presets::sod(64);
    let cfg = SolverConfig::default();
    let dir = tmp_dir("spare_exhausted");
    let plan = FaultPlan {
        deaths: vec![
            RankDeath {
                rank: 2,
                step: 7,
                permanent: true,
            },
            RankDeath {
                rank: 1,
                step: 10,
                permanent: true,
            },
        ],
        ..FaultPlan::none()
    };
    let faults = Arc::new(FaultCtx::new_with_spares(plan, 4, 1).with_detector(detector()));
    let events = Arc::new(Ledger::default());
    let opts = opts_for(&dir, faults, &events, FailurePolicy::Spare, 1);
    let err = run_distributed_resilient(&case, cfg, 4, 16, Staging::DeviceDirect, &opts)
        .expect_err("second permanent death exhausts the single spare");
    match err {
        ResilienceError::Unrecoverable { detail, .. } => {
            assert!(detail.contains("spare pool exhausted"), "detail: {detail}");
        }
        other => panic!("expected Unrecoverable, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plan_without_survivor_quorum_is_rejected_host_side() {
    // Killing every rank permanently leaves no one to reach consensus;
    // the plan is rejected before any rank is spawned (typed config
    // error, not a hang).
    let case = presets::sod(64);
    let cfg = SolverConfig::default();
    let dir = tmp_dir("no_quorum");
    let deaths = (0..2)
        .map(|r| RankDeath {
            rank: r,
            step: 4,
            permanent: true,
        })
        .collect();
    let plan = FaultPlan {
        deaths,
        ..FaultPlan::none()
    };
    let faults = Arc::new(FaultCtx::new(plan, 2).with_detector(detector()));
    let events = Arc::new(Ledger::default());
    let opts = opts_for(&dir, faults, &events, FailurePolicy::Shrink, 0);
    let err = run_distributed_resilient(&case, cfg, 2, STEPS, Staging::DeviceDirect, &opts)
        .expect_err("a plan with no survivors must be rejected");
    match err {
        ResilienceError::Plan { detail } => {
            assert!(detail.contains("quorum"), "detail: {detail}");
        }
        other => panic!("expected Plan, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mismatched_spare_pool_is_rejected_host_side() {
    // The fault board must be provisioned for active + spare physical
    // ranks; a board built without the pool is a config error.
    let case = presets::sod(64);
    let cfg = SolverConfig::default();
    let dir = tmp_dir("bad_board");
    let faults = Arc::new(FaultCtx::new(perm_death_plan(), 4).with_detector(detector()));
    let events = Arc::new(Ledger::default());
    let opts = opts_for(&dir, faults, &events, FailurePolicy::Spare, 1);
    let err = run_distributed_resilient(&case, cfg, 4, STEPS, Staging::DeviceDirect, &opts)
        .expect_err("board without the spare pool must be rejected");
    assert!(matches!(err, ResilienceError::Plan { .. }), "got {err:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_retention_keeps_exactly_the_newest_waves() {
    // ckpt_keep = 2 over 5 committed waves: only the two newest survive
    // on disk for every rank, and the newest committed wave is present.
    let case = presets::sod(64);
    let cfg = SolverConfig::default();
    let dir = tmp_dir("retention");
    let mut opts = ResilienceOpts::fault_free(&dir, 2);
    opts.ckpt_keep = 2;
    let (_, _) =
        run_distributed_resilient(&case, cfg, 2, 10, Staging::DeviceDirect, &opts).unwrap();
    // Waves 0..=4 were committed (steps 0, 2, 4, 6, 8).
    for rank in 0..2 {
        for wave in 0..=2u64 {
            assert!(
                !wave_path(&dir, rank, wave).exists(),
                "rank {rank} wave {wave} should have been garbage-collected"
            );
        }
        for wave in 3..=4u64 {
            assert!(
                wave_path(&dir, rank, wave).exists(),
                "rank {rank} wave {wave} must be retained"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gc_never_starves_a_rollback() {
    // The tightest retention (keep 1) with a death immediately after a
    // commit: GC has just deleted everything but the newest committed
    // wave, and the rollback must still find it and recover bitwise.
    // (GC only runs between commits and never touches the newest
    // committed wave, so a rollback candidate scan cannot race it.)
    let case = presets::sod(64);
    let cfg = SolverConfig::default();
    let serial = run_single(&case, cfg, 10);
    let dir = tmp_dir("gc_rollback");
    let plan = FaultPlan {
        deaths: vec![RankDeath {
            rank: 1,
            step: 7,
            permanent: false,
        }],
        ..FaultPlan::none()
    };
    let faults = Arc::new(FaultCtx::new(plan, 2).with_detector(detector()));
    let events = Arc::new(Ledger::default());
    let mut opts = opts_for(&dir, faults, &events, FailurePolicy::Revive, 0);
    opts.checkpoint_every = 3;
    opts.ckpt_keep = 1;
    let (field, _) =
        run_distributed_resilient(&case, cfg, 2, 10, Staging::DeviceDirect, &opts).unwrap();
    assert_eq!(field.max_abs_diff(&serial), 0.0);
    assert_eq!(
        events.events_of(ResilienceEventKind::Rollback).len(),
        1,
        "the newest committed wave was loadable on the first try"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_checkpoint_write_is_a_collective_typed_error() {
    // Satellite regression: a checkpoint write failure used to panic one
    // rank mid-collective ("checkpoint write") while its peers hung. A
    // directory squatting on rank 1's wave-1 file defeats the atomic
    // rename; now every rank returns the same typed I/O error.
    let case = presets::sod(64);
    let cfg = SolverConfig::default();
    let dir = tmp_dir("bad_write");
    std::fs::create_dir_all(wave_path(&dir, 1, 1)).unwrap();
    let opts = ResilienceOpts::fault_free(&dir, 2);
    let err = run_distributed_resilient(&case, cfg, 2, 10, Staging::DeviceDirect, &opts)
        .expect_err("rank 1 cannot rename its wave over a directory");
    assert!(matches!(err, ResilienceError::Io { .. }), "got {err:?}");
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Rank-count invariance of the resilient driver itself: on random
    /// domains, under both sweep engines,
    /// `run_distributed_resilient` at R ranks is bitwise identical to
    /// R' ranks (both fault-free, so this pins the driver's layout and
    /// checkpoint plumbing, not the fault machinery).
    #[test]
    fn resilient_driver_is_rank_count_invariant(
        nx in 40usize..72,
        steps in 4usize..8,
        fused in proptest::bool::ANY,
        pair_idx in 0usize..3,
    ) {
        let case = presets::sod(nx);
        let mut cfg = SolverConfig::default();
        cfg.rhs.mode = if fused { RhsMode::Fused } else { RhsMode::Staged };
        let (r_a, r_b) = [(2usize, 3usize), (2, 4), (3, 4)][pair_idx];
        let mut fields = Vec::new();
        for ranks in [r_a, r_b] {
            let dir = tmp_dir(&format!("prop_{nx}_{steps}_{fused}_{ranks}"));
            let opts = ResilienceOpts::fault_free(&dir, 2);
            let (field, _) =
                run_distributed_resilient(&case, cfg, ranks, steps, Staging::DeviceDirect, &opts)
                    .unwrap();
            fields.push(field);
            std::fs::remove_dir_all(&dir).ok();
        }
        prop_assert_eq!(
            fields[0].max_abs_diff(&fields[1]),
            0.0,
            "{} vs {} ranks diverged", r_a, r_b
        );
    }
}

/// Run `plan` on 4 ranks of the 64-cell Sod tube under `policy`,
/// truncating each of the checkpoint files `corrupt` names (rank, wave)
/// once, as soon as the run publishes it — after its write, before any
/// rollback can read it. Retention keeps every wave. Returns the field and
/// how many of the files were struck.
fn run_striking_waves(
    name: &str,
    plan: FaultPlan,
    policy: FailurePolicy,
    corrupt: &[(usize, u64)],
) -> (GlobalField, usize) {
    let case = presets::sod(64);
    let dir = tmp_dir(name);
    let spares = usize::from(policy == FailurePolicy::Spare);
    let faults = Arc::new(FaultCtx::new_with_spares(plan, 4, spares).with_detector(detector()));
    let events = Arc::new(Ledger::default());
    let mut opts = opts_for(&dir, faults, &events, policy, spares);
    opts.ckpt_keep = 64;
    let stop = Arc::new(AtomicBool::new(false));
    let mut pending: Vec<PathBuf> = corrupt
        .iter()
        .map(|&(r, w)| wave_path(&dir, r, w))
        .collect();
    let watcher = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut struck = 0;
            while !pending.is_empty() && !stop.load(Ordering::Relaxed) {
                // A published file is whole: it appears by atomic rename.
                pending.retain(|p| {
                    let Ok(meta) = std::fs::metadata(p) else {
                        return true;
                    };
                    let f = std::fs::OpenOptions::new().write(true).open(p).unwrap();
                    f.set_len(meta.len() / 2).unwrap();
                    struck += 1;
                    false
                });
                std::thread::sleep(Duration::from_millis(1));
            }
            struck
        })
    };
    let run = run_distributed_resilient(
        &case,
        SolverConfig::default(),
        4,
        STEPS,
        Staging::DeviceDirect,
        &opts,
    );
    stop.store(true, Ordering::Relaxed);
    let struck = watcher.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let (field, _) = run.unwrap_or_else(|e| panic!("{name}: {e}"));
    (field, struck)
}

fn death(rank: usize, step: u64, permanent: bool) -> RankDeath {
    RankDeath {
        rank,
        step,
        permanent,
    }
}

/// Stale shards next to a rewritten wave: rank 2 of 4 dies for good at
/// step 7, and rank 3's shard of wave 2 is struck after its commit. The
/// shrinking rollback cannot re-shard wave 2 and re-shards wave 1 instead;
/// the 3-rank roster then rewrites wave 2 beside the 4-rank layout's
/// struck rank-3 file and writes wave 3, whose rank-0 shard is struck
/// too. Rank 0's transient death at step 10 rolls back past wave 3 onto
/// the rewritten wave 2, which its headers say is the current layout's.
/// Rank 1 stalls 100 ms (well inside the detector's patience) at both
/// death steps, holding each rollback open until the watcher has struck.
#[test]
fn shrink_rollback_past_struck_shards_and_a_later_death_stays_bitwise() {
    let serial = run_single(&presets::sod(64), SolverConfig::default(), STEPS);
    let stall = |step| RankStall {
        rank: 1,
        step,
        millis: 100,
    };
    let plan = FaultPlan {
        deaths: vec![death(2, 7, true), death(0, 10, false)],
        stalls: vec![stall(7), stall(10)],
        ..FaultPlan::none()
    };
    let struck = [(3, 2), (0, 3)];
    let (field, hit) = run_striking_waves("stale", plan, FailurePolicy::Shrink, &struck);
    assert_eq!(hit, 2, "the watcher struck both shards");
    assert_eq!(field.max_abs_diff(&serial), 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Rollback from self-describing waves: a permanent loss at a random
    /// step under shrink or spare, a random set of committed checkpoint
    /// files struck after their commit, and an optional later transient
    /// death. Wave 0 is never struck and every wave is kept, so some wave
    /// always loads; every run ends bitwise on the fault-free field.
    #[test]
    fn rollback_through_struck_waves_after_a_permanent_loss_is_bitwise(
        spare in proptest::bool::ANY,
        lost in 0usize..4,
        lost_at in 1u64..12,
        mask in 0u32..1 << 12,
        later in 0u64..8,
    ) {
        let serial = run_single(&presets::sod(64), SolverConfig::default(), STEPS);
        let mut deaths = vec![death(lost, lost_at, true)];
        if later > 0 && lost_at + later < STEPS as u64 {
            deaths.push(death((lost + 1) % 4, lost_at + later, false));
        }
        let corrupt: Vec<(usize, u64)> = (0..12)
            .filter(|bit| mask & (1 << bit) != 0)
            .map(|bit| (bit % 4, 1 + bit as u64 / 4))
            .collect();
        let policy = if spare { FailurePolicy::Spare } else { FailurePolicy::Shrink };
        let name = format!("prop_{spare}_{lost}_{lost_at}_{mask}_{later}");
        let plan = FaultPlan { deaths: deaths.clone(), ..FaultPlan::none() };
        let (field, _) = run_striking_waves(&name, plan, policy, &corrupt);
        prop_assert_eq!(
            field.max_abs_diff(&serial),
            0.0,
            "{:?} deaths {:?} struck {:?}", policy, deaths, corrupt
        );
    }
}
