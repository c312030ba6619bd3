//! Acceptance tests for the numerical-health watchdog and the
//! graceful-degradation recovery ladder.
//!
//! Three guarantees matter:
//!
//! 1. **Transparency** — arming the watchdog + ladder on a healthy run
//!    changes nothing, bitwise, for every shipped case file (the golden
//!    sums stay exactly as committed).
//! 2. **Recovery** — a run that *would* blow up (over-aggressive fixed
//!    dt, injected NaN) instead walks the ladder, completes with finite
//!    state, and logs every detection/retry/degradation event.
//! 3. **Lockstep** — on simulated ranks the verdict is collective, so a
//!    multi-rank laddered run is bitwise identical to the serial laddered
//!    run, and a corrupt checkpoint wave is skipped by *all* ranks
//!    together during rollback.

use std::sync::Arc;

use mfc_acc::{Context, Ledger, ResilienceEventKind};
use mfc_cli::{run_case, CaseFile, RunError};
use mfc_core::case::{presets, CaseBuilder};
use mfc_core::par::{run_distributed_resilient, run_single, GlobalField, ResilienceOpts};
use mfc_core::recovery::{RecoveryAction, RecoveryPolicy};
use mfc_core::solver::{DtMode, Solver, SolverConfig};
use mfc_core::HealthConfig;
use mfc_mpsim::FailurePolicy;

fn cases_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../cases")
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mfc_health_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A ladder deep enough to tame a 16x-overdriven fixed dt.
fn deep_ladder() -> RecoveryPolicy {
    RecoveryPolicy {
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
    }
}

/// Snapshot a serial solver's interior in [`GlobalField`] layout.
fn snapshot(solver: &Solver, case: &CaseBuilder) -> GlobalField {
    let dom = *solver.domain();
    let q = solver.state();
    let mut data = Vec::with_capacity(dom.interior_cells() * dom.eq.neq());
    for e in 0..dom.eq.neq() {
        for (i, j, k) in dom.interior() {
            data.push(q.get(i, j, k, e));
        }
    }
    GlobalField {
        n: case.cells,
        neq: dom.eq.neq(),
        data,
    }
}

/// A fixed dt that overdrives sod(32) past the CFL bound by ~16x.
fn overdriven_cfg() -> SolverConfig {
    let case = presets::sod(32);
    let mut probe = Solver::new(&case, SolverConfig::default(), Context::serial());
    let dt0 = probe.step().unwrap().dt;
    SolverConfig {
        dt: DtMode::Fixed(dt0 * 16.0),
        ..SolverConfig::default()
    }
}

// ---------------------------------------------------------------------
// 1. Transparency: armed == plain, bitwise, on every shipped case.
// ---------------------------------------------------------------------

#[test]
fn armed_recovery_is_bitwise_transparent_on_all_shipped_cases() {
    // Same cases and step counts as the golden harness: bitwise-equal
    // state implies bitwise-equal golden sums and probes.
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

        let mut plain = Solver::new(&case, cfg, Context::serial());
        plain.run_steps(steps).unwrap();

        let mut armed =
            Solver::new(&case, cfg, Context::serial()).with_recovery(RecoveryPolicy::default());
        armed.run_steps(steps).unwrap();

        assert_eq!(
            plain.state().as_slice(),
            armed.state().as_slice(),
            "{name}: arming the recovery ladder perturbed a clean run"
        );
        assert!(
            armed.context().ledger().events().is_empty(),
            "{name}: clean run must record no resilience events"
        );
        assert_eq!(armed.recovery_state().total_retries, 0);
    }
}

// ---------------------------------------------------------------------
// 2. Recovery: an overdriven run completes through the ladder.
// ---------------------------------------------------------------------

#[test]
fn overdriven_dt_without_recovery_is_a_typed_error() {
    let case = presets::sod(32);
    let mut solver = Solver::new(&case, overdriven_cfg(), Context::serial());
    let err = solver.run_steps(40).unwrap_err();
    assert_eq!(err.attempts, 1, "no policy armed: one attempt, then abort");
}

#[test]
fn overdriven_dt_completes_through_the_ladder_with_logged_events() {
    let case = presets::sod(32);
    let mut solver =
        Solver::new(&case, overdriven_cfg(), Context::serial()).with_recovery(deep_ladder());
    solver.run_steps(40).expect("ladder should ride through");
    assert!(solver.state().as_slice().iter().all(|v| v.is_finite()));
    assert!(solver.recovery_state().total_retries > 0);

    let ledger = solver.context().ledger();
    let faults = ledger.events_of(ResilienceEventKind::HealthFault);
    let retries = ledger.events_of(ResilienceEventKind::Retry);
    let degrades = ledger.events_of(ResilienceEventKind::Degrade);
    assert!(!faults.is_empty() && !retries.is_empty() && !degrades.is_empty());
    // Every degradation names its rung and action.
    assert!(degrades.iter().all(|e| e.detail.contains("rung")));
}

#[test]
fn crash_dump_is_written_when_the_ladder_is_exhausted() {
    let dir = tmp_dir("dump");
    let case = presets::sod(32);
    // One halving cannot tame a 16x overdrive: the ladder exhausts.
    let policy = RecoveryPolicy {
        ladder: vec![RecoveryAction::HalveDt],
        max_retries: 4,
        restore_after: 1_000,
        crash_dump_dir: Some(dir.clone()),
    };
    let mut solver = Solver::new(&case, overdriven_cfg(), Context::serial()).with_recovery(policy);
    let err = solver.run_steps(40).unwrap_err();
    let dump = err.crash_dump.expect("crash dump path");
    // The dump is a valid checkpoint of the last accepted state.
    let (header, q) = mfc_core::restart::load_checkpoint(&dump).unwrap();
    assert_eq!(header.steps, err.step);
    assert!(q.as_slice().iter().all(|v| v.is_finite()));
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// 3. Lockstep: collective verdicts keep ranks bitwise identical.
// ---------------------------------------------------------------------

type Story = Vec<(ResilienceEventKind, u64, String)>;

/// The ladder events block `rank` of a run recorded, as `(kind, step,
/// detail)`. A HealthFault names its cell in block-local coordinates;
/// `shift` (the block's x offset) puts it in the serial block's.
fn ladder_story(ledger: &Ledger, rank: usize, shift: usize) -> Story {
    use ResilienceEventKind::{Degrade, HealthFault, Restore, Retry};
    let global = |detail: String| match detail.split_once("cell (") {
        Some((head, rest)) => {
            let (i, tail) = rest.split_once(',').unwrap();
            format!("{head}cell ({},{tail}", i.parse::<usize>().unwrap() + shift)
        }
        None => detail,
    };
    ledger
        .events()
        .into_iter()
        .filter(|e| e.rank == rank && [HealthFault, Retry, Degrade, Restore].contains(&e.kind))
        .map(|e| (e.kind, e.step, global(e.detail)))
        .collect()
}

/// `story` split into its HealthFault events and its ladder moves.
fn faults_and_moves(story: &Story) -> (Story, Story) {
    story
        .iter()
        .cloned()
        .partition(|e| e.0 == ResilienceEventKind::HealthFault)
}

/// There is one time step, so a laddered run is the same run on any
/// number of ranks: the final field is bitwise
/// the serial `Solver`'s, and the ranks' ledger tells the serial ledger's
/// story — the same faults, retries and rungs at the same steps, in the
/// same words. Block 0 records the collective ladder moves; a fault is
/// recorded by the block(s) that observed it, and the serial scan's first
/// offending cell is the leftmost observer's. Two tubes: `seam` is
/// `presets::sod(32)`, whose diaphragm sits on the 2-rank seam, so a
/// non-lead block observes faults block 0 only hears of (`StepFault::Peer`
/// — retried, not recorded); `left` has its diaphragm at x = 0.125, so
/// every fault strikes in block 0 and its story is the serial one whole.
#[test]
fn collective_ladder_matches_serial_ladder_bitwise() {
    use mfc_core::bc::BcSpec;
    use mfc_core::case::{PatchState, Region};
    use mfc_core::time::TimeScheme;

    let left = CaseBuilder::new(vec![mfc_core::Fluid::air()], 1, [32, 1, 1])
        .bc(BcSpec::transmissive())
        .patch(Region::All, PatchState::single(0.125, [0.0; 3], 0.1))
        .patch(
            Region::HalfSpace {
                axis: 0,
                bound: 0.125,
            },
            PatchState::single(1.0, [0.0; 3], 1.0),
        );
    let steps = 30usize;
    for (tube, case) in [("seam", presets::sod(32)), ("left", left)] {
        let mut probe = Solver::new(&case, SolverConfig::default(), Context::serial());
        let dt0 = probe.step().unwrap().dt;
        // Forward Euler exhausts this ladder at 16x; it gets 8x, and faults
        // at CFL 1 as well. SSP-RK3 has no CFL row: it runs these tubes
        // clean at every admissible CFL number (<= 1). `Rk3` at 16x on
        // `seam` is `overdriven_cfg()`.
        for (scheme, dts) in [
            (
                TimeScheme::Rk1,
                vec![DtMode::Fixed(dt0 * 8.0), DtMode::Cfl(1.0)],
            ),
            (TimeScheme::Rk3, vec![DtMode::Fixed(dt0 * 16.0)]),
        ] {
            for dt in dts {
                let cfg = SolverConfig {
                    scheme,
                    dt,
                    ..SolverConfig::default()
                };
                let mut plain = Solver::new(&case, cfg, Context::serial());
                assert!(
                    plain.run_steps(steps).is_err(),
                    "{tube} {scheme:?} {dt:?} should fault without the ladder"
                );
                let mut serial =
                    Solver::new(&case, cfg, Context::serial()).with_recovery(deep_ladder());
                serial
                    .run_steps(steps)
                    .expect("serial ladder rides through");
                assert!(serial.recovery_state().total_retries > 0);
                let reference = snapshot(&serial, &case);
                let story = ladder_story(serial.context().ledger(), 0, 0);
                let (faults, moves) = faults_and_moves(&story);
                assert!(!faults.is_empty() && !moves.is_empty());

                for ranks in [1usize, 2] {
                    let at = format!("{tube} {scheme:?} {dt:?} ranks={ranks}");
                    let events = Arc::new(Ledger::default());
                    let opts = ResilienceOpts {
                        events: Some(Arc::clone(&events)),
                        recovery: Some(deep_ladder()),
                        ..ResilienceOpts::fault_free("", 0)
                    };
                    let (field, _) = run_distributed_resilient(
                        &case,
                        cfg,
                        ranks,
                        steps,
                        mfc_mpsim::Staging::DeviceDirect,
                        &opts,
                    )
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
                    assert_eq!(
                        field.max_abs_diff(&reference),
                        0.0,
                        "{at}: ranks must retry/degrade in lockstep with the serial ladder"
                    );
                    let blocks: Vec<Story> = (0..ranks)
                        .map(|r| ladder_story(&events, r, r * 32 / ranks))
                        .collect();
                    let (seen, moved) = faults_and_moves(&blocks[0]);
                    assert_eq!(moved, moves, "{at}: block 0's ladder moves");
                    for block in &blocks[1..] {
                        assert!(faults_and_moves(block).1.is_empty(), "{at}");
                    }
                    // Every serial fault is on record, and block 0
                    // records nothing the serial block did not see.
                    for fault in &faults {
                        assert!(blocks.iter().any(|b| b.contains(fault)), "{at}: {fault:?}");
                    }
                    let mut serial_faults = faults.iter();
                    for fault in &seen {
                        assert!(serial_faults.any(|f| f == fault), "{at}: {fault:?}");
                    }
                    if ranks == 1 || tube == "left" {
                        assert_eq!(blocks[0], story, "{at}: block 0's whole story");
                    } else {
                        assert!(
                            seen.len() < faults.len(),
                            "{at}: the seam tube must fault where only block 1 sees it"
                        );
                    }
                }
            }
        }
    }
}

/// The distributed twin of `solver.rs`'s rejected-step test: when the
/// ladder is exhausted, every rank's crash dump is the last accepted
/// `q^n` — restored from the copy `rk_step` took, also under `Rk1` — and
/// so bitwise the serial solver's dump of the same run.
#[test]
fn exhausted_ladder_leaves_every_rank_on_the_serial_q_n_bitwise() {
    use mfc_core::par::ResilienceError;
    use mfc_core::restart::load_checkpoint;
    use mfc_core::time::TimeScheme;

    let case = presets::sod(32);
    for scheme in [TimeScheme::Rk1, TimeScheme::Rk3] {
        let cfg = SolverConfig {
            scheme,
            ..overdriven_cfg()
        };
        let dir = tmp_dir(&format!("qn_{scheme:?}"));
        // One halving cannot tame a 16x overdrive: the ladder exhausts.
        let policy = RecoveryPolicy {
            ladder: vec![RecoveryAction::HalveDt],
            max_retries: 4,
            restore_after: 1_000,
            crash_dump_dir: Some(dir.clone()),
        };
        let mut serial = Solver::new(&case, cfg, Context::serial()).with_recovery(policy.clone());
        let err = serial.run_steps(40).unwrap_err();
        let (_, want) = load_checkpoint(&err.crash_dump.expect("serial dump")).unwrap();

        let opts = ResilienceOpts {
            recovery: Some(policy),
            ..ResilienceOpts::fault_free(&dir, 0)
        };
        let ranks = 2;
        let dist = run_distributed_resilient(
            &case,
            cfg,
            ranks,
            40,
            mfc_mpsim::Staging::DeviceDirect,
            &opts,
        )
        .expect_err("the same ladder exhausts on two ranks");
        let ResilienceError::Numerical { step, .. } = dist else {
            panic!("{scheme:?}: expected a numerical abort, got {dist:?}");
        };
        assert_eq!(step, err.step, "{scheme:?}: ranks reject the serial step");
        for rank in 0..ranks {
            let dump = dir.join(format!("crash_rank{rank}_step{step}.bin"));
            let (header, got) = load_checkpoint(&dump).unwrap();
            assert_eq!(header.steps, step);
            let dom = *got.domain();
            let off = rank * dom.n[0];
            for e in 0..dom.eq.neq() {
                for (i, j, k) in dom.interior() {
                    assert_eq!(
                        got.get(i, j, k, e).to_bits(),
                        want.get(i + off, j, k, e).to_bits(),
                        "{scheme:?} rank {rank} cell {i} eq {e}"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn rejected_step_without_a_ladder_is_numerical_and_writes_no_wave_file() {
    // The output layer sits behind the same collective health verdict as
    // everything else: a blown-up state is a typed error on every rank,
    // never a result on disk.
    use mfc_core::par::{ResilienceError, WaveOutput};

    let dir = tmp_dir("noladder_output");
    let opts = ResilienceOpts {
        output: Some(WaveOutput {
            dir: dir.join("waves"),
            wave_size: 1,
        }),
        ..ResilienceOpts::fault_free(&dir, 0)
    };
    let err = run_distributed_resilient(
        &presets::sod(32),
        overdriven_cfg(),
        2,
        30,
        mfc_mpsim::Staging::DeviceDirect,
        &opts,
    )
    .expect_err("an overdriven dt with no ladder must abort");
    assert!(
        matches!(err, ResilienceError::Numerical { .. }),
        "expected a numerical abort, got {err:?}"
    );
    let written = std::fs::read_dir(dir.join("waves")).unwrap().count();
    assert_eq!(written, 0, "no wave file may be written for a rejected run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_checkpoint_wave_is_skipped_during_rollback() {
    use mfc_mpsim::{DetectorConfig, FaultCtx, FaultPlan, RankDeath, RankStall};

    let steps = 12usize;
    let case = presets::sod(32);
    let cfg = SolverConfig::default();
    let serial = run_single(&case, cfg, steps);

    let dir = tmp_dir("corrupt");
    // Waves land at steps 0, 3, 6, 9; rank 1 dies at step 10, so the
    // rollback targets wave 3 (step 9). A watcher truncates both ranks'
    // wave-3 files as soon as they appear, forcing the walk back to
    // wave 2. Rank 0's stall at step 10 holds the recovery open long
    // enough for the watcher to strike first.
    let w3 = [
        mfc_core::restart::wave_path(&dir, 0, 3),
        mfc_core::restart::wave_path(&dir, 1, 3),
    ];
    let watcher = {
        let w3 = w3.clone();
        std::thread::spawn(move || {
            for _ in 0..10_000 {
                if w3.iter().all(|p| p.exists()) {
                    // Give the writes a moment to land, then truncate.
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    for p in &w3 {
                        let len = std::fs::metadata(p).unwrap().len();
                        let f = std::fs::OpenOptions::new().write(true).open(p).unwrap();
                        f.set_len(len / 2).unwrap();
                    }
                    return true;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            false
        })
    };
    let plan = FaultPlan {
        deaths: vec![RankDeath {
            rank: 1,
            step: 10,
            permanent: false,
        }],
        stalls: vec![RankStall {
            rank: 0,
            step: 10,
            millis: 40,
        }],
        ..FaultPlan::none()
    };
    let events = Arc::new(Ledger::default());
    let opts = ResilienceOpts {
        checkpoint_every: 3,
        ckpt_dir: dir.clone(),
        faults: Some(Arc::new(FaultCtx::new(plan, 2).with_detector(
            DetectorConfig {
                slice_ms: 5,
                retries: 8,
                backoff: 1.5,
            },
        ))),
        events: Some(Arc::clone(&events)),
        recovery: None,
        health: HealthConfig::default(),
        trace: None,
        failure_policy: FailurePolicy::Revive,
        spares: 0,
        ckpt_keep: 2,
        output: None,
    };
    let (field, _) = run_distributed_resilient(
        &case,
        cfg,
        2,
        steps,
        mfc_mpsim::Staging::DeviceDirect,
        &opts,
    )
    .expect("rollback must skip the corrupt wave and recover");
    assert!(
        watcher.join().unwrap(),
        "watcher never saw the wave-2 files"
    );

    assert_eq!(
        field.max_abs_diff(&serial),
        0.0,
        "recovery through an earlier wave must still be bitwise transparent"
    );
    // The ledger shows the corrupt wave being skipped: at least one
    // rollback event mentions an unreadable wave, and the final rollback
    // landed on an earlier wave than the committed one.
    let rollbacks = events.events_of(ResilienceEventKind::Rollback);
    assert!(
        rollbacks.iter().any(|e| e.detail.contains("unreadable")),
        "expected an unreadable-wave event, got {rollbacks:?}"
    );
    assert!(
        rollbacks
            .iter()
            .any(|e| e.detail.contains("rolled back to wave 2")),
        "expected rollback to wave 2, got {rollbacks:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// The mfc-run surface: ladder files, retry budgets, typed errors.
// ---------------------------------------------------------------------

fn overdriven_case_file(dir: &std::path::Path) -> CaseFile {
    let json = r#"{
        "name": "sod_hot",
        "fluids": [{ "gamma": 1.4, "pi_inf": 0.0 }],
        "ndim": 1,
        "cells": [32, 1, 1],
        "bc": "transmissive",
        "patches": [
            { "region": "all",
              "state": { "alpha": [1.0], "rho": [0.125], "vel": [0.0, 0.0, 0.0], "p": 0.1 } },
            { "region": { "half_space": { "axis": 0, "bound": 0.5 } },
              "state": { "alpha": [1.0], "rho": [1.0], "vel": [0.0, 0.0, 0.0], "p": 1.0 } }
        ],
        "run": { "steps": 40 }
    }"#;
    let mut cf = CaseFile::from_json(json).unwrap();
    // Match overdriven_cfg(): ~16x the stable dt for this case.
    let case = cf.to_case().unwrap();
    let mut probe = Solver::new(
        &case,
        cf.numerics.to_solver_config().unwrap(),
        Context::serial(),
    );
    let dt0 = probe.step().unwrap().dt;
    cf.numerics.dt = Some(dt0 * 16.0);
    cf.output.dir = dir.to_path_buf();
    cf
}

#[test]
fn run_case_maps_ladder_exhaustion_to_a_numerical_error() {
    let dir = tmp_dir("cli_numerical");
    let cf = overdriven_case_file(&dir);
    let err = run_case(&cf).unwrap_err();
    assert!(
        matches!(err, RunError::Numerical(_)),
        "expected a numerical error, got {err:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_case_recovers_with_a_ladder_file_and_reports_events() {
    let dir = tmp_dir("cli_ladder");
    let mut cf = overdriven_case_file(&dir);
    let ladder_path = dir.join("ladder.json");
    std::fs::write(&ladder_path, serde_json::to_string(&deep_ladder()).unwrap()).unwrap();
    cf.run.recovery = Some(ladder_path);
    let summary = run_case(&cf).expect("ladder file should ride through");
    assert_eq!(summary.steps, 40);
    assert!(
        summary.resilience.contains("health_fault")
            && summary.resilience.contains("retry")
            && summary.resilience.contains("degrade"),
        "{}",
        summary.resilience
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn max_retries_alone_arms_the_default_ladder() {
    let dir = tmp_dir("cli_retries");
    let mut cf = overdriven_case_file(&dir);
    // The default ladder only halves dt twice — not enough for 16x — so
    // soften the overdrive to 4x, which two halvings tame exactly.
    let case = cf.to_case().unwrap();
    let mut probe = Solver::new(&case, SolverConfig::default(), Context::serial());
    let dt0 = probe.step().unwrap().dt;
    cf.numerics.dt = Some(dt0 * 4.0);
    cf.run.max_retries = Some(16);
    let summary = run_case(&cf).expect("default ladder should tame 4x");
    assert_eq!(summary.steps, 40);
    assert!(
        summary.resilience.contains("retry"),
        "{}",
        summary.resilience
    );
    std::fs::remove_dir_all(&dir).ok();
}
