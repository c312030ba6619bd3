//! Ensemble-equivalence suite for the `mfc-sched` scheduler.
//!
//! The scheduler multiplexes jobs onto a shared elastic worker pool and
//! resizes their gang counts at step boundaries. By the worker- and
//! lane-invariance guarantees (see `tests/thread_parallel.rs` and
//! `tests/vector_lanes.rs`), none of that may be visible in the physics:
//! every completed job's final checkpoint must be **bitwise identical**
//! to a standalone serial run of the same case. These tests enforce
//! that, plus the scheduler's own contracts:
//!
//! 1. Shipped-case ensemble across budgets {1, 2, 4, 8} — byte-equal
//!    checkpoints at every budget, under queueing and elastic resizes.
//! 2. Property: random arrival order, priorities, and budget — the
//!    outcome of every job is independent of who else was in the pool.
//! 3. Elasticity is real (a surviving job absorbs a departing job's
//!    workers) and still bitwise invisible.
//! 4. Per-job fault isolation: an injected NaN fails one job through the
//!    solver's own watchdog; its siblings finish byte-identical.
//! 5. Cooperative cancellation and deadlines stop at step boundaries
//!    with the documented terminal states.
//! 6. Typed admission control: backpressure on a full queue, rejection
//!    of invalid cases at submit time.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use mfc::core::restart::save_checkpoint;
use mfc::{Context, Solver};
use mfc_cli::CaseFile;
use mfc_sched::{JobSpec, JobState, SchedConfig, SchedError, Scheduler};

fn cases_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../cases")
}

fn sod_path() -> PathBuf {
    cases_dir().join("sod.json")
}

/// Fresh per-test scratch directory (tests in one binary run in
/// parallel, so the pid alone is not unique).
fn tmp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "mfc_ensemble_{}_{tag}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

/// Standalone serial reference: the same case under the same step
/// budget, mirroring the scheduler's stopping rule (`t_end` or the step
/// budget, whichever first), checkpointed with the same writer.
fn standalone_ckpt(case_path: &Path, steps: usize, out: &Path) {
    let cf = CaseFile::from_path(case_path).unwrap();
    let case = cf.to_case().unwrap();
    let cfg = cf.numerics.to_solver_config().unwrap();
    let ctx = Context::with_workers(1).with_vector_width(cfg.vector_width);
    let mut solver = Solver::new(&case, cfg, ctx);
    let t_end = cf.run.t_end.unwrap_or(f64::INFINITY);
    solver.run_until(t_end, steps).unwrap();
    save_checkpoint(out, solver.state(), solver.time(), solver.steps()).unwrap();
}

fn spec(name: &str, steps: usize, priority: i64) -> JobSpec {
    let mut s = JobSpec::new(sod_path());
    s.name = Some(name.to_string());
    s.priority = priority;
    s.max_steps = Some(steps);
    s
}

fn sched(budget: usize, out_dir: PathBuf) -> Scheduler {
    Scheduler::new(SchedConfig {
        budget,
        queue_cap: 16,
        aging_rounds: 2,
        out_dir,
    })
}

fn assert_bitwise(job: &str, got: &Path, want: &Path) {
    assert!(
        fs::read(got).unwrap() == fs::read(want).unwrap(),
        "{job}: scheduler checkpoint {} differs from standalone {}",
        got.display(),
        want.display()
    );
}

/// A six-job mixed-priority ensemble completes at every budget with
/// byte-identical outputs: worker shares, queue waits, and elastic
/// resizes are all numerically invisible.
#[test]
fn shipped_case_ensemble_bitwise_across_budgets() {
    let jobs: [(&str, usize, i64); 6] = [
        ("long", 24, 0),
        ("mid_a", 18, 2),
        ("mid_b", 12, 1),
        ("short_a", 9, 3),
        ("short_b", 6, 0),
        ("tiny", 3, 5),
    ];
    let refs = tmp_dir("refs");
    for (name, steps, _) in jobs {
        standalone_ckpt(&sod_path(), steps, &refs.join(format!("{name}.ckpt")));
    }
    for budget in [1usize, 2, 4, 8] {
        let out = tmp_dir("budgets");
        let mut s = sched(budget, out.clone());
        for (name, steps, prio) in jobs {
            s.submit(spec(name, steps, prio)).unwrap();
        }
        let records = s.run();
        assert_eq!(records.len(), jobs.len());
        for (r, (name, steps, _)) in records.iter().zip(jobs) {
            assert_eq!(
                r.state,
                JobState::Done,
                "budget {budget}: {name} {:?}",
                r.reason
            );
            assert_eq!(r.steps, steps as u64, "budget {budget}: {name}");
            let got = r.output.as_ref().expect("done job writes a checkpoint");
            assert_bitwise(name, got, &refs.join(format!("{name}.ckpt")));
        }
        let _ = fs::remove_dir_all(&out);
    }
    let _ = fs::remove_dir_all(&refs);
}

/// The shipped Sod case edited by `edit`, written as `<dir>/<name>.json`.
fn edited_sod(dir: &Path, name: &str, edit: impl FnOnce(&mut CaseFile)) -> PathBuf {
    let mut cf = CaseFile::from_path(&sod_path()).unwrap();
    edit(&mut cf);
    let path = dir.join(format!("{name}.json"));
    fs::write(&path, serde_json::to_string(&cf).unwrap()).unwrap();
    path
}

/// The pool really is elastic: when the short job departs, the long
/// job's gang grows at a step boundary (observable in the ledger) — and
/// its checkpoint still matches the standalone run bitwise. Both halves
/// of the ordering are structural: "long" starts on the share it was
/// dispatched with (1) however late its thread is scheduled, and it is
/// 80x the cells and 20x the steps of "quick" (1600x the work), so it is
/// still stepping when the scheduler has processed quick's completion
/// and repartitioned. (A 100-step run of the shipped case ends in ~2 ms
/// and could finish first; a job thread that started late used to read
/// the already-grown share and count no resize.)
#[test]
fn elastic_resize_is_applied_and_bitwise_invisible() {
    let refs = tmp_dir("elastic_ref");
    let slow = edited_sod(&refs, "sod_slow", |cf| {
        cf.cells = [16000, 1, 1];
        cf.run.t_end = Some(1.0e9);
    });
    standalone_ckpt(&slow, 60, &refs.join("long.ckpt"));
    let out = tmp_dir("elastic");
    let mut s = sched(2, out.clone());
    s.submit(spec("quick", 3, 10)).unwrap();
    let mut long = spec("long", 60, 0);
    long.case = slow;
    s.submit(long).unwrap();
    let records = s.run();
    assert!(records.iter().all(|r| r.state == JobState::Done));
    let long = &records[1];
    assert!(
        long.resizes > 0 && long.final_share == 2,
        "long job never absorbed the freed worker: resizes {}, final share {}",
        long.resizes,
        long.final_share
    );
    assert_bitwise(
        "long",
        long.output.as_ref().unwrap(),
        &refs.join("long.ckpt"),
    );
    let _ = fs::remove_dir_all(&out);
    let _ = fs::remove_dir_all(&refs);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arrival order, priorities, and the worker budget never leak into
    /// any job's output: every completed checkpoint matches its
    /// standalone reference byte-for-byte.
    #[test]
    fn random_arrival_order_and_budget_bitwise_equal(
        perm in 0usize..24,
        budget in 1usize..=8,
        prios in proptest::collection::vec(-2i64..=2, 4),
    ) {
        let steps = [4usize, 6, 8, 10];
        // perm indexes the 4! arrival orders via the Lehmer code.
        let mut pool: Vec<usize> = (0..4).collect();
        let (mut order, mut code) = (Vec::new(), perm);
        for radix in (1..=4).rev() {
            order.push(pool.remove(code % radix));
            code /= radix;
        }
        let refs = tmp_dir("prop_refs");
        for (i, &st) in steps.iter().enumerate() {
            standalone_ckpt(&sod_path(), st, &refs.join(format!("j{i}.ckpt")));
        }
        let out = tmp_dir("prop");
        let mut s = sched(budget, out.clone());
        let mut ids = [0u64; 4];
        for (slot, &job) in order.iter().enumerate() {
            ids[job] = s.submit(spec(&format!("j{job}"), steps[job], prios[slot])).unwrap();
        }
        let records = s.run();
        for job in 0..4 {
            let r = &records[ids[job] as usize];
            prop_assert_eq!(r.state, JobState::Done, "j{} {:?}", job, r.reason.clone());
            prop_assert_eq!(r.steps, steps[job] as u64);
            assert_bitwise(
                &format!("j{job}"),
                r.output.as_ref().unwrap(),
                &refs.join(format!("j{job}.ckpt")),
            );
        }
        let _ = fs::remove_dir_all(&out);
        let _ = fs::remove_dir_all(&refs);
    }
}

/// An injected NaN fails exactly one job, through the solver's own
/// numerical-health watchdog, without touching its siblings.
#[test]
fn injected_fault_fails_alone() {
    let refs = tmp_dir("fault_refs");
    standalone_ckpt(&sod_path(), 12, &refs.join("a.ckpt"));
    standalone_ckpt(&sod_path(), 8, &refs.join("b.ckpt"));
    let out = tmp_dir("fault");
    let mut s = sched(2, out.clone());
    s.submit(spec("a", 12, 0)).unwrap();
    let mut faulty = spec("faulty", 12, 0);
    faulty.fault_at_step = Some(4);
    s.submit(faulty).unwrap();
    s.submit(spec("b", 8, 0)).unwrap();
    let records = s.run();

    assert_eq!(records[1].state, JobState::Failed);
    let reason = records[1].reason.as_deref().unwrap();
    assert!(
        reason.contains("not_finite"),
        "fault must fail through the watchdog, got: {reason}"
    );
    assert!(records[1].output.is_none(), "failed jobs write no output");

    for (idx, name, steps) in [(0usize, "a", 12u64), (2, "b", 8)] {
        let r = &records[idx];
        assert_eq!(r.state, JobState::Done, "{name}: {:?}", r.reason);
        assert_eq!(r.steps, steps);
        assert_bitwise(
            name,
            r.output.as_ref().unwrap(),
            &refs.join(format!("{name}.ckpt")),
        );
    }
    let _ = fs::remove_dir_all(&out);
    let _ = fs::remove_dir_all(&refs);
}

/// Cooperative cancellation stops exactly at the requested step
/// boundary, and the partial result is still the deterministic prefix of
/// the standalone run.
#[test]
fn cancellation_stops_at_the_step_boundary() {
    let refs = tmp_dir("cancel_refs");
    standalone_ckpt(&sod_path(), 5, &refs.join("prefix.ckpt"));
    let out = tmp_dir("cancel");
    let mut s = sched(1, out.clone());
    let mut c = spec("cancelme", 40, 0);
    c.cancel_at_step = Some(5);
    s.submit(c).unwrap();
    let records = s.run();
    assert_eq!(records[0].state, JobState::Cancelled);
    assert_eq!(records[0].steps, 5);
    assert_bitwise(
        "cancelme",
        records[0].output.as_ref().unwrap(),
        &refs.join("prefix.ckpt"),
    );
    let _ = fs::remove_dir_all(&out);
    let _ = fs::remove_dir_all(&refs);
}

/// An already-expired deadline times the job out at its first step
/// boundary, before any stepping.
#[test]
fn expired_deadline_times_out_without_stepping() {
    let out = tmp_dir("deadline");
    let mut s = sched(1, out.clone());
    let mut d = spec("late", 40, 0);
    d.deadline_ms = Some(0);
    s.submit(d).unwrap();
    let records = s.run();
    assert_eq!(records[0].state, JobState::TimedOut);
    assert_eq!(records[0].steps, 0);
    let _ = fs::remove_dir_all(&out);
}

/// The bounded admission queue pushes back with a typed error instead of
/// growing without limit, and invalid jobs are rejected at submit time —
/// not discovered mid-ensemble.
#[test]
fn admission_control_is_typed() {
    let out = tmp_dir("admission");
    let mut s = Scheduler::new(SchedConfig {
        budget: 1,
        queue_cap: 2,
        aging_rounds: 2,
        out_dir: out.clone(),
    });
    s.submit(spec("a", 2, 0)).unwrap();
    s.submit(spec("b", 2, 0)).unwrap();
    match s.submit(spec("c", 2, 0)) {
        Err(SchedError::QueueFull { cap }) => assert_eq!(cap, 2),
        other => panic!("expected QueueFull, got {other:?}"),
    }

    let missing = JobSpec::new(out.join("no_such_case.json"));
    assert!(matches!(
        s.submit(missing),
        Err(SchedError::Rejected { .. })
    ));

    // A multi-rank case is valid for `mfc-run` but not for the
    // in-process serial-rank ensemble engine.
    let multirank = out.join("multirank.json");
    let text = fs::read_to_string(sod_path())
        .unwrap()
        .replace("\"ranks\": 1", "\"ranks\": 2");
    fs::write(&multirank, text).unwrap();
    assert!(matches!(
        s.submit(JobSpec::new(multirank)),
        Err(SchedError::Rejected { .. })
    ));

    // Admission is `mfc_cli::admit`: what `mfc-run` refuses is refused
    // here, for the same reason. These two were admitted by the old
    // second validator and panicked their job threads mid-ensemble.
    type Edit = fn(&mut CaseFile);
    let refused: [(&str, &str, Edit); 2] = [
        ("cfl0", "numerics.cfl must be in (0, 1]", |cf| {
            cf.numerics.cfl = 0.0
        }),
        ("lo_ge_hi", "axis 0: lo = 1, hi = 1", |cf| {
            cf.lo[0] = cf.hi[0]
        }),
    ];
    for (name, rule, edit) in refused {
        match s.submit(JobSpec::new(edited_sod(&out, name, edit))) {
            Err(SchedError::Rejected { reason, .. }) => {
                assert!(reason.contains(rule), "{name}: {reason}")
            }
            other => panic!("{name}: expected Rejected, got {other:?}"),
        }
    }
    let _ = fs::remove_dir_all(&out);
}

/// The JSONL ledger round-trips: one parseable record per line, in
/// submission order, with the terminal accounting filled in.
#[test]
fn ledger_roundtrips_as_jsonl() {
    let out = tmp_dir("ledger");
    let mut s = sched(2, out.clone());
    s.submit(spec("a", 4, 1)).unwrap();
    s.submit(spec("b", 2, 0)).unwrap();
    let records = s.run();
    let path = out.join("ledger.jsonl");
    mfc_sched::write_ledger(&path, &records).unwrap();
    let text = fs::read_to_string(&path).unwrap();
    let parsed: Vec<mfc_sched::JobRecord> = text
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(parsed.len(), 2);
    for (i, r) in parsed.iter().enumerate() {
        assert_eq!(r.id, i as u64);
        assert!(r.state.is_terminal());
        assert!(r.wall_ms >= r.cpu_ms, "turnaround includes service time");
        assert!(r.worker_seconds > 0.0);
    }
    let _ = fs::remove_dir_all(&out);
}
