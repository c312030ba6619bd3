//! Contract of the `mfc-trace-report` *binary* (was `scripts/trace_smoke.sh`):
//! on a two-rank trace whose kernel events come from traced `mfc-acc`
//! launches on `workers` gangs, `--validate --reconcile` exits 0 and prints
//! the schema / nesting verdicts, both ranks, the comm/compute split and
//! the per-rank worker count; a truncated file, or one whose event times
//! are out of range, exits 3.

use std::path::Path;
use std::process::{Command, Output, Stdio};
use std::time::Instant;

use mfc_acc::{Context, KernelClass, KernelCost, LaunchConfig, PAR_MIN_ITEMS};
use mfc_trace::{chrome, Category, CommOp, Tracer};

/// A two-rank trace: each rank steps three times — a gang-parallel
/// launch over awkward item counts inside a `step` span, then a send and
/// a receive — and flushes its ledger for the reconciler.
fn write_two_rank_trace(path: &Path, workers: usize) {
    let tracer = Tracer::new();
    let cost = KernelCost::new(KernelClass::Weno, 37.0, 40.0, 16.0);
    for rank in 0..2 {
        let handle = tracer.handle(rank);
        let ctx = Context::with_workers(workers).with_tracer(handle.clone());
        for step in 0..3 {
            let _step = ctx.span("step", Category::Phase);
            let items = 2 * PAR_MIN_ITEMS + 13 * step + rank;
            ctx.launch_par(&LaunchConfig::tuned("k_sweep"), cost, items, |i| {
                std::hint::black_box(i);
            });
            let t0 = Instant::now();
            handle.comm(CommOp::Send, 1 - rank, 4096, t0);
            handle.comm(CommOp::Recv, 1 - rank, 4096, t0);
        }
        ctx.flush_ledger_to_trace();
    }
    chrome::write_file(path, &tracer.snapshot()).unwrap();
}

fn report(trace: &Path, flags: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mfc-trace-report"))
        .arg(trace)
        .args(flags)
        .output()
        .unwrap()
}

/// `bin --help` into a pipe whose read end is already closed (`--help |
/// true` after the reader has gone): exit 0. Into `/dev/full`: exit 3,
/// an I/O error. Neither panics. The read end is dropped before the
/// spawn, so the first write fails.
fn help_into_a_closed_or_full_stdout(bin: &str) {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let full = std::fs::File::create("/dev/full").unwrap();
    for (stdout, code) in [(Stdio::from(writer), 0), (Stdio::from(full), 3)] {
        let out = Command::new(bin)
            .arg("--help")
            .stdout(stdout)
            .stderr(Stdio::piped())
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{bin}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin}: {stderr}");
    }
}

#[test]
fn closed_stdout_exits_0_and_full_stdout_exits_3_without_a_panic() {
    help_into_a_closed_or_full_stdout(env!("CARGO_BIN_EXE_mfc-trace-report"));
}

#[test]
fn validates_reconciles_and_reports_both_ranks_at_one_and_four_workers() {
    let dir = std::env::temp_dir().join(format!("mfc_trace_report_bin_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for workers in [1, 4] {
        let trace = dir.join(format!("w{workers}.json"));
        write_two_rank_trace(&trace, workers);
        let out = report(&trace, &["--validate", "--reconcile"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "workers={workers}: {stderr}");
        for needle in [
            "schema: OK",
            "span nesting: OK",
            "2 rank(s)",
            "comm/compute split",
            &format!("worker threads — rank 0: {workers}"),
        ] {
            assert!(
                stdout.contains(needle),
                "workers={workers}: no '{needle}' in:\n{stdout}"
            );
        }

        // A truncated trace must fail to parse, not pass silently.
        let cut = dir.join("truncated.json");
        std::fs::write(&cut, &std::fs::read(&trace).unwrap()[..64]).unwrap();
        assert_eq!(report(&cut, &["--validate"]).status.code(), Some(3));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Event times out of range — a negative `ts` or `dur`, or an end
/// `ts + dur` past the largest f64 — are a parse failure (exit 3) with and
/// without `--validate`, which also names them as schema violations,
/// instead of a report with a 300-digit extent. The same one-event
/// document with in-range times passes.
#[test]
fn out_of_range_event_times_are_refused() {
    let dir = std::env::temp_dir().join(format!("mfc_trace_report_times_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.json");
    for (ts, dur, exit) in [
        ("0", "1.5", 0),
        ("-1e308", "1e308", 3),
        ("-1", "2", 3),
        ("0", "-1", 3),
        ("1e308", "1e308", 3),
    ] {
        let doc = format!(
            r#"{{"traceEvents": [{{"name": "step", "cat": "phase", "ph": "X",
                "ts": {ts}, "dur": {dur}, "pid": 0, "tid": 0}}],
              "metadata": {{"ledger": {{}}, "dropped": {{}}}}}}"#
        );
        std::fs::write(&trace, doc).unwrap();
        for flags in [&[][..], &["--validate"][..]] {
            let out = report(&trace, flags);
            let stderr = String::from_utf8_lossy(&out.stderr);
            let what = format!("ts {ts} dur {dur} {flags:?}: {stderr}");
            assert_eq!(out.status.code(), Some(exit), "{what}");
            assert_eq!(stderr.contains("out of range"), exit != 0, "{what}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
