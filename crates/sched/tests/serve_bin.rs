//! End-to-end tests of the `mfc-serve` *binary*: manifest mode (was
//! `scripts/serve_smoke.sh`), startup validation exit codes and the full
//! daemon lifecycle over a real socket (was `scripts/serve_daemon_smoke.sh`),
//! exactly as an operator would drive it.

use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mfc_acc::Context;
use mfc_cli::CaseFile;
use mfc_core::restart::save_checkpoint;
use mfc_core::Solver;

fn serve_bin() -> &'static str {
    env!("CARGO_BIN_EXE_mfc-serve")
}

fn sod_case() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../cases/sod.json")
}

fn tmp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "mfc_serve_bin_{}_{tag}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

/// The 64-cell Sod tube every manifest job but `hot` runs.
const SMOKE_CASE: &str = r#"{
  "name": "smoke",
  "fluids": [{ "gamma": 1.4, "pi_inf": 0.0 }],
  "ndim": 1,
  "cells": [64, 1, 1],
  "bc": "transmissive",
  "patches": [
    { "region": "all",
      "state": { "alpha": [1.0], "rho": [0.125], "vel": [0, 0, 0], "p": 0.1 } },
    { "region": { "half_space": { "axis": 0, "bound": 0.5 } },
      "state": { "alpha": [1.0], "rho": [1.0], "vel": [0, 0, 0], "p": 1.0 } }
  ],
  "numerics": { "order": "weno5", "solver": "hllc", "cfl": 0.5 },
  "run": { "steps": 30 },
  "output": { "vtk": false }
}"#;

/// The smoke case on 32 cells, its fixed `dt` overdriven 4x past the
/// stable step, with `run.max_retries` arming the default ladder (whose
/// two halvings tame exactly that): `failed` without the ladder, `done`
/// with it.
fn hot_case() -> CaseFile {
    let mut cf = CaseFile::from_json(SMOKE_CASE).unwrap();
    cf.name = "hot".into();
    cf.cells = [32, 1, 1];
    cf.run.steps = 40;
    let cfg = cf.numerics.to_solver_config().unwrap();
    let mut probe = Solver::new(&cf.to_case().unwrap(), cfg, Context::serial());
    cf.numerics.dt = Some(probe.step().unwrap().dt * 4.0);
    cf.run.max_retries = Some(16);
    cf
}

/// Run `mfc-serve` with `args`; returns (exit code, stdout + stderr).
fn serve(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(serve_bin()).args(args).output().unwrap();
    let text = [out.stdout, out.stderr].concat();
    (
        out.status.code(),
        String::from_utf8_lossy(&text).into_owned(),
    )
}

/// The mixed manifest (two priorities, one operator cancellation, one
/// injected fault, one job riding its recovery ladder) into `out_dir`.
fn mixed_manifest(dir: &Path, out_dir: &Path) -> PathBuf {
    let q = |p: PathBuf| serde_json::to_string(&p).unwrap();
    let (case, hot) = (q(dir.join("case.json")), q(dir.join("hot.json")));
    let manifest = format!(
        r#"{{ "budget": 2, "out_dir": {}, "jobs": [
            {{ "case": {case}, "name": "long", "priority": 0, "max_steps": 30 }},
            {{ "case": {case}, "name": "urgent", "priority": 5, "max_steps": 10 }},
            {{ "case": {case}, "name": "cancelme", "priority": 1, "max_steps": 30,
               "cancel_at_step": 4 }},
            {{ "case": {case}, "name": "faulty", "priority": 1, "max_steps": 30,
               "fault_at_step": 3 }},
            {{ "case": {hot}, "name": "hot", "priority": 1 }} ] }}"#,
        q(out_dir.to_path_buf())
    );
    let path = dir.join(format!(
        "jobs_{}.json",
        out_dir.file_name().unwrap().to_str().unwrap()
    ));
    fs::write(&path, manifest).unwrap();
    path
}

/// Manifest mode end to end: per-job outcomes in the JSONL ledger, the
/// scheduler view in the trace report, checkpoints byte-identical at
/// budgets 1 / 2 / 4, and the job whose case arms a recovery ladder
/// finishing on the bits of a standalone armed `Solver` (pre-fix the
/// scheduler dropped `run.recovery` / `run.max_retries` and it `failed`).
#[test]
fn mixed_manifest_outcomes_trace_and_budget_invariance() {
    let dir = tmp_dir("manifest");
    fs::write(dir.join("case.json"), SMOKE_CASE).unwrap();
    let hot = hot_case();
    fs::write(dir.join("hot.json"), serde_json::to_string(&hot).unwrap()).unwrap();

    let out = dir.join("b2");
    let ledger = dir.join("ledger.jsonl");
    let trace = dir.join("trace.json");
    let (code, text) = serve(&[
        "--jobs",
        mixed_manifest(&dir, &out).to_str().unwrap(),
        "--ledger",
        ledger.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("3/5 done"), "{text}");

    let rows: Vec<serde_json::Value> = fs::read_to_string(&ledger)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(rows.len(), 5, "one JSONL row per job: {rows:?}");
    let row = |job: &str| {
        rows.iter()
            .find(|r| r["job"] == job)
            .unwrap_or_else(|| panic!("no ledger row for {job}: {rows:?}"))
    };
    for job in ["long", "urgent", "hot"] {
        assert_eq!(row(job)["state"], "done", "{}", row(job));
    }
    assert_eq!(row("cancelme")["state"], "cancelled");
    assert_eq!(
        row("cancelme")["steps"].as_u64(),
        Some(4),
        "its exact boundary"
    );
    assert_eq!(row("faulty")["state"], "failed");
    let reason = row("faulty")["reason"].as_str().unwrap();
    assert!(reason.contains("not_finite"), "health watchdog: {reason}");

    let ckpt = fs::read(out.join("00_long/final.ckpt")).unwrap();
    assert_eq!(&ckpt[..8], mfc_core::restart::CHECKPOINT_MAGIC);

    // What `mfc-trace-report` prints for the ensemble trace.
    let parsed = mfc_trace::chrome::parse_str(&fs::read_to_string(&trace).unwrap()).unwrap();
    let report = mfc_trace::report::render(&parsed);
    for needle in ["scheduler view", "queue depth max"] {
        assert!(
            report.contains(needle),
            "report lacks {needle:?}:\n{report}"
        );
    }

    // Elastic shares and queueing are numerically invisible.
    let done = ["00_long", "01_urgent", "02_cancelme", "04_hot"];
    for budget in ["1", "4"] {
        let other = dir.join(format!("b{budget}"));
        let manifest = mixed_manifest(&dir, &other);
        let (code, text) = serve(&["--jobs", manifest.to_str().unwrap(), "--budget", budget]);
        assert_eq!(code, Some(0), "--budget {budget}: {text}");
        for job in done {
            assert!(
                fs::read(out.join(job).join("final.ckpt")).unwrap()
                    == fs::read(other.join(job).join("final.ckpt")).unwrap(),
                "{job}: checkpoint differs between --budget 2 and {budget}"
            );
        }
    }

    // The ladder the job rode is the one a standalone armed solver rides.
    let admitted = mfc_cli::admit(&hot).unwrap();
    let policy = admitted.recovery().expect("run.max_retries arms a ladder");
    let mut alone = Solver::new(admitted.case(), admitted.solver_config(), Context::serial())
        .with_recovery(policy.clone());
    alone.run_steps(40).unwrap();
    assert!(alone.recovery_state().total_retries > 0, "the case is hot");
    let want = dir.join("alone.ckpt");
    save_checkpoint(&want, alone.state(), alone.time(), alone.steps()).unwrap();
    assert!(
        fs::read(out.join("04_hot/final.ckpt")).unwrap() == fs::read(&want).unwrap(),
        "hot: scheduler checkpoint differs from the standalone armed run"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Regression: a served job of the shipped Sod tube (`t_end: 0.15`, no
/// `max_steps`) stepped past its end time, to t = 0.150216. It now stops
/// exactly at `t_end`, on the state `Solver::run_until` reaches.
#[test]
fn served_job_stops_exactly_at_t_end() {
    let dir = tmp_dir("t_end");
    let out = dir.join("out");
    let ledger = dir.join("ledger.jsonl");
    let manifest = dir.join("jobs.json");
    let q = |p: &Path| serde_json::to_string(p).unwrap();
    let jobs = format!(
        r#"{{ "out_dir": {}, "jobs": [ {{ "case": {}, "name": "sod" }} ] }}"#,
        q(&out),
        q(Path::new(sod_case()))
    );
    fs::write(&manifest, jobs).unwrap();
    let (code, text) = serve(&[
        "--jobs",
        manifest.to_str().unwrap(),
        "--ledger",
        ledger.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{text}");
    let row: serde_json::Value =
        serde_json::from_str(fs::read_to_string(&ledger).unwrap().trim()).unwrap();
    assert_eq!(row["state"], "done", "{row}");
    assert_eq!(
        row["sim_time"].as_f64().map(f64::to_bits),
        Some(0.15f64.to_bits())
    );

    let admitted = mfc_cli::admit(&CaseFile::from_path(Path::new(sod_case())).unwrap()).unwrap();
    let mut alone = Solver::new(admitted.case(), admitted.solver_config(), Context::serial());
    alone.run_until(0.15, usize::MAX).unwrap();
    let want = dir.join("alone.ckpt");
    save_checkpoint(&want, alone.state(), alone.time(), alone.steps()).unwrap();
    assert!(
        fs::read(out.join("00_sod/final.ckpt")).unwrap() == fs::read(&want).unwrap(),
        "the served job's checkpoint differs from Solver::run_until"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Typed admission control: a bad invocation, a malformed manifest, a
/// misspelled manifest key and a job the scheduler refuses all exit 2
/// before anything runs.
#[test]
fn bad_invocations_manifests_and_jobs_exit_2() {
    let dir = tmp_dir("exit2");
    let bad = dir.join("bad.json");
    fs::write(&bad, r#"{ "jobs": "nope" }"#).unwrap();
    let multirank = dir.join("multirank.json");
    fs::write(
        &multirank,
        SMOKE_CASE.replace(r#""steps": 30"#, r#""steps": 30, "ranks": 2"#),
    )
    .unwrap();
    let reject = dir.join("reject.json");
    fs::write(
        &reject,
        format!(
            r#"{{ "jobs": [ {{ "case": {} }} ] }}"#,
            serde_json::to_string(&multirank).unwrap()
        ),
    )
    .unwrap();
    // A misspelled scheduler knob is an error, not a run on the default
    // budget.
    let typo = dir.join("typo.json");
    fs::write(
        &typo,
        format!(
            r#"{{ "budegt": 4, "jobs": [ {{ "case": {} }} ] }}"#,
            serde_json::to_string(sod_case()).unwrap()
        ),
    )
    .unwrap();
    // The job's lane-width override meets the same admission rule as the
    // case key.
    let width4 = dir.join("width4.json");
    fs::write(
        &width4,
        format!(
            r#"{{ "jobs": [ {{ "case": {}, "vector_width": 4 }} ] }}"#,
            serde_json::to_string(sod_case()).unwrap()
        ),
    )
    .unwrap();
    let rows: [(&str, &[&str], &str); 5] = [
        ("no --jobs", &[], "usage"),
        ("malformed manifest", &["--jobs", bad.to_str().unwrap()], ""),
        (
            "misspelled manifest key",
            &["--jobs", typo.to_str().unwrap()],
            "unknown field `budegt`, expected one of `budget`",
        ),
        (
            "multi-rank job",
            &["--jobs", reject.to_str().unwrap()],
            "rejected at admission",
        ),
        (
            "4-wide job",
            &["--jobs", width4.to_str().unwrap()],
            "vector_width must be 1 or 8, got 4",
        ),
    ];
    // The startup probe of the artifact directory runs before admission.
    let out_dir = dir.join("out");
    for (what, args, needle) in rows {
        let (code, text) = serve(&[args, &["--out-dir", out_dir.to_str().unwrap()]].concat());
        assert_eq!(code, Some(2), "{what}: {text}");
        assert!(text.contains(needle), "{what}: {text}");
    }
    let _ = fs::remove_dir_all(&dir);
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
    help_into_a_closed_or_full_stdout(serve_bin());
}

/// Satellite regression: an unwritable --out-dir must be a typed
/// startup failure with exit code 3, *before* any job runs — pre-fix
/// the daemon accepted work and only failed at the first ledger flush.
#[test]
fn unwritable_out_dir_fails_at_startup_with_exit_3() {
    let base = tmp_dir("unwritable");
    // A path *under a regular file* can never be created as a dir.
    let blocker = base.join("blocker");
    fs::write(&blocker, b"not a directory").unwrap();
    let out = Command::new(serve_bin())
        .args([
            "--listen",
            "127.0.0.1:0",
            "--out-dir",
            blocker.join("out").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("writable") || stderr.contains("create") || stderr.contains("directory"),
        "stderr does not explain the failure: {stderr}"
    );
    let _ = fs::remove_dir_all(&base);
}

/// Same contract for an unwritable --ledger path.
#[test]
fn unwritable_ledger_fails_at_startup_with_exit_3() {
    let base = tmp_dir("unwritable_ledger");
    let blocker = base.join("blocker");
    fs::write(&blocker, b"not a directory").unwrap();
    let out = Command::new(serve_bin())
        .args([
            "--listen",
            "127.0.0.1:0",
            "--out-dir",
            base.join("out").to_str().unwrap(),
            "--ledger",
            blocker.join("deep/ledger.jsonl").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = fs::remove_dir_all(&base);
}

/// A spawned `mfc-serve --listen 127.0.0.1:0` and one client connection
/// to it.
struct Daemon {
    child: Child,
    /// Held open to the end: the daemon prints its summary on exit.
    _stdout: BufReader<ChildStdout>,
    out_dir: PathBuf,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Daemon {
    fn spawn(tag: &str) -> Daemon {
        let out_dir = tmp_dir(tag);
        let mut child = Command::new(serve_bin())
            .args([
                "--listen",
                "127.0.0.1:0",
                "--out-dir",
                out_dir.to_str().unwrap(),
                "--budget",
                "2",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();

        // The bound address is announced on stdout (line-buffered).
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let addr = loop {
            let mut line = String::new();
            if stdout.read_line(&mut line).unwrap() == 0 {
                let mut err = String::new();
                child
                    .stderr
                    .take()
                    .unwrap()
                    .read_to_string(&mut err)
                    .unwrap();
                panic!("daemon exited before announcing its address: {err}");
            }
            if let Some(rest) = line.trim().strip_prefix("listening on ") {
                break rest.to_string();
            }
        };

        let writer = TcpStream::connect(&addr).unwrap();
        writer.set_nodelay(true).unwrap();
        writer
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        Daemon {
            child,
            _stdout: stdout,
            out_dir,
            reader,
            writer,
        }
    }

    /// One request frame (a single write), one reply line.
    fn roundtrip_raw(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
        let mut resp = String::new();
        self.reader.read_line(&mut resp).unwrap();
        resp
    }

    fn roundtrip(&mut self, line: &str) -> serde_json::Value {
        let resp = self.roundtrip_raw(line);
        serde_json::from_str(&resp).unwrap_or_else(|e| panic!("unparseable reply {resp:?}: {e}"))
    }

    fn ledger(&self) -> PathBuf {
        self.out_dir.join("ledger.jsonl")
    }

    /// Wait for the daemon to exit by itself; returns its exit code.
    fn finish(mut self) -> Option<i32> {
        let code = self.child.wait().unwrap().code();
        let _ = fs::remove_dir_all(&self.out_dir);
        code
    }
}

/// A test that fails mid-session must not leave its daemon behind.
impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn is_ok(v: &serde_json::Value) -> bool {
    v.get("ok").and_then(|b| b.as_bool()) == Some(true)
}

/// Full daemon lifecycle against the real binary: bind on an ephemeral
/// port, survive a malformed frame, submit a job over TCP, count it in
/// `metrics`, drain, exit 0, complete ledger on disk — and the streamed
/// job's checkpoint is the bytes the same job writes in manifest mode.
#[test]
fn daemon_end_to_end_over_tcp() {
    let mut d = Daemon::spawn("e2e");
    let case = serde_json::to_string(&Path::new(sod_case())).unwrap();

    let v = d.roundtrip(r#"{"cmd":"ping"}"#);
    assert!(is_ok(&v), "{v:?}");

    // A non-JSON frame gets a typed error; the connection survives it.
    let v = d.roundtrip("this is not json");
    assert_eq!(
        v["error"]["kind"].as_str(),
        Some("malformed_frame"),
        "{v:?}"
    );

    let submit =
        format!(r#"{{"cmd":"submit","job":{{"case":{case},"name":"wire","max_steps":6}}}}"#);
    let v = d.roundtrip(&submit);
    assert!(is_ok(&v), "{v:?}");
    let id = v.get("id").and_then(|i| i.as_u64()).unwrap();

    let v = d.roundtrip(r#"{"cmd":"metrics"}"#);
    assert_eq!(v["metrics"]["submitted"].as_u64(), Some(1), "{v:?}");

    let v = d.roundtrip(r#"{"cmd":"drain"}"#);
    assert!(is_ok(&v), "{v:?}");

    let status = d.child.wait().unwrap();
    assert_eq!(status.code(), Some(0), "daemon did not exit 0 after drain");

    // The ledger records the streamed job as done with its checkpoint.
    let text = fs::read_to_string(d.ledger()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "ledger: {text}");
    let rec: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
    assert_eq!(rec.get("id").and_then(|i| i.as_u64()), Some(id));
    assert_eq!(
        rec.get("state").and_then(|s| s.as_str()),
        Some("done"),
        "{rec:?}"
    );
    assert_eq!(rec.get("steps").and_then(|s| s.as_u64()), Some(6));
    let ckpt = rec
        .get("output")
        .and_then(|o| o.as_str())
        .expect("done job records its checkpoint path");
    assert!(Path::new(ckpt).is_file(), "missing checkpoint {ckpt}");

    // The transport is numerically invisible: the same job through
    // `--jobs` writes the same checkpoint bytes.
    let dir = tmp_dir("e2e_manifest");
    let manifest = dir.join("jobs.json");
    let out = serde_json::to_string(&dir.join("out")).unwrap();
    let jobs = format!(
        r#"{{ "out_dir": {out},
              "jobs": [ {{ "case": {case}, "name": "wire", "max_steps": 6 }} ] }}"#
    );
    fs::write(&manifest, jobs).unwrap();
    let (code, text) = serve(&["--jobs", manifest.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{text}");
    assert!(
        fs::read(ckpt).unwrap() == fs::read(dir.join("out/00_wire/final.ckpt")).unwrap(),
        "streamed checkpoint differs from manifest mode"
    );
    let _ = fs::remove_dir_all(&dir);
    d.finish();
}

/// `submit` of `case_text` must be rejected typed with `needle` in the
/// reply, the daemon must stay healthy, and nothing may reach the ledger.
fn rejected_at_submit(tag: &str, case_text: &str, needle: &str) {
    let mut d = Daemon::spawn(tag);
    let case = d.out_dir.join("case.json");
    fs::write(&case, case_text).unwrap();
    let v = d.roundtrip(&format!(
        r#"{{"cmd":"submit","job":{{"case":{}}}}}"#,
        serde_json::to_string(&case).unwrap()
    ));
    assert!(!is_ok(&v), "{tag}: the case was admitted: {v:?}");
    assert!(v.to_string().contains(needle), "{v:?}");

    assert!(is_ok(&d.roundtrip(r#"{"cmd":"ping"}"#)));
    assert!(is_ok(&d.roundtrip(r#"{"cmd":"drain"}"#)));
    let ledger = d.ledger();
    let text = fs::read_to_string(&ledger).unwrap_or_default();
    assert_eq!(d.finish(), Some(0));
    assert!(text.is_empty(), "a rejected job reached the ledger: {text}");
}

/// Satellite regression: a case with more fluids than the kernels'
/// private arrays hold used to be admitted (the dry run said "19 eqs")
/// and then failed by panic isolation.
#[test]
fn submit_rejects_more_than_max_fluids() {
    let fluids = [r#"{"gamma":1.4,"pi_inf":0.0}"#; 9].join(",");
    let alpha = vec![format!("{}", 1.0 / 9.0); 9].join(",");
    let rho = ["1.0"; 9].join(",");
    rejected_at_submit(
        "nine_fluids",
        &format!(
            r#"{{"name":"nine","fluids":[{fluids}],"ndim":1,"cells":[32,1,1],"bc":"periodic",
               "patches":[{{"region":"all","state":{{"alpha":[{alpha}],"rho":[{rho}],
               "vel":[0.0,0.0,0.0],"p":1.0e5}}}}],"run":{{"steps":2}}}}"#
        ),
        "at most 8 fluids",
    );
}

/// Satellite regression: a single-rank case with fewer interior cells
/// than the stencil's ghost layers used to be admitted (the halo check
/// skipped unsplit axes) and then panicked in `Domain::new`.
#[test]
fn submit_rejects_fewer_cells_than_ghost_layers() {
    rejected_at_submit(
        "thin_axis",
        r#"{"name":"thin","fluids":[{"gamma":1.4,"pi_inf":0.0}],"ndim":1,"cells":[2,1,1],
           "bc":"periodic","patches":[{"region":"all","state":{"alpha":[1.0],"rho":[1.0],
           "vel":[0.0,0.0,0.0],"p":1.0e5}}],"numerics":{"order":"weno5"},"run":{"steps":2}}"#,
        "below the 3-layer halo depth",
    );
}

/// Satellite regression: the reply to the `drain` that ends an idle
/// daemon used to be lost about once in a hundred daemons — the process
/// exited while the connection's reader thread was still writing it.
#[test]
fn every_throw_away_daemon_answers_its_final_drain() {
    for i in 0..50 {
        let mut d = Daemon::spawn("drain50");
        let resp = d.roundtrip_raw(r#"{"cmd":"drain"}"#);
        let v: serde_json::Value = serde_json::from_str(&resp)
            .unwrap_or_else(|e| panic!("daemon {i}: drain reply {resp:?} is not JSON: {e}"));
        assert!(is_ok(&v), "daemon {i}: {v:?}");
        assert_eq!(d.finish(), Some(0), "daemon {i}");
    }
}

/// Satellite regression: replies are one write on a no-delay socket. Two
/// writes on a Nagle'd socket cost every request the peer's delayed ACK
/// (~40 ms); a loop-back ping is tens of microseconds.
#[test]
fn loopback_ping_round_trip_is_sub_millisecond_scale() {
    let mut d = Daemon::spawn("ping_rtt");
    let mut rtts: Vec<Duration> = (0..101)
        .map(|_| {
            let t0 = Instant::now();
            let v = d.roundtrip(r#"{"cmd":"ping"}"#);
            let rtt = t0.elapsed();
            assert!(is_ok(&v), "{v:?}");
            rtt
        })
        .collect();
    rtts.sort();
    let p50 = rtts[rtts.len() / 2];
    assert!(p50 < Duration::from_millis(2), "ping p50 {p50:?}");
    assert!(is_ok(&d.roundtrip(r#"{"cmd":"shutdown"}"#)));
    assert_eq!(d.finish(), Some(0));
}

/// Satellite regression: a client that never sends a newline made its
/// reader thread buffer everything it sent. A frame longer than the
/// daemon's 64 KiB limit gets one `malformed_frame` reply naming the limit
/// and the connection closes; a fresh connection is served as before.
#[test]
fn over_long_frame_is_refused_and_its_connection_closed() {
    let mut d = Daemon::spawn("long_frame");
    d.writer
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    d.writer.write_all(&vec![b'x'; 65 * 1024]).unwrap();
    let mut resp = String::new();
    d.reader
        .read_line(&mut resp)
        .expect("a reply to the over-long frame within 5 s");
    let v: serde_json::Value = serde_json::from_str(&resp).unwrap();
    assert_eq!(
        v["error"]["kind"].as_str(),
        Some("malformed_frame"),
        "{v:?}"
    );
    let message = v["error"]["message"].as_str().unwrap_or_default();
    assert!(message.contains("65536 bytes"), "{message}");
    let mut rest = String::new();
    match d.reader.read_line(&mut rest) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("connection left open: {other:?} {rest:?}"),
    }

    let fresh = TcpStream::connect(d.writer.peer_addr().unwrap()).unwrap();
    fresh
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut fresh_reader = BufReader::new(fresh.try_clone().unwrap());
    for cmd in ["ping", "shutdown"] {
        (&fresh)
            .write_all(format!("{{\"cmd\":\"{cmd}\"}}\n").as_bytes())
            .unwrap();
        let mut line = String::new();
        fresh_reader.read_line(&mut line).unwrap();
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert!(is_ok(&v), "{cmd}: {v:?}");
    }
    assert_eq!(d.finish(), Some(0));
}
