//! Daemon-mode suite for the `mfc-serve` scheduler: streaming admission
//! over TCP against a live event loop.
//!
//! The batch suite (`tests/ensemble.rs`) proves the closed system —
//! submit everything, run, drain. This suite proves the *open* system
//! the daemon adds on top, without weakening the core invariant:
//!
//! 1. Jobs streamed over TCP to a running daemon produce checkpoints
//!    **bitwise identical** to manifest mode and to a standalone serial
//!    run, at budgets {1, 2, 4} — arrival timing, elastic resizes, and
//!    the transport are all numerically invisible.
//! 2. Mid-run `submit` / `cancel` / `drain`: admission closes exactly
//!    once, queued work still completes, post-drain submissions fail
//!    typed, and the exit leaves zero queued/running jobs behind.
//! 3. `shutdown` cancels cooperatively at step boundaries and the
//!    ledger still holds one terminal record per job.
//! 4. Protocol robustness: malformed frames are typed error *responses*
//!    on a surviving connection; a client dying mid-frame is detected
//!    and contained, and the daemon keeps serving others.
//! 5. Satellite regressions: out-of-range priorities are rejected at
//!    admission (typed), and queue aging is starvation-free under a
//!    continuous stream of high-priority arrivals (property test).

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use proptest::prelude::*;
use serde_json::Value;

use mfc::core::restart::save_checkpoint;
use mfc::trace::Tracer;
use mfc::{Context, Solver};
use mfc_cli::CaseFile;
use mfc_sched::{
    AdmissionQueue, JobRecord, JobSpec, JobState, Request, SchedClient, SchedConfig, SchedError,
    Scheduler, Server, PRIORITY_LIMIT,
};

fn sod_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../cases/sod.json")
}

/// Fresh per-test scratch directory (tests in one binary run in
/// parallel, so the pid alone is not unique).
fn tmp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "mfc_daemon_{}_{tag}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

/// Standalone serial reference checkpoint, mirroring the scheduler's
/// stopping rule.
fn standalone_ckpt(steps: usize, out: &Path) {
    let cf = CaseFile::from_path(&sod_path()).unwrap();
    let case = cf.to_case().unwrap();
    let cfg = cf.numerics.to_solver_config().unwrap();
    let ctx = Context::with_workers(1).with_vector_width(cfg.vector_width);
    let mut solver = Solver::new(&case, cfg, ctx);
    let t_end = cf.run.t_end.unwrap_or(f64::INFINITY);
    solver.run_until(t_end, steps).unwrap();
    save_checkpoint(out, solver.state(), solver.time(), solver.steps()).unwrap();
}

fn spec(name: &str, steps: usize, priority: i64) -> JobSpec {
    spec_for(&sod_path(), name, steps, priority)
}

fn spec_for(case: &Path, name: &str, steps: usize, priority: i64) -> JobSpec {
    let mut s = JobSpec::new(case);
    s.name = Some(name.to_string());
    s.priority = priority;
    s.max_steps = Some(steps);
    s
}

/// A deliberately slow variant of the Sod case (80× the cells, no
/// meaningful `t_end` cap) so mid-run tests can land commands while a
/// job is genuinely running — the shipped case finishes in
/// microseconds.
fn slow_case(dir: &Path) -> PathBuf {
    let case = r#"{
  "name": "sod_slow",
  "fluids": [{ "gamma": 1.4, "pi_inf": 0.0 }],
  "ndim": 1,
  "cells": [16000, 1, 1],
  "lo": [0.0, 0.0, 0.0],
  "hi": [1.0, 1.0, 1.0],
  "bc": "transmissive",
  "patches": [
    { "region": "all",
      "state": { "alpha": [1.0], "rho": [0.125], "vel": [0.0, 0.0, 0.0], "p": 0.1 } },
    { "region": { "half_space": { "axis": 0, "bound": 0.5 } },
      "state": { "alpha": [1.0], "rho": [1.0], "vel": [0.0, 0.0, 0.0], "p": 1.0 } }
  ],
  "numerics": { "order": "weno5", "solver": "hllc", "scheme": "rk3", "cfl": 0.5, "dt": null },
  "run": { "steps": 0, "t_end": 1.0e9, "ranks": 1 },
  "output": { "dir": "out/sod_slow", "vtk": false }
}"#;
    let path = dir.join("sod_slow.json");
    fs::write(&path, case).unwrap();
    path
}

fn config(budget: usize, out_dir: PathBuf) -> SchedConfig {
    SchedConfig {
        budget,
        queue_cap: 16,
        aging_rounds: 2,
        out_dir,
    }
}

/// An in-process daemon: scheduler loop on its own thread, real TCP
/// server in front of it, exactly as `mfc-serve --listen` wires them.
struct Daemon {
    addr: SocketAddr,
    loop_thread: JoinHandle<Vec<JobRecord>>,
}

impl Daemon {
    fn start(budget: usize, out_dir: PathBuf, tracer: Option<Arc<Tracer>>) -> Daemon {
        let (client, events) = SchedClient::pair();
        let tl = tracer.as_ref().map(|t| t.handle(0));
        let mut server = Server::bind("127.0.0.1:0", client.clone(), tl).unwrap();
        let addr = server.addr();
        let loop_thread = std::thread::spawn(move || {
            let mut sched = Scheduler::new(config(budget, out_dir));
            if let Some(t) = tracer {
                sched = sched.with_tracer(t);
            }
            let records = sched.serve(&client, events);
            server.stop();
            records
        });
        Daemon { addr, loop_thread }
    }

    /// Wait for the loop to exit (after a drain/shutdown command) and
    /// return the ledger.
    fn join(self) -> Vec<JobRecord> {
        self.loop_thread.join().unwrap()
    }
}

/// A test client speaking the wire protocol over real TCP.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        // Without this, Nagle holding a frame's tail behind the daemon's
        // delayed ACK adds ~40 ms per request, enough for a mid-run test's
        // job to finish before its commands land.
        stream.set_nodelay(true).unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    /// One raw line out, one response line back.
    fn roundtrip(&mut self, line: &str) -> Value {
        // One write per frame, so the daemon never holds half of one.
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
        self.writer.flush().unwrap();
        let mut resp = String::new();
        self.reader.read_line(&mut resp).unwrap();
        assert!(resp.ends_with('\n'), "truncated response: {resp:?}");
        serde_json::from_str(&resp).unwrap()
    }

    fn request(&mut self, req: &Request) -> Value {
        self.roundtrip(&req.to_line())
    }

    /// Submit and return the accepted job id.
    fn submit(&mut self, job: JobSpec) -> u64 {
        let v = self.request(&Request::Submit(job));
        assert_eq!(v["ok"].as_bool(), Some(true), "{v:?}");
        v["id"].as_u64().unwrap()
    }

    fn metrics(&mut self) -> Value {
        let v = self.request(&Request::Metrics);
        assert_eq!(v["ok"].as_bool(), Some(true), "{v:?}");
        v["metrics"].clone()
    }
}

fn error_kind(v: &Value) -> String {
    assert_eq!(v["ok"].as_bool(), Some(false), "expected an error: {v:?}");
    v["error"]["kind"].as_str().unwrap().to_string()
}

fn assert_bitwise(job: &str, got: &Path, want: &Path) {
    assert!(
        fs::read(got).unwrap() == fs::read(want).unwrap(),
        "{job}: daemon checkpoint {} differs from reference {}",
        got.display(),
        want.display()
    );
}

/// Jobs streamed over TCP produce checkpoints byte-identical to the
/// same ensemble run from a manifest and to standalone serial runs, at
/// every budget — the transport and arrival timing are invisible.
#[test]
fn streamed_submission_matches_manifest_and_standalone_bitwise() {
    let jobs: [(&str, usize, i64); 4] = [
        ("alpha", 12, 1),
        ("beta", 8, 0),
        ("gamma", 5, 2),
        ("delta", 3, 0),
    ];
    let refs = tmp_dir("stream_refs");
    for (name, steps, _) in jobs {
        standalone_ckpt(steps, &refs.join(format!("{name}.ckpt")));
    }
    for budget in [1usize, 2, 4] {
        // Manifest mode: everything submitted up front, then run().
        let out_m = tmp_dir("stream_manifest");
        let mut sched = Scheduler::new(config(budget, out_m.clone()));
        for (name, steps, prio) in jobs {
            sched.submit(spec(name, steps, prio)).unwrap();
        }
        let manifest_records = sched.run();

        // Daemon mode: the same jobs arrive over TCP, one frame each.
        let out_d = tmp_dir("stream_daemon");
        let daemon = Daemon::start(budget, out_d.clone(), None);
        let mut client = Client::connect(daemon.addr);
        let mut ids = Vec::new();
        for (name, steps, prio) in jobs {
            ids.push(client.submit(spec(name, steps, prio)));
        }
        let v = client.request(&Request::Drain);
        assert_eq!(v["ok"].as_bool(), Some(true), "{v:?}");
        assert_eq!(v["draining"].as_bool(), Some(true), "{v:?}");
        let records = daemon.join();

        assert_eq!(records.len(), jobs.len(), "budget {budget}");
        for ((r, m), (name, steps, _)) in records.iter().zip(&manifest_records).zip(jobs) {
            assert_eq!(
                r.state,
                JobState::Done,
                "budget {budget}: {name} {:?}",
                r.reason
            );
            assert_eq!(r.steps, steps as u64, "budget {budget}: {name}");
            assert!(
                r.final_share >= 1,
                "budget {budget}: {name} ran with no worker"
            );
            let got = r.output.as_ref().expect("done job writes a checkpoint");
            assert_bitwise(name, got, &refs.join(format!("{name}.ckpt")));
            assert_bitwise(name, got, m.output.as_ref().unwrap());
        }
        let _ = fs::remove_dir_all(&out_m);
        let _ = fs::remove_dir_all(&out_d);
    }
    let _ = fs::remove_dir_all(&refs);
}

/// The open system in motion: submissions and a cancellation land while
/// the ensemble runs, drain closes admission exactly once, queued work
/// still completes, and the exit leaves nothing queued or running.
#[test]
fn midrun_submit_cancel_drain() {
    let out = tmp_dir("midrun");
    let slow = slow_case(&out);
    let daemon = Daemon::start(1, out.clone(), None);
    let mut client = Client::connect(daemon.addr);

    // Budget 1: job 0 occupies the pool for a while (hundreds of
    // milliseconds), everything later queues behind it.
    let long = client.submit(spec_for(&slow, "long", 150, 0));
    let doomed = client.submit(spec_for(&slow, "doomed", 150, 0));
    let late = client.submit(spec("late", 4, 0));

    let m = client.metrics();
    assert_eq!(m["submitted"].as_u64(), Some(3));
    assert_eq!(m["budget"].as_u64(), Some(1));
    assert!(m["running"].as_u64().unwrap() <= 1);
    assert_eq!(m["draining"].as_bool(), Some(false));

    let v = client.request(&Request::Cancel(doomed));
    assert_eq!(v["ok"].as_bool(), Some(true), "{v:?}");
    // Cancelling a job twice is typed, not fatal.
    let v = client.request(&Request::Cancel(doomed));
    assert!(
        error_kind(&v) == "terminal" || error_kind(&v) == "unknown_job",
        "{v:?}"
    );

    let v = client.request(&Request::Drain);
    assert_eq!(v["metrics"]["draining"].as_bool(), Some(true), "{v:?}");
    // Admission is closed: a post-drain submission fails typed while
    // the queued job still gets to run.
    let v = client.request(&Request::Submit(spec("rejected", 2, 0)));
    assert_eq!(error_kind(&v), "draining");

    let records = daemon.join();
    assert_eq!(records.len(), 3);
    assert_eq!(records[long as usize].state, JobState::Done);
    assert_eq!(records[doomed as usize].state, JobState::Cancelled);
    assert_eq!(
        records[late as usize].state,
        JobState::Done,
        "{:?}",
        records[late as usize].reason
    );
    assert_eq!(records[late as usize].steps, 4);
    let _ = fs::remove_dir_all(&out);
}

/// `shutdown` cancels queued and running jobs cooperatively at step
/// boundaries and still produces a complete terminal ledger.
#[test]
fn shutdown_cancels_cooperatively_with_complete_ledger() {
    let out = tmp_dir("shutdown");
    let slow = slow_case(&out);
    let daemon = Daemon::start(1, out.clone(), None);
    let mut client = Client::connect(daemon.addr);
    client.submit(spec_for(&slow, "running", 100_000, 0));
    client.submit(spec_for(&slow, "queued", 100_000, 0));
    let v = client.request(&Request::Shutdown);
    assert_eq!(v["ok"].as_bool(), Some(true), "{v:?}");
    assert_eq!(v["shutting_down"].as_bool(), Some(true), "{v:?}");
    let records = daemon.join();
    assert_eq!(records.len(), 2);
    for r in &records {
        assert_eq!(r.state, JobState::Cancelled, "{}: {:?}", r.job, r.reason);
    }
    // The running job stopped at a step boundary, not after its budget.
    assert!(records[0].steps < 100_000);
    let _ = fs::remove_dir_all(&out);
}

/// Malformed frames are answered with typed errors on a connection that
/// stays open; scheduler-level rejections keep their own kinds.
#[test]
fn malformed_frames_are_typed_and_survivable() {
    let out = tmp_dir("malformed");
    let daemon = Daemon::start(1, out.clone(), None);
    let mut client = Client::connect(daemon.addr);

    for bad in [
        "this is not json",
        r#"{"cmd":"warp"}"#,
        r#"{"cmd":"cancel"}"#,
        r#"{"cmd":"cancel","id":"one"}"#,
        r#"{"cmd":"metrics","stray":true}"#,
        r#"{"cmd":"submit"}"#,
        r#"[1,2,3]"#,
    ] {
        let v = client.roundtrip(bad);
        assert_eq!(error_kind(&v), "malformed_frame", "{bad}");
    }
    // Same connection still serves real traffic after every bad frame.
    let v = client.request(&Request::Ping);
    assert_eq!(v["ok"].as_bool(), Some(true), "{v:?}");

    let v = client.request(&Request::Cancel(999));
    assert_eq!(error_kind(&v), "unknown_job");
    let v = client.request(&Request::Submit(JobSpec::new(out.join("missing.json"))));
    assert_eq!(error_kind(&v), "rejected");

    // Satellite regression, wire level: an extreme priority is a typed
    // admission rejection — it must never reach the aging arithmetic.
    let v = client.request(&Request::Submit(spec("hot", 2, i64::MAX)));
    assert_eq!(error_kind(&v), "priority_out_of_range");
    let v = client.request(&Request::Submit(spec("cold", 2, i64::MIN)));
    assert_eq!(error_kind(&v), "priority_out_of_range");

    client.request(&Request::Shutdown);
    let records = daemon.join();
    assert!(records.is_empty(), "nothing was admitted: {records:?}");
    let _ = fs::remove_dir_all(&out);
}

/// A client dying mid-frame is detected (trace instant), its partial
/// frame is discarded, and the daemon keeps serving other clients.
#[test]
fn client_disconnect_midframe_is_contained() {
    let out = tmp_dir("midframe");
    let tracer = Arc::new(Tracer::new());
    let daemon = Daemon::start(1, out.clone(), Some(Arc::clone(&tracer)));

    {
        let mut dying = TcpStream::connect(daemon.addr).unwrap();
        dying.write_all(br#"{"cmd":"submit","job":{"ca"#).unwrap();
        dying.flush().unwrap();
    } // dropped: EOF mid-frame

    // The daemon still serves a healthy client afterwards.
    let mut client = Client::connect(daemon.addr);
    let v = client.request(&Request::Ping);
    assert_eq!(v["ok"].as_bool(), Some(true), "{v:?}");
    let m = client.metrics();
    assert_eq!(
        m["submitted"].as_u64(),
        Some(0),
        "partial frame admitted a job"
    );

    // The mid-frame disconnect is observable on the scheduler timeline.
    let mut seen = false;
    for _ in 0..100 {
        let json = mfc::trace::chrome::export_to_string(&tracer.snapshot());
        if json.contains("client_disconnect_midframe") {
            seen = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(seen, "mid-frame disconnect instant never reached the trace");

    client.request(&Request::Shutdown);
    let records = daemon.join();
    assert!(records.is_empty());
    let _ = fs::remove_dir_all(&out);
}

/// Satellite regression, scheduler level: out-of-range priorities are
/// rejected at admission with the typed error (pre-fix they were
/// accepted and overflowed in the queue's aging arithmetic).
#[test]
fn priority_bounds_are_enforced_at_admission() {
    let out = tmp_dir("priobounds");
    let mut sched = Scheduler::new(config(1, out.clone()));
    for bad in [i64::MAX, i64::MIN, PRIORITY_LIMIT + 1, -PRIORITY_LIMIT - 1] {
        match sched.submit(spec("extreme", 2, bad)) {
            Err(SchedError::PriorityOutOfRange { priority, limit }) => {
                assert_eq!(priority, bad);
                assert_eq!(limit, PRIORITY_LIMIT);
            }
            other => panic!("priority {bad} must be rejected, got {other:?}"),
        }
    }
    // The boundary itself is admissible.
    sched.submit(spec("edge_hi", 2, PRIORITY_LIMIT)).unwrap();
    sched.submit(spec("edge_lo", 2, -PRIORITY_LIMIT)).unwrap();
    let records = sched.run();
    assert!(records.iter().all(|r| r.state == JobState::Done));
    let _ = fs::remove_dir_all(&out);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Aging is starvation-free: one low-priority job against an
    /// endless stream of high-priority arrivals is dispatched within
    /// the analytic bound aging_rounds * (gap + 2) rounds.
    #[test]
    fn aging_is_starvation_free_under_continuous_arrivals(
        aging in 1u64..=4,
        low in -100i64..=0,
        high in 1i64..=100,
    ) {
        let mut q = AdmissionQueue::new(1024, aging);
        q.push(0, low).unwrap();
        let gap = (high - low) as u64;
        let bound = aging * (gap + 2);
        let mut won_at: Option<u64> = None;
        for round in 0..bound {
            q.push(1 + round, high).unwrap();
            if q.pop() == Some(0) {
                won_at = Some(round);
                break;
            }
        }
        prop_assert!(
            won_at.is_some(),
            "low-priority job starved for {} rounds (aging {}, gap {})",
            bound, aging, gap
        );
    }
}
