//! `serve_stream`: the ensemble operator's view of `mfc-serve`.
//!
//! Load model — one harness process, two threads, two TCP connections:
//!
//! * **submitter, open loop.** A burst of `serve_burst` jobs all due at
//!   once (the saturated regime), `BURSTS` times; between one burst
//!   draining and the next, `serve_rate` jobs/s of Poisson arrivals (the
//!   lightly loaded regime) fill what `--seconds` leaves. Alternating the
//!   two regimes puts samples of both all along the session, so a slow
//!   spell of the host has to last all of it to spoil either figure. Every
//!   job is timed from when it was *due*, so a stalled daemon is charged
//!   for the arrivals it delayed.
//! * **monitor, closed loop.** One client cycling `status`, `status id`,
//!   `metrics`, `ping` with `THINK` between replies; it records every
//!   round trip and the moment each job first shows a terminal state —
//!   which is when a client actually learns its job is done.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use serde_json::{json, Value};

use crate::child::{Finished, Spawned};
use crate::gen::{self, JobKind, Rng};
use crate::stats;
use crate::{Ctx, Outcome};

/// Monitor think time between a reply and the next request.
const THINK: Duration = Duration::from_millis(5);
/// Set-up is sampled on this many throw-away daemons plus the real one.
const EXTRA_SETUPS: usize = 20;
/// Bursts per session; a streaming phase follows each but the last.
const BURSTS: usize = 3;
/// Worker cap every job is submitted with. These jobs are too small for
/// gangs to pay (the layer probe's `acc.w2_speedup` is 1.0 at 2 048 cells):
/// uncapped — a lone job is handed both workers — the session's `grind_ns`
/// was higher in five interleaved pairs out of five, and the daemon's peak
/// RSS moved 25 % across seeds (short-lived gang threads landing in
/// different malloc arenas) against 1 % capped. The budget of 2 still runs
/// two jobs side by side.
const JOB_WORKERS: usize = 1;
const TERMINAL: [&str; 4] = ["done", "failed", "cancelled", "timed_out"];

/// A running `mfc-serve`; killed on drop unless it was reaped.
struct Daemon {
    process: Option<Spawned>,
    addr: String,
}

impl Daemon {
    /// Start the daemon and wait for its `listening on HOST:PORT` line.
    /// Stdout keeps draining on a helper thread until the daemon exits.
    fn spawn(mfc_serve: &Path, out_dir: &Path) -> Result<Daemon, String> {
        let mut process = Spawned::start(
            Command::new(mfc_serve)
                .args([
                    "--listen",
                    "127.0.0.1:0",
                    "--budget",
                    "2",
                    "--queue-cap",
                    "64",
                    "--out-dir",
                ])
                .arg(out_dir)
                .stdin(Stdio::null())
                .stdout(Stdio::piped()),
        )
        .map_err(|e| format!("cannot start mfc-serve: {e}"))?;
        let stdout = process.child_mut().stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel();
        // Detached on purpose: it ends at the daemon's EOF, which every
        // path below forces (drain, shutdown, or kill on drop).
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("listening on ") {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        });
        let mut daemon = Daemon {
            process: Some(process),
            addr: String::new(),
        };
        daemon.addr = rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| "mfc-serve never printed its listening address".to_string())?;
        Ok(daemon)
    }

    fn connect(&self) -> Result<Conn, String> {
        let stream = TcpStream::connect(&self.addr)
            .map_err(|e| format!("cannot connect to {}: {e}", self.addr))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: stream,
        })
    }

    fn process(&self) -> &Spawned {
        self.process.as_ref().expect("daemon not reaped yet")
    }

    fn started(&self) -> Instant {
        self.process().started
    }

    fn cpu_s_so_far(&self) -> Result<f64, String> {
        self.process()
            .cpu_s_so_far()
            .map_err(|e| format!("cannot read the daemon's CPU time: {e}"))
    }

    /// Wait for the daemon to exit and collect its rusage.
    fn reap(mut self) -> Result<Finished, String> {
        let process = self.process.take().expect("daemon reaped once");
        process.reap().map_err(|e| format!("wait4 failed: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(p) = self.process.take() {
            p.kill();
        }
    }
}

/// One client connection speaking the line-delimited JSON protocol.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// One request line out, one response line in; returns the reply,
    /// the round trip in ms and the instant the reply arrived.
    fn request(&mut self, req: &Value) -> Result<(Value, f64, Instant), String> {
        let mut line = req.to_string();
        line.push('\n');
        let t0 = Instant::now();
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send failed: {e}"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("receive failed: {e}"))?;
        let at = Instant::now();
        if n == 0 {
            return Err("daemon closed the connection".into());
        }
        let v: Value = serde_json::from_str(&reply).map_err(|e| format!("bad reply: {e}"))?;
        Ok((v, (at - t0).as_secs_f64() * 1e3, at))
    }

    /// Send the command that ends an idle daemon (`drain`, `shutdown`) and
    /// do not insist on the reply: at the seed commit the process can exit
    /// while its reader thread is still writing it (seen on 2 runs in 10
    /// with twenty throw-away daemons each). The exit code and the ledger
    /// are what the run is judged on.
    fn send_last(&mut self, req: &Value) -> Result<(), String> {
        let mut line = req.to_string();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send failed: {e}"))?;
        let _ = self.reader.read_line(&mut String::new());
        Ok(())
    }
}

fn is_ok(reply: &Value) -> bool {
    reply["ok"].as_bool() == Some(true)
}

/// Spawn → listening → connected → first `ping` answered.
fn timed_setup(mfc_serve: &Path, out_dir: &Path) -> Result<(Daemon, Conn, f64), String> {
    let daemon = Daemon::spawn(mfc_serve, out_dir)?;
    let mut conn = daemon.connect()?;
    let (reply, _, at) = conn.request(&json!({ "cmd": "ping" }))?;
    if !is_ok(&reply) {
        return Err(format!("ping refused: {reply}"));
    }
    let setup_s = (at - daemon.started()).as_secs_f64();
    Ok((daemon, conn, setup_s))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The n-th burst.
    Burst(usize),
    Stream,
}

struct Submitted {
    id: u64,
    kind: usize,
    phase: Phase,
    due: Instant,
}

/// What the two client threads share.
struct Shared {
    /// Job id → when the monitor first saw it terminal.
    terminal: Mutex<HashMap<u64, Instant>>,
    /// Highest id submitted so far (−1: none); ids are handed out in
    /// submission order starting at 0.
    last_id: AtomicI64,
    stop: AtomicBool,
}

impl Shared {
    /// Lowest submitted id the monitor has not yet seen terminal.
    fn oldest_outstanding(&self) -> Option<u64> {
        let last = u64::try_from(self.last_id.load(Ordering::Relaxed)).ok()?;
        let seen = self.terminal.lock().expect("monitor map poisoned");
        (0..=last).find(|id| !seen.contains_key(id))
    }

    fn terminal_count(&self) -> usize {
        self.terminal.lock().expect("monitor map poisoned").len()
    }

    /// Block until `n` jobs are terminal; false on `deadline`.
    fn wait_terminal(&self, n: usize, deadline: Instant) -> bool {
        while self.terminal_count() < n {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }
}

struct SubmitLog {
    jobs: Vec<Submitted>,
    rtt_ms: Vec<f64>,
    /// How late each streamed request left the generator, ms.
    lag_ms: Vec<f64>,
    refused: Vec<String>,
    bursts: Vec<Burst>,
}

struct Burst {
    due: Instant,
    /// Daemon CPU seconds from due to drained.
    cpu_s: f64,
}

/// `stream[n]` follows burst `n`: (offset from the phase's start, kind).
#[allow(clippy::too_many_arguments)]
fn submitter(
    mut conn: Conn,
    shared: &Shared,
    daemon: &Daemon,
    kinds: &[JobKind],
    case_dir: &Path,
    burst: &[usize],
    stream: &[Vec<(f64, usize)>],
    deadline: Instant,
) -> Result<(Conn, SubmitLog), String> {
    let mut log = SubmitLog {
        jobs: vec![],
        rtt_ms: vec![],
        lag_ms: vec![],
        refused: vec![],
        bursts: vec![],
    };
    let submit = |conn: &mut Conn, log: &mut SubmitLog, kind: usize, phase, due| {
        let k = &kinds[kind];
        let req = json!({ "cmd": "submit", "job": json!({
            "case": case_dir.join(k.case), "max_steps": k.max_steps, "workers": JOB_WORKERS }) });
        let (reply, ms, _) = conn.request(&req)?;
        log.rtt_ms.push(ms);
        match reply["id"].as_u64().filter(|_| is_ok(&reply)) {
            Some(id) => {
                shared.last_id.store(id as i64, Ordering::Relaxed);
                log.jobs.push(Submitted {
                    id,
                    kind,
                    phase,
                    due,
                });
            }
            None => log.refused.push(format!("submit refused: {reply}")),
        }
        Ok::<(), String>(())
    };
    let drained = |log: &SubmitLog| {
        if shared.wait_terminal(log.jobs.len(), deadline) {
            Ok(())
        } else {
            Err("jobs did not finish in time".to_string())
        }
    };
    for nth in 0..BURSTS {
        let cpu_before = daemon.cpu_s_so_far()?;
        let due = Instant::now();
        for &kind in burst {
            submit(&mut conn, &mut log, kind, Phase::Burst(nth), due)?;
        }
        drained(&log)?;
        log.bursts.push(Burst {
            due,
            cpu_s: daemon.cpu_s_so_far()? - cpu_before,
        });
        let Some(arrivals) = stream.get(nth) else {
            continue;
        };
        let start = Instant::now() + Duration::from_millis(20);
        for &(offset, kind) in arrivals {
            let due = start + Duration::from_secs_f64(offset);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            log.lag_ms.push((Instant::now() - due).as_secs_f64() * 1e3);
            submit(&mut conn, &mut log, kind, Phase::Stream, due)?;
        }
        drained(&log)?;
    }
    Ok((conn, log))
}

struct MonitorLog {
    rtt_ms: Vec<f64>,
    refused: Vec<String>,
}

fn monitor(mut conn: Conn, shared: &Shared) -> Result<MonitorLog, String> {
    let mut log = MonitorLog {
        rtt_ms: vec![],
        refused: vec![],
    };
    let mut turn = 0usize;
    while !shared.stop.load(Ordering::Relaxed) {
        // All four read-only verbs, `status` most often: it is the one
        // that tells a client its job is done. `status id` asks for the
        // oldest job not yet seen terminal — the one a client is waiting on.
        let waiting_on = shared.oldest_outstanding();
        let req = match (turn % 6, waiting_on) {
            (1 | 4, Some(id)) => json!({ "cmd": "status", "id": id }),
            (2, _) => json!({ "cmd": "metrics" }),
            (5, _) => json!({ "cmd": "ping" }),
            _ => json!({ "cmd": "status" }),
        };
        turn += 1;
        let (reply, ms, at) = conn.request(&req)?;
        log.rtt_ms.push(ms);
        if !is_ok(&reply) {
            log.refused.push(format!("{req} refused: {reply}"));
        }
        if let Some(rows) = reply["jobs"].as_array() {
            let mut seen = shared.terminal.lock().expect("monitor map poisoned");
            for row in rows {
                let state = row["state"].as_str().unwrap_or("");
                if let (true, Some(id)) = (TERMINAL.contains(&state), row["id"].as_u64()) {
                    seen.entry(id).or_insert(at);
                }
            }
        }
        std::thread::sleep(THINK);
    }
    Ok(log)
}

fn write_cases(ctx: &Ctx, case_dir: &Path) -> Result<(), String> {
    let s = &ctx.sizes;
    let mut rng = Rng::new(ctx.seed, 20);
    let scratch = ctx.out.join("unused").to_string_lossy().into_owned();
    let sod = gen::sod_case(
        "sod",
        s.serve_job_cells_1d,
        100,
        rng.range(0.45, 0.55),
        &scratch,
        false,
    );
    let drop = gen::droplet_case(
        "droplet",
        s.serve_job_cells_2d,
        20,
        rng.range(-0.5e-3, 0.5e-3),
        &scratch,
    );
    std::fs::create_dir_all(case_dir).map_err(|e| e.to_string())?;
    for (name, case) in [("sod.json", sod), ("droplet.json", drop)] {
        std::fs::write(case_dir.join(name), case.to_string()).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Ledger rows by job id.
fn read_ledger(path: &Path) -> Result<HashMap<u64, Value>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read ledger {}: {e}", path.display()))?;
    let mut rows = HashMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("bad ledger row: {e}"))?;
        let id = v["id"].as_u64().ok_or("ledger row without id")?;
        rows.insert(id, v);
    }
    Ok(rows)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let s = &ctx.sizes;
    let mfc_serve = ctx.bin_dir.join("mfc-serve");
    let case_dir = ctx.out.join("cases");
    write_cases(ctx, &case_dir)?;
    let kinds = gen::job_kinds(s);
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    for i in 0..EXTRA_SETUPS {
        let (daemon, mut conn, setup_s) =
            timed_setup(&mfc_serve, &ctx.out.join(format!("warm{i}")))?;
        setups.push(setup_s);
        conn.send_last(&json!({ "cmd": "shutdown" }))?;
        let done = daemon.reap()?;
        out.op(if done.ok() {
            Ok(())
        } else {
            Err(format!("throw-away daemon exited {:?}", done.code))
        });
    }

    let serve_dir = ctx.out.join("serve");
    let _ = std::fs::remove_dir_all(&serve_dir);
    let (daemon, submit_conn, setup_s) = timed_setup(&mfc_serve, &serve_dir)?;
    setups.push(setup_s);
    let monitor_conn = daemon.connect()?;

    // The streaming phases fill what the set-ups, the bursts and the
    // shutdown leave of --seconds; their offered rate is fixed. One
    // schedule, cut into equal spans, one after each burst but the last.
    let stream_s = if ctx.quick {
        1.5
    } else {
        (ctx.seconds - 15.0).max(2.0)
    };
    let stream_n = (s.serve_rate * stream_s).round() as usize;
    let mut rng = Rng::new(ctx.seed, 21);
    let burst = gen::job_sequence(kinds.len(), s.serve_burst);
    let span_s = stream_s / (BURSTS - 1) as f64;
    let mut stream = vec![Vec::new(); BURSTS - 1];
    for (at, kind) in gen::poisson_schedule(stream_n, stream_s, &mut rng)
        .into_iter()
        .zip(gen::job_sequence(kinds.len(), stream_n))
    {
        let span = ((at / span_s) as usize).min(BURSTS - 2);
        stream[span].push((at - span as f64 * span_s, kind));
    }

    let shared = Shared {
        terminal: Mutex::new(HashMap::new()),
        last_id: AtomicI64::new(-1),
        stop: AtomicBool::new(false),
    };
    let deadline = Instant::now() + Duration::from_secs_f64(3.0 * ctx.seconds + 30.0);
    let (submitted, monitored) = std::thread::scope(|scope| {
        let mon = scope.spawn(|| monitor(monitor_conn, &shared));
        let sub = submitter(
            submit_conn,
            &shared,
            &daemon,
            &kinds,
            &case_dir,
            &burst,
            &stream,
            deadline,
        );
        shared.stop.store(true, Ordering::Relaxed);
        (sub, mon.join().expect("monitor thread panicked"))
    });
    let (mut conn, sub) = submitted?;
    let mon = monitored?;

    conn.send_last(&json!({ "cmd": "drain" }))?;
    let done = daemon.reap()?;
    out.op(if done.ok() {
        Ok(())
    } else {
        Err(format!("daemon exited {:?} after drain", done.code))
    });

    // Every request is an operation; a refused one is a failed one.
    out.attempted += (sub.rtt_ms.len() + mon.rtt_ms.len()) as u64;
    for why in sub.refused.iter().chain(&mon.refused) {
        out.failed += 1;
        out.failures.push(why.clone());
    }

    // Every job: ledger says done with the steps asked for; jobs of the
    // same spec leave byte-identical final checkpoints whatever ran
    // beside them (the daemon's arrival-order / share invariance).
    let ledger = read_ledger(&serve_dir.join("ledger.jsonl"))?;
    let mut first_ckpt: HashMap<usize, Vec<u8>> = HashMap::new();
    for job in &sub.jobs {
        let want = kinds[job.kind].max_steps;
        let verdict = match ledger.get(&job.id) {
            None => Err(format!("job {} missing from the ledger", job.id)),
            Some(row)
                if row["state"].as_str() != Some("done") || row["steps"].as_u64() != Some(want) =>
            {
                Err(format!("job {}: {row}", job.id))
            }
            Some(row) => {
                let path = PathBuf::from(row["output"].as_str().unwrap_or(""));
                match std::fs::read(&path) {
                    Err(e) => Err(format!("job {}: no final.ckpt ({e})", job.id)),
                    Ok(bytes) => match first_ckpt.get(&job.kind) {
                        Some(first) if *first != bytes => Err(format!(
                            "job {}: final.ckpt differs from an earlier run of the same spec",
                            job.id
                        )),
                        Some(_) => Ok(()),
                        None => {
                            first_ckpt.insert(job.kind, bytes);
                            Ok(())
                        }
                    },
                }
            }
        };
        out.op(verdict);
    }

    let seen = shared.terminal.lock().expect("monitor map poisoned");
    let since = |job: &Submitted| seen.get(&job.id).map(|&at| (at - job.due).as_secs_f64());
    // Burst makespan: due -> last of its jobs seen terminal. Makespan and
    // CPU are those of the fastest burst (interference only ever adds time).
    let burst_s = sub
        .bursts
        .iter()
        .enumerate()
        .filter_map(|(nth, b)| {
            let jobs = sub.jobs.iter().filter(|j| j.phase == Phase::Burst(nth));
            let end = jobs.filter_map(|j| seen.get(&j.id)).max()?;
            Some((*end - b.due).as_secs_f64())
        })
        .min_by(f64::total_cmp)
        .ok_or("no burst job finished")?;
    let burst_cpu_s = sub
        .bursts
        .iter()
        .map(|b| b.cpu_s)
        .min_by(f64::total_cmp)
        .ok_or("no burst ran")?;
    let streamed: Vec<&Submitted> = sub
        .jobs
        .iter()
        .filter(|j| j.phase == Phase::Stream)
        .collect();
    let turnaround_s: Vec<f64> = streamed.iter().filter_map(|j| since(j)).collect();
    // Uncontended cost of the streamed jobs: each spec's fast-decile
    // turnaround times how often it ran. (The plain sum moved 11-16 % across
    // seeds, and the per-spec medians up to 16 %: one job in five queues
    // behind another, and which ones do is the arrival schedule's doing,
    // not the daemon's; a slow spell of the host does the rest.)
    let mut uncontended_s = 0.0;
    let mut stream_work = 0.0;
    for (k, kind) in kinds.iter().enumerate() {
        let of_kind: Vec<f64> = streamed
            .iter()
            .filter(|j| j.kind == k)
            .filter_map(|j| since(j))
            .collect();
        if !of_kind.is_empty() {
            uncontended_s += stats::percentile(&of_kind, stats::FAST) * of_kind.len() as f64;
            stream_work += kind.work() * of_kind.len() as f64;
        }
    }
    let col = |name: &str| -> Vec<f64> {
        sub.jobs
            .iter()
            .filter_map(|j| ledger.get(&j.id).and_then(|r| r[name].as_f64()))
            .collect()
    };
    let turnaround_ms: Vec<f64> = turnaround_s.iter().map(|t| t * 1e3).collect();

    out.metrics
        .insert("setup_s", stats::percentile(&setups, stats::FAST));
    // Saturated regime: time to finish the fixed burst.
    out.metrics.insert("wall_s", burst_s);
    // Lightly loaded regime: what a streamed job costs its client per unit
    // of work asked for, fixed per-job costs included.
    out.metrics
        .insert("grind_ns", uncontended_s * 1e9 / stream_work);
    out.metrics.insert("peak_rss_mb", done.peak_rss_mb()?);
    // Daemon CPU per burst, not per session: a fixed amount of work, and
    // sampled as often as the makespan is.
    out.metrics.insert("cpu_s", burst_cpu_s);

    out.extras
        .insert("req_p50_ms", stats::percentile(&mon.rtt_ms, 0.50));
    out.extras
        .insert("req_p95_ms", stats::percentile(&mon.rtt_ms, 0.95));
    out.extras
        .insert("burst_jobs_per_min", burst.len() as f64 * 60.0 / burst_s);
    out.extras
        .insert("turnaround_p50_ms", stats::percentile(&turnaround_ms, 0.50));
    out.extras
        .insert("turnaround_p90_ms", stats::percentile(&turnaround_ms, 0.90));
    out.extras
        .insert("turnaround_samples", turnaround_ms.len() as f64);
    out.extras.insert("req_samples", mon.rtt_ms.len() as f64);
    out.extras
        .insert("submit_p50_ms", stats::percentile(&sub.rtt_ms, 0.50));
    out.extras
        .insert("gen_lag_p99_ms", stats::percentile(&sub.lag_ms, 0.99));
    out.extras
        .insert("stream_jobs_per_s", stream_n as f64 / stream_s);
    out.extras.insert("session_cpu_s", done.cpu_s);
    out.extras.insert(
        "ledger_queue_wait_p50_ms",
        stats::percentile(&col("wait_ms"), 0.50),
    );
    out.extras.insert(
        "ledger_queue_wait_p90_ms",
        stats::percentile(&col("wait_ms"), 0.90),
    );
    out.extras.insert(
        "ledger_service_p50_ms",
        stats::percentile(&col("cpu_ms"), 0.50),
    );
    out.extras.insert(
        "ledger_worker_util",
        col("worker_seconds").iter().sum::<f64>() / (2.0 * done.wall_s),
    );
    Ok(out)
}
