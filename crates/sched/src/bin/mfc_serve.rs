//! `mfc-serve` — run a job ensemble on a shared elastic worker budget
//! and emit a JSONL results ledger.
//!
//! Two modes share one scheduler loop: **manifest mode** (`--jobs`)
//! replays a fixed job list and exits when it drains; **daemon mode**
//! (`--listen`) accepts jobs over TCP while the ensemble runs and exits
//! only after a `drain` or `shutdown` command.

use std::path::PathBuf;
use std::sync::Arc;

use mfc_sched::{write_ledger, JobSpec, JobState, SchedClient, SchedConfig, Scheduler, Server};
use mfc_trace::Out;
use serde::Deserialize;

const USAGE: &str = "usage: mfc-serve (--jobs manifest.json | --listen ADDR) [--budget W] \
[--queue-cap N] [--out-dir DIR] [--ledger PATH] [--trace PATH]";

const HELP: &str = "\
mfc-serve — deterministic ensemble scheduler for MFC case files

usage: mfc-serve (--jobs manifest.json | --listen ADDR) [flags]

Manifest mode runs a fixed job list and exits when it drains. The
manifest lists jobs (case path + overrides) and optionally the
scheduler knobs; command-line flags override the manifest:

  { \"budget\": 4, \"queue_cap\": 16, \"out_dir\": \"out/serve\",
    \"jobs\": [
      { \"case\": \"cases/sod.json\", \"priority\": 2, \"workers\": 2 },
      { \"case\": \"cases/sod.json\", \"name\": \"lowprio\", \"max_steps\": 40 } ] }

Daemon mode (--listen 127.0.0.1:PORT; port 0 picks one) serves a
line-delimited JSON protocol over TCP — one request object per line,
one response line each:

  {\"cmd\":\"submit\",\"job\":{\"case\":\"cases/sod.json\",\"max_steps\":20}}
  {\"cmd\":\"status\"}          {\"cmd\":\"status\",\"id\":0}
  {\"cmd\":\"cancel\",\"id\":0}   {\"cmd\":\"metrics\"}
  {\"cmd\":\"drain\"}           {\"cmd\":\"shutdown\"}     {\"cmd\":\"ping\"}

Submissions stream into the running ensemble and repartition the pool
like any departure; `drain` closes admission and lets queued/running
jobs finish; `shutdown` also cancels them cooperatively at step
boundaries. Either way the ledger is flushed and the process exits 0.
A manifest given alongside --listen is pre-submitted at startup. The
bound address is printed as `listening on HOST:PORT`.

Each job is admitted by the checker `mfc-run` itself enters through (see
`mfc-run --help`, \"admission\": what `mfc-run --dry-run` refuses is
refused here, with the same message) and carries that verdict to its
worker thread — the recovery keys included: run.recovery / run.max_retries
arm the job's solver as they do under `mfc-run`. The scheduler adds two
refusals of its own — run.ranks > 1 and checkpointed / fault-plan runs
belong to `mfc-run`. A refused job rejects the manifest before anything
runs, and a rejected TCP submission is a typed error response on the same
connection. Running jobs share the worker budget elastically — shares are
re-partitioned whenever a job arrives or finishes, applied only at step
boundaries, and results stay bitwise identical to a standalone run at any
share sequence. One job's failure (or injected fault, or panic) marks only
that job Failed; siblings complete undisturbed.

flags:
  --help           print this help and exit
  --jobs PATH      ensemble manifest (required unless --listen is given)
  --listen ADDR    daemon mode: accept TCP clients on ADDR
  --budget W       global worker budget shared by running jobs
  --queue-cap N    bounded admission-queue capacity
  --out-dir DIR    per-job artifacts under DIR/<id>_<name>/
  --ledger PATH    JSONL results ledger (default DIR/ledger.jsonl)
  --trace PATH     chrome-trace JSON of the whole ensemble: scheduler
                   counters (queue_depth, running_jobs, busy_workers)
                   and client connect/disconnect instants on timeline 0,
                   one timeline per job with its `job` span and kernel
                   events; summarize with mfc-trace-report

exit codes:
  0  the ensemble ran to completion / the daemon drained or shut down
     (per-job outcomes are in the ledger)
  2  usage error, bad manifest, or a job rejected at admission
  3  I/O failure: unwritable --out-dir/--ledger (checked at startup),
     bind failure, or a ledger/trace write error
";

#[derive(Deserialize)]
#[serde(deny_unknown_fields)]
struct Manifest {
    #[serde(default)]
    budget: Option<usize>,
    #[serde(default)]
    queue_cap: Option<usize>,
    #[serde(default)]
    aging_rounds: Option<u64>,
    #[serde(default)]
    out_dir: Option<PathBuf>,
    jobs: Vec<JobSpec>,
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2)
}

fn die_io(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(3)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut jobs_path: Option<PathBuf> = None;
    let mut listen: Option<String> = None;
    let mut budget: Option<usize> = None;
    let mut queue_cap: Option<usize> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut ledger: Option<PathBuf> = None;
    let mut trace: Option<PathBuf> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                write!(Out, "{HELP}");
                return;
            }
            "--jobs" => match it.next() {
                Some(v) => jobs_path = Some(v.into()),
                None => die("--jobs needs a manifest path"),
            },
            "--listen" => match it.next() {
                Some(v) => listen = Some(v.clone()),
                None => die("--listen needs an address (e.g. 127.0.0.1:0)"),
            },
            "--budget" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => budget = Some(n),
                _ => die("--budget needs a positive worker count"),
            },
            "--queue-cap" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => queue_cap = Some(n),
                _ => die("--queue-cap needs a positive queue capacity"),
            },
            "--out-dir" => match it.next() {
                Some(v) => out_dir = Some(v.into()),
                None => die("--out-dir needs a directory"),
            },
            "--ledger" => match it.next() {
                Some(v) => ledger = Some(v.into()),
                None => die("--ledger needs an output path"),
            },
            "--trace" => match it.next() {
                Some(v) => trace = Some(v.into()),
                None => die("--trace needs an output path"),
            },
            other => die(&format!("unknown argument {other}")),
        }
    }
    if jobs_path.is_none() && listen.is_none() {
        die("--jobs manifest.json or --listen ADDR is required");
    }
    let manifest: Option<Manifest> = jobs_path.as_ref().map(|path| {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => die_io(&format!("cannot read {}: {e}", path.display())),
        };
        match serde_json::from_str(&text) {
            Ok(m) => m,
            Err(e) => die(&format!("bad manifest: {e}")),
        }
    });
    let manifest_jobs = manifest.as_ref().map(|m| m.jobs.len()).unwrap_or(0);
    if listen.is_none() && manifest_jobs == 0 {
        die("manifest lists no jobs");
    }

    let defaults = SchedConfig::default();
    let cfg = SchedConfig {
        budget: budget
            .or(manifest.as_ref().and_then(|m| m.budget))
            .unwrap_or(defaults.budget),
        queue_cap: queue_cap
            .or(manifest.as_ref().and_then(|m| m.queue_cap))
            .unwrap_or_else(|| manifest_jobs.max(defaults.queue_cap)),
        aging_rounds: manifest
            .as_ref()
            .and_then(|m| m.aging_rounds)
            .unwrap_or(defaults.aging_rounds),
        out_dir: out_dir
            .or(manifest.as_ref().and_then(|m| m.out_dir.clone()))
            .unwrap_or(defaults.out_dir),
    };
    let ledger_path = ledger.unwrap_or_else(|| cfg.out_dir.join("ledger.jsonl"));

    // Fail unwritable artifact paths *now* — a daemon must not accept
    // and run jobs for hours only to lose their records at the first
    // ledger flush (typed I/O error, exit 3).
    if let Err(e) = mfc_cli::ensure_writable_dir(&cfg.out_dir) {
        die_io(&e.to_string());
    }
    if let Some(parent) = ledger_path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Err(e) = mfc_cli::ensure_writable_dir(parent) {
            die_io(&e.to_string());
        }
    }
    if let Err(e) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&ledger_path)
    {
        die_io(&format!(
            "cannot open ledger {}: {e}",
            ledger_path.display()
        ));
    }

    writeln!(
        Out,
        "serving {} job(s) on a budget of {} worker(s), queue cap {}",
        manifest_jobs, cfg.budget, cfg.queue_cap
    );

    let tracer = trace.as_ref().map(|_| Arc::new(mfc_trace::Tracer::new()));
    let mut sched = Scheduler::new(cfg.clone());
    if let Some(t) = &tracer {
        sched = sched.with_tracer(Arc::clone(t));
    }
    if let Some(m) = manifest {
        for spec in m.jobs {
            if let Err(e) = sched.submit(spec) {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    let records = match &listen {
        None => sched.run(),
        Some(addr) => {
            let (client, events) = SchedClient::pair();
            let tl = tracer.as_ref().map(|t| t.handle(0));
            let mut server = match Server::bind(addr, client.clone(), tl) {
                Ok(s) => s,
                Err(e) => die_io(&format!("cannot listen on {addr}: {e}")),
            };
            writeln!(Out, "listening on {}", server.addr());
            let records = sched.serve(&client, events);
            server.stop();
            records
        }
    };

    if let Err(e) = write_ledger(&ledger_path, &records) {
        eprintln!("error: ledger write failed: {e}");
        std::process::exit(3);
    }
    if let (Some(path), Some(t)) = (&trace, &tracer) {
        if let Err(e) = mfc_trace::chrome::write_file(path, &t.snapshot()) {
            eprintln!("error: trace write failed: {e}");
            std::process::exit(3);
        }
    }

    writeln!(
        Out,
        "{:>3} {:<20} {:>9} {:>7} {:>9} {:>9} {:>10} {:>6} {:>7}",
        "id", "job", "state", "steps", "wall_ms", "cpu_ms", "worker_s", "share", "resizes"
    );
    for r in &records {
        writeln!(
            Out,
            "{:>3} {:<20} {:>9} {:>7} {:>9.1} {:>9.1} {:>10.3} {:>6} {:>7}{}",
            r.id,
            r.job,
            format!("{:?}", r.state).to_lowercase(),
            r.steps,
            r.wall_ms,
            r.cpu_ms,
            r.worker_seconds,
            r.final_share,
            r.resizes,
            r.reason
                .as_deref()
                .map(|m| format!("  ({m})"))
                .unwrap_or_default()
        );
    }
    let done = records.iter().filter(|r| r.state == JobState::Done).count();
    writeln!(
        Out,
        "wrote {} ({done}/{} done)",
        ledger_path.display(),
        records.len()
    );
    if let Some(p) = &trace {
        writeln!(Out, "wrote trace {}", p.display());
    }
}
