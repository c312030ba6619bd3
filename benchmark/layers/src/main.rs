//! `mfc-bench-layers` — the traced run of the repo benchmark.
//!
//! Re-creates a workload's case in-process and times the public functions
//! of each layer (a layer = one module of this repository) from outside:
//! a span around every call, self time = span minus children, plus the
//! exact counts the layers already keep (kernel ledger, message stats, job
//! ledger). Every call into the crates goes through `adapters.rs`.
//!
//! Started by `mfc-bench-e2e --trace 1`, which writes the inputs. The last
//! stdout line is `{"attempted", "failed", "metrics": {name: value}}`; the
//! spans are written as chrome-trace JSON for `mfc-trace-report`.

mod adapters;
#[path = "../../common/host.rs"]
mod host;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use adapters::{Case, LiveSched, Parts, Sim, SpanStats, Spans};
use serde_json::{json, Map, Value};

struct Args {
    workload: String,
    case: PathBuf,
    dist_case: PathBuf,
    job_case: PathBuf,
    mfc_run: PathBuf,
    out: PathBuf,
    trace_out: PathBuf,
    seconds: f64,
    restart_n: usize,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut m: BTreeMap<String, String> = BTreeMap::new();
    let mut quick = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
        } else {
            let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            m.insert(flag, v);
        }
    }
    let get = |k: &str| m.get(k).cloned().ok_or_else(|| format!("missing {k}"));
    Ok(Args {
        workload: get("--workload")?,
        case: get("--case")?.into(),
        dist_case: get("--dist-case")?.into(),
        job_case: get("--job-case")?.into(),
        mfc_run: get("--mfc-run")?.into(),
        out: get("--out")?.into(),
        trace_out: get("--trace-out")?.into(),
        seconds: get("--seconds")?.parse().map_err(|_| "bad --seconds")?,
        restart_n: get("--restart-n")?.parse().map_err(|_| "bad --restart-n")?,
        quick,
    })
}

/// Metrics by name, plus the operations that could fail on their own.
#[derive(Default)]
struct Report {
    metrics: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn op(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            eprintln!("FAILED: {what}: {why}");
        }
    }
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile.
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Call `f` until `budget_s` is used (at least `min`, at most `max` times);
/// returns each call's wall seconds.
fn repeat_for(
    budget_s: f64,
    min: usize,
    max: usize,
    mut f: impl FnMut() -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let clock = Instant::now();
    let mut times = Vec::new();
    while times.len() < min || (times.len() < max && clock.elapsed().as_secs_f64() < budget_s) {
        let t0 = Instant::now();
        f()?;
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok(times)
}

fn span<'a>(
    stats: &'a BTreeMap<&'static str, SpanStats>,
    name: &str,
) -> Result<&'a SpanStats, String> {
    stats
        .get(name)
        .ok_or_else(|| format!("no span named {name} was recorded"))
}

/// `core.solver`, `core.rhs`, `core.state`/`cfl`/`health`/`bc`/`time`, `acc`
/// shares and counts — on the workload's own case, full size.
fn probe_step(
    case: &Case,
    budget_s: f64,
    sp: &Spans,
    peak_gflops: f64,
    triad_gbs: f64,
    r: &mut Report,
) -> Result<f64, String> {
    let cells = case.cells() as f64;
    let stages = case.stages() as f64;

    // The shipped driver, untouched: Solver::new and Solver::step.
    let t0 = Instant::now();
    let mut sim = {
        let _s = sp.span("core.solver.new");
        Sim::new(case)
    };
    r.set("core.solver.init_ms", t0.elapsed().as_secs_f64() * 1e3);
    sim.step()?; // first step grows lazy scratch; not a sample
    let steps = repeat_for(0.5 * budget_s, 2, 4000, || {
        let _s = sp.span("core.solver.step");
        sim.step()
    })?;
    let step_s = median(&steps);
    r.set("core.solver.step_p50_ms", step_s * 1e3);
    r.set("core.solver.step_p90_ms", percentile(&steps, 0.9) * 1e3);

    // Exact counts from the kernel ledger of those steps (+ the warm-up).
    let ledger = sim.ledger();
    let n_steps = (steps.len() + 1) as f64;
    let class = |name: &str| ledger.class_wall_s.get(name).copied().unwrap_or(0.0);
    let kernel_s: f64 = ledger.class_wall_s.values().sum();
    r.set("acc.weno_share", class("WENO") / kernel_s);
    r.set("acc.riemann_share", class("Riemann") / kernel_s);
    r.set("acc.pack_share", class("Pack") / kernel_s);
    r.set("acc.update_share", class("Update") / kernel_s);
    r.set(
        "acc.other_share",
        (class("Other") + class("Halo")) / kernel_s,
    );
    r.set("acc.flops_per_cell_step", ledger.flops / n_steps / cells);
    r.set("acc.bytes_per_cell_step", ledger.bytes / n_steps / cells);
    r.set("acc.launches_per_step", ledger.launches as f64 / n_steps);
    let ai = ledger.flops / ledger.bytes;
    r.set("acc.ai_flop_per_byte", ai);
    // Declared FLOP rate of a step over the roofline bound at the declared
    // intensity, both denominators measured in this process.
    let achieved_gflops = ledger.flops / n_steps / step_s / 1e9;
    r.set(
        "core.rhs.roofline_frac",
        achieved_gflops / peak_gflops.min(ai * triad_gbs),
    );
    drop(sim);

    // The same step assembled from the public pieces, a span around each.
    let mut parts = Parts::new(case);
    {
        let _warm = sp.span("probe.warmup");
        parts.step(&Spans::new())?;
    }
    let before = sp.events();
    let probe_steps = repeat_for(0.5 * budget_s, 2, 4000, || parts.step(sp))?;
    let events_per_step = (sp.events() - before) as f64 / probe_steps.len() as f64;
    let stats = sp.stats()?;
    let n = probe_steps.len() as f64;
    let per_step = |name: &str| span(&stats, name).map(|s| s.total_s() / n);
    let self_per_step = |name: &str| span(&stats, name).map(|s| s.self_s / n);
    let rhs_s = per_step("core.rhs.compute_rhs")?;
    let bc_s = per_step("core.bc.apply_bcs")?;
    let dt_s = per_step("core.cfl.dt_select")?;
    let scan_s = per_step("core.health.scan_and_convert")?;
    let combine_s = self_per_step("core.time.rk_step")?;
    r.set("core.rhs.eval_ms", rhs_s / stages * 1e3);
    r.set("core.rhs.share", rhs_s / step_s);
    r.set("core.bc.apply_us", bc_s / stages * 1e6);
    r.set(
        "core.state.c2p_ns_cell",
        per_step("core.state.cons_to_prim")? * 1e9 / cells,
    );
    r.set(
        "core.cfl.dt_ns_cell",
        per_step("core.cfl.max_dt")? * 1e9 / cells,
    );
    r.set("core.health.scan_ns_cell", scan_s * 1e9 / cells);
    r.set(
        "core.time.rk_combine_ns_cell",
        combine_s * 1e9 / cells / stages,
    );
    // What Solver::step spends outside the pieces it is documented to be
    // made of (its q^n snapshot, recovery bookkeeping, span guards).
    r.set(
        "core.solver.unattributed_frac",
        1.0 - (dt_s + rhs_s + bc_s + combine_s + scan_s) / step_s,
    );

    // What recording the spans themselves costs a probe step.
    let empty = Spans::new();
    let t0 = Instant::now();
    for _ in 0..20_000 {
        drop(empty.span("probe.empty"));
    }
    let span_s = t0.elapsed().as_secs_f64() / 20_000.0;
    r.set(
        "bench.span_overhead_frac",
        events_per_step / 2.0 * span_s / median(&probe_steps),
    );
    Ok(step_s)
}

/// Step-time ratios between solver variants, single steps interleaved so
/// neighbours share the host's mood: staged/fused, 1 vs 2 workers, lane
/// width 1 vs 4 — and the program's own tracing on vs off. Medians of the
/// interleaved wall times (`/proc/thread-self/schedstat`, the thread-CPU
/// clock `bench_snapshot` uses, only moves at scheduler ticks: useless for
/// millisecond steps). On the case capped at `cap` cells per axis.
fn probe_variants(case: &Case, cap: usize, budget_s: f64, r: &mut Report) -> Result<(), String> {
    let small = case.capped(cap)?;
    let tracer = adapters::new_tracer();
    let mut sims = [
        Sim::new(&small),
        Sim::new(&small.staged()),
        Sim::new(&small.with_workers(2)),
        Sim::new(&small.with_vector_width(1)),
        Sim::new_traced(&small, &tracer),
    ];
    for s in sims.iter_mut() {
        s.step()?;
    }
    let mut wall: [Vec<f64>; 5] = Default::default();
    let warm_events = adapters::tracer_events(&tracer);
    let rounds = repeat_for(budget_s, 3, 400, || {
        for (i, s) in sims.iter_mut().enumerate() {
            let t0 = Instant::now();
            s.step()?;
            wall[i].push(t0.elapsed().as_secs_f64());
        }
        Ok(())
    })?;
    let base = median(&wall[0]);
    r.set("core.rhs.staged_ratio", median(&wall[1]) / base);
    r.set("acc.w2_speedup", base / median(&wall[2]));
    r.set("acc.lanes_speedup", median(&wall[3]) / base);
    r.set("trace.overhead_frac", median(&wall[4]) / base - 1.0);
    r.set(
        "trace.events_per_step",
        (adapters::tracer_events(&tracer) - warm_events) as f64 / rounds.len() as f64,
    );
    Ok(())
}

/// `core.par` + `mpsim` + `core.restart` on the 2-rank case of dist3d_r2.
fn probe_distributed(dist: &Case, args: &Args, r: &mut Report) -> Result<(), String> {
    let steps = if args.quick { 4 } else { 10 };
    let every = steps as u64 / 2;
    let waves = 2.0;
    let ckpt = args.out.join("probe_ckpt");
    let (mut plain, mut over, mut res_off, mut res_on, mut single) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut stats = None;
    for _ in 0..if args.quick { 1 } else { 2 } {
        let p = adapters::dist_plain(dist, steps, false)?;
        plain.push(p.wall_s);
        stats = Some(p);
        over.push(adapters::dist_plain(dist, steps, true)?.wall_s);
        res_off.push(adapters::dist_resilient(dist, steps, &ckpt, 0)?.wall_s);
        res_on.push(adapters::dist_resilient(dist, steps, &ckpt, every)?.wall_s);
        single.push(adapters::single_run_s(dist, steps));
    }
    let stats = stats.expect("at least one round ran");
    let plain_s = median(&plain);
    r.set("core.par.step_r2_ms", plain_s / steps as f64 * 1e3);
    r.set("core.par.overlap_ratio", median(&over) / plain_s);
    r.set("core.par.resilient_ratio", median(&res_off) / plain_s);
    r.set("core.par.par_eff_r2", median(&single) / (2.0 * plain_s));
    r.set(
        "core.par.msgs_per_step",
        stats.messages as f64 / steps as f64,
    );
    r.set(
        "core.par.halo_bytes_per_step",
        stats.bytes as f64 / steps as f64,
    );
    r.set(
        "core.par.ckpt_wave_ms",
        (median(&res_on) - median(&res_off)) / waves * 1e3,
    );
    // The waves the resilient driver left behind must load with a good CRC.
    let mut loaded = 0;
    for entry in std::fs::read_dir(&ckpt)
        .map_err(|e| e.to_string())?
        .flatten()
    {
        if entry.path().extension().is_some_and(|e| e == "bin") {
            r.op(
                "checkpoint CRC load",
                adapters::checkpoint_loads(&entry.path()),
            );
            loaded += 1;
        }
    }
    r.op(
        "checkpoint waves on disk",
        if loaded >= 2 {
            Ok(())
        } else {
            Err(format!("{loaded} files"))
        },
    );

    // Ping-pong at this decomposition's halo size, and the per-step
    // collective (dt and health verdict are allreduce-min).
    let d = dist.dims();
    let halo = d[1] * d[2] * dist.ghost_layers() * dist.neq();
    let reps = if args.quick { 50 } else { 400 };
    r.set("mpsim.sendrecv_us", adapters::sendrecv_s(halo, reps) * 1e6);
    r.set("mpsim.allreduce_us", adapters::allreduce_s(reps * 5) * 1e6);

    let (save, load, _mb) =
        adapters::restart_round_trip(args.restart_n, &args.out.join("probe_restart.bin"))?;
    r.set("core.restart.save_mb_s", save);
    r.set("core.restart.load_mb_s", load);
    Ok(())
}

/// Greedy longest-processing-time makespan of `times` on `slots` machines.
fn lpt_makespan(times: &[f64], slots: usize) -> f64 {
    let mut t = times.to_vec();
    t.sort_by(|a, b| b.total_cmp(a));
    let mut load = vec![0.0f64; slots.max(1)];
    for x in t {
        let i = (0..load.len())
            .min_by(|&a, &b| load[a].total_cmp(&load[b]))
            .expect("slots >= 1");
        load[i] += x;
    }
    load.into_iter().fold(0.0, f64::max)
}

fn round_trip(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    line: &str,
) -> Result<f64, String> {
    let t0 = Instant::now();
    writer
        .write_all(line.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut reply = String::new();
    reader.read_line(&mut reply).map_err(|e| e.to_string())?;
    if !reply.contains("\"ok\":true") {
        return Err(format!("refused: {reply}"));
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// `cli`, `sched`, `sched.protocol`, `sched.server`.
fn probe_serving(args: &Args, r: &mut Report) -> Result<(), String> {
    // cli: admission in-process, and the whole `mfc-run --dry-run` process.
    let reps = if args.quick { 20 } else { 200 };
    let parse = repeat_for(f64::INFINITY, reps, reps, || {
        adapters::parse_validate(&args.case)
    })?;
    r.set("cli.parse_validate_us", median(&parse) * 1e6);
    let startup = repeat_for(f64::INFINITY, 20, 20, || {
        let status = std::process::Command::new(&args.mfc_run)
            .arg(&args.case)
            .arg("--dry-run")
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("cannot run mfc-run: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("mfc-run --dry-run: {status}"))
        }
    })?;
    r.set("cli.startup_ms", median(&startup) * 1e3);

    // sched: pool arithmetic.
    let caps = [usize::MAX, 2, usize::MAX, 1, 4, usize::MAX, 3, usize::MAX];
    let t0 = Instant::now();
    for _ in 0..100_000 {
        std::hint::black_box(adapters::partition(std::hint::black_box(8), &caps));
    }
    r.set(
        "sched.partition_ns",
        t0.elapsed().as_secs_f64() * 1e9 / 100_000.0,
    );

    // sched: a fixed 8-job manifest on 2 workers against the LPT bound
    // built from each job's own solo service time.
    let div = if args.quick { 4 } else { 1 };
    let manifest: Vec<u64> = [180u64, 160, 140, 120, 100, 80, 60, 40]
        .iter()
        .map(|s| s / div)
        .collect();
    let mut solo = Vec::new();
    for (i, &steps) in manifest.iter().enumerate() {
        let (_, rows) = adapters::run_manifest(
            &args.job_case,
            &[steps],
            1,
            &args.out.join(format!("probe_solo{i}")),
        )?;
        solo.push(rows[0].service_ms * 1e-3);
    }
    let (makespan_s, rows) = adapters::run_manifest(
        &args.job_case,
        &manifest,
        2,
        &args.out.join("probe_manifest"),
    )?;
    r.op(
        "manifest jobs done",
        if rows.iter().all(|j| j.done) {
            Ok(())
        } else {
            Err("a job did not finish".into())
        },
    );
    let waits: Vec<f64> = rows.iter().map(|j| j.wait_ms).collect();
    let service: Vec<f64> = rows.iter().map(|j| j.service_ms).collect();
    r.set("sched.lpt_ratio", makespan_s / lpt_makespan(&solo, 2));
    r.set("sched.queue_wait_p50_ms", percentile(&waits, 0.5));
    r.set("sched.queue_wait_p90_ms", percentile(&waits, 0.9));
    r.set("sched.service_p50_ms", percentile(&service, 0.5));
    r.set(
        "sched.worker_util",
        rows.iter().map(|j| j.worker_seconds).sum::<f64>() / (2.0 * makespan_s),
    );

    // sched + protocol + server: a live loop, first in-process, then the
    // same frames over a real socket to the same (now idle) loop.
    let mut live = LiveSched::start(2, 64, args.out.join("probe_live"));
    let n_jobs = if args.quick { 8 } else { 40 };
    let mut submit = Vec::new();
    for i in 0..n_jobs {
        let t0 = Instant::now();
        live.submit(&args.job_case, format!("s{i}"), 2)?;
        submit.push(t0.elapsed().as_secs_f64());
    }
    r.set("sched.submit_us", median(&submit) * 1e6);
    let deadline = Instant::now() + Duration::from_secs(60);
    while live.done()? < n_jobs as u64 {
        if Instant::now() > deadline {
            return Err("probe jobs did not finish".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let frames = [
        r#"{"cmd":"status"}"#,
        r#"{"cmd":"status","id":3}"#,
        r#"{"cmd":"metrics"}"#,
        r#"{"cmd":"ping"}"#,
    ];
    let t0 = Instant::now();
    let mut parsed = 0usize;
    for _ in 0..20_000 {
        for f in frames {
            parsed += usize::from(adapters::parses(std::hint::black_box(f)));
        }
    }
    r.set(
        "sched.protocol.parse_ns",
        t0.elapsed().as_secs_f64() * 1e9 / 80_000.0,
    );
    r.op(
        "protocol frames parse",
        if parsed == 80_000 {
            Ok(())
        } else {
            Err(format!("{parsed}/80000"))
        },
    );
    let handle = repeat_for(f64::INFINITY, 400, 400, || {
        let reply = live.handle_line(frames[0]);
        if reply.contains("\"ok\":true") {
            Ok(())
        } else {
            Err(reply)
        }
    })?;
    r.set("sched.server.handle_line_us", median(&handle) * 1e6);

    let addr = live.listen()?;
    let connects = repeat_for(f64::INFINITY, 20, 20, || {
        TcpStream::connect(addr)
            .map(|_| ())
            .map_err(|e| e.to_string())
    })?;
    r.set("sched.server.connect_us", median(&connects) * 1e6);
    let mut writer = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
    let n_rtt = if args.quick { 5 } else { 25 };
    let (mut ping, mut status) = (vec![], vec![]);
    for _ in 0..n_rtt {
        ping.push(round_trip(
            &mut reader,
            &mut writer,
            "{\"cmd\":\"ping\"}\n",
        )?);
        status.push(round_trip(
            &mut reader,
            &mut writer,
            "{\"cmd\":\"status\"}\n",
        )?);
    }
    r.set("sched.server.rtt_ping_p50_us", median(&ping) * 1e6);
    r.set("sched.server.rtt_status_p50_us", median(&status) * 1e6);
    drop((reader, writer));
    let rows = live.finish()?;
    r.op(
        "live jobs done",
        if rows.len() == n_jobs && rows.iter().all(|j| j.done) {
            Ok(())
        } else {
            Err("a job did not finish".into())
        },
    );
    Ok(())
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
    let mut r = Report::default();
    let sp = Spans::new();

    // Roofline denominators first, in this process, before anything heats up.
    let (triad, peak) = {
        let _s = sp.span("host.calibrate");
        (host::triad_gbs(), host::peak_gflops())
    };
    eprintln!("[layers] host: {}", host::fingerprint(triad, peak));
    r.set("host.triad_gbs", triad);
    r.set("host.peak_gflops", peak);
    // Empty launches: what a kernel launch costs before it does any work.
    r.set(
        "acc.launch_overhead_us",
        adapters::empty_launch_s(1, 200_000) * 1e6,
    );
    r.set(
        "acc.launch_overhead_w2_us",
        adapters::empty_launch_s(2, 2_000) * 1e6,
    );

    let case = Case::load(&args.case)?;
    let dist = Case::load(&args.dist_case)?;
    let t = args.seconds;
    eprintln!(
        "[layers] {}: {:?} cells x {} eq, {} s budget",
        args.workload,
        case.dims(),
        case.neq(),
        t
    );
    let step_s = {
        let _s = sp.span("probe.step_breakdown");
        probe_step(&case, 0.40 * t, &sp, peak, triad, &mut r)?
    };
    {
        let _s = sp.span("probe.variants");
        probe_variants(&case, if args.quick { 16 } else { 48 }, 0.20 * t, &mut r)?;
    }
    {
        let _s = sp.span("probe.distributed");
        probe_distributed(&dist, &args, &mut r)?;
    }
    {
        let _s = sp.span("probe.serving");
        probe_serving(&args, &mut r)?;
    }
    sp.write_chrome(&args.trace_out)?;
    eprintln!(
        "[layers] step {:.3} ms; spans written to {}",
        step_s * 1e3,
        args.trace_out.display()
    );

    let mut metrics = Map::new();
    for (k, v) in &r.metrics {
        metrics.insert(*k, json!(*v));
    }
    println!(
        "{}",
        json!({ "attempted": r.attempted, "failed": r.failed, "metrics": Value::Object(metrics) })
    );
    Ok(())
}

fn main() -> std::process::ExitCode {
    match real_main() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("error: {why}");
            std::process::ExitCode::from(2)
        }
    }
}
