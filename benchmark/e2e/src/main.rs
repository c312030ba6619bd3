//! `mfc-bench-e2e` — the repo benchmark's end-to-end program.
//!
//! Links no crate of the repository: it writes case files, runs the shipped
//! `mfc-run` / `mfc-serve` binaries through their user surface, times them
//! from outside with tracing off, and checks what they wrote. Started by
//! `benchmark/run.sh`, which builds everything first.
//!
//! Two ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload; the last stdout line is the result object of the PR
//!   driver's contract (`--trace 1` hands over to the per-layer probe).
//! * no `--workload` — every workload, `--repeats` runs each, a table of
//!   median / quartiles / n per metric and a result file with the host
//!   fingerprint; `--layers`, `--quick`, `--aa`, `--compare A B`.

mod check;
mod child;
mod cli_workloads;
mod gen;
#[path = "../../common/host.rs"]
mod host;
mod report;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use serde_json::{json, Map, Value};

use cli_workloads::Kind;
use report::{Samples, Spec};

/// Everything one run of one workload needs.
pub struct Ctx {
    /// Directory holding `mfc-run`, `mfc-serve` and `mfc-bench-layers`.
    pub bin_dir: PathBuf,
    /// Scratch directory of this (seed, workload): inputs and outputs.
    pub out: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub sizes: gen::Sizes,
    pub quick: bool,
}

/// What one run measured. An *operation* is anything that can fail on its
/// own: a process run, an output check, a request, a job.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Reported and stored, never gated.
    pub extras: BTreeMap<&'static str, f64>,
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.failures.push(why);
        }
    }
}

const OUT_ROOT: &str = "benchmark/out";
const USAGE: &str =
    "usage: benchmark/run.sh [--seed N] [--repeats R] [--seconds S] [--layers] [--quick] [--aa]
       benchmark/run.sh --compare A.json B.json
       benchmark/run.sh --workload W --seed N --seconds S --trace 0|1";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeats: usize,
    layers: bool,
    quick: bool,
    aa: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        repeats: 0,
        layers: false,
        quick: false,
        aa: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(value(&mut it, &flag)?),
            "--seed" => a.seed = value(&mut it, &flag)?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                a.seconds = Some(
                    value(&mut it, &flag)?
                        .parse()
                        .map_err(|_| "bad --seconds")?,
                )
            }
            "--trace" => a.trace = value(&mut it, &flag)? == "1",
            "--repeats" => {
                a.repeats = value(&mut it, &flag)?
                    .parse()
                    .map_err(|_| "bad --repeats")?
            }
            "--layers" => a.layers = true,
            "--quick" => a.quick = true,
            "--aa" => a.aa = true,
            "--compare" => {
                a.compare = Some((value(&mut it, &flag)?.into(), value(&mut it, &flag)?.into()))
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if a.repeats == 0 {
        // Not given: three runs per workload, one for a smoke test.
        a.repeats = if a.quick { 1 } else { 3 };
    }
    Ok(a)
}

fn ctx_for(args: &Args, spec: &Spec, workload: &str) -> Result<Ctx, String> {
    let bin_dir = bin_dir()?;
    let out = Path::new(OUT_ROOT)
        .join(args.seed.to_string())
        .join(workload);
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    Ok(Ctx {
        bin_dir,
        out,
        seed: args.seed,
        seconds: args
            .seconds
            .unwrap_or(if args.quick { 2.0 } else { spec.run_seconds }),
        sizes: if args.quick {
            gen::Sizes::QUICK
        } else {
            gen::Sizes::FULL
        },
        quick: args.quick,
    })
}

fn cli_kind(workload: &str) -> Option<Kind> {
    match workload {
        "grind3d" => Some(Kind::Grind3d),
        "sod1d" => Some(Kind::Sod1d),
        "dist3d_r2" => Some(Kind::Dist3dR2),
        _ => None,
    }
}

/// One untraced end-to-end run.
fn run_end_to_end(ctx: &Ctx, workload: &str) -> Result<Outcome, String> {
    match cli_kind(workload) {
        Some(kind) => cli_workloads::run(ctx, kind),
        None if workload == "serve_stream" => serve::run(ctx),
        None => Err(format!("unknown workload '{workload}'")),
    }
}

fn bin_dir() -> Result<PathBuf, String> {
    std::env::var_os("MFC_BENCH_BIN_DIR")
        .map(PathBuf::from)
        .ok_or_else(|| {
            "MFC_BENCH_BIN_DIR is not set (start this program through benchmark/run.sh)".into()
        })
}

/// The per-layer probe, or why there is none: `run.sh` keeps the
/// compiler's output when `benchmark/layers` does not build.
fn probe_binary() -> Result<PathBuf, String> {
    let probe = bin_dir()?.join("mfc-bench-layers");
    if probe.exists() {
        return Ok(probe);
    }
    let log =
        std::fs::read_to_string(Path::new(OUT_ROOT).join("layers_build.log")).unwrap_or_default();
    let first = log
        .lines()
        .find(|l| l.starts_with("error"))
        .unwrap_or("benchmark/layers did not build (no compiler output kept)");
    Err(format!("per-layer probe unavailable: {first}"))
}

/// One traced run: write the inputs the probe re-creates the workload
/// from, then hand over to `mfc-bench-layers`, which links the crates and
/// times their public functions. Returns its result object.
fn run_layers(ctx: &Ctx, workload: &str) -> Result<Value, String> {
    let probe = probe_binary()?;
    let scratch = ctx.out.join("probe_out").to_string_lossy().into_owned();
    let write = |name: &str, case: Value| -> Result<String, String> {
        let path = ctx.out.join(name);
        std::fs::write(&path, case.to_string()).map_err(|e| e.to_string())?;
        Ok(path.to_string_lossy().into_owned())
    };
    // The workload's own case (for serve_stream: its 1-D job), the 2-rank
    // case of dist3d_r2 for the exchange probes, and a small job for the
    // scheduler and daemon probes — all from this seed.
    let s = &ctx.sizes;
    let mut rng = gen::Rng::new(ctx.seed, 20);
    let job = gen::sod_case(
        "job",
        s.serve_job_cells_1d,
        60,
        rng.range(0.45, 0.55),
        &scratch,
        false,
    );
    let own = match cli_kind(workload) {
        Some(kind) => {
            cli_workloads::case_json(ctx, kind, cli_workloads::full_steps(ctx, kind), &scratch)
        }
        None => job.clone(),
    };
    let dist = cli_workloads::case_json(
        ctx,
        Kind::Dist3dR2,
        cli_workloads::full_steps(ctx, Kind::Dist3dR2),
        &scratch,
    );
    let case = write("probe_case.json", own)?;
    let dist = write("probe_dist.json", dist)?;
    let job = write("probe_job.json", job)?;
    let stdout_path = ctx.out.join("probe_stdout.txt");
    let seconds = ctx.seconds.to_string();
    let restart_n = s.grind_n.to_string();
    let mfc_run = ctx.bin_dir.join("mfc-run").to_string_lossy().into_owned();
    let out_dir = ctx.out.to_string_lossy().into_owned();
    let trace_out = format!("{OUT_ROOT}/trace_{workload}.json");
    let mut argv = vec![
        "--workload",
        workload,
        "--case",
        &case,
        "--dist-case",
        &dist,
        "--job-case",
        &job,
        "--seconds",
        &seconds,
        "--restart-n",
        &restart_n,
        "--mfc-run",
        &mfc_run,
        "--out",
        &out_dir,
        "--trace-out",
        &trace_out,
    ];
    if ctx.quick {
        argv.push("--quick");
    }
    let done = child::run(&probe, &argv, &stdout_path)
        .map_err(|e| format!("cannot run the probe: {e}"))?;
    if !done.ok() {
        return Err(format!("mfc-bench-layers exited {:?}", done.code));
    }
    let last = done
        .stdout
        .lines()
        .last()
        .ok_or("the probe printed nothing")?;
    serde_json::from_str(last).map_err(|e| format!("bad probe result: {e}"))
}

fn owned(map: &BTreeMap<&'static str, f64>) -> BTreeMap<String, f64> {
    map.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

/// `--workload W`: one run. Stdout ends with the run's extras (untraced
/// runs only) and then, as the last line, the contract's result object.
fn contract_mode(args: &Args, spec: &Spec, workload: &str) -> Result<(), String> {
    if !spec.workloads.iter().any(|w| w == workload) {
        return Err(format!(
            "unknown workload '{workload}' (BENCHMARK.json lists {:?})",
            spec.workloads
        ));
    }
    let ctx = ctx_for(args, spec, workload)?;
    let (attempted, failed, metrics) = if args.trace {
        let result = run_layers(&ctx, workload)?;
        let values: BTreeMap<String, f64> = values_of(&result["metrics"]).into_iter().collect();
        let attempted = result["attempted"].as_u64().unwrap_or(0).max(1);
        let failed = result["failed"].as_u64().unwrap_or(attempted);
        (
            attempted,
            failed,
            report::metrics_object(&spec.per_layer, &values)?,
        )
    } else {
        let out = run_end_to_end(&ctx, workload)?;
        for why in &out.failures {
            eprintln!("FAILED: {why}");
        }
        println!("{}", json!({ "extras": owned(&out.extras) }));
        let metrics = report::metrics_object(&spec.end_to_end, &owned(&out.metrics))?;
        (out.attempted.max(1), out.failed, metrics)
    };
    println!(
        "{}",
        json!({ "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics })
    );
    Ok(())
}

/// One run of one workload in a fresh process of this program — exactly
/// what the PR driver starts, and the only way a run's children report
/// their own peak RSS rather than this process's (see `child::Finished`).
/// Returns the contract's result object and the extras object.
fn one_run(args: &Args, workload: &str, trace: bool) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    if !out.status.success() {
        return Err(format!("the {workload} run ended with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines().rev();
    let result: Value = serde_json::from_str(lines.next().ok_or("the run printed nothing")?)
        .map_err(|e| format!("bad result object: {e}"))?;
    let extras = lines
        .next()
        .and_then(|l| serde_json::from_str::<Value>(l).ok())
        .map_or(Value::Null, |v| v["extras"].clone());
    Ok((result, extras))
}

/// `{name: {"value": v, ..}}` or `{name: v}` as (name, v) pairs.
fn values_of(obj: &Value) -> Vec<(String, f64)> {
    obj.as_object().map_or_else(Vec::new, |m| {
        m.iter()
            .filter_map(|(k, v)| v.as_f64().or(v["value"].as_f64()).map(|f| (k.clone(), f)))
            .collect()
    })
}

/// Samples of one workload over the runs of one set.
#[derive(Default)]
struct WorkloadRuns {
    attempted: u64,
    failed: u64,
    end_to_end: Samples,
    extras: Samples,
    per_layer: Option<Result<Samples, String>>,
}

impl WorkloadRuns {
    fn add(&mut self, result: &Value, extras: &Value) {
        self.attempted += result["attempted"].as_u64().unwrap_or(0);
        self.failed += result["failed"].as_u64().unwrap_or(0);
        self.end_to_end.push(values_of(&result["metrics"]));
        self.extras.push(values_of(extras));
    }

    fn to_json(&self, spec: &Spec) -> Value {
        json!({
            "attempted": self.attempted,
            "failed": self.failed,
            "fail_frac": self.failed as f64 / self.attempted.max(1) as f64,
            "end_to_end": self.end_to_end.to_json(&spec.end_to_end),
            "extras": self.extras.to_json(&[]),
            "per_layer": match &self.per_layer {
                None => Value::Null,
                Some(Err(why)) => Value::String(why.clone()),
                Some(Ok(samples)) => samples.to_json(&spec.per_layer),
            }
        })
    }
}

fn result_file(
    args: &Args,
    spec: &Spec,
    host: &Value,
    sets: &BTreeMap<String, WorkloadRuns>,
) -> Value {
    let mut workloads = Map::new();
    for w in &spec.workloads {
        if let Some(runs) = sets.get(w) {
            workloads.insert(w.clone(), runs.to_json(spec));
        }
    }
    json!({
        "schema": 1,
        "seed": args.seed,
        "repeats": args.repeats,
        "quick": args.quick,
        "comparable": !args.quick,
        "seconds_per_run": args.seconds.unwrap_or(if args.quick { 2.0 } else { spec.run_seconds }),
        "build_s": std::env::var("MFC_BENCH_BUILD_S").ok().and_then(|s| s.parse::<f64>().ok()),
        "host": host.clone(),
        "workloads": Value::Object(workloads)
    })
}

fn save(path: &Path, v: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(v).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// No `--workload`: every workload, `--repeats` runs each (two
/// interleaved sets with `--aa`), the table, the result file(s).
fn full_mode(args: &Args, spec: &Spec) -> Result<bool, String> {
    let n_sets = if args.aa { 2 } else { 1 };
    let mut sets: Vec<BTreeMap<String, WorkloadRuns>> =
        (0..n_sets).map(|_| BTreeMap::new()).collect();
    for w in &spec.workloads {
        for rep in 0..args.repeats {
            // A/A: the two sets take turns going first.
            let order: Vec<usize> = if rep % 2 == 0 {
                (0..n_sets).collect()
            } else {
                (0..n_sets).rev().collect()
            };
            for set in order {
                eprintln!(
                    "[{w}] run {}/{}{}",
                    rep + 1,
                    args.repeats,
                    if args.aa {
                        format!(" set {}", ["a", "b"][set])
                    } else {
                        String::new()
                    }
                );
                let (result, extras) = one_run(args, w, false)?;
                sets[set]
                    .entry(w.clone())
                    .or_default()
                    .add(&result, &extras);
            }
        }
        if args.layers {
            eprintln!("[{w}] traced per-layer run");
            let layer = probe_binary().and_then(|_| {
                let (result, _) = one_run(args, w, true)?;
                let mut s = Samples::default();
                s.push(values_of(&result["metrics"]));
                Ok(s)
            });
            if let Err(why) = &layer {
                eprintln!("[{w}] {why}");
            }
            sets[0].entry(w.clone()).or_default().per_layer = Some(layer);
        }
    }
    // Calibrated last: the triad's 192 MiB would otherwise become the
    // floor of every child's reported peak RSS (see `child::Finished`).
    let host = host::fingerprint(host::triad_gbs(), host::peak_gflops());
    println!("host: {host}");
    let out_root = Path::new(OUT_ROOT);
    let tag = if args.quick { "quick_" } else { "" };
    let mut all_ok = true;
    let files: Vec<Value> = sets
        .iter()
        .map(|s| result_file(args, spec, &host, s))
        .collect();
    for f in &files {
        report::print_result(f);
        all_ok &= f["workloads"]
            .as_object()
            .is_some_and(|m| m.iter().all(|(_, w)| w["failed"].as_u64() == Some(0)));
    }
    if args.aa {
        save(
            &out_root.join(format!("aa_{tag}a_{}.json", args.seed)),
            &files[0],
        )?;
        save(
            &out_root.join(format!("aa_{tag}b_{}.json", args.seed)),
            &files[1],
        )?;
        println!("A/A: two sets of the same build, interleaved");
        all_ok &= report::compare(spec, &files[0], &files[1]) == 0;
    } else {
        save(
            &out_root.join(format!("result_{tag}{}.json", args.seed)),
            &files[0],
        )?;
    }
    Ok(all_ok)
}

fn load_result(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let spec = Spec::load(Path::new("BENCHMARK.json"))?;
    if let Some((a, b)) = &args.compare {
        return Ok(report::compare(&spec, &load_result(a)?, &load_result(b)?) == 0);
    }
    match &args.workload {
        Some(w) => contract_mode(&args, &spec, w).map(|()| true),
        None => full_mode(&args, &spec),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::from(2)
        }
    }
}
