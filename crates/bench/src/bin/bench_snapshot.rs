//! Perf-trajectory snapshot: staged vs fused grind time on a small fixed
//! case, plus the modeled-vs-measured sweep traffic ratio.
//!
//! Usage:
//!   `cargo run --release -p mfc-bench --bin bench_snapshot -- [--check] [PATH]`
//!
//! Without `--check`, measures and writes the snapshot JSON to `PATH`
//! (default `BENCH_grind.json` at the repo root) — commit the result as the
//! next point on the perf trajectory. With `--check`, measures, compares
//! against the committed snapshot at `PATH`, and exits non-zero if
//!
//!   * fused grind is < 1.3x faster than staged on the 3-D benchmark case,
//!   * the ledger-measured staged/fused traffic ratio drifts more than 25%
//!     from the `fusionmodel` prediction,
//!   * fused grind — or either dominant fused stage, WENO ns per
//!     face-variable and Riemann ns per face — regresses by more than 20%
//!     against the committed baseline,
//!   * the fused WENO stage at the default lane width is more than 10%
//!     slower than at width 1 (it is the same scalar line kernel at every
//!     width; explicit packets that lose to the loop vectoriser fail
//!     here),
//!   * the fused WENO stage costs more than 5 ns per face-variable on a
//!     host whose line kernel runs the AVX2 entry (the snapshot also
//!     times both entries of the line kernel alone, so the baseline
//!     entry has a number on an AVX2 host without a switch), or
//!   * tracing costs more than 2%: traced and untraced fused solvers
//!     alternate *single steps*, and the ratio of their accumulated
//!     thread-CPU times must stay under 1.02. Adjacent steps share the
//!     same ~40 ms of host load, so the ratio holds a 2% bar that
//!     absolute clocks on a shared box cannot. The untraced arm is the
//!     shipped default — the tracing-*disabled* fast path, whose only
//!     cost over uninstrumented code is a handful of `Option` checks;
//!     gating the full enabled-vs-disabled ratio at 2% keeps both modes
//!     honest against BENCH_grind.json.
//!
//! Timings are best-of-`REPS` over `STEPS`-step runs to shave scheduler
//! noise; run under `--release` or the numbers are meaningless.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use mfc_acc::Context;
use mfc_core::case::presets;
use mfc_core::par::{run_distributed_with_mode, ExchangeMode};
use mfc_core::rhs::RhsMode;
use mfc_core::solver::{DtMode, Solver, SolverConfig};
use mfc_core::weno::{self, WenoOrder};
use mfc_mpsim::Staging;
use mfc_perfmodel::{fusionmodel, EnsembleModel, JobCost};
use mfc_sched::{JobSpec, JobState, SchedConfig, Scheduler};
use mfc_trace::Tracer;

const N: usize = 24;
const WARMUP_STEPS: usize = 3;
const STEPS: usize = 12;
const REPS: usize = 5;

const MIN_FUSED_SPEEDUP: f64 = 1.3;
const MAX_MODEL_DRIFT: f64 = 0.25;
const MAX_GRIND_REGRESSION: f64 = 0.20;
/// Ceiling on fused-WENO time at the default lane width over width 1
/// (target 1.05; the rest is best-of-5 timing noise).
const MAX_WENO_WIDTH_RATIO: f64 = 1.10;
/// Ceiling on the fused WENO stage, ns per face-variable, where the line
/// kernel dispatches to its AVX2 entry (measured 3.0–3.6 on the bench
/// host; the baseline entry alone is above the bar).
const MAX_WENO_NS_AVX2: f64 = 5.0;
/// Ceiling on the paired traced/untraced grind ratio. Measured A/B
/// interleaved so host load cancels; a 2% bar on an absolute clock would
/// be pure jitter on a shared machine.
const MAX_TRACE_OVERHEAD: f64 = 0.02;
/// Ranks for the overlapped-exchange ablation axis.
const OVERLAP_RANKS: usize = 2;
/// Worker count of the thread-scaling axis.
const THREAD_WORKERS: usize = 4;
/// Floor on the 4-worker fused speedup over 1 worker. Enforced only when
/// the host actually has `THREAD_WORKERS` hardware threads (CI runners
/// do); an oversubscribed box still measures and records the axis, since
/// bitwise identity is what the tests gate there.
const MIN_THREAD_SPEEDUP_W4: f64 = 2.0;
/// Ceiling on the overlapped/sendrecv grind ratio. The overlapped mode
/// runs the same whole-line sweeps as sendrecv, reordered behind the
/// messages, so on this 2-thread simulator the two cost the same up to
/// scheduling noise: -15 % to +17 % over 24 of 26 runs on the bench host
/// (median +6 %; two outliers at +36 % and +42 %).
const MAX_OVERLAP_OVERHEAD: f64 = 0.25;
/// Floor on the W=4-lane fused speedup over W=1, enforced only where the
/// roofline-bounded vector-efficiency model predicts at least that much
/// headroom on this host (it does not on a scalar-tail-dominated tiling
/// or a bandwidth-bound kernel mix).
const MIN_VECTOR_SPEEDUP: f64 = 1.15;
/// Ensemble-throughput axis: a fixed 6-job mixed-length manifest run
/// through `mfc-sched` on this worker budget.
const ENSEMBLE_BUDGET: usize = 2;
const ENSEMBLE_CELLS: usize = 2048;
const ENSEMBLE_STEPS: [u64; 6] = [90, 75, 60, 45, 30, 15];
/// Envelope on `measured / LPT − 1`. The greedy LPT bound assumes rigid
/// one-worker jobs on `min(budget, host_cores)` slots; the elastic
/// scheduler should land near it (beating it slightly where elastic
/// shares absorb the tail, trailing it by thread/checkpoint overhead on
/// millisecond-scale jobs), so the envelope is generous but bounded.
const MAX_ENSEMBLE_LPT_DRIFT: f64 = 0.5;
/// Ceiling on the regression of the multi-threaded axes — ensemble
/// makespan, 2-rank overlapped grind — vs. the committed baseline
/// (wall-clock of several threads on a shared box — noisier than the
/// single-thread grind axis, hence the wider bar).
const MAX_THREADED_REGRESSION: f64 = 0.35;

/// Nanoseconds this thread has actually run on a CPU, from
/// `/proc/thread-self/schedstat`. Unlike a wall clock this excludes
/// run-queue waits caused by other host load. `None` off Linux.
fn thread_cpu_ns() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    s.split_whitespace().next()?.parse().ok()
}

fn solver_for(
    mode: RhsMode,
    workers: usize,
    vector_width: usize,
    tracer: Option<&Arc<Tracer>>,
) -> Solver {
    let case = presets::two_phase_benchmark(3, [N, N, N]);
    let mut cfg = SolverConfig {
        dt: DtMode::Cfl(0.4),
        workers,
        vector_width,
        ..Default::default()
    };
    cfg.rhs.mode = mode;
    let mut ctx = Context::with_workers(workers).with_vector_width(vector_width);
    if let Some(tr) = tracer {
        ctx.set_tracer(tr.handle(0));
    }
    Solver::new(&case, cfg, ctx)
}

/// Best-of-reps grind time in µs per cell per step (wall and thread-CPU
/// clocks), the sweep bytes the ledger recorded for one measured run, and
/// the sweep arithmetic intensity plus lane-tiling stats of the last run.
/// The CPU figure is -1 where schedstat is unavailable.
fn measure(mode: RhsMode, workers: usize, vector_width: usize) -> Measurement {
    let cells = (N * N * N) as f64;
    let mut best = f64::INFINITY;
    let mut best_cpu = f64::INFINITY;
    let mut bytes = 0.0;
    let mut ai = 0.0;
    let mut lanes = (0, 0);
    let mut stage_ns = [0.0; 2];
    for _ in 0..REPS {
        let mut solver = solver_for(mode, workers, vector_width, None);
        solver.run_steps(WARMUP_STEPS).unwrap();
        let before = fusionmodel::measured_sweep_bytes(
            &solver.context().ledger().kernel_stats(),
            mode == RhsMode::Fused,
        );
        let c0 = thread_cpu_ns();
        let t0 = Instant::now();
        solver.run_steps(STEPS).unwrap();
        let us = t0.elapsed().as_secs_f64() * 1e6 / (cells * STEPS as f64);
        if let (Some(c0), Some(c1)) = (c0, thread_cpu_ns()) {
            best_cpu = best_cpu.min((c1 - c0) as f64 * 1e-3 / (cells * STEPS as f64));
        }
        if us < best {
            best = us;
            let stats = solver.context().ledger().kernel_stats();
            bytes = fusionmodel::measured_sweep_bytes(&stats, mode == RhsMode::Fused) - before;
            let (flops, traffic) = stats.iter().fold((0.0, 0.0), |(f, b), k| {
                (f + k.flops, b + k.bytes_read + k.bytes_written)
            });
            ai = if traffic > 0.0 { flops / traffic } else { 0.0 };
            lanes = solver.context().lane_stats();
            // Warm-up and measured steps launch the same kernels, so the
            // whole-run ledger ratio is the measured run's.
            stage_ns = ["f_weno_reconstruct", "f_riemann_solve"].map(|label| {
                stats
                    .iter()
                    .find(|k| k.label == label)
                    .map_or(0.0, |k| k.wall.as_secs_f64() * 1e9 / k.items as f64)
            });
        }
    }
    if !best_cpu.is_finite() {
        best_cpu = -1.0;
    }
    Measurement {
        us: best,
        cpu_us: best_cpu,
        sweep_bytes: bytes,
        ai,
        lanes,
        weno_ns_per_face_var: stage_ns[0],
        riemann_ns_per_face: stage_ns[1],
    }
}

/// One entry point of the WENO line kernel.
type WenoLineFn = fn(WenoOrder, &[f64], usize, usize, &mut [f64], &mut [f64]);

/// Best-of-reps ns per face-variable of `entry` reconstructing a
/// cache-resident batch of 96-cell WENO5 lines (the `grind3d` line
/// length) — the line kernel alone, outside the solver.
fn measure_weno_line(entry: WenoLineFn) -> f64 {
    const LINES: usize = 56;
    const CELLS: usize = 96;
    const PAD: usize = 3;
    let ext = CELLS + 2 * PAD;
    let v: Vec<f64> = (0..LINES * ext)
        .map(|i| 1.0 + 0.3 * (i as f64 * 0.07).sin() + 1e-3 * ((i * 7919) % 1013) as f64)
        .collect();
    let mut left = vec![0.0; LINES * (CELLS + 1)];
    let mut right = vec![0.0; LINES * (CELLS + 1)];
    let mut best = f64::INFINITY;
    for _ in 0..REPS * 4 {
        let sweeps = 200;
        let t0 = Instant::now();
        for _ in 0..sweeps {
            for ((line, l), r) in v
                .chunks_exact(ext)
                .zip(left.chunks_exact_mut(CELLS + 1))
                .zip(right.chunks_exact_mut(CELLS + 1))
            {
                entry(
                    WenoOrder::Weno5,
                    std::hint::black_box(line),
                    PAD,
                    CELLS,
                    l,
                    r,
                );
            }
            std::hint::black_box((&mut left, &mut right));
        }
        let faces = (sweeps * LINES * (CELLS + 1)) as f64;
        best = best.min(t0.elapsed().as_secs_f64() * 1e9 / faces);
    }
    best
}

struct Measurement {
    us: f64,
    cpu_us: f64,
    sweep_bytes: f64,
    /// Ledger arithmetic intensity (FLOP per declared byte) over all
    /// kernels of the measured run.
    ai: f64,
    /// `(full_packets, tail_elems)` lane tiling of the measured run.
    lanes: (u64, u64),
    /// Fused-stage costs from the kernel ledger: WENO ns per reconstructed
    /// face of one variable, Riemann ns per face (0 for staged runs).
    weno_ns_per_face_var: f64,
    riemann_ns_per_face: f64,
}

/// One step of `solver`, returning its thread-CPU cost in ns (wall ns
/// where schedstat is unavailable).
fn timed_step(solver: &mut Solver) -> f64 {
    let c0 = thread_cpu_ns();
    let t0 = Instant::now();
    solver.step().unwrap();
    match (c0, thread_cpu_ns()) {
        (Some(c0), Some(c1)) => (c1 - c0) as f64,
        _ => t0.elapsed().as_nanos() as f64,
    }
}

/// Paired tracing overhead: an untraced and a traced fused solver
/// alternate single steps, and the accumulated per-arm CPU times are
/// ratioed. Adjacent steps see the same ~tens-of-ms of host load, so the
/// ratio holds a 2% gate that absolute times (or even coarser A/B
/// blocks) cannot. Returns (overhead fraction, traced µs/cell/step).
fn measure_trace_overhead() -> (f64, f64) {
    let cells = (N * N * N) as f64;
    let mut plain = solver_for(RhsMode::Fused, 1, mfc_acc::DEFAULT_WIDTH, None);
    let tracer = Arc::new(Tracer::new());
    let mut traced = solver_for(RhsMode::Fused, 1, mfc_acc::DEFAULT_WIDTH, Some(&tracer));
    plain.run_steps(WARMUP_STEPS).unwrap();
    traced.run_steps(WARMUP_STEPS).unwrap();
    let steps = REPS * STEPS;
    let (mut plain_ns, mut traced_ns) = (0.0, 0.0);
    for _ in 0..steps {
        plain_ns += timed_step(&mut plain);
        traced_ns += timed_step(&mut traced);
    }
    (
        traced_ns / plain_ns - 1.0,
        traced_ns * 1e-3 / (cells * steps as f64),
    )
}

/// `ablation_overlap` axis: the same 2-rank distributed solve with the
/// halo exchange sent plainly vs pipelined behind the sweeps,
/// A/B-interleaved best-of-reps. Returns (sendrecv, overlapped)
/// µs/cell/step.
fn measure_overlap_ablation() -> (f64, f64) {
    let cells = (N * N * N) as f64;
    let case = presets::two_phase_benchmark(3, [N, N, N]);
    let cfg = SolverConfig {
        dt: DtMode::Cfl(0.4),
        ..Default::default()
    };
    let mut best = [f64::INFINITY; 2];
    for _ in 0..REPS {
        for (i, mode) in [ExchangeMode::Sendrecv, ExchangeMode::Overlapped]
            .into_iter()
            .enumerate()
        {
            let t0 = Instant::now();
            run_distributed_with_mode(
                &case,
                cfg,
                OVERLAP_RANKS,
                STEPS,
                Staging::DeviceDirect,
                mode,
            )
            .expect("ablation run");
            best[i] = best[i].min(t0.elapsed().as_secs_f64() * 1e6 / (cells * STEPS as f64));
        }
    }
    (best[0], best[1])
}

/// A Sod-style 1-D case for the ensemble axis, `steps` long. Cheap per
/// job, long enough that stepping (not solver construction) dominates.
fn ensemble_case_json(name: &str, steps: u64) -> String {
    format!(
        r#"{{
  "name": "{name}",
  "fluids": [{{ "gamma": 1.4, "pi_inf": 0.0 }}],
  "ndim": 1,
  "cells": [{ENSEMBLE_CELLS}, 1, 1],
  "lo": [0.0, 0.0, 0.0],
  "hi": [1.0, 1.0, 1.0],
  "bc": "transmissive",
  "patches": [
    {{ "region": "all",
       "state": {{ "alpha": [1.0], "rho": [0.125], "vel": [0.0, 0.0, 0.0], "p": 0.1 }} }},
    {{ "region": {{ "half_space": {{ "axis": 0, "bound": 0.5 }} }},
       "state": {{ "alpha": [1.0], "rho": [1.0], "vel": [0.0, 0.0, 0.0], "p": 1.0 }} }}
  ],
  "numerics": {{ "order": "weno5", "solver": "hllc", "pack": "tiled", "scheme": "rk3", "cfl": 0.5, "dt": null }},
  "run": {{ "steps": {steps}, "ranks": 1 }},
  "output": {{ "dir": "out/bench_ensemble", "vtk": false }}
}}
"#
    )
}

struct EnsembleAxis {
    slots: usize,
    makespan_ms: f64,
    jobs_per_min: f64,
    lpt_ms: f64,
    lower_ms: f64,
    drift: f64,
    serial_ns_per_cell_stage: f64,
}

/// Ensemble-throughput axis: run the fixed 6-job manifest through the
/// `mfc-sched` elastic scheduler on `ENSEMBLE_BUDGET` workers, and
/// compare the measured makespan against the greedy-LPT model fed a
/// measured serial rate. Checkpoints are disabled — this axis times the
/// scheduler, not the filesystem.
fn measure_ensemble(host_cores: usize) -> EnsembleAxis {
    const STAGES: u32 = 3; // rk3 in the generated cases
    const RATE_STEPS: usize = 30;
    let dir = std::env::temp_dir().join(format!("mfc_bench_ensemble_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("ensemble temp dir");
    let mut paths = Vec::new();
    for (i, &steps) in ENSEMBLE_STEPS.iter().enumerate() {
        let p = dir.join(format!("job{i}.json"));
        std::fs::write(&p, ensemble_case_json(&format!("ens{i}"), steps))
            .expect("write ensemble case");
        paths.push(p);
    }

    // Serial rate for the model (seconds per cell·stage), best-of-3 on
    // the same case the jobs run.
    let cf = mfc_cli::CaseFile::from_path(&paths[0]).expect("ensemble case");
    let case = cf.to_case().expect("ensemble case build");
    let cfg = cf.numerics.to_solver_config().expect("ensemble config");
    let mut rate = f64::INFINITY;
    for _ in 0..3 {
        let ctx = Context::with_workers(1).with_vector_width(cfg.vector_width);
        let mut solver = Solver::new(&case, cfg, ctx);
        solver.run_steps(WARMUP_STEPS).expect("ensemble warmup");
        let t0 = Instant::now();
        solver.run_steps(RATE_STEPS).expect("ensemble rate run");
        rate = rate.min(
            t0.elapsed().as_secs_f64()
                / (ENSEMBLE_CELLS as f64 * RATE_STEPS as f64 * STAGES as f64),
        );
    }

    let mut sched = Scheduler::new(SchedConfig {
        budget: ENSEMBLE_BUDGET,
        queue_cap: ENSEMBLE_STEPS.len(),
        aging_rounds: 4,
        out_dir: dir.join("serve"),
        write_checkpoints: false,
    });
    for (i, p) in paths.iter().enumerate() {
        let mut spec = JobSpec::new(p);
        spec.name = Some(format!("ens{i}"));
        spec.priority = (i % 3) as i64;
        sched.submit(spec).expect("ensemble admission");
    }
    let t0 = Instant::now();
    let records = sched.run();
    let makespan_s = t0.elapsed().as_secs_f64();
    let done = records.iter().filter(|r| r.state == JobState::Done).count();
    assert_eq!(
        done,
        ENSEMBLE_STEPS.len(),
        "ensemble jobs did not all finish: {records:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);

    let costs: Vec<JobCost> = ENSEMBLE_STEPS
        .iter()
        .map(|&s| JobCost {
            cells: ENSEMBLE_CELLS,
            steps: s,
            stages: STAGES,
        })
        .collect();
    let slots = ENSEMBLE_BUDGET.min(host_cores).max(1);
    let model = EnsembleModel::from_costs(&costs, rate, slots, makespan_s);
    EnsembleAxis {
        slots,
        makespan_ms: makespan_s * 1e3,
        jobs_per_min: model.jobs_per_min(ENSEMBLE_STEPS.len()),
        lpt_ms: model.lpt_s * 1e3,
        lower_ms: model.lower_s * 1e3,
        drift: model.lpt_drift(),
        serial_ns_per_cell_stage: rate * 1e9,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let path: PathBuf = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_grind.json")
        });

    let vw = mfc_acc::DEFAULT_WIDTH;
    let staged = measure(RhsMode::Staged, 1, vw);
    let fused = measure(RhsMode::Fused, 1, vw);
    let (staged_us, staged_cpu_us) = (staged.us, staged.cpu_us);
    let (fused_us, fused_cpu_us) = (fused.us, fused.cpu_us);

    // Vector axis: the same serial fused solve with lane packets disabled.
    let fused_w1 = measure(RhsMode::Fused, 1, 1);
    let vector_speedup = fused_w1.us / fused_us;
    let weno_width_ratio = fused.weno_ns_per_face_var / fused_w1.weno_ns_per_face_var;
    let weno_line_ns = measure_weno_line(weno::reconstruct_line_padded);
    let weno_line_baseline_ns = measure_weno_line(weno::reconstruct_line_padded_baseline);
    let hw_width = mfc_acc::hw_lane_width();
    let eff = mfc_perfmodel::VectorEfficiency::new(vw, fused.lanes);
    let roofline_cap =
        mfc_perfmodel::vector_roofline_cap(&mfc_perfmodel::CONTAINER_HOST_CORE, hw_width, fused.ai);
    let predicted_vector = mfc_perfmodel::predicted_vector_speedup(
        eff.effective_width(),
        hw_width,
        mfc_perfmodel::HOST_SIMD_ISSUE_EFFICIENCY,
        roofline_cap,
    );

    // Thread axis: few-core hosts (containerized CI) cannot measure a
    // meaningful 4-worker speedup, so the field is recorded as null with
    // the reason instead of committing a misleading <1 ratio.
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (fused_w4_us, thread_speedup, threads_skipped_reason) = if host_threads >= THREAD_WORKERS {
        let w4 = measure(RhsMode::Fused, THREAD_WORKERS, vw);
        (Some(w4.us), Some(fused_us / w4.us), None)
    } else {
        (
            None,
            None,
            Some(format!(
                "host has {host_threads} hardware thread(s); the {THREAD_WORKERS}-worker \
                 axis needs {THREAD_WORKERS}"
            )),
        )
    };
    let (trace_overhead, traced_fused_us) = measure_trace_overhead();
    let (sendrecv_us, overlapped_us) = measure_overlap_ablation();
    let overlap_overhead = overlapped_us / sendrecv_us - 1.0;
    let ens = measure_ensemble(host_threads);
    let speedup = staged_us / fused_us;
    let measured_ratio = staged.sweep_bytes / fused.sweep_bytes;
    let shape = fusionmodel::SweepShape {
        n: [N, N, N],
        ndim: 3,
        ng: 3,
        neq: 7,
        stencil: 3,
    };
    let modeled_ratio = fusionmodel::traffic_ratio(&shape);

    let snapshot = serde_json::json!({
        "case": "two_phase_benchmark_3d",
        "n": [N, N, N],
        "steps": STEPS,
        "staged_us_per_cell_step": staged_us,
        "fused_us_per_cell_step": fused_us,
        "fused_speedup": speedup,
        "measured_traffic_ratio": measured_ratio,
        "modeled_traffic_ratio": modeled_ratio,
        "staged_cpu_us_per_cell_step": staged_cpu_us,
        "fused_cpu_us_per_cell_step": fused_cpu_us,
        "weno_ns_per_face_var": fused.weno_ns_per_face_var,
        "riemann_ns_per_face": fused.riemann_ns_per_face,
        "weno_w4_over_w1": weno_width_ratio,
        "weno_isa": weno::line_isa(),
        "weno_line_ns_per_face_var": weno_line_ns,
        "weno_line_baseline_ns_per_face_var": weno_line_baseline_ns,
        "traced_fused_us_per_cell_step": traced_fused_us,
        "trace_overhead_frac": trace_overhead,
        "overlap_ranks": OVERLAP_RANKS,
        "sendrecv_us_per_cell_step": sendrecv_us,
        "overlapped_us_per_cell_step": overlapped_us,
        "overlap_overhead_frac": overlap_overhead,
        "threads": THREAD_WORKERS,
        "host_cores": host_threads,
        "fused_w4_us_per_cell_step": fused_w4_us,
        "thread_speedup_w4": thread_speedup,
        "threads_skipped_reason": threads_skipped_reason,
        "vector_width": vw,
        "hw_lane_width": hw_width,
        "fused_w4lanes_us_per_cell_step": fused_us,
        "fused_w1lanes_us_per_cell_step": fused_w1.us,
        "vector_speedup": vector_speedup,
        "vector_effective_width": eff.effective_width(),
        "vector_tail_fraction": eff.tail_fraction(),
        "vector_roofline_cap": roofline_cap,
        "vector_predicted_speedup": predicted_vector,
        "ensemble_jobs": ENSEMBLE_STEPS.len(),
        "ensemble_budget": ENSEMBLE_BUDGET,
        "ensemble_slots": ens.slots,
        "ensemble_cells": ENSEMBLE_CELLS,
        "ensemble_makespan_ms": ens.makespan_ms,
        "ensemble_jobs_per_min": ens.jobs_per_min,
        "ensemble_lpt_model_ms": ens.lpt_ms,
        "ensemble_lower_bound_ms": ens.lower_ms,
        "ensemble_lpt_drift": ens.drift,
        "ensemble_serial_ns_per_cell_stage": ens.serial_ns_per_cell_stage,
    });
    println!("{}", serde_json::to_string_pretty(&snapshot).unwrap());

    if !check {
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&snapshot).unwrap() + "\n",
        )
        .expect("write snapshot");
        println!("wrote {}", path.display());
        return;
    }

    let mut failures = Vec::new();
    if speedup < MIN_FUSED_SPEEDUP {
        failures.push(format!(
            "fused speedup {speedup:.3} < required {MIN_FUSED_SPEEDUP}"
        ));
    }
    match (fused_w4_us, thread_speedup) {
        (Some(w4), Some(ts)) => {
            println!(
                "thread scaling: fused {fused_us:.4} (1 worker) vs {w4:.4} \
                 ({THREAD_WORKERS} workers) us/cell/step — {ts:.2}x"
            );
            if ts < MIN_THREAD_SPEEDUP_W4 {
                failures.push(format!(
                    "{THREAD_WORKERS}-worker fused speedup {ts:.2}x < required \
                     {MIN_THREAD_SPEEDUP_W4}x"
                ));
            }
        }
        _ => println!(
            "thread scaling: skipped — {}",
            threads_skipped_reason.as_deref().unwrap_or("unknown")
        ),
    }
    println!(
        "vector lanes (W={vw}, hw {hw_width}): fused {:.4} (W=1) vs {fused_us:.4} \
         us/cell/step — {vector_speedup:.2}x measured, {predicted_vector:.2}x predicted \
         (effective width {:.2}, tail {:.1}%, roofline cap {roofline_cap:.1}x)",
        fused_w1.us,
        eff.effective_width(),
        eff.tail_fraction() * 100.0,
    );
    if predicted_vector >= MIN_VECTOR_SPEEDUP {
        if vector_speedup < MIN_VECTOR_SPEEDUP {
            failures.push(format!(
                "vector-lane speedup {vector_speedup:.2}x < required {MIN_VECTOR_SPEEDUP}x \
                 (roofline predicts {predicted_vector:.2}x)"
            ));
        }
        let vec_drift = (vector_speedup / predicted_vector - 1.0).abs();
        if vec_drift > MAX_MODEL_DRIFT {
            failures.push(format!(
                "vector speedup {vector_speedup:.2}x drifts {:.0}% from the \
                 vector-efficiency model's {predicted_vector:.2}x",
                vec_drift * 100.0
            ));
        }
    } else {
        println!(
            "  (model predicts only {predicted_vector:.2}x on this host — \
             {MIN_VECTOR_SPEEDUP}x gate skipped)"
        );
    }
    println!(
        "ensemble ({} jobs, budget {ENSEMBLE_BUDGET}, {} slot(s)): makespan {:.1} ms vs \
         LPT model {:.1} ms ({:+.1}%; lower bound {:.1} ms) — {:.1} jobs/min",
        ENSEMBLE_STEPS.len(),
        ens.slots,
        ens.makespan_ms,
        ens.lpt_ms,
        ens.drift * 100.0,
        ens.lower_ms,
        ens.jobs_per_min,
    );
    if ens.drift.abs() > MAX_ENSEMBLE_LPT_DRIFT {
        failures.push(format!(
            "ensemble makespan {:.1} ms drifts {:.0}% from the LPT model's {:.1} ms \
             (> {:.0}% allowed)",
            ens.makespan_ms,
            ens.drift.abs() * 100.0,
            ens.lpt_ms,
            MAX_ENSEMBLE_LPT_DRIFT * 100.0
        ));
    }
    println!(
        "fused WENO stage: {:.2} ns/face-var at W={vw} vs {:.2} at W=1 — ratio {weno_width_ratio:.3} \
         (gate {MAX_WENO_WIDTH_RATIO})",
        fused.weno_ns_per_face_var, fused_w1.weno_ns_per_face_var,
    );
    if weno_width_ratio > MAX_WENO_WIDTH_RATIO {
        failures.push(format!(
            "fused WENO at W={vw} is {weno_width_ratio:.2}x its W=1 time (> {MAX_WENO_WIDTH_RATIO} allowed)"
        ));
    }
    println!(
        "WENO5 line kernel alone: {weno_line_ns:.2} ns/face-var through the {} entry, \
         {weno_line_baseline_ns:.2} through the baseline entry",
        weno::line_isa()
    );
    if weno::line_isa() == "avx2" {
        if fused.weno_ns_per_face_var > MAX_WENO_NS_AVX2 {
            failures.push(format!(
                "fused WENO stage {:.2} ns/face-var on the avx2 entry (> {MAX_WENO_NS_AVX2} allowed)",
                fused.weno_ns_per_face_var
            ));
        }
    } else {
        println!("  (no AVX2 on this host — {MAX_WENO_NS_AVX2} ns gate skipped)");
    }
    let drift = (measured_ratio / modeled_ratio - 1.0).abs();
    if drift > MAX_MODEL_DRIFT {
        failures.push(format!(
            "measured traffic ratio {measured_ratio:.3} drifts {:.0}% from model {modeled_ratio:.3}",
            drift * 100.0
        ));
    }
    match std::fs::read_to_string(&path) {
        Ok(text) => {
            let baseline: serde_json::Value =
                serde_json::from_str(&text).expect("parse committed snapshot");
            let base_fused = baseline["fused_us_per_cell_step"]
                .as_f64()
                .expect("fused_us_per_cell_step in baseline");
            let regression = fused_us / base_fused - 1.0;
            println!(
                "fused grind: {fused_us:.4} us/cell/step vs committed {base_fused:.4} ({:+.1}%)",
                regression * 100.0
            );
            if regression > MAX_GRIND_REGRESSION {
                failures.push(format!(
                    "fused grind regressed {:.0}% vs committed baseline (> {:.0}% allowed)",
                    regression * 100.0,
                    MAX_GRIND_REGRESSION * 100.0
                ));
            }
            for (field, now) in [
                ("weno_ns_per_face_var", fused.weno_ns_per_face_var),
                ("riemann_ns_per_face", fused.riemann_ns_per_face),
            ] {
                match baseline[field].as_f64() {
                    Some(base) => {
                        let regression = now / base - 1.0;
                        println!(
                            "{field}: {now:.2} vs committed {base:.2} ({:+.1}%)",
                            regression * 100.0
                        );
                        if regression > MAX_GRIND_REGRESSION {
                            failures.push(format!(
                                "{field} regressed {:.0}% vs committed baseline (> {:.0}% allowed)",
                                regression * 100.0,
                                MAX_GRIND_REGRESSION * 100.0
                            ));
                        }
                    }
                    None => println!(
                        "{field}: committed baseline predates the stage fields — gate skipped"
                    ),
                }
            }
            // The untraced measurement *is* the tracing-disabled fast
            // path: instrumentation compiled in, no tracer attached.
            // Compared on the thread-CPU clock so host load cannot trip
            // a 2% bar.
            println!(
                "paired tracing overhead: {:+.2}% (gate {:.0}%; committed {:+.2}%)",
                trace_overhead * 100.0,
                MAX_TRACE_OVERHEAD * 100.0,
                baseline["trace_overhead_frac"].as_f64().unwrap_or(0.0) * 100.0
            );
            if trace_overhead > MAX_TRACE_OVERHEAD {
                failures.push(format!(
                    "tracing overhead {:.1}% exceeds the {:.0}% gate",
                    trace_overhead * 100.0,
                    MAX_TRACE_OVERHEAD * 100.0
                ));
            }
            println!(
                "overlap ablation ({OVERLAP_RANKS} ranks): sendrecv {sendrecv_us:.4} vs \
                 overlapped {overlapped_us:.4} us/cell/step ({:+.1}%; gate {:.0}%; committed {:+.1}%)",
                overlap_overhead * 100.0,
                MAX_OVERLAP_OVERHEAD * 100.0,
                baseline["overlap_overhead_frac"].as_f64().unwrap_or(0.0) * 100.0
            );
            if overlap_overhead > MAX_OVERLAP_OVERHEAD {
                failures.push(format!(
                    "overlapped exchange costs {:.1}% over sendrecv (> {:.0}% allowed)",
                    overlap_overhead * 100.0,
                    MAX_OVERLAP_OVERHEAD * 100.0
                ));
            }
            if let Some(base) = baseline["overlapped_us_per_cell_step"].as_f64() {
                let regression = overlapped_us / base - 1.0;
                if regression > MAX_THREADED_REGRESSION {
                    failures.push(format!(
                        "overlapped grind regressed {:.0}% vs committed baseline (> {:.0}% allowed)",
                        regression * 100.0,
                        MAX_THREADED_REGRESSION * 100.0
                    ));
                }
            }
            match baseline["ensemble_makespan_ms"].as_f64() {
                Some(base) => {
                    let regression = ens.makespan_ms / base - 1.0;
                    println!(
                        "ensemble makespan: {:.1} ms vs committed {base:.1} ms ({:+.1}%)",
                        ens.makespan_ms,
                        regression * 100.0
                    );
                    if regression > MAX_THREADED_REGRESSION {
                        failures.push(format!(
                            "ensemble makespan regressed {:.0}% vs committed baseline \
                             (> {:.0}% allowed)",
                            regression * 100.0,
                            MAX_THREADED_REGRESSION * 100.0
                        ));
                    }
                }
                None => println!(
                    "ensemble makespan: committed baseline predates the ensemble axis — \
                     regression gate skipped"
                ),
            }
        }
        Err(e) => failures.push(format!("no committed baseline at {}: {e}", path.display())),
    }

    if failures.is_empty() {
        println!("perf snapshot OK");
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
