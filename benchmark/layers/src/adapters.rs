//! Every call into the repository's crates lives in this file. The probes
//! in `main.rs` see only the wrappers below, so when an entry point is
//! renamed (ROADMAP item 2 will fold the `run_distributed*` family into
//! one driver) this is the one file a follow-up benchmark change repairs —
//! and until it does, `benchmark/run.sh` keeps reporting every end-to-end
//! metric and marks the per-layer ones unavailable.
//!
//! Nothing here edits or instruments the program: spans are recorded by
//! the probe *around* these calls, on a tracer that is never attached to
//! the solver's own context (the one exception is `Sim::new_traced`, whose
//! whole purpose is to price the program's built-in tracing).

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use mfc_acc::{Context, KernelClass, KernelCost, LaunchConfig, PAR_MIN_ITEMS};
use mfc_cli::CaseFile;
use mfc_core::bc::{apply_bcs, BcSpec};
use mfc_core::case::presets;
use mfc_core::cfl::try_max_dt_geom;
use mfc_core::health::scan_and_convert;
use mfc_core::par::{
    run_distributed_resilient, run_distributed_with_mode, run_single, ExchangeMode, ResilienceOpts,
};
use mfc_core::restart::{load_checkpoint, save_checkpoint};
use mfc_core::rhs::{compute_rhs, RhsMode, RhsWorkspace};
use mfc_core::solver::DtMode;
use mfc_core::state::cons_to_prim_field;
use mfc_core::time::{rk_step, RkWorkspace};
use mfc_core::{CaseBuilder, Fluid, Grid, HealthConfig, Solver, SolverConfig, StateField};
use mfc_mpsim::{Staging, World};
use mfc_sched::{JobRecord, JobSpec, JobState, SchedClient, SchedConfig, Scheduler, Server};
use mfc_trace::{Category, EventKind, SpanGuard, TraceHandle, Tracer};

// ------------------------------------------------------------------ spans

/// The probe's span recorder: `mfc-trace`'s own tracer, used from outside.
/// One timeline; spans nest by scope; written as the chrome-trace JSON
/// `mfc-trace-report` reads.
pub struct Spans {
    tracer: Arc<Tracer>,
    handle: Arc<TraceHandle>,
}

/// Per span name: every duration, and the time not covered by children.
#[derive(Debug, Default, Clone)]
pub struct SpanStats {
    pub durations_s: Vec<f64>,
    pub self_s: f64,
}

impl SpanStats {
    pub fn total_s(&self) -> f64 {
        self.durations_s.iter().sum()
    }
}

impl Spans {
    pub fn new() -> Spans {
        let tracer = Arc::new(Tracer::new());
        let handle = tracer.handle(0);
        Spans { tracer, handle }
    }

    #[must_use = "the span closes when the guard drops"]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.handle.span(name, Category::Phase)
    }

    /// Events recorded so far (begin + end per span).
    pub fn events(&self) -> usize {
        self.handle.snapshot().events.len()
    }

    /// Self time = a span's duration minus what its child spans cover.
    pub fn stats(&self) -> Result<BTreeMap<&'static str, SpanStats>, String> {
        let trace = self.handle.snapshot();
        if trace.dropped > 0 {
            return Err(format!("span ring dropped {} events", trace.dropped));
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        // (name, begin ns, ns covered by children)
        let mut stack: Vec<(&'static str, u64, u64)> = Vec::new();
        for e in &trace.events {
            match e.kind {
                EventKind::Begin { name, .. } => stack.push((name, e.ts_ns, 0)),
                EventKind::End { name } => {
                    let (open, begin, children) = stack
                        .pop()
                        .ok_or_else(|| format!("orphan end of span {name}"))?;
                    if open != name {
                        return Err(format!("span {name} closed while {open} was open"));
                    }
                    let dur = e.ts_ns - begin;
                    let s = out.entry(name).or_default();
                    s.durations_s.push(dur as f64 * 1e-9);
                    s.self_s += dur.saturating_sub(children) as f64 * 1e-9;
                    if let Some(parent) = stack.last_mut() {
                        parent.2 += dur;
                    }
                }
                _ => {}
            }
        }
        Ok(out)
    }

    pub fn write_chrome(&self, path: &Path) -> Result<(), String> {
        mfc_trace::chrome::write_file(path, &self.tracer.snapshot())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

// ------------------------------------------------------------------ cases

/// A case file lowered the way `mfc-run` lowers it.
#[derive(Clone)]
pub struct Case {
    file: CaseFile,
    builder: CaseBuilder,
    cfg: SolverConfig,
}

impl Case {
    fn lower(file: CaseFile) -> Result<Case, String> {
        let builder = file.to_case()?;
        let cfg = file.numerics.to_solver_config()?;
        Ok(Case { file, builder, cfg })
    }

    pub fn load(path: &Path) -> Result<Case, String> {
        Case::lower(CaseFile::from_path(path)?)
    }

    /// The same physics with every axis capped at `cap` cells.
    pub fn capped(&self, cap: usize) -> Result<Case, String> {
        let mut file = self.file.clone();
        for n in file.cells.iter_mut() {
            *n = (*n).min(cap);
        }
        Case::lower(file)
    }

    pub fn staged(&self) -> Case {
        let mut c = self.clone();
        c.cfg.rhs.mode = RhsMode::Staged;
        c
    }

    pub fn with_workers(&self, workers: usize) -> Case {
        let mut c = self.clone();
        c.cfg.workers = workers;
        c
    }

    pub fn with_vector_width(&self, width: usize) -> Case {
        let mut c = self.clone();
        c.cfg.vector_width = width;
        c
    }

    pub fn dims(&self) -> [usize; 3] {
        self.builder.cells
    }

    pub fn cells(&self) -> usize {
        self.builder.cells.iter().product()
    }

    pub fn neq(&self) -> usize {
        self.builder.eq().neq()
    }

    pub fn ghost_layers(&self) -> usize {
        self.cfg.rhs.order.ghost_layers().max(1)
    }

    pub fn stages(&self) -> usize {
        self.cfg.scheme.stages()
    }

    pub fn ranks(&self) -> usize {
        self.file.run.ranks.max(1)
    }

    fn context(&self) -> Context {
        Context::with_workers(self.cfg.workers).with_vector_width(self.cfg.vector_width)
    }
}

/// `cli`: what admission costs — read, parse, lower, deep-validate.
pub fn parse_validate(path: &Path) -> Result<(), String> {
    let file = CaseFile::from_path(path)?;
    file.to_case()?;
    mfc_cli::dry_run(&file)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

// ----------------------------------------------------------------- solver

/// Kernel-ledger totals of a solver context, by the paper's classes.
#[derive(Debug, Default, Clone)]
pub struct LedgerTotals {
    /// Wall seconds per class name (`WENO`, `Riemann`, `Pack`, `Update`,
    /// `Halo`, `Other`); the `Fused` marker re-counts its stages and is
    /// left out.
    pub class_wall_s: BTreeMap<&'static str, f64>,
    pub flops: f64,
    pub bytes: f64,
    pub launches: u64,
}

/// `core.solver`: the shipped single-rank driver.
pub struct Sim(Solver);

impl Sim {
    pub fn new(case: &Case) -> Sim {
        Sim(Solver::new(&case.builder, case.cfg, case.context()))
    }

    /// With the program's own tracing switched on (to price it).
    pub fn new_traced(case: &Case, tracer: &Arc<Tracer>) -> Sim {
        let mut ctx = case.context();
        ctx.set_tracer(tracer.handle(0));
        Sim(Solver::new(&case.builder, case.cfg, ctx))
    }

    pub fn step(&mut self) -> Result<(), String> {
        self.0.step().map(|_| ()).map_err(|e| e.to_string())
    }

    pub fn ledger(&self) -> LedgerTotals {
        let ledger = self.0.context().ledger();
        let mut t = LedgerTotals::default();
        for (class, s) in ledger.by_class() {
            if class != KernelClass::Fused {
                *t.class_wall_s.entry(class.name()).or_default() += s.wall.as_secs_f64();
            }
        }
        for k in ledger.kernel_stats() {
            if k.class != Some(KernelClass::Fused) {
                t.flops += k.flops;
                t.bytes += k.bytes_read + k.bytes_written;
            }
            t.launches += k.launches;
        }
        t
    }
}

pub fn new_tracer() -> Arc<Tracer> {
    Arc::new(Tracer::new())
}

/// Events the program's own tracer recorded on timeline 0.
pub fn tracer_events(tracer: &Tracer) -> usize {
    tracer.snapshot().first().map_or(0, |r| r.events.len())
}

/// The pieces `Solver::step` is made of, held separately so each public
/// function can be called — and timed — on its own:
/// `cons_to_prim_field` + `try_max_dt_geom` (dt select), `rk_step` around
/// `apply_bcs` + `compute_rhs` per stage, `scan_and_convert`.
pub struct Parts {
    ctx: Context,
    cfg: SolverConfig,
    fluids: Vec<Fluid>,
    bc: BcSpec,
    grid: Grid,
    q: StateField,
    ws: RhsWorkspace,
    rk: RkWorkspace,
    health: HealthConfig,
}

impl Parts {
    pub fn new(case: &Case) -> Parts {
        let ctx = case.context();
        let dom = case.builder.domain(case.ghost_layers());
        let grid = case.builder.grid();
        let q = case.builder.init_block(&ctx, &dom, &grid, [0, 0, 0]);
        Parts {
            cfg: case.cfg,
            fluids: case.builder.fluids.clone(),
            bc: case.builder.bc,
            ws: RhsWorkspace::new(dom, &grid),
            rk: RkWorkspace::new(&q),
            health: HealthConfig::default(),
            grid,
            q,
            ctx,
        }
    }

    /// One time step assembled from the public pieces, a span around each.
    pub fn step(&mut self, sp: &Spans) -> Result<(), String> {
        let _step = sp.span("probe.step");
        let dom = *self.q.domain();
        let dt = match self.cfg.dt {
            DtMode::Fixed(dt) => dt,
            DtMode::Cfl(c) => {
                let _dt = sp.span("core.cfl.dt_select");
                {
                    let _c2p = sp.span("core.state.cons_to_prim");
                    cons_to_prim_field(&self.ctx, &self.fluids, &self.q, &mut self.ws.prim);
                }
                let w = [
                    self.grid.x.widths_with_ghosts(dom.pad(0)),
                    self.grid.y.widths_with_ghosts(dom.pad(1)),
                    self.grid.z.widths_with_ghosts(dom.pad(2)),
                ];
                let _max = sp.span("core.cfl.max_dt");
                try_max_dt_geom(
                    &self.ctx,
                    &self.fluids,
                    &self.ws.prim,
                    [&w[0], &w[1], &w[2]],
                    c,
                    None,
                )
                .map_err(|e| e.to_string())?
            }
        };
        {
            // Self time of this span is the Runge-Kutta combine; the
            // boundary fill and the RHS evaluation are its children.
            let _rk = sp.span("core.time.rk_step");
            let Parts {
                ctx,
                cfg,
                fluids,
                bc,
                q,
                ws,
                rk,
                ..
            } = self;
            rk_step(cfg.scheme, dt, q, rk, |q, rhs| {
                {
                    let _bc = sp.span("core.bc.apply_bcs");
                    apply_bcs(ctx, q, bc, [(false, false); 3]);
                }
                let _rhs = sp.span("core.rhs.compute_rhs");
                compute_rhs(ctx, &cfg.rhs, fluids, q, ws, rhs);
            });
        }
        let _scan = sp.span("core.health.scan_and_convert");
        match scan_and_convert(
            &self.ctx,
            &self.fluids,
            &self.health,
            &self.q,
            &mut self.ws.prim,
        ) {
            None => Ok(()),
            Some(v) => Err(format!("health violation in the probe step: {v:?}")),
        }
    }
}

/// `acc`: seconds per launch of an empty kernel body — the bookkeeping a
/// launch costs before it does any work. With `workers > 1` the launch is
/// big enough (`PAR_MIN_ITEMS`) to be split across gangs.
pub fn empty_launch_s(workers: usize, reps: usize) -> f64 {
    let ctx = Context::with_workers(workers);
    let cfg = LaunchConfig::tuned("bench_empty_launch");
    let cost = KernelCost::new(KernelClass::Other, 0.0, 0.0, 0.0);
    let items = if workers > 1 { PAR_MIN_ITEMS } else { 1 };
    let t0 = Instant::now();
    for _ in 0..reps {
        ctx.launch_par(&cfg, cost, items, |i| {
            std::hint::black_box(i);
        });
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

// ------------------------------------------------------------ distributed

/// One distributed run: wall seconds and rank 0's message statistics.
#[derive(Debug, Clone, Copy)]
pub struct DistRun {
    pub wall_s: f64,
    pub messages: u64,
    pub bytes: u64,
}

/// `core.par`: the plain distributed driver, sendrecv or overlapped.
pub fn dist_plain(case: &Case, steps: usize, overlapped: bool) -> Result<DistRun, String> {
    let mode = if overlapped {
        ExchangeMode::Overlapped
    } else {
        ExchangeMode::Sendrecv
    };
    let t0 = Instant::now();
    let (_, stats) = run_distributed_with_mode(
        &case.builder,
        case.cfg,
        case.ranks(),
        steps,
        Staging::DeviceDirect,
        mode,
    )
    .map_err(|e| e.to_string())?;
    Ok(DistRun {
        wall_s: t0.elapsed().as_secs_f64(),
        messages: stats.messages,
        bytes: stats.bytes,
    })
}

/// `core.par`: the fault-tolerant driver, fault-free, checkpointing every
/// `every` steps into `dir` (0 = never) — what `mfc-run --checkpoint-every`
/// runs.
pub fn dist_resilient(
    case: &Case,
    steps: usize,
    dir: &Path,
    every: u64,
) -> Result<DistRun, String> {
    let opts = ResilienceOpts::fault_free(dir, every);
    let t0 = Instant::now();
    let (_, stats) = run_distributed_resilient(
        &case.builder,
        case.cfg,
        case.ranks(),
        steps,
        Staging::DeviceDirect,
        &opts,
    )
    .map_err(|e| e.to_string())?;
    Ok(DistRun {
        wall_s: t0.elapsed().as_secs_f64(),
        messages: stats.messages,
        bytes: stats.bytes,
    })
}

/// The single-rank reference of the same case, wall seconds.
pub fn single_run_s(case: &Case, steps: usize) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(run_single(&case.builder, case.cfg, steps));
    t0.elapsed().as_secs_f64()
}

/// `core.restart`: does this checkpoint file load with a good CRC?
pub fn checkpoint_loads(path: &Path) -> Result<(), String> {
    load_checkpoint(path)
        .map(|_| ())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `core.restart`: write then read back an `n`^3 two-fluid state (the size
/// of grind3d's). Returns (save MB/s, load MB/s, MB).
pub fn restart_round_trip(n: usize, path: &Path) -> Result<(f64, f64, f64), String> {
    let dom = presets::two_phase_benchmark(3, [n, n, n]).domain(3);
    let mut q = StateField::zeros(dom);
    q.fill(1.25);
    let mb = (q.as_slice().len() * 8) as f64 / 1e6;
    let t0 = Instant::now();
    save_checkpoint(path, &q, 0.5, 7).map_err(|e| e.to_string())?;
    let save_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (_, back) = load_checkpoint(path).map_err(|e| e.to_string())?;
    let load_s = t1.elapsed().as_secs_f64();
    if back.as_slice() != q.as_slice() {
        return Err("checkpoint did not round-trip".into());
    }
    let _ = std::fs::remove_file(path);
    Ok((mb / save_s, mb / load_s, mb))
}

/// `mpsim`: seconds per 2-rank `sendrecv` of `len` doubles each way.
pub fn sendrecv_s(len: usize, reps: usize) -> f64 {
    let per_rank = World::run(2, |mut comm| {
        let peer = 1 - comm.rank();
        let t0 = Instant::now();
        for i in 0..reps as u64 {
            std::hint::black_box(comm.sendrecv(peer, i, vec![1.0; len], peer, i));
        }
        t0.elapsed().as_secs_f64() / reps as f64
    });
    per_rank[0]
}

/// `mpsim`: seconds per 2-rank `allreduce_min`.
pub fn allreduce_s(reps: usize) -> f64 {
    let per_rank = World::run(2, |mut comm| {
        let t0 = Instant::now();
        for i in 0..reps {
            std::hint::black_box(comm.allreduce_min(i as f64 + comm.rank() as f64));
        }
        t0.elapsed().as_secs_f64() / reps as f64
    });
    per_rank[0]
}

// -------------------------------------------------------------- scheduler

pub fn partition(budget: usize, caps: &[usize]) -> Vec<usize> {
    mfc_sched::pool::partition(budget, caps)
}

pub fn parses(line: &str) -> bool {
    mfc_sched::protocol::parse_request(line).is_ok()
}

fn job(case: &Path, name: String, steps: u64) -> JobSpec {
    let mut spec = JobSpec::new(case);
    spec.name = Some(name);
    spec.max_steps = Some(steps as usize);
    spec
}

/// What the ledger says about one finished job.
#[derive(Debug, Clone, Copy)]
pub struct JobRow {
    pub done: bool,
    pub wait_ms: f64,
    pub service_ms: f64,
    pub worker_seconds: f64,
}

fn rows(records: &[JobRecord]) -> Vec<JobRow> {
    records
        .iter()
        .map(|r| JobRow {
            done: r.state == JobState::Done,
            wait_ms: r.wait_ms,
            service_ms: r.cpu_ms,
            worker_seconds: r.worker_seconds,
        })
        .collect()
}

fn sched_config(budget: usize, jobs: usize, out_dir: &Path) -> SchedConfig {
    SchedConfig {
        budget,
        queue_cap: jobs.max(1),
        out_dir: out_dir.to_path_buf(),
        ..SchedConfig::default()
    }
}

/// `sched`: run a fixed manifest (`case` at each of `steps`) to completion
/// on `budget` workers. Returns (makespan seconds, ledger rows).
pub fn run_manifest(
    case: &Path,
    steps: &[u64],
    budget: usize,
    out_dir: &Path,
) -> Result<(f64, Vec<JobRow>), String> {
    let mut sched = Scheduler::new(sched_config(budget, steps.len(), out_dir));
    for (i, &s) in steps.iter().enumerate() {
        sched
            .submit(job(case, format!("m{i}"), s))
            .map_err(|e| e.to_string())?;
    }
    let t0 = Instant::now();
    let records = sched.run();
    Ok((t0.elapsed().as_secs_f64(), rows(&records)))
}

/// `sched` + `sched.server`: a live scheduler loop in this process, as
/// `mfc-serve --listen` runs it, optionally behind its TCP front end.
pub struct LiveSched {
    client: SchedClient,
    thread: JoinHandle<Vec<JobRecord>>,
    server: Option<Server>,
}

impl LiveSched {
    pub fn start(budget: usize, queue_cap: usize, out_dir: PathBuf) -> LiveSched {
        let (client, events) = SchedClient::pair();
        let loop_client = client.clone();
        let thread = std::thread::spawn(move || {
            Scheduler::new(sched_config(budget, queue_cap, &out_dir)).serve(&loop_client, events)
        });
        LiveSched {
            client,
            thread,
            server: None,
        }
    }

    pub fn submit(&self, case: &Path, name: String, steps: u64) -> Result<u64, String> {
        self.client
            .submit(job(case, name, steps))
            .map_err(|e| e.to_string())
    }

    /// One protocol frame in, one response line out, no socket.
    pub fn handle_line(&self, line: &str) -> String {
        mfc_sched::server::handle_line(line, &self.client)
    }

    pub fn done(&self) -> Result<u64, String> {
        self.client
            .metrics()
            .map(|m| m.done)
            .map_err(|e| e.to_string())
    }

    /// Put the TCP front end in front of the loop (ephemeral port).
    pub fn listen(&mut self) -> Result<SocketAddr, String> {
        let server =
            Server::bind("127.0.0.1:0", self.client.clone(), None).map_err(|e| e.to_string())?;
        let addr = server.addr();
        self.server = Some(server);
        Ok(addr)
    }

    /// Drain, stop the front end, join the loop; returns the ledger rows.
    pub fn finish(mut self) -> Result<Vec<JobRow>, String> {
        self.client.drain().map_err(|e| e.to_string())?;
        let records = self
            .thread
            .join()
            .map_err(|_| "scheduler loop panicked".to_string())?;
        if let Some(mut s) = self.server.take() {
            s.stop();
        }
        Ok(rows(&records))
    }
}
