//! JSON case files → simulations.
//!
//! MFC drives its Fortran targets from Python case dictionaries; this
//! crate is the equivalent front door for the reproduction. A case file
//! describes fluids, grid, boundary conditions, patches, numerics, and
//! output; [`run_case`] executes it serially or on simulated ranks.
//!
//! ```json
//! {
//!   "name": "sod",
//!   "fluids": [{ "gamma": 1.4, "pi_inf": 0.0 }],
//!   "ndim": 1,
//!   "cells": [200, 1, 1],
//!   "lo": [0.0, 0.0, 0.0],
//!   "hi": [1.0, 1.0, 1.0],
//!   "bc": "transmissive",
//!   "patches": [
//!     { "region": "all",
//!       "state": { "alpha": [1.0], "rho": [0.125], "vel": [0,0,0], "p": 0.1 } },
//!     { "region": { "half_space": { "axis": 0, "bound": 0.5 } },
//!       "state": { "alpha": [1.0], "rho": [1.0], "vel": [0,0,0], "p": 1.0 } }
//!   ],
//!   "numerics": { "order": "weno5", "solver": "hllc", "cfl": 0.5 },
//!   "run": { "steps": 100 },
//!   "output": { "dir": "out", "vtk": true }
//! }
//! ```

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use std::sync::Arc;

use mfc_acc::{resilience_summary, Context, Ledger};
use mfc_core::axisym::Geometry;
use mfc_core::bc::{BcKind, BcSpec};
use mfc_core::case::{CaseBuilder, Patch};
use mfc_core::eos::MAX_FLUIDS;
use mfc_core::fluid::Fluid;
use mfc_core::output::write_vtk_rectilinear;
#[cfg(test)]
use mfc_core::par::run_single;
use mfc_core::par::{
    run_distributed_resilient, ExchangeMode, GlobalField, ResilienceOpts, WaveOutput,
};
use mfc_core::probes::{Probe, ProbeSet};
use mfc_core::recovery::RecoveryPolicy;
use mfc_core::rhs::{PackStrategy, RhsConfig, RhsMode};
use mfc_core::riemann::RiemannSolver;
use mfc_core::solver::{DtMode, Solver, SolverConfig};
use mfc_core::time::TimeScheme;
use mfc_core::weno::WenoOrder;
use mfc_core::HealthConfig;
use mfc_mpsim::{
    best_block_dims, validate_halo_extents, FailurePolicy, FaultCtx, FaultPlan, Staging,
    DEFAULT_WAVE_SIZE,
};
use mfc_trace::Tracer;

/// Boundary spec: one kind for all faces, or per-axis pairs.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(untagged)]
pub enum BcConfig {
    Uniform(BcKind),
    Full { lo: [BcKind; 3], hi: [BcKind; 3] },
}

impl BcConfig {
    pub fn to_spec(&self) -> BcSpec {
        match self {
            BcConfig::Uniform(k) => BcSpec::all(*k),
            BcConfig::Full { lo, hi } => BcSpec { lo: *lo, hi: *hi },
        }
    }
}

/// Numerical options.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default)]
pub struct NumericsConfig {
    pub order: WenoOrder,
    pub solver: RiemannSolver,
    pub pack: PackStrategy,
    /// Sweep engine: staged grid-sized buffers or the fused pencil engine.
    pub mode: RhsMode,
    /// Coordinate system: cartesian / axisymmetric / cylindrical3_d.
    pub geometry: Geometry,
    pub scheme: String,
    pub cfl: f64,
    /// Fixed dt overrides the CFL bound when set.
    pub dt: Option<f64>,
    /// Distributed runs: overlap the halo exchange with the interior RHS
    /// sweeps (async-queue analog of the paper's OpenACC overlap).
    /// Bitwise identical to the default exchange. Settable from the
    /// command line as `--overlap`.
    pub overlap: bool,
    /// Worker threads per rank for the gang-parallel kernels. Results are
    /// bitwise identical at every count; default 1 keeps goldens and
    /// serial baselines untouched. Settable as `--workers N`.
    pub workers: usize,
    /// SIMD lane width for the vectorized kernels (OpenACC `vector`
    /// analog). Must be a power of two in 1..=8; results are bitwise
    /// identical at every width. Settable as `--vector-width N`.
    pub vector_width: usize,
}

impl Default for NumericsConfig {
    fn default() -> Self {
        NumericsConfig {
            order: WenoOrder::Weno5,
            solver: RiemannSolver::Hllc,
            pack: PackStrategy::Tiled,
            mode: RhsMode::default(),
            geometry: Geometry::Cartesian,
            scheme: "rk3".to_string(),
            cfl: 0.5,
            dt: None,
            overlap: false,
            workers: 1,
            vector_width: mfc_acc::DEFAULT_WIDTH,
        }
    }
}

impl NumericsConfig {
    /// The halo-exchange mode distributed drivers run with.
    pub fn exchange(&self) -> ExchangeMode {
        if self.overlap {
            ExchangeMode::Overlapped
        } else {
            ExchangeMode::Sendrecv
        }
    }

    pub fn scheme(&self) -> Result<TimeScheme, String> {
        match self.scheme.as_str() {
            "rk1" | "euler" => Ok(TimeScheme::Rk1),
            "rk2" => Ok(TimeScheme::Rk2),
            "rk3" => Ok(TimeScheme::Rk3),
            other => Err(format!("unknown time scheme '{other}'")),
        }
    }

    pub fn to_solver_config(&self) -> Result<SolverConfig, String> {
        mfc_acc::validate_width(self.vector_width)?;
        Ok(SolverConfig {
            rhs: RhsConfig {
                order: self.order,
                solver: self.solver,
                pack: self.pack,
                mode: self.mode,
                geometry: self.geometry,
                ..Default::default()
            },
            scheme: self.scheme()?,
            dt: match self.dt {
                Some(dt) => DtMode::Fixed(dt),
                None => DtMode::Cfl(self.cfl),
            },
            workers: self.workers.max(1),
            vector_width: self.vector_width,
        })
    }
}

/// Stopping criteria and execution shape.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default)]
pub struct RunConfig {
    /// Step budget (0 = until t_end only).
    pub steps: usize,
    /// Optional end time.
    pub t_end: Option<f64>,
    /// Simulated ranks (1 = serial).
    pub ranks: usize,
    /// Checkpoint wave period in steps (0 = off). Any non-zero value —
    /// or a fault plan, or more than one rank — runs the distributed
    /// driver. Settable from the command line as `--checkpoint-every N`.
    pub checkpoint_every: u64,
    /// Path to a fault-plan JSON file (see `mfc_mpsim::FaultPlan`).
    /// Settable from the command line as `--faults plan.json`.
    pub faults: Option<PathBuf>,
    /// Path to a recovery-ladder JSON file (see
    /// `mfc_core::RecoveryPolicy`); arms the numerical-health watchdog
    /// with graceful degradation. Settable from the command line as
    /// `--recovery ladder.json`.
    pub recovery: Option<PathBuf>,
    /// Per-step retry budget override for the recovery ladder; arms the
    /// default ladder when no `recovery` file is given. Settable from
    /// the command line as `--max-retries N`.
    pub max_retries: Option<u32>,
    /// Write a chrome-trace JSON (per-rank span timelines, kernel events
    /// with their ledger attributes, comm/collective/io events, and the
    /// embedded analytic kernel ledger) to this path after the run.
    /// Settable from the command line as `--trace out.json`. Load in
    /// Perfetto / chrome://tracing, or summarize with `mfc-trace-report`.
    pub trace: Option<PathBuf>,
    /// What the survivors do about a *permanent* rank death: `revive`
    /// (transient semantics — a permanent loss is unrecoverable),
    /// `shrink` (survivor consensus, smaller decomposition, checkpoint
    /// redistribution), or `spare` (promote a hot spare into the slot).
    /// Settable from the command line as `--failure-policy P`.
    pub failure_policy: FailurePolicy,
    /// Hot spare ranks provisioned outside the decomposition for
    /// `failure_policy: spare`. Settable from the command line as
    /// `--spares N`.
    pub spares: usize,
    /// Checkpoint retention: keep this many newest committed waves per
    /// rank (at least 1; the newest committed wave is never deleted).
    /// Settable from the command line as `--ckpt-keep N`.
    pub ckpt_keep: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            steps: 0,
            t_end: None,
            ranks: 0,
            checkpoint_every: 0,
            faults: None,
            recovery: None,
            max_retries: None,
            trace: None,
            failure_policy: FailurePolicy::Revive,
            spares: 0,
            ckpt_keep: 2,
        }
    }
}

/// Output options.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default)]
pub struct OutputConfig {
    pub dir: PathBuf,
    /// Write a legacy-VTK file of the final state.
    pub vtk: bool,
}

impl Default for OutputConfig {
    fn default() -> Self {
        OutputConfig {
            dir: PathBuf::from("out"),
            vtk: false,
        }
    }
}

/// Wave-throttled I/O options (§III-A's writer waves).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default)]
pub struct IoConfig {
    /// Writer-wave width for the file-per-process writer: at most this
    /// many ranks hold open files at once. MFC's production value is 128
    /// ([`mfc_mpsim::DEFAULT_WAVE_SIZE`]). Settable from the command line
    /// as `--io-wave N`.
    pub wave: usize,
    /// Distributed runs only: every rank also writes its block of the
    /// final state as a wave file under `<output.dir>/waves` (the paper's
    /// I/O path) for `mfc-post` to reassemble, bitwise identical to the
    /// in-memory gather. Combines with checkpointing, fault plans and the
    /// recovery ladder.
    pub wave_files: bool,
}

impl Default for IoConfig {
    fn default() -> Self {
        IoConfig {
            wave: DEFAULT_WAVE_SIZE,
            wave_files: false,
        }
    }
}

/// A probe request in the case file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProbeConfig {
    pub name: String,
    pub x: [f64; 3],
}

/// A complete case file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CaseFile {
    pub name: String,
    pub fluids: Vec<Fluid>,
    pub ndim: usize,
    pub cells: [usize; 3],
    #[serde(default = "default_lo")]
    pub lo: [f64; 3],
    #[serde(default = "default_hi")]
    pub hi: [f64; 3],
    pub bc: BcConfig,
    pub patches: Vec<Patch>,
    #[serde(default)]
    pub smear_cells: f64,
    #[serde(default)]
    pub numerics: NumericsConfig,
    #[serde(default)]
    pub run: RunConfig,
    #[serde(default)]
    pub output: OutputConfig,
    #[serde(default)]
    pub io: IoConfig,
    /// Time-series probes sampled every step (serial runs only); each
    /// writes `<name>_probe.csv` under the output directory.
    #[serde(default)]
    pub probes: Vec<ProbeConfig>,
}

fn default_lo() -> [f64; 3] {
    [0.0; 3]
}

fn default_hi() -> [f64; 3] {
    [1.0; 3]
}

impl CaseFile {
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("case file parse error: {e}"))
    }

    pub fn from_path(path: &Path) -> Result<Self, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
        Self::from_json(&text)
    }

    /// Validate and lower into a [`CaseBuilder`].
    pub fn to_case(&self) -> Result<CaseBuilder, String> {
        if self.fluids.is_empty() {
            return Err("at least one fluid is required".into());
        }
        // The kernels' per-fluid private arrays are sized at compile time.
        if self.fluids.len() > MAX_FLUIDS {
            return Err(format!(
                "at most {MAX_FLUIDS} fluids are supported, got {}",
                self.fluids.len()
            ));
        }
        if !(1..=3).contains(&self.ndim) {
            return Err(format!("ndim must be 1..=3, got {}", self.ndim));
        }
        if self.patches.is_empty() {
            return Err("at least one patch is required".into());
        }
        for (i, p) in self.patches.iter().enumerate() {
            if p.state.alpha.len() != self.fluids.len() || p.state.rho.len() != self.fluids.len() {
                return Err(format!(
                    "patch {i}: alpha/rho must have one entry per fluid ({})",
                    self.fluids.len()
                ));
            }
            let asum: f64 = p.state.alpha.iter().sum();
            if (asum - 1.0).abs() > 1e-6 {
                return Err(format!("patch {i}: volume fractions sum to {asum}, not 1"));
            }
        }
        let mut cb = CaseBuilder::new(self.fluids.clone(), self.ndim, self.cells)
            .extent(self.lo, self.hi)
            .bc(self.bc.to_spec())
            .smear(self.smear_cells);
        for p in &self.patches {
            cb = cb.patch(p.region, p.state.clone());
        }
        Ok(cb)
    }
}

/// Summary of a finished run.
#[derive(Debug, Clone, Serialize)]
pub struct RunSummary {
    pub name: String,
    pub steps: u64,
    pub time: f64,
    pub cells: usize,
    pub grind_ns: f64,
    pub vtk_path: Option<PathBuf>,
    /// Rendered resilience event table (checkpoints, detections,
    /// rollbacks, replays, health faults, retries with per-event
    /// timing); empty when nothing eventful happened.
    pub resilience: String,
}

/// Typed failure of [`run_case`]. `mfc-run` maps each variant to a
/// distinct process exit code (config → 2, I/O → 3, numerical → 4) so
/// scripts can tell a bad case file from a solver blow-up.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The case file or command-line configuration is invalid.
    Config(String),
    /// The filesystem said no (case/plan files, output dir, probes, VTK).
    Io(String),
    /// The numerical-health watchdog aborted the run (after exhausting
    /// the recovery ladder, if one was armed).
    Numerical(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Config(m) => write!(f, "invalid configuration: {m}"),
            RunError::Io(m) => write!(f, "i/o failure: {m}"),
            RunError::Numerical(m) => write!(f, "numerical failure: {m}"),
        }
    }
}

impl std::error::Error for RunError {}

/// A bad rank layout or an inconsistent fault plan is a configuration
/// problem (exit code 2), a failed checkpoint write is I/O (exit code
/// 3); everything else a distributed driver reports is a solver blow-up.
fn map_resilience_err(e: mfc_core::par::ResilienceError) -> RunError {
    match &e {
        mfc_core::par::ResilienceError::Decomposition { .. }
        | mfc_core::par::ResilienceError::Plan { .. } => RunError::Config(e.to_string()),
        mfc_core::par::ResilienceError::Io { .. } => RunError::Io(e.to_string()),
        _ => RunError::Numerical(e.to_string()),
    }
}

/// Create `dir` (and parents) if needed and prove it is writable by
/// creating and removing a probe file, typed as [`RunError::Io`]
/// (exit 3). Long-running services call this at startup so an
/// unwritable artifact directory fails *before* any job runs, not when
/// the first result is flushed.
pub fn ensure_writable_dir(dir: &Path) -> Result<(), RunError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| RunError::Io(format!("cannot create {}: {e}", dir.display())))?;
    let probe = dir.join(format!(".mfc_write_probe_{}", std::process::id()));
    std::fs::write(&probe, b"probe")
        .map_err(|e| RunError::Io(format!("{} is not writable: {e}", dir.display())))?;
    std::fs::remove_file(&probe)
        .map_err(|e| RunError::Io(format!("{} is not writable: {e}", dir.display())))?;
    Ok(())
}

/// What [`dry_run`] validated, printed by `mfc-run --dry-run`.
#[derive(Debug, Clone, Serialize)]
pub struct DryRunReport {
    pub name: String,
    pub cells: [usize; 3],
    pub neq: usize,
    pub ranks: usize,
    /// Rank decomposition the distributed drivers would use.
    pub dims: [usize; 3],
    pub ghost_layers: usize,
    pub workers: usize,
    pub vector_width: usize,
    pub steps: usize,
    pub t_end: Option<f64>,
}

/// Fully validate a case without stepping: schema lowering, solver
/// configuration (time scheme, worker and vector-width bounds), stopping
/// criteria, I/O wave width, rank decomposition and halo extents, and any
/// fault-plan / recovery-ladder files referenced by the run spec. Never
/// creates directories and never steps the solver.
///
/// This is both what `mfc-run --dry-run` reports (exit 0/2/3) and the
/// admission-time validation `mfc-sched` applies so malformed jobs are
/// rejected at enqueue rather than mid-ensemble.
pub fn dry_run(case_file: &CaseFile) -> Result<DryRunReport, RunError> {
    let case = case_file.to_case().map_err(RunError::Config)?;
    let cfg = case_file
        .numerics
        .to_solver_config()
        .map_err(RunError::Config)?;
    if case_file.run.steps == 0 && case_file.run.t_end.is_none() {
        return Err(RunError::Config(
            "run.steps or run.t_end must be set".into(),
        ));
    }
    if case_file.io.wave == 0 {
        return Err(RunError::Config("io.wave must be at least 1".into()));
    }
    let ranks = case_file.run.ranks.max(1);
    if ranks > 1 && case_file.run.t_end.is_some() {
        return Err(RunError::Config(
            "t_end is only supported for serial runs; use run.steps".into(),
        ));
    }
    let (dims, ng) = decomposition(case_file, &cfg)?;
    if let Some(path) = &case_file.run.faults {
        let text = std::fs::read_to_string(path)
            .map_err(|e| RunError::Io(format!("cannot read fault plan {path:?}: {e}")))?;
        let plan = FaultPlan::from_json(&text)
            .map_err(|e| RunError::Config(format!("bad fault plan: {e}")))?;
        plan.validate_for(ranks)
            .map_err(|e| RunError::Config(format!("bad fault plan: {e}")))?;
    }
    if let Some(path) = &case_file.run.recovery {
        let text = std::fs::read_to_string(path)
            .map_err(|e| RunError::Io(format!("cannot read recovery ladder {path:?}: {e}")))?;
        let _: RecoveryPolicy = serde_json::from_str(&text)
            .map_err(|e| RunError::Config(format!("bad recovery ladder: {e}")))?;
    }
    Ok(DryRunReport {
        name: case_file.name.clone(),
        cells: case_file.cells,
        neq: case.eq().neq(),
        ranks,
        dims,
        ghost_layers: ng,
        workers: cfg.workers,
        vector_width: cfg.vector_width,
        steps: case_file.run.steps,
        t_end: case_file.run.t_end,
    })
}

/// Rank decomposition of a lowered case and the ghost depth it has to
/// feed: every block must be at least that many cells wide along every
/// active axis, on one rank as on many.
fn decomposition(
    case_file: &CaseFile,
    cfg: &SolverConfig,
) -> Result<([usize; 3], usize), RunError> {
    let ng = cfg.rhs.order.ghost_layers().max(1);
    let dims = best_block_dims(case_file.run.ranks.max(1), case_file.cells);
    validate_halo_extents(dims, case_file.cells, case_file.ndim, ng)
        .map_err(|e| RunError::Config(e.to_string()))?;
    Ok((dims, ng))
}

/// Execute a case file end to end.
pub fn run_case(case_file: &CaseFile) -> Result<RunSummary, RunError> {
    let case = case_file.to_case().map_err(RunError::Config)?;
    let cfg = case_file
        .numerics
        .to_solver_config()
        .map_err(RunError::Config)?;
    decomposition(case_file, &cfg)?;
    let steps = if case_file.run.steps == 0 && case_file.run.t_end.is_none() {
        return Err(RunError::Config(
            "run.steps or run.t_end must be set".into(),
        ));
    } else {
        case_file.run.steps
    };

    if case_file.io.wave == 0 {
        return Err(RunError::Config("io.wave must be at least 1".into()));
    }

    ensure_writable_dir(&case_file.output.dir)?;

    // One span tracer for the whole run; every rank registers its own
    // timeline against it. `None` keeps the per-launch fast path.
    let tracer: Option<Arc<Tracer>> = case_file
        .run
        .trace
        .as_ref()
        .map(|_| Arc::new(Tracer::new()));

    // Recovery ladder: an explicit file, or the default ladder when only
    // a retry budget is given.
    let mut recovery: Option<RecoveryPolicy> = match &case_file.run.recovery {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| RunError::Io(format!("cannot read recovery ladder {path:?}: {e}")))?;
            Some(
                serde_json::from_str(&text)
                    .map_err(|e| RunError::Config(format!("bad recovery ladder: {e}")))?,
            )
        }
        None => None,
    };
    if let Some(n) = case_file.run.max_retries {
        recovery
            .get_or_insert_with(RecoveryPolicy::default)
            .max_retries = n;
    }

    // More than one rank, a fault plan or a checkpoint period runs the
    // distributed driver (on simulated ranks, even when ranks == 1);
    // everything else is the serial solver.
    let distributed = case_file.run.ranks > 1
        || case_file.run.checkpoint_every > 0
        || case_file.run.faults.is_some();

    let (global, steps_done, t_done, grind_ns, resilience) = if distributed {
        if case_file.run.t_end.is_some() {
            return Err(RunError::Config(
                "t_end is only supported for serial runs; use run.steps".into(),
            ));
        }
        let ranks = case_file.run.ranks.max(1);
        let plan = match &case_file.run.faults {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| RunError::Io(format!("cannot read fault plan {path:?}: {e}")))?;
                FaultPlan::from_json(&text)
                    .map_err(|e| RunError::Config(format!("bad fault plan: {e}")))?
            }
            None => FaultPlan::none(),
        };
        plan.validate_for(ranks)
            .map_err(|e| RunError::Config(format!("bad fault plan: {e}")))?;
        let spares = case_file.run.spares;
        let faults = if plan.is_empty() && spares == 0 {
            None
        } else {
            Some(Arc::new(FaultCtx::new_with_spares(plan, ranks, spares)))
        };
        let events = Arc::new(Ledger::default());
        let opts = ResilienceOpts {
            checkpoint_every: case_file.run.checkpoint_every,
            ckpt_dir: case_file.output.dir.join("ckpt"),
            faults,
            events: Some(Arc::clone(&events)),
            recovery,
            health: HealthConfig::default(),
            trace: tracer.clone(),
            exchange: case_file.numerics.exchange(),
            failure_policy: case_file.run.failure_policy,
            spares,
            ckpt_keep: case_file.run.ckpt_keep,
            // The paper's I/O path: every rank also writes its block with
            // the wave-throttled writer, for `mfc-post` to reassemble
            // (bitwise identical to the in-memory gather used here).
            output: case_file.io.wave_files.then(|| WaveOutput {
                dir: case_file.output.dir.join("waves"),
                wave_size: case_file.io.wave,
                step_id: steps,
            }),
        };
        let t0 = std::time::Instant::now();
        let (gf, _) =
            run_distributed_resilient(&case, cfg, ranks, steps, Staging::DeviceDirect, &opts)
                .map_err(map_resilience_err)?;
        let wall = t0.elapsed();
        let cells = gf.n.iter().product::<usize>();
        let grind = wall.as_nanos() as f64
            / (cells as f64 * gf.neq as f64 * (steps as f64 * cfg.scheme.stages() as f64).max(1.0));
        (
            gf,
            steps as u64,
            f64::NAN,
            grind,
            resilience_summary(&events),
        )
    } else {
        // Explicit worker plumbing: the context uses exactly the
        // configured count (default 1) instead of silently grabbing the
        // machine's available parallelism.
        let mut ctx = Context::with_workers(cfg.workers).with_vector_width(cfg.vector_width);
        if let Some(tr) = &tracer {
            ctx.set_tracer(tr.handle(0));
        }
        let mut solver = Solver::new(&case, cfg, ctx);
        if let Some(p) = recovery {
            solver = solver.with_recovery(p);
        }
        let mut probes = if case_file.probes.is_empty() {
            None
        } else {
            Some(ProbeSet::new(
                case_file
                    .probes
                    .iter()
                    .map(|p| Probe {
                        name: p.name.clone(),
                        x: p.x,
                    })
                    .collect(),
                solver.domain(),
                solver.grid(),
            ))
        };
        let t_end = case_file.run.t_end.unwrap_or(f64::INFINITY);
        let max_steps = if steps == 0 { usize::MAX } else { steps };
        let mut taken = 0usize;
        while taken < max_steps && solver.time() < t_end {
            solver
                .step()
                .map_err(|e| RunError::Numerical(e.to_string()))?;
            taken += 1;
            if let Some(ps) = probes.as_mut() {
                ps.sample(solver.time(), &case.fluids, solver.state());
            }
        }
        if let Some(ps) = &probes {
            for idx in 0..ps.len() {
                let path = case_file
                    .output
                    .dir
                    .join(format!("{}_probe.csv", ps.probe(idx).name));
                let mut f = std::fs::File::create(&path)
                    .map_err(|e| RunError::Io(format!("cannot create probe file: {e}")))?;
                ps.write_csv(idx, &mut f)
                    .map_err(|e| RunError::Io(format!("probe write failed: {e}")))?;
            }
        }
        // Serial ladder activity (health faults, retries, rung changes)
        // lands in the solver's own ledger.
        let resilience = resilience_summary(solver.context().ledger());
        solver.context().flush_ledger_to_trace();
        (
            run_single_snapshot(&solver, &case),
            solver.steps(),
            solver.time(),
            solver.grind().ns_per_cell_eq_rhs(),
            resilience,
        )
    };

    if let (Some(path), Some(tr)) = (&case_file.run.trace, &tracer) {
        mfc_trace::chrome::write_file(path, &tr.snapshot())
            .map_err(|e| RunError::Io(format!("trace write failed: {e}")))?;
    }

    let vtk_path = if case_file.output.vtk {
        let path = case_file.output.dir.join(format!("{}.vtk", case_file.name));
        let grid = case.grid();
        let eq = case.eq();
        // Named fields: partial densities, velocity, energy, alphas.
        let mut fields: Vec<(String, usize)> = Vec::new();
        for f in 0..eq.nf() {
            fields.push((format!("alpha_rho_{f}"), eq.cont(f)));
        }
        for d in 0..eq.ndim() {
            fields.push((format!("momentum_{d}"), eq.mom(d)));
        }
        fields.push(("energy".to_string(), eq.energy()));
        for a in 0..eq.n_adv() {
            fields.push((format!("alpha_{a}"), eq.adv(a)));
        }
        let refs: Vec<(&str, usize)> = fields.iter().map(|(n, s)| (n.as_str(), *s)).collect();
        write_vtk_rectilinear(&path, &grid, &global, &refs)
            .map_err(|e| RunError::Io(format!("vtk write failed: {e}")))?;
        Some(path)
    } else {
        None
    };

    Ok(RunSummary {
        name: case_file.name.clone(),
        steps: steps_done,
        time: t_done,
        cells: global.n.iter().product(),
        grind_ns,
        vtk_path,
        resilience,
    })
}

/// Snapshot a serial solver's interior as a [`GlobalField`].
fn run_single_snapshot(solver: &Solver, case: &CaseBuilder) -> GlobalField {
    let dom = *solver.domain();
    let q = solver.state();
    let mut data = Vec::with_capacity(dom.interior_cells() * dom.eq.neq());
    for e in 0..dom.eq.neq() {
        for (i, j, k) in dom.interior() {
            data.push(q.get(i, j, k, e));
        }
    }
    GlobalField {
        n: case.cells,
        neq: dom.eq.neq(),
        data,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Keep the serial snapshot helper honest against the parallel gather
    // path (formerly a dead `_assert_snapshot_matches_par` helper with an
    // `unwrap` on the run path).
    #[test]
    fn snapshot_matches_parallel_gather() {
        let cf = CaseFile::from_json(&sod_json()).unwrap();
        let case = cf.to_case().unwrap();
        let cfg = cf.numerics.to_solver_config().unwrap();
        let a = run_single(&case, cfg, 0);
        let solver = Solver::new(&case, cfg, Context::serial());
        let b = run_single_snapshot(&solver, &case);
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }

    fn sod_json() -> String {
        r#"{
            "name": "sod",
            "fluids": [{ "gamma": 1.4, "pi_inf": 0.0 }],
            "ndim": 1,
            "cells": [64, 1, 1],
            "bc": "transmissive",
            "patches": [
                { "region": "all",
                  "state": { "alpha": [1.0], "rho": [0.125], "vel": [0.0, 0.0, 0.0], "p": 0.1 } },
                { "region": { "half_space": { "axis": 0, "bound": 0.5 } },
                  "state": { "alpha": [1.0], "rho": [1.0], "vel": [0.0, 0.0, 0.0], "p": 1.0 } }
            ],
            "run": { "steps": 5 }
        }"#
        .to_string()
    }

    #[test]
    fn parses_minimal_case() {
        let cf = CaseFile::from_json(&sod_json()).unwrap();
        assert_eq!(cf.name, "sod");
        assert_eq!(cf.cells, [64, 1, 1]);
        assert_eq!(cf.numerics.cfl, 0.5); // default
        let case = cf.to_case().unwrap();
        assert_eq!(case.eq().neq(), 3);
    }

    #[test]
    fn runs_end_to_end() {
        let mut cf = CaseFile::from_json(&sod_json()).unwrap();
        cf.output.dir = std::env::temp_dir().join(format!("mfc_cli_{}", std::process::id()));
        cf.output.vtk = true;
        let summary = run_case(&cf).unwrap();
        assert_eq!(summary.steps, 5);
        assert!(summary.grind_ns > 0.0);
        let vtk = summary.vtk_path.unwrap();
        let text = std::fs::read_to_string(&vtk).unwrap();
        assert!(text.contains("SCALARS energy double 1"));
        let _ = std::fs::remove_dir_all(cf.output.dir);
    }

    #[test]
    fn distributed_run_via_case_file() {
        let mut cf = CaseFile::from_json(&sod_json()).unwrap();
        cf.run.ranks = 2;
        cf.output.dir = std::env::temp_dir().join(format!("mfc_cli_par_{}", std::process::id()));
        let summary = run_case(&cf).unwrap();
        assert_eq!(summary.steps, 5);
        let _ = std::fs::remove_dir_all(cf.output.dir);
    }

    #[test]
    fn overlapped_distributed_run_matches_default() {
        let mut cf = CaseFile::from_json(&sod_json()).unwrap();
        cf.run.ranks = 2;
        cf.output.dir = std::env::temp_dir().join(format!("mfc_cli_ov_{}", std::process::id()));
        let plain = run_case(&cf).unwrap();
        cf.numerics.overlap = true;
        assert_eq!(cf.numerics.exchange(), ExchangeMode::Overlapped);
        let overlapped = run_case(&cf).unwrap();
        assert_eq!(plain.steps, overlapped.steps);
        let _ = std::fs::remove_dir_all(cf.output.dir);
    }

    #[test]
    fn thin_rank_case_is_a_config_error() {
        // Regression (thin-rank halo bug): 64 cells over 32 ranks is 2
        // cells per rank under a 3-layer halo — a config error (exit 2),
        // not a rank panic.
        let mut cf = CaseFile::from_json(&sod_json()).unwrap();
        cf.run.ranks = 32;
        cf.output.dir = std::env::temp_dir().join(format!("mfc_cli_thin_{}", std::process::id()));
        let err = run_case(&cf).unwrap_err();
        assert!(
            matches!(&err, RunError::Config(m) if m.contains("decomposition")),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(cf.output.dir);
    }

    #[test]
    fn probes_write_time_series_csv() {
        let mut cf = CaseFile::from_json(&sod_json()).unwrap();
        cf.run.steps = 4;
        cf.probes = vec![ProbeConfig {
            name: "mid".into(),
            x: [0.5, 0.0, 0.0],
        }];
        cf.output.dir = std::env::temp_dir().join(format!("mfc_cli_probe_{}", std::process::id()));
        let summary = run_case(&cf).unwrap();
        assert_eq!(summary.steps, 4);
        let csv = std::fs::read_to_string(cf.output.dir.join("mid_probe.csv")).unwrap();
        assert_eq!(csv.lines().count(), 4);
        // Each row: t + 3 primitive values for 1-fluid 1-D.
        assert_eq!(csv.lines().next().unwrap().split(',').count(), 4);
        let _ = std::fs::remove_dir_all(&cf.output.dir);
    }

    #[test]
    fn resilient_case_run_reports_events() {
        let mut cf = CaseFile::from_json(&sod_json()).unwrap();
        cf.run.ranks = 2;
        cf.run.steps = 8;
        cf.run.checkpoint_every = 3;
        cf.output.dir = std::env::temp_dir().join(format!("mfc_cli_resil_{}", std::process::id()));
        std::fs::create_dir_all(&cf.output.dir).unwrap();
        let plan_path = cf.output.dir.join("plan.json");
        std::fs::write(&plan_path, r#"{ "deaths": [ { "rank": 1, "step": 4 } ] }"#).unwrap();
        cf.run.faults = Some(plan_path);
        let summary = run_case(&cf).unwrap();
        assert_eq!(summary.steps, 8);
        assert!(
            summary.resilience.contains("checkpoint"),
            "{}",
            summary.resilience
        );
        assert!(
            summary.resilience.contains("fault_detected"),
            "{}",
            summary.resilience
        );
        assert!(
            summary.resilience.contains("rollback"),
            "{}",
            summary.resilience
        );
        assert!(
            summary.resilience.contains("replay"),
            "{}",
            summary.resilience
        );
        let _ = std::fs::remove_dir_all(&cf.output.dir);
    }

    #[test]
    fn resilient_fault_free_matches_plain_distributed() {
        let mut cf = CaseFile::from_json(&sod_json()).unwrap();
        cf.output.dir = std::env::temp_dir().join(format!("mfc_cli_rff_{}", std::process::id()));
        let plain = run_case(&cf).unwrap();
        assert!(plain.resilience.is_empty());
        cf.run.ranks = 2;
        cf.run.checkpoint_every = 2;
        let resilient = run_case(&cf).unwrap();
        // Checkpoint commits are recorded even without faults.
        assert!(resilient.resilience.contains("checkpoint"));
        let _ = std::fs::remove_dir_all(&cf.output.dir);
    }

    #[test]
    fn ensure_writable_dir_rejects_unwritable_path_as_io() {
        // A directory can never be created underneath a regular file;
        // the failure must be the typed I/O variant (exit 3), caught at
        // validation time rather than at first write.
        let base = std::env::temp_dir().join(format!("mfc_cli_wprobe_{}", std::process::id()));
        std::fs::write(&base, b"x").unwrap();
        let err = ensure_writable_dir(&base.join("sub")).unwrap_err();
        assert!(matches!(&err, RunError::Io(_)), "{err}");
        let _ = std::fs::remove_file(&base);
    }

    #[test]
    fn rejects_bad_alpha_sums() {
        let bad = sod_json().replace("\"alpha\": [1.0]", "\"alpha\": [0.7]");
        let cf = CaseFile::from_json(&bad).unwrap();
        let err = cf.to_case().unwrap_err();
        assert!(err.contains("sum"), "{err}");
    }

    #[test]
    fn rejects_missing_run_spec() {
        let mut cf = CaseFile::from_json(&sod_json()).unwrap();
        cf.run.steps = 0;
        cf.run.t_end = None;
        assert!(run_case(&cf).is_err());
    }

    #[test]
    fn rejects_unknown_scheme() {
        let mut cf = CaseFile::from_json(&sod_json()).unwrap();
        cf.numerics.scheme = "rk9".into();
        assert!(run_case(&cf).is_err());
    }

    #[test]
    fn two_fluid_case_with_sphere_patch_parses() {
        let json = r#"{
            "name": "bubble",
            "fluids": [{ "gamma": 1.4, "pi_inf": 0.0 },
                        { "gamma": 6.12, "pi_inf": 3.43e8, "viscosity": 1.0e-3 }],
            "ndim": 2,
            "cells": [16, 16, 1],
            "bc": "periodic",
            "smear_cells": 1.0,
            "patches": [
                { "region": "all",
                  "state": { "alpha": [1e-6, 0.999999], "rho": [1.2, 1000.0],
                              "vel": [0.0, 0.0, 0.0], "p": 1.0e5 } },
                { "region": { "sphere": { "center": [0.5, 0.5, 0.0], "radius": 0.2 } },
                  "state": { "alpha": [0.999999, 1e-6], "rho": [1.2, 1000.0],
                              "vel": [0.0, 0.0, 0.0], "p": 1.0e5 } }
            ],
            "numerics": { "order": "weno3", "solver": "hllc", "pack": "geam",
                           "scheme": "rk2", "cfl": 0.4, "dt": null },
            "run": { "steps": 2 }
        }"#;
        let cf = CaseFile::from_json(json).unwrap();
        assert_eq!(cf.fluids[1].viscosity, 1.0e-3);
        let cfg = cf.numerics.to_solver_config().unwrap();
        assert_eq!(cfg.scheme, TimeScheme::Rk2);
        let mut cf = cf;
        cf.output.dir = std::env::temp_dir().join(format!("mfc_cli_2f_{}", std::process::id()));
        let summary = run_case(&cf).unwrap();
        assert_eq!(summary.steps, 2);
        let _ = std::fs::remove_dir_all(cf.output.dir);
    }
}
