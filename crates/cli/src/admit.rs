//! Admission: the one place that decides whether a case may run (MFC's
//! `m_checker`). [`admit`] is the only constructor of [`Admitted`] and an
//! `Admitted` the only way into [`Admitted::run`], so `mfc-run`, `mfc-run
//! --dry-run`, `mfc-post --case` and `mfc-sched` admission cannot disagree
//! about a case. `admit` steps nothing, creates no directory and writes
//! no file; it reads the plan and ladder files the run names, once.
//!
//! One line per rule, with what breaking it used to do. All are
//! [`RunError::Config`] (exit 2) unless marked:
//!
//! - [`CaseFile::to_case`] lowers: 1..=`MAX_FLUIDS` fluids, `ndim` 1..=3,
//!   a patch, one `alpha`/`rho` per fluid summing to 1 — EOS array panics
//! - [`crate::NumericsConfig::to_solver_config`] lowers: known scheme,
//!   `vector_width` 1 or 8, the two widths the lane kernels are compiled
//!   at — `Context::with_vector_width`
//! - `patches[0]` is the `all` background — `CaseBuilder::state_at` expect
//! - `half_space.axis` is active — index panic in `Region::contains`
//! - `numerics.cfl` in (0, 1] — assert in `cfl::try_max_dt_geom`
//! - `numerics.dt`, `run.t_end` finite and > 0 — a run that never ends
//! - `numerics.workers` ≤ [`MAX_WORKERS`] — thread exhaustion
//! - `run.ranks` + `run.spares` ≤ [`MAX_RANKS`] — thread exhaustion in
//!   `World::run` (exit 101 after `--dry-run` had said "admissible")
//! - geometry fits `ndim` and has a radial `lo` ≥ 0 — `axisym.rs` asserts;
//!   the radial axis is not periodic — r = hi wrapped onto r = lo, a run
//!   that neither conserves nor means anything
//! - `lo` < `hi`, finite, cells wider than rounding, on every axis (an
//!   inactive axis still gets a one-cell grid) — `grid.rs` asserts
//! - `run.steps` or `run.t_end` set; `io.wave` ≥ 1
//! - ranks ≤ cells and blocks ≥ the halo depth on every active axis — an
//!   unbounded `best_block_dims` search; `Domain::new` assert
//! - every probe lies inside the domain — `ProbeSet::new` assert; probes
//!   need `run.failure_policy` revive — a shrink or a spare promotion hands
//!   a probe's cell to a block without its history
//! - the fault plan parses and fits the rank count, the recovery ladder
//!   parses (unreadable file: [`RunError::Io`], exit 3)

use std::path::{Path, PathBuf};

use mfc_acc::MAX_WORKERS;
use mfc_core::axisym::Geometry;
use mfc_core::bc::BcKind;
use mfc_core::case::{CaseBuilder, Region};
use mfc_core::probes::Probe;
use mfc_core::recovery::RecoveryPolicy;
use mfc_core::run::Stop;
use mfc_core::solver::SolverConfig;
use mfc_mpsim::{best_block_dims, validate_halo_extents, FailurePolicy, FaultPlan, MAX_RANKS};

use crate::schema::{CaseFile, IoConfig, OutputConfig};
use crate::RunError;

pub(crate) mod run;

/// What admission checks, for the `--help` texts; kept beside the rules.
pub const ADMISSION_RULES: &str = "\
admission (mfc-run, --dry-run / --validate, mfc-post --case and mfc-serve
apply the same checks; a refused case is exit 2 and nothing is written):
  schema       1..=8 fluids, ndim 1..=3, patches[0] the `all` background,
               one alpha/rho per fluid summing to 1, half_space on an
               active axis
  numerics     known scheme, vector_width 1 or 8, cfl in (0, 1], fixed
               dt finite and > 0, workers <= 256
  geometry     axisymmetric needs ndim >= 2, cylindrical3_d ndim = 3, both
               a radial lo >= 0 and a non-periodic radial axis (axis 1);
               lo < hi and finite on every axis
  stopping     run.steps or run.t_end (finite, > 0), whichever comes
               first; the last step lands on t_end, on any rank count
  layout       ranks <= cells, ranks + spares <= 4096, blocks at least
               the halo depth wide on every active axis, io.wave >= 1,
               probes inside the domain and, with probes,
               failure_policy revive
  files        fault plan and recovery ladder parse and fit the rank
               count (unreadable: exit 3)
";

/// A case that passed every admission rule, lowered and ready to run.
/// Built only by [`admit`]; nothing in it can be changed afterwards.
#[derive(Debug, Clone)]
pub struct Admitted {
    name: String,
    case: CaseBuilder,
    cfg: SolverConfig,
    ranks: usize,
    dims: [usize; 3],
    ghost_layers: usize,
    stop: Stop,
    distributed: bool,
    plan: FaultPlan,
    recovery: Option<RecoveryPolicy>,
    checkpoint_every: u64,
    ckpt_keep: usize,
    failure_policy: FailurePolicy,
    spares: usize,
    trace: Option<PathBuf>,
    output: OutputConfig,
    io: IoConfig,
    probes: Vec<Probe>,
}

impl Admitted {
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The lowered case (global extents, fluids, patches, boundaries).
    pub fn case(&self) -> &CaseBuilder {
        &self.case
    }

    pub fn solver_config(&self) -> SolverConfig {
        self.cfg
    }

    /// Simulated ranks (at least 1).
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// The numerical-recovery ladder the case armed (`run.recovery`,
    /// `run.max_retries`), for a caller that steps the solver itself.
    pub fn recovery(&self) -> Option<&RecoveryPolicy> {
        self.recovery.as_ref()
    }

    /// Whether [`Admitted::run`] uses the distributed driver: more than
    /// one rank, a checkpoint period, or a fault plan. Everything else is
    /// the serial `Solver`.
    pub fn distributed(&self) -> bool {
        self.distributed
    }

    /// The stopping rule: the step budget or `t_end`, whichever is first.
    pub fn stop(&self) -> Stop {
        self.stop
    }

    /// Where a distributed run with `io.wave_files` puts its wave files.
    pub fn wave_dir(&self) -> PathBuf {
        self.output.dir.join("waves")
    }

    /// What admission established, as `mfc-run --dry-run` prints it.
    pub fn report(&self) -> String {
        format!(
            "case '{}' admissible: {:?} cells x {} eqs, {} rank(s) as {:?} ({} ghost layers), \
             {} worker(s), vector width {}, {}",
            self.name,
            self.case.cells,
            self.case.eq().neq(),
            self.ranks,
            self.dims,
            self.ghost_layers,
            self.cfg.workers,
            self.cfg.vector_width,
            match self.stop.t_end {
                t if t.is_finite() => format!("until t = {t:.4e}"),
                _ => format!("{} steps", self.stop.steps),
            }
        )
    }
}

/// Check `case_file` against every admission rule (module docs) and lower
/// it. Never steps the solver, creates a directory or writes a file.
pub fn admit(case_file: &CaseFile) -> Result<Admitted, RunError> {
    let case = case_file.to_case().map_err(RunError::Config)?;
    let cfg = case_file
        .numerics
        .to_solver_config()
        .map_err(RunError::Config)?;
    let run = &case_file.run;
    let ranks = run.ranks.max(1);
    let distributed = ranks > 1 || run.checkpoint_every > 0 || run.faults.is_some();
    let ghost_layers = cfg.rhs.order.ghost_layers().max(1);
    let dims = check_case(case_file, &case, ranks, ghost_layers).map_err(RunError::Config)?;

    let plan = match &run.faults {
        Some(path) => FaultPlan::from_json(&read_named(path, "fault plan")?)
            .map_err(|e| RunError::Config(format!("bad fault plan: {e}")))?,
        None => FaultPlan::none(),
    };
    plan.validate_for(ranks)
        .map_err(|e| RunError::Config(format!("bad fault plan: {e}")))?;
    // Recovery ladder: an explicit file, or the default ladder when only
    // a retry budget is given.
    let mut recovery: Option<RecoveryPolicy> = match &run.recovery {
        Some(path) => Some(
            serde_json::from_str(&read_named(path, "recovery ladder")?)
                .map_err(|e| RunError::Config(format!("bad recovery ladder: {e}")))?,
        ),
        None => None,
    };
    if let Some(n) = run.max_retries {
        recovery
            .get_or_insert_with(RecoveryPolicy::default)
            .max_retries = n;
    }

    Ok(Admitted {
        name: case_file.name.clone(),
        case,
        cfg,
        ranks,
        dims,
        ghost_layers,
        stop: Stop {
            steps: if run.steps == 0 {
                u64::MAX
            } else {
                run.steps as u64
            },
            t_end: run.t_end.unwrap_or(f64::INFINITY),
        },
        distributed,
        plan,
        recovery,
        checkpoint_every: run.checkpoint_every,
        ckpt_keep: run.ckpt_keep,
        failure_policy: run.failure_policy,
        spares: run.spares,
        trace: run.trace.clone(),
        output: case_file.output.clone(),
        io: case_file.io.clone(),
        probes: case_file.probes.clone(),
    })
}

/// [`admit`], reporting what it established instead of running it.
pub fn dry_run(case_file: &CaseFile) -> Result<String, RunError> {
    admit(case_file).map(|a| a.report())
}

fn read_named(path: &Path, what: &str) -> Result<String, RunError> {
    std::fs::read_to_string(path)
        .map_err(|e| RunError::Io(format!("cannot read {what} {path:?}: {e}")))
}

/// One admission rule: refuse with the formatted message unless `$ok`
/// (a comparison with NaN is false, so NaN refuses).
macro_rules! require {
    ($ok:expr, $($msg:tt)+) => {
        if $ok {
        } else {
            return Err(format!($($msg)+));
        }
    };
}

/// The rules on the case's own values (`case` is `cf` lowered); returns
/// the rank decomposition, whose blocks must be at least `ng` cells wide
/// along every active axis, on one rank as on many.
fn check_case(
    cf: &CaseFile,
    case: &CaseBuilder,
    ranks: usize,
    ng: usize,
) -> Result<[usize; 3], String> {
    let (ndim, num, run) = (case.ndim, &cf.numerics, &cf.run);
    require!(
        matches!(cf.patches[0].region, Region::All),
        "patches[0] must be the `all` background region: every cell needs a state before \
         later patches overwrite it"
    );
    for (i, p) in cf.patches.iter().enumerate() {
        let inactive = matches!(p.region, Region::HalfSpace { axis, .. } if axis >= ndim);
        require!(
            !inactive,
            "patch {i}: half_space is not on an active axis (ndim = {ndim})"
        );
    }

    let cfl = num.cfl;
    require!(
        cfl > 0.0 && cfl <= 1.0,
        "numerics.cfl must be in (0, 1], got {cfl}"
    );
    for (key, v) in [("numerics.dt", num.dt), ("run.t_end", run.t_end)] {
        let Some(v) = v else { continue };
        require!(
            v.is_finite() && v > 0.0,
            "{key} must be finite and positive, got {v}"
        );
    }
    require!(
        num.workers <= MAX_WORKERS,
        "numerics.workers = {} exceeds the limit of {MAX_WORKERS}",
        num.workers
    );
    let min_ndim = match num.geometry {
        Geometry::Cartesian => 1,
        Geometry::Axisymmetric => 2,
        Geometry::Cylindrical3D => 3,
    };
    require!(
        ndim >= min_ndim,
        "geometry {} needs ndim >= {min_ndim}, got ndim = {ndim}",
        serde_json::to_string(&num.geometry).unwrap_or_default()
    );
    require!(
        !num.geometry.has_radial_axis() || case.lo[1] >= 0.0,
        "the radial axis must start at r >= 0, got lo[1] = {}",
        case.lo[1]
    );
    require!(
        !num.geometry.has_radial_axis()
            || (case.bc.lo[1] != BcKind::Periodic && case.bc.hi[1] != BcKind::Periodic),
        "the radial axis (axis 1) cannot be periodic: r = hi would wrap onto r = lo"
    );
    for d in 0..3 {
        let (lo, hi, n) = (case.lo[d], case.hi[d], case.cells[d]);
        let dx = (hi - lo) / n as f64;
        // Faces are lo + i dx: they stay distinct only while dx clears
        // the rounding of the larger bound.
        require!(
            dx.is_finite() && dx > 4.0 * f64::EPSILON * lo.abs().max(hi.abs()),
            "axis {d}: lo = {lo}, hi = {hi} over {n} cells is not an increasing, finite, \
             resolvable extent (need lo < hi)"
        );
    }

    require!(
        run.steps != 0 || run.t_end.is_some(),
        "run.steps or run.t_end must be set"
    );
    require!(cf.io.wave != 0, "io.wave must be at least 1");
    require!(
        cf.probes.is_empty() || run.failure_policy == FailurePolicy::Revive,
        "probes need run.failure_policy revive: a shrink or a spare promotion hands a \
         probe's cell to a block without its history"
    );
    for p in &cf.probes {
        require!(
            (0..ndim).all(|d| (case.lo[d]..=case.hi[d]).contains(&p.x[d])),
            "probe '{}' at {:?} lies outside the domain",
            p.name,
            p.x
        );
    }

    let cells: f64 = case.cells.iter().map(|&n| n as f64).product();
    require!(
        ranks as f64 <= cells,
        "decomposition: run.ranks = {ranks} exceeds the grid's {cells} cells"
    );
    let threads = ranks.saturating_add(run.spares);
    require!(
        threads <= MAX_RANKS,
        "run.ranks + run.spares = {threads} exceeds the limit of {MAX_RANKS} rank threads"
    );
    let dims = best_block_dims(ranks, case.cells);
    validate_halo_extents(dims, case.cells, ndim, ng).map_err(|e| e.to_string())?;
    Ok(dims)
}
