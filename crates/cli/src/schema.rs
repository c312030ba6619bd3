//! The case-file schema: the serde types a JSON case deserialises into,
//! and their lowering to the solver's own types. Whether a case may
//! *run* is decided in [`crate::admit`], not here.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use mfc_core::axisym::Geometry;
use mfc_core::bc::{BcKind, BcSpec};
use mfc_core::case::{CaseBuilder, Patch};
use mfc_core::eos::MAX_FLUIDS;
use mfc_core::fluid::Fluid;
use mfc_core::probes::Probe;
use mfc_core::rhs::RhsConfig;
use mfc_core::riemann::RiemannSolver;
use mfc_core::solver::{DtMode, SolverConfig};
use mfc_core::time::TimeScheme;
use mfc_core::weno::WenoOrder;
use mfc_mpsim::{FailurePolicy, DEFAULT_WAVE_SIZE};

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
    /// Coordinate system: cartesian / axisymmetric / cylindrical3_d.
    pub geometry: Geometry,
    pub scheme: String,
    pub cfl: f64,
    /// Fixed dt overrides the CFL bound when set.
    pub dt: Option<f64>,
    /// Worker threads per rank for the gang-parallel kernels. Results are
    /// bitwise identical at every count; default 1 keeps goldens and
    /// serial baselines untouched. Settable as `--workers N`.
    pub workers: usize,
    /// SIMD lane width for the vectorized kernels (OpenACC `vector`
    /// analog): 8 or 1; results are bitwise identical at both widths.
    /// Settable as `--vector-width N`.
    pub vector_width: usize,
}

impl Default for NumericsConfig {
    fn default() -> Self {
        NumericsConfig {
            order: WenoOrder::Weno5,
            solver: RiemannSolver::Hllc,
            geometry: Geometry::Cartesian,
            scheme: "rk3".to_string(),
            cfl: 0.5,
            dt: None,
            workers: 1,
            vector_width: mfc_acc::DEFAULT_WIDTH,
        }
    }
}

impl NumericsConfig {
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
    pub probes: Vec<Probe>,
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
        // `Fluid::new`'s asserts, which deserializing skips, plus the
        // mixture terms the EOS forms from them: each must be finite.
        for (i, f) in self.fluids.iter().enumerate() {
            if !(f.gamma.is_finite() && f.gamma > 1.0) {
                return Err(format!(
                    "fluids[{i}].gamma must be finite and > 1, got {}",
                    f.gamma
                ));
            }
            if !(f.pi_inf.is_finite() && f.pi_inf >= 0.0 && f.big_pi().is_finite()) {
                return Err(format!(
                    "fluids[{i}].pi_inf must be finite and >= 0 with gamma*pi_inf/(gamma-1) \
                     finite, got {}",
                    f.pi_inf
                ));
            }
            if !(f.viscosity.is_finite() && f.viscosity >= 0.0) {
                return Err(format!(
                    "fluids[{i}].viscosity must be finite and >= 0, got {}",
                    f.viscosity
                ));
            }
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
