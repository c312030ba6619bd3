//! Executing an [`Admitted`] case: its blocks through the run loop (one
//! lone block, or one per rank), then the trace, probe and VTK artifacts. Everything here takes
//! its inputs from admission; nothing is validated, re-read or re-derived.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::Serialize;

use mfc_acc::{resilience_summary, Context, Ledger};
use mfc_core::case::CaseBuilder;
use mfc_core::eqidx::EqIdx;
use mfc_core::output::{block_to_vec, write_vtk_rectilinear};
use mfc_core::par::{run_ranks, GlobalField, ResilienceError, ResilienceOpts, WaveOutput};
use mfc_core::probes::{ProbeOutput, ProbeSet};
use mfc_core::solver::Solver;
use mfc_core::{HealthConfig, StepControl};
use mfc_mpsim::FaultCtx;
use mfc_trace::Tracer;

use super::{admit, Admitted};
use crate::schema::CaseFile;
use crate::RunError;

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

/// A bad rank layout or an inconsistent fault plan is a configuration
/// problem (exit code 2), a failed checkpoint write is I/O (exit code
/// 3); everything else a distributed driver reports is a solver blow-up.
fn map_resilience_err(e: ResilienceError) -> RunError {
    match &e {
        ResilienceError::Decomposition { .. } | ResilienceError::Plan { .. } => {
            RunError::Config(e.to_string())
        }
        ResilienceError::Io { .. } => RunError::Io(e.to_string()),
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

/// The named scalar fields of a VTK database: partial densities,
/// momenta, energy, volume fractions, each with its equation slot.
pub fn vtk_fields(eq: &EqIdx) -> Vec<(String, usize)> {
    let mut fields = Vec::new();
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
    fields
}

/// Execute a case file end to end.
pub fn run_case(case_file: &CaseFile) -> Result<RunSummary, RunError> {
    admit(case_file)?.run()
}

impl Admitted {
    /// Execute the case end to end: step it, then write the trace, probe
    /// and VTK artifacts it asked for under its output directory.
    pub fn run(mut self) -> Result<RunSummary, RunError> {
        let (case, cfg, out_dir) = (&self.case, self.cfg, &self.output.dir);
        ensure_writable_dir(out_dir)?;

        // One span tracer for the whole run; every rank registers its own
        // timeline against it. `None` keeps the per-launch fast path.
        let tracer: Option<Arc<Tracer>> = self.trace.as_ref().map(|_| Arc::new(Tracer::new()));
        let cells = case.cells.iter().product::<usize>();
        let stop = self.stop();
        let probes = std::mem::take(&mut self.probes);

        let (global, steps_done, t_done, grind_ns, resilience) = if self.distributed {
            let faults = if self.plan.is_empty() && self.spares == 0 {
                None
            } else {
                let plan = std::mem::take(&mut self.plan);
                Some(Arc::new(FaultCtx::new_with_spares(
                    plan,
                    self.ranks,
                    self.spares,
                )))
            };
            let events = Arc::new(Ledger::default());
            let opts = ResilienceOpts {
                checkpoint_every: self.checkpoint_every,
                ckpt_dir: out_dir.join("ckpt"),
                faults,
                events: Some(Arc::clone(&events)),
                recovery: self.recovery.take(),
                health: HealthConfig::default(),
                trace: tracer.clone(),
                failure_policy: self.failure_policy,
                spares: self.spares,
                ckpt_keep: self.ckpt_keep,
                // The paper's I/O path: every rank also writes its block with
                // the wave-throttled writer, for `mfc-post` to reassemble
                // (bitwise identical to the in-memory gather used here).
                output: self.io.wave_files.then(|| WaveOutput {
                    dir: self.wave_dir(),
                    wave_size: self.io.wave,
                }),
            };
            let dir = out_dir.clone();
            let probes = (!probes.is_empty()).then_some(ProbeOutput { dir, probes });
            let t0 = std::time::Instant::now();
            let (gf, stats) = run_ranks(case, cfg, self.ranks, stop, probes.as_ref(), &opts)
                .map_err(map_resilience_err)?;
            let wall = t0.elapsed();
            let grind = wall.as_nanos() as f64
                / (cells as f64
                    * gf.neq as f64
                    * (stats.steps as f64 * cfg.scheme.stages() as f64).max(1.0));
            (
                Some(gf),
                stats.steps,
                stats.time,
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
            let mut solver = Solver::new(case, cfg, ctx);
            if let Some(p) = self.recovery.take() {
                solver = solver.with_recovery(p);
            }
            let mut probes =
                (!probes.is_empty()).then(|| ProbeSet::new(probes, solver.domain(), solver.grid()));
            solver
                .run(stop, probes.as_mut(), |_| StepControl::Continue)
                .map_err(|e| RunError::Numerical(e.to_string()))?;
            if let Some(ps) = &probes {
                ps.write_csvs(out_dir, &solver)
                    .map_err(|e| RunError::Io(format!("probe write failed: {e}")))?;
            }
            // Serial ladder activity (health faults, retries, rung changes)
            // lands in the solver's own ledger.
            let resilience = resilience_summary(solver.context().ledger());
            solver.context().flush_ledger_to_trace();
            // The snapshot copies the whole state; only the VTK writer
            // reads it.
            (
                self.output.vtk.then(|| run_single_snapshot(&solver, case)),
                solver.steps(),
                solver.time(),
                solver.grind().ns_per_cell_eq_rhs(),
                resilience,
            )
        };

        if let (Some(path), Some(tr)) = (&self.trace, &tracer) {
            mfc_trace::chrome::write_file(path, &tr.snapshot())
                .map_err(|e| RunError::Io(format!("trace write failed: {e}")))?;
        }

        let vtk_path = match global.filter(|_| self.output.vtk) {
            Some(global) => {
                let path = out_dir.join(format!("{}.vtk", self.name));
                let fields = vtk_fields(&case.eq());
                let refs: Vec<(&str, usize)> =
                    fields.iter().map(|(n, s)| (n.as_str(), *s)).collect();
                write_vtk_rectilinear(&path, &case.grid(), &global, &refs)
                    .map_err(|e| RunError::Io(format!("vtk write failed: {e}")))?;
                Some(path)
            }
            None => None,
        };

        Ok(RunSummary {
            name: self.name,
            steps: steps_done,
            time: t_done,
            cells,
            grind_ns,
            vtk_path,
            resilience,
        })
    }
}

/// Snapshot a serial solver's interior as a [`GlobalField`].
pub(crate) fn run_single_snapshot(solver: &Solver, case: &CaseBuilder) -> GlobalField {
    GlobalField {
        n: case.cells,
        neq: solver.domain().eq.neq(),
        data: block_to_vec(solver.state()),
    }
}
