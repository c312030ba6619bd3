//! Distributed solver: 3-D block decomposition + halo exchange (§III-A).
//!
//! Runs the same numerics as [`crate::solver::Solver`] on simulated ranks
//! ([`mfc_mpsim`]), with the paper's communication structure: per
//! dimension, each rank packs its boundary slabs into 1-D buffers,
//! `sendrecv`s with its neighbours, and unpacks into ghost layers.  The
//! exchange order (x → y → z, full transverse extents) reproduces the
//! serial ghost-fill sequence exactly, so a distributed run is *bitwise*
//! identical to the single-rank run — which the integration tests assert.
//!
//! Host and "device" share memory here, so a halo buffer is sent straight
//! from the packed slab: the device→host and host→device copies that
//! non-GPU-aware MPI adds around every message live in the cost model only
//! ([`mfc_mpsim::CommParams`], Fig. 4's gap). The two frozen drivers that
//! still take a [`Staging`] ignore it.
//!
//! There is one time step — [`Solver::step_with`] — and one run loop —
//! [`crate::run`]; a rank is a block plus a comm link: the rank body of
//! [`run_ranks`] owns a [`Solver`] for its block and drives it through a
//! `Rank` (the policied allreduce and the halo exchange). What stays here
//! is what only a decomposed run has, run by the `Rank` at the loop's step
//! boundaries: checkpoint waves, scripted deaths and
//! stalls, the rendezvous / shrink / spare logic, rollback and replay,
//! and wave-file output — optional layers of [`ResilienceOpts`]; with all
//! of them off ([`run_distributed`]) every fault-aware primitive is its
//! plain blocking counterpart and no per-step state is saved.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mfc_acc::{Context, Ledger, ResilienceEvent, ResilienceEventKind as Kind};
use mfc_mpsim::{
    best_block_dims, block_extents, validate_halo_extents, CartComm, Comm, CommFault,
    FailurePolicy, FaultCtx, SpareWake, Staging, WaveWriter, World,
};
use mfc_trace::{Category, Tracer};

use crate::case::CaseBuilder;
use crate::domain::Domain;
use crate::grid::{Grid, Grid1D};
use crate::health::HealthConfig;
use crate::probes::{ProbeOutput, ProbeSet};
use crate::recovery::{RecoveryPolicy, StepFault};
use crate::restart::{load_block, save_block, save_interior, wave_path, BlockLayout};
use crate::rhs::RhsConfig;
use crate::run::{drive, Attempt, Boundary, Layers, StepControl, Stop};
use crate::solver::{Link, RhsEnv, Solver, SolverConfig};
use crate::state::StateField;

/// The halo-exchange schedule named by [`run_distributed_with_mode`].
/// There is one: the paired exchange, which both variants run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeMode {
    /// Paired `MPI_Sendrecv` per axis, the paper's §III-A path.
    Sendrecv,
    /// Runs the paired exchange too: the pipelined overlap it named
    /// measured no faster than the paired exchange and was removed
    /// (EXPERIMENTS.md, "One halo exchange").
    Overlapped,
}

/// An assembled ghost-free global field, x-fastest then y, z, equation.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalField {
    pub n: [usize; 3],
    pub neq: usize,
    pub data: Vec<f64>,
}

impl GlobalField {
    #[inline]
    pub fn get(&self, i: usize, j: usize, k: usize, e: usize) -> f64 {
        self.data[i + self.n[0] * (j + self.n[1] * (k + self.n[2] * e))]
    }

    /// Largest absolute difference from another field.
    pub fn max_abs_diff(&self, other: &GlobalField) -> f64 {
        assert_eq!(self.n, other.n);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// Per-rank communication statistics and the simulation time reached.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommStats {
    pub messages: u64,
    pub bytes: u64,
    /// Simulation time the rank reached.
    pub time: f64,
    /// Steps the run took.
    pub steps: u64,
}

/// Run `steps` time steps of `case` on `n_ranks` simulated ranks — the one
/// driver ([`run_ranks`]) with every optional layer off;
/// returns the assembled global conservative state and rank-0's comm
/// statistics.
pub fn run_distributed(
    case: &CaseBuilder,
    cfg: SolverConfig,
    n_ranks: usize,
    steps: usize,
) -> Result<(GlobalField, CommStats), ResilienceError> {
    let opts = ResilienceOpts::fault_free(PathBuf::new(), 0);
    run_ranks(case, cfg, n_ranks, Stop::steps(steps as u64), None, &opts)
}

/// [`run_distributed`] under a named [`ExchangeMode`] and [`Staging`];
/// every mode runs the paired exchange, and both stagings send from the
/// packed slab.
pub fn run_distributed_with_mode(
    case: &CaseBuilder,
    cfg: SolverConfig,
    n_ranks: usize,
    steps: usize,
    _staging: Staging,
    _mode: ExchangeMode,
) -> Result<(GlobalField, CommStats), ResilienceError> {
    run_distributed(case, cfg, n_ranks, steps)
}

/// Logical rank `logical`'s place in the decomposition `dims` of `case` and
/// its block: its slice of the grid, its faces that border a neighbour
/// instead of a physical boundary, and `opts`' watchdog and ladder.
fn rank_block(
    case: &CaseBuilder,
    cfg: SolverConfig,
    opts: &ResilienceOpts,
    dims: [usize; 3],
    logical: usize,
    ctx: Context,
) -> (CartComm, Solver) {
    let ndim = case.eq().ndim();
    // Axes of `case` that wrap make the rank topology wrap too.
    let cart = CartComm::new(logical, dims, [0, 1, 2].map(|d| case.bc.axis_periodic(d)));
    let (off, n) = block_extents(logical, dims, case.cells, ndim);
    let global = case.grid();
    let axis = |d: usize, g: &Grid1D| {
        if d < ndim {
            g.slice(off[d], n[d])
        } else {
            Grid1D::collapsed()
        }
    };
    let local_grid = Grid {
        x: axis(0, &global.x),
        y: axis(1, &global.y),
        z: axis(2, &global.z),
    };
    let mut skip = [(false, false); 3];
    for (d, s) in skip.iter_mut().enumerate().take(ndim) {
        *s = (
            cart.neighbor(d, -1).is_some(),
            cart.neighbor(d, 1).is_some(),
        );
    }
    let layout = BlockLayout {
        global: case.cells,
        dims,
        off,
    };
    let mut blk = Solver::block(case, cfg, ctx, local_grid, layout, skip);
    blk.set_health(opts.health);
    blk.set_recovery(opts.recovery.clone());
    (cart, blk)
}

/// Scatter per-rank interior blocks (in gather order) into one global
/// field, recomputing each rank's extents from the decomposition.
fn assemble_global(
    eq: crate::eqidx::EqIdx,
    global_n: [usize; 3],
    dims: [usize; 3],
    blocks: &[Vec<f64>],
) -> GlobalField {
    let neq = eq.neq();
    let mut data = vec![0.0; global_n[0] * global_n[1] * global_n[2] * neq];
    for (rank, block) in blocks.iter().enumerate() {
        let (off, n) = block_extents(rank, dims, global_n, eq.ndim());
        let mut it = block.iter();
        for e in 0..neq {
            for k in 0..n[2] {
                for j in 0..n[1] {
                    for i in 0..n[0] {
                        let gi = off[0] + i;
                        let gj = off[1] + j;
                        let gk = off[2] + k;
                        data[gi + global_n[0] * (gj + global_n[1] * (gk + global_n[2] * e))] =
                            *it.next().unwrap();
                    }
                }
            }
        }
    }
    GlobalField {
        n: global_n,
        neq,
        data,
    }
}

/// Wave-throttled file-per-process output of the final state (§III-A):
/// every rank writes its interior block as a block file
/// ([`crate::restart::save_interior`]) at
/// [`mfc_mpsim::WaveWriter::rank_path`]`(dir, steps, rank)`, `steps` the
/// steps the run took, to be
/// reassembled from the files' headers by
/// [`crate::output::postprocess_wave_files`] (`mfc-post`).
#[derive(Debug, Clone)]
pub struct WaveOutput {
    /// Directory receiving the per-rank files; created if missing.
    pub dir: PathBuf,
    /// Writer-wave width: at most this many ranks hold open files at once.
    pub wave_size: usize,
}

/// Options for [`run_distributed_resilient`].
#[derive(Debug, Clone)]
pub struct ResilienceOpts {
    /// Steps between checkpoint waves; 0 disables checkpointing entirely,
    /// in which case a rank death has nothing to roll back to and the run
    /// ends with [`ResilienceError::Unrecoverable`] instead of hanging.
    pub checkpoint_every: u64,
    /// Directory receiving the per-rank `ckpt_r{rank}_w{wave}.bin` files.
    pub ckpt_dir: PathBuf,
    /// Fault script plus the shared failure-detector board; `None` runs
    /// the same driver fault-free (plain blocking semantics).
    pub faults: Option<Arc<FaultCtx>>,
    /// Ledger receiving checkpoint / fault-detection / rollback / replay
    /// events with per-event wall timing.
    pub events: Option<Arc<Ledger>>,
    /// Graceful-degradation recovery ladder for numerical faults; `None`
    /// aborts the run on the first health violation.
    pub recovery: Option<RecoveryPolicy>,
    /// Health-watchdog tolerances.
    pub health: HealthConfig,
    /// Span tracer: each rank attaches a per-rank timeline recording step
    /// phases, checkpoint waves, rollbacks, and every kernel launch and
    /// message (`mfc-run --trace`). `None` keeps the untraced fast path.
    pub trace: Option<Arc<Tracer>>,
    /// What the survivors do when a rank death is *permanent* (the
    /// simulated process never restarts): resurrect in place (the
    /// transient default, which makes a permanent loss unrecoverable),
    /// shrink the communicator and redistribute the last committed wave,
    /// or promote a hot spare into the vacant slot.
    pub failure_policy: FailurePolicy,
    /// Hot spare ranks provisioned outside the decomposition, idle until
    /// [`FailurePolicy::Spare`] promotes one. Ignored fault-free.
    pub spares: usize,
    /// Checkpoint retention: keep the newest `ckpt_keep` committed waves
    /// per rank, garbage-collecting older files after each commit.
    /// Clamped to at least 1 — the newest committed wave is never
    /// deleted.
    pub ckpt_keep: usize,
    /// Write the final state as per-rank wave files once the last step is
    /// accepted (so a replayed run writes them after the replay). A rank's
    /// failed write is committed like a checkpoint's: every rank returns
    /// [`ResilienceError::Io`]. After a shrink the files follow the
    /// survivors' decomposition.
    pub output: Option<WaveOutput>,
}

impl ResilienceOpts {
    /// Fault-free checkpointing setup (no fault script, no event ledger).
    pub fn fault_free(ckpt_dir: impl Into<PathBuf>, checkpoint_every: u64) -> Self {
        ResilienceOpts {
            checkpoint_every,
            ckpt_dir: ckpt_dir.into(),
            faults: None,
            events: None,
            recovery: None,
            health: HealthConfig::default(),
            trace: None,
            failure_policy: FailurePolicy::Revive,
            spares: 0,
            ckpt_keep: 2,
            output: None,
        }
    }
}

/// Terminal failure of a resilient run. Every rank returns the same
/// variant (the decision is taken from shared board state after the
/// recovery rendezvous, or from a collective health verdict), so the run
/// ends cleanly rather than hanging.
#[derive(Debug, Clone, PartialEq)]
pub enum ResilienceError {
    /// A fault was detected but no checkpoint wave had been committed,
    /// so there is nothing to roll back to.
    Unrecoverable { rank: usize, detail: String },
    /// The numerical-health watchdog rejected a step and the recovery
    /// ladder (if any) was exhausted. `fault` names the offending cell or
    /// rate on the rank that observed it, [`StepFault::Peer`] elsewhere.
    Numerical {
        rank: usize,
        step: u64,
        fault: StepFault,
    },
    /// The rank layout makes some block thinner than the halo depth along
    /// a split axis ([`mfc_mpsim::DecompositionError`]): its send slab
    /// would overlap the opposite ghost region. Rejected host-side before
    /// any rank is spawned.
    Decomposition { detail: String },
    /// A checkpoint or wave-file write (or the creation of either
    /// directory) failed. The abort is collective: every rank learns of
    /// the failed write through the commit reduction and returns this in
    /// lockstep.
    Io { rank: usize, detail: String },
    /// The fault script or resilience configuration is inconsistent with
    /// the run — a death targets a rank outside the world, the scripted
    /// permanent deaths leave no survivor quorum, or the fault board was
    /// sized without the spare pool. Rejected host-side.
    Plan { detail: String },
}

impl std::fmt::Display for ResilienceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResilienceError::Unrecoverable { rank, detail } => {
                write!(f, "unrecoverable fault (rank {rank}): {detail}")
            }
            ResilienceError::Numerical { rank, step, fault } => {
                write!(f, "numerical abort at step {step} (rank {rank}): {fault}")
            }
            ResilienceError::Decomposition { detail } => {
                write!(f, "invalid decomposition: {detail}")
            }
            ResilienceError::Io { rank, detail } => {
                write!(f, "file write failure (rank {rank}): {detail}")
            }
            ResilienceError::Plan { detail } => {
                write!(f, "invalid fault plan: {detail}")
            }
        }
    }
}

impl std::error::Error for ResilienceError {}

/// What one rank's closure returns from a resilient run: the gathered
/// per-rank blocks on rank 0 (`None` elsewhere) plus its comm counters.
type RankOutcome = Result<(Option<Vec<Vec<f64>>>, CommStats), ResilienceError>;

/// [`run_ranks`] for `steps` steps and no probes; both [`Staging`]s run
/// the same exchange.
pub fn run_distributed_resilient(
    case: &CaseBuilder,
    cfg: SolverConfig,
    n_ranks: usize,
    steps: usize,
    _staging: Staging,
    opts: &ResilienceOpts,
) -> Result<(GlobalField, CommStats), ResilienceError> {
    let stop = Stop::steps(steps as u64);
    run_ranks(case, cfg, n_ranks, stop, None, opts)
}

/// The decomposed run: every rank drives its block through the run loop
/// ([`crate::run`]) until `stop`, the block that owns each of the `probes`
/// sampling it, with the layers of `Rank` at the step boundaries. Every
/// step's collectives and halo exchanges go through the fault-aware
/// ("policied") path — which *is* the plain blocking path when
/// `opts.faults` is `None` — the conservative state is checkpointed every
/// `opts.checkpoint_every` steps, and any detected failure — message loss
/// beyond the retry budget, a silent rank, or a scripted rank death —
/// triggers a global rollback to the last committed checkpoint wave and a
/// replay.
///
/// Step acceptance is a collective decision: each rank scans its block's
/// health after the update and an allreduce-min over the per-rank verdicts
/// (mirroring the global `dt` reduction) makes every rank agree — so on a
/// numerical fault all ranks retry (under `opts.recovery`) or return the
/// same typed error in lockstep instead of one rank panicking while its
/// peers hang in a receive.
///
/// Because checkpoints are bitwise snapshots and the numerics are
/// deterministic, a faulty run that recovers produces output **bitwise
/// identical** to a fault-free run — the resilience tests assert this.
/// Probe histories live with the block that owns them: a replay rewrites
/// the samples it repeats, but a shrink or a spare promotion hands a probe
/// to a block without its history.
pub fn run_ranks(
    case: &CaseBuilder,
    cfg: SolverConfig,
    n_ranks: usize,
    stop: Stop,
    probes: Option<&ProbeOutput>,
    opts: &ResilienceOpts,
) -> Result<(GlobalField, CommStats), ResilienceError> {
    let eq = case.eq();
    let ng = cfg.rhs.order.ghost_layers().max(1);
    let global_n = case.cells;
    let dims = best_block_dims(n_ranks, global_n);
    assert_eq!(
        dims.iter().product::<usize>(),
        n_ranks,
        "rank count must factorize onto the grid"
    );
    validate_halo_extents(dims, global_n, eq.ndim(), ng).map_err(|e| {
        ResilienceError::Decomposition {
            detail: e.to_string(),
        }
    })?;
    if let Some(faults) = &opts.faults {
        // Reject plans that cannot end well before any rank is spawned: a
        // death outside the world would never fire (the run would hang
        // waiting for it under Spare), and permanent deaths that leave no
        // survivor quorum have no one left to reach consensus.
        faults
            .plan
            .validate_for(n_ranks)
            .map_err(|detail| ResilienceError::Plan { detail })?;
        if faults.board.size() != n_ranks + opts.spares {
            return Err(ResilienceError::Plan {
                detail: format!(
                    "fault board sized for {} physical ranks but the run needs {} \
                     ({n_ranks} active + {} spare); build it with FaultCtx::new_with_spares",
                    faults.board.size(),
                    n_ranks + opts.spares,
                    opts.spares
                ),
            });
        }
        faults.board.set_policy(opts.failure_policy);
    }
    if opts.checkpoint_every > 0 {
        std::fs::create_dir_all(&opts.ckpt_dir).map_err(|e| ResilienceError::Io {
            rank: 0,
            detail: format!("creating checkpoint dir {}: {e}", opts.ckpt_dir.display()),
        })?;
    }
    if let Some(out) = &opts.output {
        std::fs::create_dir_all(&out.dir).map_err(|e| ResilienceError::Io {
            rank: 0,
            detail: format!("creating wave dir {}: {e}", out.dir.display()),
        })?;
    }

    let rank_body = |comm: &mut Comm| -> RankOutcome {
        let mut ctx = Context::with_workers(cfg.workers).with_vector_width(cfg.vector_width);
        if let Some(tr) = &opts.trace {
            let h = tr.handle(comm.phys_rank());
            comm.set_tracer(Arc::clone(&h));
            ctx.set_tracer(h);
        }
        // Hot spares idle outside the decomposition until the board either
        // promotes one into a dead rank's slot or the run ends.
        let mut promoted_into = None;
        if let Some(faults) = comm.fault_ctx().filter(|_| comm.is_spare()) {
            match faults.board.spare_wait(comm.phys_rank()) {
                SpareWake::Shutdown => {
                    ctx.flush_ledger_to_trace();
                    return Ok((None, CommStats::default()));
                }
                SpareWake::Promote { slot } => promoted_into = Some(slot),
            }
        }
        let me = promoted_into.unwrap_or_else(|| comm.rank());
        let (cart, mut blk) = rank_block(case, cfg, opts, dims, me, ctx);
        let mut rank = Rank {
            comm,
            cart,
            stats: CommStats::default(),
            rank: me,
            case,
            cfg,
            opts,
            promoted_into,
            next_wave: 0,
            deaths_done: HashSet::new(),
            replay_target: None,
            t_op: Instant::now(),
            left: false,
        };
        let mut probe_set =
            probes.map(|p| ProbeSet::new(p.probes.clone(), blk.domain(), &case.grid()));
        drive(&mut blk, &mut rank, stop, probe_set.as_mut())?;
        blk.context().flush_ledger_to_trace();
        if rank.left {
            return Ok((None, rank.stats));
        }
        let written = match (&probe_set, probes) {
            (Some(ps), Some(out)) => {
                let dir = out.dir.display();
                ps.write_csvs(&out.dir, &blk)
                    .map_err(|e| rank.io(format!("probes in {dir}: {e}")))
            }
            _ => Ok(()),
        };
        drop(probe_set);
        let (time, steps) = (blk.time(), blk.steps());
        // The block is copied for the gather only once the solver's
        // workspaces are freed, so the copy does not raise the rank's peak
        // memory. All scripted faults are behind us (peers past their last
        // death cannot re-die), so the final gather uses the plain path,
        // and every rank joins it before reporting a probe write failure.
        let block = crate::output::block_to_vec(&blk.into_state());
        let gathered = rank.comm.gather(block);
        written?;
        Ok((
            gathered,
            CommStats {
                time,
                steps,
                ..rank.stats
            },
        ))
    };

    let body = |mut comm: Comm| -> RankOutcome {
        let out = rank_body(&mut comm);
        // Idle spares block in spare_wait until someone raises the
        // shutdown flag. Every exit releases them — except a permanently
        // dead rank, whose own vacant slot may still be waiting for a
        // spare to claim it.
        let perm_dead = comm
            .fault_ctx()
            .is_some_and(|f| f.board.is_perm_dead(comm.phys_rank()));
        if !perm_dead {
            if let Some(f) = comm.fault_ctx() {
                f.board.shutdown();
            }
        }
        out
    };

    let results = match &opts.faults {
        Some(faults) => World::run_with_spares(n_ranks, opts.spares, Arc::clone(faults), body),
        None => World::run(n_ranks, body),
    };
    // Every terminal error is collective, so the survivors agree on the
    // variant; prefer the rank that saw the cause itself (the offending
    // cell, the path that could not be written), then any error.
    let mut errors = results.iter().filter_map(|r| r.as_ref().err());
    if let Some(first) = errors.next() {
        let observed = |e: &&ResilienceError| match e {
            ResilienceError::Numerical { fault, .. } => *fault != StepFault::Peer,
            ResilienceError::Io { detail, .. } => detail != PEER_WRITE_FAILED,
            _ => false,
        };
        let chosen = std::iter::once(first)
            .chain(errors)
            .find(observed)
            .unwrap_or(first);
        return Err(chosen.clone());
    }
    // The gather lands on whichever physical rank holds logical slot 0 at
    // the end — not necessarily physical rank 0 (it may have died
    // permanently, or a spare may hold its slot).
    let mut assembled = None;
    for r in results {
        let (gathered, stats) = r.expect("errors handled above");
        if let Some(blocks) = gathered {
            assembled = Some((blocks, stats));
        }
    }
    let (blocks, stats0) = assembled.expect("some rank holds the gather");
    // `blocks.len()` is the world size at exit; after a shrink it is
    // smaller than `n_ranks` and the layout is the reconfigured one.
    let dims_final = best_block_dims(blocks.len(), global_n);
    Ok((assemble_global(eq, global_n, dims_final, &blocks), stats0))
}

/// One rank of a decomposed run: its link to the run's other blocks — the
/// policied allreduce, and ahead of each RHS evaluation the paired halo
/// exchange — and the layers only a decomposed run has, run at the run
/// loop's step boundaries: scripted deaths and stalls, checkpoint waves and
/// their commit, the rendezvous / shrink / spare logic, rollback and
/// replay, and wave-file output (§III-A). With every option of
/// [`ResilienceOpts`] off, each layer is a no-op and no per-step state is
/// saved.
struct Rank<'a> {
    comm: &'a mut Comm,
    cart: CartComm,
    stats: CommStats,
    /// Logical rank: the slot in the current epoch's roster. It moves when
    /// the communicator shrinks or a spare is promoted.
    rank: usize,
    case: &'a CaseBuilder,
    cfg: SolverConfig,
    opts: &'a ResilienceOpts,
    /// The slot a hot spare was woken into, until the promotion is recorded.
    promoted_into: Option<usize>,
    next_wave: u64,
    /// Scripted deaths already fired, by plan index: a replay passing the
    /// step again must not re-fire them.
    deaths_done: HashSet<usize>,
    /// Set after a rollback: (pre-fault step to replay through, timer).
    replay_target: Option<(u64, Instant)>,
    /// When the step under way started, for a link failure's latency.
    t_op: Instant,
    /// This rank's machine died for good: it leaves without the gather.
    left: bool,
}

impl Link for Rank<'_> {
    fn rank(&self) -> Option<usize> {
        Some(self.rank)
    }

    fn min(&mut self, v: f64) -> Result<f64, CommFault> {
        self.comm.allreduce_policied(v, f64::min)
    }

    fn eval_rhs(
        &mut self,
        env: &mut RhsEnv,
        cfg: &RhsConfig,
        q: &mut StateField,
        rhs: &mut StateField,
    ) -> Result<(), CommFault> {
        let stats = &mut self.stats;
        halo_exchange(&env.ctx, self.comm, &self.cart, q, stats)?;
        env.local_rhs(cfg, q, rhs);
        Ok(())
    }

    /// A ladder event of this block, stamped with the last checkpoint wave.
    fn note(&self, kind: Kind, step: u64, wall: Duration, detail: String) {
        self.record(kind, step, self.next_wave.saturating_sub(1), wall, detail);
    }
}

impl Layers for Rank<'_> {
    type Error = ResilienceError;

    fn boundary(&mut self, blk: &mut Solver, done: bool) -> Result<Boundary, ResilienceError> {
        // A promoted spare's first act is the recovery it was woken for.
        if self.promoted_into.is_some() {
            return self.recover(blk);
        }
        let step = blk.steps();
        if done {
            // ---- Last step accepted: the output layer (§III-A). Write in
            // throttled waves and commit the per-rank outcomes like a
            // checkpoint wave; a comm fault here rolls back and replays like
            // any other. ----
            let Some(out) = &self.opts.output else {
                return Ok(Boundary::Stop);
            };
            let t0 = Instant::now();
            let dom = blk.domain();
            let bytes = (dom.interior_cells() * dom.eq.neq() * 8) as u64;
            let path = WaveWriter::rank_path(&out.dir, step as usize, self.rank);
            let save = || save_interior(&path, blk.state(), blk.layout(), blk.time(), step);
            let saved = WaveWriter::new(out.wave_size).write(self.comm, bytes, save);
            if self.commit_write(&path, saved.map(drop), step, t0)? {
                return Ok(Boundary::Stop);
            }
            return self.recover(blk);
        }

        if let Some(faults) = self.comm.fault_ctx().cloned() {
            // Scripted death: drop all in-memory state and stop
            // communicating; peers notice via the failure detector. Deaths
            // are scripted against *physical* ranks — the machine dies,
            // whatever logical slot it currently holds.
            let phys = self.comm.phys_rank();
            if let Some(idx) = faults.plan.death_at(phys, step) {
                if self.deaths_done.insert(idx) {
                    if faults.plan.deaths[idx].permanent {
                        // Permanent loss: this simulated process never
                        // restarts. It must not release the spare pool (its
                        // own slot may still need a spare), so no shutdown —
                        // just leave.
                        faults.board.mark_dead_permanent(phys);
                        self.left = true;
                        return Ok(Boundary::Stop);
                    }
                    faults.board.mark_dead(phys);
                    return self.recover(blk);
                }
            }
            if let Some(hold) = faults.plan.stall_for(phys, step) {
                std::thread::sleep(hold);
            }
            if faults.board.recovery_pending() {
                return self.recover(blk);
            }
        }

        // ---- Checkpoint wave: save locally, commit collectively. ----
        let every = self.opts.checkpoint_every;
        if every > 0 && step == self.next_wave * every {
            let _ckpt_span = blk.context().span("checkpoint", Category::Io);
            let wave = self.next_wave;
            let t0 = Instant::now();
            let path = wave_path(&self.opts.ckpt_dir, self.rank, wave);
            let saved = save_block(&path, blk.state(), blk.layout(), blk.time(), step);
            if !self.commit_write(&path, saved, step, t0)? {
                return self.recover(blk);
            }
            if let Some(faults) = self.comm.fault_ctx() {
                faults.board.commit_wave(wave);
            }
            // Retention: drop the oldest wave outside the keep window.
            // Exactly one candidate per commit, always strictly older than
            // the newest committed wave, and GC only ever runs here —
            // between commits — so it cannot race a rollback's candidate
            // scan.
            let keep = self.opts.ckpt_keep.max(1) as u64;
            if let Some(old) = wave.checked_sub(keep) {
                let _ = std::fs::remove_file(wave_path(&self.opts.ckpt_dir, self.rank, old));
            }
            self.next_wave += 1;
            let detail = format!("wave {wave} committed by {} ranks", self.comm.size());
            self.lead(Kind::Checkpoint, step, wave, t0.elapsed(), detail);
        }
        self.t_op = Instant::now();
        Ok(Boundary::Step)
    }

    fn stepped(&mut self, blk: &mut Solver, attempt: Attempt) -> Result<(), ResilienceError> {
        let step = blk.steps();
        match attempt {
            Err(fault) => {
                self.detect_fault(&fault, step, self.t_op.elapsed());
                self.recover(blk).map(drop)
            }
            Ok(Err(e)) => Err(ResilienceError::Numerical {
                rank: self.rank,
                step: e.step,
                fault: e.fault,
            }),
            Ok(Ok(_)) => {
                if let Some((target, since)) = self.replay_target.filter(|t| step >= t.0) {
                    let detail = format!("replayed through pre-fault step {target}");
                    let wave = self.next_wave.saturating_sub(1);
                    self.lead(Kind::Replay, step, wave, since.elapsed(), detail);
                    self.replay_target = None;
                }
                Ok(())
            }
        }
    }
}

impl Rank<'_> {
    /// Record a resilience event of this rank.
    fn record(&self, kind: Kind, step: u64, wave: u64, wall: Duration, detail: String) {
        if let Some(ledger) = &self.opts.events {
            ledger.record_event(ResilienceEvent {
                kind,
                rank: self.rank,
                step,
                wave,
                wall,
                detail,
            });
        }
    }

    /// Record a collective event: on block 0 only.
    fn lead(&self, kind: Kind, step: u64, wave: u64, wall: Duration, detail: String) {
        if self.rank == 0 {
            self.record(kind, step, wave, wall, detail);
        }
    }

    fn io(&self, detail: String) -> ResilienceError {
        let rank = self.rank;
        ResilienceError::Io { rank, detail }
    }

    /// Classify a policied-operation failure: the first rank to see a
    /// *primary* fault (dead peer, timeout) raises the recovery alarm and
    /// records the detection event; ranks that merely observe the alarm
    /// (`RecoveryRequested`) just join the rendezvous.
    fn detect_fault(&self, fault: &CommFault, step: u64, latency: Duration) {
        if matches!(fault, CommFault::RecoveryRequested) {
            return;
        }
        let faults = self
            .comm
            .fault_ctx()
            .expect("policied fault without fault ctx");
        if faults.board.request_recovery() {
            let wave = faults.board.committed_wave().unwrap_or(0);
            self.record(Kind::FaultDetected, step, wave, latency, fault.to_string());
        }
    }

    /// Commit a per-rank write (checkpoint wave or wave file) collectively.
    /// The commit is a policied min-reduction over the per-rank outcomes:
    /// the write only counts once every live rank has durably written its
    /// block, and a dead or silent rank fails the commit instead of hanging
    /// it. `Ok(true)`: committed. `Ok(false)`: a comm fault, already
    /// classified by [`Rank::detect_fault`] — the caller joins the
    /// recovery. `Err`: a write failed somewhere; it travelled the same
    /// reduction, so every rank returns this error in lockstep — the rank
    /// whose own write failed names its path and cause, its peers say they
    /// were told.
    fn commit_write<E: std::fmt::Display>(
        &mut self,
        path: &Path,
        saved: Result<(), E>,
        step: u64,
        t0: Instant,
    ) -> Result<bool, ResilienceError> {
        let flag = if saved.is_ok() { 1.0 } else { 0.0 };
        match self.comm.allreduce_policied(flag, f64::min) {
            Ok(v) if v >= 1.0 => Ok(true),
            Ok(_) => Err(self.io(match saved {
                Err(e) => format!("writing {}: {e}", path.display()),
                Ok(()) => PEER_WRITE_FAILED.into(),
            })),
            Err(fault) => {
                self.detect_fault(&fault, step, t0.elapsed());
                Ok(false)
            }
        }
    }

    /// Rendezvous, reconfigure, roll back to the newest committed wave that
    /// loads on every rank and arm the replay — or abort.
    fn recover(&mut self, blk: &mut Solver) -> Result<Boundary, ResilienceError> {
        let _recovery_span = blk.context().span("rollback", Category::Recovery);
        let faults = self
            .comm
            .fault_ctx()
            .expect("recovery requires a fault ctx")
            .clone();
        let fault_step = blk.steps();
        let t0 = Instant::now();
        // Everyone meets at the rendezvous. A transiently dead rank is
        // revived in place (a restarted process); a permanently dead one
        // never arrives, and the survivors' consensus either shrinks the
        // roster around the hole or waits for a promoted spare to fill it.
        // The generation bump fences off every pre-fault message still in
        // flight.
        let reconf = faults.board.rendezvous();
        self.comm.finish_recovery(reconf.gen);
        let unrecoverable = |rank, detail| ResilienceError::Unrecoverable { rank, detail };
        if !reconf.lost.is_empty() {
            let lost = &reconf.lost;
            let detail = match faults.board.policy() {
                FailurePolicy::Revive => format!(
                    "rank slot(s) {lost:?} lost permanently under FailurePolicy::Revive \
                     (no shrink, no spares)"
                ),
                FailurePolicy::Spare => {
                    format!("spare pool exhausted with rank slot(s) {lost:?} still vacant")
                }
                FailurePolicy::Shrink => format!("rank slot(s) {lost:?} unrecoverable"),
            };
            return Err(unrecoverable(self.rank, detail));
        }
        let prev_size = self.comm.size();
        self.comm.adopt_roster(reconf.roster);
        self.rank = self.comm.rank();
        let committed = faults.board.committed_wave().unwrap_or(0);
        let size = self.comm.size();
        if size < prev_size {
            // Survivor consensus reached: recompute the Cartesian
            // decomposition for the smaller world and rebuild every
            // layout-derived structure. Deterministic on each survivor, so
            // a rejection is collective.
            let _shrink_span = blk.context().span("shrink", Category::Recovery);
            let (case, cfg) = (self.case, self.cfg);
            let dims = best_block_dims(size, case.cells);
            let ng = cfg.rhs.order.ghost_layers().max(1);
            validate_halo_extents(dims, case.cells, case.eq().ndim(), ng).map_err(|e| {
                let detail = format!("after shrinking to {size} ranks: {e}");
                ResilienceError::Decomposition { detail }
            })?;
            let ctx = blk.context().clone();
            (self.cart, *blk) = rank_block(case, cfg, self.opts, dims, self.rank, ctx);
            let detail = format!("survivor consensus: {prev_size} -> {size} ranks, dims {dims:?}");
            self.lead(Kind::Shrink, fault_step, committed, t0.elapsed(), detail);
        }
        if let Some(slot) = self.promoted_into.take() {
            let _promote_span = blk.context().span("promote_spare", Category::Recovery);
            let phys = self.comm.phys_rank();
            let detail = format!("physical rank {phys} promoted into logical slot {slot}");
            self.record(
                Kind::PromoteSpare,
                fault_step,
                committed,
                t0.elapsed(),
                detail,
            );
        }
        let Some(wave) = faults.board.committed_wave() else {
            let detail = "fault before any committed checkpoint wave".into();
            return Err(unrecoverable(self.rank, detail));
        };
        // Walk back from the committed wave until one loads on *every*
        // rank: a truncated, bit-flipped or inconsistent file fails
        // locally, and the collective min makes all ranks skip that wave
        // together. The wave's own headers say which decomposition wrote
        // it: the current one is a direct read, an older (pre-shrink) one
        // is re-sharded — each new owner loads exactly the cells it now
        // owns from that layout's files.
        let loaded = (0..=wave).rev().find_map(|cand| {
            let shard = |r| wave_path(&self.opts.ckpt_dir, r, cand);
            let local = load_block(shard, self.rank, *blk.domain(), blk.layout());
            // Post-rendezvous every roster slot is alive again, so the
            // plain (non-policied) collective is safe.
            if self
                .comm
                .allreduce_min(if local.is_ok() { 1.0 } else { 0.0 })
                >= 1.0
            {
                let (h, q) = local.expect("agreed loadable");
                return Some((h, q, cand));
            }
            let why = local.map_or_else(|e| e.to_string(), |_| "a peer rank's block failed".into());
            let detail = format!("wave {cand} unreadable, skipping: {why}");
            self.lead(Kind::Rollback, fault_step, cand, t0.elapsed(), detail);
            None
        });
        let Some((header, restored, loaded_wave)) = loaded else {
            let detail = "no loadable checkpoint wave (all corrupt)".into();
            return Err(unrecoverable(self.rank, detail));
        };
        let dims_now = blk.layout().dims;
        let resharded = header.dims != dims_now;
        let _redist_span = resharded
            .then(|| blk.context().span("redistribute", Category::Recovery))
            .flatten();
        // The replay is a fresh deterministic run from the wave: the
        // restore resets the ladder with it.
        blk.restore(restored, header.t, header.steps);
        let step = blk.steps();
        self.next_wave = loaded_wave + 1;
        if resharded {
            let from = header.dims.iter().product::<usize>();
            let detail = format!(
                "wave {loaded_wave} re-sharded from {from} ranks {:?} onto {size} ranks \
                 {dims_now:?}",
                header.dims
            );
            self.lead(Kind::Redistribute, step, loaded_wave, t0.elapsed(), detail);
        }
        let target = self
            .replay_target
            .map_or(fault_step, |(old, _)| old.max(fault_step));
        self.replay_target = Some((target, Instant::now()));
        let detail = format!("all ranks rolled back to wave {loaded_wave} (step {step})");
        self.lead(Kind::Rollback, step, loaded_wave, t0.elapsed(), detail);
        Ok(Boundary::Again)
    }
}

/// [`ResilienceError::Io`] detail on the ranks whose own write succeeded.
const PEER_WRITE_FAILED: &str = "a peer rank failed its write";

/// Both directions of one axis's exchange: `(send direction, message
/// tag)`. Direction +1 ships my high interior slab to the +1 neighbour,
/// which unpacks it into its low ghosts; −1 the reverse.
fn halo_dirs(axis: usize) -> [(i32, u64); 2] {
    let tag = (axis as u64) << 8;
    [(1, tag), (-1, tag | 1)]
}

/// One full halo exchange: per axis (x → y → z, so axis *k*'s slabs carry
/// axis *k−1*'s unpacked ghosts and corners fill), pack and send both
/// boundary slabs (`ng` layers, full ghost-inclusive transverse extents)
/// to whichever neighbours exist, then receive and unpack theirs into the
/// ghost slabs. Sends are buffered, so they never block; the receives go
/// through the fault detector, and any verdict abandons the exchange.
fn halo_exchange(
    ctx: &Context,
    comm: &mut Comm,
    cart: &CartComm,
    q: &mut StateField,
    stats: &mut CommStats,
) -> Result<(), CommFault> {
    let _span = ctx.span("halo_exchange", Category::Phase);
    for axis in 0..q.domain().eq.ndim() {
        for (send_dir, tag) in halo_dirs(axis) {
            if let Some(dest) = cart.neighbor(axis, send_dir) {
                let buf = pack_send_slab(q, axis, send_dir, stats);
                comm.send(dest, tag, buf);
            }
        }
        for (send_dir, tag) in halo_dirs(axis) {
            if let Some(src) = cart.neighbor(axis, -send_dir) {
                let buf = comm.recv_policied(src, tag)?;
                unpack_recv_slab(q, axis, send_dir, &buf);
            }
        }
    }
    Ok(())
}

/// Serial reference producing the same [`GlobalField`] shape.
pub fn run_single(case: &CaseBuilder, cfg: SolverConfig, steps: usize) -> GlobalField {
    let mut solver = crate::solver::Solver::new(
        case,
        cfg,
        Context::with_workers(cfg.workers).with_vector_width(cfg.vector_width),
    );
    solver
        .run(Stop::steps(steps as u64), None, |_| StepControl::Continue)
        .expect("serial reference run hit a numerical fault");
    GlobalField {
        n: case.cells,
        neq: solver.domain().eq.neq(),
        data: crate::output::block_to_vec(&solver.into_state()),
    }
}

/// Pack the interior slab adjacent to the `send_dir` face of `axis`,
/// counting the message.
fn pack_send_slab(q: &StateField, axis: usize, send_dir: i32, stats: &mut CommStats) -> Vec<f64> {
    let dom = *q.domain();
    let ng = dom.ng;
    let lo = if send_dir > 0 {
        dom.pad(axis) + dom.n[axis] - ng
    } else {
        dom.pad(axis)
    };
    let buf = pack_slab(q, axis, lo, ng);
    stats.messages += 1;
    stats.bytes += (buf.len() * 8) as u64;
    buf
}

/// Unpack a received buffer into the ghost slab opposite the `send_dir`
/// face of `axis`.
fn unpack_recv_slab(q: &mut StateField, axis: usize, send_dir: i32, buf: &[f64]) {
    let dom = *q.domain();
    let ng = dom.ng;
    let lo = if send_dir > 0 {
        0
    } else {
        dom.pad(axis) + dom.n[axis]
    };
    unpack_slab(q, axis, lo, ng, buf);
}

/// The `count` layers from padded index `lo` along `axis`, with full
/// transverse (ghost-inclusive) extents, as contiguous x runs in
/// (equation, z, y) order: each run's flat offset, and the run length.
fn slab_runs(
    dom: &Domain,
    axis: usize,
    lo: usize,
    count: usize,
) -> (impl Iterator<Item = usize>, usize) {
    let (n1, n2, n3) = (dom.ext(0), dom.ext(1), dom.ext(2));
    let mut r = [0..n1, 0..n2, 0..n3];
    r[axis] = lo..lo + count;
    let [x, y, z] = r;
    let x0 = x.start;
    let runs = (0..dom.eq.neq()).flat_map(move |e| {
        let y = y.clone();
        z.clone()
            .flat_map(move |k| y.clone().map(move |j| x0 + n1 * (j + n2 * (k + n3 * e))))
    });
    (runs, x.len())
}

/// Values in the slab of [`slab_runs`].
fn slab_len(dom: &Domain, axis: usize, count: usize) -> usize {
    count * dom.eq.neq() * dom.total_cells() / dom.ext(axis)
}

/// Pack `count` layers starting at padded index `lo` along `axis`, full
/// transverse (ghost-inclusive) extents, into a flat send buffer, one
/// contiguous x run at a time ([`slab_runs`]; the order is internal to
/// this pair).
fn pack_slab(q: &StateField, axis: usize, lo: usize, count: usize) -> Vec<f64> {
    let (runs, len) = slab_runs(q.domain(), axis, lo, count);
    let src = q.as_slice();
    let mut buf = Vec::with_capacity(slab_len(q.domain(), axis, count));
    for at in runs {
        buf.extend_from_slice(&src[at..at + len]);
    }
    buf
}

/// Inverse of [`pack_slab`].
fn unpack_slab(q: &mut StateField, axis: usize, lo: usize, count: usize, buf: &[f64]) {
    let dom = *q.domain();
    let (runs, len) = slab_runs(&dom, axis, lo, count);
    assert_eq!(
        buf.len(),
        slab_len(&dom, axis, count),
        "halo buffer size mismatch"
    );
    let dst = q.as_mut_slice();
    for (at, src) in runs.zip(buf.chunks_exact(len)) {
        dst[at..at + len].copy_from_slice(src);
    }
}

/// Every rank's block of `case` on `n_ranks` ranks after `steps` steps
/// through its comm link, with the dt of each step — for tests that look
/// inside the blocks.
#[cfg(test)]
pub(crate) fn stepped_rank_blocks(
    case: &CaseBuilder,
    cfg: SolverConfig,
    n_ranks: usize,
    steps: usize,
) -> Vec<(Solver, Vec<f64>)> {
    let dims = best_block_dims(n_ranks, case.cells);
    let opts = ResilienceOpts::fault_free("", 0);
    World::run(n_ranks, |mut comm| {
        let rank = comm.rank();
        let (cart, mut blk) = rank_block(case, cfg, &opts, dims, rank, Context::serial());
        let mut link = Rank {
            comm: &mut comm,
            cart,
            stats: CommStats::default(),
            rank,
            case,
            cfg,
            opts: &opts,
            promoted_into: None,
            next_wave: 0,
            deaths_done: HashSet::new(),
            replay_target: None,
            t_op: Instant::now(),
            left: false,
        };
        let dts = (0..steps)
            .map(|_| {
                let outcome = blk.step_with(&mut link, f64::INFINITY);
                outcome.expect("fault-free link").expect("a clean step").dt
            })
            .collect();
        (blk, dts)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::presets;

    #[test]
    fn distributed_sod_matches_serial_bitwise() {
        use crate::rhs::RhsMode;
        let case = presets::sod(64);
        for mode in [RhsMode::Staged, RhsMode::Fused] {
            let mut cfg = SolverConfig::default();
            cfg.rhs.mode = mode;
            let serial = run_single(&case, cfg, 10);
            for ranks in [2usize, 4] {
                let (dist, stats) = run_distributed(&case, cfg, ranks, 10).unwrap();
                assert_eq!(dist.n, serial.n);
                let diff = dist.max_abs_diff(&serial);
                assert_eq!(diff, 0.0, "{mode:?} ranks={ranks}: max diff {diff:e}");
                assert!(stats.messages > 0);
            }
        }
    }

    /// A slab packed next to one face lands, through `unpack_slab`, in the
    /// ghost slab the neighbour on that side fills, value for value and
    /// nowhere else, for every axis and direction, in 2-D and 3-D, at ghost
    /// widths 2 and 3; the message holds as many values as before.
    #[test]
    fn halo_pack_unpack_round_trips_every_axis_and_direction() {
        use crate::eqidx::EqIdx;
        for ng in [2, 3] {
            for (n, eq) in [([5, 4, 6], EqIdx::new(2, 3)), ([7, 3, 1], EqIdx::new(1, 2))] {
                let dom = Domain::new(n, ng, eq);
                let mut q = StateField::zeros(dom);
                for (i, v) in q.as_mut_slice().iter_mut().enumerate() {
                    *v = i as f64 + 0.25;
                }
                let ext = [0, 1, 2].map(|d| dom.ext(d));
                for axis in 0..eq.ndim() {
                    for send_dir in [1, -1] {
                        let (src, dst) = if send_dir > 0 {
                            (dom.pad(axis) + n[axis] - ng, 0)
                        } else {
                            (dom.pad(axis), dom.pad(axis) + n[axis])
                        };
                        let buf = pack_slab(&q, axis, src, ng);
                        let transverse: usize =
                            (0..3).filter(|&d| d != axis).map(|d| ext[d]).product();
                        assert_eq!(buf.len(), ng * transverse * eq.neq());
                        let mut got = StateField::zeros(dom);
                        unpack_slab(&mut got, axis, dst, ng, &buf);
                        let at = format!("ng={ng} ndim={} axis={axis} dir={send_dir}", eq.ndim());
                        for e in 0..eq.neq() {
                            for k in 0..ext[2] {
                                for j in 0..ext[1] {
                                    for i in 0..ext[0] {
                                        let mut c = [i, j, k];
                                        let want = if (dst..dst + ng).contains(&c[axis]) {
                                            c[axis] = c[axis] - dst + src;
                                            q.get(c[0], c[1], c[2], e)
                                        } else {
                                            0.0
                                        };
                                        let v = got.get(i, j, k, e);
                                        assert_eq!(v, want, "{at}: ({i},{j},{k}) eq {e}");
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn overlapped_exchange_matches_serial_bitwise() {
        // `ExchangeMode::Overlapped` still names a schedule callers may ask
        // for; it must keep giving the serial answer bit for bit.
        use crate::rhs::RhsMode;
        let case = presets::sod(64);
        for mode in [RhsMode::Staged, RhsMode::Fused] {
            let mut cfg = SolverConfig::default();
            cfg.rhs.mode = mode;
            let serial = run_single(&case, cfg, 10);
            for ranks in [2usize, 4] {
                let (dist, stats) = run_distributed_with_mode(
                    &case,
                    cfg,
                    ranks,
                    10,
                    Staging::DeviceDirect,
                    ExchangeMode::Overlapped,
                )
                .unwrap();
                let diff = dist.max_abs_diff(&serial);
                assert_eq!(diff, 0.0, "{mode:?} ranks={ranks}: max diff {diff:e}");
                assert!(stats.messages > 0);
            }
        }
    }

    #[test]
    fn distributed_2d_periodic_matches_serial() {
        let case = presets::two_phase_benchmark(2, [16, 16, 1]);
        let cfg = SolverConfig::default();
        let serial = run_single(&case, cfg, 4);
        let (dist, _) = run_distributed(&case, cfg, 4, 4).unwrap();
        let diff = dist.max_abs_diff(&serial);
        assert_eq!(diff, 0.0, "max diff {diff:e}");
    }

    /// `Staging` is still a name the frozen drivers take: both values
    /// give the same bits.
    #[test]
    fn staged_and_direct_produce_identical_physics() {
        let case = presets::two_phase_benchmark(2, [16, 16, 1]);
        let cfg = SolverConfig::default();
        let opts = ResilienceOpts::fault_free("", 0);
        let bits = |staging| {
            let (field, _) = run_distributed_resilient(&case, cfg, 2, 3, staging, &opts).unwrap();
            field.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(Staging::DeviceDirect), bits(Staging::HostStaged));
    }

    fn resil_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mfc_resil_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn resilient_fault_free_matches_serial_bitwise() {
        let case = presets::sod(32);
        let cfg = SolverConfig::default();
        let serial = run_single(&case, cfg, 8);
        let dir = resil_dir("ff");
        let opts = ResilienceOpts::fault_free(&dir, 3);
        let (field, _) =
            run_distributed_resilient(&case, cfg, 2, 8, Staging::DeviceDirect, &opts).unwrap();
        assert_eq!(field.max_abs_diff(&serial), 0.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resilient_recovers_from_rank_death_bitwise() {
        use mfc_mpsim::{DetectorConfig, FaultPlan, RankDeath};

        let case = presets::sod(32);
        let cfg = SolverConfig::default();
        let serial = run_single(&case, cfg, 10);
        let dir = resil_dir("death");
        let plan = FaultPlan {
            deaths: vec![RankDeath {
                rank: 1,
                step: 6,
                permanent: false,
            }],
            ..FaultPlan::none()
        };
        let faults = Arc::new(FaultCtx::new(plan, 2).with_detector(DetectorConfig {
            slice_ms: 5,
            retries: 8,
            backoff: 1.5,
        }));
        let events = Arc::new(Ledger::default());
        let opts = ResilienceOpts {
            checkpoint_every: 4,
            ckpt_dir: dir.clone(),
            faults: Some(faults),
            events: Some(Arc::clone(&events)),
            recovery: None,
            health: HealthConfig::default(),
            trace: None,
            failure_policy: FailurePolicy::Revive,
            spares: 0,
            ckpt_keep: 2,
            output: None,
        };
        let (field, _) =
            run_distributed_resilient(&case, cfg, 2, 10, Staging::DeviceDirect, &opts).unwrap();
        assert_eq!(
            field.max_abs_diff(&serial),
            0.0,
            "recovered run must be bitwise identical to fault-free"
        );
        // The ledger tells the whole story: waves committed, the death
        // detected, a rollback, and a completed replay.
        use mfc_acc::ResilienceEventKind as K;
        assert!(!events.events_of(K::Checkpoint).is_empty());
        assert_eq!(events.events_of(K::FaultDetected).len(), 1);
        assert_eq!(events.events_of(K::Rollback).len(), 1);
        assert_eq!(events.events_of(K::Replay).len(), 1);
        let rb = &events.events_of(K::Rollback)[0];
        assert_eq!(rb.wave, 1, "death at step 6 rolls back to wave 1 (step 4)");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unrecoverable_death_reports_instead_of_hanging() {
        use mfc_mpsim::{DetectorConfig, FaultPlan, RankDeath};

        let case = presets::sod(32);
        let cfg = SolverConfig::default();
        let dir = resil_dir("unrec");
        let plan = FaultPlan {
            deaths: vec![RankDeath {
                rank: 1,
                step: 2,
                permanent: false,
            }],
            ..FaultPlan::none()
        };
        let faults = Arc::new(FaultCtx::new(plan, 2).with_detector(DetectorConfig {
            slice_ms: 5,
            retries: 6,
            backoff: 1.5,
        }));
        let opts = ResilienceOpts {
            checkpoint_every: 0, // checkpointing disabled: nothing to roll back to
            ckpt_dir: dir.clone(),
            faults: Some(faults),
            events: None,
            recovery: None,
            health: HealthConfig::default(),
            trace: None,
            failure_policy: FailurePolicy::Revive,
            spares: 0,
            ckpt_keep: 2,
            output: None,
        };
        let err = run_distributed_resilient(&case, cfg, 2, 6, Staging::DeviceDirect, &opts)
            .expect_err("death without checkpoints cannot be recovered");
        assert!(matches!(err, ResilienceError::Unrecoverable { .. }));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resilient_rides_through_message_faults_bitwise() {
        use mfc_mpsim::{DetectorConfig, FaultPlan, MsgDelay, MsgFault};

        let case = presets::sod(32);
        let cfg = SolverConfig::default();
        let serial = run_single(&case, cfg, 6);
        let dir = resil_dir("msg");
        let plan = FaultPlan {
            drops: vec![
                MsgFault {
                    src: 0,
                    dst: 1,
                    nth: 3,
                },
                MsgFault {
                    src: 1,
                    dst: 0,
                    nth: 7,
                },
            ],
            delays: vec![MsgDelay {
                src: 1,
                dst: 0,
                nth: 4,
                hold: 2,
            }],
            ..FaultPlan::none()
        };
        let faults = Arc::new(FaultCtx::new(plan, 2).with_detector(DetectorConfig {
            slice_ms: 5,
            retries: 8,
            backoff: 1.5,
        }));
        let opts = ResilienceOpts {
            checkpoint_every: 3,
            ckpt_dir: dir.clone(),
            faults: Some(faults),
            events: None,
            recovery: None,
            health: HealthConfig::default(),
            trace: None,
            failure_policy: FailurePolicy::Revive,
            spares: 0,
            ckpt_keep: 2,
            output: None,
        };
        let (field, _) =
            run_distributed_resilient(&case, cfg, 2, 6, Staging::DeviceDirect, &opts).unwrap();
        assert_eq!(
            field.max_abs_diff(&serial),
            0.0,
            "drops/delays are absorbed by retransmission, not physics"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn thin_rank_decomposition_is_a_typed_error() {
        // Regression (thin-rank halo bug): 8 ranks over 16 cells of sod
        // gives 2-cell blocks under a 3-layer halo. This used to spawn
        // ranks and die inside `Domain::new` ("rank panicked"); now it is
        // rejected host-side with a typed error naming the axis.
        let case = presets::sod(16);
        let cfg = SolverConfig::default();
        let err = run_distributed(&case, cfg, 8, 1)
            .expect_err("2-cell-wide ranks cannot source a 3-layer halo");
        match err {
            ResilienceError::Decomposition { detail } => {
                assert!(detail.contains("axis 0"), "detail: {detail}");
            }
            other => panic!("expected Decomposition error, got {other:?}"),
        }
        // Called directly, with or without the output layer, the driver
        // rejects it too.
        let dir = resil_dir("thin");
        let opts = ResilienceOpts::fault_free(&dir, 0);
        let err = run_distributed_resilient(&case, cfg, 8, 1, Staging::DeviceDirect, &opts)
            .expect_err("resilient driver must also reject thin ranks");
        assert!(matches!(err, ResilienceError::Decomposition { .. }));
        let opts = ResilienceOpts {
            output: Some(WaveOutput {
                dir: dir.clone(),
                wave_size: 4,
            }),
            ..opts
        };
        let err = run_distributed_resilient(&case, cfg, 8, 1, Staging::DeviceDirect, &opts)
            .expect_err("the output layer does not change that");
        assert!(matches!(err, ResilienceError::Decomposition { .. }));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn comm_volume_scales_with_halo_area() {
        let cfg = SolverConfig::default();
        let small = presets::two_phase_benchmark(2, [16, 16, 1]);
        let big = presets::two_phase_benchmark(2, [32, 32, 1]);
        let (_, s_small) = run_distributed(&small, cfg, 2, 1).unwrap();
        let (_, s_big) = run_distributed(&big, cfg, 2, 1).unwrap();
        // Halo area doubles (one split axis, transverse extent doubles).
        assert!(s_big.bytes > s_small.bytes);
        assert_eq!(s_big.messages, s_small.messages);
    }
}
