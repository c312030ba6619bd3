//! The time step.
//!
//! There is one time step: [`Solver`] is one block of the grid — its
//! state, workspaces, clock and recovery ladder — and `Solver::step_with`
//! is the only dt → RK stages → health verdict → retry sequence in the
//! crate. A single-device block steps through `Lone`; a rank of a
//! decomposed run ([`crate::par`]) is the same block plus a comm link,
//! which supplies the two things that differ between one block and many:
//! a min-reduction over the run's blocks and the ghost fill that precedes
//! each RHS evaluation. [`crate::run`] is the loop that steps either to
//! the end of a run.

use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

use mfc_acc::{Context, Ledger, ResilienceEvent, ResilienceEventKind, ResilienceEventKind as Kind};
use mfc_mpsim::CommFault;
use mfc_trace::Category;

use crate::axisym::Geometry;
use crate::bc::{apply_bcs, BcSpec};
use crate::case::CaseBuilder;
use crate::cfl::{self, RateMetric};
use crate::diag::{grind_time, GrindTime};
use crate::domain::Domain;
use crate::fluid::Fluid;
use crate::grid::Grid;
use crate::health::{self, HealthConfig};
use crate::ibm::GhostCellIbm;
use crate::recovery::{RecoveryPolicy, RecoveryState, SolverError, StepFault, StepOutcome};
use crate::restart::{save_block, BlockLayout};
use crate::rhs::{compute_rhs, RhsConfig, RhsWorkspace};
use crate::state::StateField;
use crate::time::{rk_step_in, RkWorkspace, TimeScheme};

/// Time-step selection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum DtMode {
    /// CFL-bounded adaptive step.
    Cfl(f64),
    /// Fixed step (convergence studies, deterministic benchmarks).
    Fixed(f64),
}

/// Solver options.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolverConfig {
    pub rhs: RhsConfig,
    pub scheme: TimeScheme,
    pub dt: DtMode,
    /// Worker threads (gangs) the execution context schedules kernels
    /// onto. Results are bitwise identical at every worker count; 1 runs
    /// everything on the calling thread.
    #[serde(default = "default_workers")]
    pub workers: usize,
    /// SIMD lane width for the vectorized kernels (OpenACC `vector`
    /// analog): 8, or 1, which disables lane packets entirely. Results
    /// are bitwise identical at both widths.
    #[serde(default = "default_vector_width")]
    pub vector_width: usize,
}

fn default_workers() -> usize {
    1
}

fn default_vector_width() -> usize {
    mfc_acc::DEFAULT_WIDTH
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            rhs: RhsConfig::default(),
            scheme: TimeScheme::Rk3,
            dt: DtMode::Cfl(0.5),
            workers: 1,
            vector_width: mfc_acc::DEFAULT_WIDTH,
        }
    }
}

/// What a stage's RHS evaluation needs of its block besides the state:
/// everything a [`Link`] may touch while `rk_step_in` holds `q`.
pub(crate) struct RhsEnv {
    pub ctx: Context,
    fluids: Vec<Fluid>,
    bc: BcSpec,
    /// Faces with a neighbour block instead of a physical boundary.
    skip: [(bool, bool); 3],
    grid: Grid,
    ibm: Option<GhostCellIbm>,
    pub ws: RhsWorkspace,
}

impl RhsEnv {
    /// Physical BCs, the immersed boundary if there is one, then the RHS:
    /// what a block does once its exchanged ghosts are valid.
    pub fn local_rhs(&mut self, cfg: &RhsConfig, q: &mut StateField, rhs: &mut StateField) {
        apply_bcs(&self.ctx, q, &self.bc, self.skip);
        if let Some(ibm) = &self.ibm {
            ibm.apply(&self.ctx, &self.grid, &self.fluids, q);
        }
        compute_rhs(&self.ctx, cfg, &self.fluids, q, &mut self.ws, rhs);
    }
}

/// What differs between a lone block and one block of many. Two impls:
/// [`Lone`] here and the rank body's comm link in [`crate::par`].
pub(crate) trait Link {
    /// This block's rank in a decomposed run; `None` for a lone block.
    fn rank(&self) -> Option<usize>;

    /// Minimum of `v` over the run's blocks: the global dt, and the health
    /// verdict (1.0 clean / 0.0 faulted) that makes acceptance collective.
    fn min(&mut self, v: f64) -> Result<f64, CommFault>;

    /// Make `q`'s ghosts valid and evaluate `rhs` under `cfg`, the RHS
    /// configuration in force on the current ladder rung.
    fn eval_rhs(
        &mut self,
        env: &mut RhsEnv,
        cfg: &RhsConfig,
        q: &mut StateField,
        rhs: &mut StateField,
    ) -> Result<(), CommFault>;

    /// Record a ladder event of this block at `step`.
    fn note(&self, kind: ResilienceEventKind, step: u64, wall: Duration, detail: String);
}

/// The link of a single-device run: nothing to reduce over, no neighbour
/// to exchange with, events into the block's own ledger; the run loop
/// asks its hook at every step boundary.
pub(crate) struct Lone<'a, F>(pub(crate) &'a Ledger, pub(crate) F);

impl<F> Link for Lone<'_, F> {
    fn rank(&self) -> Option<usize> {
        None
    }

    fn min(&mut self, v: f64) -> Result<f64, CommFault> {
        Ok(v)
    }

    fn eval_rhs(
        &mut self,
        env: &mut RhsEnv,
        cfg: &RhsConfig,
        q: &mut StateField,
        rhs: &mut StateField,
    ) -> Result<(), CommFault> {
        env.local_rhs(cfg, q, rhs);
        Ok(())
    }

    fn note(&self, kind: ResilienceEventKind, step: u64, wall: Duration, detail: String) {
        self.0.record_event(ResilienceEvent {
            kind,
            rank: 0,
            step,
            wave: 0,
            wall,
            detail,
        });
    }
}

/// One block of the grid and everything needed to step it: the whole grid
/// of a single-device run, or one rank's share of a decomposed one.
pub struct Solver {
    env: RhsEnv,
    cfg: SolverConfig,
    dom: Domain,
    /// Which block of which decomposition this is.
    layout: BlockLayout,
    q: StateField,
    /// The maximum CFL rate of `q` as the last accepted step's health scan
    /// found it; `None` once `q` may have changed since (a restore, a
    /// mutable borrow, a rejected attempt) or before any step.
    rate: Option<f64>,
    rk: RkWorkspace,
    health: HealthConfig,
    recovery: Option<RecoveryPolicy>,
    rec: RecoveryState,
    t: f64,
    steps: u64,
    wall: Duration,
}

impl Solver {
    /// Build a solver from a case description.
    pub fn new(case: &CaseBuilder, cfg: SolverConfig, ctx: Context) -> Self {
        let layout = BlockLayout::lone(case.cells);
        Self::block(case, cfg, ctx, case.grid(), layout, [(false, false); 3])
    }

    /// One block of a decomposed run: `grid` is the block's slice of the
    /// global grid, the one `layout` places; `skip` marks its faces that
    /// border a neighbour block.
    pub(crate) fn block(
        case: &CaseBuilder,
        cfg: SolverConfig,
        ctx: Context,
        grid: Grid,
        layout: BlockLayout,
        skip: [(bool, bool); 3],
    ) -> Self {
        let ng = cfg.rhs.order.ghost_layers().max(1);
        let dom = Domain::new([grid.x.n(), grid.y.n(), grid.z.n()], ng, case.eq());
        let q = case.init_block(&ctx, &dom, &grid, layout.off);
        let ws = RhsWorkspace::new(dom, &grid);
        let rk = RkWorkspace::new(&q);
        Solver {
            env: RhsEnv {
                ctx,
                fluids: case.fluids.clone(),
                bc: case.bc,
                skip,
                grid,
                ibm: None,
                ws,
            },
            cfg,
            dom,
            layout,
            q,
            rate: None,
            rk,
            health: HealthConfig::default(),
            recovery: None,
            rec: RecoveryState::default(),
            t: 0.0,
            steps: 0,
            wall: Duration::ZERO,
        }
    }

    /// Attach a ghost-cell immersed boundary.
    pub fn with_body(mut self, ibm: GhostCellIbm) -> Self {
        self.env.ibm = Some(ibm);
        self
    }

    /// Arm the graceful-degradation recovery ladder: faulted steps are
    /// retried from `q^n` under progressively more dissipative policies
    /// instead of aborting on the first violation.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Replace (or disarm) the recovery policy.
    pub fn set_recovery(&mut self, policy: Option<RecoveryPolicy>) {
        self.recovery = policy;
        self.rec = RecoveryState::default();
    }

    /// Adjust the health-watchdog tolerances.
    pub fn set_health(&mut self, health: HealthConfig) {
        self.health = health;
    }

    /// Ladder bookkeeping (current rung, total retries) for summaries.
    pub fn recovery_state(&self) -> RecoveryState {
        self.rec
    }

    pub fn context(&self) -> &Context {
        &self.env.ctx
    }

    pub(crate) fn fluids(&self) -> &[Fluid] {
        &self.env.fluids
    }

    /// Elastically resize the worker count mid-run (clamped to ≥ 1).
    ///
    /// Only meaningful between steps; results stay bitwise identical at
    /// every count, so an ensemble scheduler may grow or shrink a running
    /// job whenever its share of a global budget changes. Keeps
    /// `cfg.workers` in sync so summaries report the final share.
    pub fn set_workers(&mut self, workers: usize) {
        let workers = workers.max(1);
        self.env.ctx.set_workers(workers);
        self.cfg.workers = workers;
    }

    pub fn domain(&self) -> &Domain {
        &self.dom
    }

    /// Which block of which decomposition this solver steps.
    pub fn layout(&self) -> BlockLayout {
        self.layout
    }

    pub fn grid(&self) -> &Grid {
        &self.env.grid
    }

    pub fn time(&self) -> f64 {
        self.t
    }

    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Current conservative state.
    pub fn state(&self) -> &StateField {
        &self.q
    }

    /// Mutable access to the conservative state (custom initial
    /// conditions, injected perturbations, filter application).
    pub fn state_mut(&mut self) -> &mut StateField {
        self.rate = None;
        &mut self.q
    }

    /// The conservative state, the solver's workspaces freed with the rest
    /// of it: what a final gather or snapshot copies, so that the copy is
    /// never held alongside them.
    pub fn into_state(self) -> StateField {
        self.q
    }

    /// Resume from a checkpointed state: replaces the conservative state
    /// and the simulation clock (see [`crate::restart`]) and resets the
    /// recovery ladder — what follows is a fresh deterministic run from
    /// the checkpoint, whatever rung the solver was on.
    ///
    /// # Panics
    /// If the checkpoint's domain does not match this solver's.
    pub fn restore(&mut self, q: StateField, t: f64, steps: u64) {
        assert_eq!(
            q.domain(),
            &self.dom,
            "checkpoint domain does not match the case"
        );
        self.q = q;
        self.rate = None;
        self.t = t;
        self.steps = steps;
        self.rec = RecoveryState::default();
        self.wall = Duration::ZERO;
    }

    /// What a [`Link`] is handed for one RHS evaluation, for tests that
    /// drive a link directly.
    #[cfg(test)]
    pub(crate) fn rhs_parts(&mut self) -> (&mut RhsEnv, &mut StateField) {
        self.rate = None;
        (&mut self.env, &mut self.q)
    }

    /// Freshly converted primitive state (interior and ghosts).
    pub fn primitives(&self) -> StateField {
        let mut prim = StateField::zeros(self.dom);
        crate::state::cons_to_prim_field(&self.env.ctx, &self.env.fluids, &self.q, &mut prim);
        prim
    }

    /// The CFL metric of this block: its cell widths, and the azimuthal
    /// `r dtheta` in 3-D cylindrical coordinates.
    fn rate_metric(&self, cfg: &SolverConfig) -> RateMetric<'_> {
        let ws = &self.env.ws;
        let w = &ws.widths;
        let radial = (cfg.rhs.geometry == Geometry::Cylindrical3D).then(|| ws.radii());
        RateMetric::new(&self.env.fluids, [&w[0], &w[1], &w[2]], radial)
    }

    /// The time step this block would take under `cfg`: the fixed value,
    /// or `cfl / rate` with the maximum CFL rate of `q` — `cached` from
    /// the last accepted step's health scan, else one pass over `q` —
    /// either way clipped to land on `t_stop`.
    fn select_dt(
        &self,
        cfg: &SolverConfig,
        cached: Option<f64>,
        t_stop: f64,
    ) -> Result<f64, StepFault> {
        let dt = match cfg.dt {
            DtMode::Fixed(dt) => dt,
            DtMode::Cfl(c) => {
                let rate = cached.unwrap_or_else(|| {
                    let metric = self.rate_metric(cfg);
                    cfl::max_rate(&self.env.ctx, &self.env.fluids, &self.q, true, &metric)
                });
                cfl::dt_from_rate(c, rate)?
            }
        };
        Ok(dt.min(t_stop - self.t))
    }

    /// Run one RK update of `q` under `cfg`. `Ok(Ok(dt))` is an accepted
    /// attempt; `Ok(Err(_))` the numerical fault that rejected it — a
    /// degenerate CFL reduction or a post-step health violation, on this
    /// block or (the reductions make both collective) on a peer — with `q`
    /// back on `q^n`: a dt fault never touched it, and a health fault
    /// restores its interior from the copy `rk_step_in` took (`rk.q0` —
    /// which before this attempt's `rk_step_in` still held `q^{n-1}`, so
    /// only this path may read it) and zeroes its ghosts, which the next
    /// attempt refills before reading. `Err(_)` is a link failure: the
    /// state is mid-update and the caller rolls back.
    fn attempt<L: Link>(
        &mut self,
        cfg: &SolverConfig,
        link: &mut L,
        t_stop: f64,
    ) -> Result<Result<f64, StepFault>, CommFault> {
        let dt_span = self.env.ctx.span("dt_reduce", Category::Phase);
        // A cached rate serves this attempt only: whatever follows, `q`
        // changes.
        let cached = self.rate.take();
        let local = self.select_dt(cfg, cached, t_stop);
        // A degenerate local rate travels the min-reduction as -1.0, so
        // every block rejects the attempt. On a rank the reduction doubles
        // as the per-step heartbeat.
        let dt = link.min(local.unwrap_or(-1.0))?;
        drop(dt_span);
        self.env.ctx.trace_counter("dt", dt);
        match local {
            Err(fault) => return Ok(Err(fault)),
            // Only a peer's sentinel undercuts this block's own dt at or
            // below zero: a lone block never sees one, and a non-positive
            // fixed dt (refused at admission) is stepped as asked.
            Ok(own) if dt <= 0.0 && dt < own => return Ok(Err(StepFault::Peer)),
            Ok(_) => {}
        }

        // A link failure abandons the remaining stages.
        let rk_span = self.env.ctx.span("rk_stages", Category::Phase);
        let mut failed = None;
        let ctx = self.env.ctx.clone();
        rk_step_in(&ctx, cfg.scheme, dt, &mut self.q, &mut self.rk, |q, rhs| {
            if failed.is_none() {
                failed = link.eval_rhs(&mut self.env, &cfg.rhs, q, rhs).err();
            }
        });
        drop(rk_span);
        if let Some(fault) = failed {
            return Err(fault);
        }

        // Post-step watchdog: one pass over q^{n+1} gives the verdict and,
        // under a CFL dt, the next step's rate. Read-only on q: a clean run
        // is bitwise identical with or without the watchdog armed.
        let _health_span = self.env.ctx.span("health_verdict", Category::Phase);
        let metric = matches!(cfg.dt, DtMode::Cfl(_)).then(|| self.rate_metric(cfg));
        let local = health::scan(
            &self.env.ctx,
            &self.env.fluids,
            &self.health,
            &self.q,
            None,
            metric.as_ref(),
        );
        if link.min(if local.is_err() { 0.0 } else { 1.0 })? >= 1.0 {
            self.rate = metric.and(local.ok());
            return Ok(Ok(dt));
        }
        self.rk.restore(&mut self.q);
        Ok(Err(local
            .err()
            .map_or(StepFault::Peer, StepFault::Unphysical)))
    }

    /// Abort bookkeeping: best-effort crash-dump checkpoint + event. The
    /// faulted attempt already left `q` on the last accepted state.
    fn give_up<L: Link>(&self, fault: StepFault, attempts: u32, link: &L) -> SolverError {
        let name = match link.rank() {
            Some(r) => format!("crash_rank{r}_step{}.bin", self.steps),
            None => format!("crash_step{}.bin", self.steps),
        };
        let dir = self
            .recovery
            .as_ref()
            .and_then(|p| p.crash_dump_dir.as_ref());
        let crash_dump = dir.and_then(|dir| {
            let path = dir.join(name);
            std::fs::create_dir_all(dir).ok()?;
            save_block(&path, &self.q, self.layout, self.t, self.steps).ok()?;
            Some(path)
        });
        if let Some(p) = &crash_dump {
            let detail = p.display().to_string();
            link.note(Kind::CrashDump, self.steps, Duration::ZERO, detail);
        }
        SolverError {
            fault,
            step: self.steps,
            t: self.t,
            attempts,
            crash_dump,
        }
    }

    /// The one time step, clipped so it does not pass `t_stop`: attempt it
    /// under the current ladder rung; on a numerical fault retry from `q^n`
    /// one rung up, until an attempt is accepted or the ladder is exhausted
    /// (`Ok(Err(_))`). Every decision rests on a reduced value, so all
    /// blocks of a run accept, retry or give up the same attempt in
    /// lockstep. The block that observed a fault records it (and its crash
    /// dump); block 0 records the collective ladder moves. `Err(_)` is a
    /// link failure.
    pub(crate) fn step_with<L: Link>(
        &mut self,
        link: &mut L,
        t_stop: f64,
    ) -> Result<Result<StepOutcome, SolverError>, CommFault> {
        let t0 = Instant::now();
        let _step_span = self.env.ctx.span("step", Category::Phase);
        let lead = link.rank().unwrap_or(0) == 0;
        let mut retries = 0u32;
        loop {
            let cfg = match &self.recovery {
                Some(p) => p.effective_config(&self.cfg, self.rec.rung),
                None => self.cfg,
            };
            let fault = match self.attempt(&cfg, link, t_stop)? {
                Ok(dt) => {
                    self.t += dt;
                    self.steps += 1;
                    self.wall += t0.elapsed();
                    let rung = self.rec.rung;
                    if let Some(p) = &self.recovery {
                        if self.rec.accept(p) && lead {
                            let detail = format!(
                                "default policy restored after {} clean steps",
                                p.restore_after
                            );
                            link.note(Kind::Restore, self.steps, t0.elapsed(), detail);
                        }
                    }
                    return Ok(Ok(StepOutcome { dt, retries, rung }));
                }
                Err(fault) => fault,
            };
            let ctx = &self.env.ctx;
            ctx.trace_instant("health_fault", Category::Recovery);
            if fault != StepFault::Peer {
                let detail = fault.to_string();
                link.note(Kind::HealthFault, self.steps, t0.elapsed(), detail);
            }
            retries += 1;
            let policy = match &self.recovery {
                Some(p) if retries <= p.max_retries && self.rec.escalate(p) => p,
                _ => {
                    self.wall += t0.elapsed();
                    return Ok(Err(self.give_up(fault, retries, link)));
                }
            };
            ctx.trace_instant("retry", Category::Recovery);
            ctx.trace_instant("degrade", Category::Recovery);
            if lead {
                let detail = format!("attempt {} from saved q^n", retries + 1);
                link.note(Kind::Retry, self.steps, t0.elapsed(), detail);
                let rung = self.rec.rung;
                let detail = format!("rung {rung}: {}", policy.ladder[rung - 1].name());
                link.note(Kind::Degrade, self.steps, t0.elapsed(), detail);
            }
        }
    }

    /// Advance one time step.
    ///
    /// On success the outcome reports the dt taken plus any recovery-ladder
    /// activity. A numerical fault with no (or an exhausted) recovery
    /// policy returns a typed [`SolverError`] instead of panicking; the
    /// state is left at the last accepted `q^n`.
    pub fn step(&mut self) -> Result<StepOutcome, SolverError> {
        let ledger = self.env.ctx.ledger_arc();
        self.step_with(&mut Lone(&ledger, ()), f64::INFINITY)
            .unwrap_or_else(|fault| unreachable!("a lone block has no link to fail: {fault}"))
    }

    /// Conserved-variable totals.
    pub fn conservation(&self) -> Vec<f64> {
        crate::diag::conservation_totals(&self.q, &self.env.grid, self.cfg.rhs.geometry)
    }

    /// Grind time over everything run so far (ns/cell/eq/RHS-eval).
    pub fn grind(&self) -> GrindTime {
        grind_time(
            &self.dom,
            self.steps * self.cfg.scheme.stages() as u64,
            self.wall,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::presets;
    use crate::riemann::{ExactRiemann, PrimSide};

    #[test]
    fn sod_shock_tube_matches_exact_solution() {
        let case = presets::sod(200);
        let mut solver = Solver::new(&case, SolverConfig::default(), Context::serial());
        solver.run_until(0.15, 10_000).unwrap();
        assert!((solver.time() - 0.15).abs() < 1e-2);

        let air = Fluid::air();
        let exact = ExactRiemann::solve(
            PrimSide {
                rho: 1.0,
                u: 0.0,
                p: 1.0,
                fluid: air,
            },
            PrimSide {
                rho: 0.125,
                u: 0.0,
                p: 0.1,
                fluid: air,
            },
        );
        let prim = solver.primitives();
        let eq = case.eq();
        let t = solver.time();
        let mut l1 = 0.0;
        for i in 0..200 {
            let x = (i as f64 + 0.5) / 200.0;
            let (rho_ex, _, _) = exact.sample((x - 0.5) / t);
            l1 += (prim.get(i + 3, 0, 0, eq.cont(0)) - rho_ex).abs();
        }
        l1 /= 200.0;
        assert!(l1 < 0.015, "Sod density L1 error {l1}");
    }

    #[test]
    fn conservation_is_exact_under_periodic_bcs() {
        let case = presets::two_phase_benchmark(2, [24, 24, 1]);
        let mut solver = Solver::new(&case, SolverConfig::default(), Context::serial());
        let before = solver.conservation();
        solver.run_steps(10).unwrap();
        let after = solver.conservation();
        let eq = case.eq();
        // Strictly conserved: partial densities, momentum, energy.
        for e in 0..eq.energy() + 1 {
            let scale = before[e].abs().max(1e-30);
            assert!(
                (after[e] - before[e]).abs() / scale < 1e-11,
                "eq {e}: {} -> {}",
                before[e],
                after[e]
            );
        }
    }

    #[test]
    fn interface_advection_preserves_pressure_velocity_equilibrium() {
        // A material interface advected in uniform (p, u) must not disturb
        // either — the raison d'être of the 5-equation scheme.
        use crate::bc::BcSpec;
        use crate::case::{CaseBuilder, PatchState, Region};
        let case = CaseBuilder::new(vec![Fluid::air(), Fluid::water()], 1, [64, 1, 1])
            .bc(BcSpec::periodic())
            .smear(2.0)
            .patch(
                Region::All,
                PatchState::two_fluid(1.0 - 1e-6, [1.2, 1000.0], [100.0, 0.0, 0.0], 1.0e5),
            )
            .patch(
                Region::Box {
                    lo: [0.25, -1.0, -1.0],
                    hi: [0.75, 2.0, 2.0],
                },
                PatchState::two_fluid(1e-6, [1.2, 1000.0], [100.0, 0.0, 0.0], 1.0e5),
            );
        let mut solver = Solver::new(&case, SolverConfig::default(), Context::serial());
        solver.run_steps(50).unwrap();
        let prim = solver.primitives();
        let eq = case.eq();
        for i in 0..64 {
            let p = prim.get(i + 3, 0, 0, eq.energy());
            let u = prim.get(i + 3, 0, 0, eq.mom(0));
            assert!((p - 1.0e5).abs() / 1.0e5 < 1e-6, "p[{i}] = {p}");
            assert!((u - 100.0).abs() / 100.0 < 1e-6, "u[{i}] = {u}");
        }
        // And the interface actually moved: alpha field shifted by u*t.
        let alpha_mid = prim.get(3 + 32, 0, 0, eq.adv(0));
        assert!(alpha_mid < 0.5 || solver.time() * 100.0 < 0.1);
    }

    #[test]
    fn grind_time_is_positive_and_recorded() {
        let case = presets::two_phase_benchmark(2, [16, 16, 1]);
        let mut solver = Solver::new(&case, SolverConfig::default(), Context::serial());
        solver.run_steps(3).unwrap();
        let g = solver.grind();
        assert_eq!(g.rhs_evals, 9); // 3 steps × RK3
        assert!(g.ns_per_cell_eq_rhs() > 0.0);
        // The ledger saw WENO work (fused label under the default mode).
        assert!(solver
            .context()
            .ledger()
            .kernel("f_weno_reconstruct")
            .is_some());
    }

    #[test]
    fn injected_nan_is_a_typed_error_not_a_panic() {
        let case = presets::sod(64);
        let mut solver = Solver::new(&case, SolverConfig::default(), Context::serial());
        solver.run_steps(2).unwrap();
        let eq = case.eq();
        solver.state_mut().set(10, 0, 0, eq.energy(), f64::NAN);
        let err = solver.step().unwrap_err();
        match err.fault {
            StepFault::Unphysical(v) => {
                assert_eq!(v.kind, crate::health::ViolationKind::NotFinite)
            }
            other => panic!("unexpected fault {other:?}"),
        }
        assert_eq!(err.step, 2);
        // The attempted step was rolled back to the saved q^n: the NaN did
        // not propagate, so the injected cell is the only non-finite value.
        let bad = solver
            .state()
            .as_slice()
            .iter()
            .filter(|v| !v.is_finite())
            .count();
        assert_eq!(bad, 1, "rollback must confine the NaN to the injected cell");
    }

    #[test]
    fn ladder_recovers_overdriven_fixed_dt() {
        use crate::recovery::RecoveryAction;
        // Measure a stable dt, then overdrive the same case: WENO5 blows
        // up within a few steps without recovery. `Rk1` — whose retries
        // rest on the q^n copy `rk_step` gained — gets 8x: forward Euler
        // exhausts this ladder at 16x.
        let case = presets::sod(64);
        let mut probe = Solver::new(&case, SolverConfig::default(), Context::serial());
        let dt0 = probe.step().unwrap().dt;

        for (scheme, over) in [(TimeScheme::Rk3, 16.0), (TimeScheme::Rk1, 8.0)] {
            let cfg = SolverConfig {
                scheme,
                dt: DtMode::Fixed(dt0 * over),
                ..Default::default()
            };
            let mut plain = Solver::new(&case, cfg, Context::serial());
            assert!(
                plain.run_steps(40).is_err(),
                "{scheme:?}: {over}x-overdriven fixed dt should fault without recovery"
            );

            let policy = RecoveryPolicy {
                ladder: vec![
                    RecoveryAction::HalveDt,
                    RecoveryAction::HalveDt,
                    RecoveryAction::HalveDt,
                    RecoveryAction::HalveDt,
                    RecoveryAction::ZhangShu,
                    RecoveryAction::Weno3,
                    RecoveryAction::Rusanov,
                ],
                max_retries: 16,
                restore_after: 1_000, // stay degraded for this short run
                crash_dump_dir: None,
            };
            let mut armed = Solver::new(&case, cfg, Context::serial()).with_recovery(policy);
            armed.run_steps(40).expect("ladder should ride through");
            assert!(armed.state().as_slice().iter().all(|v| v.is_finite()));
            assert!(armed.recovery_state().total_retries > 0);
            let ledger = armed.context().ledger();
            assert!(!ledger
                .events_of(ResilienceEventKind::HealthFault)
                .is_empty());
            assert!(!ledger.events_of(ResilienceEventKind::Degrade).is_empty());
        }
    }

    /// A rejected step leaves `state()` on the `q^n` it started from.
    /// Struck before `rk_step_in` (a degenerate CFL reduction: `q`
    /// untouched, `rk.q0` still `q^{n-1}`, so restoring from it would be
    /// wrong), the whole state is bit-for-bit the injected one. Struck
    /// after it (the health scan: `rk.q0` is the only copy of `q^n`, also
    /// under `Rk1`), the interior is, and every ghost is `0.0`.
    #[test]
    fn rejected_step_leaves_the_injected_state_bitwise() {
        let case = presets::sod(64);
        let bits = |q: &StateField| q.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let interior = |q: &StateField| {
            let cells = crate::output::block_to_vec(q);
            cells.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        for scheme in [TimeScheme::Rk1, TimeScheme::Rk3] {
            for dt in [DtMode::Cfl(0.5), DtMode::Fixed(1.0e-4)] {
                for ladder in [false, true] {
                    let cfg = SolverConfig {
                        scheme,
                        dt,
                        ..Default::default()
                    };
                    let mut solver = Solver::new(&case, cfg, Context::serial());
                    if ladder {
                        solver.set_recovery(Some(RecoveryPolicy::default()));
                    }
                    solver.run_steps(2).unwrap();
                    match dt {
                        // Every rate NaN: the max-reduction comes back -inf.
                        DtMode::Cfl(_) => solver.state_mut().fill(f64::NAN),
                        DtMode::Fixed(_) => {
                            let e = case.eq().energy();
                            solver.state_mut().set(10, 0, 0, e, f64::NAN)
                        }
                    }
                    let (injected, want) = (bits(solver.state()), interior(solver.state()));
                    let err = solver.step().unwrap_err();
                    let at = format!("{scheme:?} {dt:?} ladder={ladder}");
                    match (dt, &err.fault) {
                        (DtMode::Cfl(_), StepFault::DegenerateWaveSpeed { .. })
                        | (DtMode::Fixed(_), StepFault::Unphysical(_)) => {}
                        (_, other) => panic!("{at}: unexpected fault {other:?}"),
                    }
                    assert_eq!(err.attempts > 1, ladder, "{at}");
                    let q = solver.state();
                    match dt {
                        DtMode::Cfl(_) => assert!(bits(q) == injected, "{at}: state differs"),
                        DtMode::Fixed(_) => {
                            assert!(interior(q) == want, "{at}: interior differs");
                            let dom = *q.domain();
                            let inside = |c: usize, d: usize| {
                                (dom.pad(d)..dom.pad(d) + dom.n[d]).contains(&c)
                            };
                            // Sod is 1-D: every ghost is on x.
                            for e in 0..dom.eq.neq() {
                                for i in (0..dom.ext(0)).filter(|&i| !inside(i, 0)) {
                                    let v = q.get(i, 0, 0, e);
                                    assert_eq!(v.to_bits(), 0, "{at}: ghost ({i}, {e}) is {v}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// A non-positive fixed dt is refused at admission; through the library
    /// it is stepped as asked — alone and on ranks alike, bit for bit — and
    /// never mistaken for a peer's degenerate-rate sentinel, which no lone
    /// block can receive (`StepFault::Peer` needs a peer).
    #[test]
    fn non_positive_fixed_dt_is_stepped_as_asked_on_any_rank_count() {
        use crate::par::{run_distributed, run_single};
        let case = presets::sod(64);
        for dt in [0.0, -1.0e-4] {
            let cfg = SolverConfig {
                dt: DtMode::Fixed(dt),
                ..Default::default()
            };
            let mut solver = Solver::new(&case, cfg, Context::serial());
            assert_eq!(solver.step().unwrap().dt, dt);
            assert!(solver.context().ledger().events().is_empty());
            let serial = run_single(&case, cfg, 2);
            let (dist, _) = run_distributed(&case, cfg, 2, 2).unwrap();
            assert_eq!(dist.max_abs_diff(&serial), 0.0, "dt = {dt}");
        }
    }

    /// A restore is a fresh deterministic run from the checkpoint: a
    /// solver restored while degraded starts again on rung 0, so it stays
    /// bit-for-bit with a fresh armed solver restored from the same state
    /// (it used to keep its rung and take the first steps on a smaller dt).
    #[test]
    fn restore_resets_the_ladder() {
        use crate::recovery::RecoveryAction;
        let case = presets::sod(64);
        let mut probe = Solver::new(&case, SolverConfig::default(), Context::serial());
        let dt0 = probe.step().unwrap().dt;
        let cfg = SolverConfig {
            dt: DtMode::Fixed(dt0 * 16.0),
            ..Default::default()
        };
        let policy = RecoveryPolicy {
            ladder: vec![RecoveryAction::HalveDt; 6],
            max_retries: 16,
            restore_after: 1_000,
            crash_dump_dir: None,
        };
        let armed = || Solver::new(&case, cfg, Context::serial()).with_recovery(policy.clone());
        let mut fresh = armed();
        let checkpoint = fresh.state().clone();
        let mut degraded = armed();
        degraded.run_steps(10).unwrap();
        assert!(degraded.recovery_state().rung >= 1);

        for solver in [&mut fresh, &mut degraded] {
            solver.restore(checkpoint.clone(), 0.0, 0);
            assert_eq!(solver.recovery_state().rung, 0);
            solver.run_steps(5).unwrap();
        }
        assert!(
            fresh.state().as_slice() == degraded.state().as_slice(),
            "a restored solver must not remember its rung"
        );
    }

    #[test]
    fn armed_recovery_is_bitwise_transparent_when_clean() {
        let case = presets::sod(64);
        let mut plain = Solver::new(&case, SolverConfig::default(), Context::serial());
        plain.run_steps(10).unwrap();
        let mut armed = Solver::new(&case, SolverConfig::default(), Context::serial())
            .with_recovery(RecoveryPolicy::default());
        armed.run_steps(10).unwrap();
        assert_eq!(
            plain.state().as_slice(),
            armed.state().as_slice(),
            "recovery arming must not perturb a clean run"
        );
        assert!(armed.context().ledger().events().is_empty());
    }

    /// A swirling 3-D cylindrical case: the azimuthal `r dtheta` metric is
    /// live in its CFL bound.
    fn swirl() -> (CaseBuilder, SolverConfig) {
        use crate::bc::{BcKind::*, BcSpec};
        use crate::case::{PatchState, Region};
        let case = CaseBuilder::new(vec![Fluid::air()], 3, [8, 8, 8])
            .extent([0.0, 0.2, 0.0], [1.0, 1.2, 2.0 * std::f64::consts::PI])
            .bc(BcSpec {
                lo: [Periodic, Reflective, Periodic],
                hi: [Periodic, Reflective, Periodic],
            })
            .patch(
                Region::All,
                PatchState::single(1.2, [10.0, 0.0, 60.0], 1.0e5),
            )
            .patch(
                Region::Sphere {
                    center: [0.5, 0.7, 3.0],
                    radius: 0.3,
                },
                PatchState::single(1.5, [10.0, 5.0, 60.0], 1.4e5),
            );
        let mut cfg = SolverConfig::default();
        cfg.rhs.geometry = Geometry::Cylindrical3D;
        (case, cfg)
    }

    /// An axisymmetric air bubble on the axis of a water column.
    fn axisymmetric() -> (CaseBuilder, SolverConfig) {
        use crate::bc::{BcKind::*, BcSpec};
        use crate::case::{PatchState, Region};
        let case = CaseBuilder::new(vec![Fluid::air(), Fluid::water()], 2, [16, 8, 1])
            .extent([-1.0, 0.0, 0.0], [1.0, 1.0, 1.0])
            .bc(BcSpec {
                lo: [Transmissive, Reflective, Transmissive],
                hi: [Transmissive; 3],
            })
            .smear(1.0)
            .patch(
                Region::All,
                PatchState::two_fluid(1e-6, [1.2, 1000.0], [0.0; 3], 2.0e5),
            )
            .patch(
                Region::Sphere {
                    center: [0.0; 3],
                    radius: 0.4,
                },
                PatchState::two_fluid(1.0 - 1e-6, [1.2, 1000.0], [0.0; 3], 1.0e5),
            );
        let mut cfg = SolverConfig::default();
        cfg.rhs.geometry = Geometry::Axisymmetric;
        (case, cfg)
    }

    /// A viscous periodic shear layer: the `2 nu / h^2` term is live in its
    /// CFL bound.
    fn shear() -> (CaseBuilder, SolverConfig) {
        use crate::bc::BcSpec;
        use crate::case::{PatchState, Region};
        let case = CaseBuilder::new(vec![Fluid::air().with_viscosity(0.05)], 2, [12, 12, 1])
            .bc(BcSpec::periodic())
            .patch(
                Region::All,
                PatchState::single(1.2, [30.0, 0.0, 0.0], 1.0e5),
            )
            .patch(
                Region::Box {
                    lo: [-1.0, 0.5, -1.0],
                    hi: [2.0, 2.0, 2.0],
                },
                PatchState::single(1.0, [-30.0, 5.0, 0.0], 1.1e5),
            );
        (case, SolverConfig::default())
    }

    /// The fused Cartesian inviscid path never writes
    /// `RhsWorkspace::prim`: after three steps — of a lone block, and of
    /// every rank's block — it is still the
    /// zeroed allocation, whose pages never become resident. The staged
    /// loop order, the viscous closure (which still converts the whole
    /// grid) and the in-kernel conversion of the axisymmetric source step
    /// to the interior bits they stepped to when every evaluation
    /// converted the whole grid first.
    #[test]
    fn fused_inviscid_steps_never_write_the_primitive_field() {
        use crate::par::stepped_rank_blocks;
        use crate::restart::Crc32;
        use crate::rhs::RhsMode;
        let untouched = |s: &Solver| s.env.ws.prim.as_slice().iter().all(|v| v.to_bits() == 0);
        let case = presets::two_phase_benchmark(3, [8, 8, 8]);
        let cfg = SolverConfig::default();
        let mut lone = Solver::new(&case, cfg, Context::serial());
        lone.run_steps(3).unwrap();
        assert!(untouched(&lone), "lone block");
        for (rank, (blk, _)) in stepped_rank_blocks(&case, cfg, 2, 3).iter().enumerate() {
            assert!(untouched(blk), "rank {rank}");
        }

        let digest = |(case, cfg): (CaseBuilder, SolverConfig)| {
            let mut solver = Solver::new(&case, cfg, Context::serial());
            solver.run_steps(3).unwrap();
            let mut crc = Crc32::new();
            for v in crate::output::block_to_vec(solver.state()) {
                crc.update(&v.to_le_bytes());
            }
            crc.finish()
        };
        let mut staged = SolverConfig::default();
        staged.rhs.mode = RhsMode::Staged;
        let got = [
            digest((case, staged)),
            digest(shear()),
            digest(axisymmetric()),
            digest(swirl()),
        ];
        assert_eq!(got, WHOLE_GRID_DIGESTS, "{got:08x?}");
    }

    /// [`fused_inviscid_steps_never_write_the_primitive_field`]'s digests
    /// of the interior state as they were when every evaluation converted
    /// the whole grid to primitives first. Computed on the last revision
    /// whose RK tail still combined whole ghost-inclusive arrays, with
    /// this interior digest: only ghosts moved since, so any drift here is
    /// an interior change.
    const WHOLE_GRID_DIGESTS: [u32; 4] = [0x5c7d58ce, 0x1a2217a3, 0x281bfed6, 0x5f4713cb];

    /// The dt of every CFL step is bitwise the standalone rule applied to
    /// the step's `q` — a whole-grid conversion, then `try_max_dt_geom` —
    /// although the solver reads it from the previous step's health scan:
    /// in 1-D and 3-D, with the azimuthal metric and the viscous bound,
    /// alone and on two ranks. A fixed dt caches no rate.
    #[test]
    fn cached_rate_gives_the_reference_dt_sequence() {
        use crate::par::stepped_rank_blocks;
        let cases = [
            (presets::sod(64), SolverConfig::default()),
            (
                presets::two_phase_benchmark(3, [8, 8, 8]),
                SolverConfig::default(),
            ),
            swirl(),
            shear(),
        ];
        for (case, cfg) in cases {
            let DtMode::Cfl(cfl) = cfg.dt else {
                unreachable!("CFL cases")
            };
            let mut solver = Solver::new(&case, cfg, Context::serial());
            let reference: Vec<f64> = (0..5)
                .map(|_| {
                    let ws = &solver.env.ws;
                    let w = &ws.widths;
                    let metric = (cfg.rhs.geometry == Geometry::Cylindrical3D).then(|| ws.radii());
                    let prim = solver.primitives();
                    let want = cfl::try_max_dt_geom(
                        &solver.env.ctx,
                        &solver.env.fluids,
                        &prim,
                        [&w[0], &w[1], &w[2]],
                        cfl,
                        metric,
                    )
                    .unwrap();
                    let got = solver.step().unwrap().dt;
                    assert_eq!(got.to_bits(), want.to_bits(), "{:?}", case.cells);
                    got
                })
                .collect();
            for (rank, (_, dts)) in stepped_rank_blocks(&case, cfg, 2, 5).iter().enumerate() {
                assert!(dts == &reference, "{:?} rank {rank}", case.cells);
            }
        }

        let fixed = SolverConfig {
            dt: DtMode::Fixed(1.0e-4),
            ..Default::default()
        };
        let mut solver = Solver::new(&presets::sod(64), fixed, Context::serial());
        solver.run_steps(2).unwrap();
        assert_eq!(solver.rate, None);
    }

    /// A cached rate belongs to the `q` the last accepted step left: a
    /// mutable borrow of the state or a restore drops it, so the next
    /// steps are a fresh solver's on the same state, bit for bit.
    #[test]
    fn cached_rate_never_outlives_its_state() {
        let case = presets::sod(64);
        let cfg = SolverConfig::default();
        let mut early = Solver::new(&case, cfg, Context::serial());
        early.run_steps(3).unwrap();
        let checkpoint = (early.state().clone(), early.time());
        let scale_momentum = |s: &mut Solver| {
            let mom = s.dom.eq.mom(0);
            for v in s.state_mut().eq_slice_mut(mom) {
                *v *= 2.0;
            }
        };
        let restore = |s: &mut Solver| s.restore(checkpoint.0.clone(), checkpoint.1, 3);
        let mutations: [&dyn Fn(&mut Solver); 2] = [&scale_momentum, &restore];
        for (m, mutate) in mutations.iter().enumerate() {
            let mut stepped = Solver::new(&case, cfg, Context::serial());
            stepped.run_steps(8).unwrap();
            let stale = stepped.rate.expect("an accepted CFL step caches its rate");
            mutate(&mut stepped);
            let mut fresh = Solver::new(&case, cfg, Context::serial());
            fresh.restore(stepped.state().clone(), stepped.time(), stepped.steps());
            for n in 0..3 {
                let dt = fresh.step().unwrap().dt;
                if n == 0 {
                    assert_ne!(dt, 0.5 / stale, "mutation {m} must move the rate");
                }
                assert_eq!(stepped.step().unwrap().dt.to_bits(), dt.to_bits());
            }
            assert_eq!(stepped.state(), fresh.state(), "mutation {m}");
        }
    }

    #[test]
    fn fixed_dt_run_until_lands_exactly() {
        let case = presets::sod(64);
        let cfg = SolverConfig {
            dt: DtMode::Fixed(1e-3),
            ..Default::default()
        };
        let mut solver = Solver::new(&case, cfg, Context::serial());
        solver.run_until(0.0105, 100).unwrap();
        assert!((solver.time() - 0.0105).abs() < 1e-12);
    }

    /// The CFL twin: the last step is clipped, so the clock and the state
    /// both sit at `t_end` — the parent overshot with the state and then
    /// wrote `t_end` into the clock.
    #[test]
    fn cfl_run_until_lands_exactly() {
        let case = presets::sod(64);
        let mut solver = Solver::new(&case, SolverConfig::default(), Context::serial());
        solver.run_until(0.0105, 100).unwrap();
        assert!((solver.time() - 0.0105).abs() < 1e-12);
        // Stepping to the same instant by hand — free CFL steps, then one
        // fixed step over what is left — reaches the same state.
        let mut by_hand = Solver::new(&case, SolverConfig::default(), Context::serial());
        by_hand.run_steps(solver.steps() as usize - 1).unwrap();
        let rest = 0.0105 - by_hand.time();
        assert!(rest > 0.0);
        by_hand.cfg.dt = DtMode::Fixed(rest);
        by_hand.step().unwrap();
        assert_eq!(by_hand.state(), solver.state());
        // And the stop time does not outlive the call.
        assert!(solver.step().unwrap().dt > rest);
    }
}
