//! The single-device solver driver.

use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

use mfc_acc::{Context, ResilienceEvent, ResilienceEventKind};
use mfc_trace::Category;

use crate::axisym::Geometry;
use crate::bc::{apply_bcs, BcSpec};
use crate::case::CaseBuilder;
use crate::cfl;
use crate::diag::{grind_time, GrindTime};
use crate::domain::Domain;
use crate::fluid::Fluid;
use crate::grid::Grid;
use crate::health::{scan_and_convert, HealthConfig};
use crate::ibm::GhostCellIbm;
use crate::recovery::{RecoveryPolicy, RecoveryState, SolverError, StepFault, StepOutcome};

/// Directive returned by a [`Solver::run_controlled`] controller at each
/// step boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepControl {
    /// Take the next step unchanged.
    Continue,
    /// Resize to this worker count, then take the next step. Bitwise-safe:
    /// results are invariant to the worker count at every step boundary.
    Resize(usize),
    /// Stop before the next step (cooperative cancellation / deadline).
    Stop,
}
use crate::rhs::{compute_rhs, RhsConfig, RhsWorkspace};
use crate::state::StateField;
use crate::time::{rk_step, RkWorkspace, TimeScheme};

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
    /// analog). Must be a power of two in 1..=8. Results are bitwise
    /// identical at every width; 1 disables lane packets entirely.
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

/// Ghost-inclusive cell widths of `grid` along each axis of `dom`.
pub(crate) fn ghost_widths(grid: &Grid, dom: &Domain) -> [Vec<f64>; 3] {
    [
        grid.x.widths_with_ghosts(dom.pad(0)),
        grid.y.widths_with_ghosts(dom.pad(1)),
        grid.z.widths_with_ghosts(dom.pad(2)),
    ]
}

/// The time step one block takes under `cfg`: the fixed value, or the CFL
/// bound of `q` — with the azimuthal metric `r dtheta` in 3-D cylindrical
/// coordinates — leaving the primitives in `ws.prim`. The serial solver
/// and every rank of the distributed driver call this, so the rank count
/// cannot change the step.
pub(crate) fn select_dt(
    ctx: &Context,
    cfg: &SolverConfig,
    fluids: &[Fluid],
    q: &StateField,
    ws: &mut RhsWorkspace,
    widths: &[Vec<f64>; 3],
) -> Result<f64, StepFault> {
    match cfg.dt {
        DtMode::Fixed(dt) => Ok(dt),
        DtMode::Cfl(c) => {
            crate::state::cons_to_prim_field(ctx, fluids, q, &mut ws.prim);
            let metric = (cfg.rhs.geometry == Geometry::Cylindrical3D).then(|| ws.radii());
            cfl::try_max_dt_geom(
                ctx,
                fluids,
                &ws.prim,
                [&widths[0], &widths[1], &widths[2]],
                c,
                metric,
            )
        }
    }
}

/// A single-device (single-rank) simulation.
pub struct Solver {
    ctx: Context,
    cfg: SolverConfig,
    fluids: Vec<Fluid>,
    bc: BcSpec,
    dom: Domain,
    grid: Grid,
    q: StateField,
    ws: RhsWorkspace,
    /// Ghost-inclusive cell widths per axis (the CFL bound's metric).
    widths: [Vec<f64>; 3],
    rk: RkWorkspace,
    ibm: Option<GhostCellIbm>,
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
        let ng = cfg.rhs.order.ghost_layers().max(1);
        let dom = case.domain(ng);
        let grid = case.grid();
        let q = case.init_block(&ctx, &dom, &grid, [0, 0, 0]);
        let ws = RhsWorkspace::new(dom, &grid);
        let widths = ghost_widths(&grid, &dom);
        let rk = RkWorkspace::new(&q);
        Solver {
            ctx,
            cfg,
            fluids: case.fluids.clone(),
            bc: case.bc,
            dom,
            grid,
            q,
            ws,
            widths,
            rk,
            ibm: None,
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
        self.ibm = Some(ibm);
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
        &self.ctx
    }

    /// Elastically resize the worker count mid-run (clamped to ≥ 1).
    ///
    /// Only meaningful between steps; results stay bitwise identical at
    /// every count, so an ensemble scheduler may grow or shrink a running
    /// job whenever its share of a global budget changes. Keeps
    /// `cfg.workers` in sync so summaries report the final share.
    pub fn set_workers(&mut self, workers: usize) {
        let workers = workers.max(1);
        self.ctx.set_workers(workers);
        self.cfg.workers = workers;
    }

    pub fn domain(&self) -> &Domain {
        &self.dom
    }

    pub fn grid(&self) -> &Grid {
        &self.grid
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
        &mut self.q
    }

    /// Resume from a checkpointed state: replaces the conservative state
    /// and the simulation clock (see [`crate::restart`]).
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
        self.t = t;
        self.steps = steps;
        self.wall = Duration::ZERO;
    }

    /// Freshly converted primitive state (interior and ghosts).
    pub fn primitives(&self) -> StateField {
        let mut prim = StateField::zeros(self.dom);
        crate::state::cons_to_prim_field(&self.ctx, &self.fluids, &self.q, &mut prim);
        prim
    }

    /// Run one RK update of `q` under `cfg`, returning the dt taken or the
    /// first numerical fault (degenerate CFL reduction, or a post-step
    /// health violation). Either way `q` is `q^n` on return from a fault:
    /// a dt fault never touched it, and a health fault restores it from
    /// the copy `rk_step` took (`rk.q0` — which before this attempt's
    /// `rk_step` still held `q^{n-1}`, so only this path may read it).
    fn attempt_step(&mut self, cfg: &SolverConfig) -> Result<f64, StepFault> {
        let _dt_span = self.ctx.span("dt_select", Category::Phase);
        let dt = select_dt(
            &self.ctx,
            cfg,
            &self.fluids,
            &self.q,
            &mut self.ws,
            &self.widths,
        )?;
        drop(_dt_span);
        self.ctx.trace_counter("dt", dt);

        let _rk_span = self.ctx.span("rk_stages", Category::Phase);
        let Solver {
            ctx,
            fluids,
            bc,
            grid,
            q,
            ws,
            rk,
            ibm,
            ..
        } = self;
        rk_step(cfg.scheme, dt, q, rk, |q, rhs| {
            apply_bcs(ctx, q, bc, [(false, false); 3]);
            if let Some(ibm) = ibm {
                ibm.apply(ctx, grid, fluids, q);
            }
            compute_rhs(ctx, &cfg.rhs, fluids, q, ws, rhs);
        });
        drop(_rk_span);

        // Post-step watchdog, fused with the primitive conversion the next
        // step needs anyway. Read-only on q: a clean run is bitwise
        // identical with or without the watchdog armed.
        let _health_span = self.ctx.span("health_scan", Category::Phase);
        match scan_and_convert(
            &self.ctx,
            &self.fluids,
            &self.health,
            &self.q,
            &mut self.ws.prim,
        ) {
            None => Ok(dt),
            Some(v) => {
                self.q.as_mut_slice().copy_from_slice(self.rk.q0.as_slice());
                Err(StepFault::Unphysical(v))
            }
        }
    }

    fn record_event(&self, kind: ResilienceEventKind, wall: Duration, detail: String) {
        self.ctx.ledger().record_event(ResilienceEvent {
            kind,
            rank: 0,
            step: self.steps,
            wave: 0,
            wall,
            detail,
        });
    }

    /// Abort bookkeeping: best-effort crash-dump checkpoint + event. The
    /// faulted attempt already left `q` on the last accepted state.
    fn give_up(&mut self, fault: StepFault, attempts: u32) -> SolverError {
        let crash_dump = self
            .recovery
            .as_ref()
            .and_then(|p| p.crash_dump_dir.clone())
            .and_then(|dir| {
                let path = dir.join(format!("crash_step{}.bin", self.steps));
                std::fs::create_dir_all(&dir).ok()?;
                crate::restart::save_checkpoint(&path, &self.q, self.t, self.steps).ok()?;
                Some(path)
            });
        if let Some(p) = &crash_dump {
            self.record_event(
                ResilienceEventKind::CrashDump,
                Duration::ZERO,
                p.display().to_string(),
            );
        }
        SolverError {
            fault,
            step: self.steps,
            t: self.t,
            attempts,
            crash_dump,
        }
    }

    /// Advance one time step.
    ///
    /// On success the outcome reports the dt taken plus any recovery-ladder
    /// activity. A numerical fault with no (or an exhausted) recovery
    /// policy returns a typed [`SolverError`] instead of panicking; the
    /// state is left at the last accepted `q^n`.
    pub fn step(&mut self) -> Result<StepOutcome, SolverError> {
        let t0 = Instant::now();
        let _step_span = self.ctx.span("step", Category::Phase);
        let mut retries = 0u32;
        loop {
            let cfg = match &self.recovery {
                Some(p) => p.effective_config(&self.cfg, self.rec.rung),
                None => self.cfg,
            };
            match self.attempt_step(&cfg) {
                Ok(dt) => {
                    self.t += dt;
                    self.steps += 1;
                    self.wall += t0.elapsed();
                    let rung = self.rec.rung;
                    if let Some(p) = self.recovery.clone() {
                        if self.rec.accept(&p) {
                            self.record_event(
                                ResilienceEventKind::Restore,
                                t0.elapsed(),
                                format!(
                                    "default policy restored after {} clean steps",
                                    p.restore_after
                                ),
                            );
                        }
                    }
                    return Ok(StepOutcome { dt, retries, rung });
                }
                Err(fault) => {
                    self.ctx.trace_instant("health_fault", Category::Recovery);
                    self.record_event(
                        ResilienceEventKind::HealthFault,
                        t0.elapsed(),
                        fault.to_string(),
                    );
                    retries += 1;
                    let policy = match self.recovery.clone() {
                        None => {
                            self.wall += t0.elapsed();
                            return Err(self.give_up(fault, retries));
                        }
                        Some(p) => p,
                    };
                    if retries > policy.max_retries || !self.rec.escalate(&policy) {
                        self.wall += t0.elapsed();
                        return Err(self.give_up(fault, retries));
                    }
                    let engaged = policy.ladder[self.rec.rung - 1];
                    self.ctx.trace_instant("retry", Category::Recovery);
                    self.ctx.trace_instant("degrade", Category::Recovery);
                    self.record_event(
                        ResilienceEventKind::Retry,
                        t0.elapsed(),
                        format!("attempt {} from saved q^n", retries + 1),
                    );
                    self.record_event(
                        ResilienceEventKind::Degrade,
                        t0.elapsed(),
                        format!("rung {}: {}", self.rec.rung, engaged.name()),
                    );
                }
            }
        }
    }

    /// Advance `n` steps.
    pub fn run_steps(&mut self, n: usize) -> Result<(), SolverError> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    /// Advance up to `max_steps` steps under an external controller that is
    /// consulted at every step boundary — the cooperative yield point an
    /// ensemble scheduler uses for cancellation, deadlines, and elastic
    /// worker resizes (resizes between steps are bitwise-safe).
    ///
    /// The controller sees the number of steps taken *by this call* so far
    /// and the solver's absolute step count; it returns a [`StepControl`]
    /// directive. `Resize(n)` applies [`Solver::set_workers`] and then
    /// steps; `Stop` returns early with the steps taken. A step error is
    /// returned as-is (the caller isolates the fault).
    pub fn run_controlled(
        &mut self,
        max_steps: usize,
        ctrl: &mut dyn FnMut(u64, u64) -> StepControl,
    ) -> Result<u64, SolverError> {
        let mut taken = 0u64;
        while taken < max_steps as u64 {
            match ctrl(taken, self.steps) {
                StepControl::Continue => {}
                StepControl::Resize(n) => self.set_workers(n),
                StepControl::Stop => break,
            }
            self.step()?;
            taken += 1;
        }
        Ok(taken)
    }

    /// Advance until `t_end` (clipping the final step), bounded by
    /// `max_steps`.
    pub fn run_until(&mut self, t_end: f64, max_steps: usize) -> Result<(), SolverError> {
        for _ in 0..max_steps {
            if self.t >= t_end {
                break;
            }
            // Peek the dt and clip to land exactly on t_end.
            let remaining = t_end - self.t;
            let saved = self.cfg.dt;
            if let DtMode::Fixed(dt) = saved {
                if dt > remaining {
                    self.cfg.dt = DtMode::Fixed(remaining);
                }
            }
            let outcome = self.step();
            self.cfg.dt = saved;
            let dt = outcome?.dt;
            if let DtMode::Cfl(_) = saved {
                if dt > remaining {
                    // Walk back the overshoot: acceptable error O(dt) at
                    // the final instant; callers needing exact t_end use
                    // DtMode::Fixed.
                    self.t = t_end;
                    break;
                }
            }
        }
        Ok(())
    }

    /// Conserved-variable totals.
    pub fn conservation(&self) -> Vec<f64> {
        crate::diag::conservation_totals(&self.q, &self.grid)
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

    /// A rejected step leaves `state()` bit-for-bit the `q^n` it started
    /// from, whether the fault struck before `rk_step` (a degenerate CFL
    /// reduction: `q` untouched, `rk.q0` still `q^{n-1}`, so restoring
    /// from it would be wrong) or after it (the health scan: `rk.q0` is
    /// the only copy of `q^n`, also under `Rk1`).
    #[test]
    fn rejected_step_leaves_the_injected_state_bitwise() {
        let case = presets::sod(64);
        let bits = |q: &StateField| q.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
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
                    let injected = bits(solver.state());
                    let err = solver.step().unwrap_err();
                    let at = format!("{scheme:?} {dt:?} ladder={ladder}");
                    match (dt, &err.fault) {
                        (DtMode::Cfl(_), StepFault::DegenerateWaveSpeed { .. })
                        | (DtMode::Fixed(_), StepFault::Unphysical(_)) => {}
                        (_, other) => panic!("{at}: unexpected fault {other:?}"),
                    }
                    assert_eq!(err.attempts > 1, ladder, "{at}");
                    assert!(bits(solver.state()) == injected, "{at}: state differs");
                }
            }
        }
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
}
