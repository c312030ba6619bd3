//! The run loop (MFC's `simulation` time loop): the one place a
//! [`Solver`] block is stepped to the end of a run.
//!
//! `drive` takes a block and its link — `Lone` for a single-device
//! run, one rank of a decomposed run in [`crate::par`] — and owns what
//! every run shares:
//!
//! - the stop rule ([`Stop`]): a step budget or `t_end`, whichever comes
//!   first, the final step clipped to land on `t_end`. Every rank reduces
//!   the same `dt` from the same `t`, so all ranks agree on the clip;
//! - one step-boundary hook (`Layers::boundary`): a caller's
//!   [`StepControl`] on a lone block (the scheduler's cancel, deadline,
//!   resize and injected fault), the rank-only layers of [`crate::par`]
//!   on a rank;
//! - probes ([`ProbeSet`]), resolved once on the global grid so each has
//!   one owning block, which samples it after every accepted step.

use mfc_mpsim::CommFault;

use crate::probes::ProbeSet;
use crate::recovery::{SolverError, StepOutcome};
use crate::solver::{Link, Lone, Solver};

/// When a run stops: after `steps` steps or at `t_end`, whichever comes
/// first. The step that would pass `t_end` is clipped to land on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stop {
    /// Step budget of the run (`u64::MAX`: none).
    pub steps: u64,
    /// End time (`f64::INFINITY`: none).
    pub t_end: f64,
}

impl Stop {
    /// Exactly `n` steps.
    pub fn steps(n: u64) -> Self {
        Stop {
            steps: n,
            t_end: f64::INFINITY,
        }
    }
}

/// A caller's verdict at a step boundary of a lone block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepControl {
    /// Take the next step.
    Continue,
    /// End the run before the next step (cooperative cancellation,
    /// deadline).
    Stop,
}

/// What a run's layers decide at a step boundary.
pub(crate) enum Boundary {
    /// Take the next step.
    Step,
    /// End the run here.
    Stop,
    /// The layers moved the block (a rollback): look at the boundary again.
    Again,
}

/// What one step attempt ended in ([`Solver::step_with`]).
pub(crate) type Attempt = Result<Result<StepOutcome, SolverError>, CommFault>;

/// A block's link together with what its run does at the step boundaries
/// besides stepping.
pub(crate) trait Layers: Link {
    type Error;

    /// Called at every step boundary, `done` when the stop rule holds; a
    /// [`Boundary::Step`] while `done` ends the run too.
    fn boundary(&mut self, blk: &mut Solver, done: bool) -> Result<Boundary, Self::Error>;

    /// Called after every step attempt: accepted, rejected with the ladder
    /// (if any) exhausted, or abandoned on a link failure mid-update.
    fn stepped(&mut self, blk: &mut Solver, attempt: Attempt) -> Result<(), Self::Error>;
}

/// Step `blk` through `link` until `stop` holds or the link's layers end
/// the run, sampling the `probes` this block owns after every accepted
/// step.
pub(crate) fn drive<L: Layers>(
    blk: &mut Solver,
    link: &mut L,
    stop: Stop,
    mut probes: Option<&mut ProbeSet>,
) -> Result<(), L::Error> {
    let start = blk.steps();
    loop {
        let done = blk.steps() - start >= stop.steps || blk.time() >= stop.t_end;
        match link.boundary(blk, done)? {
            Boundary::Stop => return Ok(()),
            Boundary::Again => continue,
            Boundary::Step if done => return Ok(()),
            Boundary::Step => {}
        }
        let attempt = blk.step_with(link, stop.t_end);
        if let (Some(ps), Ok(Ok(_))) = (probes.as_deref_mut(), &attempt) {
            ps.record(blk.steps() - start, blk);
        }
        link.stepped(blk, attempt)?;
    }
}

/// A lone block's layers: the caller's hook, asked until the stop rule
/// holds.
impl<F: FnMut(&mut Solver) -> StepControl> Layers for Lone<'_, F> {
    type Error = SolverError;

    fn boundary(&mut self, blk: &mut Solver, done: bool) -> Result<Boundary, SolverError> {
        if done || (self.1)(blk) == StepControl::Stop {
            return Ok(Boundary::Stop);
        }
        Ok(Boundary::Step)
    }

    fn stepped(&mut self, _: &mut Solver, attempt: Attempt) -> Result<(), SolverError> {
        let outcome = attempt.unwrap_or_else(|f| unreachable!("a lone block has no link: {f}"));
        outcome.map(drop)
    }
}

impl Solver {
    /// Run this block alone until `stop`: `ctl` is consulted at every step
    /// boundary before the stop rule ends the run, and may change the
    /// block (resize its workers, perturb its state) or stop early;
    /// `probes` are sampled after every accepted step. A step error is
    /// returned as-is, the state left on the last accepted step.
    pub fn run(
        &mut self,
        stop: Stop,
        probes: Option<&mut ProbeSet>,
        ctl: impl FnMut(&mut Solver) -> StepControl,
    ) -> Result<(), SolverError> {
        let ledger = self.context().ledger_arc();
        drive(self, &mut Lone(&ledger, ctl), stop, probes)
    }

    /// Advance `n` steps.
    pub fn run_steps(&mut self, n: usize) -> Result<(), SolverError> {
        self.run(Stop::steps(n as u64), None, |_| StepControl::Continue)
    }

    /// Advance until `t_end` (clipping the final step to land on it, under
    /// either dt mode), bounded by `max_steps`.
    pub fn run_until(&mut self, t_end: f64, max_steps: usize) -> Result<(), SolverError> {
        let steps = max_steps as u64;
        self.run(Stop { steps, t_end }, None, |_| StepControl::Continue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::presets;
    use crate::probes::Probe;
    use crate::solver::SolverConfig;
    use mfc_acc::Context;

    fn sod() -> Solver {
        Solver::new(
            &presets::sod(64),
            SolverConfig::default(),
            Context::serial(),
        )
    }

    #[test]
    fn the_step_budget_or_t_end_whichever_comes_first() {
        let mut by_steps = sod();
        by_steps
            .run(
                Stop {
                    steps: 7,
                    t_end: 1.0,
                },
                None,
                |_| StepControl::Continue,
            )
            .unwrap();
        assert_eq!(by_steps.steps(), 7);
        let mut by_time = sod();
        by_time
            .run(
                Stop {
                    steps: 1_000,
                    t_end: 0.01,
                },
                None,
                |_| StepControl::Continue,
            )
            .unwrap();
        assert_eq!(by_time.time().to_bits(), 0.01f64.to_bits());
        assert!(by_time.steps() < 1_000);
    }

    #[test]
    fn the_hook_sees_every_boundary_and_may_stop_the_run() {
        let mut seen = Vec::new();
        let mut solver = sod();
        solver
            .run(Stop::steps(10), None, |s| {
                seen.push(s.steps());
                if s.steps() == 4 {
                    StepControl::Stop
                } else {
                    StepControl::Continue
                }
            })
            .unwrap();
        assert_eq!(seen, [0, 1, 2, 3, 4]);
        assert_eq!(solver.steps(), 4);
        // Once the stop rule holds, the hook is not asked again.
        let mut calls = 0;
        sod()
            .run(Stop::steps(3), None, |_| {
                calls += 1;
                StepControl::Continue
            })
            .unwrap();
        assert_eq!(calls, 3);
    }

    #[test]
    fn budgets_count_from_where_the_run_starts() {
        let mut solver = sod();
        solver.run_steps(3).unwrap();
        solver.run_steps(2).unwrap();
        assert_eq!(solver.steps(), 5);
    }

    #[test]
    fn probes_are_sampled_once_per_accepted_step() {
        let case = presets::sod(64);
        let mut solver = sod();
        let probe = Probe {
            name: "mid".into(),
            x: [0.5, 0.0, 0.0],
        };
        let mut ps = ProbeSet::new(vec![probe], solver.domain(), solver.grid());
        solver
            .run(Stop::steps(5), Some(&mut ps), |_| StepControl::Continue)
            .unwrap();
        let h = ps.history(0);
        assert_eq!(h.len(), 5);
        assert_eq!(h[4].t, solver.time());
        let mut last = ProbeSet::new(vec![ps.probe(0).clone()], solver.domain(), solver.grid());
        last.sample(solver.time(), &case.fluids, solver.state());
        assert_eq!(h[4].prim, last.history(0)[0].prim);
    }
}
