//! Graceful-degradation recovery ladder for numerical faults.
//!
//! When the health scan ([`crate::health`]) flags a nonphysical state, the
//! step is rejected and retried from the saved `q^n` under a progressively
//! more dissipative policy: halve the time step, engage the Zhang–Shu
//! positivity limiter, degrade WENO5→WENO3, and finally fall back to the
//! Rusanov flux — mirroring the limiter/fallback practice MFC ships for
//! production diffuse-interface runs. Once a configurable number of clean
//! steps pass, the default policy is restored. Only after the ladder is
//! exhausted does the solver abort, with a diagnostic crash-dump
//! checkpoint and the offending-cell report attached to the error.

use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use crate::health::Violation;
use crate::limiter::Limiter;
use crate::riemann::RiemannSolver;
use crate::solver::{DtMode, SolverConfig};
use crate::weno::WenoOrder;

/// What the health watchdog (or the CFL kernel) detected.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum StepFault {
    /// A cell left the physically admissible set after the update.
    Unphysical(Violation),
    /// The CFL reduction produced a non-finite or non-positive wave-speed
    /// rate — the state was already unusable before the update.
    DegenerateWaveSpeed { rate: f64 },
    /// Nothing on this block: a peer block of a decomposed run observed
    /// the fault, and the collective verdict rejected the step everywhere.
    Peer,
}

impl std::fmt::Display for StepFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepFault::Unphysical(v) => write!(f, "unphysical state: {v}"),
            StepFault::DegenerateWaveSpeed { rate } => {
                write!(f, "degenerate wave-speed rate {rate:e} in CFL reduction")
            }
            StepFault::Peer => f.write_str("a peer block reported the fault"),
        }
    }
}

/// Terminal failure of a step after the recovery ladder is exhausted (or
/// when no recovery policy is armed).
#[derive(Debug, Clone, PartialEq)]
pub struct SolverError {
    /// The last detected fault.
    pub fault: StepFault,
    /// Step index at which the run aborted.
    pub step: u64,
    /// Simulated time at which the run aborted.
    pub t: f64,
    /// How many retry attempts were spent before giving up.
    pub attempts: u32,
    /// Diagnostic crash-dump checkpoint, if one was written.
    pub crash_dump: Option<PathBuf>,
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "numerical fault at step {} (t = {:e}) after {} attempt(s): {}",
            self.step, self.t, self.attempts, self.fault
        )?;
        if let Some(p) = &self.crash_dump {
            write!(f, " [crash dump: {}]", p.display())?;
        }
        Ok(())
    }
}

impl std::error::Error for SolverError {}

/// Result of one accepted time step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// The time-step size actually taken (after any ladder halving).
    pub dt: f64,
    /// Rejected attempts before this step was accepted (0 = clean).
    pub retries: u32,
    /// Ladder rung the step was accepted on (0 = default policy).
    pub rung: usize,
}

/// One rung of the recovery ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum RecoveryAction {
    /// Halve the time step (cumulative across rungs).
    HalveDt,
    /// Engage the Zhang–Shu positivity limiter.
    ZhangShu,
    /// Degrade the reconstruction to WENO3 (no-op below fifth order).
    Weno3,
    /// Fall back to the dissipative Rusanov flux.
    Rusanov,
}

impl RecoveryAction {
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryAction::HalveDt => "halve_dt",
            RecoveryAction::ZhangShu => "zhang_shu",
            RecoveryAction::Weno3 => "weno3",
            RecoveryAction::Rusanov => "rusanov",
        }
    }
}

/// Bounded, configurable recovery policy (`mfc-run --recovery ladder.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct RecoveryPolicy {
    /// Rungs engaged cumulatively: a step rejected on rung `r` retries
    /// with `ladder[0..=r]` all applied.
    pub ladder: Vec<RecoveryAction>,
    /// Hard cap on rejected attempts per step before aborting.
    pub max_retries: u32,
    /// Clean steps after which the default policy is restored.
    pub restore_after: u64,
    /// Where to write the diagnostic crash-dump checkpoint on abort.
    pub crash_dump_dir: Option<PathBuf>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            ladder: vec![
                RecoveryAction::HalveDt,
                RecoveryAction::HalveDt,
                RecoveryAction::ZhangShu,
                RecoveryAction::Weno3,
                RecoveryAction::Rusanov,
            ],
            max_retries: 8,
            restore_after: 10,
            crash_dump_dir: None,
        }
    }
}

impl RecoveryPolicy {
    /// The solver configuration in force on ladder rung `rung` (0 = the
    /// base policy; `rung` counts how many leading ladder entries apply).
    pub fn effective_config(&self, base: &SolverConfig, rung: usize) -> SolverConfig {
        let mut cfg = *base;
        let mut halvings = 0u32;
        for action in self.ladder.iter().take(rung) {
            match action {
                RecoveryAction::HalveDt => halvings += 1,
                RecoveryAction::ZhangShu => cfg.rhs.limiter = Limiter::ZhangShu,
                RecoveryAction::Weno3 => {
                    if cfg.rhs.order.ghost_layers() > WenoOrder::Weno3.ghost_layers() {
                        cfg.rhs.order = WenoOrder::Weno3;
                    }
                }
                RecoveryAction::Rusanov => cfg.rhs.solver = RiemannSolver::Rusanov,
            }
        }
        if halvings > 0 {
            let scale = 0.5_f64.powi(halvings as i32);
            cfg.dt = match cfg.dt {
                DtMode::Cfl(c) => DtMode::Cfl(c * scale),
                DtMode::Fixed(dt) => DtMode::Fixed(dt * scale),
            };
        }
        cfg
    }

    /// Number of rungs (the ladder is exhausted past this).
    pub fn rungs(&self) -> usize {
        self.ladder.len()
    }
}

/// Per-run ladder state: current rung plus the clean-step counter that
/// drives restoration of the default policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryState {
    pub rung: usize,
    pub clean_steps: u64,
    /// Total rejected attempts over the whole run (for summaries).
    pub total_retries: u64,
}

impl RecoveryState {
    /// Record an accepted step; returns `true` if the default policy was
    /// just restored (for event logging).
    pub fn accept(&mut self, policy: &RecoveryPolicy) -> bool {
        if self.rung == 0 {
            return false;
        }
        self.clean_steps += 1;
        if self.clean_steps >= policy.restore_after {
            self.rung = 0;
            self.clean_steps = 0;
            true
        } else {
            false
        }
    }

    /// Record a rejected attempt; returns `true` while another rung is
    /// available, `false` once the ladder is exhausted.
    pub fn escalate(&mut self, policy: &RecoveryPolicy) -> bool {
        self.clean_steps = 0;
        self.total_retries += 1;
        if self.rung < policy.rungs() {
            self.rung += 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rhs::RhsConfig;

    #[test]
    fn effective_config_applies_rungs_cumulatively() {
        let policy = RecoveryPolicy::default();
        let base = SolverConfig::default();
        assert_eq!(policy.effective_config(&base, 0), base);

        let r2 = policy.effective_config(&base, 2);
        match (base.dt, r2.dt) {
            (DtMode::Cfl(c0), DtMode::Cfl(c2)) => assert_eq!(c2, c0 * 0.25),
            other => panic!("unexpected dt modes {other:?}"),
        }
        assert_eq!(r2.rhs.order, base.rhs.order);

        let r5 = policy.effective_config(&base, 5);
        assert_eq!(r5.rhs.limiter, Limiter::ZhangShu);
        assert_eq!(r5.rhs.order, WenoOrder::Weno3);
        assert_eq!(r5.rhs.solver, RiemannSolver::Rusanov);
    }

    #[test]
    fn weno3_rung_never_raises_the_order() {
        let policy = RecoveryPolicy {
            ladder: vec![RecoveryAction::Weno3],
            ..RecoveryPolicy::default()
        };
        let base = SolverConfig {
            rhs: RhsConfig {
                order: WenoOrder::First,
                ..RhsConfig::default()
            },
            ..SolverConfig::default()
        };
        assert_eq!(
            policy.effective_config(&base, 1).rhs.order,
            WenoOrder::First
        );
    }

    #[test]
    fn ladder_state_escalates_and_restores() {
        let policy = RecoveryPolicy {
            restore_after: 2,
            ..RecoveryPolicy::default()
        };
        let mut st = RecoveryState::default();
        assert!(st.escalate(&policy));
        assert!(st.escalate(&policy));
        assert_eq!(st.rung, 2);
        assert!(!st.accept(&policy));
        assert!(st.accept(&policy), "second clean step restores");
        assert_eq!(st.rung, 0);
        // Exhaustion after walking every rung.
        for _ in 0..policy.rungs() {
            assert!(st.escalate(&policy));
        }
        assert!(!st.escalate(&policy));
    }

    #[test]
    fn policy_round_trips_through_json() {
        let policy = RecoveryPolicy::default();
        let j = serde_json::to_string(&policy).unwrap();
        assert!(j.contains("halve_dt") && j.contains("rusanov"), "{j}");
        let back: RecoveryPolicy = serde_json::from_str(&j).unwrap();
        assert_eq!(back, policy);
        // Partial specs fill in defaults.
        let partial: RecoveryPolicy =
            serde_json::from_str(r#"{"ladder": ["rusanov"], "max_retries": 3}"#).unwrap();
        assert_eq!(partial.ladder, vec![RecoveryAction::Rusanov]);
        assert_eq!(partial.max_retries, 3);
        assert_eq!(
            partial.restore_after,
            RecoveryPolicy::default().restore_after
        );
    }
}
