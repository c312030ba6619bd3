//! Deterministic fault injection for the rank simulator.
//!
//! A [`FaultPlan`] scripts transport- and rank-level faults against a
//! simulated run: dropping, delaying, or reordering individual messages,
//! stalling a rank at a step boundary, and killing a rank outright at a
//! chosen step. Message faults are keyed on the per-(source, destination)
//! message index, so for a fixed plan and a fixed program the same fault
//! hits the same message every run — which is what lets the resilience
//! tests assert *bitwise* identical output with and without faults.
//!
//! Fault *semantics* follow a lossy-but-retransmitting network:
//!
//! * **drop** — the first copy of the message is lost; the transport
//!   retransmits when the receiver's timeout-based retry path asks for it
//!   ([`crate::comm::Comm::recv_policied`]), or immediately when a later
//!   message of the same `(source, tag)` flow arrives (per-flow FIFO, as
//!   MPI's non-overtaking rule requires).
//! * **delay** — the message is held back until `hold` subsequent
//!   deliveries into the same mailbox have happened (deterministic, no
//!   wall clock), again never overtaking its own flow.
//! * **reorder** is a delay with `hold = 1`.
//! * **stall** — the rank sleeps at a step boundary; if shorter than the
//!   detector's patience nothing happens, if longer the peers declare the
//!   rank failed (a *false positive*, which recovery still handles
//!   safely).
//! * **death** — the rank marks itself dead on the [`FaultBoard`] and
//!   loses its in-memory state; peers detect the failure via the
//!   heartbeat/timeout path and the whole world rolls back to the last
//!   committed checkpoint wave.
//!
//! The [`FaultBoard`] is the shared-memory stand-in for the cluster
//! fabric's failure detector plus the parallel file system's metadata:
//! per-rank liveness flags, the recovery generation counter, and the last
//! globally committed checkpoint wave.

use std::sync::{Condvar, Mutex};
use std::time::Duration;

use serde::{Deserialize, Serialize};

/// A fault keyed to one point-to-point message: the `nth` (0-based)
/// message sent from `src` to `dst` over the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MsgFault {
    pub src: usize,
    pub dst: usize,
    pub nth: u64,
}

/// Hold the `nth` message from `src` to `dst` back until `hold` further
/// deliveries have arrived in the destination mailbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MsgDelay {
    pub src: usize,
    pub dst: usize,
    pub nth: u64,
    pub hold: u32,
}

/// Put `rank` to sleep for `millis` when it reaches step `step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankStall {
    pub rank: usize,
    pub step: u64,
    pub millis: u64,
}

/// Kill `rank` when it reaches step `step` (before computing that step).
///
/// A default (`permanent: false`) death is transient: the rank "reboots"
/// into the recovery rendezvous and rejoins the world. A `permanent`
/// death models a lost node — the rank never comes back, and completing
/// the run requires a [`FailurePolicy`] that heals the loss (shrinking
/// the world or promoting a hot spare).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankDeath {
    pub rank: usize,
    pub step: u64,
    /// Defaults to `false` so every pre-existing plan JSON is unchanged.
    #[serde(default)]
    pub permanent: bool,
}

/// What the world does about a *permanent* rank loss, ULFM-style.
///
/// * `Revive` (default) — the historical behavior: recovery assumes every
///   dead rank reboots. A permanent death under this policy is reported
///   as a typed unrecoverable error instead of hanging.
/// * `Shrink` — the survivors agree on the survivor set (the mpsim analog
///   of `MPI_Comm_shrink`), recompute the Cartesian decomposition at the
///   smaller rank count, and redistribute the last committed checkpoint
///   wave onto the new layout.
/// * `Spare` — hot-spare ranks provisioned outside the decomposition
///   idle until the detector promotes one into the dead rank's slot; it
///   loads the dead rank's shard and the run resumes at the original
///   decomposition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FailurePolicy {
    #[default]
    Revive,
    Shrink,
    Spare,
}

impl FailurePolicy {
    /// Parse the CLI spelling (`--failure-policy revive|shrink|spare`).
    pub fn from_flag(s: &str) -> Result<Self, String> {
        match s {
            "revive" => Ok(FailurePolicy::Revive),
            "shrink" => Ok(FailurePolicy::Shrink),
            "spare" => Ok(FailurePolicy::Spare),
            other => Err(format!(
                "unknown failure policy '{other}' (expected revive, shrink, or spare)"
            )),
        }
    }
}

/// A scripted, deterministic set of faults for one run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Free-form label for reports; not used by the machinery.
    #[serde(default)]
    pub seed: u64,
    #[serde(default)]
    pub drops: Vec<MsgFault>,
    #[serde(default)]
    pub delays: Vec<MsgDelay>,
    /// Sugar for `delays` with `hold = 1`.
    #[serde(default)]
    pub reorders: Vec<MsgFault>,
    #[serde(default)]
    pub stalls: Vec<RankStall>,
    #[serde(default)]
    pub deaths: Vec<RankDeath>,
}

/// What the transport should do with one outgoing message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendFault {
    /// Lose the first copy (recovered by retransmit).
    Drop,
    /// Hold for this many subsequent deliveries.
    Delay(u32),
}

impl FaultPlan {
    /// A plan injecting nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    pub fn is_empty(&self) -> bool {
        self.drops.is_empty()
            && self.delays.is_empty()
            && self.reorders.is_empty()
            && self.stalls.is_empty()
            && self.deaths.is_empty()
    }

    /// Parse a plan from its JSON form (the `--faults plan.json` file).
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("bad fault plan: {e}"))
    }

    /// Fault applying to the `nth` message `src -> dst`, if any.
    pub fn send_fault(&self, src: usize, dst: usize, nth: u64) -> Option<SendFault> {
        if self
            .drops
            .iter()
            .any(|f| f.src == src && f.dst == dst && f.nth == nth)
        {
            return Some(SendFault::Drop);
        }
        if let Some(d) = self
            .delays
            .iter()
            .find(|d| d.src == src && d.dst == dst && d.nth == nth)
        {
            return Some(SendFault::Delay(d.hold.max(1)));
        }
        if self
            .reorders
            .iter()
            .any(|f| f.src == src && f.dst == dst && f.nth == nth)
        {
            return Some(SendFault::Delay(1));
        }
        None
    }

    /// Stall duration scheduled for `(rank, step)`, if any.
    pub fn stall_for(&self, rank: usize, step: u64) -> Option<Duration> {
        self.stalls
            .iter()
            .find(|s| s.rank == rank && s.step == step)
            .map(|s| Duration::from_millis(s.millis))
    }

    /// Index into `deaths` scheduled for `(rank, step)`, if any. The
    /// caller consumes each index once so a death does not re-fire when
    /// the rank replays the same step after recovery.
    pub fn death_at(&self, rank: usize, step: u64) -> Option<usize> {
        self.deaths
            .iter()
            .position(|d| d.rank == rank && d.step == step)
    }

    /// Validate the plan against a world of `active` ranks: every rank a
    /// fault names (a death, a stall, either end of a dropped, delayed or
    /// reordered message) must be a real rank, and at least one rank must
    /// survive all permanent deaths (the survivor quorum that
    /// consensus-based recovery needs). Returns a human-readable
    /// configuration error — callers surface it as a typed config failure
    /// instead of letting the run hang at an impossible rendezvous or
    /// silently inject nothing.
    pub fn validate_for(&self, active: usize) -> Result<(), String> {
        let real = |what: String, rank: usize| {
            if rank < active {
                Ok(())
            } else {
                Err(format!(
                    "fault plan {what} but the world has only {active} ranks"
                ))
            }
        };
        for d in &self.deaths {
            real(format!("kills rank {}", d.rank), d.rank)?;
        }
        for s in &self.stalls {
            real(format!("stalls rank {}", s.rank), s.rank)?;
        }
        let delays = self.delays.iter().map(|d| ("delays", d.src, d.dst, d.nth));
        let drops = self.drops.iter().map(|f| ("drops", f.src, f.dst, f.nth));
        let reorders = self
            .reorders
            .iter()
            .map(|f| ("reorders", f.src, f.dst, f.nth));
        for (verb, src, dst, nth) in drops.chain(delays).chain(reorders) {
            let what = format!("{verb} message {nth} from rank {src} to rank {dst}");
            real(what, src.max(dst))?;
        }
        let perm: std::collections::BTreeSet<usize> = self
            .deaths
            .iter()
            .filter(|d| d.permanent)
            .map(|d| d.rank)
            .collect();
        if !perm.is_empty() && perm.len() >= active {
            return Err(format!(
                "fault plan permanently kills all {active} ranks; no survivor quorum remains"
            ));
        }
        Ok(())
    }
}

/// Failure raised by a policied (fault-aware) communication call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommFault {
    /// The failure detector marked this peer dead.
    PeerDead { rank: usize },
    /// All retries exhausted without the expected message (an
    /// alive-but-unresponsive peer; treated as a failure).
    Timeout { source: usize, tag: u64 },
    /// Another rank already initiated recovery; unwind and join it.
    RecoveryRequested,
}

impl std::fmt::Display for CommFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommFault::PeerDead { rank } => write!(f, "peer rank {rank} is dead"),
            CommFault::Timeout { source, tag } => {
                write!(f, "timed out waiting on rank {source} (tag {tag:#x})")
            }
            CommFault::RecoveryRequested => write!(f, "recovery requested by another rank"),
        }
    }
}

/// Heartbeat/timeout failure-detection tuning for policied receives.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Initial wait slice before the first retry, in milliseconds. Every
    /// slice expiry re-checks peer liveness (the heartbeat read) and
    /// promotes retransmittable messages.
    pub slice_ms: u64,
    /// Retries before an alive peer is declared failed.
    pub retries: u32,
    /// Multiplicative backoff applied to the slice per retry.
    pub backoff: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        // Patience ~= 20ms * (1.5^8 - 1)/0.5 ~= 1s for an alive-but-silent
        // peer; a dead peer is detected within one slice.
        DetectorConfig {
            slice_ms: 20,
            retries: 8,
            backoff: 1.5,
        }
    }
}

impl DetectorConfig {
    /// Slice duration for retry number `attempt` (0-based).
    pub fn slice(&self, attempt: u32) -> Duration {
        let ms = self.slice_ms as f64 * self.backoff.powi(attempt as i32);
        Duration::from_micros((ms * 1000.0) as u64)
    }
}

#[derive(Debug)]
struct BoardInner {
    alive: Vec<bool>,
    /// Permanently lost physical ranks — never revived by a rendezvous.
    perm_dead: Vec<bool>,
    /// Logical slot -> physical rank translation table for the current
    /// epoch. Starts as the identity over the active ranks; a spare
    /// promotion patches one slot, a shrink drops the dead slots.
    roster: Vec<usize>,
    /// Physical ranks of hot spares still idling outside the roster.
    idle_spares: Vec<usize>,
    policy: FailurePolicy,
    recovery: bool,
    gen: u64,
    arrived: usize,
    committed_wave: Option<u64>,
    /// Set when the run is over (success or collective abort): releases
    /// any spare still parked in [`FaultBoard::spare_wait`].
    shutdown: bool,
}

/// Outcome of a completed recovery rendezvous: the new epoch number, the
/// (possibly reconfigured) logical->physical roster, and any logical
/// slots whose owner is permanently dead and was *not* healed by the
/// failure policy — a non-empty `lost` means the run cannot continue.
#[derive(Debug, Clone)]
pub struct Reconfig {
    pub gen: u64,
    pub roster: Vec<usize>,
    pub lost: Vec<usize>,
}

/// What woke an idle hot spare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpareWake {
    /// The spare was promoted into logical slot `slot`; it must join the
    /// in-progress recovery rendezvous and load that slot's shard.
    Promote { slot: usize },
    /// The run ended without needing this spare.
    Shutdown,
}

/// Shared failure-detector and recovery-rendezvous state.
///
/// Models the pieces of a real cluster that survive a rank failure: the
/// fabric's liveness view of each rank, a recovery "alarm" any rank can
/// pull, the recovery generation (epoch) counter, and the last checkpoint
/// wave known globally committed (parallel-file-system metadata).
#[derive(Debug)]
pub struct FaultBoard {
    size: usize,
    inner: Mutex<BoardInner>,
    cv: Condvar,
}

impl FaultBoard {
    pub fn new(size: usize) -> Self {
        FaultBoard::with_spares(size, 0)
    }

    /// A board for `active` computing ranks plus `spares` hot spares
    /// (physical ranks `active..active + spares`) idling outside the
    /// decomposition until promoted.
    pub fn with_spares(active: usize, spares: usize) -> Self {
        let size = active + spares;
        FaultBoard {
            size,
            inner: Mutex::new(BoardInner {
                alive: vec![true; size],
                perm_dead: vec![false; size],
                roster: (0..active).collect(),
                idle_spares: (active..size).collect(),
                policy: FailurePolicy::default(),
                recovery: false,
                gen: 0,
                arrived: 0,
                committed_wave: None,
                shutdown: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Total physical ranks backed by this board (active + spares).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Select how a permanent rank loss is healed. The driver sets this
    /// once before the run from its resilience options.
    pub fn set_policy(&self, policy: FailurePolicy) {
        self.inner.lock().unwrap().policy = policy;
    }

    pub fn policy(&self) -> FailurePolicy {
        self.inner.lock().unwrap().policy
    }

    /// Mark `rank` dead (called by the dying rank itself — the simulator
    /// analog of the fabric noticing a vanished process).
    pub fn mark_dead(&self, rank: usize) {
        self.inner.lock().unwrap().alive[rank] = false;
        self.cv.notify_all();
    }

    /// Mark `rank` permanently lost: it never reboots, and the next
    /// rendezvous runs the failure policy instead of reviving it.
    pub fn mark_dead_permanent(&self, rank: usize) {
        let mut b = self.inner.lock().unwrap();
        b.alive[rank] = false;
        b.perm_dead[rank] = true;
        self.cv.notify_all();
    }

    pub fn is_alive(&self, rank: usize) -> bool {
        self.inner.lock().unwrap().alive[rank]
    }

    pub fn is_perm_dead(&self, rank: usize) -> bool {
        self.inner.lock().unwrap().perm_dead[rank]
    }

    /// Current logical->physical roster (snapshot).
    pub fn roster(&self) -> Vec<usize> {
        self.inner.lock().unwrap().roster.clone()
    }

    /// Pull the recovery alarm. Returns `true` for the first caller of
    /// this generation (the detecting rank, which should log the event).
    pub fn request_recovery(&self) -> bool {
        let mut b = self.inner.lock().unwrap();
        let first = !b.recovery;
        b.recovery = true;
        self.cv.notify_all();
        first
    }

    /// Whether a recovery is pending that this rank should join.
    pub fn recovery_pending(&self) -> bool {
        self.inner.lock().unwrap().recovery
    }

    /// Current recovery generation (bumped once per completed rendezvous).
    pub fn generation(&self) -> u64 {
        self.inner.lock().unwrap().gen
    }

    /// Record that checkpoint wave `wave` is globally committed.
    pub fn commit_wave(&self, wave: u64) {
        let mut b = self.inner.lock().unwrap();
        b.committed_wave = Some(b.committed_wave.map_or(wave, |w| w.max(wave)));
    }

    /// Last globally committed checkpoint wave, if any.
    pub fn committed_wave(&self) -> Option<u64> {
        self.inner.lock().unwrap().committed_wave
    }

    /// Recovery rendezvous: blocks until every *expected* participant has
    /// arrived, then starts the next epoch. Transiently dead ranks are
    /// expected (they "reboot" into this call) and revived; permanently
    /// dead ranks never arrive, and the completion runs the failure
    /// policy instead:
    ///
    /// * `Shrink` — dead slots are dropped from the roster (the survivor
    ///   consensus: everyone observes the same shrunk translation table
    ///   under the one board lock).
    /// * `Spare` — completion additionally waits for an idle spare to
    ///   claim each dead slot (see [`FaultBoard::spare_wait`]); the
    ///   promoted spare then arrives as a participant. With the pool
    ///   exhausted, the unhealed slots are reported in `lost`.
    /// * `Revive` — dead slots stay in the roster and are reported in
    ///   `lost` (a typed unrecoverable error for the caller, not a hang).
    ///
    /// The returned epoch number (`gen`) fences stale in-flight messages:
    /// [`crate::comm::Comm::finish_recovery`] discards everything tagged
    /// with an older generation.
    pub fn rendezvous(&self) -> Reconfig {
        let mut b = self.inner.lock().unwrap();
        let my_gen = b.gen;
        b.arrived += 1;
        self.cv.notify_all();
        loop {
            if b.gen != my_gen {
                break;
            }
            let expected = b.roster.iter().filter(|&&p| !b.perm_dead[p]).count();
            let lost_slot = b.roster.iter().any(|&p| b.perm_dead[p]);
            let awaiting_spare =
                b.policy == FailurePolicy::Spare && lost_slot && !b.idle_spares.is_empty();
            if b.arrived >= expected && !awaiting_spare {
                if b.policy == FailurePolicy::Shrink {
                    let perm = &b.perm_dead;
                    let kept: Vec<usize> = b.roster.iter().copied().filter(|&p| !perm[p]).collect();
                    b.roster = kept;
                }
                b.arrived = 0;
                b.gen += 1;
                b.recovery = false;
                for r in 0..self.size {
                    b.alive[r] = !b.perm_dead[r];
                }
                self.cv.notify_all();
                break;
            }
            b = self.cv.wait(b).unwrap();
        }
        let lost = b
            .roster
            .iter()
            .enumerate()
            .filter(|&(_, &p)| b.perm_dead[p])
            .map(|(slot, _)| slot)
            .collect();
        Reconfig {
            gen: b.gen,
            roster: b.roster.clone(),
            lost,
        }
    }

    /// Park an idle hot spare (physical rank `phys`). Blocks until either
    /// a recovery under `FailurePolicy::Spare` promotes it into a dead
    /// rank's logical slot (the claim patches the roster under the board
    /// lock, so the survivors' rendezvous completion waits for the spare
    /// to arrive) or the run shuts down.
    pub fn spare_wait(&self, phys: usize) -> SpareWake {
        let mut b = self.inner.lock().unwrap();
        loop {
            if b.shutdown {
                return SpareWake::Shutdown;
            }
            if b.recovery && b.policy == FailurePolicy::Spare && b.idle_spares.contains(&phys) {
                let perm = &b.perm_dead;
                if let Some(slot) = b.roster.iter().position(|&p| perm[p]) {
                    b.roster[slot] = phys;
                    b.idle_spares.retain(|&s| s != phys);
                    b.alive[phys] = true;
                    self.cv.notify_all();
                    return SpareWake::Promote { slot };
                }
            }
            b = self.cv.wait(b).unwrap();
        }
    }

    /// Release any still-idle spares: the run is over (normal completion
    /// or a collective abort). Idempotent; a no-op for boards without
    /// spares.
    pub fn shutdown(&self) {
        self.inner.lock().unwrap().shutdown = true;
        self.cv.notify_all();
    }
}

/// Everything a faulty world shares: the script plus the live board.
#[derive(Debug)]
pub struct FaultCtx {
    pub plan: FaultPlan,
    pub board: FaultBoard,
    pub detector: DetectorConfig,
}

impl FaultCtx {
    pub fn new(plan: FaultPlan, size: usize) -> Self {
        FaultCtx {
            plan,
            board: FaultBoard::new(size),
            detector: DetectorConfig::default(),
        }
    }

    /// A fault context for `active` computing ranks plus `spares` hot
    /// spares (for worlds run with [`crate::comm::World::run_with_spares`]).
    pub fn new_with_spares(plan: FaultPlan, active: usize, spares: usize) -> Self {
        FaultCtx {
            plan,
            board: FaultBoard::with_spares(active, spares),
            detector: DetectorConfig::default(),
        }
    }

    pub fn with_detector(mut self, detector: DetectorConfig) -> Self {
        self.detector = detector;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_round_trips_through_json() {
        let plan = FaultPlan {
            seed: 7,
            drops: vec![MsgFault {
                src: 0,
                dst: 1,
                nth: 3,
            }],
            delays: vec![MsgDelay {
                src: 1,
                dst: 0,
                nth: 2,
                hold: 2,
            }],
            reorders: vec![MsgFault {
                src: 2,
                dst: 0,
                nth: 0,
            }],
            stalls: vec![RankStall {
                rank: 1,
                step: 4,
                millis: 5,
            }],
            deaths: vec![RankDeath {
                rank: 2,
                step: 6,
                permanent: true,
            }],
        };
        let json = serde_json::to_string(&plan).unwrap();
        let back = FaultPlan::from_json(&json).unwrap();
        assert_eq!(back.drops, plan.drops);
        assert_eq!(back.delays, plan.delays);
        assert_eq!(back.reorders, plan.reorders);
        assert_eq!(back.stalls, plan.stalls);
        assert_eq!(back.deaths, plan.deaths);
    }

    #[test]
    fn plan_defaults_missing_sections_to_empty() {
        let plan = FaultPlan::from_json(r#"{"deaths": [{"rank": 1, "step": 5}]}"#).unwrap();
        assert_eq!(plan.deaths.len(), 1);
        assert!(
            !plan.deaths[0].permanent,
            "legacy plan JSON must stay transient"
        );
        assert!(plan.drops.is_empty());
        assert!(!plan.is_empty());
    }

    #[test]
    fn plan_quorum_validation_rejects_total_permanent_loss() {
        let kill = |rank| RankDeath {
            rank,
            step: 3,
            permanent: true,
        };
        let plan = FaultPlan {
            deaths: vec![kill(0), kill(1)],
            ..FaultPlan::none()
        };
        assert!(plan.validate_for(2).is_err(), "no survivor quorum");
        assert!(plan.validate_for(3).is_ok(), "one survivor remains");
        let out_of_range = FaultPlan {
            deaths: vec![RankDeath {
                rank: 9,
                step: 0,
                permanent: false,
            }],
            ..FaultPlan::none()
        };
        assert!(out_of_range.validate_for(4).is_err());
        assert!(FaultPlan::none().validate_for(1).is_ok());
    }

    #[test]
    fn plan_validation_bounds_every_named_rank() {
        let msg = MsgFault {
            src: 0,
            dst: 1,
            nth: 0,
        };
        let far = MsgFault { dst: 9, ..msg };
        let stall = RankStall {
            rank: 1,
            step: 1,
            millis: 1,
        };
        let delay = |src| MsgDelay {
            src,
            dst: 0,
            nth: 0,
            hold: 1,
        };
        let ok = FaultPlan {
            drops: vec![msg],
            delays: vec![delay(1)],
            reorders: vec![msg],
            stalls: vec![stall],
            ..FaultPlan::none()
        };
        assert!(ok.validate_for(2).is_ok());
        for bad in [
            FaultPlan {
                drops: vec![far],
                ..ok.clone()
            },
            FaultPlan {
                delays: vec![delay(2)],
                ..ok.clone()
            },
            FaultPlan {
                reorders: vec![far],
                ..ok.clone()
            },
            FaultPlan {
                stalls: vec![RankStall { rank: 5, ..stall }],
                ..ok.clone()
            },
        ] {
            let err = bad.validate_for(2).unwrap_err();
            assert!(err.contains("the world has only 2 ranks"), "{err}");
        }
    }

    #[test]
    fn send_fault_lookup_matches_by_index() {
        let plan = FaultPlan {
            drops: vec![MsgFault {
                src: 0,
                dst: 1,
                nth: 2,
            }],
            reorders: vec![MsgFault {
                src: 1,
                dst: 0,
                nth: 5,
            }],
            ..FaultPlan::default()
        };
        assert_eq!(plan.send_fault(0, 1, 2), Some(SendFault::Drop));
        assert_eq!(plan.send_fault(0, 1, 3), None);
        assert_eq!(plan.send_fault(1, 0, 5), Some(SendFault::Delay(1)));
    }

    #[test]
    fn board_rendezvous_revives_and_bumps_generation() {
        let board = std::sync::Arc::new(FaultBoard::new(3));
        board.mark_dead(1);
        assert!(!board.is_alive(1));
        assert!(board.request_recovery());
        assert!(!board.request_recovery(), "only the first requester wins");
        let gens: Vec<u64> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..3)
                .map(|_| {
                    let b = std::sync::Arc::clone(&board);
                    s.spawn(move || b.rendezvous().gen)
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(gens, vec![1, 1, 1]);
        assert!(board.is_alive(1));
        assert!(!board.recovery_pending());
        assert_eq!(
            board.roster(),
            vec![0, 1, 2],
            "transient death: no reconfig"
        );
    }

    #[test]
    fn shrink_rendezvous_drops_permanently_dead_slots() {
        let board = std::sync::Arc::new(FaultBoard::new(4));
        board.set_policy(FailurePolicy::Shrink);
        board.mark_dead_permanent(2);
        board.request_recovery();
        let reconfs: Vec<Reconfig> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..3)
                .map(|_| {
                    let b = std::sync::Arc::clone(&board);
                    s.spawn(move || b.rendezvous())
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for rc in &reconfs {
            assert_eq!(rc.gen, 1);
            assert_eq!(rc.roster, vec![0, 1, 3], "survivor consensus");
            assert!(rc.lost.is_empty(), "shrink heals the loss");
        }
        assert!(!board.is_alive(2), "permanent death is never revived");
    }

    #[test]
    fn spare_rendezvous_promotes_an_idle_spare() {
        // 3 active ranks + 1 spare (physical rank 3); rank 1 dies
        // permanently, the spare takes its slot.
        let board = std::sync::Arc::new(FaultBoard::with_spares(3, 1));
        board.set_policy(FailurePolicy::Spare);
        board.mark_dead_permanent(1);
        board.request_recovery();
        let (survivors, wake) = std::thread::scope(|s| {
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let b = std::sync::Arc::clone(&board);
                    s.spawn(move || b.rendezvous())
                })
                .collect();
            let spare = {
                let b = std::sync::Arc::clone(&board);
                s.spawn(move || {
                    let wake = b.spare_wait(3);
                    if let SpareWake::Promote { .. } = wake {
                        b.rendezvous();
                    }
                    wake
                })
            };
            let survivors: Vec<Reconfig> = hs.into_iter().map(|h| h.join().unwrap()).collect();
            (survivors, spare.join().unwrap())
        });
        assert_eq!(wake, SpareWake::Promote { slot: 1 });
        for rc in &survivors {
            assert_eq!(rc.roster, vec![0, 3, 2], "spare fills the dead slot");
            assert!(rc.lost.is_empty());
        }
    }

    #[test]
    fn exhausted_spare_pool_reports_lost_slots() {
        let board = std::sync::Arc::new(FaultBoard::new(3));
        board.set_policy(FailurePolicy::Spare);
        board.mark_dead_permanent(1);
        board.request_recovery();
        let reconfs: Vec<Reconfig> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let b = std::sync::Arc::clone(&board);
                    s.spawn(move || b.rendezvous())
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for rc in &reconfs {
            assert_eq!(rc.lost, vec![1], "no spare left to heal slot 1");
        }
    }

    #[test]
    fn shutdown_releases_idle_spares() {
        let board = std::sync::Arc::new(FaultBoard::with_spares(2, 1));
        let wake = std::thread::scope(|s| {
            let b = std::sync::Arc::clone(&board);
            let h = s.spawn(move || b.spare_wait(2));
            board.shutdown();
            h.join().unwrap()
        });
        assert_eq!(wake, SpareWake::Shutdown);
    }

    #[test]
    fn committed_wave_is_monotonic() {
        let board = FaultBoard::new(2);
        assert_eq!(board.committed_wave(), None);
        board.commit_wave(1);
        board.commit_wave(0);
        assert_eq!(board.committed_wave(), Some(1));
    }

    #[test]
    fn detector_backoff_grows() {
        let d = DetectorConfig::default();
        assert!(d.slice(3) > d.slice(0));
    }
}
