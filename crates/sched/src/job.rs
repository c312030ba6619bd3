//! Job specifications, the job state machine, and the results ledger.

use std::path::PathBuf;

use serde::{Deserialize, Serialize};

/// One requested simulation in an ensemble manifest: a case file plus
/// per-job overrides. Everything except `case` is optional; omitted
/// fields fall back to the case file's own settings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobSpec {
    /// Ledger/output name; defaults to the case file's `name`.
    #[serde(default)]
    pub name: Option<String>,
    /// Path to the JSON case file.
    pub case: PathBuf,
    /// Scheduling priority: higher admits sooner. Low-priority jobs age
    /// upward while they wait, so they cannot starve.
    #[serde(default)]
    pub priority: i64,
    /// Elastic worker cap for this job (also overrides
    /// `numerics.workers`). The pool never grows the job beyond this;
    /// results are bitwise identical at every share by the gang/lane
    /// invariance guarantee.
    #[serde(default)]
    pub workers: Option<usize>,
    /// Override `numerics.vector_width` (validated at admission).
    #[serde(default)]
    pub vector_width: Option<usize>,
    /// Step budget override (`run.steps`).
    #[serde(default)]
    pub max_steps: Option<usize>,
    /// Wall-clock deadline measured from admission; the job is marked
    /// `TimedOut` at the first step boundary past it.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// Operator cancellation arriving at this step boundary (manifest
    /// form of [`crate::Scheduler::cancel`]; deterministic in tests).
    #[serde(default)]
    pub cancel_at_step: Option<u64>,
    /// Fault injection: poison the state at this step boundary so the
    /// next step trips the numerical-health watchdog — exercises per-job
    /// fault isolation without a custom case.
    #[serde(default)]
    pub fault_at_step: Option<u64>,
}

impl JobSpec {
    /// A plain job for `case` with every override defaulted.
    pub fn new(case: impl Into<PathBuf>) -> Self {
        JobSpec {
            name: None,
            case: case.into(),
            priority: 0,
            workers: None,
            vector_width: None,
            max_steps: None,
            deadline_ms: None,
            cancel_at_step: None,
            fault_at_step: None,
        }
    }
}

/// The job lifecycle: `Queued → Admitted → Running` and exactly one of
/// the four terminal states.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum JobState {
    /// Validated and waiting in the admission queue.
    #[default]
    Queued,
    /// Popped from the queue; a worker share is reserved.
    Admitted,
    /// Stepping on its share of the worker budget.
    Running,
    /// Reached its step budget / end time.
    Done,
    /// Its own `SolverError` (or I/O fault, or panic) — isolated; the
    /// rest of the ensemble is undisturbed.
    Failed,
    /// Cooperatively cancelled at a step boundary.
    Cancelled,
    /// Blew its wall-clock deadline at a step boundary.
    TimedOut,
}

impl JobState {
    /// No further transitions out of this state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled | JobState::TimedOut
        )
    }
}

/// One JSONL ledger row: the full accounting for one job.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct JobRecord {
    /// Submission-order id (stable across reruns of the same manifest).
    pub id: u64,
    pub job: String,
    pub case: PathBuf,
    pub priority: i64,
    pub state: JobState,
    /// Steps actually taken.
    pub steps: u64,
    /// Simulation time reached.
    pub sim_time: f64,
    /// Turnaround: submit → terminal state.
    pub wall_ms: f64,
    /// Queue wait: submit → admission (terminal in queue ⇒ whole wall).
    pub wait_ms: f64,
    /// Service time: admission → terminal state ("cpu" column of the
    /// ledger — the span the job actually occupied pool workers).
    pub cpu_ms: f64,
    /// ∫ share dt over the service span — what the job consumed of the
    /// shared budget.
    pub worker_seconds: f64,
    /// Worker share when the job reached its terminal state.
    pub final_share: usize,
    /// Elastic resizes the job applied at step boundaries.
    pub resizes: u64,
    /// Failure / cancellation detail (None for Done).
    pub reason: Option<String>,
    /// Final-state checkpoint (bitwise comparable against a standalone
    /// run of the same case), when one was written.
    pub output: Option<PathBuf>,
}

/// Largest admissible `|priority|`. Priorities beyond this are rejected
/// at admission: the queue's aging clock adds effective-priority points
/// for as long as a job waits, and a daemon's clock runs for days — the
/// bound keeps `priority + aged` representable (the arithmetic also
/// saturates defensively, see [`crate::AdmissionQueue`]).
pub const PRIORITY_LIMIT: i64 = 1_000_000_000;

/// Typed scheduler failures. Admission problems are reported to the
/// submitter; nothing in the scheduler panics on a bad job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// Backpressure: the bounded admission queue is at capacity.
    QueueFull { cap: usize },
    /// The job failed admission-time validation (schema, bounds, halo
    /// extents, unsupported features) and was rejected at enqueue.
    Rejected { job: String, reason: String },
    /// The job's priority lies outside `±PRIORITY_LIMIT` (aging could
    /// push its effective priority out of range on a long-lived daemon).
    PriorityOutOfRange { priority: i64, limit: i64 },
    /// No job with that id.
    UnknownJob { id: u64 },
    /// The job is already in a terminal state.
    Terminal { id: u64 },
    /// The scheduler is draining: running jobs finish, new submissions
    /// are refused.
    Draining,
    /// The scheduler has shut down (or its event loop is gone); no
    /// further commands are served.
    ShuttingDown,
}

impl SchedError {
    /// Stable machine-readable tag, used as the wire protocol's error
    /// `kind` field.
    pub fn kind(&self) -> &'static str {
        match self {
            SchedError::QueueFull { .. } => "queue_full",
            SchedError::Rejected { .. } => "rejected",
            SchedError::PriorityOutOfRange { .. } => "priority_out_of_range",
            SchedError::UnknownJob { .. } => "unknown_job",
            SchedError::Terminal { .. } => "terminal",
            SchedError::Draining => "draining",
            SchedError::ShuttingDown => "shutting_down",
        }
    }
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::QueueFull { cap } => {
                write!(
                    f,
                    "admission queue full ({cap} jobs); retry after a completion"
                )
            }
            SchedError::Rejected { job, reason } => {
                write!(f, "job '{job}' rejected at admission: {reason}")
            }
            SchedError::PriorityOutOfRange { priority, limit } => {
                write!(
                    f,
                    "priority {priority} out of range (must be within ±{limit})"
                )
            }
            SchedError::UnknownJob { id } => write!(f, "unknown job id {id}"),
            SchedError::Terminal { id } => write!(f, "job {id} already reached a terminal state"),
            SchedError::Draining => write!(f, "scheduler is draining; submission refused"),
            SchedError::ShuttingDown => write!(f, "scheduler has shut down"),
        }
    }
}

impl std::error::Error for SchedError {}
