//! The ensemble scheduler: admission, dispatch, elastic repartition,
//! isolation, and the results ledger.
//!
//! The dispatch core is an *open-system* event loop: one channel carries
//! both job completions and external commands ([`SchedClient`]), so a
//! `submit` arriving over TCP mid-ensemble repartitions the elastic pool
//! exactly the way a departure does. Manifest mode ([`Scheduler::run`])
//! is the same loop started in the draining state — admission is already
//! closed, so it exits when the pre-submitted jobs finish, preserving
//! the PR 9 batch semantics bit for bit.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mfc_acc::Context;
use mfc_cli::{Admitted, CaseFile};
use mfc_core::restart::save_checkpoint;
use mfc_core::{Solver, StepControl};
use mfc_trace::{Category, TraceHandle, Tracer};

use crate::job::{JobRecord, JobSpec, JobState, SchedError, PRIORITY_LIMIT};
use crate::pool::partition;
use crate::protocol::{MetricsSnapshot, StatusRow};
use crate::queue::AdmissionQueue;

/// Scheduler knobs. `budget` is the global worker pool partitioned
/// across running jobs; `queue_cap` bounds the admission queue.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Global worker budget shared by all running jobs (≥ 1). Also the
    /// running-job ceiling: each running job holds at least one worker.
    pub budget: usize,
    /// Bounded admission-queue capacity (≥ 1); a full queue rejects with
    /// [`SchedError::QueueFull`].
    pub queue_cap: usize,
    /// Dispatch rounds a waiting job must sit out per effective priority
    /// point gained (starvation control; see [`AdmissionQueue`]).
    pub aging_rounds: u64,
    /// Per-job artifacts land under `out_dir/<id>_<name>/`; every job that
    /// does not fail writes its final state there as a CRC'd checkpoint
    /// (`final.ckpt`) — the bitwise-comparable output of the job.
    pub out_dir: PathBuf,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            budget: 1,
            queue_cap: 16,
            aging_rounds: 4,
            out_dir: PathBuf::from("out/serve"),
        }
    }
}

struct JobEntry {
    spec: JobSpec,
    name: String,
    case: Admitted,
    state: JobState,
    cancel: Arc<AtomicBool>,
    share: Arc<AtomicUsize>,
    submitted: Instant,
    admitted: Option<Instant>,
    record: Option<JobRecord>,
}

/// A command injected into a live event loop, with its reply channel.
pub(crate) enum Command {
    Submit(Box<JobSpec>, mpsc::Sender<Result<u64, SchedError>>),
    Cancel(u64, mpsc::Sender<Result<(), SchedError>>),
    Status(
        Option<u64>,
        mpsc::Sender<Result<Vec<StatusRow>, SchedError>>,
    ),
    Metrics(mpsc::Sender<MetricsSnapshot>),
    Drain(mpsc::Sender<MetricsSnapshot>),
    Shutdown(mpsc::Sender<MetricsSnapshot>),
}

/// Everything the event loop reacts to, multiplexed on one channel so
/// job completions and client commands interleave in arrival order —
/// no polling, no second wakeup path.
pub(crate) enum Event {
    /// The job thread's record: everything but the dispatcher's own
    /// fields (id, name, case, priority, wall and wait times).
    Done(u64, JobRecord),
    Cmd(Command),
}

/// Cloneable, thread-safe handle into a live scheduler event loop.
///
/// Every method is a synchronous request/reply over the scheduler's
/// event channel: safe to call from any number of server threads while
/// jobs run. Once the loop exits (drain complete / shutdown), every
/// method returns [`SchedError::ShuttingDown`].
#[derive(Clone)]
pub struct SchedClient {
    tx: mpsc::Sender<Event>,
}

/// Receiving half of the event channel; feed it to
/// [`Scheduler::serve`].
pub struct SchedEvents(mpsc::Receiver<Event>);

impl SchedClient {
    /// A fresh command channel: hand the [`SchedClient`] to server
    /// threads and the [`SchedEvents`] to [`Scheduler::serve`].
    pub fn pair() -> (SchedClient, SchedEvents) {
        let (tx, rx) = mpsc::channel();
        (SchedClient { tx }, SchedEvents(rx))
    }

    fn send(&self, cmd: Command) -> Result<(), SchedError> {
        self.tx
            .send(Event::Cmd(cmd))
            .map_err(|_| SchedError::ShuttingDown)
    }

    /// Validate and enqueue a job in the running ensemble (streaming
    /// admission). Same typed rejections as [`Scheduler::submit`].
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SchedError> {
        let (rtx, rrx) = mpsc::channel();
        self.send(Command::Submit(Box::new(spec), rtx))?;
        rrx.recv().map_err(|_| SchedError::ShuttingDown)?
    }

    /// Cooperatively cancel a queued or running job.
    pub fn cancel(&self, id: u64) -> Result<(), SchedError> {
        let (rtx, rrx) = mpsc::channel();
        self.send(Command::Cancel(id, rtx))?;
        rrx.recv().map_err(|_| SchedError::ShuttingDown)?
    }

    /// One row per job (or just `id`'s row).
    pub fn status(&self, id: Option<u64>) -> Result<Vec<StatusRow>, SchedError> {
        let (rtx, rrx) = mpsc::channel();
        self.send(Command::Status(id, rtx))?;
        rrx.recv().map_err(|_| SchedError::ShuttingDown)?
    }

    /// Live occupancy and outcome counters.
    pub fn metrics(&self) -> Result<MetricsSnapshot, SchedError> {
        let (rtx, rrx) = mpsc::channel();
        self.send(Command::Metrics(rtx))?;
        rrx.recv().map_err(|_| SchedError::ShuttingDown)
    }

    /// Close admission; queued and running jobs still finish, then the
    /// loop exits. Returns the snapshot at the moment drain began.
    pub fn drain(&self) -> Result<MetricsSnapshot, SchedError> {
        let (rtx, rrx) = mpsc::channel();
        self.send(Command::Drain(rtx))?;
        rrx.recv().map_err(|_| SchedError::ShuttingDown)
    }

    /// Close admission *and* cancel every non-terminal job
    /// cooperatively (queued jobs finalize as `Cancelled` immediately;
    /// running jobs stop at their next step boundary), then the loop
    /// exits and the caller flushes the ledger.
    pub fn shutdown(&self) -> Result<MetricsSnapshot, SchedError> {
        let (rtx, rrx) = mpsc::channel();
        self.send(Command::Shutdown(rtx))?;
        rrx.recv().map_err(|_| SchedError::ShuttingDown)
    }
}

/// Deterministic ensemble execution engine (see the crate docs).
///
/// Lifecycle: [`Scheduler::submit`] validates and queues jobs (typed
/// rejection on a malformed job or a full queue), [`Scheduler::cancel`]
/// requests cooperative cancellation, and [`Scheduler::run`] drives the
/// dispatch loop to completion, returning one [`JobRecord`] per
/// submitted job in submission order.
pub struct Scheduler {
    cfg: SchedConfig,
    tracer: Option<Arc<Tracer>>,
    sched_tl: Option<Arc<TraceHandle>>,
    jobs: Vec<JobEntry>,
    queue: AdmissionQueue,
    /// Admission closed: the loop exits once queue and pool are empty.
    draining: bool,
}

impl Scheduler {
    pub fn new(cfg: SchedConfig) -> Self {
        let queue = AdmissionQueue::new(cfg.queue_cap, cfg.aging_rounds);
        Scheduler {
            cfg,
            tracer: None,
            sched_tl: None,
            jobs: Vec::new(),
            queue,
            draining: false,
        }
    }

    /// Attach a tracer: timeline 0 carries the scheduler's queue-depth /
    /// occupancy counters and resize instants; timeline `1 + id` carries
    /// each job's `job` span, admit/cancel instants, and kernel events.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.sched_tl = Some(tracer.handle(0));
        self.tracer = Some(tracer);
        self
    }

    pub fn config(&self) -> &SchedConfig {
        &self.cfg
    }

    /// Admission control: load the case, apply the spec's overrides, and
    /// admit it exactly as `mfc-run` does ([`mfc_cli::admit`]); the job
    /// then carries that [`Admitted`] to its worker thread. Invalid jobs
    /// are rejected here — at enqueue, not mid-ensemble — and a full
    /// queue pushes back with [`SchedError::QueueFull`].
    pub fn submit(&mut self, spec: JobSpec) -> Result<u64, SchedError> {
        if self.draining {
            return Err(SchedError::Draining);
        }
        // Range-contains rather than .abs(): i64::MIN has no absolute
        // value and must still be a clean typed rejection.
        if !(-PRIORITY_LIMIT..=PRIORITY_LIMIT).contains(&spec.priority) {
            return Err(SchedError::PriorityOutOfRange {
                priority: spec.priority,
                limit: PRIORITY_LIMIT,
            });
        }
        let job_label = spec
            .name
            .clone()
            .unwrap_or_else(|| spec.case.display().to_string());
        let reject = |reason: String| SchedError::Rejected {
            job: job_label.clone(),
            reason,
        };
        let mut case = CaseFile::from_path(&spec.case).map_err(&reject)?;
        if let Some(w) = spec.workers {
            case.numerics.workers = w;
        }
        if let Some(vw) = spec.vector_width {
            case.numerics.vector_width = vw;
        }
        if let Some(steps) = spec.max_steps {
            case.run.steps = steps;
        }
        let case = mfc_cli::admit(&case).map_err(|e| reject(e.to_string()))?;
        if case.ranks() > 1 {
            return Err(reject(format!(
                "run.ranks = {} — the ensemble scheduler drives the serial-rank engine",
                case.ranks()
            )));
        }
        if case.distributed() {
            return Err(reject(
                "fault-tolerant distributed features (run.faults / run.checkpoint_every) \
                 are not available inside the ensemble scheduler"
                    .into(),
            ));
        }
        let id = self.jobs.len() as u64;
        self.queue.push(id, spec.priority)?;
        let name = spec.name.clone().unwrap_or_else(|| case.name().to_string());
        self.jobs.push(JobEntry {
            spec,
            name,
            case,
            state: JobState::Queued,
            cancel: Arc::new(AtomicBool::new(false)),
            share: Arc::new(AtomicUsize::new(1)),
            submitted: Instant::now(),
            admitted: None,
            record: None,
        });
        if let Some(tl) = &self.sched_tl {
            tl.counter("queue_depth", self.queue.len() as f64);
        }
        Ok(id)
    }

    /// Request cooperative cancellation. A queued job is finalized
    /// immediately; a running job observes the flag at its next step
    /// boundary. Terminal jobs return [`SchedError::Terminal`].
    pub fn cancel(&mut self, id: u64) -> Result<(), SchedError> {
        let idx = id as usize;
        if idx >= self.jobs.len() {
            return Err(SchedError::UnknownJob { id });
        }
        if self.jobs[idx].state.is_terminal() {
            return Err(SchedError::Terminal { id });
        }
        self.jobs[idx].cancel.store(true, Ordering::Relaxed);
        if self.jobs[idx].state == JobState::Queued && self.queue.remove(id) {
            self.finalize_queued(idx, JobState::Cancelled, "cancelled while queued");
            if let Some(tl) = &self.sched_tl {
                tl.counter("queue_depth", self.queue.len() as f64);
                tl.instant("cancel", Category::Phase);
            }
        }
        Ok(())
    }

    /// Terminal record for a job that never left the queue.
    fn finalize_queued(&mut self, idx: usize, state: JobState, reason: &str) {
        let e = &mut self.jobs[idx];
        e.state = state;
        let wall = e.submitted.elapsed().as_secs_f64() * 1e3;
        e.record = Some(JobRecord {
            id: idx as u64,
            job: e.name.clone(),
            case: e.spec.case.clone(),
            priority: e.spec.priority,
            state,
            steps: 0,
            sim_time: 0.0,
            wall_ms: wall,
            wait_ms: wall,
            cpu_ms: 0.0,
            worker_seconds: 0.0,
            final_share: 0,
            resizes: 0,
            reason: Some(reason.to_string()),
            output: None,
        });
    }

    /// Recompute every running job's worker share (pure-function
    /// partition of the budget in admission order, respecting elastic
    /// caps) and publish the targets; jobs apply them at their next step
    /// boundary. Returns whether any share changed.
    fn repartition(&mut self, running: &[u64]) -> bool {
        let caps: Vec<usize> = running
            .iter()
            .map(|&id| self.jobs[id as usize].spec.workers.unwrap_or(usize::MAX))
            .collect();
        let shares = partition(self.cfg.budget, &caps);
        let mut changed = false;
        for (&id, &s) in running.iter().zip(shares.iter()) {
            if self.jobs[id as usize].share.swap(s, Ordering::Relaxed) != s {
                changed = true;
            }
        }
        if changed {
            if let Some(tl) = &self.sched_tl {
                tl.instant("resize", Category::Phase);
            }
        }
        if let Some(tl) = &self.sched_tl {
            tl.counter("busy_workers", shares.iter().sum::<usize>() as f64);
        }
        changed
    }

    fn emit_occupancy(&self, running: usize) {
        if let Some(tl) = &self.sched_tl {
            tl.counter("queue_depth", self.queue.len() as f64);
            tl.counter("running_jobs", running as f64);
        }
    }

    /// Drive a pre-submitted manifest to completion (admission already
    /// closed): admit while worker slots are free, react to
    /// completions, repartition the pool on every arrival and
    /// departure. Returns the ledger in submission order.
    pub fn run(&mut self) -> Vec<JobRecord> {
        let (client, events) = SchedClient::pair();
        self.draining = true;
        self.serve_loop(&client, events)
    }

    /// Daemon mode: the same event loop with admission *open* — jobs
    /// stream in through `SchedClient` handles (typically held by TCP
    /// reader threads) while the ensemble runs, and the loop exits only
    /// after a `drain` or `shutdown` command once the pool is idle.
    /// Returns the ledger in submission order.
    pub fn serve(&mut self, client: &SchedClient, events: SchedEvents) -> Vec<JobRecord> {
        self.draining = false;
        self.serve_loop(client, events)
    }

    fn serve_loop(&mut self, client: &SchedClient, events: SchedEvents) -> Vec<JobRecord> {
        let budget = self.cfg.budget.max(1);
        let mut handles: HashMap<u64, JoinHandle<()>> = HashMap::new();
        let mut running: Vec<u64> = Vec::new();
        loop {
            // Dispatch: each admission holds a real share ≥ 1 because
            // running stays strictly under the budget — the partition's
            // zero-share tail is exactly the set of jobs left queued.
            while running.len() < budget {
                let Some(id) = self.queue.pop() else { break };
                let idx = id as usize;
                self.jobs[idx].state = JobState::Admitted;
                self.jobs[idx].admitted = Some(Instant::now());
                running.push(id);
                self.repartition(&running);
                let handle = self.spawn_job(id, client.tx.clone());
                handles.insert(id, handle);
                self.jobs[idx].state = JobState::Running;
            }
            self.emit_occupancy(running.len());
            if self.draining && running.is_empty() && self.queue.is_empty() {
                break;
            }
            // Blocks until a job finishes or a client commands; with
            // admission open and the pool idle this is the daemon's
            // parked state. Err is unreachable while `client` lives —
            // exit defensively rather than panic.
            let Ok(event) = events.0.recv() else { break };
            match event {
                Event::Done(id, outcome) => {
                    if let Some(h) = handles.remove(&id) {
                        let _ = h.join();
                    }
                    running.retain(|&r| r != id);
                    self.finalize_run(id as usize, outcome);
                    if !running.is_empty() {
                        self.repartition(&running);
                    }
                    self.emit_occupancy(running.len());
                }
                Event::Cmd(cmd) => self.handle_cmd(cmd, &running),
            }
        }
        self.ledger()
    }

    /// Serve one client command against live state. Replies are
    /// best-effort: a vanished requester must not take the loop down.
    fn handle_cmd(&mut self, cmd: Command, running: &[u64]) {
        match cmd {
            Command::Submit(spec, reply) => {
                let r = self.submit(*spec);
                let _ = reply.send(r);
            }
            Command::Cancel(id, reply) => {
                let r = self.cancel(id);
                let _ = reply.send(r);
            }
            Command::Status(id, reply) => {
                let _ = reply.send(self.status_rows(id));
            }
            Command::Metrics(reply) => {
                let _ = reply.send(self.metrics(running));
            }
            Command::Drain(reply) => {
                self.draining = true;
                if let Some(tl) = &self.sched_tl {
                    tl.instant("drain", Category::Phase);
                }
                let _ = reply.send(self.metrics(running));
            }
            Command::Shutdown(reply) => {
                self.draining = true;
                if let Some(tl) = &self.sched_tl {
                    tl.instant("shutdown", Category::Phase);
                }
                // Queued jobs finalize as Cancelled right now; running
                // jobs observe their flag at the next step boundary and
                // come back through Event::Done like any completion.
                let queued: Vec<u64> = self
                    .jobs
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.state == JobState::Queued)
                    .map(|(i, _)| i as u64)
                    .collect();
                for id in queued {
                    let _ = self.cancel(id);
                }
                for &id in running {
                    self.jobs[id as usize].cancel.store(true, Ordering::Relaxed);
                }
                let _ = reply.send(self.metrics(running));
            }
        }
    }

    /// The live snapshot served by the `metrics` command — computed
    /// from the same state the trace counters record, so the wire view
    /// and the trace view cannot disagree.
    fn metrics(&self, running: &[u64]) -> MetricsSnapshot {
        let budget = self.cfg.budget.max(1);
        let busy: usize = running
            .iter()
            .map(|&id| self.jobs[id as usize].share.load(Ordering::Relaxed))
            .sum::<usize>()
            .min(budget);
        let mut done = 0u64;
        let mut failed = 0u64;
        let mut cancelled = 0u64;
        let mut timed_out = 0u64;
        let mut worker_seconds = 0.0f64;
        for e in &self.jobs {
            match e.state {
                JobState::Done => done += 1,
                JobState::Failed => failed += 1,
                JobState::Cancelled => cancelled += 1,
                JobState::TimedOut => timed_out += 1,
                _ => {}
            }
            if let Some(r) = &e.record {
                worker_seconds += r.worker_seconds;
            }
        }
        MetricsSnapshot {
            budget,
            queued: self.queue.len(),
            running: running.len(),
            busy_workers: busy,
            idle_workers: budget - busy,
            submitted: self.jobs.len() as u64,
            done,
            failed,
            cancelled,
            timed_out,
            worker_seconds,
            draining: self.draining,
        }
    }

    fn status_rows(&self, id: Option<u64>) -> Result<Vec<StatusRow>, SchedError> {
        let row = |idx: usize| {
            let e = &self.jobs[idx];
            StatusRow {
                id: idx as u64,
                job: e.name.clone(),
                state: e.state,
                steps: e.record.as_ref().map(|r| r.steps),
                reason: e.record.as_ref().and_then(|r| r.reason.clone()),
                output: e.record.as_ref().and_then(|r| r.output.clone()),
            }
        };
        match id {
            Some(id) if (id as usize) < self.jobs.len() => Ok(vec![row(id as usize)]),
            Some(id) => Err(SchedError::UnknownJob { id }),
            None => Ok((0..self.jobs.len()).map(row).collect()),
        }
    }

    fn ledger(&self) -> Vec<JobRecord> {
        self.jobs
            .iter()
            .enumerate()
            .filter_map(|(i, e)| {
                // Every job that entered the system has a record by now;
                // defend against future states without panicking.
                e.record.clone().or_else(|| {
                    e.state.is_terminal().then(|| JobRecord {
                        id: i as u64,
                        job: e.name.clone(),
                        case: e.spec.case.clone(),
                        priority: e.spec.priority,
                        state: e.state,
                        ..Default::default()
                    })
                })
            })
            .collect()
    }

    fn finalize_run(&mut self, idx: usize, o: JobRecord) {
        let e = &mut self.jobs[idx];
        e.state = o.state;
        let wall = e.submitted.elapsed().as_secs_f64() * 1e3;
        let wait = e
            .admitted
            .map(|a| (a - e.submitted).as_secs_f64() * 1e3)
            .unwrap_or(wall);
        e.record = Some(JobRecord {
            id: idx as u64,
            job: e.name.clone(),
            case: e.spec.case.clone(),
            priority: e.spec.priority,
            wall_ms: wall,
            wait_ms: wait,
            ..o
        });
    }

    fn spawn_job(&self, id: u64, tx: mpsc::Sender<Event>) -> JoinHandle<()> {
        let e = &self.jobs[id as usize];
        let args = JobArgs {
            case: e.case.clone(),
            name: e.name.clone(),
            dispatched_share: e.share.load(Ordering::Relaxed),
            share: Arc::clone(&e.share),
            cancel: Arc::clone(&e.cancel),
            deadline: e.spec.deadline_ms.map(Duration::from_millis),
            cancel_at_step: e.spec.cancel_at_step,
            fault_at_step: e.spec.fault_at_step,
            out_dir: self.cfg.out_dir.join(format!("{id:02}_{}", e.name)),
            handle: self.tracer.as_ref().map(|t| t.handle(1 + id as usize)),
        };
        std::thread::spawn(move || {
            // Per-job isolation even against a panic: the server process
            // and the sibling jobs must survive anything a job does.
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| run_job(args)))
                .unwrap_or_else(|p| {
                    let msg = p
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| p.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "job thread panicked".into());
                    JobRecord {
                        state: JobState::Failed,
                        reason: Some(format!("panic: {msg}")),
                        ..Default::default()
                    }
                });
            let _ = tx.send(Event::Done(id, outcome));
        })
    }
}

struct JobArgs {
    case: Admitted,
    name: String,
    /// The share the dispatcher reserved for the job: what it starts
    /// with, however late its thread is scheduled. A target that moved
    /// meanwhile is applied (and counted) at the first step boundary.
    dispatched_share: usize,
    share: Arc<AtomicUsize>,
    cancel: Arc<AtomicBool>,
    deadline: Option<Duration>,
    cancel_at_step: Option<u64>,
    fault_at_step: Option<u64>,
    out_dir: PathBuf,
    handle: Option<Arc<TraceHandle>>,
}

/// Poison the conservative state so the next step trips the
/// numerical-health watchdog — the injected "fatal fault" of the
/// isolation tests, driven through the solver's real error path.
fn poison_state(solver: &mut Solver) {
    let dom = *solver.domain();
    let slot = dom.eq.energy();
    let cell = dom.interior().next();
    if let Some((i, j, k)) = cell {
        solver.state_mut().set(i, j, k, slot, f64::NAN);
    }
}

fn run_job(args: JobArgs) -> JobRecord {
    let service_start = Instant::now();
    let cfg = args.case.solver_config();
    let mut share = args.dispatched_share.max(1);
    let mut ctx = Context::with_workers(share).with_vector_width(cfg.vector_width);
    if let Some(h) = &args.handle {
        ctx.set_tracer(Arc::clone(h));
    }
    let job_span = args.handle.as_ref().map(|h| h.span("job", Category::Phase));
    if let Some(h) = &args.handle {
        h.instant("admit", Category::Phase);
    }
    let mut solver = Solver::new(args.case.case(), cfg, ctx);
    solver.set_recovery(args.case.recovery().cloned());

    let mut resizes = 0u64;
    let mut worker_seconds = 0.0f64;
    let mut last = Instant::now();
    let mut stop_as = None;
    let mut fault_pending = args.fault_at_step;

    // Every scheduler check (injected fault, cancel, deadline, elastic
    // resize) sits on a step boundary of the run loop.
    let ctrl = |solver: &mut Solver| {
        if fault_pending == Some(solver.steps()) {
            poison_state(solver);
            fault_pending = None;
        }
        let now = Instant::now();
        worker_seconds += share as f64 * (now - last).as_secs_f64();
        last = now;
        if args.cancel.load(Ordering::Relaxed)
            || args.cancel_at_step.is_some_and(|c| solver.steps() >= c)
        {
            stop_as = Some((JobState::Cancelled, "cancelled"));
            return StepControl::Stop;
        }
        if args.deadline.is_some_and(|d| service_start.elapsed() >= d) {
            stop_as = Some((JobState::TimedOut, "deadline exceeded"));
            return StepControl::Stop;
        }
        let target = args.share.load(Ordering::Relaxed).max(1);
        if target != share {
            share = target;
            resizes += 1;
            solver.set_workers(target);
        }
        StepControl::Continue
    };
    let run = solver.run(args.case.stop(), None, ctrl);
    worker_seconds += share as f64 * last.elapsed().as_secs_f64();
    solver.context().flush_ledger_to_trace();

    let (mut state, mut reason) = match (run, stop_as) {
        (Err(e), _) => (JobState::Failed, Some(e.to_string())),
        (Ok(()), Some((state, why))) => (state, Some(format!("{why} at step {}", solver.steps()))),
        (Ok(()), None) => (JobState::Done, None),
    };
    if let Some(h) = &args.handle {
        match state {
            JobState::Cancelled => h.instant("cancel", Category::Phase),
            JobState::TimedOut => h.instant("deadline", Category::Phase),
            JobState::Failed => h.instant("job_failed", Category::Phase),
            _ => {}
        }
    }
    drop(job_span);

    // The job's bitwise-comparable artifact: its final state as a CRC'd
    // checkpoint. Failed jobs write nothing (their state is the last
    // accepted q^n, not a result).
    let mut output = None;
    if state != JobState::Failed {
        let path = args.out_dir.join("final.ckpt");
        let write = std::fs::create_dir_all(&args.out_dir)
            .map_err(|e| format!("cannot create job output dir: {e}"))
            .and_then(|()| {
                save_checkpoint(&path, solver.state(), solver.time(), solver.steps())
                    .map_err(|e| format!("checkpoint write failed: {e}"))
            });
        match write {
            Ok(()) => output = Some(path),
            Err(e) => {
                // An I/O fault is the job's own failure, not the server's.
                state = JobState::Failed;
                reason = Some(format!("{} ({e})", args.name));
            }
        }
    }

    JobRecord {
        state,
        steps: solver.steps(),
        sim_time: solver.time(),
        cpu_ms: service_start.elapsed().as_secs_f64() * 1e3,
        worker_seconds,
        final_share: share,
        resizes,
        reason,
        output,
        ..Default::default()
    }
}

/// Write the ledger as JSON-lines: one [`JobRecord`] per line, in
/// submission order.
pub fn write_ledger(path: &Path, records: &[JobRecord]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for r in records {
        let line = serde_json::to_string(r)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        writeln!(w, "{line}")?;
    }
    w.flush()
}
