//! Ranks as threads, messages as mailbox deliveries.
//!
//! The transport is a per-rank mailbox (mutex + condvar) instead of a
//! channel, because the fault-injection layer needs to see every message
//! at the delivery point: dropped messages sit in a *limbo* store until
//! the receiver's retry path asks for a retransmit, delayed messages sit
//! in a countdown store ticked by subsequent deliveries, and per-flow
//! FIFO (MPI's non-overtaking guarantee) is enforced even while other
//! flows are reordered around a held message.

use std::cell::Cell;
use std::collections::VecDeque;
use std::convert::Infallible;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mfc_trace::{Category, CommOp, SpanGuard, TraceHandle};

use crate::fault::{CommFault, FaultCtx, SendFault};

/// Safety net: a plain (non-policied) receive that waits longer than this
/// panics instead of hanging the test suite; a correct fault-free program
/// never gets near it.
const PLAIN_RECV_DEADLINE: Duration = Duration::from_secs(120);

/// A tagged point-to-point message.
#[derive(Debug)]
struct Message {
    src: usize,
    tag: u64,
    /// Recovery generation the sender was in; receivers discard messages
    /// from generations older than their own (stale pre-rollback data).
    gen: u64,
    /// Per-(src, dst) sequence number, used to restore flow order when
    /// held messages are flushed.
    seq: u64,
    payload: Vec<f64>,
}

#[derive(Debug, Default)]
struct MailboxQ {
    ready: VecDeque<Message>,
    /// Dropped messages awaiting retransmit.
    limbo: Vec<Message>,
    /// Delayed messages: (deliveries still to wait, message).
    delayed: Vec<(u32, Message)>,
}

#[derive(Debug, Default)]
struct Mailbox {
    q: Mutex<MailboxQ>,
    cv: Condvar,
}

impl Mailbox {
    /// Deliver one message, applying its send-side fault (if any) and
    /// keeping every `(src, tag)` flow FIFO:
    ///
    /// 1. if the new message is actually delivered, held messages of the
    ///    same flow are flushed ahead of it — a *faulted* message must
    ///    not rescue its held predecessors, or a dropped message would
    ///    reach the receiver without the retry path ever running;
    /// 2. the new message is enqueued (or held, per its fault);
    /// 3. delay countdowns tick, releasing expired messages *after* the
    ///    new one — which is what actually reorders flows — except that
    ///    an expired message stays held while an earlier message of its
    ///    own flow is still in limbo or delayed (non-overtaking).
    fn push(&self, msg: Message, fault: Option<SendFault>) {
        let mut q = self.q.lock().unwrap();
        match fault {
            Some(SendFault::Drop) => q.limbo.push(msg),
            Some(SendFault::Delay(hold)) => q.delayed.push((hold, msg)),
            None => {
                Self::flush_flow(&mut q, msg.src, msg.tag);
                q.ready.push_back(msg);
            }
        }
        Self::tick_delays(&mut q);
        self.cv.notify_all();
    }

    /// Move held messages of flow `(src, tag)` into the ready queue in
    /// sequence order (per-flow non-overtaking).
    fn flush_flow(q: &mut MailboxQ, src: usize, tag: u64) {
        let mut flushed: Vec<Message> = Vec::new();
        let mut i = 0;
        while i < q.limbo.len() {
            if q.limbo[i].src == src && q.limbo[i].tag == tag {
                flushed.push(q.limbo.swap_remove(i));
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < q.delayed.len() {
            if q.delayed[i].1.src == src && q.delayed[i].1.tag == tag {
                flushed.push(q.delayed.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
        flushed.sort_by_key(|m| m.seq);
        q.ready.extend(flushed);
    }

    /// One delivery happened: tick every countdown, release expired holds.
    ///
    /// An expired message is NOT released while an earlier-sequence
    /// message of the same `(src, tag)` flow is still held in limbo or
    /// delayed — it stays parked (at hold 0) until `flush_flow` or
    /// `promote_all` moves the whole flow in order.
    fn tick_delays(q: &mut MailboxQ) {
        for (hold, _) in q.delayed.iter_mut() {
            *hold = hold.saturating_sub(1);
        }
        let mut released: Vec<Message> = Vec::new();
        loop {
            let mut moved = false;
            let mut i = 0;
            while i < q.delayed.len() {
                let (hold, m) = &q.delayed[i];
                let blocked = *hold > 0
                    || q.limbo
                        .iter()
                        .any(|h| h.src == m.src && h.tag == m.tag && h.seq < m.seq)
                    || q.delayed.iter().enumerate().any(|(j, (_, h))| {
                        j != i && h.src == m.src && h.tag == m.tag && h.seq < m.seq
                    });
                if blocked {
                    i += 1;
                } else {
                    released.push(q.delayed.swap_remove(i).1);
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
        released.sort_by_key(|m| m.seq);
        q.ready.extend(released);
    }

    /// Retransmit everything recoverable (retry path): limbo and delayed
    /// messages all move to ready. Returns how many were promoted.
    fn promote_all(&self) -> usize {
        let mut q = self.q.lock().unwrap();
        let mut moved: Vec<Message> = q.limbo.drain(..).collect();
        moved.extend(q.delayed.drain(..).map(|(_, m)| m));
        moved.sort_by_key(|m| (m.src, m.tag, m.seq));
        let n = moved.len();
        q.ready.extend(moved);
        if n > 0 {
            self.cv.notify_all();
        }
        n
    }

    /// Pop the oldest ready message, waiting up to `timeout` for one.
    fn pop(&self, timeout: Duration) -> Option<Message> {
        let mut q = self.q.lock().unwrap();
        if let Some(m) = q.ready.pop_front() {
            return Some(m);
        }
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self.cv.wait_timeout(q, deadline - now).unwrap();
            q = guard;
            if let Some(m) = q.ready.pop_front() {
                return Some(m);
            }
        }
    }
}

/// Reusable barrier over the *current roster*: the caller supplies the
/// arrival count that releases a generation ([`Comm::size`], on which all
/// roster members agree), so idle hot spares and permanently dead ranks —
/// which never arrive — cannot strand the survivors the way a barrier
/// sized for the physical world would.
#[derive(Debug, Default)]
struct RosterBarrier {
    /// (ranks arrived in this generation, generation counter).
    state: Mutex<(usize, u64)>,
    released: Condvar,
}

impl RosterBarrier {
    fn wait(&self, parties: usize) {
        let mut st = self.state.lock().expect("a rank panicked at a barrier");
        st.0 += 1;
        if st.0 >= parties {
            *st = (0, st.1 + 1);
            self.released.notify_all();
        } else {
            let gen = st.1;
            while st.1 == gen {
                st = self
                    .released
                    .wait(st)
                    .expect("a rank panicked at a barrier");
            }
        }
    }
}

/// One rank's handle into the simulated world.
///
/// Mirrors the slice of the MPI API MFC uses. Receives match on
/// `(source, tag)`; out-of-order arrivals are buffered, so communication
/// patterns that rely on MPI's non-overtaking guarantee work unchanged.
/// The `*_policied` variants are the fault-aware exchange path: they
/// return `Err(CommFault)` instead of blocking forever when a peer is
/// dead, silent past the detector's patience, or when another rank has
/// initiated recovery.
pub struct Comm {
    /// Physical identity: this rank's mailbox index, fixed for the whole
    /// run. Fault plans and the [`crate::fault::FaultBoard`] speak
    /// physical ranks.
    phys: usize,
    /// Logical identity: this rank's slot in the current epoch's roster
    /// (`usize::MAX` for an idle hot spare outside the decomposition).
    /// All public operations — `rank()`, `send`, `recv`, collectives —
    /// speak logical ranks and translate through the roster, so a spare
    /// promotion or a communicator shrink is invisible to exchange code.
    logical: usize,
    /// Logical slot -> physical rank translation table for the epoch
    /// this rank currently runs in (see [`Comm::adopt_roster`]).
    roster: Vec<usize>,
    mailboxes: Arc<Vec<Mailbox>>,
    pending: VecDeque<Message>,
    barrier: Arc<RosterBarrier>,
    faults: Option<Arc<FaultCtx>>,
    /// Recovery generation this rank currently runs in.
    gen: Cell<u64>,
    /// Per-physical-destination count of messages sent (fault keying +
    /// flow seq).
    send_seq: Vec<Cell<u64>>,
    /// Retransmits observed by this rank's retry path.
    retransmits: Cell<u64>,
    /// Retries burned by policied receives (detector activity).
    retries: Cell<u64>,
    /// Measured-profile recording endpoint; `None` (the default) keeps
    /// every operation on an untraced fast path.
    tracer: Option<Arc<TraceHandle>>,
}

impl Comm {
    /// This rank's logical id in the current epoch (`MPI_Comm_rank`).
    pub fn rank(&self) -> usize {
        self.logical
    }

    /// Number of logical ranks in the current epoch (`MPI_Comm_size`).
    /// Shrinks when a permanent loss is healed by dropping dead slots.
    pub fn size(&self) -> usize {
        self.roster.len()
    }

    /// This rank's fixed physical id (mailbox index): the identity fault
    /// plans and the fault board use.
    pub fn phys_rank(&self) -> usize {
        self.phys
    }

    /// Whether this rank is an idle hot spare outside the decomposition
    /// (no logical slot yet; promoted by [`Comm::adopt_roster`]).
    pub fn is_spare(&self) -> bool {
        self.logical == usize::MAX
    }

    /// Enter a reconfigured epoch: install the rendezvous' new
    /// logical->physical roster and recompute this rank's logical id (a
    /// promoted spare gains one; survivors of a shrink may keep theirs
    /// or slide down). Panics if this physical rank is not in the roster
    /// — a permanently dead rank must not adopt the epoch it left.
    pub fn adopt_roster(&mut self, roster: Vec<usize>) {
        self.logical = roster
            .iter()
            .position(|&p| p == self.phys)
            .expect("physical rank absent from the adopted roster");
        self.roster = roster;
    }

    /// The fault context this world runs under, if any.
    pub fn fault_ctx(&self) -> Option<&Arc<FaultCtx>> {
        self.faults.as_ref()
    }

    /// Attach a per-rank trace handle: subsequent sends/receives emit
    /// leaf comm events (payload bytes, blocked-wait time) and collectives
    /// open spans, giving the measured per-rank comm/compute split.
    pub fn set_tracer(&mut self, handle: Arc<TraceHandle>) {
        self.tracer = Some(handle);
    }

    /// The attached trace handle, if tracing is enabled.
    pub fn tracer(&self) -> Option<&Arc<TraceHandle>> {
        self.tracer.as_ref()
    }

    /// Open a collective span on the attached trace (no-op untraced).
    fn trace_collective(&self, name: &'static str, bytes: u64) -> Option<SpanGuard> {
        self.tracer
            .as_ref()
            .map(|t| t.span_bytes(name, Category::Collective, bytes))
    }

    /// Retransmissions triggered by this rank's retries so far.
    pub fn retransmits(&self) -> u64 {
        self.retransmits.get()
    }

    /// Detector retries burned by this rank so far.
    pub fn retries(&self) -> u64 {
        self.retries.get()
    }

    /// Non-blocking-ish send (`MPI_Send` with buffering semantics).
    /// `dest` is a logical rank, translated through the epoch roster.
    pub fn send(&self, dest: usize, tag: u64, payload: Vec<f64>) {
        assert!(
            dest < self.roster.len(),
            "send to rank {dest} of {}",
            self.roster.len()
        );
        let dest_phys = self.roster[dest];
        let t0 = Instant::now();
        let bytes = (payload.len() * 8) as u64;
        let nth = self.send_seq[dest_phys].get();
        self.send_seq[dest_phys].set(nth + 1);
        let fault = self
            .faults
            .as_ref()
            .and_then(|f| f.plan.send_fault(self.phys, dest_phys, nth));
        self.mailboxes[dest_phys].push(
            Message {
                src: self.phys,
                tag,
                gen: self.gen.get(),
                seq: nth,
                payload,
            },
            fault,
        );
        if let Some(t) = &self.tracer {
            t.comm(CommOp::Send, dest, bytes, t0);
        }
    }

    /// Take a matching message out of the local pending buffer, skipping
    /// and discarding stale-generation messages. `source` is logical.
    fn take_pending(&mut self, source: usize, tag: u64) -> Option<Vec<f64>> {
        let gen = self.gen.get();
        let src_phys = self.roster[source];
        self.pending.retain(|m| m.gen >= gen);
        self.pending
            .iter()
            .position(|m| m.src == src_phys && m.tag == tag)
            .map(|pos| self.pending.remove(pos).unwrap().payload)
    }

    /// Blocking receive matching `(source, tag)` (`MPI_Recv`).
    pub fn recv(&mut self, source: usize, tag: u64) -> Vec<f64> {
        let t0 = Instant::now();
        let payload = self.recv_blocking(source, tag);
        if let Some(t) = &self.tracer {
            t.comm(CommOp::Recv, source, (payload.len() * 8) as u64, t0);
        }
        payload
    }

    /// The untraced blocking-receive core shared by [`Comm::recv`] and
    /// the policied path.
    fn recv_blocking(&mut self, source: usize, tag: u64) -> Vec<f64> {
        let deadline = Instant::now() + PLAIN_RECV_DEADLINE;
        self.take_pending(source, tag)
            .or_else(|| self.pop_until(source, tag, deadline))
            .expect("plain recv exceeded the deadlock safety net")
    }

    /// Take messages off this rank's mailbox until the one from logical
    /// `source` with `tag` arrives, or `None` once `deadline` has passed.
    /// Stale-generation messages are discarded, others parked as pending.
    fn pop_until(&mut self, source: usize, tag: u64, deadline: Instant) -> Option<Vec<f64>> {
        let src_phys = self.roster[source];
        loop {
            let left = deadline.checked_duration_since(Instant::now())?;
            let m = self.mailboxes[self.phys].pop(left)?;
            if m.gen < self.gen.get() {
                continue;
            }
            if m.src == src_phys && m.tag == tag {
                return Some(m.payload);
            }
            self.pending.push_back(m);
        }
    }

    /// Fault-aware receive: waits in detector-sized slices; every expired
    /// slice re-checks the failure board (heartbeat), promotes
    /// retransmittable messages, and backs off. Errors out if the peer is
    /// dead, recovery was requested elsewhere, or patience runs out.
    pub fn recv_policied(&mut self, source: usize, tag: u64) -> Result<Vec<f64>, CommFault> {
        let t0 = Instant::now();
        let result = self.recv_policied_inner(source, tag);
        if let Some(t) = &self.tracer {
            // Failed receives still carry their blocked-wait time; the
            // payload size is zero because nothing arrived.
            let bytes = result.as_ref().map(|p| (p.len() * 8) as u64).unwrap_or(0);
            t.comm(CommOp::Recv, source, bytes, t0);
        }
        result
    }

    fn recv_policied_inner(&mut self, source: usize, tag: u64) -> Result<Vec<f64>, CommFault> {
        let faults = match self.faults.clone() {
            Some(f) => f,
            // No fault context: plain blocking semantics.
            None => return Ok(self.recv_blocking(source, tag)),
        };
        if let Some(p) = self.take_pending(source, tag) {
            return Ok(p);
        }
        let src_phys = self.roster[source];
        let mut attempt: u32 = 0;
        loop {
            // Drain whatever arrives within this slice.
            let deadline = Instant::now() + faults.detector.slice(attempt);
            if let Some(p) = self.pop_until(source, tag, deadline) {
                return Ok(p);
            }
            // Slice expired: heartbeat checks, then retransmit + retry.
            if faults.board.recovery_pending() {
                return Err(CommFault::RecoveryRequested);
            }
            if !faults.board.is_alive(src_phys) {
                return Err(CommFault::PeerDead { rank: source });
            }
            let promoted = self.mailboxes[self.phys].promote_all();
            self.retransmits
                .set(self.retransmits.get() + promoted as u64);
            self.retries.set(self.retries.get() + 1);
            attempt += 1;
            if attempt > faults.detector.retries {
                return Err(CommFault::Timeout { source, tag });
            }
        }
    }

    /// Combined send+receive (`MPI_Sendrecv`) — the halo-exchange primitive.
    ///
    /// Safe against head-of-line blocking because sends are buffered.
    pub fn sendrecv(
        &mut self,
        dest: usize,
        send_tag: u64,
        payload: Vec<f64>,
        source: usize,
        recv_tag: u64,
    ) -> Vec<f64> {
        self.send(dest, send_tag, payload);
        self.recv(source, recv_tag)
    }

    /// Synchronize the current epoch's roster (`MPI_Barrier`).
    pub fn barrier(&self) {
        let _span = self.trace_collective("barrier", 0);
        self.barrier.wait(self.size());
    }

    /// All-reduce of one scalar (`MPI_Allreduce`): every rank receives
    /// `op` folded over every rank's contribution.
    pub fn allreduce(&mut self, value: f64, op: impl Fn(f64, f64) -> f64) -> f64 {
        let Ok(v) = self.allreduce_via(value, op, |c, src, tag| {
            Ok::<_, Infallible>(c.recv(src, tag))
        });
        v
    }

    /// Fault-aware [`Comm::allreduce`]. Doubles as the per-step
    /// heartbeat: rank 0 touches every rank, so a dead rank is detected
    /// within one detector slice of the next collective.
    pub fn allreduce_policied(
        &mut self,
        value: f64,
        op: impl Fn(f64, f64) -> f64,
    ) -> Result<f64, CommFault> {
        self.allreduce_via(value, op, Self::recv_policied)
    }

    /// The one all-reduce: rank 0 folds every contribution in rank order
    /// and broadcasts the result; `recv` is the plain or the policied
    /// receive.
    fn allreduce_via<E>(
        &mut self,
        value: f64,
        op: impl Fn(f64, f64) -> f64,
        mut recv: impl FnMut(&mut Self, usize, u64) -> Result<Vec<f64>, E>,
    ) -> Result<f64, E> {
        let _span = self.trace_collective("allreduce", 8);
        const REDUCE_TAG: u64 = u64::MAX - 1;
        const BCAST_TAG: u64 = u64::MAX - 2;
        if self.logical == 0 {
            let mut acc = value;
            for src in 1..self.size() {
                acc = op(acc, recv(self, src, REDUCE_TAG)?[0]);
            }
            for dst in 1..self.size() {
                self.send(dst, BCAST_TAG, vec![acc]);
            }
            Ok(acc)
        } else {
            self.send(0, REDUCE_TAG, vec![value]);
            Ok(recv(self, 0, BCAST_TAG)?[0])
        }
    }

    /// Min-reduce a scalar across ranks (the CFL Δt reduction).
    pub fn allreduce_min(&mut self, value: f64) -> f64 {
        self.allreduce(value, f64::min)
    }

    /// Gather every rank's buffer to rank 0 (`MPI_Gatherv`).
    /// Rank 0 receives `Some(buffers_by_rank)`, everyone else `None`.
    pub fn gather(&mut self, payload: Vec<f64>) -> Option<Vec<Vec<f64>>> {
        let _span = self.trace_collective("gather", (payload.len() * 8) as u64);
        const GATHER_TAG: u64 = u64::MAX - 3;
        if self.logical == 0 {
            let mut out = vec![Vec::new(); self.size()];
            out[0] = payload;
            for (src, slot) in out.iter_mut().enumerate().skip(1) {
                *slot = self.recv(src, GATHER_TAG);
            }
            Some(out)
        } else {
            self.send(0, GATHER_TAG, payload);
            None
        }
    }

    /// Complete this rank's side of a recovery: discard every buffered
    /// message from the old generation and enter the board's current one.
    /// Call after [`crate::fault::FaultBoard::rendezvous`] returns.
    pub fn finish_recovery(&mut self, gen: u64) {
        self.pending.clear();
        self.gen.set(gen);
    }
}

/// Spawns `size` ranks and runs `body` on each; returns the per-rank
/// results ordered by rank (`mpirun` + collect).
///
/// ```
/// use mfc_mpsim::World;
/// let mins = World::run(4, |mut comm| comm.allreduce_min(comm.rank() as f64 + 1.0));
/// assert_eq!(mins, vec![1.0; 4]);
/// ```
pub struct World;

/// Most ranks (active plus spare) one [`World`] may hold. Each rank is an
/// OS thread, so the bound is a resource limit of the process, not a
/// tuning setting.
pub const MAX_RANKS: usize = 4096;

impl World {
    pub fn run<T, F>(size: usize, body: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Comm) -> T + Sync,
    {
        Self::run_inner(size, 0, None, body)
    }

    /// [`World::run`] under a fault script, plus `spares` hot-spare ranks:
    /// the plan's message faults are applied by the transport, each rank's
    /// `Comm` carries the shared [`FaultCtx`] for the policied exchange
    /// path, and physical ranks `active..active + spares` start outside
    /// the decomposition
    /// ([`Comm::is_spare`]) and idle on the fault board until a recovery
    /// under `FailurePolicy::Spare` promotes one into a dead rank's
    /// logical slot. Results are ordered by physical rank (spares last).
    pub fn run_with_spares<T, F>(
        active: usize,
        spares: usize,
        faults: Arc<FaultCtx>,
        body: F,
    ) -> Vec<T>
    where
        T: Send,
        F: Fn(Comm) -> T + Sync,
    {
        assert_eq!(
            faults.board.size(),
            active + spares,
            "fault board sized for a different world"
        );
        Self::run_inner(active, spares, Some(faults), body)
    }

    fn run_inner<T, F>(
        active: usize,
        spares: usize,
        faults: Option<Arc<FaultCtx>>,
        body: F,
    ) -> Vec<T>
    where
        T: Send,
        F: Fn(Comm) -> T + Sync,
    {
        assert!(active > 0, "world needs at least one rank");
        let size = active + spares;
        let mailboxes: Arc<Vec<Mailbox>> =
            Arc::new((0..size).map(|_| Mailbox::default()).collect());
        let barrier = Arc::new(RosterBarrier::default());

        let mut results: Vec<Option<T>> = (0..size).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(size);
            for rank in 0..size {
                let comm = Comm {
                    phys: rank,
                    logical: if rank < active { rank } else { usize::MAX },
                    roster: (0..active).collect(),
                    mailboxes: Arc::clone(&mailboxes),
                    pending: VecDeque::new(),
                    barrier: Arc::clone(&barrier),
                    faults: faults.clone(),
                    gen: Cell::new(0),
                    send_seq: (0..size).map(|_| Cell::new(0)).collect(),
                    retransmits: Cell::new(0),
                    retries: Cell::new(0),
                    tracer: None,
                };
                let body = &body;
                handles.push(scope.spawn(move || body(comm)));
            }
            for (rank, h) in handles.into_iter().enumerate() {
                results[rank] = Some(h.join().expect("rank panicked"));
            }
        });
        results.into_iter().map(|r| r.unwrap()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{DetectorConfig, FaultPlan, MsgDelay, MsgFault};

    #[test]
    fn ranks_know_their_identity() {
        let ids = World::run(4, |c| (c.rank(), c.size()));
        assert_eq!(ids, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn ring_sendrecv_shifts_values() {
        let n = 5;
        let got = World::run(n, |mut c| {
            let right = (c.rank() + 1) % n;
            let left = (c.rank() + n - 1) % n;
            let r = c.sendrecv(right, 7, vec![c.rank() as f64], left, 7);
            r[0]
        });
        for (rank, v) in got.iter().enumerate() {
            assert_eq!(*v as usize, (rank + n - 1) % n);
        }
    }

    #[test]
    fn recv_matches_tag_out_of_order() {
        let got = World::run(2, |mut c| {
            if c.rank() == 0 {
                c.send(1, 1, vec![1.0]);
                c.send(1, 2, vec![2.0]);
                0.0
            } else {
                // Receive tag 2 first even though tag 1 arrived first.
                let b = c.recv(0, 2);
                let a = c.recv(0, 1);
                a[0] * 10.0 + b[0]
            }
        });
        assert_eq!(got[1], 12.0);
    }

    #[test]
    fn allreduce_ops() {
        let mins = World::run(4, |mut c| c.allreduce_min(c.rank() as f64));
        assert!(mins.iter().all(|&m| m == 0.0));
    }

    #[test]
    fn gather_collects_by_rank() {
        let got = World::run(3, |mut c| c.gather(vec![c.rank() as f64; c.rank() + 1]));
        let root = got[0].as_ref().unwrap();
        assert_eq!(root[0], vec![0.0]);
        assert_eq!(root[1], vec![1.0, 1.0]);
        assert_eq!(root[2], vec![2.0, 2.0, 2.0]);
        assert!(got[1].is_none() && got[2].is_none());
    }

    #[test]
    fn barrier_does_not_deadlock() {
        let got = World::run(4, |c| {
            for _ in 0..10 {
                c.barrier();
            }
            1
        });
        assert_eq!(got.iter().sum::<i32>(), 4);
    }

    /// What `halo_drain` relies on: receives match across sources in any
    /// arrival order (the MPI_Irecv + MPI_Waitall pattern over `recv`).
    #[test]
    fn irecv_waitall_completes_out_of_order_arrivals() {
        let got = World::run(3, |mut c| {
            if c.rank() == 0 {
                // Rank 1 sends before the barrier, rank 2 after it: the
                // rank-2 receive must buffer rank 1's earlier arrival.
                c.barrier();
                let b = c.recv(2, 9);
                let a = c.recv(1, 9);
                a[0] * 10.0 + b[0]
            } else {
                if c.rank() == 1 {
                    c.send(0, 9, vec![1.0]);
                }
                c.barrier();
                if c.rank() == 2 {
                    c.send(0, 9, vec![2.0]);
                }
                0.0
            }
        });
        assert_eq!(got[0], 12.0);
    }

    /// What `halo_post` relies on: sends complete before the peer posts
    /// any receive (the MPI_Isend pattern over the buffered `send`).
    #[test]
    fn isend_does_not_block_without_matching_recv_yet() {
        let got = World::run(2, |mut c| {
            if c.rank() == 0 {
                // Two sends complete before the peer posts any receive.
                c.send(1, 1, vec![1.0]);
                c.send(1, 2, vec![2.0]);
                c.barrier();
                0.0
            } else {
                c.barrier();
                let a = c.recv(0, 2);
                let b = c.recv(0, 1);
                a[0] * 10.0 + b[0]
            }
        });
        assert_eq!(got[1], 21.0);
    }

    #[test]
    fn single_rank_world_works() {
        let got = World::run(1, |mut c| c.allreduce_min(5.0));
        assert_eq!(got, vec![5.0]);
    }

    // ------------------------------------------------ fault-layer tests

    fn faulty(plan: FaultPlan, size: usize) -> Arc<FaultCtx> {
        Arc::new(FaultCtx::new(plan, size).with_detector(DetectorConfig {
            slice_ms: 5,
            retries: 6,
            backoff: 1.5,
        }))
    }

    #[test]
    fn dropped_message_is_retransmitted_on_retry() {
        let plan = FaultPlan {
            drops: vec![MsgFault {
                src: 0,
                dst: 1,
                nth: 0,
            }],
            ..FaultPlan::default()
        };
        let got = World::run_with_spares(2, 0, faulty(plan, 2), |mut c| {
            if c.rank() == 0 {
                c.send(1, 3, vec![42.0]);
                0.0
            } else {
                let v = c.recv_policied(0, 3).expect("retransmit should recover");
                assert!(c.retransmits() >= 1, "drop must go through the retry path");
                v[0]
            }
        });
        assert_eq!(got[1], 42.0);
    }

    #[test]
    fn dropped_message_flushed_by_same_flow_successor() {
        // The drop's retransmit also happens when a later message of the
        // same (src, tag) flow arrives — per-flow FIFO is never violated.
        let plan = FaultPlan {
            drops: vec![MsgFault {
                src: 0,
                dst: 1,
                nth: 0,
            }],
            ..FaultPlan::default()
        };
        let got = World::run_with_spares(2, 0, faulty(plan, 2), |mut c| {
            if c.rank() == 0 {
                c.send(1, 3, vec![1.0]);
                c.send(1, 3, vec![2.0]);
                0.0
            } else {
                let a = c.recv_policied(0, 3).unwrap();
                let b = c.recv_policied(0, 3).unwrap();
                a[0] * 10.0 + b[0]
            }
        });
        assert_eq!(got[1], 12.0, "flow order must survive the drop");
    }

    #[test]
    fn two_dropped_same_tag_messages_need_retransmit_and_stay_fifo() {
        // Regression: both messages of one (src, tag) flow are dropped.
        // The second drop must NOT flush the first out of limbo (that
        // would deliver a dropped message without the retry path ever
        // running); both must come back through retransmission, in
        // sequence order.
        let plan = FaultPlan {
            drops: vec![
                MsgFault {
                    src: 0,
                    dst: 1,
                    nth: 0,
                },
                MsgFault {
                    src: 0,
                    dst: 1,
                    nth: 1,
                },
            ],
            ..FaultPlan::default()
        };
        let got = World::run_with_spares(2, 0, faulty(plan, 2), |mut c| {
            if c.rank() == 0 {
                c.send(1, 3, vec![1.0]);
                c.send(1, 3, vec![2.0]);
                0.0
            } else {
                let a = c.recv_policied(0, 3).expect("first retransmit");
                let b = c.recv_policied(0, 3).expect("second retransmit");
                assert!(
                    c.retransmits() >= 2,
                    "both drops must go through the retry path, saw {}",
                    c.retransmits()
                );
                a[0] * 10.0 + b[0]
            }
        });
        assert_eq!(got[1], 12.0, "flow order must survive the double drop");
    }

    #[test]
    fn delayed_successor_cannot_overtake_dropped_predecessor() {
        // Regression: a dropped message followed by a delayed one in the
        // same flow. The delay expiring must not release the successor
        // ahead of the still-dropped predecessor, and the faulted
        // successor must not silently flush the predecessor either.
        let plan = FaultPlan {
            drops: vec![MsgFault {
                src: 0,
                dst: 1,
                nth: 0,
            }],
            delays: vec![MsgDelay {
                src: 0,
                dst: 1,
                nth: 1,
                hold: 1,
            }],
            ..FaultPlan::default()
        };
        let got = World::run_with_spares(2, 0, faulty(plan, 2), |mut c| {
            if c.rank() == 0 {
                c.send(1, 3, vec![1.0]);
                c.send(1, 3, vec![2.0]);
                // Unrelated flow traffic ticks the delay countdown.
                c.send(1, 9, vec![0.0]);
                0.0
            } else {
                let a = c.recv_policied(0, 3).expect("dropped predecessor");
                let b = c.recv_policied(0, 3).expect("delayed successor");
                let _ = c.recv_policied(0, 9).unwrap();
                assert!(
                    c.retransmits() >= 1,
                    "the drop must go through the retry path, saw {}",
                    c.retransmits()
                );
                a[0] * 10.0 + b[0]
            }
        });
        assert_eq!(got[1], 12.0, "flow order must survive drop + delay");
    }

    #[test]
    fn delayed_message_is_reordered_across_flows() {
        // Tag 1 is held for one delivery, so tag 2 (sent later) is
        // receivable first without buffering... but tag-matched recv makes
        // order transparent; assert both still arrive correctly.
        let plan = FaultPlan {
            delays: vec![MsgDelay {
                src: 0,
                dst: 1,
                nth: 0,
                hold: 1,
            }],
            ..FaultPlan::default()
        };
        let got = World::run_with_spares(2, 0, faulty(plan, 2), |mut c| {
            if c.rank() == 0 {
                c.send(1, 1, vec![1.0]);
                c.send(1, 2, vec![2.0]);
                0.0
            } else {
                let a = c.recv_policied(0, 1).unwrap();
                let b = c.recv_policied(0, 2).unwrap();
                a[0] * 10.0 + b[0]
            }
        });
        assert_eq!(got[1], 12.0);
    }

    #[test]
    fn dead_peer_is_detected_not_hung() {
        let ctx = faulty(FaultPlan::default(), 2);
        let board_ctx = Arc::clone(&ctx);
        let got = World::run_with_spares(2, 0, ctx, move |mut c| {
            if c.rank() == 1 {
                board_ctx.board.mark_dead(1);
                // Dead rank sends nothing and returns.
                return 0;
            }
            match c.recv_policied(1, 9) {
                Err(CommFault::PeerDead { rank: 1 }) => 1,
                other => panic!("expected PeerDead, got {other:?}"),
            }
        });
        assert_eq!(got[0], 1);
    }

    #[test]
    fn silent_alive_peer_times_out_after_retries() {
        let ctx = faulty(FaultPlan::default(), 2);
        let got = World::run_with_spares(2, 0, ctx, |mut c| {
            if c.rank() == 1 {
                // Alive but never sends.
                c.barrier();
                return 0;
            }
            let r = match c.recv_policied(1, 9) {
                Err(CommFault::Timeout { source: 1, tag: 9 }) => 1,
                other => panic!("expected Timeout, got {other:?}"),
            };
            c.barrier();
            r
        });
        assert_eq!(got[0], 1);
    }

    #[test]
    fn recovery_request_unblocks_policied_receivers() {
        let ctx = faulty(FaultPlan::default(), 3);
        let req_ctx = Arc::clone(&ctx);
        let got = World::run_with_spares(3, 0, ctx, move |mut c| {
            if c.rank() == 2 {
                req_ctx.board.request_recovery();
                return 1;
            }
            // Ranks 0 and 1 block on each other; the alarm frees them.
            match c.recv_policied(1 - c.rank(), 5) {
                Err(CommFault::RecoveryRequested) => 1,
                other => panic!("expected RecoveryRequested, got {other:?}"),
            }
        });
        assert_eq!(got, vec![1, 1, 1]);
    }

    #[test]
    fn stale_generation_messages_are_discarded() {
        let ctx = faulty(FaultPlan::default(), 2);
        let got = World::run_with_spares(2, 0, ctx, |mut c| {
            if c.rank() == 0 {
                // Send in generation 0, then recover to generation 1 and
                // send the real value.
                c.send(1, 7, vec![-1.0]);
                c.barrier();
                c.finish_recovery(1);
                c.send(1, 7, vec![99.0]);
                0.0
            } else {
                c.barrier();
                c.finish_recovery(1);
                // The stale gen-0 message must be skipped.
                c.recv(0, 7)[0]
            }
        });
        assert_eq!(got[1], 99.0);
    }

    #[test]
    fn shrunk_roster_translates_logical_ranks() {
        // 3 ranks; rank 1 "leaves": ranks 0 and 2 adopt the shrunk
        // roster [0, 2] and keep exchanging under logical ids 0 and 1,
        // with the translation to physical mailboxes hidden inside Comm.
        let got = World::run(3, |mut c| {
            if c.phys_rank() == 1 {
                return -1.0;
            }
            c.adopt_roster(vec![0, 2]);
            assert_eq!(c.size(), 2);
            let me = c.rank();
            let peer = 1 - me;
            let r = c.sendrecv(peer, 3, vec![me as f64], peer, 3);
            r[0]
        });
        assert_eq!(got, vec![1.0, -1.0, 0.0]);
    }

    #[test]
    fn spare_world_runs_actives_and_releases_spares() {
        use crate::fault::{FaultCtx, SpareWake};
        let ctx = Arc::new(FaultCtx::new_with_spares(FaultPlan::none(), 2, 1));
        let bctx = Arc::clone(&ctx);
        let got = World::run_with_spares(2, 1, ctx, move |mut c| {
            if c.is_spare() {
                assert_eq!(c.phys_rank(), 2);
                return match bctx.board.spare_wait(c.phys_rank()) {
                    SpareWake::Shutdown => -1.0,
                    SpareWake::Promote { .. } => panic!("no deaths scheduled"),
                };
            }
            assert_eq!(c.size(), 2, "spares sit outside the communicator");
            let s = c.allreduce(1.0, |a, b| a + b);
            bctx.board.shutdown();
            s
        });
        assert_eq!(got, vec![2.0, 2.0, -1.0]);
    }
}
