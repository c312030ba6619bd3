//! The tracer core: one epoch clock, one ring-buffered event stream per
//! rank, RAII span guards.
//!
//! Each simulated rank runs on its own thread and owns exactly one
//! [`TraceHandle`], so the handle's span stack is effectively the
//! thread-local stack of the rank — a `Mutex` guards it only so handles can
//! be shared between the rank's `Context` and `Comm` without unsafe code,
//! and that lock is uncontended on the hot path.
//!
//! Overhead discipline: instrumented call sites hold an
//! `Option<Arc<TraceHandle>>` and the disabled path is a single `None`
//! check (measured by the repo benchmark's `trace.overhead_frac`). The
//! enabled path appends one fixed-size [`Event`] to a bounded `VecDeque`;
//! when the ring is full the oldest event is dropped and counted, never
//! blocking the solver.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::event::{Category, CommOp, Event, EventKind, LedgerRow};

/// Default per-rank ring capacity (events). At ~100 events per solver step
/// this holds runs of ~10k steps before the oldest events rotate out.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// Everything a traced run captured for one rank, in emission order.
#[derive(Debug, Clone)]
pub struct RankTrace {
    pub rank: usize,
    pub events: Vec<Event>,
    /// Events lost to ring-buffer rotation (0 means the stream is complete
    /// and per-label aggregation can reconcile with the ledger exactly).
    pub dropped: u64,
    /// The rank's analytic kernel-ledger snapshot, attached at run end.
    pub ledger: Vec<LedgerRow>,
}

/// Factory and registry for per-rank trace handles, sharing one epoch so
/// all rank timelines live on a common clock.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    capacity: usize,
    ranks: Mutex<BTreeMap<usize, Arc<TraceHandle>>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer::with_capacity(DEFAULT_CAPACITY)
    }

    /// A tracer whose per-rank rings hold `capacity` events each.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            capacity: capacity.max(16),
            ranks: Mutex::new(BTreeMap::new()),
        }
    }

    /// Get (or create) the handle for `rank`.
    pub fn handle(&self, rank: usize) -> Arc<TraceHandle> {
        let mut ranks = self.ranks.lock().unwrap();
        Arc::clone(ranks.entry(rank).or_insert_with(|| {
            Arc::new(TraceHandle {
                rank,
                epoch: self.epoch,
                capacity: self.capacity,
                inner: Mutex::new(HandleInner::default()),
            })
        }))
    }

    /// Snapshot every rank's captured stream, sorted by rank.
    pub fn snapshot(&self) -> Vec<RankTrace> {
        let ranks = self.ranks.lock().unwrap();
        ranks.values().map(|h| h.snapshot()).collect()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

#[derive(Debug, Default)]
struct HandleInner {
    events: VecDeque<Event>,
    dropped: u64,
    /// Open-span stack; `end` pops and checks LIFO discipline.
    stack: Vec<&'static str>,
    next_seq: u64,
    ledger: Vec<LedgerRow>,
}

/// One rank's recording endpoint. Cheap to clone via `Arc`; every method
/// takes `&self`.
#[derive(Debug)]
pub struct TraceHandle {
    rank: usize,
    epoch: Instant,
    capacity: usize,
    inner: Mutex<HandleInner>,
}

impl TraceHandle {
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Nanoseconds since the tracer epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.checked_duration_since(self.epoch)
            .unwrap_or(Duration::ZERO)
            .as_nanos() as u64
    }

    fn push(&self, inner: &mut HandleInner, ts_ns: u64, dur_ns: u64, kind: EventKind) {
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.events.push_back(Event {
            seq,
            ts_ns,
            dur_ns,
            kind,
        });
    }

    /// Open a span. Prefer [`TraceHandle::span`] for RAII pairing.
    pub fn begin(&self, name: &'static str, cat: Category) {
        self.begin_bytes(name, cat, 0)
    }

    /// Open a span carrying a payload size (collectives, I/O waves).
    pub fn begin_bytes(&self, name: &'static str, cat: Category, bytes: u64) {
        let ts = self.now_ns();
        let mut inner = self.inner.lock().unwrap();
        inner.stack.push(name);
        self.push(&mut inner, ts, 0, EventKind::Begin { name, cat, bytes });
    }

    /// Close the innermost span, which must be `name` (LIFO discipline —
    /// violations indicate an instrumentation bug and panic in debug
    /// builds, while release builds record the event and continue).
    pub fn end(&self, name: &'static str) {
        let ts = self.now_ns();
        let mut inner = self.inner.lock().unwrap();
        let top = inner.stack.pop();
        debug_assert_eq!(top, Some(name), "unbalanced trace span");
        self.push(&mut inner, ts, 0, EventKind::End { name });
    }

    /// RAII span: closes on drop.
    #[must_use = "the span closes when the guard drops"]
    pub fn span(self: &Arc<Self>, name: &'static str, cat: Category) -> SpanGuard {
        self.begin(name, cat);
        SpanGuard {
            handle: Arc::clone(self),
            name,
        }
    }

    /// RAII span carrying a payload size.
    #[must_use = "the span closes when the guard drops"]
    pub fn span_bytes(
        self: &Arc<Self>,
        name: &'static str,
        cat: Category,
        bytes: u64,
    ) -> SpanGuard {
        self.begin_bytes(name, cat, bytes);
        SpanGuard {
            handle: Arc::clone(self),
            name,
        }
    }

    /// Record a kernel launch as a complete event. The float arguments are
    /// the per-launch products the ledger accumulates (`*_per_item * items`),
    /// passed through verbatim so trace aggregation reconciles bitwise.
    #[allow(clippy::too_many_arguments)]
    pub fn kernel(
        &self,
        label: &'static str,
        items: u64,
        flops: f64,
        bytes_read: f64,
        bytes_written: f64,
        start: Instant,
        wall: Duration,
    ) {
        self.kernel_vec(
            label,
            items,
            1,
            1,
            flops,
            bytes_read,
            bytes_written,
            start,
            wall,
        );
    }

    /// [`TraceHandle::kernel`] with the gang count the launch actually used
    /// (1 = serial) and the lane width it executed at (1 = scalar). Gangs
    /// and lanes annotate the event; the accounted totals stay whole-launch
    /// per-element values.
    #[allow(clippy::too_many_arguments)]
    pub fn kernel_vec(
        &self,
        label: &'static str,
        items: u64,
        gangs: u32,
        lanes: u32,
        flops: f64,
        bytes_read: f64,
        bytes_written: f64,
        start: Instant,
        wall: Duration,
    ) {
        let ts = self.ns_since_epoch(start);
        let mut inner = self.inner.lock().unwrap();
        self.push(
            &mut inner,
            ts,
            wall.as_nanos() as u64,
            EventKind::Kernel {
                label,
                items,
                gangs,
                lanes,
                flops,
                bytes_read,
                bytes_written,
            },
        );
    }

    /// Record a leaf point-to-point operation started at `start` and
    /// finishing now (duration = blocked-wait plus copy time).
    pub fn comm(&self, op: CommOp, peer: usize, bytes: u64, start: Instant) {
        let ts = self.ns_since_epoch(start);
        let dur = start.elapsed().as_nanos() as u64;
        let mut inner = self.inner.lock().unwrap();
        self.push(&mut inner, ts, dur, EventKind::Comm { op, peer, bytes });
    }

    /// Record a leaf file-I/O operation started at `start`.
    pub fn io(&self, name: &'static str, bytes: u64, start: Instant) {
        let ts = self.ns_since_epoch(start);
        let dur = start.elapsed().as_nanos() as u64;
        let mut inner = self.inner.lock().unwrap();
        self.push(&mut inner, ts, dur, EventKind::Io { name, bytes });
    }

    /// Sample a scalar counter (rendered as a counter track).
    pub fn counter(&self, name: &'static str, value: f64) {
        let ts = self.now_ns();
        let mut inner = self.inner.lock().unwrap();
        self.push(&mut inner, ts, 0, EventKind::Counter { name, value });
    }

    /// Record a point-in-time marker.
    pub fn instant(&self, name: &'static str, cat: Category) {
        let ts = self.now_ns();
        let mut inner = self.inner.lock().unwrap();
        self.push(&mut inner, ts, 0, EventKind::Instant { name, cat });
    }

    /// Attach the rank's analytic ledger snapshot (replacing any previous
    /// attachment) so exports can cross-check without the live `Ledger`.
    pub fn attach_ledger(&self, rows: Vec<LedgerRow>) {
        self.inner.lock().unwrap().ledger = rows;
    }

    /// Events lost to ring rotation so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Current open-span depth (0 when the timeline is quiescent).
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap().stack.len()
    }

    /// Copy out everything captured so far.
    pub fn snapshot(&self) -> RankTrace {
        let inner = self.inner.lock().unwrap();
        RankTrace {
            rank: self.rank,
            events: inner.events.iter().cloned().collect(),
            dropped: inner.dropped,
            ledger: inner.ledger.clone(),
        }
    }
}

/// Closes its span when dropped.
pub struct SpanGuard {
    handle: Arc<TraceHandle>,
    name: &'static str,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.handle.end(self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_balance() {
        let tracer = Tracer::new();
        let h = tracer.handle(0);
        {
            let _outer = h.span("step", Category::Phase);
            {
                let _inner = h.span("rk_stage", Category::Phase);
                assert_eq!(h.depth(), 2);
            }
            assert_eq!(h.depth(), 1);
        }
        assert_eq!(h.depth(), 0);
        let t = h.snapshot();
        assert_eq!(t.events.len(), 4);
        assert!(matches!(
            t.events[0].kind,
            EventKind::Begin { name: "step", .. }
        ));
        assert!(matches!(t.events[3].kind, EventKind::End { name: "step" }));
    }

    #[test]
    fn seq_ids_are_deterministic_emission_order() {
        let tracer = Tracer::new();
        let h = tracer.handle(3);
        h.instant("a", Category::Recovery);
        h.counter("dt", 0.5);
        h.instant("b", Category::Recovery);
        let t = h.snapshot();
        let seqs: Vec<u64> = t.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(t.rank, 3);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let tracer = Tracer::with_capacity(16);
        let h = tracer.handle(0);
        for _ in 0..20 {
            h.instant("x", Category::Phase);
        }
        let t = h.snapshot();
        assert_eq!(t.events.len(), 16);
        assert_eq!(t.dropped, 4);
        // Oldest rotated out: first surviving seq is 4.
        assert_eq!(t.events[0].seq, 4);
    }

    #[test]
    fn handles_are_shared_per_rank() {
        let tracer = Tracer::new();
        let a = tracer.handle(1);
        let b = tracer.handle(1);
        a.instant("from_a", Category::Phase);
        assert_eq!(b.snapshot().events.len(), 1);
        assert_eq!(tracer.snapshot().len(), 1);
    }

    #[test]
    fn timestamps_are_monotone_in_emission_order() {
        let tracer = Tracer::new();
        let h = tracer.handle(0);
        for _ in 0..100 {
            let _s = h.span("s", Category::Phase);
            h.instant("i", Category::Phase);
        }
        let t = h.snapshot();
        for w in t.events.windows(2) {
            assert!(w[0].ts_ns <= w[1].ts_ns);
        }
    }

    #[test]
    fn kernel_event_preserves_exact_products() {
        let tracer = Tracer::new();
        let h = tracer.handle(0);
        let flops = 0.1 * 12345.0_f64;
        h.kernel(
            "k",
            12345,
            flops,
            1.5,
            2.5,
            Instant::now(),
            Duration::from_micros(3),
        );
        let t = h.snapshot();
        match t.events[0].kind {
            EventKind::Kernel {
                label,
                items,
                flops: f,
                ..
            } => {
                assert_eq!(label, "k");
                assert_eq!(items, 12345);
                assert_eq!(f.to_bits(), flops.to_bits());
            }
            _ => panic!("expected kernel event"),
        }
    }
}
