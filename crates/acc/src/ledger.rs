//! The profiling ledger: what an OpenACC profiler would have recorded.

use std::collections::HashMap;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use std::sync::Mutex;

use crate::cost::{KernelClass, KernelCost};

/// Accumulated statistics for one kernel label.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KernelStats {
    pub label: String,
    pub class: Option<KernelClass>,
    /// Number of launches.
    pub launches: u64,
    /// Total collapsed-loop iterations across launches.
    pub items: u64,
    /// Total declared FLOPs.
    pub flops: f64,
    /// Total declared bytes read.
    pub bytes_read: f64,
    /// Total declared bytes written.
    pub bytes_written: f64,
    /// Total host wall time spent in the kernel bodies.
    pub wall: Duration,
}

impl KernelStats {
    /// Arithmetic intensity in FLOP/byte.
    pub fn arithmetic_intensity(&self) -> f64 {
        self.flops / (self.bytes_read + self.bytes_written)
    }
}

/// Kind of fault-tolerance event recorded by the resilient run driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ResilienceEventKind {
    /// A checkpoint wave committed by all live ranks.
    Checkpoint,
    /// A rank-failure (or suspected failure) detected on the exchange path.
    FaultDetected,
    /// All ranks rolled back to the last committed checkpoint wave.
    Rollback,
    /// Steps re-executed after a rollback, up to the pre-fault step.
    Replay,
    /// The numerical-health watchdog flagged a nonphysical cell.
    HealthFault,
    /// A faulted step was rejected and retried from the saved state.
    Retry,
    /// The recovery ladder engaged a more dissipative policy rung.
    Degrade,
    /// Clean steps elapsed and the default policy was restored.
    Restore,
    /// Diagnostic crash-dump checkpoint written on unrecoverable abort.
    CrashDump,
    /// Survivors reconfigured the communicator to the smaller rank count
    /// after a permanent rank loss (`FailurePolicy::Shrink`).
    Shrink,
    /// A committed checkpoint wave was redistributed cross-shard onto a
    /// reconfigured decomposition.
    Redistribute,
    /// A hot spare was promoted into a permanently dead rank's slot
    /// (`FailurePolicy::Spare`).
    PromoteSpare,
}

impl ResilienceEventKind {
    pub fn name(&self) -> &'static str {
        match self {
            ResilienceEventKind::Checkpoint => "checkpoint",
            ResilienceEventKind::FaultDetected => "fault_detected",
            ResilienceEventKind::Rollback => "rollback",
            ResilienceEventKind::Replay => "replay",
            ResilienceEventKind::HealthFault => "health_fault",
            ResilienceEventKind::Retry => "retry",
            ResilienceEventKind::Degrade => "degrade",
            ResilienceEventKind::Restore => "restore",
            ResilienceEventKind::CrashDump => "crash_dump",
            ResilienceEventKind::Shrink => "shrink",
            ResilienceEventKind::Redistribute => "redistribute",
            ResilienceEventKind::PromoteSpare => "promote_spare",
        }
    }
}

/// One fault-tolerance event: what happened, where, and how long the
/// handling took (detection latency, rollback time, replayed-step time).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResilienceEvent {
    pub kind: ResilienceEventKind,
    /// Rank that observed / drove the event.
    pub rank: usize,
    /// Solver step at which the event happened.
    pub step: u64,
    /// Checkpoint wave involved (committed, or rolled back to).
    pub wave: u64,
    /// Wall time attributed to the event.
    pub wall: Duration,
    /// Free-form context (e.g. which peer was declared dead).
    pub detail: String,
}

/// Thread-safe accumulation of kernel launches and fault-tolerance events.
///
/// This is the substitute for `nsys`/`rocprof` output: every number the
/// performance model needs (per-kernel FLOPs, bytes, iteration counts)
/// accumulates here while the *real* solver runs.
#[derive(Debug, Default)]
pub struct Ledger {
    inner: Mutex<LedgerInner>,
}

#[derive(Debug, Default)]
struct LedgerInner {
    kernels: HashMap<&'static str, KernelStats>,
    events: Vec<ResilienceEvent>,
}

impl Ledger {
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Record one kernel launch.
    pub fn record_launch(&self, label: &'static str, cost: KernelCost, items: u64, wall: Duration) {
        let mut inner = self.inner.lock().unwrap();
        let e = inner.kernels.entry(label).or_insert_with(|| KernelStats {
            label: label.to_string(),
            class: Some(cost.class),
            ..Default::default()
        });
        e.launches += 1;
        e.items += items;
        e.flops += cost.flops_per_item * items as f64;
        e.bytes_read += cost.bytes_read_per_item * items as f64;
        e.bytes_written += cost.bytes_written_per_item * items as f64;
        e.wall += wall;
    }

    /// Snapshot of every kernel's statistics, sorted by descending wall
    /// time (the order a profile summary lists them in).
    pub fn kernel_stats(&self) -> Vec<KernelStats> {
        let inner = self.inner.lock().unwrap();
        let mut v: Vec<_> = inner.kernels.values().cloned().collect();
        v.sort_by_key(|s| std::cmp::Reverse(s.wall));
        v
    }

    /// Statistics for a single label, if it has launched.
    pub fn kernel(&self, label: &str) -> Option<KernelStats> {
        self.inner.lock().unwrap().kernels.get(label).cloned()
    }

    /// Totals aggregated by kernel class.
    pub fn by_class(&self) -> HashMap<KernelClass, KernelStats> {
        let inner = self.inner.lock().unwrap();
        let mut out: HashMap<KernelClass, KernelStats> = HashMap::new();
        for s in inner.kernels.values() {
            let class = s.class.unwrap_or(KernelClass::Other);
            let e = out.entry(class).or_insert_with(|| KernelStats {
                label: class.name().to_string(),
                class: Some(class),
                ..Default::default()
            });
            e.launches += s.launches;
            e.items += s.items;
            e.flops += s.flops;
            e.bytes_read += s.bytes_read;
            e.bytes_written += s.bytes_written;
            e.wall += s.wall;
        }
        out
    }

    /// Total wall time across all kernels.
    pub fn total_wall(&self) -> Duration {
        self.inner
            .lock()
            .unwrap()
            .kernels
            .values()
            .map(|s| s.wall)
            .sum()
    }

    /// Record a fault-tolerance event (checkpoint commit, fault
    /// detection, rollback, replay).
    pub fn record_event(&self, event: ResilienceEvent) {
        self.inner.lock().unwrap().events.push(event);
    }

    /// All recorded fault-tolerance events, in recording order.
    pub fn events(&self) -> Vec<ResilienceEvent> {
        self.inner.lock().unwrap().events.clone()
    }

    /// Events of one kind, in recording order.
    pub fn events_of(&self, kind: ResilienceEventKind) -> Vec<ResilienceEvent> {
        self.inner
            .lock()
            .unwrap()
            .events
            .iter()
            .filter(|e| e.kind == kind)
            .cloned()
            .collect()
    }

    /// Forget everything (e.g. to exclude warm-up steps from a profile).
    pub fn reset(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.kernels.clear();
        inner.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost() -> KernelCost {
        KernelCost::new(KernelClass::Weno, 100.0, 40.0, 8.0)
    }

    #[test]
    fn launches_accumulate() {
        let l = Ledger::new();
        l.record_launch("k", cost(), 10, Duration::from_millis(1));
        l.record_launch("k", cost(), 20, Duration::from_millis(2));
        let s = l.kernel("k").unwrap();
        assert_eq!(s.launches, 2);
        assert_eq!(s.items, 30);
        assert!((s.flops - 3000.0).abs() < 1e-9);
        assert_eq!(s.wall, Duration::from_millis(3));
    }

    #[test]
    fn arithmetic_intensity_matches_declared_cost() {
        let l = Ledger::new();
        l.record_launch("k", cost(), 7, Duration::from_micros(5));
        let s = l.kernel("k").unwrap();
        assert!((s.arithmetic_intensity() - cost().arithmetic_intensity()).abs() < 1e-12);
    }

    #[test]
    fn by_class_merges_labels() {
        let l = Ledger::new();
        l.record_launch("weno_x", cost(), 5, Duration::from_millis(1));
        l.record_launch("weno_y", cost(), 5, Duration::from_millis(1));
        let by = l.by_class();
        assert_eq!(by[&KernelClass::Weno].items, 10);
        assert_eq!(by[&KernelClass::Weno].launches, 2);
    }

    #[test]
    fn stats_sorted_by_wall_time() {
        let l = Ledger::new();
        l.record_launch("small", cost(), 1, Duration::from_millis(1));
        l.record_launch("big", cost(), 1, Duration::from_millis(10));
        let v = l.kernel_stats();
        assert_eq!(v[0].label, "big");
    }

    #[test]
    fn reset_clears_everything() {
        let l = Ledger::new();
        l.record_launch("k", cost(), 1, Duration::from_millis(1));
        l.record_event(ResilienceEvent {
            kind: ResilienceEventKind::Checkpoint,
            rank: 0,
            step: 1,
            wave: 0,
            wall: Duration::ZERO,
            detail: String::new(),
        });
        l.reset();
        assert!(l.kernel("k").is_none());
        assert!(l.events().is_empty());
    }

    #[test]
    fn events_filter_by_kind_and_keep_order() {
        let l = Ledger::new();
        for (i, kind) in [
            ResilienceEventKind::FaultDetected,
            ResilienceEventKind::Rollback,
            ResilienceEventKind::Replay,
            ResilienceEventKind::Rollback,
        ]
        .into_iter()
        .enumerate()
        {
            l.record_event(ResilienceEvent {
                kind,
                rank: i,
                step: i as u64,
                wave: 0,
                wall: Duration::from_millis(i as u64),
                detail: format!("e{i}"),
            });
        }
        assert_eq!(l.events().len(), 4);
        let rollbacks = l.events_of(ResilienceEventKind::Rollback);
        assert_eq!(rollbacks.len(), 2);
        assert_eq!(rollbacks[0].rank, 1);
        assert_eq!(rollbacks[1].rank, 3);
    }
}
