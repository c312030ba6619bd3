//! Kernel execution — the `!$acc parallel loop` substitute.
//!
//! One fork/join primitive (`Context::fork_join`) splits a launch's units
//! over the fixed [`Context::gang_blocks`] partition and runs one scoped
//! thread per gang; every parallel entry point is a few lines over it:
//!
//! * [`Context::launch_par`] — units = items, `Fn(usize) + Sync` body;
//! * [`Context::launch_vec`] / [`Context::launch_max_vec`] — units = rows
//!   of a `rows × row_len` space, lane-tiled within each row;
//! * [`Context::launch_gangs`] — units = items, the body sees its whole
//!   gang range and returns a per-gang value;
//! * [`Context::gang_vec_scope`] — lane-dispatched gang bodies with
//!   per-gang scratch, recorded by the caller;
//! * [`Context::gang_vec_units`] — the same with per-unit state, each gang
//!   handed the states of its own range.
//!
//! [`Context::launch`] is the serial `FnMut` loop, and
//! [`Context::record`] is the one way a launch reaches the ledger and the
//! attached trace.

use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mfc_trace::{Category, LedgerRow, SpanGuard, TraceHandle};

use crate::config::LaunchConfig;
use crate::cost::KernelCost;
use crate::ledger::Ledger;
use crate::shared::{AddView, ParSlice};
use crate::vector::{validate_width, Lane, LaneGangBody, LaneKernel, LaneMaxKernel, DEFAULT_WIDTH};
use crate::with_lane_width;

/// Below this many work items a parallel launch falls back to the serial
/// loop: the fork/join overhead of scoped threads would dominate.
pub const PAR_MIN_ITEMS: usize = 1024;

/// An execution context: one "device" plus its profiling ledger.
///
/// With more than one worker thread, the parallel entry points split the
/// collapsed iteration space into contiguous blocks, one per worker
/// (gangs ≙ blocks, vector lanes ≙ the iterations inside a block); with a
/// single worker every loop runs serially — the paper's "compiled without
/// OpenACC" CPU path.
#[derive(Clone)]
pub struct Context {
    ledger: Arc<Ledger>,
    workers: usize,
    /// Lane width of the vector entry points ([`Context::launch_vec`] and
    /// friends): 1 or 8, validated. Results are bitwise identical at both
    /// widths by the [`Lane`] contract.
    vector_width: usize,
    /// Measured-profile recording endpoint; `None` (the default) keeps
    /// every launch on an untraced fast path — one branch per launch.
    tracer: Option<Arc<TraceHandle>>,
}

impl Context {
    /// A context using every available worker thread.
    pub fn new() -> Self {
        Context::with_workers(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// A strictly serial context (reference results, bitwise determinism).
    pub fn serial() -> Self {
        Context::with_workers(1)
    }

    /// A context with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        Context {
            ledger: Arc::new(Ledger::new()),
            workers: workers.max(1),
            vector_width: DEFAULT_WIDTH,
            tracer: None,
        }
    }

    /// Builder form: set the lane width of the vector entry points.
    ///
    /// # Panics
    /// On a width other than 1 or 8; callers taking user input validate
    /// with [`crate::vector::validate_width`] first and surface a typed
    /// configuration error instead.
    pub fn with_vector_width(mut self, width: usize) -> Self {
        if let Err(e) = validate_width(width) {
            panic!("{e}");
        }
        self.vector_width = width;
        self
    }

    /// Lane width of the vector entry points.
    pub fn vector_width(&self) -> usize {
        self.vector_width
    }

    /// The profiling ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Share the ledger (e.g. across solver sub-components).
    pub fn ledger_arc(&self) -> Arc<Ledger> {
        Arc::clone(&self.ledger)
    }

    /// Number of worker threads the context schedules onto.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Elastically change the worker count (clamped to ≥ 1).
    ///
    /// Gang partitioning is a pure function of the count and results are
    /// bitwise identical at every count, so a scheduler may resize a live
    /// context between launches (e.g. at solver step boundaries) without
    /// perturbing numerics. Re-emits the `threads` counter when a tracer
    /// is attached so the timeline records the resize.
    pub fn set_workers(&mut self, workers: usize) {
        let workers = workers.max(1);
        if workers == self.workers {
            return;
        }
        self.workers = workers;
        if let Some(t) = &self.tracer {
            t.counter("threads", self.workers as f64);
        }
    }

    /// Attach a per-rank trace handle: every subsequent launch also emits
    /// a kernel event carrying the ledger's per-launch byte/FLOP products.
    /// A `threads` counter is emitted immediately so `mfc-trace-report`
    /// shows how many workers the context actually schedules onto.
    pub fn set_tracer(&mut self, handle: Arc<TraceHandle>) {
        handle.counter("threads", self.workers as f64);
        handle.counter("vector_width", self.vector_width as f64);
        self.tracer = Some(handle);
    }

    /// Builder form of [`Context::set_tracer`].
    pub fn with_tracer(mut self, handle: Arc<TraceHandle>) -> Self {
        self.set_tracer(handle);
        self
    }

    /// The attached trace handle, if tracing is enabled.
    pub fn tracer(&self) -> Option<&Arc<TraceHandle>> {
        self.tracer.as_ref()
    }

    /// Open a phase span on the attached trace (no-op when untraced).
    pub fn span(&self, name: &'static str, cat: Category) -> Option<SpanGuard> {
        self.tracer.as_ref().map(|t| t.span(name, cat))
    }

    /// Record a point-in-time marker on the attached trace.
    pub fn trace_instant(&self, name: &'static str, cat: Category) {
        if let Some(t) = &self.tracer {
            t.instant(name, cat);
        }
    }

    /// Sample a scalar counter on the attached trace.
    pub fn trace_counter(&self, name: &'static str, value: f64) {
        if let Some(t) = &self.tracer {
            t.counter(name, value);
        }
    }

    /// Attach this context's ledger snapshot to the trace so exporters can
    /// cross-check traced aggregates against the analytic totals. Call at
    /// the end of a traced run.
    pub fn flush_ledger_to_trace(&self) {
        if let Some(t) = &self.tracer {
            let rows = self
                .ledger
                .kernel_stats()
                .into_iter()
                .map(|s| LedgerRow {
                    label: s.label,
                    launches: s.launches,
                    items: s.items,
                    flops: s.flops,
                    bytes_read: s.bytes_read,
                    bytes_written: s.bytes_written,
                    wall_ns: s.wall.as_nanos() as u64,
                })
                .collect();
            t.attach_ledger(rows);
        }
    }

    /// Record one launch: a ledger row plus, when a handle is attached,
    /// the traced kernel event. Every launch entry point ends here, and so
    /// do bodies that ran outside them (the sweep stages, which pass their
    /// own `start` and — pencil-major — summed `wall`). `gangs` and
    /// `lanes` only annotate the event — the ledger keeps ONE row per
    /// launch and FLOP/byte counts are per item — and the float products
    /// passed to the trace are exactly the terms
    /// `record_launch` accumulates, so per-label sums of the event stream
    /// reconcile with the ledger bitwise at every gang count and width.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        label: &'static str,
        cost: KernelCost,
        items: u64,
        gangs: usize,
        lanes: usize,
        start: Instant,
        wall: Duration,
    ) {
        self.ledger.record_launch(label, cost, items, wall);
        if let Some(t) = &self.tracer {
            t.kernel_vec(
                label,
                items,
                gangs as u32,
                lanes as u32,
                cost.flops_per_item * items as f64,
                cost.bytes_read_per_item * items as f64,
                cost.bytes_written_per_item * items as f64,
                start,
                wall,
            );
        }
    }

    /// Partition `0..n` into up to `workers` contiguous gang blocks (the
    /// fixed gang→index mapping every parallel entry point uses): `n %
    /// gangs` leading blocks carry one extra item, so the decomposition is
    /// a pure function of `(n, workers)` — never of scheduling.
    pub fn gang_blocks(&self, n: usize) -> Vec<(usize, usize)> {
        let threads = self.workers.min(n.max(1));
        let base = n / threads;
        let extra = n % threads;
        let mut out = Vec::with_capacity(threads);
        let mut start = 0;
        for t in 0..threads {
            let len = base + usize::from(t < extra);
            out.push((start, start + len));
            start += len;
        }
        out
    }

    /// The one fork/join. Splits `0..units` by [`Context::gang_blocks`]
    /// and runs `body(gang, lo..hi, &mut state[gang])` on one scoped
    /// thread per gang, handing each gang's return value to `each` **in
    /// gang order** on the calling thread; returns the gang count. Runs as
    /// one gang on the calling thread — no allocation, no spawn — when the
    /// context has one worker, `units < 2`, or `work_items <
    /// PAR_MIN_ITEMS` (callers pass the true collapsed item count, which
    /// may exceed `units` by a large per-unit factor).
    ///
    /// The gang→range mapping is fixed and `each` folds in gang order, so
    /// any reduction is bitwise-independent of scheduling. `state` must
    /// hold at least `workers` elements; gang `g` gets exclusive use of
    /// `state[g]`.
    fn fork_join<S, R>(
        &self,
        units: usize,
        work_items: u64,
        state: &mut [S],
        body: impl Fn(usize, Range<usize>, &mut S) -> R + Sync,
        mut each: impl FnMut(R),
    ) -> usize
    where
        S: Send,
        R: Send,
    {
        if self.one_gang(units, work_items) {
            each(body(0, 0..units, &mut state[0]));
            return 1;
        }
        let blocks = self.gang_blocks(units);
        assert!(
            state.len() >= blocks.len(),
            "fork_join: {} state blocks for {} gangs",
            state.len(),
            blocks.len()
        );
        let body = &body;
        std::thread::scope(|s| {
            let gangs: Vec<_> = blocks
                .iter()
                .zip(state.iter_mut())
                .enumerate()
                .map(|(g, (&(lo, hi), st))| s.spawn(move || body(g, lo..hi, st)))
                .collect();
            for gang in gangs {
                each(gang.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            }
        });
        blocks.len()
    }

    /// Whether [`Context::fork_join`] runs `units` as one gang on the
    /// calling thread.
    fn one_gang(&self, units: usize, work_items: u64) -> bool {
        self.workers == 1 || units < 2 || work_items < PAR_MIN_ITEMS as u64
    }

    /// Per-gang state of the entry points whose bodies carry none (a
    /// `Vec` of zero-sized values never allocates).
    fn stateless(&self) -> Vec<()> {
        vec![(); self.workers]
    }

    /// Launch a kernel over a collapsed iteration space of `n` items,
    /// running the body **sequentially on the calling thread** in index
    /// order, regardless of the worker count.
    ///
    /// This is the entry point for bodies that mutate captured state
    /// (`FnMut`), which cannot be split across threads. Use
    /// [`Context::launch_par`] for shared-read bodies (`Fn + Sync`) that
    /// should scale with `workers()`.
    pub fn launch<F>(&self, cfg: &LaunchConfig, cost: KernelCost, n: usize, mut body: F)
    where
        F: FnMut(usize),
    {
        let t0 = Instant::now();
        for i in 0..n {
            body(i);
        }
        self.record(cfg.label, cost, n as u64, 1, 1, t0, t0.elapsed());
    }

    /// Launch a side-effect kernel over `n` items, splitting the
    /// iteration space across the context's workers.
    ///
    /// The body observes iteration indices in an unspecified order (as on
    /// a device); it must not rely on sequencing between iterations, and
    /// any writes it performs must target disjoint locations per index
    /// (interior mutability is the body's responsibility). Small spaces
    /// and single-worker contexts run the serial in-order loop.
    pub fn launch_par<F>(&self, cfg: &LaunchConfig, cost: KernelCost, n: usize, body: F)
    where
        F: Fn(usize) + Sync,
    {
        let t0 = Instant::now();
        let gangs = self.fork_join(
            n,
            n as u64,
            &mut self.stateless(),
            |_, range, _| range.for_each(&body),
            |()| {},
        );
        self.record(cfg.label, cost, n as u64, gangs, 1, t0, t0.elapsed());
    }

    /// Launch a lane-vectorized kernel over a `rows × row_len` space —
    /// the `vector` half of `gang vector`: gangs split the rows across
    /// workers, and within each row the columns are tiled into full
    /// packets of [`Context::vector_width`] lanes plus a scalar remainder
    /// tail. Packets never cross a row boundary, so per-row unit-stride
    /// data (a WENO line, a face sweep line) supports in-bounds lane
    /// loads relative to the packet column.
    ///
    /// The kernel body is written once against [`Lane`] and monomorphized
    /// here per width; by the `Lane` contract the results are bitwise
    /// identical at both widths and every worker count. The traced event is
    /// annotated with the lane width (`lanes`); the ledger row is
    /// unchanged, so reconciliation stays exact.
    pub fn launch_vec<K: LaneKernel>(
        &self,
        cfg: &LaunchConfig,
        cost: KernelCost,
        rows: usize,
        row_len: usize,
        kernel: &K,
    ) {
        let t0 = Instant::now();
        let gangs = with_lane_width!(self.vector_width, L => self.fork_join(
            rows,
            (rows * row_len) as u64,
            &mut self.stateless(),
            |_, range, _| range.for_each(|row| vec_row::<L, K>(kernel, row, row_len)),
            |()| {},
        ));
        self.finish_vec(cfg, cost, rows, row_len, gangs, t0);
    }

    /// Lane-vectorized max reduction over a `rows × row_len` space (the
    /// CFL bound). Each packet's lanes are extracted and folded in
    /// ascending lane order, so the fold visits items in exactly the
    /// serial order within each gang; each gang returns its maximum and
    /// the maxima fold in gang order. Since `max` is associative and
    /// commutative this is bitwise identical to the scalar reduction at
    /// both widths and every worker count; an empty space gives `-inf`.
    pub fn launch_max_vec<K: LaneMaxKernel>(
        &self,
        cfg: &LaunchConfig,
        cost: KernelCost,
        rows: usize,
        row_len: usize,
        kernel: &K,
    ) -> f64 {
        let t0 = Instant::now();
        let mut result = f64::NEG_INFINITY;
        let gangs = with_lane_width!(self.vector_width, L => self.fork_join(
            rows,
            (rows * row_len) as u64,
            &mut self.stateless(),
            |_, range, _| {
                range.fold(f64::NEG_INFINITY, |m, row| {
                    max_vec_row::<L, K>(kernel, row, row_len, m)
                })
            },
            |m| result = result.max(m),
        ));
        self.finish_vec(cfg, cost, rows, row_len, gangs, t0);
        result
    }

    /// Record a `rows × row_len` vector launch.
    fn finish_vec(
        &self,
        cfg: &LaunchConfig,
        cost: KernelCost,
        rows: usize,
        row_len: usize,
        gangs: usize,
        t0: Instant,
    ) {
        let w = self.vector_width;
        let items = (rows * row_len) as u64;
        self.record(cfg.label, cost, items, gangs, w, t0, t0.elapsed());
    }

    /// Run a lane-dispatched gang body over `n` units: the body is written
    /// once against [`Lane`] (a [`LaneGangBody`]), runs at the context's
    /// vector width with exclusive use of `state[gang]` (the per-worker
    /// scratch blocks of the fused sweep), and handles its own packet/tail
    /// tiling inside each gang range. The launch's output buffers `outs`
    /// reach the body as [`AddView`]s: the buffers themselves when the
    /// launch runs as one gang on the calling thread, one shared
    /// [`ParSlice`] per buffer when it forks (each gang then adds only
    /// into the slots its units own). Per-gang return values reach `each`
    /// in gang order; returns the gang count. Recording is the caller's
    /// job ([`Context::record`]).
    pub fn gang_vec_scope<S, R, B, const N: usize>(
        &self,
        n: usize,
        work_items: u64,
        state: &mut [S],
        mut outs: [&mut [f64]; N],
        body: &B,
        mut each: impl FnMut(R),
    ) -> usize
    where
        S: Send,
        R: Send,
        B: LaneGangBody<S, R, N>,
    {
        with_lane_width!(self.vector_width, L => {
            if self.one_gang(n, work_items) {
                each(body.run::<L, _>(0, 0..n, &mut state[0], &mut outs));
                1
            } else {
                let views = outs.map(ParSlice::new);
                self.fork_join(
                    n,
                    work_items,
                    state,
                    |g, range, st| body.run::<L, _>(g, range, st, &mut { views }),
                    each,
                )
            }
        })
    }

    /// [`Context::gang_vec_scope`] over per-*unit* state: unit `u` owns
    /// `units[u]`, and each gang's body gets the states of its own range
    /// (`state[i]` belongs to unit `range.start + i`) — scratch that
    /// outlives one gang's pass, such as a stage-major sweep's pencil
    /// blocks, which every stage revisits under the same split.
    pub fn gang_vec_units<S, R, B, const N: usize>(
        &self,
        work_items: u64,
        units: &mut [S],
        outs: [&mut [f64]; N],
        body: &B,
        each: impl FnMut(R),
    ) -> usize
    where
        S: Send,
        R: Send,
        B: LaneGangBody<[S], R, N>,
    {
        let n = units.len();
        let blocks = if self.one_gang(n, work_items) {
            vec![(0, n)]
        } else {
            self.gang_blocks(n)
        };
        let mut rest = units;
        let mut chunks: Vec<&mut [S]> = blocks
            .iter()
            .map(|&(lo, hi)| {
                let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(hi - lo);
                rest = tail;
                chunk
            })
            .collect();
        self.gang_vec_scope(n, work_items, &mut chunks, outs, &Chunks(body), each)
    }

    /// Launch a gang-decomposed kernel over `n` items: the body sees its
    /// whole gang range, ONE ledger row (items = `n`) is recorded with the
    /// gang count annotated on the traced event, and the per-gang results
    /// come back in gang order for deterministic folding by the caller.
    pub fn launch_gangs<R, F>(
        &self,
        cfg: &LaunchConfig,
        cost: KernelCost,
        n: usize,
        body: F,
    ) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Range<usize>) -> R + Sync,
    {
        let t0 = Instant::now();
        let mut results = Vec::with_capacity(self.workers);
        let gangs = self.fork_join(
            n,
            n as u64,
            &mut self.stateless(),
            |g, range, _| body(g, range),
            |r| results.push(r),
        );
        self.record(cfg.label, cost, n as u64, gangs, 1, t0, t0.elapsed());
        results
    }
}

/// One row of a vector launch: full packets, then the scalar tail as
/// 1-wide (`f64`) packets. Item order within the row is strictly
/// ascending, so serial execution order is preserved exactly.
#[inline]
fn vec_row<L: Lane, K: LaneKernel>(kernel: &K, row: usize, row_len: usize) {
    let mut col = 0;
    while col + L::WIDTH <= row_len {
        kernel.packet::<L>(row, col);
        col += L::WIDTH;
    }
    while col < row_len {
        kernel.packet::<f64>(row, col);
        col += 1;
    }
}

/// One row of a vector max-reduction: lanes of each packet fold into the
/// accumulator in ascending lane order (= serial item order).
#[inline]
fn max_vec_row<L: Lane, K: LaneMaxKernel>(
    kernel: &K,
    row: usize,
    row_len: usize,
    mut acc: f64,
) -> f64 {
    let mut col = 0;
    while col + L::WIDTH <= row_len {
        let v = kernel.packet::<L>(row, col);
        for i in 0..L::WIDTH {
            acc = acc.max(v.lane(i));
        }
        col += L::WIDTH;
    }
    while col < row_len {
        acc = acc.max(kernel.packet::<f64>(row, col).lane(0));
        col += 1;
    }
    acc
}

impl Default for Context {
    fn default() -> Self {
        Context::new()
    }
}

/// A per-unit gang body run over its gang's chunk of unit states
/// ([`Context::gang_vec_units`]).
struct Chunks<'b, B>(&'b B);

impl<'c, S: 'c, R, B, const N: usize> LaneGangBody<&'c mut [S], R, N> for Chunks<'_, B>
where
    B: LaneGangBody<[S], R, N>,
{
    #[inline(always)]
    fn run<L: Lane, O: AddView>(
        &self,
        gang: usize,
        range: Range<usize>,
        state: &mut &'c mut [S],
        out: &mut [O; N],
    ) -> R {
        self.0.run::<L, O>(gang, range, state, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::KernelClass;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn cost() -> KernelCost {
        KernelCost::new(KernelClass::Other, 1.0, 8.0, 8.0)
    }

    #[test]
    fn launch_visits_every_index_once() {
        let ctx = Context::serial();
        let mut seen = vec![0u32; 100];
        ctx.launch(&LaunchConfig::tuned("t"), cost(), 100, |i| seen[i] += 1);
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn launch_records_ledger_entry() {
        let ctx = Context::serial();
        ctx.launch(&LaunchConfig::tuned("kern"), cost(), 42, |_| {});
        let s = ctx.ledger().kernel("kern").unwrap();
        assert_eq!(s.items, 42);
        assert_eq!(s.launches, 1);
    }

    #[test]
    fn launch_par_visits_every_index_once() {
        // Above the grain threshold so a multi-worker context really forks.
        let n = 4 * PAR_MIN_ITEMS;
        let ctx = Context::with_workers(4);
        let seen: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        ctx.launch_par(&LaunchConfig::tuned("p"), cost(), n, |i| {
            seen[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        assert_eq!(ctx.ledger().kernel("p").unwrap().items, n as u64);
    }

    #[test]
    fn traced_launches_reconcile_with_ledger_exactly() {
        let tracer = mfc_trace::Tracer::new();
        let mut ctx = Context::serial();
        ctx.set_tracer(tracer.handle(0));
        // Awkward item counts so the per-launch float products do not sum
        // exactly unless the trace carries the ledger's own terms.
        for items in [100usize, 37, 1013] {
            ctx.launch(&LaunchConfig::tuned("k"), cost(), items, |_| {});
        }
        ctx.launch_max_vec(&LaunchConfig::tuned("m"), cost(), 27, 19, &MaxBody);
        ctx.flush_ledger_to_trace();
        let json = mfc_trace::chrome::export_to_string(&tracer.snapshot());
        let parsed = mfc_trace::chrome::parse_str(&json).unwrap();
        assert!(mfc_trace::reconcile_trace(&parsed).is_ok());
    }

    #[test]
    fn untraced_context_emits_nothing() {
        let ctx = Context::serial();
        assert!(ctx.tracer().is_none());
        assert!(ctx.span("step", Category::Phase).is_none());
        ctx.trace_instant("x", Category::Phase);
        ctx.trace_counter("dt", 1.0);
        ctx.flush_ledger_to_trace();
    }

    #[test]
    fn gang_blocks_cover_space_with_remainders() {
        // n % threads != 0: leading blocks absorb the remainder, coverage
        // is exact and contiguous, and the partition depends only on
        // (n, workers).
        for workers in 1..=9 {
            let ctx = Context::with_workers(workers);
            for n in [1usize, 2, 7, 8, 9, 100, 1023, 1024, 1025] {
                let blocks = ctx.gang_blocks(n);
                assert!(blocks.len() <= workers);
                assert_eq!(blocks.len(), workers.min(n.max(1)));
                let mut next = 0;
                for &(lo, hi) in &blocks {
                    assert_eq!(lo, next, "gap at n={n} workers={workers}");
                    assert!(hi > lo || n == 0);
                    next = hi;
                }
                assert_eq!(next, n, "coverage at n={n} workers={workers}");
                // Balanced: block lengths differ by at most one item.
                let lens: Vec<usize> = blocks.iter().map(|&(lo, hi)| hi - lo).collect();
                let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(max - min <= 1, "imbalance at n={n} workers={workers}");
            }
        }
    }

    #[test]
    fn gang_scope_results_come_back_in_gang_order() {
        let ctx = Context::with_workers(4);
        let n = 4 * PAR_MIN_ITEMS + 7;
        let cfg = LaunchConfig::tuned("g");
        let results = ctx.launch_gangs(&cfg, cost(), n, |g, range| (g, range.start, range.end));
        assert_eq!(results.len(), 4);
        let mut next = 0;
        for (i, &(g, lo, hi)) in results.iter().enumerate() {
            assert_eq!(g, i);
            assert_eq!(lo, next);
            next = hi;
        }
        assert_eq!(next, n);
        // Small spaces collapse to one gang covering everything.
        let results = ctx.launch_gangs(&cfg, cost(), 5, |g, range| (g, range.start, range.end));
        assert_eq!(results, vec![(0, 0, 5)]);
    }

    #[test]
    fn gang_scope_with_gives_each_gang_its_own_state() {
        let ctx = Context::with_workers(3);
        let n = 3 * PAR_MIN_ITEMS;
        let mut scratch = vec![0u64; ctx.workers()];
        let mut sums = Vec::new();
        let gangs = ctx.fork_join(
            n,
            n as u64,
            &mut scratch,
            |_, range, st| {
                *st += range.map(|i| i as u64).sum::<u64>();
                *st
            },
            |sum| sums.push(sum),
        );
        assert_eq!(gangs, 3);
        let total: u64 = sums.iter().sum();
        assert_eq!(total, (n as u64 - 1) * n as u64 / 2);
        assert_eq!(scratch, sums);
    }

    #[test]
    #[should_panic(expected = "gang 1 failed")]
    fn a_panicking_gang_propagates_to_the_launcher() {
        let n = 2 * PAR_MIN_ITEMS;
        Context::with_workers(2).launch_par(&LaunchConfig::tuned("p"), cost(), n, |i| {
            assert!(i < n / 2, "gang 1 failed");
        });
    }

    #[test]
    fn launch_gangs_records_one_ledger_row() {
        let ctx = Context::with_workers(4);
        let n = 2 * PAR_MIN_ITEMS;
        let parts = ctx.launch_gangs(&LaunchConfig::tuned("g"), cost(), n, |_, range| range.len());
        assert_eq!(parts.iter().sum::<usize>(), n);
        let s = ctx.ledger().kernel("g").unwrap();
        assert_eq!(s.launches, 1, "one row per launch, not per gang");
        assert_eq!(s.items, n as u64);
    }

    #[test]
    fn traced_parallel_launches_reconcile_and_annotate_gangs() {
        let tracer = mfc_trace::Tracer::new();
        let mut ctx = Context::with_workers(4);
        ctx.set_tracer(tracer.handle(0));
        let n = 4 * PAR_MIN_ITEMS;
        ctx.launch_par(&LaunchConfig::tuned("pk"), cost(), n, |_| {});
        ctx.launch_gangs(&LaunchConfig::tuned("gk"), cost(), n, |_, _| ());
        ctx.flush_ledger_to_trace();
        let json = mfc_trace::chrome::export_to_string(&tracer.snapshot());
        let parsed = mfc_trace::chrome::parse_str(&json).unwrap();
        assert!(mfc_trace::reconcile_trace(&parsed).is_ok());
        // The kernel events carry the gang count and the threads counter
        // reports the context width.
        assert!(json.contains("\"gangs\":4"));
        assert!(json.contains("\"threads\""));
    }

    use crate::shared::ParSlice;
    use crate::vector::{Lane, LaneKernel, LaneMaxKernel};

    /// A stencil-shaped lane kernel: out[row][col] from in[row][col..+3].
    struct Stencil<'a> {
        src: &'a [f64],
        out: ParSlice<'a>,
        row_len: usize,
    }

    impl LaneKernel for Stencil<'_> {
        fn packet<L: Lane>(&self, row: usize, col: usize) {
            let base = row * (self.row_len + 2) + col;
            let a = L::load(&self.src[base..]);
            let b = L::load(&self.src[base + 1..]);
            let c = L::load(&self.src[base + 2..]);
            let v = (a + c) * L::splat(0.25) + b * L::splat(0.5) + a * b * c;
            self.out.set_lanes(row * self.row_len + col, v);
        }
    }

    #[test]
    fn launch_vec_is_bitwise_identical_across_widths_and_workers() {
        // Row length chosen to leave a scalar tail at width 8.
        let (rows, row_len) = (37, 101);
        let src: Vec<f64> = (0..rows * (row_len + 2))
            .map(|i| ((i as f64) * 0.7311).sin() * 3.0 + (i % 13) as f64)
            .collect();
        let run = |width: usize, workers: usize| {
            let ctx = Context::with_workers(workers).with_vector_width(width);
            let mut out = vec![0.0f64; rows * row_len];
            let k = Stencil {
                src: &src,
                out: ParSlice::new(&mut out),
                row_len,
            };
            ctx.launch_vec(&LaunchConfig::tuned("stencil"), cost(), rows, row_len, &k);
            out
        };
        let reference = run(1, 1);
        for workers in [1, 4] {
            let got = run(8, workers);
            for (a, b) in reference.iter().zip(&got) {
                assert_eq!(a.to_bits(), b.to_bits(), "workers={workers}");
            }
        }
    }

    struct MaxBody;
    impl LaneMaxKernel for MaxBody {
        fn packet<L: Lane>(&self, row: usize, col: usize) -> L {
            L::from_lanes(|i| {
                let item = (row * 131 + col + i) as f64;
                (item * 0.519).sin() * 100.0 + (item % 89.0)
            })
        }
    }

    #[test]
    fn launch_max_vec_matches_scalar_fold_bitwise() {
        let (rows, row_len) = (64, 131);
        let reference = Context::with_workers(1)
            .with_vector_width(1)
            .launch_max_vec(&LaunchConfig::tuned("mv"), cost(), rows, row_len, &MaxBody);
        for workers in [1, 4] {
            let got = Context::with_workers(workers)
                .with_vector_width(8)
                .launch_max_vec(&LaunchConfig::tuned("mv"), cost(), rows, row_len, &MaxBody);
            assert_eq!(reference.to_bits(), got.to_bits(), "workers={workers}");
        }
    }

    #[test]
    fn traced_vector_launch_annotates_lanes_and_reconciles() {
        let tracer = mfc_trace::Tracer::new();
        let mut ctx = Context::with_workers(4).with_vector_width(8);
        ctx.set_tracer(tracer.handle(0));
        let (rows, row_len) = (64, 33);
        let src = vec![1.0f64; rows * (row_len + 2)];
        let mut out = vec![0.0f64; rows * row_len];
        let k = Stencil {
            src: &src,
            out: ParSlice::new(&mut out),
            row_len,
        };
        ctx.launch_vec(&LaunchConfig::tuned("vk"), cost(), rows, row_len, &k);
        ctx.flush_ledger_to_trace();
        let json = mfc_trace::chrome::export_to_string(&tracer.snapshot());
        let parsed = mfc_trace::chrome::parse_str(&json).unwrap();
        assert!(mfc_trace::reconcile_trace(&parsed).is_ok());
        assert!(json.contains("\"lanes\":8"), "lanes annotation missing");
        assert!(json.contains("\"vector_width\""), "width counter missing");
    }

    #[test]
    fn launch_max_reduces_correctly() {
        struct Tent;
        impl LaneMaxKernel for Tent {
            fn packet<L: Lane>(&self, row: usize, col: usize) -> L {
                L::from_lanes(|i| -(((row * 40 + col + i) as f64) - 500.5).abs())
            }
        }
        let m = Context::new().launch_max_vec(&LaunchConfig::tuned("m"), cost(), 25, 40, &Tent);
        assert_eq!(m, -0.5);
    }

    #[test]
    fn launch_max_parallel_is_bitwise_deterministic() {
        let (rows, row_len) = (8 * PAR_MIN_ITEMS / 64, 64);
        let cfg = LaunchConfig::tuned("m");
        let serial = Context::serial().launch_max_vec(&cfg, cost(), rows, row_len, &MaxBody);
        for workers in [2, 3, 8] {
            let par = Context::with_workers(workers).launch_max_vec(
                &cfg,
                cost(),
                rows,
                row_len,
                &MaxBody,
            );
            assert_eq!(serial.to_bits(), par.to_bits(), "workers = {workers}");
        }
    }

    #[test]
    fn launch_max_empty_space_is_neg_infinity() {
        for (rows, row_len) in [(0, 16), (16, 0)] {
            let m = Context::with_workers(4).launch_max_vec(
                &LaunchConfig::tuned("m0"),
                cost(),
                rows,
                row_len,
                &MaxBody,
            );
            assert_eq!(m, f64::NEG_INFINITY);
        }
    }

    type Mark<'a> = &'a (dyn Fn() + Sync);

    /// `out[row][col]` from an index hash, marking the executing thread.
    struct Marked<'a> {
        out: ParSlice<'a>,
        row_len: usize,
        mark: Mark<'a>,
    }

    fn hash(item: usize) -> f64 {
        ((item as f64) * 0.7315).sin() * 1.0e-3 + (item % 97) as f64
    }

    impl LaneKernel for Marked<'_> {
        fn packet<L: Lane>(&self, row: usize, col: usize) {
            (self.mark)();
            let item = row * self.row_len + col;
            self.out.set_lanes(item, L::from_lanes(|i| hash(item + i)));
        }
    }

    impl LaneMaxKernel for Marked<'_> {
        fn packet<L: Lane>(&self, row: usize, col: usize) -> L {
            (self.mark)();
            L::from_lanes(|i| hash(row * self.row_len + col + i))
        }
    }

    impl crate::vector::LaneGangBody<u64, u64> for Marked<'_> {
        fn run<L: Lane, O: AddView>(
            &self,
            _gang: usize,
            range: Range<usize>,
            st: &mut u64,
            _out: &mut [O; 0],
        ) -> u64 {
            (self.mark)();
            *st = range.map(|u| (u * u) as u64).sum();
            *st
        }
    }

    impl crate::vector::LaneGangBody<[u64], u64> for Marked<'_> {
        fn run<L: Lane, O: AddView>(
            &self,
            _gang: usize,
            range: Range<usize>,
            st: &mut [u64],
            _out: &mut [O; 0],
        ) -> u64 {
            (self.mark)();
            assert_eq!(range.len(), st.len(), "one state per unit of the range");
            for (u, s) in range.zip(st.iter_mut()) {
                *s = (u * u) as u64;
            }
            st.iter().sum()
        }
    }

    /// One row per surviving parallel entry point: run it over an `a × b`
    /// space and return its result as bits. `units_are_items` says whether
    /// the entry splits the `a·b` items (else the `a` rows / units).
    type Entry = (
        &'static str,
        bool,
        fn(&Context, usize, usize, Mark) -> Vec<u64>,
    );

    const ENTRIES: [Entry; 6] = [
        ("launch_par", true, |ctx, a, b, mark| {
            let mut out = vec![0.0f64; a * b];
            let view = ParSlice::new(&mut out);
            ctx.launch_par(&LaunchConfig::tuned("e"), cost(), a * b, |i| {
                mark();
                view.set(i, hash(i));
            });
            out.iter().map(|v| v.to_bits()).collect()
        }),
        ("launch_vec", false, |ctx, a, b, mark| {
            let mut out = vec![0.0f64; a * b];
            let k = Marked {
                out: ParSlice::new(&mut out),
                row_len: b,
                mark,
            };
            ctx.launch_vec(&LaunchConfig::tuned("e"), cost(), a, b, &k);
            out.iter().map(|v| v.to_bits()).collect()
        }),
        ("launch_max_vec", false, |ctx, a, b, mark| {
            let k = Marked {
                out: ParSlice::new(&mut []),
                row_len: b,
                mark,
            };
            vec![ctx
                .launch_max_vec(&LaunchConfig::tuned("e"), cost(), a, b, &k)
                .to_bits()]
        }),
        ("launch_gangs", true, |ctx, a, b, mark| {
            let firsts = ctx.launch_gangs(&LaunchConfig::tuned("e"), cost(), a * b, |_, range| {
                mark();
                range.clone().find(|i| i % 89 == 88)
            });
            vec![firsts.into_iter().flatten().next().map_or(0, |i| i as u64)]
        }),
        ("gang_vec_scope", false, |ctx, a, b, mark| {
            let k = Marked {
                out: ParSlice::new(&mut []),
                row_len: b,
                mark,
            };
            let mut scratch = vec![0u64; ctx.workers()];
            let mut total = 0u64;
            ctx.gang_vec_scope(a, (a * b) as u64, &mut scratch, [], &k, |s: u64| total += s);
            vec![total]
        }),
        ("gang_vec_units", false, |ctx, a, b, mark| {
            let k = Marked {
                out: ParSlice::new(&mut []),
                row_len: b,
                mark,
            };
            let mut units = vec![0u64; a];
            let mut total = 0u64;
            ctx.gang_vec_units((a * b) as u64, &mut units, [], &k, |s: u64| total += s);
            units.push(total);
            units
        }),
    ];

    #[test]
    fn par_min_items_boundary_switches_paths() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        // One item below the threshold, exactly at it (fewer units than
        // the widest context has workers), and a single unit far above it.
        let shapes = [(31, 33), (4, PAR_MIN_ITEMS / 4), (1, 4 * PAR_MIN_ITEMS)];
        for (name, units_are_items, run) in ENTRIES {
            for (a, b) in shapes {
                let units = if units_are_items { a * b } else { a };
                let mut reference = None;
                for workers in [1, 2, 3, 7] {
                    let ctx = Context::with_workers(workers);
                    let ids = Mutex::new(HashSet::new());
                    let bits = run(&ctx, a, b, &|| {
                        ids.lock().unwrap().insert(std::thread::current().id());
                    });
                    let ids = ids.into_inner().unwrap();
                    let at = format!("{name} {a}x{b} workers={workers}");
                    if workers == 1 || units < 2 || a * b < PAR_MIN_ITEMS {
                        let me = std::thread::current().id();
                        assert_eq!(ids, HashSet::from([me]), "{at}: one gang, caller's thread");
                    } else {
                        assert_eq!(ids.len(), workers.min(units), "{at}: gang count");
                    }
                    let want = reference.get_or_insert_with(|| bits.clone());
                    assert_eq!(*want, bits, "{at}: result bits");
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn invalid_vector_width_is_rejected() {
        let _ = Context::serial().with_vector_width(4);
    }

    #[test]
    fn gang_vec_scope_runs_every_unit_once_at_any_width() {
        struct Body;
        impl crate::vector::LaneGangBody<u64, u64> for Body {
            fn run<L: Lane, O: AddView>(
                &self,
                _g: usize,
                range: std::ops::Range<usize>,
                st: &mut u64,
                _out: &mut [O; 0],
            ) -> u64 {
                for u in range {
                    *st += u as u64 + L::WIDTH as u64 - L::WIDTH as u64;
                }
                *st
            }
        }
        for width in [1, 8] {
            let ctx = Context::with_workers(3).with_vector_width(width);
            let n = 3 * PAR_MIN_ITEMS;
            let mut scratch = vec![0u64; ctx.workers()];
            let mut total = 0u64;
            let gangs =
                ctx.gang_vec_scope(n, n as u64, &mut scratch, [], &Body, |s: u64| total += s);
            assert_eq!(gangs, 3);
            assert_eq!(total, (n as u64 - 1) * n as u64 / 2);
        }
    }
}
