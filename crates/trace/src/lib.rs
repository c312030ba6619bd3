//! `mfc-trace` — the reproduction's NSight Systems / rocprof substitute.
//!
//! The paper's whole optimization story was profile-driven: timeline
//! traces exposed the 90%-of-runtime private-array kernel (§III-D) and
//! the comm/compute split behind the GPU-aware-MPI ablation (Fig. 4).
//! This crate provides the measured counterpart to `mfc-acc`'s analytic
//! ledger:
//!
//! * [`Tracer`] / [`TraceHandle`] — a hierarchical span tracer with one
//!   ring-buffered event stream per simulated rank, deterministic
//!   per-rank span ids, RAII [`SpanGuard`]s, counters and instants. The
//!   disabled path is a single `Option` check at each instrumented site
//!   (the repo benchmark's `trace.overhead_frac` measures traced vs
//!   untraced steps on every PR).
//! * [`chrome`] — chrome://tracing JSON export (per-rank timelines, one
//!   `tid` lane per rank, loadable in Perfetto) with each rank's
//!   analytic-ledger snapshot embedded in the file metadata, plus a
//!   parser and structural schema validator for CI smoke runs.
//! * [`aggregate`] — per-kernel totals from the traced stream, the
//!   *exact* (bitwise) reconciliation against the analytic ledger, and
//!   the measured per-rank comm-vs-compute split analogous to Fig. 4.
//! * [`nesting`] — well-nestedness validation of span streams (no
//!   orphaned or overlapping spans), proptest-driven from the solver.
//! * [`report`] — the text summary the `mfc-trace-report` binary prints.
//! * [`Out`] — the stdout of the workspace's binaries, which depend on
//!   this crate: a closed stdout ends their output quietly instead of
//!   panicking.

pub mod aggregate;
pub mod chrome;
pub mod event;
pub mod nesting;
pub mod report;
pub mod tracer;

pub use aggregate::{reconcile_trace, splits, KernelAgg, RankSplit};
pub use event::{Category, CommOp, Event, EventKind, LedgerRow};
pub use tracer::{RankTrace, SpanGuard, TraceHandle, Tracer, DEFAULT_CAPACITY};

/// The binaries' stdout, written with `write!` / `writeln!`. When the
/// reader has gone (`mfc-run --help | head -1`) the rest of the output is
/// dropped quietly and the process goes on to its own exit code, where
/// `print!` panics; any other failed write is an I/O error, exit 3.
pub struct Out;

impl Out {
    pub fn write_fmt(&mut self, args: std::fmt::Arguments) {
        if let Err(e) = std::io::Write::write_fmt(&mut std::io::stdout(), args) {
            if e.kind() != std::io::ErrorKind::BrokenPipe {
                eprintln!("error: cannot write to stdout: {e}");
                std::process::exit(3);
            }
        }
    }
}
