//! A directive-style accelerator execution model.
//!
//! OpenACC offloading is not available from Rust, and this machine has no
//! GPU, so this crate reproduces the *structure* of the paper's offload
//! layer instead of its hardware:
//!
//! * [`LaunchConfig`] names a kernel (ledger rows aggregate by label);
//!   `gang vector collapse(n)` with a `seq` inner loop — the one
//!   spelling "appended to every parallel loop in MFC" (§III-C) — is what
//!   every entry point does, not a per-launch choice.
//! * [`Context::launch`] executes a kernel body over a collapsed iteration
//!   space serially (the "CPU build without OpenACC" path the paper keeps
//!   working); [`Context::launch_par`], [`Context::launch_vec`],
//!   [`Context::launch_max_vec`], [`Context::launch_gangs`] and
//!   [`Context::gang_vec_scope`] split it across worker threads through
//!   one fork/join (see [`exec`]). Every launch reaches the [`Ledger`]
//!   through [`Context::record`]: wall time plus caller-declared FLOP/byte
//!   counts.
//! * OpenACC data regions need no object here — host and "device" are the
//!   same memory, so there are no `update device/host` copies to record.
//!   The host-staged halo copies of non-GPU-aware MPI live in the cost
//!   model only (`mfc_mpsim::CommParams`).
//!
//! The ledger is what the performance model (`mfc-perfmodel`) consumes to
//! place each kernel on a device roofline: per-kernel arithmetic intensity
//! comes from *real counts of the real solver*, only the device clock is
//! synthetic.

pub mod config;
pub mod cost;
pub mod exec;
pub mod ledger;
pub mod report;
pub mod shared;
pub mod transpose;
pub mod vector;

pub use config::LaunchConfig;
pub use cost::{KernelClass, KernelCost};
pub use exec::{Context, PAR_MIN_ITEMS};
pub use ledger::{KernelStats, Ledger, ResilienceEvent, ResilienceEventKind};
pub use report::resilience_summary;
pub use shared::{AddView, ParSlice};
pub use transpose::{Plain, Transpose8};
pub use vector::{
    validate_width, Lane, LaneGangBody, LaneKernel, LaneMaxKernel, VecF64, DEFAULT_WIDTH,
    MAX_WORKERS,
};
