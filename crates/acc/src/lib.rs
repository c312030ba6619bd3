//! A directive-style accelerator execution model.
//!
//! OpenACC offloading is not available from Rust, and this machine has no
//! GPU, so this crate reproduces the *structure* of the paper's offload
//! layer instead of its hardware:
//!
//! * [`LaunchConfig`] mirrors the directive clauses the paper tunes —
//!   `gang vector`, `collapse(n)`, `loop seq` on the inner field loop, and
//!   whether `private` arrays are compile-time sized (§III-C/D).
//! * [`Context::launch`] executes a kernel body over a collapsed iteration
//!   space serially (the "CPU build without OpenACC" path the paper keeps
//!   working); `launch_par`/`launch_chunks`/`launch_max` split the space
//!   across worker threads. All of them record wall time plus
//!   caller-declared FLOP/byte counts in a [`Ledger`].
//! * [`DeviceBuffer`] reproduces OpenACC data regions: `enter data`,
//!   `update device/host`, `host_data use_device`.  Host and "device" are
//!   the same memory here, so the copies are ledger entries rather than
//!   physical transfers — exactly the events an OpenACC profile records.
//!
//! The ledger is what the performance model (`mfc-perfmodel`) consumes to
//! place each kernel on a device roofline: per-kernel arithmetic intensity
//! comes from *real counts of the real solver*, only the device clock is
//! synthetic.

pub mod config;
pub mod cost;
pub mod data;
pub mod exec;
pub mod ledger;
pub mod queue;
pub mod report;
pub mod shared;
pub mod vector;

pub use config::{LaunchConfig, Parallelism, PrivateMode};
pub use cost::{KernelClass, KernelCost};
pub use data::DeviceBuffer;
pub use exec::{Context, PAR_MIN_ITEMS};
pub use ledger::{
    KernelStats, Ledger, ResilienceEvent, ResilienceEventKind, TransferDirection, TransferStats,
};
pub use queue::QueueSet;
pub use report::{hot_kernel_share, kernel_summary, resilience_summary, transfer_summary};
pub use shared::ParSlice;
pub use vector::{
    hw_lane_width, validate_width, Lane, LaneGangBody, LaneKernel, LaneMaxKernel, VecF64,
    DEFAULT_WIDTH, MAX_WIDTH, MAX_WORKERS,
};
