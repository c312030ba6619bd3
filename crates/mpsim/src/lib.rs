//! A message-passing simulator standing in for MPI on Summit/Frontier.
//!
//! The paper's distributed layer is plain MPI: a 3-D block decomposition,
//! nearest-neighbour `MPI_sendrecv` halo exchanges per dimension per time
//! step, a CFL `allreduce`, and file-per-process output throttled in waves
//! of 128 writers.  No MPI launcher or multi-node fabric exists here, so
//! this crate provides:
//!
//! * [`comm`]: ranks as OS threads exchanging typed messages over
//!   in-process mailboxes, with `send`/`recv`/`sendrecv`/`barrier`/
//!   `allreduce`/`gather` — enough surface to run MFC's actual
//!   communication code unchanged — plus fault-injecting variants
//!   ([`fault`]) used by the resilience tests.
//! * [`cart`]: the 3-D block ("cube over slab/pencil") cartesian
//!   decomposition of §III-A, including the near-cubic factorization that
//!   minimizes surface-to-volume ratio.
//! * [`costmodel`]: an analytic latency/bandwidth model of the Summit and
//!   Frontier interconnects, with an explicit host-staging term that models
//!   running *without* GPU-aware MPI (Fig. 4 is exactly this term).
//! * [`io`]: the wave throttle of the file-per-process writer that
//!   replaced a shared file when scaling to 65,536 GCDs.
//!
//! Functional correctness (does the halo exchange deliver the right cells?)
//! is tested by running the real code on simulated ranks; *performance* at
//! Summit/Frontier scale comes from [`costmodel`], since a single node
//! cannot reproduce a 9,000-node interconnect.

pub mod cart;
pub mod comm;
pub mod costmodel;
pub mod fault;
pub mod io;

pub use cart::{
    best_block_dims, block_extents, validate_halo_extents, CartComm, DecompositionError,
};
pub use comm::{Comm, World, MAX_RANKS};
pub use costmodel::{CommParams, Staging};
pub use fault::{
    CommFault, DetectorConfig, FailurePolicy, FaultBoard, FaultCtx, FaultPlan, MsgDelay, MsgFault,
    RankDeath, RankStall, Reconfig, SpareWake,
};
pub use io::{WaveWriter, DEFAULT_WAVE_SIZE};
