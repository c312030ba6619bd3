//! MFC-style compressible multiphase flow solver.
//!
//! This crate reimplements, from scratch in Rust, the numerics of MFC
//! (Bryngelson et al., CPC 2021) as exercised by the SC'24 OpenACC
//! offloading paper:
//!
//! * the 5-equation Allaire diffuse-interface model for N immiscible
//!   fluids closed by the stiffened-gas equation of state ([`fluid`],
//!   [`eos`]),
//! * third/fifth-order WENO reconstruction ([`weno`]),
//! * the HLLC approximate Riemann solver, with HLL/Rusanov baselines and an
//!   exact stiffened-gas Riemann solver as the validation oracle
//!   ([`riemann`]),
//! * dimension-by-dimension finite-volume right-hand sides with coalesced
//!   sweep buffers ([`rhs`]), SSP Runge–Kutta time stepping ([`time`]),
//! * uniform and tanh-stretched grids ([`grid`]), periodic / reflective /
//!   transmissive boundaries ([`bc`]), axisymmetric geometric sources
//!   ([`axisym`]), the azimuthal low-pass filter for cylindrical grids
//!   ([`filter`]), and a ghost-cell immersed boundary method ([`ibm`]),
//! * one time step ([`solver`]) and one run loop ([`run`]) that steps a
//!   single-device block, or each simulated rank of a decomposed run
//!   with the real pack/`sendrecv`/unpack halo exchange ([`par`]),
//! * a numerical-health watchdog fused into the primitive-conversion pass
//!   and a graceful-degradation recovery ladder that retries faulted steps
//!   under progressively more dissipative policies ([`health`],
//!   [`recovery`]), with crash-safe CRC-checked checkpoints ([`restart`]),
//! * initial-condition patches for the paper's cases — shock tubes, shock
//!   droplet, shock bubble cloud, airfoil flow ([`case`]),
//! * conservation/error diagnostics and grind-time accounting ([`diag`]).
//!
//! Hot kernels are launched through [`mfc_acc`]'s directive-style executor,
//! so every WENO/Riemann/packing launch lands in a profiling ledger with
//! analytic FLOP/byte counts — the data the performance model uses to
//! regenerate the paper's rooflines and breakdowns.

pub mod axisym;
pub mod bc;
pub mod case;
pub mod cfl;
pub mod diag;
pub mod domain;
pub mod dtoa;
pub mod eos;
pub mod eqidx;
pub mod filter;
pub mod fluid;
pub mod fused;
pub mod grid;
pub mod health;
pub mod ibm;
pub mod isa;
pub mod limiter;
pub mod output;
pub mod par;
pub mod probes;
pub mod recovery;
pub mod restart;
pub mod rhs;
pub mod riemann;
pub mod run;
pub mod solver;
pub mod state;
pub mod time;
pub mod viscous;
pub mod weno;

pub use case::{CaseBuilder, Patch};
pub use domain::Domain;
pub use eqidx::{EqIdx, EqLayout};
pub use fluid::{Fluid, FluidTable, MixtureRules};
pub use grid::{Grid, Grid1D};
pub use health::{HealthConfig, Violation, ViolationKind};
pub use recovery::{RecoveryAction, RecoveryPolicy, SolverError, StepFault, StepOutcome};
pub use run::{StepControl, Stop};
pub use solver::{Solver, SolverConfig};
pub use state::StateField;
pub use time::TimeScheme;
pub use weno::WenoOrder;
