//! MFC-rs: a Rust reproduction of the MFC compressible multiphase flow
//! solver and its SC'24 GPU-offloading study.
//!
//! This facade re-exports the workspace:
//!
//! * [`mfc_core`] (re-exported as `core`) — the solver (5-equation model, WENO, HLLC, RK3,
//!   IBM, distributed halo exchange).
//! * [`mfc_acc`] (`acc`) — the directive-style execution model with the
//!   FLOP/byte profiling ledger (the OpenACC substitute).
//! * [`mfc_mpsim`] (`mpsim`) — the rank simulator, cartesian decomposition,
//!   comm cost model, and wave-throttled I/O.
//! * [`mfc_fft`] (`fft`) — the radix-2 FFT behind the azimuthal filter.
//! * [`mfc_perfmodel`] (`perfmodel`) — the hardware catalog, roofline, and
//!   scaling models that regenerate the paper's figures.
//! * [`mfc_trace`] (`trace`) — the hierarchical span tracer behind
//!   `mfc-run --trace`: per-rank timelines, chrome-trace export, and the
//!   exact cross-check against the kernel ledger (the NSight/rocprof
//!   substitute).
//!
//! Start with `examples/quickstart.rs` (a Sod shock tube validated against
//! the exact Riemann solution), or run one inline:
//!
//! ```
//! use mfc::{presets, Context, Solver, SolverConfig};
//!
//! let case = presets::sod(64);
//! let mut solver = Solver::new(&case, SolverConfig::default(), Context::serial());
//! solver.run_steps(10).unwrap();
//! assert!(solver.time() > 0.0);
//! // Mass is conserved to round-off even across the shock.
//! let totals = solver.conservation();
//! assert!(totals[0].is_finite());
//! ```

pub use mfc_acc as acc;
pub use mfc_core as core;
pub use mfc_fft as fft;
pub use mfc_mpsim as mpsim;
pub use mfc_perfmodel as perfmodel;
pub use mfc_trace as trace;

pub use mfc_acc::Context;
pub use mfc_core::case::{presets, CaseBuilder, PatchState, Region};
pub use mfc_core::solver::{DtMode, Solver, SolverConfig};
