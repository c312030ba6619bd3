//! JSON case files → simulations.
//!
//! MFC drives its Fortran targets from Python case dictionaries; this
//! crate is the equivalent front door for the reproduction. A case file
//! describes fluids, grid, boundary conditions, patches, numerics, and
//! output; [`run_case`] executes it serially or on simulated ranks.
//!
//! ```json
//! {
//!   "name": "sod",
//!   "fluids": [{ "gamma": 1.4, "pi_inf": 0.0 }],
//!   "ndim": 1,
//!   "cells": [200, 1, 1],
//!   "lo": [0.0, 0.0, 0.0],
//!   "hi": [1.0, 1.0, 1.0],
//!   "bc": "transmissive",
//!   "patches": [
//!     { "region": "all",
//!       "state": { "alpha": [1.0], "rho": [0.125], "vel": [0,0,0], "p": 0.1 } },
//!     { "region": { "half_space": { "axis": 0, "bound": 0.5 } },
//!       "state": { "alpha": [1.0], "rho": [1.0], "vel": [0,0,0], "p": 1.0 } }
//!   ],
//!   "numerics": { "order": "weno5", "solver": "hllc", "cfl": 0.5 },
//!   "run": { "steps": 100 },
//!   "output": { "dir": "out", "vtk": true }
//! }
//! ```
//!
//! `schema` holds the serde types, `admit` every rule that decides
//! whether a case may run, and `admit::run` the execution of an
//! [`Admitted`] case; [`run_case`] is `admit(cf)?.run()`.

mod admit;
mod schema;
#[cfg(test)]
mod tests;

pub use admit::run::{ensure_writable_dir, run_case, vtk_fields, RunSummary};
pub use admit::{admit, dry_run, Admitted, ADMISSION_RULES};
/// A probe request in the case file: sampled every step by the serial
/// solver, written as `<name>_probe.csv` under the output directory.
pub use mfc_core::probes::Probe as ProbeConfig;
pub use schema::{BcConfig, CaseFile, IoConfig, NumericsConfig, OutputConfig, RunConfig};

/// Typed failure of admission or of a run. `mfc-run` maps each variant to
/// a distinct process exit code (config → 2, I/O → 3, numerical → 4) so
/// scripts can tell a bad case file from a solver blow-up.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The case file or command-line configuration is invalid.
    Config(String),
    /// The filesystem said no (case/plan files, output dir, probes, VTK).
    Io(String),
    /// The numerical-health watchdog aborted the run (after exhausting
    /// the recovery ladder, if one was armed).
    Numerical(String),
}

impl RunError {
    /// The process exit code the binaries report this failure with.
    pub fn exit_code(&self) -> i32 {
        match self {
            RunError::Config(_) => 2,
            RunError::Io(_) => 3,
            RunError::Numerical(_) => 4,
        }
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Config(m) => write!(f, "invalid configuration: {m}"),
            RunError::Io(m) => write!(f, "i/o failure: {m}"),
            RunError::Numerical(m) => write!(f, "numerical failure: {m}"),
        }
    }
}

impl std::error::Error for RunError {}
