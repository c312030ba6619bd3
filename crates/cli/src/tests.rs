//! In-crate tests of the case-file front door: parsing, admission
//! verdicts and end-to-end runs through [`run_case`].

use mfc_acc::Context;
use mfc_core::par::run_single;
use mfc_core::solver::Solver;
use mfc_core::time::TimeScheme;

use crate::admit::run::run_single_snapshot;
use crate::{ensure_writable_dir, run_case, CaseFile, ProbeConfig, RunError};

// Keep the serial snapshot helper honest against the parallel gather
// path (formerly a dead `_assert_snapshot_matches_par` helper with an
// `unwrap` on the run path).
#[test]
fn snapshot_matches_parallel_gather() {
    let cf = CaseFile::from_json(&sod_json()).unwrap();
    let case = cf.to_case().unwrap();
    let cfg = cf.numerics.to_solver_config().unwrap();
    let a = run_single(&case, cfg, 0);
    let solver = Solver::new(&case, cfg, Context::serial());
    let b = run_single_snapshot(solver, &case);
    assert_eq!(a.max_abs_diff(&b), 0.0);
}

fn sod_json() -> String {
    r#"{
        "name": "sod",
        "fluids": [{ "gamma": 1.4, "pi_inf": 0.0 }],
        "ndim": 1,
        "cells": [64, 1, 1],
        "bc": "transmissive",
        "patches": [
            { "region": "all",
              "state": { "alpha": [1.0], "rho": [0.125], "vel": [0.0, 0.0, 0.0], "p": 0.1 } },
            { "region": { "half_space": { "axis": 0, "bound": 0.5 } },
              "state": { "alpha": [1.0], "rho": [1.0], "vel": [0.0, 0.0, 0.0], "p": 1.0 } }
        ],
        "run": { "steps": 5 }
    }"#
    .to_string()
}

#[test]
fn parses_minimal_case() {
    let cf = CaseFile::from_json(&sod_json()).unwrap();
    assert_eq!(cf.name, "sod");
    assert_eq!(cf.cells, [64, 1, 1]);
    assert_eq!(cf.numerics.cfl, 0.5); // default
    let case = cf.to_case().unwrap();
    assert_eq!(case.eq().neq(), 3);
}

#[test]
fn runs_end_to_end() {
    let mut cf = CaseFile::from_json(&sod_json()).unwrap();
    cf.output.dir = std::env::temp_dir().join(format!("mfc_cli_{}", std::process::id()));
    cf.output.vtk = true;
    let summary = run_case(&cf).unwrap();
    assert_eq!(summary.steps, 5);
    assert!(summary.grind_ns > 0.0);
    let vtk = summary.vtk_path.unwrap();
    let text = std::fs::read_to_string(&vtk).unwrap();
    assert!(text.contains("SCALARS energy double 1"));
    let _ = std::fs::remove_dir_all(cf.output.dir);
}

#[test]
fn distributed_run_via_case_file() {
    let mut cf = CaseFile::from_json(&sod_json()).unwrap();
    cf.run.ranks = 2;
    cf.output.dir = std::env::temp_dir().join(format!("mfc_cli_par_{}", std::process::id()));
    let summary = run_case(&cf).unwrap();
    assert_eq!(summary.steps, 5);
    let _ = std::fs::remove_dir_all(cf.output.dir);
}

#[test]
fn thin_rank_case_is_a_config_error() {
    // Regression (thin-rank halo bug): 64 cells over 32 ranks is 2
    // cells per rank under a 3-layer halo — a config error (exit 2),
    // not a rank panic.
    let mut cf = CaseFile::from_json(&sod_json()).unwrap();
    cf.run.ranks = 32;
    cf.output.dir = std::env::temp_dir().join(format!("mfc_cli_thin_{}", std::process::id()));
    let err = run_case(&cf).unwrap_err();
    assert!(
        matches!(&err, RunError::Config(m) if m.contains("decomposition")),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(cf.output.dir);
}

#[test]
fn probes_write_time_series_csv() {
    let mut cf = CaseFile::from_json(&sod_json()).unwrap();
    cf.run.steps = 4;
    cf.probes = vec![ProbeConfig {
        name: "mid".into(),
        x: [0.5, 0.0, 0.0],
    }];
    cf.output.dir = std::env::temp_dir().join(format!("mfc_cli_probe_{}", std::process::id()));
    let summary = run_case(&cf).unwrap();
    assert_eq!(summary.steps, 4);
    let csv = std::fs::read_to_string(cf.output.dir.join("mid_probe.csv")).unwrap();
    assert_eq!(csv.lines().count(), 4);
    // Each row: t + 3 primitive values for 1-fluid 1-D.
    assert_eq!(csv.lines().next().unwrap().split(',').count(), 4);
    let _ = std::fs::remove_dir_all(&cf.output.dir);
}

#[test]
fn resilient_case_run_reports_events() {
    let mut cf = CaseFile::from_json(&sod_json()).unwrap();
    cf.run.ranks = 2;
    cf.run.steps = 8;
    cf.run.checkpoint_every = 3;
    cf.output.dir = std::env::temp_dir().join(format!("mfc_cli_resil_{}", std::process::id()));
    std::fs::create_dir_all(&cf.output.dir).unwrap();
    let plan_path = cf.output.dir.join("plan.json");
    std::fs::write(&plan_path, r#"{ "deaths": [ { "rank": 1, "step": 4 } ] }"#).unwrap();
    cf.run.faults = Some(plan_path);
    let summary = run_case(&cf).unwrap();
    assert_eq!(summary.steps, 8);
    assert!(
        summary.resilience.contains("checkpoint"),
        "{}",
        summary.resilience
    );
    assert!(
        summary.resilience.contains("fault_detected"),
        "{}",
        summary.resilience
    );
    assert!(
        summary.resilience.contains("rollback"),
        "{}",
        summary.resilience
    );
    assert!(
        summary.resilience.contains("replay"),
        "{}",
        summary.resilience
    );
    let _ = std::fs::remove_dir_all(&cf.output.dir);
}

#[test]
fn resilient_fault_free_matches_plain_distributed() {
    let mut cf = CaseFile::from_json(&sod_json()).unwrap();
    cf.output.dir = std::env::temp_dir().join(format!("mfc_cli_rff_{}", std::process::id()));
    let plain = run_case(&cf).unwrap();
    assert!(plain.resilience.is_empty());
    cf.run.ranks = 2;
    cf.run.checkpoint_every = 2;
    let resilient = run_case(&cf).unwrap();
    // Checkpoint commits are recorded even without faults.
    assert!(resilient.resilience.contains("checkpoint"));
    let _ = std::fs::remove_dir_all(&cf.output.dir);
}

#[test]
fn ensure_writable_dir_rejects_unwritable_path_as_io() {
    // A directory can never be created underneath a regular file;
    // the failure must be the typed I/O variant (exit 3), caught at
    // validation time rather than at first write.
    let base = std::env::temp_dir().join(format!("mfc_cli_wprobe_{}", std::process::id()));
    std::fs::write(&base, b"x").unwrap();
    let err = ensure_writable_dir(&base.join("sub")).unwrap_err();
    assert!(matches!(&err, RunError::Io(_)), "{err}");
    let _ = std::fs::remove_file(&base);
}

#[test]
fn rejects_bad_alpha_sums() {
    let bad = sod_json().replace("\"alpha\": [1.0]", "\"alpha\": [0.7]");
    let cf = CaseFile::from_json(&bad).unwrap();
    let err = cf.to_case().unwrap_err();
    assert!(err.contains("sum"), "{err}");
}

#[test]
fn rejects_missing_run_spec() {
    let mut cf = CaseFile::from_json(&sod_json()).unwrap();
    cf.run.steps = 0;
    cf.run.t_end = None;
    assert!(run_case(&cf).is_err());
}

#[test]
fn rejects_unknown_scheme() {
    let mut cf = CaseFile::from_json(&sod_json()).unwrap();
    cf.numerics.scheme = "rk9".into();
    assert!(run_case(&cf).is_err());
}

#[test]
fn two_fluid_case_with_sphere_patch_parses() {
    let json = r#"{
        "name": "bubble",
        "fluids": [{ "gamma": 1.4, "pi_inf": 0.0 },
                    { "gamma": 6.12, "pi_inf": 3.43e8, "viscosity": 1.0e-3 }],
        "ndim": 2,
        "cells": [16, 16, 1],
        "bc": "periodic",
        "smear_cells": 1.0,
        "patches": [
            { "region": "all",
              "state": { "alpha": [1e-6, 0.999999], "rho": [1.2, 1000.0],
                          "vel": [0.0, 0.0, 0.0], "p": 1.0e5 } },
            { "region": { "sphere": { "center": [0.5, 0.5, 0.0], "radius": 0.2 } },
              "state": { "alpha": [0.999999, 1e-6], "rho": [1.2, 1000.0],
                          "vel": [0.0, 0.0, 0.0], "p": 1.0e5 } }
        ],
        "numerics": { "order": "weno3", "solver": "hllc",
                       "scheme": "rk2", "cfl": 0.4, "dt": null },
        "run": { "steps": 2 }
    }"#;
    let cf = CaseFile::from_json(json).unwrap();
    assert_eq!(cf.fluids[1].viscosity, 1.0e-3);
    let cfg = cf.numerics.to_solver_config().unwrap();
    assert_eq!(cfg.scheme, TimeScheme::Rk2);
    let mut cf = cf;
    cf.output.dir = std::env::temp_dir().join(format!("mfc_cli_2f_{}", std::process::id()));
    let summary = run_case(&cf).unwrap();
    assert_eq!(summary.steps, 2);
    let _ = std::fs::remove_dir_all(cf.output.dir);
}
