//! Exit-code contract of the `mfc-run` *binary* on case files the shared
//! validation path must reject.

use std::process::Command;

/// A well-formed 1-D case with `nf` identical fluids.
fn case_with_fluids(nf: usize) -> String {
    let fluids = vec![r#"{"gamma":1.4,"pi_inf":0.0}"#; nf].join(",");
    let alpha = vec![format!("{}", 1.0 / nf as f64); nf].join(",");
    let rho = vec!["1.0"; nf].join(",");
    format!(
        r#"{{"name":"many_fluids","fluids":[{fluids}],"ndim":1,"cells":[32,1,1],"bc":"periodic",
           "patches":[{{"region":"all","state":{{"alpha":[{alpha}],"rho":[{rho}],
           "vel":[0.0,0.0,0.0],"p":1.0e5}}}}],
           "run":{{"steps":2}},"output":{{"vtk":false}}}}"#
    )
}

/// A well-formed single-fluid 1-D WENO5 case with `n` cells.
fn case_with_cells(n: usize) -> String {
    format!(
        r#"{{"name":"thin","fluids":[{{"gamma":1.4,"pi_inf":0.0}}],"ndim":1,"cells":[{n},1,1],
           "bc":"periodic","patches":[{{"region":"all","state":{{"alpha":[1.0],"rho":[1.0],
           "vel":[0.0,0.0,0.0],"p":1.0e5}}}}],"numerics":{{"order":"weno5"}},
           "run":{{"steps":2}},"output":{{"vtk":false}}}}"#
    )
}

/// `bad` must be refused with exit 2 and `needle` on stderr by the plain
/// run and by `--dry-run` alike; `good` (the bound itself) must validate.
fn refused_with_and_without_dry_run(tag: &str, bad: &str, needle: &str, good: &str) {
    let dir = std::env::temp_dir().join(format!("mfc_run_bin_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("case.json");
    std::fs::write(&path, bad).unwrap();
    for extra in [&[][..], &["--dry-run"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_mfc-run"))
            .arg(&path)
            .args(extra)
            .current_dir(&dir)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {stderr}");
        assert!(stderr.contains(needle), "{extra:?}: {stderr}");
    }
    std::fs::write(&path, good).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_mfc-run"))
        .arg(&path)
        .arg("--dry-run")
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite regression: nine fluids used to pass `--dry-run` ("19 eqs",
/// exit 0) and then panic in the EOS kernels' 8-slot private arrays
/// (exit 101). Both entry points must refuse it as a configuration error.
#[test]
fn more_than_max_fluids_is_exit_2_with_and_without_dry_run() {
    refused_with_and_without_dry_run(
        "fluids",
        &case_with_fluids(9),
        "at most 8 fluids",
        &case_with_fluids(8),
    );
}

/// Satellite regression: a single rank with fewer interior cells than the
/// stencil has ghost layers used to pass `--dry-run` (the halo check
/// skipped unsplit axes) and then panic in `Domain::new` (exit 101).
#[test]
fn fewer_cells_than_ghost_layers_is_exit_2_with_and_without_dry_run() {
    refused_with_and_without_dry_run(
        "thin",
        &case_with_cells(2),
        "below the 3-layer halo depth",
        &case_with_cells(3),
    );
}
