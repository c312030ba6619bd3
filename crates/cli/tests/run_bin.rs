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

/// Satellite regression: nine fluids used to pass `--dry-run` ("19 eqs",
/// exit 0) and then panic in the EOS kernels' 8-slot private arrays
/// (exit 101). Both entry points must refuse it as a configuration error.
#[test]
fn more_than_max_fluids_is_exit_2_with_and_without_dry_run() {
    let dir = std::env::temp_dir().join(format!("mfc_run_bin_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("nine.json");
    std::fs::write(&path, case_with_fluids(9)).unwrap();
    for extra in [&[][..], &["--dry-run"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_mfc-run"))
            .arg(&path)
            .args(extra)
            .current_dir(&dir)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {stderr}");
        assert!(stderr.contains("at most 8 fluids"), "{extra:?}: {stderr}");
    }
    // The bound itself is fine: eight fluids validate.
    std::fs::write(&path, case_with_fluids(8)).unwrap();
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
