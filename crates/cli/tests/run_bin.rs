//! Contracts of the `mfc-run` / `mfc-post` *binaries*: exit codes on case
//! files the shared validation path must reject and on I/O failures of
//! the distributed driver's output layer, wave files combined with
//! checkpointing, and the overlapped exchange's bitwise invisibility.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use mfc_trace::{chrome, nesting, reconcile_trace};

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

/// Scratch directory for one test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("mfc_run_bin_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    /// Write the shipped Sod tube as a steps-based case on `ranks` ranks
    /// with its output under `<scratch>/<out>`. (Spelled out rather than
    /// re-serialised from `cases/sod.json`: `mfc-post --case` refuses a
    /// case file that pins every numerics key.)
    fn sod_case(&self, out: &str, ranks: usize, steps: usize, wave_files: bool) -> PathBuf {
        let dir = serde_json::to_string(&self.0.join(out)).unwrap();
        let text = format!(
            r#"{{"name":"sod","fluids":[{{"gamma":1.4,"pi_inf":0.0}}],"ndim":1,"cells":[200,1,1],
               "bc":"transmissive","patches":[
                 {{"region":"all","state":{{"alpha":[1.0],"rho":[0.125],"vel":[0.0,0.0,0.0],"p":0.1}}}},
                 {{"region":{{"half_space":{{"axis":0,"bound":0.5}}}},
                   "state":{{"alpha":[1.0],"rho":[1.0],"vel":[0.0,0.0,0.0],"p":1.0}}}}],
               "run":{{"steps":{steps},"ranks":{ranks}}},"io":{{"wave_files":{wave_files}}},
               "output":{{"dir":{dir},"vtk":true}}}}"#
        );
        let path = self.0.join(format!("{out}.json"));
        std::fs::write(&path, text).unwrap();
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run `cmd` to completion, killing it and failing the test if it
/// outlives `limit` — a hung collective must fail, not stall the suite.
fn output_within(mut cmd: Command, limit: Duration) -> Output {
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + limit;
    while child.try_wait().unwrap().is_none() {
        if Instant::now() >= deadline {
            child.kill().unwrap();
            child.wait().unwrap();
            panic!("{cmd:?} still running after {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().unwrap()
}

fn mfc_run(case: &Path, flags: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mfc-run"));
    cmd.arg(case).args(flags);
    output_within(cmd, Duration::from_secs(120))
}

/// Every regular file under `dir`, as (relative path, bytes), sorted.
fn tree(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(PathBuf, Vec<u8>)>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).unwrap().to_path_buf();
                out.push((rel, std::fs::read(&path).unwrap()));
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out);
    out.sort();
    out
}

/// Satellite regression: a wave file that cannot be created used to
/// panic one rank and leave its peer waiting at the writer's barrier
/// forever. It is a collective I/O error: exit 3, naming the path.
#[test]
fn unwritable_wave_file_is_exit_3_naming_the_path_not_a_hang() {
    let scratch = Scratch::new("wavefail");
    let case = scratch.sod_case("out", 2, 6, true);
    let blocked = scratch.0.join("out/waves/step000006_rank000001.bin");
    std::fs::create_dir_all(&blocked).unwrap();
    let out = mfc_run(&case, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains(blocked.to_str().unwrap()), "{stderr}");
}

/// Satellite regression: `io.wave_files` used to be dropped silently
/// whenever a resilience option was set. The wave files combine with
/// checkpointing, and `mfc-post` reassembles them into the same VTK
/// `mfc-run` wrote from its in-memory gather.
#[test]
fn wave_files_combine_with_checkpointing_and_post_process_to_the_same_vtk() {
    let scratch = Scratch::new("waveckpt");
    let case = scratch.sod_case("out", 2, 6, true);
    let out = mfc_run(&case, &["--checkpoint-every", "3"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let files = |sub: &str| {
        std::fs::read_dir(scratch.0.join("out").join(sub))
            .unwrap()
            .count()
    };
    assert!(files("ckpt") > 0, "no checkpoint files");
    assert_eq!(files("waves"), 2, "one wave file per rank");

    let post_vtk = scratch.0.join("post.vtk");
    let mut post = Command::new(env!("CARGO_BIN_EXE_mfc-post"));
    post.arg("--case").arg(&case).arg("6").arg(&post_vtk);
    let post = output_within(post, Duration::from_secs(120));
    assert_eq!(
        post.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&post.stderr)
    );
    assert!(
        std::fs::read(&post_vtk).unwrap() == std::fs::read(scratch.0.join("out/sod.vtk")).unwrap(),
        "mfc-post's VTK differs from mfc-run's"
    );
}

/// The overlapped exchange at the binary level (§III-B), one row per
/// run: hiding the halo exchange behind the interior sweeps is bitwise
/// invisible in every output artifact; its trace stays schema-valid,
/// well-nested, exactly reconciled with the analytic kernel ledger (the
/// checks `mfc-trace-report --validate --reconcile` runs) and carries
/// the phases that split hidden from exposed communication; and a layout
/// thinner than the halo is a configuration error naming the
/// decomposition before any rank is spawned.
#[test]
fn overlapped_two_rank_sod_is_bitwise_invisible_traced_and_validated() {
    let scratch = Scratch::new("overlap");
    let trace = scratch.0.join("trace.json");
    let rows: [(&str, usize, &[&str], i32, &str); 3] = [
        ("plain", 2, &[], 0, ""),
        (
            "overlap",
            2,
            &["--overlap", "--trace", trace.to_str().unwrap()],
            0,
            "",
        ),
        // 100 ranks over 200 cells: 2-cell blocks under a 3-layer halo.
        ("thin", 100, &["--overlap"], 2, "decomposition"),
    ];
    for (out_dir, ranks, flags, exit, needle) in rows {
        let case = scratch.sod_case(out_dir, ranks, 12, false);
        let out = mfc_run(&case, flags);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(exit), "{out_dir}: {stderr}");
        assert!(stderr.contains(needle), "{out_dir}: {stderr}");
    }
    let plain = tree(&scratch.0.join("plain"));
    assert!(!plain.is_empty(), "the plain run wrote nothing");
    assert!(
        plain == tree(&scratch.0.join("overlap")),
        "overlapped and plain output directories differ"
    );

    let text = std::fs::read_to_string(&trace).unwrap();
    let schema = chrome::validate_schema(&serde_json::from_str(&text).unwrap());
    assert!(schema.is_empty(), "schema violations: {schema:?}");
    let parsed = chrome::parse_str(&text).unwrap();
    nesting::check_trace(&parsed).expect("span streams must be well-nested");
    reconcile_trace(&parsed).expect("traced kernel totals must match the ledger exactly");
    for (rank, events) in &parsed.ranks {
        for phase in ["halo_post", "interior_rhs", "halo_drain", "shell_rhs"] {
            assert!(
                events.iter().any(|e| e.name == phase),
                "rank {rank} lacks the {phase} span"
            );
        }
    }
}
