//! Contracts of the `mfc-run` / `mfc-post` *binaries*: one refusal table
//! for the admission rules (every entry point gives the same verdict),
//! exit codes on I/O and numerical failures, wave files combined with
//! checkpointing, the lane width's bitwise invisibility, the removed
//! `--overlap` flag, runs that stop exactly at `t_end` with probes on any
//! rank count, and recovery from rank loss and corrupt checkpoints.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use mfc_acc::Context;
use mfc_cli::{vtk_fields, BcConfig, CaseFile, ProbeConfig};
use mfc_core::axisym::Geometry;
use mfc_core::bc::BcKind;
use mfc_core::case::Region;
use mfc_core::output::{block_to_vec, write_vtk_rectilinear};
use mfc_core::par::GlobalField;
use mfc_core::probes::ProbeSet;
use mfc_core::Solver;
use mfc_mpsim::FailurePolicy;
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

/// `bad` must be refused with exit `exit` and `needle` on stderr by the
/// plain run, `--dry-run`, `--validate` and `mfc-post --case` alike — the
/// same first stderr line from all four, none past its deadline — and
/// none of them may create the case's output directory.
fn refused_at_every_entry_point(dir: &Path, bad: &str, exit: i32, needle: &str) {
    let path = dir.join("case.json");
    std::fs::write(&path, bad).unwrap();
    let run = |flags: &[&str]| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_mfc-run"));
        cmd.arg(&path).args(flags).current_dir(dir);
        cmd
    };
    let mut post = Command::new(env!("CARGO_BIN_EXE_mfc-post"));
    post.arg("--case")
        .arg(&path)
        .args(["0", "post.vtk"])
        .current_dir(dir);
    let mut first_lines = Vec::new();
    for cmd in [run(&[]), run(&["--dry-run"]), run(&["--validate"]), post] {
        let what = format!("{needle}: {cmd:?}");
        let out = output_within(cmd, Duration::from_secs(30));
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(exit), "{what}: {stderr}");
        assert!(stderr.contains(needle), "{what}: {stderr}");
        first_lines.push(stderr.lines().next().unwrap().to_string());
    }
    assert!(
        first_lines.iter().all(|l| l == &first_lines[0]),
        "{needle}: entry points disagree: {first_lines:#?}"
    );
    assert!(
        !dir.join("out").exists(),
        "{needle}: a refusal wrote output"
    );
}

/// `bad` must be refused everywhere with exit 2 and `needle`; `good` (the
/// bound itself) must be admitted by `--dry-run`, which writes nothing.
fn refused_with_and_without_dry_run(tag: &str, bad: &str, needle: &str, good: &str) {
    let scratch = Scratch::new(tag);
    refused_at_every_entry_point(&scratch.0, bad, 2, needle);
    let path = scratch.0.join("case.json");
    std::fs::write(&path, good).unwrap();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mfc-run"));
    cmd.arg(&path).arg("--dry-run").current_dir(&scratch.0);
    let out = output_within(cmd, Duration::from_secs(30));
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!scratch.0.join("out").exists(), "--dry-run wrote output");
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
    /// (0: `run.ranks` left out of the file) with its output under
    /// `<scratch>/<out>`. (Spelled out rather than re-serialised from
    /// `cases/sod.json`: `mfc-post --case` refuses a case file that pins
    /// every numerics key.)
    fn sod_case(&self, out: &str, ranks: usize, steps: usize, wave_files: bool) -> PathBuf {
        let dir = serde_json::to_string(&self.0.join(out)).unwrap();
        let ranks = match ranks {
            0 => String::new(),
            n => format!(r#","ranks":{n}"#),
        };
        let text = format!(
            r#"{{"name":"sod","fluids":[{{"gamma":1.4,"pi_inf":0.0}}],"ndim":1,"cells":[200,1,1],
               "bc":"transmissive","patches":[
                 {{"region":"all","state":{{"alpha":[1.0],"rho":[0.125],"vel":[0.0,0.0,0.0],"p":0.1}}}},
                 {{"region":{{"half_space":{{"axis":0,"bound":0.5}}}},
                   "state":{{"alpha":[1.0],"rho":[1.0],"vel":[0.0,0.0,0.0],"p":1.0}}}}],
               "run":{{"steps":{steps}{ranks}}},"io":{{"wave_files":{wave_files}}},
               "output":{{"dir":{dir},"vtk":true}}}}"#
        );
        let path = self.0.join(format!("{out}.json"));
        std::fs::write(&path, text).unwrap();
        path
    }

    /// The shipped Sod tube, output under `<scratch>/out` (VTK off).
    fn shipped_sod(&self) -> CaseFile {
        let shipped = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../cases/sod.json");
        let mut case = CaseFile::from_path(&shipped).unwrap();
        case.output.dir = self.0.join("out");
        case.output.vtk = false;
        case
    }

    /// The shipped Sod tube cut to 32 cells and 12 steps, edited by
    /// `edit`, written as `<name>.json` with its VTK under
    /// `<scratch>/<name>` — the smoke scripts' case.
    fn small_sod(&self, name: &str, edit: impl FnOnce(&mut CaseFile)) -> PathBuf {
        let mut case = self.shipped_sod();
        case.cells = [32, 1, 1];
        case.run.steps = 12;
        case.run.t_end = None;
        case.output.dir = self.0.join(name);
        case.output.vtk = true;
        edit(&mut case);
        self.write(
            &format!("{name}.json"),
            &serde_json::to_string(&case).unwrap(),
        )
    }

    fn write(&self, name: &str, text: &str) -> PathBuf {
        let path = self.0.join(name);
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
    // Two ranks, and `run.ranks` left out of the case file: one rank on
    // the distributed driver, where `mfc-post` used to derive a 0-rank
    // decomposition and panic.
    for (out_dir, ranks) in [("two", 2usize), ("unset", 0)] {
        let scratch = Scratch::new("waveckpt");
        let case = scratch.sod_case(out_dir, ranks, 6, true);
        let out = mfc_run(&case, &["--checkpoint-every", "3"]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let files = |sub: &str| {
            std::fs::read_dir(scratch.0.join(out_dir).join(sub))
                .unwrap()
                .count()
        };
        assert!(files("ckpt") > 0, "no checkpoint files");
        assert_eq!(files("waves"), ranks.max(1), "one wave file per rank");

        let post_vtk = scratch.0.join("post.vtk");
        let mut post = Command::new(env!("CARGO_BIN_EXE_mfc-post"));
        post.arg("--case").arg(&case).arg("6").arg(&post_vtk);
        let post = output_within(post, Duration::from_secs(120));
        assert_eq!(
            post.status.code(),
            Some(0),
            "{out_dir}: {}",
            String::from_utf8_lossy(&post.stderr)
        );
        assert!(
            std::fs::read(&post_vtk).unwrap()
                == std::fs::read(scratch.0.join(out_dir).join("sod.vtk")).unwrap(),
            "{out_dir}: mfc-post's VTK differs from mfc-run's"
        );
    }
}

/// `mfc-post` reads the decomposition from the wave files' headers: after
/// rank 2 of 4 is lost for good and the roster shrinks, the three
/// survivors' files reassemble — through `--case` and through the
/// positional form alike — into `mfc-run`'s own VTK, byte for byte.
#[test]
fn wave_files_of_a_shrunk_run_post_process_to_the_same_vtk_in_both_forms() {
    let scratch = Scratch::new("postshrink");
    let perm = scratch.write(
        "perm.json",
        r#"{ "seed": 11, "deaths": [ { "rank": 2, "step": 7, "permanent": true } ] }"#,
    );
    let case = scratch.sod_case("shrink", 4, 12, true);
    let flags = [
        "--faults",
        perm.to_str().unwrap(),
        "--failure-policy",
        "shrink",
    ];
    let out = mfc_run(&case, &[&flags[..], &["--checkpoint-every", "3"]].concat());
    let said = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{said}");
    assert!(said.contains("shrink"), "{said}");
    let waves = scratch.0.join("shrink/waves");
    assert_eq!(
        std::fs::read_dir(&waves).unwrap().count(),
        3,
        "one file per survivor"
    );
    let want = std::fs::read(scratch.0.join("shrink/sod.vtk")).unwrap();
    let forms: [&[&std::ffi::OsStr]; 2] =
        [&["--case".as_ref(), case.as_os_str()], &[waves.as_os_str()]];
    for (i, form) in forms.into_iter().enumerate() {
        let vtk = scratch.0.join(format!("post{i}.vtk"));
        let mut post = Command::new(env!("CARGO_BIN_EXE_mfc-post"));
        post.args(form).arg("12").arg(&vtk);
        let post = output_within(post, Duration::from_secs(120));
        let stdout = String::from_utf8_lossy(&post.stdout);
        assert_eq!(
            post.status.code(),
            Some(0),
            "{form:?}: {stdout}{}",
            String::from_utf8_lossy(&post.stderr)
        );
        assert!(stdout.contains("from 3 rank files"), "{form:?}: {stdout}");
        assert!(
            std::fs::read(&vtk).unwrap() == want,
            "{form:?}: VTK differs from mfc-run's"
        );
    }
}

/// A missing, truncated or corrupt wave file is an I/O failure: exit 3,
/// with the file named on stderr.
#[test]
fn a_missing_truncated_or_corrupt_wave_file_is_exit_3_naming_it() {
    let scratch = Scratch::new("postdamage");
    let case = scratch.sod_case("out", 2, 6, true);
    assert_eq!(mfc_run(&case, &[]).status.code(), Some(0));
    let waves = scratch.0.join("out/waves");
    let file = |rank: usize| waves.join(format!("step000006_rank{rank:06}.bin"));
    let pristine = std::fs::read(file(1)).unwrap();
    let mut flipped = pristine.clone();
    flipped[pristine.len() / 2] ^= 0x01;
    let damage: [(&str, Option<&[u8]>); 3] = [
        ("missing", None),
        ("truncated", Some(&pristine[..pristine.len() - 3])),
        ("corrupt", Some(&flipped)),
    ];
    for (what, bytes) in damage {
        match bytes {
            None => std::fs::remove_file(file(1)).unwrap(),
            Some(b) => std::fs::write(file(1), b).unwrap(),
        }
        let mut post = Command::new(env!("CARGO_BIN_EXE_mfc-post"));
        post.arg(&waves).arg("6").arg(scratch.0.join("post.vtk"));
        let post = output_within(post, Duration::from_secs(30));
        let stderr = String::from_utf8_lossy(&post.stderr);
        assert_eq!(post.status.code(), Some(3), "{what}: {stderr}");
        assert!(
            stderr.contains(file(1).to_str().unwrap()),
            "{what}: {stderr}"
        );
    }
}

/// The pipelined overlap is gone, not hidden: `--overlap` is an unknown
/// flag (exit 2, named), and a case file's `numerics.overlap` key is a
/// tolerated unknown key — a 2-rank run with it writes the same bytes as
/// the same run without it. The keyed run is traced: its trace stays
/// schema-valid, well-nested and exactly reconciled with the analytic
/// kernel ledger (the checks `mfc-trace-report --validate --reconcile`
/// runs).
#[test]
fn overlap_flag_is_refused_and_its_case_key_changes_nothing() {
    let scratch = Scratch::new("overlap");
    let plain = scratch.sod_case("plain", 2, 12, false);
    let out = mfc_run(&plain, &["--overlap"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --overlap"), "{stderr}");
    assert!(!scratch.0.join("plain").exists(), "a refusal wrote output");

    let keyed = scratch.sod_case("keyed", 2, 12, false);
    let text = std::fs::read_to_string(&keyed).unwrap();
    let key = r#""numerics":{"overlap":true},"#;
    let text = text.replacen(r#""run":"#, &format!(r#"{key}"run":"#), 1);
    assert!(text.contains(key));
    std::fs::write(&keyed, text).unwrap();
    let trace = scratch.0.join("trace.json");
    for (case, flags) in [
        (&plain, vec![]),
        (&keyed, vec!["--trace", trace.to_str().unwrap()]),
    ] {
        let out = mfc_run(case, &flags);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{case:?}: {stderr}");
    }
    let plain = tree(&scratch.0.join("plain"));
    assert!(!plain.is_empty(), "the plain run wrote nothing");
    assert!(
        plain == tree(&scratch.0.join("keyed")),
        "numerics.overlap changed the output"
    );

    let text = std::fs::read_to_string(&trace).unwrap();
    let schema = chrome::validate_schema(&serde_json::from_str(&text).unwrap());
    assert!(schema.is_empty(), "schema violations: {schema:?}");
    let parsed = chrome::parse_str(&text).unwrap();
    assert_eq!(parsed.ranks.len(), 2, "one timeline per rank");
    nesting::check_trace(&parsed).expect("span streams must be well-nested");
    reconcile_trace(&parsed).expect("traced kernel totals must match the ledger exactly");
}

/// One row per admission rule (`crates/cli/src/admit.rs`): an edit of the
/// shipped Sod case that breaks exactly that rule, refused identically by
/// every entry point. On the parent commit each row was a panic (exit
/// 101), a run that never ended, or a `--dry-run` that disagreed with the
/// run.
#[test]
fn every_admission_rule_refuses_identically_at_every_entry_point() {
    let scratch = Scratch::new("rules");
    scratch.write(
        "rank7.json",
        r#"{ "deaths": [ { "rank": 7, "step": 1 } ] }"#,
    );
    scratch.write(
        "drop79.json",
        r#"{ "drops": [ { "src": 7, "dst": 9, "nth": 0 } ] }"#,
    );
    scratch.write(
        "delay03.json",
        r#"{ "delays": [ { "src": 0, "dst": 3, "nth": 0, "hold": 2 } ] }"#,
    );
    scratch.write(
        "reorder40.json",
        r#"{ "reorders": [ { "src": 4, "dst": 0, "nth": 1 } ] }"#,
    );
    scratch.write(
        "stall5.json",
        r#"{ "stalls": [ { "rank": 5, "step": 1, "millis": 1 } ] }"#,
    );
    scratch.write("not_a_plan.json", "[");
    scratch.write("not_a_ladder.json", r#"{ "ladder": ["pray"] }"#);
    let distributed = |c: &mut CaseFile| {
        c.run.t_end = None;
        c.run.steps = 4;
        c.run.ranks = 2;
    };
    type Row<'a> = (&'a str, i32, &'a dyn Fn(&mut CaseFile));
    let rows: [Row; 38] = [
        ("numerics.cfl must be in (0, 1]", 2, &|c| {
            c.numerics.cfl = 0.0
        }),
        ("numerics.cfl must be in (0, 1]", 2, &|c| {
            c.numerics.cfl = 1.5
        }),
        ("numerics.dt must be finite and positive", 2, &|c| {
            c.numerics.dt = Some(0.0)
        }),
        ("run.t_end must be finite and positive", 2, &|c| {
            c.run.t_end = Some(-1.0)
        }),
        ("numerics.workers = 100000 exceeds", 2, &|c| {
            c.numerics.workers = 100_000
        }),
        ("unknown time scheme", 2, &|c| {
            c.numerics.scheme = "rk9".into()
        }),
        ("vector_width must be 1 or 8, got 5", 2, &|c| {
            c.numerics.vector_width = 5
        }),
        // Widths 2 and 4 used to be admitted; the lane kernels are
        // compiled at 1 and 8 only.
        ("vector_width must be 1 or 8, got 4", 2, &|c| {
            c.numerics.vector_width = 4
        }),
        ("axis 0: lo = 1, hi = 1", 2, &|c| c.lo[0] = 1.0),
        ("axis 0: lo = 2, hi = 1", 2, &|c| c.lo[0] = 2.0),
        ("axis 1: lo = 0, hi = 0", 2, &|c| c.hi[1] = 0.0),
        ("axis 0: lo = -1000000", 2, &|c| {
            (c.lo[0], c.hi[0]) = (-1e308, 1e308)
        }),
        ("geometry \"cylindrical3_d\" needs ndim >= 3", 2, &|c| {
            c.numerics.geometry = Geometry::Cylindrical3D
        }),
        ("geometry \"axisymmetric\" needs ndim >= 2", 2, &|c| {
            c.numerics.geometry = Geometry::Axisymmetric
        }),
        ("the radial axis must start at r >= 0", 2, &|c| {
            c.ndim = 2;
            c.cells = [32, 32, 1];
            c.lo[1] = -1.0;
            c.numerics.geometry = Geometry::Axisymmetric;
        }),
        ("the radial axis (axis 1) cannot be periodic", 2, &|c| {
            c.ndim = 2;
            c.cells = [32, 32, 1];
            c.bc = BcConfig::Uniform(BcKind::Periodic);
            c.numerics.geometry = Geometry::Axisymmetric;
        }),
        // Fluids deserialize without `Fluid::new`'s asserts: on the parent
        // each of these was admitted and the run exited 4 at step 0 (or,
        // for the viscosity, ran on).
        ("fluids[0].gamma must be finite and > 1, got 0.5", 2, &|c| {
            c.fluids[0].gamma = 0.5
        }),
        ("fluids[0].gamma must be finite and > 1, got 1", 2, &|c| {
            c.fluids[0].gamma = 1.0
        }),
        ("fluids[0].pi_inf must be finite and >= 0", 2, &|c| {
            c.fluids[0].pi_inf = -5.0
        }),
        ("fluids[0].pi_inf must be finite and >= 0", 2, &|c| {
            c.fluids[0].pi_inf = 1e308
        }),
        ("fluids[0].viscosity must be finite and >= 0", 2, &|c| {
            c.fluids[0].viscosity = -1e-3
        }),
        ("patches[0] must be the `all` background", 2, &|c| {
            c.patches.remove(0);
        }),
        ("patch 1: half_space is not on an active axis", 2, &|c| {
            if let Region::HalfSpace { axis, .. } = &mut c.patches[1].region {
                *axis = 5;
            }
        }),
        ("run.steps or run.t_end must be set", 2, &|c| {
            c.run.t_end = None
        }),
        ("io.wave must be at least 1", 2, &|c| c.io.wave = 0),
        ("probes need run.failure_policy revive", 2, &|c| {
            c.run.failure_policy = FailurePolicy::Shrink;
            c.probes = vec![ProbeConfig {
                name: "mid".into(),
                x: [0.5, 0.0, 0.0],
            }];
        }),
        (
            "probe 'far' at [7.0, 0.0, 0.0] lies outside the domain",
            2,
            &|c| {
                c.probes = vec![ProbeConfig {
                    name: "far".into(),
                    x: [7.0, 0.0, 0.0],
                }];
            },
        ),
        (
            "run.ranks = 1000000000000000 exceeds the grid's 200 cells",
            2,
            &|c| {
                distributed(c);
                c.run.ranks = 1_000_000_000_000_000;
            },
        ),
        // 100 ranks over 200 cells: 2-cell blocks under a 3-layer halo.
        (
            "blocks as thin as 2 cells, below the 3-layer halo depth",
            2,
            &|c| {
                distributed(c);
                c.run.ranks = 100;
            },
        ),
        // On the parent `--dry-run` said "admissible" and the run died in
        // `thread::scope` (exit 101) with 60 002 rank threads to spawn.
        (
            "run.ranks + run.spares = 60002 exceeds the limit of 4096",
            2,
            &|c| {
                distributed(c);
                c.run.spares = 60_000;
            },
        ),
        ("bad fault plan", 2, &|c| {
            distributed(c);
            c.run.faults = Some("rank7.json".into());
        }),
        ("bad fault plan", 2, &|c| {
            distributed(c);
            c.run.faults = Some("not_a_plan.json".into());
        }),
        // On the parent these plans were admitted and injected nothing.
        (
            "drops message 0 from rank 7 to rank 9 but the world has only 2",
            2,
            &|c| {
                distributed(c);
                c.run.faults = Some("drop79.json".into());
            },
        ),
        (
            "delays message 0 from rank 0 to rank 3 but the world has only 2",
            2,
            &|c| {
                distributed(c);
                c.run.faults = Some("delay03.json".into());
            },
        ),
        (
            "reorders message 1 from rank 4 to rank 0 but the world has only 2",
            2,
            &|c| {
                distributed(c);
                c.run.faults = Some("reorder40.json".into());
            },
        ),
        ("stalls rank 5 but the world has only 2 ranks", 2, &|c| {
            distributed(c);
            c.run.faults = Some("stall5.json".into());
        }),
        ("bad recovery ladder", 2, &|c| {
            c.run.recovery = Some("not_a_ladder.json".into())
        }),
        ("cannot read fault plan", 3, &|c| {
            distributed(c);
            c.run.faults = Some("no_such_plan.json".into());
        }),
    ];
    for (needle, exit, edit) in rows {
        let mut case = scratch.shipped_sod();
        edit(&mut case);
        let text = serde_json::to_string(&case).unwrap();
        refused_at_every_entry_point(&scratch.0, &text, exit, needle);
    }
    // Through `mfc-run`'s flags instead of the case file: a zero wave
    // width stops at the flag parser (the former trace smoke's check), the
    // spare count reaches the same admission rule.
    let good = scratch.sod_case("flags", 2, 4, true);
    for (flags, needle) in [
        (["--io-wave", "0"], "--io-wave needs a value it accepts"),
        (["--spares", "60000"], "run.ranks + run.spares = 60002"),
    ] {
        for dry in [&[][..], &["--dry-run"][..]] {
            let out = mfc_run(&good, &[&flags[..], dry].concat());
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{flags:?} {dry:?}: {stderr}");
            assert!(stderr.contains(needle), "{flags:?} {dry:?}: {stderr}");
        }
    }
    assert!(!scratch.0.join("flags").exists(), "a refusal wrote output");
}

/// `bin --help` into a pipe whose read end is already closed (`--help |
/// true` after the reader has gone): exit 0. Into `/dev/full`: exit 3,
/// an I/O error. Neither panics. The read end is dropped before the
/// spawn, so the first write fails.
fn help_into_a_closed_or_full_stdout(bin: &str) {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let full = std::fs::File::create("/dev/full").unwrap();
    for (stdout, code) in [(Stdio::from(writer), 0), (Stdio::from(full), 3)] {
        let out = Command::new(bin)
            .arg("--help")
            .stdout(stdout)
            .stderr(Stdio::piped())
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{bin}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin}: {stderr}");
    }
}

#[test]
fn closed_stdout_exits_0_and_full_stdout_exits_3_without_a_panic() {
    help_into_a_closed_or_full_stdout(env!("CARGO_BIN_EXE_mfc-run"));
    help_into_a_closed_or_full_stdout(env!("CARGO_BIN_EXE_mfc-post"));
}

/// Simulation time from the `done:` line (`t = 1.2000e-2`), as printed.
fn done_time(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("done:"))
        .unwrap_or_else(|| panic!("no done line in: {stdout}"));
    let t = line.split("t = ").nth(1).unwrap();
    t.split(',').next().unwrap().to_string()
}

/// Satellite regression: the distributed driver did not return the time
/// its ranks track, so `mfc-run` printed `t = NaN` for every such run.
#[test]
fn distributed_runs_report_the_simulation_time() {
    let scratch = Scratch::new("simtime");
    let fixed = scratch.small_sod("fixed", |c| {
        c.run.ranks = 2;
        c.numerics.dt = Some(1.0e-3);
    });
    assert_eq!(done_time(&mfc_run(&fixed, &[])), "1.2000e-2");
    let serial = scratch.small_sod("cfl1", |_| {});
    let two = scratch.small_sod("cfl2", |c| c.run.ranks = 2);
    let t = done_time(&mfc_run(&serial, &[]));
    assert!(t.parse::<f64>().unwrap() > 0.0, "{t}");
    assert_eq!(done_time(&mfc_run(&two, &[])), t);
}

/// The shipped Sod tube and `Solver::run_until` on it: the final state, as
/// a VTK file, and the probe set `probes` sampled on that state.
fn sod_until_t_end(case: &CaseFile, vtk: &Path) -> (Solver, ProbeSet) {
    let built = case.to_case().unwrap();
    let cfg = case.numerics.to_solver_config().unwrap();
    let mut solver = Solver::new(&built, cfg, Context::serial());
    solver
        .run_until(case.run.t_end.unwrap(), usize::MAX)
        .unwrap();
    let field = GlobalField {
        n: built.cells,
        neq: solver.domain().eq.neq(),
        data: block_to_vec(solver.state()),
    };
    let fields = vtk_fields(&built.eq());
    let refs: Vec<(&str, usize)> = fields.iter().map(|(n, s)| (n.as_str(), *s)).collect();
    write_vtk_rectilinear(vtk, &built.grid(), &field, &refs).unwrap();
    let mut probes = ProbeSet::new(case.probes.clone(), solver.domain(), solver.grid());
    probes.sample(solver.time(), &built.fluids, solver.state());
    (solver, probes)
}

/// Regression: `mfc-run` stepped the shipped Sod tube (`t_end: 0.15`) past
/// its end time, to t = 0.150216 in 131 steps. The last step now lands on
/// `t_end` bit for bit, at the state `Solver::run_until` reaches.
#[test]
fn shipped_sod_stops_exactly_at_t_end() {
    let scratch = Scratch::new("tend");
    let mut case = scratch.shipped_sod();
    case.probes = vec![ProbeConfig {
        name: "right".into(),
        x: [0.8, 0.0, 0.0],
    }];
    let path = scratch.write("sod.json", &serde_json::to_string(&case).unwrap());
    let out = mfc_run(&path, &[]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(done_time(&out), "1.5000e-1");
    let (solver, reference) = sod_until_t_end(&case, &scratch.0.join("reference.vtk"));
    assert_eq!(solver.time().to_bits(), 0.15f64.to_bits());
    let csv = std::fs::read_to_string(scratch.0.join("out/right_probe.csv")).unwrap();
    assert_eq!(csv.lines().count() as u64, solver.steps());
    let mut last = Vec::new();
    reference.write_csv(0, &mut last).unwrap();
    assert_eq!(
        csv.lines().last().unwrap(),
        String::from_utf8(last).unwrap().trim_end()
    );
    assert!(csv.lines().last().unwrap().starts_with("0.15,"));
}

/// What the refusal table used to turn away: `t_end` and probes on a
/// distributed run. Two ranks write the serial run's probe CSVs and VTK
/// byte for byte — one probe sits on the block face at x = 0.5 — and both
/// are the state `Solver::run_until` reaches.
#[test]
fn t_end_and_probes_on_two_ranks_match_the_serial_run_byte_for_byte() {
    let scratch = Scratch::new("tend_ranks");
    let mut trees = Vec::new();
    let mut case = scratch.shipped_sod();
    for ranks in [1, 2] {
        case.run.ranks = ranks;
        case.output.dir = scratch.0.join(format!("r{ranks}"));
        case.output.vtk = true;
        case.probes = vec![
            ProbeConfig {
                name: "face".into(),
                x: [0.5, 0.0, 0.0],
            },
            ProbeConfig {
                name: "right".into(),
                x: [0.8, 0.0, 0.0],
            },
        ];
        let path = scratch.write(
            &format!("r{ranks}.json"),
            &serde_json::to_string(&case).unwrap(),
        );
        let out = mfc_run(&path, &[]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(done_time(&out), "1.5000e-1");
        trees.push(tree(&case.output.dir));
    }
    let names: Vec<_> = trees[0].iter().map(|(path, _)| path.clone()).collect();
    let expected = ["face_probe.csv", "right_probe.csv", "sod.vtk"].map(PathBuf::from);
    assert_eq!(names, expected);
    assert!(trees[0] == trees[1], "2 ranks differ from 1");
    let reference = scratch.0.join("reference.vtk");
    sod_until_t_end(&case, &reference);
    assert!(std::fs::read(reference).unwrap() == trees[0][2].1);
}

/// A serial run with VTK off takes no end-of-run copy of its state: it
/// writes its probes, reports the grid's cell count, and writes no `.vtk`.
#[test]
fn vtk_off_serial_run_writes_probes_and_cells_but_no_vtk() {
    let scratch = Scratch::new("novtk");
    let case = scratch.small_sod("novtk", |c| {
        c.output.vtk = false;
        c.probes = vec![ProbeConfig {
            name: "mid".into(),
            x: [0.5, 0.0, 0.0],
        }];
    });
    let out = mfc_run(&case, &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with("done:") && l.contains(" 32 cells,")),
        "{stdout}"
    );
    let files = tree(&scratch.0.join("novtk"));
    let names: Vec<_> = files.iter().map(|(path, _)| path.clone()).collect();
    assert_eq!(names, [PathBuf::from("mid_probe.csv")]);
    let rows = String::from_utf8_lossy(&files[0].1).lines().count();
    assert_eq!(rows, 12, "one probe row per step");
}

/// The former `scripts/vector_smoke.sh` as rows: the lane width is bitwise
/// invisible in every output artifact, an invalid width is a
/// configuration error from the flag (the case-file key is a row of the
/// refusal table), and `mfc-post --case` refuses a case that pins it.
#[test]
fn vector_width_is_bitwise_invisible_and_refused_when_invalid() {
    let scratch = Scratch::new("lanes");
    for w in ["1", "8"] {
        let case = scratch.small_sod(&format!("w{w}"), |_| {});
        let out = mfc_run(&case, &["--vector-width", w]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "W={w}: {stderr}");
    }
    let scalar = tree(&scratch.0.join("w1"));
    assert!(!scalar.is_empty(), "the scalar run wrote nothing");
    assert!(scalar == tree(&scratch.0.join("w8")), "w8 differs from w1");
    let case = scratch.0.join("w1.json");
    for w in ["0", "2", "3", "4", "5", "16", "four"] {
        let out = mfc_run(&case, &["--vector-width", w]);
        assert_eq!(out.status.code(), Some(2), "--vector-width {w}");
    }
    // `small_sod` re-serialises the case, so the file pins the width.
    let mut post = Command::new(env!("CARGO_BIN_EXE_mfc-post"));
    post.arg("--case").arg(&case).arg("12").arg("post.vtk");
    let post = output_within(post, Duration::from_secs(30));
    let stderr = String::from_utf8_lossy(&post.stderr);
    assert_eq!(post.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("vector_width"), "{stderr}");
}

const DEEP_LADDER: &str = r#"{
  "ladder": ["halve_dt", "halve_dt", "halve_dt", "halve_dt", "halve_dt", "halve_dt",
             "zhang_shu", "weno3", "rusanov"],
  "max_retries": 64, "restore_after": 1000 }"#;

/// The former `scripts/resilience_smoke.sh` as rows, on one worker and four
/// gangs: the exit-code contract (0 ok / laddered recovery, 2 usage or
/// configuration, 3 I/O, 4 numerical), a transient rank death recovered
/// by rollback, and a permanent one that is fatal under the default
/// policy and survivable under `shrink`.
#[test]
fn exit_code_contract_and_rank_death_recovery_at_one_and_four_workers() {
    let scratch = Scratch::new("contract");
    let ladder = scratch.write("ladder.json", DEEP_LADDER);
    let ladder = ladder.to_str().unwrap();
    let death = scratch.write(
        "death.json",
        r#"{ "seed": 7, "deaths": [ { "rank": 1, "step": 10 } ] }"#,
    );
    let death = death.to_str().unwrap();
    let perm = scratch.write(
        "perm.json",
        r#"{ "seed": 7, "deaths": [ { "rank": 2, "step": 7, "permanent": true } ] }"#,
    );
    let perm = perm.to_str().unwrap();
    scratch.write("broken.json", r#"{ "name": "broken" }"#);

    let clean = scratch.small_sod("clean", |_| {});
    let broken = scratch.0.join("broken.json");
    let missing = scratch.0.join("does_not_exist.json");
    // dt = 0.2 is ~8x the stable step of the 32-cell tube: it must blow up.
    let hot = scratch.small_sod("hot", |c| c.numerics.dt = Some(0.2));
    let two = scratch.small_sod("two", |c| c.run.ranks = 2);
    let four = scratch.small_sod("four", |c| c.run.ranks = 4);

    let no_case = Command::new(env!("CARGO_BIN_EXE_mfc-run"));
    let out = output_within(no_case, Duration::from_secs(30));
    assert_eq!(out.status.code(), Some(2), "no case file is a usage error");

    type Row<'a> = (&'a Path, &'a [&'a str], i32, &'a [&'a str]);
    let rows: [Row; 10] = [
        (&clean, &[], 0, &["done: 12 steps"]),
        (&clean, &["--no-such-flag"], 2, &["unknown flag"]),
        (&clean, &["--ckpt-keep", "0"], 2, &["--ckpt-keep needs"]),
        (&broken, &[], 2, &["invalid configuration"]),
        (&missing, &[], 3, &["i/o failure"]),
        (&hot, &[], 4, &["numerical failure"]),
        (&hot, &["--recovery", ladder], 0, &["health_fault", "retry"]),
        (
            &two,
            &["--faults", death, "--checkpoint-every", "3"],
            0,
            &["rollback"],
        ),
        (
            &four,
            &["--faults", perm, "--checkpoint-every", "3"],
            4,
            &["Revive"],
        ),
        (
            &four,
            &[
                "--faults",
                perm,
                "--checkpoint-every",
                "3",
                "--failure-policy",
                "shrink",
            ],
            0,
            &["shrink"],
        ),
    ];
    for workers in ["1", "4"] {
        for (case, flags, exit, needles) in rows {
            let mut flags = flags.to_vec();
            flags.extend(["--workers", workers]);
            let out = mfc_run(case, &flags);
            let said = format!(
                "{}{}",
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr)
            );
            let what = format!("{} {flags:?}", case.display());
            assert_eq!(out.status.code(), Some(exit), "{what}: {said}");
            for needle in needles {
                assert!(said.contains(needle), "{what} lacks '{needle}': {said}");
            }
        }
        let ckpt = std::fs::read_dir(scratch.0.join("two/ckpt"))
            .unwrap()
            .map(|e| std::fs::read(e.unwrap().path()).unwrap())
            .next()
            .expect("the death run committed a checkpoint");
        assert!(
            ckpt.starts_with(mfc_core::restart::CHECKPOINT_MAGIC),
            "checkpoint magic"
        );
    }
}

/// The former `scripts/shrink_smoke.sh` as rows: rank 2 of 4 dies for good
/// one step after the wave-2 commit. Shrinking to the three survivors
/// and promoting a hot spare both finish, each logging only its own
/// recovery events, with a VTK byte-identical to the fault-free run's;
/// the default policy cannot absorb the loss, and a plan that leaves no
/// survivor quorum is refused before any rank is spawned.
#[test]
fn permanent_rank_loss_is_survived_by_shrink_and_by_spare_byte_identically() {
    let scratch = Scratch::new("permloss");
    let perm = scratch.write(
        "perm.json",
        r#"{ "seed": 11, "deaths": [ { "rank": 2, "step": 7, "permanent": true } ] }"#,
    );
    let wipeout = scratch.write(
        "no_quorum.json",
        r#"{ "seed": 11, "deaths": [
             { "rank": 0, "step": 4, "permanent": true }, { "rank": 1, "step": 4, "permanent": true },
             { "rank": 2, "step": 4, "permanent": true }, { "rank": 3, "step": 4, "permanent": true } ] }"#,
    );
    let (perm, wipeout) = (perm.to_str().unwrap(), wipeout.to_str().unwrap());
    let ck = ["--checkpoint-every", "3"];
    // (output dir, flags, exit, output must contain, must not contain)
    type Row<'a> = (&'a str, Vec<&'a str>, i32, &'a [&'a str], &'a [&'a str]);
    let rows: [Row; 6] = [
        ("plain", vec![], 0, &[], &["rollback"]),
        (
            "shrink",
            [&["--faults", perm, "--failure-policy", "shrink"], &ck[..]].concat(),
            0,
            &["shrink", "redistribute", "rollback"],
            &["promote_spare"],
        ),
        (
            "spare",
            [
                &[
                    "--faults",
                    perm,
                    "--failure-policy",
                    "spare",
                    "--spares",
                    "1",
                ],
                &ck[..],
            ]
            .concat(),
            0,
            &["promote_spare"],
            &["shrink"],
        ),
        (
            "revive",
            [&["--faults", perm], &ck[..]].concat(),
            4,
            &["Revive"],
            &[],
        ),
        (
            "wipeout",
            [
                &["--faults", wipeout, "--failure-policy", "shrink"],
                &ck[..],
            ]
            .concat(),
            2,
            &["quorum"],
            &[],
        ),
        (
            "immortal",
            vec!["--failure-policy", "immortal"],
            2,
            &["--failure-policy needs"],
            &[],
        ),
    ];
    for (out_dir, flags, exit, needles, forbidden) in rows {
        let case = scratch.small_sod(out_dir, |c| c.run.ranks = 4);
        let out = mfc_run(&case, &flags);
        let said = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(out.status.code(), Some(exit), "{out_dir}: {said}");
        for needle in needles {
            assert!(said.contains(needle), "{out_dir} lacks '{needle}': {said}");
        }
        for needle in forbidden {
            assert!(!said.contains(needle), "{out_dir} has '{needle}': {said}");
        }
    }
    let vtk = |dir: &str| std::fs::read(scratch.0.join(dir).join("sod.vtk")).unwrap();
    assert!(
        vtk("shrink") == vtk("plain"),
        "shrink recovery changed the field"
    );
    assert!(
        vtk("spare") == vtk("plain"),
        "spare takeover changed the field"
    );
}

/// The resilience smoke's checkpoint-corruption step at the binary
/// level: rank 1 dies at step 10, so the rollback targets wave 3 (step
/// 9); both ranks' wave-3 files are truncated as soon as they appear
/// (rank 0's stall at step 10 holds the recovery open meanwhile), so the
/// rollback must skip the unreadable wave, restart from wave 2 and still
/// finish byte-identical to the fault-free run.
#[test]
fn corrupt_checkpoint_wave_is_skipped_and_the_run_stays_byte_identical() {
    let scratch = Scratch::new("corrupt");
    let plan = scratch.write(
        "plan.json",
        r#"{ "deaths": [ { "rank": 1, "step": 10 } ],
             "stalls": [ { "rank": 0, "step": 10, "millis": 400 } ] }"#,
    );
    let plain = scratch.small_sod("plain", |c| c.run.ranks = 2);
    let struck = scratch.small_sod("struck", |c| c.run.ranks = 2);
    let ckpt = scratch.0.join("struck/ckpt");
    let wave3 = [0, 1].map(|rank| mfc_core::restart::wave_path(&ckpt, rank, 3));
    let watcher = std::thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(120);
        while Instant::now() < deadline {
            if wave3.iter().all(|p| p.exists()) {
                // Give the writes a moment to land, then truncate.
                std::thread::sleep(Duration::from_millis(5));
                for p in &wave3 {
                    let len = std::fs::metadata(p).unwrap().len();
                    let f = std::fs::OpenOptions::new().write(true).open(p).unwrap();
                    f.set_len(len / 2).unwrap();
                }
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        false
    });
    let out = mfc_run(
        &struck,
        &[
            "--faults",
            plan.to_str().unwrap(),
            "--checkpoint-every",
            "3",
        ],
    );
    assert!(
        watcher.join().unwrap(),
        "watcher never saw the wave-3 files"
    );
    let said = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(out.status.code(), Some(0), "{said}");
    for needle in ["unreadable", "rolled back to wave 2"] {
        assert!(said.contains(needle), "lacks '{needle}': {said}");
    }
    assert_eq!(mfc_run(&plain, &[]).status.code(), Some(0));
    assert!(
        std::fs::read(scratch.0.join("struck/sod.vtk")).unwrap()
            == std::fs::read(scratch.0.join("plain/sod.vtk")).unwrap(),
        "recovery through an earlier wave changed the field"
    );
}
