//! Golden-file regression harness for the shipped case files.
//!
//! Every case under `cases/` runs for a short, fixed number of steps;
//! after each step the harness records (a) the interior sum of every
//! conserved quantity, (b) a probe trace at the domain-center cell and
//! (c) a CRC-32 digest of the whole interior field. Sums and probes are
//! stored as **bit-exact** hex-encoded `f64`s in
//! `tests/golden/<case>.json`, so the comparison catches a single-ulp
//! drift anywhere in the numerics and says how large it is; the digest
//! catches a drift that cancels in the sums and misses the probe.
//!
//! To regenerate after an intentional physics change:
//!
//! ```text
//! MFC_BLESS=1 cargo test --test golden
//! ```

use mfc_acc::Context;
use mfc_cli::CaseFile;
use mfc_core::restart::Crc32;
use mfc_core::solver::Solver;
use serde::{Deserialize, Serialize};

fn cases_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../cases")
}

fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// One case's regression record. All floats are hex-encoded IEEE-754
/// bits (`{:016x}` of `f64::to_bits`), so the file is exact and diffs
/// are meaningful.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenRecord {
    case: String,
    steps: usize,
    /// Per step, per equation: interior sum of the conserved variable.
    sums: Vec<Vec<String>>,
    /// Per step, per equation: the state at the domain-center cell.
    probes: Vec<Vec<String>>,
    /// Per step: CRC-32 (`{:08x}`) of every interior value's bytes,
    /// equation-major in the interior iteration order.
    digests: Vec<String>,
}

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn unhex(s: &str) -> f64 {
    f64::from_bits(u64::from_str_radix(s, 16).expect("bad hex f64 in golden file"))
}

/// Distance in representable values between two floats (same sign
/// assumed, which holds for matching physics); 0 means bitwise equal.
fn ulp_distance(a: f64, b: f64) -> u64 {
    (a.to_bits() as i64).abs_diff(b.to_bits() as i64)
}

/// A serial solver on the shipped case `name`.
fn solver_for(name: &str) -> Solver {
    let cf = CaseFile::from_path(&cases_dir().join(format!("{name}.json")))
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let case = cf.to_case().unwrap();
    let cfg = cf.numerics.to_solver_config().unwrap();
    Solver::new(&case, cfg, Context::serial())
}

/// Run `name` serially for `steps` steps, recording sums, probes and
/// field digests.
fn record_case(name: &str, steps: usize) -> GoldenRecord {
    let mut solver = solver_for(name);
    let dom = *solver.domain();
    let neq = dom.eq.neq();
    let center = (
        dom.pad(0) + dom.n[0] / 2,
        dom.pad(1) + dom.n[1] / 2,
        dom.pad(2) + dom.n[2] / 2,
    );
    let mut sums = Vec::with_capacity(steps);
    let mut probes = Vec::with_capacity(steps);
    let mut digests = Vec::with_capacity(steps);
    for _ in 0..steps {
        solver.step().unwrap();
        let q = solver.state();
        let mut step_sums = Vec::with_capacity(neq);
        let mut step_probe = Vec::with_capacity(neq);
        let mut crc = Crc32::new();
        for e in 0..neq {
            // Fixed iteration order => bitwise-reproducible sum.
            let mut acc = 0.0f64;
            for (i, j, k) in dom.interior() {
                let v = q.get(i, j, k, e);
                acc += v;
                crc.update(&v.to_le_bytes());
            }
            step_sums.push(hex(acc));
            step_probe.push(hex(q.get(center.0, center.1, center.2, e)));
        }
        sums.push(step_sums);
        probes.push(step_probe);
        digests.push(format!("{:08x}", crc.finish()));
    }
    GoldenRecord {
        case: name.to_string(),
        steps,
        sums,
        probes,
        digests,
    }
}

/// Bit-exact comparison; reports every mismatch with its ulp distance.
fn compare(golden: &GoldenRecord, actual: &GoldenRecord) -> Result<(), String> {
    if golden.steps != actual.steps {
        return Err(format!(
            "step count changed: golden {} vs actual {}",
            golden.steps, actual.steps
        ));
    }
    let mut report = String::new();
    for (kind, g, a) in [
        ("sum", &golden.sums, &actual.sums),
        ("probe", &golden.probes, &actual.probes),
    ] {
        for (step, (gs, as_)) in g.iter().zip(a).enumerate() {
            if gs.len() != as_.len() {
                return Err(format!(
                    "{kind} step {step}: equation count changed ({} vs {})",
                    gs.len(),
                    as_.len()
                ));
            }
            for (e, (gh, ah)) in gs.iter().zip(as_).enumerate() {
                if gh != ah {
                    let (gv, av) = (unhex(gh), unhex(ah));
                    report.push_str(&format!(
                        "{kind} step {step} eq {e}: golden {gv:e} ({gh}) vs actual {av:e} ({ah}), {} ulp\n",
                        ulp_distance(gv, av)
                    ));
                }
            }
        }
    }
    for (step, (gd, ad)) in golden.digests.iter().zip(&actual.digests).enumerate() {
        if gd != ad {
            report.push_str(&format!(
                "field digest step {step}: golden {gd} vs actual {ad}\n"
            ));
        }
    }
    if report.is_empty() {
        Ok(())
    } else {
        Err(report)
    }
}

fn blessing() -> bool {
    std::env::var("MFC_BLESS").as_deref() == Ok("1")
}

/// Run one case against its committed golden, or regenerate it when
/// `MFC_BLESS=1` is set.
fn check(name: &str, steps: usize) {
    let actual = record_case(name, steps);
    let path = golden_dir().join(format!("{name}.json"));
    if blessing() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        let text = serde_json::to_string_pretty(&actual).unwrap();
        std::fs::write(&path, text + "\n").unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {path:?} ({e}); generate with MFC_BLESS=1 cargo test --test golden")
    });
    let golden: GoldenRecord = serde_json::from_str(&text).unwrap();
    // Every entry of a dispatched stage is bitwise identical by
    // construction; a drift report still says which tier each stage ran,
    // Riemann's for each solver and equation layout `(nf,ndim)`.
    let isa = mfc_core::isa::kernel_isa();
    eprintln!("{name}: dispatched stages ran {isa}");
    if let Err(diff) = compare(&golden, &actual) {
        panic!(
            "{name} drifted from its golden record (dispatched stages, Riemann per \
             solver and equation layout (nf,ndim): {isa}):\n{diff}\
             If the change is intentional, regenerate with \
             MFC_BLESS=1 cargo test --test golden"
        );
    }
}

#[test]
fn golden_sod() {
    check("sod", 12);
}

#[test]
fn golden_taylor_green() {
    check("taylor_green", 6);
}

#[test]
fn golden_shock_droplet_2d() {
    check("shock_droplet_2d", 5);
}

#[test]
fn golden_bubble_cloud_2d() {
    check("bubble_cloud_2d", 5);
}

/// The one 3-D record: its extents (13 x 10 x 9) are not multiples of the
/// 8-line pencil batch, so the partial pencils of every sweep run, and
/// the z sweep is pinned against an external record rather than only
/// against itself.
#[test]
fn golden_shock_droplet_3d() {
    check("shock_droplet_3d", 5);
}

/// A golden can only see a change to the reconstruction if the field it
/// records varies: a constant line reconstructs to its value whatever the
/// weights are (the shipped `taylor_green` was once a quiescent uniform
/// gas, and a rewrite of the WENO arithmetic moved none of its 129
/// entries). Every case with a committed record must vary in space along
/// each active axis after its first step, and the record must change from
/// every step to the next.
#[test]
fn golden_records_are_not_constant() {
    if blessing() {
        // The records are being rewritten by the tests running beside
        // this one; the next plain run checks them.
        return;
    }
    let mut records = 0;
    for entry in std::fs::read_dir(golden_dir()).unwrap() {
        let text = std::fs::read_to_string(entry.unwrap().path()).unwrap();
        let golden: GoldenRecord = serde_json::from_str(&text).unwrap();
        let name = golden.case.as_str();
        records += 1;

        let mut solver = solver_for(name);
        solver.step().unwrap();
        let dom = *solver.domain();
        let q = solver.state();
        for axis in 0..dom.eq.ndim() {
            let varies = dom.interior().any(|(i, j, k)| {
                let mut next = [i, j, k];
                next[axis] += 1;
                (0..dom.eq.neq()).any(|e| q.get(i, j, k, e) != q.get(next[0], next[1], next[2], e))
            });
            assert!(varies, "{name}: every line along axis {axis} is constant");
        }

        assert_eq!(golden.digests.len(), golden.steps, "{name}");
        for (step, pair) in golden.digests.windows(2).enumerate() {
            assert_ne!(
                pair[0],
                pair[1],
                "{name}: nothing moved in step {}",
                step + 1
            );
        }
    }
    assert_eq!(records, 5, "one record per shipped case");
}

#[test]
fn comparator_rejects_one_ulp_perturbation() {
    let golden = GoldenRecord {
        case: "synthetic".into(),
        steps: 1,
        sums: vec![vec![hex(1.0), hex(-2.5)]],
        probes: vec![vec![hex(0.1), hex(3.75e5)]],
        digests: vec!["cbf43926".into()],
    };
    assert!(compare(&golden, &golden.clone()).is_ok());
    let mut bumped = golden.clone();
    bumped.sums[0][1] = hex(f64::from_bits(unhex(&golden.sums[0][1]).to_bits() + 1));
    let err = compare(&golden, &bumped).unwrap_err();
    assert!(err.contains("1 ulp"), "{err}");
    let mut probe_bumped = golden.clone();
    probe_bumped.probes[0][0] = hex(f64::from_bits(unhex(&golden.probes[0][0]).to_bits() - 1));
    assert!(compare(&golden, &probe_bumped).is_err());
    let mut digest_bumped = golden.clone();
    digest_bumped.digests[0] = "cbf43927".into();
    let err = compare(&golden, &digest_bumped).unwrap_err();
    assert!(err.contains("field digest step 0"), "{err}");
}

#[test]
fn golden_round_trips_through_json() {
    let rec = record_case("sod", 2);
    let text = serde_json::to_string(&rec).unwrap();
    let back: GoldenRecord = serde_json::from_str(&text).unwrap();
    assert_eq!(rec, back, "hex encoding must be lossless");
}
