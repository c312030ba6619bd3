//! Mutation fuzz of admission: whatever values a case file carries,
//! `admit` returns a verdict instead of panicking, and a verdict of
//! "admissible" is a promise the run keeps — an admitted case steps or
//! fails numerically, it never unwinds.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use mfc_cli::{admit, BcConfig, CaseFile, ProbeConfig, RunError};
use mfc_core::axisym::Geometry;
use mfc_core::bc::BcKind;
use mfc_core::riemann::RiemannSolver;
use mfc_core::weno::WenoOrder;

const SHIPPED: [&str; 4] = [
    "sod.json",
    "taylor_green.json",
    "shock_droplet_2d.json",
    "bubble_cloud_2d.json",
];

/// Values a careless or hostile case file puts in a numeric field.
const NASTY: [f64; 9] = [
    0.0,
    -1.0,
    2.0,
    1e-308,
    1e308,
    -1e308,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];
const COUNTS: [usize; 8] = [0, 1, 2, 3, 5, 16, 64, 100_000];

/// A shipped case with every active axis cut to at most 24 cells, so an
/// admitted mutant is cheap to step.
fn shipped(idx: usize) -> CaseFile {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../cases")
        .join(SHIPPED[idx]);
    let mut cf = CaseFile::from_path(&path).unwrap();
    for n in cf.cells.iter_mut() {
        *n = (*n).min(24);
    }
    cf
}

/// Overwrite one numeric or enum field of `cf`, chosen by `field`, with a
/// value chosen by `v`.
fn mutate(cf: &mut CaseFile, field: usize, v: usize) {
    let x = NASTY[v % NASTY.len()];
    let n = COUNTS[v % COUNTS.len()];
    let axis = v % 3;
    let patch = v % cf.patches.len();
    match field {
        0 => cf.numerics.cfl = x,
        1 => cf.numerics.dt = Some(x),
        2 => cf.run.t_end = Some(x),
        3 => cf.lo[axis] = x,
        4 => cf.hi[axis] = x,
        5 => std::mem::swap(&mut cf.lo, &mut cf.hi),
        6 => cf.ndim = n % 5,
        7 => cf.cells[axis] = n.min(64),
        8 => {
            cf.numerics.geometry = [
                Geometry::Cartesian,
                Geometry::Axisymmetric,
                Geometry::Cylindrical3D,
            ][v % 3]
        }
        9 => cf.numerics.workers = n,
        10 => cf.numerics.vector_width = n,
        11 => cf.run.ranks = n.min(6),
        12 => (cf.run.steps, cf.run.t_end) = (0, None),
        13 => cf.smear_cells = x,
        14 => cf.fluids[0].gamma = x,
        15 => cf.fluids[0].pi_inf = x,
        16 => cf.fluids[0].viscosity = x,
        17 => cf.patches[patch].state.p = x,
        18 => cf.patches[patch].state.rho[0] = x,
        19 => cf.patches[patch].state.vel[axis] = x,
        20 => {
            cf.numerics.order = [
                WenoOrder::First,
                WenoOrder::Weno3,
                WenoOrder::Weno5,
                WenoOrder::Weno5Z,
                WenoOrder::Weno5M,
            ][v % 5]
        }
        21 => {
            cf.numerics.solver = [
                RiemannSolver::Hllc,
                RiemannSolver::Hll,
                RiemannSolver::Rusanov,
            ][v % 3]
        }
        22 => {
            cf.bc = BcConfig::Uniform(
                [
                    BcKind::Periodic,
                    BcKind::Reflective,
                    BcKind::NoSlip,
                    BcKind::Transmissive,
                ][v % 4],
            )
        }
        23 => cf.io.wave = n,
        24 => cf.run.checkpoint_every = (n % 4) as u64,
        25 => cf.numerics.scheme = ["rk1", "rk2", "rk3", "rk9"][v % 4].into(),
        _ => cf.probes.push(ProbeConfig {
            name: "fuzz".into(),
            x: [x, 0.5, 0.0],
        }),
    }
}

const FIELDS: usize = 27;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn admit_never_panics_and_an_admitted_mutant_never_unwinds(
        case in 0usize..4,
        edits in proptest::collection::vec((0usize..FIELDS, 0usize..720), 1..=3),
    ) {
        let mut cf = shipped(case);
        for &(field, v) in &edits {
            mutate(&mut cf, field, v);
        }
        // The verdict itself: any panic in here fails the test.
        if admit(&cf).is_err() {
            return Ok(());
        }
        // Admitted: two steps of it must run or fail numerically.
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        cf.output.dir = std::env::temp_dir().join(format!(
            "mfc_admit_fuzz_{}_{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        cf.output.vtk = false;
        (cf.run.steps, cf.run.t_end) = (2, None);
        let admitted = admit(&cf);
        prop_assert!(admitted.is_ok(), "a step budget un-admitted {:?}: {:?}", edits, admitted.err());
        let outcome = admitted.unwrap().run();
        let _ = std::fs::remove_dir_all(&cf.output.dir);
        prop_assert!(
            matches!(outcome, Ok(_) | Err(RunError::Numerical(_))),
            "{} with {:?}: {:?}", SHIPPED[case], edits, outcome
        );
    }
}
