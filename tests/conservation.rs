//! Conservation with reflective walls, and the mirror symmetry of a
//! centred blast. Conservation under periodic boundaries — across
//! dimensions, orders, solvers, loop orders and worker counts — is the
//! conservation oracle of the generated matrix (`tests/matrix.rs`).

use mfc::{Context, Solver, SolverConfig};

#[test]
fn reflective_box_conserves_mass_and_energy() {
    // Slip walls: mass and energy conserved; momentum is not (walls push).
    use mfc::core::bc::BcSpec;
    use mfc::core::fluid::Fluid;
    use mfc::{CaseBuilder, PatchState, Region};
    let case = CaseBuilder::new(vec![Fluid::air()], 2, [24, 24, 1])
        .bc(BcSpec::reflective())
        .patch(Region::All, PatchState::single(1.2, [0.0; 3], 1.0e5))
        .patch(
            Region::Sphere {
                center: [0.5, 0.5, 0.0],
                radius: 0.2,
            },
            PatchState::single(1.2, [0.0; 3], 3.0e5),
        );
    let mut solver = Solver::new(&case, SolverConfig::default(), Context::serial());
    let eq = case.eq();
    let before = solver.conservation();
    solver.run_steps(20).unwrap();
    let after = solver.conservation();
    let mass = (after[eq.cont(0)] - before[eq.cont(0)]).abs() / before[eq.cont(0)];
    let energy = (after[eq.energy()] - before[eq.energy()]).abs() / before[eq.energy()];
    assert!(mass < 1e-11, "mass drift {mass}");
    assert!(energy < 1e-11, "energy drift {energy}");
}

#[test]
fn symmetric_blast_stays_symmetric() {
    // A centered 2-D pressure pulse must remain mirror-symmetric in x and
    // y for the whole run (catches any left/right bias in sweeps).
    use mfc::core::bc::BcSpec;
    use mfc::core::fluid::Fluid;
    use mfc::{CaseBuilder, PatchState, Region};
    let n = 24;
    let case = CaseBuilder::new(vec![Fluid::air()], 2, [n, n, 1])
        .bc(BcSpec::reflective())
        .smear(1.0)
        .patch(Region::All, PatchState::single(1.2, [0.0; 3], 1.0e5))
        .patch(
            Region::Sphere {
                center: [0.5, 0.5, 0.0],
                radius: 0.15,
            },
            PatchState::single(1.2, [0.0; 3], 10.0e5),
        );
    let mut solver = Solver::new(&case, SolverConfig::default(), Context::serial());
    solver.run_steps(20).unwrap();
    let prim = solver.primitives();
    let eq = case.eq();
    let ng = solver.domain().pad(0);
    let mut asym = 0.0f64;
    for j in 0..n {
        for i in 0..n {
            let p = prim.get(i + ng, j + ng, 0, eq.energy());
            let p_mx = prim.get(n - 1 - i + ng, j + ng, 0, eq.energy());
            let p_my = prim.get(i + ng, n - 1 - j + ng, 0, eq.energy());
            let p_t = prim.get(j + ng, i + ng, 0, eq.energy());
            asym = asym
                .max((p - p_mx).abs() / p)
                .max((p - p_my).abs() / p)
                .max((p - p_t).abs() / p);
        }
    }
    assert!(asym < 1e-10, "asymmetry {asym}");
}
