//! Discrete conservation under periodic boundaries: the telescoping-flux
//! property of the finite-volume scheme, across dimensions, orders,
//! solvers, and pack strategies.

use mfc::core::rhs::{RhsConfig, RhsMode};
use mfc::core::riemann::RiemannSolver;
use mfc::core::weno::WenoOrder;
use mfc::{presets, Context, Solver, SolverConfig};

fn drift(ndim: usize, cfg: SolverConfig, steps: usize) -> f64 {
    let n = match ndim {
        1 => [48, 1, 1],
        2 => [16, 16, 1],
        _ => [10, 10, 10],
    };
    let case = presets::two_phase_benchmark(ndim, n);
    let mut solver = Solver::new(&case, cfg, Context::with_workers(cfg.workers));
    let before = solver.conservation();
    solver.run_steps(steps).unwrap();
    let after = solver.conservation();
    let eq = case.eq();
    // Conserved rows: partial densities, momentum, energy (alpha rows are
    // non-conservative by construction).
    (0..=eq.energy())
        .map(|e| (after[e] - before[e]).abs() / before[e].abs().max(1e-30))
        .fold(0.0, f64::max)
}

#[test]
fn conserved_in_every_dimension() {
    for ndim in 1..=3 {
        let d = drift(ndim, SolverConfig::default(), 5);
        assert!(d < 1e-11, "ndim={ndim}: drift {d}");
    }
}

#[test]
fn conserved_for_every_order() {
    for order in [WenoOrder::First, WenoOrder::Weno3, WenoOrder::Weno5] {
        let cfg = SolverConfig {
            rhs: RhsConfig {
                order,
                ..Default::default()
            },
            ..Default::default()
        };
        let d = drift(2, cfg, 5);
        assert!(d < 1e-11, "{order:?}: drift {d}");
    }
}

#[test]
fn conserved_for_every_solver() {
    for solver in [
        RiemannSolver::Hllc,
        RiemannSolver::Hll,
        RiemannSolver::Rusanov,
    ] {
        let cfg = SolverConfig {
            rhs: RhsConfig {
                solver,
                ..Default::default()
            },
            ..Default::default()
        };
        let d = drift(2, cfg, 5);
        assert!(d < 1e-11, "{solver:?}: drift {d}");
    }
}

#[test]
fn conserved_in_both_sweep_loop_orders() {
    for mode in [RhsMode::Staged, RhsMode::Fused] {
        let cfg = SolverConfig {
            rhs: RhsConfig {
                mode,
                ..Default::default()
            },
            ..Default::default()
        };
        let d = drift(3, cfg, 3);
        assert!(d < 1e-11, "{mode:?}: drift {d}");
    }
}

#[test]
fn conserved_at_every_worker_count() {
    // Gang-parallel sweeps keep the telescoping-flux property: the
    // divergence accumulation writes each cell from exactly one gang, so
    // the discrete sums are the serial ones bit for bit.
    for workers in [2usize, 3, 4, 8] {
        let cfg = SolverConfig {
            workers,
            ..Default::default()
        };
        let d = drift(3, cfg, 3);
        assert!(d < 1e-11, "workers={workers}: drift {d}");
    }
}

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
