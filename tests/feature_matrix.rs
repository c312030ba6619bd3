//! Cross-feature integration against external truth and robustness:
//! WENO-Z against the exact Sod solution, a shock on a stretched grid,
//! mixed BCs, every RK scheme on Sod, bitwise restart, and the Rusanov and
//! HLL solvers on the flows they are meant for. The bitwise feature
//! combinations (viscous + distributed, loop orders × schemes × orders,
//! worker gangs × ranks, solvers × fluid counts) are members of the
//! generated matrix (`tests/matrix.rs`).

use mfc::core::bc::{BcKind, BcSpec};
use mfc::core::fluid::Fluid;
use mfc::core::rhs::RhsConfig;
use mfc::core::riemann::{ExactRiemann, PrimSide, RiemannSolver};
use mfc::core::time::TimeScheme;
use mfc::core::weno::WenoOrder;
use mfc::{presets, CaseBuilder, Context, PatchState, Region, Solver, SolverConfig};

#[test]
fn wenoz_solves_sod_accurately() {
    let case = presets::sod(200);
    let cfg = SolverConfig {
        rhs: RhsConfig {
            order: WenoOrder::Weno5Z,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut solver = Solver::new(&case, cfg, Context::serial());
    solver.run_until(0.15, 100_000).unwrap();
    let air = Fluid::air();
    let exact = ExactRiemann::solve(
        PrimSide {
            rho: 1.0,
            u: 0.0,
            p: 1.0,
            fluid: air,
        },
        PrimSide {
            rho: 0.125,
            u: 0.0,
            p: 0.1,
            fluid: air,
        },
    );
    let prim = solver.primitives();
    let eq = case.eq();
    let t = solver.time();
    let mut l1 = 0.0;
    for i in 0..200 {
        let x = (i as f64 + 0.5) / 200.0;
        let (rho_ex, _, _) = exact.sample((x - 0.5) / t);
        l1 += (prim.get(i + 3, 0, 0, eq.cont(0)) - rho_ex).abs();
    }
    l1 /= 200.0;
    assert!(l1 < 0.015, "WENO-Z Sod L1 error {l1}");
}

#[test]
fn shock_on_stretched_grid_stays_stable_and_conservative_interiorwise() {
    // Sod tube on a grid refined around the initial diaphragm.
    use mfc::core::bc::apply_bcs;
    use mfc::core::domain::Domain;
    use mfc::core::grid::{Grid, Grid1D};
    use mfc::core::rhs::{compute_rhs, RhsWorkspace};
    use mfc::core::state::StateField;
    use mfc::core::time::{rk_step, RkWorkspace};

    let n = 128;
    let eq = mfc::core::eqidx::EqIdx::new(1, 1);
    let dom = Domain::new([n, 1, 1], 3, eq);
    let grid = Grid::new_1d(Grid1D::stretched(n, 0.0, 1.0, 4.0, 0.5));
    let fluids = [Fluid::air()];
    let ctx = Context::serial();

    let mut prim = StateField::zeros(dom);
    for i in 0..dom.ext(0) {
        let gi = i as isize - 3;
        let x = if gi < 0 {
            0.0
        } else if gi as usize >= n {
            1.0
        } else {
            grid.x.centers()[gi as usize]
        };
        let (rho, p) = if x < 0.5 { (1.0, 1.0) } else { (0.125, 0.1) };
        prim.set(i, 0, 0, eq.cont(0), rho);
        prim.set(i, 0, 0, eq.energy(), p);
    }
    let mut q = StateField::zeros(dom);
    mfc::core::state::prim_to_cons_field(&ctx, &fluids, &prim, &mut q);
    let mut ws = RhsWorkspace::new(dom, &grid);
    let mut rk = RkWorkspace::new(&q);
    let bc = BcSpec::transmissive();
    let widths = [
        grid.x.widths_with_ghosts(3),
        grid.y.widths_with_ghosts(0),
        grid.z.widths_with_ghosts(0),
    ];
    let rhs_cfg = RhsConfig::default();
    for _ in 0..100 {
        mfc::core::state::cons_to_prim_field(&ctx, &fluids, &q, &mut ws.prim);
        let dt = mfc::core::cfl::try_max_dt_geom(
            &ctx,
            &fluids,
            &ws.prim,
            [&widths[0], &widths[1], &widths[2]],
            0.5,
            None,
        )
        .unwrap();
        rk_step(TimeScheme::Rk3, dt, &mut q, &mut rk, |q, rhs| {
            apply_bcs(&ctx, q, &bc, [(false, false); 3]);
            compute_rhs(&ctx, &rhs_cfg, &fluids, q, &mut ws, rhs);
        });
    }
    // Positivity + bounded solution everywhere.
    let mut back = StateField::zeros(dom);
    mfc::core::state::cons_to_prim_field(&ctx, &fluids, &q, &mut back);
    for i in 0..n {
        let rho = back.get(i + 3, 0, 0, eq.cont(0));
        let p = back.get(i + 3, 0, 0, eq.energy());
        assert!(rho > 0.0 && rho < 1.2, "rho[{i}] = {rho}");
        assert!(p > 0.0 && p < 1.3, "p[{i}] = {p}");
    }
}

#[test]
fn mixed_bc_axes_work_together() {
    // Periodic in x, reflective in y: a channel.
    let case = CaseBuilder::new(vec![Fluid::air()], 2, [24, 16, 1])
        .bc(BcSpec {
            lo: [BcKind::Periodic, BcKind::Reflective, BcKind::Transmissive],
            hi: [BcKind::Periodic, BcKind::Reflective, BcKind::Transmissive],
        })
        .patch(
            Region::All,
            PatchState::single(1.2, [80.0, 0.0, 0.0], 1.0e5),
        );
    let mut solver = Solver::new(&case, SolverConfig::default(), Context::serial());
    let c0 = solver.conservation();
    solver.run_steps(20).unwrap();
    let c1 = solver.conservation();
    let eq = case.eq();
    // Mass and energy conserved; the uniform axial flow is undisturbed.
    assert!((c1[eq.cont(0)] - c0[eq.cont(0)]).abs() / c0[eq.cont(0)] < 1e-11);
    assert!((c1[eq.energy()] - c0[eq.energy()]).abs() / c0[eq.energy()] < 1e-11);
    let prim = solver.primitives();
    for j in 0..16 {
        let v = prim.get(12 + 3, j + 3, 0, eq.mom(1));
        assert!(v.abs() < 1e-9, "wall-normal velocity appeared: {v}");
    }
}

#[test]
fn every_time_scheme_solves_sod() {
    for scheme in [TimeScheme::Rk1, TimeScheme::Rk2, TimeScheme::Rk3] {
        let case = presets::sod(100);
        let cfg = SolverConfig {
            scheme,
            // RK1 with WENO5 is only linearly stable at small CFL.
            dt: mfc::DtMode::Cfl(if scheme == TimeScheme::Rk1 { 0.2 } else { 0.5 }),
            ..Default::default()
        };
        let mut solver = Solver::new(&case, cfg, Context::serial());
        solver.run_until(0.1, 100_000).unwrap();
        let prim = solver.primitives();
        let eq = case.eq();
        for i in 0..100 {
            let rho = prim.get(i + 3, 0, 0, eq.cont(0));
            assert!(rho > 0.0 && rho < 1.2, "{scheme:?}: rho[{i}] = {rho}");
        }
    }
}

#[test]
fn restart_continues_bitwise() {
    use mfc::core::restart::{load_checkpoint, save_checkpoint};
    let case = presets::two_phase_benchmark(2, [16, 16, 1]);
    let cfg = SolverConfig::default();

    // Reference: 15 uninterrupted steps.
    let mut reference = Solver::new(&case, cfg, Context::serial());
    reference.run_steps(15).unwrap();

    // Interrupted: 10 steps, checkpoint, new solver, restore, 5 more.
    let mut first = Solver::new(&case, cfg, Context::serial());
    first.run_steps(10).unwrap();
    let path = std::env::temp_dir().join(format!("mfc_restart_{}.bin", std::process::id()));
    save_checkpoint(&path, first.state(), first.time(), first.steps()).unwrap();
    drop(first);

    let (header, q) = load_checkpoint(&path).unwrap();
    let mut resumed = Solver::new(&case, cfg, Context::serial());
    resumed.restore(q, header.t, header.steps);
    resumed.run_steps(5).unwrap();
    std::fs::remove_file(&path).unwrap();

    assert_eq!(resumed.steps(), 15);
    assert_eq!(resumed.time().to_bits(), reference.time().to_bits());
    assert_eq!(resumed.state().as_slice(), reference.state().as_slice());
}

#[test]
fn rusanov_runs_the_two_phase_benchmark() {
    // Rusanov diffuses alpha and the partial densities consistently, so
    // it survives (diffusively) on multiphase problems.
    let case = presets::two_phase_benchmark(2, [16, 16, 1]);
    let cfg = SolverConfig {
        rhs: RhsConfig {
            solver: RiemannSolver::Rusanov,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut solver = Solver::new(&case, cfg, Context::serial());
    solver.run_steps(10).unwrap();
    let prim = solver.primitives();
    let eq = case.eq();
    let dom = *solver.domain();
    for (i, j, k) in dom.interior() {
        let p = prim.get(i, j, k, eq.energy());
        assert!(p.is_finite() && p > 0.0, "Rusanov: p = {p}");
    }
}

#[test]
fn hll_runs_single_fluid_flows() {
    // HLL averages the contact away, so the mixture EOS coefficients and
    // the partial densities drift apart at material interfaces — the
    // textbook reason diffuse-interface codes need HLLC. As a baseline it
    // is validated on single-fluid problems.
    let case = CaseBuilder::new(vec![Fluid::air()], 2, [16, 16, 1])
        .bc(BcSpec::periodic())
        .smear(1.0)
        .patch(
            Region::All,
            PatchState::single(1.2, [30.0, 10.0, 0.0], 1.0e5),
        )
        .patch(
            Region::Sphere {
                center: [0.5, 0.5, 0.0],
                radius: 0.2,
            },
            PatchState::single(0.6, [30.0, 10.0, 0.0], 1.0e5),
        );
    let cfg = SolverConfig {
        rhs: RhsConfig {
            solver: RiemannSolver::Hll,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut solver = Solver::new(&case, cfg, Context::serial());
    solver.run_steps(15).unwrap();
    let prim = solver.primitives();
    let eq = case.eq();
    let dom = *solver.domain();
    for (i, j, k) in dom.interior() {
        let p = prim.get(i, j, k, eq.energy());
        assert!(p.is_finite() && p > 0.0, "HLL: p = {p}");
    }
}
