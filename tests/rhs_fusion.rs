//! The two sweep loop orders run one set of stage kernels — gather,
//! convert, WENO, Riemann, update — pencil-major (fused) or stage-major
//! (staged), so they must agree to the bit: same reconstruction, same
//! Riemann solves, same update order per cell; only the loop order and
//! the scratch layout differ.
//!
//! Covered here: all five shipped case files (serial and 2-rank
//! distributed) plus a property sweep over domain shapes (extents that
//! are not multiples of the 8-line pencil batch), orders, Riemann
//! solvers, limiters, geometries, viscosity, worker counts, lane widths
//! and the recovery ladder's degraded rung.

use proptest::prelude::*;

use mfc::core::axisym::Geometry;
use mfc::core::bc::apply_bcs;
use mfc::core::limiter::Limiter;
use mfc::core::par::{run_distributed, run_single};
use mfc::core::rhs::{compute_rhs, RhsConfig, RhsMode, RhsWorkspace};
use mfc::core::riemann::RiemannSolver;
use mfc::core::state::StateField;
use mfc::core::weno::WenoOrder;
use mfc::mpsim::Staging;
use mfc::{presets, CaseBuilder, Context, Solver, SolverConfig};
use mfc_cli::CaseFile;

fn cases_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../cases")
}

/// Load a shipped case, shrunk so equivalence runs stay fast.
fn shipped(name: &str, cells: [usize; 3]) -> (CaseBuilder, SolverConfig) {
    let mut cf = CaseFile::from_path(&cases_dir().join(name)).unwrap();
    cf.cells = cells;
    let case = cf.to_case().unwrap();
    let cfg = cf.numerics.to_solver_config().unwrap();
    (case, cfg)
}

fn with_mode(mut cfg: SolverConfig, mode: RhsMode) -> SolverConfig {
    cfg.rhs.mode = mode;
    cfg
}

const SHIPPED: [(&str, [usize; 3], usize); 5] = [
    ("sod.json", [200, 1, 1], 8),
    ("taylor_green.json", [32, 32, 1], 5),
    ("bubble_cloud_2d.json", [48, 48, 1], 4),
    ("shock_droplet_2d.json", [48, 48, 1], 4),
    ("shock_droplet_3d.json", [13, 10, 9], 4),
];

#[test]
fn fused_matches_staged_bitwise_on_all_shipped_cases() {
    for (name, cells, steps) in SHIPPED {
        let (case, cfg) = shipped(name, cells);
        let staged = run_single(&case, with_mode(cfg, RhsMode::Staged), steps);
        let fused = run_single(&case, with_mode(cfg, RhsMode::Fused), steps);
        assert_eq!(fused.max_abs_diff(&staged), 0.0, "{name}");
    }
}

#[test]
fn fused_matches_staged_bitwise_distributed_2_ranks() {
    for (name, cells, steps) in SHIPPED {
        let (case, cfg) = shipped(name, cells);
        let (staged, _) = run_distributed(
            &case,
            with_mode(cfg, RhsMode::Staged),
            2,
            steps,
            Staging::DeviceDirect,
        )
        .unwrap();
        let (fused, _) = run_distributed(
            &case,
            with_mode(cfg, RhsMode::Fused),
            2,
            steps,
            Staging::DeviceDirect,
        )
        .unwrap();
        assert_eq!(fused.max_abs_diff(&staged), 0.0, "{name}");
    }
}

#[test]
fn fused_matches_staged_in_3d() {
    let case = presets::two_phase_benchmark(3, [12, 12, 12]);
    let cfg = SolverConfig::default();
    let staged = run_single(&case, with_mode(cfg, RhsMode::Staged), 4);
    let fused = run_single(&case, with_mode(cfg, RhsMode::Fused), 4);
    assert_eq!(fused.max_abs_diff(&staged), 0.0);
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// An extent of `8 k + r` cells, `r` in 1..8: never a whole number of
/// 8-line pencil batches, so every sweep has a short last pencil.
fn off_batch(k: usize, r: usize) -> usize {
    8 * k + r
}

/// One RHS evaluation of `solver`'s state under `cfg`, on a fresh
/// workspace: the RHS and div(u) bits.
fn rhs_bits(solver: &Solver, case: &CaseBuilder, ctx: &Context, cfg: &RhsConfig) -> Vec<u64> {
    let dom = *solver.domain();
    let mut q = solver.state().clone();
    apply_bcs(ctx, &mut q, &case.bc, [(false, false); 3]);
    let mut ws = RhsWorkspace::new(dom, solver.grid());
    let mut rhs = StateField::zeros(dom);
    compute_rhs(ctx, cfg, &case.fluids, &q, &mut ws, &mut rhs);
    let mut out = bits(rhs.as_slice());
    out.extend(bits(ws.divu()));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Staged and fused agree bitwise across random domain shapes,
    /// reconstruction orders, Riemann solvers, limiters, geometries
    /// (Cartesian, axisymmetric, cylindrical 3-D with its radial metric),
    /// with and without viscosity, at 1 and 3 workers and lane widths 1
    /// and 4 — and, on the stepped state, under the recovery ladder's last
    /// rung (WENO3 + Rusanov inside the WENO5-sized domain).
    #[test]
    fn fused_matches_staged_on_random_configs(
        ndim in 1usize..=3,
        k in (1usize..3, 1usize..3, 1usize..3),
        r in (1usize..8, 1usize..8, 1usize..8),
        order_i in 0usize..3,
        solver_i in 0usize..3,
        limiter_i in 0usize..2,
        curved in proptest::bool::ANY,
        viscous in proptest::bool::ANY,
        workers_i in 0usize..2,
        width_i in 0usize..2,
        degraded in proptest::bool::ANY,
        steps in 1usize..3,
    ) {
        let n = match ndim {
            1 => [off_batch(k.0, r.0) * 4, 1, 1],
            // 2-D blocks reach the 1024-item threshold of a gang split.
            2 => [off_batch(k.0 + 2, r.0), off_batch(k.1 + 2, r.1), 1],
            _ => [off_batch(k.0, r.0), off_batch(k.1, r.1), off_batch(k.2, r.2)],
        };
        let mut case = presets::two_phase_benchmark(ndim, n);
        if viscous {
            case.fluids = case.fluids.iter().map(|f| f.with_viscosity(1e-3)).collect();
        }
        let mut cfg = SolverConfig::default();
        cfg.rhs.order = [WenoOrder::Weno3, WenoOrder::Weno5, WenoOrder::Weno5Z][order_i];
        cfg.rhs.solver = [RiemannSolver::Hllc, RiemannSolver::Hll, RiemannSolver::Rusanov][solver_i];
        cfg.rhs.limiter = [Limiter::FirstOrderFallback, Limiter::ZhangShu][limiter_i];
        cfg.rhs.geometry = match (curved, ndim) {
            (true, 2) => Geometry::Axisymmetric,
            (true, 3) => Geometry::Cylindrical3D,
            _ => Geometry::Cartesian,
        };
        let ctx = Context::with_workers([1, 3][workers_i]).with_vector_width([1, 4][width_i]);
        let stepped = |mode| {
            let mut solver = Solver::new(&case, with_mode(cfg, mode), ctx.clone());
            solver.run_steps(steps).unwrap();
            solver
        };
        let (staged, fused) = (stepped(RhsMode::Staged), stepped(RhsMode::Fused));
        prop_assert!(bits(staged.state().as_slice()) == bits(fused.state().as_slice()));
        if degraded && cfg.rhs.order.ghost_layers() == 3 {
            let rung = RhsConfig {
                order: WenoOrder::Weno3,
                solver: RiemannSolver::Rusanov,
                ..cfg.rhs
            };
            let eval = |mode| rhs_bits(&fused, &case, &ctx, &RhsConfig { mode, ..rung });
            prop_assert!(eval(RhsMode::Staged) == eval(RhsMode::Fused), "degraded rung");
        }
    }
}
