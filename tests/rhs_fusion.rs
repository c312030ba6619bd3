//! The recovery ladder's degraded rung in both sweep loop orders.
//!
//! The two loop orders run one set of stage kernels — gather, convert,
//! WENO, Riemann, update — pencil-major (fused) or stage-major (staged),
//! so they must agree to the bit: same reconstruction, same Riemann
//! solves, same update order per cell; only the loop order and the
//! scratch layout differ. The loop order is an axis of the generated
//! matrix (`tests/matrix.rs`), whose stage-major members hold every value
//! of every other axis and are checked against their pencil-major
//! references there. The degraded rung — WENO3 + Rusanov in a domain
//! sized for WENO5 — is no axis value, so it is checked here.

use mfc::core::axisym::Geometry;
use mfc::core::bc::apply_bcs;
use mfc::core::limiter::Limiter;
use mfc::core::rhs::{compute_rhs, RhsConfig, RhsMode, RhsWorkspace};
use mfc::core::riemann::RiemannSolver;
use mfc::core::state::StateField;
use mfc::core::weno::WenoOrder;
use mfc::{presets, CaseBuilder, Context, Solver, SolverConfig};

const STAGED: RhsMode = RhsMode::Staged;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
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

/// The recovery ladder's last rung runs WENO3 + Rusanov inside a domain
/// sized for WENO5's ghost layers, under the run's limiter and geometry;
/// both loop orders give the same RHS bits there on the stepped state: in
/// every dimension, Cartesian and curvilinear (axisymmetric in 2-D,
/// cylindrical 3-D with its radial metric), under both limiters, with and
/// without viscosity, serially and at 3 workers × width 8, on extents that
/// are not multiples of the pencil batch.
#[test]
fn degraded_rung_matches_in_both_loop_orders() {
    for (ndim, n, curved) in [
        (1, [44, 1, 1], None),
        (2, [19, 21, 1], Some(Geometry::Axisymmetric)),
        (3, [11, 10, 9], Some(Geometry::Cylindrical3D)),
    ] {
        let geometries = [Some(Geometry::Cartesian), curved];
        for geometry in geometries.into_iter().flatten() {
            for limiter in [Limiter::FirstOrderFallback, Limiter::ZhangShu] {
                for viscous in [false, true] {
                    for (workers, width) in [(1, 1), (3, 8)] {
                        let mut case = presets::two_phase_benchmark(ndim, n);
                        if viscous {
                            case.fluids =
                                case.fluids.iter().map(|f| f.with_viscosity(1e-3)).collect();
                        }
                        let mut cfg = SolverConfig::default();
                        cfg.rhs.geometry = geometry;
                        cfg.rhs.limiter = limiter;
                        let ctx = Context::with_workers(workers).with_vector_width(width);
                        let mut solver = Solver::new(&case, cfg, ctx.clone());
                        solver.run_steps(1).unwrap();
                        let rung = RhsConfig {
                            order: WenoOrder::Weno3,
                            solver: RiemannSolver::Rusanov,
                            ..cfg.rhs
                        };
                        let eval =
                            |mode| rhs_bits(&solver, &case, &ctx, &RhsConfig { mode, ..rung });
                        assert!(
                            eval(STAGED) == eval(RhsMode::Fused),
                            "{ndim}-D {geometry:?}, {limiter:?}, viscous {viscous}, \
                             {workers} workers, width {width}"
                        );
                    }
                }
            }
        }
    }
}
