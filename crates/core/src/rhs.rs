//! The finite-volume right-hand side: the paper's hot path.
//!
//! One RHS evaluation per direction does exactly what MFC does on the GPU:
//!
//! 1. bring the state into a direction-coalesced buffer (MFC's `v_temp`,
//!    Listings 3–4; kernel class `Pack`) as primitives: each pencil's
//!    conservative lines — x lines included — are gathered into scratch
//!    and converted there,
//! 2. WENO-reconstruct left/right face states along the now-unit-stride
//!    lines (class `Weno`),
//! 3. solve an approximate Riemann problem per face (class `Riemann`),
//!    recording the contact speed `S*` per face,
//! 4. accumulate the flux divergence into the RHS and the `S*` differences
//!    into the cell-centered velocity divergence (class `Update`),
//!
//! and finally closes the non-conservative volume-fraction equation with
//! `rhs[alpha_i] += alpha_i * div(u)` plus optional axisymmetric sources.
//!
//! Steps 1–4 are one set of stage kernels ([`crate::fused`]), and the two
//! engines [`RhsMode`] selects differ only in loop order: *fused* runs
//! every stage on one cache-resident pencil before the next, *staged* runs
//! each stage over every pencil before the next stage, through grid-sized
//! intermediates. Both skip ghost transverse lines, whose faces no update
//! reads, and both give the same bits because they run the same ops.

use std::ops::Range;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use mfc_acc::{AddView, Context, KernelClass, KernelCost, Lane, LaneGangBody};

use crate::axisym::Geometry;
use crate::domain::Domain;
use crate::eqidx::EqIdx;
use crate::fluid::Fluid;
use crate::fused::{sweep_axis, PencilScratch};
use crate::grid::Grid;
use crate::limiter::Limiter;
use crate::riemann::RiemannSolver;
use crate::state::StateField;
use crate::weno::WenoOrder;

/// The loop order of the per-direction sweeps. Both run the same five
/// stage kernels ([`crate::fused`]) and give the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(rename_all = "snake_case")]
pub enum RhsMode {
    /// Stage-major: each stage is one gang-parallel pass over every pencil
    /// of the sweep, with grid-sized intermediates between the passes —
    /// the unfused GPU pipeline, kept as the fusion-ablation baseline.
    Staged,
    /// Pencil-major: batches of transverse lines flow through
    /// gather→convert→WENO→Riemann→update in a single pass with a few KB
    /// of cache-resident per-gang scratch instead of grid-sized
    /// intermediates.
    #[default]
    Fused,
}

impl RhsMode {
    pub fn name(self) -> &'static str {
        match self {
            RhsMode::Staged => "staged",
            RhsMode::Fused => "fused",
        }
    }
}

/// Numerical options of one RHS evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RhsConfig {
    pub order: WenoOrder,
    pub solver: RiemannSolver,
    pub geometry: Geometry,
    /// Positivity enforcement for reconstructed face states.
    pub limiter: Limiter,
    /// Sweep loop order (stage-major vs pencil-major).
    #[serde(default)]
    pub mode: RhsMode,
}

impl Default for RhsConfig {
    fn default() -> Self {
        RhsConfig {
            order: WenoOrder::Weno5,
            solver: RiemannSolver::Hllc,
            geometry: Geometry::Cartesian,
            limiter: Limiter::default(),
            mode: RhsMode::default(),
        }
    }
}

/// Reusable buffers for RHS evaluations (the `v_temp`/`v_sf_t` analogs;
/// allocated once, never inside the time loop).
pub struct RhsWorkspace {
    pub(crate) dom: Domain,
    /// Whole-grid primitive state, canonical (x-coalesced) layout. Neither
    /// sweep engine touches it — both convert per pencil; only the viscous
    /// closure and explicit whole-grid conversions
    /// ([`crate::state::cons_to_prim_field`],
    /// [`crate::health::scan_and_convert`]) write it. It is a zeroed
    /// allocation, so in an inviscid run its pages never become resident.
    pub prim: StateField,
    /// Cell-centered velocity divergence, canonical spatial layout.
    pub(crate) divu: Vec<f64>,
    /// Ghost-inclusive cell widths per axis.
    pub(crate) widths: [Vec<f64>; 3],
    /// Radial centers (ghost-inclusive along y) for axisymmetric sources.
    pub(crate) radii: Vec<f64>,
    /// Pencil scratch of the fused engine, one slot per worker gang (grown
    /// lazily to the context's worker count on first use).
    pub(crate) fused: Vec<PencilScratch>,
    /// Grid-sized scratch of the staged engine, one slot per pencil of the
    /// largest sweep: allocated on the first staged evaluation, so a fused
    /// run never holds it.
    pub(crate) staged: Option<PencilScratch>,
}

impl RhsWorkspace {
    pub fn new(dom: Domain, grid: &Grid) -> Self {
        let widths = [
            grid.x.widths_with_ghosts(dom.pad(0)),
            grid.y.widths_with_ghosts(dom.pad(1)),
            grid.z.widths_with_ghosts(dom.pad(2)),
        ];
        let mut radii = vec![1.0; dom.ext(1)];
        for (j, r) in radii.iter_mut().enumerate() {
            let jj = j as isize - dom.pad(1) as isize;
            let centers = grid.y.centers();
            *r = if jj < 0 {
                centers[0] - (0 - jj) as f64 * grid.y.widths()[0]
            } else if jj as usize >= centers.len() {
                centers[centers.len() - 1]
                    + (jj as usize - centers.len() + 1) as f64 * grid.y.widths()[centers.len() - 1]
            } else {
                centers[jj as usize]
            };
        }
        RhsWorkspace {
            dom,
            prim: StateField::zeros(dom),
            divu: vec![0.0; dom.total_cells()],
            widths,
            radii,
            fused: Vec::new(),
            staged: None,
        }
    }

    /// The velocity divergence of the last evaluation (diagnostics).
    pub fn divu(&self) -> &[f64] {
        &self.divu
    }

    /// Ghost-inclusive radial (y) cell-center coordinates.
    pub fn radii(&self) -> &[f64] {
        &self.radii
    }
}

/// Evaluate `rhs = L(cons)`: one sweep per axis, then the grid-global
/// closures.
///
/// Ghost cells of `cons` must be valid (physical BCs and/or halo exchange
/// already applied). Every interior entry of `rhs` is overwritten — the x
/// sweep stores where the later sweeps add, so whatever `rhs` held there
/// before is never read — and no ghost entry is written.
pub fn compute_rhs(
    ctx: &Context,
    cfg: &RhsConfig,
    fluids: &[Fluid],
    cons: &StateField,
    ws: &mut RhsWorkspace,
    rhs: &mut StateField,
) {
    let dom = ws.dom;
    assert_eq!(cons.domain(), &dom);
    assert_eq!(rhs.domain(), &dom);
    // The ghost width only needs to *cover* the stencil: the recovery
    // ladder runs WENO3 (2 layers) inside a WENO5-sized (3-layer) domain.
    assert!(
        dom.ng >= cfg.order.ghost_layers().max(1),
        "domain ghost width {} does not cover the reconstruction stencil ({})",
        dom.ng,
        cfg.order.ghost_layers().max(1)
    );
    // 1–6. One sweep per direction; the x sweep initialises the interior
    //      of `rhs` and div(u).
    for axis in 0..dom.eq.ndim() {
        sweep_axis(ctx, cfg, fluids, cons, ws, rhs, axis);
    }

    // 7. Non-conservative volume-fraction source: rhs[alpha] += alpha div u
    //    (the conversion copies alpha bit for bit, so it is read from cons).
    alpha_source(ctx, &dom, cons, &ws.divu, rhs);

    // 8. Geometric sources (axisymmetric / cylindrical), pointwise: each
    //    interior cell is converted in-kernel.
    match cfg.geometry {
        Geometry::Cartesian => {}
        Geometry::Axisymmetric => {
            crate::axisym::axisym_source(ctx, &dom, fluids, cons, &ws.radii, rhs);
        }
        Geometry::Cylindrical3D => {
            crate::axisym::cylindrical_source(ctx, &dom, fluids, cons, &ws.radii, rhs);
        }
    }

    // 9. Viscous fluxes (Navier-Stokes terms), when any fluid is viscous:
    //    a stencil over primitives, ghosts included.
    if crate::viscous::is_viscous(fluids) {
        crate::state::cons_to_prim_field(ctx, fluids, cons, &mut ws.prim);
        crate::viscous::add_viscous_fluxes(ctx, &dom, fluids, &ws.prim, &ws.widths, rhs);
    }
}

/// `rhs[alpha_i] += alpha_i * div(u)` over interior cells; `alpha_i` is
/// read from the state's advected slots, conservative or primitive alike.
fn alpha_source(
    ctx: &Context,
    dom: &Domain,
    state: &StateField,
    divu: &[f64],
    rhs: &mut StateField,
) {
    let eq = dom.eq;
    if eq.n_adv() == 0 {
        return;
    }
    let t0 = Instant::now();
    let cost = KernelCost::new(
        KernelClass::Other,
        2.0 * eq.n_adv() as f64,
        8.0 * (eq.n_adv() + 1) as f64,
        8.0 * eq.n_adv() as f64,
    );
    let kernel = AlphaSourceKernel {
        eq,
        n: dom.n,
        pad: [dom.pad(0), dom.pad(1), dom.pad(2)],
        ext1: dom.ext(0),
        ext2: dom.ext(1),
        block: dom.total_cells(),
        state: state.as_slice(),
        divu,
    };
    let (rows, items) = (dom.n[1] * dom.n[2], dom.interior_cells() as u64);
    let gangs = ctx.gang_vec_scope(
        rows,
        items,
        &mut vec![(); ctx.workers()],
        [rhs.as_mut_slice()],
        &kernel,
        |()| {},
    );
    let lanes = ctx.vector_width();
    ctx.record(
        "s_alpha_source",
        cost,
        items,
        gangs,
        lanes,
        t0,
        t0.elapsed(),
    );
}

/// Gang body of the alpha source over interior x rows, lane-tiled along
/// each row: alpha, div(u) and the RHS slots are all unit-stride in i
/// within a row.
struct AlphaSourceKernel<'a> {
    eq: EqIdx,
    /// Interior cells per axis.
    n: [usize; 3],
    pad: [usize; 3],
    /// Ghost-inclusive cells per x line and per y column.
    ext1: usize,
    ext2: usize,
    block: usize,
    state: &'a [f64],
    divu: &'a [f64],
}

impl AlphaSourceKernel<'_> {
    #[inline(always)]
    fn packet<L: Lane, O: AddView>(&self, cell: usize, rhs: &mut O) {
        let dv = L::load(&self.divu[cell..]);
        for a in 0..self.eq.n_adv() {
            let e = self.eq.adv(a);
            let alpha = L::load(&self.state[cell + e * self.block..]);
            rhs.add_lanes(cell + e * self.block, alpha * dv);
        }
    }
}

/// A gang's rows are interior (y, z) lines, walked in order: one division
/// per gang, none per packet.
impl LaneGangBody<(), (), 1> for AlphaSourceKernel<'_> {
    fn run<L: Lane, O: AddView>(
        &self,
        _gang: usize,
        rows: Range<usize>,
        _: &mut (),
        [rhs]: &mut [O; 1],
    ) {
        let [nx, ny, _] = self.n;
        let (mut j, mut k) = (rows.start % ny, rows.start / ny);
        for _ in rows {
            let line = self.pad[0] + self.ext1 * (j + self.pad[1] + self.ext2 * (k + self.pad[2]));
            let mut col = 0;
            while col + L::WIDTH <= nx {
                self.packet::<L, O>(line + col, rhs);
                col += L::WIDTH;
            }
            while col < nx {
                self.packet::<f64, O>(line + col, rhs);
                col += 1;
            }
            j += 1;
            if j == ny {
                j = 0;
                k += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bc::{apply_bcs, BcSpec};
    use crate::grid::Grid1D;

    fn uniform_state(dom: Domain, fluids: &[Fluid], u: [f64; 3], p: f64) -> StateField {
        let eq = dom.eq;
        let mut prim = StateField::zeros(dom);
        for k in 0..dom.ext(2) {
            for j in 0..dom.ext(1) {
                for i in 0..dom.ext(0) {
                    prim.set(i, j, k, eq.cont(0), 1.2 * 0.6);
                    if eq.nf() > 1 {
                        prim.set(i, j, k, eq.cont(1), 1000.0 * 0.4);
                        prim.set(i, j, k, eq.adv(0), 0.6);
                    }
                    for (d, &ud) in u.iter().enumerate().take(eq.ndim()) {
                        prim.set(i, j, k, eq.mom(d), ud);
                    }
                    prim.set(i, j, k, eq.energy(), p);
                }
            }
        }
        let ctx = Context::serial();
        let mut cons = StateField::zeros(dom);
        crate::state::prim_to_cons_field(&ctx, fluids, &prim, &mut cons);
        cons
    }

    /// A uniform flow must be an exact steady state (free-stream
    /// preservation) in every dimension and loop order.
    #[test]
    fn uniform_flow_has_zero_rhs() {
        let fluids = [Fluid::air(), Fluid::water()];
        for ndim in 1..=3 {
            let eq = EqIdx::new(2, ndim);
            let n = match ndim {
                1 => [16, 1, 1],
                2 => [8, 8, 1],
                _ => [6, 6, 6],
            };
            let dom = Domain::new(n, 3, eq);
            let grid = Grid::uniform(n, [0.0; 3], [1.0, 1.0, 1.0]);
            let mut cons = uniform_state(dom, &fluids, [30.0, -10.0, 5.0], 2.0e5);
            let ctx = Context::serial();
            apply_bcs(&ctx, &mut cons, &BcSpec::periodic(), [(false, false); 3]);
            let mut ws = RhsWorkspace::new(dom, &grid);
            let mut rhs = StateField::zeros(dom);
            for mode in [RhsMode::Staged, RhsMode::Fused] {
                let cfg = RhsConfig {
                    mode,
                    ..Default::default()
                };
                compute_rhs(&ctx, &cfg, &fluids, &cons, &mut ws, &mut rhs);
                let max = rhs.as_slice().iter().fold(0.0f64, |m, &v| m.max(v.abs()));
                // Scale: energy flux ~ 1e5 * 30; relative tolerance.
                assert!(max < 1e-4, "ndim={ndim} {mode:?}: max |rhs| = {max}");
            }
        }
    }

    /// The divergence of a uniform flow is zero; of a linear velocity
    /// field u = x it is 1.
    #[test]
    fn divu_of_linear_velocity_field() {
        let fluids = [Fluid::air()];
        let eq = EqIdx::new(1, 1);
        let n = 32;
        let dom = Domain::new([n, 1, 1], 3, eq);
        let grid = Grid::new_1d(Grid1D::uniform(n, 0.0, 1.0));
        let ctx = Context::serial();
        let mut prim = StateField::zeros(dom);
        let h = 1.0 / n as f64;
        for i in 0..dom.ext(0) {
            let x = (i as f64 - 3.0 + 0.5) * h;
            prim.set(i, 0, 0, eq.cont(0), 1.0);
            prim.set(i, 0, 0, eq.mom(0), 0.01 * x); // gentle, subsonic
            prim.set(i, 0, 0, eq.energy(), 1.0e5);
        }
        let mut cons = StateField::zeros(dom);
        crate::state::prim_to_cons_field(&ctx, &fluids, &prim, &mut cons);
        let mut ws = RhsWorkspace::new(dom, &grid);
        let mut rhs = StateField::zeros(dom);
        let cfg = RhsConfig::default();
        compute_rhs(&ctx, &cfg, &fluids, &cons, &mut ws, &mut rhs);
        // Interior (away from unfilled ghost effects): divu ≈ 0.01.
        for i in 8..n - 8 {
            let dv = ws.divu()[i + 3];
            assert!((dv - 0.01).abs() < 1e-4, "divu[{i}] = {dv}");
        }
    }

    /// A non-trivial smooth two-phase state on `dom`, in any dimension.
    fn smooth_state(dom: Domain, fluids: &[Fluid]) -> StateField {
        let eq = dom.eq;
        let mut prim = StateField::zeros(dom);
        for k in 0..dom.ext(2) {
            for j in 0..dom.ext(1) {
                for i in 0..dom.ext(0) {
                    let s = (i + 2 * j + 3 * k) as f64 * 0.05;
                    let a = 0.3 + 0.4 * s.sin().abs().min(0.99);
                    prim.set(i, j, k, eq.cont(0), 1.2 * a);
                    prim.set(i, j, k, eq.cont(1), 1000.0 * (1.0 - a));
                    let u = [10.0 * s.cos(), -5.0 * s.sin(), 2.0];
                    for (d, &ud) in u.iter().enumerate().take(eq.ndim()) {
                        prim.set(i, j, k, eq.mom(d), ud);
                    }
                    prim.set(i, j, k, eq.energy(), 1.0e5 * (1.0 + 0.1 * s.sin()));
                    prim.set(i, j, k, eq.adv(0), a);
                }
            }
        }
        let ctx = Context::serial();
        let mut cons = StateField::zeros(dom);
        crate::state::prim_to_cons_field(&ctx, fluids, &prim, &mut cons);
        apply_bcs(&ctx, &mut cons, &BcSpec::periodic(), [(false, false); 3]);
        cons
    }

    /// The two loop orders run the same stage kernels, so they produce
    /// bitwise-identical RHS and div(u) fields, whether or not the
    /// workspace ran the other order first.
    #[test]
    fn sweep_loop_orders_are_bitwise_equivalent() {
        let fluids = [Fluid::air(), Fluid::water()];
        let dom = Domain::new([6, 5, 4], 3, EqIdx::new(2, 3));
        let grid = Grid::uniform([6, 5, 4], [0.0; 3], [1.0, 1.0, 1.0]);
        let cons = smooth_state(dom, &fluids);
        let ctx = Context::serial();
        let mut shared = RhsWorkspace::new(dom, &grid);
        let mut results = Vec::new();
        for mode in [RhsMode::Staged, RhsMode::Fused, RhsMode::Staged] {
            let cfg = RhsConfig {
                mode,
                ..Default::default()
            };
            let mut own = RhsWorkspace::new(dom, &grid);
            for ws in [&mut own, &mut shared] {
                let mut rhs = StateField::zeros(dom);
                compute_rhs(&ctx, &cfg, &fluids, &cons, ws, &mut rhs);
                results.push((rhs, ws.divu().to_vec()));
            }
        }
        for (k, r) in results.iter().enumerate() {
            assert!(r.0 == results[0].0 && r.1 == results[0].1, "run {k}");
        }
    }

    /// `compute_rhs` overwrites every interior slot of `rhs` and div(u) and
    /// writes no ghost: into buffers whose interior holds NaN and whose
    /// ghosts hold a sentinel it gives the bits of an evaluation into
    /// zeroed buffers, sentinels untouched — in 1-, 2- and 3-D, in both loop
    /// orders, on one gang and forked, on the WENO5 and degraded WENO3
    /// rungs. An x sweep that added instead of storing would leave NaN.
    #[test]
    fn stale_accumulators_are_overwritten_and_ghosts_untouched() {
        let fluids = [Fluid::air(), Fluid::water()];
        let sentinel = f64::from_bits(0x7ff4_dead_beef_0001);
        for (n, ndim) in [([40, 1, 1], 1), ([40, 40, 1], 2), ([13, 12, 11], 3)] {
            let dom = Domain::new(n, 3, EqIdx::new(2, ndim));
            let grid = Grid::uniform(n, [0.0; 3], [1.0; 3]);
            let cons = smooth_state(dom, &fluids);
            let interior: Vec<bool> = (0..dom.total_cells())
                .map(|c| {
                    let (n1, n2) = (dom.ext(0), dom.ext(1));
                    let (i, j, k) = (c % n1, (c / n1) % n2, c / (n1 * n2));
                    [i, j, k]
                        .iter()
                        .enumerate()
                        .all(|(a, &x)| (dom.pad(a)..dom.pad(a) + dom.n[a]).contains(&x))
                })
                .collect();
            let stale = |v: &mut [f64]| {
                for (c, x) in v.iter_mut().enumerate() {
                    *x = if interior[c % dom.total_cells()] {
                        f64::NAN
                    } else {
                        sentinel
                    };
                }
            };
            for order in [WenoOrder::Weno5, WenoOrder::Weno3] {
                for mode in [RhsMode::Staged, RhsMode::Fused] {
                    for workers in [1, 2] {
                        let cfg = RhsConfig {
                            order,
                            mode,
                            ..Default::default()
                        };
                        let ctx = Context::with_workers(workers);
                        let label = format!("{ndim}-D {order:?} {mode:?} workers={workers}");
                        let mut ws = RhsWorkspace::new(dom, &grid);
                        let mut want = StateField::zeros(dom);
                        compute_rhs(&ctx, &cfg, &fluids, &cons, &mut ws, &mut want);
                        let want_divu = ws.divu.clone();
                        let mut rhs = StateField::zeros(dom);
                        stale(rhs.as_mut_slice());
                        stale(&mut ws.divu);
                        compute_rhs(&ctx, &cfg, &fluids, &cons, &mut ws, &mut rhs);
                        for (what, got, want) in [
                            ("rhs", rhs.as_slice(), want.as_slice()),
                            ("div(u)", &ws.divu[..], &want_divu[..]),
                        ] {
                            for (c, (g, w)) in got.iter().zip(want).enumerate() {
                                let expect = if interior[c % dom.total_cells()] {
                                    *w
                                } else {
                                    sentinel
                                };
                                assert_eq!(g.to_bits(), expect.to_bits(), "{label}: {what}[{c}]");
                            }
                        }
                    }
                }
            }
        }
    }

    /// Kernel classes show up in the ledger with the paper's structure:
    /// WENO and Riemann dominate items, Pack is the pencil gather. Both
    /// loop orders record the same per-class items, flops and bytes — one
    /// row per stage per axis under `f_*` / `s_*` twins with the same
    /// per-item cost — and only the fused engine its `s_fused_sweep`
    /// marker.
    #[test]
    fn ledger_records_paper_kernel_classes() {
        let fluids = [Fluid::air(), Fluid::water()];
        let eq = EqIdx::new(2, 3);
        let dom = Domain::new([8, 8, 8], 3, eq);
        let grid = Grid::uniform([8, 8, 8], [0.0; 3], [1.0; 3]);
        let mut cons = uniform_state(dom, &fluids, [1.0, 2.0, 3.0], 1.0e5);
        apply_bcs(
            &Context::serial(),
            &mut cons,
            &BcSpec::periodic(),
            [(false, false); 3],
        );
        let ledger = |mode| {
            let ctx = Context::serial();
            let mut ws = RhsWorkspace::new(dom, &grid);
            let mut rhs = StateField::zeros(dom);
            let cfg = RhsConfig {
                mode,
                ..Default::default()
            };
            compute_rhs(&ctx, &cfg, &fluids, &cons, &mut ws, &mut rhs);
            ctx.ledger().by_class()
        };
        let (fused, staged) = (ledger(RhsMode::Fused), ledger(RhsMode::Staged));
        for class in [
            KernelClass::Weno,
            KernelClass::Riemann,
            KernelClass::Pack,
            KernelClass::Update,
            KernelClass::Fused,
        ] {
            assert!(fused.contains_key(&class), "missing {class:?}");
        }
        assert!(fused[&KernelClass::Weno].flops > 0.0);
        assert!(fused[&KernelClass::Riemann].items > 0);
        assert!(!staged.contains_key(&KernelClass::Fused));
        assert_eq!(staged.len() + 1, fused.len());
        for (class, s) in &staged {
            let f = &fused[class];
            assert_eq!(
                (s.items, s.flops, s.bytes_read, s.bytes_written),
                (f.items, f.flops, f.bytes_read, f.bytes_written),
                "{class:?}"
            );
        }
    }
}
