//! The finite-volume right-hand side: the paper's hot path.
//!
//! One RHS evaluation per direction does exactly what MFC does on the GPU:
//!
//! 1. bring the state into a direction-coalesced buffer (MFC's `v_temp`,
//!    Listings 3–4; kernel class `Pack`) as primitives: the fused engine
//!    gathers each pencil's conservative lines — x lines included — into
//!    cache-resident scratch and converts them there; the staged
//!    reference converts the whole grid into `RhsWorkspace::prim` and
//!    *reshapes* it for y/z,
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
//! Steps 1–4 run either as full-grid *staged* passes (each stage streams
//! the whole grid through memory) or through the cache-blocked *fused*
//! pencil engine ([`crate::fused`]) — selected by [`RhsMode`], bitwise
//! identically: every primitive either engine reads comes from the same
//! per-cell [`crate::eos::cons_to_prim`].

use serde::{Deserialize, Serialize};
use std::time::Instant;

use mfc_acc::{Context, KernelClass, KernelCost, Lane, LaneKernel, LaunchConfig, ParSlice};
use mfc_layout::{
    transpose_2134_geam, transpose_3214_geam, transpose_3214_tiled, Dims3, Dims4, Flat4D,
};

use crate::axisym::Geometry;
use crate::domain::Domain;
use crate::eqidx::{with_eq_layout, EqIdx, EqLayout};
use crate::fluid::{Fluid, FluidTable};
use crate::grid::Grid;
use crate::limiter::{admissible, admissible_mask, limit_state, Limiter};
use crate::riemann::RiemannSolver;
use crate::state::StateField;
use crate::weno::{reconstruct_sweep, WenoOrder};

/// How the y/z coalescing reshapes are executed (§III-D ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum PackStrategy {
    /// Cache-tiled transposes (the cuTENSOR-like path).
    Tiled,
    /// Two-step batched GEAM decomposition (the hipBLAS path).
    Geam,
}

/// How the per-direction sweeps are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(rename_all = "snake_case")]
pub enum RhsMode {
    /// Full-grid stages with grid-sized intermediates: pack, WENO, Riemann
    /// and update each stream the entire grid through memory. This mirrors
    /// the unfused GPU pipeline and stays alive as the ablation baseline.
    Staged,
    /// Cache-blocked pencil engine ([`crate::fused`]): batches of
    /// transverse lines flow through pack→WENO→Riemann→update in a single
    /// pass with small per-pencil scratch instead of grid-sized
    /// intermediates, and ghost transverse lines (whose staged outputs are
    /// never consumed) are skipped. Bitwise identical to `Staged` with
    /// substantially less memory traffic.
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
    pub pack: PackStrategy,
    pub geometry: Geometry,
    /// Positivity enforcement for reconstructed face states.
    pub limiter: Limiter,
    /// Sweep execution engine (staged full-grid stages vs fused pencils).
    #[serde(default)]
    pub mode: RhsMode,
}

impl Default for RhsConfig {
    fn default() -> Self {
        RhsConfig {
            order: WenoOrder::Weno5,
            solver: RiemannSolver::Hllc,
            pack: PackStrategy::Tiled,
            geometry: Geometry::Cartesian,
            limiter: Limiter::default(),
            mode: RhsMode::default(),
        }
    }
}

/// Reusable buffers for RHS evaluations (the `v_temp`/`v_sf_t` analogs;
/// allocated once, never inside the time loop).
///
/// The grid-sized staged intermediates (`packed`, `left`, `right`, `flux`,
/// `ustar`) are grown lazily on the first `Staged` evaluation: the fused
/// pencil engine replaces all of them with a few KB of per-pencil scratch
/// ([`crate::fused::FusedScratch`]), so a fused-mode run never allocates
/// them at all.
pub struct RhsWorkspace {
    pub(crate) dom: Domain,
    /// Whole-grid primitive state, canonical (x-coalesced) layout. Only
    /// the staged sweeps and the viscous closure write it; the fused
    /// engine converts per pencil and never touches it. It is a zeroed
    /// allocation, so in a fused inviscid run its pages never become
    /// resident.
    pub prim: StateField,
    /// Direction-coalesced buffer for the current sweep (y/z reshape
    /// target; the x sweep reads the canonical `prim` buffer directly).
    packed: Vec<Flat4D>,
    /// Face states and fluxes, per direction.
    left: Vec<Flat4D>,
    right: Vec<Flat4D>,
    flux: Vec<Flat4D>,
    ustar: Vec<Flat4D>,
    /// Cell-centered velocity divergence, canonical spatial layout.
    pub(crate) divu: Vec<f64>,
    /// Ghost-inclusive cell widths per axis.
    pub(crate) widths: [Vec<f64>; 3],
    /// Radial centers (ghost-inclusive along y) for axisymmetric sources.
    pub(crate) radii: Vec<f64>,
    /// GEAM scratch.
    scratch: Vec<f64>,
    /// Per-pencil scratch of the fused sweep engine, one block per worker
    /// gang (grown lazily to the context's worker count on first use).
    pub(crate) fused: Vec<crate::fused::FusedScratch>,
}

impl RhsWorkspace {
    pub fn new(dom: Domain, grid: &Grid) -> Self {
        let d3 = dom.dims3();
        let widths = [
            grid.x.widths_with_ghosts(dom.pad(0)),
            grid.y.widths_with_ghosts(dom.pad(1)),
            grid.z.widths_with_ghosts(dom.pad(2)),
        ];
        let mut radii = vec![1.0; d3.n2];
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
            packed: Vec::new(),
            left: Vec::new(),
            right: Vec::new(),
            flux: Vec::new(),
            ustar: Vec::new(),
            divu: vec![0.0; d3.len()],
            widths,
            radii,
            scratch: Vec::new(),
            fused: Vec::new(),
        }
    }

    /// Grow the grid-sized staged sweep buffers on first staged use.
    fn ensure_staged(&mut self) {
        if !self.left.is_empty() {
            return;
        }
        let dom = self.dom;
        let neq = dom.eq.neq();
        for axis in 0..dom.eq.ndim() {
            let (e1, t1, t2) = sweep_extents(&dom, axis);
            // The x sweep reads the canonical primitive buffer directly;
            // only the y/z reshapes need a transpose target.
            self.packed.push(if axis == 0 {
                Flat4D::zeros(Dims4::new(1, 1, 1, 1))
            } else {
                Flat4D::zeros(Dims4::new(e1, t1, t2, neq))
            });
            let nf = dom.n[axis] + 1;
            self.left.push(Flat4D::zeros(Dims4::new(nf, t1, t2, neq)));
            self.right.push(Flat4D::zeros(Dims4::new(nf, t1, t2, neq)));
            self.flux.push(Flat4D::zeros(Dims4::new(nf, t1, t2, neq)));
            self.ustar.push(Flat4D::zeros(Dims4::new(nf, t1, t2, 1)));
        }
        // Sized here so the 3-D GEAM z-reshape never grows a buffer inside
        // the time loop.
        if dom.eq.ndim() == 3 {
            self.scratch = vec![0.0; dom.dims4().len()];
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

/// Extents of the sweep buffer along `axis`: (sweep extent incl. ghosts,
/// transverse 1, transverse 2), matching the coalescing permutations
/// identity / (2,1,3,4) / (3,2,1,4).
fn sweep_extents(dom: &Domain, axis: usize) -> (usize, usize, usize) {
    let d3 = dom.dims3();
    match axis {
        0 => (d3.n1, d3.n2, d3.n3),
        1 => (d3.n2, d3.n1, d3.n3),
        2 => (d3.n3, d3.n2, d3.n1),
        _ => unreachable!(),
    }
}

/// Interior transverse bounds of a sweep along `axis`, in sweep
/// coordinates: `(t1 start, t1 count, t2 start, t2 count)` — the lines
/// whose faces the update stage consumes.
#[inline]
pub(crate) fn transverse_interior(dom: &Domain, axis: usize) -> (usize, usize, usize, usize) {
    let (a1, a2) = match axis {
        0 => (1, 2),
        1 => (0, 2),
        _ => (1, 0),
    };
    (dom.pad(a1), dom.n[a1], dom.pad(a2), dom.n[a2])
}

/// Map sweep-layout coordinates `(s, t1, t2)` back to canonical `(i, j, k)`.
#[inline(always)]
pub(crate) fn sweep_to_canonical(
    axis: usize,
    s: usize,
    t1: usize,
    t2: usize,
) -> (usize, usize, usize) {
    match axis {
        0 => (s, t1, t2),
        1 => (t1, s, t2),
        _ => (t2, t1, s),
    }
}

/// Record a packing operation (performed by the layout library, outside
/// the launch API) in the ledger.
fn record_pack(ctx: &Context, label: &'static str, elems: usize, t0: Instant) {
    let cost = KernelCost::new(KernelClass::Pack, 0.0, 8.0, 8.0);
    ctx.record(label, cost, elems as u64, 1, 1, t0, t0.elapsed());
}

/// Entry of every evaluation: check the shapes and zero the accumulators.
/// It reads no cell of `cons`, so the pipelined exchange ([`crate::par`])
/// runs it while the x halo is still in flight.
pub(crate) fn prelude(
    cfg: &RhsConfig,
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
    rhs.fill(0.0);
    ws.divu.fill(0.0);
}

/// The grid-global closures that follow the directional sweeps of every
/// evaluation (steps 7–9). Every ghost of `cons` must be valid by now.
pub(crate) fn closures(
    ctx: &Context,
    cfg: &RhsConfig,
    fluids: &[Fluid],
    cons: &StateField,
    ws: &mut RhsWorkspace,
    rhs: &mut StateField,
) {
    let dom = ws.dom;
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

/// Evaluate `rhs = L(cons)`.
///
/// Ghost cells of `cons` must be valid (physical BCs and/or halo exchange
/// already applied). Only interior entries of `rhs` are written.
pub fn compute_rhs(
    ctx: &Context,
    cfg: &RhsConfig,
    fluids: &[Fluid],
    cons: &StateField,
    ws: &mut RhsWorkspace,
    rhs: &mut StateField,
) {
    prelude(cfg, cons, ws, rhs);
    // 1–6. One sweep per direction.
    for axis in 0..ws.dom.eq.ndim() {
        sweep_axis(ctx, cfg, fluids, cons, ws, rhs, axis);
    }
    closures(ctx, cfg, fluids, cons, ws, rhs);
}

/// The sweep along `axis` (steps 1–6): gather and convert, WENO
/// reconstruction, Riemann solve, flux-divergence update — as full-grid
/// stages or as one fused cache-blocked pass, bitwise identically.
/// Consumes `cons` ghosts along `axis` only, on the lines whose faces it
/// uses (interior transverse coordinates), which is what lets the
/// pipelined exchange run it while the next axis's halo is in flight.
pub(crate) fn sweep_axis(
    ctx: &Context,
    cfg: &RhsConfig,
    fluids: &[Fluid],
    cons: &StateField,
    ws: &mut RhsWorkspace,
    rhs: &mut StateField,
    axis: usize,
) {
    match cfg.mode {
        RhsMode::Staged => staged_sweep_axis(ctx, cfg, fluids, cons, ws, rhs, axis),
        RhsMode::Fused => crate::fused::fused_sweep_axis(ctx, cfg, fluids, cons, ws, rhs, axis),
    }
}

/// One staged sweep: full-grid convert / pack / WENO / Riemann / update
/// stages with grid-sized intermediates (the unfused GPU-pipeline analog,
/// kept as the fusion-ablation baseline).
fn staged_sweep_axis(
    ctx: &Context,
    cfg: &RhsConfig,
    fluids: &[Fluid],
    cons: &StateField,
    ws: &mut RhsWorkspace,
    rhs: &mut StateField,
    axis: usize,
) {
    let dom = ws.dom;
    let eq = dom.eq;
    ws.ensure_staged();

    // 1. Primitives over the whole padded grid. Ghosts of the axes not yet
    //    exchanged may be stale here, but they sit on transverse ghost
    //    lines, whose faces the update stage never consumes.
    crate::state::cons_to_prim_field(ctx, fluids, cons, &mut ws.prim);

    // 3. Direction-coalesced buffer: the x sweep reads the canonical
    //    primitive buffer directly (its lines are already unit-stride);
    //    y/z reshape into the transpose target.
    staged_reshape(ctx, cfg, ws, axis);

    // 4. WENO reconstruction along the coalesced index.
    let n = dom.n[axis];
    let packed = if axis == 0 {
        ws.prim.flat()
    } else {
        &ws.packed[axis]
    };
    reconstruct_sweep(
        ctx,
        cfg.order,
        packed,
        n,
        &mut ws.left[axis],
        &mut ws.right[axis],
    );

    // 5. Riemann solve per face.
    riemann_sweep(
        ctx,
        cfg,
        fluids,
        &eq,
        axis,
        packed,
        &ws.left[axis],
        &ws.right[axis],
        &mut ws.flux[axis],
        &mut ws.ustar[axis],
    );

    // 6. Flux divergence into the canonical RHS + S* differences into
    //    div(u). In 3-D cylindrical coordinates the azimuthal cell
    //    width is r * dtheta.
    let radial_metric = if axis == 2 && cfg.geometry == Geometry::Cylindrical3D {
        Some(&ws.radii[..])
    } else {
        None
    };
    accumulate_divergence(
        ctx,
        &dom,
        axis,
        &ws.flux[axis],
        &ws.ustar[axis],
        &ws.widths[axis],
        radial_metric,
        rhs,
        &mut ws.divu,
    );
}

/// Reshape the canonical primitive buffer into the direction-coalesced
/// sweep buffer for `axis` (no-op for x, whose lines are already
/// unit-stride).
fn staged_reshape(ctx: &Context, cfg: &RhsConfig, ws: &mut RhsWorkspace, axis: usize) {
    match axis {
        0 => {}
        1 => {
            let t0 = Instant::now();
            transpose_2134_geam(ws.prim.flat(), &mut ws.packed[1]);
            record_pack(ctx, "s_reshape_sweep_y", ws.packed[1].dims().len(), t0);
        }
        _ => {
            let t0 = Instant::now();
            match cfg.pack {
                PackStrategy::Tiled => transpose_3214_tiled(ws.prim.flat(), &mut ws.packed[2]),
                PackStrategy::Geam => {
                    transpose_3214_geam(ws.prim.flat(), &mut ws.scratch, &mut ws.packed[2])
                }
            }
            record_pack(ctx, "s_reshape_sweep_z", ws.packed[2].dims().len(), t0);
        }
    }
}

/// Solve a Riemann problem on every face of the sweep, with a first-order
/// positivity fallback when a reconstructed state is unphysical.
#[allow(clippy::too_many_arguments)]
fn riemann_sweep(
    ctx: &Context,
    cfg: &RhsConfig,
    fluids: &[Fluid],
    eq: &EqIdx,
    axis: usize,
    packed: &Flat4D,
    left: &Flat4D,
    right: &Flat4D,
    flux: &mut Flat4D,
    ustar: &mut Flat4D,
) {
    let fd = left.dims();
    let (nf1, t1, t2) = (fd.n1, fd.n2, fd.n3);
    let neq = eq.neq();
    let face_stride = nf1 * t1 * t2;
    let cell_stride = packed.dims().n1 * t1 * t2;
    let ext1 = packed.dims().n1;
    let pad = (ext1 + 1 - nf1) / 2;

    let cost = KernelCost::new(
        KernelClass::Riemann,
        cfg.solver.flops_per_face(eq),
        2.0 * 8.0 * neq as f64,
        8.0 * (neq + 1) as f64,
    );
    let cfgl = LaunchConfig::tuned("s_riemann_solve");
    // Lane-tiled: rows are transverse lines, lanes pack along the face
    // index (unit stride in every per-variable plane). The generic
    // select-form solvers make each lane bitwise the scalar solve of its
    // own face; a packet containing any inadmissible state replays through
    // the scalar path so the positivity limiter stays the scalar
    // arithmetic.
    let table = FluidTable::new(fluids);
    with_eq_layout!(*eq, eq => {
        let kernel = RiemannKernel {
            eq,
            fluids: &table,
            solver: cfg.solver,
            limiter: cfg.limiter,
            axis,
            lsl: left.as_slice(),
            rsl: right.as_slice(),
            psl: packed.as_slice(),
            fsl: ParSlice::new(flux.as_mut_slice()),
            usl: ParSlice::new(ustar.as_mut_slice()),
            nf1,
            face_stride,
            cell_stride,
            ext1,
            pad,
        };
        ctx.launch_vec(&cfgl, cost, t1 * t2, nf1, &kernel)
    });
}

/// Lane kernel of the Riemann sweep: row = transverse line, col = face.
struct RiemannKernel<'a, E> {
    eq: E,
    fluids: &'a FluidTable,
    solver: RiemannSolver,
    limiter: Limiter,
    axis: usize,
    lsl: &'a [f64],
    rsl: &'a [f64],
    psl: &'a [f64],
    fsl: ParSlice<'a>,
    usl: ParSlice<'a>,
    nf1: usize,
    face_stride: usize,
    cell_stride: usize,
    ext1: usize,
    pad: usize,
}

impl<E: EqLayout> RiemannKernel<'_, E> {
    /// One face through the scalar path — gather, positivity enforcement
    /// (limit reconstructed states toward the adjacent cell averages when
    /// inadmissible: first-order fallback or Zhang-Shu scaling, per the
    /// configuration), solve, scatter.
    fn solve_scalar(&self, m: usize, line: usize) {
        let eq = &self.eq;
        let neq = eq.neq();
        let face = m + self.nf1 * line;
        let (mut pl, mut pr) = (eq.vars::<f64>(), eq.vars::<f64>());
        let (mut f, mut mean) = (eq.vars::<f64>(), eq.vars::<f64>());
        let (pl, pr) = (&mut pl.as_mut()[..neq], &mut pr.as_mut()[..neq]);
        let (f, mean) = (&mut f.as_mut()[..neq], &mut mean.as_mut()[..neq]);
        for e in 0..neq {
            pl[e] = self.lsl[face + e * self.face_stride];
            pr[e] = self.rsl[face + e * self.face_stride];
        }
        let cell_l = (self.pad - 1 + m) + self.ext1 * line;
        let cell_r = cell_l + 1;
        if !admissible(eq, self.fluids, pl) {
            for (e, mv) in mean.iter_mut().enumerate() {
                *mv = self.psl[cell_l + e * self.cell_stride];
            }
            limit_state(self.limiter, eq, self.fluids, mean, pl);
        }
        if !admissible(eq, self.fluids, pr) {
            for (e, mv) in mean.iter_mut().enumerate() {
                *mv = self.psl[cell_r + e * self.cell_stride];
            }
            limit_state(self.limiter, eq, self.fluids, mean, pr);
        }
        let s = self.solver.flux(eq, self.fluids, self.axis, pl, pr, f);
        for (e, &v) in f.iter().enumerate() {
            self.fsl.set(face + e * self.face_stride, v);
        }
        self.usl.set(face, s);
    }
}

impl<E: EqLayout> LaneKernel for RiemannKernel<'_, E> {
    #[inline(always)]
    fn packet<L: Lane>(&self, line: usize, m: usize) {
        let eq = &self.eq;
        let neq = eq.neq();
        let face = m + self.nf1 * line;
        let (mut pl, mut pr, mut f) = (eq.vars::<L>(), eq.vars::<L>(), eq.vars::<L>());
        let (pl, pr) = (&mut pl.as_mut()[..neq], &mut pr.as_mut()[..neq]);
        let f = &mut f.as_mut()[..neq];
        for e in 0..neq {
            pl[e] = L::load(&self.lsl[face + e * self.face_stride..]);
            pr[e] = L::load(&self.rsl[face + e * self.face_stride..]);
        }
        let ok = L::mask_and(
            admissible_mask(eq, self.fluids, pl),
            admissible_mask(eq, self.fluids, pr),
        );
        if !L::mask_all(ok) {
            // A lane needs the positivity limiter (rare, and branchy by
            // nature): replay the whole packet face by face through the
            // scalar path, which is bitwise what the scalar sweep does —
            // including for the admissible lanes.
            for lane in 0..L::WIDTH {
                self.solve_scalar(m + lane, line);
            }
            return;
        }
        let s = self.solver.flux(eq, self.fluids, self.axis, pl, pr, f);
        for (e, v) in f.iter().enumerate() {
            self.fsl.set_lanes(face + e * self.face_stride, *v);
        }
        self.usl.set_lanes(face, s);
    }
}

/// `rhs[cell] += (F[m] - F[m+1]) / dx`, `divu[cell] += (S*[m+1] - S*[m]) / dx`.
///
/// `radial_metric` (3-D cylindrical azimuthal sweeps only) holds the
/// ghost-inclusive radii indexed by the first transverse coordinate; the
/// effective width becomes `r * dtheta`.
#[allow(clippy::too_many_arguments)]
fn accumulate_divergence(
    ctx: &Context,
    dom: &Domain,
    axis: usize,
    flux: &Flat4D,
    ustar: &Flat4D,
    widths: &[f64],
    radial_metric: Option<&[f64]>,
    rhs: &mut StateField,
    divu: &mut [f64],
) {
    let eq = dom.eq;
    let neq = eq.neq();
    let fd = flux.dims();
    let (nf1, t1, t2) = (fd.n1, fd.n2, fd.n3);
    let face_stride = nf1 * t1 * t2;
    let ng = dom.pad(axis);
    let d3 = dom.dims3();

    let s_n = dom.n[axis];
    let (p1, n1i, p2, n2i) = transverse_interior(dom, axis);
    debug_assert_eq!(nf1, s_n + 1);

    let cost = KernelCost::new(
        KernelClass::Update,
        (2 * neq + 3) as f64,
        8.0 * 2.0 * (neq + 1) as f64,
        8.0 * (neq + 1) as f64,
    );
    let cfg = LaunchConfig::tuned("s_flux_divergence");
    // Lane-tiled: lanes pack along the sweep coordinate, so face reads
    // are unit-stride while the canonical-cell accumulations use the
    // sweep axis's cell stride (1 / ext1 / ext1*ext2). Each cell is
    // written by exactly one lane of one item, so the `+=` order per cell
    // is unchanged.
    let kernel = UpdateKernel {
        neq,
        axis,
        ng,
        nf1,
        t1,
        p1,
        n1i,
        p2,
        d3,
        block: d3.len(),
        cell_stride: match axis {
            0 => 1,
            1 => d3.n1,
            _ => d3.n1 * d3.n2,
        },
        widths,
        radial_metric,
        fsl: flux.as_slice(),
        usl: ustar.as_slice(),
        face_stride,
        rsl: ParSlice::new(rhs.as_mut_slice()),
        dsl: ParSlice::new(divu),
    };
    ctx.launch_vec(&cfg, cost, n1i * n2i, s_n, &kernel);
}

/// Lane kernel of the flux-divergence update: row = transverse cell pair,
/// col = interior offset along the sweep axis.
struct UpdateKernel<'a> {
    neq: usize,
    axis: usize,
    ng: usize,
    nf1: usize,
    t1: usize,
    p1: usize,
    n1i: usize,
    p2: usize,
    d3: Dims3,
    block: usize,
    /// Canonical cell-index stride of one step along the sweep axis.
    cell_stride: usize,
    widths: &'a [f64],
    radial_metric: Option<&'a [f64]>,
    fsl: &'a [f64],
    usl: &'a [f64],
    face_stride: usize,
    rsl: ParSlice<'a>,
    dsl: ParSlice<'a>,
}

impl LaneKernel for UpdateKernel<'_> {
    #[inline(always)]
    fn packet<L: Lane>(&self, r: usize, s: usize) {
        let (a, b) = (r % self.n1i + self.p1, r / self.n1i + self.p2);
        let metric = self.radial_metric.map(|rm| rm[a]).unwrap_or(1.0);
        let inv_dx = L::splat(1.0) / (L::load(&self.widths[self.ng + s..]) * L::splat(metric));
        let face_lo = s + self.nf1 * (a + self.t1 * b);
        let face_hi = face_lo + 1;
        let (i, j, k) = sweep_to_canonical(self.axis, self.ng + s, a, b);
        let cell = self.d3.idx(i, j, k);
        for e in 0..self.neq {
            let flo = L::load(&self.fsl[face_lo + e * self.face_stride..]);
            let fhi = L::load(&self.fsl[face_hi + e * self.face_stride..]);
            let d = (flo - fhi) * inv_dx;
            self.rsl
                .add_lanes_strided(cell + e * self.block, self.cell_stride, d);
        }
        let ulo = L::load(&self.usl[face_lo..]);
        let uhi = L::load(&self.usl[face_hi..]);
        self.dsl
            .add_lanes_strided(cell, self.cell_stride, (uhi - ulo) * inv_dx);
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
    let d3 = dom.dims3();
    let cost = KernelCost::new(
        KernelClass::Other,
        2.0 * eq.n_adv() as f64,
        8.0 * (eq.n_adv() + 1) as f64,
        8.0 * eq.n_adv() as f64,
    );
    let cfg = LaunchConfig::tuned("s_alpha_source");
    // Lane-tiled over interior x rows: alpha, div(u) and the RHS slots
    // are all unit-stride in i within a row.
    let kernel = AlphaSourceKernel {
        eq,
        ny: dom.n[1],
        pad: [dom.pad(0), dom.pad(1), dom.pad(2)],
        d3,
        block: d3.len(),
        state: state.as_slice(),
        divu,
        rsl: ParSlice::new(rhs.as_mut_slice()),
    };
    ctx.launch_vec(&cfg, cost, dom.n[1] * dom.n[2], dom.n[0], &kernel);
}

/// Lane kernel of the alpha source: row = interior (j, k) line, col =
/// interior x offset.
struct AlphaSourceKernel<'a> {
    eq: EqIdx,
    ny: usize,
    pad: [usize; 3],
    d3: Dims3,
    block: usize,
    state: &'a [f64],
    divu: &'a [f64],
    rsl: ParSlice<'a>,
}

impl LaneKernel for AlphaSourceKernel<'_> {
    #[inline(always)]
    fn packet<L: Lane>(&self, row: usize, col: usize) {
        let i = col + self.pad[0];
        let j = row % self.ny + self.pad[1];
        let k = row / self.ny + self.pad[2];
        let cell = self.d3.idx(i, j, k);
        let dv = L::load(&self.divu[cell..]);
        for a in 0..self.eq.n_adv() {
            let e = self.eq.adv(a);
            let alpha = L::load(&self.state[cell + e * self.block..]);
            self.rsl.add_lanes(cell + e * self.block, alpha * dv);
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
        let d3 = dom.dims3();
        for k in 0..d3.n3 {
            for j in 0..d3.n2 {
                for i in 0..d3.n1 {
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
    /// preservation) in every dimension and pack strategy.
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
                for pack in [PackStrategy::Tiled, PackStrategy::Geam] {
                    let cfg = RhsConfig {
                        pack,
                        mode,
                        ..Default::default()
                    };
                    compute_rhs(&ctx, &cfg, &fluids, &cons, &mut ws, &mut rhs);
                    let max = rhs.as_slice().iter().fold(0.0f64, |m, &v| m.max(v.abs()));
                    // Scale: energy flux ~ 1e5 * 30; relative tolerance.
                    assert!(
                        max < 1e-4,
                        "ndim={ndim} {mode:?} {pack:?}: max |rhs| = {max}"
                    );
                }
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
        let d3 = dom.dims3();
        for i in 8..n - 8 {
            let dv = ws.divu()[d3.idx(i + 3, 0, 0)];
            assert!((dv - 0.01).abs() < 1e-4, "divu[{i}] = {dv}");
        }
    }

    /// All pack strategies must produce bitwise-identical RHS values (they
    /// reorder memory, not arithmetic).
    #[test]
    fn pack_strategies_are_bitwise_equivalent() {
        let fluids = [Fluid::air(), Fluid::water()];
        let eq = EqIdx::new(2, 3);
        let dom = Domain::new([6, 5, 4], 3, eq);
        let grid = Grid::uniform([6, 5, 4], [0.0; 3], [1.0, 1.0, 1.0]);
        let ctx = Context::serial();
        // A non-trivial smooth state.
        let mut prim = StateField::zeros(dom);
        let d3 = dom.dims3();
        for k in 0..d3.n3 {
            for j in 0..d3.n2 {
                for i in 0..d3.n1 {
                    let s = (i + 2 * j + 3 * k) as f64 * 0.05;
                    let a = 0.3 + 0.4 * s.sin().abs().min(0.99);
                    prim.set(i, j, k, eq.cont(0), 1.2 * a);
                    prim.set(i, j, k, eq.cont(1), 1000.0 * (1.0 - a));
                    prim.set(i, j, k, eq.mom(0), 10.0 * s.cos());
                    prim.set(i, j, k, eq.mom(1), -5.0 * s.sin());
                    prim.set(i, j, k, eq.mom(2), 2.0);
                    prim.set(i, j, k, eq.energy(), 1.0e5 * (1.0 + 0.1 * s.sin()));
                    prim.set(i, j, k, eq.adv(0), a);
                }
            }
        }
        let mut cons = StateField::zeros(dom);
        crate::state::prim_to_cons_field(&ctx, &fluids, &prim, &mut cons);
        apply_bcs(&ctx, &mut cons, &BcSpec::periodic(), [(false, false); 3]);

        let mut results = Vec::new();
        for pack in [PackStrategy::Tiled, PackStrategy::Geam] {
            let mut ws = RhsWorkspace::new(dom, &grid);
            let mut rhs = StateField::zeros(dom);
            let cfg = RhsConfig {
                pack,
                mode: RhsMode::Staged,
                ..Default::default()
            };
            compute_rhs(&ctx, &cfg, &fluids, &cons, &mut ws, &mut rhs);
            results.push(rhs);
        }
        // The fused pencil engine reorders memory, not arithmetic: it must
        // land in the same bucket.
        {
            let mut ws = RhsWorkspace::new(dom, &grid);
            let mut rhs = StateField::zeros(dom);
            let cfg = RhsConfig {
                mode: RhsMode::Fused,
                ..Default::default()
            };
            compute_rhs(&ctx, &cfg, &fluids, &cons, &mut ws, &mut rhs);
            results.push(rhs);
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    /// Kernel classes show up in the ledger with the paper's structure:
    /// WENO and Riemann dominate items, Pack appears for y/z reshapes.
    #[test]
    fn ledger_records_paper_kernel_classes() {
        let fluids = [Fluid::air(), Fluid::water()];
        let eq = EqIdx::new(2, 3);
        let dom = Domain::new([8, 8, 8], 3, eq);
        let grid = Grid::uniform([8, 8, 8], [0.0; 3], [1.0; 3]);
        let ctx = Context::serial();
        let mut cons = uniform_state(dom, &fluids, [1.0, 2.0, 3.0], 1.0e5);
        apply_bcs(&ctx, &mut cons, &BcSpec::periodic(), [(false, false); 3]);
        let mut ws = RhsWorkspace::new(dom, &grid);
        let mut rhs = StateField::zeros(dom);
        compute_rhs(
            &ctx,
            &RhsConfig::default(),
            &fluids,
            &cons,
            &mut ws,
            &mut rhs,
        );
        let by_class = ctx.ledger().by_class();
        for class in [
            KernelClass::Weno,
            KernelClass::Riemann,
            KernelClass::Pack,
            KernelClass::Update,
            KernelClass::Fused,
        ] {
            assert!(by_class.contains_key(&class), "missing {class:?}");
        }
        assert!(by_class[&KernelClass::Weno].flops > 0.0);
        assert!(by_class[&KernelClass::Riemann].items > 0);

        // The staged pipeline decomposes into the same classes (minus the
        // fusion marker) and declares strictly more traffic: it sweeps
        // ghost transverse lines the update never consumes.
        let sctx = Context::serial();
        let mut ws2 = RhsWorkspace::new(dom, &grid);
        let cfg = RhsConfig {
            mode: RhsMode::Staged,
            ..Default::default()
        };
        compute_rhs(&sctx, &cfg, &fluids, &cons, &mut ws2, &mut rhs);
        let staged = sctx.ledger().by_class();
        assert!(!staged.contains_key(&KernelClass::Fused));
        for class in [KernelClass::Weno, KernelClass::Riemann] {
            assert!(
                staged[&class].bytes_read > by_class[&class].bytes_read,
                "{class:?}: staged should move more declared bytes than fused"
            );
        }
    }
}
