//! The RHS sweep kernels: one implementation of each stage, run in two
//! loop orders.
//!
//! A directional sweep works on *pencils* — batches of [`PENCIL_B`]
//! interior transverse lines along the sweep axis — and passes each
//! through five stages:
//!
//! 1. *gather*: copy the pencil's conservative lines (x lines too) out of
//!    the state, batched along the canonical-x coordinate so even the
//!    strided y/z gathers consume whole cache lines, eight steps of the
//!    eight lines at a time through an 8×8 register transpose — the
//!    paper's coalescing pack;
//! 2. *convert* the gathered cells to primitives in place, with the same
//!    per-cell [`crate::eos::cons_to_prim`] every primitive field is built
//!    with;
//! 3. *WENO*: reconstruct left/right face states along every line and
//!    variable ([`crate::weno::reconstruct_line_padded`]);
//! 4. *Riemann*: solve every face ([`RiemannSolver::flux`]), limiting an
//!    inadmissible reconstructed state toward its cell mean first
//!    ([`crate::limiter::limit_state`]); the flux overwrites the face's
//!    left state and the contact speed `S*` is kept;
//! 5. *update*: the flux divergence into the canonical RHS and the `S*`
//!    differences into div(u) — stored by the x sweep, which runs first and
//!    reaches every interior cell, and added by the y and z sweeps, so
//!    neither buffer is zero-filled.
//!
//! Ghost *transverse* lines are never swept: the update only ever reads
//! faces on interior transverse coordinates, so their WENO/Riemann work
//! would be dead.
//!
//! [`RhsMode`] picks only the loop order:
//!
//! * `Fused` runs all five stages on one pencil before the next
//!   (pencil-major) in a few KB of per-gang [`PencilScratch`] that stays
//!   resident in L1/L2 — the paper's kernel fusion, whose analog on a
//!   memory-bound CPU core is loop fusion with cache blocking;
//! * `Staged` runs each stage as one gang-parallel pass over every pencil
//!   of the sweep before the next stage starts (stage-major), the unfused
//!   GPU pipeline: its intermediates live in one grid-sized scratch, a
//!   slot per pencil, allocated on the first staged evaluation and reused
//!   across axes. It is the fusion-ablation baseline.
//!
//! Every arithmetic op is shared, so the two engines agree bitwise by
//! construction (`tests/rhs_fusion.rs` checks it across the feature
//! axes). The per-face variable vectors are the layout's
//! [`EqLayout::Vars`], sized exactly `neq` for the shipped shapes, whose
//! sweep is instantiated over a [`crate::eqidx::ConstEq`] picked once per
//! sweep (the compile-time-sized "private arrays" of §III-D).
//!
//! The Riemann stage tiles lane packets along the unit-stride face index
//! within each pencil line (OpenACC's `vector` level nested inside the
//! pencil `gang`s); each lane performs the exact scalar op sequence on its
//! own face, so every width is bitwise the scalar engine. The WENO stage
//! runs the scalar per-cell line kernel at every width (its plain cell loop
//! is what the compiler's loop vectoriser packs best). WENO and Riemann are
//! each compiled once per ISA tier they ship and run the widest entry the
//! CPU has ([`crate::isa`]): WENO up to AVX-512 on every layout, Riemann up
//! to the tier of the sweep's equation layout ([`crate::isa::riemann`]:
//! AVX-512 for 3, 4 and 6 equations, AVX2 otherwise). The conversion runs
//! lane packets along each line, and so does the x update. The y and z
//! gathers and updates meet the state and the RHS in rows across the
//! pencil's eight lines, consecutive in canonical x, and meet the line
//! scratch along the lines: an 8×8 tile transpose ([`Transpose8`]) turns
//! one into the other, compiled per tier: up to AVX2 for the gather
//! ([`isa::GATHER`]) and AVX-512 for the update ([`isa::UPDATE`]); partial
//! pencils and the steps past the last whole tile move a value at a time.
//!
//! The update writes the RHS and div(u) through the views the gang launch
//! hands each gang ([`mfc_acc::AddView`]): the buffers themselves when the
//! sweep runs as one gang on the calling thread — one worker, or too little
//! work to fork — so an x packet is one vector store and a y/z tile row one
//! vector load, add and store; one shared atomic [`mfc_acc::ParSlice`] per
//! buffer when it forks. Pencils own disjoint cells, so both give the same
//! bits.
//!
//! Each stage lands in the `mfc-acc` ledger under its own label with the
//! same per-item cost in both engines — `f_*` pencil-major, `s_*`
//! stage-major (`*_sweep_gather`, `*_sweep_convert`, `*_weno_reconstruct`,
//! `*_riemann_solve`, `*_flux_divergence`); the conversion carries the
//! arithmetic, the gather the traffic. The fused engine times its stages
//! inside the pencil loop and adds an `s_fused_sweep` marker of class
//! [`KernelClass::Fused`] carrying the orchestration residual, so total
//! ledger wall time stays honest.

use std::ops::Range;
use std::time::{Duration, Instant};

use mfc_acc::{AddView, Context, KernelClass, KernelCost, Lane, LaneGangBody, Transpose8, VecF64};

use crate::axisym::Geometry;
use crate::domain::Domain;
use crate::eos::cons_to_prim;
use crate::eqidx::{with_eq_layout, EqLayout};
use crate::fluid::{Fluid, FluidTable};
use crate::isa::{self, Tier};
use crate::limiter::{admissible, admissible_mask, limit_state, Limiter};
use crate::rhs::{RhsConfig, RhsMode, RhsWorkspace};
use crate::riemann::RiemannSolver;
use crate::state::{convert_flops, StateField};
use crate::weno::{reconstruct_line_padded, WenoOrder};

/// Transverse lines per pencil. Eight 8-byte values span one 64-byte cache
/// line, so the strided y/z gathers read (and fully consume) whole lines.
pub(crate) const PENCIL_B: usize = 8;

/// Side of the y/z gather and update tiles ([`Transpose8`]): a full pencil
/// is one tile wide.
const TILE: usize = 8;
const _: () = assert!(PENCIL_B == TILE);

/// Ledger labels of the five stages: pencil-major, stage-major.
const LABELS: [[&str; 2]; 5] = [
    ["f_sweep_gather", "s_sweep_gather"],
    ["f_sweep_convert", "s_sweep_convert"],
    ["f_weno_reconstruct", "s_weno_reconstruct"],
    ["f_riemann_solve", "s_riemann_solve"],
    ["f_flux_divergence", "s_flux_divergence"],
];

/// Scratch slots of `PENCIL_B * neq * line` values, one per pencil in
/// flight, sized for the longest line of any axis: one slot per worker
/// gang for the fused engine, one per pencil of the largest sweep for the
/// staged engine.
pub(crate) struct PencilScratch {
    /// Gathered pencil lines as primitives, `[b][e][s]`, line-contiguous.
    v: Vec<f64>,
    /// Reconstructed face states, `[b][e][m]`. The Riemann stage
    /// overwrites each face's left state, once read, with its flux.
    left: Vec<f64>,
    right: Vec<f64>,
    /// Contact speeds, `[b][m]`.
    ustar: Vec<f64>,
    /// Slot lengths of `v`, `left`/`right` and `ustar`.
    slot: [usize; 3],
}

/// One pencil's slot of a [`PencilScratch`].
struct Pencil<'s> {
    v: &'s mut [f64],
    left: &'s mut [f64],
    right: &'s mut [f64],
    ustar: &'s mut [f64],
}

impl PencilScratch {
    pub(crate) fn new(dom: &Domain, slots: usize) -> Self {
        let (mut ext, mut nf) = (0, 0);
        for axis in 0..dom.eq.ndim() {
            ext = ext.max(dom.ext(axis));
            nf = nf.max(dom.n[axis] + 1);
        }
        let lines = PENCIL_B * dom.eq.neq();
        let slot = [lines * ext, lines * nf, PENCIL_B * nf];
        PencilScratch {
            v: vec![0.0; slots * slot[0]],
            left: vec![0.0; slots * slot[1]],
            right: vec![0.0; slots * slot[1]],
            ustar: vec![0.0; slots * slot[2]],
            slot,
        }
    }

    /// The slots, in order.
    fn pencils(&mut self) -> impl Iterator<Item = Pencil<'_>> {
        let [vs, fs, us] = self.slot;
        self.v
            .chunks_exact_mut(vs)
            .zip(self.left.chunks_exact_mut(fs))
            .zip(self.right.chunks_exact_mut(fs))
            .zip(self.ustar.chunks_exact_mut(us))
            .map(|(((v, left), right), ustar)| Pencil {
                v,
                left,
                right,
                ustar,
            })
    }
}

/// How the sweep along `axis` cuts its interior transverse lines into
/// pencils: `(bq, bcount, oq, ocount)`, the first coordinate and count of
/// the batched transverse coordinate, then of the outer one. Pencils batch
/// over whichever transverse coordinate is canonical x (t1 for the x/y
/// sweeps, t2 for z), so the strided gathers of a pencil read consecutive
/// memory.
fn batching(dom: &Domain, axis: usize) -> (usize, usize, usize, usize) {
    let (a1, a2) = match axis {
        0 => (1, 2),
        1 => (0, 2),
        _ => (1, 0),
    };
    let (t1, t2) = ((dom.pad(a1), dom.n[a1]), (dom.pad(a2), dom.n[a2]));
    let ((bq, bcount), (oq, ocount)) = if axis < 2 { (t1, t2) } else { (t2, t1) };
    (bq, bcount, oq, ocount)
}

/// Pencils of the sweep along `axis`.
fn pencil_count(dom: &Domain, axis: usize) -> usize {
    let (_, bcount, _, ocount) = batching(dom, axis);
    ocount * bcount.div_ceil(PENCIL_B)
}

/// Map sweep-layout coordinates `(s, t1, t2)` back to canonical `(i, j, k)`.
#[inline(always)]
fn sweep_to_canonical(axis: usize, s: usize, t1: usize, t2: usize) -> (usize, usize, usize) {
    match axis {
        0 => (s, t1, t2),
        1 => (t1, s, t2),
        _ => (t2, t1, s),
    }
}

/// The sweep along `axis` (steps 1–6 of [`crate::rhs::compute_rhs`]): the
/// five stages over every pencil, in the loop order `cfg.mode` picks.
/// Reads `cons` along `axis` only, on the lines whose faces it uses.
pub(crate) fn sweep_axis(
    ctx: &Context,
    cfg: &RhsConfig,
    fluids: &[Fluid],
    cons: &StateField,
    ws: &mut RhsWorkspace,
    rhs: &mut StateField,
    axis: usize,
) {
    let RhsWorkspace {
        dom,
        divu,
        widths,
        radii,
        fused,
        staged,
        ..
    } = ws;
    let dom = *dom;
    let eq = dom.eq;
    let neq = eq.neq();
    // Along the sweep axis: `s_n` interior cells, `s_n + 1` faces, and a
    // gathered line of the full padded extent.
    let s_n = dom.n[axis];
    let rext = dom.ext(axis);
    let rnf = s_n + 1;
    let (_, bcount, _, ocount) = batching(&dom, axis);
    let nlines = bcount * ocount;
    // The sweep's unit of work is one pencil — an (outer transverse
    // coordinate, batch of PENCIL_B lines) pair — flattened with the batch
    // index fastest, so the serial unit order is the (outer, batch) loop
    // nest. Distinct units update disjoint cells, so the per-index writes
    // commute and any gang count produces bitwise-identical fields.
    let nbatches = bcount.div_ceil(PENCIL_B);
    let units = ocount * nbatches;
    let work = (nlines * s_n) as u64;

    // Per stage: cost per item, items, lanes. The conversion, WENO,
    // Riemann and the x update run as lane packets; the gather and the
    // transverse update are scalar.
    let vw = ctx.vector_width();
    let update_lanes = if axis == 0 { vw } else { 1 };
    let lines = nlines as u64;
    let gh = cfg.order.ghost_layers();
    let rows = [
        (
            KernelCost::new(KernelClass::Pack, 0.0, 8.0, 8.0),
            lines * (neq * rext) as u64,
            1,
        ),
        // The conversion works in registers on the scratch the gather just
        // filled: its arithmetic is new, its traffic is the gather's.
        (
            KernelCost::new(KernelClass::Other, convert_flops(&dom), 0.0, 0.0),
            lines * rext as u64,
            vw,
        ),
        (
            KernelCost::new(
                KernelClass::Weno,
                cfg.order.flops_per_face(),
                8.0 * (2 * gh + 1) as f64,
                2.0 * 8.0,
            ),
            lines * (neq * rnf) as u64,
            vw,
        ),
        (
            KernelCost::new(
                KernelClass::Riemann,
                cfg.solver.flops_per_face(&eq),
                2.0 * 8.0 * neq as f64,
                8.0 * (neq + 1) as f64,
            ),
            lines * rnf as u64,
            vw,
        ),
        (
            KernelCost::new(
                KernelClass::Update,
                (2 * neq + 3) as f64,
                8.0 * 2.0 * (neq + 1) as f64,
                8.0 * (neq + 1) as f64,
            ),
            lines * s_n as u64,
            update_lanes,
        ),
    ];

    let table = FluidTable::new(fluids);
    // The one place the sweep looks at the layout's shape: the stages are
    // instantiated per layout, and every per-face loop inside them runs on
    // that instance's (for the shipped shapes, literal) counts.
    with_eq_layout!(eq, eq => {
        let radial = (axis == 2 && cfg.geometry == Geometry::Cylindrical3D).then_some(&radii[..]);
        let sweep = Sweep::new(eq, &dom, axis, cfg, &table, cons.as_slice(), &widths[axis], radial);
        let outs = [rhs.as_mut_slice(), &mut divu[..]];
        match cfg.mode {
            RhsMode::Fused => {
                // One scratch block per worker gang: each gang's pencils
                // stream through its own slot, which every stage rewrites
                // before it is read.
                let workers = ctx.workers().max(1);
                if fused.len() < workers {
                    fused.resize_with(workers, || PencilScratch::new(&dom, 1));
                }
                pencil_major(ctx, &sweep, units, work, fused, outs, &rows, lines)
            }
            RhsMode::Staged => {
                let scratch = staged.get_or_insert_with(|| {
                    let slots = (0..eq.ndim()).map(|a| pencil_count(&dom, a)).max();
                    PencilScratch::new(&dom, slots.unwrap_or(0))
                });
                stage_major(ctx, &sweep, units, work, scratch, outs, &rows)
            }
        }
    })
}

/// Per stage: cost per item, items, lane width.
type Rows = [(KernelCost, u64, usize); 5];

/// The sweep's outputs, in the order the update reads them: the canonical
/// RHS and div(u). The launch hands them to its gangs as [`AddView`]s.
type Outs<'o> = [&'o mut [f64]; 2];

/// Pencil-major: every gang streams its pencils through all five stages in
/// its own scratch slot, timing each stage.
#[allow(clippy::too_many_arguments)]
fn pencil_major<E: EqLayout>(
    ctx: &Context,
    sweep: &Sweep<'_, E>,
    units: usize,
    work: u64,
    scratch: &mut [PencilScratch],
    outs: Outs<'_>,
    rows: &Rows,
    lines: u64,
) {
    let t_axis = Instant::now();
    // Per-stage CPU time summed over gangs in fixed gang order (exceeds
    // the axis wall clock when gangs overlap; the residual clamps at 0).
    let mut stage = [Duration::ZERO; 5];
    let gangs = ctx.gang_vec_scope(units, work, scratch, outs, sweep, |t: [Duration; 5]| {
        for (sum, gang) in stage.iter_mut().zip(t) {
            *sum += gang;
        }
    });
    // The stage events tile the axis interval back-to-back so traced
    // timelines stay monotone; with >1 gang the timers sum CPU time across
    // workers and can exceed the wall interval, so scale them down to fit.
    let wall = t_axis.elapsed();
    let total: Duration = stage.iter().sum();
    if total > wall && total > Duration::ZERO {
        let scale = wall.as_secs_f64() / total.as_secs_f64();
        stage = stage.map(|t| t.mul_f64(scale));
    }
    let mut start = t_axis;
    for ((label, &(cost, items, lanes)), t) in LABELS.iter().zip(rows).zip(stage) {
        ctx.record(label[0], cost, items, gangs, lanes, start, t);
        start += t;
    }
    let residual = wall.checked_sub(start - t_axis).unwrap_or(Duration::ZERO);
    ctx.record(
        "s_fused_sweep",
        KernelCost::new(KernelClass::Fused, 0.0, 8.0, 8.0),
        lines,
        gangs,
        1,
        start,
        residual,
    );
}

/// Stage-major: one gang-parallel pass per stage over every pencil, each
/// pencil in its own slot of the grid-sized scratch, so the next stage
/// finds it where the last one left it.
fn stage_major<E: EqLayout>(
    ctx: &Context,
    sweep: &Sweep<'_, E>,
    units: usize,
    work: u64,
    scratch: &mut PencilScratch,
    outs: Outs<'_>,
    rows: &Rows,
) {
    let mut pencils: Vec<Pencil> = scratch.pencils().take(units).collect();
    assert_eq!(pencils.len(), units, "staged scratch holds every pencil");
    let [rhs, divu] = outs;
    for (stage, (label, &(cost, items, lanes))) in LABELS.iter().zip(rows).enumerate() {
        let t0 = Instant::now();
        let pass = Pass { sweep, stage };
        let outs = [&mut rhs[..], &mut divu[..]];
        let gangs = ctx.gang_vec_units(work, &mut pencils, outs, &pass, |()| {});
        ctx.record(label[1], cost, items, gangs, lanes, t0, t0.elapsed());
    }
}

/// One pencil's place in the sweep: outer transverse coordinate, batch
/// origin and line count.
#[derive(Clone, Copy)]
struct Unit {
    oc: usize,
    b0: usize,
    bw: usize,
}

impl Unit {
    /// How many of the first `n` steps along the pencil's lines move as
    /// whole 8×8 tiles: every whole tile of a full pencil, none of a
    /// partial one.
    fn tiled(self, n: usize) -> usize {
        if self.bw == TILE {
            n - n % TILE
        } else {
            0
        }
    }
}

/// Shared environment of one directional sweep and its five stages,
/// executable at any lane width. The outputs are not part of it: each gang
/// gets its own views of them from the launch ([`Sweep::update`]). Each
/// stage is an out-of-line function that either loop order calls once per
/// pencil, so there is one copy of it per layout and lane width; inlined
/// into both loop orders instead, the pencil-major conversion and Riemann
/// stages ran 30 % and 15 % slower per item on `grind3d`.
struct Sweep<'a, E> {
    eq: E,
    fluids: &'a FluidTable,
    order: WenoOrder,
    solver: RiemannSolver,
    limiter: Limiter,
    axis: usize,
    /// Canonical conservative state.
    qsl: &'a [f64],
    /// Ghost-inclusive cell widths along the sweep axis.
    w: &'a [f64],
    /// Radii by first transverse coordinate (cylindrical azimuthal sweeps).
    radial: Option<&'a [f64]>,
    n1: usize,
    n2: usize,
    n3: usize,
    /// Ghost-inclusive cells per equation block.
    cell_stride: usize,
    /// Canonical flat stride of one step along the sweep axis.
    sweep_stride: usize,
    pad: usize,
    /// Interior cells along the sweep axis.
    s_n: usize,
    /// Gathered line extent (`s_n + 2*pad`).
    rext: usize,
    /// Faces per line (`s_n + 1`).
    rnf: usize,
    batch_t1: bool,
    bq: usize,
    bcount: usize,
    oq: usize,
    nbatches: usize,
}

impl<'a, E: EqLayout> Sweep<'a, E> {
    /// The sweep along `axis` of the block `dom`, reading the state `qsl`,
    /// with the ghost-inclusive cell widths `w` along `axis` and, for a
    /// cylindrical azimuthal sweep, the radii by first transverse
    /// coordinate.
    #[allow(clippy::too_many_arguments)]
    fn new(
        eq: E,
        dom: &Domain,
        axis: usize,
        cfg: &RhsConfig,
        fluids: &'a FluidTable,
        qsl: &'a [f64],
        w: &'a [f64],
        radial: Option<&'a [f64]>,
    ) -> Self {
        let d3 = dom.dims3();
        let (n1, n2, n3) = (d3.n1, d3.n2, d3.n3);
        let (bq, bcount, oq, _) = batching(dom, axis);
        let s_n = dom.n[axis];
        Sweep {
            eq,
            fluids,
            order: cfg.order,
            solver: cfg.solver,
            limiter: cfg.limiter,
            axis,
            qsl,
            w,
            radial,
            n1,
            n2,
            n3,
            cell_stride: n1 * n2 * n3,
            sweep_stride: match axis {
                0 => 1,
                1 => n1,
                _ => n1 * n2,
            },
            pad: dom.pad(axis),
            s_n,
            rext: dom.ext(axis),
            rnf: s_n + 1,
            batch_t1: axis < 2,
            bq,
            bcount,
            oq,
            nbatches: bcount.div_ceil(PENCIL_B),
        }
    }

    #[inline(always)]
    fn unit(&self, unit: usize) -> Unit {
        let b0 = (unit % self.nbatches) * PENCIL_B;
        Unit {
            oc: self.oq + unit / self.nbatches,
            b0,
            bw: PENCIL_B.min(self.bcount - b0),
        }
    }

    /// Sweep coordinates (t1, t2) of line `b` of pencil `u`.
    #[inline(always)]
    fn line_t(&self, u: Unit, b: usize) -> (usize, usize) {
        if self.batch_t1 {
            (self.bq + u.b0 + b, u.oc)
        } else {
            (u.oc, self.bq + u.b0 + b)
        }
    }

    /// Canonical flat offset of cell (s = 0) of line (t1, t2), variable
    /// `e` — lines of one pencil are consecutive in canonical x.
    #[inline(always)]
    fn line_base(&self, t1: usize, t2: usize, e: usize) -> usize {
        let (i, j, k) = sweep_to_canonical(self.axis, 0, t1, t2);
        i + self.n1 * (j + self.n2 * (k + self.n3 * e))
    }

    /// Stage 1: gather the pencil's conservative lines, through the entry
    /// of [`isa::GATHER`] the running CPU selects.
    #[inline(never)]
    fn gather(&self, u: Unit, v: &mut [f64]) {
        self.gather_at(isa::GATHER.tier(), u, v);
    }

    /// [`Sweep::gather`] through its `tier` entry.
    #[inline(always)]
    fn gather_at(&self, tier: Tier, u: Unit, v: &mut [f64]) {
        isa::with_transpose!(isa::GATHER, tier, t => self.gather_body(t, u, v))
    }

    /// x lines are contiguous in `q` and copied whole. A full y/z pencil
    /// reads each step along the sweep as one row of its eight lines,
    /// consecutive in canonical x, and writes eight steps of the eight
    /// lines as one transposed tile; the steps past the last whole tile,
    /// and every step of a partial pencil, are copied a value at a time.
    #[inline(always)]
    fn gather_body<T: Transpose8>(&self, t: T, u: Unit, v: &mut [f64]) {
        let neq = self.eq.neq();
        let rext = self.rext;
        if self.axis == 0 {
            for b in 0..u.bw {
                let (t1, t2) = self.line_t(u, b);
                for e in 0..neq {
                    let base = self.line_base(t1, t2, e);
                    let lo = (b * neq + e) * rext;
                    v[lo..lo + rext].copy_from_slice(&self.qsl[base..base + rext]);
                }
            }
            return;
        }
        let (t1, t2) = self.line_t(u, 0);
        let stride = self.sweep_stride;
        let tiled = u.tiled(rext);
        for e in 0..neq {
            let base = self.line_base(t1, t2, e);
            for s in (0..tiled).step_by(TILE) {
                t.transpose8(
                    &self.qsl[base + s * stride..],
                    stride,
                    &mut v[e * rext + s..],
                    neq * rext,
                );
            }
            for s in tiled..rext {
                let src = base + s * stride;
                for (b, vb) in v[e * rext + s..]
                    .iter_mut()
                    .step_by(neq * rext)
                    .take(u.bw)
                    .enumerate()
                {
                    *vb = self.qsl[src + b];
                }
            }
        }
    }

    /// Convert the gathered cells at `s..s + L::WIDTH` of one pencil line
    /// (`lines` = its `neq` variable lines) to primitives in place.
    #[inline(always)]
    fn convert_cells<L: Lane>(&self, lines: &mut [f64], s: usize) {
        let eq = &self.eq;
        let neq = eq.neq();
        let (mut c, mut p) = (eq.vars::<L>(), eq.vars::<L>());
        let (c, p) = (&mut c.as_mut()[..neq], &mut p.as_mut()[..neq]);
        for (e, ce) in c.iter_mut().enumerate() {
            *ce = L::load(&lines[e * self.rext + s..]);
        }
        cons_to_prim(eq, self.fluids, c, p);
        for (e, pe) in p.iter().enumerate() {
            pe.store(&mut lines[e * self.rext + s..]);
        }
    }

    /// Stage 2: convert the gathered lines to primitives in place, lane
    /// packets along each line.
    #[inline(never)]
    fn convert<L: Lane>(&self, u: Unit, v: &mut [f64]) {
        let rext = self.rext;
        for lines in v.chunks_exact_mut(self.eq.neq() * rext).take(u.bw) {
            let mut s = 0;
            while s + L::WIDTH <= rext {
                self.convert_cells::<L>(lines, s);
                s += L::WIDTH;
            }
            while s < rext {
                self.convert_cells::<f64>(lines, s);
                s += 1;
            }
        }
    }

    /// Stage 3: WENO reconstruction per line per variable, through the
    /// scalar per-cell line kernel at every lane width: its plain cell loop
    /// is what LLVM's loop vectoriser turns into the host's packed
    /// arithmetic, faster than explicit packets ran it (lanes are bitwise
    /// invisible, so the choice cannot change a value).
    #[inline(never)]
    fn weno(&self, u: Unit, v: &[f64], left: &mut [f64], right: &mut [f64]) {
        let neq = self.eq.neq();
        let (rext, rnf) = (self.rext, self.rnf);
        for b in 0..u.bw {
            for e in 0..neq {
                let fo = (b * neq + e) * rnf;
                let lo = (b * neq + e) * rext;
                reconstruct_line_padded(
                    self.order,
                    &v[lo..lo + rext],
                    self.pad,
                    self.s_n,
                    &mut left[fo..fo + rnf],
                    &mut right[fo..fo + rnf],
                );
            }
        }
    }

    /// One face through the scalar Riemann path: gather face states,
    /// positivity-limit toward the cell means where inadmissible, solve,
    /// store the flux over the face's left state and the contact speed.
    /// Out of line, one copy per layout: it runs only for replayed packets
    /// and each line's tail faces, and inlined into every entry at every
    /// width it grew `mfc-run`'s text by 0.56 MB (3.29 → 3.85 MB) for no
    /// measured gain.
    #[inline(never)]
    fn solve_face_scalar(
        &self,
        v: &[f64],
        left: &mut [f64],
        right: &[f64],
        ustar: &mut [f64],
        b: usize,
        m: usize,
    ) {
        let eq = &self.eq;
        let neq = eq.neq();
        let rnf = self.rnf;
        let (mut pl, mut pr) = (eq.vars::<f64>(), eq.vars::<f64>());
        let (mut f, mut mean) = (eq.vars::<f64>(), eq.vars::<f64>());
        let (pl, pr) = (&mut pl.as_mut()[..neq], &mut pr.as_mut()[..neq]);
        let (f, mean) = (&mut f.as_mut()[..neq], &mut mean.as_mut()[..neq]);
        for e in 0..neq {
            pl[e] = left[(b * neq + e) * rnf + m];
            pr[e] = right[(b * neq + e) * rnf + m];
        }
        // The positivity fallback's cell means: the gathered primitives of
        // the two cells beside the face.
        let cl = (b * neq) * self.rext + self.pad - 1 + m;
        if !admissible(eq, self.fluids, pl) {
            for (e, mv) in mean.iter_mut().enumerate() {
                *mv = v[cl + e * self.rext];
            }
            limit_state(self.limiter, eq, self.fluids, mean, pl);
        }
        if !admissible(eq, self.fluids, pr) {
            for (e, mv) in mean.iter_mut().enumerate() {
                *mv = v[cl + e * self.rext + 1];
            }
            limit_state(self.limiter, eq, self.fluids, mean, pr);
        }
        let s = self.solver.flux(eq, self.fluids, self.axis, pl, pr, f);
        for e in 0..neq {
            left[(b * neq + e) * rnf + m] = f[e];
        }
        ustar[b * rnf + m] = s;
    }

    /// The Riemann stage of this sweep's layout: its tier is a constant of
    /// `E` ([`isa::riemann`]), so a layout that does not ship AVX-512
    /// compiles no AVX-512 copy of the stage.
    const RIEMANN: isa::Stage = isa::riemann(E::SHAPE);

    /// Stage 4: Riemann solve per face, through the entry of
    /// [`Sweep::RIEMANN`] the running CPU selects. The solvers' whole call
    /// chain is `#[inline(always)]`, so a wider entry is wider code end to
    /// end; with `RiemannSolver::flux` left at `#[inline]` the AVX2 entry
    /// ran no faster than the baseline one.
    #[inline(never)]
    fn riemann<L: Lane>(
        &self,
        u: Unit,
        v: &[f64],
        left: &mut [f64],
        right: &[f64],
        ustar: &mut [f64],
    ) {
        self.riemann_at::<L>(Self::RIEMANN.tier(), u, v, left, right, ustar);
    }

    /// [`Sweep::riemann`] through its `tier` entry.
    #[inline(always)]
    fn riemann_at<L: Lane>(
        &self,
        tier: Tier,
        u: Unit,
        v: &[f64],
        left: &mut [f64],
        right: &[f64],
        ustar: &mut [f64],
    ) {
        Self::RIEMANN.run_at(
            tier,
            #[inline(always)]
            || self.riemann_body::<L>(u, v, left, right, ustar),
        );
    }

    /// All-admissible packets solve lane-wide; a packet with any flagged
    /// lane replays face by face through the scalar path, which is bitwise
    /// what a width-1 sweep does — including for the admissible lanes.
    #[inline(always)]
    fn riemann_body<L: Lane>(
        &self,
        u: Unit,
        v: &[f64],
        left: &mut [f64],
        right: &[f64],
        ustar: &mut [f64],
    ) {
        let eq = &self.eq;
        let neq = eq.neq();
        let rnf = self.rnf;
        for b in 0..u.bw {
            let mut m = 0;
            while m + L::WIDTH <= rnf {
                let (mut pl, mut pr) = (eq.vars::<L>(), eq.vars::<L>());
                let (pl, pr) = (&mut pl.as_mut()[..neq], &mut pr.as_mut()[..neq]);
                for e in 0..neq {
                    pl[e] = L::load(&left[(b * neq + e) * rnf + m..]);
                    pr[e] = L::load(&right[(b * neq + e) * rnf + m..]);
                }
                let ok = L::mask_and(
                    admissible_mask(eq, self.fluids, pl),
                    admissible_mask(eq, self.fluids, pr),
                );
                if L::mask_all(ok) {
                    let mut f = eq.vars::<L>();
                    let f = &mut f.as_mut()[..neq];
                    let s = self.solver.flux(eq, self.fluids, self.axis, pl, pr, f);
                    for e in 0..neq {
                        f[e].store(&mut left[(b * neq + e) * rnf + m..]);
                    }
                    s.store(&mut ustar[b * rnf + m..]);
                } else {
                    for lane in 0..L::WIDTH {
                        self.solve_face_scalar(v, left, right, ustar, b, m + lane);
                    }
                }
                m += L::WIDTH;
            }
            while m < rnf {
                self.solve_face_scalar(v, left, right, ustar, b, m);
                m += 1;
            }
        }
    }

    /// Stage 5: flux divergence into the canonical RHS and `S*` differences
    /// into div(u), through the launch's views of them ([`AddView`]: the
    /// buffers themselves when the sweep runs as one gang, shared views
    /// when it forks). In 3-D cylindrical coordinates the azimuthal cell
    /// width is `r * dtheta`, with `r` set by the pencil's outer coordinate.
    ///
    /// The x sweep runs first and reaches every interior cell, so its
    /// update *stores* `0.0 + d` — the exact bits of adding `d` to a zeroed
    /// slot, `-0.0` included — and [`crate::rhs::compute_rhs`] clears
    /// neither buffer. The x update keeps lane packets along each line,
    /// whose cells are consecutive, with the variables innermost; through
    /// the plain view each packet is one vector store. The y and z updates
    /// add, through the entry of [`isa::UPDATE`] the running CPU selects.
    #[inline(never)]
    fn update<L: Lane, O: AddView>(&self, u: Unit, flux: &[f64], ustar: &[f64], out: &mut [O; 2]) {
        if self.axis == 0 {
            self.update_x::<L, O>(u, flux, ustar, out);
        } else {
            self.update_yz_at(isa::UPDATE.tier(), u, flux, ustar, out);
        }
    }

    /// The y/z update through its `tier` entry. Its tile rows are eight
    /// lanes wide at every lane width, so there is one copy per layout,
    /// view and tier, not one per width as well.
    #[inline(never)]
    fn update_yz_at<O: AddView>(
        &self,
        tier: Tier,
        u: Unit,
        flux: &[f64],
        ustar: &[f64],
        out: &mut [O; 2],
    ) {
        isa::with_transpose!(isa::UPDATE, tier, t => self.update_yz(t, u, flux, ustar, out))
    }

    /// The x sweep's update: stores, lane packets along each line.
    #[inline(always)]
    fn update_x<L: Lane, O: AddView>(
        &self,
        u: Unit,
        flux: &[f64],
        ustar: &[f64],
        [rhs, divu]: &mut [O; 2],
    ) {
        let neq = self.eq.neq();
        let (rnf, pad) = (self.rnf, self.pad);
        let (cell0, metric) = self.update_origin(u);
        for b in 0..u.bw {
            let (line, ub) = (cell0 + b * self.n1, b * rnf);
            let mut s = 0;
            while s + L::WIDTH <= self.s_n {
                let inv_dx = L::splat(1.0) / (L::load(&self.w[pad + s..]) * L::splat(metric));
                let zero = L::splat(0.0);
                for e in 0..neq {
                    let fb = (b * neq + e) * rnf + s;
                    let d = (L::load(&flux[fb..]) - L::load(&flux[fb + 1..])) * inv_dx;
                    rhs.store_lanes(line + s + e * self.cell_stride, zero + d);
                }
                let dv = (L::load(&ustar[ub + s + 1..]) - L::load(&ustar[ub + s..])) * inv_dx;
                divu.store_lanes(line + s, zero + dv);
                s += L::WIDTH;
            }
            while s < self.s_n {
                let inv_dx = 1.0 / (self.w[pad + s] * metric);
                for e in 0..neq {
                    let fb = (b * neq + e) * rnf + s;
                    rhs.store(
                        line + s + e * self.cell_stride,
                        0.0 + (flux[fb] - flux[fb + 1]) * inv_dx,
                    );
                }
                divu.store(line + s, 0.0 + (ustar[ub + s + 1] - ustar[ub + s]) * inv_dx);
                s += 1;
            }
        }
    }

    /// The canonical cell of the pencil's first line at the first interior
    /// step, and the azimuthal metric of its outer coordinate (1 off it).
    #[inline(always)]
    fn update_origin(&self, u: Unit) -> (usize, f64) {
        let (t1, t2) = self.line_t(u, 0);
        let metric = self.radial.map(|r| r[t1]).unwrap_or(1.0);
        let (i, j, k) = sweep_to_canonical(self.axis, self.pad, t1, t2);
        (i + self.n1 * (j + self.n2 * k), metric)
    }

    /// The y/z update. The pencil's lines are consecutive in canonical x,
    /// so each (step, variable) row of the RHS takes `bw` consecutive
    /// values. A full pencil transposes eight steps of one variable's line
    /// scratch, and the same eight shifted by one step, into tiles whose
    /// rows run across the lines; each row difference is then one 8-lane
    /// packet added into the RHS. The steps past the last whole tile, and
    /// every step of a partial pencil, run cell by cell along the sweep,
    /// then per variable across the lines.
    #[inline(always)]
    fn update_yz<T: Transpose8, O: AddView>(
        &self,
        t: T,
        u: Unit,
        flux: &[f64],
        ustar: &[f64],
        [rhs, divu]: &mut [O; 2],
    ) {
        let neq = self.eq.neq();
        let (rnf, pad, stride) = (self.rnf, self.pad, self.sweep_stride);
        let (cell0, metric) = self.update_origin(u);
        let tiled = u.tiled(self.s_n);
        for s0 in (0..tiled).step_by(TILE) {
            let inv_dx: [f64; TILE] =
                std::array::from_fn(|r| 1.0 / (self.w[pad + s0 + r] * metric));
            let cell = |r: usize| cell0 + (s0 + r) * stride;
            for e in 0..neq {
                let f = &flux[e * rnf + s0..];
                add_tile(t, rhs, (f, &f[1..]), neq * rnf, &inv_dx, |r| {
                    cell(r) + e * self.cell_stride
                });
            }
            // S* differences run the other way: (S*_{s+1} - S*_s) / dx.
            let us = &ustar[s0..];
            add_tile(t, divu, (&us[1..], us), rnf, &inv_dx, cell);
        }
        for s in tiled..self.s_n {
            let inv_dx = 1.0 / (self.w[pad + s] * metric);
            let cell = cell0 + s * stride;
            for e in 0..neq {
                rhs.add_row(cell + e * self.cell_stride, u.bw, |b| {
                    let fb = (b * neq + e) * rnf + s;
                    (flux[fb] - flux[fb + 1]) * inv_dx
                });
            }
            divu.add_row(cell, u.bw, |b| {
                let ub = b * rnf + s;
                (ustar[ub + 1] - ustar[ub]) * inv_dx
            });
        }
    }
}

/// One 8×8 tile of a y/z update: `hi` and `lo` hold the eight lines at
/// line stride `ls`, eight steps each. Both are transposed, and step `r`
/// adds `(hi - lo) * inv_dx[r]` across the eight lines, as one packet, into
/// the row from slot `row(r)`.
#[inline(always)]
fn add_tile<T: Transpose8, O: AddView>(
    t: T,
    out: &mut O,
    (hi, lo): (&[f64], &[f64]),
    ls: usize,
    inv_dx: &[f64; TILE],
    row: impl Fn(usize) -> usize,
) {
    type Row = VecF64<TILE>;
    let (mut th, mut tl) = ([0.0; TILE * TILE], [0.0; TILE * TILE]);
    t.transpose8(hi, ls, &mut th, TILE);
    t.transpose8(lo, ls, &mut tl, TILE);
    for (r, (h, l)) in th.chunks_exact(TILE).zip(tl.chunks_exact(TILE)).enumerate() {
        out.add_lanes(
            row(r),
            (Row::load(h) - Row::load(l)) * Row::splat(inv_dx[r]),
        );
    }
}

/// Pencil-major: each gang streams its pencil range through all five
/// stages in its one scratch slot, returning the per-stage times.
impl<E: EqLayout> LaneGangBody<PencilScratch, [Duration; 5], 2> for Sweep<'_, E> {
    fn run<L: Lane, O: AddView>(
        &self,
        _gang: usize,
        range: Range<usize>,
        scratch: &mut PencilScratch,
        out: &mut [O; 2],
    ) -> [Duration; 5] {
        let Pencil {
            v,
            left,
            right,
            ustar,
        } = scratch.pencils().next().expect("one scratch slot per gang");
        let mut times = [Duration::ZERO; 5];
        for unit in range {
            let u = self.unit(unit);
            let t0 = Instant::now();
            self.gather(u, v);
            times[0] += t0.elapsed();
            let t0 = Instant::now();
            self.convert::<L>(u, v);
            times[1] += t0.elapsed();
            let t0 = Instant::now();
            self.weno(u, v, left, right);
            times[2] += t0.elapsed();
            let t0 = Instant::now();
            self.riemann::<L>(u, v, left, right, ustar);
            times[3] += t0.elapsed();
            let t0 = Instant::now();
            self.update::<L, O>(u, left, ustar, out);
            times[4] += t0.elapsed();
        }
        times
    }
}

/// One stage of a stage-major sweep.
struct Pass<'s, 'a, E> {
    sweep: &'s Sweep<'a, E>,
    stage: usize,
}

/// Stage-major: each gang runs one stage over its pencils, each in its own
/// slot.
impl<'p, E: EqLayout> LaneGangBody<[Pencil<'p>], (), 2> for Pass<'_, '_, E> {
    fn run<L: Lane, O: AddView>(
        &self,
        _gang: usize,
        range: Range<usize>,
        pencils: &mut [Pencil<'p>],
        out: &mut [O; 2],
    ) {
        let sweep = self.sweep;
        for (unit, p) in range.zip(pencils) {
            let u = sweep.unit(unit);
            match self.stage {
                0 => sweep.gather(u, p.v),
                1 => sweep.convert::<L>(u, p.v),
                2 => sweep.weno(u, p.v, p.left, p.right),
                3 => sweep.riemann::<L>(u, p.v, p.left, p.right, p.ustar),
                _ => sweep.update::<L, O>(u, p.left, p.ustar, out),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::presets;
    use crate::eqidx::EqIdx;
    use crate::solver::{Solver, SolverConfig};
    use mfc_acc::{with_lane_width, ParSlice};

    /// Lines, interior cells and pad of the Riemann entry test's pencil.
    const BW: usize = 3;
    const SN: usize = 21;
    const PAD: usize = 3;

    /// A sweep environment for the Riemann stage alone: it reads only the
    /// pencil scratch, never the state or the RHS.
    fn riemann_sweep<E: EqLayout>(
        eq: E,
        fluids: &FluidTable,
        solver: RiemannSolver,
    ) -> Sweep<'_, E> {
        Sweep {
            eq,
            fluids,
            order: WenoOrder::Weno5,
            solver,
            limiter: Limiter::default(),
            axis: 1.min(eq.ndim() - 1),
            qsl: &[],
            w: &[],
            radial: None,
            n1: 1,
            n2: 1,
            n3: 1,
            cell_stride: 1,
            sweep_stride: 1,
            pad: PAD,
            s_n: SN,
            rext: SN + 2 * PAD,
            rnf: SN + 1,
            batch_t1: true,
            bq: 0,
            bcount: BW,
            oq: 0,
            nbatches: 1,
        }
    }

    /// Primitive lines of one or two fluids, `[b][e][i]` with `n` values
    /// per line: a varied admissible state at every `i`.
    fn prim_lines<E: EqLayout>(eq: &E, n: usize, seed: usize) -> Vec<f64> {
        let neq = eq.neq();
        let mut out = vec![0.0; BW * neq * n];
        for b in 0..BW {
            for i in 0..n {
                let h =
                    |k: usize| ((seed + 31 * b + 7 * i + 13 * k) * 2654435761 % 1000) as f64 * 1e-3;
                let alpha = if eq.nf() == 1 { 1.0 } else { 0.05 + 0.9 * h(0) };
                let at = |e: usize| (b * neq + e) * n + i;
                out[at(eq.cont(0))] = 1.2 * alpha;
                if eq.nf() == 2 {
                    out[at(eq.cont(1))] = 1000.0 * (1.0 - alpha);
                    out[at(eq.adv(0))] = alpha;
                }
                for d in 0..eq.ndim() {
                    out[at(eq.mom(d))] = 400.0 * (h(1 + d) - 0.5);
                }
                out[at(eq.energy())] = 1.0e5 * (0.5 + 4.0 * h(5));
            }
        }
        out
    }

    /// One pencil through every Riemann entry of the sweep's layout the CPU
    /// runs at lane width `L`: identical flux and `S*` bits to the baseline
    /// entry.
    fn riemann_entries_agree<E: EqLayout, L: Lane>(sweep: &Sweep<'_, E>, label: &str) {
        let (eq, rnf) = (&sweep.eq, sweep.rnf);
        let v = prim_lines(eq, sweep.rext, 1);
        let mut left = prim_lines(eq, rnf, 2);
        let right = prim_lines(eq, rnf, 3);
        // A negative partial density on one face of the first packet: its
        // packet replays through the scalar path and the limiter.
        left[(eq.neq() + eq.cont(0)) * rnf + 1] = -1.0;
        let u = Unit {
            oc: 0,
            b0: 0,
            bw: BW,
        };
        let (mut flux0, mut ustar0) = (left.clone(), vec![0.0; BW * rnf]);
        sweep.riemann_at::<L>(Tier::Baseline, u, &v, &mut flux0, &right, &mut ustar0);
        for tier in Sweep::<E>::RIEMANN.entries_or_skip() {
            let (mut flux, mut ustar) = (left.clone(), vec![0.0; BW * rnf]);
            sweep.riemann_at::<L>(tier, u, &v, &mut flux, &right, &mut ustar);
            for (what, got, want) in [("flux", &flux, &flux0), ("S*", &ustar, &ustar0)] {
                for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                    assert!(g.is_finite(), "{label} W={}: {what}[{i}] = {g}", L::WIDTH);
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{label} W={}: {what}[{i}] {} {g:e} vs baseline {w:e}",
                        L::WIDTH,
                        tier.name()
                    );
                }
            }
        }
    }

    /// Every solver at every lane width on the sweep instance of one
    /// layout.
    fn riemann_layout_agrees<E: EqLayout>(eq: E, fluids: &FluidTable) {
        for solver in [
            RiemannSolver::Hllc,
            RiemannSolver::Hll,
            RiemannSolver::Rusanov,
        ] {
            let sweep = riemann_sweep(eq, fluids, solver);
            let label = format!("{:?} {solver:?}", E::SHAPE);
            for w in [1, 2, 4, 8] {
                with_lane_width!(w, L => riemann_entries_agree::<_, L>(&sweep, &label));
            }
        }
    }

    /// The Riemann stage's entries are one source compiled per tier without
    /// contraction: on every layout the sweep dispatches (each on the tiers
    /// it ships: AVX2 on (2,3), AVX-512 on the others) and on the
    /// run-time fallback, identical flux and `S*` bits for every solver at
    /// every lane width, a replayed packet included.
    #[test]
    fn riemann_avx2_entry_matches_the_baseline_entry_bitwise() {
        let one = FluidTable::new(&[Fluid::air()]);
        let two = FluidTable::new(&[Fluid::air(), Fluid::water()]);
        for shape in isa::LAYOUTS {
            match shape {
                Some((nf, ndim)) => with_eq_layout!(EqIdx::new(nf, ndim), eq => {
                    assert_eq!(shape_of(eq), shape, "the dispatched instance");
                    riemann_layout_agrees(eq, if nf == 1 { &one } else { &two });
                }),
                None => {
                    riemann_layout_agrees(EqIdx::new(1, 3), &one);
                    riemann_layout_agrees(EqIdx::new(2, 3), &two);
                }
            }
        }
    }

    fn shape_of<E: EqLayout>(_: E) -> Option<(usize, usize)> {
        E::SHAPE
    }

    impl<E: EqLayout> Sweep<'_, E> {
        /// [`Sweep::update`] through its `tier` entry (the x update has
        /// one entry, the baseline code).
        fn update_entry<L: Lane, O: AddView>(
            &self,
            tier: Tier,
            u: Unit,
            flux: &[f64],
            ustar: &[f64],
            out: &mut [O; 2],
        ) {
            match self.axis {
                0 => self.update::<L, O>(u, flux, ustar, out),
                _ => self.update_yz_at(tier, u, flux, ustar, out),
            }
        }
    }

    /// A deterministic value in [-0.8, 0.9) per `(i, k)`.
    fn hash(i: usize, k: usize) -> f64 {
        ((i * 2654435761 + k * 40503) % 10007) as f64 * 1.7e-4 - 0.8
    }

    /// Every pencil of the sweep along `axis` through every update entry
    /// the CPU runs, from the same RHS and div(u), through the plain views
    /// a one-gang launch hands out and the shared ones of a forked launch:
    /// the bits of the baseline entry through the plain views. On a
    /// cylindrical azimuthal sweep (`radial`) the metric scales every width.
    fn update_entries_agree<L: Lane>(dom: &Domain, axis: usize, radial: bool, label: &str) {
        let fluids = FluidTable::new(&[Fluid::air(), Fluid::water()]);
        let widths: Vec<f64> = (0..dom.ext(axis)).map(|i| 0.5 + hash(i, 9).abs()).collect();
        let radii: Vec<f64> = (0..dom.ext(1)).map(|j| 0.1 + hash(j, 5).abs()).collect();
        let radial = radial.then_some(&radii[..]);
        let cfg = RhsConfig::default();
        let sweep = Sweep::new(dom.eq, dom, axis, &cfg, &fluids, &[], &widths, radial);
        let [_, fs, us] = PencilScratch::new(dom, 1).slot;
        let flux: Vec<f64> = (0..fs).map(|i| hash(i, 1) * 1e3).collect();
        let ustar: Vec<f64> = (0..us).map(|i| hash(i, 2)).collect();
        let cells = dom.dims3().len();
        let rhs0: Vec<f64> = (0..cells * dom.eq.neq()).map(|i| hash(i, 3)).collect();
        let divu0: Vec<f64> = (0..cells).map(|i| hash(i, 4)).collect();
        let run = |tier: Tier, shared: bool| {
            let (mut rhs, mut divu) = (rhs0.clone(), divu0.clone());
            for unit in 0..pencil_count(dom, axis) {
                let u = sweep.unit(unit);
                if shared {
                    let mut views = [ParSlice::new(&mut rhs), ParSlice::new(&mut divu)];
                    sweep.update_entry::<L, _>(tier, u, &flux, &ustar, &mut views);
                } else {
                    let mut views = [&mut rhs[..], &mut divu[..]];
                    sweep.update_entry::<L, _>(tier, u, &flux, &ustar, &mut views);
                }
            }
            (rhs, divu)
        };
        let (rhs_b, divu_b) = run(Tier::Baseline, false);
        assert!(
            rhs_b != rhs0 && divu_b != divu0,
            "{label}: the update wrote nothing"
        );
        for tier in isa::UPDATE.entries_or_skip() {
            for shared in [false, true] {
                let (rhs, divu) = run(tier, shared);
                for (what, got, want) in [("rhs", &rhs, &rhs_b), ("div(u)", &divu, &divu_b)] {
                    for (i, (x, y)) in got.iter().zip(want.iter()).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{label} W={} {} shared={shared}: {what}[{i}]",
                            L::WIDTH,
                            tier.name()
                        );
                    }
                }
            }
        }
    }

    /// The extents the gather and update entry tests sweep: `8k + r`
    /// transverse extents (partial pencils) and interior lengths with and
    /// without a tail past the last whole tile, in 3-D, and a 1-D line.
    fn entry_domains() -> [(Domain, std::ops::Range<usize>); 3] {
        [
            (Domain::new([19, 13, 11], 3, EqIdx::new(2, 3)), 0..3),
            (Domain::new([16, 24, 10], 3, EqIdx::new(1, 3)), 0..3),
            (Domain::new([29, 1, 1], 3, EqIdx::new(2, 1)), 0..1),
        ]
    }

    /// The update's entries (8×8 tiles through the AVX-512 and AVX2
    /// transposes, the plain permutation on the baseline) give identical
    /// RHS and div(u) bits through both views, on every axis, at every
    /// lane width, with partial pencils, tails and the cylindrical metric;
    /// the test says which tiers it skipped.
    #[test]
    fn plain_and_shared_update_views_give_identical_bits() {
        for (dom, axes) in entry_domains() {
            for axis in axes {
                // Only the azimuthal (z) sweep of a cylindrical run has a metric.
                for radial in [false, true].into_iter().filter(|&r| !r || axis == 2) {
                    let label = format!("{:?} axis {axis} radial={radial}", dom.n);
                    for w in [1, 2, 4, 8] {
                        with_lane_width!(w, L => update_entries_agree::<L>(&dom, axis, radial, &label));
                    }
                }
            }
        }
    }

    /// The gather's entries copy every pencil of every axis to identical
    /// scratch bits, with partial pencils and tails; the test says which
    /// tiers it skipped.
    #[test]
    fn gather_entries_match_the_baseline_entry_bitwise() {
        let fluids = FluidTable::new(&[Fluid::air(), Fluid::water()]);
        let cfg = RhsConfig::default();
        for (dom, axes) in entry_domains() {
            let q: Vec<f64> = (0..dom.dims3().len() * dom.eq.neq())
                .map(|i| hash(i, 7))
                .collect();
            let widths = vec![1.0; 64];
            for axis in axes {
                let sweep = Sweep::new(dom.eq, &dom, axis, &cfg, &fluids, &q, &widths, None);
                let slot = PencilScratch::new(&dom, 1).slot[0];
                for unit in 0..pencil_count(&dom, axis) {
                    let u = sweep.unit(unit);
                    let mut want = vec![f64::NAN; slot];
                    sweep.gather_at(Tier::Baseline, u, &mut want);
                    assert!(want.iter().any(|v| !v.is_nan()), "the gather wrote nothing");
                    for tier in isa::GATHER.entries_or_skip() {
                        let mut got = vec![f64::NAN; slot];
                        sweep.gather_at(tier, u, &mut got);
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert!(
                            bits(&got) == bits(&want),
                            "{:?} axis {axis} pencil {unit}: {} gather differs",
                            dom.n,
                            tier.name()
                        );
                    }
                }
            }
        }
    }

    /// Fused evaluations never allocate the staged engine's grid-sized
    /// scratch; the first staged evaluation allocates it once, for every
    /// axis, and later ones — fused or staged, at any worker count — reuse
    /// it without growing it.
    #[test]
    fn staged_scratch_is_allocated_once_and_only_when_staged() {
        let case = presets::two_phase_benchmark(3, [13, 10, 9]);
        let fused_cfg = SolverConfig::default();
        let mut staged_cfg = fused_cfg;
        staged_cfg.rhs.mode = RhsMode::Staged;
        let mut solver = Solver::new(&case, fused_cfg, Context::with_workers(3));
        let (env, q) = solver.rhs_parts();
        let mut rhs = q.clone();
        let scratch = |ws: &RhsWorkspace| {
            ws.staged
                .as_ref()
                .map(|s| (s.v.as_ptr(), s.v.len(), s.left.len(), s.ustar.len()))
        };

        env.local_rhs(&fused_cfg.rhs, q, &mut rhs);
        assert!(scratch(&env.ws).is_none(), "a fused evaluation");
        assert_eq!(env.ws.fused.len(), 3, "one fused slot per gang");

        env.local_rhs(&staged_cfg.rhs, q, &mut rhs);
        let first = scratch(&env.ws).expect("a staged evaluation");
        let dom = env.ws.dom;
        let slots = (0..3).map(|a| pencil_count(&dom, a)).max().unwrap();
        assert_eq!(slots, 2 * 10, "z sweep: 10 y lines x 2 batches of x");
        let neq = dom.eq.neq();
        assert_eq!(first.1, slots * PENCIL_B * neq * (13 + 6));
        assert_eq!(first.3, slots * PENCIL_B * 14);

        env.local_rhs(&fused_cfg.rhs, q, &mut rhs);
        env.ctx.set_workers(1);
        env.local_rhs(&staged_cfg.rhs, q, &mut rhs);
        assert_eq!(
            scratch(&env.ws),
            Some(first),
            "the second staged evaluation"
        );
    }
}
