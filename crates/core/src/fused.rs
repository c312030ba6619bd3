//! Fused, cache-blocked RHS sweep engine.
//!
//! The staged pipeline in [`crate::rhs`] streams the full grid through
//! memory once per stage: reshape into a coalesced buffer, reconstruct
//! every face, solve every Riemann problem, then accumulate the flux
//! divergence — with grid-sized `left`/`right`/`flux`/`ustar`
//! intermediates in between. That is exactly the traffic the paper's GPU
//! kernel-fusion work eliminates; on a memory-bound CPU core the canonical
//! analog is loop fusion with cache blocking.
//!
//! This engine processes *pencils* — batches of [`PENCIL_B`] transverse
//! lines along the sweep axis — through gather → convert → WENO → Riemann
//! → update in a single pass. All intermediates live in a few KB of
//! per-pencil scratch ([`FusedScratch`]) that stays resident in L1/L2, and
//! the per-face variable vectors are the layout's [`EqLayout::Vars`] —
//! sized exactly `neq` for the shipped shapes, whose sweep body is
//! instantiated over a [`crate::eqidx::ConstEq`] picked once per sweep
//! (the compile-time-sized "private arrays" of §III-D). Two further
//! sources of traffic disappear structurally:
//!
//! * no grid-sized buffer is materialized for any direction, primitives
//!   included — the gather stage copies each pencil's lines straight out
//!   of the conservative state (x lines too), batched along the
//!   canonical-x coordinate so even the strided y/z gathers consume whole
//!   cache lines, and converts them to primitives in scratch with the
//!   same per-cell [`crate::eos::cons_to_prim`] every primitive field is
//!   built with;
//! * ghost *transverse* lines are skipped. The staged kernels reconstruct
//!   and solve along every line of the padded buffer, but the update stage
//!   only ever reads faces on interior transverse coordinates, so roughly
//!   `1 - (n/(n+2*ng))^2` of the staged WENO/Riemann work is dead. Skipping
//!   it cannot change a single consumed bit.
//!
//! Per-line arithmetic is delegated to the *same* cell and face kernels
//! the staged path uses ([`crate::weno::reconstruct_line_padded`],
//! [`crate::limiter::limit_state`], [`RiemannSolver::flux`]) in the same
//! order, so the fused engine is bitwise identical to the staged one —
//! `tests/rhs_fusion.rs` asserts this on every shipped case.
//!
//! Unlike the staged stages, which tile lanes across whole grid rows, the
//! fused Riemann/update stages tile lane packets along the *unit-stride
//! face index within each pencil line* (OpenACC's `vector` level nested
//! inside the pencil `gang`s). Each lane still performs the exact scalar
//! op sequence on its own face, so every width remains bitwise identical
//! to the scalar engine. The WENO stage runs the scalar per-cell line
//! kernel at every width (its plain cell loop is what the compiler's loop
//! vectoriser packs best, at the width of the entry the running CPU
//! selects). The gather's copy is a scalar byte shuffle; its conversion
//! runs in lane packets along each gathered line.
//!
//! Every stage still lands in the `mfc-acc` ledger under its own label
//! (`f_sweep_gather`/`f_sweep_convert`/`f_weno_reconstruct`/
//! `f_riemann_solve`/`f_flux_divergence`) with the staged-equivalent
//! per-item costs — the conversion carries the arithmetic, the gather the
//! traffic — so roofline and breakdown figures keep decomposing; an
//! `s_fused_sweep` marker of class [`KernelClass::Fused`] carries the
//! orchestration residual so total ledger wall time stays honest.

use std::time::{Duration, Instant};

use mfc_acc::{Context, KernelClass, KernelCost, Lane, LaneGangBody, ParSlice};

use crate::axisym::Geometry;
use crate::domain::Domain;
use crate::eos::cons_to_prim;
use crate::eqidx::{with_eq_layout, EqLayout};
use crate::fluid::{Fluid, FluidTable};
use crate::limiter::{admissible, admissible_mask, limit_state, Limiter};
use crate::rhs::{sweep_to_canonical, transverse_interior, RhsConfig, RhsWorkspace};
use crate::riemann::RiemannSolver;
use crate::state::{convert_flops, StateField};
use crate::weno::{reconstruct_line_padded, WenoOrder};

/// Transverse lines per pencil. Eight 8-byte values span one 64-byte cache
/// line, so the strided y/z gathers read (and fully consume) whole lines.
pub(crate) const PENCIL_B: usize = 8;

/// Per-pencil scratch of the fused engine: the only intermediates between
/// the sweep stages, sized `PENCIL_B * neq * max_line` — a few KB total,
/// resident in cache for the lifetime of the evaluation.
pub(crate) struct FusedScratch {
    /// Gathered pencil lines as primitives, `[b][e][s]`, line-contiguous.
    v: Vec<f64>,
    /// Reconstructed face states, `[b][e][m]`. The Riemann stage
    /// overwrites each face's left state, once read, with its flux.
    left: Vec<f64>,
    right: Vec<f64>,
    /// Contact speeds, `[b][m]`.
    ustar: Vec<f64>,
}

impl FusedScratch {
    /// Allocate scratch for `dom` at lane width `vector_width`: per-line
    /// extents are rounded up to a lane multiple so a bounds-checked
    /// full-packet load anchored at any in-line index stays inside the
    /// allocation even on the buffer's final line.
    pub(crate) fn new(dom: &Domain, vector_width: usize) -> Self {
        let vw = vector_width.max(1);
        let round = |n: usize| n.div_ceil(vw) * vw;
        let neq = dom.eq.neq();
        let (mut vmax, mut fmax, mut umax) = (0, 0, 0);
        for axis in 0..dom.eq.ndim() {
            let ext = dom.ext(axis);
            let nf = dom.n[axis] + 1;
            vmax = vmax.max(PENCIL_B * neq * round(ext));
            fmax = fmax.max(PENCIL_B * neq * round(nf));
            umax = umax.max(PENCIL_B * round(nf));
        }
        FusedScratch {
            v: vec![0.0; vmax],
            left: vec![0.0; fmax],
            right: vec![0.0; fmax],
            ustar: vec![0.0; umax],
        }
    }
}

/// One fused directional sweep (steps 1–6 of [`crate::rhs::compute_rhs`]
/// along `axis`), reading `cons` only on the lines it consumes. Bitwise
/// identical to the staged path.
pub(crate) fn fused_sweep_axis(
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
        ..
    } = ws;
    let dom = *dom;
    let eq = dom.eq;
    let neq = eq.neq();
    // One scratch block per worker gang: each gang's pencils stream
    // through its own buffers, so the decomposition never changes a
    // single value any pencil reads (scratch is fully rewritten before
    // every read within a unit of work).
    let workers = ctx.workers().max(1);
    if fused.len() < workers {
        fused.resize_with(workers, || FusedScratch::new(&dom, ctx.vector_width()));
    }
    let d3 = dom.dims3();
    let (n1, n2, n3) = (d3.n1, d3.n2, d3.n3);
    let cell_stride = n1 * n2 * n3;
    let qsl = cons.as_slice();
    let rsl = ParSlice::new(rhs.as_mut_slice());
    let dsl = ParSlice::new(divu);
    let gh = cfg.order.ghost_layers();

    let pad = dom.pad(axis);
    // Along the sweep axis: `s_n` interior cells, `s_n + 1` faces, and a
    // gathered line of the full padded extent.
    let s_n = dom.n[axis];
    let rext = dom.ext(axis);
    let rnf = s_n + 1;
    let w = &widths[axis][..];
    let radial = if axis == 2 && cfg.geometry == Geometry::Cylindrical3D {
        Some(&radii[..])
    } else {
        None
    };
    // Interior transverse bounds in sweep coordinates (t1, t2): ghost
    // transverse lines are skipped.
    let (p1, n1i, p2, n2i) = transverse_interior(&dom, axis);
    // Pencils batch over whichever transverse coordinate is canonical
    // x (t1 for the x/y sweeps, t2 for z), so the strided gathers of a
    // pencil read consecutive memory.
    let batch_t1 = axis < 2;
    let (bq, bcount, oq, ocount) = if batch_t1 {
        (p1, n1i, p2, n2i)
    } else {
        (p2, n2i, p1, n1i)
    };
    let nlines = n1i * n2i;

    // Gang decomposition: the sweep's unit of work is one pencil — an
    // (outer transverse coordinate, batch of PENCIL_B lines) pair. Units
    // are flattened with the batch index fastest, so the serial unit
    // order reproduces the original (outer, batch) loop nest exactly;
    // distinct units update disjoint cells, so the per-index writes
    // commute and any gang count produces bitwise-identical fields.
    let nbatches = bcount.div_ceil(PENCIL_B);
    let units = ocount * nbatches;

    let table = FluidTable::new(fluids);
    let t_axis = Instant::now();
    // Per-stage CPU time summed over gangs in fixed gang order (exceeds
    // the axis wall clock when gangs overlap; the residual clamps at 0).
    let mut stage = [Duration::ZERO; 5];
    // The one place the sweep looks at the layout's shape: the body below
    // is instantiated per layout, and every per-face loop inside it runs
    // on that instance's (for the shipped shapes, literal) counts.
    let gangs = with_eq_layout!(eq, eq => {
        let body = FusedBody {
            eq,
            fluids: &table,
            order: cfg.order,
            solver: cfg.solver,
            limiter: cfg.limiter,
            axis,
            qsl,
            rsl,
            dsl,
            w,
            radial,
            n1,
            n2,
            n3,
            cell_stride,
            sweep_stride: match axis {
                0 => 1,
                1 => n1,
                _ => n1 * n2,
            },
            pad,
            s_n,
            rext,
            rnf,
            batch_t1,
            bq,
            bcount,
            oq,
            nbatches,
        };
        let work = (nlines * s_n) as u64;
        ctx.gang_vec_scope(units, work, &mut fused[..], &body, |t: [Duration; 5]| {
            for (sum, gang) in stage.iter_mut().zip(t) {
                *sum += gang;
            }
        })
    });

    // Per-axis ledger records: each stage under its own label with the
    // staged-equivalent per-item cost, plus the Fused-class marker
    // carrying the orchestration residual. The stage events tile the
    // axis interval back-to-back so traced timelines stay monotone;
    // with >1 gang the timers sum CPU time across workers and can
    // exceed the wall interval, so scale them down to fit it.
    let wall = t_axis.elapsed();
    let total: Duration = stage.iter().sum();
    if total > wall && total > Duration::ZERO {
        let scale = wall.as_secs_f64() / total.as_secs_f64();
        stage = stage.map(|t| t.mul_f64(scale));
    }
    let [tg, tc, tw, tr, tu] = stage;
    // Analytic lane tiling of the vector stages (the same convention as
    // `launch_vec`): the conversion tiles `rext` cells, WENO `neq` face
    // lines and Riemann one face line of `rnf` faces per pencil line; the
    // update tiles `s_n` cells per line. The scalar gather contributes no
    // vector elements. (The WENO stage is accounted as tiled although its
    // packing is left to the compiler: the count is of elements that run
    // as lanes.)
    let vw = ctx.vector_width();
    let face_rows = (nlines * (neq + 1)) as u64;
    let cell_rows = |n: usize| nlines as u64 * (n / vw) as u64;
    let cell_tail = |n: usize| nlines as u64 * (n % vw) as u64;
    ctx.note_lane_tiling(
        face_rows * (rnf / vw) as u64 + cell_rows(s_n) + cell_rows(rext),
        face_rows * (rnf % vw) as u64 + cell_tail(s_n) + cell_tail(rext),
    );
    ctx.record(
        "f_sweep_gather",
        KernelCost::new(KernelClass::Pack, 0.0, 8.0, 8.0),
        (nlines * neq * rext) as u64,
        gangs,
        1,
        t_axis,
        tg,
    );
    // The conversion works in registers on the scratch the gather just
    // filled: its arithmetic is new, its traffic is the gather's.
    ctx.record(
        "f_sweep_convert",
        KernelCost::new(KernelClass::Other, convert_flops(&dom), 0.0, 0.0),
        (nlines * rext) as u64,
        gangs,
        vw,
        t_axis + tg,
        tc,
    );
    ctx.record(
        "f_weno_reconstruct",
        KernelCost::new(
            KernelClass::Weno,
            cfg.order.flops_per_face(),
            8.0 * (2 * gh + 1) as f64,
            2.0 * 8.0,
        ),
        (nlines * neq * rnf) as u64,
        gangs,
        vw,
        t_axis + tg + tc,
        tw,
    );
    ctx.record(
        "f_riemann_solve",
        KernelCost::new(
            KernelClass::Riemann,
            cfg.solver.flops_per_face(&eq),
            2.0 * 8.0 * neq as f64,
            8.0 * (neq + 1) as f64,
        ),
        (nlines * rnf) as u64,
        gangs,
        vw,
        t_axis + tg + tc + tw,
        tr,
    );
    ctx.record(
        "f_flux_divergence",
        KernelCost::new(
            KernelClass::Update,
            (2 * neq + 3) as f64,
            8.0 * 2.0 * (neq + 1) as f64,
            8.0 * (neq + 1) as f64,
        ),
        (nlines * s_n) as u64,
        gangs,
        vw,
        t_axis + tg + tc + tw + tr,
        tu,
    );
    let total: Duration = stage.iter().sum();
    let residual = wall.checked_sub(total).unwrap_or(Duration::ZERO);
    ctx.record(
        "s_fused_sweep",
        KernelCost::new(KernelClass::Fused, 0.0, 8.0, 8.0),
        nlines as u64,
        gangs,
        1,
        t_axis + total,
        residual,
    );
}

/// Shared environment of one fused directional sweep, executable at any
/// lane width ([`LaneGangBody`]): each gang streams its pencil range
/// through the five stages with its own [`FusedScratch`], tiling lane
/// packets along the unit-stride face index within every pencil line.
struct FusedBody<'a, E> {
    eq: E,
    fluids: &'a FluidTable,
    order: WenoOrder,
    solver: RiemannSolver,
    limiter: Limiter,
    axis: usize,
    /// Canonical conservative state.
    qsl: &'a [f64],
    rsl: ParSlice<'a>,
    dsl: ParSlice<'a>,
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

impl<E: EqLayout> FusedBody<'_, E> {
    /// Sweep coordinates (t1, t2) of batch line `b` of the unit at outer
    /// coordinate `oc`, batch origin `b0`.
    #[inline(always)]
    fn line_t(&self, oc: usize, b0: usize, b: usize) -> (usize, usize) {
        if self.batch_t1 {
            (self.bq + b0 + b, oc)
        } else {
            (oc, self.bq + b0 + b)
        }
    }

    /// Canonical flat offset of cell (s = 0) of line (t1, t2), variable
    /// `e` — lines of one pencil are consecutive in canonical x.
    #[inline(always)]
    fn line_base(&self, t1: usize, t2: usize, e: usize) -> usize {
        let (i, j, k) = sweep_to_canonical(self.axis, 0, t1, t2);
        i + self.n1 * (j + self.n2 * (k + self.n3 * e))
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

    /// One face through the scalar Riemann path (the exact staged
    /// semantics): gather face states, positivity-limit toward the cell
    /// means where inadmissible, solve, store the flux over the face's
    /// left state and the contact speed.
    #[inline(always)]
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
}

impl<E: EqLayout> LaneGangBody<FusedScratch, [Duration; 5]> for FusedBody<'_, E> {
    fn run<L: Lane>(
        &self,
        _gang: usize,
        range: std::ops::Range<usize>,
        fs: &mut FusedScratch,
    ) -> [Duration; 5] {
        let FusedScratch {
            v,
            left,
            right,
            ustar,
        } = fs;
        let eq = &self.eq;
        let neq = eq.neq();
        let (rext, rnf, s_n, pad, axis) = (self.rext, self.rnf, self.s_n, self.pad, self.axis);
        let mut times = [Duration::ZERO; 5];

        for unit in range {
            let o = unit / self.nbatches;
            let b0 = (unit % self.nbatches) * PENCIL_B;
            let oc = self.oq + o;
            let bw = PENCIL_B.min(self.bcount - b0);

            // --- stage 1: gather the pencil's conservative lines (a
            //     scalar pack: x lines are contiguous in `q`, y/z lines
            //     are read across the batch, which is consecutive in
            //     canonical x) ---
            {
                let t0 = Instant::now();
                if axis == 0 {
                    for b in 0..bw {
                        let (t1, t2) = self.line_t(oc, b0, b);
                        for e in 0..neq {
                            let base = self.line_base(t1, t2, e);
                            let lo = (b * neq + e) * rext;
                            v[lo..lo + rext].copy_from_slice(&self.qsl[base..base + rext]);
                        }
                    }
                } else {
                    let sweep_stride = self.sweep_stride;
                    let (t1, t2) = self.line_t(oc, b0, 0);
                    for e in 0..neq {
                        let base = self.line_base(t1, t2, e);
                        for s in 0..rext {
                            let src = base + s * sweep_stride;
                            let dst = e * rext + s;
                            for (b, vb) in
                                v[dst..].iter_mut().step_by(neq * rext).take(bw).enumerate()
                            {
                                *vb = self.qsl[src + b];
                            }
                        }
                    }
                }
                times[0] += t0.elapsed();
            }

            // --- stage 2: convert the gathered lines to primitives in
            //     place, lane packets along each line ---
            {
                let t0 = Instant::now();
                for lines in v.chunks_exact_mut(neq * rext).take(bw) {
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
                times[1] += t0.elapsed();
            }

            // --- stage 3: WENO reconstruction per line per variable,
            //     through the scalar per-cell line kernel at every lane
            //     width: its plain cell loop is what LLVM's loop
            //     vectoriser turns into the host's packed arithmetic,
            //     faster than explicit packets ran it (lanes are bitwise
            //     invisible, so the choice cannot change a value) ---
            {
                let t0 = Instant::now();
                for b in 0..bw {
                    for e in 0..neq {
                        let fo = (b * neq + e) * rnf;
                        let lo = (b * neq + e) * rext;
                        reconstruct_line_padded(
                            self.order,
                            &v[lo..lo + rext],
                            pad,
                            s_n,
                            &mut left[fo..fo + rnf],
                            &mut right[fo..fo + rnf],
                        );
                    }
                }
                times[2] += t0.elapsed();
            }

            // --- stage 4: Riemann solve per face (same positivity
            //     limiting and flux arithmetic as the staged kernel):
            //     all-admissible packets solve lane-wide, any flagged
            //     lane replays the whole packet through the scalar path ---
            {
                let t0 = Instant::now();
                for b in 0..bw {
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
                            let s = self.solver.flux(eq, self.fluids, axis, pl, pr, f);
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
                times[3] += t0.elapsed();
            }

            // --- stage 5: flux divergence into the canonical RHS and
            //     S* differences into div(u), lane packets along the
            //     sweep index with the canonical per-axis cell stride ---
            {
                let t0 = Instant::now();
                let flux = &left[..];
                for b in 0..bw {
                    let (t1, t2) = self.line_t(oc, b0, b);
                    let metric = self.radial.map(|r| r[t1]).unwrap_or(1.0);
                    let ub = b * rnf;
                    let cs = self.sweep_stride;
                    let mut s = 0;
                    while s + L::WIDTH <= s_n {
                        let inv_dx =
                            L::splat(1.0) / (L::load(&self.w[pad + s..]) * L::splat(metric));
                        let (i, j, k) = sweep_to_canonical(axis, pad + s, t1, t2);
                        let cell = i + self.n1 * (j + self.n2 * k);
                        for e in 0..neq {
                            let fb = (b * neq + e) * rnf + s;
                            let d = (L::load(&flux[fb..]) - L::load(&flux[fb + 1..])) * inv_dx;
                            self.rsl
                                .add_lanes_strided(cell + e * self.cell_stride, cs, d);
                        }
                        let dv =
                            (L::load(&ustar[ub + s + 1..]) - L::load(&ustar[ub + s..])) * inv_dx;
                        self.dsl.add_lanes_strided(cell, cs, dv);
                        s += L::WIDTH;
                    }
                    while s < s_n {
                        let inv_dx = 1.0 / (self.w[pad + s] * metric);
                        let (i, j, k) = sweep_to_canonical(axis, pad + s, t1, t2);
                        let cell = i + self.n1 * (j + self.n2 * k);
                        for e in 0..neq {
                            let fb = (b * neq + e) * rnf + s;
                            self.rsl.add(
                                cell + e * self.cell_stride,
                                (flux[fb] - flux[fb + 1]) * inv_dx,
                            );
                        }
                        self.dsl
                            .add(cell, (ustar[ub + s + 1] - ustar[ub + s]) * inv_dx);
                        s += 1;
                    }
                }
                times[4] += t0.elapsed();
            }
        }
        times
    }
}
