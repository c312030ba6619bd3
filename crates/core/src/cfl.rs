//! CFL-based time-step selection.
//!
//! The dt rule is one per-cell wave-speed rate ([`RateMetric::rate`]),
//! maximised over the interior and turned into a step by
//! [`dt_from_rate`]. The solver folds the rate into the post-step health
//! scan ([`crate::health`]), so a step's dt normally costs no pass of its
//! own; [`try_max_dt_geom`] is the same rule as a standalone reduction.

use mfc_acc::{Context, KernelClass, KernelCost, Lane, LaneMaxKernel, LaunchConfig};

use crate::eos::{cons_to_prim, sound_speed};
use crate::eqidx::{with_eq_layout, EqLayout};
use crate::fluid::{Fluid, FluidTable};
use crate::recovery::StepFault;
use crate::state::StateField;

/// Largest stable time step for the given primitive state:
/// `dt = cfl / max_cells sum_d (|u_d| + c) / dx_d`.
///
/// `widths[d]` are the ghost-inclusive cell widths along axis `d`. With
/// an azimuthal metric — in 3-D cylindrical coordinates the azimuthal
/// cell width is `r * dtheta` — pass the ghost-inclusive radial centers
/// to tighten the theta CFL bound (the restriction the paper's FFT filter
/// exists to relax).
///
/// A non-finite or non-positive wave-speed reduction (an all-NaN or
/// vacuum state) is a typed [`StepFault`] for the recovery ladder, never
/// a panic.
pub fn try_max_dt_geom(
    ctx: &Context,
    fluids: &[Fluid],
    prim: &StateField,
    widths: [&[f64]; 3],
    cfl: f64,
    radial_metric: Option<&[f64]>,
) -> Result<f64, StepFault> {
    let metric = RateMetric::new(fluids, widths, radial_metric);
    dt_from_rate(cfl, max_rate(ctx, fluids, prim, false, &metric))
}

/// `cfl / rate`: the one place a maximum wave-speed rate becomes a step.
/// A non-finite or non-positive rate is [`StepFault::DegenerateWaveSpeed`].
pub(crate) fn dt_from_rate(cfl: f64, rate: f64) -> Result<f64, StepFault> {
    assert!(cfl > 0.0 && cfl <= 1.0, "cfl must be in (0, 1], got {cfl}");
    if rate.is_finite() && rate > 0.0 {
        Ok(cfl / rate)
    } else {
        Err(StepFault::DegenerateWaveSpeed { rate })
    }
}

/// Approximate FLOPs of one cell's rate (ledger accounting only).
pub(crate) fn rate_flops(ndim: usize) -> f64 {
    (20 + 6 * ndim) as f64
}

/// The maximum of [`RateMetric::rate`] over the interior of `state`, as
/// one `s_compute_dt` reduction. `conservative` says `state` holds
/// conservative variables, converted per cell in registers with the
/// same [`cons_to_prim`] every primitive field is built with; otherwise
/// it holds primitives. `-inf` when no cell has a finite rate.
pub(crate) fn max_rate(
    ctx: &Context,
    fluids: &[Fluid],
    state: &StateField,
    conservative: bool,
    metric: &RateMetric,
) -> f64 {
    let dom = *state.domain();
    let eq = dom.eq;
    let neq = eq.neq();
    let (nx, ny) = (dom.n[0], dom.n[1]);
    let cost = KernelCost::new(
        KernelClass::Other,
        rate_flops(eq.ndim()),
        8.0 * neq as f64,
        8.0,
    );
    let cfg = LaunchConfig::tuned("s_compute_dt");
    // Lane-tiled max reduction: packets along the unit-stride x row, and
    // the horizontal fold extracts lanes in ascending order, so the
    // reduction visits bitwise the scalar per-cell rates in the scalar
    // item order.
    let table = FluidTable::new(fluids);
    let nz = dom.n[2];
    with_eq_layout!(eq, eq => {
        let kernel = DtKernel {
            eq,
            table: &table,
            src: state.as_slice(),
            conservative,
            metric,
            ny,
            pad: [dom.pad(0), dom.pad(1), dom.pad(2)],
            ext1: dom.ext(0),
            ext2: dom.ext(1),
            block: dom.ext(0) * dom.ext(1) * dom.ext(2),
        };
        ctx.launch_max_vec(&cfg, cost, ny * nz, nx, &kernel)
    })
}

/// What the CFL rate of a cell depends on besides its primitives: the
/// ghost-inclusive cell widths per axis, the azimuthal `r` of 3-D
/// cylindrical runs, and the viscosities of the diffusive bound.
pub(crate) struct RateMetric<'a> {
    widths: [&'a [f64]; 3],
    /// Ghost-inclusive radial centers: the azimuthal width is `r dtheta`.
    radial: Option<&'a [f64]>,
    /// Per-fluid viscosities; `None` when no fluid is viscous.
    viscous: Option<&'a [Fluid]>,
    /// Whether [`RateMetric::rate`] adds the diffusive `2 nu / h^2`. Without
    /// viscosity that term is `0 / h^2 = +0` — and adding `+0` to the
    /// convective term, which is never `-0`, changes no bit — unless some
    /// `h^2` is 0 or NaN (admission lets a width below ~1.5e-162 through,
    /// and `h^2` underflows), where it is `0 / 0 = NaN`; only then is it
    /// kept for an inviscid case.
    diffusive: bool,
}

impl<'a> RateMetric<'a> {
    pub(crate) fn new(
        fluids: &'a [Fluid],
        widths: [&'a [f64]; 3],
        radial: Option<&'a [f64]>,
    ) -> Self {
        let viscous = crate::viscous::is_viscous(fluids).then_some(fluids);
        // `|h1 h2| >= |h1 min|h2||` after rounding too, so the smallest
        // radius bounds every azimuthal width.
        let r_min = radial.map_or(1.0, |r| r.iter().fold(f64::INFINITY, |m, r| m.min(r.abs())));
        let squares = |w: &[f64], s: f64| w.iter().all(|x| (x * s) * (x * s) > 0.0);
        let diffusive = viscous.is_some()
            || !(squares(widths[0], 1.0)
                && squares(widths[1], 1.0)
                && squares(widths[2], r_min)
                && radial.is_none_or(|r| squares(r, 1.0)));
        RateMetric {
            widths,
            radial,
            viscous,
            diffusive,
        }
    }

    /// `sum_d (|u_d| + c) / h_d + 2 nu / h_d^2` of the primitive cells `p`
    /// at ghost-inclusive `(i.., j, k)`: lanes run along x from `i`, and
    /// each lane is bitwise the scalar rate of its own cell.
    #[inline(always)]
    pub(crate) fn rate<E: EqLayout, L: Lane>(
        &self,
        eq: &E,
        table: &FluidTable,
        p: &[L],
        i: usize,
        j: usize,
        k: usize,
    ) -> L {
        let (rho, _, c) = sound_speed(eq, table, p);
        // Mixture kinematic viscosity for the diffusive stability bound.
        let nu = match self.viscous {
            Some(fluids) => {
                let mut alphas = [L::splat(0.0); crate::eos::MAX_FLUIDS];
                eq.alphas(p, &mut alphas[..eq.nf()]);
                let mut s = L::splat(0.0);
                for (f, a) in fluids.iter().zip(&alphas[..eq.nf()]) {
                    s = s + *a * L::splat(f.viscosity);
                }
                s / rho.max(L::splat(1e-300))
            }
            None => L::splat(0.0),
        };
        let mut rate = L::splat(0.0);
        for d in 0..eq.ndim() {
            let h = match d {
                0 => L::load(&self.widths[0][i..]),
                1 => L::splat(self.widths[1][j]),
                _ => {
                    let mut h = L::splat(self.widths[2][k]);
                    if let Some(r) = self.radial {
                        h = h * L::splat(r[j]);
                    }
                    h
                }
            };
            let mut r = (p[eq.mom(d)].abs() + c) / h;
            if self.diffusive {
                r = r + L::splat(2.0) * nu / (h * h);
            }
            rate = rate + r;
        }
        rate
    }
}

/// Lane kernel of the CFL reduction: row = (j, k) interior line, col =
/// interior x offset. Each lane computes the scalar wave-speed rate of
/// its own cell; transverse widths and the azimuthal metric are uniform
/// per row and enter as splats.
struct DtKernel<'a, E> {
    eq: E,
    table: &'a FluidTable,
    src: &'a [f64],
    /// `src` is conservative: convert each cell before its rate.
    conservative: bool,
    metric: &'a RateMetric<'a>,
    /// Interior cells along y.
    ny: usize,
    pad: [usize; 3],
    ext1: usize,
    ext2: usize,
    /// Ghost-inclusive cells per equation block.
    block: usize,
}

impl<E: EqLayout> LaneMaxKernel for DtKernel<'_, E> {
    #[inline(always)]
    fn packet<L: Lane>(&self, row: usize, col: usize) -> L {
        let eq = &self.eq;
        let i = col + self.pad[0];
        let j = row % self.ny + self.pad[1];
        let k = row / self.ny + self.pad[2];
        let base = i + self.ext1 * (j + self.ext2 * k);
        let neq = eq.neq();
        let (mut s, mut p) = (eq.vars::<L>(), eq.vars::<L>());
        let (s, p) = (&mut s.as_mut()[..neq], &mut p.as_mut()[..neq]);
        for (e, v) in s.iter_mut().enumerate() {
            *v = L::load(&self.src[base + e * self.block..]);
        }
        if self.conservative {
            cons_to_prim(eq, self.table, s, p);
            self.metric.rate(eq, self.table, p, i, j, k)
        } else {
            self.metric.rate(eq, self.table, s, i, j, k)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::eqidx::EqIdx;
    use crate::grid::Grid1D;

    #[test]
    fn dt_matches_manual_1d() {
        let eq = EqIdx::new(1, 1);
        let dom = Domain::new([8, 1, 1], 3, eq);
        let ctx = Context::serial();
        let mut prim = StateField::zeros(dom);
        for i in 0..dom.ext(0) {
            prim.set(i, 0, 0, eq.cont(0), 1.4);
            prim.set(i, 0, 0, eq.mom(0), 100.0);
            prim.set(i, 0, 0, eq.energy(), 1.0e5);
        }
        let g = Grid1D::uniform(8, 0.0, 1.0);
        let wx = g.widths_with_ghosts(3);
        let ones = vec![1.0];
        let dt =
            try_max_dt_geom(&ctx, &[Fluid::air()], &prim, [&wx, &ones, &ones], 0.5, None).unwrap();
        // c = sqrt(1.4e5/1.4) ≈ 316.23; rate = (100 + c)/0.125.
        let c = (1.4 * 1.0e5 / 1.4f64).sqrt();
        let want = 0.5 / ((100.0 + c) / 0.125);
        assert!((dt - want).abs() < 1e-12 * want, "dt={dt} want={want}");
    }

    /// An inviscid rate without the `2 nu / h^2` term is bitwise the rate
    /// with it, over signed, zero and extreme states; a width whose square
    /// underflows keeps the term and its `0 / 0 = NaN`.
    #[test]
    fn inviscid_rate_skips_the_diffusive_term_bitwise() {
        let eq = EqIdx::new(2, 3);
        let fluids = [Fluid::air(), Fluid::water()];
        let table = FluidTable::new(&fluids);
        let w = [0.5, 1e-150, 3e7];
        let r = [0.0, 2e-3, 1e5];
        let widths = [&w[..], &w[..], &w[..]];
        let metric = RateMetric::new(&fluids, widths, Some(&r[1..]));
        assert!(!metric.diffusive);
        let with_term = RateMetric {
            diffusive: true,
            ..RateMetric::new(&fluids, widths, Some(&r[1..]))
        };
        for (n, u) in [0.0, -0.0, 3.0, -1e300, f64::NAN].into_iter().enumerate() {
            for (a, p) in [(0.3, 1e5), (1e-8, 0.0), (0.9, -2e8), (0.5, f64::INFINITY)] {
                let mut prim = [0.0; 7];
                prim[eq.cont(0)] = 1.2 * a;
                prim[eq.cont(1)] = 1000.0 * (1.0 - a);
                prim[eq.mom(0)] = u;
                prim[eq.mom(1)] = -u;
                prim[eq.mom(2)] = 7.0;
                prim[eq.energy()] = p;
                prim[eq.adv(0)] = a;
                let (i, j, k) = (n % 3, (n + 1) % 2, n % 2);
                let got = metric.rate(&eq, &table, &prim, i, j, k);
                let want = with_term.rate(&eq, &table, &prim, i, j, k);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "u={u} a={a} p={p}: {got} vs {want}"
                );
            }
        }
        let tiny = [1e-170];
        let metric = RateMetric::new(&fluids, [&tiny, &tiny, &tiny], None);
        assert!(metric.diffusive);
        let mut prim = [0.0; 7];
        prim[eq.cont(0)] = 1.2;
        prim[eq.mom(0)] = 1.0;
        prim[eq.energy()] = 1e5;
        prim[eq.adv(0)] = 1.0;
        assert!(metric.rate(&eq, &table, &prim, 0, 0, 0).is_nan());
    }

    #[test]
    fn faster_flow_shrinks_dt() {
        let eq = EqIdx::new(1, 1);
        let dom = Domain::new([8, 1, 1], 3, eq);
        let ctx = Context::serial();
        let g = Grid1D::uniform(8, 0.0, 1.0);
        let wx = g.widths_with_ghosts(3);
        let ones = vec![1.0];
        let mk = |u: f64| {
            let mut prim = StateField::zeros(dom);
            for i in 0..dom.ext(0) {
                prim.set(i, 0, 0, eq.cont(0), 1.4);
                prim.set(i, 0, 0, eq.mom(0), u);
                prim.set(i, 0, 0, eq.energy(), 1.0e5);
            }
            prim
        };
        let dt = |u: f64| {
            try_max_dt_geom(
                &ctx,
                &[Fluid::air()],
                &mk(u),
                [&wx, &ones, &ones],
                0.5,
                None,
            )
            .unwrap()
        };
        let (slow, fast) = (dt(10.0), dt(500.0));
        assert!(fast < slow);
    }

    #[test]
    fn degenerate_state_is_a_typed_fault() {
        // An all-zero "vacuum" state gives NaN sound speeds, which the
        // NaN-ignoring max-reduction collapses to -inf: a typed fault.
        let eq = EqIdx::new(1, 1);
        let dom = Domain::new([8, 1, 1], 3, eq);
        let ctx = Context::serial();
        let prim = StateField::zeros(dom);
        let g = Grid1D::uniform(8, 0.0, 1.0);
        let wx = g.widths_with_ghosts(3);
        let ones = vec![1.0];
        let err = try_max_dt_geom(&ctx, &[Fluid::air()], &prim, [&wx, &ones, &ones], 0.5, None)
            .unwrap_err();
        assert!(matches!(err, StepFault::DegenerateWaveSpeed { .. }));
    }

    #[test]
    #[should_panic]
    fn rejects_silly_cfl() {
        let eq = EqIdx::new(1, 1);
        let dom = Domain::new([4, 1, 1], 2, eq);
        let ctx = Context::serial();
        let prim = StateField::zeros(dom);
        let w = vec![1.0; 8];
        let ones = vec![1.0];
        let _ = try_max_dt_geom(&ctx, &[Fluid::air()], &prim, [&w, &ones, &ones], 1.5, None);
    }
}
