//! Azimuthal spectral filtering for 3-D cylindrical grids (§III-A).
//!
//! On cylindrical grids the azimuthal cell width shrinks as `r dtheta`
//! toward the axis, which would crush the CFL time step.  MFC applies a
//! cuFFT/hipFFT low-pass filter along the azimuthal direction near the
//! axis instead; here the transform comes from [`mfc_fft`].
//!
//! Convention: axis 0 = axial, axis 1 = radial (ring index), axis 2 =
//! azimuthal (periodic, power-of-two extent).

use mfc_acc::{Context, KernelClass, KernelCost, LaunchConfig};
use mfc_fft::LowpassPlan;

use crate::state::StateField;

/// Apply the ring-dependent azimuthal low-pass filter to every equation of
/// the interior cells.
pub fn apply_azimuthal_filter(ctx: &Context, plan: &LowpassPlan, q: &mut StateField) {
    let dom = *q.domain();
    let eq = dom.eq;
    assert_eq!(eq.ndim(), 3, "azimuthal filter requires a 3-D field");
    assert_eq!(
        plan.ntheta(),
        dom.n[2],
        "filter plan azimuthal extent must match the grid"
    );
    assert_eq!(
        plan.nr(),
        dom.n[1],
        "filter plan must cover every radial ring"
    );
    let ntheta = dom.n[2];
    let neq = eq.neq();
    let cost = KernelCost::new(
        KernelClass::Other,
        // ~5 N log2 N flops per FFT, two transforms per line.
        10.0 * (ntheta as f64).log2(),
        8.0,
        8.0,
    );
    let cfg = LaunchConfig::tuned("s_fourier_filter");
    // The rows a filtered ring must keep in range: partial densities and
    // volume fractions.
    let bounded: Vec<usize> = (0..eq.nf())
        .map(|i| eq.cont(i))
        .chain((0..eq.n_adv()).map(|i| eq.adv(i)))
        .collect();
    let cells = dom.n[0] * dom.n[1];
    let mut lines = vec![0.0; neq * ntheta];
    let mut ranges = vec![(0.0, 0.0); neq];
    ctx.launch(&cfg, cost, cells * neq * ntheta, |item| {
        // One ledger item per touched element; do the work once per ring
        // cell (i, j), every equation at once.
        if item % (neq * ntheta) != 0 {
            return;
        }
        let c = item / (neq * ntheta);
        let i = c % dom.n[0] + dom.pad(0);
        let j = c / dom.n[0];
        let jj = j + dom.pad(1);
        for (e, line) in lines.chunks_exact_mut(ntheta).enumerate() {
            for (t, v) in line.iter_mut().enumerate() {
                *v = q.get(i, jj, t + dom.pad(2), e);
            }
            ranges[e] = line
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            plan.apply_line(j, line);
        }
        let scale = bounded
            .iter()
            .map(|&e| range_scale(&lines[e * ntheta..][..ntheta], ranges[e]))
            .fold(1.0, f64::min);
        for (e, line) in lines.chunks_exact_mut(ntheta).enumerate() {
            if scale < 1.0 {
                blend_toward_mean(line, scale);
            }
            for (t, v) in line.iter().enumerate() {
                q.set(i, jj, t + dom.pad(2), e, *v);
            }
        }
    });
}

/// The largest factor `s` in [0, 1] for which the filtered `line`, scaled
/// about its mean by `s`, lies inside `(lo, hi)`, the range of the line
/// before filtering. A truncated spectrum overshoots a sharp interface
/// (Gibbs), which would push a volume fraction or a partial density out
/// of its physical range.
fn range_scale(line: &[f64], (lo, hi): (f64, f64)) -> f64 {
    let mean = line.iter().sum::<f64>() / line.len() as f64;
    let mut scale = 1.0f64;
    for &v in line {
        if v > hi {
            scale = scale.min((hi - mean) / (v - mean));
        } else if v < lo {
            scale = scale.min((mean - lo) / (mean - v));
        }
    }
    scale.max(0.0)
}

/// `v = mean + scale (v - mean)`. One factor for every equation of a ring
/// cell blends the whole filtered state with the ring's mean state
/// (Zhang–Shu's scaling): the mean, the ring's conserved total, is kept,
/// and every cell's state is one convex combination of two states; a
/// factor per equation would mix the two equation by equation and distort
/// the phase density `alpha_i rho_i / alpha_i`.
fn blend_toward_mean(line: &mut [f64], scale: f64) {
    let mean = line.iter().sum::<f64>() / line.len() as f64;
    for v in line.iter_mut() {
        *v = mean + scale * (*v - mean);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::eqidx::EqIdx;

    fn setup(nr: usize, ntheta: usize) -> (Domain, StateField) {
        let eq = EqIdx::new(1, 3);
        let dom = Domain::new([4, nr, ntheta], 3, eq);
        (dom, StateField::zeros(dom))
    }

    #[test]
    fn filter_kills_high_modes_near_axis_only() {
        let (dom, mut q) = setup(8, 32);
        let plan = LowpassPlan::new(8, 32);
        // Paint a high azimuthal mode everywhere.
        for (i, j, k) in dom.interior() {
            let theta = 2.0 * std::f64::consts::PI * (k - dom.pad(2)) as f64 / 32.0;
            q.set(i, j, k, 0, (14.0 * theta).cos());
        }
        let ctx = Context::serial();
        apply_azimuthal_filter(&ctx, &plan, &mut q);
        // Inner ring (j=0): mode 14 must be gone.
        let amp = |j: usize| -> f64 {
            (0..32)
                .map(|k| q.get(4, j + 3, k + 3, 0).abs())
                .fold(0.0, f64::max)
        };
        assert!(amp(0) < 1e-10, "inner ring amplitude {}", amp(0));
        // Outer ring (j=7): cutoff is 16 >= 14, mode survives.
        assert!(amp(7) > 0.9, "outer ring amplitude {}", amp(7));
    }

    #[test]
    fn filter_preserves_azimuthal_mean() {
        let (dom, mut q) = setup(4, 16);
        let plan = LowpassPlan::new(4, 16);
        for (i, j, k) in dom.interior() {
            q.set(i, j, k, 0, 3.0 + ((i + j + k) % 5) as f64);
        }
        let mean = |q: &StateField, i: usize, j: usize| -> f64 {
            (0..16).map(|k| q.get(i, j + 3, k + 3, 0)).sum::<f64>() / 16.0
        };
        let before = mean(&q, 5, 0);
        let ctx = Context::serial();
        apply_azimuthal_filter(&ctx, &plan, &mut q);
        let after = mean(&q, 5, 0);
        assert!((before - after).abs() < 1e-12);
    }

    /// A sharp interface in a two-fluid field: the low-pass filter of the
    /// inner rings used to undershoot the trace volume fraction to about
    /// -0.017 and the health scan refused the state before the first step.
    #[test]
    fn filter_keeps_a_sharp_line_within_its_range() {
        let (dom, mut q) = setup(4, 16);
        let plan = LowpassPlan::new(4, 16);
        for (i, j, k) in dom.interior() {
            let inside = (5..11).contains(&(k - dom.pad(2)));
            q.set(i, j, k, 0, if inside { 1.0 - 1e-6 } else { 1e-6 });
        }
        let sum = |q: &StateField| (0..16).map(|k| q.get(5, 3, k + 3, 0)).sum::<f64>();
        let before = sum(&q);
        apply_azimuthal_filter(&Context::serial(), &plan, &mut q);
        // Inside the unfiltered range, to the round-off of the scaling.
        for (i, j, k) in dom.interior() {
            let v = q.get(i, j, k, 0);
            assert!(
                (1e-6 - 1e-15..=1.0 - 1e-6 + 1e-15).contains(&v),
                "({i},{j},{k}) = {v}"
            );
        }
        assert!((sum(&q) - before).abs() < 1e-12);
        // The innermost ring was filtered: the step is smoothed.
        assert!(q.get(5, 3, 4 + 3, 0) > 1e-3);
    }

    /// A sharp partial-density step overshoots in the innermost ring; the
    /// factor that brings it back in range scales every equation of the
    /// ring cell, the energy's smooth mode-1 wave (which the filter itself
    /// keeps) included.
    #[test]
    fn one_factor_scales_every_equation_of_a_ring_cell() {
        let (dom, mut q) = setup(4, 16);
        let (eq, pad) = (dom.eq, dom.pad(2));
        let plan = LowpassPlan::new(4, 16);
        let step = |k: usize| {
            if (5..11).contains(&k) {
                1.0 - 1e-6
            } else {
                1e-6
            }
        };
        let wave = |k: usize| 2.0 + (std::f64::consts::TAU * k as f64 / 16.0).cos();
        for (i, j, k) in dom.interior() {
            q.set(i, j, k, eq.cont(0), step(k - pad));
            q.set(i, j, k, eq.energy(), wave(k - pad));
        }
        apply_azimuthal_filter(&Context::serial(), &plan, &mut q);
        let s = q.get(5, 3, pad, eq.energy()) - 2.0;
        assert!(s > 0.0 && s < 1.0, "energy scaled by {s}");
        let mut filtered: Vec<f64> = (0..16).map(step).collect();
        plan.apply_line(0, &mut filtered);
        let mean = filtered.iter().sum::<f64>() / 16.0;
        for (k, f) in filtered.iter().enumerate() {
            let want = mean + s * (f - mean);
            let got = q.get(5, 3, k + pad, eq.cont(0));
            assert!((got - want).abs() < 1e-12, "k = {k}: {got} vs {want}");
            let e = q.get(5, 3, k + pad, eq.energy());
            assert!(
                (e - (2.0 + s * (wave(k) - 2.0))).abs() < 1e-12,
                "k = {k}: {e}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn mismatched_plan_extent_panics() {
        let (_, mut q) = setup(4, 16);
        let plan = LowpassPlan::new(4, 32);
        let ctx = Context::serial();
        apply_azimuthal_filter(&ctx, &plan, &mut q);
    }
}
