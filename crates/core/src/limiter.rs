//! Positivity-preserving limiting of reconstructed face states.
//!
//! High-order reconstructions can push a vanishing phase's partial
//! density (or the pressure) out of the admissible set near strong shocks
//! and diffuse interfaces. Two remedies are implemented:
//!
//! * [`Limiter::FirstOrderFallback`] — replace the whole reconstructed
//!   vector by the adjacent cell average when inadmissible (robust,
//!   locally first-order; MFC's practical behaviour).
//! * [`Limiter::ZhangShu`] — scale the reconstruction toward the cell
//!   average by the *minimal* factor restoring admissibility
//!   (Zhang & Shu 2010): `q_lim = mean + theta (q - mean)` with the
//!   largest admissible `theta` in [0, 1]. Retains more of the
//!   high-order information than the full fallback.

use mfc_acc::Lane;
use serde::{Deserialize, Serialize};

use crate::eqidx::EqLayout;
use crate::fluid::FluidTable;

/// Positivity enforcement strategy for reconstructed face states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
#[derive(Default)]
pub enum Limiter {
    /// Replace inadmissible reconstructions by the cell average.
    #[default]
    FirstOrderFallback,
    /// Zhang–Shu linear scaling toward the cell average.
    ZhangShu,
}

/// Floor on partial densities and on the stiffened pressure, relative to
/// the cell-average magnitude.
const POS_EPS: f64 = 1e-12;

/// Whether a primitive state is admissible (positive partial densities
/// and stiffened pressure).
#[inline(always)]
pub fn admissible<E: EqLayout>(eq: &E, fluids: &FluidTable, prim: &[f64]) -> bool {
    f64::mask_all(admissible_mask(eq, fluids, prim))
}

/// [`admissible`] per lane: no partial density negative, mixture density
/// positive, `p + min_pi > 0` (a NaN fails only the comparisons it enters,
/// exactly like a branchy scalar cascade). In the Riemann sweeps the mask
/// only picks the all-admissible fast path — it never enters float
/// arithmetic.
#[inline(always)]
pub(crate) fn admissible_mask<E: EqLayout, L: Lane>(
    eq: &E,
    fluids: &FluidTable,
    prim: &[L],
) -> L::Mask {
    // All-true start: 0 >= 0 holds in every lane.
    let mut ok = L::splat(0.0).ge(L::splat(0.0));
    let mut rho = L::splat(0.0);
    for i in 0..eq.nf() {
        let ar = prim[eq.cont(i)];
        ok = L::mask_and(ok, L::mask_not(ar.lt(L::splat(0.0))));
        rho = rho + ar;
    }
    ok = L::mask_and(ok, L::mask_not(rho.le(L::splat(0.0))));
    let p = prim[eq.energy()];
    L::mask_and(ok, (p + L::splat(fluids.min_pi())).gt(L::splat(0.0)))
}

/// Apply the limiter to one reconstructed primitive state `prim`, given
/// the admissible cell average `mean`. Returns the theta actually used
/// (1 = untouched, 0 = full fallback).
pub fn limit_state<E: EqLayout>(
    limiter: Limiter,
    eq: &E,
    fluids: &FluidTable,
    mean: &[f64],
    prim: &mut [f64],
) -> f64 {
    if admissible(eq, fluids, prim) {
        return 1.0;
    }
    // If the cell average itself is (transiently) inadmissible — violent
    // collapse can momentarily under-shoot a vanishing phase — there is
    // nothing better than the average to fall back on; scaling toward it
    // cannot help, so use it directly.
    if !admissible(eq, fluids, mean) {
        prim.copy_from_slice(mean);
        return 0.0;
    }
    match limiter {
        Limiter::FirstOrderFallback => {
            prim.copy_from_slice(mean);
            0.0
        }
        Limiter::ZhangShu => {
            // Largest theta keeping every constrained quantity above its
            // floor. Constraints are affine in theta, so each gives a
            // closed-form bound.
            let mut theta: f64 = 1.0;
            for i in 0..eq.nf() {
                let e = eq.cont(i);
                let floor = POS_EPS * mean[e].abs();
                if prim[e] < floor {
                    // mean + t (prim - mean) >= floor
                    let denom = mean[e] - prim[e];
                    if denom > 0.0 {
                        theta = theta.min((mean[e] - floor) / denom);
                    }
                }
            }
            let min_pi = fluids.min_pi();
            let e = eq.energy();
            let floor = POS_EPS * (mean[e].abs() + min_pi) - min_pi;
            if prim[e] < floor {
                let denom = mean[e] - prim[e];
                if denom > 0.0 {
                    theta = theta.min((mean[e] - floor) / denom);
                }
            }
            let theta = theta.clamp(0.0, 1.0);
            for (p, &m) in prim.iter_mut().zip(mean) {
                *p = m + theta * (*p - m);
            }
            theta
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eqidx::EqIdx;
    use crate::fluid::Fluid;

    fn eq2() -> EqIdx {
        EqIdx::new(2, 1)
    }

    fn fluids() -> FluidTable {
        FluidTable::new(&[Fluid::air(), Fluid::water()])
    }

    #[test]
    fn admissible_states_pass_untouched() {
        let eq = eq2();
        let mean = [0.6, 400.0, 5.0, 1.0e5, 0.5];
        let mut prim = [0.7, 380.0, 6.0, 1.1e5, 0.55];
        let before = prim;
        for lim in [Limiter::FirstOrderFallback, Limiter::ZhangShu] {
            let theta = limit_state(lim, &eq, &fluids(), &mean, &mut prim);
            assert_eq!(theta, 1.0);
            assert_eq!(prim, before);
        }
    }

    #[test]
    fn fallback_restores_the_mean_exactly() {
        let eq = eq2();
        let mean = [0.6, 400.0, 5.0, 1.0e5, 0.5];
        let mut prim = [-0.1, 380.0, 6.0, 1.1e5, 0.55];
        let theta = limit_state(
            Limiter::FirstOrderFallback,
            &eq,
            &fluids(),
            &mean,
            &mut prim,
        );
        assert_eq!(theta, 0.0);
        assert_eq!(prim, mean);
    }

    #[test]
    fn zhang_shu_restores_admissibility_with_maximal_theta() {
        let eq = eq2();
        let mean = [0.6, 400.0, 5.0, 1.0e5, 0.5];
        let mut prim = [-0.2, 380.0, 6.0, 1.1e5, 0.55];
        let theta = limit_state(Limiter::ZhangShu, &eq, &fluids(), &mean, &mut prim);
        assert!(theta > 0.0 && theta < 1.0, "theta = {theta}");
        assert!(admissible(&eq, &fluids(), &prim));
        // The limited density sits essentially at its floor: theta was
        // maximal, not conservative.
        assert!(prim[0].abs() < 1e-6);
        // Other components moved proportionally toward the mean.
        assert!((prim[1] - (mean[1] + theta * (380.0 - mean[1]))).abs() < 1e-9);
    }

    #[test]
    fn zhang_shu_handles_negative_pressure() {
        let eq = eq2();
        let mean = [0.6, 400.0, 5.0, 1.0e5, 0.5];
        let mut prim = [0.6, 400.0, 5.0, -5.0e4, 0.5];
        let theta = limit_state(Limiter::ZhangShu, &eq, &fluids(), &mean, &mut prim);
        assert!(theta < 1.0);
        assert!(admissible(&eq, &fluids(), &prim), "{prim:?}");
    }

    #[test]
    fn zhang_shu_preserves_more_information_than_fallback() {
        let eq = eq2();
        let mean = [0.6, 400.0, 5.0, 1.0e5, 0.5];
        let bad = [-0.05, 390.0, 8.0, 1.2e5, 0.52];
        let mut zs = bad;
        let mut fb = bad;
        limit_state(Limiter::ZhangShu, &eq, &fluids(), &mean, &mut zs);
        limit_state(Limiter::FirstOrderFallback, &eq, &fluids(), &mean, &mut fb);
        // The ZS state stays closer to the reconstruction in momentum.
        let d_zs = (zs[2] - bad[2]).abs();
        let d_fb = (fb[2] - bad[2]).abs();
        assert!(d_zs < d_fb);
    }

    #[test]
    fn stiffened_pressure_floor_respects_pi_inf() {
        // Pure-water fluids: pressure may legitimately be negative down
        // to -pi_inf; the limiter must allow moderately negative p.
        let eq = EqIdx::new(1, 1);
        let water = FluidTable::new(&[Fluid::water()]);
        let mean = [1000.0, 0.0, 1.0e5];
        let mut prim = [1000.0, 0.0, -1.0e6]; // fine under 3.43e8 stiffness
        let theta = limit_state(Limiter::ZhangShu, &eq, &water, &mean, &mut prim);
        assert_eq!(theta, 1.0, "stiffened negative pressure is admissible");
    }
}
