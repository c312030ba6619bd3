//! HLL two-wave solver — baseline that smears contacts.
//!
//! Because the contact wave is averaged away, the partial densities
//! diffuse while the upwinded volume fractions do not, so the mixture EOS
//! coefficients decouple from the densities at material interfaces.  This
//! is the classic reason diffuse-interface codes use HLLC (restoring the
//! contact) rather than HLL: treat this solver as a single-fluid baseline
//! for accuracy comparisons, not a production multiphase solver.

use crate::eqidx::EqLayout;
use crate::fluid::FluidTable;
use mfc_acc::Lane;

use super::{davis_speeds, face_side};

/// Compute the HLL flux across one face; returns the HLLC-style contact
/// speed estimate (for the alpha source, kept consistent across solvers).
///
/// Select form over [`Lane`] like [`super::hllc::hllc_flux`]: all wave
/// patterns are fully evaluated and bit-selected in the scalar solver's
/// priority order, so the `L = f64` instantiation is bitwise the branchy
/// original and packed lanes match it per face.
#[inline(always)]
pub fn hll_flux<E: EqLayout, L: Lane>(
    eq: &E,
    fluids: &FluidTable,
    axis: usize,
    priml: &[L],
    primr: &[L],
    flux: &mut [L],
) -> L {
    let neq = eq.neq();
    let left = face_side(eq, fluids, priml, axis);
    let right = face_side(eq, fluids, primr, axis);
    let (fl, fr) = (&left.flux.as_ref()[..neq], &right.flux.as_ref()[..neq]);
    let (ql, qr) = (&left.cons.as_ref()[..neq], &right.cons.as_ref()[..neq]);
    let flux = &mut flux[..neq];

    let (sl, sr, s_star) = davis_speeds(&left.state, &right.state);

    let inv = L::splat(1.0) / (sr - sl);
    for e in 0..neq {
        flux[e] = (sr * fl[e] - sl * fr[e] + sl * sr * (qr[e] - ql[e])) * inv;
    }
    // Volume fractions are material invariants (see the HLLC module): the
    // HLL average treats them like conserved densities, which couples
    // alpha to the acoustic waves and destabilizes the alpha*div(u)
    // closure. Upwind them by the contact estimate instead.
    let side = s_star.ge(L::splat(0.0));
    for i in 0..eq.n_adv() {
        let e = eq.adv(i);
        flux[e] = L::select(side, priml[e], primr[e]) * s_star;
    }

    let sup_l = sl.ge(L::splat(0.0));
    let sup_r = sr.le(L::splat(0.0));
    for e in 0..neq {
        flux[e] = L::select(sup_l, fl[e], L::select(sup_r, fr[e], flux[e]));
    }
    s_star
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eqidx::EqIdx;
    use crate::fluid::Fluid;
    use crate::riemann::hllc::hllc_flux;
    use crate::riemann::tests::physical_flux;

    #[test]
    fn hll_smears_contacts_more_than_hllc() {
        // Isolated contact: HLLC flux equals upwind flux, HLL adds
        // diffusion proportional to the density jump.
        let eq = EqIdx::new(1, 1);
        let fluids = FluidTable::new(&[Fluid::air()]);
        let priml = [1.0, 20.0, 1.0e5];
        let primr = [0.1, 20.0, 1.0e5];
        let mut f_hll = vec![0.0; 3];
        let mut f_hllc = vec![0.0; 3];
        hll_flux(&eq, &fluids, 0, &priml, &primr, &mut f_hll);
        hllc_flux(&eq, &fluids, 0, &priml, &primr, &mut f_hllc);
        let mut upwind = vec![0.0; 3];
        physical_flux(&eq, &fluids, &priml, 0, &mut upwind);
        let err_hll = (f_hll[0] - upwind[0]).abs();
        let err_hllc = (f_hllc[0] - upwind[0]).abs();
        assert!(err_hllc < 1e-9);
        assert!(err_hll > 1.0, "HLL should be diffusive here: {err_hll}");
    }

    #[test]
    fn hll_flux_between_upwind_fluxes_for_subsonic_jump() {
        let eq = EqIdx::new(1, 1);
        let fluids = FluidTable::new(&[Fluid::air()]);
        let priml = [1.0, 0.0, 2.0e5];
        let primr = [0.6, 0.0, 1.0e5];
        let mut f = vec![0.0; 3];
        hll_flux(&eq, &fluids, 0, &priml, &primr, &mut f);
        // Momentum flux should sit between the two one-sided values.
        let mut fl = vec![0.0; 3];
        let mut fr = vec![0.0; 3];
        physical_flux(&eq, &fluids, &priml, 0, &mut fl);
        physical_flux(&eq, &fluids, &primr, 0, &mut fr);
        let (lo, hi) = (fl[1].min(fr[1]), fl[1].max(fr[1]));
        assert!(f[1] >= lo - 1e-9 && f[1] <= hi + 1e-9);
    }
}
