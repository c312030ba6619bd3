//! Rusanov (local Lax–Friedrichs) single-wave solver — the most diffusive
//! baseline.

use crate::eqidx::EqLayout;
use crate::fluid::FluidTable;
use mfc_acc::Lane;

use super::face_side;

/// Compute the Rusanov flux; returns the mean normal velocity as the
/// interface-velocity estimate.
///
/// Already branch-free, so the [`Lane`] version is a direct elementwise
/// transcription: each packed lane performs the scalar op sequence.
#[inline(always)]
pub fn rusanov_flux<E: EqLayout, L: Lane>(
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
    let (l, r) = (left.state, right.state);
    let (fl, fr) = (&left.flux.as_ref()[..neq], &right.flux.as_ref()[..neq]);
    let (ql, qr) = (&left.cons.as_ref()[..neq], &right.cons.as_ref()[..neq]);
    let flux = &mut flux[..neq];
    let smax = (l.un.abs() + l.c).max(r.un.abs() + r.c);

    for e in 0..neq {
        flux[e] = L::splat(0.5) * (fl[e] + fr[e]) - L::splat(0.5) * smax * (qr[e] - ql[e]);
    }
    L::splat(0.5) * (l.un + r.un)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eqidx::EqIdx;
    use crate::fluid::Fluid;

    #[test]
    fn dissipation_scales_with_jump() {
        let eq = EqIdx::new(1, 1);
        let fluids = FluidTable::new(&[Fluid::air()]);
        let base = [1.0, 0.0, 1.0e5];
        let mut f_small = vec![0.0; 3];
        let mut f_big = vec![0.0; 3];
        rusanov_flux(&eq, &fluids, 0, &base, &[0.99, 0.0, 1.0e5], &mut f_small);
        rusanov_flux(&eq, &fluids, 0, &base, &[0.5, 0.0, 1.0e5], &mut f_big);
        // Mass flux magnitude (pure dissipation here) grows with the jump.
        assert!(f_big[0].abs() > 10.0 * f_small[0].abs());
        assert!(f_big[0] > 0.0); // transports mass toward the deficit side
    }

    #[test]
    fn stationary_uniform_state_has_zero_mass_flux() {
        let eq = EqIdx::new(2, 1);
        let fluids = FluidTable::new(&[Fluid::air(), Fluid::water()]);
        let mut prim = vec![0.0; eq.neq()];
        prim[eq.cont(0)] = 0.6;
        prim[eq.cont(1)] = 400.0;
        prim[eq.energy()] = 1.0e5;
        prim[eq.adv(0)] = 0.5;
        let mut f = vec![0.0; eq.neq()];
        let s = rusanov_flux(&eq, &fluids, 0, &prim, &prim, &mut f);
        assert_eq!(s, 0.0);
        assert!(f[eq.cont(0)].abs() < 1e-12);
        assert!((f[eq.mom(0)] - 1.0e5).abs() < 1e-7); // pressure only
    }
}
