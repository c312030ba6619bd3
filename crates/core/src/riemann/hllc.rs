//! HLLC approximate Riemann solver for the 5-equation model.
//!
//! Toro's three-wave solver with Davis wave-speed estimates, extended to
//! carry partial densities and volume fractions through the star region
//! like passive densities (Coralic & Colonius 2014).  Returns the contact
//! speed `S*`, which the RHS uses as the interface velocity in the
//! non-conservative `alpha div(u)` term.

use crate::eqidx::EqLayout;
use crate::fluid::FluidTable;
use mfc_acc::Lane;

use super::{davis_speeds, face_side};

/// Compute the HLLC flux across one face; returns the contact speed `S*`.
///
/// Written once against [`Lane`] in *select form*: every wave-pattern
/// alternative (supersonic left/right, star region of either side) is
/// fully evaluated and the `if` cascade of the scalar solver becomes a
/// cascade of bit selects in the same priority order. Each select picks
/// the exact bits of an expression that is, op for op, the scalar
/// solver's expression for that case — so at `L = f64` the result is
/// bitwise the branchy original, and a packed lane equals the scalar
/// solve of its own face. IEEE arithmetic never traps, so evaluating the
/// discarded alternatives (which may produce inf/NaN) is harmless.
#[inline(always)]
pub fn hllc_flux<E: EqLayout, L: Lane>(
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

    let (sl, sr, s_star) = davis_speeds(&l, &r);

    // Star-region correction on the subsonic side containing x/t = 0:
    // F = F_K + S_K (q*_K - q_K), K picked by the sign of S* exactly like
    // the scalar solver's `if s_star >= 0.0`.
    let side = s_star.ge(L::splat(0.0));
    let sk = L::select(side, sl, sr);
    let fs_un = L::select(side, l.un, r.un);
    let fs_rho = L::select(side, l.rho, r.rho);
    let fs_p = L::select(side, l.p, r.p);
    let chi = (sk - fs_un) / (sk - s_star);

    // Partial densities scale by chi like the mixture density.
    for i in 0..eq.nf() {
        let e = eq.cont(i);
        let q = L::select(side, ql[e], qr[e]);
        flux[e] = L::select(side, fl[e], fr[e]) + sk * (chi * q - q);
    }
    // Volume fractions are material invariants: constant across the
    // acoustic waves, jumping only at the contact, and the star-region
    // velocity is S*.  Sampling the star state at x/t = 0 therefore gives
    // F_alpha = alpha_K S*.  (Scaling alpha by chi like a density couples
    // alpha to the acoustic field and is linearly unstable together with
    // the alpha*div(u) closure.)
    for i in 0..eq.n_adv() {
        let e = eq.adv(i);
        flux[e] = L::select(side, ql[e], qr[e]) * s_star;
    }
    // Momentum: normal component jumps to S*, tangential are advected.
    for d in 0..eq.ndim() {
        let e = eq.mom(d);
        let q = L::select(side, ql[e], qr[e]);
        let q_star = if d == axis {
            chi * fs_rho * s_star
        } else {
            chi * q
        };
        flux[e] = L::select(side, fl[e], fr[e]) + sk * (q_star - q);
    }
    // Energy.
    let e = eq.energy();
    let q = L::select(side, ql[e], qr[e]);
    let e_star = chi * (q + (s_star - fs_un) * (fs_rho * s_star + fs_p / (sk - fs_un)));
    flux[e] = L::select(side, fl[e], fr[e]) + sk * (e_star - q);

    // Wave-pattern cascade, in the scalar solver's priority order: a
    // supersonic-left lane takes F(qL), else supersonic-right takes F(qR),
    // else the star-region flux assembled above.
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
    use crate::riemann::exact::{ExactRiemann, PrimSide};
    use crate::riemann::face_state;
    use crate::riemann::tests::physical_flux;

    /// HLLC's interface flux for a Sod problem should be in the
    /// neighbourhood of the exact Godunov flux.  The Davis wave-speed
    /// estimate puts S* at 0.676 where the exact contact moves at 0.927,
    /// so a sizable single-flux deviation is expected (and harmless: the
    /// full solver converges to the exact solution — see
    /// `solver::tests::sod_shock_tube_matches_exact_solution`).
    #[test]
    fn sod_flux_close_to_exact_godunov_flux() {
        let eq = EqIdx::new(1, 1);
        let air = Fluid::air();
        let fluids = FluidTable::new(&[air]);
        let priml = [1.0, 0.0, 1.0];
        let primr = [0.125, 0.0, 0.1];

        let mut f_hllc = vec![0.0; 3];
        hllc_flux(&eq, &fluids, 0, &priml, &primr, &mut f_hllc);

        let ex = ExactRiemann::solve(
            PrimSide {
                rho: 1.0,
                u: 0.0,
                p: 1.0,
                fluid: air,
            },
            PrimSide {
                rho: 0.125,
                u: 0.0,
                p: 0.1,
                fluid: air,
            },
        );
        let (rho, u, p) = ex.sample(0.0);
        let prim_g = [rho, u, p];
        let mut f_exact = vec![0.0; 3];
        physical_flux(&eq, &fluids, &prim_g, 0, &mut f_exact);

        for (h, e) in f_hllc.iter().zip(&f_exact) {
            let scale = e.abs().max(0.1);
            assert!(
                (h - e).abs() / scale < 0.35,
                "hllc {f_hllc:?} vs exact {f_exact:?}"
            );
        }
    }

    #[test]
    fn isolated_contact_is_resolved_exactly() {
        // Equal pressure & velocity, jump in density: HLLC preserves it.
        let eq = EqIdx::new(1, 1);
        let fluids = FluidTable::new(&[Fluid::air()]);
        let priml = [1.0, 20.0, 1.0e5];
        let primr = [0.1, 20.0, 1.0e5];
        let mut f = vec![0.0; 3];
        let s = hllc_flux(&eq, &fluids, 0, &priml, &primr, &mut f);
        assert!((s - 20.0).abs() < 1e-9);
        // Upwind side is the left: flux = F(qL).
        let mut want = vec![0.0; 3];
        physical_flux(&eq, &fluids, &priml, 0, &mut want);
        for (g, w) in f.iter().zip(&want) {
            assert!((g - w).abs() < 1e-8 * w.abs().max(1.0));
        }
    }

    #[test]
    fn contact_speed_between_acoustic_speeds() {
        let eq = EqIdx::new(1, 1);
        let fluids = FluidTable::new(&[Fluid::air()]);
        let priml = [1.0, 0.0, 2.0e5];
        let primr = [0.5, -30.0, 0.5e5];
        let l = face_state(&eq, &fluids, &priml, 0);
        let r = face_state(&eq, &fluids, &primr, 0);
        let sl = (l.un - l.c).min(r.un - r.c);
        let sr = (l.un + l.c).max(r.un + r.c);
        let mut f = vec![0.0; 3];
        let s = hllc_flux(&eq, &fluids, 0, &priml, &primr, &mut f);
        assert!(sl < s && s < sr, "SL={sl} S*={s} SR={sr}");
    }

    #[test]
    fn two_fluid_interface_advects_alpha() {
        // Material interface between air and water at uniform p, u: the
        // alpha flux must be alpha*u of the upwind side.
        let eq = EqIdx::new(2, 1);
        let fluids = FluidTable::new(&[Fluid::air(), Fluid::water()]);
        let mut priml = vec![0.0; eq.neq()];
        priml[eq.cont(0)] = 1.2;
        priml[eq.cont(1)] = 0.0;
        priml[eq.mom(0)] = 5.0;
        priml[eq.energy()] = 1.0e5;
        priml[eq.adv(0)] = 1.0; // pure air
        let mut primr = vec![0.0; eq.neq()];
        primr[eq.cont(0)] = 0.0;
        primr[eq.cont(1)] = 1000.0;
        primr[eq.mom(0)] = 5.0;
        primr[eq.energy()] = 1.0e5;
        primr[eq.adv(0)] = 0.0; // pure water
        let mut f = vec![0.0; eq.neq()];
        let s = hllc_flux(&eq, &fluids, 0, &priml, &primr, &mut f);
        assert!((s - 5.0).abs() < 1e-9);
        assert!((f[eq.adv(0)] - 1.0 * 5.0).abs() < 1e-9);
        assert!((f[eq.cont(0)] - 1.2 * 5.0).abs() < 1e-9);
        assert!(f[eq.cont(1)].abs() < 1e-9);
    }
}
