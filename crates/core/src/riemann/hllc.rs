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

use super::{davis_speeds, face_state, side_vectors, FaceState};

/// Compute the HLLC flux across one face; returns the contact speed `S*`.
///
/// Written once against [`Lane`] in *select form*. The scalar solver's
/// wave-pattern cascade — supersonic left takes `F(q_L)`, else supersonic
/// right takes `F(q_R)`, else the star-region flux `F_K + S_K (q*_K - q_K)`
/// of the side `K` picked by the sign of `S*` — only ever reads one side's
/// physical flux and conservative vector. So each lane picks that upwind
/// side `U` first (`U = L` where `sup_l | (!sup_r & S* >= 0)`), selects its
/// primitives and [`FaceState`], and builds `F_U` and `q_U` once; the flux
/// is `select(star, F_U + S_K (q*_U - q_U), F_U)`. Selects copy bits and
/// every expression is, op for op, the scalar solver's for the lane's case,
/// so at `L = f64` the result is bitwise the branchy original and a packed
/// lane equals the scalar solve of its own face. IEEE arithmetic never
/// traps, so evaluating the discarded star alternative (which may produce
/// inf/NaN) is harmless.
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
    let l = face_state(eq, fluids, priml, axis);
    let r = face_state(eq, fluids, primr, axis);
    let (sl, sr, s_star) = davis_speeds(&l, &r);

    // The wave pattern, in the scalar solver's priority order.
    let sup_l = sl.ge(L::splat(0.0));
    let sup_r = sr.le(L::splat(0.0));
    let side = s_star.ge(L::splat(0.0));
    let star = L::mask_not(L::mask_or(sup_l, sup_r));
    let use_l = L::mask_or(sup_l, L::mask_and(L::mask_not(sup_r), side));

    let mut prim = eq.vars::<L>();
    let prim = &mut prim.as_mut()[..neq];
    for e in 0..neq {
        prim[e] = L::select(use_l, priml[e], primr[e]);
    }
    let fs = FaceState::select(use_l, &l, &r);
    let (mut fu, mut qu) = (eq.vars::<L>(), eq.vars::<L>());
    side_vectors(eq, prim, &fs, axis, fu.as_mut(), qu.as_mut());
    let (fu, qu) = (&fu.as_ref()[..neq], &qu.as_ref()[..neq]);
    let flux = &mut flux[..neq];

    // Star-region correction on the subsonic side containing x/t = 0.
    let sk = L::select(use_l, sl, sr);
    let chi = (sk - fs.un) / (sk - s_star);

    // Partial densities scale by chi like the mixture density.
    for i in 0..eq.nf() {
        let e = eq.cont(i);
        let q = qu[e];
        flux[e] = L::select(star, fu[e] + sk * (chi * q - q), fu[e]);
    }
    // Volume fractions are material invariants: constant across the
    // acoustic waves, jumping only at the contact, and the star-region
    // velocity is S*.  Sampling the star state at x/t = 0 therefore gives
    // F_alpha = alpha_K S*.  (Scaling alpha by chi like a density couples
    // alpha to the acoustic field and is linearly unstable together with
    // the alpha*div(u) closure.)
    for i in 0..eq.n_adv() {
        let e = eq.adv(i);
        flux[e] = L::select(star, qu[e] * s_star, fu[e]);
    }
    // Momentum: normal component jumps to S*, tangential are advected.
    for d in 0..eq.ndim() {
        let e = eq.mom(d);
        let q = qu[e];
        let q_star = if d == axis {
            chi * fs.rho * s_star
        } else {
            chi * q
        };
        flux[e] = L::select(star, fu[e] + sk * (q_star - q), fu[e]);
    }
    // Energy.
    let e = eq.energy();
    let q = qu[e];
    let e_star = chi * (q + (s_star - fs.un) * (fs.rho * s_star + fs.p / (sk - fs.un)));
    flux[e] = L::select(star, fu[e] + sk * (e_star - q), fu[e]);
    s_star
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eqidx::{with_eq_layout, EqIdx};
    use crate::fluid::Fluid;
    use crate::riemann::exact::{ExactRiemann, PrimSide};
    use crate::riemann::face_side;
    use crate::riemann::tests::physical_flux;
    use mfc_acc::VecF64;

    /// The two-sided select-form HLLC that [`hllc_flux`] replaced: both
    /// sides' flux and conservative vectors, the star flux of the side the
    /// sign of `S*` picks, then the supersonic cascade — the bitwise
    /// reference of the one-side solver.
    fn hllc_two_sided<E: EqLayout, L: Lane>(
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
        let side = s_star.ge(L::splat(0.0));
        let sk = L::select(side, sl, sr);
        let fs_un = L::select(side, l.un, r.un);
        let fs_rho = L::select(side, l.rho, r.rho);
        let fs_p = L::select(side, l.p, r.p);
        let chi = (sk - fs_un) / (sk - s_star);
        for i in 0..eq.nf() {
            let e = eq.cont(i);
            let q = L::select(side, ql[e], qr[e]);
            flux[e] = L::select(side, fl[e], fr[e]) + sk * (chi * q - q);
        }
        for i in 0..eq.n_adv() {
            let e = eq.adv(i);
            flux[e] = L::select(side, ql[e], qr[e]) * s_star;
        }
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
        let e = eq.energy();
        let q = L::select(side, ql[e], qr[e]);
        let e_star = chi * (q + (s_star - fs_un) * (fs_rho * s_star + fs_p / (sk - fs_un)));
        flux[e] = L::select(side, fl[e], fr[e]) + sk * (e_star - q);
        let sup_l = sl.ge(L::splat(0.0));
        let sup_r = sr.le(L::splat(0.0));
        for e in 0..neq {
            flux[e] = L::select(sup_l, fl[e], L::select(sup_r, fr[e], flux[e]));
        }
        s_star
    }

    /// A primitive state of one or two fluids (air volume fraction
    /// `alpha`), every velocity component `u`.
    fn state<E: EqLayout>(eq: &E, alpha: f64, rho: f64, u: f64, p: f64) -> Vec<f64> {
        let mut prim = vec![0.0; eq.neq()];
        if eq.nf() == 1 {
            prim[eq.cont(0)] = rho;
        } else {
            prim[eq.cont(0)] = rho * alpha;
            prim[eq.cont(1)] = 1000.0 * (1.0 - alpha);
            prim[eq.adv(0)] = alpha;
        }
        for d in 0..eq.ndim() {
            prim[eq.mom(d)] = u * (1.0 - 0.3 * d as f64);
        }
        prim[eq.energy()] = p;
        prim
    }

    /// The wave patterns a face pair forces, in the order of the coverage
    /// counts of `one_side_hllc_is_bitwise_the_two_sided_reference`:
    /// supersonic left, supersonic right, star left, star right, `S* == 0`,
    /// `sl == 0`, `sr == 0`, the `1e-300` denominator guard, a non-finite
    /// input.
    fn patterns<E: EqLayout>(
        eq: &E,
        fluids: &FluidTable,
        axis: usize,
        l: &[f64],
        r: &[f64],
    ) -> [bool; 9] {
        let (fl, fr) = (
            face_state(eq, fluids, l, axis),
            face_state(eq, fluids, r, axis),
        );
        let (sl, sr, s_star) = davis_speeds(&fl, &fr);
        let star = !(sl >= 0.0 || sr <= 0.0);
        let side = s_star >= 0.0;
        let denom = fl.rho * (sl - fl.un) - fr.rho * (sr - fr.un);
        [
            sl >= 0.0,
            sl < 0.0 && sr <= 0.0,
            star && side,
            star && !side,
            s_star == 0.0,
            sl == 0.0,
            sr == 0.0,
            denom.abs() < 1e-300,
            l.iter().chain(r).any(|x| !x.is_finite()),
        ]
    }

    /// Face pairs that force every wave pattern on layout `eq`.
    fn faces<E: EqLayout>(eq: &E, fluids: &FluidTable, axis: usize) -> Vec<(Vec<f64>, Vec<f64>)> {
        let mut out = Vec::new();
        // Seeded admissible pairs, from deep supersonic left to deep
        // supersonic right.
        for k in 0..48usize {
            let h = |j: usize| ((k * 7919 + j * 104729) * 2654435761 % 1000) as f64 * 1e-3;
            let u = [-3000.0, -200.0, -20.0, 0.0, 20.0, 200.0, 3000.0][k % 7];
            let pair = |j: usize| {
                let alpha = if eq.nf() == 1 { 1.0 } else { 0.05 + 0.9 * h(j) };
                let rho = 0.5 + 2.0 * h(j + 1);
                state(
                    eq,
                    alpha,
                    rho,
                    u + 100.0 * (h(j + 2) - 0.5),
                    1.0e5 * (0.5 + 4.0 * h(j + 3)),
                )
            };
            out.push((pair(0), pair(4)));
        }
        let sound = |prim: &[f64]| face_state(eq, fluids, prim, axis).c;
        // `S* == 0`: mirror states.
        let a = state(eq, 0.6, 1.1, 35.0, 2.0e5);
        let mut b = a.clone();
        for d in 0..eq.ndim() {
            b[eq.mom(d)] = -a[eq.mom(d)];
        }
        out.push((a.clone(), b));
        // `sl == 0` and `sr == 0`: a state moving at its own sound speed,
        // either way, on both sides.
        let mut at_c = a.clone();
        at_c[eq.mom(axis)] = sound(&a);
        out.push((at_c.clone(), at_c.clone()));
        at_c[eq.mom(axis)] = -sound(&a);
        out.push((at_c.clone(), at_c));
        // The denominator guard: pure air at 1e-305 density and pressure.
        let tiny = |u: f64| state(eq, 1.0, 1e-305, u, 1e-305);
        out.push((tiny(0.1), tiny(0.05)));
        out.push((tiny(0.0), tiny(0.0)));
        // Non-finite components on either side.
        let base = out[..48].to_vec();
        for (k, bad) in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            for e in 0..eq.neq() {
                let (mut l, mut r) = base[(7 * e + 3 * k) % 48].clone();
                if (e + k) % 2 == 0 {
                    l[e] = bad;
                } else {
                    r[e] = bad;
                }
                out.push((l, r));
            }
        }
        out
    }

    fn assert_bits(what: &str, got: &[f64], want: &[f64]) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g:e} vs {w:e}");
        }
    }

    /// Every face of [`faces`] on layout `eq` and axis `axis`: the one-side
    /// solver against the two-sided reference at `f64`, and at `VecF64<8>`
    /// (faces packed eight to a packet) lane by lane against the scalar
    /// reference.
    fn layout_matches_reference<E: EqLayout>(eq: E, fluids: &FluidTable, label: &str) {
        let neq = eq.neq();
        for axis in 0..eq.ndim() {
            let faces = faces(&eq, fluids, axis);
            let mut covered = [0usize; 9];
            let mut want = Vec::new();
            for (i, (l, r)) in faces.iter().enumerate() {
                for (c, hit) in covered.iter_mut().zip(patterns(&eq, fluids, axis, l, r)) {
                    *c += hit as usize;
                }
                let (mut f, mut f0) = (vec![0.0; neq], vec![0.0; neq]);
                let s = hllc_flux(&eq, fluids, axis, l, r, &mut f);
                let s0 = hllc_two_sided(&eq, fluids, axis, l, r, &mut f0);
                let what = format!("{label} axis {axis} face {i}");
                assert_bits(&format!("{what} flux"), &f, &f0);
                assert_bits(&format!("{what} S*"), &[s], &[s0]);
                want.push((f0, s0));
            }
            assert!(
                covered.iter().all(|&c| c > 0),
                "{label} axis {axis}: pattern counts {covered:?}"
            );
            for p in 0..faces.len().div_ceil(8) {
                let at = |lane: usize| (8 * p + lane) % faces.len();
                let pack = |side: usize, e: usize| {
                    VecF64::<8>::from_lanes(|lane| {
                        let (l, r) = &faces[at(lane)];
                        [l, r][side][e]
                    })
                };
                let pl: Vec<_> = (0..neq).map(|e| pack(0, e)).collect();
                let pr: Vec<_> = (0..neq).map(|e| pack(1, e)).collect();
                let mut f = vec![VecF64::<8>::splat(0.0); neq];
                let mut f0 = f.clone();
                let s = hllc_flux(&eq, fluids, axis, &pl, &pr, &mut f);
                let s0 = hllc_two_sided(&eq, fluids, axis, &pl, &pr, &mut f0);
                for lane in 0..8 {
                    let (w, ws) = &want[at(lane)];
                    let what = format!("{label} axis {axis} W=8 face {}", at(lane));
                    let lanes =
                        |v: &[VecF64<8>]| v.iter().map(|x| x.lane(lane)).collect::<Vec<_>>();
                    assert_bits(&format!("{what} flux"), &lanes(&f), w);
                    assert_bits(&format!("{what} reference flux"), &lanes(&f0), w);
                    assert_bits(
                        &format!("{what} S*"),
                        &[s.lane(lane), s0.lane(lane)],
                        &[*ws, *ws],
                    );
                }
            }
        }
    }

    fn shape<E: EqLayout>(_: E) -> Option<(usize, usize)> {
        E::SHAPE
    }

    /// The one-side HLLC is bitwise the two-sided reference — flux and
    /// `S*`, scalar and eight lanes wide — on every layout the sweep
    /// dispatches and on the run-time layout at (1,3) and (2,3), over faces
    /// that force every wave pattern, the `S* == 0`, `sl == 0`, `sr == 0`
    /// and guarded-denominator edges, and NaN and ±inf inputs.
    #[test]
    fn one_side_hllc_is_bitwise_the_two_sided_reference() {
        let one = FluidTable::new(&[Fluid::air()]);
        let two = FluidTable::new(&[Fluid::air(), Fluid::water()]);
        let fluids = |nf: usize| if nf == 1 { &one } else { &two };
        for (nf, ndim) in crate::isa::LAYOUTS.into_iter().flatten() {
            with_eq_layout!(EqIdx::new(nf, ndim), eq => {
                assert_eq!(shape(eq), Some((nf, ndim)), "the dispatched instance");
                layout_matches_reference(eq, fluids(nf), &format!("ConstEq ({nf},{ndim})"))
            });
        }
        for (nf, ndim) in [(1, 3), (2, 3)] {
            layout_matches_reference(
                EqIdx::new(nf, ndim),
                fluids(nf),
                &format!("EqIdx ({nf},{ndim})"),
            );
        }
    }

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
