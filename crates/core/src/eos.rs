//! Conservative ↔ primitive conversion for single cells.
//!
//! These are the per-cell bodies of MFC's `s_convert_*` kernels; the
//! sweep-level kernels in [`crate::state`] call them for every cell.

use mfc_acc::Lane;

use crate::eqidx::EqLayout;
use crate::fluid::FluidTable;

/// Maximum number of fluids supported without heap allocation in kernels.
///
/// MFC's common two-phase problems have `nf` of O(1) (§III-C); a fixed
/// upper bound is exactly the "compile-time-sized private array" the
/// paper's §III-D optimization needs.
pub const MAX_FLUIDS: usize = 8;

/// Convert one cell's conservative vector to primitives, in place layouts
/// per [`EqLayout`].
///
/// Returns the mixture density (handy for callers that need it anyway).
///
/// Generic over [`Lane`]: at `L = f64` this is the scalar original; at a
/// packed width each lane performs exactly the same operation sequence on
/// its own cell, so lane `i` of the packed result is bitwise the scalar
/// result for cell `i`.
#[inline(always)]
pub fn cons_to_prim<E: EqLayout, L: Lane>(
    eq: &E,
    fluids: &FluidTable,
    cons: &[L],
    prim: &mut [L],
) -> L {
    debug_assert_eq!(cons.len(), eq.neq());
    debug_assert_eq!(prim.len(), eq.neq());

    // Partial densities are floored at zero: high-order reconstruction can
    // drive a vanishing phase's alpha*rho slightly negative at diffuse
    // interfaces (MFC bounds the same way with its `sgm_eps` floor).
    let mut rho = L::splat(0.0);
    for i in 0..eq.nf() {
        let ar = cons[eq.cont(i)].max(L::splat(0.0));
        prim[eq.cont(i)] = ar;
        rho = rho + ar;
    }
    // A non-positive mixture density is *not* asserted here: IEEE division
    // keeps the conversion well-defined (producing inf/NaN primitives) and
    // the health scan reports the offending cell so the recovery ladder can
    // retry the step instead of the process aborting.

    let mut kinetic = L::splat(0.0);
    for d in 0..eq.ndim() {
        let u = cons[eq.mom(d)] / rho;
        prim[eq.mom(d)] = u;
        kinetic = kinetic + L::splat(0.5) * rho * u * u;
    }

    for i in 0..eq.n_adv() {
        prim[eq.adv(i)] = cons[eq.adv(i)];
    }

    let mix = fluids.mixture(eq, cons);
    prim[eq.energy()] = mix.pressure(cons[eq.energy()] - kinetic);
    rho
}

/// Convert one cell's primitive vector to conservatives.
#[inline]
pub fn prim_to_cons<E: EqLayout, L: Lane>(eq: &E, fluids: &FluidTable, prim: &[L], cons: &mut [L]) {
    debug_assert_eq!(cons.len(), eq.neq());
    debug_assert_eq!(prim.len(), eq.neq());

    let mut rho = L::splat(0.0);
    for i in 0..eq.nf() {
        let ar = prim[eq.cont(i)];
        cons[eq.cont(i)] = ar;
        rho = rho + ar;
    }

    let mut kinetic = L::splat(0.0);
    for d in 0..eq.ndim() {
        let u = prim[eq.mom(d)];
        cons[eq.mom(d)] = rho * u;
        kinetic = kinetic + L::splat(0.5) * rho * u * u;
    }

    for i in 0..eq.n_adv() {
        cons[eq.adv(i)] = prim[eq.adv(i)];
    }

    let mix = fluids.mixture(eq, prim);
    cons[eq.energy()] = mix.internal_energy(prim[eq.energy()]) + kinetic;
}

/// Mixture density, pressure, and frozen sound speed of a primitive cell.
#[inline(always)]
pub fn sound_speed<E: EqLayout, L: Lane>(eq: &E, fluids: &FluidTable, prim: &[L]) -> (L, L, L) {
    let mut rho = L::splat(0.0);
    for i in 0..eq.nf() {
        rho = rho + prim[eq.cont(i)];
    }
    let p = prim[eq.energy()];
    let mix = fluids.mixture(eq, prim);
    (rho, p, mix.sound_speed(rho, p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eqidx::EqIdx;
    use crate::fluid::Fluid;

    fn sample_prim(eq: &EqIdx) -> Vec<f64> {
        let mut p = vec![0.0; eq.neq()];
        for i in 0..eq.nf() {
            p[eq.cont(i)] = 0.5 + i as f64 * 0.3;
        }
        for d in 0..eq.ndim() {
            p[eq.mom(d)] = 10.0 * (d as f64 + 1.0);
        }
        p[eq.energy()] = 1.0e5;
        for i in 0..eq.n_adv() {
            p[eq.adv(i)] = 0.8 / eq.nf() as f64;
        }
        p
    }

    #[test]
    fn round_trip_all_layouts() {
        for (nf, fluids) in [
            (1usize, vec![Fluid::air()]),
            (2, vec![Fluid::air(), Fluid::water()]),
            (3, vec![Fluid::air(), Fluid::water(), Fluid::new(1.6, 1e5)]),
        ] {
            for ndim in 1..=3 {
                let eq = EqIdx::new(nf, ndim);
                let fluids = FluidTable::new(&fluids);
                let prim = sample_prim(&eq);
                let mut cons = vec![0.0; eq.neq()];
                let mut back = vec![0.0; eq.neq()];
                prim_to_cons(&eq, &fluids, &prim, &mut cons);
                cons_to_prim(&eq, &fluids, &cons, &mut back);
                for (a, b) in prim.iter().zip(&back) {
                    assert!(
                        (a - b).abs() < 1e-9 * a.abs().max(1.0),
                        "nf={nf} ndim={ndim}: {prim:?} -> {back:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn energy_matches_manual_single_fluid() {
        // Euler: rho E = p/(gamma-1) + 1/2 rho u^2
        let eq = EqIdx::new(1, 1);
        let fluids = FluidTable::new(&[Fluid::air()]);
        let prim = [1.2, 30.0, 1.0e5];
        let mut cons = [0.0; 3];
        prim_to_cons(&eq, &fluids, &prim, &mut cons);
        let want = 1.0e5 / 0.4 + 0.5 * 1.2 * 900.0;
        assert!((cons[eq.energy()] - want).abs() < 1e-6);
        assert!((cons[eq.mom(0)] - 36.0).abs() < 1e-12);
    }

    #[test]
    fn cons_to_prim_returns_density() {
        let eq = EqIdx::new(2, 2);
        let fluids = FluidTable::new(&[Fluid::air(), Fluid::water()]);
        let prim = sample_prim(&eq);
        let mut cons = vec![0.0; eq.neq()];
        prim_to_cons(&eq, &fluids, &prim, &mut cons);
        let mut back = vec![0.0; eq.neq()];
        let rho = cons_to_prim(&eq, &fluids, &cons, &mut back);
        assert!((rho - (prim[0] + prim[1])).abs() < 1e-12);
    }

    #[test]
    fn sound_speed_positive_and_sane() {
        let eq = EqIdx::new(2, 1);
        let fluids = FluidTable::new(&[Fluid::air(), Fluid::water()]);
        let mut prim = vec![0.0; eq.neq()];
        prim[eq.cont(0)] = 1.2 * 0.999;
        prim[eq.cont(1)] = 1000.0 * 0.001;
        prim[eq.mom(0)] = 0.0;
        prim[eq.energy()] = 1.0e5;
        prim[eq.adv(0)] = 0.999; // mostly air
        let (rho, p, c) = sound_speed(&eq, &fluids, &prim);
        assert!(rho > 1.0 && rho < 3.0);
        assert_eq!(p, 1.0e5);
        assert!(c > 200.0 && c < 500.0, "c = {c}");
    }
}
