//! Riemann solvers at cell faces.
//!
//! * [`hllc`]: the production solver (Toro's HLLC adapted to the
//!   5-equation model, following Coralic & Colonius) — the second-most
//!   expensive kernel in the paper. It builds the physical flux and
//!   conservative vector of the face's upwind side only.
//! * [`hll`], [`rusanov`]: two-wave and single-wave baselines, which build
//!   both sides' ([`face_side`]).
//! * [`exact`]: the exact stiffened-gas Riemann solver, used purely as a
//!   validation oracle (Sod-type tests compare the full solver and the
//!   HLLC fluxes against it).
//!
//! Every approximate solver is [`face_state`] on both sides (the mixture,
//! sound speed and total energy), then [`side_vectors`] on the sides it
//! reads. The sweep compiles each solver's face loop once per ISA tier it
//! ships on the layout ([`crate::isa::riemann`]).

pub mod exact;
pub mod hll;
pub mod hllc;
pub mod rusanov;

use crate::eqidx::EqLayout;
use crate::fluid::FluidTable;
use mfc_acc::Lane;
use serde::{Deserialize, Serialize};

pub use exact::{ExactRiemann, PrimSide};

/// Which approximate solver the flux kernel uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum RiemannSolver {
    Hllc,
    Hll,
    Rusanov,
}

impl RiemannSolver {
    /// Every solver.
    pub const ALL: [RiemannSolver; 3] = [
        RiemannSolver::Hllc,
        RiemannSolver::Hll,
        RiemannSolver::Rusanov,
    ];

    /// The solver's case-file name.
    pub fn name(self) -> &'static str {
        match self {
            RiemannSolver::Hllc => "hllc",
            RiemannSolver::Hll => "hll",
            RiemannSolver::Rusanov => "rusanov",
        }
    }

    /// Approximate FLOPs per face per equation-system solve, from the
    /// arithmetic in each implementation (divisions/sqrts weighted 4/8).
    pub fn flops_per_face(self, eq: &impl EqLayout) -> f64 {
        let neq = eq.neq() as f64;
        let (nf, ndim) = (eq.nf() as f64, eq.ndim() as f64);
        match self {
            // Counted from the code, add/sub/mul 1, div 4, sqrt 8, compares,
            // selects, min/max/abs/clamp 0: `face_state` on both sides
            // 2 (6 nf + 4 ndim + 19), `davis_speeds` 24, the upwind side's
            // `side_vectors` 2 nf + 2 ndim + 2, the star correction
            // 5 nf + 4 ndim + 20. (1,1) 117, (2,3) 164.
            RiemannSolver::Hllc => 84.0 + 19.0 * nf + 14.0 * ndim,
            RiemannSolver::Hll => 80.0 + 12.0 * neq,
            RiemannSolver::Rusanov => 70.0 + 8.0 * neq,
        }
    }

    /// Solve one face: primitive states on both sides → flux and the
    /// interface (contact) velocity that closes the volume-fraction source
    /// term `alpha_i div(u)`.
    ///
    /// Generic over [`Lane`]: at `L = f64` this is the scalar solver; at a
    /// packed width each lane solves its own face with the identical op
    /// sequence (wave-pattern branches become bit selects of fully
    /// evaluated alternatives), so the result is bitwise the scalar one.
    ///
    /// The whole chain is `#[inline(always)]`, so the solve is compiled
    /// into the instruction set of the sweep's Riemann entry that calls it
    /// ([`crate::isa`]).
    #[inline(always)]
    pub fn flux<E: EqLayout, L: Lane>(
        self,
        eq: &E,
        fluids: &FluidTable,
        axis: usize,
        priml: &[L],
        primr: &[L],
        flux: &mut [L],
    ) -> L {
        match self {
            RiemannSolver::Hllc => hllc::hllc_flux(eq, fluids, axis, priml, primr, flux),
            RiemannSolver::Hll => hll::hll_flux(eq, fluids, axis, priml, primr, flux),
            RiemannSolver::Rusanov => rusanov::rusanov_flux(eq, fluids, axis, priml, primr, flux),
        }
    }
}

/// Scalar face quantities derived from one primitive state (one value per
/// lane when `L` is a packed width).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaceState<L = f64> {
    pub rho: L,
    /// Normal velocity.
    pub un: L,
    pub p: L,
    pub c: L,
    /// Total energy density `rho E`.
    pub rho_e: L,
}

impl<L: Lane> FaceState<L> {
    /// Per lane, `a` where `m` is set and `b` elsewhere.
    #[inline(always)]
    pub(crate) fn select(m: L::Mask, a: &Self, b: &Self) -> Self {
        FaceState {
            rho: L::select(m, a.rho, b.rho),
            un: L::select(m, a.un, b.un),
            p: L::select(m, a.p, b.p),
            c: L::select(m, a.c, b.c),
            rho_e: L::select(m, a.rho_e, b.rho_e),
        }
    }
}

/// Evaluate density, pressure, sound speed, and total energy of a
/// primitive state (normal along `axis`).
#[inline(always)]
pub(crate) fn face_state<E: EqLayout, L: Lane>(
    eq: &E,
    fluids: &FluidTable,
    prim: &[L],
    axis: usize,
) -> FaceState<L> {
    let mut rho = L::splat(0.0);
    for i in 0..eq.nf() {
        rho = rho + prim[eq.cont(i)];
    }
    let p = prim[eq.energy()];
    let mix = fluids.mixture(eq, prim);
    let mut kinetic = L::splat(0.0);
    for d in 0..eq.ndim() {
        kinetic = kinetic + L::splat(0.5) * rho * prim[eq.mom(d)] * prim[eq.mom(d)];
    }
    FaceState {
        rho,
        un: prim[eq.mom(axis)],
        p,
        c: mix.sound_speed(rho, p),
        rho_e: mix.internal_energy(p) + kinetic,
    }
}

/// The physical flux `f` and conservative vector `q` of one primitive
/// state, built from its [`FaceState`] into the caller's arrays (returned
/// by value, the run-time layout's `MAX_EQ`-wide arrays were copied, and
/// HLL and Rusanov on the fallback ran 15–20 % slower).
///
/// `flux` is the flux of the homogeneous (conservative) part of the
/// 5-equation system; the volume-fraction flux is the conservative
/// `alpha u_n` part, and the non-conservative `alpha div(u)` source is
/// handled by the RHS using the returned interface velocities. `cons` is
/// [`crate::eos::prim_to_cons`] of the state — its density, kinetic and
/// internal energy are, expression for expression, the ones
/// [`face_state`] already holds, so reusing them changes no bit.
#[inline(always)]
pub(crate) fn side_vectors<E: EqLayout, L: Lane>(
    eq: &E,
    prim: &[L],
    fs: &FaceState<L>,
    axis: usize,
    f: &mut [L],
    q: &mut [L],
) {
    for i in 0..eq.nf() {
        let e = eq.cont(i);
        f[e] = prim[e] * fs.un;
        q[e] = prim[e];
    }
    // The normal momentum flux gains the pressure. Testing `d == axis` per
    // component, rather than adding it at the run-time index `mom(axis)`,
    // keeps every slot index a constant, so the arrays can live in
    // registers.
    for d in 0..eq.ndim() {
        let e = eq.mom(d);
        q[e] = fs.rho * prim[e];
        f[e] = if d == axis {
            q[e] * fs.un + fs.p
        } else {
            q[e] * fs.un
        };
    }
    f[eq.energy()] = (fs.rho_e + fs.p) * fs.un;
    q[eq.energy()] = fs.rho_e;
    for i in 0..eq.n_adv() {
        let e = eq.adv(i);
        f[e] = prim[e] * fs.un;
        q[e] = prim[e];
    }
}

/// Everything the two-sided solvers (HLL, Rusanov) need from one side of
/// a face, from a single mixture evaluation: the [`FaceState`] and its
/// [`side_vectors`].
pub(crate) struct FaceSide<E: EqLayout, L: Lane> {
    pub state: FaceState<L>,
    pub flux: E::Vars<L>,
    pub cons: E::Vars<L>,
}

#[inline(always)]
pub(crate) fn face_side<E: EqLayout, L: Lane>(
    eq: &E,
    fluids: &FluidTable,
    prim: &[L],
    axis: usize,
) -> FaceSide<E, L> {
    let state = face_state(eq, fluids, prim, axis);
    let (mut flux, mut cons) = (eq.vars::<L>(), eq.vars::<L>());
    side_vectors(eq, prim, &state, axis, flux.as_mut(), cons.as_mut());
    FaceSide { state, flux, cons }
}

/// The Davis wave-speed estimates `(S_L, S_R)` and the contact speed `S*`
/// shared by the HLL-family solvers. A vanishing denominator falls back to
/// the mean normal velocity (the `denom.abs() < 1e-300` guard of the scalar
/// solver).
#[inline(always)]
pub(crate) fn davis_speeds<L: Lane>(l: &FaceState<L>, r: &FaceState<L>) -> (L, L, L) {
    let sl = (l.un - l.c).min(r.un - r.c);
    let sr = (l.un + l.c).max(r.un + r.c);
    let denom = l.rho * (sl - l.un) - r.rho * (sr - r.un);
    let s_star = L::select(
        denom.abs().lt(L::splat(1e-300)),
        L::splat(0.5) * (l.un + r.un),
        (r.p - l.p + l.rho * l.un * (sl - l.un) - r.rho * r.un * (sr - r.un)) / denom,
    );
    (sl, sr, s_star)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::eos::prim_to_cons;
    use crate::eqidx::EqIdx;
    use crate::fluid::Fluid;

    /// The physical flux of a primitive state (reference for the solver
    /// consistency tests).
    pub(crate) fn physical_flux(
        eq: &EqIdx,
        fluids: &FluidTable,
        prim: &[f64],
        axis: usize,
        out: &mut [f64],
    ) {
        out.copy_from_slice(&face_side(eq, fluids, prim, axis).flux[..eq.neq()]);
    }

    pub(crate) fn two_fluid_prim(eq: &EqIdx, alpha_air: f64, u: f64, p: f64) -> Vec<f64> {
        let mut prim = vec![0.0; eq.neq()];
        prim[eq.cont(0)] = 1.2 * alpha_air;
        prim[eq.cont(1)] = 1000.0 * (1.0 - alpha_air);
        prim[eq.mom(0)] = u;
        prim[eq.energy()] = p;
        prim[eq.adv(0)] = alpha_air;
        prim
    }

    #[test]
    fn physical_flux_matches_manual_euler() {
        // Single-fluid 1D: F = [rho u, rho u^2 + p, (E + p) u]
        let eq = EqIdx::new(1, 1);
        let fluids = FluidTable::new(&[Fluid::air()]);
        let prim = [1.2, 30.0, 1.0e5];
        let mut f = [0.0; 3];
        physical_flux(&eq, &fluids, &prim, 0, &mut f);
        let e = 1.0e5 / 0.4 + 0.5 * 1.2 * 900.0;
        assert!((f[0] - 36.0).abs() < 1e-10);
        assert!((f[1] - (1.2 * 900.0 + 1.0e5)).abs() < 1e-7);
        assert!((f[2] - (e + 1.0e5) * 30.0).abs() < 1e-6);
    }

    #[test]
    fn all_solvers_are_consistent() {
        // F(q, q) must equal the physical flux.
        let eq = EqIdx::new(2, 2);
        let fluids = FluidTable::new(&[Fluid::air(), Fluid::water()]);
        let mut prim = two_fluid_prim(&eq, 0.7, 25.0, 2.0e5);
        prim[eq.mom(1)] = -12.0;
        let mut want = vec![0.0; eq.neq()];
        physical_flux(&eq, &fluids, &prim, 0, &mut want);
        for solver in RiemannSolver::ALL {
            let mut got = vec![0.0; eq.neq()];
            solver.flux(&eq, &fluids, 0, &prim, &prim, &mut got);
            for (g, w) in got.iter().zip(&want) {
                assert!(
                    (g - w).abs() <= 1e-9 * w.abs().max(1.0),
                    "{solver:?}: {got:?} vs {want:?}"
                );
            }
        }
    }

    #[test]
    fn solvers_are_symmetric_under_mirror() {
        // Mirroring both states about the face must negate the density
        // flux and preserve the momentum flux.
        let eq = EqIdx::new(1, 1);
        let fluids = FluidTable::new(&[Fluid::air()]);
        let l = [1.2, 50.0, 1.5e5];
        let r = [0.8, -10.0, 0.9e5];
        let ml = [0.8, 10.0, 0.9e5];
        let mr = [1.2, -50.0, 1.5e5];
        for solver in RiemannSolver::ALL {
            let mut f = vec![0.0; 3];
            let mut fm = vec![0.0; 3];
            solver.flux(&eq, &fluids, 0, &l, &r, &mut f);
            solver.flux(&eq, &fluids, 0, &ml, &mr, &mut fm);
            assert!(
                (f[0] + fm[0]).abs() < 1e-9 * f[0].abs().max(1.0),
                "{solver:?}"
            );
            assert!(
                (f[1] - fm[1]).abs() < 1e-9 * f[1].abs().max(1.0),
                "{solver:?}"
            );
            assert!(
                (f[2] + fm[2]).abs() < 1e-6 * f[2].abs().max(1.0),
                "{solver:?}"
            );
        }
    }

    #[test]
    fn interface_velocity_sign_follows_flow() {
        let eq = EqIdx::new(1, 1);
        let fluids = FluidTable::new(&[Fluid::air()]);
        // Uniform rightward flow: interface velocity must be u.
        let prim = [1.2, 42.0, 1.0e5];
        let mut f = vec![0.0; 3];
        for solver in RiemannSolver::ALL {
            let s = solver.flux(&eq, &fluids, 0, &prim, &prim, &mut f);
            assert!((s - 42.0).abs() < 1e-9, "{solver:?}: s = {s}");
        }
    }

    #[test]
    fn supersonic_flux_is_pure_upwind() {
        let eq = EqIdx::new(1, 1);
        let fluids = FluidTable::new(&[Fluid::air()]);
        // Both states moving right at Mach > 1: flux must equal F(qL).
        let l = [1.2, 600.0, 1.0e5];
        let r = [0.5, 650.0, 0.8e5];
        let mut want = vec![0.0; 3];
        physical_flux(&eq, &fluids, &l, 0, &mut want);
        for solver in [RiemannSolver::Hllc, RiemannSolver::Hll] {
            let mut got = vec![0.0; 3];
            solver.flux(&eq, &fluids, 0, &l, &r, &mut got);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-9 * w.abs().max(1.0), "{solver:?}");
            }
        }
    }

    #[test]
    fn conservative_state_helper_consistency() {
        // face_state's rho_e agrees with prim_to_cons.
        let eq = EqIdx::new(2, 1);
        let fluids = FluidTable::new(&[Fluid::air(), Fluid::water()]);
        let prim = two_fluid_prim(&eq, 0.4, 15.0, 3.0e5);
        let mut cons = vec![0.0; eq.neq()];
        prim_to_cons(&eq, &fluids, &prim, &mut cons);
        let side = face_side(&eq, &fluids, &prim, 0);
        assert_eq!(side.state.rho_e, cons[eq.energy()]);
        // The conservative vector derived from the face state is bitwise
        // the EOS conversion.
        assert_eq!(&side.cons[..eq.neq()], &cons[..]);
    }
}
