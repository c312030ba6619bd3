//! Fluid definitions and the Allaire mixture rules.

use mfc_acc::Lane;
use serde::{Deserialize, Serialize};

use crate::eos::MAX_FLUIDS;
use crate::eqidx::EqLayout;

/// One fluid component, closed by the stiffened-gas EOS
/// `p = (gamma - 1) rho e - gamma pi_inf`.
///
/// `pi_inf = 0` recovers an ideal gas; a large `pi_inf` models a nearly
/// incompressible liquid as a "high-pressure gas" (§II-A).
///
/// ```
/// use mfc_core::fluid::Fluid;
/// let air = Fluid::air();
/// assert!((air.sound_speed(1.225, 101325.0) - 340.3).abs() < 1.0);
/// let water = Fluid::water().with_viscosity(1.0e-3);
/// assert!(water.sound_speed(1000.0, 101325.0) > 1400.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fluid {
    /// Ratio of specific heats.
    pub gamma: f64,
    /// Liquid stiffness (Pa).
    pub pi_inf: f64,
    /// Dynamic (shear) viscosity (Pa·s); 0 disables viscous fluxes for
    /// this component.
    #[serde(default)]
    pub viscosity: f64,
}

impl Fluid {
    pub fn new(gamma: f64, pi_inf: f64) -> Self {
        assert!(gamma > 1.0, "gamma must exceed 1, got {gamma}");
        assert!(pi_inf >= 0.0, "pi_inf must be non-negative, got {pi_inf}");
        Fluid {
            gamma,
            pi_inf,
            viscosity: 0.0,
        }
    }

    /// Attach a dynamic viscosity.
    pub fn with_viscosity(mut self, mu: f64) -> Self {
        assert!(mu >= 0.0, "viscosity must be non-negative, got {mu}");
        self.viscosity = mu;
        self
    }

    /// Air at standard conditions.
    pub fn air() -> Self {
        Fluid::new(1.4, 0.0)
    }

    /// Water under the stiffened-gas fit of Coralic & Colonius
    /// (gamma = 6.12, pi_inf = 3.43e8 Pa).
    pub fn water() -> Self {
        Fluid::new(6.12, 3.43e8)
    }

    /// `1/(gamma-1)` — this fluid's contribution per unit volume fraction
    /// to the mixture Gamma.
    #[inline(always)]
    pub fn big_gamma(&self) -> f64 {
        1.0 / (self.gamma - 1.0)
    }

    /// `gamma pi_inf/(gamma-1)` — contribution to the mixture Pi.
    #[inline(always)]
    pub fn big_pi(&self) -> f64 {
        self.gamma * self.pi_inf / (self.gamma - 1.0)
    }

    /// Sound speed of the pure fluid at density `rho` and pressure `p`.
    #[inline(always)]
    pub fn sound_speed(&self, rho: f64, p: f64) -> f64 {
        (self.gamma * (p + self.pi_inf) / rho).sqrt()
    }
}

/// The per-fluid Allaire coefficients of a fluid set, evaluated once per
/// launch so the per-cell kernels look up `1/(gamma-1)` and
/// `gamma pi_inf/(gamma-1)` instead of re-dividing for every cell and face
/// side. Each entry is the value of the same scalar expression
/// ([`Fluid::big_gamma`] / [`Fluid::big_pi`]), so a kernel reading the
/// table produces the bits it would produce from the fluids themselves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FluidTable {
    nf: usize,
    big_gamma: [f64; MAX_FLUIDS],
    big_pi: [f64; MAX_FLUIDS],
    min_pi: f64,
}

impl FluidTable {
    pub fn new(fluids: &[Fluid]) -> Self {
        assert!(
            (1..=MAX_FLUIDS).contains(&fluids.len()),
            "between 1 and {MAX_FLUIDS} fluids are supported, got {}",
            fluids.len()
        );
        let mut t = FluidTable {
            nf: fluids.len(),
            big_gamma: [0.0; MAX_FLUIDS],
            big_pi: [0.0; MAX_FLUIDS],
            min_pi: f64::INFINITY,
        };
        for (i, f) in fluids.iter().enumerate() {
            t.big_gamma[i] = f.big_gamma();
            t.big_pi[i] = f.big_pi();
            t.min_pi = t.min_pi.min(f.pi_inf);
        }
        t
    }

    /// Smallest liquid stiffness of the set: `p + min_pi > 0` is the
    /// admissibility bound on pressure.
    #[inline(always)]
    pub fn min_pi(&self) -> f64 {
        self.min_pi
    }

    /// Mixture coefficients of one cell from its stored volume fractions
    /// (`state` is a conservative or primitive vector — both keep them in
    /// the `adv` slots): the clamped fractions and their complement, as in
    /// [`EqLayout::alphas`], weighted as in [`MixtureRules::evaluate`].
    /// Every accumulator sees the operations of those two in the same
    /// order, so the result is bitwise theirs — without the intermediate
    /// per-fluid array.
    #[inline(always)]
    pub fn mixture<E: EqLayout, L: Lane>(&self, eq: &E, state: &[L]) -> MixtureRules<L> {
        debug_assert_eq!(self.nf, eq.nf());
        let mut sum = L::splat(0.0);
        let mut big_gamma = L::splat(0.0);
        let mut big_pi = L::splat(0.0);
        for i in 0..eq.n_adv() {
            let a = state[eq.adv(i)].clamp(0.0, 1.0);
            sum = sum + a;
            big_gamma = big_gamma + a * L::splat(self.big_gamma[i]);
            big_pi = big_pi + a * L::splat(self.big_pi[i]);
        }
        let last = eq.nf() - 1;
        let a = (L::splat(1.0) - sum).clamp(0.0, 1.0);
        MixtureRules {
            big_gamma: big_gamma + a * L::splat(self.big_gamma[last]),
            big_pi: big_pi + a * L::splat(self.big_pi[last]),
        }
    }
}

/// Volume-fraction-weighted mixture coefficients of the Allaire model.
///
/// With `Gamma = sum_i alpha_i/(gamma_i - 1)` and
/// `Pi = sum_i alpha_i gamma_i pi_i/(gamma_i - 1)`, the mixture internal
/// energy is `rho e = Gamma p + Pi`, which is what keeps pressure free of
/// spurious oscillations across material interfaces.
/// Generic over [`Lane`] (defaulting to plain `f64`) so packed kernels
/// evaluate the rules on whole lane packets; every operation is
/// elementwise, so each lane performs exactly the scalar sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixtureRules<L = f64> {
    /// `sum alpha_i / (gamma_i - 1)`.
    pub big_gamma: L,
    /// `sum alpha_i gamma_i pi_i / (gamma_i - 1)`.
    pub big_pi: L,
}

impl<L: Lane> MixtureRules<L> {
    /// Evaluate the mixture coefficients for the given volume fractions.
    ///
    /// `alphas` must have one entry per fluid; entries should be in
    /// `[0, 1]` and sum to 1 (enforced elsewhere; small diffuse-interface
    /// excursions are tolerated).
    #[inline(always)]
    pub fn evaluate(fluids: &[Fluid], alphas: &[L]) -> Self {
        debug_assert_eq!(fluids.len(), alphas.len());
        let mut big_gamma = L::splat(0.0);
        let mut big_pi = L::splat(0.0);
        for (f, &a) in fluids.iter().zip(alphas) {
            big_gamma = big_gamma + a * L::splat(f.big_gamma());
            big_pi = big_pi + a * L::splat(f.big_pi());
        }
        MixtureRules { big_gamma, big_pi }
    }

    /// Mixture pressure from total energy:
    /// `p = (rho E - 1/2 rho |u|^2 - Pi) / Gamma`.
    #[inline(always)]
    pub fn pressure(&self, rho_e_internal: L) -> L {
        (rho_e_internal - self.big_pi) / self.big_gamma
    }

    /// Mixture internal energy density `rho e = Gamma p + Pi`.
    #[inline(always)]
    pub fn internal_energy(&self, p: L) -> L {
        self.big_gamma * p + self.big_pi
    }

    /// Frozen mixture sound speed:
    /// `c^2 = (p (1 + Gamma) + Pi) / (Gamma rho)`.
    ///
    /// Reduces to `gamma (p + pi)/rho` for a single fluid.
    #[inline(always)]
    pub fn sound_speed(&self, rho: L, p: L) -> L {
        let c2 = (p * (L::splat(1.0) + self.big_gamma) + self.big_pi) / (self.big_gamma * rho);
        c2.max(L::splat(0.0)).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_gas_sound_speed() {
        let air = Fluid::air();
        let c = air.sound_speed(1.225, 101325.0);
        assert!((c - 340.29).abs() < 0.5, "c = {c}");
    }

    #[test]
    fn water_is_stiff() {
        let w = Fluid::water();
        let c = w.sound_speed(1000.0, 101325.0);
        assert!(c > 1400.0 && c < 1500.0, "c = {c}");
    }

    #[test]
    fn single_fluid_mixture_recovers_pure_fluid() {
        let air = Fluid::air();
        let m = MixtureRules::evaluate(&[air], &[1.0]);
        let (rho, p) = (1.2, 1.0e5);
        assert!((m.sound_speed(rho, p) - air.sound_speed(rho, p)).abs() < 1e-9);
        // rho e round trip
        let rho_e = m.internal_energy(p);
        assert!((m.pressure(rho_e) - p).abs() < 1e-9);
    }

    #[test]
    fn mixture_coefficients_interpolate_linearly() {
        let fluids = [Fluid::air(), Fluid::water()];
        let m_half = MixtureRules::evaluate(&fluids, &[0.5, 0.5]);
        let expect_gamma = 0.5 * fluids[0].big_gamma() + 0.5 * fluids[1].big_gamma();
        let expect_pi = 0.5 * fluids[0].big_pi() + 0.5 * fluids[1].big_pi();
        assert!((m_half.big_gamma - expect_gamma).abs() < 1e-12);
        assert!((m_half.big_pi - expect_pi).abs() < 1e-6);
    }

    #[test]
    fn table_mixture_is_bitwise_alphas_then_evaluate() {
        use crate::eqidx::EqIdx;
        let fluids = [Fluid::air(), Fluid::water(), Fluid::new(1.6, 1.0e5)];
        let table = FluidTable::new(&fluids);
        assert_eq!(table.min_pi(), 0.0);
        let eq = EqIdx::new(3, 2);
        for (a0, a1) in [(0.2, 0.3), (1.3, -0.2), (0.7, 0.7), (1e-9, 0.999)] {
            let mut state = vec![0.5; eq.neq()];
            state[eq.adv(0)] = a0;
            state[eq.adv(1)] = a1;
            let mut alphas = [0.0; 3];
            eq.alphas(&state, &mut alphas);
            let want = MixtureRules::evaluate(&fluids, &alphas);
            let got = table.mixture(&eq, &state);
            assert_eq!(got.big_gamma.to_bits(), want.big_gamma.to_bits());
            assert_eq!(got.big_pi.to_bits(), want.big_pi.to_bits());
        }
    }

    #[test]
    fn pressure_energy_round_trip_two_fluid() {
        let fluids = [Fluid::air(), Fluid::water()];
        let m = MixtureRules::evaluate(&fluids, &[0.3, 0.7]);
        for p in [1.0e4, 1.0e5, 2.0e7] {
            let rho_e = m.internal_energy(p);
            assert!((m.pressure(rho_e) - p).abs() < 1e-6 * p.max(1.0));
        }
    }

    #[test]
    #[should_panic]
    fn gamma_at_most_one_rejected() {
        let _ = Fluid::new(1.0, 0.0);
    }
}
