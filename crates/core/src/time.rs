//! Strong-stability-preserving Runge–Kutta time integration.

use serde::{Deserialize, Serialize};

use crate::state::StateField;

/// Time integration scheme (MFC's `time_stepper` 1/2/3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimeScheme {
    /// Forward Euler.
    Rk1,
    /// SSP-RK2 (Heun).
    Rk2,
    /// SSP-RK3 (Shu–Osher) — MFC's default with WENO5.
    Rk3,
}

impl TimeScheme {
    pub fn stages(self) -> usize {
        match self {
            TimeScheme::Rk1 => 1,
            TimeScheme::Rk2 => 2,
            TimeScheme::Rk3 => 3,
        }
    }

    /// Formal order of accuracy.
    pub fn order(self) -> usize {
        self.stages()
    }
}

/// Scratch states of one RK step.
pub struct RkWorkspace {
    /// Copy of `q^n`, written by [`rk_step`] before its first stage under
    /// every scheme — the stage combinations read it, and it is the state
    /// a rejected step restores from. Until a step reaches `rk_step` it
    /// still holds the previous step's `q^{n-1}`.
    pub q0: StateField,
    /// Stage RHS.
    pub rhs: StateField,
}

impl RkWorkspace {
    pub fn new(template: &StateField) -> Self {
        RkWorkspace {
            q0: template.clone(),
            rhs: StateField::zeros(*template.domain()),
        }
    }
}

/// Advance `q` by one step of `scheme` with step `dt`.
///
/// `eval_rhs(q, rhs)` must fill ghost cells of `q` (BCs/halo) and then the
/// interior of `rhs`; it is called once per stage. `ws.q0` records `q^n`
/// first, whatever the scheme.  The convex SSP
/// combinations act on the full ghost-inclusive arrays, which is harmless
/// because ghosts are refilled before each use.
pub fn rk_step(
    scheme: TimeScheme,
    dt: f64,
    q: &mut StateField,
    ws: &mut RkWorkspace,
    mut eval_rhs: impl FnMut(&mut StateField, &mut StateField),
) {
    ws.q0.as_mut_slice().copy_from_slice(q.as_slice());
    match scheme {
        TimeScheme::Rk1 => {
            eval_rhs(q, &mut ws.rhs);
            q.axpy(dt, &ws.rhs);
        }
        TimeScheme::Rk2 => {
            // q1 = q0 + dt L(q0)
            eval_rhs(q, &mut ws.rhs);
            q.axpy(dt, &ws.rhs);
            // q^{n+1} = 1/2 q0 + 1/2 (q1 + dt L(q1))
            eval_rhs(q, &mut ws.rhs);
            q.ssp_combine(0.5, &ws.q0, 0.5, dt, &ws.rhs);
        }
        TimeScheme::Rk3 => {
            // Stage 1: q1 = q0 + dt L(q0)
            eval_rhs(q, &mut ws.rhs);
            q.axpy(dt, &ws.rhs);
            // Stage 2: q2 = 3/4 q0 + 1/4 (q1 + dt L(q1))
            eval_rhs(q, &mut ws.rhs);
            q.ssp_combine(0.75, &ws.q0, 0.25, dt, &ws.rhs);
            // Stage 3: q^{n+1} = 1/3 q0 + 2/3 (q2 + dt L(q2))
            eval_rhs(q, &mut ws.rhs);
            q.ssp_combine(1.0 / 3.0, &ws.q0, 2.0 / 3.0, dt, &ws.rhs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::eqidx::EqIdx;

    fn scalar_field(v: f64) -> StateField {
        let dom = Domain::new([1, 1, 1], 1, EqIdx::new(1, 1));
        let mut s = StateField::zeros(dom);
        s.set(1, 0, 0, 0, v);
        s
    }

    /// Integrate dy/dt = lambda y and check the convergence order against
    /// the exact exponential.
    fn decay_error(scheme: TimeScheme, dt: f64) -> f64 {
        let lambda = -1.0;
        let mut q = scalar_field(1.0);
        let mut ws = RkWorkspace::new(&q);
        let steps = (1.0 / dt).round() as usize;
        for _ in 0..steps {
            rk_step(scheme, dt, &mut q, &mut ws, |q, rhs| {
                let v = q.get(1, 0, 0, 0);
                rhs.fill(0.0);
                rhs.set(1, 0, 0, 0, lambda * v);
            });
        }
        (q.get(1, 0, 0, 0) - (-1.0f64).exp()).abs()
    }

    #[test]
    fn rk_schemes_converge_at_design_order() {
        for (scheme, min_rate) in [
            (TimeScheme::Rk1, 0.9),
            (TimeScheme::Rk2, 1.9),
            (TimeScheme::Rk3, 2.9),
        ] {
            let e1 = decay_error(scheme, 0.05);
            let e2 = decay_error(scheme, 0.025);
            let rate = (e1 / e2).log2();
            assert!(
                rate > min_rate,
                "{scheme:?}: rate {rate} (e1={e1:.2e}, e2={e2:.2e})"
            );
        }
    }

    /// The in-place stage combine is bitwise the `axpy` → copy → `lincomb`
    /// sequence it replaced, on values that round differently under any
    /// reassociation.
    #[test]
    fn in_place_stage_combine_matches_the_three_call_sequence_bitwise() {
        let dom = Domain::new([7, 5, 1], 2, EqIdx::new(2, 2));
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut field = || {
            let mut f = StateField::zeros(dom);
            for v in f.as_mut_slice() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *v = ((x >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1.0e5;
            }
            f
        };
        let (q_init, rhs0) = (field(), field());
        let dt = 3.7e-4;
        let eval = |q: &mut StateField, rhs: &mut StateField| {
            // A state-dependent RHS, so each stage sees the previous one.
            for ((r, &qv), &r0) in rhs
                .as_mut_slice()
                .iter_mut()
                .zip(q.as_slice())
                .zip(rhs0.as_slice())
            {
                *r = r0 - 0.3 * qv;
            }
        };
        for scheme in [TimeScheme::Rk2, TimeScheme::Rk3] {
            let mut q = q_init.clone();
            let mut ws = RkWorkspace::new(&q);
            rk_step(scheme, dt, &mut q, &mut ws, eval);

            let q0 = q_init.clone();
            let mut want = q_init.clone();
            let mut rhs = StateField::zeros(dom);
            let tails: &[(f64, f64)] = match scheme {
                TimeScheme::Rk2 => &[(0.5, 0.5)],
                _ => &[(0.75, 0.25), (1.0 / 3.0, 2.0 / 3.0)],
            };
            eval(&mut want, &mut rhs);
            want.axpy(dt, &rhs);
            for &(a, b) in tails {
                eval(&mut want, &mut rhs);
                want.axpy(dt, &rhs);
                let tmp = want.clone();
                want.lincomb(a, &q0, b, &tmp);
            }
            let bits =
                |f: &StateField| f.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&q), bits(&want), "{scheme:?}");
        }
    }

    #[test]
    fn rhs_called_once_per_stage() {
        for scheme in [TimeScheme::Rk1, TimeScheme::Rk2, TimeScheme::Rk3] {
            let mut q = scalar_field(1.0);
            let mut ws = RkWorkspace::new(&q);
            let mut calls = 0;
            rk_step(scheme, 0.01, &mut q, &mut ws, |_, rhs| {
                calls += 1;
                rhs.fill(0.0);
            });
            assert_eq!(calls, scheme.stages());
        }
    }

    #[test]
    fn zero_rhs_preserves_state_exactly() {
        for scheme in [TimeScheme::Rk1, TimeScheme::Rk2, TimeScheme::Rk3] {
            let mut q = scalar_field(3.25);
            let mut ws = RkWorkspace::new(&q);
            rk_step(scheme, 0.1, &mut q, &mut ws, |_, rhs| rhs.fill(0.0));
            assert_eq!(q.get(1, 0, 0, 0), 3.25, "{scheme:?}");
        }
    }
}
