//! Property-based tests (proptest) on the core data structures and
//! numerical invariants.

use proptest::prelude::*;

use mfc::core::eos::{cons_to_prim, prim_to_cons};
use mfc::core::eqidx::EqIdx;
use mfc::core::fluid::{Fluid, FluidTable, MixtureRules};
use mfc::core::riemann::RiemannSolver;
use mfc::core::weno::{reconstruct_line, WenoOrder};
use mfc::fft::{fft_inplace, ifft_inplace, lowpass_filter_line, Complex};
use mfc::mpsim::{best_block_dims, CartComm};

fn fluid_strategy() -> impl Strategy<Value = Fluid> {
    (1.05f64..7.0, 0.0f64..1e9).prop_map(|(g, pi)| Fluid::new(g, pi))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// prim -> cons -> prim is the identity for admissible states.
    #[test]
    fn prim_cons_round_trip(
        f0 in fluid_strategy(),
        f1 in fluid_strategy(),
        a in 0.01f64..0.99,
        r0 in 0.01f64..2000.0,
        r1 in 0.01f64..2000.0,
        u in -500.0f64..500.0,
        p in 1.0f64..1e8,
    ) {
        let eq = EqIdx::new(2, 1);
        let fluids = FluidTable::new(&[f0, f1]);
        let prim = vec![a * r0, (1.0 - a) * r1, u, p, a];
        let mut cons = vec![0.0; 5];
        let mut back = vec![0.0; 5];
        prim_to_cons(&eq, &fluids, &prim, &mut cons);
        cons_to_prim(&eq, &fluids, &cons, &mut back);
        for (x, y) in prim.iter().zip(&back) {
            prop_assert!((x - y).abs() <= 1e-8 * x.abs().max(1.0), "{prim:?} -> {back:?}");
        }
    }

    /// Mixture coefficients are convex combinations of the pure-fluid ones.
    #[test]
    fn mixture_rules_bounded(
        f0 in fluid_strategy(),
        f1 in fluid_strategy(),
        a in 0.0f64..=1.0,
    ) {
        let m = MixtureRules::evaluate(&[f0, f1], &[a, 1.0 - a]);
        let lo = f0.big_gamma().min(f1.big_gamma());
        let hi = f0.big_gamma().max(f1.big_gamma());
        prop_assert!(m.big_gamma >= lo - 1e-12 && m.big_gamma <= hi + 1e-12);
        let lo = f0.big_pi().min(f1.big_pi());
        let hi = f0.big_pi().max(f1.big_pi());
        prop_assert!(m.big_pi >= lo - 1e-6 && m.big_pi <= hi * (1.0 + 1e-12) + 1e-6);
    }

    /// WENO reconstructions stay within the local stencil bounds
    /// (essentially-non-oscillatory property, slightly relaxed).
    #[test]
    fn weno_stays_in_stencil_range(
        values in proptest::collection::vec(-10.0f64..10.0, 14..40),
    ) {
        for order in [WenoOrder::Weno3, WenoOrder::Weno5] {
            let ng = order.ghost_layers();
            let n = values.len() - 2 * ng;
            let mut left = vec![0.0; n + 1];
            let mut right = vec![0.0; n + 1];
            reconstruct_line(order, &values, n, &mut left, &mut right);
            let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let slack = 0.4 * (hi - lo) + 1e-9;
            for m in 0..=n {
                prop_assert!(left[m] >= lo - slack && left[m] <= hi + slack);
                prop_assert!(right[m] >= lo - slack && right[m] <= hi + slack);
            }
        }
    }

    /// All Riemann solvers are consistent: F(q, q) equals the physical
    /// flux, and the returned interface velocity equals the flow velocity.
    #[test]
    fn riemann_consistency(
        f0 in fluid_strategy(),
        rho in 0.1f64..2000.0,
        u in -300.0f64..300.0,
        p in 10.0f64..1e7,
    ) {
        let eq = EqIdx::new(1, 1);
        let fluids = FluidTable::new(&[f0]);
        let prim = vec![rho, u, p];
        for solver in [RiemannSolver::Hllc, RiemannSolver::Hll, RiemannSolver::Rusanov] {
            let mut f = vec![0.0; 3];
            let s = solver.flux(&eq, &fluids, 0, &prim, &prim, &mut f);
            prop_assert!((s - u).abs() <= 1e-7 * u.abs().max(1.0), "{solver:?}");
            prop_assert!((f[0] - rho * u).abs() <= 1e-7 * (rho * u).abs().max(1e-12));
        }
    }

    /// HLLC wave speeds are ordered: SL <= S* <= SR.
    #[test]
    fn hllc_wave_ordering(
        rho_l in 0.1f64..100.0,
        rho_r in 0.1f64..100.0,
        u_l in -200.0f64..200.0,
        u_r in -200.0f64..200.0,
        p_l in 100.0f64..1e6,
        p_r in 100.0f64..1e6,
    ) {
        let eq = EqIdx::new(1, 1);
        let fluids = FluidTable::new(&[Fluid::air()]);
        let priml = vec![rho_l, u_l, p_l];
        let primr = vec![rho_r, u_r, p_r];
        let cl = Fluid::air().sound_speed(rho_l, p_l);
        let cr = Fluid::air().sound_speed(rho_r, p_r);
        let sl = (u_l - cl).min(u_r - cr);
        let sr = (u_l + cl).max(u_r + cr);
        let mut f = vec![0.0; 3];
        let s = RiemannSolver::Hllc.flux(&eq, &fluids, 0, &priml, &primr, &mut f);
        prop_assert!(s >= sl - 1e-9 && s <= sr + 1e-9, "SL={sl} S*={s} SR={sr}");
    }

    /// FFT round-trip and Parseval.
    #[test]
    fn fft_round_trip_and_parseval(
        log_n in 1u32..8,
        seed in 0u64..1000,
    ) {
        let n = 1usize << log_n;
        let x: Vec<Complex> = (0..n)
            .map(|i| {
                let v = ((seed as usize + i * 37) % 211) as f64 / 211.0 - 0.5;
                Complex::new(v, -v * 0.5)
            })
            .collect();
        let mut y = x.clone();
        fft_inplace(&mut y);
        let time: f64 = x.iter().map(|c| c.norm_sqr()).sum();
        let freq: f64 = y.iter().map(|c| c.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((time - freq).abs() <= 1e-9 * time.max(1.0));
        ifft_inplace(&mut y);
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((*a - *b).abs() < 1e-10);
        }
    }

    /// The low-pass filter is a projection: applying it twice equals once.
    #[test]
    fn lowpass_is_projection(
        log_n in 3u32..7,
        keep in 0usize..16,
        seed in 0u64..1000,
    ) {
        let n = 1usize << log_n;
        let mut once: Vec<f64> = (0..n)
            .map(|i| ((seed as usize + i * 13) % 17) as f64)
            .collect();
        lowpass_filter_line(&mut once, keep);
        let mut twice = once.clone();
        lowpass_filter_line(&mut twice, keep);
        for (a, b) in once.iter().zip(&twice) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// The positivity limiter always produces admissible states and never
    /// moves an already-admissible state.
    #[test]
    fn limiter_restores_admissibility(
        ar0 in -1.0f64..2.0,
        ar1 in -1.0f64..2000.0,
        u in -300.0f64..300.0,
        p in -1.0e5f64..1.0e6,
        a in 0.01f64..0.99,
    ) {
        use mfc::core::limiter::{admissible, limit_state, Limiter};
        let eq = EqIdx::new(2, 1);
        let fluids = FluidTable::new(&[Fluid::air(), Fluid::water()]);
        let mean = vec![0.6, 400.0, 5.0, 1.0e5, 0.5];
        let state = vec![ar0, ar1, u, p, a];
        for lim in [Limiter::FirstOrderFallback, Limiter::ZhangShu] {
            let mut s = state.clone();
            let was_admissible = admissible(&eq, &fluids, &s);
            let theta = limit_state(lim, &eq, &fluids, &mean, &mut s);
            prop_assert!(admissible(&eq, &fluids, &s), "{lim:?}: {s:?}");
            if was_admissible {
                prop_assert_eq!(theta, 1.0);
                prop_assert_eq!(&s, &state);
            } else {
                prop_assert!(theta < 1.0);
            }
        }
    }

    /// Viscous fluxes vanish identically for rigid-body (uniform) motion.
    #[test]
    fn viscous_rhs_zero_for_uniform_motion(
        u in -200.0f64..200.0,
        v in -200.0f64..200.0,
        mu in 0.001f64..2.0,
    ) {
        use mfc::core::domain::Domain;
        use mfc::core::state::StateField;
        use mfc::core::viscous::add_viscous_fluxes;
        use mfc::core::grid::Grid;
        let eq = EqIdx::new(1, 2);
        let dom = Domain::new([6, 6, 1], 3, eq);
        let grid = Grid::uniform([6, 6, 1], [0.0; 3], [1.0, 1.0, 1.0]);
        let widths = [
            grid.x.widths_with_ghosts(dom.pad(0)),
            grid.y.widths_with_ghosts(dom.pad(1)),
            grid.z.widths_with_ghosts(dom.pad(2)),
        ];
        let fluids = [Fluid::air().with_viscosity(mu)];
        let mut prim = StateField::zeros(dom);
        for k in 0..dom.ext(2) {
            for j in 0..dom.ext(1) {
                for i in 0..dom.ext(0) {
                    prim.set(i, j, k, eq.cont(0), 1.2);
                    prim.set(i, j, k, eq.mom(0), u);
                    prim.set(i, j, k, eq.mom(1), v);
                    prim.set(i, j, k, eq.energy(), 1.0e5);
                }
            }
        }
        let mut rhs = StateField::zeros(dom);
        let ctx = mfc::Context::serial();
        add_viscous_fluxes(&ctx, &dom, &fluids, &prim, &widths, &mut rhs);
        let max = rhs.as_slice().iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        prop_assert!(max < 1e-8, "max = {max}");
    }

    /// The block decomposition tiles the global domain exactly once.
    #[test]
    fn decomposition_tiles_domain(
        ranks in 1usize..64,
        gx in 8usize..200,
        gy in 1usize..100,
        gz in 1usize..50,
    ) {
        let dims = best_block_dims(ranks, [gx, gy, gz]);
        prop_assert_eq!(dims[0] * dims[1] * dims[2], ranks);
        // Cover axis 0 exactly (same logic applies per axis).
        let mut covered = vec![0u32; gx];
        for rank in 0..ranks {
            let cart = CartComm::new(rank, dims, [false; 3]);
            let (off, len) = cart.local_extent(0, gx);
            for c in covered.iter_mut().skip(off).take(len) {
                *c += 1;
            }
        }
        let per_x = (ranks / dims[0]) as u32;
        prop_assert!(covered.iter().all(|&c| c == per_x));
    }

    /// Cartesian neighbours are mutual: my +1 neighbour's -1 neighbour is me.
    #[test]
    fn cart_neighbors_are_mutual(
        p1 in 1usize..5,
        p2 in 1usize..5,
        p3 in 1usize..5,
        rank_seed in 0usize..1000,
        periodic in proptest::bool::ANY,
    ) {
        let size = p1 * p2 * p3;
        let rank = rank_seed % size;
        let cart = CartComm::new(rank, [p1, p2, p3], [periodic; 3]);
        for axis in 0..3 {
            if let Some(nbr) = cart.neighbor(axis, 1) {
                let other = CartComm::new(nbr, [p1, p2, p3], [periodic; 3]);
                prop_assert_eq!(other.neighbor(axis, -1), Some(rank));
            }
        }
    }
}
