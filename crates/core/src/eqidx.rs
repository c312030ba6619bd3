//! Equation ordering of the state vector.
//!
//! For `nf` fluids in `ndim` dimensions the conservative vector is
//!
//! ```text
//! [ alpha_1 rho_1, ..., alpha_nf rho_nf,   (partial densities)
//!   rho u, (rho v, (rho w)),               (momentum)
//!   rho E,                                 (total energy)
//!   alpha_1, ..., alpha_{nf-1} ]           (advected volume fractions)
//! ```
//!
//! The last volume fraction is inferred from `sum alpha_i = 1`, so the
//! system has `nf + ndim + 1 + (nf - 1)` equations; `nf = 1` recovers the
//! `ndim + 2` Euler equations.  The *primitive* vector reuses the same
//! slots: partial densities, velocity components, pressure, volume
//! fractions (MFC's convention).

use mfc_acc::Lane;

use crate::domain::MAX_EQ;

/// The index arithmetic of an equation layout, over which every hot
/// per-cell kernel (EOS conversions, Riemann solvers, the fused sweep body,
/// health scan, CFL) is written once.
///
/// Two kinds of instance exist: the run-time [`EqIdx`] (any `nf`/`ndim`),
/// and the zero-sized [`ConstEq`] whose counts are compile-time constants —
/// the paper's case optimization (§III-D). Under a `ConstEq` every
/// `0..nf()` / `0..ndim()` loop has a literal trip count, so it unrolls,
/// slot indices fold, and the per-cell private arrays ([`EqLayout::Vars`],
/// sized exactly `neq`) live in registers. Launch sites pick the instance
/// once per launch with [`with_eq_layout!`].
pub trait EqLayout: Copy + Send + Sync + 'static {
    /// A per-cell private array with one slot per equation.
    type Vars<L: Lane>: AsRef<[L]> + AsMut<[L]>;

    /// `Some((nf, ndim))` for a [`ConstEq`], `None` for the run-time
    /// [`EqIdx`]: the compile-time key of a stage whose ISA tier depends on
    /// the layout ([`crate::isa::riemann`]).
    const SHAPE: Option<(usize, usize)>;

    /// A zeroed private array.
    fn vars<L: Lane>(&self) -> Self::Vars<L>;

    /// Number of fluids.
    fn nf(&self) -> usize;

    /// Number of spatial dimensions.
    fn ndim(&self) -> usize;

    /// Total number of equations (= state-vector length).
    #[inline(always)]
    fn neq(&self) -> usize {
        self.nf() + self.ndim() + 1 + (self.nf() - 1)
    }

    /// Slot of fluid `i`'s partial density `alpha_i rho_i`.
    #[inline(always)]
    fn cont(&self, i: usize) -> usize {
        debug_assert!(i < self.nf());
        i
    }

    /// Slot of the momentum (or velocity, in primitives) along axis `d`.
    #[inline(always)]
    fn mom(&self, d: usize) -> usize {
        debug_assert!(d < self.ndim());
        self.nf() + d
    }

    /// Slot of the total energy (pressure, in primitives).
    #[inline(always)]
    fn energy(&self) -> usize {
        self.nf() + self.ndim()
    }

    /// Slot of advected volume fraction `i` (`i < nf - 1`).
    #[inline(always)]
    fn adv(&self, i: usize) -> usize {
        debug_assert!(i + 1 < self.nf(), "alpha_{} is inferred, not stored", i);
        self.nf() + self.ndim() + 1 + i
    }

    /// Number of *stored* volume fractions.
    #[inline(always)]
    fn n_adv(&self) -> usize {
        self.nf() - 1
    }

    /// Reconstruct the full `nf`-entry volume-fraction vector (the last
    /// entry by complement) from a state slice, clamped to `[0, 1]`.
    ///
    /// Generic over [`Lane`] so packed kernels evaluate it on whole lane
    /// packets; at `L = f64` every operation is the scalar original.
    #[inline]
    fn alphas<L: Lane>(&self, state: &[L], out: &mut [L]) {
        debug_assert_eq!(out.len(), self.nf());
        let mut sum = L::splat(0.0);
        for i in 0..self.n_adv() {
            let a = state[self.adv(i)].clamp(0.0, 1.0);
            out[i] = a;
            sum = sum + a;
        }
        out[self.nf() - 1] = (L::splat(1.0) - sum).clamp(0.0, 1.0);
    }
}

/// Index map for one problem's equation layout, with run-time counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EqIdx {
    nf: usize,
    ndim: usize,
}

impl EqLayout for EqIdx {
    type Vars<L: Lane> = [L; MAX_EQ];
    const SHAPE: Option<(usize, usize)> = None;

    #[inline(always)]
    fn vars<L: Lane>(&self) -> [L; MAX_EQ] {
        [L::splat(0.0); MAX_EQ]
    }

    #[inline(always)]
    fn nf(&self) -> usize {
        self.nf
    }

    #[inline(always)]
    fn ndim(&self) -> usize {
        self.ndim
    }
}

/// The inherent accessors are the [`EqLayout`] ones, callable without the
/// trait in scope.
impl EqIdx {
    pub fn new(nf: usize, ndim: usize) -> Self {
        assert!(nf >= 1, "need at least one fluid");
        assert!((1..=3).contains(&ndim), "ndim must be 1..=3, got {ndim}");
        EqIdx { nf, ndim }
    }

    /// Number of fluids.
    #[inline(always)]
    pub fn nf(&self) -> usize {
        self.nf
    }

    /// Number of spatial dimensions.
    #[inline(always)]
    pub fn ndim(&self) -> usize {
        self.ndim
    }

    /// Total number of equations (= state-vector length).
    #[inline(always)]
    pub fn neq(&self) -> usize {
        EqLayout::neq(self)
    }

    /// Slot of fluid `i`'s partial density `alpha_i rho_i`.
    #[inline(always)]
    pub fn cont(&self, i: usize) -> usize {
        EqLayout::cont(self, i)
    }

    /// Slot of the momentum (or velocity, in primitives) along axis `d`.
    #[inline(always)]
    pub fn mom(&self, d: usize) -> usize {
        EqLayout::mom(self, d)
    }

    /// Slot of the total energy (pressure, in primitives).
    #[inline(always)]
    pub fn energy(&self) -> usize {
        EqLayout::energy(self)
    }

    /// Slot of advected volume fraction `i` (`i < nf - 1`).
    #[inline(always)]
    pub fn adv(&self, i: usize) -> usize {
        EqLayout::adv(self, i)
    }

    /// Number of *stored* volume fractions.
    #[inline(always)]
    pub fn n_adv(&self) -> usize {
        EqLayout::n_adv(self)
    }

    /// See [`EqLayout::alphas`].
    #[inline]
    pub fn alphas<L: Lane>(&self, state: &[L], out: &mut [L]) {
        EqLayout::alphas(self, state, out)
    }
}

/// The layout of `NF` fluids in `NDIM` dimensions as a zero-sized type;
/// `NEQ` must be `2 * NF + NDIM` (stable Rust cannot compute an array
/// length from other const parameters, so it is spelled out and checked).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstEq<const NF: usize, const NDIM: usize, const NEQ: usize>;

impl<const NF: usize, const NDIM: usize, const NEQ: usize> EqLayout for ConstEq<NF, NDIM, NEQ> {
    type Vars<L: Lane> = [L; NEQ];
    const SHAPE: Option<(usize, usize)> = Some((NF, NDIM));

    #[inline(always)]
    fn vars<L: Lane>(&self) -> [L; NEQ] {
        const { assert!(NF >= 1 && NDIM >= 1 && NDIM <= 3 && NEQ == 2 * NF + NDIM) };
        [L::splat(0.0); NEQ]
    }

    #[inline(always)]
    fn nf(&self) -> usize {
        NF
    }

    #[inline(always)]
    fn ndim(&self) -> usize {
        NDIM
    }
}

#[cfg(test)]
thread_local! {
    /// Test hook: route [`with_eq_layout!`] on this thread to the run-time
    /// fallback for every shape, so the const and run-time instances of a
    /// kernel can be compared through the public launch functions.
    pub(crate) static FORCE_RUNTIME_LAYOUT: std::cell::Cell<bool> =
        const { std::cell::Cell::new(false) };
}

#[inline(always)]
pub(crate) fn runtime_layout_forced() -> bool {
    #[cfg(test)]
    return FORCE_RUNTIME_LAYOUT.get();
    #[cfg(not(test))]
    false
}

/// Evaluate `$body` with `$e` bound to the [`EqLayout`] instance of the
/// run-time layout `$eq`: a [`ConstEq`] for the shapes the shipped cases and
/// presets use — (1,1) `sod`, (1,2) `taylor_green`, (2,2)
/// `shock_droplet_2d`/`bubble_cloud_2d`, (2,3) `two_phase_benchmark` — and
/// `$eq` itself for any other. `$body` is compiled once per arm, so it
/// should be a call into (or a launch of) code generic over the layout;
/// use it once per launch, never per cell.
macro_rules! with_eq_layout {
    ($eq:expr, $e:ident => $body:expr) => {{
        use $crate::eqidx::ConstEq;
        let eq: $crate::eqidx::EqIdx = $eq;
        let shape = (!$crate::eqidx::runtime_layout_forced()).then_some((eq.nf(), eq.ndim()));
        match shape {
            Some((1, 1)) => {
                let $e = ConstEq::<1, 1, 3>;
                $body
            }
            Some((1, 2)) => {
                let $e = ConstEq::<1, 2, 4>;
                $body
            }
            Some((2, 2)) => {
                let $e = ConstEq::<2, 2, 6>;
                $body
            }
            Some((2, 3)) => {
                let $e = ConstEq::<2, 3, 7>;
                $body
            }
            _ => {
                let $e = eq;
                $body
            }
        }
    }};
}
pub(crate) use with_eq_layout;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_fluid_layout_is_euler() {
        let e = EqIdx::new(1, 3);
        assert_eq!(e.neq(), 5);
        assert_eq!(e.cont(0), 0);
        assert_eq!(e.mom(0), 1);
        assert_eq!(e.mom(2), 3);
        assert_eq!(e.energy(), 4);
        assert_eq!(e.n_adv(), 0);
    }

    #[test]
    fn two_fluid_3d_layout() {
        let e = EqIdx::new(2, 3);
        assert_eq!(e.neq(), 7);
        assert_eq!(e.cont(1), 1);
        assert_eq!(e.mom(0), 2);
        assert_eq!(e.energy(), 5);
        assert_eq!(e.adv(0), 6);
    }

    #[test]
    fn slots_are_disjoint_and_cover_neq() {
        for nf in 1..=3 {
            for ndim in 1..=3 {
                let e = EqIdx::new(nf, ndim);
                let mut seen = vec![false; e.neq()];
                for i in 0..nf {
                    seen[e.cont(i)] = true;
                }
                for d in 0..ndim {
                    seen[e.mom(d)] = true;
                }
                seen[e.energy()] = true;
                for i in 0..e.n_adv() {
                    seen[e.adv(i)] = true;
                }
                assert!(seen.iter().all(|&s| s), "nf={nf} ndim={ndim}");
            }
        }
    }

    #[test]
    fn const_layouts_match_the_run_time_layout() {
        fn same(c: impl EqLayout, nf: usize, ndim: usize) {
            let e = EqIdx::new(nf, ndim);
            assert_eq!((c.nf(), c.ndim(), c.neq()), (nf, ndim, e.neq()));
            assert_eq!(c.vars::<f64>().as_ref().len(), e.neq());
            assert_eq!(c.energy(), e.energy());
            for i in 0..nf {
                assert_eq!(c.cont(i), e.cont(i));
            }
            for d in 0..ndim {
                assert_eq!(c.mom(d), e.mom(d));
            }
            for i in 0..e.n_adv() {
                assert_eq!(c.adv(i), e.adv(i));
            }
        }
        same(ConstEq::<1, 1, 3>, 1, 1);
        same(ConstEq::<1, 2, 4>, 1, 2);
        same(ConstEq::<2, 2, 6>, 2, 2);
        same(ConstEq::<2, 3, 7>, 2, 3);
        // The dispatch picks exactly these, and the run-time layout for
        // anything else.
        for (nf, ndim, want) in [(1, 1, 3), (1, 2, 4), (2, 2, 6), (2, 3, 7), (3, 1, MAX_EQ)] {
            let got = with_eq_layout!(EqIdx::new(nf, ndim), e => e.vars::<f64>().as_ref().len());
            assert_eq!(got, want, "nf={nf} ndim={ndim}");
        }
        // `isa::LAYOUTS` names exactly the dispatched shapes, each keyed by
        // its `SHAPE`, and the fallback by `None`.
        fn shape<E: EqLayout>(_: E) -> Option<(usize, usize)> {
            E::SHAPE
        }
        for want in crate::isa::LAYOUTS {
            let (nf, ndim) = want.unwrap_or((3, 1));
            assert_eq!(with_eq_layout!(EqIdx::new(nf, ndim), e => shape(e)), want);
        }
        // The test hook sends every shape to the run-time layout.
        FORCE_RUNTIME_LAYOUT.set(true);
        let forced = with_eq_layout!(EqIdx::new(2, 3), e => e.vars::<f64>().as_ref().len());
        FORCE_RUNTIME_LAYOUT.set(false);
        assert_eq!(forced, MAX_EQ);
    }

    #[test]
    fn alphas_infers_complement() {
        let e = EqIdx::new(3, 1);
        // state: [ar1, ar2, ar3, mom, E, a1, a2]
        let state = [0.0, 0.0, 0.0, 0.0, 0.0, 0.2, 0.3];
        let mut a = [0.0; 3];
        e.alphas(&state, &mut a);
        assert!((a[0] - 0.2).abs() < 1e-15);
        assert!((a[1] - 0.3).abs() < 1e-15);
        assert!((a[2] - 0.5).abs() < 1e-15);
    }

    #[test]
    fn alphas_clamps_excursions() {
        let e = EqIdx::new(2, 1);
        let state = [0.0, 0.0, 0.0, 0.0, 1.2];
        let mut a = [0.0; 2];
        e.alphas(&state, &mut a);
        assert_eq!(a, [1.0, 0.0]);
    }

    /// The case specialisation: every dispatching launch (conversions,
    /// both sweep engines, health scan, CFL) must compute the same bits
    /// through a [`ConstEq`] as through the run-time [`EqIdx`] instance of
    /// the same generic kernel.
    mod specialisation {
        use super::super::FORCE_RUNTIME_LAYOUT;
        use crate::bc::{apply_bcs, BcSpec};
        use crate::cfl::{try_max_dt_geom, RateMetric};
        use crate::domain::Domain;
        use crate::eos::prim_to_cons;
        use crate::eqidx::EqIdx;
        use crate::fluid::{Fluid, FluidTable};
        use crate::grid::Grid;
        use crate::health::{scan, scan_and_convert, HealthConfig};
        use crate::limiter::Limiter;
        use crate::rhs::{compute_rhs, RhsConfig, RhsMode, RhsWorkspace};
        use crate::riemann::RiemannSolver;
        use crate::state::{cons_to_prim_field, StateField};
        use mfc_acc::Context;
        use proptest::prelude::*;

        fn fluids(nf: usize) -> Vec<Fluid> {
            [Fluid::air(), Fluid::water(), Fluid::new(1.6, 1.0e5)][..nf].to_vec()
        }

        /// Interior extents with >= `PAR_MIN_ITEMS` cells, so 4 workers
        /// really split every launch into gangs.
        fn cells(ndim: usize) -> [usize; 3] {
            match ndim {
                1 => [1100, 1, 1],
                2 => [36, 32, 1],
                _ => [12, 10, 9],
            }
        }

        /// A random admissible state; with `spikes`, also a run of cells
        /// drained of energy (negative pressure: inadmissible cell means,
        /// so the limiter falls back to an inadmissible mean) and isolated
        /// near-vacuum cells (WENO undershoots below zero next to them
        /// while the means stay admissible) — both send face packets
        /// through the scalar replay path.
        fn state(dom: Domain, fl: &[Fluid], seed: u64, spikes: bool) -> StateField {
            let eq = dom.eq;
            let table = FluidTable::new(fl);
            let mut x = seed | 1;
            let mut rnd = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 11) as f64 / (1u64 << 53) as f64
            };
            let mut q = StateField::zeros(dom);
            let mut prim = vec![0.0; eq.neq()];
            let mut cons = vec![0.0; eq.neq()];
            for (i, j, k) in dom.interior() {
                let mut rest = 1.0;
                for f in 0..eq.nf() {
                    let a = if f + 1 < eq.nf() {
                        rest * (0.05 + 0.9 * rnd())
                    } else {
                        rest
                    };
                    rest -= a;
                    prim[eq.cont(f)] = a * [1.2, 1000.0, 50.0][f] * (0.5 + rnd());
                    if f + 1 < eq.nf() {
                        prim[eq.adv(f)] = a;
                    }
                }
                for d in 0..eq.ndim() {
                    prim[eq.mom(d)] = 200.0 * (rnd() - 0.5);
                }
                prim[eq.energy()] = 1.0e5 * (0.5 + rnd());
                if spikes && rnd() < 0.03 {
                    prim[eq.energy()] = 1.0;
                }
                prim_to_cons(&eq, &table, &prim, &mut cons);
                if spikes && (i / 5) % 7 == 3 {
                    cons[eq.energy()] = 0.0;
                }
                q.store_cell(i, j, k, &cons);
            }
            apply_bcs(
                &Context::serial(),
                &mut q,
                &BcSpec::periodic(),
                [(false, false); 3],
            );
            q
        }

        /// Everything one step derives from a state — RHS, div(u),
        /// primitives (full-field and scan), health verdict, dt and the
        /// scan's CFL rate — as bits.
        fn evaluate(
            q: &StateField,
            fl: &[Fluid],
            cfg: &RhsConfig,
            width: usize,
            workers: usize,
            runtime_layout: bool,
        ) -> (Vec<u64>, String) {
            FORCE_RUNTIME_LAYOUT.set(runtime_layout);
            let dom = *q.domain();
            let ctx = Context::with_workers(workers).with_vector_width(width);
            let grid = Grid::uniform(dom.n, [0.0; 3], [1.0; 3]);
            let mut ws = RhsWorkspace::new(dom, &grid);
            let mut rhs = StateField::zeros(dom);
            compute_rhs(&ctx, cfg, fl, q, &mut ws, &mut rhs);
            let w = [
                grid.x.widths_with_ghosts(dom.pad(0)),
                grid.y.widths_with_ghosts(dom.pad(1)),
                grid.z.widths_with_ghosts(dom.pad(2)),
            ];
            let mut prim = StateField::zeros(dom);
            cons_to_prim_field(&ctx, fl, q, &mut prim);
            let widths = [&w[0][..], &w[1], &w[2]];
            let dt = try_max_dt_geom(&ctx, fl, &prim, widths, 0.4, None);
            let mut scanned = StateField::zeros(dom);
            let health = HealthConfig::default();
            let verdict = scan_and_convert(&ctx, fl, &health, q, &mut scanned);
            let metric = RateMetric::new(fl, widths, None);
            let rate = scan(&ctx, fl, &health, q, None, Some(&metric));
            FORCE_RUNTIME_LAYOUT.set(false);
            let bits = [
                rhs.as_slice(),
                ws.divu(),
                prim.as_slice(),
                scanned.as_slice(),
            ]
            .concat()
            .iter()
            .map(|v| v.to_bits())
            .collect();
            (bits, format!("{dt:?} {verdict:?} {rate:?}"))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(6))]

            #[test]
            fn const_and_run_time_layouts_agree_bitwise(seed in 1u64..u64::MAX) {
                for (nf, ndim) in [(1, 1), (1, 2), (2, 2), (2, 3)] {
                    let fl = fluids(nf);
                    let dom = Domain::new(cells(ndim), 3, EqIdx::new(nf, ndim));
                    let cfg = RhsConfig {
                        solver: [RiemannSolver::Hllc, RiemannSolver::Hll, RiemannSolver::Rusanov]
                            [(seed % 3) as usize],
                        limiter: [Limiter::FirstOrderFallback, Limiter::ZhangShu]
                            [(seed / 3 % 2) as usize],
                        mode: [RhsMode::Fused, RhsMode::Staged][(seed / 6 % 2) as usize],
                        ..Default::default()
                    };
                    for spikes in [false, true] {
                        let q = state(dom, &fl, seed, spikes);
                        for (width, workers) in [(1, 1), (8, 1), (1, 4), (8, 4)] {
                            let konst = evaluate(&q, &fl, &cfg, width, workers, false);
                            let run_time = evaluate(&q, &fl, &cfg, width, workers, true);
                            prop_assert_eq!(&konst.1, &run_time.1);
                            prop_assert!(
                                konst.0 == run_time.0,
                                "nf={nf} ndim={ndim} spikes={spikes} W={width} workers={workers} {cfg:?}"
                            );
                        }
                    }
                }
            }
        }

        /// The spiked states really hold inadmissible cells (so their
        /// faces reach the positivity limiter): the health scan of one
        /// reports a violation.
        #[test]
        fn spiked_states_contain_inadmissible_cells() {
            let fl = fluids(2);
            let dom = Domain::new(cells(2), 3, EqIdx::new(2, 2));
            let q = state(dom, &fl, 12345, true);
            let (_, report) = evaluate(&q, &fl, &RhsConfig::default(), 8, 1, false);
            assert!(report.contains("Some("), "{report}");
        }

        /// Three fluids have no const shape: both engines run the generic
        /// bodies on the run-time layout and still agree bitwise.
        #[test]
        fn three_fluids_take_the_fallback_in_both_engines() {
            let fl = fluids(3);
            let dom = Domain::new(cells(2), 3, EqIdx::new(3, 2));
            let q = state(dom, &fl, 777, true);
            let run = |mode| {
                let cfg = RhsConfig {
                    mode,
                    ..Default::default()
                };
                evaluate(&q, &fl, &cfg, 8, 4, false)
            };
            let (fused, staged) = (run(RhsMode::Fused), run(RhsMode::Staged));
            assert_eq!(fused.1, staged.1);
            assert!(fused.0 == staged.0);
        }
    }
}
