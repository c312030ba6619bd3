//! Numerical-health watchdog: one cheap pass over the freshly stepped
//! conservative field that also yields the next step's CFL rate.
//!
//! Diffuse-interface multiphase states go nonphysical mid-run — NaN from an
//! over-aggressive time step, negative partial densities at a vanishing
//! phase, vacuum pressure below the stiffened-gas floor `p = -Π`. MFC
//! answers with the Zhang–Shu positivity limiter and low-dissipation
//! fallbacks; this module supplies the *detection* half: scan the freshly
//! updated conservative field, convert each interior cell to primitives in
//! registers, and report the first offending cell so the recovery ladder
//! in [`crate::recovery`] can react instead of the process aborting. The
//! same converted cells give the maximum CFL wave-speed rate
//! ([`crate::cfl::RateMetric`]), so the next step's dt needs no pass of
//! its own.
//!
//! The scan is instrumented as an `mfc-acc` kernel (`s_health_scan`) with
//! FLOP/byte counts like every other sweep, and is read-only with respect
//! to the conservative state — running it cannot perturb the trajectory,
//! which is what keeps recovery-armed runs bitwise identical to plain runs
//! when no fault triggers.

use mfc_acc::{with_lane_width, Context, KernelClass, KernelCost, Lane, LaunchConfig, ParSlice};
use serde::{Deserialize, Serialize};

use crate::cfl::{rate_flops, RateMetric};
use crate::eos::cons_to_prim;
use crate::eqidx::{with_eq_layout, EqLayout};
use crate::fluid::{Fluid, FluidTable};
use crate::isa::{self, Tier};
use crate::state::StateField;

/// Tolerances of the health scan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct HealthConfig {
    /// Allowed excursion of stored volume fractions outside `[0, 1]`.
    ///
    /// High-order reconstruction legitimately overshoots alpha by O(1e-3)
    /// at diffuse interfaces (the EOS clamps before mixture evaluation);
    /// only excursions beyond this slack are flagged as faults.
    pub alpha_slack: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig { alpha_slack: 1e-2 }
    }
}

/// What went nonphysical in a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ViolationKind {
    /// A conservative component is NaN or infinite.
    NotFinite,
    /// The (unfloored) mixture density is `<= 0`.
    NonPositiveDensity,
    /// Pressure is NaN or below the mixture stiffened-gas floor
    /// `p (1 + Gamma) + Pi <= 0`, where the frozen sound speed turns
    /// imaginary. Stiffened liquids legitimately sustain tension
    /// (`p < 0`) well above that floor.
    VacuumPressure,
    /// A stored volume fraction left `[0, 1]` by more than the slack.
    AlphaOutOfRange,
}

impl ViolationKind {
    pub fn name(&self) -> &'static str {
        match self {
            ViolationKind::NotFinite => "not_finite",
            ViolationKind::NonPositiveDensity => "non_positive_density",
            ViolationKind::VacuumPressure => "vacuum_pressure",
            ViolationKind::AlphaOutOfRange => "alpha_out_of_range",
        }
    }
}

/// First offending cell found by a health scan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    pub kind: ViolationKind,
    /// Ghost-inclusive cell coordinates in the local block.
    pub cell: [usize; 3],
    /// Offending equation slot (first bad one for `NotFinite`/alpha).
    pub eq: usize,
    /// The offending value (density, pressure, alpha, or component).
    pub value: f64,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} at cell ({}, {}, {}) eq {}: value {:e}",
            self.kind.name(),
            self.cell[0],
            self.cell[1],
            self.cell[2],
            self.eq,
            self.value
        )
    }
}

/// Scan the interior of a conservative field, writing primitives as a side
/// product, and return the first violation (in x-fastest cell order).
///
/// This is [`scan`] with the primitive store switched on and no CFL rate.
/// `prim` interior cells are overwritten; ghosts are left untouched.
pub fn scan_and_convert(
    ctx: &Context,
    fluids: &[Fluid],
    health: &HealthConfig,
    cons: &StateField,
    prim: &mut StateField,
) -> Option<Violation> {
    scan(ctx, fluids, health, cons, Some(prim), None).err()
}

/// The health scan: the first violation in the interior of `cons` (in
/// x-fastest cell order), or — when the field is healthy — the maximum
/// CFL rate of its cells under `metric` (`-inf` without one). Each
/// healthy cell is converted once, in registers; `prim`, when given,
/// receives the interior primitives.
pub(crate) fn scan(
    ctx: &Context,
    fluids: &[Fluid],
    health: &HealthConfig,
    cons: &StateField,
    prim: Option<&mut StateField>,
    metric: Option<&RateMetric>,
) -> Result<f64, Violation> {
    scan_at(isa::HEALTH.tier(), ctx, fluids, health, cons, prim, metric)
}

/// [`scan`] through its `tier` entry: the whole per-cell walk — lane
/// packets, conversion, checks, rate and the scalar fallback — is compiled
/// into each entry of [`isa::HEALTH`].
fn scan_at(
    tier: Tier,
    ctx: &Context,
    fluids: &[Fluid],
    health: &HealthConfig,
    cons: &StateField,
    prim: Option<&mut StateField>,
    metric: Option<&RateMetric>,
) -> Result<f64, Violation> {
    let dom = *cons.domain();
    if let Some(prim) = &prim {
        assert_eq!(prim.domain(), &dom);
    }
    let eq = dom.eq;
    let neq = eq.neq();
    let (nx, ny, _nz) = (dom.n[0], dom.n[1], dom.n[2]);
    let (px, py, pz) = (dom.pad(0), dom.pad(1), dom.pad(2));
    let slack = health.alpha_slack;

    // Conversion FLOPs plus the watchdog comparisons (~3 per equation)
    // and the per-cell mixture-floor evaluation (~4 per fluid), plus the
    // CFL rate when one is folded.
    let rate = metric.map_or(0.0, |_| rate_flops(eq.ndim()));
    let stored = prim.as_ref().map_or(0.0, |_| 8.0 * neq as f64);
    let cost = KernelCost::new(
        KernelClass::Other,
        (8 * eq.nf() + 7 * eq.ndim() + 13 + 3 * neq) as f64 + rate,
        8.0 * neq as f64,
        stored,
    );
    let cfg = LaunchConfig::tuned("s_health_scan");

    // Gang-decomposed scan: each gang walks its contiguous item range in
    // x-fastest order and stops at its first offender; folding the
    // per-gang results in gang order reproduces the serial scan's "first
    // violation" exactly (gangs partition the space in ascending order).
    // On a faulted step later gangs may convert cells the serial scan
    // would have skipped, but faulted steps are discarded and retried, so
    // the extra primitive stores never reach a sweep. The rate is a max,
    // exact in any order, so folding it per gang changes no bit.
    //
    // Within a gang the walk is lane-tiled: a full packet that passes
    // every check lane-wide converts (and stores) `WIDTH` cells at once;
    // any flagged lane drops the packet back to the scalar walk, which
    // preserves the exact "first violation in x-fastest order" semantics
    // (and bitwise-identical primitives and rates, since the lane
    // arithmetic is the generic scalar op sequence per lane).
    let d3 = dom.dims3();
    let table = FluidTable::new(fluids);
    let vw = ctx.vector_width();
    let results = with_eq_layout!(eq, eq => {
        let scanner = HealthScanner {
            eq,
            fluids: &table,
            slack,
            src: cons.as_slice(),
            out: prim.map(|p| ParSlice::new(p.as_mut_slice())),
            metric,
            nx,
            ny,
            pad: [px, py, pz],
            ext1: d3.n1,
            ext2: d3.n2,
            block: d3.len(),
        };
        ctx.launch_gangs(
            &cfg,
            cost,
            dom.interior_cells(),
            |_gang, range| with_lane_width!(vw, L => isa::HEALTH.run_at(
                tier,
                #[inline(always)]
                || scanner.scan_range::<L>(range),
            )),
        )
    });
    results
        .into_iter()
        .try_fold(f64::NEG_INFINITY, |max, gang| gang.map(|r| max.max(r)))
}

/// State of the fused health scan, shared by the lane fast path and the
/// scalar fallback walk.
struct HealthScanner<'a, E> {
    eq: E,
    fluids: &'a FluidTable,
    slack: f64,
    src: &'a [f64],
    /// Where healthy cells' primitives go, if anywhere.
    out: Option<ParSlice<'a>>,
    /// The CFL rate to fold over healthy cells, if any.
    metric: Option<&'a RateMetric<'a>>,
    nx: usize,
    ny: usize,
    pad: [usize; 3],
    ext1: usize,
    ext2: usize,
    /// Ghost-inclusive cells per equation block.
    block: usize,
}

impl<E: EqLayout> HealthScanner<'_, E> {
    /// Walk a contiguous interior item range, lane packets first: the
    /// first violation, or the maximum rate of the range.
    #[inline(always)]
    fn scan_range<L: Lane>(&self, range: std::ops::Range<usize>) -> Result<f64, Violation> {
        let mut max = f64::NEG_INFINITY;
        let mut item = range.start;
        // The item's interior (x, y, z), walked row by row: one division
        // per range, none per packet.
        let (mut x, mut y, mut z) = (
            item % self.nx,
            (item / self.nx) % self.ny,
            item / (self.nx * self.ny),
        );
        while item < range.end {
            let at = [x + self.pad[0], y + self.pad[1], z + self.pad[2]];
            // Packets never cross an x row (loads are unit-stride in x).
            let avail = (range.end - item).min(self.nx - x);
            let packet = if L::WIDTH > 1 && avail >= L::WIDTH {
                self.packet_healthy::<L>(at)
            } else {
                None
            };
            let step = match packet {
                Some(rate) => {
                    for lane in 0..L::WIDTH {
                        max = max.max(rate.lane(lane));
                    }
                    L::WIDTH
                }
                None => {
                    max = max.max(self.scan_cell(at)?);
                    1
                }
            };
            item += step;
            x += step;
            if x == self.nx {
                x = 0;
                y += 1;
                if y == self.ny {
                    y = 0;
                    z += 1;
                }
            }
        }
        Ok(max)
    }

    /// The cell's primitives are healthy: store them if asked, and return
    /// their rate (`-inf` without a metric).
    #[inline(always)]
    fn accept<L: Lane>(&self, p: &[L], cell: usize, [i, j, k]: [usize; 3]) -> L {
        if let Some(out) = &self.out {
            for (e, v) in p.iter().enumerate() {
                out.set_lanes(cell + e * self.block, *v);
            }
        }
        match self.metric {
            Some(m) => m.rate(&self.eq, self.fluids, p, i, j, k),
            None => L::splat(f64::NEG_INFINITY),
        }
    }

    /// Check one full packet lane-wide; on an all-healthy verdict the
    /// packet is accepted and its rates returned. `None` means "at least
    /// one lane needs the ordered scalar walk" — it is always safe, never
    /// a verdict by itself.
    #[inline(always)]
    fn packet_healthy<L: Lane>(&self, [i, j, k]: [usize; 3]) -> Option<L> {
        let eq = &self.eq;
        let neq = eq.neq();
        let cell = i + self.ext1 * (j + self.ext2 * k);
        let (mut c, mut p) = (eq.vars::<L>(), eq.vars::<L>());
        let (c, p) = (&mut c.as_mut()[..neq], &mut p.as_mut()[..neq]);
        for (e, v) in c.iter_mut().enumerate() {
            *v = L::load(&self.src[cell + e * self.block..]);
        }
        let mut ok = L::splat(0.0).ge(L::splat(0.0)); // all-true
        for v in c.iter() {
            ok = L::mask_and(ok, v.finite());
        }
        let mut rho = L::splat(0.0);
        for f in 0..eq.nf() {
            rho = rho + c[eq.cont(f)];
        }
        ok = L::mask_and(ok, rho.gt(L::splat(0.0)));
        for a in 0..eq.n_adv() {
            let alpha = c[eq.adv(a)];
            ok = L::mask_and(ok, alpha.ge(L::splat(-self.slack)));
            ok = L::mask_and(ok, alpha.le(L::splat(1.0 + self.slack)));
        }
        if !L::mask_all(ok) {
            return None;
        }
        cons_to_prim(eq, self.fluids, c, p);
        let mix = self.fluids.mixture(eq, c);
        let pres = p[eq.energy()];
        let floor = pres * (L::splat(1.0) + mix.big_gamma) + mix.big_pi;
        // Healthy iff finite and NOT (floor <= 0) — the exact complement
        // of the scalar flag, so a NaN floor stays healthy on both paths.
        ok = L::mask_and(pres.finite(), L::mask_not(floor.le(L::splat(0.0))));
        if !L::mask_all(ok) {
            return None;
        }
        Some(self.accept(p, cell, [i, j, k]))
    }

    /// The scalar per-cell scan: flag the violation, or accept the cell
    /// and return its rate.
    fn scan_cell(&self, [i, j, k]: [usize; 3]) -> Result<f64, Violation> {
        let eq = &self.eq;
        let neq = eq.neq();
        let cell = i + self.ext1 * (j + self.ext2 * k);
        let (mut c, mut p) = (eq.vars::<f64>(), eq.vars::<f64>());
        let (c, p) = (&mut c.as_mut()[..neq], &mut p.as_mut()[..neq]);
        for (e, v) in c.iter_mut().enumerate() {
            *v = self.src[cell + e * self.block];
        }

        let violation = |kind, eq, value| {
            Err(Violation {
                kind,
                cell: [i, j, k],
                eq,
                value,
            })
        };
        for (e, &v) in c.iter().enumerate() {
            if !v.is_finite() {
                return violation(ViolationKind::NotFinite, e, v);
            }
        }
        // Unfloored mixture density: the EOS floors each partial density
        // at zero, so a positive unfloored sum guarantees a safe convert.
        let mut rho = 0.0;
        for f in 0..eq.nf() {
            rho += c[eq.cont(f)];
        }
        if rho <= 0.0 {
            return violation(ViolationKind::NonPositiveDensity, eq.cont(0), rho);
        }
        for a in 0..eq.n_adv() {
            let alpha = c[eq.adv(a)];
            if !(-self.slack..=1.0 + self.slack).contains(&alpha) {
                return violation(ViolationKind::AlphaOutOfRange, eq.adv(a), alpha);
            }
        }
        cons_to_prim(eq, self.fluids, c, p);
        // The stiffened-gas floor is a *mixture* quantity: the frozen
        // sound speed c^2 = (p (1 + Gamma) + Pi) / (Gamma rho) stays
        // real iff p (1 + Gamma) + Pi > 0. A global per-fluid bound
        // would flag admissible tension states in stiffened liquids.
        let mix = self.fluids.mixture(eq, c);
        let pres = p[eq.energy()];
        if !pres.is_finite() || pres * (1.0 + mix.big_gamma) + mix.big_pi <= 0.0 {
            return violation(ViolationKind::VacuumPressure, eq.energy(), pres);
        }
        Ok(self.accept(p, cell, [i, j, k]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::eqidx::EqIdx;
    use crate::state::prim_to_cons_field;

    fn setup() -> (Context, [Fluid; 2], Domain, StateField) {
        let ctx = Context::serial();
        let fluids = [Fluid::air(), Fluid::water()];
        let dom = Domain::new([6, 4, 1], 2, EqIdx::new(2, 2));
        let mut prim = StateField::zeros(dom);
        let eq = dom.eq;
        let d3 = dom.dims3();
        for k in 0..d3.n3 {
            for j in 0..d3.n2 {
                for i in 0..d3.n1 {
                    let a = 0.3 + 0.4 * (i as f64 / d3.n1 as f64);
                    prim.set(i, j, k, eq.cont(0), 1.2 * a);
                    prim.set(i, j, k, eq.cont(1), 1000.0 * (1.0 - a));
                    prim.set(i, j, k, eq.mom(0), 5.0);
                    prim.set(i, j, k, eq.mom(1), -2.0);
                    prim.set(i, j, k, eq.energy(), 1.0e5);
                    prim.set(i, j, k, eq.adv(0), a);
                }
            }
        }
        let mut cons = StateField::zeros(dom);
        prim_to_cons_field(&ctx, &fluids, &prim, &mut cons);
        (ctx, fluids, dom, cons)
    }

    #[test]
    fn healthy_field_passes_and_converts() {
        let (ctx, fluids, dom, cons) = setup();
        let mut prim = StateField::zeros(dom);
        let v = scan_and_convert(&ctx, &fluids, &HealthConfig::default(), &cons, &mut prim);
        assert!(v.is_none(), "unexpected violation {v:?}");
        // Interior primitives were written.
        let (i, j) = (dom.pad(0), dom.pad(1));
        assert!(prim.get(i, j, 0, dom.eq.energy()) > 0.0);
        let stats = ctx.ledger().kernel("s_health_scan").unwrap();
        assert_eq!(stats.items as usize, dom.interior_cells());
    }

    #[test]
    fn nan_reports_first_offending_cell() {
        let (ctx, fluids, dom, mut cons) = setup();
        let eq = dom.eq;
        // Plant NaN at two cells; the x-fastest-first one must be reported.
        cons.set(4, 3, 0, eq.energy(), f64::NAN);
        cons.set(3, 3, 0, eq.mom(0), f64::NAN);
        let mut prim = StateField::zeros(dom);
        let v = scan_and_convert(&ctx, &fluids, &HealthConfig::default(), &cons, &mut prim)
            .expect("violation");
        assert_eq!(v.kind, ViolationKind::NotFinite);
        assert_eq!(v.cell, [3, 3, 0]);
        assert_eq!(v.eq, eq.mom(0));
    }

    #[test]
    fn negative_density_and_vacuum_pressure_detected() {
        let (ctx, fluids, dom, cons) = setup();
        let eq = dom.eq;
        let mut prim = StateField::zeros(dom);

        let mut bad = cons.clone();
        bad.set(3, 2, 0, eq.cont(0), -2.0);
        bad.set(3, 2, 0, eq.cont(1), 1.0);
        let v = scan_and_convert(&ctx, &fluids, &HealthConfig::default(), &bad, &mut prim)
            .expect("violation");
        assert_eq!(v.kind, ViolationKind::NonPositiveDensity);

        let mut bad = cons.clone();
        // Drain the energy so the recovered pressure dives below -min_pi.
        bad.set(3, 2, 0, eq.energy(), -1.0e9);
        let v = scan_and_convert(&ctx, &fluids, &HealthConfig::default(), &bad, &mut prim)
            .expect("violation");
        assert_eq!(v.kind, ViolationKind::VacuumPressure);
        assert_eq!(v.eq, eq.energy());
    }

    #[test]
    fn alpha_slack_tolerates_small_overshoot_only() {
        let (ctx, fluids, dom, cons) = setup();
        let eq = dom.eq;
        let mut prim = StateField::zeros(dom);
        let h = HealthConfig::default();

        let mut ok = cons.clone();
        ok.set(2, 2, 0, eq.adv(0), 1.0 + h.alpha_slack / 2.0);
        assert!(scan_and_convert(&ctx, &fluids, &h, &ok, &mut prim).is_none());

        let mut bad = cons.clone();
        bad.set(2, 2, 0, eq.adv(0), 1.5);
        let v = scan_and_convert(&ctx, &fluids, &h, &bad, &mut prim).expect("violation");
        assert_eq!(v.kind, ViolationKind::AlphaOutOfRange);
        assert_eq!(v.value, 1.5);
    }

    /// A two-phase field of `8k + r` cells per row with varied healthy
    /// cells: `n` interior cells, 3 ghost layers.
    fn varied(n: [usize; 3]) -> (Vec<Fluid>, Domain, StateField) {
        let ctx = Context::serial();
        let fluids = vec![Fluid::air(), Fluid::water()];
        let dom = Domain::new(n, 3, EqIdx::new(2, 2));
        let eq = dom.eq;
        let mut prim = StateField::zeros(dom);
        let d3 = dom.dims3();
        for k in 0..d3.n3 {
            for j in 0..d3.n2 {
                for i in 0..d3.n1 {
                    let h = |s: usize| ((i * 7 + j * 31 + k * 13 + s) * 2654435761 % 1000) as f64;
                    let a = 0.05 + 0.9e-3 * h(0);
                    prim.set(i, j, k, eq.cont(0), 1.2 * a);
                    prim.set(i, j, k, eq.cont(1), 1000.0 * (1.0 - a));
                    prim.set(i, j, k, eq.mom(0), 0.4 * h(1) - 200.0);
                    prim.set(i, j, k, eq.mom(1), 0.2 * h(2) - 100.0);
                    prim.set(i, j, k, eq.energy(), 1.0e5 * (0.5 + 4e-3 * h(3)));
                    prim.set(i, j, k, eq.adv(0), a);
                }
            }
        }
        let mut cons = StateField::zeros(dom);
        prim_to_cons_field(&ctx, &fluids, &prim, &mut cons);
        (fluids, dom, cons)
    }

    /// The scan through every health entry this CPU runs, at lane widths
    /// 1, 4 and 8: the rate's bits, the first violation (kind, cell, eq
    /// and the value's bits) and the stored primitives equal the baseline
    /// entry's.
    fn entries_agree(fluids: &[Fluid], cons: &StateField, what: &str) {
        let dom = *cons.domain();
        let widths: Vec<Vec<f64>> = (0..3)
            .map(|d| (0..dom.ext(d)).map(|i| 0.01 + 1e-4 * i as f64).collect())
            .collect();
        let metric = RateMetric::new(fluids, [&widths[0], &widths[1], &widths[2]], None);
        let h = HealthConfig::default();
        let run = |tier, w| {
            let ctx = Context::serial().with_vector_width(w);
            let mut prim = StateField::zeros(dom);
            let r = scan_at(tier, &ctx, fluids, &h, cons, Some(&mut prim), Some(&metric));
            let r = r
                .map(f64::to_bits)
                .map_err(|v| (v.kind, v.cell, v.eq, v.value.to_bits()));
            let bits: Vec<u64> = prim.as_slice().iter().map(|v| v.to_bits()).collect();
            (r, bits)
        };
        for w in [1, 4, 8] {
            let (want, want_prim) = run(Tier::Baseline, w);
            for tier in isa::HEALTH.entries_or_skip() {
                let (got, got_prim) = run(tier, w);
                assert_eq!(got, want, "{what} W={w}: {} entry", tier.name());
                if want.is_ok() {
                    assert!(
                        got_prim == want_prim,
                        "{what} W={w}: {} primitives",
                        tier.name()
                    );
                }
            }
        }
    }

    #[test]
    fn healthy_scan_entries_match_bitwise() {
        let (fluids, _, cons) = varied([19, 5, 1]);
        entries_agree(&fluids, &cons, "healthy");
    }

    /// Flagged lanes inside full packets: the packet drops to the scalar
    /// walk, which must report the x-fastest first offender on every
    /// entry — here the later lane of the packet holds the first kind
    /// checked, and the row below holds an earlier cell's violation.
    #[test]
    fn flagged_scan_entries_match_bitwise() {
        let (fluids, dom, cons) = varied([19, 5, 1]);
        let eq = dom.eq;
        let mut bad = cons.clone();
        bad.set(9, 4, 0, eq.adv(0), 1.5);
        bad.set(12, 4, 0, eq.energy(), f64::NAN);
        bad.set(3, 5, 0, eq.cont(0), -2.0);
        bad.set(3, 5, 0, eq.cont(1), 1.0);
        entries_agree(&fluids, &bad, "alpha then NaN in one packet");
        let mut vacuum = cons.clone();
        vacuum.set(17, 6, 0, eq.energy(), -1.0e9);
        entries_agree(&fluids, &vacuum, "vacuum pressure");
    }

    #[test]
    fn ghost_cells_are_not_scanned() {
        let (ctx, fluids, dom, mut cons) = setup();
        // Corrupt a ghost cell (i = 0 is outside the interior pad of 2).
        cons.set(0, 0, 0, dom.eq.energy(), f64::NAN);
        let mut prim = StateField::zeros(dom);
        assert!(
            scan_and_convert(&ctx, &fluids, &HealthConfig::default(), &cons, &mut prim).is_none()
        );
    }
}
