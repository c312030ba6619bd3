//! The instruction-set tier each dispatched per-cell pass runs.
//!
//! A pass is written once, as an `#[inline(always)]` body, and handed to
//! its [`Stage`] as an `#[inline(always)]` closure: [`Stage::run_at`]
//! compiles that closure once per tier the stage ships — the build's
//! baseline target and, on x86-64, an AVX2 and an AVX-512
//! (`avx512f,avx512dq,avx512vl,avx2`) copy, never with `mul_add` — and
//! calls the copy of the tier it is given: [`Stage::tier`], the widest the
//! stage ships that the running CPU supports, everywhere but in the
//! entry-equivalence tests and benchmarks. The CPU's tier is detected once
//! per process with `is_x86_feature_detected!`; no flag, case key,
//! environment variable or cargo feature sets it. Rust never contracts a
//! multiply-add and packing lanes cannot change an IEEE result, so every
//! entry of a stage is bitwise identical.
//!
//! A stage ships a tier only where that tier beat the next-lower one in
//! every interleaved run on a workload of its shape (EXPERIMENTS.md, "A
//! third ISA tier" and "Riemann's tier per layout"; the table is DESIGN.md's
//! vector row). The WENO line kernel and the health/CFL tail pass run up
//! to AVX-512 on every layout. The Riemann stage's tier is a compile-time
//! function of the solver and the equation layout ([`riemann`]), because
//! what a solver's private arrays cost in registers depends on both: HLLC,
//! which builds one side's flux and conservative vector per face, runs
//! AVX-512 on every layout; HLL and Rusanov, which keep both sides', run
//! AVX-512 on the 3- and 4-equation layouts and AVX2 on the two-fluid 6-
//! and 7-equation ones, where their AVX-512 copies lost, and on the
//! run-time fallback. A solver that does not ship AVX-512 on a layout
//! compiles no AVX-512 copy of its stage there. The sweep's gather (up to AVX2) and its y/z update (up to
//! AVX-512) move their strided pencils as 8×8 tiles through the transpose
//! of the entry's tier ([`with_transpose`]). The conversion and the x
//! update have no entry but their baseline code.

use std::sync::OnceLock;

use crate::riemann::RiemannSolver;

/// An instruction-set tier, narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// The build's baseline target (SSE2 on x86-64).
    Baseline,
    /// AVX2, without FMA.
    Avx2,
    /// AVX-512 (F, DQ, VL) on top of AVX2, without FMA.
    Avx512,
}

impl Tier {
    /// Every tier, narrowest first.
    const ALL: [Tier; 3] = [Tier::Baseline, Tier::Avx2, Tier::Avx512];

    pub fn name(self) -> &'static str {
        match self {
            Tier::Baseline => "baseline",
            Tier::Avx2 => "avx2",
            Tier::Avx512 => "avx512",
        }
    }

    /// Whether the running CPU can execute this tier's entries.
    fn supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            match self {
                Tier::Baseline => true,
                Tier::Avx2 => has!("avx2"),
                Tier::Avx512 => {
                    has!("avx512f") && has!("avx512dq") && has!("avx512vl") && has!("avx2")
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == Tier::Baseline
        }
    }

    /// The widest tier the running CPU supports (each tier's features
    /// include the narrower tiers'), detected on first use.
    fn detected() -> Tier {
        static DETECTED: OnceLock<Tier> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            *Tier::ALL
                .iter()
                .rev()
                .find(|t| t.supported())
                .unwrap_or(&Tier::Baseline)
        })
    }
}

/// A dispatched per-cell pass: its name and the widest tier it ships.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stage {
    pub name: &'static str,
    pub ships: Tier,
}

/// The WENO line kernel ([`crate::weno::reconstruct_line_padded`]).
pub const WENO: Stage = Stage {
    name: "weno",
    ships: Tier::Avx512,
};
/// The sweep's Riemann stage ([`crate::fused`]) for `solver` on the
/// equation layout of `nf` fluids in `ndim` dimensions, `shape =
/// Some((nf, ndim))` for a [`crate::eqidx::ConstEq`] and `None` for the
/// run-time [`crate::eqidx::EqIdx`] fallback. A `const fn`, so each sweep
/// instance's tier per solver is a constant of its layout.
///
/// HLLC builds one side's flux and conservative vector per face and ships
/// AVX-512 on every layout. HLL and Rusanov keep both sides' vectors: they
/// ship AVX-512 on (1,1) and (1,2), and AVX2 on the two-fluid (2,2) and
/// (2,3), where their AVX-512 copies ran 40–100 % slower, and on the
/// fallback, where theirs did not beat the parent's AVX2 copy.
pub const fn riemann(solver: RiemannSolver, shape: Option<(usize, usize)>) -> Stage {
    let ships = match (solver, shape) {
        (RiemannSolver::Hllc, _) | (_, Some((1, 1)) | Some((1, 2))) => Tier::Avx512,
        _ => Tier::Avx2,
    };
    Stage {
        name: "riemann",
        ships,
    }
}
/// The post-step health scan with its folded CFL rate ([`crate::health`]).
pub const HEALTH: Stage = Stage {
    name: "health",
    ships: Tier::Avx512,
};
/// The sweep's gather ([`crate::fused`]), whose y and z pencils move
/// through 8×8 tile transposes ([`with_transpose`]). Its AVX-512 copy won
/// 1 and 2 of 5 rounds against AVX2 on `grind3d`'s z and y sweeps, so it
/// ships AVX2.
pub const GATHER: Stage = Stage {
    name: "gather",
    ships: Tier::Avx2,
};
/// The sweep's flux-divergence update ([`crate::fused`]), whose y and z
/// pencils move through 8×8 tile transposes ([`with_transpose`]).
pub const UPDATE: Stage = Stage {
    name: "update",
    ships: Tier::Avx512,
};

/// The layouts the sweep is instantiated for: the [`crate::eqidx::ConstEq`]
/// shapes `with_eq_layout!` dispatches, then the run-time fallback.
pub const LAYOUTS: [Option<(usize, usize)>; 5] =
    [Some((1, 1)), Some((1, 2)), Some((2, 2)), Some((2, 3)), None];

impl Stage {
    /// The entry this stage runs in this process.
    pub fn tier(self) -> Tier {
        self.ships.min(Tier::detected())
    }

    /// Every entry of this stage the running CPU can execute, narrowest
    /// first — what an entry-equivalence test compares.
    pub fn tiers(self) -> impl Iterator<Item = Tier> {
        Tier::ALL.into_iter().filter(move |&t| t <= self.tier())
    }

    /// Run `body` in this stage's `tier` entry. Only the tiers the stage
    /// ships are compiled: `self.ships` is a constant wherever a stage
    /// constant is inlined, so the wider arms fold away.
    ///
    /// # Panics
    /// If the stage does not ship `tier` or the CPU cannot run it.
    #[inline(always)]
    pub(crate) fn run_at<R>(self, tier: Tier, body: impl FnOnce() -> R) -> R {
        assert!(
            tier <= self.ships && tier <= Tier::detected(),
            "{} has no {} entry on this CPU",
            self.name,
            tier.name()
        );
        #[cfg(target_arch = "x86_64")]
        {
            if self.ships >= Tier::Avx512 && tier == Tier::Avx512 {
                // SAFETY: the CPU supports every tier up to the detected
                // one (asserted above), and so every feature the AVX-512
                // entry enables.
                return unsafe { avx512(body) };
            }
            if self.ships >= Tier::Avx2 && tier == Tier::Avx2 {
                // SAFETY: as above, for AVX2.
                return unsafe { avx2(body) };
            }
        }
        body()
    }
}

/// `with_transpose!(stage, tier, t => body)`: run `body` in `stage`'s
/// `tier` entry with `t` bound to that tier's [`mfc_acc::Transpose8`] —
/// the AVX-512 or AVX2 token, or the plain permutation on the baseline
/// tier. Each arm compiles `body` once, for its tier only.
///
/// # Panics
/// As [`Stage::run_at`].
macro_rules! with_transpose {
    ($stage:expr, $tier:expr, $t:ident => $body:expr) => {{
        let stage: $crate::isa::Stage = $stage;
        match $tier {
            #[cfg(target_arch = "x86_64")]
            $crate::isa::Tier::Avx512 => {
                let $t = mfc_acc::transpose::Avx512::new().expect("an AVX-512 CPU");
                stage.run_at(
                    $crate::isa::Tier::Avx512,
                    #[inline(always)]
                    || $body,
                )
            }
            #[cfg(target_arch = "x86_64")]
            $crate::isa::Tier::Avx2 => {
                let $t = mfc_acc::transpose::Avx2::new().expect("an AVX2 CPU");
                stage.run_at(
                    $crate::isa::Tier::Avx2,
                    #[inline(always)]
                    || $body,
                )
            }
            tier => {
                let $t = mfc_acc::Plain;
                stage.run_at(
                    tier,
                    #[inline(always)]
                    || $body,
                )
            }
        }
    }};
}
pub(crate) use with_transpose;

/// `body` compiled with AVX2 (and never FMA) enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// `body` compiled with AVX-512 F/DQ/VL and AVX2 enabled (never FMA:
/// Rust emits no contracted multiply-add, so none is formed).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,avx2")]
fn avx512<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// The tier each dispatched stage runs in this process, Riemann's per
/// solver and layout as `(nf,ndim)`, e.g. `"weno avx512, riemann hllc
/// (1,1) avx512 (1,2) avx512 (2,2) avx512 (2,3) avx512 other avx512,
/// riemann hll (1,1) avx512 (1,2) avx512 (2,2) avx2 (2,3) avx2 other avx2,
/// riemann rusanov …, health avx512, gather avx2, update avx512"`.
pub fn kernel_isa() -> String {
    let named = |s: Stage| format!("{} {}", s.name, s.tier().name());
    let mut out = vec![named(WENO)];
    for solver in RiemannSolver::ALL {
        let tiers: Vec<String> = LAYOUTS
            .iter()
            .map(|&shape| {
                let tier = riemann(solver, shape).tier().name();
                match shape {
                    Some((nf, ndim)) => format!("({nf},{ndim}) {tier}"),
                    None => format!("other {tier}"),
                }
            })
            .collect();
        out.push(format!("riemann {} {}", solver.name(), tiers.join(" ")));
    }
    out.extend([HEALTH, GATHER, UPDATE].map(named));
    out.join(", ")
}

#[cfg(test)]
impl Stage {
    /// [`Stage::tiers`] for an entry-equivalence test, which says which
    /// shipped tiers it skips because this CPU cannot run them.
    pub(crate) fn entries_or_skip(self) -> Vec<Tier> {
        for t in Tier::ALL {
            if t <= self.ships && !t.supported() {
                eprintln!(
                    "{}: skipped the {} entry: this CPU cannot run it",
                    self.name,
                    t.name()
                );
            }
        }
        self.tiers().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_stage_runs_a_tier_it_ships_and_the_cpu_supports() {
        let riemanns = RiemannSolver::ALL
            .into_iter()
            .flat_map(|solver| LAYOUTS.map(|shape| riemann(solver, shape)));
        for s in [WENO, HEALTH, GATHER, UPDATE].into_iter().chain(riemanns) {
            let t = s.tier();
            assert!(t <= s.ships && t.supported(), "{s:?} runs {t:?}");
            assert_eq!(s.tiers().last(), Some(t));
            assert_eq!(s.run_at(t, || 7), 7);
        }
    }

    #[test]
    fn kernel_isa_names_the_riemann_tier_of_every_layout() {
        use RiemannSolver::{Hll, Hllc, Rusanov};
        use Tier::{Avx2, Avx512};
        let isa = kernel_isa();
        // The shipped table, per solver in `LAYOUTS` order: (1,1), (1,2),
        // (2,2), (2,3), the fallback.
        for (solver, ships) in [
            (Hllc, [Avx512, Avx512, Avx512, Avx512, Avx512]),
            (Hll, [Avx512, Avx512, Avx2, Avx2, Avx2]),
            (Rusanov, [Avx512, Avx512, Avx2, Avx2, Avx2]),
        ] {
            let named: Vec<String> = LAYOUTS
                .iter()
                .zip(ships)
                .map(|(&shape, want)| {
                    let stage = riemann(solver, shape);
                    assert_eq!(stage.ships, want, "{solver:?} {shape:?}");
                    let tier = stage.tier().name();
                    match shape {
                        Some((nf, ndim)) => format!("({nf},{ndim}) {tier}"),
                        None => format!("other {tier}"),
                    }
                })
                .collect();
            let named = format!("riemann {} {}", solver.name(), named.join(" "));
            assert!(isa.contains(&named), "{isa:?} lacks {named:?}");
        }
        for s in [WENO, HEALTH, GATHER, UPDATE] {
            let named = format!("{} {}", s.name, s.tier().name());
            assert!(isa.contains(&named), "{isa:?} lacks {named:?}");
        }
    }
}
