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
//! function of the equation layout ([`riemann`]), because what its private
//! arrays cost in registers depends on the layout: AVX-512 on the 3-, 4-
//! and 6-equation layouts, AVX2 on the 7-equation one (where the AVX-512
//! copy lost) and on the run-time fallback (where it did not win every
//! round), and a layout that does not ship AVX-512 compiles no AVX-512 copy
//! of the stage. The gather, conversion and update stages have no entry
//! but their baseline code.

use std::sync::OnceLock;

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
/// The sweep's Riemann stage ([`crate::fused`]) for the equation layout
/// of `nf` fluids in `ndim` dimensions, `shape = Some((nf, ndim))` for a
/// [`crate::eqidx::ConstEq`] and `None` for the run-time
/// [`crate::eqidx::EqIdx`] fallback. A `const fn`, so each sweep
/// instance's tier is a constant of its layout.
pub const fn riemann(shape: Option<(usize, usize)>) -> Stage {
    let ships = match shape {
        Some((1, 1)) | Some((1, 2)) | Some((2, 2)) => Tier::Avx512,
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
/// layout as `(nf,ndim)`, e.g. `"weno avx512, riemann (1,1) avx512 (1,2)
/// avx512 (2,2) avx512 (2,3) avx2 other avx2, health avx512"`.
pub fn kernel_isa() -> String {
    let riemann: Vec<String> = LAYOUTS
        .iter()
        .map(|&shape| {
            let tier = riemann(shape).tier().name();
            match shape {
                Some((nf, ndim)) => format!("({nf},{ndim}) {tier}"),
                None => format!("other {tier}"),
            }
        })
        .collect();
    format!(
        "{} {}, riemann {}, {} {}",
        WENO.name,
        WENO.tier().name(),
        riemann.join(" "),
        HEALTH.name,
        HEALTH.tier().name()
    )
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
        for s in [WENO, HEALTH].into_iter().chain(LAYOUTS.map(riemann)) {
            let t = s.tier();
            assert!(t <= s.ships && t.supported(), "{s:?} runs {t:?}");
            assert_eq!(s.tiers().last(), Some(t));
            assert_eq!(s.run_at(t, || 7), 7);
        }
    }

    #[test]
    fn kernel_isa_names_the_riemann_tier_of_every_layout() {
        let isa = kernel_isa();
        for (shape, want) in [
            ("(1,1)", riemann(Some((1, 1)))),
            ("(1,2)", riemann(Some((1, 2)))),
            ("(2,2)", riemann(Some((2, 2)))),
            ("(2,3)", riemann(Some((2, 3)))),
            ("other", riemann(None)),
        ] {
            let named = format!("{shape} {}", want.tier().name());
            assert!(isa.contains(&named), "{isa:?} lacks {named:?}");
        }
        assert_eq!(riemann(Some((2, 3))).ships, Tier::Avx2);
        assert_eq!(riemann(Some((1, 1))).ships, Tier::Avx512);
    }
}
