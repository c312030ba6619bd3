//! Fixed-width vector lanes — the `vector` half of the paper's
//! `parallel loop gang vector`.
//!
//! PR 6 reproduced the *gang* half of the directive (worker threads over
//! [`crate::exec::Context::gang_blocks`]); this module supplies the lane
//! half. A [`VecF64<W>`] is a packet of `W` IEEE-754 doubles whose every
//! operation is purely elementwise: lane `i` of `a op b` is exactly
//! `a.lane(i) op b.lane(i)`, evaluated by the scalar `f64` operator. No
//! fused multiply-add, no reassociation, no approximation — so a kernel
//! written once against the [`Lane`] trait performs, per lane, *exactly*
//! the scalar op sequence, and the result at width 8 is bitwise
//! identical to `vector_width = 1` by construction.
//!
//! Control flow inside lane kernels is expressed with bitmask selects
//! ([`Lane::select`] picks the bits of one of two fully computed values),
//! mirroring how SIMT warps and SIMD units execute both sides of a branch
//! under a mask. Because the selected value is produced by the unchanged
//! scalar expression and IEEE arithmetic never traps, computing the
//! discarded side is observationally free. Horizontal reductions (CFL
//! max, first-violation scans, conservation sums) must extract lanes with
//! [`Lane::lane`] and fold them in ascending lane order — lane `i` of a
//! packet starting at item `s` is item `s + i`, so the serial fold order
//! is reproduced exactly.
//!
//! There are two widths: [`DEFAULT_WIDTH`] 8, the production width (two
//! AVX2 registers per packet, which hides the latency of the Riemann
//! stage's divisions and square roots behind independent work), and 1, the
//! scalar reference the tests compare against. Every lane body is compiled
//! once per width, so a width nobody runs would only cost text and build
//! time.

use std::ops::{Add, Div, Mul, Neg, Sub};

use crate::shared::AddView;

/// Default lane width (`--vector-width 8`).
pub const DEFAULT_WIDTH: usize = 8;

/// Validate a requested lane width: 1 (the scalar reference) or
/// [`DEFAULT_WIDTH`], the two widths [`with_lane_width!`] compiles.
pub fn validate_width(w: usize) -> Result<(), String> {
    if w == 1 || w == DEFAULT_WIDTH {
        Ok(())
    } else {
        Err(format!("vector_width must be 1 or 8, got {w}"))
    }
}

/// Largest admissible worker (gang) count per context. Every launch fans
/// out to this many threads, so the bound is a resource limit of the
/// process, not a tuning setting.
pub const MAX_WORKERS: usize = 256;

/// A packet of lanes of `f64`, all ops elementwise and bit-exact.
///
/// Implemented by `f64` itself (width 1 — the scalar build) and by
/// [`VecF64<W>`]. Every method is required to act per-lane with the exact
/// scalar `f64` semantics; nothing may reassociate, contract, or
/// approximate. That contract is what makes lane execution bitwise
/// deterministic across widths.
pub trait Lane:
    Copy
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
{
    /// Number of lanes in the packet.
    const WIDTH: usize;

    /// All-lanes condition mask (one full-width bitmask word per lane:
    /// all-ones = true, all-zeros = false — the sign-mask idiom).
    type Mask: Copy;

    /// Broadcast a scalar to every lane.
    fn splat(x: f64) -> Self;

    /// Unit-stride load of `WIDTH` lanes from `src[0..WIDTH]`.
    ///
    /// Panics unless the slice holds a full packet — one bounds check per
    /// packet, the guard that catches a kernel body indexing past its lane
    /// packet (tail-handling bugs) — and then copies the packet whole.
    fn load(src: &[f64]) -> Self;

    /// Unit-stride store of `WIDTH` lanes into `dst[0..WIDTH]`, with the
    /// same single full-packet bounds check as [`Lane::load`].
    fn store(self, dst: &mut [f64]);

    /// Build a packet lane-by-lane (`f(0), f(1), ..`) — for non-contiguous
    /// sources such as atomic shared views.
    fn from_lanes(f: impl FnMut(usize) -> f64) -> Self;

    /// Extract lane `i` (`i < WIDTH`). Horizontal folds must consume lanes
    /// in ascending order to reproduce the serial fold.
    fn lane(self, i: usize) -> f64;

    /// Elementwise `f64::sqrt`.
    fn sqrt(self) -> Self;
    /// Elementwise `f64::abs`.
    fn abs(self) -> Self;
    /// Elementwise `f64::min` (NaN-ignoring, like the scalar kernels).
    fn min(self, o: Self) -> Self;
    /// Elementwise `f64::max`.
    fn max(self, o: Self) -> Self;
    /// Elementwise `f64::clamp` against scalar bounds.
    fn clamp(self, lo: f64, hi: f64) -> Self;

    /// Elementwise `<` mask. Like the scalar comparison, any NaN operand
    /// compares false.
    fn lt(self, o: Self) -> Self::Mask;
    /// Elementwise `<=` mask.
    fn le(self, o: Self) -> Self::Mask;
    /// Elementwise `>` mask.
    fn gt(self, o: Self) -> Self::Mask;
    /// Elementwise `>=` mask.
    fn ge(self, o: Self) -> Self::Mask;
    /// Elementwise `f64::is_finite` mask.
    fn finite(self) -> Self::Mask;

    /// Per-lane bit select: lane `i` takes the exact bits of `a.lane(i)`
    /// where the mask is set, else of `b.lane(i)` — branchless, and
    /// bit-exact including NaN payloads and signed zeros.
    fn select(m: Self::Mask, a: Self, b: Self) -> Self;

    /// Lanewise mask AND.
    fn mask_and(a: Self::Mask, b: Self::Mask) -> Self::Mask;
    /// Lanewise mask OR.
    fn mask_or(a: Self::Mask, b: Self::Mask) -> Self::Mask;
    /// Lanewise mask NOT.
    fn mask_not(m: Self::Mask) -> Self::Mask;
    /// True if the mask is set in any lane.
    fn mask_any(m: Self::Mask) -> bool;
    /// True if the mask is set in every lane.
    fn mask_all(m: Self::Mask) -> bool;
}

const TRUE_BITS: u64 = !0u64;

#[inline(always)]
fn mask_bits(b: bool) -> u64 {
    if b {
        TRUE_BITS
    } else {
        0
    }
}

#[inline(always)]
fn bit_select(m: u64, a: f64, b: f64) -> f64 {
    f64::from_bits((a.to_bits() & m) | (b.to_bits() & !m))
}

impl Lane for f64 {
    const WIDTH: usize = 1;
    type Mask = u64;

    #[inline(always)]
    fn splat(x: f64) -> Self {
        x
    }
    #[inline(always)]
    fn load(src: &[f64]) -> Self {
        src[0]
    }
    #[inline(always)]
    fn store(self, dst: &mut [f64]) {
        dst[0] = self;
    }
    #[inline(always)]
    fn from_lanes(mut f: impl FnMut(usize) -> f64) -> Self {
        f(0)
    }
    #[inline(always)]
    fn lane(self, i: usize) -> f64 {
        debug_assert_eq!(i, 0, "lane index past the packet");
        self
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn min(self, o: Self) -> Self {
        f64::min(self, o)
    }
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        f64::max(self, o)
    }
    #[inline(always)]
    fn clamp(self, lo: f64, hi: f64) -> Self {
        f64::clamp(self, lo, hi)
    }
    #[inline(always)]
    fn lt(self, o: Self) -> u64 {
        mask_bits(self < o)
    }
    #[inline(always)]
    fn le(self, o: Self) -> u64 {
        mask_bits(self <= o)
    }
    #[inline(always)]
    fn gt(self, o: Self) -> u64 {
        mask_bits(self > o)
    }
    #[inline(always)]
    fn ge(self, o: Self) -> u64 {
        mask_bits(self >= o)
    }
    #[inline(always)]
    fn finite(self) -> u64 {
        mask_bits(self.is_finite())
    }
    #[inline(always)]
    fn select(m: u64, a: Self, b: Self) -> Self {
        bit_select(m, a, b)
    }
    #[inline(always)]
    fn mask_and(a: u64, b: u64) -> u64 {
        a & b
    }
    #[inline(always)]
    fn mask_or(a: u64, b: u64) -> u64 {
        a | b
    }
    #[inline(always)]
    fn mask_not(m: u64) -> u64 {
        !m
    }
    #[inline(always)]
    fn mask_any(m: u64) -> bool {
        m != 0
    }
    #[inline(always)]
    fn mask_all(m: u64) -> bool {
        m == TRUE_BITS
    }
}

/// A `W`-lane packet of `f64` (the kernels run `W` = [`DEFAULT_WIDTH`]).
///
/// Plain `[f64; W]` under the hood: the element loops are fixed-length
/// and unit-stride, exactly the shape LLVM's auto-vectorizer turns into
/// packed SIMD on any target — while the semantics stay scalar-exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VecF64<const W: usize>(pub [f64; W]);

macro_rules! elementwise {
    ($trait:ident, $method:ident, $op:tt) => {
        impl<const W: usize> $trait for VecF64<W> {
            type Output = Self;
            #[inline(always)]
            fn $method(self, o: Self) -> Self {
                VecF64(std::array::from_fn(|i| self.0[i] $op o.0[i]))
            }
        }
    };
}

elementwise!(Add, add, +);
elementwise!(Sub, sub, -);
elementwise!(Mul, mul, *);
elementwise!(Div, div, /);

impl<const W: usize> Neg for VecF64<W> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        VecF64(std::array::from_fn(|i| -self.0[i]))
    }
}

impl<const W: usize> Lane for VecF64<W> {
    const WIDTH: usize = W;
    type Mask = [u64; W];

    #[inline(always)]
    fn splat(x: f64) -> Self {
        VecF64([x; W])
    }
    #[inline(always)]
    fn load(src: &[f64]) -> Self {
        VecF64(*src.first_chunk().expect("lane load past the packet"))
    }
    #[inline(always)]
    fn store(self, dst: &mut [f64]) {
        *dst.first_chunk_mut().expect("lane store past the packet") = self.0;
    }
    #[inline(always)]
    fn from_lanes(mut f: impl FnMut(usize) -> f64) -> Self {
        VecF64(std::array::from_fn(&mut f))
    }
    #[inline(always)]
    fn lane(self, i: usize) -> f64 {
        debug_assert!(i < W, "lane index past the packet");
        self.0[i]
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        VecF64(std::array::from_fn(|i| self.0[i].sqrt()))
    }
    #[inline(always)]
    fn abs(self) -> Self {
        VecF64(std::array::from_fn(|i| self.0[i].abs()))
    }
    #[inline(always)]
    fn min(self, o: Self) -> Self {
        VecF64(std::array::from_fn(|i| self.0[i].min(o.0[i])))
    }
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        VecF64(std::array::from_fn(|i| self.0[i].max(o.0[i])))
    }
    #[inline(always)]
    fn clamp(self, lo: f64, hi: f64) -> Self {
        VecF64(std::array::from_fn(|i| self.0[i].clamp(lo, hi)))
    }
    #[inline(always)]
    fn lt(self, o: Self) -> [u64; W] {
        std::array::from_fn(|i| mask_bits(self.0[i] < o.0[i]))
    }
    #[inline(always)]
    fn le(self, o: Self) -> [u64; W] {
        std::array::from_fn(|i| mask_bits(self.0[i] <= o.0[i]))
    }
    #[inline(always)]
    fn gt(self, o: Self) -> [u64; W] {
        std::array::from_fn(|i| mask_bits(self.0[i] > o.0[i]))
    }
    #[inline(always)]
    fn ge(self, o: Self) -> [u64; W] {
        std::array::from_fn(|i| mask_bits(self.0[i] >= o.0[i]))
    }
    #[inline(always)]
    fn finite(self) -> [u64; W] {
        std::array::from_fn(|i| mask_bits(self.0[i].is_finite()))
    }
    #[inline(always)]
    fn select(m: [u64; W], a: Self, b: Self) -> Self {
        VecF64(std::array::from_fn(|i| bit_select(m[i], a.0[i], b.0[i])))
    }
    #[inline(always)]
    fn mask_and(a: [u64; W], b: [u64; W]) -> [u64; W] {
        std::array::from_fn(|i| a[i] & b[i])
    }
    #[inline(always)]
    fn mask_or(a: [u64; W], b: [u64; W]) -> [u64; W] {
        std::array::from_fn(|i| a[i] | b[i])
    }
    #[inline(always)]
    fn mask_not(m: [u64; W]) -> [u64; W] {
        std::array::from_fn(|i| !m[i])
    }
    #[inline(always)]
    fn mask_any(m: [u64; W]) -> bool {
        m.iter().any(|&b| b != 0)
    }
    #[inline(always)]
    fn mask_all(m: [u64; W]) -> bool {
        m.iter().all(|&b| b == TRUE_BITS)
    }
}

/// A kernel body executable at either lane width over a `rows × row_len`
/// iteration space (see [`crate::exec::Context::launch_vec`]).
///
/// `packet(row, col)` must process items `(row, col .. col + L::WIDTH)` —
/// the runtime guarantees the packet never crosses a row boundary, so
/// unit-stride lane loads relative to `col` are always in-bounds within
/// the row's data. The trait has a generic method (object safety is not
/// needed) so one body monomorphizes to the packet width plus the scalar
/// tail.
pub trait LaneKernel: Sync {
    fn packet<L: Lane>(&self, row: usize, col: usize);
}

/// Like [`LaneKernel`] but returning a packet for a horizontal max
/// reduction (see [`crate::exec::Context::launch_max_vec`]).
pub trait LaneMaxKernel: Sync {
    fn packet<L: Lane>(&self, row: usize, col: usize) -> L;
}

/// A gang-scope body executable at either lane width (see
/// [`crate::exec::Context::gang_vec_scope`] and
/// [`crate::exec::Context::gang_vec_units`]): `run` receives the gang id,
/// its contiguous unit range, exclusive scratch and its views of the
/// launch's `N` output buffers, and handles its own packet/tail tiling.
/// `run` is instantiated once per view type — the plain buffers of a
/// one-gang launch and the shared views of a forked one
/// ([`crate::shared::AddView`]) — and the launch picks the instance, never
/// the element.
pub trait LaneGangBody<S: ?Sized, R, const N: usize = 0>: Sync {
    fn run<L: Lane, O: AddView>(
        &self,
        gang: usize,
        range: std::ops::Range<usize>,
        state: &mut S,
        out: &mut [O; N],
    ) -> R;
}

/// Dispatch a runtime lane width to a monomorphized instantiation:
/// `with_lane_width!(w, L => expr)` evaluates `expr` with `L` bound to
/// `f64` (w = 1) or `VecF64<8>` (w = 8). The width must already be
/// validated.
#[macro_export]
macro_rules! with_lane_width {
    ($w:expr, $L:ident => $body:expr) => {
        match $w {
            1 => {
                type $L = f64;
                $body
            }
            8 => {
                type $L = $crate::vector::VecF64<8>;
                $body
            }
            other => unreachable!("unvalidated vector width {other}"),
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_validation() {
        for w in [1, 8] {
            assert!(validate_width(w).is_ok(), "width {w}");
        }
        for w in [0, 2, 3, 4, 5, 6, 7, 12, 16] {
            let e = validate_width(w).unwrap_err();
            assert!(e.contains("1 or 8"), "width {w}: {e}");
        }
    }

    fn probe_values() -> Vec<f64> {
        vec![
            1.5,
            -2.25,
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e-300,
            -1e300,
            std::f64::consts::PI,
        ]
    }

    /// Every VecF64 op must equal the scalar op lane-by-lane, bitwise.
    #[test]
    fn ops_are_bitwise_lanewise_scalar() {
        let vals = probe_values();
        const W: usize = 8;
        for (ai, a0) in vals.iter().enumerate() {
            for &b0 in &vals {
                let a = VecF64::<W>::from_lanes(|i| a0 + i as f64 * 0.5);
                let b = VecF64::<W>::splat(b0);
                let pairs: [(f64, f64, &str); 7] = [
                    ((a + b).lane(1), a.lane(1) + b0, "add"),
                    ((a - b).lane(1), a.lane(1) - b0, "sub"),
                    ((a * b).lane(1), a.lane(1) * b0, "mul"),
                    ((a / b).lane(1), a.lane(1) / b0, "div"),
                    (a.min(b).lane(2), a.lane(2).min(b0), "min"),
                    (a.max(b).lane(2), a.lane(2).max(b0), "max"),
                    ((-a).lane(3), -a.lane(3), "neg"),
                ];
                for (got, want, op) in pairs {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{op} lane mismatch at val {ai}"
                    );
                }
                assert_eq!(a.sqrt().lane(0).to_bits(), a.lane(0).sqrt().to_bits());
                assert_eq!(a.abs().lane(0).to_bits(), a.lane(0).abs().to_bits());
                assert_eq!(
                    a.clamp(-1.0, 1.0).lane(1).to_bits(),
                    a.lane(1).clamp(-1.0, 1.0).to_bits()
                );
            }
        }
    }

    #[test]
    fn comparisons_match_scalar_incl_nan() {
        let vals = probe_values();
        for &x in &vals {
            for &y in &vals {
                let a = VecF64::<8>::splat(x);
                let b = VecF64::<8>::splat(y);
                assert_eq!(VecF64::<8>::mask_any(a.lt(b)), x < y);
                assert_eq!(VecF64::<8>::mask_any(a.le(b)), x <= y);
                assert_eq!(VecF64::<8>::mask_any(a.gt(b)), x > y);
                assert_eq!(VecF64::<8>::mask_any(a.ge(b)), x >= y);
                assert_eq!(VecF64::<8>::mask_all(a.finite()), x.is_finite());
            }
        }
    }

    /// Select is bit-exact: NaN payloads and signed zeros survive.
    #[test]
    fn select_preserves_exact_bits() {
        let exotic = f64::from_bits(0x7ff8_dead_beef_0001); // NaN payload
        let a = VecF64::<8>::from_lanes(|i| if i % 2 == 0 { exotic } else { -0.0 });
        let b = VecF64::<8>::splat(7.0);
        let m = a.lt(b); // NaN < 7.0 is false; -0.0 < 7.0 is true
        let s = VecF64::<8>::select(m, a, b);
        assert_eq!(s.lane(0).to_bits(), 7.0f64.to_bits());
        assert_eq!(s.lane(1).to_bits(), (-0.0f64).to_bits());
        let n = VecF64::<8>::select(VecF64::<8>::mask_not(m), a, b);
        assert_eq!(n.lane(0).to_bits(), exotic.to_bits());
    }

    #[test]
    fn load_store_round_trip_and_lane_order() {
        let src: Vec<f64> = (0..12).map(|i| i as f64 * 1.25 - 3.0).collect();
        let v = VecF64::<8>::load(&src[2..]);
        for i in 0..8 {
            assert_eq!(v.lane(i), src[2 + i]);
        }
        let mut dst = [0.0; 8];
        v.store(&mut dst);
        assert_eq!(&dst, &src[2..10]);
        // Scalar f64 as a 1-wide lane.
        let s = f64::load(&src[5..]);
        assert_eq!(s, src[5]);
    }

    #[test]
    fn mask_logic() {
        type V = VecF64<8>;
        type M = <V as Lane>::Mask;
        let t: M = [TRUE_BITS; 8];
        let f: M = [0; 8];
        let mixed: M = std::array::from_fn(|i| if i % 2 == 0 { TRUE_BITS } else { 0 });
        assert!(V::mask_all(t) && !V::mask_all(mixed));
        assert!(V::mask_any(mixed) && !V::mask_any(f));
        assert_eq!(V::mask_and(mixed, t), mixed);
        assert_eq!(V::mask_or(mixed, f), mixed);
        assert_eq!(V::mask_not(f), t);
    }

    #[test]
    fn dispatch_macro_covers_all_widths() {
        for w in [1usize, 8] {
            let width = with_lane_width!(w, L => L::WIDTH);
            assert_eq!(width, w);
        }
    }
}
