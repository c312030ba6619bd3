//! 8×8 tile transposes — the register half of the paper's coalescing pack.
//!
//! A sweep along a strided axis reads (and writes back) a pencil of eight
//! lines that are consecutive in canonical x: each step along the sweep is
//! one 64-byte row holding one value of every line. Turning eight such rows
//! into eight line segments is an 8×8 transpose. [`Transpose8`] is that one
//! primitive, with three implementations of the same index permutation:
//!
//! * [`Plain`] — the permutation as a scalar copy, on every target;
//! * [`Avx2`] — four 4×4 blocks, each four unpacks and four lane-pair
//!   permutes (32 shuffles);
//! * [`Avx512`] — three rounds of eight shuffles on whole rows: unpack,
//!   `vpermt2pd` across 128-bit pairs, `vshuff64x2` across halves (24).
//!
//! A transpose only moves bits, so every implementation gives identical
//! results. The vector ones are tokens: constructed only where the running
//! CPU has their features, so holding one is what makes their intrinsics
//! sound to call. Their `transpose8` is `#[inline(always)]` without a
//! `#[target_feature]` of its own; inlined into code compiled for the
//! feature, the intrinsics become single instructions. Every
//! implementation asserts the slice bounds first; `unsafe` stays in this
//! module.

/// One 8×8 transpose: `dst[c * ds + r] = src[r * ss + c]` for `r, c < 8`,
/// between rows that do not overlap (strides of at least 8).
pub trait Transpose8: Copy {
    /// # Panics
    /// If a stride is below 8, `src` holds fewer than `7 * ss + 8` values or
    /// `dst` fewer than `7 * ds + 8`.
    fn transpose8(self, src: &[f64], ss: usize, dst: &mut [f64], ds: usize);
}

#[inline(always)]
fn check(src: &[f64], ss: usize, dst: &[f64], ds: usize) {
    assert!(
        ss >= 8 && ds >= 8 && src.len() >= 7 * ss + 8 && dst.len() >= 7 * ds + 8,
        "8x8 transpose out of bounds: {} values at stride {ss} in, {} at stride {ds} out",
        src.len(),
        dst.len()
    );
}

/// The scalar index permutation.
#[derive(Debug, Clone, Copy)]
pub struct Plain;

impl Transpose8 for Plain {
    #[inline(always)]
    fn transpose8(self, src: &[f64], ss: usize, dst: &mut [f64], ds: usize) {
        check(src, ss, dst, ds);
        let rows: [&[f64]; 8] = std::array::from_fn(|r| &src[r * ss..][..8]);
        for (c, col) in dst.chunks_mut(ds).take(8).enumerate() {
            for (d, row) in col[..8].iter_mut().zip(rows) {
                *d = row[c];
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub use x86::{Avx2, Avx512};

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use super::{check, Transpose8};

    /// The AVX2 transpose; only [`Avx2::new`] makes one.
    #[derive(Debug, Clone, Copy)]
    pub struct Avx2(());

    impl Avx2 {
        /// `Some` iff the running CPU has AVX2.
        pub fn new() -> Option<Self> {
            is_x86_feature_detected!("avx2").then_some(Avx2(()))
        }
    }

    impl Transpose8 for Avx2 {
        #[inline(always)]
        fn transpose8(self, src: &[f64], ss: usize, dst: &mut [f64], ds: usize) {
            check(src, ss, dst, ds);
            let (s, d) = (src.as_ptr(), dst.as_mut_ptr());
            // Block (rb, cb) of the source is block (cb, rb) of the result.
            for rb in [0, 4] {
                for cb in [0, 4] {
                    // SAFETY: the token proves AVX2; every row read is
                    // `src[(rb + r) * ss + cb ..][..4]` and every row written
                    // `dst[(cb + c) * ds + rb ..][..4]` with `r, c < 4`,
                    // inside the bounds `check` asserted.
                    unsafe {
                        let (s, d) = (s.add(rb * ss + cb), d.add(cb * ds + rb));
                        let r0 = _mm256_loadu_pd(s);
                        let r1 = _mm256_loadu_pd(s.add(ss));
                        let r2 = _mm256_loadu_pd(s.add(2 * ss));
                        let r3 = _mm256_loadu_pd(s.add(3 * ss));
                        let t0 = _mm256_unpacklo_pd(r0, r1);
                        let t1 = _mm256_unpackhi_pd(r0, r1);
                        let t2 = _mm256_unpacklo_pd(r2, r3);
                        let t3 = _mm256_unpackhi_pd(r2, r3);
                        _mm256_storeu_pd(d, _mm256_permute2f128_pd(t0, t2, 0x20));
                        _mm256_storeu_pd(d.add(ds), _mm256_permute2f128_pd(t1, t3, 0x20));
                        _mm256_storeu_pd(d.add(2 * ds), _mm256_permute2f128_pd(t0, t2, 0x31));
                        _mm256_storeu_pd(d.add(3 * ds), _mm256_permute2f128_pd(t1, t3, 0x31));
                    }
                }
            }
        }
    }

    /// The AVX-512 transpose; only [`Avx512::new`] makes one.
    #[derive(Debug, Clone, Copy)]
    pub struct Avx512(());

    impl Avx512 {
        /// `Some` iff the running CPU has AVX-512 F.
        pub fn new() -> Option<Self> {
            is_x86_feature_detected!("avx512f").then_some(Avx512(()))
        }
    }

    impl Transpose8 for Avx512 {
        #[inline(always)]
        fn transpose8(self, src: &[f64], ss: usize, dst: &mut [f64], ds: usize) {
            check(src, ss, dst, ds);
            let (s, d) = (src.as_ptr(), dst.as_mut_ptr());
            // SAFETY: the token proves AVX-512 F; every row read is
            // `src[r * ss..][..8]` and every row written `dst[c * ds..][..8]`
            // with `r, c < 8`, inside the bounds `check` asserted.
            unsafe {
                let mut r = [_mm512_setzero_pd(); 8];
                for (i, ri) in r.iter_mut().enumerate() {
                    *ri = _mm512_loadu_pd(s.add(i * ss));
                }
                // Pairs of rows interleaved: t[2p] = (r[2p][0], r[2p+1][0],
                // r[2p][2], r[2p+1][2], ..), t[2p+1] the odd columns.
                let mut t = [_mm512_setzero_pd(); 8];
                for p in 0..4 {
                    t[2 * p] = _mm512_unpacklo_pd(r[2 * p], r[2 * p + 1]);
                    t[2 * p + 1] = _mm512_unpackhi_pd(r[2 * p], r[2 * p + 1]);
                }
                // 128-bit pairs of two interleaved pairs: u[q] holds columns
                // {c, c + 4} of four rows, c = q % 4, for rows 0–3 (q < 4)
                // and rows 4–7 (q >= 4).
                let lo = _mm512_set_epi64(13, 12, 5, 4, 9, 8, 1, 0);
                let hi = _mm512_set_epi64(15, 14, 7, 6, 11, 10, 3, 2);
                let mut u = [_mm512_setzero_pd(); 8];
                for h in [0, 4] {
                    let (a, b) = (t[h], t[h + 2]);
                    u[h] = _mm512_permutex2var_pd(a, lo, b);
                    u[h + 2] = _mm512_permutex2var_pd(a, hi, b);
                    let (a, b) = (t[h + 1], t[h + 3]);
                    u[h + 1] = _mm512_permutex2var_pd(a, lo, b);
                    u[h + 3] = _mm512_permutex2var_pd(a, hi, b);
                }
                // 256-bit halves: column c of rows 0–3, then of rows 4–7.
                for c in 0..4 {
                    let (a, b) = (u[c], u[c + 4]);
                    _mm512_storeu_pd(d.add(c * ds), _mm512_shuffle_f64x2(a, b, 0b01_00_01_00));
                    _mm512_storeu_pd(
                        d.add((c + 4) * ds),
                        _mm512_shuffle_f64x2(a, b, 0b11_10_11_10),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `T` round-trips a tile and matches the index permutation, with
    /// strides wider than a row on both sides.
    fn round_trips<T: Transpose8>(t: T) {
        let (ss, ds) = (11, 9);
        let src: Vec<f64> = (0..7 * ss + 8).map(|i| i as f64 * 1.5 - 40.0).collect();
        let mut once = vec![f64::NAN; 7 * ds + 8];
        t.transpose8(&src, ss, &mut once, ds);
        for r in 0..8 {
            for c in 0..8 {
                assert_eq!(once[c * ds + r].to_bits(), src[r * ss + c].to_bits());
            }
        }
        let mut twice = vec![f64::NAN; 7 * ss + 8];
        t.transpose8(&once, ds, &mut twice, ss);
        for r in 0..8 {
            for c in 0..8 {
                assert_eq!(twice[r * ss + c].to_bits(), src[r * ss + c].to_bits());
            }
        }
    }

    /// Every implementation the CPU runs transposes and round-trips a tile
    /// bit for bit; the test says which it skipped.
    #[test]
    fn transpose8_round_trips_on_every_implementation() {
        round_trips(Plain);
        #[cfg(target_arch = "x86_64")]
        {
            match Avx2::new() {
                Some(t) => round_trips(t),
                None => eprintln!("transpose8: skipped avx2: this CPU cannot run it"),
            }
            match Avx512::new() {
                Some(t) => round_trips(t),
                None => eprintln!("transpose8: skipped avx512: this CPU cannot run it"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn a_short_slice_is_refused() {
        let src = vec![0.0; 7 * 8 + 7];
        let mut dst = vec![0.0; 64];
        Plain.transpose8(&src, 8, &mut dst, 8);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn overlapping_rows_are_refused() {
        let src = vec![0.0; 64];
        let mut dst = vec![0.0; 64];
        Plain.transpose8(&src, 7, &mut dst, 8);
    }
}
