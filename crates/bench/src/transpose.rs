//! The §III-D transpose baselines: the `(1,2,3,4) → (3,2,1,4)` (z) and
//! `(1,2,3,4) → (2,1,3,4)` (y) index permutations of Listings 3–4, over
//! flat Fortran-ordered arrays of extents `n = [n1, n2, n3, n4]`.
//!
//! * `*_naive`: fully collapsed scalar loops — the OpenACC fallback that the
//!   paper reports running seven times slower than the library path on
//!   MI250X.
//! * [`transpose_3214_tiled`]: 8×8 tiles through the solver's own register
//!   transpose, [`mfc_acc::Transpose8`], with a scalar remainder — the
//!   CPU analog of what cuTENSOR/hipBLAS do on devices.
//! * `*_geam`: Listing 4's batched GEAM calls, each step executed with the
//!   cache-blocked 2-D transpose [`transpose2d`] playing `hipblasDgeam`.

#[cfg(target_arch = "x86_64")]
use mfc_acc::transpose::{Avx2, Avx512};
use mfc_acc::{Plain, Transpose8};
use mfc_core::isa::Tier;

/// Cache tile edge of [`transpose2d`]. 32×32 f64 tiles are 8 KiB in +
/// 8 KiB out, comfortably inside L1.
const TILE: usize = 32;

fn check(src: &[f64], n: [usize; 4], dst: &[f64]) {
    let len: usize = n.iter().product();
    assert!(
        src.len() == len && dst.len() == len,
        "extents {n:?} need {len} values in and out, got {} and {}",
        src.len(),
        dst.len()
    );
}

/// Transpose a column-major `rows × cols` matrix: `dst[j,i] = src[i,j]`.
///
/// `src` is indexed `i + rows*j`, `dst` is indexed `j + cols*i`. This is the
/// GEAM primitive (`C = alpha*op(A)` with `op = T`, `alpha = 1`).
pub fn transpose2d(src: &[f64], rows: usize, cols: usize, dst: &mut [f64]) {
    assert_eq!(src.len(), rows * cols);
    assert_eq!(dst.len(), rows * cols);
    for jb in (0..cols).step_by(TILE) {
        let jend = (jb + TILE).min(cols);
        for ib in (0..rows).step_by(TILE) {
            let iend = (ib + TILE).min(rows);
            for j in jb..jend {
                for i in ib..iend {
                    dst[j + cols * i] = src[i + rows * j];
                }
            }
        }
    }
}

/// Collapsed-loop z permutation: `dst(i3,i2,i1,i4) = src(i1,i2,i3,i4)`.
///
/// Loop order is chosen so *reads* are unit-stride (writes are strided),
/// matching what a fully collapsed OpenACC gang-vector loop over the source
/// does.
pub fn transpose_3214_naive(src: &[f64], n: [usize; 4], dst: &mut [f64]) {
    check(src, n, dst);
    let [n1, n2, n3, n4] = n;
    for i4 in 0..n4 {
        for i3 in 0..n3 {
            for i2 in 0..n2 {
                let sbase = n1 * (i2 + n2 * (i3 + n3 * i4));
                let dbase = i3 + n3 * (i2 + n2 * (n1 * i4));
                for i1 in 0..n1 {
                    dst[dbase + n3 * n2 * i1] = src[sbase + i1];
                }
            }
        }
    }
}

/// The tiers of [`transpose_3214_tiled`] the running CPU can execute,
/// narrowest first.
pub fn tiers() -> Vec<Tier> {
    let mut tiers = vec![Tier::Baseline];
    #[cfg(target_arch = "x86_64")]
    {
        if Avx2::new().is_some() {
            tiers.push(Tier::Avx2);
        }
        if Avx512::new().is_some() {
            tiers.push(Tier::Avx512);
        }
    }
    tiers
}

/// Tiled z permutation with the semantics of [`transpose_3214_naive`], at
/// `tier`'s [`Transpose8`]: the plain permutation, or the AVX2 / AVX-512
/// token inside code compiled for its features.
///
/// # Panics
/// If the running CPU cannot execute `tier`.
pub fn transpose_3214_tiled(tier: Tier, src: &[f64], n: [usize; 4], dst: &mut [f64]) {
    check(src, n, dst);
    match tier {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => {
            let t = Avx512::new().expect("an AVX-512 CPU");
            // SAFETY: the token proves the CPU has AVX-512 F.
            unsafe { tiled_avx512(t, src, n, dst) }
        }
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => {
            let t = Avx2::new().expect("an AVX2 CPU");
            // SAFETY: the token proves the CPU has AVX2.
            unsafe { tiled_avx2(t, src, n, dst) }
        }
        _ => tiled(Plain, src, n, dst),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn tiled_avx512(t: Avx512, src: &[f64], n: [usize; 4], dst: &mut [f64]) {
    tiled(t, src, n, dst)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn tiled_avx2(t: Avx2, src: &[f64], n: [usize; 4], dst: &mut [f64]) {
    tiled(t, src, n, dst)
}

/// With `i2` and `i4` fixed the permutation transposes the `(i1, i3)`
/// plane: `src` rows (one per `i3`) at stride `n1*n2`, `dst` rows (one per
/// `i1`) at stride `n3*n2`. Full 8×8 blocks go through `t`; the `i1` and
/// `i3` tails a value at a time.
#[inline(always)]
fn tiled<T: Transpose8>(t: T, src: &[f64], n: [usize; 4], dst: &mut [f64]) {
    let [n1, n2, n3, n4] = n;
    let (ss, ds) = (n1 * n2, n3 * n2);
    let (f1, f3) = (n1 - n1 % 8, n3 - n3 % 8);
    for i4 in 0..n4 {
        for i2 in 0..n2 {
            // `(0, i2, 0, i4)` in each array.
            let (s0, d0) = (n1 * (i2 + n2 * n3 * i4), n3 * (i2 + n2 * n1 * i4));
            // `i1` blocks innermost, so the eight source rows stream in
            // order: 79-82 ms at 128^3 x 7 against 104-130 the other way.
            for b3 in (0..f3).step_by(8) {
                for b1 in (0..f1).step_by(8) {
                    let (s, d) = (s0 + b1 + ss * b3, d0 + b3 + ds * b1);
                    t.transpose8(&src[s..], ss, &mut dst[d..], ds);
                }
            }
            for i3 in 0..n3 {
                let tail = if i3 < f3 { f1 } else { 0 };
                for i1 in tail..n1 {
                    dst[d0 + i3 + ds * i1] = src[s0 + i1 + ss * i3];
                }
            }
        }
    }
}

/// The two-step batched GEAM decomposition of Listing 4: a strided
/// *batched* swap of the first two indices (`A_{ijk} → A_{jik}`, one batch
/// entry per `k`), then one *unbatched* transpose of the grouped index pair
/// (`A_{(ji)k} → A_{k(ji)}`).
///
/// `scratch` plays Listing 4's `transpose_tmp`; it is resized to the
/// array's length and reused across calls to avoid allocation inside the
/// time loop.
pub fn transpose_3214_geam(src: &[f64], n: [usize; 4], scratch: &mut Vec<f64>, dst: &mut [f64]) {
    check(src, n, dst);
    let [n1, n2, n3, _] = n;
    scratch.resize(src.len(), 0.0);
    let plane = n1 * n2;
    let cube = plane * n3;
    for ((sfield, tfield), dfield) in src
        .chunks_exact(cube)
        .zip(scratch.chunks_exact_mut(cube))
        .zip(dst.chunks_exact_mut(cube))
    {
        // Step 1 (hipblasDgeamStridedBatched): n3 permutations of an
        // (n1 x n2) matrix to (n2 x n1), batch stride n1*n2.
        for (sp, tp) in sfield
            .chunks_exact(plane)
            .zip(tfield.chunks_exact_mut(plane))
        {
            transpose2d(sp, n1, n2, tp);
        }
        // Step 2 (unbatched hipblasDgeam): group (j,i) into one index m of
        // extent n2*n1 and transpose the (m, k) matrix.
        transpose2d(tfield, plane, n3, dfield);
    }
}

/// Collapsed-loop y permutation: `dst(i2,i1,i3,i4) = src(i1,i2,i3,i4)`.
pub fn transpose_2134_naive(src: &[f64], n: [usize; 4], dst: &mut [f64]) {
    check(src, n, dst);
    let [n1, n2, ..] = n;
    let plane = n1 * n2;
    for (sp, dp) in src.chunks_exact(plane).zip(dst.chunks_exact_mut(plane)) {
        for i2 in 0..n2 {
            for i1 in 0..n1 {
                dp[i2 + n2 * i1] = sp[i1 + n1 * i2];
            }
        }
    }
}

/// Batched GEAM y permutation: one strided, batched 2-D transpose per
/// `(i3, i4)` plane — a single `hipblasDgeamStridedBatched` call in
/// Listing 4's terms.
pub fn transpose_2134_geam(src: &[f64], n: [usize; 4], dst: &mut [f64]) {
    check(src, n, dst);
    let [n1, n2, ..] = n;
    let plane = n1 * n2;
    for (sp, dp) in src.chunks_exact(plane).zip(dst.chunks_exact_mut(plane)) {
        transpose2d(sp, n1, n2, dp);
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    use super::*;

    fn sample(n: [usize; 4]) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        (0..n.iter().product())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect()
    }

    /// `dst(p(i1, i2, i3), i4) = src(i1, i2, i3, i4)`, one element at a time.
    fn permuted(
        src: &[f64],
        [n1, n2, n3, _]: [usize; 4],
        p: fn([usize; 3]) -> [usize; 3],
    ) -> Vec<f64> {
        let [m1, m2, m3] = p([n1, n2, n3]);
        let mut dst = vec![0.0; src.len()];
        for (c, &v) in src.iter().enumerate() {
            let (i1, i2, i3, i4) = (c % n1, c / n1 % n2, c / (n1 * n2) % n3, c / (n1 * n2 * n3));
            let [o1, o2, o3] = p([i1, i2, i3]);
            dst[o1 + m1 * (o2 + m2 * (o3 + m3 * i4))] = v;
        }
        dst
    }

    fn z_of(n: [usize; 3]) -> [usize; 3] {
        [n[2], n[1], n[0]]
    }

    fn y_of(n: [usize; 3]) -> [usize; 3] {
        [n[1], n[0], n[2]]
    }

    /// Every z strategy's result, the tiled one on every tier the CPU has.
    fn z_strategies(src: &[f64], n: [usize; 4]) -> Vec<(String, Vec<f64>)> {
        let mut out = vec![0.0; src.len()];
        transpose_3214_naive(src, n, &mut out);
        let mut all = vec![("naive".to_string(), out.clone())];
        transpose_3214_geam(src, n, &mut Vec::new(), &mut out);
        all.push(("geam".to_string(), out.clone()));
        for tier in tiers() {
            out.fill(f64::NAN);
            transpose_3214_tiled(tier, src, n, &mut out);
            all.push((format!("tiled {}", tier.name()), out.clone()));
        }
        all
    }

    #[test]
    fn transpose2d_small() {
        // 2x3 column-major: [[1,2],[3,4],[5,6]] columns
        let src = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut dst = [0.0; 6];
        transpose2d(&src, 2, 3, &mut dst);
        // dst[j + 3*i] = src[i + 2*j]
        assert_eq!(dst, [1.0, 3.0, 5.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn transpose2d_involution() {
        let dims = (37, 53);
        let src: Vec<f64> = (0..dims.0 * dims.1).map(|i| i as f64).collect();
        let mut once = vec![0.0; src.len()];
        let mut twice = vec![0.0; src.len()];
        transpose2d(&src, dims.0, dims.1, &mut once);
        transpose2d(&once, dims.1, dims.0, &mut twice);
        assert_eq!(src, twice);
    }

    #[test]
    fn all_strategies_agree_with_reference() {
        for n in [
            [5, 4, 3, 2],
            [33, 17, 9, 3],
            [1, 7, 5, 2],
            [64, 1, 64, 1],
            [16, 3, 24, 2],
        ] {
            let src = sample(n);
            let want = permuted(&src, n, z_of);
            for (name, got) in z_strategies(&src, n) {
                assert_eq!(got, want, "{name} {n:?}");
            }
        }
    }

    #[test]
    fn transpose_2134_variants_agree() {
        for n in [[5, 4, 3, 2], [33, 17, 2, 3]] {
            let src = sample(n);
            let want = permuted(&src, n, y_of);
            let mut naive = vec![0.0; src.len()];
            transpose_2134_naive(&src, n, &mut naive);
            assert_eq!(naive, want, "naive {n:?}");
            let mut geam = vec![0.0; src.len()];
            transpose_2134_geam(&src, n, &mut geam);
            assert_eq!(geam, want, "geam {n:?}");
        }
    }

    #[test]
    fn geam_double_application_is_identity() {
        let n = [12, 9, 7, 3];
        let src = sample(n);
        let mut scratch = Vec::new();
        let mut once = vec![0.0; src.len()];
        transpose_3214_geam(&src, n, &mut scratch, &mut once);
        let mut twice = vec![0.0; src.len()];
        transpose_3214_geam(&once, [7, 9, 12, 3], &mut scratch, &mut twice);
        assert_eq!(src, twice);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every z strategy gives the same bits, the tiled one on every
        /// tier, at extents with and without 8×8 tails.
        #[test]
        fn transpose_strategies_agree(
            n1 in 1usize..20,
            n2 in 1usize..20,
            n3 in 1usize..20,
            n4 in 1usize..4,
            seed in 0u64..1000,
        ) {
            let n = [n1, n2, n3, n4];
            // Distinct values, so any misplaced element shows.
            let src: Vec<f64> = (0..n1 * n2 * n3 * n4)
                .map(|c| (c + 1000 * seed as usize) as f64)
                .collect();
            let all = z_strategies(&src, n);
            for (name, got) in &all[1..] {
                prop_assert_eq!(got, &all[0].1, "{} {:?}", name, n);
            }
        }
    }
}
