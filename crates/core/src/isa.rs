//! The instruction set the dispatched sweep stages run.
//!
//! Two stages are compiled twice from one `#[inline(always)]` body — for
//! the build's baseline target and, on x86-64, with AVX2 (never FMA)
//! enabled: the WENO line kernel ([`crate::weno::reconstruct_line_padded`])
//! and the sweep's Riemann stage ([`crate::fused`]). Both pick their entry
//! from [`avx2`], which std caches, so the choice is made once per process
//! and no flag, case key, environment variable or cargo feature sets it.
//! Rust never contracts a multiply-add and packing lanes cannot change an
//! IEEE result, so the two entries of each stage are bitwise identical.

/// Whether the dispatched stages run their AVX2 entry.
#[inline]
pub(crate) fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// The entry the dispatched stages run in this process: `"avx2"` or
/// `"baseline"`.
pub fn kernel_isa() -> &'static str {
    if avx2() {
        "avx2"
    } else {
        "baseline"
    }
}
