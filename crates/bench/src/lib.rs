//! Shared helpers for the benchmark suite.
//!
//! Each Criterion bench regenerates one paper artifact or optimization
//! claim; the mapping is in DESIGN.md's per-experiment index.  Absolute
//! numbers are host-CPU numbers — the *ratios* between variants are what
//! reproduce the paper's claims (flat beats AoS, coalesced beats strided,
//! inlined beats indirect, tiled/GEAM beats naive, stack-private beats
//! heap-private).
//!
//! Arrays are flat and Fortran-ordered, as the solver's state is: element
//! `(i1, i2, i3, i4)` of extents `[n1, n2, n3, n4]` sits at
//! `i1 + n1*(i2 + n2*(i3 + n3*i4))`, the fourth index the field.

pub mod transpose;

/// A smooth, non-trivial field for kernel inputs.
pub fn smooth(i: usize, j: usize, k: usize, f: usize) -> f64 {
    let s = 0.013 * i as f64 + 0.007 * j as f64 + 0.011 * k as f64 + 0.5 * f as f64;
    1.0 + 0.3 * s.sin()
}

/// An x-coalesced packed array of `nf` fields on an `n1 x n2 x n3` block:
/// one allocation, field slowest.
pub fn packed_buffer(n1: usize, n2: usize, n3: usize, nf: usize) -> Vec<f64> {
    (0..nf).flat_map(|f| scalar_field(n1, n2, n3, f)).collect()
}

/// The same contents as `nf` separately allocated fields: the array of
/// `scalar_field` types of the paper's Listing 2, field `f`'s element
/// `(i, j, k)` at `[f][i + n1*(j + n2*k)]`.
pub fn scalar_fields(n1: usize, n2: usize, n3: usize, nf: usize) -> Vec<Vec<f64>> {
    (0..nf).map(|f| scalar_field(n1, n2, n3, f)).collect()
}

fn scalar_field(n1: usize, n2: usize, n3: usize, f: usize) -> Vec<f64> {
    (0..n1 * n2 * n3)
        .map(|c| smooth(c % n1, (c / n1) % n2, c / (n1 * n2), f))
        .collect()
}

/// Benchmark sizing: a ~1M-point workload mirroring the paper's
/// "representative two-phase problem with one million grid cells".
pub const BENCH_N: usize = 100;
pub const BENCH_NF: usize = 7;
