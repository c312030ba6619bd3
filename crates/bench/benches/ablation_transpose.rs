//! §III-D ablation: collapsed-loop vs library-style batched transposes.
//!
//! "A seven-fold reduction in computational time is achieved for these
//! kernels when using hipBLAS libraries" (vs fully collapsed OpenACC
//! loops on MI250X). On the CPU the analogous gap is naive strided loops
//! vs 8x8-tiled register transposes (the solver's own `Transpose8`) and
//! two-step batched GEAM transposes.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use mfc_bench::packed_buffer;
use mfc_bench::transpose::{
    tiers, transpose_2134_geam, transpose_2134_naive, transpose_3214_geam, transpose_3214_naive,
    transpose_3214_tiled,
};

const N: usize = 128;
const NF: usize = 7;

fn bench_transposes(c: &mut Criterion) {
    let n = [N, N, N, NF];
    let a = packed_buffer(N, N, N, NF);
    let mut out = vec![0.0; a.len()];

    let mut g = c.benchmark_group("ablation_transpose");
    g.throughput(Throughput::Elements(a.len() as u64));
    g.sample_size(10);

    // (3,2,1,4): the z-coalescing permutation (two GEAMs in Listing 4).
    g.bench_function("z_collapsed_loops", |b| {
        b.iter(|| {
            transpose_3214_naive(&a, n, &mut out);
            std::hint::black_box(out[0])
        })
    });
    // The solver's 8x8 register transpose at the widest tier the CPU has.
    let tier = *tiers().last().unwrap();
    g.bench_function("z_tiled", |b| {
        b.iter(|| {
            transpose_3214_tiled(tier, &a, n, &mut out);
            std::hint::black_box(out[0])
        })
    });
    let mut scratch = Vec::new();
    g.bench_function("z_geam_two_step", |b| {
        b.iter(|| {
            transpose_3214_geam(&a, n, &mut scratch, &mut out);
            std::hint::black_box(out[0])
        })
    });

    // (2,1,3,4): the y-coalescing permutation (one strided batched GEAM).
    g.bench_function("y_collapsed_loops", |b| {
        b.iter(|| {
            transpose_2134_naive(&a, n, &mut out);
            std::hint::black_box(out[0])
        })
    });
    g.bench_function("y_geam_batched", |b| {
        b.iter(|| {
            transpose_2134_geam(&a, n, &mut out);
            std::hint::black_box(out[0])
        })
    });

    g.finish();
}

criterion_group!(benches, bench_transposes);
criterion_main!(benches);
