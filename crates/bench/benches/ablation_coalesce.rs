//! §III-C ablation: coalesced vs strided sweep access.
//!
//! "Coalescing memory results in a ten-times speedup in the WENO kernel…
//! This reduction outweighs the cost required to transpose the arrays."
//!
//! The y-sweep WENO kernel is run three ways over the same data:
//! * `strided_gpu_like_order`: the sweep index is the innermost
//!   (fastest-moving) loop, as it is the fastest thread index in the
//!   device kernel, so consecutive iterations touch addresses `n1`
//!   elements apart — the uncoalesced pattern the paper eliminates;
//! * `strided_cache_friendly_order`: same data, transverse index
//!   innermost — the loop order a CPU programmer would pick, which deep
//!   CPU caches largely absorb (this variant has no GPU counterpart:
//!   device kernels cannot reorder the thread-coalescing dimension away);
//! * `reshape_then_unit_stride`: pay a (2,1,3,4) GEAM reshape first, then
//!   sweep unit-stride lines — the paper's strategy, transpose cost
//!   included.
//!
//! On GPUs variant 1 vs 3 is the 10x of §III-C. On a cached CPU the gap
//! is far smaller (see EXPERIMENTS.md) — which is itself the point: the
//! optimization is specifically about GPU memory coalescing.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use mfc_bench::transpose::transpose_2134_geam;
use mfc_bench::{packed_buffer, BENCH_NF};
use mfc_core::weno::weno5_cell;

const N1: usize = 100;
const N2: usize = 106; // y carries the ghosts for a y sweep
const N3: usize = 100;

fn bench_coalescing(c: &mut Criterion) {
    let xbuf = packed_buffer(N1, N2, N3, BENCH_NF);
    let cells = N2 - 6;

    let mut g = c.benchmark_group("ablation_coalesce");
    g.throughput(Throughput::Elements((cells * N1 * N3 * BENCH_NF) as u64));
    g.sample_size(10);

    g.bench_function("strided_gpu_like_order", |b| {
        let s = &xbuf;
        b.iter(|| {
            let mut acc = 0.0;
            for f in 0..BENCH_NF {
                for k in 0..N3 {
                    for i in 0..N1 {
                        // Sweep index innermost: consecutive iterations
                        // jump n1 elements — the uncoalesced pattern.
                        for m in 0..cells {
                            let jc = 2 + m;
                            let base = i + N1 * (jc + N2 * (k + N3 * f));
                            let (l, r) = weno5_cell(&[
                                s[base - 2 * N1],
                                s[base - N1],
                                s[base],
                                s[base + N1],
                                s[base + 2 * N1],
                            ]);
                            acc += l + r;
                        }
                    }
                }
            }
            std::hint::black_box(acc)
        })
    });

    g.bench_function("strided_cache_friendly_order", |b| {
        let s = &xbuf;
        b.iter(|| {
            let mut acc = 0.0;
            for f in 0..BENCH_NF {
                for k in 0..N3 {
                    for m in 0..cells {
                        let jc = 2 + m;
                        for i in 0..N1 {
                            let base = i + N1 * (jc + N2 * (k + N3 * f));
                            let (l, r) = weno5_cell(&[
                                s[base - 2 * N1],
                                s[base - N1],
                                s[base],
                                s[base + N1],
                                s[base + 2 * N1],
                            ]);
                            acc += l + r;
                        }
                    }
                }
            }
            std::hint::black_box(acc)
        })
    });

    g.bench_function("reshape_then_unit_stride", |b| {
        let mut ybuf = vec![0.0; xbuf.len()];
        b.iter(|| {
            // The transpose is part of the cost, as in the paper.
            transpose_2134_geam(&xbuf, [N1, N2, N3, BENCH_NF], &mut ybuf);
            let mut acc = 0.0;
            for f in 0..BENCH_NF {
                for k in 0..N3 {
                    for i in 0..N1 {
                        let line = &ybuf[N2 * (i + N1 * (k + N3 * f))..][..N2];
                        for m in 0..cells {
                            let c = 2 + m;
                            let (l, r) = weno5_cell(&[
                                line[c - 2],
                                line[c - 1],
                                line[c],
                                line[c + 1],
                                line[c + 2],
                            ]);
                            acc += l + r;
                        }
                    }
                }
            }
            std::hint::black_box(acc)
        })
    });

    g.finish();
}

criterion_group!(benches, bench_coalescing);
criterion_main!(benches);
