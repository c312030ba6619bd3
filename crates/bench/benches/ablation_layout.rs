//! §III-C ablation: scalar_field derived types vs flattened 4-D arrays.
//!
//! "Using multidimensional arrays rather than user-defined types for a
//! representative two-phase problem with one million grid cells, a sixfold
//! speedup in the WENO kernel was observed."
//!
//! Both variants run the same WENO5 arithmetic over ~1M points; they
//! differ only in where the stencil operands live: one contiguous packed
//! buffer vs `nf` separate per-field allocations indexed through the
//! field handle per access.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use mfc_bench::{packed_buffer, scalar_fields, BENCH_NF};
use mfc_core::weno::weno5_cell;

const N1: usize = 106; // 100 interior + 6 ghosts
const N2: usize = 100;
const N3: usize = 100;

fn bench_layouts(c: &mut Criterion) {
    let flat = packed_buffer(N1, N2, N3, BENCH_NF);
    let aos = scalar_fields(N1, N2, N3, BENCH_NF);
    let cells = N1 - 6;

    let mut g = c.benchmark_group("ablation_layout");
    g.throughput(Throughput::Elements((cells * N2 * N3 * BENCH_NF) as u64));
    g.sample_size(10);

    // Flat packed buffer: contiguous lines, one allocation.
    g.bench_function("flat_4d_array", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for f in 0..BENCH_NF {
                for k in 0..N3 {
                    for j in 0..N2 {
                        let line = &flat[N1 * (j + N2 * (k + N3 * f))..][..N1];
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

    // Array of scalar_field types: every operand goes through the field
    // object's own allocation (Listing 2's pointer indirection).
    g.bench_function("scalar_field_types", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for sf in &aos {
                for k in 0..N3 {
                    for j in 0..N2 {
                        for m in 0..cells {
                            let c = 2 + m;
                            let at = |i: usize| sf[i + N1 * (j + N2 * k)];
                            let (l, r) =
                                weno5_cell(&[at(c - 2), at(c - 1), at(c), at(c + 1), at(c + 2)]);
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

criterion_group!(benches, bench_layouts);
criterion_main!(benches);
