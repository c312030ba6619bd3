//! §III-D ablation: compile-time vs runtime-sized private arrays.
//!
//! "One kernel… went from taking 90% of the total runtime to just 3%…
//! when just one O(1)-element array in its private clause had its size
//! declared at compile time."  A runtime-sized private array on CCE
//! triggers a device-side allocation with a device↔host handshake; the
//! host analog of that pathology is a heap allocation inside every
//! kernel iteration, vs a stack array whose size the compiler knows.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use mfc_acc::{Context, KernelClass, KernelCost, LaunchConfig};

const CELLS: usize = 200_000;
const NEQ: usize = 7;

fn body(cell: usize, scratch: &mut [f64]) -> f64 {
    // A per-cell working vector: load, transform, reduce.
    for (e, s) in scratch.iter_mut().enumerate() {
        *s = (cell as f64 * 1e-5 + e as f64).sin();
    }
    let mut acc = 0.0;
    for e in 0..scratch.len() {
        acc += scratch[e] * scratch[(e + 1) % scratch.len()];
    }
    acc
}

fn bench_private_arrays(c: &mut Criterion) {
    let ctx = Context::serial();
    let cost = KernelCost::new(KernelClass::Other, 30.0, 56.0, 0.0);

    let mut g = c.benchmark_group("ablation_private");
    g.throughput(Throughput::Elements(CELLS as u64));
    g.sample_size(10);

    g.bench_function("compile_time_sized", |b| {
        let cfg = LaunchConfig::tuned("private_stack");
        b.iter(|| {
            let mut total = 0.0;
            ctx.launch(&cfg, cost, CELLS, |cell| {
                let mut scratch = [0.0f64; NEQ]; // size known at compile time
                total += body(cell, &mut scratch);
            });
            std::hint::black_box(total)
        })
    });

    g.bench_function("runtime_sized", |b| {
        let cfg = LaunchConfig::tuned("private_heap");
        let neq = std::hint::black_box(NEQ); // size only known at run time
        b.iter(|| {
            let mut total = 0.0;
            ctx.launch(&cfg, cost, CELLS, |cell| {
                let mut scratch = vec![0.0f64; neq]; // per-iteration allocation
                total += body(cell, &mut scratch);
            });
            std::hint::black_box(total)
        })
    });

    g.finish();
}

criterion_group!(benches, bench_private_arrays);
criterion_main!(benches);
