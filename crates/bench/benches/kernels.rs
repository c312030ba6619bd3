//! Kernel-level benchmarks: the WENO reconstruction and approximate
//! Riemann solve that dominate Figs. 1, 6, and 7, plus the conversion and
//! packing stages, measured on the host CPU.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use mfc_acc::Context;
use mfc_bench::{packed_buffer, BENCH_N, BENCH_NF};
use mfc_core::eqidx::EqIdx;
use mfc_core::fluid::{Fluid, FluidTable};
use mfc_core::riemann::RiemannSolver;
use mfc_core::weno::{reconstruct_sweep, WenoOrder};
use mfc_layout::{Dims4, Flat4D};

fn bench_weno(c: &mut Criterion) {
    let n = BENCH_N;
    let ctx = Context::serial();

    let mut g = c.benchmark_group("weno_kernel");
    let fdims = Dims4::new(n + 1, n / 8, 8, BENCH_NF);
    g.throughput(Throughput::Elements(fdims.len() as u64));
    g.sample_size(10);
    for (name, order) in [
        ("weno5", WenoOrder::Weno5),
        ("weno5z", WenoOrder::Weno5Z),
        ("weno3", WenoOrder::Weno3),
    ] {
        // The packed buffer's ghost width must match the stencil.
        let ng = order.ghost_layers();
        let packed = packed_buffer(n + 2 * ng, n / 8, 8, BENCH_NF);
        let mut left = Flat4D::zeros(fdims);
        let mut right = Flat4D::zeros(fdims);
        g.bench_function(name, |b| {
            b.iter(|| {
                reconstruct_sweep(&ctx, order, &packed, n, &mut left, &mut right);
                std::hint::black_box(left.as_slice()[0])
            })
        });
    }
    g.finish();
}

fn bench_riemann(c: &mut Criterion) {
    let eq = EqIdx::new(2, 3);
    let fluids = FluidTable::new(&[Fluid::air(), Fluid::water()]);
    let faces = 100_000;
    // Perturbed face states.
    let mk = |phase: f64| -> Vec<[f64; 7]> {
        (0..faces)
            .map(|i| {
                let s = 0.01 * i as f64 + phase;
                let a = 0.3 + 0.2 * s.sin().abs();
                [
                    1.2 * a,
                    1000.0 * (1.0 - a),
                    30.0 * s.cos(),
                    -10.0 * s.sin(),
                    5.0,
                    1.0e5 * (1.0 + 0.05 * s.sin()),
                    a,
                ]
            })
            .collect()
    };
    let ls = mk(0.0);
    let rs = mk(0.003);

    let mut g = c.benchmark_group("riemann_kernel");
    g.throughput(Throughput::Elements(faces as u64));
    g.sample_size(10);
    for (name, solver) in [
        ("hllc", RiemannSolver::Hllc),
        ("hll", RiemannSolver::Hll),
        ("rusanov", RiemannSolver::Rusanov),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut acc = 0.0;
                let mut f = [0.0; 7];
                for (l, r) in ls.iter().zip(&rs) {
                    acc += solver.flux(&eq, &fluids, 0, l, r, &mut f);
                }
                std::hint::black_box(acc)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_weno, bench_riemann);
criterion_main!(benches);
