//! Kernel-level benchmarks: the WENO reconstruction (a whole sweep's
//! lines, and the line kernel through each of its entries) and approximate
//! Riemann solve that dominate Figs. 1, 6, and 7, measured on the host CPU.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use mfc_bench::{packed_buffer, BENCH_N, BENCH_NF};
use mfc_core::eqidx::EqIdx;
use mfc_core::fluid::{Fluid, FluidTable};
use mfc_core::isa;
use mfc_core::riemann::RiemannSolver;
use mfc_core::weno::{self, WenoOrder};

/// The sweep stage's WENO work: the line kernel over every line of a
/// direction-coalesced buffer, one line per variable per transverse line.
fn bench_weno(c: &mut Criterion) {
    let n = BENCH_N;
    let mut g = c.benchmark_group("weno_kernel");
    // `n / 8 * 8` lines per field, as `packed` below holds.
    let faces = (n + 1) * (n / 8) * 8 * BENCH_NF;
    g.throughput(Throughput::Elements(faces as u64));
    g.sample_size(10);
    for (name, order) in [
        ("weno5", WenoOrder::Weno5),
        ("weno5z", WenoOrder::Weno5Z),
        ("weno3", WenoOrder::Weno3),
    ] {
        // The packed buffer's ghost width must match the stencil.
        let ng = order.ghost_layers();
        let packed = packed_buffer(n + 2 * ng, n / 8, 8, BENCH_NF);
        let (mut left, mut right) = (vec![0.0; faces], vec![0.0; faces]);
        g.bench_function(name, |b| {
            b.iter(|| {
                for ((line, l), r) in packed
                    .chunks_exact(n + 2 * ng)
                    .zip(left.chunks_exact_mut(n + 1))
                    .zip(right.chunks_exact_mut(n + 1))
                {
                    weno::reconstruct_line_padded(order, line, ng, n, l, r);
                }
                std::hint::black_box(left[0])
            })
        });
    }
    g.finish();
}

/// The WENO5 line kernel alone, outside the solver: every entry the CPU
/// runs (the fused engine dispatches to the widest), on a cache-resident
/// batch of 96-cell lines (the `grind3d` line length).
fn bench_weno_line(c: &mut Criterion) {
    const LINES: usize = 56;
    const CELLS: usize = 96;
    const PAD: usize = 3;
    const SWEEPS: usize = 200;
    let ext = CELLS + 2 * PAD;
    let v: Vec<f64> = (0..LINES * ext)
        .map(|i| 1.0 + 0.3 * (i as f64 * 0.07).sin() + 1e-3 * ((i * 7919) % 1013) as f64)
        .collect();
    let mut left = vec![0.0; LINES * (CELLS + 1)];
    let mut right = vec![0.0; LINES * (CELLS + 1)];

    let mut g = c.benchmark_group("weno_line");
    g.throughput(Throughput::Elements((SWEEPS * LINES * (CELLS + 1)) as u64));
    g.sample_size(10);
    for tier in isa::WENO.tiers() {
        g.bench_function(tier.name(), |b| {
            b.iter(|| {
                for _ in 0..SWEEPS {
                    for ((line, l), r) in v
                        .chunks_exact(ext)
                        .zip(left.chunks_exact_mut(CELLS + 1))
                        .zip(right.chunks_exact_mut(CELLS + 1))
                    {
                        let line = black_box(line);
                        weno::reconstruct_line_padded_at(
                            tier,
                            WenoOrder::Weno5,
                            line,
                            PAD,
                            CELLS,
                            l,
                            r,
                        );
                    }
                }
                black_box(left[0] + right[0])
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

criterion_group!(benches, bench_weno, bench_weno_line, bench_riemann);
criterion_main!(benches);
