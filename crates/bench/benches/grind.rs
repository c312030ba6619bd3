//! End-to-end grind time of the full solver (the CPU column of Fig. 5).
//!
//! Measures ns / cell / PDE / RHS evaluation on this host for the
//! representative two-phase problem, across sweep loop orders and
//! reconstruction orders — the numbers EXPERIMENTS.md reports next to the
//! paper's per-socket CPU grind times.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use mfc_acc::Context;
use mfc_core::case::presets;
use mfc_core::rhs::{RhsConfig, RhsMode};
use mfc_core::solver::{DtMode, Solver, SolverConfig};
use mfc_core::weno::WenoOrder;
use mfc_trace::Tracer;

fn bench_grind(c: &mut Criterion) {
    let n = [24usize, 24, 24];
    let cells = n[0] * n[1] * n[2];

    let mut g = c.benchmark_group("grind_time");
    // Throughput in cell-PDE-RHS units so criterion reports ns per unit —
    // directly comparable to the paper's grind metric.
    g.throughput(Throughput::Elements((cells * 7 * 3) as u64));
    g.sample_size(10);

    for mode in [RhsMode::Staged, RhsMode::Fused] {
        g.bench_with_input(BenchmarkId::new("mode", mode.name()), &mode, |b, &mode| {
            let case = presets::two_phase_benchmark(3, n);
            let cfg = SolverConfig {
                rhs: RhsConfig {
                    mode,
                    ..Default::default()
                },
                dt: DtMode::Cfl(0.4),
                ..Default::default()
            };
            let mut solver = Solver::new(&case, cfg, Context::serial());
            b.iter(|| {
                solver.step().unwrap();
                std::hint::black_box(solver.time())
            })
        });
    }

    // Tracing axis on the fused engine: "disabled" is the no-tracer fast
    // path (must be free — the repo benchmark's `trace.overhead_frac`
    // tracks it), "enabled" has a live span/kernel event stream attached.
    for traced in [false, true] {
        g.bench_with_input(
            BenchmarkId::new("tracing", if traced { "enabled" } else { "disabled" }),
            &traced,
            |b, &traced| {
                let case = presets::two_phase_benchmark(3, n);
                let cfg = SolverConfig {
                    rhs: RhsConfig {
                        mode: RhsMode::Fused,
                        ..Default::default()
                    },
                    dt: DtMode::Cfl(0.4),
                    ..Default::default()
                };
                let mut ctx = Context::serial();
                let tracer = Arc::new(Tracer::new());
                if traced {
                    ctx.set_tracer(tracer.handle(0));
                }
                let mut solver = Solver::new(&case, cfg, ctx);
                b.iter(|| {
                    solver.step().unwrap();
                    std::hint::black_box(solver.time())
                })
            },
        );
    }

    for order in [WenoOrder::Weno3, WenoOrder::Weno5] {
        g.bench_with_input(
            BenchmarkId::new("order", format!("{order:?}")),
            &order,
            |b, &order| {
                let case = presets::two_phase_benchmark(3, n);
                let cfg = SolverConfig {
                    rhs: RhsConfig {
                        order,
                        ..Default::default()
                    },
                    dt: DtMode::Cfl(0.4),
                    ..Default::default()
                };
                let mut solver = Solver::new(&case, cfg, Context::serial());
                b.iter(|| {
                    solver.step().unwrap();
                    std::hint::black_box(solver.time())
                })
            },
        );
    }

    g.finish();
}

criterion_group!(benches, bench_grind);
criterion_main!(benches);
