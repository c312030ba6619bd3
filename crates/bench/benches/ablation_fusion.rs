//! Fusion ablation: the same five sweep stages run stage-major
//! (`RhsMode::Staged`, each stage one pass over every pencil through
//! grid-sized scratch) vs pencil-major (`RhsMode::Fused`, all five stages
//! per cache-resident pencil). Both declare the same ledger traffic, so
//! the timing difference is what loop order alone costs. At 96³ the
//! fused order is 1.35–1.76x faster per step (EXPERIMENTS.md, "One run
//! loop"); at 24³ the working set fits the cache and the orders tie.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use mfc_acc::Context;
use mfc_core::case::presets;
use mfc_core::rhs::RhsMode;
use mfc_core::solver::{DtMode, Solver, SolverConfig};

const N: usize = 96;

fn solver_for(mode: RhsMode) -> Solver {
    let case = presets::two_phase_benchmark(3, [N, N, N]);
    let mut cfg = SolverConfig {
        dt: DtMode::Cfl(0.4),
        ..Default::default()
    };
    cfg.rhs.mode = mode;
    Solver::new(&case, cfg, Context::serial())
}

fn bench_fusion(c: &mut Criterion) {
    let cells = N * N * N;
    let mut g = c.benchmark_group("ablation_fusion");
    g.throughput(Throughput::Elements((cells * 7 * 3) as u64));
    g.sample_size(10);

    for mode in [RhsMode::Staged, RhsMode::Fused] {
        g.bench_with_input(
            BenchmarkId::new("two_phase_3d_step", mode.name()),
            &mode,
            |b, &mode| {
                let mut solver = solver_for(mode);
                b.iter(|| {
                    solver.step().unwrap();
                    std::hint::black_box(solver.time())
                })
            },
        );
    }

    g.finish();
}

criterion_group!(benches, bench_fusion);
criterion_main!(benches);
