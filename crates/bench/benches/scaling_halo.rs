//! Communication-path benchmarks: the real halo exchange on simulated
//! ranks (functional layer of Figs. 2–4), the azimuthal FFT filter, and
//! the wave-throttled I/O of §III-A.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mfc_core::case::presets;
use mfc_core::par::run_distributed;
use mfc_core::solver::SolverConfig;
use mfc_fft::{lowpass_filter_line, LowpassPlan};
use mfc_mpsim::{WaveWriter, World};

fn bench_halo_exchange(c: &mut Criterion) {
    let mut g = c.benchmark_group("halo_exchange");
    g.sample_size(10);
    for ranks in [2usize, 4] {
        g.bench_with_input(
            BenchmarkId::new("two_phase_2d_step", ranks),
            &ranks,
            |b, &r| {
                let case = presets::two_phase_benchmark(2, [24, 24, 1]);
                let cfg = SolverConfig::default();
                b.iter(|| {
                    let (field, _) = run_distributed(&case, cfg, r, 1).unwrap();
                    std::hint::black_box(field.data[0])
                })
            },
        );
    }
    g.finish();
}

fn bench_fft_filter(c: &mut Criterion) {
    let mut g = c.benchmark_group("fft_filter");
    g.sample_size(20);
    for n in [64usize, 256, 1024] {
        g.bench_with_input(BenchmarkId::new("lowpass_line", n), &n, |b, &n| {
            let base: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
            let mut line = base.clone();
            b.iter(|| {
                line.copy_from_slice(&base);
                lowpass_filter_line(&mut line, n / 8);
                std::hint::black_box(line[0])
            })
        });
    }
    g.bench_function("plan_apply_128_rings", |b| {
        let plan = LowpassPlan::new(128, 256);
        let base: Vec<f64> = (0..256).map(|i| (i as f64 * 0.05).cos()).collect();
        let mut line = base.clone();
        b.iter(|| {
            for j in 0..128 {
                line.copy_from_slice(&base);
                plan.apply_line(j, &mut line);
            }
            std::hint::black_box(line[0])
        })
    });
    g.finish();
}

fn bench_wave_io(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("mfc_bench_io_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut g = c.benchmark_group("wave_io");
    g.sample_size(10);
    for wave in [1usize, 4, 128] {
        g.bench_with_input(
            BenchmarkId::new("file_per_process_8ranks", wave),
            &wave,
            |b, &w| {
                let dirref = &dir;
                b.iter(|| {
                    World::run(8, |comm| {
                        let data = vec![comm.rank() as u8; 4096 * 8];
                        let path = WaveWriter::rank_path(dirref, 0, comm.rank());
                        WaveWriter::new(w)
                            .write(&comm, data.len() as u64, || std::fs::write(path, &data))
                            .unwrap();
                    });
                })
            },
        );
    }
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_halo_exchange,
    bench_fft_filter,
    bench_wave_io
);
criterion_main!(benches);
