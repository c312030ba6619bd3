//! ASCII output cost: `f64` text per value — std's `{}` against
//! `mfc_core::dtoa::TextWriter` — and `write_vtk_rectilinear`'s MB/s, on
//! a two-phase 32³ × 7-field slab, the shape `dist3d_r2` writes at the end
//! of its run (the preset's state after two steps).
//!
//! Each routine's line ends in elements (values) or bytes per second; the
//! `ns/value` lines time the fastest of five further passes.

use std::hint::black_box;
use std::io::{self, BufWriter, Write};
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use mfc_acc::Context;
use mfc_core::case::presets;
use mfc_core::dtoa::TextWriter;
use mfc_core::grid::Grid;
use mfc_core::output::{block_to_vec, write_vtk_rectilinear};
use mfc_core::par::GlobalField;
use mfc_core::solver::{Solver, SolverConfig};

fn slab() -> (Grid, GlobalField) {
    let n = [32; 3];
    let case = presets::two_phase_benchmark(3, n);
    let mut solver = Solver::new(&case, SolverConfig::default(), Context::serial());
    for _ in 0..2 {
        solver.step().expect("two-phase slab steps");
    }
    let gf = GlobalField {
        n,
        neq: case.eq().neq(),
        data: block_to_vec(solver.state()),
    };
    (case.grid(), gf)
}

/// Writes a slab's values, one per line.
type Writer = fn(&[f64]) -> io::Result<()>;

/// One value per line through std's `{}`, as the writers did before.
fn std_display(vals: &[f64]) -> io::Result<()> {
    let mut w = BufWriter::with_capacity(64 << 10, io::sink());
    for v in vals {
        writeln!(w, "{v}")?;
    }
    w.flush()
}

fn text_writer(vals: &[f64]) -> io::Result<()> {
    let mut w = TextWriter::new(io::sink());
    for &v in vals {
        w.f64(v, b'\n')?;
    }
    w.flush()
}

fn bench_f64_text(c: &mut Criterion) {
    let (_, gf) = slab();
    let vals = &gf.data[..];
    let mut g = c.benchmark_group("f64_text");
    g.throughput(Throughput::Elements(vals.len() as u64));
    g.sample_size(20);
    let routines = [
        ("std_display", std_display as Writer),
        ("text_writer", text_writer),
    ];
    for (name, write) in routines {
        g.bench_function(name, |b| b.iter(|| write(black_box(vals)).unwrap()));
        let best = (0..5)
            .map(|_| {
                let t = Instant::now();
                write(black_box(vals)).unwrap();
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        println!(
            "f64_text/{name}: {:.1} ns/value",
            best * 1e9 / vals.len() as f64
        );
    }
    g.finish();
}

fn bench_vtk_file(c: &mut Criterion) {
    let (grid, gf) = slab();
    let fields: Vec<(String, usize)> = (0..gf.neq).map(|e| (format!("q{e}"), e)).collect();
    let refs: Vec<(&str, usize)> = fields.iter().map(|(s, e)| (s.as_str(), *e)).collect();
    let path = std::env::temp_dir().join(format!("mfc_bench_vtk_{}.vtk", std::process::id()));
    write_vtk_rectilinear(&path, &grid, &gf, &refs).unwrap();
    let bytes = std::fs::metadata(&path).unwrap().len();
    let mut g = c.benchmark_group("vtk_write");
    g.throughput(Throughput::Bytes(bytes));
    g.sample_size(20);
    g.bench_function("slab_32cubed_7_fields", |b| {
        b.iter(|| write_vtk_rectilinear(&path, &grid, &gf, &refs).unwrap())
    });
    g.finish();
    std::fs::remove_file(&path).unwrap();
}

criterion_group!(benches, bench_f64_text, bench_vtk_file);
criterion_main!(benches);
