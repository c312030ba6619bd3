//! Host fingerprint and roofline denominators. Compiled into both benchmark
//! programs (`#[path]` include) so every result file carries the same
//! fields and the per-layer roofline fraction uses rates measured in the
//! same process, never remembered ones.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use serde_json::{json, Value};

/// Triad arrays are 64 MiB each: 16x this host class's 4 MiB L2. The L3
/// here is a 260 MiB slice of a shared socket cache; exceeding *it* four
/// times would need 1 GiB per array and several seconds per pass, which
/// the run budget does not have — so the figure is "beyond L2", and the
/// result file states both cache sizes next to it.
const TRIAD_ELEMS: usize = 8 << 20;
const TRIAD_PASSES: usize = 5;

fn read_trim(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Cache size in KiB from sysfs (`"4096K"`), for cpu0's cache `index`.
fn cache_kib(index: usize) -> Option<u64> {
    let s = read_trim(&format!(
        "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
    ))?;
    let (num, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1),
        b'M' => (&s[..s.len() - 1], 1024),
        _ => (s.as_str(), 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

/// STREAM triad `a = b + s*c`, best of [`TRIAD_PASSES`], in GB/s with the
/// STREAM byte count (three arrays, no write-allocate traffic counted).
pub fn triad_gbs() -> f64 {
    let n = TRIAD_ELEMS;
    let mut a = vec![0.0f64; n];
    let b = vec![1.5f64; n];
    let c = vec![0.25f64; n];
    let mut best = f64::INFINITY;
    for pass in 0..TRIAD_PASSES {
        let s = black_box(3.0 + pass as f64);
        let t0 = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        black_box(&mut a);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (3 * 8 * n) as f64 / best / 1e9
}

/// Single-thread multiply-add throughput of *this build target* (default
/// x86-64: SSE2 lanes, no FMA contraction) — the compute ceiling the
/// shipped binaries can reach, not the silicon's AVX-512 peak.
pub fn peak_gflops() -> f64 {
    const LANES: usize = 32;
    const ITERS: usize = 4_000_000;
    let mut acc = [1.0f64; LANES];
    let (m, add) = (black_box(0.999_999f64), black_box(1e-6f64));
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..ITERS {
            for x in acc.iter_mut() {
                *x = *x * m + add;
            }
        }
        black_box(&mut acc);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (2 * LANES * ITERS) as f64 / best / 1e9
}

/// Everything a reader needs to decide whether two result files are
/// comparable. `commit` is `unknown` outside a git checkout.
pub fn fingerprint(triad_gbs: f64, peak_gflops: f64) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    json!({
        "nproc": nproc,
        "cpu_model": cpu_model,
        "l2_kib": cache_kib(2),
        "l3_kib": cache_kib(3),
        "triad_gbs": triad_gbs,
        "triad_array_mib": (TRIAD_ELEMS * 8) >> 20,
        "peak_gflops": peak_gflops,
        "rustc": command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        "commit": command_line("git", &["rev-parse", "--short", "HEAD"])
            .unwrap_or_else(|| "unknown".into())
    })
}
