//! The three `mfc-run` workloads: generate the case files, run the binary
//! as a user would, time it from outside, check what it wrote.
//!
//! One run of a workload is: pairs of (1-step run, full run) of the same
//! case until `--seconds` is used. The 1-step run is the set-up sample; the
//! pair gives the two-point grind time.

use std::path::Path;
use std::time::Instant;

use serde_json::Value;

use crate::check;
use crate::child::{self, Finished};
use crate::gen::{self, Rng, AIR, TWO_PHASE_P, TWO_PHASE_VEL, WATER};
use crate::stats;
use crate::{Ctx, Outcome};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Grind3d,
    Sod1d,
    Dist3dR2,
}

/// Interface-equilibrium tolerance (relative) on pressure and velocity.
const EQUILIBRIUM_TOL: f64 = 1e-6;
/// Mass-conservation tolerance (relative) between the 1-step and full runs.
const MASS_TOL: f64 = 1e-10;
/// L1 density error allowed against the exact Sod solution at the full
/// size (measured 1.5e-4 at 4096 cells, t = 0.07; first-order in dx at the
/// discontinuities, so the quick size gets the same bound scaled by dx).
const SOD_L1_TOL_FULL: f64 = 1.0e-3;
const GRIND_PROBES: [[f64; 3]; 3] = [[0.5, 0.5, 0.5], [0.25, 0.5, 0.5], [0.9, 0.1, 0.1]];
const RK_STAGES: u64 = 3;

struct Plan {
    cells: u64,
    neq: u64,
    steps: u64,
    flags: Vec<String>,
    /// Diaphragm position (sod1d only).
    x0: f64,
}

fn plan(ctx: &Ctx, kind: Kind) -> Plan {
    let s = &ctx.sizes;
    match kind {
        Kind::Grind3d => Plan {
            cells: (s.grind_n as u64).pow(3),
            neq: 7,
            steps: s.grind_steps,
            flags: vec![],
            x0: 0.0,
        },
        Kind::Sod1d => Plan {
            cells: s.sod_cells as u64,
            neq: 3,
            steps: s.sod_steps,
            flags: vec![],
            x0: Rng::new(ctx.seed, 11).range(0.45, 0.55),
        },
        Kind::Dist3dR2 => Plan {
            cells: (s.dist_n as u64).pow(3),
            neq: 7,
            steps: s.dist_steps,
            flags: vec!["--checkpoint-every".into(), s.dist_ckpt_every.to_string()],
            x0: 0.0,
        },
    }
}

/// Steps of the workload's full run.
pub fn full_steps(ctx: &Ctx, kind: Kind) -> u64 {
    plan(ctx, kind).steps
}

/// The workload's case with `steps` steps. Every call re-seeds the same
/// stream, so the 1-step and full cases differ in `run.steps` only.
pub fn case_json(ctx: &Ctx, kind: Kind, steps: u64, out_dir: &str) -> Value {
    let s = &ctx.sizes;
    match kind {
        Kind::Grind3d => gen::two_phase_case(
            "grind3d",
            s.grind_n,
            steps,
            1,
            &mut Rng::new(ctx.seed, 10),
            out_dir,
            false,
            &GRIND_PROBES,
        ),
        Kind::Sod1d => gen::sod_case(
            "sod1d",
            s.sod_cells,
            steps,
            plan(ctx, kind).x0,
            out_dir,
            true,
        ),
        Kind::Dist3dR2 => gen::two_phase_case(
            "dist3d_r2",
            s.dist_n,
            steps,
            2,
            &mut Rng::new(ctx.seed, 12),
            out_dir,
            true,
            &[],
        ),
    }
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn load_vtk(run_dir: &Path, name: &str) -> Result<check::Vtk, String> {
    check::parse_vtk(&read(&run_dir.join(format!("{name}.vtk")))?)
}

/// Checkpoint rows `mfc-run` printed ("wave N committed by 2 ranks").
fn committed_waves(stdout: &str) -> usize {
    stdout
        .lines()
        .filter(|l| l.contains("committed by 2 ranks"))
        .count()
}

/// Check one finished full run's outputs; each check is one operation.
fn check_full_run(
    ctx: &Ctx,
    kind: Kind,
    p: &Plan,
    run_dir: &Path,
    done: &Finished,
    mass_ref: Option<f64>,
    out: &mut Outcome,
) {
    match kind {
        Kind::Grind3d => {
            for i in 0..GRIND_PROBES.len() {
                let res = read(&run_dir.join(format!("p{i}_probe.csv"))).and_then(|csv| {
                    check::probe_equilibrium_defect(&csv, 2, 3, TWO_PHASE_P, TWO_PHASE_VEL)
                });
                out.op(match res {
                    Ok((rows, d)) if rows as u64 == p.steps && d <= EQUILIBRIUM_TOL => Ok(()),
                    Ok((rows, d)) => Err(format!(
                        "grind3d probe {i}: {rows} rows, equilibrium defect {d:e}"
                    )),
                    Err(e) => Err(format!("grind3d probe {i}: {e}")),
                });
            }
        }
        Kind::Sod1d => {
            let tol = SOD_L1_TOL_FULL * gen::Sizes::FULL.sod_cells as f64 / p.cells as f64;
            let res = load_vtk(run_dir, "sod1d").and_then(|vtk| {
                let t = check::done_time(&done.stdout).ok_or("no simulation time in stdout")?;
                check::sod_l1_error(&vtk, p.x0, t)
            });
            if let Ok(l1) = res {
                out.extras.insert("sod_l1_error", l1);
            }
            out.op(match res {
                Ok(l1) if l1 <= tol => Ok(()),
                Ok(l1) => Err(format!("sod1d: L1 density error {l1:e} > {tol:e}")),
                Err(e) => Err(format!("sod1d: {e}")),
            });
        }
        Kind::Dist3dR2 => {
            let vtk = load_vtk(run_dir, "dist3d_r2");
            out.op(
                match vtk.as_ref().map_err(String::clone).and_then(|v| {
                    check::equilibrium_defect(v, [AIR, WATER], TWO_PHASE_P, TWO_PHASE_VEL)
                }) {
                    Ok(d) if d <= EQUILIBRIUM_TOL => Ok(()),
                    Ok(d) => Err(format!("dist3d_r2: equilibrium defect {d:e}")),
                    Err(e) => Err(format!("dist3d_r2: {e}")),
                },
            );
            let mass = vtk
                .as_ref()
                .map_err(String::clone)
                .and_then(|v| check::field_sum(v, &["alpha_rho_0", "alpha_rho_1"]));
            out.op(match (mass, mass_ref) {
                (Ok(m), Some(r)) if ((m - r) / r).abs() <= MASS_TOL => Ok(()),
                (Ok(m), Some(r)) => Err(format!("dist3d_r2: mass {m:e} vs 1-step run {r:e}")),
                (Ok(_), None) => Err("dist3d_r2: no 1-step mass to compare with".into()),
                (Err(e), _) => Err(format!("dist3d_r2: {e}")),
            });
            // Every wave committed by both ranks; the two newest (default
            // retention) still on disk for both.
            let every = ctx.sizes.dist_ckpt_every;
            let waves = p.steps.div_ceil(every) as usize;
            let got = committed_waves(&done.stdout);
            let newest_present = (waves.saturating_sub(2)..waves).all(|w| {
                (0..2).all(|r| {
                    std::fs::metadata(run_dir.join(format!("ckpt/ckpt_r{r}_w{w}.bin")))
                        .map(|m| m.len() > 0)
                        .unwrap_or(false)
                })
            });
            out.op(if got == waves && newest_present {
                Ok(())
            } else {
                Err(format!(
                    "dist3d_r2: {got}/{waves} waves committed, newest files present: {newest_present}"
                ))
            });
        }
    }
}

pub fn run(ctx: &Ctx, kind: Kind) -> Result<Outcome, String> {
    let p = plan(ctx, kind);
    let mfc_run = ctx.bin_dir.join("mfc-run");
    let run_dir = ctx.out.join("run");
    let run_dir_s = run_dir.to_string_lossy().into_owned();
    let write_case = |name: &str, steps: u64| -> Result<String, String> {
        let path = ctx.out.join(name);
        std::fs::write(&path, case_json(ctx, kind, steps, &run_dir_s).to_string())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(path.to_string_lossy().into_owned())
    };
    let case_full = write_case("case.json", p.steps)?;
    let case_one = write_case("case_1step.json", 1)?;
    let stdout_path = ctx.out.join("stdout.txt");
    let flags: Vec<&str> = p.flags.iter().map(String::as_str).collect();
    let launch = |case: &str, extra: &[&str]| -> Result<Finished, String> {
        let _ = std::fs::remove_dir_all(&run_dir);
        let mut args = vec![case];
        args.extend_from_slice(extra);
        child::run(&mfc_run, &args, &stdout_path).map_err(|e| format!("cannot run mfc-run: {e}"))
    };

    let mut out = Outcome::default();

    let clock = Instant::now();
    let (mut setups, mut walls, mut rss, mut cpu) = (vec![], vec![], vec![], vec![]);
    let mut mass_ref = None;
    // Another pair is started while the shortest one so far would still
    // fit: a slow spell then costs the run time, not samples.
    let mut pair_s = f64::INFINITY;
    let min_pairs = if ctx.quick { 1 } else { 2 };
    while walls.len() < min_pairs || clock.elapsed().as_secs_f64() + pair_s <= ctx.seconds {
        let pair_clock = Instant::now();
        // Cheap set-ups are sampled several times per pair: a 10 ms
        // process run is noisier than a 3 s one.
        let reps = if setups.last().is_some_and(|&s: &f64| s < 0.5) {
            5
        } else {
            1
        };
        for _ in 0..reps {
            let one = launch(&case_one, &flags)?;
            out.op(if one.ok() {
                Ok(())
            } else {
                Err(format!("1-step run exited {:?}", one.code))
            });
            setups.push(one.wall_s);
        }
        if kind == Kind::Dist3dR2 && mass_ref.is_none() {
            mass_ref = load_vtk(&run_dir, "dist3d_r2")
                .and_then(|v| check::field_sum(&v, &["alpha_rho_0", "alpha_rho_1"]))
                .ok();
        }
        let full = launch(&case_full, &flags)?;
        out.op(if full.ok() {
            Ok(())
        } else {
            Err(format!("full run exited {:?}", full.code))
        });
        if full.ok() {
            check_full_run(ctx, kind, &p, &run_dir, &full, mass_ref, &mut out);
        }
        walls.push(full.wall_s);
        rss.push(full.peak_rss_mb()?);
        cpu.push(full.cpu_s);
        pair_s = pair_s.min(pair_clock.elapsed().as_secs_f64());
    }

    // Interference only ever adds time, and on a shared host it comes in
    // spells that cover most of a run, so every timing of a run is the fast
    // decile of its samples (`stats::FAST`; measured 2x steadier across seeds
    // than the lower quartile, 3x steadier than the median).
    let fast = |samples: &[f64]| stats::percentile(samples, stats::FAST);
    let (setup_s, wall_s) = (fast(&setups), fast(&walls));
    out.metrics.insert("setup_s", setup_s);
    out.metrics.insert("wall_s", wall_s);
    out.metrics.insert(
        "grind_ns",
        stats::two_point_grind_ns(wall_s, setup_s, p.steps, p.cells, p.neq, RK_STAGES),
    );
    out.metrics.insert("peak_rss_mb", stats::median(&rss));
    out.metrics.insert("cpu_s", fast(&cpu));
    out.extras.insert("full_runs", walls.len() as f64);
    out.extras.insert("setup_runs", setups.len() as f64);
    Ok(out)
}
