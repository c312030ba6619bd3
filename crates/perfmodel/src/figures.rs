//! Figure generators: one function per paper artifact.
//!
//! Each returns structured rows (serde-serializable, consumed by
//! EXPERIMENTS.md tooling) plus a `render_*` companion producing the
//! human-readable table the benchmark harness prints.

use serde::{Deserialize, Serialize};

use mfc_acc::KernelClass;
use mfc_mpsim::Staging;

use crate::calib::{achieved_peak_fraction, grind_for};
use crate::hw::{self, DeviceSpec};
use crate::roofline::{effective_ai, RooflinePoint};
use crate::scaling::{MachineModel, ScalingPoint};
use crate::workload::WorkloadProfile;

/// Figure 1: rooflines of the two hottest kernels on V100 and MI250X.
pub fn fig1_roofline(profile: &WorkloadProfile) -> Vec<RooflinePoint> {
    let mut out = Vec::new();
    for spec in [hw::V100_PCIE, hw::MI250X_GCD, hw::A100_PCIE] {
        for class in [KernelClass::Weno, KernelClass::Riemann] {
            if let Some(frac) = achieved_peak_fraction(spec.name, class) {
                let ai = effective_ai(class, profile.class(class).ai());
                out.push(RooflinePoint::from_peak_fraction(&spec, class, ai, frac));
            }
        }
    }
    out
}

pub fn render_fig1(points: &[RooflinePoint]) -> String {
    let mut s = String::from(
        "Fig 1 — Roofline of the hottest kernels\n\
         device               kernel    AI(F/B)  achieved GF/s  attainable GF/s  %peak  bound\n",
    );
    for p in points {
        let spec = spec_by_name(&p.device);
        s.push_str(&format!(
            "{:<20} {:<9} {:>7.2} {:>14.0} {:>16.0} {:>6.1} {}\n",
            p.device,
            p.kernel.name(),
            p.ai,
            p.achieved_gflops,
            p.attainable_gflops,
            100.0 * p.peak_fraction,
            if p.memory_bound(&spec) {
                "memory"
            } else {
                "compute"
            },
        ));
    }
    s
}

/// One row of the weak/strong scaling figures.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalingRow {
    pub machine: String,
    pub series: String,
    pub point: ScalingPoint,
}

/// Figure 2: weak scaling on Summit (to 13824 GPUs) and Frontier (to
/// 65536 GCDs), 8M cells per device.
pub fn fig2_weak_scaling() -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    let summit = MachineModel::summit();
    for p in summit.weak(8.0e6, &[128, 256, 512, 1024, 2048, 4096, 13824]) {
        rows.push(ScalingRow {
            machine: "Summit".into(),
            series: "8M cells/GPU".into(),
            point: p,
        });
    }
    let frontier = MachineModel::frontier(Staging::HostStaged);
    for p in frontier.weak(8.0e6, &[128, 512, 2048, 8192, 32768, 65536]) {
        rows.push(ScalingRow {
            machine: "Frontier".into(),
            series: "8M cells/GCD".into(),
            point: p,
        });
    }
    rows
}

/// Figure 3: strong scaling on Summit (8M cells/GPU base, 8x devices) and
/// Frontier (32M & 16M cells/GCD bases, 16x devices).
pub fn fig3_strong_scaling() -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    let summit = MachineModel::summit();
    let base_p = 8;
    for p in summit.strong(
        8.0e6 * base_p as f64,
        &[base_p, 2 * base_p, 4 * base_p, 8 * base_p],
    ) {
        rows.push(ScalingRow {
            machine: "Summit".into(),
            series: "8M cells/GPU base".into(),
            point: p,
        });
    }
    let frontier = MachineModel::frontier(Staging::HostStaged);
    for (label, cells) in [
        ("32M cells/GCD base", 32.0e6),
        ("16M cells/GCD base", 16.0e6),
    ] {
        for p in frontier.strong(
            cells * base_p as f64,
            &[base_p, 2 * base_p, 4 * base_p, 8 * base_p, 16 * base_p],
        ) {
            rows.push(ScalingRow {
                machine: "Frontier".into(),
                series: label.into(),
                point: p,
            });
        }
    }
    rows
}

/// Figure 4: Frontier strong scaling with and without GPU-aware MPI.
pub fn fig4_gpu_aware() -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    let base_p = 8;
    for (label, staging) in [
        ("host-staged MPI", Staging::HostStaged),
        ("GPU-aware MPI", Staging::DeviceDirect),
    ] {
        let model = MachineModel::frontier(staging);
        for p in model.strong(
            32.0e6 * base_p as f64,
            &[base_p, 2 * base_p, 4 * base_p, 8 * base_p, 16 * base_p],
        ) {
            rows.push(ScalingRow {
                machine: "Frontier".into(),
                series: label.into(),
                point: p,
            });
        }
    }
    rows
}

pub fn render_scaling(title: &str, rows: &[ScalingRow]) -> String {
    let mut s = format!(
        "{title}\nmachine    series                devices  cells/dev  t/step(s)  norm.time  efficiency\n"
    );
    for r in rows {
        s.push_str(&format!(
            "{:<10} {:<21} {:>7} {:>10.2e} {:>10.4} {:>10.3} {:>10.3}\n",
            r.machine,
            r.series,
            r.point.devices,
            r.point.cells_per_device,
            r.point.step_time_s,
            r.point.normalized_time,
            r.point.efficiency,
        ));
    }
    s
}

/// One speedup entry of Fig. 5.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpeedupRow {
    pub gpu: String,
    pub cpu: String,
    pub gpu_grind_ns: f64,
    pub cpu_grind_ns: f64,
    pub speedup: f64,
}

/// Figure 5: grind-time speedup of every GPU over every CPU.
pub fn fig5_speedup() -> Vec<SpeedupRow> {
    let mut rows = Vec::new();
    for cpu in hw::CPUS {
        let ct = grind_for(cpu.name).unwrap().total();
        for gpu in hw::GPUS {
            let gt = grind_for(gpu.name).unwrap().total();
            rows.push(SpeedupRow {
                gpu: gpu.name.into(),
                cpu: cpu.name.into(),
                gpu_grind_ns: gt,
                cpu_grind_ns: ct,
                speedup: ct / gt,
            });
        }
    }
    rows
}

pub fn render_fig5(rows: &[SpeedupRow]) -> String {
    let mut s = String::from(
        "Fig 5 — GPU speedup over CPU sockets (grind time ns/cell/PDE/RHS)\n\
         cpu                    gpu               cpu ns   gpu ns  speedup\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:<22} {:<16} {:>7.2} {:>8.2} {:>8.2}\n",
            r.cpu, r.gpu, r.cpu_grind_ns, r.gpu_grind_ns, r.speedup
        ));
    }
    s
}

/// One device column of Figs. 6–7.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BreakdownRow {
    pub device: String,
    pub total_grind_ns: f64,
    /// (class name, ns, share of total).
    pub components: Vec<(String, f64, f64)>,
}

/// Figures 6 and 7: per-kernel grind-time breakdown on the five GPUs
/// (Fig. 6 is the share view, Fig. 7 the absolute view; both come from
/// the same rows).
pub fn fig6_fig7_breakdown() -> Vec<BreakdownRow> {
    hw::GPUS
        .iter()
        .map(|d| {
            let g = grind_for(d.name).unwrap();
            BreakdownRow {
                device: d.name.into(),
                total_grind_ns: g.total(),
                components: g
                    .shares()
                    .iter()
                    .map(|(c, share)| (c.name().to_string(), g.class(*c), *share))
                    .collect(),
            }
        })
        .collect()
}

pub fn render_fig6_fig7(rows: &[BreakdownRow]) -> String {
    let mut s = String::from(
        "Figs 6/7 — grind-time breakdown (ns/cell/PDE/RHS and % of total)\n\
         device            total     WENO        Riemann     Pack        Other\n",
    );
    for r in rows {
        s.push_str(&format!("{:<17} {:>6.2}  ", r.device, r.total_grind_ns));
        for (_, ns, share) in &r.components {
            s.push_str(&format!("{:>5.2} ({:>4.1}%) ", ns, share * 100.0));
        }
        s.push('\n');
    }
    s
}

fn spec_by_name(name: &str) -> DeviceSpec {
    hw::GPUS
        .iter()
        .chain(hw::CPUS.iter())
        .find(|d| d.name == name)
        .copied()
        .unwrap_or(hw::A100_PCIE)
}

/// Serialize any figure's rows to a JSON record for EXPERIMENTS.md.
pub fn to_json<T: Serialize>(figure: &str, rows: &T) -> String {
    serde_json::json!({ "figure": figure, "rows": rows }).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> WorkloadProfile {
        WorkloadProfile::measure(12, 1)
    }

    #[test]
    fn fig1_reproduces_boundness_claims() {
        let pts = fig1_roofline(&profile());
        let find = |dev: &str, k: KernelClass| {
            pts.iter()
                .find(|p| p.device == dev && p.kernel == k)
                .unwrap()
        };
        // V100: Riemann memory-bound. The paper's WENO kernel is
        // compute-bound there, and so was this solver's while it evaluated
        // the division form per face side (ledger AI 2.0, 10.0 after
        // stencil reuse). The per-cell common-denominator arithmetic does
        // the same reconstruction in half the FLOPs, which puts the
        // measured kernel left of the V100 ridge (5.1 < 7.8): the
        // cross-vendor switch of sides no longer reproduces from this
        // solver's own counts (EXPERIMENTS.md, Fig. 1). It stays several
        // times as intense as the Riemann kernel.
        assert!(find("NV V100 PCIe", KernelClass::Riemann).memory_bound(&hw::V100_PCIE));
        let weno = find("NV V100 PCIe", KernelClass::Weno);
        assert!(weno.memory_bound(&hw::V100_PCIE));
        assert!(weno.ai > 0.6 * hw::V100_PCIE.ridge_ai());
        assert!(weno.ai > 3.0 * find("NV V100 PCIe", KernelClass::Riemann).ai);
        // MI250X: both memory-bound.
        assert!(find("AMD MI250X GCD", KernelClass::Weno).memory_bound(&hw::MI250X_GCD));
        assert!(find("AMD MI250X GCD", KernelClass::Riemann).memory_bound(&hw::MI250X_GCD));
        // Peak fractions as reported.
        assert!((find("NV V100 PCIe", KernelClass::Weno).peak_fraction - 0.45).abs() < 1e-12);
        assert!((find("AMD MI250X GCD", KernelClass::Riemann).peak_fraction - 0.03).abs() < 1e-12);
    }

    #[test]
    fn fig2_efficiencies_match_abstract() {
        let rows = fig2_weak_scaling();
        let last = |machine: &str| {
            rows.iter()
                .rfind(|r| r.machine == machine)
                .unwrap()
                .point
                .efficiency
        };
        assert!((last("Summit") - 0.97).abs() < 0.015);
        assert!((last("Frontier") - 0.95).abs() < 0.015);
    }

    #[test]
    fn fig3_final_efficiencies() {
        let rows = fig3_strong_scaling();
        let last = |series: &str| {
            rows.iter()
                .rfind(|r| r.series == series)
                .unwrap()
                .point
                .efficiency
        };
        assert!((last("8M cells/GPU base") - 0.84).abs() < 0.02);
        assert!((last("32M cells/GCD base") - 0.81).abs() < 0.025);
        assert!(last("16M cells/GCD base") < last("32M cells/GCD base"));
    }

    #[test]
    fn fig4_gpu_aware_wins() {
        let rows = fig4_gpu_aware();
        let last = |series: &str| {
            rows.iter()
                .rfind(|r| r.series == series)
                .unwrap()
                .point
                .efficiency
        };
        let aware = last("GPU-aware MPI");
        let staged = last("host-staged MPI");
        assert!((aware - 0.92).abs() < 0.025, "aware = {aware}");
        assert!((staged - 0.81).abs() < 0.025, "staged = {staged}");
    }

    #[test]
    fn fig5_every_gpu_beats_every_cpu() {
        let rows = fig5_speedup();
        assert_eq!(rows.len(), 20);
        for r in &rows {
            assert!(r.speedup > 1.0, "{} vs {}: {}", r.gpu, r.cpu, r.speedup);
        }
    }

    #[test]
    fn fig6_packing_ratios() {
        let rows = fig6_fig7_breakdown();
        let pack = |dev: &str| {
            rows.iter()
                .find(|r| r.device == dev)
                .unwrap()
                .components
                .iter()
                .find(|(n, _, _)| n == "Pack")
                .unwrap()
                .1
        };
        assert!((pack("NV V100 PCIe") / pack("NV A100 PCIe") - 3.71).abs() < 0.05);
        assert!((pack("AMD MI250X GCD") / pack("NV A100 PCIe") - 2.62).abs() < 0.05);
    }

    #[test]
    fn renders_are_nonempty_and_json_parses() {
        let p = profile();
        assert!(render_fig1(&fig1_roofline(&p)).contains("Riemann"));
        assert!(render_scaling("Fig 2", &fig2_weak_scaling()).contains("Summit"));
        assert!(render_fig5(&fig5_speedup()).contains("Power10"));
        assert!(render_fig6_fig7(&fig6_fig7_breakdown()).contains("MI250X"));
        let j = to_json("fig5", &fig5_speedup());
        let v: serde_json::Value = serde_json::from_str(&j).unwrap();
        assert_eq!(v["figure"], "fig5");
    }
}
