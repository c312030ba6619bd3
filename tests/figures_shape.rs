//! Every table/figure generator produces output with the paper's shape:
//! who wins, by roughly what factor, where crossovers fall.

use mfc::acc::KernelClass;
use mfc::perfmodel::figures::*;
use mfc::perfmodel::packmodel::pack_model_report;
use mfc::perfmodel::projection::projection_report;
use mfc::perfmodel::{hw, WorkloadProfile};
use serde_json::Value;

#[test]
fn fig1_shape() {
    let profile = WorkloadProfile::measure(12, 1);
    let pts = fig1_roofline(&profile);
    // Six points: {WENO, Riemann} x {V100, MI250X, A100}.
    assert_eq!(pts.len(), 6);
    let get = |dev: &str, k: KernelClass| {
        pts.iter()
            .find(|p| p.device == dev && p.kernel == k)
            .unwrap()
    };
    // Paper's percentages.
    assert_eq!(get("NV V100 PCIe", KernelClass::Weno).peak_fraction, 0.45);
    assert_eq!(
        get("NV V100 PCIe", KernelClass::Riemann).peak_fraction,
        0.13
    );
    assert_eq!(get("AMD MI250X GCD", KernelClass::Weno).peak_fraction, 0.21);
    assert_eq!(
        get("AMD MI250X GCD", KernelClass::Riemann).peak_fraction,
        0.03
    );
    // WENO has higher arithmetic intensity than Riemann.
    assert!(
        get("NV V100 PCIe", KernelClass::Weno).ai > get("NV V100 PCIe", KernelClass::Riemann).ai
    );
}

#[test]
fn fig2_shape() {
    let rows = fig2_weak_scaling();
    // Every point ≥ 95%-ish efficiency; monotone non-increasing.
    for machine in ["Summit", "Frontier"] {
        let series: Vec<_> = rows.iter().filter(|r| r.machine == machine).collect();
        assert!(series.len() >= 5);
        assert!(series
            .windows(2)
            .all(|w| w[0].point.devices < w[1].point.devices));
        for r in &series {
            assert!(
                r.point.efficiency > 0.93,
                "{machine} @ {}: {}",
                r.point.devices,
                r.point.efficiency
            );
        }
    }
    // Abstract numbers.
    let last = |m: &str| rows.iter().rfind(|r| r.machine == m).unwrap().point;
    assert_eq!(last("Summit").devices, 13824);
    assert_eq!(last("Frontier").devices, 65536);
    assert!((last("Summit").efficiency - 0.97).abs() < 0.015);
    assert!((last("Frontier").efficiency - 0.95).abs() < 0.015);
}

#[test]
fn fig3_shape() {
    let rows = fig3_strong_scaling();
    // Efficiency decreases with device count within each series.
    for series in [
        "8M cells/GPU base",
        "32M cells/GCD base",
        "16M cells/GCD base",
    ] {
        let pts: Vec<_> = rows.iter().filter(|r| r.series == series).collect();
        assert!(pts.len() >= 4, "{series}");
        for w in pts.windows(2) {
            assert!(
                w[1].point.efficiency <= w[0].point.efficiency + 1e-12,
                "{series}: efficiency increased"
            );
        }
    }
    // Final efficiencies match the paper.
    let last = |s: &str| {
        rows.iter()
            .rfind(|r| r.series == s)
            .unwrap()
            .point
            .efficiency
    };
    assert!((last("8M cells/GPU base") - 0.84).abs() < 0.02);
    assert!((last("32M cells/GCD base") - 0.81).abs() < 0.025);
    // The smaller problem scales worse at every shared device count.
    let big: Vec<_> = rows
        .iter()
        .filter(|r| r.series == "32M cells/GCD base")
        .collect();
    let small: Vec<_> = rows
        .iter()
        .filter(|r| r.series == "16M cells/GCD base")
        .collect();
    for (b, s) in big.iter().zip(&small) {
        assert!(s.point.efficiency <= b.point.efficiency + 1e-12);
    }
}

#[test]
fn fig4_shape() {
    let rows = fig4_gpu_aware();
    let eff = |series: &str| -> Vec<f64> {
        rows.iter()
            .filter(|r| r.series == series)
            .map(|r| r.point.efficiency)
            .collect()
    };
    let aware = eff("GPU-aware MPI");
    let staged = eff("host-staged MPI");
    assert_eq!(aware.len(), staged.len());
    // GPU-aware at least as good everywhere, and ~11 points better at 16x.
    for (a, s) in aware.iter().zip(&staged) {
        assert!(a + 1e-12 >= *s);
    }
    let gap = aware.last().unwrap() - staged.last().unwrap();
    assert!((gap - 0.11).abs() < 0.04, "gap = {gap}");
}

#[test]
fn fig5_shape() {
    let rows = fig5_speedup();
    let speedup = |cpu: &str, gpu: &str| {
        rows.iter()
            .find(|r| r.cpu == cpu && r.gpu == gpu)
            .unwrap()
            .speedup
    };
    // Paper: EPYC Genoa is the fastest CPU → smallest speedups (1.5–5.3).
    let genoa: Vec<f64> = hw::GPUS
        .iter()
        .map(|g| speedup("AMD EPYC 9654 Genoa", g.name))
        .collect();
    let lo = genoa.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = genoa.iter().cloned().fold(0.0, f64::max);
    assert!((lo - 1.5).abs() < 0.2, "lo = {lo}");
    assert!((hi - 5.3).abs() < 0.4, "hi = {hi}");
    // Power10 is slowest → largest speedups (9.1–31.3).
    let p10: Vec<f64> = hw::GPUS
        .iter()
        .map(|g| speedup("IBM Power10", g.name))
        .collect();
    let lo = p10.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = p10.iter().cloned().fold(0.0, f64::max);
    assert!((lo - 9.1).abs() < 0.5, "lo = {lo}");
    assert!((hi - 31.3).abs() < 1.5, "hi = {hi}");
    // Ordering of CPUs: Genoa < XeonMax ~ Grace < Power10 in grind time.
    assert!(
        speedup("AMD EPYC 9654 Genoa", "NV GH200") < speedup("Intel Xeon Max 9468", "NV GH200")
    );
    assert!(speedup("Intel Xeon Max 9468", "NV GH200") < speedup("IBM Power10", "NV GH200"));
}

#[test]
fn fig6_fig7_shape() {
    let rows = fig6_fig7_breakdown();
    assert_eq!(rows.len(), 5);
    let g = |dev: &str| rows.iter().find(|r| r.device == dev).unwrap();
    // Grind-time ordering: GH200 < H100 < A100 < MI250X < V100.
    let order = [
        "NV GH200",
        "NV H100 SXM",
        "NV A100 PCIe",
        "AMD MI250X GCD",
        "NV V100 PCIe",
    ];
    for w in order.windows(2) {
        assert!(
            g(w[0]).total_grind_ns < g(w[1]).total_grind_ns,
            "{} !< {}",
            w[0],
            w[1]
        );
    }
    // Packing ratios (§V): 3.71x and 2.62x vs A100.
    let pack = |dev: &str| g(dev).components.iter().find(|c| c.0 == "Pack").unwrap().1;
    assert!((pack("NV V100 PCIe") / pack("NV A100 PCIe") - 3.71).abs() < 0.05);
    assert!((pack("AMD MI250X GCD") / pack("NV A100 PCIe") - 2.62).abs() < 0.05);
    // WENO times nearly equal on A100/V100/MI250X (+5%, +4.5%).
    let weno = |dev: &str| g(dev).components.iter().find(|c| c.0 == "WENO").unwrap().1;
    assert!(weno("NV V100 PCIe") / weno("NV A100 PCIe") < 1.07);
    assert!(weno("AMD MI250X GCD") / weno("NV A100 PCIe") < 1.07);
    // Riemann +48% / +103%.
    let riem = |dev: &str| {
        g(dev)
            .components
            .iter()
            .find(|c| c.0 == "Riemann")
            .unwrap()
            .1
    };
    assert!((riem("NV V100 PCIe") / riem("NV A100 PCIe") - 1.48).abs() < 0.03);
    assert!((riem("AMD MI250X GCD") / riem("NV A100 PCIe") - 2.03).abs() < 0.03);
}

#[test]
fn json_export_round_trips() {
    let rows = fig5_speedup();
    let j = to_json("fig5", &rows);
    let v: serde_json::Value = serde_json::from_str(&j).unwrap();
    assert_eq!(v["rows"].as_array().unwrap().len(), rows.len());
}

/// JSON equality up to object key order.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Object(x), Value::Object(y)) => {
            x.len() == y.len()
                && x.iter()
                    .all(|(k, v)| y.get(k).is_some_and(|w| same_value(v, w)))
        }
        (Value::Array(x), Value::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(v, w)| same_value(v, w))
        }
        _ => a == b,
    }
}

/// Every committed `results/<name>.json` is what the `figures` binary
/// writes for `<name>` today (the same generator calls), so no paper
/// figure moves unnoticed.
#[test]
fn committed_results_match_the_regenerated_figures() {
    let regenerated = [
        (
            "fig1",
            to_json("fig1", &fig1_roofline(&WorkloadProfile::measure(20, 2))),
        ),
        ("fig2", to_json("fig2", &fig2_weak_scaling())),
        ("fig3", to_json("fig3", &fig3_strong_scaling())),
        ("fig4", to_json("fig4", &fig4_gpu_aware())),
        ("fig5", to_json("fig5", &fig5_speedup())),
        ("fig6_fig7", to_json("fig6_fig7", &fig6_fig7_breakdown())),
        ("packmodel", to_json("packmodel", &pack_model_report())),
        ("projection", to_json("projection", &projection_report())),
    ];
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for (name, json) in regenerated {
        let committed = std::fs::read_to_string(results.join(format!("{name}.json"))).unwrap();
        let committed: Value = serde_json::from_str(&committed).unwrap();
        let now: Value = serde_json::from_str(&json).unwrap();
        assert!(same_value(&committed, &now), "results/{name}.json moved");
    }
}
