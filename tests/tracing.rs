//! End-to-end tracing contract (the `mfc-trace` subsystem):
//!
//! * every traced run — any domain, rank count, sweep engine — yields a
//!   well-nested span tree per rank (property-tested),
//! * the chrome-trace export of a 2-rank run of the shipped Sod case is
//!   schema-valid, its per-kernel aggregated bytes/FLOPs reconcile
//!   **exactly** (bitwise) with the analytic kernel ledger, and the RK
//!   tail shows as one snapshot per step and one combine per stage,
//! * the per-rank comm/compute split — the measured counterpart of the
//!   paper's Fig. 4 analytic curve — is populated,
//! * attaching a tracer never perturbs the physics (bitwise).

use std::sync::Arc;

use proptest::prelude::*;

use mfc::core::case::presets;
use mfc::core::par::{run_distributed, run_distributed_resilient, GlobalField, ResilienceOpts};
use mfc::core::rhs::RhsMode;
use mfc::core::solver::{DtMode, SolverConfig};
use mfc::core::CaseBuilder;
use mfc::mpsim::Staging;
use mfc::trace::{chrome, nesting, reconcile_trace, splits, Tracer};
use mfc_cli::{run_case, CaseFile};

fn cfg_for(mode: RhsMode) -> SolverConfig {
    let mut cfg = SolverConfig {
        dt: DtMode::Cfl(0.4),
        ..Default::default()
    };
    cfg.rhs.mode = mode;
    cfg
}

/// The driver with only its trace layer on.
fn run_traced(
    case: &CaseBuilder,
    cfg: SolverConfig,
    ranks: usize,
    steps: usize,
    tracer: &Arc<Tracer>,
) -> GlobalField {
    let opts = ResilienceOpts {
        trace: Some(Arc::clone(tracer)),
        ..ResilienceOpts::fault_free("", 0)
    };
    let (field, _) =
        run_distributed_resilient(case, cfg, ranks, steps, Staging::DeviceDirect, &opts).unwrap();
    field
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("mfc_tracing_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Run the shipped Sod case on 2 ranks through `run_case` with tracing
/// and the wave-file I/O path, returning the parsed trace.
fn traced_sod_case(dir: &std::path::Path) -> chrome::ParsedTrace {
    let case_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../cases/sod.json");
    let mut cf = CaseFile::from_path(std::path::Path::new(case_path)).unwrap();
    cf.run.ranks = 2;
    cf.run.steps = 8;
    cf.run.t_end = None;
    cf.output.dir = dir.join("out");
    cf.output.vtk = false;
    cf.io.wave_files = true;
    cf.io.wave = 1; // 2 ranks -> 2 writer waves, so the throttle engages
    let trace_path = dir.join("trace.json");
    cf.run.trace = Some(trace_path.clone());
    let summary = run_case(&cf).expect("traced sod run");
    assert_eq!(summary.steps, 8);

    let text = std::fs::read_to_string(&trace_path).unwrap();
    let root: serde_json::Value = serde_json::from_str(&text).unwrap();
    let schema_errors = chrome::validate_schema(&root);
    assert!(
        schema_errors.is_empty(),
        "schema violations: {schema_errors:?}"
    );
    chrome::parse_str(&text).unwrap()
}

#[test]
fn traced_two_rank_sod_exports_valid_reconciling_chrome_trace() {
    let dir = tmpdir("sod2");
    let parsed = traced_sod_case(&dir);

    assert_eq!(parsed.ranks.len(), 2, "one timeline per rank");
    nesting::check_trace(&parsed).expect("span streams must be well-nested");
    reconcile_trace(&parsed)
        .expect("traced per-kernel totals must match the analytic ledger exactly");

    // The fault-free step phases and the wave-throttled I/O show up:
    // every rank carries the spans and the file-write leaf.
    for (rank, events) in &parsed.ranks {
        for span in [
            "step",
            "dt_reduce",
            "rk_stages",
            "halo_exchange",
            "health_verdict",
            "io_wave_write",
        ] {
            assert!(
                events.iter().any(|e| e.name == span),
                "rank {rank} lacks the {span} span"
            );
        }
        assert!(
            events
                .iter()
                .any(|e| e.name == "wave_file" && e.cat == "io"),
            "rank {rank} lacks the wave_file io leaf"
        );
        // The RK tail is ledgered: one q^n snapshot per step and one
        // combine per stage of the case's SSP-RK3.
        let kernels = |name: &str| {
            events
                .iter()
                .filter(|e| e.cat == "kernel" && e.name == name)
                .count()
        };
        assert_eq!(kernels("s_rk_snapshot"), 8, "rank {rank}");
        assert_eq!(kernels("s_rk_combine"), 8 * 3, "rank {rank}");
    }

    // Fig. 4 counterpart: a measured comm/compute split per rank.
    let sp = splits(&parsed);
    assert_eq!(sp.len(), 2);
    for s in &sp {
        assert!(s.kernel_us > 0.0, "rank {} recorded no kernel time", s.rank);
        assert!(s.comm_us > 0.0, "rank {} recorded no comm time", s.rank);
        let f = s.comm_fraction();
        assert!((0.0..1.0).contains(&f), "comm fraction {f} out of range");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tracer_attachment_is_bitwise_transparent() {
    let case = presets::sod(64);
    let cfg = cfg_for(RhsMode::Fused);
    let (plain, _) = run_distributed(&case, cfg, 2, 6).unwrap();
    let tracer = Arc::new(Tracer::new());
    let traced = run_traced(&case, cfg, 2, 6, &tracer);
    assert_eq!(
        plain.max_abs_diff(&traced),
        0.0,
        "tracing must not perturb the physics"
    );
    assert!(!tracer.snapshot().is_empty());
}

/// There is one time step, so it has one spelling in a trace: the phase
/// spans of a serial `Solver` are, name for name and in order, those of a
/// 1-rank distributed run once the rank's halo exchange is set aside.
#[test]
fn serial_and_one_rank_steps_trace_the_same_phase_spans() {
    let case = presets::sod(64);
    let cfg = cfg_for(RhsMode::Fused);
    let steps = 3;

    let serial = Arc::new(Tracer::new());
    let ctx = mfc::Context::serial().with_tracer(serial.handle(0));
    mfc::Solver::new(&case, cfg, ctx).run_steps(steps).unwrap();
    let ranked = Arc::new(Tracer::new());
    run_traced(&case, cfg, 1, steps, &ranked);

    let phases = |tracer: &Tracer| -> Vec<String> {
        let parsed = chrome::parse_str(&chrome::export_to_string(&tracer.snapshot())).unwrap();
        parsed.ranks[&0]
            .iter()
            .filter(|e| e.ph == 'B' && e.cat == "phase" && e.name != "halo_exchange")
            .map(|e| e.name.clone())
            .collect()
    };
    let want: Vec<String> = (0..steps)
        .flat_map(|_| ["step", "dt_reduce", "rk_stages", "health_verdict"])
        .map(String::from)
        .collect();
    assert_eq!(phases(&serial), want);
    assert_eq!(phases(&ranked), want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any traced run yields a well-nested, schema-valid, exactly
    /// reconciling span stream on every rank — across random domains,
    /// rank counts and both sweep engines.
    #[test]
    fn traced_runs_yield_well_nested_span_trees(
        nx in 16usize..32,
        two_d in proptest::bool::ANY,
        ny_2d in 6usize..12,
        rank_sel in 0usize..3,
        fused in proptest::bool::ANY,
        steps in 1usize..4,
    ) {
        let ny = if two_d { ny_2d } else { 1 };
        let ranks = [1usize, 2, 4][rank_sel];
        let ndim = if ny == 1 { 1 } else { 2 };
        let case = presets::two_phase_benchmark(ndim, [nx, ny, 1]);
        let mode = if fused { RhsMode::Fused } else { RhsMode::Staged };
        let tracer = Arc::new(Tracer::new());
        run_traced(&case, cfg_for(mode), ranks, steps, &tracer);

        let traces = tracer.snapshot();
        prop_assert_eq!(traces.len(), ranks);
        // Raw (ns-exact) nesting check on every rank's event stream...
        for t in &traces {
            prop_assert_eq!(t.dropped, 0);
            if let Err(e) = nesting::check_events(&t.events) {
                return Err(proptest::test_runner::TestCaseError::fail(format!(
                    "rank {}: {e}",
                    t.rank
                )));
            }
        }
        // ...and again through the chrome-trace JSON round trip, plus the
        // exact ledger reconciliation.
        let text = chrome::export_to_string(&traces);
        let parsed = chrome::parse_str(&text).unwrap();
        if let Err(e) = nesting::check_trace(&parsed) {
            return Err(proptest::test_runner::TestCaseError::fail(format!(
                "parsed nesting: {e:?}"
            )));
        }
        if let Err(e) = reconcile_trace(&parsed) {
            return Err(proptest::test_runner::TestCaseError::fail(format!(
                "reconcile: {e:?}"
            )));
        }
    }
}
