//! The distributed driver beyond rank-count equivalence, on simulated
//! ranks: message faults, halo traffic, the wave writer, and `t_end` with
//! probes. The rank count is an axis of the generated matrix
//! (`tests/matrix.rs`), whose members — every geometry × dt × rank count
//! among them — are checked against their 1-rank reference there.

use mfc::core::par::{run_distributed, run_single};
use mfc::mpsim::{Staging, WaveWriter, World};
use mfc::{presets, SolverConfig};

#[test]
fn message_faults_are_bitwise_invisible_at_4ranks() {
    // Satellite regression: with message faults in flight (delays that
    // reorder delivery *and* drops that force policied retransmits), the
    // halo exchange must still produce the fault-free serial answer,
    // bitwise, at 4 ranks.
    use std::sync::Arc;

    use mfc::core::par::{run_distributed_resilient, ResilienceOpts};
    use mfc::mpsim::{DetectorConfig, FaultCtx, FaultPlan, MsgDelay, MsgFault};
    let case = presets::two_phase_benchmark(2, [20, 20, 1]);
    let cfg = SolverConfig::default();
    let steps = 6;
    let serial = run_single(&case, cfg, steps);
    let plan = FaultPlan {
        delays: vec![
            MsgDelay {
                src: 0,
                dst: 1,
                nth: 2,
                hold: 2,
            },
            MsgDelay {
                src: 3,
                dst: 2,
                nth: 4,
                hold: 1,
            },
        ],
        drops: vec![MsgFault {
            src: 1,
            dst: 3,
            nth: 3,
        }],
        ..FaultPlan::none()
    };
    let dir = std::env::temp_dir().join(format!("mfc_fault_msgs_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let faults = Arc::new(FaultCtx::new(plan, 4).with_detector(DetectorConfig {
        slice_ms: 5,
        retries: 8,
        backoff: 1.5,
    }));
    let opts = ResilienceOpts {
        faults: Some(faults),
        ..ResilienceOpts::fault_free(&dir, 2)
    };
    let (dist, _) =
        run_distributed_resilient(&case, cfg, 4, steps, Staging::DeviceDirect, &opts).unwrap();
    assert_eq!(dist.max_abs_diff(&serial), 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn halo_traffic_is_surface_not_volume() {
    let cfg = SolverConfig::default();
    let small = presets::two_phase_benchmark(3, [12, 12, 12]);
    let big = presets::two_phase_benchmark(3, [24, 24, 24]);
    let (_, s) = run_distributed(&small, cfg, 8, 1).unwrap();
    let (_, b) = run_distributed(&big, cfg, 8, 1).unwrap();
    // Linear dimension doubles: halo bytes should grow ~4x (surface), far
    // less than the 8x volume growth.
    let ratio = b.bytes as f64 / s.bytes as f64;
    assert!(ratio > 2.0 && ratio < 6.0, "ratio = {ratio}");
}

#[test]
fn wave_writer_round_trips_solver_output() {
    // File-per-process output in waves of 2, then read back and compare.
    let dir = std::env::temp_dir().join(format!("mfc_dist_io_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let data_per_rank: Vec<Vec<f64>> = (0..6)
        .map(|r| (0..32).map(|i| (r * 1000 + i) as f64).collect())
        .collect();
    let dref = &data_per_rank;
    let dirref = &dir;
    World::run(6, |c| {
        let path = WaveWriter::rank_path(dirref, 7, c.rank());
        let bytes: Vec<u8> = dref[c.rank()]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        WaveWriter::new(2)
            .write(&c, bytes.len() as u64, || std::fs::write(path, &bytes))
            .unwrap();
    });
    for (r, want) in data_per_rank.iter().enumerate() {
        let bytes = std::fs::read(WaveWriter::rank_path(&dir, 7, r)).unwrap();
        let got: Vec<f64> = bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(&got, want);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// What admission used to refuse on more than one rank: a `t_end` case
/// with probes, one of them on the block face x = 0.5 of the 2- and
/// 4-rank layouts. On 1, 2 and 4 ranks — and as one lone block — the last
/// step lands on `t_end` bit for bit, the final states are bitwise equal
/// and the probe CSVs byte-identical.
#[test]
fn t_end_and_probes_are_rank_count_invariant() {
    use mfc::core::output::block_to_vec;
    use mfc::core::par::{run_ranks, GlobalField, ResilienceOpts};
    use mfc::core::probes::{Probe, ProbeOutput, ProbeSet};
    use mfc::core::{StepControl, Stop};
    use mfc::Context;

    let case = presets::two_phase_benchmark(2, [24, 24, 1]);
    let cfg = SolverConfig::default();
    let mut lone = mfc::Solver::new(&case, cfg, Context::serial());
    lone.run_steps(5).unwrap();
    // Between two of the run's natural steps, so the last one is clipped.
    let t_end = 0.7 * lone.time();
    let stop = Stop {
        steps: u64::MAX,
        t_end,
    };
    let probes = vec![
        Probe {
            name: "face".into(),
            x: [0.5, 0.3, 0.0],
        },
        Probe {
            name: "inner".into(),
            x: [0.8, 0.55, 0.0],
        },
    ];
    let dir = std::env::temp_dir().join(format!("mfc_dist_probes_{}", std::process::id()));
    let csvs = |sub: &str| {
        ["face", "inner"]
            .map(|p| std::fs::read(dir.join(sub).join(format!("{p}_probe.csv"))).unwrap())
    };

    let mut lone = mfc::Solver::new(&case, cfg, Context::serial());
    let mut set = ProbeSet::new(probes.clone(), lone.domain(), lone.grid());
    lone.run(stop, Some(&mut set), |_| StepControl::Continue)
        .unwrap();
    assert_eq!(lone.time().to_bits(), t_end.to_bits());
    std::fs::create_dir_all(dir.join("lone")).unwrap();
    set.write_csvs(&dir.join("lone"), &lone).unwrap();
    let serial = GlobalField {
        n: case.cells,
        neq: lone.domain().eq.neq(),
        data: block_to_vec(lone.state()),
    };
    for ranks in [1usize, 2, 4] {
        let sub = format!("r{ranks}");
        std::fs::create_dir_all(dir.join(&sub)).unwrap();
        let out = ProbeOutput {
            dir: dir.join(&sub),
            probes: probes.clone(),
        };
        let opts = ResilienceOpts::fault_free("", 0);
        let (field, stats) = run_ranks(&case, cfg, ranks, stop, Some(&out), &opts).unwrap();
        assert_eq!(stats.time.to_bits(), t_end.to_bits(), "{ranks} ranks");
        assert_eq!(stats.steps, lone.steps(), "{ranks} ranks");
        assert_eq!(field.max_abs_diff(&serial), 0.0, "{ranks} ranks");
        assert!(
            csvs(&sub) == csvs("lone"),
            "{ranks} ranks: probe CSVs differ"
        );
    }
    let rows = String::from_utf8(csvs("lone")[0].clone()).unwrap();
    assert_eq!(rows.lines().count() as u64, lone.steps());
    let _ = std::fs::remove_dir_all(&dir);
}
