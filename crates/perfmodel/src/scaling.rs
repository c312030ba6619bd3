//! Weak/strong scaling model of Summit and Frontier (Figs. 2–4).
//!
//! Per time step, one device pays:
//!
//! ```text
//! T = grind * cells * neq * rhs_evals                  (compute)
//!   + rhs_evals * sum_faces [ msg_time(face_bytes) ]   (halo bandwidth+latency)
//!   + rhs_evals * messages * t_overhead                (pack/unpack, launch, sync)
//!   + gamma * log2(max(P, 128) / 128)                  (jitter/contention beyond base scale)
//! ```
//!
//! The collective/jitter term is zero at and below the 128-device base
//! scale: a tree allreduce at those counts costs microseconds; the
//! measurable weak-scaling loss at O(10^4) devices is network contention
//! and OS jitter, which is what `gamma` absorbs.
//!
//! `msg_time` carries the GPU-aware vs host-staged distinction
//! ([`mfc_mpsim::CommParams`]); `t_overhead` and `gamma` are calibrated to
//! the paper's reported efficiencies (84% Summit strong at 8x; 81%/92%
//! Frontier strong at 16x without/with GPU-aware MPI; 97%/95% weak
//! scaling) and then reused for every other point on the curves.

use serde::{Deserialize, Serialize};

use mfc_mpsim::{CommParams, Staging};

/// One machine's model parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MachineModel {
    pub name: &'static str,
    /// Grind time of one device (ns / cell / PDE / RHS), from the
    /// calibrated table.
    pub grind_ns: f64,
    /// Interconnect parameters.
    pub comm: CommParams,
    /// Fixed orchestration cost per halo message (s): buffer pack/unpack
    /// kernels, launch latency, synchronization. Fitted.
    pub per_msg_overhead_s: f64,
    /// Collective/jitter coefficient (s per log2(P) per step). Fitted.
    pub collective_coeff_s: f64,
    /// PDE count of the benchmark problem (2-phase 3-D: 7).
    pub neq: usize,
    /// RHS evaluations per step (RK3: 3).
    pub rhs_per_step: usize,
    /// Ghost layers exchanged (WENO5: 3).
    pub ng: usize,
}

impl MachineModel {
    /// OLCF Summit: V100 devices, CUDA-aware MPI.
    pub fn summit() -> Self {
        MachineModel {
            name: "OLCF Summit (V100)",
            grind_ns: 2.40,
            comm: CommParams::summit(Staging::DeviceDirect),
            per_msg_overhead_s: 523e-6,
            collective_coeff_s: 2.0e-3,
            neq: 7,
            rhs_per_step: 3,
            ng: 3,
        }
    }

    /// OLCF Frontier: MI250X GCDs; `staging` selects GPU-aware vs
    /// host-staged MPI (Fig. 4's comparison).
    pub fn frontier(staging: Staging) -> Self {
        MachineModel {
            name: "OLCF Frontier (MI250X GCD)",
            grind_ns: 1.70,
            comm: CommParams::frontier(staging),
            per_msg_overhead_s: match staging {
                Staging::DeviceDirect => 238e-6,
                Staging::HostStaged => 797e-6,
            },
            collective_coeff_s: 2.0e-3,
            neq: 7,
            rhs_per_step: 3,
            ng: 3,
        }
    }

    /// Modelled wall time of one time step.
    pub fn step_time(&self, devices: usize, cells_per_device: f64) -> f64 {
        self.compute_time(cells_per_device)
            + self.comm_time(devices, cells_per_device)
            + self.collective_time(devices)
    }

    /// Kernel time of one step: every RHS evaluation at the device's grind.
    fn compute_time(&self, cells_per_device: f64) -> f64 {
        self.grind_ns * 1e-9 * cells_per_device * self.neq as f64 * self.rhs_per_step as f64
    }

    /// Jitter/contention beyond the 128-device base scale.
    fn collective_time(&self, devices: usize) -> f64 {
        self.collective_coeff_s * (devices.max(128) as f64 / 128.0).log2().max(0.0)
    }

    /// Total halo time of one step (bandwidth + latency + per-message
    /// orchestration), before any of it hides behind compute.
    pub fn comm_time(&self, devices: usize, cells_per_device: f64) -> f64 {
        // Near-cubic block: the decomposition the paper uses.
        let edge = cells_per_device.cbrt();
        let face_bytes = edge * edge * self.ng as f64 * self.neq as f64 * 8.0;
        // Six faces exchanged per RHS evaluation (both directions of the
        // three split axes); none when running on a single device.
        let faces = if devices > 1 { 6 } else { 0 };
        self.rhs_per_step as f64
            * faces as f64
            * (self.comm.message_time(face_bytes) + self.per_msg_overhead_s)
    }

    /// The four compute phases of one step under the pipelined exchange
    /// and the communication each one hides: `(t_phase, t_comm_behind)` for
    /// the prelude (x messages), the x sweep (y messages), the y sweep (z
    /// messages) and the z sweep (nothing in flight).
    fn pipeline(&self, devices: usize, cells_per_device: f64) -> [(f64, f64); 4] {
        let compute = self.compute_time(cells_per_device);
        let t_prelude = PRELUDE_SHARE * compute;
        let t_sweep = (compute - t_prelude) / 3.0;
        let t_axis = self.comm_time(devices, cells_per_device) / 3.0;
        [
            (t_prelude, t_axis),
            (t_sweep, t_axis),
            (t_sweep, t_axis),
            (t_sweep, 0.0),
        ]
    }

    /// Modelled wall time of one step with the overlapped exchange, as the
    /// solver schedules it: each axis's third of the halo time flies
    /// behind one whole-grid phase — x behind the prelude's zeroing, y
    /// behind the x sweep, z behind the y sweep — so the step pays
    /// `max(t_comm/3, t_phase)` per axis plus the z sweep, instead of
    /// `t_comm + t_compute`.
    pub fn step_time_overlapped(&self, devices: usize, cells_per_device: f64) -> f64 {
        let phases = self.pipeline(devices, cells_per_device);
        phases.iter().map(|&(t, c)| t.max(c)).sum::<f64>() + self.collective_time(devices)
    }

    /// Communication time still exposed (not hidden behind the phase it
    /// flies behind) per step under the overlapped exchange.
    pub fn exposed_comm_s(&self, devices: usize, cells_per_device: f64) -> f64 {
        let phases = self.pipeline(devices, cells_per_device);
        phases.iter().map(|&(t, c)| (c - t).max(0.0)).sum()
    }
}

/// Share of an RHS evaluation spent before the first sweep (zeroing the
/// RHS and div(u) accumulators; the sweeps convert to primitives per
/// pencil): 6.7 of 252 ms per evaluation of this solver's 96³ two-phase
/// case on a 2-vCPU host (EXPERIMENTS.md, "Primitives per pencil"). It
/// is what the x messages have to hide behind.
const PRELUDE_SHARE: f64 = 0.026;

/// One point of a scaling study.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ScalingPoint {
    pub devices: usize,
    pub cells_per_device: f64,
    pub step_time_s: f64,
    /// Weak: T(base)/T(P). Strong: T(base)·P_base / (T(P)·P).
    pub efficiency: f64,
    /// Wall time normalized by the base case (Fig. 2's y-axis).
    pub normalized_time: f64,
}

/// The scaling model driver.
#[derive(Debug, Clone, Copy)]
pub struct ScalingModel {
    pub machine: MachineModel,
    /// Model the overlapped exchange
    /// ([`MachineModel::step_time_overlapped`]) instead of the exposed
    /// one. Off by default; the calibrated efficiencies of Figs. 2–4 are
    /// fitted with the exchange exposed, as the paper measured it.
    pub overlap: bool,
}

impl ScalingModel {
    pub fn new(machine: MachineModel) -> Self {
        ScalingModel {
            machine,
            overlap: false,
        }
    }

    /// A model of the same machine running the overlapped exchange.
    pub fn overlapped(machine: MachineModel) -> Self {
        ScalingModel {
            machine,
            overlap: true,
        }
    }

    fn step(&self, devices: usize, cells_per_device: f64) -> f64 {
        if self.overlap {
            self.machine.step_time_overlapped(devices, cells_per_device)
        } else {
            self.machine.step_time(devices, cells_per_device)
        }
    }

    /// Weak scaling: constant `cells_per_device`, device counts in
    /// `series` (first entry is the base).
    pub fn weak(&self, cells_per_device: f64, series: &[usize]) -> Vec<ScalingPoint> {
        let base = self.step(series[0], cells_per_device);
        series
            .iter()
            .map(|&p| {
                let t = self.step(p, cells_per_device);
                ScalingPoint {
                    devices: p,
                    cells_per_device,
                    step_time_s: t,
                    efficiency: base / t,
                    normalized_time: t / base,
                }
            })
            .collect()
    }

    /// Strong scaling: constant `global_cells`, device counts in `series`
    /// (first entry is the base).
    pub fn strong(&self, global_cells: f64, series: &[usize]) -> Vec<ScalingPoint> {
        let base_p = series[0];
        let base = self.step(base_p, global_cells / base_p as f64);
        series
            .iter()
            .map(|&p| {
                let cells = global_cells / p as f64;
                let t = self.step(p, cells);
                ScalingPoint {
                    devices: p,
                    cells_per_device: cells,
                    step_time_s: t,
                    efficiency: (base * base_p as f64) / (t * p as f64),
                    normalized_time: t / base,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summit_weak_scaling_hits_97_percent() {
        // Fig. 2a: 128 → 13824 V100s at 97% efficiency.
        let m = ScalingModel::new(MachineModel::summit());
        let pts = m.weak(8.0e6, &[128, 1024, 13824]);
        let eff = pts.last().unwrap().efficiency;
        assert!((eff - 0.97).abs() < 0.015, "eff = {eff}");
    }

    #[test]
    fn frontier_weak_scaling_hits_95_percent() {
        // Fig. 2b: 128 → 65536 GCDs at 95% efficiency.
        let m = ScalingModel::new(MachineModel::frontier(Staging::HostStaged));
        let pts = m.weak(8.0e6, &[128, 4096, 65536]);
        let eff = pts.last().unwrap().efficiency;
        assert!((eff - 0.95).abs() < 0.015, "eff = {eff}");
    }

    #[test]
    fn summit_strong_scaling_84_percent_at_8x() {
        // Fig. 3a: 8M cells/GPU base, 84% at 8x devices.
        let m = ScalingModel::new(MachineModel::summit());
        let base_p = 8;
        let global = 8.0e6 * base_p as f64;
        let pts = m.strong(global, &[base_p, 8 * base_p]);
        let eff = pts.last().unwrap().efficiency;
        assert!((eff - 0.84).abs() < 0.02, "eff = {eff}");
    }

    #[test]
    fn frontier_strong_scaling_81_vs_92_percent_at_16x() {
        // Figs. 3b/4: 32M cells/GCD base; 81% host-staged, 92% GPU-aware.
        let base_p = 8;
        let global = 32.0e6 * base_p as f64;
        let staged = ScalingModel::new(MachineModel::frontier(Staging::HostStaged))
            .strong(global, &[base_p, 16 * base_p]);
        let aware = ScalingModel::new(MachineModel::frontier(Staging::DeviceDirect))
            .strong(global, &[base_p, 16 * base_p]);
        let e_staged = staged.last().unwrap().efficiency;
        let e_aware = aware.last().unwrap().efficiency;
        assert!((e_staged - 0.81).abs() < 0.025, "staged eff = {e_staged}");
        assert!((e_aware - 0.92).abs() < 0.025, "aware eff = {e_aware}");
        assert!(e_aware > e_staged + 0.08);
    }

    #[test]
    fn smaller_problems_scale_worse() {
        // Fig. 3: the 16M-cells/GCD series sits below the 32M series and
        // flattens out.
        let m = ScalingModel::new(MachineModel::frontier(Staging::HostStaged));
        let base_p = 8;
        let big = m.strong(32.0e6 * base_p as f64, &[base_p, 16 * base_p]);
        let small = m.strong(16.0e6 * base_p as f64, &[base_p, 16 * base_p]);
        assert!(small.last().unwrap().efficiency < big.last().unwrap().efficiency - 0.03);
    }

    #[test]
    fn strong_scaling_wall_time_flattens_at_extreme_counts() {
        let m = ScalingModel::new(MachineModel::frontier(Staging::HostStaged));
        let base_p = 8;
        let pts = m.strong(16.0e6 * base_p as f64, &[base_p, 64 * base_p, 256 * base_p]);
        // Device count x4 between the last two points, but wall time
        // improves by far less than 4x (the Fig. 3 flatline).
        let speedup = pts[1].step_time_s / pts[2].step_time_s;
        assert!(speedup < 2.0, "speedup = {speedup}");
    }

    #[test]
    fn weak_scaling_time_is_flat_in_absolute_terms() {
        let m = ScalingModel::new(MachineModel::summit());
        let pts = m.weak(8.0e6, &[128, 13824]);
        assert!(pts[1].normalized_time < 1.05);
    }

    #[test]
    fn single_device_pays_no_halo() {
        let m = MachineModel::summit();
        let t1 = m.step_time(1, 8.0e6);
        let t2 = m.step_time(2, 8.0e6);
        assert!(t2 > t1);
    }

    #[test]
    fn overlap_never_slows_a_step() {
        // Each max(t_comm/3, t_phase) <= t_comm/3 + t_phase, and the
        // phases sum to t_compute.
        for m in [
            MachineModel::summit(),
            MachineModel::frontier(Staging::HostStaged),
            MachineModel::frontier(Staging::DeviceDirect),
        ] {
            for cells in [1.0e6, 8.0e6, 32.0e6] {
                for p in [1usize, 8, 128, 2048] {
                    let plain = m.step_time(p, cells);
                    let over = m.step_time_overlapped(p, cells);
                    assert!(over <= plain + 1e-15, "{}: {over} > {plain}", m.name);
                }
            }
        }
    }

    #[test]
    fn overlap_hides_comm_when_interior_dominates() {
        // 32M cells/GCD: every phase — even the accumulator zeroing — is
        // far longer than an axis's halo messages, so all the comm time
        // hides and the exposed remainder is zero.
        let m = MachineModel::frontier(Staging::HostStaged);
        let exposed = m.exposed_comm_s(128, 32.0e6);
        assert_eq!(exposed, 0.0, "exposed = {exposed}");
        let saved = m.step_time(128, 32.0e6) - m.step_time_overlapped(128, 32.0e6);
        let comm = m.comm_time(128, 32.0e6);
        assert!((saved - comm).abs() < 1e-12);
    }

    #[test]
    fn overlap_cannot_hide_comm_on_tiny_blocks() {
        // A deeply strong-scaled block sweeps an axis faster than that
        // axis's messages (mostly fixed per-message cost) arrive, so they
        // stay mostly exposed.
        let m = MachineModel::frontier(Staging::HostStaged);
        let cells = 5.0e4; // ~37^3
        let exposed = m.exposed_comm_s(2048, cells);
        let comm = m.comm_time(2048, cells);
        assert!(exposed > 0.5 * comm, "exposed {exposed} of {comm}");
    }

    #[test]
    fn overlap_improves_strong_scaling_efficiency() {
        let base_p = 8;
        let global = 32.0e6 * base_p as f64;
        let plain = ScalingModel::new(MachineModel::frontier(Staging::HostStaged))
            .strong(global, &[base_p, 16 * base_p]);
        let over = ScalingModel::overlapped(MachineModel::frontier(Staging::HostStaged))
            .strong(global, &[base_p, 16 * base_p]);
        let e_plain = plain.last().unwrap().efficiency;
        let e_over = over.last().unwrap().efficiency;
        assert!(e_over > e_plain, "{e_over} <= {e_plain}");
    }

    #[test]
    fn overlap_off_is_byte_identical_to_the_calibrated_model() {
        // ScalingModel::new must keep producing the fitted Fig. 2–4
        // numbers bit for bit; the overlap flag only adds a new path.
        let m = ScalingModel::new(MachineModel::summit());
        for p in m.weak(8.0e6, &[128, 1024, 13824]) {
            let direct = m.machine.step_time(p.devices, p.cells_per_device);
            assert_eq!(p.step_time_s.to_bits(), direct.to_bits());
        }
    }
}
