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

    /// Modelled wall time of one time step (the module doc's `T`). The
    /// halo time is all exposed: the paired exchange finishes before the
    /// RHS evaluation starts.
    pub fn step_time(&self, devices: usize, cells_per_device: f64) -> f64 {
        // Kernel time: every RHS evaluation at the device's grind.
        let compute =
            self.grind_ns * 1e-9 * cells_per_device * self.neq as f64 * self.rhs_per_step as f64;
        // Halo time on a near-cubic block (the paper's decomposition): six
        // faces per RHS evaluation (both directions of the three split
        // axes), none when running on a single device.
        let edge = cells_per_device.cbrt();
        let face_bytes = edge * edge * self.ng as f64 * self.neq as f64 * 8.0;
        let faces = if devices > 1 { 6 } else { 0 };
        let comm = self.rhs_per_step as f64
            * faces as f64
            * (self.comm.message_time(face_bytes) + self.per_msg_overhead_s);
        // Jitter/contention beyond the 128-device base scale.
        let collective =
            self.collective_coeff_s * (devices.max(128) as f64 / 128.0).log2().max(0.0);
        compute + comm + collective
    }

    /// Weak scaling: constant `cells_per_device`, device counts in
    /// `series` (first entry is the base).
    pub fn weak(&self, cells_per_device: f64, series: &[usize]) -> Vec<ScalingPoint> {
        let base = self.step_time(series[0], cells_per_device);
        series
            .iter()
            .map(|&p| {
                let t = self.step_time(p, cells_per_device);
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
        let base = self.step_time(base_p, global_cells / base_p as f64);
        series
            .iter()
            .map(|&p| {
                let cells = global_cells / p as f64;
                let t = self.step_time(p, cells);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summit_weak_scaling_hits_97_percent() {
        // Fig. 2a: 128 → 13824 V100s at 97% efficiency.
        let m = MachineModel::summit();
        let pts = m.weak(8.0e6, &[128, 1024, 13824]);
        let eff = pts.last().unwrap().efficiency;
        assert!((eff - 0.97).abs() < 0.015, "eff = {eff}");
    }

    #[test]
    fn frontier_weak_scaling_hits_95_percent() {
        // Fig. 2b: 128 → 65536 GCDs at 95% efficiency.
        let m = MachineModel::frontier(Staging::HostStaged);
        let pts = m.weak(8.0e6, &[128, 4096, 65536]);
        let eff = pts.last().unwrap().efficiency;
        assert!((eff - 0.95).abs() < 0.015, "eff = {eff}");
    }

    #[test]
    fn summit_strong_scaling_84_percent_at_8x() {
        // Fig. 3a: 8M cells/GPU base, 84% at 8x devices.
        let m = MachineModel::summit();
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
        let staged =
            MachineModel::frontier(Staging::HostStaged).strong(global, &[base_p, 16 * base_p]);
        let aware =
            MachineModel::frontier(Staging::DeviceDirect).strong(global, &[base_p, 16 * base_p]);
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
        let m = MachineModel::frontier(Staging::HostStaged);
        let base_p = 8;
        let big = m.strong(32.0e6 * base_p as f64, &[base_p, 16 * base_p]);
        let small = m.strong(16.0e6 * base_p as f64, &[base_p, 16 * base_p]);
        assert!(small.last().unwrap().efficiency < big.last().unwrap().efficiency - 0.03);
    }

    #[test]
    fn strong_scaling_wall_time_flattens_at_extreme_counts() {
        let m = MachineModel::frontier(Staging::HostStaged);
        let base_p = 8;
        let pts = m.strong(16.0e6 * base_p as f64, &[base_p, 64 * base_p, 256 * base_p]);
        // Device count x4 between the last two points, but wall time
        // improves by far less than 4x (the Fig. 3 flatline).
        let speedup = pts[1].step_time_s / pts[2].step_time_s;
        assert!(speedup < 2.0, "speedup = {speedup}");
    }

    #[test]
    fn weak_scaling_time_is_flat_in_absolute_terms() {
        let m = MachineModel::summit();
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
}
