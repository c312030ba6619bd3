//! Analytic communication cost model for the scaling studies.
//!
//! Functional communication runs on threads ([`crate::comm`]); *timing* at
//! 128–65,536 devices must be modelled, since no interconnect is attached.
//! The model is the standard postal model plus an explicit host-staging
//! term:
//!
//! ```text
//! t(msg) = latency + bytes / net_bw              (GPU-aware MPI)
//! t(msg) = latency + bytes / net_bw
//!        + 2 * (stage_latency + bytes / host_link_bw)   (host-staged)
//! ```
//!
//! The staged variant is what MFC pays when GPU-aware MPI is unavailable:
//! each halo buffer is copied device→host before `MPI_sendrecv` and
//! host→device after — Fig. 4's 81% → 92% strong-scaling gap is exactly
//! this term.

use serde::{Deserialize, Serialize};

/// Whether halo buffers travel directly from device memory (GPU-aware MPI)
/// or are staged through host memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Staging {
    /// GPU-aware (HIP-coupled / CUDA-aware) MPI: NIC reads device memory.
    DeviceDirect,
    /// Host-staged: explicit D2H before send, H2D after receive.
    HostStaged,
}

/// Interconnect parameters for one machine.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CommParams {
    /// Per-message network latency (s).
    pub latency_s: f64,
    /// Per-device network injection bandwidth (bytes/s).
    pub net_bw: f64,
    /// Device↔host link bandwidth per device (bytes/s), used when staging.
    pub host_link_bw: f64,
    /// Per-copy launch/synchronization overhead when staging (s).
    pub stage_latency_s: f64,
    /// Transfer mode.
    pub staging: Staging,
}

impl CommParams {
    /// OLCF Summit: dual-rail EDR InfiniBand (~23 GB/s injection per
    /// socket ≈ per 3 GPUs → ~8 GB/s per GPU effective), NVLink 2.0 host
    /// links (50 GB/s per GPU), ~1.5 µs MPI latency.
    pub fn summit(staging: Staging) -> Self {
        CommParams {
            latency_s: 1.5e-6,
            net_bw: 8.0e9,
            host_link_bw: 50.0e9,
            stage_latency_s: 5.0e-6,
            staging,
        }
    }

    /// OLCF Frontier: Slingshot-11, 4×25 GB/s NICs per node shared by 8
    /// GCDs → ~12.5 GB/s per GCD, Infinity Fabric host link ~36 GB/s per
    /// GCD, ~2 µs latency.
    pub fn frontier(staging: Staging) -> Self {
        CommParams {
            latency_s: 2.0e-6,
            net_bw: 12.5e9,
            host_link_bw: 36.0e9,
            stage_latency_s: 5.0e-6,
            staging,
        }
    }

    /// Modelled time to exchange one message of `bytes`.
    pub fn message_time(&self, bytes: f64) -> f64 {
        let net = self.latency_s + bytes / self.net_bw;
        match self.staging {
            Staging::DeviceDirect => net,
            Staging::HostStaged => net + 2.0 * (self.stage_latency_s + bytes / self.host_link_bw),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_messages_cost_more() {
        let aware = CommParams::frontier(Staging::DeviceDirect);
        let staged = CommParams::frontier(Staging::HostStaged);
        let bytes = 1.0e6;
        assert!(staged.message_time(bytes) > aware.message_time(bytes));
        let gap = staged.message_time(bytes) - aware.message_time(bytes);
        let want = 2.0 * (staged.stage_latency_s + bytes / staged.host_link_bw);
        assert!((gap - want).abs() < 1e-15);
    }

    #[test]
    fn latency_dominates_small_messages() {
        let p = CommParams::summit(Staging::DeviceDirect);
        let t = p.message_time(8.0);
        assert!((t - p.latency_s) / t < 0.01);
    }
}
