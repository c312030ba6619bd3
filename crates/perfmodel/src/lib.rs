//! Performance model regenerating the paper's evaluation (Figs. 1–7).
//!
//! No V100/A100/H100/GH200/MI250X or Summit/Frontier is attached to this
//! machine, so device timing is *modelled* rather than measured — but the
//! model's inputs are real: per-kernel FLOP/byte/iteration counts come from
//! the instrumented Rust solver's ledger ([`workload`]), the hardware
//! catalog carries the public spec sheet numbers ([`hw`]), and the
//! communication model runs the same halo-volume arithmetic as the real
//! decomposition ([`scaling`]).
//!
//! Calibration policy (documented per constant in [`calib`]): constants
//! that cannot be derived from first principles on this machine — achieved
//! fraction of peak per kernel class, per-message orchestration overheads —
//! are fitted to the paper's own reported measurements, and every *other*
//! figure is then predicted from them, which is what the integration tests
//! check (who wins, by what factor, where crossovers fall).

pub mod calib;
pub mod figures;
pub mod hw;
pub mod packmodel;
pub mod projection;
pub mod roofline;
pub mod scaling;
pub mod workload;

pub use calib::{DeviceGrind, GRIND_TABLE};
pub use hw::{DeviceKind, DeviceSpec};
pub use projection::{projection_report, ProjectionRow};
pub use roofline::{attainable_gflops, RooflinePoint};
pub use scaling::{MachineModel, ScalingPoint};
pub use workload::WorkloadProfile;
