//! # hyperion — the CPU-free Data Processing Unit
//!
//! The primary contribution of *CPU-free Computing: A Vision with a
//! Blueprint* (HotOS '23): a complete, self-hosting, network-attached DPU
//! that unifies networking, storage, and computing with **no CPU anywhere
//! on the path** — assembled here from the workspace's substrates.
//!
//! * [`dpu`] — the Figure-2 system: U280 fabric + FPGA-hosted PCIe root
//!   complex + 4 NVMe SSDs, standalone boot with JTAG self-test and
//!   segment-table recovery;
//! * [`control`] — the OS-shell/configuration kernel: authorized
//!   bitstreams over the control port, verify → compile → ICAP deploy of
//!   eBPF kernels into slots (§2, §2.2);
//! * [`services`] — the Willow-style RPC surface: KV, B+ tree pointer
//!   chasing (whole-traversal *and* per-node) and the shared log (§2.4);
//! * [`tenancy`] — multi-tenant slot execution and the predictability
//!   property (§2, §2.5, §4 Q4);
//! * [`platform`] — the paper's physical claims (230 W vs 1,600 W TDP,
//!   5–10x compactness) as data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cluster;
pub mod control;
pub mod dpu;
pub mod nvmeof;
pub mod platform;
pub mod services;
pub mod tenancy;

pub use admission::{Admission, AdmissionConfig, Overload};
pub use cluster::{
    crash_site, ClusterError, ClusterSupervisor, DpuCluster, FailureDetector,
    DEFAULT_PHI_THRESHOLD, FAULT_NODE_CRASH,
};
pub use control::{ControlError, ControlPlane, ControlRequest, ControlResponse, DeployedKernel};
pub use dpu::{DpuBuilder, DpuError, DpuPorts, DpuState, HyperionDpu, SSD_LBAS};
pub use nvmeof::{
    CommandCapsule, FabricOpcode, FabricStatus, Initiator, NvmeOfTarget, ResponseCapsule,
};
pub use platform::{PlatformSpec, HYPERION, SERVER_1U};
pub use services::{KvOp, LogOp, ServiceError, ServiceOp, ServiceResponse, TreeOp};
pub use tenancy::{run_with_co_tenants, TenancyReport};
