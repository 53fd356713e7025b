//! # hyperion-nvme — the NVMe flash substrate
//!
//! Models the four off-the-shelf NVMe SSDs attached to the Hyperion board
//! through the PCIe crossover (paper §2, Figure 1):
//!
//! * [`flash`] — NAND timing (read/program/erase asymmetry) with channel
//!   and die parallelism, so queueing behaviour is realistic;
//! * [`device`] — the controller plus two namespace specializations the
//!   paper names (§2, §2.4): conventional **block** and a **KV-SSD**.
//!   Commands mutate real state, so higher layers (file system, LSM,
//!   Corfu log) get correctness and timing from the same calls. The
//!   device's queue is the set of in-flight completion instants: a
//!   submission sees as its depth the commands not yet completed. The
//!   paper also names zoned namespaces (ZNS); no experiment measures
//!   them, so they are not modelled.
//!
//! The FPGA-hosted root complex that makes these devices reachable without
//! a host CPU lives in `hyperion-pcie`; the NVMe-oF network target lives in
//! the `hyperion` core crate where transports are available.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blocks;
pub mod device;
pub mod flash;
pub mod params;
mod prefixes;

pub use device::{
    Command, Completion, NamespaceKind, NvmeDevice, NvmeError, Response, FAULT_NVME_LATENCY_SPIKE,
    FAULT_NVME_MEDIA_READ,
};
pub use flash::{FlashArray, FlashOp};
