//! # hyperion-telemetry — end-to-end attribution on the virtual clock
//!
//! The paper's promise is *predictable, interference-free execution* once
//! a bitstream is placed (§2) and measurable wins over the CPU-mediated
//! paths of Table 1. Aggregate end-to-end numbers cannot say *which hop*
//! — network, fabric, PCIe, or flash — a nanosecond or picojoule went to.
//! This crate is the measurement discipline Dagger and hXDP apply to FPGA
//! pipelines, reproduced for the simulator:
//!
//! * [`span`] — a span tree per request on the virtual clock ([`Ns`]),
//!   opened/closed by the instrumented layers (`net` transports, `pcie`
//!   DMA, `nvme` submission, `core` service dispatch);
//! * [`Recorder`] — the lightweight handle threaded through the request
//!   path; aggregates per-hop latency [`Histogram`]s, per-service-op
//!   latency, queue-depth/occupancy gauges, and per-component picojoule
//!   attribution;
//! * [`json`] — a deterministic machine-readable dump (same seed →
//!   byte-identical output) that `hyperion-bench`'s `report` binary turns
//!   into "where did the nanoseconds go" tables;
//! * [`trace`] — Chrome/Perfetto `trace_event` export of the span tree,
//!   openable directly in `ui.perfetto.dev`;
//! * [`critical_path`] — per-request nanosecond attribution over span
//!   nesting and queueing edges, with the invariant that per-hop self
//!   times sum *exactly* to end-to-end latency;
//! * [`util`] — the utilization plane: opt-in busy/occupancy accounting
//!   per resource (net links, PCIe lanes, NVMe channels, fabric slots)
//!   plus the bottleneck-attribution pass ([`util::blame`]) that joins it
//!   with the critical-path queue edges;
//! * [`registry`] — the closed set of `component:metric` counter/gauge
//!   names the instrumented layers may emit.
//!
//! Everything here follows the workspace's simulation contract: no
//! wall-clock reads, no ambient state, integer virtual time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod critical_path;
pub mod json;
pub mod power;
pub mod recorder;
pub mod registry;
pub mod span;
pub mod trace;
pub mod util;

pub use critical_path::{HopAttribution, RequestPath};
pub use recorder::{At, Gauge, HopRow, Recorder};
pub use span::{Component, SpanId};
pub use trace::to_perfetto;
pub use util::{blame, BlameReport, BlameRow, ResourceUtil, UtilPlane};

pub use hyperion_sim::stats::Histogram;
pub use hyperion_sim::time::Ns;
