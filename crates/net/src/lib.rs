//! # hyperion-net — the 100 GbE network substrate
//!
//! Models the rack network the Hyperion DPU attaches to (paper §2,
//! Figure 2: 2x100 Gbps QSFP ports feeding the AXIS datapath):
//!
//! * [`netsim`] — nodes, full-duplex links, and a cut-through switch with
//!   real FIFO queueing (incast contends at receiver downlinks);
//! * [`transport`] — the paper's four application-defined transports
//!   (TCP, UDP, RDMA, Homa) with distinct endpoint and round-trip
//!   profiles, plus the hardware/kernel/bypass endpoint cost models;
//! * [`rpc`] — the Willow-style specializable RPC layer used by every
//!   Hyperion service (§2.4);
//! * [`frame`] — packets, 5-tuples, and packetization math for the
//!   middleware data plane.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod netsim;
pub mod params;
pub mod rpc;
pub mod transport;

pub use frame::{packets_for_message, wire_bytes_for_message, FlowKey, Packet};
pub use netsim::{
    partition_site, NetError, Network, NodeId, FAULT_NET_CORRUPT, FAULT_NET_DROP, FAULT_NET_FLAP,
    FAULT_NODE_PARTITION,
};
pub use rpc::{MethodId, RpcChannel, RPC_FRAMING};
pub use transport::{Delivery, Endpoint, EndpointKind, RetryPolicy, Transport, TransportKind};
