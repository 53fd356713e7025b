//! Packet and flow representations for the data plane.
//!
//! The middleware workloads (fail2ban-style logging, L4 load balancing,
//! paper §2.4) classify traffic by 5-tuple; this module provides the wire
//! metadata those pipelines consume and helpers for sizing packets.

use bytes::Bytes;

use crate::params;

/// An IPv4 5-tuple identifying a transport flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// IP protocol number (6 = TCP, 17 = UDP).
    pub proto: u8,
}

impl FlowKey {
    /// A stable 64-bit hash of the 5-tuple (FNV-1a), used for consistent
    /// hashing in the load balancer and for flow-table indexing.
    pub fn hash64(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut feed = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        for b in self.src_ip.to_be_bytes() {
            feed(b);
        }
        for b in self.dst_ip.to_be_bytes() {
            feed(b);
        }
        for b in self.src_port.to_be_bytes() {
            feed(b);
        }
        for b in self.dst_port.to_be_bytes() {
            feed(b);
        }
        feed(self.proto);
        h
    }
}

/// A packet as seen by an in-fabric pipeline: flow metadata plus payload.
#[derive(Debug, Clone)]
pub struct Packet {
    /// The 5-tuple.
    pub flow: FlowKey,
    /// Payload bytes (header bytes are accounted separately on the wire).
    pub payload: Bytes,
    /// TCP flags byte (SYN = 0x02, FIN = 0x01, RST = 0x04); zero for UDP.
    pub tcp_flags: u8,
}

/// Splits a message of `bytes` into MTU-sized packets and returns the
/// total wire bytes including per-packet headers.
///
/// # Examples
///
/// ```
/// use hyperion_net::frame::wire_bytes_for_message;
///
/// // A 1-byte message still costs one header.
/// assert_eq!(wire_bytes_for_message(1), 79);
/// ```
pub fn wire_bytes_for_message(bytes: u64) -> u64 {
    let packets = packets_for_message(bytes);
    bytes + packets * params::HEADER_BYTES
}

/// Number of MTU-sized packets needed for a message (at least one, so that
/// zero-payload control messages still cost a packet).
pub fn packets_for_message(bytes: u64) -> u64 {
    bytes.div_ceil(params::MTU).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u8) -> FlowKey {
        FlowKey {
            src_ip: 0x0a00_0001,
            dst_ip: 0x0a00_0002,
            src_port: 1000 + n as u16,
            dst_port: 80,
            proto: 6,
        }
    }

    #[test]
    fn hash_is_stable_and_distinguishes_flows() {
        assert_eq!(key(1).hash64(), key(1).hash64());
        assert_ne!(key(1).hash64(), key(2).hash64());
    }

    #[test]
    fn packetization_rounds_up() {
        assert_eq!(packets_for_message(0), 1);
        assert_eq!(packets_for_message(1500), 1);
        assert_eq!(packets_for_message(1501), 2);
        assert_eq!(packets_for_message(150_000), 100);
    }

    #[test]
    fn wire_bytes_include_per_packet_headers() {
        assert_eq!(wire_bytes_for_message(1500), 1500 + 78);
        assert_eq!(wire_bytes_for_message(3000), 3000 + 2 * 78);
    }
}
