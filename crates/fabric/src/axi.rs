//! The AXI-stream interconnect of Figure 2.
//!
//! The schematic routes both QSFP ports through MUX/DEMUX into an
//! AXIS arbiter, across the accelerator row, and out through a second
//! arbiter toward the NVMe host IP core and PCIe bridges. We model the
//! switch as a set of named endpoints connected through a shared arbiter
//! with a fixed per-beat width and clock: transfers contend on the arbiter
//! and pay a small routing latency, which is how on-die streaming actually
//! behaves at this abstraction level.

use std::collections::HashMap;

use hyperion_sim::resource::Resource;
use hyperion_sim::time::Ns;

use crate::clock::ClockDomain;

/// A named endpoint on the stream switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortId(pub u32);

/// Errors from the stream switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AxiError {
    /// The referenced port was never registered.
    UnknownPort(u32),
    /// A port name was registered twice.
    DuplicatePort(&'static str),
}

impl std::fmt::Display for AxiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AxiError::UnknownPort(p) => write!(f, "unknown AXIS port {p}"),
            AxiError::DuplicatePort(n) => write!(f, "duplicate AXIS port name {n}"),
        }
    }
}

impl std::error::Error for AxiError {}

/// The AXI-stream switch: registered ports plus a shared arbiter.
#[derive(Debug)]
pub struct AxiSwitch {
    clock: ClockDomain,
    bytes_per_beat: u64,
    arbiter: Resource,
    route_latency: Ns,
    by_name: HashMap<&'static str, PortId>,
}

impl AxiSwitch {
    /// Creates a switch with the given beat width (bytes per clock cycle
    /// across the arbiter) in the given clock domain.
    ///
    /// The Hyperion datapath uses 512-bit (64-byte) AXIS at 250 MHz, which
    /// comfortably carries 100 GbE line rate (64 B x 250 MHz = 16 GB/s).
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_beat` is zero.
    pub fn new(clock: ClockDomain, bytes_per_beat: u64) -> AxiSwitch {
        assert!(bytes_per_beat > 0, "beat width must be non-zero");
        AxiSwitch {
            clock,
            bytes_per_beat,
            arbiter: Resource::new("axis-arbiter", 1),
            route_latency: clock.cycles_to_ns(4), // MUX/DEMUX + arbiter stages
            by_name: HashMap::new(),
        }
    }

    /// Registers a named endpoint and returns its id.
    pub fn add_port(&mut self, name: &'static str) -> Result<PortId, AxiError> {
        if self.by_name.contains_key(name) {
            return Err(AxiError::DuplicatePort(name));
        }
        let id = PortId(self.by_name.len() as u32);
        self.by_name.insert(name, id);
        Ok(id)
    }

    /// Looks up a port by name.
    pub fn port(&self, name: &str) -> Option<PortId> {
        self.by_name.get(name).copied()
    }

    /// Streams `bytes` from `src` to `dst` starting no earlier than `now`;
    /// returns the instant the last beat lands.
    pub fn stream(
        &mut self,
        src: PortId,
        dst: PortId,
        now: Ns,
        bytes: u64,
    ) -> Result<Ns, AxiError> {
        if src.0 as usize >= self.by_name.len() {
            return Err(AxiError::UnknownPort(src.0));
        }
        if dst.0 as usize >= self.by_name.len() {
            return Err(AxiError::UnknownPort(dst.0));
        }
        let beats = bytes.div_ceil(self.bytes_per_beat).max(1);
        let svc = self.clock.cycles_to_ns(beats);
        Ok(self.arbiter.access(now, svc) + self.route_latency)
    }

    /// Effective switch bandwidth in bits per second.
    pub fn bandwidth_bps(&self) -> u64 {
        self.bytes_per_beat * 8 * self.clock.mhz() * 1_000_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn switch() -> AxiSwitch {
        AxiSwitch::new(ClockDomain::new(250), 64)
    }

    #[test]
    fn carries_100gbe_line_rate() {
        let s = switch();
        assert!(s.bandwidth_bps() >= 100_000_000_000);
    }

    #[test]
    fn ports_are_named_and_unique() {
        let mut s = switch();
        let q0 = s.add_port("qsfp0").unwrap();
        let nv = s.add_port("nvme").unwrap();
        assert_ne!(q0, nv);
        assert_eq!(s.port("qsfp0"), Some(q0));
        assert_eq!(s.add_port("qsfp0"), Err(AxiError::DuplicatePort("qsfp0")));
    }

    #[test]
    fn stream_time_scales_with_beats() {
        let mut s = switch();
        let a = s.add_port("a").unwrap();
        let b = s.add_port("b").unwrap();
        // 64 bytes = 1 beat = 4 ns + 16 ns routing.
        let t1 = s.stream(a, b, Ns::ZERO, 64).unwrap();
        assert_eq!(t1, Ns(20));
        // 6400 bytes = 100 beats = 400 ns service, queued behind beat 1.
        let t2 = s.stream(a, b, Ns::ZERO, 6400).unwrap();
        assert_eq!(t2, Ns(4 + 400 + 16));
    }

    #[test]
    fn unknown_ports_error() {
        let mut s = switch();
        let a = s.add_port("a").unwrap();
        assert!(matches!(
            s.stream(a, PortId(99), Ns::ZERO, 64),
            Err(AxiError::UnknownPort(99))
        ));
    }
}
