//! Timeline resources: the queueing primitive of the simulation kernel.
//!
//! Most Hyperion experiments are request/response flows whose latency is the
//! composition of service times at a handful of contended stations (a flash
//! channel, a network link, a PCIe root complex, a CPU core). Each station
//! is modeled as a k-server FIFO *timeline*: a request arriving at `now`
//! begins service at the earliest instant one of the `k` servers is free,
//! occupies it for the service time, and completes. This produces exact
//! FIFO queueing delays without a global event loop, and composes across
//! crates by simply threading completion times forward.

use crate::time::{serialization_delay, Ns};

/// A k-server FIFO queueing station.
///
/// # Examples
///
/// ```
/// use hyperion_sim::resource::Resource;
/// use hyperion_sim::time::Ns;
///
/// let mut disk = Resource::new("disk", 1);
/// // Two back-to-back requests at t=0, each taking 100ns: the second queues.
/// assert_eq!(disk.access(Ns(0), Ns(100)), Ns(100));
/// assert_eq!(disk.access(Ns(0), Ns(100)), Ns(200));
/// ```
#[derive(Debug, Clone)]
pub struct Resource {
    name: &'static str,
    /// Completion times of the in-flight/last jobs on each server, kept as a
    /// small unsorted vec (k is tiny in all our models).
    servers: Vec<Ns>,
}

impl Resource {
    /// Creates a station with `k` identical servers.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(name: &'static str, k: usize) -> Resource {
        assert!(k > 0, "a resource needs at least one server");
        Resource {
            name,
            servers: vec![Ns::ZERO; k],
        }
    }

    /// Returns the station's name (used in traces and reports).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Admits a request arriving at `now` with the given service time and
    /// returns its completion instant.
    ///
    /// Service is FIFO: the request takes the earliest-free server, waiting
    /// if all are busy.
    pub fn access(&mut self, now: Ns, service: Ns) -> Ns {
        self.access_interval(now, service).1
    }

    /// [`Resource::access`], also returning when service began: the
    /// request's exact busy window `[start, done)` on the server it took.
    /// Utilization instrumentation claims this window; the timing is
    /// identical to `access`.
    pub fn access_interval(&mut self, now: Ns, service: Ns) -> (Ns, Ns) {
        let (idx, free_at) = self
            .servers
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(_, t)| t)
            .expect("resource has at least one server");
        let start = now.max(free_at);
        let done = start + service;
        self.servers[idx] = done;
        (start, done)
    }

    /// Returns the earliest instant at which a new request arriving at `now`
    /// would begin service, without admitting anything.
    pub fn earliest_start(&self, now: Ns) -> Ns {
        let free_at = self
            .servers
            .iter()
            .copied()
            .min()
            .expect("resource has at least one server");
        now.max(free_at)
    }
}

/// A point-to-point link with finite bandwidth and fixed propagation delay.
///
/// Serialization contends on the link (FIFO), propagation does not — so two
/// frames sent back-to-back overlap their flight time but not their
/// transmission time, as on a real wire.
#[derive(Debug, Clone)]
pub struct Link {
    line: Resource,
    bits_per_sec: u64,
    propagation: Ns,
}

impl Link {
    /// Creates a link with the given bandwidth (bits/s) and propagation delay.
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_sec` is zero.
    pub fn new(name: &'static str, bits_per_sec: u64, propagation: Ns) -> Link {
        assert!(bits_per_sec != 0, "link bandwidth must be non-zero");
        Link {
            line: Resource::new(name, 1),
            bits_per_sec,
            propagation,
        }
    }

    /// Transmits `bytes` starting no earlier than `now`. Returns the wire's
    /// busy window and the arrival: `(ser start, ser end, arrival)`. The
    /// wire is occupied for `[start, end)`; the last bit lands at the far
    /// end at `arrival = end + propagation`.
    pub fn transmit_interval(&mut self, now: Ns, bytes: u64) -> (Ns, Ns, Ns) {
        let ser = serialization_delay(bytes, self.bits_per_sec);
        let (start, end) = self.line.access_interval(now, ser);
        (start, end, end + self.propagation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_server_fifo_queues() {
        let mut r = Resource::new("r", 1);
        assert_eq!(r.access(Ns(0), Ns(10)), Ns(10));
        assert_eq!(r.access(Ns(0), Ns(10)), Ns(20));
        assert_eq!(r.access(Ns(100), Ns(10)), Ns(110)); // idle gap
    }

    #[test]
    fn multi_server_overlaps() {
        let mut r = Resource::new("r", 2);
        assert_eq!(r.access(Ns(0), Ns(10)), Ns(10));
        assert_eq!(r.access(Ns(0), Ns(10)), Ns(10)); // second server
        assert_eq!(r.access(Ns(0), Ns(10)), Ns(20)); // queues behind first
    }

    #[test]
    fn earliest_start_does_not_admit() {
        let mut r = Resource::new("r", 1);
        r.access(Ns(0), Ns(50));
        assert_eq!(r.earliest_start(Ns(0)), Ns(50));
        // Nothing was admitted: the next request still starts at 50.
        assert_eq!(r.access_interval(Ns(0), Ns(10)), (Ns(50), Ns(60)));
    }

    #[test]
    fn link_serializes_but_propagates_in_parallel() {
        // 1 Gbps, 1000ns propagation. A 125-byte frame takes 1000ns to
        // serialize.
        let mut l = Link::new("l", 1_000_000_000, Ns(1000));
        let a = l.transmit_interval(Ns(0), 125).2;
        let b = l.transmit_interval(Ns(0), 125).2;
        assert_eq!(a, Ns(2000)); // 1000 ser + 1000 prop
        assert_eq!(b, Ns(3000)); // waits for the wire, then overlapping flight
    }

    #[test]
    fn access_interval_reports_the_busy_window() {
        let mut r = Resource::new("r", 1);
        assert_eq!(r.access_interval(Ns(0), Ns(10)), (Ns(0), Ns(10)));
        // Queued request: starts when the wire frees, not at arrival.
        assert_eq!(r.access_interval(Ns(5), Ns(10)), (Ns(10), Ns(20)));
        let mut l = Link::new("l", 1_000_000_000, Ns(1000));
        assert_eq!(l.transmit_interval(Ns(0), 125), (Ns(0), Ns(1000), Ns(2000)));
        assert_eq!(
            l.transmit_interval(Ns(0), 125),
            (Ns(1000), Ns(2000), Ns(3000))
        );
    }
}
