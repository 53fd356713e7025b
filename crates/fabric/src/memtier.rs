//! Heterogeneous on-board memory tiers: BRAM, URAM, HBM, DDR.
//!
//! The single-level store (paper §2.1) places segments across these tiers
//! plus NVMe; each tier is a bandwidth-limited queueing station with a
//! fixed access latency.

use hyperion_sim::resource::Resource;
use hyperion_sim::time::{serialization_delay, Ns};

use crate::params;

/// The identity of a memory tier on the board.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// On-fabric block RAM: tiny, single-cycle.
    Bram,
    /// UltraRAM: larger on-fabric SRAM.
    Uram,
    /// High Bandwidth Memory stacks.
    Hbm,
    /// On-board DDR4.
    Ddr,
}

impl Tier {
    /// All tiers from fastest to slowest.
    pub const ALL: [Tier; 4] = [Tier::Bram, Tier::Uram, Tier::Hbm, Tier::Ddr];
}

/// One memory tier: capacity, latency and a bandwidth timeline.
#[derive(Debug, Clone)]
pub struct MemoryTier {
    tier: Tier,
    capacity: u64,
    allocated: u64,
    latency: Ns,
    bandwidth_bps: u64,
    port: Resource,
}

impl MemoryTier {
    /// Creates a tier with explicit parameters.
    pub fn new(tier: Tier, capacity: u64, latency: Ns, bandwidth_bps: u64) -> MemoryTier {
        MemoryTier {
            tier,
            capacity,
            allocated: 0,
            latency,
            bandwidth_bps,
            port: Resource::new(tier_name(tier), 1),
        }
    }

    /// Creates the tier with its U280 default parameters.
    pub fn with_defaults(tier: Tier) -> MemoryTier {
        match tier {
            Tier::Bram => MemoryTier::new(
                tier,
                params::BRAM_CAPACITY,
                params::BRAM_LATENCY,
                params::BRAM_BANDWIDTH_BPS,
            ),
            Tier::Uram => MemoryTier::new(
                tier,
                params::URAM_CAPACITY,
                params::BRAM_LATENCY,
                params::BRAM_BANDWIDTH_BPS,
            ),
            Tier::Hbm => MemoryTier::new(
                tier,
                params::HBM_CAPACITY,
                params::HBM_LATENCY,
                params::HBM_BANDWIDTH_BPS,
            ),
            Tier::Ddr => MemoryTier::new(
                tier,
                params::DDR_CAPACITY,
                params::DDR_LATENCY,
                params::DDR_BANDWIDTH_BPS,
            ),
        }
    }

    /// Which tier this is.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently reserved by allocations.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    /// Bytes still available for allocation.
    pub fn free(&self) -> u64 {
        self.capacity - self.allocated
    }

    /// Reserves `bytes`; returns `false` (and reserves nothing) if the tier
    /// lacks capacity.
    pub fn reserve(&mut self, bytes: u64) -> bool {
        if bytes <= self.free() {
            self.allocated += bytes;
            true
        } else {
            false
        }
    }

    /// Releases a previous reservation.
    ///
    /// # Panics
    ///
    /// Panics if releasing more than is allocated (an accounting bug in the
    /// caller).
    pub fn release(&mut self, bytes: u64) {
        assert!(
            bytes <= self.allocated,
            "releasing {bytes} B but only {} B allocated on {}",
            self.allocated,
            tier_name(self.tier)
        );
        self.allocated -= bytes;
    }

    /// Performs a transfer of `bytes` starting no earlier than `now`;
    /// returns the completion instant. Reads and writes share the port.
    pub fn access(&mut self, now: Ns, bytes: u64) -> Ns {
        let svc = serialization_delay(bytes, self.bandwidth_bps);
        self.port.access(now, svc) + self.latency
    }

    /// Fixed access latency (without queueing or transfer time).
    pub fn latency(&self) -> Ns {
        self.latency
    }
}

fn tier_name(t: Tier) -> &'static str {
    match t {
        Tier::Bram => "bram",
        Tier::Uram => "uram",
        Tier::Hbm => "hbm",
        Tier::Ddr => "ddr",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_ordered_fast_to_slow() {
        let tiers: Vec<MemoryTier> = Tier::ALL
            .iter()
            .map(|&t| MemoryTier::with_defaults(t))
            .collect();
        for w in tiers.windows(2) {
            assert!(w[0].latency() <= w[1].latency());
        }
        // Capacity grows down the hierarchy.
        assert!(tiers[0].capacity() < tiers[2].capacity());
        assert!(tiers[2].capacity() < tiers[3].capacity());
    }

    #[test]
    fn reserve_and_release_accounting() {
        let mut t = MemoryTier::new(Tier::Hbm, 1000, Ns(10), 8_000_000_000);
        assert!(t.reserve(600));
        assert!(!t.reserve(500));
        assert_eq!(t.free(), 400);
        t.release(600);
        assert_eq!(t.free(), 1000);
    }

    #[test]
    fn access_includes_latency_and_queues() {
        // 1 GB/s = 8 Gbps: 1000 bytes -> 1000 ns transfer; 50 ns latency.
        let mut t = MemoryTier::new(Tier::Ddr, 1 << 20, Ns(50), 8_000_000_000);
        assert_eq!(t.access(Ns(0), 1000), Ns(1050));
        // Second transfer queues behind the first on the port.
        assert_eq!(t.access(Ns(0), 1000), Ns(2050));
    }
}
