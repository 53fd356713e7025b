//! Per-component power figures for time-integrated energy attribution.
//!
//! The paper's envelope is whole-assembly: ~230 W max TDP for the
//! Hyperion card vs ~1,600 W for a 1U server (§2). Attribution needs that
//! envelope *split by hop*. The split below follows the U280/board
//! datasheet shape the blueprint describes: the fabric (logic + HBM)
//! dominates, the 100 GbE MACs and PCIe hard blocks are single-digit
//! watts, and each NVMe SSD is a ~12 W device at full tilt. The exact
//! split is a modeling choice; what the experiments rely on is that it is
//! *constant and deterministic*, so per-hop energy differences between
//! configurations reflect time differences, not accounting noise.

use hyperion_sim::energy::MilliWatts;

use crate::span::Component;

/// 100 GbE MAC + transport pipeline while a message is in flight.
pub const NET_ACTIVE: MilliWatts = MilliWatts::from_watts(18);

/// Fabric logic + HBM while a slot/pipeline works on a request.
pub const FABRIC_ACTIVE: MilliWatts = MilliWatts::from_watts(45);

/// PCIe hard block + crossover board during a DMA.
pub const PCIE_ACTIVE: MilliWatts = MilliWatts::from_watts(9);

/// One NVMe SSD executing a command.
pub const NVME_ACTIVE: MilliWatts = MilliWatts::from_watts(12);

/// Service-layer work (runs on the fabric; same silicon, tracked under
/// its own label so dispatch overhead is visible separately).
pub const SERVICE_ACTIVE: MilliWatts = FABRIC_ACTIVE;

/// A busy CPU-centric host, one active socket's share of the 1U server's
/// 1,600 W envelope.
pub const HOST_ACTIVE: MilliWatts = MilliWatts::from_watts(400);

/// Cluster availability machinery (failure detection, epoch changes,
/// replica repair) — runs on the fabric like the service layer.
pub const CLUSTER_ACTIVE: MilliWatts = FABRIC_ACTIVE;

/// The active-power figure used for a component's time-integrated
/// attribution. The match names every component, so a new one does not
/// compile until it has a power figure here.
pub fn active_power(c: Component) -> MilliWatts {
    match c {
        Component::Net => NET_ACTIVE,
        Component::Fabric => FABRIC_ACTIVE,
        Component::Pcie => PCIE_ACTIVE,
        Component::Nvme => NVME_ACTIVE,
        Component::Service => SERVICE_ACTIVE,
        Component::Host => HOST_ACTIVE,
        Component::Cluster => CLUSTER_ACTIVE,
    }
}
