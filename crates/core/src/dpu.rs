//! The assembled Hyperion DPU.
//!
//! One [`HyperionDpu`] is the complete Figure-2 system: the U280 fabric
//! with its AXIS switch and reconfigurable slots, the FPGA-hosted PCIe
//! root complex, and four NVMe SSDs — plus
//! the software state the blueprint describes: the single-level segment
//! store (SSD0–1), the Corfu log units (SSD2, striped), and the
//! block-structure volume hosting the B+ tree and the LSM (SSD3).
//!
//! Boot (paper §2): power on → JTAG self-tests → standalone, no host. The
//! segment translation table is recovered from SSD0's boot area.

use hyperion_fabric::{Fabric, PortId};
use hyperion_mem::seglevel::SingleLevelStore;
use hyperion_nvme::device::NvmeDevice;
use hyperion_pcie::RootComplex;
use hyperion_sim::stats::Counters;
use hyperion_sim::time::Ns;
use hyperion_storage::blockstore::BlockStore;
use hyperion_storage::btree::BTree;
use hyperion_storage::corfu::CorfuLog;
use hyperion_storage::lsm::LsmTree;

/// DPU life-cycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DpuState {
    /// Power applied, self-tests running.
    PoweredOff,
    /// Standalone and serving (no host attached).
    Ready,
}

/// Errors from DPU assembly and boot.
#[derive(Debug)]
#[non_exhaustive]
pub enum DpuError {
    /// Single-level store failure during recovery.
    Store(hyperion_mem::seglevel::StoreError),
    /// Structure volume failure while creating the B+ tree.
    Storage(String),
    /// Operation requires a booted DPU.
    NotReady,
}

impl std::fmt::Display for DpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DpuError::Store(e) => write!(f, "segment store: {e}"),
            DpuError::Storage(e) => write!(f, "structure volume: {e}"),
            DpuError::NotReady => write!(f, "DPU has not booted"),
        }
    }
}

impl std::error::Error for DpuError {}

impl From<hyperion_mem::seglevel::StoreError> for DpuError {
    fn from(e: hyperion_mem::seglevel::StoreError) -> DpuError {
        DpuError::Store(e)
    }
}

/// Capacity (LBAs) of each of the four prototype SSDs in simulation runs
/// (kept modest; the store is sparse).
pub const SSD_LBAS: u64 = 1 << 24; // 64 GiB per device

/// SSDs backing the single-level segment store (SSD0–1).
const SEGMENT_SSDS: usize = 2;

/// The complete CPU-free DPU.
#[derive(Debug)]
pub struct HyperionDpu {
    state: DpuState,
    /// The FPGA: reconfigurable slots and the AXIS switch.
    pub fabric: Fabric,
    /// FPGA-hosted root complex (paper §2: "Hyperion runs a PCIe root
    /// complex with an NVMe controller on the FPGA board").
    pub root_complex: RootComplex,
    /// Single-level segment store over SSD0–1.
    pub segments: SingleLevelStore,
    /// Corfu shared log (SSD2, striped into 4 units).
    pub log: CorfuLog,
    /// Structure volume (SSD3): B+ tree, LSM.
    pub blocks: BlockStore,
    /// A KV-SSD namespace (Figure 2's "KV-SSD" export): the device-native
    /// alternative to the LSM-over-blocks KV service.
    pub kvssd: NvmeDevice,
    /// The exported B+ tree (pointer-chasing service).
    pub btree: Option<BTree>,
    /// The exported KV store.
    pub lsm: LsmTree,
    /// AXIS ports of the Figure-2 schematic.
    pub ports: DpuPorts,
    /// Structural counters (`boots`, `served`, `shed`).
    pub counters: Counters,
    /// Admission control (overload shedding); `None` — the default —
    /// admits everything, leaving the fault-free baseline untouched.
    pub admission: Option<crate::admission::Admission>,
    booted_at: Ns,
}

/// Named AXIS endpoints from Figure 2.
#[derive(Debug, Clone, Copy)]
pub struct DpuPorts {
    /// QSFP0 100 GbE port.
    pub qsfp0: PortId,
    /// QSFP1 100 GbE port.
    pub qsfp1: PortId,
    /// The accelerator-row ingress (runtime config engine side).
    pub accel: PortId,
    /// The NVMe host IP core.
    pub nvme: PortId,
}

/// Builder for a [`HyperionDpu`].
///
/// The prototype blueprint fixes two segment-store SSDs and five
/// reconfigurable slots; the one deployment choice left is the bitstream
/// authorization key (0 by default). Admission control is armed after
/// assembly, through [`HyperionDpu::admission`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DpuBuilder {
    auth_key: u64,
}

impl DpuBuilder {
    /// A builder with auth key 0.
    pub fn new() -> DpuBuilder {
        DpuBuilder::default()
    }

    /// Bitstream authorization key.
    pub fn auth_key(mut self, key: u64) -> DpuBuilder {
        self.auth_key = key;
        self
    }

    /// Assembles an unbooted DPU with fresh SSDs.
    pub fn build(self) -> HyperionDpu {
        let mut fabric = Fabric::u280(self.auth_key);
        let qsfp0 = fabric.switch.add_port("qsfp0").expect("fresh switch");
        let qsfp1 = fabric.switch.add_port("qsfp1").expect("fresh switch");
        let accel = fabric.switch.add_port("accel-row").expect("fresh switch");
        let nvme = fabric
            .switch
            .add_port("nvme-host-ip")
            .expect("fresh switch");
        let devices = (0..SEGMENT_SSDS)
            .map(|_| NvmeDevice::new_block(SSD_LBAS))
            .collect();
        HyperionDpu {
            state: DpuState::PoweredOff,
            fabric,
            root_complex: RootComplex::new(),
            segments: SingleLevelStore::new(devices),
            log: CorfuLog::new(4, SSD_LBAS / 4),
            blocks: BlockStore::with_capacity(SSD_LBAS),
            kvssd: NvmeDevice::new_kv(SSD_LBAS),
            btree: None,
            lsm: LsmTree::new(),
            ports: DpuPorts {
                qsfp0,
                qsfp1,
                accel,
                nvme,
            },
            counters: Counters::new(),
            admission: None,
            booted_at: Ns::ZERO,
        }
    }
}

impl HyperionDpu {
    /// Boots standalone: JTAG self-tests, then segment-table recovery from
    /// the boot area, then (first boot) the exported B+ tree's root — no
    /// host CPU anywhere on the path. Returns the ready instant.
    pub fn boot(&mut self, now: Ns) -> Result<Ns, DpuError> {
        let t = now + hyperion_fabric::params::SELF_TEST_DURATION;
        // Recover the single-level store from the persisted table: move
        // the devices out and back through recovery.
        let devices = std::mem::replace(
            &mut self.segments,
            SingleLevelStore::new(vec![NvmeDevice::new_block(1)]),
        );
        let (recovered, t) = devices.crash_and_recover(t)?;
        self.segments = recovered;
        // First boot: create the exported tree.
        let mut t = t;
        if self.btree.is_none() {
            let (tree, t2) =
                BTree::create(&mut self.blocks, t).map_err(|e| DpuError::Storage(e.to_string()))?;
            self.btree = Some(tree);
            t = t2;
        }
        self.state = DpuState::Ready;
        self.booted_at = t;
        self.counters.bump("boots");
        Ok(t)
    }

    /// Current state.
    pub fn state(&self) -> DpuState {
        self.state
    }

    /// Instant the DPU became ready.
    pub fn booted_at(&self) -> Ns {
        self.booted_at
    }

    /// Errors unless booted.
    pub fn require_ready(&self) -> Result<(), DpuError> {
        if self.state == DpuState::Ready {
            Ok(())
        } else {
            Err(DpuError::NotReady)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperion_mem::seglevel::SegmentId;

    #[test]
    fn assemble_and_boot_standalone() {
        let mut dpu = DpuBuilder::new().auth_key(0xC0FFEE).build();
        assert_eq!(dpu.state(), DpuState::PoweredOff);
        assert!(dpu.require_ready().is_err());
        let ready = dpu.boot(Ns::ZERO).unwrap();
        assert_eq!(dpu.state(), DpuState::Ready);
        // Self-test dominates first boot: 250 ms + recovery + tree root.
        assert!(ready >= Ns::from_millis(250));
        assert!(ready < Ns::from_millis(400), "boot took {ready}");
        dpu.require_ready().unwrap();
    }

    #[test]
    fn figure2_ports_exist() {
        let dpu = DpuBuilder::new().auth_key(1).build();
        assert_ne!(dpu.ports.qsfp0, dpu.ports.qsfp1);
        assert_eq!(dpu.fabric.switch.port("nvme-host-ip"), Some(dpu.ports.nvme));
    }

    #[test]
    fn segments_survive_reboot() {
        let mut dpu = DpuBuilder::new().auth_key(1).build();
        let t = dpu.boot(Ns::ZERO).unwrap();
        dpu.segments.create(SegmentId(42), 4096, t).unwrap();
        dpu.segments
            .write(SegmentId(42), 0, b"boot-proof", t)
            .unwrap();
        let t = dpu.segments.persist_table(t).unwrap();
        // Reboot the same DPU.
        let t = dpu.boot(t).unwrap();
        let (data, _) = dpu.segments.read(SegmentId(42), 0, 10, t).unwrap();
        assert_eq!(data.as_ref(), b"boot-proof");
    }

    #[test]
    fn end_to_end_path_has_no_cpu_hops() {
        // The Figure-2 smoke path: network port -> accel row -> NVMe IP,
        // then a P2P DMA across the FPGA root complex. No cpu_hops.
        let mut dpu = DpuBuilder::new().auth_key(1).build();
        dpu.boot(Ns::ZERO).unwrap();
        let t = dpu
            .fabric
            .switch
            .stream(dpu.ports.qsfp0, dpu.ports.accel, Ns::ZERO, 4096)
            .unwrap();
        let t = dpu
            .fabric
            .switch
            .stream(dpu.ports.accel, dpu.ports.nvme, t, 4096)
            .unwrap();
        assert!(t > Ns::ZERO);
        assert_eq!(dpu.root_complex.counters.get("cpu_hops"), 0);
    }
}
