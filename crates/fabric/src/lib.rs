//! # hyperion-fabric — the FPGA substrate
//!
//! A behavioural model of the Xilinx Alveo U280 board the Hyperion
//! prototype is built on (paper §2, Figures 1–2): programmable-area
//! accounting, clock domains, slot-style spatial multiplexing with ICAP
//! partial reconfiguration, and the AXI-stream interconnect of the
//! Figure 2 schematic, assembled as [`Fabric`]. The board's HBM and DDR
//! are not modelled: the single-level store (`hyperion-mem`'s `seglevel`)
//! keeps every segment on NVMe.
//!
//! The model's fidelity target is the *systems* behaviour the paper argues
//! from — placement feasibility, 10–100 ms reconfiguration, deterministic
//! pipeline clocks and bandwidth contention — not gate-level simulation.
//! See DESIGN.md §2 for the substitution rationale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod axi;
pub mod bitstream;
pub mod clock;
pub mod params;
pub mod resources;
pub mod slots;

pub use axi::{AxiError, AxiSwitch, PortId};
pub use bitstream::{authorize, AuthTag, Bitstream};
pub use clock::ClockDomain;
pub use resources::ResourceBudget;
pub use slots::{Resident, SlotError, SlotId, SlotManager};

/// Reconfigurable slots the prototype carves the die into.
const SLOTS: usize = 5;

/// The assembled fabric of one Hyperion board.
///
/// Owns the slot manager and the stream switch. Higher layers (the
/// `hyperion` core crate) wire the QSFP and PCIe endpoints onto
/// [`Fabric::switch`].
#[derive(Debug)]
pub struct Fabric {
    /// Slot manager over the die.
    pub slots: SlotManager,
    /// The Figure-2 AXI-stream switch.
    pub switch: AxiSwitch,
}

impl Fabric {
    /// Builds a U280-parameterized fabric with the prototype's five
    /// reconfigurable slots and the given bitstream authorization key.
    pub fn u280(auth_key: u64) -> Fabric {
        Fabric {
            slots: SlotManager::new(params::U280_BUDGET, SLOTS, auth_key),
            switch: AxiSwitch::new(ClockDomain::new(params::DEFAULT_CLOCK_MHZ), 64),
        }
    }

    /// The default clock domain kernels close timing at.
    pub fn kernel_clock(&self) -> ClockDomain {
        ClockDomain::new(params::DEFAULT_CLOCK_MHZ)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u280_fabric_assembles() {
        let f = Fabric::u280(7);
        assert_eq!(f.slots.num_slots(), 5);
        assert!(f.switch.bandwidth_bps() >= 100_000_000_000);
    }
}
