//! Slot-style spatial multiplexing with partial dynamic reconfiguration.
//!
//! Paper §2.2: "We expect to leverage the already established slot-style
//! spatial slicing of FPGA resources" (AmorphOS/Coyote style), and §2:
//! "FPGAs excel in coarse-grained spatial multiplexing with longer
//! time-scales (10–100 msecs, partial reconfiguration)". Slots are carved
//! statically from the die; kernels are streamed into slots through the
//! ICAP, which is a serial resource — concurrent reconfigurations queue,
//! but *resident* slots keep running undisturbed (the predictability
//! property experiment E8 measures).

use std::fmt;

use hyperion_sim::resource::Resource;
use hyperion_sim::time::{serialization_delay, Ns};
use hyperion_telemetry::{At, Component};

use crate::bitstream::Bitstream;
use crate::params;
use crate::resources::ResourceBudget;

/// Index of a reconfigurable slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotId(pub usize);

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot{}", self.0)
    }
}

/// Errors from slot management.
#[derive(Debug, Clone, PartialEq)]
pub enum SlotError {
    /// The slot index does not exist.
    NoSuchSlot(usize),
    /// The kernel does not fit in the slot's resource share.
    DoesNotFit {
        /// Slot that was targeted.
        slot: usize,
        /// The binding occupancy fraction (>1 means over budget).
        occupancy: f64,
    },
    /// The bitstream failed authorization.
    Unauthorized,
    /// The slot is occupied and eviction was not requested.
    Occupied(usize),
    /// The slot is empty (nothing to evict).
    Empty(usize),
    /// No slot is free (when asking for automatic placement).
    AllBusy,
}

impl fmt::Display for SlotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlotError::NoSuchSlot(i) => write!(f, "no such slot: {i}"),
            SlotError::DoesNotFit { slot, occupancy } => {
                write!(
                    f,
                    "kernel does not fit slot {slot} (occupancy {occupancy:.2})"
                )
            }
            SlotError::Unauthorized => write!(f, "bitstream failed authorization"),
            SlotError::Occupied(i) => write!(f, "slot {i} is occupied"),
            SlotError::Empty(i) => write!(f, "slot {i} is empty"),
            SlotError::AllBusy => write!(f, "all slots are occupied"),
        }
    }
}

impl std::error::Error for SlotError {}

/// A resident kernel in a slot.
#[derive(Debug, Clone)]
pub struct Resident {
    /// The deployed bitstream.
    pub bitstream: Bitstream,
    /// When the slot finished reconfiguring and the kernel went live.
    pub live_since: Ns,
}

/// The slot manager: carves the die, authorizes and places bitstreams,
/// and serializes reconfigurations through the ICAP.
#[derive(Debug)]
pub struct SlotManager {
    slot_budget: ResourceBudget,
    slots: Vec<Option<Resident>>,
    icap: Resource,
    auth_key: u64,
    reconfigs: u64,
}

impl SlotManager {
    /// Carves `n_slots` equal slots out of `die` and locks the control path
    /// to `auth_key`.
    ///
    /// # Panics
    ///
    /// Panics if `n_slots` is zero.
    pub fn new(die: ResourceBudget, n_slots: usize, auth_key: u64) -> SlotManager {
        assert!(n_slots > 0, "need at least one slot");
        SlotManager {
            slot_budget: die.split(n_slots as u64),
            slots: vec![None; n_slots],
            icap: Resource::new("icap", 1),
            auth_key,
            reconfigs: 0,
        }
    }

    /// The per-slot resource share.
    pub fn slot_budget(&self) -> ResourceBudget {
        self.slot_budget
    }

    /// Number of slots.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Number of slots currently holding a resident kernel (the occupancy
    /// figure the telemetry gauges report).
    pub fn occupied_slots(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Returns the resident kernel of a slot, if any.
    pub fn resident(&self, slot: SlotId) -> Option<&Resident> {
        self.slots.get(slot.0).and_then(|s| s.as_ref())
    }

    /// Number of reconfigurations performed.
    pub fn reconfig_count(&self) -> u64 {
        self.reconfigs
    }

    /// Finds the lowest-numbered free slot.
    pub fn free_slot(&self) -> Option<SlotId> {
        self.slots.iter().position(|s| s.is_none()).map(SlotId)
    }

    /// Streams `bitstream` into `slot` starting at `now`.
    ///
    /// Returns the instant the kernel goes live. The duration is ICAP
    /// streaming time (serialized across concurrent requests) plus the
    /// fixed shutdown/startup overhead — landing in the paper's 10–100 ms
    /// band for realistic partial sizes.
    ///
    /// Fails if the tag does not verify, the kernel does not fit, or the
    /// slot is occupied (use [`SlotManager::evict`] first).
    ///
    /// With a recorder: a telemetry span over the reconfiguration. When
    /// the recorder's utilization plane is on, the ICAP's streaming window
    /// is claimed as `fabric:icap`, slot occupancy is sampled as a
    /// `fabric:slots` depth timeline, and a reconfiguration that had to
    /// wait for the ICAP gets a queueing edge blaming it.
    pub fn program<'r>(
        &mut self,
        slot: SlotId,
        bitstream: Bitstream,
        at: impl Into<At<'r>>,
    ) -> Result<Ns, SlotError> {
        let At { now, mut rec } = at.into();
        let obs = rec.as_deref_mut().map(|rec| {
            let span = rec.open(Component::Fabric, "fabric:reconfig", now);
            (span, self.icap.earliest_start(now))
        });
        let result = (|| {
            if slot.0 >= self.slots.len() {
                return Err(SlotError::NoSuchSlot(slot.0));
            }
            if !bitstream.verify(self.auth_key) {
                return Err(SlotError::Unauthorized);
            }
            if !bitstream.requires.fits_in(&self.slot_budget) {
                return Err(SlotError::DoesNotFit {
                    slot: slot.0,
                    occupancy: bitstream.requires.occupancy_of(&self.slot_budget),
                });
            }
            if self.slots[slot.0].is_some() {
                return Err(SlotError::Occupied(slot.0));
            }
            let stream = serialization_delay(bitstream.size_bytes, params::ICAP_BANDWIDTH_BPS);
            let live = self.icap.access(now, stream) + params::RECONFIG_OVERHEAD;
            self.slots[slot.0] = Some(Resident {
                bitstream,
                live_since: live,
            });
            self.reconfigs += 1;
            Ok(live)
        })();
        if let (Some(rec), Some((span, icap_start))) = (rec, obs) {
            let Ok(live) = result else {
                rec.close(span, now);
                return result;
            };
            if rec.util_enabled() {
                let stream_end = live - params::RECONFIG_OVERHEAD;
                rec.claim_busy("fabric:icap", icap_start, stream_end);
                rec.depth_sample("fabric:slots", now, self.occupied_slots() as u64);
                if icap_start > now {
                    rec.queue_edge_labeled(span, icap_start, "fabric:icap");
                }
            } else if icap_start > now {
                rec.queue_edge(span, icap_start);
            }
            rec.close(span, live);
        }
        result
    }

    /// Programs the bitstream into the first free slot.
    pub fn program_anywhere(
        &mut self,
        bitstream: Bitstream,
        now: Ns,
    ) -> Result<(SlotId, Ns), SlotError> {
        let slot = self.free_slot().ok_or(SlotError::AllBusy)?;
        let live = self.program(slot, bitstream, now)?;
        Ok((slot, live))
    }

    /// Evicts the resident kernel of `slot`, returning it.
    pub fn evict(&mut self, slot: SlotId) -> Result<Resident, SlotError> {
        if slot.0 >= self.slots.len() {
            return Err(SlotError::NoSuchSlot(slot.0));
        }
        self.slots[slot.0].take().ok_or(SlotError::Empty(slot.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockDomain;
    use hyperion_telemetry::Recorder;

    const KEY: u64 = 0xC0FFEE;

    fn small_kernel(name: &str) -> Bitstream {
        Bitstream::new(
            name,
            ResourceBudget {
                luts: 50_000,
                ffs: 80_000,
                brams: 64,
                urams: 8,
                dsps: 32,
            },
            ClockDomain::new(250),
            KEY,
        )
    }

    fn mgr() -> SlotManager {
        SlotManager::new(params::U280_BUDGET, 5, KEY)
    }

    #[test]
    fn reconfiguration_lands_in_paper_band() {
        let mut m = mgr();
        let live = m.program(SlotId(0), small_kernel("k"), Ns::ZERO).unwrap();
        // Paper: 10-100 ms partial reconfiguration timescales.
        assert!(
            live >= Ns::from_millis(9) && live <= Ns::from_millis(100),
            "reconfig took {live}"
        );
    }

    #[test]
    fn icap_serializes_concurrent_reconfigs() {
        let mut m = mgr();
        let a = m.program(SlotId(0), small_kernel("a"), Ns::ZERO).unwrap();
        let b = m.program(SlotId(1), small_kernel("b"), Ns::ZERO).unwrap();
        assert!(b > a, "second reconfiguration must queue on the ICAP");
    }

    #[test]
    fn traced_reconfig_claims_the_icap_and_labels_queued_streams() {
        let mut m = mgr();
        let mut rec = Recorder::new("fabric-util");
        rec.enable_util();
        let a = m
            .program(
                SlotId(0),
                small_kernel("a"),
                At::new(Ns::ZERO, Some(&mut rec)),
            )
            .unwrap();
        let b = m
            .program(
                SlotId(1),
                small_kernel("b"),
                At::new(Ns::ZERO, Some(&mut rec)),
            )
            .unwrap();
        let icap = rec.util().resource("fabric:icap").expect("icap claimed");
        // Two back-to-back streams coalesce into one contiguous window.
        assert_eq!(icap.claims(), 2);
        assert_eq!(icap.intervals().len(), 1);
        assert_eq!(icap.busy_ns(), (b - params::RECONFIG_OVERHEAD) - Ns::ZERO);
        // Only the second reconfiguration waited; its edge blames the ICAP.
        assert_eq!(rec.edge_resources().len(), 1);
        assert_eq!(rec.edge_resources()[0].1, "fabric:icap");
        let slots = rec.util().resource("fabric:slots").expect("depth sampled");
        assert_eq!(slots.peak_depth(), 2);
        // Timing parity with the untraced (plain `Ns`) path.
        let mut plain = mgr();
        assert_eq!(plain.program(SlotId(0), small_kernel("a"), Ns::ZERO), Ok(a));
        assert_eq!(plain.program(SlotId(1), small_kernel("b"), Ns::ZERO), Ok(b));
    }

    #[test]
    fn unauthorized_bitstreams_are_rejected() {
        let mut m = mgr();
        let rogue = Bitstream::new(
            "rogue",
            ResourceBudget::ZERO,
            ClockDomain::new(250),
            0xBAD_C0DE,
        );
        assert_eq!(
            m.program(SlotId(0), rogue, Ns::ZERO),
            Err(SlotError::Unauthorized)
        );
    }

    #[test]
    fn oversized_kernels_do_not_fit() {
        let mut m = mgr();
        let huge = Bitstream::new(
            "huge",
            params::U280_BUDGET, // whole die into a 1/5 slot
            ClockDomain::new(250),
            KEY,
        );
        match m.program(SlotId(0), huge, Ns::ZERO) {
            Err(SlotError::DoesNotFit { occupancy, .. }) => assert!(occupancy > 4.9),
            other => panic!("expected DoesNotFit, got {other:?}"),
        }
    }

    #[test]
    fn occupied_slots_require_eviction() {
        let mut m = mgr();
        m.program(SlotId(2), small_kernel("a"), Ns::ZERO).unwrap();
        assert!(matches!(
            m.program(SlotId(2), small_kernel("b"), Ns::ZERO),
            Err(SlotError::Occupied(2))
        ));
        m.evict(SlotId(2)).unwrap();
        assert!(m.program(SlotId(2), small_kernel("b"), Ns::ZERO).is_ok());
    }

    #[test]
    fn program_anywhere_fills_slots_in_order() {
        let mut m = mgr();
        for expect in 0..m.num_slots() {
            let (slot, _) = m.program_anywhere(small_kernel("k"), Ns::ZERO).unwrap();
            assert_eq!(slot, SlotId(expect));
        }
        assert!(matches!(
            m.program_anywhere(small_kernel("k"), Ns::ZERO),
            Err(SlotError::AllBusy)
        ));
    }
}
