//! The segmentation-based, single-level unified storage-memory store.
//!
//! Paper §2.1: "we leverage a segmentation-based, single-level unified
//! storage-memory addressing with 128-bits objects (inspired from
//! Twizzler). ... The segment location translation is done using a segment
//! translation table that maps a segment id (128 bits) to their bus
//! addresses and to their location, DRAM or NVMe. ... The segment
//! translation table is periodically persisted on a pre-selected
//! control/boot NVMe area."
//!
//! Properties reproduced here:
//!
//! * 128-bit segment ids resolving through one flat table — translation is
//!   object-grained (one lookup), not page-grained (a walk);
//! * placement across DRAM/HBM/NVMe with hint-based allocation and
//!   explicit promotion;
//! * durable segments live on NVMe; the table itself is persisted to a
//!   reserved boot area with a generation header and survives crashes;
//! * volatile (DRAM/HBM) segments are lost on crash — recovery drops them,
//!   which the paper's model requires ("when durability is required, all
//!   durable segments must also be allocated on NVMe addresses").

use std::collections::HashMap;

use bytes::Bytes;
use hyperion_fabric::memtier::{MemoryTier, Tier};
use hyperion_nvme::device::{Command, NvmeDevice, Response};
use hyperion_nvme::params::LBA_SIZE;
use hyperion_sim::stats::Counters;
use hyperion_sim::time::Ns;

/// A 128-bit object/segment identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegmentId(pub u128);

/// Where a segment's bytes live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    /// On-board DDR4.
    Dram,
    /// On-package HBM.
    Hbm,
    /// One of the NVMe SSDs.
    Nvme {
        /// Device index.
        device: usize,
    },
}

/// Allocation hints (paper: "we expect hints-based allocation should also
/// be possible where temporary and/or performance-critical objects are
/// allocated or eventually promoted to DRAM or HBM").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocHint {
    /// Hot, latency-critical: HBM first, DRAM as fallback.
    Performance,
    /// Ordinary working set: DRAM first, spill to NVMe.
    Balanced,
    /// Capacity only: straight to NVMe.
    Capacity,
    /// Must survive crashes: NVMe, marked durable.
    Durable,
}

/// One row of the segment translation table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentEntry {
    /// The object id.
    pub id: SegmentId,
    /// Current location.
    pub location: Location,
    /// Bus address within the location (byte offset for memory tiers,
    /// starting LBA for NVMe).
    pub bus_addr: u64,
    /// Segment length in bytes.
    pub len: u64,
    /// Whether the segment must survive crashes.
    pub durable: bool,
}

/// Errors from the single-level store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Id already allocated.
    Exists(SegmentId),
    /// Id not present in the translation table.
    NotFound(SegmentId),
    /// Access outside the segment.
    OutOfBounds {
        /// The segment.
        id: SegmentId,
        /// Requested end offset.
        end: u64,
        /// Segment length.
        len: u64,
    },
    /// No tier/device has room.
    OutOfSpace,
    /// A durable segment cannot be demoted/allocated to volatile memory.
    DurabilityViolation(SegmentId),
    /// The persisted table failed its checksum on recovery.
    CorruptTable,
    /// NVMe layer error.
    Device(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Exists(id) => write!(f, "segment {:#x} exists", id.0),
            StoreError::NotFound(id) => write!(f, "segment {:#x} not found", id.0),
            StoreError::OutOfBounds { id, end, len } => {
                write!(f, "access to {end} beyond segment {:#x} of {len} B", id.0)
            }
            StoreError::OutOfSpace => write!(f, "out of space"),
            StoreError::DurabilityViolation(id) => {
                write!(
                    f,
                    "segment {:#x} is durable; volatile placement refused",
                    id.0
                )
            }
            StoreError::CorruptTable => write!(f, "persisted segment table is corrupt"),
            StoreError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Cost of one segment-table lookup (BRAM-resident hash, paper §2.1:
/// "coarser (object-based) than virtual memory (page-based), thus reducing
/// overheads").
pub const SEG_LOOKUP: Ns = Ns(20);

/// LBAs reserved at the start of device 0 for the boot area holding the
/// persisted translation table.
pub const BOOT_AREA_LBAS: u64 = 4_096;

const TABLE_MAGIC: u32 = 0x5345_4731; // "SEG1"

/// The single-level store: translation table plus owned memory tiers and
/// NVMe devices.
#[derive(Debug)]
pub struct SingleLevelStore {
    table: HashMap<SegmentId, SegmentEntry>,
    dram: MemoryTier,
    hbm: MemoryTier,
    devices: Vec<NvmeDevice>,
    /// Volatile segment payloads (DRAM/HBM-resident bytes).
    volatile: HashMap<SegmentId, Vec<u8>>,
    /// Bump cursors.
    dram_cursor: u64,
    hbm_cursor: u64,
    nvme_cursors: Vec<u64>,
    next_device: usize,
    generation: u64,
    /// `lookups`, `promotions`, `persists` counters.
    pub counters: Counters,
}

impl SingleLevelStore {
    /// Builds a store over default-sized tiers and the given NVMe devices.
    ///
    /// Device 0's first [`BOOT_AREA_LBAS`] LBAs are reserved for the
    /// persisted translation table.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty.
    pub fn new(devices: Vec<NvmeDevice>) -> SingleLevelStore {
        assert!(!devices.is_empty(), "need at least one NVMe device");
        let nvme_cursors = devices
            .iter()
            .enumerate()
            .map(|(i, _)| if i == 0 { BOOT_AREA_LBAS } else { 0 })
            .collect();
        SingleLevelStore {
            table: HashMap::new(),
            dram: MemoryTier::with_defaults(Tier::Ddr),
            hbm: MemoryTier::with_defaults(Tier::Hbm),
            devices,
            volatile: HashMap::new(),
            dram_cursor: 0,
            hbm_cursor: 0,
            nvme_cursors,
            next_device: 0,
            generation: 0,
            counters: Counters::new(),
        }
    }

    /// Total addressable capacity: DRAM + HBM + NVMe (paper §2.1: "the
    /// total addressable capacity is DRAM plus NVMe storage capacities").
    pub fn total_capacity(&self) -> u64 {
        self.dram.capacity()
            + self.hbm.capacity()
            + self
                .devices
                .iter()
                .map(|d| d.capacity_lbas() * LBA_SIZE)
                .sum::<u64>()
    }

    /// Number of live segments.
    pub fn num_segments(&self) -> usize {
        self.table.len()
    }

    /// Looks up a segment's table entry (one [`SEG_LOOKUP`]-cost access).
    pub fn entry(&mut self, id: SegmentId) -> Result<SegmentEntry, StoreError> {
        self.counters.bump("lookups");
        self.table.get(&id).copied().ok_or(StoreError::NotFound(id))
    }

    /// Creates a segment of `len` bytes placed per `hint`. Returns the
    /// completion time (allocation is a table insert plus a lookup cost).
    pub fn create(
        &mut self,
        id: SegmentId,
        len: u64,
        hint: AllocHint,
        now: Ns,
    ) -> Result<Ns, StoreError> {
        if self.table.contains_key(&id) {
            return Err(StoreError::Exists(id));
        }
        let durable = matches!(hint, AllocHint::Durable);
        let order: &[Location] = match hint {
            AllocHint::Performance => {
                &[Location::Hbm, Location::Dram, Location::Nvme { device: 0 }]
            }
            AllocHint::Balanced => &[Location::Dram, Location::Hbm, Location::Nvme { device: 0 }],
            AllocHint::Capacity | AllocHint::Durable => &[Location::Nvme { device: 0 }],
        };
        for &loc in order {
            match loc {
                Location::Hbm => {
                    if self.hbm.reserve(len) {
                        let addr = self.hbm_cursor;
                        self.hbm_cursor += len;
                        self.insert(id, Location::Hbm, addr, len, durable);
                        return Ok(now + SEG_LOOKUP);
                    }
                }
                Location::Dram => {
                    if self.dram.reserve(len) {
                        let addr = self.dram_cursor;
                        self.dram_cursor += len;
                        self.insert(id, Location::Dram, addr, len, durable);
                        return Ok(now + SEG_LOOKUP);
                    }
                }
                Location::Nvme { .. } => {
                    let lbas = len.div_ceil(LBA_SIZE);
                    // Round-robin across devices with capacity.
                    for probe in 0..self.devices.len() {
                        let d = (self.next_device + probe) % self.devices.len();
                        let cursor = self.nvme_cursors[d];
                        if cursor + lbas <= self.devices[d].capacity_lbas() {
                            self.nvme_cursors[d] += lbas;
                            self.next_device = (d + 1) % self.devices.len();
                            self.insert(id, Location::Nvme { device: d }, cursor, len, durable);
                            return Ok(now + SEG_LOOKUP);
                        }
                    }
                }
            }
        }
        Err(StoreError::OutOfSpace)
    }

    fn insert(
        &mut self,
        id: SegmentId,
        location: Location,
        bus_addr: u64,
        len: u64,
        durable: bool,
    ) {
        self.table.insert(
            id,
            SegmentEntry {
                id,
                location,
                bus_addr,
                len,
                durable,
            },
        );
        if !matches!(location, Location::Nvme { .. }) {
            self.volatile.insert(id, vec![0; len as usize]);
        }
    }

    /// Writes `data` at byte offset `off`; returns the completion instant.
    pub fn write(
        &mut self,
        id: SegmentId,
        off: u64,
        data: &[u8],
        now: Ns,
    ) -> Result<Ns, StoreError> {
        let entry = self.entry(id)?;
        let end = off + data.len() as u64;
        if end > entry.len {
            return Err(StoreError::OutOfBounds {
                id,
                end,
                len: entry.len,
            });
        }
        let t = now + SEG_LOOKUP;
        match entry.location {
            Location::Dram => {
                let buf = self.volatile.get_mut(&id).expect("volatile payload exists");
                buf[off as usize..end as usize].copy_from_slice(data);
                Ok(self.dram.access(t, data.len() as u64))
            }
            Location::Hbm => {
                let buf = self.volatile.get_mut(&id).expect("volatile payload exists");
                buf[off as usize..end as usize].copy_from_slice(data);
                Ok(self.hbm.access(t, data.len() as u64))
            }
            Location::Nvme { device } => {
                // Read-modify-write the touched LBA range.
                let first = entry.bus_addr + off / LBA_SIZE;
                let last = entry.bus_addr + (end - 1) / LBA_SIZE;
                let blocks = (last - first + 1) as u32;
                let dev = &mut self.devices[device];
                let mut region = read_blocks(dev, first, blocks, t)
                    .map_err(|e| StoreError::Device(e.to_string()))?;
                let in_off = (off % LBA_SIZE) as usize;
                region.0[in_off..in_off + data.len()].copy_from_slice(data);
                let c = dev
                    .submit(
                        Command::Write {
                            lba: first,
                            data: Bytes::from(region.0),
                        },
                        region.1,
                    )
                    .map_err(|e| StoreError::Device(e.to_string()))?;
                Ok(c.done)
            }
        }
    }

    /// Reads `len` bytes from offset `off`.
    pub fn read(
        &mut self,
        id: SegmentId,
        off: u64,
        len: u64,
        now: Ns,
    ) -> Result<(Bytes, Ns), StoreError> {
        let entry = self.entry(id)?;
        let end = off + len;
        if end > entry.len {
            return Err(StoreError::OutOfBounds {
                id,
                end,
                len: entry.len,
            });
        }
        let t = now + SEG_LOOKUP;
        match entry.location {
            Location::Dram => {
                let buf = &self.volatile[&id];
                let out = Bytes::copy_from_slice(&buf[off as usize..end as usize]);
                Ok((out, self.dram.access(t, len)))
            }
            Location::Hbm => {
                let buf = &self.volatile[&id];
                let out = Bytes::copy_from_slice(&buf[off as usize..end as usize]);
                Ok((out, self.hbm.access(t, len)))
            }
            Location::Nvme { device } => {
                let first = entry.bus_addr + off / LBA_SIZE;
                let last = entry.bus_addr + (end.max(1) - 1) / LBA_SIZE;
                let blocks = (last - first + 1) as u32;
                let dev = &mut self.devices[device];
                let (buf, done) = read_blocks(dev, first, blocks, t)
                    .map_err(|e| StoreError::Device(e.to_string()))?;
                let in_off = (off % LBA_SIZE) as usize;
                Ok((
                    Bytes::copy_from_slice(&buf[in_off..in_off + len as usize]),
                    done,
                ))
            }
        }
    }

    /// Deletes a segment and releases its space.
    pub fn delete(&mut self, id: SegmentId, now: Ns) -> Result<Ns, StoreError> {
        let entry = self.entry(id)?;
        self.table.remove(&id);
        self.volatile.remove(&id);
        match entry.location {
            Location::Dram => self.dram.release(entry.len),
            Location::Hbm => self.hbm.release(entry.len),
            Location::Nvme { .. } => { /* bump allocator: space reclaimed on reformat */ }
        }
        Ok(now + SEG_LOOKUP)
    }

    /// Moves a segment to a new location (promotion to a faster tier or
    /// demotion toward NVMe). Durable segments refuse volatile targets.
    pub fn promote(&mut self, id: SegmentId, to: Location, now: Ns) -> Result<Ns, StoreError> {
        let entry = self.entry(id)?;
        if entry.durable && !matches!(to, Location::Nvme { .. }) {
            return Err(StoreError::DurabilityViolation(id));
        }
        if entry.location == to {
            return Ok(now + SEG_LOOKUP);
        }
        self.counters.bump("promotions");
        // Read everything, delete, recreate at the target, write back.
        let (data, t_read) = self.read(id, 0, entry.len, now)?;
        self.table.remove(&id);
        self.volatile.remove(&id);
        match entry.location {
            Location::Dram => self.dram.release(entry.len),
            Location::Hbm => self.hbm.release(entry.len),
            Location::Nvme { .. } => {}
        }
        let placed = match to {
            Location::Hbm => {
                if !self.hbm.reserve(entry.len) {
                    return Err(StoreError::OutOfSpace);
                }
                let addr = self.hbm_cursor;
                self.hbm_cursor += entry.len;
                self.insert(id, to, addr, entry.len, entry.durable);
                true
            }
            Location::Dram => {
                if !self.dram.reserve(entry.len) {
                    return Err(StoreError::OutOfSpace);
                }
                let addr = self.dram_cursor;
                self.dram_cursor += entry.len;
                self.insert(id, to, addr, entry.len, entry.durable);
                true
            }
            Location::Nvme { device } => {
                let lbas = entry.len.div_ceil(LBA_SIZE);
                let cursor = self.nvme_cursors[device];
                if cursor + lbas > self.devices[device].capacity_lbas() {
                    return Err(StoreError::OutOfSpace);
                }
                self.nvme_cursors[device] += lbas;
                self.insert(id, to, cursor, entry.len, entry.durable);
                true
            }
        };
        debug_assert!(placed);
        self.write(id, 0, &data, t_read)
    }

    /// Serializes the translation table to the boot area of device 0.
    ///
    /// Paper §2.1: "The segment translation table is periodically persisted
    /// on a pre-selected control/boot NVMe area."
    pub fn persist_table(&mut self, now: Ns) -> Result<Ns, StoreError> {
        self.counters.bump("persists");
        self.generation += 1;
        let mut body = Vec::new();
        // Only durable (NVMe) segments are meaningful after a crash.
        let durable: Vec<&SegmentEntry> = self
            .table
            .values()
            .filter(|e| matches!(e.location, Location::Nvme { .. }))
            .collect();
        body.extend_from_slice(&(durable.len() as u64).to_le_bytes());
        let mut sorted = durable;
        sorted.sort_by_key(|e| e.id);
        for e in sorted {
            body.extend_from_slice(&e.id.0.to_le_bytes());
            let (loc_tag, dev) = match e.location {
                Location::Nvme { device } => (2u8, device as u8),
                Location::Dram => (0, 0),
                Location::Hbm => (1, 0),
            };
            body.push(loc_tag);
            body.push(dev);
            body.extend_from_slice(&e.bus_addr.to_le_bytes());
            body.extend_from_slice(&e.len.to_le_bytes());
            body.push(e.durable as u8);
        }
        let mut image = Vec::new();
        image.extend_from_slice(&TABLE_MAGIC.to_le_bytes());
        image.extend_from_slice(&self.generation.to_le_bytes());
        image.extend_from_slice(&(body.len() as u64).to_le_bytes());
        image.extend_from_slice(&fnv64(&body).to_le_bytes());
        image.extend_from_slice(&body);
        // Pad to whole LBAs.
        let padded = image.len().div_ceil(LBA_SIZE as usize) * LBA_SIZE as usize;
        image.resize(padded, 0);
        let c = self.devices[0]
            .submit(
                Command::Write {
                    lba: 0,
                    data: Bytes::from(image),
                },
                now,
            )
            .map_err(|e| StoreError::Device(e.to_string()))?;
        Ok(c.done)
    }

    /// Simulates a crash: volatile contents are lost; devices survive.
    /// Returns the recovered store built from the persisted table.
    pub fn crash_and_recover(self, now: Ns) -> Result<(SingleLevelStore, Ns), StoreError> {
        Self::recover(self.devices, now)
    }

    /// Rebuilds a store from surviving NVMe devices by replaying the boot
    /// area of device 0.
    pub fn recover(
        mut devices: Vec<NvmeDevice>,
        now: Ns,
    ) -> Result<(SingleLevelStore, Ns), StoreError> {
        assert!(!devices.is_empty(), "need at least one NVMe device");
        let (header, t1) = read_blocks(&mut devices[0], 0, 1, now)
            .map_err(|e| StoreError::Device(e.to_string()))?;
        let magic = u32::from_le_bytes(header[0..4].try_into().expect("slice of 4"));
        if magic != TABLE_MAGIC {
            // No table ever persisted: fresh store.
            let mut fresh = SingleLevelStore::new(devices);
            fresh.generation = 0;
            return Ok((fresh, t1));
        }
        let generation = u64::from_le_bytes(header[4..12].try_into().expect("slice of 8"));
        let body_len = u64::from_le_bytes(header[12..20].try_into().expect("slice of 8"));
        let checksum = u64::from_le_bytes(header[20..28].try_into().expect("slice of 8"));
        let total = 28 + body_len as usize;
        let blocks = total.div_ceil(LBA_SIZE as usize) as u32;
        let (image, t2) = read_blocks(&mut devices[0], 0, blocks, t1)
            .map_err(|e| StoreError::Device(e.to_string()))?;
        let body = &image[28..28 + body_len as usize];
        if fnv64(body) != checksum {
            return Err(StoreError::CorruptTable);
        }
        let mut store = SingleLevelStore::new(devices);
        store.generation = generation;
        let mut cursor = 0usize;
        let count = u64::from_le_bytes(body[0..8].try_into().expect("slice of 8"));
        cursor += 8;
        for _ in 0..count {
            let id = SegmentId(u128::from_le_bytes(
                body[cursor..cursor + 16].try_into().expect("slice of 16"),
            ));
            cursor += 16;
            let _loc_tag = body[cursor];
            let dev = body[cursor + 1] as usize;
            cursor += 2;
            let bus_addr =
                u64::from_le_bytes(body[cursor..cursor + 8].try_into().expect("slice of 8"));
            cursor += 8;
            let len = u64::from_le_bytes(body[cursor..cursor + 8].try_into().expect("slice of 8"));
            cursor += 8;
            let durable = body[cursor] != 0;
            cursor += 1;
            store.table.insert(
                id,
                SegmentEntry {
                    id,
                    location: Location::Nvme { device: dev },
                    bus_addr,
                    len,
                    durable,
                },
            );
            // Advance the allocator past recovered extents.
            let end = bus_addr + len.div_ceil(LBA_SIZE);
            if store.nvme_cursors[dev] < end {
                store.nvme_cursors[dev] = end;
            }
        }
        Ok((store, t2))
    }

    /// Direct access to a device (used by layered storage abstractions).
    pub fn device_mut(&mut self, i: usize) -> &mut NvmeDevice {
        &mut self.devices[i]
    }
}

fn read_blocks(
    dev: &mut NvmeDevice,
    lba: u64,
    blocks: u32,
    now: Ns,
) -> Result<(Vec<u8>, Ns), hyperion_nvme::device::NvmeError> {
    let c = dev.submit(Command::Read { lba, blocks }, now)?;
    match c.response {
        Response::Data(d) => Ok((d.to_vec(), c.done)),
        _ => unreachable!("read returns data"),
    }
}

fn fnv64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_devices() -> Vec<NvmeDevice> {
        (0..2).map(|_| NvmeDevice::new_block(1 << 22)).collect()
    }

    fn store() -> SingleLevelStore {
        SingleLevelStore::new(small_devices())
    }

    #[test]
    fn create_write_read_round_trip_all_tiers() {
        let mut s = store();
        for (i, hint) in [
            AllocHint::Performance,
            AllocHint::Balanced,
            AllocHint::Capacity,
            AllocHint::Durable,
        ]
        .iter()
        .enumerate()
        {
            let id = SegmentId(i as u128 + 1);
            s.create(id, 8192, *hint, Ns::ZERO).unwrap();
            let payload = vec![i as u8 + 1; 100];
            s.write(id, 500, &payload, Ns::ZERO).unwrap();
            let (back, _) = s.read(id, 500, 100, Ns::ZERO).unwrap();
            assert_eq!(back.as_ref(), payload.as_slice());
        }
        assert_eq!(s.num_segments(), 4);
    }

    #[test]
    fn hints_place_on_expected_tiers() {
        let mut s = store();
        s.create(SegmentId(1), 4096, AllocHint::Performance, Ns::ZERO)
            .unwrap();
        s.create(SegmentId(2), 4096, AllocHint::Balanced, Ns::ZERO)
            .unwrap();
        s.create(SegmentId(3), 4096, AllocHint::Durable, Ns::ZERO)
            .unwrap();
        assert_eq!(s.entry(SegmentId(1)).unwrap().location, Location::Hbm);
        assert_eq!(s.entry(SegmentId(2)).unwrap().location, Location::Dram);
        assert!(matches!(
            s.entry(SegmentId(3)).unwrap().location,
            Location::Nvme { .. }
        ));
        assert!(s.entry(SegmentId(3)).unwrap().durable);
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut s = store();
        s.create(SegmentId(7), 64, AllocHint::Balanced, Ns::ZERO)
            .unwrap();
        assert!(matches!(
            s.create(SegmentId(7), 64, AllocHint::Balanced, Ns::ZERO),
            Err(StoreError::Exists(_))
        ));
    }

    #[test]
    fn out_of_bounds_access_rejected() {
        let mut s = store();
        s.create(SegmentId(1), 100, AllocHint::Balanced, Ns::ZERO)
            .unwrap();
        assert!(matches!(
            s.write(SegmentId(1), 90, &[0u8; 20], Ns::ZERO),
            Err(StoreError::OutOfBounds { .. })
        ));
        assert!(matches!(
            s.read(SegmentId(1), 0, 101, Ns::ZERO),
            Err(StoreError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn nvme_reads_cost_flash_latency_and_dram_reads_do_not() {
        let mut s = store();
        s.create(SegmentId(1), 4096, AllocHint::Balanced, Ns::ZERO)
            .unwrap();
        s.create(SegmentId(2), 4096, AllocHint::Capacity, Ns::ZERO)
            .unwrap();
        let (_, t_dram) = s.read(SegmentId(1), 0, 4096, Ns::ZERO).unwrap();
        let (_, t_nvme) = s.read(SegmentId(2), 0, 4096, Ns::ZERO).unwrap();
        assert!(t_dram < Ns(5_000), "dram read {t_dram}");
        assert!(t_nvme > Ns(50_000), "nvme read {t_nvme}");
    }

    #[test]
    fn promotion_moves_data_between_tiers() {
        let mut s = store();
        s.create(SegmentId(9), 4096, AllocHint::Capacity, Ns::ZERO)
            .unwrap();
        s.write(SegmentId(9), 0, b"persistent-bytes", Ns::ZERO)
            .unwrap();
        let t_promoted = s.promote(SegmentId(9), Location::Hbm, Ns::ZERO).unwrap();
        assert_eq!(s.entry(SegmentId(9)).unwrap().location, Location::Hbm);
        let (back, t) = s.read(SegmentId(9), 0, 16, t_promoted).unwrap();
        assert_eq!(back.as_ref(), b"persistent-bytes");
        assert!(
            t - t_promoted < Ns(5_000),
            "post-promotion read is memory-speed: {}",
            t - t_promoted
        );
    }

    #[test]
    fn durable_segments_refuse_volatile_promotion() {
        let mut s = store();
        s.create(SegmentId(4), 4096, AllocHint::Durable, Ns::ZERO)
            .unwrap();
        assert!(matches!(
            s.promote(SegmentId(4), Location::Dram, Ns::ZERO),
            Err(StoreError::DurabilityViolation(_))
        ));
    }

    #[test]
    fn crash_recovery_preserves_durable_segments_only() {
        let mut s = store();
        s.create(SegmentId(1), 4096, AllocHint::Balanced, Ns::ZERO)
            .unwrap();
        s.create(SegmentId(2), 4096, AllocHint::Durable, Ns::ZERO)
            .unwrap();
        s.write(SegmentId(2), 0, b"survives", Ns::ZERO).unwrap();
        let t = s.persist_table(Ns::ZERO).unwrap();
        let (mut recovered, _) = s.crash_and_recover(t).unwrap();
        // Volatile segment is gone; durable one is intact with data.
        assert!(matches!(
            recovered.entry(SegmentId(1)),
            Err(StoreError::NotFound(_))
        ));
        let (back, _) = recovered.read(SegmentId(2), 0, 8, Ns::ZERO).unwrap();
        assert_eq!(back.as_ref(), b"survives");
    }

    #[test]
    fn recovery_of_a_fresh_device_is_empty() {
        let (s, _) = SingleLevelStore::recover(small_devices(), Ns::ZERO).unwrap();
        assert_eq!(s.num_segments(), 0);
    }

    #[test]
    fn recovered_allocator_does_not_overwrite_old_segments() {
        let mut s = store();
        s.create(SegmentId(1), 8192, AllocHint::Durable, Ns::ZERO)
            .unwrap();
        s.write(SegmentId(1), 0, b"old-data", Ns::ZERO).unwrap();
        let t = s.persist_table(Ns::ZERO).unwrap();
        let (mut r, _) = s.crash_and_recover(t).unwrap();
        r.create(SegmentId(2), 8192, AllocHint::Durable, Ns::ZERO)
            .unwrap();
        r.write(SegmentId(2), 0, b"new-data", Ns::ZERO).unwrap();
        let (old, _) = r.read(SegmentId(1), 0, 8, Ns::ZERO).unwrap();
        assert_eq!(old.as_ref(), b"old-data");
    }

    #[test]
    fn capacity_is_sum_of_tiers() {
        let s = store();
        let expect = s.dram.capacity() + s.hbm.capacity() + 2 * (1u64 << 22) * LBA_SIZE;
        assert_eq!(s.total_capacity(), expect);
    }
}
