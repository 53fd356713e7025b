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
//! * segments are durable: each lives on one of the NVMe devices, placed
//!   round-robin ("when durability is required, all durable segments must
//!   also be allocated on NVMe addresses");
//! * the table itself is persisted to a reserved boot area with a
//!   generation header and survives crashes; a segment created after the
//!   last [`SingleLevelStore::persist_table`] is not in that image, so
//!   recovery drops it.
//!
//! The paper's DRAM/HBM placement, allocation hints and promotion are not
//! modelled: no experiment measures them.

use std::collections::HashMap;

use bytes::Bytes;
use hyperion_nvme::device::{Command, NvmeDevice, Response};
use hyperion_nvme::params::LBA_SIZE;
use hyperion_sim::time::Ns;

/// A 128-bit object/segment identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegmentId(pub u128);

/// One row of the segment translation table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentEntry {
    /// The object id.
    pub id: SegmentId,
    /// Index of the NVMe device holding the segment.
    pub device: usize,
    /// Starting LBA on that device.
    pub lba: u64,
    /// Segment length in bytes.
    pub len: u64,
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
    /// No device has room, or the persisted table would outgrow the boot
    /// area.
    OutOfSpace,
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

/// Bytes of one persisted table row: id, device, LBA, length.
const ROW_BYTES: usize = 16 + 1 + 8 + 8;

/// The single-level store: translation table plus owned NVMe devices.
#[derive(Debug)]
pub struct SingleLevelStore {
    table: HashMap<SegmentId, SegmentEntry>,
    devices: Vec<NvmeDevice>,
    /// Next free LBA on each device (a bump allocator).
    cursors: Vec<u64>,
    next_device: usize,
    generation: u64,
}

impl SingleLevelStore {
    /// Builds a store over the given NVMe devices.
    ///
    /// Device 0's first [`BOOT_AREA_LBAS`] LBAs are reserved for the
    /// persisted translation table.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty.
    pub fn new(devices: Vec<NvmeDevice>) -> SingleLevelStore {
        assert!(!devices.is_empty(), "need at least one NVMe device");
        let cursors = devices
            .iter()
            .enumerate()
            .map(|(i, _)| if i == 0 { BOOT_AREA_LBAS } else { 0 })
            .collect();
        SingleLevelStore {
            table: HashMap::new(),
            devices,
            cursors,
            next_device: 0,
            generation: 0,
        }
    }

    /// Number of live segments.
    pub fn num_segments(&self) -> usize {
        self.table.len()
    }

    /// Looks up a segment's table entry (one [`SEG_LOOKUP`]-cost access).
    pub fn entry(&self, id: SegmentId) -> Result<SegmentEntry, StoreError> {
        self.table.get(&id).copied().ok_or(StoreError::NotFound(id))
    }

    /// Creates a segment of `len` bytes on the next device, round-robin,
    /// that has room. Returns the completion time (allocation is a table
    /// insert plus a lookup cost).
    pub fn create(&mut self, id: SegmentId, len: u64, now: Ns) -> Result<Ns, StoreError> {
        if self.table.contains_key(&id) {
            return Err(StoreError::Exists(id));
        }
        let lbas = len.div_ceil(LBA_SIZE);
        for probe in 0..self.devices.len() {
            let device = (self.next_device + probe) % self.devices.len();
            let lba = self.cursors[device];
            if lba + lbas <= self.devices[device].capacity_lbas() {
                self.cursors[device] += lbas;
                self.next_device = (device + 1) % self.devices.len();
                self.table.insert(
                    id,
                    SegmentEntry {
                        id,
                        device,
                        lba,
                        len,
                    },
                );
                return Ok(now + SEG_LOOKUP);
            }
        }
        Err(StoreError::OutOfSpace)
    }

    /// Checks that `[off, off + len)` lies within segment `id`.
    fn bounded(&self, id: SegmentId, off: u64, len: u64) -> Result<SegmentEntry, StoreError> {
        let entry = self.entry(id)?;
        let end = off + len;
        if end > entry.len {
            return Err(StoreError::OutOfBounds {
                id,
                end,
                len: entry.len,
            });
        }
        Ok(entry)
    }

    /// Writes `data` at byte offset `off`; returns the completion instant.
    /// An empty write touches no LBA and completes after the lookup.
    pub fn write(
        &mut self,
        id: SegmentId,
        off: u64,
        data: &[u8],
        now: Ns,
    ) -> Result<Ns, StoreError> {
        let entry = self.bounded(id, off, data.len() as u64)?;
        let t = now + SEG_LOOKUP;
        if data.is_empty() {
            return Ok(t);
        }
        // Read-modify-write the touched LBA range.
        let end = off + data.len() as u64;
        let first = entry.lba + off / LBA_SIZE;
        let last = entry.lba + (end - 1) / LBA_SIZE;
        let blocks = (last - first + 1) as u32;
        let dev = &mut self.devices[entry.device];
        let mut region =
            read_blocks(dev, first, blocks, t).map_err(|e| StoreError::Device(e.to_string()))?;
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

    /// Reads `len` bytes from offset `off`. An empty read touches no LBA
    /// and completes after the lookup.
    pub fn read(
        &mut self,
        id: SegmentId,
        off: u64,
        len: u64,
        now: Ns,
    ) -> Result<(Bytes, Ns), StoreError> {
        let entry = self.bounded(id, off, len)?;
        let t = now + SEG_LOOKUP;
        if len == 0 {
            return Ok((Bytes::new(), t));
        }
        let first = entry.lba + off / LBA_SIZE;
        let last = entry.lba + (off + len - 1) / LBA_SIZE;
        let blocks = (last - first + 1) as u32;
        let (buf, done) = read_blocks(&mut self.devices[entry.device], first, blocks, t)
            .map_err(|e| StoreError::Device(e.to_string()))?;
        let in_off = (off % LBA_SIZE) as usize;
        Ok((
            Bytes::copy_from_slice(&buf[in_off..in_off + len as usize]),
            done,
        ))
    }

    /// Serializes the translation table to the boot area of device 0.
    ///
    /// Paper §2.1: "The segment translation table is periodically persisted
    /// on a pre-selected control/boot NVMe area."
    ///
    /// Fails with [`StoreError::OutOfSpace`], writing nothing, when the
    /// image does not fit in the [`BOOT_AREA_LBAS`] boot area: past it lie
    /// the first segments of device 0.
    pub fn persist_table(&mut self, now: Ns) -> Result<Ns, StoreError> {
        // Header (magic, generation, body length, checksum), row count, rows.
        let image_len = 28 + 8 + self.table.len() * ROW_BYTES;
        if image_len as u64 > BOOT_AREA_LBAS * LBA_SIZE {
            return Err(StoreError::OutOfSpace);
        }
        self.generation += 1;
        let mut rows: Vec<&SegmentEntry> = self.table.values().collect();
        rows.sort_by_key(|e| e.id);
        let mut body = Vec::with_capacity(8 + rows.len() * ROW_BYTES);
        body.extend_from_slice(&(rows.len() as u64).to_le_bytes());
        for e in rows {
            body.extend_from_slice(&e.id.0.to_le_bytes());
            body.push(e.device as u8);
            body.extend_from_slice(&e.lba.to_le_bytes());
            body.extend_from_slice(&e.len.to_le_bytes());
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

    /// Simulates a crash: the table in memory is lost; devices survive.
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
            return Ok((SingleLevelStore::new(devices), t1));
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
        let count = u64::from_le_bytes(body[0..8].try_into().expect("slice of 8"));
        for row in body[8..].chunks_exact(ROW_BYTES).take(count as usize) {
            let id = SegmentId(u128::from_le_bytes(
                row[0..16].try_into().expect("slice of 16"),
            ));
            let device = row[16] as usize;
            let lba = u64::from_le_bytes(row[17..25].try_into().expect("slice of 8"));
            let len = u64::from_le_bytes(row[25..33].try_into().expect("slice of 8"));
            store.table.insert(
                id,
                SegmentEntry {
                    id,
                    device,
                    lba,
                    len,
                },
            );
            // Advance the allocator past recovered extents.
            let end = lba + len.div_ceil(LBA_SIZE);
            if store.cursors[device] < end {
                store.cursors[device] = end;
            }
        }
        Ok((store, t2))
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
    fn create_write_read_round_trip() {
        let mut s = store();
        for i in 0..4u8 {
            let id = SegmentId(i as u128 + 1);
            s.create(id, 8192, Ns::ZERO).unwrap();
            let payload = vec![i + 1; 100];
            s.write(id, 500, &payload, Ns::ZERO).unwrap();
            let (back, _) = s.read(id, 500, 100, Ns::ZERO).unwrap();
            assert_eq!(back.as_ref(), payload.as_slice());
        }
        assert_eq!(s.num_segments(), 4);
    }

    #[test]
    fn segments_are_placed_round_robin_past_the_boot_area() {
        let mut s = store();
        for i in 1..=3 {
            s.create(SegmentId(i), 4096, Ns::ZERO).unwrap();
        }
        let at = |s: &SingleLevelStore, i| {
            let e = s.entry(SegmentId(i)).unwrap();
            (e.device, e.lba)
        };
        assert_eq!(at(&s, 1), (0, BOOT_AREA_LBAS));
        assert_eq!(at(&s, 2), (1, 0));
        assert_eq!(at(&s, 3), (0, BOOT_AREA_LBAS + 1));
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut s = store();
        s.create(SegmentId(7), 64, Ns::ZERO).unwrap();
        assert!(matches!(
            s.create(SegmentId(7), 64, Ns::ZERO),
            Err(StoreError::Exists(_))
        ));
    }

    #[test]
    fn out_of_bounds_access_rejected() {
        let mut s = store();
        s.create(SegmentId(1), 100, Ns::ZERO).unwrap();
        assert!(matches!(
            s.write(SegmentId(1), 90, &[0u8; 20], Ns::ZERO),
            Err(StoreError::OutOfBounds { .. })
        ));
        assert!(matches!(
            s.read(SegmentId(1), 0, 101, Ns::ZERO),
            Err(StoreError::OutOfBounds { .. })
        ));
        assert!(matches!(
            s.read(SegmentId(1), 101, 0, Ns::ZERO),
            Err(StoreError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn zero_length_access_touches_no_lba_and_costs_one_lookup() {
        let mut s = store();
        let id = SegmentId(1);
        let t = Ns(1_000);
        s.create(id, 8192, Ns::ZERO).unwrap();
        let ops =
            |s: &SingleLevelStore| s.devices.iter().map(|d| d.flash_ops()).collect::<Vec<_>>();
        let before = ops(&s);
        assert_eq!(s.write(id, 0, &[], t).unwrap(), t + SEG_LOOKUP);
        let (data, done) = s.read(id, 4096, 0, t).unwrap();
        assert!(data.is_empty());
        assert_eq!(done, t + SEG_LOOKUP);
        let (data, done) = s.read(id, 0, 0, t).unwrap();
        assert!(data.is_empty());
        assert_eq!(done, t + SEG_LOOKUP);
        assert_eq!(ops(&s), before);
        // A one-byte read does go to flash.
        let (_, done) = s.read(id, 0, 1, t).unwrap();
        assert!(done - t > Ns(50_000), "flash read {}", done - t);
    }

    #[test]
    fn a_table_past_the_boot_area_is_refused_and_overwrites_nothing() {
        let mut s = store();
        s.create(SegmentId(0), 8, Ns::ZERO).unwrap();
        s.write(SegmentId(0), 0, b"payload!", Ns::ZERO).unwrap();
        assert_eq!(s.entry(SegmentId(0)).unwrap().lba, BOOT_AREA_LBAS);
        // The most rows whose image (36 bytes plus the rows) fills the
        // boot area exactly or less: 508,399. Empty segments take no LBA.
        let fit = (BOOT_AREA_LBAS * LBA_SIZE - 36) / ROW_BYTES as u64;
        assert_eq!(fit, 508_399);
        for i in 1..fit {
            s.create(SegmentId(i.into()), 0, Ns::ZERO).unwrap();
        }
        s.persist_table(Ns::ZERO).unwrap();
        s.create(SegmentId(fit.into()), 0, Ns::ZERO).unwrap();
        assert!(matches!(
            s.persist_table(Ns::ZERO),
            Err(StoreError::OutOfSpace)
        ));
        let (back, _) = s.read(SegmentId(0), 0, 8, Ns::ZERO).unwrap();
        assert_eq!(back.as_ref(), b"payload!");
    }

    #[test]
    fn crash_recovery_drops_segments_created_after_the_last_persist() {
        let mut s = store();
        s.create(SegmentId(2), 4096, Ns::ZERO).unwrap();
        s.write(SegmentId(2), 0, b"survives", Ns::ZERO).unwrap();
        let t = s.persist_table(Ns::ZERO).unwrap();
        s.create(SegmentId(1), 4096, t).unwrap();
        s.write(SegmentId(1), 0, b"unlisted", t).unwrap();
        let (mut recovered, _) = s.crash_and_recover(t).unwrap();
        // The unpersisted segment is gone; the persisted one is intact.
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
        s.create(SegmentId(1), 8192, Ns::ZERO).unwrap();
        s.write(SegmentId(1), 0, b"old-data", Ns::ZERO).unwrap();
        let t = s.persist_table(Ns::ZERO).unwrap();
        let (mut r, _) = s.crash_and_recover(t).unwrap();
        r.create(SegmentId(2), 8192, Ns::ZERO).unwrap();
        r.write(SegmentId(2), 0, b"new-data", Ns::ZERO).unwrap();
        let (old, _) = r.read(SegmentId(1), 0, 8, Ns::ZERO).unwrap();
        assert_eq!(old.as_ref(), b"old-data");
    }
}
