//! The NVMe device: controller, namespaces, and command execution.
//!
//! One [`NvmeDevice`] is one SSD behind the PCIe crossover board (Figure 1
//! shows four). A device exposes one namespace of a given
//! [`NamespaceKind`]: conventional block, ZNS (zoned), or KV — the storage
//! interface specializations the paper lists in §2 ("storage API (NVMoF,
//! KV, ZNS)") and §2.4 (KV-SSD, Corfu-SSD).
//!
//! Commands execute against *real state* (block contents, zone write
//! pointers, the KV map) while timing comes from the flash array, so the
//! file system / LSM / shared-log layers above get both correctness and a
//! faithful latency/queueing profile.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};

use bytes::Bytes;
use hyperion_sim::energy::{EnergyMeter, Pj};
use hyperion_sim::fault::FaultPlan;
use hyperion_sim::stats::Counters;
use hyperion_sim::time::Ns;
use hyperion_telemetry::{Component, Recorder};

use crate::flash::{FlashArray, FlashOp};
use crate::params;

/// What a namespace is specialized as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NamespaceKind {
    /// Conventional block namespace.
    Block,
    /// Zoned namespace (ZNS): sequential-write zones with appends.
    Zoned,
    /// Key-value namespace (KV-SSD).
    KeyValue,
}

/// An NVMe command.
#[derive(Debug, Clone)]
pub enum Command {
    /// Read `blocks` LBAs starting at `lba`.
    Read {
        /// Starting logical block.
        lba: u64,
        /// Number of logical blocks.
        blocks: u32,
    },
    /// Write `data` (must be a multiple of the LBA size) at `lba`.
    Write {
        /// Starting logical block.
        lba: u64,
        /// Data; length must be a non-zero multiple of the LBA size.
        data: Bytes,
    },
    /// Flush volatile state (modeled as a controller round trip).
    Flush,
    /// Append `data` to the tail of `zone`; the device assigns the LBA.
    ZoneAppend {
        /// Zone index.
        zone: u64,
        /// Data; length must be a non-zero multiple of the LBA size.
        data: Bytes,
    },
    /// Reset `zone` to empty (erases its blocks).
    ZoneReset {
        /// Zone index.
        zone: u64,
    },
    /// Look up a key.
    KvGet {
        /// Key bytes.
        key: Vec<u8>,
    },
    /// Store a key/value pair.
    KvPut {
        /// Key bytes.
        key: Vec<u8>,
        /// Value bytes.
        value: Bytes,
    },
    /// Remove a key.
    KvDelete {
        /// Key bytes.
        key: Vec<u8>,
    },
}

impl Command {
    /// Telemetry span label for this command.
    pub fn label(&self) -> &'static str {
        match self {
            Command::Read { .. } => "nvme:read",
            Command::Write { .. } => "nvme:write",
            Command::Flush => "nvme:flush",
            Command::ZoneAppend { .. } => "nvme:zone_append",
            Command::ZoneReset { .. } => "nvme:zone_reset",
            Command::KvGet { .. } => "nvme:kv_get",
            Command::KvPut { .. } => "nvme:kv_put",
            Command::KvDelete { .. } => "nvme:kv_delete",
        }
    }
}

/// The data portion of a completed command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Read or KvGet payload.
    Data(Bytes),
    /// Write/append acknowledgement carrying the assigned starting LBA.
    Written {
        /// First LBA the data landed at.
        lba: u64,
    },
    /// Generic success.
    Ok,
    /// KV lookup miss.
    NotFound,
}

/// A completed command: payload plus the completion instant.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Result payload.
    pub response: Response,
    /// When the completion entry is posted.
    pub done: Ns,
}

/// Errors surfaced as NVMe status codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NvmeError {
    /// LBA range exceeds namespace capacity.
    OutOfRange {
        /// Offending LBA.
        lba: u64,
    },
    /// Write data not a positive multiple of the LBA size, or a read of
    /// zero blocks.
    BadLength(usize),
    /// Zone index out of range.
    NoSuchZone(u64),
    /// Zone has no room for the append.
    ZoneFull(u64),
    /// Command not supported by this namespace kind.
    WrongNamespace {
        /// The namespace kind that rejected the command.
        kind: NamespaceKind,
    },
    /// Unrecoverable media error: the read-retry path failed too, so the
    /// data at `lba` is lost (injected fault that recovery could not
    /// absorb).
    MediaError {
        /// First LBA of the failed read.
        lba: u64,
    },
}

impl std::fmt::Display for NvmeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NvmeError::OutOfRange { lba } => write!(f, "LBA {lba} out of range"),
            NvmeError::BadLength(l) => write!(f, "bad data length {l}"),
            NvmeError::NoSuchZone(z) => write!(f, "no such zone {z}"),
            NvmeError::ZoneFull(z) => write!(f, "zone {z} is full"),
            NvmeError::WrongNamespace { kind } => {
                write!(f, "command not supported on {kind:?} namespace")
            }
            NvmeError::MediaError { lba } => {
                write!(f, "unrecoverable media error at LBA {lba}")
            }
        }
    }
}

impl std::error::Error for NvmeError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ZoneCond {
    Empty,
    Open,
    Full,
}

#[derive(Debug)]
struct Zone {
    write_pointer: u64, // LBAs written within the zone
    cond: ZoneCond,
}

/// One NVMe SSD.
#[derive(Debug)]
pub struct NvmeDevice {
    kind: NamespaceKind,
    capacity_lbas: u64,
    flash: FlashArray,
    blocks: HashMap<u64, Bytes>,
    zones: Vec<Zone>,
    kv: BTreeMap<Vec<u8>, Bytes>,
    /// Device energy meter (idle power plus per-byte flash energy).
    pub energy: EnergyMeter,
    /// `reads`/`writes`/`appends`/... structural counters.
    pub counters: Counters,
    kv_page_cursor: u64,
    /// Completion instants of commands still in flight, as a min-heap (the
    /// submission queue's occupancy model). Each submit first pops every
    /// entry that completed at or before its arrival instant; a popped
    /// entry stays gone even if a later submit arrives at an earlier
    /// instant.
    outstanding: BinaryHeap<Reverse<Ns>>,
    /// Injected-fault plan; empty by default (no draws, no perturbation).
    faults: FaultPlan,
    /// LBAs relocated to spare pages after a grown bad block.
    remapped: HashSet<u64>,
    /// Next spare page for remap programs (past the namespace pages).
    remap_cursor: u64,
}

/// Fault site: a read command hits a media error with the configured
/// probability; the device answers with read-retry, then a remap, and
/// only surfaces [`NvmeError::MediaError`] when the retry fails too.
pub const FAULT_NVME_MEDIA_READ: &str = "nvme:media_read";
/// Fault site: a command's completion is delayed by an internal pause
/// (GC, thermal throttle) with the configured probability.
pub const FAULT_NVME_LATENCY_SPIKE: &str = "nvme:latency_spike";

impl NvmeDevice {
    /// Creates a conventional block-namespace SSD.
    pub fn new_block(capacity_lbas: u64) -> NvmeDevice {
        Self::new(NamespaceKind::Block, capacity_lbas)
    }

    /// Creates a ZNS SSD; capacity is rounded down to whole zones.
    pub fn new_zoned(capacity_lbas: u64) -> NvmeDevice {
        let mut d = Self::new(NamespaceKind::Zoned, capacity_lbas);
        let zones = capacity_lbas / params::ZONE_LBAS;
        d.zones = (0..zones)
            .map(|_| Zone {
                write_pointer: 0,
                cond: ZoneCond::Empty,
            })
            .collect();
        d
    }

    /// Creates a KV-SSD.
    pub fn new_kv(capacity_lbas: u64) -> NvmeDevice {
        Self::new(NamespaceKind::KeyValue, capacity_lbas)
    }

    fn new(kind: NamespaceKind, capacity_lbas: u64) -> NvmeDevice {
        NvmeDevice {
            kind,
            capacity_lbas,
            flash: FlashArray::new(),
            blocks: HashMap::new(),
            zones: Vec::new(),
            kv: BTreeMap::new(),
            energy: EnergyMeter::new(params::SSD_IDLE_POWER),
            counters: Counters::new(),
            kv_page_cursor: 0,
            outstanding: BinaryHeap::new(),
            faults: FaultPlan::none(),
            remapped: HashSet::new(),
            remap_cursor: 0,
        }
    }

    /// Installs a fault plan. Sites consulted:
    /// [`FAULT_NVME_MEDIA_READ`] and [`FAULT_NVME_LATENCY_SPIKE`]. The
    /// default empty plan adds no draws and no timing perturbation.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// The installed fault plan (for counter export).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// True once any grown bad block was remapped: the device still
    /// serves every LBA but is operating on spare capacity.
    pub fn is_degraded(&self) -> bool {
        !self.remapped.is_empty()
    }

    /// Number of LBAs relocated to spare pages.
    pub fn remapped_lbas(&self) -> usize {
        self.remapped.len()
    }

    /// The namespace kind.
    pub fn kind(&self) -> NamespaceKind {
        self.kind
    }

    /// Namespace capacity in LBAs.
    pub fn capacity_lbas(&self) -> u64 {
        self.capacity_lbas
    }

    /// Number of zones (zero unless zoned).
    pub fn num_zones(&self) -> usize {
        self.zones.len()
    }

    /// A zone's write pointer in LBAs (for tests and the shared log).
    pub fn zone_write_pointer(&self, zone: u64) -> Option<u64> {
        self.zones.get(zone as usize).map(|z| z.write_pointer)
    }

    /// Flash operation counts `(reads, programs, erases)`.
    pub fn flash_ops(&self) -> (u64, u64, u64) {
        self.flash.op_counts()
    }

    fn page_of(lba: u64) -> u64 {
        lba * params::LBA_SIZE / params::PAGE_SIZE
    }

    fn read_pages(&mut self, lba: u64, blocks: u64, now: Ns) -> Ns {
        let first = Self::page_of(lba);
        let last = Self::page_of(lba + blocks - 1);
        let mut done = now;
        for p in first..=last {
            done = done.max(self.flash.access(FlashOp::Read, p, now));
        }
        self.energy.charge(Pj(
            (blocks * params::LBA_SIZE) as u128 * params::READ_PJ_PER_BYTE as u128
        ));
        done
    }

    fn program_pages(&mut self, lba: u64, blocks: u64, now: Ns) -> Ns {
        let first = Self::page_of(lba);
        let last = Self::page_of(lba + blocks - 1);
        let mut done = now;
        for p in first..=last {
            done = done.max(self.flash.access(FlashOp::Program, p, now));
        }
        self.energy.charge(Pj(
            (blocks * params::LBA_SIZE) as u128 * params::PROGRAM_PJ_PER_BYTE as u128
        ));
        done
    }

    /// Number of commands submitted before `now` whose completions have
    /// not yet posted at `now` — the device's queue depth as a client
    /// submitting at `now` would observe it.
    pub fn queue_depth_at(&self, now: Ns) -> usize {
        self.outstanding
            .iter()
            .filter(|&&Reverse(d)| d > now)
            .count()
    }

    /// Executes a command arriving at the controller at `now` (see
    /// [`NvmeDevice::submit_traced`]).
    pub fn submit(&mut self, cmd: Command, now: Ns) -> Result<Completion, NvmeError> {
        self.submit_traced(cmd, now, None)
    }

    /// Executes a command arriving at the controller at `now`.
    ///
    /// Timing includes controller overhead plus flash work; state changes
    /// are applied synchronously (the simulated completion instant tells
    /// callers when they become visible).
    ///
    /// With a recorder: a telemetry span over the command and a
    /// queue-depth gauge sampled at submission. Page-addressed commands
    /// whose target die is busy get a queueing edge on the span, so the
    /// critical-path analyzer can split die contention from media time.
    /// Recovery work (media errors, retries, remaps, latency spikes) is
    /// counted and marked with `fault:nvme:*` instants. With the
    /// utilization plane on, the flash channels and dies the command
    /// occupied are claimed busy and the submission queue depth is sampled.
    pub fn submit_traced(
        &mut self,
        cmd: Command,
        now: Ns,
        mut rec: Option<&mut Recorder>,
    ) -> Result<Completion, NvmeError> {
        let obs = rec.as_deref_mut().map(|rec| {
            rec.gauge("nvme:queue_depth", self.queue_depth_at(now) as u64);
            let util = rec.util_enabled();
            let span = rec.open(Component::Nvme, cmd.label(), now);
            // The command reaches the flash after controller overhead;
            // only LBA-addressed ops map to a die we can query up front.
            if let Command::Read { lba, .. } | Command::Write { lba, .. } = &cmd {
                let arrive = now + params::CONTROLLER_OVERHEAD;
                let page = Self::page_of(*lba);
                let wait = self.flash.queue_wait(page, arrive);
                if wait > Ns::ZERO {
                    if util {
                        let (_, die) = self.flash.placement(page);
                        rec.queue_edge_labeled(span, arrive + wait, &format!("nvme:die{die}"));
                    } else {
                        rec.queue_edge(span, arrive + wait);
                    }
                }
            }
            if util {
                rec.depth_sample("nvme:sq", now, self.queue_depth_at(now) as u64);
                self.flash.begin_trace();
            }
            let recovery_before =
                RECOVERY_COUNTERS.map(|name| self.counters.get(&name["nvme:".len()..]));
            (span, util, recovery_before)
        });
        while self.outstanding.peek().is_some_and(|&Reverse(d)| d <= now) {
            self.outstanding.pop();
        }
        let result = self.execute(cmd, now).map(|mut completion| {
            if !self.faults.is_empty() && self.faults.fires(FAULT_NVME_LATENCY_SPIKE, now) {
                // Internal pause (GC, thermal throttle): the command
                // completes, late.
                completion.done += params::READ_LATENCY * 8;
                self.counters.bump("latency_spikes");
            }
            self.outstanding.push(Reverse(completion.done));
            completion
        });
        if let (Some(rec), Some((span, util, recovery_before))) = (rec, obs) {
            if util {
                for c in self.flash.end_trace() {
                    let id = if c.channel {
                        format!("nvme:ch{}", c.index)
                    } else {
                        format!("nvme:die{}", c.index)
                    };
                    rec.claim_busy(&id, c.start, c.end);
                }
            }
            for (name, before) in RECOVERY_COUNTERS.into_iter().zip(recovery_before) {
                let after = self.counters.get(&name["nvme:".len()..]);
                if after > before {
                    rec.count(name, after - before);
                    rec.instant(&format!("fault:{name}"), now);
                }
            }
            rec.close(span, result.as_ref().map_or(now, |c| c.done));
        }
        result
    }

    fn execute(&mut self, cmd: Command, now: Ns) -> Result<Completion, NvmeError> {
        let start = now + params::CONTROLLER_OVERHEAD;
        match cmd {
            Command::Read { lba, blocks } => {
                // Reads are legal on both conventional and zoned
                // namespaces (ZNS restricts writes, not reads).
                if self.kind == NamespaceKind::KeyValue {
                    return Err(NvmeError::WrongNamespace { kind: self.kind });
                }
                if blocks == 0 {
                    return Err(NvmeError::BadLength(0));
                }
                let blocks = blocks as u64;
                self.check_range(lba, blocks)?;
                self.counters.bump("reads");
                let done = self.read_pages(lba, blocks, start);
                let done = self.recover_read(lba, blocks, done)?;
                Ok(Completion {
                    response: Response::Data(self.gather(lba, blocks)),
                    done,
                })
            }
            Command::Write { lba, data } => {
                self.require(NamespaceKind::Block)?;
                let blocks = Self::blocks_in(&data)?;
                self.check_range(lba, blocks)?;
                self.counters.bump("writes");
                let done = self.program_pages(lba, blocks, start);
                self.store_blocks(lba, &data);
                Ok(Completion {
                    response: Response::Written { lba },
                    done,
                })
            }
            Command::Flush => {
                self.counters.bump("flushes");
                Ok(Completion {
                    response: Response::Ok,
                    done: start,
                })
            }
            Command::ZoneAppend { zone, data } => {
                self.require(NamespaceKind::Zoned)?;
                let blocks = Self::blocks_in(&data)?;
                let z = self
                    .zones
                    .get_mut(zone as usize)
                    .ok_or(NvmeError::NoSuchZone(zone))?;
                if z.write_pointer + blocks > params::ZONE_LBAS {
                    z.cond = ZoneCond::Full;
                    return Err(NvmeError::ZoneFull(zone));
                }
                let lba = zone * params::ZONE_LBAS + z.write_pointer;
                z.write_pointer += blocks;
                z.cond = if z.write_pointer == params::ZONE_LBAS {
                    ZoneCond::Full
                } else {
                    ZoneCond::Open
                };
                self.counters.bump("appends");
                let done = self.program_pages(lba, blocks, start);
                self.store_blocks(lba, &data);
                Ok(Completion {
                    response: Response::Written { lba },
                    done,
                })
            }
            Command::ZoneReset { zone } => {
                self.require(NamespaceKind::Zoned)?;
                let z = self
                    .zones
                    .get_mut(zone as usize)
                    .ok_or(NvmeError::NoSuchZone(zone))?;
                z.write_pointer = 0;
                z.cond = ZoneCond::Empty;
                self.counters.bump("zone_resets");
                // Erase every block the zone spans; erases on distinct dies
                // overlap.
                let first_page = Self::page_of(zone * params::ZONE_LBAS);
                let pages = params::ZONE_LBAS * params::LBA_SIZE / params::PAGE_SIZE;
                let nblocks = pages / params::PAGES_PER_BLOCK;
                let mut done = start;
                for b in 0..nblocks {
                    let page = first_page + b * params::PAGES_PER_BLOCK;
                    done = done.max(self.flash.access(FlashOp::Erase, page, start));
                }
                let base = zone * params::ZONE_LBAS;
                self.blocks
                    .retain(|&lba, _| lba < base || lba >= base + params::ZONE_LBAS);
                Ok(Completion {
                    response: Response::Ok,
                    done,
                })
            }
            Command::KvGet { key } => {
                self.require(NamespaceKind::KeyValue)?;
                self.counters.bump("kv_gets");
                match self.kv.get(&key).cloned() {
                    Some(value) => {
                        let pages = (value.len() as u64).div_ceil(params::PAGE_SIZE).max(1);
                        let cursor = key_page(&key);
                        let mut done = start;
                        for p in 0..pages {
                            done = done.max(self.flash.access(FlashOp::Read, cursor + p, start));
                        }
                        self.energy
                            .charge(Pj(value.len() as u128 * params::READ_PJ_PER_BYTE as u128));
                        Ok(Completion {
                            response: Response::Data(value),
                            done,
                        })
                    }
                    None => Ok(Completion {
                        response: Response::NotFound,
                        done: start,
                    }),
                }
            }
            Command::KvPut { key, value } => {
                self.require(NamespaceKind::KeyValue)?;
                self.counters.bump("kv_puts");
                let pages = (value.len() as u64).div_ceil(params::PAGE_SIZE).max(1);
                let cursor = self.kv_page_cursor;
                self.kv_page_cursor += pages;
                let mut done = start;
                for p in 0..pages {
                    done = done.max(self.flash.access(FlashOp::Program, cursor + p, start));
                }
                self.energy
                    .charge(Pj(value.len() as u128 * params::PROGRAM_PJ_PER_BYTE as u128));
                self.kv.insert(key, value);
                Ok(Completion {
                    response: Response::Ok,
                    done,
                })
            }
            Command::KvDelete { key } => {
                self.require(NamespaceKind::KeyValue)?;
                self.counters.bump("kv_deletes");
                let found = self.kv.remove(&key).is_some();
                Ok(Completion {
                    response: if found {
                        Response::Ok
                    } else {
                        Response::NotFound
                    },
                    done: start,
                })
            }
        }
    }

    /// The self-healing read path. When the media-read fault site fires,
    /// the controller first re-senses the stripe (read-retry with tuned
    /// thresholds); if the retry succeeds the cells are treated as a
    /// grown bad block and the LBAs are relocated to spare pages in the
    /// background. Only a failed retry surfaces
    /// [`NvmeError::MediaError`] to the caller. Already-remapped LBAs
    /// read from healthy spare cells and skip injection entirely.
    fn recover_read(&mut self, lba: u64, blocks: u64, done: Ns) -> Result<Ns, NvmeError> {
        if self.faults.is_empty() || self.remapped.contains(&lba) {
            return Ok(done);
        }
        if !self.faults.fires(FAULT_NVME_MEDIA_READ, done) {
            return Ok(done);
        }
        self.counters.bump("media_errors");
        self.counters.bump("read_retries");
        let retried = self.read_pages(lba, blocks, done);
        if self.faults.fires(FAULT_NVME_MEDIA_READ, retried) {
            // The retry failed too: data at this stripe is lost.
            self.counters.bump("media_failures");
            return Err(NvmeError::MediaError { lba });
        }
        // Recovered, but the cells are marginal: relocate to spares. The
        // program proceeds in the background (it occupies flash but does
        // not delay this read's completion).
        let pages = Self::page_of(lba + blocks - 1) - Self::page_of(lba) + 1;
        let spare_base = Self::page_of(self.capacity_lbas) + self.remap_cursor;
        self.remap_cursor += pages;
        for p in 0..pages {
            self.flash.access(FlashOp::Program, spare_base + p, retried);
        }
        self.energy.charge(Pj(
            (blocks * params::LBA_SIZE) as u128 * params::PROGRAM_PJ_PER_BYTE as u128
        ));
        for b in 0..blocks {
            self.remapped.insert(lba + b);
        }
        self.counters.bump("remaps");
        Ok(retried)
    }

    fn require(&self, kind: NamespaceKind) -> Result<(), NvmeError> {
        if self.kind == kind {
            Ok(())
        } else {
            Err(NvmeError::WrongNamespace { kind: self.kind })
        }
    }

    fn check_range(&self, lba: u64, blocks: u64) -> Result<(), NvmeError> {
        if lba + blocks > self.capacity_lbas {
            Err(NvmeError::OutOfRange { lba: lba + blocks })
        } else {
            Ok(())
        }
    }

    fn blocks_in(data: &Bytes) -> Result<u64, NvmeError> {
        let len = data.len();
        if len == 0 || !len.is_multiple_of(params::LBA_SIZE as usize) {
            Err(NvmeError::BadLength(len))
        } else {
            Ok((len / params::LBA_SIZE as usize) as u64)
        }
    }

    /// Keeps each LBA of `data` as a slice of the caller's buffer: the
    /// payload is stored where it arrived, not copied.
    fn store_blocks(&mut self, lba: u64, data: &Bytes) {
        let size = params::LBA_SIZE as usize;
        for i in 0..data.len() / size {
            self.blocks
                .insert(lba + i as u64, data.slice(i * size..(i + 1) * size));
        }
    }

    /// The contents of `blocks` LBAs from `lba`, zeros where never
    /// written. A single written LBA is returned as the stored buffer
    /// itself; anything else is assembled into one new buffer.
    fn gather(&self, lba: u64, blocks: u64) -> Bytes {
        if blocks == 1 {
            if let Some(data) = self.blocks.get(&lba) {
                return data.clone();
            }
        }
        let mut out = Vec::with_capacity((blocks * params::LBA_SIZE) as usize);
        for b in 0..blocks {
            match self.blocks.get(&(lba + b)) {
                Some(data) => out.extend_from_slice(data),
                None => out.extend(std::iter::repeat_n(0u8, params::LBA_SIZE as usize)),
            }
        }
        Bytes::from(out)
    }
}

/// Device recovery counters mirrored into telemetry by
/// [`NvmeDevice::submit_traced`] (the device counter is the name without
/// its `nvme:` prefix).
const RECOVERY_COUNTERS: [&str; 5] = [
    "nvme:media_errors",
    "nvme:read_retries",
    "nvme:remaps",
    "nvme:latency_spikes",
    "nvme:media_failures",
];

/// Deterministic timing placement for KV keys on the flash array.
fn key_page(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h % (1 << 20)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lba_data(fill: u8, blocks: usize) -> Bytes {
        Bytes::from(vec![fill; blocks * params::LBA_SIZE as usize])
    }

    #[test]
    fn write_read_round_trip() {
        let mut d = NvmeDevice::new_block(1 << 20);
        d.submit(
            Command::Write {
                lba: 100,
                data: lba_data(0xAB, 2),
            },
            Ns::ZERO,
        )
        .unwrap();
        let c = d
            .submit(
                Command::Read {
                    lba: 100,
                    blocks: 2,
                },
                Ns::ZERO,
            )
            .unwrap();
        match c.response {
            Response::Data(data) => {
                assert_eq!(data.len(), 2 * params::LBA_SIZE as usize);
                assert!(data.iter().all(|&b| b == 0xAB));
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn unwritten_blocks_read_zero() {
        let mut d = NvmeDevice::new_block(1 << 20);
        let c = d
            .submit(Command::Read { lba: 5, blocks: 1 }, Ns::ZERO)
            .unwrap();
        match c.response {
            Response::Data(data) => assert!(data.iter().all(|&b| b == 0)),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn read_latency_is_flash_class() {
        let mut d = NvmeDevice::new_block(1 << 20);
        let c = d
            .submit(Command::Read { lba: 0, blocks: 1 }, Ns::ZERO)
            .unwrap();
        // Controller + tR + bus: ~65-70 us.
        assert!(
            c.done > Ns(60_000) && c.done < Ns(90_000),
            "read took {}",
            c.done
        );
    }

    #[test]
    fn write_latency_exceeds_read_latency() {
        let mut d = NvmeDevice::new_block(1 << 20);
        let w = d
            .submit(
                Command::Write {
                    lba: 0,
                    data: lba_data(1, 1),
                },
                Ns::ZERO,
            )
            .unwrap();
        let mut d2 = NvmeDevice::new_block(1 << 20);
        let r = d2
            .submit(Command::Read { lba: 0, blocks: 1 }, Ns::ZERO)
            .unwrap();
        assert!(w.done > r.done * 5);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = NvmeDevice::new_block(10);
        assert!(matches!(
            d.submit(Command::Read { lba: 9, blocks: 2 }, Ns::ZERO),
            Err(NvmeError::OutOfRange { .. })
        ));
    }

    #[test]
    fn misaligned_write_rejected() {
        let mut d = NvmeDevice::new_block(1 << 20);
        assert!(matches!(
            d.submit(
                Command::Write {
                    lba: 0,
                    data: Bytes::from_static(&[1, 2, 3]),
                },
                Ns::ZERO,
            ),
            Err(NvmeError::BadLength(3))
        ));
    }

    #[test]
    fn zone_append_assigns_sequential_lbas() {
        let mut d = NvmeDevice::new_zoned(4 * params::ZONE_LBAS);
        assert_eq!(d.num_zones(), 4);
        let c1 = d
            .submit(
                Command::ZoneAppend {
                    zone: 1,
                    data: lba_data(1, 1),
                },
                Ns::ZERO,
            )
            .unwrap();
        let c2 = d
            .submit(
                Command::ZoneAppend {
                    zone: 1,
                    data: lba_data(2, 2),
                },
                Ns::ZERO,
            )
            .unwrap();
        match (c1.response, c2.response) {
            (Response::Written { lba: a }, Response::Written { lba: b }) => {
                assert_eq!(a, params::ZONE_LBAS);
                assert_eq!(b, params::ZONE_LBAS + 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(d.zone_write_pointer(1), Some(3));
    }

    #[test]
    fn zone_reset_rewinds_write_pointer() {
        let mut d = NvmeDevice::new_zoned(2 * params::ZONE_LBAS);
        d.submit(
            Command::ZoneAppend {
                zone: 0,
                data: lba_data(1, 1),
            },
            Ns::ZERO,
        )
        .unwrap();
        d.submit(Command::ZoneReset { zone: 0 }, Ns::ZERO).unwrap();
        assert_eq!(d.zone_write_pointer(0), Some(0));
    }

    #[test]
    fn zone_full_is_reported() {
        let mut d = NvmeDevice::new_zoned(params::ZONE_LBAS);
        // Fill the zone in two large appends, then overflow.
        let half = params::ZONE_LBAS / 2;
        for _ in 0..2 {
            d.submit(
                Command::ZoneAppend {
                    zone: 0,
                    data: lba_data(7, half as usize),
                },
                Ns::ZERO,
            )
            .unwrap();
        }
        assert!(matches!(
            d.submit(
                Command::ZoneAppend {
                    zone: 0,
                    data: lba_data(7, 1),
                },
                Ns::ZERO,
            ),
            Err(NvmeError::ZoneFull(0))
        ));
    }

    #[test]
    fn kv_namespace_round_trip() {
        let mut d = NvmeDevice::new_kv(1 << 20);
        d.submit(
            Command::KvPut {
                key: b"alpha".to_vec(),
                value: Bytes::from_static(b"value-1"),
            },
            Ns::ZERO,
        )
        .unwrap();
        let c = d
            .submit(
                Command::KvGet {
                    key: b"alpha".to_vec(),
                },
                Ns::ZERO,
            )
            .unwrap();
        assert_eq!(c.response, Response::Data(Bytes::from_static(b"value-1")));
        let miss = d
            .submit(
                Command::KvGet {
                    key: b"beta".to_vec(),
                },
                Ns::ZERO,
            )
            .unwrap();
        assert_eq!(miss.response, Response::NotFound);
        d.submit(
            Command::KvDelete {
                key: b"alpha".to_vec(),
            },
            Ns::ZERO,
        )
        .unwrap();
        let gone = d
            .submit(
                Command::KvGet {
                    key: b"alpha".to_vec(),
                },
                Ns::ZERO,
            )
            .unwrap();
        assert_eq!(gone.response, Response::NotFound);
    }

    #[test]
    fn media_fault_recovers_via_retry_and_remap() {
        let mut d = NvmeDevice::new_block(1 << 20);
        // Clean read for a latency baseline.
        let clean = d
            .submit(Command::Read { lba: 0, blocks: 1 }, Ns::ZERO)
            .unwrap()
            .done;
        // A window that covers the first sense (evaluated at its
        // completion instant) but not the later retry: the read recovers.
        let mut d2 = NvmeDevice::new_block(1 << 20);
        d2.set_fault_plan(FaultPlan::seeded(3).window(
            FAULT_NVME_MEDIA_READ,
            Ns::ZERO,
            clean + Ns(1),
        ));
        let c = d2
            .submit(Command::Read { lba: 0, blocks: 1 }, Ns::ZERO)
            .unwrap();
        assert!(c.done > clean, "retry must cost extra media time");
        assert_eq!(d2.counters.get("media_errors"), 1);
        assert_eq!(d2.counters.get("read_retries"), 1);
        assert_eq!(d2.counters.get("remaps"), 1);
        assert!(d2.is_degraded());
        assert_eq!(d2.remapped_lbas(), 1);
        // The remapped LBA reads clean from spare cells afterwards.
        let again = d2
            .submit(Command::Read { lba: 0, blocks: 1 }, c.done)
            .unwrap();
        assert_eq!(d2.counters.get("media_errors"), 1);
        drop(again);
    }

    #[test]
    fn unrecoverable_media_error_is_typed_and_bounded() {
        let mut d = NvmeDevice::new_block(1 << 20);
        // A permanent window: the retry fails too — exactly one retry is
        // attempted, then the typed error surfaces.
        d.set_fault_plan(FaultPlan::seeded(3).window(
            FAULT_NVME_MEDIA_READ,
            Ns::ZERO,
            Ns(u64::MAX),
        ));
        match d.submit(Command::Read { lba: 8, blocks: 1 }, Ns::ZERO) {
            Err(NvmeError::MediaError { lba }) => assert_eq!(lba, 8),
            other => panic!("expected MediaError, got {other:?}"),
        }
        assert_eq!(d.counters.get("read_retries"), 1);
        assert_eq!(d.counters.get("media_failures"), 1);
        assert!(!d.is_degraded(), "failed reads do not remap");
    }

    #[test]
    fn latency_spike_delays_completion_deterministically() {
        let mut d = NvmeDevice::new_block(1 << 20);
        let clean = d
            .submit(Command::Read { lba: 0, blocks: 1 }, Ns::ZERO)
            .unwrap()
            .done;
        let run = |seed: u64| {
            let mut d = NvmeDevice::new_block(1 << 20);
            d.set_fault_plan(FaultPlan::seeded(seed).bernoulli(FAULT_NVME_LATENCY_SPIKE, 1.0));
            d.submit(Command::Read { lba: 0, blocks: 1 }, Ns::ZERO)
                .unwrap()
                .done
        };
        assert_eq!(run(1), clean + params::READ_LATENCY * 8);
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn traced_submit_claims_flash_and_labels_die_contention() {
        let mut d = NvmeDevice::new_block(1 << 20);
        let mut rec = Recorder::new("nvme-util");
        rec.enable_util();
        let a = d
            .submit_traced(
                Command::Read { lba: 0, blocks: 1 },
                Ns::ZERO,
                Some(&mut rec),
            )
            .unwrap();
        // Same page again at t=0: queues on the same die, so the second
        // span's queueing edge must blame that die.
        let b = d
            .submit_traced(
                Command::Read { lba: 0, blocks: 1 },
                Ns::ZERO,
                Some(&mut rec),
            )
            .unwrap();
        assert!(b.done > a.done);
        let die = rec.util().resource("nvme:die0").expect("die claimed");
        assert_eq!(die.busy_ns(), params::READ_LATENCY * 2);
        assert!(rec.util().resource("nvme:ch0").is_some());
        assert_eq!(rec.edge_resources().len(), 1);
        assert_eq!(rec.edge_resources()[0].1, "nvme:die0");
        // Timing parity with the recorder-free (`None`) path.
        let mut plain = NvmeDevice::new_block(1 << 20);
        let pa = plain
            .submit(Command::Read { lba: 0, blocks: 1 }, Ns::ZERO)
            .unwrap();
        let pb = plain
            .submit(Command::Read { lba: 0, blocks: 1 }, Ns::ZERO)
            .unwrap();
        assert_eq!((pa.done, pb.done), (a.done, b.done));
    }

    #[test]
    fn traced_media_fault_leaves_instants() {
        let mut d = NvmeDevice::new_block(1 << 20);
        let clean = d
            .submit(Command::Read { lba: 0, blocks: 1 }, Ns::ZERO)
            .unwrap()
            .done;
        let mut d2 = NvmeDevice::new_block(1 << 20);
        d2.set_fault_plan(FaultPlan::seeded(3).window(
            FAULT_NVME_MEDIA_READ,
            Ns::ZERO,
            clean + Ns(1),
        ));
        let mut rec = Recorder::new("nvme-faults");
        d2.submit_traced(
            Command::Read { lba: 0, blocks: 1 },
            Ns::ZERO,
            Some(&mut rec),
        )
        .unwrap();
        let names: Vec<&str> = rec.instants().iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"fault:nvme:media_errors"));
        assert!(names.contains(&"fault:nvme:remaps"));
    }

    #[test]
    fn completion_heap_matches_a_retain_model() {
        use hyperion_sim::rng::Rng;
        for seed in 0..4 {
            let mut rng = Rng::seeded(seed);
            let mut d = NvmeDevice::new_block(1 << 16);
            let mut model: Vec<Ns> = Vec::new();
            let mut clock = 500_000u64;
            for _ in 0..2_000 {
                // Mostly forward in time; one submit in five arrives up
                // to 500 us in the past, and one in five exactly at an
                // in-flight completion instant (the reap boundary).
                clock += rng.next_below(40_000);
                let now = match rng.next_below(5) {
                    0 => Ns(clock - rng.next_below(500_000)),
                    1 if !model.is_empty() => model[rng.next_below(model.len() as u64) as usize],
                    _ => Ns(clock),
                };
                model.retain(|&done| done > now);
                let lba = rng.next_below(1 << 16);
                let cmd = if rng.chance(0.5) {
                    Command::Read { lba, blocks: 1 }
                } else {
                    Command::Write {
                        lba,
                        data: lba_data(1, 1),
                    }
                };
                let c = d.submit(cmd, now).unwrap();
                model.push(c.done);
                let mut inflight: Vec<Ns> = d.outstanding.iter().map(|r| r.0).collect();
                inflight.sort_unstable();
                let mut expected = model.clone();
                expected.sort_unstable();
                assert_eq!(inflight, expected, "seed {seed}");
                for at in [now, c.done, Ns(rng.next_below(clock + 1_000_000))] {
                    let depth = model.iter().filter(|&&done| done > at).count();
                    assert_eq!(d.queue_depth_at(at), depth, "seed {seed} at {at}");
                }
            }
        }
    }

    #[test]
    fn namespace_kinds_reject_foreign_commands() {
        let mut d = NvmeDevice::new_block(1 << 20);
        assert!(matches!(
            d.submit(Command::KvGet { key: vec![1] }, Ns::ZERO),
            Err(NvmeError::WrongNamespace { .. })
        ));
        let mut z = NvmeDevice::new_zoned(params::ZONE_LBAS);
        // Reads are fine on zoned namespaces; random writes are not.
        assert!(z
            .submit(Command::Read { lba: 0, blocks: 1 }, Ns::ZERO)
            .is_ok());
        assert!(matches!(
            z.submit(
                Command::Write {
                    lba: 0,
                    data: Bytes::from(vec![0u8; params::LBA_SIZE as usize]),
                },
                Ns::ZERO,
            ),
            Err(NvmeError::WrongNamespace { .. })
        ));
    }

    #[test]
    fn zero_block_reads_are_rejected() {
        let mut d = NvmeDevice::new_block(1 << 10);
        for lba in [0, 5] {
            assert_eq!(
                d.submit(Command::Read { lba, blocks: 0 }, Ns::ZERO)
                    .unwrap_err(),
                NvmeError::BadLength(0)
            );
        }
        assert_eq!(d.counters.get("reads"), 0);
        assert_eq!(d.flash_ops(), (0, 0, 0));
    }

    #[test]
    fn data_path_matches_a_naive_model() {
        use hyperion_sim::rng::Rng;
        const LBA: usize = params::LBA_SIZE as usize;
        const CAPACITY: u64 = 48;
        fn expected(model: &HashMap<u64, [u8; LBA]>, lba: u64, blocks: u64) -> Vec<u8> {
            (lba..lba + blocks)
                .flat_map(|b| model.get(&b).copied().unwrap_or([0; LBA]))
                .collect()
        }
        for seed in 0..4 {
            let mut rng = Rng::seeded(seed);
            let mut d = NvmeDevice::new_block(CAPACITY);
            let mut model: HashMap<u64, [u8; LBA]> = HashMap::new();
            // Earlier reads with the contents they returned: later
            // overwrites of the same LBAs must not show through them.
            let mut kept: Vec<(Bytes, Vec<u8>)> = Vec::new();
            let (mut shared, mut unwritten) = (0, 0);
            for step in 0..600 {
                let blocks = 1 + rng.next_below(4);
                let lba = rng.next_below(CAPACITY - blocks + 1);
                let now = Ns(step * 1_000);
                if rng.chance(0.5) {
                    // Multi-LBA writes over a small namespace: most of
                    // them partially overwrite an earlier write.
                    let mut data = vec![0u8; blocks as usize * LBA];
                    rng.fill_bytes(&mut data);
                    for (i, block) in data.chunks_exact(LBA).enumerate() {
                        model.insert(lba + i as u64, block.try_into().unwrap());
                    }
                    d.submit(
                        Command::Write {
                            lba,
                            data: Bytes::from(data),
                        },
                        now,
                    )
                    .unwrap();
                } else {
                    let c = d
                        .submit(
                            Command::Read {
                                lba,
                                blocks: blocks as u32,
                            },
                            now,
                        )
                        .unwrap();
                    let Response::Data(data) = c.response else {
                        panic!("read returns data");
                    };
                    let written = (lba..lba + blocks)
                        .filter(|b| model.contains_key(b))
                        .count();
                    shared += usize::from(blocks == 1 && written == 1);
                    unwritten += usize::from(written < blocks as usize);
                    let want = expected(&model, lba, blocks);
                    assert!(data[..] == want[..], "seed {seed} step {step} lba {lba}");
                    if step % 8 == 0 {
                        kept.push((data, want));
                    }
                }
            }
            assert!(model.len() > 40, "seed {seed}: namespace mostly written");
            assert!(
                kept.len() > 20 && shared > 20 && unwritten > 5,
                "seed {seed}"
            );
            for (data, want) in &kept {
                assert!(data[..] == want[..], "seed {seed}: an old read changed");
            }
        }
    }
}
