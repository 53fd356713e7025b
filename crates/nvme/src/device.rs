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
use std::collections::BinaryHeap;
use std::ops::Range;

use bytes::{Bytes, BytesMut};
use hyperion_sim::energy::{EnergyMeter, Pj};
use hyperion_sim::fault::FaultPlan;
use hyperion_sim::hash::{IntMap, IntSet};
use hyperion_sim::stats::Counters;
use hyperion_sim::time::Ns;
use hyperion_telemetry::{Component, Recorder};

use crate::blocks::{BlockTable, Stored};
use crate::flash::{FlashArray, FlashOp};
use crate::params;
use crate::prefixes::Prefixes;

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
///
/// Two commands write a block namespace: [`Command::Write`] for whole
/// blocks, and [`Command::WritePrefix`] for one block of which the writer
/// declares only the leading bytes. Both cost the same and read back the
/// same; they differ only in what the device has to inspect to decide how
/// to hold the block (see the crate's design notes on stored blocks).
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
    /// Write one block at `lba`: its first `data.len()` bytes are `data`
    /// and the rest are zeros. Timed, charged and counted exactly like a
    /// one-block [`Command::Write`] of the zero-padded block; the writer
    /// declares how much of the block it wrote, so the device need not
    /// scan a padded block to find out.
    WritePrefix {
        /// Logical block.
        lba: u64,
        /// The block's leading bytes; at most the LBA size.
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
            Command::Write { .. } | Command::WritePrefix { .. } => "nvme:write",
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
    /// Write data not a positive multiple of the LBA size, prefix-write
    /// data longer than a block, or a read of zero blocks.
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
    /// Written LBAs; see [`NvmeDevice::store_blocks`].
    blocks: BlockTable,
    /// The prefixes [`Stored::Prefix`] entries refer to.
    prefixes: Prefixes,
    zones: Vec<Zone>,
    /// The KV namespace. Hashed with [`IntHasher`], whose order is not
    /// the keys' order: only ever read, written and removed from, never
    /// iterated, so nothing the device reports depends on that order.
    ///
    /// [`IntHasher`]: hyperion_sim::hash::IntHasher
    kv: IntMap<Vec<u8>, Bytes>,
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
    remapped: IntSet<u64>,
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
            blocks: BlockTable::default(),
            prefixes: Prefixes::default(),
            zones: Vec::new(),
            kv: IntMap::default(),
            energy: EnergyMeter::new(params::SSD_IDLE_POWER),
            counters: Counters::new(),
            kv_page_cursor: 0,
            outstanding: BinaryHeap::new(),
            faults: FaultPlan::none(),
            remapped: IntSet::default(),
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
            let depth = self.queue_depth_at(now) as u64;
            rec.gauge("nvme:queue_depth", depth);
            let util = rec.util_enabled();
            let span = rec.open(Component::Nvme, cmd.label(), now);
            // The command reaches the flash after controller overhead;
            // only LBA-addressed ops map to a die we can query up front.
            if let Command::Read { lba, .. }
            | Command::Write { lba, .. }
            | Command::WritePrefix { lba, .. } = &cmd
            {
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
                rec.depth_sample("nvme:sq", now, depth);
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
            Command::WritePrefix { lba, data } => {
                self.require(NamespaceKind::Block)?;
                if data.len() > params::LBA_SIZE as usize {
                    return Err(NvmeError::BadLength(data.len()));
                }
                self.check_range(lba, 1)?;
                self.counters.bump("writes");
                let done = self.program_pages(lba, 1, start);
                if self.store_block(lba, &data, 0..data.len(), Extent::Declared) {
                    self.repack_prefixes();
                }
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
                let (prefixes, mut repack) = (&mut self.prefixes, false);
                self.blocks.erase(base..base + params::ZONE_LBAS, |stored| {
                    if let Stored::Prefix(p) = stored {
                        repack |= prefixes.release(p);
                    }
                });
                if repack {
                    self.repack_prefixes();
                }
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

    /// Rejects a range that ends past the namespace. The LBA can come
    /// straight off the network (an NVMe-oF capsule), so the end must not
    /// wrap around.
    fn check_range(&self, lba: u64, blocks: u64) -> Result<(), NvmeError> {
        match lba.checked_add(blocks) {
            Some(end) if end <= self.capacity_lbas => Ok(()),
            _ => Err(NvmeError::OutOfRange {
                lba: lba.saturating_add(blocks),
            }),
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

    /// Stores each LBA of `data` with [`NvmeDevice::store_block`], finding
    /// each fresh block's written prefix by scanning it
    /// ([`Extent::Scanned`]).
    fn store_blocks(&mut self, lba: u64, data: &Bytes) {
        let size = params::LBA_SIZE as usize;
        let mut repack = false;
        for (i, at) in (0..data.len()).step_by(size).enumerate() {
            repack |= self.store_block(lba + i as u64, data, at..at + size, Extent::Scanned);
        }
        if repack {
            self.repack_prefixes();
        }
    }

    /// Stores one LBA whose first bytes are `data[range]` and whose rest,
    /// if the range is shorter than a block, is zeros. A full-length block
    /// is kept as a slice of the caller's buffer: the payload is stored
    /// where it arrived, not copied. The exception is a block whose
    /// written prefix, as `extent` finds it, is at most half a block: it
    /// keeps a copy of just that prefix, packed into the device's prefix
    /// slabs, which is never larger than the buffer it stops retaining.
    /// Anything else short is padded to a whole block. Returns whether a
    /// replaced prefix calls for [`NvmeDevice::repack_prefixes`].
    fn store_block(&mut self, lba: u64, data: &Bytes, range: Range<usize>, extent: Extent) -> bool {
        let size = params::LBA_SIZE as usize;
        let block = &data[range.clone()];
        let slot = self.blocks.slot(lba);
        let prefix = match extent {
            Extent::Declared => Some(block.len()),
            Extent::Scanned if slot.is_none() => Some(written_prefix(block)),
            Extent::Scanned => None,
        };
        let stored = match prefix {
            Some(prefix) if prefix <= size / 2 => {
                Stored::Prefix(self.prefixes.push(&block[..prefix]))
            }
            _ if block.len() == size => Stored::Block(data.slice(range)),
            _ => {
                let mut padded = BytesMut::zeroed(size);
                padded[..block.len()].copy_from_slice(block);
                Stored::Block(padded.freeze())
            }
        };
        match slot.replace(stored) {
            Some(Stored::Prefix(p)) => self.prefixes.release(p),
            _ => false,
        }
    }

    /// Moves the live prefixes into fresh slabs, dropping the bytes of
    /// overwritten and erased ones.
    fn repack_prefixes(&mut self) {
        self.prefixes
            .repack(self.blocks.iter_mut().filter_map(|stored| match stored {
                Stored::Prefix(p) => Some(p),
                Stored::Block(_) => None,
            }));
    }

    /// The contents of `blocks` LBAs from `lba`, zeros where never
    /// written. A single full-length stored LBA is returned as the stored
    /// buffer itself, and a single unwritten one as the shared
    /// [`zero_block`]; anything else is assembled into one new buffer, with
    /// compacted and unwritten LBAs padded with zeros.
    fn gather(&self, lba: u64, blocks: u64) -> Bytes {
        let size = params::LBA_SIZE as usize;
        if blocks == 1 {
            match self.blocks.get(lba) {
                Some(Stored::Block(data)) => return data.clone(),
                None => return zero_block(),
                Some(Stored::Prefix(_)) => {}
            }
        }
        let mut out = BytesMut::zeroed(blocks as usize * size);
        for (block, lba) in out.chunks_exact_mut(size).zip(lba..) {
            let stored = match self.blocks.get(lba) {
                Some(Stored::Block(data)) => &data[..],
                Some(Stored::Prefix(p)) => self.prefixes.get(*p),
                None => continue,
            };
            block[..stored.len()].copy_from_slice(stored);
        }
        out.freeze()
    }

    /// The buffer the device keeps for `lba` when it holds the whole
    /// block: a slice of the buffer the write brought. `None` for an
    /// unwritten LBA and for one kept as a compacted prefix.
    pub fn stored_block(&self, lba: u64) -> Option<&Bytes> {
        match self.blocks.get(lba)? {
            Stored::Block(data) => Some(data),
            Stored::Prefix(_) => None,
        }
    }
}

/// The block every one-LBA read of an unwritten LBA returns: one shared
/// buffer of zeros, built once per thread (a [`Bytes`] is not `Send`),
/// rather than a fresh page per read.
fn zero_block() -> Bytes {
    thread_local! {
        static ZERO: Bytes = BytesMut::zeroed(params::LBA_SIZE as usize).freeze();
    }
    ZERO.with(Bytes::clone)
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

/// How [`NvmeDevice::store_block`] learns a block's written prefix.
#[derive(Debug, Clone, Copy)]
enum Extent {
    /// By scanning for it ([`written_prefix`]), and only on a fresh LBA
    /// ([`Command::Write`]). An overwrite is never compacted, so a block
    /// rewritten in place (a B+ tree root) is not scanned, copied and
    /// re-expanded on every write.
    Scanned,
    /// The data is the prefix ([`Command::WritePrefix`]): compacting costs
    /// one copy of it, so overwrites compact too.
    Declared,
}

/// Granularity of [`written_prefix`]'s scan, in bytes (a cache line).
const PREFIX_LINE: usize = 64;

/// Length of `block` (a whole number of 64-byte lines) up to and including
/// its last line that holds a non-zero byte; 0 for an all-zero block.
/// Scans whole lines from the end, OR-folding each line's eight words: a
/// byte-wise scan is several times slower on a near-empty block.
fn written_prefix(block: &[u8]) -> usize {
    block
        .chunks_exact(PREFIX_LINE)
        .rposition(|line| {
            line.chunks_exact(8).fold(0, |acc, word| {
                acc | u64::from_ne_bytes(word.try_into().expect("8-byte word"))
            }) != 0
        })
        .map_or(0, |last| (last + 1) * PREFIX_LINE)
}

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

    /// `blocks` LBAs whose first `prefix` bytes are `fill`, zeros after.
    fn sparse_data(fill: u8, prefix: usize, blocks: usize) -> Bytes {
        let mut block = vec![0u8; params::LBA_SIZE as usize];
        block[..prefix].fill(fill);
        Bytes::from(block.repeat(blocks))
    }

    fn read_one(d: &mut NvmeDevice, lba: u64) -> Bytes {
        match d.submit(Command::Read { lba, blocks: 1 }, Ns::ZERO) {
            Ok(Completion {
                response: Response::Data(data),
                ..
            }) => data,
            other => panic!("read of {lba}: {other:?}"),
        }
    }

    #[test]
    fn overwritten_prefixes_are_repacked_away() {
        let mut d = NvmeDevice::new_block(1 << 20);
        // 200 fresh near-empty LBAs (1 KiB prefixes: four slabs), then
        // all but the last 10 overwritten with dense blocks.
        let data = sparse_data(7, 1024, 200);
        d.submit(Command::Write { lba: 0, data }, Ns::ZERO).unwrap();
        assert_eq!(d.prefixes.slabs(), 4);
        let data = lba_data(9, 190);
        d.submit(Command::Write { lba: 0, data }, Ns::ZERO).unwrap();
        assert_eq!(d.prefixes.slabs(), 1, "the dead prefixes are dropped");
        for lba in [0, 189] {
            assert!(read_one(&mut d, lba).iter().all(|&b| b == 9));
        }
        for lba in [190, 199] {
            let data = read_one(&mut d, lba);
            assert!(data[..1024].iter().all(|&b| b == 7));
            assert!(data[1024..].iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn erased_prefixes_do_not_pile_up() {
        let mut d = NvmeDevice::new_zoned(2 * params::ZONE_LBAS);
        let keep = sparse_data(1, 64, 3);
        d.submit(
            Command::ZoneAppend {
                zone: 1,
                data: keep,
            },
            Ns::ZERO,
        )
        .unwrap();
        // Fill zone 0 with 50 near-empty blocks (100 KiB of prefixes) and
        // reset it, 40 rounds over.
        for round in 0..40u8 {
            let data = sparse_data(round + 2, 2048, 50);
            d.submit(Command::ZoneAppend { zone: 0, data }, Ns::ZERO)
                .unwrap();
            assert_eq!(read_one(&mut d, 49)[2047], round + 2);
            d.submit(Command::ZoneReset { zone: 0 }, Ns::ZERO).unwrap();
            assert!(d.prefixes.slabs() <= 3, "round {round}");
        }
        let lba = params::ZONE_LBAS + 2;
        let data = read_one(&mut d, lba);
        assert!(data[..64].iter().all(|&b| b == 1) && data[64..].iter().all(|&b| b == 0));
    }

    #[test]
    fn zone_reset_drops_whole_chunks_and_repacks_the_survivors() {
        const ZONE: u64 = params::ZONE_LBAS;
        let mut d = NvmeDevice::new_zoned(3 * ZONE);
        let append = |d: &mut NvmeDevice, zone: u64, data: Bytes| {
            d.submit(Command::ZoneAppend { zone, data }, Ns::ZERO)
                .unwrap();
        };
        // Survivors on both sides of zone 0: two 64-byte prefixes in zone
        // 1's first chunk, three 1 KiB ones in zone 2.
        append(&mut d, 1, sparse_data(1, 64, 2));
        append(&mut d, 2, sparse_data(2, 1024, 3));
        // Zone 0, every chunk written: dense blocks, then 40 2 KiB prefixes
        // across the first chunk boundary (LBAs 250..290), dense blocks
        // from one shared buffer, and 64-byte prefixes in its last four LBAs.
        append(&mut d, 0, lba_data(3, 250));
        append(&mut d, 0, sparse_data(4, 2048, 40));
        let dense = lba_data(5, 1024);
        while let Some(left) = d.zone_write_pointer(0).map(|wp| ZONE - 4 - wp) {
            if left == 0 {
                break;
            }
            let n = left.min(1024) as usize * params::LBA_SIZE as usize;
            append(&mut d, 0, dense.slice(..n));
        }
        append(&mut d, 0, sparse_data(6, 64, 4));
        assert_eq!(d.zone_write_pointer(0), Some(ZONE));
        assert_eq!(
            d.blocks.chunks(),
            (ZONE / crate::blocks::CHUNK) as usize + 2
        );
        // 80 KiB of prefixes in zone 0: two slabs.
        assert_eq!(d.prefixes.slabs(), 2);
        for (lba, fill) in [
            (249, 3),
            (255, 4),
            (256, 4),
            (289, 4),
            (290, 5),
            (ZONE - 1, 6),
        ] {
            assert_eq!(read_one(&mut d, lba)[0], fill, "lba {lba}");
        }

        d.submit(Command::ZoneReset { zone: 0 }, Ns::ZERO).unwrap();
        // Its chunks are gone; the dead prefixes outweighed the live
        // ones, so the survivors were repacked into one slab.
        assert_eq!(d.blocks.chunks(), 2);
        assert_eq!(d.prefixes.slabs(), 1);
        for lba in [0, 249, 255, 256, 289, 290, ZONE - 4, ZONE - 1] {
            assert!(d.blocks.get(lba).is_none(), "lba {lba}");
            assert!(read_one(&mut d, lba).iter().all(|&b| b == 0), "lba {lba}");
        }
        let survivors = [(ZONE, 1, 64), (ZONE + 1, 1, 64)]
            .into_iter()
            .chain((0..3).map(|i| (2 * ZONE + i, 2, 1024)));
        for (lba, fill, len) in survivors {
            let data = read_one(&mut d, lba);
            assert!(data[..len].iter().all(|&b| b == fill), "lba {lba}");
            assert!(data[len..].iter().all(|&b| b == 0), "lba {lba}");
        }
        // The zone takes appends again from its start.
        append(&mut d, 0, sparse_data(7, 64, 300));
        assert_eq!(read_one(&mut d, 299)[..64], [7; 64]);
        assert_eq!(d.blocks.chunks(), 4);
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
        let (a, b) = (read_one(&mut d, 5), read_one(&mut d, 6));
        for zeros in [&a, &b] {
            assert_eq!(zeros.len(), params::LBA_SIZE as usize);
            assert!(zeros.iter().all(|&b| b == 0));
        }
        assert_eq!(a.as_ptr(), b.as_ptr(), "one shared zero block");
        // A later write to the LBA leaves the earlier result all zeros.
        let data = lba_data(9, 1);
        d.submit(Command::Write { lba: 5, data }, Ns::ZERO).unwrap();
        assert!(a.iter().all(|&b| b == 0));
        assert_eq!(read_one(&mut d, 5), lba_data(9, 1));
        assert_eq!(read_one(&mut d, 6).as_ptr(), b.as_ptr());
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
        for lba in [d.capacity_lbas(), u64::MAX] {
            let data = Bytes::from_static(&[1; 16]);
            assert!(matches!(
                d.submit(Command::WritePrefix { lba, data }, Ns::ZERO),
                Err(NvmeError::OutOfRange { .. })
            ));
        }
        assert_eq!(d.counters.get("writes"), 0);
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
    fn oversized_prefix_write_rejected() {
        let mut d = NvmeDevice::new_block(1 << 20);
        let data = Bytes::from(vec![1; params::LBA_SIZE as usize + 1]);
        assert_eq!(
            d.submit(Command::WritePrefix { lba: 0, data }, Ns::ZERO)
                .unwrap_err(),
            NvmeError::BadLength(params::LBA_SIZE as usize + 1)
        );
        assert_eq!(d.counters.get("writes"), 0);
        assert_eq!(d.flash_ops(), (0, 0, 0));
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
        // Fill the zone with appends of one shared 4 MiB buffer, then
        // overflow.
        let data = lba_data(7, 1024);
        for _ in 0..params::ZONE_LBAS / 1024 {
            d.submit(
                Command::ZoneAppend {
                    zone: 0,
                    data: data.clone(),
                },
                Ns::ZERO,
            )
            .unwrap();
        }
        assert_eq!(d.zone_write_pointer(0), Some(params::ZONE_LBAS));
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

    /// Random `KvPut`/`KvGet`/`KvDelete` sequences against a `BTreeMap`
    /// model: overwrites, deletes of absent keys, the empty key, and keys
    /// longer than one 8-byte hash word, some equal but for trailing zero
    /// bytes, which `IntHasher::write` pads alike.
    #[test]
    fn kv_namespace_matches_a_btreemap_model() {
        use hyperion_sim::rng::Rng;
        use std::collections::BTreeMap;
        let keys: Vec<Vec<u8>> = [
            &b""[..],
            b"\0",
            b"a",
            b"a\0",
            b"abcdefgh",
            b"abcdefgh\0",
            b"abcdefghi",
            b"abcdefghijklmnop",
            b"abcdefghijklmnopq",
            b"the quick brown fox jumps over the lazy dog",
        ]
        .iter()
        .map(|k| k.to_vec())
        .chain((0u64..6).map(|i| (i << 40).to_le_bytes().to_vec()))
        .collect();
        for seed in 0..8 {
            let mut rng = Rng::seeded(seed);
            let mut d = NvmeDevice::new_kv(1 << 20);
            let mut model: BTreeMap<Vec<u8>, Bytes> = BTreeMap::new();
            let mut counts = BTreeMap::new();
            let mut now = Ns::ZERO;
            for step in 0..2_000 {
                let key = keys[rng.next_below(keys.len() as u64) as usize].clone();
                let (command, counter, want) = match rng.next_below(3) {
                    0 => {
                        let mut value = vec![0u8; rng.next_below(9_000) as usize];
                        rng.fill_bytes(&mut value);
                        let value = Bytes::from(value);
                        model.insert(key.clone(), value.clone());
                        (Command::KvPut { key, value }, "kv_puts", Response::Ok)
                    }
                    1 => {
                        let want = match model.get(&key) {
                            Some(value) => Response::Data(value.clone()),
                            None => Response::NotFound,
                        };
                        (Command::KvGet { key }, "kv_gets", want)
                    }
                    _ => {
                        let want = match model.remove(&key) {
                            Some(_) => Response::Ok,
                            None => Response::NotFound,
                        };
                        (Command::KvDelete { key }, "kv_deletes", want)
                    }
                };
                *counts.entry(counter).or_insert(0) += 1;
                let done = d.submit(command, now).unwrap();
                assert_eq!(done.response, want, "seed {seed}, step {step}");
                now = done.done;
            }
            let kv: BTreeMap<_, _> = d
                .counters
                .iter()
                .filter(|(name, _)| name.starts_with("kv_"))
                .collect();
            assert_eq!(kv, counts, "seed {seed}");
            // Every key reads back as the model holds it.
            for key in &keys {
                let want = model
                    .get(key)
                    .map_or(Response::NotFound, |v| Response::Data(v.clone()));
                let got = d.submit(Command::KvGet { key: key.clone() }, now).unwrap();
                assert_eq!(got.response, want, "seed {seed}, key {key:?}");
            }
        }
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
    fn traced_prefix_write_matches_a_padded_write() {
        let data = Bytes::from(vec![9u8; 40]);
        let mut block = data.to_vec();
        block.resize(params::LBA_SIZE as usize, 0);
        let padded = Bytes::from(block);
        let run = |cmd: &dyn Fn(u64) -> Command, plan: FaultPlan| {
            let mut d = NvmeDevice::new_block(1 << 20);
            d.set_fault_plan(plan);
            let mut rec = Recorder::new("nvme-write");
            rec.enable_util();
            // The second write lands on the die the first still holds.
            let done: Vec<Ns> = [0, 1]
                .map(|lba| {
                    let c = d.submit_traced(cmd(lba), Ns::ZERO, Some(&mut rec)).unwrap();
                    assert_eq!(c.response, Response::Written { lba });
                    c.done
                })
                .to_vec();
            (d, rec, done)
        };
        let spans = |rec: &Recorder| -> Vec<(&'static str, Ns, Option<Ns>)> {
            rec.spans()
                .iter()
                .map(|s| (s.name, s.start, s.end))
                .collect()
        };
        let claims = |rec: &Recorder| -> Vec<(String, Vec<(u64, u64)>)> {
            rec.util()
                .resources()
                .iter()
                .map(|r| (r.id().to_string(), r.intervals().to_vec()))
                .collect()
        };
        for spikes in [0.0, 1.0] {
            let plan = || FaultPlan::seeded(5).bernoulli(FAULT_NVME_LATENCY_SPIKE, spikes);
            let (prefix_dev, prefix, prefix_done) = run(
                &|lba| Command::WritePrefix {
                    lba,
                    data: data.clone(),
                },
                plan(),
            );
            let (write_dev, write, write_done) = run(
                &|lba| Command::Write {
                    lba,
                    data: padded.clone(),
                },
                plan(),
            );
            assert_eq!(prefix_done, write_done, "spikes {spikes}");
            assert!(prefix_done[1] > prefix_done[0], "the second write queued");
            assert_eq!(spans(&prefix), spans(&write), "spikes {spikes}");
            assert!(spans(&prefix).iter().all(|s| s.0 == "nvme:write"));
            assert_eq!(prefix.queue_edges(), write.queue_edges());
            assert_eq!(prefix.queue_edges().len(), 1);
            assert_eq!(prefix.edge_resources(), write.edge_resources());
            assert!(!claims(&prefix).is_empty());
            assert_eq!(claims(&prefix), claims(&write), "spikes {spikes}");
            assert_eq!(
                hyperion_telemetry::json::to_json(&prefix),
                hyperion_telemetry::json::to_json(&write)
            );
            // The devices charged, counted and queued the same work.
            for d in [&prefix_dev, &write_dev] {
                assert_eq!(d.counters.get("writes"), 2);
                assert_eq!(d.counters.get("latency_spikes"), 2 * spikes as u64);
                assert_eq!(d.queue_depth_at(Ns::ZERO), 2);
            }
            assert_eq!(prefix_dev.energy.total(), write_dev.energy.total());
            assert_eq!(prefix_dev.flash_ops(), write_dev.flash_ops());
        }
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
        for mut d in [z, NvmeDevice::new_kv(1 << 20)] {
            let data = Bytes::from_static(&[1; 16]);
            assert!(matches!(
                d.submit(Command::WritePrefix { lba: 0, data }, Ns::ZERO),
                Err(NvmeError::WrongNamespace { .. })
            ));
        }
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
        use std::collections::HashMap;
        const LBA: usize = params::LBA_SIZE as usize;
        const CAPACITY: u64 = 1 << 20;
        /// Most commands land in 96 LBAs around the first chunk boundary.
        const NEAR: std::ops::Range<u64> = 208..304;
        /// The rest land in four-LBA spans far out, each across a chunk
        /// boundary, and at the end of the namespace.
        const FAR: [u64; 3] = [40 * 256 - 2, 3_000 * 256 - 2, CAPACITY - 4];
        /// Half the prefix writes go to fresh LBAs from here on, one after
        /// the other, as load-balancer spill pages do, and a quarter
        /// overwrite one of those; a quarter of the reads start here.
        const SPILL: u64 = 2_000 * 256 - 8;
        /// How the device must hold an LBA after a write.
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Held {
            /// The writer's buffer itself, as a slice starting here.
            Shared(usize),
            /// A copy of just the first `len` bytes.
            Compact(usize),
            /// A whole block the device padded with zeros.
            Padded,
        }
        type Model = HashMap<u64, ([u8; LBA], Held)>;
        fn expected(model: &Model, lba: u64, blocks: u64) -> Vec<u8> {
            (lba..lba + blocks)
                .flat_map(|b| model.get(&b).map_or([0; LBA], |m| m.0))
                .collect()
        }
        /// Dense, all-zero, or near-empty: non-zero bytes only in the first
        /// `k` 64-byte lines, and half the time one byte in the last.
        fn gen_block(rng: &mut Rng) -> [u8; LBA] {
            let mut block = [0u8; LBA];
            let k = match rng.next_below(3) {
                0 => 64,
                1 => 0,
                _ => rng.next_below(65) as usize,
            };
            rng.fill_bytes(&mut block[..k * 64]);
            if k > 0 && rng.chance(0.5) {
                let line = &mut block[(k - 1) * 64..k * 64];
                line.fill(0);
                line[rng.next_below(64) as usize] = 1 + rng.next_below(255) as u8;
            }
            block
        }
        /// The lengths a prefix write draws from; a draw past the end is
        /// uniform over `0..=LBA`.
        const PREFIX_LENS: [usize; 7] = [0, 1, 16, LBA / 2, LBA / 2 + 1, LBA - 1, LBA];
        /// Bytes the device must hold in its prefix slabs.
        fn compact_bytes(model: &Model) -> usize {
            model
                .values()
                .map(|m| match m.1 {
                    Held::Compact(len) => len,
                    _ => 0,
                })
                .sum()
        }
        /// Byte-wise reference for the written prefix, rounded up to a line.
        fn prefix_of(block: &[u8]) -> usize {
            block
                .iter()
                .rposition(|&b| b != 0)
                .map_or(0, |last| (last / 64 + 1) * 64)
        }
        for seed in 0..4 {
            let mut rng = Rng::seeded(seed);
            let mut d = NvmeDevice::new_block(CAPACITY);
            let mut model = Model::new();
            // Earlier reads with the contents they returned: later
            // overwrites of the same LBAs must not show through them.
            let mut kept: Vec<(Bytes, Vec<u8>)> = Vec::new();
            let (mut shared, mut unwritten, mut compact_reads, mut mixed) = (0, 0, 0, 0);
            let (mut compacted, mut to_dense, mut to_sparse) = (0, 0, 0);
            let (mut straddling, mut far) = (0, 0);
            // Prefix writes by how the device must hold them, and those
            // that replaced a compacted prefix.
            let (mut p_compact, mut p_shared, mut p_padded, mut p_released) = (0, 0, 0, 0);
            let mut p_overwrites_compacted = 0;
            let mut p_lens = [0; PREFIX_LENS.len() + 1];
            let mut spilled = 0;
            for step in 0..2_000 {
                let blocks = 1 + rng.next_below(4);
                let lba = if rng.chance(0.1) {
                    FAR[rng.next_below(3) as usize] + rng.next_below(4 - blocks + 1)
                } else {
                    NEAR.start + rng.next_below(NEAR.end - NEAR.start - blocks + 1)
                };
                straddling += usize::from(lba / 256 != (lba + blocks - 1) / 256);
                far += usize::from(!NEAR.contains(&lba));
                let now = Ns(step * 1_000);
                if rng.chance(0.5) {
                    // Multi-LBA writes over a few LBAs: most of them
                    // partially overwrite an earlier write.
                    let image: Vec<[u8; LBA]> = (0..blocks).map(|_| gen_block(&mut rng)).collect();
                    let data = Bytes::from(image.concat());
                    let base = data.as_ptr() as usize;
                    for (i, block) in image.into_iter().enumerate() {
                        let prefix = prefix_of(&block);
                        let sparse = prefix <= LBA / 2;
                        let before = model.get(&(lba + i as u64)).map(|m| m.1);
                        let held = match before {
                            None if sparse => Held::Compact(prefix),
                            _ => Held::Shared(base + i * LBA),
                        };
                        match before {
                            Some(Held::Compact(_)) if !sparse => to_dense += 1,
                            Some(Held::Shared(_) | Held::Padded) if sparse => to_sparse += 1,
                            _ => {}
                        }
                        compacted += usize::from(matches!(held, Held::Compact(_)));
                        model.insert(lba + i as u64, (block, held));
                    }
                    d.submit(Command::Write { lba, data }, now).unwrap();
                    for b in lba..lba + blocks {
                        match (model[&b].1, d.blocks.get(b).expect("written")) {
                            (Held::Shared(at), Stored::Block(stored)) => {
                                assert_eq!(stored.len(), LBA, "seed {seed} step {step}");
                                assert_eq!(stored.as_ptr() as usize, at, "seed {seed} step {step}");
                            }
                            (Held::Compact(len), Stored::Prefix(p)) => {
                                assert!(len <= LBA / 2);
                                assert_eq!(p.len(), len, "seed {seed} step {step}");
                                assert_eq!(d.prefixes.get(*p), &model[&b].0[..len]);
                            }
                            (held, stored) => {
                                panic!("seed {seed} step {step}: {held:?} held as {stored:?}")
                            }
                        }
                    }
                    assert_eq!(
                        d.prefixes.live(),
                        compact_bytes(&model),
                        "seed {seed} step {step}"
                    );
                } else if rng.chance(0.3) {
                    // One block, of which the writer declares the first
                    // `len` bytes.
                    let lba = match rng.next_below(4) {
                        0 | 1 => {
                            spilled += 1;
                            SPILL + spilled - 1
                        }
                        2 if spilled > 0 => SPILL + rng.next_below(spilled),
                        _ => lba,
                    };
                    let pick = rng.next_below(PREFIX_LENS.len() as u64 + 1) as usize;
                    p_lens[pick] += 1;
                    let len = PREFIX_LENS
                        .get(pick)
                        .copied()
                        .unwrap_or_else(|| rng.next_below(LBA as u64 + 1) as usize);
                    let mut block = gen_block(&mut rng);
                    block[len..].fill(0);
                    let data = Bytes::copy_from_slice(&block[..len]);
                    let before = model.get(&lba).map(|m| m.1);
                    // The declared length decides, for an overwrite too.
                    let held = match len {
                        _ if len <= LBA / 2 => Held::Compact(len),
                        LBA => Held::Shared(data.as_ptr() as usize),
                        _ => Held::Padded,
                    };
                    p_released += usize::from(matches!(before, Some(Held::Compact(_))));
                    p_overwrites_compacted +=
                        usize::from(before.is_some() && matches!(held, Held::Compact(_)));
                    model.insert(lba, (block, held));
                    let c = d
                        .submit(
                            Command::WritePrefix {
                                lba,
                                data: data.clone(),
                            },
                            now,
                        )
                        .unwrap();
                    assert_eq!(c.response, Response::Written { lba });
                    match (held, d.stored_block(lba)) {
                        (Held::Compact(len), None) => {
                            let Some(Stored::Prefix(p)) = d.blocks.get(lba) else {
                                panic!("seed {seed} step {step}: lba {lba} unwritten");
                            };
                            assert_eq!(d.prefixes.get(*p), &data[..len], "seed {seed} step {step}");
                            p_compact += 1;
                        }
                        (Held::Shared(at), Some(stored)) => {
                            assert_eq!(stored.as_ptr() as usize, at, "seed {seed} step {step}");
                            p_shared += 1;
                        }
                        (Held::Padded, Some(stored)) => {
                            assert_eq!(stored.len(), LBA, "seed {seed} step {step}");
                            assert_ne!(stored.as_ptr(), data.as_ptr(), "seed {seed} step {step}");
                            p_padded += 1;
                        }
                        (held, stored) => {
                            panic!("seed {seed} step {step}: {held:?} held as {stored:?}")
                        }
                    }
                    assert_eq!(
                        d.prefixes.live(),
                        compact_bytes(&model),
                        "seed {seed} step {step}"
                    );
                } else {
                    // A read in four starts in the spill LBAs, or just
                    // past them.
                    let lba = if rng.chance(0.25) {
                        SPILL + rng.next_below(spilled + 1)
                    } else {
                        lba
                    };
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
                    let held: Vec<Option<Held>> = (lba..lba + blocks)
                        .map(|b| model.get(&b).map(|m| m.1))
                        .collect();
                    let compact = held
                        .iter()
                        .filter(|h| matches!(h, Some(Held::Compact(_))))
                        .count();
                    let written = held.iter().flatten().count();
                    if let [Some(Held::Shared(at))] = held[..] {
                        // A dense 1-LBA read hands back the writer's buffer.
                        assert_eq!(data.as_ptr() as usize, at, "seed {seed} step {step}");
                        shared += 1;
                    }
                    compact_reads += usize::from(compact > 0);
                    mixed += usize::from(compact > 0 && compact < blocks as usize);
                    unwritten += usize::from(written < blocks as usize);
                    let want = expected(&model, lba, blocks);
                    assert!(data[..] == want[..], "seed {seed} step {step} lba {lba}");
                    if step % 8 == 0 {
                        kept.push((data, want));
                    }
                }
            }
            for (&lba, (block, _)) in &model {
                assert!(
                    read_one(&mut d, lba)[..] == block[..],
                    "seed {seed}: lba {lba}"
                );
            }
            assert!(model.len() > 100, "seed {seed}: LBAs mostly written");
            assert!(
                straddling > 40 && far > 80,
                "seed {seed}: {straddling} across a chunk boundary, {far} far out"
            );
            assert!(
                kept.len() > 40 && shared > 100 && unwritten > 20,
                "seed {seed}"
            );
            assert!(
                compacted > 30 && compact_reads > 20 && mixed > 15,
                "seed {seed}: {compacted} compacted, {compact_reads} reads, {mixed} mixed"
            );
            assert!(
                to_dense > 10 && to_sparse > 300,
                "seed {seed}: {to_dense} compact->dense, {to_sparse} dense->near-empty"
            );
            assert!(
                p_lens.iter().all(|&n| n > 15)
                    && p_compact > 50
                    && p_shared > 15
                    && p_padded > 80
                    && p_released > 10
                    && p_overwrites_compacted > 20,
                "seed {seed}: prefix writes by length {p_lens:?}, {p_compact} compacted \
                 ({p_overwrites_compacted} overwrites), {p_shared} shared, {p_padded} padded, \
                 {p_released} released a prefix"
            );
            for (data, want) in &kept {
                assert!(data[..] == want[..], "seed {seed}: an old read changed");
            }
        }
    }
}
