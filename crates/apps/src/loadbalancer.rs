//! A stateful L4 load balancer with flow-state spill to flash.
//!
//! Paper §2.4: "load-balancers ... require large temporary data storage
//! (e.g., Tiara offloads load-balancing state from FPGAs to x86 servers)".
//! Tiara spilled to x86 servers because its FPGA had no storage; Hyperion
//! keeps the hot flow table in fabric-attached DRAM and spills the cold
//! tail to its *own* NVMe — no external server. Experiment E7 measures
//! throughput as the flow count exceeds DRAM capacity.
//!
//! Consistent hashing assigns new flows to backends; established flows
//! must keep their backend (connection affinity), which is why the state
//! must be kept somewhere at all.

use bytes::BytesMut;
use hyperion_nvme::device::{Command, NvmeDevice, Response};
use hyperion_nvme::params::LBA_SIZE;
use hyperion_sim::hash::IntMap;
use hyperion_sim::stats::Counters;
use hyperion_sim::time::Ns;

/// Fabric DRAM lookup cost for the hot table.
const DRAM_LOOKUP: Ns = Ns(200);

/// In-fabric hash/steering work per packet.
const PIPELINE_WORK: Ns = Ns(40);

/// A backend server id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendId(pub u32);

/// Bytes per spill record: the flow hash, the backend, four zero bytes.
const RECORD: usize = 16;

/// Spill records per flash page (16-byte records into a 4 KiB page).
pub const SPILL_BATCH: usize = LBA_SIZE as usize / RECORD;

/// Where a flow's state lives: the decoded view of a [`TableEntry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Residence {
    /// In fabric DRAM, at `slot` of the [`Lru`] list.
    Dram {
        slot: u32,
    },
    /// Evicted but still in the spill write buffer (not yet on flash).
    Staged,
    Flash {
        lba: u64,
    },
}

/// Bits a [`TableEntry`] has for a DRAM slot or spill LBA.
const PLACE_BITS: u32 = 30;

/// Exclusive bound on a DRAM slot or spill LBA.
const PLACE_LIMIT: u64 = 1 << PLACE_BITS;

/// One flow-table value packed into a word: the backend in the low 32
/// bits, then the [`Residence`] tag in two bits above the DRAM slot or
/// spill LBA in [`PLACE_BITS`]. With the key, a table entry is 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TableEntry(u64);

impl TableEntry {
    fn new(backend: BackendId, residence: Residence) -> TableEntry {
        let (tag, place) = match residence {
            Residence::Dram { slot } => (0, u64::from(slot)),
            Residence::Staged => (1, 0),
            Residence::Flash { lba } => (2, lba),
        };
        debug_assert!(place < PLACE_LIMIT, "{residence:?} does not fit");
        TableEntry(u64::from(backend.0) | (((tag << PLACE_BITS) | place) << 32))
    }

    fn backend(self) -> BackendId {
        BackendId(self.0 as u32)
    }

    fn residence(self) -> Residence {
        let high = self.0 >> 32;
        let place = high & (PLACE_LIMIT - 1);
        match high >> PLACE_BITS {
            0 => Residence::Dram { slot: place as u32 },
            1 => Residence::Staged,
            _ => Residence::Flash { lba: place },
        }
    }

    /// This flow's entry with its state moved to `residence`.
    fn moved(self, residence: Residence) -> TableEntry {
        TableEntry::new(self.backend(), residence)
    }
}

/// Shards of the [`FlowTable`].
const SHARDS: usize = 256;

// A shard is picked by the top bits of a multiply.
const _: () = assert!(SHARDS.is_power_of_two());

/// flow hash -> [`TableEntry`], split by flow into [`SHARDS`] hash maps.
///
/// One map of every tracked flow grew by doubling into a fresh contiguous
/// buffer (4.3 MiB at 200k flows), and the steer that crossed a doubling
/// rehashed the whole table. Across balancers built and dropped in one
/// process, other allocations split the multi-megabyte holes those
/// buffers left, so whether the next doubling found a hole or grew the
/// heap depended on the order of earlier set-ups: `lb_zipf_spill`'s peak
/// RSS read 24.9 or 27.6 MiB at random. A shard holds 1/256 of the
/// flows, so it grows in steps of at most 17 KiB at 200k flows, and the
/// heap reuses those small holes the same way every time (23.5–23.8 MiB
/// over ten runs).
#[derive(Debug)]
struct FlowTable {
    shards: Box<[IntMap<u64, TableEntry>]>,
}

impl FlowTable {
    fn new() -> FlowTable {
        FlowTable {
            shards: (0..SHARDS).map(|_| IntMap::default()).collect(),
        }
    }

    /// The shard `flow` lives in: the top bits of a multiply that differs
    /// from [`IntMap`]'s hasher, so that the flows of one shard still
    /// spread over its buckets and control tags.
    fn shard(flow: u64) -> usize {
        (flow.wrapping_mul(0x94D0_49BB_1331_11EB) >> (64 - SHARDS.ilog2())) as usize
    }

    fn get(&self, flow: u64) -> Option<TableEntry> {
        self.shards[Self::shard(flow)].get(&flow).copied()
    }

    fn get_mut(&mut self, flow: u64) -> Option<&mut TableEntry> {
        self.shards[Self::shard(flow)].get_mut(&flow)
    }

    fn insert(&mut self, flow: u64, entry: TableEntry) {
        self.shards[Self::shard(flow)].insert(flow, entry);
    }

    fn len(&self) -> usize {
        self.shards.iter().map(IntMap::len).sum()
    }
}

/// The end-of-list marker for [`Lru`] links.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    flow: u64,
    prev: u32,
    next: u32,
}

/// DRAM-resident flows in recency order (head = coldest): a doubly linked
/// list threaded through a slab, so appending, touching and evicting are
/// all O(1). Callers keep each flow's slot (in [`Residence::Dram`]); a slot
/// freed by [`Lru::pop_front`] is reused by the next [`Lru::push_back`].
#[derive(Debug)]
struct Lru {
    nodes: Vec<Node>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
}

impl Lru {
    fn new() -> Lru {
        Lru {
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn len(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Appends `flow` as the hottest entry and returns its slot.
    fn push_back(&mut self, flow: u64) -> u32 {
        let node = Node {
            flow,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = node;
                slot
            }
            None => {
                assert!(self.nodes.len() < NIL as usize, "LRU slab is full");
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        self.link_back(slot);
        slot
    }

    /// Makes the entry at `slot` the hottest.
    fn move_to_back(&mut self, slot: u32) {
        if slot != self.tail {
            self.unlink(slot);
            self.link_back(slot);
        }
    }

    /// Removes and returns the coldest flow, freeing its slot.
    fn pop_front(&mut self) -> Option<u64> {
        let slot = self.head;
        if slot == NIL {
            return None;
        }
        self.unlink(slot);
        self.free.push(slot);
        Some(self.nodes[slot as usize].flow)
    }

    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    fn link_back(&mut self, slot: u32) {
        let node = &mut self.nodes[slot as usize];
        node.prev = self.tail;
        node.next = NIL;
        match self.tail {
            NIL => self.head = slot,
            t => self.nodes[t as usize].next = slot,
        }
        self.tail = slot;
    }
}

/// The load balancer.
#[derive(Debug)]
pub struct LoadBalancer {
    backends: u32,
    dram_capacity: usize,
    /// flow hash -> backend and residence.
    table: FlowTable,
    /// LRU order for spill decisions.
    lru: Lru,
    spill: NvmeDevice,
    spill_cursor: u64,
    /// Flows evicted into the current (unflushed) spill page, with their
    /// backends (the page's records).
    staging: Vec<(u64, BackendId)>,
    /// Records per flushed spill page.
    spill_batch: usize,
    /// `hits_dram`, `hits_flash`, `hits_staged`, `spills`, `promotions`,
    /// `new_flows`, `spill_pages`.
    pub counters: Counters,
}

impl LoadBalancer {
    /// Creates a balancer over `backends` servers with room for
    /// `dram_capacity` flows in fabric DRAM and a spill SSD of
    /// `spill_lbas` LBAs.
    ///
    /// # Panics
    ///
    /// Panics if `backends` or `spill_lbas` is zero, if `dram_capacity`
    /// is 2^30 or more, or if `spill_lbas` is more than 2^30.
    pub fn new(backends: u32, dram_capacity: usize, spill_lbas: u64) -> LoadBalancer {
        Self::with_spill_batch(backends, dram_capacity, spill_lbas, SPILL_BATCH)
    }

    /// [`LoadBalancer::new`] with an explicit spill-batch size — the
    /// ablation knob for write-buffer batching (1 = one flash page per
    /// eviction).
    ///
    /// # Panics
    ///
    /// As [`LoadBalancer::new`], and if `spill_batch` is zero.
    pub fn with_spill_batch(
        backends: u32,
        dram_capacity: usize,
        spill_lbas: u64,
        spill_batch: usize,
    ) -> LoadBalancer {
        assert!(backends > 0, "need at least one backend");
        assert!(spill_batch > 0, "spill batch must be non-zero");
        assert!(spill_lbas > 0, "spill SSD must be non-empty");
        // Every DRAM slot and spill LBA fits in a table entry.
        assert!(
            (dram_capacity as u64) < PLACE_LIMIT,
            "DRAM capacity of {dram_capacity} flows is 2^{PLACE_BITS} or more"
        );
        assert!(
            spill_lbas <= PLACE_LIMIT,
            "spill SSD of {spill_lbas} LBAs is more than 2^{PLACE_BITS}"
        );
        LoadBalancer {
            backends,
            dram_capacity,
            table: FlowTable::new(),
            lru: Lru::new(),
            spill: NvmeDevice::new_block(spill_lbas),
            spill_cursor: 0,
            staging: Vec::with_capacity(spill_batch),
            spill_batch,
            counters: Counters::new(),
        }
    }

    fn choose_backend(&self, flow: u64) -> BackendId {
        // Rendezvous (highest-random-weight) hashing: stable under backend
        // set changes.
        let mut best = (0u64, 0u32);
        for b in 0..self.backends {
            let w = flow
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(b % 63)
                .wrapping_add(b as u64);
            let w = w.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            if w >= best.0 {
                best = (w, b);
            }
        }
        BackendId(best.1)
    }

    /// Number of flows resident in DRAM.
    pub fn dram_flows(&self) -> usize {
        self.lru.len()
    }

    /// Total tracked flows.
    pub fn total_flows(&self) -> usize {
        self.table.len()
    }

    /// Spills the coldest DRAM entry. Records accumulate in a write
    /// buffer and flush as one flash page per [`SPILL_BATCH`] evictions,
    /// asynchronously — Tiara-style state offload happens off the packet
    /// path, so the triggering packet never stalls on tProg.
    fn spill_coldest(&mut self, now: Ns) -> Ns {
        let Some(victim) = self.lru.pop_front() else {
            return now;
        };
        self.counters.bump("spills");
        let entry = self.table.get_mut(victim).expect("victim is tracked");
        *entry = entry.moved(Residence::Staged);
        self.staging.push((victim, entry.backend()));
        if self.staging.len() >= self.spill_batch.min(SPILL_BATCH) {
            self.flush_staging(now);
        }
        now
    }

    /// Installs `flow` as the hottest DRAM entry, first spilling the
    /// coldest one if DRAM is full; returns when the steer completes.
    fn install_dram(&mut self, flow: u64, backend: BackendId, now: Ns) -> Ns {
        let t = if self.lru.len() >= self.dram_capacity {
            self.spill_coldest(now)
        } else {
            now
        };
        let slot = self.lru.push_back(flow);
        self.table
            .insert(flow, TableEntry::new(backend, Residence::Dram { slot }));
        t
    }

    /// Writes the staging buffer's records as one page and marks its flows
    /// flash-resident.
    fn flush_staging(&mut self, now: Ns) {
        if self.staging.is_empty() {
            return;
        }
        self.counters.bump("spill_pages");
        let lba = self.spill_cursor % self.spill.capacity_lbas();
        self.spill_cursor += 1;
        // Only the records are built; the device zero-fills the rest of
        // the page. It keeps a full batch as this very buffer, and copies a
        // batch of at most half a page to a fresh LBA into its prefix slabs.
        let mut data = BytesMut::zeroed(RECORD * self.staging.len());
        for (&(flow, backend), record) in self.staging.iter().zip(data.chunks_exact_mut(RECORD)) {
            record[..8].copy_from_slice(&flow.to_le_bytes());
            record[8..12].copy_from_slice(&backend.0.to_le_bytes());
        }
        self.spill
            .submit(
                Command::WritePrefix {
                    lba,
                    data: data.freeze(),
                },
                now,
            )
            .expect("spill write");
        for (flow, _) in self.staging.drain(..) {
            if let Some(entry) = self.table.get_mut(flow) {
                if entry.residence() == Residence::Staged {
                    *entry = entry.moved(Residence::Flash { lba });
                }
            }
        }
    }

    /// Steers one packet of `flow` at `now`: returns the backend and the
    /// completion instant. New flows are assigned and installed; flows
    /// whose state spilled to flash pay a flash read to re-promote.
    pub fn steer(&mut self, flow: u64, now: Ns) -> (BackendId, Ns) {
        let t = now + PIPELINE_WORK;
        let entry = self.table.get(flow).map(|e| (e.backend(), e.residence()));
        match entry {
            Some((backend, Residence::Dram { slot })) => {
                self.counters.bump("hits_dram");
                self.lru.move_to_back(slot);
                (backend, t + DRAM_LOOKUP)
            }
            Some((backend, Residence::Staged)) => {
                // Still in the write buffer: promote back at DRAM speed.
                self.counters.bump("hits_staged");
                if let Some(pos) = self.staging.iter().position(|&(f, _)| f == flow) {
                    self.staging.remove(pos);
                }
                (backend, self.install_dram(flow, backend, t + DRAM_LOOKUP))
            }
            Some((backend, Residence::Flash { lba })) => {
                // Cold flow: read the record back, promote to DRAM.
                self.counters.bump("hits_flash");
                self.counters.bump("promotions");
                let c = self
                    .spill
                    .submit(Command::Read { lba, blocks: 1 }, t)
                    .expect("spill read");
                debug_assert!(matches!(c.response, Response::Data(_)));
                (backend, self.install_dram(flow, backend, c.done))
            }
            None => {
                self.counters.bump("new_flows");
                let backend = self.choose_backend(flow);
                (backend, self.install_dram(flow, backend, t + DRAM_LOOKUP))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flows_keep_their_backend() {
        let mut lb = LoadBalancer::new(8, 1_000, 1 << 16);
        let (b1, t) = lb.steer(42, Ns::ZERO);
        let (b2, _) = lb.steer(42, t);
        assert_eq!(b1, b2, "connection affinity");
        assert_eq!(lb.counters.get("new_flows"), 1);
        assert_eq!(lb.counters.get("hits_dram"), 1);
    }

    #[test]
    fn backends_are_roughly_balanced() {
        let lb = LoadBalancer::new(4, 10, 1 << 12);
        let mut counts = [0u32; 4];
        for f in 0..8_000u64 {
            counts[lb.choose_backend(f).0 as usize] += 1;
        }
        for c in counts {
            assert!((1_000..3_500).contains(&c), "backend imbalance: {counts:?}");
        }
    }

    #[test]
    fn overflow_spills_to_flash_and_affinity_survives() {
        let mut lb = LoadBalancer::new(4, 100, 1 << 16);
        let mut t = Ns::ZERO;
        let mut first_backend = Vec::new();
        // 500 flows through a 100-flow DRAM table: 400 evictions, one
        // full spill page flushed (SPILL_BATCH = 256).
        for f in 0..500u64 {
            let (b, done) = lb.steer(f, t);
            t = done;
            first_backend.push(b);
        }
        assert!(lb.counters.get("spills") >= 400);
        assert!(lb.counters.get("spill_pages") >= 1);
        assert_eq!(lb.dram_flows(), 100);
        assert_eq!(lb.total_flows(), 500);
        // Revisit flow 0 (in the first flushed page): same backend, paid
        // a flash read.
        let (b, done) = lb.steer(0, t);
        assert_eq!(b, first_backend[0]);
        assert!(lb.counters.get("hits_flash") >= 1);
        assert!(done > t + Ns(50_000), "flash promotion pays tR");
        // A staged (unflushed) flow promotes at memory speed.
        let staged_flow = 499 - 50; // evicted recently, still staged
        let before = lb.counters.get("hits_flash");
        let (_, done2) = lb.steer(staged_flow, done);
        if lb.counters.get("hits_staged") > 0 {
            assert_eq!(lb.counters.get("hits_flash"), before);
            assert!(done2 - done < Ns(5_000));
        }
    }

    #[test]
    fn slab_lru_matches_a_vecdeque_reference() {
        use hyperion_sim::rng::Rng;
        use std::collections::VecDeque;
        // Table values keep the slot inline, with no second index.
        assert_eq!(std::mem::size_of::<TableEntry>(), 8);
        for seed in 0..8 {
            let mut rng = Rng::seeded(seed);
            let mut lru = Lru::new();
            let mut slots: IntMap<u64, u32> = IntMap::default();
            let mut reference: VecDeque<u64> = VecDeque::new();
            let mut reused = 0;
            for _ in 0..4_000 {
                match rng.next_below(10) {
                    // Push a flow that is not resident: new, or evicted earlier.
                    0..=3 => {
                        let flow = rng.next_below(2_000);
                        if slots.contains_key(&flow) {
                            continue;
                        }
                        reused += usize::from(!lru.free.is_empty());
                        slots.insert(flow, lru.push_back(flow));
                        reference.push_back(flow);
                    }
                    4..=7 if !reference.is_empty() => {
                        let i = rng.next_below(reference.len() as u64) as usize;
                        let flow = reference.remove(i).expect("index in range");
                        reference.push_back(flow);
                        lru.move_to_back(slots[&flow]);
                    }
                    _ => {
                        let victim = lru.pop_front();
                        assert_eq!(victim, reference.pop_front(), "seed {seed}");
                        if let Some(flow) = victim {
                            slots.remove(&flow);
                        }
                    }
                }
                assert_eq!(lru.len(), reference.len());
            }
            assert!(reused > 0, "seed {seed} never reused a freed slot");
            while let Some(flow) = reference.pop_front() {
                assert_eq!(lru.pop_front(), Some(flow), "seed {seed}");
            }
            assert_eq!((lru.pop_front(), lru.len()), (None, 0));
        }
    }

    #[test]
    fn table_entries_round_trip_every_residence_at_both_ends() {
        let last = PLACE_LIMIT - 1;
        for backend in [0, 1, u32::MAX].map(BackendId) {
            for residence in [
                Residence::Dram { slot: 0 },
                Residence::Dram { slot: last as u32 },
                Residence::Staged,
                Residence::Flash { lba: 0 },
                Residence::Flash { lba: last },
            ] {
                let entry = TableEntry::new(backend, residence);
                assert_eq!((entry.backend(), entry.residence()), (backend, residence));
                for moved in [Residence::Staged, Residence::Flash { lba: last }] {
                    assert_eq!(entry.moved(moved), TableEntry::new(backend, moved));
                }
            }
        }
        // The largest balancer whose slots and LBAs still fit is accepted.
        LoadBalancer::new(1, last as usize, PLACE_LIMIT);
    }

    #[test]
    #[should_panic(expected = "DRAM capacity of 1073741824 flows")]
    fn a_dram_capacity_of_2_pow_30_is_rejected() {
        LoadBalancer::new(4, 1 << 30, 1 << 16);
    }

    #[test]
    #[should_panic(expected = "spill SSD of 1073741825 LBAs")]
    fn a_spill_ssd_over_2_pow_30_lbas_is_rejected() {
        LoadBalancer::new(4, 100, (1 << 30) + 1);
    }

    #[test]
    #[should_panic(expected = "spill SSD must be non-empty")]
    fn a_zero_lba_spill_ssd_is_rejected() {
        // Used to panic on the first spill, dividing the cursor by zero.
        LoadBalancer::with_spill_batch(4, 2, 0, 1);
    }

    #[test]
    fn flow_table_spreads_flows_over_every_shard() {
        // Sequential flow ids (as E7b installs them) and random hashes.
        let mut rng = hyperion_sim::rng::Rng::seeded(3);
        let random: Vec<u64> = (0..1 << 16).map(|_| rng.next_u64()).collect();
        for flows in [(0..1 << 16).collect::<Vec<u64>>(), random] {
            let mut table = FlowTable::new();
            for &flow in &flows {
                table.insert(flow, TableEntry::new(BackendId(0), Residence::Staged));
            }
            assert_eq!(table.len(), flows.len());
            let mean = flows.len() / SHARDS;
            for shard in table.shards.iter() {
                assert!(
                    (mean / 2..mean * 3 / 2).contains(&shard.len()),
                    "a shard holds {} of {} flows",
                    shard.len(),
                    flows.len()
                );
            }
            assert!(flows.iter().all(|&flow| table.get(flow).is_some()));
        }
    }

    #[test]
    fn spill_pages_hold_the_evicted_flows_in_order() {
        use hyperion_sim::rng::Rng;
        use std::collections::VecDeque;
        const DRAM: usize = 64;
        for batch in [1, SPILL_BATCH] {
            let mut rng = Rng::seeded(batch as u64);
            let mut lb = LoadBalancer::with_spill_batch(4, DRAM, 1 << 16, batch);
            // Reference LRU of DRAM-resident flows (front = coldest), and
            // every eviction in order with the flow's backend.
            let mut resident: VecDeque<(u64, BackendId)> = VecDeque::new();
            let mut evicted: Vec<(u64, BackendId)> = Vec::new();
            let mut t = Ns::ZERO;
            while evicted.len() < 3 * SPILL_BATCH + SPILL_BATCH / 2 {
                if rng.chance(0.3) && !resident.is_empty() {
                    // A DRAM hit reorders the LRU, so eviction order is
                    // not arrival order.
                    let i = rng.next_below(resident.len() as u64) as usize;
                    let (flow, backend) = resident.remove(i).expect("index in range");
                    let (b, done) = lb.steer(flow, t);
                    assert_eq!(b, backend);
                    resident.push_back((flow, backend));
                    t = done;
                } else {
                    let flow = rng.next_u64();
                    let (backend, done) = lb.steer(flow, t);
                    if resident.len() == DRAM {
                        evicted.extend(resident.pop_front());
                    }
                    resident.push_back((flow, backend));
                    t = done;
                }
            }
            assert_eq!(lb.counters.get("hits_flash"), 0);
            let pages = evicted.len() / batch;
            assert_eq!(lb.counters.get("spill_pages"), pages as u64);
            for (lba, flows) in evicted.chunks_exact(batch).enumerate() {
                let c = lb
                    .spill
                    .submit(
                        Command::Read {
                            lba: lba as u64,
                            blocks: 1,
                        },
                        t,
                    )
                    .expect("spill read");
                let Response::Data(page) = c.response else {
                    panic!("read returns data");
                };
                assert_eq!(page.len(), LBA_SIZE as usize, "batch {batch} lba {lba}");
                let (records, rest) = page.split_at(16 * batch);
                for (record, &(flow, backend)) in records.chunks_exact(16).zip(flows) {
                    assert_eq!(record[..8], flow.to_le_bytes(), "batch {batch} lba {lba}");
                    assert_eq!(record[8..12], backend.0.to_le_bytes());
                    assert_eq!(record[12..], [0; 4]);
                }
                assert!(rest.iter().all(|&b| b == 0), "batch {batch} lba {lba}");
                // A batch of one is a record the device compacts; a full
                // batch is a whole page, held as written.
                let held = lb.spill.stored_block(lba as u64).map(|b| b.len());
                let whole = (batch == SPILL_BATCH).then_some(LBA_SIZE as usize);
                assert_eq!(held, whole, "batch {batch} lba {lba}");
            }
        }
    }

    #[test]
    fn dram_hits_stay_fast_under_spill() {
        let mut lb = LoadBalancer::new(4, 100, 1 << 16);
        let mut t = Ns::ZERO;
        for f in 0..500u64 {
            let (_, done) = lb.steer(f, t);
            t = done;
        }
        // Flow 499 is hot (just inserted): DRAM-speed steer.
        let (_, done) = lb.steer(499, t);
        assert!(done - t < Ns(1_000), "hot steer took {}", done - t);
    }
}
