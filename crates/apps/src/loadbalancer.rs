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
//!
//! # The spill path
//!
//! A flow's table entry names one of two residences: a DRAM slot of the
//! LRU list, or the spill LBA of the flash page holding its record. An
//! eviction touches only the LRU head. The victim's entry still names
//! its old slot, and a lookup knows the flow was evicted because that
//! slot's LRU node no longer holds it. The victim queues for the open
//! spill page, which closes after `min(spill_batch, SPILL_BATCH)`
//! evictions (`spill_pages` counts it then). A steer of a flow still in
//! the open page promotes it back at DRAM speed (`hits_staged`).
//!
//! In the model, a record reaches flash when its page closes: the page's
//! write is submitted at that instant, off the packet path, and no steer
//! waits for it. The host keeps closed pages queued and writes them in
//! one drain, once [`SPILL_BATCH`] records are queued, and before
//! anything else reaches the spill SSD (a promotion read). The drain
//! submits the pages in close order, each at its close instant, so the
//! device sees the same commands at the same instants as a balancer that
//! wrote every page when it closed. Only then do the page's flows'
//! entries name its LBA.

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

/// Spill records per flash page (16-byte records into a 4 KiB page), and
/// the queued records that make the balancer write its closed pages.
pub const SPILL_BATCH: usize = LBA_SIZE as usize / RECORD;

/// Where a flow's state lives: the decoded view of a [`TableEntry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Residence {
    /// At `slot` of the [`Lru`] list, if that slot still holds the flow;
    /// otherwise evicted, with its record queued for a spill page.
    Dram { slot: u32 },
    /// On flash, in the spill page at `lba`.
    Flash { lba: u64 },
}

/// Bits a [`TableEntry`] has for a DRAM slot or spill LBA.
const PLACE_BITS: u32 = 30;

/// Exclusive bound on a DRAM slot or spill LBA.
const PLACE_LIMIT: u64 = 1 << PLACE_BITS;

/// One flow-table value packed into a word: the backend in the low 32
/// bits, then the [`Residence`] tag in the bit above the DRAM slot or
/// spill LBA in [`PLACE_BITS`]. With the key, a table entry is 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TableEntry(u64);

impl TableEntry {
    fn new(backend: BackendId, residence: Residence) -> TableEntry {
        let (tag, place) = match residence {
            Residence::Dram { slot } => (0, u64::from(slot)),
            Residence::Flash { lba } => (1, lba),
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

    #[cfg(test)]
    fn len(&self) -> usize {
        self.shards.iter().map(IntMap::len).sum()
    }
}

/// The end-of-list marker for [`Lru`] links.
const NIL: u32 = u32::MAX;

/// The `prev` link of a freed [`Lru`] node.
const FREED: u32 = NIL - 1;

#[derive(Debug, Clone, Copy)]
struct Node {
    flow: u64,
    prev: u32,
    next: u32,
}

/// DRAM-resident flows in recency order (head = coldest): a doubly linked
/// list threaded through a slab, so appending, touching and evicting are
/// all O(1). Callers keep each flow's slot (in [`Residence::Dram`]) and
/// ask [`Lru::holds`] whether it is still there; a slot freed by
/// [`Lru::pop_front`] is reused by the next [`Lru::push_back`].
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

    /// Whether `flow` is in the list at `slot`: false once the slot is
    /// freed, and once it is reused by another flow.
    fn holds(&self, slot: u32, flow: u64) -> bool {
        let node = &self.nodes[slot as usize];
        node.flow == flow && node.prev != FREED
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
                assert!(self.nodes.len() < FREED as usize, "LRU slab is full");
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
        let node = &mut self.nodes[slot as usize];
        node.prev = FREED;
        Some(node.flow)
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
    /// Evicted flows whose records are not written yet, in eviction
    /// order: the closed pages' records, then the open page's.
    queued: Vec<u64>,
    /// The closed pages not written yet, in close order: the instant each
    /// closed and the end of its records in `queued`.
    closed: Vec<(Ns, usize)>,
    /// Records per spill page, at most [`SPILL_BATCH`].
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
        let spill_batch = spill_batch.min(SPILL_BATCH);
        LoadBalancer {
            backends,
            dram_capacity,
            table: FlowTable::new(),
            lru: Lru::new(),
            spill: NvmeDevice::new_block(spill_lbas),
            spill_cursor: 0,
            // Before a drain: fewer than SPILL_BATCH closed records, and
            // a page's worth more.
            queued: Vec::with_capacity(SPILL_BATCH + spill_batch),
            closed: Vec::with_capacity(SPILL_BATCH.div_ceil(spill_batch)),
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

    /// Where the open page's records start in `queued`.
    fn open_page(&self) -> usize {
        self.closed.last().map_or(0, |&(_, end)| end)
    }

    /// Evicts the coldest DRAM flow into the open spill page, closing the
    /// page at `now` once it holds a batch. The victim's entry is not
    /// touched; see the module docs for when its record is written.
    fn spill_coldest(&mut self, now: Ns) {
        let Some(victim) = self.lru.pop_front() else {
            return;
        };
        self.counters.bump("spills");
        self.queued.push(victim);
        if self.queued.len() - self.open_page() >= self.spill_batch {
            self.counters.bump("spill_pages");
            self.closed.push((now, self.queued.len()));
            if self.queued.len() >= SPILL_BATCH {
                self.drain();
            }
        }
    }

    /// Installs `flow` as the hottest DRAM entry at `now`, first spilling
    /// the coldest one if DRAM is full.
    fn install_dram(&mut self, flow: u64, backend: BackendId, now: Ns) {
        if self.lru.len() >= self.dram_capacity {
            self.spill_coldest(now);
        }
        let slot = self.lru.push_back(flow);
        self.table
            .insert(flow, TableEntry::new(backend, Residence::Dram { slot }));
    }

    /// Writes every closed spill page, each at the instant it closed and
    /// in close order, and points its flows' entries at its LBA.
    fn drain(&mut self) {
        let end = self.open_page();
        if end == 0 {
            return;
        }
        // One buffer of every closed page's records. The entries are
        // read back to back, so their cache misses overlap.
        let mut data = BytesMut::zeroed(RECORD * end);
        for (&flow, record) in self.queued[..end].iter().zip(data.chunks_exact_mut(RECORD)) {
            let entry = self.table.get(flow).expect("queued flow is tracked");
            debug_assert!(
                matches!(entry.residence(), Residence::Dram { slot } if !self.lru.holds(slot, flow)),
                "queued flow {flow} is {:?}",
                entry.residence()
            );
            record[..8].copy_from_slice(&flow.to_le_bytes());
            record[8..12].copy_from_slice(&entry.backend().0.to_le_bytes());
        }
        // The device keeps a full page as its slice of this buffer, and
        // copies a page of at most half a block into its prefix slabs.
        let data = data.freeze();
        let mut start = 0;
        for &(closed_at, stop) in &self.closed {
            let lba = self.spill_cursor % self.spill.capacity_lbas();
            self.spill_cursor += 1;
            let page = data.slice(RECORD * start..RECORD * stop);
            self.spill
                .submit(Command::WritePrefix { lba, data: page }, closed_at)
                .expect("spill write");
            for &flow in &self.queued[start..stop] {
                let entry = self.table.get_mut(flow).expect("queued flow is tracked");
                *entry = entry.moved(Residence::Flash { lba });
            }
            start = stop;
        }
        self.closed.clear();
        self.queued.drain(..end);
    }

    /// Steers one packet of `flow` at `now`: returns the backend and the
    /// completion instant. New flows are assigned and installed; flows
    /// whose state spilled to flash pay a flash read to re-promote.
    pub fn steer(&mut self, flow: u64, now: Ns) -> (BackendId, Ns) {
        let t = now + PIPELINE_WORK;
        let Some(entry) = self.table.get(flow) else {
            self.counters.bump("new_flows");
            let backend = self.choose_backend(flow);
            self.install_dram(flow, backend, t + DRAM_LOOKUP);
            return (backend, t + DRAM_LOOKUP);
        };
        let backend = entry.backend();
        let lba = match entry.residence() {
            Residence::Dram { slot } if self.lru.holds(slot, flow) => {
                self.counters.bump("hits_dram");
                self.lru.move_to_back(slot);
                return (backend, t + DRAM_LOOKUP);
            }
            Residence::Dram { .. } => {
                let open = self.open_page();
                if let Some(i) = self.queued[open..].iter().position(|&f| f == flow) {
                    // Still in the open page: promote back at DRAM speed.
                    self.counters.bump("hits_staged");
                    self.queued.remove(open + i);
                    self.install_dram(flow, backend, t + DRAM_LOOKUP);
                    return (backend, t + DRAM_LOOKUP);
                }
                // In a closed page: written (as of its close) by the drain.
                self.drain();
                match self.table.get(flow).map(TableEntry::residence) {
                    Some(Residence::Flash { lba }) => lba,
                    r => unreachable!("drained flow {flow} is {r:?}"),
                }
            }
            Residence::Flash { lba } => lba,
        };
        // Cold flow: read the record back, promote to DRAM. Every closed
        // page is written first, so the read follows them on the device.
        self.counters.bump("hits_flash");
        self.counters.bump("promotions");
        self.drain();
        let c = self
            .spill
            .submit(Command::Read { lba, blocks: 1 }, t)
            .expect("spill read");
        debug_assert!(matches!(c.response, Response::Data(_)));
        self.install_dram(flow, backend, c.done);
        (backend, c.done)
    }

    /// The spill SSD, with every closed page written.
    #[cfg(test)]
    fn spill_ssd(&mut self) -> &mut NvmeDevice {
        self.drain();
        &mut self.spill
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
        assert_eq!(lb.lru.len(), 100);
        assert_eq!(lb.table.len(), 500);
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
        let mut own_slot = 0;
        for seed in 0..8 {
            let mut rng = Rng::seeded(seed);
            let mut lru = Lru::new();
            let mut slots: IntMap<u64, u32> = IntMap::default();
            let mut reference: VecDeque<u64> = VecDeque::new();
            // The slot each evicted flow left, while it is not resident.
            let mut left: IntMap<u64, u32> = IntMap::default();
            let mut reused = 0;
            for step in 0..4_000 {
                match rng.next_below(10) {
                    // Push a flow that is not resident: new, or evicted earlier.
                    0..=3 => {
                        let flow = rng.next_below(2_000);
                        if slots.contains_key(&flow) {
                            continue;
                        }
                        reused += usize::from(!lru.free.is_empty());
                        let slot = lru.push_back(flow);
                        own_slot += usize::from(left.remove(&flow) == Some(slot));
                        assert!(lru.holds(slot, flow));
                        slots.insert(flow, slot);
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
                            let slot = slots.remove(&flow).expect("victim was resident");
                            assert!(!lru.holds(slot, flow), "seed {seed}: freed slot holds");
                            left.insert(flow, slot);
                        }
                    }
                }
                assert_eq!(lru.len(), reference.len());
                if step % 64 == 0 {
                    assert!(slots.iter().all(|(&flow, &slot)| lru.holds(slot, flow)));
                    assert!(left.iter().all(|(&flow, &slot)| !lru.holds(slot, flow)));
                }
            }
            assert!(reused > 0, "seed {seed} never reused a freed slot");
            while let Some(flow) = reference.pop_front() {
                assert_eq!(lru.pop_front(), Some(flow), "seed {seed}");
            }
            assert_eq!((lru.pop_front(), lru.len()), (None, 0));
        }
        assert!(own_slot > 0, "no flow returned to the slot it left");
    }

    #[test]
    fn table_entries_round_trip_every_residence_at_both_ends() {
        let last = PLACE_LIMIT - 1;
        for backend in [0, 1, u32::MAX].map(BackendId) {
            for residence in [
                Residence::Dram { slot: 0 },
                Residence::Dram { slot: last as u32 },
                Residence::Flash { lba: 0 },
                Residence::Flash { lba: last },
            ] {
                let entry = TableEntry::new(backend, residence);
                assert_eq!((entry.backend(), entry.residence()), (backend, residence));
                for moved in [Residence::Dram { slot: 1 }, Residence::Flash { lba: last }] {
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
                table.insert(
                    flow,
                    TableEntry::new(BackendId(0), Residence::Flash { lba: 0 }),
                );
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
                    .spill_ssd()
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
                let held = lb.spill_ssd().stored_block(lba as u64).map(|b| b.len());
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

    /// The data of the one-LBA read of `lba` at `now`.
    fn read_page(spill: &mut NvmeDevice, lba: u64, now: Ns) -> bytes::Bytes {
        let c = spill
            .submit(Command::Read { lba, blocks: 1 }, now)
            .expect("spill read");
        let Response::Data(page) = c.response else {
            panic!("read returns data");
        };
        page
    }

    #[test]
    fn wrapped_spill_pages_stay_compact() {
        // 88 new flows through 16 DRAM slots: 72 one-record pages on a
        // 64-LBA spill SSD, so the last 8 pages rewrite LBAs 0..8.
        let mut lb = LoadBalancer::with_spill_batch(4, 16, 64, 1);
        let mut t = Ns::ZERO;
        let mut backends = Vec::new();
        for flow in 0..88u64 {
            let (backend, done) = lb.steer(flow, t);
            backends.push(backend);
            t = done;
        }
        assert_eq!(lb.counters.get("spill_pages"), 72);
        let spill = lb.spill_ssd();
        for lba in 0..64u64 {
            // Flows leave DRAM in arrival order, so page `n` holds flow `n`.
            let flow = if lba < 8 { 64 + lba } else { lba };
            assert_eq!(spill.stored_block(lba), None, "lba {lba} is held compact");
            let page = read_page(spill, lba, t);
            assert_eq!(page[..8], flow.to_le_bytes(), "lba {lba}");
            assert_eq!(page[8..12], backends[flow as usize].0.to_le_bytes());
            assert!(page[12..].iter().all(|&b| b == 0), "lba {lba}");
        }
    }

    #[test]
    fn an_evicted_flow_never_hits_the_slot_it_left() {
        for batch in [1, SPILL_BATCH] {
            // One DRAM slot: each steer of the other flow evicts this one
            // and reuses slot 0, the slot both entries keep naming.
            let mut lb = LoadBalancer::with_spill_batch(4, 1, 1 << 10, batch);
            let mut t = Ns::ZERO;
            let mut backends = [None; 2];
            for flow in [0, 1, 0, 1, 0] {
                let (backend, done) = lb.steer(flow, t);
                assert_eq!(*backends[flow as usize].get_or_insert(backend), backend);
                t = done;
            }
            let c = |name| lb.counters.get(name);
            assert_eq!(c("hits_dram"), 0, "batch {batch}");
            assert_eq!((c("new_flows"), c("spills")), (2, 4), "batch {batch}");
            assert_eq!(c("hits_staged") + c("hits_flash"), 3, "batch {batch}");
            // Flow 1's record waits in a page not yet written (the open
            // one at a full batch, a closed one at batch 1); its entry
            // still names slot 0, which now holds flow 0.
            let entry = lb.table.get(1).expect("tracked");
            assert_eq!(entry.residence(), Residence::Dram { slot: 0 });
            assert!(!lb.lru.holds(0, 1) && lb.lru.holds(0, 0));
            // Flow 0 was promoted back into slot 0, the slot it left.
            let before = lb.counters.get("hits_dram");
            lb.steer(0, t);
            assert_eq!(lb.counters.get("hits_dram"), before + 1, "batch {batch}");
        }
    }

    /// The LB counters, as [`LoadBalancer::counters`] documents them.
    const LB_COUNTERS: [&str; 7] = [
        "hits_dram",
        "hits_flash",
        "hits_staged",
        "spills",
        "promotions",
        "new_flows",
        "spill_pages",
    ];

    /// Where a flow's state lives, in the balancer that writes each
    /// spill page when it closes.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Place {
        Dram,
        /// In the open spill page.
        Staged,
        Flash(u64),
    }

    /// A balancer that writes each spill page the moment it closes: a
    /// `VecDeque` LRU, a third residence for flows in the open page, and
    /// each page's records built and submitted at its close.
    struct EagerSpill {
        chooser: LoadBalancer,
        dram: usize,
        batch: usize,
        table: std::collections::HashMap<u64, (BackendId, Place)>,
        lru: std::collections::VecDeque<u64>,
        staging: Vec<u64>,
        spill: NvmeDevice,
        cursor: u64,
        counters: Counters,
    }

    impl EagerSpill {
        fn new(backends: u32, dram: usize, spill_lbas: u64, batch: usize) -> EagerSpill {
            EagerSpill {
                chooser: LoadBalancer::new(backends, 0, 1),
                dram,
                batch: batch.min(SPILL_BATCH),
                table: Default::default(),
                lru: Default::default(),
                staging: Vec::new(),
                spill: NvmeDevice::new_block(spill_lbas),
                cursor: 0,
                counters: Counters::new(),
            }
        }

        fn steer(&mut self, flow: u64, now: Ns) -> (BackendId, Ns) {
            let t = now + PIPELINE_WORK;
            let hit = t + DRAM_LOOKUP;
            match self.table.get(&flow).copied() {
                None => {
                    self.counters.bump("new_flows");
                    let backend = self.chooser.choose_backend(flow);
                    self.install(flow, backend, hit);
                    (backend, hit)
                }
                Some((backend, Place::Dram)) => {
                    self.counters.bump("hits_dram");
                    let i = self.lru.iter().position(|&f| f == flow).expect("resident");
                    self.lru.remove(i);
                    self.lru.push_back(flow);
                    (backend, hit)
                }
                Some((backend, Place::Staged)) => {
                    self.counters.bump("hits_staged");
                    self.staging.retain(|&f| f != flow);
                    self.install(flow, backend, hit);
                    (backend, hit)
                }
                Some((backend, Place::Flash(lba))) => {
                    self.counters.bump("hits_flash");
                    self.counters.bump("promotions");
                    let c = self
                        .spill
                        .submit(Command::Read { lba, blocks: 1 }, t)
                        .expect("spill read");
                    self.install(flow, backend, c.done);
                    (backend, c.done)
                }
            }
        }

        fn install(&mut self, flow: u64, backend: BackendId, now: Ns) {
            if self.lru.len() >= self.dram {
                let victim = self.lru.pop_front().expect("DRAM is full");
                self.counters.bump("spills");
                self.table.get_mut(&victim).expect("tracked").1 = Place::Staged;
                self.staging.push(victim);
                if self.staging.len() == self.batch {
                    self.counters.bump("spill_pages");
                    let lba = self.cursor % self.spill.capacity_lbas();
                    self.cursor += 1;
                    let mut records = Vec::new();
                    for flow in self.staging.drain(..) {
                        let entry = self.table.get_mut(&flow).expect("tracked");
                        entry.1 = Place::Flash(lba);
                        records.extend(flow.to_le_bytes());
                        records.extend(entry.0 .0.to_le_bytes());
                        records.extend([0; 4]);
                    }
                    let data = bytes::Bytes::from(records);
                    self.spill
                        .submit(Command::WritePrefix { lba, data }, now)
                        .expect("spill write");
                }
            }
            self.lru.push_back(flow);
            self.table.insert(flow, (backend, Place::Dram));
        }
    }

    #[test]
    fn write_behind_matches_a_balancer_that_writes_each_page_at_close() {
        use hyperion_sim::rng::Rng;
        const DRAM: usize = 8;
        // Small enough that every batch size wraps it.
        const SPILL_LBAS: u64 = 8;
        // What a steer finds: a new flow, a DRAM hit, a flow in the open
        // page, in a closed page not yet written, or in a written page.
        const KINDS: [&str; 5] = ["new", "dram", "open page", "queued page", "drained page"];
        let mut all_kinds = [0; 5];
        for batch in [1, 4, SPILL_BATCH] {
            let mut rng = Rng::seeded(batch as u64);
            let mut lb = LoadBalancer::with_spill_batch(4, DRAM, SPILL_LBAS, batch);
            let mut eager = EagerSpill::new(4, DRAM, SPILL_LBAS, batch);
            let (mut flows, mut steered) = (Vec::new(), Vec::new());
            let mut kinds = [0; 5];
            let mut now = Ns::ZERO;
            for step in 0..6_000 {
                let flow = match rng.next_below(10) {
                    // One of the last 48 steered: mostly DRAM and open-page hits.
                    0..=3 if !steered.is_empty() => {
                        let back = rng.next_below(steered.len().min(48) as u64) as usize;
                        steered[steered.len() - 1 - back]
                    }
                    // Any flow seen so far: mostly promotions.
                    4..=6 if !flows.is_empty() => {
                        flows[rng.next_below(flows.len() as u64) as usize]
                    }
                    _ => {
                        flows.push(rng.next_u64());
                        flows[flows.len() - 1]
                    }
                };
                steered.push(flow);
                let kind = match lb.table.get(flow).map(TableEntry::residence) {
                    None => 0,
                    Some(Residence::Dram { slot }) if lb.lru.holds(slot, flow) => 1,
                    Some(Residence::Dram { .. }) if lb.queued[lb.open_page()..].contains(&flow) => {
                        2
                    }
                    Some(Residence::Dram { .. }) => 3,
                    Some(Residence::Flash { .. }) => 4,
                };
                let place = eager.table.get(&flow).map(|e| e.1);
                let expected = match place {
                    None => [0, 0],
                    Some(Place::Dram) => [1, 1],
                    Some(Place::Staged) => [2, 2],
                    Some(Place::Flash(_)) => [3, 4],
                };
                assert!(
                    expected.contains(&kind),
                    "batch {batch} step {step}: {} is {place:?}",
                    KINDS[kind]
                );
                kinds[kind] += 1;
                let got = lb.steer(flow, now);
                assert_eq!(got, eager.steer(flow, now), "batch {batch} step {step}");
                for name in LB_COUNTERS {
                    assert_eq!(
                        lb.counters.get(name),
                        eager.counters.get(name),
                        "batch {batch} step {step}: {name}"
                    );
                }
                now = got.1;
            }
            assert!(
                eager.cursor > SPILL_LBAS,
                "batch {batch}: the spill SSD wraps"
            );
            // A batch of one closes its page at every eviction, so no
            // flow waits in an open page; a full batch is drained as it
            // closes, so no flow waits in a queued page.
            let has = [true, true, batch > 1, batch < SPILL_BATCH, true];
            for ((&n, has), name) in kinds.iter().zip(has).zip(KINDS) {
                assert_eq!(n > 0, has, "batch {batch}: {n} steers of a flow in {name}");
            }
            for (total, n) in all_kinds.iter_mut().zip(kinds) {
                *total += n;
            }
            let spill = lb.spill_ssd();
            for lba in 0..SPILL_LBAS {
                let held = |d: &NvmeDevice| d.stored_block(lba).map(|b| b.to_vec());
                assert_eq!(held(spill), held(&eager.spill), "batch {batch} lba {lba}");
                assert_eq!(
                    read_page(spill, lba, now),
                    read_page(&mut eager.spill, lba, now),
                    "batch {batch} lba {lba}"
                );
            }
            assert_eq!(spill.counters.to_string(), eager.spill.counters.to_string());
            assert_eq!(spill.flash_ops(), eager.spill.flash_ops(), "batch {batch}");
            assert_eq!(spill.queue_depth_at(now), eager.spill.queue_depth_at(now));
        }
        assert!(all_kinds.iter().all(|&n| n > 100), "{all_kinds:?}");
    }
}
