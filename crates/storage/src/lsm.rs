//! A log-structured merge tree over the block store.
//!
//! LSM trees are the second core abstraction the paper's workloads lean on
//! (§2.4: "pointer chasing over B+ trees, extent trees, LSM trees (used in
//! many databases, file systems, and key-value stores)"; FPGA-accelerated
//! LSM compaction is cited via ref 171). The implementation is a classic
//! two-tier design: an in-memory memtable flushed into immutable sorted
//! runs (SSTables) with sparse indexes and Bloom filters. Deletes and
//! compaction are not modelled: no experiment issues them.

use std::collections::BTreeMap;

use hyperion_sim::time::Ns;

use crate::blockstore::{BlockError, BlockStore, BLOCK};

/// Entries the memtable holds before flushing.
pub const MEMTABLE_LIMIT: usize = 4_096;

/// Bloom filter bits per key.
const BLOOM_BITS_PER_KEY: usize = 10;

/// Errors from the LSM tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LsmError {
    /// Block layer failure.
    Block(BlockError),
}

impl std::fmt::Display for LsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LsmError::Block(e) => write!(f, "block layer: {e}"),
        }
    }
}

impl std::error::Error for LsmError {}

impl From<BlockError> for LsmError {
    fn from(e: BlockError) -> LsmError {
        LsmError::Block(e)
    }
}

/// A simple split Bloom filter.
#[derive(Debug, Clone)]
struct Bloom {
    bits: Vec<u64>,
    k: u32,
}

impl Bloom {
    fn new(keys: usize) -> Bloom {
        let nbits = (keys.max(1) * BLOOM_BITS_PER_KEY)
            .next_power_of_two()
            .max(64);
        Bloom {
            bits: vec![0; nbits / 64],
            k: 7,
        }
    }

    fn positions(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        let mask = self.bits.len() * 64 - 1;
        let mut h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (key >> 31);
        (0..self.k).map(move |_| {
            h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(31);
            (h as usize) & mask
        })
    }

    fn insert(&mut self, key: u64) {
        let positions: Vec<usize> = self.positions(key).collect();
        for p in positions {
            self.bits[p / 64] |= 1 << (p % 64);
        }
    }

    fn may_contain(&self, key: u64) -> bool {
        self.positions(key)
            .collect::<Vec<_>>()
            .into_iter()
            .all(|p| self.bits[p / 64] & (1 << (p % 64)) != 0)
    }
}

/// One immutable sorted run on the device.
#[derive(Debug)]
struct SsTable {
    first_lba: u64,
    /// Sparse index: first key of each block.
    fence_keys: Vec<u64>,
    bloom: Bloom,
}

const PAIRS_PER_BLOCK: usize = (BLOCK as usize) / 16;

impl SsTable {
    /// Writes a sorted run from `pairs`; returns the table and completion.
    fn build(
        store: &mut BlockStore,
        pairs: &[(u64, u64)],
        now: Ns,
    ) -> Result<(SsTable, Ns), LsmError> {
        let blocks = pairs.len().div_ceil(PAIRS_PER_BLOCK).max(1);
        let first_lba = store.alloc(blocks as u64)?;
        let mut bloom = Bloom::new(pairs.len());
        let mut fence_keys = Vec::with_capacity(blocks);
        let mut image = Vec::with_capacity(blocks * BLOCK as usize);
        for chunk in pairs.chunks(PAIRS_PER_BLOCK.max(1)) {
            fence_keys.push(chunk.first().map(|p| p.0).unwrap_or(0));
            let mut block = Vec::with_capacity(BLOCK as usize);
            for (k, v) in chunk {
                bloom.insert(*k);
                block.extend_from_slice(&k.to_le_bytes());
                block.extend_from_slice(&v.to_le_bytes());
            }
            block.resize(BLOCK as usize, 0xFF); // 0xFF pad = key u64::MAX
            image.extend_from_slice(&block);
        }
        if image.is_empty() {
            image.resize(BLOCK as usize, 0xFF);
            fence_keys.push(0);
        }
        let done = store.write(first_lba, image, now)?;
        Ok((
            SsTable {
                first_lba,
                fence_keys,
                bloom,
            },
            done,
        ))
    }

    /// Point lookup: fence binary search, one block read. The Bloom
    /// filter gate lives in [`LsmTree::get`] so it can be ablated.
    fn get(
        &self,
        store: &mut BlockStore,
        key: u64,
        now: Ns,
    ) -> Result<(Option<u64>, Ns), LsmError> {
        let idx = self.fence_keys.partition_point(|&k| k <= key);
        if idx == 0 {
            return Ok((None, now));
        }
        let block_idx = idx - 1;
        let (data, done) = store.read(self.first_lba + block_idx as u64, 1, now)?;
        for pair in data.chunks_exact(16) {
            let k = u64::from_le_bytes(pair[0..8].try_into().expect("8 bytes"));
            if k == key {
                let v = u64::from_le_bytes(pair[8..16].try_into().expect("8 bytes"));
                return Ok((Some(v), done));
            }
            if k > key {
                break;
            }
        }
        Ok((None, done))
    }
}

/// The LSM tree handle.
#[derive(Debug)]
pub struct LsmTree {
    memtable: BTreeMap<u64, u64>,
    /// Newest first.
    tables: Vec<SsTable>,
    use_bloom: bool,
}

impl LsmTree {
    /// Creates an empty tree (Bloom filters enabled).
    pub fn new() -> LsmTree {
        Self::with_bloom(true)
    }

    /// Creates an empty tree with Bloom filters switched on or off — the
    /// ablation knob for miss-read amplification.
    pub fn with_bloom(use_bloom: bool) -> LsmTree {
        LsmTree {
            memtable: BTreeMap::new(),
            tables: Vec::new(),
            use_bloom,
        }
    }

    /// Inserts `key -> value`; flushes the memtable if it is full.
    pub fn put(
        &mut self,
        store: &mut BlockStore,
        key: u64,
        value: u64,
        now: Ns,
    ) -> Result<Ns, LsmError> {
        assert!(key != u64::MAX, "u64::MAX is reserved as block padding");
        self.memtable.insert(key, value);
        if self.memtable.len() >= MEMTABLE_LIMIT {
            return self.flush(store, now);
        }
        Ok(now)
    }

    /// Point lookup: memtable, then runs newest-first (Bloom-gated).
    pub fn get(
        &mut self,
        store: &mut BlockStore,
        key: u64,
        now: Ns,
    ) -> Result<(Option<u64>, Ns), LsmError> {
        if let Some(&v) = self.memtable.get(&key) {
            return Ok((Some(v), now));
        }
        let mut t = now;
        for table in &self.tables {
            if self.use_bloom && !table.bloom.may_contain(key) {
                continue;
            }
            let (v, done) = table.get(store, key, t)?;
            t = done;
            if v.is_some() {
                return Ok((v, t));
            }
        }
        Ok((None, t))
    }

    /// Flushes the memtable into a new SSTable.
    pub fn flush(&mut self, store: &mut BlockStore, now: Ns) -> Result<Ns, LsmError> {
        if self.memtable.is_empty() {
            return Ok(now);
        }
        let pairs: Vec<(u64, u64)> = self.memtable.iter().map(|(&k, &v)| (k, v)).collect();
        let (table, done) = SsTable::build(store, &pairs, now)?;
        self.tables.insert(0, table);
        self.memtable.clear();
        Ok(done)
    }
}

impl Default for LsmTree {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> BlockStore {
        BlockStore::with_capacity(1 << 20)
    }

    #[test]
    fn put_get_within_memtable() {
        let mut s = store();
        let mut lsm = LsmTree::new();
        lsm.put(&mut s, 1, 10, Ns::ZERO).unwrap();
        let (v, t) = lsm.get(&mut s, 1, Ns::ZERO).unwrap();
        assert_eq!(v, Some(10));
        assert_eq!(t, Ns::ZERO, "memtable hits cost no device time");
    }

    #[test]
    fn flush_then_get_from_sstable() {
        let mut s = store();
        let mut lsm = LsmTree::new();
        for k in 0..100u64 {
            lsm.put(&mut s, k, k * 2, Ns::ZERO).unwrap();
        }
        // Every value is storable, the largest too.
        lsm.put(&mut s, 100, u64::MAX, Ns::ZERO).unwrap();
        assert_eq!(lsm.get(&mut s, 100, Ns::ZERO).unwrap().0, Some(u64::MAX));
        let t = lsm.flush(&mut s, Ns::ZERO).unwrap();
        assert_eq!(lsm.tables.len(), 1);
        let (v, done) = lsm.get(&mut s, 50, t).unwrap();
        assert_eq!(v, Some(100));
        assert!(done > t, "sstable hit reads a block");
        assert_eq!(lsm.get(&mut s, 100, t).unwrap().0, Some(u64::MAX));
    }

    #[test]
    fn newest_run_wins() {
        let mut s = store();
        let mut lsm = LsmTree::new();
        lsm.put(&mut s, 7, 1, Ns::ZERO).unwrap();
        lsm.flush(&mut s, Ns::ZERO).unwrap();
        lsm.put(&mut s, 7, 2, Ns::ZERO).unwrap();
        lsm.flush(&mut s, Ns::ZERO).unwrap();
        let (v, _) = lsm.get(&mut s, 7, Ns::ZERO).unwrap();
        assert_eq!(v, Some(2));
    }

    #[test]
    fn automatic_flush_at_limit() {
        let mut s = store();
        let mut lsm = LsmTree::new();
        for k in 0..MEMTABLE_LIMIT as u64 {
            lsm.put(&mut s, k, k, Ns::ZERO).unwrap();
        }
        assert_eq!(lsm.tables.len(), 1);
        assert!(lsm.memtable.is_empty());
    }

    #[test]
    fn bloom_filters_avoid_reads_for_misses() {
        let mut s = store();
        let mut lsm = LsmTree::new();
        for k in 0..1_000u64 {
            lsm.put(&mut s, k * 2, k, Ns::ZERO).unwrap();
        }
        lsm.flush(&mut s, Ns::ZERO).unwrap();
        let before = s.reads();
        let mut skipped = 0;
        for k in 0..500u64 {
            let (v, _) = lsm.get(&mut s, 1_000_001 + k * 2, Ns::ZERO).unwrap();
            assert_eq!(v, None);
            skipped += 1;
        }
        let reads = s.reads() - before;
        // With 10 bits/key the false-positive rate is ~1%; allow slack.
        assert!(
            reads < skipped / 5,
            "bloom should suppress most miss reads: {reads} reads for {skipped} misses"
        );
    }

    #[test]
    fn many_flushes_then_full_recovery_of_all_keys() {
        let mut s = store();
        let mut lsm = LsmTree::new();
        for round in 0..5u64 {
            for k in 0..200u64 {
                lsm.put(&mut s, k + round * 200, k + round * 1_000, Ns::ZERO)
                    .unwrap();
            }
            lsm.flush(&mut s, Ns::ZERO).unwrap();
        }
        assert_eq!(lsm.tables.len(), 5);
        for round in 0..5u64 {
            for k in (0..200u64).step_by(17) {
                let (v, _) = lsm.get(&mut s, k + round * 200, Ns::ZERO).unwrap();
                assert_eq!(v, Some(k + round * 1_000));
            }
        }
    }
}
