//! Write-ahead log and atomic multi-block transactions.
//!
//! Paper §2.4 lists "atomic writes with transactional interfaces" (citing
//! Boxwood-style abstractions and atomic-write primitives, ref 128) among the
//! interfaces a network-attached SSD should export. The WAL provides
//! redo-logging over a dedicated block region; [`TxnEngine`] builds
//! all-or-nothing multi-block updates on top of it, and recovery replays
//! only transactions whose commit record made it to flash.

use hyperion_sim::time::Ns;

use crate::blockstore::{BlockError, BlockStore, BLOCK};

const REC_MAGIC: u32 = 0x57_41_4C_31; // "WAL1"
const KIND_DATA: u8 = 1;
const KIND_COMMIT: u8 = 2;

/// Errors from the WAL/transaction layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// Block layer failure.
    Block(BlockError),
    /// The log region is full.
    LogFull,
    /// A record failed its checksum (torn write) — treated as log end.
    TornRecord,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Block(e) => write!(f, "block layer: {e}"),
            WalError::LogFull => write!(f, "log region full"),
            WalError::TornRecord => write!(f, "torn log record"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Block(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BlockError> for WalError {
    fn from(e: BlockError) -> WalError {
        WalError::Block(e)
    }
}

/// One logical log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A pending block image for transaction `txn`.
    Data {
        /// Transaction id.
        txn: u64,
        /// Target LBA the image applies to.
        target_lba: u64,
        /// The 4 KiB block image.
        image: Vec<u8>,
    },
    /// Transaction `txn` is durable; its data records must be applied.
    Commit {
        /// Transaction id.
        txn: u64,
    },
}

/// The redo log over a fixed region `[first_lba, first_lba + capacity)`.
#[derive(Debug)]
pub struct Wal {
    first_lba: u64,
    capacity_blocks: u64,
    head: u64, // next block to write, relative to first_lba
}

impl Wal {
    /// Creates a WAL over a freshly allocated region.
    pub fn create(store: &mut BlockStore, capacity_blocks: u64) -> Result<Wal, WalError> {
        let first_lba = store.alloc(capacity_blocks)?;
        Ok(Wal {
            first_lba,
            capacity_blocks,
            head: 0,
        })
    }

    /// Re-opens a WAL over an existing region (for recovery).
    pub fn open(first_lba: u64, capacity_blocks: u64) -> Wal {
        Wal {
            first_lba,
            capacity_blocks,
            head: 0,
        }
    }

    /// The region start (persist this somewhere to reopen after a crash).
    pub fn first_lba(&self) -> u64 {
        self.first_lba
    }

    /// Appends a record (one or two blocks) and returns the completion
    /// time of the flash program — the durability point.
    pub fn append(
        &mut self,
        store: &mut BlockStore,
        record: &WalRecord,
        now: Ns,
    ) -> Result<Ns, WalError> {
        let body = encode(record);
        let blocks = body.len().div_ceil(BLOCK as usize) as u64;
        if self.head + blocks > self.capacity_blocks {
            return Err(WalError::LogFull);
        }
        let lba = self.first_lba + self.head;
        self.head += blocks;
        let mut padded = body;
        padded.resize((blocks * BLOCK) as usize, 0);
        Ok(store.write(lba, padded, now)?)
    }

    /// Scans the region from the start, returning every intact record up
    /// to the first torn/empty slot.
    pub fn replay(
        &self,
        store: &mut BlockStore,
        now: Ns,
    ) -> Result<(Vec<WalRecord>, Ns), WalError> {
        let mut out = Vec::new();
        let mut rel = 0u64;
        let mut t = now;
        while rel < self.capacity_blocks {
            let (header, done) = store.read(self.first_lba + rel, 1, t)?;
            t = done;
            let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
            if magic != REC_MAGIC {
                break; // end of log
            }
            let total_len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
            let blocks = total_len.div_ceil(BLOCK as usize) as u64;
            let full = if blocks > 1 {
                let (rest, done) = store.read(self.first_lba + rel, blocks as u32, t)?;
                t = done;
                rest
            } else {
                header
            };
            match decode(&full[..total_len]) {
                Some(rec) => out.push(rec),
                None => return Err(WalError::TornRecord),
            }
            rel += blocks;
        }
        Ok((out, t))
    }
}

fn encode(record: &WalRecord) -> Vec<u8> {
    let mut body = Vec::new();
    match record {
        WalRecord::Data {
            txn,
            target_lba,
            image,
        } => {
            body.push(KIND_DATA);
            body.extend_from_slice(&txn.to_le_bytes());
            body.extend_from_slice(&target_lba.to_le_bytes());
            body.extend_from_slice(&(image.len() as u32).to_le_bytes());
            body.extend_from_slice(image);
        }
        WalRecord::Commit { txn } => {
            body.push(KIND_COMMIT);
            body.extend_from_slice(&txn.to_le_bytes());
        }
    }
    let mut out = Vec::with_capacity(16 + body.len());
    out.extend_from_slice(&REC_MAGIC.to_le_bytes());
    out.extend_from_slice(&((16 + body.len()) as u32).to_le_bytes());
    out.extend_from_slice(&fnv64(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

fn decode(full: &[u8]) -> Option<WalRecord> {
    if full.len() < 16 {
        return None;
    }
    let checksum = u64::from_le_bytes(full[8..16].try_into().ok()?);
    let body = &full[16..];
    if fnv64(body) != checksum {
        return None;
    }
    match body[0] {
        KIND_DATA => {
            let txn = u64::from_le_bytes(body[1..9].try_into().ok()?);
            let target_lba = u64::from_le_bytes(body[9..17].try_into().ok()?);
            let len = u32::from_le_bytes(body[17..21].try_into().ok()?) as usize;
            Some(WalRecord::Data {
                txn,
                target_lba,
                image: body[21..21 + len].to_vec(),
            })
        }
        KIND_COMMIT => Some(WalRecord::Commit {
            txn: u64::from_le_bytes(body[1..9].try_into().ok()?),
        }),
        _ => None,
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

/// Atomic multi-block transactions over a WAL.
#[derive(Debug)]
pub struct TxnEngine {
    wal: Wal,
    next_txn: u64,
}

/// A transaction being assembled.
#[derive(Debug)]
pub struct Txn {
    id: u64,
    writes: Vec<(u64, Vec<u8>)>,
}

impl Txn {
    /// Stages a full-block write at `lba`.
    ///
    /// # Panics
    ///
    /// Panics if `image` is not exactly one block.
    pub fn write(&mut self, lba: u64, image: Vec<u8>) {
        assert_eq!(image.len(), BLOCK as usize, "txn writes are whole blocks");
        self.writes.push((lba, image));
    }

    /// The transaction id.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl TxnEngine {
    /// Creates an engine with a fresh WAL region of `wal_blocks`.
    pub fn create(store: &mut BlockStore, wal_blocks: u64) -> Result<TxnEngine, WalError> {
        Ok(TxnEngine {
            wal: Wal::create(store, wal_blocks)?,
            next_txn: 1,
        })
    }

    /// Begins a transaction.
    pub fn begin(&mut self) -> Txn {
        let id = self.next_txn;
        self.next_txn += 1;
        Txn {
            id,
            writes: Vec::new(),
        }
    }

    /// Commits: logs every staged image, logs the commit record (the
    /// durability point), then applies the images in place.
    pub fn commit(&mut self, store: &mut BlockStore, txn: Txn, now: Ns) -> Result<Ns, WalError> {
        let t = self.log_data(store, &txn, now)?;
        let t = self.log_commit(store, &txn, t)?;
        self.apply(store, txn, t)
    }

    /// Phase 1 of commit: appends the staged block images to the WAL.
    ///
    /// Exposed separately (with [`TxnEngine::log_commit`] and
    /// [`TxnEngine::apply`]) so fault-injection tests and replication
    /// layers can crash between phases.
    pub fn log_data(&mut self, store: &mut BlockStore, txn: &Txn, now: Ns) -> Result<Ns, WalError> {
        let mut t = now;
        for (lba, image) in &txn.writes {
            t = self.wal.append(
                store,
                &WalRecord::Data {
                    txn: txn.id,
                    target_lba: *lba,
                    image: image.clone(),
                },
                t,
            )?;
        }
        Ok(t)
    }

    /// Phase 2 of commit: appends the commit record — the durability
    /// point. After this returns, recovery will apply the transaction.
    pub fn log_commit(
        &mut self,
        store: &mut BlockStore,
        txn: &Txn,
        now: Ns,
    ) -> Result<Ns, WalError> {
        self.wal
            .append(store, &WalRecord::Commit { txn: txn.id }, now)
    }

    /// Phase 3 of commit: applies the staged images in place. Safe to
    /// lose to a crash — recovery re-applies from the WAL.
    pub fn apply(&mut self, store: &mut BlockStore, txn: Txn, now: Ns) -> Result<Ns, WalError> {
        let mut t = now;
        for (lba, image) in txn.writes {
            t = store.write(lba, image, t)?;
        }
        Ok(t)
    }

    /// Crash recovery: replays the WAL and re-applies every *committed*
    /// transaction's images; uncommitted data records are discarded.
    /// Returns the ids of recovered transactions.
    pub fn recover(
        wal_first_lba: u64,
        wal_blocks: u64,
        store: &mut BlockStore,
        now: Ns,
    ) -> Result<(Vec<u64>, Ns), WalError> {
        let wal = Wal::open(wal_first_lba, wal_blocks);
        let (records, mut t) = wal.replay(store, now)?;
        let committed: std::collections::HashSet<u64> = records
            .iter()
            .filter_map(|r| match r {
                WalRecord::Commit { txn } => Some(*txn),
                _ => None,
            })
            .collect();
        let mut recovered = Vec::new();
        for r in &records {
            if let WalRecord::Data {
                txn,
                target_lba,
                image,
            } = r
            {
                if committed.contains(txn) {
                    t = store.write(*target_lba, image.clone(), t)?;
                    if !recovered.contains(txn) {
                        recovered.push(*txn);
                    }
                }
            }
        }
        Ok((recovered, t))
    }

    /// The WAL (for its region coordinates).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_of(b: u8) -> Vec<u8> {
        vec![b; BLOCK as usize]
    }

    #[test]
    fn wal_append_replay_round_trip() {
        let mut store = BlockStore::with_capacity(1 << 16);
        let mut wal = Wal::create(&mut store, 64).unwrap();
        let r1 = WalRecord::Data {
            txn: 1,
            target_lba: 100,
            image: block_of(7),
        };
        let r2 = WalRecord::Commit { txn: 1 };
        wal.append(&mut store, &r1, Ns::ZERO).unwrap();
        wal.append(&mut store, &r2, Ns::ZERO).unwrap();
        let (records, _) = wal.replay(&mut store, Ns::ZERO).unwrap();
        assert_eq!(records, vec![r1, r2]);
    }

    #[test]
    fn wal_capacity_enforced() {
        let mut store = BlockStore::with_capacity(1 << 16);
        let mut wal = Wal::create(&mut store, 2).unwrap();
        let rec = WalRecord::Data {
            txn: 1,
            target_lba: 0,
            image: block_of(1),
        };
        wal.append(&mut store, &rec, Ns::ZERO).unwrap();
        assert!(matches!(
            wal.append(&mut store, &rec, Ns::ZERO),
            Err(WalError::LogFull)
        ));
    }

    #[test]
    fn committed_txn_applies_all_writes() {
        let mut store = BlockStore::with_capacity(1 << 16);
        // Data region.
        let data0 = store.alloc(2).unwrap();
        let mut eng = TxnEngine::create(&mut store, 64).unwrap();
        let mut txn = eng.begin();
        txn.write(data0, block_of(0xAA));
        txn.write(data0 + 1, block_of(0xBB));
        eng.commit(&mut store, txn, Ns::ZERO).unwrap();
        let (a, _) = store.read(data0, 1, Ns::ZERO).unwrap();
        let (b, _) = store.read(data0 + 1, 1, Ns::ZERO).unwrap();
        assert!(a.iter().all(|&x| x == 0xAA));
        assert!(b.iter().all(|&x| x == 0xBB));
    }

    #[test]
    fn uncommitted_txn_is_discarded_on_recovery() {
        let mut store = BlockStore::with_capacity(1 << 16);
        let data0 = store.alloc(2).unwrap();
        let mut eng = TxnEngine::create(&mut store, 64).unwrap();
        let wal_lba = eng.wal().first_lba();

        // Commit txn 1 to block 0; log-but-don't-commit txn 2 to block 1
        // (simulating a crash between data and commit records).
        let mut t1 = eng.begin();
        t1.write(data0, block_of(0x11));
        eng.commit(&mut store, t1, Ns::ZERO).unwrap();
        // Manually append an orphan data record (no commit record), as if
        // the crash hit between the data and commit appends.
        let mut wal = Wal::open(wal_lba, 64);
        let (existing, _) = wal.replay(&mut store, Ns::ZERO).unwrap();
        wal.head = existing
            .iter()
            .map(|r| encode(r).len().div_ceil(BLOCK as usize) as u64)
            .sum();
        wal.append(
            &mut store,
            &WalRecord::Data {
                txn: 999,
                target_lba: data0 + 1,
                image: block_of(0x22),
            },
            Ns::ZERO,
        )
        .unwrap();

        // Crash: recover from the WAL.
        let (recovered, _) = TxnEngine::recover(wal_lba, 64, &mut store, Ns::ZERO).unwrap();
        assert_eq!(recovered, vec![1]);
        let (b, _) = store.read(data0 + 1, 1, Ns::ZERO).unwrap();
        assert!(
            b.iter().all(|&x| x != 0x22),
            "uncommitted image must not be applied"
        );
    }

    #[test]
    fn recovery_reapplies_committed_images() {
        let mut store = BlockStore::with_capacity(1 << 16);
        let data0 = store.alloc(1).unwrap();
        let mut eng = TxnEngine::create(&mut store, 64).unwrap();
        let wal_lba = eng.wal().first_lba();
        let mut txn = eng.begin();
        txn.write(data0, block_of(0x77));
        // Commit logs records and applies; simulate the in-place apply
        // being lost by overwriting the data block afterwards, then
        // recovering.
        eng.commit(&mut store, txn, Ns::ZERO).unwrap();
        store.write(data0, block_of(0x00), Ns::ZERO).unwrap();
        let (recovered, _) = TxnEngine::recover(wal_lba, 64, &mut store, Ns::ZERO).unwrap();
        assert_eq!(recovered, vec![1]);
        let (back, _) = store.read(data0, 1, Ns::ZERO).unwrap();
        assert!(back.iter().all(|&x| x == 0x77));
    }

    #[test]
    fn torn_records_are_detected() {
        let mut store = BlockStore::with_capacity(1 << 16);
        let mut wal = Wal::create(&mut store, 8).unwrap();
        wal.append(&mut store, &WalRecord::Commit { txn: 5 }, Ns::ZERO)
            .unwrap();
        // Corrupt the record body but keep the magic.
        let (raw, _) = store.read(wal.first_lba(), 1, Ns::ZERO).unwrap();
        let mut raw = raw.to_vec();
        raw[20] ^= 0xFF;
        store.write(wal.first_lba(), raw, Ns::ZERO).unwrap();
        assert_eq!(
            wal.replay(&mut store, Ns::ZERO).unwrap_err(),
            WalError::TornRecord
        );
    }
}
