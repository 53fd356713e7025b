//! Model-based property tests: each on-device structure is driven with a
//! random operation sequence and checked against an in-memory reference
//! model after every step.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};

use hyperion_sim::time::Ns;
use hyperion_storage::blockstore::BlockStore;
use hyperion_storage::btree::BTree;
use hyperion_storage::columnar::{scan, write_file, ColumnBatch, Predicate};
use hyperion_storage::corfu::{CorfuLog, LogEntry};
use hyperion_storage::lsm::LsmTree;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum KvOp {
    Put(u64, u64),
    Get(u64),
    Flush,
}

fn kv_ops() -> impl Strategy<Value = Vec<KvOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..500, 0u64..1_000_000).prop_map(|(k, v)| KvOp::Put(k, v)),
            (0u64..500).prop_map(KvOp::Get),
            Just(KvOp::Flush),
        ],
        1..120,
    )
}

#[derive(Debug, Clone)]
enum TreeOp {
    Put(u64, u64),
    Get(u64),
    /// Puts keys `start..start + len`, enough to split nodes.
    PutRun(u64, u64, u64),
}

fn tree_ops() -> impl Strategy<Value = Vec<TreeOp>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (0u64..2_400, 0u64..1_000_000).prop_map(|(k, v)| TreeOp::Put(k, v)),
            3 => (0u64..2_400).prop_map(TreeOp::Get),
            1 => (0u64..2_000, 1u64..401, 0u64..1_000_000)
                .prop_map(|(start, len, v)| TreeOp::PutRun(start, len, v)),
        ],
        1..120,
    )
}

/// Cases `btree_matches_model` runs, and how many of them must grow the
/// tree past one leaf (a [`BTree`] node holds at most 200 keys).
const BTREE_CASES: u32 = 64;
const BTREE_MIN_SPLIT_CASES: u32 = BTREE_CASES * 3 / 4;
static BTREE_CASES_RUN: AtomicU32 = AtomicU32::new(0);
static BTREE_SPLIT_CASES: AtomicU32 = AtomicU32::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(BTREE_CASES))]

    /// The B+ tree agrees with a BTreeMap for any insert/get sequence,
    /// across node splits.
    #[test]
    fn btree_matches_model(ops in tree_ops()) {
        let mut store = BlockStore::with_capacity(1 << 20);
        let (mut tree, mut t) = BTree::create(&mut store, Ns::ZERO).unwrap();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for op in ops {
            match op {
                TreeOp::Put(k, v) => {
                    t = tree.insert(&mut store, k, v, t).unwrap();
                    model.insert(k, v);
                }
                TreeOp::Get(k) => {
                    let (got, done) = tree.get(&mut store, k, t).unwrap();
                    t = done;
                    prop_assert_eq!(got, model.get(&k).copied());
                }
                TreeOp::PutRun(start, len, v) => {
                    for k in start..start + len {
                        t = tree.insert(&mut store, k, v ^ k, t).unwrap();
                        model.insert(k, v ^ k);
                    }
                }
            }
            prop_assert_eq!(tree.len(), model.len() as u64);
        }
        // Full sweep at the end.
        for (&k, &v) in &model {
            let (got, done) = tree.get(&mut store, k, t).unwrap();
            t = done;
            prop_assert_eq!(got, Some(v));
        }
        // Range agrees with the model, across leaf boundaries.
        let (range, _) = tree.range(&mut store, 100, 1_300, t).unwrap();
        let expect: Vec<(u64, u64)> = model.range(100..1_300).map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(range, expect);
        // The last case checks that enough cases split a node.
        if tree.height() >= 2 {
            BTREE_SPLIT_CASES.fetch_add(1, Ordering::Relaxed);
        }
        if BTREE_CASES_RUN.fetch_add(1, Ordering::Relaxed) + 1 == BTREE_CASES {
            let split = BTREE_SPLIT_CASES.load(Ordering::Relaxed);
            prop_assert!(split >= BTREE_MIN_SPLIT_CASES, "only {} cases split a node", split);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The LSM tree agrees with a BTreeMap across puts, gets and flushes.
    #[test]
    fn lsm_matches_model(ops in kv_ops()) {
        let mut store = BlockStore::with_capacity(1 << 20);
        let mut lsm = LsmTree::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut t = Ns::ZERO;
        for op in ops {
            match op {
                KvOp::Put(k, v) => {
                    t = lsm.put(&mut store, k, v, t).unwrap();
                    model.insert(k, v);
                }
                KvOp::Get(k) => {
                    let (got, done) = lsm.get(&mut store, k, t).unwrap();
                    t = done;
                    prop_assert_eq!(got, model.get(&k).copied());
                }
                KvOp::Flush => {
                    t = lsm.flush(&mut store, t).unwrap();
                }
            }
        }
        for k in 0..500u64 {
            let (got, done) = lsm.get(&mut store, k, t).unwrap();
            t = done;
            prop_assert_eq!(got, model.get(&k).copied(), "key {}", k);
        }
    }

    /// Corfu: appended data reads back identically at the assigned
    /// positions; positions are dense and ordered.
    #[test]
    fn corfu_append_read_consistency(
        entries in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..256), 1..60),
        units in 1usize..6,
    ) {
        let mut log = CorfuLog::new(units, 1 << 14);
        let mut t = Ns::ZERO;
        let mut positions = Vec::new();
        for e in &entries {
            let (pos, done) = log.append(e, t).unwrap();
            t = done;
            positions.push(pos);
        }
        // Dense, in order.
        prop_assert_eq!(&positions, &(0..entries.len() as u64).collect::<Vec<_>>());
        for (e, pos) in entries.iter().zip(&positions) {
            let (entry, done) = log.read(*pos, t).unwrap();
            t = done;
            prop_assert_eq!(entry, LogEntry::Data(bytes::Bytes::copy_from_slice(e)));
        }
        // Reconfiguration preserves the tail.
        log.reconfigure();
        prop_assert_eq!(log.tail(), entries.len() as u64);
    }

    /// Columnar round trip: scan with projection returns exactly the
    /// source columns; predicate scans match a filtered model.
    #[test]
    fn columnar_scan_matches_model(
        rows in proptest::collection::vec((0u64..10_000, 0u64..100), 1..500),
        per_group in 1usize..128,
        lo in 0u64..10_000,
        width in 0u64..5_000,
    ) {
        let ids: Vec<u64> = rows.iter().map(|r| r.0).collect();
        let tags: Vec<u64> = rows.iter().map(|r| r.1).collect();
        let batch = ColumnBatch::new(
            vec!["id".into(), "tag".into()],
            vec![ids.clone(), tags.clone()],
        ).unwrap();
        let mut store = BlockStore::with_capacity(1 << 18);
        let (meta, t) = write_file(&mut store, &batch, per_group, Ns::ZERO).unwrap();
        // Projection round trip.
        let (full, _, t) = scan(&mut store, &meta, &["tag", "id"], None, t).unwrap();
        prop_assert_eq!(full.column("id").unwrap(), ids.as_slice());
        prop_assert_eq!(full.column("tag").unwrap(), tags.as_slice());
        // Predicate scan vs model.
        let hi = lo.saturating_add(width);
        let pred = Predicate::between("id", lo, hi);
        let (selected, _, _) = scan(&mut store, &meta, &["tag"], Some(&pred), t).unwrap();
        let expect: Vec<u64> = rows
            .iter()
            .filter(|(id, _)| *id >= lo && *id <= hi)
            .map(|(_, tag)| *tag)
            .collect();
        prop_assert_eq!(selected.column("tag").unwrap(), expect.as_slice());
    }
}
