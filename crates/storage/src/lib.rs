//! # hyperion-storage — storage abstractions for the CPU-free DPU
//!
//! The "familiar set of reusable core storage abstractions" the paper
//! wants Hyperion to export (§2.3, §2.4, §4 Q2), all built over the NVMe
//! substrate so that correctness and timing come from the same calls:
//!
//! * [`blockstore`] — shared block allocation over one namespace;
//! * [`btree`] — an on-device B+ tree (the pointer-chasing workload of
//!   experiment E6);
//! * [`lsm`] — memtable + SSTables + Bloom filters (no deletes or
//!   compaction);
//! * [`corfu`] — the CORFU shared log: sequencer, write-once striped log
//!   units, hole filling, seal/epoch reconfiguration (experiment E9);
//! * [`fs`] — an extent file system plus Spiffy-style layout annotations
//!   and the annotation-driven direct resolver (experiment E5);
//! * [`columnar`] — Parquet-like on-storage / Arrow-like in-memory
//!   formats with projection and predicate pushdown (experiment E5).
//!
//! §2.3 also names near-storage aggregation, §2 zoned namespaces (ZNS),
//! and §2.4 lookup tables and atomic writes with transactional
//! interfaces. They are not modelled here: no experiment measures them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blockstore;
pub mod btree;
pub mod columnar;
pub mod corfu;
pub mod fs;
pub mod lsm;

pub use blockstore::{BlockError, BlockStore, BLOCK};
pub use btree::{BTree, TreeError};
pub use columnar::{
    scan, write_file, ColumnBatch, ColumnarError, Encoding, FileMeta, Predicate, ScanStats,
};
pub use corfu::{CorfuError, CorfuLog, LogEntry, LogUnit, Sequencer};
pub use fs::{annotated_resolve, Extent, FileSystem, FsAnnotation, FsError};
pub use lsm::{LsmError, LsmTree};
