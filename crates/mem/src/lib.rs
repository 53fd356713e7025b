//! # hyperion-mem — the single-level memory/storage model
//!
//! Reproduces paper §2.1 ("Memory and Storage Model"):
//!
//! * [`seglevel`] — the segmentation-based, single-level unified store:
//!   128-bit segment ids, one flat translation table mapping objects to
//!   NVMe device extents placed round-robin, and crash recovery from the
//!   table image persisted in the boot NVMe area (the paper's DRAM/HBM
//!   placement, allocation hints and promotion are not modelled);
//! * [`vmpage`] — the page-based virtual-memory baseline (TLB + 4-level
//!   walk + page-walk cache) that experiment E3 compares translation
//!   overheads against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod seglevel;
pub mod vmpage;

pub use seglevel::{SegmentEntry, SegmentId, SingleLevelStore, StoreError, SEG_LOOKUP};
pub use vmpage::{PageWalker, HUGE_PAGE_SIZE, HUGE_TLB_ENTRIES, PAGE_SIZE, TLB_ENTRIES};
