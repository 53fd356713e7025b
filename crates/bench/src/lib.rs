//! # hyperion-bench — the experiment harness
//!
//! Regenerates every table and figure of the reproduction (see DESIGN.md
//! §4 for the index). The [`experiments`] modules produce [`table::Table`]
//! values; the `report` binary prints them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breakdown;
pub mod experiments;
pub mod observe;
pub mod slo;
pub mod table;

pub use table::Table;
