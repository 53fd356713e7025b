//! The experiment index: one module per table/figure of EXPERIMENTS.md.
//!
//! Each module exposes `run() -> Vec<Table>`; the `report` binary prints
//! them all.

pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod figure2;

use crate::table::Table;

/// Runs every experiment in index order.
pub fn run_all() -> Vec<Table> {
    let mut all = Vec::new();
    all.extend(e1::run());
    all.extend(e2::run());
    all.extend(e3::run());
    all.extend(e4::run());
    all.extend(e5::run());
    all.extend(e6::run());
    all.extend(e7::run());
    all.extend(e8::run());
    all.extend(e9::run());
    all.extend(e10::run());
    all.extend(e11::run());
    all.extend(e12::run());
    all.extend(e13::run());
    all.extend(e14::run());
    all.extend(e15::run());
    all.extend(figure2::run());
    all
}
