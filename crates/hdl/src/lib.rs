//! # hyperion-hdl — the eBPF-to-HDL compilation pipeline
//!
//! Paper §2.2: "We are developing a code generation pipeline from
//! eBPF-to-HDL using a set of open-source compilers for parallelism
//! extraction, and then eBPF instructions specific HDL code generation,
//! fusion, and wrapping in hardware." This crate reproduces that pipeline
//! against the fabric model:
//!
//! * [`dataflow`] — dependence extraction and ASAP scheduling with fusion
//!   lanes (the parallelism-extraction step);
//! * [`pipeline`] — the resulting fixed-clock hardware pipeline: depth,
//!   initiation interval, resource footprint, and a functional executor
//!   backed by the eBPF VM.
//!
//! `compile` accepts only [`VerifiedProgram`] — the type-level enforcement
//! of "verify before hardware" (see `hyperion-ebpf`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataflow;
pub mod pipeline;

pub use dataflow::{classify, schedule, schedule_with_lanes, Schedule, Unit, LANES};
pub use pipeline::HwPipeline;

use hyperion_ebpf::program::VerifiedProgram;
use hyperion_fabric::bitstream::Bitstream;
use hyperion_fabric::clock::ClockDomain;

/// Errors from compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The program has no instructions (cannot happen for verified
    /// programs, kept for API completeness).
    Empty,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Empty => write!(f, "empty program"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Compiles a verified program into a hardware pipeline clocked at
/// `clock`.
pub fn compile(program: &VerifiedProgram, clock: ClockDomain) -> Result<HwPipeline, CompileError> {
    if program.program().is_empty() {
        return Err(CompileError::Empty);
    }
    let sched = schedule(program);
    Ok(HwPipeline::new(program.clone(), sched, clock))
}

/// Wraps a compiled pipeline as a signed partial bitstream ready for the
/// ICAP (deployment path of the `hyperion` core crate).
pub fn to_bitstream(pipeline: &HwPipeline, auth_key: u64) -> Bitstream {
    Bitstream::new(
        pipeline.name().to_string(),
        pipeline.requires(),
        pipeline.clock(),
        auth_key,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperion_ebpf::{assemble, verify};

    #[test]
    fn compile_then_wrap_as_bitstream() {
        let p = assemble("filter", "ldxb r0, [r1+0]\nexit", 16).unwrap();
        let v = verify(&p).unwrap();
        let hw = compile(&v, ClockDomain::new(250)).unwrap();
        let bs = to_bitstream(&hw, 0xC0FFEE);
        assert_eq!(bs.name, "filter");
        assert!(bs.verify(0xC0FFEE));
        assert_eq!(bs.requires, hw.requires());
    }
}
