//! Programs and the Hyperion eBPF ABI.
//!
//! The paper (§2.2) takes "a broader position regarding eBPF where the
//! Linux kernel implementation is one of many possible implementations of
//! an eBPF execution environment". This module defines Hyperion's
//! environment contract — the ABI every execution engine (interpreter VM,
//! HDL pipeline) and the verifier agree on:
//!
//! * On entry `r1` holds a pointer to the context buffer (e.g. packet
//!   data) and `r2` holds its length in bytes. `r10` is the read-only
//!   frame pointer; 512 bytes of stack live below it.
//! * Every program declares `ctx_min_len`: the verifier admits direct
//!   context accesses only inside `[0, ctx_min_len)`, and every engine
//!   rejects inputs shorter than that before running the program. This
//!   replaces the kernel verifier's dynamic `data_end` dance with a
//!   static contract, preserving the safety property with far less
//!   machinery.
//! * The return value is `r0`.

use crate::insn::Insn;

/// An unverified eBPF program plus its ABI declaration.
#[derive(Debug, Clone)]
pub struct Program {
    /// Instruction slots (lddw occupies two).
    pub insns: Vec<Insn>,
    /// Minimum context length the program may assume (bytes).
    pub ctx_min_len: u64,
    /// Human-readable name for reports.
    pub name: String,
}

impl Program {
    /// Creates a program.
    pub fn new(name: impl Into<String>, insns: Vec<Insn>, ctx_min_len: u64) -> Program {
        Program {
            insns,
            ctx_min_len,
            name: name.into(),
        }
    }

    /// Number of instruction slots.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// True if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// Serializes to the standard eBPF byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.insns.len() * 8);
        for i in &self.insns {
            out.extend_from_slice(&i.encode());
        }
        out
    }

    /// Parses from the standard eBPF byte format.
    ///
    /// Returns `None` if the length is not a multiple of 8.
    pub fn from_bytes(name: impl Into<String>, bytes: &[u8], ctx_min_len: u64) -> Option<Program> {
        if !bytes.len().is_multiple_of(8) {
            return None;
        }
        let insns = bytes
            .chunks_exact(8)
            .map(|c| Insn::decode(c.try_into().expect("chunk is 8 bytes")))
            .collect();
        Some(Program::new(name, insns, ctx_min_len))
    }
}

/// A program that passed verification.
///
/// This wrapper is the type-level enforcement of the paper's safety story:
/// the HDL compiler and the deployment path in the core crate accept only
/// `VerifiedProgram`, so unverified code cannot reach the fabric.
#[derive(Debug, Clone)]
pub struct VerifiedProgram {
    program: Program,
    /// Upper bound on executed instructions for any input (from the DAG
    /// longest path), used by engines as a hard budget.
    pub max_insns: u64,
    /// The verifier's work on this program: abstract-interpretation
    /// transfers (one per reachable instruction) plus state joins (one
    /// per edge into an instruction that already had a state). A
    /// deterministic measure of its cost.
    pub work: u64,
}

impl VerifiedProgram {
    pub(crate) fn new(program: Program, max_insns: u64, work: u64) -> VerifiedProgram {
        VerifiedProgram {
            program,
            max_insns,
            work,
        }
    }

    /// The underlying program.
    pub fn program(&self) -> &Program {
        &self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{exit, mov64_imm};

    #[test]
    fn byte_round_trip() {
        let p = Program::new("p", vec![mov64_imm(0, 42), exit()], 0);
        let bytes = p.to_bytes();
        assert_eq!(bytes.len(), 16);
        let q = Program::from_bytes("q", &bytes, 0).unwrap();
        assert_eq!(q.insns, p.insns);
    }

    #[test]
    fn from_bytes_rejects_ragged_input() {
        assert!(Program::from_bytes("x", &[1, 2, 3], 0).is_none());
    }
}
