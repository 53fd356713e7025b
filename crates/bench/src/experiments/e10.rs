//! E10 — The verifier (paper §2.2): cost scaling with program size and
//! rejection coverage over a malformed-program corpus.
//!
//! The verifier is a genuine artifact, not a simulation, so its cost is
//! counted as the work it does (abstract-interpretation transfers plus
//! state joins) rather than timed: the table is deterministic, and the
//! *shape* (linear in program size, 100% rejection of each malformed
//! class) is the result.

use hyperion_ebpf::insn::{self, op, size, Insn, FP};
use hyperion_ebpf::program::Program;
use hyperion_ebpf::{verify, VerifyError};

use crate::table::Table;

/// Builds a verifiable program of roughly `n` instructions: interleaved
/// ALU chains, guarded context loads, stack spills, and branches.
pub fn synthetic_program(n: usize) -> Program {
    let mut insns: Vec<Insn> = Vec::with_capacity(n + 8);
    for r in 0..6 {
        insns.push(insn::mov64_imm(r, r as i32 + 1));
    }
    while insns.len() + 6 < n {
        let phase = insns.len() % 4;
        match phase {
            0 => {
                insns.push(insn::alu64_imm(op::ADD, 3, 13));
                insns.push(insn::alu64_reg(op::XOR, 4, 3));
            }
            1 => {
                insns.push(insn::ldx(size::W, 5, 1, (insns.len() % 60) as i16));
            }
            2 => {
                insns.push(insn::stx(size::DW, FP, 4, -8));
                insns.push(insn::ldx(size::DW, 4, FP, -8));
            }
            _ => {
                // A short forward branch over one instruction.
                insns.push(insn::jmp_imm(op::JGT, 3, 1_000_000, 1));
                insns.push(insn::alu64_imm(op::ADD, 0, 1));
            }
        }
    }
    insns.push(insn::mov64_imm(0, 0));
    insns.push(insn::exit());
    Program::new(format!("synthetic-{n}"), insns, 64)
}

/// The malformed-program corpus: one mutator per rejection class.
pub fn malformed_corpus() -> Vec<(&'static str, Program)> {
    let base = synthetic_program(64);
    let mut corpus = Vec::new();

    let mut no_exit = base.clone();
    no_exit.insns.pop();
    no_exit.insns.pop();
    no_exit.insns.push(insn::mov64_imm(0, 0));
    corpus.push(("fall-through", no_exit));

    let mut looping = base.clone();
    let idx = looping.insns.len() - 2;
    looping.insns[idx] = insn::ja(-5);
    corpus.push(("back-edge", looping));

    let mut wild_jump = base.clone();
    wild_jump.insns[10] = insn::ja(30_000);
    corpus.push(("jump-out-of-range", wild_jump));

    let mut uninit = base.clone();
    uninit.insns[6] = insn::mov64_reg(0, 9); // r9 never written
    corpus.push(("uninit-register", uninit));

    let mut oob = base.clone();
    oob.insns[7] = insn::ldx(size::DW, 3, 1, 100); // beyond 64-byte window
    corpus.push(("ctx-out-of-bounds", oob));

    let mut stack_oob = base.clone();
    stack_oob.insns[8] = insn::stx(size::DW, FP, 3, -600);
    corpus.push(("stack-out-of-bounds", stack_oob));

    let mut bad_helper = base.clone();
    bad_helper.insns[9] = insn::call(250);
    corpus.push(("unknown-helper", bad_helper));

    let mut fp_write = base.clone();
    fp_write.insns[5] = insn::mov64_imm(FP, 0);
    corpus.push(("fp-write", fp_write));

    let mut illegal = base.clone();
    illegal.insns[11] = Insn {
        op: 0xFF,
        dst: 0,
        src: 0,
        off: 0,
        imm: 0,
    };
    corpus.push(("illegal-opcode", illegal));

    corpus
}

/// Runs E10.
pub fn run() -> Vec<Table> {
    let mut cost = Table::new(
        "E10: verifier cost vs program size (transfers + joins)",
        &["insns", "verifier work", "max-insns bound", "work per insn"],
    );
    for &n in &[8usize, 64, 256, 1_024, 4_096] {
        let p = synthetic_program(n);
        let v = verify(&p).expect("synthetic programs verify");
        cost.row(vec![
            p.len().to_string(),
            v.work.to_string(),
            v.max_insns.to_string(),
            format!("{:.3}", v.work as f64 / p.len() as f64),
        ]);
    }

    let mut rejection = Table::new(
        "E10b: rejection coverage over the malformed corpus",
        &["mutation class", "verdict"],
    );
    for (name, program) in malformed_corpus() {
        let verdict = match verify(&program) {
            Err(e) => format!("rejected ({})", short(&e)),
            Ok(_) => "ACCEPTED (bug!)".to_string(),
        };
        rejection.row(vec![name.to_string(), verdict]);
    }
    vec![cost, rejection]
}

fn short(e: &VerifyError) -> &'static str {
    match e {
        VerifyError::Empty => "empty",
        VerifyError::IllegalOpcode { .. } => "illegal opcode",
        VerifyError::BadRegister { .. } => "bad register",
        VerifyError::SplitLddw { .. } => "split lddw",
        VerifyError::JumpOutOfRange { .. } => "jump out of range",
        VerifyError::BackEdge { .. } => "back edge",
        VerifyError::Unreachable { .. } => "unreachable",
        VerifyError::FallThrough { .. } => "fall through",
        VerifyError::UninitRegister { .. } => "uninit register",
        VerifyError::OutOfBounds { .. } => "out of bounds",
        VerifyError::UninitStack { .. } => "uninit stack",
        VerifyError::BadPointerArithmetic { .. } => "pointer arithmetic",
        VerifyError::PossibleDivByZero { .. } => "div by zero",
        VerifyError::UnknownHelper { .. } => "unknown helper",
        VerifyError::BadHelperArg { .. } => "bad helper arg",
        VerifyError::BadReturn { .. } => "bad return",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_programs_verify_at_every_size() {
        for n in [8usize, 64, 1_024, 4_096] {
            verify(&synthetic_program(n)).expect("verify");
        }
    }

    #[test]
    fn the_entire_malformed_corpus_is_rejected() {
        for (name, program) in malformed_corpus() {
            assert!(
                verify(&program).is_err(),
                "{name} mutation must be rejected"
            );
        }
    }

    #[test]
    fn tables_render() {
        let tables = run();
        assert_eq!(tables.len(), 2);
        // The synthetic programs' branches are decided, so no states
        // meet: one transfer per instruction, no joins.
        assert!(tables[0].rows.iter().all(|r| r[1] == r[0] && r[2] == r[0]));
        assert!(tables[1].rows.iter().all(|r| r[1].starts_with("rejected")));
    }
}
