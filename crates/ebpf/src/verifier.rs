//! The Hyperion eBPF verifier.
//!
//! Paper §2.2: "due to the simplified nature of the eBPF instruction set,
//! it is possible to verify and reason about its execution. The Linux
//! kernel already ships with an eBPF verifier (with simplified symbolic
//! execution checks)." This is Hyperion's equivalent: a static analysis
//! that admits a program only if **no execution can fault at runtime** for
//! any context of at least the declared `ctx_min_len` bytes.
//!
//! Checks, in order:
//!
//! 1. **Structure** — known opcodes, register indices in range, intact
//!    `lddw` pairs, jump targets inside the program and not into an `lddw`
//!    tail, known helper ids, no writes to `r10`.
//! 2. **Control flow** — the CFG must be a DAG (back edges rejected, as in
//!    the classic pre-5.3 kernel verifier), every instruction reachable,
//!    and every leaf an `exit`.
//! 3. **Abstract interpretation** — each register carries an abstract
//!    value (uninitialized, a scalar `[umin, umax]` interval, a context
//!    pointer, or a stack pointer); states merge at join points; memory
//!    accesses must provably stay inside the stack or the declared context
//!    window; loads from never-written stack bytes are rejected; helper
//!    calls are checked against typed signatures; division by an interval
//!    containing zero is rejected for `DIV`/`MOD` with register operands;
//!    `exit` requires an initialized scalar in `r0`.
//!
//! Because the CFG is a DAG, the longest path bounds the instruction count
//! of any execution; the bound is recorded in the returned
//! [`VerifiedProgram`] and doubles as the E10 cost metric.

use crate::insn::{atomic, class, mode, op, size, src, Insn, FP, STACK_SIZE};
use crate::program::{Program, VerifiedProgram};
use crate::vm::helper;

/// Why verification rejected a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// Empty program.
    Empty,
    /// Unknown or malformed opcode.
    IllegalOpcode {
        /// Instruction index.
        pc: usize,
        /// Opcode byte.
        op: u8,
    },
    /// Register index out of range (or write to r10).
    BadRegister {
        /// Instruction index.
        pc: usize,
        /// Register number.
        reg: u8,
    },
    /// `lddw` missing its second slot or jump into its middle.
    SplitLddw {
        /// Instruction index.
        pc: usize,
    },
    /// Jump target outside the program.
    JumpOutOfRange {
        /// Instruction index.
        pc: usize,
    },
    /// The CFG has a cycle (loops are rejected).
    BackEdge {
        /// Source of the back edge.
        from: usize,
        /// Target of the back edge.
        to: usize,
    },
    /// Instruction can never execute.
    Unreachable {
        /// Instruction index.
        pc: usize,
    },
    /// Execution can run off the end of the program.
    FallThrough {
        /// Last instruction index on the offending path.
        pc: usize,
    },
    /// Read of an uninitialized register.
    UninitRegister {
        /// Instruction index.
        pc: usize,
        /// Register number.
        reg: u8,
    },
    /// Memory access not provably in bounds.
    OutOfBounds {
        /// Instruction index.
        pc: usize,
        /// Explanation.
        what: &'static str,
    },
    /// Load from stack bytes that were never stored on some path.
    UninitStack {
        /// Instruction index.
        pc: usize,
    },
    /// Arithmetic on pointers that is not pointer+scalar.
    BadPointerArithmetic {
        /// Instruction index.
        pc: usize,
    },
    /// Register-operand division/modulo whose divisor may be zero.
    PossibleDivByZero {
        /// Instruction index.
        pc: usize,
    },
    /// Unknown helper id.
    UnknownHelper {
        /// Instruction index.
        pc: usize,
        /// Helper id.
        id: i32,
    },
    /// Helper argument has the wrong type or insufficient bounds.
    BadHelperArg {
        /// Instruction index.
        pc: usize,
        /// Argument register (1–5).
        arg: u8,
    },
    /// `exit` with `r0` not an initialized scalar.
    BadReturn {
        /// Instruction index.
        pc: usize,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Empty => write!(f, "empty program"),
            VerifyError::IllegalOpcode { pc, op } => write!(f, "illegal opcode {op:#04x} at {pc}"),
            VerifyError::BadRegister { pc, reg } => write!(f, "bad register r{reg} at {pc}"),
            VerifyError::SplitLddw { pc } => write!(f, "split lddw at {pc}"),
            VerifyError::JumpOutOfRange { pc } => write!(f, "jump out of range at {pc}"),
            VerifyError::BackEdge { from, to } => write!(f, "back edge {from} -> {to}"),
            VerifyError::Unreachable { pc } => write!(f, "unreachable instruction at {pc}"),
            VerifyError::FallThrough { pc } => write!(f, "fall through after {pc}"),
            VerifyError::UninitRegister { pc, reg } => {
                write!(f, "read of uninitialized r{reg} at {pc}")
            }
            VerifyError::OutOfBounds { pc, what } => write!(f, "{what} out of bounds at {pc}"),
            VerifyError::UninitStack { pc } => write!(f, "read of uninitialized stack at {pc}"),
            VerifyError::BadPointerArithmetic { pc } => {
                write!(f, "bad pointer arithmetic at {pc}")
            }
            VerifyError::PossibleDivByZero { pc } => write!(f, "possible div by zero at {pc}"),
            VerifyError::UnknownHelper { pc, id } => write!(f, "unknown helper {id} at {pc}"),
            VerifyError::BadHelperArg { pc, arg } => write!(f, "bad helper arg r{arg} at {pc}"),
            VerifyError::BadReturn { pc } => write!(f, "r0 not a scalar at exit {pc}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Abstract value of a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Abs {
    /// Never written on some incoming path.
    Uninit,
    /// A scalar in `[umin, umax]` (unsigned interval).
    Scalar { umin: u64, umax: u64 },
    /// Pointer into the context at offset `[omin, omax]` from its base.
    CtxPtr { omin: u64, omax: u64 },
    /// Pointer relative to the frame pointer; offsets are `fp + o`
    /// with `o` in `[omin, omax]` (non-positive in valid programs).
    StackPtr { omin: i64, omax: i64 },
}

impl Abs {
    fn unknown() -> Abs {
        Abs::Scalar {
            umin: 0,
            umax: u64::MAX,
        }
    }

    fn exact(v: u64) -> Abs {
        Abs::Scalar { umin: v, umax: v }
    }

    /// Join for merge points: intervals union; kind mismatches degrade to
    /// Uninit (which faults only if later *used*).
    fn join(a: Abs, b: Abs) -> Abs {
        match (a, b) {
            (Abs::Uninit, _) | (_, Abs::Uninit) => Abs::Uninit,
            (Abs::Scalar { umin: a0, umax: a1 }, Abs::Scalar { umin: b0, umax: b1 }) => {
                Abs::Scalar {
                    umin: a0.min(b0),
                    umax: a1.max(b1),
                }
            }
            (Abs::CtxPtr { omin: a0, omax: a1 }, Abs::CtxPtr { omin: b0, omax: b1 }) => {
                Abs::CtxPtr {
                    omin: a0.min(b0),
                    omax: a1.max(b1),
                }
            }
            (Abs::StackPtr { omin: a0, omax: a1 }, Abs::StackPtr { omin: b0, omax: b1 }) => {
                Abs::StackPtr {
                    omin: a0.min(b0),
                    omax: a1.max(b1),
                }
            }
            _ => Abs::Uninit,
        }
    }
}

/// Per-path abstract machine state.
#[derive(Debug, Clone, PartialEq, Eq)]
struct State {
    regs: [Abs; 11],
    /// Bytes of stack proven initialized (indexed from the stack base,
    /// i.e. `fp - STACK_SIZE + i`).
    stack_init: [bool; STACK_SIZE as usize],
}

impl State {
    fn entry(ctx_min_len: u64) -> State {
        let mut regs = [Abs::Uninit; 11];
        regs[1] = Abs::CtxPtr { omin: 0, omax: 0 };
        regs[2] = Abs::Scalar {
            umin: ctx_min_len,
            umax: u64::MAX,
        };
        regs[10] = Abs::StackPtr { omin: 0, omax: 0 };
        State {
            regs,
            stack_init: [false; STACK_SIZE as usize],
        }
    }

    fn join_into(&mut self, other: &State) -> bool {
        let mut changed = false;
        for i in 0..11 {
            let joined = Abs::join(self.regs[i], other.regs[i]);
            if joined != self.regs[i] {
                self.regs[i] = joined;
                changed = true;
            }
        }
        for i in 0..STACK_SIZE as usize {
            let joined = self.stack_init[i] && other.stack_init[i];
            if joined != self.stack_init[i] {
                self.stack_init[i] = joined;
                changed = true;
            }
        }
        changed
    }
}

/// Verifies `program`, returning a [`VerifiedProgram`] with the worst-case
/// instruction bound, or the first error found.
pub fn verify(program: &Program) -> Result<VerifiedProgram, VerifyError> {
    let insns = &program.insns;
    if insns.is_empty() {
        return Err(VerifyError::Empty);
    }
    let lddw_tail = structural_check(insns)?;
    let succs = build_cfg(insns, &lddw_tail)?;
    let order = topo_order(insns.len(), &succs, &lddw_tail)?;
    let max_insns = longest_path(insns.len(), &succs, &order, &lddw_tail);
    let work = abstract_interpret(program, &succs, &order, &lddw_tail)?;
    Ok(VerifiedProgram::new(program.clone(), max_insns, work))
}

/// Marks the second slots of lddw pairs and checks opcode/register/helper
/// validity.
fn structural_check(insns: &[Insn]) -> Result<Vec<bool>, VerifyError> {
    let mut tail = vec![false; insns.len()];
    let mut pc = 0;
    while pc < insns.len() {
        let insn = insns[pc];
        if insn.dst as usize > 10 || insn.src as usize > 10 {
            return Err(VerifyError::BadRegister {
                pc,
                reg: insn.dst.max(insn.src),
            });
        }
        match insn.class() {
            class::ALU64 | class::ALU32 => {
                let operation = insn.op & 0xf0;
                let known = matches!(
                    operation,
                    op::ADD
                        | op::SUB
                        | op::MUL
                        | op::DIV
                        | op::MOD
                        | op::OR
                        | op::AND
                        | op::XOR
                        | op::LSH
                        | op::RSH
                        | op::ARSH
                        | op::NEG
                        | op::MOV
                ) || (operation == op::END
                    && insn.class() == class::ALU32
                    && matches!(insn.imm, 16 | 32 | 64));
                if !known {
                    return Err(VerifyError::IllegalOpcode { pc, op: insn.op });
                }
                if insn.dst == FP {
                    return Err(VerifyError::BadRegister { pc, reg: FP });
                }
                pc += 1;
            }
            class::JMP => {
                let cond = insn.op & 0xf0;
                let known = matches!(
                    cond,
                    op::JA
                        | op::JEQ
                        | op::JNE
                        | op::JGT
                        | op::JGE
                        | op::JLT
                        | op::JLE
                        | op::JSGT
                        | op::JSGE
                        | op::JSLT
                        | op::JSLE
                        | op::JSET
                        | op::CALL
                        | op::EXIT
                );
                if !known {
                    return Err(VerifyError::IllegalOpcode { pc, op: insn.op });
                }
                if insn.is_call() && !helper::ALL.contains(&insn.imm) {
                    return Err(VerifyError::UnknownHelper { pc, id: insn.imm });
                }
                pc += 1;
            }
            class::JMP32 => {
                // Conditional forms only; JA/CALL/EXIT are JMP-class.
                let cond = insn.op & 0xf0;
                let known = matches!(
                    cond,
                    op::JEQ
                        | op::JNE
                        | op::JGT
                        | op::JGE
                        | op::JLT
                        | op::JLE
                        | op::JSGT
                        | op::JSGE
                        | op::JSLT
                        | op::JSLE
                        | op::JSET
                );
                if !known {
                    return Err(VerifyError::IllegalOpcode { pc, op: insn.op });
                }
                pc += 1;
            }
            class::LDX | class::ST | class::STX => {
                let m = insn.op & 0xe0;
                let is_atomic = insn.class() == class::STX && m == mode::ATOMIC;
                if is_atomic {
                    // Atomics: W/DW widths and a known operation only.
                    let width_ok = matches!(insn.op & 0x18, size::W | size::DW);
                    let op_ok = matches!(
                        insn.imm & !atomic::FETCH,
                        atomic::ADD | atomic::OR | atomic::AND | atomic::XOR
                    ) || insn.imm == atomic::XCHG
                        || insn.imm == atomic::CMPXCHG;
                    if !width_ok || !op_ok {
                        return Err(VerifyError::IllegalOpcode { pc, op: insn.op });
                    }
                } else if m != mode::MEM {
                    return Err(VerifyError::IllegalOpcode { pc, op: insn.op });
                }
                if insn.class() != class::LDX && insn.dst as usize > 10 {
                    return Err(VerifyError::BadRegister { pc, reg: insn.dst });
                }
                if insn.class() == class::LDX && insn.dst == FP {
                    return Err(VerifyError::BadRegister { pc, reg: FP });
                }
                pc += 1;
            }
            class::LD => {
                if !insn.is_lddw() {
                    return Err(VerifyError::IllegalOpcode { pc, op: insn.op });
                }
                if insn.dst == FP {
                    return Err(VerifyError::BadRegister { pc, reg: FP });
                }
                if pc + 1 >= insns.len() {
                    return Err(VerifyError::SplitLddw { pc });
                }
                tail[pc + 1] = true;
                pc += 2;
            }
            _ => return Err(VerifyError::IllegalOpcode { pc, op: insn.op }),
        }
    }
    Ok(tail)
}

/// Builds the successor lists; validates jump targets.
fn build_cfg(insns: &[Insn], lddw_tail: &[bool]) -> Result<Vec<Vec<usize>>, VerifyError> {
    let n = insns.len();
    let mut succs = vec![Vec::new(); n];
    for pc in 0..n {
        if lddw_tail[pc] {
            continue;
        }
        let insn = insns[pc];
        let step = if insn.is_lddw() { 2 } else { 1 };
        let push = |succ_list: &mut Vec<usize>, target: i64| -> Result<(), VerifyError> {
            if target < 0 || target as usize >= n {
                return Err(VerifyError::JumpOutOfRange { pc });
            }
            if lddw_tail[target as usize] {
                return Err(VerifyError::SplitLddw {
                    pc: target as usize,
                });
            }
            succ_list.push(target as usize);
            Ok(())
        };
        if insn.class() == class::JMP || insn.class() == class::JMP32 {
            if insn.is_exit() {
                continue;
            }
            if insn.is_call() {
                if pc + 1 >= n {
                    return Err(VerifyError::FallThrough { pc });
                }
                push(&mut succs[pc], pc as i64 + 1)?;
                continue;
            }
            let cond = insn.op & 0xf0;
            let target = pc as i64 + 1 + insn.off as i64;
            push(&mut succs[pc], target)?;
            if cond != op::JA || insn.class() == class::JMP32 {
                if pc + 1 >= n {
                    return Err(VerifyError::FallThrough { pc });
                }
                let fall = pc as i64 + 1;
                if fall != target {
                    push(&mut succs[pc], fall)?;
                }
            }
        } else {
            if pc + step > n {
                return Err(VerifyError::FallThrough { pc });
            }
            if pc + step == n {
                return Err(VerifyError::FallThrough { pc });
            }
            push(&mut succs[pc], (pc + step) as i64)?;
        }
    }
    Ok(succs)
}

/// Topological order over reachable instructions; rejects cycles and
/// unreachable code.
fn topo_order(
    n: usize,
    succs: &[Vec<usize>],
    lddw_tail: &[bool],
) -> Result<Vec<usize>, VerifyError> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Gray,
        Black,
    }
    let mut mark = vec![Mark::White; n];
    let mut order = Vec::with_capacity(n);
    // Iterative DFS with explicit stack.
    let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
    mark[0] = Mark::Gray;
    while let Some(top) = stack.last_mut() {
        let node = top.0;
        if top.1 < succs[node].len() {
            let s = succs[node][top.1];
            top.1 += 1;
            match mark[s] {
                Mark::White => {
                    mark[s] = Mark::Gray;
                    stack.push((s, 0));
                }
                Mark::Gray => return Err(VerifyError::BackEdge { from: node, to: s }),
                Mark::Black => {}
            }
        } else {
            mark[node] = Mark::Black;
            order.push(node);
            stack.pop();
        }
    }
    order.reverse();
    // Reachability: every non-tail instruction must be visited.
    for pc in 0..n {
        if !lddw_tail[pc] && mark[pc] == Mark::White {
            return Err(VerifyError::Unreachable { pc });
        }
    }
    Ok(order)
}

/// Longest path through the DAG in executed instructions (lddw counts 2).
fn longest_path(n: usize, succs: &[Vec<usize>], order: &[usize], lddw_tail: &[bool]) -> u64 {
    let mut dist = vec![0u64; n];
    let mut best = 0;
    for &node in order.iter().rev() {
        let cost = if lddw_tail.get(node + 1) == Some(&true) {
            2
        } else {
            1
        };
        let succ_best = succs[node].iter().map(|&s| dist[s]).max().unwrap_or(0);
        dist[node] = cost + succ_best;
        best = best.max(dist[node]);
    }
    best
}

struct Ai<'a> {
    program: &'a Program,
}

/// Runs the abstract interpretation over the topologically ordered DAG;
/// returns its work, the transfers plus the state joins it made.
fn abstract_interpret(
    program: &Program,
    succs: &[Vec<usize>],
    order: &[usize],
    lddw_tail: &[bool],
) -> Result<u64, VerifyError> {
    let ai = Ai { program };
    // In-state per pc. Back edges are rejected, so every predecessor of a
    // pc comes before it in `order` and its state is final when read:
    // take it, and free it as soon as it is consumed.
    let mut in_states: Vec<Option<State>> = vec![None; program.insns.len()];
    in_states[0] = Some(State::entry(program.ctx_min_len));
    let mut work = 0;
    for &pc in order {
        if lddw_tail[pc] {
            continue;
        }
        // Unreachable in a validated topo order.
        let Some(state) = in_states[pc].take() else {
            continue;
        };
        let outs = ai.transfer(pc, state)?;
        work += 1;
        for (succ, out_state) in outs {
            debug_assert!(
                succs[pc].contains(&succ),
                "transfer produced a non-CFG edge"
            );
            match &mut in_states[succ] {
                Some(existing) => {
                    existing.join_into(&out_state);
                    work += 1;
                }
                empty => *empty = Some(out_state),
            }
        }
    }
    Ok(work)
}

impl<'a> Ai<'a> {
    fn read(&self, pc: usize, state: &State, reg: u8) -> Result<Abs, VerifyError> {
        match state.regs[reg as usize] {
            Abs::Uninit => Err(VerifyError::UninitRegister { pc, reg }),
            v => Ok(v),
        }
    }

    /// Computes the out-states for each successor of `pc`.
    fn transfer(&self, pc: usize, mut st: State) -> Result<Vec<(usize, State)>, VerifyError> {
        let insns = &self.program.insns;
        let insn = insns[pc];
        match insn.class() {
            class::ALU64 | class::ALU32 => {
                self.alu(pc, insn, &mut st)?;
                Ok(vec![(pc + 1, st)])
            }
            class::LD => {
                // lddw (validated structurally).
                let hi = insns[pc + 1];
                let value = (insn.imm as u32 as u64) | ((hi.imm as u32 as u64) << 32);
                st.regs[insn.dst as usize] = Abs::exact(value);
                Ok(vec![(pc + 2, st)])
            }
            class::LDX => {
                let width = width_of(insn.op);
                let base = self.read(pc, &st, insn.src)?;
                self.check_mem(pc, &st, base, insn.off, width, false)?;
                st.regs[insn.dst as usize] = Abs::Scalar {
                    umin: 0,
                    umax: max_for_width(width),
                };
                Ok(vec![(pc + 1, st)])
            }
            class::ST | class::STX => {
                let width = width_of(insn.op);
                let is_atomic = insn.class() == class::STX && insn.op & 0xe0 == mode::ATOMIC;
                let base = self.read(pc, &st, insn.dst)?;
                if insn.class() == class::STX {
                    self.read(pc, &st, insn.src)?;
                }
                if is_atomic {
                    // Atomics read-modify-write: the location must already
                    // be readable (initialized for exact stack slots).
                    self.check_mem(pc, &st, base, insn.off, width, false)?;
                    if insn.imm == atomic::CMPXCHG {
                        self.read(pc, &st, 0)?; // compares against r0
                        st.regs[0] = Abs::Scalar {
                            umin: 0,
                            umax: max_for_width(width),
                        };
                    } else if insn.imm & atomic::FETCH != 0 {
                        st.regs[insn.src as usize] = Abs::Scalar {
                            umin: 0,
                            umax: max_for_width(width),
                        };
                    }
                }
                self.check_mem(pc, &st, base, insn.off, width, true)?;
                if let Abs::StackPtr { omin, omax } = base {
                    if omin == omax {
                        // Exact stack slot: mark bytes initialized.
                        let lo = omin + insn.off as i64;
                        for b in 0..width as i64 {
                            let idx = STACK_SIZE as i64 + lo + b;
                            if (0..STACK_SIZE as i64).contains(&idx) {
                                st.stack_init[idx as usize] = true;
                            }
                        }
                    }
                }
                Ok(vec![(pc + 1, st)])
            }
            class::JMP32 => {
                // 32-bit compares: operands must be initialized scalars;
                // no interval refinement (truncation makes it imprecise).
                self.read(pc, &st, insn.dst)?;
                if insn.op & src::X != 0 {
                    self.read(pc, &st, insn.src)?;
                }
                let target = (pc as i64 + 1 + insn.off as i64) as usize;
                if target == pc + 1 {
                    Ok(vec![(target, st)])
                } else {
                    let fall = st.clone();
                    Ok(vec![(target, st), (pc + 1, fall)])
                }
            }
            class::JMP => {
                if insn.is_exit() {
                    match st.regs[0] {
                        Abs::Scalar { .. } => Ok(vec![]),
                        _ => Err(VerifyError::BadReturn { pc }),
                    }
                } else if insn.is_call() {
                    self.check_call(pc, &mut st, insn.imm)?;
                    Ok(vec![(pc + 1, st)])
                } else {
                    let cond = insn.op & 0xf0;
                    let target = (pc as i64 + 1 + insn.off as i64) as usize;
                    if cond == op::JA {
                        return Ok(vec![(target, st)]);
                    }
                    let lhs = self.read(pc, &st, insn.dst)?;
                    let rhs = if insn.op & src::X != 0 {
                        self.read(pc, &st, insn.src)?
                    } else {
                        Abs::exact(insn.imm as i64 as u64)
                    };
                    let mut taken = st.clone();
                    let mut fall = st;
                    refine(cond, insn.dst, lhs, rhs, &mut taken, &mut fall);
                    if target == pc + 1 {
                        let mut joined = taken;
                        joined.join_into(&fall);
                        Ok(vec![(target, joined)])
                    } else {
                        Ok(vec![(target, taken), (pc + 1, fall)])
                    }
                }
            }
            _ => Err(VerifyError::IllegalOpcode { pc, op: insn.op }),
        }
    }

    fn alu(&self, pc: usize, insn: Insn, st: &mut State) -> Result<(), VerifyError> {
        let operation = insn.op & 0xf0;
        let is64 = insn.class() == class::ALU64;
        if operation == op::END {
            // Byteswap of an initialized scalar; result bounded by width.
            match self.read(pc, st, insn.dst)? {
                Abs::Scalar { .. } => {}
                _ => return Err(VerifyError::BadPointerArithmetic { pc }),
            }
            let umax = match insn.imm {
                16 => u16::MAX as u64,
                32 => u32::MAX as u64,
                _ => u64::MAX,
            };
            st.regs[insn.dst as usize] = Abs::Scalar { umin: 0, umax };
            return Ok(());
        }
        let rhs = if insn.op & src::X != 0 {
            self.read(pc, st, insn.src)?
        } else {
            Abs::exact(insn.imm as i64 as u64)
        };
        // MOV doesn't read dst; everything else does.
        let lhs = if matches!(operation, op::MOV) {
            Abs::exact(0)
        } else {
            self.read(pc, st, insn.dst)?
        };
        // 32-bit ALU on pointers would truncate the address; reject.
        if !is64
            && (matches!(lhs, Abs::CtxPtr { .. } | Abs::StackPtr { .. })
                || matches!(rhs, Abs::CtxPtr { .. } | Abs::StackPtr { .. }))
        {
            return Err(VerifyError::BadPointerArithmetic { pc });
        }
        let result = match (operation, lhs, rhs) {
            (op::MOV, _, v) => {
                if is64 {
                    v
                } else {
                    truncate32(v)
                }
            }
            // Pointer +/- scalar keeps pointer-ness.
            (op::ADD, Abs::CtxPtr { omin, omax }, Abs::Scalar { umin, umax }) => Abs::CtxPtr {
                omin: omin.saturating_add(umin),
                omax: omax.saturating_add(umax),
            },
            (op::ADD, Abs::Scalar { umin, umax }, Abs::CtxPtr { omin, omax }) => Abs::CtxPtr {
                omin: omin.saturating_add(umin),
                omax: omax.saturating_add(umax),
            },
            (op::ADD, Abs::StackPtr { omin, omax }, Abs::Scalar { umin, umax }) => {
                if umax > i64::MAX as u64 {
                    // Treat huge unsigned ranges as possibly-negative
                    // wraps; allow only if the interval is exact.
                    if umin == umax {
                        let delta = umin as i64;
                        Abs::StackPtr {
                            omin: omin.wrapping_add(delta),
                            omax: omax.wrapping_add(delta),
                        }
                    } else {
                        return Err(VerifyError::BadPointerArithmetic { pc });
                    }
                } else {
                    Abs::StackPtr {
                        omin: omin.saturating_add(umin as i64),
                        omax: omax.saturating_add(umax as i64),
                    }
                }
            }
            (op::SUB, Abs::CtxPtr { omin, omax }, Abs::Scalar { umin, umax }) => {
                if umax > omin {
                    return Err(VerifyError::BadPointerArithmetic { pc });
                }
                Abs::CtxPtr {
                    omin: omin - umax,
                    omax: omax - umin,
                }
            }
            (op::SUB, Abs::StackPtr { omin, omax }, Abs::Scalar { umin, umax }) => {
                if umax > i64::MAX as u64 {
                    return Err(VerifyError::BadPointerArithmetic { pc });
                }
                Abs::StackPtr {
                    omin: omin.saturating_sub(umax as i64),
                    omax: omax.saturating_sub(umin as i64),
                }
            }
            // Any other op touching a pointer is rejected.
            (_, Abs::CtxPtr { .. }, _)
            | (_, Abs::StackPtr { .. }, _)
            | (_, _, Abs::CtxPtr { .. })
            | (_, _, Abs::StackPtr { .. }) => {
                return Err(VerifyError::BadPointerArithmetic { pc });
            }
            (op::DIV | op::MOD, Abs::Scalar { .. }, Abs::Scalar { umin, umax }) => {
                if insn.op & src::X != 0 && umin == 0 {
                    return Err(VerifyError::PossibleDivByZero { pc });
                }
                if umin == 0 && umax == 0 {
                    return Err(VerifyError::PossibleDivByZero { pc });
                }
                let _ = umax;
                scalar_binop(operation, lhs, rhs, is64)
            }
            (_, Abs::Scalar { .. }, Abs::Scalar { .. }) => scalar_binop(operation, lhs, rhs, is64),
            (_, Abs::Uninit, _) | (_, _, Abs::Uninit) => {
                return Err(VerifyError::UninitRegister { pc, reg: insn.dst });
            }
        };
        st.regs[insn.dst as usize] = result;
        Ok(())
    }

    fn check_mem(
        &self,
        pc: usize,
        st: &State,
        base: Abs,
        off: i16,
        width: u64,
        _is_store: bool,
    ) -> Result<(), VerifyError> {
        match base {
            Abs::CtxPtr { omin, omax } => {
                // Lowest possible address must not precede the buffer.
                if (omin as i64) + (off as i64) < 0 {
                    return Err(VerifyError::OutOfBounds {
                        pc,
                        what: "ctx access",
                    });
                }
                // Highest possible end must fit the declared window.
                let hi = omax as i64 + off as i64;
                if hi < 0 || hi as u64 + width > self.program.ctx_min_len {
                    return Err(VerifyError::OutOfBounds {
                        pc,
                        what: "ctx access",
                    });
                }
                Ok(())
            }
            Abs::StackPtr { omin, omax } => {
                let lo = omin + off as i64;
                let hi = omax + off as i64;
                if lo < -(STACK_SIZE as i64) || hi + width as i64 > 0 {
                    return Err(VerifyError::OutOfBounds {
                        pc,
                        what: "stack access",
                    });
                }
                if !_is_store && omin == omax {
                    // Exact slot: require initialization.
                    for b in 0..width as i64 {
                        let idx = STACK_SIZE as i64 + lo + b;
                        if !(0..STACK_SIZE as i64).contains(&idx) || !st.stack_init[idx as usize] {
                            return Err(VerifyError::UninitStack { pc });
                        }
                    }
                } else if !_is_store {
                    // Imprecise stack reads require the whole window
                    // initialized; reject conservatively.
                    let from = (STACK_SIZE as i64 + lo).max(0) as usize;
                    let to =
                        ((STACK_SIZE as i64 + hi + width as i64).min(STACK_SIZE as i64)) as usize;
                    if !(from..to).all(|i| st.stack_init[i]) {
                        return Err(VerifyError::UninitStack { pc });
                    }
                }
                Ok(())
            }
            Abs::Scalar { .. } => Err(VerifyError::OutOfBounds {
                pc,
                what: "scalar dereference",
            }),
            Abs::Uninit => Err(VerifyError::UninitRegister { pc, reg: 0 }),
        }
    }

    fn check_call(&self, pc: usize, st: &mut State, id: i32) -> Result<(), VerifyError> {
        // Argument signatures per helper.
        match id {
            helper::MAP_LOOKUP | helper::MAP_DELETE | helper::MAP_CONTAINS => {
                self.expect_scalar(pc, st, 1)?;
                self.expect_scalar(pc, st, 2)?;
            }
            helper::MAP_UPDATE => {
                self.expect_scalar(pc, st, 1)?;
                self.expect_scalar(pc, st, 2)?;
                self.expect_scalar(pc, st, 3)?;
            }
            helper::CHECKSUM => {
                // r1: pointer, r2: length such that ptr+len stays in
                // bounds for the worst case.
                let ptr = self
                    .read(pc, st, 1)
                    .map_err(|_| VerifyError::BadHelperArg { pc, arg: 1 })?;
                let len = self
                    .read(pc, st, 2)
                    .map_err(|_| VerifyError::BadHelperArg { pc, arg: 2 })?;
                let len_max = match len {
                    Abs::Scalar { umax, .. } => umax,
                    _ => return Err(VerifyError::BadHelperArg { pc, arg: 2 }),
                };
                match ptr {
                    Abs::CtxPtr { omax, .. } => {
                        if omax.saturating_add(len_max) > self.program.ctx_min_len {
                            return Err(VerifyError::BadHelperArg { pc, arg: 2 });
                        }
                    }
                    Abs::StackPtr { omin, omax } => {
                        if len_max > STACK_SIZE
                            || omin < -(STACK_SIZE as i64)
                            || (omax + len_max as i64) > 0
                        {
                            return Err(VerifyError::BadHelperArg { pc, arg: 2 });
                        }
                    }
                    _ => return Err(VerifyError::BadHelperArg { pc, arg: 1 }),
                }
            }
            helper::NOW => {}
            helper::TRACE => {
                self.expect_scalar(pc, st, 1)?;
            }
            _ => return Err(VerifyError::UnknownHelper { pc, id }),
        }
        // r0 becomes an unknown scalar; r1-r5 are clobbered.
        st.regs[0] = Abs::unknown();
        for r in 1..=5 {
            st.regs[r] = Abs::Uninit;
        }
        Ok(())
    }

    fn expect_scalar(&self, pc: usize, st: &State, arg: u8) -> Result<(), VerifyError> {
        match st.regs[arg as usize] {
            Abs::Scalar { .. } => Ok(()),
            _ => Err(VerifyError::BadHelperArg { pc, arg }),
        }
    }
}

fn truncate32(v: Abs) -> Abs {
    match v {
        Abs::Scalar { umin, umax } => {
            if umax <= u32::MAX as u64 {
                Abs::Scalar { umin, umax }
            } else {
                Abs::Scalar {
                    umin: 0,
                    umax: u32::MAX as u64,
                }
            }
        }
        other => other,
    }
}

fn scalar_binop(operation: u8, lhs: Abs, rhs: Abs, is64: bool) -> Abs {
    let (Abs::Scalar { umin: a0, umax: a1 }, Abs::Scalar { umin: b0, umax: b1 }) = (lhs, rhs)
    else {
        return Abs::unknown();
    };
    let out = match operation {
        op::ADD => {
            if let (Some(lo), Some(hi)) = (a0.checked_add(b0), a1.checked_add(b1)) {
                Abs::Scalar { umin: lo, umax: hi }
            } else {
                Abs::unknown()
            }
        }
        op::SUB => {
            if a0 >= b1 {
                Abs::Scalar {
                    umin: a0 - b1,
                    umax: a1 - b0,
                }
            } else {
                Abs::unknown()
            }
        }
        op::MUL => {
            if let (Some(lo), Some(hi)) = (a0.checked_mul(b0), a1.checked_mul(b1)) {
                Abs::Scalar { umin: lo, umax: hi }
            } else {
                Abs::unknown()
            }
        }
        op::DIV => Abs::Scalar {
            umin: a0.checked_div(b1).unwrap_or(0),
            umax: a1.checked_div(b0).unwrap_or(a1),
        },
        op::MOD => Abs::Scalar {
            umin: 0,
            umax: if b1 == 0 { a1 } else { (b1 - 1).min(a1) },
        },
        op::AND => Abs::Scalar {
            umin: 0,
            umax: a1.min(b1),
        },
        op::OR | op::XOR => {
            let bits = 64 - a1.max(b1).leading_zeros();
            Abs::Scalar {
                umin: 0,
                umax: if bits >= 64 {
                    u64::MAX
                } else {
                    (1u64 << bits) - 1
                },
            }
        }
        op::LSH => {
            if b0 == b1 && b0 < 64 {
                let lo = a0.checked_shl(b0 as u32);
                let hi = a1.checked_shl(b0 as u32);
                match (lo, hi) {
                    (Some(lo), Some(hi)) if a1.leading_zeros() as u64 >= b0 => {
                        Abs::Scalar { umin: lo, umax: hi }
                    }
                    _ => Abs::unknown(),
                }
            } else {
                Abs::unknown()
            }
        }
        op::RSH => {
            if b0 == b1 && b0 < 64 {
                Abs::Scalar {
                    umin: a0 >> b0,
                    umax: a1 >> b0,
                }
            } else {
                Abs::Scalar { umin: 0, umax: a1 }
            }
        }
        op::NEG | op::ARSH => Abs::unknown(),
        _ => Abs::unknown(),
    };
    if is64 {
        out
    } else {
        truncate32(out)
    }
}

/// Refines register intervals along the taken/fall-through edges of a
/// conditional branch against a constant or register.
fn refine(cond: u8, dst: u8, lhs: Abs, rhs: Abs, taken: &mut State, fall: &mut State) {
    let (Abs::Scalar { umin: l0, umax: l1 }, Abs::Scalar { umin: r0, umax: r1 }) = (lhs, rhs)
    else {
        return; // No refinement for pointer comparisons.
    };
    // Only refine against exact constants for precision.
    if r0 != r1 {
        return;
    }
    let k = r0;
    let d = dst as usize;
    let set = |st: &mut State, lo: u64, hi: u64| {
        if lo <= hi {
            st.regs[d] = Abs::Scalar { umin: lo, umax: hi };
        }
    };
    match cond {
        op::JEQ => {
            set(taken, k, k);
            // fall keeps original range.
        }
        op::JNE => {
            set(fall, k, k);
        }
        op::JGT => {
            set(taken, l0.max(k.saturating_add(1)), l1);
            set(fall, l0, l1.min(k));
        }
        op::JGE => {
            set(taken, l0.max(k), l1);
            if k > 0 {
                set(fall, l0, l1.min(k - 1));
            }
        }
        op::JLT => {
            if k > 0 {
                set(taken, l0, l1.min(k - 1));
            }
            set(fall, l0.max(k), l1);
        }
        op::JLE => {
            set(taken, l0, l1.min(k));
            set(fall, l0.max(k.saturating_add(1)), l1);
        }
        _ => {}
    }
}

fn width_of(opbyte: u8) -> u64 {
    match opbyte & 0x18 {
        size::B => 1,
        size::H => 2,
        size::W => 4,
        _ => 8,
    }
}

fn max_for_width(width: u64) -> u64 {
    match width {
        1 => u8::MAX as u64,
        2 => u16::MAX as u64,
        4 => u32::MAX as u64,
        _ => u64::MAX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::*;

    fn ok(insns: Vec<Insn>, ctx_min: u64) -> VerifiedProgram {
        verify(&Program::new("t", insns, ctx_min)).expect("program should verify")
    }

    fn bad(insns: Vec<Insn>, ctx_min: u64) -> VerifyError {
        verify(&Program::new("t", insns, ctx_min)).expect_err("program should be rejected")
    }

    #[test]
    fn trivial_program_verifies() {
        let v = ok(vec![mov64_imm(0, 0), exit()], 0);
        assert_eq!(v.max_insns, 2);
    }

    #[test]
    fn empty_program_rejected() {
        assert_eq!(bad(vec![], 0), VerifyError::Empty);
    }

    #[test]
    fn fall_through_rejected() {
        assert!(matches!(
            bad(vec![mov64_imm(0, 0)], 0),
            VerifyError::FallThrough { .. }
        ));
    }

    #[test]
    fn loops_rejected_as_back_edges() {
        assert!(matches!(
            bad(vec![mov64_imm(0, 0), ja(-2), exit()], 0),
            VerifyError::BackEdge { .. }
        ));
    }

    #[test]
    fn unreachable_code_rejected() {
        let insns = vec![mov64_imm(0, 0), exit(), mov64_imm(0, 1), exit()];
        assert!(matches!(bad(insns, 0), VerifyError::Unreachable { pc: 2 }));
    }

    #[test]
    fn uninitialized_register_read_rejected() {
        assert!(matches!(
            bad(vec![mov64_reg(0, 5), exit()], 0),
            VerifyError::UninitRegister { reg: 5, .. }
        ));
    }

    #[test]
    fn return_value_must_be_scalar() {
        // r0 = ctx pointer at exit.
        assert!(matches!(
            bad(vec![mov64_reg(0, 1), exit()], 0),
            VerifyError::BadReturn { .. }
        ));
    }

    #[test]
    fn ctx_access_inside_declared_window_verifies() {
        let insns = vec![ldx(size::W, 0, 1, 60), exit()];
        ok(insns, 64);
    }

    #[test]
    fn ctx_access_beyond_window_rejected() {
        let insns = vec![ldx(size::W, 0, 1, 61), exit()];
        assert!(matches!(bad(insns, 64), VerifyError::OutOfBounds { .. }));
    }

    #[test]
    fn ctx_access_with_zero_window_rejected() {
        let insns = vec![ldx(size::B, 0, 1, 0), exit()];
        assert!(matches!(bad(insns, 0), VerifyError::OutOfBounds { .. }));
    }

    #[test]
    fn stack_spill_then_fill_verifies() {
        let insns = vec![
            mov64_imm(3, 7),
            stx(size::DW, FP, 3, -8),
            ldx(size::DW, 0, FP, -8),
            exit(),
        ];
        ok(insns, 0);
    }

    #[test]
    fn uninitialized_stack_read_rejected() {
        let insns = vec![ldx(size::DW, 0, FP, -8), exit()];
        assert!(matches!(bad(insns, 0), VerifyError::UninitStack { .. }));
    }

    #[test]
    fn stack_out_of_bounds_rejected() {
        let insns = vec![
            mov64_imm(3, 7),
            stx(size::DW, FP, 3, -520),
            mov64_imm(0, 0),
            exit(),
        ];
        assert!(matches!(bad(insns, 0), VerifyError::OutOfBounds { .. }));
    }

    #[test]
    fn scalar_dereference_rejected() {
        let insns = vec![mov64_imm(3, 0x1000), ldx(size::W, 0, 3, 0), exit()];
        assert!(matches!(
            bad(insns, 0),
            VerifyError::OutOfBounds {
                what: "scalar dereference",
                ..
            }
        ));
    }

    #[test]
    fn pointer_multiplication_rejected() {
        let insns = vec![alu64_imm(op::MUL, 1, 2), mov64_imm(0, 0), exit()];
        assert!(matches!(
            bad(insns, 0),
            VerifyError::BadPointerArithmetic { .. }
        ));
    }

    #[test]
    fn register_div_by_possibly_zero_rejected() {
        // r3 = len (could be anything >= 0 ... umin is ctx_min_len=0).
        let insns = vec![
            mov64_imm(0, 100),
            mov64_reg(3, 2),
            alu64_reg(op::DIV, 0, 3),
            exit(),
        ];
        assert!(matches!(
            bad(insns, 0),
            VerifyError::PossibleDivByZero { .. }
        ));
    }

    #[test]
    fn branch_refinement_admits_guarded_access() {
        // A loaded byte guards a variable-offset context access: on the
        // fall-through edge the verifier must refine r3 to [0, 59] so that
        // the 4-byte load at ctx + r3 stays within the 64-byte window.
        let insns = vec![
            ldx(size::B, 3, 1, 0),      // 0: r3 = ctx[0], in [0,255]
            jmp_imm(op::JGT, 3, 59, 4), // 1: if r3 > 59 -> 6
            mov64_reg(4, 1),            // 2: r4 = ctx
            alu64_reg(op::ADD, 4, 3),   // 3: r4 = ctx + [0,59]
            ldx(size::W, 0, 4, 0),      // 4: load, end <= 63 < 64
            ja(1),                      // 5: -> 7
            mov64_imm(0, 0),            // 6: taken path
            exit(),                     // 7
        ];
        ok(insns, 64);
    }

    #[test]
    fn unguarded_variable_offset_rejected() {
        let insns = vec![
            ldx(size::B, 3, 1, 0),
            mov64_reg(4, 1),
            alu64_reg(op::ADD, 4, 3), // offset up to 255
            ldx(size::W, 0, 4, 0),
            exit(),
        ];
        assert!(matches!(bad(insns, 64), VerifyError::OutOfBounds { .. }));
    }

    #[test]
    fn unknown_helper_rejected() {
        assert!(matches!(
            bad(vec![call(99), exit()], 0),
            VerifyError::UnknownHelper { id: 99, .. }
        ));
    }

    #[test]
    fn helper_pointer_arg_type_checked() {
        // checksum with a scalar pointer arg.
        let insns = vec![
            mov64_imm(1, 5),
            mov64_imm(2, 4),
            call(crate::vm::helper::CHECKSUM),
            exit(),
        ];
        assert!(matches!(
            bad(insns, 64),
            VerifyError::BadHelperArg { arg: 1, .. }
        ));
    }

    #[test]
    fn helper_length_bound_checked() {
        // checksum(ctx, 65) over a 64-byte window.
        let insns = vec![mov64_imm(2, 65), call(crate::vm::helper::CHECKSUM), exit()];
        assert!(matches!(
            bad(insns, 64),
            VerifyError::BadHelperArg { arg: 2, .. }
        ));
        let insns = vec![mov64_imm(2, 64), call(crate::vm::helper::CHECKSUM), exit()];
        ok(insns, 64);
    }

    #[test]
    fn call_clobbers_argument_registers() {
        let insns = vec![
            call(crate::vm::helper::NOW),
            mov64_reg(0, 3), // r3 clobbered by the call
            exit(),
        ];
        assert!(matches!(
            bad(insns, 0),
            VerifyError::UninitRegister { reg: 3, .. }
        ));
    }

    #[test]
    fn lddw_verifies_and_counts_two_slots() {
        let [lo, hi] = lddw(0, u64::MAX);
        let v = ok(vec![lo, hi, exit()], 0);
        assert_eq!(v.max_insns, 3);
        // The tail slot is no transfer of its own.
        assert_eq!(v.work, 2);
    }

    #[test]
    fn jump_into_lddw_tail_rejected() {
        let [lo, hi] = lddw(0, 1);
        let insns = vec![ja(1), lo, hi, exit()];
        // ja(1) from 0 lands at 2 = the lddw tail.
        assert!(matches!(bad(insns, 0), VerifyError::SplitLddw { .. }));
    }

    /// A branch on a context byte (undecided), `then` and `other` as its
    /// two arms, and `read` after they merge. `then` comes first in
    /// program order.
    fn two_arms(then: Insn, other: Insn, read: Insn) -> Vec<Insn> {
        vec![
            ldx(size::B, 3, 1, 0),     // 0: r3 = ctx[0]
            jmp_imm(op::JEQ, 3, 0, 2), // 1: if r3 == 0 -> 4
            then,                      // 2
            ja(1),                     // 3: -> 5
            other,                     // 4
            read,                      // 5: the arms merge here
            exit(),                    // 6
        ]
    }

    #[test]
    fn merge_keeps_only_what_both_arms_initialize() {
        let skip = mov64_imm(5, 0);
        let init_reg = mov64_imm(4, 1);
        let read_reg = mov64_reg(0, 4);
        let init_stack = stx(size::B, FP, 3, -1);
        let read_stack = ldx(size::B, 0, FP, -1);
        // The initializing arm first and second in program order: a join
        // that kept whichever state arrived first would admit one of them.
        for (then, other) in [(init_reg, skip), (skip, init_reg)] {
            assert_eq!(
                bad(two_arms(then, other, read_reg), 64),
                VerifyError::UninitRegister { pc: 5, reg: 4 }
            );
        }
        for (then, other) in [(init_stack, skip), (skip, init_stack)] {
            assert_eq!(
                bad(two_arms(then, other, read_stack), 64),
                VerifyError::UninitStack { pc: 5 }
            );
        }
        // Initialized on both arms, the same reads verify.
        ok(two_arms(init_reg, init_reg, read_reg), 64);
        ok(two_arms(init_stack, init_stack, read_stack), 64);
    }

    #[test]
    fn max_insns_is_longest_path() {
        // Branch with a long and short arm.
        let insns = vec![
            mov64_imm(0, 0),           // 0
            jmp_imm(op::JEQ, 0, 0, 3), // 1 -> 5
            alu64_imm(op::ADD, 0, 1),  // 2
            alu64_imm(op::ADD, 0, 1),  // 3
            ja(0),                     // 4 -> 5
            exit(),                    // 5
        ];
        let v = ok(insns, 0);
        // Longest: 0,1,2,3,4,5 = 6.
        assert_eq!(v.max_insns, 6);
        // Six transfers, and one join where the arms meet at 5.
        assert_eq!(v.work, 7);
    }
}
