//! Activation-time evaluation: one `match` over a [`DecodedOp`]'s
//! [`Kind`] computes the operation's values against pre-instruction state
//! and builds its [`OpRecord`].
//!
//! By the paper's §V-B rule no effect of a partly issued instruction is
//! visible before its last part issues, so the engine evaluates each
//! instruction whole at activation and issue is a pure timing event: how
//! a value is computed here never changes what issues when. ALU semantics
//! come from [`vex_isa::Opcode::eval`], the single source shared with the
//! oracle and the analyzer.

use crate::decode::{DecodedOp, Kind, BREG_NONE};
use crate::packet::MAX_CLUSTERS;
use crate::thread::{BregFile, GprFile, OpRecord, CTRL_HALT, CTRL_NONE, F_BREG_VAL, F_GPR};
use vex_mem::Memory;

/// Everything an evaluation may read: the (stable, pre-instruction)
/// architectural state plus the send-value capture buffer. All borrows are
/// shared — evaluation never writes architectural state (§V-B: effects are
/// delay-buffered in [`OpRecord`]s until commit).
pub struct EvalCtx<'a> {
    /// Flat GPR file of the activating context.
    pub(crate) regs: &'a GprFile,
    /// Flat branch-register file.
    pub(crate) bregs: &'a BregFile,
    /// Functional memory (the read-side API takes `&self`).
    pub(crate) mem: &'a Memory,
    /// Send values captured before evaluation, indexed by pair id.
    pub(crate) xfer: &'a [u32; 16],
}

impl EvalCtx<'_> {
    /// Flat GPR read (register-zero slots are never written, so the
    /// architectural zero falls out of the array). The mask makes the
    /// bound obvious to the optimiser; decode validated the index.
    #[inline(always)]
    fn reg(&self, i: u16) -> u32 {
        self.regs[i as usize & (MAX_CLUSTERS * 64 - 1)]
    }

    /// Flat branch-register read; [`BREG_NONE`] reads false.
    #[inline(always)]
    fn breg(&self, i: u8) -> bool {
        i != BREG_NONE && self.bregs[i as usize & (MAX_CLUSTERS * 8 - 1)]
    }
}

/// Evaluates one operation into its record. Loads read memory here, so
/// the value lands in the record and the data-cache probe at `mem_addr`
/// stays a timing event at issue; a load whose destination folded away
/// (register zero) skips the read.
#[inline(always)]
pub(crate) fn eval(op: &DecodedOp, cx: &EvalCtx) -> OpRecord {
    let mut r = OpRecord {
        val: 0,
        mem_addr: 0,
        ctrl: CTRL_NONE,
        statics: op.statics,
        flags: op.rec_flags,
    };
    let cond = |v: bool| if v { F_BREG_VAL } else { 0 };
    let addr = || cx.reg(op.a).wrapping_add(op.imm);
    let load = |r: &mut OpRecord, read: fn(&Memory, u32) -> u32| {
        r.mem_addr = addr();
        if op.rec_flags & F_GPR != 0 {
            r.val = read(cx.mem, r.mem_addr);
        }
    };
    match op.kind {
        Kind::AluRR(o) => r.val = o.eval(cx.reg(op.a), cx.reg(op.b), false),
        Kind::AluRI(o) => r.val = o.eval(cx.reg(op.a), op.imm, false),
        Kind::AluIR(o) => r.val = o.eval(op.imm, cx.reg(op.b), false),
        Kind::CmpRR(o) => r.flags |= cond(o.eval_cond(cx.reg(op.a), cx.reg(op.b))),
        Kind::CmpRI(o) => r.flags |= cond(o.eval_cond(cx.reg(op.a), op.imm)),
        Kind::CmpIR(o) => r.flags |= cond(o.eval_cond(op.imm, cx.reg(op.b))),
        Kind::SlctRR => {
            r.val = if cx.breg(op.cond) {
                cx.reg(op.a)
            } else {
                cx.reg(op.b)
            }
        }
        Kind::SlctRI => {
            r.val = if cx.breg(op.cond) {
                cx.reg(op.a)
            } else {
                op.imm
            }
        }
        Kind::SlctIR => {
            r.val = if cx.breg(op.cond) {
                op.imm
            } else {
                cx.reg(op.b)
            }
        }
        Kind::SlctII => r.val = if cx.breg(op.cond) { op.imm } else { op.imm2 },
        Kind::LdW => load(&mut r, Memory::read_u32),
        Kind::LdH => load(&mut r, |m, a| m.read_u16(a) as i16 as i32 as u32),
        Kind::LdHu => load(&mut r, |m, a| m.read_u16(a) as u32),
        Kind::LdB => load(&mut r, |m, a| m.read_u8(a) as i8 as i32 as u32),
        Kind::LdBu => load(&mut r, |m, a| m.read_u8(a) as u32),
        Kind::StR => {
            r.mem_addr = addr();
            r.val = cx.reg(op.b);
        }
        Kind::StI => {
            r.mem_addr = addr();
            r.val = op.imm2;
        }
        Kind::CondBrT if cx.breg(op.cond) => r.ctrl = op.imm,
        Kind::CondBrF if !cx.breg(op.cond) => r.ctrl = op.imm,
        Kind::Goto => r.ctrl = op.imm,
        Kind::Halt => r.ctrl = CTRL_HALT,
        Kind::Recv if op.rec_flags & F_GPR != 0 => r.val = cx.xfer[op.imm as usize & 15],
        // Fully static (`BregConst` carries its value in the flag byte),
        // effect-free, or a branch not taken.
        Kind::CondBrT
        | Kind::CondBrF
        | Kind::Recv
        | Kind::BregConst
        | Kind::Send
        | Kind::Effectless => {}
    }
    r
}
