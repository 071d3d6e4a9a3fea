//! Pre-decoded programs: the static half of [`crate::thread::OpRecord`],
//! computed once per [`Program`] instead of on every activation.
//!
//! [`ThreadCtx::activate`](crate::thread::ThreadCtx::activate) evaluates an
//! entire instruction functionally each time it is fetched. Before this
//! module existed, that meant re-matching every opcode, re-classifying
//! operands and destinations, and re-scanning bundles for send/recv pairs —
//! per activation, per context, every few cycles. None of that depends on
//! architectural state, so it is hoisted here: [`DecodedProgram`] holds, per
//! instruction, the flattened operation table ([`DecodedOp`]), the bundle
//! mask, the communication flag, the fetch address/length, and the send
//! sources for inter-cluster transfers. Activation is left with pure value
//! evaluation: one `match` over each operation's [`Kind`] in
//! [`crate::exec::eval`].
//!
//! Contexts running the same program share one table via `Arc`: the engine
//! deduplicates by `Arc::ptr_eq` when it builds a workload, so an
//! `n`-thread run of one benchmark decodes it exactly once.

use crate::packet::{pack_demand, MAX_CLUSTERS};
use crate::thread::{F_BREG, F_BREG_VAL, F_GPR, F_MEM, F_PENDING, F_SIZE_SHIFT, F_STORE};
use std::sync::Arc;
use vex_isa::{Dest, FuKind, Opcode, Operand, Program};

/// Pre-resolved source operand: the **flat** GPR-file index
/// (`cluster * 64 + index`, see [`crate::thread::GprFile`]), or [`SRC_IMM`]
/// meaning "read the op's `imm` field". Register zero of any cluster is a
/// valid flat index and architecturally reads zero (its slot is never
/// written), so `Breg`/`None` operands resolve to flat index 0 and read
/// zero without a special case.
pub type SrcRef = u16;

/// [`SrcRef`] sentinel: the operand is the op's immediate.
pub const SRC_IMM: SrcRef = u16::MAX;

/// Flat branch-register sentinel: the condition operand named no branch
/// register; it reads false. Flat indices stop at `MAX_CLUSTERS * 8`, so
/// a byte holds every real one.
pub const BREG_NONE: u8 = u8::MAX;

/// Evaluation kind of a [`DecodedOp`]: the operation's effect class
/// crossed with its operand shape (`RR` register/register, `RI`
/// register/immediate, `IR` immediate/register, `II` two immediates).
/// ALU-class kinds carry the opcode, evaluated by [`Opcode::eval`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// ALU/MUL operation writing a GPR, sources `a`/`b`.
    AluRR(Opcode),
    /// ALU/MUL operation writing a GPR, sources `a`/`imm`.
    AluRI(Opcode),
    /// ALU/MUL operation writing a GPR, sources `imm`/`b`.
    AluIR(Opcode),
    /// Operation writing a branch register ([`Opcode::eval_cond`]),
    /// sources `a`/`b`.
    CmpRR(Opcode),
    /// Branch-register write, sources `a`/`imm`.
    CmpRI(Opcode),
    /// Branch-register write, sources `imm`/`b`.
    CmpIR(Opcode),
    /// `slct` writing a GPR: `a` if branch register `cond` is set, else `b`.
    SlctRR,
    /// `slct`, false arm the immediate `imm`.
    SlctRI,
    /// `slct`, true arm the immediate `imm`.
    SlctIR,
    /// `slct` of two immediates: `imm` if `cond` is set, else `imm2`.
    SlctII,
    /// Word load from `a + imm` (an immediate base folds into `imm`; same
    /// for the widths below and for stores).
    LdW,
    /// Sign-extending halfword load.
    LdH,
    /// Zero-extending halfword load.
    LdHu,
    /// Sign-extending byte load.
    LdB,
    /// Zero-extending byte load.
    LdBu,
    /// Store of register `b` to `a + imm` (size in the record flags).
    StR,
    /// Store of the immediate `imm2` to `a + imm`.
    StI,
    /// Branch to `imm` when branch register `cond` is set.
    CondBrT,
    /// Branch to `imm` when branch register `cond` is clear.
    CondBrF,
    /// Unconditional branch to `imm`.
    Goto,
    /// End of the program run.
    Halt,
    /// Branch-register write folded to a constant at decode (the value is
    /// already in the record flags).
    BregConst,
    /// Inter-cluster send. Its value is captured through
    /// [`DecodedProgram::sends_of`] before evaluation, so the record itself
    /// carries no effect.
    Send,
    /// Inter-cluster receive of transfer pair `imm`.
    Recv,
    /// No architectural effect (result discarded). Still occupies its
    /// functional unit and issue slot.
    Effectless,
}

/// One operation with every static decision already made: opcode
/// classified, operands resolved to flat register indices or immediates,
/// immutable-destination writes dropped, constant operations folded, and
/// the static half of its [`crate::thread::OpRecord`] precomputed. Only
/// values (register reads, memory reads, ALU results) are left for
/// [`crate::exec::eval`] at activation.
///
/// Operand fields are read per [`Kind`]. A field a kind does not read
/// holds flat GPR index 0 (`a`/`b`, the never-written register zero) or
/// [`BREG_NONE`] (`cond`), so a uniform scan of the read set — the
/// direct-apply classifier's — needs no per-kind case.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DecodedOp {
    /// Evaluation kind.
    pub kind: Kind,
    /// Precomputed record flag byte (`F_PENDING` included); evaluation
    /// only adds `F_BREG_VAL`, the one data-dependent bit.
    pub rec_flags: u8,
    /// First source: flat GPR index (load/store base address included).
    pub a: u16,
    /// Second source: flat GPR index (store value included).
    pub b: u16,
    /// Flat branch-register condition (`slct`, conditional branches), or
    /// [`BREG_NONE`].
    pub cond: u8,
    /// The record's packed static half, copied verbatim into
    /// `OpRecord::statics`: flat destination index (low 16 bits; `0` when
    /// the record writes nothing), logical cluster (bits 16..24),
    /// FU-class index (bits 24..32).
    pub statics: u32,
    /// Primary immediate: ALU immediate operand, load/store byte offset,
    /// branch target, `recv` pair id, or `slct` true-arm constant.
    pub imm: u32,
    /// Secondary immediate: store value or `slct` false-arm constant.
    pub imm2: u32,
}

impl DecodedOp {
    /// Logical cluster of the containing bundle.
    #[inline]
    pub fn log_cluster(&self) -> u8 {
        (self.statics >> 16) as u8
    }

    /// Functional-unit class.
    #[inline]
    pub fn fu(&self) -> FuKind {
        FuKind::from_index((self.statics >> 24) as usize)
    }

    /// Flat destination index (`0` when the operation writes nothing).
    #[inline]
    pub fn dst(&self) -> u16 {
        self.statics as u16
    }
}

/// Static issue-resource demand of one bundle: how many slots and
/// functional units of each class the bundle claims on its cluster. A
/// bundle never splits, so this never depends on how much of the
/// instruction already issued — the engine's merge fit checks compare these
/// tables against the packet instead of re-scanning in-flight records.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ClusterDemand {
    /// Logical cluster of the bundle.
    pub log_cluster: u8,
    /// Issue slots demanded (operation count).
    pub slots: u8,
    /// This bundle's operations as a subrange of the instruction's
    /// record/op table (relative to `op_range.0`): records are pushed in
    /// bundle order, so a bundle's records are always contiguous.
    pub rec_range: (u16, u16),
    /// Units demanded per class, indexed by [`FuKind::index`].
    pub fu: [u8; FuKind::COUNT],
    /// The same demand as one packed resource word
    /// ([`crate::packet::Packet`] lane layout): a whole-bundle fit check or
    /// claim is a single 64-bit add against the packet.
    pub packed: u64,
}

/// Per-instruction static metadata.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DecodedInst {
    /// Range of this instruction's operations in [`DecodedProgram::ops`].
    pub op_range: (u32, u32),
    /// Range of this instruction's send sources in
    /// [`DecodedProgram::sends`].
    pub send_range: (u32, u32),
    /// Range of this instruction's per-bundle resource demands in
    /// [`DecodedProgram::demands`].
    pub demand_range: (u32, u32),
    /// Bit `c` set iff logical cluster `c` has a non-empty bundle.
    pub bundle_mask: u16,
    /// Whether any operation is an inter-cluster send/recv (NS policy).
    pub has_comm: bool,
    /// Direct-apply eligibility: the instruction has no memory operation,
    /// no control operation, and no operation reads a register (GPR or
    /// branch) that an *earlier* operation of the same instruction writes.
    /// For such an instruction, evaluating in table order and applying
    /// each result immediately is indistinguishable from the two-phase
    /// evaluate-then-commit protocol, so activation can write the
    /// architectural effects straight through and skip materializing
    /// [`crate::thread::OpRecord`]s — nothing downstream (issue probes,
    /// buffered stores, control resolution) ever reads them. See
    /// [`crate::thread::ThreadCtx::activate`].
    pub direct: bool,
    /// Fetch byte address (instruction-cache modelling).
    pub fetch_addr: u32,
    /// Encoded size in bytes.
    pub fetch_len: u32,
}

/// A fully pre-decoded program, shared between all contexts that run it.
#[derive(Clone, Debug)]
pub struct DecodedProgram {
    /// Flattened operation table, grouped by instruction in bundle order
    /// (the same order `activate` used to walk `Instruction::bundles`).
    pub ops: Vec<DecodedOp>,
    /// Flattened `(pair id, source, immediate)` table for send value
    /// capture, sources pre-resolved like every other operand.
    pub sends: Vec<(u8, SrcRef, u32)>,
    /// Flattened per-bundle resource-demand table, one entry per non-empty
    /// bundle, in cluster order.
    pub demands: Vec<ClusterDemand>,
    /// Per-instruction metadata, indexed by instruction index.
    pub insts: Vec<DecodedInst>,
}

/// Order-aware direct-apply classification (see [`DecodedInst::direct`]).
/// Walks the instruction's operations in table — that is, evaluation —
/// order, tracking the registers written so far. A memory or control
/// operation, or a read of a register some *earlier* operation writes,
/// disqualifies the instruction; write-after-write needs no check because
/// both the record replay and the direct path apply writes in the same
/// order. Every operation's read set is `a`, `b` and `cond` (unread fields
/// hold the never-written register zero or [`BREG_NONE`]). Send sources
/// are not in it: they are captured into the transfer buffer before
/// evaluation starts, so they can never observe an in-instruction write.
fn classify_direct(ops: &[DecodedOp]) -> bool {
    let mut gpr_w = [0u64; MAX_CLUSTERS];
    let mut breg_w = 0u64;
    let gpr_bit = |r: u16| ((r >> 6) as usize % MAX_CLUSTERS, 1u64 << (r & 63));
    for op in ops {
        if op.rec_flags & F_MEM != 0
            || matches!(
                op.kind,
                Kind::CondBrT | Kind::CondBrF | Kind::Goto | Kind::Halt
            )
        {
            return false;
        }
        let read = |r: u16| {
            let (c, bit) = gpr_bit(r);
            gpr_w[c] & bit != 0
        };
        let cond_read = op.cond != BREG_NONE && breg_w >> (op.cond & 63) & 1 != 0;
        if read(op.a) || read(op.b) || cond_read {
            return false;
        }
        if op.rec_flags & F_GPR != 0 {
            let (c, bit) = gpr_bit(op.dst());
            gpr_w[c] |= bit;
        } else if op.rec_flags & F_BREG != 0 {
            breg_w |= 1 << (op.dst() & 63);
        }
    }
    true
}

impl DecodedProgram {
    /// Decodes every instruction of `program`. Called once per distinct
    /// program per engine; everything here is hot-loop work that used to
    /// run on every activation.
    pub fn decode(program: &Program) -> Self {
        let mut ops = Vec::with_capacity(program.total_ops() as usize);
        let mut sends = Vec::new();
        let mut demands = Vec::new();
        let mut insts = Vec::with_capacity(program.len());

        for (idx, inst) in program.instructions.iter().enumerate() {
            let op_start = ops.len() as u32;
            let send_start = sends.len() as u32;
            let demand_start = demands.len() as u32;
            let mut bundle_mask = 0u16;
            let mut has_comm = false;

            for (c, bundle) in inst.bundles.iter().enumerate() {
                if bundle.is_empty() {
                    continue;
                }
                bundle_mask |= 1 << c;
                let rec_lo = (ops.len() as u32 - op_start) as u16;
                let mut demand = ClusterDemand {
                    log_cluster: c as u8,
                    slots: bundle.ops.len() as u8,
                    rec_range: (rec_lo, rec_lo + bundle.ops.len() as u16),
                    fu: [0; FuKind::COUNT],
                    packed: 0,
                };
                for op in &bundle.ops {
                    if op.opcode.is_comm() {
                        has_comm = true;
                    }
                    if op.opcode == Opcode::Send {
                        let (src, imm) = resolve_src(op.a);
                        sends.push((op.imm as u8 & 15, src, imm.unwrap_or(0)));
                    }
                    demand.fu[op.fu_kind().index()] += 1;
                    ops.push(decode_op(op, c as u8, program.len()));
                }
                demand.packed = pack_demand(&demand.fu, demand.slots);
                demands.push(demand);
            }

            insts.push(DecodedInst {
                op_range: (op_start, ops.len() as u32),
                send_range: (send_start, sends.len() as u32),
                demand_range: (demand_start, demands.len() as u32),
                bundle_mask,
                has_comm,
                direct: classify_direct(&ops[op_start as usize..]),
                fetch_addr: program.inst_addr[idx],
                fetch_len: inst.encoded_size(),
            });
        }

        DecodedProgram {
            ops,
            sends,
            demands,
            insts,
        }
    }

    /// Convenience: decode behind an `Arc` for sharing across contexts.
    pub fn decode_arc(program: &Program) -> Arc<Self> {
        Arc::new(Self::decode(program))
    }

    /// Number of instructions (equals `Program::len`).
    #[inline]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program has no instructions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Static metadata of instruction `idx`.
    #[inline]
    pub fn inst(&self, idx: usize) -> &DecodedInst {
        &self.insts[idx]
    }

    /// Operations of an instruction, in activation order.
    #[inline]
    pub fn ops_of(&self, di: &DecodedInst) -> &[DecodedOp] {
        &self.ops[di.op_range.0 as usize..di.op_range.1 as usize]
    }

    /// Send sources of an instruction, for transfer value capture.
    #[inline]
    pub fn sends_of(&self, di: &DecodedInst) -> &[(u8, SrcRef, u32)] {
        &self.sends[di.send_range.0 as usize..di.send_range.1 as usize]
    }

    /// Per-bundle resource demands of an instruction, in cluster order.
    #[inline]
    pub fn demands_of(&self, di: &DecodedInst) -> &[ClusterDemand] {
        self.demands_in(di.demand_range)
    }

    /// Demand-table slice for a raw range (the in-flight state caches its
    /// instruction's range so the issue stage skips the `DecodedInst`
    /// load).
    #[inline]
    pub fn demands_in(&self, range: (u32, u32)) -> &[ClusterDemand] {
        &self.demands[range.0 as usize..range.1 as usize]
    }
}

/// Flat GPR-file index of a register coordinate.
#[inline]
fn gpr_flat(c: u8, i: u8) -> u16 {
    c as u16 * 64 + i as u16
}

/// Resolves a source operand to a [`SrcRef`] plus its immediate, if any.
/// `Breg`/`None` operands read zero, like the legacy evaluator: they
/// resolve to flat index 0 (cluster 0's immutable register zero).
#[inline]
fn resolve_src(o: Operand) -> (SrcRef, Option<u32>) {
    match o {
        Operand::Gpr(r) => (gpr_flat(r.cluster, r.index), None),
        Operand::Imm(i) => (SRC_IMM, Some(i as u32)),
        Operand::Breg(_) | Operand::None => (0, None),
    }
}

/// Decodes one operation of logical cluster `cluster`. Beyond
/// classification, every operand is resolved to a flat register index or
/// an immediate ([`resolve_src`]), writes to the immutable register zero
/// are dropped ([`Kind::Effectless`], or a load/`recv` without `F_GPR` —
/// they were value-discarding no-ops in the legacy evaluator too), and ALU
/// operations over two immediates are folded to their constant result.
///
/// Control targets outside the program (possible only for programs that
/// skipped [`Program::validate`], e.g. negative immediates) are clamped to
/// `program_len`: any out-of-range `pc` behaves identically (the engine's
/// fell-off-the-end path), and the clamp keeps targets clear of the
/// record encoding's `u32` control sentinels.
fn decode_op(op: &vex_isa::Operation, cluster: u8, program_len: usize) -> DecodedOp {
    let mut d = DecodedOp {
        kind: Kind::Effectless,
        rec_flags: F_PENDING,
        a: 0,
        b: 0,
        cond: BREG_NONE,
        statics: ((cluster as u32) << 16) | ((op.fu_kind().index() as u32) << 24),
        imm: 0,
        imm2: 0,
    };
    // Register zero is immutable: the legacy path evaluated the value and
    // discarded it at commit, so dropping the write here is
    // observationally identical.
    let gpr_dst = match op.dst {
        Dest::Gpr(r) if r.index != 0 => Some(gpr_flat(r.cluster, r.index)),
        _ => None,
    };
    let breg_cond = |o: Operand| -> u8 {
        match o {
            // Masked like every branch-register read, so it never
            // collides with the sentinel.
            Operand::Breg(b) => {
                ((b.cluster as usize * 8 + b.index as usize) & (MAX_CLUSTERS * 8 - 1)) as u8
            }
            _ => BREG_NONE,
        }
    };
    let write_gpr = |d: &mut DecodedOp, dst: u16| {
        d.rec_flags |= F_GPR;
        d.statics |= dst as u32;
    };
    // An immediate base folds into the offset; flat index 0 reads zero, so
    // the address stays `a + imm`.
    let address = |d: &mut DecodedOp| {
        let (base, base_imm) = resolve_src(op.a);
        d.a = if base_imm.is_some() { 0 } else { base };
        d.imm = (op.imm as u32).wrapping_add(base_imm.unwrap_or(0));
        d.rec_flags |= F_MEM;
    };

    d.kind = match op.opcode {
        o if o.is_load() => {
            address(&mut d);
            if let Some(dst) = gpr_dst {
                write_gpr(&mut d, dst);
            }
            match o {
                Opcode::Ldw => Kind::LdW,
                Opcode::Ldh => Kind::LdH,
                Opcode::Ldhu => Kind::LdHu,
                Opcode::Ldb => Kind::LdB,
                _ => Kind::LdBu,
            }
        }
        o if o.is_store() => {
            address(&mut d);
            let size_log2: u8 = match o {
                Opcode::Stw => 2,
                Opcode::Sth => 1,
                _ => 0,
            };
            d.rec_flags |= F_STORE | size_log2 << F_SIZE_SHIFT;
            match resolve_src(op.b) {
                (_, Some(v)) => {
                    d.imm2 = v;
                    Kind::StI
                }
                (value, None) => {
                    d.b = value;
                    Kind::StR
                }
            }
        }
        Opcode::Send => Kind::Send,
        Opcode::Recv => {
            d.imm = op.imm as u32 & 15;
            if let Some(dst) = gpr_dst {
                write_gpr(&mut d, dst);
            }
            Kind::Recv
        }
        o @ (Opcode::Br | Opcode::Brf | Opcode::Goto) => {
            d.imm = (op.imm as usize).min(program_len) as u32;
            if o == Opcode::Goto {
                Kind::Goto
            } else {
                d.cond = breg_cond(op.a);
                if o == Opcode::Br {
                    Kind::CondBrT
                } else {
                    Kind::CondBrF
                }
            }
        }
        Opcode::Halt => Kind::Halt,
        o => {
            let (a, a_imm) = resolve_src(op.a);
            let (b, b_imm) = resolve_src(op.b);
            d.imm = a_imm.or(b_imm).unwrap_or(0);
            // Operand shape: which of the two sources is the immediate.
            let shape = |d: &mut DecodedOp, rr: Kind, ri: Kind, ir: Kind| match a_imm {
                None if b_imm.is_none() => {
                    (d.a, d.b) = (a, b);
                    rr
                }
                None => {
                    d.a = a;
                    ri
                }
                Some(_) => {
                    d.b = b;
                    ir
                }
            };
            let folded = a_imm.zip(b_imm);
            match (op.dst, gpr_dst) {
                (Dest::Gpr(_), Some(dst)) => {
                    write_gpr(&mut d, dst);
                    match (o, folded) {
                        // Two immediates cannot fold: the outcome still
                        // depends on the branch register at activation.
                        (Opcode::Slct, Some((_, ib))) => {
                            d.cond = breg_cond(op.c);
                            d.imm2 = ib;
                            Kind::SlctII
                        }
                        (Opcode::Slct, None) => {
                            d.cond = breg_cond(op.c);
                            shape(&mut d, Kind::SlctRR, Kind::SlctRI, Kind::SlctIR)
                        }
                        // Constant under any condition (only `slct` reads
                        // it): fold to a move of the result.
                        (_, Some((ia, ib))) => {
                            d.imm = o.eval(ia, ib, false);
                            Kind::AluIR(Opcode::Mov)
                        }
                        (_, None) => shape(&mut d, Kind::AluRR(o), Kind::AluRI(o), Kind::AluIR(o)),
                    }
                }
                (Dest::Breg(r), _) => {
                    d.rec_flags |= F_BREG;
                    d.statics |= (r.cluster as u16 * 8 + r.index as u16) as u32;
                    match folded {
                        Some((ia, ib)) => {
                            if o.eval_cond(ia, ib) {
                                d.rec_flags |= F_BREG_VAL;
                            }
                            Kind::BregConst
                        }
                        None => shape(&mut d, Kind::CmpRR(o), Kind::CmpRI(o), Kind::CmpIR(o)),
                    }
                }
                _ => Kind::Effectless,
            }
        }
    };
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use vex_isa::{BReg, Instruction, Operation, Reg};

    fn program() -> Program {
        let ld = Operation::load(Opcode::Ldh, Reg::new(1, 3), Reg::new(1, 2), 8);
        let mut send = Operation::new(Opcode::Send);
        send.a = Operand::Gpr(Reg::new(0, 1));
        send.imm = 3;
        let mut recv = Operation::new(Opcode::Recv);
        recv.dst = Dest::Gpr(Reg::new(2, 4));
        recv.imm = 3;
        let mut halt = Instruction::nop(4);
        halt.bundles[0].ops.push(Operation::new(Opcode::Halt));
        Program::new(
            "decode-test",
            vec![
                Instruction::from_ops(4, [(0, send), (1, ld), (2, recv)]),
                Instruction::nop(4),
                halt,
            ],
            vec![],
        )
    }

    /// Decodes `ops` as instruction 0 (bundle `c` holds the ops tagged
    /// `c`) of a program that halts next.
    fn decode_inst<const N: usize>(ops: [(u8, Operation); N]) -> DecodedProgram {
        let mut halt = Instruction::nop(4);
        halt.bundles[0].ops.push(Operation::new(Opcode::Halt));
        let inst = Instruction::from_ops(4, ops);
        DecodedProgram::decode(&Program::new("t", vec![inst, halt], vec![]))
    }

    fn gpr(i: u8) -> Operand {
        Operand::Gpr(Reg::new(0, i))
    }

    fn mov(dst: u8, src: Operand) -> Operation {
        Operation::bin(Opcode::Mov, Reg::new(0, dst), src, Operand::None)
    }

    /// The table entry is hot-loop traffic: 16 ops × 20 bytes span five
    /// cache lines per activation. Growth here is a perf regression.
    #[test]
    fn decoded_op_is_20_bytes() {
        assert_eq!(std::mem::size_of::<DecodedOp>(), 20);
    }

    #[test]
    fn tables_mirror_instruction_structure() {
        let p = program();
        let d = DecodedProgram::decode(&p);
        assert_eq!(d.len(), 3);

        let i0 = d.inst(0);
        assert_eq!(d.ops_of(i0).len(), 3);
        assert_eq!(i0.bundle_mask, 0b0111);
        assert!(i0.has_comm);
        assert_eq!(d.sends_of(i0), &[(3, 1u16, 0u32)]); // flat r0.1, no imm
        assert_eq!(i0.fetch_addr, p.inst_addr[0]);
        assert_eq!(i0.fetch_len, p.instructions[0].encoded_size());

        // Vertical NOP: no ops, no bundles, still one fetch syllable.
        let i1 = d.inst(1);
        assert!(d.ops_of(i1).is_empty());
        assert_eq!(i1.bundle_mask, 0);
        assert_eq!(i1.fetch_len, 4);

        let i2 = d.inst(2);
        assert_eq!(d.ops_of(i2).len(), 1);
        assert_eq!(d.ops_of(i2)[0].kind, Kind::Halt);
        assert_eq!(d.ops_of(i2)[0].fu(), FuKind::Br);
    }

    #[test]
    fn load_and_recv_decode_statically() {
        let p = program();
        let d = DecodedProgram::decode(&p);
        let ops = d.ops_of(d.inst(0));
        assert_eq!(ops[0].kind, Kind::Send);
        assert_eq!(ops[0].fu(), FuKind::Send);
        assert_eq!(ops[1].kind, Kind::LdH);
        assert_eq!(ops[1].a, 64 + 2); // flat r1.2
        assert_eq!(ops[1].imm, 8);
        assert_eq!(ops[1].dst(), 64 + 3); // flat r1.3
        assert_eq!(ops[1].rec_flags, F_PENDING | F_MEM | F_GPR);
        assert_eq!(ops[2].kind, Kind::Recv);
        assert_eq!(ops[2].imm, 3);
        assert_eq!(ops[2].dst(), 2 * 64 + 4); // flat r2.4
        assert_eq!(ops[1].log_cluster(), 1);
        assert_eq!(ops[2].log_cluster(), 2);
    }

    /// Operations land in the kind their effect class and operand shape
    /// name, with two-immediate operations folded at decode.
    #[test]
    fn kind_classification() {
        let kind = |o: Operation| decode_inst([(0, o)]).ops[0].kind;
        let add = |a, b| Operation::bin(Opcode::Add, Reg::new(0, 3), a, b);
        assert_eq!(kind(add(gpr(1), gpr(2))), Kind::AluRR(Opcode::Add));
        assert_eq!(kind(add(gpr(1), Operand::Imm(5))), Kind::AluRI(Opcode::Add));
        assert_eq!(kind(add(Operand::Imm(5), gpr(2))), Kind::AluIR(Opcode::Add));
        let folded = decode_inst([(0, add(Operand::Imm(5), Operand::Imm(7)))]).ops[0];
        assert_eq!((folded.kind, folded.imm), (Kind::AluIR(Opcode::Mov), 12));
        // Register zero as the destination drops the write entirely.
        let mut to_zero = add(gpr(1), gpr(2));
        to_zero.dst = Dest::Gpr(Reg::new(0, 0));
        assert_eq!(kind(to_zero), Kind::Effectless);

        let mut cmp = Operation::bin(Opcode::CmpLt, Reg::new(0, 3), gpr(1), Operand::Imm(4));
        cmp.dst = Dest::Breg(BReg::new(0, 1));
        assert_eq!(kind(cmp.clone()), Kind::CmpRI(Opcode::CmpLt));
        cmp.a = Operand::Imm(3);
        let folded = decode_inst([(0, cmp)]).ops[0];
        assert_eq!(folded.kind, Kind::BregConst);
        assert_ne!(folded.rec_flags & F_BREG_VAL, 0, "3 < 4 folds to true");

        let mut slct = Operation::bin(
            Opcode::Slct,
            Reg::new(0, 3),
            Operand::Imm(1),
            Operand::Imm(2),
        );
        slct.c = Operand::Breg(BReg::new(0, 0));
        assert_eq!(kind(slct), Kind::SlctII);
        let ld = Operation::load(Opcode::Ldhu, Reg::new(0, 3), Reg::new(0, 2), 4);
        assert_eq!(kind(ld), Kind::LdHu);
        let st = Operation::store(Opcode::Sth, Reg::new(0, 2), 4, Operand::Imm(9));
        assert_eq!(kind(st), Kind::StI);
        let mut send = Operation::new(Opcode::Send);
        send.a = gpr(1);
        assert_eq!(kind(send), Kind::Send);
    }

    /// The direct-apply classifier admits exactly the instructions whose
    /// in-order immediate application equals evaluate-then-commit.
    #[test]
    fn direct_apply_classification() {
        let direct = |d: DecodedProgram| d.inst(0).direct;
        // Independent writes, including a write-after-read of r5: direct.
        assert!(direct(decode_inst([
            (0, mov(3, gpr(5))),
            (0, mov(5, gpr(4)))
        ])));
        // A register swap reads r3 after the first move writes it: the
        // immediate write would be visible, so it takes the record path.
        assert!(!direct(decode_inst([
            (0, mov(3, gpr(5))),
            (0, mov(5, gpr(3)))
        ])));
        // Intra-instruction RAW on a GPR, across bundles too.
        let add = Operation::bin(
            Opcode::Add,
            Reg::new(1, 4),
            Operand::Gpr(Reg::new(0, 3)),
            Operand::Imm(1),
        );
        assert!(!direct(decode_inst([
            (0, mov(3, gpr(5))),
            (1, add.clone())
        ])));
        // ...while the same read *before* the write is fine.
        assert!(direct(decode_inst([(0, add), (1, mov(3, gpr(5)))])));

        // A branch-register write read by a later `slct`.
        let mut cmp = Operation::bin(Opcode::CmpEq, Reg::new(0, 0), gpr(1), gpr(2));
        cmp.dst = Dest::Breg(BReg::new(0, 1));
        let mut slct = Operation::bin(Opcode::Slct, Reg::new(0, 3), gpr(1), gpr(2));
        slct.c = Operand::Breg(BReg::new(0, 1));
        assert!(!direct(decode_inst([(0, cmp.clone()), (0, slct.clone())])));
        slct.c = Operand::Breg(BReg::new(0, 2));
        assert!(direct(decode_inst([(0, cmp), (0, slct)])));

        // Any load, store or control operation.
        let ld = Operation::load(Opcode::Ldw, Reg::new(0, 3), Reg::new(0, 2), 0);
        let st = Operation::store(Opcode::Stw, Reg::new(0, 2), 0, gpr(1));
        for op in [
            ld,
            st,
            Operation::new(Opcode::Goto),
            Operation::new(Opcode::Halt),
        ] {
            assert!(
                !direct(decode_inst([(0, mov(6, gpr(7))), (1, op.clone())])),
                "{op}"
            );
        }
        let mut br = Operation::new(Opcode::Br);
        br.a = Operand::Breg(BReg::new(0, 0));
        assert!(!direct(decode_inst([(0, br)])));
    }
}
