//! Functional semantics of the computational opcodes: the single source of
//! truth for what an ALU or multiplier operation computes. The simulator's
//! evaluator and decode-time constant folding, the in-order oracle and the
//! analyzer's constant propagation all call these.
//!
//! They are deliberately written independently of the compiler's IR
//! interpreter (`vex_compiler::verify::eval_bin`); the test suite
//! cross-checks the two, so a semantics bug in either layer surfaces as a
//! divergence.

use crate::op::Opcode;

impl Opcode {
    /// Evaluates a register-result operation from its source values.
    /// `a`/`b` are the GPR/immediate operands, `c` the branch-register
    /// operand (selects). Compares return 0/1. Must not be called for
    /// memory, control or communication opcodes. Always inlined, so each
    /// caller's arm carries its own opcode jump table.
    #[inline(always)]
    pub fn eval(self, a: u32, b: u32, c: bool) -> u32 {
        use Opcode::*;
        match self {
            Add => a.wrapping_add(b),
            Sub => a.wrapping_sub(b),
            And => a & b,
            Or => a | b,
            Xor => a ^ b,
            Andc => a & !b,
            Shl => a.wrapping_shl(b & 31),
            Shr => a.wrapping_shr(b & 31),
            Sra => (a as i32).wrapping_shr(b & 31) as u32,
            Min => (a as i32).min(b as i32) as u32,
            Max => (a as i32).max(b as i32) as u32,
            Minu => a.min(b),
            Maxu => a.max(b),
            Mov => a,
            Sxtb => a as u8 as i8 as i32 as u32,
            Sxth => a as u16 as i16 as i32 as u32,
            Zxtb => a & 0xff,
            Zxth => a & 0xffff,
            Slct => {
                if c {
                    a
                } else {
                    b
                }
            }
            Mull => a.wrapping_mul(b),
            Mulh => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
            CmpEq => (a == b) as u32,
            CmpNe => (a != b) as u32,
            CmpLt => ((a as i32) < (b as i32)) as u32,
            CmpLe => ((a as i32) <= (b as i32)) as u32,
            CmpGt => ((a as i32) > (b as i32)) as u32,
            CmpGe => ((a as i32) >= (b as i32)) as u32,
            CmpLtu => (a < b) as u32,
            CmpGeu => (a >= b) as u32,
            Ldw | Ldh | Ldhu | Ldb | Ldbu | Stw | Sth | Stb | Br | Brf | Goto | Halt | Send
            | Recv => unreachable!("Opcode::eval called for non-ALU opcode {self:?}"),
        }
    }

    /// Truth value of an operation writing a branch register: its
    /// [`Opcode::eval`] result is non-zero (the select condition reads
    /// false).
    #[inline(always)]
    pub fn eval_cond(self, a: u32, b: u32) -> bool {
        self.eval(a, b, false) != 0
    }
}

#[cfg(test)]
mod tests {
    use crate::Opcode;

    #[test]
    fn matches_compiler_semantics() {
        // Spot checks mirroring vex_compiler::verify::eval_bin tests.
        assert_eq!(Opcode::Sra.eval(0xffff_fff0, 2, false), 0xffff_fffc);
        assert_eq!(Opcode::Shr.eval(0xffff_fff0, 2, false), 0x3fff_fffc);
        assert_eq!(Opcode::Mulh.eval(0x8000_0000, 2, false), 0xffff_ffff);
        assert_eq!(Opcode::Min.eval(0xffff_ffff, 1, false), 0xffff_ffff);
        assert_eq!(Opcode::Minu.eval(0xffff_ffff, 1, false), 1);
        assert_eq!(Opcode::Andc.eval(0b1100, 0b1010, false), 0b0100);
    }

    #[test]
    fn extensions() {
        assert_eq!(Opcode::Sxtb.eval(0x80, 0, false), 0xffff_ff80);
        assert_eq!(Opcode::Zxtb.eval(0x1ff, 0, false), 0xff);
        assert_eq!(Opcode::Sxth.eval(0x8000, 0, false), 0xffff_8000);
        assert_eq!(Opcode::Zxth.eval(0x1_ffff, 0, false), 0xffff);
    }

    #[test]
    fn select_uses_condition() {
        assert_eq!(Opcode::Slct.eval(1, 2, true), 1);
        assert_eq!(Opcode::Slct.eval(1, 2, false), 2);
    }

    #[test]
    fn compares_signed_vs_unsigned() {
        assert!(Opcode::CmpLt.eval_cond(u32::MAX, 0)); // -1 < 0
        assert!(!Opcode::CmpLtu.eval_cond(u32::MAX, 0));
        assert!(Opcode::CmpGeu.eval_cond(u32::MAX, 0));
    }
}
