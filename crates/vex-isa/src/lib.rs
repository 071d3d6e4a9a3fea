//! # vex-isa — a VEX-like clustered VLIW instruction set model
//!
//! This crate defines the architectural vocabulary shared by the compiler
//! (`vex-compiler`), the simulator (`vex-sim`) and the workloads: operations,
//! bundles, VLIW instructions, programs, and the machine resource model.
//!
//! The ISA follows the paper's base architecture (Gupta et al., IPDPS-W 2010,
//! Section IV), which is the HP VEX architecture modelled on the HP/ST ST200
//! VLIW family:
//!
//! * 32-bit clustered integer VLIW; each cluster has a private general
//!   purpose register file (64 × 32-bit, `$r0.N` hardwired to zero) and a
//!   private branch register file (8 × 1-bit).
//! * Functional units within a cluster only access local registers; data
//!   moves between clusters via explicit [`Opcode::Send`]/[`Opcode::Recv`]
//!   operation pairs over a fully connected inter-cluster network.
//! * *Operations* are RISC-style units of execution; the operations scheduled
//!   on one cluster in a cycle form a [`Bundle`]; the set of bundles forms the
//!   VLIW [`Instruction`] (the Lx terminology used by the paper, §III fn. 1).
//! * Non-unit assumed latencies (NUAL), less-than-or-equal semantics:
//!   memory and multiply operations have an assumed latency of 2 cycles,
//!   everything else 1 cycle. Branches are two-phase: a compare writes a
//!   branch register at least [`Latencies::cmp_to_br`] cycles before the
//!   branch that reads it.
//!
//! Nothing here is specific to multithreading or split-issue; those live in
//! `vex-sim`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod inst;
pub mod machine;
pub mod op;
pub mod program;
pub mod reg;
pub mod validate;

pub use inst::{Bundle, Instruction};
pub use machine::{ClusterResources, Latencies, MachineConfig};
pub use op::{Dest, FuKind, Opcode, Operand, Operation};
pub use program::{DataSegment, Program, CODE_BASE};
pub use reg::{BReg, ClusterId, Reg};
pub use validate::{ValidateCause, ValidateError};
