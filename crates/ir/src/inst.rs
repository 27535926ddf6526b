//! Instruction set of the loop-level IR.
//!
//! The instruction set is deliberately small: enough to express the
//! integer/float arithmetic, irregular control flow, and pointer-based
//! memory traffic of the paper's workloads, plus the `wait`/`signal`
//! pair that HELIX-RC adds to the ISA (paper §3.1).

use crate::types::{BlockId, Reg, RegionId, SegmentId, Ty, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// An instruction operand: either a register or an immediate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Operand {
    /// Read the named register.
    Reg(Reg),
    /// A constant value.
    Imm(Value),
}

impl Operand {
    /// Convenience constructor for an integer immediate.
    pub fn imm(v: i64) -> Operand {
        Operand::Imm(Value::Int(v))
    }

    /// Convenience constructor for a float immediate.
    pub fn fimm(v: f64) -> Operand {
        Operand::Imm(Value::Float(v))
    }

    /// The register read by this operand, if any.
    pub fn reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Imm(Value::Int(v))
    }
}

impl From<f64> for Operand {
    fn from(v: f64) -> Self {
        Operand::Imm(Value::Float(v))
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
        }
    }
}

/// Base of an address expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AddrBase {
    /// A statically declared region; the address starts at its base.
    Region(RegionId),
    /// A register holding a pointer (e.g. loaded from memory).
    Reg(Reg),
}

impl fmt::Display for AddrBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddrBase::Region(r) => write!(f, "{r}"),
            AddrBase::Reg(r) => write!(f, "{r}"),
        }
    }
}

/// An `x86`-style address expression: `base + index * scale + offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddrExpr {
    /// Base of the address.
    pub base: AddrBase,
    /// Optional scaled index register.
    pub index: Option<(Reg, i64)>,
    /// Constant byte offset.
    pub offset: i64,
}

impl AddrExpr {
    /// Address `region + offset`.
    pub fn region(region: RegionId, offset: i64) -> AddrExpr {
        AddrExpr {
            base: AddrBase::Region(region),
            index: None,
            offset,
        }
    }

    /// Address `region + index * scale + offset`.
    pub fn region_indexed(region: RegionId, index: Reg, scale: i64, offset: i64) -> AddrExpr {
        AddrExpr {
            base: AddrBase::Region(region),
            index: Some((index, scale)),
            offset,
        }
    }

    /// Address `*ptr + offset` for a pointer held in a register.
    pub fn ptr(ptr: Reg, offset: i64) -> AddrExpr {
        AddrExpr {
            base: AddrBase::Reg(ptr),
            index: None,
            offset,
        }
    }

    /// Address `*ptr + index * scale + offset`.
    pub fn ptr_indexed(ptr: Reg, index: Reg, scale: i64, offset: i64) -> AddrExpr {
        AddrExpr {
            base: AddrBase::Reg(ptr),
            index: Some((index, scale)),
            offset,
        }
    }

    /// Registers read when evaluating this address.
    pub fn reg_uses(&self) -> impl Iterator<Item = Reg> + '_ {
        let base = match self.base {
            AddrBase::Reg(r) => Some(r),
            AddrBase::Region(_) => None,
        };
        base.into_iter().chain(self.index.map(|(r, _)| r))
    }
}

impl fmt::Display for AddrExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}", self.base)?;
        if let Some((r, s)) = self.index {
            write!(f, " + {r}*{s}")?;
        }
        if self.offset != 0 {
            write!(f, " + {}", self.offset)?;
        }
        write!(f, "]")
    }
}

/// Binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// Integer add.
    Add,
    /// Integer subtract.
    Sub,
    /// Integer multiply.
    Mul,
    /// Integer divide (division by zero yields zero, like a trap handler
    /// returning a default).
    Div,
    /// Integer remainder (by zero yields zero).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left (masked to 63 bits).
    Shl,
    /// Arithmetic shift right (masked to 63 bits).
    Shr,
    /// Integer equality; yields 0 or 1.
    CmpEq,
    /// Integer inequality.
    CmpNe,
    /// Signed less-than.
    CmpLt,
    /// Signed less-or-equal.
    CmpLe,
    /// Signed greater-than.
    CmpGt,
    /// Signed greater-or-equal.
    CmpGe,
    /// Signed minimum.
    MinI,
    /// Signed maximum.
    MaxI,
    /// Float add.
    FAdd,
    /// Float subtract.
    FSub,
    /// Float multiply.
    FMul,
    /// Float divide.
    FDiv,
    /// Float less-than; yields integer 0 or 1.
    FCmpLt,
    /// Float greater-than; yields integer 0 or 1.
    FCmpGt,
    /// Float minimum.
    FMin,
    /// Float maximum.
    FMax,
}

impl BinOp {
    /// Whether the operation produces/consumes floats.
    pub fn is_float(self) -> bool {
        matches!(
            self,
            BinOp::FAdd
                | BinOp::FSub
                | BinOp::FMul
                | BinOp::FDiv
                | BinOp::FCmpLt
                | BinOp::FCmpGt
                | BinOp::FMin
                | BinOp::FMax
        )
    }

    /// Evaluate the operation on two values. Marked for inlining: the
    /// decoded stepper calls it on every `Bin` micro-op.
    #[inline]
    pub fn eval(self, a: Value, b: Value) -> Value {
        use BinOp::*;
        match self {
            Add => Value::Int(a.as_int().wrapping_add(b.as_int())),
            Sub => Value::Int(a.as_int().wrapping_sub(b.as_int())),
            Mul => Value::Int(a.as_int().wrapping_mul(b.as_int())),
            Div => {
                let d = b.as_int();
                Value::Int(if d == 0 {
                    0
                } else {
                    a.as_int().wrapping_div(d)
                })
            }
            Rem => {
                let d = b.as_int();
                Value::Int(if d == 0 {
                    0
                } else {
                    a.as_int().wrapping_rem(d)
                })
            }
            And => Value::Int(a.as_int() & b.as_int()),
            Or => Value::Int(a.as_int() | b.as_int()),
            Xor => Value::Int(a.as_int() ^ b.as_int()),
            Shl => Value::Int(a.as_int().wrapping_shl((b.as_int() & 63) as u32)),
            Shr => Value::Int(a.as_int().wrapping_shr((b.as_int() & 63) as u32)),
            CmpEq => Value::Int((a.as_int() == b.as_int()) as i64),
            CmpNe => Value::Int((a.as_int() != b.as_int()) as i64),
            CmpLt => Value::Int((a.as_int() < b.as_int()) as i64),
            CmpLe => Value::Int((a.as_int() <= b.as_int()) as i64),
            CmpGt => Value::Int((a.as_int() > b.as_int()) as i64),
            CmpGe => Value::Int((a.as_int() >= b.as_int()) as i64),
            MinI => Value::Int(a.as_int().min(b.as_int())),
            MaxI => Value::Int(a.as_int().max(b.as_int())),
            FAdd => Value::Float(a.as_float() + b.as_float()),
            FSub => Value::Float(a.as_float() - b.as_float()),
            FMul => Value::Float(a.as_float() * b.as_float()),
            FDiv => Value::Float(a.as_float() / b.as_float()),
            FCmpLt => Value::Int((a.as_float() < b.as_float()) as i64),
            FCmpGt => Value::Int((a.as_float() > b.as_float()) as i64),
            FMin => Value::Float(a.as_float().min(b.as_float())),
            FMax => Value::Float(a.as_float().max(b.as_float())),
        }
    }
}

/// Unary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnOp {
    /// Integer negate.
    Neg,
    /// Bitwise not.
    Not,
    /// Float negate.
    FNeg,
    /// Float square root.
    FSqrt,
    /// Float absolute value.
    FAbs,
    /// Convert integer to float.
    IntToF,
    /// Convert float to integer (truncating).
    FToInt,
}

impl UnOp {
    /// Evaluate the operation.
    pub fn eval(self, v: Value) -> Value {
        match self {
            UnOp::Neg => Value::Int(v.as_int().wrapping_neg()),
            UnOp::Not => Value::Int(!v.as_int()),
            UnOp::FNeg => Value::Float(-v.as_float()),
            UnOp::FSqrt => Value::Float(v.as_float().max(0.0).sqrt()),
            UnOp::FAbs => Value::Float(v.as_float().abs()),
            UnOp::IntToF => Value::Float(v.as_int() as f64),
            UnOp::FToInt => Value::Int(v.as_float() as i64),
        }
    }

    /// Whether the result is a float.
    pub fn is_float(self) -> bool {
        matches!(self, UnOp::FNeg | UnOp::FSqrt | UnOp::FAbs | UnOp::IntToF)
    }
}

/// Library-call intrinsics with known semantics.
///
/// These model the "standard library call semantics" the paper's extended
/// alias analysis exploits (§2.2 extension iv): the analysis knows exactly
/// which memory each intrinsic may read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Intrinsic {
    /// `Alloc(size) -> ptr`: allocate a fresh region; never aliases
    /// existing memory.
    Alloc,
    /// `Rand() -> i64`: deterministic pseudo-random stream. Carries hidden
    /// internal state, i.e. an actual loop-carried dependence.
    Rand,
    /// `Memcpy(dst, src, len)`: copies bytes; reads `[src, src+len)`,
    /// writes `[dst, dst+len)`.
    Memcpy,
    /// `Memset(dst, byte, len)`: writes `[dst, dst+len)`.
    Memset,
    /// `PureHash(x) -> i64`: pure function of its argument; touches no
    /// memory (models `abs`, `strlen`-of-constant, math calls, ...).
    PureHash,
    /// `SinApprox(x) -> f64`: pure float function (models libm calls).
    SinApprox,
    /// `Free(ptr)`: releases an allocation (semantically a no-op here).
    Free,
}

impl Intrinsic {
    /// Whether the intrinsic is pure (no memory effects, no hidden state).
    pub fn is_pure(self) -> bool {
        matches!(self, Intrinsic::PureHash | Intrinsic::SinApprox)
    }

    /// Whether the intrinsic carries hidden internal state that orders
    /// calls (an actual dependence between iterations that call it).
    pub fn has_hidden_state(self) -> bool {
        matches!(self, Intrinsic::Rand | Intrinsic::Alloc)
    }

    /// Latency class in cycles used by the timing models.
    pub fn latency(self) -> u32 {
        match self {
            Intrinsic::Alloc => 30,
            Intrinsic::Rand => 8,
            Intrinsic::Memcpy | Intrinsic::Memset => 20,
            Intrinsic::PureHash => 6,
            Intrinsic::SinApprox => 18,
            Intrinsic::Free => 10,
        }
    }
}

impl fmt::Display for Intrinsic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Intrinsic::Alloc => "alloc",
            Intrinsic::Rand => "rand",
            Intrinsic::Memcpy => "memcpy",
            Intrinsic::Memset => "memset",
            Intrinsic::PureHash => "pure_hash",
            Intrinsic::SinApprox => "sin_approx",
            Intrinsic::Free => "free",
        };
        f.write_str(s)
    }
}

/// Traffic class of a shared access, set by the compiler.
///
/// Distinguishes the paper's two communication kinds (Fig. 3/Fig. 8):
/// dependences that were register-allocated in sequential code and were
/// demoted to memory by HCC, versus dependences already mediated by memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TrafficClass {
    /// A shared scalar that lived in a register in the sequential program.
    RegisterCarried,
    /// A memory location shared between iterations in the original program.
    MemoryCarried,
}

/// Compiler-attached tag marking a memory access as shared.
///
/// Accesses bearing a tag must execute within the named sequential segment
/// and are routed to the ring cache (when decoupling is enabled for their
/// traffic class) instead of the private L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharedTag {
    /// The sequential segment that owns this access.
    pub seg: SegmentId,
    /// Which kind of dependence the access mediates.
    pub class: TrafficClass,
}

/// Why an instruction exists, for overhead attribution (paper Fig. 12).
///
/// Instructions in the original sequential program are `Original`;
/// everything the parallelizer adds is labelled so the simulator can
/// attribute its cycles to the right overhead bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum InstOrigin {
    /// Present in the sequential program.
    #[default]
    Original,
    /// Added by parallelization (induction re-computation, shared-variable
    /// addressing, reduction bookkeeping, ...): the paper's "additional
    /// instructions" overhead category.
    Added,
}

/// A single IR instruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Inst {
    /// `dst = value`.
    Const {
        /// Destination register.
        dst: Reg,
        /// Constant value.
        value: Value,
    },
    /// `dst = op src`.
    Un {
        /// Destination register.
        dst: Reg,
        /// Operation.
        op: UnOp,
        /// Operand.
        src: Operand,
    },
    /// `dst = lhs op rhs`.
    Bin {
        /// Destination register.
        dst: Reg,
        /// Operation.
        op: BinOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = load ty, [addr]`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Address expression.
        addr: AddrExpr,
        /// Access type (width).
        ty: Ty,
        /// Shared-access tag, set by the compiler for ring-routed accesses.
        shared: Option<SharedTag>,
        /// Provenance for overhead attribution.
        origin: InstOrigin,
    },
    /// `store ty, src -> [addr]`.
    Store {
        /// Value to store.
        src: Operand,
        /// Address expression.
        addr: AddrExpr,
        /// Access type (width).
        ty: Ty,
        /// Shared-access tag, set by the compiler for ring-routed accesses.
        shared: Option<SharedTag>,
        /// Provenance for overhead attribution.
        origin: InstOrigin,
    },
    /// `dst = intrinsic(args...)`.
    Call {
        /// Destination register (if the intrinsic returns a value).
        dst: Option<Reg>,
        /// The intrinsic to invoke.
        intrinsic: Intrinsic,
        /// Arguments.
        args: Vec<Operand>,
    },
    /// HELIX-RC `wait seg`: block until all predecessor iterations have
    /// signalled this segment. Idempotent within an iteration.
    Wait {
        /// Segment to synchronize on.
        seg: SegmentId,
    },
    /// HELIX-RC `signal seg`: mark this iteration's segment as done and
    /// proactively broadcast. Idempotent within an iteration (a duplicate
    /// signal is squashed by the core's segment counters).
    Signal {
        /// Segment to signal.
        seg: SegmentId,
    },
    /// No operation; used to model added bookkeeping work.
    Nop {
        /// Provenance for overhead attribution.
        origin: InstOrigin,
    },
}

impl Inst {
    /// Destination register written by this instruction, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Inst::Const { dst, .. } | Inst::Un { dst, .. } | Inst::Bin { dst, .. } => Some(*dst),
            Inst::Load { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } => *dst,
            _ => None,
        }
    }

    /// Registers read by this instruction.
    pub fn uses(&self) -> Vec<Reg> {
        let mut out = Vec::new();
        self.for_each_use(|r| out.push(r));
        out
    }

    /// Visit every register this instruction reads, without allocating
    /// (the simulator's issue loops call this once per instruction).
    pub fn for_each_use<F: FnMut(Reg)>(&self, mut f: F) {
        match self {
            Inst::Const { .. } | Inst::Wait { .. } | Inst::Signal { .. } | Inst::Nop { .. } => {}
            Inst::Un { src, .. } => {
                if let Operand::Reg(r) = src {
                    f(*r);
                }
            }
            Inst::Bin { lhs, rhs, .. } => {
                for o in [lhs, rhs] {
                    if let Operand::Reg(r) = o {
                        f(*r);
                    }
                }
            }
            Inst::Load { addr, .. } => addr.reg_uses().for_each(f),
            Inst::Store { src, addr, .. } => {
                if let Operand::Reg(r) = src {
                    f(*r);
                }
                addr.reg_uses().for_each(f);
            }
            Inst::Call { args, .. } => {
                for a in args {
                    if let Operand::Reg(r) = a {
                        f(*r);
                    }
                }
            }
        }
    }

    /// Whether the instruction accesses memory.
    pub fn is_mem(&self) -> bool {
        matches!(self, Inst::Load { .. } | Inst::Store { .. })
            || matches!(
                self,
                Inst::Call {
                    intrinsic: Intrinsic::Memcpy | Intrinsic::Memset,
                    ..
                }
            )
    }

    /// The shared tag of the access, if it is a tagged load/store.
    pub fn shared_tag(&self) -> Option<SharedTag> {
        match self {
            Inst::Load { shared, .. } | Inst::Store { shared, .. } => *shared,
            _ => None,
        }
    }

    /// Whether the instruction was added by the parallelizer.
    pub fn is_added(&self) -> bool {
        match self {
            Inst::Load { origin, .. } | Inst::Store { origin, .. } | Inst::Nop { origin } => {
                *origin == InstOrigin::Added
            }
            _ => false,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Const { dst, value } => write!(f, "{dst} = {value}"),
            Inst::Un { dst, op, src } => write!(f, "{dst} = {op:?} {src}"),
            Inst::Bin { dst, op, lhs, rhs } => write!(f, "{dst} = {op:?} {lhs}, {rhs}"),
            Inst::Load {
                dst,
                addr,
                ty,
                shared,
                ..
            } => {
                write!(f, "{dst} = load.{ty} {addr}")?;
                if let Some(tag) = shared {
                    write!(f, " !shared({})", tag.seg)?;
                }
                Ok(())
            }
            Inst::Store {
                src,
                addr,
                ty,
                shared,
                ..
            } => {
                write!(f, "store.{ty} {src} -> {addr}")?;
                if let Some(tag) = shared {
                    write!(f, " !shared({})", tag.seg)?;
                }
                Ok(())
            }
            Inst::Call {
                dst,
                intrinsic,
                args,
            } => {
                if let Some(d) = dst {
                    write!(f, "{d} = ")?;
                }
                write!(f, "call {intrinsic}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Inst::Wait { seg } => write!(f, "wait {seg}"),
            Inst::Signal { seg } => write!(f, "signal {seg}"),
            Inst::Nop { .. } => write!(f, "nop"),
        }
    }
}

/// Block terminator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way conditional branch on a truthy operand.
    Branch {
        /// Condition operand (non-zero = taken).
        cond: Operand,
        /// Target when the condition is non-zero.
        then_: BlockId,
        /// Target when the condition is zero.
        else_: BlockId,
    },
    /// Leave the graph (end of program, or end of one loop iteration when
    /// executing a loop body in isolation).
    Return,
}

impl Terminator {
    /// Successor blocks of this terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(t) => vec![*t],
            Terminator::Branch { then_, else_, .. } => vec![*then_, *else_],
            Terminator::Return => vec![],
        }
    }

    /// Registers read by the terminator.
    pub fn uses(&self) -> Option<Reg> {
        match self {
            Terminator::Branch {
                cond: Operand::Reg(r),
                ..
            } => Some(*r),
            _ => None,
        }
    }
}

impl fmt::Display for Terminator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Terminator::Jump(t) => write!(f, "jump {t}"),
            Terminator::Branch { cond, then_, else_ } => {
                write!(f, "br {cond} ? {then_} : {else_}")
            }
            Terminator::Return => write!(f, "ret"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_integer_arithmetic() {
        assert_eq!(BinOp::Add.eval(3.into(), 4.into()), Value::Int(7));
        assert_eq!(BinOp::Sub.eval(3.into(), 4.into()), Value::Int(-1));
        assert_eq!(BinOp::Mul.eval(3.into(), 4.into()), Value::Int(12));
        assert_eq!(BinOp::Div.eval(9.into(), 2.into()), Value::Int(4));
        assert_eq!(BinOp::Rem.eval(9.into(), 4.into()), Value::Int(1));
    }

    #[test]
    fn binop_division_by_zero_is_total() {
        assert_eq!(BinOp::Div.eval(9.into(), 0.into()), Value::Int(0));
        assert_eq!(BinOp::Rem.eval(9.into(), 0.into()), Value::Int(0));
    }

    #[test]
    fn binop_comparisons_yield_bool_ints() {
        assert_eq!(BinOp::CmpLt.eval(1.into(), 2.into()), Value::Int(1));
        assert_eq!(BinOp::CmpGe.eval(1.into(), 2.into()), Value::Int(0));
        assert_eq!(BinOp::CmpEq.eval(5.into(), 5.into()), Value::Int(1));
    }

    #[test]
    fn binop_shift_masks_amount() {
        assert_eq!(BinOp::Shl.eval(1.into(), 64.into()), Value::Int(1));
        assert_eq!(BinOp::Shl.eval(1.into(), 3.into()), Value::Int(8));
    }

    #[test]
    fn binop_float_arithmetic() {
        assert_eq!(
            BinOp::FAdd.eval(Value::Float(1.5), Value::Float(2.0)),
            Value::Float(3.5)
        );
        assert_eq!(
            BinOp::FMax.eval(Value::Float(1.5), Value::Float(2.0)),
            Value::Float(2.0)
        );
        assert!(BinOp::FAdd.is_float());
        assert!(!BinOp::Add.is_float());
    }

    #[test]
    fn unop_eval() {
        assert_eq!(UnOp::Neg.eval(5.into()), Value::Int(-5));
        assert_eq!(UnOp::FSqrt.eval(Value::Float(9.0)), Value::Float(3.0));
        assert_eq!(UnOp::FSqrt.eval(Value::Float(-1.0)), Value::Float(0.0));
        assert_eq!(UnOp::IntToF.eval(2.into()), Value::Float(2.0));
        assert_eq!(UnOp::FToInt.eval(Value::Float(2.9)), Value::Int(2));
    }

    #[test]
    fn inst_def_use() {
        let inst = Inst::Bin {
            dst: Reg(0),
            op: BinOp::Add,
            lhs: Operand::Reg(Reg(1)),
            rhs: Operand::imm(3),
        };
        assert_eq!(inst.def(), Some(Reg(0)));
        assert_eq!(inst.uses(), vec![Reg(1)]);
    }

    #[test]
    fn load_uses_address_registers() {
        let inst = Inst::Load {
            dst: Reg(0),
            addr: AddrExpr::ptr_indexed(Reg(1), Reg(2), 8, 16),
            ty: Ty::I64,
            shared: None,
            origin: InstOrigin::Original,
        };
        assert_eq!(inst.uses(), vec![Reg(1), Reg(2)]);
        assert!(inst.is_mem());
        assert!(inst.shared_tag().is_none());
    }

    #[test]
    fn store_uses_value_and_address() {
        let inst = Inst::Store {
            src: Operand::Reg(Reg(3)),
            addr: AddrExpr::region_indexed(RegionId(0), Reg(4), 4, 0),
            ty: Ty::I32,
            shared: Some(SharedTag {
                seg: SegmentId(1),
                class: TrafficClass::MemoryCarried,
            }),
            origin: InstOrigin::Original,
        };
        assert_eq!(inst.uses(), vec![Reg(3), Reg(4)]);
        assert_eq!(inst.shared_tag().map(|t| t.seg), Some(SegmentId(1)));
    }

    #[test]
    fn terminator_successors() {
        assert_eq!(Terminator::Jump(BlockId(3)).successors(), vec![BlockId(3)]);
        assert_eq!(Terminator::Return.successors(), vec![]);
        let br = Terminator::Branch {
            cond: Operand::Reg(Reg(0)),
            then_: BlockId(1),
            else_: BlockId(2),
        };
        assert_eq!(br.successors(), vec![BlockId(1), BlockId(2)]);
        assert_eq!(br.uses(), Some(Reg(0)));
    }

    #[test]
    fn intrinsic_properties() {
        assert!(Intrinsic::PureHash.is_pure());
        assert!(!Intrinsic::Memcpy.is_pure());
        assert!(Intrinsic::Rand.has_hidden_state());
        assert!(Intrinsic::Alloc.has_hidden_state());
        assert!(!Intrinsic::PureHash.has_hidden_state());
        assert!(Intrinsic::Alloc.latency() > 0);
    }

    #[test]
    fn display_forms() {
        let inst = Inst::Load {
            dst: Reg(0),
            addr: AddrExpr::region(RegionId(2), 8),
            ty: Ty::I32,
            shared: None,
            origin: InstOrigin::Original,
        };
        assert_eq!(inst.to_string(), "r0 = load.i32 [@2 + 8]");
        assert_eq!(Inst::Wait { seg: SegmentId(3) }.to_string(), "wait seg3");
    }
}
