//! Executing interpreter.
//!
//! The interpreter is *resumable*: a [`Thread`] holds a program counter
//! and register file and advances one instruction per [`Thread::step`].
//! The cycle-level simulator drives threads instruction by instruction so
//! functional execution and timing stay in lockstep; standalone runs use
//! [`run_to_completion`].

use crate::inst::{AddrBase, AddrExpr, Inst, Intrinsic, Operand, Terminator};
use crate::memory::{MemError, Memory};
use crate::program::Program;
use crate::rng::SplitMix64;
use crate::trace::{InstSite, MemAccess, TraceSink};
use crate::types::{BlockId, Reg, Value};
use std::fmt;

/// Execution environment shared by all threads of a run: memory plus the
/// hidden state of stateful intrinsics.
#[derive(Debug, Clone)]
pub struct Env {
    /// The machine memory.
    pub mem: Memory,
    /// Hidden state of the `Rand` intrinsic.
    pub rng: SplitMix64,
}

impl Env {
    /// Environment with the program's static regions mapped.
    pub fn for_program(program: &Program) -> Env {
        Env {
            mem: Memory::for_program(program),
            rng: SplitMix64::default(),
        }
    }
}

/// Interpreter failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// A memory access failed.
    Mem(MemError),
    /// The step budget was exhausted (probable infinite loop).
    FuelExhausted,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::Mem(e) => write!(f, "memory fault: {e}"),
            InterpError::FuelExhausted => write!(f, "step budget exhausted"),
        }
    }
}

impl std::error::Error for InterpError {}

impl From<MemError> for InterpError {
    fn from(e: MemError) -> Self {
        InterpError::Mem(e)
    }
}

/// Result of a single interpreter step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// An instruction executed at the given site.
    Inst(InstSite),
    /// A terminator executed, transferring control to `to`.
    Flow {
        /// Block whose terminator ran.
        from: BlockId,
        /// Destination block.
        to: BlockId,
    },
    /// The thread executed `Return` and is now finished.
    Done,
}

/// A resumable thread of IR execution: register file + program counter.
#[derive(Debug, Clone)]
pub struct Thread {
    /// Register file (one slot per program register).
    pub regs: Vec<Value>,
    /// Current block.
    pub block: BlockId,
    /// Instruction index within the block (== `insts.len()` means the
    /// terminator is next).
    pub ip: usize,
    /// Set once `Return` executes.
    pub finished: bool,
    /// Dynamic instruction count executed by this thread (terminators
    /// included).
    pub dyn_insts: u64,
}

impl Thread {
    /// A thread positioned at the program entry with a zeroed register
    /// file.
    pub fn at_entry(program: &Program) -> Thread {
        Thread::at_block(program, program.graph.entry)
    }

    /// A thread positioned at `block` with a zeroed register file.
    pub fn at_block(program: &Program, block: BlockId) -> Thread {
        Thread {
            regs: vec![Value::default(); program.n_regs as usize],
            block,
            ip: 0,
            finished: false,
            dyn_insts: 0,
        }
    }

    /// Evaluate an operand against this thread's registers.
    pub fn eval(&self, op: Operand) -> Value {
        match op {
            Operand::Reg(r) => self.regs[r.index()],
            Operand::Imm(v) => v,
        }
    }

    /// Evaluate an address expression.
    pub fn eval_addr(&self, addr: &AddrExpr, mem: &Memory) -> u64 {
        let base = match addr.base {
            AddrBase::Region(r) => mem.base_of(r),
            AddrBase::Reg(r) => self.regs[r.index()].as_addr(),
        };
        let idx = addr
            .index
            .map(|(r, scale)| self.regs[r.index()].as_int().wrapping_mul(scale))
            .unwrap_or(0);
        base.wrapping_add(idx as u64)
            .wrapping_add(addr.offset as u64)
    }

    fn set(&mut self, dst: Reg, v: Value) {
        self.regs[dst.index()] = v;
    }

    /// Execute one instruction or terminator.
    ///
    /// # Errors
    ///
    /// Propagates memory faults from loads, stores, and memory intrinsics.
    pub fn step<S: TraceSink>(
        &mut self,
        program: &Program,
        env: &mut Env,
        sink: &mut S,
    ) -> Result<StepEvent, InterpError> {
        if self.finished {
            return Ok(StepEvent::Done);
        }
        let block = program.graph.block(self.block);
        if self.ip >= block.insts.len() {
            // Execute terminator.
            self.dyn_insts += 1;
            let from = self.block;
            match &block.term {
                Terminator::Jump(t) => {
                    self.block = *t;
                    self.ip = 0;
                    sink.on_flow(from, *t);
                    return Ok(StepEvent::Flow { from, to: *t });
                }
                Terminator::Branch { cond, then_, else_ } => {
                    let to = if self.eval(*cond).as_bool() {
                        *then_
                    } else {
                        *else_
                    };
                    self.block = to;
                    self.ip = 0;
                    sink.on_flow(from, to);
                    return Ok(StepEvent::Flow { from, to });
                }
                Terminator::Return => {
                    self.finished = true;
                    return Ok(StepEvent::Done);
                }
            }
        }

        let site = InstSite {
            block: self.block,
            index: self.ip,
        };
        let inst = &block.insts[self.ip];
        self.ip += 1;
        self.dyn_insts += 1;
        sink.on_exec(site, inst);

        match inst {
            Inst::Const { dst, value } => self.set(*dst, *value),
            Inst::Un { dst, op, src } => {
                let v = op.eval(self.eval(*src));
                self.set(*dst, v);
            }
            Inst::Bin { dst, op, lhs, rhs } => {
                let v = op.eval(self.eval(*lhs), self.eval(*rhs));
                self.set(*dst, v);
            }
            Inst::Load {
                dst,
                addr,
                ty,
                shared,
                ..
            } => {
                let a = self.eval_addr(addr, &env.mem);
                let v = env.mem.load(a, *ty)?;
                sink.on_mem(
                    site,
                    MemAccess {
                        addr: a,
                        len: ty.size() as u32,
                        is_store: false,
                        shared: *shared,
                    },
                );
                self.set(*dst, v);
            }
            Inst::Store {
                src,
                addr,
                ty,
                shared,
                ..
            } => {
                let a = self.eval_addr(addr, &env.mem);
                let v = self.eval(*src);
                env.mem.store(a, *ty, v)?;
                sink.on_mem(
                    site,
                    MemAccess {
                        addr: a,
                        len: ty.size() as u32,
                        is_store: true,
                        shared: *shared,
                    },
                );
            }
            Inst::Call {
                dst,
                intrinsic,
                args,
            } => {
                let result = self.exec_intrinsic(site, *intrinsic, args, env, sink)?;
                if let (Some(d), Some(v)) = (dst, result) {
                    self.set(*d, v);
                }
            }
            // Functionally inert: synchronization semantics live in the
            // simulator. Sequential interpretation preserves program
            // order, which trivially satisfies them.
            Inst::Wait { .. } | Inst::Signal { .. } | Inst::Nop { .. } => {}
        }
        Ok(StepEvent::Inst(site))
    }

    fn exec_intrinsic<S: TraceSink>(
        &mut self,
        site: InstSite,
        intrinsic: Intrinsic,
        args: &[Operand],
        env: &mut Env,
        sink: &mut S,
    ) -> Result<Option<Value>, InterpError> {
        let arg = |i: usize| -> Value { self.eval(args[i]) };
        match intrinsic {
            Intrinsic::Alloc => {
                let size = arg(0).as_int().max(0) as u64;
                let base = env.mem.alloc(size)?;
                Ok(Some(Value::Int(base as i64)))
            }
            Intrinsic::Rand => Ok(Some(Value::Int(env.rng.next_u64() as i64))),
            Intrinsic::Memcpy => {
                let (dst, src, len) = (arg(0).as_addr(), arg(1).as_addr(), arg(2).as_int() as u64);
                env.mem.copy(dst, src, len)?;
                sink.on_mem(
                    site,
                    MemAccess {
                        addr: src,
                        len: len as u32,
                        is_store: false,
                        shared: None,
                    },
                );
                sink.on_mem(
                    site,
                    MemAccess {
                        addr: dst,
                        len: len as u32,
                        is_store: true,
                        shared: None,
                    },
                );
                Ok(None)
            }
            Intrinsic::Memset => {
                let (dst, byte, len) = (arg(0).as_addr(), arg(1).as_int() as u8, arg(2).as_int());
                env.mem.fill(dst, byte, len as u64)?;
                sink.on_mem(
                    site,
                    MemAccess {
                        addr: dst,
                        len: len as u32,
                        is_store: true,
                        shared: None,
                    },
                );
                Ok(None)
            }
            Intrinsic::PureHash => {
                let x = arg(0).as_int() as u64;
                // Deterministic avalanche mix (xorshift-multiply).
                let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z ^= z >> 27;
                Ok(Some(Value::Int(z as i64)))
            }
            Intrinsic::SinApprox => {
                let x = arg(0).as_float();
                Ok(Some(Value::Float(x.sin())))
            }
            Intrinsic::Free => Ok(None),
        }
    }
}

/// Run a fresh thread from the entry block to completion.
///
/// # Errors
///
/// Propagates interpreter faults; fails with
/// [`InterpError::FuelExhausted`] after `10^9` steps.
pub fn run_to_completion(program: &Program, env: &mut Env) -> Result<Thread, InterpError> {
    run_with_sink(program, env, &mut crate::trace::NullSink)
}

/// Run a fresh thread to completion with a trace sink attached.
///
/// # Errors
///
/// Propagates interpreter faults; fails with
/// [`InterpError::FuelExhausted`] after `10^9` steps.
pub fn run_with_sink<S: TraceSink>(
    program: &Program,
    env: &mut Env,
    sink: &mut S,
) -> Result<Thread, InterpError> {
    let mut thread = Thread::at_entry(program);
    let mut fuel: u64 = 1_000_000_000;
    while !thread.finished {
        if fuel == 0 {
            return Err(InterpError::FuelExhausted);
        }
        fuel -= 1;
        thread.step(program, env, sink)?;
    }
    Ok(thread)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::BinOp;
    use crate::types::Ty;

    #[test]
    fn step_events_sequence() {
        let mut b = ProgramBuilder::new("ev");
        let r = b.reg();
        b.const_i(r, 1);
        let p = b.finish();
        let mut env = Env::for_program(&p);
        let mut t = Thread::at_entry(&p);
        let mut sink = crate::trace::NullSink;
        assert!(matches!(
            t.step(&p, &mut env, &mut sink).unwrap(),
            StepEvent::Inst(_)
        ));
        assert!(matches!(
            t.step(&p, &mut env, &mut sink).unwrap(),
            StepEvent::Done
        ));
        assert!(t.finished);
        // Stepping a finished thread stays Done.
        assert!(matches!(
            t.step(&p, &mut env, &mut sink).unwrap(),
            StepEvent::Done
        ));
    }

    #[test]
    fn alloc_and_pointer_chase() {
        // node { next: i64, value: i64 }; build 3-node list, then walk it.
        let mut b = ProgramBuilder::new("list");
        let [head, cur, tmp, sum, i] = b.regs();
        b.const_i(head, 0);
        // Build list of 3 nodes, prepending.
        b.counted_loop(0, 3, 1, |b, idx| {
            b.call(Some(tmp), Intrinsic::Alloc, vec![Operand::imm(16)]);
            b.store(head, AddrExpr::ptr(tmp, 0), Ty::I64);
            b.store(idx, AddrExpr::ptr(tmp, 8), Ty::I64);
            b.copy(head, tmp);
        });
        // Walk: sum values.
        b.const_i(sum, 0);
        b.copy(cur, head);
        b.const_i(i, 0);
        b.while_loop(
            |b| {
                let c = b.reg();
                b.bin(c, BinOp::CmpNe, cur, 0i64);
                Operand::Reg(c)
            },
            |b| {
                let v = b.reg();
                b.load(v, AddrExpr::ptr(cur, 8), Ty::I64);
                b.bin(sum, BinOp::Add, sum, v);
                b.load(cur, AddrExpr::ptr(cur, 0), Ty::I64);
            },
        );
        let p = b.finish();
        let mut env = Env::for_program(&p);
        let t = run_to_completion(&p, &mut env).unwrap();
        assert_eq!(t.regs[sum.index()].as_int(), 1 + 2);
        assert_eq!(env.mem.region_count(), 3); // 3 heap nodes, 0 static
    }

    #[test]
    fn rand_is_deterministic_across_runs() {
        let mut b = ProgramBuilder::new("rand");
        let r = b.reg();
        b.call(Some(r), Intrinsic::Rand, vec![]);
        let p = b.finish();
        let mut e1 = Env::for_program(&p);
        let mut e2 = Env::for_program(&p);
        let t1 = run_to_completion(&p, &mut e1).unwrap();
        let t2 = run_to_completion(&p, &mut e2).unwrap();
        assert_eq!(t1.regs[r.index()], t2.regs[r.index()]);
    }

    #[test]
    fn pure_hash_is_value_deterministic() {
        let mut b = ProgramBuilder::new("hash");
        let [a, c] = b.regs();
        b.call(Some(a), Intrinsic::PureHash, vec![Operand::imm(5)]);
        b.call(Some(c), Intrinsic::PureHash, vec![Operand::imm(5)]);
        let p = b.finish();
        let mut env = Env::for_program(&p);
        let t = run_to_completion(&p, &mut env).unwrap();
        assert_eq!(t.regs[a.index()], t.regs[c.index()]);
    }

    #[test]
    fn memcpy_intrinsic() {
        let mut b = ProgramBuilder::new("cpy");
        let r = b.region("buf", 128, Ty::I64);
        let [src, dst, out] = b.regs();
        b.const_i(out, 0);
        let v = b.reg();
        b.const_i(v, 0xABCD);
        b.store(v, AddrExpr::region(r, 0), Ty::I64);
        // src/dst pointers via region base arithmetic:
        b.const_i(src, 0);
        b.const_i(dst, 0);
        let p_regbase = b.reg();
        // Compute the base address: load from a pointer we store... easier:
        // memcpy with region-expressed addresses needs reg pointers, so
        // leak the base via AddrExpr evaluation in a load/store pair.
        // Simplest: store base-relative data and use Memcpy with computed
        // pointers from LoadEffectiveAddress-style trick: region base is
        // deterministic (FIRST_BASE), so use the constant.
        b.const_i(p_regbase, crate::memory::FIRST_BASE as i64);
        b.call(
            None,
            Intrinsic::Memcpy,
            vec![
                Operand::Reg(p_regbase), // dst = base... copy onto itself+64
                Operand::Reg(p_regbase),
                Operand::imm(8),
            ],
        );
        b.load(out, AddrExpr::region(r, 0), Ty::I64);
        let p = b.finish();
        let mut env = Env::for_program(&p);
        let t = run_to_completion(&p, &mut env).unwrap();
        assert_eq!(t.regs[out.index()].as_int(), 0xABCD);
    }

    #[test]
    fn dyn_inst_counting() {
        let mut b = ProgramBuilder::new("count");
        let r = b.reg();
        b.const_i(r, 0);
        b.counted_loop(0, 5, 1, |b, _| {
            b.bin(r, BinOp::Add, r, 1i64);
        });
        let p = b.finish();
        let mut env = Env::for_program(&p);
        let t = run_to_completion(&p, &mut env).unwrap();
        assert!(t.dyn_insts > 20);
        assert_eq!(t.regs[r.index()].as_int(), 5);
    }
}
