//! Structured program construction.
//!
//! The builder emits the canonical control-flow shapes (counted loops,
//! if/else diamonds, while loops) that the rest of the toolchain pattern
//! matches, while still producing a plain CFG that the analyses discover
//! structure in from scratch.

use crate::inst::{AddrExpr, BinOp, Inst, InstOrigin, Intrinsic, Operand, Terminator, UnOp};
use crate::program::{Block, Graph, Program, RegionDecl};
use crate::trace::InstSite;
use crate::types::{BlockId, Reg, RegionId, Ty, Value};

/// Incremental builder for [`Program`]s.
///
/// # Examples
///
/// ```
/// use helix_ir::{ProgramBuilder, BinOp, AddrExpr, Ty};
///
/// let mut b = ProgramBuilder::new("sum");
/// let data = b.region("data", 1024, Ty::I64);
/// let acc = b.reg();
/// b.const_i(acc, 0);
/// b.counted_loop(0, 128, 1, |b, i| {
///     let x = b.reg();
///     b.load(x, AddrExpr::region_indexed(data, i, 8, 0), Ty::I64);
///     b.bin(acc, BinOp::Add, acc, x);
/// });
/// let program = b.finish();
/// assert!(program.validate().is_ok());
/// ```
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    regions: Vec<RegionDecl>,
    blocks: Vec<Block>,
    terminated: Vec<bool>,
    current: BlockId,
    n_regs: u32,
}

impl ProgramBuilder {
    /// Start building a program named `name`, positioned at a fresh entry
    /// block.
    pub fn new(name: impl Into<String>) -> ProgramBuilder {
        ProgramBuilder {
            name: name.into(),
            regions: Vec::new(),
            blocks: vec![Block {
                label: Some("entry".into()),
                insts: Vec::new(),
                term: Terminator::Return,
            }],
            terminated: vec![false],
            current: BlockId(0),
            n_regs: 0,
        }
    }

    /// Declare a static memory region and return its id.
    pub fn region(&mut self, name: impl Into<String>, size: u64, elem: Ty) -> RegionId {
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(RegionDecl {
            name: name.into(),
            size,
            elem,
        });
        id
    }

    /// Allocate a fresh virtual register.
    pub fn reg(&mut self) -> Reg {
        let r = Reg(self.n_regs);
        self.n_regs += 1;
        r
    }

    /// Allocate `n` fresh registers.
    pub fn regs<const N: usize>(&mut self) -> [Reg; N] {
        std::array::from_fn(|_| self.reg())
    }

    /// The block currently being appended to.
    pub fn current_block(&self) -> BlockId {
        self.current
    }

    /// Number of blocks created so far.
    ///
    /// Builders that stitch several sub-pipelines into one program (the
    /// multi-nest scenario generator) snapshot this before and after
    /// each sub-pipeline to record which block-id range it occupies —
    /// every loop header created in between falls inside the range.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Where the next instruction would go: the current block and the
    /// index it would take there (the block's length, so the terminator
    /// position when nothing more is emitted before [`finish`]).
    ///
    /// [`finish`]: ProgramBuilder::finish
    pub fn insertion_point(&self) -> InstSite {
        InstSite {
            block: self.current,
            index: self.blocks[self.current.index()].insts.len(),
        }
    }

    /// Emit `trips` iterations of serial glue work mixing into `acc`:
    /// a while loop whose body is a dependent multiply/xor chain.
    ///
    /// While loops are never recognized as counted loops, so glue
    /// emitted this way is guaranteed to stay sequential under every
    /// compiler generation — it models the unparallelizable fraction
    /// between a program's hot loop nests (Amdahl's serial term).
    ///
    /// # Examples
    ///
    /// ```
    /// use helix_ir::{interp, ProgramBuilder};
    ///
    /// let mut b = ProgramBuilder::new("glue");
    /// let acc = b.reg();
    /// b.const_i(acc, 1);
    /// b.serial_glue(acc, 10);
    /// let p = b.finish();
    /// let mut env = interp::Env::for_program(&p);
    /// let t = interp::run_to_completion(&p, &mut env).unwrap();
    /// assert_ne!(t.regs[acc.index()].as_int(), 1); // the chain ran
    /// ```
    pub fn serial_glue(&mut self, acc: Reg, trips: impl Into<Operand>) {
        let [g, cond] = self.regs();
        self.copy(g, trips);
        self.while_loop(
            |b| {
                b.bin(cond, BinOp::CmpGt, g, 0i64);
                Operand::Reg(cond)
            },
            |b| {
                b.bin(acc, BinOp::Mul, acc, 3i64);
                b.bin(acc, BinOp::Xor, acc, g);
                b.bin(g, BinOp::Sub, g, 1i64);
            },
        );
    }

    /// Create a new (unterminated) block without switching to it.
    pub fn new_block(&mut self, label: impl Into<String>) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block {
            label: Some(label.into()),
            insts: Vec::new(),
            term: Terminator::Return,
        });
        self.terminated.push(false);
        id
    }

    /// Switch the insertion point to `block`.
    ///
    /// # Panics
    ///
    /// Panics if the block has already been terminated.
    pub fn switch_to(&mut self, block: BlockId) {
        assert!(
            !self.terminated[block.index()],
            "cannot append to terminated block {block}"
        );
        self.current = block;
    }

    fn emit(&mut self, inst: Inst) {
        let cur = self.current.index();
        assert!(!self.terminated[cur], "emitting into terminated block");
        self.blocks[cur].insts.push(inst);
    }

    /// Emit `dst = value` for an integer constant.
    pub fn const_i(&mut self, dst: Reg, value: i64) {
        self.emit(Inst::Const {
            dst,
            value: Value::Int(value),
        });
    }

    /// Emit `dst = value` for a float constant.
    pub fn const_f(&mut self, dst: Reg, value: f64) {
        self.emit(Inst::Const {
            dst,
            value: Value::Float(value),
        });
    }

    /// Emit a register copy (`dst = src + 0`).
    pub fn copy(&mut self, dst: Reg, src: impl Into<Operand>) {
        self.emit(Inst::Bin {
            dst,
            op: BinOp::Add,
            lhs: src.into(),
            rhs: Operand::imm(0),
        });
    }

    /// Emit `dst = lhs op rhs`.
    pub fn bin(&mut self, dst: Reg, op: BinOp, lhs: impl Into<Operand>, rhs: impl Into<Operand>) {
        self.emit(Inst::Bin {
            dst,
            op,
            lhs: lhs.into(),
            rhs: rhs.into(),
        });
    }

    /// Emit `dst = op src`.
    pub fn un(&mut self, dst: Reg, op: UnOp, src: impl Into<Operand>) {
        self.emit(Inst::Un {
            dst,
            op,
            src: src.into(),
        });
    }

    /// Emit `dst = load.ty [addr]`.
    pub fn load(&mut self, dst: Reg, addr: AddrExpr, ty: Ty) {
        self.emit(Inst::Load {
            dst,
            addr,
            ty,
            shared: None,
            origin: InstOrigin::Original,
        });
    }

    /// Emit `store.ty src -> [addr]`.
    pub fn store(&mut self, src: impl Into<Operand>, addr: AddrExpr, ty: Ty) {
        self.emit(Inst::Store {
            src: src.into(),
            addr,
            ty,
            shared: None,
            origin: InstOrigin::Original,
        });
    }

    /// Emit an intrinsic call.
    pub fn call(&mut self, dst: Option<Reg>, intrinsic: Intrinsic, args: Vec<Operand>) {
        self.emit(Inst::Call {
            dst,
            intrinsic,
            args,
        });
    }

    /// Emit a chain of `n` dependent integer ALU instructions on `scratch`.
    ///
    /// Useful for giving synthetic loop bodies a controllable serial
    /// computation length without inventing meaningless work at every call
    /// site.
    pub fn alu_chain(&mut self, scratch: Reg, n: usize) {
        for k in 0..n {
            self.bin(
                scratch,
                if k % 3 == 2 { BinOp::Xor } else { BinOp::Add },
                scratch,
                ((k as i64) % 7) + 1,
            );
        }
    }

    /// Bake one sample of `dist` per slot into `region[0..count]` as a
    /// compile-time work table: `count` `const`/`store` pairs in the
    /// current block, all through one scratch register.
    ///
    /// This is the distribution-driven emission primitive of the
    /// scenario generator: the table is sampled host-side with
    /// [`SplitMix64`](crate::rng::SplitMix64) (so the program is a pure
    /// function of `(dist, seed)`), and generated loops then read
    /// `region[i]` to bound their inner work — giving real
    /// iteration-length distributions instead of uniform bodies.
    pub fn init_region_from_dist(
        &mut self,
        region: RegionId,
        count: i64,
        dist: crate::dist::Distribution,
        seed: u64,
    ) {
        let mut rng = crate::rng::SplitMix64::new(seed);
        let t = self.reg();
        for i in 0..count {
            let v = dist.sample_at(i, &mut rng);
            self.const_i(t, v);
            self.store(t, AddrExpr::region(region, i * 8), Ty::I64);
        }
    }

    /// Terminate the current block with an unconditional jump.
    pub fn jump(&mut self, target: BlockId) {
        let cur = self.current.index();
        assert!(!self.terminated[cur], "block already terminated");
        self.blocks[cur].term = Terminator::Jump(target);
        self.terminated[cur] = true;
    }

    /// Terminate the current block with a conditional branch.
    pub fn branch(&mut self, cond: impl Into<Operand>, then_: BlockId, else_: BlockId) {
        let cur = self.current.index();
        assert!(!self.terminated[cur], "block already terminated");
        self.blocks[cur].term = Terminator::Branch {
            cond: cond.into(),
            then_,
            else_,
        };
        self.terminated[cur] = true;
    }

    /// Terminate the current block with a return.
    pub fn ret(&mut self) {
        let cur = self.current.index();
        assert!(!self.terminated[cur], "block already terminated");
        self.blocks[cur].term = Terminator::Return;
        self.terminated[cur] = true;
    }

    /// Build a canonical counted loop `for (c = init; c < bound; c += step)`.
    ///
    /// The body closure receives the builder (positioned inside the loop
    /// body) and the counter register. Returns the header block id.
    ///
    /// The emitted shape is exactly what
    /// [`recognize_counted_loop`](crate::cfg::recognize_counted_loop)
    /// matches, so loops built this way are candidates for
    /// parallelization.
    pub fn counted_loop(
        &mut self,
        init: impl Into<Operand>,
        bound: impl Into<Operand>,
        step: i64,
        f: impl FnOnce(&mut Self, Reg),
    ) -> BlockId {
        let counter = self.reg();
        let cond = self.reg();
        let init = init.into();
        let bound = bound.into();
        // preheader (current block): counter = init
        match init {
            Operand::Imm(v) => self.emit(Inst::Const {
                dst: counter,
                value: v,
            }),
            Operand::Reg(_) => self.copy(counter, init),
        }
        let header = self.new_block("loop_header");
        let body = self.new_block("loop_body");
        let latch = self.new_block("loop_latch");
        let exit = self.new_block("loop_exit");
        self.jump(header);
        // header: cond = counter < bound; br cond ? body : exit
        self.switch_to(header);
        self.bin(cond, BinOp::CmpLt, counter, bound);
        self.branch(cond, body, exit);
        // body
        self.switch_to(body);
        f(self, counter);
        if !self.terminated[self.current.index()] {
            self.jump(latch);
        }
        // latch: counter += step; jump header
        self.switch_to(latch);
        self.bin(counter, BinOp::Add, counter, step);
        self.jump(header);
        self.switch_to(exit);
        header
    }

    /// Build an if/else diamond on a truthy condition.
    pub fn if_else(
        &mut self,
        cond: impl Into<Operand>,
        then_f: impl FnOnce(&mut Self),
        else_f: impl FnOnce(&mut Self),
    ) {
        let then_b = self.new_block("if_then");
        let else_b = self.new_block("if_else");
        let join = self.new_block("if_join");
        self.branch(cond, then_b, else_b);
        self.switch_to(then_b);
        then_f(self);
        if !self.terminated[self.current.index()] {
            self.jump(join);
        }
        self.switch_to(else_b);
        else_f(self);
        if !self.terminated[self.current.index()] {
            self.jump(join);
        }
        self.switch_to(join);
    }

    /// Build an if without an else arm.
    pub fn if_then(&mut self, cond: impl Into<Operand>, then_f: impl FnOnce(&mut Self)) {
        self.if_else(cond, then_f, |_| {});
    }

    /// Build a general while loop.
    ///
    /// `cond_f` emits header code and returns the condition operand;
    /// `body_f` emits the body. While loops are *not* recognized as
    /// counted, so they are never distributed across cores — matching
    /// loops whose trip count is unknown at entry.
    pub fn while_loop(
        &mut self,
        cond_f: impl FnOnce(&mut Self) -> Operand,
        body_f: impl FnOnce(&mut Self),
    ) -> BlockId {
        let header = self.new_block("while_header");
        let body = self.new_block("while_body");
        let exit = self.new_block("while_exit");
        self.jump(header);
        self.switch_to(header);
        let cond = cond_f(self);
        self.branch(cond, body, exit);
        self.switch_to(body);
        body_f(self);
        if !self.terminated[self.current.index()] {
            self.jump(header);
        }
        self.switch_to(exit);
        header
    }

    /// Finish the program, terminating the current block with `ret` if
    /// still open.
    pub fn finish(mut self) -> Program {
        if !self.terminated[self.current.index()] {
            self.ret();
        }
        let program = Program {
            name: self.name,
            regions: self.regions,
            graph: Graph {
                blocks: self.blocks,
                entry: BlockId(0),
            },
            n_regs: self.n_regs,
        };
        debug_assert_eq!(program.validate(), Ok(()));
        program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run_to_completion, Env};

    #[test]
    fn empty_program_is_valid() {
        let p = ProgramBuilder::new("empty").finish();
        assert!(p.validate().is_ok());
        assert_eq!(p.graph.len(), 1);
    }

    #[test]
    fn counted_loop_executes_expected_iterations() {
        let mut b = ProgramBuilder::new("count");
        let acc = b.reg();
        b.const_i(acc, 0);
        b.counted_loop(0, 10, 1, |b, _i| {
            b.bin(acc, BinOp::Add, acc, 1i64);
        });
        let p = b.finish();
        let mut env = Env::for_program(&p);
        let thread = run_to_completion(&p, &mut env).unwrap();
        assert_eq!(thread.regs[acc.index()].as_int(), 10);
    }

    #[test]
    fn counted_loop_with_step() {
        let mut b = ProgramBuilder::new("step");
        let acc = b.reg();
        b.const_i(acc, 0);
        b.counted_loop(0, 10, 3, |b, i| {
            b.bin(acc, BinOp::Add, acc, i);
        });
        let p = b.finish();
        let mut env = Env::for_program(&p);
        let thread = run_to_completion(&p, &mut env).unwrap();
        // i = 0, 3, 6, 9 -> sum 18
        assert_eq!(thread.regs[acc.index()].as_int(), 18);
    }

    #[test]
    fn if_else_both_arms() {
        let mut b = ProgramBuilder::new("ifelse");
        let [x, y] = b.regs();
        b.const_i(x, 1);
        b.if_else(x, |b| b.const_i(y, 10), |b| b.const_i(y, 20));
        let p = b.finish();
        let mut env = Env::for_program(&p);
        let t = run_to_completion(&p, &mut env).unwrap();
        assert_eq!(t.regs[y.index()].as_int(), 10);
    }

    #[test]
    fn while_loop_runs_until_false() {
        let mut b = ProgramBuilder::new("while");
        let [n, cond] = b.regs();
        b.const_i(n, 5);
        b.while_loop(
            |b| {
                b.bin(cond, BinOp::CmpGt, n, 0i64);
                Operand::Reg(cond)
            },
            |b| {
                b.bin(n, BinOp::Sub, n, 1i64);
            },
        );
        let p = b.finish();
        let mut env = Env::for_program(&p);
        let t = run_to_completion(&p, &mut env).unwrap();
        assert_eq!(t.regs[n.index()].as_int(), 0);
    }

    #[test]
    fn nested_loops_execute() {
        let mut b = ProgramBuilder::new("nested");
        let acc = b.reg();
        b.const_i(acc, 0);
        b.counted_loop(0, 3, 1, |b, _i| {
            b.counted_loop(0, 4, 1, |b, _j| {
                b.bin(acc, BinOp::Add, acc, 1i64);
            });
        });
        let p = b.finish();
        let mut env = Env::for_program(&p);
        let t = run_to_completion(&p, &mut env).unwrap();
        assert_eq!(t.regs[acc.index()].as_int(), 12);
    }

    #[test]
    fn memory_round_trip() {
        let mut b = ProgramBuilder::new("mem");
        let r = b.region("buf", 64, Ty::I64);
        let [x, y] = b.regs();
        b.const_i(x, 99);
        b.store(x, AddrExpr::region(r, 8), Ty::I64);
        b.load(y, AddrExpr::region(r, 8), Ty::I64);
        let p = b.finish();
        let mut env = Env::for_program(&p);
        let t = run_to_completion(&p, &mut env).unwrap();
        assert_eq!(t.regs[y.index()].as_int(), 99);
    }

    #[test]
    #[should_panic(expected = "terminated")]
    fn double_termination_panics() {
        let mut b = ProgramBuilder::new("bad");
        b.ret();
        b.ret();
    }

    #[test]
    fn alu_chain_emits_n_instructions() {
        let mut b = ProgramBuilder::new("chain");
        let r = b.reg();
        b.const_i(r, 0);
        b.alu_chain(r, 7);
        let p = b.finish();
        assert_eq!(p.graph.inst_count(), 8);
    }
}
