//! Per-core microarchitectural state and instruction latency classes.

use crate::attribution::Bucket;
use crate::branch::Predictor;
use helix_ir::interp::Thread;
use helix_ir::{BinOp, Inst, Reg, SegmentId, UnOp};
use std::collections::VecDeque;

/// Dense segment-id set (bit vector), replacing the per-core
/// `BTreeSet<SegmentId>` on the simulator's hot path. Clearing keeps the
/// allocation; inserting past the current capacity grows it.
#[derive(Debug, Clone, Default)]
pub struct SegSet {
    bits: Vec<u64>,
    len: usize,
}

impl SegSet {
    /// An empty set sized for segment ids `0..n_segs`.
    pub fn new(n_segs: usize) -> SegSet {
        SegSet {
            bits: vec![0; n_segs.div_ceil(64)],
            len: 0,
        }
    }

    /// Whether `seg` is in the set.
    pub fn contains(&self, seg: &SegmentId) -> bool {
        let i = seg.index();
        self.bits
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Insert `seg`; returns whether it was newly inserted.
    pub fn insert(&mut self, seg: SegmentId) -> bool {
        let i = seg.index();
        if i / 64 >= self.bits.len() {
            self.bits.resize(i / 64 + 1, 0);
        }
        let fresh = self.bits[i / 64] >> (i % 64) & 1 == 0;
        self.bits[i / 64] |= 1 << (i % 64);
        self.len += fresh as usize;
        fresh
    }

    /// Remove every element, keeping the allocation.
    pub fn clear(&mut self) {
        self.bits.iter_mut().for_each(|w| *w = 0);
        self.len = 0;
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// What a core is currently doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    /// Executing serial (non-parallelized) code — only the orchestrator.
    SerialActive,
    /// Idle while another core runs serial code.
    SerialIdle,
    /// Executing iteration `iter` of the current parallel loop.
    Iter {
        /// Iteration index.
        iter: u64,
        /// Cycle the iteration started (for length statistics).
        started_at: u64,
    },
    /// Holding before the next iteration because it would run more than
    /// one lap ahead of the slowest core (the two-signals-in-flight
    /// bound, paper §4).
    LapHold {
        /// The iteration waiting to start.
        iter: u64,
    },
    /// Finished all assigned iterations of the loop.
    FinishedLoop,
    /// Had no iterations this invocation (trip count below core index).
    NoWork,
    /// The whole program is done.
    Done,
}

/// One reorder-buffer entry (out-of-order model).
#[derive(Debug, Clone, Copy)]
pub struct RobEntry {
    /// Cycle the instruction's result is available / it may retire.
    pub complete: u64,
    /// Bucket to charge if the pipeline blocks on this entry.
    pub class: Bucket,
}

/// Per-core simulator state.
#[derive(Debug)]
pub struct CoreState {
    /// Core id (== ring node id).
    pub id: usize,
    /// Architectural thread (registers + program counter).
    pub thread: Thread,
    /// Activity state.
    pub run: RunState,
    /// Scoreboard: cycle each register's value is ready.
    pub reg_ready: Vec<u64>,
    /// Stall class to charge when blocked on each register.
    pub reg_class: Vec<Bucket>,
    /// Front-end stall (branch redirect) until this cycle.
    pub fetch_stall_until: u64,
    /// Segments whose `wait` has been granted this iteration.
    pub granted: SegSet,
    /// Segments signalled this iteration.
    pub signaled: SegSet,
    /// Outstanding ring loads: (ticket, destination register).
    pub pending_ring: Vec<(u64, Reg)>,
    /// Branch predictor.
    pub predictor: Predictor,
    /// Reorder buffer (out-of-order model only).
    pub rob: VecDeque<RobEntry>,
    /// Dynamic instructions issued by this core.
    pub dyn_insts: u64,
}

impl CoreState {
    /// Fresh core state for a program with `n_regs` registers and
    /// segment ids below `n_segs`.
    pub fn new(id: usize, thread: Thread, n_regs: usize, n_segs: usize) -> CoreState {
        CoreState {
            id,
            thread,
            run: if id == 0 {
                RunState::SerialActive
            } else {
                RunState::SerialIdle
            },
            reg_ready: vec![0; n_regs],
            reg_class: vec![Bucket::Computation; n_regs],
            fetch_stall_until: 0,
            granted: SegSet::new(n_segs),
            signaled: SegSet::new(n_segs),
            pending_ring: Vec::new(),
            predictor: Predictor::new(),
            rob: VecDeque::new(),
            dyn_insts: 0,
        }
    }

    /// Reset per-iteration synchronization state.
    pub fn reset_iteration(&mut self) {
        self.granted.clear();
        self.signaled.clear();
    }

    /// Latest ready time among `regs`.
    pub fn operands_ready(&self, regs: &[Reg]) -> u64 {
        regs.iter()
            .map(|r| self.reg_ready[r.index()])
            .max()
            .unwrap_or(0)
    }

    /// The register (and its stall class) blocking issue at `now`, if
    /// any.
    pub fn blocking_reg(&self, regs: &[Reg], now: u64) -> Option<(Reg, Bucket)> {
        regs.iter()
            .filter(|r| self.reg_ready[r.index()] > now)
            .max_by_key(|r| self.reg_ready[r.index()])
            .map(|r| (*r, self.reg_class[r.index()]))
    }

    /// [`CoreState::blocking_reg`] over a pre-decoded register-slot list
    /// (a micro-op's use pool), without materializing registers. Ties
    /// resolve to the last slot with the maximal ready time.
    pub fn blocking_slot(&self, slots: &[u32], now: u64) -> Option<(Reg, Bucket)> {
        let mut worst: Option<u32> = None;
        for &r in slots {
            if self.reg_ready[r as usize] > now
                && worst.is_none_or(|w| self.reg_ready[r as usize] >= self.reg_ready[w as usize])
            {
                worst = Some(r);
            }
        }
        worst.map(|r| (Reg(r), self.reg_class[r as usize]))
    }

    /// [`CoreState::operands_ready`] over a pre-decoded slot list.
    pub fn slots_ready(&self, slots: &[u32]) -> u64 {
        slots
            .iter()
            .fold(0, |acc, &r| acc.max(self.reg_ready[r as usize]))
    }
}

/// Execution latency (cycles) of a non-memory instruction.
pub fn inst_latency(inst: &Inst) -> u32 {
    match inst {
        Inst::Const { .. } | Inst::Nop { .. } => 1,
        Inst::Un { op, .. } => match op {
            UnOp::Neg | UnOp::Not | UnOp::FAbs | UnOp::FNeg => 1,
            UnOp::IntToF | UnOp::FToInt => 2,
            UnOp::FSqrt => 20,
        },
        Inst::Bin { op, .. } => match op {
            BinOp::Mul => 3,
            BinOp::Div | BinOp::Rem => 12,
            BinOp::FAdd | BinOp::FSub | BinOp::FMul => 4,
            BinOp::FDiv => 16,
            _ => 1,
        },
        Inst::Call { intrinsic, .. } => intrinsic.latency(),
        // Memory and synchronization latencies are modelled elsewhere.
        Inst::Load { .. } | Inst::Store { .. } | Inst::Wait { .. } | Inst::Signal { .. } => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_ir::{Operand, ProgramBuilder, Value};

    #[test]
    fn latency_classes_ordered() {
        let add = Inst::Bin {
            dst: Reg(0),
            op: BinOp::Add,
            lhs: Operand::imm(1),
            rhs: Operand::imm(2),
        };
        let mul = Inst::Bin {
            dst: Reg(0),
            op: BinOp::Mul,
            lhs: Operand::imm(1),
            rhs: Operand::imm(2),
        };
        let div = Inst::Bin {
            dst: Reg(0),
            op: BinOp::Div,
            lhs: Operand::imm(1),
            rhs: Operand::imm(2),
        };
        assert!(inst_latency(&add) < inst_latency(&mul));
        assert!(inst_latency(&mul) < inst_latency(&div));
        let sqrt = Inst::Un {
            dst: Reg(0),
            op: UnOp::FSqrt,
            src: Operand::Imm(Value::Float(2.0)),
        };
        assert!(inst_latency(&sqrt) >= 16);
    }

    #[test]
    fn scoreboard_blocking() {
        let p = ProgramBuilder::new("t").finish();
        let thread = Thread::at_entry(&p);
        let mut core = CoreState::new(0, thread, 4, 4);
        core.reg_ready[1] = 50;
        core.reg_class[1] = Bucket::Memory;
        assert_eq!(core.operands_ready(&[Reg(0), Reg(1)]), 50);
        let (r, class) = core.blocking_reg(&[Reg(0), Reg(1)], 10).unwrap();
        assert_eq!(r, Reg(1));
        assert_eq!(class, Bucket::Memory);
        assert!(core.blocking_reg(&[Reg(0)], 10).is_none());
        assert!(core.blocking_reg(&[Reg(1)], 60).is_none());
    }

    #[test]
    fn iteration_reset_clears_sync_sets() {
        let p = ProgramBuilder::new("t").finish();
        let thread = Thread::at_entry(&p);
        let mut core = CoreState::new(3, thread, 1, 2);
        core.granted.insert(SegmentId(1));
        core.signaled.insert(SegmentId(1));
        core.reset_iteration();
        assert!(core.granted.is_empty());
        assert!(core.signaled.is_empty());
    }

    #[test]
    fn segset_inserts_and_grows() {
        let mut s = SegSet::new(2);
        assert!(s.is_empty());
        assert!(s.insert(SegmentId(1)));
        assert!(!s.insert(SegmentId(1)), "double insert is idempotent");
        assert!(s.contains(&SegmentId(1)));
        assert!(!s.contains(&SegmentId(0)));
        // Growth beyond the sized capacity.
        assert!(s.insert(SegmentId(131)));
        assert!(s.contains(&SegmentId(131)));
        assert!(!s.contains(&SegmentId(130)));
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(&SegmentId(1)));
        assert!(!s.contains(&SegmentId(131)));
    }
}
