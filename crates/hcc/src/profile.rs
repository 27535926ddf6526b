//! Training-input profiler.
//!
//! HCCv3 selects loops using profiling rather than a purely analytical
//! model (paper §4): the compiler runs the program on its training input
//! and records, per loop, how many times it was invoked, how many
//! iterations ran, and how much of the program's dynamic instruction
//! count it covers.

use helix_ir::cfg::LoopForest;
use helix_ir::decode::decode;
use helix_ir::interp::{Env, InterpError, StepEvent, Thread};
use helix_ir::trace::NullSink;
use helix_ir::{BlockId, Program};
use serde::{Deserialize, Serialize};

/// Dynamic statistics for one loop (indexed as in the [`LoopForest`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoopProfile {
    /// Times the loop was entered.
    pub invocations: u64,
    /// Iterations across all invocations.
    pub iterations: u64,
    /// Dynamic instructions executed inside the loop (nested loops
    /// included).
    pub dyn_insts: u64,
}

impl LoopProfile {
    /// Mean iterations per invocation.
    pub fn trip_count(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.iterations as f64 / self.invocations as f64
        }
    }

    /// Mean dynamic instructions per iteration.
    pub fn insts_per_iter(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.dyn_insts as f64 / self.iterations as f64
        }
    }
}

/// Whole-program profile over a training run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProgramProfile {
    /// Per-loop statistics, indexed like `LoopForest::loops`.
    pub loops: Vec<LoopProfile>,
    /// Total dynamic instructions executed by the program.
    pub total_insts: u64,
}

impl ProgramProfile {
    /// Fraction of program execution spent in loop `idx`.
    pub fn coverage(&self, idx: usize) -> f64 {
        if self.total_insts == 0 {
            0.0
        } else {
            self.loops[idx].dyn_insts as f64 / self.total_insts as f64
        }
    }
}

/// Run `program` to completion on `env` and profile every loop in
/// `forest`.
///
/// The run steps the decoded micro-ops
/// ([`helix_ir::decode::DecodedProgram::step`], the exact mirror of the
/// tree interpreter's `Thread::step`), counts instructions per block,
/// and folds the block counts into the loops that contain them once at
/// the end.
///
/// # Errors
///
/// Propagates interpreter faults; `max_steps` bounds the run.
pub fn profile(
    program: &Program,
    forest: &LoopForest,
    env: &mut Env,
    max_steps: u64,
) -> Result<ProgramProfile, InterpError> {
    // Per-block: the chain of loops containing it (indices into forest).
    let n_blocks = program.graph.len();
    let mut chains: Vec<Vec<usize>> = vec![Vec::new(); n_blocks];
    for (li, node) in forest.loops.iter().enumerate() {
        for &b in &node.lp.blocks {
            chains[b.index()].push(li);
        }
    }
    // Header -> loop index.
    let mut header_of: Vec<Option<usize>> = vec![None; n_blocks];
    for (li, node) in forest.loops.iter().enumerate() {
        header_of[node.lp.header.index()] = Some(li);
    }

    let mut out = ProgramProfile {
        loops: vec![LoopProfile::default(); forest.loops.len()],
        total_insts: 0,
    };

    let decoded = decode(program);
    let mut thread = Thread::at_entry(program);
    let mut sink = NullSink;
    let mut steps = 0u64;
    // Steps taken in each block, terminators included.
    let mut block_insts = vec![0u64; n_blocks];
    let in_loop = |li: usize, b: BlockId| chains[b.index()].contains(&li);
    while !thread.finished {
        if steps >= max_steps {
            return Err(InterpError::FuelExhausted);
        }
        steps += 1;
        let before_block = thread.block;
        let event = decoded.step(&mut thread, env, &mut sink)?;
        block_insts[before_block.index()] += 1;
        if let StepEvent::Flow { from, to } = event {
            // Loop invocations: flow onto a header from outside the loop.
            if let Some(li) = header_of[to.index()] {
                if !in_loop(li, from) {
                    out.loops[li].invocations += 1;
                }
            }
            // Iterations: a header dispatching into its own body.
            if let Some(li) = header_of[from.index()] {
                if in_loop(li, to) {
                    out.loops[li].iterations += 1;
                }
            }
        }
    }
    out.total_insts = steps;
    for (chain, &n) in chains.iter().zip(&block_insts) {
        for &li in chain {
            out.loops[li].dyn_insts += n;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_ir::{BinOp, ProgramBuilder};

    #[test]
    fn nested_loop_profile() {
        let mut b = ProgramBuilder::new("p");
        let acc = b.reg();
        b.const_i(acc, 0);
        b.counted_loop(0, 4, 1, |b, _i| {
            b.counted_loop(0, 10, 1, |b, _j| {
                b.bin(acc, BinOp::Add, acc, 1i64);
            });
        });
        let p = b.finish();
        let forest = LoopForest::compute(&p.graph, p.graph.entry);
        let mut env = Env::for_program(&p);
        let prof = profile(&p, &forest, &mut env, 1_000_000).unwrap();

        let outer = forest.loops.iter().position(|n| n.depth == 0).unwrap();
        let inner = forest.loops.iter().position(|n| n.depth == 1).unwrap();
        assert_eq!(prof.loops[outer].invocations, 1);
        assert_eq!(prof.loops[outer].iterations, 4);
        assert_eq!(prof.loops[inner].invocations, 4);
        assert_eq!(prof.loops[inner].iterations, 40);
        assert!((prof.loops[inner].trip_count() - 10.0).abs() < 1e-9);
        // The inner loop dominates execution.
        assert!(prof.coverage(inner) > 0.5);
        // Outer coverage includes inner.
        assert!(prof.coverage(outer) >= prof.coverage(inner));
        assert!(prof.loops[inner].insts_per_iter() > 1.0);
    }

    #[test]
    fn empty_program_profile() {
        let p = ProgramBuilder::new("e").finish();
        let forest = LoopForest::compute(&p.graph, p.graph.entry);
        let mut env = Env::for_program(&p);
        let prof = profile(&p, &forest, &mut env, 1000).unwrap();
        assert!(prof.loops.is_empty());
        assert!(prof.total_insts >= 1);
    }
}
