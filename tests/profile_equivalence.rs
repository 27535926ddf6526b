//! HCC's training-input profiler steps the decoded micro-ops. The tree
//! interpreter's profiling loop it replaced is kept here as the
//! reference: for every committed scenario at Test scale both must
//! return the identical profile, and both must run out of fuel at the
//! same step budget.

mod common;

use helix_rc::hcc::{profile, LoopProfile, ProgramProfile};
use helix_rc::ir::cfg::LoopForest;
use helix_rc::ir::interp::{Env, InterpError, StepEvent, Thread};
use helix_rc::ir::trace::NullSink;
use helix_rc::ir::Program;
use helix_rc::workloads::{workload_from_spec, Scale};

/// The tree-interpreter profiling loop: step `Thread::step`, charge
/// every step to each loop containing its block, and test loop
/// membership on the loop's block set.
fn profile_tree(
    program: &Program,
    forest: &LoopForest,
    env: &mut Env,
    max_steps: u64,
) -> Result<ProgramProfile, InterpError> {
    let n_blocks = program.graph.len();
    let mut chains: Vec<Vec<usize>> = vec![Vec::new(); n_blocks];
    let mut header_of: Vec<Option<usize>> = vec![None; n_blocks];
    for (li, node) in forest.loops.iter().enumerate() {
        for &b in &node.lp.blocks {
            chains[b.index()].push(li);
        }
        header_of[node.lp.header.index()] = Some(li);
    }
    let mut out = ProgramProfile {
        loops: vec![LoopProfile::default(); forest.loops.len()],
        total_insts: 0,
    };
    let mut thread = Thread::at_entry(program);
    let mut steps = 0u64;
    while !thread.finished {
        if steps >= max_steps {
            return Err(InterpError::FuelExhausted);
        }
        steps += 1;
        let before_block = thread.block;
        let event = thread.step(program, env, &mut NullSink)?;
        out.total_insts += 1;
        for &li in &chains[before_block.index()] {
            out.loops[li].dyn_insts += 1;
        }
        if let StepEvent::Flow { from, to } = event {
            if let Some(li) = header_of[to.index()] {
                if !forest.loops[li].lp.blocks.contains(&from) {
                    out.loops[li].invocations += 1;
                }
            }
            if let Some(li) = header_of[from.index()] {
                if forest.loops[li].lp.blocks.contains(&to) {
                    out.loops[li].iterations += 1;
                }
            }
        }
    }
    Ok(out)
}

type ProfileFn = fn(&Program, &LoopForest, &mut Env, u64) -> Result<ProgramProfile, InterpError>;

/// Every committed scenario's program at Test scale, by file stem.
fn scenario_programs() -> Vec<(String, Program)> {
    common::committed_specs()
        .into_iter()
        .map(|(path, spec)| {
            let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
            let w =
                workload_from_spec(&spec, Scale::Test).unwrap_or_else(|e| panic!("{stem}: {e}"));
            (stem, w.program)
        })
        .collect()
}

#[test]
fn decoded_profile_equals_the_tree_profile_on_every_scenario() {
    for (stem, program) in scenario_programs() {
        let forest = LoopForest::compute(&program.graph, program.graph.entry);
        let run = |f: ProfileFn, max_steps: u64| {
            f(
                &program,
                &forest,
                &mut Env::for_program(&program),
                max_steps,
            )
        };
        let tree = run(profile_tree, u64::MAX).unwrap_or_else(|e| panic!("{stem}: {e}"));
        let decoded = run(profile, u64::MAX).unwrap_or_else(|e| panic!("{stem}: {e}"));
        assert!(!tree.loops.is_empty(), "{stem}: the program has loops");
        assert_eq!(decoded, tree, "{stem}: profiles differ");

        // Exactly enough fuel finishes; one step less, or half, runs out
        // on both.
        let total = tree.total_insts;
        assert_eq!(run(profile_tree, total).as_ref(), Ok(&tree), "{stem}");
        assert_eq!(run(profile, total).as_ref(), Ok(&tree), "{stem}");
        for short in [total - 1, total / 2] {
            assert!(
                matches!(run(profile_tree, short), Err(InterpError::FuelExhausted)),
                "{stem}: the tree loop runs out at {short} steps"
            );
            assert!(
                matches!(run(profile, short), Err(InterpError::FuelExhausted)),
                "{stem}: the decoded loop runs out at {short} steps"
            );
        }
    }
}
