//! Workspace-wide integration tests: the full pipeline over the
//! synthetic SPEC suite. Every workload must compile under all three
//! compiler generations, execute in parallel with bit-identical results,
//! and uphold the paper's code properties at runtime.

use helix_rc::hcc::{compile, HccConfig};
use helix_rc::ir::interp::{run_to_completion, Env};
use helix_rc::sim::{simulate, MachineConfig};
use helix_rc::workloads::{suite, Scale};

const FUEL: u64 = 1 << 26;

/// Every workload, compiled with HCCv3 and run on the HELIX-RC machine,
/// produces exactly the sequential result, with no race-detector or
/// protocol findings.
#[test]
fn whole_suite_parallel_equivalence() {
    for w in suite(Scale::Test) {
        let compiled = compile(&w.program, &HccConfig::v3(16)).expect(&w.name);
        assert!(
            !compiled.plans.is_empty(),
            "{}: nothing parallelized",
            w.name
        );

        let mut env = Env::for_program(&compiled.program);
        run_to_completion(&compiled.program, &mut env).expect(&w.name);
        let expect = env.mem.digest();

        let rep = simulate(&compiled, &MachineConfig::helix_rc(16), FUEL).expect(&w.name);
        assert_eq!(rep.race_violations, vec![], "{}", w.name);
        assert_eq!(rep.protocol_errors, Vec::<String>::new(), "{}", w.name);
        assert_eq!(rep.mem_digest, expect, "{}: wrong parallel result", w.name);
        assert!(rep.iterations > 0, "{}", w.name);
    }
}

/// All three compiler generations preserve sequential semantics on every
/// workload (the transformed program, interpreted, matches the original
/// in its original regions).
#[test]
fn all_generations_preserve_semantics() {
    for w in suite(Scale::Test) {
        let mut env_ref = Env::for_program(&w.program);
        run_to_completion(&w.program, &mut env_ref).expect(&w.name);
        for cfg in [HccConfig::v1(16), HccConfig::v2(16), HccConfig::v3(16)] {
            let compiled = compile(&w.program, &cfg).expect(&w.name);
            let mut env = Env::for_program(&compiled.program);
            run_to_completion(&compiled.program, &mut env).expect(&w.name);
            for (i, _) in w.program.regions.iter().enumerate() {
                let a = env_ref.mem.region(helix_rc::ir::RegionId(i as u32));
                let b = env.mem.region(helix_rc::ir::RegionId(i as u32));
                assert_eq!(a, b, "{} region {i} under {}", w.name, compiled.version);
            }
        }
    }
}

/// Table 1 shape: HCCv3 coverage exceeds HCCv1's on every integer
/// benchmark, and reaches near-total coverage.
#[test]
fn coverage_ordering_matches_table1() {
    for w in helix_rc::workloads::cint_suite(Scale::Test) {
        let v1 = compile(&w.program, &HccConfig::v1(16)).expect(&w.name);
        let v3 = compile(&w.program, &HccConfig::v3(16)).expect(&w.name);
        assert!(
            v3.stats.coverage > 0.85,
            "{}: HELIX-RC coverage only {:.2}",
            w.name,
            v3.stats.coverage
        );
        assert!(
            v3.stats.coverage > v1.stats.coverage + 0.1,
            "{}: v3 {:.2} vs v1 {:.2} — the small hot loops are the point",
            w.name,
            v3.stats.coverage,
            v1.stats.coverage
        );
    }
}

/// The paper's §4 code properties, checked statically on compiled
/// output: every tagged access belongs to exactly one segment, and
/// segment ids are unique per loop.
#[test]
fn compiled_code_properties() {
    for w in suite(Scale::Test) {
        let compiled = compile(&w.program, &HccConfig::v3(16)).expect(&w.name);
        for plan in &compiled.plans {
            // Unique segment ids.
            let mut ids: Vec<_> = plan.segments.iter().map(|s| s.id).collect();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), plan.segments.len(), "{}", w.name);
            // Iteration entry jumps to the header.
            let entry = compiled.program.graph.block(plan.iteration_entry);
            assert_eq!(
                entry.term,
                helix_rc::ir::Terminator::Jump(plan.header),
                "{}",
                w.name
            );
        }
        // Static wait/signal counts are consistent with plans.
        if compiled.stats.segments > 0 {
            assert!(
                compiled.stats.sync_insts >= 2 * compiled.stats.segments,
                "{}",
                w.name
            );
        }
    }
}

/// Determinism: repeated parallel simulations are cycle-identical.
#[test]
fn simulation_is_deterministic() {
    let w = helix_rc::workloads::by_name("181.mcf", Scale::Test).unwrap();
    let compiled = compile(&w.program, &HccConfig::v3(8)).unwrap();
    let a = simulate(&compiled, &MachineConfig::helix_rc(8), FUEL).unwrap();
    let b = simulate(&compiled, &MachineConfig::helix_rc(8), FUEL).unwrap();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.mem_digest, b.mem_digest);
}

/// A ring wider than 256 nodes delivers every message to the right node:
/// node ids in ring messages once wrapped at 256, so signals reached the
/// wrong core and HCCv3 gzip on 512 cores waited forever.
#[test]
fn helix_machine_above_256_cores_matches_the_interpreter() {
    let w = helix_rc::workloads::by_name("164.gzip", Scale::Test).unwrap();
    let compiled = compile(&w.program, &HccConfig::v3(512)).unwrap();
    let mut env = Env::for_program(&compiled.program);
    run_to_completion(&compiled.program, &mut env).unwrap();
    let rep = simulate(&compiled, &MachineConfig::helix_rc(512), FUEL).unwrap();
    assert_eq!(rep.race_violations, vec![]);
    assert_eq!(rep.protocol_errors, Vec::<String>::new());
    assert_eq!(rep.mem_digest, env.mem.digest(), "wrong parallel result");
}
