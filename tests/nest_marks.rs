//! Nest weights come from marks: the cycle at which the whole program's
//! sequential run reaches each nest cut (`Machine::with_cuts`). The
//! independent oracle for a mark is the prefix program that ends at the
//! same cut (`generate_prefix`), simulated on its own from cycle 0.
//! These tests require the two to be equal at every cut, on every
//! engine and with fast-forward off.

use helix_rc::ir::InstSite;
use helix_rc::sim::{simulate_sequential, EngineSel, Machine, MachineConfig, RunReport};
use helix_rc::workloads::{
    builtin_specs, generate_prefix, generate_with_nests, generated_spec, Scale, ScenarioSpec,
};

/// Every cut's prefix program, in cut order: per nest, the prefix
/// through its glue, then the prefix through its phases.
fn prefix_cycles(spec: &ScenarioSpec, cfg: &MachineConfig) -> Vec<u64> {
    let (_, nests) = generate_with_nests(spec, Scale::Test).unwrap();
    let mut cycles = Vec::new();
    for (ix, nest) in nests.iter().enumerate() {
        let prefixes = [(nest.glue_cut, ix, true), (nest.end_cut, ix + 1, false)];
        for (_, upto, glue) in prefixes.into_iter().filter(|(cut, ..)| cut.is_some()) {
            let program = generate_prefix(spec, Scale::Test, upto, glue).unwrap();
            let run = simulate_sequential(&program, cfg, spec.run.fuel).unwrap();
            cycles.push(run.cycles);
        }
    }
    cycles
}

/// The whole program's sequential run on `cfg`, marking its nest cuts.
fn marked_run(spec: &ScenarioSpec, cfg: &MachineConfig) -> (usize, RunReport) {
    let (program, nests) = generate_with_nests(spec, Scale::Test).unwrap();
    let cuts: Vec<InstSite> = nests.iter().flat_map(|nest| nest.cuts()).collect();
    let whole = Machine::new(&program, &[], cfg.clone())
        .with_cuts(&cuts)
        .run(spec.run.fuel)
        .unwrap();
    (cuts.len(), whole)
}

/// The whole program's marks on `cfg` equal its prefixes' cycle
/// counts. Returns the number of cuts compared.
fn assert_marks_match_prefixes(spec: &ScenarioSpec, cfg: &MachineConfig) -> usize {
    let (cuts, whole) = marked_run(spec, cfg);
    let what = format!("{} on {:?} x{}", spec.name, cfg.engine, cfg.cores);
    assert_eq!(whole.marks, prefix_cycles(spec, cfg), "{what}");
    cuts
}

fn committed_multi_nest() -> Vec<ScenarioSpec> {
    let specs: Vec<ScenarioSpec> = builtin_specs()
        .into_iter()
        .filter(|spec| !spec.nests.is_empty())
        .collect();
    assert_eq!(specs.len(), 6, "the committed multi-nest scenarios");
    specs
}

fn committed_at(cfg: MachineConfig) {
    let cuts: usize = committed_multi_nest()
        .iter()
        .map(|spec| assert_marks_match_prefixes(spec, &cfg))
        .sum();
    assert_eq!(cuts, 17, "the committed scenarios' cuts");
}

#[test]
fn committed_marks_match_prefixes_at_4_cores() {
    committed_at(MachineConfig::conventional(4));
}

#[test]
fn committed_marks_match_prefixes_at_8_cores() {
    committed_at(MachineConfig::conventional(8));
}

#[test]
fn committed_marks_match_prefixes_at_16_cores() {
    committed_at(MachineConfig::conventional(16));
}

#[test]
fn committed_marks_match_prefixes_on_the_tree_engine() {
    committed_at(MachineConfig::conventional(8).with_engine(EngineSel::Tree));
}

#[test]
fn committed_marks_match_prefixes_without_fast_forward() {
    committed_at(MachineConfig::conventional(8).without_fast_forward());
}

/// A machine given no cuts records no marks, and cuts change nothing
/// else about a run.
#[test]
fn cuts_change_nothing_else() {
    let cfg = MachineConfig::conventional(8);
    for spec in committed_multi_nest() {
        let (_, whole) = marked_run(&spec, &cfg);
        let program = generate_with_nests(&spec, Scale::Test).unwrap().0;
        let plain = simulate_sequential(&program, &cfg, spec.run.fuel).unwrap();
        assert!(plain.marks.is_empty(), "{}", spec.name);
        let mut marked = whole;
        marked.marks.clear();
        assert_eq!(format!("{plain:?}"), format!("{marked:?}"), "{}", spec.name);
    }
}

#[test]
fn generated_marks_match_prefixes() {
    let cfg = MachineConfig::conventional(4);
    let mut specs = 0;
    let mut cuts = 0;
    for seed in 0..12 {
        for index in 0..16 {
            let spec = generated_spec(seed, index);
            if spec.nests.is_empty() {
                continue;
            }
            specs += 1;
            cuts += assert_marks_match_prefixes(&spec, &cfg);
        }
    }
    assert!(
        specs >= 20 && cuts >= 2 * specs,
        "{specs} specs, {cuts} cuts"
    );
}
