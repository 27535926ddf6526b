//! An independent serial oracle for `run_scenario`.
//!
//! `run_scenario` runs a scenario's machine, sweep and nest simulations
//! as one parallel job list and assembles the report afterwards. These
//! tests rebuild the same report one simulation at a time from the
//! public pieces (`generate`, `compile`, `simulate`,
//! `simulate_sequential`, `generate_prefix`, `generate_nest`) and
//! require every deterministic field to match exactly, and the error of
//! a failing run to be the one the serial order meets first.

use helix_rc::experiment::check;
use helix_rc::hcc::{compile, CompiledProgram, HccConfig};
use helix_rc::ir::Program;
use helix_rc::scenario::{run_scenario, NestRow, ScenarioReport};
use helix_rc::sim::{simulate, simulate_sequential, MachineConfig, RunReport};
use helix_rc::workloads::spec::{CompilerGen, MachineKind};
use helix_rc::workloads::{
    builtin_spec, generate, generate_nest, generate_prefix, Scale, ScenarioSpec,
};
use helix_rc::{HelixError, RunOptions};

fn hcc(gen: CompilerGen, cores: usize) -> HccConfig {
    match gen {
        CompilerGen::V1 => HccConfig::v1(cores as u32),
        CompilerGen::V2 => HccConfig::v2(cores as u32),
        CompilerGen::V3 => HccConfig::v3(cores as u32),
    }
}

fn sequential(program: &Program, cores: usize, fuel: u64) -> Result<RunReport, HelixError> {
    Ok(simulate_sequential(
        program,
        &MachineConfig::conventional(cores),
        fuel,
    )?)
}

fn parallel(
    compiled: &CompiledProgram,
    config: &MachineConfig,
    fuel: u64,
    what: &str,
) -> Result<RunReport, HelixError> {
    let report = simulate(compiled, config, fuel)?;
    check(&report, what)?;
    Ok(report)
}

fn main_run(
    program: &Program,
    compiled: &CompiledProgram,
    machine: MachineKind,
    cores: usize,
    fuel: u64,
    what: &str,
) -> Result<RunReport, HelixError> {
    match machine {
        MachineKind::Sequential => sequential(program, cores, fuel),
        MachineKind::Conventional => {
            parallel(compiled, &MachineConfig::conventional(cores), fuel, what)
        }
        MachineKind::HelixRc => parallel(compiled, &MachineConfig::helix_rc(cores), fuel, what),
    }
}

/// The deterministic part of one run row.
#[derive(Debug, PartialEq)]
struct Row {
    config: String,
    cycles: u64,
    dyn_insts: u64,
    mem_digest: u64,
    speedup: Option<f64>,
}

fn row(config: String, report: &RunReport, speedup: Option<f64>) -> Row {
    Row {
        config,
        cycles: report.cycles,
        dyn_insts: report.dyn_insts,
        mem_digest: report.mem_digest,
        speedup,
    }
}

fn label(machine: MachineKind, cores: usize) -> String {
    let kind = match machine {
        MachineKind::Sequential => "sequential",
        MachineKind::Conventional => "conventional",
        MachineKind::HelixRc => "helix-rc",
    };
    format!("{kind}-{cores}")
}

/// The deterministic part of a scenario report.
#[derive(Debug, PartialEq)]
struct Expected {
    coverage: f64,
    plans: usize,
    runs: Vec<Row>,
    sweep: Vec<Row>,
    nests: Vec<NestRow>,
}

fn observed(report: &ScenarioReport) -> Expected {
    let rows = |rows: &[helix_rc::scenario::RunRow]| {
        rows.iter()
            .map(|r| Row {
                config: r.config.clone(),
                cycles: r.cycles,
                dyn_insts: r.dyn_insts,
                mem_digest: r.mem_digest,
                speedup: r.speedup_vs_sequential,
            })
            .collect()
    };
    Expected {
        coverage: report.coverage,
        plans: report.plans,
        runs: rows(&report.runs),
        sweep: rows(&report.sweep),
        nests: report.nests.clone(),
    }
}

/// The report of `spec` at Test scale and the spec's own core count,
/// one simulation at a time in the order: main machines, sweep points,
/// nests.
fn serial_report(spec: &ScenarioSpec) -> Result<Expected, HelixError> {
    let scale = Scale::Test;
    let (cores, fuel, gen) = (spec.run.cores as usize, spec.run.fuel, spec.run.compiler);
    let program = generate(spec, scale)?;
    let compiled = compile(&program, &hcc(gen, cores))?;

    let mut runs = Vec::new();
    let mut seq = None;
    for &machine in &spec.run.machines {
        let label = label(machine, cores);
        let report = main_run(&program, &compiled, machine, cores, fuel, &label)?;
        if machine == MachineKind::Sequential {
            seq = Some(report.cycles);
        }
        runs.push(row(label, &report, None));
    }
    if let Some(seq) = seq {
        for r in &mut runs {
            r.speedup = Some(seq as f64 / r.cycles.max(1) as f64);
        }
    }

    let mut sweep = Vec::new();
    for &c in &spec.run.sweep_cores {
        let c = c as usize;
        let compiled = compile(&program, &hcc(gen, c))?;
        let base = match seq.filter(|_| c == cores) {
            Some(cycles) => cycles,
            None => sequential(&program, c, fuel)?.cycles,
        };
        let label = label(MachineKind::HelixRc, c);
        let report = parallel(&compiled, &MachineConfig::helix_rc(c), fuel, &label)?;
        let speedup = base as f64 / report.cycles.max(1) as f64;
        sweep.push(row(label, &report, Some(speedup)));
    }

    let mut nests = Vec::new();
    if !spec.nests.is_empty() {
        let whole = match seq {
            Some(cycles) => cycles,
            None => sequential(&program, cores, fuel)?.cycles,
        };
        let n = scale.n(spec.base_n);
        let frac = |cycles: u64| cycles as f64 / whole.max(1) as f64;
        let mut prev_cut = 0;
        for (ix, nest) in spec.nests.iter().enumerate() {
            let after_glue = if nest.glue.eval(n) > 0 || nest.import.is_some() {
                sequential(&generate_prefix(spec, scale, ix, true)?, cores, fuel)?.cycles
            } else {
                prev_cut
            };
            let after_nest = if ix + 1 == spec.nests.len() {
                whole
            } else {
                sequential(&generate_prefix(spec, scale, ix + 1, false)?, cores, fuel)?.cycles
            };
            let alone = generate_nest(spec, scale, ix)?;
            let seq = sequential(&alone, cores, fuel)?.cycles;
            let compiled = compile(&alone, &hcc(gen, cores))?;
            let what = format!("{}::{}", spec.name, nest.name);
            let helix = parallel(&compiled, &MachineConfig::helix_rc(cores), fuel, &what)?.cycles;
            nests.push(NestRow {
                name: nest.name.clone(),
                weight: frac(after_nest.saturating_sub(after_glue)),
                glue_weight: frac(after_glue.saturating_sub(prev_cut)),
                coverage: compiled.stats.coverage,
                plans: compiled.plans.len(),
                seq_cycles: seq,
                helix_cycles: helix,
                speedup: seq as f64 / helix.max(1) as f64,
            });
            prev_cut = after_nest;
        }
    }

    Ok(Expected {
        coverage: compiled.stats.coverage,
        plans: compiled.plans.len(),
        runs,
        sweep,
        nests,
    })
}

fn spec(name: &str) -> ScenarioSpec {
    builtin_spec(name).unwrap_or_else(|| panic!("{name} is a built-in scenario"))
}

fn assert_matches_serial(spec: &ScenarioSpec) {
    let report = run_scenario(spec, &RunOptions::new()).expect("the scenario runs");
    let want = serial_report(spec).expect("the serial rebuild runs");
    assert_eq!(observed(&report), want, "{}", spec.name);
}

#[test]
fn two_nests_match_the_serial_rebuild() {
    let spec = spec("950.twonest");
    assert_eq!(spec.nests.len(), 2);
    assert_matches_serial(&spec);
}

#[test]
fn a_pipeline_with_glue_matches_the_serial_rebuild() {
    let spec = spec("970.pipeline");
    assert_eq!(spec.nests.len(), 3);
    let report = run_scenario(&spec, &RunOptions::new()).expect("970.pipeline runs");
    assert!(
        report.nests.iter().any(|n| n.glue_weight > 0.0),
        "970.pipeline has serial glue between nests"
    );
    assert_matches_serial(&spec);
}

/// Without a main sequential row, the nest weights need a sequential
/// run of the whole program of their own.
#[test]
fn a_closed_loop_scenario_matches_the_serial_rebuild() {
    let mut spec = spec("1010.closedloop");
    assert_matches_serial(&spec);
    spec.run.machines = vec![MachineKind::HelixRc, MachineKind::Conventional];
    assert_matches_serial(&spec);
}

/// A sweep that revisits the main core count reuses the main run's
/// sequential baseline; the other point runs its own.
#[test]
fn a_sweep_matches_the_serial_rebuild() {
    let mut spec = spec("920.blend");
    spec.run.sweep_cores = vec![4, 16];
    assert_eq!(spec.run.cores, 16);
    assert!(spec.run.machines.contains(&MachineKind::Sequential));
    assert_matches_serial(&spec);
    // Without a main sequential row both sweep points and no main row
    // run baselines of their own.
    spec.run.machines = vec![MachineKind::HelixRc];
    assert_matches_serial(&spec);
}

/// With a budget every simulation exhausts, each job fails; the error
/// returned is the one the first machine in spec order raises, whatever
/// order the jobs ran in. Budget errors of different machines read
/// alike, so this pins the code and the message; the unit test
/// `errors_surface_in_the_serial_order` in `scenario.rs` pins the order
/// with a distinct error per step.
#[test]
fn the_first_failure_in_spec_order_is_returned() {
    let mut spec = spec("950.twonest");
    spec.run.fuel = 50;
    spec.run.sweep_cores = vec![4];
    let program = generate(&spec, Scale::Test).expect("generates");
    let compiled = compile(&program, &hcc(spec.run.compiler, 16)).expect("compiles");
    let fail = |machine| {
        main_run(&program, &compiled, machine, 16, 50, &label(machine, 16))
            .expect_err("a 50-cycle budget is exhausted")
    };
    let orders = [
        [
            MachineKind::Sequential,
            MachineKind::Conventional,
            MachineKind::HelixRc,
        ],
        [
            MachineKind::Conventional,
            MachineKind::HelixRc,
            MachineKind::Sequential,
        ],
        [
            MachineKind::HelixRc,
            MachineKind::Sequential,
            MachineKind::Conventional,
        ],
    ];
    for machines in orders {
        spec.run.machines = machines.to_vec();
        let err = run_scenario(&spec, &RunOptions::new()).expect_err("every job fails");
        let want = serial_report(&spec).expect_err("the serial rebuild fails too");
        assert_eq!(err, want, "{machines:?}");
        assert_eq!(err, fail(machines[0]), "{machines:?}");
    }
}
