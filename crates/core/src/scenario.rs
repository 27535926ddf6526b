//! Scenario execution: run a declarative [`ScenarioSpec`] end-to-end
//! (generate → compile → simulate) and produce a JSON report whose
//! field vocabulary matches `BENCH_sim.json` (`name`, `config`,
//! `cycles`, `cycles_per_sec`), so scenario reports and the perf
//! snapshot can be consumed by the same tooling.

use crate::api::RunOptions;
use crate::error::{ErrorKind, HelixError};
use crate::experiment::{check, ExpError};
use helix_hcc::{compile, CompiledProgram, HccConfig};
use helix_sim::{simulate, simulate_sequential, Bucket, MachineConfig, RunReport};
use helix_workloads::spec::{CompilerGen, MachineKind};
use helix_workloads::{generate, generate_nest, generate_prefix, Scale, ScenarioSpec};
use std::fmt::Write as _;
use std::time::Instant;

/// One simulated configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRow {
    /// Configuration label, e.g. `helix-rc-16`.
    pub config: String,
    /// Simulated cycles.
    pub cycles: u64,
    /// Dynamic instructions.
    pub dyn_insts: u64,
    /// Digest of final memory contents.
    pub mem_digest: u64,
    /// Wall-clock seconds for the simulation.
    pub wall_secs: f64,
    /// Speedup versus the sequential baseline at the same core count,
    /// when one was simulated.
    pub speedup_vs_sequential: Option<f64>,
    /// Per-stall-cause cycle totals `(bucket label, cycles)` in
    /// [`Bucket::ALL`] order — present only when the run asked for
    /// attribution (`--attribution`). Deterministic (cycle-derived, no
    /// wall clock), so its presence never perturbs report identity
    /// comparisons beyond the requested extra field.
    pub attribution: Option<Vec<(String, u64)>>,
}

impl RunRow {
    /// Simulated cycles per wall-second.
    pub fn cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.wall_secs.max(1e-12)
    }
}

/// Per-nest measurements of a multi-nest scenario.
///
/// Weights are *in-context*: successive prefix programs (nests `0..k`,
/// with and without the next glue stretch) are simulated sequentially
/// and their cycle counts differenced, so each nest's fraction reflects
/// exactly what it costs inside the composed program, warm caches and
/// carried state included. Speedup and coverage come from the nest
/// simulated and compiled in *isolation* (its phases only), which is
/// the per-nest parallelization measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct NestRow {
    /// Nest name from the spec.
    pub name: String,
    /// In-context fraction of the composed program's sequential cycles
    /// spent in this nest's phases.
    pub weight: f64,
    /// In-context fraction spent in the serial glue preceding this nest
    /// (never parallelizable; `weight + glue_weight` summed over nests
    /// accounts for the whole program).
    pub glue_weight: f64,
    /// Compiler coverage achieved inside the isolated nest.
    pub coverage: f64,
    /// Parallelized loops inside the nest.
    pub plans: usize,
    /// Sequential cycles of the isolated nest.
    pub seq_cycles: u64,
    /// HELIX-RC cycles of the isolated nest.
    pub helix_cycles: u64,
    /// Per-nest HELIX-RC speedup (`seq_cycles / helix_cycles`).
    pub speedup: f64,
}

/// Full per-scenario report.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// `"int"` or `"fp"`.
    pub kind: String,
    /// `"Test"` or `"Full"`.
    pub scale: String,
    /// Core count of the main runs.
    pub cores: usize,
    /// Compiler generation label.
    pub compiler: String,
    /// Parallel-loop coverage achieved by the compiler.
    pub coverage: f64,
    /// Number of parallelized loops.
    pub plans: usize,
    /// Main machine runs, in spec order.
    pub runs: Vec<RunRow>,
    /// HELIX-RC runs at the spec's `sweep_cores`.
    pub sweep: Vec<RunRow>,
    /// Per-nest breakdown (multi-nest scenarios only).
    pub nests: Vec<NestRow>,
}

impl ScenarioReport {
    /// Everything deterministic about the report — cycles, digests,
    /// instruction counts — with wall-clock noise excluded. Two runs of
    /// the same spec at the same scale must produce identical
    /// fingerprints.
    pub fn fingerprint(&self) -> String {
        let mut s = format!(
            "{}/{}/{}/{}/{:.6}/{}",
            self.scenario, self.scale, self.cores, self.compiler, self.coverage, self.plans
        );
        for row in self.runs.iter().chain(&self.sweep) {
            let _ = write!(
                s,
                ";{}:{}:{}:{:#x}",
                row.config, row.cycles, row.dyn_insts, row.mem_digest
            );
        }
        for nest in &self.nests {
            let _ = write!(
                s,
                ";nest/{}:{}:{}",
                nest.name, nest.seq_cycles, nest.helix_cycles
            );
        }
        s
    }

    /// Render as a JSON document.
    pub fn to_json(&self) -> String {
        use crate::report::json_escape as esc;
        fn rows(out: &mut String, name: &str, rows: &[RunRow]) {
            out.push_str(&format!("  \"{name}\": [\n"));
            for (i, r) in rows.iter().enumerate() {
                let speedup = r
                    .speedup_vs_sequential
                    .map(|s| format!(", \"speedup_vs_sequential\": {s:.3}"))
                    .unwrap_or_default();
                let attribution = r
                    .attribution
                    .as_ref()
                    .map(|buckets| {
                        let body = buckets
                            .iter()
                            .map(|(label, cycles)| format!("\"{}\": {cycles}", esc(label)))
                            .collect::<Vec<_>>()
                            .join(", ");
                        format!(", \"attribution\": {{{body}}}")
                    })
                    .unwrap_or_default();
                out.push_str(&format!(
                    "    {{\"config\": \"{}\", \"cycles\": {}, \"dyn_insts\": {}, \
                     \"mem_digest\": {}, \"wall_secs\": {:.6}, \"cycles_per_sec\": {:.0}{}{}}}",
                    esc(&r.config),
                    r.cycles,
                    r.dyn_insts,
                    r.mem_digest,
                    r.wall_secs,
                    r.cycles_per_sec(),
                    speedup,
                    attribution
                ));
                out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
            }
            out.push_str("  ]");
        }
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"harness\": \"helix\",");
        let _ = writeln!(
            out,
            "  \"schema_version\": {},",
            crate::report::SCHEMA_VERSION
        );
        let _ = writeln!(out, "  \"name\": \"{}\",", esc(&self.scenario));
        let _ = writeln!(out, "  \"kind\": \"{}\",", self.kind);
        let _ = writeln!(out, "  \"scale\": \"{}\",", self.scale);
        let _ = writeln!(out, "  \"cores\": {},", self.cores);
        let _ = writeln!(out, "  \"compiler\": \"{}\",", self.compiler);
        let _ = writeln!(out, "  \"coverage\": {:.4},", self.coverage);
        let _ = writeln!(out, "  \"plans\": {},", self.plans);
        rows(&mut out, "runs", &self.runs);
        if !self.sweep.is_empty() {
            out.push_str(",\n");
            rows(&mut out, "sweep", &self.sweep);
        }
        if !self.nests.is_empty() {
            out.push_str(",\n  \"nests\": [\n");
            for (i, nest) in self.nests.iter().enumerate() {
                out.push_str(&format!(
                    "    {{\"name\": \"{}\", \"weight\": {:.4}, \"glue_weight\": {:.4}, \
                     \"coverage\": {:.4}, \"plans\": {}, \"seq_cycles\": {}, \
                     \"helix_cycles\": {}, \"speedup\": {:.3}}}",
                    esc(&nest.name),
                    nest.weight,
                    nest.glue_weight,
                    nest.coverage,
                    nest.plans,
                    nest.seq_cycles,
                    nest.helix_cycles,
                    nest.speedup
                ));
                out.push_str(if i + 1 < self.nests.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            out.push_str("  ]");
        }
        out.push('\n');
        out.push_str("}\n");
        out
    }
}

fn hcc_config(gen: CompilerGen, cores: u32) -> HccConfig {
    match gen {
        CompilerGen::V1 => HccConfig::v1(cores),
        CompilerGen::V2 => HccConfig::v2(cores),
        CompilerGen::V3 => HccConfig::v3(cores),
    }
}

fn compiler_label(gen: CompilerGen) -> &'static str {
    match gen {
        CompilerGen::V1 => "HCCv1",
        CompilerGen::V2 => "HCCv2",
        CompilerGen::V3 => "HCCv3",
    }
}

fn machine_label(m: MachineKind, cores: usize) -> String {
    match m {
        MachineKind::Sequential => format!("sequential-{cores}"),
        MachineKind::Conventional => format!("conventional-{cores}"),
        MachineKind::HelixRc => format!("helix-rc-{cores}"),
    }
}

/// The per-stall-cause breakdown attached to rows under
/// `--attribution`: total cycles per bucket across all cores, in
/// [`Bucket::ALL`] order.
fn bucket_totals(report: &RunReport) -> Vec<(String, u64)> {
    Bucket::ALL
        .iter()
        .map(|&b| (b.label().to_string(), report.attribution.total(b)))
        .collect()
}

fn timed_run(
    program: &helix_ir::Program,
    compiled: &CompiledProgram,
    machine: MachineKind,
    cores: usize,
    fuel: u64,
    what: &str,
) -> Result<(RunReport, f64), ExpError> {
    let t0 = Instant::now();
    let report = match machine {
        MachineKind::Sequential => {
            simulate_sequential(program, &MachineConfig::conventional(cores), fuel)?
        }
        MachineKind::Conventional => {
            let rep = simulate(compiled, &MachineConfig::conventional(cores), fuel)?;
            check(&rep, what)?;
            rep
        }
        MachineKind::HelixRc => {
            let rep = simulate(compiled, &MachineConfig::helix_rc(cores), fuel)?;
            check(&rep, what)?;
            rep
        }
    };
    Ok((report, t0.elapsed().as_secs_f64()))
}

/// The ring cache needs a power-of-two node count, so every core count
/// the run builds a HELIX-RC machine at must be one: the main count
/// when a `helix-rc` machine or the per-nest rows use it, and each
/// `sweep_cores` entry. Sequential and conventional runs take any
/// count, so this is a run-time check, not part of spec validation.
fn check_helix_cores(spec: &ScenarioSpec, cores: usize, overridden: bool) -> Result<(), ExpError> {
    let main_field = if overridden { "--cores" } else { "run.cores" };
    let uses_helix = spec.run.machines.contains(&MachineKind::HelixRc) || !spec.nests.is_empty();
    let counts = uses_helix.then_some((main_field, cores)).into_iter().chain(
        spec.run
            .sweep_cores
            .iter()
            .map(|&c| ("run.sweep_cores", c as usize)),
    );
    for (field, n) in counts {
        if !n.is_power_of_two() {
            return Err(HelixError::new(
                ErrorKind::Spec,
                format!(
                    "scenario spec error: {}: a helix-rc machine needs a power-of-two \
                     core count, got {n}",
                    spec.name
                ),
            )
            .with_field(field)
            .with_value(n.to_string()));
        }
    }
    Ok(())
}

/// Run one scenario end-to-end: generate the program, compile it with
/// the spec's compiler generation, simulate every requested machine
/// (plus the optional core-count sweep), and collect a report.
///
/// Of `options` it reads the scale (default `Test`), the `cores` and
/// `fuel` overrides of the spec's `[run]` section, and `attribution`;
/// the campaign-only fields are ignored.
pub fn run_scenario(spec: &ScenarioSpec, options: &RunOptions) -> Result<ScenarioReport, ExpError> {
    let scale = options.scenario_scale();
    let cores = options.cores.unwrap_or(spec.run.cores as usize);
    check_helix_cores(spec, cores, options.cores.is_some())?;
    let program = generate(spec, scale)?;
    let fuel = options.fuel.unwrap_or(spec.run.fuel);
    let compiled = compile(&program, &hcc_config(spec.run.compiler, cores as u32))?;

    let mut runs = Vec::new();
    let mut seq_cycles: Option<u64> = None;
    // Sequential baselines are memoized per core count: the sweep below
    // re-baselines only when the machine description actually differs.
    let mut seq_by_cores: std::collections::BTreeMap<usize, u64> =
        std::collections::BTreeMap::new();
    for &machine in &spec.run.machines {
        let label = machine_label(machine, cores);
        let (report, wall_secs) = timed_run(&program, &compiled, machine, cores, fuel, &label)?;
        if machine == MachineKind::Sequential {
            seq_cycles = Some(report.cycles);
            seq_by_cores.insert(cores, report.cycles);
        }
        runs.push(RunRow {
            config: label,
            cycles: report.cycles,
            dyn_insts: report.dyn_insts,
            mem_digest: report.mem_digest,
            wall_secs,
            speedup_vs_sequential: None,
            attribution: options.attribution.then(|| bucket_totals(&report)),
        });
    }
    // Speedups are filled in after the loop so they do not depend on
    // where "sequential" appears in the spec's machine list.
    if let Some(seq) = seq_cycles {
        for row in &mut runs {
            row.speedup_vs_sequential = Some(seq as f64 / row.cycles.max(1) as f64);
        }
    }

    let mut sweep = Vec::new();
    for &sweep_cores in &spec.run.sweep_cores {
        let sweep_cores = sweep_cores as usize;
        let compiled = compile(&program, &hcc_config(spec.run.compiler, sweep_cores as u32))?;
        let seq_cycles = match seq_by_cores.get(&sweep_cores) {
            Some(&cycles) => cycles,
            None => {
                let (seq, _) = timed_run(
                    &program,
                    &compiled,
                    MachineKind::Sequential,
                    sweep_cores,
                    fuel,
                    "sweep baseline",
                )?;
                seq_by_cores.insert(sweep_cores, seq.cycles);
                seq.cycles
            }
        };
        let label = machine_label(MachineKind::HelixRc, sweep_cores);
        let (report, wall_secs) = timed_run(
            &program,
            &compiled,
            MachineKind::HelixRc,
            sweep_cores,
            fuel,
            &label,
        )?;
        sweep.push(RunRow {
            config: label,
            cycles: report.cycles,
            dyn_insts: report.dyn_insts,
            mem_digest: report.mem_digest,
            wall_secs,
            speedup_vs_sequential: Some(seq_cycles as f64 / report.cycles.max(1) as f64),
            attribution: options.attribution.then(|| bucket_totals(&report)),
        });
    }

    let nests = nest_rows(spec, scale, cores, fuel, seq_cycles, spec.run.compiler)?;

    Ok(ScenarioReport {
        scenario: spec.name.clone(),
        kind: spec.kind.render().into(),
        scale: format!("{scale:?}"),
        cores,
        compiler: compiler_label(spec.run.compiler).into(),
        coverage: compiled.stats.coverage,
        plans: compiled.plans.len(),
        runs,
        sweep,
        nests,
    })
}

/// Per-nest breakdown of a multi-nest scenario (see [`NestRow`] for the
/// measurement semantics).
///
/// `whole_seq_cycles` is the composed program's sequential cycle count
/// when the main runs already measured it; otherwise one extra
/// sequential simulation provides the weight denominator. The composed
/// program *is* the last prefix program, so in-context differencing
/// needs `nests - 1` extra prefix simulations plus one per non-empty
/// glue stretch. `compiler` selects the generation the isolated nests
/// are compiled with — callers must pass whatever generation their
/// headline numbers use, or the per-nest coverage/speedup columns
/// would silently mix compilers.
pub(crate) fn nest_rows(
    spec: &ScenarioSpec,
    scale: Scale,
    cores: usize,
    fuel: u64,
    whole_seq_cycles: Option<u64>,
    compiler: CompilerGen,
) -> Result<Vec<NestRow>, ExpError> {
    if spec.nests.is_empty() {
        return Ok(Vec::new());
    }
    let seq_machine = MachineConfig::conventional(cores);
    let seq_cycles_of = |program: &helix_ir::Program| -> Result<u64, ExpError> {
        Ok(simulate_sequential(program, &seq_machine, fuel)?.cycles)
    };
    let whole_seq = match whole_seq_cycles {
        Some(cycles) => cycles,
        None => seq_cycles_of(&generate(spec, scale)?)?,
    };

    let last = spec.nests.len() - 1;
    let n = scale.n(spec.base_n);
    let mut rows = Vec::new();
    // Cycle count of the prefix ending before nest `ix`'s glue.
    let mut prev_cut = 0u64;
    for (ix, nest) in spec.nests.iter().enumerate() {
        // In-context costs by prefix differencing.
        let after_glue = if nest.glue.eval(n) > 0 || nest.import.is_some() {
            seq_cycles_of(&generate_prefix(spec, scale, ix, true)?)?
        } else {
            prev_cut
        };
        let after_nest = if ix == last {
            whole_seq
        } else {
            seq_cycles_of(&generate_prefix(spec, scale, ix + 1, false)?)?
        };
        let frac = |cycles: u64| cycles as f64 / whole_seq.max(1) as f64;

        // Isolated-nest parallelization measurement.
        let program = generate_nest(spec, scale, ix)?;
        let seq = simulate_sequential(&program, &seq_machine, fuel)?;
        let compiled = compile(&program, &hcc_config(compiler, cores as u32))?;
        let what = format!("{}::{}", spec.name, nest.name);
        let helix = simulate(&compiled, &MachineConfig::helix_rc(cores), fuel)?;
        check(&helix, &what)?;

        rows.push(NestRow {
            name: nest.name.clone(),
            weight: frac(after_nest.saturating_sub(after_glue)),
            glue_weight: frac(after_glue.saturating_sub(prev_cut)),
            coverage: compiled.stats.coverage,
            plans: compiled.plans.len(),
            seq_cycles: seq.cycles,
            helix_cycles: helix.cycles,
            speedup: seq.cycles as f64 / helix.cycles.max(1) as f64,
        });
        prev_cut = after_nest;
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_workloads::builtin_spec;

    #[test]
    fn runs_a_spec_end_to_end() {
        let mut spec = builtin_spec("175.vpr").unwrap();
        spec.run.cores = 8;
        let report = run_scenario(&spec, &RunOptions::new()).unwrap();
        assert_eq!(report.scenario, "175.vpr");
        assert_eq!(report.runs.len(), 3);
        assert!(report.coverage > 0.5, "coverage {}", report.coverage);
        assert!(report.plans >= 1);
        let helix = report
            .runs
            .iter()
            .find(|r| r.config == "helix-rc-8")
            .unwrap();
        assert!(
            helix.speedup_vs_sequential.unwrap() > 1.0,
            "HELIX-RC must speed up: {helix:?}"
        );
        let json = report.to_json();
        assert!(json.contains("\"config\": \"helix-rc-8\""));
        assert!(json.contains("\"cycles_per_sec\""));
    }

    #[test]
    fn overrides_change_cores() {
        let spec = builtin_spec("900.chase").unwrap();
        let report = run_scenario(&spec, &RunOptions::new().with_cores(4)).unwrap();
        assert_eq!(report.cores, 4);
        assert!(report.runs.iter().all(|r| r.config.ends_with("-4")));
    }

    #[test]
    fn reports_are_deterministic_modulo_wall_clock() {
        let spec = builtin_spec("910.bursty").unwrap();
        let a = run_scenario(&spec, &RunOptions::new()).unwrap();
        let b = run_scenario(&spec, &RunOptions::new()).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn sweep_rows_are_emitted() {
        let mut spec = builtin_spec("920.blend").unwrap();
        spec.run.cores = 4;
        spec.run.sweep_cores = vec![2, 8];
        let report = run_scenario(&spec, &RunOptions::new()).unwrap();
        assert_eq!(report.sweep.len(), 2);
        assert_eq!(report.sweep[0].config, "helix-rc-2");
        assert!(report.to_json().contains("\"sweep\""));
    }
}
