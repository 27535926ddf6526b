//! Scenario execution: run a declarative [`ScenarioSpec`] end-to-end
//! (generate → compile → simulate) and produce a JSON report whose
//! field vocabulary matches `BENCH_sim.json` (`name`, `config`,
//! `cycles`, `cycles_per_sec`), so scenario reports and the perf
//! snapshot can be consumed by the same tooling.

use crate::api::RunOptions;
use crate::error::{ErrorKind, HelixError};
use crate::experiment::{check, ExpError};
use crate::json::Json;
use helix_hcc::{compile, CompiledProgram, HccConfig};
use helix_sim::{simulate, simulate_sequential, Bucket, MachineConfig, RunReport};
use helix_workloads::spec::{CompilerGen, MachineKind};
use helix_workloads::{generate, generate_nest, generate_prefix, Scale, ScenarioSpec};
use rayon::prelude::*;
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
    /// Wall-clock seconds of this row's own simulation job. A
    /// scenario's jobs run in parallel, so the times of its rows may
    /// overlap and need not sum to the scenario's wall time.
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
        let row = |r: &RunRow| {
            let attribution = r.attribution.as_ref().map(|buckets| {
                Json::Obj(
                    buckets
                        .iter()
                        .map(|(label, cycles)| (label.to_string(), Json::from(*cycles)))
                        .collect(),
                )
            });
            Json::obj()
                .with("config", &r.config)
                .with("cycles", r.cycles)
                .with("dyn_insts", r.dyn_insts)
                .with("mem_digest", r.mem_digest)
                .with("wall_secs", Json::fixed(r.wall_secs, 6))
                .with("cycles_per_sec", Json::fixed(r.cycles_per_sec(), 0))
                .with_opt(
                    "speedup_vs_sequential",
                    r.speedup_vs_sequential.map(|s| Json::fixed(s, 3)),
                )
                .with_opt("attribution", attribution)
        };
        let nest = |nest: &NestRow| {
            Json::obj()
                .with("name", &nest.name)
                .with("weight", Json::fixed(nest.weight, 4))
                .with("glue_weight", Json::fixed(nest.glue_weight, 4))
                .with("coverage", Json::fixed(nest.coverage, 4))
                .with("plans", nest.plans)
                .with("seq_cycles", nest.seq_cycles)
                .with("helix_cycles", nest.helix_cycles)
                .with("speedup", Json::fixed(nest.speedup, 3))
        };
        Json::obj()
            .with("harness", "helix")
            .with("schema_version", crate::report::SCHEMA_VERSION)
            .with("name", &self.scenario)
            .with("kind", &self.kind)
            .with("scale", &self.scale)
            .with("cores", self.cores)
            .with("compiler", &self.compiler)
            .with("coverage", Json::fixed(self.coverage, 4))
            .with("plans", self.plans)
            .with("runs", self.runs.iter().map(row).collect::<Vec<_>>())
            .with_nonempty("sweep", self.sweep.iter().map(row).collect())
            .with_nonempty("nests", self.nests.iter().map(nest).collect())
            .document()
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

/// One independent simulation of a scenario run. No job reads another's
/// result, so [`Plan::run`] runs a scenario's jobs in parallel.
enum Job<'a> {
    /// The scenario program on `machine` at `cores`. The conventional
    /// and HELIX-RC machines run `compiled`, or compile at `cores` when
    /// it is `None` (a sweep point).
    Scenario {
        program: &'a helix_ir::Program,
        compiled: Option<&'a CompiledProgram>,
        machine: MachineKind,
        cores: usize,
    },
    /// The sequential prefix program of nests `0..nests`, with the next
    /// nest's glue when `glue` is set.
    Prefix {
        nests: usize,
        glue: bool,
        cores: usize,
    },
    /// Nest `ix` in isolation, on `machine` (sequential or HELIX-RC).
    Nest {
        ix: usize,
        machine: MachineKind,
        cores: usize,
    },
}

/// What one [`Job`] measured.
#[derive(Clone)]
struct Outcome {
    /// Coverage and plan count of the job's own compile, if it made one.
    compiled: Option<(f64, usize)>,
    /// The simulation report and its wall-clock seconds. A failure
    /// here is kept apart from a failure to generate or compile, because
    /// in the serial order a sweep point compiles before its baseline
    /// runs but simulates after it.
    run: Result<(RunReport, f64), ExpError>,
}

/// The outcomes of a job list, indexed like the list. Rows are
/// assembled by walking it in the serial order with `?`, so the error
/// returned is the one a serial run would have stopped at.
#[derive(Clone)]
struct Done(Vec<Result<Outcome, ExpError>>);

impl Done {
    /// Job `ix` up to its simulation: generating and compiling.
    fn job(&self, ix: usize) -> Result<&Outcome, ExpError> {
        self.0[ix].as_ref().map_err(Clone::clone)
    }

    /// Job `ix`'s simulation report and wall-clock seconds.
    fn sim(&self, ix: usize) -> Result<&(RunReport, f64), ExpError> {
        self.job(ix)?.run.as_ref().map_err(Clone::clone)
    }

    fn cycles(&self, ix: usize) -> Result<u64, ExpError> {
        Ok(self.sim(ix)?.0.cycles)
    }
}

/// Job indices of one nest's measurements (see [`NestRow`]).
struct NestJobs {
    /// The prefix through this nest's glue, when there is glue.
    after_glue: Option<usize>,
    /// The prefix through this nest, except for the last nest, whose
    /// prefix is the whole program.
    after_nest: Option<usize>,
    seq: usize,
    helix: usize,
}

/// A scenario's independent jobs, built in the serial order.
struct Plan<'a> {
    spec: &'a ScenarioSpec,
    scale: Scale,
    fuel: u64,
    compiler: CompilerGen,
    jobs: Vec<Job<'a>>,
}

impl<'a> Plan<'a> {
    fn new(spec: &'a ScenarioSpec, scale: Scale, fuel: u64, compiler: CompilerGen) -> Plan<'a> {
        Plan {
            spec,
            scale,
            fuel,
            compiler,
            jobs: Vec::new(),
        }
    }

    fn push(&mut self, job: Job<'a>) -> usize {
        self.jobs.push(job);
        self.jobs.len() - 1
    }

    /// The scenario program's sequential run at `cores`, pushed once
    /// and shared by the main rows, the sweep baselines and the nest
    /// weights.
    fn sequential(&mut self, program: &'a helix_ir::Program, cores: usize) -> usize {
        let pushed = self.jobs.iter().position(|job| {
            matches!(job, Job::Scenario { machine: MachineKind::Sequential, cores: c, .. } if *c == cores)
        });
        pushed.unwrap_or_else(|| {
            self.push(Job::Scenario {
                program,
                compiled: None,
                machine: MachineKind::Sequential,
                cores,
            })
        })
    }

    /// Every nest's jobs, at `cores`.
    fn push_nests(&mut self, cores: usize) -> Vec<NestJobs> {
        let n = self.scale.n(self.spec.base_n);
        let last = self.spec.nests.len().saturating_sub(1);
        let mut nests = Vec::new();
        for (ix, nest) in self.spec.nests.iter().enumerate() {
            let has_glue = nest.glue.eval(n) > 0 || nest.import.is_some();
            let prefix = |nests, glue| Job::Prefix { nests, glue, cores };
            let nest = |machine| Job::Nest { ix, machine, cores };
            nests.push(NestJobs {
                after_glue: has_glue.then(|| self.push(prefix(ix, true))),
                after_nest: (ix != last).then(|| self.push(prefix(ix + 1, false))),
                seq: self.push(nest(MachineKind::Sequential)),
                helix: self.push(nest(MachineKind::HelixRc)),
            });
        }
        nests
    }

    /// Run every job with one `par_iter`, HELIX-RC runs (the longest)
    /// first.
    fn run(&self) -> Done {
        let is_helix = |job: &Job| match job {
            Job::Scenario { machine, .. } | Job::Nest { machine, .. } => {
                *machine == MachineKind::HelixRc
            }
            Job::Prefix { .. } => false,
        };
        let mut order: Vec<usize> = (0..self.jobs.len()).collect();
        order.sort_by_key(|&ix| !is_helix(&self.jobs[ix]));
        let mut done: Vec<(usize, Result<Outcome, ExpError>)> = order
            .par_iter()
            .map(|&ix| (ix, self.run_job(&self.jobs[ix])))
            .collect();
        done.sort_by_key(|&(ix, _)| ix);
        Done(done.into_iter().map(|(_, outcome)| outcome).collect())
    }

    fn run_job(&self, job: &Job) -> Result<Outcome, ExpError> {
        match *job {
            Job::Scenario {
                program,
                compiled,
                machine,
                cores,
            } => self.simulate(
                program,
                compiled,
                machine,
                cores,
                &machine_label(machine, cores),
            ),
            Job::Prefix { nests, glue, cores } => {
                let program = generate_prefix(self.spec, self.scale, nests, glue)?;
                self.simulate(&program, None, MachineKind::Sequential, cores, "")
            }
            Job::Nest { ix, machine, cores } => {
                let program = generate_nest(self.spec, self.scale, ix)?;
                let what = format!("{}::{}", self.spec.name, self.spec.nests[ix].name);
                self.simulate(&program, None, machine, cores, &what)
            }
        }
    }

    /// Simulate `program` on `machine`. A conventional or HELIX-RC
    /// machine runs `compiled`, or compiles `program` at `cores` first;
    /// its report must pass [`check`] under the name `what`.
    fn simulate(
        &self,
        program: &helix_ir::Program,
        compiled: Option<&CompiledProgram>,
        machine: MachineKind,
        cores: usize,
        what: &str,
    ) -> Result<Outcome, ExpError> {
        let own;
        let compiled = match (machine, compiled) {
            (MachineKind::Sequential, _) => None,
            (_, Some(compiled)) => Some(compiled),
            (_, None) => {
                own = compile(program, &hcc_config(self.compiler, cores as u32))?;
                Some(&own)
            }
        };
        let config = match machine {
            MachineKind::HelixRc => MachineConfig::helix_rc(cores),
            _ => MachineConfig::conventional(cores),
        };
        let t0 = Instant::now();
        let report = match compiled {
            None => simulate_sequential(program, &config, self.fuel).map_err(ExpError::from),
            Some(compiled) => simulate(compiled, &config, self.fuel)
                .map_err(ExpError::from)
                .and_then(|report| check(&report, what).map(|()| report)),
        };
        Ok(Outcome {
            compiled: compiled.map(|c| (c.stats.coverage, c.plans.len())),
            run: report.map(|report| (report, t0.elapsed().as_secs_f64())),
        })
    }
}

/// A report's main, sweep and nest rows.
type ReportRows = (Vec<RunRow>, Vec<RunRow>, Vec<NestRow>);

/// Job indices of a scenario's rows.
struct ScenarioJobs {
    /// One per `run.machines` entry.
    machines: Vec<usize>,
    /// Per `run.sweep_cores` point: its core count, sequential baseline
    /// and HELIX-RC run.
    sweep: Vec<(usize, usize, usize)>,
    /// The whole program's sequential run, when there are nests to
    /// weigh against it.
    whole: Option<usize>,
    nests: Vec<NestJobs>,
}

impl ScenarioJobs {
    /// Push every job of a scenario run at `cores` onto `plan`.
    fn push<'a>(
        plan: &mut Plan<'a>,
        program: &'a helix_ir::Program,
        compiled: &'a CompiledProgram,
        cores: usize,
    ) -> ScenarioJobs {
        let spec = plan.spec;
        let machines = spec
            .run
            .machines
            .iter()
            .map(|&machine| match machine {
                MachineKind::Sequential => plan.sequential(program, cores),
                _ => plan.push(Job::Scenario {
                    program,
                    compiled: Some(compiled),
                    machine,
                    cores,
                }),
            })
            .collect();
        let sweep = spec
            .run
            .sweep_cores
            .iter()
            .map(|&c| {
                let c = c as usize;
                let seq = plan.sequential(program, c);
                let helix = plan.push(Job::Scenario {
                    program,
                    compiled: None,
                    machine: MachineKind::HelixRc,
                    cores: c,
                });
                (c, seq, helix)
            })
            .collect();
        ScenarioJobs {
            machines,
            sweep,
            whole: (!spec.nests.is_empty()).then(|| plan.sequential(program, cores)),
            nests: plan.push_nests(cores),
        }
    }

    /// The report's main, sweep and nest rows, assembled in the serial
    /// order: machines in spec order, then each sweep point (compile,
    /// baseline, run), then the nests.
    fn rows(
        &self,
        spec: &ScenarioSpec,
        cores: usize,
        done: &Done,
        attribution: bool,
    ) -> Result<ReportRows, ExpError> {
        let mut runs = Vec::new();
        for (&machine, &ix) in spec.run.machines.iter().zip(&self.machines) {
            let label = machine_label(machine, cores);
            runs.push(run_row(label, done.sim(ix)?, None, attribution));
        }
        // Speedups are filled in afterwards so they do not depend on
        // where "sequential" appears in the spec's machine list.
        if let Some(seq) = spec
            .run
            .machines
            .iter()
            .position(|&m| m == MachineKind::Sequential)
        {
            let seq = runs[seq].cycles;
            for row in &mut runs {
                row.speedup_vs_sequential = Some(seq as f64 / row.cycles.max(1) as f64);
            }
        }

        let mut sweep = Vec::new();
        for &(c, seq, helix) in &self.sweep {
            done.job(helix)?;
            let seq = done.cycles(seq)?;
            let run = done.sim(helix)?;
            let speedup = seq as f64 / run.0.cycles.max(1) as f64;
            let label = machine_label(MachineKind::HelixRc, c);
            sweep.push(run_row(label, run, Some(speedup), attribution));
        }

        let nests = match self.whole {
            Some(whole) => nest_table(spec, &self.nests, done, done.cycles(whole)?)?,
            None => Vec::new(),
        };
        Ok((runs, sweep, nests))
    }
}

/// One report row from a simulation.
fn run_row(
    config: String,
    (report, wall_secs): &(RunReport, f64),
    speedup_vs_sequential: Option<f64>,
    attribution: bool,
) -> RunRow {
    RunRow {
        config,
        cycles: report.cycles,
        dyn_insts: report.dyn_insts,
        mem_digest: report.mem_digest,
        wall_secs: *wall_secs,
        speedup_vs_sequential,
        attribution: attribution.then(|| bucket_totals(report)),
    }
}

/// Run one scenario end-to-end: generate the program, compile it with
/// the spec's compiler generation, simulate every requested machine
/// (plus the optional core-count sweep and the per-nest rows), and
/// collect a report.
///
/// The simulations are independent jobs that run in parallel; rows are
/// assembled in spec order afterwards, and the error returned is the
/// one the serial order meets first: machines in spec order, then the
/// sweep, then the nests.
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

    let mut plan = Plan::new(spec, scale, fuel, spec.run.compiler);
    let jobs = ScenarioJobs::push(&mut plan, &program, &compiled, cores);
    let (runs, sweep, nests) = jobs.rows(spec, cores, &plan.run(), options.attribution)?;

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
/// The simulations run in parallel as one job list: the prefix cuts,
/// and each isolated nest on the sequential machine and compiled for
/// HELIX-RC. The in-context weights are then differenced from the
/// returned cycle counts. `whole_seq` is the composed program's
/// sequential cycle count, which the caller has already measured; the
/// composed program *is* the last prefix program, so differencing needs
/// `nests - 1` prefix simulations plus one per non-empty glue stretch.
/// `compiler` selects the generation the isolated nests are compiled
/// with — callers must pass whatever generation their headline numbers
/// use, or the per-nest coverage/speedup columns would silently mix
/// compilers.
pub(crate) fn nest_rows(
    spec: &ScenarioSpec,
    scale: Scale,
    cores: usize,
    fuel: u64,
    whole_seq: u64,
    compiler: CompilerGen,
) -> Result<Vec<NestRow>, ExpError> {
    let mut plan = Plan::new(spec, scale, fuel, compiler);
    let jobs = plan.push_nests(cores);
    nest_table(spec, &jobs, &plan.run(), whole_seq)
}

/// The differencing step of [`nest_rows`]: one row per nest from its
/// jobs' outcomes, walked in the serial order.
fn nest_table(
    spec: &ScenarioSpec,
    jobs: &[NestJobs],
    done: &Done,
    whole_seq: u64,
) -> Result<Vec<NestRow>, ExpError> {
    let frac = |cycles: u64| cycles as f64 / whole_seq.max(1) as f64;
    let mut rows = Vec::new();
    // Cycle count of the prefix ending before the current nest's glue.
    let mut prev_cut = 0u64;
    for (nest, jobs) in spec.nests.iter().zip(jobs) {
        let after_glue = match jobs.after_glue {
            Some(ix) => done.cycles(ix)?,
            None => prev_cut,
        };
        let after_nest = match jobs.after_nest {
            Some(ix) => done.cycles(ix)?,
            None => whole_seq,
        };
        let seq = done.cycles(jobs.seq)?;
        let (coverage, plans) = done
            .job(jobs.helix)?
            .compiled
            .expect("a HELIX-RC job compiles");
        let helix = done.cycles(jobs.helix)?;
        rows.push(NestRow {
            name: nest.name.clone(),
            weight: frac(after_nest.saturating_sub(after_glue)),
            glue_weight: frac(after_glue.saturating_sub(prev_cut)),
            coverage,
            plans,
            seq_cycles: seq,
            helix_cycles: helix,
            speedup: seq as f64 / helix.max(1) as f64,
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

    /// Fail every step from the `k`-th of the serial order on, each
    /// with its own message: the rows must stop at step `k`, whatever
    /// order the jobs ran in.
    #[test]
    fn errors_surface_in_the_serial_order() {
        let mut spec = builtin_spec("970.pipeline").unwrap();
        spec.run.machines = vec![MachineKind::HelixRc, MachineKind::Conventional];
        spec.run.sweep_cores = vec![4, 8];
        let program = generate(&spec, Scale::Test).unwrap();
        let compiled = compile(&program, &hcc_config(CompilerGen::V3, 16)).unwrap();
        let mut plan = Plan::new(&spec, Scale::Test, spec.run.fuel, CompilerGen::V3);
        let jobs = ScenarioJobs::push(&mut plan, &program, &compiled, 16);
        let ok = plan.run();
        assert!(jobs.rows(&spec, 16, &ok, false).is_ok());

        // `(job, true)` fails before the simulation, `(job, false)` in it.
        let mut steps: Vec<(usize, bool)> = jobs.machines.iter().map(|&ix| (ix, false)).collect();
        for &(_, seq, helix) in &jobs.sweep {
            steps.extend([(helix, true), (seq, false), (helix, false)]);
        }
        steps.push((jobs.whole.unwrap(), false));
        for nest in &jobs.nests {
            let prefixes = nest.after_glue.into_iter().chain(nest.after_nest);
            for ix in prefixes.chain([nest.seq, nest.helix]) {
                steps.extend([(ix, true), (ix, false)]);
            }
        }
        // Two machines, two sweep points, the whole program, and per
        // step pair four prefix cuts and two isolated runs per nest.
        assert_eq!(steps.len(), 2 + 2 * 3 + 1 + 2 * (4 + 3 * 2));

        let fail = |k: usize| HelixError::new(ErrorKind::Internal, format!("step {k}"));
        for k in 0..steps.len() {
            let mut done = ok.clone();
            for (at, &(ix, before)) in steps.iter().enumerate().skip(k).rev() {
                match &mut done.0[ix] {
                    slot if before => *slot = Err(fail(at)),
                    Ok(outcome) => outcome.run = Err(fail(at)),
                    Err(_) => {}
                }
            }
            let err = jobs.rows(&spec, 16, &done, false).unwrap_err();
            assert_eq!(err.message, fail(k).message, "{:?}", steps[k]);
        }
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
