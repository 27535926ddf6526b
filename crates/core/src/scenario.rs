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
use helix_ir::InstSite;
use helix_sim::{simulate, Bucket, Machine, MachineConfig, RunReport};
use helix_workloads::spec::{CompilerGen, MachineKind};
use helix_workloads::{generate_nest, generate_with_nests, NestBoundary, Scale, ScenarioSpec};
use rayon::prelude::*;
use std::fmt::Write as _;
use std::sync::OnceLock;
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
/// Weights are *in-context*: the composed program's one sequential run
/// marks the cycle at which it reaches each nest cut (after a nest's
/// glue, after its phases; see [`NestBoundary`]), and successive marks
/// are differenced, so each nest's fraction reflects exactly what it
/// costs inside the composed program, warm caches and carried state
/// included. A mark equals the sequential cycle count of the prefix
/// program that ends at its cut, which is the independent oracle for
/// the weights. Speedup and coverage come from the nest simulated
/// and compiled in *isolation* (its phases only), which is the per-nest
/// parallelization measurement.
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
    /// and HELIX-RC machines run the `main` compile, or compile at
    /// `cores` when it is `None` (a sweep point). A sequential run marks
    /// the plan's nest cuts.
    Scenario {
        program: &'a helix_ir::Program,
        main: Option<&'a MainCompile<'a>>,
        machine: MachineKind,
        cores: usize,
    },
    /// Nest `ix` in isolation, on `machine` (sequential or HELIX-RC).
    Nest {
        ix: usize,
        machine: MachineKind,
        cores: usize,
    },
}

/// The scenario program's compile at the main core count. The first
/// job that needs it compiles it, and the jobs that do not need it run
/// beside that compile instead of waiting for it.
struct MainCompile<'a> {
    program: &'a helix_ir::Program,
    hcc: HccConfig,
    done: OnceLock<Result<CompiledProgram, ExpError>>,
}

impl MainCompile<'_> {
    fn get(&self) -> Result<&CompiledProgram, ExpError> {
        let done = self
            .done
            .get_or_init(|| compile(self.program, &self.hcc).map_err(ExpError::from));
        done.as_ref().map_err(Clone::clone)
    }
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

/// Job indices of one isolated nest's measurements (see [`NestRow`]).
struct NestJobs {
    seq: usize,
    helix: usize,
}

/// A scenario's independent jobs, built in the serial order.
struct Plan<'a> {
    spec: &'a ScenarioSpec,
    scale: Scale,
    fuel: u64,
    compiler: CompilerGen,
    /// The scenario program's nest cuts, marked by its sequential runs.
    cuts: &'a [InstSite],
    jobs: Vec<Job<'a>>,
}

impl<'a> Plan<'a> {
    fn new(
        spec: &'a ScenarioSpec,
        scale: Scale,
        fuel: u64,
        compiler: CompilerGen,
        cuts: &'a [InstSite],
    ) -> Plan<'a> {
        Plan {
            spec,
            scale,
            fuel,
            compiler,
            cuts,
            jobs: Vec::new(),
        }
    }

    fn push(&mut self, job: Job<'a>) -> usize {
        self.jobs.push(job);
        self.jobs.len() - 1
    }

    /// The scenario program's sequential run at `cores`, pushed once
    /// and shared by the main rows, the sweep baselines and the nest
    /// weights (its marks).
    fn sequential(&mut self, program: &'a helix_ir::Program, cores: usize) -> usize {
        let pushed = self.jobs.iter().position(|job| {
            matches!(job, Job::Scenario { machine: MachineKind::Sequential, cores: c, .. } if *c == cores)
        });
        pushed.unwrap_or_else(|| {
            self.push(Job::Scenario {
                program,
                main: None,
                machine: MachineKind::Sequential,
                cores,
            })
        })
    }

    /// Every isolated nest's jobs, at `cores`.
    fn push_nests(&mut self, cores: usize) -> Vec<NestJobs> {
        (0..self.spec.nests.len())
            .map(|ix| {
                let nest = |machine| Job::Nest { ix, machine, cores };
                NestJobs {
                    seq: self.push(nest(MachineKind::Sequential)),
                    helix: self.push(nest(MachineKind::HelixRc)),
                }
            })
            .collect()
    }

    /// Run every job with one `par_iter`, HELIX-RC runs (the longest)
    /// first.
    fn run(&self) -> Done {
        let is_helix = |job: &Job| {
            let (Job::Scenario { machine, .. } | Job::Nest { machine, .. }) = job;
            *machine == MachineKind::HelixRc
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
                main,
                machine,
                cores,
            } => self.simulate(
                program,
                main.map(MainCompile::get).transpose()?,
                machine,
                cores,
                &machine_label(machine, cores),
                self.cuts,
            ),
            Job::Nest { ix, machine, cores } => {
                let program = generate_nest(self.spec, self.scale, ix)?;
                let what = format!("{}::{}", self.spec.name, self.spec.nests[ix].name);
                self.simulate(&program, None, machine, cores, &what, &[])
            }
        }
    }

    /// Simulate `program` on `machine`. A sequential machine marks
    /// `cuts`. A conventional or HELIX-RC machine runs `compiled`, or
    /// compiles `program` at `cores` first; its report must pass
    /// [`check`] under the name `what`.
    fn simulate(
        &self,
        program: &helix_ir::Program,
        compiled: Option<&CompiledProgram>,
        machine: MachineKind,
        cores: usize,
        what: &str,
        cuts: &[InstSite],
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
            None => Machine::new(program, &[], config)
                .with_cuts(cuts)
                .run(self.fuel)
                .map_err(ExpError::from),
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
    /// The whole program's sequential run, whose marks weigh the nests,
    /// when there are nests.
    whole: Option<usize>,
    nests: Vec<NestJobs>,
}

impl ScenarioJobs {
    /// Push every job of a scenario run at `cores` onto `plan`.
    fn push<'a>(
        plan: &mut Plan<'a>,
        program: &'a helix_ir::Program,
        main: &'a MainCompile<'a>,
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
                    main: Some(main),
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
                    main: None,
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
    /// baseline, run), then the whole program's sequential run, its
    /// marks at the cuts of `nests`, and the isolated nests.
    fn rows(
        &self,
        spec: &ScenarioSpec,
        nests: &[NestBoundary],
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
            Some(whole) => {
                let whole = &done.sim(whole)?.0;
                let weights = nest_weights(&spec.name, nests, &whole.marks, whole.cycles)?;
                nest_table(spec, &weights, &self.nests, done)?
            }
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
/// one the serial order meets first: the compile, then machines in spec
/// order, then the sweep, then the nests. The compile is made by the
/// first job that needs it, so the sequential and nest jobs do not wait
/// for it.
///
/// Of `options` it reads the scale (default `Test`), the `cores` and
/// `fuel` overrides of the spec's `[run]` section, and `attribution`;
/// the campaign-only fields are ignored.
pub fn run_scenario(spec: &ScenarioSpec, options: &RunOptions) -> Result<ScenarioReport, ExpError> {
    let scale = options.scenario_scale();
    let cores = options.cores.unwrap_or(spec.run.cores as usize);
    check_helix_cores(spec, cores, options.cores.is_some())?;
    let (program, boundaries) = generate_with_nests(spec, scale)?;
    let fuel = options.fuel.unwrap_or(spec.run.fuel);
    let main = MainCompile {
        program: &program,
        hcc: hcc_config(spec.run.compiler, cores as u32),
        done: OnceLock::new(),
    };

    let cuts: Vec<InstSite> = boundaries.iter().flat_map(NestBoundary::cuts).collect();
    let mut plan = Plan::new(spec, scale, fuel, spec.run.compiler, &cuts);
    let jobs = ScenarioJobs::push(&mut plan, &program, &main, cores);
    let done = plan.run();
    // In the serial order the compile precedes every simulation.
    let compiled = main.get()?;
    let (runs, sweep, nests) = jobs.rows(spec, &boundaries, cores, &done, options.attribution)?;

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

/// One nest's in-context shares of the composed program's sequential
/// cycles (see [`NestRow`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct NestWeight {
    /// The share spent in the serial glue before the nest.
    glue: f64,
    /// The share spent in the nest's phases.
    nest: f64,
}

/// Every nest's in-context weight, read from the composed program's
/// sequential run: its `cycles` and the `marks` it recorded at the cuts
/// of `nests` ([`NestBoundary::cuts`], in order). A nest's glue spans
/// from the previous nest's end cut (or cycle 0) to its glue cut; the
/// nest spans from there to its end cut (or the end of the run). A nest
/// without glue has no glue cut and a glue weight of zero.
///
/// # Errors
///
/// An `E_SIM` error when the run reached fewer cuts than `nests` have,
/// or when the marks do not rise through the program: a weight is
/// never clamped.
pub(crate) fn nest_weights(
    scenario: &str,
    nests: &[NestBoundary],
    marks: &[u64],
    cycles: u64,
) -> Result<Vec<NestWeight>, ExpError> {
    let error = |detail: String| {
        Err(HelixError::new(
            ErrorKind::Sim,
            format!("{scenario}: nest weights: {detail}"),
        ))
    };
    let cuts: usize = nests.iter().map(|nest| nest.cuts().count()).sum();
    if marks.len() != cuts {
        return error(format!(
            "the sequential run marked {} of {cuts} nest cuts",
            marks.len()
        ));
    }
    let frac = |from: u64, to: u64| (to - from) as f64 / cycles.max(1) as f64;
    let mut marks = marks.iter().copied();
    let mut mark = |cut: Option<InstSite>, otherwise: u64| match cut {
        Some(_) => marks.next().expect("one mark per cut"),
        None => otherwise,
    };
    let mut weights = Vec::new();
    // The mark of the cut ending the previous nest.
    let mut prev = 0u64;
    for nest in nests {
        let after_glue = mark(nest.glue_cut, prev);
        let after_nest = mark(nest.end_cut, cycles);
        if !(prev <= after_glue && after_glue <= after_nest) {
            return error(format!(
                "{}: cut marks out of order ({prev}, {after_glue}, {after_nest})",
                nest.name
            ));
        }
        weights.push(NestWeight {
            glue: frac(prev, after_glue),
            nest: frac(after_glue, after_nest),
        });
        prev = after_nest;
    }
    Ok(weights)
}

/// Per-nest breakdown of a multi-nest scenario (see [`NestRow`] for the
/// measurement semantics), given each nest's in-context `weights` from
/// [`nest_weights`].
///
/// The isolated nests run in parallel as one job list, each on the
/// sequential machine and compiled for HELIX-RC. `compiler` selects the
/// generation the isolated nests are compiled with — callers must pass
/// whatever generation their headline numbers use, or the per-nest
/// coverage/speedup columns would silently mix compilers.
pub(crate) fn nest_rows(
    spec: &ScenarioSpec,
    scale: Scale,
    cores: usize,
    fuel: u64,
    compiler: CompilerGen,
    weights: &[NestWeight],
) -> Result<Vec<NestRow>, ExpError> {
    let mut plan = Plan::new(spec, scale, fuel, compiler, &[]);
    let jobs = plan.push_nests(cores);
    nest_table(spec, weights, &jobs, &plan.run())
}

/// One row per nest from its weight and its isolated jobs' outcomes,
/// walked in the serial order.
fn nest_table(
    spec: &ScenarioSpec,
    weights: &[NestWeight],
    jobs: &[NestJobs],
    done: &Done,
) -> Result<Vec<NestRow>, ExpError> {
    spec.nests
        .iter()
        .zip(weights)
        .zip(jobs)
        .map(|((nest, weight), jobs)| {
            let seq = done.cycles(jobs.seq)?;
            let (coverage, plans) = done
                .job(jobs.helix)?
                .compiled
                .expect("a HELIX-RC job compiles");
            let helix = done.cycles(jobs.helix)?;
            Ok(NestRow {
                name: nest.name.clone(),
                weight: weight.nest,
                glue_weight: weight.glue,
                coverage,
                plans,
                seq_cycles: seq,
                helix_cycles: helix,
                speedup: seq as f64 / helix.max(1) as f64,
            })
        })
        .collect()
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
        let (program, nests) = generate_with_nests(&spec, Scale::Test).unwrap();
        let cuts: Vec<InstSite> = nests.iter().flat_map(NestBoundary::cuts).collect();
        let main = MainCompile {
            program: &program,
            hcc: hcc_config(CompilerGen::V3, 16),
            done: OnceLock::new(),
        };
        let mut plan = Plan::new(&spec, Scale::Test, spec.run.fuel, CompilerGen::V3, &cuts);
        let jobs = ScenarioJobs::push(&mut plan, &program, &main, 16);
        let ok = plan.run();
        assert!(jobs.rows(&spec, &nests, 16, &ok, false).is_ok());

        // `(job, true)` fails before the simulation, `(job, false)` in it.
        let mut steps: Vec<(usize, bool)> = jobs.machines.iter().map(|&ix| (ix, false)).collect();
        for &(_, seq, helix) in &jobs.sweep {
            steps.extend([(helix, true), (seq, false), (helix, false)]);
        }
        steps.push((jobs.whole.unwrap(), false));
        for nest in &jobs.nests {
            for ix in [nest.seq, nest.helix] {
                steps.extend([(ix, true), (ix, false)]);
            }
        }
        // Two machines, two sweep points, the whole program (whose
        // marks weigh the nests), and per step pair two isolated runs
        // for each of the three nests.
        assert_eq!(steps.len(), 2 + 2 * 3 + 1 + 2 * 3 * 2);

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
            let err = jobs.rows(&spec, &nests, 16, &done, false).unwrap_err();
            assert_eq!(err.message, fail(k).message, "{:?}", steps[k]);
        }
    }

    /// The marks of 970.pipeline's whole sequential run: three nests,
    /// glue before the second and third.
    fn pipeline_marks() -> (Vec<NestBoundary>, RunReport) {
        let spec = builtin_spec("970.pipeline").unwrap();
        let (program, nests) = generate_with_nests(&spec, Scale::Test).unwrap();
        let cuts: Vec<InstSite> = nests.iter().flat_map(NestBoundary::cuts).collect();
        let run = Machine::new(&program, &[], MachineConfig::conventional(4))
            .with_cuts(&cuts)
            .run(spec.run.fuel)
            .unwrap();
        assert_eq!(run.marks.len(), cuts.len());
        (nests, run)
    }

    #[test]
    fn nest_weights_account_for_the_whole_run() {
        let (nests, run) = pipeline_marks();
        let weights = nest_weights("970.pipeline", &nests, &run.marks, run.cycles).unwrap();
        assert_eq!(weights.len(), nests.len());
        let total: f64 = weights.iter().map(|w| w.glue + w.nest).sum();
        assert!((total - 1.0).abs() < 1e-12, "weights sum to {total}");
        assert_eq!(weights[0].glue, 0.0);
        assert!(weights[1..].iter().all(|w| w.glue > 0.0));
        assert!(weights.iter().all(|w| w.nest > 0.0));
    }

    /// Marks that are missing, extra, out of order or past the end of
    /// the run are an `E_SIM` error, never a weight clamped to zero.
    #[test]
    fn bad_marks_are_a_typed_error() {
        let (nests, run) = pipeline_marks();
        let marks = &run.marks;
        let mut swapped = marks.clone();
        swapped.swap(1, 2);
        let mut late = marks.clone();
        *late.last_mut().unwrap() = run.cycles + 1;
        let mut extra = marks.clone();
        extra.push(run.cycles);
        let cases: [(&str, &[u64]); 5] = [
            ("too short", &marks[..marks.len() - 1]),
            ("none", &[]),
            ("too long", &extra),
            ("out of order", &swapped),
            ("past the end", &late),
        ];
        for (what, marks) in cases {
            let err = nest_weights("970.pipeline", &nests, marks, run.cycles).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Sim, "{what}: {err}");
            assert!(
                err.message.starts_with("970.pipeline: nest weights: "),
                "{what}: {err}"
            );
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
