//! Experiment runners: each function reproduces one measurement setup of
//! the paper's evaluation (§6), returning structured results the figure
//! harness renders.

use crate::batch::{SimCache, SEQ_KEY};
use helix_hcc::{CompiledProgram, HccConfig, LoopPlan};
use helix_ir::{InstSite, Program};
use helix_ring_cache::{ArrayConfig, RingConfig};
use helix_sim::{
    Bucket, CoreModel, DecoupleConfig, EngineSel, Machine, MachineConfig, RunReport, SyncModel,
};
use helix_workloads::{NestBoundary, Workload};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Default cycle budget for experiment simulations.
pub const FUEL: u64 = 1 << 27;

/// Execution options threaded through every experiment entry point —
/// the one knob set that used to be the `*_with_fuel` variant sprawl.
///
/// [`ExperimentOptions::default`] reproduces the historical defaults
/// (the [`FUEL`] budget, the decoded engine, no cache), so
/// `&ExperimentOptions::default()` is a drop-in for the old short-form
/// calls.
#[derive(Debug, Clone)]
pub struct ExperimentOptions {
    /// Cycle budget per simulation.
    pub fuel: u64,
    /// Execution engine every simulation in the experiment runs under.
    pub engine: EngineSel,
    /// Per-scenario memo for compiles, decodes, and run reports.
    /// Campaigns share one cache across every cell of a scenario so
    /// overlapping work — sequential baselines, HCCv3 compiles,
    /// repeated HELIX-RC runs — happens once. Cached values are
    /// deterministic: results are byte-identical with or without it.
    pub cache: Option<Arc<SimCache>>,
    /// Event-skipping fast-forward (on by default). Disabling it forces
    /// the naive one-cycle-at-a-time loop on every simulation —
    /// bit-identical results, much slower — which is what benches use
    /// as the pre-optimization "before" and exactness tests use as the
    /// cross-check oracle.
    pub fast_forward: bool,
}

impl Default for ExperimentOptions {
    fn default() -> ExperimentOptions {
        ExperimentOptions {
            fuel: FUEL,
            engine: EngineSel::Decoded,
            cache: None,
            fast_forward: true,
        }
    }
}

impl ExperimentOptions {
    /// The same options under a different cycle budget.
    pub fn with_fuel(mut self, fuel: u64) -> ExperimentOptions {
        self.fuel = fuel;
        self
    }

    /// The same options under a different execution engine.
    pub fn with_engine(mut self, engine: EngineSel) -> ExperimentOptions {
        self.engine = engine;
        self
    }

    /// The same options sharing the given simulation cache.
    pub fn with_cache(mut self, cache: Arc<SimCache>) -> ExperimentOptions {
        self.cache = Some(cache);
        self
    }

    /// The same options on the naive cycle loop (no event-skipping
    /// fast-forward): the benches' "before" and the exactness oracle.
    pub fn without_fast_forward(mut self) -> ExperimentOptions {
        self.fast_forward = false;
        self
    }

    /// Compile under `hcc`, memoized through the cache when present.
    pub(crate) fn compile(
        &self,
        program: &Program,
        hcc: &HccConfig,
    ) -> Result<Arc<CompiledProgram>, ExpError> {
        match &self.cache {
            Some(cache) => cache.compile(program, hcc),
            None => Ok(Arc::new(helix_hcc::compile(program, hcc)?)),
        }
    }
}

/// Run `cfgs` over one (program, plans) pair under `opts`: engine
/// selection applied uniformly, report memoization through the cache,
/// and every miss simulated standalone, in parallel (over the cache's
/// shared decode when there is one). `decode_key` identifies the
/// program in the cache ([`SEQ_KEY`] or a compile key). Every machine
/// records marks at `cuts` ([`Machine::with_cuts`]).
///
/// Cached and fresh runs produce bit-identical reports; they differ
/// only in how much work is shared.
fn run_batch(
    opts: &ExperimentOptions,
    decode_key: &str,
    program: &Program,
    plans: &[LoopPlan],
    cuts: &[InstSite],
    cfgs: Vec<MachineConfig>,
) -> Result<Vec<RunReport>, ExpError> {
    let cfgs: Vec<MachineConfig> = cfgs
        .into_iter()
        .map(|mut cfg| {
            cfg.fast_forward = opts.fast_forward;
            cfg.with_engine(opts.engine)
        })
        .collect();
    let keys: Vec<String> = cfgs
        .iter()
        .map(|cfg| format!("{decode_key}|{cfg:?}|{}", opts.fuel))
        .collect();
    let mut results: Vec<Option<RunReport>> = keys
        .iter()
        .map(|key| opts.cache.as_ref().and_then(|c| c.report(key)))
        .collect();
    let misses: Vec<usize> = (0..cfgs.len()).filter(|&i| results[i].is_none()).collect();
    if misses.is_empty() {
        return Ok(results.into_iter().map(|r| r.expect("all hits")).collect());
    }
    let decoded = opts
        .cache
        .as_ref()
        .map(|cache| cache.decoded(decode_key, program));
    let computed: Vec<Result<RunReport, ExpError>> = misses
        .par_iter()
        .map(|&ix| {
            let machine = match &decoded {
                Some(d) => Machine::with_decoded(program, plans, cfgs[ix].clone(), d.clone()),
                None => Machine::new(program, plans, cfgs[ix].clone()),
            };
            Ok(machine.with_cuts(cuts).run(opts.fuel)?)
        })
        .collect();
    for (report, &ix) in computed.into_iter().zip(&misses) {
        results[ix] = Some(report?);
    }
    if let Some(cache) = &opts.cache {
        for &ix in &misses {
            if let Some(report) = &results[ix] {
                cache.store_report(keys[ix].clone(), report);
            }
        }
    }
    Ok(results
        .into_iter()
        .map(|r| r.expect("all filled"))
        .collect())
}

/// Run `cfgs` over `w`'s original program with no plans. Every
/// sequential run of a workload goes through here, so each records the
/// workload's nest cuts, and a report the cache serves carries its
/// marks whichever experiment stored it.
fn run_sequential(
    opts: &ExperimentOptions,
    w: &Workload,
    cfgs: Vec<MachineConfig>,
) -> Result<Vec<RunReport>, ExpError> {
    let cuts: Vec<InstSite> = w.nests.iter().flat_map(NestBoundary::cuts).collect();
    run_batch(opts, SEQ_KEY, &w.program, &[], &cuts, cfgs)
}

/// Error from an experiment run.
///
/// Since the API redesign this is an alias for the structured
/// [`HelixError`](crate::error::HelixError) (kind + context), so
/// `format!(...).into()` construction sites and `?` over
/// compile/simulate errors keep working while consumers gain a
/// classified [`kind`](crate::error::HelixError::kind) with a stable
/// machine-readable code.
pub type ExpError = crate::error::HelixError;

/// Compile `w` for each compiler generation at `cores` (one compile per
/// worker thread; the compilations are independent — and memoized
/// through `opts.cache` when present).
pub fn compile_all(
    w: &Workload,
    cores: u32,
    opts: &ExperimentOptions,
) -> Result<[Arc<CompiledProgram>; 3], ExpError> {
    let configs = [
        HccConfig::v1(cores),
        HccConfig::v2(cores),
        HccConfig::v3(cores),
    ];
    let mut compiled: Vec<Arc<CompiledProgram>> = configs
        .par_iter()
        .map(|cfg| opts.compile(&w.program, cfg))
        .collect::<Result<Vec<_>, _>>()?;
    let v3 = compiled.pop().expect("three compiles");
    let v2 = compiled.pop().expect("three compiles");
    let v1 = compiled.pop().expect("three compiles");
    Ok([v1, v2, v3])
}

/// Sequential baseline cycles of the *original* program on the given
/// core model.
pub fn baseline_cycles(
    w: &Workload,
    cfg: &MachineConfig,
    opts: &ExperimentOptions,
) -> Result<u64, ExpError> {
    let reports = run_sequential(opts, w, vec![cfg.clone()])?;
    Ok(reports[0].cycles)
}

/// Assert a parallel run upheld all compiler guarantees.
pub fn check(report: &RunReport, what: &str) -> Result<(), ExpError> {
    use crate::error::ErrorKind;
    if !report.race_violations.is_empty() {
        return Err(ExpError::new(
            ErrorKind::Sim,
            format!("{what}: race violations: {:?}", report.race_violations),
        ));
    }
    if !report.protocol_errors.is_empty() {
        return Err(ExpError::new(
            ErrorKind::Sim,
            format!("{what}: protocol errors: {:?}", report.protocol_errors),
        ));
    }
    Ok(())
}

/// One benchmark's speedups under the three compiler generations
/// (Fig. 1 uses v1/v2, Fig. 7 uses v2/HELIX-RC).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompilerGenerations {
    /// Benchmark name.
    pub name: String,
    /// HCCv1 on the conventional machine.
    pub v1: f64,
    /// HCCv2 on the conventional machine.
    pub v2: f64,
    /// HCCv3 + ring cache (HELIX-RC).
    pub helix_rc: f64,
    /// Published HELIX-RC speedup, for reference.
    pub paper_helix: f64,
    /// Sequential baseline cycles (the denominator of every speedup).
    pub seq_cycles: u64,
    /// The sequential baseline's marks at the workload's nest cuts
    /// ([`RunReport::marks`]; empty for a single-pipeline workload).
    pub seq_marks: Vec<u64>,
    /// Cycles of the HELIX-RC run.
    pub helix_cycles: u64,
}

/// Run the headline comparison for one workload at `cores`. The
/// sequential baseline and the three generation runs are independent
/// simulations and execute in parallel.
pub fn compiler_generations(
    w: &Workload,
    cores: usize,
    opts: &ExperimentOptions,
) -> Result<CompilerGenerations, ExpError> {
    let [v1, v2, v3] = compile_all(w, cores as u32, opts)?;
    let conventional = MachineConfig::conventional(cores);
    let helix = MachineConfig::helix_rc(cores);
    let gens = [
        (HccConfig::v1(cores as u32), &v1, &conventional),
        (HccConfig::v2(cores as u32), &v2, &conventional),
        (HccConfig::v3(cores as u32), &v3, &helix),
    ];

    // The four runs cover four *different* programs (original + three
    // transformed), so there is no decode to share across them; each is
    // a one-config batch, parallel across jobs.
    let jobs: Vec<Option<usize>> = vec![None, Some(0), Some(1), Some(2)];
    let reports: Vec<RunReport> = jobs
        .par_iter()
        .map(|job| -> Result<RunReport, ExpError> {
            let rep = match job {
                None => run_sequential(opts, w, vec![conventional.clone()])?.remove(0),
                Some(g) => {
                    let (hcc, compiled, cfg) = &gens[*g];
                    let key = SimCache::compile_key(hcc);
                    let rep = run_batch(
                        opts,
                        &key,
                        &compiled.program,
                        &compiled.plans,
                        &[],
                        vec![(*cfg).clone()],
                    )?
                    .remove(0);
                    check(&rep, &w.name)?;
                    rep
                }
            };
            Ok(rep)
        })
        .collect::<Result<Vec<_>, _>>()?;

    let seq = reports[0].cycles;
    Ok(CompilerGenerations {
        name: w.name.to_string(),
        v1: seq as f64 / reports[1].cycles.max(1) as f64,
        v2: seq as f64 / reports[2].cycles.max(1) as f64,
        helix_rc: seq as f64 / reports[3].cycles.max(1) as f64,
        paper_helix: w.paper.helix_speedup,
        seq_cycles: seq,
        seq_marks: reports[0].marks.clone(),
        helix_cycles: reports[3].cycles,
    })
}

/// The Fig. 8 decoupling lattice, in the paper's bar order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LatticePoint {
    /// HCCv2 on conventional hardware (nothing decoupled).
    Hccv2,
    /// Register-carried traffic decoupled only.
    Reg,
    /// Registers + synchronization decoupled.
    RegSynch,
    /// Registers + memory decoupled (synchronization still coupled).
    RegMem,
    /// Everything decoupled (HELIX-RC).
    All,
}

impl LatticePoint {
    /// All points in the paper's order.
    pub const ALL: [LatticePoint; 5] = [
        LatticePoint::Hccv2,
        LatticePoint::Reg,
        LatticePoint::RegSynch,
        LatticePoint::RegMem,
        LatticePoint::All,
    ];

    /// Bar label from Fig. 8.
    pub fn label(self) -> &'static str {
        match self {
            LatticePoint::Hccv2 => "HCCv2",
            LatticePoint::Reg => "decoupled reg. communication",
            LatticePoint::RegSynch => "decoupled reg. comm. and synch.",
            LatticePoint::RegMem => "decoupled reg. and memory comm.",
            LatticePoint::All => "HELIX-RC (decoupled all communication)",
        }
    }

    /// Machine configuration for this point.
    pub fn machine(self, cores: usize) -> MachineConfig {
        let mut cfg = MachineConfig::conventional(cores);
        let decouple = match self {
            LatticePoint::Hccv2 => DecoupleConfig::none(),
            LatticePoint::Reg => DecoupleConfig {
                register: true,
                synch: false,
                memory: false,
            },
            LatticePoint::RegSynch => DecoupleConfig {
                register: true,
                synch: true,
                memory: false,
            },
            LatticePoint::RegMem => DecoupleConfig {
                register: true,
                synch: false,
                memory: true,
            },
            LatticePoint::All => DecoupleConfig::all(),
        };
        if decouple.any() {
            cfg.ring = Some(RingConfig::paper_default(cores));
        }
        if decouple.synch {
            cfg.sync = SyncModel::AllPredecessors;
        }
        cfg.decouple = decouple;
        cfg
    }

    /// Compiler used at this point (HCCv2 for the baseline bar, HCCv3
    /// everywhere else).
    pub fn compiler(self, cores: u32) -> HccConfig {
        match self {
            LatticePoint::Hccv2 => HccConfig::v2(cores),
            _ => HccConfig::v3(cores),
        }
    }
}

/// Speedups across the decoupling lattice for one workload (Fig. 8).
/// The five lattice points compile at most twice (HCCv2 for the
/// baseline bar, HCCv3 for the rest), and the four HCCv3 points run as
/// one batch over a shared program.
pub fn decoupling_lattice(
    w: &Workload,
    cores: usize,
    opts: &ExperimentOptions,
) -> Result<Vec<(LatticePoint, f64)>, ExpError> {
    let v2_hcc = LatticePoint::Hccv2.compiler(cores as u32);
    let v3_hcc = LatticePoint::All.compiler(cores as u32);
    let (v2, v3) = {
        let pair: Vec<Arc<CompiledProgram>> = [&v2_hcc, &v3_hcc]
            .par_iter()
            .map(|hcc| opts.compile(&w.program, hcc))
            .collect::<Result<Vec<_>, _>>()?;
        let mut it = pair.into_iter();
        (it.next().expect("two"), it.next().expect("two"))
    };
    let v3_points: Vec<LatticePoint> = LatticePoint::ALL
        .into_iter()
        .filter(|p| *p != LatticePoint::Hccv2)
        .collect();

    // Three independent jobs: the sequential baseline, the HCCv2 bar,
    // and the four HCCv3 points batched over one shared decode.
    let (seq, v2_cycles, v3_reports) = {
        let results: Vec<Result<Vec<RunReport>, ExpError>> = [0usize, 1, 2]
            .par_iter()
            .map(|job| match job {
                0 => run_sequential(opts, w, vec![MachineConfig::conventional(cores)]),
                1 => run_batch(
                    opts,
                    &SimCache::compile_key(&v2_hcc),
                    &v2.program,
                    &v2.plans,
                    &[],
                    vec![LatticePoint::Hccv2.machine(cores)],
                ),
                _ => run_batch(
                    opts,
                    &SimCache::compile_key(&v3_hcc),
                    &v3.program,
                    &v3.plans,
                    &[],
                    v3_points.iter().map(|p| p.machine(cores)).collect(),
                ),
            })
            .collect();
        let mut it = results.into_iter();
        let seq = it.next().expect("three")?.remove(0).cycles;
        let v2_report = it.next().expect("three")?.remove(0);
        check(&v2_report, LatticePoint::Hccv2.label())?;
        let v3_reports = it.next().expect("three")?;
        (seq, v2_report.cycles, v3_reports)
    };
    let mut out = vec![(LatticePoint::Hccv2, seq as f64 / v2_cycles.max(1) as f64)];
    for (point, report) in v3_points.iter().zip(&v3_reports) {
        check(report, point.label())?;
        out.push((*point, seq as f64 / report.cycles.max(1) as f64));
    }
    Ok(out)
}

/// Fig. 9: HCCv3-selected code on conventional hardware vs. the ring
/// cache, as % of sequential execution time with a
/// communication/computation split.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoupledVsRing {
    /// Benchmark name.
    pub name: String,
    /// Conventional run time as % of sequential (C bar; >100 = slowdown).
    pub conventional_pct: f64,
    /// Ring-cache run time as % of sequential (R bar).
    pub ring_pct: f64,
    /// Fraction of the conventional run's core-cycles spent on
    /// communication (incl. waiting).
    pub conventional_comm_frac: f64,
    /// Same for the ring run.
    pub ring_comm_frac: f64,
}

/// Communication fraction of a report: communication + dependence
/// waiting + wait/signal cycles over all busy cycles. Shared with the
/// explore harness so frontier `comm_frac` means exactly what the
/// Fig. 9 experiment reports.
pub(crate) fn comm_frac(r: &RunReport) -> f64 {
    let comm = r.attribution.total(Bucket::Communication)
        + r.attribution.total(Bucket::DependenceWaiting)
        + r.attribution.total(Bucket::WaitSignal);
    let busy: u64 = [
        Bucket::Computation,
        Bucket::AdditionalInsts,
        Bucket::WaitSignal,
        Bucket::Memory,
        Bucket::Communication,
        Bucket::DependenceWaiting,
    ]
    .iter()
    .map(|b| r.attribution.total(*b))
    .sum();
    comm as f64 / busy.max(1) as f64
}

/// Run the Fig. 9 comparison.
pub fn coupled_vs_ring(
    w: &Workload,
    cores: usize,
    opts: &ExperimentOptions,
) -> Result<CoupledVsRing, ExpError> {
    // HCCv3 selects loops assuming decoupling exists (ring-class sync
    // cost), then the code runs on both machines — one two-config
    // batch over the shared compile.
    let hcc = HccConfig::v3(cores as u32);
    let compiled = opts.compile(&w.program, &hcc)?;
    let seq = baseline_cycles(w, &MachineConfig::conventional(cores), opts)?;
    let mut reports = run_batch(
        opts,
        &SimCache::compile_key(&hcc),
        &compiled.program,
        &compiled.plans,
        &[],
        vec![
            MachineConfig::conventional(cores),
            MachineConfig::helix_rc(cores),
        ],
    )?;
    let ring = reports.pop().expect("two configs");
    let conv = reports.pop().expect("two configs");
    check(&conv, "conventional")?;
    check(&ring, "ring")?;
    Ok(CoupledVsRing {
        name: w.name.to_string(),
        conventional_pct: 100.0 * conv.cycles as f64 / seq.max(1) as f64,
        ring_pct: 100.0 * ring.cycles as f64 / seq.max(1) as f64,
        conventional_comm_frac: comm_frac(&conv),
        ring_comm_frac: comm_frac(&ring),
    })
}

/// Fig. 10: speedups per core model, plus the sequential-time ratio.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoreTypeRow {
    /// Benchmark name.
    pub name: String,
    /// HELIX-RC speedup on 2-way in-order cores.
    pub io2: f64,
    /// On 2-way out-of-order cores.
    pub ooo2: f64,
    /// On 4-way out-of-order cores.
    pub ooo4: f64,
    /// Sequential time on the 2-way in-order core / sequential time on
    /// the 4-way OoO core (the paper's lower panel, inverted: >1 means
    /// the OoO core is faster).
    pub seq_io_over_ooo4: f64,
}

/// Run the core-type sensitivity for one workload: the three parallel
/// runs batch over the shared HCCv3 compile, the three sequential
/// baselines over the original program.
pub fn core_type_sweep(
    w: &Workload,
    cores: usize,
    opts: &ExperimentOptions,
) -> Result<CoreTypeRow, ExpError> {
    let hcc = HccConfig::v3(cores as u32);
    let compiled = opts.compile(&w.program, &hcc)?;
    let models = [
        CoreModel::InOrder { width: 2 },
        CoreModel::OutOfOrder { width: 2, rob: 48 },
        CoreModel::OutOfOrder { width: 4, rob: 96 },
    ];
    let seq_cfgs: Vec<MachineConfig> = models
        .iter()
        .map(|&model| {
            let mut cfg = MachineConfig::conventional(cores);
            cfg.core = model;
            cfg
        })
        .collect();
    let par_cfgs: Vec<MachineConfig> = models
        .iter()
        .map(|&model| {
            let mut cfg = MachineConfig::helix_rc(cores);
            cfg.core = model;
            cfg
        })
        .collect();
    let seqs = run_sequential(opts, w, seq_cfgs)?;
    let pars = run_batch(
        opts,
        &SimCache::compile_key(&hcc),
        &compiled.program,
        &compiled.plans,
        &[],
        par_cfgs,
    )?;
    let mut speedups = [0.0f64; 3];
    for i in 0..3 {
        check(&pars[i], "core sweep")?;
        speedups[i] = seqs[i].cycles as f64 / pars[i].cycles.max(1) as f64;
    }
    Ok(CoreTypeRow {
        name: w.name.to_string(),
        io2: speedups[0],
        ooo2: speedups[1],
        ooo4: speedups[2],
        seq_io_over_ooo4: seqs[0].cycles as f64 / seqs[2].cycles.max(1) as f64,
    })
}

/// Generic ring-parameter sweep point: label plus speedup.
pub type SweepPoint = (String, f64);

/// Fig. 11a: core-count scaling. Each core count is an independent
/// (compile + baseline + simulate) job; counts run in parallel.
pub fn sweep_core_count(
    w: &Workload,
    counts: &[usize],
    opts: &ExperimentOptions,
) -> Result<Vec<SweepPoint>, ExpError> {
    counts
        .par_iter()
        .map(|&cores| -> Result<SweepPoint, ExpError> {
            let hcc = HccConfig::v3(cores as u32);
            let compiled = opts.compile(&w.program, &hcc)?;
            let seq = baseline_cycles(w, &MachineConfig::conventional(cores), opts)?;
            let rep = run_batch(
                opts,
                &SimCache::compile_key(&hcc),
                &compiled.program,
                &compiled.plans,
                &[],
                vec![MachineConfig::helix_rc(cores)],
            )?
            .pop()
            .expect("one lane in, one report out");
            check(&rep, "core count")?;
            Ok((
                format!("{cores} cores"),
                seq as f64 / rep.cycles.max(1) as f64,
            ))
        })
        .collect::<Result<Vec<_>, _>>()
}

/// Sweep a ring-cache parameter; `set` mutates the default ring config.
/// The compiled program, its decode, and the baseline are shared; every
/// sweep point rides the same `run_batch` call.
pub fn sweep_ring<F: Fn(&mut RingConfig) + Sync>(
    w: &Workload,
    cores: usize,
    labels_and_sets: &[(String, F)],
    opts: &ExperimentOptions,
) -> Result<Vec<SweepPoint>, ExpError> {
    let hcc = HccConfig::v3(cores as u32);
    let compiled = opts.compile(&w.program, &hcc)?;
    let seq = baseline_cycles(w, &MachineConfig::conventional(cores), opts)?;
    let cfgs: Vec<MachineConfig> = labels_and_sets
        .iter()
        .map(|(_, set)| {
            let mut cfg = MachineConfig::helix_rc(cores);
            let ring = cfg.ring.as_mut().expect("helix config has a ring");
            set(ring);
            cfg
        })
        .collect();
    let reports = run_batch(
        opts,
        &SimCache::compile_key(&hcc),
        &compiled.program,
        &compiled.plans,
        &[],
        cfgs,
    )?;
    labels_and_sets
        .iter()
        .zip(reports)
        .map(|((label, _), rep)| {
            check(&rep, label)?;
            Ok((label.clone(), seq as f64 / rep.cycles.max(1) as f64))
        })
        .collect()
}

/// Fig. 11b link-latency settings.
pub fn link_latency_settings() -> Vec<(String, impl Fn(&mut RingConfig))> {
    [1u32, 4, 8, 16, 32]
        .into_iter()
        .map(|lat| {
            (
                format!("{lat} cycle{}", if lat == 1 { "" } else { "s" }),
                move |r: &mut RingConfig| r.hop_latency = lat,
            )
        })
        .collect()
}

/// Fig. 11c signal-bandwidth settings.
pub fn signal_bandwidth_settings() -> Vec<(String, impl Fn(&mut RingConfig))> {
    [None, Some(4u32), Some(2), Some(1)]
        .into_iter()
        .map(|bw| {
            (
                match bw {
                    None => "Unbounded".to_string(),
                    Some(k) => format!("{k} Signal{}", if k == 1 { "" } else { "s" }),
                },
                move |r: &mut RingConfig| r.signal_bandwidth = bw,
            )
        })
        .collect()
}

/// Fig. 11d node-memory settings.
pub fn node_memory_settings() -> Vec<(String, impl Fn(&mut RingConfig))> {
    [None, Some(32 * 1024u64), Some(1024), Some(256)]
        .into_iter()
        .map(|cap| {
            (
                match cap {
                    None => "Unbounded".to_string(),
                    Some(c) if c >= 1024 => format!("{} KB", c / 1024),
                    Some(c) => format!("{c} B"),
                },
                move |r: &mut RingConfig| {
                    r.array = ArrayConfig {
                        capacity: cap,
                        ..ArrayConfig::paper_default()
                    }
                },
            )
        })
        .collect()
}

/// Fig. 12 row: overhead fractions and achieved speedup.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverheadRow {
    /// Benchmark name.
    pub name: String,
    /// Measured overhead fractions (Fig. 12 column order).
    pub measured: [f64; 7],
    /// Published fractions.
    pub paper: [f64; 7],
    /// Measured HELIX-RC speedup.
    pub speedup: f64,
    /// Published speedup.
    pub paper_speedup: f64,
}

/// Run the overhead taxonomy for one workload.
pub fn overhead_breakdown(
    w: &Workload,
    cores: usize,
    opts: &ExperimentOptions,
) -> Result<OverheadRow, ExpError> {
    let hcc = HccConfig::v3(cores as u32);
    let compiled = opts.compile(&w.program, &hcc)?;
    let seq = baseline_cycles(w, &MachineConfig::conventional(cores), opts)?;
    let rep = run_batch(
        opts,
        &SimCache::compile_key(&hcc),
        &compiled.program,
        &compiled.plans,
        &[],
        vec![MachineConfig::helix_rc(cores)],
    )?
    .pop()
    .expect("one lane in, one report out");
    check(&rep, &w.name)?;
    Ok(OverheadRow {
        name: w.name.to_string(),
        measured: rep.attribution.overhead_fractions(),
        paper: w.paper.overheads,
        speedup: seq as f64 / rep.cycles.max(1) as f64,
        paper_speedup: w.paper.helix_speedup,
    })
}

/// Fig. 4a: per-iteration cycle counts of the HELIX-selected loops on a
/// single in-order core.
pub fn iteration_lengths(w: &Workload, opts: &ExperimentOptions) -> Result<Vec<u32>, ExpError> {
    // Select loops as HELIX-RC would (16-core profile), then execute the
    // parallel plan on a single core to time individual iterations.
    let hcc = HccConfig::v3(16);
    let compiled = opts.compile(&w.program, &hcc)?;
    let rep = run_batch(
        opts,
        &SimCache::compile_key(&hcc),
        &compiled.program,
        &compiled.plans,
        &[],
        vec![MachineConfig::helix_rc(1)],
    )?
    .pop()
    .expect("one lane in, one report out");
    Ok(rep.iteration_lengths)
}

/// Fig. 4b/4c: producer→first-consumer distance and consumers-per-value
/// distributions from the 16-core ring run.
pub fn sharing_profile(
    w: &Workload,
    cores: usize,
    opts: &ExperimentOptions,
) -> Result<(Vec<f64>, Vec<f64>), ExpError> {
    let hcc = HccConfig::v3(cores as u32);
    let compiled = opts.compile(&w.program, &hcc)?;
    let rep = run_batch(
        opts,
        &SimCache::compile_key(&hcc),
        &compiled.program,
        &compiled.plans,
        &[],
        vec![MachineConfig::helix_rc(cores)],
    )?
    .pop()
    .expect("one lane in, one report out");
    check(&rep, &w.name)?;
    let stats = rep.ring_stats.expect("ring stats present");
    Ok((stats.distance_distribution(), stats.consumer_distribution()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_workloads::{by_name, Scale};

    #[test]
    fn lattice_points_have_distinct_machines() {
        for p in LatticePoint::ALL {
            let m = p.machine(8);
            m.assert_valid();
        }
        assert!(!LatticePoint::Hccv2.machine(8).decouple.any());
        assert!(LatticePoint::All.machine(8).decouple.any());
        assert_eq!(
            LatticePoint::RegSynch.machine(8).sync,
            SyncModel::AllPredecessors
        );
        assert_eq!(
            LatticePoint::RegMem.machine(8).sync,
            SyncModel::ChainedPredecessor
        );
    }

    #[test]
    fn headline_runs_for_one_workload() {
        let w = by_name("175.vpr", Scale::Test).unwrap();
        let row = compiler_generations(&w, 8, &ExperimentOptions::default()).unwrap();
        assert!(row.helix_rc > 1.0, "HELIX-RC must speed up: {row:?}");
        assert!(
            row.helix_rc > row.v2,
            "decoupling must beat compiler-only: {row:?}"
        );
    }

    #[test]
    fn settings_lists_cover_paper_axes() {
        assert_eq!(link_latency_settings().len(), 5);
        assert_eq!(signal_bandwidth_settings().len(), 4);
        assert_eq!(node_memory_settings().len(), 4);
    }
}
