//! `helix explore` — property-driven scenario fuzzing with
//! differential oracles.
//!
//! The committed scenarios under `scenarios/` pin every exactness
//! guarantee the simulator makes, but only on ~20 hand-written shapes.
//! Explore drives the same guarantees over the *generated* spec space:
//! a seed-deterministic stream of valid [`ScenarioSpec`]s (see
//! [`helix_workloads::genspec`]) runs at smoke scale through a battery
//! of differential oracles —
//!
//! * **sanity** — no race violations, protocol errors, or simulation
//!   faults on the baseline runs;
//! * **engine-agreement** — tree, decoded, and batched engines produce
//!   identical observables;
//! * **fast-forward** — event-skipping equals the naive cycle loop;
//! * **lane-invariance** — batched session lanes equal standalone runs;
//! * **coverage-sum** — per-nest in-context weights account for the
//!   whole program;
//! * **amdahl-bound** — the *computation* speedup never exceeds the
//!   Amdahl bound implied by compiler coverage. Wall-clock speedup
//!   legitimately beats Amdahl's law on this machine — the ring cache
//!   serves decoupled shared traffic that the sequential baseline pays
//!   full memory-hierarchy latency for (that is the paper's point) —
//!   but the baseline's *issue* work cannot shrink: the parallel run
//!   can never finish in fewer cycles than the sequential computation
//!   cycles put through Amdahl's law at the measured coverage.
//!
//! Alongside the oracles, explore records *frontier* behavior: the
//! minimal `bound_frac` (speedup as a fraction of the Amdahl bound),
//! the maximal communication fraction, and any speedup inversions
//! across compiler generations (HCCv1 beating HCCv2, or HCCv2 beating
//! HELIX-RC). Failures and frontier extremes are auto-shrunk to
//! minimal specs with [`shrink_spec`] and embedded in the report as
//! runnable TOMLs (optionally exported to a directory), so a hit found
//! in CI reproduces locally from the report alone.
//!
//! Everything is deterministic: the same seed + budget produce a
//! byte-identical [`ExploreReport::to_json`], with no wall-clock
//! anywhere in the output.

use crate::error::HelixError;
use crate::experiment::comm_frac;
use crate::json::Json;
use crate::resilient::{fnv1a, FNV_OFFSET};
use crate::scenario::{nest_rows, nest_weights, NestRow};
use helix_hcc::{compile, CompiledProgram, HccConfig};
use helix_ir::{InstSite, Program};
use helix_sim::{
    simulate, Bucket, EngineSel, Machine, MachineConfig, RunReport, SimError, SimSession,
};
use helix_workloads::spec::{CompilerGen, OpSpec, PhaseSpec};
use helix_workloads::{generate_with_nests, NestBoundary, Scale, ScenarioSpec, SpecGen, MAX_CORES};
use std::path::PathBuf;

/// Relative slack allowed before the amdahl-bound oracle fires:
/// speedups may brush the bound (coverage is measured, not exact), but
/// exceeding it by more than 10% means the accounting is broken.
const AMDAHL_TOLERANCE: f64 = 1.10;

/// Absolute slack on the coverage-sum oracle: in-context nest weights
/// plus glue weights must account for the whole program within 2%.
const COVERAGE_SUM_TOLERANCE: f64 = 0.02;

/// Relative margin before a generation speedup pair counts as inverted.
const INVERSION_MARGIN: f64 = 1.02;

/// Predicate evaluations [`shrink_spec`] may spend per finding.
const SHRINK_EVALS: usize = 48;

/// At most this many inversions are shrunk to minimal TOMLs; further
/// hits are still listed (the count is exact), just without a spec.
const SHRUNK_INVERSIONS: usize = 2;

/// Options for one explore run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreOptions {
    /// Generator stream seed.
    pub seed: u64,
    /// Number of generated specs to examine.
    pub budget: usize,
    /// Core count every oracle simulation uses.
    pub cores: usize,
    /// Cycle budget per simulation.
    pub fuel: u64,
    /// Directory to export shrunk failure/frontier TOMLs into
    /// (local-only; not representable on the service wire).
    pub export_dir: Option<PathBuf>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            seed: 0,
            budget: 50,
            cores: 4,
            fuel: 1 << 24,
            export_dir: None,
        }
    }
}

/// One oracle of the battery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// Baseline runs are clean: no races, protocol errors, or faults.
    Sanity,
    /// Tree / decoded / batched engines agree on every observable.
    EngineAgreement,
    /// Fast-forward equals the naive cycle loop.
    FastForward,
    /// Session lanes equal standalone runs.
    LaneInvariance,
    /// Per-nest weights sum to the whole program.
    CoverageSum,
    /// Speedup stays within the Amdahl bound implied by coverage.
    AmdahlBound,
}

impl Oracle {
    /// Stable report label.
    pub fn label(self) -> &'static str {
        match self {
            Oracle::Sanity => "sanity",
            Oracle::EngineAgreement => "engine-agreement",
            Oracle::FastForward => "fast-forward",
            Oracle::LaneInvariance => "lane-invariance",
            Oracle::CoverageSum => "coverage-sum",
            Oracle::AmdahlBound => "amdahl-bound",
        }
    }
}

/// A confirmed oracle failure, shrunk to a minimal reproducing spec.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Generator index of the originating spec.
    pub index: u64,
    /// Name of the originating spec.
    pub spec: String,
    /// Which oracle fired.
    pub oracle: &'static str,
    /// Human-readable divergence description.
    pub detail: String,
    /// Minimal shrunk spec, as runnable TOML.
    pub shrunk_toml: String,
}

/// One frontier extreme (minimal `bound_frac` or maximal `comm_frac`).
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierHit {
    /// Generator index of the originating spec.
    pub index: u64,
    /// Name of the originating spec.
    pub spec: String,
    /// The metric value at the original spec.
    pub value: f64,
    /// Minimal spec still exhibiting the metric, as runnable TOML.
    pub toml: String,
}

/// A speedup inversion across compiler generations.
#[derive(Debug, Clone, PartialEq)]
pub struct InversionHit {
    /// Generator index of the originating spec.
    pub index: u64,
    /// Name of the originating spec.
    pub spec: String,
    /// HCCv1 speedup.
    pub v1: f64,
    /// HCCv2 speedup.
    pub v2: f64,
    /// HELIX-RC (HCCv3 + ring) speedup.
    pub helix_rc: f64,
    /// Minimal spec still inverted, as runnable TOML (empty when the
    /// per-report shrink budget was already spent).
    pub toml: String,
}

/// Frontier extremes discovered by the run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Frontier {
    /// Spec with the lowest speedup/Amdahl-bound ratio.
    pub min_bound_frac: Option<FrontierHit>,
    /// Spec with the highest communication fraction.
    pub max_comm_frac: Option<FrontierHit>,
    /// Generation speedup inversions, in discovery order.
    pub inversions: Vec<InversionHit>,
}

/// Deterministic result of one explore run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreReport {
    /// Generator stream seed.
    pub seed: u64,
    /// Requested spec budget.
    pub budget: usize,
    /// Core count used by every oracle simulation.
    pub cores: usize,
    /// Cycle budget per simulation.
    pub fuel: u64,
    /// Specs actually examined (== budget).
    pub specs_run: usize,
    /// Total oracle evaluations across all specs.
    pub oracle_checks: usize,
    /// Oracle failures, shrunk and in discovery order.
    pub failures: Vec<Finding>,
    /// Frontier extremes.
    pub frontier: Frontier,
}

impl ExploreReport {
    /// Render the deterministic JSON document. Same seed + budget =>
    /// byte-identical output: no wall-clock, no environment, fixed
    /// float formatting.
    pub fn to_json(&self) -> String {
        let finding = |f: &Finding| {
            Json::obj()
                .with("index", f.index)
                .with("spec", &f.spec)
                .with("oracle", f.oracle)
                .with("detail", &f.detail)
                .with("shrunk_toml", &f.shrunk_toml)
        };
        let hit = |h: &Option<FrontierHit>| {
            h.as_ref().map(|h| {
                Json::obj()
                    .with("index", h.index)
                    .with("spec", &h.spec)
                    .with("value", Json::fixed(h.value, 6))
                    .with("toml", &h.toml)
            })
        };
        let inversion = |inv: &InversionHit| {
            Json::obj()
                .with("index", inv.index)
                .with("spec", &inv.spec)
                .with("v1", Json::fixed(inv.v1, 4))
                .with("v2", Json::fixed(inv.v2, 4))
                .with("helix_rc", Json::fixed(inv.helix_rc, 4))
                .with("toml", &inv.toml)
        };
        let frontier = Json::obj()
            .with("min_bound_frac", hit(&self.frontier.min_bound_frac))
            .with("max_comm_frac", hit(&self.frontier.max_comm_frac))
            .with(
                "inversions",
                self.frontier
                    .inversions
                    .iter()
                    .map(inversion)
                    .collect::<Vec<_>>(),
            );
        Json::obj()
            .with("seed", self.seed)
            .with("budget", self.budget)
            .with("cores", self.cores)
            .with("fuel", self.fuel)
            .with("specs_run", self.specs_run)
            .with("oracle_checks", self.oracle_checks)
            .with(
                "failures",
                self.failures.iter().map(finding).collect::<Vec<_>>(),
            )
            .with("frontier", frontier)
            .document()
    }

    /// FNV-1a digest of the JSON document.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(FNV_OFFSET, self.to_json().as_bytes())
    }
}

// ---------------------------------------------------------------------
// Oracles (pure comparison functions, so negative tests can feed them
// deliberately broken inputs without a simulator in the loop)
// ---------------------------------------------------------------------

/// Differential agreement between two run reports over every
/// observable the exactness tests pin: cycles, memory digest, dynamic
/// instructions, iteration bookkeeping, protocol/race state, the full
/// attribution table, and cache statistics.
pub fn oracle_report_agreement(a: &RunReport, b: &RunReport, what: &str) -> Result<(), String> {
    let field = |name: &str, x: u64, y: u64| -> Result<(), String> {
        if x == y {
            Ok(())
        } else {
            Err(format!("{what}: {name} diverge ({x} vs {y})"))
        }
    };
    field("cycles", a.cycles, b.cycles)?;
    field("mem digests", a.mem_digest, b.mem_digest)?;
    field("dynamic instructions", a.dyn_insts, b.dyn_insts)?;
    field("iterations", a.iterations, b.iterations)?;
    field("loop invocations", a.loop_invocations, b.loop_invocations)?;
    if a.protocol_errors != b.protocol_errors {
        return Err(format!("{what}: protocol errors diverge"));
    }
    field(
        "race violation counts",
        a.race_violations.len() as u64,
        b.race_violations.len() as u64,
    )?;
    for bucket in Bucket::ALL {
        field(
            &format!("attribution[{bucket:?}]"),
            a.attribution.total(bucket),
            b.attribution.total(bucket),
        )?;
    }
    field("L1 hits", a.mem_stats.l1_hits, b.mem_stats.l1_hits)?;
    field("L1 misses", a.mem_stats.l1_misses, b.mem_stats.l1_misses)?;
    field(
        "C2C transfers",
        a.mem_stats.c2c_transfers,
        b.mem_stats.c2c_transfers,
    )?;
    Ok(())
}

/// Baseline cleanliness: a report carrying race violations or protocol
/// errors is broken regardless of what any other engine says.
pub fn oracle_sanity(r: &RunReport, what: &str) -> Result<(), String> {
    if !r.race_violations.is_empty() {
        return Err(format!(
            "{what}: {} race violation(s)",
            r.race_violations.len()
        ));
    }
    if !r.protocol_errors.is_empty() {
        return Err(format!(
            "{what}: protocol errors: {}",
            r.protocol_errors.join("; ")
        ));
    }
    Ok(())
}

/// Per-nest accounting: in-context nest weights plus glue weights must
/// sum to 1 (each within [0, 1]) — the differencing that produces them
/// covers the whole composed program exactly once.
pub fn oracle_coverage_sum(rows: &[NestRow]) -> Result<(), String> {
    let mut sum = 0.0;
    for row in rows {
        for (label, v) in [("weight", row.weight), ("glue weight", row.glue_weight)] {
            if !(0.0..=1.0 + COVERAGE_SUM_TOLERANCE).contains(&v) {
                return Err(format!(
                    "nest '{}': {label} {v:.4} outside [0, 1]",
                    row.name
                ));
            }
        }
        sum += row.weight + row.glue_weight;
    }
    if (sum - 1.0).abs() > COVERAGE_SUM_TOLERANCE {
        return Err(format!(
            "nest weights sum to {sum:.4}, expected 1.0 +/- {COVERAGE_SUM_TOLERANCE}"
        ));
    }
    Ok(())
}

/// The Amdahl bound implied by parallel-loop coverage `c` at `cores`.
pub fn amdahl_bound(coverage: f64, cores: usize) -> f64 {
    let c = coverage.clamp(0.0, 1.0);
    1.0 / ((1.0 - c) + c / cores.max(1) as f64)
}

/// Computation speedup may brush the Amdahl bound implied by compiler
/// coverage but never meaningfully exceed it — a violation means cycle
/// accounting or coverage measurement is broken.
///
/// `speedup` must be the *computation* speedup: the sequential run's
/// [`Bucket::Computation`] cycles divided by the parallel wall-clock
/// cycles. Wall-clock speedup is the wrong numerator here — the ring
/// cache legitimately erases memory-stall cycles the sequential
/// baseline pays, so wall speedup can exceed both the Amdahl bound and
/// the core count without anything being broken. Issue work, by
/// contrast, is conserved: the parallel machine still executes every
/// original instruction, so the serial share runs at best as fast as
/// before and the parallel share at best `cores` times faster.
pub fn oracle_amdahl_bound(speedup: f64, coverage: f64, cores: usize) -> Result<(), String> {
    if speedup <= 0.0 || !speedup.is_finite() {
        return Err(format!("speedup {speedup} is not positive and finite"));
    }
    let bound = amdahl_bound(coverage, cores);
    if speedup > bound * AMDAHL_TOLERANCE {
        return Err(format!(
            "computation speedup {speedup:.3}x exceeds the Amdahl bound {bound:.3}x \
             (coverage {coverage:.3}, {cores} cores)"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Per-spec examination
// ---------------------------------------------------------------------

/// Frontier metrics measured for one spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// HELIX-RC speedup over sequential.
    pub speedup: f64,
    /// HCCv3 parallel-loop coverage.
    pub coverage: f64,
    /// `speedup / amdahl_bound(coverage, cores)`.
    pub bound_frac: f64,
    /// Communication fraction of the HELIX-RC run (Fig. 9 definition).
    pub comm_frac: f64,
    /// HCCv1 / HCCv2 speedups on the HELIX-RC machine, when both
    /// generations compiled and ran cleanly.
    pub generations: Option<(f64, f64)>,
}

impl Metrics {
    /// Whether any adjacent generation pair is inverted (earlier
    /// generation faster by more than the margin).
    pub fn inverted(&self) -> bool {
        let Some((v1, v2)) = self.generations else {
            return false;
        };
        v1 > v2 * INVERSION_MARGIN || v2 > self.speedup * INVERSION_MARGIN
    }
}

/// Everything one examined spec produced: oracle verdicts plus
/// frontier metrics (absent when the baseline runs already failed).
#[derive(Debug, Clone)]
pub struct SpecExam {
    /// Failures, in battery order.
    pub failures: Vec<(Oracle, String)>,
    /// Frontier metrics (baseline runs succeeded).
    pub metrics: Option<Metrics>,
    /// Oracle evaluations performed.
    pub checks: usize,
}

/// What every examination starts from: the spec generated at Test
/// scale, its sequential run with the nest cuts marked, its HCCv3
/// compile, and that compile's HELIX-RC run.
struct Baseline {
    program: Program,
    nests: Vec<NestBoundary>,
    seq: RunReport,
    compiled: CompiledProgram,
    helix_cfg: MachineConfig,
    helix: RunReport,
    cores: usize,
    fuel: u64,
}

impl Baseline {
    /// Run the baseline stages in order; the first that fails ends the
    /// examination with its detail (a sanity failure).
    fn run(spec: &ScenarioSpec, opts: &ExploreOptions) -> Result<Baseline, String> {
        let cores = opts.cores.max(1);
        let fuel = opts.fuel;
        let (program, nests) =
            generate_with_nests(spec, Scale::Test).map_err(|e| format!("generate: {e}"))?;
        let cuts: Vec<InstSite> = nests.iter().flat_map(NestBoundary::cuts).collect();
        let seq = Machine::new(&program, &[], MachineConfig::conventional(cores))
            .with_cuts(&cuts)
            .run(fuel)
            .map_err(|e| format!("sequential run: {e:?}"))?;
        let compiled = compile(&program, &HccConfig::v3(cores as u32))
            .map_err(|e| format!("HCCv3 compile: {e:?}"))?;
        let helix_cfg = MachineConfig::helix_rc(cores);
        let helix =
            simulate(&compiled, &helix_cfg, fuel).map_err(|e| format!("helix-rc run: {e:?}"))?;
        Ok(Baseline {
            program,
            nests,
            seq,
            compiled,
            helix_cfg,
            helix,
            cores,
            fuel,
        })
    }

    /// Speedup of a parallel run over the sequential baseline.
    fn speedup(&self, parallel: &RunReport) -> f64 {
        self.seq.cycles as f64 / parallel.cycles.max(1) as f64
    }

    /// Frontier metrics. With `generations`, HCCv1 and HCCv2 are also
    /// compiled and run on the same machine, which isolates the compiler
    /// axis; only [`Metrics::inverted`] reads them. A generation that
    /// fails to compile or run is a frontier gap, not an oracle failure.
    fn metrics(&self, generations: bool) -> Metrics {
        let speedup = self.speedup(&self.helix);
        let coverage = self.compiled.stats.coverage;
        let run = |cfg: HccConfig| {
            let compiled = compile(&self.program, &cfg).ok()?;
            let report = simulate(&compiled, &self.helix_cfg, self.fuel).ok()?;
            Some(self.speedup(&report))
        };
        let cores = self.cores as u32;
        let generations = generations
            .then(|| Some((run(HccConfig::v1(cores))?, run(HccConfig::v2(cores))?)))
            .flatten();
        Metrics {
            speedup,
            coverage,
            bound_frac: speedup / amdahl_bound(coverage, self.cores),
            comm_frac: comm_frac(&self.helix),
            generations,
        }
    }
}

/// Run the full oracle battery over one spec at smoke scale: the
/// baseline that [`measure_metrics`] also runs, every oracle over it,
/// and the same frontier metrics.
pub fn examine_spec(spec: &ScenarioSpec, opts: &ExploreOptions) -> SpecExam {
    let mut exam = SpecExam {
        failures: Vec::new(),
        metrics: None,
        // The baseline is the first check.
        checks: 1,
    };
    match Baseline::run(spec, opts) {
        Ok(base) => {
            run_battery(spec, &base, &mut exam);
            exam.metrics = Some(base.metrics(true));
        }
        Err(detail) => exam.failures.push((Oracle::Sanity, detail)),
    }
    exam
}

/// Every oracle over a clean baseline, failures in battery order.
fn run_battery(spec: &ScenarioSpec, base: &Baseline, exam: &mut SpecExam) {
    let Baseline {
        nests,
        seq,
        compiled,
        helix_cfg,
        helix,
        cores,
        fuel,
        ..
    } = base;
    let (cores, fuel) = (*cores, *fuel);
    let fail = |exam: &mut SpecExam, oracle: Oracle, detail: String| {
        exam.failures.push((oracle, detail));
    };

    for (r, what) in [(seq, "sequential"), (helix, "helix-rc")] {
        exam.checks += 1;
        if let Err(d) = oracle_sanity(r, what) {
            fail(exam, Oracle::Sanity, d);
        }
    }

    // Engine agreement: decoded (baseline) vs tree vs batched.
    let tree = simulate(
        compiled,
        &helix_cfg.clone().with_engine(EngineSel::Tree),
        fuel,
    );
    let batched = simulate(
        compiled,
        &helix_cfg.clone().with_engine(EngineSel::Batched),
        fuel,
    );
    for (engine, run) in [("tree", &tree), ("batched", &batched)] {
        exam.checks += 1;
        match run {
            Ok(r) => {
                if let Err(d) = oracle_report_agreement(helix, r, &format!("decoded vs {engine}")) {
                    fail(exam, Oracle::EngineAgreement, d);
                }
            }
            Err(e) => fail(
                exam,
                Oracle::EngineAgreement,
                format!("{engine} engine failed where decoded succeeded: {e:?}"),
            ),
        }
    }

    // Fast-forward vs the naive cycle loop.
    exam.checks += 1;
    match simulate(compiled, &helix_cfg.clone().without_fast_forward(), fuel) {
        Ok(r) => {
            if let Err(d) = oracle_report_agreement(helix, &r, "fast-forward vs naive") {
                fail(exam, Oracle::FastForward, d);
            }
        }
        Err(e) => fail(
            exam,
            Oracle::FastForward,
            format!("naive loop failed where fast-forward succeeded: {e:?}"),
        ),
    }

    // Lane invariance: a mixed-engine session drain must equal the
    // standalone runs, byte for byte (debug formatting, like the lane
    // exactness pins).
    let expected: [(&str, Result<RunReport, SimError>); 3] = [
        ("decoded", Ok(helix.clone())),
        ("tree", tree),
        ("batched", batched),
    ];
    let mut session = SimSession::new(&compiled.program, &compiled.plans);
    session.enqueue(helix_cfg.clone(), fuel);
    session.enqueue(helix_cfg.clone().with_engine(EngineSel::Tree), fuel);
    session.enqueue(helix_cfg.clone().with_engine(EngineSel::Batched), fuel);
    for (lane, (engine, standalone)) in session.drain().into_iter().zip(expected.iter()) {
        exam.checks += 1;
        let got = format!("{:?}", lane.result);
        let want = format!("{:?}", standalone);
        if got != want {
            fail(
                exam,
                Oracle::LaneInvariance,
                format!(
                    "lane {} ({engine}) diverged from its standalone run",
                    lane.lane
                ),
            );
        }
    }

    // Per-nest coverage accounting (multi-nest specs only).
    if spec.nests.len() >= 2 {
        exam.checks += 1;
        let rows = nest_weights(&spec.name, nests, &seq.marks, seq.cycles).and_then(|weights| {
            nest_rows(spec, Scale::Test, cores, fuel, CompilerGen::V3, &weights)
        });
        match rows {
            Ok(rows) => {
                if let Err(d) = oracle_coverage_sum(&rows) {
                    fail(exam, Oracle::CoverageSum, d);
                }
            }
            Err(e) => fail(exam, Oracle::CoverageSum, format!("nest rows: {e}")),
        }
    }

    // Amdahl bound over conserved issue work (see
    // [`oracle_amdahl_bound`] for why wall speedup is the wrong
    // numerator).
    exam.checks += 1;
    let comp_speedup =
        seq.attribution.total(Bucket::Computation) as f64 / helix.cycles.max(1) as f64;
    if let Err(d) = oracle_amdahl_bound(comp_speedup, compiled.stats.coverage, cores) {
        fail(exam, Oracle::AmdahlBound, d);
    }
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

/// Greedily shrink `spec` while `keep` still accepts the candidate.
///
/// Each round proposes single-step simplifications — halve the problem
/// size, merge nests into one pipeline, zero glue, drop a phase, drop
/// a hot-loop op, flatten a guard into its then-branch, drop the carry
/// chain, shrink doall work — and restarts from the first accepted
/// candidate. Deterministic: candidate order is fixed, `keep` is
/// evaluated at most `max_evals` times, and only candidates passing
/// `ScenarioSpec::validate` are ever offered.
pub fn shrink_spec(
    spec: &ScenarioSpec,
    keep: &mut dyn FnMut(&ScenarioSpec) -> bool,
    max_evals: usize,
) -> ScenarioSpec {
    let mut cur = spec.clone();
    let mut evals = 0;
    'outer: loop {
        for cand in shrink_candidates(&cur) {
            if evals >= max_evals {
                break 'outer;
            }
            if cand.validate().is_err() {
                continue;
            }
            evals += 1;
            if keep(&cand) {
                cur = cand;
                continue 'outer;
            }
        }
        break;
    }
    cur
}

/// All single-step shrinks of `spec`, most aggressive first.
fn shrink_candidates(spec: &ScenarioSpec) -> Vec<ScenarioSpec> {
    let mut out = Vec::new();
    // Halve the problem size.
    if spec.base_n > 16 {
        let mut s = spec.clone();
        s.base_n /= 2;
        out.push(s);
    }
    // Merge a multi-nest spec into one pipeline (private nest regions
    // are promoted to shared so phase references stay resolvable).
    if !spec.nests.is_empty() {
        let mut s = spec.clone();
        for nest in std::mem::take(&mut s.nests) {
            s.regions.extend(nest.regions);
            s.phases.extend(nest.phases);
        }
        out.push(s);
    }
    // Zero out glue stretches.
    for (i, nest) in spec.nests.iter().enumerate() {
        if nest.glue.eval(1) != 0 {
            let mut s = spec.clone();
            s.nests[i].glue = helix_workloads::spec::CountExpr::fixed(0);
            out.push(s);
        }
    }
    // Drop one phase (top-level or inside a nest), keeping at least one
    // phase overall.
    let total_phases = spec.phases.len() + spec.nests.iter().map(|n| n.phases.len()).sum::<usize>();
    if total_phases > 1 {
        for i in 0..spec.phases.len() {
            let mut s = spec.clone();
            s.phases.remove(i);
            out.push(s);
        }
        for (ni, nest) in spec.nests.iter().enumerate() {
            for i in 0..nest.phases.len() {
                let mut s = spec.clone();
                s.nests[ni].phases.remove(i);
                out.push(s);
            }
        }
    }
    // Hot-loop body edits: drop an op, flatten a guard, drop the carry,
    // shrink doall work.
    let mut edit_sites: Vec<(Option<usize>, usize)> = Vec::new();
    for i in 0..spec.phases.len() {
        edit_sites.push((None, i));
    }
    for (ni, nest) in spec.nests.iter().enumerate() {
        for i in 0..nest.phases.len() {
            edit_sites.push((Some(ni), i));
        }
    }
    for (ni, pi) in edit_sites {
        let phase = match ni {
            None => &spec.phases[pi],
            Some(n) => &spec.nests[n].phases[pi],
        };
        let mut variants: Vec<PhaseSpec> = Vec::new();
        match phase {
            PhaseSpec::HotLoop(hl) => {
                for oi in 0..hl.ops.len() {
                    let mut h = hl.clone();
                    match h.ops[oi].clone() {
                        OpSpec::Guard { then_ops, .. } => {
                            // Flatten the guard into its then-branch.
                            h.ops.splice(oi..=oi, then_ops);
                        }
                        _ => {
                            h.ops.remove(oi);
                        }
                    }
                    variants.push(PhaseSpec::HotLoop(h));
                }
                if hl.carry.is_some() {
                    let mut h = hl.clone();
                    h.carry = None;
                    variants.push(PhaseSpec::HotLoop(h));
                }
            }
            PhaseSpec::Doall {
                input,
                output,
                count,
                work,
            } if *work > 1 => {
                variants.push(PhaseSpec::Doall {
                    input: input.clone(),
                    output: output.clone(),
                    count: *count,
                    work: 1,
                });
            }
            _ => {}
        }
        for v in variants {
            let mut s = spec.clone();
            match ni {
                None => s.phases[pi] = v,
                Some(n) => s.nests[n].phases[pi] = v,
            }
            out.push(s);
        }
    }
    out
}

// ---------------------------------------------------------------------
// The run loop
// ---------------------------------------------------------------------

/// Frontier metrics without the oracle battery: the baseline plus the
/// HCCv1/HCCv2 generations, equal to `examine_spec(..).metrics`.
/// `None` when the spec no longer builds or its baseline fails.
pub fn measure_metrics(spec: &ScenarioSpec, opts: &ExploreOptions) -> Option<Metrics> {
    measure(spec, opts, true)
}

/// The baseline's frontier metrics, with or without the generations.
fn measure(spec: &ScenarioSpec, opts: &ExploreOptions, generations: bool) -> Option<Metrics> {
    Baseline::run(spec, opts)
        .ok()
        .map(|base| base.metrics(generations))
}

/// The metrics one request's shrinks have already measured, so a
/// candidate that two shrinks both offer (the min-bound and max-comm
/// hits are often the same spec) is simulated once. Specs are compared
/// by equality; each shrink adds at most [`SHRINK_EVALS`] entries.
struct MetricsMemo<'a> {
    opts: &'a ExploreOptions,
    /// Whether the entries carry the compiler generations.
    generations: bool,
    seen: Vec<(ScenarioSpec, Option<Metrics>)>,
}

impl<'a> MetricsMemo<'a> {
    fn new(opts: &'a ExploreOptions, generations: bool) -> Self {
        MetricsMemo {
            opts,
            generations,
            seen: Vec::new(),
        }
    }

    fn measure(&mut self, spec: &ScenarioSpec) -> Option<Metrics> {
        if let Some((_, metrics)) = self.seen.iter().find(|(s, _)| s == spec) {
            return *metrics;
        }
        let metrics = measure(spec, self.opts, self.generations);
        self.seen.push((spec.clone(), metrics));
        metrics
    }
}

/// Run `helix explore`: examine `budget` generated specs, shrink every
/// failure and frontier extreme, and assemble the deterministic
/// report. Exports shrunk TOMLs to `opts.export_dir` when set.
pub fn run_explore(opts: &ExploreOptions) -> Result<ExploreReport, HelixError> {
    if opts.budget == 0 {
        return Err(HelixError::usage("explore budget must be >= 1"));
    }
    // Every examined spec runs on a helix-rc machine, whose ring needs
    // a power-of-two node count, bounded like any other core count.
    if !opts.cores.is_power_of_two() || opts.cores > MAX_CORES {
        return Err(HelixError::usage(format!(
            "explore cores must be a power of two in 1..={MAX_CORES}, got {}",
            opts.cores
        ))
        .with_field("--cores")
        .with_value(opts.cores.to_string()));
    }
    let gen = SpecGen::new(opts.seed);
    let mut report = ExploreReport {
        seed: opts.seed,
        budget: opts.budget,
        cores: opts.cores,
        fuel: opts.fuel,
        specs_run: 0,
        oracle_checks: 0,
        failures: Vec::new(),
        frontier: Frontier::default(),
    };
    // (index, spec, metrics) of the current frontier extremes.
    let mut min_bound: Option<(u64, ScenarioSpec, f64)> = None;
    let mut max_comm: Option<(u64, ScenarioSpec, f64)> = None;
    let mut inversions: Vec<(u64, ScenarioSpec, Metrics)> = Vec::new();

    for index in 0..opts.budget as u64 {
        let spec = gen.spec(index);
        let exam = examine_spec(&spec, opts);
        report.specs_run += 1;
        report.oracle_checks += exam.checks;
        for (oracle, detail) in &exam.failures {
            let shrunk = shrink_spec(
                &spec,
                &mut |cand| {
                    examine_spec(cand, opts)
                        .failures
                        .iter()
                        .any(|(o, _)| o == oracle)
                },
                SHRINK_EVALS,
            );
            report.failures.push(Finding {
                index,
                spec: spec.name.clone(),
                oracle: oracle.label(),
                detail: detail.clone(),
                shrunk_toml: shrunk.to_toml(),
            });
        }
        if let Some(m) = exam.metrics {
            if min_bound.as_ref().is_none_or(|(_, _, v)| m.bound_frac < *v) {
                min_bound = Some((index, spec.clone(), m.bound_frac));
            }
            if max_comm.as_ref().is_none_or(|(_, _, v)| m.comm_frac > *v) {
                max_comm = Some((index, spec.clone(), m.comm_frac));
            }
            if m.inverted() {
                inversions.push((index, spec, m));
            }
        }
    }

    // Shrink the frontier extremes: the minimal spec must still be at
    // least as extreme as the original hit (small tolerance, so a
    // shrink step can't ratchet the metric away). Neither predicate
    // reads the compiler generations, so their candidates skip them.
    let mut memo = MetricsMemo::new(opts, false);
    if let Some((index, spec, value)) = min_bound {
        let shrunk = shrink_spec(
            &spec,
            &mut |cand| {
                memo.measure(cand)
                    .is_some_and(|m| m.bound_frac <= value + 0.05)
            },
            SHRINK_EVALS,
        );
        report.frontier.min_bound_frac = Some(FrontierHit {
            index,
            spec: spec.name,
            value,
            toml: shrunk.to_toml(),
        });
    }
    if let Some((index, spec, value)) = max_comm {
        let shrunk = shrink_spec(
            &spec,
            &mut |cand| {
                memo.measure(cand)
                    .is_some_and(|m| m.comm_frac >= value - 0.05)
            },
            SHRINK_EVALS,
        );
        report.frontier.max_comm_frac = Some(FrontierHit {
            index,
            spec: spec.name,
            value,
            toml: shrunk.to_toml(),
        });
    }
    // The inversion predicate reads the generations, which the entries
    // so far lack.
    memo = MetricsMemo::new(opts, true);
    for (i, (index, spec, m)) in inversions.into_iter().enumerate() {
        let toml = if i < SHRUNK_INVERSIONS {
            shrink_spec(
                &spec,
                &mut |cand| memo.measure(cand).is_some_and(|c| c.inverted()),
                SHRINK_EVALS,
            )
            .to_toml()
        } else {
            String::new()
        };
        let (v1, v2) = m.generations.unwrap_or((0.0, 0.0));
        report.frontier.inversions.push(InversionHit {
            index,
            spec: spec.name,
            v1,
            v2,
            helix_rc: m.speedup,
            toml,
        });
    }

    if let Some(dir) = &opts.export_dir {
        export_keepers(dir, &report)?;
    }
    Ok(report)
}

/// Write every shrunk failure/frontier TOML in `report` into `dir`
/// (created if missing), named by origin so a directory of keepers
/// reads as an index of what explore found.
fn export_keepers(dir: &std::path::Path, report: &ExploreReport) -> Result<(), HelixError> {
    let write = |name: String, text: &str| -> Result<(), HelixError> {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| HelixError::io(format!("{}: {e}", path.display())))
    };
    std::fs::create_dir_all(dir).map_err(|e| HelixError::io(format!("{}: {e}", dir.display())))?;
    for f in &report.failures {
        write(
            format!("fail-{}-{}.toml", f.index, f.oracle),
            &f.shrunk_toml,
        )?;
    }
    if let Some(h) = &report.frontier.min_bound_frac {
        write("frontier-min-bound-frac.toml".into(), &h.toml)?;
    }
    if let Some(h) = &report.frontier.max_comm_frac {
        write("frontier-max-comm-frac.toml".into(), &h.toml)?;
    }
    for inv in &report.frontier.inversions {
        if !inv.toml.is_empty() {
            write(format!("inversion-{}.toml", inv.index), &inv.toml)?;
        }
    }
    Ok(())
}
