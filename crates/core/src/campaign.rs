//! Campaign execution: run a declarative [`CampaignSpec`] — one config
//! file naming a set of scenario specs plus a machine/compiler grid —
//! and aggregate every cell into a single [`CampaignReport`].
//!
//! Each grid cell (scenario × experiment × core count) lowers onto the
//! corresponding [`crate::experiment`] function, cells execute in
//! parallel via rayon, and aggregation is stable-ordered: cells are
//! enumerated deterministically up front and results are collected
//! positionally, so the report never depends on thread timing. Nothing
//! wall-clock-dependent enters the report, which makes it byte-identical
//! across runs of the same campaign + seed — the property the
//! per-scenario CI speedup gate and the determinism tests rely on.

use crate::api::RunOptions;
use crate::batch::SimCache;
use crate::experiment::{
    compiler_generations, coupled_vs_ring, decoupling_lattice, link_latency_settings,
    node_memory_settings, overhead_breakdown, signal_bandwidth_settings, sweep_core_count,
    sweep_ring, CompilerGenerations, ExpError, ExperimentOptions, FUEL,
};
use crate::json::Json;
use crate::resilient::{
    cell_fuel, fnv1a, run_cell_resilient, CellFailure, Fault, Journal, FNV_OFFSET,
};
use crate::scenario::{nest_rows, nest_weights};
use helix_hcc::HccConfig;
use helix_workloads::spec::{CompilerGen, CountExpr};
use helix_workloads::{
    geomean, workload_from_spec, CampaignExperiment, CampaignSpec, Scale, ScenarioSpec, Workload,
};
use rayon::prelude::*;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

/// One aggregated grid cell: a scenario measured by one experiment at
/// one core count. Headline fields are `Some` when the experiment
/// produces them; `points` always carries the experiment's full set of
/// labelled measurements in a stable order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignRow {
    /// Scenario name.
    pub scenario: String,
    /// `"int"` or `"fp"`.
    pub kind: String,
    /// Experiment name (see [`CampaignExperiment::render`]).
    pub experiment: String,
    /// Core count of this cell (the largest swept count for
    /// `core_sweep`).
    pub cores: usize,
    /// HELIX-RC speedup over the sequential baseline.
    pub helix_speedup: Option<f64>,
    /// Published speedup, when the paper measured this scenario.
    pub paper_speedup: Option<f64>,
    /// Sequential baseline cycles.
    pub seq_cycles: Option<u64>,
    /// HELIX-RC run cycles.
    pub helix_cycles: Option<u64>,
    /// Fraction of ring-run busy cycles spent communicating.
    pub comm_frac: Option<f64>,
    /// Fig. 12 overhead fractions.
    pub overheads: Option<[f64; 7]>,
    /// All labelled measurements of the experiment, in its native order.
    pub points: Vec<(String, f64)>,
}

/// One nest's contribution to a [`DerivedRow`].
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedNestRow {
    /// Nest name.
    pub name: String,
    /// In-context fraction of sequential cycles spent in the nest.
    pub weight: f64,
    /// In-context fraction spent in the glue preceding the nest.
    pub glue_weight: f64,
    /// Compiler coverage inside the isolated nest.
    pub coverage: f64,
    /// Fraction of the *whole program's* profiled execution covered by
    /// parallelized loops inside this nest's block boundary (mapped via
    /// the generation-time [`NestBoundary`](helix_workloads::NestBoundary)).
    pub program_coverage: f64,
    /// Parallelized loops inside the nest.
    pub plans: usize,
    /// Isolated-nest HELIX-RC speedup.
    pub speedup: f64,
}

/// Cross-scenario *derived* metrics for one scenario: how the measured
/// HELIX-RC speedup relates to the coverage the compiler achieved —
/// the speedup-vs-coverage axis the paper's Table 1 / Fig. 7 pairing
/// implies — plus the per-nest breakdown for multi-nest scenarios.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DerivedRow {
    /// Scenario name.
    pub scenario: String,
    /// `"int"` or `"fp"`.
    pub kind: String,
    /// Core count the derivation ran at.
    pub cores: usize,
    /// Parallel-loop coverage achieved by HCCv3 on the whole program.
    pub coverage: f64,
    /// Measured HELIX-RC speedup (from the `generations` row).
    pub speedup: f64,
    /// Amdahl-style coverage-limited bound at this core count:
    /// `1 / ((1 - c) + c / cores)`.
    pub amdahl_bound: f64,
    /// Fraction of the bound the measured speedup attains.
    pub bound_frac: f64,
    /// Per-nest rows (empty for single-pipeline scenarios).
    pub nests: Vec<DerivedNestRow>,
}

/// The aggregated result of one campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// Campaign description.
    pub description: String,
    /// `"Test"` or `"Full"`.
    pub scale: String,
    /// Seed offset the campaign applied to every scenario.
    pub seed: i64,
    /// Scenario names, sorted (the sweep's row universe).
    pub scenarios: Vec<String>,
    /// One row per grid cell, grouped by experiment then cores then
    /// scenario.
    pub rows: Vec<CampaignRow>,
    /// Derived speedup-vs-coverage metrics, one row per scenario
    /// (present when the campaign ran the `generations` experiment).
    pub derived: Vec<DerivedRow>,
    /// Cells that failed (panic / error / budget), in deterministic
    /// cell-enumeration order. A failed cell contributes no row but
    /// never aborts the run.
    pub failures: Vec<CellFailure>,
}

impl CampaignReport {
    /// Per-scenario headline HELIX-RC speedups, from the first
    /// `generations` row of each scenario. This is the series the CI
    /// per-scenario regression gate compares against its committed
    /// baseline.
    pub fn helix_speedups(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = Vec::new();
        for row in &self.rows {
            if row.experiment == "generations" && !out.iter().any(|(n, _)| *n == row.scenario) {
                if let Some(s) = row.helix_speedup {
                    out.push((row.scenario.clone(), s));
                }
            }
        }
        out
    }

    /// Render as a deterministic JSON document (no wall-clock fields:
    /// two runs of the same campaign + seed are byte-identical).
    pub fn to_json(&self) -> String {
        let f4 = |v: f64| Json::fixed(v, 4);
        let row = |row: &CampaignRow| {
            let points = row
                .points
                .iter()
                .map(|(label, value)| Json::obj().with("label", label).with("value", f4(*value)))
                .collect::<Vec<_>>();
            Json::obj()
                .with("scenario", &row.scenario)
                .with("kind", &row.kind)
                .with("experiment", &row.experiment)
                .with("cores", row.cores)
                .with_opt("helix_speedup", row.helix_speedup.map(f4))
                .with_opt("paper_speedup", row.paper_speedup.map(f4))
                .with_opt("seq_cycles", row.seq_cycles)
                .with_opt("helix_cycles", row.helix_cycles)
                .with_opt("comm_frac", row.comm_frac.map(f4))
                .with_opt("overheads", row.overheads.map(|o| o.map(f4).to_vec()))
                .with("points", points)
        };
        let nest = |nest: &DerivedNestRow| {
            Json::obj()
                .with("name", &nest.name)
                .with("weight", f4(nest.weight))
                .with("glue_weight", f4(nest.glue_weight))
                .with("coverage", f4(nest.coverage))
                .with("program_coverage", f4(nest.program_coverage))
                .with("plans", nest.plans)
                .with("speedup", f4(nest.speedup))
        };
        let derived = |d: &DerivedRow| {
            Json::obj()
                .with("scenario", &d.scenario)
                .with("kind", &d.kind)
                .with("cores", d.cores)
                .with("coverage", f4(d.coverage))
                .with("speedup", f4(d.speedup))
                .with("amdahl_bound", f4(d.amdahl_bound))
                .with("bound_frac", f4(d.bound_frac))
                .with_nonempty("nests", d.nests.iter().map(nest).collect())
        };
        let failure = |f: &CellFailure| {
            Json::obj()
                .with("scenario", &f.scenario)
                .with("experiment", &f.experiment)
                .with("cores", f.cores)
                .with("kind", f.kind.render())
                .with("retries", f.retries)
                .with("message", &f.message)
        };
        Json::obj()
            .with("harness", "campaign")
            .with("schema_version", crate::report::SCHEMA_VERSION)
            .with("name", &self.name)
            .with("description", &self.description)
            .with("scale", &self.scale)
            .with("seed", self.seed)
            .with(
                "scenarios",
                self.scenarios.iter().map(Json::from).collect::<Vec<_>>(),
            )
            .with("rows", self.rows.iter().map(row).collect::<Vec<_>>())
            .with_nonempty("derived", self.derived.iter().map(derived).collect())
            .with_nonempty("failures", self.failures.iter().map(failure).collect())
            .document()
    }

    /// Render paper-style text tables: one table per (experiment, core
    /// count) group, with INT/FP geomean rows where speedups are
    /// comparable across scenarios.
    pub fn table(&self) -> String {
        use crate::report::{table, x};
        let mut out = String::new();
        let _ = writeln!(
            out,
            "campaign '{}' — {} scenario(s), scale {}{}",
            self.name,
            self.scenarios.len(),
            self.scale,
            if self.seed != 0 {
                format!(", seed offset {}", self.seed)
            } else {
                String::new()
            }
        );
        let mut groups: Vec<(String, usize)> = Vec::new();
        for row in &self.rows {
            let key = (row.experiment.clone(), row.cores);
            if !groups.contains(&key) {
                groups.push(key);
            }
        }
        for (experiment, cores) in groups {
            let rows: Vec<&CampaignRow> = self
                .rows
                .iter()
                .filter(|r| r.experiment == experiment && r.cores == cores)
                .collect();
            let _ = writeln!(out, "\n== {experiment} @ {cores} cores ==");
            let labels: Vec<String> = rows
                .first()
                .map(|r| r.points.iter().map(|(l, _)| l.clone()).collect())
                .unwrap_or_default();
            let with_paper = rows.iter().any(|r| r.paper_speedup.is_some());
            let mut headers: Vec<&str> = vec!["benchmark"];
            headers.extend(labels.iter().map(String::as_str));
            if with_paper {
                headers.push("paper HELIX-RC");
            }
            let fmt_cell = |label: &str, v: f64| -> String {
                // Percent-style labels render as percentages, speedups
                // as "N.NNx".
                if label.contains('%') || label.contains("frac") {
                    format!("{v:.1}")
                } else {
                    x(v)
                }
            };
            let mut body: Vec<Vec<String>> = Vec::new();
            for r in &rows {
                let mut cells = vec![r.scenario.clone()];
                for (label, v) in &r.points {
                    cells.push(fmt_cell(label, *v));
                }
                if with_paper {
                    cells.push(r.paper_speedup.map(x).unwrap_or_else(|| "-".into()));
                }
                body.push(cells);
            }
            // Geomean rows make sense when every point is a speedup.
            let all_speedups = !labels.is_empty()
                && labels
                    .iter()
                    .all(|l| !l.contains('%') && !l.contains("frac"));
            if all_speedups {
                for (kind, tag) in [("int", "INT geomean"), ("fp", "FP geomean")] {
                    let of_kind: Vec<&CampaignRow> =
                        rows.iter().copied().filter(|r| r.kind == kind).collect();
                    // Next to a paper column the geomean row is like for
                    // like: only rows with a published number. The
                    // all-rows figure, when it differs, gets its own row.
                    let comparable: Vec<&CampaignRow> = of_kind
                        .iter()
                        .copied()
                        .filter(|r| !with_paper || r.paper_speedup.is_some())
                        .collect();
                    let all_rows = (comparable.len() < of_kind.len())
                        .then(|| (format!("{tag} (all)"), of_kind));
                    let geomean_rows =
                        std::iter::once((tag.to_string(), comparable)).chain(all_rows);
                    for (label, set) in geomean_rows {
                        if set.is_empty() {
                            continue;
                        }
                        let mut cells = vec![label];
                        for col in 0..labels.len() {
                            cells.push(x(geomean(set.iter().map(|r| r.points[col].1))));
                        }
                        if with_paper {
                            let published: Vec<f64> =
                                set.iter().filter_map(|r| r.paper_speedup).collect();
                            cells.push(if published.len() == set.len() {
                                x(geomean(published))
                            } else {
                                "-".into()
                            });
                        }
                        body.push(cells);
                    }
                }
            }
            out.push_str(&table(&headers, &body));
        }
        out.push_str(&self.derived_tables());
        if !self.failures.is_empty() {
            let _ = writeln!(out, "\n== failures ({}) ==", self.failures.len());
            for f in &self.failures {
                let _ = writeln!(out, "  - {f}");
            }
        }
        out
    }

    /// Render the derived speedup-vs-coverage table and, when the
    /// campaign contains multi-nest scenarios, the per-nest breakdown.
    fn derived_tables(&self) -> String {
        use crate::report::{table, x};
        if self.derived.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        let cores = self.derived[0].cores;
        let _ = writeln!(out, "\n== speedup vs coverage @ {cores} cores ==");
        let pct = |v: f64| format!("{:.1}", 100.0 * v);
        let body: Vec<Vec<String>> = self
            .derived
            .iter()
            .map(|d| {
                vec![
                    d.scenario.clone(),
                    pct(d.coverage),
                    x(d.speedup),
                    x(d.amdahl_bound),
                    pct(d.bound_frac),
                ]
            })
            .collect();
        out.push_str(&table(
            &[
                "benchmark",
                "coverage %",
                "HELIX-RC",
                "Amdahl bound",
                "% of bound",
            ],
            &body,
        ));
        let with_nests: Vec<&DerivedRow> = self
            .derived
            .iter()
            .filter(|d| !d.nests.is_empty())
            .collect();
        if !with_nests.is_empty() {
            let _ = writeln!(out, "\n== per-nest breakdown @ {cores} cores ==");
            let mut body: Vec<Vec<String>> = Vec::new();
            for d in with_nests {
                for nest in &d.nests {
                    body.push(vec![
                        d.scenario.clone(),
                        nest.name.clone(),
                        pct(nest.weight),
                        pct(nest.glue_weight),
                        pct(nest.coverage),
                        pct(nest.program_coverage),
                        nest.plans.to_string(),
                        x(nest.speedup),
                    ]);
                }
            }
            out.push_str(&table(
                &[
                    "benchmark",
                    "nest",
                    "weight %",
                    "glue %",
                    "nest cov %",
                    "prog cov %",
                    "plans",
                    "speedup",
                ],
                &body,
            ));
        }
        out
    }
}

/// Apply the grid's `[grid.nest_override]` when present: every scenario
/// declaring the named nest is replaced by one variant per glue value —
/// name-suffixed `name+glue=N`, with that nest's glue count pinned to
/// the constant — so one campaign run sweeps the nest's sequential
/// fraction. Scenarios without the nest pass through unchanged; at
/// least one scenario must have it, else the sweep would silently
/// measure nothing.
fn expand_nest_override(
    spec: &CampaignSpec,
    reseeded: Vec<ScenarioSpec>,
) -> Result<Vec<ScenarioSpec>, ExpError> {
    let Some(ov) = &spec.grid.nest_override else {
        return Ok(reseeded);
    };
    let mut out: Vec<ScenarioSpec> = Vec::with_capacity(reseeded.len() * ov.glue.len());
    let mut matched = false;
    for s in reseeded {
        let Some(nest_ix) = s.nests.iter().position(|n| n.name == ov.nest) else {
            out.push(s);
            continue;
        };
        matched = true;
        for &glue in &ov.glue {
            let mut variant = s.clone();
            variant.name = format!("{}+glue={glue}", s.name);
            variant.nests[nest_ix].glue = CountExpr::fixed(glue);
            out.push(variant);
        }
    }
    if !matched {
        return Err(ExpError::new(
            crate::error::ErrorKind::Spec,
            format!(
                "campaign '{}': grid.nest_override names nest '{}' but no scenario declares it",
                spec.name, ov.nest
            ),
        ));
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(out)
}

/// One deterministic grid cell, enumerated before execution.
#[derive(Debug, Clone, Copy)]
struct Cell {
    scenario_ix: usize,
    experiment: CampaignExperiment,
    cores: usize,
    /// Whether the cell also measures its scenario's [`DerivedRow`]:
    /// true for the `generations` cell at the largest grid core count.
    derives: bool,
}

fn paper_speedup(w: &Workload) -> Option<f64> {
    (w.paper.helix_speedup > 0.0).then_some(w.paper.helix_speedup)
}

/// Run one grid cell: its row and, when [`Cell::derives`], its
/// scenario's derived row.
fn run_cell(
    cell: Cell,
    sweep_cores: &[usize],
    scenario: &ScenarioSpec,
    w: &Workload,
    scale: Scale,
    opts: &ExperimentOptions,
) -> Result<(CampaignRow, Option<DerivedRow>), ExpError> {
    let mut row = CampaignRow {
        scenario: w.name.clone(),
        kind: w.kind.render().into(),
        experiment: cell.experiment.render().into(),
        cores: cell.cores,
        ..CampaignRow::default()
    };
    let mut derived = None;
    match cell.experiment {
        CampaignExperiment::Generations => {
            let r = compiler_generations(w, cell.cores, opts)?;
            row.points = vec![
                ("HCCv1".into(), r.v1),
                ("HCCv2".into(), r.v2),
                ("HELIX-RC".into(), r.helix_rc),
            ];
            row.helix_speedup = Some(r.helix_rc);
            row.paper_speedup = paper_speedup(w);
            row.seq_cycles = Some(r.seq_cycles);
            row.helix_cycles = Some(r.helix_cycles);
            if cell.derives {
                derived = Some(derived_row(scenario, w, scale, cell.cores, &r, opts)?);
            }
        }
        CampaignExperiment::CoupledVsRing => {
            let r = coupled_vs_ring(w, cell.cores, opts)?;
            row.points = vec![
                ("C % of seq".into(), r.conventional_pct),
                ("R % of seq".into(), r.ring_pct),
                ("C comm frac %".into(), 100.0 * r.conventional_comm_frac),
                ("R comm frac %".into(), 100.0 * r.ring_comm_frac),
            ];
            row.comm_frac = Some(r.ring_comm_frac);
        }
        CampaignExperiment::Overheads => {
            let r = overhead_breakdown(w, cell.cores, opts)?;
            row.points = vec![("speedup".into(), r.speedup)];
            row.helix_speedup = Some(r.speedup);
            row.paper_speedup = paper_speedup(w);
            row.overheads = Some(r.measured);
        }
        CampaignExperiment::Lattice => {
            let pts = decoupling_lattice(w, cell.cores, opts)?;
            row.helix_speedup = pts.last().map(|(_, s)| *s);
            row.points = pts
                .into_iter()
                .map(|(p, s)| (p.label().to_string(), s))
                .collect();
        }
        CampaignExperiment::CoreSweep => {
            row.points = sweep_core_count(w, sweep_cores, opts)?;
            row.helix_speedup = row.points.last().map(|(_, s)| *s);
        }
        CampaignExperiment::RingLatency => {
            row.points = sweep_ring(w, cell.cores, &link_latency_settings(), opts)?;
        }
        CampaignExperiment::RingBandwidth => {
            row.points = sweep_ring(w, cell.cores, &signal_bandwidth_settings(), opts)?;
        }
        CampaignExperiment::RingMemory => {
            row.points = sweep_ring(w, cell.cores, &node_memory_settings(), opts)?;
        }
    }
    Ok((row, derived))
}

/// The derived speedup-vs-coverage row of one scenario, anchored on its
/// `generations` measurement `gens` at `cores`: HCCv3's whole-program
/// coverage and its Amdahl bound, plus per-nest breakdowns for
/// multi-nest scenarios (in-context weights from the marks of the
/// generations cell's own sequential run, per-nest speedups from
/// isolated-nest simulations, and plan→nest attribution through the
/// recorded block boundaries).
fn derived_row(
    scenario: &ScenarioSpec,
    w: &Workload,
    scale: Scale,
    cores: usize,
    gens: &CompilerGenerations,
    opts: &ExperimentOptions,
) -> Result<DerivedRow, ExpError> {
    let compiled = opts.compile(&w.program, &HccConfig::v3(cores as u32))?;
    let coverage = compiled.stats.coverage.clamp(0.0, 1.0);
    let amdahl_bound = 1.0 / ((1.0 - coverage) + coverage / cores as f64);
    // Everything in a derived row is v3-anchored (the headline speedup
    // is the generations experiment's HELIX-RC run and program_coverage
    // comes from the v3 compile above), so the isolated nests compile
    // with v3 too, regardless of the scenario's own `run.compiler`.
    let weights = nest_weights(&w.name, &w.nests, &gens.seq_marks, gens.seq_cycles)?;
    let nests = nest_rows(scenario, scale, cores, opts.fuel, CompilerGen::V3, &weights)?
        .into_iter()
        .zip(&w.nests)
        .map(|(row, boundary)| {
            let (program_coverage, _) =
                compiled.coverage_in_blocks(boundary.first_block, boundary.end_block);
            DerivedNestRow {
                name: row.name,
                weight: row.weight,
                glue_weight: row.glue_weight,
                coverage: row.coverage,
                program_coverage,
                plans: row.plans,
                speedup: row.speedup,
            }
        })
        .collect();
    Ok(DerivedRow {
        scenario: w.name.clone(),
        kind: w.kind.render().into(),
        cores,
        coverage,
        speedup: gens.helix_rc,
        amdahl_bound,
        bound_frac: gens.helix_rc / amdahl_bound,
        nests,
    })
}

/// Journal cell-file encoding of one [`CampaignRow`] and, for the cell
/// that measures it, the scenario's [`DerivedRow`] (a `derived` record
/// plus one `nest` record per nest; its scenario, kind and cores are
/// the row's). Floats are stored as `f64::to_bits` hex so a journaled
/// row decodes to the *exact* value that was measured — the property
/// that makes a resumed report byte-identical to an uninterrupted one.
fn encode_row(row: &CampaignRow, derived: Option<&DerivedRow>) -> String {
    let mut out = String::from("helix-cell v1\n");
    let _ = writeln!(out, "scenario\t{}", row.scenario);
    let _ = writeln!(out, "kind\t{}", row.kind);
    let _ = writeln!(out, "experiment\t{}", row.experiment);
    let _ = writeln!(out, "cores\t{}", row.cores);
    if let Some(v) = row.helix_speedup {
        let _ = writeln!(out, "helix_speedup\t{:016x}", v.to_bits());
    }
    if let Some(v) = row.paper_speedup {
        let _ = writeln!(out, "paper_speedup\t{:016x}", v.to_bits());
    }
    if let Some(v) = row.seq_cycles {
        let _ = writeln!(out, "seq_cycles\t{v}");
    }
    if let Some(v) = row.helix_cycles {
        let _ = writeln!(out, "helix_cycles\t{v}");
    }
    if let Some(v) = row.comm_frac {
        let _ = writeln!(out, "comm_frac\t{:016x}", v.to_bits());
    }
    if let Some(o) = row.overheads {
        let cells: Vec<String> = o.iter().map(|v| format!("{:016x}", v.to_bits())).collect();
        let _ = writeln!(out, "overheads\t{}", cells.join(" "));
    }
    for (label, value) in &row.points {
        // Label last: labels may contain anything but newlines/tabs.
        let _ = writeln!(out, "point\t{:016x}\t{label}", value.to_bits());
    }
    if let Some(d) = derived {
        let _ = writeln!(
            out,
            "derived\t{:016x}\t{:016x}\t{:016x}\t{:016x}",
            d.coverage.to_bits(),
            d.speedup.to_bits(),
            d.amdahl_bound.to_bits(),
            d.bound_frac.to_bits()
        );
        for nest in &d.nests {
            // Name last, like point labels.
            let _ = writeln!(
                out,
                "nest\t{:016x}\t{:016x}\t{:016x}\t{:016x}\t{}\t{:016x}\t{}",
                nest.weight.to_bits(),
                nest.glue_weight.to_bits(),
                nest.coverage.to_bits(),
                nest.program_coverage.to_bits(),
                nest.plans,
                nest.speedup.to_bits(),
                nest.name
            );
        }
    }
    out
}

/// Decode a journaled cell file into its row and derived row. `None` on
/// any malformed input — the caller treats that as a cache miss and
/// re-runs the cell.
fn decode_row(text: &str) -> Option<(CampaignRow, Option<DerivedRow>)> {
    let mut lines = text.lines();
    if lines.next()? != "helix-cell v1" {
        return None;
    }
    let f64_of = |s: &str| u64::from_str_radix(s, 16).ok().map(f64::from_bits);
    let mut row = CampaignRow::default();
    let mut derived: Option<DerivedRow> = None;
    for line in lines {
        let (key, rest) = line.split_once('\t')?;
        match key {
            "scenario" => row.scenario = rest.to_string(),
            "kind" => row.kind = rest.to_string(),
            "experiment" => row.experiment = rest.to_string(),
            "cores" => row.cores = rest.parse().ok()?,
            "helix_speedup" => row.helix_speedup = Some(f64_of(rest)?),
            "paper_speedup" => row.paper_speedup = Some(f64_of(rest)?),
            "seq_cycles" => row.seq_cycles = Some(rest.parse().ok()?),
            "helix_cycles" => row.helix_cycles = Some(rest.parse().ok()?),
            "comm_frac" => row.comm_frac = Some(f64_of(rest)?),
            "overheads" => {
                let vals: Vec<f64> = rest.split(' ').map_while(f64_of).collect();
                row.overheads = Some(<[f64; 7]>::try_from(vals).ok()?);
            }
            "point" => {
                let (bits, label) = rest.split_once('\t')?;
                row.points.push((label.to_string(), f64_of(bits)?));
            }
            "derived" => {
                let vals: Vec<f64> = rest.split('\t').map(f64_of).collect::<Option<_>>()?;
                let [coverage, speedup, amdahl_bound, bound_frac] = vals[..] else {
                    return None;
                };
                derived = Some(DerivedRow {
                    coverage,
                    speedup,
                    amdahl_bound,
                    bound_frac,
                    ..DerivedRow::default()
                });
            }
            "nest" => {
                let mut parts = rest.splitn(7, '\t');
                derived.as_mut()?.nests.push(DerivedNestRow {
                    weight: f64_of(parts.next()?)?,
                    glue_weight: f64_of(parts.next()?)?,
                    coverage: f64_of(parts.next()?)?,
                    program_coverage: f64_of(parts.next()?)?,
                    plans: parts.next()?.parse().ok()?,
                    speedup: f64_of(parts.next()?)?,
                    name: parts.next()?.to_string(),
                });
            }
            _ => return None,
        }
    }
    if row.scenario.is_empty() || row.experiment.is_empty() || row.cores == 0 {
        return None;
    }
    if let Some(d) = &mut derived {
        d.scenario = row.scenario.clone();
        d.kind = row.kind.clone();
        d.cores = row.cores;
    }
    Some((row, derived))
}

/// Load a campaign file and every scenario spec it references. Errors
/// name the offending file — a campaign whose scenario set cannot be
/// resolved fails before any simulation starts.
pub fn load_campaign(path: &Path) -> Result<(CampaignSpec, Vec<ScenarioSpec>), ExpError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ExpError::io(format!("cannot read campaign '{}': {e}", path.display())))?;
    let spec = CampaignSpec::from_toml(&text)
        .map_err(|e| ExpError::from(e).with_file(path.display().to_string()))?;
    let base = path.parent().unwrap_or_else(|| Path::new("."));
    let files = spec
        .resolve_scenarios(base)
        .map_err(|e| ExpError::from(e).with_file(path.display().to_string()))?;
    let mut scenarios = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(&file)
            .map_err(|e| ExpError::io(format!("cannot read scenario '{}': {e}", file.display())))?;
        let scenario = ScenarioSpec::from_toml(&text)
            .map_err(|e| ExpError::from(e).with_file(file.display().to_string()))?;
        scenarios.push(scenario);
    }
    scenarios.sort_by(|a, b| a.name.cmp(&b.name));
    for pair in scenarios.windows(2) {
        if pair[0].name == pair[1].name {
            return Err(ExpError::new(
                crate::error::ErrorKind::Spec,
                format!("scenario '{}' is matched more than once", pair[0].name),
            )
            .with_file(path.display().to_string())
            .with_value(pair[0].name.clone()));
        }
    }
    Ok((spec, scenarios))
}

/// Execution counters of one campaign run: how many grid cells were
/// enumerated and how each was answered. Deliberately *not* part of
/// [`CampaignReport`] — hit counts depend on journal state, and the
/// report must stay byte-identical between a cold run and a fully
/// journal-answered one. The service carries these counters in its
/// response envelope instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignRunStats {
    /// Grid cells enumerated (scenario × experiment × cores).
    pub cells: usize,
    /// Grid cells answered from the journal without simulating.
    pub journal_hits: usize,
    /// Grid cells actually simulated.
    pub simulated: usize,
    /// Grid cells that failed (they are re-attempted on resume).
    pub failed: usize,
    /// Derived rows answered from the journal.
    pub derived_hits: usize,
    /// Derived rows computed (each simulates its isolated nests).
    pub derived_computed: usize,
}

impl CampaignRunStats {
    /// Whether the run touched the simulator at all — `false` means
    /// every cell *and* every derived row came out of the journal.
    pub fn fully_cached(&self) -> bool {
        self.simulated == 0 && self.derived_computed == 0 && self.failed == 0
    }
}

/// Run a campaign over already-loaded scenario specs: apply the
/// campaign's seed offset, lower every grid cell onto its experiment
/// function, execute the cells in parallel, and aggregate in a stable
/// order. Returns the report plus execution counters.
///
/// Of `options` the runner reads `journal`, `resume`, `faults` and
/// `lanes`; the spec already carries the scale and the `[resilience]`
/// policy (callers apply those overrides first, as
/// [`api::execute`](crate::api::execute) does). Of `sim` it reads the
/// engine and `fast_forward`: its fuel and cache are set per cell. None
/// of this changes report *content* — any lane width and any engine
/// give byte-identical reports (pinned by `tests/lane_exactness.rs`).
///
/// With `lanes > 1` every scenario shares one [`SimCache`] across its
/// cells, so compiles, decodes, and duplicated runs (sequential
/// baselines above all) happen once; that cache is all `lanes` turns
/// on. Fault-injected cells always run without the shared cache,
/// preserving per-cell failure isolation.
///
/// The `generations` cell at the largest grid core count also measures
/// its scenario's [`DerivedRow`] and journals it in the same file, so a
/// derivation failure is that cell's failure and a resumed cell brings
/// its derived row back with it.
///
/// Every cell runs behind the resilient layer
/// ([`run_cell_resilient`]): panics are caught at the cell boundary,
/// failures are classified and (when transient) retried per the spec's
/// [`ResiliencePolicy`](helix_workloads::ResiliencePolicy), and a
/// failed cell becomes a [`CellFailure`] row instead of aborting the
/// run. With a journal, completed cells are persisted under their
/// content digest; with `resume`, journaled
/// entries are loaded instead of re-run, so a crashed or interrupted
/// campaign continues where it stopped — and editing one scenario
/// re-runs only that scenario's cells. When every entry hits, the
/// returned [`CampaignRunStats::fully_cached`] is true and the run
/// never touched the simulator.
pub fn run_campaign(
    spec: &CampaignSpec,
    scenarios: &[ScenarioSpec],
    options: &RunOptions,
    sim: &ExperimentOptions,
) -> Result<(CampaignReport, CampaignRunStats), ExpError> {
    use crate::error::ErrorKind;
    spec.validate().map_err(ExpError::from)?;
    if scenarios.is_empty() {
        return Err(ExpError::new(
            ErrorKind::Spec,
            format!("campaign '{}': no scenarios to run", spec.name),
        ));
    }
    // Scenario order is by name regardless of how the caller loaded
    // them, so reports are comparable across directory layouts.
    let mut ordered: Vec<&ScenarioSpec> = scenarios.iter().collect();
    ordered.sort_by(|a, b| a.name.cmp(&b.name));
    let reseeded: Vec<ScenarioSpec> = ordered
        .iter()
        .map(|s| {
            let mut spec_ = (*s).clone();
            spec_.seed = spec_.seed.wrapping_add(spec.seed);
            spec_
        })
        .collect();
    let reseeded = expand_nest_override(spec, reseeded)?;

    let workloads: Vec<Workload> = reseeded
        .par_iter()
        .map(|s| workload_from_spec(s, spec.scale))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| {
            ExpError::new(
                crate::error::ErrorKind::Spec,
                format!("campaign '{}': {e}", spec.name),
            )
        })?;

    let grid_cores: Vec<usize> = spec.grid.cores.iter().map(|&c| c as usize).collect();
    // The core-count sweep has its own axis so `cores` can stay pinned
    // (e.g. the paper's 16) while the sweep covers 2..16.
    let sweep_cores: Vec<usize> = if spec.grid.sweep_cores.is_empty() {
        grid_cores.clone()
    } else {
        spec.grid.sweep_cores.iter().map(|&c| c as usize).collect()
    };
    let top_cores = *grid_cores.iter().max().expect("validated non-empty cores");
    let mut cells: Vec<Cell> = Vec::new();
    for &experiment in &spec.grid.experiments {
        // The sweep consumes the whole core axis as one cell.
        let axis = if experiment == CampaignExperiment::CoreSweep {
            vec![*sweep_cores.iter().max().expect("validated non-empty cores")]
        } else {
            grid_cores.clone()
        };
        for cores in axis {
            for scenario_ix in 0..workloads.len() {
                cells.push(Cell {
                    scenario_ix,
                    experiment,
                    cores,
                    derives: experiment == CampaignExperiment::Generations && cores == top_cores,
                });
            }
        }
    }

    let journal = match &options.journal {
        Some(dir) => Some(Journal::open(dir)?),
        None => {
            if options.resume {
                return Err(ExpError::usage(format!(
                    "campaign '{}': --resume requires a journal",
                    spec.name
                )));
            }
            None
        }
    };
    let fuel = cell_fuel(&spec.resilience, FUEL);

    // Stable per-cell identity, used both for chaos-fault assignment
    // and (hashed together with everything result-determining) as the
    // journal digest.
    let keys: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "{}/{}@{}",
                workloads[c.scenario_ix].name,
                c.experiment.render(),
                c.cores
            )
        })
        .collect();
    let digests: Vec<u64> = cells
        .iter()
        .enumerate()
        .map(|(ix, c)| {
            let mut h = fnv1a(FNV_OFFSET, env!("CARGO_PKG_VERSION").as_bytes());
            h = fnv1a(h, format!("{:?}", spec.scale).as_bytes());
            h = fnv1a(h, &fuel.to_le_bytes());
            h = fnv1a(h, keys[ix].as_bytes());
            if c.experiment == CampaignExperiment::CoreSweep {
                for &sc in &sweep_cores {
                    h = fnv1a(h, &(sc as u64).to_le_bytes());
                }
            }
            // The reseeded scenario spec covers the scenario's entire
            // result-relevant content, campaign seed offset included.
            fnv1a(h, reseeded[c.scenario_ix].to_toml().as_bytes())
        })
        .collect();
    let faults: Vec<Option<Fault>> = match &options.faults {
        Some(plan) => keys.iter().map(|k| plan.fault_for(k, &keys)).collect(),
        None => vec![None; cells.len()],
    };
    let (stall_ms, transient_faults) = options
        .faults
        .as_ref()
        .map(|p| (p.stall_ms, p.transient))
        .unwrap_or((0, false));

    // With `lanes > 1` every scenario gets one shared SimCache
    // (compile/decode/report dedup across its cells). Cached values are
    // deterministic, so the report stays byte-identical to an uncached
    // run.
    let shared = options.lanes.is_some_and(|lanes| lanes > 1);
    let base_opts = ExperimentOptions {
        cache: None,
        ..sim.clone()
    };
    let caches: Vec<Option<Arc<SimCache>>> = workloads
        .iter()
        .map(|_| shared.then(|| Arc::new(SimCache::new())))
        .collect();

    // Each cell ends as its row, its derived row, and whether both came
    // from the journal, or as a failure.
    type Outcome = Result<(CampaignRow, Option<DerivedRow>, bool), CellFailure>;
    let ixs: Vec<usize> = (0..cells.len()).collect();
    let outcomes: Vec<Outcome> = ixs
        .par_iter()
        .map(|&ix| {
            let cell = cells[ix];
            let w = &workloads[cell.scenario_ix];
            if options.resume {
                // A cell that should carry a derived row but decodes
                // without one (an older build's entry) is a miss.
                if let Some((row, derived)) = journal
                    .as_ref()
                    .and_then(|j| j.load(digests[ix]))
                    .and_then(|text| decode_row(&text))
                    .filter(|(_, derived)| derived.is_some() == cell.derives)
                {
                    return Ok((row, derived, true));
                }
            }
            // Fault-injected cells run without the shared cache: a cell
            // that panics or stalls mid-simulation must not seed (or
            // poison) state other cells consume.
            let cell_opts = match (faults[ix], &caches[cell.scenario_ix]) {
                (None, Some(cache)) => base_opts.clone().with_cache(cache.clone()),
                _ => base_opts.clone(),
            };
            let result = run_cell_resilient(
                |fuel| {
                    run_cell(
                        cell,
                        &sweep_cores,
                        &reseeded[cell.scenario_ix],
                        w,
                        spec.scale,
                        &cell_opts.clone().with_fuel(fuel),
                    )
                },
                fuel,
                &spec.resilience,
                faults[ix],
                stall_ms,
                transient_faults,
            );
            match result {
                Ok((row, derived)) => {
                    if let Some(j) = &journal {
                        // Journal errors are not worth failing the cell
                        // over; the run still completes in memory.
                        let _ = j.store(digests[ix], &encode_row(&row, derived.as_ref()));
                    }
                    Ok((row, derived, false))
                }
                Err((kind, message, retries)) => Err(CellFailure {
                    scenario: w.name.clone(),
                    experiment: cell.experiment.render().to_string(),
                    cores: cell.cores,
                    kind,
                    retries,
                    message,
                }),
            }
        })
        .collect();

    let mut stats = CampaignRunStats {
        cells: cells.len(),
        ..CampaignRunStats::default()
    };
    let mut rows: Vec<CampaignRow> = Vec::new();
    let mut derived: Vec<DerivedRow> = Vec::new();
    let mut failures: Vec<CellFailure> = Vec::new();
    // Cells run in enumeration order, and the deriving cells are one
    // (experiment, cores) group, so derived rows come in scenario order.
    for outcome in outcomes {
        match outcome {
            Ok((row, derived_row, hit)) => {
                if hit {
                    stats.journal_hits += 1;
                    stats.derived_hits += usize::from(derived_row.is_some());
                } else {
                    stats.simulated += 1;
                    stats.derived_computed += usize::from(derived_row.is_some());
                }
                rows.push(row);
                derived.extend(derived_row);
            }
            Err(failure) => {
                stats.failed += 1;
                failures.push(failure);
            }
        }
    }

    let report = CampaignReport {
        name: spec.name.clone(),
        description: spec.description.clone(),
        scale: format!("{:?}", spec.scale),
        seed: spec.seed,
        scenarios: reseeded.iter().map(|s| s.name.clone()).collect(),
        rows,
        derived,
        failures,
    };
    Ok((report, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::compiler_generations;
    use crate::resilient::{FailureKind, FaultPlan};
    use helix_workloads::{builtin_spec, CampaignGrid};
    use std::path::PathBuf;

    fn run(
        spec: &CampaignSpec,
        scenarios: &[ScenarioSpec],
        options: &RunOptions,
    ) -> Result<CampaignReport, ExpError> {
        run_campaign(spec, scenarios, options, &ExperimentOptions::default()).map(|(r, _)| r)
    }

    fn tiny_campaign(experiments: Vec<CampaignExperiment>) -> (CampaignSpec, Vec<ScenarioSpec>) {
        let spec = CampaignSpec {
            name: "tiny".into(),
            description: "unit fixture".into(),
            scenarios: vec!["unused.toml".into()],
            scale: Scale::Test,
            seed: 0,
            grid: CampaignGrid {
                cores: vec![8],
                sweep_cores: vec![],
                experiments,
                nest_override: None,
            },
            resilience: Default::default(),
        };
        (spec, vec![builtin_spec("175.vpr").unwrap()])
    }

    /// Grid lowering: a generations cell must reproduce the exact
    /// numbers of the equivalent hand-built experiment call.
    #[test]
    fn generations_cell_matches_direct_experiment_call() {
        let (spec, scenarios) = tiny_campaign(vec![CampaignExperiment::Generations]);
        let report = run(&spec, &scenarios, &RunOptions::new()).unwrap();
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];

        let w = workload_from_spec(&scenarios[0], Scale::Test).unwrap();
        let direct = compiler_generations(&w, 8, &ExperimentOptions::default()).unwrap();
        assert_eq!(row.helix_speedup, Some(direct.helix_rc));
        assert_eq!(row.seq_cycles, Some(direct.seq_cycles));
        assert_eq!(row.helix_cycles, Some(direct.helix_cycles));
        assert_eq!(
            row.points,
            vec![
                ("HCCv1".to_string(), direct.v1),
                ("HCCv2".to_string(), direct.v2),
                ("HELIX-RC".to_string(), direct.helix_rc),
            ]
        );
        assert_eq!(row.paper_speedup, Some(6.1));
    }

    /// Same campaign + seed twice => byte-identical reports.
    #[test]
    fn campaign_reports_are_byte_identical() {
        let (spec, scenarios) = tiny_campaign(vec![
            CampaignExperiment::Generations,
            CampaignExperiment::CoupledVsRing,
        ]);
        let a = run(&spec, &scenarios, &RunOptions::new()).unwrap();
        let b = run(&spec, &scenarios, &RunOptions::new()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    /// The campaign seed offset re-rolls distribution-baked scenarios.
    #[test]
    fn seed_offset_changes_distribution_scenarios() {
        let (mut spec, _) = tiny_campaign(vec![CampaignExperiment::Generations]);
        let scenarios = vec![builtin_spec("910.bursty").unwrap()];
        let base = run(&spec, &scenarios, &RunOptions::new()).unwrap();
        spec.seed = 1;
        let reseeded = run(&spec, &scenarios, &RunOptions::new()).unwrap();
        assert_eq!(reseeded.seed, 1);
        assert_ne!(
            base.rows[0].seq_cycles, reseeded.rows[0].seq_cycles,
            "seed offset must perturb the baked work tables"
        );
    }

    #[test]
    fn helix_speedups_come_from_generations_rows() {
        let (spec, scenarios) = tiny_campaign(vec![
            CampaignExperiment::CoupledVsRing,
            CampaignExperiment::Generations,
        ]);
        let report = run(&spec, &scenarios, &RunOptions::new()).unwrap();
        let speedups = report.helix_speedups();
        assert_eq!(speedups.len(), 1);
        assert_eq!(speedups[0].0, "175.vpr");
        assert!(speedups[0].1 > 1.0);
    }

    #[test]
    fn table_renders_geomeans_and_groups() {
        use crate::report::x;
        let (spec, scenarios) = tiny_campaign(vec![CampaignExperiment::Generations]);
        let mut report = run(&spec, &scenarios, &RunOptions::new()).unwrap();
        let text = report.table();
        assert!(text.contains("== generations @ 8 cores =="), "{text}");
        assert!(text.contains("INT geomean"), "{text}");
        assert!(text.contains("175.vpr"), "{text}");
        assert!(!text.contains("INT geomean (all)"), "{text}");

        // A row without a published number stays out of the geomean
        // row that sits next to the paper column, and shows up in the
        // separate all-rows geomean instead.
        let vpr = report.rows[0].clone();
        let mut unpublished = vpr.clone();
        unpublished.scenario = "999.unpublished".into();
        unpublished.paper_speedup = None;
        for (_, v) in &mut unpublished.points {
            *v *= 4.0;
        }
        report.rows.push(unpublished);
        let text = report.table();
        let line = |tag: &str| {
            text.lines()
                .find(|l| l.split("  ").next() == Some(tag))
                .unwrap_or_else(|| panic!("no '{tag}' row in:\n{text}"))
                .to_string()
        };
        let published = line("INT geomean");
        let all = line("INT geomean (all)");
        let helix = vpr.points.last().unwrap().1;
        assert!(published.contains(&x(helix)), "{published}");
        assert!(published.contains(&x(6.1)), "{published}");
        assert!(all.contains(&x(2.0 * helix)), "{all}");
        assert!(!all.contains(&x(6.1)), "{all}");
    }

    #[test]
    fn empty_scenario_set_is_an_error() {
        let (spec, _) = tiny_campaign(vec![CampaignExperiment::Generations]);
        assert!(run(&spec, &[], &RunOptions::new()).is_err());
    }

    fn temp_journal(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("helix-campaign-test-{}-{tag}", std::process::id()))
    }

    /// An injected persistent panic becomes a `failures` row; the run
    /// completes and every other cell's result is kept.
    #[test]
    fn injected_fault_enumerates_failure_instead_of_aborting() {
        let (mut spec, scenarios) = tiny_campaign(vec![
            CampaignExperiment::Generations,
            CampaignExperiment::CoupledVsRing,
        ]);
        spec.resilience.max_retries = 0;
        let options = RunOptions {
            faults: Some(FaultPlan {
                seed: 1,
                panics: 1,
                ..FaultPlan::default()
            }),
            ..RunOptions::default()
        };
        let report = run(&spec, &scenarios, &options).unwrap();
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert_eq!(report.failures[0].kind, FailureKind::Panic);
        assert!(report.failures[0].message.contains("chaos"));
        assert_eq!(report.rows.len(), 1, "the other cell must survive");
        let json = report.to_json();
        assert!(json.contains("\"failures\""), "{json}");
        assert!(json.contains("\"kind\": \"panic\""), "{json}");
        assert!(report.table().contains("== failures (1) =="));
    }

    /// A transient injected fault is absorbed by one retry: the report
    /// is byte-identical to a fault-free run.
    #[test]
    fn transient_fault_recovers_and_matches_clean_run() {
        let (spec, scenarios) = tiny_campaign(vec![CampaignExperiment::Generations]);
        let clean = run(&spec, &scenarios, &RunOptions::new()).unwrap();
        let options = RunOptions {
            faults: Some(FaultPlan {
                seed: 3,
                panics: 1,
                transient: true,
                ..FaultPlan::default()
            }),
            ..RunOptions::default()
        };
        let recovered = run(&spec, &scenarios, &options).unwrap();
        assert!(recovered.failures.is_empty(), "{:?}", recovered.failures);
        assert_eq!(clean.to_json(), recovered.to_json());
    }

    /// Crash/Ctrl-C story end-to-end: a chaos run journals its
    /// completed cells; a resume without chaos re-runs only the failed
    /// cell and lands on a report byte-identical to a clean run.
    #[test]
    fn resume_reproduces_clean_report_byte_identically() {
        let (mut spec, scenarios) = tiny_campaign(vec![
            CampaignExperiment::Generations,
            CampaignExperiment::CoupledVsRing,
        ]);
        spec.resilience.max_retries = 0;
        let clean = run(&spec, &scenarios, &RunOptions::new()).unwrap();
        let dir = temp_journal("resume");
        std::fs::remove_dir_all(&dir).ok();
        let interrupted = run(
            &spec,
            &scenarios,
            &RunOptions {
                journal: Some(dir.clone()),
                faults: Some(FaultPlan {
                    seed: 1,
                    panics: 1,
                    ..FaultPlan::default()
                }),
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(interrupted.failures.len(), 1);
        let resumed = run(
            &spec,
            &scenarios,
            &RunOptions {
                journal: Some(dir.clone()),
                resume: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert!(resumed.failures.is_empty(), "{:?}", resumed.failures);
        assert_eq!(clean.to_json(), resumed.to_json());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Resume really reads the journal: a tampered journaled value
    /// shows up verbatim in the resumed report (cache hit, not re-run).
    #[test]
    fn resume_trusts_journaled_cells() {
        let (spec, scenarios) = tiny_campaign(vec![CampaignExperiment::Generations]);
        let dir = temp_journal("trust");
        std::fs::remove_dir_all(&dir).ok();
        let options = RunOptions {
            journal: Some(dir.clone()),
            ..RunOptions::default()
        };
        run(&spec, &scenarios, &options).unwrap();
        // Tamper with the one journaled cell: seq_cycles -> 424242,
        // re-stored through the journal so its trailer matches.
        let journal = Journal::open(&dir).unwrap();
        let mut tampered = 0;
        for entry in std::fs::read_dir(&dir).unwrap().filter_map(|e| e.ok()) {
            let path = entry.path();
            if path.extension().is_some_and(|x| x == "cell") {
                let stem = path.file_stem().unwrap().to_str().unwrap();
                let digest = u64::from_str_radix(stem, 16).unwrap();
                let text = journal.load(digest).unwrap();
                let patched: String = text
                    .lines()
                    .map(|l| {
                        if l.starts_with("seq_cycles\t") {
                            tampered += 1;
                            "seq_cycles\t424242".to_string()
                        } else {
                            l.to_string()
                        }
                    })
                    .collect::<Vec<_>>()
                    .join("\n")
                    + "\n";
                journal.store(digest, &patched).unwrap();
            }
        }
        assert_eq!(tampered, 1);
        let resumed = run(
            &spec,
            &scenarios,
            &RunOptions {
                journal: Some(dir.clone()),
                resume: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(resumed.rows[0].seq_cycles, Some(424242));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A tiny cycle budget fails cells deterministically: same
    /// failures, byte-identical reports, run after run.
    #[test]
    fn cycle_budget_failures_are_deterministic() {
        let (mut spec, scenarios) = tiny_campaign(vec![CampaignExperiment::Generations]);
        spec.resilience.cycle_budget = 1000;
        let a = run(&spec, &scenarios, &RunOptions::new()).unwrap();
        let b = run(&spec, &scenarios, &RunOptions::new()).unwrap();
        assert!(!a.failures.is_empty());
        assert!(a
            .failures
            .iter()
            .all(|f| f.kind == FailureKind::CycleBudget));
        assert_eq!(a.to_json(), b.to_json());
    }

    /// Journal round-trip preserves rows and derived rows exactly,
    /// including float bits and nest names with spaces.
    #[test]
    fn encode_decode_row_roundtrip() {
        let row = CampaignRow {
            scenario: "900.chase".into(),
            kind: "int".into(),
            experiment: "generations".into(),
            cores: 8,
            helix_speedup: Some(3.756_218_905_3),
            paper_speedup: Some(6.1),
            seq_cycles: Some(123_456_789),
            helix_cycles: Some(32_860_001),
            comm_frac: Some(0.071_356_78),
            overheads: Some([0.1, 0.0, 0.25, 0.3, 0.000_001, 0.9, 1.0 / 3.0]),
            points: vec![("HCCv1".into(), 1.5), ("HELIX-RC".into(), 3.756_218_905_3)],
        };
        assert_eq!(
            decode_row(&encode_row(&row, None)).unwrap(),
            (row.clone(), None)
        );

        let nest = |name: &str, plans| DerivedNestRow {
            name: name.into(),
            weight: 0.625,
            glue_weight: 1.0 / 7.0,
            coverage: 0.999_9,
            program_coverage: 0.3,
            plans,
            speedup: 2.531_64,
        };
        let derived = DerivedRow {
            scenario: row.scenario.clone(),
            kind: row.kind.clone(),
            cores: row.cores,
            coverage: 0.912_345,
            speedup: 3.756_218_905_3,
            amdahl_bound: 5.123_456_7,
            bound_frac: 0.733_1,
            nests: vec![nest("outer loop nest", 3), nest("tail", 0)],
        };
        let text = encode_row(&row, Some(&derived));
        assert_eq!(decode_row(&text).unwrap(), (row, Some(derived)));
        // Nest records without their derived record are malformed.
        let orphan_nests: String = text
            .lines()
            .filter(|l| !l.starts_with("derived\t"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(decode_row(&orphan_nests).is_none());
        assert!(decode_row("not a cell\n").is_none());
        assert!(decode_row("helix-cell v1\nbogus-key\tvalue\n").is_none());
    }
}
