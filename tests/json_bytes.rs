//! Golden bytes for every JSON document and wire line the workspace
//! writes: a scenario report, campaign reports (optional fields present
//! and absent, derived rows, failures, zero rows), explore reports
//! (empty and full), and the `encode_request` / `encode_response` line
//! of every request and response variant.
//!
//! Each report is built by hand, so these tests pin the writers'
//! layout, escaping and float formatting without simulating anything.
//! The service's single-flight digests hash the request lines, and
//! `BENCH_scenarios.json` and explore fingerprints hash the report
//! bytes, so any change here is a visible format change.

use helix_rc::api::{
    encode_request, encode_response, CampaignSource, Request, Response, RunOptions, ServiceStatus,
    SpecSource,
};
use helix_rc::campaign::{
    CampaignReport, CampaignRow, CampaignRunStats, DerivedNestRow, DerivedRow,
};
use helix_rc::explore::{
    ExploreOptions, ExploreReport, Finding, Frontier, FrontierHit, InversionHit,
};
use helix_rc::resilient::{CellFailure, FailureKind};
use helix_rc::scenario::{NestRow, RunRow, ScenarioReport};
use helix_rc::workloads::Scale;
use helix_rc::{ErrorKind, HelixError};

/// A name that needs every kind of escape the writers know.
const NASTY: &str = "a\"b\\c\nd\u{1}e\tf\rg";

fn run_row(config: &str, cycles: u64, speedup: Option<f64>, attribution: bool) -> RunRow {
    RunRow {
        config: config.to_string(),
        cycles,
        dyn_insts: cycles * 3 + 1,
        mem_digest: 0xfedc_ba98_7654_3210 ^ cycles,
        wall_secs: 0.25,
        speedup_vs_sequential: speedup,
        attribution: attribution.then(|| {
            vec![
                ("busy".to_string(), cycles / 2),
                ("wait \"sig\"".to_string(), cycles / 4),
                ("mem".to_string(), 0),
            ]
        }),
    }
}

fn scenario_report() -> ScenarioReport {
    ScenarioReport {
        scenario: format!("scn {NASTY}"),
        kind: "int".into(),
        scale: "Test".into(),
        cores: 16,
        compiler: "HCCv3".into(),
        coverage: 0.987_654_32,
        plans: 3,
        runs: vec![
            run_row("sequential-16", 120_000, None, false),
            run_row("helix-rc-16", 10_000, Some(12.0), true),
        ],
        sweep: vec![
            run_row("helix-rc-2", 70_000, Some(1.714_285_7), false),
            run_row("helix-rc-4", 40_000, Some(3.0), false),
        ],
        nests: vec![
            NestRow {
                name: "outer nest".into(),
                weight: 0.612_34,
                glue_weight: 0.012_5,
                coverage: 0.95,
                plans: 2,
                seq_cycles: 73_000,
                helix_cycles: 8_000,
                speedup: 9.125,
            },
            NestRow {
                name: format!("n{NASTY}"),
                weight: 0.3,
                glue_weight: 0.0,
                coverage: 1.0,
                plans: 1,
                seq_cycles: 40_000,
                helix_cycles: 5_000,
                speedup: 8.0,
            },
        ],
    }
}

fn campaign_rows() -> Vec<CampaignRow> {
    vec![
        CampaignRow {
            scenario: "175.vpr".into(),
            kind: "int".into(),
            experiment: "generations".into(),
            cores: 16,
            helix_speedup: Some(6.123_456),
            paper_speedup: Some(6.2),
            seq_cycles: Some(192_046),
            helix_cycles: Some(31_363),
            comm_frac: None,
            overheads: None,
            points: vec![
                ("HCCv1".into(), 1.0),
                ("HCCv2".into(), 2.345_67),
                ("HELIX-RC".into(), 6.123_456),
            ],
        },
        CampaignRow {
            scenario: format!("s{NASTY}"),
            kind: "fp".into(),
            experiment: "overheads".into(),
            cores: 8,
            helix_speedup: None,
            paper_speedup: None,
            seq_cycles: None,
            helix_cycles: None,
            comm_frac: Some(0.123_45),
            overheads: Some([0.1, 0.2, 0.300_04, 0.0, 0.05, 0.25, 0.099_99]),
            points: vec![],
        },
    ]
}

fn derived_rows() -> Vec<DerivedRow> {
    vec![
        DerivedRow {
            scenario: "175.vpr".into(),
            kind: "int".into(),
            cores: 16,
            coverage: 0.99,
            speedup: 6.123_456,
            amdahl_bound: 13.913_04,
            bound_frac: 0.440_11,
            nests: vec![],
        },
        DerivedRow {
            scenario: "960.multi".into(),
            kind: "fp".into(),
            cores: 16,
            coverage: 0.9,
            speedup: 4.0,
            amdahl_bound: 6.4,
            bound_frac: 0.625,
            nests: vec![
                DerivedNestRow {
                    name: "first".into(),
                    weight: 0.6,
                    glue_weight: 0.05,
                    coverage: 0.97,
                    program_coverage: 0.58,
                    plans: 2,
                    speedup: 7.5,
                },
                DerivedNestRow {
                    name: "second nest".into(),
                    weight: 0.35,
                    glue_weight: 0.0,
                    coverage: 0.5,
                    program_coverage: 0.175,
                    plans: 1,
                    speedup: 1.9,
                },
            ],
        },
    ]
}

fn failures() -> Vec<CellFailure> {
    vec![
        CellFailure {
            scenario: "181.mcf".into(),
            experiment: "generations".into(),
            cores: 16,
            kind: FailureKind::Panic,
            retries: 2,
            message: format!("chaos: injected panic {NASTY}"),
        },
        CellFailure {
            scenario: "300.twolf".into(),
            experiment: "coupled_vs_ring".into(),
            cores: 8,
            kind: FailureKind::CycleBudget,
            retries: 0,
            message: "cycle budget 5000 exhausted".into(),
        },
    ]
}

fn campaign_report() -> CampaignReport {
    CampaignReport {
        name: "golden".into(),
        description: format!("a campaign {NASTY}"),
        scale: "Test".into(),
        seed: -3,
        scenarios: vec!["175.vpr".into(), format!("s{NASTY}")],
        rows: campaign_rows(),
        derived: derived_rows(),
        failures: failures(),
    }
}

/// Every cell failed: no rows, no derived rows, only failures.
fn all_failed_campaign_report() -> CampaignReport {
    CampaignReport {
        name: "all-failed".into(),
        description: String::new(),
        scale: "Full".into(),
        seed: 0,
        scenarios: vec!["181.mcf".into()],
        rows: vec![],
        derived: vec![],
        failures: failures(),
    }
}

fn empty_explore_report() -> ExploreReport {
    ExploreReport {
        seed: 18_446_744_073_709_551_615,
        budget: 2,
        cores: 4,
        fuel: 1 << 24,
        specs_run: 2,
        oracle_checks: 12,
        failures: vec![],
        frontier: Frontier {
            min_bound_frac: Some(FrontierHit {
                index: 1,
                spec: "gen-0-1".into(),
                value: 0.123_456_78,
                toml: "name = \"gen-0-1\"\n[run]\ncores = 4\n".into(),
            }),
            max_comm_frac: None,
            inversions: vec![],
        },
    }
}

fn full_explore_report() -> ExploreReport {
    ExploreReport {
        seed: 7,
        budget: 3,
        cores: 2,
        fuel: 1 << 20,
        specs_run: 3,
        oracle_checks: 18,
        failures: vec![
            Finding {
                index: 0,
                spec: "gen-7-0".into(),
                oracle: "fast-forward",
                detail: format!("cycles diverge (10 vs 11) {NASTY}"),
                shrunk_toml: "name = \"gen-7-0\"\n\t# shrunk\n".into(),
            },
            Finding {
                index: 2,
                spec: "gen-7-2".into(),
                oracle: "sanity",
                detail: "race".into(),
                shrunk_toml: String::new(),
            },
        ],
        frontier: Frontier {
            min_bound_frac: Some(FrontierHit {
                index: 1,
                spec: "gen-7-1".into(),
                value: 0.5,
                toml: "name = \"gen-7-1\"\n".into(),
            }),
            max_comm_frac: Some(FrontierHit {
                index: 2,
                spec: "gen-7-2".into(),
                value: 0.987_654_321,
                toml: "name = \"gen-7-2\"\n".into(),
            }),
            inversions: vec![
                InversionHit {
                    index: 0,
                    spec: "gen-7-0".into(),
                    v1: 2.5,
                    v2: 1.25,
                    helix_rc: 3.333_33,
                    toml: "name = \"gen-7-0\"\n".into(),
                },
                InversionHit {
                    index: 2,
                    spec: "gen-7-2".into(),
                    v1: 1.0,
                    v2: 1.5,
                    helix_rc: 1.4,
                    toml: String::new(),
                },
            ],
        },
    }
}

fn requests() -> Vec<Request> {
    vec![
        Request::RunScenario {
            source: SpecSource::Inline(format!("name = \"x\"\n# {NASTY}\n")),
            options: RunOptions::new(),
        },
        Request::RunScenario {
            source: SpecSource::Inline("name = \"y\"\n".into()),
            options: RunOptions::new()
                .with_scale(Scale::Full)
                .with_cores(16)
                .with_fuel(1 << 40)
                .with_max_retries(-1)
                .with_cycle_budget(500_000)
                .with_wall_budget_ms(250)
                .with_lanes(8)
                .with_attribution(true),
        },
        Request::RunCampaign {
            source: CampaignSource::Inline {
                campaign: "name = \"c\"\nscenarios = [\"x\", \"y\"]\n".into(),
                scenarios: vec!["name = \"x\"\n".into(), format!("name = \"y\" # {NASTY}")],
            },
            options: RunOptions::new().with_scale(Scale::Test).with_lanes(2),
        },
        Request::RunCampaign {
            source: CampaignSource::Inline {
                campaign: "name = \"empty\"\n".into(),
                scenarios: vec![],
            },
            options: RunOptions::new(),
        },
        Request::Check {
            source: SpecSource::Inline("name = \"z\"\n".into()),
            scale: Scale::Test,
        },
        Request::Check {
            source: SpecSource::Inline("name = \"z\"\n".into()),
            scale: Scale::Full,
        },
        Request::Diff {
            a_name: "a.json".into(),
            a_text: "{\n  \"x\": 1\n}\n".into(),
            b_name: format!("b{NASTY}.json"),
            b_text: String::new(),
        },
        Request::Explore {
            options: ExploreOptions {
                seed: 12_345_678_901_234_567_891,
                budget: 120,
                cores: 4,
                fuel: 1 << 24,
                export_dir: None,
            },
        },
        Request::Status,
        Request::Shutdown,
    ]
}

fn responses() -> Vec<Response> {
    vec![
        Response::Scenario {
            json: scenario_report().to_json(),
            cached: true,
            report: None,
        },
        Response::Campaign {
            json: "{\n  \"harness\": \"campaign\"\n}\n".into(),
            table: format!("campaign 'x'\n== t ==\n{NASTY}"),
            stats: CampaignRunStats {
                cells: 26,
                journal_hits: 23,
                simulated: 1,
                failed: 2,
                derived_hits: 12,
                derived_computed: 1,
            },
            report: None,
        },
        Response::Checked {
            name: "175.vpr".into(),
            regions: 3,
            phases: 5,
            insts: 1234,
        },
        Response::Diff {
            identical: false,
            detail: format!("--- < a\n< {NASTY}\n"),
        },
        Response::Explore {
            json: full_explore_report().to_json(),
            failures: 2,
            report: None,
        },
        Response::Status(ServiceStatus {
            workers: 4,
            requests: 18_446_744_073_709_551_615,
            inflight: 1,
            cells: 40,
            journal_hits: 20,
            simulated: 20,
        }),
        Response::ShuttingDown,
        Response::Error(HelixError::new(ErrorKind::Io, "server busy")),
        Response::Error(
            HelixError::new(ErrorKind::Spec, format!("bad grid {NASTY}"))
                .with_file("c.toml")
                .with_field("grid.cores")
                .with_value("-1"),
        ),
    ]
}

fn wire_lines() -> String {
    let mut out = String::new();
    for request in requests() {
        out.push_str(&encode_request(&request).expect("request encodes"));
        out.push('\n');
    }
    for response in responses() {
        out.push_str(&encode_response(&response));
        out.push('\n');
    }
    out
}

/// A scenario report with attribution, sweep and nest rows.
const SCENARIO: &str = r##"{
  "harness": "helix",
  "schema_version": 1,
  "name": "scn a\"b\\c\nd\u0001e\tf\rg",
  "kind": "int",
  "scale": "Test",
  "cores": 16,
  "compiler": "HCCv3",
  "coverage": 0.9877,
  "plans": 3,
  "runs": [
    {"config": "sequential-16", "cycles": 120000, "dyn_insts": 360001, "mem_digest": 18364758544493176528, "wall_secs": 0.250000, "cycles_per_sec": 480000},
    {"config": "helix-rc-16", "cycles": 10000, "dyn_insts": 30001, "mem_digest": 18364758544493057280, "wall_secs": 0.250000, "cycles_per_sec": 40000, "speedup_vs_sequential": 12.000, "attribution": {"busy": 5000, "wait \"sig\"": 2500, "mem": 0}}
  ],
  "sweep": [
    {"config": "helix-rc-2", "cycles": 70000, "dyn_insts": 210001, "mem_digest": 18364758544493126496, "wall_secs": 0.250000, "cycles_per_sec": 280000, "speedup_vs_sequential": 1.714},
    {"config": "helix-rc-4", "cycles": 40000, "dyn_insts": 120001, "mem_digest": 18364758544493096528, "wall_secs": 0.250000, "cycles_per_sec": 160000, "speedup_vs_sequential": 3.000}
  ],
  "nests": [
    {"name": "outer nest", "weight": 0.6123, "glue_weight": 0.0125, "coverage": 0.9500, "plans": 2, "seq_cycles": 73000, "helix_cycles": 8000, "speedup": 9.125},
    {"name": "na\"b\\c\nd\u0001e\tf\rg", "weight": 0.3000, "glue_weight": 0.0000, "coverage": 1.0000, "plans": 1, "seq_cycles": 40000, "helix_cycles": 5000, "speedup": 8.000}
  ]
}
"##;

/// A campaign report with optional fields present and absent, `overheads`,
/// derived rows with and without nests, and failures.
const CAMPAIGN: &str = r##"{
  "harness": "campaign",
  "schema_version": 1,
  "name": "golden",
  "description": "a campaign a\"b\\c\nd\u0001e\tf\rg",
  "scale": "Test",
  "seed": -3,
  "scenarios": ["175.vpr", "sa\"b\\c\nd\u0001e\tf\rg"],
  "rows": [
    {"scenario": "175.vpr", "kind": "int", "experiment": "generations", "cores": 16, "helix_speedup": 6.1235, "paper_speedup": 6.2000, "seq_cycles": 192046, "helix_cycles": 31363, "points": [{"label": "HCCv1", "value": 1.0000}, {"label": "HCCv2", "value": 2.3457}, {"label": "HELIX-RC", "value": 6.1235}]},
    {"scenario": "sa\"b\\c\nd\u0001e\tf\rg", "kind": "fp", "experiment": "overheads", "cores": 8, "comm_frac": 0.1235, "overheads": [0.1000, 0.2000, 0.3000, 0.0000, 0.0500, 0.2500, 0.1000], "points": []}
  ],
  "derived": [
    {"scenario": "175.vpr", "kind": "int", "cores": 16, "coverage": 0.9900, "speedup": 6.1235, "amdahl_bound": 13.9130, "bound_frac": 0.4401},
    {"scenario": "960.multi", "kind": "fp", "cores": 16, "coverage": 0.9000, "speedup": 4.0000, "amdahl_bound": 6.4000, "bound_frac": 0.6250, "nests": [{"name": "first", "weight": 0.6000, "glue_weight": 0.0500, "coverage": 0.9700, "program_coverage": 0.5800, "plans": 2, "speedup": 7.5000}, {"name": "second nest", "weight": 0.3500, "glue_weight": 0.0000, "coverage": 0.5000, "program_coverage": 0.1750, "plans": 1, "speedup": 1.9000}]}
  ],
  "failures": [
    {"scenario": "181.mcf", "experiment": "generations", "cores": 16, "kind": "panic", "retries": 2, "message": "chaos: injected panic a\"b\\c\nd\u0001e\tf\rg"},
    {"scenario": "300.twolf", "experiment": "coupled_vs_ring", "cores": 8, "kind": "cycle-budget", "retries": 0, "message": "cycle budget 5000 exhausted"}
  ]
}
"##;

/// A campaign report whose every cell failed (zero rows). An empty
/// `rows` array is written `[]`, like every other empty array.
const ALL_FAILED_CAMPAIGN: &str = r##"{
  "harness": "campaign",
  "schema_version": 1,
  "name": "all-failed",
  "description": "",
  "scale": "Full",
  "seed": 0,
  "scenarios": ["181.mcf"],
  "rows": [],
  "failures": [
    {"scenario": "181.mcf", "experiment": "generations", "cores": 16, "kind": "panic", "retries": 2, "message": "chaos: injected panic a\"b\\c\nd\u0001e\tf\rg"},
    {"scenario": "300.twolf", "experiment": "coupled_vs_ring", "cores": 8, "kind": "cycle-budget", "retries": 0, "message": "cycle budget 5000 exhausted"}
  ]
}
"##;

/// An explore report with no failures, a `null` frontier hit and no
/// inversions.
const EMPTY_EXPLORE: &str = r##"{
  "seed": 18446744073709551615,
  "budget": 2,
  "cores": 4,
  "fuel": 16777216,
  "specs_run": 2,
  "oracle_checks": 12,
  "failures": [],
  "frontier": {
    "min_bound_frac": {"index": 1, "spec": "gen-0-1", "value": 0.123457, "toml": "name = \"gen-0-1\"\n[run]\ncores = 4\n"},
    "max_comm_frac": null,
    "inversions": []
  }
}
"##;

/// An explore report with failures, both frontier hits and inversions.
const FULL_EXPLORE: &str = r##"{
  "seed": 7,
  "budget": 3,
  "cores": 2,
  "fuel": 1048576,
  "specs_run": 3,
  "oracle_checks": 18,
  "failures": [
    {"index": 0, "spec": "gen-7-0", "oracle": "fast-forward", "detail": "cycles diverge (10 vs 11) a\"b\\c\nd\u0001e\tf\rg", "shrunk_toml": "name = \"gen-7-0\"\n\t# shrunk\n"},
    {"index": 2, "spec": "gen-7-2", "oracle": "sanity", "detail": "race", "shrunk_toml": ""}
  ],
  "frontier": {
    "min_bound_frac": {"index": 1, "spec": "gen-7-1", "value": 0.500000, "toml": "name = \"gen-7-1\"\n"},
    "max_comm_frac": {"index": 2, "spec": "gen-7-2", "value": 0.987654, "toml": "name = \"gen-7-2\"\n"},
    "inversions": [
      {"index": 0, "spec": "gen-7-0", "v1": 2.5000, "v2": 1.2500, "helix_rc": 3.3333, "toml": "name = \"gen-7-0\"\n"},
      {"index": 2, "spec": "gen-7-2", "v1": 1.0000, "v2": 1.5000, "helix_rc": 1.4000, "toml": ""}
    ]
  }
}
"##;

/// `wire_lines()`: every request line, then every response line.
const WIRE_LINES: &str = r##"{"v": 1, "type": "run_scenario", "spec": "name = \"x\"\n# a\"b\\c\nd\u0001e\tf\rg\n", "options": {}}
{"v": 1, "type": "run_scenario", "spec": "name = \"y\"\n", "options": {"scale": "full", "cores": 16, "fuel": 1099511627776, "max_retries": -1, "cycle_budget": 500000, "wall_budget_ms": 250, "lanes": 8, "attribution": true}}
{"v": 1, "type": "run_campaign", "campaign": "name = \"c\"\nscenarios = [\"x\", \"y\"]\n", "scenarios": ["name = \"x\"\n", "name = \"y\" # a\"b\\c\nd\u0001e\tf\rg"], "options": {"scale": "test", "lanes": 2}}
{"v": 1, "type": "run_campaign", "campaign": "name = \"empty\"\n", "scenarios": [], "options": {}}
{"v": 1, "type": "check", "spec": "name = \"z\"\n", "scale": "test"}
{"v": 1, "type": "check", "spec": "name = \"z\"\n", "scale": "full"}
{"v": 1, "type": "diff", "a_name": "a.json", "a_text": "{\n  \"x\": 1\n}\n", "b_name": "ba\"b\\c\nd\u0001e\tf\rg.json", "b_text": ""}
{"v": 1, "type": "explore", "seed": 12345678901234567891, "budget": 120, "cores": 4, "fuel": 16777216}
{"v": 1, "type": "status"}
{"v": 1, "type": "shutdown"}
{"v": 1, "type": "scenario", "json": "{\n  \"harness\": \"helix\",\n  \"schema_version\": 1,\n  \"name\": \"scn a\\\"b\\\\c\\nd\\u0001e\\tf\\rg\",\n  \"kind\": \"int\",\n  \"scale\": \"Test\",\n  \"cores\": 16,\n  \"compiler\": \"HCCv3\",\n  \"coverage\": 0.9877,\n  \"plans\": 3,\n  \"runs\": [\n    {\"config\": \"sequential-16\", \"cycles\": 120000, \"dyn_insts\": 360001, \"mem_digest\": 18364758544493176528, \"wall_secs\": 0.250000, \"cycles_per_sec\": 480000},\n    {\"config\": \"helix-rc-16\", \"cycles\": 10000, \"dyn_insts\": 30001, \"mem_digest\": 18364758544493057280, \"wall_secs\": 0.250000, \"cycles_per_sec\": 40000, \"speedup_vs_sequential\": 12.000, \"attribution\": {\"busy\": 5000, \"wait \\\"sig\\\"\": 2500, \"mem\": 0}}\n  ],\n  \"sweep\": [\n    {\"config\": \"helix-rc-2\", \"cycles\": 70000, \"dyn_insts\": 210001, \"mem_digest\": 18364758544493126496, \"wall_secs\": 0.250000, \"cycles_per_sec\": 280000, \"speedup_vs_sequential\": 1.714},\n    {\"config\": \"helix-rc-4\", \"cycles\": 40000, \"dyn_insts\": 120001, \"mem_digest\": 18364758544493096528, \"wall_secs\": 0.250000, \"cycles_per_sec\": 160000, \"speedup_vs_sequential\": 3.000}\n  ],\n  \"nests\": [\n    {\"name\": \"outer nest\", \"weight\": 0.6123, \"glue_weight\": 0.0125, \"coverage\": 0.9500, \"plans\": 2, \"seq_cycles\": 73000, \"helix_cycles\": 8000, \"speedup\": 9.125},\n    {\"name\": \"na\\\"b\\\\c\\nd\\u0001e\\tf\\rg\", \"weight\": 0.3000, \"glue_weight\": 0.0000, \"coverage\": 1.0000, \"plans\": 1, \"seq_cycles\": 40000, \"helix_cycles\": 5000, \"speedup\": 8.000}\n  ]\n}\n", "cached": true}
{"v": 1, "type": "campaign", "json": "{\n  \"harness\": \"campaign\"\n}\n", "table": "campaign 'x'\n== t ==\na\"b\\c\nd\u0001e\tf\rg", "stats": {"cells": 26, "journal_hits": 23, "simulated": 1, "failed": 2, "derived_hits": 12, "derived_computed": 1}}
{"v": 1, "type": "checked", "name": "175.vpr", "regions": 3, "phases": 5, "insts": 1234}
{"v": 1, "type": "diff", "identical": false, "detail": "--- < a\n< a\"b\\c\nd\u0001e\tf\rg\n"}
{"v": 1, "type": "explore", "json": "{\n  \"seed\": 7,\n  \"budget\": 3,\n  \"cores\": 2,\n  \"fuel\": 1048576,\n  \"specs_run\": 3,\n  \"oracle_checks\": 18,\n  \"failures\": [\n    {\"index\": 0, \"spec\": \"gen-7-0\", \"oracle\": \"fast-forward\", \"detail\": \"cycles diverge (10 vs 11) a\\\"b\\\\c\\nd\\u0001e\\tf\\rg\", \"shrunk_toml\": \"name = \\\"gen-7-0\\\"\\n\\t# shrunk\\n\"},\n    {\"index\": 2, \"spec\": \"gen-7-2\", \"oracle\": \"sanity\", \"detail\": \"race\", \"shrunk_toml\": \"\"}\n  ],\n  \"frontier\": {\n    \"min_bound_frac\": {\"index\": 1, \"spec\": \"gen-7-1\", \"value\": 0.500000, \"toml\": \"name = \\\"gen-7-1\\\"\\n\"},\n    \"max_comm_frac\": {\"index\": 2, \"spec\": \"gen-7-2\", \"value\": 0.987654, \"toml\": \"name = \\\"gen-7-2\\\"\\n\"},\n    \"inversions\": [\n      {\"index\": 0, \"spec\": \"gen-7-0\", \"v1\": 2.5000, \"v2\": 1.2500, \"helix_rc\": 3.3333, \"toml\": \"name = \\\"gen-7-0\\\"\\n\"},\n      {\"index\": 2, \"spec\": \"gen-7-2\", \"v1\": 1.0000, \"v2\": 1.5000, \"helix_rc\": 1.4000, \"toml\": \"\"}\n    ]\n  }\n}\n", "failures": 2}
{"v": 1, "type": "status", "workers": 4, "requests": 18446744073709551615, "inflight": 1, "cells": 40, "journal_hits": 20, "simulated": 20}
{"v": 1, "type": "shutting_down"}
{"v": 1, "type": "error", "code": "E_IO", "message": "server busy"}
{"v": 1, "type": "error", "code": "E_SPEC", "message": "bad grid a\"b\\c\nd\u0001e\tf\rg", "file": "c.toml", "field": "grid.cores", "value": "-1"}
"##;

#[test]
fn scenario_report_bytes() {
    assert_eq!(scenario_report().to_json(), SCENARIO);
}

#[test]
fn campaign_report_bytes() {
    assert_eq!(campaign_report().to_json(), CAMPAIGN);
    assert_eq!(all_failed_campaign_report().to_json(), ALL_FAILED_CAMPAIGN);
}

#[test]
fn explore_report_bytes() {
    assert_eq!(empty_explore_report().to_json(), EMPTY_EXPLORE);
    assert_eq!(full_explore_report().to_json(), FULL_EXPLORE);
}

#[test]
fn wire_line_bytes() {
    let lines = wire_lines();
    for (got, want) in lines.lines().zip(WIRE_LINES.lines()) {
        assert_eq!(got, want);
    }
    assert_eq!(lines, WIRE_LINES);
}
