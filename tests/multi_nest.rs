//! Workspace tests for the multi-nest scenario axis: committed
//! multi-nest specs must lower deterministically with sound nest
//! boundaries, per-nest derived metrics must be internally consistent
//! (plan→nest attribution sums to whole-program coverage, in-context
//! weights account for the whole run), and campaign reports must carry
//! the speedup-vs-coverage derived rows.

use helix_rc::campaign::run_campaign;
use helix_rc::hcc::{compile, HccConfig};
use helix_rc::scenario::run_scenario;
use helix_rc::workloads::{
    workload_from_spec, CampaignExperiment, CampaignGrid, CampaignSpec, Scale, ScenarioSpec,
};
use helix_rc::{ExperimentOptions, RunOptions};
use std::path::PathBuf;

const MULTI_NEST: [&str; 5] = [
    "950.twonest",
    "960.cov_hi",
    "961.cov_mid",
    "962.cov_lo",
    "970.pipeline",
];

fn committed(name: &str) -> ScenarioSpec {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("scenarios/{name}.toml"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    ScenarioSpec::from_toml(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Every committed multi-nest scenario has >= 2 nests, and the
/// committed set covers the acceptance floor.
#[test]
fn committed_multi_nest_scenarios_cover_the_axis() {
    for name in MULTI_NEST {
        let spec = committed(name);
        assert!(spec.nests.len() >= 2, "{name} is not multi-nest");
    }
    // At least one scenario exercises nest-private regions, one carries
    // state between nests, and the coverage family sweeps glue weight.
    assert!(MULTI_NEST
        .iter()
        .any(|n| committed(n).nests.iter().any(|x| !x.regions.is_empty())));
    assert!(MULTI_NEST
        .iter()
        .any(|n| committed(n).nests.iter().any(|x| x.export.is_some())));
    let glue_of = |name: &str| committed(name).nests[0].glue.per_n;
    assert!(glue_of("960.cov_hi") < glue_of("961.cov_mid"));
    assert!(glue_of("961.cov_mid") < glue_of("962.cov_lo"));
}

/// Plan→nest attribution is exact: the per-nest program coverages
/// (plans mapped through the recorded block boundaries) must sum to the
/// whole-program compile coverage, and every plan must land in exactly
/// one nest.
#[test]
fn nest_boundaries_partition_the_parallelized_loops() {
    for name in MULTI_NEST {
        let spec = committed(name);
        let w = workload_from_spec(&spec, Scale::Test).expect(name);
        assert_eq!(w.nests.len(), spec.nests.len(), "{name}");
        let compiled = compile(&w.program, &HccConfig::v3(8)).expect(name);
        assert!(!compiled.plans.is_empty(), "{name}: nothing parallelized");

        let mut mapped_plans = 0usize;
        let mut mapped_coverage = 0.0f64;
        for boundary in &w.nests {
            let (coverage, plans) =
                compiled.coverage_in_blocks(boundary.first_block, boundary.end_block);
            mapped_plans += plans;
            mapped_coverage += coverage;
        }
        assert_eq!(
            mapped_plans,
            compiled.plans.len(),
            "{name}: every plan must fall inside exactly one nest boundary"
        );
        assert!(
            (mapped_coverage - compiled.stats.coverage).abs() < 1e-9,
            "{name}: nest coverages {mapped_coverage} != whole {}",
            compiled.stats.coverage
        );
    }
}

/// `run_scenario` on a multi-nest spec reports per-nest rows whose
/// in-context weights (nests + glue) account for the whole sequential
/// run, and serializes them to JSON.
#[test]
fn scenario_reports_carry_consistent_nest_rows() {
    let spec = committed("962.cov_lo");
    let report = run_scenario(&spec, &RunOptions::new().with_cores(8)).expect("962.cov_lo runs");
    assert_eq!(report.nests.len(), 2);
    let total: f64 = report
        .nests
        .iter()
        .map(|nest| nest.weight + nest.glue_weight)
        .sum();
    assert!(
        (0.95..=1.001).contains(&total),
        "weights must account for the run, got {total}"
    );
    // The low-coverage family member spends most of its time in glue.
    let glue: f64 = report.nests.iter().map(|nest| nest.glue_weight).sum();
    assert!(glue > 0.5, "cov_lo glue fraction {glue}");
    for nest in &report.nests {
        assert!(nest.plans >= 1, "{}: no plans", nest.name);
        assert!(
            nest.speedup > 0.5,
            "{}: speedup {}",
            nest.name,
            nest.speedup
        );
    }
    let json = report.to_json();
    assert!(json.contains("\"nests\""));
    assert!(json.contains("\"glue_weight\""));

    // Determinism: nest rows are cycle-derived, so fingerprints match.
    let again =
        run_scenario(&spec, &RunOptions::new().with_cores(8)).expect("962.cov_lo runs twice");
    assert_eq!(report.fingerprint(), again.fingerprint());
    assert_eq!(report.nests, again.nests);
}

/// Campaigns with a `generations` experiment emit one derived
/// speedup-vs-coverage row per scenario, with per-nest rows for
/// multi-nest scenarios, deterministically.
#[test]
fn campaigns_emit_derived_speedup_vs_coverage_rows() {
    let spec = CampaignSpec {
        name: "derived-pin".into(),
        description: String::new(),
        scenarios: vec!["unused".into()],
        scale: Scale::Test,
        seed: 0,
        grid: CampaignGrid {
            cores: vec![8],
            sweep_cores: vec![],
            experiments: vec![CampaignExperiment::Generations],
            nest_override: None,
        },
        resilience: Default::default(),
    };
    let scenarios = vec![committed("175.vpr"), committed("950.twonest")];
    let run = |spec: &CampaignSpec| {
        run_campaign(
            spec,
            &scenarios,
            &RunOptions::new(),
            &ExperimentOptions::default(),
        )
        .map(|(report, _)| report)
    };
    let a = run(&spec).expect("campaign runs");
    let b = run(&spec).expect("campaign runs twice");
    assert_eq!(a, b, "derived rows must be deterministic");
    assert_eq!(a.to_json(), b.to_json());

    assert_eq!(a.derived.len(), 2);
    let vpr = &a.derived[0];
    assert_eq!(vpr.scenario, "175.vpr");
    assert!(vpr.nests.is_empty());
    let twonest = &a.derived[1];
    assert_eq!(twonest.scenario, "950.twonest");
    assert_eq!(twonest.nests.len(), 2);
    for d in &a.derived {
        assert!((0.0..=1.0).contains(&d.coverage), "{}", d.scenario);
        assert!(d.amdahl_bound >= 1.0, "{}", d.scenario);
        // The generations row's speedup is the derived speedup.
        let gen_speedup = a
            .rows
            .iter()
            .find(|r| r.scenario == d.scenario && r.experiment == "generations")
            .and_then(|r| r.helix_speedup)
            .unwrap();
        assert_eq!(d.speedup, gen_speedup, "{}", d.scenario);
        assert!(
            (d.bound_frac - d.speedup / d.amdahl_bound).abs() < 1e-12,
            "{}",
            d.scenario
        );
    }
    let json = a.to_json();
    assert!(json.contains("\"derived\""));
    assert!(json.contains("\"amdahl_bound\""));
    let table = a.table();
    assert!(table.contains("speedup vs coverage"), "{table}");
    assert!(table.contains("per-nest breakdown"), "{table}");

    // Without generations there is nothing to anchor on: no derived.
    let mut no_gen = spec;
    no_gen.grid.experiments = vec![CampaignExperiment::CoupledVsRing];
    let report = run(&no_gen).expect("campaign runs");
    assert!(report.derived.is_empty());
    assert!(!report.to_json().contains("\"derived\""));
}

/// The two paths to a nest weight read the same marks: a campaign's
/// derived row takes them from its `generations` cell's sequential run,
/// `run_scenario` from its own whole-program run. At the same core
/// count the weights must be equal, bit for bit.
#[test]
fn derived_row_weights_equal_scenario_weights() {
    let scenario = committed("970.pipeline");
    let spec = CampaignSpec {
        name: "weights-pin".into(),
        description: String::new(),
        scenarios: vec!["unused".into()],
        scale: Scale::Test,
        seed: 0,
        grid: CampaignGrid {
            cores: vec![8],
            sweep_cores: vec![],
            experiments: vec![CampaignExperiment::Generations],
            nest_override: None,
        },
        resilience: Default::default(),
    };
    let (campaign, _) = run_campaign(
        &spec,
        std::slice::from_ref(&scenario),
        &RunOptions::new(),
        &ExperimentOptions::default(),
    )
    .expect("campaign runs");
    let report = run_scenario(&scenario, &RunOptions::new().with_cores(8)).expect("scenario runs");
    let derived: Vec<(String, f64, f64)> = campaign.derived[0]
        .nests
        .iter()
        .map(|n| (n.name.clone(), n.weight, n.glue_weight))
        .collect();
    let direct: Vec<(String, f64, f64)> = report
        .nests
        .iter()
        .map(|n| (n.name.clone(), n.weight, n.glue_weight))
        .collect();
    assert_eq!(derived.len(), 3);
    assert_eq!(derived, direct);
}
