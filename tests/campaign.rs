//! Workspace tests for the campaign subsystem: the committed campaign
//! files must stay loadable, the smoke campaign must run end-to-end
//! deterministically, grid cells must lower onto the exact experiment
//! calls, and the committed per-scenario speedup baseline must stay a
//! valid gate input.

mod common;

use common::{committed_scenario_files, repo_path};
use helix_rc::campaign::{load_campaign, run_campaign};
use helix_rc::experiment::{decoupling_lattice, ExperimentOptions};
use helix_rc::resilient::FaultPlan;
use helix_rc::workloads::{
    builtin_spec, workload_from_spec, CampaignExperiment, CampaignGrid, CampaignSpec, Scale,
};
use helix_rc::RunOptions;

/// The committed smoke campaign loads, covers the distribution-
/// stressing novel scenarios, runs end-to-end, and produces
/// byte-identical reports across runs (same campaign + seed).
#[test]
fn committed_smoke_campaign_runs_deterministically() {
    let (spec, scenarios) =
        load_campaign(&repo_path("campaigns/smoke.toml")).expect("smoke campaign loads");
    assert_eq!(spec.name, "smoke");
    assert_eq!(spec.scale, Scale::Test);
    let names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
    for required in [
        "930.zipf",
        "940.phase",
        "175.vpr",
        "950.twonest",
        "962.cov_lo",
        "970.pipeline",
        "1000.openloop",
        "1020.tailburst",
    ] {
        assert!(names.contains(&required), "smoke set missing {required}");
    }

    let (options, sim) = (RunOptions::new(), ExperimentOptions::default());
    let (a, _) = run_campaign(&spec, &scenarios, &options, &sim).expect("smoke campaign runs");
    let (b, _) =
        run_campaign(&spec, &scenarios, &options, &sim).expect("smoke campaign runs twice");
    assert_eq!(a, b, "campaign reports must be deterministic");
    assert_eq!(a.to_json(), b.to_json(), "reports must be byte-identical");

    // Every scenario contributes a headline speedup for the CI gate.
    let speedups = a.helix_speedups();
    assert_eq!(speedups.len(), scenarios.len());
    for (name, speedup) in &speedups {
        assert!(
            *speedup > 0.5,
            "{name}: helix-rc catastrophically slow ({speedup:.2}x)"
        );
    }
}

/// End-to-end resilience on the committed smoke campaign: a chaos run
/// with injected panics completes with exactly those cells enumerated
/// as failures (never aborting the sweep), and resuming from its
/// journal reproduces the uninterrupted report byte for byte — the
/// property the CI chaos-smoke job pins at the CLI level. Derived rows
/// are journaled with their `generations` cell under chaos too, so the
/// resume recomputes only those of the failed cells.
#[test]
fn smoke_campaign_survives_chaos_and_resumes_byte_identically() {
    let (spec, scenarios) =
        load_campaign(&repo_path("campaigns/smoke.toml")).expect("smoke campaign loads");
    let sim = ExperimentOptions::default();
    let (clean, _) = run_campaign(&spec, &scenarios, &RunOptions::new(), &sim).expect("clean run");
    assert!(clean.failures.is_empty());

    let journal = std::env::temp_dir().join(format!(
        "helix-ws-chaos-{}-{}",
        std::process::id(),
        spec.name
    ));
    let _ = std::fs::remove_dir_all(&journal);
    let chaos_opts = RunOptions {
        journal: Some(journal.clone()),
        resume: false,
        faults: Some(FaultPlan {
            seed: 7,
            panics: 2,
            stalls: 0,
            blowouts: 0,
            stall_ms: 0,
            transient: false,
        }),
        ..RunOptions::default()
    };
    let (chaos, _) =
        run_campaign(&spec, &scenarios, &chaos_opts, &sim).expect("chaos run completes");
    assert_eq!(chaos.failures.len(), 2, "exactly the injected panics");
    assert!(chaos.rows.len() < clean.rows.len());

    let resume_opts = RunOptions {
        journal: Some(journal.clone()),
        resume: true,
        ..RunOptions::default()
    };
    let (resumed, stats) =
        run_campaign(&spec, &scenarios, &resume_opts, &sim).expect("resume completes");
    assert!(resumed.failures.is_empty());
    let top_cores = *spec.grid.cores.iter().max().unwrap() as usize;
    let failed_derivers = chaos
        .failures
        .iter()
        .filter(|f| f.experiment == "generations" && f.cores == top_cores)
        .count();
    assert!(failed_derivers > 0, "the plan must hit a deriving cell");
    assert_eq!(stats.derived_computed, failed_derivers, "{stats:?}");
    assert_eq!(
        stats.derived_hits,
        clean.derived.len() - failed_derivers,
        "{stats:?}"
    );
    assert_eq!(
        resumed.to_json(),
        clean.to_json(),
        "resumed report must be byte-identical to the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&journal);
}

/// The committed paper campaign must fan out over *every* committed
/// scenario spec (the property that makes new scenarios show up in the
/// sweep figures automatically) and name every experiment family.
#[test]
fn committed_paper_campaign_covers_every_committed_scenario() {
    let (spec, scenarios) =
        load_campaign(&repo_path("campaigns/paper.toml")).expect("paper campaign loads");
    assert_eq!(
        scenarios.len(),
        committed_scenario_files().len(),
        "paper campaign must match every scenarios/*.toml"
    );
    assert_eq!(
        spec.grid.experiments.len(),
        CampaignExperiment::ALL.len(),
        "paper campaign must exercise every experiment family"
    );
    assert_eq!(spec.grid.cores, vec![16], "paper sweep runs at 16 cores");
    assert_eq!(spec.grid.sweep_cores, vec![2, 4, 8, 16]);
}

/// Campaign-grid lowering: a lattice cell must reproduce the exact
/// numbers of the equivalent hand-built `decoupling_lattice` call
/// (same MachineConfig/HccConfig per point, hence bit-equal speedups).
#[test]
fn lattice_cell_matches_direct_experiment_call() {
    let scenario = builtin_spec("900.chase").unwrap();
    let spec = CampaignSpec {
        name: "lattice-pin".into(),
        description: String::new(),
        scenarios: vec!["unused".into()],
        scale: Scale::Test,
        seed: 0,
        grid: CampaignGrid {
            cores: vec![4],
            sweep_cores: vec![],
            experiments: vec![CampaignExperiment::Lattice],
            nest_override: None,
        },
        resilience: Default::default(),
    };
    let (report, _) = run_campaign(
        &spec,
        std::slice::from_ref(&scenario),
        &RunOptions::new(),
        &ExperimentOptions::default(),
    )
    .unwrap();
    assert_eq!(report.rows.len(), 1);
    let row = &report.rows[0];

    let w = workload_from_spec(&scenario, Scale::Test).unwrap();
    let direct = decoupling_lattice(&w, 4, &ExperimentOptions::default()).unwrap();
    assert_eq!(row.points.len(), direct.len());
    for ((label, value), (point, speedup)) in row.points.iter().zip(&direct) {
        assert_eq!(label, point.label());
        assert_eq!(value, speedup, "{label}: campaign cell diverges");
    }
    assert_eq!(row.helix_speedup, Some(direct.last().unwrap().1));
}

/// The committed BENCH_scenarios.json baseline must stay a campaign
/// report with gateable generations rows for the smoke scenario set.
#[test]
fn committed_scenario_baseline_is_gateable() {
    let text = std::fs::read_to_string(repo_path("BENCH_scenarios.json"))
        .expect("BENCH_scenarios.json committed");
    assert!(text.contains("\"harness\": \"campaign\""));
    assert!(text.contains("\"name\": \"smoke\""));
    assert!(text.contains("\"experiment\": \"generations\""));
    for scenario in [
        "175.vpr",
        "900.chase",
        "910.bursty",
        "930.zipf",
        "940.phase",
        "950.twonest",
        "960.cov_hi",
        "961.cov_mid",
        "962.cov_lo",
        "970.pipeline",
        "1000.openloop",
        "1010.closedloop",
        "1020.tailburst",
    ] {
        assert!(
            text.contains(&format!("\"scenario\": \"{scenario}\"")),
            "baseline missing {scenario}"
        );
    }
    assert!(text.contains("\"helix_speedup\""));
    assert!(
        text.contains("\"derived\"") && text.contains("\"amdahl_bound\""),
        "baseline must carry the derived speedup-vs-coverage rows"
    );
}

/// The committed Full profile loads, runs at the Full scale over every
/// committed scenario, and anchors the derived metrics on generations.
#[test]
fn committed_full_campaign_profile_is_loadable() {
    let (spec, scenarios) =
        load_campaign(&repo_path("campaigns/full.toml")).expect("full campaign loads");
    assert_eq!(spec.name, "full");
    assert_eq!(spec.scale, Scale::Full);
    assert!(
        spec.grid
            .experiments
            .contains(&CampaignExperiment::Generations),
        "the Full profile must include generations (the derived-table anchor)"
    );
    assert_eq!(
        scenarios.len(),
        committed_scenario_files().len(),
        "full campaign must cover every scenarios/*.toml"
    );
    assert!(
        scenarios.iter().any(|s| !s.nests.is_empty()),
        "full campaign must exercise the multi-nest axis"
    );
}
