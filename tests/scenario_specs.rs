//! Workspace tests for the declarative scenario subsystem: the
//! committed `scenarios/*.toml` files must stay parseable, be exactly
//! the embedded built-ins, cover the suite, and run end to end.

mod common;

use common::committed_specs;
use helix_rc::scenario::run_scenario;
use helix_rc::workloads::{by_name, Scale, BUILTIN_SCENARIOS};
use helix_rc::RunOptions;
use std::collections::BTreeSet;

/// Every committed file parses, the embedded built-in table lists
/// exactly the files in `scenarios/`, and the directory covers the
/// whole suite: ten SPEC stand-ins, at least five novel scenarios, and
/// at least three multi-nest scenarios.
#[test]
fn committed_scenarios_match_builtins_and_cover_the_suite() {
    let specs = committed_specs();
    let files: BTreeSet<String> = specs
        .iter()
        .map(|(path, _)| {
            let stem = path.file_stem().expect("file name").to_string_lossy();
            stem.into_owned()
        })
        .collect();
    let builtins: BTreeSet<String> = BUILTIN_SCENARIOS
        .iter()
        .map(|(name, _)| name.to_string())
        .collect();
    assert_eq!(
        files, builtins,
        "scenarios/ and the embedded built-in table must list the same files"
    );
    let mut spec_standins = 0;
    let mut novel = 0;
    let mut multi_nest = 0;
    for (_, spec) in &specs {
        if by_name(&spec.name, Scale::Test).is_some() {
            spec_standins += 1;
        } else {
            novel += 1;
        }
        if spec.nests.len() >= 2 {
            multi_nest += 1;
        }
    }
    assert_eq!(
        spec_standins, 10,
        "all ten SPEC stand-ins must be committed"
    );
    assert!(novel >= 5, "need >= 5 novel scenarios, found {novel}");
    assert!(
        multi_nest >= 3,
        "need >= 3 multi-nest scenarios, found {multi_nest}"
    );
}

/// Every committed scenario runs end-to-end (generate -> compile ->
/// simulate on all of its machines) without races or protocol errors.
#[test]
fn every_committed_scenario_runs_end_to_end() {
    for (path, spec) in committed_specs() {
        let report = run_scenario(&spec, &RunOptions::new().with_cores(8))
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(report.runs.len(), spec.run.machines.len(), "{}", spec.name);
        assert!(report.plans >= 1, "{}: nothing parallelized", spec.name);
        let helix = report
            .runs
            .iter()
            .find(|r| r.config.starts_with("helix-rc"))
            .unwrap_or_else(|| panic!("{}: no helix-rc run", spec.name));
        let speedup = helix
            .speedup_vs_sequential
            .expect("sequential baseline first");
        assert!(
            speedup > 0.5,
            "{}: helix-rc catastrophically slow ({speedup:.2}x)",
            spec.name
        );
    }
}

/// Same spec file + seed twice => identical report fingerprints
/// (bit-identical programs, cycles, and memory digests).
#[test]
fn scenario_reports_are_deterministic() {
    for name in ["910.bursty", "900.chase"] {
        let (_, spec) = committed_specs()
            .into_iter()
            .find(|(_, s)| s.name == name)
            .unwrap_or_else(|| panic!("{name} not committed"));
        let options = RunOptions::new().with_cores(4);
        let a = run_scenario(&spec, &options).expect(name);
        let b = run_scenario(&spec, &options).expect(name);
        assert_eq!(a.fingerprint(), b.fingerprint(), "{name}");
    }
}
