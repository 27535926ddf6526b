//! Every committed scenario, run at Test scale the way `helix run` runs
//! it, reproduces the fingerprint the repository benchmark recorded for
//! it (`perfbench/expected/run-suite.txt`). The fingerprint covers the
//! sequential, conventional and HELIX-RC rows (cycles, dynamic
//! instructions, memory digest) and the nest cycles, so a simulator
//! change that moves any of them fails here before it fails a
//! benchmark run. The test reads the record and never writes it.

use helix_rc::scenario::run_scenario;
use helix_rc::workloads::{Scale, ScenarioSpec};
use helix_rc::RunOptions;
use std::collections::BTreeMap;

#[test]
fn scenario_fingerprints_match_the_benchmark_record() {
    let root = env!("CARGO_MANIFEST_DIR");
    let text = std::fs::read_to_string(format!("{root}/perfbench/expected/run-suite.txt"))
        .expect("read the recorded fingerprints");
    let recorded: BTreeMap<&str, &str> = text
        .lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .map(|line| line.split_once(' ').expect("'<scenario> <fingerprint>'"))
        .collect();

    let mut paths: Vec<_> = std::fs::read_dir(format!("{root}/scenarios"))
        .expect("list scenarios")
        .map(|e| e.expect("scenario entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    paths.sort();
    let stems: Vec<String> = paths
        .iter()
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        stems,
        recorded.keys().copied().collect::<Vec<_>>(),
        "the record names exactly the committed scenarios"
    );

    let options = RunOptions::new().with_scale(Scale::Test);
    for (path, stem) in paths.iter().zip(&stems) {
        let spec = ScenarioSpec::from_toml(&std::fs::read_to_string(path).unwrap())
            .unwrap_or_else(|e| panic!("{stem}: {e}"));
        let report = run_scenario(&spec, &options).unwrap_or_else(|e| panic!("{stem}: {e}"));
        assert_eq!(report.fingerprint(), recorded[stem.as_str()], "{stem}");
    }
}
