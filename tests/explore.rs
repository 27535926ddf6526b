//! Workspace tests for `helix explore`: the report must be
//! seed-deterministic byte for byte, every oracle must provably fire on
//! deliberately broken input (mutation-style negative tests — an oracle
//! that can't fail gates nothing), shrinking must preserve the
//! triggering property, and the committed 1000-series scenarios must
//! pass the full oracle battery (they are explore-curated).
//!
//! Also home to the regression pin for the guard-branch bypass-sync
//! compiler bug the explore fuzzer caught: per-segment wait/signal
//! placement splits edges, and later segments must treat the split
//! blocks as loop members or shared accesses in the other branch of a
//! guard execute outside their window.

use helix_rc::explore::{
    amdahl_bound, examine_spec, measure_metrics, oracle_amdahl_bound, oracle_coverage_sum,
    oracle_report_agreement, oracle_sanity, run_explore, shrink_spec, ExploreOptions,
};
use helix_rc::hcc::{compile, HccConfig};
use helix_rc::scenario::NestRow;
use helix_rc::sim::{simulate, simulate_sequential, MachineConfig, RaceViolation};
use helix_rc::workloads::{builtin_spec, generate, generated_spec, Scale, ScenarioSpec};

const FUEL: u64 = 1 << 26;

fn smoke_opts() -> ExploreOptions {
    ExploreOptions {
        seed: 0,
        budget: 1,
        cores: 4,
        fuel: FUEL,
        export_dir: None,
    }
}

// ---------------------------------------------------------------------
// Seed determinism
// ---------------------------------------------------------------------

/// Same seed + budget => byte-identical report JSON (the acceptance
/// criterion CI's explore-smoke job relies on).
#[test]
fn explore_report_is_byte_identical_across_runs() {
    let opts = ExploreOptions {
        seed: 42,
        budget: 3,
        ..smoke_opts()
    };
    let a = run_explore(&opts).expect("explore runs");
    let b = run_explore(&opts).expect("explore runs");
    assert_eq!(a.to_json(), b.to_json(), "same seed+budget must be stable");
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_eq!(a.specs_run, 3);

    let other = run_explore(&ExploreOptions {
        seed: 43,
        budget: 3,
        ..smoke_opts()
    })
    .expect("explore runs");
    assert_ne!(
        a.to_json(),
        other.to_json(),
        "a different seed must explore different specs"
    );
}

/// The report bytes match the fingerprints the repository benchmark
/// recorded (`perfbench/expected/explore.txt`: seed, then the
/// fingerprint at budget 2 with default cores and fuel), so a drift in
/// the report writer fails here before it fails a benchmark run. Seed
/// 13 is the only pool seed whose report shrinks an inversion, and its
/// three frontier hits are the same spec, so it covers the inversion
/// shrink and the per-request metrics memo.
#[test]
fn explore_fingerprints_match_the_benchmark_record() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/perfbench/expected/explore.txt"
    );
    let text = std::fs::read_to_string(path).expect("read the recorded fingerprints");
    let recorded: Vec<(u64, &str)> = text
        .lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .map(|line| {
            let (seed, fingerprint) = line.split_once(' ').expect("'<seed> <fingerprint>'");
            (seed.parse().expect("numeric seed"), fingerprint)
        })
        .collect();
    for seed in [0, 1, 2, 13] {
        let want = recorded
            .iter()
            .find(|(s, _)| *s == seed)
            .map(|(_, f)| *f)
            .expect("seed recorded");
        let report = run_explore(&ExploreOptions {
            seed,
            budget: 2,
            ..ExploreOptions::default()
        })
        .expect("explore runs");
        assert_eq!(
            format!("{:016x}", report.fingerprint()),
            want,
            "seed {seed}"
        );
    }
}

// ---------------------------------------------------------------------
// Frontier metrics
// ---------------------------------------------------------------------

/// The shrinkers' lean measurement runs only the baseline and the
/// compiler generations, yet must report exactly the metrics the full
/// battery does: a plain spec, an inverted one (seed 13's #0) and its
/// halved copy, a committed server-traffic scenario, and a spec whose
/// baseline runs out of fuel, where both sides have no metrics.
#[test]
fn frontier_metrics_match_the_battery() {
    let opts = ExploreOptions::default();
    let inverted = generated_spec(13, 0);
    let mut halved = inverted.clone();
    halved.base_n /= 2;
    let mut specs: Vec<ScenarioSpec> = (0..4).map(|i| generated_spec(0, i)).collect();
    specs.extend([
        inverted,
        halved,
        builtin_spec("1000.openloop").expect("builtin"),
    ]);
    for spec in &specs {
        let battery = examine_spec(spec, &opts).metrics;
        assert!(battery.is_some(), "{}: baseline runs", spec.name);
        assert_eq!(measure_metrics(spec, &opts), battery, "{}", spec.name);
    }
    assert!(
        examine_spec(&specs[4], &opts)
            .metrics
            .is_some_and(|m| m.inverted()),
        "seed 13's #0 exercises the generations"
    );

    let starved = ExploreOptions { fuel: 1, ..opts };
    assert_eq!(examine_spec(&specs[0], &starved).metrics, None);
    assert_eq!(measure_metrics(&specs[0], &starved), None);
}

// ---------------------------------------------------------------------
// Mutation-style negative tests: each oracle fires on broken input
// ---------------------------------------------------------------------

/// A real run report to mutate (the smallest committed scenario keeps
/// this cheap).
fn baseline_report() -> helix_rc::sim::RunReport {
    let spec = builtin_spec("183.equake").expect("builtin");
    let program = generate(&spec, Scale::Test).expect("generates");
    simulate_sequential(&program, &MachineConfig::conventional(2), FUEL).expect("runs")
}

#[test]
fn report_agreement_oracle_fires_on_every_mutated_observable() {
    let base = baseline_report();
    assert!(
        oracle_report_agreement(&base, &base, "self").is_ok(),
        "a report must agree with itself"
    );
    type Mutation = (&'static str, Box<dyn Fn(&mut helix_rc::sim::RunReport)>);
    let mutations: Vec<Mutation> = vec![
        ("cycles", Box::new(|r| r.cycles += 1)),
        ("mem_digest", Box::new(|r| r.mem_digest ^= 1)),
        ("dyn_insts", Box::new(|r| r.dyn_insts += 1)),
        ("iterations", Box::new(|r| r.iterations += 1)),
        ("loop_invocations", Box::new(|r| r.loop_invocations += 1)),
        ("l1_hits", Box::new(|r| r.mem_stats.l1_hits += 1)),
        ("l1_misses", Box::new(|r| r.mem_stats.l1_misses += 1)),
        (
            "protocol_errors",
            Box::new(|r| r.protocol_errors.push("injected".into())),
        ),
        (
            "race_violations",
            Box::new(|r| {
                r.race_violations.push(RaceViolation::UnprotectedSharing {
                    addr: 0x40,
                    a: 0,
                    b: 1,
                })
            }),
        ),
    ];
    for (what, mutate) in mutations {
        let mut broken = base.clone();
        mutate(&mut broken);
        assert!(
            oracle_report_agreement(&base, &broken, what).is_err(),
            "agreement oracle must fire on a mutated {what}"
        );
    }
}

#[test]
fn sanity_oracle_fires_on_dirty_reports() {
    let base = baseline_report();
    assert!(oracle_sanity(&base, "clean").is_ok());

    let mut raced = base.clone();
    raced
        .race_violations
        .push(RaceViolation::UnprotectedSharing {
            addr: 0x80,
            a: 0,
            b: 3,
        });
    assert!(
        oracle_sanity(&raced, "raced").is_err(),
        "sanity oracle must fire on race violations"
    );

    let mut protocol = base.clone();
    protocol.protocol_errors.push("missing signal".into());
    assert!(
        oracle_sanity(&protocol, "protocol").is_err(),
        "sanity oracle must fire on protocol errors"
    );
}

fn nest_row(name: &str, weight: f64, glue_weight: f64) -> NestRow {
    NestRow {
        name: name.into(),
        weight,
        glue_weight,
        coverage: 0.9,
        plans: 1,
        seq_cycles: 1000,
        helix_cycles: 500,
        speedup: 2.0,
    }
}

#[test]
fn coverage_sum_oracle_fires_when_weights_leak() {
    let good = [nest_row("a", 0.55, 0.05), nest_row("b", 0.3, 0.1)];
    assert!(oracle_coverage_sum(&good).is_ok());

    let leaking = [nest_row("a", 0.5, 0.0), nest_row("b", 0.3, 0.1)];
    assert!(
        oracle_coverage_sum(&leaking).is_err(),
        "coverage-sum oracle must fire when weights don't account for the program"
    );

    let out_of_range = [nest_row("a", 1.4, 0.0), nest_row("b", -0.4, 0.0)];
    assert!(
        oracle_coverage_sum(&out_of_range).is_err(),
        "coverage-sum oracle must fire on out-of-range weights"
    );
}

#[test]
fn amdahl_oracle_fires_above_the_bound() {
    // Full coverage at 8 cores bounds the computation speedup at 8x.
    assert!((amdahl_bound(1.0, 8) - 8.0).abs() < 1e-9);
    assert!(oracle_amdahl_bound(7.5, 1.0, 8).is_ok());
    assert!(
        oracle_amdahl_bound(9.5, 1.0, 8).is_err(),
        "amdahl oracle must fire when speedup exceeds the bound"
    );
    // Zero coverage bounds it at 1x: any real speedup is a violation.
    assert!(oracle_amdahl_bound(2.0, 0.0, 8).is_err());
    // Degenerate speedups are broken accounting, not wins.
    assert!(oracle_amdahl_bound(0.0, 1.0, 8).is_err());
    assert!(oracle_amdahl_bound(f64::NAN, 1.0, 8).is_err());
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

/// The shrunk spec still satisfies the triggering predicate, still
/// validates, round-trips through TOML, and is no larger than the
/// original.
#[test]
fn shrunk_spec_still_reproduces_the_property() {
    let spec = generated_spec(7, 0);
    spec.validate().expect("generated specs validate");
    assert!(spec.base_n >= 16, "generator floor keeps specs non-trivial");

    let mut keep = |s: &ScenarioSpec| s.base_n >= 8;
    let shrunk = shrink_spec(&spec, &mut keep, 64);
    assert!(
        shrunk.base_n >= 8,
        "shrunk spec must still satisfy the triggering property"
    );
    assert!(
        shrunk.base_n < spec.base_n,
        "shrinking must make progress on a halvable dimension"
    );
    shrunk.validate().expect("shrunk specs stay valid");
    let reparsed = ScenarioSpec::from_toml(&shrunk.to_toml()).expect("shrunk TOML parses");
    assert_eq!(reparsed, shrunk, "shrunk TOML must round-trip exactly");
}

// ---------------------------------------------------------------------
// The committed 1000-series is explore-curated
// ---------------------------------------------------------------------

/// Every committed 1000-series server-traffic scenario passes the full
/// oracle battery — the same bar generated specs are held to.
#[test]
fn committed_1000_series_passes_the_oracle_battery() {
    for name in ["1000.openloop", "1010.closedloop", "1020.tailburst"] {
        let spec = builtin_spec(name).unwrap_or_else(|| panic!("{name} not built in"));
        let exam = examine_spec(&spec, &smoke_opts());
        assert!(
            exam.failures.is_empty(),
            "{name}: oracle failures: {:?}",
            exam.failures
        );
        let metrics = exam
            .metrics
            .unwrap_or_else(|| panic!("{name}: no frontier metrics"));
        assert!(metrics.speedup > 1.0, "{name}: no parallel win");
    }
}

// ---------------------------------------------------------------------
// Regression: guard-branch bypass synchronization
// ---------------------------------------------------------------------

/// The explore fuzzer's own auto-shrunk repro of the wrong-code bug it
/// caught (`gen.0000000000000000.2`, shrunk by [`shrink_spec`] to
/// `base_n = 16` with no prefix phases): a guard whose branches do
/// memory work, followed by a shared pointer-chase in a later segment.
/// The earlier segment's wait/signal placement splits the guard's
/// branch edge; before the fix, the later segment's reachability
/// analysis treated the split block as a loop exit, skipped the body,
/// and never placed the bypass signal — so the shared chase ran outside
/// its window (OutsideSegment races) and memory diverged. The trigger
/// is data-dependent (the racing hops must collide on a word), so the
/// shrunk spec is embedded verbatim rather than rebuilt by hand.
const GUARD_BRANCH_REPRO: &str = r#"
name = "t.guardsync"
description = "guarded memory branches ahead of a shared pointer-chase"
kind = "int"
base_n = 16
seed = -537132696929009172

[[region]]
name = "in"
size = "n+1"
elem = "i64"

[[region]]
name = "mid"
size = "n+1"
elem = "i64"

[[region]]
name = "grid"
size = "1024"
elem = "i64"

[[region]]
name = "tab"
size = "256"
elem = "i64"

[[region]]
name = "lens"
size = "n+1"
elem = "i64"

[[region]]
name = "out"
size = "8"
elem = "i64"

[[phase]]
kind = "hot_loop"
trips = "n"
input = "mid"

[[phase.ops]]
kind = "guard"
mask = 255

[[phase.ops.then]]
kind = "stream"
region = "grid"
stride = 256

[[phase.ops.else]]
kind = "store"
region = "mid"

[[phase.ops]]
kind = "ptr_chase"
region = "tab"
hops = 1
mask = 15

[run]
cores = 4
compiler = "v3"
machines = ["sequential", "conventional"]
fuel = 134217728
"#;

#[test]
fn guarded_shared_accesses_stay_inside_their_windows() {
    let spec = ScenarioSpec::from_toml(GUARD_BRANCH_REPRO).expect("repro TOML parses");
    spec.validate().expect("trigger spec validates");
    let program = generate(&spec, Scale::Test).expect("generates");
    let compiled = compile(&program, &HccConfig::v3(4)).expect("compiles");
    let parallel =
        simulate(&compiled, &MachineConfig::helix_rc(4), FUEL).expect("parallel run completes");
    assert!(
        parallel.race_violations.is_empty(),
        "guard-branch shared accesses ran outside their windows: {:?}",
        parallel.race_violations
    );
    assert!(
        parallel.protocol_errors.is_empty(),
        "{:?}",
        parallel.protocol_errors
    );
    // Functional equivalence: the compiled program run sequentially and
    // in parallel must end with identical memory (the two runs share
    // the __shared_vars region, so digests are comparable).
    let sequential = simulate_sequential(&compiled.program, &MachineConfig::conventional(4), FUEL)
        .expect("sequential run completes");
    assert_eq!(
        sequential.mem_digest, parallel.mem_digest,
        "guard-branch bypass sync regressed: parallel memory diverges"
    );
}
