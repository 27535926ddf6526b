//! Lane-exactness pins: the per-scenario cache that `lanes > 1` turns
//! on is a pure performance feature — a report produced with any lane
//! width, engine selection, or shared-cache configuration must be
//! byte-identical to the uncached per-cell baseline. These tests
//! enforce that across every committed scenario (the paper campaign),
//! across the engine axis (tree and decoded, cached and uncached),
//! under the chaos harness (fault-injected cells stay isolated from
//! their cached neighbours), and, for `SimSession` lanes, against
//! standalone machine runs.

mod common;

use common::repo_path;
use helix_rc::api::{decode_request, execute, Request, Response, RunOptions, SpecSource};
use helix_rc::campaign::{load_campaign, run_campaign, CampaignReport};
use helix_rc::experiment::ExperimentOptions;
use helix_rc::hcc::{compile, CompiledProgram, HccConfig};
use helix_rc::resilient::FaultPlan;
use helix_rc::sim::{EngineSel, Machine, MachineConfig, SimSession};
use helix_rc::workloads::{by_name, CampaignSpec, Scale, ScenarioSpec};
use helix_rc::CampaignSource;
use proptest::prelude::*;
use std::sync::OnceLock;

/// One campaign run on the default engine.
fn run(spec: &CampaignSpec, scenarios: &[ScenarioSpec], options: &RunOptions) -> CampaignReport {
    let sim = ExperimentOptions::default();
    run_campaign(spec, scenarios, options, &sim)
        .expect("campaign runs")
        .0
}

/// The committed paper campaign — every committed scenario through
/// every experiment family — reports byte-identically whether cells
/// run uncached or share a per-scenario cache.
#[test]
fn batched_paper_campaign_is_byte_identical_to_per_cell() {
    let (spec, scenarios) =
        load_campaign(&repo_path("campaigns/paper.toml")).expect("paper campaign loads");
    let baseline = run(&spec, &scenarios, &RunOptions::new());
    assert!(baseline.failures.is_empty(), "{:?}", baseline.failures);
    // Any width > 1 takes the same path (a shared per-scenario cache);
    // wider widths only repeat the same ~40s campaign without new
    // coverage.
    let batched = run(&spec, &scenarios, &RunOptions::new().with_lanes(4));
    assert_eq!(
        batched.to_json(),
        baseline.to_json(),
        "lanes=4 report differs from the per-cell baseline"
    );
}

/// The engine and lane axes are invisible in reports: tree interpreter
/// and decoded engine, each uncached and with the `lanes = 4` cache,
/// emit the same smoke-campaign bytes.
#[test]
fn engine_selection_never_changes_report_bytes() {
    let (spec, scenarios) =
        load_campaign(&repo_path("campaigns/smoke.toml")).expect("smoke campaign loads");
    let baseline = run(&spec, &scenarios, &RunOptions::new());
    assert!(baseline.failures.is_empty());
    for (engine, width) in [
        (EngineSel::Tree, 1),
        (EngineSel::Decoded, 1),
        (EngineSel::Tree, 4),
        (EngineSel::Decoded, 4),
    ] {
        let (report, _) = run_campaign(
            &spec,
            &scenarios,
            &RunOptions::new().with_lanes(width),
            &ExperimentOptions::default().with_engine(engine),
        )
        .expect("engine run");
        assert_eq!(
            report.to_json(),
            baseline.to_json(),
            "engine={engine:?} lanes={width} report differs"
        );
    }
}

/// Failure isolation survives caching: a chaos plan injecting panics
/// into a deterministic subset of cells produces the same failures —
/// and the same surviving rows, byte for byte — at any lane width.
/// Fault-injected cells run without the shared cache, so a panicking
/// cell can neither corrupt nor seed its neighbours.
#[test]
fn chaos_failure_isolation_is_lane_invariant() {
    let (spec, scenarios) =
        load_campaign(&repo_path("campaigns/smoke.toml")).expect("smoke campaign loads");
    let plan = FaultPlan {
        seed: 7,
        panics: 2,
        stalls: 0,
        blowouts: 0,
        stall_ms: 0,
        transient: false,
    };
    let single = run(
        &spec,
        &scenarios,
        &RunOptions::new().with_faults(plan.clone()),
    );
    assert_eq!(single.failures.len(), 2, "exactly the injected panics");
    let batched = run(
        &spec,
        &scenarios,
        &RunOptions::new().with_faults(plan).with_lanes(4),
    );
    assert_eq!(
        batched.to_json(),
        single.to_json(),
        "chaos run must be lane-invariant (same failures, same survivors)"
    );
}

/// One compiled workload shared across every proptest case: the
/// session's exactness contract is schedule-independent, so one program
/// with mixed machine shapes on top exercises everything the strategy
/// varies.
fn compiled_gzip() -> &'static CompiledProgram {
    static COMPILED: OnceLock<CompiledProgram> = OnceLock::new();
    COMPILED.get_or_init(|| {
        let w = by_name("164.gzip", Scale::Test).expect("gzip workload");
        compile(&w.program, &HccConfig::v3(4)).expect("gzip compiles")
    })
}

/// One lane's machine shape and fuel, drawn at random: helix-rc or
/// conventional, 2 or 4 cores, any engine, and a fuel budget that
/// either exhausts mid-run or lets the program complete.
fn lane_strategy() -> impl Strategy<Value = (MachineConfig, u64)> {
    (
        any::<bool>(),
        prop_oneof![Just(2usize), Just(4usize)],
        prop_oneof![
            Just(EngineSel::Tree),
            Just(EngineSel::Decoded),
            Just(EngineSel::Batched),
        ],
        prop_oneof![Just(1u64 << 12), Just(1u64 << 24)],
    )
        .prop_map(|(ring, cores, engine, fuel)| {
            let cfg = if ring {
                MachineConfig::helix_rc(cores)
            } else {
                MachineConfig::conventional(cores)
            };
            (cfg.with_engine(engine), fuel)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property form of the lane-exactness pin at the session layer:
    /// for ANY lane count, enqueue order, engine mix, shape mix, and
    /// fuel mix, every lane's report (or error) out of the session
    /// drain is byte-identical to a standalone `Machine::run` of the
    /// same config — also on a second drain of the same session, over
    /// its already-shared decode.
    #[test]
    fn random_lane_mixes_match_standalone_runs(
        lanes in prop::collection::vec(lane_strategy(), 1..7),
        redrain in any::<bool>(),
    ) {
        let compiled = compiled_gzip();
        let mut session = SimSession::new(&compiled.program, &compiled.plans);
        let rounds = if redrain { 2 } else { 1 };
        for _ in 0..rounds {
            for (cfg, fuel) in &lanes {
                session.enqueue(cfg.clone(), *fuel);
            }
            for (ix, result) in session.drain().into_iter().enumerate() {
                let (cfg, fuel) = &lanes[ix];
                let standalone =
                    Machine::new(&compiled.program, &compiled.plans, cfg.clone()).run(*fuel);
                prop_assert_eq!(
                    format!("{:?}", result.result),
                    format!("{:?}", standalone),
                    "lane {} (cfg {:?}) diverged from its standalone run",
                    ix,
                    cfg
                );
            }
        }
    }
}

/// `lanes = 0` is rejected as a typed usage error at the API layer —
/// for both scenario and campaign requests — before any source is
/// loaded or any cell runs.
#[test]
fn lanes_zero_is_a_typed_usage_error() {
    let requests = [
        Request::RunScenario {
            source: SpecSource::Inline(String::new()),
            options: RunOptions::default().with_lanes(0),
        },
        Request::RunCampaign {
            source: CampaignSource::Inline {
                campaign: String::new(),
                scenarios: Vec::new(),
            },
            options: RunOptions::default().with_lanes(0),
        },
    ];
    for request in requests {
        match execute(request) {
            Response::Error(e) => {
                assert_eq!(e.kind.code(), "E_USAGE");
                assert!(
                    e.message.contains("lanes"),
                    "unexpected message: {}",
                    e.message
                );
            }
            other => panic!("lanes=0 must fail, got {other:?}"),
        }
    }
}

/// The same guard on the service wire: a request line carrying
/// `"lanes": 0` fails to decode with a typed protocol error.
#[test]
fn wire_lanes_zero_is_a_typed_protocol_error() {
    for line in [
        r#"{"v": 1, "type": "run_scenario", "spec": "", "options": {"lanes": 0}}"#,
        r#"{"v": 1, "type": "run_campaign", "campaign": "", "scenarios": [], "options": {"lanes": 0}}"#,
    ] {
        let err = decode_request(line).expect_err("lanes=0 must not decode");
        assert_eq!(err.kind.code(), "E_PROTOCOL");
        assert!(
            err.message.contains("lanes"),
            "unexpected message: {}",
            err.message
        );
    }
}
