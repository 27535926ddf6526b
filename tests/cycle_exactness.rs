//! The event-skipping fast-forward must be invisible: simulating with
//! `MachineConfig::fast_forward` on and off has to produce bit-identical
//! reports. These tests run the three smallest workloads through both
//! paths on the machine shapes the experiments use and compare every
//! observable the ISSUE names (`cycles`, `mem_digest`, `iterations`)
//! plus the full attribution table.

use helix_rc::hcc::{compile, HccConfig};
use helix_rc::sim::{simulate, simulate_sequential, Bucket, MachineConfig, RunReport};
use helix_rc::workloads::{suite, Scale, Workload};

const FUEL: u64 = 1 << 26;

/// The three smallest workloads by static instruction count.
fn smallest_three() -> Vec<Workload> {
    let mut ws = suite(Scale::Test);
    ws.sort_by_key(|w| {
        w.program
            .graph
            .blocks
            .iter()
            .map(|b| b.insts.len())
            .sum::<usize>()
    });
    ws.truncate(3);
    ws
}

fn assert_reports_identical(fast: &RunReport, naive: &RunReport, what: &str) {
    assert_eq!(fast.cycles, naive.cycles, "{what}: cycles diverge");
    assert_eq!(fast.mem_digest, naive.mem_digest, "{what}: memory diverges");
    assert_eq!(
        fast.iterations, naive.iterations,
        "{what}: iterations diverge"
    );
    assert_eq!(
        fast.dyn_insts, naive.dyn_insts,
        "{what}: dynamic instructions diverge"
    );
    assert_eq!(
        fast.loop_invocations, naive.loop_invocations,
        "{what}: loop invocations diverge"
    );
    for b in Bucket::ALL {
        assert_eq!(
            fast.attribution.total(b),
            naive.attribution.total(b),
            "{what}: attribution bucket {b:?} diverges"
        );
    }
}

/// HCCv3 code on the HELIX-RC machine (ring-decoupled communication).
#[test]
fn fast_forward_is_cycle_exact_on_helix_machine() {
    for w in smallest_three() {
        let compiled = compile(&w.program, &HccConfig::v3(8)).expect(&w.name);
        let cfg = MachineConfig::helix_rc(8);
        let fast = simulate(&compiled, &cfg, FUEL).expect(&w.name);
        let naive = simulate(&compiled, &cfg.clone().without_fast_forward(), FUEL).expect(&w.name);
        assert_reports_identical(&fast, &naive, &w.name);
    }
}

/// HCCv3 code on the conventional machine (coherence-mediated waits —
/// the configuration with the longest skippable stall windows).
#[test]
fn fast_forward_is_cycle_exact_on_conventional_machine() {
    for w in smallest_three() {
        let compiled = compile(&w.program, &HccConfig::v3(8)).expect(&w.name);
        let cfg = MachineConfig::conventional(8);
        let fast = simulate(&compiled, &cfg, FUEL).expect(&w.name);
        let naive = simulate(&compiled, &cfg.clone().without_fast_forward(), FUEL).expect(&w.name);
        assert_reports_identical(&fast, &naive, &w.name);
    }
}

/// Sequential execution (idle worker cores, memory-latency stalls).
#[test]
fn fast_forward_is_cycle_exact_sequential() {
    for w in smallest_three() {
        let cfg = MachineConfig::conventional(8);
        let fast = simulate_sequential(&w.program, &cfg, FUEL).expect(&w.name);
        let naive = simulate_sequential(&w.program, &cfg.clone().without_fast_forward(), FUEL)
            .expect(&w.name);
        assert_reports_identical(&fast, &naive, &w.name);
    }
}

/// The smallest workload by static instruction count.
fn smallest() -> Workload {
    smallest_three().swap_remove(0)
}

/// More than 64 cores: the sleep set spans several words and cores share
/// wake-hint bits (bit `cid % 64`), so a hint is never consumed.
#[test]
fn fast_forward_is_cycle_exact_sequential_above_64_cores() {
    let w = smallest();
    let cfg = MachineConfig::conventional(96);
    let fast = simulate_sequential(&w.program, &cfg, FUEL).expect(&w.name);
    let naive =
        simulate_sequential(&w.program, &cfg.clone().without_fast_forward(), FUEL).expect(&w.name);
    assert_reports_identical(&fast, &naive, &w.name);
}

/// HCCv3 code on a 128-core HELIX-RC machine: two sleep-set words, and
/// ring wake hints that alias across them.
#[test]
fn fast_forward_is_cycle_exact_on_helix_machine_above_64_cores() {
    let w = smallest();
    let compiled = compile(&w.program, &HccConfig::v3(128)).expect(&w.name);
    let cfg = MachineConfig::helix_rc(128);
    let fast = simulate(&compiled, &cfg, FUEL).expect(&w.name);
    let naive = simulate(&compiled, &cfg.clone().without_fast_forward(), FUEL).expect(&w.name);
    assert_reports_identical(&fast, &naive, &w.name);
}

/// Scenario nest with a loop-carried value resolved at the exit
/// barrier. Reduction combining there charges machine cycles the ring
/// clock never sees, so the ring permanently lags the core clock; the
/// fast-forward jump must preserve that offset rather than resync the
/// two clocks (regression: `950.twonest` drifted by the combine cost on
/// every ring ready-time after the first barrier).
#[test]
fn fast_forward_is_cycle_exact_after_reduction_barrier() {
    use helix_rc::workloads::{workload_from_spec, ScenarioSpec};
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/950.twonest.toml"
    ))
    .expect("read scenario");
    let spec = ScenarioSpec::from_toml(&text).expect("parse scenario");
    let w = workload_from_spec(&spec, Scale::Test).expect("build workload");
    let compiled = compile(&w.program, &HccConfig::v3(4)).expect(&w.name);
    let cfg = MachineConfig::helix_rc(4);
    let fast = simulate(&compiled, &cfg, FUEL).expect(&w.name);
    let naive = simulate(&compiled, &cfg.clone().without_fast_forward(), FUEL).expect(&w.name);
    assert_reports_identical(&fast, &naive, &w.name);
}

/// The out-of-order core model exercises the ROB-retirement and fence
/// wake paths.
#[test]
fn fast_forward_is_cycle_exact_out_of_order() {
    for w in smallest_three() {
        let compiled = compile(&w.program, &HccConfig::v3(4)).expect(&w.name);
        let mut cfg = MachineConfig::helix_rc(4);
        cfg.core = helix_rc::sim::CoreModel::OutOfOrder { width: 2, rob: 48 };
        let fast = simulate(&compiled, &cfg, FUEL).expect(&w.name);
        let naive = simulate(&compiled, &cfg.clone().without_fast_forward(), FUEL).expect(&w.name);
        assert_reports_identical(&fast, &naive, &w.name);
    }
}

/// The out-of-order core on the conventional machine: HCCv3 waits
/// observe signals through coherence, so the wait path's observation
/// deadlines meet the ROB-retirement wakes.
#[test]
fn fast_forward_is_cycle_exact_out_of_order_on_conventional_machine() {
    for w in smallest_three() {
        let compiled = compile(&w.program, &HccConfig::v3(4)).expect(&w.name);
        let mut cfg = MachineConfig::conventional(4);
        cfg.core = helix_rc::sim::CoreModel::OutOfOrder { width: 2, rob: 48 };
        let fast = simulate(&compiled, &cfg, FUEL).expect(&w.name);
        let naive = simulate(&compiled, &cfg.clone().without_fast_forward(), FUEL).expect(&w.name);
        assert_reports_identical(&fast, &naive, &w.name);
    }
}
