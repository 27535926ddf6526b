//! The decoded functional step must be invisible. Every engine runs the
//! same issue loops over the decoded timing tables; `EngineSel::Decoded`
//! (the default) steps the decoded micro-ops and `EngineSel::Tree` steps
//! the reference interpreter over the IR, and the two have to produce
//! bit-identical reports. These tests sweep every committed scenario
//! spec at Test scale through both steps on four machine shapes
//! (sequential, HCCv3 on the conventional and HELIX-RC machines, and
//! out-of-order HELIX-RC) and compare every observable: cycle counts,
//! the final memory digest, dynamic instruction counts, iteration
//! bookkeeping, and the full attribution table.
//!
//! Every report is also pinned to `tests/golden/engine_timing.txt`: one
//! line per (shape, scenario) with the cycle count, dynamic instruction
//! count, memory digest and attribution bucket totals. The table is the
//! timing oracle: a change to any latency, routing or issue rule shows
//! up as a mismatch, and the failure message prints the regenerated
//! lines for the shape so a deliberate change can refresh the file.

mod common;

use helix_rc::hcc::{compile, HccConfig};
use helix_rc::sim::{simulate, simulate_sequential, Bucket, EngineSel, MachineConfig, RunReport};
use helix_rc::workloads::{workload_from_spec, Scale, Workload};

const FUEL: u64 = 1 << 27;
const CORES: usize = 8;
const GOLDEN: &str = include_str!("golden/engine_timing.txt");

/// One golden-table line: `shape scenario` then the report's timing
/// observables as `key=value` fields.
fn timing_row(shape: &str, name: &str, r: &RunReport) -> String {
    let mut row = format!(
        "{shape} {name} cycles={} dyn_insts={} mem_digest={:016x}",
        r.cycles, r.dyn_insts, r.mem_digest
    );
    for b in Bucket::ALL {
        row.push_str(&format!(" {b:?}={}", r.attribution.total(b)));
    }
    row
}

/// The committed golden lines of `shape`, in file order.
fn golden(shape: &str) -> Vec<&'static str> {
    GOLDEN
        .lines()
        .filter(|line| line.split(' ').next() == Some(shape))
        .collect()
}

/// `rows` must equal the committed lines of `shape`; on a mismatch the
/// panic prints the regenerated lines.
fn assert_golden(shape: &str, rows: &[String]) {
    if golden(shape) != rows {
        panic!(
            "{shape}: reports differ from tests/golden/engine_timing.txt; regenerated lines:\n{}",
            rows.join("\n")
        );
    }
}

fn committed_workloads() -> Vec<Workload> {
    common::committed_specs()
        .into_iter()
        .map(|(path, spec)| {
            workload_from_spec(&spec, Scale::Test)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        })
        .collect()
}

fn assert_reports_identical(decoded: &RunReport, tree: &RunReport, what: &str) {
    assert_eq!(decoded.cycles, tree.cycles, "{what}: cycles diverge");
    assert_eq!(
        decoded.mem_digest, tree.mem_digest,
        "{what}: memory diverges"
    );
    assert_eq!(
        decoded.dyn_insts, tree.dyn_insts,
        "{what}: dynamic instructions diverge"
    );
    assert_eq!(
        decoded.iterations, tree.iterations,
        "{what}: iterations diverge"
    );
    assert_eq!(
        decoded.loop_invocations, tree.loop_invocations,
        "{what}: loop invocations diverge"
    );
    assert_eq!(
        decoded.protocol_errors, tree.protocol_errors,
        "{what}: protocol errors diverge"
    );
    assert_eq!(
        decoded.race_violations.len(),
        tree.race_violations.len(),
        "{what}: race violations diverge"
    );
    for b in Bucket::ALL {
        assert_eq!(
            decoded.attribution.total(b),
            tree.attribution.total(b),
            "{what}: attribution bucket {b:?} diverges"
        );
    }
    let (d, t) = (&decoded.mem_stats, &tree.mem_stats);
    assert_eq!(d.l1_hits, t.l1_hits, "{what}: L1 hits diverge");
    assert_eq!(d.l1_misses, t.l1_misses, "{what}: L1 misses diverge");
    assert_eq!(
        d.c2c_transfers, t.c2c_transfers,
        "{what}: C2C transfers diverge"
    );
}

/// The decoded engine is the configuration default; the tree
/// interpreter stays reachable as the cross-check.
#[test]
fn decoded_engine_is_the_default() {
    let cfg = MachineConfig::helix_rc(CORES);
    assert_eq!(cfg.engine, EngineSel::Decoded);
    assert_eq!(cfg.with_engine(EngineSel::Tree).engine, EngineSel::Tree);
}

/// Sequential execution: both engines, every committed scenario.
#[test]
fn engines_agree_sequential() {
    let cfg = MachineConfig::conventional(CORES);
    let tree_cfg = cfg.clone().with_engine(EngineSel::Tree);
    let mut rows = Vec::new();
    for w in committed_workloads() {
        let decoded = simulate_sequential(&w.program, &cfg, FUEL).expect(&w.name);
        let tree = simulate_sequential(&w.program, &tree_cfg, FUEL).expect(&w.name);
        assert_reports_identical(&decoded, &tree, &format!("{} (sequential)", w.name));
        rows.push(timing_row("sequential", &w.name, &decoded));
    }
    assert_golden("sequential", &rows);
}

/// HCCv3 code on the conventional machine: both engines, every
/// committed scenario.
#[test]
fn engines_agree_conventional() {
    let cfg = MachineConfig::conventional(CORES);
    let tree_cfg = cfg.clone().with_engine(EngineSel::Tree);
    let mut rows = Vec::new();
    for w in committed_workloads() {
        let compiled = compile(&w.program, &HccConfig::v3(CORES as u32)).expect(&w.name);
        let decoded = simulate(&compiled, &cfg, FUEL).expect(&w.name);
        let tree = simulate(&compiled, &tree_cfg, FUEL).expect(&w.name);
        assert_reports_identical(&decoded, &tree, &format!("{} (conventional)", w.name));
        rows.push(timing_row("conventional", &w.name, &decoded));
    }
    assert_golden("conventional", &rows);
}

/// HCCv3 code on the HELIX-RC machine (ring-decoupled communication):
/// both engines, every committed scenario.
#[test]
fn engines_agree_helix_rc() {
    let cfg = MachineConfig::helix_rc(CORES);
    let tree_cfg = cfg.clone().with_engine(EngineSel::Tree);
    let mut rows = Vec::new();
    for w in committed_workloads() {
        let compiled = compile(&w.program, &HccConfig::v3(CORES as u32)).expect(&w.name);
        let decoded = simulate(&compiled, &cfg, FUEL).expect(&w.name);
        let tree = simulate(&compiled, &tree_cfg, FUEL).expect(&w.name);
        assert_reports_identical(&decoded, &tree, &format!("{} (helix-rc)", w.name));
        rows.push(timing_row("helix-rc", &w.name, &decoded));
    }
    assert_golden("helix-rc", &rows);
}

/// The engines also agree with the naive (no event-skipping) cycle loop
/// crossed with both engines — four-way equality on a HELIX-RC machine.
#[test]
fn engines_agree_without_fast_forward() {
    let configs = [
        MachineConfig::helix_rc(CORES),
        MachineConfig::helix_rc(CORES).with_engine(EngineSel::Tree),
        MachineConfig::helix_rc(CORES).without_fast_forward(),
        MachineConfig::helix_rc(CORES)
            .with_engine(EngineSel::Tree)
            .without_fast_forward(),
    ];
    // One representative communication-heavy scenario keeps the 4-way
    // product affordable; the committed-scenario sweeps above cover
    // breadth.
    let ws = committed_workloads();
    let w = ws.first().expect("at least one scenario");
    let compiled = compile(&w.program, &HccConfig::v3(CORES as u32)).expect(&w.name);
    let reference = simulate(&compiled, &configs[0], FUEL).expect(&w.name);
    let row = timing_row("helix-rc", &w.name, &reference);
    assert!(
        golden("helix-rc").contains(&row.as_str()),
        "{}: reference differs from its golden line; regenerated line:\n{row}",
        w.name
    );
    for cfg in &configs[1..] {
        let other = simulate(&compiled, cfg, FUEL).expect(&w.name);
        assert_reports_identical(&reference, &other, &format!("{} (4-way)", w.name));
    }
}

/// Out-of-order cores run their own dispatch loop; pin it on every
/// committed scenario too.
#[test]
fn engines_agree_out_of_order() {
    let mut cfg = MachineConfig::helix_rc(4);
    cfg.core = helix_rc::sim::CoreModel::OutOfOrder { width: 2, rob: 48 };
    let tree_cfg = cfg.clone().with_engine(EngineSel::Tree);
    let mut rows = Vec::new();
    for w in committed_workloads() {
        let compiled = compile(&w.program, &HccConfig::v3(4)).expect(&w.name);
        let decoded = simulate(&compiled, &cfg, FUEL).expect(&w.name);
        let tree = simulate(&compiled, &tree_cfg, FUEL).expect(&w.name);
        assert_reports_identical(&decoded, &tree, &format!("{} (out-of-order)", w.name));
        rows.push(timing_row("out-of-order", &w.name, &decoded));
    }
    assert_golden("out-of-order", &rows);
}
