//! Open a brand-new workload without writing IR-builder code: describe
//! it as a [`ScenarioSpec`] (the same data model behind
//! `scenarios/*.toml`), lower it with the generator, and run it through
//! the scenario runner — the in-process equivalent of
//! `helix run my_scenario.toml`.
//!
//! Run with `cargo run --release --example declarative_scenario`.

use helix_rc::ir::Distribution;
use helix_rc::scenario::run_scenario;
use helix_rc::workloads::spec::{
    CarryOp, CarryOperand, CarrySpec, CountExpr, ElemTy, HotLoopSpec, OpSpec, PhaseSpec,
    RegionSpec, RunSpec, ScenarioSpec, UpdateOp, UpdateValue,
};
use helix_rc::workloads::Kind;
use helix_rc::RunOptions;

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    // A market-matching workload: orders arrive with geometrically
    // distributed processing times, hash into a shared order book
    // (memory-carried dependences), and feed a running checksum.
    let region = |name: &str, size: CountExpr, elem: ElemTy| RegionSpec {
        name: name.into(),
        size,
        elem,
    };
    let spec = ScenarioSpec {
        name: "demo.orderbook".into(),
        description: "Order matching: geometric service times + shared book".into(),
        kind: Kind::Int,
        base_n: 800,
        seed: 2014,
        regions: vec![
            region("orders", CountExpr::n_plus(1), ElemTy::I64),
            region("parsed", CountExpr::n_plus(1), ElemTy::I64),
            region("service", CountExpr::n_plus(1), ElemTy::I64),
            region("book", CountExpr::fixed(256), ElemTy::I64),
            region("out", CountExpr::fixed(8), ElemTy::I64),
        ],
        phases: vec![
            PhaseSpec::Fill {
                region: "orders".into(),
                count: CountExpr::n(),
                seed: 99,
            },
            PhaseSpec::Doall {
                input: "orders".into(),
                output: "parsed".into(),
                count: CountExpr::n(),
                work: 13,
            },
            PhaseSpec::HotLoop(HotLoopSpec {
                trips: CountExpr::n(),
                input: Some("parsed".into()),
                carry: Some(CarrySpec {
                    init: 1,
                    out: "out".into(),
                }),
                ops: vec![
                    // Geometric long-tail service times (Fig. 4a shape),
                    // baked from the scenario seed.
                    OpSpec::VarWork {
                        region: "service".into(),
                        dist: Distribution::Geometric { mean: 6, cap: 80 },
                    },
                    // Shared order book: high collision density.
                    OpSpec::Table {
                        region: "book".into(),
                        shift: 0,
                        mask: 255,
                        op: UpdateOp::Add,
                        value: UpdateValue::Cur,
                    },
                    // One order in four updates the checksum chain.
                    OpSpec::Guard {
                        mask: 3,
                        then_ops: vec![OpSpec::Carry {
                            op: CarryOp::Xor,
                            operand: CarryOperand::Cur,
                        }],
                        else_ops: vec![],
                    },
                ],
            }),
        ],
        nests: vec![],
        run: RunSpec {
            cores: 16,
            sweep_cores: vec![2, 4, 8],
            ..RunSpec::default()
        },
    };

    // The spec is plain data: print it as the TOML you would commit
    // under scenarios/ to make this workload part of the suite.
    println!("--- demo.orderbook.toml ---\n{}", spec.to_toml());

    let report = run_scenario(&spec, &RunOptions::new())?;
    println!(
        "{} on {} cores: coverage {:.1}%, {} parallel loop(s)",
        report.scenario,
        report.cores,
        100.0 * report.coverage,
        report.plans
    );
    for row in report.runs.iter().chain(&report.sweep) {
        println!(
            "  {:<16} {:>10} cycles{}",
            row.config,
            row.cycles,
            row.speedup_vs_sequential
                .map(|s| format!("  {s:5.2}x vs sequential"))
                .unwrap_or_default()
        );
    }
    Ok(())
}
