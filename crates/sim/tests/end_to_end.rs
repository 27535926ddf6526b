//! End-to-end compile → simulate tests: functional equivalence between
//! sequential and parallel execution, real speedups from decoupling, and
//! failure injection (corrupted plans must trip the race detector).

use helix_hcc::{compile, HccConfig};
use helix_ir::decode::{decode, UOpKind};
use helix_ir::interp::{run_to_completion, Env};
use helix_ir::{AddrExpr, BinOp, Intrinsic, Operand, Program, ProgramBuilder, Ty};
use helix_sim::{simulate, simulate_sequential, EngineSel, Machine, MachineConfig, SyncModel};
use std::sync::Arc;

const FUEL: u64 = 1 << 25;

/// A DOALL-style loop (only private data).
fn doall_program(n: i64) -> Program {
    let mut b = ProgramBuilder::new("doall");
    let data = b.region("data", (n as u64 + 1) * 8, Ty::I64);
    b.counted_loop(0, n, 1, |b, i| {
        let x = b.reg();
        b.load(x, AddrExpr::region_indexed(data, i, 8, 0), Ty::I64);
        b.alu_chain(x, 10);
        b.store(x, AddrExpr::region_indexed(data, i, 8, 0), Ty::I64);
    });
    b.finish()
}

/// The Fig. 5 shape: conditional update of a shared accumulator cell plus
/// meaty private work.
fn fig5_program(n: i64) -> Program {
    let mut b = ProgramBuilder::new("fig5");
    let cell = b.region("cell", 64, Ty::I64);
    let data = b.region("data", (n as u64 + 1) * 8, Ty::I64);
    b.counted_loop(0, n, 1, |b, i| {
        let x = b.reg();
        b.load(x, AddrExpr::region_indexed(data, i, 8, 0), Ty::I64);
        b.alu_chain(x, 12);
        let c = b.reg();
        b.bin(c, BinOp::And, i, 1i64);
        b.if_else(
            c,
            |b| {
                let a = b.reg();
                b.load(a, AddrExpr::region(cell, 0), Ty::I64);
                b.bin(a, BinOp::Add, a, 1i64);
                b.store(a, AddrExpr::region(cell, 0), Ty::I64);
            },
            |b| {
                let t = b.reg();
                b.bin(t, BinOp::Mul, i, 3i64);
                b.store(t, AddrExpr::region_indexed(data, i, 8, 0), Ty::I64);
            },
        );
    });
    b.finish()
}

/// Histogram with hash collisions, an unpredictable register, and a
/// reduction — all three sharing kinds at once.
fn mixed_program(n: i64) -> Program {
    let mut b = ProgramBuilder::new("mixed");
    let hist = b.region("hist", 1024, Ty::I64);
    let data = b.region("data", (n as u64 + 1) * 8, Ty::I64);
    let out = b.region("out", 64, Ty::I64);
    // Setup: fill data.
    b.counted_loop(0, n, 1, |b, i| {
        let h = b.reg();
        b.call(Some(h), Intrinsic::PureHash, vec![Operand::Reg(i)]);
        b.store(h, AddrExpr::region_indexed(data, i, 8, 0), Ty::I64);
    });
    let state = b.reg();
    let sum = b.reg();
    b.const_i(state, 1);
    b.const_i(sum, 0);
    b.counted_loop(0, n, 1, |b, i| {
        let x = b.reg();
        b.load(x, AddrExpr::region_indexed(data, i, 8, 0), Ty::I64);
        b.alu_chain(x, 6);
        // Histogram update (memory-carried dependence).
        let hx = b.reg();
        b.bin(hx, BinOp::And, x, 127i64);
        let cell = b.reg();
        b.load(cell, AddrExpr::region_indexed(hist, hx, 8, 0), Ty::I64);
        b.bin(cell, BinOp::Add, cell, 1i64);
        b.store(cell, AddrExpr::region_indexed(hist, hx, 8, 0), Ty::I64);
        // Unpredictable register chain (register-carried dependence).
        let c = b.reg();
        b.bin(c, BinOp::And, x, 3i64);
        b.if_then(c, |b| {
            b.bin(state, BinOp::Xor, state, x);
        });
        // Reduction (re-computed, no communication).
        b.bin(sum, BinOp::Add, sum, x);
    });
    b.store(state, AddrExpr::region(out, 0), Ty::I64);
    b.store(sum, AddrExpr::region(out, 8), Ty::I64);
    b.finish()
}

/// Pure reduction program.
fn reduction_program(n: i64) -> Program {
    let mut b = ProgramBuilder::new("red");
    let data = b.region("data", (n as u64 + 1) * 8, Ty::I64);
    let out = b.region("out", 64, Ty::I64);
    b.counted_loop(0, n, 1, |b, i| {
        b.store(i, AddrExpr::region_indexed(data, i, 8, 0), Ty::I64);
    });
    let acc = b.reg();
    b.const_i(acc, 0);
    b.counted_loop(0, n, 1, |b, i| {
        let x = b.reg();
        b.load(x, AddrExpr::region_indexed(data, i, 8, 0), Ty::I64);
        b.alu_chain(x, 4);
        b.bin(acc, BinOp::Add, acc, x);
    });
    b.store(acc, AddrExpr::region(out, 0), Ty::I64);
    b.finish()
}

/// Run the program both ways and assert bit-identical memory.
fn assert_equivalent(program: &Program, hcc: &HccConfig, machine: &MachineConfig) -> (u64, u64) {
    let compiled = compile(program, hcc).expect("compiles");
    assert!(
        !compiled.plans.is_empty(),
        "expected at least one parallelized loop"
    );
    // Reference: the transformed program run in the plain interpreter.
    let mut env = Env::for_program(&compiled.program);
    run_to_completion(&compiled.program, &mut env).expect("reference run");
    let expect = env.mem.digest();

    let par = simulate(&compiled, machine, FUEL).expect("parallel run");
    assert_eq!(
        par.race_violations,
        vec![],
        "race detector must stay silent"
    );
    assert_eq!(par.protocol_errors, Vec::<String>::new());
    assert_eq!(par.mem_digest, expect, "parallel result differs");

    let seq = simulate_sequential(program, machine, FUEL).expect("sequential run");
    (seq.cycles, par.cycles)
}

#[test]
fn doall_equivalent_and_fast() {
    let p = doall_program(2000);
    let (seq, par) = assert_equivalent(&p, &HccConfig::v3(16), &MachineConfig::helix_rc(16));
    let speedup = seq as f64 / par as f64;
    assert!(speedup > 6.0, "DOALL speedup only {speedup:.2}x");
}

#[test]
fn fig5_equivalent_on_ring() {
    let p = fig5_program(1200);
    let (seq, par) = assert_equivalent(&p, &HccConfig::v3(16), &MachineConfig::helix_rc(16));
    let speedup = seq as f64 / par as f64;
    assert!(speedup > 2.0, "fig5 speedup only {speedup:.2}x");
}

#[test]
fn mixed_program_equivalent_on_ring() {
    let p = mixed_program(1500);
    let (seq, par) = assert_equivalent(&p, &HccConfig::v3(16), &MachineConfig::helix_rc(16));
    let speedup = seq as f64 / par as f64;
    assert!(speedup > 1.5, "mixed speedup only {speedup:.2}x");
}

#[test]
fn reduction_equivalent_and_scales() {
    let p = reduction_program(3000);
    let (seq, par) = assert_equivalent(&p, &HccConfig::v3(16), &MachineConfig::helix_rc(16));
    let speedup = seq as f64 / par as f64;
    assert!(speedup > 6.0, "reduction speedup only {speedup:.2}x");
}

#[test]
fn v2_code_on_conventional_machine_is_equivalent() {
    let p = fig5_program(800);
    let mut hcc = HccConfig::v2(16);
    // Make selection permissive so the loop parallelizes even under the
    // conventional cost model (we want to measure it, not skip it).
    hcc.selection.sync_cost = 4.0;
    let mut machine = MachineConfig::conventional(16);
    machine.sync = SyncModel::ChainedPredecessor;
    let (_seq, _par) = assert_equivalent(&p, &hcc, &machine);
}

#[test]
fn decoupling_beats_conventional_on_short_iterations() {
    let p = mixed_program(1200);
    // HCCv3-style code on both machines (paper Fig. 9 setup).
    let mut hcc = HccConfig::v3(16);
    hcc.selection.sync_cost = 4.0;
    let compiled = compile(&p, &hcc).expect("compiles");
    assert!(!compiled.plans.is_empty());

    let ring = simulate(&compiled, &MachineConfig::helix_rc(16), FUEL).unwrap();
    let conv = simulate(&compiled, &MachineConfig::conventional(16), FUEL).unwrap();
    assert!(ring.race_violations.is_empty());
    assert!(conv.race_violations.is_empty());
    assert_eq!(ring.mem_digest, conv.mem_digest);
    assert!(
        conv.cycles > ring.cycles,
        "ring {} vs conventional {} cycles",
        ring.cycles,
        conv.cycles
    );
}

#[test]
fn scaling_with_core_count() {
    let p = doall_program(3000);
    let mut prev_cycles = u64::MAX;
    for cores in [2usize, 4, 8, 16] {
        let compiled = compile(&p, &HccConfig::v3(cores as u32)).unwrap();
        let rep = simulate(&compiled, &MachineConfig::helix_rc(cores), FUEL).unwrap();
        assert!(rep.race_violations.is_empty());
        assert!(
            rep.cycles < prev_cycles,
            "{cores} cores: {} !< {prev_cycles}",
            rep.cycles
        );
        prev_cycles = rep.cycles;
    }
}

#[test]
fn out_of_order_cores_run_parallel_code() {
    let p = mixed_program(900);
    let compiled = compile(&p, &HccConfig::v3(8)).unwrap();
    let mut cfg = MachineConfig::helix_rc(8);
    cfg.core = helix_sim::CoreModel::OutOfOrder { width: 4, rob: 64 };

    // Reference digest.
    let mut env = Env::for_program(&compiled.program);
    run_to_completion(&compiled.program, &mut env).unwrap();

    let rep = simulate(&compiled, &cfg, FUEL).unwrap();
    assert!(rep.race_violations.is_empty());
    assert_eq!(rep.protocol_errors, Vec::<String>::new());
    assert_eq!(rep.mem_digest, env.mem.digest());

    // The OoO core extracts ILP: sequential execution is faster than
    // in-order sequential.
    let seq_io = simulate_sequential(&p, &MachineConfig::conventional(8), FUEL).unwrap();
    let mut cfg_seq = MachineConfig::conventional(8);
    cfg_seq.core = helix_sim::CoreModel::OutOfOrder { width: 4, rob: 64 };
    let seq_ooo = simulate_sequential(&p, &cfg_seq, FUEL).unwrap();
    assert!(
        seq_ooo.cycles < seq_io.cycles,
        "OoO {} !< in-order {}",
        seq_ooo.cycles,
        seq_io.cycles
    );
}

#[test]
fn failure_injection_dropped_wait_is_detected() {
    let p = mixed_program(800);
    let mut compiled = compile(&p, &HccConfig::v3(8)).unwrap();
    assert!(!compiled.plans.is_empty());
    // Corrupt the program: remove every wait instruction.
    let mut removed = 0;
    for block in &mut compiled.program.graph.blocks {
        let before = block.insts.len();
        block
            .insts
            .retain(|i| !matches!(i, helix_ir::Inst::Wait { .. }));
        removed += before - block.insts.len();
    }
    assert!(removed > 0, "test premise: waits existed");
    let rep = simulate(&compiled, &MachineConfig::helix_rc(8), FUEL).unwrap();
    assert!(
        !rep.race_violations.is_empty(),
        "dropped waits must be caught by the race detector"
    );
}

#[test]
fn failure_injection_mistagged_segment_is_detected() {
    let p = mixed_program(800);
    let mut compiled = compile(&p, &HccConfig::v3(8)).unwrap();
    // Corrupt: move every shared access of segment 1 into segment 0,
    // merging two disjoint-data segments without merging their waits.
    let mut retagged = 0;
    for block in &mut compiled.program.graph.blocks {
        for inst in &mut block.insts {
            if let helix_ir::Inst::Load { shared, .. } | helix_ir::Inst::Store { shared, .. } = inst
            {
                if let Some(tag) = shared {
                    if tag.seg == helix_ir::SegmentId(1) {
                        tag.seg = helix_ir::SegmentId(0);
                        retagged += 1;
                    }
                }
            }
        }
    }
    if retagged == 0 {
        return; // only one segment was formed; nothing to corrupt
    }
    let rep = simulate(&compiled, &MachineConfig::helix_rc(8), FUEL).unwrap();
    assert!(
        !rep.race_violations.is_empty() || !rep.protocol_errors.is_empty(),
        "mistagged segments must be caught"
    );
}

#[test]
fn zero_and_tiny_trip_counts() {
    // Trip counts 0 and 1 and 3 (< cores) must all work.
    for n in [0i64, 1, 3] {
        let mut b = ProgramBuilder::new("tiny");
        let data = b.region("data", 256, Ty::I64);
        let out = b.region("out", 64, Ty::I64);
        let acc = b.reg();
        b.const_i(acc, 7);
        b.counted_loop(0, 100, 1, |b, _rep| {
            b.counted_loop(0, n, 1, |b, i| {
                let x = b.reg();
                b.load(x, AddrExpr::region_indexed(data, i, 8, 0), Ty::I64);
                b.bin(x, BinOp::Add, x, i);
                b.store(x, AddrExpr::region_indexed(data, i, 8, 0), Ty::I64);
                b.bin(acc, BinOp::Add, acc, 1i64);
            });
        });
        b.store(acc, AddrExpr::region(out, 0), Ty::I64);
        let p = b.finish();
        let compiled = compile(&p, &HccConfig::v3(8)).unwrap();
        let mut env = Env::for_program(&compiled.program);
        run_to_completion(&compiled.program, &mut env).unwrap();
        let rep = simulate(&compiled, &MachineConfig::helix_rc(8), FUEL).unwrap();
        assert_eq!(rep.mem_digest, env.mem.digest(), "trip {n}");
        assert!(rep.race_violations.is_empty(), "trip {n}");
    }
}

#[test]
fn deterministic_across_runs() {
    let p = mixed_program(600);
    let compiled = compile(&p, &HccConfig::v3(16)).unwrap();
    let a = simulate(&compiled, &MachineConfig::helix_rc(16), FUEL).unwrap();
    let b = simulate(&compiled, &MachineConfig::helix_rc(16), FUEL).unwrap();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.mem_digest, b.mem_digest);
    assert_eq!(a.dyn_insts, b.dyn_insts);
}

/// `data[i] = i + 1`: every stored value is non-zero, so a store that
/// lands one element off changes the final memory image.
fn fill_program(n: i64) -> Program {
    let mut b = ProgramBuilder::new("fill");
    let data = b.region("data", (n as u64 + 1) * 8, Ty::I64);
    b.counted_loop(0, n, 1, |b, i| {
        let x = b.reg();
        b.bin(x, BinOp::Add, i, 1i64);
        b.store(x, AddrExpr::region_indexed(data, i, 8, 0), Ty::I64);
    });
    b.finish()
}

/// `EngineSel::Tree` steps the reference interpreter over the IR, not
/// the decoded micro-ops: with every store's folded address moved one
/// element in a shared decode, a tree machine still ends with the clean
/// memory image and a decoded machine does not. Serial and parallel
/// (HCCv3 on four cores) execution both go through the same step.
#[test]
fn tree_engine_steps_the_interpreter_not_the_decode() {
    let program = fill_program(32);
    let compiled = compile(&program, &HccConfig::v3(4)).unwrap();
    assert!(!compiled.plans.is_empty());
    let shapes = [
        (&program, &[][..], MachineConfig::conventional(1)),
        (
            &compiled.program,
            &compiled.plans[..],
            MachineConfig::conventional(4),
        ),
    ];
    for (program, plans, cfg) in shapes {
        let clean = Machine::new(program, plans, cfg.clone()).run(FUEL).unwrap();
        let mut corrupt = decode(program);
        let mut stores = 0;
        for u in &mut corrupt.uops {
            if matches!(u.kind, UOpKind::Store { .. }) {
                u.addr_const += 8;
                stores += 1;
            }
        }
        assert!(stores > 0, "the program stores");
        let corrupt = Arc::new(corrupt);
        let digest = |engine| {
            let cfg = cfg.clone().with_engine(engine);
            Machine::with_decoded(program, plans, cfg, corrupt.clone())
                .run(FUEL)
                .unwrap()
                .mem_digest
        };
        assert_eq!(digest(EngineSel::Tree), clean.mem_digest, "{}", cfg.cores);
        assert_ne!(
            digest(EngineSel::Decoded),
            clean.mem_digest,
            "{}",
            cfg.cores
        );
    }
}
