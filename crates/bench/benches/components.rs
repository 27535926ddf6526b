//! Criterion microbenchmarks for the reproduction's own components:
//! ring-cache message throughput, points-to analysis, whole-compiler
//! runs, and simulator cycle rate. These measure the *implementation*,
//! complementing the `figures` binary that regenerates the paper's
//! results.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use helix_analysis::{AliasTier, PointsTo};
use helix_hcc::{compile, HccConfig};
use helix_ring_cache::{RingCache, RingConfig};
use helix_sim::{simulate, simulate_sequential, EngineSel, MachineConfig, SimSession};
use helix_workloads::{by_name, Scale};

fn ring_throughput(c: &mut Criterion) {
    c.bench_function("ring_cache/store_circulation_16", |b| {
        b.iter_batched(
            || RingCache::new(RingConfig::paper_default(16)),
            |mut ring| {
                for k in 0..64u64 {
                    ring.store((k % 16) as usize, 0x1000 + k * 8);
                    for _ in 0..4 {
                        ring.tick();
                    }
                }
                while !ring.quiescent() {
                    ring.tick();
                }
                ring
            },
            BatchSize::SmallInput,
        )
    });
}

fn analysis_speed(c: &mut Criterion) {
    let w = by_name("197.parser", Scale::Test).unwrap();
    c.bench_function("analysis/points_to_full_tier", |b| {
        b.iter(|| PointsTo::analyze(&w.program, AliasTier::LibCalls))
    });
}

fn compile_speed(c: &mut Criterion) {
    let w = by_name("164.gzip", Scale::Test).unwrap();
    c.bench_function("hcc/compile_v3_gzip", |b| {
        b.iter(|| compile(&w.program, &HccConfig::v3(16)).unwrap())
    });
}

fn simulator_rate(c: &mut Criterion) {
    let w = by_name("175.vpr", Scale::Test).unwrap();
    let compiled = compile(&w.program, &HccConfig::v3(8)).unwrap();
    c.bench_function("sim/vpr_parallel_8core", |b| {
        b.iter(|| simulate(&compiled, &MachineConfig::helix_rc(8), 1 << 26).unwrap())
    });
    c.bench_function("sim/vpr_sequential", |b| {
        b.iter(|| {
            simulate_sequential(&w.program, &MachineConfig::conventional(8), 1 << 26).unwrap()
        })
    });
}

/// End-to-end simulator throughput on the communication-bound scenario
/// the event-skipping fast-forward targets: HCCv3 code on the
/// conventional 16-core machine (the paper's Fig. 9 "C" configuration),
/// where most cycles are spent in coherence-mediated waits. The naive
/// variant runs the same simulation with the per-cycle loop, so the two
/// numbers are the before/after of the optimization.
fn cycles_per_sec(c: &mut Criterion) {
    let w = by_name("175.vpr", Scale::Test).unwrap();
    let compiled = compile(&w.program, &HccConfig::v3(16)).unwrap();
    c.bench_function("sim/cycles_per_sec", |b| {
        b.iter(|| simulate(&compiled, &MachineConfig::conventional(16), 1 << 26).unwrap())
    });
    c.bench_function("sim/cycles_per_sec_naive", |b| {
        b.iter(|| {
            simulate(
                &compiled,
                &MachineConfig::conventional(16).without_fast_forward(),
                1 << 26,
            )
            .unwrap()
        })
    });
}

/// End-to-end simulator throughput on the dominant configuration: HCCv3
/// code on the HELIX-RC 16-core machine (ring-decoupled communication),
/// which every headline figure simulates and which used to be the
/// slowest simulator path by an order of magnitude. Tracked alongside
/// `sim/cycles_per_sec` by the bench snapshot job; the naive variant
/// steps the reference interpreter (`EngineSel::Tree`) with the
/// per-cycle loop, so the two numbers are the before/after of the
/// decoded functional step, event-skipping fast-forward and the
/// allocation-free ring hot path.
fn helix_rc_cycles_per_sec(c: &mut Criterion) {
    let w = by_name("175.vpr", Scale::Test).unwrap();
    let compiled = compile(&w.program, &HccConfig::v3(16)).unwrap();
    c.bench_function("sim/helix_rc_cycles_per_sec", |b| {
        b.iter(|| simulate(&compiled, &MachineConfig::helix_rc(16), 1 << 26).unwrap())
    });
    c.bench_function("sim/helix_rc_cycles_per_sec_naive", |b| {
        b.iter(|| {
            simulate(
                &compiled,
                &MachineConfig::helix_rc(16)
                    .with_engine(EngineSel::Tree)
                    .without_fast_forward(),
                1 << 26,
            )
            .unwrap()
        })
    });
}

/// Lane-batched session drain on the campaign's dominant shape: a mixed
/// batch of helix-rc and conventional 16-core lanes run one after
/// another over one shared decode. The session (and its decode)
/// persists across iterations, so this tracks exactly what a campaign
/// scenario's steady-state batch costs.
fn session_drain(c: &mut Criterion) {
    let w = by_name("175.vpr", Scale::Test).unwrap();
    let compiled = compile(&w.program, &HccConfig::v3(16)).unwrap();
    let mut session = SimSession::new(&compiled.program, &compiled.plans);
    c.bench_function("sim/session_drain", |b| {
        b.iter(|| {
            for _ in 0..2 {
                session.enqueue(MachineConfig::helix_rc(16), 1 << 26);
                session.enqueue(MachineConfig::conventional(16), 1 << 26);
            }
            for lane in session.drain() {
                lane.result.unwrap();
            }
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = ring_throughput, analysis_speed, compile_speed, simulator_rate, cycles_per_sec,
        helix_rc_cycles_per_sec, session_drain
}
criterion_main!(benches);
