//! Simulator performance harness: measures cycles simulated per
//! wall-second per workload, and the end-to-end runtime of the
//! `decoupling_lattice` + `sweep_core_count` experiments, each in two
//! configurations:
//!
//! * **naive** — the per-cycle loop (`fast_forward` disabled) with every
//!   sweep point run serially, reproducing the pre-optimization code
//!   structure;
//! * **optimized** — the event-skipping fast-forward plus parallel
//!   sweeps, as shipped.
//!
//! Results are written to `BENCH_sim.json` so the perf trajectory is
//! tracked across PRs.
//!
//! ```text
//! cargo run --release -p helix-bench --bin bench_sim            # writes BENCH_sim.json
//! cargo run --release -p helix-bench --bin bench_sim -- fresh.json
//! ```
//!
//! An optional positional argument overrides the output path, so CI can
//! measure into a scratch file and diff against the committed baseline
//! with the `perf_gate` binary. `--attribution` adds a per-stall-cause
//! cycle breakdown (the Fig. 12 buckets) of every helix-rc-16 workload
//! run to the JSON — the profile that shows where the ring-path cycles
//! go.

use helix_rc::campaign::{load_campaign, run_campaign};
use helix_rc::experiment::{
    decoupling_lattice, sweep_core_count, ExperimentOptions, LatticePoint, FUEL,
};
use helix_rc::hcc::{compile, HccConfig};
use helix_rc::json::Json;
use helix_rc::sim::{simulate, simulate_sequential, Bucket, EngineSel, MachineConfig, SimSession};
use helix_rc::workloads::{cint_suite, Scale, Workload};
use helix_rc::RunOptions;
use std::path::Path;
use std::time::Instant;

const SWEEP_COUNTS: [usize; 4] = [2, 4, 8, 16];
/// Repetitions per measurement; the minimum is reported to damp noise.
const REPS: usize = 5;

fn timed<F: FnMut()>(mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

struct WorkloadRow {
    name: String,
    config: &'static str,
    cycles: u64,
    naive_secs: f64,
    fast_secs: f64,
    /// Per-stall-cause cycle totals of the measured run, in
    /// [`Bucket::ALL`] order (emitted only under `--attribution`).
    stall_cycles: Vec<(&'static str, u64)>,
}

impl WorkloadRow {
    fn speedup(&self) -> f64 {
        self.naive_secs / self.fast_secs
    }
    fn fast_cps(&self) -> f64 {
        self.cycles as f64 / self.fast_secs
    }
    fn naive_cps(&self) -> f64 {
        self.cycles as f64 / self.naive_secs
    }
}

/// Per-workload simulator throughput, naive vs fast, on the three
/// machine shapes the experiments exercise.
///
/// Two passes: every fast-path measurement happens before any naive
/// one, so the long naive runs cannot thermally degrade the fast
/// numbers the perf gate tracks.
fn workload_rows(ws: &[Workload]) -> Vec<WorkloadRow> {
    let shapes: [(&'static str, MachineConfig, bool); 3] = [
        ("conventional-16", MachineConfig::conventional(16), true),
        ("helix-rc-16", MachineConfig::helix_rc(16), true),
        ("sequential-16", MachineConfig::conventional(16), false),
    ];
    let compiled: Vec<_> = ws
        .iter()
        .map(|w| compile(&w.program, &HccConfig::v3(16)).expect(&w.name))
        .collect();
    let run = |wi: usize, cfg: &MachineConfig, parallel: bool| {
        let w = &ws[wi];
        if parallel {
            simulate(&compiled[wi], cfg, FUEL).expect(&w.name)
        } else {
            simulate_sequential(&w.program, cfg, FUEL).expect(&w.name)
        }
    };

    // Pass 1: fast path only (remembering each run's digest for the
    // exactness assertion below).
    let mut rows = Vec::new();
    let mut digests = Vec::new();
    for (wi, w) in ws.iter().enumerate() {
        for (label, cfg, parallel) in &shapes {
            let fast = run(wi, cfg, *parallel);
            let fast_secs = timed(|| {
                run(wi, cfg, *parallel);
            });
            rows.push(WorkloadRow {
                name: w.name.clone(),
                config: label,
                cycles: fast.cycles,
                naive_secs: 0.0,
                fast_secs,
                stall_cycles: Bucket::ALL
                    .iter()
                    .map(|&b| (b.label(), fast.attribution.total(b)))
                    .collect(),
            });
            digests.push(fast.mem_digest);
        }
    }

    // Pass 2: the naive baseline — the reference interpreter's step
    // (`EngineSel::Tree`) inside the shared issue loops, with the
    // one-cycle-at-a-time loop instead of fast-forward — plus the
    // runtime cycle-exactness assertion against the fast path.
    let mut row = 0;
    for (wi, w) in ws.iter().enumerate() {
        for (label, cfg, parallel) in &shapes {
            let naive_cfg = cfg
                .clone()
                .with_engine(EngineSel::Tree)
                .without_fast_forward();
            let naive = run(wi, &naive_cfg, *parallel);
            assert_eq!(
                rows[row].cycles, naive.cycles,
                "{}: {label} not cycle-exact",
                w.name
            );
            assert_eq!(digests[row], naive.mem_digest, "{}: {label} digest", w.name);
            rows[row].naive_secs = timed(|| {
                run(wi, &naive_cfg, *parallel);
            });
            row += 1;
        }
    }
    rows
}

/// The pre-optimization shape of `decoupling_lattice` +
/// `sweep_core_count`: serial loops over sweep points, naive cycle loop.
fn lattice_sweep_naive(ws: &[Workload]) {
    for w in ws {
        let _seq = simulate_sequential(
            &w.program,
            &MachineConfig::conventional(16).without_fast_forward(),
            FUEL,
        )
        .expect(&w.name);
        for point in LatticePoint::ALL {
            let compiled = compile(&w.program, &point.compiler(16)).expect(&w.name);
            let cfg = point.machine(16).without_fast_forward();
            simulate(&compiled, &cfg, FUEL).expect(&w.name);
        }
        for &cores in &SWEEP_COUNTS {
            let compiled = compile(&w.program, &HccConfig::v3(cores as u32)).expect(&w.name);
            simulate_sequential(
                &w.program,
                &MachineConfig::conventional(cores).without_fast_forward(),
                FUEL,
            )
            .expect(&w.name);
            let cfg = MachineConfig::helix_rc(cores).without_fast_forward();
            simulate(&compiled, &cfg, FUEL).expect(&w.name);
        }
    }
}

/// The shipped experiment runners (event-skipping + parallel sweeps).
fn lattice_sweep_optimized(ws: &[Workload]) {
    let opts = ExperimentOptions::default();
    for w in ws {
        decoupling_lattice(w, 16, &opts).expect(&w.name);
        sweep_core_count(w, &SWEEP_COUNTS, &opts).expect(&w.name);
    }
}

/// Wall-clock of the `full` campaign profile (every committed scenario,
/// headline experiment grid) at its native full scale, in three
/// execution modes:
///
/// * **before** — per-cell runs that step the reference interpreter
///   (`EngineSel::Tree`) with the naive one-cycle-at-a-time loop (no
///   event-skipping fast-forward), every cell compiling and simulating
///   everything itself — the same "before" convention every workload
///   row uses;
/// * **percell_decoded** — per-cell runs on the decoded engine, i.e.
///   the shipped pre-lane behaviour (`--lanes 1`);
/// * **after** — `--lanes 8`: per-scenario shared compile/decode/report
///   cache, uncached simulations run standalone in parallel.
///
/// All three reports are asserted byte-identical before any number is
/// reported — the cache-exactness property, enforced at measurement
/// time.
fn campaign_full_times() -> (f64, f64, f64) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../campaigns/full.toml");
    let (spec, scenarios) = load_campaign(Path::new(path)).expect("load campaigns/full.toml");
    // The spec's native full scale: Test-scale cells are so small that
    // compile time dominates and the engine/batching deltas this row
    // exists to track disappear into the noise.
    let run = |options: RunOptions, sim: ExperimentOptions| {
        let t0 = Instant::now();
        let (report, _) = run_campaign(&spec, &scenarios, &options, &sim).expect("full campaign");
        (t0.elapsed().as_secs_f64(), report.to_json())
    };
    let decoded = ExperimentOptions::default();
    let (after_secs, after_json) = run(RunOptions::new().with_lanes(8), decoded.clone());
    let (percell_secs, percell_json) = run(RunOptions::new(), decoded);
    let (before_secs, before_json) = run(
        RunOptions::new(),
        ExperimentOptions::default()
            .with_engine(EngineSel::Tree)
            .without_fast_forward(),
    );
    assert_eq!(
        after_json, percell_json,
        "batched campaign report differs from per-cell decoded run"
    );
    assert_eq!(
        after_json, before_json,
        "batched campaign report differs from per-cell tree run"
    );
    (before_secs, percell_secs, after_secs)
}

/// The `sim/session_drain` criterion scenario, measured into the
/// snapshot: a mixed four-lane batch of 175.vpr (2× helix-rc-16 +
/// 2× conventional-16) drained through one warm [`SimSession`] — one
/// shared decode, lanes run one after another — vs the same four
/// simulations run standalone, each decoding for itself. Returns
/// `(standalone_secs, session_secs)`.
fn session_drain_times(ws: &[Workload]) -> Option<(f64, f64)> {
    let w = ws.iter().find(|w| w.name == "175.vpr")?;
    let compiled = compile(&w.program, &HccConfig::v3(16)).expect(&w.name);
    let standalone_secs = timed(|| {
        for _ in 0..2 {
            simulate(&compiled, &MachineConfig::helix_rc(16), FUEL).expect(&w.name);
            simulate(&compiled, &MachineConfig::conventional(16), FUEL).expect(&w.name);
        }
    });
    let mut session = SimSession::new(&compiled.program, &compiled.plans);
    // One untimed drain warms the shared decode, matching the steady
    // state a campaign batch runs in.
    session.enqueue(MachineConfig::helix_rc(16), FUEL);
    session.enqueue(MachineConfig::conventional(16), FUEL);
    for lane in session.drain() {
        lane.result.expect(&w.name);
    }
    let session_secs = timed(|| {
        for _ in 0..2 {
            session.enqueue(MachineConfig::helix_rc(16), FUEL);
            session.enqueue(MachineConfig::conventional(16), FUEL);
        }
        for lane in session.drain() {
            lane.result.expect(&w.name);
        }
    });
    Some((standalone_secs, session_secs))
}

/// Median of `values` (not empty).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        0.5 * (values[mid - 1] + values[mid])
    }
}

fn main() {
    let mut attribution = false;
    let mut out_path = "BENCH_sim.json".to_string();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--attribution" => attribution = true,
            other if other.starts_with("--") => {
                eprintln!("bench_sim: unknown option '{other}'");
                std::process::exit(2);
            }
            other => out_path = other.to_string(),
        }
    }
    let ws = cint_suite(Scale::Test);
    eprintln!(
        "measuring per-workload simulator throughput ({} workloads)...",
        ws.len()
    );
    let rows = workload_rows(&ws);

    eprintln!("measuring decoupling_lattice + sweep_core_count end-to-end...");
    let before_secs = timed(|| lattice_sweep_naive(&ws));
    let after_secs = timed(|| lattice_sweep_optimized(&ws));

    eprintln!("measuring session drain vs standalone runs...");
    let drain = session_drain_times(&ws);

    eprintln!("measuring full-profile campaign wall-clock (tree / per-cell / batched)...");
    let (cf_before, cf_percell, cf_after) = campaign_full_times();

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let f3 = |v: f64| Json::fixed(v, 3);
    let f6 = |v: f64| Json::fixed(v, 6);
    let rate = |v: f64| Json::fixed(v, 0);
    let workloads = rows
        .iter()
        .map(|r| {
            Json::obj()
                .with("name", &r.name)
                .with("config", r.config)
                .with("cycles", r.cycles)
                .with("naive_secs", f6(r.naive_secs))
                .with("fast_secs", f6(r.fast_secs))
                .with("naive_cycles_per_sec", rate(r.naive_cps()))
                .with("fast_cycles_per_sec", rate(r.fast_cps()))
                .with("speedup", f3(r.speedup()))
        })
        .collect::<Vec<_>>();
    // Optional per-stall-cause breakdown of every helix-rc-16 run: the
    // ring-path profile (where each workload's cycles actually go),
    // straight from the simulator's Fig. 12 attribution counters.
    let attribution_rows = attribution.then(|| {
        rows.iter()
            .filter(|r| r.config == "helix-rc-16")
            .map(|r| {
                let buckets = r
                    .stall_cycles
                    .iter()
                    .map(|(label, cycles)| (label.to_string(), Json::from(*cycles)))
                    .collect();
                Json::obj()
                    .with("name", &r.name)
                    .with("config", "helix-rc-16")
                    .with("buckets", Json::Obj(buckets))
            })
            .collect::<Vec<_>>()
    });
    // Per-config fast-path throughput medians. The perf gate tracks
    // these (median-normalized) so a regression confined to one machine
    // shape — above all the dominant helix-rc configuration — cannot
    // hide behind healthy numbers elsewhere.
    let config_medians = ["conventional-16", "helix-rc-16", "sequential-16"]
        .into_iter()
        .map(|cfg| {
            let m = median(
                rows.iter()
                    .filter(|r| r.config == cfg)
                    .map(|r| r.fast_cps())
                    .collect(),
            );
            (cfg.to_string(), rate(m))
        })
        .collect();
    // The `sim/cycles_per_sec` criterion bench scenario (175.vpr, HCCv3
    // code on the conventional 16-core machine — Fig. 9's "C" bar) and
    // the `sim/helix_rc_cycles_per_sec` one (175.vpr on the HELIX-RC
    // 16-core machine — the configuration every headline figure
    // simulates): naive vs fast throughput, surfaced here so the
    // before/after of the headline benches is tracked alongside the
    // rest.
    let criterion = |config: &str| {
        rows.iter()
            .find(|r| r.name == "175.vpr" && r.config == config)
            .map(|r| {
                Json::obj()
                    .with("workload", "175.vpr")
                    .with("config", config)
                    .with("before_cycles_per_sec", rate(r.naive_cps()))
                    .with("after_cycles_per_sec", rate(r.fast_cps()))
                    .with("speedup", f3(r.speedup()))
            })
    };
    // The `sim/session_drain` criterion bench scenario: a mixed batch
    // drained through one warm session vs the same runs standalone.
    let session_drain = drain.map(|(standalone_secs, session_secs)| {
        Json::obj()
            .with("workload", "175.vpr")
            .with("lanes", 4u64)
            .with("standalone_secs", f6(standalone_secs))
            .with("session_secs", f6(session_secs))
            .with("speedup", f3(standalone_secs / session_secs))
    });
    let total_naive: f64 = rows.iter().map(|r| r.naive_secs).sum();
    let total_fast: f64 = rows.iter().map(|r| r.fast_secs).sum();
    let json = Json::obj()
        .with("harness", "bench_sim")
        .with("scale", "Test")
        .with("host_threads", threads)
        .with("reps_min_of", REPS)
        .with("workloads", workloads)
        .with_opt("attribution", attribution_rows)
        .with("config_medians", Json::Obj(config_medians))
        .with_opt("criterion_sim_cycles_per_sec", criterion("conventional-16"))
        .with_opt(
            "criterion_sim_helix_rc_cycles_per_sec",
            criterion("helix-rc-16"),
        )
        .with_opt("criterion_sim_session_drain", session_drain)
        .with(
            "lattice_plus_sweep",
            Json::obj()
                .with("before_secs", f6(before_secs))
                .with("after_secs", f6(after_secs))
                .with("speedup", f3(before_secs / after_secs)),
        )
        // Full-profile campaign wall-clock: per-cell interpreter step
        // with the naive loop (before) vs batched lanes (after), with
        // the per-cell decoded time recorded so the dedup-only
        // contribution is visible. The perf gate requires `speedup` >=
        // 2.5x on every PR (an absolute floor calibrated to single-CPU
        // hosts, where the naive baseline runs comparatively faster;
        // see perf_gate.rs).
        .with(
            "campaign_full",
            Json::obj()
                .with("profile", "full")
                .with("scale", "Full")
                .with("before_secs", f6(cf_before))
                .with("percell_decoded_secs", f6(cf_percell))
                .with("after_secs", f6(cf_after))
                .with("speedup", f3(cf_before / cf_after))
                .with("dedup_speedup", f3(cf_percell / cf_after)),
        )
        .with(
            "workload_totals",
            Json::obj()
                .with("naive_secs", f6(total_naive))
                .with("fast_secs", f6(total_fast))
                .with("speedup", f3(total_naive / total_fast)),
        )
        .document();

    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("{json}");
    eprintln!(
        "lattice+sweep: {before_secs:.2}s -> {after_secs:.2}s ({:.2}x); \
         campaign_full: {cf_before:.2}s -> {cf_after:.2}s ({:.2}x); wrote {out_path}",
        before_secs / after_secs,
        cf_before / cf_after
    );
}
