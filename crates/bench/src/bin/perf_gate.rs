//! Perf-regression gates: compare fresh measurements against committed
//! baselines and fail the build on disproportionate drops.
//!
//! **Throughput mode** (default) compares a fresh `bench_sim` run
//! against `BENCH_sim.json`:
//!
//! ```text
//! cargo run --release -p helix-bench --bin bench_sim -- fresh.json
//! cargo run --release -p helix-bench --bin perf_gate -- BENCH_sim.json fresh.json
//! ```
//!
//! Absolute `cycles_per_sec` numbers differ between machines, so this
//! mode normalizes: per (workload, config) pair it computes the
//! fresh/baseline throughput ratio, divides every ratio by the median
//! ratio (cancelling uniform machine-speed differences), and fails if
//! any pair's *normalized* ratio drops below `1 - tolerance` (default
//! 30%) — i.e. if some workload slowed down disproportionately to the
//! rest. A uniform slowdown cannot hide behind the median either: the
//! raw median itself must stay above an order-of-magnitude floor of the
//! baseline, which is lenient across runner generations but catches an
//! accidental return to the naive cycle loop. When the baseline carries
//! a `campaign_full` row (full-profile campaign wall-clock, naive
//! per-cell tree vs lane-batched), the fresh run must carry one too and
//! its measured speedup must stay above an absolute 2.5x floor.
//!
//! **Scenario mode** (`--scenarios`) compares campaign reports — the
//! per-scenario HELIX-RC *speedups* from `generations` rows — against
//! the committed `BENCH_scenarios.json`:
//!
//! ```text
//! helix campaign campaigns/smoke.toml --out fresh_campaign.json
//! perf_gate --scenarios BENCH_scenarios.json fresh_campaign.json
//! ```
//!
//! Speedups are ratios of simulated cycle counts, so they are
//! deterministic and machine-independent: no median normalization, just
//! a per-scenario tolerance (default 20%) that catches any code change
//! degrading what HELIX-RC achieves on a workload. Scenarios only in
//! the fresh report are listed as new (commit a refreshed baseline to
//! start gating them); scenarios missing from the fresh report fail.
//!
//! Scenario mode also gates two fractions that speedups alone cannot
//! see: `comm_frac` (share of cross-core traffic covered by ring-cache
//! proactive circulation, from `coupled_vs_ring` rows) and `bound_frac`
//! (achieved fraction of the coverage-derived Amdahl bound, from the
//! report's `derived` rows). These are compared by *absolute* drift in
//! either direction — a fraction moving is a behavioural change even
//! when speedups survive — under `--frac-tolerance` (default 0.10).
//! Finally, any entry in the fresh report's `failures` array (cells the
//! resilient campaign runtime isolated instead of completing) fails the
//! gate outright: a crashed or budget-blown cell is never a pass.

use helix_rc::json::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Normalized per-pair regression tolerance (`--tolerance` overrides).
const DEFAULT_TOLERANCE: f64 = 0.30;
/// Per-scenario speedup tolerance for `--scenarios` mode.
const DEFAULT_SCENARIO_TOLERANCE: f64 = 0.20;
/// Absolute drift tolerance for comm_frac / bound_frac in `--scenarios`
/// mode (`--frac-tolerance` overrides).
const DEFAULT_FRAC_TOLERANCE: f64 = 0.10;
/// Floor on the raw median fresh/baseline ratio: the whole suite an
/// order of magnitude slower means the fast path itself regressed.
const MEDIAN_FLOOR: f64 = 0.1;
/// Minimum end-to-end full-profile campaign speedup (naive per-cell
/// tree execution vs lane-batched decode-once execution) from the
/// `campaign_full` row. Wall-clock ratios wobble with machine load, so
/// this is an absolute floor rather than a baseline-relative ratio —
/// and it is calibrated to the slowest host class we gate on: the
/// naive tree baseline is disproportionately faster on single-CPU
/// boxes (less parallel-cell contention), so identical code that
/// measures ~4.8x on a many-core host measures ~2.9x there (observed
/// run-to-run band 2.7–3.4). The floor sits just under that band.
const CAMPAIGN_FULL_MIN_SPEEDUP: f64 = 2.5;

fn load_rows(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let rows = doc
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no 'workloads' array"))?;
    let mut out = BTreeMap::new();
    for row in rows {
        let name = row
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: workload row without 'name'"))?;
        let config = row
            .get("config")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: workload row without 'config'"))?;
        let cps = row
            .get("fast_cycles_per_sec")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("{path}: {name}/{config} missing fast_cycles_per_sec"))?;
        if cps <= 0.0 {
            return Err(format!("{path}: {name}/{config} non-positive throughput"));
        }
        out.insert(format!("{name} @ {config}"), cps);
    }
    if out.is_empty() {
        return Err(format!("{path}: empty workload table"));
    }
    Ok(out)
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN ratios"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        0.5 * (values[mid - 1] + values[mid])
    }
}

/// Per-config `cycles_per_sec` medians from a `bench_sim` report's
/// `config_medians` object (absent in pre-medians baselines).
fn load_config_medians(path: &str) -> Result<Option<BTreeMap<String, f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(obj) = doc.get("config_medians") else {
        return Ok(None);
    };
    let Json::Obj(entries) = obj else {
        return Err(format!("{path}: config_medians is not an object"));
    };
    let mut out = BTreeMap::new();
    for (config, v) in entries {
        let m = v
            .as_num()
            .ok_or_else(|| format!("{path}: config_medians.{config} is not a number"))?;
        if m <= 0.0 {
            return Err(format!("{path}: config_medians.{config} non-positive"));
        }
        out.insert(config.clone(), m);
    }
    Ok(Some(out))
}

/// The `campaign_full` end-to-end speedup from a `bench_sim` report,
/// or `None` when the report predates the row.
fn load_campaign_full(path: &str) -> Result<Option<f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(row) = doc.get("campaign_full") else {
        return Ok(None);
    };
    let speedup = row
        .get("speedup")
        .and_then(Json::as_num)
        .ok_or_else(|| format!("{path}: campaign_full row without numeric 'speedup'"))?;
    if speedup <= 0.0 {
        return Err(format!("{path}: campaign_full non-positive speedup"));
    }
    Ok(Some(speedup))
}

fn run(baseline_path: &str, fresh_path: &str, tolerance: f64) -> Result<(), String> {
    let baseline = load_rows(baseline_path)?;
    let fresh = load_rows(fresh_path)?;

    let mut ratios: Vec<(String, f64)> = Vec::new();
    for (key, base_cps) in &baseline {
        match fresh.get(key) {
            Some(fresh_cps) => ratios.push((key.clone(), fresh_cps / base_cps)),
            None => return Err(format!("fresh run is missing pair '{key}'")),
        }
    }
    let m = median(ratios.iter().map(|(_, r)| *r).collect());
    println!(
        "perf gate: {} pairs, median fresh/baseline throughput ratio {m:.3} \
         (normalized tolerance {:.0}%)",
        ratios.len(),
        100.0 * tolerance
    );

    let mut failures = Vec::new();
    for (key, ratio) in &ratios {
        let normalized = ratio / m;
        let flag = if normalized < 1.0 - tolerance {
            failures.push(key.clone());
            "  << REGRESSION"
        } else {
            ""
        };
        println!("  {key:<40} ratio {ratio:7.3}  normalized {normalized:6.3}{flag}");
    }

    if m < MEDIAN_FLOOR {
        return Err(format!(
            "median throughput ratio {m:.3} is below the {MEDIAN_FLOOR} order-of-magnitude \
             floor: the fast path regressed across the whole suite"
        ));
    }

    // Per-config medians (sequential / conventional / helix-rc), gated
    // with the same normalization: a drop confined to one machine shape
    // — above all the dominant helix-rc configuration — must not hide
    // behind healthy per-pair numbers elsewhere.
    if let Some(base_medians) = load_config_medians(baseline_path)? {
        let fresh_medians = load_config_medians(fresh_path)?
            .ok_or_else(|| format!("{fresh_path}: baseline has config_medians but fresh lacks"))?;
        for (config, base_m) in &base_medians {
            let fresh_m = fresh_medians
                .get(config)
                .ok_or_else(|| format!("fresh run is missing config median '{config}'"))?;
            let normalized = (fresh_m / base_m) / m;
            let flag = if normalized < 1.0 - tolerance {
                failures.push(format!("median[{config}]"));
                "  << REGRESSION"
            } else {
                ""
            };
            println!(
                "  median[{config:<15}] {base_m:>12.0} -> {fresh_m:>12.0}  \
                 normalized {normalized:6.3}{flag}"
            );
        }
    }

    // The full-profile campaign row: once a baseline carries it, every
    // fresh run must carry it too, and the measured batched-vs-naive
    // speedup must clear the absolute floor. This is the end-to-end
    // guarantee that lane batching keeps paying for itself — a per-pair
    // throughput gate cannot see a lost decode-dedup.
    match (
        load_campaign_full(baseline_path)?,
        load_campaign_full(fresh_path)?,
    ) {
        (Some(base_s), Some(fresh_s)) => {
            let flag = if fresh_s < CAMPAIGN_FULL_MIN_SPEEDUP {
                failures.push(format!(
                    "campaign_full speedup {fresh_s:.2}x below the \
                     {CAMPAIGN_FULL_MIN_SPEEDUP:.1}x floor"
                ));
                "  << REGRESSION"
            } else {
                ""
            };
            println!(
                "  campaign_full speedup {base_s:.2}x -> {fresh_s:.2}x  \
                 (floor {CAMPAIGN_FULL_MIN_SPEEDUP:.1}x){flag}"
            );
        }
        (Some(_), None) => {
            failures.push("campaign_full row missing from fresh report".to_string());
        }
        (None, Some(fresh_s)) => {
            println!(
                "  campaign_full speedup {fresh_s:.2}x (new row; refresh {baseline_path} to gate it)"
            );
        }
        (None, None) => {}
    }

    if !failures.is_empty() {
        return Err(format!(
            "{} gate failure(s): {}",
            failures.len(),
            failures.join(", ")
        ));
    }
    println!("perf gate: ok");
    Ok(())
}

/// Extract `"<scenario> @ <cores> cores" -> helix_speedup` from a
/// campaign report's `generations` rows.
fn load_scenario_speedups(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("harness").and_then(Json::as_str) != Some("campaign") {
        return Err(format!(
            "{path}: not a campaign report (harness != \"campaign\")"
        ));
    }
    let rows = doc
        .get("rows")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no 'rows' array"))?;
    let mut out = BTreeMap::new();
    for row in rows {
        if row.get("experiment").and_then(Json::as_str) != Some("generations") {
            continue;
        }
        let scenario = row
            .get("scenario")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: generations row without 'scenario'"))?;
        let cores = row
            .get("cores")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("{path}: {scenario}: row without 'cores'"))?;
        let speedup = row
            .get("helix_speedup")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("{path}: {scenario}: row without 'helix_speedup'"))?;
        if speedup <= 0.0 {
            return Err(format!("{path}: {scenario}: non-positive speedup"));
        }
        out.insert(format!("{scenario} @ {cores:.0} cores"), speedup);
    }
    if out.is_empty() {
        return Err(format!(
            "{path}: no 'generations' rows (the campaign must include the generations experiment)"
        ));
    }
    Ok(out)
}

/// Extract the behavioural fractions a campaign report carries beyond
/// speedups: `"<scenario> @ <cores> cores" -> comm_frac` from
/// `coupled_vs_ring` rows and `-> bound_frac` from `derived` rows.
/// Either map may be empty (a campaign need not run those experiments).
#[allow(clippy::type_complexity)]
fn load_scenario_fracs(
    path: &str,
) -> Result<(BTreeMap<String, f64>, BTreeMap<String, f64>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut comm = BTreeMap::new();
    if let Some(rows) = doc.get("rows").and_then(Json::as_array) {
        for row in rows {
            if row.get("experiment").and_then(Json::as_str) != Some("coupled_vs_ring") {
                continue;
            }
            let (Some(scenario), Some(cores), Some(frac)) = (
                row.get("scenario").and_then(Json::as_str),
                row.get("cores").and_then(Json::as_num),
                row.get("comm_frac").and_then(Json::as_num),
            ) else {
                continue;
            };
            comm.insert(format!("{scenario} @ {cores:.0} cores"), frac);
        }
    }
    let mut bound = BTreeMap::new();
    if let Some(rows) = doc.get("derived").and_then(Json::as_array) {
        for row in rows {
            let (Some(scenario), Some(cores), Some(frac)) = (
                row.get("scenario").and_then(Json::as_str),
                row.get("cores").and_then(Json::as_num),
                row.get("bound_frac").and_then(Json::as_num),
            ) else {
                continue;
            };
            bound.insert(format!("{scenario} @ {cores:.0} cores"), frac);
        }
    }
    Ok((comm, bound))
}

/// Failed-cell entries from a campaign report's `failures` array (the
/// resilient runtime's per-cell degradations). Absent array -> empty.
fn load_report_failures(path: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(rows) = doc.get("failures").and_then(Json::as_array) else {
        return Ok(Vec::new());
    };
    let mut out = Vec::new();
    for row in rows {
        let scenario = row.get("scenario").and_then(Json::as_str).unwrap_or("?");
        let experiment = row.get("experiment").and_then(Json::as_str).unwrap_or("?");
        let cores = row.get("cores").and_then(Json::as_num).unwrap_or(0.0);
        let kind = row.get("kind").and_then(Json::as_str).unwrap_or("?");
        let message = row.get("message").and_then(Json::as_str).unwrap_or("");
        out.push(format!(
            "{scenario} / {experiment} @ {cores:.0} cores: failed cell ({kind}: {message})"
        ));
    }
    Ok(out)
}

/// Gate one fraction family by absolute drift: keys present in both
/// reports must not move more than `frac_tolerance` in either
/// direction; baseline keys missing from the fresh report fail.
fn gate_fracs(
    label: &str,
    baseline: &BTreeMap<String, f64>,
    fresh: &BTreeMap<String, f64>,
    frac_tolerance: f64,
    failures: &mut Vec<String>,
) {
    for (key, base) in baseline {
        match fresh.get(key) {
            None => failures.push(format!("{label}[{key}]: missing from fresh report")),
            Some(now) => {
                let drift = (now - base).abs();
                let flag = if drift > frac_tolerance {
                    failures.push(format!(
                        "{label}[{key}]: {base:.3} -> {now:.3} (drift {drift:.3})"
                    ));
                    "  << DRIFT"
                } else {
                    ""
                };
                println!("  {label}[{key:<28}] {base:6.3} -> {now:6.3}  drift {drift:6.3}{flag}");
            }
        }
    }
}

/// Per-scenario speedup gate: every baseline scenario's fresh HELIX-RC
/// speedup must stay within `tolerance` of its committed value; comm
/// and bound fractions must not drift; failed cells fail outright.
fn run_scenarios(
    baseline_path: &str,
    fresh_path: &str,
    tolerance: f64,
    frac_tolerance: f64,
) -> Result<(), String> {
    let baseline = load_scenario_speedups(baseline_path)?;
    let fresh = load_scenario_speedups(fresh_path)?;
    println!(
        "scenario gate: {} baseline scenario(s), tolerance {:.0}%, frac tolerance {:.2}",
        baseline.len(),
        100.0 * tolerance,
        frac_tolerance
    );
    let mut failures = Vec::new();
    for cell in load_report_failures(fresh_path)? {
        println!("  {cell}  << FAILED CELL");
        failures.push(cell);
    }
    for (key, base) in &baseline {
        match fresh.get(key) {
            None => failures.push(format!("{key}: missing from fresh report")),
            Some(now) => {
                let ratio = now / base;
                let flag = if ratio < 1.0 - tolerance {
                    failures.push(format!(
                        "{key}: speedup {base:.2}x -> {now:.2}x ({:.0}% drop)",
                        100.0 * (1.0 - ratio)
                    ));
                    "  << REGRESSION"
                } else {
                    ""
                };
                println!("  {key:<32} {base:6.2}x -> {now:6.2}x  ratio {ratio:6.3}{flag}");
            }
        }
    }
    for key in fresh.keys() {
        if !baseline.contains_key(key) {
            println!("  {key:<32} new scenario (not gated; refresh {baseline_path} to gate it)");
        }
    }
    let (base_comm, base_bound) = load_scenario_fracs(baseline_path)?;
    let (fresh_comm, fresh_bound) = load_scenario_fracs(fresh_path)?;
    gate_fracs(
        "comm_frac",
        &base_comm,
        &fresh_comm,
        frac_tolerance,
        &mut failures,
    );
    gate_fracs(
        "bound_frac",
        &base_bound,
        &fresh_bound,
        frac_tolerance,
        &mut failures,
    );
    if !failures.is_empty() {
        return Err(format!(
            "{} gate failure(s):\n  {}",
            failures.len(),
            failures.join("\n  ")
        ));
    }
    println!("scenario gate: ok");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tolerance: Option<f64> = None;
    let mut frac_tolerance: Option<f64> = None;
    let mut scenarios = false;
    let mut paths = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--tolerance" || arg == "--frac-tolerance" {
            match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) if (0.0..1.0).contains(&t) => {
                    if arg == "--tolerance" {
                        tolerance = Some(t);
                    } else {
                        frac_tolerance = Some(t);
                    }
                }
                _ => {
                    eprintln!("perf_gate: {arg} needs a value in [0, 1)");
                    return ExitCode::from(2);
                }
            }
        } else if arg == "--scenarios" {
            scenarios = true;
        } else {
            paths.push(arg.clone());
        }
    }
    let [baseline, fresh] = paths.as_slice() else {
        eprintln!(
            "usage: perf_gate <baseline.json> <fresh.json> [--tolerance 0.30]\n       \
             perf_gate --scenarios <BENCH_scenarios.json> <fresh_campaign.json> \
             [--tolerance 0.20] [--frac-tolerance 0.10]"
        );
        return ExitCode::from(2);
    };
    let result = if scenarios {
        run_scenarios(
            baseline,
            fresh,
            tolerance.unwrap_or(DEFAULT_SCENARIO_TOLERANCE),
            frac_tolerance.unwrap_or(DEFAULT_FRAC_TOLERANCE),
        )
    } else {
        run(baseline, fresh, tolerance.unwrap_or(DEFAULT_TOLERANCE))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf_gate: FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}
