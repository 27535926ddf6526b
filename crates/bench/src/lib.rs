//! # helix-bench
//!
//! Figure and table regeneration for the HELIX-RC reproduction: one
//! function per table/figure of the paper's evaluation, each printing
//! the same rows/series the paper reports (paper value alongside the
//! measured one).
//!
//! Invoke through the `figures` binary:
//!
//! ```text
//! cargo run --release -p helix-bench --bin figures -- all
//! cargo run --release -p helix-bench --bin figures -- fig07 fig12
//! ```
//!
//! The cross-benchmark sweep figures (Fig. 7/9/12) are **campaign
//! driven**: they run the committed `campaigns/paper.toml` over the
//! scenario specs in `scenarios/`, so any new committed scenario shows
//! up in those tables automatically — no figure code changes.

#![warn(missing_docs)]

use helix_rc::analysis_figs::{accuracy_sweep, recompute_reduction, tlp_splitting};
use helix_rc::campaign::{load_campaign, run_campaign, CampaignReport, CampaignRow};
use helix_rc::experiment::{
    compiler_generations, core_type_sweep, coupled_vs_ring, decoupling_lattice, iteration_lengths,
    link_latency_settings, node_memory_settings, sharing_profile, signal_bandwidth_settings,
    sweep_core_count, sweep_ring, ExperimentOptions, LatticePoint,
};
use helix_rc::hcc::{compile, HccConfig};
use helix_rc::related::design_space_table;
use helix_rc::report::{bar, pct, table, x};
use helix_rc::workloads::{cint_suite, geomean, paper_row, suite, CampaignExperiment, Kind, Scale};
use helix_rc::RunOptions;
use std::path::PathBuf;

/// Problem scale used by the harness (kept at `Test` so a full run of
/// every figure completes in minutes; pass `--full` for larger inputs).
pub fn harness_scale(full: bool) -> Scale {
    if full {
        Scale::Full
    } else {
        Scale::Test
    }
}

/// Result alias.
pub type R = Result<(), Box<dyn std::error::Error + Send + Sync>>;

fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// Locate the committed paper campaign (`campaigns/paper.toml`): tried
/// relative to the working directory first (how CI and `cargo run` from
/// the repo root see it), then relative to this crate's manifest.
pub fn paper_campaign_path() -> Result<PathBuf, String> {
    let candidates = [
        PathBuf::from("campaigns/paper.toml"),
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../campaigns/paper.toml"),
    ];
    for path in &candidates {
        if path.is_file() {
            return Ok(path.clone());
        }
    }
    Err(format!(
        "cannot find campaigns/paper.toml (looked at {}); run from the repository root",
        candidates
            .iter()
            .map(|p| p.display().to_string())
            .collect::<Vec<_>>()
            .join(" and ")
    ))
}

/// Core count the paper reports its sweep figures at.
const FIGURE_CORES: i64 = 16;

/// Run the committed paper campaign restricted to `experiments` (and
/// optionally one benchmark family) at `scale`. This is how the sweep
/// figures consume `scenarios/`: the scenario set comes from
/// `campaigns/paper.toml`, so a missing or broken spec file fails with
/// a path-naming error instead of a panic mid-figure. Filtering by kind
/// happens *before* the run so an INT-only figure never pays for FP
/// simulations, and the core axis is pinned to the figures' 16-core
/// machine so a widened campaign grid cannot silently mix core counts
/// into one table.
fn scenario_campaign(
    experiments: &[CampaignExperiment],
    scale: Scale,
    kind: Option<Kind>,
) -> Result<CampaignReport, Box<dyn std::error::Error + Send + Sync>> {
    let path = paper_campaign_path()?;
    let (mut campaign, mut scenarios) = load_campaign(&path)?;
    campaign.grid.experiments = experiments.to_vec();
    campaign.grid.cores = vec![FIGURE_CORES];
    campaign.scale = scale;
    if let Some(kind) = kind {
        scenarios.retain(|s| s.kind == kind);
    }
    let sim = ExperimentOptions::default();
    Ok(run_campaign(&campaign, &scenarios, &RunOptions::new(), &sim)?.0)
}

/// Look up a labelled point in a campaign row.
fn point(row: &CampaignRow, label: &str) -> Result<f64, String> {
    row.points
        .iter()
        .find(|(l, _)| l == label)
        .map(|(_, v)| *v)
        .ok_or_else(|| format!("{}/{}: no point '{label}'", row.scenario, row.experiment))
}

/// Fig. 1: HCCv1 vs HCCv2 on conventional hardware, 16 cores.
pub fn fig01(scale: Scale) -> R {
    header("Figure 1 — compiler-only improvements (HCCv1 vs HCCv2, 16 cores)");
    let mut rows = Vec::new();
    let mut int_v1 = Vec::new();
    let mut int_v2 = Vec::new();
    let mut fp_v1 = Vec::new();
    let mut fp_v2 = Vec::new();
    for w in suite(scale) {
        let row = compiler_generations(&w, 16, &ExperimentOptions::default())?;
        if w.kind == helix_rc::workloads::Kind::Int {
            int_v1.push(row.v1);
            int_v2.push(row.v2);
        } else {
            fp_v1.push(row.v1);
            fp_v2.push(row.v2);
        }
        rows.push(vec![row.name.clone(), x(row.v1), x(row.v2)]);
    }
    rows.push(vec![
        "INT geomean".into(),
        x(geomean(int_v1)),
        x(geomean(int_v2)),
    ]);
    rows.push(vec![
        "FP geomean".into(),
        x(geomean(fp_v1)),
        x(geomean(fp_v2)),
    ]);
    println!("{}", table(&["benchmark", "HCCv1", "HCCv2"], &rows));
    println!("paper: FP improves 2.4x -> 11x; INT stays nearly flat.");
    Ok(())
}

/// Fig. 2: dependence-analysis accuracy per tier on the small hot loops.
pub fn fig02(scale: Scale) -> R {
    header("Figure 2 — data-dependence analysis accuracy on small hot loops");
    let fig = accuracy_sweep(&cint_suite(scale))?;
    for (tier, acc) in fig.tiers.iter().zip(&fig.accuracy) {
        println!("{}", bar(tier, *acc * 100.0, 100.0, 40));
    }
    println!(
        "\nmeasured over {} loops; paper: 48% (VLLPA) -> 81% (+lib calls).",
        fig.loops
    );
    Ok(())
}

/// Fig. 3: predictable variables cut register communication.
pub fn fig03(scale: Scale) -> R {
    header("Figure 3 — re-computation removes register communication");
    let fig = recompute_reduction(&cint_suite(scale))?;
    println!(
        "naive forwarding:   {} register values + {} memory sites = 100%",
        fig.naive_regs, fig.memory_sites
    );
    println!(
        "after re-compute:   {} register values + {} memory sites = {}",
        fig.remaining_regs,
        fig.memory_sites,
        pct(fig.remaining_fraction())
    );
    println!(
        "memory share of remaining communication: {}",
        pct(fig.memory_share())
    );
    println!("\npaper: ~15% remains, dominated by memory locations.");
    Ok(())
}

/// Fig. 4a/4b/4c: iteration-length CDF and sharing profile.
pub fn fig04(scale: Scale) -> R {
    header("Figure 4a — loop iteration execution time CDF (single core)");
    let mut all: Vec<u32> = Vec::new();
    for w in cint_suite(scale) {
        all.extend(iteration_lengths(&w, &ExperimentOptions::default())?);
    }
    all.sort_unstable();
    let total = all.len().max(1);
    for threshold in [25u32, 75, 95, 110, 260] {
        let below = all.partition_point(|&v| v <= threshold);
        println!(
            "  <= {threshold:>3} cycles: {:>5.1}% of iterations",
            100.0 * below as f64 / total as f64
        );
    }
    println!("  (coherence round trips: Ivy Bridge 75, Sandy Bridge 95, Nehalem 110)");

    header("Figure 4b/4c — producer->consumer distance and consumer counts (16 cores)");
    let mut dist = [0.0f64; 17];
    let mut cons = [0.0f64; 17];
    let mut n = 0.0;
    for w in cint_suite(scale) {
        let (d, c) = sharing_profile(&w, 16, &ExperimentOptions::default())?;
        for (i, v) in d.iter().enumerate().take(dist.len()) {
            dist[i] += v;
        }
        for (i, v) in c.iter().enumerate().take(cons.len()) {
            cons[i] += v;
        }
        n += 1.0;
    }
    println!("hop distance to first consumer (paper: 1:12% 2:22% 3:39% 4:12% 5:9% 6+:6%):");
    let six_plus: f64 = dist[6..].iter().sum::<f64>() / n;
    for (h, d) in dist.iter().enumerate().take(6).skip(1) {
        println!("  {h} hop(s): {}", pct(d / n));
    }
    println!("  6+ hops: {}", pct(six_plus));
    println!("consumers per shared value (paper: 1:16% 2:8% 3:21% 4:12% 5:34% 6+:9%):");
    let six_plus_c: f64 = cons[6..].iter().sum::<f64>() / n;
    for (k, c) in cons.iter().enumerate().take(6).skip(1) {
        println!("  {k} consumer(s): {}", pct(c / n));
    }
    println!("  6+ consumers: {}", pct(six_plus_c));
    let multi: f64 = 1.0 - cons[1] / n;
    println!("  multi-consumer share: {} (paper: 86%)", pct(multi));
    Ok(())
}

/// Fig. 5: coupled vs decoupled execution of the vpr hot loop.
pub fn fig05(scale: Scale) -> R {
    header("Figure 5 — coupled vs decoupled communication (175.vpr loop)");
    let w = helix_rc::workloads::by_name("175.vpr", scale)
        .ok_or("175.vpr missing from the built-in suite")?;
    let row = coupled_vs_ring(&w, 16, &ExperimentOptions::default())?;
    println!(
        "coupled (conventional): {:6.1}% of sequential time, {} of busy cycles communicating",
        row.conventional_pct,
        pct(row.conventional_comm_frac)
    );
    println!(
        "decoupled (ring cache): {:6.1}% of sequential time, {} of busy cycles communicating",
        row.ring_pct,
        pct(row.ring_comm_frac)
    );
    Ok(())
}

/// Table 1: phases and parallel-loop coverage per compiler.
pub fn table1(scale: Scale) -> R {
    header("Table 1 — parallelized benchmark characteristics");
    let mut rows = Vec::new();
    for w in suite(scale) {
        let v1 = compile(&w.program, &HccConfig::v1(16))?;
        let v2 = compile(&w.program, &HccConfig::v2(16))?;
        let v3 = compile(&w.program, &HccConfig::v3(16))?;
        rows.push(vec![
            w.name.to_string(),
            w.paper.phases.to_string(),
            format!(
                "{} (paper {})",
                pct(v3.stats.coverage),
                pct(w.paper.coverage[2])
            ),
            format!(
                "{} (paper {})",
                pct(v2.stats.coverage),
                pct(w.paper.coverage[1])
            ),
            format!(
                "{} (paper {})",
                pct(v1.stats.coverage),
                pct(w.paper.coverage[0])
            ),
        ]);
    }
    println!(
        "{}",
        table(
            &["benchmark", "phases", "HELIX-RC", "HCCv2", "HCCv1"],
            &rows
        )
    );
    Ok(())
}

/// Fig. 7: the headline — HCCv2 vs HELIX-RC speedups, campaign-driven
/// over every committed scenario spec.
pub fn fig07(scale: Scale) -> R {
    header("Figure 7 — HELIX-RC vs HCCv2 speedups (16 cores, scenarios/ campaign)");
    let report = scenario_campaign(&[CampaignExperiment::Generations], scale, None)?;
    let mut rows = Vec::new();
    let mut int_v2 = Vec::new();
    let mut int_rc = Vec::new();
    let mut fp_v2 = Vec::new();
    let mut fp_rc = Vec::new();
    for row in &report.rows {
        let v2 = point(row, "HCCv2")?;
        let rc = point(row, "HELIX-RC")?;
        if row.kind == "int" {
            int_v2.push(v2);
            int_rc.push(rc);
        } else {
            fp_v2.push(v2);
            fp_rc.push(rc);
        }
        rows.push(vec![
            row.scenario.clone(),
            x(v2),
            x(rc),
            row.paper_speedup.map(x).unwrap_or_else(|| "-".into()),
        ]);
    }
    rows.push(vec![
        "INT geomean".into(),
        x(geomean(int_v2)),
        x(geomean(int_rc)),
        "6.85x (SPEC)".into(),
    ]);
    rows.push(vec![
        "FP geomean".into(),
        x(geomean(fp_v2)),
        x(geomean(fp_rc)),
        "11.90x (SPEC)".into(),
    ]);
    println!(
        "{}",
        table(&["benchmark", "HCCv2", "HELIX-RC", "paper HELIX-RC"], &rows)
    );
    println!("(rows come from the scenario specs named by campaigns/paper.toml)");
    Ok(())
}

/// Fig. 8: the decoupling breakdown.
pub fn fig08(scale: Scale) -> R {
    header("Figure 8 — breakdown of decoupling benefits (CINT geomean)");
    let ws = cint_suite(scale);
    let mut per_point = vec![Vec::new(); LatticePoint::ALL.len()];
    for w in &ws {
        for (i, (_, s)) in decoupling_lattice(w, 16, &ExperimentOptions::default())?
            .into_iter()
            .enumerate()
        {
            per_point[i].push(s);
        }
    }
    let geo: Vec<f64> = per_point
        .iter()
        .map(|v| geomean(v.iter().copied()))
        .collect();
    let max = geo.iter().copied().fold(0.0, f64::max);
    for (p, g) in LatticePoint::ALL.iter().zip(&geo) {
        println!("{}", bar(p.label(), *g, max, 40));
    }
    println!("\npaper: most benefit comes from decoupling synchronization and memory.");
    Ok(())
}

/// Fig. 9: HCCv3 code on conventional hardware vs the ring,
/// campaign-driven over every committed integer scenario.
pub fn fig09(scale: Scale) -> R {
    header("Figure 9 — HCCv3 code: conventional (C) vs ring cache (R) (scenarios/ campaign)");
    let report = scenario_campaign(&[CampaignExperiment::CoupledVsRing], scale, Some(Kind::Int))?;
    let mut rows = Vec::new();
    for row in &report.rows {
        rows.push(vec![
            row.scenario.clone(),
            format!("{:.0}%", point(row, "C % of seq")?),
            format!("{:.0}%", point(row, "R % of seq")?),
            format!("{:.1}%", point(row, "C comm frac %")?),
            format!("{:.1}%", point(row, "R comm frac %")?),
        ]);
    }
    println!(
        "{}",
        table(
            &["benchmark", "C time", "R time", "C comm", "R comm"],
            &rows
        )
    );
    println!("(>100% = slower than sequential; the paper's C bars all exceed 100%)");
    Ok(())
}

/// Fig. 10: core-type sensitivity.
pub fn fig10(scale: Scale) -> R {
    header("Figure 10 — speedup by core type (16 cores)");
    let mut rows = Vec::new();
    for w in cint_suite(scale) {
        let r = core_type_sweep(&w, 16, &ExperimentOptions::default())?;
        rows.push(vec![
            r.name.clone(),
            x(r.io2),
            x(r.ooo2),
            x(r.ooo4),
            format!("{:.2}", r.seq_io_over_ooo4),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "benchmark",
                "2-way IO",
                "2-way OoO",
                "4-way OoO",
                "seq IO/OoO4"
            ],
            &rows
        )
    );
    println!("paper: the 4-way OoO sequential baseline is ~1.9x the 2-way IO one.");
    Ok(())
}

/// Fig. 11a–d: sensitivity sweeps.
pub fn fig11(scale: Scale) -> R {
    let ws = cint_suite(scale);
    header("Figure 11a — core count");
    for w in &ws {
        let pts = sweep_core_count(w, &[2, 4, 8, 16], &ExperimentOptions::default())?;
        let line: Vec<String> = pts.iter().map(|(l, s)| format!("{l}: {}", x(*s))).collect();
        println!("{:<12} {}", w.name, line.join("  "));
    }
    header("Figure 11b — adjacent-node link latency");
    for w in &ws {
        let pts = sweep_ring(
            w,
            16,
            &link_latency_settings(),
            &ExperimentOptions::default(),
        )?;
        let line: Vec<String> = pts.iter().map(|(l, s)| format!("{l}: {}", x(*s))).collect();
        println!("{:<12} {}", w.name, line.join("  "));
    }
    header("Figure 11c — signal bandwidth");
    for w in &ws {
        let pts = sweep_ring(
            w,
            16,
            &signal_bandwidth_settings(),
            &ExperimentOptions::default(),
        )?;
        let line: Vec<String> = pts.iter().map(|(l, s)| format!("{l}: {}", x(*s))).collect();
        println!("{:<12} {}", w.name, line.join("  "));
    }
    header("Figure 11d — node memory size");
    for w in &ws {
        let pts = sweep_ring(
            w,
            16,
            &node_memory_settings(),
            &ExperimentOptions::default(),
        )?;
        let line: Vec<String> = pts.iter().map(|(l, s)| format!("{l}: {}", x(*s))).collect();
        println!("{:<12} {}", w.name, line.join("  "));
    }
    Ok(())
}

/// Fig. 12: overhead taxonomy, campaign-driven over every committed
/// scenario.
pub fn fig12(scale: Scale) -> R {
    header("Figure 12 — overheads preventing ideal speedup (scenarios/ campaign)");
    let labels = [
        "added", "wait/sig", "memory", "imbal", "lowtrip", "comm", "depwait",
    ];
    let report = scenario_campaign(&[CampaignExperiment::Overheads], scale, None)?;
    let mut rows = Vec::new();
    for r in &report.rows {
        let measured = r
            .overheads
            .ok_or_else(|| format!("{}: overheads row without fractions", r.scenario))?;
        let paper = paper_row(&r.scenario).map(|p| p.overheads);
        let mut row = vec![r.scenario.clone()];
        for i in 0..7 {
            row.push(match paper {
                Some(p) => format!("{:.0}/{:.0}", 100.0 * measured[i], 100.0 * p[i]),
                None => format!("{:.0}/-", 100.0 * measured[i]),
            });
        }
        let speedup = r.helix_speedup.map(x).unwrap_or_else(|| "-".into());
        row.push(match r.paper_speedup {
            Some(p) => format!("{speedup} (paper {})", x(p)),
            None => speedup,
        });
        rows.push(row);
    }
    let mut headers = vec!["benchmark"];
    headers.extend(labels);
    headers.push("speedup");
    println!("{}", table(&headers, &rows));
    println!("(cells are measured%/paper% of overhead cycles; '-' = not in the paper)");
    Ok(())
}

/// Table 2: the design-space matrix.
pub fn table2() -> R {
    header("Table 2 — decoupling design space");
    println!("{}", design_space_table());
    println!("HELIX-RC is the only scheme decoupling memory communication for actual dependences.");
    Ok(())
}

/// §6.2 text: TLP under conservative vs aggressive splitting.
pub fn text_tlp(scale: Scale) -> R {
    header("§6.2 text — segment splitting vs TLP (abstract 1-IPC model)");
    let fig = tlp_splitting(&cint_suite(scale), 16)?;
    println!(
        "conservative splitting: TLP {:.1}, mean segment {:.1} insts",
        fig.tlp_conservative, fig.seg_conservative
    );
    println!(
        "aggressive splitting:   TLP {:.1}, mean segment {:.1} insts",
        fig.tlp_aggressive, fig.seg_aggressive
    );
    println!("paper: TLP 6.4 -> 14.2; segment size 8.5 -> 3.2 instructions.");
    Ok(())
}

/// §6.3 text: the conservative ring reaches ~ideal performance.
pub fn text_ideal(scale: Scale) -> R {
    header("§6.3 text — default ring vs idealized ring");
    let ws = cint_suite(scale);
    let mut default_g = Vec::new();
    let mut ideal_g = Vec::new();
    for w in &ws {
        let pts = sweep_ring(
            w,
            16,
            &node_memory_settings(),
            &ExperimentOptions::default(),
        )?;
        // node_memory_settings: [Unbounded, 32KB, 1KB(default), 256B]
        ideal_g.push(pts[0].1);
        default_g.push(pts[2].1);
    }
    let d = geomean(default_g);
    let i = geomean(ideal_g);
    println!(
        "default 1KB ring: {} | unbounded ring: {} | ratio {}",
        x(d),
        x(i),
        pct(d / i)
    );
    println!("paper: the conservative configuration reaches ~95% of unbounded resources.");
    Ok(())
}

/// Every figure/table in sequence.
pub fn run_all(scale: Scale) -> R {
    fig01(scale)?;
    fig02(scale)?;
    fig03(scale)?;
    fig04(scale)?;
    fig05(scale)?;
    table1(scale)?;
    fig07(scale)?;
    fig08(scale)?;
    fig09(scale)?;
    fig10(scale)?;
    fig11(scale)?;
    fig12(scale)?;
    table2()?;
    text_tlp(scale)?;
    text_ideal(scale)?;
    Ok(())
}

/// Dispatch one figure by name.
pub fn run_figure(name: &str, scale: Scale) -> R {
    match name {
        "fig01" => fig01(scale),
        "fig02" => fig02(scale),
        "fig03" => fig03(scale),
        "fig04" => fig04(scale),
        "fig05" => fig05(scale),
        "table1" => table1(scale),
        "fig07" => fig07(scale),
        "fig08" => fig08(scale),
        "fig09" => fig09(scale),
        "fig10" => fig10(scale),
        "fig11" => fig11(scale),
        "fig12" => fig12(scale),
        "table2" => table2(),
        "tlp" => text_tlp(scale),
        "ideal" => text_ideal(scale),
        "all" => run_all(scale),
        other => Err(format!(
            "unknown figure '{other}' (expected one of: {})",
            FIGURES.join(", ")
        )
        .into()),
    }
}

/// Names accepted by [`run_figure`].
pub const FIGURES: [&str; 16] = [
    "fig01", "fig02", "fig03", "fig04", "fig05", "table1", "fig07", "fig08", "fig09", "fig10",
    "fig11", "fig12", "table2", "tlp", "ideal", "all",
];

/// The campaign-backed subset of [`FIGURES`]: these run
/// `campaigns/paper.toml` over the committed scenario specs, so every
/// new `scenarios/*.toml` shows up in them automatically.
pub const CAMPAIGN_FIGURES: [&str; 3] = ["fig07", "fig09", "fig12"];

// Quiet unused-dependency warnings for crates used only by the binary.
use helix_analysis as _;
use helix_ir as _;
use helix_ring_cache as _;
use helix_sim as _;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_rejects_unknown() {
        assert!(run_figure("nope", Scale::Test).is_err());
    }

    #[test]
    fn table2_prints() {
        table2().unwrap();
    }

    #[test]
    fn figure_list_is_complete() {
        for f in FIGURES {
            assert!(f == "all" || !f.is_empty());
        }
    }

    /// One real figure end-to-end (kept to the cheapest one).
    #[test]
    fn fig03_runs() {
        fig03(Scale::Test).unwrap();
    }
}
