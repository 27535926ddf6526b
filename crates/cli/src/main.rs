//! `helix` — the scenario runner.
//!
//! Every subcommand operates on declarative scenario files
//! (`scenarios/*.toml`); see `docs/SCENARIOS.md` for the full spec
//! schema (including multi-nest scenarios) and the README's "Adding a
//! scenario" section for a quick tour. `run`, `check`, `campaign`, and
//! `diff` are thin clients of the unified [`helix_rc::api`] surface —
//! the same requests can be executed in-process or submitted to a
//! resident `helix serve` instance (see `docs/SERVICE.md`).
//!
//! ```text
//! helix run scenarios/175.vpr.toml          # compile + simulate, print summary
//! helix run scenarios/ --out-dir reports/   # run all, write per-scenario JSON
//! helix check scenarios/                    # parse + validate + generate
//! helix list scenarios/                     # one line per scenario
//! helix smoke scenarios/ --cores 8          # CI gate: every spec must run clean
//! helix campaign campaigns/smoke.toml       # cross-scenario sweep from one config
//! helix explore --seed 7 --budget 100       # property-fuzz generated scenarios
//! helix serve --socket /tmp/helix.sock      # resident campaign service
//! helix submit --socket /tmp/helix.sock campaigns/smoke.toml
//! helix export built-ins/                   # copy the built-in specs out
//! ```

use helix_rc::api::{self, CampaignSource, Request, Response, RunOptions, SpecSource};
use helix_rc::explore::ExploreOptions;
use helix_rc::resilient::FaultPlan;
use helix_rc::scenario::ScenarioReport;
use helix_rc::service::{serve, submit, ServeOptions};
use helix_rc::workloads::{Scale, ScenarioSpec, BUILTIN_SCENARIOS};
use helix_rc::HelixError;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
helix — declarative scenario runner for the HELIX-RC reproduction

USAGE:
    helix run      <spec.toml|dir>... [--cores N] [--fuel N] [--full]
                   [--out FILE | --out-dir DIR] [--quiet]
                   [--journal DIR] [--resume] [--attribution]
    helix check    <spec.toml|dir>...
    helix list     <dir>...
    helix smoke    <dir>... [--cores N] [--fuel N] [--full] [--out-dir DIR]
    helix campaign <campaign.toml> [--full] [--out FILE] [--quiet]
                   [--journal DIR] [--resume] [--lanes N]
                   [--retries N] [--cycle-budget N] [--wall-budget-ms N]
                   [--chaos-seed N] [--chaos-panics N] [--chaos-stalls N]
                   [--chaos-blowouts N] [--chaos-stall-ms N] [--chaos-transient]
    helix explore  [--seed N] [--budget N] [--cores N] [--fuel N]
                   [--out FILE] [--export-dir DIR] [--quiet]
    helix serve    --socket PATH [--journal DIR] [--workers N]
    helix submit   --socket PATH <spec.toml|campaign.toml>
                   [--full] [--out FILE] [--quiet] [--lanes N]
    helix submit   --socket PATH --status | --shutdown
    helix diff     <a.json> <b.json>
    helix export   <dir>
    helix help

COMMANDS:
    run      Compile + simulate each scenario on its configured machines
             and print a summary; JSON reports go to --out / --out-dir.
             With --journal [--resume], whole scenario reports are
             cached and answered without simulating.
    check    Parse, validate, and generate each scenario without
             simulating (fast schema check).
    list     Show name, kind, size, and description of each scenario.
    smoke    Run every scenario end-to-end, report each failure, and
             exit non-zero if any failed — the CI gate that keeps
             committed specs runnable.
    campaign Run a cross-scenario sweep campaign: one TOML config names
             scenario specs (globs) plus a machine/compiler grid, cells
             run in parallel behind the resilient layer (panic isolation,
             budgets, retries), and the aggregated paper-style tables are
             printed (JSON report via --out). Failed cells are enumerated
             in the report and exit code 3 flags them. See
             docs/CAMPAIGNS.md.
    explore  Property-driven scenario fuzzing: generate --budget valid
             specs from --seed, run each at smoke scale through the
             differential-oracle battery (engine agreement, fast-forward
             and lane exactness, coverage sums, Amdahl bounds), shrink
             any failure or frontier extreme to a minimal runnable TOML,
             and emit a deterministic JSON report (same seed + budget =>
             byte-identical). Exit 1 if any oracle fired. See
             docs/EXPLORE.md.
    serve    Run the resident campaign service on a Unix-domain socket:
             concurrent submissions, a bounded worker pool, and a shared
             journal that answers repeat submissions without simulating.
             See docs/SERVICE.md.
    submit   Submit a scenario or campaign file to a running service
             (auto-detected by the presence of a [grid] section) and
             print the response; --status / --shutdown probe or stop
             the service.
    diff     Compare two report JSON files: schema versions first (a
             mismatch is named), then byte-for-byte with the differing
             region printed. 'diff == empty' is the cache-hit /
             determinism check.
    export   Write the built-in scenario specs (SPEC stand-ins + novel
             workloads) into a directory: the committed TOML files, as
             embedded in the binary.

OPTIONS:
    --cores N          Override the spec's core count (run/smoke/explore)
    --fuel N           Override the spec's simulation cycle budget
                       (run/smoke/explore)
    --seed N           Generator stream seed (explore; default 0)
    --budget N         Number of generated specs to examine (explore;
                       default 50)
    --export-dir DIR   Also write each shrunk failure/frontier TOML as a
                       runnable scenario file into DIR (explore)
    --full             Use the Full problem scale (default: Test)
    --out FILE         Write the JSON report here
    --out-dir DIR      Write one <name>.report.json per scenario
    --quiet            One line per scenario instead of full tables
    --journal DIR      Journal completed work into DIR (content-addressed;
                       default <campaign>.journal when --resume is given
                       without --journal, <socket>.journal under serve)
    --resume           Answer journaled entries instead of re-running them
    --lanes N          With N > 1, share one compile/decode/report cache per
                       scenario (campaign/submit; reports are byte-identical
                       to --lanes 1)
    --attribution      Attach the per-stall-cause cycle breakdown (the
                       Fig. 12 buckets) to every run row in the report
                       (run/smoke/submit-scenario)
    --retries N        Override [resilience] max_retries
    --cycle-budget N   Override [resilience] cycle_budget (simulated cycles)
    --wall-budget-ms N Override [resilience] wall_budget_ms
    --socket PATH      Unix-domain socket of the service (serve/submit)
    --workers N        Worker pool size of the service (default: CPU count)
    --status           submit: ask the service for its live counters
    --shutdown         submit: ask the service to drain and exit
    --chaos-seed N     Enable the chaos harness with this seed
    --chaos-panics N   Cells that panic under chaos (default 0)
    --chaos-stalls N   Cells that stall under chaos (default 0)
    --chaos-blowouts N Cells that run with a tiny cycle budget (default 0)
    --chaos-stall-ms N Stall duration in milliseconds (default 50)
    --chaos-transient  Inject each fault only on a cell's first attempt
    -h, --help         Print this text and exit 0 (after any command too)

EXIT CODES:
    0  success        2  usage error       1  hard failure
    3  campaign completed with failed cells (see the failures section)
";

fn fail(message: impl AsRef<str>) -> ExitCode {
    eprintln!("helix: {}", message.as_ref());
    ExitCode::FAILURE
}

/// Caller misuse (unknown flag or command) gets the documented usage
/// exit code, distinct from hard failures.
fn fail_usage(message: impl AsRef<str>) -> ExitCode {
    eprintln!("helix: {}", message.as_ref());
    ExitCode::from(2)
}

/// Render a structured error the way the CLI always has: the file (or
/// failing scenario) first, then the message.
fn render_error(e: &HelixError) -> String {
    match (&e.file, &e.field) {
        (None, Some(field)) => format!("{field}: {e}"),
        _ => e.to_string(),
    }
}

/// Print a typed error response and map it to the documented exit
/// codes (usage errors exit 2, everything else 1).
fn fail_response(e: &HelixError) -> ExitCode {
    eprintln!("helix: {}", render_error(e));
    ExitCode::from(e.kind.exit_code())
}

/// Expand files/directories into a sorted list of `.toml` spec paths.
fn collect_spec_files(inputs: &[String]) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for input in inputs {
        let path = Path::new(input);
        if path.is_dir() {
            let mut in_dir: Vec<PathBuf> = std::fs::read_dir(path)
                .map_err(|e| format!("cannot read directory '{input}': {e}"))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
                .collect();
            in_dir.sort();
            if in_dir.is_empty() {
                return Err(format!("no .toml scenarios in '{input}'"));
            }
            files.extend(in_dir);
        } else if path.is_file() {
            files.push(path.to_path_buf());
        } else {
            return Err(format!("no such file or directory: '{input}'"));
        }
    }
    if files.is_empty() {
        return Err("no scenario files given".into());
    }
    Ok(files)
}

fn load_spec(path: &Path) -> Result<ScenarioSpec, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read '{}': {e}", path.display()))?;
    ScenarioSpec::from_toml(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[derive(Debug, Default)]
struct Options {
    inputs: Vec<String>,
    /// What every request carries; the parser writes the run flags
    /// here directly and folds the chaos flags into `faults`.
    run: RunOptions,
    out: Option<PathBuf>,
    out_dir: Option<PathBuf>,
    seed: Option<u64>,
    budget: Option<usize>,
    export_dir: Option<PathBuf>,
    quiet: bool,
    socket: Option<PathBuf>,
    workers: Option<usize>,
    status: bool,
    shutdown: bool,
    chaos_seed: Option<u64>,
    chaos_panics: usize,
    chaos_stalls: usize,
    chaos_blowouts: usize,
    chaos_stall_ms: u64,
    chaos_transient: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        chaos_stall_ms: 50,
        ..Options::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--cores" => {
                let cores: usize = value_of("--cores")?
                    .parse()
                    .map_err(|e| format!("--cores: {e}"))?;
                if cores == 0 {
                    return Err("--cores must be >= 1".into());
                }
                opts.run.cores = Some(cores);
            }
            "--fuel" => {
                let fuel: u64 = value_of("--fuel")?
                    .parse()
                    .map_err(|e| format!("--fuel: {e}"))?;
                if fuel == 0 {
                    return Err("--fuel must be >= 1".into());
                }
                opts.run.fuel = Some(fuel);
            }
            "--full" => opts.run.scale = Some(Scale::Full),
            "--out" => opts.out = Some(PathBuf::from(value_of("--out")?)),
            "--out-dir" => opts.out_dir = Some(PathBuf::from(value_of("--out-dir")?)),
            "--seed" => {
                opts.seed = Some(
                    value_of("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--budget" => {
                let budget: usize = value_of("--budget")?
                    .parse()
                    .map_err(|e| format!("--budget: {e}"))?;
                if budget == 0 {
                    return Err("--budget must be >= 1".into());
                }
                opts.budget = Some(budget);
            }
            "--export-dir" => opts.export_dir = Some(PathBuf::from(value_of("--export-dir")?)),
            "--quiet" => opts.quiet = true,
            "--journal" => opts.run.journal = Some(PathBuf::from(value_of("--journal")?)),
            "--resume" => opts.run.resume = true,
            "--lanes" => {
                let lanes: usize = value_of("--lanes")?
                    .parse()
                    .map_err(|e| format!("--lanes: {e}"))?;
                if lanes == 0 {
                    return Err("--lanes must be >= 1".into());
                }
                opts.run.lanes = Some(lanes);
            }
            "--attribution" => opts.run.attribution = true,
            "--retries" => {
                opts.run.max_retries = Some(
                    value_of("--retries")?
                        .parse()
                        .map_err(|e| format!("--retries: {e}"))?,
                );
            }
            "--cycle-budget" => {
                opts.run.cycle_budget = Some(
                    value_of("--cycle-budget")?
                        .parse()
                        .map_err(|e| format!("--cycle-budget: {e}"))?,
                );
            }
            "--wall-budget-ms" => {
                opts.run.wall_budget_ms = Some(
                    value_of("--wall-budget-ms")?
                        .parse()
                        .map_err(|e| format!("--wall-budget-ms: {e}"))?,
                );
            }
            "--socket" => opts.socket = Some(PathBuf::from(value_of("--socket")?)),
            "--workers" => {
                let workers: usize = value_of("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
                if workers == 0 {
                    return Err("--workers must be >= 1".into());
                }
                opts.workers = Some(workers);
            }
            "--status" => opts.status = true,
            "--shutdown" => opts.shutdown = true,
            "--chaos-seed" => {
                opts.chaos_seed = Some(
                    value_of("--chaos-seed")?
                        .parse()
                        .map_err(|e| format!("--chaos-seed: {e}"))?,
                );
            }
            "--chaos-panics" => {
                opts.chaos_panics = value_of("--chaos-panics")?
                    .parse()
                    .map_err(|e| format!("--chaos-panics: {e}"))?;
            }
            "--chaos-stalls" => {
                opts.chaos_stalls = value_of("--chaos-stalls")?
                    .parse()
                    .map_err(|e| format!("--chaos-stalls: {e}"))?;
            }
            "--chaos-blowouts" => {
                opts.chaos_blowouts = value_of("--chaos-blowouts")?
                    .parse()
                    .map_err(|e| format!("--chaos-blowouts: {e}"))?;
            }
            "--chaos-stall-ms" => {
                opts.chaos_stall_ms = value_of("--chaos-stall-ms")?
                    .parse()
                    .map_err(|e| format!("--chaos-stall-ms: {e}"))?;
            }
            "--chaos-transient" => opts.chaos_transient = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option '{flag}'")),
            other => opts.inputs.push(other.to_string()),
        }
    }
    opts.run.faults = opts.chaos_seed.map(|seed| FaultPlan {
        seed,
        panics: opts.chaos_panics,
        stalls: opts.chaos_stalls,
        blowouts: opts.chaos_blowouts,
        stall_ms: opts.chaos_stall_ms,
        transient: opts.chaos_transient,
    });
    Ok(opts)
}

fn print_report(report: &ScenarioReport, quiet: bool) {
    if quiet {
        let helix = report.runs.iter().rev().find_map(|r| {
            r.speedup_vs_sequential
                .filter(|_| !r.config.starts_with("seq"))
        });
        println!(
            "{:<12} {} cores={} coverage={:.0}% plans={}{}",
            report.scenario,
            report.compiler,
            report.cores,
            100.0 * report.coverage,
            report.plans,
            helix
                .map(|s| format!(" speedup={s:.2}x"))
                .unwrap_or_default()
        );
        return;
    }
    println!(
        "\n{} [{}] — {} @ {} cores, coverage {:.1}%, {} parallel loop(s)",
        report.scenario,
        report.kind,
        report.compiler,
        report.cores,
        100.0 * report.coverage,
        report.plans
    );
    for row in report.runs.iter().chain(&report.sweep) {
        let speedup = row
            .speedup_vs_sequential
            .map(|s| format!("{s:6.2}x"))
            .unwrap_or_else(|| "      -".into());
        println!(
            "  {:<18} {:>12} cycles  {speedup}  {:>10.0} cyc/s  ({:.3}s)",
            row.config,
            row.cycles,
            row.cycles_per_sec(),
            row.wall_secs
        );
    }
    if !report.nests.is_empty() {
        println!("  per-nest breakdown:");
        for nest in &report.nests {
            println!(
                "    {:<14} weight {:>5.1}%  glue {:>5.1}%  coverage {:>5.1}%  {} plan(s)  {:>6.2}x",
                nest.name,
                100.0 * nest.weight,
                100.0 * nest.glue_weight,
                100.0 * nest.coverage,
                nest.plans,
                nest.speedup
            );
        }
    }
}

fn cmd_run(opts: &Options) -> Result<ExitCode, String> {
    let files = collect_spec_files(&opts.inputs)?;
    if opts.out.is_some() && files.len() != 1 {
        return Err("--out requires exactly one scenario (use --out-dir for many)".into());
    }
    if let Some(dir) = &opts.out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create '{}': {e}", dir.display()))?;
    }
    for file in &files {
        let response = api::execute(Request::RunScenario {
            source: SpecSource::Path(file.clone()),
            options: opts.run.clone(),
        });
        let (json, scenario_name) = match &response {
            Response::Scenario {
                json,
                cached,
                report,
            } => {
                let name = match report {
                    Some(report) => {
                        print_report(report, opts.quiet);
                        report.scenario.clone()
                    }
                    // Journal hit: the report text is all we have (and
                    // all we need — nothing was simulated).
                    None => {
                        let name = file
                            .file_stem()
                            .map(|s| s.to_string_lossy().into_owned())
                            .unwrap_or_else(|| "scenario".into());
                        println!("{name}: report answered from the journal");
                        name
                    }
                };
                if *cached && !opts.quiet {
                    println!("  (journal hit — no simulation)");
                }
                (json.clone(), name)
            }
            Response::Error(e) => return Ok(fail_response(e)),
            other => return Err(format!("unexpected response: {other:?}")),
        };
        let out_path = opts.out.clone().or_else(|| {
            opts.out_dir
                .as_ref()
                .map(|dir| dir.join(format!("{scenario_name}.report.json")))
        });
        if let Some(path) = out_path {
            std::fs::write(&path, json)
                .map_err(|e| format!("cannot write '{}': {e}", path.display()))?;
            if !opts.quiet {
                println!("  report -> {}", path.display());
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_check(opts: &Options) -> Result<ExitCode, String> {
    let files = collect_spec_files(&opts.inputs)?;
    for file in &files {
        let response = api::execute(Request::Check {
            source: SpecSource::Path(file.clone()),
            scale: opts.run.scenario_scale(),
        });
        match response {
            Response::Checked {
                name,
                regions,
                phases,
                insts,
            } => {
                println!(
                    "ok {name:<12} ({regions} regions, {phases} phases, {insts} static insts)"
                );
            }
            Response::Error(e) => return Ok(fail_response(&e)),
            other => return Err(format!("unexpected response: {other:?}")),
        }
    }
    println!("{} scenario(s) valid", files.len());
    Ok(ExitCode::SUCCESS)
}

fn cmd_list(opts: &Options) -> Result<(), String> {
    let files = collect_spec_files(&opts.inputs)?;
    for file in &files {
        let spec = load_spec(file)?;
        // Multi-nest scenarios list their nests; the classic
        // single-pipeline form counts as one.
        let nests = spec.nests.len().max(1);
        let kinds = spec.dist_kinds();
        let dists = if kinds.is_empty() {
            // Fixed per-iteration work: no distribution in play.
            "-".to_string()
        } else {
            kinds.join(",")
        };
        println!(
            "{:<12} {:<4} n={:<5} nests={:<2} dists={:<12} {}",
            spec.name,
            spec.kind.render(),
            spec.base_n,
            nests,
            dists,
            spec.description
        );
    }
    Ok(())
}

fn cmd_explore(opts: &Options) -> Result<ExitCode, String> {
    if !opts.inputs.is_empty() {
        return Err("explore takes no positional arguments (it generates its own specs)".into());
    }
    let defaults = ExploreOptions::default();
    let response = api::execute(Request::Explore {
        options: ExploreOptions {
            seed: opts.seed.unwrap_or(defaults.seed),
            budget: opts.budget.unwrap_or(defaults.budget),
            cores: opts.run.cores.unwrap_or(defaults.cores),
            fuel: opts.run.fuel.unwrap_or(defaults.fuel),
            export_dir: opts.export_dir.clone(),
        },
    });
    let (json, report) = match &response {
        Response::Explore { json, report, .. } => (json, report),
        Response::Error(e) => return Ok(fail_response(e)),
        other => return Err(format!("unexpected response: {other:?}")),
    };
    if let Some(report) = report {
        if !opts.quiet {
            println!(
                "explore seed={} budget={}: {} spec(s), {} oracle check(s), {} failure(s)",
                report.seed,
                report.budget,
                report.specs_run,
                report.oracle_checks,
                report.failures.len()
            );
            for f in &report.failures {
                println!(
                    "  FAIL [{}] #{} {}: {}",
                    f.oracle, f.index, f.spec, f.detail
                );
            }
            if let Some(hit) = &report.frontier.min_bound_frac {
                println!(
                    "  frontier min bound_frac {:.3} at #{} {}",
                    hit.value, hit.index, hit.spec
                );
            }
            if let Some(hit) = &report.frontier.max_comm_frac {
                println!(
                    "  frontier max comm_frac {:.3} at #{} {}",
                    hit.value, hit.index, hit.spec
                );
            }
            for inv in &report.frontier.inversions {
                println!(
                    "  inversion at #{} {}: v1 {:.2}x, v2 {:.2}x, helix-rc {:.2}x",
                    inv.index, inv.spec, inv.v1, inv.v2, inv.helix_rc
                );
            }
        }
    }
    if let Some(out) = &opts.out {
        std::fs::write(out, json).map_err(|e| format!("cannot write '{}': {e}", out.display()))?;
        if !opts.quiet {
            println!("report -> {}", out.display());
        }
    } else if opts.quiet {
        // Quiet with no --out still leaves the report on stdout, so
        // `helix explore --quiet > report.json` stays scriptable.
        print!("{json}");
    }
    Ok(ExitCode::from(response.exit_code()))
}

fn cmd_smoke(opts: &Options) -> Result<(), String> {
    let files = collect_spec_files(&opts.inputs)?;
    if let Some(dir) = &opts.out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create '{}': {e}", dir.display()))?;
    }
    let mut failures = 0usize;
    for file in &files {
        let response = api::execute(Request::RunScenario {
            source: SpecSource::Path(file.clone()),
            options: opts.run.clone(),
        });
        match response {
            Response::Scenario {
                json,
                report: Some(report),
                ..
            } => {
                print_report(&report, true);
                // Optionally collect the JSON reports in the same pass,
                // so CI doesn't have to simulate the suite twice.
                if let Some(dir) = &opts.out_dir {
                    let path = dir.join(format!("{}.report.json", report.scenario));
                    std::fs::write(&path, json)
                        .map_err(|e| format!("cannot write '{}': {e}", path.display()))?;
                }
            }
            Response::Scenario { .. } => {
                // smoke never passes a journal, so this cannot happen;
                // count it rather than hide it if that ever changes.
                eprintln!(
                    "FAIL {}: unexpected journal-cached response",
                    file.display()
                );
                failures += 1;
            }
            Response::Error(e) => {
                eprintln!("FAIL {}: {}", file.display(), render_error(&e));
                failures += 1;
            }
            other => return Err(format!("unexpected response: {other:?}")),
        }
    }
    if failures > 0 {
        return Err(format!("{failures} of {} scenario(s) failed", files.len()));
    }
    println!("smoke ok: {} scenario(s)", files.len());
    Ok(())
}

fn cmd_campaign(opts: &Options) -> Result<ExitCode, String> {
    // The grid comes from the campaign file; silently ignoring per-run
    // overrides would run a different sweep than the user asked for.
    if opts.run.cores.is_some() || opts.run.fuel.is_some() {
        return Err("campaign does not take --cores/--fuel: edit the campaign's [grid]".into());
    }
    if opts.out_dir.is_some() {
        return Err("campaign writes one aggregated report: use --out FILE".into());
    }
    let [input] = opts.inputs.as_slice() else {
        return Err("campaign takes exactly one campaign file".into());
    };
    let path = Path::new(input);
    let mut options = opts.run.clone();
    if options.journal.is_none() && options.resume {
        // --resume without --journal uses the campaign's sibling dir,
        // so "interrupt, re-run with --resume" needs no bookkeeping.
        options.journal = Some(PathBuf::from(format!("{}.journal", path.display())));
    }
    let t0 = std::time::Instant::now();
    let response = api::execute(Request::RunCampaign {
        source: CampaignSource::Path(path.to_path_buf()),
        options,
    });
    let wall = t0.elapsed().as_secs_f64();
    let (json, table, stats, report) = match response {
        Response::Campaign {
            json,
            table,
            stats,
            report: Some(report),
        } => (json, table, stats, report),
        Response::Error(e) => return Ok(fail_response(&e)),
        other => return Err(format!("unexpected response: {other:?}")),
    };
    if opts.quiet {
        for (scenario, speedup) in report.helix_speedups() {
            println!("{scenario:<12} helix-rc speedup {speedup:.2}x");
        }
        for failure in &report.failures {
            println!("FAILED {failure}");
        }
    } else {
        println!("{table}");
    }
    eprintln!(
        "campaign '{}': {} scenario(s), {} row(s){}{} in {wall:.1}s",
        report.name,
        report.scenarios.len(),
        report.rows.len(),
        if report.failures.is_empty() {
            String::new()
        } else {
            format!(", {} FAILED cell(s)", report.failures.len())
        },
        if stats.journal_hits > 0 {
            format!(
                ", {} of {} cell(s) from the journal",
                stats.journal_hits, stats.cells
            )
        } else {
            String::new()
        }
    );
    if let Some(out) = &opts.out {
        std::fs::write(out, json).map_err(|e| format!("cannot write '{}': {e}", out.display()))?;
        eprintln!("report -> {}", out.display());
    }
    Ok(if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(api::EXIT_CELL_FAILURES)
    })
}

fn cmd_serve(opts: &Options) -> Result<ExitCode, String> {
    if !opts.inputs.is_empty() {
        return Err("serve takes no positional arguments".into());
    }
    let socket = opts
        .socket
        .clone()
        .ok_or("serve needs --socket PATH (e.g. --socket /tmp/helix.sock)")?;
    let mut serve_options = ServeOptions::new(socket);
    if let Some(journal) = &opts.run.journal {
        serve_options.journal = journal.clone();
    }
    if let Some(workers) = opts.workers {
        serve_options.workers = workers;
    }
    match serve(&serve_options) {
        Ok(()) => Ok(ExitCode::SUCCESS),
        Err(e) => Ok(fail_response(&e)),
    }
}

fn cmd_submit(opts: &Options) -> Result<ExitCode, String> {
    let socket = opts
        .socket
        .clone()
        .ok_or("submit needs --socket PATH of a running `helix serve`")?;
    let request = if opts.status {
        Request::Status
    } else if opts.shutdown {
        Request::Shutdown
    } else {
        let [input] = opts.inputs.as_slice() else {
            return Err("submit takes exactly one scenario or campaign file".into());
        };
        let path = Path::new(input);
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read '{input}': {e}"))?;
        // Campaign files are the ones with a machine/compiler grid;
        // resolve their scenario patterns locally so the server never
        // touches this client's filesystem.
        if text.lines().any(|l| l.trim() == "[grid]") {
            let source = api::inline_campaign_source(path).map_err(|e| render_error(&e))?;
            Request::RunCampaign {
                source,
                options: opts.run.clone(),
            }
        } else {
            Request::RunScenario {
                source: SpecSource::Inline(text),
                options: opts.run.clone(),
            }
        }
    };
    let response = submit(&socket, &request).map_err(|e| render_error(&e))?;
    match &response {
        Response::Campaign {
            json, table, stats, ..
        } => {
            if !opts.quiet {
                println!("{table}");
            }
            println!(
                "cells={} journal_hits={} simulated={} failures={}",
                stats.cells, stats.journal_hits, stats.simulated, stats.failed
            );
            if stats.fully_cached() {
                println!("(all cells answered from the journal)");
            }
            if let Some(out) = &opts.out {
                std::fs::write(out, json)
                    .map_err(|e| format!("cannot write '{}': {e}", out.display()))?;
                eprintln!("report -> {}", out.display());
            }
        }
        Response::Scenario { json, cached, .. } => {
            if let Some(out) = &opts.out {
                std::fs::write(out, json)
                    .map_err(|e| format!("cannot write '{}': {e}", out.display()))?;
                eprintln!("report -> {}", out.display());
            } else if !opts.quiet {
                print!("{json}");
            }
            if *cached {
                println!("(report answered from the journal)");
            }
        }
        Response::Status(status) => {
            println!(
                "workers={} requests={} inflight={} cells={} journal_hits={} simulated={}",
                status.workers,
                status.requests,
                status.inflight,
                status.cells,
                status.journal_hits,
                status.simulated
            );
        }
        Response::ShuttingDown => println!("service shutting down"),
        Response::Error(e) => return Ok(fail_response(e)),
        other => return Err(format!("unexpected response: {other:?}")),
    }
    Ok(ExitCode::from(response.exit_code()))
}

/// Compare two report files through [`api::diff_reports`]: a schema
/// version mismatch is named outright; otherwise byte-compare and print
/// the differing region (common prefix/suffix trimmed, long middles
/// capped).
fn cmd_diff(opts: &Options) -> Result<ExitCode, String> {
    let [a, b] = opts.inputs.as_slice() else {
        return Err("diff takes exactly two report files".into());
    };
    let read = |p: &String| {
        std::fs::read_to_string(Path::new(p)).map_err(|e| format!("cannot read '{p}': {e}"))
    };
    let (ta, tb) = (read(a)?, read(b)?);
    let response = api::execute(Request::Diff {
        a_name: a.clone(),
        a_text: ta,
        b_name: b.clone(),
        b_text: tb,
    });
    match response {
        Response::Diff { identical, detail } => {
            println!("{detail}");
            Ok(if identical {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Response::Error(e) => Ok(fail_response(&e)),
        other => Err(format!("unexpected response: {other:?}")),
    }
}

fn cmd_export(opts: &Options) -> Result<(), String> {
    let [dir] = opts.inputs.as_slice() else {
        return Err("export takes exactly one directory".into());
    };
    let dir = Path::new(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create '{}': {e}", dir.display()))?;
    for (name, text) in BUILTIN_SCENARIOS {
        let path = dir.join(format!("{name}.toml"));
        std::fs::write(&path, text)
            .map_err(|e| format!("cannot write '{}': {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    println!("{} scenario(s) exported", BUILTIN_SCENARIOS.len());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        print!("{USAGE}");
        return ExitCode::from(2);
    };
    if rest.iter().any(|arg| arg == "--help" || arg == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match parse_options(rest) {
        Ok(opts) => opts,
        Err(e) => return fail_usage(e),
    };
    let result = match command.as_str() {
        "run" => cmd_run(&opts),
        "check" => cmd_check(&opts),
        "list" => cmd_list(&opts).map(|()| ExitCode::SUCCESS),
        "smoke" => cmd_smoke(&opts).map(|()| ExitCode::SUCCESS),
        "campaign" => cmd_campaign(&opts),
        "explore" => cmd_explore(&opts),
        "serve" => cmd_serve(&opts),
        "submit" => cmd_submit(&opts),
        "diff" => cmd_diff(&opts),
        "export" => cmd_export(&opts).map(|()| ExitCode::SUCCESS),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => return fail_usage(format!("unknown command '{other}'\n\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(e) => fail(e),
    }
}
