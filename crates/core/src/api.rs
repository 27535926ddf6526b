//! The unified request/response API every entry point routes through.
//!
//! One typed surface — [`Request`] in, [`Response`] out, via
//! [`execute`] — backs the `helix` CLI subcommands (`run`, `check`,
//! `campaign`, `diff`, `explore`), the resident service (`helix
//! serve`), and the submit client. Under it sit the two runner entry
//! points, [`run_scenario`] and [`run_campaign`], which take the same
//! [`RunOptions`].
//!
//! [`execute`] never returns `Err`: every failure becomes
//! [`Response::Error`] carrying a structured
//! [`HelixError`], whose
//! [`ErrorKind::code`](crate::error::ErrorKind::code) is the stable
//! machine-readable error code of the wire protocol and whose
//! [`exit_code`](crate::error::ErrorKind::exit_code) preserves the
//! CLI's 0/1/2/3 contract (see [`Response::exit_code`]).
//!
//! # Wire format
//!
//! Requests and responses serialize to single-line JSON objects with a
//! `{"v": 1, "type": ...}` envelope ([`encode_request`] /
//! [`decode_request`] / [`encode_response`] / [`decode_response`]),
//! newline-delimited on the service socket. The lines are read and
//! written by [`crate::json`]; see `docs/SERVICE.md` for the full
//! schema.

use crate::campaign::{load_campaign, run_campaign, CampaignReport, CampaignRunStats};
use crate::error::{ErrorKind, HelixError};
use crate::experiment::ExperimentOptions;
use crate::explore::{run_explore, ExploreOptions, ExploreReport};
use crate::json::Json;
use crate::report::SCHEMA_VERSION;
use crate::resilient::{fnv1a, FaultPlan, Journal, FNV_OFFSET};
use crate::scenario::{run_scenario, ScenarioReport};
use helix_workloads::{campaign_from_inline, generate, Scale, ScenarioSpec, MAX_CORES};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Exit code for a campaign that completed but has failed cells.
pub const EXIT_CELL_FAILURES: u8 = 3;

/// The one set of execution options, from the CLI flags through
/// [`execute`] to [`run_scenario`] and [`run_campaign`]. Build with the
/// `with_*` methods; unset fields defer to the spec.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOptions {
    /// Problem scale. `None` keeps the campaign file's scale (or `Test`
    /// for bare scenarios).
    pub scale: Option<Scale>,
    /// Override the core count (scenarios only).
    pub cores: Option<usize>,
    /// Override the simulation cycle budget (scenarios only).
    pub fuel: Option<u64>,
    /// Override the campaign's `[resilience] max_retries`.
    pub max_retries: Option<i64>,
    /// Override the campaign's `[resilience] cycle_budget`.
    pub cycle_budget: Option<i64>,
    /// Override the campaign's `[resilience] wall_budget_ms`.
    pub wall_budget_ms: Option<i64>,
    /// Journal completed cells (and whole scenario reports) under this
    /// directory. Local execution only — never carried over the wire;
    /// the service supplies its own journal.
    pub journal: Option<PathBuf>,
    /// Answer journaled entries instead of re-running them. Requires
    /// `journal`.
    pub resume: bool,
    /// Seeded chaos faults. Local execution only.
    pub faults: Option<FaultPlan>,
    /// Campaign cache switch. `None` (or `1`) runs every grid cell on
    /// its own; `> 1` shares one compile/decode/report cache per
    /// scenario across its cells, and changes nothing else (the name
    /// is kept for the CLI flag and the wire). Purely an execution
    /// knob: reports are byte-identical either way. Carried over the
    /// wire as the v1 `lanes` field.
    pub lanes: Option<usize>,
    /// Attach the per-stall-cause cycle breakdown (Fig. 12 buckets) to
    /// every scenario run row. Diagnostic output only — deterministic,
    /// and absent unless requested. Carried over the wire as the v1
    /// `attribution` field.
    pub attribution: bool,
}

impl RunOptions {
    /// Options that run everything as specified, nothing overridden.
    pub fn new() -> RunOptions {
        RunOptions::default()
    }

    /// Set the problem scale.
    pub fn with_scale(mut self, scale: Scale) -> RunOptions {
        self.scale = Some(scale);
        self
    }

    /// Override the core count.
    pub fn with_cores(mut self, cores: usize) -> RunOptions {
        self.cores = Some(cores);
        self
    }

    /// Override the cycle budget.
    pub fn with_fuel(mut self, fuel: u64) -> RunOptions {
        self.fuel = Some(fuel);
        self
    }

    /// Override `[resilience] max_retries`.
    pub fn with_max_retries(mut self, retries: i64) -> RunOptions {
        self.max_retries = Some(retries);
        self
    }

    /// Override `[resilience] cycle_budget`.
    pub fn with_cycle_budget(mut self, budget: i64) -> RunOptions {
        self.cycle_budget = Some(budget);
        self
    }

    /// Override `[resilience] wall_budget_ms`.
    pub fn with_wall_budget_ms(mut self, ms: i64) -> RunOptions {
        self.wall_budget_ms = Some(ms);
        self
    }

    /// Journal completed work under `dir`.
    pub fn with_journal(mut self, dir: impl Into<PathBuf>) -> RunOptions {
        self.journal = Some(dir.into());
        self
    }

    /// Answer journaled entries instead of re-running.
    pub fn with_resume(mut self, resume: bool) -> RunOptions {
        self.resume = resume;
        self
    }

    /// Inject seeded chaos faults.
    pub fn with_faults(mut self, faults: FaultPlan) -> RunOptions {
        self.faults = Some(faults);
        self
    }

    /// Set the lane width (`> 1` shares one cache per scenario across a
    /// campaign's cells).
    pub fn with_lanes(mut self, lanes: usize) -> RunOptions {
        self.lanes = Some(lanes);
        self
    }

    /// Attach the per-stall-cause breakdown to scenario run rows.
    pub fn with_attribution(mut self, attribution: bool) -> RunOptions {
        self.attribution = attribution;
        self
    }

    /// Effective scale for a bare scenario run.
    pub fn scenario_scale(&self) -> Scale {
        self.scale.unwrap_or(Scale::Test)
    }
}

/// Where a scenario spec comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecSource {
    /// A TOML file on the local filesystem.
    Path(PathBuf),
    /// Inline TOML text (the shape service submissions carry — the
    /// server never reads the client's filesystem).
    Inline(String),
}

impl SpecSource {
    fn load(&self) -> Result<ScenarioSpec, HelixError> {
        match self {
            SpecSource::Path(path) => {
                let text = std::fs::read_to_string(path).map_err(|e| {
                    HelixError::io(format!("cannot read '{}': {e}", path.display()))
                })?;
                ScenarioSpec::from_toml(&text)
                    .map_err(|e| HelixError::from(e).with_file(path.display().to_string()))
            }
            SpecSource::Inline(text) => ScenarioSpec::from_toml(text).map_err(HelixError::from),
        }
    }

    fn inline_text(&self) -> Result<String, HelixError> {
        match self {
            SpecSource::Inline(text) => Ok(text.clone()),
            SpecSource::Path(path) => Err(HelixError::usage(format!(
                "path source '{}' cannot cross the wire: resolve to an inline payload first",
                path.display()
            ))),
        }
    }
}

/// Where a campaign (and its scenario set) comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignSource {
    /// A campaign TOML file; its scenario patterns resolve against the
    /// local filesystem.
    Path(PathBuf),
    /// Inline payloads: the campaign TOML plus the full TOML text of
    /// every scenario (patterns in the campaign are ignored).
    Inline {
        /// Campaign TOML text.
        campaign: String,
        /// One TOML document per scenario.
        scenarios: Vec<String>,
    },
}

/// A typed request against the unified API.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one scenario end-to-end (generate → compile → simulate).
    RunScenario {
        /// The scenario spec.
        source: SpecSource,
        /// Execution options.
        options: RunOptions,
    },
    /// Run a cross-scenario campaign sweep.
    RunCampaign {
        /// The campaign and its scenarios.
        source: CampaignSource,
        /// Execution options.
        options: RunOptions,
    },
    /// Parse, validate, and generate a scenario without simulating.
    Check {
        /// The scenario spec.
        source: SpecSource,
        /// Problem scale to generate at.
        scale: Scale,
    },
    /// Compare two report documents (schema version first, then bytes).
    Diff {
        /// Display name of the first report (e.g. its file name).
        a_name: String,
        /// Full text of the first report.
        a_text: String,
        /// Display name of the second report.
        b_name: String,
        /// Full text of the second report.
        b_text: String,
    },
    /// Property-driven scenario fuzzing: examine a seed-deterministic
    /// stream of generated specs through the differential oracle
    /// battery (see [`crate::explore`]).
    Explore {
        /// Explore options (seed, budget, cores, fuel, export dir).
        options: ExploreOptions,
    },
    /// Service liveness/counters probe (meaningful against `helix
    /// serve`; local [`execute`] answers with zeroed counters).
    Status,
    /// Ask the service to drain and exit.
    Shutdown,
}

/// Live counters of a running service, answered to [`Request::Status`].
/// No wall-clock fields: the counters are functions of the request
/// history only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStatus {
    /// Size of the bounded worker pool.
    pub workers: usize,
    /// Requests accepted since the service started.
    pub requests: u64,
    /// Requests currently executing or queued for a worker permit.
    pub inflight: u64,
    /// Campaign grid cells enumerated across all submissions.
    pub cells: u64,
    /// Cells (and whole scenario reports) answered from the journal.
    pub journal_hits: u64,
    /// Cells actually simulated.
    pub simulated: u64,
}

/// A typed response from the unified API. Every [`Request`] variant has
/// exactly one success shape; failures are [`Response::Error`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A completed scenario run.
    Scenario {
        /// The report as JSON (exactly what `--out` would write).
        json: String,
        /// Whether the whole report was answered from the journal
        /// without simulating.
        cached: bool,
        /// The structured report. Present on local execution; `None`
        /// after a wire round-trip (the JSON carries the data).
        report: Option<Box<ScenarioReport>>,
    },
    /// A completed campaign run.
    Campaign {
        /// The deterministic report JSON (byte-identical across runs of
        /// the same campaign + seed, journal-answered or not).
        json: String,
        /// Paper-style text tables.
        table: String,
        /// Execution counters — how many cells were simulated vs
        /// answered from the journal. Deliberately outside the report
        /// so hit counts never break report byte-identity.
        stats: CampaignRunStats,
        /// The structured report. Present on local execution; `None`
        /// after a wire round-trip.
        report: Option<Box<CampaignReport>>,
    },
    /// A scenario passed [`Request::Check`].
    Checked {
        /// Scenario name.
        name: String,
        /// Region count of the spec.
        regions: usize,
        /// Phase count of the spec.
        phases: usize,
        /// Static instruction count of the generated program.
        insts: usize,
    },
    /// Outcome of a [`Request::Diff`].
    Diff {
        /// Whether the two documents are byte-identical.
        identical: bool,
        /// Human-readable detail: "reports identical", a named schema
        /// version mismatch, or the differing line region.
        detail: String,
    },
    /// A completed explore run.
    Explore {
        /// The deterministic report JSON (byte-identical for the same
        /// seed + budget + cores + fuel).
        json: String,
        /// Oracle failures found (0 means every check passed).
        failures: usize,
        /// The structured report. Present on local execution; `None`
        /// after a wire round-trip.
        report: Option<Box<ExploreReport>>,
    },
    /// Service counters.
    Status(ServiceStatus),
    /// The service acknowledged [`Request::Shutdown`] and will exit.
    ShuttingDown,
    /// The request failed; the error carries a stable machine-readable
    /// code and optional file/field/value context.
    Error(HelixError),
}

impl Response {
    /// The CLI exit code this response maps to: errors keep the
    /// usage/hard-failure split (2/1), a campaign that completed with
    /// failed cells exits [`EXIT_CELL_FAILURES`], a non-identical diff
    /// exits 1, everything else 0.
    pub fn exit_code(&self) -> u8 {
        match self {
            Response::Error(e) => e.kind.exit_code(),
            Response::Campaign { stats, .. } if stats.failed > 0 => EXIT_CELL_FAILURES,
            Response::Diff { identical, .. } if !identical => 1,
            Response::Explore { failures, .. } if *failures > 0 => 1,
            _ => 0,
        }
    }
}

/// Execute a request locally. Never returns `Err` — failures become
/// [`Response::Error`] so callers (CLI, service loop) have exactly one
/// result shape to render.
pub fn execute(request: Request) -> Response {
    match try_execute(request) {
        Ok(response) => response,
        Err(e) => Response::Error(e),
    }
}

/// Reject option values no execution path can honor. `lanes == 0` in
/// particular used to be silently clamped to 1; it is a usage error
/// (the CLI rejects it the same way before a request is ever built).
/// `cores` gets the bound a spec's `run.cores` has: a huge count would
/// size per-core tables past the host's memory.
fn validate_options(options: &RunOptions) -> Result<(), HelixError> {
    if options.lanes == Some(0) {
        return Err(HelixError::usage("lanes must be >= 1"));
    }
    if let Some(cores) = options.cores.filter(|c| !(1..=MAX_CORES).contains(c)) {
        return Err(
            HelixError::usage(format!("cores must be in 1..={MAX_CORES}, got {cores}"))
                .with_field("cores")
                .with_value(cores.to_string()),
        );
    }
    Ok(())
}

fn try_execute(request: Request) -> Result<Response, HelixError> {
    match request {
        Request::RunScenario { source, options } => {
            validate_options(&options)?;
            run_scenario_request(&source, &options)
        }
        Request::RunCampaign { source, options } => {
            validate_options(&options)?;
            let (mut spec, scenarios) = match &source {
                CampaignSource::Path(path) => load_campaign(path)?,
                CampaignSource::Inline {
                    campaign,
                    scenarios,
                } => campaign_from_inline(campaign, scenarios)?,
            };
            if let Some(scale) = options.scale {
                spec.scale = scale;
            }
            if let Some(retries) = options.max_retries {
                spec.resilience.max_retries = retries;
            }
            if let Some(budget) = options.cycle_budget {
                spec.resilience.cycle_budget = budget;
            }
            if let Some(ms) = options.wall_budget_ms {
                spec.resilience.wall_budget_ms = ms;
            }
            spec.validate()?;
            let (report, stats) =
                run_campaign(&spec, &scenarios, &options, &ExperimentOptions::default())?;
            Ok(Response::Campaign {
                json: report.to_json(),
                table: report.table(),
                stats,
                report: Some(Box::new(report)),
            })
        }
        Request::Check { source, scale } => {
            let spec = source.load()?;
            let program = generate(&spec, scale)
                .map_err(|e| HelixError::from(e).with_field(spec.name.clone()))?;
            program.validate().map_err(|e| {
                HelixError::new(
                    ErrorKind::Spec,
                    format!("{}: generated program invalid: {e:?}", spec.name),
                )
            })?;
            Ok(Response::Checked {
                name: spec.name.clone(),
                regions: spec.regions.len(),
                phases: spec.phases.len(),
                insts: program.graph.inst_count(),
            })
        }
        Request::Diff {
            a_name,
            a_text,
            b_name,
            b_text,
        } => {
            let (identical, detail) = diff_reports(&a_name, &a_text, &b_name, &b_text);
            Ok(Response::Diff { identical, detail })
        }
        Request::Explore { options } => {
            let report = run_explore(&options)?;
            Ok(Response::Explore {
                json: report.to_json(),
                failures: report.failures.len(),
                report: Some(Box::new(report)),
            })
        }
        Request::Status => Ok(Response::Status(ServiceStatus::default())),
        Request::Shutdown => Ok(Response::ShuttingDown),
    }
}

/// Run (or journal-answer) one scenario. The whole report is cached
/// under a content digest of everything that determines it, so a
/// repeat submission returns the stored bytes without simulating.
fn run_scenario_request(source: &SpecSource, options: &RunOptions) -> Result<Response, HelixError> {
    let spec = source.load()?;
    let scale = options.scenario_scale();
    let journal = match &options.journal {
        Some(dir) => Some(Journal::open(dir)?),
        None => None,
    };
    let digest = {
        let cores = options.cores.unwrap_or(spec.run.cores as usize);
        let fuel = options.fuel.unwrap_or(spec.run.fuel);
        let mut h = fnv1a(FNV_OFFSET, env!("CARGO_PKG_VERSION").as_bytes());
        h = fnv1a(h, format!("{scale:?}").as_bytes());
        h = fnv1a(h, &(cores as u64).to_le_bytes());
        h = fnv1a(h, &fuel.to_le_bytes());
        h = fnv1a(h, &[u8::from(options.attribution)]);
        h = fnv1a(h, b"scenario-report");
        fnv1a(h, spec.to_toml().as_bytes())
    };
    if options.resume {
        if let Some(json) = journal
            .as_ref()
            .and_then(|j| j.load(digest))
            .and_then(|text| text.strip_prefix("helix-scenario v1\n").map(str::to_string))
        {
            return Ok(Response::Scenario {
                json,
                cached: true,
                report: None,
            });
        }
    }
    let report = run_scenario(&spec, options).map_err(|e| match e.field {
        Some(_) => e,
        None => e.with_field(spec.name.clone()),
    })?;
    let json = report.to_json();
    if let Some(j) = &journal {
        let _ = j.store(digest, &format!("helix-scenario v1\n{json}"));
    }
    Ok(Response::Scenario {
        json,
        cached: false,
        report: Some(Box::new(report)),
    })
}

/// Extract the `schema_version` stamp of a report document, if it is
/// one.
fn schema_version_of(text: &str) -> Option<u64> {
    Json::parse(text).ok()?.get("schema_version")?.as_u64()
}

/// Compare two report documents. Schema versions are checked first: a
/// version mismatch is *named* instead of dumped as line noise. Equal
/// (or absent) versions fall through to a byte comparison whose detail
/// trims the common prefix/suffix lines and caps long middles.
pub fn diff_reports(a_name: &str, a_text: &str, b_name: &str, b_text: &str) -> (bool, String) {
    let (va, vb) = (schema_version_of(a_text), schema_version_of(b_text));
    if let (Some(va), Some(vb)) = (va, vb) {
        if va != vb {
            return (
                false,
                format!(
                    "schema version mismatch: {a_name} has schema_version {va}, \
                     {b_name} has schema_version {vb} (current is {SCHEMA_VERSION}); \
                     regenerate the stale report before comparing"
                ),
            );
        }
    }
    if a_text == b_text {
        return (true, format!("reports identical ({} bytes)", a_text.len()));
    }
    let la: Vec<&str> = a_text.lines().collect();
    let lb: Vec<&str> = b_text.lines().collect();
    let common_prefix = la.iter().zip(&lb).take_while(|(x, y)| x == y).count();
    let common_suffix = la[common_prefix..]
        .iter()
        .rev()
        .zip(lb[common_prefix..].iter().rev())
        .take_while(|(x, y)| x == y)
        .count();
    let cap = 40;
    let mut detail = String::new();
    let mut print_side = |tag: &str, file: &str, lines: &[&str]| {
        let _ = writeln!(
            detail,
            "--- {tag} {file} (lines {}..{})",
            common_prefix + 1,
            common_prefix + lines.len()
        );
        for line in lines.iter().take(cap) {
            let _ = writeln!(detail, "{tag} {line}");
        }
        if lines.len() > cap {
            let _ = writeln!(detail, "{tag} ... ({} more line(s))", lines.len() - cap);
        }
    };
    print_side("<", a_name, &la[common_prefix..la.len() - common_suffix]);
    print_side(">", b_name, &lb[common_prefix..lb.len() - common_suffix]);
    let _ = write!(
        detail,
        "reports differ: {} vs {} line(s), {} shared at head, {} at tail",
        la.len(),
        lb.len(),
        common_prefix,
        common_suffix
    );
    (false, detail)
}

// ---------------------------------------------------------------------
// Wire format: single-line JSON with a {"v": 1, "type": ...} envelope.
// ---------------------------------------------------------------------

/// Wire protocol version carried in every envelope.
pub const WIRE_VERSION: u64 = 1;

fn encode_options(options: &RunOptions) -> Result<Json, HelixError> {
    if options.journal.is_some() || options.faults.is_some() || options.resume {
        return Err(HelixError::usage(
            "journal/resume/chaos options are local-execution only and cannot cross the wire \
             (the service owns its journal)",
        ));
    }
    Ok(Json::obj()
        .with_opt("scale", options.scale.map(scale_label))
        .with_opt("cores", options.cores)
        .with_opt("fuel", options.fuel)
        .with_opt("max_retries", options.max_retries)
        .with_opt("cycle_budget", options.cycle_budget)
        .with_opt("wall_budget_ms", options.wall_budget_ms)
        .with_opt("lanes", options.lanes)
        .with_opt("attribution", options.attribution.then_some(true)))
}

/// The wire spelling of a scale.
fn scale_label(scale: Scale) -> &'static str {
    if scale == Scale::Full {
        "full"
    } else {
        "test"
    }
}

fn decode_options(value: Option<&Json>) -> Result<RunOptions, HelixError> {
    let mut options = RunOptions::default();
    let Some(obj) = value else {
        return Ok(options);
    };
    let int_of = |field: &Json, key: &str| {
        field
            .as_i64()
            .ok_or_else(|| HelixError::protocol(format!("options.{key} must be an integer")))
    };
    // Counts that only make sense positive: a negative value must not
    // wrap into a huge one on the cast.
    let positive = |field: &Json, key: &str| match int_of(field, key)? {
        n if n >= 1 => Ok(n as u64),
        _ => Err(HelixError::protocol(format!("options.{key} must be >= 1"))),
    };
    if let Json::Obj(fields) = obj {
        for (key, field) in fields {
            match key.as_str() {
                "scale" => {
                    options.scale = Some(match field.as_str() {
                        Some("test") => Scale::Test,
                        Some("full") => Scale::Full,
                        _ => {
                            return Err(HelixError::protocol(
                                "options.scale must be \"test\" or \"full\"",
                            ))
                        }
                    });
                }
                "cores" => options.cores = Some(positive(field, "cores")? as usize),
                "fuel" => options.fuel = Some(positive(field, "fuel")?),
                "max_retries" => options.max_retries = Some(int_of(field, "max_retries")?),
                "cycle_budget" => options.cycle_budget = Some(int_of(field, "cycle_budget")?),
                "wall_budget_ms" => options.wall_budget_ms = Some(int_of(field, "wall_budget_ms")?),
                "lanes" => options.lanes = Some(positive(field, "lanes")? as usize),
                "attribution" => {
                    options.attribution = field.as_bool().ok_or_else(|| {
                        HelixError::protocol("options.attribution must be a boolean")
                    })?;
                }
                // Unknown fields are skipped, not rejected: a v1 client
                // newer than the server may send options this build
                // does not know (exactly how `lanes` itself rolled
                // out), and execution options never change report
                // content — ignoring one degrades performance, not
                // correctness.
                _ => {}
            }
        }
        Ok(options)
    } else {
        Err(HelixError::protocol("options must be an object"))
    }
}

/// Serialize a request to its single-line wire form.
///
/// Path sources and local-only options (journal, resume, chaos) are
/// rejected with [`ErrorKind::Usage`]: the client must resolve files to
/// inline payloads, and the service owns its own journal.
pub fn encode_request(request: &Request) -> Result<String, HelixError> {
    let out = Json::obj().with("v", WIRE_VERSION);
    let out = match request {
        Request::RunScenario { source, options } => out
            .with("type", "run_scenario")
            .with("spec", source.inline_text()?)
            .with("options", encode_options(options)?),
        Request::RunCampaign { source, options } => {
            let (campaign, scenarios) = match source {
                CampaignSource::Inline {
                    campaign,
                    scenarios,
                } => (campaign, scenarios),
                CampaignSource::Path(path) => {
                    return Err(HelixError::usage(format!(
                        "path source '{}' cannot cross the wire: resolve to inline payloads first",
                        path.display()
                    )))
                }
            };
            out.with("type", "run_campaign")
                .with("campaign", campaign)
                .with(
                    "scenarios",
                    scenarios.iter().map(Json::from).collect::<Vec<_>>(),
                )
                .with("options", encode_options(options)?)
        }
        Request::Check { source, scale } => out
            .with("type", "check")
            .with("spec", source.inline_text()?)
            .with("scale", scale_label(*scale)),
        Request::Diff {
            a_name,
            a_text,
            b_name,
            b_text,
        } => out
            .with("type", "diff")
            .with("a_name", a_name)
            .with("a_text", a_text)
            .with("b_name", b_name)
            .with("b_text", b_text),
        Request::Explore { options } => {
            if options.export_dir.is_some() {
                return Err(HelixError::usage(
                    "the explore export directory is local-execution only and cannot cross \
                     the wire (the report JSON already embeds every shrunk TOML)",
                ));
            }
            out.with("type", "explore")
                .with("seed", options.seed)
                .with("budget", options.budget)
                .with("cores", options.cores)
                .with("fuel", options.fuel)
        }
        Request::Status => out.with("type", "status"),
        Request::Shutdown => out.with("type", "shutdown"),
    };
    Ok(out.line())
}

fn envelope(line: &str) -> Result<Json, HelixError> {
    let value = Json::parse(line)?;
    match value.get("v").and_then(Json::as_u64) {
        Some(WIRE_VERSION) => Ok(value),
        Some(v) => Err(HelixError::protocol(format!(
            "unsupported protocol version {v} (this build speaks {WIRE_VERSION})"
        ))),
        None => Err(HelixError::protocol("missing protocol version field \"v\"")),
    }
}

fn str_field<'a>(value: &'a Json, key: &str) -> Result<&'a str, HelixError> {
    value
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| HelixError::protocol(format!("missing or non-string field '{key}'")))
}

fn u64_field(value: &Json, key: &str) -> Result<u64, HelixError> {
    value
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| HelixError::protocol(format!("missing or non-integer field '{key}'")))
}

fn bool_field(value: &Json, key: &str) -> Result<bool, HelixError> {
    value
        .get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| HelixError::protocol(format!("missing or non-bool field '{key}'")))
}

/// Parse one wire line into a typed [`Request`].
pub fn decode_request(line: &str) -> Result<Request, HelixError> {
    let value = envelope(line)?;
    let kind = str_field(&value, "type")?;
    match kind {
        "run_scenario" => Ok(Request::RunScenario {
            source: SpecSource::Inline(str_field(&value, "spec")?.to_string()),
            options: decode_options(value.get("options"))?,
        }),
        "run_campaign" => {
            let scenarios = value
                .get("scenarios")
                .and_then(Json::as_array)
                .ok_or_else(|| HelixError::protocol("missing or non-array field 'scenarios'"))?
                .iter()
                .map(|s| {
                    s.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| HelixError::protocol("scenarios[] entries must be strings"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Request::RunCampaign {
                source: CampaignSource::Inline {
                    campaign: str_field(&value, "campaign")?.to_string(),
                    scenarios,
                },
                options: decode_options(value.get("options"))?,
            })
        }
        "check" => Ok(Request::Check {
            source: SpecSource::Inline(str_field(&value, "spec")?.to_string()),
            scale: match str_field(&value, "scale")? {
                "test" => Scale::Test,
                "full" => Scale::Full,
                other => {
                    return Err(HelixError::protocol(format!(
                        "scale must be \"test\" or \"full\", got \"{other}\""
                    )))
                }
            },
        }),
        "diff" => Ok(Request::Diff {
            a_name: str_field(&value, "a_name")?.to_string(),
            a_text: str_field(&value, "a_text")?.to_string(),
            b_name: str_field(&value, "b_name")?.to_string(),
            b_text: str_field(&value, "b_text")?.to_string(),
        }),
        "explore" => {
            let defaults = ExploreOptions::default();
            let int_of = |key: &str, fallback: u64| match value.get(key) {
                None => Ok(fallback),
                Some(v) => v.as_u64().ok_or_else(|| {
                    HelixError::protocol(format!("'{key}' must be a non-negative integer"))
                }),
            };
            Ok(Request::Explore {
                options: ExploreOptions {
                    seed: int_of("seed", defaults.seed)?,
                    budget: int_of("budget", defaults.budget as u64)? as usize,
                    cores: int_of("cores", defaults.cores as u64)? as usize,
                    fuel: int_of("fuel", defaults.fuel)?,
                    export_dir: None,
                },
            })
        }
        "status" => Ok(Request::Status),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(HelixError::protocol(format!(
            "unknown request type '{other}'"
        ))),
    }
}

fn encode_stats(stats: &CampaignRunStats) -> Json {
    Json::obj()
        .with("cells", stats.cells)
        .with("journal_hits", stats.journal_hits)
        .with("simulated", stats.simulated)
        .with("failed", stats.failed)
        .with("derived_hits", stats.derived_hits)
        .with("derived_computed", stats.derived_computed)
}

fn decode_stats(value: Option<&Json>) -> Result<CampaignRunStats, HelixError> {
    let obj = value.ok_or_else(|| HelixError::protocol("missing field 'stats'"))?;
    let count = |key: &str| u64_field(obj, key).map(|v| v as usize);
    Ok(CampaignRunStats {
        cells: count("cells")?,
        journal_hits: count("journal_hits")?,
        simulated: count("simulated")?,
        failed: count("failed")?,
        derived_hits: count("derived_hits")?,
        derived_computed: count("derived_computed")?,
    })
}

/// Serialize a response to its single-line wire form. Structured
/// reports do not cross the wire — the report JSON string carries the
/// data; [`decode_response`] yields `report: None`.
pub fn encode_response(response: &Response) -> String {
    let out = Json::obj().with("v", WIRE_VERSION);
    let out = match response {
        Response::Scenario { json, cached, .. } => out
            .with("type", "scenario")
            .with("json", json)
            .with("cached", *cached),
        Response::Campaign {
            json, table, stats, ..
        } => out
            .with("type", "campaign")
            .with("json", json)
            .with("table", table)
            .with("stats", encode_stats(stats)),
        Response::Checked {
            name,
            regions,
            phases,
            insts,
        } => out
            .with("type", "checked")
            .with("name", name)
            .with("regions", *regions)
            .with("phases", *phases)
            .with("insts", *insts),
        Response::Diff { identical, detail } => out
            .with("type", "diff")
            .with("identical", *identical)
            .with("detail", detail),
        Response::Explore { json, failures, .. } => out
            .with("type", "explore")
            .with("json", json)
            .with("failures", *failures),
        Response::Status(status) => out
            .with("type", "status")
            .with("workers", status.workers)
            .with("requests", status.requests)
            .with("inflight", status.inflight)
            .with("cells", status.cells)
            .with("journal_hits", status.journal_hits)
            .with("simulated", status.simulated),
        Response::ShuttingDown => out.with("type", "shutting_down"),
        Response::Error(e) => out
            .with("type", "error")
            .with("code", e.kind.code())
            .with("message", &e.message)
            .with_opt("file", e.file.as_ref())
            .with_opt("field", e.field.as_ref())
            .with_opt("value", e.value.as_ref()),
    };
    out.line()
}

/// Parse one wire line into a typed [`Response`]. Structured reports
/// are not reconstructed (`report: None`); the JSON string field
/// carries the full report.
pub fn decode_response(line: &str) -> Result<Response, HelixError> {
    let value = envelope(line)?;
    let kind = str_field(&value, "type")?;
    match kind {
        "scenario" => Ok(Response::Scenario {
            json: str_field(&value, "json")?.to_string(),
            cached: bool_field(&value, "cached")?,
            report: None,
        }),
        "campaign" => Ok(Response::Campaign {
            json: str_field(&value, "json")?.to_string(),
            table: str_field(&value, "table")?.to_string(),
            stats: decode_stats(value.get("stats"))?,
            report: None,
        }),
        "checked" => Ok(Response::Checked {
            name: str_field(&value, "name")?.to_string(),
            regions: u64_field(&value, "regions")? as usize,
            phases: u64_field(&value, "phases")? as usize,
            insts: u64_field(&value, "insts")? as usize,
        }),
        "diff" => Ok(Response::Diff {
            identical: bool_field(&value, "identical")?,
            detail: str_field(&value, "detail")?.to_string(),
        }),
        "explore" => Ok(Response::Explore {
            json: str_field(&value, "json")?.to_string(),
            failures: u64_field(&value, "failures")? as usize,
            report: None,
        }),
        "status" => Ok(Response::Status(ServiceStatus {
            workers: u64_field(&value, "workers")? as usize,
            requests: u64_field(&value, "requests")?,
            inflight: u64_field(&value, "inflight")?,
            cells: u64_field(&value, "cells")?,
            journal_hits: u64_field(&value, "journal_hits")?,
            simulated: u64_field(&value, "simulated")?,
        })),
        "shutting_down" => Ok(Response::ShuttingDown),
        "error" => {
            let code = str_field(&value, "code")?;
            let kind = ErrorKind::from_code(code)
                .ok_or_else(|| HelixError::protocol(format!("unknown error code '{code}'")))?;
            let context = |key: &str| value.get(key).and_then(Json::as_str).map(str::to_string);
            Ok(Response::Error(HelixError {
                kind,
                message: str_field(&value, "message")?.to_string(),
                file: context("file"),
                field: context("field"),
                value: context("value"),
            }))
        }
        other => Err(HelixError::protocol(format!(
            "unknown response type '{other}'"
        ))),
    }
}

/// Load a campaign file and resolve its scenario set into inline
/// payloads — the client-side step before a service submission, so the
/// server never needs the client's filesystem.
pub fn inline_campaign_source(path: &Path) -> Result<CampaignSource, HelixError> {
    let (spec, scenarios) = load_campaign(path)?;
    Ok(CampaignSource::Inline {
        campaign: spec.to_toml(),
        scenarios: scenarios.iter().map(|s| s.to_toml()).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_workloads::builtin_spec;

    /// The wire's requests are read through [`Json::parse`]: arrays,
    /// non-ASCII strings, literals and empty objects come back intact.
    #[test]
    fn json_parser_roundtrips_the_hard_cases() {
        let doc = r#"{"a": [1, -2.5, 1e3], "s": "tab\t\"q\" é 😀", "n": null, "b": [true, false], "o": {}}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "tab\t\"q\" é 😀");
        assert_eq!(v.get("n"), Some(&Json::Null));
        assert_eq!(
            v.get("b").unwrap().as_array().unwrap()[0].as_bool(),
            Some(true)
        );
        assert_eq!(Json::parse(&v.line()).unwrap(), v);
    }

    #[test]
    fn request_wire_roundtrip() {
        let request = Request::RunCampaign {
            source: CampaignSource::Inline {
                campaign: "name = \"c\"\nscenarios = [\"x\"]\n".into(),
                scenarios: vec!["name = \"s\"\n# tab\t here".into()],
            },
            options: RunOptions::new()
                .with_scale(Scale::Full)
                .with_max_retries(2)
                .with_cycle_budget(500_000),
        };
        let line = encode_request(&request).unwrap();
        assert!(!line.contains('\n'), "wire form must be one line: {line}");
        assert_eq!(decode_request(&line).unwrap(), request);

        let check = Request::Check {
            source: SpecSource::Inline("name = \"s\"".into()),
            scale: Scale::Test,
        };
        assert_eq!(
            decode_request(&encode_request(&check).unwrap()).unwrap(),
            check
        );
        for simple in [Request::Status, Request::Shutdown] {
            assert_eq!(
                decode_request(&encode_request(&simple).unwrap()).unwrap(),
                simple
            );
        }
        // Integers above 2^53 cross the wire exactly, not through f64.
        for seed in [9_007_199_254_740_993, 12_345_678_901_234_567_891] {
            let explore = Request::Explore {
                options: ExploreOptions {
                    seed,
                    ..ExploreOptions::default()
                },
            };
            assert_eq!(
                decode_request(&encode_request(&explore).unwrap()).unwrap(),
                explore
            );
        }
    }

    #[test]
    fn local_only_options_do_not_cross_the_wire() {
        let request = Request::RunScenario {
            source: SpecSource::Inline("name = \"s\"".into()),
            options: RunOptions::new().with_journal("/tmp/j"),
        };
        let e = encode_request(&request).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
        let path = Request::RunScenario {
            source: SpecSource::Path(PathBuf::from("x.toml")),
            options: RunOptions::new(),
        };
        assert_eq!(encode_request(&path).unwrap_err().kind, ErrorKind::Usage);
    }

    #[test]
    fn response_wire_roundtrip() {
        let stats = CampaignRunStats {
            cells: 20,
            journal_hits: 20,
            simulated: 0,
            failed: 0,
            derived_hits: 10,
            derived_computed: 0,
        };
        let response = Response::Campaign {
            json: "{\n  \"harness\": \"campaign\"\n}\n".into(),
            table: "campaign 'x'\n== t ==\n".into(),
            stats,
            report: None,
        };
        let line = encode_response(&response);
        assert!(!line.contains('\n'));
        assert_eq!(decode_response(&line).unwrap(), response);

        let error = Response::Error(
            HelixError::new(ErrorKind::Spec, "bad grid")
                .with_file("c.toml")
                .with_field("grid.cores")
                .with_value("-1"),
        );
        let decoded = decode_response(&encode_response(&error)).unwrap();
        assert_eq!(decoded, error);
        assert!(encode_response(&error).contains("\"code\": \"E_SPEC\""));

        let status = Response::Status(ServiceStatus {
            workers: 4,
            requests: 7,
            inflight: 1,
            cells: 40,
            journal_hits: 20,
            simulated: 20,
        });
        assert_eq!(decode_response(&encode_response(&status)).unwrap(), status);
    }

    #[test]
    fn protocol_errors_are_typed() {
        assert_eq!(
            decode_request("this is not json").unwrap_err().kind,
            ErrorKind::Protocol
        );
        assert_eq!(
            decode_request("{\"v\": 1, \"type\": \"frobnicate\"}")
                .unwrap_err()
                .kind,
            ErrorKind::Protocol
        );
        assert_eq!(
            decode_request("{\"v\": 99, \"type\": \"status\"}")
                .unwrap_err()
                .kind,
            ErrorKind::Protocol
        );
    }

    #[test]
    fn diff_names_schema_version_mismatch_before_bytes() {
        let a = "{\n  \"schema_version\": 1,\n  \"x\": 1\n}\n";
        let b = "{\n  \"schema_version\": 2,\n  \"x\": 1\n}\n";
        let (identical, detail) = diff_reports("old.json", a, "new.json", b);
        assert!(!identical);
        assert!(detail.contains("schema version mismatch"), "{detail}");
        assert!(detail.contains("old.json has schema_version 1"), "{detail}");
        assert!(
            !detail.contains("--- <"),
            "must not fall through to line diff: {detail}"
        );

        let (identical, detail) = diff_reports("a", a, "b", a);
        assert!(identical);
        assert!(detail.contains("identical"));

        let c = "{\n  \"schema_version\": 1,\n  \"x\": 2\n}\n";
        let (identical, detail) = diff_reports("a", a, "b", c);
        assert!(!identical);
        assert!(detail.contains("reports differ"), "{detail}");
    }

    #[test]
    fn execute_checks_a_builtin_spec_inline() {
        let spec = builtin_spec("175.vpr").unwrap();
        let response = execute(Request::Check {
            source: SpecSource::Inline(spec.to_toml()),
            scale: Scale::Test,
        });
        match response {
            Response::Checked { name, insts, .. } => {
                assert_eq!(name, "175.vpr");
                assert!(insts > 0);
            }
            other => panic!("expected Checked, got {other:?}"),
        }
    }

    #[test]
    fn explore_request_wire_roundtrip() {
        let request = Request::Explore {
            options: ExploreOptions {
                seed: 7,
                budget: 12,
                cores: 2,
                fuel: 1 << 20,
                export_dir: None,
            },
        };
        let line = encode_request(&request).unwrap();
        assert!(!line.contains('\n'));
        assert_eq!(decode_request(&line).unwrap(), request);
        // Missing fields fall back to the defaults.
        let decoded = decode_request("{\"v\": 1, \"type\": \"explore\", \"seed\": 3}").unwrap();
        assert_eq!(
            decoded,
            Request::Explore {
                options: ExploreOptions {
                    seed: 3,
                    ..ExploreOptions::default()
                },
            }
        );
        // Seeds past 2^53 are exact; a number not written as an integer
        // is refused, not rounded or saturated.
        for seed in [9_007_199_254_740_993u64, 12_345_678_901_234_567_891] {
            let line = format!("{{\"v\": 1, \"type\": \"explore\", \"seed\": {seed}}}");
            match decode_request(&line).unwrap() {
                Request::Explore { options } => assert_eq!(options.seed, seed),
                other => panic!("expected Explore, got {other:?}"),
            }
        }
        for line in [
            r#"{"v": 1, "type": "explore", "fuel": 1.5e3}"#,
            r#"{"v": 1, "type": "explore", "seed": 1e300}"#,
            r#"{"v": 1, "type": "run_scenario", "spec": "", "options": {"fuel": 1.5e3}}"#,
        ] {
            let err = decode_request(line).expect_err(line);
            assert_eq!(err.kind.code(), "E_PROTOCOL", "{line}: {err}");
        }
    }

    #[test]
    fn explore_export_dir_does_not_cross_the_wire() {
        let request = Request::Explore {
            options: ExploreOptions {
                export_dir: Some(PathBuf::from("/tmp/keepers")),
                ..ExploreOptions::default()
            },
        };
        assert_eq!(encode_request(&request).unwrap_err().kind, ErrorKind::Usage);
    }

    #[test]
    fn explore_response_wire_roundtrip_and_exit_codes() {
        let response = Response::Explore {
            json: "{\n  \"seed\": 0\n}\n".into(),
            failures: 0,
            report: None,
        };
        assert_eq!(
            decode_response(&encode_response(&response)).unwrap(),
            response
        );
        assert_eq!(response.exit_code(), 0);
        let failed = Response::Explore {
            json: String::new(),
            failures: 2,
            report: None,
        };
        assert_eq!(failed.exit_code(), 1);
    }

    #[test]
    fn execute_runs_a_tiny_explore() {
        let response = execute(Request::Explore {
            options: ExploreOptions {
                seed: 0,
                budget: 1,
                cores: 2,
                fuel: 1 << 22,
                export_dir: None,
            },
        });
        match response {
            Response::Explore { json, report, .. } => {
                let report = report.expect("local execution carries the report");
                assert_eq!(report.specs_run, 1);
                assert_eq!(json, report.to_json());
            }
            other => panic!("expected Explore, got {other:?}"),
        }
        // Zero budget, and a core count the helix-rc ring cannot take,
        // are usage errors, not panics.
        for options in [
            ExploreOptions {
                budget: 0,
                ..ExploreOptions::default()
            },
            ExploreOptions {
                cores: 3,
                ..ExploreOptions::default()
            },
        ] {
            let bad = execute(Request::Explore { options });
            assert_eq!(bad.exit_code(), 2);
        }
    }

    #[test]
    fn execute_reports_spec_errors_with_code() {
        let response = execute(Request::Check {
            source: SpecSource::Inline("name = 12\n".into()),
            scale: Scale::Test,
        });
        match response {
            Response::Error(e) => {
                assert_eq!(e.kind, ErrorKind::Spec);
                assert_eq!(e.kind.code(), "E_SPEC");
            }
            other => panic!("expected Error, got {other:?}"),
        }
        assert_eq!(
            execute(Request::Check {
                source: SpecSource::Path(PathBuf::from("/no/such/file.toml")),
                scale: Scale::Test,
            })
            .exit_code(),
            1
        );
    }

    /// A `cores` override outside `1..=MAX_CORES` is a typed usage
    /// error naming the field, raised before any machine is sized.
    #[test]
    fn out_of_range_cores_override_is_a_usage_error() {
        let toml = builtin_spec("900.chase").unwrap().to_toml();
        for cores in [0, 8192] {
            let request = Request::RunScenario {
                source: SpecSource::Inline(toml.clone()),
                options: RunOptions::new().with_cores(cores),
            };
            match std::panic::catch_unwind(|| execute(request)).expect("execute must not panic") {
                Response::Error(e) => {
                    assert_eq!(e.kind.code(), "E_USAGE", "{e}");
                    assert_eq!(e.field.as_deref(), Some("cores"), "{e}");
                    assert_eq!(e.value, Some(cores.to_string()), "{e}");
                }
                other => panic!("cores={cores} must fail, got {other:?}"),
            }
        }
    }

    /// On the wire, a count that must be positive never wraps through
    /// the integer cast: `cores`/`fuel` below 1 are protocol errors.
    #[test]
    fn wire_nonpositive_cores_and_fuel_are_protocol_errors() {
        for options in [
            r#"{"cores": -1}"#,
            r#"{"cores": 0}"#,
            r#"{"fuel": 0}"#,
            r#"{"fuel": -5}"#,
        ] {
            let line =
                format!(r#"{{"v": 1, "type": "run_scenario", "spec": "", "options": {options}}}"#);
            let err = decode_request(&line).expect_err(options);
            assert_eq!(err.kind.code(), "E_PROTOCOL", "{options}: {err}");
        }
    }

    /// A helix-rc run at a core count the ring cannot take is a typed
    /// spec error naming the field and value, not a panic; sequential
    /// and conventional runs at the same count still succeed.
    #[test]
    fn non_power_of_two_helix_cores_are_a_spec_error() {
        use helix_workloads::spec::MachineKind;
        let run = |spec: &helix_workloads::ScenarioSpec, cores: Option<usize>| {
            let mut options = RunOptions::new();
            options.cores = cores;
            let request = Request::RunScenario {
                source: SpecSource::Inline(spec.to_toml()),
                options,
            };
            std::panic::catch_unwind(|| execute(request)).expect("execute must not panic")
        };
        let mut spec = builtin_spec("175.vpr").unwrap();
        spec.run.cores = 12;
        let cases = [
            (spec.clone(), None, "run.cores", "12"),
            (spec.clone(), Some(6), "--cores", "6"),
        ];
        for (spec, cores, field, value) in cases {
            match run(&spec, cores) {
                Response::Error(e) => {
                    assert_eq!(e.kind.code(), "E_SPEC", "{e}");
                    assert_eq!(e.field.as_deref(), Some(field), "{e}");
                    assert_eq!(e.value.as_deref(), Some(value), "{e}");
                    assert!(e.message.contains("power-of-two"), "{e}");
                }
                other => panic!("expected Error, got {other:?}"),
            }
        }
        let mut swept = builtin_spec("175.vpr").unwrap();
        swept.run.sweep_cores = vec![4, 3];
        match run(&swept, None) {
            Response::Error(e) => {
                assert_eq!(e.kind.code(), "E_SPEC", "{e}");
                assert_eq!(e.field.as_deref(), Some("run.sweep_cores"), "{e}");
                assert_eq!(e.value.as_deref(), Some("3"), "{e}");
            }
            other => panic!("expected Error, got {other:?}"),
        }

        spec.run.machines = vec![MachineKind::Sequential, MachineKind::Conventional];
        match run(&spec, None) {
            Response::Scenario { report, .. } => {
                assert_eq!(report.expect("fresh run").cores, 12);
            }
            other => panic!("expected Scenario, got {other:?}"),
        }
    }
}
