//! Declarative cross-scenario sweep campaigns.
//!
//! A [`CampaignSpec`] is one TOML file that names a *set* of scenario
//! specs (glob patterns over `scenarios/`) plus a grid of machine/
//! compiler axes — core counts, ring settings, decoupling points, the
//! problem scale — and the experiments to run per grid cell. The
//! campaign runner in `helix-rc` lowers every cell onto the existing
//! experiment functions and aggregates the results into a single
//! report, so a paper-style cross-benchmark sweep (Figs. 7–12) is one
//! config file instead of one hand-written harness per figure.
//!
//! ```toml
//! name = "smoke"
//! description = "Fast CI subset"
//! scenarios = ["../scenarios/175.vpr.toml", "../scenarios/9*.toml"]
//! scale = "test"
//! seed = 0
//!
//! [grid]
//! cores = [8]
//! experiments = ["generations", "coupled_vs_ring"]
//! ```
//!
//! Scenario patterns resolve relative to the campaign file's directory,
//! so a committed campaign works from any working directory.

use crate::common::Scale;
use crate::spec::{SpecError, MAX_CORES};
use crate::toml::{self, Table, Value};
use std::path::{Path, PathBuf};

type Result<T> = std::result::Result<T, SpecError>;

/// One experiment family to run per (scenario × cores) grid cell. Each
/// variant lowers onto exactly one `helix_rc::experiment` function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignExperiment {
    /// Sequential baseline + HCCv1/v2 on conventional hardware + HCCv3
    /// on the ring (Figs. 1/7): the headline per-scenario speedups.
    Generations,
    /// HCCv3 code on conventional vs ring-cache hardware with the
    /// communication-fraction split (Fig. 9).
    CoupledVsRing,
    /// The overhead taxonomy of the HELIX-RC run (Fig. 12).
    Overheads,
    /// The five decoupling points of Fig. 8 (nothing / registers /
    /// +synchronization / +memory / everything).
    Lattice,
    /// HELIX-RC speedup at every core count in the grid (Fig. 11a).
    CoreSweep,
    /// Ring sweep over adjacent-node link latencies (Fig. 11b).
    RingLatency,
    /// Ring sweep over signal bandwidths (Fig. 11c).
    RingBandwidth,
    /// Ring sweep over node memory sizes (Fig. 11d).
    RingMemory,
}

impl CampaignExperiment {
    /// Every experiment, in report order.
    pub const ALL: [CampaignExperiment; 8] = [
        CampaignExperiment::Generations,
        CampaignExperiment::CoupledVsRing,
        CampaignExperiment::Overheads,
        CampaignExperiment::Lattice,
        CampaignExperiment::CoreSweep,
        CampaignExperiment::RingLatency,
        CampaignExperiment::RingBandwidth,
        CampaignExperiment::RingMemory,
    ];

    /// Stable spelling used in campaign files and reports.
    pub fn render(self) -> &'static str {
        match self {
            CampaignExperiment::Generations => "generations",
            CampaignExperiment::CoupledVsRing => "coupled_vs_ring",
            CampaignExperiment::Overheads => "overheads",
            CampaignExperiment::Lattice => "lattice",
            CampaignExperiment::CoreSweep => "core_sweep",
            CampaignExperiment::RingLatency => "ring_latency",
            CampaignExperiment::RingBandwidth => "ring_bandwidth",
            CampaignExperiment::RingMemory => "ring_memory",
        }
    }

    fn parse(s: &str) -> Result<CampaignExperiment> {
        CampaignExperiment::ALL
            .into_iter()
            .find(|e| e.render() == s)
            .ok_or_else(|| {
                SpecError::new(format!(
                    "unknown experiment '{s}' (expected one of: {})",
                    CampaignExperiment::ALL.map(|e| e.render()).join(", ")
                ))
            })
    }
}

/// Per-nest campaign override (the optional `[grid.nest_override]`
/// table): sweep one named nest's serial-glue length from the campaign
/// file. Every matching scenario is expanded into one variant per glue
/// value, so a single campaign run measures how the nest's sequential
/// fraction moves the derived speedup-vs-coverage rows — without
/// editing the scenario specs themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NestOverride {
    /// Nest name the override applies to. At least one scenario in the
    /// campaign must declare a nest with this name.
    pub nest: String,
    /// Glue values to sweep (each pins the nest's glue count to a
    /// constant; `0..=2^20`, at least one value, no duplicates).
    pub glue: Vec<i64>,
}

/// The machine/compiler grid of a campaign: which core counts to run,
/// and which experiments to lower per (scenario × cores) cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignGrid {
    /// Core counts: one cell per count for every per-cell experiment.
    pub cores: Vec<i64>,
    /// Core counts for [`CampaignExperiment::CoreSweep`], which
    /// consumes the whole list as a single sweep cell per scenario.
    /// Empty means "use `cores`".
    pub sweep_cores: Vec<i64>,
    /// Experiments per cell, in file order.
    pub experiments: Vec<CampaignExperiment>,
    /// Optional per-nest glue sweep (see [`NestOverride`]).
    pub nest_override: Option<NestOverride>,
}

impl Default for CampaignGrid {
    fn default() -> Self {
        CampaignGrid {
            cores: vec![16],
            sweep_cores: Vec::new(),
            experiments: vec![CampaignExperiment::Generations],
            nest_override: None,
        }
    }
}

/// Per-cell execution limits and retry policy for the resilient
/// campaign runtime (the optional `[resilience]` table).
///
/// The cycle budget is enforced through the simulator's fuel mechanism,
/// so budget-exceeded terminations are deterministic: the same cell
/// fails at the same simulated cycle on every run, and reports stay
/// byte-identical. The wall-clock budget is a cooperative watchdog — a
/// cell that overruns is flagged (and its result discarded) after it
/// returns rather than preempted — and is therefore timing-dependent;
/// leave it at 0 (disabled, the default) for runs whose reports are
/// compared byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResiliencePolicy {
    /// Retries granted per cell after a transient failure (panic or
    /// wall-budget overrun); deterministic errors are never retried.
    pub max_retries: i64,
    /// Per-cell simulated-cycle budget; 0 means the experiment default.
    pub cycle_budget: i64,
    /// Per-cell wall-clock budget in milliseconds; 0 disables the
    /// watchdog.
    pub wall_budget_ms: i64,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            max_retries: 1,
            cycle_budget: 0,
            wall_budget_ms: 0,
        }
    }
}

/// A complete declarative campaign: scenario set + grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Campaign name (report title).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// Glob patterns over scenario spec files, relative to the campaign
    /// file's directory. Only the final path component may contain `*`.
    pub scenarios: Vec<String>,
    /// Problem scale for every run.
    pub scale: Scale,
    /// Seed offset added to every scenario's own seed, so one knob
    /// re-rolls all distribution-baked work tables of the whole sweep.
    pub seed: i64,
    /// The machine/compiler grid.
    pub grid: CampaignGrid,
    /// Per-cell budgets and retry policy.
    pub resilience: ResiliencePolicy,
}

fn scale_render(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Full => "full",
    }
}

fn scale_parse(s: &str) -> Result<Scale> {
    match s {
        "test" => Ok(Scale::Test),
        "full" => Ok(Scale::Full),
        other => Err(SpecError::new(format!(
            "unknown scale '{other}' (expected \"test\" or \"full\")"
        ))),
    }
}

/// Render a TOML value for an error message: literals verbatim,
/// aggregates by shape, so "expected X, got Y" names the offender.
fn describe(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("\"{s}\""),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f}"),
        Value::Bool(b) => b.to_string(),
        Value::Array(a) => format!("an array of {} value(s)", a.len()),
        Value::Table(_) => "a table".to_string(),
    }
}

/// Match one path component against a `*`-glob (no separators; `*`
/// matches any possibly-empty substring).
pub fn glob_match(name: &str, pattern: &str) -> bool {
    fn rec(name: &[u8], pat: &[u8]) -> bool {
        match pat.iter().position(|&c| c == b'*') {
            None => name == pat,
            Some(ix) => {
                let (pre, rest) = (&pat[..ix], &pat[ix + 1..]);
                if name.len() < pre.len() || &name[..pre.len()] != pre {
                    return false;
                }
                let name = &name[pre.len()..];
                (0..=name.len()).any(|k| rec(&name[k..], rest))
            }
        }
    }
    rec(name.as_bytes(), pattern.as_bytes())
}

impl CampaignSpec {
    /// Check internal consistency (names present, grid sane).
    pub fn validate(&self) -> Result<()> {
        if self.name.is_empty() {
            return Err(SpecError::new("campaign name must not be empty"));
        }
        if self.scenarios.is_empty() {
            return Err(SpecError::new(format!(
                "{}: campaign names no scenario patterns",
                self.name
            )));
        }
        if self.grid.cores.is_empty() || self.grid.experiments.is_empty() {
            return Err(SpecError::new(format!(
                "{}: grid needs at least one core count and one experiment",
                self.name
            )));
        }
        for &cores in self.grid.cores.iter().chain(&self.grid.sweep_cores) {
            if !(1..=MAX_CORES as i64).contains(&cores) {
                return Err(SpecError::new(format!(
                    "{}: grid cores must be in 1..={MAX_CORES}, got {cores}",
                    self.name
                )));
            }
        }
        for (axis, values) in [
            ("cores", &self.grid.cores),
            ("sweep_cores", &self.grid.sweep_cores),
        ] {
            for (i, &cores) in values.iter().enumerate() {
                if values[..i].contains(&cores) {
                    return Err(SpecError::new(format!(
                        "{}: duplicate core count {cores} in grid.{axis}",
                        self.name
                    )));
                }
            }
        }
        for (i, e) in self.grid.experiments.iter().enumerate() {
            if self.grid.experiments[..i].contains(e) {
                return Err(SpecError::new(format!(
                    "{}: duplicate experiment '{}'",
                    self.name,
                    e.render()
                )));
            }
        }
        if let Some(ov) = &self.grid.nest_override {
            if ov.nest.is_empty() {
                return Err(SpecError::new(format!(
                    "{}: grid.nest_override.nest must not be empty",
                    self.name
                )));
            }
            if ov.glue.is_empty() {
                return Err(SpecError::new(format!(
                    "{}: grid.nest_override.glue needs at least one value",
                    self.name
                )));
            }
            for (i, &g) in ov.glue.iter().enumerate() {
                if !(0..=(1i64 << 20)).contains(&g) {
                    return Err(SpecError::new(format!(
                        "{}: grid.nest_override.glue must be in 0..=2^20, got {g}",
                        self.name
                    )));
                }
                if ov.glue[..i].contains(&g) {
                    return Err(SpecError::new(format!(
                        "{}: duplicate glue value {g} in grid.nest_override",
                        self.name
                    )));
                }
            }
        }
        let r = &self.resilience;
        if !(0..=8).contains(&r.max_retries) {
            return Err(SpecError::new(format!(
                "{}: resilience.max_retries must be in 0..=8, got {}",
                self.name, r.max_retries
            )));
        }
        if !(0..=(1i64 << 40)).contains(&r.cycle_budget) {
            return Err(SpecError::new(format!(
                "{}: resilience.cycle_budget must be in 0..=2^40 cycles, got {}",
                self.name, r.cycle_budget
            )));
        }
        if !(0..=86_400_000).contains(&r.wall_budget_ms) {
            return Err(SpecError::new(format!(
                "{}: resilience.wall_budget_ms must be in 0..=86400000 (one day), got {}",
                self.name, r.wall_budget_ms
            )));
        }
        Ok(())
    }

    /// Expand the scenario patterns against the filesystem, relative to
    /// `base_dir` (the campaign file's directory). The result is sorted
    /// and deduplicated, so campaign cell order never depends on
    /// directory-iteration order. Every pattern must match at least one
    /// file — a sweep silently missing its workloads is a config bug.
    pub fn resolve_scenarios(&self, base_dir: &Path) -> Result<Vec<PathBuf>> {
        let mut files: Vec<PathBuf> = Vec::new();
        for pattern in &self.scenarios {
            let mut dir = base_dir.to_path_buf();
            let components: Vec<&str> = pattern.split('/').filter(|c| !c.is_empty()).collect();
            let Some((last, parents)) = components.split_last() else {
                return Err(SpecError::new(format!(
                    "{}: empty scenario pattern",
                    self.name
                )));
            };
            for parent in parents {
                if parent.contains('*') {
                    return Err(SpecError::new(format!(
                        "{}: pattern '{pattern}': '*' is only supported in the file name",
                        self.name
                    )));
                }
                dir.push(parent);
            }
            if last.contains('*') {
                let entries = std::fs::read_dir(&dir).map_err(|e| {
                    SpecError::new(format!(
                        "{}: pattern '{pattern}': cannot read '{}': {e}",
                        self.name,
                        dir.display()
                    ))
                })?;
                let mut matched = false;
                for entry in entries.filter_map(|e| e.ok()) {
                    let name = entry.file_name();
                    let Some(name) = name.to_str() else { continue };
                    if glob_match(name, last) && entry.path().is_file() {
                        files.push(entry.path());
                        matched = true;
                    }
                }
                if !matched {
                    return Err(SpecError::new(format!(
                        "{}: pattern '{pattern}' matched no files under '{}'",
                        self.name,
                        dir.display()
                    )));
                }
            } else {
                let path = dir.join(last);
                if !path.is_file() {
                    return Err(SpecError::new(format!(
                        "{}: scenario spec '{}' does not exist",
                        self.name,
                        path.display()
                    )));
                }
                files.push(path);
            }
        }
        files.sort();
        files.dedup();
        Ok(files)
    }

    /// Serialize to the TOML subset of [`crate::toml`].
    pub fn to_toml(&self) -> String {
        let mut root = Table::new();
        root.set("name", Value::Str(self.name.clone()));
        root.set("description", Value::Str(self.description.clone()));
        root.set(
            "scenarios",
            Value::Array(self.scenarios.iter().cloned().map(Value::Str).collect()),
        );
        root.set("scale", Value::Str(scale_render(self.scale).into()));
        root.set("seed", Value::Int(self.seed));
        let mut grid = Table::new();
        grid.set(
            "cores",
            Value::Array(self.grid.cores.iter().map(|&c| Value::Int(c)).collect()),
        );
        if !self.grid.sweep_cores.is_empty() {
            grid.set(
                "sweep_cores",
                Value::Array(
                    self.grid
                        .sweep_cores
                        .iter()
                        .map(|&c| Value::Int(c))
                        .collect(),
                ),
            );
        }
        grid.set(
            "experiments",
            Value::Array(
                self.grid
                    .experiments
                    .iter()
                    .map(|e| Value::Str(e.render().into()))
                    .collect(),
            ),
        );
        if let Some(ov) = &self.grid.nest_override {
            let mut t = Table::new();
            t.set("nest", Value::Str(ov.nest.clone()));
            t.set(
                "glue",
                Value::Array(ov.glue.iter().map(|&g| Value::Int(g)).collect()),
            );
            grid.set("nest_override", Value::Table(t));
        }
        root.set("grid", Value::Table(grid));
        if self.resilience != ResiliencePolicy::default() {
            let mut res = Table::new();
            res.set("max_retries", Value::Int(self.resilience.max_retries));
            res.set("cycle_budget", Value::Int(self.resilience.cycle_budget));
            res.set("wall_budget_ms", Value::Int(self.resilience.wall_budget_ms));
            root.set("resilience", Value::Table(res));
        }
        toml::write(&root)
    }

    /// Parse a campaign from TOML text. The result is validated.
    pub fn from_toml(text: &str) -> Result<CampaignSpec> {
        let root = toml::parse(text).map_err(|e| SpecError::new(e.to_string()))?;
        let what = "campaign";
        let req_str = |key: &str| -> Result<String> {
            match root.get(key) {
                None => Err(SpecError::new(format!(
                    "{what}: missing string key '{key}'"
                ))),
                Some(v) => v.as_str().map(str::to_string).ok_or_else(|| {
                    SpecError::new(format!(
                        "{what}: '{key}' must be a string, got {}",
                        describe(v)
                    ))
                }),
            }
        };
        // Fields like `seed` are optional, but a present value of the
        // wrong type is a config bug, not something to silently default.
        // `key` is the lookup name inside `owner`; `label` is the
        // fully-qualified name used in error messages (e.g. "grid.cores").
        let opt_int = |owner: &Table, key: &str, label: &str| -> Result<Option<i64>> {
            match owner.get(key) {
                None => Ok(None),
                Some(v) => v.as_int().map(Some).ok_or_else(|| {
                    SpecError::new(format!(
                        "{what}: '{label}' must be an integer, got {}",
                        describe(v)
                    ))
                }),
            }
        };
        let int_array = |owner: &Table, key: &str, label: &str| -> Result<Option<Vec<i64>>> {
            match owner.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_array()
                    .ok_or_else(|| {
                        SpecError::new(format!(
                            "{what}: '{label}' must be an array of integers, got {}",
                            describe(v)
                        ))
                    })?
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        c.as_int().ok_or_else(|| {
                            SpecError::new(format!(
                                "{what}: '{label}[{i}]' must be an integer, got {}",
                                describe(c)
                            ))
                        })
                    })
                    .collect::<Result<Vec<_>>>()
                    .map(Some),
            }
        };
        let scenarios = match root.get("scenarios") {
            None => {
                return Err(SpecError::new(format!(
                    "{what}: missing key 'scenarios' (array of scenario patterns)"
                )))
            }
            Some(v) => v
                .as_array()
                .ok_or_else(|| {
                    SpecError::new(format!(
                        "{what}: 'scenarios' must be an array of strings, got {}",
                        describe(v)
                    ))
                })?
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    p.as_str().map(str::to_string).ok_or_else(|| {
                        SpecError::new(format!(
                            "{what}: 'scenarios[{i}]' must be a string pattern, got {}",
                            describe(p)
                        ))
                    })
                })
                .collect::<Result<Vec<_>>>()?,
        };
        let grid = match root.get("grid") {
            None => CampaignGrid::default(),
            Some(v) => {
                let t = v.as_table().ok_or_else(|| {
                    SpecError::new(format!(
                        "{what}: 'grid' must be a table, got {}",
                        describe(v)
                    ))
                })?;
                let defaults = CampaignGrid::default();
                CampaignGrid {
                    cores: int_array(t, "cores", "grid.cores")?.unwrap_or(defaults.cores),
                    sweep_cores: int_array(t, "sweep_cores", "grid.sweep_cores")?
                        .unwrap_or(defaults.sweep_cores),
                    experiments: match t.get("experiments") {
                        None => defaults.experiments,
                        Some(v) => v
                            .as_array()
                            .ok_or_else(|| {
                                SpecError::new(format!(
                                    "{what}: 'grid.experiments' must be an array of strings, got {}",
                                    describe(v)
                                ))
                            })?
                            .iter()
                            .enumerate()
                            .map(|(i, e)| {
                                e.as_str()
                                    .ok_or_else(|| {
                                        SpecError::new(format!(
                                            "{what}: 'grid.experiments[{i}]' must be a string, got {}",
                                            describe(e)
                                        ))
                                    })
                                    .and_then(CampaignExperiment::parse)
                            })
                            .collect::<Result<Vec<_>>>()?,
                    },
                    nest_override: match t.get("nest_override") {
                        None => None,
                        Some(v) => {
                            let ov = v.as_table().ok_or_else(|| {
                                SpecError::new(format!(
                                    "{what}: 'grid.nest_override' must be a table, got {}",
                                    describe(v)
                                ))
                            })?;
                            let nest = match ov.get("nest") {
                                None => {
                                    return Err(SpecError::new(format!(
                                        "{what}: 'grid.nest_override' is missing string key 'nest'"
                                    )))
                                }
                                Some(v) => v.as_str().map(str::to_string).ok_or_else(|| {
                                    SpecError::new(format!(
                                        "{what}: 'grid.nest_override.nest' must be a string, got {}",
                                        describe(v)
                                    ))
                                })?,
                            };
                            let glue = int_array(ov, "glue", "grid.nest_override.glue")?
                                .ok_or_else(|| {
                                    SpecError::new(format!(
                                        "{what}: 'grid.nest_override' is missing integer array 'glue'"
                                    ))
                                })?;
                            Some(NestOverride { nest, glue })
                        }
                    },
                }
            }
        };
        let resilience = match root.get("resilience") {
            None => ResiliencePolicy::default(),
            Some(v) => {
                let t = v.as_table().ok_or_else(|| {
                    SpecError::new(format!(
                        "{what}: 'resilience' must be a table, got {}",
                        describe(v)
                    ))
                })?;
                let defaults = ResiliencePolicy::default();
                ResiliencePolicy {
                    max_retries: opt_int(t, "max_retries", "resilience.max_retries")?
                        .unwrap_or(defaults.max_retries),
                    cycle_budget: opt_int(t, "cycle_budget", "resilience.cycle_budget")?
                        .unwrap_or(defaults.cycle_budget),
                    wall_budget_ms: opt_int(t, "wall_budget_ms", "resilience.wall_budget_ms")?
                        .unwrap_or(defaults.wall_budget_ms),
                }
            }
        };
        let spec = CampaignSpec {
            name: req_str("name")?,
            description: root
                .get("description")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            scenarios,
            scale: match root.get("scale") {
                None => Scale::Test,
                Some(v) => scale_parse(v.as_str().ok_or_else(|| {
                    SpecError::new(format!(
                        "{what}: 'scale' must be a string, got {}",
                        describe(v)
                    ))
                })?)?,
            },
            seed: opt_int(&root, "seed", "seed")?.unwrap_or(0),
            grid,
            resilience,
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// Build a campaign and its scenario set from *inline TOML payloads*
/// instead of filesystem patterns — the shape a service submission
/// carries, where the client ships the spec contents over the wire and
/// the server never touches the client's filesystem.
///
/// The campaign's `scenarios` patterns are ignored (the payloads *are*
/// the scenario set); everything else — grid, scale, seed, resilience —
/// parses and validates exactly as [`CampaignSpec::from_toml`] does.
/// Scenarios are sorted by name and duplicates rejected, mirroring the
/// file-loading path, so an inline submission and a file-based run of
/// the same specs enumerate identical cells.
pub fn campaign_from_inline(
    campaign_toml: &str,
    scenario_tomls: &[String],
) -> Result<(CampaignSpec, Vec<crate::ScenarioSpec>)> {
    let spec = CampaignSpec::from_toml(campaign_toml)?;
    if scenario_tomls.is_empty() {
        return Err(SpecError::new(format!(
            "campaign '{}': inline submission carries no scenario payloads",
            spec.name
        )));
    }
    let mut scenarios = Vec::new();
    for (i, text) in scenario_tomls.iter().enumerate() {
        let scenario = crate::ScenarioSpec::from_toml(text)
            .map_err(|e| SpecError::new(format!("inline scenario [{i}]: {e}")))?;
        scenarios.push(scenario);
    }
    scenarios.sort_by(|a, b| a.name.cmp(&b.name));
    for pair in scenarios.windows(2) {
        if pair[0].name == pair[1].name {
            return Err(SpecError::new(format!(
                "campaign '{}': scenario '{}' is submitted more than once",
                spec.name, pair[0].name
            )));
        }
    }
    Ok((spec, scenarios))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> CampaignSpec {
        CampaignSpec {
            name: "demo".into(),
            description: "round-trip fixture".into(),
            scenarios: vec![
                "../scenarios/*.toml".into(),
                "../scenarios/175.vpr.toml".into(),
            ],
            scale: Scale::Test,
            seed: 3,
            grid: CampaignGrid {
                cores: vec![4, 8],
                sweep_cores: vec![2, 4, 8, 16],
                experiments: vec![
                    CampaignExperiment::Generations,
                    CampaignExperiment::CoupledVsRing,
                    CampaignExperiment::CoreSweep,
                ],
                nest_override: Some(NestOverride {
                    nest: "inner".into(),
                    glue: vec![0, 64, 256],
                }),
            },
            resilience: ResiliencePolicy {
                max_retries: 2,
                cycle_budget: 1 << 20,
                wall_budget_ms: 0,
            },
        }
    }

    #[test]
    fn campaign_round_trips_through_toml() {
        let spec = demo();
        let text = spec.to_toml();
        let parsed = CampaignSpec::from_toml(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(parsed, spec);
    }

    #[test]
    fn parse_rejects_bad_campaigns() {
        assert!(CampaignSpec::from_toml("description = \"no name\"\n").is_err());
        let no_scenarios = "name = \"x\"\nscenarios = []\n";
        assert!(CampaignSpec::from_toml(no_scenarios).is_err());
        let bad_exp = "name = \"x\"\nscenarios = [\"a.toml\"]\n[grid]\nexperiments = [\"warp\"]\n";
        let err = CampaignSpec::from_toml(bad_exp).unwrap_err();
        assert!(err.message.contains("warp"), "{err}");
        let bad_scale = "name = \"x\"\nscenarios = [\"a.toml\"]\nscale = \"huge\"\n";
        assert!(CampaignSpec::from_toml(bad_scale).is_err());
        let dup = "name = \"x\"\nscenarios = [\"a.toml\"]\n[grid]\nexperiments = [\"lattice\", \"lattice\"]\n";
        assert!(CampaignSpec::from_toml(dup).is_err());
        for (axis, needle) in [("cores", "grid.cores"), ("sweep_cores", "grid.sweep_cores")] {
            let dup =
                format!("name = \"x\"\nscenarios = [\"a.toml\"]\n[grid]\n{axis} = [4, 8, 8]\n");
            let err = CampaignSpec::from_toml(&dup).unwrap_err();
            assert!(err.message.contains("duplicate core count 8"), "{err}");
            assert!(err.message.contains(needle), "{err}");
        }
    }

    #[test]
    fn defaults_fill_in() {
        let spec = CampaignSpec::from_toml("name = \"x\"\nscenarios = [\"a.toml\"]\n").unwrap();
        assert_eq!(spec.scale, Scale::Test);
        assert_eq!(spec.seed, 0);
        assert_eq!(spec.grid, CampaignGrid::default());
        assert_eq!(spec.resilience, ResiliencePolicy::default());
        // A default policy leaves no [resilience] table behind.
        assert!(!spec.to_toml().contains("resilience"));
    }

    /// Type errors name the field and the offending value, not just
    /// the expected shape.
    #[test]
    fn parse_errors_name_field_and_value() {
        let cases: &[(&str, &[&str])] = &[
            (
                "name = 7\nscenarios = [\"a.toml\"]\n",
                &["'name'", "string", "7"],
            ),
            (
                "name = \"x\"\nscenarios = \"a.toml\"\n",
                &["'scenarios'", "\"a.toml\""],
            ),
            (
                "name = \"x\"\nscenarios = [\"a.toml\", 9]\n",
                &["'scenarios[1]'", "9"],
            ),
            (
                "name = \"x\"\nscenarios = [\"a.toml\"]\nseed = \"five\"\n",
                &["'seed'", "integer", "\"five\""],
            ),
            (
                "name = \"x\"\nscenarios = [\"a.toml\"]\nscale = 2\n",
                &["'scale'", "string", "2"],
            ),
            (
                "name = \"x\"\nscenarios = [\"a.toml\"]\n[grid]\ncores = [8, \"many\"]\n",
                &["'grid.cores[1]'", "\"many\""],
            ),
            (
                "name = \"x\"\nscenarios = [\"a.toml\"]\n[grid]\ncores = true\n",
                &["'grid.cores'", "array of integers", "true"],
            ),
            (
                "name = \"x\"\nscenarios = [\"a.toml\"]\n[grid]\nexperiments = [3]\n",
                &["'grid.experiments[0]'", "3"],
            ),
            (
                "name = \"x\"\nscenarios = [\"a.toml\"]\n[resilience]\nmax_retries = \"lots\"\n",
                &["'resilience.max_retries'", "\"lots\""],
            ),
            (
                "name = \"x\"\nscenarios = [\"a.toml\"]\nresilience = 4\n",
                &["'resilience'", "table", "4"],
            ),
        ];
        for (text, needles) in cases {
            let err = CampaignSpec::from_toml(text).unwrap_err();
            for needle in *needles {
                assert!(
                    err.message.contains(needle),
                    "error for {text:?} should mention {needle:?}: {err}"
                );
            }
        }
    }

    /// Out-of-range resilience settings are rejected with the value.
    #[test]
    fn validate_rejects_bad_resilience() {
        let base = "name = \"x\"\nscenarios = [\"a.toml\"]\n[resilience]\n";
        let err = CampaignSpec::from_toml(&format!("{base}max_retries = 99\n")).unwrap_err();
        assert!(err.message.contains("99"), "{err}");
        let err = CampaignSpec::from_toml(&format!("{base}cycle_budget = -1\n")).unwrap_err();
        assert!(err.message.contains("-1"), "{err}");
        let err =
            CampaignSpec::from_toml(&format!("{base}wall_budget_ms = 99999999999\n")).unwrap_err();
        assert!(err.message.contains("99999999999"), "{err}");
    }

    #[test]
    fn resilience_round_trips_through_toml() {
        let text = "name = \"x\"\nscenarios = [\"a.toml\"]\n[resilience]\nmax_retries = 0\ncycle_budget = 4096\nwall_budget_ms = 1500\n";
        let spec = CampaignSpec::from_toml(text).unwrap();
        assert_eq!(
            spec.resilience,
            ResiliencePolicy {
                max_retries: 0,
                cycle_budget: 4096,
                wall_budget_ms: 1500
            }
        );
        let reparsed = CampaignSpec::from_toml(&spec.to_toml()).unwrap();
        assert_eq!(reparsed, spec);
    }

    #[test]
    fn glob_matching() {
        assert!(glob_match("175.vpr.toml", "*.toml"));
        assert!(glob_match("175.vpr.toml", "175*"));
        assert!(glob_match("930.zipf.toml", "9*.toml"));
        assert!(glob_match("abc", "abc"));
        assert!(glob_match("abc", "a*b*c"));
        assert!(!glob_match("175.vpr.toml", "*.json"));
        assert!(!glob_match("abc", "abcd"));
        assert!(!glob_match("readme.md", "9*.toml"));
    }

    #[test]
    fn resolve_reports_missing_files_clearly() {
        let mut spec = demo();
        spec.scenarios = vec!["no/such/dir/*.toml".into()];
        let err = spec
            .resolve_scenarios(Path::new("/nonexistent-base"))
            .unwrap_err();
        assert!(err.message.contains("no/such/dir"), "{err}");
        spec.scenarios = vec!["missing.toml".into()];
        let err = spec.resolve_scenarios(Path::new("/tmp")).unwrap_err();
        assert!(err.message.contains("missing.toml"), "{err}");
    }

    #[test]
    fn resolve_rejects_glob_in_directory_component() {
        let mut spec = demo();
        spec.scenarios = vec!["sc*/a.toml".into()];
        let err = spec.resolve_scenarios(Path::new("/tmp")).unwrap_err();
        assert!(err.message.contains("file name"), "{err}");
    }
}
