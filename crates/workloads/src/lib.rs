//! # helix-workloads
//!
//! Synthetic stand-ins for the ten SPEC CPU2000 C benchmarks the paper
//! evaluates (§6.1): 6 integer (CINT2000) + 4 floating-point (CFP2000)
//! programs expressed in the `helix-ir` loop IR.
//!
//! SPEC sources and inputs cannot ship with this repository, so each
//! program is engineered to exercise the same code paths with the same
//! published *shape*: iteration-length distributions (Fig. 4a),
//! multi-hop/multi-consumer sharing (Fig. 4b/c), per-generation
//! parallel-loop coverage (Table 1), and the per-benchmark overhead mix
//! (Fig. 12). The published numbers are carried along as
//! [`PaperRow`] constants so every experiment can print
//! paper-vs-measured side by side.
//!
//! Workloads are *data*: a [`ScenarioSpec`] (TOML under `scenarios/`)
//! describes regions, a phase pipeline — or, for multi-nest scenarios,
//! an ordered list of [`NestSpec`]s with serial glue and carried state
//! — and [`generate`] lowers it deterministically to a program. The
//! committed files are embedded as the built-ins
//! ([`BUILTIN_SCENARIOS`]), so there is one definition of each. See
//! `docs/SCENARIOS.md` for the full field reference.
//!
//! # Examples
//!
//! ```
//! use helix_workloads::{builtin_spec, workload_from_spec, Scale};
//!
//! // Multi-nest scenarios record each nest's block boundary, which is
//! // how campaign reports attribute parallelized loops to nests.
//! let spec = builtin_spec("950.twonest").unwrap();
//! let w = workload_from_spec(&spec, Scale::Test)?;
//! assert_eq!(w.nests.len(), 2);
//! assert!(w.nests[0].end_block <= w.nests[1].first_block);
//! # Ok::<(), helix_workloads::SpecError>(())
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod common;
pub mod gen;
pub mod genspec;
pub mod spec;
pub mod toml;

pub use campaign::{
    campaign_from_inline, CampaignExperiment, CampaignGrid, CampaignSpec, NestOverride,
    ResiliencePolicy,
};
pub use common::Scale;
pub use gen::{generate, generate_nest, generate_prefix, generate_with_nests, NestBoundary};
pub use genspec::{generated_spec, SpecGen};
pub use spec::{NestSpec, ScenarioSpec, SpecError, MAX_CORES};

use helix_ir::Program;
use serde::{Deserialize, Serialize};

/// Benchmark family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Kind {
    /// SPEC CINT2000 (non-numerical).
    Int,
    /// SPEC CFP2000 (numerical).
    Fp,
}

impl Kind {
    /// The stable lowercase spelling used in scenario TOML, scenario
    /// reports, and campaign reports.
    pub fn render(self) -> &'static str {
        match self {
            Kind::Int => "int",
            Kind::Fp => "fp",
        }
    }
}

/// Published paper numbers for one benchmark, used for side-by-side
/// reporting (never fed back into the system under test).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PaperRow {
    /// HELIX-RC speedup on 16 in-order cores (Fig. 7 / Fig. 12).
    pub helix_speedup: f64,
    /// Parallel-loop coverage per compiler `[HCCv1, HCCv2, HELIX-RC]`
    /// (Table 1).
    pub coverage: [f64; 3],
    /// SimPoint phases (Table 1).
    pub phases: u32,
    /// Fig. 12 overhead fractions, in `helix_sim` order: additional
    /// instructions, wait/signal, memory, iteration imbalance, low trip
    /// count, communication, dependence waiting.
    pub overheads: [f64; 7],
}

impl PaperRow {
    /// Placeholder for scenarios the paper never measured (novel
    /// workloads opened by the declarative subsystem): all zeros, so
    /// reports render `-` instead of a bogus reference number.
    pub const UNPUBLISHED: PaperRow = PaperRow {
        helix_speedup: 0.0,
        coverage: [0.0, 0.0, 0.0],
        phases: 0,
        overheads: [0.0; 7],
    };
}

/// One benchmark: its program plus published reference numbers.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Scenario name (SPEC-style for the stand-ins, e.g. `"164.gzip"`).
    pub name: String,
    /// Family.
    pub kind: Kind,
    /// The program.
    pub program: Program,
    /// Published numbers ([`PaperRow::UNPUBLISHED`] for novel
    /// scenarios).
    pub paper: PaperRow,
    /// Block-id boundary of every loop nest for multi-nest scenarios
    /// (empty for single-pipeline programs). Consumers map parallelized
    /// loop plans onto nests through these ranges to derive per-nest
    /// coverage and speedup.
    pub nests: Vec<NestBoundary>,
}

/// Embeds `scenarios/<name>.toml` for each name, as `(name, text)`.
macro_rules! embed_scenarios {
    ($($name:literal),* $(,)?) => {
        [$(($name, include_str!(concat!("../../../scenarios/", $name, ".toml")))),*]
    };
}

/// The built-in scenarios: the committed `scenarios/*.toml` files,
/// embedded verbatim as `(name, toml)` pairs. The ten SPEC stand-ins
/// come first in the paper's reporting order, then the novel
/// scenarios, then the multi-nest families, then the 1000-series
/// server-traffic family. The files are the only definition; adding a
/// built-in means committing its TOML and adding its name here.
pub const BUILTIN_SCENARIOS: [(&str, &str); 23] = embed_scenarios![
    "164.gzip",
    "175.vpr",
    "197.parser",
    "300.twolf",
    "181.mcf",
    "256.bzip2",
    "183.equake",
    "179.art",
    "188.ammp",
    "177.mesa",
    "900.chase",
    "910.bursty",
    "920.blend",
    "930.zipf",
    "940.phase",
    "950.twonest",
    "960.cov_hi",
    "961.cov_mid",
    "962.cov_lo",
    "970.pipeline",
    "1000.openloop",
    "1010.closedloop",
    "1020.tailburst",
];

fn parse_builtin(name: &str, text: &str) -> ScenarioSpec {
    ScenarioSpec::from_toml(text).unwrap_or_else(|e| panic!("built-in scenario {name}: {e}"))
}

/// All built-in scenario specs, parsed, in [`BUILTIN_SCENARIOS`] order.
pub fn builtin_specs() -> Vec<ScenarioSpec> {
    BUILTIN_SCENARIOS
        .iter()
        .map(|(name, text)| parse_builtin(name, text))
        .collect()
}

/// Look up a built-in spec by scenario name.
pub fn builtin_spec(name: &str) -> Option<ScenarioSpec> {
    BUILTIN_SCENARIOS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(name, text)| parse_builtin(name, text))
}

/// The six CINT2000 stand-ins, in the paper's reporting order.
const CINT_NAMES: [&str; 6] = [
    "164.gzip",
    "175.vpr",
    "197.parser",
    "300.twolf",
    "181.mcf",
    "256.bzip2",
];

/// The four CFP2000 stand-ins, in the paper's reporting order.
const CFP_NAMES: [&str; 4] = ["183.equake", "179.art", "188.ammp", "177.mesa"];

/// Published per-benchmark numbers (Table 1, Fig. 7, Fig. 12), keyed by
/// SPEC name. Carried separately from the programs so spec-driven
/// workloads pick up their reference rows by name.
// The published overhead fractions are verbatim paper constants; one of
// them happens to sit near 1/π, which is a coincidence, not a math bug.
#[allow(clippy::approx_constant)]
const PAPER_ROWS: [(&str, PaperRow); 10] = [
    (
        "164.gzip",
        PaperRow {
            helix_speedup: 3.0,
            coverage: [0.423, 0.423, 0.982],
            phases: 12,
            overheads: [0.408, 0.081, 0.096, 0.045, 0.0, 0.181, 0.188],
        },
    ),
    (
        "175.vpr",
        PaperRow {
            helix_speedup: 6.1,
            coverage: [0.551, 0.551, 0.99],
            phases: 28,
            overheads: [0.119, 0.004, 0.742, 0.124, 0.0, 0.005, 0.005],
        },
    ),
    (
        "197.parser",
        PaperRow {
            helix_speedup: 7.3,
            coverage: [0.602, 0.602, 0.987],
            phases: 19,
            overheads: [0.313, 0.243, 0.153, 0.05, 0.003, 0.116, 0.122],
        },
    ),
    (
        "300.twolf",
        PaperRow {
            helix_speedup: 7.6,
            coverage: [0.624, 0.624, 0.99],
            phases: 18,
            overheads: [0.001, 0.002, 0.418, 0.014, 0.318, 0.0, 0.246],
        },
    ),
    (
        "181.mcf",
        PaperRow {
            helix_speedup: 8.7,
            coverage: [0.653, 0.653, 0.99],
            phases: 19,
            overheads: [0.377, 0.104, 0.055, 0.012, 0.032, 0.209, 0.212],
        },
    ),
    (
        "256.bzip2",
        PaperRow {
            helix_speedup: 12.0,
            coverage: [0.721, 0.723, 0.99],
            phases: 23,
            overheads: [0.034, 0.034, 0.516, 0.001, 0.011, 0.197, 0.207],
        },
    ),
    (
        "183.equake",
        PaperRow {
            helix_speedup: 10.1,
            coverage: [0.771, 0.99, 0.99],
            phases: 7,
            overheads: [0.002, 0.0, 0.091, 0.015, 0.877, 0.0, 0.015],
        },
    ),
    (
        "179.art",
        PaperRow {
            helix_speedup: 10.5,
            coverage: [0.841, 0.99, 0.99],
            phases: 11,
            overheads: [0.002, 0.0, 0.477, 0.248, 0.161, 0.0, 0.113],
        },
    ),
    (
        "188.ammp",
        PaperRow {
            helix_speedup: 12.5,
            coverage: [0.602, 0.99, 0.99],
            phases: 23,
            overheads: [0.641, 0.08, 0.063, 0.074, 0.089, 0.022, 0.031],
        },
    ),
    (
        "177.mesa",
        PaperRow {
            helix_speedup: 15.1,
            coverage: [0.643, 0.99, 0.99],
            phases: 8,
            overheads: [0.293, 0.009, 0.037, 0.584, 0.073, 0.0, 0.003],
        },
    ),
];

/// The published reference numbers for a benchmark, if the paper
/// measured it.
pub fn paper_row(name: &str) -> Option<PaperRow> {
    PAPER_ROWS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, row)| *row)
}

/// Build a [`Workload`] from a declarative scenario spec: generate the
/// program at `scale` and attach the published reference numbers when
/// the scenario is a SPEC stand-in ([`PaperRow::UNPUBLISHED`]
/// otherwise). This is how campaign runs and spec-driven figures turn
/// `scenarios/*.toml` into experiment inputs.
pub fn workload_from_spec(spec: &ScenarioSpec, scale: Scale) -> Result<Workload, SpecError> {
    let (program, nests) = generate_with_nests(spec, scale)?;
    Ok(Workload {
        name: spec.name.clone(),
        kind: spec.kind,
        program,
        paper: paper_row(&spec.name).unwrap_or(PaperRow::UNPUBLISHED),
        nests,
    })
}

fn spec_suite(names: &[&str], scale: Scale) -> Vec<Workload> {
    names
        .iter()
        .map(|name| {
            let spec = builtin_spec(name).unwrap_or_else(|| panic!("no built-in spec for {name}"));
            workload_from_spec(&spec, scale).unwrap_or_else(|e| panic!("{name}: {e}"))
        })
        .collect()
}

/// The six CINT2000 stand-ins.
pub fn cint_suite(scale: Scale) -> Vec<Workload> {
    spec_suite(&CINT_NAMES, scale)
}

/// The four CFP2000 stand-ins.
pub fn cfp_suite(scale: Scale) -> Vec<Workload> {
    spec_suite(&CFP_NAMES, scale)
}

/// All ten benchmarks, CINT first (the paper's reporting order).
pub fn suite(scale: Scale) -> Vec<Workload> {
    let mut v = cint_suite(scale);
    v.extend(cfp_suite(scale));
    v
}

/// Look up a benchmark by name.
pub fn by_name(name: &str, scale: Scale) -> Option<Workload> {
    suite(scale).into_iter().find(|w| w.name == name)
}

/// Geometric mean helper used throughout the evaluation.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v.max(1e-12).ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_ten_benchmarks() {
        let s = suite(Scale::Test);
        assert_eq!(s.len(), 10);
        assert_eq!(s.iter().filter(|w| w.kind == Kind::Int).count(), 6);
        assert_eq!(s.iter().filter(|w| w.kind == Kind::Fp).count(), 4);
        for w in &s {
            assert!(w.program.validate().is_ok(), "{}", w.name);
            let osum: f64 = w.paper.overheads.iter().sum();
            assert!((osum - 1.0).abs() < 0.02, "{} overheads {osum}", w.name);
        }
    }

    #[test]
    fn paper_int_geomean_matches_headline() {
        let g = geomean(
            cint_suite(Scale::Test)
                .iter()
                .map(|w| w.paper.helix_speedup),
        );
        assert!(
            (g - 6.85).abs() < 0.1,
            "published INT geomean ~6.85, got {g}"
        );
    }

    #[test]
    fn paper_fp_geomean_matches_headline() {
        let g = geomean(cfp_suite(Scale::Test).iter().map(|w| w.paper.helix_speedup));
        assert!((g - 11.9).abs() < 0.2, "published FP geomean ~12, got {g}");
    }

    #[test]
    fn by_name_lookup() {
        assert!(by_name("164.gzip", Scale::Test).is_some());
        assert!(by_name("999.nope", Scale::Test).is_none());
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean([4.0, 16.0]) - 8.0).abs() < 1e-9);
        assert_eq!(geomean(std::iter::empty::<f64>()), 0.0);
    }

    /// The co-design premise: every workload's hot loops are selected by
    /// HCCv3 with near-total coverage, while HCCv1 covers only the
    /// coarse phase.
    #[test]
    fn v3_selects_more_than_v1() {
        for w in suite(Scale::Test) {
            let v3 = helix_hcc::compile(&w.program, &helix_hcc::HccConfig::v3(16)).unwrap();
            assert!(
                !v3.plans.is_empty(),
                "{}: HELIX-RC must parallelize something",
                w.name
            );
            let v1 = helix_hcc::compile(&w.program, &helix_hcc::HccConfig::v1(16)).unwrap();
            assert!(
                v3.stats.coverage > v1.stats.coverage - 1e-9,
                "{}: v3 coverage {} < v1 {}",
                w.name,
                v3.stats.coverage,
                v1.stats.coverage
            );
        }
    }
}

/// Tests of the six SPEC CINT2000 stand-ins ([`cint_suite`]).
#[cfg(test)]
mod cint {
    mod tests {
        use crate::{by_name, cint_suite, Scale};
        use helix_ir::interp::{run_to_completion, Env};

        const NAMES: [&str; 6] = [
            "164.gzip",
            "175.vpr",
            "197.parser",
            "300.twolf",
            "181.mcf",
            "256.bzip2",
        ];

        #[test]
        fn all_cint_programs_validate_and_run() {
            for w in cint_suite(Scale::Test) {
                let p = w.program;
                assert!(p.validate().is_ok(), "{}", p.name);
                let mut env = Env::for_program(&p);
                let t = run_to_completion(&p, &mut env).expect(&p.name);
                assert!(
                    t.dyn_insts > 10_000,
                    "{} too small: {}",
                    p.name,
                    t.dyn_insts
                );
            }
        }

        #[test]
        fn programs_are_deterministic() {
            let p1 = by_name("164.gzip", Scale::Test).unwrap().program;
            let p2 = by_name("164.gzip", Scale::Test).unwrap().program;
            assert_eq!(p1, p2);
            let mut e1 = Env::for_program(&p1);
            let mut e2 = Env::for_program(&p2);
            run_to_completion(&p1, &mut e1).unwrap();
            run_to_completion(&p2, &mut e2).unwrap();
            assert_eq!(e1.mem.digest(), e2.mem.digest());
        }

        /// Each name must lower *its own* embedded spec, and the suite
        /// lists the stand-ins in paper order.
        #[test]
        fn shims_lower_their_namesake_specs() {
            for name in NAMES {
                assert_eq!(by_name(name, Scale::Test).unwrap().program.name, name);
            }
            let suite: Vec<String> = cint_suite(Scale::Test)
                .into_iter()
                .map(|w| w.program.name)
                .collect();
            assert_eq!(suite, NAMES);
        }
    }
}

/// Tests of the four SPEC CFP2000 stand-ins ([`cfp_suite`]).
#[cfg(test)]
mod cfp {
    mod tests {
        use crate::{by_name, cfp_suite, Scale};
        use helix_ir::interp::{run_to_completion, Env};
        use helix_ir::Ty;

        #[test]
        fn all_cfp_programs_validate_and_run() {
            for w in cfp_suite(Scale::Test) {
                let p = w.program;
                assert!(p.validate().is_ok(), "{}", p.name);
                let mut env = Env::for_program(&p);
                let t = run_to_completion(&p, &mut env).expect(&p.name);
                assert!(
                    t.dyn_insts > 10_000,
                    "{} too small: {}",
                    p.name,
                    t.dyn_insts
                );
            }
        }

        #[test]
        fn art_best_match_is_finite() {
            let p = by_name("179.art", Scale::Test).unwrap().program;
            let mut env = Env::for_program(&p);
            run_to_completion(&p, &mut env).unwrap();
            let out_idx = p.regions.iter().position(|r| r.name == "out").unwrap();
            let base = env.mem.base_of(helix_ir::RegionId(out_idx as u32));
            let v = env.mem.load(base, Ty::F64).unwrap().as_float();
            assert!(v.is_finite() && v > 0.0);
        }
    }
}
