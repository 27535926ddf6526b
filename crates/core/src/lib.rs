//! # helix-rc
//!
//! The HELIX-RC reproduction facade: everything needed to go from a
//! sequential [`helix_ir::Program`] to paper-style results.
//!
//! * [`experiment`] — runners for every measurement in the paper's
//!   evaluation: compiler generations (Figs. 1/7), the decoupling
//!   lattice (Fig. 8), coupled-vs-ring execution (Fig. 9), core-type and
//!   ring-parameter sweeps (Figs. 10/11), the overhead taxonomy
//!   (Fig. 12), iteration-length and sharing profiles (Fig. 4);
//! * [`analysis_figs`] — the compiler-side experiments: analysis
//!   accuracy (Fig. 2), predictable-variable communication reduction
//!   (Fig. 3), abstract TLP under splitting (§6.2);
//! * [`related`] — the Table 2 design-space matrix;
//! * [`report`] — plain-text figure rendering;
//! * [`scenario`] — end-to-end execution of declarative
//!   [`ScenarioSpec`](helix_workloads::ScenarioSpec)s (generate →
//!   compile → simulate) with JSON reporting, backing the `helix` CLI;
//! * [`campaign`] — cross-scenario sweep campaigns: one
//!   [`CampaignSpec`](helix_workloads::CampaignSpec) config fans out
//!   over a scenario set × machine/compiler grid, runs the cells in
//!   parallel, and aggregates a deterministic report (the `helix
//!   campaign` subcommand and the spec-driven figures);
//! * [`resilient`] — the fault-tolerant execution layer under the
//!   campaign runner: per-cell isolation with classified failures,
//!   retry/budget policies, a content-addressed on-disk journal for
//!   checkpoint/resume, and a deterministic chaos harness;
//! * [`api`] — the unified request/response surface ([`Request`] in,
//!   [`Response`] out via [`execute`]) that the CLI subcommands, the
//!   service, and the submit client all share, plus its NDJSON wire
//!   codec and structured [`HelixError`] codes;
//! * [`service`] — `helix serve`: a resident campaign service on a
//!   Unix-domain socket with a bounded worker pool, single-flight
//!   dedup, and journal-hit answers for repeat submissions;
//! * [`json`] — the one JSON value type, its parser, and the line
//!   (wire) and document (report) renderers every writer goes through;
//! * [`explore`] — `helix explore`: seed-deterministic scenario
//!   fuzzing through a battery of differential oracles (engine
//!   agreement, fast-forward exactness, lane invariance, coverage
//!   accounting, Amdahl bounds) with frontier search and auto-shrunk,
//!   runnable-TOML findings.
//!
//! # Examples
//!
//! ```no_run
//! use helix_rc::experiment::{compiler_generations, ExperimentOptions};
//! use helix_workloads::{by_name, Scale};
//!
//! let vpr = by_name("175.vpr", Scale::Test).unwrap();
//! let row = compiler_generations(&vpr, 16, &ExperimentOptions::default())?;
//! println!("{}: HCCv2 {:.2}x -> HELIX-RC {:.2}x (paper: {:.1}x)",
//!          row.name, row.v2, row.helix_rc, row.paper_helix);
//! # Ok::<(), Box<dyn std::error::Error + Send + Sync>>(())
//! ```

#![warn(missing_docs)]

pub mod analysis_figs;
pub mod api;
pub mod batch;
pub mod campaign;
pub mod error;
pub mod experiment;
pub mod explore;
pub mod json;
pub mod related;
pub mod report;
pub mod resilient;
pub mod scenario;
pub mod service;

pub use api::{execute, CampaignSource, Request, Response, RunOptions, ServiceStatus, SpecSource};
pub use batch::SimCache;
pub use campaign::{load_campaign, run_campaign, CampaignReport, CampaignRow, CampaignRunStats};
pub use error::{ErrorKind, HelixError};
pub use experiment::{
    compiler_generations, core_type_sweep, coupled_vs_ring, decoupling_lattice, iteration_lengths,
    overhead_breakdown, sharing_profile, sweep_core_count, sweep_ring, ExperimentOptions,
    LatticePoint,
};
pub use explore::{run_explore, shrink_spec, ExploreOptions, ExploreReport};
pub use resilient::{CellFailure, FailureKind, FaultPlan, Journal};
pub use scenario::{run_scenario, ScenarioReport};
pub use service::{serve, submit, ServeOptions};

// Re-export the full stack so downstream users need one dependency.
pub use helix_analysis as analysis;
pub use helix_hcc as hcc;
pub use helix_ir as ir;
pub use helix_ring_cache as ring_cache;
pub use helix_sim as sim;
pub use helix_workloads as workloads;
