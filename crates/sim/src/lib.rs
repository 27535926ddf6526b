//! # helix-sim
//!
//! Cycle-level executing multicore simulator for the HELIX-RC
//! reproduction (paper §6.1): the XIOSim/Zesto/DRAMSim2 substitution.
//!
//! The simulator *executes* IR programs (functional) while modelling
//! timing (cycle-level):
//!
//! * [`config`] — machine descriptions: 2-way in-order Atom-like cores or
//!   2-/4-way out-of-order Nehalem-like cores, the paper's cache
//!   hierarchy, coherence cache-to-cache latency, and the decoupling
//!   lattice of Fig. 8;
//! * [`memsys`] — private L1s, shared banked L2, [`dram`], and
//!   invalidation-based coherence;
//! * [`machine`] — the global cycle loop, DOACROSS iteration dispatch,
//!   wait/signal semantics under both policies, ring-cache integration,
//!   live-out resolution, and the loop barrier;
//! * [`attribution`] — the per-cycle overhead taxonomy of Fig. 12;
//! * [`race`] — a runtime race detector validating the compiler's
//!   guarantees on every parallel run.
//!
//! # Examples
//!
//! ```
//! use helix_ir::{AddrExpr, BinOp, ProgramBuilder, Ty};
//! use helix_sim::{simulate, simulate_sequential, MachineConfig};
//!
//! let mut b = ProgramBuilder::new("axpy");
//! let data = b.region("data", 1 << 16, Ty::I64);
//! b.counted_loop(0, 1000, 1, |b, i| {
//!     let x = b.reg();
//!     b.load(x, AddrExpr::region_indexed(data, i, 8, 0), Ty::I64);
//!     b.alu_chain(x, 8);
//!     b.store(x, AddrExpr::region_indexed(data, i, 8, 0), Ty::I64);
//! });
//! let program = b.finish();
//!
//! let compiled = helix_hcc::compile(&program, &helix_hcc::HccConfig::v3(16))?;
//! let seq = simulate_sequential(&program, &MachineConfig::conventional(16), 1 << 26)?;
//! let par = simulate(&compiled, &MachineConfig::helix_rc(16), 1 << 26)?;
//! assert!(par.race_violations.is_empty());
//! assert!(par.speedup_vs(seq.cycles) > 4.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod attribution;
pub mod branch;
pub mod config;
pub mod core;
pub mod dram;
pub mod machine;
pub mod memsys;
pub mod race;
pub mod session;
pub mod sync;

pub use attribution::{Attribution, Bucket};
pub use config::{CacheConfig, CoreModel, DecoupleConfig, EngineSel, MachineConfig, SyncModel};
pub use machine::{simulate, simulate_sequential, Machine, RunReport, SimError};
pub use memsys::{MemStats, MemSystem};
pub use race::RaceViolation;
pub use session::{LaneResult, SimSession};
