//! Per-scenario simulation cache for batched campaigns.
//!
//! A campaign grid simulates one scenario under many overlapping
//! (compiler, machine, fuel) combinations: every experiment re-runs the
//! sequential baseline, most share the HCCv3 compile, and several cells
//! repeat the exact HELIX-RC simulation. A [`SimCache`] — scoped to
//! **one** workload (one generated program) — memoizes compiles,
//! decodes, and successful run reports under deterministic string keys,
//! so a batched campaign performs each distinct unit of work once.
//!
//! Everything cached is deterministic: a hit returns byte-for-byte the
//! value a recompute would produce, which is why cached campaign
//! reports stay byte-identical to uncached ones (pinned by
//! `tests/lane_exactness.rs`). Failed simulations are deliberately
//! *not* cached — [`SimError`](helix_sim::SimError) is not clonable,
//! and failures must stay visible to the resilient retry layer.

use crate::experiment::ExpError;
use helix_hcc::{compile, CompiledProgram, HccConfig};
use helix_ir::decode::DecodedProgram;
use helix_ir::Program;
use helix_sim::RunReport;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Decode-cache key for the original (uncompiled) program.
pub const SEQ_KEY: &str = "seq";

/// Memoized compile/decode/simulate results for one workload's program.
///
/// Shareable across threads (`Arc<SimCache>`): all maps sit behind
/// mutexes, and a race between two threads computing the same key is
/// benign — both compute the same deterministic value and one insert
/// wins.
#[derive(Debug, Default)]
pub struct SimCache {
    compiled: Mutex<HashMap<String, Arc<CompiledProgram>>>,
    decoded: Mutex<HashMap<String, Arc<DecodedProgram>>>,
    reports: Mutex<HashMap<String, RunReport>>,
}

/// Poison-tolerant lock: a panicking cell (chaos injection, bugs) must
/// not wedge every other cell of the scenario — cached values are
/// deterministic, so the map is never left in an inconsistent state.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl SimCache {
    /// Fresh, empty cache.
    pub fn new() -> SimCache {
        SimCache::default()
    }

    /// Cache key of a compiler configuration (its `Debug` rendering —
    /// deterministic and collision-free over the config space).
    pub fn compile_key(cfg: &HccConfig) -> String {
        format!("{cfg:?}")
    }

    /// Compile `program` under `cfg`, memoized. Compilation is
    /// deterministic, so a concurrent duplicate compute is harmless.
    pub fn compile(
        &self,
        program: &Program,
        cfg: &HccConfig,
    ) -> Result<Arc<CompiledProgram>, ExpError> {
        let key = SimCache::compile_key(cfg);
        if let Some(hit) = lock(&self.compiled).get(&key) {
            return Ok(hit.clone());
        }
        let computed = Arc::new(compile(program, cfg)?);
        Ok(lock(&self.compiled).entry(key).or_insert(computed).clone())
    }

    /// The shared decode of the program identified by `key` (a compile
    /// key, or [`SEQ_KEY`] for the original program), decoding on first
    /// use.
    pub fn decoded(&self, key: &str, program: &Program) -> Arc<DecodedProgram> {
        if let Some(hit) = lock(&self.decoded).get(key) {
            return hit.clone();
        }
        let computed = Arc::new(helix_ir::decode::decode(program));
        lock(&self.decoded)
            .entry(key.to_string())
            .or_insert(computed)
            .clone()
    }

    /// A previously stored run report, if any.
    pub fn report(&self, key: &str) -> Option<RunReport> {
        lock(&self.reports).get(key).cloned()
    }

    /// Store a successful run report under its key.
    pub fn store_report(&self, key: String, report: &RunReport) {
        lock(&self.reports)
            .entry(key)
            .or_insert_with(|| report.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_ir::{AddrExpr, ProgramBuilder, Ty};

    fn tiny() -> Program {
        let mut b = ProgramBuilder::new("tiny");
        let data = b.region("data", 1 << 12, Ty::I64);
        b.counted_loop(0, 64, 1, |b, i| {
            let x = b.reg();
            b.load(x, AddrExpr::region_indexed(data, i, 8, 0), Ty::I64);
            b.alu_chain(x, 2);
            b.store(x, AddrExpr::region_indexed(data, i, 8, 0), Ty::I64);
        });
        b.finish()
    }

    #[test]
    fn compile_is_memoized_per_config() {
        let program = tiny();
        let cache = SimCache::new();
        let a = cache.compile(&program, &HccConfig::v3(4)).unwrap();
        let b = cache.compile(&program, &HccConfig::v3(4)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same config must hit");
        let c = cache.compile(&program, &HccConfig::v2(4)).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "different config must miss");
    }

    #[test]
    fn decode_is_memoized_per_key() {
        let program = tiny();
        let cache = SimCache::new();
        let a = cache.decoded(SEQ_KEY, &program);
        let b = cache.decoded(SEQ_KEY, &program);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn reports_round_trip() {
        let program = tiny();
        let cache = SimCache::new();
        assert!(cache.report("k").is_none());
        let report =
            helix_sim::Machine::new(&program, &[], helix_sim::MachineConfig::conventional(1))
                .run(1 << 22)
                .unwrap();
        cache.store_report("k".into(), &report);
        let hit = cache.report("k").unwrap();
        assert_eq!(hit.cycles, report.cycles);
        assert_eq!(hit.mem_digest, report.mem_digest);
    }
}
