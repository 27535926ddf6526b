//! The resilient execution layer under [`crate::campaign`]: per-cell
//! panic isolation, failure classification, bounded deterministic
//! retries, budget watchdogs, a content-addressed on-disk journal for
//! crash/Ctrl-C resume, and a seeded chaos harness that proves the
//! isolation end-to-end.
//!
//! Design constraints, in order:
//!
//! 1. **Never poison the run.** A cell that panics, errors, or blows
//!    its budget becomes a [`CellFailure`] row in the report; every
//!    other cell's result is kept.
//! 2. **Stay byte-identical.** Failure classification and retry
//!    scheduling are functions of the spec and the failure kind only —
//!    no wall-clock values ever reach the report. The one opt-in
//!    exception is the wall-clock watchdog, which is documented as
//!    timing-dependent and off by default.
//! 3. **Journal = cache.** A completed cell is stored under the FNV-1a
//!    digest of everything that determines its result (crate version,
//!    scale, cycle budget, experiment, cores, reseeded scenario spec).
//!    Resume is therefore also edit-aware: touching one scenario file
//!    changes only that scenario's digests, so only its cells re-run.

use helix_workloads::ResiliencePolicy;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::error::ErrorKind;
use crate::experiment::ExpError;

/// Cycle budget substituted into cells chosen for a chaos "budget
/// blowout": small enough that any real scenario exhausts it, so the
/// injected failure is deterministic.
pub const CHAOS_BLOWOUT_FUEL: u64 = 100;

/// Why a campaign cell failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The cell's worker panicked (caught at the cell boundary).
    Panic,
    /// The experiment returned a deterministic error (spec/protocol).
    Error,
    /// The per-cell simulated-cycle budget ran out. Deterministic: the
    /// same cell exhausts the same budget at the same cycle every run.
    CycleBudget,
    /// The cooperative wall-clock watchdog flagged the cell. Timing
    /// dependent by nature; only possible when `wall_budget_ms > 0`.
    WallBudget,
}

impl FailureKind {
    /// Stable spelling used in report JSON and tables.
    pub fn render(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Error => "error",
            FailureKind::CycleBudget => "cycle-budget",
            FailureKind::WallBudget => "wall-budget",
        }
    }

    /// Whether a retry can plausibly change the outcome. Deterministic
    /// failures (experiment errors, cycle-budget exhaustion) would only
    /// repeat themselves; panics and wall-clock overruns may be
    /// environmental.
    pub fn transient(self) -> bool {
        matches!(self, FailureKind::Panic | FailureKind::WallBudget)
    }
}

/// One failed campaign cell, as enumerated in the report's `failures`
/// section.
#[derive(Debug, Clone, PartialEq)]
pub struct CellFailure {
    /// Scenario (workload) name.
    pub scenario: String,
    /// Experiment spelling (`CampaignExperiment::render`).
    pub experiment: String,
    /// Core count of the cell.
    pub cores: usize,
    /// Classified cause.
    pub kind: FailureKind,
    /// Retries that were attempted before giving up.
    pub retries: u32,
    /// Human-readable cause (panic payload, error display, ...).
    pub message: String,
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} / {} @ {} cores: {} ({}, {} retr{})",
            self.scenario,
            self.experiment,
            self.cores,
            self.message,
            self.kind.render(),
            self.retries,
            if self.retries == 1 { "y" } else { "ies" }
        )
    }
}

/// FNV-1a 64-bit over `bytes`, continuing from `state` (seed with
/// [`FNV_OFFSET`]). Used for cell digests and fault-plan assignment;
/// stable across platforms and releases by construction.
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(0x100_0000_01b3);
    }
    state
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A seeded plan of faults to inject into a deterministic subset of
/// cells — the chaos harness that proves cell isolation end-to-end.
///
/// Cells are ranked by `fnv1a(seed ++ cell key)`; the first `panics`
/// cells in rank order panic, the next `stalls` sleep for `stall_ms`
/// before running, and the next `blowouts` run with
/// [`CHAOS_BLOWOUT_FUEL`] instead of their real cycle budget. The
/// assignment depends only on the seed and the cell keys, so a chaos
/// run is exactly reproducible and a test can predict which cells fail.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the rank ordering.
    pub seed: u64,
    /// Number of cells that panic.
    pub panics: usize,
    /// Number of cells that stall for `stall_ms` before running.
    pub stalls: usize,
    /// Number of cells that run with [`CHAOS_BLOWOUT_FUEL`].
    pub blowouts: usize,
    /// Stall duration, milliseconds.
    pub stall_ms: u64,
    /// Inject only on a cell's first attempt, so a retry succeeds —
    /// exercises the recovery path instead of the failure path.
    pub transient: bool,
}

/// What the plan injects into one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the cell worker.
    Panic,
    /// Sleep before running the cell (trips the wall watchdog if armed).
    Stall,
    /// Replace the cycle budget with [`CHAOS_BLOWOUT_FUEL`].
    Blowout,
}

impl FaultPlan {
    /// Whether the plan injects anything at all.
    pub fn is_active(&self) -> bool {
        self.panics + self.stalls + self.blowouts > 0
    }

    /// The fault (if any) this plan assigns to the cell with `key`,
    /// given the keys of every cell in the campaign.
    pub fn fault_for(&self, key: &str, all_keys: &[String]) -> Option<Fault> {
        if !self.is_active() {
            return None;
        }
        let rank = |k: &str| {
            let h = fnv1a(FNV_OFFSET, &self.seed.to_le_bytes());
            fnv1a(h, k.as_bytes())
        };
        let mut ranked: Vec<&String> = all_keys.iter().collect();
        // Tie-break on the key itself so equal hashes stay deterministic.
        ranked.sort_by_key(|k| (rank(k), k.as_str()));
        let pos = ranked.iter().position(|k| k.as_str() == key)?;
        if pos < self.panics {
            Some(Fault::Panic)
        } else if pos < self.panics + self.stalls {
            Some(Fault::Stall)
        } else if pos < self.panics + self.stalls + self.blowouts {
            Some(Fault::Blowout)
        } else {
            None
        }
    }
}

/// On-disk store of completed cells, keyed by content digest: one
/// `<16-hex-digits>.cell` file per cell under the journal directory.
/// Each write goes through a temp file of its own and a rename, so a
/// reader sees a cell file either absent or complete — also while
/// other threads or processes store the same digest. Nothing is
/// fsynced, so this holds across a crash of the process, not across an
/// OS crash or power loss. Every file ends in a trailer line holding
/// the body's length and FNV-1a; [`Journal::load`] checks it, so a
/// truncated, edited, or trailer-less file reads as a miss and its
/// cell re-runs.
#[derive(Debug, Clone)]
pub struct Journal {
    dir: PathBuf,
}

impl Journal {
    /// Open (creating if needed) a journal at `dir`.
    pub fn open(dir: &Path) -> Result<Journal, ExpError> {
        std::fs::create_dir_all(dir).map_err(|e| {
            ExpError::io(format!(
                "cannot create journal dir '{}': {e}",
                dir.display()
            ))
        })?;
        Ok(Journal {
            dir: dir.to_path_buf(),
        })
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, digest: u64) -> PathBuf {
        self.dir.join(format!("{digest:016x}.cell"))
    }

    /// The trailer line that seals `body` on disk.
    fn trailer(body: &str) -> String {
        format!(
            "helix-journal {} {:016x}",
            body.len(),
            fnv1a(FNV_OFFSET, body.as_bytes())
        )
    }

    /// Fetch a journaled cell by digest: `None` when the file is absent
    /// or its trailer does not match its body.
    pub fn load(&self, digest: u64) -> Option<String> {
        let mut text = std::fs::read_to_string(self.path_of(digest)).ok()?;
        let body_len = {
            let (body, trailer) = text.strip_suffix('\n')?.rsplit_once('\n')?;
            (trailer == Journal::trailer(body)).then_some(body.len())?
        };
        text.truncate(body_len);
        Some(text)
    }

    /// Store a completed cell under `digest`, replacing any earlier
    /// copy in one atomic rename.
    pub fn store(&self, digest: u64, text: &str) -> Result<(), ExpError> {
        // A temp name per write: writers of the same digest (two
        // campaigns sharing a cell) never truncate each other's file.
        static WRITES: AtomicU64 = AtomicU64::new(0);
        let path = self.path_of(digest);
        let tmp = self.dir.join(format!(
            "{digest:016x}.{}.{}.tmp",
            std::process::id(),
            WRITES.fetch_add(1, Ordering::Relaxed)
        ));
        let sealed = format!("{text}\n{}\n", Journal::trailer(text));
        std::fs::write(&tmp, sealed).map_err(|e| {
            ExpError::io(format!(
                "cannot write journal cell '{}': {e}",
                tmp.display()
            ))
        })?;
        std::fs::rename(&tmp, &path).map_err(|e| {
            ExpError::io(format!(
                "cannot commit journal cell '{}': {e}",
                path.display()
            ))
        })?;
        Ok(())
    }
}

/// A cell's cycle budget: `policy.cycle_budget` when set, else
/// `default_fuel`. Campaign journal digests hash it, so a budget change
/// invalidates journaled results.
pub(crate) fn cell_fuel(policy: &ResiliencePolicy, default_fuel: u64) -> u64 {
    if policy.cycle_budget > 0 {
        policy.cycle_budget as u64
    } else {
        default_fuel
    }
}

/// Outcome classification of one attempt, before retry policy.
enum Attempt<T> {
    Ok(T),
    Failed(FailureKind, String),
}

/// Run one cell's worker `f` (taking the effective cycle budget) behind
/// `catch_unwind`, classify any failure, and retry transient failures
/// up to `policy.max_retries` times with a bounded deterministic
/// backoff. `fault` optionally injects a chaos fault (see
/// [`FaultPlan`]; `stall_ms` is the [`Fault::Stall`] sleep); with
/// `transient_faults` the fault fires only on attempt 0 so the retry
/// path is exercised end-to-end.
///
/// The cycle budget passed to `f` is `policy.cycle_budget` when set,
/// else `default_fuel`. The wall watchdog is cooperative: the attempt's
/// elapsed time is checked after `f` returns, and an overrun discards
/// the result. It cannot preempt a wedged cell — that is the cycle
/// budget's job — but it keeps pathological cells from silently
/// dominating a campaign when the operator opts in.
pub fn run_cell_resilient<T, F>(
    f: F,
    default_fuel: u64,
    policy: &ResiliencePolicy,
    fault: Option<Fault>,
    stall_ms: u64,
    transient_faults: bool,
) -> Result<T, (FailureKind, String, u32)>
where
    F: Fn(u64) -> Result<T, ExpError>,
{
    let max_retries = policy.max_retries.max(0) as u32;
    let base_fuel = cell_fuel(policy, default_fuel);
    let mut last: Option<(FailureKind, String)> = None;
    for attempt in 0..=max_retries {
        let inject = fault.filter(|_| !transient_faults || attempt == 0);
        let fuel = match inject {
            Some(Fault::Blowout) => CHAOS_BLOWOUT_FUEL,
            _ => base_fuel,
        };
        if attempt > 0 {
            // Deterministic bounded backoff: 25ms, 50ms, 100ms, 200ms,
            // then flat. Gives environmental causes (fd pressure, OOM
            // killer near-misses) room to clear without stalling the
            // sweep.
            let ms = 25u64 << (attempt - 1).min(3);
            std::thread::sleep(Duration::from_millis(ms));
        }
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(Fault::Stall) = inject {
                std::thread::sleep(Duration::from_millis(stall_ms));
            }
            if let Some(Fault::Panic) = inject {
                panic!("chaos: injected panic");
            }
            f(fuel)
        }));
        let attempt_result = match outcome {
            Err(payload) => Attempt::Failed(FailureKind::Panic, panic_message(payload.as_ref())),
            Ok(Err(err)) => classify_error(err),
            Ok(Ok(value)) => {
                let elapsed_ms = started.elapsed().as_millis() as i64;
                if policy.wall_budget_ms > 0 && elapsed_ms > policy.wall_budget_ms {
                    Attempt::Failed(
                        FailureKind::WallBudget,
                        format!(
                            "cell exceeded the wall-clock budget of {} ms",
                            policy.wall_budget_ms
                        ),
                    )
                } else {
                    Attempt::Ok(value)
                }
            }
        };
        match attempt_result {
            Attempt::Ok(value) => return Ok(value),
            Attempt::Failed(kind, message) => {
                let give_up = !kind.transient() || attempt == max_retries;
                last = Some((kind, message));
                if give_up {
                    break;
                }
            }
        }
    }
    let (kind, message) = last.expect("at least one attempt ran");
    let retries = if kind.transient() {
        max_retries
    } else {
        // Deterministic failures stop at the first attempt.
        0
    };
    Err((kind, message, retries))
}

/// Classify an [`ExpError`]: cycle-budget exhaustion is recognized via
/// its structured [`ErrorKind::Budget`] kind (message match as a
/// fallback for errors that were stringified along the way).
fn classify_error<T>(err: ExpError) -> Attempt<T> {
    let message = err.to_string();
    let budget = err.kind == ErrorKind::Budget || message.contains("cycle budget exhausted");
    if budget {
        Attempt::Failed(FailureKind::CycleBudget, message)
    } else {
        Attempt::Failed(FailureKind::Error, message)
    }
}

/// Best-effort text of a panic payload (`&str` and `String` payloads
/// cover `panic!`-with-message; anything else gets a placeholder).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_sim::SimError;

    fn policy(max_retries: i64) -> ResiliencePolicy {
        ResiliencePolicy {
            max_retries,
            ..ResiliencePolicy::default()
        }
    }

    #[test]
    fn ok_cell_passes_through() {
        let out = run_cell_resilient(Ok::<u64, ExpError>, 42, &policy(1), None, 0, false);
        assert_eq!(out.unwrap(), 42);
    }

    #[test]
    fn cycle_budget_overrides_default_fuel() {
        let p = ResiliencePolicy {
            cycle_budget: 7,
            ..ResiliencePolicy::default()
        };
        let out = run_cell_resilient(Ok::<u64, ExpError>, 42, &p, None, 0, false);
        assert_eq!(out.unwrap(), 7);
    }

    #[test]
    fn panic_is_caught_and_classified() {
        let out = run_cell_resilient(
            |_| -> Result<(), ExpError> { panic!("boom {}", 3) },
            1,
            &policy(0),
            None,
            0,
            false,
        );
        let (kind, message, retries) = out.unwrap_err();
        assert_eq!(kind, FailureKind::Panic);
        assert!(message.contains("boom 3"), "{message}");
        assert_eq!(retries, 0);
    }

    #[test]
    fn deterministic_errors_are_not_retried() {
        let calls = std::cell::Cell::new(0);
        let out = run_cell_resilient(
            |_| -> Result<(), ExpError> {
                calls.set(calls.get() + 1);
                Err("spec error: nope".into())
            },
            1,
            &policy(3),
            None,
            0,
            false,
        );
        let (kind, _, retries) = out.unwrap_err();
        assert_eq!(kind, FailureKind::Error);
        assert_eq!(retries, 0);
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn fuel_exhaustion_classifies_as_cycle_budget() {
        let out = run_cell_resilient(
            |_| -> Result<(), ExpError> { Err(SimError::FuelExhausted { cycles: 99 }.into()) },
            1,
            &policy(2),
            None,
            0,
            false,
        );
        let (kind, message, retries) = out.unwrap_err();
        assert_eq!(kind, FailureKind::CycleBudget);
        assert!(message.contains("99"), "{message}");
        assert_eq!(retries, 0);
    }

    #[test]
    fn transient_chaos_panic_recovers_on_retry() {
        let out = run_cell_resilient(
            Ok::<u64, ExpError>,
            5,
            &policy(1),
            Some(Fault::Panic),
            0,
            true, // transient: inject only on attempt 0
        );
        assert_eq!(out.unwrap(), 5);
    }

    #[test]
    fn persistent_chaos_panic_exhausts_retries() {
        let out = run_cell_resilient(
            Ok::<u64, ExpError>,
            5,
            &policy(2),
            Some(Fault::Panic),
            0,
            false,
        );
        let (kind, message, retries) = out.unwrap_err();
        assert_eq!(kind, FailureKind::Panic);
        assert!(message.contains("chaos"), "{message}");
        assert_eq!(retries, 2);
    }

    #[test]
    fn blowout_fault_substitutes_tiny_fuel() {
        let out = run_cell_resilient(
            |fuel| -> Result<u64, ExpError> {
                if fuel < 1000 {
                    Err(SimError::FuelExhausted { cycles: fuel }.into())
                } else {
                    Ok(fuel)
                }
            },
            1 << 20,
            &policy(1),
            Some(Fault::Blowout),
            0,
            false,
        );
        let (kind, _, _) = out.unwrap_err();
        assert_eq!(kind, FailureKind::CycleBudget);
    }

    #[test]
    fn wall_watchdog_flags_stalls() {
        let p = ResiliencePolicy {
            wall_budget_ms: 20,
            max_retries: 0,
            ..ResiliencePolicy::default()
        };
        let out = run_cell_resilient(Ok::<u64, ExpError>, 1, &p, Some(Fault::Stall), 60, false);
        let (kind, message, _) = out.unwrap_err();
        assert_eq!(kind, FailureKind::WallBudget);
        assert!(message.contains("20 ms"), "{message}");
    }

    #[test]
    fn fault_plan_assignment_is_deterministic_and_partitioned() {
        let keys: Vec<String> = (0..10).map(|i| format!("cell-{i}")).collect();
        let plan = FaultPlan {
            seed: 7,
            panics: 2,
            stalls: 1,
            blowouts: 3,
            stall_ms: 5,
            transient: false,
        };
        let faults: Vec<Option<Fault>> = keys.iter().map(|k| plan.fault_for(k, &keys)).collect();
        let count = |f: Fault| faults.iter().filter(|x| **x == Some(f)).count();
        assert_eq!(count(Fault::Panic), 2);
        assert_eq!(count(Fault::Stall), 1);
        assert_eq!(count(Fault::Blowout), 3);
        assert_eq!(faults.iter().filter(|x| x.is_none()).count(), 4);
        // Same seed, same assignment.
        let again: Vec<Option<Fault>> = keys.iter().map(|k| plan.fault_for(k, &keys)).collect();
        assert_eq!(faults, again);
        // Different seed, (almost surely) different victims.
        let other = FaultPlan {
            seed: 8,
            ..plan.clone()
        };
        let moved: Vec<Option<Fault>> = keys.iter().map(|k| other.fault_for(k, &keys)).collect();
        assert_eq!(moved.iter().filter(|x| x.is_some()).count(), 6);
    }

    #[test]
    fn journal_roundtrip_and_atomicity() {
        let dir = std::env::temp_dir().join(format!(
            "helix-journal-test-{}-{:x}",
            std::process::id(),
            fnv1a(FNV_OFFSET, b"journal_roundtrip")
        ));
        let j = Journal::open(&dir).unwrap();
        assert!(j.load(0xdead).is_none());
        j.store(0xdead, "v1\trow").unwrap();
        assert_eq!(j.load(0xdead).unwrap(), "v1\trow");
        j.store(0xdead, "v2\trow").unwrap();
        assert_eq!(j.load(0xdead).unwrap(), "v2\trow");
        // No temp litter after a successful store.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A journal file that is truncated, has a flipped byte, or lacks
    /// its trailer loads as a miss, never as a damaged body.
    #[test]
    fn damaged_entries_load_as_misses() {
        let dir = std::env::temp_dir().join(format!(
            "helix-journal-test-{}-{:x}",
            std::process::id(),
            fnv1a(FNV_OFFSET, b"damaged_entries")
        ));
        std::fs::remove_dir_all(&dir).ok();
        let j = Journal::open(&dir).unwrap();
        let body = "v1\trow\npoint\t1.0\npoint\t2.0";
        j.store(7, body).unwrap();
        assert_eq!(j.load(7).as_deref(), Some(body));
        let path = j.path_of(7);
        let sealed = std::fs::read(&path).unwrap();
        let assert_miss = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            assert_eq!(
                j.load(7),
                None,
                "damaged entry loaded: {:?}",
                String::from_utf8_lossy(bytes)
            );
        };
        // No trailer: a file written before trailers existed.
        assert_miss(body.as_bytes());
        assert_miss(format!("{body}\n").as_bytes());
        for n in [0, 1, 10, body.len(), body.len() + 1, sealed.len() - 1] {
            assert_miss(&sealed[..n]);
        }
        for i in [0, 5, body.len(), sealed.len() - 3] {
            let mut flipped = sealed.clone();
            flipped[i] ^= 0x20;
            assert_miss(&flipped);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Writers racing on one digest (two campaigns sharing a cell)
    /// never publish a torn file: every concurrent load sees nothing or
    /// one complete payload, every store succeeds, and no temp file is
    /// left behind.
    #[test]
    fn concurrent_same_digest_stores_never_tear() {
        let dir = std::env::temp_dir().join(format!(
            "helix-journal-test-{}-{:x}",
            std::process::id(),
            fnv1a(FNV_OFFSET, b"concurrent_same_digest")
        ));
        std::fs::remove_dir_all(&dir).ok();
        let j = Journal::open(&dir).unwrap();
        let payloads: Vec<String> = (0..8u8)
            .map(|t| format!("{t}{}\n", "x".repeat(8192 * (t as usize + 1))))
            .collect();
        let done = std::sync::atomic::AtomicBool::new(false);
        // Loader and writers all start together, so the stores overlap.
        let start = std::sync::Barrier::new(payloads.len() + 1);
        std::thread::scope(|scope| {
            let loader = scope.spawn(|| {
                start.wait();
                while !done.load(Ordering::SeqCst) {
                    if let Some(text) = j.load(0xbeef) {
                        assert!(
                            payloads.contains(&text),
                            "torn load of {} bytes",
                            text.len()
                        );
                    }
                }
            });
            let writers: Vec<_> = payloads
                .iter()
                .map(|payload| {
                    let (j, start) = (&j, &start);
                    scope.spawn(move || {
                        start.wait();
                        (0..50).try_for_each(|_| j.store(0xbeef, payload))
                    })
                })
                .collect();
            let stored: Vec<_> = writers.into_iter().map(|w| w.join().unwrap()).collect();
            // Stop the loader before any assertion can unwind the scope.
            done.store(true, Ordering::SeqCst);
            loader.join().unwrap();
            for result in stored {
                result.unwrap();
            }
        });
        assert!(payloads.contains(&j.load(0xbeef).unwrap()));
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
