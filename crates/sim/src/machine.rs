//! The multicore machine: global cycle loop, serial/parallel phase
//! orchestration, and the per-core issue logic for both core models.

use crate::attribution::{Attribution, Bucket};
use crate::config::{CoreModel, EngineSel, MachineConfig};
use crate::core::{inst_latency, CoreState, RobEntry, RunState};
use crate::memsys::{MemStats, MemSystem};
use crate::race::{RaceDetector, RaceViolation};
use crate::sync::{required_count, required_sources_iter, SyncState, WaitBlock};
use helix_hcc::{LiveOutResolve, LoopPlan};
use helix_ir::decode::{DTerm, DTermKind, DecodedProgram, UOpKind, NO_REG};
use helix_ir::interp::{Env, InterpError, StepEvent, Thread};
use helix_ir::trace::{InstSite, MemAccess, TraceSink};
use helix_ir::{BlockId, Program, Reg, SegmentId, Value};
use helix_ring_cache::{LoadIssue, RingCache, RingStats};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Simulation failure.
#[derive(Debug)]
pub enum SimError {
    /// Functional execution faulted.
    Interp(InterpError),
    /// The cycle budget was exhausted.
    FuelExhausted {
        /// Cycles executed before giving up.
        cycles: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Interp(e) => write!(f, "functional fault: {e}"),
            SimError::FuelExhausted { cycles } => {
                write!(f, "cycle budget exhausted after {cycles}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<InterpError> for SimError {
    fn from(e: InterpError) -> Self {
        SimError::Interp(e)
    }
}

/// Results of one simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Total cycles.
    pub cycles: u64,
    /// Dynamic instructions across all cores.
    pub dyn_insts: u64,
    /// Per-cycle attribution.
    pub attribution: Attribution,
    /// Digest of final memory contents.
    pub mem_digest: u64,
    /// Ring statistics, when a ring was configured.
    pub ring_stats: Option<RingStats>,
    /// Memory-hierarchy statistics.
    pub mem_stats: MemStats,
    /// Race violations (must be empty for a correct compiler).
    #[serde(skip)]
    pub race_violations: Vec<RaceViolation>,
    /// Protocol errors (missing signals, escaped workers, ...).
    pub protocol_errors: Vec<String>,
    /// Parallel loop invocations executed.
    pub loop_invocations: u64,
    /// Parallel iterations executed.
    pub iterations: u64,
    /// Sampled per-iteration durations in cycles (Fig. 4a).
    pub iteration_lengths: Vec<u32>,
    /// Orchestrator register file at program end.
    #[serde(skip)]
    pub final_regs: Vec<Value>,
    /// One cycle count per cut given to [`Machine::with_cuts`] that the
    /// run reached, in cut order: the cycle count a program ending at
    /// that cut would have run for. Empty when the machine had no cuts.
    #[serde(skip)]
    pub marks: Vec<u64>,
}

impl RunReport {
    /// Speedup of this run relative to a baseline cycle count.
    pub fn speedup_vs(&self, baseline_cycles: u64) -> f64 {
        baseline_cycles as f64 / self.cycles.max(1) as f64
    }
}

/// Per-parallel-loop context.
#[derive(Debug)]
struct ParCtx {
    plan: usize,
    trip: u64,
    r0: Vec<Value>,
    /// Per-register `(defining iteration, core)` for LastWriter
    /// live-outs, indexed by `Reg::index` (dense; registers are few).
    last_writer: Vec<Option<(u64, usize)>>,
    /// Registers resolved by LastWriter, indexed by `Reg::index`.
    lastwriter_regs: Vec<bool>,
    /// Whether any register uses LastWriter resolution (most plans have
    /// none; the per-step def tracking short-circuits on this).
    has_lastwriter: bool,
    seg_ids: Vec<SegmentId>,
}

#[derive(Debug)]
enum Mode {
    Serial,
    Parallel(ParCtx),
}

/// What one core did during one cycle, reported by the per-core tick so
/// the machine can fast-forward through globally idle stretches.
#[derive(Debug, Clone, Copy)]
enum CoreCycle {
    /// The core issued, retired, or changed state: the cycle cannot be
    /// part of an idle window.
    Progress,
    /// The core provably did nothing and cannot do anything before
    /// `wake` (with `u64::MAX` meaning "only another core or a ring
    /// event can wake it"). `bucket` is the stall class the cycle was
    /// charged to — identical for every cycle of the stalled window.
    Stalled {
        /// Bucket the stall cycle was charged to.
        bucket: Bucket,
        /// First cycle at which this core's stall condition can change.
        wake: u64,
    },
}

/// Per-core wait-check memo (see [`Machine::check_wait`]).
#[derive(Debug, Clone, Copy)]
struct WaitMemo {
    /// Segment of the memoized check.
    seg: SegmentId,
    /// Iteration of the memoized check.
    iter: u64,
    /// Sources already confirmed for `(seg, iter)` — a monotone prefix
    /// of the required-source scan.
    confirmed: u32,
    /// The first unsatisfied source of the last failed check, so the
    /// re-check starts with one counter compare instead of rebuilding
    /// the source iterator.
    src: u32,
    /// Signals needed from `src`.
    need: u64,
}

impl WaitMemo {
    const EMPTY: WaitMemo = WaitMemo {
        seg: SegmentId(u32::MAX),
        iter: u64::MAX,
        confirmed: 0,
        src: u32::MAX,
        need: 0,
    };
}

/// Why a core's `wake == u64::MAX` stall — one whose end is
/// event-driven rather than deterministic — is allowed to sleep, and
/// exactly which event ends it. While the guard holds, the core's issue
/// loop provably reproduces the same stall cycle, so the machine
/// charges it without re-evaluating (optimized path only; a ring-load
/// completion bumps the requester node's load epoch and is covered by
/// the `Epochs` guard like every other ring event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallGuard {
    /// Catch-all snapshot (ring backpressure, outstanding-load operand
    /// waits, unexpected shapes): re-evaluate when either of the
    /// core-node epochs moves. Stalls of this shape provably do not
    /// read the sync tables or the lap bound, so those are not inputs.
    Epochs {
        /// [`RingCache::signal_epoch`] of the core's node (0 without
        /// ring).
        ring_sig: u64,
        /// [`RingCache::inject_epoch`] of the core's node (0 without
        /// ring).
        inject: u64,
        /// [`RingCache::load_epoch`] of the core's node (0 without
        /// ring) — a pending in-flight load cannot become ready until
        /// this moves, so even cores with outstanding ring loads sleep
        /// on this guard instead of polling completions every cycle.
        loads: u64,
    },
    /// Blocked `wait`: holds while `src` has neither delivered its
    /// `need`-th signal for `seg` to this node (grant state, decoupled
    /// only) nor — when the stall is classified `Dependence` — executed
    /// it (classification flips to `Communication` at that point).
    Wait {
        /// Segment being waited on.
        seg: SegmentId,
        /// First unsatisfied source core.
        src: u32,
        /// Signals needed from `src`.
        need: u64,
        /// Ring-delivered count at arm time (`u64::MAX` when the wait
        /// is coherence-mediated and grant state has no ring input).
        ring_count: u64,
        /// Whether the stall is still classified `Dependence`
        /// (`sync.count < need`); once `Communication`, classification
        /// is stable.
        dependence: bool,
    },
    /// Lap-bound hold: re-evaluate when the bound input moves.
    Lap {
        /// The lap bound input.
        min_iter: u64,
    },
    /// Pure-idle run states (serial idle, no work, finished loop):
    /// nothing short of a mode transition — which settles and clears
    /// every sleep — can wake the core.
    Forever,
}

/// Sink capturing the memory accesses of a single step.
#[derive(Debug, Default)]
struct CapSink {
    mem: Vec<MemAccess>,
}

impl TraceSink for CapSink {
    fn on_mem(&mut self, _site: InstSite, access: MemAccess) {
        self.mem.push(access);
    }
}

/// The machine simulator.
#[derive(Debug)]
pub struct Machine<'p> {
    program: &'p Program,
    plans: &'p [LoopPlan],
    cfg: MachineConfig,
    env: Env,
    cores: Vec<CoreState>,
    memsys: MemSystem,
    ring: Option<RingCache>,
    sync: SyncState,
    attr: Attribution,
    race: RaceDetector,
    now: u64,
    mode: Mode,
    /// Plan index per header block, indexed by `BlockId::index` (dense).
    plan_by_header: Vec<Option<usize>>,
    /// Per-plan loop-membership bitmaps, indexed `[plan][block]`, so the
    /// escape check after every control transfer is one load instead of
    /// a scan of the plan's block list.
    plan_blocks: Vec<Vec<bool>>,
    pending_enter: Option<usize>,
    protocol_errors: Vec<String>,
    loop_invocations: u64,
    iterations: u64,
    iteration_lengths: Vec<u32>,
    /// Minimum in-flight iteration this cycle (for the lap bound).
    /// Recomputed lazily: the in-flight multiset only changes at
    /// iteration boundaries and mode transitions, which set the dirty
    /// flag; in between, the cycle loop reuses the cached value (the
    /// per-cycle recompute always produced the same number).
    min_iter: u64,
    /// Whether `min_iter` must be recomputed at the next cycle start.
    min_iter_dirty: bool,
    /// Cores in `FinishedLoop` or `NoWork` this invocation — maintained
    /// at the transitions so the loop-barrier check is a counter
    /// compare, not a per-cycle core scan.
    done_cores: usize,
    /// Per-core stall buckets of the last fully idle cycle (reused
    /// buffer for the fast-forward bulk charge).
    stall_buckets: Vec<Bucket>,
    /// Per-core sleep deadline: a sleeping core wakes when the clock
    /// reaches this (deterministic stalls: scoreboard ready time, branch
    /// redirect, coherence observation, own-ROB retirement) or when its
    /// [`StallGuard`] breaks (event-driven stalls, `u64::MAX` here).
    asleep_until: Vec<u64>,
    /// Bucket charged to each sleeping core's cycles.
    sleep_bucket: Vec<Bucket>,
    /// Cycle each sleeping core entered its sleep (`u64::MAX` = awake).
    /// Sleep cycles are charged in one batch at wake ("settled"), not
    /// one `charge` call per cycle — same totals, no per-cycle work.
    sleep_from: Vec<u64>,
    /// Sleeping cores as a bitset (bit `cid % 64` of word `cid / 64`):
    /// exactly the cores with `sleep_from[cid] != u64::MAX`. The cycle
    /// loop visits the cores outside it, and of the sleepers only those
    /// that are hinted or due, so a sleeper costs nothing per cycle.
    sleeping: Vec<u64>,
    /// The sleepers with a finite deadline (`asleep_until[cid] !=
    /// u64::MAX`), laid out like `sleeping`: the only cores the deadline
    /// recompute and the due scan read.
    timed: Vec<u64>,
    /// Earliest `asleep_until` among sleeping cores (`u64::MAX` when
    /// none). Lowered when a core falls asleep. A core with a finite
    /// deadline sleeps without a guard, so only its deadline wakes it:
    /// the value is recomputed only on the cycle it falls due, by the
    /// same scan over `timed` that finds the due cores.
    next_deadline: u64,
    /// Sleepers whose deadline has arrived, laid out like `sleeping`.
    /// Filled at cycle start, only when `next_deadline <= now`.
    due: Vec<u64>,
    /// Per-core conditional sleep for event-driven (`u64::MAX`-wake)
    /// stalls: while the guard holds, the stall repeats verbatim.
    /// `None` = no guard armed.
    stall_guard: Vec<Option<StallGuard>>,
    /// Cause-specific guard proposed by the current core's stall path
    /// (set by `check_wait` / the lap hold), consumed by the cycle loop
    /// when the core reports an event-driven stall.
    armed_guard: Option<StallGuard>,
    /// Per-core wake hints (bit `cid % 64`): set when an event that
    /// could break core `cid`'s stall guard occurred — a ring delivery
    /// or drain at its node, a signal execution by its guarded blocking
    /// source, or lap-bound movement. A sleeping core with a clear bit
    /// is not visited at all; a set bit is consumed by one validation
    /// (above 64 cores every word of the sleep set shares these bits, so
    /// hints are never consumed and a hinted sleeper validates each
    /// cycle, which is merely slower).
    wake_bits: u64,
    /// Dependence-wake routing: `dep_mask[src]` is the set of sleeping
    /// cores whose `Wait` guard is classified `Dependence` on source
    /// `src` — a signal execution by `src` wakes exactly those.
    dep_mask: Vec<u64>,
    /// The source each sleeping core's dependence wake is registered
    /// under (`u32::MAX` = none), for cheap deregistration at wake.
    dep_src: Vec<u32>,
    /// Sleeping cores holding a `Lap` guard; woken when the lap bound
    /// moves.
    lap_sleepers: u64,
    /// Per-core wait-check memo: grant checks are monotone (signal
    /// counts only grow, observation times never regress), so sources
    /// already confirmed for this `(segment, iteration)` need not be
    /// re-checked, and a *failed* decoupled check can be replayed
    /// outright while no new signal has arrived or executed. Used only
    /// on the optimized path.
    wait_memo: Vec<WaitMemo>,
    /// Reused memory-access capture buffer for functional steps.
    sink: CapSink,
    /// Pre-decoded micro-op tables: every engine's issue loops read
    /// their timing metadata here. Shared behind an `Arc` so lane
    /// sessions and batch threads can share one decode across machines;
    /// [`Machine::run`] clones it once and lends the issue loops a plain
    /// borrow, so no core visit touches the refcount.
    decoded: Arc<DecodedProgram>,
    /// Per-micro-op execution latency, indexed like the decoded table
    /// (computed once from [`inst_latency`]).
    uop_lat: Vec<u32>,
    /// Sites at which core 0 records a mark ([`Machine::with_cuts`]), in
    /// the order the program reaches them.
    cuts: Vec<InstSite>,
    /// `cuts[marks.len()]`, or [`NO_CUT`] once every cut is marked (and
    /// when there are none), so the in-order issue loops pay one compare
    /// per slot for cuts.
    next_cut: InstSite,
    /// The cycle count at each cut reached so far (see
    /// [`RunReport::marks`]).
    marks: Vec<u64>,
}

const MAX_ITER_SAMPLES: usize = 1 << 16;
/// A site no thread reaches: the value of [`Machine::next_cut`] when no
/// cut is left to mark.
const NO_CUT: InstSite = InstSite {
    block: BlockId(u32::MAX),
    index: usize::MAX,
};
/// Extra cycles a coherence-mediated wait pays to observe a flag after
/// the transfer completes (spin-loop detection).
const SPIN_OVERHEAD: u64 = 2;

/// The set bits of a bitset given as `u64` words (bit `i % 64` of word
/// `i / 64`), as ascending indices.
fn set_bits(words: impl Iterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.enumerate().flat_map(|(w, mut word)| {
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                w * 64 + bit
            })
        })
    })
}

impl<'p> Machine<'p> {
    /// Build a machine over a (possibly transformed) program and its
    /// parallel-loop plans, decoding the program for this machine alone.
    pub fn new(program: &'p Program, plans: &'p [LoopPlan], cfg: MachineConfig) -> Machine<'p> {
        let decoded = Arc::new(helix_ir::decode::decode(program));
        Machine::with_decoded(program, plans, cfg, decoded)
    }

    /// Build a machine over an already-decoded program, sharing the
    /// decoded micro-op tables with other machines (lane sessions decode
    /// once per scenario and hand every lane the same `Arc`). Every
    /// engine reads its timing from the decode; the engine only picks
    /// the functional step. Results are bit-identical to
    /// [`Machine::new`] with the same inputs.
    pub fn with_decoded(
        program: &'p Program,
        plans: &'p [LoopPlan],
        cfg: MachineConfig,
        decoded: Arc<DecodedProgram>,
    ) -> Machine<'p> {
        cfg.assert_valid();
        let env = Env::for_program(program);
        let n_regs = program.n_regs as usize;
        let n_segs = plans
            .iter()
            .flat_map(|p| &p.segments)
            .map(|s| s.id.index() + 1)
            .max()
            .unwrap_or(0);
        let cores: Vec<CoreState> = (0..cfg.cores)
            .map(|id| CoreState::new(id, Thread::at_entry(program), n_regs, n_segs))
            .collect();
        let ring = cfg.ring.map(|mut rc| {
            // The ring's idle-tick short-circuit is part of the fast
            // path: the naive reference mode must pay the full
            // per-cycle walk it is meant to measure.
            rc.event_skip = cfg.fast_forward;
            RingCache::new(rc)
        });
        let n_blocks = program.graph.blocks.len();
        let mut plan_by_header = vec![None; n_blocks];
        for (i, p) in plans.iter().enumerate() {
            plan_by_header[p.header.index()] = Some(i);
        }
        let plan_blocks = plans
            .iter()
            .map(|p| {
                let mut member = vec![false; n_blocks];
                for b in &p.blocks {
                    member[b.index()] = true;
                }
                member
            })
            .collect();
        let uop_lat = decoded.insts().iter().map(inst_latency).collect();
        Machine {
            program,
            plans,
            attr: Attribution::new(cfg.cores),
            env,
            cores,
            memsys: MemSystem::new(&cfg),
            ring,
            sync: SyncState::new(n_segs, cfg.cores),
            race: RaceDetector::new(),
            now: 0,
            mode: Mode::Serial,
            plan_by_header,
            plan_blocks,
            pending_enter: None,
            protocol_errors: Vec::new(),
            loop_invocations: 0,
            iterations: 0,
            iteration_lengths: Vec::new(),
            min_iter: 0,
            min_iter_dirty: true,
            done_cores: 0,
            stall_buckets: vec![Bucket::SerialIdle; cfg.cores],
            asleep_until: vec![0; cfg.cores],
            sleep_bucket: vec![Bucket::SerialIdle; cfg.cores],
            sleep_from: vec![u64::MAX; cfg.cores],
            sleeping: vec![0; cfg.cores.div_ceil(64)],
            timed: vec![0; cfg.cores.div_ceil(64)],
            next_deadline: u64::MAX,
            due: vec![0; cfg.cores.div_ceil(64)],
            stall_guard: vec![None; cfg.cores],
            armed_guard: None,
            wake_bits: u64::MAX,
            dep_mask: vec![0; cfg.cores],
            dep_src: vec![u32::MAX; cfg.cores],
            lap_sleepers: 0,
            wait_memo: vec![WaitMemo::EMPTY; cfg.cores],
            sink: CapSink { mem: Vec::new() },
            decoded,
            uop_lat,
            cuts: Vec::new(),
            next_cut: NO_CUT,
            marks: Vec::new(),
            cfg,
        }
    }

    /// The same machine, recording a mark at each of `cuts`: sites in
    /// the order the program reaches them, such as the nest cuts of a
    /// generated program (`NestBoundary` in `helix-workloads`).
    ///
    /// The mark of a cut is `now + 1` at the first cycle in which core
    /// 0's issue loop arrives at the site with an issue slot free and no
    /// fetch bubble. That is the cycle count of the same program ended
    /// by a `ret` at the site: the `ret` would issue in that slot. Only
    /// the in-order issue loops record marks, and they are exact only on
    /// sequential runs ([`simulate_sequential`]'s machine). Marks come
    /// back as [`RunReport::marks`]; a run that never reaches a cut
    /// returns fewer marks than cuts.
    pub fn with_cuts(mut self, cuts: &[InstSite]) -> Machine<'p> {
        self.cuts = cuts.to_vec();
        self.next_cut = cuts.first().copied().unwrap_or(NO_CUT);
        self
    }

    /// Core `cid` is at [`Machine::next_cut`] with an issue slot free:
    /// mark it on core 0, along with any further cuts at the same site.
    #[cold]
    fn mark_cut(&mut self, cid: usize) {
        if cid != 0 {
            return;
        }
        let at = self.next_cut;
        while self.next_cut == at {
            self.marks.push(self.now + 1);
            self.next_cut = self.cuts.get(self.marks.len()).copied().unwrap_or(NO_CUT);
        }
    }

    /// Run to completion (or until `fuel` cycles elapse).
    ///
    /// With `cfg.fast_forward` set (the default), cycles in which every
    /// core is provably stalled are not simulated one at a time: the
    /// clock jumps to the earliest wakeup event (scoreboard ready time,
    /// ROB retirement, coherence-mediated signal observation, or ring
    /// message arrival) and the skipped cycles are bulk-charged to the
    /// same attribution buckets the naive loop would have charged.
    /// Results are cycle-exact either way.
    ///
    /// # Errors
    ///
    /// Fails on functional faults or fuel exhaustion.
    pub fn run(&mut self, fuel: u64) -> Result<RunReport, SimError> {
        // One refcount per run: every core visit borrows the tables.
        let decoded = Arc::clone(&self.decoded);
        let dec: &DecodedProgram = &decoded;
        while !self.finished() {
            if self.now >= fuel {
                return Err(SimError::FuelExhausted { cycles: self.now });
            }
            let wake = self.tick_cycle(dec)?;
            if let Some(wake) = wake {
                // Every core is stalled until `wake` at the earliest and
                // the ring has no event before then: jump there (bounded
                // by the fuel limit, where the naive loop would stop).
                let target = wake.min(fuel);
                if target > self.now {
                    let skip = target - self.now;
                    // Only awake cores: bulk sleepers accumulate the
                    // skipped window through `sleep_from` and settle at
                    // wake; charging them here would double-count.
                    let awake = set_bits(self.sleeping.iter().map(|w| !w));
                    for cid in awake.take_while(|&cid| cid < self.cfg.cores) {
                        self.attr.charge_n(cid, self.stall_buckets[cid], skip);
                    }
                    // Advance the ring by the same number of cycles the
                    // naive loop would have ticked it. The ring clock can
                    // lag the machine clock (reduction combining at a loop
                    // barrier charges machine cycles the ring never sees),
                    // so jumping the ring *to* `target` would erase that
                    // offset and shift every subsequent ready time.
                    if let Some(ring) = &mut self.ring {
                        ring.fast_forward(ring.now() + skip);
                    }
                    self.now = target;
                }
            }
        }
        self.settle_sleeps();
        Ok(self.report())
    }

    fn finished(&self) -> bool {
        matches!(self.mode, Mode::Serial) && self.cores[0].thread.finished
    }

    fn report(&self) -> RunReport {
        RunReport {
            cycles: self.now,
            dyn_insts: self.cores.iter().map(|c| c.thread.dyn_insts).sum(),
            attribution: self.attr.clone(),
            mem_digest: self.env.mem.digest(),
            ring_stats: self.ring.as_ref().map(|r| r.stats().clone()),
            mem_stats: self.memsys.stats,
            race_violations: self.race.violations.clone(),
            protocol_errors: self.protocol_errors.clone(),
            loop_invocations: self.loop_invocations,
            iterations: self.iterations,
            iteration_lengths: self.iteration_lengths.clone(),
            final_regs: self.cores[0].thread.regs.clone(),
            marks: self.marks.clone(),
        }
    }

    /// Simulate one cycle. Returns `Some(wake)` when the cycle was
    /// globally idle — every core stalled, no mode transition — and the
    /// next cycle at which anything can change is `wake`; the caller may
    /// then skip the clock straight there.
    fn tick_cycle(&mut self, dec: &DecodedProgram) -> Result<Option<u64>, SimError> {
        if let Some(ring) = &mut self.ring {
            ring.tick();
            self.wake_bits |= ring.take_wake_mask();
        }
        // Lap bound: the slowest in-flight iteration (recomputed only
        // when some core crossed an iteration boundary since the last
        // cycle — mid-cycle changes were invisible to the eager version
        // too, because it ran before the core loop).
        if self.min_iter_dirty {
            let refreshed = self
                .cores
                .iter()
                .map(|c| match c.run {
                    RunState::Iter { iter, .. } | RunState::LapHold { iter } => iter,
                    _ => u64::MAX,
                })
                .min()
                .unwrap_or(u64::MAX);
            if refreshed != self.min_iter {
                self.wake_bits |= self.lap_sleepers; // lap guards re-check
            }
            self.min_iter = refreshed;
            self.min_iter_dirty = false;
        }
        let mut all_stalled = true;
        let mut min_wake = u64::MAX;
        let any_due = self.next_deadline <= self.now;
        if any_due {
            // Every due core wakes in the loop below: mark them, and take
            // the next deadline from the timed sleepers that stay asleep.
            self.due.fill(0);
            let mut rest = u64::MAX;
            for cid in set_bits(self.timed.iter().copied()) {
                let until = self.asleep_until[cid];
                if until <= self.now {
                    self.due[cid / 64] |= 1 << (cid % 64);
                } else {
                    rest = rest.min(until);
                }
            }
            self.next_deadline = rest;
        }
        // Visit, in ascending `cid`, only the cores that can act: awake,
        // hinted, or due. Sleepers outside that set repeat their stall
        // verbatim and are charged in one batch at wake. The candidate
        // set is recomputed after every visit, so a hint that a visit
        // sets is seen by the later cores of the same cycle.
        let mut from = 0;
        while let Some(cid) = self.next_candidate(from, any_due) {
            from = cid + 1;
            if self.sleep_from[cid] != u64::MAX {
                // Hinted mid-sleep: the stall repeats verbatim while the
                // deadline is ahead and the guard (if any) holds.
                if self.now < self.asleep_until[cid] {
                    let intact = match self.stall_guard[cid] {
                        Some(guard) => self.guard_intact(cid, guard),
                        None => true,
                    };
                    if intact {
                        // Consume the hint (only exclusive owners may;
                        // shared bits just re-validate every cycle).
                        if self.cfg.cores <= 64 {
                            self.wake_bits &= !(1 << cid);
                        }
                        continue;
                    }
                }
                self.wake_core(cid);
                self.stall_guard[cid] = None;
            }
            let cycle = self.tick_core(cid, dec)?;
            let armed = self.armed_guard.take();
            match cycle {
                CoreCycle::Progress => {
                    all_stalled = false;
                    self.stall_guard[cid] = None;
                }
                CoreCycle::Stalled { bucket, wake } => {
                    self.stall_buckets[cid] = bucket;
                    min_wake = min_wake.min(wake);
                    if self.cfg.fast_forward && wake != u64::MAX {
                        // Deterministic wake: sleep through the stall.
                        self.sleep_bucket[cid] = bucket;
                        self.fall_asleep(cid, wake);
                        self.stall_guard[cid] = None;
                    } else if self.cfg.fast_forward && self.stall_guard[cid].is_none() {
                        // Event-driven wake: sleep until the stall's
                        // cause-specific inputs move (see
                        // [`StallGuard`]). In-flight ring loads are
                        // covered by the load epoch in the `Epochs`
                        // guard — except a ticket serviced *before* the
                        // guard snapshot, which can never move the
                        // epoch again; a core holding one stays awake
                        // and retires it on the next poll.
                        self.sleep_bucket[cid] = bucket;
                        self.stall_guard[cid] =
                            Some(armed.unwrap_or_else(|| self.epochs_guard(cid)));
                        let serviced_pending = !self.cores[cid].pending_ring.is_empty()
                            && self.ring.as_ref().is_some_and(|r| {
                                self.cores[cid]
                                    .pending_ring
                                    .iter()
                                    .any(|&(ticket, _)| r.load_ready(ticket).is_some())
                            });
                        if !serviced_pending {
                            self.fall_asleep(cid, u64::MAX);
                            self.register_wake_routing(cid);
                        }
                    }
                }
            }
        }
        // Every core still asleep stays so until its deadline at the
        // earliest (the cores that fell asleep this cycle included: their
        // deadline is the wake their stall reported).
        min_wake = min_wake.min(self.next_deadline);
        self.now += 1;
        let mut transition = false;
        if let Some(plan) = self.pending_enter.take() {
            self.enter_parallel(plan);
            transition = true;
        }
        if matches!(self.mode, Mode::Parallel(_)) && self.done_cores == self.cfg.cores {
            self.exit_parallel();
            transition = true;
        }
        debug_assert!(
            self.sleep_state_consistent(),
            "sleep bitsets or deadline out of step with sleep_from at cycle {}",
            self.now
        );
        if !self.cfg.fast_forward || !all_stalled || transition {
            return Ok(None);
        }
        if min_wake <= self.now {
            return Ok(None); // a core wakes immediately: nothing to skip
        }
        // Ring arrivals can grant decoupled waits, complete pending
        // loads, and drain backpressured injection queues: never skip
        // past the next ring event.
        let ring_bound = self
            .ring
            .as_ref()
            .and_then(|r| r.next_event_at())
            .unwrap_or(u64::MAX);
        Ok(Some(min_wake.min(ring_bound)))
    }

    /// Enter parallel execution of `plans[pidx]`; the orchestrator's
    /// thread is positioned at the loop header.
    fn enter_parallel(&mut self, pidx: usize) {
        self.settle_sleeps();
        self.wake_bits = u64::MAX;
        let plan = &self.plans[pidx];
        let mut r0 = self.cores[0].thread.regs.clone();
        for ind in &plan.inductions {
            r0[ind.init_copy.index()] = r0[ind.reg.index()];
        }
        for p2 in &plan.poly2 {
            r0[p2.init_copy.index()] = r0[p2.reg.index()];
        }
        let counter_entry = r0[plan.counter.index()].as_int();
        let bound = match plan.bound {
            helix_ir::Operand::Reg(r) => r0[r.index()].as_int(),
            helix_ir::Operand::Imm(v) => v.as_int(),
        };
        let trip = plan.trip_count(counter_entry, bound);
        debug_assert!(trip >= 1, "zero-trip loops stay serial");

        self.min_iter_dirty = true;
        let mut done_cores = 0;
        for (cid, core) in self.cores.iter_mut().enumerate() {
            core.thread.regs = r0.clone();
            core.thread.finished = false;
            if cid > 0 {
                for red in &plan.reductions {
                    core.thread.regs[red.reg.index()] = red.identity;
                }
            }
            for t in core.reg_ready.iter_mut() {
                *t = self.now;
            }
            core.reset_iteration();
            core.pending_ring.clear();
            core.fetch_stall_until = 0;
            if (cid as u64) < trip {
                core.thread.block = plan.iteration_entry;
                core.thread.ip = 0;
                core.thread.regs[plan.iter_reg.index()] = Value::Int(cid as i64);
                core.run = RunState::Iter {
                    iter: cid as u64,
                    started_at: self.now,
                };
            } else {
                core.run = RunState::NoWork;
                done_cores += 1;
            }
        }
        self.done_cores = done_cores;
        self.sync.begin_loop();
        self.race.begin_loop();
        self.asleep_until.iter_mut().for_each(|t| *t = 0);
        self.stall_guard.iter_mut().for_each(|g| *g = None);
        self.wait_memo.iter_mut().for_each(|m| *m = WaitMemo::EMPTY);
        if let Some(ring) = &mut self.ring {
            ring.begin_loop();
        }
        let mut lastwriter_regs = vec![false; self.program.n_regs as usize];
        for l in &plan.liveouts {
            if l.resolve == LiveOutResolve::LastWriter {
                lastwriter_regs[l.reg.index()] = true;
            }
        }
        self.mode = Mode::Parallel(ParCtx {
            plan: pidx,
            trip,
            r0,
            last_writer: vec![None; self.program.n_regs as usize],
            has_lastwriter: lastwriter_regs.iter().any(|&b| b),
            lastwriter_regs,
            seg_ids: plan.segments.iter().map(|s| s.id).collect(),
        });
        self.loop_invocations += 1;
    }

    /// Loop barrier: flush the ring, resolve live-outs, resume serial
    /// execution at the loop's exit block.
    fn exit_parallel(&mut self) {
        self.settle_sleeps();
        self.wake_bits = u64::MAX;
        let Mode::Parallel(ctx) = std::mem::replace(&mut self.mode, Mode::Serial) else {
            unreachable!("exit_parallel outside parallel mode");
        };
        let plan = &self.plans[ctx.plan];

        // Distributed fence: drain and flush the ring cache.
        if let Some(ring) = &mut self.ring {
            let cost = ring.flush();
            self.now += cost;
            for cid in 0..self.cfg.cores {
                self.attr.charge_n(cid, Bucket::Communication, cost);
            }
        }

        // Resolve live-outs into the orchestrator's register file.
        let mut regs = ctx.r0.clone();
        let trip = ctx.trip as i64;
        for ind in &plan.inductions {
            let init = ctx.r0[ind.init_copy.index()].as_int();
            regs[ind.reg.index()] = Value::Int(init.wrapping_add(ind.step.wrapping_mul(trip)));
        }
        for p2 in &plan.poly2 {
            let r0v = ctx.r0[p2.init_copy.index()].as_int();
            let s0 = plan
                .inductions
                .iter()
                .find(|i| i.reg == p2.step_reg)
                .map(|i| ctx.r0[i.init_copy.index()].as_int())
                .unwrap_or(0);
            let k = trip;
            let val = r0v
                .wrapping_add(s0.wrapping_mul(k))
                .wrapping_add(p2.step_step.wrapping_mul(k.wrapping_mul(k - 1) / 2));
            regs[p2.reg.index()] = Value::Int(val);
        }
        for red in &plan.reductions {
            let mut acc = self.cores[0].thread.regs[red.reg.index()];
            for core in self.cores.iter().skip(1) {
                acc = red.op.eval(acc, core.thread.regs[red.reg.index()]);
            }
            regs[red.reg.index()] = acc;
        }
        // Reduction combining costs a serialized pass over the cores.
        let combine_cost = (plan.reductions.len() * self.cfg.cores) as u64;
        if combine_cost > 0 {
            self.now += combine_cost;
            self.attr.charge_n(0, Bucket::AdditionalInsts, combine_cost);
            for cid in 1..self.cfg.cores {
                self.attr.charge_n(cid, Bucket::SerialIdle, combine_cost);
            }
        }
        for (reg, entry) in ctx.last_writer.iter().enumerate() {
            if let Some((_iter, core)) = entry {
                regs[reg] = self.cores[*core].thread.regs[reg];
            }
        }

        self.asleep_until.iter_mut().for_each(|t| *t = 0);
        self.stall_guard.iter_mut().for_each(|g| *g = None);
        let core0 = &mut self.cores[0];
        core0.thread.regs = regs;
        core0.thread.block = plan.exit_resume;
        core0.thread.ip = 0;
        core0.thread.finished = false;
        core0.run = RunState::SerialActive;
        for t in core0.reg_ready.iter_mut() {
            *t = self.now;
        }
        for core in self.cores.iter_mut().skip(1) {
            core.run = RunState::SerialIdle;
        }
    }

    /// Wait-grant check for `core` at `iter` on segment `seg`. On
    /// failure also reports the earliest cycle the check's outcome can
    /// change on its own (`u64::MAX` when only another core's signal or
    /// a ring arrival can change it — both covered by other wake
    /// sources).
    fn check_wait(
        &mut self,
        core: usize,
        seg: SegmentId,
        iter: u64,
    ) -> Result<(), (WaitBlock, u64)> {
        let n = self.cfg.cores;
        // Sources confirmed on an earlier cycle stay confirmed: signal
        // counts only grow and observation deadlines never move. Resume
        // the scan where it last stopped (optimized path only; the naive
        // loop re-checks everything, like the original per-cycle loop).
        let memo_valid = self.cfg.fast_forward
            && self.wait_memo[core].seg == seg
            && self.wait_memo[core].iter == iter;
        let mut confirmed = if memo_valid {
            self.wait_memo[core].confirmed as usize
        } else {
            0
        };
        // Fast re-check of the memoized first-unsatisfied source: one
        // counter compare instead of rebuilding the source iterator.
        // Only the decoupled path takes it — the coherence path's
        // outcome also depends on `now`, which moves every cycle.
        if memo_valid && self.cfg.decouple.synch {
            let m = self.wait_memo[core];
            if m.src != u32::MAX {
                let src = m.src as usize;
                let ring = self.ring.as_ref().expect("decoupled sync needs a ring");
                if ring.signal_count(core, seg, src) < m.need {
                    let dependence = self.sync.count(seg, src) < m.need;
                    self.armed_guard = Some(StallGuard::Wait {
                        seg,
                        src: m.src,
                        need: m.need,
                        ring_count: ring.signal_count(core, seg, src),
                        dependence,
                    });
                    let block = if dependence {
                        WaitBlock::Dependence
                    } else {
                        WaitBlock::Communication
                    };
                    return Err((block, u64::MAX));
                }
                // Satisfied since last time: fold it into the confirmed
                // prefix and rescan from there.
                confirmed += 1;
                self.wait_memo[core].confirmed = confirmed as u32;
                self.wait_memo[core].src = u32::MAX;
            }
        }
        let mut blocked_at: Option<(usize, u64)> = None;
        let result = (|| {
            for src in required_sources_iter(self.cfg.sync, core, n).skip(confirmed) {
                let k = required_count(src, iter, n);
                if k == 0 {
                    confirmed += 1;
                    continue;
                }
                if self.cfg.decouple.synch {
                    let ring = self.ring.as_ref().expect("decoupled sync needs a ring");
                    if ring.signal_count(core, seg, src) < k {
                        blocked_at = Some((src, k));
                        let block = if self.sync.count(seg, src) < k {
                            WaitBlock::Dependence
                        } else {
                            WaitBlock::Communication
                        };
                        return Err((block, u64::MAX));
                    }
                } else {
                    match self.sync.kth_time(seg, src, k) {
                        None => {
                            blocked_at = Some((src, k));
                            return Err((WaitBlock::Dependence, u64::MAX));
                        }
                        Some(t) => {
                            let observe_at = t + self.cfg.c2c_latency as u64 + SPIN_OVERHEAD;
                            if self.now < observe_at {
                                return Err((WaitBlock::Communication, observe_at));
                            }
                        }
                    }
                }
                confirmed += 1;
            }
            Ok(())
        })();
        if self.cfg.fast_forward {
            let (src, need) = blocked_at.map_or((u32::MAX, 0), |(s, k)| (s as u32, k));
            self.wait_memo[core] = WaitMemo {
                seg,
                iter,
                confirmed: confirmed as u32,
                src,
                need,
            };
            // Arm the cause-specific guard for event-driven blocks: the
            // stall holds until `src` delivers (decoupled grant) or
            // executes (Dependence classification) its `need`-th signal.
            if let (Some((src, need)), Err((block, _))) = (blocked_at, &result) {
                let ring_count = if self.cfg.decouple.synch {
                    self.ring
                        .as_ref()
                        .map_or(u64::MAX, |r| r.signal_count(core, seg, src))
                } else {
                    u64::MAX
                };
                self.armed_guard = Some(StallGuard::Wait {
                    seg,
                    src: src as u32,
                    need,
                    ring_count,
                    dependence: *block == WaitBlock::Dependence,
                });
            }
        }
        result
    }

    /// Route a load and return `(completion cycle, stall class)`, or
    /// `None` when the ring applied backpressure.
    #[allow(clippy::too_many_arguments)]
    fn route_load(
        &mut self,
        cid: usize,
        addr: u64,
        shared: Option<helix_ir::SharedTag>,
        dst: Reg,
        issue_at: u64,
    ) -> Option<(u64, Bucket)> {
        let decoupled = match shared.map(|t| t.class) {
            Some(helix_ir::TrafficClass::RegisterCarried) => self.cfg.decouple.register,
            Some(helix_ir::TrafficClass::MemoryCarried) => self.cfg.decouple.memory,
            None => false,
        };
        if decoupled {
            let ring = self.ring.as_mut().expect("decoupling requires ring");
            match ring.load(cid, addr) {
                LoadIssue::Hit { ready_at } => {
                    Some((ready_at.max(issue_at), Bucket::Communication))
                }
                LoadIssue::Pending { ticket } => {
                    self.cores[cid].pending_ring.push((ticket, dst));
                    Some((u64::MAX, Bucket::Communication))
                }
            }
        } else {
            let done = self.memsys.access(cid, addr, false, issue_at);
            let class = if shared.is_some() {
                Bucket::Communication
            } else {
                Bucket::Memory
            };
            Some((done, class))
        }
    }

    /// Route a store; returns `false` on ring backpressure.
    fn route_store(
        &mut self,
        cid: usize,
        addr: u64,
        shared: Option<helix_ir::SharedTag>,
        issue_at: u64,
    ) -> bool {
        let decoupled = match shared.map(|t| t.class) {
            Some(helix_ir::TrafficClass::RegisterCarried) => self.cfg.decouple.register,
            Some(helix_ir::TrafficClass::MemoryCarried) => self.cfg.decouple.memory,
            None => false,
        };
        if decoupled {
            let ring = self.ring.as_mut().expect("decoupling requires ring");
            ring.store(cid, addr)
        } else {
            // Fire-and-forget through the store buffer; coherence state
            // updates immediately, the core does not wait.
            let _ = self.memsys.access(cid, addr, true, issue_at);
            true
        }
    }

    /// Handle end-of-iteration bookkeeping; returns whether the core
    /// continues with another iteration this invocation.
    fn end_iteration(&mut self, cid: usize) {
        let Mode::Parallel(ctx) = &mut self.mode else {
            unreachable!("iteration end outside parallel mode");
        };
        let (iter, started_at) = match self.cores[cid].run {
            RunState::Iter { iter, started_at } => (iter, started_at),
            _ => unreachable!("iteration end on non-iterating core"),
        };
        self.iterations += 1;
        if self.iteration_lengths.len() < MAX_ITER_SAMPLES {
            self.iteration_lengths
                .push((self.now - started_at).min(u32::MAX as u64) as u32);
        }
        // Every segment must have been signalled on every path.
        for seg in &ctx.seg_ids {
            if !self.cores[cid].signaled.contains(seg) {
                self.protocol_errors.push(format!(
                    "core {cid} finished iteration {iter} without signalling {seg}"
                ));
            }
        }
        let next = iter + self.cfg.cores as u64;
        let core = &mut self.cores[cid];
        core.reset_iteration();
        if next < ctx.trip {
            core.run = RunState::LapHold { iter: next };
        } else {
            core.run = RunState::FinishedLoop;
            self.done_cores += 1;
        }
        self.min_iter_dirty = true;
    }

    /// Try to start iteration `iter` on `cid` (subject to the lap bound).
    fn try_start_iteration(&mut self, cid: usize, iter: u64) -> bool {
        // One-lap-ahead bound: keeps at most two signals per segment in
        // flight (paper §4's last code property).
        let bound = self.min_iter.saturating_add(2 * self.cfg.cores as u64);
        if iter > bound {
            return false;
        }
        let Mode::Parallel(ctx) = &self.mode else {
            return false;
        };
        let plan = &self.plans[ctx.plan];
        let core = &mut self.cores[cid];
        core.thread.regs[plan.iter_reg.index()] = Value::Int(iter as i64);
        core.reg_ready[plan.iter_reg.index()] = self.now;
        core.thread.block = plan.iteration_entry;
        core.thread.ip = 0;
        core.run = RunState::Iter {
            iter,
            started_at: self.now,
        };
        true
    }

    /// The catch-all snapshot of every event-driven stall input for
    /// `cid`.
    fn epochs_guard(&self, cid: usize) -> StallGuard {
        let (ring_sig, inject, loads) = match &self.ring {
            Some(r) => (r.signal_epoch(cid), r.inject_epoch(cid), r.load_epoch(cid)),
            None => (0, 0, 0),
        };
        StallGuard::Epochs {
            ring_sig,
            inject,
            loads,
        }
    }

    /// Whether `cid`'s armed guard still holds, i.e. none of the
    /// stall's inputs moved since it was recorded.
    fn guard_intact(&self, cid: usize, guard: StallGuard) -> bool {
        match guard {
            StallGuard::Epochs { .. } => guard == self.epochs_guard(cid),
            StallGuard::Wait {
                seg,
                src,
                need,
                ring_count,
                dependence,
            } => {
                let grant_stable = ring_count == u64::MAX
                    || self
                        .ring
                        .as_ref()
                        .is_some_and(|r| r.signal_count(cid, seg, src as usize) == ring_count);
                grant_stable && (!dependence || self.sync.count(seg, src as usize) < need)
            }
            StallGuard::Lap { min_iter } => min_iter == self.min_iter,
            StallGuard::Forever => true,
        }
    }

    /// Deregister `cid` from the targeted wake routing (dependence and
    /// lap masks) as it leaves its sleep.
    fn clear_wake_routing(&mut self, cid: usize) {
        let bit = 1u64 << (cid as u64 & 63);
        let src = self.dep_src[cid];
        if src != u32::MAX {
            self.dep_mask[src as usize] &= !bit;
            self.dep_src[cid] = u32::MAX;
        }
        self.lap_sleepers &= !bit;
    }

    /// Register `cid`'s freshly armed sleep with the targeted wake
    /// routing, so only the events its guard actually reads set its
    /// wake bit.
    fn register_wake_routing(&mut self, cid: usize) {
        let bit = 1u64 << (cid as u64 & 63);
        match self.stall_guard[cid] {
            Some(StallGuard::Wait {
                src,
                dependence: true,
                ..
            }) => {
                self.dep_mask[src as usize] |= bit;
                self.dep_src[cid] = src;
            }
            Some(StallGuard::Lap { .. }) => {
                self.lap_sleepers |= bit;
            }
            _ => {}
        }
    }

    /// Charge every bulk-sleeping core for its accumulated stall window
    /// `[sleep_from, now)` and mark it awake. Called at mode
    /// transitions and at run end — the points where sleeps end for
    /// reasons other than their own wake conditions.
    fn settle_sleeps(&mut self) {
        for w in 0..self.sleeping.len() {
            while self.sleeping[w] != 0 {
                self.wake_core(w * 64 + self.sleeping[w].trailing_zeros() as usize);
            }
        }
        self.next_deadline = u64::MAX;
    }

    /// Put core `cid` to sleep from the next cycle until `until`
    /// (`u64::MAX`: until its stall guard breaks).
    fn fall_asleep(&mut self, cid: usize, until: u64) {
        self.asleep_until[cid] = until;
        self.sleep_from[cid] = self.now + 1;
        let (w, bit) = (cid / 64, 1u64 << (cid % 64));
        self.sleeping[w] |= bit;
        if until != u64::MAX {
            self.timed[w] |= bit;
            self.next_deadline = self.next_deadline.min(until);
        }
    }

    /// Wake sleeping core `cid`: charge its window `[sleep_from, now)`,
    /// leave its wake routing and drop it from the bitsets. Inside the
    /// core loop a timed core wakes only when due, and the due scan
    /// already left it out of `next_deadline`.
    fn wake_core(&mut self, cid: usize) {
        let elapsed = self.now - self.sleep_from[cid];
        if elapsed > 0 {
            self.attr.charge_n(cid, self.sleep_bucket[cid], elapsed);
        }
        self.sleep_from[cid] = u64::MAX;
        self.clear_wake_routing(cid);
        let (w, bit) = (cid / 64, 1u64 << (cid % 64));
        self.sleeping[w] &= !bit;
        self.timed[w] &= !bit;
    }

    /// The first core at or after `from` that this cycle's loop must
    /// visit: awake, hinted (bit `cid % 64` of `wake_bits`, which every
    /// word shares above 64 cores), or — when `any_due` — due.
    fn next_candidate(&self, from: usize, any_due: bool) -> Option<usize> {
        let mut w = from / 64;
        let mut mask = u64::MAX << (from % 64);
        while let Some(&asleep) = self.sleeping.get(w) {
            let mut word = !asleep | self.wake_bits;
            if any_due {
                word |= self.due[w];
            }
            word &= mask;
            if word != 0 {
                let cid = w * 64 + word.trailing_zeros() as usize;
                return (cid < self.cfg.cores).then_some(cid);
            }
            w += 1;
            mask = u64::MAX;
        }
        None
    }

    /// Whether the sleep bitsets hold exactly the sleeping cores (and
    /// the timed ones), and `next_deadline` is their earliest deadline.
    fn sleep_state_consistent(&self) -> bool {
        let mut deadline = u64::MAX;
        let sets_agree = (0..self.sleeping.len() * 64).all(|cid| {
            let (w, bit) = (cid / 64, 1u64 << (cid % 64));
            let asleep = cid < self.cfg.cores && self.sleep_from[cid] != u64::MAX;
            let timed = asleep && self.asleep_until[cid] != u64::MAX;
            if asleep {
                deadline = deadline.min(self.asleep_until[cid]);
            }
            (self.sleeping[w] & bit != 0) == asleep && (self.timed[w] & bit != 0) == timed
        });
        sets_agree && deadline == self.next_deadline
    }

    /// Charge one cycle of a pure-idle run state. These states change
    /// only at mode transitions (which settle and clear every sleep),
    /// so on the optimized path the core sleeps indefinitely and skips
    /// the per-cycle re-evaluation entirely.
    fn idle_cycle(&mut self, cid: usize, bucket: Bucket) -> CoreCycle {
        self.attr.charge(cid, bucket);
        self.armed_guard = Some(StallGuard::Forever);
        CoreCycle::Stalled {
            bucket,
            wake: u64::MAX,
        }
    }

    /// One cycle of core `cid`. Reports whether the core made progress
    /// or is provably stalled (and until when), for the fast-forward.
    fn tick_core(&mut self, cid: usize, dec: &DecodedProgram) -> Result<CoreCycle, SimError> {
        // Resolve completed ring loads (allocation-free: retire in
        // place, in ticket order, exactly as the two-pass version did).
        let mut resolved_any = false;
        if !self.cores[cid].pending_ring.is_empty() {
            if let Some(ring) = self.ring.as_mut() {
                let core = &mut self.cores[cid];
                let reg_ready = &mut core.reg_ready;
                core.pending_ring
                    .retain(|&(ticket, reg)| match ring.take_ready(ticket) {
                        Some(ready) => {
                            reg_ready[reg.index()] = ready;
                            resolved_any = true;
                            false
                        }
                        None => true,
                    });
            }
        }
        // Conditional sleep: a guarded event-driven stall repeats
        // verbatim while none of its inputs moved (a completed ring
        // load, the remaining wake source, is `resolved_any` above).
        if resolved_any {
            self.stall_guard[cid] = None;
        } else if let Some(guard) = self.stall_guard[cid] {
            if self.guard_intact(cid, guard) {
                let bucket = self.sleep_bucket[cid];
                self.attr.charge(cid, bucket);
                return Ok(CoreCycle::Stalled {
                    bucket,
                    wake: u64::MAX,
                });
            }
            self.stall_guard[cid] = None; // stale: re-evaluate below
        }

        let mut lap_started = false;
        match self.cores[cid].run {
            RunState::SerialIdle | RunState::Done => {
                return Ok(self.idle_cycle(cid, Bucket::SerialIdle));
            }
            RunState::NoWork => {
                return Ok(self.idle_cycle(cid, Bucket::LowTripCount));
            }
            RunState::FinishedLoop => {
                return Ok(self.idle_cycle(cid, Bucket::IterationImbalance));
            }
            RunState::LapHold { iter } => {
                if !self.try_start_iteration(cid, iter) {
                    self.attr.charge(cid, Bucket::Communication);
                    // The lap bound only moves when another core
                    // finishes an iteration.
                    self.armed_guard = Some(StallGuard::Lap {
                        min_iter: self.min_iter,
                    });
                    return Ok(CoreCycle::Stalled {
                        bucket: Bucket::Communication,
                        wake: u64::MAX,
                    });
                }
                lap_started = true;
                // Started: fall through into execution this cycle.
            }
            RunState::SerialActive | RunState::Iter { .. } => {}
        }
        if self.cores[cid].thread.finished {
            self.cores[cid].run = RunState::Done;
            self.attr.charge(cid, Bucket::SerialIdle);
            return Ok(CoreCycle::Progress); // state changed this cycle
        }

        let cycle = match self.cfg.core {
            CoreModel::InOrder { width } => self.tick_inorder(cid, width, dec)?,
            CoreModel::OutOfOrder { width, rob } => self.tick_ooo(cid, width, rob, dec)?,
        };
        if resolved_any || lap_started {
            return Ok(CoreCycle::Progress);
        }
        Ok(cycle)
    }

    /// In-order, stall-on-use issue of up to `width` micro-ops. Timing
    /// reads the decoded tables whatever the engine; only the functional
    /// step differs ([`Machine::step_functional`]).
    fn tick_inorder(
        &mut self,
        cid: usize,
        width: u32,
        dec: &DecodedProgram,
    ) -> Result<CoreCycle, SimError> {
        let now = self.now;
        let mut issued = 0u32;
        let mut any_original = false;
        let mut any_added = false;
        let mut stall: Option<Bucket> = None;
        let mut wake = u64::MAX;

        while issued < width {
            if now < self.cores[cid].fetch_stall_until {
                if issued == 0 {
                    stall = Some(Bucket::Computation); // branch redirect bubble
                    wake = self.cores[cid].fetch_stall_until;
                }
                break;
            }
            let th = &self.cores[cid].thread;
            if th.finished {
                break;
            }
            if th.block == self.next_cut.block && th.ip == self.next_cut.index {
                self.mark_cut(cid);
            }
            let th = &self.cores[cid].thread;
            let meta = dec.block(th.block);
            if th.ip >= meta.len as usize {
                // Terminator next.
                let term = meta.term;
                if term.kind == DTermKind::Branch && term.cond.reg != NO_REG {
                    let r = Reg(term.cond.reg);
                    if let Some((r, class)) = self.cores[cid].blocking_reg(&[r], now) {
                        if issued == 0 {
                            stall = Some(class);
                            wake = self.cores[cid].reg_ready[r.index()];
                        }
                        break;
                    }
                }
                let stop = self.issue_terminator(cid, dec, term)?;
                issued += 1;
                any_original = true;
                if stop {
                    break;
                }
                continue;
            }
            let pc = meta.start as usize + th.ip;
            let u = &dec.uops[pc];

            match u.kind {
                UOpKind::Wait { seg } => {
                    if !self.cores[cid].granted.contains(&seg) {
                        let iter = match self.cores[cid].run {
                            RunState::Iter { iter, .. } => iter,
                            _ => 0,
                        };
                        let in_parallel = matches!(self.mode, Mode::Parallel(_));
                        if in_parallel {
                            match self.check_wait(cid, seg, iter) {
                                Ok(()) => {
                                    self.cores[cid].granted.insert(seg);
                                }
                                Err((block, observe_at)) => {
                                    if issued == 0 {
                                        stall = Some(match block {
                                            WaitBlock::Dependence => Bucket::DependenceWaiting,
                                            WaitBlock::Communication => Bucket::Communication,
                                        });
                                        wake = observe_at;
                                    }
                                    break;
                                }
                            }
                        } else {
                            self.cores[cid].granted.insert(seg);
                        }
                    }
                    self.step_functional(cid, dec)?;
                    issued += 1;
                    // wait/signal instructions are charged to their own
                    // bucket unless real work issued too.
                }
                UOpKind::Signal { seg } => {
                    if !self.cores[cid].signaled.contains(&seg)
                        && matches!(self.mode, Mode::Parallel(_))
                    {
                        if self.cfg.decouple.synch {
                            let ring = self.ring.as_mut().expect("ring");
                            if !ring.signal(cid, seg) {
                                if issued == 0 {
                                    stall = Some(Bucket::Communication);
                                    wake = u64::MAX; // drains at a ring event
                                }
                                break;
                            }
                        }
                        self.sync.record_signal(seg, cid, now);
                        // Wake exactly the sleepers dependence-blocked
                        // on this core's signals.
                        self.wake_bits |= self.dep_mask[cid];
                        self.cores[cid].signaled.insert(seg);
                    }
                    self.step_functional(cid, dec)?;
                    issued += 1;
                }
                UOpKind::Load { dst, .. } => {
                    if let Some((r, class)) = self.cores[cid].blocking_slot(dec.uses(u), now) {
                        if issued == 0 {
                            stall = Some(class);
                            wake = self.cores[cid].reg_ready[r.index()];
                        }
                        break;
                    }
                    let a = u.eval_addr(&self.cores[cid].thread.regs);
                    let Some((done, class)) = self.route_load(cid, a, u.shared, Reg(dst), now)
                    else {
                        if issued == 0 {
                            stall = Some(Bucket::Communication);
                            wake = u64::MAX; // ring backpressure
                        }
                        break;
                    };
                    let is_added = u.is_added;
                    self.step_functional(cid, dec)?;
                    let core = &mut self.cores[cid];
                    core.reg_ready[dst as usize] = done; // u64::MAX while pending
                    core.reg_class[dst as usize] = class;
                    issued += 1;
                    if is_added {
                        any_added = true;
                    } else {
                        any_original = true;
                    }
                }
                UOpKind::Store { .. } => {
                    if let Some((r, class)) = self.cores[cid].blocking_slot(dec.uses(u), now) {
                        if issued == 0 {
                            stall = Some(class);
                            wake = self.cores[cid].reg_ready[r.index()];
                        }
                        break;
                    }
                    let a = u.eval_addr(&self.cores[cid].thread.regs);
                    if !self.route_store(cid, a, u.shared, now) {
                        if issued == 0 {
                            stall = Some(Bucket::Communication);
                            wake = u64::MAX; // ring backpressure
                        }
                        break;
                    }
                    let is_added = u.is_added;
                    self.step_functional(cid, dec)?;
                    issued += 1;
                    if is_added {
                        any_added = true;
                    } else {
                        any_original = true;
                    }
                }
                _ => {
                    if let Some((r, class)) = self.cores[cid].blocking_slot(dec.uses(u), now) {
                        if issued == 0 {
                            stall = Some(class);
                            wake = self.cores[cid].reg_ready[r.index()];
                        }
                        break;
                    }
                    let lat = self.uop_lat[pc] as u64;
                    let dst = u.dst;
                    let is_added = u.is_added;
                    self.step_functional(cid, dec)?;
                    if dst != NO_REG {
                        let core = &mut self.cores[cid];
                        core.reg_ready[dst as usize] = now + lat;
                        core.reg_class[dst as usize] = Bucket::Computation;
                    }
                    issued += 1;
                    if self.in_prologue(cid) || is_added {
                        any_added = true;
                    } else {
                        any_original = true;
                    }
                }
            }
        }

        // Attribute this cycle.
        let bucket = if issued > 0 {
            if any_original {
                Bucket::Computation
            } else if any_added {
                Bucket::AdditionalInsts
            } else {
                Bucket::WaitSignal
            }
        } else {
            stall.unwrap_or(Bucket::Computation)
        };
        self.attr.charge(cid, bucket);
        if issued > 0 {
            return Ok(CoreCycle::Progress);
        }
        if stall.is_none() {
            wake = now + 1;
        }
        Ok(CoreCycle::Stalled { bucket, wake })
    }

    /// Issue a terminator; returns `true` when the issue loop must stop
    /// (iteration boundary or parallel-loop entry).
    fn issue_terminator(
        &mut self,
        cid: usize,
        dec: &DecodedProgram,
        term: DTerm,
    ) -> Result<bool, SimError> {
        let now = self.now;
        let from = self.cores[cid].thread.block;
        let event = self.step_functional(cid, dec)?;
        let StepEvent::Flow { to, .. } = event else {
            // Return: the thread is finished.
            return Ok(true);
        };
        // Branch prediction.
        if term.kind == DTermKind::Branch {
            let taken = to == term.then_;
            let correct = self.cores[cid].predictor.update(from, taken);
            if !correct {
                self.cores[cid].fetch_stall_until = now + 1 + self.cfg.mispredict_penalty as u64;
            }
        }
        Ok(self.post_flow(cid, from, to))
    }

    /// Execute the next instruction functionally, feeding the race
    /// detector and live-out tracking. [`EngineSel::Tree`] steps the
    /// reference interpreter over the IR; the other engines step the
    /// decoded micro-ops.
    fn step_functional(&mut self, cid: usize, dec: &DecodedProgram) -> Result<StepEvent, SimError> {
        self.sink.mem.clear();
        let thread = &mut self.cores[cid].thread;
        let event = if self.cfg.engine == EngineSel::Tree {
            thread.step(self.program, &mut self.env, &mut self.sink)?
        } else {
            dec.step(thread, &mut self.env, &mut self.sink)?
        };
        if matches!(self.mode, Mode::Parallel(_)) {
            // Only defs matter for LastWriter; re-peek is impossible
            // (already stepped), so check the previous micro-op.
            let prev_def = if matches!(&self.mode, Mode::Parallel(ctx) if ctx.has_lastwriter) {
                let th = &self.cores[cid].thread;
                (th.ip > 0)
                    .then(|| dec.uop_at(th.block, th.ip - 1))
                    .flatten()
                    .map(|u| u.dst)
                    .filter(|&d| d != NO_REG)
            } else {
                None
            };
            self.post_step_parallel(cid, prev_def);
        }
        Ok(event)
    }

    /// Post-step bookkeeping for a functional step taken inside a
    /// parallel loop: feed the race detector with the step's memory
    /// accesses and track LastWriter live-out defs.
    fn post_step_parallel(&mut self, cid: usize, prev_def: Option<u32>) {
        let mem = std::mem::take(&mut self.sink.mem);
        for access in &mem {
            let in_window = access
                .shared
                .map(|t| {
                    self.cores[cid].granted.contains(&t.seg)
                        && !self.cores[cid].signaled.contains(&t.seg)
                })
                .unwrap_or(false);
            self.race.on_access(
                cid,
                access.addr,
                access.len,
                access.is_store,
                access.shared,
                in_window,
            );
        }
        // Hand the buffer back for reuse.
        self.sink.mem = mem;
        // LastWriter live-out tracking.
        if let Mode::Parallel(ctx) = &mut self.mode {
            if let Some(d) = prev_def {
                if ctx.lastwriter_regs[d as usize] {
                    if let RunState::Iter { iter, .. } = self.cores[cid].run {
                        let e = &mut ctx.last_writer[d as usize];
                        match e {
                            Some((last, core)) if iter >= *last => {
                                *last = iter;
                                *core = cid;
                            }
                            None => *e = Some((iter, cid)),
                            _ => {}
                        }
                    }
                }
            }
        }
    }

    /// Whether `cid`'s program counter is inside a re-computation
    /// prologue block (everything there is parallelization overhead).
    fn in_prologue(&self, cid: usize) -> bool {
        if let Mode::Parallel(ctx) = &self.mode {
            self.cores[cid].thread.block == self.plans[ctx.plan].iteration_entry
        } else {
            false
        }
    }

    /// Out-of-order dispatch of up to `width` micro-ops into a
    /// `rob_cap`-entry window.
    fn tick_ooo(
        &mut self,
        cid: usize,
        width: u32,
        rob_cap: u32,
        dec: &DecodedProgram,
    ) -> Result<CoreCycle, SimError> {
        let now = self.now;
        // Retire completed entries in order.
        let mut retired = 0;
        while retired < width {
            match self.cores[cid].rob.front() {
                Some(e) if e.complete <= now => {
                    self.cores[cid].rob.pop_front();
                    retired += 1;
                }
                _ => break,
            }
        }

        let mut dispatched = 0u32;
        let mut any_original = false;
        let mut any_added = false;
        let mut stall: Option<Bucket> = None;
        let mut wake = u64::MAX;
        let rob_head_wake = self.cores[cid]
            .rob
            .front()
            .map(|e| e.complete.max(now + 1))
            .unwrap_or(u64::MAX);

        while dispatched < width {
            if now < self.cores[cid].fetch_stall_until {
                if dispatched == 0 {
                    stall = Some(Bucket::Computation);
                    wake = self.cores[cid].fetch_stall_until;
                }
                break;
            }
            if self.cores[cid].rob.len() >= rob_cap as usize {
                if dispatched == 0 {
                    stall = Some(
                        self.cores[cid]
                            .rob
                            .front()
                            .map(|e| e.class)
                            .unwrap_or(Bucket::Computation),
                    );
                    wake = rob_head_wake;
                }
                break;
            }
            let th = &self.cores[cid].thread;
            if th.finished {
                break;
            }
            let meta = dec.block(th.block);
            if th.ip >= meta.len as usize {
                let term = meta.term;
                // Branch resolution happens when the condition is ready.
                let resolve_at = if term.kind == DTermKind::Branch && term.cond.reg != NO_REG {
                    self.cores[cid].reg_ready[term.cond.reg as usize].max(now)
                } else {
                    now
                };
                if resolve_at == u64::MAX {
                    if dispatched == 0 {
                        stall = Some(Bucket::Communication);
                        wake = u64::MAX; // awaits an outstanding ring load
                    }
                    break;
                }
                let from = self.cores[cid].thread.block;
                let event = self.step_functional(cid, dec)?;
                dispatched += 1;
                any_original = true;
                self.cores[cid].rob.push_back(RobEntry {
                    complete: resolve_at.saturating_add(1),
                    class: Bucket::Computation,
                });
                let StepEvent::Flow { to, .. } = event else {
                    break;
                };
                if term.kind == DTermKind::Branch {
                    let taken = to == term.then_;
                    let correct = self.cores[cid].predictor.update(from, taken);
                    if !correct {
                        self.cores[cid].fetch_stall_until =
                            resolve_at + 1 + self.cfg.mispredict_penalty as u64;
                    }
                }
                let stop = self.post_flow(cid, from, to);
                if stop {
                    break;
                }
                continue;
            }
            let pc = meta.start as usize + th.ip;
            let u = &dec.uops[pc];
            match u.kind {
                UOpKind::Wait { .. } | UOpKind::Signal { .. } => {
                    // Fence: dispatch only with an empty window.
                    if !self.cores[cid].rob.is_empty() {
                        if dispatched == 0 {
                            stall = Some(
                                self.cores[cid]
                                    .rob
                                    .front()
                                    .map(|e| e.class)
                                    .unwrap_or(Bucket::Computation),
                            );
                            wake = rob_head_wake;
                        }
                        break;
                    }
                    let before = self.cores[cid].thread.dyn_insts;
                    self.sync_step(cid, dec, u.kind, &mut stall, &mut wake, dispatched)?;
                    if self.cores[cid].thread.dyn_insts == before {
                        break; // blocked
                    }
                    dispatched += 1;
                }
                UOpKind::Load { dst, .. } => {
                    let ops_ready = self.cores[cid].slots_ready(dec.uses(u)).max(now);
                    if ops_ready == u64::MAX {
                        if dispatched == 0 {
                            stall = Some(Bucket::Communication);
                            wake = u64::MAX; // awaits an outstanding ring load
                        }
                        break;
                    }
                    let a = u.eval_addr(&self.cores[cid].thread.regs);
                    let Some((done, class)) =
                        self.route_load(cid, a, u.shared, Reg(dst), ops_ready)
                    else {
                        if dispatched == 0 {
                            stall = Some(Bucket::Communication);
                            wake = u64::MAX; // ring backpressure
                        }
                        break;
                    };
                    let is_added = u.is_added;
                    self.step_functional(cid, dec)?;
                    let core = &mut self.cores[cid];
                    core.reg_ready[dst as usize] = done; // u64::MAX while pending
                    core.reg_class[dst as usize] = class;
                    let complete = if done == u64::MAX { now + 1 } else { done };
                    core.rob.push_back(RobEntry { complete, class });
                    dispatched += 1;
                    if is_added {
                        any_added = true;
                    } else {
                        any_original = true;
                    }
                }
                UOpKind::Store { .. } => {
                    let ops_ready = self.cores[cid].slots_ready(dec.uses(u)).max(now);
                    if ops_ready == u64::MAX {
                        if dispatched == 0 {
                            stall = Some(Bucket::Communication);
                            wake = u64::MAX; // awaits an outstanding ring load
                        }
                        break;
                    }
                    let a = u.eval_addr(&self.cores[cid].thread.regs);
                    if !self.route_store(cid, a, u.shared, ops_ready) {
                        if dispatched == 0 {
                            stall = Some(Bucket::Communication);
                            wake = u64::MAX; // ring backpressure
                        }
                        break;
                    }
                    let is_added = u.is_added;
                    self.step_functional(cid, dec)?;
                    self.cores[cid].rob.push_back(RobEntry {
                        complete: ops_ready.saturating_add(1),
                        class: Bucket::Memory,
                    });
                    dispatched += 1;
                    if is_added {
                        any_added = true;
                    } else {
                        any_original = true;
                    }
                }
                _ => {
                    let ops_ready = self.cores[cid].slots_ready(dec.uses(u)).max(now);
                    if ops_ready == u64::MAX {
                        if dispatched == 0 {
                            stall = Some(Bucket::Communication);
                            wake = u64::MAX; // awaits an outstanding ring load
                        }
                        break;
                    }
                    let lat = self.uop_lat[pc] as u64;
                    let dst = u.dst;
                    let is_added = u.is_added;
                    self.step_functional(cid, dec)?;
                    let complete = ops_ready.saturating_add(lat);
                    let core = &mut self.cores[cid];
                    if dst != NO_REG {
                        core.reg_ready[dst as usize] = complete;
                        core.reg_class[dst as usize] = Bucket::Computation;
                    }
                    core.rob.push_back(RobEntry {
                        complete,
                        class: Bucket::Computation,
                    });
                    dispatched += 1;
                    if self.in_prologue(cid) || is_added {
                        any_added = true;
                    } else {
                        any_original = true;
                    }
                }
            }
        }

        let bucket = if dispatched > 0 {
            if any_original {
                Bucket::Computation
            } else if any_added {
                Bucket::AdditionalInsts
            } else {
                Bucket::WaitSignal
            }
        } else {
            stall.unwrap_or(Bucket::Computation)
        };
        self.attr.charge(cid, bucket);
        if dispatched > 0 || retired > 0 {
            return Ok(CoreCycle::Progress);
        }
        if stall.is_none() {
            wake = now + 1; // unexpected shape: stay conservative
        }
        Ok(CoreCycle::Stalled {
            bucket,
            wake: wake.min(rob_head_wake),
        })
    }

    /// Wait/signal issue for the out-of-order model: the in-order grant
    /// and record rules, retiring through the ROB.
    fn sync_step(
        &mut self,
        cid: usize,
        dec: &DecodedProgram,
        kind: UOpKind,
        stall: &mut Option<Bucket>,
        wake: &mut u64,
        dispatched: u32,
    ) -> Result<(), SimError> {
        match kind {
            UOpKind::Wait { seg } => {
                if !self.cores[cid].granted.contains(&seg) {
                    let iter = match self.cores[cid].run {
                        RunState::Iter { iter, .. } => iter,
                        _ => 0,
                    };
                    if matches!(self.mode, Mode::Parallel(_)) {
                        match self.check_wait(cid, seg, iter) {
                            Ok(()) => {
                                self.cores[cid].granted.insert(seg);
                            }
                            Err((block, observe_at)) => {
                                if dispatched == 0 {
                                    *stall = Some(match block {
                                        WaitBlock::Dependence => Bucket::DependenceWaiting,
                                        WaitBlock::Communication => Bucket::Communication,
                                    });
                                    *wake = observe_at;
                                }
                                return Ok(());
                            }
                        }
                    } else {
                        self.cores[cid].granted.insert(seg);
                    }
                }
                self.step_functional(cid, dec)?;
                self.cores[cid].rob.push_back(RobEntry {
                    complete: self.now + 1,
                    class: Bucket::WaitSignal,
                });
            }
            UOpKind::Signal { seg } => {
                if !self.cores[cid].signaled.contains(&seg)
                    && matches!(self.mode, Mode::Parallel(_))
                {
                    if self.cfg.decouple.synch {
                        let ring = self.ring.as_mut().expect("ring");
                        if !ring.signal(cid, seg) {
                            if dispatched == 0 {
                                *stall = Some(Bucket::Communication);
                                *wake = u64::MAX; // drains at a ring event
                            }
                            return Ok(());
                        }
                    }
                    self.sync.record_signal(seg, cid, self.now);
                    // Wake exactly the sleepers dependence-blocked on
                    // this core's signals.
                    self.wake_bits |= self.dep_mask[cid];
                    self.cores[cid].signaled.insert(seg);
                }
                self.step_functional(cid, dec)?;
                self.cores[cid].rob.push_back(RobEntry {
                    complete: self.now + 1,
                    class: Bucket::WaitSignal,
                });
            }
            _ => unreachable!("sync step on non-sync micro-op"),
        }
        Ok(())
    }

    /// Mode-transition handling after a control transfer (shared by both
    /// core models). Returns whether the issue loop must stop.
    fn post_flow(&mut self, cid: usize, from: BlockId, to: BlockId) -> bool {
        match &self.mode {
            Mode::Serial => {
                if cid == 0 {
                    if let Some(pidx) = self.plan_by_header.get(to.index()).copied().flatten() {
                        let plan = &self.plans[pidx];
                        let regs = &self.cores[0].thread.regs;
                        let counter = regs[plan.counter.index()].as_int();
                        let bound = match plan.bound {
                            helix_ir::Operand::Reg(r) => regs[r.index()].as_int(),
                            helix_ir::Operand::Imm(v) => v.as_int(),
                        };
                        if plan.trip_count(counter, bound) >= 1 {
                            self.pending_enter = Some(pidx);
                            return true;
                        }
                    }
                }
                false
            }
            Mode::Parallel(ctx) => {
                let plan = &self.plans[ctx.plan];
                if to == plan.header && from != plan.iteration_entry {
                    self.end_iteration(cid);
                    return true;
                }
                if !self.plan_blocks[ctx.plan][to.index()] && to != plan.header {
                    self.protocol_errors
                        .push(format!("core {cid} escaped the loop to {to}"));
                    self.cores[cid].run = RunState::FinishedLoop;
                    self.done_cores += 1;
                    self.min_iter_dirty = true;
                    return true;
                }
                false
            }
        }
    }
}

/// Simulate a compiled program on `cfg`.
///
/// # Errors
///
/// Propagates functional faults; fails when `fuel` cycles elapse without
/// completion.
pub fn simulate(
    compiled: &helix_hcc::CompiledProgram,
    cfg: &MachineConfig,
    fuel: u64,
) -> Result<RunReport, SimError> {
    Machine::new(&compiled.program, &compiled.plans, cfg.clone()).run(fuel)
}

/// Simulate `program` sequentially (no parallel plans) on `cfg`.
///
/// # Errors
///
/// Propagates functional faults; fails when `fuel` cycles elapse without
/// completion.
pub fn simulate_sequential(
    program: &Program,
    cfg: &MachineConfig,
    fuel: u64,
) -> Result<RunReport, SimError> {
    Machine::new(program, &[], cfg.clone()).run(fuel)
}
