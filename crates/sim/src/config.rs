//! Machine configuration (paper §6.1).

use helix_ring_cache::RingConfig;
use serde::{Deserialize, Serialize};

/// Core microarchitecture model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoreModel {
    /// In-order issue (the validated Atom-like XIOSim model; the paper's
    /// default is 2-wide).
    InOrder {
        /// Issue width.
        width: u32,
    },
    /// Out-of-order issue with a reorder buffer (the Nehalem-like Zesto
    /// model; the paper sweeps 2- and 4-wide).
    OutOfOrder {
        /// Dispatch/retire width.
        width: u32,
        /// Reorder-buffer capacity.
        rob: u32,
    },
}

/// One cache level's geometry and hit latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Capacity in bytes.
    pub size: u64,
    /// Associativity.
    pub assoc: usize,
    /// Line size in bytes.
    pub line: u64,
    /// Hit latency in cycles.
    pub hit_latency: u32,
}

/// Which functional step executes the cores' instructions. Every engine
/// runs the same issue loops, whose timing metadata (micro-op kind,
/// uses, destination, latency, folded address) comes from the decoded
/// tables (`helix_ir::decode`); the engine picks only how an issued
/// instruction updates registers and memory. Reports are bit-identical
/// across engines (pinned by the decode- and lane-exactness regression
/// tests and `tests/golden/engine_timing.txt`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineSel {
    /// The reference interpreter's step (`helix_ir::interp::Thread::step`)
    /// over the `Inst` tree: an oracle that checks the decoded step
    /// against the IR's own semantics.
    Tree,
    /// The decoded step (`DecodedProgram::step`): the program is lowered
    /// once into flat tables with pre-resolved register slots, folded
    /// immediates, and pre-evaluated address bases, so the
    /// per-instruction hot path is an index-dispatch loop. The default.
    Decoded,
    /// The decoded engine driven through a
    /// [`SimSession`](crate::SimSession): many machines share one
    /// `Arc<DecodedProgram>` and run one after another. A machine built
    /// directly under this selection behaves exactly like `Decoded`.
    /// Experiments and campaigns never batch; the selection serves
    /// explore's lane-invariance oracle and the exactness tests.
    Batched,
}

/// Wait-grant policy (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyncModel {
    /// A core's `wait` is granted by its immediate predecessor's signal
    /// only — the conventional sequential chain (HCCv1/v2).
    ChainedPredecessor,
    /// A core's `wait` observes all predecessor iterations' signals
    /// directly, so iterations that forgo a segment do not lengthen the
    /// chain (HELIX-RC).
    AllPredecessors,
}

/// Which traffic classes are decoupled through the ring cache (the Fig. 8
/// lattice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DecoupleConfig {
    /// Register-carried shared scalars ride the ring.
    pub register: bool,
    /// Synchronization signals ride the ring.
    pub synch: bool,
    /// Memory-carried shared data rides the ring.
    pub memory: bool,
}

impl DecoupleConfig {
    /// Everything decoupled (HELIX-RC).
    pub fn all() -> DecoupleConfig {
        DecoupleConfig {
            register: true,
            synch: true,
            memory: true,
        }
    }

    /// Nothing decoupled (conventional hardware).
    pub fn none() -> DecoupleConfig {
        DecoupleConfig::default()
    }

    /// Whether any class needs a ring cache.
    pub fn any(&self) -> bool {
        self.register || self.synch || self.memory
    }
}

/// Full machine configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Core count.
    pub cores: usize,
    /// Core model.
    pub core: CoreModel,
    /// Per-core private L1 data cache (paper: 32 KB, 8-way).
    pub l1: CacheConfig,
    /// Shared L2 (paper: 8 MB, 16 banks; size fixed across core counts).
    pub l2: CacheConfig,
    /// L2 bank count.
    pub l2_banks: usize,
    /// DRAM row-hit latency beyond L2 (cycles).
    pub dram_row_hit: u32,
    /// DRAM row-miss latency beyond L2 (cycles).
    pub dram_row_miss: u32,
    /// Cache-to-cache transfer latency of the coherence protocol
    /// (paper: optimistic 10; measured 75/95/110 on real machines).
    pub c2c_latency: u32,
    /// Branch mispredict penalty (cycles).
    pub mispredict_penalty: u32,
    /// Ring cache, when present.
    pub ring: Option<RingConfig>,
    /// Wait-grant policy.
    pub sync: SyncModel,
    /// Traffic-class decoupling.
    pub decouple: DecoupleConfig,
    /// Event-skipping fast-forward: when every core is provably stalled,
    /// jump the global clock to the next wakeup event instead of
    /// simulating the idle cycles one at a time. Cycle-exact — results
    /// are bit-identical to the naive loop (see the cycle-exactness
    /// regression tests) — so it is on by default; disable it to
    /// cross-check or to measure the naive loop.
    pub fast_forward: bool,
    /// Functional-step selection: pre-decoded micro-ops (default), the
    /// reference interpreter, or the batched lane engine. All run the
    /// same issue loops and produce bit-identical results; they differ
    /// only in speed.
    pub engine: EngineSel,
}

impl MachineConfig {
    /// The paper's conventional machine: `cores` 2-way in-order cores,
    /// 32 KB L1s, 8 MB shared L2, optimistic 10-cycle coherence.
    pub fn conventional(cores: usize) -> MachineConfig {
        MachineConfig {
            cores,
            core: CoreModel::InOrder { width: 2 },
            l1: CacheConfig {
                size: 32 * 1024,
                assoc: 8,
                line: 64,
                hit_latency: 3,
            },
            l2: CacheConfig {
                size: 8 * 1024 * 1024,
                assoc: 16,
                line: 64,
                hit_latency: 12,
            },
            l2_banks: 16,
            dram_row_hit: 150,
            dram_row_miss: 250,
            c2c_latency: 10,
            mispredict_penalty: 8,
            ring: None,
            sync: SyncModel::ChainedPredecessor,
            decouple: DecoupleConfig::none(),
            fast_forward: true,
            engine: EngineSel::Decoded,
        }
    }

    /// The same machine with the naive (no event-skipping) cycle loop,
    /// used by benches and cycle-exactness tests.
    pub fn without_fast_forward(mut self) -> MachineConfig {
        self.fast_forward = false;
        self
    }

    /// The same machine driven by the given execution engine; used by
    /// benches, the decode-exactness tests, and batched campaigns.
    pub fn with_engine(mut self, engine: EngineSel) -> MachineConfig {
        self.engine = engine;
        self
    }

    /// The HELIX-RC machine: conventional plus the default ring cache,
    /// all communication decoupled, all-predecessor waits.
    pub fn helix_rc(cores: usize) -> MachineConfig {
        let mut cfg = MachineConfig::conventional(cores);
        cfg.ring = Some(RingConfig::paper_default(cores));
        cfg.sync = SyncModel::AllPredecessors;
        cfg.decouple = DecoupleConfig::all();
        cfg
    }

    /// Validate internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if decoupling is requested without a ring, or the ring's
    /// node count differs from the core count.
    pub fn assert_valid(&self) {
        assert!(self.cores >= 1);
        if self.decouple.any() {
            let ring = self.ring.as_ref().expect("decoupling requires a ring");
            assert_eq!(ring.nodes, self.cores);
        }
        if let Some(ring) = &self.ring {
            ring.assert_valid();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        MachineConfig::conventional(16).assert_valid();
        MachineConfig::helix_rc(16).assert_valid();
        MachineConfig::helix_rc(2).assert_valid();
    }

    #[test]
    #[should_panic(expected = "requires a ring")]
    fn decouple_without_ring_rejected() {
        let mut cfg = MachineConfig::conventional(4);
        cfg.decouple = DecoupleConfig::all();
        cfg.assert_valid();
    }

    #[test]
    fn decouple_flags() {
        assert!(DecoupleConfig::all().any());
        assert!(!DecoupleConfig::none().any());
        let partial = DecoupleConfig {
            register: true,
            ..DecoupleConfig::none()
        };
        assert!(partial.any());
    }
}
