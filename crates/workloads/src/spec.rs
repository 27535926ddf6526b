//! Declarative scenario specifications.
//!
//! A [`ScenarioSpec`] is a plain data description of a workload — its
//! memory regions, a pipeline of phase templates (coarse DOALL phases,
//! irregular hot loops with composable body operations, and the
//! benchmark-shaped templates the SPEC stand-ins need), and the
//! machine/sweep configuration to run it under. Specs serialize to a
//! small TOML subset (see [`crate::toml`]) so opening a new workload is
//! a data-file change, not a code change: drop a `.toml` into
//! `scenarios/` and the `helix` CLI compiles and simulates it.
//!
//! The ten SPEC CPU2000 stand-ins are themselves specs: the committed
//! `scenarios/*.toml` files, embedded as the built-ins
//! ([`builtin_specs`](crate::builtin_specs)).

use crate::common::Scale;
use crate::toml::{self, Table, Value};
use crate::Kind;
use helix_ir::Distribution;
use std::fmt;

/// Error from parsing, validating, or generating a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Human-readable description.
    pub message: String,
}

impl SpecError {
    pub(crate) fn new(message: impl Into<String>) -> SpecError {
        SpecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario spec error: {}", self.message)
    }
}

impl std::error::Error for SpecError {}

type Result<T> = std::result::Result<T, SpecError>;

/// Upper bound on spec parameters that drive host-side work — problem
/// sizes, emitted-instruction counts (ALU chains, pointer hops), and
/// distribution samples. Anything beyond this is a typo, and bounding
/// the values keeps both generation (which unrolls some of these) and
/// `sample`'s integer arithmetic far from overflow.
const MAX_SPEC_PARAM: i64 = 1 << 20;

/// Upper bound on every core count a spec, a campaign grid or a run
/// override may ask for: per-core machine tables are sized by it, so a
/// typo must not reach the allocator.
pub const MAX_CORES: usize = 4096;

/// Check a count-like parameter against [`MAX_SPEC_PARAM`].
fn check_param(v: i64, what: &str) -> Result<()> {
    if (1..=MAX_SPEC_PARAM).contains(&v) {
        Ok(())
    } else {
        Err(SpecError::new(format!(
            "{what} must be in 1..={MAX_SPEC_PARAM}, got {v}"
        )))
    }
}

/// Like [`check_param`] but zero is allowed (glue weights may be absent).
fn check_param0(v: i64, what: &str) -> Result<()> {
    if (0..=MAX_SPEC_PARAM).contains(&v) {
        Ok(())
    } else {
        Err(SpecError::new(format!(
            "{what} must be in 0..={MAX_SPEC_PARAM}, got {v}"
        )))
    }
}

fn validate_dist(dist: &Distribution) -> Result<()> {
    let check =
        |v: i64, what: &str| -> Result<()> { check_param(v, &format!("distribution {what}")) };
    match *dist {
        Distribution::Fixed { value } => check(value, "value"),
        Distribution::Uniform { lo, hi } => {
            check(lo, "lo")?;
            check(hi, "hi")?;
            if lo > hi {
                return Err(SpecError::new(format!(
                    "uniform distribution needs lo <= hi, got {lo}..{hi}"
                )));
            }
            Ok(())
        }
        Distribution::Bursty {
            short,
            long,
            period,
        } => {
            check(short, "short")?;
            check(long, "long")?;
            check(period, "period")
        }
        Distribution::Geometric { mean, cap } => {
            check(mean, "mean")?;
            check(cap, "cap")
        }
        Distribution::Zipf { max } => check(max, "max"),
        Distribution::PhaseChange { low, high, period } => {
            check(low, "low")?;
            check(high, "high")?;
            check(period, "period")
        }
        Distribution::OpenLoop { mean, service } => {
            // Sampling draws 8*mean Bernoulli trials per table slot, so
            // the arrival rate gets a much tighter bound than the
            // generic parameter ceiling.
            check(mean, "mean")?;
            if mean > 1024 {
                return Err(SpecError::new(format!(
                    "open_loop distribution mean must be <= 1024, got {mean}"
                )));
            }
            check(service, "service")
        }
        Distribution::ClosedLoop {
            users,
            think,
            service,
        } => {
            // One Bernoulli trial per user per table slot; bound the
            // population so baking work tables stays cheap.
            check(users, "users")?;
            if users > 4096 {
                return Err(SpecError::new(format!(
                    "closed_loop distribution users must be <= 4096, got {users}"
                )));
            }
            check(think, "think")?;
            check(service, "service")
        }
        Distribution::TailBurst { base, max, period } => {
            check(base, "base")?;
            check(max, "max")?;
            check(period, "period")
        }
    }
}

/// A linear expression in the scenario's scaled problem size `n`:
/// `per_n * n + plus`. Serialized as `"n"`, `"n+1"`, `"2n+8"`, `"1024"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountExpr {
    /// Coefficient on `n`.
    pub per_n: i64,
    /// Constant term.
    pub plus: i64,
}

impl CountExpr {
    /// The expression `n`.
    pub fn n() -> CountExpr {
        CountExpr { per_n: 1, plus: 0 }
    }

    /// The expression `n + plus`.
    pub fn n_plus(plus: i64) -> CountExpr {
        CountExpr { per_n: 1, plus }
    }

    /// A constant, independent of `n`.
    pub fn fixed(plus: i64) -> CountExpr {
        CountExpr { per_n: 0, plus }
    }

    /// Evaluate at problem size `n`.
    pub fn eval(&self, n: i64) -> i64 {
        self.per_n * n + self.plus
    }

    fn render(&self) -> String {
        match (self.per_n, self.plus) {
            (0, p) => p.to_string(),
            (1, 0) => "n".to_string(),
            (1, p) if p > 0 => format!("n+{p}"),
            (1, p) => format!("n{p}"),
            (k, 0) => format!("{k}n"),
            (k, p) if p > 0 => format!("{k}n+{p}"),
            (k, p) => format!("{k}n{p}"),
        }
    }

    fn parse(text: &str) -> Result<CountExpr> {
        let s = text.trim().replace(' ', "");
        let bad = || SpecError::new(format!("bad count expression '{text}'"));
        if let Some(ix) = s.find('n') {
            let (coef, rest) = s.split_at(ix);
            let coef = coef.strip_suffix('*').unwrap_or(coef);
            let per_n = match coef {
                "" => 1,
                "-" => -1,
                c => c.parse::<i64>().map_err(|_| bad())?,
            };
            let rest = &rest[1..];
            let plus = match rest {
                "" => 0,
                r => {
                    let r = r.strip_prefix('+').unwrap_or(r);
                    r.parse::<i64>().map_err(|_| bad())?
                }
            };
            Ok(CountExpr { per_n, plus })
        } else {
            Ok(CountExpr::fixed(s.parse::<i64>().map_err(|_| bad())?))
        }
    }
}

/// Element type of a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemTy {
    /// 64-bit integers.
    I64,
    /// 64-bit floats.
    F64,
}

impl ElemTy {
    /// The corresponding IR type.
    pub fn ty(self) -> helix_ir::Ty {
        match self {
            ElemTy::I64 => helix_ir::Ty::I64,
            ElemTy::F64 => helix_ir::Ty::F64,
        }
    }
}

/// One declared memory region; `size` is in 8-byte words.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionSpec {
    /// Region name (referenced by phases).
    pub name: String,
    /// Size in words.
    pub size: CountExpr,
    /// Element type.
    pub elem: ElemTy,
}

/// Binary operation applied by a shared-table update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOp {
    /// `table[h] += v`.
    Add,
    /// `table[h] ^= v`.
    Xor,
}

/// Value folded into a shared-table update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateValue {
    /// The constant 1 (histogram counting).
    One,
    /// The loop's current data value.
    Cur,
}

/// Operation applied to the loop-carried register chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CarryOp {
    /// `carry += v`.
    Add,
    /// `carry ^= v`.
    Xor,
    /// `carry *= v`.
    Mul,
    /// `carry <<= v`.
    Shl,
    /// `carry = min(carry, v)`.
    Min,
}

/// Operand of a [`CarryOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CarryOperand {
    /// The loop's current data value.
    Cur,
    /// An immediate.
    Imm(i64),
}

/// One composable hot-loop body operation. Each operation threads an
/// implicit "current value" register (seeded by the loop's input load)
/// exactly the way the hand-written stand-ins do.
#[derive(Debug, Clone, PartialEq)]
pub enum OpSpec {
    /// A private ALU chain of `insts` dependent instructions.
    Work {
        /// Chain length.
        insts: i64,
    },
    /// Strided read-modify-write walk of a large (power-of-two) region:
    /// cache-hostile private traffic. Produces the loaded value.
    Stream {
        /// Region to walk.
        region: String,
        /// Index stride multiplier.
        stride: i64,
    },
    /// Shared-table update `table[hash] op= value` — one memory-carried
    /// dependence with collision density set by `mask`.
    Table {
        /// Table region.
        region: String,
        /// Right-shift applied to the current value before masking.
        shift: i64,
        /// Index mask (table words - 1 for full coverage).
        mask: i64,
        /// Update operation.
        op: UpdateOp,
        /// Update operand.
        value: UpdateValue,
    },
    /// Hash-chain head replacement (gzip): read `region[h]`, write the
    /// iteration counter back, and continue with the previous head.
    ChainHead {
        /// Chain-head table.
        region: String,
        /// Index mask.
        mask: i64,
    },
    /// Conditional on `cur & mask`, with then/else sub-operations.
    Guard {
        /// Condition mask.
        mask: i64,
        /// Operations when the masked value is non-zero.
        then_ops: Vec<OpSpec>,
        /// Operations otherwise.
        else_ops: Vec<OpSpec>,
    },
    /// One step of the loop-carried register chain (requires the
    /// enclosing loop to declare a carry).
    Carry {
        /// Operation.
        op: CarryOp,
        /// Operand.
        operand: CarryOperand,
    },
    /// Increment the shared scalar at `region[0]` (vpr's bounding-box
    /// accumulator).
    Bump {
        /// Region holding the shared scalar.
        region: String,
    },
    /// `region[i] = cur * factor` — a private output store.
    ScaleStore {
        /// Output region.
        region: String,
        /// Multiplier.
        factor: i64,
    },
    /// `region[i] = cur`.
    Store {
        /// Output region.
        region: String,
    },
    /// Pointer-chasing read-modify-write chain through a shared region:
    /// `hops` serially dependent loads whose addresses come from the
    /// previous hop's (shared, mutated) value — the highest
    /// dependence-density shape the generator can produce.
    PtrChase {
        /// Link region.
        region: String,
        /// Serial hops per iteration.
        hops: i64,
        /// Index mask.
        mask: i64,
    },
    /// Distribution-drawn per-iteration work: a work table baked into
    /// the program bounds an inner loop, giving genuine iteration-length
    /// variation (Fig. 4a shapes).
    VarWork {
        /// Region holding the baked work table (>= trip count words).
        region: String,
        /// Per-iteration work distribution.
        dist: Distribution,
    },
}

/// Loop-carried register chain of a hot loop.
#[derive(Debug, Clone, PartialEq)]
pub struct CarrySpec {
    /// Initial value.
    pub init: i64,
    /// Region receiving the final value (at offset 0).
    pub out: String,
}

/// A generic irregular hot loop: optional input stream, optional carried
/// register chain, and a list of body operations.
#[derive(Debug, Clone, PartialEq)]
pub struct HotLoopSpec {
    /// Trip count.
    pub trips: CountExpr,
    /// Region streamed as `cur = input[i]`, if any.
    pub input: Option<String>,
    /// Register-carried chain, if any.
    pub carry: Option<CarrySpec>,
    /// Body operations in order.
    pub ops: Vec<OpSpec>,
}

/// One phase of a scenario. `Fill`/`Doall`/`HotLoop` compose freely;
/// the remaining templates are the benchmark-shaped loops the SPEC
/// stand-ins need (network-simplex arc relaxation, annealing, and the
/// floating-point kernels).
#[derive(Debug, Clone, PartialEq)]
pub enum PhaseSpec {
    /// Fill `region[0..count]` with `pure_hash(seed + i)`.
    Fill {
        /// Target region.
        region: String,
        /// Element count.
        count: CountExpr,
        /// Hash seed.
        seed: i64,
    },
    /// Coarse DOALL phase `output[i] = work(input[i])` — provably
    /// independent at every analysis tier.
    Doall {
        /// Input region.
        input: String,
        /// Output region.
        output: String,
        /// Trip count.
        count: CountExpr,
        /// Per-iteration ALU chain length.
        work: i64,
    },
    /// Generic irregular hot loop.
    HotLoop(HotLoopSpec),
    /// 181.mcf-shaped network-simplex arc relaxation: indexed endpoint
    /// loads, shared node potentials, and an unpredictable best-cost
    /// register chain.
    ArcRelax {
        /// Arc tail indices.
        tail: String,
        /// Arc head indices.
        head: String,
        /// Arc costs.
        cost: String,
        /// Shared node potentials (power-of-two words = node count).
        pot: String,
        /// Result region.
        out: String,
        /// Arc count.
        trips: CountExpr,
        /// Node count (power of two).
        nodes: i64,
        /// Private pricing-arithmetic chain length.
        chain: i64,
    },
    /// 300.twolf-shaped annealing: a serial outer temperature chain
    /// re-invoking a short hot inner loop of cell swaps.
    Anneal {
        /// Shared cell array (power-of-two words).
        cells: String,
        /// Shared cost table.
        table: String,
        /// Result region.
        out: String,
        /// Outer (serial) trip count.
        outer: CountExpr,
        /// Inner (hot) trip count.
        inner: i64,
        /// Inner index stride.
        stride: i64,
        /// Cell index mask.
        slot_mask: i64,
        /// Private swap-cost chain length.
        chain: i64,
        /// Cost-table index mask.
        table_mask: i64,
    },
    /// 183.equake-shaped serial element driver with a low-trip-count
    /// floating-point kernel inside.
    FpElements {
        /// Displacement array (f64).
        disp: String,
        /// Velocity array (f64).
        vel: String,
        /// Element count (serial outer trips).
        elements: CountExpr,
        /// Kernel trip count.
        trip: i64,
    },
    /// 179.art-shaped in-place normalization with an `FMax` match
    /// reduction.
    FpNormalize {
        /// Layer array (f64), updated in place.
        layer: String,
        /// Preprocessed integer input.
        pre: String,
        /// Result region (f64).
        out: String,
        /// Trip count.
        count: CountExpr,
        /// Initialization index mask.
        mask: i64,
    },
    /// 188.ammp-shaped pair-force loop with second-order (triangular)
    /// induction indexing.
    FpPairForce {
        /// Coordinate array (f64, 2n+8 words).
        atoms: String,
        /// Force output array (f64).
        forces: String,
        /// Trip count.
        count: CountExpr,
        /// Trailing private chain length.
        chain: i64,
    },
    /// 177.mesa-shaped span rasterization where one iteration in
    /// `heavy_mask + 1` takes a slow path (iteration imbalance).
    FpSpan {
        /// Frame buffer (f64).
        frame: String,
        /// Z-buffer input (i64).
        zbuf: String,
        /// Trip count.
        count: CountExpr,
        /// Heavy-path selector mask.
        heavy_mask: i64,
        /// Heavy-path chain length.
        heavy_chain: i64,
    },
}

/// Which compiler generation to run a scenario under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompilerGen {
    /// HCCv1.
    V1,
    /// HCCv2.
    V2,
    /// HCCv3 / HELIX-RC.
    V3,
}

impl CompilerGen {
    fn render(self) -> &'static str {
        match self {
            CompilerGen::V1 => "v1",
            CompilerGen::V2 => "v2",
            CompilerGen::V3 => "v3",
        }
    }

    fn parse(s: &str) -> Result<CompilerGen> {
        match s {
            "v1" => Ok(CompilerGen::V1),
            "v2" => Ok(CompilerGen::V2),
            "v3" => Ok(CompilerGen::V3),
            other => Err(SpecError::new(format!("unknown compiler '{other}'"))),
        }
    }
}

/// Which machine to simulate a scenario on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineKind {
    /// The original sequential program on one conventional core.
    Sequential,
    /// The parallel plan on conventional hardware (coupled
    /// communication).
    Conventional,
    /// The parallel plan on the HELIX-RC machine (ring cache).
    HelixRc,
}

impl MachineKind {
    fn render(self) -> &'static str {
        match self {
            MachineKind::Sequential => "sequential",
            MachineKind::Conventional => "conventional",
            MachineKind::HelixRc => "helix-rc",
        }
    }

    fn parse(s: &str) -> Result<MachineKind> {
        match s {
            "sequential" => Ok(MachineKind::Sequential),
            "conventional" => Ok(MachineKind::Conventional),
            "helix-rc" => Ok(MachineKind::HelixRc),
            other => Err(SpecError::new(format!("unknown machine '{other}'"))),
        }
    }
}

/// How to run a scenario: compiler, machines, core count, sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Core count for the main runs.
    pub cores: i64,
    /// Compiler generation.
    pub compiler: CompilerGen,
    /// Machines to simulate, in order.
    pub machines: Vec<MachineKind>,
    /// Cycle budget per simulation.
    pub fuel: u64,
    /// Additional core counts to sweep on the HELIX-RC machine.
    pub sweep_cores: Vec<i64>,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            cores: 16,
            compiler: CompilerGen::V3,
            machines: vec![
                MachineKind::Sequential,
                MachineKind::Conventional,
                MachineKind::HelixRc,
            ],
            fuel: 1 << 27,
            sweep_cores: Vec::new(),
        }
    }
}

/// One loop nest of a multi-nest scenario.
///
/// HELIX-RC's headline results come from programs whose runtime is
/// split across *several* hot loop nests with varying coverage, so a
/// scenario can describe an ordered list of nests instead of a single
/// hot-loop pipeline. Each nest carries:
///
/// * its own phase pipeline ([`PhaseSpec`]s, exactly as at top level);
/// * optional **nest-private regions**, visible only to this nest's
///   phases (shared regions stay at the scenario's top level);
/// * a **coverage weight**: `glue` serial iterations emitted before the
///   nest as a while loop the compiler can never parallelize, which is
///   the knob that sweeps how much of the program the parallelized
///   nests cover (Amdahl's sequential fraction);
/// * optional **carried state**: after a nest with `export = "r"` runs,
///   word 0 of region `r` seeds the next glue accumulator, and a nest
///   with `import = "r"` stores that accumulator into `r[0]` before its
///   phases run — a genuine sequential dependence between nests.
#[derive(Debug, Clone, PartialEq)]
pub struct NestSpec {
    /// Nest name (used in reports and nest-boundary metadata).
    pub name: String,
    /// Serial glue iterations preceding this nest (`>= 0`; evaluated at
    /// the scenario's problem size, so weights can scale with `n`).
    pub glue: CountExpr,
    /// Region (top-level/shared) whose word 0 receives the glue
    /// accumulator before this nest's phases run.
    pub import: Option<String>,
    /// Region (top-level/shared) whose word 0 is read after this nest
    /// and carried into the next nest's glue.
    pub export: Option<String>,
    /// Nest-private regions (names must be unique scenario-wide).
    pub regions: Vec<RegionSpec>,
    /// The nest's phase pipeline.
    pub phases: Vec<PhaseSpec>,
}

/// A complete declarative scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (program name; SPEC-style for the stand-ins).
    pub name: String,
    /// One-line description for listings.
    pub description: String,
    /// Benchmark family.
    pub kind: Kind,
    /// Base problem size (`Scale::Test` runs at `base_n`, `Scale::Full`
    /// at `4 * base_n`).
    pub base_n: i64,
    /// Seed for distribution-driven emission.
    pub seed: i64,
    /// Memory regions, in declaration order. With nests these are the
    /// *shared* regions every nest can reference.
    pub regions: Vec<RegionSpec>,
    /// Phase pipeline (single-nest scenarios; must be empty when
    /// `nests` is used).
    pub phases: Vec<PhaseSpec>,
    /// Ordered loop nests (multi-nest scenarios; empty for the classic
    /// single-pipeline form).
    pub nests: Vec<NestSpec>,
    /// Machine/sweep configuration.
    pub run: RunSpec,
}

// ---------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------

impl ScenarioSpec {
    fn region(&self, name: &str) -> Result<&RegionSpec> {
        self.regions
            .iter()
            .find(|r| r.name == name)
            .ok_or_else(|| SpecError::new(format!("{}: unknown region '{name}'", self.name)))
    }

    /// The problem sizes this spec can run at (one per [`Scale`]);
    /// validation checks every bound at each of them so it can never
    /// desync from what generation will do under `--full`.
    fn scaled_ns(&self) -> [i64; 2] {
        [Scale::Test, Scale::Full].map(|s| s.n(self.base_n))
    }

    fn check_indexable(&self, name: &str, mask: i64) -> Result<()> {
        let r = self.region(name)?;
        if mask < 0 {
            return Err(SpecError::new(format!(
                "{}: mask for region '{name}' must be >= 0, got {mask}",
                self.name
            )));
        }
        // Indexing masks must fit the region at every scale the spec can
        // run at, including regions whose size scales with `n`.
        for n in self.scaled_ns() {
            let words = r.size.eval(n);
            if mask >= words {
                return Err(SpecError::new(format!(
                    "{}: mask {mask} exceeds region '{name}' ({words} words at n={n})",
                    self.name
                )));
            }
        }
        Ok(())
    }

    fn check_pow2(&self, name: &str) -> Result<()> {
        let r = self.region(name)?;
        if r.size.per_n != 0 || r.size.plus <= 0 || r.size.plus & (r.size.plus - 1) != 0 {
            return Err(SpecError::new(format!(
                "{}: region '{name}' must be a fixed power-of-two word count",
                self.name
            )));
        }
        Ok(())
    }

    fn check_ops(&self, ops: &[OpSpec], has_carry: bool, mut cur: bool) -> Result<bool> {
        let need_cur = |what: &str, cur: bool| -> Result<()> {
            if cur {
                Ok(())
            } else {
                Err(SpecError::new(format!(
                    "{}: op '{what}' needs a current value (loop input or a prior stream op)",
                    self.name
                )))
            }
        };
        for op in ops {
            match op {
                OpSpec::Work { insts } => {
                    need_cur("work", cur)?;
                    check_param(*insts, "work insts")?;
                }
                OpSpec::Stream { region, stride } => {
                    self.check_pow2(region)?;
                    check_param(*stride, "stream stride")?;
                    cur = true;
                }
                OpSpec::Table {
                    region,
                    mask,
                    shift,
                    ..
                } => {
                    need_cur("table", cur)?;
                    if !(0..64).contains(shift) {
                        return Err(SpecError::new(format!(
                            "{}: table shift must be in 0..64, got {shift}",
                            self.name
                        )));
                    }
                    self.check_indexable(region, *mask)?;
                }
                OpSpec::ChainHead { region, mask } => {
                    need_cur("chain_head", cur)?;
                    self.check_indexable(region, *mask)?;
                }
                OpSpec::Guard {
                    then_ops, else_ops, ..
                } => {
                    need_cur("guard", cur)?;
                    self.check_ops(then_ops, has_carry, cur)?;
                    self.check_ops(else_ops, has_carry, cur)?;
                }
                OpSpec::Carry { operand, .. } => {
                    if !has_carry {
                        return Err(SpecError::new(format!(
                            "{}: 'carry' op in a loop without a carry declaration",
                            self.name
                        )));
                    }
                    if *operand == CarryOperand::Cur {
                        need_cur("carry", cur)?;
                    }
                }
                OpSpec::Bump { region } => {
                    self.region(region)?;
                }
                OpSpec::ScaleStore { region, .. } => {
                    need_cur("scale_store", cur)?;
                    self.region(region)?;
                }
                OpSpec::Store { region } => {
                    need_cur("store", cur)?;
                    self.region(region)?;
                }
                OpSpec::PtrChase { region, hops, mask } => {
                    need_cur("ptr_chase", cur)?;
                    self.check_indexable(region, *mask)?;
                    check_param(*hops, "ptr_chase hops")?;
                }
                OpSpec::VarWork { region, dist } => {
                    need_cur("var_work", cur)?;
                    self.region(region)?;
                    validate_dist(dist)?;
                }
            }
        }
        Ok(cur)
    }

    /// Apply `f` to every [`OpSpec::VarWork`] in `ops`, descending into
    /// guard branches — generation bakes a work table for each one, so
    /// validation must see them all.
    fn for_each_var_work<'o>(
        ops: &'o [OpSpec],
        f: &mut impl FnMut(&'o str, &'o Distribution) -> Result<()>,
    ) -> Result<()> {
        for op in ops {
            match op {
                OpSpec::VarWork { region, dist } => f(region, dist)?,
                OpSpec::Guard {
                    then_ops, else_ops, ..
                } => {
                    Self::for_each_var_work(then_ops, f)?;
                    Self::for_each_var_work(else_ops, f)?;
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// The distinct distribution kinds used by this scenario's
    /// `var_work` ops — top-level and nest phases alike, descending
    /// into guard branches — in first-use order. Tooling (`helix
    /// list`, explore reports) uses this to summarize a scenario's
    /// iteration-shape space at a glance.
    pub fn dist_kinds(&self) -> Vec<&'static str> {
        let mut kinds: Vec<&'static str> = Vec::new();
        let nest_phases = self.nests.iter().flat_map(|n| n.phases.iter());
        for phase in self.phases.iter().chain(nest_phases) {
            if let PhaseSpec::HotLoop(hl) = phase {
                let mut visit = |_: &str, dist: &Distribution| -> Result<()> {
                    let kind = dist.kind_name();
                    if !kinds.contains(&kind) {
                        kinds.push(kind);
                    }
                    Ok(())
                };
                Self::for_each_var_work(&hl.ops, &mut visit)
                    .expect("dist_kinds visitor never fails");
            }
        }
        kinds
    }

    /// A single-nest "view" of one nest: the shared regions plus the
    /// nest's private regions, with the nest's phases promoted to the
    /// top level. Validation and generation both reuse the single-nest
    /// machinery through this view, so nest phases behave exactly like
    /// classic phases with a restricted region scope.
    pub(crate) fn nest_view(&self, nest: &NestSpec) -> ScenarioSpec {
        let mut view = self.clone();
        view.regions.extend(nest.regions.iter().cloned());
        view.phases = nest.phases.clone();
        view.nests = Vec::new();
        view
    }

    fn validate_nests(&self) -> Result<()> {
        if !self.phases.is_empty() {
            return Err(SpecError::new(format!(
                "{}: a scenario uses either top-level phases or nests, not both",
                self.name
            )));
        }
        // Region names must be unique scenario-wide (shared + every
        // nest) so generation's flat region-id space is unambiguous.
        let mut seen: Vec<&str> = self.regions.iter().map(|r| r.name.as_str()).collect();
        for (i, nest) in self.nests.iter().enumerate() {
            if nest.name.is_empty() {
                return Err(SpecError::new(format!(
                    "{}: nest #{i} has no name",
                    self.name
                )));
            }
            if self.nests[..i].iter().any(|o| o.name == nest.name) {
                return Err(SpecError::new(format!(
                    "{}: duplicate nest '{}'",
                    self.name, nest.name
                )));
            }
            for n in self.scaled_ns() {
                check_param0(
                    nest.glue.eval(n),
                    &format!("{}: nest '{}' glue (at n={n})", self.name, nest.name),
                )?;
            }
            for r in &nest.regions {
                if seen.contains(&r.name.as_str()) {
                    return Err(SpecError::new(format!(
                        "{}: nest '{}': region '{}' shadows another region",
                        self.name, nest.name, r.name
                    )));
                }
                seen.push(r.name.as_str());
            }
            // Carried state lives in *shared* regions: exports are read
            // by later glue, imports are written before the nest runs.
            for (role, region) in [("import", &nest.import), ("export", &nest.export)] {
                if let Some(name) = region {
                    let shared = self.regions.iter().find(|r| r.name == *name);
                    match shared {
                        None => {
                            return Err(SpecError::new(format!(
                                "{}: nest '{}': {role} region '{name}' must be a shared \
                                 (top-level) region",
                                self.name, nest.name
                            )));
                        }
                        Some(r) if r.elem != ElemTy::I64 => {
                            return Err(SpecError::new(format!(
                                "{}: nest '{}': {role} region '{name}' must be i64",
                                self.name, nest.name
                            )));
                        }
                        Some(_) => {}
                    }
                }
            }
            if i == 0 && nest.import.is_some() && nest.export == nest.import {
                return Err(SpecError::new(format!(
                    "{}: nest '{}': first nest cannot import its own export",
                    self.name, nest.name
                )));
            }
            // The nest's phases validate through the single-nest path,
            // scoped to shared + own regions.
            let view = self.nest_view(nest);
            if view.phases.is_empty() {
                return Err(SpecError::new(format!(
                    "{}: nest '{}' has no phases",
                    self.name, nest.name
                )));
            }
            for phase in &view.phases {
                view.validate_phase(phase)
                    .map_err(|e| SpecError::new(format!("nest '{}': {}", nest.name, e.message)))?;
            }
        }
        Ok(())
    }

    /// Check internal consistency: region references resolve, masks fit
    /// their tables, ops have the data they need. Runs at both scales so
    /// a spec that only breaks under `--full` still fails fast.
    pub fn validate(&self) -> Result<()> {
        if self.name.is_empty() {
            return Err(SpecError::new("scenario name must not be empty"));
        }
        check_param(self.base_n, "base_n")?;
        let all_regions = self
            .regions
            .iter()
            .chain(self.nests.iter().flat_map(|nest| nest.regions.iter()));
        for r in all_regions {
            for n in self.scaled_ns() {
                check_param(
                    r.size.eval(n),
                    &format!("{}: region '{}' size (at n={n})", self.name, r.name),
                )?;
            }
        }
        for (i, r) in self.regions.iter().enumerate() {
            if self.regions[..i].iter().any(|o| o.name == r.name) {
                return Err(SpecError::new(format!(
                    "{}: duplicate region '{}'",
                    self.name, r.name
                )));
            }
        }
        if !self.nests.is_empty() {
            self.validate_nests()?;
        } else {
            if self.phases.is_empty() {
                return Err(SpecError::new(format!("{}: no phases", self.name)));
            }
            for phase in &self.phases {
                self.validate_phase(phase)?;
            }
        }
        let core_range = 1..=MAX_CORES as i64;
        if !core_range.contains(&self.run.cores) || self.run.fuel == 0 {
            return Err(SpecError::new(format!(
                "{}: run config needs cores in 1..={MAX_CORES} and fuel > 0",
                self.name
            )));
        }
        for &cores in &self.run.sweep_cores {
            if !core_range.contains(&cores) {
                return Err(SpecError::new(format!(
                    "{}: sweep_cores entries must be in 1..={MAX_CORES}, got {cores}",
                    self.name
                )));
            }
        }
        if self.run.machines.is_empty() {
            return Err(SpecError::new(format!("{}: no machines to run", self.name)));
        }
        Ok(())
    }

    fn validate_phase(&self, phase: &PhaseSpec) -> Result<()> {
        let check_count = |count: &CountExpr, what: &str| -> Result<()> {
            for n in self.scaled_ns() {
                if count.eval(n) < 1 {
                    return Err(SpecError::new(format!(
                        "{}: {what} count non-positive at n={n}",
                        self.name
                    )));
                }
            }
            Ok(())
        };
        // A region must hold `count` indexed words at both scales.
        let check_fits = |region: &str, count: &CountExpr| -> Result<()> {
            let r = self.region(region)?;
            for n in self.scaled_ns() {
                if count.eval(n) > r.size.eval(n) {
                    return Err(SpecError::new(format!(
                        "{}: region '{region}' too small for {} accesses at n={n}",
                        self.name,
                        count.eval(n)
                    )));
                }
            }
            Ok(())
        };
        match phase {
            PhaseSpec::Fill { region, count, .. } => {
                check_count(count, "fill")?;
                check_fits(region, count)
            }
            PhaseSpec::Doall {
                input,
                output,
                count,
                work,
            } => {
                check_count(count, "doall")?;
                check_fits(input, count)?;
                check_fits(output, count)?;
                check_param(*work, "doall work")?;
                Ok(())
            }
            PhaseSpec::HotLoop(hl) => {
                check_count(&hl.trips, "hot loop")?;
                if let Some(input) = &hl.input {
                    check_fits(input, &hl.trips)?;
                }
                if let Some(carry) = &hl.carry {
                    self.region(&carry.out)?;
                }
                let has_carry = hl.carry.is_some();
                self.check_ops(&hl.ops, has_carry, hl.input.is_some())?;
                // Distribution tables are indexed by the loop counter;
                // guard branches bake tables too, so descend into them.
                Self::for_each_var_work(&hl.ops, &mut |region, _| check_fits(region, &hl.trips))?;
                Ok(())
            }
            PhaseSpec::ArcRelax {
                tail,
                head,
                cost,
                pot,
                out,
                trips,
                nodes,
                chain,
            } => {
                check_count(trips, "arc_relax")?;
                for r in [tail, head, cost] {
                    check_fits(r, trips)?;
                }
                self.check_pow2(pot)?;
                self.check_indexable(pot, nodes - 1)?;
                self.region(out)?;
                if *nodes < 2 {
                    return Err(SpecError::new("arc_relax needs nodes >= 2"));
                }
                check_param(*chain, "arc_relax chain")?;
                Ok(())
            }
            PhaseSpec::Anneal {
                cells,
                table,
                out,
                outer,
                inner,
                stride,
                slot_mask,
                chain,
                table_mask,
            } => {
                check_count(outer, "anneal outer")?;
                self.check_indexable(cells, *slot_mask)?;
                self.check_indexable(table, *table_mask)?;
                self.region(out)?;
                check_param(*inner, "anneal inner")?;
                check_param(*stride, "anneal stride")?;
                check_param(*chain, "anneal chain")?;
                Ok(())
            }
            PhaseSpec::FpElements {
                disp,
                vel,
                elements,
                trip,
            } => {
                check_count(elements, "fp_elements")?;
                let fixed_trip = CountExpr::fixed(*trip);
                check_fits(disp, &fixed_trip)?;
                check_fits(vel, &fixed_trip)?;
                if *trip < 1 {
                    return Err(SpecError::new("fp_elements trip must be >= 1"));
                }
                Ok(())
            }
            PhaseSpec::FpNormalize {
                layer,
                pre,
                out,
                count,
                mask,
            } => {
                check_count(count, "fp_normalize")?;
                check_fits(layer, count)?;
                check_fits(pre, count)?;
                self.region(out)?;
                if *mask < 0 {
                    return Err(SpecError::new("fp_normalize mask must be >= 0"));
                }
                Ok(())
            }
            PhaseSpec::FpPairForce {
                atoms,
                forces,
                count,
                chain,
            } => {
                check_count(count, "fp_pair_force")?;
                // The coordinate init loop stores atoms[0..2*count], and
                // the pair index reads atoms[j + 1 word] for j up to
                // 2*(count - 1).
                let doubled = CountExpr {
                    per_n: 2 * count.per_n,
                    plus: 2 * count.plus,
                };
                check_fits(atoms, &doubled)?;
                check_fits(forces, count)?;
                check_param(*chain, "fp_pair_force chain")?;
                Ok(())
            }
            PhaseSpec::FpSpan {
                frame,
                zbuf,
                count,
                heavy_mask,
                heavy_chain,
            } => {
                check_count(count, "fp_span")?;
                check_fits(frame, count)?;
                check_fits(zbuf, count)?;
                check_param(*heavy_mask, "fp_span heavy_mask")?;
                check_param(*heavy_chain, "fp_span heavy_chain")?;
                Ok(())
            }
        }
    }
}

// ---------------------------------------------------------------------
// TOML serialization
// ---------------------------------------------------------------------

fn dist_to_toml(d: &Distribution) -> Value {
    let mut t = Table::new();
    match *d {
        Distribution::Fixed { value } => {
            t.set("kind", Value::Str("fixed".into()));
            t.set("value", Value::Int(value));
        }
        Distribution::Uniform { lo, hi } => {
            t.set("kind", Value::Str("uniform".into()));
            t.set("lo", Value::Int(lo));
            t.set("hi", Value::Int(hi));
        }
        Distribution::Bursty {
            short,
            long,
            period,
        } => {
            t.set("kind", Value::Str("bursty".into()));
            t.set("short", Value::Int(short));
            t.set("long", Value::Int(long));
            t.set("period", Value::Int(period));
        }
        Distribution::Geometric { mean, cap } => {
            t.set("kind", Value::Str("geometric".into()));
            t.set("mean", Value::Int(mean));
            t.set("cap", Value::Int(cap));
        }
        Distribution::Zipf { max } => {
            t.set("kind", Value::Str("zipf".into()));
            t.set("max", Value::Int(max));
        }
        Distribution::PhaseChange { low, high, period } => {
            t.set("kind", Value::Str("phase_change".into()));
            t.set("low", Value::Int(low));
            t.set("high", Value::Int(high));
            t.set("period", Value::Int(period));
        }
        Distribution::OpenLoop { mean, service } => {
            t.set("kind", Value::Str("open_loop".into()));
            t.set("mean", Value::Int(mean));
            t.set("service", Value::Int(service));
        }
        Distribution::ClosedLoop {
            users,
            think,
            service,
        } => {
            t.set("kind", Value::Str("closed_loop".into()));
            t.set("users", Value::Int(users));
            t.set("think", Value::Int(think));
            t.set("service", Value::Int(service));
        }
        Distribution::TailBurst { base, max, period } => {
            t.set("kind", Value::Str("tail_burst".into()));
            t.set("base", Value::Int(base));
            t.set("max", Value::Int(max));
            t.set("period", Value::Int(period));
        }
    }
    Value::Table(t)
}

fn op_to_toml(op: &OpSpec) -> Value {
    let mut t = Table::new();
    match op {
        OpSpec::Work { insts } => {
            t.set("kind", Value::Str("work".into()));
            t.set("insts", Value::Int(*insts));
        }
        OpSpec::Stream { region, stride } => {
            t.set("kind", Value::Str("stream".into()));
            t.set("region", Value::Str(region.clone()));
            t.set("stride", Value::Int(*stride));
        }
        OpSpec::Table {
            region,
            shift,
            mask,
            op,
            value,
        } => {
            t.set("kind", Value::Str("table".into()));
            t.set("region", Value::Str(region.clone()));
            t.set("shift", Value::Int(*shift));
            t.set("mask", Value::Int(*mask));
            t.set(
                "op",
                Value::Str(match op {
                    UpdateOp::Add => "add".into(),
                    UpdateOp::Xor => "xor".into(),
                }),
            );
            t.set(
                "value",
                Value::Str(match value {
                    UpdateValue::One => "one".into(),
                    UpdateValue::Cur => "cur".into(),
                }),
            );
        }
        OpSpec::ChainHead { region, mask } => {
            t.set("kind", Value::Str("chain_head".into()));
            t.set("region", Value::Str(region.clone()));
            t.set("mask", Value::Int(*mask));
        }
        OpSpec::Guard {
            mask,
            then_ops,
            else_ops,
        } => {
            t.set("kind", Value::Str("guard".into()));
            t.set("mask", Value::Int(*mask));
            t.set(
                "then",
                Value::Array(then_ops.iter().map(op_to_toml).collect()),
            );
            t.set(
                "else",
                Value::Array(else_ops.iter().map(op_to_toml).collect()),
            );
        }
        OpSpec::Carry { op, operand } => {
            t.set("kind", Value::Str("carry".into()));
            t.set(
                "op",
                Value::Str(
                    match op {
                        CarryOp::Add => "add",
                        CarryOp::Xor => "xor",
                        CarryOp::Mul => "mul",
                        CarryOp::Shl => "shl",
                        CarryOp::Min => "min",
                    }
                    .into(),
                ),
            );
            t.set(
                "value",
                match operand {
                    CarryOperand::Cur => Value::Str("cur".into()),
                    CarryOperand::Imm(v) => Value::Int(*v),
                },
            );
        }
        OpSpec::Bump { region } => {
            t.set("kind", Value::Str("bump".into()));
            t.set("region", Value::Str(region.clone()));
        }
        OpSpec::ScaleStore { region, factor } => {
            t.set("kind", Value::Str("scale_store".into()));
            t.set("region", Value::Str(region.clone()));
            t.set("factor", Value::Int(*factor));
        }
        OpSpec::Store { region } => {
            t.set("kind", Value::Str("store".into()));
            t.set("region", Value::Str(region.clone()));
        }
        OpSpec::PtrChase { region, hops, mask } => {
            t.set("kind", Value::Str("ptr_chase".into()));
            t.set("region", Value::Str(region.clone()));
            t.set("hops", Value::Int(*hops));
            t.set("mask", Value::Int(*mask));
        }
        OpSpec::VarWork { region, dist } => {
            t.set("kind", Value::Str("var_work".into()));
            t.set("region", Value::Str(region.clone()));
            t.set("dist", dist_to_toml(dist));
        }
    }
    Value::Table(t)
}

fn phase_to_toml(phase: &PhaseSpec) -> Value {
    let mut t = Table::new();
    match phase {
        PhaseSpec::Fill {
            region,
            count,
            seed,
        } => {
            t.set("kind", Value::Str("fill".into()));
            t.set("region", Value::Str(region.clone()));
            t.set("count", Value::Str(count.render()));
            t.set("seed", Value::Int(*seed));
        }
        PhaseSpec::Doall {
            input,
            output,
            count,
            work,
        } => {
            t.set("kind", Value::Str("doall".into()));
            t.set("input", Value::Str(input.clone()));
            t.set("output", Value::Str(output.clone()));
            t.set("count", Value::Str(count.render()));
            t.set("work", Value::Int(*work));
        }
        PhaseSpec::HotLoop(hl) => {
            t.set("kind", Value::Str("hot_loop".into()));
            t.set("trips", Value::Str(hl.trips.render()));
            if let Some(input) = &hl.input {
                t.set("input", Value::Str(input.clone()));
            }
            if let Some(carry) = &hl.carry {
                let mut c = Table::new();
                c.set("init", Value::Int(carry.init));
                c.set("out", Value::Str(carry.out.clone()));
                t.set("carry", Value::Table(c));
            }
            t.set("ops", Value::Array(hl.ops.iter().map(op_to_toml).collect()));
        }
        PhaseSpec::ArcRelax {
            tail,
            head,
            cost,
            pot,
            out,
            trips,
            nodes,
            chain,
        } => {
            t.set("kind", Value::Str("arc_relax".into()));
            t.set("tail", Value::Str(tail.clone()));
            t.set("head", Value::Str(head.clone()));
            t.set("cost", Value::Str(cost.clone()));
            t.set("pot", Value::Str(pot.clone()));
            t.set("out", Value::Str(out.clone()));
            t.set("trips", Value::Str(trips.render()));
            t.set("nodes", Value::Int(*nodes));
            t.set("chain", Value::Int(*chain));
        }
        PhaseSpec::Anneal {
            cells,
            table,
            out,
            outer,
            inner,
            stride,
            slot_mask,
            chain,
            table_mask,
        } => {
            t.set("kind", Value::Str("anneal".into()));
            t.set("cells", Value::Str(cells.clone()));
            t.set("table", Value::Str(table.clone()));
            t.set("out", Value::Str(out.clone()));
            t.set("outer", Value::Str(outer.render()));
            t.set("inner", Value::Int(*inner));
            t.set("stride", Value::Int(*stride));
            t.set("slot_mask", Value::Int(*slot_mask));
            t.set("chain", Value::Int(*chain));
            t.set("table_mask", Value::Int(*table_mask));
        }
        PhaseSpec::FpElements {
            disp,
            vel,
            elements,
            trip,
        } => {
            t.set("kind", Value::Str("fp_elements".into()));
            t.set("disp", Value::Str(disp.clone()));
            t.set("vel", Value::Str(vel.clone()));
            t.set("elements", Value::Str(elements.render()));
            t.set("trip", Value::Int(*trip));
        }
        PhaseSpec::FpNormalize {
            layer,
            pre,
            out,
            count,
            mask,
        } => {
            t.set("kind", Value::Str("fp_normalize".into()));
            t.set("layer", Value::Str(layer.clone()));
            t.set("pre", Value::Str(pre.clone()));
            t.set("out", Value::Str(out.clone()));
            t.set("count", Value::Str(count.render()));
            t.set("mask", Value::Int(*mask));
        }
        PhaseSpec::FpPairForce {
            atoms,
            forces,
            count,
            chain,
        } => {
            t.set("kind", Value::Str("fp_pair_force".into()));
            t.set("atoms", Value::Str(atoms.clone()));
            t.set("forces", Value::Str(forces.clone()));
            t.set("count", Value::Str(count.render()));
            t.set("chain", Value::Int(*chain));
        }
        PhaseSpec::FpSpan {
            frame,
            zbuf,
            count,
            heavy_mask,
            heavy_chain,
        } => {
            t.set("kind", Value::Str("fp_span".into()));
            t.set("frame", Value::Str(frame.clone()));
            t.set("zbuf", Value::Str(zbuf.clone()));
            t.set("count", Value::Str(count.render()));
            t.set("heavy_mask", Value::Int(*heavy_mask));
            t.set("heavy_chain", Value::Int(*heavy_chain));
        }
    }
    Value::Table(t)
}

fn region_to_toml(r: &RegionSpec) -> Value {
    let mut t = Table::new();
    t.set("name", Value::Str(r.name.clone()));
    t.set("size", Value::Str(r.size.render()));
    t.set(
        "elem",
        Value::Str(match r.elem {
            ElemTy::I64 => "i64".into(),
            ElemTy::F64 => "f64".into(),
        }),
    );
    Value::Table(t)
}

fn nest_to_toml(nest: &NestSpec) -> Value {
    let mut t = Table::new();
    t.set("name", Value::Str(nest.name.clone()));
    t.set("glue", Value::Str(nest.glue.render()));
    if let Some(import) = &nest.import {
        t.set("import", Value::Str(import.clone()));
    }
    if let Some(export) = &nest.export {
        t.set("export", Value::Str(export.clone()));
    }
    if !nest.regions.is_empty() {
        t.set(
            "region",
            Value::Array(nest.regions.iter().map(region_to_toml).collect()),
        );
    }
    t.set(
        "phase",
        Value::Array(nest.phases.iter().map(phase_to_toml).collect()),
    );
    Value::Table(t)
}

impl ScenarioSpec {
    /// Serialize to the TOML subset of [`crate::toml`].
    pub fn to_toml(&self) -> String {
        let mut root = Table::new();
        root.set("name", Value::Str(self.name.clone()));
        root.set("description", Value::Str(self.description.clone()));
        root.set("kind", Value::Str(self.kind.render().into()));
        root.set("base_n", Value::Int(self.base_n));
        root.set("seed", Value::Int(self.seed));
        root.set(
            "region",
            Value::Array(self.regions.iter().map(region_to_toml).collect()),
        );
        if !self.phases.is_empty() {
            root.set(
                "phase",
                Value::Array(self.phases.iter().map(phase_to_toml).collect()),
            );
        }
        if !self.nests.is_empty() {
            root.set(
                "nest",
                Value::Array(self.nests.iter().map(nest_to_toml).collect()),
            );
        }
        let mut run = Table::new();
        run.set("cores", Value::Int(self.run.cores));
        run.set("compiler", Value::Str(self.run.compiler.render().into()));
        run.set(
            "machines",
            Value::Array(
                self.run
                    .machines
                    .iter()
                    .map(|m| Value::Str(m.render().into()))
                    .collect(),
            ),
        );
        run.set("fuel", Value::Int(self.run.fuel as i64));
        if !self.run.sweep_cores.is_empty() {
            run.set(
                "sweep_cores",
                Value::Array(
                    self.run
                        .sweep_cores
                        .iter()
                        .map(|&c| Value::Int(c))
                        .collect(),
                ),
            );
        }
        root.set("run", Value::Table(run));
        toml::write(&root)
    }

    /// Parse a spec from TOML text. The result is validated.
    ///
    /// # Examples
    ///
    /// ```
    /// use helix_workloads::ScenarioSpec;
    ///
    /// let spec = ScenarioSpec::from_toml(r#"
    /// name = "doc.demo"
    /// kind = "int"
    /// base_n = 64
    /// seed = 1
    ///
    /// [[region]]
    /// name = "data"
    /// size = "n+1"
    /// elem = "i64"
    ///
    /// [[phase]]
    /// kind = "fill"
    /// region = "data"
    /// count = "n"
    /// seed = 1
    /// "#)?;
    /// assert_eq!(spec.name, "doc.demo");
    /// assert!(spec.nests.is_empty()); // classic single-pipeline form
    /// # Ok::<(), helix_workloads::SpecError>(())
    /// ```
    pub fn from_toml(text: &str) -> Result<ScenarioSpec> {
        let root = toml::parse(text).map_err(|e| SpecError::new(e.to_string()))?;
        let spec = spec_from_table(&root)?;
        spec.validate()?;
        Ok(spec)
    }
}

fn req<'t>(t: &'t Table, key: &str, what: &str) -> Result<&'t Value> {
    t.get(key)
        .ok_or_else(|| SpecError::new(format!("{what}: missing key '{key}'")))
}

fn req_str(t: &Table, key: &str, what: &str) -> Result<String> {
    req(t, key, what)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| SpecError::new(format!("{what}: '{key}' must be a string")))
}

fn req_int(t: &Table, key: &str, what: &str) -> Result<i64> {
    req(t, key, what)?
        .as_int()
        .ok_or_else(|| SpecError::new(format!("{what}: '{key}' must be an integer")))
}

fn req_count(t: &Table, key: &str, what: &str) -> Result<CountExpr> {
    CountExpr::parse(&req_str(t, key, what)?)
}

fn dist_from_toml(v: &Value, what: &str) -> Result<Distribution> {
    let t = v
        .as_table()
        .ok_or_else(|| SpecError::new(format!("{what}: 'dist' must be a table")))?;
    let kind = req_str(t, "kind", what)?;
    match kind.as_str() {
        "fixed" => Ok(Distribution::Fixed {
            value: req_int(t, "value", what)?,
        }),
        "uniform" => Ok(Distribution::Uniform {
            lo: req_int(t, "lo", what)?,
            hi: req_int(t, "hi", what)?,
        }),
        "bursty" => Ok(Distribution::Bursty {
            short: req_int(t, "short", what)?,
            long: req_int(t, "long", what)?,
            period: req_int(t, "period", what)?,
        }),
        "geometric" => Ok(Distribution::Geometric {
            mean: req_int(t, "mean", what)?,
            cap: req_int(t, "cap", what)?,
        }),
        "zipf" => Ok(Distribution::Zipf {
            max: req_int(t, "max", what)?,
        }),
        "phase_change" => Ok(Distribution::PhaseChange {
            low: req_int(t, "low", what)?,
            high: req_int(t, "high", what)?,
            period: req_int(t, "period", what)?,
        }),
        "open_loop" => Ok(Distribution::OpenLoop {
            mean: req_int(t, "mean", what)?,
            service: req_int(t, "service", what)?,
        }),
        "closed_loop" => Ok(Distribution::ClosedLoop {
            users: req_int(t, "users", what)?,
            think: req_int(t, "think", what)?,
            service: req_int(t, "service", what)?,
        }),
        "tail_burst" => Ok(Distribution::TailBurst {
            base: req_int(t, "base", what)?,
            max: req_int(t, "max", what)?,
            period: req_int(t, "period", what)?,
        }),
        other => Err(SpecError::new(format!(
            "{what}: unknown distribution '{other}'"
        ))),
    }
}

fn ops_from_toml(v: &Value, what: &str) -> Result<Vec<OpSpec>> {
    v.as_array()
        .ok_or_else(|| SpecError::new(format!("{what}: ops must be an array")))?
        .iter()
        .map(|item| op_from_toml(item, what))
        .collect()
}

fn op_from_toml(v: &Value, what: &str) -> Result<OpSpec> {
    let t = v
        .as_table()
        .ok_or_else(|| SpecError::new(format!("{what}: each op must be a table")))?;
    let kind = req_str(t, "kind", what)?;
    let what = &format!("{what}.{kind}");
    match kind.as_str() {
        "work" => Ok(OpSpec::Work {
            insts: req_int(t, "insts", what)?,
        }),
        "stream" => Ok(OpSpec::Stream {
            region: req_str(t, "region", what)?,
            stride: req_int(t, "stride", what)?,
        }),
        "table" => Ok(OpSpec::Table {
            region: req_str(t, "region", what)?,
            shift: req_int(t, "shift", what)?,
            mask: req_int(t, "mask", what)?,
            op: match req_str(t, "op", what)?.as_str() {
                "add" => UpdateOp::Add,
                "xor" => UpdateOp::Xor,
                other => {
                    return Err(SpecError::new(format!("{what}: unknown op '{other}'")));
                }
            },
            value: match req_str(t, "value", what)?.as_str() {
                "one" => UpdateValue::One,
                "cur" => UpdateValue::Cur,
                other => {
                    return Err(SpecError::new(format!("{what}: unknown value '{other}'")));
                }
            },
        }),
        "chain_head" => Ok(OpSpec::ChainHead {
            region: req_str(t, "region", what)?,
            mask: req_int(t, "mask", what)?,
        }),
        "guard" => Ok(OpSpec::Guard {
            mask: req_int(t, "mask", what)?,
            then_ops: ops_from_toml(req(t, "then", what)?, what)?,
            else_ops: ops_from_toml(req(t, "else", what)?, what)?,
        }),
        "carry" => Ok(OpSpec::Carry {
            op: match req_str(t, "op", what)?.as_str() {
                "add" => CarryOp::Add,
                "xor" => CarryOp::Xor,
                "mul" => CarryOp::Mul,
                "shl" => CarryOp::Shl,
                "min" => CarryOp::Min,
                other => {
                    return Err(SpecError::new(format!(
                        "{what}: unknown carry op '{other}'"
                    )));
                }
            },
            operand: match req(t, "value", what)? {
                Value::Str(s) if s == "cur" => CarryOperand::Cur,
                Value::Int(v) => CarryOperand::Imm(*v),
                other => {
                    return Err(SpecError::new(format!(
                        "{what}: carry value must be \"cur\" or an integer, got {other:?}"
                    )));
                }
            },
        }),
        "bump" => Ok(OpSpec::Bump {
            region: req_str(t, "region", what)?,
        }),
        "scale_store" => Ok(OpSpec::ScaleStore {
            region: req_str(t, "region", what)?,
            factor: req_int(t, "factor", what)?,
        }),
        "store" => Ok(OpSpec::Store {
            region: req_str(t, "region", what)?,
        }),
        "ptr_chase" => Ok(OpSpec::PtrChase {
            region: req_str(t, "region", what)?,
            hops: req_int(t, "hops", what)?,
            mask: req_int(t, "mask", what)?,
        }),
        "var_work" => Ok(OpSpec::VarWork {
            region: req_str(t, "region", what)?,
            dist: dist_from_toml(req(t, "dist", what)?, what)?,
        }),
        other => Err(SpecError::new(format!("unknown op kind '{other}'"))),
    }
}

fn phase_from_toml(v: &Value, index: usize) -> Result<PhaseSpec> {
    let what = &format!("phase #{index}");
    let t = v
        .as_table()
        .ok_or_else(|| SpecError::new(format!("{what}: must be a table")))?;
    let kind = req_str(t, "kind", what)?;
    match kind.as_str() {
        "fill" => Ok(PhaseSpec::Fill {
            region: req_str(t, "region", what)?,
            count: req_count(t, "count", what)?,
            seed: req_int(t, "seed", what)?,
        }),
        "doall" => Ok(PhaseSpec::Doall {
            input: req_str(t, "input", what)?,
            output: req_str(t, "output", what)?,
            count: req_count(t, "count", what)?,
            work: req_int(t, "work", what)?,
        }),
        "hot_loop" => {
            let carry = match t.get("carry") {
                None => None,
                Some(v) => {
                    let c = v
                        .as_table()
                        .ok_or_else(|| SpecError::new(format!("{what}: carry must be a table")))?;
                    Some(CarrySpec {
                        init: req_int(c, "init", what)?,
                        out: req_str(c, "out", what)?,
                    })
                }
            };
            Ok(PhaseSpec::HotLoop(HotLoopSpec {
                trips: req_count(t, "trips", what)?,
                input: match t.get("input") {
                    None => None,
                    Some(v) => Some(
                        v.as_str()
                            .ok_or_else(|| {
                                SpecError::new(format!("{what}: input must be a string"))
                            })?
                            .to_string(),
                    ),
                },
                carry,
                ops: ops_from_toml(req(t, "ops", what)?, what)?,
            }))
        }
        "arc_relax" => Ok(PhaseSpec::ArcRelax {
            tail: req_str(t, "tail", what)?,
            head: req_str(t, "head", what)?,
            cost: req_str(t, "cost", what)?,
            pot: req_str(t, "pot", what)?,
            out: req_str(t, "out", what)?,
            trips: req_count(t, "trips", what)?,
            nodes: req_int(t, "nodes", what)?,
            chain: req_int(t, "chain", what)?,
        }),
        "anneal" => Ok(PhaseSpec::Anneal {
            cells: req_str(t, "cells", what)?,
            table: req_str(t, "table", what)?,
            out: req_str(t, "out", what)?,
            outer: req_count(t, "outer", what)?,
            inner: req_int(t, "inner", what)?,
            stride: req_int(t, "stride", what)?,
            slot_mask: req_int(t, "slot_mask", what)?,
            chain: req_int(t, "chain", what)?,
            table_mask: req_int(t, "table_mask", what)?,
        }),
        "fp_elements" => Ok(PhaseSpec::FpElements {
            disp: req_str(t, "disp", what)?,
            vel: req_str(t, "vel", what)?,
            elements: req_count(t, "elements", what)?,
            trip: req_int(t, "trip", what)?,
        }),
        "fp_normalize" => Ok(PhaseSpec::FpNormalize {
            layer: req_str(t, "layer", what)?,
            pre: req_str(t, "pre", what)?,
            out: req_str(t, "out", what)?,
            count: req_count(t, "count", what)?,
            mask: req_int(t, "mask", what)?,
        }),
        "fp_pair_force" => Ok(PhaseSpec::FpPairForce {
            atoms: req_str(t, "atoms", what)?,
            forces: req_str(t, "forces", what)?,
            count: req_count(t, "count", what)?,
            chain: req_int(t, "chain", what)?,
        }),
        "fp_span" => Ok(PhaseSpec::FpSpan {
            frame: req_str(t, "frame", what)?,
            zbuf: req_str(t, "zbuf", what)?,
            count: req_count(t, "count", what)?,
            heavy_mask: req_int(t, "heavy_mask", what)?,
            heavy_chain: req_int(t, "heavy_chain", what)?,
        }),
        other => Err(SpecError::new(format!("unknown phase kind '{other}'"))),
    }
}

fn regions_from_toml(t: &Table, key: &str) -> Result<Vec<RegionSpec>> {
    t.get(key)
        .and_then(|v| v.as_array())
        .unwrap_or(&[])
        .iter()
        .map(|v| -> Result<RegionSpec> {
            let t = v
                .as_table()
                .ok_or_else(|| SpecError::new("each region must be a table"))?;
            Ok(RegionSpec {
                name: req_str(t, "name", "region")?,
                size: req_count(t, "size", "region")?,
                elem: match req_str(t, "elem", "region")?.as_str() {
                    "i64" => ElemTy::I64,
                    "f64" => ElemTy::F64,
                    other => {
                        return Err(SpecError::new(format!("unknown elem type '{other}'")));
                    }
                },
            })
        })
        .collect::<Result<Vec<_>>>()
}

fn phases_from_toml(t: &Table, key: &str) -> Result<Vec<PhaseSpec>> {
    t.get(key)
        .and_then(|v| v.as_array())
        .unwrap_or(&[])
        .iter()
        .enumerate()
        .map(|(i, v)| phase_from_toml(v, i))
        .collect::<Result<Vec<_>>>()
}

fn opt_str(t: &Table, key: &str, what: &str) -> Result<Option<String>> {
    match t.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| SpecError::new(format!("{what}: '{key}' must be a string"))),
    }
}

fn nest_from_toml(v: &Value, index: usize) -> Result<NestSpec> {
    let what = &format!("nest #{index}");
    let t = v
        .as_table()
        .ok_or_else(|| SpecError::new(format!("{what}: must be a table")))?;
    Ok(NestSpec {
        name: req_str(t, "name", what)?,
        glue: match t.get("glue") {
            None => CountExpr::fixed(0),
            Some(v) => CountExpr::parse(
                v.as_str()
                    .ok_or_else(|| SpecError::new(format!("{what}: glue must be a string")))?,
            )?,
        },
        import: opt_str(t, "import", what)?,
        export: opt_str(t, "export", what)?,
        regions: regions_from_toml(t, "region")?,
        phases: phases_from_toml(t, "phase")?,
    })
}

fn spec_from_table(root: &Table) -> Result<ScenarioSpec> {
    let what = "scenario";
    let name = req_str(root, "name", what)?;
    let kind = match req_str(root, "kind", what)?.as_str() {
        "int" => Kind::Int,
        "fp" => Kind::Fp,
        other => return Err(SpecError::new(format!("unknown kind '{other}'"))),
    };
    let regions = regions_from_toml(root, "region")?;
    let phases = phases_from_toml(root, "phase")?;
    let nests = root
        .get("nest")
        .and_then(|v| v.as_array())
        .unwrap_or(&[])
        .iter()
        .enumerate()
        .map(|(i, v)| nest_from_toml(v, i))
        .collect::<Result<Vec<_>>>()?;
    let run = match root.get("run") {
        None => RunSpec::default(),
        Some(v) => {
            let t = v
                .as_table()
                .ok_or_else(|| SpecError::new("'run' must be a table"))?;
            let defaults = RunSpec::default();
            RunSpec {
                cores: t
                    .get("cores")
                    .map(|v| v.as_int().ok_or_else(|| SpecError::new("cores: integer")))
                    .transpose()?
                    .unwrap_or(defaults.cores),
                compiler: t
                    .get("compiler")
                    .map(|v| {
                        v.as_str()
                            .ok_or_else(|| SpecError::new("compiler: string"))
                            .and_then(CompilerGen::parse)
                    })
                    .transpose()?
                    .unwrap_or(defaults.compiler),
                machines: t
                    .get("machines")
                    .map(|v| -> Result<Vec<MachineKind>> {
                        v.as_array()
                            .ok_or_else(|| SpecError::new("machines: array"))?
                            .iter()
                            .map(|m| {
                                m.as_str()
                                    .ok_or_else(|| SpecError::new("machines: strings"))
                                    .and_then(MachineKind::parse)
                            })
                            .collect()
                    })
                    .transpose()?
                    .unwrap_or(defaults.machines),
                fuel: t
                    .get("fuel")
                    .map(|v| {
                        v.as_int()
                            .filter(|f| *f >= 1)
                            .ok_or_else(|| SpecError::new("fuel must be a positive integer"))
                    })
                    .transpose()?
                    .map(|f| f as u64)
                    .unwrap_or(defaults.fuel),
                sweep_cores: t
                    .get("sweep_cores")
                    .map(|v| -> Result<Vec<i64>> {
                        v.as_array()
                            .ok_or_else(|| SpecError::new("sweep_cores: array"))?
                            .iter()
                            .map(|c| {
                                c.as_int()
                                    .ok_or_else(|| SpecError::new("sweep_cores: integers"))
                            })
                            .collect()
                    })
                    .transpose()?
                    .unwrap_or_default(),
            }
        }
    };
    Ok(ScenarioSpec {
        name,
        description: root
            .get("description")
            .and_then(|v| v.as_str())
            .unwrap_or("")
            .to_string(),
        kind,
        base_n: req_int(root, "base_n", what)?,
        seed: req_int(root, "seed", what)?,
        regions,
        phases,
        nests,
        run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{builtin_spec, builtin_specs, BUILTIN_SCENARIOS};

    #[test]
    fn count_expr_round_trip() {
        for expr in [
            CountExpr::n(),
            CountExpr::n_plus(1),
            CountExpr::n_plus(-1),
            CountExpr::fixed(1024),
            CountExpr { per_n: 2, plus: 8 },
            CountExpr { per_n: 3, plus: -4 },
        ] {
            assert_eq!(CountExpr::parse(&expr.render()).unwrap(), expr);
        }
        assert_eq!(
            CountExpr::parse("2*n+8").unwrap(),
            CountExpr { per_n: 2, plus: 8 }
        );
        assert!(CountExpr::parse("banana").is_err());
    }

    #[test]
    fn count_expr_eval() {
        assert_eq!(CountExpr::n_plus(1).eval(100), 101);
        assert_eq!(CountExpr::fixed(256).eval(100), 256);
        assert_eq!(CountExpr { per_n: 2, plus: 8 }.eval(5), 18);
    }

    /// Every embedded file is named for its scenario, validates, and
    /// is canonical: text -> spec -> text is byte-identical, so the
    /// files `helix export` copies out are the files a spec serializes
    /// to.
    #[test]
    fn builtin_specs_validate_and_round_trip() {
        let specs = builtin_specs();
        assert_eq!(specs.len(), BUILTIN_SCENARIOS.len());
        for (spec, (name, text)) in specs.iter().zip(BUILTIN_SCENARIOS) {
            assert_eq!(
                spec.name, name,
                "embedded file {name} names another scenario"
            );
            spec.validate().expect(name);
            assert_eq!(
                spec.to_toml(),
                text,
                "{name}: the committed file is not canonical"
            );
        }
    }

    #[test]
    fn builtin_lookup() {
        assert!(builtin_spec("175.vpr").is_some());
        assert!(builtin_spec("nope").is_none());
    }

    #[test]
    fn validation_rejects_broken_specs() {
        let mut spec = builtin_spec("175.vpr").unwrap();
        spec.phases.push(PhaseSpec::Fill {
            region: "no_such_region".into(),
            count: CountExpr::n(),
            seed: 1,
        });
        assert!(spec.validate().is_err());

        let mut spec = builtin_spec("256.bzip2").unwrap();
        // Mask exceeding the 256-word freq table.
        if let PhaseSpec::HotLoop(hl) = &mut spec.phases[2] {
            hl.ops[1] = OpSpec::Table {
                region: "freq".into(),
                shift: 0,
                mask: 4095,
                op: UpdateOp::Add,
                value: UpdateValue::One,
            };
        } else {
            panic!("expected hot loop");
        }
        assert!(spec.validate().is_err());

        let mut spec = builtin_spec("164.gzip").unwrap();
        // Carry op without a carry declaration.
        if let PhaseSpec::HotLoop(hl) = &mut spec.phases[2] {
            hl.carry = None;
        }
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validation_rejects_mask_exceeding_scaled_region() {
        // A mask can outgrow a region even when the region scales with
        // n: "sorted" holds n+1 = 101 words at base_n = 100, far fewer
        // than mask 255 can index.
        let mut spec = builtin_spec("256.bzip2").unwrap();
        spec.base_n = 100;
        if let PhaseSpec::HotLoop(hl) = &mut spec.phases[2] {
            if let OpSpec::Table { region, .. } = &mut hl.ops[1] {
                *region = "sorted".into();
            } else {
                panic!("expected table op");
            }
        } else {
            panic!("expected hot loop");
        }
        let err = spec.validate().unwrap_err();
        assert!(err.message.contains("mask 255"), "{err}");
    }

    #[test]
    fn validation_descends_into_guarded_var_work() {
        // A var_work hidden in a guard branch still bakes a full-length
        // work table, so an undersized region must be rejected.
        let mut spec = builtin_spec("910.bursty").unwrap();
        spec.regions.push(RegionSpec {
            name: "tiny".into(),
            size: CountExpr::fixed(4),
            elem: ElemTy::I64,
        });
        if let PhaseSpec::HotLoop(hl) = &mut spec.phases[2] {
            hl.ops.push(OpSpec::Guard {
                mask: 1,
                then_ops: vec![OpSpec::VarWork {
                    region: "tiny".into(),
                    dist: Distribution::Fixed { value: 3 },
                }],
                else_ops: vec![],
            });
        } else {
            panic!("expected hot loop");
        }
        let err = spec.validate().unwrap_err();
        assert!(err.message.contains("tiny"), "{err}");
    }

    #[test]
    fn validation_rejects_extreme_distribution_parameters() {
        let mut spec = builtin_spec("910.bursty").unwrap();
        if let PhaseSpec::HotLoop(hl) = &mut spec.phases[2] {
            hl.ops[0] = OpSpec::VarWork {
                region: "lengths".into(),
                dist: Distribution::Uniform {
                    lo: i64::MIN,
                    hi: 0,
                },
            };
        } else {
            panic!("expected hot loop");
        }
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validation_rejects_undersized_pair_force_atoms() {
        // fp_pair_force touches atoms[0..2*count]; a region holding only
        // count words must fail validation, not the simulator.
        let mut spec = builtin_spec("188.ammp").unwrap();
        spec.regions[0].size = CountExpr::n();
        let err = spec.validate().unwrap_err();
        assert!(err.message.contains("atoms"), "{err}");
    }

    #[test]
    fn validation_rejects_negative_masks_and_shifts() {
        let break_table = |f: &mut dyn FnMut(&mut OpSpec)| {
            let mut spec = builtin_spec("256.bzip2").unwrap();
            if let PhaseSpec::HotLoop(hl) = &mut spec.phases[2] {
                f(&mut hl.ops[1]);
            } else {
                panic!("expected hot loop");
            }
            spec
        };
        let neg_mask = break_table(&mut |op| {
            if let OpSpec::Table { mask, .. } = op {
                *mask = -1;
            }
        });
        assert!(neg_mask.validate().unwrap_err().message.contains("mask"));
        let neg_shift = break_table(&mut |op| {
            if let OpSpec::Table { shift, .. } = op {
                *shift = -10;
            }
        });
        assert!(neg_shift.validate().unwrap_err().message.contains("shift"));
    }

    #[test]
    fn parse_rejects_non_positive_fuel() {
        let spec = builtin_spec("164.gzip").unwrap();
        let text = spec.to_toml().replace("fuel = 134217728", "fuel = -1");
        let err = ScenarioSpec::from_toml(&text).unwrap_err();
        assert!(err.message.contains("fuel"), "{err}");
    }

    #[test]
    fn parse_reports_unknown_kinds() {
        let bad =
            "name = \"x\"\nkind = \"int\"\nbase_n = 10\nseed = 1\n[[phase]]\nkind = \"warp\"\n";
        let err = ScenarioSpec::from_toml(bad).unwrap_err();
        assert!(err.message.contains("warp"), "{err}");
    }

    #[test]
    fn multi_nest_builtins_validate_and_round_trip() {
        for name in ["950.twonest", "960.cov_hi", "970.pipeline"] {
            let spec = builtin_spec(name).unwrap_or_else(|| panic!("no builtin {name}"));
            assert!(spec.nests.len() >= 2, "{name} should be multi-nest");
            assert!(spec.phases.is_empty(), "{name}: nests exclude phases");
            spec.validate().expect(name);
            let text = spec.to_toml();
            let parsed =
                ScenarioSpec::from_toml(&text).unwrap_or_else(|e| panic!("{name}: {e}\n{text}"));
            assert_eq!(parsed, spec, "round trip failed for {name}");
        }
    }

    #[test]
    fn validation_rejects_phases_alongside_nests() {
        let mut spec = builtin_spec("950.twonest").unwrap();
        spec.phases.push(PhaseSpec::Fill {
            region: "src".into(),
            count: CountExpr::n(),
            seed: 1,
        });
        let err = spec.validate().unwrap_err();
        assert!(err.message.contains("not both"), "{err}");
    }

    #[test]
    fn validation_rejects_nest_region_shadowing() {
        let mut spec = builtin_spec("950.twonest").unwrap();
        // "src" is a shared region; a nest-private region of the same
        // name would make the flat region-id space ambiguous.
        spec.nests[1].regions.push(RegionSpec {
            name: "src".into(),
            size: CountExpr::fixed(8),
            elem: ElemTy::I64,
        });
        let err = spec.validate().unwrap_err();
        assert!(err.message.contains("shadows"), "{err}");
    }

    #[test]
    fn validation_scopes_private_regions_to_their_nest() {
        let mut spec = builtin_spec("950.twonest").unwrap();
        // "links" is private to the "scan" nest; the "build" nest must
        // not be able to reference it.
        spec.nests[0].phases.push(PhaseSpec::Fill {
            region: "links".into(),
            count: CountExpr::fixed(8),
            seed: 1,
        });
        let err = spec.validate().unwrap_err();
        assert!(
            err.message.contains("links") && err.message.contains("build"),
            "{err}"
        );
    }

    #[test]
    fn validation_rejects_carried_state_in_private_or_float_regions() {
        let mut spec = builtin_spec("950.twonest").unwrap();
        // Export through a nest-private region: the next nest's glue
        // could never see it.
        spec.nests[0].export = Some("stage".into());
        let err = spec.validate().unwrap_err();
        assert!(err.message.contains("shared"), "{err}");

        let mut spec = builtin_spec("950.twonest").unwrap();
        spec.regions.push(RegionSpec {
            name: "fbox".into(),
            size: CountExpr::fixed(8),
            elem: ElemTy::F64,
        });
        spec.nests[1].import = Some("fbox".into());
        let err = spec.validate().unwrap_err();
        assert!(err.message.contains("i64"), "{err}");
    }

    #[test]
    fn validation_rejects_negative_glue() {
        let mut spec = builtin_spec("950.twonest").unwrap();
        spec.nests[1].glue = CountExpr::fixed(-5);
        let err = spec.validate().unwrap_err();
        assert!(err.message.contains("glue"), "{err}");
    }

    #[test]
    fn validation_rejects_duplicate_and_unnamed_nests() {
        let mut spec = builtin_spec("950.twonest").unwrap();
        spec.nests[1].name = spec.nests[0].name.clone();
        assert!(spec.validate().is_err());

        let mut spec = builtin_spec("950.twonest").unwrap();
        spec.nests[0].name = String::new();
        assert!(spec.validate().is_err());
    }
}
