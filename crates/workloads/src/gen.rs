//! Scenario generation: lower a [`ScenarioSpec`] to a
//! [`helix_ir::Program`] through the shared construction helpers in
//! [`crate::common`].
//!
//! This is the *only* program constructor in the workspace: the SPEC
//! stand-ins and every other built-in are the committed
//! `scenarios/*.toml` files ([`crate::BUILTIN_SCENARIOS`]) lowered
//! through here. Generation is a pure function of
//! `(spec, scale)` — distribution-driven tables are sampled host-side
//! with a seeded [`SplitMix64`](helix_ir::rng::SplitMix64) — so the same
//! spec file always yields the same program and the same report.

use crate::common::{doall_phase, fill_hash, masked, table_update, Scale};
use crate::spec::{
    CarryOp, CarryOperand, HotLoopSpec, OpSpec, PhaseSpec, RegionSpec, ScenarioSpec, SpecError,
    UpdateOp, UpdateValue,
};
use helix_ir::{
    AddrExpr, BinOp, InstSite, Intrinsic, Operand, Program, ProgramBuilder, Reg, RegionId, Ty, UnOp,
};

/// Block-id range and cut points of one loop nest in a generated
/// program.
///
/// Boundaries are half-open `[first_block, end_block)` over the
/// program's block ids. Every loop header created while lowering the
/// nest (including its serial glue) lies inside the range; the handful
/// of straight-line instructions a nest prepends (glue seeding,
/// carried-state loads) land in the previous nest's exit block, which
/// is irrelevant for mapping *loops* — the only thing the compiler
/// parallelizes — onto nests.
///
/// A *cut* is the site where [`generate_prefix`] ends its program with
/// a `ret`; in the composed program the same site holds the next
/// instruction, or the block's terminator. A sequential run that records
/// the cycle at which it reaches each cut (`Machine::with_cuts` in
/// `helix-sim`) measures every nest's in-context weight in one
/// simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NestBoundary {
    /// Nest name from the spec.
    pub name: String,
    /// First block id created for this nest.
    pub first_block: usize,
    /// One past the last block id created for this nest.
    pub end_block: usize,
    /// The cut after this nest's serial glue and import store, when it
    /// has either.
    pub glue_cut: Option<InstSite>,
    /// The cut after this nest's phases; `None` for the last nest,
    /// whose end is the end of the program.
    pub end_cut: Option<InstSite>,
}

impl NestBoundary {
    /// Whether `block` (a block id index) falls inside this nest.
    pub fn contains(&self, block: usize) -> bool {
        (self.first_block..self.end_block).contains(&block)
    }

    /// This nest's cuts in program order: after the glue, after the
    /// phases.
    pub fn cuts(&self) -> impl Iterator<Item = InstSite> {
        self.glue_cut.into_iter().chain(self.end_cut)
    }
}

/// Lower `spec` at `scale` to an executable program.
///
/// Validates first, so a malformed spec fails with a message instead of
/// a builder panic.
///
/// # Examples
///
/// ```
/// use helix_workloads::{builtin_spec, generate, Scale};
///
/// let spec = builtin_spec("175.vpr").unwrap();
/// let program = generate(&spec, Scale::Test)?;
/// assert!(program.validate().is_ok());
/// // Same spec, same scale => bit-identical program.
/// assert_eq!(program, generate(&spec, Scale::Test)?);
/// # Ok::<(), helix_workloads::SpecError>(())
/// ```
pub fn generate(spec: &ScenarioSpec, scale: Scale) -> Result<Program, SpecError> {
    Ok(generate_with_nests(spec, scale)?.0)
}

fn declare_regions(b: &mut ProgramBuilder, regions: &[RegionSpec], n: i64) -> Vec<RegionId> {
    regions
        .iter()
        .map(|r| b.region(r.name.clone(), r.size.eval(n) as u64 * 8, r.elem.ty()))
        .collect()
}

/// Lower `spec` at `scale`, also returning the block-id boundary and
/// cut points of every loop nest (empty for classic single-pipeline
/// scenarios).
///
/// Single-pipeline specs take exactly the historical lowering path, so
/// their programs stay bit-identical to what earlier revisions
/// generated. Multi-nest specs lower as: shared regions, every nest's
/// private regions, then per nest — serial glue (seeded from the most
/// recent exported region, or `seed + nest_index`), the optional import
/// store, and the nest's phase pipeline.
pub fn generate_with_nests(
    spec: &ScenarioSpec,
    scale: Scale,
) -> Result<(Program, Vec<NestBoundary>), SpecError> {
    spec.validate()?;
    let n = scale.n(spec.base_n);
    let mut b = ProgramBuilder::new(spec.name.clone());
    let shared_ids = declare_regions(&mut b, &spec.regions, n);

    if spec.nests.is_empty() {
        let cx = Cx {
            regions: spec.regions.iter().collect(),
            ids: shared_ids,
            n,
            seed: spec.seed,
        };
        for phase in &spec.phases {
            cx.lower_phase(&mut b, phase);
        }
        return Ok((b.finish(), Vec::new()));
    }

    let boundaries = lower_multi_nest(&mut b, spec, shared_ids, n, spec.nests.len(), false);
    Ok((b.finish(), boundaries))
}

/// Shared multi-nest lowering: emit nests `0..nests` in full and, when
/// `glue_of_next` is set, the glue/import preamble of nest `nests`
/// without its phases. Returns the boundary of every fully-lowered
/// nest, with its cuts: the builder's insertion point after its glue
/// and import, and after its phases unless it is the spec's last nest. The builder must already hold the shared region declarations;
/// this declares every nest's private regions (so the memory layout is
/// identical for every cut of the same spec).
fn lower_multi_nest(
    b: &mut ProgramBuilder,
    spec: &ScenarioSpec,
    shared_ids: Vec<RegionId>,
    n: i64,
    nests: usize,
    glue_of_next: bool,
) -> Vec<NestBoundary> {
    let nest_ids: Vec<Vec<RegionId>> = spec
        .nests
        .iter()
        .map(|nest| declare_regions(b, &nest.regions, n))
        .collect();
    let shared_rid = |name: &str| -> RegionId {
        let ix = spec
            .regions
            .iter()
            .position(|r| r.name == name)
            .expect("validated shared region reference");
        shared_ids[ix]
    };

    let mut boundaries = Vec::new();
    // Region whose word 0 carries state out of the most recent
    // exporting nest; the next glue/import consumes it.
    let mut carried: Option<RegionId> = None;
    let upto = if glue_of_next { nests + 1 } else { nests };
    for (k, nest) in spec.nests.iter().enumerate().take(upto) {
        let first_block = b.block_count();
        let glue = nest.glue.eval(n);
        let mut glue_cut = None;
        if glue > 0 || nest.import.is_some() {
            let acc = b.reg();
            match carried {
                Some(rid) => b.load(acc, AddrExpr::region(rid, 0), Ty::I64),
                None => b.const_i(acc, spec.seed.wrapping_add(k as i64)),
            }
            if glue > 0 {
                b.serial_glue(acc, glue);
            }
            if let Some(import) = &nest.import {
                b.store(acc, AddrExpr::region(shared_rid(import), 0), Ty::I64);
            }
            glue_cut = Some(b.insertion_point());
        }
        if k == nests {
            break; // glue-only cut: the phases of nest `nests` are excluded
        }
        let cx = Cx {
            regions: spec.regions.iter().chain(&nest.regions).collect(),
            ids: shared_ids.iter().chain(&nest_ids[k]).copied().collect(),
            n,
            seed: spec.seed,
        };
        for phase in &nest.phases {
            cx.lower_phase(b, phase);
        }
        boundaries.push(NestBoundary {
            name: nest.name.clone(),
            first_block,
            end_block: b.block_count(),
            glue_cut,
            end_cut: (k + 1 < spec.nests.len()).then(|| b.insertion_point()),
        });
        if let Some(export) = &nest.export {
            carried = Some(shared_rid(export));
        }
    }
    boundaries
}

/// Lower a *prefix* of a multi-nest spec: nests `0..nests` in full
/// (glue, carried state, phases — exactly as [`generate_with_nests`]
/// emits them), plus, when `glue_of_next` is set, the glue/import
/// preamble of nest `nests` without its phases.
///
/// Because multi-nest lowering only ever appends, a prefix program
/// executes identically to the composed program up to its cut point
/// (the [`NestBoundary`] cut it ends at). Reports do not simulate
/// prefixes: they read each cut's cycle from the whole program's one
/// sequential run. Prefix programs are the independent oracle for those
/// marks — a prefix's sequential cycle count equals the whole run's mark
/// at its cut (`tests/nest_marks.rs`), so differencing successive
/// prefixes gives the same in-context weights.
pub fn generate_prefix(
    spec: &ScenarioSpec,
    scale: Scale,
    nests: usize,
    glue_of_next: bool,
) -> Result<Program, SpecError> {
    spec.validate()?;
    if nests > spec.nests.len() || (glue_of_next && nests == spec.nests.len()) {
        return Err(SpecError::new(format!(
            "{}: prefix of {nests} nests out of range ({} nests)",
            spec.name,
            spec.nests.len()
        )));
    }
    let n = scale.n(spec.base_n);
    let mut b = ProgramBuilder::new(spec.name.clone());
    let shared_ids = declare_regions(&mut b, &spec.regions, n);
    lower_multi_nest(&mut b, spec, shared_ids, n, nests, glue_of_next);
    Ok(b.finish())
}

/// Lower one nest of `spec` in isolation: all regions are declared (so
/// the memory layout matches the composed program) but only nest
/// `nest_ix`'s phases are emitted — no glue, no carried state.
///
/// This is the per-nest measurement program behind the campaign's
/// derived metrics: simulating it sequentially yields the nest's
/// coverage weight, and compiling + simulating it under HELIX-RC yields
/// the per-nest speedup. Carried-in state is absent in isolation
/// (imports read as zero), which perturbs data values but not the
/// loop/phase structure the timing measurement is about.
pub fn generate_nest(
    spec: &ScenarioSpec,
    scale: Scale,
    nest_ix: usize,
) -> Result<Program, SpecError> {
    spec.validate()?;
    let nest = spec.nests.get(nest_ix).ok_or_else(|| {
        SpecError::new(format!(
            "{}: no nest #{nest_ix} ({} nests)",
            spec.name,
            spec.nests.len()
        ))
    })?;
    let n = scale.n(spec.base_n);
    let mut b = ProgramBuilder::new(format!("{}::{}", spec.name, nest.name));
    let shared_ids = declare_regions(&mut b, &spec.regions, n);
    let nest_ids: Vec<Vec<RegionId>> = spec
        .nests
        .iter()
        .map(|nest| declare_regions(&mut b, &nest.regions, n))
        .collect();
    let cx = Cx {
        regions: spec.regions.iter().chain(&nest.regions).collect(),
        ids: shared_ids
            .iter()
            .chain(&nest_ids[nest_ix])
            .copied()
            .collect(),
        n,
        seed: spec.seed,
    };
    for phase in &nest.phases {
        cx.lower_phase(&mut b, phase);
    }
    Ok(b.finish())
}

/// Lowering context: the regions visible to the pipeline being lowered
/// (shared + the current nest's private regions), their resolved ids,
/// the scaled problem size, and the emission seed.
struct Cx<'a> {
    regions: Vec<&'a RegionSpec>,
    ids: Vec<RegionId>,
    n: i64,
    seed: i64,
}

impl Cx<'_> {
    /// Region id by name (the spec is validated, so lookups succeed).
    fn rid(&self, name: &str) -> RegionId {
        let ix = self
            .regions
            .iter()
            .position(|r| r.name == name)
            .expect("validated region reference");
        self.ids[ix]
    }

    /// Word count of a region at the current scale.
    fn words(&self, name: &str) -> i64 {
        let r = self
            .regions
            .iter()
            .find(|r| r.name == name)
            .expect("validated region reference");
        r.size.eval(self.n)
    }

    fn lower_phase(&self, b: &mut ProgramBuilder, phase: &PhaseSpec) {
        match phase {
            PhaseSpec::Fill {
                region,
                count,
                seed,
            } => fill_hash(b, self.rid(region), count.eval(self.n), *seed),
            PhaseSpec::Doall {
                input,
                output,
                count,
                work,
            } => doall_phase(
                b,
                self.rid(input),
                self.rid(output),
                count.eval(self.n),
                *work as usize,
            ),
            PhaseSpec::HotLoop(hl) => self.lower_hot_loop(b, hl),
            PhaseSpec::ArcRelax {
                tail,
                head,
                cost,
                pot,
                out,
                trips,
                nodes,
                chain,
            } => self.lower_arc_relax(
                b,
                self.rid(tail),
                self.rid(head),
                self.rid(cost),
                self.rid(pot),
                self.rid(out),
                trips.eval(self.n),
                *nodes,
                *chain as usize,
            ),
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
            } => self.lower_anneal(
                b,
                self.rid(cells),
                self.rid(table),
                self.rid(out),
                outer.eval(self.n),
                *inner,
                *stride,
                *slot_mask,
                *chain as usize,
                *table_mask,
            ),
            PhaseSpec::FpElements {
                disp,
                vel,
                elements,
                trip,
            } => self.lower_fp_elements(
                b,
                self.rid(disp),
                self.rid(vel),
                elements.eval(self.n),
                *trip,
            ),
            PhaseSpec::FpNormalize {
                layer,
                pre,
                out,
                count,
                mask,
            } => self.lower_fp_normalize(
                b,
                self.rid(layer),
                self.rid(pre),
                self.rid(out),
                count.eval(self.n),
                *mask,
            ),
            PhaseSpec::FpPairForce {
                atoms,
                forces,
                count,
                chain,
            } => self.lower_fp_pair_force(
                b,
                self.rid(atoms),
                self.rid(forces),
                count.eval(self.n),
                *chain as usize,
            ),
            PhaseSpec::FpSpan {
                frame,
                zbuf,
                count,
                heavy_mask,
                heavy_chain,
            } => self.lower_fp_span(
                b,
                self.rid(frame),
                self.rid(zbuf),
                count.eval(self.n),
                *heavy_mask,
                *heavy_chain as usize,
            ),
        }
    }

    // -----------------------------------------------------------------
    // Generic irregular hot loop
    // -----------------------------------------------------------------

    fn lower_hot_loop(&self, b: &mut ProgramBuilder, hl: &HotLoopSpec) {
        let trips = hl.trips.eval(self.n);
        // Bake distribution tables first: one per var_work op, seeded
        // from the scenario seed and the op's position so two tables in
        // one loop draw independent streams.
        let mut table_ix = 0u64;
        self.bake_var_work_tables(b, &hl.ops, trips, &mut table_ix);
        let carry = hl.carry.as_ref().map(|c| {
            let r = b.reg();
            b.const_i(r, c.init);
            r
        });
        b.counted_loop(0, trips, 1, |b, i| {
            let mut cur = hl.input.as_ref().map(|input| {
                let x = b.reg();
                b.load(
                    x,
                    AddrExpr::region_indexed(self.rid(input), i, 8, 0),
                    Ty::I64,
                );
                x
            });
            self.emit_ops(b, &hl.ops, i, &mut cur, carry);
        });
        if let Some(c) = &hl.carry {
            b.store(
                carry.expect("carry register allocated"),
                AddrExpr::region(self.rid(&c.out), 0),
                Ty::I64,
            );
        }
    }

    fn bake_var_work_tables(
        &self,
        b: &mut ProgramBuilder,
        ops: &[OpSpec],
        trips: i64,
        table_ix: &mut u64,
    ) {
        for op in ops {
            match op {
                OpSpec::VarWork { region, dist } => {
                    let seed = (self.seed as u64)
                        .wrapping_add(table_ix.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    b.init_region_from_dist(self.rid(region), trips, *dist, seed);
                    *table_ix += 1;
                }
                OpSpec::Guard {
                    then_ops, else_ops, ..
                } => {
                    self.bake_var_work_tables(b, then_ops, trips, table_ix);
                    self.bake_var_work_tables(b, else_ops, trips, table_ix);
                }
                _ => {}
            }
        }
    }

    /// Emit the body operations. `cur` is the implicit current-value
    /// register; guard branches receive a copy, so value changes inside
    /// a branch stay local to it (there is no phi to merge them).
    fn emit_ops(
        &self,
        b: &mut ProgramBuilder,
        ops: &[OpSpec],
        i: Reg,
        cur: &mut Option<Reg>,
        carry: Option<Reg>,
    ) {
        let want = |cur: &Option<Reg>| cur.expect("validated: op has a current value");
        for op in ops {
            match op {
                OpSpec::Work { insts } => {
                    b.alu_chain(want(cur), *insts as usize);
                }
                OpSpec::Stream { region, stride } => {
                    let rid = self.rid(region);
                    let mask = self.words(region) - 1;
                    let j = b.reg();
                    b.bin(j, BinOp::Mul, i, *stride);
                    b.bin(j, BinOp::And, j, mask);
                    let x = b.reg();
                    b.load(x, AddrExpr::region_indexed(rid, j, 8, 0), Ty::I64);
                    b.bin(x, BinOp::Add, x, i);
                    b.store(x, AddrExpr::region_indexed(rid, j, 8, 0), Ty::I64);
                    *cur = Some(x);
                }
                OpSpec::Table {
                    region,
                    shift,
                    mask,
                    op,
                    value,
                } => {
                    let x = want(cur);
                    let h = b.reg();
                    if *shift > 0 {
                        b.bin(h, BinOp::Shr, x, *shift);
                        b.bin(h, BinOp::And, h, *mask);
                    } else {
                        masked(b, h, x, *mask);
                    }
                    let binop = match op {
                        UpdateOp::Add => BinOp::Add,
                        UpdateOp::Xor => BinOp::Xor,
                    };
                    match value {
                        UpdateValue::One => table_update(b, self.rid(region), h, 1i64, binop),
                        UpdateValue::Cur => table_update(b, self.rid(region), h, x, binop),
                    }
                }
                OpSpec::ChainHead { region, mask } => {
                    let rid = self.rid(region);
                    let h = b.reg();
                    masked(b, h, want(cur), *mask);
                    let prev = b.reg();
                    b.load(prev, AddrExpr::region_indexed(rid, h, 8, 0), Ty::I64);
                    b.store(i, AddrExpr::region_indexed(rid, h, 8, 0), Ty::I64);
                    *cur = Some(prev);
                }
                OpSpec::Guard {
                    mask,
                    then_ops,
                    else_ops,
                } => {
                    let c = b.reg();
                    b.bin(c, BinOp::And, want(cur), *mask);
                    let mut then_cur = *cur;
                    let mut else_cur = *cur;
                    b.if_else(
                        c,
                        |b| self.emit_ops(b, then_ops, i, &mut then_cur, carry),
                        |b| self.emit_ops(b, else_ops, i, &mut else_cur, carry),
                    );
                }
                OpSpec::Carry { op, operand } => {
                    let reg = carry.expect("validated: loop declares a carry");
                    let rhs: Operand = match operand {
                        CarryOperand::Cur => Operand::Reg(want(cur)),
                        CarryOperand::Imm(v) => Operand::imm(*v),
                    };
                    let binop = match op {
                        CarryOp::Add => BinOp::Add,
                        CarryOp::Xor => BinOp::Xor,
                        CarryOp::Mul => BinOp::Mul,
                        CarryOp::Shl => BinOp::Shl,
                        CarryOp::Min => BinOp::MinI,
                    };
                    b.bin(reg, binop, reg, rhs);
                }
                OpSpec::Bump { region } => {
                    let rid = self.rid(region);
                    let a = b.reg();
                    b.load(a, AddrExpr::region(rid, 0), Ty::I64);
                    b.bin(a, BinOp::Add, a, 1i64);
                    b.store(a, AddrExpr::region(rid, 0), Ty::I64);
                }
                OpSpec::ScaleStore { region, factor } => {
                    let t = b.reg();
                    b.bin(t, BinOp::Mul, want(cur), *factor);
                    b.store(
                        t,
                        AddrExpr::region_indexed(self.rid(region), i, 8, 0),
                        Ty::I64,
                    );
                }
                OpSpec::Store { region } => {
                    b.store(
                        want(cur),
                        AddrExpr::region_indexed(self.rid(region), i, 8, 0),
                        Ty::I64,
                    );
                }
                OpSpec::PtrChase { region, hops, mask } => {
                    let rid = self.rid(region);
                    for _ in 0..*hops {
                        let h = b.reg();
                        b.bin(h, BinOp::And, want(cur), *mask);
                        let p = b.reg();
                        b.load(p, AddrExpr::region_indexed(rid, h, 8, 0), Ty::I64);
                        b.bin(p, BinOp::Add, p, 1i64);
                        b.store(p, AddrExpr::region_indexed(rid, h, 8, 0), Ty::I64);
                        *cur = Some(p);
                    }
                }
                OpSpec::VarWork { region, .. } => {
                    let x = want(cur);
                    let w = b.reg();
                    b.load(
                        w,
                        AddrExpr::region_indexed(self.rid(region), i, 8, 0),
                        Ty::I64,
                    );
                    b.counted_loop(0, Operand::Reg(w), 1, |b, _k| {
                        b.bin(x, BinOp::Add, x, 1i64);
                    });
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Benchmark-shaped templates (the SPEC stand-ins' loop shapes)
    // -----------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn lower_arc_relax(
        &self,
        b: &mut ProgramBuilder,
        tail: RegionId,
        head: RegionId,
        cost: RegionId,
        pot: RegionId,
        out: RegionId,
        trips: i64,
        nodes: i64,
        chain: usize,
    ) {
        let best = b.reg();
        b.const_i(best, i64::MAX);
        b.counted_loop(0, trips, 1, |b, i| {
            let [t, h] = b.regs();
            b.load(t, AddrExpr::region_indexed(tail, i, 8, 0), Ty::I64);
            b.bin(t, BinOp::And, t, nodes - 1);
            b.load(h, AddrExpr::region_indexed(head, i, 8, 0), Ty::I64);
            b.bin(h, BinOp::And, h, nodes - 1);
            let c = b.reg();
            b.load(c, AddrExpr::region_indexed(cost, i, 8, 0), Ty::I64);
            b.alu_chain(c, chain);
            let [pt, red] = b.regs();
            b.load(pt, AddrExpr::region_indexed(pot, t, 8, 0), Ty::I64);
            b.bin(red, BinOp::Add, c, pt);
            let ph = b.reg();
            b.load(ph, AddrExpr::region_indexed(pot, h, 8, 0), Ty::I64);
            b.bin(red, BinOp::Sub, red, ph);
            let neg = b.reg();
            b.bin(neg, BinOp::And, red, 1i64);
            b.if_then(neg, |b| {
                let upd = b.reg();
                b.bin(upd, BinOp::Add, ph, 1i64);
                b.store(upd, AddrExpr::region_indexed(pot, h, 8, 0), Ty::I64);
                b.bin(best, BinOp::MinI, best, red);
                b.bin(best, BinOp::Xor, best, 1i64);
            });
        });
        b.store(best, AddrExpr::region(out, 0), Ty::I64);
    }

    #[allow(clippy::too_many_arguments)]
    fn lower_anneal(
        &self,
        b: &mut ProgramBuilder,
        cells: RegionId,
        table: RegionId,
        out: RegionId,
        outer: i64,
        inner: i64,
        stride: i64,
        slot_mask: i64,
        chain: usize,
        table_mask: i64,
    ) {
        let temperature = b.reg();
        b.const_i(temperature, 1_000_003);
        b.counted_loop(0, outer, 1, |b, t| {
            b.bin(temperature, BinOp::Mul, temperature, 16807i64);
            b.bin(temperature, BinOp::Rem, temperature, 2147483647i64);
            let seed = b.reg();
            b.bin(seed, BinOp::Add, temperature, t);
            b.counted_loop(0, inner, 1, |b, i| {
                let j = b.reg();
                b.bin(j, BinOp::Mul, i, stride);
                b.bin(j, BinOp::Add, j, seed);
                b.bin(j, BinOp::And, j, slot_mask);
                let delta = b.reg();
                b.copy(delta, j);
                b.alu_chain(delta, chain);
                let x = b.reg();
                b.load(x, AddrExpr::region_indexed(cells, j, 8, 0), Ty::I64);
                b.bin(x, BinOp::Add, x, delta);
                b.store(x, AddrExpr::region_indexed(cells, j, 8, 0), Ty::I64);
                let h = b.reg();
                masked(b, h, delta, table_mask);
                table_update(b, table, h, 1i64, BinOp::Add);
            });
        });
        b.store(temperature, AddrExpr::region(out, 0), Ty::I64);
    }

    fn lower_fp_elements(
        &self,
        b: &mut ProgramBuilder,
        disp: RegionId,
        vel: RegionId,
        elements: i64,
        trip: i64,
    ) {
        b.counted_loop(0, trip, 1, |b, i| {
            let f = b.reg();
            b.un(f, UnOp::IntToF, i);
            b.store(f, AddrExpr::region_indexed(disp, i, 8, 0), Ty::F64);
            b.store(f, AddrExpr::region_indexed(vel, i, 8, 0), Ty::F64);
        });
        let phase = b.reg();
        b.const_i(phase, 3);
        b.counted_loop(0, elements, 1, |b, e| {
            b.bin(phase, BinOp::Mul, phase, 31i64);
            b.bin(phase, BinOp::Xor, phase, e);
            b.counted_loop(0, trip, 1, |b, i| {
                let [d, v] = b.regs();
                b.load(d, AddrExpr::region_indexed(disp, i, 8, 0), Ty::F64);
                b.load(v, AddrExpr::region_indexed(vel, i, 8, 0), Ty::F64);
                b.bin(v, BinOp::FMul, v, Operand::fimm(2.0));
                b.bin(d, BinOp::FAdd, d, v);
                let s = b.reg();
                b.call(Some(s), Intrinsic::SinApprox, vec![Operand::Reg(d)]);
                b.bin(d, BinOp::FAdd, d, s);
                let t = b.reg();
                b.bin(t, BinOp::FMul, d, Operand::fimm(0.5));
                b.store(t, AddrExpr::region_indexed(disp, i, 8, 0), Ty::F64);
            });
        });
    }

    fn lower_fp_normalize(
        &self,
        b: &mut ProgramBuilder,
        layer: RegionId,
        pre: RegionId,
        out: RegionId,
        count: i64,
        mask: i64,
    ) {
        b.counted_loop(0, count, 1, |b, i| {
            let [x, f] = b.regs();
            b.load(x, AddrExpr::region_indexed(pre, i, 8, 0), Ty::I64);
            b.bin(x, BinOp::And, x, mask);
            b.un(f, UnOp::IntToF, x);
            b.store(f, AddrExpr::region_indexed(layer, i, 8, 0), Ty::F64);
        });
        let best = b.reg();
        b.const_f(best, f64::NEG_INFINITY);
        b.counted_loop(0, count, 1, |b, i| {
            let v = b.reg();
            b.load(v, AddrExpr::region_indexed(layer, i, 8, 0), Ty::F64);
            b.bin(v, BinOp::FMul, v, Operand::fimm(0.25));
            b.bin(v, BinOp::FAdd, v, Operand::fimm(1.0));
            let s = b.reg();
            b.call(Some(s), Intrinsic::SinApprox, vec![Operand::Reg(v)]);
            let w = b.reg();
            b.bin(w, BinOp::FMul, v, v);
            b.bin(w, BinOp::FAdd, w, s);
            b.store(w, AddrExpr::region_indexed(layer, i, 8, 0), Ty::F64);
            b.bin(best, BinOp::FMax, best, w);
        });
        b.store(best, AddrExpr::region(out, 0), Ty::F64);
    }

    fn lower_fp_pair_force(
        &self,
        b: &mut ProgramBuilder,
        atoms: RegionId,
        forces: RegionId,
        count: i64,
        chain: usize,
    ) {
        b.counted_loop(0, 2 * count, 1, |b, i| {
            let f = b.reg();
            b.un(f, UnOp::IntToF, i);
            b.store(f, AddrExpr::region_indexed(atoms, i, 8, 0), Ty::F64);
        });
        let [tri, stepv] = b.regs();
        b.const_i(tri, 0);
        b.const_i(stepv, 0);
        b.counted_loop(0, count, 1, |b, i| {
            b.bin(tri, BinOp::Add, tri, stepv);
            b.bin(stepv, BinOp::Add, stepv, 1i64);
            let j = b.reg();
            b.bin(j, BinOp::And, tri, 2 * (count - 1));
            let [x, y] = b.regs();
            b.load(x, AddrExpr::region_indexed(atoms, i, 8, 0), Ty::F64);
            b.load(y, AddrExpr::region_indexed(atoms, j, 8, 8), Ty::F64);
            b.bin(x, BinOp::FAdd, x, y);
            let s = b.reg();
            b.call(Some(s), Intrinsic::SinApprox, vec![Operand::Reg(x)]);
            b.bin(x, BinOp::FAdd, x, s);
            b.bin(x, BinOp::FMul, x, Operand::fimm(0.5));
            b.store(x, AddrExpr::region_indexed(forces, i, 8, 0), Ty::F64);
            b.alu_chain(j, chain);
        });
    }

    fn lower_fp_span(
        &self,
        b: &mut ProgramBuilder,
        frame: RegionId,
        zbuf: RegionId,
        count: i64,
        heavy_mask: i64,
        heavy_chain: usize,
    ) {
        b.counted_loop(0, count, 1, |b, i| {
            let z = b.reg();
            b.load(z, AddrExpr::region_indexed(zbuf, i, 8, 0), Ty::I64);
            let f = b.reg();
            b.un(f, UnOp::IntToF, z);
            let heavy = b.reg();
            b.bin(heavy, BinOp::And, i, heavy_mask);
            let is_heavy = b.reg();
            b.bin(is_heavy, BinOp::CmpLt, heavy, 1i64);
            b.if_else(
                is_heavy,
                |b| {
                    let acc = b.reg();
                    b.copy(acc, 0i64);
                    b.alu_chain(acc, heavy_chain);
                    let g = b.reg();
                    b.un(g, UnOp::IntToF, acc);
                    b.bin(g, BinOp::FAdd, g, f);
                    b.store(g, AddrExpr::region_indexed(frame, i, 8, 0), Ty::F64);
                },
                |b| {
                    let s = b.reg();
                    b.call(Some(s), Intrinsic::SinApprox, vec![Operand::Reg(f)]);
                    b.bin(f, BinOp::FMul, f, Operand::fimm(0.125));
                    b.bin(f, BinOp::FAdd, f, s);
                    b.store(f, AddrExpr::region_indexed(frame, i, 8, 0), Ty::F64);
                },
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{builtin_spec, builtin_specs};
    use helix_ir::interp::{run_to_completion, Env};

    #[test]
    fn all_builtin_specs_generate_valid_runnable_programs() {
        for spec in builtin_specs() {
            let p = generate(&spec, Scale::Test).expect(&spec.name);
            assert!(p.validate().is_ok(), "{}", spec.name);
            let mut env = Env::for_program(&p);
            let t = run_to_completion(&p, &mut env).expect(&spec.name);
            assert!(
                t.dyn_insts > 5_000,
                "{} too small: {}",
                spec.name,
                t.dyn_insts
            );
        }
    }

    /// Same spec + seed => bit-identical program and execution.
    #[test]
    fn generation_is_deterministic() {
        for name in ["910.bursty", "900.chase", "920.blend"] {
            let spec = builtin_spec(name).unwrap();
            let p1 = generate(&spec, Scale::Test).unwrap();
            let p2 = generate(&spec, Scale::Test).unwrap();
            assert_eq!(p1, p2, "{name}");
            let mut e1 = Env::for_program(&p1);
            let mut e2 = Env::for_program(&p2);
            run_to_completion(&p1, &mut e1).unwrap();
            run_to_completion(&p2, &mut e2).unwrap();
            assert_eq!(e1.mem.digest(), e2.mem.digest(), "{name}");
        }
    }

    /// A different seed must actually change a distribution-driven
    /// program (the work table is baked from the seed).
    #[test]
    fn seed_changes_distribution_tables() {
        let spec = builtin_spec("910.bursty").unwrap();
        let mut reseeded = spec.clone();
        reseeded.seed += 1;
        let p1 = generate(&spec, Scale::Test).unwrap();
        let p2 = generate(&reseeded, Scale::Test).unwrap();
        assert_ne!(p1, p2);
    }

    #[test]
    fn generate_rejects_invalid_specs() {
        let mut spec = builtin_spec("175.vpr").unwrap();
        spec.regions.remove(1); // drop "grid"
        assert!(generate(&spec, Scale::Test).is_err());
    }

    /// Single-pipeline specs must report no nest boundaries (they take
    /// the historical lowering path bit for bit).
    #[test]
    fn single_nest_specs_have_no_boundaries() {
        for name in ["175.vpr", "930.zipf"] {
            let spec = builtin_spec(name).unwrap();
            let (program, boundaries) = generate_with_nests(&spec, Scale::Test).unwrap();
            assert!(boundaries.is_empty(), "{name}");
            assert_eq!(program, generate(&spec, Scale::Test).unwrap(), "{name}");
        }
    }

    /// Multi-nest lowering is deterministic and records ordered,
    /// non-overlapping boundaries that cover every loop in the program.
    #[test]
    fn multi_nest_boundaries_are_ordered_and_runnable() {
        for name in ["950.twonest", "970.pipeline", "962.cov_lo"] {
            let spec = builtin_spec(name).unwrap();
            let (p1, b1) = generate_with_nests(&spec, Scale::Test).unwrap();
            let (p2, b2) = generate_with_nests(&spec, Scale::Test).unwrap();
            assert_eq!(p1, p2, "{name}: lowering must be deterministic");
            assert_eq!(b1, b2, "{name}");
            assert_eq!(b1.len(), spec.nests.len(), "{name}");
            for pair in b1.windows(2) {
                assert!(
                    pair[0].end_block <= pair[1].first_block,
                    "{name}: overlapping boundaries {pair:?}"
                );
            }
            assert!(b1.last().unwrap().end_block <= p1.graph.len(), "{name}");
            assert!(p1.validate().is_ok(), "{name}");
            let mut env = Env::for_program(&p1);
            run_to_completion(&p1, &mut env).expect(name);
        }
    }

    /// The carried state is real: with the first nest's export removed,
    /// the downstream glue seeds from a constant instead of the
    /// exported carry, so the imported scalar — and hence the final
    /// memory image — must change, even though every phase is
    /// identical.
    #[test]
    fn exported_state_flows_into_later_nests() {
        let spec = builtin_spec("970.pipeline").unwrap();
        let mut no_export = spec.clone();
        no_export.nests[0].export = None;
        let p = generate(&spec, Scale::Test).unwrap();
        let q = generate(&no_export, Scale::Test).unwrap();
        let mut ep = Env::for_program(&p);
        let mut eq = Env::for_program(&q);
        run_to_completion(&p, &mut ep).unwrap();
        run_to_completion(&q, &mut eq).unwrap();
        assert_ne!(
            ep.mem.digest(),
            eq.mem.digest(),
            "glue must consume the exported value"
        );
    }

    /// Isolated-nest programs are valid, runnable, and share the
    /// composed program's region layout.
    #[test]
    fn isolated_nests_generate_and_run() {
        let spec = builtin_spec("970.pipeline").unwrap();
        let composed = generate(&spec, Scale::Test).unwrap();
        for ix in 0..spec.nests.len() {
            let p = generate_nest(&spec, Scale::Test, ix).unwrap();
            assert_eq!(p.regions, composed.regions, "nest {ix}: layout must match");
            assert!(p.validate().is_ok(), "nest {ix}");
            let mut env = Env::for_program(&p);
            run_to_completion(&p, &mut env).unwrap_or_else(|e| panic!("nest {ix}: {e:?}"));
        }
        assert!(generate_nest(&spec, Scale::Test, 99).is_err());
    }

    /// The full prefix *is* the composed program — the invariant the
    /// in-context weight differencing rests on.
    #[test]
    fn full_prefix_equals_composed_program() {
        for name in ["950.twonest", "970.pipeline"] {
            let spec = builtin_spec(name).unwrap();
            let whole = generate(&spec, Scale::Test).unwrap();
            let prefix = generate_prefix(&spec, Scale::Test, spec.nests.len(), false).unwrap();
            assert_eq!(prefix, whole, "{name}");
            // Shorter prefixes are strictly smaller and still valid.
            let shorter = generate_prefix(&spec, Scale::Test, 1, false).unwrap();
            assert!(shorter.graph.len() < whole.graph.len(), "{name}");
            assert!(shorter.validate().is_ok(), "{name}");
            // Out-of-range cuts are rejected.
            assert!(generate_prefix(&spec, Scale::Test, spec.nests.len(), true).is_err());
            assert!(generate_prefix(&spec, Scale::Test, spec.nests.len() + 1, false).is_err());
        }
    }
}
