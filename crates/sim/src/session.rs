//! Batch simulation: decode a program once, then run many independent
//! machines over it as *lanes*.
//!
//! Campaigns are lane-shaped: hundreds of grid cells simulate the same
//! scenario program under machine configurations that differ only in
//! core count, ring parameters, or compiler generation. A
//! [`SimSession`] is built once per (program, plans) pair, decodes the
//! program a single time (`Arc<DecodedProgram>` shared by every lane),
//! and [`drain`](SimSession::drain)s all enqueued lanes one after
//! another. Each lane, whatever its engine, is an ordinary
//! [`Machine::with_decoded`] over that decode, run once with
//! [`Machine::run`], so its result is exactly the standalone result —
//! the property the lane-exactness regression tests pin across every
//! committed scenario.

use crate::config::MachineConfig;
use crate::machine::{Machine, RunReport, SimError};
use helix_hcc::LoopPlan;
use helix_ir::decode::DecodedProgram;
use helix_ir::Program;
use std::sync::Arc;

/// One completed lane, tagged with the index its configuration was
/// enqueued under.
#[derive(Debug)]
pub struct LaneResult {
    /// Enqueue index of the lane (position in the order
    /// [`SimSession::enqueue`] was called).
    pub lane: usize,
    /// The lane's run outcome — exactly what a standalone
    /// [`Machine::run`] of the same configuration would return.
    pub result: Result<RunReport, SimError>,
}

/// A batch-simulation session over one (program, plans) pair.
///
/// Build once, [`enqueue`](SimSession::enqueue) any number of lane
/// configurations, then [`drain`](SimSession::drain). The program is
/// decoded at most once per session, lazily at the first drained lane,
/// and every lane shares that decode.
#[derive(Debug)]
pub struct SimSession<'p> {
    program: &'p Program,
    plans: &'p [LoopPlan],
    decoded: Option<Arc<DecodedProgram>>,
    /// Enqueued lanes: machine configuration and cycle budget (fuel).
    lanes: Vec<(MachineConfig, u64)>,
}

impl<'p> SimSession<'p> {
    /// Open a session over a program and its parallel-loop plans
    /// (empty `plans` for sequential execution).
    pub fn new(program: &'p Program, plans: &'p [LoopPlan]) -> SimSession<'p> {
        SimSession {
            program,
            plans,
            decoded: None,
            lanes: Vec::new(),
        }
    }

    /// Open a session seeded with an already-shared decode (e.g. a
    /// campaign's per-scenario decode cache), so even the first lane
    /// skips decoding.
    pub fn with_decoded(
        program: &'p Program,
        plans: &'p [LoopPlan],
        decoded: Arc<DecodedProgram>,
    ) -> SimSession<'p> {
        SimSession {
            decoded: Some(decoded),
            ..SimSession::new(program, plans)
        }
    }

    /// Enqueue one lane; returns its lane index.
    pub fn enqueue(&mut self, cfg: MachineConfig, fuel: u64) -> usize {
        self.lanes.push((cfg, fuel));
        self.lanes.len() - 1
    }

    /// Number of lanes currently enqueued.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The session's shared decode, decoding now if no lane has needed
    /// it yet.
    pub fn decoded(&mut self) -> Arc<DecodedProgram> {
        self.decoded
            .get_or_insert_with(|| Arc::new(helix_ir::decode::decode(self.program)))
            .clone()
    }

    /// Run every enqueued lane to completion, in enqueue order, and
    /// return the results in lane order. A lane that faults or exhausts
    /// its fuel reports the error without affecting the others. The
    /// queue is cleared, so the session can be reused for another batch
    /// over the same decode.
    pub fn drain(&mut self) -> Vec<LaneResult> {
        let lanes = std::mem::take(&mut self.lanes);
        lanes
            .into_iter()
            .enumerate()
            .map(|(lane, (cfg, fuel))| {
                let decoded = self.decoded();
                let mut machine = Machine::with_decoded(self.program, self.plans, cfg, decoded);
                LaneResult {
                    lane,
                    result: machine.run(fuel),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineSel;
    use helix_ir::{AddrExpr, ProgramBuilder, Ty};

    fn axpy() -> Program {
        let mut b = ProgramBuilder::new("axpy");
        let data = b.region("data", 1 << 14, Ty::I64);
        b.counted_loop(0, 500, 1, |b, i| {
            let x = b.reg();
            b.load(x, AddrExpr::region_indexed(data, i, 8, 0), Ty::I64);
            b.alu_chain(x, 4);
            b.store(x, AddrExpr::region_indexed(data, i, 8, 0), Ty::I64);
        });
        b.finish()
    }

    /// Lanes of mixed configs land on exactly the standalone results.
    #[test]
    fn lanes_match_standalone_runs() {
        let program = axpy();
        let compiled = helix_hcc::compile(&program, &helix_hcc::HccConfig::v3(4)).unwrap();
        let cfgs = [
            MachineConfig::conventional(4),
            MachineConfig::helix_rc(4),
            MachineConfig::conventional(4).with_engine(EngineSel::Tree),
        ];
        let mut session = SimSession::new(&compiled.program, &compiled.plans);
        for cfg in &cfgs {
            session.enqueue(cfg.clone(), 1 << 24);
        }
        let results = session.drain();
        assert_eq!(results.len(), cfgs.len());
        for (ix, cfg) in cfgs.iter().enumerate() {
            let alone = Machine::new(&compiled.program, &compiled.plans, cfg.clone())
                .run(1 << 24)
                .unwrap();
            let lane = results[ix].result.as_ref().unwrap();
            assert_eq!(results[ix].lane, ix);
            assert_eq!(lane.cycles, alone.cycles, "lane {ix}");
            assert_eq!(lane.mem_digest, alone.mem_digest, "lane {ix}");
            assert_eq!(lane.dyn_insts, alone.dyn_insts, "lane {ix}");
        }
    }

    /// A lane that exhausts its fuel retires with the error without
    /// disturbing its batch-mates.
    #[test]
    fn fuel_exhaustion_is_per_lane() {
        let program = axpy();
        let mut session = SimSession::new(&program, &[]);
        session.enqueue(MachineConfig::conventional(1), 100);
        session.enqueue(MachineConfig::conventional(1), 1 << 24);
        let results = session.drain();
        assert!(matches!(
            results[0].result,
            Err(SimError::FuelExhausted { .. })
        ));
        let ok = results[1].result.as_ref().unwrap();
        let alone = Machine::new(&program, &[], MachineConfig::conventional(1))
            .run(1 << 24)
            .unwrap();
        assert_eq!(ok.cycles, alone.cycles);
        assert_eq!(ok.mem_digest, alone.mem_digest);
    }

    /// A session decodes once, at its first drain, and every later lane
    /// reuses that decode.
    #[test]
    fn decode_is_lazy_and_shared() {
        let program = axpy();
        let mut session = SimSession::new(&program, &[]);
        assert!(session.decoded.is_none(), "no lane drained yet");
        session.enqueue(MachineConfig::conventional(1), 1 << 24);
        session.enqueue(MachineConfig::conventional(1), 1 << 24);
        let _ = session.drain();
        let first = session.decoded.clone().expect("decoded at drain");
        session.enqueue(MachineConfig::conventional(1), 1 << 24);
        let _ = session.drain();
        assert!(Arc::ptr_eq(&first, &session.decoded()), "decoded once");
    }
}
