//! Synchronization bookkeeping shared by both wait models.
//!
//! [`SyncState`] records when each core *executed* each `signal`
//! (functional ground truth). The timing of when a waiting core observes
//! those signals differs by machine: through coherence-mediated flags
//! (conventional, lazy) or through ring-cache broadcast (HELIX-RC,
//! proactive).

use crate::config::SyncModel;
use helix_ir::SegmentId;

/// Record of executed signals per `(segment, core)`, stored densely:
/// slot `seg.index() * cores + core` holds that pair's signal times.
/// The table grows on demand, so arbitrary segment ids stay valid.
#[derive(Debug, Clone)]
pub struct SyncState {
    sent: Vec<Vec<u64>>,
    cores: usize,
}

impl Default for SyncState {
    /// Single-core bookkeeping; real machines use [`SyncState::new`].
    fn default() -> Self {
        SyncState::new(0, 1)
    }
}

impl SyncState {
    /// Bookkeeping for `cores` cores and (at least) `n_segs` segments.
    pub fn new(n_segs: usize, cores: usize) -> SyncState {
        SyncState {
            sent: vec![Vec::new(); n_segs * cores.max(1)],
            cores: cores.max(1),
        }
    }

    fn slot(&self, seg: SegmentId, core: usize) -> usize {
        seg.index() * self.cores + core
    }

    /// Reset at parallel-loop entry (allocations are kept).
    pub fn begin_loop(&mut self) {
        for v in &mut self.sent {
            v.clear();
        }
    }

    /// Core `core` executed `signal seg` at cycle `now`.
    pub fn record_signal(&mut self, seg: SegmentId, core: usize, now: u64) {
        let slot = self.slot(seg, core);
        if slot >= self.sent.len() {
            self.sent.resize(slot + 1, Vec::new());
        }
        self.sent[slot].push(now);
    }

    /// Number of signals core `core` has executed for `seg`.
    pub fn count(&self, seg: SegmentId, core: usize) -> u64 {
        self.sent
            .get(self.slot(seg, core))
            .map(|v| v.len() as u64)
            .unwrap_or(0)
    }

    /// Execution time of the `k`-th (1-based) signal, if it happened.
    pub fn kth_time(&self, seg: SegmentId, core: usize, k: u64) -> Option<u64> {
        if k == 0 {
            return Some(0);
        }
        self.sent
            .get(self.slot(seg, core))
            .and_then(|v| v.get((k - 1) as usize))
            .copied()
    }
}

/// Signals required from `src` before iteration `iter` may enter a
/// segment: the number of iterations `< iter` assigned (round-robin) to
/// core `src` on an `n`-core ring.
pub fn required_count(src: usize, iter: u64, n: usize) -> u64 {
    let src = src as u64;
    let n = n as u64;
    if iter > src {
        (iter - src - 1) / n + 1
    } else {
        0
    }
}

/// The set of cores whose signals gate `core`'s wait under `model`.
pub fn required_sources(model: SyncModel, core: usize, n: usize) -> Vec<usize> {
    required_sources_iter(model, core, n).collect()
}

/// [`required_sources`] without materializing the list (the simulator
/// evaluates this once per waiting core per cycle).
pub fn required_sources_iter(
    model: SyncModel,
    core: usize,
    n: usize,
) -> impl Iterator<Item = usize> + Clone {
    let (range, chained) = match model {
        SyncModel::AllPredecessors => (0..n, false),
        SyncModel::ChainedPredecessor if n > 1 => (0..1, true),
        SyncModel::ChainedPredecessor => (0..0, true),
    };
    range.filter_map(move |c| {
        if chained {
            Some((core + n - 1) % n)
        } else if c != core {
            Some(c)
        } else {
            None
        }
    })
}

/// Why a wait has not been granted yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitBlock {
    /// A required producer has not executed its signal yet.
    Dependence,
    /// All producers signalled; the notification is still in flight.
    Communication,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn required_count_round_robin() {
        // 4 cores; iteration 6 (on core 2) needs: core 0 -> iters {0,4} = 2,
        // core 1 -> {1,5} = 2, core 3 -> {3} = 1.
        assert_eq!(required_count(0, 6, 4), 2);
        assert_eq!(required_count(1, 6, 4), 2);
        assert_eq!(required_count(3, 6, 4), 1);
        // First-lap iterations need nothing from later cores.
        assert_eq!(required_count(3, 2, 4), 0);
        assert_eq!(required_count(0, 0, 4), 0);
        assert_eq!(required_count(0, 1, 4), 1);
    }

    #[test]
    fn required_sources_by_model() {
        assert_eq!(
            required_sources(SyncModel::AllPredecessors, 2, 4),
            vec![0, 1, 3]
        );
        assert_eq!(
            required_sources(SyncModel::ChainedPredecessor, 2, 4),
            vec![1]
        );
        assert_eq!(
            required_sources(SyncModel::ChainedPredecessor, 0, 4),
            vec![3]
        );
        assert!(required_sources(SyncModel::ChainedPredecessor, 0, 1).is_empty());
    }

    #[test]
    fn sync_state_records_in_order() {
        let mut s = SyncState::new(4, 4);
        let seg = SegmentId(0);
        s.record_signal(seg, 1, 10);
        s.record_signal(seg, 1, 25);
        assert_eq!(s.count(seg, 1), 2);
        assert_eq!(s.kth_time(seg, 1, 1), Some(10));
        assert_eq!(s.kth_time(seg, 1, 2), Some(25));
        assert_eq!(s.kth_time(seg, 1, 3), None);
        assert_eq!(s.kth_time(seg, 1, 0), Some(0));
        s.begin_loop();
        assert_eq!(s.count(seg, 1), 0);
    }

    /// Distinct (segment, core) pairs occupy distinct dense slots.
    #[test]
    fn sync_state_slots_do_not_collide() {
        let mut s = SyncState::new(3, 4);
        s.record_signal(SegmentId(0), 1, 7);
        s.record_signal(SegmentId(1), 0, 9);
        assert_eq!(s.count(SegmentId(0), 1), 1);
        assert_eq!(s.count(SegmentId(1), 0), 1);
        assert_eq!(s.count(SegmentId(0), 0), 0);
        assert_eq!(s.count(SegmentId(1), 1), 0);
        // Out-of-range segments grow the table rather than panic.
        s.record_signal(SegmentId(9), 3, 1);
        assert_eq!(s.count(SegmentId(9), 3), 1);
    }
}
