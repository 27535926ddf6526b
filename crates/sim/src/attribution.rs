//! Per-cycle overhead attribution (paper §6.4, Fig. 12).
//!
//! Every core-cycle of a run is charged to exactly one bucket; the Fig. 12
//! taxonomy normalizes the non-computation buckets to explain the gap
//! between achieved and ideal speedup.

use serde::{Deserialize, Serialize};

/// Where a core-cycle went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Bucket {
    /// Issuing (or inherently stalled on) the original program's work.
    Computation,
    /// Instructions added by parallelization (induction re-computation,
    /// demoted-scalar traffic, reduction bookkeeping).
    AdditionalInsts,
    /// Executing `wait`/`signal` instructions themselves (including
    /// squashed duplicates).
    WaitSignal,
    /// Stalled on the private memory hierarchy.
    Memory,
    /// Idle at the loop barrier after finishing assigned iterations.
    IterationImbalance,
    /// Idle because the invocation had fewer iterations than cores.
    LowTripCount,
    /// Stalled on in-flight communication (shared data or signals).
    Communication,
    /// Stalled because a predecessor iteration has not produced yet.
    DependenceWaiting,
    /// Idle while another core runs non-parallelized code.
    SerialIdle,
}

impl Bucket {
    /// All buckets, in reporting order.
    pub const ALL: [Bucket; 9] = [
        Bucket::Computation,
        Bucket::AdditionalInsts,
        Bucket::WaitSignal,
        Bucket::Memory,
        Bucket::IterationImbalance,
        Bucket::LowTripCount,
        Bucket::Communication,
        Bucket::DependenceWaiting,
        Bucket::SerialIdle,
    ];

    /// The seven overhead categories of Fig. 12 (everything except
    /// computation and serial idling).
    pub const FIG12: [Bucket; 7] = [
        Bucket::AdditionalInsts,
        Bucket::WaitSignal,
        Bucket::Memory,
        Bucket::IterationImbalance,
        Bucket::LowTripCount,
        Bucket::Communication,
        Bucket::DependenceWaiting,
    ];

    /// Column label used in reports (matches the paper's figure).
    pub fn label(self) -> &'static str {
        match self {
            Bucket::Computation => "Computation",
            Bucket::AdditionalInsts => "Additional Instructions",
            Bucket::WaitSignal => "Wait/Signal Instructions",
            Bucket::Memory => "Memory",
            Bucket::IterationImbalance => "Iteration Imbalance",
            Bucket::LowTripCount => "Low Trip Count",
            Bucket::Communication => "Communication",
            Bucket::DependenceWaiting => "Dependence Waiting",
            Bucket::SerialIdle => "Serial Idle",
        }
    }

    /// Constant-time slot in the counts array (charged once per core per
    /// cycle, so no table scan); order matches [`Bucket::ALL`].
    fn index(self) -> usize {
        match self {
            Bucket::Computation => 0,
            Bucket::AdditionalInsts => 1,
            Bucket::WaitSignal => 2,
            Bucket::Memory => 3,
            Bucket::IterationImbalance => 4,
            Bucket::LowTripCount => 5,
            Bucket::Communication => 6,
            Bucket::DependenceWaiting => 7,
            Bucket::SerialIdle => 8,
        }
    }
}

/// Per-core cycle accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Attribution {
    counts: Vec<[u64; 9]>,
}

impl Attribution {
    /// Accounting for `cores` cores.
    pub fn new(cores: usize) -> Attribution {
        Attribution {
            counts: vec![[0; 9]; cores],
        }
    }

    /// Charge one cycle of `core` to `bucket`.
    pub fn charge(&mut self, core: usize, bucket: Bucket) {
        self.counts[core][bucket.index()] += 1;
    }

    /// Charge `n` cycles of `core` to `bucket`.
    pub fn charge_n(&mut self, core: usize, bucket: Bucket, n: u64) {
        self.counts[core][bucket.index()] += n;
    }

    /// Total cycles charged to `bucket` across all cores.
    pub fn total(&self, bucket: Bucket) -> u64 {
        self.counts.iter().map(|c| c[bucket.index()]).sum()
    }

    /// Cycles charged to `bucket` on `core`.
    pub fn of_core(&self, core: usize, bucket: Bucket) -> u64 {
        self.counts[core][bucket.index()]
    }

    /// Grand total cycles.
    pub fn grand_total(&self) -> u64 {
        self.counts.iter().flat_map(|c| c.iter()).sum()
    }

    /// Fig. 12 row: each overhead category as a fraction of all overhead
    /// cycles (categories sum to 1; zero overhead yields all zeros).
    pub fn overhead_fractions(&self) -> [f64; 7] {
        let overhead: u64 = Bucket::FIG12.iter().map(|b| self.total(*b)).sum();
        let mut out = [0.0; 7];
        if overhead == 0 {
            return out;
        }
        for (i, b) in Bucket::FIG12.iter().enumerate() {
            out[i] = self.total(*b) as f64 / overhead as f64;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_matches_reporting_order() {
        for (i, b) in Bucket::ALL.iter().enumerate() {
            assert_eq!(b.index(), i, "{b:?} out of order");
        }
    }

    #[test]
    fn charge_and_total() {
        let mut a = Attribution::new(2);
        a.charge(0, Bucket::Computation);
        a.charge(0, Bucket::Memory);
        a.charge(1, Bucket::Memory);
        a.charge_n(1, Bucket::Communication, 5);
        assert_eq!(a.total(Bucket::Memory), 2);
        assert_eq!(a.total(Bucket::Communication), 5);
        assert_eq!(a.of_core(0, Bucket::Computation), 1);
        assert_eq!(a.grand_total(), 8);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut a = Attribution::new(1);
        a.charge_n(0, Bucket::Memory, 30);
        a.charge_n(0, Bucket::Communication, 50);
        a.charge_n(0, Bucket::DependenceWaiting, 20);
        a.charge_n(0, Bucket::Computation, 1000); // excluded from overhead
        let f = a.overhead_fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((f[2] - 0.3).abs() < 1e-12); // Memory at index 2
    }

    #[test]
    fn zero_overhead_is_all_zero() {
        let a = Attribution::new(4);
        assert_eq!(a.overhead_fractions(), [0.0; 7]);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::BTreeSet<_> = Bucket::ALL.iter().map(|b| b.label()).collect();
        assert_eq!(labels.len(), Bucket::ALL.len());
    }
}
