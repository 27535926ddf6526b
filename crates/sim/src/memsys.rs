//! Conventional memory hierarchy: private L1s, a shared banked L2, DRAM,
//! and an invalidation-based coherence protocol with a configurable
//! cache-to-cache transfer latency (paper §6.1).
//!
//! This is a *timing* model: functional values live in the interpreter's
//! flat memory; the hierarchy tracks tags, sharers, and latencies.

use crate::config::{CacheConfig, MachineConfig};
use crate::dram::Dram;
use serde::{Deserialize, Serialize};

/// Sets per tag block of a [`TimingCache`].
const BLOCK_SETS: usize = 64;

/// `BLOCK_SETS * assoc` slots of `(line addr + 1, lru)`; 0 = free.
type TagBlock = Box<[(u64, u64)]>;

/// Tag-only set-associative timing cache with LRU replacement.
///
/// Slots are `(line + 1, lru)` pairs, `assoc` per set, kept in blocks
/// of `BLOCK_SETS` (64) contiguous sets, so probes and fills are short
/// scans of contiguous memory. A block is allocated by the first insert
/// into one of its sets. A probe or an invalidation that lands in an
/// unallocated block is a miss or a no-op and allocates nothing, so a
/// run holds tag storage only for the sets it fills. Tags are stored
/// biased by one so the empty sentinel is zero.
#[derive(Debug, Clone)]
pub struct TimingCache {
    blocks: Vec<Option<TagBlock>>,
    n_sets: usize,
    assoc: usize,
    line: u64,
    clock: u64,
    /// `log2(line)` when the line size is a power of two (always, for
    /// the paper geometries), turning the per-access division into a
    /// shift.
    line_shift: Option<u32>,
    /// `n_sets - 1` when the set count is a power of two.
    set_mask: Option<usize>,
}

impl TimingCache {
    /// Build a cache from a geometry description.
    pub fn new(cfg: &CacheConfig) -> TimingCache {
        let lines = (cfg.size / cfg.line).max(1) as usize;
        let n_sets = (lines / cfg.assoc).max(1);
        TimingCache {
            blocks: vec![None; n_sets.div_ceil(BLOCK_SETS)],
            n_sets,
            assoc: cfg.assoc,
            line: cfg.line,
            clock: 0,
            line_shift: cfg
                .line
                .is_power_of_two()
                .then(|| cfg.line.trailing_zeros()),
            set_mask: n_sets.is_power_of_two().then(|| n_sets - 1),
        }
    }

    /// Line address of a byte address.
    pub fn line_of(&self, addr: u64) -> u64 {
        match self.line_shift {
            Some(s) => addr >> s,
            None => addr / self.line,
        }
    }

    fn set_of(&self, line: u64) -> usize {
        match self.set_mask {
            Some(mask) => (line as usize) & mask,
            None => (line as usize) % self.n_sets,
        }
    }

    /// The slots of `line`'s set, or `None` while its block is
    /// unallocated (every slot free).
    fn set_slots(&mut self, line: u64) -> Option<&mut [(u64, u64)]> {
        let set = self.set_of(line);
        let at = (set % BLOCK_SETS) * self.assoc;
        let block = self.blocks[set / BLOCK_SETS].as_deref_mut()?;
        Some(&mut block[at..at + self.assoc])
    }

    /// The slots of `line`'s set, allocating its block on first use.
    fn set_slots_filled(&mut self, line: u64) -> &mut [(u64, u64)] {
        let set = self.set_of(line);
        let (assoc, at) = (self.assoc, (set % BLOCK_SETS) * self.assoc);
        let block = self.blocks[set / BLOCK_SETS]
            .get_or_insert_with(|| vec![(0, 0); BLOCK_SETS * assoc].into_boxed_slice());
        &mut block[at..at + assoc]
    }

    /// Probe for the line holding `addr`; refreshes LRU on hit.
    pub fn probe(&mut self, addr: u64) -> bool {
        let tag = self.line_of(addr) + 1;
        self.clock += 1;
        let clock = self.clock;
        match self
            .set_slots(tag - 1)
            .and_then(|slots| slots.iter_mut().find(|(l, _)| *l == tag))
        {
            Some(e) => {
                e.1 = clock;
                true
            }
            None => false,
        }
    }

    /// Insert the line holding `addr`; returns the evicted line, if any.
    /// LRU clocks are unique, so filling the first free slot instead of
    /// appending changes nothing observable.
    pub fn insert(&mut self, addr: u64) -> Option<u64> {
        let line = self.line_of(addr);
        let tag = line + 1;
        self.clock += 1;
        let clock = self.clock;
        let slots = self.set_slots_filled(line);
        if let Some(e) = slots.iter_mut().find(|(l, _)| *l == tag) {
            e.1 = clock;
            return None;
        }
        if let Some(e) = slots.iter_mut().find(|(l, _)| *l == 0) {
            *e = (tag, clock);
            return None;
        }
        let idx = slots
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, lru))| *lru)
            .map(|(i, _)| i)
            .expect("full set");
        let victim = slots[idx].0 - 1;
        slots[idx] = (tag, clock);
        Some(victim)
    }

    /// Remove the line holding `addr` (coherence invalidation).
    pub fn remove_line(&mut self, line: u64) {
        let tag = line + 1;
        for e in self.set_slots(line).into_iter().flatten() {
            if e.0 == tag {
                *e = (0, 0);
            }
        }
    }
}

/// Coherence directory entry (16 bytes).
///
/// The sharer mask holds one bit per core modulo 64, so above 64 cores
/// cores `c` and `c + 64` share a bit: an upgrade may skip or add an
/// invalidation. That changes timing only, since values live in the
/// functional memory. The owner is exact at any core count a scenario
/// may ask for (at most 4096).
#[derive(Debug, Clone, Copy, Default)]
struct DirEntry {
    sharers: u64,
    /// Core holding the line modified, if any.
    dirty: Option<u16>,
}

impl DirEntry {
    const EMPTY: DirEntry = DirEntry {
        sharers: 0,
        dirty: None,
    };
}

/// Open-addressing map from line address to [`DirEntry`], replacing the
/// tree map on the simulator's every-memory-access path: one probe per
/// lookup, no per-entry allocation. Keys are stored biased by one so
/// zero is the empty sentinel and the table starts as untouched zero
/// pages. Entries whose sharer set empties are left zeroed rather than
/// removed — a zeroed entry is observably identical to an absent one.
#[derive(Debug)]
struct Directory {
    keys: Vec<u64>, // line address + 1; 0 = empty
    vals: Vec<DirEntry>,
    live: usize,
    mask: usize,
}

impl Directory {
    fn with_capacity_pow2(cap: usize) -> Directory {
        debug_assert!(cap.is_power_of_two());
        Directory {
            keys: vec![0; cap],
            vals: vec![DirEntry::EMPTY; cap],
            live: 0,
            mask: cap - 1,
        }
    }

    /// Fibonacci multiplicative hash over the line address.
    fn slot_of(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & self.mask
    }

    /// Index of `key`'s slot, or of the empty slot where it belongs
    /// (`key` is the biased line address, never zero).
    fn probe(&self, key: u64) -> usize {
        let mut i = self.slot_of(key);
        loop {
            let k = self.keys[i];
            if k == key || k == 0 {
                return i;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn get(&self, line: u64) -> Option<DirEntry> {
        let key = line + 1;
        let i = self.probe(key);
        (self.keys[i] == key).then(|| self.vals[i])
    }

    fn get_mut(&mut self, line: u64) -> Option<&mut DirEntry> {
        let key = line + 1;
        let i = self.probe(key);
        (self.keys[i] == key).then(|| &mut self.vals[i])
    }

    /// Entry for `line`, inserting a zeroed one when absent.
    fn entry_or_default(&mut self, line: u64) -> &mut DirEntry {
        if (self.live + 1) * 4 > self.keys.len() * 3 {
            self.grow();
        }
        let key = line + 1;
        let i = self.probe(key);
        if self.keys[i] == 0 {
            self.keys[i] = key;
            self.vals[i] = DirEntry::EMPTY;
            self.live += 1;
        }
        &mut self.vals[i]
    }

    fn grow(&mut self) {
        // Entries whose sharer set emptied are semantically absent
        // (`sharers == 0` implies `dirty == None`); purge them while
        // rehashing so the table tracks resident lines, not every line
        // ever touched. Live entries are bounded by total L1 capacity,
        // so so is the table.
        let bigger = Directory::with_capacity_pow2(self.keys.len() * 2);
        let old = std::mem::replace(self, bigger);
        for (k, v) in old.keys.into_iter().zip(old.vals) {
            if k != 0 && v.sharers != 0 {
                let i = self.probe(k);
                self.keys[i] = k;
                self.vals[i] = v;
                self.live += 1;
            }
        }
    }
}

impl Default for Directory {
    fn default() -> Self {
        Directory::with_capacity_pow2(1 << 12)
    }
}

/// Memory-system statistics.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct MemStats {
    /// L1 hits.
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// Misses serviced by another core's cache.
    pub c2c_transfers: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses (DRAM accesses).
    pub l2_misses: u64,
}

/// The full conventional hierarchy.
#[derive(Debug)]
pub struct MemSystem {
    l1: Vec<TimingCache>,
    l2: TimingCache,
    l2_busy: Vec<u64>,
    l2_banks: usize,
    dram: Dram,
    dir: Directory,
    l1_lat: u32,
    l2_lat: u32,
    c2c: u32,
    /// L1 line size in bytes (for victim line-number → byte-address
    /// conversion on write-back).
    l1_line: u64,
    /// Statistics.
    pub stats: MemStats,
}

impl MemSystem {
    /// Build the hierarchy described by `cfg`.
    pub fn new(cfg: &MachineConfig) -> MemSystem {
        MemSystem {
            l1: (0..cfg.cores).map(|_| TimingCache::new(&cfg.l1)).collect(),
            l2: TimingCache::new(&cfg.l2),
            l2_busy: vec![0; cfg.l2_banks.max(1)],
            l2_banks: cfg.l2_banks.max(1),
            dram: Dram::new(16, cfg.dram_row_hit, cfg.dram_row_miss),
            dir: Directory::default(),
            l1_lat: cfg.l1.hit_latency,
            l1_line: cfg.l1.line,
            l2_lat: cfg.l2.hit_latency,
            c2c: cfg.c2c_latency,
            stats: MemStats::default(),
        }
    }

    /// Completion cycle of an access by `core` to `addr` at `now`.
    pub fn access(&mut self, core: usize, addr: u64, is_store: bool, now: u64) -> u64 {
        let line = self.l1[core].line_of(addr);
        let me = 1u64 << (core as u64 & 63);
        let entry = self.dir.entry_or_default(line);
        let others = entry.sharers & !me;

        if self.l1[core].probe(addr) {
            self.stats.l1_hits += 1;
            if is_store {
                if others != 0 {
                    // Upgrade: invalidate remote copies.
                    self.stats.c2c_transfers += 1;
                    let entry = self.dir.get(line).expect("present");
                    self.invalidate_others(line, core, entry);
                    let e = self.dir.entry_or_default(line);
                    e.sharers = me;
                    e.dirty = Some(core as u16);
                    return now + self.l1_lat as u64 + self.c2c as u64;
                }
                let e = self.dir.entry_or_default(line);
                e.sharers |= me;
                e.dirty = Some(core as u16);
            }
            return now + self.l1_lat as u64;
        }

        // L1 miss.
        self.stats.l1_misses += 1;
        let entry = self.dir.get(line).expect("present");
        let done = if entry.sharers & !me != 0 {
            // Another core holds the line: cache-to-cache transfer (the
            // conventional communication path the paper measures at
            // 75–110 cycles on real machines).
            self.stats.c2c_transfers += 1;
            if is_store {
                self.invalidate_others(line, core, entry);
                let e = self.dir.entry_or_default(line);
                e.sharers = me;
                e.dirty = Some(core as u16);
            } else {
                let e = self.dir.entry_or_default(line);
                e.sharers |= me;
                e.dirty = None; // owner writes back on a read transfer
            }
            now + self.l1_lat as u64 + self.c2c as u64
        } else {
            // Fetch from L2 / DRAM.
            let bank = (line as usize) % self.l2_banks;
            let start = (now + self.l1_lat as u64).max(self.l2_busy[bank]);
            self.l2_busy[bank] = start + 2;
            let done = if self.l2.probe(addr) {
                self.stats.l2_hits += 1;
                start + self.l2_lat as u64
            } else {
                self.stats.l2_misses += 1;
                self.l2.insert(addr);
                self.dram.access(addr, start + self.l2_lat as u64)
            };
            let e = self.dir.entry_or_default(line);
            e.sharers |= me;
            e.dirty = if is_store { Some(core as u16) } else { None };
            done
        };

        // Fill the L1; evictions update the directory. (Emptied entries
        // stay in the table zeroed — indistinguishable from absent.)
        let mut l2_writeback = None;
        if let Some(victim) = self.l1[core].insert(addr) {
            if let Some(e) = self.dir.get_mut(victim) {
                e.sharers &= !me;
                if e.dirty == Some(core as u16) {
                    e.dirty = None; // write-back to L2 absorbed
                    l2_writeback = Some(victim * self.l1_line);
                }
            }
        }
        if let Some(wb) = l2_writeback {
            self.l2.insert(wb);
        }
        done
    }

    fn invalidate_others(&mut self, line: u64, core: usize, entry: DirEntry) {
        for c in 0..self.l1.len() {
            if c != core && entry.sharers & (1 << (c as u64 & 63)) != 0 {
                self.l1[c].remove_line(line);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The flat tag array `TimingCache` used before tag blocks: every
    /// set allocated up front. Kept as the reference model for the
    /// blocked storage.
    struct FlatCache {
        slots: Vec<(u64, u64)>,
        n_sets: usize,
        assoc: usize,
        line: u64,
        clock: u64,
    }

    impl FlatCache {
        fn new(cfg: &CacheConfig) -> FlatCache {
            let lines = (cfg.size / cfg.line).max(1) as usize;
            let n_sets = (lines / cfg.assoc).max(1);
            FlatCache {
                slots: vec![(0, 0); n_sets * cfg.assoc],
                n_sets,
                assoc: cfg.assoc,
                line: cfg.line,
                clock: 0,
            }
        }

        fn set_slots(&mut self, line: u64) -> &mut [(u64, u64)] {
            let set = (line as usize) % self.n_sets;
            &mut self.slots[set * self.assoc..(set + 1) * self.assoc]
        }

        fn probe(&mut self, addr: u64) -> bool {
            let tag = addr / self.line + 1;
            self.clock += 1;
            let clock = self.clock;
            if let Some(e) = self.set_slots(tag - 1).iter_mut().find(|(l, _)| *l == tag) {
                e.1 = clock;
                true
            } else {
                false
            }
        }

        fn insert(&mut self, addr: u64) -> Option<u64> {
            let line = addr / self.line;
            let tag = line + 1;
            self.clock += 1;
            let clock = self.clock;
            let slots = self.set_slots(line);
            if let Some(e) = slots.iter_mut().find(|(l, _)| *l == tag) {
                e.1 = clock;
                return None;
            }
            if let Some(e) = slots.iter_mut().find(|(l, _)| *l == 0) {
                *e = (tag, clock);
                return None;
            }
            let idx = slots
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, lru))| *lru)
                .map(|(i, _)| i)
                .expect("full set");
            let victim = slots[idx].0 - 1;
            slots[idx] = (tag, clock);
            Some(victim)
        }

        fn remove_line(&mut self, line: u64) {
            let tag = line + 1;
            for e in self.set_slots(line) {
                if e.0 == tag {
                    *e = (0, 0);
                }
            }
        }
    }

    /// One cache operation: `(kind, line)`, where kind 0 probes, 1
    /// inserts and 2 invalidates.
    fn ops() -> impl Strategy<Value = Vec<(u8, u64)>> {
        // Sets at and next to block edges, in every geometry below:
        // lines `set + k * 204_800` share a set in each, since 204_800
        // is a multiple of 64, 8192 and 100 sets. Forty lines per set
        // outnumber the ways, so fills evict and invalidations hit.
        // Lines anywhere land in blocks nothing else touches.
        const SETS: [u64; 12] = [0, 1, 62, 63, 64, 65, 99, 127, 128, 4095, 4096, 8191];
        let crowded = (0..SETS.len(), 0..40u64).prop_map(|(i, k)| SETS[i] + k * 204_800);
        let line = prop_oneof![crowded, 0..1u64 << 40];
        prop::collection::vec((0..3u8, line), 1..600)
    }

    fn geometry(size: u64, assoc: usize, line: u64) -> CacheConfig {
        CacheConfig {
            size,
            assoc,
            line,
            hit_latency: 1,
        }
    }

    /// Replays `ops` on both implementations and requires identical
    /// answers and victims.
    fn agree(cfg: &CacheConfig, ops: &[(u8, u64)]) {
        let (mut blocked, mut flat) = (TimingCache::new(cfg), FlatCache::new(cfg));
        for &(kind, line) in ops {
            let addr = line * cfg.line + line % cfg.line;
            match kind {
                0 => assert_eq!(blocked.probe(addr), flat.probe(addr), "probe {line:#x}"),
                1 => assert_eq!(blocked.insert(addr), flat.insert(addr), "insert {line:#x}"),
                _ => {
                    blocked.remove_line(line);
                    flat.remove_line(line);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Tag blocks change where slots live, never what a probe,
        /// a fill or an invalidation does.
        #[test]
        fn blocked_tags_match_the_flat_array(ops in ops()) {
            let machine = MachineConfig::helix_rc(16);
            agree(&machine.l1, &ops);
            agree(&machine.l2, &ops);
            // 100 sets: not a power of two, and a partial last block;
            // 48-byte lines take the division path.
            agree(&geometry(100 * 4 * 48, 4, 48), &ops);
        }
    }

    #[test]
    fn l2_tags_are_allocated_on_first_fill() {
        let allocated = |c: &TimingCache| c.blocks.iter().filter(|b| b.is_some()).count();
        let mut m = MemSystem::new(&MachineConfig::helix_rc(16));
        assert_eq!(allocated(&m.l2), 0);
        assert!(m.l1.iter().all(|c| allocated(c) == 0));
        assert!(!m.l2.probe(0x1000), "an unallocated block misses");
        m.l2.remove_line(0x1000 >> 6);
        assert_eq!(
            allocated(&m.l2),
            0,
            "probes and invalidations allocate nothing"
        );
        m.access(0, 0x1000, false, 0);
        assert_eq!(allocated(&m.l2), 1);
        assert_eq!(allocated(&m.l1[0]), 1);
    }

    fn small_machine() -> MachineConfig {
        MachineConfig::conventional(4)
    }

    #[test]
    fn l1_hit_after_fill() {
        let cfg = small_machine();
        let mut m = MemSystem::new(&cfg);
        let t1 = m.access(0, 0x1000, false, 0);
        assert!(t1 > cfg.l1.hit_latency as u64, "cold miss goes deeper");
        let t2 = m.access(0, 0x1000, false, 100);
        assert_eq!(t2, 100 + cfg.l1.hit_latency as u64, "now an L1 hit");
        assert_eq!(m.stats.l1_hits, 1);
    }

    #[test]
    fn same_line_hits() {
        let cfg = small_machine();
        let mut m = MemSystem::new(&cfg);
        m.access(0, 0x1000, false, 0);
        let t = m.access(0, 0x1030, false, 50); // same 64B line
        assert_eq!(t, 50 + cfg.l1.hit_latency as u64);
    }

    #[test]
    fn cross_core_transfer_costs_c2c() {
        let cfg = small_machine();
        let mut m = MemSystem::new(&cfg);
        m.access(0, 0x2000, true, 0); // core 0 owns dirty
        let t = m.access(1, 0x2000, false, 100);
        assert_eq!(t, 100 + (cfg.l1.hit_latency + cfg.c2c_latency) as u64);
        assert_eq!(m.stats.c2c_transfers, 1);
    }

    #[test]
    fn store_invalidates_sharers() {
        let cfg = small_machine();
        let mut m = MemSystem::new(&cfg);
        m.access(0, 0x3000, false, 0);
        m.access(1, 0x3000, false, 50); // both share
                                        // Core 0 writes: upgrade, invalidating core 1.
        let t = m.access(0, 0x3000, true, 100);
        assert!(t >= 100 + cfg.c2c_latency as u64);
        // Core 1 must now miss.
        let before = m.stats.l1_misses;
        m.access(1, 0x3000, false, 300);
        assert_eq!(m.stats.l1_misses, before + 1);
    }

    #[test]
    fn ping_pong_pays_every_round() {
        let cfg = small_machine();
        let mut m = MemSystem::new(&cfg);
        let mut now = 0;
        m.access(0, 0x9000, true, now);
        let before = m.stats.c2c_transfers;
        for round in 0..6 {
            now += 500;
            let core = 1 - (round % 2);
            m.access(core, 0x9000, true, now);
        }
        assert_eq!(m.stats.c2c_transfers, before + 6);
    }

    #[test]
    fn dir_entry_stays_16_bytes() {
        assert_eq!(std::mem::size_of::<DirEntry>(), 16);
    }

    /// Above 256 cores the owner must not alias: core 0 evicting its
    /// clean copy leaves core 256's ownership of the line in place.
    #[test]
    fn owner_above_256_cores_survives_another_cores_eviction() {
        let cfg = MachineConfig::conventional(512);
        let mut m = MemSystem::new(&cfg);
        let addr = 0x4000;
        let line = m.l1[0].line_of(addr);
        m.access(0, addr, false, 0);
        m.access(256, addr, true, 1000);
        assert_eq!(m.dir.get(line).expect("present").dirty, Some(256));
        // Evict core 0's copy by filling its set (64 sets of 8 ways:
        // same-set stride 4096 bytes).
        for k in 1..=8u64 {
            m.access(0, addr + k * 4096, false, 1000 * (k + 1));
        }
        assert!(!m.l1[0].probe(addr), "core 0's copy was evicted");
        assert_eq!(
            m.dir.get(line).expect("present").dirty,
            Some(256),
            "core 256 still owns the line"
        );
    }

    #[test]
    fn l2_hit_cheaper_than_dram() {
        let cfg = small_machine();
        let mut m = MemSystem::new(&cfg);
        let t_cold = m.access(0, 0x4000, false, 0);
        // Evict from L1 by filling the set: L1 32KB/64B/8way = 64 sets;
        // same set stride = 64 * 64 = 4096 bytes.
        for k in 1..=8u64 {
            m.access(0, 0x4000 + k * 4096, false, 1000 * k);
        }
        let t_l2 = m.access(0, 0x4000, false, 100_000);
        assert!(
            t_l2 - 100_000 < t_cold,
            "L2 hit ({}) beats DRAM ({t_cold})",
            t_l2 - 100_000
        );
        assert!(m.stats.l2_hits >= 1);
    }
}
