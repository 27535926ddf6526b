//! Runtime race detection: validates the compiler's guarantees.
//!
//! During a parallel loop, any word touched by two different cores (with
//! at least one writer) must be accessed exclusively through shared-tagged
//! instructions of one segment, inside that segment's wait/signal window.
//! Violations indicate a compiler bug (or deliberately corrupted plans in
//! the failure-injection tests).

use helix_ir::{SegmentId, SharedTag};

/// A detected violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaceViolation {
    /// Two cores touched the same word outside a common segment.
    UnprotectedSharing {
        /// Word address.
        addr: u64,
        /// First core.
        a: usize,
        /// Second core.
        b: usize,
    },
    /// A shared-tagged access executed outside its wait/signal window.
    OutsideSegment {
        /// Core at fault.
        core: usize,
        /// The segment of the tag.
        seg: SegmentId,
    },
}

impl std::fmt::Display for RaceViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RaceViolation::UnprotectedSharing { addr, a, b } => {
                write!(f, "cores {a} and {b} race on word {addr:#x}")
            }
            RaceViolation::OutsideSegment { core, seg } => {
                write!(f, "core {core} accessed {seg} data outside its window")
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct WordState {
    /// Core of the last conflicting toucher (writer, or reader awaiting a
    /// writer).
    core: usize,
    wrote: bool,
    seg: Option<SegmentId>,
}

/// Open-addressing hash map from word index to [`WordState`],
/// specialized for the detector's hot path: one probe per memory access,
/// no per-entry allocation, clearing keeps the table. Word indices are
/// byte addresses divided by 8, so `u64::MAX` is a safe empty sentinel.
#[derive(Debug)]
struct WordMap {
    keys: Vec<u64>,
    vals: Vec<WordState>,
    live: usize,
    mask: usize,
}

const EMPTY_KEY: u64 = u64::MAX;

impl WordMap {
    fn with_capacity_pow2(cap: usize) -> WordMap {
        debug_assert!(cap.is_power_of_two());
        WordMap {
            keys: vec![EMPTY_KEY; cap],
            vals: vec![
                WordState {
                    core: 0,
                    wrote: false,
                    seg: None,
                };
                cap
            ],
            live: 0,
            mask: cap - 1,
        }
    }

    /// Fibonacci multiplicative hash: cheap and well-distributed for the
    /// mostly-sequential addresses the workloads touch.
    fn slot_of(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & self.mask
    }

    /// Index of `key`'s slot, or of the empty slot where it belongs.
    fn probe(&self, key: u64) -> usize {
        let mut i = self.slot_of(key);
        loop {
            let k = self.keys[i];
            if k == key || k == EMPTY_KEY {
                return i;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn get_mut(&mut self, key: u64) -> Option<&mut WordState> {
        let i = self.probe(key);
        (self.keys[i] == key).then(|| &mut self.vals[i])
    }

    fn insert(&mut self, key: u64, val: WordState) {
        if (self.live + 1) * 4 > self.keys.len() * 3 {
            self.grow();
        }
        let i = self.probe(key);
        if self.keys[i] == EMPTY_KEY {
            self.live += 1;
        }
        self.keys[i] = key;
        self.vals[i] = val;
    }

    fn grow(&mut self) {
        let bigger = WordMap::with_capacity_pow2(self.keys.len() * 2);
        let old = std::mem::replace(self, bigger);
        for (k, v) in old.keys.into_iter().zip(old.vals) {
            if k != EMPTY_KEY {
                let i = self.probe(k);
                self.keys[i] = k;
                self.vals[i] = v;
                self.live += 1;
            }
        }
    }

    fn clear(&mut self) {
        self.keys.iter_mut().for_each(|k| *k = EMPTY_KEY);
        self.live = 0;
    }
}

impl Default for WordMap {
    fn default() -> Self {
        WordMap::with_capacity_pow2(1 << 12)
    }
}

/// The detector; reset per parallel loop.
#[derive(Debug, Default)]
pub struct RaceDetector {
    words: WordMap,
    /// Violations found (capped).
    pub violations: Vec<RaceViolation>,
}

const MAX_VIOLATIONS: usize = 16;

impl RaceDetector {
    /// Fresh detector.
    pub fn new() -> RaceDetector {
        RaceDetector::default()
    }

    /// Reset at parallel-loop entry.
    pub fn begin_loop(&mut self) {
        self.words.clear();
    }

    fn push(&mut self, v: RaceViolation) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(v);
        }
    }

    /// Observe an access during a parallel loop.
    ///
    /// `in_window` tells whether the access's segment (if tagged) is
    /// currently between its wait grant and its signal on this core.
    pub fn on_access(
        &mut self,
        core: usize,
        addr: u64,
        len: u32,
        is_store: bool,
        tag: Option<SharedTag>,
        in_window: bool,
    ) {
        if let Some(tag) = tag {
            if !in_window {
                self.push(RaceViolation::OutsideSegment { core, seg: tag.seg });
            }
        }
        let first = addr / 8;
        let last = (addr + len.max(1) as u64 - 1) / 8;
        for w in first..=last {
            let seg = tag.map(|t| t.seg);
            let mut violation = None;
            match self.words.get_mut(w) {
                None => {
                    self.words.insert(
                        w,
                        WordState {
                            core,
                            wrote: is_store,
                            seg,
                        },
                    );
                }
                Some(st) => {
                    let conflict = st.core != core && (st.wrote || is_store);
                    if conflict {
                        // Cross-core sharing: both sides must be in the
                        // same segment.
                        let protected = st.seg.is_some() && st.seg == seg;
                        if !protected {
                            violation = Some(RaceViolation::UnprotectedSharing {
                                addr: w * 8,
                                a: st.core,
                                b: core,
                            });
                        }
                    }
                    st.core = core;
                    st.wrote = is_store;
                    st.seg = seg;
                }
            }
            if let Some(v) = violation {
                self.push(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_ir::TrafficClass;

    fn tag(seg: u32) -> Option<SharedTag> {
        Some(SharedTag {
            seg: SegmentId(seg),
            class: TrafficClass::MemoryCarried,
        })
    }

    #[test]
    fn private_per_core_data_is_fine() {
        let mut d = RaceDetector::new();
        d.on_access(0, 0x100, 8, true, None, false);
        d.on_access(0, 0x100, 8, false, None, false);
        d.on_access(1, 0x200, 8, true, None, false);
        assert!(d.violations.is_empty());
    }

    #[test]
    fn unprotected_cross_core_write_detected() {
        let mut d = RaceDetector::new();
        d.on_access(0, 0x100, 8, true, None, false);
        d.on_access(1, 0x100, 8, false, None, false);
        assert!(matches!(
            d.violations[0],
            RaceViolation::UnprotectedSharing { a: 0, b: 1, .. }
        ));
    }

    #[test]
    fn same_segment_sharing_allowed() {
        let mut d = RaceDetector::new();
        d.on_access(0, 0x100, 8, true, tag(3), true);
        d.on_access(1, 0x100, 8, false, tag(3), true);
        d.on_access(1, 0x100, 8, true, tag(3), true);
        assert!(d.violations.is_empty());
    }

    #[test]
    fn different_segments_on_same_word_detected() {
        let mut d = RaceDetector::new();
        d.on_access(0, 0x100, 8, true, tag(1), true);
        d.on_access(1, 0x100, 8, true, tag(2), true);
        assert!(!d.violations.is_empty());
    }

    #[test]
    fn tagged_access_outside_window_detected() {
        let mut d = RaceDetector::new();
        d.on_access(0, 0x100, 8, true, tag(1), false);
        assert!(matches!(
            d.violations[0],
            RaceViolation::OutsideSegment { core: 0, .. }
        ));
    }

    #[test]
    fn read_read_sharing_is_fine() {
        let mut d = RaceDetector::new();
        d.on_access(0, 0x100, 8, false, None, false);
        d.on_access(1, 0x100, 8, false, None, false);
        assert!(d.violations.is_empty());
    }

    #[test]
    fn reset_clears_history() {
        let mut d = RaceDetector::new();
        d.on_access(0, 0x100, 8, true, None, false);
        d.begin_loop();
        d.on_access(1, 0x100, 8, true, None, false);
        assert!(d.violations.is_empty());
    }

    /// The open-addressing word table keeps state across growth.
    #[test]
    fn detector_scales_past_table_growth() {
        let mut d = RaceDetector::new();
        for k in 0..20_000u64 {
            d.on_access(0, 0x1000 + k * 8, 8, true, None, false);
        }
        assert!(d.violations.is_empty());
        // A second core touching the very first word must still conflict.
        d.on_access(1, 0x1000, 8, false, None, false);
        assert!(!d.violations.is_empty(), "early state lost during growth");
    }

    #[test]
    fn wide_access_covers_all_words() {
        let mut d = RaceDetector::new();
        d.on_access(0, 0x100, 32, true, None, false); // words 0x20..0x24
        d.on_access(1, 0x118, 8, false, None, false); // inside the range
        assert!(!d.violations.is_empty());
    }
}
