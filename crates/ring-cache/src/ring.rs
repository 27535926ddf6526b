//! The ring cache proper: nodes, lanes, value circulation, signal
//! broadcast, owner-mediated miss service, and the end-of-loop flush.
//!
//! Data and signals share one ordered main lane per link, which realizes
//! the paper's lockstep property: "signals move in lockstep with
//! forwarded data to ensure that a shared memory location is not accessed
//! before the data arrives" (§5.1). Per-cycle link budgets are charged
//! separately (words of data vs. signals), with head-of-line blocking so
//! ordering is never violated. Service traffic (ring-miss requests and
//! replies) moves on two dedicated lanes, as in Fig. 6, so it cannot
//! deadlock the main lane.

use crate::array::{CacheArray, Insert};
use crate::config::RingConfig;
use crate::stats::{RingStats, SharingProfile};
use helix_ir::SegmentId;
use std::cell::Cell;
use std::collections::VecDeque;

/// Main-lane message: a circulated store or a broadcast signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MainMsg {
    /// `(address, origin node)`.
    Data { addr: u64, origin: u16 },
    /// `(segment, source core, origin node)`.
    Signal {
        seg: SegmentId,
        src: u16,
        origin: u16,
    },
}

impl MainMsg {
    fn origin(&self) -> usize {
        match self {
            MainMsg::Data { origin, .. } | MainMsg::Signal { origin, .. } => *origin as usize,
        }
    }
}

/// Service-lane request: `requester` asks `owner` for `addr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReqMsg {
    ticket: u64,
    addr: u64,
    requester: u16,
    owner: u16,
}

/// Service-lane reply, routed back to `requester`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RepMsg {
    ticket: u64,
    addr: u64,
    requester: u16,
}

/// Result of issuing a load to the ring cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadIssue {
    /// The local node array has the line; data available at `ready_at`.
    Hit {
        /// Cycle the value reaches the core.
        ready_at: u64,
    },
    /// Ring miss: the owner node will service it; poll
    /// [`RingCache::load_ready`] with the ticket.
    Pending {
        /// Completion ticket.
        ticket: u64,
    },
}

#[derive(Debug)]
struct Node {
    array: CacheArray,
    in_main: VecDeque<(MainMsg, u64)>,
    inject: VecDeque<(MainMsg, u64)>,
    in_req: VecDeque<(ReqMsg, u64)>,
    in_rep: VecDeque<(RepMsg, u64)>,
    /// Signals received, indexed `seg.index() * nodes + src` (dense,
    /// grown on demand — segment ids are small per-program counters).
    signal_counts: Vec<u64>,
    /// Total signals ever delivered to this node: a cheap epoch counter
    /// the simulator uses to memoize failed wait checks (a wait's
    /// grant state can only change when a new signal arrives here).
    signals_received: u64,
    /// Messages ever drained from this node's injection queue: the
    /// matching epoch for backpressure stalls (a rejected injection can
    /// only succeed after something leaves the queue).
    inject_drained: u64,
    /// Ring loads ever completed for this node (as requester): the
    /// epoch for in-flight-load stalls (a pending ticket can only
    /// become ready when this moves).
    loads_completed: u64,
    /// Ring width, for the dense signal index.
    nodes: usize,
}

impl Node {
    fn new(cfg: &RingConfig) -> Node {
        Node {
            array: CacheArray::new(cfg.array),
            in_main: VecDeque::new(),
            inject: VecDeque::new(),
            in_req: VecDeque::new(),
            in_rep: VecDeque::new(),
            signal_counts: Vec::new(),
            signals_received: 0,
            inject_drained: 0,
            loads_completed: 0,
            nodes: cfg.nodes,
        }
    }

    fn count_signal(&mut self, seg: SegmentId, src: u16) {
        let idx = seg.index() * self.nodes + src as usize;
        if idx >= self.signal_counts.len() {
            self.signal_counts.resize(idx + 1, 0);
        }
        self.signal_counts[idx] += 1;
        self.signals_received += 1;
    }

    /// Whether every lane and the injection queue are empty, i.e. a tick
    /// of this node is a no-op.
    fn idle(&self) -> bool {
        self.in_main.is_empty()
            && self.inject.is_empty()
            && self.in_req.is_empty()
            && self.in_rep.is_empty()
    }
}

/// The ring cache: one node per core, connected unidirectionally.
#[derive(Debug)]
pub struct RingCache {
    cfg: RingConfig,
    nodes: Vec<Node>,
    now: u64,
    next_ticket: u64,
    /// Serviced-but-unretired loads: `(ticket, completion cycle)`. The
    /// set is tiny (bounded by outstanding loads), so a flat vector with
    /// linear probes beats a tree map on the per-cycle poll path and
    /// never allocates once warm.
    completed_loads: Vec<(u64, u64)>,
    /// Wake hints accumulated since the last [`RingCache::take_wake_mask`]:
    /// bit `n % 64` is set when node `n` received a signal, drained an
    /// injection, or completed a load — the three ring events that can
    /// end a core-side stall.
    wake_mask: u64,
    /// Nodes with anything queued (bit per node, rings ≤ 64 nodes —
    /// larger rings fall back to visiting every node). A tick visits
    /// only set bits; a visit that leaves the node empty clears it.
    active_mask: u64,
    /// Messages currently queued anywhere in the ring (lanes and
    /// injection queues). Zero means [`RingCache::tick`] is a no-op
    /// beyond advancing the clock, which makes quiescence O(1).
    in_flight: usize,
    /// Lower bound on the earliest ready time of any queued message.
    /// Injections update it eagerly (they know their ready time); pops
    /// leave it conservative (possibly stale-low, never stale-high), and
    /// a full scan refreshes it when it expires. While the bound is in
    /// the future, [`RingCache::tick`] is provably a no-op and
    /// [`RingCache::next_event_at`] answers without scanning — the two
    /// paths the simulator hits every machine cycle. `Cell` because the
    /// scan refresh happens inside the `&self` accessor.
    next_event_lb: Cell<u64>,
    stats: RingStats,
    sharing: SharingProfile,
}

impl RingCache {
    /// Build a ring cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`RingConfig::assert_valid`]).
    pub fn new(cfg: RingConfig) -> RingCache {
        cfg.assert_valid();
        RingCache {
            nodes: (0..cfg.nodes).map(|_| Node::new(&cfg)).collect(),
            cfg,
            now: 0,
            next_ticket: 0,
            completed_loads: Vec::new(),
            wake_mask: 0,
            active_mask: 0,
            in_flight: 0,
            next_event_lb: Cell::new(u64::MAX),
            stats: RingStats::default(),
            sharing: SharingProfile::default(),
        }
    }

    /// Record a freshly queued message's ready time in the next-event
    /// lower bound.
    #[inline]
    fn note_event(&self, ready: u64) {
        if ready < self.next_event_lb.get() {
            self.next_event_lb.set(ready);
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RingConfig {
        &self.cfg
    }

    /// Current ring-local cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Collected statistics.
    pub fn stats(&self) -> &RingStats {
        &self.stats
    }

    /// Inject a store from `node`'s core. Returns `false` (and the core
    /// must stall) when the injection queue is full.
    pub fn store(&mut self, node: usize, addr: u64) -> bool {
        if self.nodes[node].inject.len() >= self.cfg.injection_queue {
            self.stats.injection_backpressure += 1;
            return false;
        }
        let ready = self.now + self.cfg.injection_latency as u64;
        self.note_event(ready);
        self.nodes[node].inject.push_back((
            MainMsg::Data {
                addr,
                origin: node as u16,
            },
            ready,
        ));
        self.mark_active(node);
        self.in_flight += 1;
        self.stats.stores += 1;
        self.sharing.on_store(&mut self.stats, addr, node);
        true
    }

    /// Inject a signal from `node`'s core. Returns `false` on
    /// backpressure.
    pub fn signal(&mut self, node: usize, seg: SegmentId) -> bool {
        if self.nodes[node].inject.len() >= self.cfg.injection_queue {
            self.stats.injection_backpressure += 1;
            return false;
        }
        let ready = self.now + self.cfg.injection_latency as u64;
        self.note_event(ready);
        self.nodes[node].inject.push_back((
            MainMsg::Signal {
                seg,
                src: node as u16,
                origin: node as u16,
            },
            ready,
        ));
        self.mark_active(node);
        self.in_flight += 1;
        self.stats.signals += 1;
        true
    }

    /// Issue a load from `node`'s core.
    pub fn load(&mut self, node: usize, addr: u64) -> LoadIssue {
        self.stats.loads += 1;
        self.sharing
            .on_load(&mut self.stats, addr, node, self.cfg.nodes);
        if self.nodes[node].array.probe(addr) {
            self.stats.load_hits += 1;
            return LoadIssue::Hit {
                ready_at: self.now + self.cfg.injection_latency as u64 + 1,
            };
        }
        self.stats.load_misses += 1;
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        let owner = self.cfg.owner_of(addr);
        if owner == node {
            // Local miss at the owner: read the private L1 directly.
            let ready = self.now
                + self.cfg.injection_latency as u64
                + 1
                + self.cfg.l1_service_latency as u64;
            self.nodes[node].array.insert(addr, false);
            self.complete_load(node, ticket, ready);
        } else {
            let req = ReqMsg {
                ticket,
                addr,
                requester: node as u16,
                owner: owner as u16,
            };
            let ready = self.now + self.cfg.injection_latency as u64 + self.cfg.hop_latency as u64;
            self.note_event(ready);
            let next = (node + 1) % self.cfg.nodes;
            self.nodes[next].in_req.push_back((req, ready));
            self.mark_active(next);
            self.in_flight += 1;
        }
        LoadIssue::Pending { ticket }
    }

    /// Record a serviced load for `node` (the requester): queue the
    /// ticket for retirement, bump the node's load epoch, and hint the
    /// simulator that the node's stall inputs moved.
    fn complete_load(&mut self, node: usize, ticket: u64, ready: u64) {
        self.completed_loads.push((ticket, ready));
        self.nodes[node].loads_completed += 1;
        self.wake_mask |= 1 << (node as u64 & 63);
    }

    /// Completion cycle of a pending load, if serviced.
    pub fn load_ready(&self, ticket: u64) -> Option<u64> {
        self.completed_loads
            .iter()
            .find(|&&(t, _)| t == ticket)
            .map(|&(_, ready)| ready)
    }

    /// Discard a completed load ticket.
    pub fn retire_load(&mut self, ticket: u64) {
        if let Some(i) = self.completed_loads.iter().position(|&(t, _)| t == ticket) {
            self.completed_loads.swap_remove(i);
        }
    }

    /// Completion cycle of a pending load, retiring it in the same
    /// pass ([`RingCache::load_ready`] + [`RingCache::retire_load`]
    /// fused for the per-cycle poll path).
    pub fn take_ready(&mut self, ticket: u64) -> Option<u64> {
        let i = self
            .completed_loads
            .iter()
            .position(|&(t, _)| t == ticket)?;
        Some(self.completed_loads.swap_remove(i).1)
    }

    /// Signals received at `node` for `seg` from core `src`.
    pub fn signal_count(&self, node: usize, seg: SegmentId, src: usize) -> u64 {
        let n = &self.nodes[node];
        n.signal_counts
            .get(seg.index() * n.nodes + src)
            .copied()
            .unwrap_or(0)
    }

    /// Total signals ever delivered to `node` — an epoch counter: a
    /// failed wait check at this node cannot change outcome until this
    /// value does (plus new signal *executions*, see
    /// `SyncState` in the simulator).
    pub fn signal_epoch(&self, node: usize) -> u64 {
        self.nodes[node].signals_received
    }

    /// Messages ever drained from `node`'s injection queue — an epoch
    /// counter: an injection rejected for backpressure cannot succeed
    /// until this moves.
    pub fn inject_epoch(&self, node: usize) -> u64 {
        self.nodes[node].inject_drained
    }

    /// Ring loads ever completed for `node` as the requester — an epoch
    /// counter: a pending load ticket cannot become ready until this
    /// moves, so a core stalled on in-flight loads may sleep on it
    /// instead of polling every cycle.
    pub fn load_epoch(&self, node: usize) -> u64 {
        self.nodes[node].loads_completed
    }

    /// Drain the accumulated wake hints: bit `n % 64` set means node
    /// `n` received a signal, drained an injection, or completed a load
    /// since the last call. The simulator uses this to test sleeping
    /// cores with one mask probe instead of re-reading every epoch.
    pub fn take_wake_mask(&mut self) -> u64 {
        std::mem::take(&mut self.wake_mask)
    }

    /// Reset signal bookkeeping at the start of a parallel loop.
    pub fn begin_loop(&mut self) {
        for n in &mut self.nodes {
            n.signal_counts.iter_mut().for_each(|c| *c = 0);
        }
    }

    /// End-of-loop flush: drain in-flight traffic, write every dirty
    /// owned line back to its owner's L1, clear all arrays. Returns the
    /// number of cycles consumed (the "distributed fence" cost, §5.2).
    pub fn flush(&mut self) -> u64 {
        let start = self.now;
        // Drain: step until every queue is empty (bounded for safety).
        let mut guard = 0u64;
        while !self.quiescent() {
            self.tick();
            guard += 1;
            assert!(guard < 1_000_000, "ring failed to drain: deadlock?");
        }
        // Write-backs: each node retires its dirty lines at one per two
        // cycles, all nodes in parallel; one final L1 access latency.
        let mut max_dirty = 0usize;
        for n in &mut self.nodes {
            let d = n.array.dirty_count();
            max_dirty = max_dirty.max(d);
            self.stats.flush_writebacks += d as u64;
            n.array.clear();
            n.signal_counts.clear();
        }
        let wb_cycles = if max_dirty > 0 {
            2 * max_dirty as u64 + self.cfg.l1_service_latency as u64
        } else {
            0
        };
        for _ in 0..wb_cycles {
            self.tick();
        }
        self.sharing.finish(&mut self.stats);
        self.completed_loads.clear();
        // Drained: no queued messages remain, so the bound resets.
        self.next_event_lb.set(u64::MAX);
        self.now - start
    }

    /// Whether all lanes and injection queues are empty. O(1): tracked
    /// by the in-flight message counter.
    pub fn quiescent(&self) -> bool {
        debug_assert_eq!(
            self.in_flight == 0,
            self.nodes.iter().all(|n| {
                n.in_main.is_empty()
                    && n.inject.is_empty()
                    && n.in_req.is_empty()
                    && n.in_rep.is_empty()
            }),
            "in-flight counter out of sync"
        );
        self.in_flight == 0
    }

    /// Earliest cycle at which the ring's observable state can next
    /// change: the minimum ready time over every queued message (clamped
    /// to the next cycle for messages that are already due but were
    /// blocked by bandwidth or credits). `None` when quiescent.
    ///
    /// Answers from the cached lower bound while it is in the future
    /// (the common case on the simulator's every-idle-cycle path); the
    /// full scan runs only when the bound has expired, and refreshes it.
    /// A cached answer can be earlier than the true next event — callers
    /// fast-forwarding to it simply stall again and re-ask — but never
    /// later, so no event is ever skipped.
    pub fn next_event_at(&self) -> Option<u64> {
        if self.in_flight == 0 {
            return None;
        }
        let lb = self.next_event_lb.get();
        if lb > self.now {
            return Some(lb);
        }
        let mut min = u64::MAX;
        for n in &self.nodes {
            for &(_, ready) in n.in_main.iter().chain(n.inject.iter()) {
                if ready <= self.now {
                    return Some(self.now); // due now: can't get earlier
                }
                min = min.min(ready);
            }
            for &(_, ready) in &n.in_req {
                if ready <= self.now {
                    return Some(self.now);
                }
                min = min.min(ready);
            }
            for &(_, ready) in &n.in_rep {
                if ready <= self.now {
                    return Some(self.now);
                }
                min = min.min(ready);
            }
        }
        // Every queued message is strictly in the future: `min` is exact
        // and stays a valid bound until something new is injected.
        self.next_event_lb.set(min);
        Some(min)
    }

    /// Jump the ring clock to `to` in one step. Callers must guarantee
    /// the skipped window contains no events (see
    /// [`RingCache::next_event_at`]); ticking cycle by cycle over such a
    /// window only increments the clock, so this is equivalent.
    pub fn fast_forward(&mut self, to: u64) {
        debug_assert!(to >= self.now, "ring cannot rewind");
        debug_assert!(
            self.next_event_at().is_none_or(|e| e >= to),
            "fast-forward would skip a ring event"
        );
        self.now = to;
    }

    /// Advance the ring by one cycle. Nodes with nothing queued are
    /// skipped outright, so a tick costs O(active nodes), not O(nodes);
    /// a tick before the next-event bound is a pure clock increment.
    pub fn tick(&mut self) {
        if self.in_flight == 0 || (self.cfg.event_skip && self.next_event_lb.get() > self.now) {
            // Quiescence, or every queued message is strictly in the
            // future: nothing can move, no statistic can change.
            self.now += 1;
            return;
        }
        let now = self.now;
        let n = self.cfg.nodes;
        let mut acted = false;
        if n <= 64 {
            // Visit only nodes with queued work, in ascending order.
            // Messages handed forward mid-tick are never ready this
            // cycle, so skipping their (newly active) node is
            // equivalent to the no-op visit the full scan would make.
            let mut m = self.active_mask;
            while m != 0 {
                let i = m.trailing_zeros() as usize;
                m &= m - 1;
                let node = &self.nodes[i];
                let has_main = !node.in_main.is_empty() || !node.inject.is_empty();
                let has_service = !node.in_req.is_empty() || !node.in_rep.is_empty();
                if has_main {
                    acted |= self.tick_main(i, now);
                }
                if has_service {
                    acted |= self.tick_service(i, now);
                }
                if self.nodes[i].idle() {
                    self.active_mask &= !(1 << i);
                }
            }
        } else {
            for i in 0..n {
                if self.nodes[i].idle() {
                    continue;
                }
                acted |= self.tick_main(i, now);
                acted |= self.tick_service(i, now);
            }
        }
        if !acted && self.cfg.event_skip {
            // The walk changed nothing: the expired bound was stale.
            // Pay for one scan now so the ticks until the true next
            // event take the O(1) path above.
            let _ = self.next_event_at();
        }
        self.now += 1;
    }

    /// Mark `node` as having queued work.
    #[inline]
    fn mark_active(&mut self, node: usize) {
        self.active_mask |= 1 << (node as u64 & 63);
    }

    /// Returns whether anything observable changed (a message moved, or
    /// a stall statistic was charged) — `false` means the visit was a
    /// no-op the caller may avoid repeating until the next event bound.
    fn tick_main(&mut self, i: usize, now: u64) -> bool {
        let n = self.cfg.nodes;
        let next = if i + 1 == n { 0 } else { i + 1 };
        let hop = self.cfg.hop_latency as u64;
        let mut data_budget = self.cfg.data_bandwidth;
        let mut sig_budget = self.cfg.signal_bandwidth.unwrap_or(u32::MAX);
        let mut next_free = if next == i {
            0
        } else {
            self.cfg
                .link_buffers
                .saturating_sub(self.nodes[next].in_main.len())
        };
        let mut acted = false;
        let mut processed_through = false;
        let mut forwarded = false;

        // Through traffic first (the node prioritizes ring data and
        // stalls its own injection, §5.1). Forwarded messages move to
        // the next link directly — a forward is a pop plus a push, so
        // the in-flight total is untouched.
        while let Some(&(msg, ready)) = self.nodes[i].in_main.front() {
            if ready > now {
                break;
            }
            let budget = match msg {
                MainMsg::Data { .. } => &mut data_budget,
                MainMsg::Signal { .. } => &mut sig_budget,
            };
            if *budget == 0 {
                break;
            }
            let forward = next != msg.origin() && n > 1;
            if forward && next_free == 0 {
                self.stats.credit_stalls += 1;
                acted = true;
                break;
            }
            self.nodes[i].in_main.pop_front();
            *budget -= 1;
            acted = true;
            processed_through = true;
            self.handle_main(i, msg);
            if forward {
                self.nodes[next].in_main.push_back((msg, now + hop));
                next_free -= 1;
                forwarded = true;
                self.stats.forwards += 1;
            } else {
                self.in_flight -= 1;
            }
        }

        // Injection only when no through traffic moved this cycle.
        if !processed_through {
            if let Some(&(msg, ready)) = self.nodes[i].inject.front() {
                let budget = match msg {
                    MainMsg::Data { .. } => &mut data_budget,
                    MainMsg::Signal { .. } => &mut sig_budget,
                };
                if ready <= now && *budget > 0 {
                    acted = true;
                    let forward = n > 1;
                    if !forward || next_free > 0 {
                        self.nodes[i].inject.pop_front();
                        self.nodes[i].inject_drained += 1;
                        self.wake_mask |= 1 << (i as u64 & 63);
                        *budget -= 1;
                        self.handle_main(i, msg);
                        if forward {
                            self.nodes[next].in_main.push_back((msg, now + hop));
                            forwarded = true;
                            self.stats.forwards += 1;
                        } else {
                            self.in_flight -= 1;
                        }
                    } else {
                        self.stats.credit_stalls += 1;
                    }
                }
            }
        }

        if forwarded {
            self.mark_active(next);
        }
        acted
    }

    /// Apply a main-lane message's effect at node `i`.
    fn handle_main(&mut self, i: usize, msg: MainMsg) {
        match msg {
            MainMsg::Data { addr, .. } => {
                let dirty = self.cfg.owner_of(addr) == i;
                if let Insert::Evicted {
                    addr: _va,
                    dirty: true,
                } = self.nodes[i].array.insert(addr, dirty)
                {
                    // Owner write-back of the victim; cost is absorbed
                    // by the (pipelined) L1 port, counted in stats.
                    self.stats.evict_writebacks += 1;
                }
            }
            MainMsg::Signal { seg, src, .. } => {
                self.nodes[i].count_signal(seg, src);
                self.wake_mask |= 1 << (i as u64 & 63);
            }
        }
    }

    /// Returns whether any message moved (see [`RingCache::tick_main`]).
    fn tick_service(&mut self, i: usize, now: u64) -> bool {
        let n = self.cfg.nodes;
        let next = if i + 1 == n { 0 } else { i + 1 };
        let hop = self.cfg.hop_latency as u64;
        let mut acted = false;
        // Requests: one per cycle. Forwards move straight to the next
        // link (pop + push: in-flight total untouched).
        if let Some(&(req, ready)) = self.nodes[i].in_req.front() {
            if ready <= now {
                acted = true;
                self.nodes[i].in_req.pop_front();
                if req.owner as usize == i {
                    self.in_flight -= 1;
                    // Service: array lookup, or the owner's private L1.
                    let lat = if self.nodes[i].array.probe(req.addr) {
                        1
                    } else {
                        self.nodes[i].array.insert(req.addr, false);
                        self.cfg.l1_service_latency as u64
                    };
                    if req.requester as usize == i {
                        self.complete_load(i, req.ticket, now + lat + 1);
                    } else {
                        let rep = RepMsg {
                            ticket: req.ticket,
                            addr: req.addr,
                            requester: req.requester,
                        };
                        self.nodes[next].in_rep.push_back((rep, now + lat + hop));
                        self.mark_active(next);
                        self.in_flight += 1;
                    }
                } else {
                    self.nodes[next].in_req.push_back((req, now + hop));
                    self.mark_active(next);
                    self.stats.forwards += 1;
                }
            }
        }
        // Replies: one per cycle.
        if let Some(&(rep, ready)) = self.nodes[i].in_rep.front() {
            if ready <= now {
                acted = true;
                self.nodes[i].in_rep.pop_front();
                if rep.requester as usize == i {
                    self.in_flight -= 1;
                    self.nodes[i].array.insert(rep.addr, false);
                    self.complete_load(i, rep.ticket, now + 1);
                } else {
                    self.nodes[next].in_rep.push_back((rep, now + hop));
                    self.mark_active(next);
                    self.stats.forwards += 1;
                }
            }
        }
        acted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(nodes: usize) -> RingCache {
        RingCache::new(RingConfig::paper_default(nodes))
    }

    fn run_until<F: Fn(&RingCache) -> bool>(r: &mut RingCache, pred: F, max: u64) -> u64 {
        let start = r.now();
        for _ in 0..max {
            if pred(r) {
                return r.now() - start;
            }
            r.tick();
        }
        panic!("condition not reached within {max} cycles");
    }

    /// A store circulates to every node within ~N + injection cycles.
    #[test]
    fn store_circulates_full_ring() {
        let mut r = ring(16);
        assert!(r.store(3, 0x1000));
        let cycles = run_until(
            &mut r,
            |r| (0..16).all(|n| r.nodes[n].array.contains(0x1000)),
            100,
        );
        // injection (2) + 15 hops + processing slack.
        assert!(cycles <= 16 + 2 + 4, "took {cycles} cycles");
        assert!(r.quiescent());
    }

    /// Signals reach every node and are counted once per node.
    #[test]
    fn signal_broadcast_counts() {
        let mut r = ring(8);
        let seg = SegmentId(2);
        assert!(r.signal(5, seg));
        run_until(
            &mut r,
            |r| (0..8).all(|n| r.signal_count(n, seg, 5) == 1),
            64,
        );
        // No double counting after draining.
        for _ in 0..20 {
            r.tick();
        }
        for n in 0..8 {
            assert_eq!(r.signal_count(n, seg, 5), 1);
        }
    }

    /// Full-trip latency without contention is bounded by N hops
    /// (paper §5.1: "bound the latency for a full trip around the ring to
    /// N clock cycles").
    #[test]
    fn uncontended_full_trip_bound() {
        let mut r = ring(16);
        r.store(0, 0x40);
        // Last node to receive is node 15: distance 15.
        let cycles = run_until(&mut r, |r| r.nodes[15].array.contains(0x40), 64);
        assert!(
            cycles <= 2 + 16,
            "full trip took {cycles} > injection + N cycles"
        );
    }

    /// A load after circulation hits locally with small latency.
    #[test]
    fn load_hit_after_circulation() {
        let mut r = ring(16);
        r.store(2, 0x2000);
        run_until(&mut r, |r| r.quiescent(), 100);
        match r.load(9, 0x2000) {
            LoadIssue::Hit { ready_at } => {
                assert_eq!(ready_at, r.now() + 3); // injection 2 + lookup 1
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(r.stats().load_hits, 1);
    }

    /// A cold load misses and is serviced by the owner via the ring.
    #[test]
    fn cold_load_serviced_by_owner() {
        let mut r = ring(16);
        let addr = 0x4000;
        let owner = r.config().owner_of(addr);
        let requester = (owner + 4) % 16;
        let issue = r.load(requester, addr);
        let ticket = match issue {
            LoadIssue::Pending { ticket } => ticket,
            other => panic!("expected miss, got {other:?}"),
        };
        let waited = run_until(&mut r, |r| r.load_ready(ticket).is_some(), 200);
        let ready = r.load_ready(ticket).unwrap();
        // Round trip: hops to owner + L1 service + hops back.
        let min_rtt = 16 /* full circle */ + 3 /* L1 */;
        assert!(
            waited + 2 >= min_rtt / 2 && ready >= min_rtt / 2,
            "implausibly fast miss service: waited {waited}, ready {ready}"
        );
        r.retire_load(ticket);
        assert_eq!(r.load_ready(ticket), None);
        assert_eq!(r.stats().load_misses, 1);
        // The requester now caches the line.
        run_until(&mut r, |r| r.nodes[requester].array.contains(addr), 64);
    }

    /// Backpressure: a full injection queue rejects stores.
    #[test]
    fn injection_backpressure() {
        let mut r = ring(4);
        let cap = r.config().injection_queue;
        let mut accepted = 0;
        for k in 0..cap + 4 {
            if r.store(0, 0x100 + (k as u64) * 8) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, cap);
        assert!(r.stats().injection_backpressure >= 4);
        // Draining frees the queue.
        run_until(&mut r, |r| r.quiescent(), 200);
        assert!(r.store(0, 0x900));
    }

    /// Flush writes back dirty owned lines, clears arrays, and reports a
    /// nonzero cost.
    #[test]
    fn flush_writes_back_and_clears() {
        let mut r = ring(8);
        for k in 0..10u64 {
            r.store(k as usize % 8, 0x8000 + k * 8);
        }
        run_until(&mut r, |r| r.quiescent(), 400);
        let dirty_before: usize = (0..8).map(|n| r.nodes[n].array.dirty_count()).sum();
        assert!(dirty_before > 0, "owners hold dirty lines");
        let cost = r.flush();
        assert!(cost > 0);
        assert_eq!(r.stats().flush_writebacks, dirty_before as u64);
        assert!((0..8).all(|n| r.nodes[n].array.is_empty()));
    }

    /// begin_loop clears signal state but not the cached data.
    #[test]
    fn begin_loop_resets_signals_only() {
        let mut r = ring(4);
        r.signal(1, SegmentId(0));
        r.store(1, 0x500);
        run_until(&mut r, |r| r.quiescent(), 100);
        assert!(r.signal_count(3, SegmentId(0), 1) == 1);
        r.begin_loop();
        assert_eq!(r.signal_count(3, SegmentId(0), 1), 0);
        assert!(r.nodes[3].array.contains(0x500));
    }

    /// Messages from one node preserve order (data then signal): the
    /// signal never arrives anywhere before the data it follows.
    #[test]
    fn lockstep_data_before_signal() {
        let mut r = ring(16);
        r.store(0, 0x7000);
        r.signal(0, SegmentId(1));
        for _ in 0..100 {
            r.tick();
            for node in 0..16 {
                if r.signal_count(node, SegmentId(1), 0) > 0 {
                    assert!(
                        r.nodes[node].array.contains(0x7000),
                        "signal overtook its data at node {node}"
                    );
                }
            }
        }
    }

    /// `next_event_at` tracks queued messages; `fast_forward` jumps an
    /// idle ring without touching state.
    #[test]
    fn next_event_and_fast_forward() {
        let mut r = ring(8);
        assert_eq!(r.next_event_at(), None);
        r.fast_forward(100);
        assert_eq!(r.now(), 100);
        assert!(r.quiescent());
        r.store(0, 0x100);
        // Injection latency is 2: the first event is at now + 2.
        assert_eq!(r.next_event_at(), Some(102));
        run_until(&mut r, |r| r.quiescent(), 100);
        assert_eq!(r.next_event_at(), None);
    }

    /// Single-node ring degenerates gracefully.
    #[test]
    fn single_node_ring() {
        let mut r = ring(1);
        assert!(r.store(0, 0x100));
        run_until(&mut r, |r| r.nodes[0].array.contains(0x100), 16);
        assert!(r.quiescent());
        match r.load(0, 0x100) {
            LoadIssue::Hit { .. } => {}
            other => panic!("expected hit, got {other:?}"),
        }
    }

    /// Signal-bandwidth 1 still delivers everything (just slower).
    #[test]
    fn narrow_signal_bandwidth_still_delivers() {
        let mut cfg = RingConfig::paper_default(8);
        cfg.signal_bandwidth = Some(1);
        let mut r = RingCache::new(cfg);
        for s in 0..4u32 {
            assert!(r.signal(0, SegmentId(s)));
        }
        run_until(
            &mut r,
            |r| (0..4).all(|s| r.signal_count(7, SegmentId(s), 0) == 1),
            400,
        );
    }
}
