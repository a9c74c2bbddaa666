//! Version-keyed social-distance cache for replica resolution.
//!
//! Resolution ranks a dataset's online replicas by social hop distance
//! from the requester. The nearest-online traversal
//! ([`TraversalScratch::bfs_nearest`]) stops once the nearest online
//! replica's level is complete, so what it learns is a **ball**: every node
//! within its completeness radius `R` of the requester, with its exact
//! distance. A slot memoizes, per `(requester, dataset)`, the replicas'
//! hops inside that ball (`Some(d)` iff `d <= R`) plus `R` and the hop
//! budget it ran under, keyed by the catalog entry's version: any
//! `add_replica` / `remove_replica` / `migrate_replica` / placement change
//! bumps the entry version, which invalidates the slot implicitly (no
//! eager cache walk on the write path).
//!
//! ## When a slot answers
//!
//! The online mask changes between calls, so a slot answers a resolve
//! only when its ball decides the selection under the *current* mask:
//!
//! * some replica that is online now has known hops `h <= R`: every
//!   online replica with unknown hops is farther than `R >= h`, and the
//!   ranking orders by hops first, so it cannot win; or
//! * `R` reaches the hop budget (`u32::MAX` budget: the component was
//!   exhausted): every replica the budget lets count is in the ball, so
//!   the unknown ones rank socially unreachable, exactly as a full BFS
//!   ranks them.
//!
//! Anything else is a miss and the slot is refilled under the new mask.
//! A slot answers only under the budget it was filled with, and
//! `AllocationServer::set_resolve_hop_budget` flushes the cache.
//!
//! Entry versions are strictly *finer* than the catalog's shard epochs
//! (see [`crate::epoch`]): every entry-version bump republishes its
//! shard and advances the epoch, but an epoch advance bumps only the
//! entries actually mutated. Keying on the entry version therefore
//! retains strictly more: a commit to another dataset — even one in the
//! same shard — invalidates plans stamped on that shard (cheap replans)
//! while every cached slot here stays warm. The wholesale counterpart
//! is `AllocationServer::touch_all`, which bumps every entry version and
//! thus flushes this cache implicitly — its `alloc.catalog.touch_all`
//! counter makes that cost visible.
//!
//! The cache is sharded (requester-hashed) so parallel
//! [`resolve_batch`](crate::server::AllocationServer::resolve_batch)
//! workers don't serialize on one mutex, and bounded: each shard evicts
//! FIFO once it reaches its capacity share. The graph guard is the CSR's
//! monotonic [`CsrGraph::generation`] — an *unannounced* generation change
//! (a caller swapping in a different graph without going through
//! [`ResolveCache::apply_delta`]) flushes everything, exactly like the old
//! fingerprint guard but without its equal-sized-graph collision.
//!
//! ## Scoped invalidation under churn
//!
//! When the graph changes via [`CsrGraph::apply_delta`], flushing
//! wholesale throws away slots that provably cannot have changed.
//! [`ResolveCache::apply_delta`] instead evicts only the slots whose
//! ball *can* contain a churn-touched endpoint:
//!
//! A slot for requester `q` with radius `R` is retained iff every touched
//! node is farther than `R` from `q` in **both** the old and the new
//! graph. Then the set of nodes within `R` of `q`, and each of their
//! distances, is the same in both graphs. Take `v` with `d_old(q,v) <= R`:
//! every node on a shortest old path `q → v` is within `R` of `q`, so
//! none is touched; an edge changes only between two touched endpoints,
//! so every edge of that path survives and `d_new(q,v) <= d_old(q,v)`.
//! The same argument on a shortest new path gives the reverse inequality
//! for every `v` with `d_new(q,v) <= R`. So the ball, every distance in
//! it, and hence every cached hop and "unknown" verdict is still exact,
//! and the answer rule above holds unchanged. A slot whose traversal
//! exhausted its component (`R = u32::MAX`) is always evicted under
//! structural churn — an added edge anywhere could connect it. Both
//! frontier distances come from one bounded multi-source BFS per side,
//! seeded with the touched set and capped at [`FRONTIER_DEPTH`]; a
//! requester the frontier never reached is farther than the cap, so
//! slots with `R > FRONTIER_DEPTH` are conservatively evicted. False
//! positives (extra evictions) only cost a recompute; false negatives
//! are impossible — property-tested against full-BFS recomputation in
//! `tests/delta_invalidation.rs`.
//!
//! ## Chunked COW storage changes nothing here
//!
//! `CsrGraph` stores its columns as `Arc`-shared row chunks and
//! [`CsrGraph::apply_delta`] rewrites only touched chunks. That is a
//! *storage* optimization: the generation counter stays globally
//! monotonic (every apply/freeze mints a fresh value, never reuses one),
//! and the `touched` set in [`DeltaSummary`](scdn_graph::DeltaSummary)
//! still over-approximates every changed row regardless of how many
//! chunks the rows map onto. Both guards this cache relies on are
//! therefore layout-independent — no rekeying, and no sensitivity to
//! `chunk_rows`, which the chunk-size sweep in
//! `tests/delta_invalidation.rs` pins.

use std::collections::{HashMap, VecDeque};

use parking_lot::Mutex;
use scdn_graph::csr::UNVISITED;
use scdn_graph::{CsrGraph, NodeId, TraversalScratch};
use scdn_storage::object::DatasetId;

/// Number of independent shards (power of two).
const SHARDS: usize = 8;

/// Hop cap for the scoped-invalidation frontier BFS. Slots whose radius
/// exceeds this are evicted unconditionally; nearest-replica radii are
/// tiny (the paper's graphs have diameter ≪ 16), so in practice the cap
/// never bites.
pub(crate) const FRONTIER_DEPTH: u32 = 16;

/// Cache key: one requester resolving one dataset.
type Key = (NodeId, DatasetId);

/// What one nearest-online traversal learned about one key, at one
/// catalog-entry version.
#[derive(Clone)]
pub(crate) struct Slot {
    /// Catalog entry version the hops were computed against.
    pub version: u64,
    /// Hop budget the traversal ran under. The slot answers only under
    /// this budget: a resolve racing a budget change (which flushes the
    /// cache) can still insert a slot filled under the old one.
    pub budget: u32,
    /// Completeness radius: every node within `radius` hops of the
    /// requester was reached (`u32::MAX` = its component was exhausted).
    pub radius: u32,
    /// Hop distance per replica, parallel to the entry's replica list at
    /// `version`: `Some(d)` iff `d <= radius`, `None` = farther than
    /// `radius` or socially unreachable.
    pub hops: Box<[Option<u32>]>,
}

impl Slot {
    /// Whether this slot decides the selection under the current online
    /// mask and `budget` (see the module docs for why each case is exact).
    fn answers(&self, replicas: &[NodeId], online: impl Fn(NodeId) -> bool, budget: u32) -> bool {
        self.budget == budget
            && (self.radius >= budget
                || self
                    .hops
                    .iter()
                    .zip(replicas)
                    .any(|(h, &r)| h.is_some() && online(r)))
    }
}

#[derive(Default)]
struct Shard {
    map: HashMap<Key, Slot>,
    /// Insertion order for FIFO eviction. Keys are pushed only on fresh
    /// insert (refills update in place), so the queue length tracks the
    /// map size.
    fifo: VecDeque<Key>,
}

/// Outcome of a cache insert (for telemetry).
pub(crate) struct InsertOutcome {
    /// Number of entries evicted to make room.
    pub evicted: u64,
}

/// Outcome of a scoped delta invalidation (for telemetry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct RetentionOutcome {
    /// Entries that provably survived the graph change.
    pub retained: u64,
    /// Entries evicted because their ball may contain the churn.
    pub evicted: u64,
}

/// Sharded, bounded, version-keyed hop-distance cache.
pub(crate) struct ResolveCache {
    shards: Vec<Mutex<Shard>>,
    /// Total capacity across shards; 0 disables the cache entirely.
    capacity: Mutex<usize>,
    /// [`CsrGraph::generation`] of the graph the cached hops were computed
    /// on; `None` until the first traversal.
    graph_gen: Mutex<Option<u64>>,
}

impl ResolveCache {
    pub(crate) fn new(capacity: usize) -> ResolveCache {
        ResolveCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            capacity: Mutex::new(capacity),
            graph_gen: Mutex::new(None),
        }
    }

    fn shard(&self, key: &Key) -> &Mutex<Shard> {
        // Requester id spreads batch workloads; dataset id decorrelates a
        // single hot requester fanning over many datasets.
        let h = (key.0 .0 as usize).wrapping_mul(0x9E37_79B9) ^ (key.1 .0 as usize);
        &self.shards[h % SHARDS]
    }

    /// Current total capacity (0 = disabled).
    pub(crate) fn capacity(&self) -> usize {
        *self.capacity.lock()
    }

    /// Drop every slot; returns how many there were.
    pub(crate) fn clear(&self) -> u64 {
        let mut dropped = 0;
        for shard in &self.shards {
            let mut s = shard.lock();
            dropped += s.map.len() as u64;
            s.map.clear();
            s.fifo.clear();
        }
        dropped
    }

    /// Resize the cache; shrinking (or disabling) drops everything.
    pub(crate) fn set_capacity(&self, capacity: usize) {
        let mut cap = self.capacity.lock();
        if capacity < *cap {
            self.clear();
        }
        *cap = capacity;
    }

    /// Flush the cache if `csr` is not the snapshot the cached hops were
    /// computed on (first call just records the generation). A churned
    /// graph that went through [`apply_delta`](ResolveCache::apply_delta)
    /// already announced its new generation and keeps its survivors; any
    /// *unannounced* generation change is an unknown graph swap and drops
    /// everything.
    pub(crate) fn ensure_graph(&self, csr: &CsrGraph) {
        let generation = csr.generation();
        let mut cur = self.graph_gen.lock();
        if *cur != Some(generation) {
            if cur.is_some() {
                self.clear();
            }
            *cur = Some(generation);
        }
    }

    /// Scoped invalidation for a graph change `old → new` produced by
    /// [`CsrGraph::apply_delta`]: evict only the slots whose ball can
    /// contain a touched node (see the module docs for the proof), retain
    /// everything else, and adopt `new`'s generation so subsequent
    /// [`ensure_graph`](ResolveCache::ensure_graph) calls leave the
    /// survivors alone.
    ///
    /// Falls back to a wholesale flush when `old` is not the announced
    /// snapshot or `new` carries no delta summary (not produced by
    /// `apply_delta`). A delta that provably changed no hop distance
    /// (weight-only reinforcement, isolated activation) retains every
    /// slot without any traversal.
    pub(crate) fn apply_delta(
        &self,
        old: &CsrGraph,
        new: &CsrGraph,
        scratch: &mut TraversalScratch,
    ) -> RetentionOutcome {
        let mut out = RetentionOutcome::default();
        let mut cur = self.graph_gen.lock();
        let announced = *cur == Some(old.generation()) || cur.is_none();
        *cur = Some(new.generation());
        match new.last_delta() {
            Some(summary) if announced && summary.distances_unchanged() => {
                out.retained = self.shards.iter().map(|s| s.lock().map.len() as u64).sum();
            }
            Some(summary) if announced => {
                // One bounded multi-source BFS per side: distance from the
                // touched set to every node within FRONTIER_DEPTH hops.
                scratch.bfs_bounded(old, &summary.touched, FRONTIER_DEPTH);
                let old_frontier: Vec<u32> = scratch.distances().to_vec();
                scratch.bfs_bounded(new, &summary.touched, FRONTIER_DEPTH);
                let fence = |dists: &[u32], q: NodeId| match dists.get(q.index()) {
                    Some(&d) if d != UNVISITED => d,
                    // Unreached within the cap: farther than FRONTIER_DEPTH.
                    _ => FRONTIER_DEPTH + 1,
                };
                for shard in &self.shards {
                    let mut sh = shard.lock();
                    sh.map.retain(|&(requester, _), slot| {
                        let keep = slot.radius < fence(&old_frontier, requester)
                            && slot.radius < fence(scratch.distances(), requester);
                        if keep {
                            out.retained += 1;
                        } else {
                            out.evicted += 1;
                        }
                        keep
                        // Evicted keys stay in the FIFO as ghosts; pops
                        // tolerate them, so order bookkeeping stays O(1).
                    });
                }
            }
            _ => out.evicted = self.clear(),
        }
        out
    }

    /// Run `f` over the cached hops for `key` if a slot computed at
    /// `version` exists *and* answers under the current `online` mask and
    /// hop `budget`; `None` is a miss (absent, stale, or undecided).
    /// `replicas` is the entry's replica list at `version`.
    pub(crate) fn with_hops<R>(
        &self,
        key: Key,
        version: u64,
        replicas: &[NodeId],
        online: impl Fn(NodeId) -> bool,
        budget: u32,
        f: impl FnOnce(&[Option<u32>]) -> R,
    ) -> Option<R> {
        let shard = self.shard(&key).lock();
        match shard.map.get(&key) {
            Some(slot) if slot.version == version && slot.answers(replicas, online, budget) => {
                Some(f(&slot.hops))
            }
            _ => None,
        }
    }

    /// Insert (or refill) the slot for `key`, evicting FIFO past the
    /// capacity share. No-op when the cache is disabled.
    pub(crate) fn insert(&self, key: Key, slot: Slot) -> InsertOutcome {
        let capacity = self.capacity();
        let mut outcome = InsertOutcome { evicted: 0 };
        if capacity == 0 {
            return outcome;
        }
        let per_shard = capacity.div_ceil(SHARDS).max(1);
        let mut shard = self.shard(&key).lock();
        // A `Some` return is an in-place refill: the FIFO slot pushed at
        // first insert is kept, so no eviction check is needed.
        let fresh = shard.map.insert(key, slot).is_none();
        if fresh {
            while shard.map.len() > per_shard {
                let Some(old) = shard.fifo.pop_front() else {
                    break;
                };
                if shard.map.remove(&old).is_some() {
                    outcome.evicted += 1;
                }
            }
            shard.fifo.push_back(key);
        }
        outcome
    }

    /// A copy of the slot cached for `key`, if any (diagnostic surface).
    pub(crate) fn slot(&self, key: Key) -> Option<Slot> {
        self.shard(&key).lock().map.get(&key).cloned()
    }

    /// Number of cached entries (test/diagnostic surface).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdn_graph::{Graph, GraphDelta};

    fn key(r: u32, d: u32) -> Key {
        (NodeId(r), DatasetId(d))
    }

    /// 0 — 1 — 2 — … — (n-1)
    fn line(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n - 1 {
            g.add_edge(NodeId(i as u32), NodeId(i as u32 + 1), 1);
        }
        g
    }

    /// A slot filled under the unlimited budget.
    fn slot(version: u64, radius: u32, hops: &[Option<u32>]) -> Slot {
        Slot {
            version,
            budget: u32::MAX,
            radius,
            hops: hops.to_vec().into_boxed_slice(),
        }
    }

    /// Replica node ids `0..n` (parallel to a slot's hops).
    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn cached(c: &ResolveCache, k: Key, version: u64, n: u32) -> Option<Vec<Option<u32>>> {
        c.with_hops(
            k,
            version,
            &nodes(n),
            |_| true,
            u32::MAX,
            <[Option<u32>]>::to_vec,
        )
    }

    #[test]
    fn hit_requires_matching_version() {
        let c = ResolveCache::new(64);
        c.insert(key(1, 2), slot(7, 1, &[Some(1), None]));
        assert_eq!(cached(&c, key(1, 2), 7, 2), Some(vec![Some(1), None]));
        assert!(cached(&c, key(1, 2), 8, 2).is_none(), "stale version");
        assert!(cached(&c, key(1, 3), 7, 2).is_none(), "absent key");
    }

    #[test]
    fn capacity_zero_disables() {
        let c = ResolveCache::new(0);
        c.insert(key(1, 1), slot(1, 0, &[Some(0)]));
        assert!(cached(&c, key(1, 1), 1, 1).is_none());
    }

    #[test]
    fn eviction_is_bounded_fifo() {
        let c = ResolveCache::new(SHARDS); // one slot per shard
        let mut evicted = 0;
        for i in 0..64u32 {
            evicted += c.insert(key(i, 0), slot(1, 1, &[Some(1)])).evicted;
        }
        assert!(c.len() <= SHARDS, "len {} > {}", c.len(), SHARDS);
        assert!(evicted >= 64 - SHARDS as u64);
    }

    #[test]
    fn refresh_updates_in_place() {
        let c = ResolveCache::new(64);
        c.insert(key(4, 4), slot(1, 3, &[Some(3)]));
        c.insert(key(4, 4), slot(2, 5, &[Some(5)]));
        assert_eq!(c.len(), 1);
        assert_eq!(cached(&c, key(4, 4), 2, 1), Some(vec![Some(5)]));
    }

    #[test]
    fn shrinking_capacity_flushes() {
        let c = ResolveCache::new(64);
        c.insert(key(1, 1), slot(1, 1, &[Some(1)]));
        c.set_capacity(8);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn unannounced_generation_change_flushes() {
        let g = line(4);
        let a = CsrGraph::from(&g);
        let b = CsrGraph::from(&g); // structurally identical, new generation
        let c = ResolveCache::new(64);
        c.ensure_graph(&a);
        c.insert(key(1, 1), slot(1, 1, &[Some(1)]));
        c.ensure_graph(&a);
        assert_eq!(c.len(), 1, "same snapshot keeps entries");
        c.ensure_graph(&b);
        assert_eq!(c.len(), 0, "generation change flushes even at equal shape");
    }

    #[test]
    fn delta_scoped_eviction_retains_far_entries_only() {
        let mut g = line(10);
        let old = CsrGraph::from(&g);
        let c = ResolveCache::new(64);
        c.ensure_graph(&old);
        // Requester 0, radius 1: far from the churn at 7—8.
        c.insert(key(0, 1), slot(1, 1, &[Some(1)]));
        // Requester 0, radius 9: its ball spans the churned edge.
        c.insert(key(0, 2), slot(1, 9, &[Some(9)]));
        // Exhausted component: always evicted regardless of distance.
        c.insert(key(1, 3), slot(1, u32::MAX, &[Some(1), None]));

        let mut d = GraphDelta::new();
        d.remove_edge(NodeId(7), NodeId(8));
        let new = old.apply_delta(&d);
        d.apply_to(&mut g);

        let mut scratch = TraversalScratch::new();
        let out = c.apply_delta(&old, &new, &mut scratch);
        assert_eq!(out.retained, 1);
        assert_eq!(out.evicted, 2);
        assert!(cached(&c, key(0, 1), 1, 1).is_some());
        assert!(cached(&c, key(0, 2), 1, 1).is_none());
        assert!(cached(&c, key(1, 3), 1, 2).is_none());
        // The new generation is adopted: no flush on the next resolve.
        c.ensure_graph(&new);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn weight_only_delta_retains_everything() {
        let mut g = line(6);
        let old = CsrGraph::from(&g);
        let c = ResolveCache::new(64);
        c.ensure_graph(&old);
        c.insert(key(0, 1), slot(1, 5, &[Some(5)]));
        c.insert(key(3, 2), slot(1, 2, &[Some(2), None]));

        let mut d = GraphDelta::new();
        d.add_edge(NodeId(2), NodeId(3), 9); // reinforce an existing edge
        let new = old.apply_delta(&d);
        d.apply_to(&mut g);

        let mut scratch = TraversalScratch::new();
        let out = c.apply_delta(&old, &new, &mut scratch);
        assert_eq!(out.retained, 2, "hop distances provably unchanged");
        assert_eq!(out.evicted, 0);
    }

    #[test]
    fn delta_from_unknown_snapshot_flushes() {
        let g = line(5);
        let a = CsrGraph::from(&g);
        let b = CsrGraph::from(&g);
        let c = ResolveCache::new(64);
        c.ensure_graph(&a);
        c.insert(key(0, 1), slot(1, 1, &[Some(1)]));
        let mut d = GraphDelta::new();
        d.add_edge(NodeId(0), NodeId(4), 1);
        let new = b.apply_delta(&d); // delta over a snapshot we never saw
        let mut scratch = TraversalScratch::new();
        let out = c.apply_delta(&b, &new, &mut scratch);
        assert_eq!(out.retained, 0);
        assert_eq!(out.evicted, 1);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn slot_answers_only_when_its_ball_decides_the_selection() {
        let c = ResolveCache::new(64);
        // Replicas 0, 1, 2: only replica 0 lies inside the radius-2 ball.
        c.insert(key(9, 1), slot(1, 2, &[Some(2), None, None]));
        let replicas = nodes(3);
        let ask = |online: &dyn Fn(NodeId) -> bool, budget: u32| {
            c.with_hops(key(9, 1), 1, &replicas, online, budget, |_| ())
                .is_some()
        };
        assert!(ask(&|_| true, u32::MAX), "known replica online");
        assert!(ask(&|n| n.0 == 0, u32::MAX));
        assert!(
            !ask(&|n| n.0 != 0, u32::MAX),
            "only unknown replicas online: one may be nearer than a full BFS says"
        );
        assert!(!ask(&|_| false, u32::MAX));
        // The slot answers only under the budget it was filled with.
        assert!(!ask(&|_| true, 2));
        let mut clipped = slot(1, 2, &[None, None, None]);
        clipped.budget = 2;
        c.insert(key(9, 2), clipped);
        let covered = c
            .with_hops(key(9, 2), 1, &replicas, |_| true, 2, |_| ())
            .is_some();
        assert!(covered, "radius reaches the budget: every verdict is exact");
        // An exhausted component decides every mask.
        c.insert(key(9, 3), slot(1, u32::MAX, &[None, None, None]));
        let exhausted = c
            .with_hops(key(9, 3), 1, &replicas, |n| n.0 == 2, u32::MAX, |_| ())
            .is_some();
        assert!(exhausted);
    }

    #[test]
    fn unreached_replicas_in_a_far_ball_are_retained() {
        let mut g = line(10);
        let old = CsrGraph::from(&g);
        let c = ResolveCache::new(64);
        c.ensure_graph(&old);
        // Requester 1, radius 1, one replica outside the ball: the churn
        // at 7—8 is 6 hops away, so the ball (and its verdicts) survive.
        c.insert(key(1, 3), slot(1, 1, &[Some(1), None]));
        let mut d = GraphDelta::new();
        d.remove_edge(NodeId(7), NodeId(8));
        let new = old.apply_delta(&d);
        d.apply_to(&mut g);
        let mut scratch = TraversalScratch::new();
        let out = c.apply_delta(&old, &new, &mut scratch);
        assert_eq!((out.retained, out.evicted), (1, 0));
        assert_eq!(cached(&c, key(1, 3), 1, 2), Some(vec![Some(1), None]));
    }
}
