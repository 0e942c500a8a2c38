//! A sharded LRU answer cache for the online serving path.
//!
//! Shortest-path workloads on social and web graphs are heavily skewed —
//! a small set of (celebrity, celebrity) pairs dominates the traffic — so
//! an answer cache in front of the engine converts the hottest queries
//! into hash lookups. The design points:
//!
//! * **Keyed on normalised `(u, v, mode)`.** Distance is symmetric
//!   (`d(u, v) = d(v, u)`), so both orientations share one entry; path
//!   graphs and sketches record their orientation (source/target, hop
//!   direction, search statistics), so each direction caches separately —
//!   that is what keeps a cache hit *bit-identical* to a fresh answer.
//! * **Sketch-upper-bound admission hints.** Every execution already
//!   computes the landmark upper bound `d⊤ ≥ d_G(u, v)` (Corollary 4.6);
//!   it is a free, conservative proxy for how much search the answer cost.
//!   Answers whose `d⊤` falls below [`CacheConfig::admission_threshold`]
//!   are *not* admitted: an adjacent pair re-computes in microseconds and
//!   would only evict entries worth keeping.
//! * **Sharded LRU.** Keys hash onto [`CacheConfig::shards`] independent
//!   mutex-protected shards, each an intrusive doubly-linked LRU over a
//!   slab — engine workers on different shards never contend.
//!
//! The cache stores the canonical answer body (path-graph entries keep
//! their sketch and statistics), so one entry serves stats and non-stats
//! requests alike; per-request shaping happens on the way out, exactly as
//! on the fresh path.
//!
//! Keys carry **no store identity**: a cache is only valid for one
//! logical index. Share one (via `Arc`) across engines over the *same*
//! index — never across different graphs or landmark sets.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use qbs_graph::{Distance, VertexId};

use crate::request::{AnswerBody, QueryMode, QueryOutcome, QueryRequest};

/// Configuration of an [`AnswerCache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Target number of cached answers across all shards. The per-shard
    /// budget is `ceil(capacity / shards)`, so the enforced total is
    /// rounded **up** to the next multiple of the shard count — size
    /// memory budgets against `shards * ceil(capacity / shards)`.
    pub capacity: usize,
    /// Number of independent LRU shards (clamped to at least 1 and at most
    /// `capacity`).
    pub shards: usize,
    /// Minimum sketch upper bound `d⊤` an answer needs to be admitted.
    /// `0` admits everything; the default of `2` keeps trivially cheap
    /// answers (same-vertex and label-adjacent pairs) out of the cache.
    pub admission_threshold: Distance,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 8_192,
            shards: 8,
            admission_threshold: 2,
        }
    }
}

impl CacheConfig {
    /// A config with the given total capacity and default sharding and
    /// admission policy.
    pub fn with_capacity(capacity: usize) -> Self {
        CacheConfig {
            capacity,
            ..CacheConfig::default()
        }
    }

    /// Sets the admission threshold (minimum `d⊤`).
    pub fn admit_above(mut self, threshold: Distance) -> Self {
        self.admission_threshold = threshold;
        self
    }
}

/// Counter snapshot of a cache (see [`AnswerCache::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Answers admitted into the cache.
    pub insertions: u64,
    /// Answers refused by the admission policy.
    pub rejected: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries currently cached.
    pub len: usize,
}

impl CacheStats {
    /// Hit fraction of all lookups (0 when no lookups happened).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Cache key: normalised endpoints plus the query mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct CacheKey {
    u: VertexId,
    v: VertexId,
    mode: QueryMode,
}

impl CacheKey {
    /// Distance answers are orientation-free, so their key is the sorted
    /// pair; path-graph and sketch answers keep their orientation (their
    /// payloads record source/target, so serving a reversed hit would not
    /// be bit-identical).
    fn for_request(req: &QueryRequest) -> CacheKey {
        let (u, v) = match req.mode {
            QueryMode::Distance => (req.source.min(req.target), req.source.max(req.target)),
            QueryMode::PathGraph | QueryMode::Sketch => (req.source, req.target),
        };
        CacheKey {
            u,
            v,
            mode: req.mode,
        }
    }

    fn shard_of(&self, shards: usize) -> usize {
        let mut hasher = DefaultHasher::new();
        self.hash(&mut hasher);
        (hasher.finish() as usize) % shards
    }
}

/// Slab slot of one shard's intrusive LRU list. The body is behind an
/// `Arc` so a hit clones a pointer under the shard mutex and the (possibly
/// large) answer clone happens after the lock is released — concurrent
/// readers of one hot key never serialise on the deep copy.
struct Node {
    key: CacheKey,
    body: Arc<AnswerBody>,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

/// One mutex-protected LRU shard: a slab of nodes threaded into a
/// doubly-linked recency list plus a key → slot map. All operations are
/// `O(1)`.
struct Shard {
    map: HashMap<CacheKey, usize>,
    slab: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
    evictions: u64,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            map: HashMap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            evictions: 0,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        match prev {
            NIL => self.head = next,
            p => self.slab[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n].prev = prev,
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn touch(&mut self, idx: usize) {
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    fn get(&mut self, key: &CacheKey) -> Option<Arc<AnswerBody>> {
        let idx = *self.map.get(key)?;
        self.touch(idx);
        Some(Arc::clone(&self.slab[idx].body))
    }

    fn insert(&mut self, key: CacheKey, body: Arc<AnswerBody>) {
        if let Some(&idx) = self.map.get(&key) {
            // Same key computed twice (e.g. two workers racing the same
            // miss): refresh the entry.
            self.slab[idx].body = body;
            self.touch(idx);
            return;
        }
        if self.capacity == 0 {
            return;
        }
        if self.map.len() >= self.capacity {
            let lru = self.tail;
            self.unlink(lru);
            let old = self.slab[lru].key;
            self.map.remove(&old);
            self.free.push(lru);
            self.evictions += 1;
        }
        let idx = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Node {
                    key,
                    body,
                    prev: NIL,
                    next: NIL,
                };
                slot
            }
            None => {
                self.slab.push(Node {
                    key,
                    body,
                    prev: NIL,
                    next: NIL,
                });
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// A thread-safe, sharded LRU cache of query answers (see the module docs
/// for the key, admission and identity rules).
pub struct AnswerCache {
    shards: Vec<Mutex<Shard>>,
    admission_threshold: Distance,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    rejected: AtomicU64,
}

impl std::fmt::Debug for AnswerCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnswerCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl AnswerCache {
    /// Creates a cache from a configuration. Shard count is clamped into
    /// `1..=capacity.max(1)`; capacity is split evenly across shards (each
    /// shard holds at least one entry when the total capacity is nonzero).
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.clamp(1, config.capacity.max(1));
        let per_shard = if config.capacity == 0 {
            0
        } else {
            config.capacity.div_ceil(shards)
        };
        AnswerCache {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            admission_threshold: config.admission_threshold,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        &self.shards[key.shard_of(self.shards.len())]
    }

    /// Looks the request up, shaping a hit into the outcome the request
    /// asked for. Counts a hit or a miss. The critical section is `O(1)`:
    /// only the `Arc` handle is cloned under the shard lock; the answer
    /// itself is shaped (cloned) after the lock is released.
    pub(crate) fn lookup(&self, req: &QueryRequest) -> Option<QueryOutcome> {
        let key = CacheKey::for_request(req);
        let body = {
            let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
            shard.get(&key)
        };
        match &body {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        body.map(|body| body.shape(&req.opts))
    }

    /// Offers a freshly computed answer for admission. `hint` is the
    /// query's sketch upper bound `d⊤`; answers below the admission
    /// threshold are rejected (counted, not stored). The deep copy of the
    /// body happens before the shard lock is taken.
    pub(crate) fn admit(&self, req: &QueryRequest, body: &AnswerBody, hint: Distance) {
        if hint < self.admission_threshold {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let key = CacheKey::for_request(req);
        let body = Arc::new(body.clone());
        let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
        shard.insert(key, body);
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached entry (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache shard poisoned").clear();
        }
    }

    /// A consistent snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            evictions: self
                .shards
                .iter()
                .map(|s| s.lock().expect("cache shard poisoned").evictions)
                .sum(),
            len: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryAnswer;
    use crate::search::SearchStats;
    use crate::sketch::Sketch;
    use crate::workspace::QueryWorkspace;
    use crate::{QbsConfig, QbsIndex};
    use qbs_graph::fixtures::figure4_graph;
    use qbs_graph::PathGraph;

    fn index() -> QbsIndex {
        QbsIndex::build(
            figure4_graph(),
            QbsConfig::with_explicit_landmarks(vec![1, 2, 3]),
        )
    }

    fn distance_body(d: Distance) -> AnswerBody {
        AnswerBody::Distance(d)
    }

    #[test]
    fn hits_are_bit_identical_to_fresh_answers() {
        let index = index();
        let cache = AnswerCache::new(CacheConfig::default().admit_above(0));
        let mut ws = QueryWorkspace::new();
        for mode in QueryMode::ALL {
            for opts in [
                QueryRequest::new(6, 11, mode),
                QueryRequest::new(6, 11, mode).with_stats(),
            ] {
                let fresh = index.execute_with(&mut ws, &opts, None);
                let miss_then_fill = index.execute_with(&mut ws, &opts, Some(&cache));
                let hit = index.execute_with(&mut ws, &opts, Some(&cache));
                assert_eq!(fresh, miss_then_fill, "{mode} fill");
                assert_eq!(fresh, hit, "{mode} hit");
            }
        }
        assert!(cache.stats().hits >= 3, "{:?}", cache.stats());
    }

    #[test]
    fn distance_keys_are_symmetric_but_path_keys_are_not() {
        let index = index();
        let cache = AnswerCache::new(CacheConfig::default().admit_above(0));
        let mut ws = QueryWorkspace::new();
        index.execute_with(&mut ws, &QueryRequest::distance(6, 11), Some(&cache));
        let before = cache.stats();
        let reversed = index.execute_with(&mut ws, &QueryRequest::distance(11, 6), Some(&cache));
        assert_eq!(reversed.distance(), Some(5));
        assert_eq!(cache.stats().hits, before.hits + 1, "distance is symmetric");

        index.execute_with(&mut ws, &QueryRequest::path_graph(6, 11), Some(&cache));
        let before = cache.stats();
        let rev = index.execute_with(&mut ws, &QueryRequest::path_graph(11, 6), Some(&cache));
        assert_eq!(
            cache.stats().misses,
            before.misses + 1,
            "paths keep direction"
        );
        assert_eq!(rev.path_graph().unwrap().source(), 11);
    }

    #[test]
    fn admission_threshold_rejects_cheap_answers() {
        let index = index();
        // Figure 4: d(4, 2) = 1 with landmark 2 adjacent, so d⊤ = 1.
        let cache = AnswerCache::new(CacheConfig::default().admit_above(3));
        let mut ws = QueryWorkspace::new();
        let cheap = QueryRequest::distance(4, 2);
        index.execute_with(&mut ws, &cheap, Some(&cache));
        assert_eq!(cache.len(), 0, "cheap answer not admitted");
        assert_eq!(cache.stats().rejected, 1);

        let costly = QueryRequest::distance(6, 11); // d⊤ = 5
        index.execute_with(&mut ws, &costly, Some(&cache));
        assert_eq!(cache.len(), 1, "costly answer admitted");
        assert_eq!(cache.stats().insertions, 1);
    }

    /// A trivial pair needs no search: it hints 0 in every mode, so the
    /// default threshold keeps it out, and its sketch is the one its path
    /// graph carries.
    #[test]
    fn default_config_rejects_trivial_pairs() {
        let index = index();
        let cache = AnswerCache::new(CacheConfig::default());
        let mut ws = QueryWorkspace::new();
        for v in [1, 6] {
            let path = index.execute_with(
                &mut ws,
                &QueryRequest::path_graph(v, v).with_stats(),
                Some(&cache),
            );
            assert_eq!(cache.len(), 0, "path graph of ({v}, {v}) admitted");
            let sketch = index.execute_with(&mut ws, &QueryRequest::sketch(v, v), Some(&cache));
            assert_eq!(sketch.sketch(), path.sketch(), "sketch of ({v}, {v})");
            index.execute_with(&mut ws, &QueryRequest::distance(v, v), Some(&cache));
        }
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().rejected, 6);
    }

    #[test]
    fn uncached_requests_bypass_the_cache() {
        let index = index();
        let cache = AnswerCache::new(CacheConfig::default().admit_above(0));
        let mut ws = QueryWorkspace::new();
        let req = QueryRequest::distance(6, 11).uncached();
        index.execute_with(&mut ws, &req, Some(&cache));
        index.execute_with(&mut ws, &req, Some(&cache));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (0, 0, 0));
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let mut shard = Shard::new(3);
        let key = |u: VertexId| CacheKey {
            u,
            v: u + 1,
            mode: QueryMode::Distance,
        };
        for u in 0..3 {
            shard.insert(key(u), Arc::new(distance_body(u)));
        }
        // Touch 0 so 1 becomes the LRU victim.
        assert_eq!(shard.get(&key(0)).as_deref(), Some(&distance_body(0)));
        shard.insert(key(3), Arc::new(distance_body(3)));
        assert_eq!(shard.map.len(), 3);
        assert!(shard.get(&key(1)).is_none(), "1 was evicted");
        assert!(shard.get(&key(0)).is_some());
        assert!(shard.get(&key(2)).is_some());
        assert!(shard.get(&key(3)).is_some());
        assert_eq!(shard.evictions, 1);

        // Re-inserting an existing key refreshes instead of duplicating.
        shard.insert(key(2), Arc::new(distance_body(99)));
        assert_eq!(shard.map.len(), 3);
        assert_eq!(shard.get(&key(2)).as_deref(), Some(&distance_body(99)));
    }

    #[test]
    fn capacity_is_enforced_across_shards() {
        let cache = AnswerCache::new(CacheConfig {
            capacity: 16,
            shards: 4,
            admission_threshold: 0,
        });
        let answer = AnswerBody::PathGraph(Box::new(QueryAnswer {
            path_graph: PathGraph::trivial(0),
            sketch: Sketch::unreachable(0, 0),
            stats: SearchStats::default(),
        }));
        for u in 0..200u32 {
            let req = QueryRequest::path_graph(u, u + 1);
            cache.admit(&req, &answer, 10);
        }
        // div_ceil split: every shard holds at most capacity/shards entries.
        assert!(cache.len() <= 16, "len = {}", cache.len());
        assert!(cache.stats().evictions >= 184 - 16, "{:?}", cache.stats());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().len, 0);
    }

    #[test]
    fn degenerate_configs_are_safe() {
        // Zero capacity: never stores, never panics.
        let cache = AnswerCache::new(CacheConfig {
            capacity: 0,
            shards: 8,
            admission_threshold: 0,
        });
        cache.admit(&QueryRequest::distance(0, 1), &distance_body(1), 10);
        assert!(cache.is_empty());
        assert!(cache.lookup(&QueryRequest::distance(0, 1)).is_none());

        // More shards than capacity: clamped.
        let cache = AnswerCache::new(CacheConfig {
            capacity: 2,
            shards: 64,
            admission_threshold: 0,
        });
        cache.admit(&QueryRequest::distance(0, 1), &distance_body(1), 10);
        assert_eq!(cache.len(), 1);
        assert!(format!("{cache:?}").contains("stats"));
        assert_eq!(CacheConfig::with_capacity(7).capacity, 7);
        assert!(CacheStats::default().hit_ratio() == 0.0);
    }
}
