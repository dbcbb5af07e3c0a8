//! Generation-aware prediction cache for the VMIS-kNN hot path.
//!
//! The depersonalised mode (Section 4.2) predicts from only the currently
//! displayed item, and e-commerce traffic is heavily popularity-skewed — a
//! large fraction of requests recompute the exact same VMIS-kNN answer
//! against an index that only changes at the daily rollover. This module
//! caches *completed pre-policy recommendation lists* keyed by
//! `(item, variant-view)` for the request shapes whose prediction input is
//! exactly one item: depersonalised requests (either variant) and
//! consented `Recent`-variant requests, whose view is the current item
//! alone by definition.
//!
//! ## What is (deliberately) not cached
//!
//! Cached lists are the raw kernel output *before* business-rule filtering:
//! `filter_adult` is per-user, so policy runs on every request, cached or
//! not, and a consenting user's filter choice can never leak into another
//! user's response. `Hist`-variant consented requests depend on the whole
//! evolving session and are not cacheable by item.
//!
//! ## Generation invalidation
//!
//! Every entry is stamped with the [`IndexHandle`] generation that the
//! index which computed it was published with
//! ([`IndexHandle::load_with_generation`] reads both under one lock). A
//! lookup supplies the current generation; an entry with any other stamp is
//! a miss (and is eagerly evicted). The daily rollover and every ingest
//! mini-publish therefore invalidate the whole cache implicitly — by
//! bumping the generation, not by touching entries — and once a request
//! observes a new generation it can only be served lists computed on that
//! generation's index, bit for bit what the kernel would answer. No entry
//! outlives a publish: after one, every entry misses once.
//! `tests/loom_models.rs` model-checks this claim and kills the
//! `mutation-skip-generation-check` seeded mutation that drops the stamp
//! comparison.
//!
//! ## Structure
//!
//! [`GenerationCache`] is the pure, generic layer: hash-sharded, each shard
//! a mutex around a bounded CLOCK ring (second-chance eviction — the cheap
//! LRU approximation). There is no global lock: a hit touches exactly one
//! shard mutex, held for a map probe and a flag store. [`PredictionCache`]
//! wraps it with the telemetry the `/metrics` endpoint exposes
//! (`serenade_cache_*`). The split keeps the concurrency-relevant part
//! small enough for the model checker.
//!
//! [`IndexHandle`]: crate::handle::IndexHandle
//! [`IndexHandle::load_with_generation`]: crate::handle::IndexHandle::load_with_generation

use std::hash::{Hash, Hasher};
use std::sync::{Arc, PoisonError};
use std::time::Duration;

use serenade_core::{FxHashMap, ItemId, ItemScore};
use serenade_telemetry::{Counter, Histogram, HistogramConfig, Registry};

use crate::sync::Mutex;

/// Which single-item view a cached list was computed for. The two variants
/// of the A/B test weigh the view identically only by accident of config;
/// keying on the kind keeps their entries separate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViewKind {
    /// Depersonalised request: the view is the displayed item, regardless
    /// of variant.
    Depersonalised,
    /// Consented `Recent`-variant request: the view is the most recent
    /// (i.e. current) item by variant definition.
    Recent,
}

/// Cache key: the single item the prediction runs on, plus the view kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The item the single-item view consists of.
    pub item: ItemId,
    /// How the request arrived at that view.
    pub view: ViewKind,
}

/// A completed pre-policy recommendation list, shared between the cache and
/// concurrent readers without copying the items.
pub type CachedList = Arc<Vec<ItemScore>>;

/// Outcome of a generation-checked lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup<V> {
    /// Entry present and stamped with the requested generation.
    Hit(V),
    /// Entry present but stamped with a different generation — the index
    /// rolled over since it was computed. The entry has been evicted.
    Stale,
    /// No entry for this key.
    Miss,
}

/// One CLOCK slot: a keyed value stamped with the publication generation it
/// was computed under, plus the second-chance reference bit.
#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    generation: u64,
    value: V,
    referenced: bool,
}

/// One shard: an index map over a bounded CLOCK ring.
#[derive(Debug)]
struct Shard<K, V> {
    /// Key → position in `slots`. Every mapped position holds `Some`.
    map: FxHashMap<K, usize>,
    slots: Vec<Option<Slot<K, V>>>,
    hand: usize,
}

impl<K, V> Shard<K, V> {
    fn new(capacity: usize) -> Self {
        Self { map: FxHashMap::default(), slots: Vec::with_capacity(capacity), hand: 0 }
    }
}

/// The pure sharded generation-stamped cache. `PredictionCache` is the
/// production wrapper; the loom model instantiates this layer directly
/// (with `V = u64`) to keep the schedule space tractable.
#[derive(Debug)]
pub struct GenerationCache<K, V> {
    shards: Box<[Mutex<Shard<K, V>>]>,
    capacity_per_shard: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> GenerationCache<K, V> {
    /// Creates a cache of `shards` independent CLOCK rings holding at most
    /// `capacity_per_shard` entries each. Zero values are clamped to 1.
    pub fn new(shards: usize, capacity_per_shard: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::new(capacity_per_shard))).collect(),
            capacity_per_shard: capacity_per_shard.max(1),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<Shard<K, V>> {
        // std's SipHash with fixed keys: deterministic across threads and
        // runs, and independent from the FxHash the in-shard maps use.
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        // Invariant: `shards` is non-empty (constructor clamps), so the
        // modulo result is always in range.
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    /// Looks `key` up under `generation`. A present entry with a different
    /// stamp is reported [`Lookup::Stale`] and eagerly evicted: after a
    /// rollover, old entries die on first touch instead of occupying slots
    /// until the CLOCK hand reclaims them.
    pub fn get(&self, key: &K, generation: u64) -> Lookup<V> {
        let mut shard = self.shard(key).lock().unwrap_or_else(PoisonError::into_inner);
        let Some(&idx) = shard.map.get(key) else {
            return Lookup::Miss;
        };
        // Invariant: mapped positions always hold `Some` (insert/evict keep
        // the map and the ring in lockstep under the shard lock).
        let entry_generation = match shard.slots[idx].as_ref() {
            Some(slot) => slot.generation,
            None => return Lookup::Miss,
        };
        #[cfg(not(feature = "mutation-skip-generation-check"))]
        if entry_generation != generation {
            shard.slots[idx] = None;
            shard.map.remove(key);
            return Lookup::Stale;
        }
        #[cfg(feature = "mutation-skip-generation-check")]
        // seeded mutation: serve regardless
        let _ = (entry_generation, generation);
        match shard.slots[idx].as_mut() {
            Some(slot) => {
                slot.referenced = true;
                Lookup::Hit(slot.value.clone())
            }
            None => Lookup::Miss,
        }
    }

    /// Inserts (or overwrites) `key` with a value stamped `generation`.
    /// Returns `true` when a *different* live entry was evicted to make
    /// room (the CLOCK second-chance sweep).
    pub fn insert(&self, key: K, generation: u64, value: V) -> bool {
        let mut shard = self.shard(&key).lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&idx) = shard.map.get(&key) {
            shard.slots[idx] =
                Some(Slot { key, generation, value, referenced: true });
            return false;
        }
        if shard.slots.len() < self.capacity_per_shard {
            let idx = shard.slots.len();
            shard.slots.push(Some(Slot { key: key.clone(), generation, value, referenced: false }));
            shard.map.insert(key, idx);
            return false;
        }
        // CLOCK sweep: clear reference bits until an unreferenced (or
        // empty) slot turns up. Bounded: after one full revolution every
        // bit is clear, so the second revolution must stop.
        let len = shard.slots.len();
        for _ in 0..2 * len {
            let hand = shard.hand;
            shard.hand = (hand + 1) % len;
            match shard.slots[hand].as_mut() {
                None => {
                    shard.slots[hand] =
                        Some(Slot { key: key.clone(), generation, value, referenced: false });
                    shard.map.insert(key, hand);
                    return false;
                }
                Some(slot) if slot.referenced => slot.referenced = false,
                Some(slot) => {
                    let old_key = slot.key.clone();
                    shard.map.remove(&old_key);
                    shard.slots[hand] =
                        Some(Slot { key: key.clone(), generation, value, referenced: false });
                    shard.map.insert(key, hand);
                    return true;
                }
            }
        }
        // Unreachable with len ≥ 1; kept total so no arm can panic.
        false
    }

    /// Number of live entries across all shards (locks each shard once —
    /// observability only, not a hot-path call).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).map.len()).sum()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Independently locked shards of the prediction cache.
const CACHE_SHARDS: usize = 8;

/// Bounded CLOCK capacity of one shard. 8 shards × 512 entries ≈ 4k
/// distinct single-item views — far more than the hot head of a
/// Zipf-distributed catalogue needs.
const CACHE_CAPACITY_PER_SHARD: usize = 512;

/// The serving-layer prediction cache's switch. Its size is fixed:
/// 8 shards of 512 entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Master switch; `false` makes the engine bypass caching entirely.
    pub enabled: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self { enabled: true }
    }
}

/// The production prediction cache: a [`GenerationCache`] over
/// `(item, view-kind)` keys plus the `serenade_cache_*` telemetry.
#[derive(Debug)]
pub struct PredictionCache {
    inner: GenerationCache<CacheKey, CachedList>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    stale: Arc<Counter>,
    evictions: Arc<Counter>,
    insertions: Arc<Counter>,
    hit_latency: Arc<Histogram>,
}

impl PredictionCache {
    /// Creates a cache with its metrics in a registry of its own. The
    /// config's `enabled` flag is the caller's concern: a constructed cache
    /// always caches.
    pub fn new(_config: CacheConfig) -> Self {
        Self::with_registry(&Registry::new())
    }

    /// [`Self::new`] with the `serenade_cache_*` counters and hit-latency
    /// histogram in `registry`.
    pub(crate) fn with_registry(registry: &Registry) -> Self {
        Self {
            inner: GenerationCache::new(CACHE_SHARDS, CACHE_CAPACITY_PER_SHARD),
            hits: registry.counter(
                "serenade_cache_hits_total",
                "Prediction-cache lookups served from a generation-valid entry.",
                &[],
            ),
            misses: registry.counter(
                "serenade_cache_misses_total",
                "Prediction-cache lookups with no entry for the key.",
                &[],
            ),
            stale: registry.counter(
                "serenade_cache_stale_total",
                "Prediction-cache lookups that found an entry from a previous index generation.",
                &[],
            ),
            evictions: registry.counter(
                "serenade_cache_evictions_total",
                "Prediction-cache entries evicted by the CLOCK sweep to make room.",
                &[],
            ),
            insertions: registry.counter(
                "serenade_cache_insertions_total",
                "Prediction lists inserted into the cache after a miss.",
                &[],
            ),
            hit_latency: registry.histogram(
                "serenade_cache_hit_duration_seconds",
                "End-to-end prediction-stage latency of cache hits.",
                &[],
                HistogramConfig::default(),
            ),
        }
    }

    /// Generation-checked lookup. `None` covers both a true miss and a
    /// stale entry (counted separately); the caller recomputes either way.
    pub fn lookup(&self, key: CacheKey, generation: u64) -> Option<CachedList> {
        match self.inner.get(&key, generation) {
            Lookup::Hit(list) => {
                self.hits.inc();
                Some(list)
            }
            Lookup::Stale => {
                self.stale.inc();
                None
            }
            Lookup::Miss => {
                self.misses.inc();
                None
            }
        }
    }

    /// Stores a freshly computed pre-policy list under its generation stamp.
    pub fn store_list(&self, key: CacheKey, generation: u64, list: Vec<ItemScore>) {
        self.insertions.inc();
        if self.inner.insert(key, generation, Arc::new(list)) {
            self.evictions.inc();
        }
    }

    /// Records how long a cache-hit prediction stage took end to end.
    pub fn record_hit_duration(&self, elapsed: Duration) {
        self.hit_latency.record(elapsed);
    }

    /// Live entries across all shards.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert_same_generation() {
        let c: GenerationCache<u64, u64> = GenerationCache::new(2, 4);
        assert_eq!(c.get(&7, 1), Lookup::Miss);
        c.insert(7, 1, 42);
        assert_eq!(c.get(&7, 1), Lookup::Hit(42));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn stale_generation_is_a_miss_and_evicts() {
        let c: GenerationCache<u64, u64> = GenerationCache::new(1, 4);
        c.insert(7, 1, 42);
        assert_eq!(c.get(&7, 2), Lookup::Stale, "rolled-over entry must not hit");
        assert_eq!(c.len(), 0, "stale entry must be eagerly evicted");
        assert_eq!(c.get(&7, 2), Lookup::Miss, "second probe is a plain miss");
    }

    #[test]
    fn overwrite_restamps_the_entry() {
        let c: GenerationCache<u64, u64> = GenerationCache::new(1, 4);
        c.insert(7, 1, 42);
        c.insert(7, 2, 43);
        assert_eq!(c.get(&7, 2), Lookup::Hit(43));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn capacity_is_bounded_and_clock_evicts_unreferenced_first() {
        let c: GenerationCache<u64, u64> = GenerationCache::new(1, 3);
        c.insert(1, 1, 10);
        c.insert(2, 1, 20);
        c.insert(3, 1, 30);
        // Touch 1 and 3: their reference bits protect them for one sweep.
        assert_eq!(c.get(&1, 1), Lookup::Hit(10));
        assert_eq!(c.get(&3, 1), Lookup::Hit(30));
        let evicted = c.insert(4, 1, 40);
        assert!(evicted, "a full shard must evict to admit");
        assert_eq!(c.len(), 3, "capacity stays bounded");
        assert_eq!(c.get(&2, 1), Lookup::Miss, "the unreferenced entry went first");
        assert_eq!(c.get(&4, 1), Lookup::Hit(40));
    }

    #[test]
    fn shards_spread_keys() {
        let c: GenerationCache<u64, u64> = GenerationCache::new(4, 2);
        for k in 0..64u64 {
            c.insert(k, 1, k);
        }
        // 4 shards × 2 capacity: at most 8 survivors, spread over shards.
        assert!(c.len() <= 8);
        assert!(c.len() > 2, "multiple shards must hold entries");
    }

    #[test]
    fn prediction_cache_counts_hits_misses_and_stale() {
        let cache = PredictionCache::new(CacheConfig::default());
        let key = CacheKey { item: 9, view: ViewKind::Depersonalised };
        assert!(cache.lookup(key, 1).is_none());
        cache.store_list(key, 1, vec![ItemScore { item: 1, score: 1.0 }]);
        let hit = cache.lookup(key, 1).expect("hit");
        assert_eq!(hit.len(), 1);
        assert!(cache.lookup(key, 2).is_none(), "generation bump invalidates");
        assert_eq!(
            (cache.hits.get(), cache.misses.get(), cache.stale.get()),
            (1, 1, 1)
        );
        assert!(cache.is_empty(), "stale entry evicted");
    }

    #[test]
    fn view_kinds_do_not_collide() {
        let cache = PredictionCache::new(CacheConfig::default());
        let dep = CacheKey { item: 9, view: ViewKind::Depersonalised };
        let rec = CacheKey { item: 9, view: ViewKind::Recent };
        cache.store_list(dep, 1, vec![ItemScore { item: 1, score: 1.0 }]);
        assert!(cache.lookup(rec, 1).is_none(), "same item, different view kind");
        assert!(cache.lookup(dep, 1).is_some());
    }
}
