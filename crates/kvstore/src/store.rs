//! The sharded TTL hash store.
//!
//! Keys are hashed (FxHash scheme, same as `serenade-core`) to one of 64
//! shards, each guarded by its own `Mutex`. Contention is therefore bounded
//! by the shard count, and single-shard operations are a lock + one hash-map
//! probe — microseconds, matching the paper's RocksDB measurements for this
//! workload shape. A lock poisoned by a panicking caller is entered anyway,
//! so one failed request never takes its shard's sessions down with it.
//!
//! Expiry is lazy (an expired entry encountered on `get`/`update` is treated
//! as absent and removed) plus an explicit [`TtlStore::evict_expired`] sweep
//! that a maintenance thread can call periodically — mirroring how the paper
//! "configures RocksDB to remove the data for a session after 30 minutes of
//! inactivity".

use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::PoisonError;

use crate::clock::{Clock, SystemClock};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;

/// FxHash-style hasher (local copy; `serenade-kvstore` is dependency-free).
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    state: u64,
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = (self.state.rotate_left(5) ^ i).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Shards of every store, a power of two: enough that the reactors rarely
/// meet on one lock. The model-checked build keeps one, so a schedule is
/// spent on the race it checks.
const SHARDS: usize = if cfg!(feature = "loom") { 1 } else { 64 };

/// Configuration of a [`TtlStore`].
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Entry time-to-live in milliseconds (paper: 30 minutes). It runs
    /// from an entry's last access, read or write: the paper expires
    /// sessions 30 minutes after the *last* access.
    pub ttl_ms: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self { ttl_ms: 30 * 60 * 1_000 }
    }
}

struct Entry<V> {
    value: V,
    expires_at_ms: u64,
}

type Shard<K, V> = HashMap<K, Entry<V>, FxBuildHasher>;

/// Control bytes a table probes at once: an SSE2 group on x86, a word
/// elsewhere.
const GROUP_WIDTH: usize =
    if cfg!(any(target_arch = "x86", target_arch = "x86_64")) { 16 } else { 8 };

/// Heap bytes of a standard hash map of `T` entries that reports
/// `capacity`: its buckets of `T`, padded to the group alignment, then a
/// control byte a bucket and one group more. A table holds 7/8 of its
/// buckets, or all but one below 8; an empty one has no allocation.
fn table_bytes<T>(capacity: usize) -> usize {
    let buckets = match capacity {
        0 => return 0,
        1..=7 => capacity + 1,
        _ => capacity / 7 * 8,
    };
    let align = GROUP_WIDTH.max(std::mem::align_of::<T>());
    (buckets * std::mem::size_of::<T>()).next_multiple_of(align) + buckets + GROUP_WIDTH
}

/// Sharded in-memory key-value store with per-entry TTL.
pub struct TtlStore<K, V, C: Clock = SystemClock> {
    shards: Box<[Mutex<Shard<K, V>>]>,
    mask: u64,
    config: StoreConfig,
    clock: C,
    hasher: FxBuildHasher,
    /// Entries reclaimed lazily (found expired on access).
    expired: AtomicU64,
    /// Entries reclaimed by explicit [`TtlStore::evict_expired`] sweeps.
    swept: AtomicU64,
}

impl<K: Hash + Eq, V> TtlStore<K, V, SystemClock> {
    /// Creates a store on the process's monotonic [`SystemClock`].
    pub fn new(config: StoreConfig) -> Self {
        Self::with_clock(config, SystemClock)
    }
}

impl<K: Hash + Eq, V, C: Clock> TtlStore<K, V, C> {
    /// Creates a store with an explicit clock (tests use [`crate::ManualClock`]).
    pub fn with_clock(config: StoreConfig, clock: C) -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            mask: SHARDS as u64 - 1,
            config,
            clock,
            hasher: FxBuildHasher::default(),
            expired: AtomicU64::new(0),
            swept: AtomicU64::new(0),
        }
    }

    #[inline]
    fn shard_of(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let h = self.hasher.hash_one(key);
        &self.shards[(h & self.mask) as usize]
    }

    /// Inserts or replaces; the entry's TTL starts now.
    pub fn put(&self, key: K, value: V) {
        let expires = self.clock.now_ms() + self.config.ttl_ms;
        let mut shard = self.shard_of(&key).lock().unwrap_or_else(PoisonError::into_inner);
        shard.insert(key, Entry { value, expires_at_ms: expires });
    }

    /// Removes an entry, returning its value if it was live.
    pub fn remove(&self, key: &K) -> Option<V> {
        let now = self.clock.now_ms();
        let mut shard = self.shard_of(key).lock().unwrap_or_else(PoisonError::into_inner);
        let entry = shard.remove(key)?;
        if entry.expires_at_ms > now {
            Some(entry.value)
        } else {
            drop(shard);
            // ORDERING: statistical counter with no partner; readers take
            // racy snapshots (see `expiry_counts`).
            self.expired.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// `true` if a live entry exists (does not refresh the TTL).
    pub fn contains(&self, key: &K) -> bool {
        let now = self.clock.now_ms();
        let shard = self.shard_of(key).lock().unwrap_or_else(PoisonError::into_inner);
        shard.get(key).is_some_and(|e| e.expires_at_ms > now)
    }

    /// Runs `f` on the live value, if any, and refreshes its TTL. Expired
    /// entries are removed.
    pub fn with_value<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        let now = self.clock.now_ms();
        let mut shard = self.shard_of(key).lock().unwrap_or_else(PoisonError::into_inner);
        match shard.get_mut(key) {
            Some(entry) if entry.expires_at_ms > now => {
                entry.expires_at_ms = now + self.config.ttl_ms;
                Some(f(&entry.value))
            }
            Some(_) => {
                shard.remove(key);
                drop(shard);
                // ORDERING: statistical counter, partner: none.
                self.expired.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => None,
        }
    }

    /// Mutates the live value in place (inserting `default()` if absent or
    /// expired) and refreshes the TTL. Returns the closure's result.
    ///
    /// This is the serving fast path: "append the clicked item to the
    /// session and read the session back" is one lock acquisition.
    pub fn update_or_insert<T>(
        &self,
        key: K,
        default: impl FnOnce() -> V,
        f: impl FnOnce(&mut V) -> T,
    ) -> T {
        let now = self.clock.now_ms();
        let expires = now + self.config.ttl_ms;
        let mut shard = self.shard_of(&key).lock().unwrap_or_else(PoisonError::into_inner);
        match shard.entry(key) {
            MapEntry::Occupied(mut occupied) => {
                let entry = occupied.get_mut();
                if entry.expires_at_ms <= now {
                    // Expired: restart from the default value.
                    entry.value = default();
                    // ORDERING: statistical counter, partner: none.
                    self.expired.fetch_add(1, Ordering::Relaxed);
                }
                entry.expires_at_ms = expires;
                f(&mut entry.value)
            }
            MapEntry::Vacant(vacant) => {
                let entry = vacant.insert(Entry { value: default(), expires_at_ms: expires });
                f(&mut entry.value)
            }
        }
    }

    /// Removes every expired entry; returns how many were evicted.
    pub fn evict_expired(&self) -> usize {
        let now = self.clock.now_ms();
        let mut evicted = 0;
        for shard in self.shards.iter() {
            let mut shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            let before = shard.len();
            shard.retain(|_, e| e.expires_at_ms > now);
            evicted += before - shard.len();
        }
        // ORDERING: statistical counter with no partner; racy reads only.
        self.swept.fetch_add(evicted as u64, Ordering::Relaxed);
        evicted
    }

    /// Counts live (non-expired) entries; takes every shard lock once.
    pub fn live_entries(&self) -> usize {
        let now = self.clock.now_ms();
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().unwrap_or_else(PoisonError::into_inner);
                shard.values().filter(|e| e.expires_at_ms > now).count()
            })
            .sum()
    }

    /// Heap bytes of the stored sessions, live and expired alike: every
    /// shard's table as the standard library's hash map lays it out, and
    /// what each value owns, by `owned`. Takes every shard lock once.
    pub fn heap_bytes(&self, owned: impl Fn(&V) -> usize) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().unwrap_or_else(PoisonError::into_inner);
                let values: usize = shard.values().map(|e| owned(&e.value)).sum();
                table_bytes::<(K, Entry<V>)>(shard.capacity()) + values
            })
            .sum()
    }

    /// Cumulative `(lazily expired, swept)` reclamation counts — the inputs
    /// for the serving layer's eviction counters. Lock-free.
    pub fn expiry_counts(&self) -> (u64, u64) {
        // ORDERING: racy statistical reads (partner: none); callers diff
        // successive snapshots and tolerate in-flight updates.
        (self.expired.load(Ordering::Relaxed), self.swept.load(Ordering::Relaxed))
    }

    /// Physically drops an entry — live **or** expired — returning whether
    /// one existed. Unlike [`TtlStore::remove`] this never clones or returns
    /// the value and does not count an expired entry as a lazy expiry: the
    /// caller is erasing the key on purpose (GDPR-style unlearning), not
    /// observing a TTL event, so reclamation statistics stay untouched.
    pub fn forget(&self, key: &K) -> bool {
        let mut shard = self.shard_of(key).lock().unwrap_or_else(PoisonError::into_inner);
        shard.remove(key).is_some()
    }

    /// Removes all entries.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.lock().unwrap_or_else(PoisonError::into_inner).clear();
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone, C: Clock> TtlStore<K, V, C> {
    /// Snapshots up to `cap` live entries — the ownership-handoff export:
    /// when a cluster member leaves, its sessions are exported here and
    /// imported by their new owners. Entries are cloned out (the store
    /// keeps serving until the handoff completes and `forget` erases them);
    /// expired entries are never exported. One shard lock is held at a
    /// time, so the export does not stall concurrent requests to other
    /// shards. The cap bounds the handoff: with more live sessions than
    /// `cap`, an arbitrary subset is exported and the rest simply restart
    /// from empty on their next request — the same degradation a TTL
    /// expiry produces.
    pub fn export_live(&self, cap: usize) -> Vec<(K, V)> {
        let now = self.clock.now_ms();
        let mut out = Vec::with_capacity(cap.min(1_024));
        for shard in self.shards.iter() {
            if out.len() >= cap {
                break;
            }
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for (k, e) in shard.iter() {
                if out.len() >= cap {
                    break;
                }
                if e.expires_at_ms > now {
                    out.push((k.clone(), e.value.clone()));
                }
            }
        }
        out
    }
}

impl<K: Hash + Eq, V: Clone, C: Clock> TtlStore<K, V, C> {
    /// Returns a clone of the live value and refreshes its TTL.
    pub fn get(&self, key: &K) -> Option<V> {
        self.with_value(key, V::clone)
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn store(ttl_ms: u64) -> (TtlStore<u64, Vec<u64>, ManualClock>, ManualClock) {
        let clock = ManualClock::new();
        let cfg = StoreConfig { ttl_ms };
        (TtlStore::with_clock(cfg, clock.clone()), clock)
    }

    #[test]
    fn put_get_roundtrip() {
        let (s, _) = store(1_000);
        s.put(1, vec![10, 11]);
        assert_eq!(s.get(&1), Some(vec![10, 11]));
        assert_eq!(s.get(&2), None);
        assert!(s.contains(&1));
        assert!(!s.contains(&2));
    }

    #[test]
    fn entries_expire_after_ttl() {
        let (s, clock) = store(1_000);
        s.put(1, vec![1]);
        clock.advance_ms(999);
        assert!(s.contains(&1));
        clock.advance_ms(1);
        assert_eq!(s.get(&1), None);
        assert!(!s.contains(&1));
    }

    #[test]
    fn expiry_counts_track_lazy_and_swept_reclamation() {
        let (s, clock) = store(1_000);
        assert_eq!(s.expiry_counts(), (0, 0));

        // Lazy reclamation: a read of an expired entry removes it.
        s.put(1, vec![1]);
        clock.advance_ms(1_001);
        assert_eq!(s.get(&1), None);
        assert_eq!(s.expiry_counts(), (1, 0));

        // A write landing on an expired entry counts as a lazy expiry too.
        s.put(2, vec![2]);
        clock.advance_ms(1_001);
        s.update_or_insert(2, Vec::new, |v| v.push(3));
        assert_eq!(s.expiry_counts(), (2, 0));

        // remove() of an expired entry is a lazy expiry, not a removal.
        s.put(3, vec![3]);
        clock.advance_ms(1_001);
        assert_eq!(s.remove(&3), None);
        assert_eq!(s.expiry_counts(), (3, 0));

        // The sweep accounts for everything it reclaims.
        for k in 10..15 {
            s.put(k, vec![k]);
        }
        clock.advance_ms(1_001);
        assert_eq!(s.evict_expired(), 6); // 5 fresh + key 2's rewritten entry
        let (expired, swept) = s.expiry_counts();
        assert_eq!((expired, swept), (3, 6));

        // Removing a live entry counts nowhere.
        s.put(4, vec![4]);
        assert_eq!(s.remove(&4), Some(vec![4]));
        assert_eq!(s.expiry_counts(), (3, 6));
    }

    #[test]
    fn touch_on_read_extends_ttl() {
        let (s, clock) = store(1_000);
        s.put(1, vec![1]);
        clock.advance_ms(900);
        assert!(s.get(&1).is_some()); // refreshes
        clock.advance_ms(900);
        assert!(s.get(&1).is_some(), "read at t=900 must have extended the ttl");
        clock.advance_ms(1_001);
        assert_eq!(s.get(&1), None);
    }

    #[test]
    fn update_or_insert_appends_in_one_call() {
        let (s, _) = store(1_000);
        let len = s.update_or_insert(7, Vec::new, |v| {
            v.push(42);
            v.len()
        });
        assert_eq!(len, 1);
        let len = s.update_or_insert(7, Vec::new, |v| {
            v.push(43);
            v.len()
        });
        assert_eq!(len, 2);
        assert_eq!(s.get(&7), Some(vec![42, 43]));
    }

    #[test]
    fn update_or_insert_restarts_expired_sessions() {
        let (s, clock) = store(1_000);
        s.update_or_insert(7, Vec::new, |v| v.push(1));
        clock.advance_ms(2_000);
        s.update_or_insert(7, Vec::new, |v| v.push(2));
        // The stale [1] must be gone: the session restarted.
        assert_eq!(s.get(&7), Some(vec![2]));
    }

    #[test]
    fn panic_inside_update_leaves_the_shard_usable() {
        let (s, _) = store(1_000);
        s.put(7, vec![1]);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.update_or_insert(7, Vec::new, |_| panic!("request handler failed"));
        }));
        assert!(caught.is_err(), "the closure's panic must reach the caller");
        // The shard lock is poisoned now; the next request still gets in.
        let len = s.update_or_insert(7, Vec::new, |v| {
            v.push(2);
            v.len()
        });
        assert_eq!(len, 2);
        assert_eq!(s.get(&7), Some(vec![1, 2]));
        assert!(s.contains(&7));
        assert_eq!(s.live_entries(), 1);
    }

    #[test]
    fn remove_returns_live_value_only() {
        let (s, clock) = store(1_000);
        s.put(1, vec![5]);
        assert_eq!(s.remove(&1), Some(vec![5]));
        assert_eq!(s.remove(&1), None);
        s.put(2, vec![6]);
        clock.advance_ms(2_000);
        assert_eq!(s.remove(&2), None, "expired values are not returned");
    }

    #[test]
    fn forget_erases_live_and_expired_entries_without_counting_expiry() {
        let (s, clock) = store(1_000);
        s.put(1, vec![1]);
        assert!(s.forget(&1), "live entry must be erased");
        assert!(!s.contains(&1));
        assert!(!s.forget(&1), "second erase finds nothing");

        // Expired entries are still physically present until reclaimed;
        // forget must erase them too, and must NOT book a lazy expiry —
        // this is deliberate unlearning, not a TTL event.
        s.put(2, vec![2]);
        clock.advance_ms(2_000);
        assert!(s.forget(&2), "expired-but-unreclaimed entry must be erased");
        assert_eq!(s.expiry_counts(), (0, 0));
        assert_eq!(s.evict_expired(), 0, "nothing left for the sweep");
    }

    #[test]
    fn evict_expired_sweeps_all_shards() {
        let (s, clock) = store(1_000);
        for k in 0..100u64 {
            s.put(k, vec![k]);
        }
        clock.advance_ms(500);
        for k in 100..150u64 {
            s.put(k, vec![k]);
        }
        clock.advance_ms(600); // first 100 expired, last 50 live
        assert_eq!(s.evict_expired(), 100);
        assert_eq!(s.live_entries(), 50);
        assert_eq!(s.shards.len(), SHARDS);
        assert_eq!(s.evict_expired(), 0);
    }

    #[test]
    fn stats_exclude_expired_entries() {
        let (s, clock) = store(1_000);
        s.put(1, vec![1]);
        s.put(2, vec![2]);
        clock.advance_ms(2_000);
        s.put(3, vec![3]);
        assert_eq!(s.live_entries(), 1);
    }

    #[test]
    fn clear_empties_everything() {
        let (s, _) = store(1_000);
        for k in 0..32u64 {
            s.put(k, vec![k]);
        }
        s.clear();
        assert_eq!(s.live_entries(), 0);
    }

    #[test]
    fn export_live_snapshots_live_entries_only_up_to_cap() {
        let (s, clock) = store(1_000);
        for k in 0..10u64 {
            s.put(k, vec![k]);
        }
        clock.advance_ms(1_001); // all 10 expired
        for k in 10..16u64 {
            s.put(k, vec![k]);
        }

        let full = s.export_live(usize::MAX);
        assert_eq!(full.len(), 6, "expired entries must never be exported");
        for (k, v) in &full {
            assert!((10..16).contains(k));
            assert_eq!(v, &vec![*k]);
        }

        let capped = s.export_live(4);
        assert_eq!(capped.len(), 4, "cap bounds the handoff");
        assert!(capped.iter().all(|(k, _)| (10..16).contains(k)));

        assert!(s.export_live(0).is_empty());

        // Export is a snapshot: the store still serves everything.
        assert_eq!(s.live_entries(), 6);
    }

    #[test]
    fn heap_bytes_counts_tables_and_windows() {
        let store: TtlStore<u64, Vec<u64>> = TtlStore::new(StoreConfig::default());
        assert_eq!(store.heap_bytes(|w| w.capacity() * 8), 0, "an empty table allocates nothing");
        // Sessions that all hash to the first shard, so one table grows.
        let first = (0u64..)
            .filter(|k| std::ptr::eq(store.shard_of(k), &store.shards[0]))
            .take(101)
            .collect::<Vec<_>>();
        for &session in &first[..100] {
            store.put(session, vec![1, 2, 3]);
        }
        // 100 entries grow the table to 128 buckets of 40 bytes (the key,
        // the window's `Vec` and its deadline), 128 control bytes and a
        // group of 16; each window holds 3 items of 8 bytes.
        let (table, windows) = (128 * 40 + 128 + 16, 100 * 3 * 8);
        assert_eq!(store.heap_bytes(|w| w.capacity() * 8), table + windows);
        // Expired entries stay until they are reclaimed, and count.
        store.put(first[100], Vec::with_capacity(9));
        assert_eq!(store.heap_bytes(|w| w.capacity() * 8), table + windows + 9 * 8);
    }

    #[test]
    fn concurrent_updates_do_not_lose_writes() {
        let (s, _) = store(60_000);
        let s = std::sync::Arc::new(s);
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..1_000u64 {
                        s.update_or_insert(i % 64, Vec::new, |v| v.push(t * 1_000 + i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // 8 threads x 1000 appends over 64 keys: every append must survive.
        let total: usize = (0..64u64).map(|k| s.get(&k).map_or(0, |v| v.len())).sum();
        assert_eq!(total, 8_000);
    }

    /// Std-threaded twin of `tests/loom_ttl.rs` (which explores the same
    /// race exhaustively under `--features loom`): readers racing an
    /// expired session's restart must never surface the stale pre-expiry
    /// value.
    #[test]
    fn expired_entry_read_racing_restart_never_surfaces_stale_value() {
        let (s, clock) = store(1_000);
        s.put(7, vec![1]);
        clock.advance_ms(2_000); // session now expired
        let s = std::sync::Arc::new(s);
        let reader = {
            let s = std::sync::Arc::clone(&s);
            std::thread::spawn(move || {
                for _ in 0..10_000 {
                    match s.get(&7) {
                        None => {}
                        Some(v) => assert_eq!(v, vec![2], "stale pre-expiry session surfaced"),
                    }
                }
            })
        };
        for _ in 0..10_000 {
            s.update_or_insert(7, || vec![2], |_| ());
        }
        reader.join().unwrap();
        assert_eq!(s.get(&7), Some(vec![2]));
    }
}
