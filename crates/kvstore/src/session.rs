//! The session-store contract.
//!
//! The paper's serving component keeps sessions in machine-local RocksDB,
//! its load tests in an in-memory store, and both share the same
//! 30-minutes-of-inactivity TTL contract (Section 4.2). [`SessionStore`]
//! states that contract; [`crate::TtlStore`] is its one implementation, the
//! store a serving node runs, and the conformance suite below holds it to
//! the contract.
//!
//! # TTL semantics
//!
//! Every implementation must provide per-entry expiry with these rules:
//!
//! * A write ([`SessionStore::update_or_insert`]) and a read
//!   ([`SessionStore::with_value`]) alike restart the entry's TTL
//!   ("inactivity" expiry: the deadline tracks the last access, as
//!   RocksDB-style stores refresh on access).
//! * An entry whose TTL has elapsed behaves exactly like an absent entry:
//!   reads miss, [`SessionStore::update_or_insert`] starts from `default()`,
//!   [`SessionStore::remove`] returns `None`.
//! * [`SessionStore::evict_expired`] reclaims expired entries eagerly;
//!   implementations may additionally reclaim them lazily on access.

use std::hash::Hash;

use crate::clock::Clock;
use crate::store::TtlStore;

/// A concurrent keyed store with TTL expiry, sufficient to hold evolving
/// sessions for a serving pod. See the module docs for the TTL contract.
pub trait SessionStore<K, V>: Send + Sync {
    /// Mutates the live value in place — inserting `default()` if the key is
    /// absent or expired — refreshes the TTL, and returns the closure's
    /// result. This is the request fast path ("append the clicked item and
    /// read the view back") and must be atomic per key.
    fn update_or_insert<T>(
        &self,
        key: K,
        default: impl FnOnce() -> V,
        f: impl FnOnce(&mut V) -> T,
    ) -> T
    where
        Self: Sized;

    /// Runs `f` on the live value, if any, and refreshes the TTL.
    fn with_value<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T>
    where
        Self: Sized;

    /// Removes an entry, returning its value if it was live.
    fn remove(&self, key: &K) -> Option<V>;

    /// Erases an entry unconditionally — live **or** expired — returning
    /// whether one was physically dropped. This is the unlearning hook: a
    /// session deleted from the click log must also vanish from the
    /// evolving-session state, even if its TTL already lapsed (an expired
    /// entry still holds the data until it is reclaimed).
    fn forget(&self, key: &K) -> bool;

    /// Snapshots up to `cap` live entries for ownership handoff: when the
    /// cluster remaps a member's sessions to new owners, the old owner
    /// exports them here, the new owners import them, and the old owner
    /// then [`SessionStore::forget`]s them. Expired entries must never be
    /// exported.
    fn export_live(&self, cap: usize) -> Vec<(K, V)>
    where
        K: Clone,
        V: Clone;

    /// `true` if a live entry exists. Must not refresh the TTL.
    fn contains(&self, key: &K) -> bool;

    /// Eagerly reclaims expired entries; returns how many were evicted.
    fn evict_expired(&self) -> usize;

    /// Number of live (non-expired) entries.
    fn live_entries(&self) -> usize;

    /// Drops every entry, live or expired.
    fn clear(&self);

    /// Cumulative `(lazily expired, swept)` reclamation counts, for
    /// observability.
    fn expiry_counts(&self) -> (u64, u64);
}

impl<K, V, C> SessionStore<K, V> for TtlStore<K, V, C>
where
    K: Hash + Eq + Send,
    V: Send,
    C: Clock + Send + Sync,
{
    fn update_or_insert<T>(
        &self,
        key: K,
        default: impl FnOnce() -> V,
        f: impl FnOnce(&mut V) -> T,
    ) -> T {
        TtlStore::update_or_insert(self, key, default, f)
    }

    fn with_value<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        TtlStore::with_value(self, key, f)
    }

    fn remove(&self, key: &K) -> Option<V> {
        TtlStore::remove(self, key)
    }

    fn forget(&self, key: &K) -> bool {
        TtlStore::forget(self, key)
    }

    fn export_live(&self, cap: usize) -> Vec<(K, V)>
    where
        K: Clone,
        V: Clone,
    {
        TtlStore::export_live(self, cap)
    }

    fn contains(&self, key: &K) -> bool {
        TtlStore::contains(self, key)
    }

    fn evict_expired(&self) -> usize {
        TtlStore::evict_expired(self)
    }

    fn live_entries(&self) -> usize {
        TtlStore::live_entries(self)
    }

    fn clear(&self) {
        TtlStore::clear(self)
    }

    fn expiry_counts(&self) -> (u64, u64) {
        TtlStore::expiry_counts(self)
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod conformance {
    //! A reusable conformance suite: any [`SessionStore`] implementation
    //! paired with a manual clock must pass `check_conformance`. Run here
    //! against the default [`TtlStore`].

    use super::*;
    use crate::clock::ManualClock;
    use crate::store::StoreConfig;

    const TTL_MS: u64 = 1_000;

    /// Drives the full TTL contract against `store`, where advancing
    /// `clock` is the only source of time.
    fn check_conformance<S: SessionStore<u64, Vec<u64>>>(store: &S, clock: &ManualClock) {
        // Absent keys miss everywhere.
        assert!(!store.contains(&1));
        assert_eq!(store.with_value(&1, Vec::len), None);
        assert_eq!(store.remove(&1), None);
        assert_eq!(store.live_entries(), 0);

        // update_or_insert starts from the default and returns f's result.
        let len = store.update_or_insert(1, Vec::new, |v| {
            v.push(10);
            v.len()
        });
        assert_eq!(len, 1);
        assert!(store.contains(&1));
        assert_eq!(store.with_value(&1, |v| v.clone()), Some(vec![10]));

        // A second update sees the prior state.
        store.update_or_insert(1, Vec::new, |v| v.push(11));
        assert_eq!(store.with_value(&1, |v| v.clone()), Some(vec![10, 11]));
        assert_eq!(store.live_entries(), 1);

        // Expiry makes the entry behave as absent...
        clock.advance_ms(TTL_MS + 1);
        assert!(!store.contains(&1));
        assert_eq!(store.with_value(&1, Vec::len), None);
        assert_eq!(store.remove(&1), None);
        assert_eq!(store.live_entries(), 0);

        // ...and a write restarts from the default, not the stale value.
        store.update_or_insert(1, Vec::new, |v| v.push(20));
        assert_eq!(store.with_value(&1, |v| v.clone()), Some(vec![20]));

        // Writes refresh the TTL: two writes TTL-1 apart keep it alive past
        // the first deadline.
        clock.advance_ms(TTL_MS - 1);
        store.update_or_insert(1, Vec::new, |v| v.push(21));
        clock.advance_ms(TTL_MS - 1);
        assert!(store.contains(&1), "last write restarted the TTL");

        // A read refreshes the TTL too.
        assert!(store.with_value(&1, |_| ()).is_some());
        clock.advance_ms(2);
        assert!(store.contains(&1), "the read must have refreshed the TTL");
        store.clear();

        // contains never refreshes the TTL.
        store.update_or_insert(2, Vec::new, |v| v.push(1));
        clock.advance_ms(TTL_MS - 1);
        assert!(store.contains(&2));
        clock.advance_ms(2);
        assert!(!store.contains(&2), "contains must not have touched the entry");

        // remove returns the live value exactly once.
        store.update_or_insert(3, Vec::new, |v| v.push(30));
        assert_eq!(store.remove(&3), Some(vec![30]));
        assert_eq!(store.remove(&3), None);

        // forget erases unconditionally: live entries, then nothing, and —
        // for stores that keep expired data until reclamation — expired
        // entries too.
        store.update_or_insert(4, Vec::new, |v| v.push(40));
        assert!(store.forget(&4));
        assert!(!store.forget(&4));
        store.update_or_insert(5, Vec::new, |v| v.push(50));
        clock.advance_ms(TTL_MS + 1);
        store.forget(&5); // must not panic; erasure of expired data is best-effort per impl
        assert!(!store.contains(&5));

        // Eager eviction reclaims exactly the expired entries.
        store.clear();
        for k in 0..10 {
            store.update_or_insert(k, Vec::new, |v| v.push(k));
        }
        clock.advance_ms(TTL_MS / 2);
        for k in 10..15 {
            store.update_or_insert(k, Vec::new, |v| v.push(k));
        }
        clock.advance_ms(TTL_MS / 2 + 1); // first 10 expired, last 5 live
        assert_eq!(store.evict_expired(), 10);
        assert_eq!(store.live_entries(), 5);
        assert_eq!(store.evict_expired(), 0, "nothing left to evict");

        store.clear();
        assert_eq!(store.live_entries(), 0);
    }

    fn ttl_store() -> (TtlStore<u64, Vec<u64>, ManualClock>, ManualClock) {
        let clock = ManualClock::new();
        let config = StoreConfig { shards: 2, ttl_ms: TTL_MS };
        (TtlStore::with_clock(config, clock.clone()), clock)
    }

    #[test]
    fn ttl_store_conforms_with_read_touch() {
        let (store, clock) = ttl_store();
        check_conformance(&store, &clock);
    }

    #[test]
    fn trait_is_usable_generically() {
        fn total_len<S: SessionStore<u64, Vec<u64>>>(store: &S, keys: &[u64]) -> usize {
            keys.iter().filter_map(|k| store.with_value(k, Vec::len)).sum()
        }
        let (store, _clock) = ttl_store();
        store.update_or_insert(1, Vec::new, |v| v.extend([1, 2]));
        store.update_or_insert(2, Vec::new, |v| v.push(3));
        assert_eq!(total_len(&store, &[1, 2, 3]), 3);
    }
}
