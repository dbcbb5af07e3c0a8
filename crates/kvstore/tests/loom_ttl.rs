//! Model check for the TTL store's expiry-vs-read race.
//!
//! Run with `cargo test -p serenade-kvstore --features loom`. The scenario
//! mirrors the serving incident class this store must exclude: a session
//! expires (30 minutes idle in production, 10 ms here), and the next click
//! on that session (`update_or_insert`, which restarts the session from
//! scratch) races a concurrent read (`get`, which lazily removes the
//! expired entry). No interleaving may ever surface the *stale pre-expiry
//! value*: the reader sees either nothing or the restarted session.

#![cfg(feature = "loom")]

use serenade_kvstore::{ManualClock, StoreConfig, TtlStore};
use std::sync::Arc as StdArc;

fn expired_session_model() {
    let clock = ManualClock::new();
    let cfg = StoreConfig { shards: 1, ttl_ms: 10 };
    let store = StdArc::new(TtlStore::with_clock(cfg, clock.clone()));

    // A session that has gone idle past its TTL before the race begins.
    store.put(7u64, vec![1u64]);
    clock.advance_ms(20);

    let restarter = {
        let store = StdArc::clone(&store);
        loom::thread::spawn(move || {
            // The next click: restart the expired session and append.
            store.update_or_insert(7, Vec::new, |items| items.push(2));
        })
    };
    let observed = store.get(&7);
    restarter.join().unwrap();

    assert!(
        observed.is_none() || observed == Some(vec![2]),
        "reader surfaced the stale pre-expiry session: {observed:?}"
    );
    // After both operations the restarted session is live regardless of
    // which side won the shard lock.
    assert_eq!(store.get(&7), Some(vec![2]), "restarted session must survive the race");
}

#[test]
fn expiry_racing_read_never_surfaces_stale_session() {
    let mut builder = loom::Builder::default();
    builder.preemption_bound = 3;
    let report = builder.explore(expired_session_model);
    assert!(
        report.failure.is_none(),
        "checker found a bad schedule: {}",
        report.failure.unwrap()
    );
    assert!(report.exhausted, "exploration must finish within the iteration budget");
    assert!(report.iterations > 1, "the model must actually branch");
}
