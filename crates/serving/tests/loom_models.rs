//! Model checks for the `IndexHandle` publication protocol and the HTTP
//! server's admission/drain handshake.
//!
//! Run with `cargo test -p serenade-serving --features loom`. The checker
//! (our in-tree `shims/loom`) exhaustively explores thread interleavings up
//! to a preemption bound, modelling atomic coherence and release/acquire
//! visibility, and tracks every shimmed `Arc` allocation so use-after-free,
//! double-free and leaks fail the schedule that produced them.
//!
//! Four seeded mutations prove the checker has teeth (a checker that
//! passes everything is worthless):
//!
//! * `--features "loom mutation-skip-wait-for-readers"` removes the
//!   writer-side drain; the checker must find the schedule where the writer
//!   frees the old index while a pinned reader still dereferences it.
//! * `--features "loom mutation-weak-orderings"` demotes the protocol's
//!   SeqCst fences to the plausible-looking Acquire/Release set; the checker
//!   must find the stale-guard-read schedule that makes it unsound.
//! * `--features "loom mutation-weak-admission"` demotes the lifecycle
//!   gate's Dekker handshake to `Relaxed`; the checker must find the
//!   schedule where the drain controller reads a stale `inflight == 0` and
//!   declares the server quiesced while an admitted request is still
//!   running (the "silently lost request" the drain protocol forbids).
//! * `--features "loom mutation-skip-generation-check"` drops the
//!   prediction cache's generation comparison; the checker must find the
//!   schedule where a probe under the post-rollover generation is served a
//!   list computed on the pre-rollover index.

#![cfg(feature = "loom")]

use serenade_serving::sync::Arc;
use serenade_serving::IndexHandle;
use std::sync::Arc as StdArc;

/// The reader/writer model every test in this file explores: two readers
/// pin-and-load concurrently with one writer swapping in a new index.
/// Readers assert they only ever observe a fully published value; the
/// checker's allocation registry asserts no schedule frees an index a
/// reader still holds and that every strong count balances at the end.
fn index_handle_model() {
    let handle = StdArc::new(IndexHandle::new(Arc::new(0u64)));

    let readers: Vec<_> = (0..2)
        .map(|_| {
            let handle = StdArc::clone(&handle);
            loom::thread::spawn(move || {
                let value = handle.load();
                // Dereferencing is the point: on a schedule where the writer
                // reclaimed this allocation too early, the shim fails here
                // with a use-after-free, not undefined behaviour.
                assert!(*value == 0 || *value == 1, "observed a torn publication");
            })
        })
        .collect();

    let writer = {
        let handle = StdArc::clone(&handle);
        loom::thread::spawn(move || handle.store(Arc::new(1u64)))
    };

    for reader in readers {
        reader.join().unwrap();
    }
    writer.join().unwrap();

    // All threads joined: the writer's store has happened, so every later
    // load must see the new value, and exactly two references exist (the
    // handle's own plus the one we just took).
    let last = handle.load();
    assert_eq!(*last, 1, "post-join load must observe the new index");
    assert_eq!(Arc::strong_count(&last), 2, "strong counts must balance on every schedule");
}

fn explore() -> loom::Report {
    let mut builder = loom::Builder::default();
    builder.preemption_bound = 3;
    builder.max_iterations = 500_000;
    builder.max_steps = 20_000;
    builder.explore(index_handle_model)
}

/// The unmutated protocol is sound on every explored schedule, and the
/// model is rich enough that exploration covers well over the 1,000
/// distinct interleavings the acceptance bar asks for.
#[cfg(not(any(
    feature = "mutation-skip-wait-for-readers",
    feature = "mutation-weak-orderings"
)))]
#[test]
fn index_handle_publication_is_sound() {
    let report = explore();
    assert!(
        report.failure.is_none(),
        "checker found a bad schedule: {}",
        report.failure.unwrap()
    );
    assert!(report.exhausted, "exploration must finish within the iteration budget");
    assert!(
        report.iterations >= 1_000,
        "model too small to be meaningful: only {} interleavings explored",
        report.iterations
    );
}

/// Mutation kill: without `wait_for_readers` the writer drops the old index
/// while a reader inside its pin window still uses it. The checker must
/// catch this — via the use-after-free on the reader's deref/increment, or
/// the strong-count imbalance it leaves behind.
#[cfg(feature = "mutation-skip-wait-for-readers")]
#[test]
fn skipping_wait_for_readers_is_caught() {
    let report = explore();
    let failure = report
        .failure
        .expect("checker failed to catch the missing wait_for_readers drain");
    assert!(
        failure.contains("freed") || failure.contains("free") || failure.contains("leak"),
        "unexpected failure kind: {failure}"
    );
}

/// Mutation kill: the Acquire/Release ordering set allows the writer's
/// guard-drain load to read a stale zero from before a reader's pin, so the
/// drain terminates early and the same use-after-free window opens.
#[cfg(feature = "mutation-weak-orderings")]
#[test]
fn weakened_orderings_are_caught() {
    let report = explore();
    let failure = report
        .failure
        .expect("checker failed to catch the weakened ordering set");
    assert!(
        failure.contains("freed") || failure.contains("free") || failure.contains("leak"),
        "unexpected failure kind: {failure}"
    );
}

/// The HTTP server's admission/drain handshake, reduced to its essential
/// race: workers publish intent (`inflight.fetch_add`) then check state,
/// the controller flips state (`begin_drain`) then checks intent. The
/// `closed` flag models the drain controller declaring quiescence; an
/// admitted request observing `closed == 1` is exactly the lost-request bug
/// — it ran after shutdown said nothing was running. No spin loops: the
/// controller checks inflight once, which keeps the schedule space small
/// and the property sharp (a single stale read already breaks it).
fn drain_handshake_model() {
    use serenade_serving::server::{Admission, LifecycleGate};
    use serenade_serving::sync::atomic::{AtomicUsize, Ordering};

    let gate = StdArc::new(LifecycleGate::new());
    let closed = StdArc::new(AtomicUsize::new(0));

    let workers: Vec<_> = (0..2)
        .map(|_| {
            let gate = StdArc::clone(&gate);
            let closed = StdArc::clone(&closed);
            loom::thread::spawn(move || {
                if gate.try_begin_request() == Admission::Admitted {
                    // The request body runs here. The controller must not
                    // have declared the server quiesced.
                    assert_eq!(
                        closed.load(Ordering::SeqCst),
                        0,
                        "admitted request ran after drain declared quiescence"
                    );
                    gate.finish_request();
                }
            })
        })
        .collect();

    let controller = {
        let gate = StdArc::clone(&gate);
        let closed = StdArc::clone(&closed);
        loom::thread::spawn(move || {
            gate.begin_drain();
            if gate.inflight() == 0 {
                // Nothing in flight: declare quiescence and stop. With the
                // SeqCst handshake this load cannot miss a concurrent
                // admission — either the worker's increment is visible
                // here, or the state flip was visible to the worker.
                closed.store(1, Ordering::SeqCst);
                gate.force_stop();
            }
        })
    };

    for w in workers {
        w.join().unwrap();
    }
    controller.join().unwrap();
    assert_eq!(gate.inflight(), 0, "inflight accounting must balance on every schedule");
}

fn explore_drain() -> loom::Report {
    let mut builder = loom::Builder::default();
    builder.preemption_bound = 3;
    builder.max_iterations = 500_000;
    builder.max_steps = 20_000;
    builder.explore(drain_handshake_model)
}

/// The SeqCst Dekker handshake is sound on every explored schedule: no
/// interleaving lets the drain controller declare quiescence while an
/// admitted request still runs. The acceptance bar asks for >1,000 distinct
/// interleavings; the model comfortably clears it.
#[cfg(not(any(
    feature = "mutation-skip-wait-for-readers",
    feature = "mutation-weak-orderings",
    feature = "mutation-weak-admission"
)))]
#[test]
fn drain_handshake_is_sound() {
    let report = explore_drain();
    assert!(
        report.failure.is_none(),
        "checker found a bad schedule: {}",
        report.failure.unwrap()
    );
    assert!(report.exhausted, "exploration must finish within the iteration budget");
    assert!(
        report.iterations >= 1_000,
        "model too small to be meaningful: only {} interleavings explored",
        report.iterations
    );
}

/// Mutation kill: with the handshake demoted to `Relaxed`, the controller's
/// `inflight` load may miss a concurrent admission (or the worker's state
/// load may miss the drain flip), so a schedule exists where the server is
/// declared quiesced with a request still running. The checker must find it.
#[cfg(feature = "mutation-weak-admission")]
#[test]
fn weakened_admission_handshake_is_caught() {
    let report = explore_drain();
    let failure =
        report.failure.expect("checker failed to catch the weakened admission handshake");
    assert!(
        failure.contains("quiescence") || failure.contains("balance"),
        "unexpected failure kind: {failure}"
    );
}

/// The prediction cache's rollover-coherence protocol, reduced to its
/// essential race. Three threads over one `IndexHandle` (value 0, then 1)
/// and one single-shard `GenerationCache`:
///
/// * an **inserter** models a cache miss: `load_with_generation()` (read the
///   stamp, *then* pin the index — the order the protocol mandates),
///   "computes" on the loaded value and stores it under the stamp it read;
/// * a **writer** models the rollover: publish the new index, then bump the
///   generation;
/// * a **prober** models a later request: read the current generation and
///   probe the cache with it.
///
/// The invariant is the tentpole's promise: a probe under the post-rollover
/// generation (2) must never be served the pre-rollover list (0). The
/// writer-side swap-then-bump and reader-side stamp-then-load orders make
/// the entry's stamp a *lower bound* on the publication its value came
/// from, so a stamp-2 entry always carries value 1 — unless the generation
/// comparison is mutated away.
fn cache_generation_model() {
    use serenade_serving::cache::{GenerationCache, Lookup};

    let handle = StdArc::new(IndexHandle::new(Arc::new(0u64)));
    let cache: StdArc<GenerationCache<u64, u64>> = StdArc::new(GenerationCache::new(1, 2));
    const KEY: u64 = 7;

    let inserter = {
        let handle = StdArc::clone(&handle);
        let cache = StdArc::clone(&cache);
        loom::thread::spawn(move || {
            let (index, generation) = handle.load_with_generation();
            // The "kernel work" of the miss path: the cached value is a pure
            // function of the index version we loaded.
            cache.insert(KEY, generation, *index);
        })
    };

    let writer = {
        let handle = StdArc::clone(&handle);
        loom::thread::spawn(move || handle.store(Arc::new(1u64)))
    };

    let prober = {
        let handle = StdArc::clone(&handle);
        let cache = StdArc::clone(&cache);
        loom::thread::spawn(move || {
            let generation = handle.generation();
            if let Lookup::Hit(value) = cache.get(&KEY, generation) {
                if generation == 2 {
                    assert_eq!(
                        value, 1,
                        "stale list served under the post-rollover generation"
                    );
                }
            }
        })
    };

    inserter.join().unwrap();
    writer.join().unwrap();
    prober.join().unwrap();

    // All threads joined: the rollover has happened, so the current
    // generation is 2 and any hit the cache still serves must be the
    // post-rollover list. (A stamp-1 entry must come back `Stale`.)
    assert_eq!(handle.generation(), 2);
    if let Lookup::Hit(value) = cache.get(&KEY, 2) {
        assert_eq!(value, 1, "stale list survived the rollover");
    }
}

fn explore_cache() -> loom::Report {
    let mut builder = loom::Builder::default();
    builder.preemption_bound = 3;
    builder.max_iterations = 500_000;
    builder.max_steps = 20_000;
    builder.explore(cache_generation_model)
}

/// The generation protocol is sound on every explored schedule: no
/// interleaving lets a request observe the new index generation together
/// with a recommendation list computed on the old index. (All four
/// mutations are excluded: the handle mutations break the `IndexHandle`
/// inside this model, the admission mutation shares the feature-unification
/// build, and the generation mutation is this model's own kill switch.)
#[cfg(not(any(
    feature = "mutation-skip-wait-for-readers",
    feature = "mutation-weak-orderings",
    feature = "mutation-weak-admission",
    feature = "mutation-skip-generation-check"
)))]
#[test]
fn cache_generation_coherence_is_sound() {
    let report = explore_cache();
    assert!(
        report.failure.is_none(),
        "checker found a bad schedule: {}",
        report.failure.unwrap()
    );
    assert!(report.exhausted, "exploration must finish within the iteration budget");
    assert!(
        report.iterations >= 1_000,
        "model too small to be meaningful: only {} interleavings explored",
        report.iterations
    );
}

/// Mutation kill: with the generation comparison dropped, a stamp-1 entry
/// (computed on index 0) is served to a probe that already observed
/// generation 2 — the exact stale-across-rollover bug the cache design
/// forbids. The checker must find the schedule.
#[cfg(feature = "mutation-skip-generation-check")]
#[test]
fn skipped_generation_check_is_caught() {
    let report = explore_cache();
    let failure =
        report.failure.expect("checker failed to catch the dropped generation check");
    assert!(
        failure.contains("stale"),
        "unexpected failure kind: {failure}"
    );
}

/// The stats counters are single relaxed `AtomicU64` increments; model that
/// none is lost under full interleaving, as the registry renders them.
#[cfg(not(any(
    feature = "mutation-skip-wait-for-readers",
    feature = "mutation-weak-orderings"
)))]
#[test]
fn stats_stripes_do_not_lose_updates() {
    let mut builder = loom::Builder::default();
    builder.preemption_bound = 2;
    let report = builder.explore(|| {
        let registry = serenade_telemetry::Registry::new();
        let stats = StdArc::new(serenade_serving::ServingStats::new(&registry));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let stats = StdArc::clone(&stats);
                loom::thread::spawn(move || {
                    stats.record(serenade_serving::StageTimings::default(), false, 1);
                    stats.record_error();
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let text = registry.render();
        assert!(text.contains("serenade_requests_total 2\n"), "lost request count: {text}");
        assert!(text.contains("serenade_errors_total 2\n"), "lost error count: {text}");
    });
    assert!(report.failure.is_none(), "stats model failed: {:?}", report.failure);
    assert!(report.exhausted);
}
