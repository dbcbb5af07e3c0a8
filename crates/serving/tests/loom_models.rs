//! Model checks for the HTTP server's admission/drain handshake, the
//! prediction cache's rollover coherence over the `IndexHandle`, and the
//! stats counters.
//!
//! Run with `cargo test -p serenade-serving --features loom`. The checker
//! (our in-tree `shims/loom`) exhaustively explores thread interleavings up
//! to a preemption bound, modelling atomic coherence and release/acquire
//! visibility, and tracks every shimmed `Arc` allocation so a leak fails
//! the schedule that produced it.
//!
//! Two seeded mutations prove the checker has teeth (a checker that passes
//! everything is worthless):
//!
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
#[cfg(not(feature = "mutation-weak-admission"))]
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
/// * an **inserter** models a cache miss: `load_with_generation()` (the
///   index and the generation it was published with, read together),
///   "computes" on the loaded value and stores it under that stamp;
/// * a **writer** models the rollover: publish the new index, which bumps
///   the generation;
/// * a **prober** models a later request: read the current generation and
///   probe the cache with it.
///
/// The invariant is the cache's promise: a probe under the post-rollover
/// generation (2) must never be served the pre-rollover list (0). An
/// entry's stamp is the generation its value was published with, so a
/// stamp-2 entry always carries value 1 — unless the generation comparison
/// is mutated away.
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
/// with a recommendation list computed on the old index. (Both mutations
/// are excluded: the admission mutation shares the feature-unification
/// build, and the generation mutation is this model's own kill switch.)
#[cfg(not(any(
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
