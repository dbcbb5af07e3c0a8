//! Model checks for the telemetry hot paths.
//!
//! Run with `cargo test -p serenade-telemetry --features loom`. The checker
//! (the in-tree `shims/loom`) explores thread interleavings up to a
//! preemption bound; under `--features loom` the crate's `sync` facade
//! routes every atomic through the shim, so each load/store/RMW below is a
//! scheduling point.
//!
//! The histograms here are deliberately tiny (`max_value_us` in the tens):
//! the model's step budget is per schedule, and a production-sized bucket
//! table would spend it on snapshot loads instead of interesting
//! interleavings.

#![cfg(feature = "loom")]

use std::sync::Arc;

use serenade_telemetry::{Histogram, HistogramConfig, TraceRing, TraceSample};

/// Relaxed per-shard counters must be lossless under merge: whatever the
/// interleaving of two recorders, the post-join snapshot accounts for every
/// observation exactly once, with exact sum/min/max.
#[test]
fn sharded_histogram_record_is_lossless_under_merge() {
    loom::model(|| {
        let h = Arc::new(Histogram::new(HistogramConfig { max_value_us: 31, shards: 2 }));
        let t1 = {
            let h = Arc::clone(&h);
            loom::thread::spawn(move || {
                h.record_us(3);
                h.record_us(70); // clamped to 31
            })
        };
        let t2 = {
            let h = Arc::clone(&h);
            loom::thread::spawn(move || h.record_us(5))
        };
        t1.join().unwrap();
        t2.join().unwrap();

        let s = h.snapshot();
        assert_eq!(s.count, 3, "a relaxed increment was lost in the merge");
        assert_eq!(s.sum_us, 3 + 31 + 5);
        assert_eq!(s.min_us, 3);
        assert_eq!(s.max_us, 31);
        assert_eq!(s.quantile_us(0.0), 3);
        assert_eq!(s.quantile_us(1.0), 31);
    });
}

/// A snapshot racing a recorder is a consistent subset: it may cut between
/// the recorder's bucket increments, but per-bucket counts never exceed
/// what was recorded and the post-race totals are bounded.
#[test]
fn concurrent_snapshot_is_a_subset() {
    loom::model(|| {
        let h = Arc::new(Histogram::new(HistogramConfig { max_value_us: 15, shards: 1 }));
        let writer = {
            let h = Arc::clone(&h);
            loom::thread::spawn(move || {
                h.record_us(2);
                h.record_us(9);
            })
        };
        let observed = h.snapshot();
        assert!(observed.count <= 2, "snapshot observed more than was recorded");
        writer.join().unwrap();
        assert_eq!(h.snapshot().count, 2);
    });
}

/// Two writers racing the same trace slot: the busy stripe must serialise
/// them (one drops its sample), and a post-join snapshot must hold exactly
/// one internally consistent sample — no field mixing between writers.
#[test]
fn trace_ring_writers_never_mix_fields() {
    fn sample(id: u64) -> TraceSample {
        TraceSample {
            request_id: id,
            total_us: id,
            session_us: id,
            predict_us: id,
            policy_us: id,
            session_len: id,
            depersonalised: false,
            postings_walked: id as u32,
            candidates: id as u32,
        }
    }

    loom::model(|| {
        let ring = Arc::new(TraceRing::new(1));
        let writers: Vec<_> = [7u64, 9]
            .into_iter()
            .map(|id| {
                let ring = Arc::clone(&ring);
                loom::thread::spawn(move || ring.record(&sample(id)))
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 1, "one slot cannot publish two samples");
        let s = snap[0];
        assert!(s.request_id == 7 || s.request_id == 9);
        assert_eq!(s, sample(s.request_id), "fields mixed across writers");
    });
}
