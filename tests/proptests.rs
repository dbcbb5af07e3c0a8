//! Property-based tests over the whole stack.
//!
//! Random click logs, configurations and value trees drive the invariants
//! that DESIGN.md §5 promises: index structure, bounded intermediate state,
//! exact equivalence of every execution strategy, lossless codecs, and
//! metric bounds.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use serenade_baselines::VsKnnBaseline;
use serenade_core::heap::DaryHeap;
use serenade_core::{
    Click, FxHashSet, HeapArity, ItemId, Recommender, SessionIndex, VmisConfig, VmisKnn,
};
use serenade_index::{read_index, write_index, CompressedIndex, IncrementalIndexer};
use serenade_metrics::ranking;
use serenade_serving::json::{self, JsonValue};

/// Random click logs: up to 25 sessions over 15 items, arbitrary (possibly
/// colliding) timestamps — timestamp ties are exactly the hard case for the
/// recency tie-breaking.
fn clicks_strategy() -> impl Strategy<Value = Vec<Click>> {
    vec((1u64..=25, 1u64..=15, 0u64..=400), 1..160).prop_map(|tuples| {
        tuples
            .into_iter()
            .map(|(s, i, t)| Click::new(s, i, t))
            .collect()
    })
}

fn session_strategy() -> impl Strategy<Value = Vec<ItemId>> {
    vec(1u64..=18, 0..8)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn index_structural_invariants(clicks in clicks_strategy(), m_max in 1usize..8) {
        let index = SessionIndex::build(&clicks, m_max).unwrap();
        let n = index.num_sessions();
        prop_assert!(n >= 1);
        // Timestamps ascending with dense id.
        for sid in 1..n as u32 {
            prop_assert!(index.session_timestamp(sid) >= index.session_timestamp(sid - 1));
        }
        for item in index.items() {
            let posting = index.postings(item).unwrap();
            prop_assert!(posting.len() <= m_max, "posting longer than m_max");
            prop_assert!(posting.len() as u32 <= index.item_support(item).unwrap());
            // Strictly descending ids, i.e. recency keys.
            for w in posting.windows(2) {
                prop_assert!(w[0] > w[1], "posting not strictly descending");
            }
            // Every listed session actually contains the item.
            for &sid in posting {
                prop_assert!(index.session_items(sid).contains(&item));
            }
        }
        // Session item lists are deduplicated.
        for sid in 0..n as u32 {
            let items = index.session_items(sid);
            let set: FxHashSet<ItemId> = items.iter().collect();
            prop_assert_eq!(set.len(), items.len());
        }
    }

    #[test]
    fn recommendation_output_invariants(
        clicks in clicks_strategy(),
        session in session_strategy(),
        m in 1usize..50,
        k in 1usize..20,
        how_many in 1usize..10,
        exclude in any::<bool>(),
    ) {
        let index = SessionIndex::build(&clicks, 50).unwrap();
        let mut cfg = VmisConfig::default();
        cfg.m = m;
        cfg.k = k;
        cfg.how_many = how_many;
        cfg.exclude_session_items = exclude;
        let vmis = VmisKnn::new(index, cfg).unwrap();
        let recs = vmis.recommend(&session);
        prop_assert!(recs.len() <= how_many);
        for w in recs.windows(2) {
            prop_assert!(
                w[0].score > w[1].score || (w[0].score == w[1].score && w[0].item < w[1].item)
            );
        }
        for r in &recs {
            prop_assert!(r.score.is_finite() && r.score > 0.0);
            if exclude {
                prop_assert!(!session.contains(&r.item));
            }
        }
        // Determinism.
        prop_assert_eq!(recs, vmis.recommend(&session));
    }

    #[test]
    fn vsknn_parity_on_random_logs(
        clicks in clicks_strategy(),
        sessions in vec(session_strategy(), 1..6),
        m in 1usize..30,
        k in 1usize..15,
    ) {
        let index = Arc::new(SessionIndex::build(&clicks, 50).unwrap());
        let mut cfg = VmisConfig::default();
        cfg.m = m;
        cfg.k = k;
        let vmis = VmisKnn::new(Arc::clone(&index), cfg.clone()).unwrap();
        let vs = VsKnnBaseline::new(index, cfg).unwrap();
        for s in &sessions {
            prop_assert_eq!(
                Recommender::recommend(&vs, s, 21),
                Recommender::recommend(&vmis, s, 21),
                "session {:?}", s
            );
        }
    }

    #[test]
    fn optimisations_never_change_results(
        clicks in clicks_strategy(),
        session in session_strategy(),
        m in 1usize..20,
    ) {
        let index = Arc::new(SessionIndex::build(&clicks, 50).unwrap());
        let mut base = VmisConfig::default();
        base.m = m;
        base.k = 10;
        let reference = VmisKnn::new(Arc::clone(&index), base.clone()).unwrap().recommend(&session);
        for arity in [HeapArity::Binary, HeapArity::Quaternary, HeapArity::Sedenary] {
            for early in [true, false] {
                let mut cfg = base.clone();
                cfg.heap_arity = arity;
                cfg.early_stopping = early;
                let out = VmisKnn::new(Arc::clone(&index), cfg).unwrap().recommend(&session);
                prop_assert_eq!(&out, &reference, "{:?}/early={}", arity, early);
            }
        }
    }

    #[test]
    fn binary_artefact_roundtrips(clicks in clicks_strategy(), m_max in 1usize..10) {
        let index = SessionIndex::build(&clicks, m_max).unwrap();
        let mut buf = Vec::new();
        write_index(&index, &mut buf).unwrap();
        let loaded = read_index(&buf[..]).unwrap();
        prop_assert_eq!(loaded.stats(), index.stats());
        for item in index.items() {
            prop_assert_eq!(loaded.postings(item), index.postings(item));
        }
    }

    #[test]
    fn compressed_postings_roundtrip_and_queries_match(
        clicks in clicks_strategy(),
        session in session_strategy(),
    ) {
        let index = Arc::new(SessionIndex::build(&clicks, 50).unwrap());
        let compressed = CompressedIndex::from_index(&index);
        for item in index.items() {
            let decoded: Vec<u32> = compressed.postings(item).unwrap().collect();
            prop_assert_eq!(index.postings(item).unwrap(), decoded);
        }
        let mut cfg = VmisConfig::default();
        cfg.m = 20;
        cfg.k = 10;
        let vmis = VmisKnn::new(Arc::clone(&index), cfg.clone()).unwrap();
        prop_assert_eq!(
            compressed.recommend(&session, &cfg).unwrap(),
            vmis.recommend(&session)
        );
    }

    #[test]
    fn incremental_indexer_equals_batch_build(
        clicks in clicks_strategy(),
        cuts in vec(0usize..160, 0..3),
        m_max in 1usize..8,
    ) {
        // Arbitrary (even overlapping / out-of-order) batch boundaries: the
        // indexer must take rebuild fallbacks as needed and stay correct.
        let mut sorted = clicks.clone();
        sorted.sort_unstable_by_key(|c| (c.timestamp, c.session_id, c.item_id));
        let mut boundaries: Vec<usize> = cuts.into_iter().map(|c| c % (sorted.len() + 1)).collect();
        boundaries.push(sorted.len());
        boundaries.sort_unstable();

        let mut indexer = IncrementalIndexer::new(m_max).unwrap();
        let mut start = 0usize;
        for &end in &boundaries {
            if end > start {
                indexer.apply_batch(&sorted[start..end]).unwrap();
                start = end;
            }
        }
        let reference = SessionIndex::build(&sorted, m_max).unwrap();
        let snapshot = indexer.snapshot().unwrap();
        prop_assert_eq!(snapshot.stats(), reference.stats());
        for item in reference.items() {
            prop_assert_eq!(snapshot.postings(item), reference.postings(item));
        }
    }

    #[test]
    fn dary_heap_matches_std_binary_heap(
        ops in vec((any::<bool>(), 0u64..1000), 1..200),
    ) {
        use std::cmp::Reverse;
        let mut ours: DaryHeap<u64, u32, 8> = DaryHeap::new();
        let mut reference = std::collections::BinaryHeap::new();
        for (push, key) in ops {
            if push || ours.is_empty() {
                ours.push(key, 0);
                reference.push(Reverse(key));
            } else {
                let a = ours.pop().map(|(k, _)| k);
                let b = reference.pop().map(|Reverse(k)| k);
                prop_assert_eq!(a, b);
            }
            prop_assert_eq!(ours.len(), reference.len());
            prop_assert_eq!(
                ours.peek().map(|&(k, _)| k),
                reference.peek().map(|&Reverse(k)| k)
            );
        }
    }

    #[test]
    fn ranking_metrics_are_bounded(
        predictions in vec(0u64..30, 0..20),
        relevant in vec(0u64..30, 0..10),
        target in 0u64..30,
    ) {
        let cutoff = predictions.len().max(1);
        let rel: FxHashSet<ItemId> = relevant.into_iter().collect();
        for v in [
            ranking::reciprocal_rank(&predictions, target),
            ranking::hit(&predictions, target),
            ranking::precision(&predictions, &rel, cutoff),
            ranking::recall(&predictions, &rel),
            ranking::average_precision(&predictions, &rel, cutoff),
        ] {
            prop_assert!((0.0..=1.0).contains(&v), "{}", v);
        }
        // Perfect single prediction.
        if !predictions.is_empty() && predictions[0] == target {
            prop_assert_eq!(ranking::reciprocal_rank(&predictions, target), 1.0);
        }
    }
}

/// Recursive strategy for arbitrary JSON values (integral numbers keep the
/// comparison exact; float formatting itself is covered by unit tests).
fn json_strategy() -> impl Strategy<Value = JsonValue> {
    let leaf = prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::Bool),
        (-1_000_000i64..1_000_000).prop_map(|n| JsonValue::Number(n as f64)),
        "[a-zA-Z0-9 _\\-\"\\\\\n\u{e9}]{0,12}".prop_map(JsonValue::String),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            vec(inner.clone(), 0..5).prop_map(JsonValue::Array),
            vec(("[a-z]{1,6}", inner), 0..5).prop_map(|fields| {
                JsonValue::Object(fields.into_iter().collect())
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn json_roundtrips(value in json_strategy()) {
        let text = value.to_json();
        let parsed = json::parse(&text).unwrap();
        prop_assert_eq!(parsed, value);
    }
}
