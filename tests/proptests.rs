//! Property-based tests over the whole stack.
//!
//! Random click logs, configurations and JSON documents drive the invariants
//! that DESIGN.md §5 promises: index structure, bounded intermediate state,
//! exact equivalence of every execution strategy, lossless codecs, and
//! metric bounds.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use serenade_baselines::{vmis_noopt, VsKnnBaseline};
use serenade_core::{Click, FxHashSet, ItemId, Recommender, SessionIndex, VmisConfig, VmisKnn};
use serenade_index::{read_index, write_index, IncrementalIndexer};
use serenade_metrics::ranking;
use serenade_serving::json::{self, Value};

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
        let out = VmisKnn::new(Arc::clone(&index), base.clone()).unwrap();
        let reference = vmis_noopt(index, base).unwrap();
        prop_assert_eq!(
            Recommender::recommend(&out, &session, 21),
            Recommender::recommend(&reference, &session, 21)
        );
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

/// JSON text a reader must skip: arrays and objects nested at random
/// around numbers, literals and strings holding structural characters.
fn json_noise() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        Just(String::from("null")),
        any::<bool>().prop_map(|b| b.to_string()),
        (-1_000_000i64..1_000_000).prop_map(|n| format!("{n}e-3")),
        "[a-z\\[\\]\\{\\}\",:\\\\]{0,8}".prop_map(|s| json::object(|o| {
            o.str("s", &s);
        })),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            vec(inner.clone(), 0..4).prop_map(|items| format!("[{}]", items.join(","))),
            vec(("[a-z]{1,4}", inner), 0..4).prop_map(|fields| {
                let fields: Vec<String> =
                    fields.iter().map(|(k, v)| format!("\"{k}\" : {v}")).collect();
                format!("{{ {} }}", fields.join(" , "))
            }),
        ]
    })
}

/// Finite `f32` scores: any bit pattern that is one, and plain fractions.
fn score_strategy() -> impl Strategy<Value = f32> {
    prop_oneof![
        any::<u32>().prop_map(f32::from_bits).prop_map(|x| if x.is_finite() { x } else { 0.25 }),
        (0u32..1_000_000).prop_map(|n| n as f32 / 7.0),
    ]
}

/// Reads every part of `value`, as a client of the scanner would.
fn visit(value: Value<'_>) -> usize {
    let scalars = [
        value.as_u64().is_some(),
        value.as_f64().is_some(),
        value.as_bool().is_some(),
        value.as_str().is_some(),
    ];
    let fields = value.fields().into_iter().flatten().map(|(_, v)| 1 + visit(v)).sum::<usize>();
    let elements = value.elements().into_iter().flatten().map(|v| 1 + visit(v)).sum::<usize>();
    scalars.iter().filter(|&&s| s).count() + fields + elements
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    // What the writer emits, the scanner reads back exactly, with unknown
    // fields and elements of any shape around it.
    #[test]
    fn json_roundtrips(
        id in 0u64..=(1 << 53),
        score in score_strategy(),
        text in "[a-z \"\\\\/\n\r\t\u{1}\u{8}\u{c}\u{1f}\u{7f}é€😀]{0,16}",
        flag in any::<bool>(),
        noise in vec(json_noise(), 3..4),
    ) {
        let body = json::object(|o| {
            o.bool("flag", flag)
                .objects("items", [(id, score)], |o, (id, score)| {
                    o.u64("item_id", id).f64("score", f64::from(score));
                })
                .str("text", &text);
        });
        let fields = &body[1..body.len() - 1];
        let doc = format!("[{},{{\"a\":{},{fields},\"zz\":{}}}]", noise[0], noise[1], noise[2]);
        let elements: Vec<Value<'_>> = json::parse(&doc).unwrap().elements().unwrap().collect();
        prop_assert_eq!(elements.len(), 2);
        let read = elements[1];
        prop_assert_eq!(read.get("flag").and_then(Value::as_bool), Some(flag));
        let read_text = read.get("text").and_then(Value::as_str);
        prop_assert_eq!(read_text.as_deref(), Some(text.as_str()));
        let item = read.get("items").and_then(Value::elements).unwrap().next().unwrap();
        prop_assert_eq!(item.get("item_id").and_then(Value::as_u64), Some(id));
        prop_assert_eq!(item.get("score").and_then(Value::as_f64), Some(f64::from(score)));
        prop_assert_eq!(json::parse(&body).unwrap().fields().unwrap().count(), 3);
    }

    // No input makes the scanner panic, however it is read afterwards:
    // arbitrary bytes, and long runs of JSON's own characters.
    #[test]
    fn json_scanner_never_panics(
        text in prop_oneof![
            vec(any::<u8>(), 0..65_536).prop_map(|b| String::from_utf8_lossy(&b).into_owned()),
            "[\\[\\]\\{\\}\",:\\\\u0-9.eE+\\-tfrlsn \n\u{e9}]{0,65536}",
        ],
    ) {
        if let Ok(value) = json::parse(&text) {
            visit(value);
        }
    }
}
