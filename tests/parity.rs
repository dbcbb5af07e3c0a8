//! Cross-implementation parity: the paper requires that every
//! implementation variant of VMIS-kNN is "correctly implemented and provides
//! equal predictive performance" (Section 5.2.1). This suite verifies the
//! strongest form of that statement on a realistic synthetic workload:
//! bit-identical outputs for every implementation variant, including the
//! incremental (dataflow-style) one.

use std::sync::Arc;

use serenade_baselines::analogues::{
    AllocHeavyVmis, IncrementalVmis, PandasStyleVsKnn, SqlStyleVmis,
};
use serenade_baselines::{vmis_noopt, VsKnnBaseline};
use serenade_core::{ItemId, Recommender, SessionIndex, VmisConfig, VmisKnn};
use serenade_dataset::{generate, split_last_days, SyntheticConfig};

struct Fixture {
    index: Arc<SessionIndex>,
    config: VmisConfig,
    vmis: VmisKnn,
    sessions: Vec<Vec<ItemId>>,
}

fn fixture() -> Fixture {
    let dataset = generate(&SyntheticConfig::tiny().with_seed(99));
    let split = split_last_days(&dataset.clicks, 1);
    let index = Arc::new(SessionIndex::build(&split.train, 500).unwrap());
    let mut config = VmisConfig::default();
    config.m = 100;
    config.k = 25;
    let vmis = VmisKnn::new(Arc::clone(&index), config.clone()).unwrap();
    // Growing prefixes of real test sessions: the exact serving workload.
    let mut sessions = Vec::new();
    for s in split.test.iter().take(40) {
        for t in 1..=s.items.len() {
            sessions.push(s.items[..t].to_vec());
        }
    }
    assert!(sessions.len() > 60, "need a meaningful corpus");
    Fixture { index, config, vmis, sessions }
}

#[test]
fn vsknn_baseline_is_bit_identical() {
    let f = fixture();
    let vs = VsKnnBaseline::new(Arc::clone(&f.index), f.config.clone()).unwrap();
    for s in &f.sessions {
        assert_eq!(
            Recommender::recommend(&vs, s, 21),
            Recommender::recommend(&f.vmis, s, 21),
            "session {s:?}"
        );
    }
}

#[test]
fn no_opt_variant_is_bit_identical() {
    let f = fixture();
    let noopt = vmis_noopt(Arc::clone(&f.index), f.config.clone()).unwrap();
    for s in &f.sessions {
        assert_eq!(
            Recommender::recommend(&noopt, s, 21),
            Recommender::recommend(&f.vmis, s, 21),
            "session {s:?}"
        );
    }
}

#[test]
fn pandas_sql_and_alloc_analogues_are_bit_identical() {
    let f = fixture();
    let variants: Vec<Box<dyn Recommender>> = vec![
        Box::new(PandasStyleVsKnn::new(Arc::clone(&f.index), f.config.clone()).unwrap()),
        Box::new(SqlStyleVmis::new(Arc::clone(&f.index), f.config.clone()).unwrap()),
        Box::new(AllocHeavyVmis::new(Arc::clone(&f.index), f.config.clone()).unwrap()),
    ];
    for v in &variants {
        for s in &f.sessions {
            assert_eq!(
                v.recommend(s, 21),
                Recommender::recommend(&f.vmis, s, 21),
                "{} on {s:?}",
                v.name()
            );
        }
    }
}

#[test]
fn incremental_analogue_is_bit_identical() {
    let f = fixture();
    let incr = IncrementalVmis::new(Arc::clone(&f.index), f.config.clone()).unwrap();
    for s in &f.sessions {
        assert_eq!(
            Recommender::recommend(&incr, s, 21),
            Recommender::recommend(&f.vmis, s, 21),
            "session {s:?}"
        );
    }
}
