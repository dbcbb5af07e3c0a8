//! Hyperparameter grid search: tune the `(k, m)` of VMIS-kNN for a target
//! metric on held-out data — the offline-tuning workflow behind Figure 2.
//!
//! Run: `cargo run -p serenade-bench --release --example grid_search`

use std::sync::Arc;

use serenade_core::{machine_threads, SessionIndex, VmisConfig, VmisKnn};
use serenade_dataset::{generate, split_last_days, SyntheticConfig};
use serenade_metrics::{evaluate_parallel, EvalConfig};

fn main() {
    let dataset = generate(&SyntheticConfig::ecom_1m().scaled(0.03));
    let split = split_last_days(&dataset.clicks, 1);
    println!(
        "{}: {} train clicks, {} test sessions, {} prediction events\n",
        dataset.name,
        split.train.len(),
        split.test.len(),
        split.num_prediction_events()
    );

    let ms = [50usize, 100, 500, 1_000];
    let ks = [50usize, 100, 500];
    let index = Arc::new(SessionIndex::build(&split.train, *ms.last().unwrap()).unwrap());
    let threads = machine_threads();

    let mut best: Option<(f64, usize, usize)> = None;
    println!("{:>8} {:>8} {:>9} {:>9}", "k", "m", "MRR@20", "Prec@20");
    for &k in &ks {
        for &m in &ms {
            if k > m {
                continue;
            }
            let mut cfg = VmisConfig::default();
            cfg.k = k;
            cfg.m = m;
            let vmis = VmisKnn::new(Arc::clone(&index), cfg).unwrap();
            let eval = EvalConfig { cutoff: 20, max_events: Some(1_500), record_latency: false };
            let result = evaluate_parallel(&vmis, &split.test, &eval, threads);
            println!("{k:>8} {m:>8} {:>9.4} {:>9.4}", result.mrr, result.precision);
            if best.is_none_or(|(b, _, _)| result.mrr > b) {
                best = Some((result.mrr, k, m));
            }
        }
    }
    let (mrr, k, m) = best.expect("grid non-empty");
    println!("\nbest MRR@20 = {mrr:.4} at k = {k}, m = {m}");
    println!("(the paper tunes per dataset and per target metric — Figure 2)");
}
