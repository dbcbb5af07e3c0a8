//! A compact A/B test: serenade-hist vs serenade-recent vs the legacy
//! item-to-item recommender, with a simulated diurnal traffic curve and a
//! ground-truth engagement model (Section 5.2.3 in miniature).
//!
//! Run: `cargo run -p serenade-bench --release --example ab_simulation`

use std::sync::Arc;

use serenade_baselines::itemknn::{ItemKnn, ItemKnnConfig};
use serenade_bench::absim::{run_ab_test, AbConfig, AbVariant, SessionView};
use serenade_core::{SessionIndex, VmisConfig, VmisKnn};
use serenade_dataset::{generate, split_last_days, SyntheticConfig};

fn main() {
    let dataset = generate(&SyntheticConfig::ecom_1m().scaled(0.05));
    let split = split_last_days(&dataset.clicks, 1);
    println!(
        "pool: {} test sessions over {} training clicks\n",
        split.test.len(),
        split.train.len()
    );

    let index = Arc::new(SessionIndex::build(&split.train, 500).unwrap());
    let mut cfg = VmisConfig::default();
    cfg.m = 500;
    cfg.k = 100;
    let vmis = Arc::new(VmisKnn::new(index, cfg).unwrap());
    let legacy = Arc::new(ItemKnn::fit(&split.train, ItemKnnConfig::default()));

    let variants = vec![
        AbVariant {
            name: "legacy".into(),
            recommender: Arc::clone(&legacy) as _,
            view: SessionView::LastN(1),
        },
        AbVariant {
            name: "serenade-hist".into(),
            recommender: Arc::clone(&vmis) as _,
            view: SessionView::LastN(2),
        },
        AbVariant {
            name: "serenade-recent".into(),
            recommender: Arc::clone(&vmis) as _,
            view: SessionView::LastN(1),
        },
    ];
    let config = AbConfig { days: 7, peak_sessions_per_hour: 12, how_many: 21, seed: 7 };
    let report = run_ab_test(&variants, legacy.as_ref(), &split.test, config);

    println!("{:>16} {:>9} {:>10} {:>12} {:>10}", "variant", "events", "slot rate", "other slot", "site rate");
    for v in &report.variants {
        println!(
            "{:>16} {:>9} {:>10.4} {:>12.4} {:>10.4}",
            v.name,
            v.events,
            v.slot_rate(),
            v.other_slot_rate(),
            v.site_rate()
        );
    }
    for arm in ["serenade-hist", "serenade-recent"] {
        if let Some(lift) = report.slot_lift_pct(arm, "legacy") {
            println!("{arm}: {lift:+.2}% slot engagement vs legacy");
        }
    }
    let peak = report.hourly.iter().map(|h| h.requests).max().unwrap_or(0);
    let trough = report.hourly.iter().map(|h| h.requests).min().unwrap_or(0);
    println!("\ndiurnal traffic: {trough}..{peak} requests per simulated hour");
}
