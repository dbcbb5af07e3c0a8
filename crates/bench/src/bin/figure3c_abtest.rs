//! **Figure 3(c) + §5.2.3** — the three-week A/B test.
//!
//! Simulates the paper's online experiment: user sessions randomly assigned
//! to `serenade-hist` (last two items), `serenade-recent` (last item) or the
//! `legacy` item-to-item recommender, over 21 simulated days with a diurnal
//! traffic curve. Reports (i) hour-by-hour request rate and latency
//! percentiles — the Figure 3(c) series — and (ii) the engagement outcomes:
//! slot engagement lift over legacy, plus the site-wide view that exposes
//! `serenade-recent`'s cannibalisation of the neighbouring slot.
//!
//! Paper reference: +2.85% (hist) and +5.72% (recent) slot engagement vs
//! legacy; recent cannibalises the "often bought together" slot, hist does
//! not; p90 latency ~5 ms at 200–600 rps.
//!
//! Run: `cargo run -p serenade-bench --release --bin figure3c_abtest [--quick]`

use std::sync::Arc;

use serenade_baselines::itemknn::{ItemKnn, ItemKnnConfig};
use serenade_bench::absim::{run_ab_test, AbConfig, AbVariant, SessionView};
use serenade_bench::{fmt_us, prepare, print_table, BenchArgs};
use serenade_core::{SessionIndex, VmisConfig, VmisKnn};
use serenade_dataset::SyntheticConfig;

fn main() {
    let args = BenchArgs::from_env();
    let config = SyntheticConfig::ecom_90m().scaled(0.5 * args.scale);
    let (_, split) = prepare(&config);
    // The paper's production setting: m = 500, k = 500.
    let index = Arc::new(SessionIndex::build(&split.train, 500).unwrap());
    let mut vmis_cfg = VmisConfig::default();
    vmis_cfg.m = 500;
    vmis_cfg.k = 500;
    let vmis = Arc::new(VmisKnn::new(index, vmis_cfg).unwrap());
    let itemknn = Arc::new(ItemKnn::fit(&split.train, ItemKnnConfig::default()));

    let variants = vec![
        AbVariant {
            name: "legacy".into(),
            recommender: Arc::clone(&itemknn) as _,
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

    let ab_cfg = AbConfig {
        days: if args.quick { 3 } else { 21 },
        peak_sessions_per_hour: if args.quick { 10 } else { 40 },
        how_many: 21,
        seed: 42,
    };
    println!(
        "Figure 3(c) / §5.2.3 A/B simulation: {} days, {} test sessions in pool\n",
        ab_cfg.days,
        split.test.len()
    );
    let report = run_ab_test(&variants, itemknn.as_ref(), &split.test, ab_cfg);

    // Engagement outcomes.
    let mut rows = Vec::new();
    for v in &report.variants {
        rows.push(vec![
            v.name.clone(),
            v.sessions.to_string(),
            v.events.to_string(),
            format!("{:.4}", v.slot_rate()),
            format!("{:.4}", v.other_slot_rate()),
            format!("{:.4}", v.site_rate()),
        ]);
    }
    print_table(
        &["variant", "sessions", "events", "slot rate", "other-slot rate", "site rate"],
        &rows,
    );
    for arm in ["serenade-hist", "serenade-recent"] {
        if let Some(lift) = report.slot_lift_pct(arm, "legacy") {
            println!("{arm}: slot engagement lift vs legacy = {lift:+.2}%");
        }
    }
    let other = |name: &str| {
        report.variants.iter().find(|v| v.name == name).map(|v| v.other_slot_rate())
    };
    if let (Some(l), Some(h), Some(r)) =
        (other("legacy"), other("serenade-hist"), other("serenade-recent"))
    {
        println!(
            "other-slot rate: legacy {l:.4}, hist {h:.4}, recent {r:.4} \
             (recent < hist indicates cannibalisation)"
        );
    }

    // Hour-by-hour latency/traffic series (sampled: first day, every 3h).
    println!("\nhourly series (day 0, every 3 hours):");
    let mut hrows = Vec::new();
    for h in report.hourly.iter().filter(|h| h.day == 0 && h.hour % 3 == 0) {
        if let Some(l) = h.latency {
            hrows.push(vec![
                format!("{:02}:00", h.hour),
                h.requests.to_string(),
                fmt_us(l.p75_us),
                fmt_us(l.p90_us),
                fmt_us(l.p995_us),
            ]);
        }
    }
    print_table(&["hour", "requests", "p75", "p90", "p99.5"], &hrows);
    println!(
        "\nPaper (Fig. 3c / §5.2.3): 200-600 rps diurnal swing, p90 ~5ms; slot lifts\n\
         +2.85% (hist) / +5.72% (recent) vs legacy; recent cannibalises the other slot."
    );
}
