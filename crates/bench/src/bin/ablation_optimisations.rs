//! **A1** — ablation of VMIS-kNN's design choices.
//!
//! This ablation isolates three micro-design decisions of Section 3 on the
//! ecom-1m analogue:
//!
//! * early stopping on the recency-sorted posting lists,
//! * the simplified idf weighting (`log` vs VS-kNN's `1+log` vs none),
//! * the dropped `1/|s|` normalisation (ranking-neutral, so it must not
//!   change quality, only cost a multiply).
//!
//! Latency uses the neighbour computation (the part the optimisations
//! touch); quality is MRR@20 / Prec@20 on the held-out last day.
//!
//! Run: `cargo run -p serenade-bench --release --bin ablation_optimisations [--quick]`

use std::sync::Arc;
use std::time::Instant;

use serenade_bench::{prepare, print_table, BenchArgs};
use serenade_core::{IdfWeighting, SessionIndex, VmisConfig, VmisKnn};
use serenade_dataset::{Session, SyntheticConfig};
use serenade_metrics::{evaluate, EvalConfig};

fn mean_latency_us(vmis: &VmisKnn, sessions: &[Session], cap: usize) -> f64 {
    let mut scratch = vmis.scratch();
    // Warm up allocations once.
    if let Some(s) = sessions.first() {
        let _ = vmis.neighbors_with_scratch(&s.items, &mut scratch);
    }
    let mut total_us = 0u128;
    let mut n = 0usize;
    'outer: for s in sessions {
        for t in 1..=s.items.len() {
            let t0 = Instant::now();
            std::hint::black_box(vmis.neighbors_with_scratch(&s.items[..t], &mut scratch));
            total_us += t0.elapsed().as_micros();
            n += 1;
            if n >= cap {
                break 'outer;
            }
        }
    }
    total_us as f64 / n.max(1) as f64
}

fn main() {
    let args = BenchArgs::from_env();
    let config = SyntheticConfig::ecom_1m().scaled(0.5 * args.scale);
    let (_, split) = prepare(&config);
    let index = Arc::new(SessionIndex::build(&split.train, 1_000).unwrap());
    println!(
        "A1 ablation on {} ({} train clicks, {} test sessions)\n",
        config.name,
        split.train.len(),
        split.test.len()
    );

    let base = {
        let mut c = VmisConfig::default();
        c.m = 1_000;
        c.k = 100;
        c
    };
    let variants: Vec<(&str, VmisConfig)> = vec![
        ("baseline (early-stop, log idf)", base.clone()),
        ("no early stopping", VmisConfig { early_stopping: false, ..base.clone() }),
        ("idf: 1+log (VS-kNN)", VmisConfig { idf: IdfWeighting::OnePlusLog, ..base.clone() }),
        ("idf: none", VmisConfig { idf: IdfWeighting::None, ..base.clone() }),
        (
            "with 1/|s| normalisation",
            VmisConfig { normalize_by_session_length: true, ..base.clone() },
        ),
    ];

    let eval_cfg = EvalConfig {
        cutoff: 20,
        max_events: Some(args.max_events),
        record_latency: false,
    };
    let mut rows = Vec::new();
    for (name, cfg) in variants {
        let vmis = VmisKnn::new(Arc::clone(&index), cfg).unwrap();
        let latency = mean_latency_us(&vmis, &split.test, args.max_events);
        let quality = evaluate(&vmis, &split.test, &eval_cfg);
        rows.push(vec![
            name.to_string(),
            format!("{latency:.1}"),
            format!("{:.4}", quality.mrr),
            format!("{:.4}", quality.precision),
        ]);
        eprintln!("{name} done");
    }
    print_table(&["variant", "neighbour us/op", "MRR@20", "Prec@20"], &rows);
    println!(
        "\nExpected: early stopping changes latency, never quality\n\
         (identical neighbourhoods — property-tested); idf variants trade quality;\n\
         1/|s| normalisation is ranking-neutral (identical MRR/Prec)."
    );
}
