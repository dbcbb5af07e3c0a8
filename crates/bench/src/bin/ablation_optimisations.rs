//! **A1** — ablation of VMIS-kNN's design choices.
//!
//! This ablation isolates three micro-design decisions of Section 3 on the
//! ecom-1m analogue:
//!
//! * the paper's early stopping and heaps, which the kernel replaces by one
//!   sort of the window's postings cut at `m`: the "no early stopping" row
//!   times the paper's walk without early stopping (`baselines::vmis_noopt`,
//!   binary heaps),
//! * the simplified idf weighting (`log` vs VS-kNN's `1+log` vs none),
//! * the dropped `1/|s|` normalisation (ranking-neutral, so it must not
//!   change quality, only cost a multiply).
//!
//! Latency uses the neighbour computation (the part the optimisations
//! touch); quality is MRR@20 / Prec@20 on the held-out last day.
//!
//! Run: `cargo run -p serenade-bench --release --bin ablation_optimisations [--quick]`

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use serenade_baselines::{vmis_noopt, NoOptScratch};
use serenade_bench::{prepare, print_table, BenchArgs};
use serenade_core::{IdfWeighting, ItemId, Recommender, SessionIndex, VmisConfig, VmisKnn};
use serenade_dataset::{Session, SyntheticConfig};
use serenade_metrics::{evaluate, EvalConfig};

/// Mean wall time of `neighbors` over growing session prefixes, at most
/// `cap` of them.
fn mean_latency_us(mut neighbors: impl FnMut(&[ItemId]), sessions: &[Session], cap: usize) -> f64 {
    // Warm up allocations once.
    if let Some(s) = sessions.first() {
        neighbors(&s.items);
    }
    let mut total_us = 0u128;
    let mut n = 0usize;
    'outer: for s in sessions {
        for t in 1..=s.items.len() {
            let t0 = Instant::now();
            neighbors(&s.items[..t]);
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
        ("baseline (sorted join, log idf)", base.clone()),
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
    let row = |name: &str, latency: f64, recommender: &dyn Recommender| {
        let quality = evaluate(recommender, &split.test, &eval_cfg);
        eprintln!("{name} done");
        vec![
            name.to_string(),
            format!("{latency:.1}"),
            format!("{:.4}", quality.mrr),
            format!("{:.4}", quality.precision),
        ]
    };
    let mut rows = Vec::new();
    for (name, cfg) in variants {
        let vmis = VmisKnn::new(Arc::clone(&index), cfg).unwrap();
        let mut scratch = vmis.scratch();
        let neighbors = |s: &[ItemId]| drop(black_box(vmis.neighbors_with_scratch(s, &mut scratch)));
        let latency = mean_latency_us(neighbors, &split.test, args.max_events);
        rows.push(row(name, latency, &vmis));
    }
    let noopt = vmis_noopt(Arc::clone(&index), base).unwrap();
    let mut scratch = NoOptScratch::default();
    let neighbors = |s: &[ItemId]| drop(black_box(noopt.neighbors_with_scratch(s, &mut scratch)));
    let latency = mean_latency_us(neighbors, &split.test, args.max_events);
    rows.insert(1, row("no early stopping (paper's walk)", latency, &noopt));
    print_table(&["variant", "neighbour us/op", "MRR@20", "Prec@20"], &rows);
    println!(
        "\nExpected: the paper's walk changes latency, never quality\n\
         (identical neighbourhoods — property-tested); idf variants trade quality;\n\
         1/|s| normalisation is ranking-neutral (identical MRR/Prec)."
    );
}
