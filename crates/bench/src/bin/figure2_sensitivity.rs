//! **Figure 2** — sensitivity of MRR@20 and Prec@20 to the hyperparameters
//! `k` (neighbours) and `m` (recent sessions per item).
//!
//! Runs the paper's grid search (`k ∈ {50,100,500,1000,1500}` ×
//! `m ∈ {20,…,10000}`, restricted to `k ≤ m` — 55 combinations at full
//! scale) on the large synthetic datasets, holding out the last day, and
//! prints one heat-map table per dataset and metric. Lighter/larger = better
//! in the paper's figure; here the best cell per table is marked with `*`.
//!
//! Run: `cargo run -p serenade-bench --release --bin figure2_sensitivity [--quick]`

use std::sync::Arc;

use serenade_bench::{prepare, print_table, BenchArgs};
use serenade_core::{machine_threads, SessionIndex, VmisConfig, VmisKnn};
use serenade_dataset::SyntheticConfig;
use serenade_metrics::{evaluate_parallel, EvalConfig};

fn main() {
    let args = BenchArgs::from_env();
    let ks: Vec<usize> = if args.quick { vec![50, 100, 500] } else { vec![50, 100, 500, 1_000, 1_500] };
    let ms: Vec<usize> = if args.quick {
        vec![20, 100, 500, 1_000]
    } else {
        vec![20, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000]
    };
    let datasets = vec![
        SyntheticConfig::ecom_60m().scaled(0.3 * args.scale),
        SyntheticConfig::ecom_90m().scaled(0.3 * args.scale),
        SyntheticConfig::ecom_180m().scaled(0.3 * args.scale),
        SyntheticConfig::rsc15().scaled(0.3 * args.scale),
    ];
    let threads = machine_threads();

    for config in datasets {
        let (_, split) = prepare(&config);
        let index = Arc::new(SessionIndex::build(&split.train, *ms.last().unwrap()).unwrap());
        eprintln!(
            "{}: {} train clicks, {} test sessions",
            config.name,
            split.train.len(),
            split.test.len()
        );

        // grid[metric][k][m]
        let mut mrr = vec![vec![0.0f64; ms.len()]; ks.len()];
        let mut prec = vec![vec![0.0f64; ms.len()]; ks.len()];
        for (ki, &k) in ks.iter().enumerate() {
            for (mi, &m) in ms.iter().enumerate() {
                if k > m {
                    mrr[ki][mi] = f64::NAN;
                    prec[ki][mi] = f64::NAN;
                    continue;
                }
                let mut cfg = VmisConfig::default();
                cfg.k = k;
                cfg.m = m;
                let vmis = VmisKnn::new(Arc::clone(&index), cfg).unwrap();
                let eval_cfg = EvalConfig {
                    cutoff: 20,
                    max_events: Some(args.max_events),
                    record_latency: false,
                };
                let r = evaluate_parallel(&vmis, &split.test, &eval_cfg, threads);
                mrr[ki][mi] = r.mrr;
                prec[ki][mi] = r.precision;
            }
        }

        for (metric_name, grid) in [("MRR@20", &mrr), ("Prec@20", &prec)] {
            println!("\n{} — {metric_name} over (k, m):", config.name);
            let best = grid
                .iter()
                .flatten()
                .copied()
                .filter(|v| !v.is_nan())
                .fold(f64::MIN, f64::max);
            let mut rows = Vec::new();
            for (ki, &k) in ks.iter().enumerate() {
                let mut row = vec![format!("k={k}")];
                for &v in &grid[ki] {
                    row.push(if v.is_nan() {
                        "-".to_string()
                    } else if (v - best).abs() < 1e-12 {
                        format!("{v:.4}*")
                    } else {
                        format!("{v:.4}")
                    });
                }
                rows.push(row);
            }
            let mut headers: Vec<String> = vec!["".to_string()];
            headers.extend(ms.iter().map(|m| format!("m={m}")));
            let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
            print_table(&header_refs, &rows);
        }
    }
    println!(
        "\nPaper (Fig. 2): unimodal response per dataset/metric; optimum location differs\n\
         between MRR and Precision and between datasets — check the '*' cells move."
    );
}
