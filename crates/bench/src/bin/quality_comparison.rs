//! **§5.1.1** — prediction-quality comparison (the Q1 experiment).
//!
//! Replicates the paper's state-of-the-art sanity check: VMIS-kNN against a
//! neural comparator (our from-scratch GRU4Rec), item-to-item collaborative
//! filtering (the legacy system), sequential rules and popularity, on five
//! samples of the ecom-1m-style dataset, reporting MAP@20 / Prec@20 / R@20 /
//! MRR@20 averaged over the samples.
//!
//! Paper reference values: VMIS-kNN MAP@20 = .0268 vs GRU4Rec .0251,
//! Prec@20 .0722 vs .0680 (NARM), R@20 .378 vs .359, MRR@20 .286 vs .255 —
//! i.e. the *ordering* VMIS-kNN > neural > classic baselines is the claim
//! under reproduction.
//!
//! Run: `cargo run -p serenade-bench --release --bin quality_comparison [--scale 0.2]`

use std::sync::Arc;

use serenade_baselines::itemknn::{ItemKnn, ItemKnnConfig};
use serenade_baselines::seqrules::{SequentialRules, SequentialRulesConfig};
use serenade_baselines::Popularity;
use serenade_bench::{prepare, print_table, BenchArgs};
use serenade_core::{machine_threads, Recommender, SessionIndex, VmisConfig, VmisKnn};
use serenade_dataset::SyntheticConfig;
use serenade_metrics::{evaluate_parallel, EvalConfig};
use serenade_neural::{Gru4Rec, Gru4RecConfig, Stamp, StampConfig};

fn main() {
    let args = BenchArgs::from_env();
    // Five monthly samples of the ecom-1m analogue, like the paper.
    let samples = 5;
    let base_scale = 0.12 * args.scale; // keep GRU training tractable
    println!(
        "§5.1.1 quality comparison over {samples} ecom-1m-style samples (scale {base_scale:.3})\n"
    );

    let mut sums: Vec<(String, [f64; 4], usize)> = Vec::new();
    let add = |name: &str, vals: [f64; 4], sums: &mut Vec<(String, [f64; 4], usize)>| {
        if let Some(e) = sums.iter_mut().find(|(n, _, _)| n == name) {
            for (a, b) in e.1.iter_mut().zip(vals) {
                *a += b;
            }
            e.2 += 1;
        } else {
            sums.push((name.to_string(), vals, 1));
        }
    };

    for sample in 0..samples {
        let config = SyntheticConfig::ecom_1m().scaled(base_scale).with_seed(100 + sample);
        let (_, split) = prepare(&config);
        eprintln!(
            "sample {sample}: {} train clicks, {} test sessions",
            split.train.len(),
            split.test.len()
        );

        let index = Arc::new(SessionIndex::build(&split.train, 5_000).unwrap());
        let mut vmis_cfg = VmisConfig::default();
        vmis_cfg.m = 500;
        vmis_cfg.k = 100;
        let vmis = VmisKnn::new(Arc::clone(&index), vmis_cfg).unwrap();

        let gru_cfg = Gru4RecConfig {
            epochs: if args.quick { 2 } else { 6 },
            ..Default::default()
        };
        let gru = Gru4Rec::fit(&split.train, gru_cfg);
        let stamp_cfg = StampConfig {
            epochs: if args.quick { 2 } else { 6 },
            ..Default::default()
        };
        let stamp = Stamp::fit(&split.train, stamp_cfg);
        let itemknn = ItemKnn::fit(&split.train, ItemKnnConfig::default());
        let seqrules = SequentialRules::fit(&split.train, SequentialRulesConfig::default());
        let popularity = Popularity::fit(&split.train);

        let eval_cfg = EvalConfig {
            cutoff: 20,
            max_events: Some(args.max_events),
            record_latency: false,
        };
        let threads = machine_threads();
        let recommenders: Vec<&dyn Recommender> =
            vec![&vmis, &gru, &stamp, &itemknn, &seqrules, &popularity];
        for rec in recommenders {
            let r = match rec.name() {
                "vmis-knn" => evaluate_parallel(&vmis, &split.test, &eval_cfg, threads),
                "gru4rec" => evaluate_parallel(&gru, &split.test, &eval_cfg, threads),
                "stamp" => evaluate_parallel(&stamp, &split.test, &eval_cfg, threads),
                "item-knn" => evaluate_parallel(&itemknn, &split.test, &eval_cfg, threads),
                "sequential-rules" => {
                    evaluate_parallel(&seqrules, &split.test, &eval_cfg, threads)
                }
                _ => evaluate_parallel(&popularity, &split.test, &eval_cfg, threads),
            };
            add(&r.name, [r.map, r.precision, r.recall, r.mrr], &mut sums);
        }
    }

    let rows: Vec<Vec<String>> = sums
        .iter()
        .map(|(name, vals, n)| {
            let n = *n as f64;
            vec![
                name.clone(),
                format!("{:.4}", vals[0] / n),
                format!("{:.4}", vals[1] / n),
                format!("{:.4}", vals[2] / n),
                format!("{:.4}", vals[3] / n),
            ]
        })
        .collect();
    println!();
    print_table(&["algorithm", "MAP@20", "Prec@20", "R@20", "MRR@20"], &rows);
    println!(
        "\nPaper (§5.1.1): VMIS-kNN .0268/.0722/.378/.286 vs best neural .0251/.0680/.359/.255;\n\
         the claim under reproduction is the ordering vmis-knn > gru4rec > classic baselines."
    );
}
