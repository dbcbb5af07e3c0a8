//! **X1 (§7 future work)** — incremental index maintenance.
//!
//! Section 7 proposes (i) running the similarity computation on a compressed
//! index and (ii) maintaining the index incrementally. `serenade-index`
//! implements the second (the first was measured and dropped, EXPERIMENTS.md
//! X1); this binary times incremental batch folding against a full rebuild
//! per batch.
//!
//! Run: `cargo run -p serenade-bench --release --bin future_work_index [--quick]`

use std::time::Instant;

use serenade_bench::{prepare, print_table, BenchArgs};
use serenade_core::{Click, SessionIndex};
use serenade_dataset::SyntheticConfig;
use serenade_index::IncrementalIndexer;

fn main() {
    let args = BenchArgs::from_env();
    let config = SyntheticConfig::ecom_60m().scaled(0.5 * args.scale);
    let (_, split) = prepare(&config);
    println!(
        "§7 future work on {} ({} train clicks)\n",
        config.name,
        split.train.len()
    );

    // Split the training log into daily batches by timestamp.
    let mut clicks = split.train.clone();
    clicks.sort_unstable_by_key(|c| c.timestamp);
    let batches: Vec<Vec<Click>> = {
        let day = 86_400u64;
        let mut out: Vec<Vec<Click>> = Vec::new();
        let first_day = clicks.first().map(|c| c.timestamp / day).unwrap_or(0);
        for c in &clicks {
            let d = (c.timestamp / day - first_day) as usize;
            if out.len() <= d {
                out.resize_with(d + 1, Vec::new);
            }
            out[d].push(*c);
        }
        out.into_iter().filter(|b| !b.is_empty()).collect()
    };

    let t0 = Instant::now();
    let mut incremental = IncrementalIndexer::new(1_000).unwrap();
    for b in &batches {
        incremental.apply_batch(b).unwrap();
    }
    let inc_time = t0.elapsed();

    let t0 = Instant::now();
    let mut all: Vec<Click> = Vec::new();
    for b in &batches {
        all.extend_from_slice(b);
        std::hint::black_box(SessionIndex::build(&all, 1_000).unwrap());
    }
    let rebuild_time = t0.elapsed();

    print_table(
        &["strategy", "batches", "total time"],
        &[
            vec![
                "incremental fold".into(),
                batches.len().to_string(),
                format!("{:.2}s", inc_time.as_secs_f64()),
            ],
            vec![
                "full rebuild per batch".into(),
                batches.len().to_string(),
                format!("{:.2}s", rebuild_time.as_secs_f64()),
            ],
        ],
    );
    println!(
        "incremental speedup over rebuild-per-batch: {:.1}x",
        rebuild_time.as_secs_f64() / inc_time.as_secs_f64().max(1e-9)
    );
    println!("\nExpected: incremental folding beats daily full rebuilds by a growing factor.");
}
