//! **X1 (§7 future work)** — compressed-index queries and incremental
//! maintenance.
//!
//! Section 7 proposes (i) running the similarity computation on a compressed
//! index and (ii) maintaining the index incrementally. Both are implemented
//! in `serenade-index`; this binary quantifies them:
//!
//! * query latency of the varint-compressed index vs the plain one (same
//!   outputs, verified by the test suite);
//! * incremental batch folding vs full rebuild per batch.
//!
//! Run: `cargo run -p serenade-bench --release --bin future_work_index [--quick]`

use std::sync::Arc;
use std::time::Instant;

use serenade_bench::{fmt_us, prepare, print_table, BenchArgs};
use serenade_core::{Click, SessionIndex, VmisConfig, VmisKnn};
use serenade_dataset::SyntheticConfig;
use serenade_index::{CompressedIndex, IncrementalIndexer};
use serenade_metrics::LatencyRecorder;

fn main() {
    let args = BenchArgs::from_env();
    let config = SyntheticConfig::ecom_60m().scaled(0.5 * args.scale);
    let (_, split) = prepare(&config);
    let index = Arc::new(SessionIndex::build(&split.train, 1_000).unwrap());
    let mut cfg = VmisConfig::default();
    cfg.m = 1_000;
    cfg.k = 100;
    println!(
        "§7 future work on {} ({} train clicks)\n",
        config.name,
        split.train.len()
    );

    // ---- Compressed-index queries. ---------------------------------------
    let vmis = VmisKnn::new(Arc::clone(&index), cfg.clone()).unwrap();
    let compressed = CompressedIndex::from_index(&index);
    let mut plain = LatencyRecorder::new();
    let mut comp = LatencyRecorder::new();
    let mut scratch = vmis.scratch();
    let cap = args.max_events;
    let mut n = 0usize;
    'outer: for s in &split.test {
        for t in 1..=s.items.len() {
            let prefix = &s.items[..t];
            let t0 = Instant::now();
            std::hint::black_box(vmis.recommend_with_scratch(prefix, &mut scratch));
            plain.record(t0.elapsed());
            let t0 = Instant::now();
            std::hint::black_box(compressed.recommend(prefix, &cfg).unwrap());
            comp.record(t0.elapsed());
            n += 1;
            if n >= cap {
                break 'outer;
            }
        }
    }
    let p = plain.summary().unwrap();
    let c = comp.summary().unwrap();
    let raw_bytes = index.stats().posting_entries * std::mem::size_of::<u32>();
    print_table(
        &["index", "posting bytes", "query p50", "query p90"],
        &[
            vec![
                "plain".into(),
                raw_bytes.to_string(),
                fmt_us(p.p50_us),
                fmt_us(p.p90_us),
            ],
            vec![
                "varint-compressed".into(),
                compressed.posting_bytes().to_string(),
                fmt_us(c.p50_us),
                fmt_us(c.p90_us),
            ],
        ],
    );
    println!(
        "compression {:.2}x, query slowdown p50 {:.2}x\n",
        raw_bytes as f64 / compressed.posting_bytes() as f64,
        c.p50_us as f64 / p.p50_us.max(1) as f64
    );

    // ---- Incremental maintenance. ----------------------------------------
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
    println!(
        "\nExpected: modest query overhead on the compressed index for a multiple of\n\
         space saved; incremental folding beats daily full rebuilds by a growing factor."
    );
}
