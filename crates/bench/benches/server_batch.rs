//! Coalesced-batch vs sequential VMIS-kNN scoring — the dispatch queue's
//! justification, measured.
//!
//! The event-loop server coalesces concurrent predicts into one
//! `recommend_batch` call. This harness measures what that buys on the
//! traffic shape coalescing targets — a **flash crowd**: a burst of
//! depersonalised predicts concentrated on a few hot items, so many batch
//! members share a capped window and the batch kernel dedupes them into a
//! single scoring pass. For contrast it also reports a zero-duplicate batch
//! (16 distinct items), where only the interleaved posting traversal can
//! help and the win is expected to be modest.
//!
//! The acceptance bar is structural *and* quantitative:
//!
//! * batch output must be bit-identical to the sequential kernel on the
//!   same views (the differential suite proves this on random inputs; this
//!   harness re-asserts it on its own traffic);
//! * flash-crowd batch-16 throughput must be ≥ 1.5× sequential.
//!
//! Results land in the repo-root `BENCH_server.json`. With `--check`, the
//! harness instead *reads* the committed artefact and fails if the fresh
//! flash-crowd per-request p99 regressed more than 10% against it — the
//! `scripts/check.sh` SLA gate. Timings use best-of-round minima and
//! p99-over-rounds, which are stable under scheduler noise.
//!
//! A plain binary (`harness = false`): it needs a machine-readable artefact
//! plus hard assertions.

use std::sync::Arc;
use std::time::{Duration, Instant};

use serenade_core::{SessionIndex, VmisConfig, VmisKnn};
use serenade_dataset::{generate, SyntheticConfig};

const BATCH: usize = 16;
/// Distinct hot items in the flash-crowd batch: 16 members / 4 items = 4×
/// window duplication, the dedupe factor a hot product page produces.
const HOT_ITEMS: usize = 4;
const ROUNDS: usize = 400;

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Best-of-round total and p99-over-rounds for one scoring closure.
fn measure(mut round: impl FnMut()) -> (Duration, Duration) {
    let mut samples = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        round();
        samples.push(t0.elapsed());
    }
    samples.sort();
    let p99 = samples[((samples.len() - 1) as f64 * 0.99).round() as usize];
    (samples[0], p99)
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");

    let dataset = generate(&SyntheticConfig::ecom_1m().scaled(0.05));
    let index = Arc::new(SessionIndex::build(&dataset.clicks, 500).unwrap());
    let vmis = VmisKnn::new(Arc::clone(&index), VmisConfig::default()).unwrap();

    // The most-clicked items are the flash crowd's hot products.
    let mut counts: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    for click in &dataset.clicks {
        *counts.entry(click.item_id).or_default() += 1;
    }
    let mut by_popularity: Vec<u64> = counts.keys().copied().collect();
    by_popularity.sort_by_key(|item| std::cmp::Reverse(counts[item]));
    assert!(by_popularity.len() >= BATCH, "catalogue too small for the batch");

    // Flash crowd: 16 single-item views over 4 hot items (4× duplication).
    let crowd_items: Vec<[u64; 1]> =
        (0..BATCH).map(|i| [by_popularity[i % HOT_ITEMS]]).collect();
    let crowd: Vec<&[u64]> = crowd_items.iter().map(|w| w.as_slice()).collect();
    // Contrast batch: 16 distinct items, no dedupe available.
    let distinct_items: Vec<[u64; 1]> = (0..BATCH).map(|i| [by_popularity[i]]).collect();
    let distinct: Vec<&[u64]> = distinct_items.iter().map(|w| w.as_slice()).collect();

    // Bit-identity on this harness's own traffic.
    let mut bscratch = vmis.batch_scratch();
    let mut scratch = vmis.scratch();
    for views in [&crowd, &distinct] {
        let batched = vmis.recommend_batch(views, &mut bscratch);
        for (view, got) in views.iter().zip(&batched) {
            let want = vmis.recommend_with_scratch(view, &mut scratch);
            assert_eq!(&want, got, "batch output diverged from sequential");
        }
    }

    let (seq_min, seq_p99) = measure(|| {
        for view in &crowd {
            std::hint::black_box(vmis.recommend_with_scratch(view, &mut scratch));
        }
    });
    let (batch_min, batch_p99) = measure(|| {
        std::hint::black_box(vmis.recommend_batch(&crowd, &mut bscratch));
    });
    let (dseq_min, _) = measure(|| {
        for view in &distinct {
            std::hint::black_box(vmis.recommend_with_scratch(view, &mut scratch));
        }
    });
    let (dbatch_min, _) = measure(|| {
        std::hint::black_box(vmis.recommend_batch(&distinct, &mut bscratch));
    });

    let speedup = micros(seq_min) / micros(batch_min);
    let distinct_speedup = micros(dseq_min) / micros(dbatch_min);
    let per_request = |d: Duration| micros(d) / BATCH as f64;

    println!("server_batch: batch={BATCH}, {HOT_ITEMS} hot items, {ROUNDS} rounds");
    println!(
        "  flash crowd  sequential: {:>8.2}us/batch ({:.2}us/req, p99 {:.2}us/req)",
        micros(seq_min),
        per_request(seq_min),
        per_request(seq_p99)
    );
    println!(
        "  flash crowd  batched:    {:>8.2}us/batch ({:.2}us/req, p99 {:.2}us/req)  {speedup:.2}x",
        micros(batch_min),
        per_request(batch_min),
        per_request(batch_p99)
    );
    println!(
        "  all distinct batched:    {:>8.2}us vs {:>8.2}us sequential  {distinct_speedup:.2}x",
        micros(dbatch_min),
        micros(dseq_min)
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_server.json");
    if check_mode {
        // SLA gate: the fresh flash-crowd per-request p99 must be within
        // 10% of the committed baseline.
        let committed = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("--check needs a committed {path}: {e}"));
        let needle = "\"batch_p99_per_request_us\": ";
        let at = committed.find(needle).expect("baseline field missing");
        let rest = &committed[at + needle.len()..];
        let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
        let baseline: f64 = rest[..end].trim().parse().expect("baseline p99 unparsable");
        let fresh = per_request(batch_p99);
        println!("  p99 gate: fresh {fresh:.2}us vs committed {baseline:.2}us (+10% allowed)");
        assert!(
            fresh <= baseline * 1.10,
            "batch p99 regressed >10%: {fresh:.2}us vs committed {baseline:.2}us"
        );
    } else {
        let json = format!(
            "{{\n  \"bench\": \"server_batch\",\n  \"batch_size\": {BATCH},\n  \"hot_items\": {HOT_ITEMS},\n  \"rounds\": {ROUNDS},\n  \"flash_crowd\": {{\"sequential_us\": {:.2}, \"batch_us\": {:.2}, \"speedup\": {:.2}}},\n  \"all_distinct\": {{\"sequential_us\": {:.2}, \"batch_us\": {:.2}, \"speedup\": {:.2}}},\n  \"batch_p99_per_request_us\": {:.2}\n}}\n",
            micros(seq_min),
            micros(batch_min),
            speedup,
            micros(dseq_min),
            micros(dbatch_min),
            distinct_speedup,
            per_request(batch_p99),
        );
        std::fs::write(path, &json).unwrap();
        println!("  wrote {path}");
    }

    assert!(
        speedup >= 1.5,
        "flash-crowd batch-{BATCH} must be at least 1.5x sequential, got {speedup:.2}x"
    );
}
