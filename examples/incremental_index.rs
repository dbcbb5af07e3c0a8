//! Index lifecycle beyond the daily batch job (Section 7 future work):
//! incremental maintenance of the index as click batches arrive, plus the
//! serialised artefact and the varint-compressed query path.
//!
//! Run: `cargo run -p serenade-bench --release --example incremental_index`

use serenade_core::{SessionIndex, VmisConfig};
use serenade_dataset::{generate, SyntheticConfig};
use serenade_index::{read_index, write_index, CompressedIndex, IncrementalIndexer};

fn main() {
    let dataset = generate(&SyntheticConfig::tiny());
    let clicks = dataset.clicks;
    println!("{} clicks total", clicks.len());

    // Feed the log in three chronological batches.
    let third = clicks.len() / 3;
    let batches = [&clicks[..third], &clicks[third..2 * third], &clicks[2 * third..]];
    let mut indexer = IncrementalIndexer::new(500).expect("positive capacity");
    for (i, batch) in batches.iter().enumerate() {
        indexer.apply_batch(batch).expect("consistent batch");
        let sharing = indexer.take_sharing();
        println!(
            "after batch {}: {} sessions indexed ({} postings shared with the previous generation, {} written)",
            i + 1,
            indexer.num_sessions(),
            sharing.postings_shared,
            sharing.postings_copied
        );
    }
    let index = indexer.snapshot().expect("non-empty");

    // Sanity: identical to a from-scratch build over everything.
    let reference = SessionIndex::build(&clicks, 500).expect("non-empty");
    assert_eq!(index.stats(), reference.stats());
    println!("snapshot equals a from-scratch build over the full log");

    // Ship it: serialise to the binary artefact and load it back.
    let mut artefact = Vec::new();
    write_index(&index, &mut artefact).expect("serialise");
    let loaded = read_index(&artefact[..]).expect("valid artefact");
    println!(
        "artefact: {} bytes for {} posting entries",
        artefact.len(),
        loaded.stats().posting_entries
    );

    // Query the compressed representation directly.
    let compressed = CompressedIndex::from_index(&loaded);
    let raw_bytes = loaded.stats().posting_entries * std::mem::size_of::<u32>();
    println!(
        "compressed postings: {} bytes ({:.2}x smaller)",
        compressed.posting_bytes(),
        raw_bytes as f64 / compressed.posting_bytes() as f64
    );
    let some_item = loaded.items().next().expect("items exist");
    let recs = compressed.recommend(&[some_item], &VmisConfig::default()).expect("valid");
    println!("compressed-index recommendations for item {some_item}: {} items", recs.len());
}
