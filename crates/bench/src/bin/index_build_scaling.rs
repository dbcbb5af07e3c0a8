//! **§4.2 / §7 (M2)** — offline index generation: thread scaling and
//! artefact size.
//!
//! The paper builds its index with a daily Spark job (40 minutes on 75
//! n1-highmem-8 machines over 2.3B interactions) and ships ~13 GB of index
//! to each pod. The in-process analogue is the counting build behind
//! `serenade_index::build_parallel` (workers take ranges of sessions, then
//! ranges of items); this binary measures its scaling across worker
//! threads, the in-memory and serialised index sizes, and the time to write
//! the artefact and to load it back.
//!
//! Run: `cargo run -p serenade-bench --release --bin index_build_scaling [--quick]`

use std::time::Instant;

use serenade_bench::{prepare, print_table, BenchArgs};
use serenade_dataset::SyntheticConfig;
use serenade_index::{build_parallel, read_index, write_index, BuilderConfig};

fn main() {
    let args = BenchArgs::from_env();
    let config = SyntheticConfig::ecom_180m().scaled(args.scale);
    let (_, split) = prepare(&config);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "§4.2/§7 index generation over {} clicks ({} dataset analogue); {} core(s) available\n",
        split.train.len(),
        config.name,
        cores
    );
    if cores == 1 {
        println!("NOTE: single-core host — thread scaling is necessarily flat; the\nproperty checked here degrades to 'parallel overhead stays small'.\n");
    }

    let m_max = 500;
    let mut rows = Vec::new();
    let mut baseline = 0.0f64;
    let max_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(8);
    let mut threads_list = vec![1usize, 2, 4];
    if max_threads >= 8 {
        threads_list.push(8);
    }
    for &threads in &threads_list {
        let t0 = Instant::now();
        let index = build_parallel(&split.train, BuilderConfig { threads, m_max }).unwrap();
        let secs = t0.elapsed().as_secs_f64();
        if threads == 1 {
            baseline = secs;
        }
        rows.push(vec![
            threads.to_string(),
            format!("{secs:.2}s"),
            format!("{:.2}x", baseline / secs),
            index.stats().num_sessions.to_string(),
        ]);
        eprintln!("{threads} threads done");
    }
    print_table(&["threads", "build time", "speedup", "sessions"], &rows);

    // Artefact and memory footprint.
    let index = build_parallel(
        &split.train,
        BuilderConfig { threads: max_threads, m_max },
    )
    .unwrap();
    let stats = index.stats();
    let mut artefact = Vec::new();
    let t0 = Instant::now();
    write_index(&index, &mut artefact).unwrap();
    let write_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let loaded = read_index(&artefact).unwrap();
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(loaded.stats(), stats, "the artefact loads back");
    let posting_bytes = stats.posting_entries * std::mem::size_of::<u32>();

    println!("\nfootprint:");
    print_table(
        &["structure", "bytes / ms"],
        &[
            vec!["in-memory index".into(), index.bytes().total().to_string()],
            vec!["serialised artefact".into(), artefact.len().to_string()],
            vec!["posting lists".into(), posting_bytes.to_string()],
            vec!["write ms".into(), format!("{write_ms:.1}")],
            vec!["load ms".into(), format!("{load_ms:.1}")],
        ],
    );
    println!(
        "\nPaper (§4.2/§7): daily data-parallel build; near-linear scaling with workers is\n\
         the property under reproduction."
    );
}
