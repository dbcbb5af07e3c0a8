//! **§4.2 / §7 (M2)** — offline index generation: thread scaling and
//! artefact size.
//!
//! The paper builds its index with a daily Spark job (40 minutes on 75
//! n1-highmem-8 machines over 2.3B interactions) and ships ~13 GB of index
//! to each pod. The in-process analogue is the counting build behind
//! `serenade_index::build_parallel`: every pass over the clicks runs on
//! every worker thread, each owning a hash class of sessions or a range of
//! sessions (`serenade_core::index`, the `build` module). This binary
//! measures, on the training days of `ecom-1m` at 1× and 4× scale
//! (`SyntheticConfig::scaled`), over 1 and 2 threads (and every core, where
//! there are more):
//! - the build's wall time and its speed-up over 1 thread, split into its
//!   phases: the grouping's passes (number, sort, scatter, run sort), the
//!   item numbering, the rows and the postings;
//! - the time an ingest node takes to adopt the index
//!   (`IncrementalIndexer::adopt`) on as many threads;
//!
//! - the set-up stages around the build, on as many threads: generating
//!   the click log (`generate_with_threads`), splitting off the held-out day
//!   (`split_last_days_with_threads`), writing the artefact
//!   (`write_index_with_threads`) and loading it back
//!   (`read_index_with_threads`); every thread count must make the same
//!   bytes;
//!
//! and, at the first scale, the in-memory and serialised index sizes. Each
//! time is the median of five runs, the phases those of the median run.
//!
//! Run: `cargo run -p serenade-bench --release --bin index_build_scaling [--quick]`
//! (`--quick`: a tenth of each scale).

use std::time::{Duration, Instant};

use serenade_bench::{prepare, print_table, BenchArgs};
use serenade_core::{BuildPhases, Click, SessionIndex};
use serenade_dataset::split::split_last_days_with_threads;
use serenade_dataset::synthetic::generate_with_threads;
use serenade_dataset::SyntheticConfig;
use serenade_index::binfmt::{read_index_with_threads, write_index_with_threads};
use serenade_index::{write_index, IncrementalIndexer};

const M_MAX: usize = 500;
const RUNS: usize = 5;

fn ms(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

/// The median of `RUNS` runs of `f`, by the time each took.
fn median_of<T>(mut f: impl FnMut() -> (T, Duration)) -> (T, Duration) {
    let mut runs: Vec<(T, Duration)> = (0..RUNS).map(|_| f()).collect();
    runs.sort_by_key(|(_, took)| *took);
    runs.swap_remove(RUNS / 2)
}

/// One table row a thread count: generate, split, encode and decode, each
/// checked against the first thread count's output.
fn stage_rows(config: &SyntheticConfig, threads_list: &[usize]) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    let mut reference: Option<(Vec<Click>, Vec<Click>, Vec<u8>)> = None;
    for &threads in threads_list {
        let (clicks, generate) = median_of(|| {
            let t = Instant::now();
            (generate_with_threads(config, threads).clicks, t.elapsed())
        });
        let (split, split_ms) = median_of(|| {
            let t = Instant::now();
            (split_last_days_with_threads(&clicks, 1, threads), t.elapsed())
        });
        let index = SessionIndex::build_with_threads(&split.train, M_MAX, threads).unwrap();
        let (artefact, encode) = median_of(|| {
            let (mut artefact, t) = (Vec::new(), Instant::now());
            write_index_with_threads(&index, &mut artefact, threads).unwrap();
            (artefact, t.elapsed())
        });
        let (loaded, decode) = median_of(|| {
            let t = Instant::now();
            (read_index_with_threads(&artefact, threads).unwrap(), t.elapsed())
        });
        assert_eq!(loaded.stats(), index.stats(), "the artefact loads back");
        let (clicks_1, train_1, artefact_1) = reference
            .get_or_insert_with(|| (clicks.clone(), split.train.clone(), artefact.clone()));
        assert!(*clicks_1 == clicks, "every thread count generates one log");
        assert!(*train_1 == split.train, "every thread count splits alike");
        assert!(*artefact_1 == artefact, "every thread count writes one artefact");
        rows.push(vec![threads.to_string(), ms(generate), ms(split_ms), ms(encode), ms(decode)]);
    }
    rows
}

/// One table row a thread count: the build, its phases and the adopt.
fn scaling_rows(train: &[Click], threads_list: &[usize]) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    let (mut build_1, mut adopt_1) = (Duration::ZERO, Duration::ZERO);
    let mut reference = None;
    for &threads in threads_list {
        let ((index, phases), build) = median_of(|| {
            let t = Instant::now();
            let built = SessionIndex::build_timed(train, M_MAX, threads).expect("non-empty log");
            (built, t.elapsed())
        });
        let stats = index.stats();
        assert_eq!(*reference.get_or_insert(stats), stats, "every thread count builds one index");
        let (adopted, adopt) = median_of(|| {
            let mut indexer = IncrementalIndexer::new(M_MAX).expect("positive capacity");
            let t = Instant::now();
            let adopted = indexer.adopt(&index, train, threads);
            (adopted, t.elapsed())
        });
        assert!(adopted, "the index of the training clicks is adopted");
        if threads == 1 {
            (build_1, adopt_1) = (build, adopt);
        }
        let BuildPhases { group, items, rows: made, postings } = phases;
        rows.push(vec![
            threads.to_string(),
            ms(build),
            format!("{:.2}x", build_1.as_secs_f64() / build.as_secs_f64()),
            ms(group.number),
            ms(group.sort),
            ms(group.scatter),
            ms(group.run_sort),
            ms(items),
            ms(made),
            ms(postings),
            ms(adopt),
            format!("{:.2}x", adopt_1.as_secs_f64() / adopt.as_secs_f64()),
        ]);
        eprintln!("{threads} threads done");
    }
    rows
}

fn main() {
    let args = BenchArgs::from_env();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut threads_list = vec![1, 2];
    if cores > 2 {
        threads_list.push(cores.min(8));
    }
    println!("§4.2/§7 index generation; {cores} core(s) available\n");
    if cores == 1 {
        println!(
            "NOTE: single-core host — thread scaling is necessarily flat; the\n\
             property checked here degrades to 'parallel overhead stays small'.\n"
        );
    }

    let mut train_1x = Vec::new();
    for factor in [1.0, 4.0] {
        let scale = args.scale * factor;
        let config = SyntheticConfig::ecom_1m().scaled(scale);
        let (_, split) = prepare(&config);
        println!(
            "{} at {scale}× ({} training clicks), times in ms:",
            config.name,
            split.train.len()
        );
        print_table(
            &[
                "threads", "build", "speedup", "number", "sort", "scatter", "run sort", "items",
                "rows", "postings", "adopt", "speedup",
            ],
            &scaling_rows(&split.train, &threads_list),
        );
        println!("set-up stages, times in ms:");
        print_table(
            &["threads", "generate", "split", "encode", "decode"],
            &stage_rows(&config, &threads_list),
        );
        println!();
        if factor == 1.0 {
            train_1x = split.train;
        }
    }

    // Artefact and memory footprint, at the first scale.
    let index = SessionIndex::build_with_threads(&train_1x, M_MAX, cores).unwrap();
    let mut artefact = Vec::new();
    write_index(&index, &mut artefact).unwrap();
    let bytes = index.bytes();

    println!("footprint at {}×:", args.scale);
    print_table(
        &["structure", "bytes / ms"],
        &[
            vec!["in-memory: postings (arenas)".into(), bytes.postings.to_string()],
            vec!["in-memory: records + slot table".into(), bytes.posting_table.to_string()],
            vec!["in-memory: session items".into(), bytes.session_items.to_string()],
            vec!["in-memory: timestamps".into(), bytes.timestamps.to_string()],
            vec!["in-memory: slots".into(), bytes.slots.to_string()],
            vec!["in-memory index".into(), bytes.total().to_string()],
            vec!["serialised artefact".into(), artefact.len().to_string()],
        ],
    );
    println!(
        "\nPaper (§4.2/§7): daily data-parallel build; near-linear scaling with workers is\n\
         the property under reproduction."
    );
}
