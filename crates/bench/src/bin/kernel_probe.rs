//! **Kernel probe** — the VMIS-kNN kernel alone, in process, on the
//! requests `replay.inproc` sends.
//!
//! Builds the index of `ecom-1m` (seed 1, `m_max` 500) without its last
//! day, then replays the held-out day click by click as growing sessions —
//! 40,000 requests at the serving defaults: `m` 500, `k` 100, a 9-item
//! window, twice the engine's 21 recommendations, as a node with business
//! rules asks for (one without asks for 21) — through one
//! `recommend_with_scratch` on one thread. One warm-up pass, then three
//! timed passes. It prints:
//!
//! * an FNV-1a fingerprint over every answer's items and score bits, so two
//!   builds can be shown to answer identically;
//! * the per-request wall time: p50, p99 and mean, of the join alone
//!   (`neighbors_with_scratch`, which also collects the `k` neighbours into
//!   a list the kernel does not make), in passes of its own; then, in the
//!   same passes, back to back for each request, of the join with the score
//!   phase (`score_with_scratch`), of the extraction (`take_top`) and of
//!   the two together — the kernel, with one clock read more than a
//!   `recommend_with_scratch` makes. The score phase's mean is the
//!   difference of its stage's mean and the join's; the extraction is timed
//!   on its own (no clock is read inside the kernel);
//! * the kernel's work counters (`KernelWork`) by percentile, so a time
//!   can be told apart as many posting entries to sort, a sample cut at
//!   `m`, or many neighbour items to score;
//! * `SessionIndex::bytes()` by structure, the kernel's idf table and their
//!   total, and how many segments store their slots and their row offsets
//!   at each width.
//!
//! `--drift-per-day D` sets the generator's popularity drift (the preset is
//! 0.004; 0 keeps the popularity head in place, so the window's postings
//! sum past `m` and the kernel cuts its sample at `m`). `--scale X` scales
//! the dataset; `--quick` runs a tenth of the dataset and of the requests.
//!
//! One thread and no sockets, so pinning it gives a stable figure; compare
//! two builds by alternating them on the same core:
//!
//! `taskset -c 1 cargo run -p serenade-bench --release --bin kernel_probe -- --drift-per-day 0`

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use serenade_bench::{build_index, prepare, print_table, BenchArgs};
use serenade_core::{ItemId, KernelWork, VmisConfig, VmisKnn};
use serenade_dataset::SyntheticConfig;
use serenade_serving::EngineConfig;

/// Requests replayed at full size.
const REQUESTS: usize = 40_000;
/// Timed passes over the requests, after one warm-up pass.
const PASSES: usize = 3;
/// Posting capacity of every index the serving path builds.
const M_MAX: usize = 500;
/// Items of a session the engine keeps and hands to the kernel.
const STORED: usize = 50;
/// Seconds between the clicks of a held-out session, as the replay paces
/// them.
const CLICK_GAP_SECS: u64 = 30;

/// A `KernelWork` counter by name.
type Counter = (&'static str, fn(&KernelWork) -> u32);


/// Where a 64-bit FNV-1a hash starts.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a of `bytes`, continued from `hash`: the answers'
/// fingerprint, so two builds can be held to the same output bits.
fn fnv1a(hash: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(hash, |h, byte| (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// `q`-quantile of `sorted`, by nearest rank.
fn quantile<T: Copy>(sorted: &[T], q: f64) -> T {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// The value of `--drift-per-day`, if given.
fn drift_per_day() -> Option<f64> {
    let args: Vec<String> = std::env::args().collect();
    let at = args.iter().position(|a| a == "--drift-per-day")?;
    let value = args.get(at + 1).and_then(|v| v.parse().ok());
    Some(value.expect("--drift-per-day takes a number"))
}

fn main() {
    let args = BenchArgs::from_env();
    let mut config = SyntheticConfig::ecom_1m().with_seed(1).scaled(args.scale);
    if let Some(drift) = drift_per_day() {
        config.drift_per_day = drift;
    }
    let requests = if args.quick { REQUESTS / 10 } else { REQUESTS };
    let (_, split) = prepare(&config);
    let index = build_index(&split.train, M_MAX);
    let bytes = index.bytes();

    // The held-out day as the replay sends it: clicks in time order, each a
    // request for the session so far.
    let mut clicks: Vec<(u64, u64, ItemId)> = (split.test.iter())
        .flat_map(|s| {
            let at = |i: usize| s.start + i as u64 * CLICK_GAP_SECS;
            s.items.iter().enumerate().map(move |(i, &item)| (at(i), s.id, item))
        })
        .collect();
    clicks.sort_unstable_by_key(|&(ts, session, _)| (ts, session));
    let mut sessions: HashMap<u64, Vec<ItemId>> = HashMap::new();
    let windows: Vec<Vec<ItemId>> = (clicks.iter().take(requests))
        .map(|&(_, session, item)| {
            let items = sessions.entry(session).or_default();
            items.push(item);
            items[items.len().saturating_sub(STORED)..].to_vec()
        })
        .collect();
    // A node holds the index and no click log: the kernel runs beside what
    // it would run beside in one.
    drop((split, clicks, sessions));

    let engine = EngineConfig::default();
    let kernel = VmisConfig { how_many: engine.how_many * 2, ..engine.vmis };
    let (m, k, window) = (kernel.m, kernel.k, kernel.max_session_len);
    let vmis = VmisKnn::new(index, kernel).expect("valid config");
    let mut scratch = vmis.scratch();
    let mut work: Vec<KernelWork> = Vec::with_capacity(windows.len());
    let mut answers = FNV_OFFSET;
    for session in &windows {
        for rec in vmis.recommend_with_scratch(session, &mut scratch) {
            let bytes = rec.item.to_le_bytes().into_iter().chain(rec.score.to_bits().to_le_bytes());
            answers = fnv1a(answers, bytes);
        }
        work.push(scratch.work());
    }
    // Per request: the join in passes of its own; then join + score, the
    // extraction and the kernel, read off three clock reads a request.
    let [mut join, mut scored, mut extracted, mut kernel] =
        std::array::from_fn(|_| Vec::with_capacity(PASSES * windows.len()));
    for _ in 0..PASSES {
        for session in &windows {
            let t0 = Instant::now();
            std::hint::black_box(vmis.neighbors_with_scratch(session, &mut scratch));
            join.push(t0.elapsed().as_nanos() as u64);
        }
        for session in &windows {
            let t0 = Instant::now();
            vmis.score_with_scratch(session, &mut scratch);
            let t1 = Instant::now();
            std::hint::black_box(vmis.take_top(&mut scratch));
            let t2 = Instant::now();
            scored.push((t1 - t0).as_nanos() as u64);
            extracted.push((t2 - t1).as_nanos() as u64);
            kernel.push((t2 - t0).as_nanos() as u64);
        }
    }

    println!(
        "Kernel probe: {} (drift_per_day {}), {} sessions, {} requests x {PASSES} passes; \
         m {m}, k {k}, window {window}, m_max {M_MAX}\n",
        config.name,
        config.drift_per_day,
        vmis.index().num_sessions(),
        windows.len(),
    );
    println!("answers: FNV-1a {:#018x} over every item and score bit pattern\n", answers);
    let mean = |nanos: &[u64]| nanos.iter().sum::<u64>() as f64 / nanos.len() as f64 / 1e3;
    let join_mean = mean(&join);
    // Each series with the phase it shows and that phase's own mean: the
    // score phase's as a difference, the others' as timed.
    let series = [
        ("join", join, "join", Some(0.0)),
        ("join + score", scored, "score", Some(join_mean)),
        ("take_top", extracted, "take_top", Some(0.0)),
        ("kernel", kernel, "", None),
    ];
    let rows: Vec<Vec<String>> = (series.into_iter())
        .map(|(stage, mut nanos, phase, less)| {
            let mean = mean(&nanos);
            let own = less.map_or(String::new(), |less: f64| format!("{:.1}", mean - less));
            nanos.sort_unstable();
            let us = |q: f64| format!("{:.1}", quantile(&nanos, q) as f64 / 1e3);
            let (stage, phase) = (stage.to_string(), phase.to_string());
            vec![stage, us(0.5), us(0.99), format!("{mean:.1}"), phase, own]
        })
        .collect();
    print_table(&["per request", "p50 us", "p99 us", "mean us", "phase", "phase mean us"], &rows);

    println!();
    let counters: [Counter; 4] = [
        ("postings_walked", |w| w.postings_walked),
        ("candidates", |w| w.candidates),
        ("neighbors_scored", |w| w.neighbors_scored),
        ("slots_touched", |w| w.slots_touched),
    ];
    let rows: Vec<Vec<String>> = (counters.iter())
        .map(|(name, get)| {
            let mut values: Vec<u32> = work.iter().map(get).collect();
            let nonzero = values.iter().filter(|&&v| v > 0).count();
            let mean = values.iter().map(|&v| f64::from(v)).sum::<f64>() / values.len() as f64;
            values.sort_unstable();
            vec![
                name.to_string(),
                quantile(&values, 0.5).to_string(),
                quantile(&values, 0.99).to_string(),
                values[values.len() - 1].to_string(),
                format!("{mean:.2}"),
                nonzero.to_string(),
            ]
        })
        .collect();
    print_table(&["KernelWork", "p50", "p99", "max", "mean", "requests > 0"], &rows);

    println!();
    let structures = [
        ("postings", bytes.postings),
        ("posting_table", bytes.posting_table),
        ("session_items", bytes.session_items),
        ("timestamps", bytes.timestamps),
        ("slots", bytes.slots),
        ("idf", vmis.idf_bytes()),
    ];
    let mut rows: Vec<Vec<String>> =
        structures.iter().map(|(name, b)| vec![name.to_string(), b.to_string()]).collect();
    rows.push(vec!["total".into(), (bytes.total() + vmis.idf_bytes()).to_string()]);
    print_table(&["SessionIndex::bytes()", "bytes"], &rows);

    println!();
    let mut widths: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for segment in vmis.index().segments() {
        *widths.entry((segment.slot_width(), segment.offset_width())).or_default() += 1;
    }
    let rows: Vec<Vec<String>> = (widths.iter())
        .map(|(&(slot, offset), &n)| vec![slot.to_string(), offset.to_string(), n.to_string()])
        .collect();
    print_table(&["slot bytes", "offset bytes", "segments"], &rows);
}
