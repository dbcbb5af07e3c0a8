//! `generate`'s output, pinned: an FNV-1a hash over every click of a few
//! configurations, at 1, 2, 3 and 8 threads. The generator feeds every
//! experiment and the benchmark's seed files, so a faster generator must
//! emit the same bytes at every thread count; a change to the generative
//! model has to change these hashes on purpose.

use serenade_dataset::synthetic::{generate_with_threads, SyntheticConfig};

const THREADS: [usize; 4] = [1, 2, 3, 8];

/// FNV-1a over each click's session id, item id and timestamp as
/// little-endian `u64`s, in output order.
fn fnv(config: &SyntheticConfig, threads: usize) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for click in &generate_with_threads(config, threads).clicks {
        for word in [click.session_id, click.item_id, click.timestamp] {
            for byte in word.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

fn assert_pinned(config: &SyntheticConfig, pinned: u64) {
    for threads in THREADS {
        let hash = fnv(config, threads);
        let what = format!("{} seed {}, threads {threads}", config.name, config.seed);
        assert_eq!(hash, pinned, "{what}: {hash:#018x}");
    }
}

#[test]
fn tiny_output_is_pinned_at_three_seeds() {
    for (seed, pinned) in [
        (42, 0x4948_009b_d283_1473u64),
        (7, 0xad06_6004_e328_0ee5),
        (1_000_003, 0xc4f1_a85c_3362_7b15),
    ] {
        assert_pinned(&SyntheticConfig::tiny().with_seed(seed), pinned);
    }
}

#[test]
fn scaled_ecom_output_is_pinned() {
    assert_pinned(&SyntheticConfig::ecom_1m().scaled(0.05), 0x8a58_8d60_c102_5d8a);
}

/// Sessions of about 200 clicks, 30 s apart: longer than the hour a
/// session's start leaves before midnight, so some run into the next day.
fn past_midnight() -> SyntheticConfig {
    SyntheticConfig {
        name: String::from("past-midnight"),
        num_sessions: 500,
        length_log_mean: 200f64.ln(),
        length_log_sigma: 0.3,
        max_session_len: 400,
        ..SyntheticConfig::tiny()
    }
}

#[test]
fn sessions_past_midnight_are_sorted_by_comparison_and_pinned() {
    // A session that crosses midnight puts clicks of one day among the
    // next day's, which a sort by second of day cannot order: the
    // generator falls back to the comparison sort, and the bytes hold.
    let config = past_midnight();
    let clicks = generate_with_threads(&config, 1).clicks;
    let mut first_day = std::collections::HashMap::new();
    let crossing = clicks.iter().any(|c| {
        *first_day.entry(c.session_id).or_insert(c.timestamp / 86_400) != c.timestamp / 86_400
    });
    assert!(crossing, "no session of the config crosses midnight");
    assert_pinned(&config, 0xdbc0_93f5_4cdd_d170);
    assert_pinned(&config.with_seed(9), 0x2e90_8367_20fc_b5d4);
}

/// The benchmark's own data: `ecom-1m` at full size, seed 1. Too slow for
/// a debug build; `scripts/check.sh` runs it in release with `--ignored`.
#[test]
#[ignore = "full-size ecom-1m: run in release (scripts/check.sh)"]
fn benchmark_data_is_pinned() {
    assert_pinned(&SyntheticConfig::ecom_1m().with_seed(1), 0x8692_e3b0_fd07_a7ae);
}
