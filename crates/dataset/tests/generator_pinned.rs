//! `generate`'s output, pinned: an FNV-1a hash over every click of a few
//! configurations. The generator feeds every experiment and the benchmark's
//! seed files, so a faster generator must emit the same bytes; a change to
//! the generative model has to change these hashes on purpose.

use serenade_dataset::synthetic::{generate, SyntheticConfig};

/// FNV-1a over each click's session id, item id and timestamp as
/// little-endian `u64`s, in output order.
fn fnv(config: &SyntheticConfig) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for click in &generate(config).clicks {
        for word in [click.session_id, click.item_id, click.timestamp] {
            for byte in word.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

#[test]
fn tiny_output_is_pinned_at_three_seeds() {
    for (seed, pinned) in [
        (42, 0x4948_009b_d283_1473u64),
        (7, 0xad06_6004_e328_0ee5),
        (1_000_003, 0xc4f1_a85c_3362_7b15),
    ] {
        let hash = fnv(&SyntheticConfig::tiny().with_seed(seed));
        assert_eq!(hash, pinned, "tiny, seed {seed}: {hash:#018x}");
    }
}

#[test]
fn scaled_ecom_output_is_pinned() {
    let hash = fnv(&SyntheticConfig::ecom_1m().scaled(0.05));
    assert_eq!(hash, 0x8a58_8d60_c102_5d8a, "ecom-1m × 0.05: {hash:#018x}");
}
