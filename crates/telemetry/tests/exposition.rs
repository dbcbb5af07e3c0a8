//! Round trips through the exposition format: what [`Registry::render`]
//! writes for `GET /metrics`, parsed back with `serenade-promtext`, still
//! validates and still gives the native histogram's quantiles within
//! [`REL_ERROR_BOUND`].

#![cfg(not(feature = "loom"))]

use serenade_promtext::parse;
use serenade_telemetry::{HistogramConfig, Registry, REL_ERROR_BOUND};

/// End-to-end: render a histogram, scrape it back, and check the
/// reconstructed quantiles agree with the server-side snapshot within
/// the documented error bound.
#[test]
fn scraped_quantiles_match_native_snapshot() {
    let registry = Registry::new();
    let h = registry.histogram(
        "lat_seconds",
        "L.",
        &[("pod", "0")],
        HistogramConfig::default(),
    );
    for v in 1..=5_000u64 {
        h.record_us(v * 3);
    }
    let exp = parse(&registry.render()).unwrap();
    exp.validate().unwrap();
    let scraped = exp.histogram("lat_seconds", &[("pod", "0")]).unwrap();
    let native = h.snapshot();
    assert_eq!(scraped.count, native.count as f64);
    for q in [0.5, 0.75, 0.9, 0.995] {
        let s = scraped.quantile_us(q) as f64;
        let n = native.quantile_us(q) as f64;
        assert!(
            (s - n).abs() <= n * REL_ERROR_BOUND + 1.0,
            "q={q}: scraped {s} native {n}"
        );
    }
}

#[test]
fn merged_series_reconstruct_quantiles() {
    let registry = Registry::new();
    let a = registry.histogram("lat_seconds", "L.", &[("pod", "0")], HistogramConfig::default());
    let b = registry.histogram("lat_seconds", "L.", &[("pod", "1")], HistogramConfig::default());
    for v in 1..=1_000u64 {
        a.record_us(v);
    }
    for v in 1_001..=2_000u64 {
        b.record_us(v);
    }
    // Both pods' series merge into one distribution.
    let merged = parse(&registry.render()).unwrap().histogram("lat_seconds", &[]).unwrap();
    assert_eq!(merged.count, 2_000.0);
    let mid = merged.quantile_us(0.5) as f64;
    assert!((mid - 1_000.0).abs() <= 1_000.0 * REL_ERROR_BOUND + 1.0, "{mid}");
    let p90 = merged.quantile_us(0.9) as f64;
    assert!((p90 - 1_800.0).abs() <= 1_800.0 * REL_ERROR_BOUND + 1.0, "{p90}");
}

#[test]
fn reference_histogram_parses() {
    let registry = Registry::new();
    registry.histogram("h_seconds", "H.", &[], HistogramConfig::default()).record_us(125);
    let exp = parse(&registry.render()).unwrap();
    exp.validate().unwrap();
    assert_eq!(exp.value("h_seconds_count", &[]), Some(1.0));
}
