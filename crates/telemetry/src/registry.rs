//! Named metric registry with Prometheus text exposition.
//!
//! A [`Registry`] owns the set of metric families the server exposes at
//! `GET /metrics`, and is the only place a metric handle is made:
//! [`Registry::counter`], [`Registry::gauge`] and [`Registry::histogram`]
//! return the series named by a name and label set, creating it on first
//! use, so a series registered twice is one series. The handles
//! ([`Counter`], [`Gauge`], [`crate::Histogram`]) are plain `Arc`s the hot
//! path updates with relaxed atomics — the registry's mutex is touched only
//! at registration and render time, never per request. Values that already
//! live elsewhere (index generation, live session counts, store eviction
//! counters) are registered as *polled* metrics: a closure sampled at
//! render time, replaced when the series is registered again.
//!
//! [`Registry::render`] produces the Prometheus text exposition format
//! (version 0.0.4): one `# HELP`/`# TYPE` header per family followed by its
//! samples. Histograms are rendered **sparsely** — cumulative `le` bounds
//! are emitted only at the (lower, upper) edges of non-empty native
//! buckets, in seconds. The cumulative count is constant between rendered
//! bounds, so a scraper interpolating within the rendered grid recovers
//! quantiles at exactly the histogram's native resolution instead of being
//! limited by a fixed, coarse `le` schedule.

use std::sync::{Arc, Mutex};

use crate::histogram::{Histogram, HistogramConfig};
use crate::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter.
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero; [`Registry::counter`] is the only maker.
    fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        // ORDERING: monotonic counter with no partner; scrapes read a racy
        // snapshot and only need eventual visibility.
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // ORDERING: monotonic counter with no partner (see `inc`).
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ORDERING: racy counter read (partner: none); scrape-time skew of
        // in-flight increments is acceptable.
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at zero; [`Registry::gauge`] is the only maker.
    fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: u64) {
        // ORDERING: standalone gauge write with no partner; no data is
        // published under this value.
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` in one atomic step, so writers on several threads never
    /// lose each other's updates (as `set(get() + n)` would).
    #[inline]
    pub fn add(&self, n: u64) {
        // ORDERING: standalone gauge update with no partner (see `set`).
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` in one atomic step; each writer subtracts only what it
    /// added, so the value never wraps.
    #[inline]
    pub fn sub(&self, n: u64) {
        // ORDERING: standalone gauge update with no partner (see `set`).
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ORDERING: racy gauge read, partner: none.
        self.0.load(Ordering::Relaxed)
    }
}

/// What a registered metric observes when the registry renders.
#[derive(Clone)]
enum Observed {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    /// Cumulative value sampled from elsewhere at render time.
    PolledCounter(Arc<dyn Fn() -> u64 + Send + Sync>),
    /// Instantaneous value sampled from elsewhere at render time.
    PolledGauge(Arc<dyn Fn() -> u64 + Send + Sync>),
}

impl Observed {
    fn kind(&self) -> &'static str {
        match self {
            Observed::Counter(_) | Observed::PolledCounter(_) => "counter",
            Observed::Gauge(_) | Observed::PolledGauge(_) => "gauge",
            Observed::Histogram(_) => "histogram",
        }
    }

    /// Whether a registration of `new` over this series keeps this one: a
    /// counter, gauge or histogram handle of the same type is kept, so every
    /// caller records into one series; anything else (a polled closure in
    /// particular) is replaced.
    fn keeps_over(&self, new: &Observed) -> bool {
        matches!(
            (self, new),
            (Observed::Counter(_), Observed::Counter(_))
                | (Observed::Gauge(_), Observed::Gauge(_))
                | (Observed::Histogram(_), Observed::Histogram(_))
        )
    }
}

/// One labelled series within a family.
struct Metric {
    labels: Vec<(String, String)>,
    observed: Observed,
}

/// A metric family: one name/help/type, one or more labelled series.
struct Family {
    name: String,
    help: String,
    metrics: Vec<Metric>,
}

/// The server-wide metric registry. Cheap to share (`Arc<Registry>`);
/// registration and rendering lock a mutex, metric updates never do.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Puts `observed` behind the series `name{labels}`, the one place a
    /// series is added or changed. A series registered again stays one
    /// series: an existing handle of the same type is kept and returned
    /// (the caller then records into it), and anything else is replaced,
    /// so a polled series samples its latest closure and drops the state
    /// the earlier one captured. Returns `None` when `observed` was stored.
    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        observed: Observed,
    ) -> Option<Observed> {
        let mut families = self.families.lock().unwrap_or_else(|p| p.into_inner());
        let labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        let at = families.iter().position(|f| f.name == name).unwrap_or_else(|| {
            let (name, help) = (name.to_string(), help.to_string());
            families.push(Family { name, help, metrics: Vec::new() });
            families.len() - 1
        });
        let family = &mut families[at];
        match family.metrics.iter_mut().find(|m| m.labels == labels) {
            Some(series) if series.observed.keeps_over(&observed) => Some(series.observed.clone()),
            Some(series) => {
                series.observed = observed;
                None
            }
            None => {
                family.metrics.push(Metric { labels, observed });
                None
            }
        }
    }

    /// The counter series `name{labels}`, registered on first use.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let fresh = Arc::new(Counter::new());
        match self.register(name, help, labels, Observed::Counter(Arc::clone(&fresh))) {
            Some(Observed::Counter(existing)) => existing,
            _ => fresh,
        }
    }

    /// The gauge series `name{labels}`, registered on first use.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let fresh = Arc::new(Gauge::new());
        match self.register(name, help, labels, Observed::Gauge(Arc::clone(&fresh))) {
            Some(Observed::Gauge(existing)) => existing,
            _ => fresh,
        }
    }

    /// The histogram series `name{labels}` (values in microseconds,
    /// rendered in seconds), registered on first use; `config` sizes it
    /// then and is ignored after.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        config: HistogramConfig,
    ) -> Arc<Histogram> {
        let fresh = Arc::new(Histogram::new(config));
        match self.register(name, help, labels, Observed::Histogram(Arc::clone(&fresh))) {
            Some(Observed::Histogram(existing)) => existing,
            _ => fresh,
        }
    }

    /// Registers a counter whose value is sampled from `f` at render time;
    /// registered again, the series samples the new `f`.
    pub fn polled_counter(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.register(name, help, labels, Observed::PolledCounter(Arc::new(f)));
    }

    /// Registers a gauge whose value is sampled from `f` at render time;
    /// registered again, the series samples the new `f`.
    pub fn polled_gauge(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.register(name, help, labels, Observed::PolledGauge(Arc::new(f)));
    }

    /// Renders the Prometheus text exposition format (version 0.0.4).
    pub fn render(&self) -> String {
        let families = self.families.lock().unwrap_or_else(|p| p.into_inner());
        let mut out = String::new();
        for family in families.iter() {
            let kind = match family.metrics.first() {
                Some(m) => m.observed.kind(),
                None => continue,
            };
            out.push_str("# HELP ");
            out.push_str(&family.name);
            out.push(' ');
            out.push_str(&family.help);
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(&family.name);
            out.push(' ');
            out.push_str(kind);
            out.push('\n');
            for metric in &family.metrics {
                render_metric(&mut out, &family.name, &metric.labels, &metric.observed);
            }
        }
        out
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let families = self.families.lock().unwrap_or_else(|p| p.into_inner());
        f.debug_struct("Registry").field("families", &families.len()).finish()
    }
}

fn render_metric(out: &mut String, name: &str, labels: &[(String, String)], observed: &Observed) {
    match observed {
        Observed::Counter(c) => render_sample(out, name, labels, None, c.get() as f64),
        Observed::Gauge(g) => render_sample(out, name, labels, None, g.get() as f64),
        Observed::PolledCounter(f) | Observed::PolledGauge(f) => {
            render_sample(out, name, labels, None, f() as f64)
        }
        Observed::Histogram(h) => {
            let snap = h.snapshot();
            let bucket = format!("{name}_bucket");
            // Sparse cumulative bounds: both edges of every non-empty
            // native bucket. Adjacent non-empty buckets share an edge, so
            // duplicate (bound, cumulative) pairs are skipped.
            let mut prev_cum = 0u64;
            let mut prev_bound = u64::MAX;
            for (lower, upper, cum) in snap.cumulative_buckets() {
                if lower != prev_bound {
                    render_sample(out, &bucket, labels, Some(seconds(lower)), prev_cum as f64);
                }
                render_sample(out, &bucket, labels, Some(seconds(upper)), cum as f64);
                prev_cum = cum;
                prev_bound = upper;
            }
            render_sample(out, &bucket, labels, Some("+Inf".to_string()), snap.count as f64);
            render_sample(out, &format!("{name}_sum"), labels, None, snap.sum_us as f64 / 1e6);
            render_sample(out, &format!("{name}_count"), labels, None, snap.count as f64);
        }
    }
}

/// Formats a microsecond bound as seconds; Rust's shortest-roundtrip float
/// formatting keeps distinct bounds textually distinct.
fn seconds(us: u64) -> String {
    format!("{}", us as f64 / 1e6)
}

fn render_sample(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    le: Option<String>,
    value: f64,
) {
    out.push_str(name);
    if !labels.is_empty() || le.is_some() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            push_escaped(out, v);
            out.push('"');
        }
        if let Some(le) = le {
            if !first {
                out.push(',');
            }
            out.push_str("le=\"");
            out.push_str(&le);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    let _ = std::fmt::Write::write_fmt(out, format_args!("{value}"));
    out.push('\n');
}

/// Escapes a label value per the exposition format: `\` → `\\`, `"` → `\"`,
/// newline → `\n`.
fn push_escaped(out: &mut String, v: &str) {
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render_with_labels() {
        let registry = Registry::new();
        let c = registry.counter("req_total", "Requests served.", &[("pod", "0")]);
        let g = registry.gauge("live", "Live sessions.", &[]);
        c.add(3);
        g.set(17);
        let text = registry.render();
        assert!(text.contains("# TYPE req_total counter"), "{text}");
        assert!(text.contains("req_total{pod=\"0\"} 3"), "{text}");
        assert!(text.contains("# TYPE live gauge"), "{text}");
        assert!(text.contains("live 17"), "{text}");
    }

    #[test]
    fn a_gauge_written_from_several_threads_loses_no_update() {
        let registry = Registry::new();
        let g = registry.gauge("open", "Open connections.", &[]);
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        g.add(2);
                        g.sub(1);
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().unwrap();
        }
        assert_eq!(g.get(), 40_000);
    }

    #[test]
    fn same_family_gets_one_header_and_grouped_samples() {
        let registry = Registry::new();
        registry.counter("req_total", "Requests served.", &[("pod", "0")]).inc();
        registry.counter("req_total", "Requests served.", &[("pod", "1")]).add(2);
        let text = registry.render();
        assert_eq!(text.matches("# TYPE req_total").count(), 1, "{text}");
        assert!(text.contains("req_total{pod=\"0\"} 1"));
        assert!(text.contains("req_total{pod=\"1\"} 2"));
    }

    #[test]
    fn a_series_registered_twice_is_one_series() {
        let registry = Registry::new();
        let first = registry.counter("req_total", "Requests served.", &[("pod", "0")]);
        let again = registry.counter("req_total", "Requests served.", &[("pod", "0")]);
        assert!(Arc::ptr_eq(&first, &again));
        first.inc();
        again.inc();
        let h = registry.histogram("lat_seconds", "Latency.", &[], HistogramConfig::default());
        let h_again =
            registry.histogram("lat_seconds", "Latency.", &[], HistogramConfig::default());
        assert!(Arc::ptr_eq(&h, &h_again));
        let text = registry.render();
        assert_eq!(text.matches("req_total{pod=\"0\"}").count(), 1, "{text}");
        assert!(text.contains("req_total{pod=\"0\"} 2"), "{text}");
        assert_eq!(text.matches("lat_seconds_count").count(), 1, "{text}");
    }

    #[test]
    fn a_polled_series_registered_again_samples_the_new_closure() {
        let registry = Registry::new();
        let old = Arc::new(AtomicU64::new(1));
        let captured = Arc::clone(&old);
        registry
            .polled_gauge("inflight", "In flight.", &[], move || captured.load(Ordering::Relaxed));
        registry.polled_gauge("inflight", "In flight.", &[], || 7);
        let text = registry.render();
        let samples: Vec<_> = text.lines().filter(|l| l.starts_with("inflight ")).collect();
        assert_eq!(samples, ["inflight 7"], "{text}");
        assert_eq!(Arc::strong_count(&old), 1, "the replaced closure still holds its state");
    }

    #[test]
    fn polled_metrics_sample_at_render_time() {
        let registry = Registry::new();
        let source = Arc::new(AtomicU64::new(5));
        let polled = Arc::clone(&source);
        registry.polled_gauge("generation", "Index generation.", &[], move || {
            polled.load(Ordering::Relaxed)
        });
        assert!(registry.render().contains("generation 5"));
        source.store(9, Ordering::Relaxed);
        assert!(registry.render().contains("generation 9"));
    }

    #[test]
    fn histogram_renders_monotone_buckets_ending_in_inf() {
        let registry = Registry::new();
        let h = registry.histogram(
            "latency_seconds",
            "Latency.",
            &[("stage", "total")],
            HistogramConfig::default(),
        );
        for v in [250u64, 250, 3_000, 90_000] {
            h.record_us(v);
        }
        let text = registry.render();
        assert!(text.contains("# TYPE latency_seconds histogram"), "{text}");
        assert!(text.contains("le=\"+Inf\"}"), "{text}");
        assert!(text.contains("latency_seconds_count{stage=\"total\"} 4"), "{text}");
        let mut prev = -1.0f64;
        for line in text.lines().filter(|l| l.contains("latency_seconds_bucket")) {
            let value: f64 = line.rsplit(' ').next().and_then(|v| v.parse().ok()).unwrap();
            assert!(value >= prev, "non-monotone cumulative counts: {text}");
            prev = value;
        }
        assert_eq!(prev, 4.0);
    }

    #[test]
    fn label_values_are_escaped() {
        let registry = Registry::new();
        registry.counter("c_total", "C.", &[("path", "a\"b\\c\nd")]).inc();
        let text = registry.render();
        assert!(text.contains(r#"path="a\"b\\c\nd""#), "{text}");
    }
}
