//! Open-loop load generation against a serving cluster (Figure 3b).
//!
//! Replays session traffic at a target request rate: every request has a
//! scheduled send time on a global clock (`i / rps`), workers pick requests
//! off a shared counter, sleep until their slot and fire. This open-loop
//! design measures the latency the *shop frontend* would observe — a closed
//! loop would flatter the system by slowing down when the system does.
//!
//! Besides latency percentiles per reporting window, the generator tracks
//! worker busy time, from which the benchmark derives the core-usage curve
//! the paper plots (one core ≙ 100%).
//!
//! Runs are **reproducible**: per-request send-time jitter comes from a
//! seeded hash of the request index ([`scheduled_offset`]), not from worker
//! timing, so two runs with the same [`LoadGenConfig::seed`] issue the
//! identical request schedule regardless of thread interleaving.
//!
//! When the cluster is also fronted by an [`crate::server::HttpServer`], the
//! generator can scrape `GET /metrics` before and after a run
//! ([`run_load_test_scraped`]) and report the *server-side* latency
//! distribution of exactly the run's window alongside the client-side one.
//!
//! A **mixed read/write** variant ([`run_mixed_load_test`]) shares the same
//! open-loop schedule but turns a seeded fraction of slots into ingest
//! submissions, so the index mini-publishes continuously while the
//! remaining slots read — the read-side percentiles then measure the
//! serving SLA *under churn* (Figure 3b with live ingestion).
//!
//! A second, **closed-loop** generator ([`run_overload_test`]) drives the
//! HTTP front end itself past saturation: each client fires its next
//! request as soon as the previous one is answered, reconnecting whenever
//! the server closes the connection. Closed-loop is the right shape *for
//! overload*: the point is not the latency an open-loop frontend would see
//! (unbounded, by definition, past saturation) but the server's admission
//! behaviour — every response is classified by status class
//! ([`StatusBreakdown`]), `503` sheds are tracked separately from other
//! server errors, and latency percentiles are reported for the *accepted*
//! (2xx) requests only, which the admission control must keep bounded.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serenade_dataset::Session;
use serenade_metrics::{LatencyRecorder, LatencySummary};
use serenade_telemetry::ScrapedHistogram;

use crate::cluster::ServingCluster;
use crate::context::RequestContext;
use crate::engine::RecommendRequest;
use crate::transport::HttpClient;

/// Load-test parameters.
#[derive(Debug, Clone, Copy)]
pub struct LoadGenConfig {
    /// Target request rate (requests per second).
    pub target_rps: f64,
    /// Test duration.
    pub duration: Duration,
    /// Concurrent load-generator workers.
    pub workers: usize,
    /// Reporting-window length.
    pub window: Duration,
    /// Seed for the send-time jitter (same seed → identical schedule).
    pub seed: u64,
    /// Send-time jitter as a fraction of the inter-request interval
    /// (0.0 = perfectly periodic, 1.0 = up to one full interval late).
    pub jitter: f64,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        Self {
            target_rps: 1_000.0,
            duration: Duration::from_secs(10),
            workers: 8,
            window: Duration::from_secs(1),
            seed: 0,
            jitter: 0.0,
        }
    }
}

/// SplitMix64 finaliser: a cheap, high-quality u64 → u64 mixer.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The scheduled send time of request `i` on the test's global clock:
/// `i × interval` plus seeded jitter. Pure function of its arguments —
/// workers may pick requests in any order and the schedule is unchanged.
pub fn scheduled_offset(i: usize, interval: Duration, seed: u64, jitter: f64) -> Duration {
    let base = interval.mul_f64(i as f64);
    if jitter <= 0.0 {
        return base;
    }
    // 53 high bits → a uniform f64 in [0, 1).
    let unit = (splitmix64(seed ^ i as u64) >> 11) as f64 / (1u64 << 53) as f64;
    base + interval.mul_f64(unit * jitter.min(1.0))
}

/// Item-popularity skew for synthetic request streams.
///
/// Samples item *ranks* from a truncated Zipf distribution: rank `r`
/// (0-based) carries weight `(r + 1)^-exponent`, so rank 0 is the most
/// popular item and the tail decays polynomially — the shape of e-commerce
/// item popularity and the regime where the prediction cache earns its keep.
/// `exponent = 0` degrades to the uniform distribution.
///
/// Sampling is a pure function of `(seed, i)` (the same reproducibility
/// contract as [`scheduled_offset`]): two runs with the same seed draw the
/// identical item sequence regardless of worker interleaving.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// Normalised cumulative weights; `cdf[r]` is P(rank ≤ r).
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler for `items` ranks with the given skew exponent.
    pub fn new(items: usize, exponent: f64) -> Self {
        assert!(items > 0, "need at least one item");
        assert!(exponent >= 0.0, "exponent must be non-negative");
        let mut cdf = Vec::with_capacity(items);
        let mut acc = 0.0f64;
        for rank in 0..items {
            acc += ((rank + 1) as f64).powf(-exponent);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// The rank drawn for request `i` under `seed`.
    pub fn sample(&self, seed: u64, i: u64) -> usize {
        // Decorrelated from the send-time jitter stream (which hashes
        // `seed ^ i` directly) by mixing the seed first.
        let unit =
            (splitmix64(splitmix64(seed) ^ i) >> 11) as f64 / (1u64 << 53) as f64;
        // First rank whose cumulative weight exceeds the uniform draw.
        self.cdf.partition_point(|&c| c <= unit).min(self.cdf.len() - 1)
    }
}

/// A depersonalised single-item request stream with Zipf-skewed item
/// popularity: request `i` asks about `items[rank]` where `rank` is drawn
/// by a [`ZipfSampler`] with the given exponent. Every request carries a
/// fresh session id and `consent: false`, so responses are a pure function
/// of `(item, index)` — the traffic shape that exercises the prediction
/// cache (`exponent ≳ 1` concentrates most requests on a few hot items).
pub fn zipf_requests(
    items: &[u64],
    count: usize,
    exponent: f64,
    seed: u64,
) -> Vec<RecommendRequest> {
    assert!(!items.is_empty(), "items must not be empty");
    let sampler = ZipfSampler::new(items.len(), exponent);
    (0..count)
        .map(|i| RecommendRequest {
            session_id: 500_000 + i as u64,
            item: items[sampler.sample(seed, i as u64)],
            consent: false,
            filter_adult: false,
        })
        .collect()
}

/// The multi-node traffic shape: session ids drawn from a seeded Zipf over
/// a user population of millions, items walked deterministically per
/// request. Unlike [`zipf_requests`] (fresh session per request, skew on
/// *items*), the skew here is on *sessions* — a small set of heavy
/// browsers plus a long tail of one-click visitors, the distribution a
/// router tier must spread evenly across nodes. Requests carry consent, so
/// every click also grows per-session state on its owning node.
///
/// Sampling is a pure function of `(seed, i)`: the identical id sequence
/// regardless of worker interleaving or cluster size, so scaling curves
/// compare the same traffic at every node count.
pub fn cluster_requests(
    population: u64,
    items: &[u64],
    count: usize,
    exponent: f64,
    seed: u64,
) -> Vec<RecommendRequest> {
    assert!(population > 0, "population must not be empty");
    assert!(!items.is_empty(), "items must not be empty");
    // Rank → session id mixes the rank through splitmix so neighbouring
    // ranks (the hot head of the Zipf) don't land on consecutive ids —
    // consecutive ids would be a best case for any accidental
    // modulo-sharding correlation the rendezvous router must not rely on.
    // The CDF table costs 8 bytes per rank; 2^21 ranks (~16 MiB) is enough
    // resolution for any realistic skew — ranks past two million carry
    // negligible probability mass, and the id mix below still spreads the
    // sampled ranks over the full population.
    let sampler = ZipfSampler::new(population.min(1 << 21) as usize, exponent);
    (0..count)
        .map(|i| {
            let rank = sampler.sample(seed, i as u64) as u64;
            let session_id = splitmix64(rank.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % population;
            RecommendRequest {
                session_id,
                item: items[(splitmix64(seed ^ (i as u64) << 1) as usize) % items.len()],
                consent: true,
                filter_adult: false,
            }
        })
        .collect()
}

/// Latency and throughput of one reporting window.
#[derive(Debug, Clone)]
pub struct LoadWindow {
    /// Window start, as an offset from the test start.
    pub offset: Duration,
    /// Requests completed in the window.
    pub requests: usize,
    /// Latency percentiles of the window.
    pub latency: Option<LatencySummary>,
}

/// Outcome of a load test.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Per-window series (the x-axis of Figure 3b).
    pub windows: Vec<LoadWindow>,
    /// Overall latency distribution.
    pub total: Option<LatencySummary>,
    /// Requests completed.
    pub completed: usize,
    /// Achieved request rate.
    pub achieved_rps: f64,
    /// Cores kept busy by request handling (1.0 ≙ one fully busy core).
    pub cores_busy: f64,
}

/// Flattens test sessions into an interleaved request stream: round-robin
/// over sessions by click position, so concurrent sessions overlap the way
/// real traffic does while stickiness per session is preserved.
pub fn requests_from_sessions(sessions: &[Session]) -> Vec<RecommendRequest> {
    let max_len = sessions.iter().map(Session::len).max().unwrap_or(0);
    let mut out = Vec::with_capacity(sessions.iter().map(Session::len).sum());
    for pos in 0..max_len {
        for s in sessions {
            if let Some(&item) = s.items.get(pos) {
                out.push(RecommendRequest {
                    session_id: s.id,
                    item,
                    consent: true,
                    filter_adult: false,
                });
            }
        }
    }
    out
}

/// Runs an open-loop load test against the cluster, replaying `traffic`
/// cyclically at the target rate.
pub fn run_load_test(
    cluster: &Arc<ServingCluster>,
    traffic: &[RecommendRequest],
    config: LoadGenConfig,
) -> LoadReport {
    assert!(!traffic.is_empty(), "traffic must not be empty");
    assert!(config.target_rps > 0.0);
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let interval = Duration::from_secs_f64(1.0 / config.target_rps);
    let num_windows =
        (config.duration.as_secs_f64() / config.window.as_secs_f64()).ceil() as usize;

    struct WorkerOut {
        windows: Vec<LatencyRecorder>,
        window_counts: Vec<usize>,
        busy: Duration,
        completed: usize,
    }

    let outs: Vec<WorkerOut> = crossbeam::thread::scope(|scope| {
        let next = &next;
        let handles: Vec<_> = (0..config.workers.max(1))
            .map(|_| {
                let cluster = Arc::clone(cluster);
                scope.spawn(move |_| {
                    let mut windows = vec![LatencyRecorder::new(); num_windows];
                    let mut window_counts = vec![0usize; num_windows];
                    let mut busy = Duration::ZERO;
                    let mut completed = 0usize;
                    // One context per worker: scratch buffers are reused
                    // across all requests this worker fires.
                    let mut ctx = RequestContext::new();
                    loop {
                        // ORDERING: shared request ticket, partner: none.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        // Terminate on the un-jittered base offset so the
                        // request *count* is independent of the seed; jitter
                        // only moves send times within the run.
                        if interval.mul_f64(i as f64) >= config.duration {
                            break;
                        }
                        let scheduled =
                            scheduled_offset(i, interval, config.seed, config.jitter);
                        // Open loop: wait for this request's slot.
                        loop {
                            let now = start.elapsed();
                            if now >= scheduled {
                                break;
                            }
                            let wait = scheduled - now;
                            if wait > Duration::from_micros(200) {
                                std::thread::sleep(wait - Duration::from_micros(100));
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                        let req = traffic[i % traffic.len()];
                        let t0 = Instant::now();
                        let _recs = cluster.handle_with(req, &mut ctx);
                        let elapsed = t0.elapsed();
                        busy += elapsed;
                        completed += 1;
                        let w = ((start.elapsed().as_secs_f64()
                            / config.window.as_secs_f64())
                            as usize)
                            .min(num_windows - 1);
                        windows[w].record(elapsed);
                        window_counts[w] += 1;
                    }
                    WorkerOut { windows, window_counts, busy, completed }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load worker")).collect()
    })
    .expect("load scope");

    let elapsed = start.elapsed();
    let mut total = LatencyRecorder::new();
    let mut windows = Vec::with_capacity(num_windows);
    for w in 0..num_windows {
        let mut rec = LatencyRecorder::new();
        let mut count = 0;
        for o in &outs {
            rec.merge(&o.windows[w]);
            count += o.window_counts[w];
        }
        total.merge(&rec);
        windows.push(LoadWindow {
            offset: config.window.mul_f64(w as f64),
            requests: count,
            latency: rec.summary(),
        });
    }
    let completed: usize = outs.iter().map(|o| o.completed).sum();
    let busy: Duration = outs.iter().map(|o| o.busy).sum();
    LoadReport {
        total: total.summary(),
        windows,
        completed,
        achieved_rps: completed as f64 / elapsed.as_secs_f64(),
        cores_busy: busy.as_secs_f64() / elapsed.as_secs_f64(),
    }
}

/// Parameters of a mixed read/write run ([`run_mixed_load_test`]): reads go
/// through the pods, writes through the ingest pipeline, on one shared
/// open-loop schedule.
#[derive(Debug, Clone, Copy)]
pub struct MixedLoadConfig {
    /// Fraction of scheduled slots that are ingest writes, in `[0, 1]`.
    /// Which slots are writes is a pure seeded function of the request
    /// index ([`is_write_slot`]), so the same seed interleaves reads and
    /// writes identically across runs.
    pub ingest_fraction: f64,
    /// Clicks per ingest submission (writes batch several clicks the way a
    /// collector tier would).
    pub clicks_per_write: usize,
    /// Session-id namespace for writer traffic, kept disjoint from read
    /// sessions so churn never mutates a session a read is evolving.
    pub writer_session_base: u64,
}

impl Default for MixedLoadConfig {
    fn default() -> Self {
        Self { ingest_fraction: 0.1, clicks_per_write: 4, writer_session_base: 9_000_000 }
    }
}

/// Whether slot `i` of the shared schedule is an ingest write under `seed`.
/// Decorrelated from both the send-time jitter and the Zipf item stream by
/// double-mixing a salted seed.
pub fn is_write_slot(seed: u64, i: u64, fraction: f64) -> bool {
    if fraction <= 0.0 {
        return false;
    }
    let unit =
        (splitmix64(splitmix64(seed ^ 0x00C0_FFEE) ^ i) >> 11) as f64 / (1u64 << 53) as f64;
    unit < fraction
}

/// Outcome of a mixed read/write run.
#[derive(Debug, Clone)]
pub struct MixedLoadReport {
    /// The read-side report (windows, percentiles, achieved read rps) —
    /// directly comparable to a read-only [`run_load_test`] run with the
    /// same config, which is how the SLA-under-churn delta is measured.
    pub reads: LoadReport,
    /// Ingest submissions accepted by the pipeline.
    pub writes_accepted: usize,
    /// Ingest submissions rejected (queue at capacity).
    pub writes_rejected: usize,
    /// Latency percentiles of the (accepted) submit calls.
    pub write_latency: Option<LatencySummary>,
    /// Index generations published while the run was in flight.
    pub publishes: u64,
}

/// Runs an open-loop **mixed** load test: one shared schedule at
/// `config.target_rps` where a seeded `mixed.ingest_fraction` of slots
/// submit click batches to the cluster's ingest pipeline and the rest are
/// recommendation reads. The index mini-publishes continuously underneath
/// the reads, so the read-side percentiles measure the SLA *under churn*.
///
/// Requires [`crate::ServingCluster::enable_ingest`] to have been called.
pub fn run_mixed_load_test(
    cluster: &Arc<ServingCluster>,
    traffic: &[RecommendRequest],
    config: LoadGenConfig,
    mixed: MixedLoadConfig,
) -> MixedLoadReport {
    assert!(!traffic.is_empty(), "traffic must not be empty");
    assert!(config.target_rps > 0.0);
    assert!(
        (0.0..=1.0).contains(&mixed.ingest_fraction),
        "ingest_fraction must be in [0, 1]"
    );
    let pipeline =
        Arc::clone(cluster.ingest().expect("mixed load requires ingest to be enabled"));
    let clicks_per_write = mixed.clicks_per_write.max(1);
    let publishes_before = pipeline.metrics().publishes();

    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let interval = Duration::from_secs_f64(1.0 / config.target_rps);
    let num_windows =
        (config.duration.as_secs_f64() / config.window.as_secs_f64()).ceil() as usize;

    struct WorkerOut {
        windows: Vec<LatencyRecorder>,
        window_counts: Vec<usize>,
        write_latency: LatencyRecorder,
        busy: Duration,
        reads: usize,
        writes_accepted: usize,
        writes_rejected: usize,
    }

    let outs: Vec<WorkerOut> = crossbeam::thread::scope(|scope| {
        let next = &next;
        let pipeline = &pipeline;
        let handles: Vec<_> = (0..config.workers.max(1))
            .map(|_| {
                let cluster = Arc::clone(cluster);
                scope.spawn(move |_| {
                    let mut out = WorkerOut {
                        windows: vec![LatencyRecorder::new(); num_windows],
                        window_counts: vec![0usize; num_windows],
                        write_latency: LatencyRecorder::new(),
                        busy: Duration::ZERO,
                        reads: 0,
                        writes_accepted: 0,
                        writes_rejected: 0,
                    };
                    let mut ctx = RequestContext::new();
                    let mut batch = Vec::with_capacity(clicks_per_write);
                    loop {
                        // ORDERING: shared request ticket, partner: none.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if interval.mul_f64(i as f64) >= config.duration {
                            break;
                        }
                        let scheduled =
                            scheduled_offset(i, interval, config.seed, config.jitter);
                        loop {
                            let now = start.elapsed();
                            if now >= scheduled {
                                break;
                            }
                            let wait = scheduled - now;
                            if wait > Duration::from_micros(200) {
                                std::thread::sleep(wait - Duration::from_micros(100));
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                        let t0 = Instant::now();
                        if is_write_slot(config.seed, i as u64, mixed.ingest_fraction) {
                            // A collector-tier write: a short session of
                            // items drawn from the same traffic stream.
                            batch.clear();
                            let session = mixed.writer_session_base + i as u64;
                            for k in 0..clicks_per_write {
                                let item = traffic[(i + k) % traffic.len()].item;
                                batch.push(serenade_core::Click::new(
                                    session,
                                    item,
                                    1_000_000 + i as u64,
                                ));
                            }
                            if pipeline.submit(&batch) {
                                out.writes_accepted += 1;
                                out.write_latency.record(t0.elapsed());
                            } else {
                                out.writes_rejected += 1;
                            }
                            out.busy += t0.elapsed();
                        } else {
                            let req = traffic[i % traffic.len()];
                            let _recs = cluster.handle_with(req, &mut ctx);
                            let elapsed = t0.elapsed();
                            out.busy += elapsed;
                            out.reads += 1;
                            let w = ((start.elapsed().as_secs_f64()
                                / config.window.as_secs_f64())
                                as usize)
                                .min(num_windows - 1);
                            out.windows[w].record(elapsed);
                            out.window_counts[w] += 1;
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("mixed load worker")).collect()
    })
    .expect("mixed load scope");

    let elapsed = start.elapsed();
    let mut total = LatencyRecorder::new();
    let mut windows = Vec::with_capacity(num_windows);
    for w in 0..num_windows {
        let mut rec = LatencyRecorder::new();
        let mut count = 0;
        for o in &outs {
            rec.merge(&o.windows[w]);
            count += o.window_counts[w];
        }
        total.merge(&rec);
        windows.push(LoadWindow {
            offset: config.window.mul_f64(w as f64),
            requests: count,
            latency: rec.summary(),
        });
    }
    let reads: usize = outs.iter().map(|o| o.reads).sum();
    let busy: Duration = outs.iter().map(|o| o.busy).sum();
    let mut write_latency = LatencyRecorder::new();
    for o in &outs {
        write_latency.merge(&o.write_latency);
    }
    MixedLoadReport {
        reads: LoadReport {
            total: total.summary(),
            windows,
            completed: reads,
            achieved_rps: reads as f64 / elapsed.as_secs_f64(),
            cores_busy: busy.as_secs_f64() / elapsed.as_secs_f64(),
        },
        writes_accepted: outs.iter().map(|o| o.writes_accepted).sum(),
        writes_rejected: outs.iter().map(|o| o.writes_rejected).sum(),
        write_latency: write_latency.summary(),
        publishes: pipeline.metrics().publishes().saturating_sub(publishes_before),
    }
}

/// Scrapes `GET /metrics` at `addr` and returns the end-to-end request
/// latency histogram (`serenade_request_duration_seconds{stage="total"}`),
/// merged across all pods. Errors if the scrape fails or the family is
/// missing from the exposition.
pub fn scrape_total_latency(addr: SocketAddr) -> std::io::Result<ScrapedHistogram> {
    let to_err = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let mut client = HttpClient::connect(addr)?;
    let (status, body) = client.get("/metrics")?;
    if status != 200 {
        return Err(to_err(format!("GET /metrics returned status {status}")));
    }
    let exposition = serenade_telemetry::parse(&body).map_err(to_err)?;
    exposition
        .histogram("serenade_request_duration_seconds", &[("stage", "total")])
        .ok_or_else(|| to_err("no serenade_request_duration_seconds{stage=\"total\"}".into()))
}

/// A [`LoadReport`] paired with the server-side latency distribution of the
/// same run, obtained by scraping `/metrics` before and after the test and
/// differencing the cumulative histograms.
#[derive(Debug, Clone)]
pub struct ScrapedLoadReport {
    /// The client-side report.
    pub report: LoadReport,
    /// Server-side latency delta over the run window.
    pub server_latency: ScrapedHistogram,
}

/// [`run_load_test`] bracketed by `/metrics` scrapes against the HTTP
/// frontend at `addr`, so the report also carries the *server-side* view of
/// exactly this run's requests (the scrape delta excludes earlier traffic).
pub fn run_load_test_scraped(
    cluster: &Arc<ServingCluster>,
    addr: SocketAddr,
    traffic: &[RecommendRequest],
    config: LoadGenConfig,
) -> std::io::Result<ScrapedLoadReport> {
    let before = scrape_total_latency(addr)?;
    let report = run_load_test(cluster, traffic, config);
    let after = scrape_total_latency(addr)?;
    Ok(ScrapedLoadReport { report, server_latency: after.delta(&before) })
}

/// Response counts by status class from a closed-loop overload run.
/// `shed` counts `503`s separately from other 5xx: a shed is the admission
/// control *working*, a `server_error` is it failing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatusBreakdown {
    /// 2xx responses (admitted and answered).
    pub ok: usize,
    /// 4xx responses (client/framing errors).
    pub client_error: usize,
    /// 5xx responses other than `503` sheds.
    pub server_error: usize,
    /// `503` responses (shed by admission control).
    pub shed: usize,
    /// Failed connection attempts (server unreachable or accept backlog
    /// full at the OS level).
    pub connect_failures: usize,
}

impl StatusBreakdown {
    /// Total responses received (excluding connect failures).
    pub fn responses(&self) -> usize {
        self.ok + self.client_error + self.server_error + self.shed
    }

    fn classify(&mut self, status: u16) {
        match status {
            200..=299 => self.ok += 1,
            503 => self.shed += 1,
            400..=499 => self.client_error += 1,
            500..=599 => self.server_error += 1,
            _ => self.server_error += 1,
        }
    }

    fn merge(&mut self, other: &StatusBreakdown) {
        self.ok += other.ok;
        self.client_error += other.client_error;
        self.server_error += other.server_error;
        self.shed += other.shed;
        self.connect_failures += other.connect_failures;
    }
}

/// Parameters of a closed-loop overload run.
#[derive(Debug, Clone, Copy)]
pub struct OverloadConfig {
    /// Concurrent closed-loop clients. Size this past the server's worker
    /// count (≈2× saturation) to exercise the admission control.
    pub clients: usize,
    /// Run duration.
    pub duration: Duration,
    /// Pause before a client retries after a failed connect.
    pub reconnect_backoff: Duration,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        Self {
            clients: 16,
            duration: Duration::from_secs(2),
            reconnect_backoff: Duration::from_millis(2),
        }
    }
}

/// Outcome of a closed-loop overload run.
#[derive(Debug, Clone)]
pub struct OverloadReport {
    /// Responses by status class.
    pub breakdown: StatusBreakdown,
    /// Latency percentiles of the *accepted* (2xx) responses only — the
    /// population whose tail the admission control promises to bound.
    pub accepted_latency: Option<LatencySummary>,
    /// Achieved response rate across all classes.
    pub achieved_rps: f64,
}

/// Drives the HTTP front end at `addr` with closed-loop clients for
/// `config.duration`, replaying `traffic` round-robin. Clients reconnect
/// whenever the server closes the connection (sheds, rejects, keep-alive
/// caps), so the run keeps pressure on the accept gate throughout.
pub fn run_overload_test(
    addr: SocketAddr,
    traffic: &[RecommendRequest],
    config: OverloadConfig,
) -> OverloadReport {
    assert!(!traffic.is_empty(), "traffic must not be empty");
    let start = Instant::now();
    let next = AtomicUsize::new(0);

    struct ClientOut {
        breakdown: StatusBreakdown,
        latency: LatencyRecorder,
    }

    let outs: Vec<ClientOut> = crossbeam::thread::scope(|scope| {
        let next = &next;
        let handles: Vec<_> = (0..config.clients.max(1))
            .map(|_| {
                scope.spawn(move |_| {
                    let mut out = ClientOut {
                        breakdown: StatusBreakdown::default(),
                        latency: LatencyRecorder::new(),
                    };
                    let mut client: Option<HttpClient> = None;
                    while start.elapsed() < config.duration {
                        let Some(c) = client.as_mut() else {
                            match HttpClient::connect(addr) {
                                Ok(c) => client = Some(c),
                                Err(_) => {
                                    out.breakdown.connect_failures += 1;
                                    std::thread::sleep(config.reconnect_backoff);
                                }
                            }
                            continue;
                        };
                        // ORDERING: shared request ticket, partner: none.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let req = traffic[i % traffic.len()];
                        let body = format!(
                            r#"{{"session_id": {}, "item_id": {}, "consent": {}, "filter_adult": {}}}"#,
                            req.session_id, req.item, req.consent, req.filter_adult
                        );
                        let t0 = Instant::now();
                        match c.post("/recommend", &body) {
                            Ok((status, _)) => {
                                out.breakdown.classify(status);
                                if (200..=299).contains(&status) {
                                    out.latency.record(t0.elapsed());
                                }
                                // Sheds and rejects close the connection
                                // server-side; drop the client so the next
                                // iteration reconnects instead of failing.
                                if status != 200 {
                                    client = None;
                                }
                            }
                            Err(_) => {
                                // The server closed mid-exchange (shed at
                                // the accept gate after the response, or a
                                // keep-alive cap); reconnect and continue.
                                client = None;
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("overload client")).collect()
    })
    .expect("overload scope");

    let elapsed = start.elapsed();
    let mut breakdown = StatusBreakdown::default();
    let mut latency = LatencyRecorder::new();
    for o in &outs {
        breakdown.merge(&o.breakdown);
        latency.merge(&o.latency);
    }
    OverloadReport {
        achieved_rps: breakdown.responses() as f64 / elapsed.as_secs_f64(),
        accepted_latency: latency.summary(),
        breakdown,
    }
}

/// Outcome of a socket-level open-loop run ([`run_socket_load_test`]).
#[derive(Debug, Clone)]
pub struct SocketLoadReport {
    /// Client-observed latency distribution of successful (2xx) requests.
    pub total: Option<LatencySummary>,
    /// Requests answered 2xx.
    pub completed: usize,
    /// Requests answered outside 2xx or lost to a connection error.
    pub errors: usize,
    /// Worst status code observed (`0` if every exchange failed at the
    /// socket layer before a status arrived).
    pub worst_status: u16,
    /// Achieved 2xx rate over the run.
    pub achieved_rps: f64,
}

/// Open-loop load against an HTTP front end — the multi-node counterpart
/// of [`run_load_test`]. The schedule is identical (global send clock,
/// seeded jitter, shared ticket counter) but requests travel over real
/// sockets through whatever answers `addr` — a single node or a router
/// fronting many — so the report measures the *cluster's* latency,
/// including proxy and failover cost. Workers hold one keep-alive
/// connection each and reconnect on any socket error; a request lost to a
/// reset counts as an error, never as a retry (open loop: the schedule
/// does not slow down for failures).
pub fn run_socket_load_test(
    addr: SocketAddr,
    traffic: &[RecommendRequest],
    config: LoadGenConfig,
) -> SocketLoadReport {
    assert!(!traffic.is_empty(), "traffic must not be empty");
    assert!(config.target_rps > 0.0);
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let interval = Duration::from_secs_f64(1.0 / config.target_rps);

    struct WorkerOut {
        latency: LatencyRecorder,
        completed: usize,
        errors: usize,
        worst_status: u16,
    }

    let outs: Vec<WorkerOut> = crossbeam::thread::scope(|scope| {
        let next = &next;
        let handles: Vec<_> = (0..config.workers.max(1))
            .map(|_| {
                scope.spawn(move |_| {
                    let mut out = WorkerOut {
                        latency: LatencyRecorder::new(),
                        completed: 0,
                        errors: 0,
                        worst_status: 0,
                    };
                    let mut client: Option<HttpClient> = None;
                    loop {
                        // ORDERING: shared request ticket, partner: none.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        // Terminate on the un-jittered base offset so the
                        // offered schedule ends exactly at `duration`.
                        if interval.mul_f64(i as f64) >= config.duration {
                            break;
                        }
                        let due = scheduled_offset(i, interval, config.seed, config.jitter);
                        let now = start.elapsed();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let req = traffic[i % traffic.len()];
                        let body = format!(
                            r#"{{"session_id": {}, "item_id": {}, "consent": {}, "filter_adult": {}}}"#,
                            req.session_id, req.item, req.consent, req.filter_adult
                        );
                        let c = match client.as_mut() {
                            Some(c) => c,
                            None => match HttpClient::connect(addr) {
                                Ok(c) => client.insert(c),
                                Err(_) => {
                                    out.errors += 1;
                                    continue;
                                }
                            },
                        };
                        let t0 = Instant::now();
                        match c.post("/recommend", &body) {
                            Ok((status, _)) => {
                                out.worst_status = out.worst_status.max(status);
                                if (200..=299).contains(&status) {
                                    out.latency.record(t0.elapsed());
                                    out.completed += 1;
                                } else {
                                    out.errors += 1;
                                    client = None;
                                }
                            }
                            Err(_) => {
                                out.errors += 1;
                                client = None;
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("socket load worker")).collect()
    })
    .expect("socket load scope");

    let elapsed = start.elapsed();
    let mut latency = LatencyRecorder::new();
    let mut completed = 0;
    let mut errors = 0;
    let mut worst_status = 0;
    for o in &outs {
        latency.merge(&o.latency);
        completed += o.completed;
        errors += o.errors;
        worst_status = worst_status.max(o.worst_status);
    }
    SocketLoadReport {
        total: latency.summary(),
        completed,
        errors,
        worst_status,
        achieved_rps: completed as f64 / elapsed.as_secs_f64(),
    }
}

/// Parameters of a keep-alive connection ramp ([`run_connection_ramp`]).
#[derive(Debug, Clone)]
pub struct ConnectionRampConfig {
    /// Open-connection targets, one ramp step each (cumulative: connections
    /// persist across steps and the ramp only ever grows the set).
    pub steps: Vec<usize>,
    /// How long each step drives traffic once its connections are open.
    pub step_duration: Duration,
    /// Threads actively issuing requests. Each driver round-robins over its
    /// share of the connections, so with many connections and few drivers
    /// most connections sit idle (parked in the reactor) at any instant —
    /// exactly the keep-alive fleet shape the event loop exists for.
    pub drivers: usize,
    /// Mean per-request think time; the actual pause is seeded-jittered to
    /// `[0.5, 1.5)×` this ([`splitmix64`] of `seed ^ request index`, so the
    /// same seed reproduces the identical pacing).
    pub think_time: Duration,
    /// Seed for the think-time jitter.
    pub seed: u64,
    /// File descriptors reserved for the process itself (sockets the ramp
    /// must not consume).
    pub fd_margin: usize,
    /// File descriptors one ramp connection costs this process. `2` (the
    /// default) budgets for an in-process server, where every connection
    /// holds a client *and* an accepted socket; set `1` when the server
    /// lives in another process. Step targets are clamped to
    /// `(fd limit − fd_margin) / fds_per_connection`.
    pub fds_per_connection: usize,
}

impl Default for ConnectionRampConfig {
    fn default() -> Self {
        Self {
            steps: vec![64, 256, 1024],
            step_duration: Duration::from_secs(1),
            drivers: 4,
            think_time: Duration::from_micros(500),
            seed: 0,
            fd_margin: 128,
            fds_per_connection: 2,
        }
    }
}

/// Outcome of one ramp step.
#[derive(Debug, Clone)]
pub struct RampStep {
    /// Keep-alive connections open during the step (after fd clamping).
    pub connections: usize,
    /// Achieved request rate over the step.
    pub achieved_rps: f64,
    /// Latency percentiles of the 2xx responses in the step.
    pub latency: Option<LatencySummary>,
    /// Process-wide open file descriptors at the end of the step (from
    /// `/proc/self/fd`; `0` where that pseudo-fs is unavailable).
    pub open_fds: usize,
    /// Non-2xx responses plus transport errors in the step.
    pub errors: usize,
}

/// Outcome of a connection ramp.
#[derive(Debug, Clone)]
pub struct ConnectionRampReport {
    /// Per-step series.
    pub steps: Vec<RampStep>,
    /// The `RLIMIT_NOFILE` ceiling the ramp ran under (after attempting to
    /// raise it to cover the largest step).
    pub fd_limit: u64,
}

/// Open file descriptors of this process, or `0` off Linux.
fn open_fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd").map(|entries| entries.count()).unwrap_or(0)
}

/// Ramps a fleet of keep-alive connections against the HTTP front end at
/// `addr`: each step grows the fleet to its target, then a small driver
/// pool issues predicts round-robin across the whole fleet with seeded
/// think-time for `step_duration`, reporting achieved rps, 2xx latency
/// percentiles and the process fd count per step.
///
/// The shape under test is the event loop's: thousands of mostly-idle
/// keep-alive sockets multiplexed by one reactor thread, with the active
/// subset bounded by the driver pool. The process `RLIMIT_NOFILE` is raised
/// to cover the largest step (root can raise the hard limit; otherwise the
/// soft limit is raised to the hard ceiling) and every target is clamped to
/// `limit − fd_margin`, so the ramp degrades to what the environment allows
/// instead of dying on `EMFILE`.
pub fn run_connection_ramp(
    addr: SocketAddr,
    traffic: &[RecommendRequest],
    config: ConnectionRampConfig,
) -> ConnectionRampReport {
    assert!(!traffic.is_empty(), "traffic must not be empty");
    let per_conn = config.fds_per_connection.max(1);
    let want =
        config.steps.iter().copied().max().unwrap_or(0) * per_conn + config.fd_margin;
    let fd_limit = crate::server::reactor::raise_nofile_limit(want as u64);
    let cap =
        ((fd_limit as usize).saturating_sub(config.fd_margin) / per_conn).max(1);

    let mut conns: Vec<Option<HttpClient>> = Vec::new();
    let mut steps = Vec::new();
    let sent = AtomicUsize::new(0);
    for &target in &config.steps {
        let target = target.min(cap);
        // Grow the fleet; a connect may bounce off the accept backlog under
        // a connect storm, so retry briefly before giving up on a slot.
        while conns.len() < target {
            let mut slot = None;
            for _ in 0..3 {
                match HttpClient::connect(addr) {
                    Ok(c) => {
                        slot = Some(c);
                        break;
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            }
            match slot {
                Some(c) => conns.push(Some(c)),
                None => break,
            }
        }
        let fleet = conns.len();

        struct DriverOut {
            latency: LatencyRecorder,
            completed: usize,
            errors: usize,
        }
        let drivers = config.drivers.max(1);
        let chunk_len = fleet.div_ceil(drivers).max(1);
        let start = Instant::now();
        let outs: Vec<DriverOut> = crossbeam::thread::scope(|scope| {
            let sent = &sent;
            let handles: Vec<_> = conns
                .chunks_mut(chunk_len)
                .map(|chunk| {
                    scope.spawn(move |_| {
                        let mut out = DriverOut {
                            latency: LatencyRecorder::new(),
                            completed: 0,
                            errors: 0,
                        };
                        let mut pos = 0usize;
                        while start.elapsed() < config.step_duration {
                            let slot = &mut chunk[pos % chunk.len()];
                            pos += 1;
                            // ORDERING: shared request ticket, partner: none.
                            let i = sent.fetch_add(1, Ordering::Relaxed);
                            let req = traffic[i % traffic.len()];
                            let body = format!(
                                r#"{{"session_id": {}, "item_id": {}, "consent": {}}}"#,
                                req.session_id, req.item, req.consent
                            );
                            let reconnect = match slot.as_mut() {
                                Some(c) => {
                                    let t0 = Instant::now();
                                    match c.post("/recommend", &body) {
                                        Ok((status, _)) if (200..=299).contains(&status) => {
                                            out.latency.record(t0.elapsed());
                                            out.completed += 1;
                                            false
                                        }
                                        Ok(_) | Err(_) => {
                                            out.errors += 1;
                                            true
                                        }
                                    }
                                }
                                None => true,
                            };
                            if reconnect {
                                *slot = HttpClient::connect(addr).ok();
                            }
                            if config.think_time > Duration::ZERO {
                                let unit = (splitmix64(config.seed ^ i as u64) >> 11)
                                    as f64
                                    / (1u64 << 53) as f64;
                                std::thread::sleep(config.think_time.mul_f64(0.5 + unit));
                            }
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("ramp driver")).collect()
        })
        .expect("ramp scope");

        let elapsed = start.elapsed();
        let mut latency = LatencyRecorder::new();
        let mut completed = 0;
        let mut errors = 0;
        for o in &outs {
            latency.merge(&o.latency);
            completed += o.completed;
            errors += o.errors;
        }
        steps.push(RampStep {
            connections: fleet,
            achieved_rps: completed as f64 / elapsed.as_secs_f64(),
            latency: latency.summary(),
            open_fds: open_fd_count(),
            errors,
        });
    }
    ConnectionRampReport { steps, fd_limit }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::rules::BusinessRules;
    use serenade_core::{Click, SessionIndex};

    fn cluster() -> Arc<ServingCluster> {
        let mut clicks = Vec::new();
        for s in 0..40u64 {
            let ts = 100 + s * 10;
            clicks.push(Click::new(s + 1, s % 6, ts));
            clicks.push(Click::new(s + 1, (s + 1) % 6, ts + 1));
        }
        let index = Arc::new(SessionIndex::build(&clicks, 500).unwrap());
        Arc::new(
            ServingCluster::new(index, 2, EngineConfig::default(), BusinessRules::none())
                .unwrap(),
        )
    }

    fn sessions() -> Vec<Session> {
        (0..10u64)
            .map(|i| Session {
                id: 1_000 + i,
                items: vec![i % 6, (i + 1) % 6, (i + 2) % 6],
                start: 0,
                end: 2,
            })
            .collect()
    }

    #[test]
    fn requests_interleave_sessions() {
        let reqs = requests_from_sessions(&sessions());
        assert_eq!(reqs.len(), 30);
        // The first 10 requests are the first click of each session.
        let first_ten: Vec<u64> = reqs[..10].iter().map(|r| r.session_id).collect();
        let expected: Vec<u64> = (1_000..1_010).collect();
        assert_eq!(first_ten, expected);
    }

    #[test]
    fn load_test_reaches_target_rate() {
        let cluster = cluster();
        let traffic = requests_from_sessions(&sessions());
        let config = LoadGenConfig {
            target_rps: 400.0,
            duration: Duration::from_millis(800),
            workers: 4,
            window: Duration::from_millis(200),
            ..LoadGenConfig::default()
        };
        let report = run_load_test(&cluster, &traffic, config);
        // ~320 requests expected; allow generous slack for CI noise.
        assert!(report.completed > 200, "completed = {}", report.completed);
        assert!(report.achieved_rps > 200.0, "rps = {}", report.achieved_rps);
        assert!(report.total.is_some());
        assert_eq!(report.windows.len(), 4);
        assert!(report.cores_busy > 0.0);
        let window_sum: usize = report.windows.iter().map(|w| w.requests).sum();
        assert_eq!(window_sum, report.completed);
    }

    #[test]
    #[should_panic(expected = "traffic must not be empty")]
    fn empty_traffic_is_rejected() {
        let cluster = cluster();
        run_load_test(&cluster, &[], LoadGenConfig::default());
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let interval = Duration::from_micros(500);
        let a: Vec<Duration> =
            (0..256).map(|i| scheduled_offset(i, interval, 7, 0.5)).collect();
        let b: Vec<Duration> =
            (0..256).map(|i| scheduled_offset(i, interval, 7, 0.5)).collect();
        assert_eq!(a, b, "same seed must produce the identical schedule");

        let c: Vec<Duration> =
            (0..256).map(|i| scheduled_offset(i, interval, 8, 0.5)).collect();
        assert_ne!(a, c, "a different seed must move at least one send time");

        // Jitter is bounded by one interval and never pulls a send earlier
        // than its periodic slot.
        for (i, &t) in a.iter().enumerate() {
            let base = interval.mul_f64(i as f64);
            assert!(t >= base && t < base + interval, "request {i} out of range");
        }

        // jitter = 0 degrades to the perfectly periodic schedule.
        for i in 0..32 {
            assert_eq!(
                scheduled_offset(i, interval, 99, 0.0),
                interval.mul_f64(i as f64)
            );
        }
    }

    #[test]
    fn zipf_stream_is_deterministic_per_seed() {
        let items: Vec<u64> = (0..50).collect();
        let a = zipf_requests(&items, 500, 1.1, 7);
        let b = zipf_requests(&items, 500, 1.1, 7);
        assert_eq!(a, b, "same seed must draw the identical item sequence");
        let c = zipf_requests(&items, 500, 1.1, 8);
        assert_ne!(a, c, "a different seed must move at least one draw");
        assert!(a.iter().all(|r| !r.consent), "zipf traffic is depersonalised");
        // Fresh session per request: no accidental stickiness.
        let ids: std::collections::HashSet<u64> =
            a.iter().map(|r| r.session_id).collect();
        assert_eq!(ids.len(), a.len());
    }

    #[test]
    fn zipf_exponent_controls_the_skew() {
        let items: Vec<u64> = (0..100).collect();
        let head_share = |exponent: f64| {
            let reqs = zipf_requests(&items, 20_000, exponent, 3);
            // Fraction of traffic on the 5 most popular ranks (items 0..5).
            reqs.iter().filter(|r| r.item < 5).count() as f64 / reqs.len() as f64
        };
        let uniform = head_share(0.0);
        let mild = head_share(0.8);
        let heavy = head_share(1.5);
        assert!((uniform - 0.05).abs() < 0.02, "exponent 0 ≈ uniform: {uniform}");
        assert!(mild > uniform + 0.1, "skew must concentrate the head: {mild}");
        assert!(heavy > mild + 0.1, "more skew, more concentration: {heavy}");

        // Popularity is monotone in rank: the top rank dominates the tail.
        let reqs = zipf_requests(&items, 20_000, 1.0, 9);
        let count = |item: u64| reqs.iter().filter(|r| r.item == item).count();
        assert!(count(0) > 4 * count(99), "rank 0 must dwarf the last rank");
    }

    #[test]
    fn zipf_traffic_drives_the_prediction_cache() {
        let cluster = cluster();
        let traffic = zipf_requests(&[0, 1, 2, 3, 4, 5], 400, 1.2, 11);
        let mut ctx = RequestContext::new();
        for req in &traffic {
            cluster.handle_with(*req, &mut ctx).unwrap();
        }
        let cache = cluster.prediction_cache().expect("enabled by default");
        assert_eq!(cache.hit_count() + cache.miss_count(), 400);
        // Six distinct items: everything past the first sighting is a hit.
        assert_eq!(cache.miss_count(), 6);
        assert!(cache.stale_count() == 0);
    }

    #[test]
    fn write_slots_are_seeded_and_match_the_fraction() {
        let a: Vec<bool> = (0..4_096).map(|i| is_write_slot(7, i, 0.2)).collect();
        let b: Vec<bool> = (0..4_096).map(|i| is_write_slot(7, i, 0.2)).collect();
        assert_eq!(a, b, "same seed must pick the identical write slots");
        let c: Vec<bool> = (0..4_096).map(|i| is_write_slot(8, i, 0.2)).collect();
        assert_ne!(a, c, "a different seed must move at least one slot");

        let share = a.iter().filter(|&&w| w).count() as f64 / a.len() as f64;
        assert!((share - 0.2).abs() < 0.03, "write share ≈ fraction: {share}");
        assert!((0..1_000).all(|i| !is_write_slot(7, i, 0.0)), "fraction 0 = read-only");
        assert!((0..1_000).all(|i| is_write_slot(7, i, 1.0)), "fraction 1 = write-only");
    }

    #[test]
    fn mixed_load_reads_under_live_publishes() {
        use crate::ingest::IngestConfig;
        let cluster = cluster();
        let seed_log: Vec<Click> = {
            let mut clicks = Vec::new();
            for s in 0..40u64 {
                let ts = 100 + s * 10;
                clicks.push(Click::new(s + 1, s % 6, ts));
                clicks.push(Click::new(s + 1, (s + 1) % 6, ts + 1));
            }
            clicks
        };
        cluster
            .enable_ingest(
                IngestConfig {
                    publish_interval: Duration::from_millis(20),
                    ..IngestConfig::default()
                },
                &seed_log,
            )
            .unwrap();
        let generation_before = cluster.pods()[0].index_handle().generation();
        let traffic = requests_from_sessions(&sessions());
        let config = LoadGenConfig {
            target_rps: 400.0,
            duration: Duration::from_millis(600),
            workers: 4,
            window: Duration::from_millis(200),
            seed: 11,
            ..LoadGenConfig::default()
        };
        let report = run_mixed_load_test(
            &cluster,
            &traffic,
            config,
            MixedLoadConfig { ingest_fraction: 0.25, ..MixedLoadConfig::default() },
        );
        assert!(report.reads.completed > 100, "reads = {}", report.reads.completed);
        assert!(report.writes_accepted > 20, "writes = {}", report.writes_accepted);
        assert_eq!(report.writes_rejected, 0, "queue must keep up at this rate");
        assert!(report.write_latency.is_some());
        assert!(report.publishes >= 1, "churn must publish at least once");
        assert!(
            cluster.pods()[0].index_handle().generation() > generation_before,
            "publishes must bump the served generation"
        );
        let window_sum: usize = report.reads.windows.iter().map(|w| w.requests).sum();
        assert_eq!(window_sum, report.reads.completed);
        // Reads and writes share one schedule: together they cover it.
        let total = report.reads.completed + report.writes_accepted + report.writes_rejected;
        assert!(total > 150, "schedule coverage: {total}");
    }

    #[test]
    fn overload_run_sheds_with_503_and_keeps_serving() {
        use crate::server::{HttpServer, HttpServerConfig};
        let cluster = cluster();
        // One worker, a one-slot queue and a keep-alive cap: eight
        // closed-loop clients are far past saturation, so the accept gate
        // must shed (and the cap forces churn so no client monopolises the
        // single worker).
        let config = HttpServerConfig {
            workers: 1,
            queue_capacity: 1,
            keepalive_max_requests: 4,
            ..HttpServerConfig::default()
        };
        let server = HttpServer::serve(Arc::clone(&cluster), config).unwrap();
        let traffic = requests_from_sessions(&sessions());
        let report = run_overload_test(
            server.addr(),
            &traffic,
            OverloadConfig {
                clients: 8,
                duration: Duration::from_millis(600),
                ..OverloadConfig::default()
            },
        );
        assert!(report.breakdown.ok > 0, "some requests must be served: {report:?}");
        assert!(report.breakdown.shed > 0, "overload must shed with 503: {report:?}");
        assert_eq!(report.breakdown.server_error, 0, "sheds must not be 5xx: {report:?}");
        assert!(report.accepted_latency.is_some());
        // Server-side accounting matches: every shed was counted, none
        // silently dropped.
        let shed_seen = server.metrics().shed_total();
        assert!(
            shed_seen >= report.breakdown.shed as u64,
            "server counted {shed_seen} sheds, clients saw {}",
            report.breakdown.shed
        );
        server.shutdown();
    }

    #[test]
    fn connection_ramp_grows_a_keepalive_fleet_and_reports_per_step() {
        use crate::server::{HttpServer, HttpServerConfig};
        let cluster = cluster();
        let server = HttpServer::serve(
            Arc::clone(&cluster),
            HttpServerConfig { workers: 2, ..HttpServerConfig::default() },
        )
        .unwrap();
        let traffic = requests_from_sessions(&sessions());
        let report = run_connection_ramp(
            server.addr(),
            &traffic,
            ConnectionRampConfig {
                steps: vec![8, 32],
                step_duration: Duration::from_millis(300),
                drivers: 2,
                think_time: Duration::from_micros(200),
                seed: 7,
                fd_margin: 64,
                fds_per_connection: 2,
            },
        );
        assert_eq!(report.steps.len(), 2);
        assert_eq!(report.steps[0].connections, 8, "{report:?}");
        assert_eq!(report.steps[1].connections, 32, "{report:?}");
        for step in &report.steps {
            assert!(step.achieved_rps > 0.0, "{report:?}");
            assert!(step.latency.is_some(), "{report:?}");
            assert_eq!(step.errors, 0, "keep-alive fleet must not churn: {report:?}");
            // In-process server: client and server ends both count, so the
            // fd census must at least cover the fleet (0 = no /proc).
            if step.open_fds > 0 {
                assert!(step.open_fds >= step.connections, "{report:?}");
            }
        }
        server.shutdown();
    }

    #[test]
    fn scraped_run_reports_server_side_latency() {
        use crate::server::{HttpServer, HttpServerConfig};
        let cluster = cluster();
        let server =
            HttpServer::serve(Arc::clone(&cluster), HttpServerConfig::default()).unwrap();
        let addr = server.addr();
        let traffic = requests_from_sessions(&sessions());
        let config = LoadGenConfig {
            target_rps: 300.0,
            duration: Duration::from_millis(400),
            workers: 2,
            window: Duration::from_millis(200),
            seed: 42,
            jitter: 0.3,
        };
        let scraped = run_load_test_scraped(&cluster, addr, &traffic, config).unwrap();
        // The loadgen drives the cluster directly (not through HTTP), but the
        // engines record into the same histograms the server exposes, so the
        // scrape delta must cover exactly the run's requests.
        assert_eq!(
            scraped.server_latency.count as usize,
            scraped.report.completed,
            "scrape delta should match completed requests"
        );
        assert!(scraped.server_latency.quantile_us(0.9) >= scraped.server_latency.quantile_us(0.5));
        server.shutdown();
    }
}
