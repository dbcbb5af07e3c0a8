//! The traced run: per-layer metrics, measured from the benchmark's own code
//! around calls into each layer's public functions, at concurrency 1, over
//! the first requests of the workload's stream.
//!
//! One deployment holds every topology at once — an in-process cluster, a
//! stand-alone node, and a router in front of two more nodes — and the same
//! requests go through each in its own pass. The round trips nest, so the
//! self times telescope: `routerd.self = via-router − direct-to-node`,
//! `server.self = direct-to-node − engine`, each a difference of medians.
//! Spans are kept in memory and written to `out/trace.<workload>.json` when
//! the run ends. End-to-end numbers are never taken here.

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::awake::KeepAwake;
use crate::client::Client;
use crate::driver::{Checked, CHECK_EVERY};
use crate::inputs::{self, Request};
use crate::oracle;
use crate::report::{self, Metric, Outcome};
use crate::stats;
use crate::surface::{self, CacheProbe, Indexer, ItemId, Kernel, SessionStoreProbe};
use crate::workloads::{
    family_sum, metrics_pages, note_keep_awake, Deployment, RunConfig, Spec, Workload, PHASE_STRIDE,
};

/// At most this many requests of the stream are traced.
const MAX_TRACED_REQUESTS: usize = 20_000;

/// Span `request` id of work that belongs to no request (the write path).
const NO_REQUEST: usize = u32::MAX as usize;

/// Repeats of each ingest and index measurement; the median is reported.
const WRITE_REPEATS: usize = 5;

/// The self times of a topology's layers must add up to what its client
/// saw, within this share. They do by construction (differences of
/// medians); the check guards the arithmetic.
const TELESCOPE_TOLERANCE: f64 = 0.05;
/// Engine time that no directly probed layer accounts for is noted when it
/// exceeds this share of the engine's time.
const UNATTRIBUTED_TOLERANCE: f64 = 0.15;

/// One recorded span. `parent` is the id of the span that caused it.
struct Span {
    name: &'static str,
    request: u32,
    id: u32,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

/// Spans of a run, kept in memory until it ends.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn record(
        &mut self,
        name: &'static str,
        request: usize,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            request: request as u32,
            id,
            parent,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
        });
        id
    }

    /// One engine call and its three stages, laid end to end from `start`.
    fn record_engine(
        &mut self,
        request: usize,
        start: Instant,
        end: Instant,
        stages: surface::Stages,
    ) {
        let engine = self.record("engine.handle", request, None, start, end);
        let session_end = start + stages.session;
        let predict_end = session_end + stages.predict;
        self.record("engine.session", request, Some(engine), start, session_end);
        self.record(
            "engine.predict",
            request,
            Some(engine),
            session_end,
            predict_end,
        );
        self.record(
            "engine.policy",
            request,
            Some(engine),
            predict_end,
            predict_end + stages.policy,
        );
    }

    fn write(&self, workload: &str) -> std::io::Result<std::path::PathBuf> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 64);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"spans\":["
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("null"), |p| p.to_string());
            let request = if s.request == u32::MAX {
                String::from("null")
            } else {
                s.request.to_string()
            };
            let _ = write!(
                out,
                "{}\n{{\"name\":\"{}\",\"request\":{request},\"id\":{},\"parent\":{parent},\"start\":{},\"end\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.id,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n]}\n");
        let dir = report::out_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace.{workload}.json"));
        std::fs::write(&path, out)?;
        Ok(path)
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn item_ids(body: &str) -> Option<Vec<ItemId>> {
    Some(
        surface::parse_recommendations(body)?
            .into_iter()
            .map(|(item, _)| item)
            .collect(),
    )
}

/// One pass of the traced requests over a socket: the round trip of each
/// request in nanoseconds and the item ids it answered.
struct SocketPass {
    round_trip: Vec<u64>,
    answers: Vec<Option<Vec<ItemId>>>,
}

/// Sends `stream` to `addr` one request at a time until it ends or `budget`
/// is spent; `at_half` runs once, when half the budget is gone.
fn socket_pass(
    addr: SocketAddr,
    stream: &[Request],
    span: &'static str,
    budget: Duration,
    mut at_half: impl FnMut(),
    tracer: &mut Tracer,
) -> Result<SocketPass, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut pass = SocketPass {
        round_trip: Vec::new(),
        answers: Vec::new(),
    };
    let began = Instant::now();
    let mut halved = false;
    for (i, request) in stream.iter().enumerate() {
        let spent = began.elapsed();
        if spent > budget {
            break;
        }
        if !halved && spent > budget / 2 {
            halved = true;
            at_half();
        }
        let body = request.body();
        let t0 = Instant::now();
        let response = client.post(surface::RECOMMEND_PATH, &body);
        let t1 = Instant::now();
        tracer.record(span, i, None, t0, t1);
        pass.round_trip.push(ns(t1 - t0));
        pass.answers.push(match response {
            Ok(r) if r.status == 200 => item_ids(&r.body),
            _ => None,
        });
    }
    Ok(pass)
}

/// Per-request times of the in-process pass, in nanoseconds.
#[derive(Default)]
struct EnginePass {
    handle: Vec<u64>,
    session: Vec<u64>,
    predict: Vec<u64>,
    policy: Vec<u64>,
    answers: Vec<Option<Vec<ItemId>>>,
    checked: Vec<Checked>,
}

fn engine_pass(dep: &mut Deployment, stream: &[Request], tracer: &mut Tracer) -> EnginePass {
    let cluster = dep
        .in_process
        .as_mut()
        .expect("traced runs deploy an in-process cluster");
    let mut pass = EnginePass::default();
    for (i, request) in stream.iter().enumerate() {
        let t0 = Instant::now();
        let result = cluster.handle(request.session, request.item, request.consent);
        let t1 = Instant::now();
        let stages = cluster.last_stages();
        tracer.record_engine(i, t0, t1, stages);
        pass.handle.push(ns(t1 - t0));
        pass.session.push(ns(stages.session));
        pass.predict.push(ns(stages.predict));
        pass.policy.push(ns(stages.policy));
        let list = result.ok();
        if i.is_multiple_of(CHECK_EVERY) {
            let list = list
                .as_ref()
                .map(|l| l.iter().map(|r| (r.item, f64::from(r.score))).collect());
            pass.checked.push(Checked { index: i, list });
        }
        pass.answers
            .push(list.map(|l| l.iter().map(|r| r.item).collect()));
    }
    pass
}

/// Per-request times of the layer probes, in nanoseconds, index-aligned.
#[derive(Default)]
struct Probed {
    store: Vec<u64>,
    recommend: Vec<u64>,
    depersonalised: Vec<u64>,
    lookup_hit: Vec<u64>,
    lookup_miss: Vec<u64>,
    /// What the probes say request `i`'s session and predict stages cost.
    accounted: Vec<u64>,
    postings: u64,
    live_sessions: usize,
}

/// Calls each layer's public functions directly on the traced requests.
fn probe_layers(
    dep: &Deployment,
    stream: &[Request],
    tracer: &mut Tracer,
) -> Result<Probed, String> {
    let mut kernel = Kernel::new(dep.inputs.index.clone())?;
    let store = SessionStoreProbe::new();
    let cache = CacheProbe::new();
    let window_len = surface::kernel_window_len();
    let mut probed = Probed::default();
    let mut view: Vec<ItemId> = Vec::new();
    for (i, request) in stream.iter().enumerate() {
        let t0 = Instant::now();
        store.update(request.session, request.item, &mut view);
        let t1 = Instant::now();
        let _ = std::hint::black_box(kernel.recommend(&view));
        let t2 = Instant::now();
        let hit = cache.lookup(request.item);
        let t3 = Instant::now();
        let list = std::hint::black_box(kernel.depersonalised(request.item));
        let t4 = Instant::now();
        if !hit {
            cache.store(request.item, list);
        }
        tracer.record("kvstore.update", i, None, t0, t1);
        tracer.record("core.recommend", i, None, t1, t2);
        tracer.record("cache.lookup", i, None, t2, t3);
        tracer.record("core.depersonalised", i, None, t3, t4);

        let (update, recommend, lookup, depersonalised) =
            (ns(t1 - t0), ns(t2 - t1), ns(t3 - t2), ns(t4 - t3));
        probed.store.push(update);
        probed.recommend.push(recommend);
        probed.depersonalised.push(depersonalised);
        if hit {
            &mut probed.lookup_hit
        } else {
            &mut probed.lookup_miss
        }
        .push(lookup);
        // What the engine does for this request: a consented one updates
        // the session and runs the kernel on the window; an anonymous one
        // probes the cache and runs the one-item kernel only on a miss.
        probed.accounted.push(if request.consent {
            update + recommend
        } else {
            lookup + if hit { 0 } else { depersonalised }
        });
        let recent = &view[view.len().saturating_sub(window_len)..];
        probed.postings += recent
            .iter()
            .map(|&item| surface::postings_len(&dep.inputs.index, item) as u64)
            .sum::<u64>();
    }
    probed.live_sessions = store.live_sessions();
    Ok(probed)
}

/// Write-path layers: `IngestPipeline::submit` + `flush` on the in-process
/// cluster, `IncrementalIndexer::{apply_batch, snapshot}` and `VmisKnn::new`
/// directly. Returns the metrics in report order.
fn probe_write_path(dep: &Deployment, tracer: &mut Tracer) -> Result<Vec<Metric>, String> {
    let cluster = dep
        .in_process
        .as_ref()
        .expect("traced runs deploy an in-process cluster");
    let clicks = inputs::held_out_clicks(&dep.inputs.held_out);
    let mut batches = clicks.chunks(10).cycle();
    let mut next_batch = || batches.next().expect("the held-out day is not empty");

    let ingest = cluster.enable_ingest(&dep.inputs.train)?;
    let mut flush_ms = Vec::new();
    for _ in 0..WRITE_REPEATS {
        let batch = next_batch();
        let t = Instant::now();
        if !ingest.submit(batch) {
            return Err(String::from("an ingest batch was refused at concurrency 1"));
        }
        ingest.flush()?;
        flush_ms.push(ms_since(t));
        tracer.record("ingest.submit_flush", NO_REQUEST, None, t, Instant::now());
    }
    let page = cluster.metrics_text();
    let publishes = crate::client::metric_sum(&page, surface::metric::INGEST_PUBLISHES);
    let rejected = crate::client::metric_sum(&page, surface::metric::INGEST_REJECTED);

    let mut indexer = Indexer::seeded(&dep.inputs.train)?;
    let (mut apply_us_per_click, mut snapshot_ms) = (Vec::new(), Vec::new());
    for _ in 0..WRITE_REPEATS {
        let batch = next_batch();
        let t0 = Instant::now();
        indexer.apply_batch(batch)?;
        let t1 = Instant::now();
        let snapshot = indexer.snapshot()?;
        let t2 = Instant::now();
        drop(snapshot);
        apply_us_per_click.push((t1 - t0).as_secs_f64() * 1e6 / batch.len() as f64);
        snapshot_ms.push((t2 - t1).as_secs_f64() * 1e3);
        tracer.record("index.apply_batch", NO_REQUEST, None, t0, t1);
        tracer.record("index.snapshot", NO_REQUEST, None, t1, t2);
    }

    let mut kernel_build_ms = Vec::new();
    for _ in 0..WRITE_REPEATS {
        let t = Instant::now();
        let kernel = Kernel::new(dep.inputs.index.clone())?;
        kernel_build_ms.push(ms_since(t));
        tracer.record("core.kernel_build", NO_REQUEST, None, t, Instant::now());
        drop(kernel);
    }
    let median = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    Ok(vec![
        Metric::new("core.kernel_build_ms", median(&kernel_build_ms), "ms")
            .with_samples(WRITE_REPEATS),
        Metric::new("ingest.flush_ms", median(&flush_ms), "ms").with_samples(WRITE_REPEATS),
        Metric::new("ingest.publishes", publishes, "count"),
        Metric::new("ingest.rejected", rejected, "count"),
        Metric::new(
            "index.apply_us_per_click",
            median(&apply_us_per_click),
            "us",
        )
        .with_samples(WRITE_REPEATS),
        Metric::new("index.snapshot_ms", median(&snapshot_ms), "ms").with_samples(WRITE_REPEATS),
    ])
}

/// `replay.inproc`-style closed loop for `duration` on fresh sessions; with
/// a tracer, every call also records its spans. Returns calls per second.
fn closed_loop_rate(
    dep: &mut Deployment,
    config: &RunConfig,
    pass: u64,
    duration: Duration,
    mut tracer: Option<&mut Tracer>,
) -> f64 {
    let stream = config
        .workload
        .stream(&dep.inputs, config.seed, pass * PHASE_STRIDE);
    let cluster = dep
        .in_process
        .as_mut()
        .expect("traced runs deploy an in-process cluster");
    let began = Instant::now();
    let mut calls = 0u64;
    for (i, request) in stream.enumerate() {
        let t0 = Instant::now();
        if t0 - began >= duration {
            break;
        }
        let _ =
            std::hint::black_box(cluster.handle(request.session, request.item, request.consent));
        let t1 = Instant::now();
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.record_engine(i, t0, t1, cluster.last_stages());
        }
        calls += 1;
    }
    calls as f64 / began.elapsed().as_secs_f64().max(1e-9)
}

fn p99_us(ns: &[u64]) -> f64 {
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    stats::percentile(&sorted, 0.99).unwrap_or(0) as f64 / 1e3
}

/// Runs one workload's traced run and returns its per-layer metrics.
pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new();
    let began = Instant::now();
    // Nodes 0 and 1 behind the router, node 2 on its own.
    let spec = Spec {
        nodes: 3,
        routed: 2,
        in_process: true,
        ingest: false,
    };
    let mut dep = Deployment::start(spec, config.size(), config.seed)?;
    let setup_ms = ms_since(began);
    let awake = KeepAwake::start();
    let direct_addr = dep.nodes[2].data;
    let routed_addr = dep
        .router
        .as_ref()
        .expect("traced runs deploy a router")
        .addr;
    let fleet: Vec<SocketAddr> = dep.nodes[..2].iter().map(|n| n.data).collect();
    let cache_counts = || {
        let pages = metrics_pages(fleet.iter().copied());
        (
            family_sum(&pages, surface::metric::CACHE_HITS),
            family_sum(&pages, surface::metric::CACHE_MISSES),
        )
    };

    // The slowest pass goes first, on a time budget; the requests it got
    // through are the traced requests of every other pass.
    let stream: Vec<Request> = config
        .workload
        .stream(&dep.inputs, config.seed, 0)
        .take(MAX_TRACED_REQUESTS)
        .collect();
    let budget = Duration::from_secs(config.seconds) * 3 / 10;
    // The cache ratio is taken over the second half of the pass, once the
    // caches hold the workload's hot set.
    let mut counts_at_half = (0.0, 0.0);
    let routed = socket_pass(
        routed_addr,
        &stream,
        "router.round_trip",
        budget,
        || counts_at_half = cache_counts(),
        &mut tracer,
    )?;
    let (hits, misses) = cache_counts();
    let lookups = (hits - counts_at_half.0) + (misses - counts_at_half.1);
    let hit_ratio = if lookups > 0.0 {
        (hits - counts_at_half.0) / lookups
    } else {
        0.0
    };

    let traced = routed.round_trip.len();
    if traced == 0 {
        return Err(String::from("the traced pass completed no request"));
    }
    let stream = &stream[..traced];
    let direct = socket_pass(
        direct_addr,
        stream,
        "node.round_trip",
        Duration::MAX,
        || (),
        &mut tracer,
    )?;
    let engine = engine_pass(&mut dep, stream, &mut tracer);

    // The three topologies serve the same index and saw the same sessions,
    // so they must agree item for item; the oracle checks every 64th.
    outcome.attempted += 3 * traced as u64;
    for i in 0..traced {
        let expected = &engine.answers[i];
        let disagreeing = usize::from(expected.is_none())
            + usize::from(direct.answers.get(i) != Some(expected))
            + usize::from(routed.answers[i] != *expected);
        if disagreeing > 0 {
            outcome.failed += disagreeing as u64;
            if outcome.notes.len() < 4 {
                outcome.notes.push(format!(
                    "request {i}: in-process, direct and routed answers differ or failed"
                ));
            }
        }
    }
    let verdict = oracle::verify(
        stream.iter().copied(),
        |_| true,
        engine.checked,
        &dep.oracle,
        usize::MAX,
        2,
    );
    outcome.failed += verdict.mismatches;
    if let Some(m) = verdict.first_mismatch {
        outcome.notes.push(format!("first oracle mismatch: {m}"));
    }

    let probed = probe_layers(&dep, stream, &mut tracer)?;
    let write_path = probe_write_path(&dep, &mut tracer)?;

    let pages = dep.metrics_pages();
    let shed = family_sum(&pages, surface::metric::HTTP_SHED);
    let failover = family_sum(&pages, surface::metric::ROUTER_FAILOVER);
    if failover > 0.0 {
        outcome.failed += 1;
        outcome.notes.push(format!(
            "the router failed over {failover} times with every node alive"
        ));
    }
    let mut scrape_ms = Vec::new();
    let mut scraper = Client::connect(direct_addr).map_err(|e| e.to_string())?;
    for _ in 0..WRITE_REPEATS {
        let t = Instant::now();
        let page = scraper
            .get(surface::METRICS_PATH)
            .map_err(|e| format!("GET /metrics: {e}"))?;
        scrape_ms.push(ms_since(t));
        tracer.record("telemetry.scrape", NO_REQUEST, None, t, Instant::now());
        outcome.attempted += 1;
        if page.status != 200 {
            outcome.failed += 1;
        }
    }

    // Tracing overhead: the same closed loop without and with span
    // recording. The spans of this loop are counted, not written.
    let slice = Duration::from_secs(config.seconds) / 10;
    let untraced_rps = closed_loop_rate(&mut dep, config, 1, slice, None);
    let mut scratch_tracer = Tracer::new();
    let traced_rps = closed_loop_rate(&mut dep, config, 2, slice, Some(&mut scratch_tracer));
    note_keep_awake(&mut outcome, awake.stop());

    // Self times: the engine's is what the in-process call took; each outer
    // layer's is its round trip minus the one nested inside it.
    let engine_us = stats::median_us(&engine.handle);
    let direct_us = stats::median_us(&direct.round_trip);
    let routed_us = stats::median_us(&routed.round_trip);
    let server_self_us = direct_us - engine_us;
    let routerd_self_us = routed_us - direct_us;
    let (client_us, layer_sum_us) = match config.workload {
        Workload::ReplayInproc => (engine_us, engine_us),
        Workload::NodeBrowse | Workload::NodeIngestMix => (direct_us, engine_us + server_self_us),
        Workload::FleetAnonHot => (routed_us, engine_us + server_self_us + routerd_self_us),
    };
    if (layer_sum_us - client_us).abs() > TELESCOPE_TOLERANCE * client_us {
        outcome.failed += 1;
        outcome.notes.push(format!(
            "layer self times sum to {layer_sum_us:.2} us but the client saw {client_us:.2} us (more than 5 % apart)"
        ));
    }
    // Engine time the directly probed layers do not account for.
    let unattributed: Vec<f64> = (0..traced)
        .map(|i| {
            (engine.handle[i] as f64 - probed.accounted[i] as f64 - engine.policy[i] as f64) / 1e3
        })
        .collect();
    let unattributed_us = stats::median(&unattributed).unwrap_or(0.0);
    if unattributed_us.abs() > UNATTRIBUTED_TOLERANCE * engine_us {
        outcome.notes.push(format!(
            "engine.unattributed_us {unattributed_us:.2} is more than 15 % of engine.handle_us {engine_us:.2}"
        ));
    }

    // Set-up parts. Everything the deployment did is either one of these or
    // the benchmark's own work (oracle, files): `setup.unattributed_ms`.
    let t = dep.inputs.timings;
    let parts_ms = t.generate_ms
        + t.split_ms
        + t.build_ms
        + t.encode_ms
        + dep.timings.decode_ms
        + dep.timings.cluster_build_ms
        + dep.timings.spawn_ms;

    let us =
        |name, ns: &[u64]| Metric::new(name, stats::median_us(ns), "us").with_samples(ns.len());
    outcome.metrics = vec![
        us("core.recommend_us", &probed.recommend),
        Metric::new("core.recommend_p99_us", p99_us(&probed.recommend), "us").with_samples(traced),
        Metric::new(
            "core.postings_per_req",
            probed.postings as f64 / traced as f64,
            "count",
        )
        .with_samples(traced),
        us("core.depersonalised_us", &probed.depersonalised),
        us("kvstore.update_us", &probed.store),
        Metric::new(
            "kvstore.live_sessions",
            probed.live_sessions as f64,
            "count",
        ),
        us("engine.handle_us", &engine.handle),
        us("engine.session_us", &engine.session),
        us("engine.predict_us", &engine.predict),
        us("engine.policy_us", &engine.policy),
        Metric::new("engine.unattributed_us", unattributed_us, "us").with_samples(traced),
        Metric::new("cache.hit_ratio", hit_ratio, "ratio").with_samples(lookups as usize),
        us("cache.lookup_hit_us", &probed.lookup_hit),
        us("cache.lookup_miss_us", &probed.lookup_miss),
        Metric::new("server.self_us", server_self_us, "us").with_samples(traced),
        Metric::new("server.shed", shed, "count"),
        Metric::new("routerd.self_us", routerd_self_us, "us").with_samples(traced),
        Metric::new("routerd.failover_total", failover, "count"),
    ];
    outcome.metrics.extend(write_path);
    outcome.metrics.extend([
        Metric::new("dataset.generate_ms", t.generate_ms, "ms"),
        Metric::new("dataset.split_ms", t.split_ms, "ms"),
        Metric::new("index.build_ms", t.build_ms, "ms"),
        Metric::new("index.encode_ms", t.encode_ms, "ms"),
        Metric::new("index.decode_ms", dep.timings.decode_ms, "ms"),
        Metric::new(
            "index.artifact_mb",
            dep.inputs.artifact.len() as f64 / 1e6,
            "MB",
        ),
        Metric::new("setup.spawn_ms", dep.timings.spawn_ms, "ms"),
        Metric::new("setup.unattributed_ms", setup_ms - parts_ms, "ms"),
        Metric::new(
            "telemetry.scrape_ms",
            stats::median(&scrape_ms).unwrap_or(0.0),
            "ms",
        )
        .with_samples(scrape_ms.len()),
        Metric::new(
            "trace.overhead_ratio",
            traced_rps / untraced_rps.max(1e-9),
            "ratio",
        ),
        Metric::new("trace.client_p50_us", client_us, "us").with_samples(traced),
        Metric::new("trace.layer_sum_us", layer_sum_us, "us").with_samples(traced),
        Metric::new("trace.requests", traced as f64, "count"),
    ]);
    outcome.diagnostics = vec![
        Metric::new("setup.total_ms", setup_ms, "ms"),
        Metric::new(
            "engine.cluster_build_ms",
            dep.timings.cluster_build_ms,
            "ms",
        ),
        Metric::new("node.round_trip_us", direct_us, "us").with_samples(traced),
        Metric::new("router.round_trip_us", routed_us, "us").with_samples(traced),
        Metric::new("trace.untraced_rps", untraced_rps, "1/s"),
        Metric::new("trace.traced_rps", traced_rps, "1/s"),
        Metric::new("trace.spans", tracer.spans.len() as f64, "count"),
    ];
    match tracer.write(config.workload.name()) {
        Ok(path) => outcome
            .notes
            .push(format!("trace written to {}", path.display())),
        Err(e) => return Err(format!("writing the trace file: {e}")),
    }
    Ok(outcome)
}
