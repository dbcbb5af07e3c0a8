//! The four workloads: what each deploys, what traffic it sends, and how
//! its end-to-end metrics are taken. `README.md` says why each exists.

use std::net::SocketAddr;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use crate::awake::KeepAwake;
use crate::client::{self, Client};
use crate::driver::{self, Checked, ConnectionLog, IngestLog, Schedule, CHECK_EVERY};
use crate::inputs::{self, Inputs, ReplayStream, Request, ZipfStream};
use crate::oracle;
use crate::procs::{self, NodeProcess, RouterProcess};
use crate::report::{self, Metric, Outcome};
use crate::stats::{self, LatencySummary};
use crate::surface::{self, DatasetSize, InProcess, Oracle};

/// Generator threads and connections of the socket workloads: one per core
/// of the two-core design point, never more.
pub const CONNECTIONS: usize = 2;

/// The paper's SLA: p90 below 7 ms.
pub const P90_LIMIT_US: f64 = 7_000.0;

/// How often a full run sets up: `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// Skew of the anonymous stream (see README, "Resizing").
const ANON_ZIPF_EXPONENT: f64 = 1.3;

/// Session-id shift that keeps the sessions of separate phases (the rungs of
/// the ladder, the passes of a traced run) apart on one deployment.
pub const PHASE_STRIDE: u64 = 1 << 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReplayInproc,
    NodeBrowse,
    FleetAnonHot,
    NodeIngestMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ReplayInproc,
        Workload::NodeBrowse,
        Workload::FleetAnonHot,
        Workload::NodeIngestMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayInproc => "replay.inproc",
            Workload::NodeBrowse => "node.browse",
            Workload::FleetAnonHot => "fleet.anon-hot",
            Workload::NodeIngestMix => "node.ingest-mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Offered `/recommend` rate of the primary phase; `None` is the closed
    /// loop of `replay.inproc`.
    fn rate(self) -> Option<u32> {
        match self {
            Workload::ReplayInproc => None,
            Workload::NodeBrowse => Some(1_000),
            Workload::FleetAnonHot => Some(2_000),
            Workload::NodeIngestMix => Some(500),
        }
    }

    /// Untimed requests before the primary phase. A count, not a time, so a
    /// faster system also warms up faster and `setup_s` shows it.
    fn warmup(self, smoke: bool) -> usize {
        let full = match self {
            Workload::ReplayInproc => 20_000,
            Workload::NodeBrowse | Workload::NodeIngestMix => 2_000,
            // Long enough to fill both nodes' prediction caches.
            Workload::FleetAnonHot => 10_000,
        };
        if smoke {
            full / 10
        } else {
            full
        }
    }

    fn spec(self) -> Spec {
        match self {
            Workload::ReplayInproc => Spec {
                nodes: 0,
                routed: 0,
                in_process: true,
                ingest: false,
            },
            Workload::NodeBrowse => Spec {
                nodes: 1,
                routed: 0,
                in_process: false,
                ingest: false,
            },
            Workload::FleetAnonHot => Spec {
                nodes: 2,
                routed: 2,
                in_process: false,
                ingest: false,
            },
            Workload::NodeIngestMix => Spec {
                nodes: 1,
                routed: 0,
                in_process: false,
                ingest: true,
            },
        }
    }

    /// The workload's request stream, sessions shifted by `session_offset`.
    pub fn stream(
        self,
        inputs: &Inputs,
        seed: u64,
        session_offset: u64,
    ) -> Box<dyn Iterator<Item = Request>> {
        let shift = move |r: Request| Request {
            session: r.session + session_offset,
            ..r
        };
        match self {
            Workload::FleetAnonHot => {
                Box::new(ZipfStream::new(&inputs.index, ANON_ZIPF_EXPONENT, seed).map(shift))
            }
            _ => Box::new(ReplayStream::new(&inputs.held_out).map(shift)),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    /// Tiny dataset, one set-up: numbers are labelled `smoke`.
    pub smoke: bool,
    /// `node.browse` only: after the primary phase, offer 2,000 and 4,000 rps
    /// and report each rung (diagnostic).
    pub ladder: bool,
}

impl RunConfig {
    pub fn size(&self) -> DatasetSize {
        if self.smoke {
            DatasetSize::Tiny
        } else {
            DatasetSize::Ecom1m
        }
    }
}

/// What a deployment consists of.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub nodes: usize,
    /// How many of the nodes (the first ones) a router fronts; 0 = no router.
    pub routed: usize,
    pub in_process: bool,
    /// The nodes also run live ingest, seeded with the training clicks.
    pub ingest: bool,
}

/// Wall time of the set-up steps after the inputs are built, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeployTimings {
    pub decode_ms: f64,
    /// `ServingCluster::new`, which builds the kernel once.
    pub cluster_build_ms: f64,
    pub spawn_ms: f64,
}

/// A built and started system under test.
pub struct Deployment {
    pub inputs: Inputs,
    pub oracle: Oracle,
    pub nodes: Vec<NodeProcess>,
    pub router: Option<RouterProcess>,
    pub in_process: Option<InProcess>,
    pub timings: DeployTimings,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

impl Deployment {
    /// Generates the inputs from the seed, writes the artefact, starts the
    /// servers as child processes and loads the artefact into them. Nothing
    /// is reused from an earlier run.
    pub fn start(spec: Spec, size: DatasetSize, seed: u64) -> Result<Self, String> {
        let inputs = inputs::build_inputs(size, seed, nproc())?;
        let oracle = Oracle::new(inputs.index.clone())?;
        let mut timings = DeployTimings::default();

        let in_process = if spec.in_process {
            let t = Instant::now();
            let index = surface::decode_index(&inputs.artifact)?;
            timings.decode_ms = ms_since(t);
            let t = Instant::now();
            let cluster = InProcess::new(index)?;
            timings.cluster_build_ms = ms_since(t);
            Some(cluster)
        } else {
            None
        };

        let t = Instant::now();
        let (nodes, router) = if spec.nodes > 0 {
            // The files only have to live until the children have read them.
            let dir = report::out_dir().join(format!("run-{}", std::process::id()));
            let spawned = spawn_servers(spec, &inputs, &dir);
            let _ = std::fs::remove_dir_all(&dir);
            spawned?
        } else {
            (Vec::new(), None)
        };
        timings.spawn_ms = ms_since(t);
        Ok(Self {
            inputs,
            oracle,
            nodes,
            router,
            in_process,
            timings,
        })
    }

    /// Where clients send: the router if there is one, else the first node.
    pub fn entry(&self) -> Option<SocketAddr> {
        self.router
            .as_ref()
            .map(|r| r.addr)
            .or_else(|| self.nodes.first().map(|n| n.data))
    }

    fn server_pids(&self) -> Vec<u32> {
        self.nodes
            .iter()
            .map(|n| n.process.pid())
            .chain(self.router.iter().map(|r| r.process.pid()))
            .collect()
    }

    /// CPU time the server children have used so far.
    fn cpu_us(&self) -> f64 {
        self.server_pids()
            .into_iter()
            .filter_map(procs::cpu_us)
            .sum()
    }

    /// Peak resident memory of the servers (own process when in-process).
    fn peak_rss_mb(&self) -> f64 {
        let pids = if self.nodes.is_empty() {
            vec![std::process::id()]
        } else {
            self.server_pids()
        };
        pids.into_iter().filter_map(procs::peak_rss_mb).sum()
    }

    /// The `/metrics` page of every server.
    pub fn metrics_pages(&self) -> Vec<String> {
        metrics_pages(
            self.nodes
                .iter()
                .map(|n| n.data)
                .chain(self.router.iter().map(|r| r.addr)),
        )
    }
}

/// Fetches the `/metrics` pages served at `addrs` (an unreachable server
/// contributes none).
pub fn metrics_pages(addrs: impl Iterator<Item = SocketAddr>) -> Vec<String> {
    addrs
        .filter_map(|addr| Client::connect(addr).ok()?.get(surface::METRICS_PATH).ok())
        .map(|page| page.body)
        .collect()
}

/// Sums `family` over `pages`.
pub fn family_sum(pages: &[String], family: &str) -> f64 {
    // `+ 0.0`: an empty sum is -0.0.
    pages
        .iter()
        .map(|page| client::metric_sum(page, family))
        .sum::<f64>()
        + 0.0
}

fn spawn_servers(
    spec: Spec,
    inputs: &Inputs,
    dir: &std::path::Path,
) -> Result<(Vec<NodeProcess>, Option<RouterProcess>), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let index_path = dir.join("index.bin");
    std::fs::write(&index_path, &inputs.artifact).map_err(|e| e.to_string())?;
    let clicks_path = dir.join("clicks.bin");
    if spec.ingest {
        procs::write_clicks(&clicks_path, &inputs.train).map_err(|e| e.to_string())?;
    }
    let nodes = (0..spec.nodes as u64)
        .map(|id| {
            procs::spawn_node(
                id,
                &index_path,
                spec.ingest.then_some(clicks_path.as_path()),
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    let router = if spec.routed > 0 {
        Some(procs::spawn_router(&nodes[..spec.routed])?)
    } else {
        None
    };
    // Ready means answering: one health check through the entry point.
    let entry = router.as_ref().map(|r| r.addr).unwrap_or(nodes[0].data);
    let health = Client::connect(entry)
        .and_then(|mut c| c.get(surface::HEALTH_PATH))
        .map_err(|e| format!("health check on {entry}: {e}"))?;
    if health.status != 200 {
        return Err(format!(
            "health check on {entry} answered {}",
            health.status
        ));
    }
    Ok((nodes, router))
}

/// One timed phase as the generator saw it.
pub struct PhaseResult {
    /// When the last warm-up request completed: the end of set-up.
    pub warm_done: Instant,
    pub latency: Option<LatencySummary>,
    /// Successful timed requests per second of the phase.
    pub throughput_rps: f64,
    pub completed: u64,
    pub cpu_us_per_req: f64,
    pub attempted: u64,
    pub failed: u64,
    pub sched_lag_p99_us: f64,
    pub oracle: oracle::Verdict,
    pub visible_ms: Vec<f64>,
    pub first_error: Option<String>,
}

/// Runs `warmup` untimed calls and then `seconds` of closed-loop calls on
/// the in-process cluster, one caller.
fn run_in_process(
    dep: &mut Deployment,
    workload: Workload,
    seed: u64,
    warmup: usize,
    seconds: u64,
) -> PhaseResult {
    let duration = Duration::from_secs(seconds);
    let cluster = dep
        .in_process
        .as_mut()
        .expect("replay.inproc deploys an in-process cluster");
    let mut samples: Vec<(u64, u64)> = Vec::with_capacity(if seconds > 0 { 1 << 20 } else { 0 });
    let mut checked: Vec<Checked> = Vec::new();
    let (mut attempted, mut failed, mut first_error) = (0u64, 0u64, None);
    let mut start = Instant::now();
    let mut cpu_before = 0.0;
    let mut calls = 0usize;
    for (index, request) in workload.stream(&dep.inputs, seed, 0).enumerate() {
        if index == warmup {
            start = Instant::now();
            cpu_before = procs::thread_cpu_us().unwrap_or(0.0);
        }
        let began = Instant::now();
        if index >= warmup && began - start >= duration {
            break;
        }
        let result = cluster.handle(request.session, request.item, request.consent);
        let ended = Instant::now();
        calls = index + 1;
        attempted += 1;
        match result {
            Ok(list) => {
                if index >= warmup {
                    samples.push((
                        (began - start).as_nanos() as u64,
                        (ended - began).as_nanos() as u64,
                    ));
                }
                if index.is_multiple_of(CHECK_EVERY) {
                    let list = list.iter().map(|r| (r.item, f64::from(r.score))).collect();
                    checked.push(Checked {
                        index,
                        list: Some(list),
                    });
                }
            }
            Err(e) => {
                failed += 1;
                first_error.get_or_insert(e);
            }
        }
    }
    let elapsed = start.elapsed();
    let cpu_used = procs::thread_cpu_us().unwrap_or(0.0) - cpu_before;
    let completed = samples.len() as u64;
    let verdict = oracle::verify(
        workload.stream(&dep.inputs, seed, 0).take(calls),
        |_| true,
        checked,
        &dep.oracle,
        usize::MAX,
        nproc(),
    );
    PhaseResult {
        warm_done: start,
        latency: stats::summarize(&samples, duration.as_nanos() as u64),
        throughput_rps: completed as f64 / elapsed.as_secs_f64().max(1e-9),
        completed,
        cpu_us_per_req: cpu_used / completed.max(1) as f64,
        attempted,
        failed,
        sched_lag_p99_us: 0.0,
        oracle: verdict,
        visible_ms: Vec::new(),
        first_error,
    }
}

/// Splits a stream over `connections`: a session is pinned to connection
/// `session_id % connections`, so its requests stay in order.
fn shares(stream: &[Request], connections: usize) -> Vec<Vec<usize>> {
    (0..connections)
        .map(|c| {
            (0..stream.len())
                .filter(|&i| stream[i].session as usize % connections == c)
                .collect()
        })
        .collect()
}

/// Runs the warm-up and then `seconds` of open-loop traffic at `rate`
/// against the deployment's entry point. `warmup` requests of the stream are
/// sent back to back first; with `seconds == 0` that is all that happens.
fn run_sockets(
    dep: &Deployment,
    workload: Workload,
    seed: u64,
    session_offset: u64,
    warmup: usize,
    rate: u32,
    seconds: u64,
) -> PhaseResult {
    let entry = dep
        .entry()
        .expect("socket workloads deploy at least one node");
    let duration = Duration::from_secs(seconds);
    let period = Duration::from_secs(1) / rate;
    let timed = (u64::from(rate) * seconds) as usize;
    let stream: Vec<Request> = workload
        .stream(&dep.inputs, seed, session_offset)
        .take(warmup + timed)
        .collect();

    // `node.ingest-mix` reads on one connection and writes on the other;
    // the other socket workloads read on both, a session pinned to one.
    let mixed = workload == Workload::NodeIngestMix;
    let shares = shares(&stream, if mixed { 1 } else { CONNECTIONS });
    let readers = shares.len();
    let writer = mixed && seconds > 0;
    let parties = readers + usize::from(writer) + 1;
    let (warmed, go) = (Barrier::new(parties), Barrier::new(parties));
    let schedule: Mutex<Option<Schedule>> = Mutex::new(None);
    let ready = || {
        warmed.wait();
        go.wait();
        schedule
            .lock()
            .expect("schedule lock")
            .expect("schedule is set before go")
    };
    // What the write side sends: (held-out clicks, hottest item, newest timestamp).
    let writes = writer.then(|| {
        let clicks = inputs::held_out_clicks(&dep.inputs.held_out);
        let newest = clicks
            .iter()
            .chain(&dep.inputs.train)
            .map(|c| c.timestamp)
            .max()
            .unwrap_or(0);
        (
            clicks,
            surface::items_by_popularity(&dep.inputs.index)[0],
            newest,
        )
    });

    let mut cpu_before = 0.0;
    let mut warm_done = Instant::now();
    let (logs, ingest): (Vec<ConnectionLog>, Option<IngestLog>) = std::thread::scope(|scope| {
        let read_threads: Vec<_> = shares
            .iter()
            .map(|share| {
                let (stream, ready) = (&stream, &ready);
                scope.spawn(move || driver::drive_connection(entry, stream, share, warmup, ready))
            })
            .collect();
        let write_thread = writes.as_ref().map(|(clicks, hot_item, newest)| {
            let ready = &ready;
            scope.spawn(move || driver::drive_ingest(entry, clicks, *hot_item, *newest, ready()))
        });
        warmed.wait();
        warm_done = Instant::now();
        cpu_before = dep.cpu_us();
        *schedule.lock().expect("schedule lock") = Some(Schedule {
            start: Instant::now() + Duration::from_millis(5),
            period,
            duration,
        });
        go.wait();
        (
            read_threads
                .into_iter()
                .map(|t| t.join().expect("generator thread panicked"))
                .collect(),
            write_thread.map(|t| t.join().expect("ingest thread panicked")),
        )
    });
    let cpu_used = dep.cpu_us() - cpu_before;
    let mut samples: Vec<(u64, u64)> = Vec::new();
    let mut lag: Vec<u64> = Vec::new();
    let mut checked: Vec<Checked> = Vec::new();
    let mut sent = vec![false; stream.len()];
    let (mut attempted, mut failed, mut first_error) = (0u64, 0u64, None);
    for (log, share) in logs.into_iter().zip(&shares) {
        samples.extend_from_slice(&log.samples);
        lag.extend_from_slice(&log.lag_ns);
        checked.extend(log.checked);
        for &index in &share[..log.sent] {
            sent[index] = true;
        }
        attempted += log.attempted;
        failed += log.failed;
        first_error = first_error.or(log.first_error);
    }
    let mut visible_ms = Vec::new();
    if let Some(log) = ingest {
        attempted += log.attempted;
        failed += log.failed;
        first_error = first_error.or(log.first_error);
        visible_ms = log.visible_ms;
    }
    // Under live ingest the served index moves away from the oracle's.
    let strong_below = if mixed { warmup } else { usize::MAX };
    let verdict = oracle::verify(
        stream.iter().copied(),
        |i| sent[i],
        checked,
        &dep.oracle,
        strong_below,
        nproc(),
    );

    let completed = samples.len() as u64;
    let last_done = samples
        .iter()
        .map(|&(due, latency)| due + latency)
        .max()
        .unwrap_or(0);
    lag.sort_unstable();
    PhaseResult {
        warm_done,
        latency: stats::summarize(&samples, duration.as_nanos() as u64),
        throughput_rps: completed as f64 / (last_done as f64 / 1e9).max(1e-9),
        completed,
        cpu_us_per_req: cpu_used / completed.max(1) as f64,
        attempted,
        failed,
        sched_lag_p99_us: stats::percentile(&lag, 0.99).unwrap_or(0) as f64 / 1e3,
        oracle: verdict,
        visible_ms,
        first_error,
    }
}

fn run_phase(dep: &mut Deployment, config: &RunConfig, seconds: u64) -> PhaseResult {
    let warmup = config.workload.warmup(config.smoke);
    match config.workload.rate() {
        None => run_in_process(dep, config.workload, config.seed, warmup, seconds),
        Some(rate) => run_sockets(dep, config.workload, config.seed, 0, warmup, rate, seconds),
    }
}

/// Notes it when the keep-awake threads could not run (see `awake.rs`).
pub fn note_keep_awake(outcome: &mut Outcome, ran: bool) {
    if !ran {
        outcome.notes.push(String::from(
            "keep-awake threads could not get SCHED_IDLE: cores halted between requests, expect host noise",
        ));
    }
}

/// Books a phase's failures and oracle verdict into `outcome`.
fn book(outcome: &mut Outcome, phase: &PhaseResult, what: &str) {
    outcome.attempted += phase.attempted;
    outcome.failed += phase.failed + phase.oracle.mismatches;
    if let Some(e) = &phase.first_error {
        outcome
            .notes
            .push(format!("{what}: first failed operation: {e}"));
    }
    if let Some(m) = &phase.oracle.first_mismatch {
        outcome
            .notes
            .push(format!("{what}: first oracle mismatch: {m}"));
    }
}

/// Sets the system up from nothing, warms it up and runs the primary phase
/// for `seconds` (0: set-up and warm-up only). Returns the deployment, the
/// phase, the set-up time in seconds and whether the keep-awake threads ran.
fn set_up_and_run(
    config: &RunConfig,
    seconds: u64,
) -> Result<(Deployment, PhaseResult, f64, bool), String> {
    let began = Instant::now();
    let mut dep = Deployment::start(config.workload.spec(), config.size(), config.seed)?;
    let awake = KeepAwake::start();
    let phase = run_phase(&mut dep, config, seconds);
    let kept_awake = awake.stop();
    let setup_s = (phase.warm_done - began).as_secs_f64();
    Ok((dep, phase, setup_s, kept_awake))
}

/// Runs one workload end to end with tracing off and returns its
/// end-to-end metrics.
pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let repeats = if config.smoke { 1 } else { SETUP_REPEATS };
    let mut outcome = Outcome::default();
    let mut setup_s = Vec::with_capacity(repeats);
    // Every set-up is torn down before the next one starts.
    for _ in 1..repeats {
        let (_dep, phase, seconds, _) = set_up_and_run(config, 0)?;
        setup_s.push(seconds);
        book(&mut outcome, &phase, "set-up repeat");
    }
    let (dep, phase, seconds, kept_awake) = set_up_and_run(config, config.seconds)?;
    setup_s.push(seconds);
    book(&mut outcome, &phase, "primary phase");
    note_keep_awake(&mut outcome, kept_awake);

    let latency = phase
        .latency
        .ok_or("the primary phase completed no request")?;
    outcome.metrics = vec![
        Metric::new("throughput_rps", phase.throughput_rps, "1/s").with_samples(latency.samples),
        Metric::new("rss_mb", dep.peak_rss_mb(), "MB"),
        Metric::new("setup_s", stats::median(&setup_s).unwrap_or(0.0), "s")
            .with_samples(setup_s.len()),
    ];
    outcome.diagnostics = vec![
        // End-to-end candidates that could not repeat within their bound on
        // the socket workloads of this host (REPEATABILITY.md): still
        // measured and printed, never gated.
        Metric::new("p50_us", latency.p50_us, "us").with_samples(latency.samples),
        Metric::new("p90_us", latency.p90_us, "us").with_samples(latency.samples),
        Metric::new("p99_us", latency.p99_us, "us").with_samples(latency.samples),
        Metric::new("cpu_us_per_req", phase.cpu_us_per_req, "us").with_samples(latency.samples),
        Metric::new("p99_all_us", latency.p99_all_us, "us").with_samples(latency.samples),
        Metric::new("latency_windows", latency.windows as f64, "count"),
        Metric::new("oracle_checked", phase.oracle.checked as f64, "count"),
        Metric::new(
            "failed_share",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
            "ratio",
        )
        .with_samples(outcome.attempted as usize),
    ];
    if latency.p90_us > P90_LIMIT_US {
        outcome.notes.push(format!(
            "p90 {} us misses the {P90_LIMIT_US} us limit",
            latency.p90_us
        ));
    }
    if let Some(rate) = config.workload.rate() {
        if phase.sched_lag_p99_us > latency.p50_us {
            outcome.notes.push(String::from(
                "INVALID RUN: the generator's own lag p99 exceeds p50_us; it could not get a core in time (a busy host, or the system under test on both cores)",
            ));
        }
        let pages = dep.metrics_pages();
        let sum = |family| family_sum(&pages, family);
        let lookups = sum(surface::metric::CACHE_HITS) + sum(surface::metric::CACHE_MISSES);
        outcome.diagnostics.extend([
            Metric::new("offered_rps", f64::from(rate), "1/s"),
            Metric::new("sched_lag_p99_us", phase.sched_lag_p99_us, "us")
                .with_samples(latency.samples),
            Metric::new(
                "cache.hit_ratio_lifetime",
                sum(surface::metric::CACHE_HITS) / lookups.max(1.0),
                "ratio",
            )
            .with_samples(lookups as usize),
            Metric::new("server.shed", sum(surface::metric::HTTP_SHED), "count"),
            Metric::new(
                "routerd.failover_total",
                sum(surface::metric::ROUTER_FAILOVER),
                "count",
            ),
        ]);
        if config.workload == Workload::NodeIngestMix {
            outcome.diagnostics.extend([
                Metric::new(
                    "visible_ms",
                    stats::median(&phase.visible_ms).unwrap_or(0.0),
                    "ms",
                )
                .with_samples(phase.visible_ms.len()),
                Metric::new(
                    "ingest.publishes",
                    sum(surface::metric::INGEST_PUBLISHES),
                    "count",
                ),
                Metric::new(
                    "ingest.rejected",
                    sum(surface::metric::INGEST_REJECTED),
                    "count",
                ),
            ]);
        }
    }
    if config.ladder && config.workload == Workload::NodeBrowse {
        ladder(&dep, config, &mut outcome);
    }
    Ok(outcome)
}

/// The `node.browse` ladder: 2,000 and 4,000 rps after the primary phase,
/// each rung on fresh sessions. A rung is ok when p90 meets the limit,
/// nothing failed and at least 98 % of the offered rate completed in the
/// rung's own time (a growing backlog fails the last two).
fn ladder(dep: &Deployment, config: &RunConfig, outcome: &mut Outcome) {
    const RUNGS: [(u32, &str, &str); 2] = [
        (2_000, "ladder.2000.p90_us", "ladder.2000.achieved_rps"),
        (4_000, "ladder.4000.p90_us", "ladder.4000.achieved_rps"),
    ];
    let mut max_ok = config.workload.rate().map_or(0.0, f64::from);
    for (n, (rate, p90_name, achieved_name)) in RUNGS.into_iter().enumerate() {
        let offset = (n as u64 + 1) * PHASE_STRIDE;
        let phase = run_sockets(
            dep,
            config.workload,
            config.seed,
            offset,
            0,
            rate,
            config.seconds,
        );
        book(outcome, &phase, p90_name);
        let p90 = phase.latency.map_or(f64::MAX, |l| l.p90_us);
        let ok = p90 <= P90_LIMIT_US
            && phase.failed + phase.oracle.mismatches == 0
            && phase.throughput_rps >= 0.98 * f64::from(rate);
        if ok {
            max_ok = f64::from(rate);
        }
        outcome.diagnostics.extend([
            Metric::new(p90_name, p90, "us").with_samples(phase.completed as usize),
            Metric::new(achieved_name, phase.throughput_rps, "1/s"),
        ]);
    }
    outcome
        .diagnostics
        .push(Metric::new("max_rate_ok_rps", max_ok, "1/s"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_pinned_for_seed_1() {
        let inputs = inputs::build_inputs(DatasetSize::Tiny, 1, 2).unwrap();
        let hash = |w: Workload| inputs::stream_hash(w.stream(&inputs, 1, 0), 5_000);
        // A change here means every committed number was taken on different
        // inputs: re-measure REPEATABILITY.md before re-pinning.
        assert_eq!(
            hash(Workload::NodeBrowse),
            0xe720_a5ef_1e67_0b18,
            "{:#x}",
            hash(Workload::NodeBrowse)
        );
        assert_eq!(
            hash(Workload::FleetAnonHot),
            0x7651_e4c9_917e_7427,
            "{:#x}",
            hash(Workload::FleetAnonHot)
        );
        assert_eq!(hash(Workload::ReplayInproc), hash(Workload::NodeBrowse));
        assert_eq!(hash(Workload::NodeIngestMix), hash(Workload::NodeBrowse));
    }

    #[test]
    fn a_session_stays_on_one_connection_in_order() {
        let inputs = inputs::build_inputs(DatasetSize::Tiny, 2, 2).unwrap();
        for workload in [Workload::NodeBrowse, Workload::FleetAnonHot] {
            let stream: Vec<Request> = workload.stream(&inputs, 2, 0).take(4_000).collect();
            let shares = shares(&stream, CONNECTIONS);
            let mut seen = vec![false; stream.len()];
            for (c, share) in shares.iter().enumerate() {
                assert!(
                    share.windows(2).all(|w| w[0] < w[1]),
                    "a share keeps stream order"
                );
                for &i in share {
                    assert_eq!(stream[i].session as usize % CONNECTIONS, c);
                    assert!(
                        !std::mem::replace(&mut seen[i], true),
                        "request {i} is sent once"
                    );
                }
                assert!(
                    share.len() > stream.len() / 4,
                    "connection {c} carries a fair share"
                );
            }
            assert!(seen.iter().all(|&s| s), "every request is sent");
        }
    }
}
