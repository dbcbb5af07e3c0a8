//! **Figure 3(b)** — load test: requests per second, core usage and response
//! latency over time.
//!
//! The paper deploys Serenade on two pods (three cores each), replays
//! historical traffic at more than 1,000 requests per second for several
//! hours and reports p75/p90/p99.5 latency plus per-machine core usage —
//! headline: ~500 requests per second per core with p90 < 7 ms.
//!
//! We run the same architecture in-process: a 2-pod sticky-routed cluster
//! over a replicated index, driven by the open-loop load generator. An HTTP
//! frontend is started alongside so each ramp step also reports the
//! *server-side* percentiles scraped from `GET /metrics` (the scrape delta
//! covers exactly that step's requests) next to the client-side ones, and
//! the run closes with the slowest request exemplars from `GET /debug/slow`.
//! Duration is scaled to seconds (`--quick` for a smoke run).
//!
//! Run: `cargo run -p serenade-bench --release --bin figure3b_loadtest`

use std::sync::Arc;
use std::time::Duration;

use serenade_bench::{fmt_us, prepare, print_table, BenchArgs};
use serenade_core::SessionIndex;
use serenade_dataset::SyntheticConfig;
use serenade_serving::engine::EngineConfig;
use serenade_serving::{HttpClient, HttpServer, HttpServerConfig};
use serenade_serving::loadgen::{
    requests_from_sessions, run_connection_ramp, run_load_test_scraped, run_mixed_load_test,
    run_overload_test, ConnectionRampConfig, LoadGenConfig, MixedLoadConfig, OverloadConfig,
};
use serenade_serving::{BusinessRules, IngestConfig, ServingCluster};

fn main() {
    let args = BenchArgs::from_env();
    if std::env::args().any(|a| a == "--serve-child") {
        serve_child(&args);
        return;
    }
    let config = SyntheticConfig::ecom_180m().scaled(0.5 * args.scale);
    let (_, split) = prepare(&config);
    let index = Arc::new(SessionIndex::build(&split.train, 500).unwrap());
    let stats = index.stats();
    println!(
        "Figure 3(b) load test: index over {} sessions / {} items (~{} MB)\n",
        stats.num_sessions,
        stats.num_items,
        index.bytes().total() / (1 << 20)
    );

    let pods = 2;
    let cluster = Arc::new(
        ServingCluster::new(index, pods, EngineConfig::default(), BusinessRules::none())
            .unwrap(),
    );
    // HTTP frontend for the /metrics and /debug/slow scrapes; the load itself
    // drives the cluster in-process, but both paths share the same engines
    // and therefore the same telemetry registry.
    let server = HttpServer::serve(Arc::clone(&cluster), HttpServerConfig::default())
        .expect("metrics frontend");
    let addr = server.addr();
    let traffic = requests_from_sessions(&split.test);

    // Ramp through three target rates like the paper's load curve.
    let seconds = if args.quick { 2 } else { 8 };
    let mut rows = Vec::new();
    for target_rps in [500.0, 1_000.0, 1_500.0] {
        let scraped = run_load_test_scraped(
            &cluster,
            addr,
            &traffic,
            LoadGenConfig {
                target_rps,
                duration: Duration::from_secs(seconds),
                workers: 8,
                window: Duration::from_secs(1),
                seed: 0xF19_3B,
                jitter: 0.0,
            },
        )
        .expect("scraped load test");
        let report = &scraped.report;
        let server_side = &scraped.server_latency;
        let total = report.total.expect("load test produced samples");
        rows.push(vec![
            format!("{target_rps:.0}"),
            format!("{:.0}", report.achieved_rps),
            format!("{:.0}%", report.cores_busy * 100.0),
            fmt_us(total.p75_us),
            fmt_us(total.p90_us),
            fmt_us(total.p995_us),
            fmt_us(server_side.quantile_us(0.75)),
            fmt_us(server_side.quantile_us(0.90)),
            fmt_us(server_side.quantile_us(0.995)),
        ]);
        eprintln!(
            "target {target_rps} rps done ({} requests, {} server-side samples)",
            report.completed, server_side.count as u64
        );

        if target_rps == 1_000.0 {
            println!("per-second windows at 1,000 rps:");
            let mut wrows = Vec::new();
            for w in &report.windows {
                if let Some(l) = w.latency {
                    wrows.push(vec![
                        format!("{}s", w.offset.as_secs()),
                        w.requests.to_string(),
                        fmt_us(l.p75_us),
                        fmt_us(l.p90_us),
                        fmt_us(l.p995_us),
                    ]);
                }
            }
            print_table(&["t", "requests", "p75", "p90", "p99.5"], &wrows);
            println!();
        }
    }
    print_table(
        &[
            "target rps",
            "achieved rps",
            "core usage",
            "p75",
            "p90",
            "p99.5",
            "srv p75",
            "srv p90",
            "srv p99.5",
        ],
        &rows,
    );
    println!("\n(client-side percentiles from the load generator; srv columns are the");
    println!("same run scraped from GET /metrics — paper-style server-side view.)");

    // Slow-request exemplars: where did the tail requests spend their time?
    match HttpClient::connect(addr).and_then(|mut c| c.get("/debug/slow")) {
        Ok((200, body)) => {
            println!("\nslowest recent requests (GET /debug/slow, first 200 chars):");
            let end = body.char_indices().nth(200).map_or(body.len(), |(i, _)| i);
            println!("{}…", &body[..end]);
        }
        Ok((status, _)) => eprintln!("GET /debug/slow returned status {status}"),
        Err(e) => eprintln!("GET /debug/slow failed: {e}"),
    }

    println!(
        "\nPaper (Fig. 3b): >1,000 rps handled on 2 pods, ~500 rps per busy core,\n\
         p90 < 7ms and p99.5 < 15ms throughout."
    );

    // Mixed read/write scenario: the same open-loop schedule at 1,000 rps,
    // but a seeded 10% of slots submit click batches to the live ingest
    // pipeline while the index mini-publishes underneath. The read-side
    // percentiles are the serving SLA *under churn* — directly comparable
    // to the 1,000-rps read-only row above.
    println!("\nmixed read/write (10% ingest slots, live mini-publishes, 1,000 rps):");
    cluster
        .enable_ingest(
            IngestConfig {
                publish_interval: Duration::from_millis(100),
                ..IngestConfig::default()
            },
            &split.train,
        )
        .expect("enable ingest");
    let mixed = run_mixed_load_test(
        &cluster,
        &traffic,
        LoadGenConfig {
            target_rps: 1_000.0,
            duration: Duration::from_secs(seconds),
            workers: 8,
            window: Duration::from_secs(1),
            seed: 0xF19_3B,
            jitter: 0.0,
        },
        MixedLoadConfig::default(),
    );
    let read_total = mixed.reads.total.expect("mixed run produced reads");
    let (wp50, wp90) = mixed.write_latency.map_or((0, 0), |l| (l.p50_us, l.p90_us));
    print_table(
        &[
            "read rps",
            "read p75",
            "read p90",
            "read p99.5",
            "writes ok",
            "writes shed",
            "write p50",
            "write p90",
            "publishes",
        ],
        &[vec![
            format!("{:.0}", mixed.reads.achieved_rps),
            fmt_us(read_total.p75_us),
            fmt_us(read_total.p90_us),
            fmt_us(read_total.p995_us),
            mixed.writes_accepted.to_string(),
            mixed.writes_rejected.to_string(),
            fmt_us(wp50),
            fmt_us(wp90),
            mixed.publishes.to_string(),
        ]],
    );
    println!(
        "(every publish rebuilds and atomically republishes the index to both\n\
         pods; epoch-bucketed cache invalidation keeps untouched items cached.)"
    );
    server.shutdown();

    // Overload scenario: a fresh, tightly-capped server (own cluster, so
    // the metric registry is not double-registered) at ~2x saturation.
    // Closed-loop clients hammer the front end; the table below shows the
    // status-class breakdown — the admission control's job is a large `shed`
    // column with `server err` at zero and the accepted p90 still bounded.
    println!("\noverload scenario (closed-loop, ~2x saturation):");
    let overload_index = Arc::new(SessionIndex::build(&split.train, 500).unwrap());
    let overload_cluster = Arc::new(
        ServingCluster::new(overload_index, pods, EngineConfig::default(), BusinessRules::none())
            .unwrap(),
    );
    let overload_server = HttpServer::serve(
        Arc::clone(&overload_cluster),
        HttpServerConfig {
            workers: 2,
            queue_capacity: 2,
            keepalive_max_requests: 64,
            ..HttpServerConfig::default()
        },
    )
    .expect("overload frontend");
    let report = run_overload_test(
        overload_server.addr(),
        &traffic,
        OverloadConfig {
            clients: 8,
            duration: Duration::from_secs(if args.quick { 1 } else { 4 }),
            ..OverloadConfig::default()
        },
    );
    let b = report.breakdown;
    let (p50, p90, p995) = report
        .accepted_latency
        .map_or((0, 0, 0), |l| (l.p50_us, l.p90_us, l.p995_us));
    print_table(
        &["2xx", "4xx", "server err", "shed 503", "conn fail", "rps", "acc p50", "acc p90", "acc p99.5"],
        &[vec![
            b.ok.to_string(),
            b.client_error.to_string(),
            b.server_error.to_string(),
            b.shed.to_string(),
            b.connect_failures.to_string(),
            format!("{:.0}", report.achieved_rps),
            fmt_us(p50),
            fmt_us(p90),
            fmt_us(p995),
        ]],
    );
    println!(
        "(accepted-request percentiles only: shed requests are answered 503 +\n\
         retry-after immediately and excluded — bounding the accepted tail is\n\
         exactly what the admission control buys.)"
    );
    overload_server.shutdown();

    // Connection-ramp scenario: the event loop's headline claim. One reactor
    // thread multiplexes a ramp up to 10,000 keep-alive connections, most of
    // them idle (parked) at any instant while a 4-thread driver pool keeps a
    // request trickle flowing across the whole fleet. The table shows, per
    // step: open connections, achieved rps, accepted p50/p99 and the process
    // fd census — rps and the tail must not degrade with fleet size, which a
    // thread-per-connection design cannot deliver at this scale.
    //
    // The server runs in a *child process* (`--serve-child` mode of this
    // binary): a connection costs one fd on each side, so client and server
    // each budget 10,000 sockets against their own `RLIMIT_NOFILE` instead
    // of competing for one process's limit — environments where the hard
    // cap cannot be raised (no CAP_SYS_RESOURCE) still reach the full ramp.
    println!("\nconnection ramp (keep-alive fleet on the event loop):");
    let exe = std::env::current_exe().expect("current exe");
    let mut child = std::process::Command::new(exe)
        .args(["--serve-child", "--scale", &format!("{}", args.scale)])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn ramp server child");
    let child_addr = {
        use std::io::BufRead;
        let stdout = child.stdout.take().expect("child stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        loop {
            let line = lines
                .next()
                .expect("child exited before publishing its address")
                .expect("read child stdout");
            if let Some(addr) = line.strip_prefix("ADDR ") {
                break addr.parse().expect("child address unparsable");
            }
        }
    };
    let ramp = run_connection_ramp(
        child_addr,
        &traffic,
        ConnectionRampConfig {
            steps: if args.quick { vec![200, 1_000] } else { vec![1_000, 5_000, 10_000] },
            step_duration: Duration::from_secs(if args.quick { 1 } else { 3 }),
            drivers: 4,
            think_time: Duration::from_micros(500),
            seed: 0xF19_3B,
            fd_margin: 512,
            fds_per_connection: 1, // server fds live in the child
        },
    );
    let mut rrows = Vec::new();
    for step in &ramp.steps {
        let (p50, p99) = step.latency.map_or((0, 0), |l| (l.p50_us, l.p99_us));
        rrows.push(vec![
            step.connections.to_string(),
            format!("{:.0}", step.achieved_rps),
            fmt_us(p50),
            fmt_us(p99),
            step.open_fds.to_string(),
            step.errors.to_string(),
        ]);
    }
    print_table(&["connections", "rps", "p50", "p99", "open fds", "errors"], &rrows);
    println!(
        "(client fd limit {}; every socket in the fleet is a live keep-alive\n\
         connection to the child's one reactor thread — idle ones are parked,\n\
         not thread-blocked.)",
        ramp.fd_limit
    );
    drop(child.stdin.take()); // closing stdin tells the child to drain
    let status = child.wait().expect("join ramp server child");
    assert!(status.success(), "ramp server child failed: {status}");
}

/// `--serve-child`: build the same cluster and serve it until the parent
/// closes our stdin, publishing the bound address on stdout. Runs in its own
/// process so the 10k-connection ramp splits its fd bill across two
/// `RLIMIT_NOFILE` budgets (one socket per side per connection).
fn serve_child(args: &BenchArgs) {
    let config = SyntheticConfig::ecom_180m().scaled(0.5 * args.scale);
    let (_, split) = prepare(&config);
    let index = Arc::new(SessionIndex::build(&split.train, 500).unwrap());
    let cluster = Arc::new(
        ServingCluster::new(index, 2, EngineConfig::default(), BusinessRules::none()).unwrap(),
    );
    let server =
        HttpServer::serve(cluster, HttpServerConfig::default()).expect("child ramp frontend");
    println!("ADDR {}", server.addr());
    use std::io::Write;
    std::io::stdout().flush().expect("flush child stdout");
    let mut eof = String::new();
    let _ = std::io::stdin().read_line(&mut eof);
    server.shutdown();
}
