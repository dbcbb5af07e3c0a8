//! A complete recommendation service: offline index build, one serving
//! engine behind a real HTTP server, and a client session talking to it —
//! one machine of the Figure 1 architecture in one process.
//!
//! Run: `cargo run -p serenade-bench --release --example recommendation_service`

use std::sync::Arc;

use serenade_core::SessionIndex;
use serenade_dataset::{generate, SyntheticConfig};
use serenade_serving::engine::EngineConfig;
use serenade_serving::{HttpClient, HttpServer, HttpServerConfig};
use serenade_serving::{BusinessRules, ServingCluster};

fn main() {
    // Offline: generate a clickstream and build the session index.
    let dataset = generate(&SyntheticConfig::tiny());
    println!("generated {} clicks ({} dataset)", dataset.clicks.len(), dataset.name);
    let index = Arc::new(SessionIndex::build(&dataset.clicks, 500).expect("non-empty"));

    // Business rules: two items are out of stock today.
    let mut rules = BusinessRules::none();
    let mut items = index.items();
    if let (Some(a), Some(b)) = (items.next(), items.next()) {
        rules.mark_unavailable(a);
        rules.mark_unavailable(b);
        println!("marked items {a} and {b} unavailable");
    }
    drop(items);

    // Online: the serving engine, fronted by HTTP.
    let cluster = Arc::new(
        ServingCluster::new(index, 1, EngineConfig::default(), rules).expect("valid config"),
    );
    let server = HttpServer::serve(Arc::clone(&cluster), HttpServerConfig::default())
        .expect("bind ephemeral port");
    println!("serving on http://{}", server.addr());

    // A shopper browses four products; the frontend calls us on every click.
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let (status, body) = client.get("/health").expect("health");
    println!("GET /health -> {status} {body}");

    let session_id = 424_242u64;
    for item in dataset.clicks.iter().take(4).map(|c| c.item_id) {
        let request =
            format!(r#"{{"session_id": {session_id}, "item_id": {item}, "consent": true}}"#);
        let (status, body) = client.post("/recommend", &request).expect("recommend");
        let preview: String = body.chars().take(120).collect();
        println!("POST /recommend item={item} -> {status} {preview}...");
    }
    println!(
        "engine state: session {} has {} stored clicks",
        session_id,
        cluster.stored_session_len(session_id)
    );

    server.shutdown();
    println!("server stopped");
}
