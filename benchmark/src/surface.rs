//! The one seam to the product.
//!
//! Every call into a `serenade-*` crate, and every byte of wire format the
//! benchmark knows about, lives in this file. The rest of the benchmark
//! speaks only the types defined or re-exported here, so a product PR that
//! renames any of this surface is preceded by a benchmark-only PR that edits
//! exactly one file. `README.md` lists the frozen surface.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use serenade_baselines::VsKnnBaseline;
use serenade_core::{Recommender, Scratch, SessionIndex, VmisConfig, VmisKnn};
use serenade_dataset::{generate, split_last_days, SyntheticConfig};
use serenade_index::{binfmt, build_parallel, BuilderConfig, IncrementalIndexer};
use serenade_kvstore::{SessionStore, StoreConfig, TtlStore};
use serenade_serving::cache::{CacheKey, ViewKind};
use serenade_serving::engine::RecommendRequest;
use serenade_serving::node::{NodeConfig, ServingNode};
use serenade_serving::routerd::{RouterConfig, RouterDaemon};
use serenade_serving::{
    BusinessRules, CacheConfig, EngineConfig, IngestConfig, IngestPipeline, PredictionCache,
    RequestContext, ServingCluster, ServingVariant,
};

pub use serenade_core::{Click, ItemId, ItemScore};

/// The built session-similarity index, shared by reference.
pub type Index = Arc<SessionIndex>;

/// Posting-list capacity of every index the benchmark builds (the ingest
/// pipeline's default `m_max`, so offline and live indices agree).
const M_MAX: usize = 500;

/// Items per response (the shop frontend renders 21).
pub const HOW_MANY: usize = 21;

/// Cap on the stored evolving session, mirrored when windows are rebuilt.
pub const MAX_STORED_SESSION_LEN: usize = 50;

// ---- wire shapes ---------------------------------------------------------

pub const RECOMMEND_PATH: &str = "/recommend";
pub const INGEST_PATH: &str = "/ingest";
pub const HEALTH_PATH: &str = "/health";
pub const METRICS_PATH: &str = "/metrics";

/// `POST /recommend` request body.
pub fn recommend_body(session_id: u64, item: ItemId, consent: bool) -> String {
    format!(r#"{{"session_id":{session_id},"item_id":{item},"consent":{consent}}}"#)
}

/// `POST /ingest` request body.
pub fn ingest_body(clicks: &[Click]) -> String {
    let rows: Vec<String> = clicks
        .iter()
        .map(|c| {
            format!(
                r#"{{"session_id":{},"item_id":{},"timestamp":{}}}"#,
                c.session_id, c.item_id, c.timestamp
            )
        })
        .collect();
    format!(r#"{{"clicks":[{}]}}"#, rows.join(","))
}

/// Parses a `POST /recommend` success body,
/// `{"recommendations":[{"item_id":N,"score":X},…]}`, into `(item, score)`
/// pairs in response order. `None` when the body has another shape.
pub fn parse_recommendations(body: &str) -> Option<Vec<(ItemId, f64)>> {
    let value = crate::json::parse(body).ok()?;
    value
        .get("recommendations")?
        .as_array()?
        .iter()
        .map(|r| Some((r.get("item_id")?.as_u64()?, r.get("score")?.as_f64()?)))
        .collect()
}

/// Metric families scraped from `GET /metrics`.
pub mod metric {
    pub const CACHE_HITS: &str = "serenade_cache_hits_total";
    pub const CACHE_MISSES: &str = "serenade_cache_misses_total";
    pub const HTTP_SHED: &str = "serenade_http_shed_total";
    pub const ROUTER_FAILOVER: &str = "serenade_router_failover_total";
    pub const INGEST_PUBLISHES: &str = "serenade_ingest_publishes_total";
    pub const INGEST_REJECTED: &str = "serenade_ingest_rejected_clicks_total";
}

// ---- dataset and index ---------------------------------------------------

/// Which synthetic dataset a run is built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetSize {
    /// `SyntheticConfig::ecom_1m()`: the paper's Table 1 `ecom-1m` at full size.
    Ecom1m,
    /// `SyntheticConfig::tiny()`: the smoke run.
    Tiny,
}

/// One held-out session: the evolving sessions the workloads replay.
#[derive(Debug, Clone)]
pub struct HeldOutSession {
    pub id: u64,
    pub items: Vec<ItemId>,
    /// Timestamp of the first click.
    pub start: u64,
}

pub fn generate_clicks(size: DatasetSize, seed: u64) -> Vec<Click> {
    let config = match size {
        DatasetSize::Ecom1m => SyntheticConfig::ecom_1m(),
        DatasetSize::Tiny => SyntheticConfig::tiny(),
    };
    generate(&config.with_seed(seed)).clicks
}

/// Splits off the last day: `(train clicks, held-out sessions)`.
pub fn split_last_day(clicks: &[Click]) -> (Vec<Click>, Vec<HeldOutSession>) {
    let split = split_last_days(clicks, 1);
    let held_out = split
        .test
        .into_iter()
        .map(|s| HeldOutSession {
            id: s.id,
            items: s.items,
            start: s.start,
        })
        .collect();
    (split.train, held_out)
}

pub fn build_index(train: &[Click], threads: usize) -> Result<Index, String> {
    build_parallel(
        train,
        BuilderConfig {
            threads,
            m_max: M_MAX,
        },
    )
    .map(Arc::new)
    .map_err(|e| e.to_string())
}

pub fn encode_index(index: &Index) -> Result<Vec<u8>, String> {
    let mut bytes = Vec::new();
    binfmt::write_index(index, &mut bytes).map_err(|e| e.to_string())?;
    Ok(bytes)
}

pub fn decode_index(bytes: &[u8]) -> Result<Index, String> {
    binfmt::read_index(bytes)
        .map(Arc::new)
        .map_err(|e| e.to_string())
}

/// Catalogue items, most popular first (ties by item id).
pub fn items_by_popularity(index: &Index) -> Vec<ItemId> {
    let mut items: Vec<(u32, ItemId)> = index
        .items()
        .map(|i| (index.item_support(i).unwrap_or(0), i))
        .collect();
    items.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    items.into_iter().map(|(_, item)| item).collect()
}

/// `postings(item).len()`: the posting entries a request on `item` can walk.
pub fn postings_len(index: &Index, item: ItemId) -> usize {
    index.postings(item).map_or(0, <[_]>::len)
}

// ---- configuration -------------------------------------------------------

/// The engine configuration every workload serves with: the full stored
/// session as the view, everything else as the product ships it.
fn engine_config() -> EngineConfig {
    EngineConfig {
        variant: ServingVariant::Full,
        ..EngineConfig::default()
    }
}

/// The kernel configuration the engine derives from [`engine_config`] (it
/// asks for twice the response size so business rules cannot starve slots).
fn kernel_config() -> VmisConfig {
    let engine = engine_config();
    VmisConfig {
        how_many: engine.how_many * 2,
        ..engine.vmis
    }
}

/// How many of a session's most recent items the kernel looks at.
pub fn kernel_window_len() -> usize {
    kernel_config().max_session_len
}

// ---- layers, called directly (traced runs) -------------------------------

/// `core`: the VMIS-kNN kernel over a loaded index.
pub struct Kernel {
    vmis: VmisKnn,
    scratch: Scratch,
}

impl Kernel {
    /// `VmisKnn::new` — the cost every publish pays.
    pub fn new(index: Index) -> Result<Self, String> {
        let vmis = VmisKnn::new(index, kernel_config()).map_err(|e| e.to_string())?;
        let scratch = vmis.scratch();
        Ok(Self { vmis, scratch })
    }

    /// `VmisKnn::recommend_with_scratch`.
    pub fn recommend(&mut self, window: &[ItemId]) -> Vec<ItemScore> {
        self.vmis.recommend_with_scratch(window, &mut self.scratch)
    }

    /// `VmisKnn::recommend_depersonalised`.
    pub fn depersonalised(&mut self, item: ItemId) -> Vec<ItemScore> {
        self.vmis.recommend_depersonalised(item, &mut self.scratch)
    }
}

/// The independent oracle: scan-based VS-kNN over the same index (the
/// oracle of `tests/parity.rs`).
pub struct Oracle(VsKnnBaseline);

impl Oracle {
    pub fn new(index: Index) -> Result<Self, String> {
        VsKnnBaseline::new(index, kernel_config())
            .map(Self)
            .map_err(|e| e.to_string())
    }

    /// The item ids a correct response to `window` carries, in order.
    pub fn expected(&self, window: &[ItemId]) -> Vec<ItemId> {
        Recommender::recommend(&self.0, window, HOW_MANY)
            .into_iter()
            .map(|r| r.item)
            .collect()
    }
}

/// `kvstore`: a `TtlStore` driven through the `SessionStore` trait with the
/// operation the engine's session stage issues.
pub struct SessionStoreProbe(TtlStore<u64, Vec<ItemId>>);

impl SessionStoreProbe {
    pub fn new() -> Self {
        Self(TtlStore::new(StoreConfig::default()))
    }

    /// Appends `item` to `session`, trims to the stored cap and copies the
    /// view out; returns the view length.
    pub fn update(&self, session: u64, item: ItemId, view: &mut Vec<ItemId>) -> usize {
        view.clear();
        SessionStore::update_or_insert(&self.0, session, Vec::new, |items| {
            items.push(item);
            if items.len() > MAX_STORED_SESSION_LEN {
                let excess = items.len() - MAX_STORED_SESSION_LEN;
                items.drain(..excess);
            }
            view.extend_from_slice(items);
            items.len()
        })
    }

    pub fn live_sessions(&self) -> usize {
        SessionStore::live_entries(&self.0)
    }
}

/// `cache`: a `PredictionCache` probed for depersonalised single-item views.
pub struct CacheProbe(PredictionCache);

impl CacheProbe {
    pub fn new() -> Self {
        Self(PredictionCache::new(CacheConfig::default()))
    }

    fn key(item: ItemId) -> CacheKey {
        CacheKey {
            item,
            view: ViewKind::Depersonalised,
        }
    }

    /// `PredictionCache::lookup`; `true` on a hit.
    pub fn lookup(&self, item: ItemId) -> bool {
        self.0.lookup(Self::key(item), 1).is_some()
    }

    pub fn store(&self, item: ItemId, list: Vec<ItemScore>) {
        self.0.store_list(Self::key(item), 1, list);
    }
}

/// `index`: the incremental indexer behind live ingest.
pub struct Indexer(IncrementalIndexer);

impl Indexer {
    pub fn seeded(train: &[Click]) -> Result<Self, String> {
        let mut indexer = IncrementalIndexer::new(M_MAX).map_err(|e| e.to_string())?;
        indexer.apply_batch(train).map_err(|e| e.to_string())?;
        Ok(Self(indexer))
    }

    /// `IncrementalIndexer::apply_batch`.
    pub fn apply_batch(&mut self, clicks: &[Click]) -> Result<(), String> {
        self.0.apply_batch(clicks).map_err(|e| e.to_string())
    }

    /// `IncrementalIndexer::snapshot`.
    pub fn snapshot(&self) -> Result<Index, String> {
        self.0.snapshot().map(Arc::new).map_err(|e| e.to_string())
    }
}

/// Per-stage time of one engine call (`RequestContext::last_timings`).
#[derive(Debug, Clone, Copy)]
pub struct Stages {
    pub session: Duration,
    pub predict: Duration,
    pub policy: Duration,
}

/// `engine`: a one-pod in-process `ServingCluster` with its caller context.
pub struct InProcess {
    cluster: Arc<ServingCluster>,
    ctx: RequestContext,
}

impl InProcess {
    /// `ServingCluster::new` (1 pod, `ServingVariant::Full`).
    pub fn new(index: Index) -> Result<Self, String> {
        let cluster = ServingCluster::new(index, 1, engine_config(), BusinessRules::none())
            .map_err(|e| e.to_string())?;
        Ok(Self {
            cluster: Arc::new(cluster),
            ctx: RequestContext::new(),
        })
    }

    /// `ServingCluster::handle_with`.
    pub fn handle(
        &mut self,
        session_id: u64,
        item: ItemId,
        consent: bool,
    ) -> Result<Vec<ItemScore>, String> {
        let request = RecommendRequest {
            session_id,
            item,
            consent,
            filter_adult: false,
        };
        self.cluster
            .handle_with(request, &mut self.ctx)
            .map_err(|e| e.to_string())
    }

    /// Stage split of the most recent [`InProcess::handle`].
    pub fn last_stages(&self) -> Stages {
        let t = self.ctx.last_timings();
        Stages {
            session: t.session,
            predict: t.predict,
            policy: t.policy,
        }
    }

    /// `ServingCluster::enable_ingest` with the default `IngestConfig`.
    pub fn enable_ingest(&self, seed: &[Click]) -> Result<Ingest, String> {
        self.cluster
            .enable_ingest(IngestConfig::default(), seed)
            .map(Ingest)
            .map_err(|e| e.to_string())
    }

    /// The cluster's `/metrics` rendering, without a socket.
    pub fn metrics_text(&self) -> String {
        self.cluster.telemetry().registry().render()
    }
}

/// `ingest`: the streaming write path of an in-process cluster.
pub struct Ingest(Arc<IngestPipeline>);

impl Ingest {
    /// `IngestPipeline::submit`; `false` when the queue refused the batch.
    pub fn submit(&self, clicks: &[Click]) -> bool {
        self.0.submit(clicks)
    }

    /// `IngestPipeline::flush`: blocks until everything pending is visible.
    pub fn flush(&self) -> Result<u64, String> {
        self.0.flush().map_err(|e| e.to_string())
    }
}

// ---- server roles (child processes) --------------------------------------

/// A running serving node (`ServingNode::start`); shuts down on drop.
pub struct Node(ServingNode);

impl Node {
    /// Starts a node on ephemeral loopback ports. With `ingest_seed`, the
    /// node's cluster also runs the live ingest pipeline
    /// (`ServingCluster::enable_ingest`, default `IngestConfig`).
    pub fn start(id: u64, index: Index, ingest_seed: Option<&[Click]>) -> Result<Self, String> {
        let config = NodeConfig {
            node_id: id,
            engine: engine_config(),
            ..NodeConfig::default()
        };
        let node = ServingNode::start(index, config).map_err(|e| e.to_string())?;
        if let Some(seed) = ingest_seed {
            node.cluster()
                .enable_ingest(IngestConfig::default(), seed)
                .map_err(|e| e.to_string())?;
        }
        Ok(Self(node))
    }

    pub fn id(&self) -> u64 {
        self.0.id()
    }

    pub fn data_addr(&self) -> SocketAddr {
        self.0.data_addr()
    }

    pub fn ctrl_addr(&self) -> SocketAddr {
        self.0.ctrl_addr()
    }
}

/// A running router (`RouterDaemon::start`); shuts down on drop.
pub struct Router(RouterDaemon);

impl Router {
    /// Starts a router over `(id, data address, control address)` members.
    pub fn start(members: &[(u64, SocketAddr, SocketAddr)]) -> Result<Self, String> {
        RouterDaemon::start(members, RouterConfig::default())
            .map(Self)
            .map_err(|e| e.to_string())
    }

    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }
}
