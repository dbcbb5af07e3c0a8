//! Endpoint routing and response rendering.
//!
//! The blocking per-connection driver that used to live here is gone — the
//! [`reactor`](super::reactor) owns every socket, timeout and admission
//! concern now. What remains is the protocol-independent core both the
//! reactor (for sheds, rejects and timeouts) and the worker pool (for real
//! responses) share:
//!
//! * [`respond`] — routes one parsed request to its endpoint and renders
//!   the body (health, metrics, stats, traces, ingest; a node adds its
//!   `/admin/` routes in [`crate::node`]; predicts run through
//!   `worker::run_predict`, never here);
//! * [`render_response`] — frames one HTTP/1.1 response into bytes, the
//!   single place the wire format lives;
//! * [`unwind_barrier`] — converts engine panics into typed `500`s so one
//!   poisoned request cannot take down a worker;
//! * [`parse_recommend_request`] — the predict body schema the reactor's
//!   request classifier reads.

use serenade_core::{Click, ItemScore};

use crate::cluster::ServingCluster;
use crate::engine::RecommendRequest;
use crate::error::ServingError;
use crate::json::{self, JsonValue};

use super::parser::ParsedRequest;

/// Response content types. `/metrics` uses the Prometheus text exposition
/// content type; everything else is JSON.
pub(crate) const CONTENT_TYPE_JSON: &str = "application/json";
const CONTENT_TYPE_METRICS: &str = "text/plain; version=0.0.4";

/// Renders one framed HTTP/1.1 response into bytes for the reactor's
/// nonblocking write path. `retry_after` adds the `retry-after` header
/// overload sheds advertise.
pub(crate) fn render_response(
    status: u16,
    body: &[u8],
    content_type: &str,
    close: bool,
    retry_after: Option<u32>,
) -> Vec<u8> {
    use std::io::Write as _;
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let connection = if close { "close" } else { "keep-alive" };
    let mut out = Vec::with_capacity(128 + body.len());
    let _ = write!(
        out,
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\n",
        body.len()
    );
    if let Some(seconds) = retry_after {
        let _ = write!(out, "retry-after: {seconds}\r\n");
    }
    let _ = write!(out, "connection: {connection}\r\n\r\n");
    out.extend_from_slice(body);
    out
}

/// Renders one recommendation list as the `POST /recommend` success body.
pub(crate) fn render_recommendations(recs: &[ItemScore]) -> String {
    let items: Vec<JsonValue> = recs
        .iter()
        .map(|r| {
            JsonValue::object([
                ("item_id", JsonValue::Number(r.item as f64)),
                ("score", JsonValue::Number(f64::from(r.score))),
            ])
        })
        .collect();
    JsonValue::object([("recommendations", JsonValue::Array(items))]).to_json()
}

/// Renders one serving error as `(status, body)`.
pub(crate) fn render_error(e: &ServingError) -> (u16, String) {
    (e.status(), JsonValue::object([("error", JsonValue::String(e.to_string()))]).to_json())
}

/// Routes one request to its endpoint and renders the response.
pub(crate) fn respond(
    request: &ParsedRequest,
    cluster: &ServingCluster,
) -> (u16, Vec<u8>, &'static str) {
    let (status, body, content_type) = respond_text(request, cluster);
    (status, body.into_bytes(), content_type)
}

/// The JSON and text endpoints.
fn respond_text(request: &ParsedRequest, cluster: &ServingCluster) -> (u16, String, &'static str) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => (
            200,
            JsonValue::object([
                ("status", JsonValue::String("ok".into())),
                (
                    "uptime_seconds",
                    JsonValue::Number(cluster.telemetry().uptime_seconds() as f64),
                ),
                (
                    "index_generation",
                    JsonValue::Number(cluster.index_handle().generation() as f64),
                ),
            ])
            .to_json(),
            CONTENT_TYPE_JSON,
        ),
        ("GET", "/metrics") => (200, cluster.telemetry().registry().render(), CONTENT_TYPE_METRICS),
        ("GET", "/debug/slow") => {
            let traces: Vec<JsonValue> = cluster
                .telemetry()
                .traces()
                .snapshot()
                .iter()
                .map(|t| {
                    JsonValue::object([
                        ("request_id", JsonValue::Number(t.request_id as f64)),
                        ("total_us", JsonValue::Number(t.total_us as f64)),
                        ("session_us", JsonValue::Number(t.session_us as f64)),
                        ("predict_us", JsonValue::Number(t.predict_us as f64)),
                        ("policy_us", JsonValue::Number(t.policy_us as f64)),
                        ("session_len", JsonValue::Number(t.session_len as f64)),
                        ("depersonalised", JsonValue::Bool(t.depersonalised)),
                        ("postings_walked", JsonValue::Number(f64::from(t.postings_walked))),
                        ("candidates", JsonValue::Number(f64::from(t.candidates))),
                        ("evicted", JsonValue::Number(f64::from(t.evicted))),
                    ])
                })
                .collect();
            (
                200,
                JsonValue::object([("traces", JsonValue::Array(traces))]).to_json(),
                CONTENT_TYPE_JSON,
            )
        }
        ("GET", "/stats") => {
            let s = cluster.stats();
            let mut fields = vec![
                ("pod", JsonValue::Number(0.0)),
                ("requests", JsonValue::Number(s.requests as f64)),
                ("depersonalised", JsonValue::Number(s.depersonalised as f64)),
                ("degraded", JsonValue::Number(s.degraded as f64)),
                ("empty_responses", JsonValue::Number(s.empty_responses as f64)),
                ("errors", JsonValue::Number(s.errors as f64)),
                ("live_sessions", JsonValue::Number(cluster.live_sessions() as f64)),
                ("busy_ms", JsonValue::Number(s.busy.as_millis() as f64)),
            ];
            if let Some(l) = s.latency {
                fields.push(("p50_us", JsonValue::Number(l.p50_us as f64)));
                fields.push(("p90_us", JsonValue::Number(l.p90_us as f64)));
                fields.push(("p995_us", JsonValue::Number(l.p995_us as f64)));
            }
            for (p50_name, p90_name, summary) in [
                ("session_p50_us", "session_p90_us", s.session_latency),
                ("predict_p50_us", "predict_p90_us", s.predict_latency),
                ("policy_p50_us", "policy_p90_us", s.policy_latency),
            ] {
                if let Some(l) = summary {
                    fields.push((p50_name, JsonValue::Number(l.p50_us as f64)));
                    fields.push((p90_name, JsonValue::Number(l.p90_us as f64)));
                }
            }
            // A one-element `pods` array: the wire shape `/stats` clients
            // parse, kept byte for byte.
            let pods = JsonValue::Array(vec![JsonValue::object(fields)]);
            (200, JsonValue::object([("pods", pods)]).to_json(), CONTENT_TYPE_JSON)
        }
        ("POST", "/ingest") => {
            let Some(pipeline) = cluster.ingest() else {
                return (
                    404,
                    JsonValue::object([(
                        "error",
                        JsonValue::String("ingest is not enabled on this cluster".into()),
                    )])
                    .to_json(),
                    CONTENT_TYPE_JSON,
                );
            };
            match parse_ingest_batch(request.text()) {
                Ok(clicks) => {
                    if pipeline.submit(&clicks) {
                        (
                            202,
                            JsonValue::object([(
                                "accepted",
                                JsonValue::Number(clicks.len() as f64),
                            )])
                            .to_json(),
                            CONTENT_TYPE_JSON,
                        )
                    } else {
                        (
                            503,
                            JsonValue::object([(
                                "error",
                                JsonValue::String("ingest queue is at capacity".into()),
                            )])
                            .to_json(),
                            CONTENT_TYPE_JSON,
                        )
                    }
                }
                Err(message) => (
                    400,
                    JsonValue::object([("error", JsonValue::String(message))]).to_json(),
                    CONTENT_TYPE_JSON,
                ),
            }
        }
        ("DELETE", path) if path.starts_with(INGEST_SESSION_PREFIX) => {
            if cluster.ingest().is_none() {
                return (
                    404,
                    JsonValue::object([(
                        "error",
                        JsonValue::String("ingest is not enabled on this cluster".into()),
                    )])
                    .to_json(),
                    CONTENT_TYPE_JSON,
                );
            }
            let Ok(session_id) = path[INGEST_SESSION_PREFIX.len()..].parse::<u64>() else {
                return (
                    400,
                    JsonValue::object([(
                        "error",
                        JsonValue::String("session id must be an unsigned integer".into()),
                    )])
                    .to_json(),
                    CONTENT_TYPE_JSON,
                );
            };
            // Cluster-level unlearning: remove the session from the click
            // log, republish, and erase its evolving state from the session
            // store — one synchronous call.
            match unwind_barrier(|| cluster.delete_session(session_id)) {
                Ok(existed) => (
                    200,
                    JsonValue::object([("deleted", JsonValue::Bool(existed))]).to_json(),
                    CONTENT_TYPE_JSON,
                ),
                Err(e) => {
                    let (status, body) = render_error(&e);
                    (status, body, CONTENT_TYPE_JSON)
                }
            }
        }
        ("POST", "/recommend") => reject_predict(request.text()),
        _ => (
            404,
            JsonValue::object([("error", JsonValue::String("not found".into()))]).to_json(),
            CONTENT_TYPE_JSON,
        ),
    }
}

/// Runs `f` behind an unwind barrier: a panic becomes a typed error (and a
/// `500`) instead of unwinding the worker's dispatch loop and killing every
/// request multiplexed on the reactor.
pub(crate) fn unwind_barrier<R>(
    f: impl FnOnce() -> Result<R, ServingError>,
) -> Result<R, ServingError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|m| (*m).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| String::from("unknown panic"));
        Err(ServingError::Panicked(msg))
    })
}

/// The response to a `POST /recommend` that reached an endpoint responder.
/// The reactor classifies every well-formed predict into
/// `worker::run_predict` — a tier's one way to run a predict — so what
/// arrives here is a body the classifier could not parse, and the answer is
/// its `400`.
pub(crate) fn reject_predict(body: &str) -> (u16, String, &'static str) {
    let (status, body) = match parse_recommend_request(body) {
        Err(message) => {
            (400, JsonValue::object([("error", JsonValue::String(message))]).to_json())
        }
        Ok(_) => render_error(&ServingError::Internal("predict dispatched to the endpoint responder")),
    };
    (status, body, CONTENT_TYPE_JSON)
}

/// Path prefix of the unlearning endpoint: `DELETE /ingest/session/{id}`.
const INGEST_SESSION_PREFIX: &str = "/ingest/session/";

/// Upper bound on clicks per `POST /ingest` body; larger batches should be
/// split client-side (the pending queue is bounded anyway).
const MAX_INGEST_BATCH: usize = 10_000;

/// Parses the `POST /ingest` body:
/// `{"clicks": [{"session_id": u64, "item_id": u64, "timestamp": u64}, ...]}`.
pub(crate) fn parse_ingest_batch(body: &str) -> Result<Vec<Click>, String> {
    let v = json::parse(body).map_err(|e| format!("invalid json: {e}"))?;
    let clicks = v
        .get("clicks")
        .and_then(JsonValue::as_array)
        .ok_or("missing clicks array")?;
    if clicks.is_empty() {
        return Err(String::from("clicks array is empty"));
    }
    if clicks.len() > MAX_INGEST_BATCH {
        return Err(format!("clicks array exceeds the {MAX_INGEST_BATCH}-event batch limit"));
    }
    clicks
        .iter()
        .map(|c| {
            let session_id =
                c.get("session_id").and_then(JsonValue::as_u64).ok_or("missing session_id")?;
            let item_id =
                c.get("item_id").and_then(JsonValue::as_u64).ok_or("missing item_id")?;
            let timestamp =
                c.get("timestamp").and_then(JsonValue::as_u64).ok_or("missing timestamp")?;
            Ok(Click::new(session_id, item_id, timestamp))
        })
        .collect::<Result<Vec<Click>, &'static str>>()
        .map_err(String::from)
}

/// Parses the `POST /recommend` body (the reactor's request classifier and
/// the `400` for bodies it rejects agree on the schema through this).
pub(crate) fn parse_recommend_request(body: &str) -> Result<RecommendRequest, String> {
    let v = json::parse(body).map_err(|e| format!("invalid json: {e}"))?;
    let session_id =
        v.get("session_id").and_then(JsonValue::as_u64).ok_or("missing session_id")?;
    let item = v.get("item_id").and_then(JsonValue::as_u64).ok_or("missing item_id")?;
    let consent = v.get("consent").and_then(JsonValue::as_bool).unwrap_or(true);
    let filter_adult = v.get("filter_adult").and_then(JsonValue::as_bool).unwrap_or(false);
    Ok(RecommendRequest { session_id, item, consent, filter_adult })
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;

    #[test]
    fn barrier_passes_ok_and_typed_errors_through() {
        assert_eq!(unwind_barrier(|| Ok(3)), Ok(3));
        assert_eq!(
            unwind_barrier(|| Err::<(), _>(ServingError::Internal("x"))),
            Err(ServingError::Internal("x"))
        );
    }

    #[test]
    fn barrier_converts_panics_to_500_errors() {
        let err = unwind_barrier(|| -> Result<(), ServingError> {
            panic!("boom at item {}", 7)
        })
        .unwrap_err();
        assert_eq!(err.status(), 500, "panics map to an internal server error");
        match err {
            ServingError::Panicked(msg) => assert!(msg.contains("boom at item 7")),
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn recommend_request_parsing_defaults_and_errors() {
        let ok = parse_recommend_request(r#"{"session_id": 7, "item_id": 3}"#).unwrap();
        assert_eq!((ok.session_id, ok.item), (7, 3));
        assert!(ok.consent, "consent defaults to true");
        assert!(!ok.filter_adult);
        assert!(parse_recommend_request("not json").is_err());
        assert!(parse_recommend_request(r#"{"item_id": 1}"#).is_err());
    }

    #[test]
    fn ingest_batch_parsing_validates_the_schema() {
        let clicks = parse_ingest_batch(
            r#"{"clicks": [
                {"session_id": 7, "item_id": 3, "timestamp": 100},
                {"session_id": 7, "item_id": 4, "timestamp": 101}
            ]}"#,
        )
        .unwrap();
        assert_eq!(clicks.len(), 2);
        assert_eq!((clicks[0].session_id, clicks[0].item_id, clicks[0].timestamp), (7, 3, 100));
        assert!(parse_ingest_batch("not json").is_err());
        assert!(parse_ingest_batch(r#"{"clicks": []}"#).is_err(), "empty batch");
        assert!(parse_ingest_batch(r#"{"clicks": 3}"#).is_err(), "not an array");
        assert!(
            parse_ingest_batch(r#"{"clicks": [{"session_id": 7, "item_id": 3}]}"#).is_err(),
            "missing timestamp"
        );
    }

    #[test]
    fn render_response_frames_the_wire_format() {
        let bytes = render_response(503, b"{}", CONTENT_TYPE_JSON, true, Some(2));
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(
            text,
            "HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\ncontent-length: 2\r\nretry-after: 2\r\nconnection: close\r\n\r\n{}"
        );
        let keep = String::from_utf8(render_response(200, b"ok", "text/plain", false, None)).unwrap();
        assert!(keep.ends_with("connection: keep-alive\r\n\r\nok"), "{keep}");
        assert!(!keep.contains("retry-after"), "{keep}");
    }
}
