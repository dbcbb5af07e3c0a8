//! Endpoint routing and response rendering.
//!
//! The blocking per-connection driver that used to live here is gone — the
//! [`reactor`](super::reactor) owns every socket, timeout and admission
//! concern now. What remains is the protocol-independent core both the
//! reactors (for predicts, sheds, rejects and timeouts) and the worker pool
//! (for every other response) share:
//!
//! * [`respond`] — routes one parsed request that is not a predict to its
//!   endpoint and renders the body (health, metrics, traces, ingest; the
//!   `/admin/` routes are [`crate::node`]'s); predicts, malformed ones
//!   included, never reach it;
//! * [`render_response`] — frames one HTTP/1.1 response into bytes, the
//!   single place the wire format lives;
//! * [`unwind_barrier`] — converts engine panics into typed `500`s so one
//!   poisoned request cannot take down a reactor or a worker;
//! * [`parse_recommend_request`] — the predict body schema the reactor
//!   reads, and the `400` message of a body it rejects.

use serenade_core::{Click, ItemScore};

use crate::cluster::ServingCluster;
use crate::engine::RecommendRequest;
use crate::error::ServingError;
use crate::json::{self, Value};

use super::parser::ParsedRequest;

/// Response content types. `/metrics` uses the Prometheus text exposition
/// content type; everything else is JSON.
pub(crate) const CONTENT_TYPE_JSON: &str = "application/json";
pub(crate) const CONTENT_TYPE_METRICS: &str = "text/plain; version=0.0.4";

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
    let mut out = String::with_capacity(24 + 48 * recs.len());
    json::write_object(&mut out, |o| {
        o.objects("recommendations", recs, |o, r| {
            o.u64("item_id", r.item).f64("score", f64::from(r.score));
        });
    });
    out
}

/// Renders one serving error as `(status, body)`.
pub(crate) fn render_error(e: &ServingError) -> (u16, String) {
    (e.status(), json::error(&e.to_string()))
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
    let (status, body) = match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => (
            200,
            json::object(|o| {
                o.u64("index_generation", cluster.index_handle().generation())
                    .str("status", "ok")
                    .u64("uptime_seconds", cluster.telemetry().uptime_seconds());
            }),
        ),
        ("GET", "/metrics") => {
            return (200, cluster.telemetry().registry().render(), CONTENT_TYPE_METRICS)
        }
        ("GET", "/debug/slow") => {
            let traces = cluster.telemetry().traces().snapshot();
            let body = json::object(|o| {
                o.objects("traces", &traces, |o, t| {
                    o.u64("candidates", u64::from(t.candidates))
                        .bool("depersonalised", t.depersonalised)
                        .u64("policy_us", t.policy_us)
                        .u64("postings_walked", u64::from(t.postings_walked))
                        .u64("predict_us", t.predict_us)
                        .u64("request_id", t.request_id)
                        .u64("session_len", t.session_len)
                        .u64("session_us", t.session_us)
                        .u64("total_us", t.total_us);
                });
            });
            (200, body)
        }
        ("POST", "/ingest") => match cluster.ingest() {
            None => (404, json::error(INGEST_NOT_ENABLED)),
            Some(pipeline) => match parse_ingest_batch(request.text()) {
                Ok(clicks) => {
                    if pipeline.submit(&clicks) {
                        (202, json::object(|o| {
                            o.u64("accepted", clicks.len() as u64);
                        }))
                    } else if pipeline.is_stopped() {
                        (503, json::error("ingest publisher is stopped"))
                    } else {
                        (503, json::error("ingest queue is at capacity"))
                    }
                }
                Err(message) => (400, json::error(&message)),
            },
        },
        ("DELETE", path) if path.starts_with(INGEST_SESSION_PREFIX) => {
            if cluster.ingest().is_none() {
                (404, json::error(INGEST_NOT_ENABLED))
            } else if let Ok(session_id) = path[INGEST_SESSION_PREFIX.len()..].parse::<u64>() {
                // Cluster-level unlearning: remove the session from the
                // click log, republish, and erase its evolving state from
                // the session store — one synchronous call.
                match unwind_barrier(|| cluster.delete_session(session_id)) {
                    Ok(existed) => (200, json::object(|o| {
                        o.bool("deleted", existed);
                    })),
                    Err(e) => render_error(&e),
                }
            } else {
                (400, json::error("session id must be an unsigned integer"))
            }
        }
        _ => (404, json::error("not found")),
    };
    (status, body, CONTENT_TYPE_JSON)
}

const INGEST_NOT_ENABLED: &str = "ingest is not enabled on this cluster";

/// Runs `f` behind an unwind barrier: a panic becomes a typed error (and a
/// `500`) instead of unwinding a reactor's loop or a worker's and killing
/// every request multiplexed on it.
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

/// Path prefix of the unlearning endpoint: `DELETE /ingest/session/{id}`.
pub(crate) const INGEST_SESSION_PREFIX: &str = "/ingest/session/";

/// Upper bound on clicks per `POST /ingest` body; larger batches should be
/// split client-side (the pending queue is bounded anyway).
const MAX_INGEST_BATCH: usize = 10_000;

/// Parses the `POST /ingest` body:
/// `{"clicks": [{"session_id": u64, "item_id": u64, "timestamp": u64}, ...]}`.
pub(crate) fn parse_ingest_batch(body: &str) -> Result<Vec<Click>, String> {
    let v = json::parse(body).map_err(|e| format!("invalid json: {e}"))?;
    let clicks = v.get("clicks").and_then(Value::elements).ok_or("missing clicks array")?;
    match clicks.clone().count() {
        0 => return Err(String::from("clicks array is empty")),
        n if n > MAX_INGEST_BATCH => {
            return Err(format!("clicks array exceeds the {MAX_INGEST_BATCH}-event batch limit"))
        }
        _ => {}
    }
    clicks
        .map(|c| {
            let field = |key, missing| c.get(key).and_then(Value::as_u64).ok_or(missing);
            Ok(Click::new(
                field("session_id", "missing session_id")?,
                field("item_id", "missing item_id")?,
                field("timestamp", "missing timestamp")?,
            ))
        })
        .collect::<Result<Vec<Click>, &'static str>>()
        .map_err(String::from)
}

/// Parses the `POST /recommend` body; an `Err` is the message of the `400`
/// the reactor answers.
pub(crate) fn parse_recommend_request(body: &str) -> Result<RecommendRequest, String> {
    let v = json::parse(body).map_err(|e| format!("invalid json: {e}"))?;
    let session_id = v.get("session_id").and_then(Value::as_u64).ok_or("missing session_id")?;
    let item = v.get("item_id").and_then(Value::as_u64).ok_or("missing item_id")?;
    let consent = v.get("consent").and_then(Value::as_bool).unwrap_or(true);
    let filter_adult = v.get("filter_adult").and_then(Value::as_bool).unwrap_or(false);
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
