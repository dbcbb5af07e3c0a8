//! The load generator: one process, at most one thread and one connection
//! per core. Open-loop requests are timed from the instant they were due,
//! so a stall charges every request queued behind it.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::client::Client;
use crate::inputs::Request;
use crate::surface::{self, Click, ItemId};

/// Every `CHECK_EVERY`-th request of a stream keeps its response for the
/// correctness oracle.
pub const CHECK_EVERY: usize = 64;

/// A response kept for the oracle: its place in the stream and its
/// `(item, score)` list, or `None` if the body did not parse.
pub struct Checked {
    pub index: usize,
    pub list: Option<Vec<(ItemId, f64)>>,
}

/// What one generator thread observed.
#[derive(Default)]
pub struct ConnectionLog {
    /// `(due offset into the timed phase, latency from due)` of every
    /// successful timed request, in nanoseconds.
    pub samples: Vec<(u64, u64)>,
    /// How late the generator itself sent each timed request: send time
    /// minus the later of its due time and the previous completion.
    pub lag_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// How many requests of this connection's share were sent, warm-up
    /// included (always a prefix of the share).
    pub sent: usize,
    pub checked: Vec<Checked>,
    /// The first failure seen, for the report.
    pub first_error: Option<String>,
}

impl ConnectionLog {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_error.get_or_insert(what);
    }
}

/// Sleeps until shortly before `deadline`, then spins: `thread::sleep`
/// alone overshoots by tens of microseconds, which would be charged to the
/// system under test.
pub fn wait_until(deadline: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let remaining = deadline - now;
        if remaining > SPIN {
            std::thread::sleep(remaining - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The timed part of an open-loop run: request `warmup + k` of the stream
/// is due `k * period` after `start`, and nothing due after `duration` is
/// sent.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub period: Duration,
    pub duration: Duration,
}

/// Drives one connection's share of `stream` (the requests at `share`,
/// ascending): the indices below `warmup` back to back and untimed, the
/// rest on `schedule`. `schedule` is made by the caller once every
/// connection has warmed up, and handed over through `ready`.
pub fn drive_connection(
    addr: SocketAddr,
    stream: &[Request],
    share: &[usize],
    warmup: usize,
    ready: impl FnOnce() -> Schedule,
) -> ConnectionLog {
    let mut log = ConnectionLog::default();
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            log.attempted += 1;
            log.fail(format!("connect {addr}: {e}"));
            ready();
            return log;
        }
    };
    let split = share.partition_point(|&i| i < warmup);
    for &index in &share[..split] {
        let outcome = client.post(surface::RECOMMEND_PATH, &stream[index].body());
        record(&mut log, index, outcome);
        log.sent += 1;
    }
    let schedule = ready();
    let mut free_at = schedule.start;
    for &index in &share[split..] {
        let due_offset = schedule.period * (index - warmup) as u32;
        if due_offset >= schedule.duration {
            break;
        }
        let due = schedule.start + due_offset;
        wait_until(due);
        let sent_at = Instant::now();
        let outcome = client.post(surface::RECOMMEND_PATH, &stream[index].body());
        let done = Instant::now();
        log.lag_ns.push(nanos(sent_at - due.max(free_at)));
        free_at = done;
        log.sent += 1;
        if record(&mut log, index, outcome) {
            log.samples.push((nanos(due_offset), nanos(done - due)));
        }
    }
    log
}

/// Books one `/recommend` outcome; `true` when it succeeded.
fn record(
    log: &mut ConnectionLog,
    index: usize,
    outcome: std::io::Result<crate::client::Response>,
) -> bool {
    log.attempted += 1;
    match outcome {
        Ok(response) if response.status == 200 => {
            if index.is_multiple_of(CHECK_EVERY) {
                log.checked.push(Checked {
                    index,
                    list: surface::parse_recommendations(&response.body),
                });
            }
            true
        }
        Ok(response) => {
            log.fail(format!(
                "/recommend answered {}: {}",
                response.status, response.body
            ));
            false
        }
        Err(e) => {
            log.fail(format!("/recommend failed: {e}"));
            false
        }
    }
}

/// A probe for a marker not visible after this long is a failed operation.
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(5);
const INGEST_EVERY: Duration = Duration::from_millis(100);
const INGEST_BATCH: usize = 10;
const MARKER_EVERY: Duration = Duration::from_secs(1);
const PROBE_EVERY: Duration = Duration::from_millis(1);

/// Session and item ids of marker `n` start here, probe sessions at twice
/// this: above every dataset id and replay pass, below the anonymous
/// stream, and exact in the `f64` the product's JSON reader parses into.
const MARKER_BASE: u64 = 1 << 44;

/// What the write-side connection of `node.ingest-mix` observed.
#[derive(Default)]
pub struct IngestLog {
    pub attempted: u64,
    pub failed: u64,
    /// Marker `202` to first response reflecting it, in milliseconds.
    pub visible_ms: Vec<f64>,
    pub first_error: Option<String>,
}

impl IngestLog {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_error.get_or_insert(what);
    }
}

/// The write side of `node.ingest-mix`, on its own connection: every 100 ms
/// a batch of held-out clicks; once a second a marker session
/// `{hot item, never-seen item Zₙ}` followed by 1 ms-spaced depersonalised
/// probes for `Zₙ` until the hot item appears in the answer.
pub fn drive_ingest(
    addr: SocketAddr,
    clicks: &[Click],
    hot_item: ItemId,
    newest_timestamp: u64,
    schedule: Schedule,
) -> IngestLog {
    let mut log = IngestLog::default();
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            log.attempted += 1;
            log.fail(format!("connect {addr}: {e}"));
            return log;
        }
    };
    let end = schedule.start + schedule.duration;
    let mut batches = clicks.chunks(INGEST_BATCH).cycle();
    let mut next_ingest = schedule.start;
    // Off the batch cadence, so a marker never queues behind a batch.
    let mut next_marker = schedule.start + INGEST_EVERY / 2;
    let mut markers = 0u64;
    // (never-seen item, time of the 202, next probe time)
    let mut probing: Option<(ItemId, Instant, Instant)> = None;
    loop {
        let next_probe = probing.map(|(_, _, at)| at);
        let marker_due = if probing.is_none() {
            Some(next_marker)
        } else {
            None
        };
        let due = [Some(next_ingest), marker_due, next_probe]
            .into_iter()
            .flatten()
            .min();
        let Some(due) = due.filter(|&d| d < end) else {
            break;
        };
        wait_until(due);
        if Some(due) == next_probe {
            let (unseen, accepted_at, _) = probing.expect("a probe is due only while probing");
            let session = 2 * MARKER_BASE + log.attempted;
            log.attempted += 1;
            match client.post(
                surface::RECOMMEND_PATH,
                &surface::recommend_body(session, unseen, false),
            ) {
                Ok(r) if r.status == 200 => {
                    let visible = surface::parse_recommendations(&r.body)
                        .is_some_and(|list| list.iter().any(|&(item, _)| item == hot_item));
                    if visible {
                        log.visible_ms
                            .push(accepted_at.elapsed().as_secs_f64() * 1e3);
                        probing = None;
                    } else if accepted_at.elapsed() > VISIBLE_TIMEOUT {
                        log.fail(format!("marker item {unseen} not visible within 5 s"));
                        probing = None;
                    } else {
                        probing =
                            Some((unseen, accepted_at, Instant::now().max(due + PROBE_EVERY)));
                    }
                }
                Ok(r) => {
                    log.fail(format!("probe answered {}", r.status));
                    probing = None;
                }
                Err(e) => {
                    log.fail(format!("probe failed: {e}"));
                    probing = None;
                }
            }
        } else if Some(due) == marker_due {
            let (session, unseen) = (MARKER_BASE + markers, MARKER_BASE + markers);
            let timestamp = newest_timestamp + 1 + 2 * markers;
            markers += 1;
            next_marker = due + MARKER_EVERY;
            let batch = [
                Click::new(session, hot_item, timestamp),
                Click::new(session, unseen, timestamp + 1),
            ];
            if post_ingest(&mut client, &batch, &mut log) {
                let now = Instant::now();
                probing = Some((unseen, now, now));
            }
        } else {
            next_ingest = due + INGEST_EVERY;
            let batch = batches.next().expect("the held-out day is not empty");
            post_ingest(&mut client, batch, &mut log);
        }
    }
    log
}

fn post_ingest(client: &mut Client, batch: &[Click], log: &mut IngestLog) -> bool {
    log.attempted += 1;
    match client.post(surface::INGEST_PATH, &surface::ingest_body(batch)) {
        Ok(r) if r.status == 202 => true,
        Ok(r) => {
            log.fail(format!("/ingest answered {}: {}", r.status, r.body));
            false
        }
        Err(e) => {
            log.fail(format!("/ingest failed: {e}"));
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A fake server answering every request with an empty list; request
    /// number `stall_on` (0-based) is answered `stall` late.
    fn fake_server(stall_on: usize, stall: Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut socket, _) = listener.accept().unwrap();
            let mut seen = 0usize;
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            loop {
                // One request = head + a JSON body that ends with '}'.
                while !(buf.windows(4).any(|w| w == b"\r\n\r\n") && buf.ends_with(b"}")) {
                    match socket.read(&mut chunk) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    }
                }
                buf.clear();
                if seen == stall_on {
                    std::thread::sleep(stall);
                }
                seen += 1;
                let body = r#"{"recommendations":[]}"#;
                let response = format!(
                    "HTTP/1.1 200 OK\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n{body}",
                    body.len()
                );
                if socket.write_all(response.as_bytes()).is_err() {
                    return;
                }
            }
        });
        addr
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        let stall = Duration::from_millis(50);
        let addr = fake_server(2, stall);
        let stream: Vec<Request> = (0..12)
            .map(|i| Request {
                session: i,
                item: 1,
                consent: false,
            })
            .collect();
        let share: Vec<usize> = (0..stream.len()).collect();
        let period = Duration::from_millis(5);
        let log = drive_connection(addr, &stream, &share, 0, || Schedule {
            start: Instant::now(),
            period,
            duration: Duration::from_secs(1),
        });
        assert_eq!((log.attempted, log.failed, log.samples.len()), (12, 0, 12));
        let latency_ms = |k: usize| log.samples[k].1 as f64 / 1e6;
        // Requests before the stall are fast.
        assert!(
            latency_ms(0) < 10.0 && latency_ms(1) < 10.0,
            "{:?}",
            log.samples
        );
        // Request 2 stalls; requests 3.. were due every 5 ms while it did, so
        // each still carries what was left of the stall when it was due.
        assert!(latency_ms(2) >= 50.0);
        for k in 3..8 {
            let queued_for = 50.0 - 5.0 * (k - 2) as f64;
            assert!(
                latency_ms(k) >= queued_for,
                "request {k} latency {} ms hides {queued_for} ms of queueing",
                latency_ms(k)
            );
        }
        // Once the queue has drained, latency is back to normal.
        assert!(latency_ms(11) < 10.0, "{:?}", log.samples);
        // The generator itself was not late: the queued requests waited for
        // the connection, not for the sender.
        let worst_lag_ms = *log.lag_ns.iter().max().unwrap() as f64 / 1e6;
        assert!(worst_lag_ms < 10.0, "generator lag {worst_lag_ms} ms");
    }

    #[test]
    fn every_64th_response_is_kept_and_warmup_is_untimed() {
        let addr = fake_server(usize::MAX, Duration::ZERO);
        let stream: Vec<Request> = (0..200)
            .map(|i| Request {
                session: i,
                item: 1,
                consent: true,
            })
            .collect();
        let share: Vec<usize> = (0..stream.len()).filter(|i| i % 2 == 0).collect();
        let log = drive_connection(addr, &stream, &share, 100, || Schedule {
            start: Instant::now(),
            period: Duration::from_micros(100),
            duration: Duration::from_secs(1),
        });
        assert_eq!((log.sent, log.attempted, log.failed), (100, 100, 0));
        assert_eq!(
            log.samples.len(),
            50,
            "only the 50 requests after warm-up are timed"
        );
        let kept: Vec<usize> = log.checked.iter().map(|c| c.index).collect();
        assert_eq!(kept, vec![0, 64, 128, 192]);
        assert!(log
            .checked
            .iter()
            .all(|c| c.list.as_deref() == Some(&[][..])));
    }
}
