//! Correctness of responses. The benchmark rebuilds each checked request's
//! session window from the stream it sent and compares the response, item
//! ids in order, with an independent scan-based VS-kNN over the same index.

use std::collections::HashMap;

use crate::driver::Checked;
use crate::inputs::Request;
use crate::surface::{ItemId, Oracle, HOW_MANY, MAX_STORED_SESSION_LEN};

#[derive(Debug, Default)]
pub struct Verdict {
    pub checked: u64,
    pub mismatches: u64,
    pub first_mismatch: Option<String>,
}

impl Verdict {
    fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        self.first_mismatch.get_or_insert(what);
    }
}

/// The shape every response must have even while live ingest moves the
/// index under it: at most 21 items, no duplicates, scores non-increasing.
fn well_formed(list: &[(ItemId, f64)]) -> bool {
    list.len() <= HOW_MANY
        && list.windows(2).all(|w| w[0].1 >= w[1].1)
        && (1..list.len()).all(|i| !list[..i].iter().any(|&(item, _)| item == list[i].0))
}

/// Checks the kept responses of a run.
///
/// `stream` is the request stream from its start and `sent[i]` says whether
/// request `i` reached the server (an unsent request leaves its session's
/// window alone). Responses at stream index `strong_below` and later are
/// only checked for shape: from there on ingest was live and the oracle's
/// index is no longer the served one.
pub fn verify(
    stream: impl Iterator<Item = Request>,
    sent: impl Fn(usize) -> bool,
    mut checked: Vec<Checked>,
    oracle: &Oracle,
    strong_below: usize,
    threads: usize,
) -> Verdict {
    checked.sort_by_key(|c| c.index);
    let mut verdict = Verdict {
        checked: checked.len() as u64,
        ..Verdict::default()
    };

    // Pass 1: walk the stream, rebuilding windows; settle the shape checks
    // and queue the oracle comparisons.
    let mut windows: HashMap<u64, Vec<ItemId>> = HashMap::new();
    let mut queued: Vec<(usize, Vec<ItemId>, Vec<ItemId>)> = Vec::new();
    let mut pending = checked.into_iter().peekable();
    for (index, request) in stream.enumerate() {
        if pending.peek().is_none() {
            break;
        }
        if !sent(index) {
            continue;
        }
        let window: Vec<ItemId> = if request.consent {
            let w = windows.entry(request.session).or_default();
            w.push(request.item);
            if w.len() > MAX_STORED_SESSION_LEN {
                let excess = w.len() - MAX_STORED_SESSION_LEN;
                w.drain(..excess);
            }
            w.clone()
        } else {
            windows.remove(&request.session);
            vec![request.item]
        };
        if pending.peek().is_some_and(|c| c.index == index) {
            let kept = pending.next().expect("peeked");
            match kept.list {
                None => verdict.mismatch(format!("request {index}: unreadable response body")),
                Some(list) if !well_formed(&list) => {
                    verdict.mismatch(format!("request {index}: malformed list {list:?}"));
                }
                Some(list) if index < strong_below => {
                    queued.push((
                        index,
                        window,
                        list.into_iter().map(|(item, _)| item).collect(),
                    ));
                }
                Some(_) => {}
            }
        }
    }
    for kept in pending {
        verdict.mismatch(format!("request {}: kept but never sent", kept.index));
    }

    // Pass 2: the oracle scans are the expensive part; spread them.
    let chunk = queued.len().div_ceil(threads.max(1)).max(1);
    let failures: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = queued
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .filter_map(|(index, window, got)| {
                            let expected = oracle.expected(window);
                            (expected != *got).then(|| {
                                format!(
                                    "request {index}: window {window:?} answered {got:?}, oracle says {expected:?}"
                                )
                            })
                        })
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("oracle worker panicked"))
            .collect()
    });
    for failure in failures {
        verdict.mismatch(failure);
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_check_catches_duplicates_order_and_length() {
        assert!(well_formed(&[(1, 2.0), (2, 2.0), (3, 0.5)]));
        assert!(well_formed(&[]));
        assert!(!well_formed(&[(1, 2.0), (1, 1.0)]), "duplicate item");
        assert!(!well_formed(&[(1, 1.0), (2, 2.0)]), "scores increase");
        let long: Vec<(ItemId, f64)> = (0..22).map(|i| (i, 1.0)).collect();
        assert!(!well_formed(&long), "22 items");
    }
}
