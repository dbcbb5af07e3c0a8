//! Inputs made from the seed: the dataset, the index artefact, and the
//! request streams the workloads replay. The same seed gives the same bytes.

use std::time::Instant;

use crate::surface::{self, Click, DatasetSize, HeldOutSession, Index, ItemId};

/// One `/recommend` operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub session: u64,
    pub item: ItemId,
    pub consent: bool,
}

impl Request {
    pub fn body(&self) -> String {
        surface::recommend_body(self.session, self.item, self.consent)
    }
}

/// Wall time of each input-building step, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct InputTimings {
    pub generate_ms: f64,
    pub split_ms: f64,
    pub build_ms: f64,
    pub encode_ms: f64,
}

/// Everything a workload's set-up derives from the seed.
pub struct Inputs {
    pub train: Vec<Click>,
    pub held_out: Vec<HeldOutSession>,
    pub index: Index,
    /// The `binfmt` artefact the serving side loads.
    pub artifact: Vec<u8>,
    pub timings: InputTimings,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub fn build_inputs(size: DatasetSize, seed: u64, threads: usize) -> Result<Inputs, String> {
    let t = Instant::now();
    let clicks = surface::generate_clicks(size, seed);
    let generate_ms = ms_since(t);
    let t = Instant::now();
    let (train, held_out) = surface::split_last_day(&clicks);
    let split_ms = ms_since(t);
    if held_out.is_empty() {
        return Err(String::from("the held-out day is empty"));
    }
    let t = Instant::now();
    let index = surface::build_index(&train, threads)?;
    let build_ms = ms_since(t);
    let t = Instant::now();
    let artifact = surface::encode_index(&index)?;
    let encode_ms = ms_since(t);
    Ok(Inputs {
        train,
        held_out,
        index,
        artifact,
        timings: InputTimings {
            generate_ms,
            split_ms,
            build_ms,
            encode_ms,
        },
    })
}

/// Seconds between the clicks of a held-out session (the generator's pace).
const CLICK_GAP_SECS: u64 = 30;

/// Session ids of pass `n` over the held-out day are shifted by `n` times
/// this, so every pass brings fresh sessions. Even, so the `id % connections`
/// pinning of a session is the same on every pass.
const PASS_STRIDE: u64 = 1 << 32;

/// The held-out day as clicks in timestamp order: sessions interleave the
/// way they did when they were recorded.
pub fn held_out_clicks(held_out: &[HeldOutSession]) -> Vec<Click> {
    let mut clicks: Vec<Click> = held_out
        .iter()
        .flat_map(|s| {
            s.items
                .iter()
                .enumerate()
                .map(|(i, &item)| Click::new(s.id, item, s.start + i as u64 * CLICK_GAP_SECS))
        })
        .collect();
    // Stable: clicks of one session keep their order under timestamp ties.
    clicks.sort_by_key(|c| (c.timestamp, c.session_id));
    clicks
}

/// The personalised stream: the held-out day replayed click by click as
/// evolving sessions, forever, with fresh session ids on each wrap-around.
pub struct ReplayStream {
    clicks: Vec<Click>,
    pos: usize,
    pass: u64,
}

impl ReplayStream {
    pub fn new(held_out: &[HeldOutSession]) -> Self {
        Self {
            clicks: held_out_clicks(held_out),
            pos: 0,
            pass: 0,
        }
    }
}

impl Iterator for ReplayStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let click = self.clicks[self.pos];
        let request = Request {
            session: click.session_id + self.pass * PASS_STRIDE,
            item: click.item_id,
            consent: true,
        };
        self.pos += 1;
        if self.pos == self.clicks.len() {
            self.pos = 0;
            self.pass += 1;
        }
        Some(request)
    }
}

/// SplitMix64: the benchmark's own generator, so streams do not depend on
/// the product's vendored `rand`.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// First session id of the anonymous stream; far above any dataset id and
/// any replay pass.
const ANON_SESSION_BASE: u64 = 1 << 48;

/// The anonymous stream: `consent=false`, a fresh session id per request,
/// items drawn Zipf(`exponent`) over the catalogue by popularity.
pub struct ZipfStream {
    items: Vec<ItemId>,
    cumulative: Vec<f64>,
    rng: SplitMix64,
    next_session: u64,
}

impl ZipfStream {
    pub fn new(index: &Index, exponent: f64, seed: u64) -> Self {
        let items = surface::items_by_popularity(index);
        let mut acc = 0.0;
        let cumulative = (1..=items.len())
            .map(|rank| {
                acc += (rank as f64).powf(-exponent);
                acc
            })
            .collect();
        Self {
            items,
            cumulative,
            rng: SplitMix64::new(seed),
            next_session: ANON_SESSION_BASE,
        }
    }
}

impl Iterator for ZipfStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let total = *self.cumulative.last()?;
        let u = self.rng.next_f64() * total;
        let rank = self
            .cumulative
            .partition_point(|&c| c < u)
            .min(self.items.len() - 1);
        let session = self.next_session;
        self.next_session += 1;
        Some(Request {
            session,
            item: self.items[rank],
            consent: false,
        })
    }
}

/// FNV-1a over the rendered bodies of the first `n` requests of a stream.
#[cfg(test)]
pub fn stream_hash(stream: impl Iterator<Item = Request>, n: usize) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for request in stream.take(n) {
        for byte in request.body().bytes().chain(std::iter::once(b'\n')) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> Inputs {
        build_inputs(DatasetSize::Tiny, seed, 2).unwrap()
    }

    #[test]
    fn same_seed_gives_a_byte_identical_request_stream() {
        let (a, b, other) = (tiny(1), tiny(1), tiny(2));
        let replay = |i: &Inputs| stream_hash(ReplayStream::new(&i.held_out), 5_000);
        let zipf = |i: &Inputs| stream_hash(ZipfStream::new(&i.index, 1.1, 1), 5_000);
        assert_eq!(replay(&a), replay(&b));
        assert_eq!(zipf(&a), zipf(&b));
        assert_eq!(a.artifact, b.artifact);
        assert_ne!(replay(&a), replay(&other));
        assert_ne!(
            zipf(&a),
            stream_hash(ZipfStream::new(&a.index, 1.1, 2), 5_000)
        );
    }

    #[test]
    fn replay_keeps_session_order_and_wraps_to_fresh_sessions() {
        let inputs = tiny(3);
        let clicks = held_out_clicks(&inputs.held_out);
        let per_pass = clicks.len();
        let stream: Vec<Request> = ReplayStream::new(&inputs.held_out)
            .take(2 * per_pass)
            .collect();
        for session in inputs.held_out.iter().take(50) {
            let seen: Vec<ItemId> = stream[..per_pass]
                .iter()
                .filter(|r| r.session == session.id)
                .map(|r| r.item)
                .collect();
            assert_eq!(seen, session.items, "session {}", session.id);
        }
        for (first, second) in stream[..per_pass].iter().zip(&stream[per_pass..]) {
            assert_eq!(second.session, first.session + PASS_STRIDE);
            assert_eq!(second.item, first.item);
        }
    }

    #[test]
    fn zipf_stream_is_skewed_towards_popular_items() {
        let inputs = tiny(1);
        let top = surface::items_by_popularity(&inputs.index)[0];
        let hits = ZipfStream::new(&inputs.index, 1.1, 7)
            .take(10_000)
            .filter(|r| r.item == top)
            .count();
        // Rank 1 of Zipf(1.1) over ~500 items carries roughly a fifth.
        assert!(hits > 1_000, "top item drawn {hits} times");
    }
}
