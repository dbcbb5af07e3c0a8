//! Weighting functions of VS-kNN / VMIS-kNN.
//!
//! Three families of weights shape the final item scores (Section 2/3 of the
//! paper):
//!
//! * the **decay function π** assigns a weight to each item of the evolving
//!   session based on its insertion order — more recent items contribute more
//!   to the session similarity;
//! * the **match weight λ** weighs a neighbour session's contribution by the
//!   position of the *most recent shared item* between the evolving session
//!   and the neighbour;
//! * the **idf weighting** de-emphasises highly frequent items when scoring
//!   candidate items (a classic information-retrieval technique). VS-kNN uses
//!   `1 + log(|H|/h_i)`; VMIS-kNN simplifies this to `log(|H|/h_i)`, which
//!   the authors found to perform better on held-out data.

/// Decay function π applied to the insertion order of evolving-session items.
///
/// Positions are 1-based insertion orders: in a session of length `n`, the
/// oldest item has position 1 and the most recent position `n` (the toy
/// example in Section 2: `ω(s) = [.. 1 2 .. 3]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecayFunction {
    /// `π(pos) = pos / n` — the paper's default ("divide the insertion time
    /// by the session length").
    LinearByPosition,
    /// `π(pos) = (pos / n)²` — emphasises recent items more sharply.
    Quadratic,
    /// `π(pos) = 1 / (n - pos + 1)` — harmonic decay from the session end.
    Harmonic,
    /// `π(pos) = 1 / log₂(n - pos + 2)` — logarithmic decay from the end.
    Logarithmic,
    /// `π(pos) = 1` — no decay; every item contributes equally.
    Uniform,
}

impl DecayFunction {
    /// Weight of the item at 1-based position `pos` in a session of length `n`.
    ///
    /// `pos` must satisfy `1 <= pos <= n`.
    #[inline]
    pub fn weight(self, pos: usize, n: usize) -> f32 {
        debug_assert!(pos >= 1 && pos <= n, "position {pos} out of range 1..={n}");
        match self {
            DecayFunction::LinearByPosition => pos as f32 / n as f32,
            DecayFunction::Quadratic => {
                let w = pos as f32 / n as f32;
                w * w
            }
            DecayFunction::Harmonic => 1.0 / (n - pos + 1) as f32,
            DecayFunction::Logarithmic => 1.0 / ((n - pos + 2) as f32).log2(),
            DecayFunction::Uniform => 1.0,
        }
    }
}

/// Match weight λ applied to the insertion position of the most recent item
/// shared between the evolving session and a neighbour session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchWeight {
    /// The paper's default: `λ(x) = 1 − 0.1·x` for insertion times `x < 10`,
    /// and zero otherwise (Section 2, toy example: `λ(3) = 0.7`).
    ///
    /// Because λ vanishes for positions ≥ 10 this weight presumes the
    /// evolving session is capped (the paper caps the number of considered
    /// items; see `VmisConfig::max_session_len`).
    PaperLinear,
    /// `λ(x) = max(0, 1 − 0.1·(n − x))` — linear decay measured from the
    /// *end* of the session, as used by the session-rec reference code: the
    /// most recent shared item gets weight 1.0, ten-or-more steps back gets 0.
    LinearFromEnd,
    /// `λ(x) = (x / n)²` — quadratic in the relative position.
    Quadratic,
    /// `λ(x) = 1` — neighbour contributions are not position-weighted.
    Uniform,
}

impl MatchWeight {
    /// Weight for a most-recent shared item at 1-based position `pos` in an
    /// evolving session of length `n`.
    #[inline]
    pub fn weight(self, pos: usize, n: usize) -> f32 {
        debug_assert!(pos >= 1 && pos <= n, "position {pos} out of range 1..={n}");
        match self {
            MatchWeight::PaperLinear => {
                if pos < 10 {
                    1.0 - 0.1 * pos as f32
                } else {
                    0.0
                }
            }
            MatchWeight::LinearFromEnd => {
                let back = (n - pos) as f32;
                (1.0 - 0.1 * back).max(0.0)
            }
            MatchWeight::Quadratic => {
                let w = pos as f32 / n as f32;
                w * w
            }
            MatchWeight::Uniform => 1.0,
        }
    }
}

/// Inverse-document-frequency weighting applied to candidate items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdfWeighting {
    /// `log(|H| / h_i)` — VMIS-kNN's simplified weighting (Section 3).
    Log,
    /// `1 + log(|H| / h_i)` — the original VS-kNN weighting (Section 2).
    OnePlusLog,
    /// No idf weighting; every item weighs 1.
    None,
}

impl IdfWeighting {
    /// Weight for an item occurring in `h_i` of `num_sessions` historical
    /// sessions. `h_i` must be ≥ 1 (the item occurs in at least one session,
    /// otherwise it could not be scored).
    #[inline]
    pub fn weight(self, h_i: usize, num_sessions: usize) -> f32 {
        debug_assert!(h_i >= 1 && h_i <= num_sessions);
        match self {
            IdfWeighting::Log => (num_sessions as f32 / h_i as f32).ln(),
            IdfWeighting::OnePlusLog => 1.0 + (num_sessions as f32 / h_i as f32).ln(),
            IdfWeighting::None => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f32 = 1e-6;

    #[test]
    fn linear_decay_matches_paper_toy_example() {
        // Section 2 toy example: session [1, 2, 4], π(ω) = [1/3, 2/3, 3/3].
        let d = DecayFunction::LinearByPosition;
        assert!((d.weight(1, 3) - 1.0 / 3.0).abs() < EPS);
        assert!((d.weight(2, 3) - 2.0 / 3.0).abs() < EPS);
        assert!((d.weight(3, 3) - 1.0).abs() < EPS);
    }

    #[test]
    fn paper_linear_match_weight_matches_toy_example() {
        // Section 2 toy example: λ(3) = 1 − 0.1·3 = 0.7.
        assert!((MatchWeight::PaperLinear.weight(3, 3) - 0.7).abs() < EPS);
    }

    #[test]
    fn paper_linear_is_zero_from_position_ten() {
        assert!((MatchWeight::PaperLinear.weight(9, 20) - 0.1).abs() < EPS);
        assert_eq!(MatchWeight::PaperLinear.weight(10, 20), 0.0);
        assert_eq!(MatchWeight::PaperLinear.weight(15, 20), 0.0);
    }

    #[test]
    fn linear_from_end_favours_recent_items() {
        let w = MatchWeight::LinearFromEnd;
        assert!((w.weight(5, 5) - 1.0).abs() < EPS); // most recent
        assert!((w.weight(4, 5) - 0.9).abs() < EPS);
        assert_eq!(w.weight(1, 20), 0.0); // 19 steps back -> clamped
    }

    #[test]
    fn decay_weights_are_monotone_in_position() {
        for d in [
            DecayFunction::LinearByPosition,
            DecayFunction::Quadratic,
            DecayFunction::Harmonic,
            DecayFunction::Logarithmic,
        ] {
            for n in [1usize, 2, 5, 17] {
                for pos in 1..n {
                    assert!(
                        d.weight(pos, n) <= d.weight(pos + 1, n) + EPS,
                        "{d:?} not monotone at pos={pos}, n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn decay_weights_are_in_unit_interval() {
        for d in [
            DecayFunction::LinearByPosition,
            DecayFunction::Quadratic,
            DecayFunction::Harmonic,
            DecayFunction::Logarithmic,
            DecayFunction::Uniform,
        ] {
            for n in [1usize, 3, 10, 100] {
                for pos in 1..=n {
                    let w = d.weight(pos, n);
                    assert!((0.0..=1.0).contains(&w), "{d:?}({pos},{n}) = {w}");
                }
            }
        }
    }

    #[test]
    fn idf_log_vs_one_plus_log() {
        let n = 100;
        for h in [1usize, 10, 50, 100] {
            let log = IdfWeighting::Log.weight(h, n);
            let oplus = IdfWeighting::OnePlusLog.weight(h, n);
            assert!((oplus - log - 1.0).abs() < EPS);
        }
        assert_eq!(IdfWeighting::None.weight(7, n), 1.0);
    }

    #[test]
    fn idf_decreases_with_frequency() {
        let n = 1000;
        let rare = IdfWeighting::Log.weight(1, n);
        let common = IdfWeighting::Log.weight(900, n);
        assert!(rare > common);
        // An item in every session has idf log(1) = 0.
        assert!(IdfWeighting::Log.weight(n, n).abs() < EPS);
    }
}
