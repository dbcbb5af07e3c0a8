//! Fundamental identifier types and the click record shared across crates.
//!
//! External identifiers (as found in click logs) are 64-bit; the index
//! remaps historical sessions to dense 32-bit [`SessionId`]s so that the
//! timestamp array `t` and the per-session item lists allow constant-time
//! random access (Section 3 of the paper).

/// External item identifier as it appears in a click log.
pub type ItemId = u64;

/// Dense internal identifier of a historical session.
///
/// Assigned in ascending session-timestamp order during index construction,
/// so a larger `SessionId` always denotes a more recent session. This makes
/// recency tie-breaks cheap and keeps the timestamp array `t` contiguous.
pub type SessionId = u32;

/// Integer timestamp (seconds or any monotone unit) of a click or session.
pub type Timestamp = u64;

/// External session identifier as it appears in a click log.
pub type ExternalSessionId = u64;

/// One user-item interaction from the click log.
///
/// Datasets in the paper (Table 1) consist of exactly these tuples:
/// `(session_id, item_id, timestamp)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Click {
    /// External session identifier.
    pub session_id: ExternalSessionId,
    /// External item identifier.
    pub item_id: ItemId,
    /// Click timestamp; larger is more recent.
    pub timestamp: Timestamp,
}

impl Click {
    /// Creates a click record.
    pub const fn new(session_id: ExternalSessionId, item_id: ItemId, timestamp: Timestamp) -> Self {
        Self { session_id, item_id, timestamp }
    }
}

/// A scored recommendation, as returned by [`crate::VmisKnn::recommend`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ItemScore {
    /// Recommended item.
    pub item: ItemId,
    /// Relevance score; higher is better. Always finite and non-negative.
    pub score: f32,
}

impl ItemScore {
    /// Creates a scored item.
    pub const fn new(item: ItemId, score: f32) -> Self {
        Self { item, score }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn click_construction_roundtrips_fields() {
        let c = Click::new(7, 42, 1_000);
        assert_eq!(c.session_id, 7);
        assert_eq!(c.item_id, 42);
        assert_eq!(c.timestamp, 1_000);
    }

    #[test]
    fn item_score_ordering_by_score() {
        let a = ItemScore::new(1, 0.5);
        let b = ItemScore::new(2, 0.25);
        assert!(a.score > b.score);
    }
}
