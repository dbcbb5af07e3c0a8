//! Sticky-session request routing.
//!
//! The paper partitions evolving sessions and their requests over the
//! serving machines by session identifier, using Kubernetes session
//! affinity via istio sidecars (Section 4.2). The same contract here is a
//! deterministic map from session id onto a *member* (a serving node):
//! every request of a session reaches the same node, so session state never
//! needs to move while membership is stable.
//!
//! The map is **rendezvous hashing** (highest-random-weight): each member
//! gets a pseudo-random weight per session and the heaviest member wins.
//! Unlike the modulo map this used to be, membership changes disturb the
//! minimum possible number of sessions — growing N → N+1 members remaps
//! only the ~1/(N+1) of sessions the new member now wins, instead of
//! nearly all of them (property-tested in `tests/router_remap.rs`). That
//! is what makes node join/leave handoff *bounded* in the multi-node
//! cluster.

/// SplitMix64 finaliser: full-avalanche 64-bit mixer.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The rendezvous weight of `member` for `session_id`. Pure, so the router
/// daemon and any external tooling agree on ownership.
#[inline]
pub fn rendezvous_weight(session_id: u64, member: u64) -> u64 {
    // Double mixing decorrelates the two arguments: mix(session ^ mix(m))
    // avalanches even when session ids or member ids are small integers.
    mix(session_id ^ mix(member))
}

/// Deterministic session-id → member mapping via rendezvous hashing.
#[derive(Debug, Clone)]
pub struct StickyRouter {
    members: Box<[u64]>,
}

impl StickyRouter {
    /// Creates a router over explicit member ids (≥ 1, caller-unique) —
    /// the router tier's shape, where members are node identities that
    /// survive joins and leaves of *other* nodes.
    pub fn with_members(members: &[u64]) -> Self {
        assert!(!members.is_empty(), "at least one member required");
        Self { members: members.into() }
    }

    /// The member ids, in routing-slot order.
    pub fn members(&self) -> &[u64] {
        &self.members
    }

    /// The member slot responsible for a session. Stable for the lifetime
    /// of the router; uniform across members for any id distribution.
    #[inline]
    pub fn route(&self, session_id: u64) -> usize {
        self.route_filtered(session_id, |_| true)
            .expect("router always has at least one member")
    }

    /// The member *id* responsible for a session.
    #[inline]
    pub fn route_member(&self, session_id: u64) -> u64 {
        self.members[self.route(session_id)]
    }

    /// The responsible member slot among those `eligible` — the failover
    /// path: with a dead node filtered out, the surviving members'
    /// relative weights are untouched, so only the dead node's sessions
    /// move. `None` when nothing is eligible.
    #[inline]
    pub fn route_filtered(
        &self,
        session_id: u64,
        eligible: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let mut best: Option<(u64, u64, usize)> = None;
        for (slot, &member) in self.members.iter().enumerate() {
            if !eligible(slot) {
                continue;
            }
            let weight = rendezvous_weight(session_id, member);
            // Tie-break on the member id so the winner is independent of
            // slot order (two routers over the same member set agree even
            // if they listed the members differently).
            let candidate = (weight, member, slot);
            if best.map_or(true, |(bw, bm, _)| (weight, member) > (bw, bm)) {
                best = Some(candidate);
            }
        }
        best.map(|(_, _, slot)| slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A router over member ids `0..n`.
    fn router(n: u64) -> StickyRouter {
        StickyRouter::with_members(&(0..n).collect::<Vec<_>>())
    }

    #[test]
    fn routing_is_deterministic() {
        let r = router(3);
        for sid in 0..100u64 {
            assert_eq!(r.route(sid), r.route(sid));
        }
    }

    #[test]
    fn routing_is_in_range() {
        let r = router(5);
        assert!((0..10_000u64).all(|sid| r.route(sid) < 5));
    }

    #[test]
    fn load_is_roughly_balanced() {
        let pods = 4;
        let r = router(pods as u64);
        let mut counts = vec![0usize; pods];
        let n = 40_000u64;
        for sid in 0..n {
            counts[r.route(sid)] += 1;
        }
        let expected = n as f64 / pods as f64;
        for (p, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < expected * 0.05,
                "pod {p} has {c} of {n} sessions"
            );
        }
    }

    #[test]
    fn single_pod_takes_everything() {
        let r = router(1);
        assert!((0..100u64).all(|sid| r.route(sid) == 0));
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn zero_pods_is_rejected() {
        let _ = router(0);
    }

    #[test]
    fn slot_order_does_not_change_ownership() {
        let a = StickyRouter::with_members(&[11, 42, 77]);
        let b = StickyRouter::with_members(&[77, 11, 42]);
        for sid in 0..5_000u64 {
            assert_eq!(a.route_member(sid), b.route_member(sid), "session {sid}");
        }
    }

    #[test]
    fn filtering_a_member_moves_only_its_sessions() {
        let r = StickyRouter::with_members(&[1, 2, 3, 4]);
        for sid in 0..5_000u64 {
            let owner = r.route(sid);
            let dead = (owner + 1) % 4; // some *other* member dies
            let rerouted = r.route_filtered(sid, |slot| slot != dead).unwrap();
            assert_eq!(rerouted, owner, "losing a non-owner must not move session {sid}");
        }
    }

    #[test]
    fn filtering_everything_routes_nowhere() {
        let r = router(3);
        assert_eq!(r.route_filtered(7, |_| false), None);
    }

    #[test]
    fn growing_membership_remaps_a_bounded_fraction() {
        // The rendezvous guarantee in miniature (the full property test
        // lives in tests/router_remap.rs): 3 → 4 members moves about 1/4
        // of sessions, never the near-everything a modulo map moves.
        let old = router(3);
        let new = router(4);
        let n = 20_000u64;
        let moved = (0..n).filter(|&sid| old.route(sid) != new.route(sid)).count();
        let expected = n as f64 / 4.0;
        assert!(
            (moved as f64) < expected * 1.25,
            "moved {moved} of {n}, expected about {expected}"
        );
        assert!((moved as f64) > expected * 0.75, "moved {moved} of {n}: suspiciously few");
    }
}
