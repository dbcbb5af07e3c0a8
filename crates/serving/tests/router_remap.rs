//! Property test for the rendezvous router's bounded-remap guarantee.
//!
//! The multi-node cluster's join/leave handoff is only *bounded* because
//! the routing function disturbs a minimal fraction of sessions when the
//! member set changes. This suite pins that property over random member
//! sets and random session-id samples:
//!
//! * growing N → N+1 members remaps at most ~1/(N+1) + ε of a large
//!   session sample (a modulo map remaps nearly all of them — asserted as
//!   the contrast so the property has teeth);
//! * removing one member remaps exactly the sessions it owned, and every
//!   one of them (the crash-failover contract);
//! * two routers over permuted member lists agree on every ownership
//!   decision (a router daemon restart cannot silently re-shard).

use proptest::prelude::*;
use serenade_serving::StickyRouter;

/// Sessions to sample per case: big enough that the binomial noise around
/// the 1/(N+1) expectation is a few permille.
const SAMPLE: usize = 8_000;

fn session_sample() -> impl Strategy<Value = Vec<u64>> {
    // A seed expands to SAMPLE ids: covers both dense (seed..seed+n) and
    // sparse (hashed) id spaces.
    (any::<u64>(), any::<bool>()).prop_map(|(seed, dense)| {
        (0..SAMPLE as u64)
            .map(|i| {
                if dense {
                    seed.wrapping_add(i)
                } else {
                    seed.wrapping_mul(2654435761)
                        .wrapping_add(i)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                }
            })
            .collect()
    })
}

/// `count` distinct member ids derived from a seed.
fn distinct_members(seed: u64, count: usize) -> Vec<u64> {
    let mut members: Vec<u64> = (0..count as u64)
        .map(|i| seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect();
    members.sort_unstable();
    members.dedup();
    // Astronomically unlikely to collide, but keep the invariant anyway.
    let mut next = seed;
    while members.len() < count {
        next = next.wrapping_add(1);
        if !members.contains(&next) {
            members.push(next);
        }
    }
    members
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    // Growing the member set 0..N → 0..N+1 moves at most ~1/(N+1) + ε of
    // sessions (ε covers binomial sampling noise, 4σ ≈ 0.9% at N=3 and
    // SAMPLE=8k, with margin), and every moved session lands on the new
    // member — a join cannot shuffle sessions between survivors.
    #[test]
    fn growing_membership_remaps_at_most_its_fair_share(
        pods in 1usize..=9,
        sessions in session_sample(),
    ) {
        let old = StickyRouter::with_members(&(0..pods as u64).collect::<Vec<_>>());
        let new = StickyRouter::with_members(&(0..=pods as u64).collect::<Vec<_>>());
        let moved = sessions.iter().filter(|&&s| old.route(s) != new.route(s)).count();
        let fair = SAMPLE as f64 / (pods + 1) as f64;
        let epsilon = 4.0 * (fair * (1.0 - 1.0 / (pods + 1) as f64)).sqrt() + 8.0;
        prop_assert!(
            (moved as f64) <= fair + epsilon,
            "{} members moved {} of {}; fair share {} + epsilon {}",
            pods, moved, SAMPLE, fair, epsilon
        );
        for &s in &sessions {
            if old.route(s) != new.route(s) {
                prop_assert_eq!(new.route(s), pods, "session {} moved between old members", s);
            }
        }
    }

    // The modulo map this replaced remaps nearly everything on N → N+1:
    // keep the contrast asserted so a regression back to modulo routing
    // cannot pass the suite by loosening ε.
    #[test]
    fn modulo_routing_would_remap_nearly_everything(
        pods in 2usize..=9,
        sessions in session_sample(),
    ) {
        let moved = sessions
            .iter()
            .filter(|&&s| s % (pods as u64) != s % (pods as u64 + 1))
            .count();
        let fair = SAMPLE as f64 / (pods + 1) as f64;
        prop_assert!(
            (moved as f64) > 1.5 * fair,
            "modulo moved only {} of {} at {} pods - contrast has lost its teeth",
            moved, SAMPLE, pods
        );
    }

    // Removing a member remaps exactly its own sessions (crash failover
    // moves nothing else), and the failover target agrees with filtered
    // routing on the full router — the two code paths the router tier uses.
    #[test]
    fn removal_moves_only_the_lost_members_sessions(
        seed in any::<u64>(),
        count in 2usize..=9,
        victim_pick in any::<u64>(),
        sessions in session_sample(),
    ) {
        let unique = distinct_members(seed, count);
        let full = StickyRouter::with_members(&unique);
        let victim = (victim_pick % unique.len() as u64) as usize;
        let survivors: Vec<u64> = unique
            .iter()
            .enumerate()
            .filter(|(slot, _)| *slot != victim)
            .map(|(_, &m)| m)
            .collect();
        let reduced = StickyRouter::with_members(&survivors);
        for &s in &sessions {
            let owner = full.route_member(s);
            if owner == unique[victim] {
                let filtered = full
                    .route_filtered(s, |slot| slot != victim)
                    .map(|slot| full.members()[slot]);
                prop_assert_eq!(filtered, Some(reduced.route_member(s)));
            } else {
                prop_assert_eq!(reduced.route_member(s), owner,
                    "surviving member lost session {}", s);
            }
        }
    }

    // Permuting the member list never changes ownership.
    #[test]
    fn ownership_is_listing_order_independent(
        seed in any::<u64>(),
        count in 1usize..=9,
        sessions in session_sample(),
    ) {
        let unique = distinct_members(seed, count);
        let sorted = StickyRouter::with_members(&unique);
        let mut reversed_list = unique.clone();
        reversed_list.reverse();
        let reversed = StickyRouter::with_members(&reversed_list);
        for &s in sessions.iter().take(500) {
            prop_assert_eq!(sorted.route_member(s), reversed.route_member(s));
        }
    }
}
