//! Per-worker request state threaded from HTTP ingress into the engine.
//!
//! Each reactor thread (for the predicts it runs) and each in-process
//! caller owns one [`RequestContext`]: the VMIS-kNN
//! scratch buffers, the session-view buffer, and the per-stage timings of
//! the last handled request. A request runs on one context from start to
//! finish, and the context is exclusively borrowed meanwhile, so the hot
//! path shares no mutable state between threads.

use std::time::{Duration, Instant};

use serenade_core::{ItemId, Scratch};

/// Wall-clock time spent in each stage of the serving pipeline for one
/// request (see [`crate::ServingCluster::handle_with`] for the stages).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Session layer: evolving-session update and view extraction.
    pub session: Duration,
    /// Prediction layer: VMIS-kNN over the session view.
    pub predict: Duration,
    /// Policy layer: business rules, truncation, bookkeeping.
    pub policy: Duration,
}

impl StageTimings {
    /// Total time across the three stages.
    pub fn total(&self) -> Duration {
        self.session + self.predict + self.policy
    }
}

/// Reusable per-worker state for request handling. Create one per worker
/// thread and pass it to every `handle_with` call; steady-state requests
/// then allocate nothing.
#[derive(Debug, Default)]
pub struct RequestContext {
    /// VMIS-kNN scratch buffers (grow to a high-water mark, then stabilise).
    pub(crate) scratch: Scratch,
    /// The session view handed from the session stage to the prediction
    /// stage.
    pub(crate) view: Vec<ItemId>,
    /// Per-stage timings of the most recent request.
    timings: StageTimings,
    /// Request id assigned at HTTP ingress for the in-flight request
    /// (0 = unassigned; consumed by the trace recorder).
    request_id: u64,
    /// Absolute deadline for the in-flight request, set at HTTP ingress
    /// from the first byte of the request frame. `None` = no budget.
    deadline: Option<Instant>,
    /// Whether the in-flight request was answered in degraded
    /// (depersonalised-fallback) mode because its deadline expired.
    degraded: bool,
}

impl RequestContext {
    /// Creates a fresh context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-stage timings of the most recently handled request.
    pub fn last_timings(&self) -> StageTimings {
        self.timings
    }

    pub(crate) fn set_timings(&mut self, timings: StageTimings) {
        self.timings = timings;
    }

    /// Tags the in-flight request with an id (assigned at HTTP ingress so
    /// one id spans the request from the socket to its trace record).
    pub fn set_request_id(&mut self, id: u64) {
        self.request_id = id;
    }

    /// Takes the in-flight request id, resetting it to 0 (unassigned) so a
    /// stale id never leaks into the next request on this worker.
    pub fn take_request_id(&mut self) -> u64 {
        std::mem::take(&mut self.request_id)
    }

    /// Sets (or clears) the deadline budget for the in-flight request.
    /// Assigned at HTTP ingress; stages downstream observe it through
    /// [`Self::deadline_expired_at`] and degrade rather than blow the SLA.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
        self.degraded = false;
    }

    /// Whether the deadline had already passed at `now`. Takes the probe
    /// instant as a parameter so stages reuse the `Instant` they already
    /// captured for timings instead of another clock read.
    pub fn deadline_expired_at(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }

    /// Whether the in-flight request was served in degraded mode.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    pub(crate) fn set_degraded(&mut self, degraded: bool) {
        self.degraded = degraded;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_total_sums_stages() {
        let t = StageTimings {
            session: Duration::from_micros(10),
            predict: Duration::from_micros(200),
            policy: Duration::from_micros(5),
        };
        assert_eq!(t.total(), Duration::from_micros(215));
    }

    #[test]
    fn fresh_context_reports_zero_timings() {
        let ctx = RequestContext::new();
        assert_eq!(ctx.last_timings(), StageTimings::default());
    }

    #[test]
    fn deadline_budget_and_expiry() {
        let mut ctx = RequestContext::new();
        let now = Instant::now();
        let deadline = now + Duration::from_secs(3600);
        assert!(!ctx.deadline_expired_at(deadline + Duration::from_secs(3600)), "no budget, no expiry");
        ctx.set_deadline(Some(deadline));
        assert!(!ctx.deadline_expired_at(now));
        assert!(!ctx.deadline_expired_at(deadline - Duration::from_nanos(1)));
        assert!(ctx.deadline_expired_at(deadline), "the budget ends at the deadline itself");
        assert!(ctx.deadline_expired_at(now + Duration::from_secs(3601)));
        ctx.set_degraded(true);
        assert!(ctx.degraded());
        ctx.set_deadline(None);
        assert!(!ctx.degraded(), "set_deadline resets degraded for the next request");
    }
}
