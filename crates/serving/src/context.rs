//! Per-worker request state threaded through `http → cluster → engine`.
//!
//! Each HTTP worker, the reactor thread (for the predicts it runs inline)
//! and each in-process caller owns one [`RequestContext`]: the VMIS-kNN
//! scratch buffers, the session-view buffer, and the per-stage timings of
//! the last handled request. A request runs on one context from start to
//! finish, and the context is exclusively borrowed meanwhile, so the hot
//! path shares no mutable state between threads.

use std::time::{Duration, Instant};

use serenade_core::{ItemId, KernelWork, Scratch};

/// Wall-clock time spent in each stage of the serving pipeline for one
/// request (see `crate::engine::Engine::handle_with` for the stages).
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
    /// Stored session length after the session stage of the most recent
    /// request.
    session_len: usize,
    /// Absolute deadline for the in-flight request, set at HTTP ingress
    /// from the first byte of the request frame. `None` = no budget.
    deadline: Option<Instant>,
    /// Whether the in-flight request was answered in degraded
    /// (depersonalised-fallback) mode because its deadline expired.
    degraded: bool,
    /// What the kernel did for the in-flight request; all zero when none
    /// ran here (a cache hit, a remote node). Consumed by the trace recorder.
    kernel_work: KernelWork,
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
    /// one id spans the whole `http → cluster → engine` path).
    pub fn set_request_id(&mut self, id: u64) {
        self.request_id = id;
    }

    /// Takes the in-flight request id, resetting it to 0 (unassigned) so a
    /// stale id never leaks into the next request on this worker.
    pub fn take_request_id(&mut self) -> u64 {
        std::mem::take(&mut self.request_id)
    }

    /// Notes the kernel work counters of the in-flight request.
    pub(crate) fn record_kernel_work(&mut self, work: KernelWork) {
        self.kernel_work = work;
    }

    /// Takes the in-flight request's kernel work counters, resetting them to
    /// zero so they never describe a later request that ran no kernel.
    pub(crate) fn take_kernel_work(&mut self) -> KernelWork {
        std::mem::take(&mut self.kernel_work)
    }

    /// Stored session length after the most recent request's session stage.
    pub fn session_len(&self) -> usize {
        self.session_len
    }

    pub(crate) fn set_session_len(&mut self, len: usize) {
        self.session_len = len;
    }

    /// Sets (or clears) the deadline budget for the in-flight request.
    /// Assigned at HTTP ingress; stages downstream observe it through
    /// [`Self::remaining_budget`] and degrade rather than blow the SLA.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
        self.degraded = false;
    }

    /// The absolute deadline of the in-flight request, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Budget left before the deadline (`None` = no deadline configured;
    /// `Some(ZERO)` = already expired).
    pub fn remaining_budget(&self) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_duration_since(Instant::now()))
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
        assert!(ctx.remaining_budget().is_none());
        let now = Instant::now();
        ctx.set_deadline(Some(now + Duration::from_secs(3600)));
        assert!(ctx.remaining_budget().is_some_and(|b| b > Duration::from_secs(3000)));
        assert!(!ctx.deadline_expired_at(now));
        assert!(ctx.deadline_expired_at(now + Duration::from_secs(3601)));
        ctx.set_degraded(true);
        assert!(ctx.degraded());
        ctx.set_deadline(None);
        assert!(!ctx.degraded(), "set_deadline resets degraded for the next request");
    }
}
