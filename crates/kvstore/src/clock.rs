//! Injectable time source for deterministic TTL testing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A monotonic millisecond clock.
pub trait Clock: Send + Sync {
    /// Current time in milliseconds since an arbitrary epoch.
    fn now_ms(&self) -> u64;
}

/// The process's monotonic clock: milliseconds since its first reading.
/// It never steps when the host's wall time is corrected, so an NTP step
/// can neither expire every session at once nor stretch their TTLs.
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now_ms(&self) -> u64 {
        static ORIGIN: OnceLock<Instant> = OnceLock::new();
        ORIGIN.get_or_init(Instant::now).elapsed().as_millis() as u64
    }
}

/// A hand-driven clock for tests: starts at 0 and only moves when told to.
#[derive(Debug, Default, Clone)]
pub struct ManualClock {
    now: Arc<AtomicU64>,
}

impl ManualClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `ms` milliseconds.
    pub fn advance_ms(&self, ms: u64) {
        self.now.fetch_add(ms, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ms(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_monotone_enough() {
        let c = SystemClock;
        let a = c.now_ms();
        let b = c.now_ms();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_moves_only_when_told() {
        let c = ManualClock::new();
        assert_eq!(c.now_ms(), 0);
        c.advance_ms(500);
        assert_eq!(c.now_ms(), 500);
    }

    #[test]
    fn manual_clock_clones_share_time() {
        let c = ManualClock::new();
        let c2 = c.clone();
        c.advance_ms(7);
        assert_eq!(c2.now_ms(), 7);
    }
}
