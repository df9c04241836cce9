//! Injectable time sources.
//!
//! Everything in `reason-telemetry` reads time through the [`Clock`]
//! trait, never through `Instant::now()` directly. Production code
//! injects a [`WallClock`]; modeled sweeps (the `reason-eval trace`
//! replay, the cluster's virtual-time admission loop) inject a
//! [`VirtualClock`] they advance themselves, so every timestamp in a
//! trace is a pure function of the seed and the export is
//! byte-deterministic.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonic time source reporting seconds since an arbitrary epoch.
pub trait Clock: Send + Sync + fmt::Debug {
    /// The current time in seconds. Must be monotone non-decreasing.
    fn now_s(&self) -> f64;
}

/// Real wall-clock time, anchored at construction so early spans start
/// near zero.
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A wall clock whose epoch is "now".
    pub(crate) fn new() -> Self {
        WallClock { epoch: Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

/// A modeled clock that only moves when told to. Stores the current
/// time as `f64` bits in an atomic, so any number of threads can read
/// it while a driver advances it; in the deterministic sweeps a single
/// driver owns all writes.
#[derive(Debug, Default)]
pub struct VirtualClock {
    bits: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock starting at `t = 0`.
    fn new() -> Self {
        VirtualClock { bits: AtomicU64::new(0f64.to_bits()) }
    }

    /// A shareable virtual clock starting at `t = 0`.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Jumps the clock to an absolute time. Never rewinds: setting a
    /// time earlier than the current reading is a no-op, preserving the
    /// [`Clock`] monotonicity contract under out-of-order drivers.
    pub fn set(&self, t_s: f64) {
        let mut cur = self.bits.load(Ordering::Acquire);
        while t_s > f64::from_bits(cur) {
            match self.bits.compare_exchange_weak(
                cur,
                t_s.to_bits(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

impl Clock for VirtualClock {
    fn now_s(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone() {
        let clock = WallClock::new();
        let a = clock.now_s();
        let b = clock.now_s();
        assert!(b >= a);
        assert!(a >= 0.0);
    }

    #[test]
    fn virtual_clock_moves_only_forward() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now_s(), 0.0);
        clock.set(2.5);
        assert_eq!(clock.now_s(), 2.5);
        clock.set(1.0); // rewind attempt: ignored
        assert_eq!(clock.now_s(), 2.5);
    }
}
