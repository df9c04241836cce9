//! Deterministic failure injection and the fixed fault-tolerance policy.
//!
//! A [`FaultPlan`] is a seeded, immutable table of finite fault windows on
//! the cluster's virtual timeline: shard crashes, slow shards (latency
//! multipliers), transient compile failures, and one-shot cache wipes. The
//! cluster consults the plan at each query's modeled dispatch time, so the
//! same plan replayed over the same workload produces bit-identical
//! outcomes. [`ShardHealth`] is the per-shard circuit breaker (closed →
//! open on a consecutive-failure threshold → half-open probe after a
//! virtual-time cooldown), and `backoff_s` is the hedged-retry policy:
//! deterministic exponential backoff with jitter drawn from the seeded
//! RNG shim. The policy's thresholds are constants of this module — no
//! caller ever ran with other values; what a caller chooses is the
//! [`FaultPlan`] and the jitter seed.

use rand::{rngs::StdRng, Rng, SeedableRng};
use reason_pc::ring_mix;

/// One fault window on `shard`, active while `start_s <= t < end_s`. Crash
/// and compile-fault windows are always finite, so a query that finds every
/// shard down can deterministically wait out the earliest recovery.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Window {
    shard: usize,
    start_s: f64,
    end_s: f64,
}

impl Window {
    fn covers(&self, shard: usize, t_s: f64) -> bool {
        self.shard == shard && self.start_s <= t_s && t_s < self.end_s
    }
}

/// The earliest time at or after `t_s` that no window covers on `shard`:
/// `t_s` itself when none does; the walk over overlapping windows
/// terminates because every window is finite.
fn clear_of(windows: &[Window], shard: usize, t_s: f64) -> f64 {
    let mut t = t_s;
    while let Some(w) = windows.iter().find(|w| w.covers(shard, t)) {
        t = w.end_s;
    }
    t
}

/// A one-shot cache wipe: at `at_s` the shard's circuit store and live
/// source circuits are dropped, forcing genuine recompiles (through the surviving
/// per-KB persistent component caches) on the next exact queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheWipe {
    /// Shard index whose store is wiped.
    pub shard: usize,
    /// Virtual time of the wipe, in seconds.
    pub at_s: f64,
}

/// A deterministic, immutable schedule of injected faults. Build one with
/// the `crash`/`slow`/`fail_compiles`/`wipe_cache` builders or draw a
/// random-but-reproducible one with [`FaultPlan::seeded`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The shard accepts no dispatches inside these.
    crashes: Vec<Window>,
    /// Dispatches starting inside cost the paired multiplier times their
    /// modeled latency.
    slowdowns: Vec<(Window, f64)>,
    /// Exact dispatches that need a fresh compilation fail inside these;
    /// already-hot artifacts keep serving.
    compile_faults: Vec<Window>,
    wipes: Vec<CacheWipe>,
}

impl FaultPlan {
    /// An empty plan: no faults ever fire, but the retry/breaker machinery
    /// still runs.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a crash window on `shard` over `[start_s, end_s)`.
    #[must_use]
    pub fn crash(mut self, shard: usize, start_s: f64, end_s: f64) -> Self {
        assert!(end_s.is_finite(), "crash windows must be finite so recovery waits terminate");
        assert!(start_s < end_s, "crash window must be non-empty");
        self.crashes.push(Window { shard, start_s, end_s });
        self
    }

    /// Adds a latency-multiplier window on `shard` over `[start_s, end_s)`.
    #[must_use]
    pub fn slow(mut self, shard: usize, start_s: f64, end_s: f64, multiplier: f64) -> Self {
        assert!(start_s < end_s, "slow window must be non-empty");
        self.slowdowns.push((Window { shard, start_s, end_s }, multiplier));
        self
    }

    /// Adds a transient compile-failure window on `shard` over
    /// `[start_s, end_s)`.
    #[must_use]
    pub(crate) fn fail_compiles(mut self, shard: usize, start_s: f64, end_s: f64) -> Self {
        assert!(end_s.is_finite(), "compile-fault windows must be finite");
        assert!(start_s < end_s, "compile-fault window must be non-empty");
        self.compile_faults.push(Window { shard, start_s, end_s });
        self
    }

    /// Schedules a one-shot cache wipe on `shard` at `at_s`.
    #[must_use]
    pub fn wipe_cache(mut self, shard: usize, at_s: f64) -> Self {
        self.wipes.push(CacheWipe { shard, at_s });
        self
    }

    /// Draws a reproducible random plan over `shards` shards and a
    /// `horizon_s`-second timeline: up to two crash windows, one slowdown,
    /// one compile-fault window, and one cache wipe per shard, all finite
    /// and inside the horizon. Same seed, same plan.
    #[must_use]
    pub fn seeded(seed: u64, shards: usize, horizon_s: f64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17_FA17_FA17_FA17);
        let mut plan = Self::new();
        for shard in 0..shards {
            for _ in 0..rng.gen_range(0..3u32) {
                let start = rng.gen_range(0.0..horizon_s * 0.9);
                let len = rng.gen_range(horizon_s * 0.02..horizon_s * 0.3);
                plan = plan.crash(shard, start, (start + len).min(horizon_s));
            }
            if rng.gen_bool(0.5) {
                let start = rng.gen_range(0.0..horizon_s * 0.9);
                let len = rng.gen_range(horizon_s * 0.05..horizon_s * 0.4);
                let mult = rng.gen_range(2.0..16.0);
                plan = plan.slow(shard, start, (start + len).min(horizon_s), mult);
            }
            if rng.gen_bool(0.4) {
                let start = rng.gen_range(0.0..horizon_s * 0.9);
                let len = rng.gen_range(horizon_s * 0.05..horizon_s * 0.3);
                plan = plan.fail_compiles(shard, start, (start + len).min(horizon_s));
            }
            if rng.gen_bool(0.4) {
                plan = plan.wipe_cache(shard, rng.gen_range(0.0..horizon_s));
            }
        }
        plan
    }

    /// `true` when `shard` is inside a crash window at virtual time `t_s`.
    #[must_use]
    pub(crate) fn crashed(&self, shard: usize, t_s: f64) -> bool {
        self.crashes.iter().any(|w| w.covers(shard, t_s))
    }

    /// The combined latency multiplier active on `shard` at `t_s` (the
    /// product of overlapping windows, never below 1.0).
    #[must_use]
    pub(crate) fn slow_multiplier(&self, shard: usize, t_s: f64) -> f64 {
        self.slowdowns
            .iter()
            .filter(|(w, _)| w.covers(shard, t_s))
            .map(|(_, multiplier)| multiplier.max(1.0))
            .product::<f64>()
            .max(1.0)
    }

    /// `true` when fresh compilations fail on `shard` at `t_s`.
    #[must_use]
    pub(crate) fn compile_faulted(&self, shard: usize, t_s: f64) -> bool {
        self.compile_faults.iter().any(|w| w.covers(shard, t_s))
    }

    /// The earliest virtual time at or after `t_s` when `shard` is not
    /// crashed (`t_s` unchanged for a healthy shard).
    #[must_use]
    pub(crate) fn recovery_time(&self, shard: usize, t_s: f64) -> f64 {
        clear_of(&self.crashes, shard, t_s)
    }

    /// The earliest virtual time at or after `t_s` when fresh compiles
    /// succeed again on `shard`.
    #[must_use]
    pub(crate) fn compile_recovery_time(&self, shard: usize, t_s: f64) -> f64 {
        clear_of(&self.compile_faults, shard, t_s)
    }

    /// The scheduled cache wipes, in insertion order. The cluster tracks
    /// which have fired; the plan itself stays immutable.
    #[must_use]
    pub(crate) fn wipes(&self) -> &[CacheWipe] {
        &self.wipes
    }
}

/// Consecutive failures that trip a closed breaker open.
const FAILURE_THRESHOLD: u32 = 3;
/// Virtual seconds an open breaker waits before admitting a half-open
/// probe.
const COOLDOWN_S: f64 = 2e-3;

/// The three circuit-breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Healthy: every dispatch is admitted.
    #[default]
    Closed,
    /// Tripped: dispatches are refused until the cooldown elapses.
    Open,
    /// Probing: one dispatch is admitted; success closes the breaker,
    /// failure re-opens it.
    HalfOpen,
}

impl BreakerState {
    /// Stable label for telemetry (`breaker_state` gauge values 0/1/2 and
    /// `breaker_transitions_total{to=...}` labels).
    #[must_use]
    pub(crate) fn label(self) -> &'static str {
        match self {
            Self::Closed => "closed",
            Self::HalfOpen => "half_open",
            Self::Open => "open",
        }
    }

    /// Numeric encoding for the `breaker_state` gauge: 0 closed, 1
    /// half-open, 2 open.
    #[must_use]
    pub(crate) fn gauge_value(self) -> f64 {
        match self {
            Self::Closed => 0.0,
            Self::HalfOpen => 1.0,
            Self::Open => 2.0,
        }
    }
}

/// Per-shard circuit breaker driven by the cluster's virtual clock:
/// closed → open after 3 consecutive failures → half-open once the 2 ms
/// cooldown has elapsed → closed again on a successful probe (or straight
/// back to open on a failed one). `default()` is a fresh, closed breaker.
#[derive(Debug, Clone, Default)]
pub struct ShardHealth {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at_s: f64,
    transitions: u64,
}

impl ShardHealth {
    /// Whether the shard may accept a dispatch at virtual time `t_s`. An
    /// open breaker whose cooldown has elapsed flips to half-open here and
    /// admits the probe.
    pub(crate) fn admits(&mut self, t_s: f64) -> bool {
        if self.state == BreakerState::Open && t_s >= self.opened_at_s + COOLDOWN_S {
            self.state = BreakerState::HalfOpen;
            self.transitions += 1;
        }
        self.state != BreakerState::Open
    }

    /// Records a successful dispatch: resets the failure streak and closes
    /// a half-open breaker.
    pub(crate) fn record_success(&mut self) {
        self.consecutive_failures = 0;
        if self.state != BreakerState::Closed {
            self.state = BreakerState::Closed;
            self.transitions += 1;
        }
    }

    /// Records a failed dispatch at virtual time `t_s`: a half-open probe
    /// failure re-opens immediately; a closed breaker opens once the
    /// consecutive-failure threshold is reached.
    pub(crate) fn record_failure(&mut self, t_s: f64) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let trip = match self.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => self.consecutive_failures >= FAILURE_THRESHOLD,
            BreakerState::Open => false,
        };
        if trip {
            self.state = BreakerState::Open;
            self.opened_at_s = t_s;
            self.transitions += 1;
        }
    }

    /// Current breaker state (without advancing the cooldown).
    #[must_use]
    pub(crate) fn state(&self) -> BreakerState {
        self.state
    }

    /// Total state transitions since construction.
    #[must_use]
    #[cfg(test)]
    fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Earliest time at or after `t_s` at which the breaker will admit a
    /// probe: `t_s` unless the breaker is open and still cooling down.
    #[must_use]
    pub(crate) fn ready_at(&self, t_s: f64) -> f64 {
        match self.state {
            BreakerState::Open => (self.opened_at_s + COOLDOWN_S).max(t_s),
            BreakerState::Closed | BreakerState::HalfOpen => t_s,
        }
    }
}

/// Dispatch attempts per shard before failing over.
pub(crate) const MAX_ATTEMPTS: u32 = 3;
/// Backoff before the first retry, in virtual seconds.
const BASE_BACKOFF_S: f64 = 1e-4;
/// Ceiling on a single backoff, in virtual seconds.
const MAX_BACKOFF_S: f64 = 1e-2;
/// Fraction of the backoff randomized away.
const JITTER: f64 = 0.5;

/// The hedged-retry backoff before retry number `attempt` (1-based) of the
/// query salted by `salt`: `BASE_BACKOFF_S * 2^(attempt-1)` capped at
/// `MAX_BACKOFF_S`, minus a jittered fraction drawn deterministically from
/// the seeded RNG shim, so every (seed, query, attempt) triple draws a
/// fixed, reproducible jitter. A retry whose backoff would blow the
/// query's deadline is skipped in favor of immediate ring failover (the
/// hedge).
pub(crate) fn backoff_s(seed: u64, attempt: u32, salt: u64) -> f64 {
    let exp = BASE_BACKOFF_S * 2f64.powi(attempt.saturating_sub(1).min(62) as i32);
    let capped = exp.min(MAX_BACKOFF_S);
    let mut rng = StdRng::seed_from_u64(ring_mix(seed ^ salt) ^ u64::from(attempt));
    let u: f64 = rng.gen_range(0.0..1.0);
    capped * (1.0 - JITTER * u)
}

/// Counters accumulated by the cluster's fault domain over its lifetime —
/// the numbers behind the `fault_*` / `retry_*` telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Dispatch attempts that found the target shard crashed.
    pub crashes_hit: u64,
    /// Admitted dispatches that ran under a slow-shard multiplier.
    pub slowdowns_hit: u64,
    /// Exact dispatches that hit a transient compile fault.
    pub compile_faults_hit: u64,
    /// One-shot cache wipes applied.
    pub cache_wipes: u64,
    /// Backoff retries taken (same shard, later virtual time).
    pub retries: u64,
    /// Ring failovers to a surviving shard.
    pub failovers: u64,
    /// Queries that stepped down the degrade ladder because of a fault.
    pub degraded_under_failure: u64,
    /// Times a breaker refused a dispatch while open.
    pub breaker_rejections: u64,
    /// Queries that found every shard crashed and waited for the earliest
    /// recovery.
    pub waited_for_recovery: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_walks_closed_open_half_open_closed() {
        let mut health = ShardHealth::default();
        assert_eq!(health.state(), BreakerState::Closed);
        assert!(health.admits(0.0));

        // Two failures keep it closed; the third trips it open.
        health.record_failure(0.1);
        health.record_failure(0.2);
        assert_eq!(health.state(), BreakerState::Closed);
        health.record_failure(0.3);
        assert_eq!(health.state(), BreakerState::Open);
        assert!(!health.admits(0.3 + COOLDOWN_S / 2.0), "open breaker refuses before the cooldown");
        assert_eq!(health.ready_at(0.3), 0.3 + COOLDOWN_S);

        // Cooldown elapsed: the next admit is the half-open probe.
        assert!(health.admits(0.4));
        assert_eq!(health.state(), BreakerState::HalfOpen);

        // A failed probe re-opens immediately (no threshold), a later
        // successful probe closes it.
        health.record_failure(0.4);
        assert_eq!(health.state(), BreakerState::Open);
        assert!(health.admits(0.5));
        health.record_success();
        assert_eq!(health.state(), BreakerState::Closed);
        assert_eq!(health.transitions(), 5);
    }

    #[test]
    fn backoff_grows_exponentially_and_is_deterministic() {
        // Jitter only shrinks the capped exponential, by at most half.
        for (attempt, cap) in [(1, 1e-4), (2, 2e-4), (3, 4e-4), (30, MAX_BACKOFF_S)] {
            let b = backoff_s(0xBAC0FF, attempt, 7);
            assert!(b > cap * (1.0 - JITTER) && b <= cap, "attempt {attempt}: {b}");
        }
        let a = backoff_s(0xBAC0FF, 2, 99);
        assert_eq!(a, backoff_s(0xBAC0FF, 2, 99), "same (seed, attempt, salt), same jitter");
        assert_ne!(a, backoff_s(0xBAC0FE, 2, 99), "the seed moves the jitter stream");
    }

    #[test]
    fn fault_plan_windows_answer_point_queries() {
        let plan = FaultPlan::new()
            .crash(0, 1.0, 2.0)
            .crash(0, 1.8, 2.5)
            .slow(1, 0.0, 1.0, 4.0)
            .slow(1, 0.5, 1.5, 2.0)
            .fail_compiles(0, 3.0, 4.0)
            .wipe_cache(1, 2.0);

        assert!(!plan.crashed(0, 0.5) && plan.crashed(0, 1.5) && !plan.crashed(1, 1.5));
        assert!((plan.slow_multiplier(1, 0.75) - 8.0).abs() < 1e-12);
        assert!((plan.slow_multiplier(1, 1.2) - 2.0).abs() < 1e-12);
        assert!((plan.slow_multiplier(0, 0.75) - 1.0).abs() < 1e-12);
        assert!(plan.compile_faulted(0, 3.5) && !plan.compile_faulted(0, 4.5));
        // Overlapping crash windows chain: recovery walks to the far end.
        assert!((plan.recovery_time(0, 1.5) - 2.5).abs() < 1e-12);
        assert!((plan.recovery_time(0, 0.5) - 0.5).abs() < 1e-12);
        assert!((plan.compile_recovery_time(0, 3.2) - 4.0).abs() < 1e-12);
        assert_eq!(plan.wipes().len(), 1);
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = FaultPlan::seeded(42, 3, 1.0);
        let b = FaultPlan::seeded(42, 3, 1.0);
        assert_eq!(a, b);
        let c = FaultPlan::seeded(43, 3, 1.0);
        assert_ne!(a, c, "different seeds draw different plans");
    }
}
