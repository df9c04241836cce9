//! Deterministic failure injection and the fault-tolerance policy knobs.
//!
//! A [`FaultPlan`] is a seeded, immutable table of finite fault windows on
//! the cluster's virtual timeline: shard crashes, slow shards (latency
//! multipliers), transient compile failures, and one-shot cache wipes. The
//! cluster consults the plan at each query's modeled dispatch time, so the
//! same plan replayed over the same workload produces bit-identical
//! outcomes. [`ShardHealth`] is the per-shard circuit breaker (closed →
//! open on a consecutive-failure threshold → half-open probe after a
//! virtual-time cooldown), and [`RetryConfig`] fixes the hedged-retry
//! policy: deterministic exponential backoff with jitter drawn from the
//! seeded RNG shim.

use rand::{rngs::StdRng, Rng, SeedableRng};
use reason_pc::ring_mix;

/// One finite crash window: the shard accepts no dispatches while
/// `start_s <= t < end_s`. Windows are always finite so a query that finds
/// every shard down can deterministically wait out the earliest recovery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashWindow {
    /// Shard index the crash applies to.
    pub shard: usize,
    /// Window start on the virtual timeline, in seconds.
    pub start_s: f64,
    /// Window end (exclusive), in seconds.
    pub end_s: f64,
}

/// A latency-multiplier window: dispatches starting inside it cost
/// `multiplier` times their modeled latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowWindow {
    /// Shard index the slowdown applies to.
    pub shard: usize,
    /// Window start on the virtual timeline, in seconds.
    pub start_s: f64,
    /// Window end (exclusive), in seconds.
    pub end_s: f64,
    /// Latency multiplier (clamped to at least 1.0 when queried).
    pub multiplier: f64,
}

/// A transient compile-failure window: exact dispatches that need a fresh
/// compilation on this shard fail while the window is active. Already-hot
/// artifacts keep serving.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompileFaultWindow {
    /// Shard index the fault applies to.
    pub shard: usize,
    /// Window start on the virtual timeline, in seconds.
    pub start_s: f64,
    /// Window end (exclusive), in seconds.
    pub end_s: f64,
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
    crashes: Vec<CrashWindow>,
    slowdowns: Vec<SlowWindow>,
    compile_faults: Vec<CompileFaultWindow>,
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
        self.crashes.push(CrashWindow { shard, start_s, end_s });
        self
    }

    /// Adds a latency-multiplier window on `shard` over `[start_s, end_s)`.
    #[must_use]
    pub fn slow(mut self, shard: usize, start_s: f64, end_s: f64, multiplier: f64) -> Self {
        assert!(start_s < end_s, "slow window must be non-empty");
        self.slowdowns.push(SlowWindow { shard, start_s, end_s, multiplier });
        self
    }

    /// Adds a transient compile-failure window on `shard` over
    /// `[start_s, end_s)`.
    #[must_use]
    pub fn fail_compiles(mut self, shard: usize, start_s: f64, end_s: f64) -> Self {
        assert!(end_s.is_finite(), "compile-fault windows must be finite");
        assert!(start_s < end_s, "compile-fault window must be non-empty");
        self.compile_faults.push(CompileFaultWindow { shard, start_s, end_s });
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
    pub fn crashed(&self, shard: usize, t_s: f64) -> bool {
        self.crashes.iter().any(|w| w.shard == shard && w.start_s <= t_s && t_s < w.end_s)
    }

    /// The combined latency multiplier active on `shard` at `t_s` (the
    /// product of overlapping windows, never below 1.0).
    #[must_use]
    pub fn slow_multiplier(&self, shard: usize, t_s: f64) -> f64 {
        self.slowdowns
            .iter()
            .filter(|w| w.shard == shard && w.start_s <= t_s && t_s < w.end_s)
            .map(|w| w.multiplier.max(1.0))
            .product::<f64>()
            .max(1.0)
    }

    /// `true` when fresh compilations fail on `shard` at `t_s`.
    #[must_use]
    pub fn compile_faulted(&self, shard: usize, t_s: f64) -> bool {
        self.compile_faults.iter().any(|w| w.shard == shard && w.start_s <= t_s && t_s < w.end_s)
    }

    /// The earliest virtual time at or after `t_s` when `shard` is not
    /// crashed. Returns `t_s` unchanged for a healthy shard; crash windows
    /// are finite, so the walk over overlapping windows always terminates.
    #[must_use]
    pub fn recovery_time(&self, shard: usize, t_s: f64) -> f64 {
        let mut t = t_s;
        loop {
            let blocking = self
                .crashes
                .iter()
                .filter(|w| w.shard == shard && w.start_s <= t && t < w.end_s)
                .map(|w| w.end_s)
                .fold(f64::NEG_INFINITY, f64::max);
            if blocking == f64::NEG_INFINITY {
                return t;
            }
            t = blocking;
        }
    }

    /// The earliest virtual time at or after `t_s` when fresh compiles
    /// succeed again on `shard`.
    #[must_use]
    pub fn compile_recovery_time(&self, shard: usize, t_s: f64) -> f64 {
        let mut t = t_s;
        loop {
            let blocking = self
                .compile_faults
                .iter()
                .filter(|w| w.shard == shard && w.start_s <= t && t < w.end_s)
                .map(|w| w.end_s)
                .fold(f64::NEG_INFINITY, f64::max);
            if blocking == f64::NEG_INFINITY {
                return t;
            }
            t = blocking;
        }
    }

    /// The scheduled cache wipes, in insertion order. The cluster tracks
    /// which have fired; the plan itself stays immutable.
    #[must_use]
    pub fn wipes(&self) -> &[CacheWipe] {
        &self.wipes
    }

    /// `true` when the plan schedules no faults at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.slowdowns.is_empty()
            && self.compile_faults.is_empty()
            && self.wipes.is_empty()
    }
}

/// Circuit-breaker thresholds for one shard's [`ShardHealth`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip a closed breaker open.
    pub failure_threshold: u32,
    /// Virtual seconds an open breaker waits before admitting a half-open
    /// probe.
    pub cooldown_s: f64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self { failure_threshold: 3, cooldown_s: 2e-3 }
    }
}

/// The three circuit-breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every dispatch is admitted.
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
    pub fn label(self) -> &'static str {
        match self {
            Self::Closed => "closed",
            Self::HalfOpen => "half_open",
            Self::Open => "open",
        }
    }

    /// Numeric encoding for the `breaker_state` gauge: 0 closed, 1
    /// half-open, 2 open.
    #[must_use]
    pub fn gauge_value(self) -> f64 {
        match self {
            Self::Closed => 0.0,
            Self::HalfOpen => 1.0,
            Self::Open => 2.0,
        }
    }
}

/// Per-shard circuit breaker driven by the cluster's virtual clock:
/// closed → open after `failure_threshold` consecutive failures → half-open
/// once `cooldown_s` has elapsed → closed again on a successful probe (or
/// straight back to open on a failed one).
#[derive(Debug, Clone)]
pub struct ShardHealth {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at_s: f64,
    transitions: u64,
}

impl ShardHealth {
    /// A fresh, closed breaker.
    #[must_use]
    pub fn new(config: BreakerConfig) -> Self {
        Self {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at_s: 0.0,
            transitions: 0,
        }
    }

    /// Whether the shard may accept a dispatch at virtual time `t_s`. An
    /// open breaker whose cooldown has elapsed flips to half-open here and
    /// admits the probe.
    pub fn admits(&mut self, t_s: f64) -> bool {
        if self.state == BreakerState::Open && t_s >= self.opened_at_s + self.config.cooldown_s {
            self.state = BreakerState::HalfOpen;
            self.transitions += 1;
        }
        self.state != BreakerState::Open
    }

    /// Records a successful dispatch: resets the failure streak and closes
    /// a half-open breaker.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        if self.state != BreakerState::Closed {
            self.state = BreakerState::Closed;
            self.transitions += 1;
        }
    }

    /// Records a failed dispatch at virtual time `t_s`: a half-open probe
    /// failure re-opens immediately; a closed breaker opens once the
    /// consecutive-failure threshold is reached.
    pub fn record_failure(&mut self, t_s: f64) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let trip = match self.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => self.consecutive_failures >= self.config.failure_threshold,
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
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Total state transitions since construction.
    #[must_use]
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Earliest time at or after `t_s` at which the breaker will admit a
    /// probe: `t_s` unless the breaker is open and still cooling down.
    #[must_use]
    pub fn ready_at(&self, t_s: f64) -> f64 {
        match self.state {
            BreakerState::Open => (self.opened_at_s + self.config.cooldown_s).max(t_s),
            BreakerState::Closed | BreakerState::HalfOpen => t_s,
        }
    }
}

/// Hedged-retry policy: bounded attempts with deterministic exponential
/// backoff and jitter drawn from the seeded RNG shim. A retry whose backoff
/// would blow the query's deadline is skipped in favor of immediate ring
/// failover (the hedge).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryConfig {
    /// Dispatch attempts per shard before failing over (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry, in virtual seconds.
    pub base_backoff_s: f64,
    /// Ceiling on a single backoff, in virtual seconds.
    pub max_backoff_s: f64,
    /// Fraction of the backoff randomized away, in `[0, 1]`.
    pub jitter: f64,
    /// Seed for the jitter stream; combined with a per-query salt so every
    /// (query, attempt) pair draws a fixed, reproducible jitter.
    pub seed: u64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff_s: 1e-4,
            max_backoff_s: 1e-2,
            jitter: 0.5,
            seed: 0xBAC0FF,
        }
    }
}

impl RetryConfig {
    /// The backoff before retry number `attempt` (1-based) of the query
    /// salted by `salt`: `base * 2^(attempt-1)` capped at `max_backoff_s`,
    /// minus a jittered fraction drawn deterministically from the seeded
    /// RNG shim.
    #[must_use]
    pub fn backoff_s(&self, attempt: u32, salt: u64) -> f64 {
        let exp = self.base_backoff_s * 2f64.powi(attempt.saturating_sub(1).min(62) as i32);
        let capped = exp.min(self.max_backoff_s);
        let mut rng = StdRng::seed_from_u64(ring_mix(self.seed ^ salt) ^ u64::from(attempt));
        let u: f64 = rng.gen_range(0.0..1.0);
        capped * (1.0 - self.jitter.clamp(0.0, 1.0) * u)
    }
}

/// The full fault-tolerance policy the cluster runs under: breaker
/// thresholds plus retry/backoff parameters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultConfig {
    /// Per-shard circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Hedged-retry and backoff policy.
    pub retry: RetryConfig,
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

impl FaultStats {
    /// `true` iff no fault-layer machinery ever fired — the state an
    /// empty fault plan must leave behind.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        *self == Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_walks_closed_open_half_open_closed() {
        let config = BreakerConfig { failure_threshold: 3, cooldown_s: 1.0 };
        let mut health = ShardHealth::new(config);
        assert_eq!(health.state(), BreakerState::Closed);
        assert!(health.admits(0.0));

        // Two failures keep it closed; the third trips it open.
        health.record_failure(0.1);
        health.record_failure(0.2);
        assert_eq!(health.state(), BreakerState::Closed);
        health.record_failure(0.3);
        assert_eq!(health.state(), BreakerState::Open);
        assert!(!health.admits(0.5), "open breaker refuses before the cooldown");

        // Cooldown elapsed: the next admit is the half-open probe.
        assert!(health.admits(1.4));
        assert_eq!(health.state(), BreakerState::HalfOpen);

        // A failed probe re-opens immediately (no threshold), a later
        // successful probe closes it.
        health.record_failure(1.4);
        assert_eq!(health.state(), BreakerState::Open);
        assert!(health.admits(2.5));
        health.record_success();
        assert_eq!(health.state(), BreakerState::Closed);
        assert_eq!(health.transitions(), 5);
    }

    #[test]
    fn backoff_grows_exponentially_and_is_deterministic() {
        let retry = RetryConfig { jitter: 0.0, ..RetryConfig::default() };
        assert!((retry.backoff_s(1, 7) - 1e-4).abs() < 1e-12);
        assert!((retry.backoff_s(2, 7) - 2e-4).abs() < 1e-12);
        assert!((retry.backoff_s(3, 7) - 4e-4).abs() < 1e-12);
        assert!((retry.backoff_s(30, 7) - retry.max_backoff_s).abs() < 1e-12);

        let jittered = RetryConfig::default();
        let a = jittered.backoff_s(2, 99);
        let b = jittered.backoff_s(2, 99);
        assert!((a - b).abs() < 1e-18, "same (attempt, salt) draws the same jitter");
        assert!(a > 1e-4 && a <= 2e-4, "jitter only shrinks the capped backoff");
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
        assert!(!plan.is_empty() && FaultPlan::new().is_empty());
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
