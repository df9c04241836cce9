//! Anytime confidence bounds and convergence tracking.
//!
//! Every estimator in this crate produces a stream of i.i.d. sample
//! values whose expectation is the quantity of interest (a probability:
//! a weighted model count, a marginal, a conditional). [`RunningMean`]
//! accumulates the stream with Welford's algorithm; at configurable
//! checkpoints the estimator records a [`BoundsPoint`] — the running
//! estimate bracketed by a `z·SE` envelope plus a `1/n` cushion that
//! keeps zero-variance prefixes (e.g. no satisfying sample seen yet)
//! from collapsing to a false-certainty interval. The resulting
//! [`ConvergenceTrace`] is the *anytime* contract: stop at any
//! checkpoint and the current bracket is a valid confidence interval
//! for the target.
//!
//! Bounds are clamped to `[0, 1]` — everything estimated in this crate
//! is a probability.

/// Streaming mean/variance accumulator (Welford).
#[derive(Debug, Clone, Default)]
pub struct RunningMean {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningMean {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs one sample value.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of samples absorbed.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The running sample mean (0 before any sample).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Standard error of the mean, `sqrt(var / n)`.
    pub fn std_error(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.variance() / self.n as f64).sqrt()
        }
    }
}

/// One checkpoint of an anytime estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundsPoint {
    /// Samples consumed when the checkpoint was taken.
    pub samples: u64,
    /// The running estimate.
    pub estimate: f64,
    /// Lower confidence bound (clamped to 0).
    pub lower: f64,
    /// Upper confidence bound (clamped to 1).
    pub upper: f64,
}

/// The checkpoint history of one estimator run.
#[derive(Debug, Clone, Default)]
pub struct ConvergenceTrace {
    points: Vec<BoundsPoint>,
}

impl ConvergenceTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a checkpoint from the accumulator state: estimate
    /// `mean ± (z·SE + 1/n)`, everything clamped to `[0, 1]`.
    ///
    /// The estimate itself is clamped too: importance-sampling sample
    /// values are capped likelihood ratios in `[0, 1/α]`, so a running
    /// mean can transiently exceed 1 on high-mass formulas — without
    /// the clamp such a checkpoint would invert the bracket
    /// (`upper < estimate`) and break the anytime contract.
    pub fn record(&mut self, stats: &RunningMean, z: f64) {
        let n = stats.count().max(1) as f64;
        let envelope = z * stats.std_error() + 1.0 / n;
        let estimate = stats.mean().clamp(0.0, 1.0);
        self.points.push(BoundsPoint {
            samples: stats.count(),
            estimate,
            lower: (stats.mean() - envelope).clamp(0.0, estimate),
            upper: (stats.mean() + envelope).clamp(estimate, 1.0),
        });
    }

    /// All checkpoints, in sample order.
    pub fn points(&self) -> &[BoundsPoint] {
        &self.points
    }

    /// The latest checkpoint, if any.
    pub fn last(&self) -> Option<&BoundsPoint> {
        self.points.last()
    }
}

/// The final product of an anytime estimator: a point estimate, its
/// confidence bracket, and the full convergence history.
#[derive(Debug, Clone)]
pub struct AnytimeEstimate {
    /// The point estimate (sample mean at the final checkpoint).
    pub estimate: f64,
    /// Final lower confidence bound.
    pub lower: f64,
    /// Final upper confidence bound.
    pub upper: f64,
    /// Total samples consumed.
    pub samples: u64,
    /// Checkpoint history.
    pub trace: ConvergenceTrace,
}

impl AnytimeEstimate {
    /// Builds the estimate from a finished accumulator and its trace
    /// (the final checkpoint must already be recorded).
    pub fn from_trace(trace: ConvergenceTrace) -> Self {
        let last = *trace.last().expect("trace must contain at least one checkpoint");
        AnytimeEstimate {
            estimate: last.estimate,
            lower: last.lower,
            upper: last.upper,
            samples: last.samples,
            trace,
        }
    }

    /// `true` if the final bracket contains `truth`.
    pub fn contains(&self, truth: f64) -> bool {
        (self.lower..=self.upper).contains(&truth)
    }

    /// Relative error against a known exact value (absolute error when
    /// the exact value is 0).
    pub fn rel_error(&self, exact: f64) -> f64 {
        if exact == 0.0 {
            self.estimate.abs()
        } else {
            (self.estimate - exact).abs() / exact
        }
    }
}

/// The default confidence multiplier: a 4-sigma envelope, wide enough
/// that seeded test runs keep the exact answer inside the bracket.
pub const DEFAULT_Z: f64 = 4.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let xs = [0.2, 0.8, 0.5, 0.1, 0.9, 0.4];
        let mut rm = RunningMean::new();
        for &x in &xs {
            rm.push(x);
        }
        let mean: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        let var: f64 =
            xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((rm.mean() - mean).abs() < 1e-12);
        assert!((rm.variance() - var).abs() < 1e-12);
        assert_eq!(rm.count(), 6);
    }

    #[test]
    fn degenerate_accumulators_are_safe() {
        let rm = RunningMean::new();
        assert_eq!(rm.mean(), 0.0);
        assert_eq!(rm.variance(), 0.0);
        assert_eq!(rm.std_error(), 0.0);
        let mut one = RunningMean::new();
        one.push(0.7);
        assert_eq!(one.variance(), 0.0);
    }

    #[test]
    fn bounds_bracket_the_mean_and_stay_in_unit_interval() {
        let mut rm = RunningMean::new();
        let mut trace = ConvergenceTrace::new();
        for i in 0..100 {
            rm.push(if i % 3 == 0 { 1.0 } else { 0.0 });
            if (i + 1) % 25 == 0 {
                trace.record(&rm, DEFAULT_Z);
            }
        }
        for p in trace.points() {
            assert!(p.lower <= p.estimate && p.estimate <= p.upper);
            assert!((0.0..=1.0).contains(&p.lower) && (0.0..=1.0).contains(&p.upper));
        }
        let est = AnytimeEstimate::from_trace(trace);
        assert_eq!(est.samples, 100);
        assert!(est.contains(1.0 / 3.0));
    }

    #[test]
    fn over_unit_means_keep_the_bracket_ordered() {
        // Capped importance weights can push a running mean past 1; the
        // recorded checkpoint must stay a valid [0,1] bracket around a
        // clamped estimate.
        let mut rm = RunningMean::new();
        for _ in 0..20 {
            rm.push(1.3);
        }
        let mut trace = ConvergenceTrace::new();
        trace.record(&rm, DEFAULT_Z);
        let p = trace.last().unwrap();
        assert_eq!(p.estimate, 1.0);
        assert!(p.lower <= p.estimate && p.estimate <= p.upper);
        assert!((0.0..=1.0).contains(&p.lower) && (0.0..=1.0).contains(&p.upper));
    }

    #[test]
    fn zero_variance_prefix_keeps_honest_upper_bound() {
        // 50 straight zeros: SE is 0, but the 1/n cushion keeps the
        // upper bound open.
        let mut rm = RunningMean::new();
        for _ in 0..50 {
            rm.push(0.0);
        }
        let mut trace = ConvergenceTrace::new();
        trace.record(&rm, DEFAULT_Z);
        let p = trace.last().unwrap();
        assert_eq!(p.estimate, 0.0);
        assert!(p.upper >= 0.02, "upper bound must not collapse: {}", p.upper);
    }

    #[test]
    fn convergence_detection_walks_the_trace() {
        let mut rm = RunningMean::new();
        let mut trace = ConvergenceTrace::new();
        for i in 0..4000 {
            rm.push(if i % 2 == 0 { 1.0 } else { 0.0 });
            if (i + 1) % 500 == 0 {
                trace.record(&rm, DEFAULT_Z);
            }
        }
        // Every checkpoint is narrower than the one before, and the last
        // is within 20 % of its estimate.
        let widths: Vec<f64> = trace.points().iter().map(|p| p.upper - p.lower).collect();
        assert!(widths.windows(2).all(|w| w[1] < w[0]), "{widths:?}");
        assert!(widths[widths.len() - 1] <= 0.2 * trace.last().unwrap().estimate);
    }

    #[test]
    fn rel_error_handles_zero_exact() {
        let mut rm = RunningMean::new();
        rm.push(0.5);
        rm.push(0.5);
        let mut trace = ConvergenceTrace::new();
        trace.record(&rm, DEFAULT_Z);
        let est = AnytimeEstimate::from_trace(trace);
        assert!((est.rel_error(0.5) - 0.0).abs() < 1e-12);
        assert_eq!(est.rel_error(0.0), 0.5);
    }
}
