//! The seeded Monte-Carlo estimator: direct sampling for weighted model
//! counts.
//!
//! This is the baseline estimator the importance sampler
//! ([`crate::importance`]) is measured against: unbiased, trivially
//! correct, and exactly as slow as the variance of the indicator
//! demands. Both walk the shared anytime-bounds machinery of
//! [`crate::bounds`], so a run can be stopped at any checkpoint with a
//! valid confidence bracket.

use rand::prelude::*;
use reason_pc::WmcWeights;
use reason_sat::Cnf;

use crate::bounds::{AnytimeEstimate, ConvergenceTrace, RunningMean, DEFAULT_Z};

/// Sampling budget and determinism knobs shared by the estimators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleConfig {
    /// Total samples to draw.
    pub samples: u64,
    /// Checkpoint interval for the convergence trace.
    pub checkpoint: u64,
    /// RNG seed; equal seeds reproduce estimates bit-for-bit.
    pub seed: u64,
}

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig { samples: 16384, checkpoint: 512, seed: 0 }
    }
}

impl SampleConfig {
    /// The default budget with an explicit seed.
    #[cfg(test)]
    pub(crate) fn seeded(seed: u64) -> Self {
        SampleConfig { seed, ..SampleConfig::default() }
    }
}

/// Runs a generic indicator/weight stream through the anytime-bounds
/// machinery: `draw` produces one sample value per call.
pub(crate) fn run_estimator<F: FnMut() -> f64>(cfg: &SampleConfig, mut draw: F) -> AnytimeEstimate {
    assert!(cfg.samples > 0, "sample budget must be positive");
    let checkpoint = cfg.checkpoint.clamp(1, cfg.samples);
    let mut stats = RunningMean::new();
    let mut trace = ConvergenceTrace::new();
    for i in 0..cfg.samples {
        stats.push(draw());
        if (i + 1) % checkpoint == 0 {
            trace.record(&stats, DEFAULT_Z);
        }
    }
    if !cfg.samples.is_multiple_of(checkpoint) {
        trace.record(&stats, DEFAULT_Z);
    }
    AnytimeEstimate::from_trace(trace)
}

/// Estimates the weighted model count `Z = Pr_p[φ]` by direct sampling:
/// draw assignments from the weight distribution itself and average the
/// satisfaction indicator. Unbiased; variance `Z(1-Z)/n`.
///
/// ```
/// use reason_approx::{mc_wmc, SampleConfig};
/// use reason_pc::WmcWeights;
/// use reason_sat::Cnf;
///
/// // x0 | x1 under uniform weights: Z = 0.75.
/// let cnf = Cnf::from_clauses(2, vec![vec![1, 2]]);
/// let est = mc_wmc(&cnf, &WmcWeights::uniform(2), &SampleConfig::default());
/// assert!(est.contains(0.75));
/// assert!((est.estimate - 0.75).abs() < 0.05);
/// ```
pub fn mc_wmc(cnf: &Cnf, weights: &WmcWeights, cfg: &SampleConfig) -> AnytimeEstimate {
    assert_eq!(weights.len(), cnf.num_vars(), "weights arity mismatch");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut model = vec![false; cnf.num_vars()];
    run_estimator(cfg, || {
        for (v, slot) in model.iter_mut().enumerate() {
            *slot = rng.gen_bool(weights.prob(v));
        }
        f64::from(u8::from(cnf.eval(&model)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use reason_sat::gen::random_ksat;
    use reason_sat::weighted_count;

    #[test]
    fn mc_wmc_is_deterministic_per_seed() {
        let cnf = random_ksat(10, 26, 3, 5);
        let w = WmcWeights::uniform(10);
        let a = mc_wmc(&cnf, &w, &SampleConfig::seeded(9));
        let b = mc_wmc(&cnf, &w, &SampleConfig::seeded(9));
        assert_eq!(a.estimate, b.estimate);
        assert_eq!(a.samples, b.samples);
        let c = mc_wmc(&cnf, &w, &SampleConfig::seeded(10));
        assert_ne!(a.estimate, c.estimate, "different seeds should differ");
    }

    #[test]
    fn mc_wmc_brackets_the_exact_count_on_seeded_instances() {
        for seed in 0..6 {
            let cnf = random_ksat(10, 24, 3, 100 + seed);
            let probs: Vec<f64> = (0..10).map(|v| 0.3 + 0.05 * v as f64).collect();
            let exact = weighted_count(&cnf, &probs);
            let w = WmcWeights::new(probs);
            let est = mc_wmc(&cnf, &w, &SampleConfig::seeded(seed));
            assert!(
                est.contains(exact),
                "seed {seed}: [{}, {}] misses exact {exact}",
                est.lower,
                est.upper
            );
        }
    }

    #[test]
    fn mc_wmc_handles_unsat_without_false_certainty() {
        let cnf = Cnf::from_clauses(2, vec![vec![1], vec![-1]]);
        let est = mc_wmc(&cnf, &WmcWeights::uniform(2), &SampleConfig::default());
        assert_eq!(est.estimate, 0.0);
        assert!(est.contains(0.0));
        assert!(est.upper > 0.0, "upper bound must stay open");
    }

    #[test]
    fn trace_tightens_with_more_samples() {
        let cnf = random_ksat(8, 20, 3, 77);
        let est = mc_wmc(&cnf, &WmcWeights::uniform(8), &SampleConfig::default());
        let pts = est.trace.points();
        assert!(pts.len() >= 10);
        let first = pts.first().unwrap();
        let last = pts.last().unwrap();
        assert!(last.upper - last.lower < first.upper - first.lower);
    }

    #[test]
    fn checkpoint_count_matches_budget() {
        let cfg = SampleConfig { samples: 1000, checkpoint: 300, seed: 0 };
        let est = run_estimator(&cfg, || 1.0);
        // 3 full checkpoints + 1 remainder checkpoint at n = 1000.
        assert_eq!(est.trace.points().len(), 4);
        assert_eq!(est.samples, 1000);
    }
}
