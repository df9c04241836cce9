//! `reason-approx` — neural-guided approximate inference with anytime
//! bounds.
//!
//! The REASON paper accelerates *exact* probabilistic-logical kernels
//! (WMC over compiled circuits, CDCL search); its related work flags
//! the complementary direction this crate reproduces: trading exactness
//! for scale. **A-NeSI** (van Krieken et al., PAPERS.md) anchors the
//! design: approximate weighted model counting by sampling, plus a
//! *prediction network* trained on exact-engine labels that amortizes
//! repeated queries.
//!
//! The crate sits strictly *between* the exact substrates: everything
//! here is validated against `reason_pc::compile_cnf` (exact WMC) and
//! `reason_sat::weighted_count` (enumeration) on tractable instances,
//! then scales past them on instances where exact compilation blows up.
//!
//! # Layout
//!
//! * [`bounds`] — anytime confidence brackets and convergence traces;
//!   every estimator reports through them.
//! * [`montecarlo`] — seeded direct sampling: WMC by assignment
//!   sampling, circuit marginals by forward/ancestral sampling.
//! * [`importance`] — defensive importance sampling with learned
//!   proposals: mean-field or mixture-of-mean-fields, adapted by
//!   cross-entropy EM or read off the exact engine's marginals.
//! * [`prediction`] — the A-NeSI-style prediction network, trained on
//!   exact-engine queries and frozen into a `reason_neural` MLP.
//!
//! [`ApproxEngine`] bundles the estimators behind one seeded
//! configuration; `reason_system::BatchExecutor` runs it as a symbolic
//! lane, and `reason-eval approx` sweeps it against the exact engine.
//!
//! # Example
//!
//! ```
//! use reason_approx::{ApproxConfig, ApproxEngine};
//! use reason_pc::{compile_cnf, Evidence, WmcWeights};
//! use reason_sat::gen::random_ksat;
//!
//! let cnf = random_ksat(12, 34, 3, 7);
//! let weights = WmcWeights::uniform(12);
//!
//! // Exact weighted model count via knowledge compilation...
//! let circuit = compile_cnf(&cnf, &weights).unwrap();
//! let exact = circuit.probability(&Evidence::empty(12));
//!
//! // ...and the anytime approximation: the bracket contains the exact
//! // answer and the estimate lands within a few percent.
//! let est = ApproxEngine::new(ApproxConfig::default()).wmc(&cnf, &weights);
//! assert!(est.lower <= exact && exact <= est.upper);
//! assert!(est.rel_error(exact) < 0.05);
//! ```

pub mod bounds;
pub mod importance;
pub mod montecarlo;
pub mod prediction;

pub use bounds::{AnytimeEstimate, BoundsPoint, ConvergenceTrace, RunningMean, DEFAULT_Z};
pub use importance::{
    adapt_mixture, is_wmc_mixture, AdaptConfig, MixtureProposal, Proposal, DEFENSIVE_ALPHA,
    PROPOSAL_CLAMP,
};
pub use montecarlo::{mc_wmc, SampleConfig};
pub use prediction::{PredictConfig, PredictionNet};

use rand::prelude::*;
use reason_pc::WmcWeights;
use reason_sat::Cnf;

/// Which estimator an [`ApproxEngine`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Direct Monte-Carlo sampling from the weight distribution.
    MonteCarlo,
    /// Importance sampling with a cross-entropy-adapted proposal.
    Importance,
}

impl Method {
    /// Display name for reports.
    #[cfg(test)]
    fn name(self) -> &'static str {
        match self {
            Method::MonteCarlo => "monte-carlo",
            Method::Importance => "importance",
        }
    }
}

/// Configuration of an [`ApproxEngine`]: estimator choice, sampling
/// budget, adaptation schedule, and the seed that makes every run
/// reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxConfig {
    /// The estimator.
    pub method: Method,
    /// Sampling budget and checkpointing.
    pub sampling: SampleConfig,
    /// Proposal adaptation schedule (importance method only).
    pub adapt: AdaptConfig,
}

impl Default for ApproxConfig {
    fn default() -> Self {
        ApproxConfig {
            method: Method::Importance,
            sampling: SampleConfig::default(),
            adapt: AdaptConfig::default(),
        }
    }
}

impl ApproxConfig {
    /// The default configuration with an explicit seed.
    #[cfg(test)]
    fn seeded(seed: u64) -> Self {
        ApproxConfig { sampling: SampleConfig::seeded(seed), ..ApproxConfig::default() }
    }
}

/// The approximate-inference engine: one configuration, one `wmc` call
/// per query, deterministic per seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxEngine {
    config: ApproxConfig,
}

impl ApproxEngine {
    /// An engine with the given configuration.
    pub fn new(config: ApproxConfig) -> Self {
        ApproxEngine { config }
    }

    /// Estimates the weighted model count of `cnf` under `weights` with
    /// anytime bounds. The importance method first learns a mixture
    /// proposal by cross-entropy EM (seeded from the sampling seed),
    /// then estimates under the defensive mixture; the Monte-Carlo
    /// method samples the weights directly.
    pub fn wmc(&self, cnf: &Cnf, weights: &WmcWeights) -> AnytimeEstimate {
        match self.config.method {
            Method::MonteCarlo => mc_wmc(cnf, weights, &self.config.sampling),
            Method::Importance => {
                // Adaptation draws from its own stream so the estimation
                // stream stays aligned with `SampleConfig::seed`.
                let mut rng = StdRng::seed_from_u64(self.config.sampling.seed ^ 0x5EED_ADA9);
                let mix = adapt_mixture(cnf, weights, &self.config.adapt, &mut rng);
                is_wmc_mixture(cnf, weights, &mix, &self.config.sampling)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reason_sat::gen::random_ksat;
    use reason_sat::weighted_count;

    #[test]
    fn both_methods_bracket_exact_on_tractable_seeds() {
        for seed in 0..4 {
            let cnf = random_ksat(11, 30, 3, 40 + seed);
            let probs: Vec<f64> = (0..11).map(|v| 0.3 + 0.04 * v as f64).collect();
            let exact = weighted_count(&cnf, &probs);
            let w = WmcWeights::new(probs);
            for method in [Method::MonteCarlo, Method::Importance] {
                let cfg = ApproxConfig { method, ..ApproxConfig::seeded(seed) };
                let est = ApproxEngine::new(cfg).wmc(&cnf, &w);
                assert!(
                    est.contains(exact),
                    "{} seed {seed}: [{}, {}] vs {exact}",
                    method.name(),
                    est.lower,
                    est.upper
                );
            }
        }
    }

    #[test]
    fn engine_is_deterministic_per_seed() {
        let cnf = random_ksat(10, 28, 3, 3);
        let w = WmcWeights::uniform(10);
        let engine = ApproxEngine::new(ApproxConfig::seeded(11));
        let a = engine.wmc(&cnf, &w);
        let b = engine.wmc(&cnf, &w);
        assert_eq!(a.estimate, b.estimate);
        assert_eq!(a.lower, b.lower);
        assert_eq!(a.upper, b.upper);
    }

    #[test]
    fn method_names_are_stable() {
        assert_eq!(Method::MonteCarlo.name(), "monte-carlo");
        assert_eq!(Method::Importance.name(), "importance");
    }
}
