//! Importance sampling with learned proposals.
//!
//! The variance of direct Monte-Carlo WMC ([`crate::montecarlo`]) is
//! `Z(1-Z)/n` — hopeless when the satisfying mass `Z` is small. The
//! importance sampler draws from a *proposal* `q` (a fully-factored
//! product of per-variable Bernoullis, the mean-field family A-NeSI's
//! prediction networks also output) and averages the likelihood ratio
//! `1[φ(x)] · p(x)/q(x)`, which is unbiased for `Z` under any proposal
//! with full support.
//!
//! Proposals can be *learned* two ways:
//!
//! 1. [`adapt_mixture`] — self-normalized cross-entropy adaptation:
//!    iterate sampling and refit `q` to the weighted satisfying
//!    samples. No oracle needed; this is the default inside
//!    [`crate::ApproxEngine`].
//! 2. `Proposal::from_circuit` — exact posterior marginals read off a
//!    compiled circuit: the best mean-field proposal the exact engine
//!    can teach, used to validate the adaptive path.

use rand::prelude::*;
use reason_pc::WmcWeights;
use reason_sat::Cnf;

use crate::bounds::AnytimeEstimate;
use crate::montecarlo::{run_estimator, SampleConfig};

/// Default clamp keeping proposal probabilities away from 0/1 so
/// likelihood ratios stay bounded and every assignment keeps support.
pub const PROPOSAL_CLAMP: f64 = 0.02;

/// A fully-factored proposal distribution: independent per-variable
/// Bernoulli probabilities `q[v] = q(X_v = 1)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Proposal {
    q: Vec<f64>,
}

impl Proposal {
    /// A proposal from explicit marginals, clamped to
    /// `[PROPOSAL_CLAMP, 1 - PROPOSAL_CLAMP]`.
    pub fn from_marginals(marginals: Vec<f64>) -> Self {
        assert!(marginals.iter().all(|p| p.is_finite()), "marginals must be finite");
        Proposal {
            q: marginals
                .into_iter()
                .map(|p| p.clamp(PROPOSAL_CLAMP, 1.0 - PROPOSAL_CLAMP))
                .collect(),
        }
    }

    /// The mean-field posterior: exact per-variable marginals
    /// `p(X_v = 1 | φ)` computed on a compiled circuit — the proposal
    /// the exact engine teaches.
    #[cfg(test)]
    fn from_circuit(circuit: &reason_pc::Circuit) -> Self {
        let empty = reason_pc::Evidence::empty(circuit.num_vars());
        Proposal::from_marginals(
            (0..circuit.num_vars()).map(|v| circuit.marginal(&empty, v)[1]).collect(),
        )
    }

    /// Number of variables.
    fn len(&self) -> usize {
        self.q.len()
    }

    /// `q(X_v = 1)`.
    fn prob(&self, v: usize) -> f64 {
        self.q[v]
    }

    /// Draws one assignment into `model`.
    fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, model: &mut [bool]) {
        assert_eq!(model.len(), self.q.len(), "model arity mismatch");
        for (v, slot) in model.iter_mut().enumerate() {
            *slot = rng.gen_bool(self.q[v]);
        }
    }
}

/// A mixture of mean-field components: `q(x) = Σ_k π_k q_k(x)`.
///
/// A single mean-field proposal cannot represent a multi-modal
/// posterior (e.g. a formula satisfied by two clusters of assignments
/// with opposite polarities); the mixture family can place one
/// component per mode. [`adapt_mixture`] learns both the components and
/// the mixing weights by cross-entropy EM.
#[derive(Debug, Clone, PartialEq)]
pub struct MixtureProposal {
    pi: Vec<f64>,
    comps: Vec<Proposal>,
}

impl MixtureProposal {
    /// A one-component mixture (degenerates to the plain proposal).
    pub fn single(proposal: Proposal) -> Self {
        MixtureProposal { pi: vec![1.0], comps: vec![proposal] }
    }

    /// A mixture from explicit components and unnormalized mixing
    /// weights.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree, no component is given, component
    /// arities differ, or the mixing mass is not positive.
    fn new(pi: Vec<f64>, comps: Vec<Proposal>) -> Self {
        assert!(!comps.is_empty(), "mixture needs at least one component");
        assert_eq!(pi.len(), comps.len(), "mixing weight arity mismatch");
        assert!(comps.iter().all(|c| c.len() == comps[0].len()), "component arity mismatch");
        let total: f64 = pi.iter().sum();
        assert!(total > 0.0 && pi.iter().all(|p| *p >= 0.0), "mixing weights must be positive");
        MixtureProposal { pi: pi.into_iter().map(|p| p / total).collect(), comps }
    }

    /// Number of variables covered.
    fn len(&self) -> usize {
        self.comps[0].len()
    }

    /// Number of components.
    fn num_components(&self) -> usize {
        self.comps.len()
    }

    /// Draws one assignment: pick a component by mixing weight, then
    /// sample its Bernoullis.
    fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, model: &mut [bool]) {
        let k = rand::dist::sample_categorical(rng, &self.pi);
        self.comps[k].sample_into(rng, model);
    }

    /// Log-density of an assignment under the mixture.
    fn log_pdf(&self, x: &[bool]) -> f64 {
        let mut acc = f64::NEG_INFINITY;
        for (pi, comp) in self.pi.iter().zip(&self.comps) {
            acc = log_add_exp(acc, pi.ln() + log_pdf(x, |v| comp.prob(v)));
        }
        acc
    }
}

/// Cross-entropy adaptation schedule for [`adapt_mixture`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptConfig {
    /// Adaptation rounds.
    pub rounds: usize,
    /// Samples drawn per round.
    pub batch: u64,
    /// Mixture components learned by [`adapt_mixture`] (1 = plain
    /// mean-field cross-entropy).
    pub components: usize,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig { rounds: 10, batch: 1024, components: 8 }
    }
}

/// How far model-seeded components lean toward their model: component
/// marginals start at `blend·model + (1-blend)·prior`.
const MODEL_SEED_BLEND: f64 = 0.75;

/// Step size of every cross-entropy round toward the refit marginals,
/// in `(0, 1]`.
const CE_STEP: f64 = 0.7;

/// Enumerates up to `k` distinct models of `cnf` by iterated CDCL
/// solving with blocking clauses — the symbolic engine teaching the
/// sampler where the satisfying mass lives.
fn enumerate_models(cnf: &Cnf, k: usize) -> Vec<Vec<bool>> {
    let mut working = cnf.clone();
    let mut models = Vec::with_capacity(k);
    for _ in 0..k {
        let mut solver = reason_sat::CdclSolver::new(&working);
        match solver.solve() {
            reason_sat::Solution::Sat(model) => {
                // Block this exact model before asking for the next one.
                working.add_clause(
                    model
                        .iter()
                        .enumerate()
                        .map(|(v, &b)| {
                            let var = reason_sat::Var::new(v);
                            if b {
                                var.neg()
                            } else {
                                var.pos()
                            }
                        })
                        .collect(),
                );
                models.push(model);
            }
            reason_sat::Solution::Unsat => break,
        }
    }
    models
}

/// Learns a [`MixtureProposal`] by cross-entropy EM: each round
/// (`ce_em_round`) draws a batch from the *defensive mixture*
/// `α·p + (1-α)·q` (so a collapsed proposal can always rediscover
/// satisfying modes through the prior component), self-normalizes the
/// satisfying samples by their importance weight `p/mix`, and moves
/// every component toward the weighted mean of the samples it is
/// responsible for. Rounds that see no satisfying sample leave the
/// mixture unchanged.
///
/// Components are anchored at distinct CDCL-enumerated models
/// (blocking-clause enumeration; without this, tiny satisfying mass can
/// hide every mode from sampling); components beyond the formula's
/// model count start as jittered copies of the prior, since identical
/// components would receive identical responsibilities forever.
pub fn adapt_mixture<R: Rng + ?Sized>(
    cnf: &Cnf,
    weights: &WmcWeights,
    cfg: &AdaptConfig,
    rng: &mut R,
) -> MixtureProposal {
    assert!(cfg.rounds > 0 && cfg.batch > 0, "adaptation schedule must be positive");
    assert!(cfg.components > 0, "need at least one mixture component");
    let n = cnf.num_vars();
    let k = cfg.components;

    let seeds = enumerate_models(cnf, k);
    let comps: Vec<Proposal> = (0..k)
        .map(|c| {
            Proposal::from_marginals(
                (0..n)
                    .map(|v| match seeds.get(c) {
                        Some(model) => {
                            let target = f64::from(u8::from(model[v]));
                            MODEL_SEED_BLEND * target + (1.0 - MODEL_SEED_BLEND) * weights.prob(v)
                        }
                        None => weights.prob(v) + rng.gen_range(-0.15..0.15),
                    })
                    .collect(),
            )
        })
        .collect();
    let mut mix = MixtureProposal::new(vec![1.0; k], comps);
    for _ in 0..cfg.rounds {
        mix = ce_em_round(cnf, weights, mix, cfg.batch, CE_STEP, rng);
    }
    mix
}

/// One cross-entropy EM round: draw `batch` samples from the defensive
/// mixture, importance-weight the satisfying ones by `p/mix`
/// ([`defensive_weight`]), soft-assign each to the mixture components
/// (E-step: responsibilities `∝ π_k q_k(x)`), and refit every
/// component's marginals and mixing weight from its weighted samples
/// (M-step, smoothed by `step`). Returns the mixture unchanged when no
/// satisfying sample appears.
fn ce_em_round<R: Rng + ?Sized>(
    cnf: &Cnf,
    weights: &WmcWeights,
    mix: MixtureProposal,
    batch: u64,
    step: f64,
    rng: &mut R,
) -> MixtureProposal {
    let n = cnf.num_vars();
    let k = mix.num_components();
    let mut model = vec![false; n];
    let mut sat_samples: Vec<(Vec<bool>, f64)> = Vec::new();
    for _ in 0..batch {
        defensive_sample_into(rng, weights, &mix, &mut model);
        if cnf.eval(&model) {
            let w = defensive_weight(&model, weights, &mix);
            sat_samples.push((model.clone(), w));
        }
    }
    if sat_samples.is_empty() {
        return mix;
    }

    // E-step: responsibilities r_ik ∝ π_k q_k(x_i).
    // M-step accumulators: per-component mass and weighted x means.
    let mut comp_mass = vec![0.0f64; k];
    let mut comp_mean = vec![vec![0.0f64; n]; k];
    for (x, w) in &sat_samples {
        let log_rs: Vec<f64> =
            (0..k).map(|c| mix.pi[c].ln() + log_pdf(x, |v| mix.comps[c].prob(v))).collect();
        let m = log_rs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let rs: Vec<f64> = log_rs.iter().map(|lr| (lr - m).exp()).collect();
        let total: f64 = rs.iter().sum();
        for c in 0..k {
            let r = w * rs[c] / total;
            comp_mass[c] += r;
            for (v, &b) in x.iter().enumerate() {
                if b {
                    comp_mean[c][v] += r;
                }
            }
        }
    }

    let round_mass: f64 = comp_mass.iter().sum();
    let new_comps: Vec<Proposal> = (0..k)
        .map(|c| {
            if comp_mass[c] <= 0.0 {
                return mix.comps[c].clone();
            }
            Proposal::from_marginals(
                (0..n)
                    .map(|v| {
                        let refit = comp_mean[c][v] / comp_mass[c];
                        (1.0 - step) * mix.comps[c].prob(v) + step * refit
                    })
                    .collect(),
            )
        })
        .collect();
    // Smoothed mixing weights; the floor keeps every component alive
    // so later rounds can recapture a lost mode.
    let new_pi: Vec<f64> = (0..k)
        .map(|c| {
            let refit = comp_mass[c] / round_mass;
            ((1.0 - step) * mix.pi[c] + step * refit).max(0.02)
        })
        .collect();
    MixtureProposal::new(new_pi, new_comps)
}

/// Defensive-mixture coefficient: the estimation distribution is
/// `α·p + (1-α)·q`, never the raw proposal. Mixing in the prior keeps
/// every likelihood ratio below `1/α`, so a proposal that missed a
/// satisfying mode cannot silently bias the estimate — the prior
/// component still visits the mode, and the empirical variance (hence
/// the anytime envelope) stays honest.
pub const DEFENSIVE_ALPHA: f64 = 0.25;

/// Numerically stable `log(exp(a) + exp(b))`.
fn log_add_exp(a: f64, b: f64) -> f64 {
    let m = a.max(b);
    if m == f64::NEG_INFINITY {
        f64::NEG_INFINITY
    } else {
        m + ((a - m).exp() + (b - m).exp()).ln()
    }
}

/// Log-density of an assignment under independent Bernoulli marginals.
fn log_pdf(x: &[bool], prob: impl Fn(usize) -> f64) -> f64 {
    x.iter().enumerate().map(|(v, &b)| if b { prob(v).ln() } else { (1.0 - prob(v)).ln() }).sum()
}

/// Draws one assignment from the defensive mixture `α·p + (1-α)·q`:
/// the prior stream w.p. [`DEFENSIVE_ALPHA`], the proposal otherwise.
fn defensive_sample_into<R: Rng + ?Sized>(
    rng: &mut R,
    weights: &WmcWeights,
    proposal: &MixtureProposal,
    model: &mut [bool],
) {
    if rng.gen_bool(DEFENSIVE_ALPHA) {
        for (v, slot) in model.iter_mut().enumerate() {
            *slot = rng.gen_bool(weights.prob(v));
        }
    } else {
        proposal.sample_into(rng, model);
    }
}

/// The capped importance weight `p(x) / (α·p(x) + (1-α)·q(x))` of an
/// assignment (at most `1/α`); callers gate on satisfaction.
fn defensive_weight(x: &[bool], weights: &WmcWeights, proposal: &MixtureProposal) -> f64 {
    let lp = log_pdf(x, |v| weights.prob(v));
    let log_mix =
        log_add_exp(DEFENSIVE_ALPHA.ln() + lp, (1.0 - DEFENSIVE_ALPHA).ln() + proposal.log_pdf(x));
    (lp - log_mix).exp()
}

/// Importance-sampling WMC estimate under `proposal`, with anytime
/// bounds: draws from the defensive mixture `α·p + (1-α)·q`
/// ([`DEFENSIVE_ALPHA`], `q` the learned mixture) and averages
/// `1[φ(x)] · p(x) / mix(x)`, which is unbiased for `Z` with likelihood
/// ratios capped at `1/α`.
///
/// With the identity proposal (`q = p`) the mixture collapses to `p`
/// and the estimator degenerates to direct Monte-Carlo.
///
/// ```
/// use reason_approx::{is_wmc_mixture, MixtureProposal, Proposal, SampleConfig};
/// use reason_pc::WmcWeights;
/// use reason_sat::Cnf;
///
/// let cnf = Cnf::from_clauses(2, vec![vec![1, 2]]);
/// let w = WmcWeights::uniform(2);
/// let identity = MixtureProposal::single(Proposal::from_marginals(vec![0.5, 0.5]));
/// let est = is_wmc_mixture(&cnf, &w, &identity, &SampleConfig::default());
/// assert!(est.contains(0.75));
/// ```
pub fn is_wmc_mixture(
    cnf: &Cnf,
    weights: &WmcWeights,
    proposal: &MixtureProposal,
    cfg: &SampleConfig,
) -> AnytimeEstimate {
    assert_eq!(weights.len(), cnf.num_vars(), "weights arity mismatch");
    assert_eq!(proposal.len(), cnf.num_vars(), "proposal arity mismatch");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut model = vec![false; cnf.num_vars()];
    run_estimator(cfg, || {
        defensive_sample_into(&mut rng, weights, proposal, &mut model);
        if cnf.eval(&model) {
            defensive_weight(&model, weights, proposal)
        } else {
            0.0
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use reason_pc::compile_cnf;
    use reason_sat::gen::random_ksat;
    use reason_sat::weighted_count;

    fn variance_of(est: &AnytimeEstimate) -> f64 {
        let p = est.trace.last().unwrap();
        // Reconstruct SE from the recorded envelope: width/2 = z*SE + 1/n.
        let half = (p.upper - p.lower) / 2.0;
        (half - 1.0 / p.samples as f64).max(0.0)
    }

    fn identity(w: &WmcWeights) -> MixtureProposal {
        MixtureProposal::single(Proposal::from_marginals((0..w.len()).map(|v| w.prob(v)).collect()))
    }

    #[test]
    fn identity_proposal_is_unbiased_on_seeded_instances() {
        for seed in 0..5 {
            let cnf = random_ksat(10, 26, 3, 200 + seed);
            let w = WmcWeights::uniform(10);
            let exact = weighted_count(&cnf, &[0.5; 10]);
            let est = is_wmc_mixture(&cnf, &w, &identity(&w), &SampleConfig::seeded(seed));
            assert!(est.contains(exact), "seed {seed}: [{}, {}] vs {exact}", est.lower, est.upper);
        }
    }

    #[test]
    fn circuit_taught_proposal_cuts_variance_on_constrained_instances() {
        // A heavily constrained formula: Z is small, so direct MC wastes
        // most samples. The exact-engine proposal concentrates on the
        // satisfying region and must shrink the confidence envelope.
        let mut clauses = vec![vec![1], vec![2], vec![-1, 3], vec![-2, 4]];
        clauses.push(vec![5, 6]);
        let cnf = Cnf::from_clauses(6, clauses);
        let probs = vec![0.15, 0.2, 0.3, 0.25, 0.4, 0.35];
        let exact = weighted_count(&cnf, &probs);
        let w = WmcWeights::new(probs);
        let circuit = compile_cnf(&cnf, &w).unwrap();

        let cfg = SampleConfig::seeded(3);
        let naive = is_wmc_mixture(&cnf, &w, &identity(&w), &cfg);
        let taught = MixtureProposal::single(Proposal::from_circuit(&circuit));
        let taught = is_wmc_mixture(&cnf, &w, &taught, &cfg);
        assert!(taught.contains(exact));
        assert!(naive.contains(exact));
        assert!(
            variance_of(&taught) < variance_of(&naive) * 0.8,
            "taught envelope {} should beat naive {}",
            variance_of(&taught),
            variance_of(&naive)
        );
        assert!(taught.rel_error(exact) < 0.05);
    }

    #[test]
    fn adapted_mixture_brackets_exact_and_meets_error_budget() {
        // The acceptance-criterion workload: seeded tractable instances,
        // default budgets, learned mixture proposals — bounds must
        // contain the exact WMC and relative error must fall below 5%.
        for seed in 0..5 {
            let cnf = random_ksat(12, 30, 3, 300 + seed);
            let probs: Vec<f64> = (0..12).map(|v| 0.3 + 0.04 * v as f64).collect();
            let exact = weighted_count(&cnf, &probs);
            if exact == 0.0 {
                continue;
            }
            let w = WmcWeights::new(probs);
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let mix = adapt_mixture(&cnf, &w, &AdaptConfig::default(), &mut rng);
            let est = is_wmc_mixture(&cnf, &w, &mix, &SampleConfig::seeded(seed));
            assert!(est.contains(exact), "seed {seed}: [{}, {}] vs {exact}", est.lower, est.upper);
            assert!(
                est.rel_error(exact) < 0.05,
                "seed {seed}: rel error {} at estimate {} vs exact {exact}",
                est.rel_error(exact),
                est.estimate
            );
        }
    }

    #[test]
    fn mean_field_adaptation_still_brackets_exact() {
        // One component: plain mean-field cross-entropy stays unbiased;
        // its error budget is looser than the mixture's on multi-modal
        // posteriors.
        let mean_field = AdaptConfig { components: 1, ..AdaptConfig::default() };
        for seed in 0..5 {
            let cnf = random_ksat(12, 30, 3, 300 + seed);
            let probs: Vec<f64> = (0..12).map(|v| 0.3 + 0.04 * v as f64).collect();
            let exact = weighted_count(&cnf, &probs);
            if exact == 0.0 {
                continue;
            }
            let w = WmcWeights::new(probs);
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let proposal = adapt_mixture(&cnf, &w, &mean_field, &mut rng);
            assert_eq!(proposal.num_components(), 1);
            let est = is_wmc_mixture(&cnf, &w, &proposal, &SampleConfig::seeded(seed));
            assert!(est.contains(exact), "seed {seed}: [{}, {}] vs {exact}", est.lower, est.upper);
        }
    }

    #[test]
    fn mixture_machinery_is_consistent() {
        let w = WmcWeights::new(vec![0.3, 0.7, 0.5]);
        let single = identity(&w);
        assert_eq!(single.num_components(), 1);
        // Single-component mixture pdf equals the component pdf.
        let x = [true, false, true];
        assert!((single.log_pdf(&x) - log_pdf(&x, |v| w.prob(v))).abs() < 1e-9);
        // A two-component mixture's pdf is the blend under normalized
        // mixing weights.
        let mix = MixtureProposal::new(
            vec![1.0, 3.0],
            vec![
                Proposal::from_marginals(vec![0.2, 0.2, 0.2]),
                Proposal::from_marginals(vec![0.6, 0.6, 0.6]),
            ],
        );
        let blend: f64 = 0.25 * (0.2 * 0.8 * 0.2) + 0.75 * (0.6 * 0.4 * 0.6);
        assert!((mix.log_pdf(&x) - blend.ln()).abs() < 1e-12);
    }

    #[test]
    fn adaptation_survives_unsat_formulas() {
        let cnf = Cnf::from_clauses(2, vec![vec![1], vec![-1]]);
        let w = WmcWeights::uniform(2);
        let mut rng = StdRng::seed_from_u64(0);
        // No model to seed from and no satisfying sample ever appears:
        // every round returns the mixture it was given.
        let one_round = AdaptConfig { rounds: 1, ..AdaptConfig::default() };
        let after_one = adapt_mixture(&cnf, &w, &one_round, &mut StdRng::seed_from_u64(0));
        let proposal = adapt_mixture(&cnf, &w, &AdaptConfig::default(), &mut rng);
        assert_eq!(proposal, after_one);
        let est = is_wmc_mixture(&cnf, &w, &proposal, &SampleConfig::default());
        assert_eq!(est.estimate, 0.0);
        assert!(est.upper > 0.0);
    }

    #[test]
    fn log_ratio_is_zero_for_identity_proposal() {
        let w = WmcWeights::new(vec![0.3, 0.6, 0.5]);
        for bits in 0..8u32 {
            let x: Vec<bool> = (0..3).map(|v| bits >> v & 1 == 1).collect();
            assert!(defensive_weight(&x, &w, &identity(&w)).ln().abs() < 1e-12);
        }
    }

    #[test]
    fn proposal_clamps_extreme_marginals() {
        let p = Proposal::from_marginals(vec![0.0, 1.0, 0.5]);
        assert_eq!(p.prob(0), PROPOSAL_CLAMP);
        assert_eq!(p.prob(1), 1.0 - PROPOSAL_CLAMP);
        assert_eq!(p.prob(2), 0.5);
    }
}
