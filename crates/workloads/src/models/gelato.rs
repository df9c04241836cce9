//! GeLaTo-like workload: keyword-constrained generation with HMMs.
//!
//! GeLaTo (paper Table I) distills an LM into an HMM and intersects it
//! with lexical constraints to guarantee constraint satisfaction. The
//! analogue: a seeded HMM "language model", a keyword that must appear in
//! the output (CommonGen-style), the product-space decode of
//! [`reason_hmm::constrain`], and a BLEU-proxy score from per-token
//! likelihood. Transition pruning (paper Sec. IV-B) is applied in the
//! optimized configuration and its fluency cost measured.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use reason_hmm::{prune_transitions, sample::sample_sequence, Dfa, Hmm};
use reason_sim::KernelProfile;

use crate::spec::{Dataset, TaskSpec, Workload};
use crate::{TaskResult, WorkloadModel};

/// The GeLaTo-like model.
#[derive(Debug, Clone, Copy, Default)]
pub struct GeLaTo;

/// One generated constrained-generation task.
#[derive(Debug, Clone)]
pub struct GenerationTask {
    /// The language-model proxy.
    pub hmm: Hmm,
    /// The keyword that must appear contiguously in the output.
    pub keyword: Vec<usize>,
    /// Output length.
    pub length: usize,
}

impl GeLaTo {
    /// Generates a task.
    fn generate(&self, spec: &TaskSpec) -> GenerationTask {
        let mut rng = StdRng::seed_from_u64(spec.seed.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let f = spec.scale.factor();
        let states = 4 + 2 * f;
        let symbols = 8 + 2 * f;
        let hmm = Hmm::random(states, symbols, rng.gen());
        let kw_len = match spec.dataset {
            Dataset::News => 3,
            _ => 2,
        };
        let keyword: Vec<usize> = (0..kw_len).map(|_| rng.gen_range(0..symbols)).collect();
        GenerationTask { hmm, keyword, length: 8 + 4 * f }
    }

    fn fluency_score(hmm: &Hmm, seq: &[usize]) -> f64 {
        // BLEU proxy: geometric-mean token likelihood, scaled to ~CommonGen
        // BLEU magnitudes (paper Table IV: 30.3).
        let ll = hmm.log_likelihood(seq);
        let per_token = (ll / seq.len() as f64).exp();
        100.0 * per_token
    }
}

impl WorkloadModel for GeLaTo {
    fn workload(&self) -> Workload {
        Workload::GeLaTo
    }

    fn run_task(&self, spec: &TaskSpec, optimized: bool) -> TaskResult {
        let task = self.generate(spec);
        let (hmm, bytes) = if optimized {
            let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xDECAF);
            let data: Vec<Vec<usize>> = (0..20)
                .map(|_| sample_sequence(&task.hmm, task.length, &mut rng).observations)
                .collect();
            let report = prune_transitions(&task.hmm, &data, 0.012);
            (report.hmm, report.bytes_after)
        } else {
            let bytes = task.hmm.footprint_bytes();
            (task.hmm.clone(), bytes)
        };
        let dfa = Dfa::contains_keyword(&task.keyword, hmm.num_symbols());
        let result = hmm.constrained_decode(&dfa, task.length);
        let satisfied = !result.best_sequence.is_empty() && dfa.accepts(&result.best_sequence);
        let score = if satisfied {
            // Fluency measured under the *unpruned* model: pruning may
            // only cost fluency, never fake it.
            Self::fluency_score(&task.hmm, &result.best_sequence)
        } else {
            0.0
        };
        TaskResult { correct: satisfied, score, kernel_bytes: bytes }
    }

    fn kernel_profiles(&self, spec: &TaskSpec) -> Vec<KernelProfile> {
        let f = spec.scale.factor();
        vec![KernelProfile::bayesian_update(512 * f, 1), KernelProfile::pc_marginal(40_000 * f)]
    }

    fn neural_tokens(&self, spec: &TaskSpec) -> (u64, u64) {
        let f = spec.scale.factor() as u64;
        (96 * f, 24 * f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Scale;

    fn spec(seed: u64) -> TaskSpec {
        TaskSpec::new(Dataset::CommonGen, Scale::Small, seed)
    }

    #[test]
    fn constraints_are_always_satisfied() {
        // GeLaTo's selling point (paper Table I): guaranteed constraint
        // satisfaction.
        for seed in 0..10 {
            let r = GeLaTo.run_task(&spec(seed), false);
            assert!(r.correct, "seed {seed}: constraint violated");
        }
    }

    #[test]
    fn pruned_model_still_satisfies_constraints() {
        for seed in 0..10 {
            let r = GeLaTo.run_task(&spec(seed), true);
            assert!(r.correct, "seed {seed}");
        }
    }

    #[test]
    fn pruning_costs_little_fluency() {
        let specs = TaskSpec::batch(Dataset::CommonGen, Scale::Small, 20);
        let base = crate::batch_score(&GeLaTo, &specs, false);
        let opt = crate::batch_score(&GeLaTo, &specs, true);
        // Paper Table IV: BLEU 30.3 → 30.2.
        assert!(opt >= base * 0.9, "fluency collapsed: {base} -> {opt}");
    }

    #[test]
    fn pruning_reduces_model_bytes() {
        let base = GeLaTo.run_task(&spec(0), false);
        let opt = GeLaTo.run_task(&spec(0), true);
        assert!(opt.kernel_bytes <= base.kernel_bytes);
    }

    #[test]
    fn scores_have_bleu_like_magnitudes() {
        let specs = TaskSpec::batch(Dataset::CommonGen, Scale::Small, 10);
        let score = crate::batch_score(&GeLaTo, &specs, false);
        assert!(score > 1.0 && score < 100.0, "score {score}");
    }
}
