//! NeuroPC-like workload: neural features + probabilistic-circuit
//! classification.
//!
//! NeuroPC (paper Table I, \[30\]) pairs a DNN attribute detector with a
//! probabilistic circuit that reasons over attributes to produce
//! interpretable class predictions (AwA2-style zero-shot attribute
//! classification). The analogue: a ground-truth naive-Bayes generative
//! model over (class, attributes); samples pass through an MLP-flavored
//! noisy observation channel; a circuit with the generative structure
//! classifies by exact conditional inference. Flow pruning is applied in
//! the optimized configuration.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use reason_pc::{prune_by_flow, Circuit, CircuitBuilder, Evidence};
use reason_sim::KernelProfile;

use crate::spec::{TaskSpec, Workload};
use crate::{TaskResult, WorkloadModel};

/// The NeuroPC-like model.
#[derive(Debug, Clone, Copy, Default)]
pub struct NeuroPc;

/// One generated classification task.
#[derive(Debug, Clone)]
pub struct ClassifyTask {
    /// The classifier circuit: variable 0 = class, variables 1.. =
    /// binary attributes.
    pub circuit: Circuit,
    /// Observed (noisy) attribute values for a batch of instances.
    pub observations: Vec<Vec<usize>>,
    /// Ground-truth class per instance.
    pub labels: Vec<usize>,
}

impl NeuroPc {
    /// Number of classes.
    pub const CLASSES: usize = 4;

    /// Generates a task.
    fn generate(&self, spec: &TaskSpec) -> ClassifyTask {
        let mut rng = StdRng::seed_from_u64(spec.seed.wrapping_mul(0xBADC_0FFE_E0DD_F00D));
        let attributes = 6 + 2 * spec.scale.factor();
        let batch = 12;
        // Ground-truth class-conditional attribute probabilities, kept
        // away from 0.5 so classes are separable (AwA2 accuracy ≈ 87%).
        // Each class mixes a dominant and a rare attribute *profile*: the
        // rare-profile sum edges carry little flow and are what adaptive
        // pruning removes (paper Table IV: 43% memory reduction on AwA2).
        let profiles: Vec<[Vec<f64>; 2]> = (0..Self::CLASSES)
            .map(|_| {
                let dominant: Vec<f64> = (0..attributes)
                    .map(|_| {
                        if rng.gen_bool(0.5) {
                            rng.gen_range(0.75..0.95)
                        } else {
                            rng.gen_range(0.05..0.25)
                        }
                    })
                    .collect();
                // The rare profile perturbs the dominant one.
                let rare: Vec<f64> = dominant
                    .iter()
                    .map(|&p| (p + rng.gen_range(-0.15..0.15)).clamp(0.05, 0.95))
                    .collect();
                [dominant, rare]
            })
            .collect();
        let cond: Vec<Vec<f64>> = profiles.iter().map(|p| p[0].clone()).collect();
        let prior = vec![1.0 / Self::CLASSES as f64; Self::CLASSES];

        // The classifier circuit mirrors the generative model:
        // Σ_c prior_c · [class=c] · Σ_profile w · Π_a Cat(attr_a; ·).
        let mut arities = vec![Self::CLASSES];
        arities.extend(std::iter::repeat_n(2, attributes));
        let mut b = CircuitBuilder::new(arities);
        let mut components = Vec::with_capacity(Self::CLASSES);
        for (c, class_profiles) in profiles.iter().enumerate() {
            let alts: Vec<_> = class_profiles
                .iter()
                .map(|probs| {
                    let kids: Vec<_> = probs
                        .iter()
                        .enumerate()
                        .map(|(a, &p)| b.categorical(1 + a, &[1.0 - p, p]))
                        .collect();
                    b.product(&kids)
                })
                .collect();
            let mix = b.sum(&alts, &[0.9, 0.1]);
            let ind = b.indicator(0, c);
            components.push(b.product(&[ind, mix]));
        }
        let root = b.sum(&components, &prior);
        let circuit = b.build(root).expect("naive Bayes circuit is valid");

        // Sample labeled instances and push them through a noisy
        // "feature extractor" (attribute flips at 8%).
        let mut observations = Vec::with_capacity(batch);
        let mut labels = Vec::with_capacity(batch);
        for _ in 0..batch {
            let class = rng.gen_range(0..Self::CLASSES);
            let attrs: Vec<usize> = cond[class]
                .iter()
                .map(|&p| {
                    let truth = rng.gen_bool(p);
                    let observed = if rng.gen_bool(0.08) { !truth } else { truth };
                    usize::from(observed)
                })
                .collect();
            observations.push(attrs);
            labels.push(class);
        }
        ClassifyTask { circuit, observations, labels }
    }

    fn classify(circuit: &Circuit, attrs: &[usize]) -> usize {
        let mut ev = Evidence::empty(circuit.num_vars());
        for (a, &v) in attrs.iter().enumerate() {
            ev.set(1 + a, v);
        }
        let posterior = circuit.marginal(&ev, 0);
        posterior
            .iter()
            .enumerate()
            .fold((0, f64::NEG_INFINITY), |acc, (c, &p)| if p > acc.1 { (c, p) } else { acc })
            .0
    }
}

impl WorkloadModel for NeuroPc {
    fn workload(&self) -> Workload {
        Workload::NeuroPc
    }

    fn run_task(&self, spec: &TaskSpec, optimized: bool) -> TaskResult {
        let task = self.generate(spec);
        let (circuit, bytes) = if optimized {
            // Calibration: the observed attribute batch itself, completed
            // with MPE class assignments.
            let data: Vec<Vec<usize>> = task
                .observations
                .iter()
                .map(|attrs| {
                    let mut row = vec![Self::classify(&task.circuit, attrs)];
                    row.extend(attrs.iter().copied());
                    row
                })
                .collect();
            let report = prune_by_flow(&task.circuit, &data, 0.15);
            (report.circuit, report.bytes_after)
        } else {
            let bytes = task.circuit.footprint_bytes();
            (task.circuit.clone(), bytes)
        };
        let correct_count = task
            .observations
            .iter()
            .zip(&task.labels)
            .filter(|(attrs, &label)| Self::classify(&circuit, attrs) == label)
            .count();
        let accuracy = correct_count as f64 / task.labels.len() as f64;
        TaskResult { correct: accuracy >= 0.75, score: accuracy, kernel_bytes: bytes }
    }

    fn kernel_profiles(&self, spec: &TaskSpec) -> Vec<KernelProfile> {
        let f = spec.scale.factor();
        vec![KernelProfile::pc_marginal(80_000 * f)]
    }

    fn neural_tokens(&self, spec: &TaskSpec) -> (u64, u64) {
        // DNN, not LLM: small fixed encode cost.
        (64 * spec.scale.factor() as u64, 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Dataset, Scale};

    fn spec(seed: u64) -> TaskSpec {
        TaskSpec::new(Dataset::AwA2, Scale::Small, seed)
    }

    #[test]
    fn classification_accuracy_is_high() {
        let specs = TaskSpec::batch(Dataset::AwA2, Scale::Small, 15);
        let acc = crate::batch_score(&NeuroPc, &specs, false);
        // Paper Table IV: 87%.
        assert!(acc > 0.75, "accuracy {acc}");
    }

    #[test]
    fn pruning_roughly_preserves_accuracy() {
        let specs = TaskSpec::batch(Dataset::AwA2, Scale::Small, 15);
        let base = crate::batch_score(&NeuroPc, &specs, false);
        let opt = crate::batch_score(&NeuroPc, &specs, true);
        assert!(opt >= base - 0.1, "pruning destroyed accuracy: {base} -> {opt}");
    }

    #[test]
    fn pruning_reduces_bytes() {
        let base = NeuroPc.run_task(&spec(2), false);
        let opt = NeuroPc.run_task(&spec(2), true);
        assert!(opt.kernel_bytes < base.kernel_bytes);
    }

    #[test]
    fn circuit_is_a_normalized_distribution() {
        let task = NeuroPc.generate(&spec(0));
        let p = task.circuit.probability(&Evidence::empty(task.circuit.num_vars()));
        assert!((p - 1.0).abs() < 1e-9);
    }
}
