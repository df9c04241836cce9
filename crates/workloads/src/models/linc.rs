//! LINC-like workload: first-order logical reasoning with a resolution
//! prover.
//!
//! LINC (paper Table I, \[31\]) has an LLM translate natural-language
//! premises into FOL and delegates the reasoning to a symbolic prover.
//! The analogue: synthetic FOLIO/ProofWriter-style rule bases — typed
//! implication rules, facts, and distractors over a small constant domain
//! — with goals that are provable or unprovable by construction. The
//! reasoning engine is the resolution prover of [`reason_fol`]; the
//! LLM translation step contributes a seeded error rate (paper Table IV:
//! FOLIO 92%, ProofWriter 84%).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use reason_fol::{clausify, ground_clauses, parse_formula, prove, Formula, ProofResult};
use reason_sat::Preprocessor;
use reason_sim::KernelProfile;

use crate::spec::{Dataset, TaskSpec, Workload};
use crate::{TaskResult, WorkloadModel};

/// The LINC-like model.
#[derive(Debug, Clone, Copy, Default)]
pub struct Linc;

/// One generated FOL reasoning task.
#[derive(Debug, Clone)]
pub struct FolTask {
    /// Premises (axioms).
    pub axioms: Vec<Formula>,
    /// The conclusion to assess.
    pub goal: Formula,
    /// Ground truth: does the conclusion follow?
    pub entailed: bool,
    /// Did the simulated LLM translate the premises correctly?
    pub translation_ok: bool,
}

impl Linc {
    /// Generates a task: a predicate chain `p0 → p1 → … → pk` over a
    /// constant, universally quantified, with distractor rules about
    /// other predicates.
    fn generate(&self, spec: &TaskSpec) -> FolTask {
        let mut rng = StdRng::seed_from_u64(spec.seed.wrapping_mul(0xFEED_FACE_CAFE_BEEF));
        let chain = 3 + spec.scale.factor();
        let entailed = rng.gen_bool(0.5);
        let broken = if entailed { usize::MAX } else { rng.gen_range(0..chain) };
        let mut axioms = Vec::new();
        axioms.push(parse_formula("p0(alice)").expect("static formula"));
        for i in 0..chain {
            if i == broken {
                continue;
            }
            let rule = format!("forall X. (p{i}(X) -> p{}(X))", i + 1);
            axioms.push(parse_formula(&rule).expect("generated rule parses"));
        }
        // Distractors: rules about unrelated predicates and facts about a
        // second constant.
        for d in 0..2 * spec.scale.factor() {
            let rule = format!("forall X. (q{d}(X) -> q{}(X))", d + 1);
            axioms.push(parse_formula(&rule).expect("generated rule parses"));
        }
        axioms.push(parse_formula("q0(bob)").expect("static formula"));
        let goal = parse_formula(&format!("p{chain}(alice)")).expect("goal parses");

        let translation_rate = match spec.dataset {
            Dataset::Folio => 0.92,
            _ => 0.84,
        };
        FolTask { axioms, goal, entailed, translation_ok: rng.gen_bool(translation_rate) }
    }
}

impl WorkloadModel for Linc {
    fn workload(&self) -> Workload {
        Workload::Linc
    }

    fn run_task(&self, spec: &TaskSpec, optimized: bool) -> TaskResult {
        let task = self.generate(spec);
        let proved = matches!(prove(&task.axioms, &task.goal, 50_000), ProofResult::Proved { .. });
        let reasoning_correct = proved == task.entailed;
        let correct = reasoning_correct && task.translation_ok;

        // Memory metric: the clausified problem, optionally reduced by the
        // grounded preprocessing pipeline (function-free by construction).
        let mut formulas = task.axioms.clone();
        formulas.push(Formula::not(task.goal.clone()));
        let clauses = clausify(&formulas);
        let grounding = ground_clauses(&clauses, &[]).expect("tasks are function-free");
        let kernel_bytes = if optimized {
            Preprocessor::new().run(&grounding.cnf).stats.bytes_after
        } else {
            grounding.cnf.footprint_bytes()
        };
        TaskResult { correct, score: f64::from(u8::from(correct)), kernel_bytes }
    }

    fn kernel_profiles(&self, spec: &TaskSpec) -> Vec<KernelProfile> {
        let f = spec.scale.factor();
        vec![KernelProfile::logic_bcp(25_000 * f), KernelProfile::sparse_matvec(768 * f, 0.08)]
    }

    fn neural_tokens(&self, spec: &TaskSpec) -> (u64, u64) {
        let f = spec.scale.factor() as u64;
        (320 * f, 16 * f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Scale;

    fn spec(seed: u64) -> TaskSpec {
        TaskSpec::new(Dataset::Folio, Scale::Small, seed)
    }

    #[test]
    fn prover_matches_ground_truth() {
        for seed in 0..10 {
            let task = Linc.generate(&spec(seed));
            let proved =
                matches!(prove(&task.axioms, &task.goal, 50_000), ProofResult::Proved { .. });
            assert_eq!(proved, task.entailed, "seed {seed}");
        }
    }

    #[test]
    fn accuracy_reflects_translation_rate() {
        let specs = TaskSpec::batch(Dataset::Folio, Scale::Small, 80);
        let acc = crate::batch_score(&Linc, &specs, false);
        // Paper Table IV: FOLIO 92%.
        assert!((0.8..1.0).contains(&acc), "accuracy {acc}");
    }

    #[test]
    fn preprocessing_reduces_grounded_footprint() {
        let base = Linc.run_task(&spec(4), false);
        let opt = Linc.run_task(&spec(4), true);
        assert!(opt.kernel_bytes < base.kernel_bytes);
        assert_eq!(base.correct, opt.correct, "optimization must not change answers");
    }

    #[test]
    fn deterministic_generation() {
        let a = Linc.generate(&spec(9));
        let b = Linc.generate(&spec(9));
        assert_eq!(a.entailed, b.entailed);
        assert_eq!(a.axioms.len(), b.axioms.len());
    }
}
