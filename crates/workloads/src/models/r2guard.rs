//! R²-Guard-like workload: probabilistic rule circuits for unsafety
//! detection.
//!
//! R²-Guard (paper Table I) fuses LLM category detectors with logical
//! safety rules through probabilistic inference. The analogue here:
//! category variables carry "detector" marginals; safety knowledge is a
//! CNF over categories; the rule set is knowledge-compiled into a
//! deterministic probabilistic circuit ([`reason_pc::compile_cnf`]); the
//! unsafety score is the weighted model count of rule violation. Exact
//! enumeration provides ground truth, so the effect of circuit pruning on
//! detection quality (paper Table IV: AUPRC 0.758 → 0.752) is measured,
//! not assumed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use reason_pc::{compile_cnf, prune_by_flow, sample, Circuit, Evidence, WmcWeights};
use reason_sat::{weighted_count, Clause, Cnf, Lit, Var};
use reason_sim::KernelProfile;

use crate::spec::{TaskSpec, Workload};
use crate::{TaskResult, WorkloadModel};

/// The R²-Guard-like model.
#[derive(Debug, Clone, Copy, Default)]
pub struct R2Guard;

/// One generated guard task.
#[derive(Debug, Clone)]
pub struct GuardTask {
    /// Safety rules over category variables (CNF must hold for safety).
    pub rules: Cnf,
    /// Detector marginals per category.
    pub weights: WmcWeights,
    /// Compiled rule circuit.
    pub circuit: Circuit,
    /// Exact probability that the rules are violated.
    pub exact_violation: f64,
    /// Ground-truth label: unsafe iff violation probability > 0.5.
    pub unsafe_label: bool,
}

impl R2Guard {
    /// Generates a guard task.
    ///
    /// # Panics
    ///
    /// Panics only if the generated rule set is unsatisfiable, which the
    /// construction prevents (every clause contains a positive literal).
    pub fn generate(&self, spec: &TaskSpec) -> GuardTask {
        let mut rng = StdRng::seed_from_u64(spec.seed.wrapping_mul(0xA24B_AED4_963E_E407));
        let categories = 6 + 2 * spec.scale.factor();
        let num_rules = 5 * spec.scale.factor();
        let mut rules = Cnf::new(categories);
        for _ in 0..num_rules {
            // Rules like "category A implies not (B and C)" in clause form;
            // always include one positive literal so the rule set stays
            // satisfiable.
            let width = rng.gen_range(2..=3);
            let mut vars: Vec<usize> = (0..categories).collect();
            for k in 0..width {
                let pick = rng.gen_range(k..categories);
                vars.swap(k, pick);
            }
            let lits: Vec<Lit> = vars[..width]
                .iter()
                .enumerate()
                .map(|(k, &v)| Lit::new(Var::new(v), k != 0 && rng.gen_bool(0.85)))
                .collect();
            rules.add_clause(Clause::new(lits));
        }
        // Detector marginals: skewed toward "benign" with occasional
        // high-risk spikes, mirroring XSTest-style inputs.
        let probs: Vec<f64> = (0..categories)
            .map(|_| {
                if rng.gen_bool(0.3) {
                    rng.gen_range(0.5..0.95)
                } else {
                    rng.gen_range(0.02..0.3)
                }
            })
            .collect();
        let exact_violation = 1.0 - weighted_count(&rules, &probs);
        let weights = WmcWeights::new(probs);
        let circuit = compile_cnf(&rules, &weights).expect("rule sets are satisfiable");
        GuardTask { rules, weights, circuit, exact_violation, unsafe_label: exact_violation > 0.5 }
    }
}

impl WorkloadModel for R2Guard {
    fn workload(&self) -> Workload {
        Workload::R2Guard
    }

    fn run_task(&self, spec: &TaskSpec, optimized: bool) -> TaskResult {
        let task = self.generate(spec);
        let n = task.rules.num_vars();
        let (circuit, bytes) = if optimized {
            // Calibration data for flow pruning comes from the circuit's
            // own distribution (deployment traffic proxy).
            let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5ca1ab1e);
            let data: Vec<Vec<usize>> = (0..40).map(|_| sample(&task.circuit, &mut rng)).collect();
            let report = prune_by_flow(&task.circuit, &data, 0.25);
            let bytes = report.bytes_after;
            (report.circuit, bytes)
        } else {
            let bytes = task.circuit.footprint_bytes();
            (task.circuit.clone(), bytes)
        };
        let p_safe = circuit.probability(&Evidence::empty(n));
        let predicted_unsafe = (1.0 - p_safe) > 0.5;
        let correct = predicted_unsafe == task.unsafe_label;
        TaskResult { correct, score: f64::from(u8::from(correct)), kernel_bytes: bytes }
    }

    fn kernel_profiles(&self, spec: &TaskSpec) -> Vec<KernelProfile> {
        let f = spec.scale.factor();
        vec![KernelProfile::pc_marginal(120_000 * f), KernelProfile::logic_bcp(8_000 * f)]
    }

    fn neural_tokens(&self, spec: &TaskSpec) -> (u64, u64) {
        let f = spec.scale.factor() as u64;
        (256 * f, 8 * f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Dataset, Scale};

    fn spec(seed: u64) -> TaskSpec {
        TaskSpec::new(Dataset::TwinSafety, Scale::Small, seed)
    }

    #[test]
    fn compiled_circuit_matches_exact_wmc() {
        for seed in 0..8 {
            let task = R2Guard.generate(&spec(seed));
            let n = task.rules.num_vars();
            let p = task.circuit.probability(&Evidence::empty(n));
            assert!(
                (p - (1.0 - task.exact_violation)).abs() < 1e-9,
                "seed {seed}: circuit {p} vs exact {}",
                1.0 - task.exact_violation
            );
        }
    }

    /// FNV-1a over the `exact_violation` bits of TwinSafety seeds 0..40,
    /// small scale then large, read while the module still enumerated
    /// models with a private copy of `reason_sat::weighted_count`'s loop.
    const EXACT_VIOLATION_DIGEST: u64 = 0x701b_4f88_4634_6b21;

    #[test]
    fn exact_violation_bits_are_pinned() {
        let fnv = |h: u64, bits: u64| {
            bits.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
        };
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for scale in [Scale::Small, Scale::Large] {
            for seed in 0..40 {
                let spec = TaskSpec::new(Dataset::TwinSafety, scale, seed);
                digest = fnv(digest, R2Guard.generate(&spec).exact_violation.to_bits());
            }
        }
        assert_eq!(digest, EXACT_VIOLATION_DIGEST, "digest {digest:#018x}");
    }

    #[test]
    fn unpruned_detection_is_exact() {
        let specs = TaskSpec::batch(Dataset::TwinSafety, Scale::Small, 30);
        let acc = crate::batch_score(&R2Guard, &specs, false);
        assert_eq!(acc, 1.0, "exact inference must match exact ground truth");
    }

    #[test]
    fn pruned_detection_stays_close_to_exact() {
        let specs = TaskSpec::batch(Dataset::TwinSafety, Scale::Small, 40);
        let acc = crate::batch_score(&R2Guard, &specs, true);
        // Paper Table IV: AUPRC 0.758 → 0.752 (≈1% degradation).
        assert!(acc >= 0.85, "pruned accuracy {acc} collapsed");
    }

    #[test]
    fn pruning_saves_memory() {
        let base = R2Guard.run_task(&spec(1), false);
        let opt = R2Guard.run_task(&spec(1), true);
        assert!(opt.kernel_bytes < base.kernel_bytes);
    }

    #[test]
    fn labels_are_balanced_enough() {
        let mut unsafe_count = 0;
        for seed in 0..40 {
            if R2Guard.generate(&spec(seed)).unsafe_label {
                unsafe_count += 1;
            }
        }
        assert!(unsafe_count > 2, "need some unsafe labels, got {unsafe_count}");
        assert!(unsafe_count < 38, "need some safe labels, got {unsafe_count}");
    }
}
