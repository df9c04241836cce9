//! Ctrl-G-like workload: interactive text infilling under constraints.
//!
//! Ctrl-G (paper Table I, \[23\]) performs text editing with guaranteed
//! logical constraints over an HMM proxy of the LM. The analogue: the
//! output must *begin with a given prefix* (the text being continued) and
//! *contain a keyword* (the edit instruction). Both constraints compose
//! as a product DFA, and decoding runs on the HMM×DFA product space —
//! the paper's dominant probabilistic kernel for this workload.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use reason_hmm::{prune_transitions, sample::sample_sequence, Dfa, Hmm};
use reason_sim::KernelProfile;

use crate::spec::{TaskSpec, Workload};
use crate::{TaskResult, WorkloadModel};

/// The Ctrl-G-like model.
#[derive(Debug, Clone, Copy, Default)]
pub struct CtrlG;

/// One generated infilling task.
#[derive(Debug, Clone)]
pub struct InfillTask {
    /// The language-model proxy.
    pub hmm: Hmm,
    /// Required output prefix (the user's existing text).
    pub prefix: Vec<usize>,
    /// Required keyword anywhere in the output.
    pub keyword: Vec<usize>,
    /// Total output length.
    pub length: usize,
}

/// Builds the DFA accepting sequences that start with `prefix` AND contain
/// `keyword` — the product of a prefix acceptor and a KMP keyword
/// automaton.
pub fn prefix_and_keyword_dfa(prefix: &[usize], keyword: &[usize], num_symbols: usize) -> Dfa {
    let kw = Dfa::contains_keyword(keyword, num_symbols);
    // Prefix acceptor: states 0..=prefix.len() counting matched symbols,
    // plus a dead state; accepting once the full prefix has been read.
    let p = prefix.len();
    let dead_p = p + 1;
    // Product state = prefix_state * kw_states + kw_state.
    let kq = kw.num_states();
    let total = (p + 2) * kq;
    let mut transitions = vec![vec![0usize; num_symbols]; total];
    let mut accepting = vec![false; total];
    for ps in 0..=p + 1 {
        for ks in 0..kq {
            let s = ps * kq + ks;
            for sym in 0..num_symbols {
                let np = if ps < p {
                    if prefix[ps] == sym {
                        ps + 1
                    } else {
                        dead_p
                    }
                } else {
                    ps // p = matched (absorbing), dead_p = dead (absorbing)
                };
                let nk = kw.step(ks, sym);
                transitions[s][sym] = np * kq + nk;
            }
            accepting[s] = ps == p && kw.is_accepting(ks);
        }
    }
    // Start state: (prefix progress 0, keyword automaton start 0) = index 0.
    Dfa::new(0, transitions, accepting)
}

impl CtrlG {
    /// Generates a task.
    fn generate(&self, spec: &TaskSpec) -> InfillTask {
        let mut rng =
            StdRng::seed_from_u64(spec.seed.wrapping_mul(0xC0FF_EE00_DEAD_BEEF).wrapping_add(7));
        let f = spec.scale.factor();
        let states = 4 + f;
        let symbols = 6 + 2 * f;
        let hmm = Hmm::random(states, symbols, rng.gen());
        let prefix: Vec<usize> = (0..2).map(|_| rng.gen_range(0..symbols)).collect();
        let keyword: Vec<usize> = (0..2).map(|_| rng.gen_range(0..symbols)).collect();
        InfillTask { hmm, prefix, keyword, length: 8 + 3 * f }
    }
}

impl WorkloadModel for CtrlG {
    fn workload(&self) -> Workload {
        Workload::CtrlG
    }

    fn run_task(&self, spec: &TaskSpec, optimized: bool) -> TaskResult {
        let task = self.generate(spec);
        let (hmm, bytes) = if optimized {
            let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xF00D);
            let data: Vec<Vec<usize>> = (0..20)
                .map(|_| sample_sequence(&task.hmm, task.length, &mut rng).observations)
                .collect();
            let report = prune_transitions(&task.hmm, &data, 0.012);
            (report.hmm, report.bytes_after)
        } else {
            let bytes = task.hmm.footprint_bytes();
            (task.hmm.clone(), bytes)
        };
        let dfa = prefix_and_keyword_dfa(&task.prefix, &task.keyword, hmm.num_symbols());
        let result = hmm.constrained_decode(&dfa, task.length);
        let ok = !result.best_sequence.is_empty()
            && result.best_sequence.starts_with(&task.prefix)
            && dfa.accepts(&result.best_sequence);
        // Success rate is the paper's CoAuthor metric (Table IV: 87%).
        TaskResult { correct: ok, score: f64::from(u8::from(ok)), kernel_bytes: bytes }
    }

    fn kernel_profiles(&self, spec: &TaskSpec) -> Vec<KernelProfile> {
        let f = spec.scale.factor();
        vec![KernelProfile::bayesian_update(768 * f, 1), KernelProfile::pc_marginal(60_000 * f)]
    }

    fn neural_tokens(&self, spec: &TaskSpec) -> (u64, u64) {
        let f = spec.scale.factor() as u64;
        (128 * f, 24 * f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Dataset, Scale};

    fn spec(seed: u64) -> TaskSpec {
        TaskSpec::new(Dataset::CoAuthor, Scale::Small, seed)
    }

    #[test]
    fn product_dfa_semantics() {
        let dfa = prefix_and_keyword_dfa(&[1, 2], &[0, 0], 4);
        assert!(dfa.accepts(&[1, 2, 0, 0, 3]));
        assert!(dfa.accepts(&[1, 2, 3, 0, 0]));
        assert!(!dfa.accepts(&[2, 1, 0, 0]), "wrong prefix");
        assert!(!dfa.accepts(&[1, 2, 3, 0, 1]), "keyword missing");
        // Keyword overlapping the prefix counts.
        let dfa = prefix_and_keyword_dfa(&[0, 0], &[0, 0], 4);
        assert!(dfa.accepts(&[0, 0, 1]));
    }

    #[test]
    fn decoded_sequences_honor_both_constraints() {
        for seed in 0..10 {
            let r = CtrlG.run_task(&spec(seed), false);
            assert!(r.correct, "seed {seed}");
        }
    }

    #[test]
    fn pruned_model_keeps_high_success_rate() {
        let specs = TaskSpec::batch(Dataset::CoAuthor, Scale::Small, 25);
        let rate = crate::batch_score(&CtrlG, &specs, true);
        // Paper Table IV: success 87% → 86%.
        assert!(rate >= 0.8, "success rate {rate}");
    }

    #[test]
    fn deterministic_tasks() {
        let a = CtrlG.generate(&spec(5));
        let b = CtrlG.generate(&spec(5));
        assert_eq!(a.prefix, b.prefix);
        assert_eq!(a.keyword, b.keyword);
    }
}
