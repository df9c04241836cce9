//! Posterior-usage transition pruning (paper Sec. IV-B for HMMs).
//!
//! The forward-backward algorithm yields expected transition usage
//! `Σ_t ξ_t(i,j)` over a dataset. Transitions whose expected usage falls
//! below a threshold contribute negligibly to the joint likelihood
//! `p(z_{1:T}, x_{1:T})` and are removed (set to zero probability), with
//! surviving rows renormalized. This sparsifies the unrolled DAG that
//! REASON maps to hardware.
//!
//! Usage is accumulated in the linear domain by the same scaled
//! forward-backward pass behind [`Hmm::posteriors`]: the model's tables
//! are exponentiated once per call, one scratch serves every sequence,
//! and `ξ` is added into an `s × s` table as it is produced — no `exp`
//! per entry and no per-sequence `ξ` tables. A sequence costs about
//! `3·T·s²` multiply-adds. The usage shares differ from a log-space
//! computation in the last bits only, which moves no decision unless a
//! share sits within rounding of the threshold: on every case
//! `tests/hmm_golden.rs` pins, `removed`, `remaining`, `bytes_after` and
//! the pruned `log_trans` (the input row renormalized in log space) are
//! the same bits as the log-space pass gave. `usage_removed` may differ
//! in its last digits.

use crate::infer::{LinearTables, ScaledPass};
use crate::{learn::is_normalized, log_sum_exp, Hmm};

/// Report of a transition-pruning pass.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionPruneReport {
    /// The pruned model.
    pub hmm: Hmm,
    /// Transitions removed.
    pub removed: usize,
    /// Active transitions remaining.
    pub remaining: usize,
    /// Expected-usage mass removed, as a fraction of total usage — the
    /// analogue of the circuit-flow bound.
    pub usage_removed: f64,
    /// Parameter footprint before pruning, in bytes.
    pub bytes_before: usize,
    /// Parameter footprint after pruning, in bytes.
    pub bytes_after: usize,
}

impl TransitionPruneReport {
    /// Fraction of the parameter footprint removed, in `[0, 1]`.
    pub fn memory_reduction(&self) -> f64 {
        if self.bytes_before == 0 {
            0.0
        } else {
            1.0 - self.bytes_after as f64 / self.bytes_before as f64
        }
    }
}

/// Prunes transitions whose expected usage share (over `sequences`) is
/// below `threshold` (a fraction of total transition usage).
///
/// Each row keeps its most-used transition so the chain can always
/// progress; surviving entries are renormalized.
///
/// A sequence shorter than two symbols has no transition, and one the
/// model cannot emit (zero likelihood) has no posterior: neither
/// contributes usage.
///
/// # Panics
///
/// Panics if `sequences` is empty or `threshold` is negative.
pub fn prune_transitions(
    hmm: &Hmm,
    sequences: &[Vec<usize>],
    threshold: f64,
) -> TransitionPruneReport {
    assert!(!sequences.is_empty(), "pruning requires data");
    assert!(threshold >= 0.0, "threshold must be non-negative");
    let s = hmm.num_states();
    let bytes_before = hmm.footprint_bytes();

    // Expected transition usage.
    let tables = LinearTables::new(hmm);
    let mut pass = ScaledPass::default();
    let mut usage = vec![vec![0.0f64; s]; s];
    for obs in sequences {
        if obs.len() < 2 || !pass.run(&tables, obs) {
            continue;
        }
        pass.for_each_xi(&tables, obs, |_, i, j, xi| usage[i][j] += xi);
    }
    let total_usage: f64 = usage.iter().flatten().sum();

    let mut log_trans: Vec<Vec<f64>> = hmm.log_trans().to_vec();
    let mut removed = 0usize;
    let mut usage_removed = 0.0f64;
    for i in 0..s {
        // Keep the most-used transition of each row unconditionally.
        let keep = (0..s)
            .max_by(|&a, &b| usage[i][a].partial_cmp(&usage[i][b]).expect("usage is finite"))
            .expect("at least one state");
        for j in 0..s {
            if j == keep {
                continue;
            }
            let share = if total_usage > 0.0 { usage[i][j] / total_usage } else { 0.0 };
            if share < threshold && log_trans[i][j] > f64::NEG_INFINITY {
                log_trans[i][j] = f64::NEG_INFINITY;
                removed += 1;
                usage_removed += share;
            }
        }
        // Renormalize the row.
        let z = log_sum_exp(&log_trans[i]);
        for lp in &mut log_trans[i] {
            if *lp > f64::NEG_INFINITY {
                *lp -= z;
            }
        }
    }

    let pruned = Hmm::from_log_parts(hmm.log_init().to_vec(), log_trans, hmm.log_emit().to_vec());
    debug_assert!(is_normalized(&pruned));
    let remaining = pruned.num_active_transitions();
    let bytes_after = pruned.footprint_bytes();
    TransitionPruneReport {
        hmm: pruned,
        removed,
        remaining,
        usage_removed,
        bytes_before,
        bytes_after,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learn::total_log_likelihood;
    use crate::sample::sample_sequence;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A model whose transitions are strongly diagonal: off-diagonal usage
    /// will be tiny and prunable. Stickiness 0.99 keeps state switches —
    /// and therefore the likelihood cost of pruning every off-diagonal
    /// edge — rare across sampling seeds.
    fn sticky_hmm() -> Hmm {
        Hmm::new(
            vec![0.5, 0.3, 0.2],
            vec![vec![0.99, 0.005, 0.005], vec![0.005, 0.99, 0.005], vec![0.005, 0.005, 0.99]],
            vec![vec![0.8, 0.1, 0.1], vec![0.1, 0.8, 0.1], vec![0.1, 0.1, 0.8]],
        )
        .unwrap()
    }

    fn training_data(hmm: &Hmm, n: usize, len: usize, seed: u64) -> Vec<Vec<usize>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| sample_sequence(hmm, len, &mut rng).observations).collect()
    }

    #[test]
    fn prunes_low_usage_transitions() {
        let hmm = sticky_hmm();
        let data = training_data(&hmm, 20, 30, 1);
        let report = prune_transitions(&hmm, &data, 0.02);
        assert!(report.removed > 0, "sticky chains should lose off-diagonal edges");
        assert!(report.remaining >= 3, "every row keeps a transition");
        assert!(report.memory_reduction() > 0.0);
    }

    #[test]
    fn pruned_model_stays_normalized() {
        let hmm = sticky_hmm();
        let data = training_data(&hmm, 10, 20, 2);
        let report = prune_transitions(&hmm, &data, 0.05);
        assert!(is_normalized(&report.hmm));
    }

    #[test]
    fn likelihood_loss_is_small_for_low_usage_pruning() {
        let hmm = sticky_hmm();
        let data = training_data(&hmm, 20, 25, 3);
        let before = total_log_likelihood(&hmm, &data) / data.len() as f64;
        let report = prune_transitions(&hmm, &data, 0.01);
        let after = total_log_likelihood(&report.hmm, &data) / data.len() as f64;
        // Pruning sub-1%-usage edges must not collapse the likelihood:
        // the per-step degradation stays well under 0.1 nats.
        let per_step = (before - after) / 25.0;
        assert!(
            per_step < 0.1,
            "pruning destroyed likelihood: {before} -> {after} per-step {per_step} (removed {})",
            report.removed
        );
    }

    #[test]
    fn zero_threshold_removes_nothing() {
        let hmm = sticky_hmm();
        let data = training_data(&hmm, 5, 10, 4);
        let report = prune_transitions(&hmm, &data, 0.0);
        assert_eq!(report.removed, 0);
        assert_eq!(report.remaining, 9);
    }

    #[test]
    fn a_sequence_the_model_cannot_emit_contributes_no_usage() {
        // Neither state emits symbol 2; the second sequence is impossible.
        let hmm = Hmm::new(
            vec![0.5, 0.5],
            vec![vec![0.9, 0.1], vec![0.2, 0.8]],
            vec![vec![0.5, 0.5, 0.0], vec![0.3, 0.7, 0.0]],
        )
        .unwrap();
        let good = vec![vec![0, 0, 1, 0, 1, 1]];
        let with_bad = vec![good[0].clone(), vec![0, 2, 1]];
        let report = prune_transitions(&hmm, &with_bad, 0.1);
        assert_eq!(report, prune_transitions(&hmm, &good, 0.1));
        assert!(report.usage_removed.is_finite());
        // Nothing but impossible data: no usage at all, as for data
        // without a transition.
        let only_bad = prune_transitions(&hmm, &[vec![2, 2]], 0.1);
        assert_eq!(only_bad, prune_transitions(&hmm, &[vec![0]], 0.1));
    }

    #[test]
    fn inference_still_works_after_pruning() {
        let hmm = sticky_hmm();
        let data = training_data(&hmm, 10, 15, 5);
        let report = prune_transitions(&hmm, &data, 0.02);
        let obs = &data[0];
        let ll = report.hmm.log_likelihood(obs);
        assert!(ll.is_finite(), "pruned model must still explain training data");
        let v = report.hmm.viterbi(obs);
        assert_eq!(v.path.len(), obs.len());
    }
}
