//! Baum–Welch (EM) parameter learning.

use crate::{log_sum_exp, Hmm};

/// Outcome of Baum–Welch training.
#[derive(Debug, Clone, PartialEq)]
pub struct BaumWelchReport {
    /// The trained model.
    pub hmm: Hmm,
    /// Total train log-likelihood after each iteration.
    pub log_likelihoods: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
}

/// Runs Baum–Welch on a set of observation sequences.
///
/// Stops after `max_iters` iterations or when the total log-likelihood
/// improves by less than `tol`. `smoothing` is added to every expected
/// count (Laplace smoothing keeps rows strictly positive).
///
/// # Panics
///
/// Panics if `sequences` is empty or any sequence is empty.
pub fn baum_welch(
    initial: &Hmm,
    sequences: &[Vec<usize>],
    max_iters: usize,
    tol: f64,
    smoothing: f64,
) -> BaumWelchReport {
    assert!(!sequences.is_empty(), "need at least one training sequence");
    assert!(sequences.iter().all(|s| !s.is_empty()), "sequences must be non-empty");
    let s = initial.num_states();
    let v = initial.num_symbols();
    let mut hmm = initial.clone();
    let mut history = Vec::new();

    for iter in 0..max_iters {
        let mut init_counts = vec![smoothing; s];
        let mut trans_counts = vec![vec![smoothing; s]; s];
        let mut emit_counts = vec![vec![smoothing; v]; s];
        let mut total_ll = 0.0;

        for obs in sequences {
            let post = hmm.posteriors(obs);
            total_ll += hmm.log_likelihood(obs);
            for (i, c) in init_counts.iter_mut().enumerate() {
                *c += post.gamma[0][i];
            }
            for xi_t in &post.xi {
                for i in 0..s {
                    for j in 0..s {
                        trans_counts[i][j] += xi_t[i][j];
                    }
                }
            }
            for (t, &sym) in obs.iter().enumerate() {
                for i in 0..s {
                    emit_counts[i][sym] += post.gamma[t][i];
                }
            }
        }
        history.push(total_ll);

        // M step: normalize counts into log-space tables.
        let normalize = |counts: &[f64]| -> Vec<f64> {
            let total: f64 = counts.iter().sum();
            counts.iter().map(|c| (c / total).ln()).collect()
        };
        let log_init = normalize(&init_counts);
        let log_trans: Vec<Vec<f64>> = trans_counts.iter().map(|r| normalize(r)).collect();
        let log_emit: Vec<Vec<f64>> = emit_counts.iter().map(|r| normalize(r)).collect();
        hmm = Hmm::from_log_parts(log_init, log_trans, log_emit);

        if iter > 0 {
            let prev = history[iter - 1];
            if (history[iter] - prev).abs() < tol {
                return BaumWelchReport { hmm, log_likelihoods: history, iterations: iter + 1 };
            }
        }
    }
    let iterations = history.len();
    BaumWelchReport { hmm, log_likelihoods: history, iterations }
}

/// Checks a model's rows still normalize (used by tests and pruning).
pub(crate) fn is_normalized(hmm: &Hmm) -> bool {
    let row_ok = |row: &[f64]| (log_sum_exp(row)).abs() < 1e-6;
    row_ok(hmm.log_init())
        && hmm.log_trans().iter().all(|r| row_ok(r))
        && hmm.log_emit().iter().all(|r| row_ok(r))
}

/// Total log-likelihood of a sequence set under a model.
#[cfg(test)]
pub(crate) fn total_log_likelihood(hmm: &Hmm, sequences: &[Vec<usize>]) -> f64 {
    sequences.iter().map(|s| hmm.log_likelihood(s)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::sample_sequence;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn log_likelihood_is_monotone_nondecreasing() {
        let truth = Hmm::random(3, 4, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let data: Vec<Vec<usize>> =
            (0..20).map(|_| sample_sequence(&truth, 15, &mut rng).observations).collect();
        let start = Hmm::random(3, 4, 99);
        let report = baum_welch(&start, &data, 15, 1e-9, 1e-3);
        for w in report.log_likelihoods.windows(2) {
            assert!(w[1] >= w[0] - 1e-6, "LL decreased: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn training_improves_over_random_init() {
        let truth = Hmm::random(2, 3, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let data: Vec<Vec<usize>> =
            (0..30).map(|_| sample_sequence(&truth, 20, &mut rng).observations).collect();
        let start = Hmm::random(2, 3, 1234);
        let before = total_log_likelihood(&start, &data);
        let report = baum_welch(&start, &data, 25, 1e-9, 1e-3);
        let after = total_log_likelihood(&report.hmm, &data);
        assert!(after > before, "training did not improve: {before} -> {after}");
    }

    #[test]
    fn trained_model_stays_normalized() {
        let truth = Hmm::random(3, 3, 0);
        let mut rng = StdRng::seed_from_u64(3);
        let data: Vec<Vec<usize>> =
            (0..10).map(|_| sample_sequence(&truth, 10, &mut rng).observations).collect();
        let report = baum_welch(&Hmm::random(3, 3, 55), &data, 10, 1e-9, 1e-3);
        assert!(is_normalized(&report.hmm));
    }

    #[test]
    fn early_stopping_on_convergence() {
        let truth = Hmm::random(2, 2, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let data: Vec<Vec<usize>> =
            (0..5).map(|_| sample_sequence(&truth, 8, &mut rng).observations).collect();
        let report = baum_welch(&truth, &data, 100, 1e-3, 1e-6);
        assert!(report.iterations < 100, "should converge quickly from the truth");
    }
}
