//! Hidden Markov model substrate for the REASON reproduction.
//!
//! HMMs are the paper's sequential-reasoning primitive (Sec. II-C, Eq. 2):
//! hidden states evolve under a first-order Markov transition model and
//! emit observations. Neuro-symbolic systems such as Ctrl-G and GeLaTo
//! (paper Table I) use HMM inference — filtering, smoothing, decoding, and
//! DFA-constrained generation — as their probabilistic reasoning engine.
//!
//! Modules:
//!
//! * [`infer`] — log-space forward/backward and likelihood;
//!   posterior state and transition probabilities from a scaled
//!   linear-domain forward-backward.
//! * [`viterbi`] — maximum a-posteriori state decoding.
//! * [`learn`] — Baum–Welch (EM) parameter estimation.
//! * [`sample`] — ancestral sampling of state/observation sequences.
//! * [`constrain`] — deterministic finite automata and HMM×DFA product
//!   inference: the Ctrl-G-style constrained generation kernel (a
//!   linear-domain forward pass and a log-space Viterbi decode).
//! * [`prune`] — posterior-usage transition pruning (the HMM half of the
//!   paper's probabilistic DAG pruning, Sec. IV-B).
//!
//! # Example
//!
//! ```
//! use reason_hmm::Hmm;
//!
//! // A two-state weather model emitting {0: walk, 1: shop, 2: clean}.
//! let hmm = Hmm::new(
//!     vec![0.6, 0.4],
//!     vec![vec![0.7, 0.3], vec![0.4, 0.6]],
//!     vec![vec![0.6, 0.3, 0.1], vec![0.1, 0.4, 0.5]],
//! ).unwrap();
//! let obs = [0, 1, 2];
//! let ll = hmm.log_likelihood(&obs);
//! assert!(ll < 0.0);
//! let path = hmm.viterbi(&obs).path;
//! assert_eq!(path.len(), 3);
//! ```

pub mod constrain;
pub mod infer;
pub mod learn;
pub mod prune;
pub mod sample;
pub mod viterbi;

pub use constrain::{ConstrainedResult, Dfa};
pub use infer::{ForwardBackward, Posteriors};
pub use learn::{baum_welch, BaumWelchReport};
pub use prune::{prune_transitions, TransitionPruneReport};
pub use viterbi::ViterbiResult;

use std::fmt;

/// Numerically stable `log(sum(exp(xs)))` over a slice.
fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    m + xs.iter().map(|x| (x - m).exp()).sum::<f64>().ln()
}

/// Errors raised by [`Hmm::new`].
#[derive(Debug, Clone, PartialEq)]
pub enum HmmError {
    /// A probability vector does not sum to 1 (within tolerance).
    NotNormalized {
        /// Which table: "init", "transition", or "emission".
        table: &'static str,
        /// The offending row (0 for init).
        row: usize,
        /// The observed total.
        total: f64,
    },
    /// Table dimensions disagree.
    ShapeMismatch,
}

impl fmt::Display for HmmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HmmError::NotNormalized { table, row, total } => {
                write!(f, "{table} row {row} sums to {total}, expected 1")
            }
            HmmError::ShapeMismatch => write!(f, "table dimensions disagree"),
        }
    }
}

impl std::error::Error for HmmError {}

/// A discrete hidden Markov model in log-space.
#[derive(Debug, Clone, PartialEq)]
pub struct Hmm {
    log_init: Vec<f64>,
    /// `log_trans[i][j]` = log p(z_t = j | z_{t-1} = i).
    log_trans: Vec<Vec<f64>>,
    /// `log_emit[i][v]` = log p(x_t = v | z_t = i).
    log_emit: Vec<Vec<f64>>,
}

impl Hmm {
    /// Builds an HMM from linear-space tables.
    ///
    /// # Errors
    ///
    /// Returns [`HmmError`] if shapes disagree or any row is not a
    /// probability distribution.
    pub fn new(
        init: Vec<f64>,
        trans: Vec<Vec<f64>>,
        emit: Vec<Vec<f64>>,
    ) -> Result<Self, HmmError> {
        let s = init.len();
        if trans.len() != s || emit.len() != s {
            return Err(HmmError::ShapeMismatch);
        }
        let v = emit.first().map_or(0, Vec::len);
        if trans.iter().any(|r| r.len() != s) || emit.iter().any(|r| r.len() != v) {
            return Err(HmmError::ShapeMismatch);
        }
        check_row("init", 0, &init)?;
        for (i, row) in trans.iter().enumerate() {
            check_row("transition", i, row)?;
        }
        for (i, row) in emit.iter().enumerate() {
            check_row("emission", i, row)?;
        }
        Ok(Hmm {
            log_init: init.iter().map(|p| p.ln()).collect(),
            log_trans: trans.iter().map(|r| r.iter().map(|p| p.ln()).collect()).collect(),
            log_emit: emit.iter().map(|r| r.iter().map(|p| p.ln()).collect()).collect(),
        })
    }

    /// Builds an HMM directly from log-space tables without validation;
    /// used by learning and pruning transforms that preserve normalization.
    pub(crate) fn from_log_parts(
        log_init: Vec<f64>,
        log_trans: Vec<Vec<f64>>,
        log_emit: Vec<Vec<f64>>,
    ) -> Self {
        Hmm { log_init, log_trans, log_emit }
    }

    /// A random HMM with `num_states` hidden states and `num_symbols`
    /// observable symbols, seeded deterministically.
    pub fn random(num_states: usize, num_symbols: usize, seed: u64) -> Self {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut row = |n: usize| -> Vec<f64> {
            let raw: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..1.0)).collect();
            let t: f64 = raw.iter().sum();
            raw.into_iter().map(|x| x / t).collect()
        };
        let init = row(num_states);
        let trans: Vec<Vec<f64>> = (0..num_states).map(|_| row(num_states)).collect();
        let emit: Vec<Vec<f64>> = (0..num_states).map(|_| row(num_symbols)).collect();
        Hmm::new(init, trans, emit).expect("random rows are normalized")
    }

    /// Number of hidden states.
    pub fn num_states(&self) -> usize {
        self.log_init.len()
    }

    /// Number of observable symbols.
    pub fn num_symbols(&self) -> usize {
        self.log_emit.first().map_or(0, Vec::len)
    }

    /// Log initial distribution.
    pub fn log_init(&self) -> &[f64] {
        &self.log_init
    }

    /// Log transition matrix (`[from][to]`).
    pub fn log_trans(&self) -> &[Vec<f64>] {
        &self.log_trans
    }

    /// Log emission matrix (`[state][symbol]`).
    pub fn log_emit(&self) -> &[Vec<f64>] {
        &self.log_emit
    }

    /// Number of transitions with non-zero probability.
    fn num_active_transitions(&self) -> usize {
        self.log_trans.iter().flatten().filter(|&&lp| lp > f64::NEG_INFINITY).count()
    }

    /// An estimate of the parameter footprint in bytes (8 bytes per active
    /// transition/emission/init entry) — the Table IV memory metric for
    /// sequential workloads.
    pub fn footprint_bytes(&self) -> usize {
        let active =
            |rows: &[Vec<f64>]| rows.iter().flatten().filter(|&&lp| lp > f64::NEG_INFINITY).count();
        8 * (self.log_init.len() + active(&self.log_trans) + active(&self.log_emit))
    }
}

fn check_row(table: &'static str, row: usize, values: &[f64]) -> Result<(), HmmError> {
    let total: f64 = values.iter().sum();
    if (total - 1.0).abs() > 1e-6 {
        return Err(HmmError::NotNormalized { table, row, total });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_validates() {
        assert!(Hmm::new(vec![0.5, 0.5], vec![vec![1.0, 0.0]], vec![vec![1.0]]).is_err());
        let bad = Hmm::new(
            vec![0.9, 0.9],
            vec![vec![0.5, 0.5], vec![0.5, 0.5]],
            vec![vec![1.0], vec![1.0]],
        );
        assert!(matches!(bad, Err(HmmError::NotNormalized { table: "init", .. })));
    }

    #[test]
    fn random_hmm_is_deterministic_and_valid() {
        let a = Hmm::random(4, 6, 9);
        let b = Hmm::random(4, 6, 9);
        assert_eq!(a, b);
        assert_eq!(a.num_states(), 4);
        assert_eq!(a.num_symbols(), 6);
        for row in a.log_trans() {
            let total: f64 = row.iter().map(|lp| lp.exp()).sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn footprint_counts_active_entries() {
        let hmm = Hmm::random(3, 4, 0);
        assert_eq!(hmm.footprint_bytes(), 8 * (3 + 9 + 12));
        assert_eq!(hmm.num_active_transitions(), 9);
    }
}
