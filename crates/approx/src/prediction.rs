//! A-NeSI-style prediction networks: amortized approximate inference.
//!
//! A-NeSI (van Krieken et al., PAPERS.md) replaces repeated exact
//! probabilistic inference with a neural *prediction network* trained
//! on samples labeled by the exact engine. [`PredictionNet`] is that
//! idea on this workspace's substrates: a small
//! [`reason_neural::TrainableMlp`] fit to `(partial evidence →
//! conditional probability of the formula)` pairs, where the labels
//! come from the exact engine — the compiled knowledge base's d-DNNF
//! arena ([`reason_pc::Dnnf`]), which answers every training query in
//! one batched walk.
//!
//! Once trained, a query costs one tiny MLP forward pass regardless of
//! circuit size — the amortization A-NeSI trades training time for.

use rand::prelude::*;
use reason_neural::{Matrix, Mlp, TrainableMlp};
use reason_pc::{BatchBuffer, Dnnf, DnnfBatch, Evidence, WmcWeights};

/// Training schedule for [`PredictionNet::train_from_arena`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictConfig {
    /// Exact-engine queries generated as the training set.
    pub queries: usize,
    /// Full-batch SGD epochs.
    pub epochs: usize,
    /// Hidden-layer width.
    pub hidden: usize,
}

/// SGD learning rate of every training run.
const LEARNING_RATE: f32 = 0.35;

/// Seed for query generation and parameter initialization: training is
/// a pure function of the arena, the weights and the schedule.
const TRAIN_SEED: u64 = 0;

impl Default for PredictConfig {
    fn default() -> Self {
        PredictConfig { queries: 512, epochs: 600, hidden: 32 }
    }
}

/// A trained predictor of conditional formula probabilities
/// `Pr[φ | e]` for partial evidence `e`.
#[derive(Debug, Clone)]
pub struct PredictionNet {
    net: TrainableMlp,
}

/// Encodes partial evidence as a two-hot feature row: feature `2v` is 1
/// iff `x_v` is set to 1, feature `2v + 1` is 1 iff set to 0; free
/// variables contribute zeros.
fn encode(evidence: &[Option<bool>]) -> Vec<f32> {
    let mut row = vec![0.0f32; 2 * evidence.len()];
    for (v, e) in evidence.iter().enumerate() {
        match e {
            Some(true) => row[2 * v] = 1.0,
            Some(false) => row[2 * v + 1] = 1.0,
            None => {}
        }
    }
    row
}

/// Exact conditionals `Pr[φ | e]`, one per evidence pattern, from the
/// compiled arena plus the prior weights: `Pr[φ ∧ e] / Pr[e]`, where
/// every joint `Pr[φ ∧ e]` is a lane of one batched arena walk and
/// `Pr[e]` factorizes over the independent per-variable marginals.
fn exact_conditionals(
    arena: &Dnnf,
    weights: &WmcWeights,
    patterns: &[Vec<Option<bool>>],
) -> Vec<f64> {
    let (evidences, priors): (Vec<Evidence>, Vec<f64>) = patterns
        .iter()
        .map(|pattern| {
            let mut ev = Evidence::empty(pattern.len());
            let mut prior = 1.0f64;
            for (v, &e) in pattern.iter().enumerate() {
                if let Some(b) = e {
                    ev.set(v, usize::from(b));
                    prior *= if b { weights.prob(v) } else { 1.0 - weights.prob(v) };
                }
            }
            (ev, prior)
        })
        .unzip();
    let joints = arena.wmc_batch(&DnnfBatch::pack(&evidences), &mut BatchBuffer::new());
    joints
        .into_iter()
        .zip(priors)
        .map(|(joint, prior)| if prior == 0.0 { 0.0 } else { (joint / prior).clamp(0.0, 1.0) })
        .collect()
}

/// `count` random partial-evidence patterns over `n` variables, each
/// variable independently free / set-1 / set-0.
fn random_patterns(rng: &mut StdRng, count: usize, n: usize) -> Vec<Vec<Option<bool>>> {
    (0..count)
        .map(|_| {
            (0..n)
                .map(|_| match rng.gen_range(0..3u32) {
                    0 => None,
                    1 => Some(true),
                    _ => Some(false),
                })
                .collect()
        })
        .collect()
}

impl PredictionNet {
    /// Trains a predictor against the exact engine: generates `queries`
    /// random partial-evidence patterns (each variable independently
    /// free / set-1 / set-0), labels them all with the exact
    /// conditionals read off the compiled `arena` in one batched walk,
    /// and fits the MLP. Returns the net and the final training loss
    /// (mean BCE).
    pub fn train_from_arena(
        arena: &Dnnf,
        weights: &WmcWeights,
        cfg: &PredictConfig,
    ) -> (Self, f32) {
        assert_eq!(weights.len(), arena.num_vars(), "weights arity mismatch");
        assert!(cfg.queries > 0 && cfg.epochs > 0, "training schedule must be positive");
        let n = arena.num_vars();
        let mut rng = StdRng::seed_from_u64(TRAIN_SEED);
        let patterns = random_patterns(&mut rng, cfg.queries, n);
        let xs: Vec<f32> = patterns.iter().flat_map(|pattern| encode(pattern)).collect();
        let ys: Vec<f32> =
            exact_conditionals(arena, weights, &patterns).into_iter().map(|y| y as f32).collect();
        let x = Matrix::from_vec(cfg.queries, 2 * n, xs);
        let y = Matrix::from_vec(cfg.queries, 1, ys);
        let mut net = TrainableMlp::new(&[2 * n, cfg.hidden, 1], TRAIN_SEED.wrapping_add(17));
        let mut loss = f32::INFINITY;
        for _ in 0..cfg.epochs {
            loss = net.train_batch(&x, &y, LEARNING_RATE);
        }
        (PredictionNet { net }, loss)
    }

    /// Predicted `Pr[φ | e]` for partial evidence `e`: the trainable
    /// net's own forward pass, the reference the frozen net is held to.
    #[cfg(test)]
    fn predict(&self, evidence: &[Option<bool>]) -> f64 {
        let x = Self::encode_query(evidence, evidence.len());
        f64::from(self.net.forward(&x).at(0, 0))
    }

    /// Encodes partial evidence as the net's `1 × 2n` input matrix —
    /// the two-hot feature layout the net trains on,
    /// exposed so a serving router can run the frozen net
    /// ([`to_mlp`](Self::to_mlp)) as a `reason_system` neural stage and
    /// read the prediction off the stage's output buffer.
    ///
    /// # Panics
    ///
    /// Panics if `evidence.len() != num_vars`.
    pub fn encode_query(evidence: &[Option<bool>], num_vars: usize) -> Matrix {
        assert_eq!(evidence.len(), num_vars, "evidence arity mismatch");
        Matrix::from_vec(1, 2 * num_vars, encode(evidence))
    }

    /// Freezes the predictor into an inference [`Mlp`] (sigmoid head),
    /// runnable as a `reason_system` neural stage.
    pub fn to_mlp(&self) -> Mlp {
        self.net.to_mlp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reason_pc::compile_cnf;
    use reason_sat::{weighted_count, Cnf};

    fn tractable_instance() -> (Cnf, WmcWeights) {
        let cnf = Cnf::from_clauses(
            6,
            vec![vec![1, 2], vec![-2, 3], vec![-1, 4, 5], vec![3, -5, 6], vec![-4, -6]],
        );
        let w = WmcWeights::new(vec![0.4, 0.55, 0.5, 0.35, 0.6, 0.45]);
        (cnf, w)
    }

    fn arena_of(cnf: &Cnf, w: &WmcWeights) -> Dnnf {
        Dnnf::from_circuit(&compile_cnf(cnf, w).unwrap()).unwrap()
    }

    #[test]
    fn encoding_is_two_hot() {
        let row = encode(&[Some(true), None, Some(false)]);
        assert_eq!(row, vec![1.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn exact_conditional_matches_enumeration() {
        let (cnf, w) = tractable_instance();
        let arena = arena_of(&cnf, &w);
        // Condition on x1 = 1: Pr[φ | x1] by brute force over a modified
        // formula, using Pr[φ ∧ x1] = weighted_count(φ ∧ x1).
        let mut with_unit = cnf.clone();
        with_unit.add_dimacs_clause(&[2]);
        let probs: Vec<f64> = (0..6).map(|v| w.prob(v)).collect();
        let expect = weighted_count(&with_unit, &probs) / w.prob(1);
        let mut evidence = vec![None; 6];
        evidence[1] = Some(true);
        // A free pattern in the same batch reads the whole count.
        let got = exact_conditionals(&arena, &w, &[evidence, vec![None; 6]]);
        assert!((got[0] - expect).abs() < 1e-9);
        assert!((got[1] - weighted_count(&cnf, &probs)).abs() < 1e-9);
    }

    #[test]
    fn trained_net_tracks_exact_conditionals() {
        let (cnf, w) = tractable_instance();
        let arena = arena_of(&cnf, &w);
        let (net, loss) = PredictionNet::train_from_arena(&arena, &w, &PredictConfig::default());
        assert!(loss.is_finite());

        // Held-out evaluation: fresh random evidence patterns not tied to
        // the training stream's seed.
        let held_out = random_patterns(&mut StdRng::seed_from_u64(999), 60, 6);
        let exact = exact_conditionals(&arena, &w, &held_out);
        let total_err: f64 =
            held_out.iter().zip(&exact).map(|(e, &want)| (net.predict(e) - want).abs()).sum();
        let mae = total_err / held_out.len() as f64;
        assert!(mae < 0.1, "held-out MAE too high: {mae}");
    }

    #[test]
    fn frozen_mlp_agrees_with_predictor() {
        let (cnf, w) = tractable_instance();
        let arena = arena_of(&cnf, &w);
        let cfg = PredictConfig { queries: 128, epochs: 100, ..PredictConfig::default() };
        let (net, _) = PredictionNet::train_from_arena(&arena, &w, &cfg);
        let mlp = net.to_mlp();
        let evidence = vec![Some(true), None, None, Some(false), None, None];
        let x = Matrix::from_vec(1, 12, encode(&evidence));
        assert!((f64::from(mlp.forward(&x).at(0, 0)) - net.predict(&evidence)).abs() < 1e-6);
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let (cnf, w) = tractable_instance();
        let arena = arena_of(&cnf, &w);
        let cfg = PredictConfig { queries: 64, epochs: 50, ..PredictConfig::default() };
        let (a, la) = PredictionNet::train_from_arena(&arena, &w, &cfg);
        let (b, lb) = PredictionNet::train_from_arena(&arena, &w, &cfg);
        assert_eq!(la, lb);
        let e = vec![None, Some(true), None, None, None, Some(false)];
        assert_eq!(a.predict(&e), b.predict(&e));
    }
}
