//! A-NeSI-style prediction networks: amortized approximate inference.
//!
//! A-NeSI (van Krieken et al., PAPERS.md) replaces repeated exact
//! probabilistic inference with a neural *prediction network* trained
//! on samples labeled by the exact engine. [`train_from_arena`] is that
//! idea on this workspace's substrates: a small sigmoid-headed
//! [`reason_neural::Mlp`] fit to `(partial evidence → conditional
//! probability of the formula)` pairs, where the labels come from the
//! exact engine — the compiled knowledge base's d-DNNF arena
//! ([`reason_pc::Dnnf`]), which answers every training query in one
//! batched walk. The trained `Mlp` is what serves: a query is encoded by
//! the same [`encode_evidence`] training used, and its joint or
//! posterior is recovered with the same [`prior_mass`].
//!
//! Once trained, a query costs one tiny MLP forward pass regardless of
//! circuit size — the amortization A-NeSI trades training time for.

use rand::prelude::*;
use reason_neural::{Matrix, Mlp, MlpBuilder};
use reason_pc::{BatchBuffer, Dnnf, DnnfBatch, Evidence, WmcWeights};

/// Training schedule for [`train_from_arena`].
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

/// Encodes partial evidence as the net's input, one two-hot row per
/// evidence: feature `2v` is 1 iff `x_v` is set to 1, feature `2v + 1`
/// is 1 iff set to 0; free variables contribute zeros. Training encodes
/// its whole query set with it and serving one query.
///
/// # Panics
///
/// Panics if `evidences` is empty or their arities differ.
pub fn encode_evidence(evidences: &[Evidence]) -> Matrix {
    let width = 2 * evidences[0].len();
    let mut x = vec![0.0f32; evidences.len() * width];
    for (r, ev) in evidences.iter().enumerate() {
        assert_eq!(2 * ev.len(), width, "evidence arity mismatch");
        for v in 0..ev.len() {
            match ev.value(v) {
                Some(1) => x[r * width + 2 * v] = 1.0,
                Some(_) => x[r * width + 2 * v + 1] = 1.0,
                None => {}
            }
        }
    }
    Matrix::from_vec(evidences.len(), width, x)
}

/// The prior mass `Pr[e]` of partial evidence under the independent
/// per-variable marginals, multiplied in ascending variable order.
pub fn prior_mass(weights: &WmcWeights, evidence: &Evidence) -> f64 {
    (0..weights.len())
        .map(|v| match evidence.value(v) {
            Some(1) => weights.prob(v),
            Some(_) => 1.0 - weights.prob(v),
            None => 1.0,
        })
        .product()
}

/// Exact conditionals `Pr[φ | e]`, one per evidence pattern, from the
/// compiled arena plus the prior weights: `Pr[φ ∧ e] / Pr[e]`, where
/// every joint `Pr[φ ∧ e]` is a lane of one batched arena walk and
/// `Pr[e]` is [`prior_mass`].
fn exact_conditionals(arena: &Dnnf, weights: &WmcWeights, patterns: &[Evidence]) -> Vec<f64> {
    let joints = arena.wmc_batch(&DnnfBatch::pack(patterns), &mut BatchBuffer::new());
    joints
        .into_iter()
        .zip(patterns)
        .map(|(joint, ev)| {
            let prior = prior_mass(weights, ev);
            if prior == 0.0 {
                0.0
            } else {
                (joint / prior).clamp(0.0, 1.0)
            }
        })
        .collect()
}

/// `count` random partial-evidence patterns over `n` variables, each
/// variable independently free / set-1 / set-0.
fn random_patterns(rng: &mut StdRng, count: usize, n: usize) -> Vec<Evidence> {
    (0..count)
        .map(|_| {
            let mut ev = Evidence::empty(n);
            for v in 0..n {
                let value = match rng.gen_range(0..3u32) {
                    0 => continue,
                    1 => 1,
                    _ => 0,
                };
                ev.set(v, value);
            }
            ev
        })
        .collect()
}

/// Trains a predictor of conditional formula probabilities `Pr[φ | e]`
/// against the exact engine: generates `queries` random
/// partial-evidence patterns (each variable independently free / set-1
/// / set-0), labels them all with the exact conditionals read off the
/// compiled `arena` in one batched walk, and fits a `2n → hidden → 1`
/// ReLU net with a sigmoid head. Returns the net and the final training
/// loss (mean BCE).
///
/// # Panics
///
/// Panics if the weights' arity differs from the arena's, or if the
/// schedule has no queries or no epochs.
pub fn train_from_arena(arena: &Dnnf, weights: &WmcWeights, cfg: &PredictConfig) -> (Mlp, f32) {
    assert_eq!(weights.len(), arena.num_vars(), "weights arity mismatch");
    assert!(cfg.queries > 0 && cfg.epochs > 0, "training schedule must be positive");
    let n = arena.num_vars();
    let mut rng = StdRng::seed_from_u64(TRAIN_SEED);
    let patterns = random_patterns(&mut rng, cfg.queries, n);
    let x = encode_evidence(&patterns);
    let ys: Vec<f32> =
        exact_conditionals(arena, weights, &patterns).into_iter().map(|y| y as f32).collect();
    let y = Matrix::from_vec(cfg.queries, 1, ys);
    let seed = TRAIN_SEED + 17;
    let mut net = MlpBuilder::new(2 * n)
        .layer(cfg.hidden, true, seed)
        .layer(1, false, seed + 1)
        .sigmoid()
        .build();
    let mut loss = f32::INFINITY;
    for _ in 0..cfg.epochs {
        loss = net.train_batch(&x, &y, LEARNING_RATE);
    }
    (net, loss)
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

    /// The net's predicted `Pr[φ | e]` for one evidence pattern.
    fn predict(net: &Mlp, evidence: &Evidence) -> f64 {
        f64::from(net.forward(&encode_evidence(std::slice::from_ref(evidence))).at(0, 0))
    }

    #[test]
    fn encoding_is_two_hot() {
        let mut ev = Evidence::empty(3);
        ev.set(0, 1).set(2, 0);
        let row = encode_evidence(&[ev]);
        assert_eq!(row.data(), &[1.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
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
        let mut evidence = Evidence::empty(6);
        evidence.set(1, 1);
        // A free pattern in the same batch reads the whole count.
        let got = exact_conditionals(&arena, &w, &[evidence, Evidence::empty(6)]);
        assert!((got[0] - expect).abs() < 1e-9);
        assert!((got[1] - weighted_count(&cnf, &probs)).abs() < 1e-9);
    }

    #[test]
    fn trained_net_tracks_exact_conditionals() {
        let (cnf, w) = tractable_instance();
        let arena = arena_of(&cnf, &w);
        let (net, loss) = train_from_arena(&arena, &w, &PredictConfig::default());
        assert!(loss.is_finite());

        // Held-out evaluation: fresh random evidence patterns not tied to
        // the training stream's seed.
        let held_out = random_patterns(&mut StdRng::seed_from_u64(999), 60, 6);
        let exact = exact_conditionals(&arena, &w, &held_out);
        let total_err: f64 =
            held_out.iter().zip(&exact).map(|(e, &want)| (predict(&net, e) - want).abs()).sum();
        let mae = total_err / held_out.len() as f64;
        assert!(mae < 0.1, "held-out MAE too high: {mae}");
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let (cnf, w) = tractable_instance();
        let arena = arena_of(&cnf, &w);
        let cfg = PredictConfig { queries: 64, epochs: 50, ..PredictConfig::default() };
        let (a, la) = train_from_arena(&arena, &w, &cfg);
        let (b, lb) = train_from_arena(&arena, &w, &cfg);
        assert_eq!(la, lb);
        let mut e = Evidence::empty(6);
        e.set(1, 1).set(5, 0);
        assert_eq!(predict(&a, &e), predict(&b, &e));
    }
}
