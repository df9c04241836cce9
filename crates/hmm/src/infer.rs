//! Forward-backward inference: filtering, smoothing, posteriors.
//!
//! These are the "sequential message passing" kernels the paper maps onto
//! the unified DAG (Sec. IV-A): each time step aggregates predecessor state
//! mass through transition factors (sum nodes) and applies emission factors
//! (product nodes).
//!
//! Two domains live here:
//!
//! * **Log space** — `Hmm::forward`, [`Hmm::log_likelihood`] and
//!   [`Hmm::filter`] (plus the test-only `backward` and
//!   `forward_backward` oracles) add log-probabilities and combine them
//!   with `log_sum_exp`. Their outputs are bit-exact constants of the
//!   repository: GeLaTo's fluency score reads `log_likelihood`.
//! * **Linear domain** — `Hmm::posteriors` (and through it Baum–Welch
//!   and `prune_transitions`) runs a *scaled* (Rabiner) forward-backward
//!   over tables exponentiated once per call (`LinearTables`): every
//!   step multiplies and adds probabilities, then divides the forward
//!   vector by its sum `c_t = p(x_t | x_0..x_{t-1})`, so nothing
//!   underflows however long the sequence. One step costs `s²`
//!   multiply-adds each way and no `exp` or `ln`; a log-space pass pays an
//!   `exp` per term. `γ` and `ξ` agree with the log-space values to about
//!   `1e-14` on short sequences, not bit for bit; on long ones the
//!   log-space values are the ones that drift, since their rounding grows
//!   with the magnitude of `log α_t` (≈ `1e-11` at `T = 500`, where the
//!   scaled `γ` still sums to 1 within `1e-14`). A sequence the model
//!   cannot emit (some `c_t = 0`) has no posterior.

use crate::{log_sum_exp, Hmm};

/// Forward and backward log-message tables for one observation sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardBackward {
    /// `alpha[t][s]` = log p(x_0..x_t, z_t = s).
    pub alpha: Vec<Vec<f64>>,
    /// `beta[t][s]` = log p(x_{t+1}..x_{T-1} | z_t = s).
    pub beta: Vec<Vec<f64>>,
    /// Log-likelihood of the whole sequence.
    pub log_likelihood: f64,
}

/// Posterior quantities derived from [`ForwardBackward`].
#[derive(Debug, Clone, PartialEq)]
pub struct Posteriors {
    /// `gamma[t][s]` = p(z_t = s | x) (linear space).
    pub gamma: Vec<Vec<f64>>,
    /// `xi[t][i][j]` = p(z_t = i, z_{t+1} = j | x), for t in 0..T-1.
    pub xi: Vec<Vec<Vec<f64>>>,
}

impl Hmm {
    /// Runs the forward pass, returning `alpha` and the log-likelihood.
    ///
    /// # Panics
    ///
    /// Panics if `obs` is empty or contains an out-of-range symbol.
    fn forward(&self, obs: &[usize]) -> (Vec<Vec<f64>>, f64) {
        assert!(!obs.is_empty(), "observation sequence must be non-empty");
        let s = self.num_states();
        let t_len = obs.len();
        let mut alpha = vec![vec![f64::NEG_INFINITY; s]; t_len];
        for i in 0..s {
            alpha[0][i] = self.log_init()[i] + self.log_emit()[i][obs[0]];
        }
        let mut buf = vec![0.0f64; s];
        for t in 1..t_len {
            for j in 0..s {
                for (i, b) in buf.iter_mut().enumerate() {
                    *b = alpha[t - 1][i] + self.log_trans()[i][j];
                }
                alpha[t][j] = log_sum_exp(&buf) + self.log_emit()[j][obs[t]];
            }
        }
        let ll = log_sum_exp(&alpha[t_len - 1]);
        (alpha, ll)
    }

    /// Runs the backward pass, returning `beta`.
    ///
    /// # Panics
    ///
    /// Panics if `obs` is empty or contains an out-of-range symbol.
    #[cfg(test)]
    fn backward(&self, obs: &[usize]) -> Vec<Vec<f64>> {
        assert!(!obs.is_empty(), "observation sequence must be non-empty");
        let s = self.num_states();
        let t_len = obs.len();
        let mut beta = vec![vec![0.0f64; s]; t_len];
        let mut buf = vec![0.0f64; s];
        for t in (0..t_len - 1).rev() {
            for i in 0..s {
                for (j, b) in buf.iter_mut().enumerate() {
                    *b = self.log_trans()[i][j] + self.log_emit()[j][obs[t + 1]] + beta[t + 1][j];
                }
                beta[t][i] = log_sum_exp(&buf);
            }
        }
        beta
    }

    /// Runs both passes.
    #[cfg(test)]
    fn forward_backward(&self, obs: &[usize]) -> ForwardBackward {
        let (alpha, log_likelihood) = self.forward(obs);
        let beta = self.backward(obs);
        ForwardBackward { alpha, beta, log_likelihood }
    }

    /// Log-likelihood of an observation sequence.
    pub fn log_likelihood(&self, obs: &[usize]) -> f64 {
        self.forward(obs).1
    }

    /// Filtering distribution `p(z_t = s | x_0..x_t)` for every `t`.
    pub fn filter(&self, obs: &[usize]) -> Vec<Vec<f64>> {
        let (alpha, _) = self.forward(obs);
        alpha
            .iter()
            .map(|row| {
                let z = log_sum_exp(row);
                row.iter().map(|a| (a - z).exp()).collect()
            })
            .collect()
    }

    /// Smoothing posteriors: state posteriors `gamma` and transition
    /// posteriors `xi` (paper Sec. IV-B uses these as pruning signals),
    /// from one scaled linear-domain forward-backward pass.
    ///
    /// A sequence with zero likelihood has no posterior: every entry of
    /// `gamma` and `xi` is then NaN.
    ///
    /// # Panics
    ///
    /// Panics if `obs` is empty or contains an out-of-range symbol.
    pub(crate) fn posteriors(&self, obs: &[usize]) -> Posteriors {
        let tables = LinearTables::new(self);
        let mut pass = ScaledPass::default();
        let s = self.num_states();
        let t_len = obs.len();
        let mut gamma = vec![vec![f64::NAN; s]; t_len];
        let mut xi = vec![vec![vec![f64::NAN; s]; s]; t_len.saturating_sub(1)];
        if pass.run(&tables, obs) {
            for (t, row) in gamma.iter_mut().enumerate() {
                for (i, g) in row.iter_mut().enumerate() {
                    *g = pass.gamma(t, i);
                }
            }
            pass.for_each_xi(&tables, obs, |t, i, j, p| xi[t][i][j] = p);
        }
        Posteriors { gamma, xi }
    }
}

/// The model's tables in the linear domain, each entry exponentiated once.
#[derive(Debug)]
pub(crate) struct LinearTables {
    pub(crate) states: usize,
    pub(crate) symbols: usize,
    /// `init[i]` = p(z_0 = i).
    pub(crate) init: Vec<f64>,
    /// `trans[i * states + j]` = p(z_t = j | z_{t-1} = i).
    pub(crate) trans: Vec<f64>,
    /// `emit[i * symbols + x]` = p(x_t = x | z_t = i).
    pub(crate) emit: Vec<f64>,
}

impl LinearTables {
    pub(crate) fn new(hmm: &Hmm) -> Self {
        let linear = |rows: &[Vec<f64>]| rows.iter().flatten().map(|lp| lp.exp()).collect();
        LinearTables {
            states: hmm.num_states(),
            symbols: hmm.num_symbols(),
            init: hmm.log_init().iter().map(|lp| lp.exp()).collect(),
            trans: linear(hmm.log_trans()),
            emit: linear(hmm.log_emit()),
        }
    }

    /// p(x_t = `symbol` | z_t = `state`).
    fn emit(&self, state: usize, symbol: usize) -> f64 {
        self.emit[state * self.symbols + symbol]
    }
}

/// Scratch of one scaled forward-backward pass, reusable across
/// sequences.
#[derive(Debug, Default)]
pub(crate) struct ScaledPass {
    states: usize,
    /// `alpha[t * s + i]` = p(z_t = i | x_0..x_t).
    alpha: Vec<f64>,
    /// `beta[t * s + i]` = p(x_{t+1}.. | z_t = i) / p(x_{t+1}.. | x_0..x_t).
    beta: Vec<f64>,
    /// `scale[t]` = `c_t` = p(x_t | x_0..x_{t-1}).
    scale: Vec<f64>,
    /// `weight[j]` = p(x_{t+1} | z_{t+1} = j) · `beta[t + 1][j]` for the
    /// step being read.
    weight: Vec<f64>,
}

impl ScaledPass {
    /// Runs both passes over `obs`. Returns `false` when the sequence has
    /// zero likelihood (some `c_t` is 0), which leaves it no posterior.
    ///
    /// # Panics
    ///
    /// Panics if `obs` is empty or contains an out-of-range symbol.
    pub(crate) fn run(&mut self, m: &LinearTables, obs: &[usize]) -> bool {
        assert!(!obs.is_empty(), "observation sequence must be non-empty");
        let s = m.states;
        let t_len = obs.len();
        self.states = s;
        self.alpha.clear();
        self.alpha.resize(t_len * s, 0.0);
        self.beta.clear();
        self.beta.resize(t_len * s, 1.0);
        self.scale.clear();
        self.weight.resize(s, 0.0);
        for (i, a) in self.alpha[..s].iter_mut().enumerate() {
            *a = m.init[i] * m.emit(i, obs[0]);
        }
        for t in 0..t_len {
            if t > 0 {
                let (prev, cur) = self.alpha.split_at_mut(t * s);
                let (prev, cur) = (&prev[(t - 1) * s..], &mut cur[..s]);
                for (&a, row) in prev.iter().zip(m.trans.chunks_exact(s)) {
                    for (c, &p) in cur.iter_mut().zip(row) {
                        *c += a * p;
                    }
                }
                for (j, c) in cur.iter_mut().enumerate() {
                    *c *= m.emit(j, obs[t]);
                }
            }
            let row = &mut self.alpha[t * s..(t + 1) * s];
            let c: f64 = row.iter().sum();
            if c == 0.0 {
                return false;
            }
            row.iter_mut().for_each(|a| *a /= c);
            self.scale.push(c);
        }
        for t in (0..t_len - 1).rev() {
            self.load_weights(m, obs, t);
            let c = self.scale[t + 1];
            for (b, row) in self.beta[t * s..(t + 1) * s].iter_mut().zip(m.trans.chunks_exact(s)) {
                *b = row.iter().zip(&self.weight).map(|(p, w)| p * w).sum::<f64>() / c;
            }
        }
        true
    }

    /// Fills `weight` for the step from `t` to `t + 1`.
    fn load_weights(&mut self, m: &LinearTables, obs: &[usize], t: usize) {
        let next = &self.beta[(t + 1) * self.states..(t + 2) * self.states];
        for (j, (w, b)) in self.weight.iter_mut().zip(next).enumerate() {
            *w = m.emit(j, obs[t + 1]) * b;
        }
    }

    /// `gamma_t(i)` = p(z_t = i | x), after a successful [`run`](Self::run).
    pub(crate) fn gamma(&self, t: usize, i: usize) -> f64 {
        let k = t * self.states + i;
        self.alpha[k] * self.beta[k]
    }

    /// Calls `f(t, i, j, xi_t(i, j))` for every step `t` in `0..T-1` and
    /// every pair of states, where `xi_t(i, j)` = p(z_t = i, z_{t+1} = j | x),
    /// after a successful [`run`](Self::run) over the same `obs`.
    pub(crate) fn for_each_xi(
        &mut self,
        m: &LinearTables,
        obs: &[usize],
        mut f: impl FnMut(usize, usize, usize, f64),
    ) {
        let s = self.states;
        for t in 0..obs.len() - 1 {
            self.load_weights(m, obs, t);
            let c = self.scale[t + 1];
            for (i, row) in m.trans.chunks_exact(s).enumerate() {
                let a = self.alpha[t * s + i] / c;
                for (j, (p, w)) in row.iter().zip(&self.weight).enumerate() {
                    f(t, i, j, a * p * w);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::prune_transitions;
    use crate::sample::sample_sequence;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The log-space posteriors the scaled pass replaced, one `exp` per
    /// entry: the reference [`Hmm::posteriors`] is held to.
    fn posteriors_log_space(hmm: &Hmm, obs: &[usize]) -> Posteriors {
        let fb = hmm.forward_backward(obs);
        let s = hmm.num_states();
        let t_len = obs.len();
        let ll = fb.log_likelihood;
        let gamma: Vec<Vec<f64>> = (0..t_len)
            .map(|t| (0..s).map(|i| (fb.alpha[t][i] + fb.beta[t][i] - ll).exp()).collect())
            .collect();
        let xi: Vec<Vec<Vec<f64>>> = (0..t_len.saturating_sub(1))
            .map(|t| {
                (0..s)
                    .map(|i| {
                        (0..s)
                            .map(|j| {
                                (fb.alpha[t][i]
                                    + hmm.log_trans()[i][j]
                                    + hmm.log_emit()[j][obs[t + 1]]
                                    + fb.beta[t + 1][j]
                                    - ll)
                                    .exp()
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Posteriors { gamma, xi }
    }

    /// Largest absolute difference between two posterior tables.
    fn max_gap(a: &Posteriors, b: &Posteriors) -> f64 {
        assert_eq!((a.gamma.len(), a.xi.len()), (b.gamma.len(), b.xi.len()));
        let gamma = a.gamma.iter().flatten().zip(b.gamma.iter().flatten());
        let xi = a.xi.iter().flatten().flatten().zip(b.xi.iter().flatten().flatten());
        gamma.chain(xi).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
    }

    fn toy() -> Hmm {
        Hmm::new(
            vec![0.6, 0.4],
            vec![vec![0.7, 0.3], vec![0.4, 0.6]],
            vec![vec![0.5, 0.4, 0.1], vec![0.1, 0.3, 0.6]],
        )
        .unwrap()
    }

    /// Brute-force likelihood: sum over all hidden paths.
    fn brute_likelihood(hmm: &Hmm, obs: &[usize]) -> f64 {
        let s = hmm.num_states();
        let t = obs.len();
        let mut total = 0.0f64;
        let paths = (s as u64).pow(t as u32);
        for code in 0..paths {
            let mut c = code;
            let mut path = Vec::with_capacity(t);
            for _ in 0..t {
                path.push((c % s as u64) as usize);
                c /= s as u64;
            }
            let mut lp = hmm.log_init()[path[0]] + hmm.log_emit()[path[0]][obs[0]];
            for k in 1..t {
                lp += hmm.log_trans()[path[k - 1]][path[k]] + hmm.log_emit()[path[k]][obs[k]];
            }
            total += lp.exp();
        }
        total
    }

    #[test]
    fn forward_matches_brute_force() {
        let hmm = toy();
        for obs in [vec![0], vec![0, 1], vec![2, 1, 0], vec![0, 1, 2, 1, 0]] {
            let ll = hmm.log_likelihood(&obs);
            let brute = brute_likelihood(&hmm, &obs);
            assert!((ll.exp() - brute).abs() < 1e-12, "obs {obs:?}");
        }
    }

    #[test]
    fn likelihoods_sum_to_one_over_all_sequences() {
        let hmm = toy();
        let t = 3;
        let v = hmm.num_symbols();
        let mut total = 0.0;
        for code in 0..(v as u64).pow(t as u32) {
            let mut c = code;
            let mut obs = Vec::with_capacity(t);
            for _ in 0..t {
                obs.push((c % v as u64) as usize);
                c /= v as u64;
            }
            total += hmm.log_likelihood(&obs).exp();
        }
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn filtering_distributions_normalize() {
        let hmm = toy();
        let f = hmm.filter(&[0, 2, 1, 1]);
        for row in f {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn posteriors_normalize_and_are_consistent() {
        let hmm = toy();
        let obs = vec![0, 1, 2, 0];
        let p = hmm.posteriors(&obs);
        for row in &p.gamma {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        // Marginalizing xi over the destination recovers gamma at t.
        for t in 0..obs.len() - 1 {
            for i in 0..hmm.num_states() {
                let m: f64 = p.xi[t][i].iter().sum();
                assert!((m - p.gamma[t][i]).abs() < 1e-9);
            }
        }
        // Marginalizing xi over the source recovers gamma at t+1.
        for t in 0..obs.len() - 1 {
            for j in 0..hmm.num_states() {
                let m: f64 = (0..hmm.num_states()).map(|i| p.xi[t][i][j]).sum();
                assert!((m - p.gamma[t + 1][j]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn single_observation_sequence() {
        let hmm = toy();
        let p = hmm.posteriors(&[1]);
        assert_eq!(p.gamma.len(), 1);
        assert!(p.xi.is_empty());
        assert!((p.gamma[0].iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    /// Largest `|Σ_i gamma_t(i) − 1|`: how far a table's own rounding
    /// has drifted.
    fn drift(p: &Posteriors) -> f64 {
        p.gamma.iter().map(|row| (row.iter().sum::<f64>() - 1.0).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn scaled_posteriors_match_the_log_space_oracle() {
        let mut worst = 0.0f64;
        for (s, v, seed) in [(2usize, 3usize, 1u64), (3, 5, 2), (6, 8, 3), (10, 14, 4)] {
            let hmm = Hmm::random(s, v, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
            let data: Vec<Vec<usize>> =
                (0..12).map(|_| sample_sequence(&hmm, 24, &mut rng).observations).collect();
            // Pruning leaves −∞ transitions, which the linear tables hold
            // as exact zeros.
            let pruned = prune_transitions(&hmm, &data, 0.03).hmm;
            for model in [&hmm, &pruned] {
                for len in [1usize, 2, 3, 7, 30, 100, 500] {
                    let obs = sample_sequence(model, len, &mut rng).observations;
                    let (scaled, oracle) =
                        (model.posteriors(&obs), posteriors_log_space(model, &obs));
                    // Log-space sums round in proportion to the magnitude
                    // of log α_t, which grows with t, so the oracle drifts
                    // like T² (≈ 1e-11 at T = 500, visible as Σγ ≠ 1);
                    // the scaled pass's rounding grows like T. The gap is
                    // held to 1e-12 beyond the oracle's own drift.
                    assert!(drift(&scaled) <= 1e-13, "{s}x{v} len {len}: scaled pass drifted");
                    let gap = max_gap(&scaled, &oracle);
                    let bound = 1e-12 + 2.0 * drift(&oracle);
                    assert!(gap <= bound, "{s}x{v} seed {seed} len {len}: gap {gap:e} > {bound:e}");
                    if len <= 100 {
                        worst = worst.max(gap);
                    }
                }
            }
            assert!(pruned.num_active_transitions() < s * s || s <= 3, "{s}x{v}: nothing pruned");
        }
        assert!(worst > 0.0 && worst <= 1e-12, "worst gap up to T = 100: {worst:e}");
    }

    #[test]
    fn long_sequences_need_the_scaling() {
        // Unscaled, the forward mass of a 500-step sequence is far below
        // the smallest subnormal double: a plain linear pass reads 0.
        let hmm = Hmm::random(4, 8, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let obs = sample_sequence(&hmm, 500, &mut rng).observations;
        assert_eq!(hmm.log_likelihood(&obs).exp(), 0.0);
        let p = hmm.posteriors(&obs);
        for row in &p.gamma {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
        for xi_t in &p.xi {
            assert!((xi_t.iter().flatten().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn a_sequence_the_model_cannot_emit_has_no_posterior() {
        // Neither state emits symbol 2.
        let hmm = Hmm::new(
            vec![0.5, 0.5],
            vec![vec![0.9, 0.1], vec![0.2, 0.8]],
            vec![vec![0.5, 0.5, 0.0], vec![0.3, 0.7, 0.0]],
        )
        .unwrap();
        assert_eq!(hmm.log_likelihood(&[0, 2, 1]), f64::NEG_INFINITY);
        let p = hmm.posteriors(&[0, 2, 1]);
        assert!(p.gamma.iter().flatten().all(|g| g.is_nan()));
        assert!(p.xi.iter().flatten().flatten().all(|x| x.is_nan()));
        assert_eq!((p.gamma.len(), p.xi.len()), (3, 2));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_sequence_panics() {
        let hmm = toy();
        let _ = hmm.forward(&[]);
    }
}
