//! DFA-constrained HMM inference — the Ctrl-G / GeLaTo kernel.
//!
//! Ctrl-G (paper Table I, \[23\]) and GeLaTo (\[29\]) impose hard lexical
//! constraints on language-model generation by intersecting an HMM proxy of
//! the LM with a deterministic finite automaton encoding the constraint.
//! Inference runs on the *product* state space (hmm state × dfa state):
//! the probability that a length-`T` emission satisfies the constraint and
//! the most likely accepted sequence.
//!
//! With `s` HMM states, `q` DFA states and `v` symbols, the two kernels
//! work differently:
//!
//! * `Hmm::constrained_log_probability` is a sum-product pass in the
//!   **linear domain**, the way the paper's tree PEs add and multiply
//!   probabilities (Sec. V). The model's tables are exponentiated once per
//!   call; each position is a transition step `u[j][a] = Σᵢ α[i][a]·T[i][j]`
//!   over the non-zero transitions (pruned ones are skipped) followed by an
//!   emission step through the automaton, `α'[j][δ(a, x)] += u[j][a]·E[j][x]`
//!   — `s²q + sqv` multiply-adds per step instead of `s²qv` log-sum-exp
//!   terms. Each transition step divides by the forward vector's sum `c`
//!   (folded into the `s²` transition factors) and adds `ln c` to a log
//!   scale, so the vector stays normalized and nothing underflows; one
//!   more `ln` reads the accepted mass at the end. An unsatisfiable
//!   constraint leaves exactly zero accepted mass and reads exactly `-inf`.
//!   The result agrees with the log-space recursion to about `1e-14`,
//!   not bit for bit.
//! * [`Hmm::constrained_decode`] is a max-plus (Viterbi) pass and stays in
//!   **log space**, unfactorized: it visits candidates in the order
//!   (previous HMM state, previous DFA state, next HMM state, symbol) with
//!   a strict `>`, so ties keep the first candidate. It skips `−∞`
//!   transitions, which can never win a strict `>`, so `best_sequence` and
//!   `best_log_prob` are bit-exact constants of the model and the
//!   automaton.

use crate::infer::LinearTables;
use crate::Hmm;

/// A deterministic finite automaton over the HMM's symbol alphabet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dfa {
    start: usize,
    /// `transitions[state][symbol]` = next state.
    transitions: Vec<Vec<usize>>,
    accepting: Vec<bool>,
}

impl Dfa {
    /// Builds a DFA from explicit tables.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree or any target state is out of range.
    pub fn new(start: usize, transitions: Vec<Vec<usize>>, accepting: Vec<bool>) -> Self {
        let n = transitions.len();
        assert_eq!(accepting.len(), n, "accepting flags must cover all states");
        assert!(start < n, "start state out of range");
        for row in &transitions {
            assert!(row.iter().all(|&t| t < n), "transition target out of range");
        }
        Dfa { start, transitions, accepting }
    }

    /// The automaton accepting exactly the sequences that contain
    /// `keyword` as a contiguous substring (KMP failure automaton).
    ///
    /// # Panics
    ///
    /// Panics if the keyword is empty or mentions a symbol `>= num_symbols`.
    pub fn contains_keyword(keyword: &[usize], num_symbols: usize) -> Self {
        assert!(!keyword.is_empty(), "keyword must be non-empty");
        assert!(keyword.iter().all(|&s| s < num_symbols), "keyword symbol out of range");
        let m = keyword.len();
        // Failure function.
        let mut fail = vec![0usize; m];
        let mut k = 0;
        for i in 1..m {
            while k > 0 && keyword[i] != keyword[k] {
                k = fail[k - 1];
            }
            if keyword[i] == keyword[k] {
                k += 1;
            }
            fail[i] = k;
        }
        // States 0..m track the longest matched prefix; state m is accepting
        // and absorbing.
        let mut transitions = vec![vec![0usize; num_symbols]; m + 1];
        for state in 0..m {
            for sym in 0..num_symbols {
                let mut k = state;
                while k > 0 && keyword[k] != sym {
                    k = fail[k - 1];
                }
                let next = if keyword[k] == sym { k + 1 } else { 0 };
                transitions[state][sym] = next;
            }
        }
        for sym in 0..num_symbols {
            transitions[m][sym] = m;
        }
        let mut accepting = vec![false; m + 1];
        accepting[m] = true;
        Dfa { start: 0, transitions, accepting }
    }

    /// The automaton accepting sequences that *avoid* the given symbol
    /// entirely (a simple lexical ban, another common Ctrl-G constraint).
    pub fn avoids_symbol(banned: usize, num_symbols: usize) -> Self {
        assert!(banned < num_symbols, "banned symbol out of range");
        // State 0 = clean (accepting), state 1 = violated (absorbing).
        let mut transitions = vec![vec![0usize; num_symbols]; 2];
        transitions[0][banned] = 1;
        for sym in 0..num_symbols {
            transitions[1][sym] = 1;
        }
        Dfa { start: 0, transitions, accepting: vec![true, false] }
    }

    /// Number of automaton states.
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// The start state.
    #[cfg(test)]
    fn start(&self) -> usize {
        self.start
    }

    /// Next state on reading `symbol` in `state`.
    pub fn step(&self, state: usize, symbol: usize) -> usize {
        self.transitions[state][symbol]
    }

    /// `true` when `state` is accepting.
    pub fn is_accepting(&self, state: usize) -> bool {
        self.accepting[state]
    }

    /// Runs the automaton over a sequence and reports acceptance.
    pub fn accepts(&self, seq: &[usize]) -> bool {
        let mut s = self.start;
        for &sym in seq {
            s = self.step(s, sym);
        }
        self.accepting[s]
    }
}

/// Results of constrained inference over the HMM×DFA product.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstrainedResult {
    /// `log p(constraint satisfied)` for emissions of the requested length.
    pub log_prob_satisfied: f64,
    /// Most likely accepted emission sequence (empty when unsatisfiable).
    pub best_sequence: Vec<usize>,
    /// Joint log-probability of the best sequence and its best hidden path,
    /// `NEG_INFINITY` when no accepted sequence exists.
    pub best_log_prob: f64,
}

impl Hmm {
    /// Probability that a length-`len` emission sequence satisfies `dfa`,
    /// computed by a forward pass over the product space — the core
    /// "probabilistic aggregation" kernel REASON accelerates for Ctrl-G.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    fn constrained_log_probability(&self, dfa: &Dfa, len: usize) -> f64 {
        assert!(len > 0, "length must be positive");
        let m = LinearTables::new(self);
        let (s, q, v) = (m.states, dfa.num_states(), m.symbols);
        // alpha[i * q + a] ∝ p(x_0..x_t, z_t = i, dfa state a); the
        // dropped factor is exp(log_scale).
        let mut alpha = vec![0.0f64; s * q];
        let start = &dfa.transitions[dfa.start];
        for (i, emit) in m.emit.chunks_exact(v).enumerate() {
            for (&a, &e) in start.iter().zip(emit) {
                alpha[i * q + a] += m.init[i] * e;
            }
        }
        let mut log_scale = 0.0f64;
        let mut u = vec![0.0f64; s * q];
        for _ in 1..len {
            // Every emission ends in some DFA state, so the sum is the
            // mass of all emissions so far: 1 for a normalized model (never
            // 0), and what drifts when rows sum to 1 only within tolerance.
            let c: f64 = alpha.iter().sum();
            log_scale += c.ln();
            // Transition step: u[j][a] = Σ_i alpha[i][a] · T[i][j].
            u.fill(0.0);
            for (from, row) in alpha.chunks_exact(q).zip(m.trans.chunks_exact(s)) {
                for (j, &t) in row.iter().enumerate() {
                    if t == 0.0 {
                        continue;
                    }
                    let t = t / c;
                    for (to, &f) in u[j * q..(j + 1) * q].iter_mut().zip(from) {
                        *to += f * t;
                    }
                }
            }
            // Emission step through the automaton.
            alpha.fill(0.0);
            for (j, (mass, emit)) in u.chunks_exact(q).zip(m.emit.chunks_exact(v)).enumerate() {
                let next = &mut alpha[j * q..(j + 1) * q];
                for (a, &x) in mass.iter().enumerate() {
                    if x == 0.0 {
                        continue;
                    }
                    for (&a2, &e) in dfa.transitions[a].iter().zip(emit) {
                        next[a2] += x * e;
                    }
                }
            }
        }
        let accepted: f64 = alpha
            .chunks_exact(q)
            .flat_map(|row| row.iter().zip(&dfa.accepting).filter(|(_, &ok)| ok).map(|(p, _)| p))
            .sum();
        accepted.ln() + log_scale
    }

    /// Most likely accepted emission sequence of length `len` (max-product
    /// over the product space, maximizing jointly over hidden states and
    /// symbols).
    pub fn constrained_decode(&self, dfa: &Dfa, len: usize) -> ConstrainedResult {
        assert!(len > 0, "length must be positive");
        let s = self.num_states();
        let q = dfa.num_states();
        let n = s * q;
        let log_emit = self.log_emit();
        // The finite transitions of each row, in column order.
        let active: Vec<Vec<(usize, f64)>> = self
            .log_trans()
            .iter()
            .map(|row| {
                row.iter().copied().enumerate().filter(|&(_, lt)| lt > f64::NEG_INFINITY).collect()
            })
            .collect();
        // delta[t * n + i * q + a] = best log-prob reaching state (i, a)
        // after t + 1 symbols; back[..] = (prev i, prev a, symbol at t).
        let mut delta = vec![f64::NEG_INFINITY; len * n];
        let mut back = vec![(0usize, 0usize, 0usize); len * n];
        let start = &dfa.transitions[dfa.start];
        for i in 0..s {
            for (sym, &a) in start.iter().enumerate() {
                let lp = self.log_init()[i] + log_emit[i][sym];
                let k = i * q + a;
                if lp > delta[k] {
                    delta[k] = lp;
                    back[k] = (0, dfa.start, sym);
                }
            }
        }
        for t in 1..len {
            let (done, rest) = delta.split_at_mut(t * n);
            let (prev, cur) = (&done[(t - 1) * n..], &mut rest[..n]);
            let back_t = &mut back[t * n..(t + 1) * n];
            for (i, row) in active.iter().enumerate() {
                for a in 0..q {
                    let d = prev[i * q + a];
                    if d == f64::NEG_INFINITY {
                        continue;
                    }
                    let step = &dfa.transitions[a];
                    for &(j, lt) in row {
                        let lt = d + lt;
                        for (sym, (&a2, &le)) in step.iter().zip(&log_emit[j]).enumerate() {
                            let lp = lt + le;
                            let k = j * q + a2;
                            if lp > cur[k] {
                                cur[k] = lp;
                                back_t[k] = (i, a, sym);
                            }
                        }
                    }
                }
            }
        }
        // Best accepting endpoint.
        let last = &delta[(len - 1) * n..];
        let mut best_end = None;
        let mut best = f64::NEG_INFINITY;
        for i in 0..s {
            for a in 0..q {
                if dfa.is_accepting(a) && last[i * q + a] > best {
                    best = last[i * q + a];
                    best_end = Some((i, a));
                }
            }
        }
        let log_prob_satisfied = self.constrained_log_probability(dfa, len);
        let Some((mut i, mut a)) = best_end else {
            return ConstrainedResult {
                log_prob_satisfied,
                best_sequence: Vec::new(),
                best_log_prob: f64::NEG_INFINITY,
            };
        };
        let mut seq = vec![0usize; len];
        for t in (0..len).rev() {
            let (pi, pa, sym) = back[t * n + i * q + a];
            seq[t] = sym;
            i = pi;
            a = pa;
        }
        ConstrainedResult { log_prob_satisfied, best_sequence: seq, best_log_prob: best }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log_sum_exp;
    use crate::prune::prune_transitions;
    use crate::sample::sample_sequence;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The log-space constrained forward pass the linear one replaced —
    /// one `log_sum_exp` per (i, a, j, symbol) term: its reference.
    fn constrained_log_probability_log_space(hmm: &Hmm, dfa: &Dfa, len: usize) -> f64 {
        let s = hmm.num_states();
        let q = dfa.num_states();
        let v = hmm.num_symbols();
        let idx = |i: usize, a: usize| i * q + a;
        let mut alpha = vec![f64::NEG_INFINITY; s * q];
        for i in 0..s {
            for sym in 0..v {
                let a = dfa.step(dfa.start(), sym);
                let lp = hmm.log_init()[i] + hmm.log_emit()[i][sym];
                let slot = &mut alpha[idx(i, a)];
                *slot = log_sum_exp(&[*slot, lp]);
            }
        }
        for _ in 1..len {
            let mut next = vec![f64::NEG_INFINITY; s * q];
            for i in 0..s {
                for a in 0..q {
                    let cur = alpha[idx(i, a)];
                    if cur == f64::NEG_INFINITY {
                        continue;
                    }
                    for j in 0..s {
                        let lt = cur + hmm.log_trans()[i][j];
                        for sym in 0..v {
                            let a2 = dfa.step(a, sym);
                            let lp = lt + hmm.log_emit()[j][sym];
                            let slot = &mut next[idx(j, a2)];
                            *slot = log_sum_exp(&[*slot, lp]);
                        }
                    }
                }
            }
            alpha = next;
        }
        let accepted: Vec<f64> = (0..s)
            .flat_map(|i| (0..q).filter(|&a| dfa.is_accepting(a)).map(move |a| idx(i, a)))
            .map(|k| alpha[k])
            .collect();
        log_sum_exp(&accepted)
    }

    /// Sequences that begin with `prefix` and are accepted by `inner`: the
    /// Ctrl-G shape (prefix acceptor × keyword automaton).
    fn with_prefix(prefix: &[usize], inner: &Dfa, v: usize) -> Dfa {
        let (p, kq) = (prefix.len(), inner.num_states());
        let dead = p + 1;
        let id = |ps: usize, ks: usize| ps * kq + ks;
        let mut transitions = vec![vec![0usize; v]; (p + 2) * kq];
        let mut accepting = vec![false; (p + 2) * kq];
        for ps in 0..=dead {
            for ks in 0..kq {
                for sym in 0..v {
                    // Matched and dead are absorbing.
                    let np = if ps >= p {
                        ps
                    } else if prefix[ps] == sym {
                        ps + 1
                    } else {
                        dead
                    };
                    transitions[id(ps, ks)][sym] = id(np, inner.step(ks, sym));
                }
                accepting[id(ps, ks)] = ps == p && inner.is_accepting(ks);
            }
        }
        Dfa::new(id(0, inner.start()), transitions, accepting)
    }

    /// Keyword, prefix+keyword, avoid and an arbitrary automaton over `v`
    /// symbols.
    fn dfa_kinds(v: usize, rng: &mut StdRng) -> Vec<Dfa> {
        let mut word = |n: usize| -> Vec<usize> { (0..n).map(|_| rng.gen_range(0..v)).collect() };
        let keyword = Dfa::contains_keyword(&word(2), v);
        let prefixed = with_prefix(&word(2), &keyword, v);
        let avoid = Dfa::avoids_symbol(word(1)[0], v);
        let q = 5;
        let transitions = (0..q).map(|_| word(v).iter().map(|&x| x % q).collect()).collect();
        let arbitrary = Dfa::new(0, transitions, vec![false, true, false, true, false]);
        vec![keyword, prefixed, avoid, arbitrary]
    }

    /// `|a − b|` relative to `|b|`, absolute below 1; equal infinities are 0.
    fn relative_gap(a: f64, b: f64) -> f64 {
        if a == b {
            0.0
        } else {
            (a - b).abs() / b.abs().max(1.0)
        }
    }

    fn toy() -> Hmm {
        Hmm::new(
            vec![0.5, 0.5],
            vec![vec![0.8, 0.2], vec![0.3, 0.7]],
            vec![vec![0.6, 0.3, 0.1], vec![0.1, 0.2, 0.7]],
        )
        .unwrap()
    }

    /// Brute force: enumerate all emission sequences of length `len`,
    /// summing likelihoods of those accepted by the DFA.
    fn brute_constrained(hmm: &Hmm, dfa: &Dfa, len: usize) -> f64 {
        let v = hmm.num_symbols();
        let mut total = 0.0;
        for code in 0..(v as u64).pow(len as u32) {
            let mut c = code;
            let mut obs = Vec::with_capacity(len);
            for _ in 0..len {
                obs.push((c % v as u64) as usize);
                c /= v as u64;
            }
            if dfa.accepts(&obs) {
                total += hmm.log_likelihood(&obs).exp();
            }
        }
        total
    }

    #[test]
    fn keyword_dfa_accepts_correctly() {
        let dfa = Dfa::contains_keyword(&[1, 2], 3);
        assert!(dfa.accepts(&[0, 1, 2, 0]));
        assert!(dfa.accepts(&[1, 2]));
        assert!(!dfa.accepts(&[1, 1, 0, 2]));
        assert!(!dfa.accepts(&[2, 1]));
        // Overlapping prefixes: keyword 1,1,2 in 1,1,1,2.
        let dfa = Dfa::contains_keyword(&[1, 1, 2], 3);
        assert!(dfa.accepts(&[1, 1, 1, 2]));
        assert!(!dfa.accepts(&[1, 2, 1]));
    }

    #[test]
    fn avoid_dfa_accepts_correctly() {
        let dfa = Dfa::avoids_symbol(2, 3);
        assert!(dfa.accepts(&[0, 1, 1, 0]));
        assert!(!dfa.accepts(&[0, 2, 0]));
    }

    #[test]
    fn constrained_probability_matches_brute_force() {
        let hmm = toy();
        for len in 1..=4 {
            let dfa = Dfa::contains_keyword(&[1, 2], 3);
            let p = hmm.constrained_log_probability(&dfa, len).exp();
            let brute = brute_constrained(&hmm, &dfa, len);
            assert!((p - brute).abs() < 1e-10, "len {len}: {p} vs {brute}");
        }
    }

    #[test]
    fn avoid_constraint_probability_matches() {
        let hmm = toy();
        let dfa = Dfa::avoids_symbol(0, 3);
        for len in 1..=4 {
            let p = hmm.constrained_log_probability(&dfa, len).exp();
            let brute = brute_constrained(&hmm, &dfa, len);
            assert!((p - brute).abs() < 1e-10);
        }
    }

    #[test]
    fn satisfied_and_violated_probabilities_sum_to_one() {
        let hmm = toy();
        let keep = Dfa::avoids_symbol(1, 3);
        // Complement DFA: same transitions, flipped acceptance.
        let complement = Dfa::new(0, vec![vec![0, 1, 0], vec![1, 1, 1]], vec![false, true]);
        let len = 3;
        let a = hmm.constrained_log_probability(&keep, len).exp();
        let b = hmm.constrained_log_probability(&complement, len).exp();
        assert!((a + b - 1.0).abs() < 1e-9);
    }

    #[test]
    fn decode_returns_accepted_sequence() {
        let hmm = toy();
        let dfa = Dfa::contains_keyword(&[0, 0], 3);
        let res = hmm.constrained_decode(&dfa, 4);
        assert_eq!(res.best_sequence.len(), 4);
        assert!(dfa.accepts(&res.best_sequence));
        assert!(res.best_log_prob > f64::NEG_INFINITY);
        assert!(res.best_log_prob <= res.log_prob_satisfied + 1e-12);
    }

    #[test]
    fn impossible_constraint_yields_zero() {
        let hmm = toy();
        // Keyword longer than the sequence cannot appear.
        let dfa = Dfa::contains_keyword(&[0, 1, 2, 0], 3);
        let res = hmm.constrained_decode(&dfa, 2);
        assert_eq!(res.log_prob_satisfied, f64::NEG_INFINITY);
        assert!(res.best_sequence.is_empty());
    }

    #[test]
    fn linear_forward_matches_the_log_space_oracle() {
        let mut worst = 0.0f64;
        for (s, v, seed) in [(2usize, 3usize, 1u64), (4, 6, 2), (7, 9, 3)] {
            let hmm = Hmm::random(s, v, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xF0F0);
            let data: Vec<Vec<usize>> =
                (0..20).map(|_| sample_sequence(&hmm, 16, &mut rng).observations).collect();
            // Below 60 % of the mean share: a third or so of the edges go.
            let pruned = prune_transitions(&hmm, &data, 0.6 / (s * s) as f64).hmm;
            assert!(pruned.num_active_transitions() < s * s, "{s}x{v}: nothing pruned");
            for model in [&hmm, &pruned] {
                for dfa in dfa_kinds(v, &mut rng) {
                    let lens: Vec<usize> = if s == 2 {
                        (1..=40).chain([97, 256]).collect()
                    } else {
                        vec![1, 2, 3, 9, 64, 256]
                    };
                    for len in lens {
                        let linear = model.constrained_log_probability(&dfa, len);
                        let oracle = constrained_log_probability_log_space(model, &dfa, len);
                        assert_eq!(linear == f64::NEG_INFINITY, oracle == f64::NEG_INFINITY);
                        let gap = relative_gap(linear, oracle);
                        assert!(gap <= 1e-12, "{s}x{v} len {len}: {linear} vs {oracle}");
                        worst = worst.max(gap);
                    }
                }
            }
        }
        assert!(worst > 0.0, "the two domains round differently somewhere");
    }

    #[test]
    fn unsatisfiable_constraints_read_exactly_minus_infinity() {
        let hmm = Hmm::random(5, 4, 8);
        // A keyword longer than the sequence, and an automaton whose
        // accepting state is unreachable.
        let long = Dfa::contains_keyword(&[0, 1, 2, 3, 0], 4);
        let sealed = Dfa::new(0, vec![vec![0, 0, 0, 0], vec![1, 1, 1, 1]], vec![false, true]);
        for len in 1..=4 {
            assert_eq!(hmm.constrained_log_probability(&long, len), f64::NEG_INFINITY);
        }
        for len in [1, 2, 50] {
            assert_eq!(hmm.constrained_log_probability(&sealed, len), f64::NEG_INFINITY);
            assert!(hmm.constrained_decode(&sealed, len).best_sequence.is_empty());
        }
        // A symbol no state emits, and a DFA that needs it.
        let mute = Hmm::new(
            vec![0.5, 0.5],
            vec![vec![0.6, 0.4], vec![0.3, 0.7]],
            vec![vec![0.5, 0.5, 0.0], vec![0.2, 0.8, 0.0]],
        )
        .unwrap();
        let needs_2 = Dfa::contains_keyword(&[2], 3);
        assert_eq!(mute.constrained_log_probability(&needs_2, 6), f64::NEG_INFINITY);
        assert_eq!(constrained_log_probability_log_space(&mute, &needs_2, 6), f64::NEG_INFINITY);
    }

    #[test]
    fn unconstrained_dfa_gives_probability_one() {
        let hmm = toy();
        // Single accepting state looping on everything.
        let dfa = Dfa::new(0, vec![vec![0, 0, 0]], vec![true]);
        let p = hmm.constrained_log_probability(&dfa, 5).exp();
        assert!((p - 1.0).abs() < 1e-9);
    }
}
