//! Exact inference: likelihoods, marginals, conditionals, MPE.
//!
//! All queries run in one or two linear sweeps over the circuit — the
//! tractability property that makes PCs the probabilistic backbone of
//! neuro-symbolic systems (paper Sec. II-C). Arithmetic is done in
//! log-space throughout.

use crate::circuit::{Circuit, NodeId, PcNode};

/// Partial evidence over the circuit's variables: `Some(v)` fixes a value,
/// `None` marginalizes the variable out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evidence {
    values: Vec<Option<usize>>,
}

impl Evidence {
    /// Evidence fixing nothing (full marginalization; probability 1 for a
    /// normalized circuit).
    pub fn empty(num_vars: usize) -> Self {
        Evidence { values: vec![None; num_vars] }
    }

    /// Evidence from a complete assignment.
    pub(crate) fn from_assignment(assignment: &[usize]) -> Self {
        Evidence { values: assignment.iter().map(|&v| Some(v)).collect() }
    }

    /// Evidence from optional values.
    pub fn from_values(values: &[Option<usize>]) -> Self {
        Evidence { values: values.to_vec() }
    }

    /// The optional value of variable `var`.
    pub fn value(&self, var: usize) -> Option<usize> {
        self.values[var]
    }

    /// Sets variable `var` to `value`.
    pub fn set(&mut self, var: usize, value: usize) -> &mut Self {
        self.values[var] = Some(value);
        self
    }

    /// Clears variable `var` (marginalizes it).
    pub fn clear(&mut self, var: usize) -> &mut Self {
        self.values[var] = None;
        self
    }

    /// Number of variables covered.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no variable is covered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Reusable scratch space for circuit evaluation.
///
/// Every query needs a per-node value array (and MPE additionally an
/// argmax array and a traversal stack); allocating those afresh per
/// call dominates the cost of *repeated* queries on one circuit —
/// marginal sweeps, MPE sweeps, the approximate engine's exact-oracle
/// training labels. A caller-held `EvalBuffer` amortizes them: the
/// first query sizes the buffers, every later query reuses them.
///
/// ```
/// use reason_pc::{CircuitBuilder, EvalBuffer, Evidence};
///
/// let mut b = CircuitBuilder::new(vec![2]);
/// let leaf = b.categorical(0, &[0.25, 0.75]);
/// let c = b.build(leaf).unwrap();
/// let mut buf = EvalBuffer::new();
/// let mut ev = Evidence::empty(1);
/// ev.set(0, 1);
/// let lp = c.log_probability_with(&ev, &mut buf);
/// assert!((lp.exp() - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EvalBuffer {
    vals: Vec<f64>,
    arg: Vec<usize>,
    stack: Vec<NodeId>,
}

impl EvalBuffer {
    /// An empty buffer; the first query sizes it.
    pub fn new() -> Self {
        EvalBuffer::default()
    }
}

/// Result of a most-probable-explanation query.
#[derive(Debug, Clone, PartialEq)]
pub struct MpeResult {
    /// The maximizing complete assignment (evidence variables keep their
    /// observed values).
    pub assignment: Vec<usize>,
    /// Log-probability of the max-product circuit value. For deterministic
    /// circuits this is the exact MPE log-probability.
    pub log_prob: f64,
}

impl Circuit {
    /// Evaluates every node bottom-up under `evidence`, returning the
    /// log-value per node. `out[root]` is the log-probability of the
    /// evidence.
    ///
    /// Allocates a fresh value vector; repeated queries should prefer
    /// [`log_values_into`](Self::log_values_into) with a caller-held
    /// [`EvalBuffer`].
    ///
    /// # Panics
    ///
    /// Panics if `evidence.len() != self.num_vars()`.
    pub(crate) fn log_values(&self, evidence: &Evidence) -> Vec<f64> {
        let mut buf = EvalBuffer::new();
        self.log_values_into(evidence, &mut buf);
        buf.vals
    }

    /// Evaluates every node bottom-up under `evidence` into `buf`,
    /// returning the root's log-value (the log-probability of the
    /// evidence).
    ///
    /// This is the flattened, allocation-free evaluator: one linear
    /// sweep over the node array, no per-call heap traffic once the
    /// buffer is warm (sum mixtures are folded inline in two passes
    /// instead of materializing a scratch vector).
    ///
    /// # Panics
    ///
    /// Panics if `evidence.len() != self.num_vars()`.
    fn log_values_into(&self, evidence: &Evidence, buf: &mut EvalBuffer) -> f64 {
        assert_eq!(evidence.len(), self.num_vars(), "evidence arity mismatch");
        buf.vals.clear();
        buf.vals.resize(self.num_nodes(), 0.0);
        let vals = &mut buf.vals;
        for (i, node) in self.nodes().iter().enumerate() {
            vals[i] = match node {
                PcNode::Indicator { var, value } => match evidence.value(*var) {
                    Some(v) if v == *value => 0.0,
                    Some(_) => f64::NEG_INFINITY,
                    None => 0.0, // marginalized: Σ_v [v = value] = 1
                },
                PcNode::Categorical { var, log_probs } => match evidence.value(*var) {
                    Some(v) => log_probs[v],
                    None => 0.0, // distributions sum to 1
                },
                PcNode::Product { children } => children.iter().map(|c| vals[c.index()]).sum(),
                PcNode::Sum { children, log_weights } => {
                    // Inline log-sum-exp: max pass then sum pass, same
                    // numerics as `crate::log_sum_exp` without the
                    // scratch vector.
                    let m = children
                        .iter()
                        .zip(log_weights)
                        .map(|(c, lw)| lw + vals[c.index()])
                        .fold(f64::NEG_INFINITY, f64::max);
                    if m == f64::NEG_INFINITY {
                        f64::NEG_INFINITY
                    } else {
                        let total: f64 = children
                            .iter()
                            .zip(log_weights)
                            .map(|(c, lw)| (lw + vals[c.index()] - m).exp())
                            .sum();
                        m + total.ln()
                    }
                }
            };
        }
        vals[self.root().index()]
    }

    /// Log-probability of the evidence.
    pub(crate) fn log_probability(&self, evidence: &Evidence) -> f64 {
        self.log_values(evidence)[self.root().index()]
    }

    /// `log_probability` through a reusable
    /// [`EvalBuffer`] — the repeated-query fast path.
    pub fn log_probability_with(&self, evidence: &Evidence, buf: &mut EvalBuffer) -> f64 {
        self.log_values_into(evidence, buf)
    }

    /// Probability of the evidence (linear space).
    pub fn probability(&self, evidence: &Evidence) -> f64 {
        self.log_probability(evidence).exp()
    }

    /// [`probability`](Self::probability) through a reusable
    /// [`EvalBuffer`].
    pub fn probability_with(&self, evidence: &Evidence, buf: &mut EvalBuffer) -> f64 {
        self.log_values_into(evidence, buf).exp()
    }

    /// Log-likelihood of a complete assignment.
    pub fn log_likelihood(&self, assignment: &[usize]) -> f64 {
        self.log_probability(&Evidence::from_assignment(assignment))
    }

    /// The marginal distribution of `var` given `evidence` (any setting of
    /// `var` inside `evidence` is ignored).
    ///
    /// Returns a normalized probability vector of length `arity(var)`.
    /// Returns a uniform distribution when the evidence itself has zero
    /// probability.
    pub fn marginal(&self, evidence: &Evidence, var: usize) -> Vec<f64> {
        self.marginal_with(evidence, var, &mut EvalBuffer::new())
    }

    /// [`marginal`](Self::marginal) through a reusable [`EvalBuffer`]:
    /// the `arity + 1` circuit evaluations of one marginal query share
    /// the buffer, and sweeps over many variables reuse it across
    /// calls.
    pub fn marginal_with(&self, evidence: &Evidence, var: usize, buf: &mut EvalBuffer) -> Vec<f64> {
        let mut ev = evidence.clone();
        ev.clear(var);
        let log_z = self.log_probability_with(&ev, buf);
        let arity = self.arities()[var];
        if log_z == f64::NEG_INFINITY {
            return vec![1.0 / arity as f64; arity];
        }
        (0..arity)
            .map(|v| {
                ev.set(var, v);
                (self.log_probability_with(&ev, buf) - log_z).exp()
            })
            .collect()
    }

    /// Conditional probability `p(query | evidence)`, where `query` assigns
    /// additional variables on top of `evidence`.
    ///
    /// Returns `None` when the evidence has zero probability.
    #[cfg(test)]
    fn conditional(&self, evidence: &Evidence, query: &[(usize, usize)]) -> Option<f64> {
        let log_e = self.log_probability(evidence);
        if log_e == f64::NEG_INFINITY {
            return None;
        }
        let mut joint = evidence.clone();
        for &(var, value) in query {
            joint.set(var, value);
        }
        Some((self.log_probability(&joint) - log_e).exp())
    }

    /// Most probable explanation: completes `evidence` with the assignment
    /// maximizing the max-product circuit value.
    ///
    /// For deterministic circuits (e.g. from [`crate::compile::compile_cnf`])
    /// the result is the exact MPE; otherwise it is the standard
    /// max-product approximation.
    pub fn mpe(&self, evidence: &Evidence) -> MpeResult {
        self.mpe_with(evidence, &mut EvalBuffer::new())
    }

    /// [`mpe`](Self::mpe) through a reusable [`EvalBuffer`] — MPE
    /// sweeps over many evidence patterns reuse the value/argmax
    /// arrays and the traversal stack.
    pub fn mpe_with(&self, evidence: &Evidence, buf: &mut EvalBuffer) -> MpeResult {
        // Upward max pass.
        let n = self.num_nodes();
        buf.vals.clear();
        buf.vals.resize(n, 0.0);
        buf.arg.clear();
        buf.arg.resize(n, 0); // argmax child position for sums
        let (vals, arg) = (&mut buf.vals, &mut buf.arg);
        for (i, node) in self.nodes().iter().enumerate() {
            match node {
                PcNode::Indicator { var, value } => {
                    vals[i] = match evidence.value(*var) {
                        Some(v) if v == *value => 0.0,
                        Some(_) => f64::NEG_INFINITY,
                        None => 0.0,
                    };
                }
                PcNode::Categorical { var, log_probs } => {
                    vals[i] = match evidence.value(*var) {
                        Some(v) => log_probs[v],
                        None => log_probs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                    };
                }
                PcNode::Product { children } => {
                    vals[i] = children.iter().map(|c| vals[c.index()]).sum();
                }
                PcNode::Sum { children, log_weights } => {
                    let (best, best_val) = children
                        .iter()
                        .zip(log_weights)
                        .enumerate()
                        .map(|(k, (c, lw))| (k, lw + vals[c.index()]))
                        .fold((0, f64::NEG_INFINITY), |acc, x| if x.1 > acc.1 { x } else { acc });
                    vals[i] = best_val;
                    arg[i] = best;
                }
            }
        }
        // Downward trace selecting one child per sum.
        let mut assignment: Vec<usize> =
            (0..self.num_vars()).map(|v| evidence.value(v).unwrap_or(0)).collect();
        let stack = &mut buf.stack;
        stack.clear();
        stack.push(self.root());
        while let Some(id) = stack.pop() {
            match self.node(id) {
                PcNode::Indicator { var, value } => {
                    if evidence.value(*var).is_none() {
                        assignment[*var] = *value;
                    }
                }
                PcNode::Categorical { var, log_probs } => {
                    if evidence.value(*var).is_none() {
                        let best =
                            log_probs
                                .iter()
                                .enumerate()
                                .fold((0, f64::NEG_INFINITY), |acc, (k, &lp)| {
                                    if lp > acc.1 {
                                        (k, lp)
                                    } else {
                                        acc
                                    }
                                })
                                .0;
                        assignment[*var] = best;
                    }
                }
                PcNode::Product { children } => stack.extend(children.iter().copied()),
                PcNode::Sum { children, .. } => stack.push(children[arg[id.index()]]),
            }
        }
        MpeResult { assignment, log_prob: vals[self.root().index()] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;

    /// Mixture: 0.3 * [x0=1][x1=1] + 0.7 * [x0=0]Cat(x1; 0.2, 0.8)
    fn mixed_circuit() -> Circuit {
        let mut b = CircuitBuilder::new(vec![2, 2]);
        let x0t = b.indicator(0, 1);
        let x0f = b.indicator(0, 0);
        let x1t = b.indicator(1, 1);
        let cat = b.categorical(1, &[0.2, 0.8]);
        let p0 = b.product(vec![x0t, x1t]);
        let p1 = b.product(vec![x0f, cat]);
        let root = b.sum(vec![p0, p1], vec![0.3, 0.7]);
        b.build(root).unwrap()
    }

    fn enumerate_probability(c: &Circuit, fixed: &[Option<usize>]) -> f64 {
        // Brute-force: sum over all completions.
        let n = c.num_vars();
        let mut total = 0.0;
        let mut assignment = vec![0usize; n];
        fn rec(
            c: &Circuit,
            fixed: &[Option<usize>],
            assignment: &mut Vec<usize>,
            var: usize,
            total: &mut f64,
        ) {
            if var == fixed.len() {
                *total += c.log_likelihood(assignment).exp();
                return;
            }
            match fixed[var] {
                Some(v) => {
                    assignment[var] = v;
                    rec(c, fixed, assignment, var + 1, total);
                }
                None => {
                    for v in 0..c.arities()[var] {
                        assignment[var] = v;
                        rec(c, fixed, assignment, var + 1, total);
                    }
                }
            }
        }
        rec(c, fixed, &mut assignment, 0, &mut total);
        total
    }

    #[test]
    fn normalizes_to_one() {
        let c = mixed_circuit();
        let p = c.probability(&Evidence::empty(2));
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn joint_probabilities_match_enumeration() {
        let c = mixed_circuit();
        for x0 in 0..2 {
            for x1 in 0..2 {
                let p = c.probability(&Evidence::from_assignment(&[x0, x1]));
                let brute = enumerate_probability(&c, &[Some(x0), Some(x1)]);
                assert!((p - brute).abs() < 1e-12, "p({x0},{x1})");
            }
        }
    }

    #[test]
    fn marginals_match_enumeration_and_sum_to_one() {
        let c = mixed_circuit();
        let m = c.marginal(&Evidence::empty(2), 1);
        assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let brute1 = enumerate_probability(&c, &[None, Some(1)]);
        assert!((m[1] - brute1).abs() < 1e-12);
    }

    #[test]
    fn conditional_definition_holds() {
        let c = mixed_circuit();
        let mut ev = Evidence::empty(2);
        ev.set(0, 0);
        let cond = c.conditional(&ev, &[(1, 1)]).unwrap();
        let joint = c.probability(&Evidence::from_assignment(&[0, 1]));
        let marg = c.probability(&ev);
        assert!((cond - joint / marg).abs() < 1e-12);
    }

    #[test]
    fn conditional_on_impossible_evidence_is_none() {
        // x0=1 branch requires x1=1; evidence x0=1, x1=0 has probability 0.
        let c = mixed_circuit();
        let ev = Evidence::from_assignment(&[1, 0]);
        assert_eq!(c.conditional(&ev, &[(0, 1)]), None);
    }

    #[test]
    fn mpe_finds_the_mode() {
        let c = mixed_circuit();
        let res = c.mpe(&Evidence::empty(2));
        // Best complete assignment: x0=0, x1=1 with p = 0.7*0.8 = 0.56.
        assert_eq!(res.assignment, vec![0, 1]);
        assert!((res.log_prob.exp() - 0.56).abs() < 1e-12);
    }

    #[test]
    fn mpe_respects_evidence() {
        let c = mixed_circuit();
        let mut ev = Evidence::empty(2);
        ev.set(0, 1);
        let res = c.mpe(&ev);
        assert_eq!(res.assignment[0], 1);
        assert_eq!(res.assignment[1], 1); // forced by the x0=1 branch
    }

    #[test]
    fn zero_probability_evidence() {
        let c = mixed_circuit();
        // x0=1 requires x1=1.
        let p = c.probability(&Evidence::from_assignment(&[1, 0]));
        assert_eq!(p, 0.0);
        // Marginal under impossible evidence falls back to uniform.
        let mut ev = Evidence::empty(2);
        ev.set(0, 1);
        ev.set(1, 0);
        let m = c.marginal(&ev, 0);
        // With var 0 cleared the evidence is x1=0, which is possible.
        assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
