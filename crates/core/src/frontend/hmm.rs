//! HMM → DAG lowering (paper Sec. IV-A (c)).
//!
//! The HMM is unrolled over `len` time steps: each step becomes a DAG
//! layer holding *emission factors* (weighted indicator mixtures over the
//! step's observation slot) and *transition factors* (products of the
//! previous forward message with transition constants, aggregated by
//! `Add`). The output node computes the sequence likelihood — exactly the
//! forward recursion of Eq. 2 expressed as "sequential message passing on
//! this DAG".

use reason_hmm::Hmm;

use crate::dag::{Dag, DagBuilder, DagOp, NodeId, NodeKind};

/// Mapping metadata produced by [`dag_from_hmm`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HmmDagMap {
    /// Unrolled sequence length.
    pub len: usize,
    /// Observable symbol count (input slots per step).
    pub num_symbols: usize,
    /// Hidden state count (forward messages per step).
    pub num_states: usize,
    /// `alpha_nodes[t * num_states + s]` = DAG node of the forward
    /// message for state `s` after step `t`.
    pub alpha_nodes: Vec<NodeId>,
}

impl HmmDagMap {
    /// The input slot of indicator `[x_t = symbol]`.
    pub fn observation_slot(&self, t: usize, symbol: usize) -> usize {
        t * self.num_symbols + symbol
    }

    /// Builds the DAG input vector for an observation sequence (one-hot
    /// per step). `None` entries marginalize the step.
    pub fn inputs_for_observations(&self, obs: &[Option<usize>]) -> Vec<f64> {
        assert_eq!(obs.len(), self.len, "observation length mismatch");
        let mut v = vec![1.0; self.len * self.num_symbols];
        for (t, o) in obs.iter().enumerate() {
            if let Some(sym) = o {
                for s in 0..self.num_symbols {
                    v[self.observation_slot(t, s)] = if s == *sym { 1.0 } else { 0.0 };
                }
            }
        }
        v
    }
}

/// Unrolls an HMM's forward recursion over `len` steps into the unified
/// DAG. Evaluating at a one-hot observation encoding yields the sequence
/// likelihood `p(x_{1..len})` in linear space.
///
/// # Panics
///
/// Panics if `len == 0`.
///
/// ```
/// use reason_core::dag_from_hmm;
/// use reason_hmm::Hmm;
/// let hmm = Hmm::random(3, 4, 1);
/// let (dag, map) = dag_from_hmm(&hmm, 5);
/// let obs = [0usize, 2, 1, 3, 0];
/// let wrapped: Vec<Option<usize>> = obs.iter().map(|&o| Some(o)).collect();
/// let got = dag.evaluate_output(&map.inputs_for_observations(&wrapped));
/// let expect = hmm.log_likelihood(&obs).exp();
/// assert!((got - expect).abs() < 1e-9);
/// ```
pub fn dag_from_hmm(hmm: &Hmm, len: usize) -> (Dag, HmmDagMap) {
    assert!(len > 0, "sequence length must be positive");
    let s = hmm.num_states();
    let v = hmm.num_symbols();
    let mut b = DagBuilder::new();
    // Upper bounds (before CSE): an emission factor is `v` constants,
    // `v` products and an `Add`; step 0 adds an initial constant and a
    // product per state, every later step `s` constants, `s` products,
    // an `Add` and a product per state; the output is one `Add`.
    let emission_nodes = 2 * v + 1;
    let nodes =
        len * v + s * (emission_nodes + 2) + (len - 1) * s * (2 * s + emission_nodes + 2) + 1;
    let edges = s * (3 * v + 2) + (len - 1) * s * (3 * s + 3 * v + 2) + s;
    b.reserve(nodes, edges);
    for slot in 0..len * v {
        let _ = b.input(slot as u32);
    }

    // Emission factor for state `state` at step `t`:
    // Σ_sym emit[state][sym] * λ[t, sym], its terms gathered in `parts`.
    let emission = |b: &mut DagBuilder, parts: &mut Vec<NodeId>, state: usize, t: usize| {
        parts.clear();
        for sym in 0..v {
            let lambda = b.input((t * v + sym) as u32);
            let w = b.constant(hmm.log_emit()[state][sym].exp());
            parts.push(b.node(DagOp::Mul, &[w, lambda], NodeKind::Emission));
        }
        b.node(DagOp::Add, parts, NodeKind::Emission)
    };

    // alpha_0(s) = init(s) * emission(s, 0)
    let mut alpha_nodes: Vec<NodeId> = Vec::with_capacity(len * s);
    let mut parts: Vec<NodeId> = Vec::with_capacity(s.max(v));
    for state in 0..s {
        let init = b.constant(hmm.log_init()[state].exp());
        let e = emission(&mut b, &mut parts, state, 0);
        alpha_nodes.push(b.node(DagOp::Mul, &[init, e], NodeKind::Transition));
    }

    for t in 1..len {
        let prev = (t - 1) * s;
        for j in 0..s {
            parts.clear();
            for i in 0..s {
                let w = b.constant(hmm.log_trans()[i][j].exp());
                parts.push(b.node(DagOp::Mul, &[w, alpha_nodes[prev + i]], NodeKind::Transition));
            }
            let agg = b.node(DagOp::Add, &parts, NodeKind::Transition);
            let e = emission(&mut b, &mut parts, j, t);
            alpha_nodes.push(b.node(DagOp::Mul, &[agg, e], NodeKind::Transition));
        }
    }

    let output = b.node(DagOp::Add, &alpha_nodes[(len - 1) * s..], NodeKind::Transition);
    let dag = b.build(output).expect("HMM lowering emits valid DAGs");
    (dag, HmmDagMap { len, num_symbols: v, num_states: s, alpha_nodes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn likelihoods_match_forward_algorithm() {
        let hmm = Hmm::random(3, 4, 7);
        for len in [1usize, 2, 5, 10] {
            let (dag, map) = dag_from_hmm(&hmm, len);
            let obs: Vec<usize> = (0..len).map(|t| t % 4).collect();
            let wrapped: Vec<Option<usize>> = obs.iter().map(|&o| Some(o)).collect();
            let got = dag.evaluate_output(&map.inputs_for_observations(&wrapped));
            let expect = hmm.log_likelihood(&obs).exp();
            assert!((got - expect).abs() < 1e-9, "len {len}");
        }
    }

    #[test]
    fn marginalized_steps_sum_out() {
        let hmm = Hmm::random(2, 3, 1);
        let (dag, map) = dag_from_hmm(&hmm, 3);
        // Fully marginalized: probability 1.
        let all = map.inputs_for_observations(&[None, None, None]);
        assert!((dag.evaluate_output(&all) - 1.0).abs() < 1e-9);
        // Middle step marginalized = sum over its symbols.
        let partial = map.inputs_for_observations(&[Some(0), None, Some(2)]);
        let mut expect = 0.0;
        for sym in 0..3 {
            expect += hmm.log_likelihood(&[0, sym, 2]).exp();
        }
        assert!((dag.evaluate_output(&partial) - expect).abs() < 1e-9);
    }

    #[test]
    fn unrolled_layers_per_step() {
        let hmm = Hmm::random(2, 2, 0);
        let (dag, map) = dag_from_hmm(&hmm, 4);
        assert_eq!(map.num_states, 2);
        assert_eq!(map.alpha_nodes.len(), 4 * 2);
        // Each step's messages are its layer's `Mul` roots.
        for (t, layer) in map.alpha_nodes.chunks(map.num_states).enumerate() {
            assert!(layer.iter().all(|&a| dag.node(a).op == DagOp::Mul), "step {t}");
        }
    }

    #[test]
    fn node_kinds_cover_factors() {
        let hmm = Hmm::random(2, 2, 3);
        let (dag, _) = dag_from_hmm(&hmm, 3);
        let kinds: std::collections::HashSet<_> = dag.nodes().map(|n| n.kind).collect();
        assert!(kinds.contains(&NodeKind::Transition));
        assert!(kinds.contains(&NodeKind::Emission));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_panics() {
        let hmm = Hmm::random(2, 2, 0);
        let _ = dag_from_hmm(&hmm, 0);
    }
}
