//! Probabilistic circuit → DAG lowering (paper Sec. IV-A (b)).
//!
//! Input slots carry indicator values `λ[var=value]` (the standard circuit
//! input encoding): a complete assignment sets a one-hot pattern per
//! variable, while all-ones marginalizes a variable out. Sum nodes lower
//! to `Add` over `Mul(Const(weight), child)` pairs, product nodes to
//! `Mul`, and leaves to indicator inputs or weighted indicator mixtures
//! (categoricals). Evaluating the DAG reproduces the circuit's
//! (linear-space) probability.

use reason_pc::{Circuit, PcNode};

use crate::dag::{Dag, DagBuilder, DagOp, NodeId, NodeKind};

/// Mapping metadata produced by [`dag_from_circuit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcDagMap {
    /// Input slot of indicator `[var = value]`: `slot_of[var] + value`.
    pub slot_of: Vec<usize>,
    /// DAG node corresponding to each circuit node.
    pub node_of: Vec<NodeId>,
}

impl PcDagMap {
    /// The input slot of indicator `[var = value]`.
    fn indicator_slot(&self, var: usize, value: usize) -> usize {
        self.slot_of[var] + value
    }

    /// Builds a DAG input vector for partial evidence (`None`
    /// marginalizes): one-hot for observed variables, all-ones otherwise.
    pub fn inputs_for_evidence(&self, arities: &[usize], evidence: &[Option<usize>]) -> Vec<f64> {
        let total: usize = arities.iter().sum();
        let mut v = vec![1.0; total];
        for (var, obs) in evidence.iter().enumerate() {
            if let Some(val) = obs {
                for value in 0..arities[var] {
                    v[self.indicator_slot(var, value)] = if value == *val { 1.0 } else { 0.0 };
                }
            }
        }
        v
    }
}

/// Lowers a probabilistic circuit into the unified DAG.
///
/// ```
/// use reason_core::dag_from_circuit;
/// use reason_pc::{CircuitBuilder, Evidence};
///
/// let mut b = CircuitBuilder::new(vec![2]);
/// let t = b.indicator(0, 1);
/// let f = b.indicator(0, 0);
/// let root = b.sum(&[t, f], &[0.3, 0.7]);
/// let circuit = b.build(root).unwrap();
/// let (dag, map) = dag_from_circuit(&circuit);
/// let inputs = map.inputs_for_evidence(circuit.arities(), &[Some(1)]);
/// assert!((dag.evaluate_output(&inputs) - 0.3).abs() < 1e-12);
/// ```
pub fn dag_from_circuit(circuit: &Circuit) -> (Dag, PcDagMap) {
    let mut slot_of = Vec::with_capacity(circuit.num_vars());
    let mut next = 0usize;
    for &arity in circuit.arities() {
        slot_of.push(next);
        next += arity;
    }
    let mut b = DagBuilder::new();
    // Upper bounds (before CSE): a leaf of arity `a` or a sum over `a`
    // children lowers to `a` constants, `a` weighted products and their
    // `Add`; a product to one `Mul` (or the constant 1).
    let (mut nodes, mut edges) = (next, 0);
    for node in circuit.nodes() {
        let fan = match node {
            PcNode::Indicator { .. } => continue,
            PcNode::Categorical { log_probs, .. } => log_probs.len(),
            PcNode::Sum { children, .. } => children.len(),
            PcNode::Product { children } => {
                nodes += 1;
                edges += children.len();
                continue;
            }
        };
        nodes += 2 * fan + 1;
        edges += 3 * fan;
    }
    b.reserve(nodes, edges);
    // Materialize all indicator inputs.
    for slot in 0..next {
        let _ = b.input(slot as u32);
    }
    let mut node_of: Vec<NodeId> = Vec::with_capacity(circuit.num_nodes());
    let mut parts: Vec<NodeId> = Vec::new();
    for node in circuit.nodes() {
        parts.clear();
        let id = match node {
            PcNode::Indicator { var, value } => b.input((slot_of[var] + value) as u32),
            PcNode::Categorical { var, log_probs } => {
                for (value, lp) in log_probs.iter().enumerate() {
                    let lambda = b.input((slot_of[var] + value) as u32);
                    let w = b.constant(lp.exp());
                    parts.push(b.node(DagOp::Mul, &[w, lambda], NodeKind::Leaf));
                }
                b.node(DagOp::Add, &parts, NodeKind::Leaf)
            }
            PcNode::Product { children } => {
                if children.is_empty() {
                    // The empty product (constant-1 tails in compiled
                    // formula circuits).
                    b.constant(1.0)
                } else {
                    parts.extend(children.iter().map(|c| node_of[c.index()]));
                    b.node(DagOp::Mul, &parts, NodeKind::Product)
                }
            }
            PcNode::Sum { children, log_weights } => {
                for (c, lw) in children.iter().zip(log_weights) {
                    let w = b.constant(lw.exp());
                    parts.push(b.node(DagOp::Mul, &[w, node_of[c.index()]], NodeKind::Sum));
                }
                b.node(DagOp::Add, &parts, NodeKind::Sum)
            }
        };
        node_of.push(id);
    }
    let output = node_of[circuit.root().index()];
    let dag = b.build(output).expect("PC lowering emits valid DAGs");
    (dag, PcDagMap { slot_of, node_of })
}

#[cfg(test)]
mod tests {
    use super::*;
    use reason_pc::{random_mixture_circuit, CircuitBuilder, Evidence, StructureConfig};

    fn check_matches(circuit: &Circuit) {
        let (dag, map) = dag_from_circuit(circuit);
        let n = circuit.num_vars();
        // Complete assignments.
        let mut assignment = vec![0usize; n];
        loop {
            let ev: Vec<Option<usize>> = assignment.iter().map(|&v| Some(v)).collect();
            let inputs = map.inputs_for_evidence(circuit.arities(), &ev);
            let expect = circuit.probability(&Evidence::from_values(&ev));
            let got = dag.evaluate_output(&inputs);
            assert!((got - expect).abs() < 1e-9, "assignment {assignment:?}: {got} vs {expect}");
            // Advance.
            let mut i = 0;
            loop {
                assignment[i] += 1;
                if assignment[i] < circuit.arities()[i] {
                    break;
                }
                assignment[i] = 0;
                i += 1;
                if i == n {
                    return;
                }
            }
        }
    }

    #[test]
    fn matches_circuit_on_complete_evidence() {
        let cfg = StructureConfig { num_vars: 5, depth: 2, num_components: 2, seed: 3 };
        let circuit = random_mixture_circuit(&cfg);
        check_matches(&circuit);
    }

    #[test]
    fn matches_circuit_on_partial_evidence() {
        let cfg = StructureConfig { num_vars: 6, depth: 3, num_components: 2, seed: 8 };
        let circuit = random_mixture_circuit(&cfg);
        let (dag, map) = dag_from_circuit(&circuit);
        let patterns: Vec<Vec<Option<usize>>> = vec![
            vec![None; 6],
            vec![Some(1), None, None, Some(0), None, None],
            vec![None, Some(0), Some(1), None, None, Some(1)],
        ];
        for ev in patterns {
            let inputs = map.inputs_for_evidence(circuit.arities(), &ev);
            let expect = circuit.probability(&Evidence::from_values(&ev));
            let got = dag.evaluate_output(&inputs);
            assert!((got - expect).abs() < 1e-9, "evidence {ev:?}");
        }
    }

    #[test]
    fn categorical_leaves_lower_correctly() {
        let mut cb = CircuitBuilder::new(vec![3]);
        let leaf = cb.categorical(0, &[0.2, 0.3, 0.5]);
        let circuit = cb.build(leaf).unwrap();
        let (dag, map) = dag_from_circuit(&circuit);
        for v in 0..3 {
            let inputs = map.inputs_for_evidence(circuit.arities(), &[Some(v)]);
            let expect = [0.2, 0.3, 0.5][v];
            assert!((dag.evaluate_output(&inputs) - expect).abs() < 1e-12);
        }
        // Marginalized: sums to 1.
        let inputs = map.inputs_for_evidence(circuit.arities(), &[None]);
        assert!((dag.evaluate_output(&inputs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn node_kinds_follow_the_paper() {
        let cfg = StructureConfig { num_vars: 4, depth: 2, num_components: 2, seed: 0 };
        let circuit = random_mixture_circuit(&cfg);
        let (dag, _) = dag_from_circuit(&circuit);
        let kinds: std::collections::HashSet<_> = dag.nodes().map(|n| n.kind).collect();
        assert!(kinds.contains(&NodeKind::Sum));
        assert!(kinds.contains(&NodeKind::Product));
        assert!(kinds.contains(&NodeKind::Leaf));
    }
}
