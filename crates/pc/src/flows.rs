//! Circuit flows and flow-driven parameter learning.
//!
//! The *circuit flow* through a sum edge `(n, c)` for input `x` is
//! `F(n,c)(x) = (θ(n,c) · p_c(x) / p_n(x)) · F_n(x)` with `F_root = 1`
//! (paper Sec. IV-B). Flows measure how much probability mass each edge
//! carries; REASON prunes the lowest-flow edges ([`crate::prune`]) and the
//! same quantities are the expected sufficient statistics of EM.

use crate::circuit::{Circuit, NodeId, PcNode};
use crate::infer::Evidence;

/// Per-edge flows of a circuit. Edges are addressed as
/// `(sum node id, child position)`.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeFlows {
    /// `flows[n][k]` = flow through child `k` of node `n` (0 for leaves and
    /// products, which are not separately addressed).
    flows: Vec<Vec<f64>>,
}

impl EdgeFlows {
    fn zeros(circuit: &Circuit) -> Self {
        EdgeFlows { flows: circuit.nodes().iter().map(|n| vec![0.0; n.children().len()]).collect() }
    }

    /// All edge flows for node `n`.
    fn node(&self, n: NodeId) -> &[f64] {
        &self.flows[n.index()]
    }

    /// Accumulates another flow set (used to form dataset flows).
    fn accumulate(&mut self, other: &EdgeFlows) {
        for (a, b) in self.flows.iter_mut().zip(&other.flows) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += *y;
            }
        }
    }

    /// Iterates over `(node, child position, flow)` for sum edges only.
    pub(crate) fn iter_sum_edges<'a>(
        &'a self,
        circuit: &'a Circuit,
    ) -> impl Iterator<Item = (NodeId, usize, f64)> + 'a {
        circuit.nodes().iter().enumerate().flat_map(move |(i, node)| {
            let is_sum = node.is_sum();
            self.flows[i].iter().enumerate().filter_map(move |(k, &f)| {
                if is_sum {
                    Some((NodeId(i as u32), k, f))
                } else {
                    None
                }
            })
        })
    }
}

impl Circuit {
    /// Computes the top-down flows for a single input.
    ///
    /// Inputs with zero probability produce all-zero flows.
    fn flows(&self, evidence: &Evidence) -> EdgeFlows {
        let vals = self.log_values(evidence);
        let n = self.num_nodes();
        let mut node_flow = vec![0.0f64; n];
        let mut out = EdgeFlows::zeros(self);
        if vals[self.root().index()] == f64::NEG_INFINITY {
            return out;
        }
        node_flow[self.root().index()] = 1.0;
        for i in (0..n).rev() {
            let f_n = node_flow[i];
            if f_n == 0.0 {
                continue;
            }
            match &self.nodes()[i] {
                PcNode::Sum { children, log_weights } => {
                    let log_pn = vals[i];
                    for (k, (c, lw)) in children.iter().zip(log_weights).enumerate() {
                        let log_pc = vals[c.index()];
                        let share = if log_pc == f64::NEG_INFINITY {
                            0.0
                        } else {
                            (lw + log_pc - log_pn).exp()
                        };
                        let f_edge = share * f_n;
                        out.flows[i][k] = f_edge;
                        node_flow[c.index()] += f_edge;
                    }
                }
                PcNode::Product { children } => {
                    for (k, c) in children.iter().enumerate() {
                        out.flows[i][k] = f_n;
                        node_flow[c.index()] += f_n;
                    }
                }
                _ => {}
            }
        }
        out
    }
}

/// Cumulative flows over a dataset of complete assignments:
/// `F(n,c)(D) = Σ_{x∈D} F(n,c)(x)` (paper Sec. IV-B).
pub fn dataset_flows(circuit: &Circuit, data: &[Vec<usize>]) -> EdgeFlows {
    let mut total = EdgeFlows::zeros(circuit);
    for x in data {
        let f = circuit.flows(&Evidence::from_assignment(x));
        total.accumulate(&f);
    }
    total
}

/// One EM step: re-estimates every sum-node weight as its normalized
/// expected flow, with additive smoothing `alpha`.
///
/// Returns the updated circuit. The train log-likelihood is non-decreasing
/// under repeated application (checked by tests).
pub fn em_step(circuit: &Circuit, data: &[Vec<usize>], alpha: f64) -> Circuit {
    let flows = dataset_flows(circuit, data);
    let mut nodes = circuit.nodes().to_vec();
    for (i, node) in nodes.iter_mut().enumerate() {
        if let PcNode::Sum { children, log_weights } = node {
            let f = flows.node(NodeId(i as u32));
            let total: f64 = f.iter().sum::<f64>() + alpha * children.len() as f64;
            if total > 0.0 {
                for (k, lw) in log_weights.iter_mut().enumerate() {
                    *lw = ((f[k] + alpha) / total).ln();
                }
            }
        }
    }
    Circuit::from_parts(circuit.arities().to_vec(), nodes, circuit.root())
}

/// Mean train log-likelihood of a dataset.
#[cfg(test)]
pub(crate) fn mean_log_likelihood(circuit: &Circuit, data: &[Vec<usize>]) -> f64 {
    data.iter().map(|x| circuit.log_likelihood(x)).sum::<f64>() / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;
    use crate::structure::{random_mixture_circuit, StructureConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn mixture() -> Circuit {
        let mut b = CircuitBuilder::new(vec![2, 2]);
        let x0t = b.indicator(0, 1);
        let x0f = b.indicator(0, 0);
        let c0 = b.categorical(1, &[0.9, 0.1]);
        let c1 = b.categorical(1, &[0.2, 0.8]);
        let p0 = b.product(vec![x0t, c0]);
        let p1 = b.product(vec![x0f, c1]);
        let root = b.sum(vec![p0, p1], vec![0.4, 0.6]);
        b.build(root).unwrap()
    }

    #[test]
    fn flows_sum_to_node_flow() {
        let c = mixture();
        let f = c.flows(&Evidence::from_assignment(&[1, 0]));
        // Root flow is 1; sum of root edge flows must be 1.
        let root_flows = f.node(c.root());
        assert!((root_flows.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_input_routes_all_flow_one_way() {
        let c = mixture();
        // x0=1 selects the first branch exclusively.
        let f = c.flows(&Evidence::from_assignment(&[1, 0]));
        let rf = f.node(c.root());
        assert!((rf[0] - 1.0).abs() < 1e-12);
        assert!(rf[1].abs() < 1e-12);
    }

    #[test]
    fn zero_probability_input_has_zero_flows() {
        let mut b = CircuitBuilder::new(vec![2]);
        let t = b.indicator(0, 1);
        let f_ = b.indicator(0, 1);
        let root = b.sum(vec![t, f_], vec![0.5, 0.5]);
        let c = b.build(root).unwrap();
        let f = c.flows(&Evidence::from_assignment(&[0]));
        assert!(f.node(c.root()).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn dataset_flows_accumulate() {
        let c = mixture();
        let data = vec![vec![1, 0], vec![0, 1], vec![0, 1]];
        let total = dataset_flows(&c, &data);
        let rf = total.node(c.root());
        // Three unit flows distributed across the two edges.
        assert!((rf.iter().sum::<f64>() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn em_increases_log_likelihood() {
        let cfg = StructureConfig { num_vars: 6, depth: 3, num_components: 3, seed: 5 };
        let mut circuit = random_mixture_circuit(&cfg);
        let mut rng = StdRng::seed_from_u64(42);
        let data: Vec<Vec<usize>> =
            (0..60).map(|_| (0..6).map(|_| rng.gen_range(0..2)).collect()).collect();
        let mut prev = mean_log_likelihood(&circuit, &data);
        for _ in 0..5 {
            circuit = em_step(&circuit, &data, 0.01);
            let ll = mean_log_likelihood(&circuit, &data);
            assert!(ll >= prev - 1e-6, "EM decreased LL: {prev} -> {ll}");
            prev = ll;
        }
    }

    #[test]
    fn em_preserves_validity() {
        let cfg = StructureConfig { num_vars: 4, depth: 2, num_components: 2, seed: 1 };
        let circuit = random_mixture_circuit(&cfg);
        let data = vec![vec![0, 1, 0, 1], vec![1, 1, 0, 0]];
        let updated = em_step(&circuit, &data, 0.1);
        updated.validate().unwrap();
        // Still normalized.
        let p = updated.probability(&Evidence::empty(4));
        assert!((p - 1.0).abs() < 1e-9);
    }

    #[test]
    fn iter_sum_edges_visits_only_sums() {
        let c = mixture();
        let f = c.flows(&Evidence::from_assignment(&[1, 1]));
        for (n, _, _) in f.iter_sum_edges(&c) {
            assert!(c.node(n).is_sum());
        }
    }
}
