//! Stage 3: two-input DAG regularization (paper Sec. IV-C).
//!
//! Nodes with more than two inputs are recursively decomposed into
//! balanced binary trees of two-input intermediate nodes of the same
//! (associative) operation. The transformation preserves semantics exactly
//! and bounds fan-in at 2, matching the two-input tree PEs of the REASON
//! hardware and enabling the depth-bounded block decomposition of the
//! mapping compiler.
//!
//! One pass over the live nodes: liveness is marked on the source first
//! (children-last, from the output), which also sizes the result exactly,
//! and then only the live nodes are rebuilt, in source order, into a
//! builder that never hash-conses. A dead node, and the balanced tree it
//! would have grown, is never built, so there is no build-everything copy
//! to sweep afterwards.

use crate::dag::{Dag, DagBuilder, DagOp, NodeId, NodeKind};

/// Rewrites the DAG so every node has fan-in ≤ 2.
///
/// Associative ops (`Add`, `Mul`, `Max`) are rebalanced into binary trees;
/// other ops already satisfy the bound. Nodes the output does not reach
/// are dropped; the input universe (`num_inputs`) is kept, so an input
/// vector that fits the source fits the result.
///
/// ```
/// use reason_core::{regularize, DagBuilder, DagOp, NodeKind};
/// let mut b = DagBuilder::new();
/// let inputs: Vec<_> = (0..5).map(|i| b.input(i)).collect();
/// let sum = b.node(DagOp::Add, &inputs, NodeKind::Generic);
/// let dag = b.build(sum).unwrap();
/// let reg = regularize(&dag);
/// assert!(reg.max_fan_in() <= 2);
/// let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
/// assert_eq!(reg.evaluate_output(&xs), dag.evaluate_output(&xs));
/// ```
pub fn regularize(dag: &Dag) -> Dag {
    let n = dag.num_nodes();
    let mut live = vec![false; n];
    live[dag.output().index()] = true;
    let (mut nodes, mut edges) = (0, 0);
    for (i, node) in dag.nodes().enumerate().rev() {
        if !live[i] {
            continue;
        }
        for c in node.children {
            live[c.index()] = true;
        }
        let fan_in = node.children.len();
        if fan_in > 2 && node.op.is_associative() {
            // A balanced tree over `fan_in` leaves: `fan_in - 1` binary nodes.
            nodes += fan_in - 1;
            edges += 2 * (fan_in - 1);
        } else {
            nodes += 1;
            edges += fan_in;
        }
    }

    let mut b = DagBuilder::without_cse();
    b.reserve(nodes, edges);
    b.widen_inputs(dag.num_inputs());
    // Entries of dead nodes are never read.
    let mut remap = vec![NodeId::new(0); n];
    let mut children: Vec<NodeId> = Vec::new();
    for (i, node) in dag.nodes().enumerate() {
        if !live[i] {
            continue;
        }
        children.clear();
        children.extend(node.children.iter().map(|c| remap[c.index()]));
        remap[i] = if children.len() > 2 && node.op.is_associative() {
            balanced_tree(&mut b, node.op, &children, node.kind)
        } else {
            match node.op {
                DagOp::Input(slot) => b.input(slot),
                DagOp::Const(c) => b.constant(c),
                op => b.node(op, &children, node.kind),
            }
        };
    }
    b.build(remap[dag.output().index()]).expect("regularization preserves validity")
}

/// Builds a balanced binary combination of `children` under `op`.
fn balanced_tree(b: &mut DagBuilder, op: DagOp, children: &[NodeId], kind: NodeKind) -> NodeId {
    if children.len() == 1 {
        return children[0];
    }
    if children.len() == 2 {
        return b.node(op, children, kind);
    }
    let mid = children.len() / 2;
    let left = balanced_tree(b, op, &children[..mid], kind);
    let right = balanced_tree(b, op, &children[mid..], kind);
    b.node(op, &[left, right], kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::hmm::dag_from_hmm;
    use crate::frontend::pc::dag_from_circuit;
    use crate::frontend::sat::dag_from_cnf;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use reason_hmm::Hmm;
    use reason_pc::{random_mixture_circuit, StructureConfig};
    use reason_sat::gen::random_ksat;

    fn random_inputs(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0.0..1.0)).collect()
    }

    /// The regularization the one-pass rewrite replaced: every node, dead
    /// ones included, rebuilt without CSE, then the dead-node sweep.
    fn regularize_by_rebuild_then_compact(dag: &Dag) -> Dag {
        let mut b = DagBuilder::without_cse();
        let mut remap: Vec<NodeId> = Vec::with_capacity(dag.num_nodes());
        for node in dag.nodes() {
            let children: Vec<NodeId> = node.children.iter().map(|c| remap[c.index()]).collect();
            let id = if children.len() > 2 && node.op.is_associative() {
                balanced_tree(&mut b, node.op, &children, node.kind)
            } else {
                match node.op {
                    DagOp::Input(slot) => b.input(slot),
                    DagOp::Const(c) => b.constant(c),
                    op => b.node(op, &children, node.kind),
                }
            };
            remap.push(id);
        }
        b.build(remap[dag.output().index()]).unwrap().compact().0
    }

    /// `dag`'s nodes as they are, with `output` as the result: everything
    /// past it, and whatever it does not reach, is dead.
    fn with_output(dag: &Dag, output: NodeId) -> Dag {
        let mut b = DagBuilder::without_cse();
        for node in dag.nodes() {
            let _ = b.node(node.op, node.children, node.kind);
        }
        b.build(output).unwrap()
    }

    #[test]
    fn one_pass_equals_rebuild_then_compact() {
        for seed in 0..12u64 {
            let size = seed as usize % 5;
            let cfg = StructureConfig {
                num_vars: 3 + size,
                depth: 1 + size / 2,
                num_components: 1 + size % 3,
                seed,
            };
            let dags = [
                dag_from_cnf(&random_ksat(4 + size, 6 + 4 * size, 3, seed)).0,
                dag_from_circuit(&random_mixture_circuit(&cfg)).0,
                dag_from_hmm(&Hmm::random(2 + size / 2, 2 + size % 4, seed), 2 + size).0,
            ];
            for dag in &dags {
                assert_eq!(regularize(dag), regularize_by_rebuild_then_compact(dag), "seed {seed}");
                for output in [dag.num_nodes() / 3, dag.num_nodes() / 2, dag.num_nodes() - 2] {
                    let inner = with_output(dag, NodeId::new(output));
                    let reg = regularize(&inner);
                    assert_eq!(reg, regularize_by_rebuild_then_compact(&inner), "seed {seed}");
                    assert_eq!(reg.num_inputs(), dag.num_inputs());
                }
            }
        }
    }

    #[test]
    fn preserves_semantics_on_wide_nodes() {
        let mut b = DagBuilder::new();
        let inputs: Vec<_> = (0..9).map(|i| b.input(i)).collect();
        let mul = b.node(DagOp::Mul, &inputs[..5], NodeKind::Generic);
        let mut rest = inputs[5..].to_vec();
        rest.push(mul);
        let add = b.node(DagOp::Add, &rest, NodeKind::Generic);
        let dag = b.build(add).unwrap();
        let reg = regularize(&dag);
        assert!(reg.max_fan_in() <= 2);
        for seed in 0..10 {
            let xs = random_inputs(9, seed);
            let a = dag.evaluate_output(&xs);
            let r = reg.evaluate_output(&xs);
            assert!((a - r).abs() < 1e-12);
        }
    }

    #[test]
    fn regularized_sat_dag_still_decides() {
        let cnf = random_ksat(8, 30, 3, 4);
        let (dag, _) = dag_from_cnf(&cnf);
        let reg = regularize(&dag);
        assert!(reg.max_fan_in() <= 2);
        for bits in (0..256u32).step_by(7) {
            let inputs: Vec<f64> = (0..8).map(|v| f64::from(bits >> v & 1)).collect();
            assert_eq!(dag.evaluate_output(&inputs), reg.evaluate_output(&inputs));
        }
    }

    #[test]
    fn regularized_pc_dag_matches() {
        let cfg = StructureConfig { num_vars: 6, depth: 3, num_components: 3, seed: 2 };
        let circuit = random_mixture_circuit(&cfg);
        let (dag, _) = dag_from_circuit(&circuit);
        let reg = regularize(&dag);
        assert!(reg.max_fan_in() <= 2);
        for seed in 0..5 {
            let xs = random_inputs(dag.num_inputs(), seed);
            assert!((dag.evaluate_output(&xs) - reg.evaluate_output(&xs)).abs() < 1e-12);
        }
    }

    #[test]
    fn regularized_hmm_dag_matches() {
        let hmm = Hmm::random(4, 3, 9);
        let (dag, map) = dag_from_hmm(&hmm, 6);
        let reg = regularize(&dag);
        assert!(reg.max_fan_in() <= 2);
        let obs: Vec<Option<usize>> = vec![Some(0), Some(2), None, Some(1), None, Some(0)];
        let xs = map.inputs_for_observations(&obs);
        assert!((dag.evaluate_output(&xs) - reg.evaluate_output(&xs)).abs() < 1e-12);
    }

    #[test]
    fn depth_grows_logarithmically() {
        let mut b = DagBuilder::new();
        let inputs: Vec<_> = (0..64).map(|i| b.input(i)).collect();
        let add = b.node(DagOp::Add, &inputs, NodeKind::Generic);
        let dag = b.build(add).unwrap();
        let reg = regularize(&dag);
        // 64 leaves → depth exactly log2(64) = 6.
        assert_eq!(reg.depth(), 6);
    }

    #[test]
    fn already_binary_dag_is_unchanged_semantically() {
        let mut b = DagBuilder::new();
        let x = b.input(0);
        let y = b.input(1);
        let m = b.node(DagOp::Mul, &[x, y], NodeKind::Generic);
        let dag = b.build(m).unwrap();
        let reg = regularize(&dag);
        assert_eq!(reg.num_nodes(), dag.num_nodes());
        assert_eq!(reg.evaluate_output(&[0.5, 4.0]), 2.0);
    }
}
