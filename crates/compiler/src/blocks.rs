//! Step 1: greedy depth-bounded block decomposition (paper Fig. 7,
//! Step 2 "Block Decomposition").
//!
//! Compute nodes fuse into their unique consumer while the fused subtree
//! stays within the hardware tree depth; any node with multiple consumers
//! (or whose fusion would overflow the depth) becomes a *block root*
//! whose value round-trips through the register file. The result
//! "maximizes PE utilization while minimizing inter-block dependencies
//! that may cause read-after-write stalls".

use reason_core::{Dag, DagOp, NodeId};

/// One block: a fused subtree executed as a single VLIW issue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The root DAG node (its value is written back to a register).
    pub root: NodeId,
    /// All member DAG nodes in intra-block topological order (children
    /// before parents, root last). Only compute nodes appear.
    pub members: Vec<NodeId>,
    /// External operands: DAG nodes whose values are read from registers
    /// (inputs, constants, or other blocks' roots), deduplicated.
    pub operands: Vec<NodeId>,
    /// Fused depth of the block.
    pub depth: usize,
}

/// The decomposition of a whole DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockDecomposition {
    /// Blocks in DAG topological order of their roots.
    pub blocks: Vec<Block>,
    /// For each DAG node: the index of the block it belongs to (compute
    /// nodes only; `None` for inputs/constants).
    pub block_of: Vec<Option<usize>>,
}

/// Decomposes `dag` into depth-bounded blocks.
///
/// # Panics
///
/// Panics if `max_depth == 0`.
pub fn decompose_blocks(dag: &Dag, max_depth: usize) -> BlockDecomposition {
    assert!(max_depth >= 1, "tree depth must be positive");
    let n = dag.num_nodes();

    // Fan-out per node (consumer count).
    let mut fan_out = vec![0usize; n];
    for node in dag.nodes() {
        for c in node.children {
            fan_out[c.index()] += 1;
        }
    }
    // The output is consumed externally.
    fan_out[dag.output().index()] += 1;

    let is_compute =
        |id: usize| !matches!(dag.op(NodeId::from_index(id)), DagOp::Input(_) | DagOp::Const(_));

    // Greedy fusion: child c fuses into its consumer iff it is a compute
    // node with exactly one consumer and the fused depth fits.
    let mut fused_depth = vec![0usize; n]; // depth of fused subtree rooted here
    let mut fuses_up = vec![false; n];
    for (i, node) in dag.nodes().enumerate() {
        if !is_compute(i) {
            continue;
        }
        let mut depth = 1;
        for c in node.children {
            let ci = c.index();
            if is_compute(ci) && fan_out[ci] == 1 && fused_depth[ci] < max_depth {
                // Tentatively fuse.
                depth = depth.max(fused_depth[ci] + 1);
            }
        }
        fused_depth[i] = depth;
        // Mark children that actually fused (same condition, now final).
        for c in node.children {
            let ci = c.index();
            if is_compute(ci) && fan_out[ci] == 1 && fused_depth[ci] < max_depth {
                fuses_up[ci] = true;
            }
        }
    }

    // Roots: compute nodes that do not fuse upward.
    let mut block_of: Vec<Option<usize>> = vec![None; n];
    let mut blocks: Vec<Block> = Vec::new();
    // operand_of[v] == b once v has been listed as an operand of block b.
    let mut operand_of = vec![usize::MAX; n];
    for i in 0..n {
        if !is_compute(i) || fuses_up[i] {
            continue;
        }
        // Collect the fused subtree under root i.
        let mut members: Vec<NodeId> = Vec::new();
        let mut operands: Vec<NodeId> = Vec::new();
        collect(dag, i, &fuses_up, &mut members, &mut operands);
        members.reverse(); // children-first

        // Deduplicate operands preserving order.
        let block_idx = blocks.len();
        operands.retain(|o| std::mem::replace(&mut operand_of[o.index()], block_idx) != block_idx);
        for m in &members {
            block_of[m.index()] = Some(block_idx);
        }
        blocks.push(Block {
            root: NodeId::from_index(i),
            members,
            operands,
            depth: fused_depth[i],
        });
    }

    BlockDecomposition { blocks, block_of }
}

/// Post-order collection of the fused subtree (root first into `members`,
/// reversed by the caller).
fn collect(
    dag: &Dag,
    root: usize,
    fuses_up: &[bool],
    members: &mut Vec<NodeId>,
    operands: &mut Vec<NodeId>,
) {
    members.push(NodeId::from_index(root));
    for c in dag.node(NodeId::from_index(root)).children {
        let ci = c.index();
        let fused_member = fuses_up[ci] && !matches!(dag.op(*c), DagOp::Input(_) | DagOp::Const(_));
        if fused_member {
            collect(dag, ci, fuses_up, members, operands);
        } else {
            operands.push(*c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reason_core::{dag_from_cnf, regularize, DagBuilder, NodeKind};
    use reason_sat::gen::random_ksat;

    #[test]
    fn fuses_small_trees_into_one_block() {
        let mut b = DagBuilder::new();
        let xs: Vec<_> = (0..4).map(|i| b.input(i)).collect();
        let l = b.node(DagOp::Add, &[xs[0], xs[1]], NodeKind::Generic);
        let r = b.node(DagOp::Add, &[xs[2], xs[3]], NodeKind::Generic);
        let root = b.node(DagOp::Mul, &[l, r], NodeKind::Generic);
        let dag = b.build(root).unwrap();
        let d = decompose_blocks(&dag, 3);
        assert_eq!(d.blocks.len(), 1);
        assert_eq!(d.blocks[0].members.len(), 3);
        assert_eq!(d.blocks[0].operands.len(), 4);
        assert_eq!(d.blocks[0].depth, 2);
    }

    #[test]
    fn depth_bound_splits_chains() {
        // A chain of 6 Not nodes with depth bound 2 → 3 blocks.
        let mut b = DagBuilder::without_cse();
        let mut cur = b.input(0);
        for _ in 0..6 {
            cur = b.node(DagOp::Not, &[cur], NodeKind::Generic);
        }
        let dag = b.build(cur).unwrap();
        let d = decompose_blocks(&dag, 2);
        assert_eq!(d.blocks.len(), 3);
        assert!(d.blocks.iter().all(|blk| blk.depth <= 2));
    }

    #[test]
    fn multi_consumer_values_become_roots() {
        // shared = x0+x1 consumed twice → must be its own block root.
        let mut b = DagBuilder::new();
        let x0 = b.input(0);
        let x1 = b.input(1);
        let shared = b.node(DagOp::Add, &[x0, x1], NodeKind::Generic);
        let a = b.node(DagOp::Not, &[shared], NodeKind::Generic);
        let root = b.node(DagOp::Mul, &[a, shared], NodeKind::Generic);
        let dag = b.build(root).unwrap();
        let d = decompose_blocks(&dag, 4);
        // `shared` is a separate block; `a` fuses into root's block.
        assert_eq!(d.blocks.len(), 2);
        let shared_block = d.block_of[shared.index()].unwrap();
        assert_eq!(d.blocks[shared_block].root, shared);
    }

    #[test]
    fn every_compute_node_is_covered_exactly_once() {
        let cnf = random_ksat(10, 40, 3, 5);
        let (dag, _) = dag_from_cnf(&cnf);
        let dag = regularize(&dag);
        let d = decompose_blocks(&dag, 3);
        let mut covered = vec![0usize; dag.num_nodes()];
        for blk in &d.blocks {
            for m in &blk.members {
                covered[m.index()] += 1;
            }
            assert!(blk.depth <= 3);
        }
        for (i, node) in dag.nodes().enumerate() {
            let expect = usize::from(!matches!(node.op, DagOp::Input(_) | DagOp::Const(_)));
            assert_eq!(covered[i], expect, "node {i} coverage");
        }
    }

    #[test]
    fn operands_are_block_external() {
        let cnf = random_ksat(8, 30, 3, 6);
        let (dag, _) = dag_from_cnf(&cnf);
        let dag = regularize(&dag);
        let d = decompose_blocks(&dag, 3);
        for (bi, blk) in d.blocks.iter().enumerate() {
            for op in &blk.operands {
                assert_ne!(d.block_of[op.index()], Some(bi), "operand inside its own block");
            }
        }
    }
}
