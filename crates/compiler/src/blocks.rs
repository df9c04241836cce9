//! Step 1: greedy depth-bounded block decomposition (paper Fig. 7,
//! Step 2 "Block Decomposition").
//!
//! Compute nodes fuse into their unique consumer while the fused subtree
//! stays within the hardware tree depth; any node with multiple consumers
//! (or whose fusion would overflow the depth) becomes a *block root*
//! whose value round-trips through the register file. The result
//! "maximizes PE utilization while minimizing inter-block dependencies
//! that may cause read-after-write stalls".
//!
//! # Layout
//!
//! The decomposition is one CSR table (compressed sparse rows: one flat
//! array per field plus per-block start offsets), the same layout as the
//! DAG's own edge arena: block `b`'s members are
//! `members[member_starts[b]..member_starts[b + 1]]` and its operands
//! likewise, so decomposing a DAG allocates a fixed number of arrays
//! whatever its size. Each block's fused subtree is collected root-first
//! onto the end of the shared arrays, its member range is then reversed
//! in place, and an operand is appended only at its first use in the
//! block, by a per-node stamp.

use reason_core::{Dag, DagOp, NodeId};

/// `block_of` entry of a source (input or constant) node.
const NO_BLOCK: u32 = u32::MAX;

/// The decomposition of a whole DAG into blocks — fused subtrees executed
/// as single VLIW issues — in DAG topological order of their roots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockDecomposition {
    /// Per block: the root DAG node (its value is written back to a
    /// register).
    roots: Vec<NodeId>,
    /// Per block: the fused depth.
    depths: Vec<u32>,
    /// `members[member_starts[b]..member_starts[b + 1]]` are block `b`'s
    /// DAG nodes in intra-block topological order (children before
    /// parents, root last). Only compute nodes appear.
    member_starts: Vec<u32>,
    members: Vec<NodeId>,
    /// `operands[operand_starts[b]..operand_starts[b + 1]]` are block
    /// `b`'s external operands: DAG nodes whose values are read from
    /// registers (inputs, constants, or other blocks' roots),
    /// deduplicated in first-use order.
    operand_starts: Vec<u32>,
    operands: Vec<NodeId>,
    /// Per DAG node: the block it belongs to, [`NO_BLOCK`] for sources.
    block_of: Vec<u32>,
}

impl BlockDecomposition {
    /// Number of blocks.
    pub(crate) fn num_blocks(&self) -> usize {
        self.roots.len()
    }

    /// Block `b`'s root DAG node.
    pub(crate) fn root(&self, b: usize) -> NodeId {
        self.roots[b]
    }

    /// Block `b`'s fused depth.
    pub(crate) fn depth(&self, b: usize) -> usize {
        self.depths[b] as usize
    }

    /// Block `b`'s members, children before parents, root last.
    pub(crate) fn members(&self, b: usize) -> &[NodeId] {
        &self.members[self.member_starts[b] as usize..self.member_starts[b + 1] as usize]
    }

    /// Block `b`'s external operands, deduplicated.
    pub(crate) fn operands(&self, b: usize) -> &[NodeId] {
        &self.operands[self.operand_starts[b] as usize..self.operand_starts[b + 1] as usize]
    }

    /// Where block `b`'s operands start in the flat operand array: its
    /// operand `i` is entry `operand_start(b) + i` of every per-operand
    /// table laid out like it.
    pub(crate) fn operand_start(&self, b: usize) -> usize {
        self.operand_starts[b] as usize
    }

    /// Total operand count across blocks.
    pub(crate) fn total_operands(&self) -> usize {
        self.operands.len()
    }

    /// Total member count across blocks (the DAG's compute nodes).
    pub(crate) fn total_members(&self) -> usize {
        self.members.len()
    }

    /// The block a compute node belongs to; `None` for inputs and
    /// constants.
    pub(crate) fn block_of(&self, node: NodeId) -> Option<usize> {
        let b = self.block_of[node.index()];
        (b != NO_BLOCK).then_some(b as usize)
    }
}

fn is_source(op: DagOp) -> bool {
    matches!(op, DagOp::Input(_) | DagOp::Const(_))
}

/// Decomposes `dag` into depth-bounded blocks.
///
/// # Panics
///
/// Panics if `max_depth == 0`.
pub fn decompose_blocks(dag: &Dag, max_depth: usize) -> BlockDecomposition {
    assert!(max_depth >= 1, "tree depth must be positive");
    let n = dag.num_nodes();

    // Fan-out per node (consumer count), and the edge count that bounds
    // the operand array.
    let mut fan_out = vec![0u32; n];
    let mut num_edges = 0;
    for node in dag.nodes() {
        num_edges += node.children.len();
        for c in node.children {
            fan_out[c.index()] += 1;
        }
    }
    // The output is consumed externally.
    fan_out[dag.output().index()] += 1;

    // Greedy fusion: child c fuses into its consumer iff it is a compute
    // node with exactly one consumer and the fused depth fits. A source's
    // fused depth stays 0 and it never fuses.
    let mut fused_depth = vec![0u32; n]; // depth of fused subtree rooted here
    let mut fuses_up = vec![false; n];
    let fuses = |c: usize, fused_depth: &[u32]| {
        fan_out[c] == 1 && fused_depth[c] != 0 && (fused_depth[c] as usize) < max_depth
    };
    let mut num_compute = 0;
    for (i, node) in dag.nodes().enumerate() {
        if is_source(node.op) {
            continue;
        }
        num_compute += 1;
        let mut depth = 1;
        for c in node.children {
            let ci = c.index();
            if fuses(ci, &fused_depth) {
                depth = depth.max(fused_depth[ci] + 1);
                fuses_up[ci] = true;
            }
        }
        fused_depth[i] = depth;
    }
    let num_blocks = fused_depth.iter().zip(&fuses_up).filter(|&(&d, &up)| d != 0 && !up).count();

    let mut d = BlockDecomposition {
        roots: Vec::with_capacity(num_blocks),
        depths: Vec::with_capacity(num_blocks),
        member_starts: Vec::with_capacity(num_blocks + 1),
        members: Vec::with_capacity(num_compute),
        operand_starts: Vec::with_capacity(num_blocks + 1),
        operands: Vec::with_capacity(num_edges),
        block_of: vec![NO_BLOCK; n],
    };
    d.member_starts.push(0);
    d.operand_starts.push(0);
    // operand_of[v] == b once v has been listed as an operand of block b.
    let mut operand_of = vec![NO_BLOCK; n];
    for i in 0..n {
        if fused_depth[i] == 0 || fuses_up[i] {
            continue;
        }
        let member_start = d.members.len();
        let b = d.roots.len() as u32;
        collect(dag, NodeId::from_index(i), &fuses_up, b, &mut d, &mut operand_of);
        d.members[member_start..].reverse(); // children-first
        d.roots.push(NodeId::from_index(i));
        d.depths.push(fused_depth[i]);
        d.member_starts.push(d.members.len() as u32);
        d.operand_starts.push(d.operands.len() as u32);
    }
    d
}

/// Appends the fused subtree rooted at `node` to block `b`, the block
/// being built at the end of `d`: its members in pre-order (root first,
/// reversed by the caller), and the children that do not fuse as its
/// operands, each listed at its first use only.
fn collect(
    dag: &Dag,
    node: NodeId,
    fuses_up: &[bool],
    b: u32,
    d: &mut BlockDecomposition,
    operand_of: &mut [u32],
) {
    d.members.push(node);
    d.block_of[node.index()] = b;
    for &c in dag.node(node).children {
        if fuses_up[c.index()] {
            collect(dag, c, fuses_up, b, d, operand_of);
        } else if std::mem::replace(&mut operand_of[c.index()], b) != b {
            d.operands.push(c);
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
        assert_eq!(d.num_blocks(), 1);
        assert_eq!(d.members(0).len(), 3);
        assert_eq!(d.operands(0).len(), 4);
        assert_eq!(d.depth(0), 2);
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
        assert_eq!(d.num_blocks(), 3);
        assert!((0..d.num_blocks()).all(|b| d.depth(b) <= 2));
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
        assert_eq!(d.num_blocks(), 2);
        let shared_block = d.block_of(shared).unwrap();
        assert_eq!(d.root(shared_block), shared);
    }

    #[test]
    fn every_compute_node_is_covered_exactly_once() {
        let cnf = random_ksat(10, 40, 3, 5);
        let (dag, _) = dag_from_cnf(&cnf);
        let dag = regularize(&dag);
        let d = decompose_blocks(&dag, 3);
        let mut covered = vec![0usize; dag.num_nodes()];
        for b in 0..d.num_blocks() {
            for m in d.members(b) {
                covered[m.index()] += 1;
            }
            assert!(d.depth(b) <= 3);
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
        for b in 0..d.num_blocks() {
            for &op in d.operands(b) {
                assert_ne!(d.block_of(op), Some(b), "operand inside its own block");
            }
        }
    }
}
