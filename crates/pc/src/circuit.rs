//! Circuit data structure, construction, and structural validation.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Index of a node within a [`Circuit`] (or [`CircuitBuilder`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A node of a probabilistic circuit (paper Eq. 1).
#[derive(Debug, Clone, PartialEq)]
pub enum PcNode {
    /// Weighted mixture: `p(x) = Σ_c w_c · p_c(x)`. Weights are stored in
    /// log-space, parallel to `children`.
    Sum {
        /// Child node ids.
        children: Vec<NodeId>,
        /// Log-weights, same length as `children`.
        log_weights: Vec<f64>,
    },
    /// Factorization: `p(x) = Π_c p_c(x)`.
    Product {
        /// Child node ids.
        children: Vec<NodeId>,
    },
    /// Indicator leaf `[X_var = value]`.
    Indicator {
        /// Variable index.
        var: usize,
        /// Indicated value.
        value: usize,
    },
    /// Categorical leaf: a full distribution over one discrete variable.
    Categorical {
        /// Variable index.
        var: usize,
        /// Log-probabilities, one per value of the variable.
        log_probs: Vec<f64>,
    },
}

impl PcNode {
    /// Children of this node (empty for leaves).
    pub fn children(&self) -> &[NodeId] {
        match self {
            PcNode::Sum { children, .. } | PcNode::Product { children } => children,
            _ => &[],
        }
    }

    /// `true` for sum nodes.
    pub fn is_sum(&self) -> bool {
        matches!(self, PcNode::Sum { .. })
    }
}

/// Structural defects detected by [`CircuitBuilder::build`] /
/// [`Circuit::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitError {
    /// A node references a child defined after it (not topologically ordered)
    /// or out of range.
    BadChild {
        /// The parent node.
        node: usize,
        /// The offending child reference.
        child: usize,
    },
    /// A sum node whose weight vector length differs from its child count,
    /// or with no children.
    MalformedSum {
        /// The offending node.
        node: usize,
    },
    /// Sum-node weights exceed total mass 1 (within tolerance). Weights
    /// totalling *less* than 1 are allowed: compiled formula circuits are
    /// sub-normalized, with the missing mass belonging to unsatisfiable
    /// branches (see [`crate::compile`]).
    UnnormalizedSum {
        /// The offending node.
        node: usize,
        /// The actual total mass.
        total: f64,
    },
    /// A leaf references a variable outside the declared universe, or an
    /// out-of-range value for its variable.
    BadLeaf {
        /// The offending node.
        node: usize,
    },
    /// A sum node mixing children with different scopes (violates
    /// smoothness).
    NotSmooth {
        /// The offending node.
        node: usize,
    },
    /// A product node whose children share variables (violates
    /// decomposability).
    NotDecomposable {
        /// The offending node.
        node: usize,
    },
    /// The root id is out of range.
    BadRoot,
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::BadChild { node, child } => {
                write!(f, "node {node} references invalid child {child}")
            }
            CircuitError::MalformedSum { node } => {
                write!(f, "sum node {node} has mismatched weights or no children")
            }
            CircuitError::UnnormalizedSum { node, total } => {
                write!(f, "sum node {node} has total weight {total}, expected 1")
            }
            CircuitError::BadLeaf { node } => write!(f, "leaf node {node} is out of range"),
            CircuitError::NotSmooth { node } => {
                write!(f, "sum node {node} mixes children with different scopes")
            }
            CircuitError::NotDecomposable { node } => {
                write!(f, "product node {node} has children with overlapping scopes")
            }
            CircuitError::BadRoot => write!(f, "root id out of range"),
        }
    }
}

impl std::error::Error for CircuitError {}

/// Incremental builder for a [`Circuit`].
///
/// Nodes must be added children-first; [`build`](Self::build) validates the
/// full structure. See the [crate docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct CircuitBuilder {
    arities: Vec<usize>,
    nodes: Vec<PcNode>,
}

impl CircuitBuilder {
    /// Starts a circuit over discrete variables with the given arities
    /// (`arities[v]` = number of values of variable `v`).
    pub fn new(arities: Vec<usize>) -> Self {
        CircuitBuilder { arities, nodes: Vec::new() }
    }

    /// Adds an indicator leaf `[X_var = value]`.
    pub fn indicator(&mut self, var: usize, value: usize) -> NodeId {
        self.push(PcNode::Indicator { var, value })
    }

    /// Adds a categorical leaf over `var` with the given probabilities
    /// (linear space; converted to logs).
    pub fn categorical(&mut self, var: usize, probs: &[f64]) -> NodeId {
        self.push(PcNode::Categorical { var, log_probs: probs.iter().map(|p| p.ln()).collect() })
    }

    /// Adds a product node.
    pub fn product(&mut self, children: Vec<NodeId>) -> NodeId {
        self.push(PcNode::Product { children })
    }

    /// Adds a sum node with linear-space weights (converted to logs).
    pub fn sum(&mut self, children: Vec<NodeId>, weights: Vec<f64>) -> NodeId {
        let log_weights = weights.iter().map(|w| w.ln()).collect();
        self.push(PcNode::Sum { children, log_weights })
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when no nodes were added yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, node: PcNode) -> NodeId {
        self.nodes.push(node);
        NodeId(self.nodes.len() as u32 - 1)
    }

    /// Finalizes the circuit with `root` as the output node.
    ///
    /// # Errors
    ///
    /// Returns a [`CircuitError`] describing the first structural defect
    /// found (ordering, malformed sums, smoothness, decomposability).
    pub fn build(self, root: NodeId) -> Result<Circuit, CircuitError> {
        let circuit = Circuit::from_parts(self.arities, self.nodes, root);
        circuit.validate()?;
        Ok(circuit)
    }

    /// Consumes the builder, returning `(arities, nodes)` without
    /// validation — for in-crate compilers whose construction
    /// discipline guarantees the invariants (they still
    /// `debug_assert!` a full [`Circuit::validate`] in debug builds,
    /// where the O(nodes · vars) scope computation is affordable).
    pub(crate) fn into_parts(self) -> (Vec<usize>, Vec<PcNode>) {
        (self.arities, self.nodes)
    }

    /// Appends a pre-built node without linear↔log weight conversion —
    /// for in-crate compilers splicing cached subgraphs whose
    /// log-weights must survive bit-for-bit (an `exp`/`ln` round trip
    /// can move the last ulp). The caller guarantees children precede
    /// the node.
    pub(crate) fn push_raw(&mut self, node: PcNode) -> NodeId {
        self.push(node)
    }
}

/// A validated probabilistic circuit.
///
/// Nodes are stored in topological order (children before parents), so a
/// single forward sweep evaluates the circuit and a single backward sweep
/// computes flows.
///
/// A circuit is immutable once built, so its node array sits behind an
/// [`Arc`]: cloning a circuit shares the array, and a compiled circuit
/// may share it with the [`crate::PersistentComponentCache`] that
/// compiled it.
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    arities: Vec<usize>,
    nodes: Arc<Vec<PcNode>>,
    root: NodeId,
}

impl Circuit {
    /// Constructs a circuit from parts without validation; intended for
    /// internal transformations that preserve the invariants.
    pub(crate) fn from_parts(arities: Vec<usize>, nodes: Vec<PcNode>, root: NodeId) -> Self {
        Circuit { arities, nodes: Arc::new(nodes), root }
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// All nodes, children-first.
    pub fn nodes(&self) -> &[PcNode] {
        &self.nodes
    }

    /// A node by id.
    pub fn node(&self, id: NodeId) -> &PcNode {
        &self.nodes[id.index()]
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges. Walks the node array (O(nodes)); the count is
    /// not cached, so a caller that needs it repeatedly keeps it.
    pub fn num_edges(&self) -> usize {
        self.nodes.iter().map(|n| n.children().len()).sum()
    }

    /// Number of variables in the universe.
    pub fn num_vars(&self) -> usize {
        self.arities.len()
    }

    /// Arity (value count) of each variable.
    pub fn arities(&self) -> &[usize] {
        &self.arities
    }

    /// An estimate of the memory footprint in bytes: 8 bytes per edge
    /// (child pointer + weight share) plus 16 per node. This is the metric
    /// reported as "memory" for probabilistic workloads in paper Table IV.
    /// Walks the node array through [`num_edges`](Self::num_edges)
    /// (O(nodes)).
    pub fn footprint_bytes(&self) -> usize {
        16 * self.num_nodes() + 8 * self.num_edges()
    }

    /// Computes the scope (set of referenced variables) of every node.
    pub fn scopes(&self) -> Vec<BTreeSet<usize>> {
        let mut scopes: Vec<BTreeSet<usize>> = Vec::with_capacity(self.nodes.len());
        for node in self.nodes.iter() {
            let scope = match node {
                PcNode::Indicator { var, .. } | PcNode::Categorical { var, .. } => {
                    BTreeSet::from([*var])
                }
                PcNode::Sum { children, .. } | PcNode::Product { children } => {
                    let mut s = BTreeSet::new();
                    for c in children {
                        s.extend(scopes[c.index()].iter().copied());
                    }
                    s
                }
            };
            scopes.push(scope);
        }
        scopes
    }

    /// Validates ordering, sums, smoothness, and decomposability.
    ///
    /// # Errors
    ///
    /// Returns the first [`CircuitError`] encountered.
    pub fn validate(&self) -> Result<(), CircuitError> {
        if self.root.index() >= self.nodes.len() {
            return Err(CircuitError::BadRoot);
        }
        for (i, node) in self.nodes.iter().enumerate() {
            for c in node.children() {
                if c.index() >= i {
                    return Err(CircuitError::BadChild { node: i, child: c.index() });
                }
            }
            match node {
                PcNode::Sum { children, log_weights } => {
                    if children.is_empty() || children.len() != log_weights.len() {
                        return Err(CircuitError::MalformedSum { node: i });
                    }
                    let total: f64 = log_weights.iter().map(|lw| lw.exp()).sum();
                    if total > 1.0 + 1e-6 {
                        return Err(CircuitError::UnnormalizedSum { node: i, total });
                    }
                }
                PcNode::Indicator { var, value } => {
                    if *var >= self.arities.len() || *value >= self.arities[*var] {
                        return Err(CircuitError::BadLeaf { node: i });
                    }
                }
                PcNode::Categorical { var, log_probs } => {
                    if *var >= self.arities.len() || log_probs.len() != self.arities[*var] {
                        return Err(CircuitError::BadLeaf { node: i });
                    }
                    // Categorical leaves must be normalized: marginalization
                    // evaluates them as constant 1.
                    let total: f64 = log_probs.iter().map(|lp| lp.exp()).sum();
                    if (total - 1.0).abs() > 1e-6 {
                        return Err(CircuitError::BadLeaf { node: i });
                    }
                }
                PcNode::Product { .. } => {}
            }
        }
        // Smoothness and decomposability via scopes.
        let scopes = self.scopes();
        for (i, node) in self.nodes.iter().enumerate() {
            match node {
                PcNode::Sum { children, .. } => {
                    let first = &scopes[children[0].index()];
                    if children.iter().any(|c| &scopes[c.index()] != first) {
                        return Err(CircuitError::NotSmooth { node: i });
                    }
                }
                PcNode::Product { children } => {
                    let mut seen: BTreeSet<usize> = BTreeSet::new();
                    for c in children {
                        for v in &scopes[c.index()] {
                            if !seen.insert(*v) {
                                return Err(CircuitError::NotDecomposable { node: i });
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// `true` when every sum node has at most one child with non-zero value
    /// for every complete assignment — checked *syntactically* for circuits
    /// produced by [`crate::compile::compile_cnf`] (decision-style sums over
    /// complementary indicators). Returns `false` when determinism cannot be
    /// established syntactically.
    pub fn is_syntactically_deterministic(&self) -> bool {
        // A sum is decision-style if each child is a product containing an
        // indicator over the same variable with pairwise distinct values.
        'outer: for node in self.nodes.iter() {
            if let PcNode::Sum { children, .. } = node {
                if children.len() == 1 {
                    continue;
                }
                let mut decided: Vec<(usize, usize)> = Vec::new();
                for c in children {
                    match self.decision_indicator(*c) {
                        Some(pair) => decided.push(pair),
                        None => return false,
                    }
                }
                let var = decided[0].0;
                if decided.iter().any(|(v, _)| *v != var) {
                    return false;
                }
                let mut values: Vec<usize> = decided.iter().map(|(_, val)| *val).collect();
                values.sort_unstable();
                values.dedup();
                if values.len() != decided.len() {
                    return false;
                }
                continue 'outer;
            }
        }
        true
    }

    fn decision_indicator(&self, id: NodeId) -> Option<(usize, usize)> {
        match self.node(id) {
            PcNode::Indicator { var, value } => Some((*var, *value)),
            PcNode::Product { children } => children.iter().find_map(|c| {
                if let PcNode::Indicator { var, value } = self.node(*c) {
                    Some((*var, *value))
                } else {
                    None
                }
            }),
            _ => None,
        }
    }

    /// Rebuilds the circuit keeping only nodes reachable from the root,
    /// preserving relative order. Returns the compacted circuit and the
    /// number of nodes dropped.
    pub fn compact(&self) -> (Circuit, usize) {
        let compacted = Circuit::live(self.arities.clone(), &self.nodes, self.root);
        let dropped = self.nodes.len() - compacted.nodes.len();
        (compacted, dropped)
    }

    /// The live circuit under `root` of a shared children-first node
    /// array. When every node is reachable — what a search that killed
    /// no branch leaves behind — the circuit *is* that array, shared,
    /// not copied; otherwise the live subgraph is the only copy made.
    /// Either way the array's other owner (an in-crate compiler's
    /// cache) keeps it.
    pub(crate) fn live(arities: Vec<usize>, all: &Arc<Vec<PcNode>>, root: NodeId) -> Circuit {
        let mut reachable = vec![false; all.len()];
        reachable[root.index()] = true;
        let mut live = 0;
        for i in (0..all.len()).rev() {
            if reachable[i] {
                live += 1;
                for c in all[i].children() {
                    reachable[c.index()] = true;
                }
            }
        }
        if live == all.len() {
            // Children precede parents, so an all-live array ends at its root.
            return Circuit { arities, nodes: Arc::clone(all), root };
        }
        let mut remap: Vec<Option<NodeId>> = vec![None; all.len()];
        let mut nodes: Vec<PcNode> = Vec::with_capacity(live);
        for (i, node) in all.iter().enumerate() {
            if !reachable[i] {
                continue;
            }
            let mut node = node.clone();
            match &mut node {
                PcNode::Sum { children, .. } | PcNode::Product { children } => {
                    for c in children.iter_mut() {
                        *c = remap[c.index()].expect("child must be reachable before parent");
                    }
                }
                _ => {}
            }
            remap[i] = Some(NodeId(nodes.len() as u32));
            nodes.push(node);
        }
        let root = remap[root.index()].expect("root is reachable");
        Circuit::from_parts(arities, nodes, root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_var_mixture() -> Circuit {
        let mut b = CircuitBuilder::new(vec![2, 2]);
        let x0t = b.indicator(0, 1);
        let x0f = b.indicator(0, 0);
        let x1t = b.indicator(1, 1);
        let x1f = b.indicator(1, 0);
        let p0 = b.product(vec![x0t, x1t]);
        let p1 = b.product(vec![x0f, x1f]);
        let root = b.sum(vec![p0, p1], vec![0.3, 0.7]);
        b.build(root).unwrap()
    }

    #[test]
    fn builds_and_counts() {
        let c = two_var_mixture();
        assert_eq!(c.num_nodes(), 7);
        assert_eq!(c.num_edges(), 6);
        assert_eq!(c.num_vars(), 2);
        assert!(c.footprint_bytes() > 0);
    }

    #[test]
    fn scopes_computed_bottom_up() {
        let c = two_var_mixture();
        let scopes = c.scopes();
        assert_eq!(scopes[c.root().index()], BTreeSet::from([0, 1]));
        assert_eq!(scopes[0], BTreeSet::from([0]));
    }

    #[test]
    fn rejects_non_smooth_sum() {
        let mut b = CircuitBuilder::new(vec![2, 2]);
        let x0 = b.indicator(0, 1);
        let x1 = b.indicator(1, 1);
        let root = b.sum(vec![x0, x1], vec![0.5, 0.5]);
        assert!(matches!(b.build(root), Err(CircuitError::NotSmooth { .. })));
    }

    #[test]
    fn rejects_non_decomposable_product() {
        let mut b = CircuitBuilder::new(vec![2]);
        let a = b.indicator(0, 1);
        let bb = b.indicator(0, 0);
        let root = b.product(vec![a, bb]);
        assert!(matches!(b.build(root), Err(CircuitError::NotDecomposable { .. })));
    }

    #[test]
    fn rejects_supernormalized_weights() {
        let mut b = CircuitBuilder::new(vec![2]);
        let a = b.indicator(0, 1);
        let c = b.indicator(0, 0);
        let root = b.sum(vec![a, c], vec![0.5, 0.9]);
        assert!(matches!(b.build(root), Err(CircuitError::UnnormalizedSum { .. })));
    }

    #[test]
    fn accepts_subnormalized_weights() {
        let mut b = CircuitBuilder::new(vec![2]);
        let a = b.indicator(0, 1);
        let root = b.sum(vec![a], vec![0.25]);
        assert!(b.build(root).is_ok());
    }

    #[test]
    fn rejects_bad_leaf() {
        let mut b = CircuitBuilder::new(vec![2]);
        let a = b.indicator(0, 5);
        assert!(matches!(b.build(a), Err(CircuitError::BadLeaf { .. })));
    }

    #[test]
    fn determinism_detected_for_decision_sums() {
        let c = two_var_mixture();
        assert!(c.is_syntactically_deterministic());

        // A sum over two categorical children is not syntactically
        // deterministic.
        let mut b = CircuitBuilder::new(vec![2]);
        let c0 = b.categorical(0, &[0.5, 0.5]);
        let c1 = b.categorical(0, &[0.1, 0.9]);
        let root = b.sum(vec![c0, c1], vec![0.5, 0.5]);
        let c = b.build(root).unwrap();
        assert!(!c.is_syntactically_deterministic());
    }

    #[test]
    fn compact_drops_unreachable() {
        let mut b = CircuitBuilder::new(vec![2]);
        let _orphan = b.indicator(0, 0);
        let a = b.indicator(0, 1);
        let circuit = b.build(a).unwrap();
        let (compacted, dropped) = circuit.compact();
        assert_eq!(dropped, 1);
        assert_eq!(compacted.num_nodes(), 1);
        compacted.validate().unwrap();
    }
}
