//! Circuit data structure, construction, and structural validation.
//!
//! A [`Circuit`] is stored as three flat tables, the CSR idiom of the
//! served [`crate::Dnnf`] arena and of `reason_core::Dag`: one 16-byte
//! record per node (its kind, a variable and value for indicators, and
//! offsets into the other two tables), one [`NodeId`] table holding
//! every node's children back to back, and one `f64` table holding sum
//! log-weights and categorical log-probabilities. No node owns a heap
//! allocation: a compiled circuit costs about 28–32 bytes per node, and
//! building one appends to three vectors.
//!
//! [`Circuit::nodes`] yields [`PcNode`] views — `Copy` values whose
//! slices borrow the tables — so a walk matches on the node kinds
//! without touching the layout.

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

/// A node of a probabilistic circuit (paper Eq. 1), as read from the
/// circuit's tables: the slices borrow the circuit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PcNode<'a> {
    /// Weighted mixture: `p(x) = Σ_c w_c · p_c(x)`. Weights are stored in
    /// log-space, parallel to `children`.
    Sum {
        /// Child node ids.
        children: &'a [NodeId],
        /// Log-weights, same length as `children`.
        log_weights: &'a [f64],
    },
    /// Factorization: `p(x) = Π_c p_c(x)`.
    Product {
        /// Child node ids.
        children: &'a [NodeId],
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
        log_probs: &'a [f64],
    },
}

impl<'a> PcNode<'a> {
    /// Children of this node (empty for leaves).
    pub fn children(self) -> &'a [NodeId] {
        match self {
            PcNode::Sum { children, .. } | PcNode::Product { children } => children,
            _ => &[],
        }
    }

    /// `true` for sum nodes.
    pub(crate) fn is_sum(self) -> bool {
        matches!(self, PcNode::Sum { .. })
    }

    /// Entries this node holds in the parameter table.
    pub(crate) fn num_params(self) -> usize {
        match self {
            PcNode::Sum { log_weights: params, .. }
            | PcNode::Categorical { log_probs: params, .. } => params.len(),
            _ => 0,
        }
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

/// One node's fixed-size record: a leaf's variable and value, or the
/// ranges of its children in [`Tables::edges`] and of its log-weights
/// or log-probabilities in [`Tables::params`]. A sum's weights are as
/// many as its children, so one length serves both ranges.
#[derive(Debug, Clone, Copy)]
enum Record {
    Sum { edges: u32, len: u32, params: u32 },
    Product { edges: u32, len: u32 },
    Indicator { var: u32, value: u32 },
    Categorical { var: u32, params: u32, len: u32 },
}

/// A table offset or index as stored in a [`Record`].
fn offset(x: usize) -> u32 {
    u32::try_from(x).expect("circuit tables are indexed by u32")
}

/// The flat tables of a circuit under construction or built: node
/// records in children-first order, the children of every interior node
/// back to back, and every sum's log-weights and categorical's
/// log-probabilities back to back.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tables {
    records: Vec<Record>,
    edges: Vec<NodeId>,
    params: Vec<f64>,
}

impl Tables {
    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// Node `id`, read as a view.
    pub(crate) fn node(&self, id: NodeId) -> PcNode<'_> {
        self.view(self.records[id.index()])
    }

    fn view(&self, record: Record) -> PcNode<'_> {
        let range = |lo: u32, len: u32| lo as usize..(lo + len) as usize;
        match record {
            Record::Sum { edges, len, params } => PcNode::Sum {
                children: &self.edges[range(edges, len)],
                log_weights: &self.params[range(params, len)],
            },
            Record::Product { edges, len } => {
                PcNode::Product { children: &self.edges[range(edges, len)] }
            }
            Record::Indicator { var, value } => {
                PcNode::Indicator { var: var as usize, value: value as usize }
            }
            Record::Categorical { var, params, len } => PcNode::Categorical {
                var: var as usize,
                log_probs: &self.params[range(params, len)],
            },
        }
    }

    /// Where node `id`'s children sit in the child table (empty for a
    /// leaf).
    fn edge_range(&self, id: NodeId) -> std::ops::Range<usize> {
        match self.records[id.index()] {
            Record::Sum { edges, len, .. } | Record::Product { edges, len } => {
                edges as usize..(edges + len) as usize
            }
            _ => 0..0,
        }
    }

    /// Every node, children-first.
    pub(crate) fn nodes(
        &self,
    ) -> impl ExactSizeIterator<Item = PcNode<'_>> + DoubleEndedIterator + '_ {
        self.records.iter().map(|&record| self.view(record))
    }

    /// Appends a copy of `node` whose children are rewritten through
    /// `map`; log-weights and log-probabilities are copied bit for bit.
    pub(crate) fn push_mapped(
        &mut self,
        node: PcNode<'_>,
        mut map: impl FnMut(NodeId) -> NodeId,
    ) -> NodeId {
        let id = NodeId(offset(self.records.len()));
        let (edges, params) = (offset(self.edges.len()), offset(self.params.len()));
        let record = match node {
            PcNode::Sum { children, log_weights } => {
                debug_assert_eq!(children.len(), log_weights.len(), "one weight per child");
                self.edges.extend(children.iter().map(|&c| map(c)));
                self.params.extend_from_slice(log_weights);
                Record::Sum { edges, len: offset(children.len()), params }
            }
            PcNode::Product { children } => {
                self.edges.extend(children.iter().map(|&c| map(c)));
                Record::Product { edges, len: offset(children.len()) }
            }
            PcNode::Indicator { var, value } => {
                Record::Indicator { var: offset(var), value: offset(value) }
            }
            PcNode::Categorical { var, log_probs } => {
                self.params.extend_from_slice(log_probs);
                Record::Categorical { var: offset(var), params, len: offset(log_probs.len()) }
            }
        };
        self.records.push(record);
        id
    }

    /// Releases spare capacity, for tables that are done growing.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.records.shrink_to_fit();
        self.edges.shrink_to_fit();
        self.params.shrink_to_fit();
    }

    /// The heap this value holds behind an `Arc`: the `Arc`'s block
    /// (its two counters and this struct) plus the three tables'
    /// capacities.
    pub(crate) fn shared_bytes(&self) -> usize {
        use std::mem::size_of;
        2 * size_of::<usize>()
            + size_of::<Tables>()
            + self.records.capacity() * size_of::<Record>()
            + self.edges.capacity() * size_of::<NodeId>()
            + self.params.capacity() * size_of::<f64>()
    }
}

/// Incremental builder for a [`Circuit`].
///
/// Nodes must be added children-first; [`build`](Self::build) validates the
/// full structure. See the [crate docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct CircuitBuilder {
    arities: Vec<usize>,
    tables: Tables,
    /// The first sum given a weight count unlike its child count; such a
    /// sum keeps the shorter of the two lists, and `build` reports it.
    malformed: Option<usize>,
}

impl CircuitBuilder {
    /// Starts a circuit over discrete variables with the given arities
    /// (`arities[v]` = number of values of variable `v`).
    pub fn new(arities: Vec<usize>) -> Self {
        CircuitBuilder { arities, tables: Tables::default(), malformed: None }
    }

    /// Adds an indicator leaf `[X_var = value]`.
    pub fn indicator(&mut self, var: usize, value: usize) -> NodeId {
        self.push_raw(PcNode::Indicator { var, value })
    }

    /// Adds a categorical leaf over `var` with the given probabilities
    /// (linear space; converted to logs).
    pub fn categorical(&mut self, var: usize, probs: &[f64]) -> NodeId {
        let tables = &mut self.tables;
        let (id, params) = (NodeId(offset(tables.len())), offset(tables.params.len()));
        tables.params.extend(probs.iter().map(|p| p.ln()));
        let len = offset(probs.len());
        tables.records.push(Record::Categorical { var: offset(var), params, len });
        id
    }

    /// Adds a product node.
    pub fn product(&mut self, children: &[NodeId]) -> NodeId {
        self.push_raw(PcNode::Product { children })
    }

    /// Adds a sum node with linear-space weights (converted to logs),
    /// one per child.
    pub fn sum(&mut self, children: &[NodeId], weights: &[f64]) -> NodeId {
        let len = children.len().min(weights.len());
        if len != children.len().max(weights.len()) {
            self.malformed.get_or_insert(self.tables.len());
        }
        let tables = &mut self.tables;
        let (id, edges) = (NodeId(offset(tables.len())), offset(tables.edges.len()));
        let params = offset(tables.params.len());
        tables.edges.extend_from_slice(&children[..len]);
        tables.params.extend(weights[..len].iter().map(|w| w.ln()));
        tables.records.push(Record::Sum { edges, len: offset(len), params });
        id
    }

    /// Finalizes the circuit with `root` as the output node.
    ///
    /// # Errors
    ///
    /// Returns a [`CircuitError`] describing the first structural defect
    /// found (ordering, malformed sums, smoothness, decomposability).
    pub fn build(self, root: NodeId) -> Result<Circuit, CircuitError> {
        let malformed = self.malformed;
        let circuit = Circuit::from_parts(self.arities, self.tables, root);
        circuit.validate_up_to(malformed.unwrap_or(usize::MAX))?;
        match malformed {
            Some(node) => Err(CircuitError::MalformedSum { node }),
            None => Ok(circuit),
        }
    }

    /// Consumes the builder, returning `(arities, tables)` without
    /// validation — for in-crate compilers whose construction
    /// discipline guarantees the invariants (they still
    /// `debug_assert!` a full [`Circuit::validate`] in debug builds,
    /// where the O(nodes · vars) scope computation is affordable).
    pub(crate) fn into_parts(self) -> (Vec<usize>, Tables) {
        (self.arities, self.tables)
    }

    /// Appends a copy of a node without linear↔log weight conversion —
    /// for in-crate compilers and rewrites whose log-weights must
    /// survive bit-for-bit (an `exp`/`ln` round trip can move the last
    /// ulp). The caller guarantees children precede the node.
    pub(crate) fn push_raw(&mut self, node: PcNode<'_>) -> NodeId {
        self.tables.push_mapped(node, |c| c)
    }

    /// [`push_raw`](Self::push_raw) with the children rewritten through
    /// `map` (a splice or a compaction renumbering them).
    pub(crate) fn push_mapped(
        &mut self,
        node: PcNode<'_>,
        map: impl FnMut(NodeId) -> NodeId,
    ) -> NodeId {
        self.tables.push_mapped(node, map)
    }
}

/// A validated probabilistic circuit.
///
/// Nodes are stored in topological order (children before parents), so a
/// single forward sweep evaluates the circuit and a single backward sweep
/// computes flows.
///
/// A circuit is immutable once built, so its tables sit behind one
/// [`Arc`]: cloning a circuit shares them, and a compiled circuit may
/// share them with the [`crate::PersistentComponentCache`] that
/// compiled it.
#[derive(Clone)]
pub struct Circuit {
    arities: Vec<usize>,
    tables: Arc<Tables>,
    root: NodeId,
}

/// Prints what a circuit holding its nodes as a list of owned
/// [`PcNode`]s printed: `Circuit { arities, nodes: [..], root }`.
impl fmt::Debug for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Nodes<'a>(&'a Tables);
        impl fmt::Debug for Nodes<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.nodes()).finish()
            }
        }
        f.debug_struct("Circuit")
            .field("arities", &self.arities)
            .field("nodes", &Nodes(&self.tables))
            .field("root", &self.root)
            .finish()
    }
}

/// Equal arities, roots and nodes, node by node.
impl PartialEq for Circuit {
    fn eq(&self, other: &Self) -> bool {
        self.arities == other.arities && self.root == other.root && self.nodes().eq(other.nodes())
    }
}

impl Circuit {
    /// Constructs a circuit from parts without validation; intended for
    /// internal transformations that preserve the invariants.
    pub(crate) fn from_parts(arities: Vec<usize>, tables: Tables, root: NodeId) -> Self {
        Circuit { arities, tables: Arc::new(tables), root }
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// All nodes, children-first.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = PcNode<'_>> + DoubleEndedIterator + '_ {
        self.tables.nodes()
    }

    /// A node by id.
    pub(crate) fn node(&self, id: NodeId) -> PcNode<'_> {
        self.tables.node(id)
    }

    /// Where node `id`'s children sit among the circuit's edges, which
    /// are numbered node by node, children in order (empty for a leaf).
    pub(crate) fn edge_range(&self, id: NodeId) -> std::ops::Range<usize> {
        self.tables.edge_range(id)
    }

    /// The shared tables, for the tests of who shares them.
    #[cfg(test)]
    pub(crate) fn tables(&self) -> &Arc<Tables> {
        &self.tables
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.tables.len()
    }

    /// Number of edges: the length of the child table.
    pub fn num_edges(&self) -> usize {
        self.tables.edges.len()
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
    pub fn footprint_bytes(&self) -> usize {
        16 * self.num_nodes() + 8 * self.num_edges()
    }

    /// Computes the scope (set of referenced variables) of every node.
    fn scopes(&self) -> Vec<BTreeSet<usize>> {
        let mut scopes: Vec<BTreeSet<usize>> = Vec::with_capacity(self.num_nodes());
        for node in self.nodes() {
            let scope = match node {
                PcNode::Indicator { var, .. } | PcNode::Categorical { var, .. } => {
                    BTreeSet::from([var])
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
        self.validate_up_to(usize::MAX)
    }

    /// [`validate`](Self::validate), reporting only the node-local
    /// defects of nodes before `first_malformed` — a builder reports
    /// that node's malformed sum itself, after any earlier defect.
    fn validate_up_to(&self, first_malformed: usize) -> Result<(), CircuitError> {
        if self.root.index() >= self.num_nodes() {
            return Err(CircuitError::BadRoot);
        }
        for (i, node) in self.nodes().enumerate().take(first_malformed) {
            for c in node.children() {
                if c.index() >= i {
                    return Err(CircuitError::BadChild { node: i, child: c.index() });
                }
            }
            match node {
                PcNode::Sum { children, log_weights } => {
                    if children.is_empty() {
                        return Err(CircuitError::MalformedSum { node: i });
                    }
                    let total: f64 = log_weights.iter().map(|lw| lw.exp()).sum();
                    if total > 1.0 + 1e-6 {
                        return Err(CircuitError::UnnormalizedSum { node: i, total });
                    }
                }
                PcNode::Indicator { var, value } => {
                    if var >= self.arities.len() || value >= self.arities[var] {
                        return Err(CircuitError::BadLeaf { node: i });
                    }
                }
                PcNode::Categorical { var, log_probs } => {
                    if var >= self.arities.len() || log_probs.len() != self.arities[var] {
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
        if first_malformed != usize::MAX {
            return Ok(());
        }
        // Smoothness and decomposability via scopes.
        let scopes = self.scopes();
        for (i, node) in self.nodes().enumerate() {
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
        'outer: for node in self.nodes() {
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
            PcNode::Indicator { var, value } => Some((var, value)),
            PcNode::Product { children } => children.iter().find_map(|c| {
                if let PcNode::Indicator { var, value } = self.node(*c) {
                    Some((var, value))
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
    pub(crate) fn compact(&self) -> (Circuit, usize) {
        let compacted = Circuit::live(self.arities.clone(), &self.tables, self.root);
        let dropped = self.num_nodes() - compacted.num_nodes();
        (compacted, dropped)
    }

    /// The live circuit under `root` of shared children-first tables.
    /// When every node is reachable — what a search that killed no
    /// branch leaves behind — the circuit *is* those tables, shared, not
    /// copied; otherwise the live subgraph, sized exactly, is the only
    /// copy made. Either way the tables' other owner (an in-crate
    /// compiler's cache) keeps them.
    pub(crate) fn live(arities: Vec<usize>, all: &Arc<Tables>, root: NodeId) -> Circuit {
        let mut reachable = vec![false; all.len()];
        reachable[root.index()] = true;
        let (mut live, mut edges, mut params) = (0, 0, 0);
        for (i, node) in all.nodes().enumerate().rev() {
            if reachable[i] {
                live += 1;
                edges += node.children().len();
                params += node.num_params();
                for c in node.children() {
                    reachable[c.index()] = true;
                }
            }
        }
        if live == all.len() {
            // Children precede parents, so an all-live table ends at its root.
            return Circuit { arities, tables: Arc::clone(all), root };
        }
        let mut remap: Vec<Option<NodeId>> = vec![None; all.len()];
        let mut tables = Tables {
            records: Vec::with_capacity(live),
            edges: Vec::with_capacity(edges),
            params: Vec::with_capacity(params),
        };
        for (i, node) in all.nodes().enumerate() {
            if reachable[i] {
                let id = tables.push_mapped(node, |c| {
                    remap[c.index()].expect("child must be reachable before parent")
                });
                remap[i] = Some(id);
            }
        }
        let root = remap[root.index()].expect("root is reachable");
        Circuit::from_parts(arities, tables, root)
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
        let p0 = b.product(&[x0t, x1t]);
        let p1 = b.product(&[x0f, x1f]);
        let root = b.sum(&[p0, p1], &[0.3, 0.7]);
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
        let root = b.sum(&[x0, x1], &[0.5, 0.5]);
        assert!(matches!(b.build(root), Err(CircuitError::NotSmooth { .. })));
    }

    #[test]
    fn rejects_non_decomposable_product() {
        let mut b = CircuitBuilder::new(vec![2]);
        let a = b.indicator(0, 1);
        let bb = b.indicator(0, 0);
        let root = b.product(&[a, bb]);
        assert!(matches!(b.build(root), Err(CircuitError::NotDecomposable { .. })));
    }

    #[test]
    fn rejects_supernormalized_weights() {
        let mut b = CircuitBuilder::new(vec![2]);
        let a = b.indicator(0, 1);
        let c = b.indicator(0, 0);
        let root = b.sum(&[a, c], &[0.5, 0.9]);
        assert!(matches!(b.build(root), Err(CircuitError::UnnormalizedSum { .. })));
    }

    #[test]
    fn accepts_subnormalized_weights() {
        let mut b = CircuitBuilder::new(vec![2]);
        let a = b.indicator(0, 1);
        let root = b.sum(&[a], &[0.25]);
        assert!(b.build(root).is_ok());
    }

    #[test]
    fn rejects_mismatched_sum_weights_after_earlier_defects() {
        let mut b = CircuitBuilder::new(vec![2]);
        let a = b.indicator(0, 1);
        let c = b.indicator(0, 0);
        let root = b.sum(&[a, c], &[1.0]);
        assert_eq!(b.build(root), Err(CircuitError::MalformedSum { node: 2 }));
        // A node-local defect before the malformed sum is reported first.
        let mut b = CircuitBuilder::new(vec![2]);
        let bad = b.indicator(0, 5);
        let c = b.indicator(0, 0);
        let root = b.sum(&[bad, c], &[0.5, 0.25, 0.25]);
        assert_eq!(b.build(root), Err(CircuitError::BadLeaf { node: 0 }));
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
        let root = b.sum(&[c0, c1], &[0.5, 0.5]);
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
