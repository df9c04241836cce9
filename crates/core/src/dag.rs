//! The unified DAG intermediate representation (paper Sec. IV-A).
//!
//! Nodes compute over `f64` values; Boolean logic is embedded numerically
//! (false = 0, true = 1, `And` = product, `Or` = max, `Not` = 1 − x) so a
//! single evaluator — and a single hardware datapath of adders,
//! multipliers, and comparators (paper Sec. V-B) — serves logical,
//! probabilistic, and sequential kernels alike.

use std::collections::HashMap;
use std::fmt;

/// Index of a node within a [`Dag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates an id from a raw index. The id is only meaningful for the
    /// DAG whose node list position it names; out-of-range ids surface as
    /// panics on access.
    pub fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }

    pub(crate) fn new(index: usize) -> Self {
        NodeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// The operation a DAG node performs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DagOp {
    /// An external input, identified by slot index.
    Input(u32),
    /// A constant.
    Const(f64),
    /// N-ary addition (probabilistic aggregation, OR-accumulation).
    Add,
    /// N-ary multiplication (factor products, numeric AND).
    Mul,
    /// N-ary maximum (numeric OR, max-product decoding).
    Max,
    /// Unary complement `1 - x` (numeric NOT).
    Not,
}

impl DagOp {
    /// `true` for associative n-ary ops that regularization may rebalance.
    pub fn is_associative(&self) -> bool {
        matches!(self, DagOp::Add | DagOp::Mul | DagOp::Max)
    }
}

/// Provenance tag carried by each node — the paper's per-kernel node
/// typing (Fig. 5: literals/clauses/formulas, sum/product, transition/
/// emission factors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A literal of a logical formula.
    Literal,
    /// A clause (disjunction) node.
    Clause,
    /// A formula (conjunction) root.
    Formula,
    /// A probabilistic sum (mixture) component.
    Sum,
    /// A probabilistic product (factorization).
    Product,
    /// A leaf distribution.
    Leaf,
    /// An HMM transition factor.
    Transition,
    /// An HMM emission factor.
    Emission,
    /// Untyped plumbing (constants, regularization intermediates).
    Generic,
}

/// One node: an op, its children, and a provenance tag.
#[derive(Debug, Clone, PartialEq)]
pub struct DagNode {
    /// The operation.
    pub op: DagOp,
    /// Child node ids (operands), all defined before this node.
    pub children: Vec<NodeId>,
    /// Provenance tag.
    pub kind: NodeKind,
}

/// Structural errors detected by [`DagBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// A node references a child at or after its own position.
    NotTopological {
        /// Offending node index.
        node: usize,
    },
    /// A nullary op with children, or an n-ary op without any.
    ArityMismatch {
        /// Offending node index.
        node: usize,
    },
    /// The output id is out of range.
    BadOutput,
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::NotTopological { node } => {
                write!(f, "node {node} references a child defined later")
            }
            DagError::ArityMismatch { node } => write!(f, "node {node} has an invalid arity"),
            DagError::BadOutput => write!(f, "output id out of range"),
        }
    }
}

impl std::error::Error for DagError {}

/// Shape statistics of a DAG (reported by characterization benches).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DagStats {
    /// Total nodes.
    pub nodes: usize,
    /// Total edges.
    pub edges: usize,
    /// Number of input slots.
    pub inputs: usize,
    /// Longest path from any input/const to the output.
    pub depth: usize,
    /// Largest fan-in.
    pub max_fan_in: usize,
    /// Estimated memory footprint in bytes (16/node + 8/edge, two-input
    /// hardware words).
    pub footprint_bytes: usize,
}

/// A validated, topologically ordered DAG with a single output.
#[derive(Debug, Clone, PartialEq)]
pub struct Dag {
    nodes: Vec<DagNode>,
    output: NodeId,
    num_inputs: usize,
}

impl Dag {
    /// All nodes, children-first.
    pub fn nodes(&self) -> &[DagNode] {
        &self.nodes
    }

    /// A node by id.
    pub fn node(&self, id: NodeId) -> &DagNode {
        &self.nodes[id.index()]
    }

    /// The output node.
    pub fn output(&self) -> NodeId {
        self.output
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.nodes.iter().map(|n| n.children.len()).sum()
    }

    /// Number of input slots (maximum input index + 1).
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Largest fan-in across nodes.
    pub fn max_fan_in(&self) -> usize {
        self.nodes.iter().map(|n| n.children.len()).max().unwrap_or(0)
    }

    /// Longest path length from a source to the output.
    pub fn depth(&self) -> usize {
        let mut depth = vec![0usize; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            depth[i] = node.children.iter().map(|c| depth[c.index()] + 1).max().unwrap_or(0);
        }
        depth[self.output.index()]
    }

    /// Shape statistics.
    pub fn stats(&self) -> DagStats {
        DagStats {
            nodes: self.num_nodes(),
            edges: self.num_edges(),
            inputs: self.num_inputs,
            depth: self.depth(),
            max_fan_in: self.max_fan_in(),
            footprint_bytes: 16 * self.num_nodes() + 8 * self.num_edges(),
        }
    }

    /// Evaluates every node under the given input slot values, returning
    /// one value per node.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() < self.num_inputs()`.
    pub fn evaluate(&self, inputs: &[f64]) -> Vec<f64> {
        assert!(inputs.len() >= self.num_inputs, "input vector too short");
        let mut vals = vec![0.0f64; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            vals[i] = match node.op {
                DagOp::Input(slot) => inputs[slot as usize],
                DagOp::Const(c) => c,
                DagOp::Add => node.children.iter().map(|c| vals[c.index()]).sum(),
                DagOp::Mul => node.children.iter().map(|c| vals[c.index()]).product(),
                DagOp::Max => {
                    node.children.iter().map(|c| vals[c.index()]).fold(f64::NEG_INFINITY, f64::max)
                }
                DagOp::Not => 1.0 - vals[node.children[0].index()],
            };
        }
        vals
    }

    /// Evaluates and returns only the output value.
    pub fn evaluate_output(&self, inputs: &[f64]) -> f64 {
        self.evaluate(inputs)[self.output.index()]
    }

    /// Validates topology and arities.
    ///
    /// # Errors
    ///
    /// Returns the first [`DagError`] found.
    pub fn validate(&self) -> Result<(), DagError> {
        if self.output.index() >= self.nodes.len() {
            return Err(DagError::BadOutput);
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if node.children.iter().any(|c| c.index() >= i) {
                return Err(DagError::NotTopological { node: i });
            }
            let bad_arity = match node.op {
                DagOp::Input(_) | DagOp::Const(_) => !node.children.is_empty(),
                DagOp::Not => node.children.len() != 1,
                DagOp::Add | DagOp::Mul | DagOp::Max => node.children.is_empty(),
            };
            if bad_arity {
                return Err(DagError::ArityMismatch { node: i });
            }
        }
        Ok(())
    }

    /// Returns the DAG with dead (unreachable-from-output) nodes removed.
    /// Second value is the number of nodes dropped.
    pub fn compact(&self) -> (Dag, usize) {
        let mut live = vec![false; self.nodes.len()];
        live[self.output.index()] = true;
        for i in (0..self.nodes.len()).rev() {
            if live[i] {
                for c in &self.nodes[i].children {
                    live[c.index()] = true;
                }
            }
        }
        let mut remap: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        let mut nodes = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if !live[i] {
                continue;
            }
            let children =
                node.children.iter().map(|c| remap[c.index()].expect("child live")).collect();
            remap[i] = Some(NodeId::new(nodes.len()));
            nodes.push(DagNode { op: node.op, children, kind: node.kind });
        }
        let dropped = self.nodes.len() - nodes.len();
        let output = remap[self.output.index()].expect("output live");
        (Dag { nodes, output, num_inputs: self.num_inputs }, dropped)
    }
}

/// Hash key for common-subexpression elimination: op discriminant, const
/// bits, and children.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum CseKey {
    Input(u32),
    Const(u64),
    Op(u8, Vec<NodeId>),
}

/// Incremental builder with optional hash-consing (CSE).
///
/// ```
/// use reason_core::{DagBuilder, DagOp, NodeKind};
/// let mut b = DagBuilder::new();
/// let x = b.input(0);
/// let y = b.input(1);
/// let sum = b.node(DagOp::Add, vec![x, y], NodeKind::Generic);
/// let dag = b.build(sum).unwrap();
/// assert_eq!(dag.evaluate_output(&[2.0, 3.0]), 5.0);
/// ```
#[derive(Debug, Default)]
pub struct DagBuilder {
    nodes: Vec<DagNode>,
    cse: HashMap<CseKey, NodeId>,
    dedup: bool,
    num_inputs: usize,
}

impl DagBuilder {
    /// A builder with CSE enabled.
    pub fn new() -> Self {
        DagBuilder { nodes: Vec::new(), cse: HashMap::new(), dedup: true, num_inputs: 0 }
    }

    /// A builder without common-subexpression elimination.
    pub fn without_cse() -> Self {
        DagBuilder { dedup: false, ..DagBuilder::new() }
    }

    /// Number of nodes so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when no node was added.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds (or reuses) an input node for `slot`.
    pub fn input(&mut self, slot: u32) -> NodeId {
        self.num_inputs = self.num_inputs.max(slot as usize + 1);
        self.intern(CseKey::Input(slot), DagOp::Input(slot), Vec::new(), NodeKind::Generic)
    }

    /// Adds (or reuses) a constant node.
    pub fn constant(&mut self, value: f64) -> NodeId {
        self.intern(
            CseKey::Const(value.to_bits()),
            DagOp::Const(value),
            Vec::new(),
            NodeKind::Generic,
        )
    }

    /// Adds an operation node.
    ///
    /// # Panics
    ///
    /// Panics on arity violations (nullary op with children, `Not` without
    /// exactly one child, n-ary op with no children).
    pub fn node(&mut self, op: DagOp, children: Vec<NodeId>, kind: NodeKind) -> NodeId {
        match op {
            DagOp::Input(slot) => {
                assert!(children.is_empty(), "input takes no children");
                self.num_inputs = self.num_inputs.max(slot as usize + 1);
                return self.intern(CseKey::Input(slot), op, children, kind);
            }
            DagOp::Const(c) => {
                assert!(children.is_empty(), "const takes no children");
                return self.intern(CseKey::Const(c.to_bits()), op, children, kind);
            }
            DagOp::Not => assert_eq!(children.len(), 1, "Not takes exactly one child"),
            DagOp::Add | DagOp::Mul | DagOp::Max => {
                assert!(!children.is_empty(), "n-ary op needs children")
            }
        }
        let tag = match op {
            DagOp::Add => 0u8,
            DagOp::Mul => 1,
            DagOp::Max => 2,
            DagOp::Not => 3,
            _ => unreachable!("nullary handled above"),
        };
        self.intern(CseKey::Op(tag, children.clone()), op, children, kind)
    }

    fn intern(&mut self, key: CseKey, op: DagOp, children: Vec<NodeId>, kind: NodeKind) -> NodeId {
        if self.dedup {
            if let Some(&id) = self.cse.get(&key) {
                return id;
            }
        }
        let id = NodeId::new(self.nodes.len());
        self.nodes.push(DagNode { op, children, kind });
        if self.dedup {
            self.cse.insert(key, id);
        }
        id
    }

    /// Finalizes with `output` as the DAG's result node.
    ///
    /// # Errors
    ///
    /// Returns a [`DagError`] on structural violations.
    pub fn build(self, output: NodeId) -> Result<Dag, DagError> {
        let dag = Dag { nodes: self.nodes, output, num_inputs: self.num_inputs };
        dag.validate()?;
        Ok(dag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluates_arithmetic() {
        let mut b = DagBuilder::new();
        let x = b.input(0);
        let c = b.constant(3.0);
        let mul = b.node(DagOp::Mul, vec![x, c], NodeKind::Generic);
        let y = b.input(1);
        let add = b.node(DagOp::Add, vec![mul, y], NodeKind::Generic);
        let dag = b.build(add).unwrap();
        assert_eq!(dag.evaluate_output(&[2.0, 1.5]), 7.5);
        assert_eq!(dag.num_inputs(), 2);
    }

    #[test]
    fn boolean_embedding() {
        // (x0 OR NOT x1) as Max(x0, Not(x1)).
        let mut b = DagBuilder::new();
        let x0 = b.input(0);
        let x1 = b.input(1);
        let n = b.node(DagOp::Not, vec![x1], NodeKind::Literal);
        let or = b.node(DagOp::Max, vec![x0, n], NodeKind::Clause);
        let dag = b.build(or).unwrap();
        assert_eq!(dag.evaluate_output(&[0.0, 0.0]), 1.0);
        assert_eq!(dag.evaluate_output(&[0.0, 1.0]), 0.0);
        assert_eq!(dag.evaluate_output(&[1.0, 1.0]), 1.0);
    }

    #[test]
    fn cse_shares_nodes() {
        let mut b = DagBuilder::new();
        let x = b.input(0);
        let a1 = b.node(DagOp::Not, vec![x], NodeKind::Generic);
        let a2 = b.node(DagOp::Not, vec![x], NodeKind::Generic);
        assert_eq!(a1, a2);
        let c1 = b.constant(2.5);
        let c2 = b.constant(2.5);
        assert_eq!(c1, c2);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn without_cse_duplicates() {
        let mut b = DagBuilder::without_cse();
        let x = b.input(0);
        let y = b.input(0);
        assert_ne!(x, y);
    }

    #[test]
    fn stats_and_depth() {
        let mut b = DagBuilder::new();
        let x = b.input(0);
        let y = b.input(1);
        let z = b.input(2);
        let add = b.node(DagOp::Add, vec![x, y, z], NodeKind::Generic);
        let not = b.node(DagOp::Not, vec![add], NodeKind::Generic);
        let dag = b.build(not).unwrap();
        let stats = dag.stats();
        assert_eq!(stats.nodes, 5);
        assert_eq!(stats.edges, 4);
        assert_eq!(stats.max_fan_in, 3);
        assert_eq!(stats.depth, 2);
        assert_eq!(stats.inputs, 3);
    }

    #[test]
    fn compact_removes_dead_nodes() {
        let mut b = DagBuilder::without_cse();
        let x = b.input(0);
        let _dead = b.node(DagOp::Not, vec![x], NodeKind::Generic);
        let live = b.node(DagOp::Not, vec![x], NodeKind::Generic);
        let dag = b.build(live).unwrap();
        let (compacted, dropped) = dag.compact();
        assert_eq!(dropped, 1);
        assert_eq!(compacted.num_nodes(), 2);
        assert_eq!(compacted.evaluate_output(&[0.0]), dag.evaluate_output(&[0.0]));
    }

    #[test]
    fn validation_errors() {
        // Manual construction of an invalid DAG through the builder is
        // prevented by panics; test the validator directly.
        let dag = Dag {
            nodes: vec![DagNode {
                op: DagOp::Add,
                children: vec![NodeId::new(0)],
                kind: NodeKind::Generic,
            }],
            output: NodeId::new(0),
            num_inputs: 0,
        };
        assert!(matches!(dag.validate(), Err(DagError::NotTopological { .. })));
        let dag = Dag { nodes: vec![], output: NodeId::new(3), num_inputs: 0 };
        assert!(matches!(dag.validate(), Err(DagError::BadOutput)));
    }

    #[test]
    #[should_panic(expected = "n-ary op needs children")]
    fn builder_rejects_empty_nary() {
        let mut b = DagBuilder::new();
        let _ = b.node(DagOp::Add, vec![], NodeKind::Generic);
    }
}
