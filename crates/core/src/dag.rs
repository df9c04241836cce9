//! The unified DAG intermediate representation (paper Sec. IV-A).
//!
//! Nodes compute over `f64` values; Boolean logic is embedded numerically
//! (false = 0, true = 1, `And` = product, `Or` = max, `Not` = 1 − x) so a
//! single evaluator — and a single hardware datapath of adders,
//! multipliers, and comparators (paper Sec. V-B) — serves logical,
//! probabilistic, and sequential kernels alike.
//!
//! # Layout
//!
//! A [`Dag`] is a flat arena: one op array, one kind array, and one
//! `edges` array holding every node's children back to back, with a
//! per-node start offset into it. Node `i`'s children are
//! `edges[start[i]..start[i + 1]]`, so a DAG owns four allocations
//! whatever its size. [`Dag::nodes`] and [`Dag::node`] hand out
//! [`DagNode`] views — `Copy` values whose `children` borrow the arena.
//!
//! # Hash-consing
//!
//! [`DagBuilder::new`] interns every node through an open-addressing
//! table of node ids. The probe key is a deterministic hash of the op
//! tag, the payload bits (an `Input`'s slot, a `Const`'s `to_bits()`) and
//! the children slice, and a hit is confirmed against the stored node, so
//! interning allocates nothing per node and the DAG never depends on a
//! random hash seed. The contract the digests of `tests/dag_golden.rs`
//! pin:
//!
//! * constants are keyed on bits, not `==`: `Const(0.0)` and
//!   `Const(-0.0)` are two nodes;
//! * the kind is not part of the key: a hit returns the first interned
//!   node, kind included, and `input`/`constant` intern as
//!   [`NodeKind::Generic`];
//! * children are keyed in order: `Max[a, b]` and `Max[b, a]` are two
//!   nodes, and so are `Add[x]` and `Mul[x]`;
//! * [`DagBuilder::input`] widens `num_inputs` on a hit as on a miss;
//! * [`DagBuilder::without_cse`] never merges: every call adds a node.

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

    /// The hash-consing key: a tag per variant and the payload bits.
    fn key(self) -> (u64, u64) {
        match self {
            DagOp::Input(slot) => (0, u64::from(slot)),
            DagOp::Const(c) => (1, c.to_bits()),
            DagOp::Add => (2, 0),
            DagOp::Mul => (3, 0),
            DagOp::Max => (4, 0),
            DagOp::Not => (5, 0),
        }
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

/// One node, borrowed from its [`Dag`]: an op, its children, and a
/// provenance tag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DagNode<'a> {
    /// The operation.
    pub op: DagOp,
    /// Child node ids (operands), all defined before this node.
    pub children: &'a [NodeId],
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
    ops: Vec<DagOp>,
    kinds: Vec<NodeKind>,
    /// `edges[starts[i]..starts[i + 1]]` are node `i`'s children; one
    /// more entry than nodes, starting at 0.
    starts: Vec<u32>,
    edges: Vec<NodeId>,
    output: NodeId,
    num_inputs: usize,
}

impl Dag {
    /// All nodes, children-first.
    #[inline]
    pub fn nodes(&self) -> impl DoubleEndedIterator<Item = DagNode<'_>> + ExactSizeIterator {
        (0..self.ops.len()).map(move |i| self.node_at(i))
    }

    /// A node by id.
    #[inline]
    pub fn node(&self, id: NodeId) -> DagNode<'_> {
        self.node_at(id.index())
    }

    /// A node's op alone: one load, for passes that classify operands.
    #[inline]
    pub fn op(&self, id: NodeId) -> DagOp {
        self.ops[id.index()]
    }

    #[inline]
    fn node_at(&self, i: usize) -> DagNode<'_> {
        DagNode { op: self.ops[i], children: self.children_at(i), kind: self.kinds[i] }
    }

    #[inline]
    fn children_at(&self, i: usize) -> &[NodeId] {
        &self.edges[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// Appends a node; [`DagBuilder`] decides whether it is new.
    fn push(&mut self, op: DagOp, children: &[NodeId], kind: NodeKind) -> NodeId {
        let id = NodeId::new(self.ops.len());
        self.ops.push(op);
        self.kinds.push(kind);
        self.edges.extend_from_slice(children);
        self.starts.push(self.edges.len() as u32);
        id
    }

    /// The output node.
    pub fn output(&self) -> NodeId {
        self.output
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.ops.len()
    }

    /// Number of edges.
    fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of input slots (maximum input index + 1).
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Largest fan-in across nodes.
    pub fn max_fan_in(&self) -> usize {
        self.starts.windows(2).map(|w| (w[1] - w[0]) as usize).max().unwrap_or(0)
    }

    /// Longest path length from a source to the output.
    pub fn depth(&self) -> usize {
        let mut depth = vec![0usize; self.ops.len()];
        for i in 0..self.ops.len() {
            depth[i] = self.children_at(i).iter().map(|c| depth[c.index()] + 1).max().unwrap_or(0);
        }
        depth[self.output.index()]
    }

    /// Shape statistics.
    pub(crate) fn stats(&self) -> DagStats {
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
    fn evaluate(&self, inputs: &[f64]) -> Vec<f64> {
        assert!(inputs.len() >= self.num_inputs, "input vector too short");
        let mut vals = vec![0.0f64; self.ops.len()];
        for (i, node) in self.nodes().enumerate() {
            let children = node.children;
            vals[i] = match node.op {
                DagOp::Input(slot) => inputs[slot as usize],
                DagOp::Const(c) => c,
                DagOp::Add => children.iter().map(|c| vals[c.index()]).sum(),
                DagOp::Mul => children.iter().map(|c| vals[c.index()]).product(),
                DagOp::Max => {
                    children.iter().map(|c| vals[c.index()]).fold(f64::NEG_INFINITY, f64::max)
                }
                DagOp::Not => 1.0 - vals[children[0].index()],
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
    pub(crate) fn validate(&self) -> Result<(), DagError> {
        if self.output.index() >= self.ops.len() {
            return Err(DagError::BadOutput);
        }
        for (i, node) in self.nodes().enumerate() {
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

    /// The reference dead-node sweep: the DAG rebuilt from its
    /// output-reachable nodes in order, and the number of nodes dropped.
    /// `regularize` skips dead nodes in the same pass that rebuilds the
    /// live ones; its tests hold it to a rebuild of everything followed
    /// by this sweep.
    #[cfg(test)]
    pub(crate) fn compact(&self) -> (Dag, usize) {
        let n = self.ops.len();
        let mut live = vec![false; n];
        live[self.output.index()] = true;
        for i in (0..n).rev() {
            if live[i] {
                for c in self.children_at(i) {
                    live[c.index()] = true;
                }
            }
        }
        let mut b = DagBuilder::without_cse();
        let mut remap: Vec<Option<NodeId>> = vec![None; n];
        for (i, node) in self.nodes().enumerate() {
            if live[i] {
                let children: Vec<NodeId> =
                    node.children.iter().map(|c| remap[c.index()].expect("child live")).collect();
                remap[i] = Some(b.arena.push(node.op, &children, node.kind));
            }
        }
        b.widen_inputs(self.num_inputs);
        let output = remap[self.output.index()].expect("output live");
        let dropped = n - b.len();
        (b.build(output).expect("a sweep keeps validity"), dropped)
    }
}

/// The empty hash-consing slot.
const EMPTY: u64 = 0;

/// Incremental builder with optional hash-consing (CSE).
///
/// ```
/// use reason_core::{DagBuilder, DagOp, NodeKind};
/// let mut b = DagBuilder::new();
/// let x = b.input(0);
/// let y = b.input(1);
/// let sum = b.node(DagOp::Add, &[x, y], NodeKind::Generic);
/// assert_eq!(b.node(DagOp::Add, &[x, y], NodeKind::Sum), sum);
/// let dag = b.build(sum).unwrap();
/// assert_eq!(dag.evaluate_output(&[2.0, 3.0]), 5.0);
/// ```
#[derive(Debug)]
pub struct DagBuilder {
    /// The nodes so far; its output is set by [`DagBuilder::build`].
    arena: Dag,
    /// Open-addressing hash-consing table (empty without CSE): each slot
    /// is [`EMPTY`] or `hash << 32 | (id + 1)`, the hash's top bits
    /// choosing the home slot.
    table: Vec<u64>,
    dedup: bool,
}

impl Default for DagBuilder {
    fn default() -> Self {
        DagBuilder::new()
    }
}

impl DagBuilder {
    /// A builder with CSE enabled.
    pub fn new() -> Self {
        let arena = Dag {
            ops: Vec::new(),
            kinds: Vec::new(),
            starts: vec![0],
            edges: Vec::new(),
            output: NodeId(0),
            num_inputs: 0,
        };
        DagBuilder { arena, table: Vec::new(), dedup: true }
    }

    /// A builder without common-subexpression elimination.
    pub fn without_cse() -> Self {
        DagBuilder { dedup: false, ..DagBuilder::new() }
    }

    /// Makes room for `nodes` more nodes and `edges` more edges, so a
    /// front end that knows an upper bound builds without regrowing.
    pub(crate) fn reserve(&mut self, nodes: usize, edges: usize) {
        let arena = &mut self.arena;
        arena.ops.reserve(nodes);
        arena.kinds.reserve(nodes);
        arena.starts.reserve(nodes);
        arena.edges.reserve(edges);
        if self.dedup {
            self.grow_table(self.len() + nodes);
        }
    }

    /// Widens the input universe to at least `num_inputs` slots, whether
    /// or not a node reads them.
    pub(crate) fn widen_inputs(&mut self, num_inputs: usize) {
        self.arena.num_inputs = self.arena.num_inputs.max(num_inputs);
    }

    /// Number of nodes so far.
    pub fn len(&self) -> usize {
        self.arena.num_nodes()
    }

    /// `true` when no node was added.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds (or reuses) an input node for `slot`.
    pub fn input(&mut self, slot: u32) -> NodeId {
        self.widen_inputs(slot as usize + 1);
        self.intern(DagOp::Input(slot), &[], NodeKind::Generic)
    }

    /// Adds (or reuses) a constant node.
    pub fn constant(&mut self, value: f64) -> NodeId {
        self.intern(DagOp::Const(value), &[], NodeKind::Generic)
    }

    /// Adds (or reuses) an operation node.
    ///
    /// # Panics
    ///
    /// Panics on arity violations (nullary op with children, `Not` without
    /// exactly one child, n-ary op with no children).
    pub fn node(&mut self, op: DagOp, children: &[NodeId], kind: NodeKind) -> NodeId {
        match op {
            DagOp::Input(slot) => {
                assert!(children.is_empty(), "input takes no children");
                self.widen_inputs(slot as usize + 1);
            }
            DagOp::Const(_) => assert!(children.is_empty(), "const takes no children"),
            DagOp::Not => assert_eq!(children.len(), 1, "Not takes exactly one child"),
            DagOp::Add | DagOp::Mul | DagOp::Max => {
                assert!(!children.is_empty(), "n-ary op needs children")
            }
        }
        self.intern(op, children, kind)
    }

    fn intern(&mut self, op: DagOp, children: &[NodeId], kind: NodeKind) -> NodeId {
        if !self.dedup {
            return self.arena.push(op, children, kind);
        }
        if 4 * (self.len() + 1) > 3 * self.table.len() {
            self.grow_table(self.len() + 1);
        }
        let hash = key_hash(op, children);
        let mask = self.table.len() - 1;
        let mut slot = self.home_slot(hash);
        loop {
            let entry = self.table[slot];
            if entry == EMPTY {
                let id = self.arena.push(op, children, kind);
                self.table[slot] = (u64::from(hash) << 32) | (u64::from(id.0) + 1);
                return id;
            }
            if (entry >> 32) as u32 == hash {
                let id = (entry as u32 - 1) as usize;
                if self.arena.ops[id].key() == op.key() && self.arena.children_at(id) == children {
                    return NodeId::new(id);
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The table's home slot for `hash`: its top bits.
    fn home_slot(&self, hash: u32) -> usize {
        ((u64::from(hash) * self.table.len() as u64) >> 32) as usize
    }

    /// Resizes the table to hold `nodes` entries at load ≤ 3/4 and
    /// re-seats every entry from its stored hash.
    fn grow_table(&mut self, nodes: usize) {
        let capacity = (nodes * 4 / 3 + 1).next_power_of_two().max(16);
        if capacity <= self.table.len() {
            return;
        }
        let old = std::mem::replace(&mut self.table, vec![EMPTY; capacity]);
        let mask = capacity - 1;
        for entry in old.into_iter().filter(|&e| e != EMPTY) {
            let mut slot = self.home_slot((entry >> 32) as u32);
            while self.table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = entry;
        }
    }

    /// Finalizes with `output` as the DAG's result node.
    ///
    /// # Errors
    ///
    /// Returns a [`DagError`] on structural violations.
    pub fn build(self, output: NodeId) -> Result<Dag, DagError> {
        let dag = Dag { output, ..self.arena };
        dag.validate()?;
        Ok(dag)
    }
}

/// The hash-consing key hash of a node: FxHash-style word mixing over the
/// op tag, its payload bits and the children, then a murmur3 finalizer so
/// the top 32 bits are well spread. Deterministic: no random seed.
fn key_hash(op: DagOp, children: &[NodeId]) -> u32 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mix = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(K);
    let (tag, payload) = op.key();
    let mut h = mix(mix(0, tag), payload);
    for c in children {
        h = mix(h, u64::from(c.0));
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    (h >> 32) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluates_arithmetic() {
        let mut b = DagBuilder::new();
        let x = b.input(0);
        let c = b.constant(3.0);
        let mul = b.node(DagOp::Mul, &[x, c], NodeKind::Generic);
        let y = b.input(1);
        let add = b.node(DagOp::Add, &[mul, y], NodeKind::Generic);
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
        let n = b.node(DagOp::Not, &[x1], NodeKind::Literal);
        let or = b.node(DagOp::Max, &[x0, n], NodeKind::Clause);
        let dag = b.build(or).unwrap();
        assert_eq!(dag.evaluate_output(&[0.0, 0.0]), 1.0);
        assert_eq!(dag.evaluate_output(&[0.0, 1.0]), 0.0);
        assert_eq!(dag.evaluate_output(&[1.0, 1.0]), 1.0);
    }

    #[test]
    fn cse_shares_nodes() {
        let mut b = DagBuilder::new();
        let x = b.input(0);
        let a1 = b.node(DagOp::Not, &[x], NodeKind::Generic);
        let a2 = b.node(DagOp::Not, &[x], NodeKind::Generic);
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

    /// The table regrows and re-seats entries without losing a hit, and
    /// probes are confirmed on the stored node, not on the hash alone.
    #[test]
    fn interning_survives_regrowth_and_matches_a_map() {
        use std::collections::HashMap;
        let mut b = DagBuilder::new();
        let mut reference: HashMap<(u64, u64, Vec<NodeId>), NodeId> = HashMap::new();
        let mut ids: Vec<NodeId> = Vec::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for round in 0..6000 {
            let (op, children): (DagOp, Vec<NodeId>) = match next(6) {
                0 => (DagOp::Input(next(40) as u32), vec![]),
                1 => (DagOp::Const([0.0, -0.0, 1.0, 0.5][next(4)]), vec![]),
                _ if ids.is_empty() => (DagOp::Input(0), vec![]),
                2 => (DagOp::Not, vec![ids[next(ids.len())]]),
                k => {
                    let op = [DagOp::Add, DagOp::Mul, DagOp::Max][k - 3];
                    (op, (0..1 + next(3)).map(|_| ids[next(ids.len())]).collect())
                }
            };
            let key = (op.key().0, op.key().1, children.clone());
            let id = b.node(op, &children, NodeKind::Generic);
            let expect = *reference.entry(key).or_insert(id);
            assert_eq!(id, expect, "round {round}: {op:?} {children:?}");
            ids.push(id);
        }
        assert_eq!(b.len(), reference.len());
    }

    #[test]
    fn stats_and_depth() {
        let mut b = DagBuilder::new();
        let x = b.input(0);
        let y = b.input(1);
        let z = b.input(2);
        let add = b.node(DagOp::Add, &[x, y, z], NodeKind::Generic);
        let not = b.node(DagOp::Not, &[add], NodeKind::Generic);
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
        let _dead = b.node(DagOp::Not, &[x], NodeKind::Generic);
        let live = b.node(DagOp::Not, &[x], NodeKind::Generic);
        let dag = b.build(live).unwrap();
        let (compacted, dropped) = dag.compact();
        assert_eq!(dropped, 1);
        assert_eq!(compacted.num_nodes(), 2);
        assert!(compacted.stats().footprint_bytes < dag.stats().footprint_bytes);
        assert_eq!(compacted.evaluate_output(&[0.0]), dag.evaluate_output(&[0.0]));
    }

    #[test]
    fn validation_errors() {
        // Manual construction of an invalid DAG through the builder is
        // prevented by panics; test the validator directly.
        let dag = Dag {
            ops: vec![DagOp::Add],
            kinds: vec![NodeKind::Generic],
            starts: vec![0, 1],
            edges: vec![NodeId::new(0)],
            output: NodeId::new(0),
            num_inputs: 0,
        };
        assert!(matches!(dag.validate(), Err(DagError::NotTopological { .. })));
        let dag = Dag {
            ops: vec![],
            kinds: vec![],
            starts: vec![0],
            edges: vec![],
            output: NodeId::new(3),
            num_inputs: 0,
        };
        assert!(matches!(dag.validate(), Err(DagError::BadOutput)));
    }

    #[test]
    #[should_panic(expected = "n-ary op needs children")]
    fn builder_rejects_empty_nary() {
        let mut b = DagBuilder::new();
        let _ = b.node(DagOp::Add, &[], NodeKind::Generic);
    }
}
