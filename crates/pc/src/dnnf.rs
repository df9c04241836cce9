//! Flat, evaluation-ready d-DNNF arenas extracted from compiled circuits.
//!
//! [`crate::compile::compile_cnf`] emits a [`Circuit`]: enum nodes with
//! per-node child vectors, ideal for construction and structural
//! validation but pointer-chasing for the serving hot path. A [`Dnnf`]
//! is the same circuit flattened into arrays — one node table, one
//! contiguous edge array, one parallel edge-weight array — so a
//! repeated-query engine (the `reason-serve` circuit store) evaluates
//! it with nothing but linear index arithmetic.
//!
//! Extraction is **1:1 and order-preserving**: node `i` of the arena is
//! node `i` of the source circuit, children keep their order, and the
//! evaluator reproduces [`Circuit::log_values_into`]'s arithmetic
//! operation-for-operation. Arena answers are therefore bit-identical
//! to circuit answers — the store's round-trip guarantee rests on this.
//!
//! Every interior node also stores its **empty-evidence value**, its
//! log-value with every variable marginalized, computed at flatten time
//! with the batched kernels' own arithmetic. A batched lane whose
//! evidence observes no variable in a node's scope would recompute
//! exactly that value — every leaf below decodes the marginalized code —
//! so the batched walk copies it instead of evaluating the node, and the
//! answers stay bit-identical (see [`BatchBuffer::lanes_computed`]).
//!
//! Only *binary* universes are accepted (every compiled formula circuit
//! is one); [`Dnnf::from_circuit`] reports [`DnnfError`] otherwise.
//!
//! ```
//! use reason_sat::Cnf;
//! use reason_pc::{compile_cnf, BatchBuffer, Dnnf, Evidence, WmcWeights};
//!
//! let cnf = Cnf::from_clauses(2, vec![vec![1, 2]]);
//! let circuit = compile_cnf(&cnf, &WmcWeights::uniform(2)).unwrap();
//! let arena = Dnnf::from_circuit(&circuit).unwrap();
//! // `Z` is stored at the root; no walk computes it.
//! assert_eq!(arena.wmc(), circuit.probability(&Evidence::empty(2)));
//! let mut ev = Evidence::empty(2);
//! ev.set(0, 1);
//! let p = arena.probability(&ev, &mut BatchBuffer::new());
//! assert_eq!(p, circuit.probability(&ev));
//! ```

use std::collections::HashMap;
use std::fmt;

use crate::circuit::{Circuit, PcNode};
use crate::infer::{Evidence, MpeResult};

/// Why a circuit could not be flattened into a [`Dnnf`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DnnfError {
    /// A variable with arity other than 2 — the arena stores Bernoulli
    /// leaves as fixed `[log p0, log p1]` pairs.
    NonBinaryVariable {
        /// The offending variable.
        var: usize,
        /// Its declared arity.
        arity: usize,
    },
}

impl fmt::Display for DnnfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DnnfError::NonBinaryVariable { var, arity } => {
                write!(f, "variable {var} has arity {arity}, arena supports binary only")
            }
        }
    }
}

impl std::error::Error for DnnfError {}

/// One flattened node. Interior nodes address a contiguous slice of the
/// arena's edge array instead of owning a child vector, and carry
/// `empty`, their log-value when every variable is marginalized.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Node {
    /// Indicator leaf `[x_var = value]`.
    Indicator { var: u32, value: bool },
    /// Bernoulli leaf with `log_p[b] = log p(x_var = b)`.
    Leaf { var: u32, log_p: [f64; 2] },
    /// Decomposable conjunction over `edges[start..start+len]`.
    And { start: u32, len: u32, empty: f64 },
    /// Deterministic disjunction over `edges[start..start+len]`, with
    /// log-weights in the parallel weight array.
    Or { start: u32, len: u32, empty: f64 },
}

// `empty` must fit the variants' padding: the node table, and with it
// `Dnnf::bytes` and the serving store's byte bound, pay nothing for it.
const _: () = assert!(std::mem::size_of::<Node>() == 24);

impl Node {
    /// The node's log-value with every variable marginalized. A
    /// marginalized leaf decodes to `+0.0` (`Σ_v [v = value] = 1`, and a
    /// distribution sums to 1).
    fn empty(&self) -> f64 {
        match *self {
            Node::Indicator { .. } | Node::Leaf { .. } => 0.0,
            Node::And { empty, .. } | Node::Or { empty, .. } => empty,
        }
    }
}

/// `exp(x)`, skipping the call where IEEE 754 makes it exact:
/// `exp(±0) = 1` and `exp(-inf) = 0`. The argmax child of a
/// log-sum-exp always takes the first skip, which halves the
/// transcendental count.
#[inline(always)]
fn fexp(x: f64) -> f64 {
    if x == 0.0 {
        1.0
    } else if x == f64::NEG_INFINITY {
        0.0
    } else {
        x.exp()
    }
}

/// `m + ln(total)`, skipping the call where `ln(1) = +0.0` is exact. A
/// total of exactly 1 is common on deterministic nodes with a single
/// live child.
#[inline(always)]
fn plus_ln(m: f64, total: f64) -> f64 {
    m + if total == 1.0 { 0.0 } else { total.ln() }
}

/// One lane of the fused two-child Or arm: the log-sum-exp of the
/// weighted child values `a` and `b`, in the generic arm's order.
#[inline(always)]
fn log_add(a: f64, b: f64) -> f64 {
    let m = f64::max(f64::max(f64::NEG_INFINITY, a), b);
    if m == f64::NEG_INFINITY {
        return m;
    }
    plus_ln(m, (0.0 + fexp(a - m)) + fexp(b - m))
}

/// One lane of the generic Or arm: the two-pass log-sum-exp of the
/// weighted child values `terms`, in edge order. On two terms it is
/// [`log_add`], bit for bit.
fn log_sum_exp(terms: impl Iterator<Item = f64> + Clone) -> f64 {
    let m = terms.clone().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return m;
    }
    plus_ln(m, terms.fold(0.0, |total, x| total + fexp(x - m)))
}

/// A compiled formula circuit flattened into an evaluation-ready arena
/// (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct Dnnf {
    num_vars: usize,
    nodes: Vec<Node>,
    /// Child node ids of every interior node, concatenated.
    edges: Vec<u32>,
    /// Log-weights parallel to `edges`; meaningful for `Or` slices,
    /// zero for `And` slices.
    edge_log_weights: Vec<f64>,
    root: u32,
}

/// The scratch space of [`Dnnf::probability`], which answers one query
/// as a batch of one lane.
pub type DnnfBuffer = BatchBuffer;

/// Evidence code for a marginalized (unobserved) variable in a
/// [`DnnfBatch`] lane; observed lanes store the value itself (0 or 1).
const MARGINALIZED: u8 = 2;

/// Storage lanes one node-table walk evaluates. A batch wider than this
/// is walked in tiles, so the value table is `nodes × TILE` however
/// many lanes arrive. Chosen by measurement on 256-lane serve batches
/// (`benchmark/`'s `hot_wide`): 32 serves a tenth fewer queries per
/// second (node decode amortizes over fewer lanes), 128 serves as many
/// as 64 on a table twice the size. It is also the width of the
/// per-node lane masks of the sum-product walk (one `u64` per node).
const TILE: usize = 64;
const _: () = assert!(TILE <= 64);

/// The storage-lane tiles `(first lane, width)` of a `lanes`-wide slab.
fn tiles(lanes: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..lanes).step_by(TILE).map(move |t0| (t0, TILE.min(lanes - t0)))
}

/// The lanes of one tile's code run that observe their variable, as a
/// mask (bit `k` is lane `k`).
fn observed_lanes(codes: &[u8]) -> u64 {
    codes.iter().enumerate().fold(0, |mask, (k, &c)| mask | (u64::from(c != MARGINALIZED) << k))
}

/// The lanes set in `mask`, ascending.
fn lanes_of(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let lane = (mask != 0).then(|| mask.trailing_zeros() as usize);
        mask &= mask.wrapping_sub(1);
        lane
    })
}

/// A batch of B evidence lanes packed structure-of-arrays: one byte per
/// `(variable, lane)` pair, variable-major, so a batched traversal reads
/// each variable's codes as one contiguous run. This is the weight
/// slab the batched evaluators ([`Dnnf::wmc_batch`],
/// [`Dnnf::marginal_batch`], [`Dnnf::mpe_batch`]) consume: B queries
/// against one arena become one traversal per fixed-width tile of
/// distinct lanes, with tight inner loops over the tile's lanes and
/// answers bit-identical per lane to evaluating the source [`Circuit`]
/// one query at a time.
///
/// Duplicate queries collapse at pack time: identical evidence columns
/// share one *storage* lane, evaluated once, and the answers fan back
/// out to every query lane when results are emitted. Serve batches
/// grouped by formula fingerprint routinely repeat the same posterior
/// or marginal, so the slab (and the traversal) only pays for the
/// distinct columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnnfBatch {
    num_vars: usize,
    /// Distinct storage lanes actually evaluated.
    lanes: usize,
    /// `codes[var * lanes + lane]`: 0/1 for an observed value,
    /// [`MARGINALIZED`] for an unobserved variable (storage lanes).
    codes: Vec<u8>,
    /// Query lane -> storage lane.
    expand: Vec<u32>,
}

impl DnnfBatch {
    /// Packs evidence lanes into a slab, collapsing duplicate columns.
    /// Lane `k` of every batched answer corresponds to `evidences[k]`.
    ///
    /// # Panics
    ///
    /// Panics if `evidences` is empty or the lanes disagree on arity.
    pub fn pack(evidences: &[Evidence]) -> Self {
        assert!(!evidences.is_empty(), "a batch needs at least one lane");
        Self::from_columns(evidences[0].len(), evidences.iter().map(|ev| (ev, None)))
    }

    /// Packs one query lane per column straight from borrowed evidence,
    /// collapsing duplicates as they arrive. A column is its evidence,
    /// with `var := code` where an override `(var, code)` is given.
    fn from_columns<'a>(
        num_vars: usize,
        columns: impl Iterator<Item = (&'a Evidence, Option<(usize, u8)>)>,
    ) -> Self {
        let mut index: HashMap<Vec<u8>, u32> = HashMap::new();
        let mut expand = Vec::with_capacity(columns.size_hint().0);
        let mut col = vec![MARGINALIZED; num_vars];
        for (lane, (ev, set)) in columns.enumerate() {
            assert_eq!(ev.len(), num_vars, "lane {lane} arity mismatch");
            for (var, c) in col.iter_mut().enumerate() {
                *c = ev.value(var).map_or(MARGINALIZED, |v| v as u8);
            }
            if let Some((var, code)) = set {
                col[var] = code;
            }
            let id = match index.get(&col) {
                Some(&id) => id,
                None => {
                    let id = index.len() as u32;
                    index.insert(col.clone(), id);
                    id
                }
            };
            expand.push(id);
        }
        let lanes = index.len();
        let mut codes = vec![MARGINALIZED; num_vars * lanes];
        for (col, &lane) in &index {
            for (var, &c) in col.iter().enumerate() {
                codes[var * lanes + lane as usize] = c;
            }
        }
        DnnfBatch { num_vars, lanes, codes, expand }
    }

    /// Number of query lanes B (the length of every batched answer).
    pub fn lanes(&self) -> usize {
        self.expand.len()
    }

    /// Distinct evidence columns the traversal actually evaluates
    /// (`<= lanes()`; duplicates share a storage lane).
    pub fn distinct_lanes(&self) -> usize {
        self.lanes
    }

    /// Number of variables in the universe.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The evidence value of `var` in query lane `lane` (`None` =
    /// marginalized).
    pub fn value(&self, var: usize, lane: usize) -> Option<usize> {
        self.storage_value(var, self.expand[lane] as usize)
    }

    /// Fans a per-storage-lane result vector back out to query lanes.
    fn fan_out<T: Clone>(&self, per_storage: &[T]) -> Vec<T> {
        self.expand.iter().map(|&u| per_storage[u as usize].clone()).collect()
    }

    /// The evidence value of `var` in *storage* lane `lane` (`None` =
    /// marginalized) — for evaluators walking distinct columns.
    fn storage_value(&self, var: usize, lane: usize) -> Option<usize> {
        match self.codes[var * self.lanes + lane] {
            MARGINALIZED => None,
            v => Some(v as usize),
        }
    }

    /// The contiguous code run of one variable over the storage lanes
    /// `t0..t0 + w` of one tile.
    fn tile_codes(&self, var: usize, t0: usize, w: usize) -> &[u8] {
        &self.codes[var * self.lanes + t0..var * self.lanes + t0 + w]
    }

    /// The slab of every storage column's marginal triplet for `var`:
    /// storage lanes `3s`, `3s + 1` and `3s + 2` are column `s` with
    /// `var` marginalized, `= 0` and `= 1`.
    fn triplets(&self, var: usize) -> DnnfBatch {
        let l = self.lanes;
        let mut codes = Vec::with_capacity(3 * self.codes.len());
        for (v, row) in self.codes.chunks_exact(l).enumerate() {
            if v == var {
                codes.extend((0..l).flat_map(|_| [MARGINALIZED, 0, 1]));
            } else {
                codes.extend(row.iter().flat_map(|&c| [c; 3]));
            }
        }
        let expand = (0..3 * l as u32).collect();
        DnnfBatch { num_vars: self.num_vars, lanes: 3 * l, codes, expand }
    }
}

/// `[Pr[v = 0 | e], Pr[v = 1 | e]]` per marginal lane, from the
/// log-probabilities of its three consecutive columns (`e∖v`,
/// `e ∧ v=0`, `e ∧ v=1`), mirroring [`Circuit::marginal_with`] —
/// including the uniform fallback for zero-probability evidence.
fn marginals_from_logs(triplets: &[f64]) -> Vec<Vec<f64>> {
    let marginal = |t: &[f64]| {
        if t[0] == f64::NEG_INFINITY {
            vec![0.5; 2]
        } else {
            vec![(t[1] - t[0]).exp(), (t[2] - t[0]).exp()]
        }
    };
    triplets.chunks_exact(3).map(marginal).collect()
}

/// Reusable scratch space for batched arena evaluation: the node-value
/// table of one lane tile (`nodes × TILE` at most, node-major chunks,
/// however wide the batch), the per-node argmax table for MPE, the
/// per-node lane mask of the sum-product walk (one `u64` per node: the
/// tile's lanes with an observed variable in the node's scope), and a
/// tile-wide accumulator for the log-sum-exp second pass. The tables
/// only ever grow, to the tallest arena seen; one buffer per worker
/// thread makes every batch after the first allocation-free.
#[derive(Debug, Clone, Default)]
pub struct BatchBuffer {
    vals: Vec<f64>,
    arg: Vec<u32>,
    dirty: Vec<u64>,
    acc: Vec<f64>,
    stack: Vec<u32>,
    walks: u64,
    computed: u64,
}

impl BatchBuffer {
    /// An empty buffer; the first batch sizes it.
    pub fn new() -> Self {
        BatchBuffer::default()
    }

    /// Node-table walks (sum-product or max-product, one per lane tile)
    /// run against this buffer since it was created.
    pub fn walks(&self) -> u64 {
        self.walks
    }

    /// Node·lanes the sum-product walks against this buffer computed
    /// rather than copied from the node's empty-evidence value: per
    /// tile, the `(node, lane)` pairs whose lane observes a variable in
    /// the node's scope. (A partly observed And node or leaf recomputes
    /// its other lanes too, to the same bits; they are not counted.)
    pub fn lanes_computed(&self) -> u64 {
        self.computed
    }

    /// Bytes held by the value, argmax and lane-mask tables.
    pub fn slab_bytes(&self) -> usize {
        self.vals.capacity() * std::mem::size_of::<f64>()
            + self.arg.capacity() * std::mem::size_of::<u32>()
            + self.dirty.capacity() * std::mem::size_of::<u64>()
    }
}

impl Dnnf {
    /// Flattens `circuit` into an arena, preserving node order and
    /// child order exactly. The same pass stores every interior node's
    /// empty-evidence value, read off its already-flattened children.
    ///
    /// # Errors
    ///
    /// Returns [`DnnfError::NonBinaryVariable`] if any variable's arity
    /// is not 2.
    pub fn from_circuit(circuit: &Circuit) -> Result<Self, DnnfError> {
        if let Some((var, &arity)) = circuit.arities().iter().enumerate().find(|(_, &a)| a != 2) {
            return Err(DnnfError::NonBinaryVariable { var, arity });
        }
        let mut nodes: Vec<Node> = Vec::with_capacity(circuit.num_nodes());
        let mut edges: Vec<u32> = Vec::with_capacity(circuit.num_edges());
        let mut edge_log_weights: Vec<f64> = Vec::with_capacity(circuit.num_edges());
        for node in circuit.nodes() {
            let flat = match node {
                PcNode::Indicator { var, value } => {
                    Node::Indicator { var: *var as u32, value: *value == 1 }
                }
                PcNode::Categorical { var, log_probs } => {
                    Node::Leaf { var: *var as u32, log_p: [log_probs[0], log_probs[1]] }
                }
                PcNode::Product { children } => {
                    let start = edges.len() as u32;
                    for c in children {
                        edges.push(c.index() as u32);
                        edge_log_weights.push(0.0);
                    }
                    let empty = children.iter().fold(-0.0, |sum, c| sum + nodes[c.index()].empty());
                    Node::And { start, len: children.len() as u32, empty }
                }
                PcNode::Sum { children, log_weights } => {
                    let start = edges.len() as u32;
                    for (c, lw) in children.iter().zip(log_weights) {
                        edges.push(c.index() as u32);
                        edge_log_weights.push(*lw);
                    }
                    let terms = children.iter().zip(log_weights);
                    let empty = log_sum_exp(terms.map(|(c, lw)| lw + nodes[c.index()].empty()));
                    Node::Or { start, len: children.len() as u32, empty }
                }
            };
            nodes.push(flat);
        }
        Ok(Dnnf {
            num_vars: circuit.num_vars(),
            nodes,
            edges,
            edge_log_weights,
            root: circuit.root().index() as u32,
        })
    }

    /// Number of variables in the universe.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of arena nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The arena's memory footprint in bytes: the node table plus the
    /// edge and edge-weight arrays. This is what the serving store's
    /// byte bound meters.
    pub fn bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node>()
            + self.edges.len() * std::mem::size_of::<u32>()
            + self.edge_log_weights.len() * std::mem::size_of::<f64>()
    }

    /// The weighted model count `Pr[φ]`: the root's stored
    /// empty-evidence value, exponentiated — no walk. Bit-identical to
    /// the source circuit's `probability(&Evidence::empty(n))`.
    pub fn wmc(&self) -> f64 {
        self.nodes[self.root as usize].empty().exp()
    }

    /// Probability of the evidence (linear space), answered as a batch
    /// of one lane by [`wmc_batch`](Self::wmc_batch).
    ///
    /// # Panics
    ///
    /// Panics if `evidence.len() != self.num_vars()`.
    pub fn probability(&self, evidence: &Evidence, buf: &mut BatchBuffer) -> f64 {
        self.wmc_batch(&DnnfBatch::pack(std::slice::from_ref(evidence)), buf)[0]
    }

    /// Batched log-probabilities: one arena traversal per lane tile
    /// evaluates every lane of `batch`, returning `log Pr[φ ∧ e_k]` per
    /// lane.
    ///
    /// Per lane this performs *exactly* the floating-point operation
    /// sequence of [`Circuit::log_values_into`] — same child order, same
    /// two-pass log-sum-exp — so each lane's answer is bit-identical to
    /// evaluating the source circuit on that query alone. The batch only
    /// amortizes node decode, edge indexing, and memory traffic over
    /// the lanes of a tile.
    ///
    /// # Panics
    ///
    /// Panics if `batch.num_vars() != self.num_vars()`.
    pub fn log_probability_batch(&self, batch: &DnnfBatch, buf: &mut BatchBuffer) -> Vec<f64> {
        batch.fan_out(&self.log_roots(batch, buf))
    }

    /// `log Pr[φ ∧ e_s]` per *storage* lane of `batch`.
    fn log_roots(&self, batch: &DnnfBatch, buf: &mut BatchBuffer) -> Vec<f64> {
        assert_eq!(batch.num_vars, self.num_vars, "batch arity mismatch");
        let mut roots = Vec::with_capacity(batch.lanes);
        for (t0, l) in tiles(batch.lanes) {
            self.sum_product_walk(batch, t0, l, buf);
            let root = self.root as usize * l;
            roots.extend_from_slice(&buf.vals[root..root + l]);
        }
        roots
    }

    /// One sum-product walk of the node table over the `l` storage
    /// lanes from `t0`, leaving node `i`'s values in
    /// `buf.vals[i * l..(i + 1) * l]`.
    ///
    /// Each node first takes its lane mask: the tile's lanes that
    /// observe a variable in its scope (a leaf's observed lanes, an
    /// interior node's children's masks OR-ed). Every other lane would
    /// repeat the all-marginalized lane's arithmetic, so a node with no
    /// lane set copies its `empty` value, and an Or node evaluates only
    /// the lanes set, copying `empty` into the rest. And nodes and
    /// leaves with any lane set compute the whole tile: cheap, and the
    /// same bits.
    fn sum_product_walk(&self, batch: &DnnfBatch, t0: usize, l: usize, buf: &mut BatchBuffer) {
        buf.walks += 1;
        // Grow only, and no clear: every node chunk and mask is written
        // before it is read (children precede parents in the arena).
        if buf.vals.len() < self.nodes.len() * l {
            buf.vals.resize(self.nodes.len() * l, 0.0);
        }
        if buf.dirty.len() < self.nodes.len() {
            buf.dirty.resize(self.nodes.len(), 0);
        }
        buf.acc.resize(l, 0.0);
        // `1 <= l <= 64`: the shift stays below 64.
        let all = u64::MAX >> (64 - l);
        for (i, node) in self.nodes.iter().enumerate() {
            let base = i * l;
            // Children precede their parent, so the read side (child
            // chunks) and write side (this node's chunk) never overlap.
            let (lo, hi) = buf.vals.split_at_mut(base);
            let out = &mut hi[..l];
            let dirty = match *node {
                Node::Indicator { var, .. } | Node::Leaf { var, .. } => {
                    observed_lanes(batch.tile_codes(var as usize, t0, l))
                }
                Node::And { start, len, .. } | Node::Or { start, len, .. } => {
                    let edges = &self.edges[start as usize..(start + len) as usize];
                    edges.iter().fold(0, |mask, &c| mask | buf.dirty[c as usize])
                }
            };
            buf.dirty[i] = dirty;
            buf.computed += u64::from(dirty.count_ones());
            if dirty == 0 {
                out.fill(node.empty());
                continue;
            }
            match *node {
                Node::Indicator { var, value } => {
                    // Branchless decode: value-match → 0, mismatch →
                    // -inf, marginalized → 0 (Σ_v [v = value] = 1).
                    let hit = [0.0, f64::NEG_INFINITY];
                    let table = [hit[usize::from(value)], hit[usize::from(!value)], 0.0];
                    for (o, &c) in out.iter_mut().zip(batch.tile_codes(var as usize, t0, l)) {
                        *o = table[c as usize];
                    }
                }
                Node::Leaf { var, log_p } => {
                    let table = [log_p[0], log_p[1], 0.0];
                    for (o, &c) in out.iter_mut().zip(batch.tile_codes(var as usize, t0, l)) {
                        *o = table[c as usize];
                    }
                }
                Node::And { start, len: 2, .. } => {
                    // Fused two-child product: one pass, both children
                    // in registers. The `-0.0 +` start is the fold start
                    // of the generic arm below and of `.sum()`, so
                    // answers stay bit-identical (an empty product is
                    // -0.0 on every path).
                    let s = start as usize;
                    let (c0, c1) = (self.edges[s] as usize * l, self.edges[s + 1] as usize * l);
                    let (ca, cb) = (&lo[c0..c0 + l], &lo[c1..c1 + l]);
                    for ((o, &x), &y) in out.iter_mut().zip(ca).zip(cb) {
                        *o = (-0.0 + x) + y;
                    }
                }
                Node::And { start, len, .. } => {
                    let (s, e) = (start as usize, (start + len) as usize);
                    out.fill(-0.0);
                    for &c in &self.edges[s..e] {
                        let child = &lo[c as usize * l..c as usize * l + l];
                        for (o, &v) in out.iter_mut().zip(child) {
                            *o += v;
                        }
                    }
                }
                Node::Or { start, len: 2, empty } => {
                    // Fused two-child log-sum-exp: the dominant shape
                    // (the compiler emits binary decision nodes). Both
                    // passes of the generic path collapse into one
                    // `log_add` per lane with the children held in
                    // registers; every floating-point step keeps the
                    // generic path's order, so answers stay
                    // bit-identical.
                    let s = start as usize;
                    let (c0, c1) = (self.edges[s] as usize * l, self.edges[s + 1] as usize * l);
                    let (lw0, lw1) = (self.edge_log_weights[s], self.edge_log_weights[s + 1]);
                    let (ca, cb) = (&lo[c0..c0 + l], &lo[c1..c1 + l]);
                    if dirty == all {
                        for ((o, &x), &y) in out.iter_mut().zip(ca).zip(cb) {
                            *o = log_add(lw0 + x, lw1 + y);
                        }
                    } else {
                        out.fill(empty);
                        for k in lanes_of(dirty) {
                            out[k] = log_add(lw0 + ca[k], lw1 + cb[k]);
                        }
                    }
                }
                Node::Or { start, len, empty } => {
                    let (s, e) = (start as usize, (start + len) as usize);
                    let edges = self.edges[s..e].iter().zip(&self.edge_log_weights[s..e]);
                    if dirty != all {
                        out.fill(empty);
                        for k in lanes_of(dirty) {
                            let terms = edges.clone().map(|(&c, lw)| lw + lo[c as usize * l + k]);
                            out[k] = log_sum_exp(terms);
                        }
                        continue;
                    }
                    // Pass 1: the running max lands in the node chunk.
                    out.fill(f64::NEG_INFINITY);
                    for (&c, &lw) in edges.clone() {
                        let child = &lo[c as usize * l..c as usize * l + l];
                        for (o, &v) in out.iter_mut().zip(child) {
                            *o = f64::max(*o, lw + v);
                        }
                    }
                    // Pass 2: exp-sum against the max. Lanes whose max is
                    // -inf produce NaN partials here; they are discarded
                    // below, matching the single-query early-out.
                    buf.acc.fill(0.0);
                    for (&c, &lw) in edges {
                        let child = &lo[c as usize * l..c as usize * l + l];
                        for ((a, &v), &m) in buf.acc.iter_mut().zip(child).zip(out.iter()) {
                            *a += fexp(lw + v - m);
                        }
                    }
                    for (o, &t) in out.iter_mut().zip(&buf.acc) {
                        if *o != f64::NEG_INFINITY {
                            *o = plus_ln(*o, t);
                        }
                    }
                }
            }
        }
    }

    /// Batched weighted model counts / evidence probabilities (linear
    /// space): `Pr[φ ∧ e_k]` per lane, bit-identical per lane to
    /// [`Circuit::probability`].
    pub fn wmc_batch(&self, batch: &DnnfBatch, buf: &mut BatchBuffer) -> Vec<f64> {
        self.log_probability_batch(batch, buf).into_iter().map(f64::exp).collect()
    }

    /// Batched marginal distributions of `var`: every distinct lane
    /// contributes its three columns (`var` marginalized, `= 0`, `= 1`)
    /// to one slab of triple width, walked like any other — one
    /// traversal per lane tile, not three per call — mirroring
    /// [`Circuit::marginal_with`] lane-for-lane (including the uniform
    /// fallback for zero-probability evidence).
    ///
    /// # Panics
    ///
    /// Panics if `batch.num_vars() != self.num_vars()` or `var` is out
    /// of range.
    pub fn marginal_batch(
        &self,
        batch: &DnnfBatch,
        var: usize,
        buf: &mut BatchBuffer,
    ) -> Vec<Vec<f64>> {
        assert_eq!(batch.num_vars, self.num_vars, "batch arity mismatch");
        assert!(var < self.num_vars, "marginal variable {var} out of range");
        let logs = self.log_roots(&batch.triplets(var), buf);
        batch.fan_out(&marginals_from_logs(&logs))
    }

    /// Answers a mixed query batch straight from borrowed evidence:
    /// `Pr[φ ∧ e]` per `probabilities` lane, the marginal distribution
    /// of `var` given `e` per `marginals` lane, and the most probable
    /// explanation per `mpes` lane, each in lane order.
    ///
    /// Probability lanes and the three columns of every marginal lane
    /// are packed into **one** slab, so duplicate columns collapse
    /// across kinds and the whole batch costs one sum-product traversal
    /// per lane tile, however many variables the marginals ask about.
    /// MPE lanes share one max-product pass of their own. Any group may
    /// be empty. Answers are bit-identical per lane to
    /// [`wmc_batch`](Self::wmc_batch),
    /// [`marginal_batch`](Self::marginal_batch) and
    /// [`mpe_batch`](Self::mpe_batch).
    ///
    /// # Panics
    ///
    /// Panics if a lane's arity differs from `self.num_vars()` or a
    /// marginal variable is out of range.
    pub fn query_batch(
        &self,
        probabilities: &[&Evidence],
        marginals: &[(&Evidence, usize)],
        mpes: &[&Evidence],
        buf: &mut BatchBuffer,
    ) -> (Vec<f64>, Vec<Vec<f64>>, Vec<MpeResult>) {
        let columns = marginals.iter().flat_map(|&(ev, var)| {
            assert!(var < self.num_vars, "marginal variable {var} out of range");
            [MARGINALIZED, 0, 1].map(|code| (ev, Some((var, code))))
        });
        let sum_lanes = probabilities.iter().map(|&ev| (ev, None)).chain(columns);
        let logs =
            self.log_probability_batch(&DnnfBatch::from_columns(self.num_vars, sum_lanes), buf);
        let (ps, triplets) = logs.split_at(probabilities.len());
        let max_lanes = mpes.iter().map(|&ev| (ev, None));
        (
            ps.iter().map(|lp| lp.exp()).collect(),
            marginals_from_logs(triplets),
            self.mpe_batch(&DnnfBatch::from_columns(self.num_vars, max_lanes), buf),
        )
    }

    /// Batched most-probable explanations: one max-product up-pass per
    /// lane tile plus a per-lane downward trace, mirroring
    /// [`Circuit::mpe_with`] lane-for-lane.
    ///
    /// # Panics
    ///
    /// Panics if `batch.num_vars() != self.num_vars()`.
    pub fn mpe_batch(&self, batch: &DnnfBatch, buf: &mut BatchBuffer) -> Vec<MpeResult> {
        assert_eq!(batch.num_vars, self.num_vars, "batch arity mismatch");
        let mut per_storage = Vec::with_capacity(batch.lanes);
        for (t0, l) in tiles(batch.lanes) {
            self.max_product_walk(batch, t0, l, buf);
            // Per-storage-lane downward trace selecting one child per
            // disjunction; duplicate query lanes share the traced result.
            let (vals, arg, stack) = (&buf.vals, &buf.arg, &mut buf.stack);
            per_storage.extend((0..l).map(|lane| {
                let observed = |var: usize| batch.storage_value(var, t0 + lane);
                let mut assignment: Vec<usize> =
                    (0..self.num_vars).map(|v| observed(v).unwrap_or(0)).collect();
                stack.clear();
                stack.push(self.root);
                while let Some(id) = stack.pop() {
                    match self.nodes[id as usize] {
                        Node::Indicator { var, value } => {
                            if observed(var as usize).is_none() {
                                assignment[var as usize] = usize::from(value);
                            }
                        }
                        Node::Leaf { var, log_p } => {
                            if observed(var as usize).is_none() {
                                assignment[var as usize] = usize::from(log_p[1] > log_p[0]);
                            }
                        }
                        Node::And { start, len, .. } => {
                            let (s, e) = (start as usize, (start + len) as usize);
                            stack.extend(self.edges[s..e].iter().copied());
                        }
                        Node::Or { start, .. } => {
                            let k = arg[id as usize * l + lane];
                            stack.push(self.edges[(start + k) as usize]);
                        }
                    }
                }
                MpeResult { assignment, log_prob: vals[self.root as usize * l + lane] }
            }));
        }
        batch.fan_out(&per_storage)
    }

    /// One max-product walk of the node table over the `l` storage
    /// lanes from `t0`: values in `buf.vals`, the winning child of each
    /// disjunction in `buf.arg`, both `nodes × l`.
    fn max_product_walk(&self, batch: &DnnfBatch, t0: usize, l: usize, buf: &mut BatchBuffer) {
        buf.walks += 1;
        let n = self.nodes.len();
        if buf.vals.len() < n * l {
            buf.vals.resize(n * l, 0.0);
        }
        if buf.arg.len() < n * l {
            buf.arg.resize(n * l, 0);
        }
        for (i, node) in self.nodes.iter().enumerate() {
            let base = i * l;
            let (lo, hi) = buf.vals.split_at_mut(base);
            let out = &mut hi[..l];
            match *node {
                Node::Indicator { var, value } => {
                    for (o, &c) in out.iter_mut().zip(batch.tile_codes(var as usize, t0, l)) {
                        *o = if c == MARGINALIZED || (c == 1) == value {
                            0.0
                        } else {
                            f64::NEG_INFINITY
                        };
                    }
                }
                Node::Leaf { var, log_p } => {
                    for (o, &c) in out.iter_mut().zip(batch.tile_codes(var as usize, t0, l)) {
                        *o = if c == MARGINALIZED {
                            log_p[0].max(log_p[1])
                        } else {
                            log_p[c as usize]
                        };
                    }
                }
                Node::And { start, len, .. } => {
                    let (s, e) = (start as usize, (start + len) as usize);
                    out.fill(-0.0);
                    for &c in &self.edges[s..e] {
                        let child = &lo[c as usize * l..c as usize * l + l];
                        for (o, &v) in out.iter_mut().zip(child) {
                            *o += v;
                        }
                    }
                }
                Node::Or { start, len, .. } => {
                    let (s, e) = (start as usize, (start + len) as usize);
                    let args = &mut buf.arg[base..base + l];
                    out.fill(f64::NEG_INFINITY);
                    args.fill(0);
                    // Same strict-`>` argmax fold as the single-query
                    // path: ties keep the earliest child.
                    for (k, (&c, &lw)) in
                        self.edges[s..e].iter().zip(&self.edge_log_weights[s..e]).enumerate()
                    {
                        let child = &lo[c as usize * l..c as usize * l + l];
                        for ((o, a), &v) in out.iter_mut().zip(args.iter_mut()).zip(child) {
                            let x = lw + v;
                            if x > *o {
                                *o = x;
                                *a = k as u32;
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;
    use crate::compile::{compile_cnf, WmcWeights};
    use crate::infer::EvalBuffer;
    use reason_sat::gen::random_ksat;
    use reason_sat::Cnf;

    fn compiled(seed: u64, n: usize, m: usize) -> Option<(Circuit, Dnnf)> {
        let cnf = random_ksat(n, m, 3, seed);
        let weights = WmcWeights::new((0..n).map(|v| 0.3 + 0.05 * (v % 7) as f64).collect());
        let circuit = compile_cnf(&cnf, &weights)?;
        let arena = Dnnf::from_circuit(&circuit).unwrap();
        Some((circuit, arena))
    }

    #[test]
    fn arena_matches_circuit_bit_for_bit() {
        let mut checked = 0;
        for seed in 0..12 {
            let Some((circuit, arena)) = compiled(seed, 10, 26) else { continue };
            let mut cbuf = EvalBuffer::new();
            let mut abuf = BatchBuffer::new();
            // Full marginalization, full assignments, partial evidence.
            let mut evidences = vec![Evidence::empty(10)];
            for bits in [0u32, 7, 99, 1023] {
                let values: Vec<usize> = (0..10).map(|v| (bits >> v & 1) as usize).collect();
                evidences.push(Evidence::from_assignment(&values));
            }
            let mut partial = Evidence::empty(10);
            partial.set(0, 1).set(3, 0).set(7, 1);
            evidences.push(partial);
            for ev in &evidences {
                let c = circuit.log_probability_with(ev, &mut cbuf);
                let one = DnnfBatch::pack(std::slice::from_ref(ev));
                let a = arena.log_probability_batch(&one, &mut abuf)[0];
                assert_eq!(c.to_bits(), a.to_bits(), "seed {seed}: circuit {c} vs arena {a}");
            }
            let z = circuit.probability_with(&evidences[0], &mut cbuf);
            assert_eq!(arena.wmc().to_bits(), z.to_bits(), "seed {seed}");
            checked += 1;
        }
        assert!(checked > 0, "at least one satisfiable instance must be checked");
    }

    #[test]
    fn marginal_and_mpe_match_circuit() {
        let (circuit, arena) = compiled(3, 9, 22).expect("seed 3 is satisfiable");
        let mut cbuf = EvalBuffer::new();
        let mut bbuf = BatchBuffer::new();
        let mut ev = Evidence::empty(9);
        ev.set(2, 1);
        let one = DnnfBatch::pack(std::slice::from_ref(&ev));
        for var in [0, 4, 8] {
            assert_eq!(
                circuit.marginal_with(&ev, var, &mut cbuf),
                arena.marginal_batch(&one, var, &mut bbuf)[0]
            );
        }
        let cm = circuit.mpe_with(&ev, &mut cbuf);
        let am = &arena.mpe_batch(&one, &mut bbuf)[0];
        assert_eq!(cm.assignment, am.assignment);
        assert_eq!(cm.log_prob, am.log_prob);
    }

    #[test]
    fn every_interior_node_stores_its_empty_evidence_log_value() {
        let mut checked = 0;
        for seed in 0..12 {
            // Weights at 0 and 1 too: log-weights of -inf and 0.
            let n = 10;
            let cnf = random_ksat(n, 24, 3, seed);
            let probs = (0..n).map(|v| [0.0, 1.0, 0.3, 0.55, 0.8][v % 5]).collect();
            for weights in [WmcWeights::new(probs), WmcWeights::uniform(n)] {
                let Some(circuit) = compile_cnf(&cnf, &weights) else { continue };
                let arena = Dnnf::from_circuit(&circuit).unwrap();
                let want = circuit.log_values(&Evidence::empty(n));
                for (i, node) in arena.nodes.iter().enumerate() {
                    if matches!(node, Node::And { .. } | Node::Or { .. }) {
                        let got = node.empty();
                        assert_eq!(got.to_bits(), want[i].to_bits(), "seed {seed} node {i}: {got}");
                    }
                }
                checked += 1;
            }
        }
        assert!(checked > 0, "at least one instance must carry mass");
    }

    #[test]
    fn an_empty_product_reads_negative_zero_on_every_path() {
        // The root of an n = 0 formula, and a bare `product(vec![])`.
        let nothing = compile_cnf(&Cnf::from_clauses(0, vec![]), &WmcWeights::uniform(0))
            .expect("the empty formula has mass");
        let mut b = CircuitBuilder::new(vec![2]);
        let root = b.product(vec![]);
        let bare = b.build(root).unwrap();
        for circuit in [nothing, bare] {
            let arena = Dnnf::from_circuit(&circuit).unwrap();
            let n = circuit.num_vars();
            let mut lanes = vec![Evidence::empty(n)];
            if n > 0 {
                lanes.push(Evidence::from_assignment(&vec![1; n]));
            }
            let refs: Vec<&Evidence> = lanes.iter().collect();
            let mut buf = BatchBuffer::new();
            let logp = arena.log_probability_batch(&DnnfBatch::pack(&lanes), &mut buf);
            let (ps, _, mpes) = arena.query_batch(&refs, &[], &refs, &mut buf);
            assert_eq!(arena.nodes[arena.root as usize].empty().to_bits(), (-0.0f64).to_bits());
            assert_eq!(arena.wmc().to_bits(), 1f64.to_bits(), "n = {n}");
            for (k, ev) in lanes.iter().enumerate() {
                let reference = circuit.log_probability(ev);
                assert_eq!(reference.to_bits(), (-0.0f64).to_bits(), "n = {n} lane {k}");
                assert_eq!(logp[k].to_bits(), reference.to_bits(), "n = {n} lane {k}");
                assert_eq!(ps[k].to_bits(), reference.exp().to_bits(), "n = {n} lane {k}");
                let want = circuit.mpe_with(ev, &mut EvalBuffer::new());
                assert_eq!(mpes[k].assignment, want.assignment, "n = {n} lane {k}");
                assert_eq!(mpes[k].log_prob.to_bits(), want.log_prob.to_bits(), "n = {n} lane {k}");
            }
        }
    }

    #[test]
    fn wmc_reads_the_root_bit_for_bit_on_random_and_degenerate_formulas() {
        let skewed =
            |n: usize| WmcWeights::new((0..n).map(|v| 0.2 + 0.15 * (v % 5) as f64).collect());
        let mut circuits: Vec<Circuit> = Vec::new();
        for seed in 0..12u64 {
            let n = 6 + seed as usize;
            let cnf = random_ksat(n, 2 * n, 3, 500 + seed);
            // Weights at exactly 0 and 1 too; some of those lose all mass.
            let edge =
                WmcWeights::new((0..n).map(|v| [0.0, 1.0, 0.3][(v + seed as usize) % 3]).collect());
            circuits.extend([skewed(n), edge].iter().filter_map(|w| compile_cnf(&cnf, w)));
        }
        assert!(circuits.len() > 12, "most random instances carry mass");
        // n = 0, the empty formula, duplicate and tautological literals,
        // and one clause of 35 literals, alone and inside a 3-SAT formula.
        let wide: Vec<i32> = (1..=35).map(|v| if v % 3 == 0 { -v } else { v }).collect();
        let mut mixed = random_ksat(36, 60, 3, 91);
        mixed.add_dimacs_clause(&wide);
        let degenerate = [
            (Cnf::new(0), WmcWeights::uniform(0)),
            (Cnf::new(4), skewed(4)),
            (Cnf::from_clauses(4, vec![vec![1, -1], vec![2, 2], vec![-2, 3, 4]]), skewed(4)),
            (Cnf::from_clauses(36, vec![wide]), skewed(36)),
            (mixed, skewed(36)),
        ];
        for (k, (cnf, w)) in degenerate.iter().enumerate() {
            circuits.push(compile_cnf(cnf, w).unwrap_or_else(|| panic!("input {k} has mass")));
        }
        // An empty-product root.
        let mut b = CircuitBuilder::new(vec![2, 2]);
        let root = b.product(vec![]);
        circuits.push(b.build(root).unwrap());
        for (k, circuit) in circuits.iter().enumerate() {
            let arena = Dnnf::from_circuit(circuit).unwrap();
            let want = circuit.probability(&Evidence::empty(circuit.num_vars()));
            assert_eq!(arena.wmc().to_bits(), want.to_bits(), "circuit {k}: {}", arena.wmc());
        }
    }

    #[test]
    fn sizes_and_bytes_track_the_source_circuit() {
        let (circuit, arena) = compiled(1, 8, 20).expect("seed 1 is satisfiable");
        assert_eq!(arena.num_nodes(), circuit.num_nodes());
        assert_eq!(arena.num_edges(), circuit.num_edges());
        assert_eq!(arena.num_vars(), 8);
        assert!(arena.bytes() > 0);
    }

    #[test]
    fn rejects_non_binary_universes() {
        let mut b = CircuitBuilder::new(vec![3]);
        let leaf = b.categorical(0, &[0.2, 0.3, 0.5]);
        let c = b.build(leaf).unwrap();
        assert_eq!(Dnnf::from_circuit(&c), Err(DnnfError::NonBinaryVariable { var: 0, arity: 3 }));
    }

    /// A mixed evidence workload over `n` binary variables: the empty
    /// evidence, full assignments, partial patterns, and a duplicate of
    /// lane 0 (batches must tolerate repeated queries).
    fn lanes(n: usize) -> Vec<Evidence> {
        let mut lanes = vec![Evidence::empty(n)];
        for bits in [0u32, 5, 42, 999] {
            let values: Vec<usize> = (0..n).map(|v| (bits >> (v % 10) & 1) as usize).collect();
            lanes.push(Evidence::from_assignment(&values));
        }
        let mut partial = Evidence::empty(n);
        partial.set(0, 1).set(n - 1, 0);
        lanes.push(partial);
        lanes.push(lanes[0].clone());
        lanes
    }

    #[test]
    fn batched_log_probability_is_bit_identical_per_lane() {
        let mut checked = 0;
        for seed in 0..12 {
            let Some((circuit, arena)) = compiled(seed, 10, 26) else { continue };
            let lanes = lanes(10);
            let batch = DnnfBatch::pack(&lanes);
            let mut cbuf = EvalBuffer::new();
            let mut sbuf = BatchBuffer::new();
            let mut bbuf = BatchBuffer::new();
            let got = arena.log_probability_batch(&batch, &mut bbuf);
            assert_eq!(got.len(), lanes.len());
            for (lane, ev) in lanes.iter().enumerate() {
                let single = circuit.log_probability_with(ev, &mut cbuf);
                assert!(
                    single.to_bits() == got[lane].to_bits(),
                    "seed {seed} lane {lane}: circuit {single} vs batched {}",
                    got[lane]
                );
            }
            // Linear space goes through the same exp, and a batch of one
            // lane answers what its lane of the wide batch answered.
            let probs = arena.wmc_batch(&batch, &mut bbuf);
            for (lane, ev) in lanes.iter().enumerate() {
                let want = circuit.probability_with(ev, &mut cbuf);
                assert_eq!(probs[lane].to_bits(), want.to_bits(), "seed {seed} lane {lane}");
                assert_eq!(arena.probability(ev, &mut sbuf).to_bits(), want.to_bits());
            }
            checked += 1;
        }
        assert!(checked > 0, "at least one satisfiable instance must be checked");
    }

    #[test]
    fn batched_marginal_and_mpe_match_single_query_lane_for_lane() {
        let (circuit, arena) = compiled(3, 9, 22).expect("seed 3 is satisfiable");
        let lanes = lanes(9);
        let batch = DnnfBatch::pack(&lanes);
        let mut cbuf = EvalBuffer::new();
        let mut bbuf = BatchBuffer::new();
        for var in [0, 4, 8] {
            let dists = arena.marginal_batch(&batch, var, &mut bbuf);
            for (lane, ev) in lanes.iter().enumerate() {
                assert_eq!(
                    dists[lane],
                    circuit.marginal_with(ev, var, &mut cbuf),
                    "var {var} lane {lane}"
                );
            }
        }
        let results = arena.mpe_batch(&batch, &mut bbuf);
        for (lane, ev) in lanes.iter().enumerate() {
            let single = circuit.mpe_with(ev, &mut cbuf);
            assert_eq!(results[lane].assignment, single.assignment, "lane {lane}");
            assert_eq!(results[lane].log_prob.to_bits(), single.log_prob.to_bits(), "lane {lane}");
        }
    }

    #[test]
    fn batch_packing_round_trips_evidence() {
        let lanes = lanes(8);
        let batch = DnnfBatch::pack(&lanes);
        assert_eq!(batch.lanes(), lanes.len());
        assert_eq!(batch.num_vars(), 8);
        for (lane, ev) in lanes.iter().enumerate() {
            for var in 0..8 {
                assert_eq!(batch.value(var, lane), ev.value(var));
            }
        }
    }

    /// `count` pairwise-distinct evidence lanes over `n` variables (lane
    /// `k` spells `k` in base 3: marginalized / 0 / 1 per variable).
    fn distinct_lanes(n: usize, count: usize) -> Vec<Evidence> {
        let digit = |k: usize, v: usize| [None, Some(0), Some(1)][k / 3usize.pow(v as u32) % 3];
        (0..count)
            .map(|k| Evidence::from_values(&(0..n).map(|v| digit(k, v)).collect::<Vec<_>>()))
            .collect()
    }

    #[test]
    fn batch_of_one_equals_lane_k_of_a_wide_batch_across_a_tile_boundary() {
        let (circuit, arena) = compiled(3, 9, 22).expect("seed 3 is satisfiable");
        let lanes = distinct_lanes(9, TILE + 9);
        let wide = DnnfBatch::pack(&lanes);
        assert_eq!(wide.distinct_lanes(), TILE + 9, "the batch must span two tiles");
        let mut buf = BatchBuffer::new();
        let mut cbuf = EvalBuffer::new();
        let logp = arena.log_probability_batch(&wide, &mut buf);
        let marg = arena.marginal_batch(&wide, 4, &mut buf);
        let mpe = arena.mpe_batch(&wide, &mut buf);
        for k in [0, TILE - 1, TILE, TILE + 8] {
            let one = DnnfBatch::pack(std::slice::from_ref(&lanes[k]));
            let single = arena.log_probability_batch(&one, &mut buf)[0];
            assert_eq!(single.to_bits(), logp[k].to_bits(), "lane {k}");
            assert_eq!(
                single.to_bits(),
                circuit.log_probability_with(&lanes[k], &mut cbuf).to_bits()
            );
            assert_eq!(arena.marginal_batch(&one, 4, &mut buf)[0], marg[k], "lane {k}");
            assert_eq!(marg[k], circuit.marginal_with(&lanes[k], 4, &mut cbuf), "lane {k}");
            assert_eq!(arena.mpe_batch(&one, &mut buf)[0], mpe[k], "lane {k}");
            assert_eq!(mpe[k], circuit.mpe_with(&lanes[k], &mut cbuf), "lane {k}");
        }
    }

    #[test]
    fn query_batch_matches_the_per_kind_kernels_and_tolerates_empty_groups() {
        let (_, arena) = compiled(3, 9, 22).expect("seed 3 is satisfiable");
        let lanes = lanes(9);
        let refs: Vec<&Evidence> = lanes.iter().collect();
        let marginals: Vec<(&Evidence, usize)> =
            lanes.iter().enumerate().map(|(k, ev)| (ev, k % 9)).collect();
        let mut buf = BatchBuffer::new();
        let batch = DnnfBatch::pack(&lanes);
        let (ps, dists, mpes) = arena.query_batch(&refs, &marginals, &refs, &mut buf);
        assert_eq!(ps, arena.wmc_batch(&batch, &mut buf));
        for (k, dist) in dists.iter().enumerate() {
            assert_eq!(dist, &arena.marginal_batch(&batch, k % 9, &mut buf)[k], "lane {k}");
        }
        assert_eq!(mpes, arena.mpe_batch(&batch, &mut buf));
        // Each kind alone, and nothing at all: no group may be required.
        assert_eq!(arena.query_batch(&refs, &[], &[], &mut buf), (ps, vec![], vec![]));
        assert_eq!(arena.query_batch(&[], &marginals, &[], &mut buf), (vec![], dists, vec![]));
        assert_eq!(arena.query_batch(&[], &[], &refs, &mut buf), (vec![], vec![], mpes));
        let walks = buf.walks();
        assert_eq!(arena.query_batch(&[], &[], &[], &mut buf), (vec![], vec![], vec![]));
        assert_eq!(buf.walks(), walks, "an empty batch walks nothing");
    }

    #[test]
    #[should_panic(expected = "marginal variable 9 out of range")]
    fn marginal_batch_rejects_an_out_of_range_variable() {
        let (_, arena) = compiled(3, 9, 22).expect("seed 3 is satisfiable");
        arena.marginal_batch(&DnnfBatch::pack(&lanes(9)), 9, &mut BatchBuffer::new());
    }

    #[test]
    #[should_panic(expected = "batch arity mismatch")]
    fn marginal_batch_rejects_a_batch_of_another_arity() {
        let (_, arena) = compiled(3, 9, 22).expect("seed 3 is satisfiable");
        arena.marginal_batch(&DnnfBatch::pack(&lanes(8)), 0, &mut BatchBuffer::new());
    }

    #[test]
    fn batch_buffer_reuse_is_stable_across_batches_of_different_widths() {
        let (_, arena) = compiled(5, 8, 20).expect("seed 5 is satisfiable");
        // Two tiles (a full one, then a narrower one), a one-lane batch
        // and an MPE pass, each against a fresh buffer for reference.
        let wide = DnnfBatch::pack(&distinct_lanes(8, TILE + 5));
        let narrow = DnnfBatch::pack(&[Evidence::empty(8)]);
        let fresh_wmc = arena.wmc_batch(&wide, &mut BatchBuffer::new());
        let fresh_marg = arena.marginal_batch(&narrow, 3, &mut BatchBuffer::new());
        let fresh_mpe = arena.mpe_batch(&wide, &mut BatchBuffer::new());
        let mut buf = BatchBuffer::new();
        for round in 0..2 {
            assert_eq!(arena.wmc_batch(&wide, &mut buf), fresh_wmc, "round {round}");
            assert_eq!(arena.marginal_batch(&narrow, 3, &mut buf), fresh_marg, "round {round}");
            assert_eq!(arena.mpe_batch(&wide, &mut buf), fresh_mpe, "round {round}");
        }
    }

    #[test]
    fn buffer_reuse_is_stable_across_queries() {
        let (_, arena) = compiled(5, 8, 20).expect("seed 5 is satisfiable");
        let mut buf = DnnfBuffer::new();
        let empty = Evidence::empty(8);
        let first = arena.probability(&empty, &mut buf);
        let mut ev = Evidence::empty(8);
        ev.set(1, 0);
        let _ = arena.probability(&ev, &mut buf);
        let again = arena.probability(&empty, &mut buf);
        assert_eq!(first, again, "a reused buffer must not leak state between queries");
    }
}
