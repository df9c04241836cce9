//! Flat, evaluation-ready d-DNNF arenas extracted from compiled circuits.
//!
//! [`crate::compile::compile_cnf`] emits a [`Circuit`]: flat tables of
//! node records, child ids and log-space parameters, shaped for
//! construction, splicing and structural validation. A [`Dnnf`] is the
//! same circuit laid out for the serving hot path — one node table
//! carrying each node's empty value, one contiguous edge array, one
//! parallel edge-weight array in the linear domain, and each node's
//! liveness slot — so a repeated-query engine (the `reason-serve`
//! circuit store) evaluates it with nothing but linear index
//! arithmetic.
//!
//! Extraction is **1:1 and order-preserving**: node `i` of the arena is
//! node `i` of the source circuit and children keep their order. The
//! circuit stores log weights; the arena stores **probabilities**,
//! `exp` of each, and walks in the linear domain the way the paper's
//! tree PEs do (Sec. V): an And node is a product, an Or node a
//! weighted sum, with no `exp` or `ln` per lane. The only `ln` is the
//! one [`Dnnf::log_probability_batch`] and [`MpeResult::log_prob`] take
//! per answer, at the end.
//!
//! **Error bound.** Every value is a sum of products of non-negative
//! numbers, so nothing cancels and each rounding costs at most one unit
//! roundoff `u = 2^-53` relative. An answer's relative error against
//! exact arithmetic on the circuit's weights is at most
//! `γ_D = D·u / (1 − D·u)`, where `D` is the walk's rounding depth: a
//! weight conversion counts two roundings (`exp` is faithful, not
//! correctly rounded), an And node adds its children's depths plus one
//! per multiply, and an Or node takes its deepest child plus a
//! conversion, a multiply and one rounding per addition. A marginal is
//! a quotient of two such values and stays within `γ_{2D+1}`. The
//! crate's tests check this against a double-double evaluator of the
//! [`Circuit`].
//!
//! **Range.** The bound needs every intermediate to stay a normal f64.
//! [`Dnnf::from_circuit`] bounds, in the same pass that flattens, the
//! smallest nonzero value every node (and every intermediate of its
//! arithmetic) can take under any evidence, and the largest — its
//! empty-evidence value, which evidence only lowers; a positive weight
//! whose `exp` underflowed counts as out of range. If all of them lie
//! inside `[2^-1000, 2^1000]` the arena walks f64s. Otherwise (very tall formulas, extreme weights) it walks
//! `(mantissa, exponent)` pairs through the same generic loop: scaling
//! by a power of two is exact, so the bound is unchanged and no answer
//! underflows silently; `log_probability_batch` still reads a root far
//! below f64's range. Leaf probabilities and edge weights are stored as
//! f64, so a weight below `2^-1022` itself keeps only a subnormal's
//! precision.
//!
//! Every interior node also stores its **empty-evidence value**, its
//! value with every variable marginalized, computed at flatten time
//! with the walk's own arithmetic. A batched lane whose evidence
//! observes no variable in a node's scope would recompute exactly that
//! value — every leaf below decodes the marginalized code — so a node
//! that no lane of a tile observes copies it instead of being
//! evaluated (see [`BatchBuffer::lanes_computed`]). Arena answers are
//! bit-identical across paths: a batch and a batch of one, any tile
//! split, [`Dnnf::query_batch`] and the per-kind kernels, [`Dnnf::wmc`]
//! and an empty-evidence lane.
//!
//! **Slots.** A walk keeps a node's values only until its last reader
//! has run, the way REASON's compiler recycles its register file by
//! live range (Sec. V): [`Dnnf::from_circuit`] gives every node a slot
//! of the walk's value table, reusing a slot once its node's last
//! reader is flattened. A walk's table is then `slots × TILE` values,
//! the arena's peak live set, instead of one chunk per node: a few
//! hundred slots on arenas of tens of thousands of nodes, so a tile's
//! table sits in the L2 cache. The walks are compiled from one generic
//! source for the target's baseline and for AVX2, and pick one per walk
//! from what the CPU reports; both give every answer the same bits.
//!
//! **Tiles and threads.** A call's lane tiles — every max-product tile
//! of its MPE lanes, then every sum-product tile of its other lanes —
//! are one job list. The calling thread walks the first job on the
//! [`BatchBuffer`] it was given and then claims jobs from the list's
//! atomic counter. When the call has two tiles or more and enough
//! node·lanes to pay for the hand-off (2^16; `FAN_OUT_NODE_LANES`
//! gives the measured basis), the list is first published to a
//! process-wide pool of helper threads, one per core beyond the
//! caller's, spawned on the first call that fans out; each helper that
//! wakes before the list is empty claims jobs from the same counter. A
//! helper walks on its own buffer, so its scratch is bounded by one
//! tile's value table plus one argmax table, grown to the largest arena
//! it walked. A lane's bits do not depend on which thread walked its
//! tile, so every answer is the same on every path. One call holds the pool at a time: a call that
//! finds it held walks all of its tiles on the caller, through the same
//! code. A panic in a helper's tile is re-raised on the caller once
//! every claimed tile has finished.
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
//! let z = circuit.probability(&Evidence::empty(2));
//! assert!((arena.wmc() - z).abs() <= 1e-15 * z);
//! let mut ev = Evidence::empty(2);
//! ev.set(0, 1);
//! let p = arena.probability(&ev, &mut BatchBuffer::new());
//! assert!((p - circuit.probability(&ev)).abs() <= 1e-15 * p);
//! ```

use std::f64::consts::LN_2;
use std::fmt;
use std::marker::PhantomData;
use std::sync::Mutex;

use crate::circuit::{Circuit, PcNode};
use crate::infer::{Evidence, MpeResult};
use crate::tile_pool::{self, Pool};

/// Why a circuit could not be flattened into a [`Dnnf`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DnnfError {
    /// A variable with arity other than 2 — the arena stores Bernoulli
    /// leaves as fixed `[p0, p1]` pairs.
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
/// arena's edge array instead of owning a child vector, and carry their
/// empty-evidence value as `empty · 2^scale` (`scale` is 0 on an f64
/// arena).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Node {
    /// Indicator leaf `[x_var = value]`.
    Indicator { var: u32, value: bool },
    /// Bernoulli leaf with `p[b] = p(x_var = b)`.
    Leaf { var: u32, p: [f64; 2] },
    /// Decomposable conjunction over `edges[start..start+len]`.
    And { start: u32, len: u32, empty: f64, scale: i32 },
    /// Deterministic disjunction over `edges[start..start+len]`, with
    /// weights in the parallel weight array.
    Or { start: u32, len: u32, empty: f64, scale: i32 },
}

// `empty` and `scale` must fit the variants' padding: the node table,
// and with it `Dnnf::bytes` and the serving store's byte bound, pay
// nothing for them.
const _: () = assert!(std::mem::size_of::<Node>() == 24);

impl Node {
    /// The node's value with every variable marginalized. A
    /// marginalized leaf decodes to 1 (`Σ_v [v = value] = 1`, and a
    /// distribution sums to 1).
    fn empty<V: Value>(&self) -> V {
        match *self {
            Node::Indicator { .. } | Node::Leaf { .. } => V::ONE,
            Node::And { empty, scale, .. } | Node::Or { empty, scale, .. } => {
                V::stored(empty, scale)
            }
        }
    }
}

/// The range an f64 arena's nonzero values must stay inside,
/// `[2^-1000, 2^1000]`: well within f64's normal range
/// `[2^-1022, 2^1024)`, so no intermediate goes subnormal or infinite.
const TINY: f64 = f64::from_bits((1023 - 1000) << 52);
const HUGE: f64 = f64::from_bits((1023 + 1000) << 52);

/// `2^k` for `k` in f64's normal exponent range `-1022..=1023`.
fn pow2(k: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&k), "2^{k} is not a normal f64");
    f64::from_bits(((k + 1023) as u64) << 52)
}

/// An extended-exponent value `m · 2^e`, with `m` in `[1, 2)`, or
/// `m = 0, e = 0` for zero: the value type of an arena out of f64's
/// range. A multiply or an add rounds `m` once, exactly like the f64
/// operation, and renormalizing by a power of two is exact, so a walk
/// over `Ext` keeps the f64 walk's error bound at any magnitude.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ext {
    m: f64,
    e: i32,
}

impl Ext {
    const ZERO: Ext = Ext { m: 0.0, e: 0 };

    /// A finite non-negative f64, exactly (subnormals included).
    fn new(x: f64) -> Ext {
        if x == 0.0 || !x.is_finite() {
            return Ext { m: x.abs(), e: 0 };
        }
        let (x, bias) = if x < f64::MIN_POSITIVE { (x * pow2(64), -64) } else { (x, 0) };
        let bits = x.to_bits();
        let e = ((bits >> 52) & 0x7ff) as i32 - 1023 + bias;
        Ext { m: f64::from_bits(bits & !(0x7ff << 52) | (1023 << 52)), e }
    }

    /// `m · 2^e` for `m` in `[1, 4)` or zero, renormalized exactly.
    fn norm(m: f64, e: i32) -> Ext {
        if m >= 2.0 {
            Ext { m: 0.5 * m, e: e + 1 }
        } else if m == 0.0 {
            Ext::ZERO
        } else {
            Ext { m, e }
        }
    }

    /// The nearest f64: exact in f64's normal range, rounded once below
    /// it, zero or infinite beyond it.
    fn to_f64(self) -> f64 {
        match self.e {
            e if e > 1023 => f64::INFINITY,
            e if e >= -1022 => self.m * pow2(e),
            e if e >= -2044 => self.m * pow2(e + 1022) * pow2(-1022),
            _ => 0.0,
        }
    }

    /// `ln` of the value: f64's own `ln` in its normal range, so an f64
    /// arena's log answers are the `ln` of its linear ones.
    fn ln(self) -> f64 {
        if (-1022..=1023).contains(&self.e) {
            self.to_f64().ln()
        } else {
            self.m.ln() + f64::from(self.e) * LN_2
        }
    }

    /// `self / d` for a nonzero `d`, rounded once.
    fn ratio(self, d: Ext) -> f64 {
        let q = self.m / d.m;
        let x =
            if q < 1.0 { Ext::norm(2.0 * q, self.e - d.e - 1) } else { Ext::norm(q, self.e - d.e) };
        x.to_f64()
    }
}

/// The arithmetic the walks are written against: `f64` on an arena in
/// range, [`Ext`] on one that is not. Values are non-negative.
trait Value: Copy {
    const ZERO: Self;
    const ONE: Self;
    /// A stored probability or edge weight.
    fn of(x: f64) -> Self;
    /// A node's stored empty value `m · 2^scale`.
    fn stored(m: f64, scale: i32) -> Self;
    fn mul(self, o: Self) -> Self;
    fn add(self, o: Self) -> Self;
    /// Strictly greater.
    fn gt(self, o: Self) -> bool;
    /// The value as an [`Ext`], exactly.
    fn wide(self) -> Ext;
    /// The buffer's value table of this type.
    fn table(buf: &mut BatchBuffer) -> &mut Vec<Self>;
}

impl Value for f64 {
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    #[inline(always)]
    fn of(x: f64) -> f64 {
        x
    }
    #[inline(always)]
    fn stored(m: f64, _: i32) -> f64 {
        m
    }
    #[inline(always)]
    fn mul(self, o: f64) -> f64 {
        self * o
    }
    #[inline(always)]
    fn add(self, o: f64) -> f64 {
        self + o
    }
    #[inline(always)]
    fn gt(self, o: f64) -> bool {
        self > o
    }
    fn wide(self) -> Ext {
        Ext::new(self)
    }
    fn table(buf: &mut BatchBuffer) -> &mut Vec<f64> {
        &mut buf.vals
    }
}

impl Value for Ext {
    const ZERO: Ext = Ext::ZERO;
    const ONE: Ext = Ext { m: 1.0, e: 0 };
    fn of(x: f64) -> Ext {
        Ext::new(x)
    }
    fn stored(m: f64, scale: i32) -> Ext {
        let x = Ext::new(m);
        if x.m == 0.0 {
            x
        } else {
            Ext { m: x.m, e: x.e + scale }
        }
    }
    fn mul(self, o: Ext) -> Ext {
        Ext::norm(self.m * o.m, self.e + o.e)
    }
    fn add(self, o: Ext) -> Ext {
        let (big, small) =
            if o.m == 0.0 || (self.m != 0.0 && self.e >= o.e) { (self, o) } else { (o, self) };
        let d = big.e - small.e;
        // Below 2^-64 of `big`, `small` is under half an ulp of `big.m`:
        // the correctly rounded sum is `big` itself.
        if small.m == 0.0 || d > 64 {
            return big;
        }
        Ext::norm(big.m + small.m * pow2(-d), big.e)
    }
    fn gt(self, o: Ext) -> bool {
        self.m != 0.0 && (o.m == 0.0 || self.e > o.e || (self.e == o.e && self.m > o.m))
    }
    fn wide(self) -> Ext {
        self
    }
    fn table(buf: &mut BatchBuffer) -> &mut Vec<Ext> {
        &mut buf.wide
    }
}

/// A compiled formula circuit flattened into an evaluation-ready arena
/// (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct Dnnf {
    num_vars: usize,
    nodes: Vec<Node>,
    /// Child node ids of every interior node, concatenated.
    edges: Vec<u32>,
    /// Weights (probabilities) parallel to `edges`; meaningful for `Or`
    /// slices, 1 for `And` slices.
    edge_weights: Vec<f64>,
    /// The value-table slot of each node, by live range: a node's slot
    /// is free again once its last reader has run, so a walk's table
    /// holds `slots` chunks, not one per node.
    slot: Vec<u32>,
    /// The number of slots: the most node values live at once.
    slots: u32,
    root: u32,
    /// Some value could leave f64's normal range: walk [`Ext`] values.
    wide: bool,
}

/// The vector instruction set a walk is compiled for, picked at the
/// walk's entry: AVX2 where the CPU reports it, else the target's
/// baseline (SSE2 on `x86_64`). Both variants run the same generic
/// source with the same fold order and no contraction (no `fma`), so
/// every answer has the same bits on each. Measured in-process on a
/// Xeon with AVX-512F (30 random arenas' 256-lane `query_batch` calls,
/// the variants alternated): AVX2 takes 24–34 % off the baseline's time
/// and 1–9 % off a one-lane call's. An AVX-512F variant was not kept:
/// against AVX2 it read +3.0, −10.3 and +5.2 % in three runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    Baseline,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Isa {
    /// The widest variant this CPU runs. Every `Avx2` is made here (or
    /// by the tests' `supported`), after the check.
    fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
        Isa::Baseline
    }
}

/// `exp` of the log weights one flatten meets, memoized: a compiled
/// formula's sums reuse the `ln p` and `ln (1 − p)` of its decision
/// variables, so most calls repeat an earlier one. Direct-mapped on the
/// argument's bits; a hit returns the bits `exp` returned. It takes
/// about 5 ns per node off a flatten of random 3-CNFs at n = 24–48
/// (in-process, three runs), paying, with one walk of
/// `Circuit::num_edges` instead of two, for part of
/// [`Dnnf::assign_slots`].
struct ExpCache([(u64, f64); 256]);

impl ExpCache {
    fn new() -> Self {
        // `exp(0) = 1` exactly: every empty entry is a valid one.
        ExpCache([(0f64.to_bits(), 1.0); 256])
    }

    fn exp(&mut self, x: f64) -> f64 {
        let bits = x.to_bits();
        let k = (bits ^ bits >> 32).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56;
        let entry = &mut self.0[k as usize];
        if entry.0 != bits {
            *entry = (bits, x.exp());
        }
        entry.1
    }
}

/// The scratch space of [`Dnnf::probability`], which answers one query
/// as a batch of one lane.
pub type DnnfBuffer = BatchBuffer;

/// `last[c]` of a node nothing reads, in [`Dnnf::from_circuit`].
const NO_READER: u32 = u32::MAX;

/// Evidence code for a marginalized (unobserved) variable in a
/// [`DnnfBatch`] lane; observed lanes store the value itself (0 or 1).
const MARGINALIZED: u8 = 2;

/// Storage lanes one node-table walk evaluates. A batch wider than this
/// is walked in tiles, so the value table is `slots × TILE` however
/// many lanes arrive, where `slots` is the arena's peak live set (see
/// [`Dnnf::from_circuit`]). It is also the width of the per-slot lane
/// masks of the sum-product walk (one `u64` per live node). Wider
/// passes over the slot table were measured and lost: on a Xeon with a
/// 2 MiB L2 per core, over 30 random arenas' 256-lane `query_batch`
/// calls (in-process, alternating), capping a pass's table at 2 MiB —
/// one pass for every distinct lane of a call — ran 11.7 % slower than
/// 64-lane tiles, and caps of 1 MiB, 512 KiB, 256 KiB and 128 KiB sat
/// in between.
const TILE: usize = 64;
const _: () = assert!(TILE <= 64);

/// Node·lanes (arena nodes × storage lanes, summed over a call's
/// sum-product and max-product slabs) a call of two or more tiles must
/// walk before its tiles go to the tile pool: below it, waking a helper
/// costs more than the helper saves. A parked helper's condvar wake
/// reads p50 14–44 µs and p90 19–82 µs on a 2-core VM, and a walk costs
/// 0.9–1.2 ns per sum-product node·lane and 1.3–2.4 ns per max-product
/// one there (in-process, 64-lane tiles of random 3-CNF arenas of 510
/// to 8,042 nodes), so 2^16 node·lanes is about 65 µs of walking: the
/// p90 wake plus the publish. The serving benchmark's 256-query calls
/// on 1.4k-node arenas walk ~400k; four exact queries on a 500-node
/// arena walk a few thousand, and a one-lane call has one tile.
const FAN_OUT_NODE_LANES: usize = 1 << 16;

/// Grows `table` to at least `len` values, to exactly `len` if it grows,
/// so the value table's size does not depend on the order in which a
/// buffer walked tiles of different widths.
fn grow<V: Copy>(table: &mut Vec<V>, len: usize, fill: V) {
    if table.len() < len {
        table.reserve_exact(len - table.len());
        table.resize(len, fill);
    }
}

/// One job of a batch's tile list: the storage lanes from `t0` of one
/// tile, and where their answers go.
enum Tile<'a> {
    /// A sum-product walk; `out` takes the root value per lane.
    Sum { batch: &'a DnnfBatch, t0: usize, out: &'a mut [Ext] },
    /// A max-product walk and its traces; `out` takes the MPE per lane.
    Max { batch: &'a DnnfBatch, t0: usize, out: &'a mut [MpeResult] },
}

/// The lanes of one tile's code run that observe their variable, as a
/// mask (bit `k` is lane `k`).
fn observed_lanes(codes: &[u8]) -> u64 {
    codes.iter().enumerate().fold(0, |mask, (k, &c)| mask | (u64::from(c != MARGINALIZED) << k))
}

/// A tile's slot-major value table, `l` values per slot, seen through
/// its base pointer, so that a node writes its own slot's chunk while
/// it reads its children's. A node never shares a slot with a child
/// (its children are live when it takes its slot), so those chunks are
/// disjoint. The safe form, `split_at_mut` around the node's chunk with
/// each child read from the part below or above it, costs a branch per
/// child read that the CPU cannot predict (a child's slot lies on
/// either side): about 45 % on a one-lane walk and 20 % on a 256-lane
/// one, in-process.
struct SlotTable<'a, V> {
    base: *mut V,
    slots: usize,
    l: usize,
    _vals: PhantomData<&'a mut [V]>,
}

impl<'a, V> SlotTable<'a, V> {
    /// The first `slots` chunks of `vals`.
    #[inline(always)]
    fn new(vals: &'a mut [V], slots: usize, l: usize) -> Self {
        assert!(vals.len() >= slots * l, "the value table holds every slot");
        SlotTable { base: vals.as_mut_ptr(), slots, l, _vals: PhantomData }
    }

    /// Slot `s`'s chunk, to write.
    ///
    /// # Safety
    ///
    /// No other view of slot `s`'s chunk may be alive while the
    /// returned one is.
    #[inline(always)]
    unsafe fn out(&self, s: usize) -> &'a mut [V] {
        debug_assert!(s < self.slots, "slot {s} out of range");
        // SAFETY: every slot is below the arena's slot count
        // (`Dnnf::assign_slots`) and the table holds `slots × l` values,
        // so the chunk is in bounds; the caller keeps it unaliased.
        unsafe { std::slice::from_raw_parts_mut(self.base.add(s * self.l), self.l) }
    }

    /// Slot `s`'s chunk, to read.
    ///
    /// # Safety
    ///
    /// No view of slot `s`'s chunk from [`out`](Self::out) may be alive
    /// while the returned one is.
    #[inline(always)]
    unsafe fn chunk(&self, s: usize) -> &'a [V] {
        debug_assert!(s < self.slots, "slot {s} out of range");
        // SAFETY: as in `out`; the caller keeps the chunk unwritten.
        unsafe { std::slice::from_raw_parts(self.base.add(s * self.l), self.l) }
    }
}

/// Writes the product `1 · c0 · c1 · …` of `children`'s chunks into
/// `out`, two children per pass: the first pass computes `(1·c0)·c1`,
/// each later one `(o·c_i)·c_{i+1}`, and an odd last child takes one
/// more. Every lane multiplies in the order of a fold from 1, so the
/// bits are that fold's, but the chunk is written ⌈k/2⌉ times, not
/// `k + 1`. `chunk(c)` is child `c`'s values for `out`'s lanes.
#[inline(always)]
fn product_into<'a, V: Value + 'a>(
    out: &mut [V],
    children: &[u32],
    chunk: impl Fn(u32) -> &'a [V],
) {
    let mut rest = match *children {
        [] => return out.fill(V::ONE),
        [c] => {
            for (o, &x) in out.iter_mut().zip(chunk(c)) {
                *o = V::ONE.mul(x);
            }
            return;
        }
        [a, b, ref tail @ ..] => {
            for ((o, &x), &y) in out.iter_mut().zip(chunk(a)).zip(chunk(b)) {
                *o = V::ONE.mul(x).mul(y);
            }
            tail
        }
    };
    while let [a, b, ref tail @ ..] = *rest {
        for ((o, &x), &y) in out.iter_mut().zip(chunk(a)).zip(chunk(b)) {
            *o = o.mul(x).mul(y);
        }
        rest = tail;
    }
    if let [c] = *rest {
        for (o, &x) in out.iter_mut().zip(chunk(c)) {
            *o = o.mul(x);
        }
    }
}

/// Writes the weighted sum `0 + w0·c0 + w1·c1 + …` of `children`'s
/// chunks into `out`, two terms per pass, the first pass from
/// `w0·c0 + w1·c1`. A term is non-negative, so `0 + t` is `t` exactly
/// and every lane's bits are those of a fold from 0.
#[inline(always)]
fn weighted_sum_into<'a, V: Value + 'a>(
    out: &mut [V],
    children: &[u32],
    weights: &[f64],
    chunk: impl Fn(u32) -> &'a [V],
) {
    let term = |k: usize| (V::of(weights[k]), chunk(children[k]));
    let k = children.len();
    match k {
        0 => return out.fill(V::ZERO),
        1 => {
            let (w, xs) = term(0);
            for (o, &x) in out.iter_mut().zip(xs) {
                *o = w.mul(x);
            }
            return;
        }
        _ => {
            let ((w0, xs), (w1, ys)) = (term(0), term(1));
            for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
                *o = w0.mul(x).add(w1.mul(y));
            }
        }
    }
    let mut i = 2;
    while i + 1 < k {
        let ((w0, xs), (w1, ys)) = (term(i), term(i + 1));
        for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
            *o = o.add(w0.mul(x)).add(w1.mul(y));
        }
        i += 2;
    }
    if i < k {
        let (w, xs) = term(i);
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = o.add(w.mul(x));
        }
    }
}

/// The storage lanes of a batch being packed, by column: open
/// addressing over a power-of-two table of lane ids, keyed by a word
/// hash of the column's codes, never more than half full. The hash has
/// no random seed, so a batch of columns chosen to collide costs
/// quadratic time in its own width, and nothing beyond it.
struct LaneIndex {
    /// Lane id per table slot, [`LaneIndex::EMPTY`] if none.
    table: Vec<u32>,
    /// Each lane's column hash, to grow the table without rehashing.
    hashes: Vec<u64>,
}

impl LaneIndex {
    const EMPTY: u32 = u32::MAX;

    /// An index sized for `columns` distinct columns; it allocates
    /// nothing for none.
    fn with_capacity(columns: usize) -> Self {
        let size = if columns == 0 { 0 } else { (2 * columns).next_power_of_two().max(16) };
        LaneIndex { table: vec![Self::EMPTY; size], hashes: Vec::with_capacity(columns) }
    }

    /// Distinct columns seen.
    fn lanes(&self) -> usize {
        self.hashes.len()
    }

    /// A word hash of a column's codes, 8 at a time.
    fn hash(col: &[u8]) -> u64 {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut words = col.chunks_exact(8);
        let mix = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(K);
        let mut h = words.by_ref().fold(col.len() as u64, |h, w| {
            mix(h, u64::from_le_bytes(w.try_into().expect("eight bytes")))
        });
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            h = mix(h, u64::from_le_bytes(w));
        }
        h
    }

    /// The table slot to probe first for `hash`: its high bits, which
    /// the multiply mixes best.
    fn home(&self, hash: u64) -> usize {
        (hash >> (64 - self.table.len().trailing_zeros())) as usize
    }

    /// The storage lane of the last column of `distinct` (columns of
    /// `n` codes, the earlier ones pairwise distinct and indexed), and
    /// whether it is new: a new column takes the next lane id.
    fn lane_of(&mut self, distinct: &[u8], n: usize) -> (u32, bool) {
        let start = distinct.len() - n;
        let col = &distinct[start..];
        let hash = Self::hash(col);
        if 2 * (self.hashes.len() + 1) > self.table.len() {
            self.rehash((2 * self.table.len()).max(16));
        }
        let mask = self.table.len() - 1;
        let mut at = self.home(hash);
        loop {
            match self.table[at] {
                Self::EMPTY => break,
                id => {
                    let s = id as usize;
                    if self.hashes[s] == hash && &distinct[s * n..s * n + n] == col {
                        return (id, false);
                    }
                }
            }
            at = (at + 1) & mask;
        }
        let id = self.hashes.len() as u32;
        self.table[at] = id;
        self.hashes.push(hash);
        (id, true)
    }

    /// Moves every lane into a table of `size` slots.
    fn rehash(&mut self, size: usize) {
        self.table = vec![Self::EMPTY; size];
        let mask = size - 1;
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut at = self.home(hash);
            while self.table[at] != Self::EMPTY {
                at = (at + 1) & mask;
            }
            self.table[at] = id as u32;
        }
    }
}

// The tile pool's helpers walk one arena and one batch from several
// threads at once: a field that is not `Send + Sync` would break that.
const _: fn() = || {
    fn shared<T: Send + Sync>() {}
    shared::<Dnnf>();
    shared::<DnnfBatch>();
};

/// A batch of B evidence lanes packed structure-of-arrays: one byte per
/// `(variable, lane)` pair, variable-major, so a batched traversal reads
/// each variable's codes as one contiguous run. This is the weight
/// slab the batched evaluators ([`Dnnf::wmc_batch`],
/// [`Dnnf::marginal_batch`], [`Dnnf::mpe_batch`]) consume: B queries
/// against one arena become one traversal per fixed-width tile of
/// distinct lanes, with tight inner loops over the tile's lanes and
/// answers bit-identical per lane to a batch of that lane alone.
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
        let mut expand = Vec::with_capacity(columns.size_hint().0);
        // The distinct columns in order of first arrival, `num_vars`
        // codes each: storage lane `s` is `distinct[s * num_vars..]`.
        // Each arriving column is written at the end and dropped again
        // if it repeats one.
        let mut distinct: Vec<u8> = Vec::with_capacity(num_vars * expand.capacity());
        let mut index = LaneIndex::with_capacity(expand.capacity());
        for (lane, (ev, set)) in columns.enumerate() {
            assert_eq!(ev.len(), num_vars, "lane {lane} arity mismatch");
            let start = distinct.len();
            distinct.extend(ev.values().iter().map(|v| v.map_or(MARGINALIZED, |v| v as u8)));
            if let Some((var, code)) = set {
                distinct[start + var] = code;
            }
            let (id, new) = index.lane_of(&distinct, num_vars);
            if !new {
                distinct.truncate(start);
            }
            expand.push(id);
        }
        let lanes = index.lanes();
        let mut codes = vec![MARGINALIZED; num_vars * lanes];
        for (lane, col) in distinct.chunks_exact(num_vars.max(1)).enumerate() {
            for (var, &c) in col.iter().enumerate() {
                codes[var * lanes + lane] = c;
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
    #[cfg(test)]
    fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The evidence value of `var` in query lane `lane` (`None` =
    /// marginalized).
    #[cfg(test)]
    fn value(&self, var: usize, lane: usize) -> Option<usize> {
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

/// `[Pr[v = 0 | e], Pr[v = 1 | e]]` per marginal lane, from the root
/// values `t0, t1, t2` of its three consecutive columns (`e∖v`,
/// `e ∧ v=0`, `e ∧ v=1`): `t1/t0` and `t2/t0`, with
/// [`Circuit::marginal`]'s uniform fallback for zero-probability
/// evidence.
fn marginals_from_roots(triplets: &[Ext]) -> Vec<Vec<f64>> {
    let marginal = |t: &[Ext]| {
        if t[0].m == 0.0 {
            vec![0.5; 2]
        } else {
            vec![t[1].ratio(t[0]), t[2].ratio(t[0])]
        }
    };
    triplets.chunks_exact(3).map(marginal).collect()
}

/// Reusable scratch space for batched arena evaluation: the value table
/// of one lane tile (`slots × TILE` at most, slot-major chunks, however
/// wide the batch, where `slots` is the arena's peak number of live
/// node values) — f64 values, or extended-exponent values for an arena
/// out of f64's range —, the node-indexed argmax table for MPE
/// (`nodes × TILE` at most) and the per-slot lane mask of the
/// sum-product walk (one `u64` per live node: the tile's lanes with an
/// observed variable in the node's scope). The tables only ever grow,
/// to the largest arena seen; one buffer per worker thread makes every
/// batch after the first allocation-free.
///
/// The buffer a call is given walks the call's first tile and every
/// tile the calling thread claims; a wide call's other tiles are
/// walked by the tile pool's helpers (see the [module docs](self)),
/// each on a buffer of its own, and their walks and computed node·lanes
/// are added to this buffer's counts.
#[derive(Debug, Clone, Default)]
pub struct BatchBuffer {
    vals: Vec<f64>,
    wide: Vec<Ext>,
    arg: Vec<u32>,
    dirty: Vec<u64>,
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
    /// run against this buffer since it was created, counting the tiles
    /// the tile pool's helpers walked for its calls.
    pub fn walks(&self) -> u64 {
        self.walks
    }

    /// Node·lanes the sum-product walks against this buffer (or the
    /// helpers', for its calls) computed rather than copied from the
    /// node's empty-evidence value: per tile, the `(node, lane)` pairs
    /// whose lane observes a variable in the node's scope. (A partly
    /// observed node — leaf, And or Or — recomputes its other lanes too,
    /// to the same bits as the copy; they are not counted.)
    pub fn lanes_computed(&self) -> u64 {
        self.computed
    }

    /// The buffer's walks and computed node·lanes.
    pub(crate) fn counts(&self) -> (u64, u64) {
        (self.walks, self.computed)
    }

    /// Adds walks and computed node·lanes that other threads' buffers
    /// counted for a batch walked on this one's behalf.
    pub(crate) fn add_counts(&mut self, (walks, computed): (u64, u64)) {
        self.walks += walks;
        self.computed += computed;
    }

    /// Bytes held by the value tables (f64 and, once an arena out of
    /// f64's range was walked, extended-exponent), the argmax table and
    /// the lane-mask table.
    pub fn slab_bytes(&self) -> usize {
        self.vals.capacity() * std::mem::size_of::<f64>()
            + self.wide.capacity() * std::mem::size_of::<Ext>()
            + self.arg.capacity() * std::mem::size_of::<u32>()
            + self.dirty.capacity() * std::mem::size_of::<u64>()
    }
}

impl Dnnf {
    /// Flattens `circuit` into an arena, preserving node order and
    /// child order exactly and exponentiating its log weights. The same
    /// pass stores every interior node's empty-evidence value, read off
    /// its already-flattened children, and bounds every node's values
    /// to pick the value type (see the [module docs](self)), and
    /// records each node's last reader, from which one more pass
    /// assigns the walks' value-table slots; an arena out of range
    /// stores its empty values again, extended.
    ///
    /// # Errors
    ///
    /// Returns [`DnnfError::NonBinaryVariable`] if any variable's arity
    /// is not 2.
    pub fn from_circuit(circuit: &Circuit) -> Result<Self, DnnfError> {
        if let Some((var, &arity)) = circuit.arities().iter().enumerate().find(|(_, &a)| a != 2) {
            return Err(DnnfError::NonBinaryVariable { var, arity });
        }
        // `Circuit::num_edges` walks every node: count once.
        let num_edges = circuit.num_edges();
        let mut arena = Dnnf {
            num_vars: circuit.num_vars(),
            nodes: Vec::with_capacity(circuit.num_nodes()),
            edges: Vec::with_capacity(num_edges),
            edge_weights: Vec::with_capacity(num_edges),
            slot: Vec::new(),
            slots: 0,
            root: circuit.root().index() as u32,
            wide: false,
        };
        // `lows[i]`: the smallest nonzero value node `i`, or any
        // intermediate of its arithmetic, takes under any evidence
        // (`+inf` if it is always zero; 0 if it underflowed). The
        // largest is its empty value, which any evidence only lowers.
        let mut lows: Vec<f64> = Vec::with_capacity(circuit.num_nodes());
        let mut exps = ExpCache::new();
        // `last[c]`: the last node that reads node `c` (`NO_READER` if
        // none yet).
        let mut last: Vec<u32> = Vec::with_capacity(circuit.num_nodes());
        for node in circuit.nodes() {
            let i = arena.nodes.len() as u32;
            let start = arena.edges.len() as u32;
            let (flat, low, high) = match node {
                PcNode::Indicator { var, value } => {
                    (Node::Indicator { var: var as u32, value: value == 1 }, 1.0, 1.0)
                }
                PcNode::Categorical { var, log_probs } => {
                    let p = [exps.exp(log_probs[0]), exps.exp(log_probs[1])];
                    // Observed, `p0` or `p1`; marginalized, 1. A positive
                    // probability whose `exp` flushed to 0 reads 0.
                    let low = (0..2).fold(1.0, |low: f64, b| {
                        if log_probs[b] == f64::NEG_INFINITY {
                            low
                        } else {
                            low.min(p[b])
                        }
                    });
                    (Node::Leaf { var: var as u32, p }, low, p[0].max(p[1]))
                }
                PcNode::Product { children } => {
                    // The empty value folds like the walk: `1 · c0 · c1 …`.
                    // Every prefix of the product is an intermediate.
                    let (mut low, mut run_low, mut high, mut empty) = (1.0f64, 1.0, 1.0f64, 1.0);
                    for c in children {
                        arena.edges.push(c.index() as u32);
                        arena.edge_weights.push(1.0);
                        last[c.index()] = i;
                        run_low *= lows[c.index()];
                        empty *= arena.nodes[c.index()].empty::<f64>();
                        (low, high) = (low.min(run_low), high.max(empty));
                    }
                    let len = children.len() as u32;
                    (Node::And { start, len, empty, scale: 0 }, low, high)
                }
                PcNode::Sum { children, log_weights } => {
                    // The empty value folds like the walk: `0 + w0·c0 + …`.
                    // Each weight and weighted child is an intermediate;
                    // a partial sum is at least its largest term.
                    let (mut low, mut high, mut empty) = (f64::INFINITY, 0.0f64, 0.0);
                    for (c, &lw) in children.iter().zip(log_weights) {
                        let w = exps.exp(lw);
                        arena.edges.push(c.index() as u32);
                        arena.edge_weights.push(w);
                        last[c.index()] = i;
                        empty += w * arena.nodes[c.index()].empty::<f64>();
                        if lw > f64::NEG_INFINITY {
                            (low, high) = (low.min(w).min(w * lows[c.index()]), high.max(w));
                        }
                    }
                    let len = children.len() as u32;
                    (Node::Or { start, len, empty, scale: 0 }, low, high.max(empty))
                }
            };
            arena.wide |= low < TINY || high > HUGE;
            arena.nodes.push(flat);
            lows.push(low);
            last.push(NO_READER);
        }
        arena.assign_slots(&mut last);
        if arena.wide {
            for i in 0..arena.nodes.len() {
                let empty = arena.wide_empty(&arena.nodes[i]);
                if let Node::And { empty: e, scale, .. } | Node::Or { empty: e, scale, .. } =
                    &mut arena.nodes[i]
                {
                    (*e, *scale) = (empty.m, empty.e);
                }
            }
        }
        Ok(arena)
    }

    /// Gives every node a value-table slot in one forward pass, from
    /// each node's last reader `last[i]`: node `i` takes the most
    /// recently freed slot (still in cache), then frees the slot of
    /// each child whose last reader it is, once even if the child
    /// repeats. A node no node reads frees its own slot at once; the
    /// root's is never freed, since the root need not be the last node.
    /// A node's children are live while it takes its slot, so it never
    /// shares one with them.
    fn assign_slots(&mut self, last: &mut [u32]) {
        const FREED: u32 = u32::MAX - 1;
        last[self.root as usize] = FREED;
        let n = self.nodes.len();
        // The free slots, a stack: it never holds more than every slot,
        // and a push writes `free[top]` before deciding to keep it, so
        // the pass takes no branch it could mispredict per edge.
        let mut free: Vec<u32> = vec![0; n + 1];
        let (mut top, mut slots) = (0usize, 0u32);
        let mut slot: Vec<u32> = vec![0; n];
        let mut edges = self.edges.iter();
        for (i, node) in self.nodes.iter().enumerate() {
            let reuse = top > 0;
            let s = if reuse { free[top - 1] } else { slots };
            (slots, top) = (slots + u32::from(!reuse), top - usize::from(reuse));
            slot[i] = s;
            let len = match *node {
                Node::And { len, .. } | Node::Or { len, .. } => len as usize,
                Node::Indicator { .. } | Node::Leaf { .. } => 0,
            };
            for &c in edges.by_ref().take(len) {
                let c = c as usize;
                let dies = last[c] == i as u32;
                free[top] = slot[c];
                top += usize::from(dies);
                last[c] = if dies { FREED } else { last[c] };
            }
            free[top] = s;
            top += usize::from(last[i] == NO_READER);
        }
        (self.slot, self.slots) = (slot, slots);
    }

    /// `node`'s empty-evidence value in extended values, folded over its
    /// children's stored ones in the walk's own order, so a lane that
    /// observes nothing in the node's scope computes the same bits.
    fn wide_empty(&self, node: &Node) -> Ext {
        match *node {
            Node::Indicator { .. } | Node::Leaf { .. } => Ext::ONE,
            Node::And { start, len, .. } => {
                let edges = &self.edges[start as usize..(start + len) as usize];
                edges.iter().fold(Ext::ONE, |acc, &c| acc.mul(self.nodes[c as usize].empty()))
            }
            Node::Or { start, len, .. } => {
                let (s, e) = (start as usize, (start + len) as usize);
                let terms = self.edges[s..e].iter().zip(&self.edge_weights[s..e]);
                terms.fold(Ext::ZERO, |acc, (&c, &w)| {
                    acc.add(Ext::new(w).mul(self.nodes[c as usize].empty()))
                })
            }
        }
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

    /// The arena's memory footprint in bytes: the node table, the edge
    /// and edge-weight arrays and the slot map. This is what the serving store's
    /// byte bound meters.
    pub fn bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node>()
            + self.edges.len() * std::mem::size_of::<u32>()
            + self.edge_weights.len() * std::mem::size_of::<f64>()
            + self.slot.len() * std::mem::size_of::<u32>()
    }

    /// The weighted model count `Pr[φ]`: the root's stored
    /// empty-evidence value — no walk. Bit-identical to an
    /// empty-evidence lane of [`wmc_batch`](Self::wmc_batch).
    pub fn wmc(&self) -> f64 {
        self.nodes[self.root as usize].empty::<Ext>().to_f64()
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
    /// evaluates every lane of `batch`, returning `ln Pr[φ ∧ e_k]` per
    /// lane — one `ln` of the lane's linear root value, taken at the
    /// end. On an arena out of f64's range it reads roots far below the
    /// smallest f64.
    ///
    /// # Panics
    ///
    /// Panics if `batch.num_vars() != self.num_vars()`.
    pub fn log_probability_batch(&self, batch: &DnnfBatch, buf: &mut BatchBuffer) -> Vec<f64> {
        let roots = self.roots(batch, buf);
        batch.fan_out(&roots.into_iter().map(Ext::ln).collect::<Vec<_>>())
    }

    /// The root value per *storage* lane of `batch`.
    fn roots(&self, batch: &DnnfBatch, buf: &mut BatchBuffer) -> Vec<Ext> {
        self.walk_tiles(Some(batch), None, buf).0
    }

    /// Walks every lane tile of `sum` (sum-product) and of `max`
    /// (max-product), on the widest vector instruction set the CPU
    /// runs, and returns the root value per storage lane of `sum` and
    /// the most probable explanation per storage lane of `max`. The
    /// tiles are one job list, walked beside the caller by the tile
    /// pool when the batch is wide enough to pay for the hand-off (see
    /// [`FAN_OUT_NODE_LANES`]).
    fn walk_tiles(
        &self,
        sum: Option<&DnnfBatch>,
        max: Option<&DnnfBatch>,
        buf: &mut BatchBuffer,
    ) -> (Vec<Ext>, Vec<MpeResult>) {
        let lanes = |b: Option<&DnnfBatch>| b.map_or(0, |b| b.lanes);
        let jobs = lanes(sum).div_ceil(TILE) + lanes(max).div_ceil(TILE);
        let node_lanes = self.nodes.len() * (lanes(sum) + lanes(max));
        let pool = (jobs >= 2 && node_lanes >= FAN_OUT_NODE_LANES).then(Pool::global);
        let (roots, mpes, _) = self.walk_tiles_on(sum, max, buf, Isa::detect(), pool);
        (roots, mpes)
    }

    /// [`walk_tiles`](Self::walk_tiles) on `isa`, offering the tiles to
    /// `pool`'s helpers if one is given; also returns whether they were
    /// offered (the pool may be held by another caller).
    fn walk_tiles_on(
        &self,
        sum: Option<&DnnfBatch>,
        max: Option<&DnnfBatch>,
        buf: &mut BatchBuffer,
        isa: Isa,
        pool: Option<&Pool>,
    ) -> (Vec<Ext>, Vec<MpeResult>, bool) {
        if self.wide {
            self.tiles_of::<Ext>(sum, max, buf, isa, pool)
        } else {
            self.tiles_of::<f64>(sum, max, buf, isa, pool)
        }
    }

    fn tiles_of<V: Value>(
        &self,
        sum: Option<&DnnfBatch>,
        max: Option<&DnnfBatch>,
        buf: &mut BatchBuffer,
        isa: Isa,
        pool: Option<&Pool>,
    ) -> (Vec<Ext>, Vec<MpeResult>, bool) {
        for batch in sum.iter().chain(&max) {
            assert_eq!(batch.num_vars, self.num_vars, "batch arity mismatch");
        }
        let mut roots = vec![Ext::ZERO; sum.map_or(0, |b| b.lanes)];
        let unset = MpeResult { assignment: Vec::new(), log_prob: 0.0 };
        let mut mpes = vec![unset; max.map_or(0, |b| b.lanes)];
        // MPE tiles first: a max-product walk and its per-lane traces
        // take longest, so they should not be the last jobs claimed.
        let mut tiles: Vec<Mutex<Tile<'_>>> = Vec::new();
        if let Some(batch) = max {
            for (k, out) in mpes.chunks_mut(TILE).enumerate() {
                tiles.push(Mutex::new(Tile::Max { batch, t0: k * TILE, out }));
            }
        }
        if let Some(batch) = sum {
            for (k, out) in roots.chunks_mut(TILE).enumerate() {
                tiles.push(Mutex::new(Tile::Sum { batch, t0: k * TILE, out }));
            }
        }
        let walk = |i: usize, buf: &mut BatchBuffer| {
            let mut tile = tiles[i].lock().expect("every tile is claimed once");
            let mut vals = std::mem::take(V::table(buf));
            match &mut *tile {
                Tile::Sum { batch, t0, out } => {
                    let l = out.len();
                    self.sum_product_walk(batch, *t0, l, &mut vals, buf, isa);
                    let root = self.slot[self.root as usize] as usize;
                    for (o, v) in out.iter_mut().zip(&vals[root * l..root * l + l]) {
                        *o = v.wide();
                    }
                }
                Tile::Max { batch, t0, out } => {
                    self.max_product_walk(batch, *t0, out.len(), &mut vals, buf, isa);
                    self.trace_tile(batch, *t0, out, &vals, buf);
                }
            }
            *V::table(buf) = vals;
        };
        let fanned = tile_pool::walk_jobs(pool, tiles.len(), buf, &walk);
        drop(tiles);
        (roots, mpes, fanned)
    }

    /// One sum-product walk of the node table over the `l` storage
    /// lanes from `t0`, leaving node `i`'s values in its slot's chunk
    /// `vals[s * l..(s + 1) * l]` (`s = slot[i]`) until its last reader
    /// has run, and the root's there for good.
    ///
    /// Each node first takes its lane mask: the tile's lanes that
    /// observe a variable in its scope (a leaf's observed lanes, an
    /// interior node's children's masks OR-ed). A node with no lane set
    /// copies its `empty` value. Any other node computes the whole
    /// tile, two children per pass: a lane outside its mask recomputes
    /// the node's `empty` value bit for bit, because every leaf below
    /// decodes that lane to 1 and the walk folds in the order the
    /// stored value was folded. Computing those lanes with the rest of
    /// the tile costs less than picking the masked lanes out.
    fn sum_product_walk<V: Value>(
        &self,
        batch: &DnnfBatch,
        t0: usize,
        l: usize,
        vals: &mut Vec<V>,
        buf: &mut BatchBuffer,
        isa: Isa,
    ) {
        buf.walks += 1;
        // Grow only, and no clear: every chunk and mask is written
        // before it is read (children precede parents in the arena).
        let slots = self.slots as usize;
        grow(vals, slots * l, V::ZERO);
        if buf.dirty.len() < slots {
            buf.dirty.resize(slots, 0);
        }
        let (vals, dirty) = (&mut vals[..slots * l], &mut buf.dirty[..slots]);
        buf.computed += match isa {
            // SAFETY: an `Isa::Avx2` is only made after the CPU
            // reported AVX2 (`Isa::detect`).
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { self.sum_product_avx2(batch, t0, l, vals, dirty) },
            Isa::Baseline => self.sum_product_lanes(batch, t0, l, vals, dirty),
        };
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn sum_product_avx2<V: Value>(
        &self,
        batch: &DnnfBatch,
        t0: usize,
        l: usize,
        vals: &mut [V],
        dirty: &mut [u64],
    ) -> u64 {
        self.sum_product_lanes(batch, t0, l, vals, dirty)
    }

    /// The body of [`sum_product_walk`](Self::sum_product_walk),
    /// inlined into each instruction-set variant. Returns the
    /// node·lanes computed.
    #[inline(always)]
    fn sum_product_lanes<V: Value>(
        &self,
        batch: &DnnfBatch,
        t0: usize,
        l: usize,
        vals: &mut [V],
        dirty: &mut [u64],
    ) -> u64 {
        let mut computed = 0;
        let table = SlotTable::new(vals, self.slots as usize, l);
        for (i, node) in self.nodes.iter().enumerate() {
            let s = self.slot[i] as usize;
            // SAFETY: node `i`'s chunk is the only one written while it
            // lives, and every chunk read meanwhile is a child's, in
            // another slot (`Dnnf::assign_slots`; asserted in `chunk`).
            let out = unsafe { table.out(s) };
            let chunk = |c: u32| {
                let sc = self.slot[c as usize] as usize;
                debug_assert_ne!(sc, s, "node {i} shares its slot with child {c}");
                // SAFETY: `sc != s`, so no view of this chunk is written.
                unsafe { table.chunk(sc) }
            };
            let mask = match *node {
                Node::Indicator { var, .. } | Node::Leaf { var, .. } => {
                    observed_lanes(batch.tile_codes(var as usize, t0, l))
                }
                Node::And { start, len, .. } | Node::Or { start, len, .. } => {
                    let edges = &self.edges[start as usize..(start + len) as usize];
                    edges.iter().fold(0, |mask, &c| mask | dirty[self.slot[c as usize] as usize])
                }
            };
            dirty[s] = mask;
            computed += u64::from(mask.count_ones());
            if mask == 0 {
                out.fill(node.empty());
                continue;
            }
            match *node {
                Node::Indicator { var, value } => {
                    // Branchless decode: value-match → 1, mismatch → 0,
                    // marginalized → 1 (Σ_v [v = value] = 1).
                    let hit = [V::ONE, V::ZERO];
                    let table = [hit[usize::from(value)], hit[usize::from(!value)], V::ONE];
                    for (o, &c) in out.iter_mut().zip(batch.tile_codes(var as usize, t0, l)) {
                        *o = table[c as usize];
                    }
                }
                Node::Leaf { var, p } => {
                    let table = [V::of(p[0]), V::of(p[1]), V::ONE];
                    for (o, &c) in out.iter_mut().zip(batch.tile_codes(var as usize, t0, l)) {
                        *o = table[c as usize];
                    }
                }
                Node::And { start, len, .. } => {
                    product_into(out, &self.edges[start as usize..(start + len) as usize], chunk);
                }
                Node::Or { start, len, .. } => {
                    let (a, e) = (start as usize, (start + len) as usize);
                    weighted_sum_into(out, &self.edges[a..e], &self.edge_weights[a..e], chunk);
                }
            }
        }
        computed
    }

    /// Batched weighted model counts / evidence probabilities (linear
    /// space): `Pr[φ ∧ e_k]` per lane, the lane's root value.
    pub fn wmc_batch(&self, batch: &DnnfBatch, buf: &mut BatchBuffer) -> Vec<f64> {
        let roots = self.roots(batch, buf);
        batch.fan_out(&roots.into_iter().map(Ext::to_f64).collect::<Vec<_>>())
    }

    /// Batched marginal distributions of `var`: every distinct lane
    /// contributes its three columns (`var` marginalized, `= 0`, `= 1`)
    /// to one slab of triple width, walked like any other — one
    /// traversal per lane tile, not three per call — answering
    /// [`Circuit::marginal`]'s question lane for lane (including
    /// the uniform fallback for zero-probability evidence).
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
        let roots = self.roots(&batch.triplets(var), buf);
        batch.fan_out(&marginals_from_roots(&roots))
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
    /// MPE lanes share one max-product pass of their own. Both passes'
    /// tiles are one job list, which a wide batch shares with the tile
    /// pool (see the [module docs](self)). Any group may be empty.
    /// Answers are bit-identical per lane to
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
        let sum = DnnfBatch::from_columns(self.num_vars, sum_lanes);
        let max = DnnfBatch::from_columns(self.num_vars, mpes.iter().map(|&ev| (ev, None)));
        let (roots, results) = self.walk_tiles(Some(&sum), Some(&max), buf);
        let roots = sum.fan_out(&roots);
        let (ps, triplets) = roots.split_at(probabilities.len());
        (
            ps.iter().map(|p| p.to_f64()).collect(),
            marginals_from_roots(triplets),
            max.fan_out(&results),
        )
    }

    /// Batched most-probable explanations: one max-product up-pass per
    /// lane tile plus a per-lane downward trace, answering
    /// [`Circuit::mpe`]'s question lane for lane. An Or node keeps
    /// its earliest child among equal weighted values, and `log_prob`
    /// is one `ln` of the root's max-product value.
    ///
    /// # Panics
    ///
    /// Panics if `batch.num_vars() != self.num_vars()`.
    pub fn mpe_batch(&self, batch: &DnnfBatch, buf: &mut BatchBuffer) -> Vec<MpeResult> {
        batch.fan_out(&self.walk_tiles(None, Some(batch), buf).1)
    }

    /// The downward trace of one max-product tile: per storage lane
    /// from `t0`, the assignment its argmaxes select (one child per
    /// disjunction, observed variables kept) and the `ln` of its root
    /// value, into `out`.
    fn trace_tile<V: Value>(
        &self,
        batch: &DnnfBatch,
        t0: usize,
        out: &mut [MpeResult],
        vals: &[V],
        buf: &mut BatchBuffer,
    ) {
        let l = out.len();
        let root = self.slot[self.root as usize] as usize;
        let (arg, stack) = (&buf.arg, &mut buf.stack);
        for (lane, out) in out.iter_mut().enumerate() {
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
                    Node::Leaf { var, p } => {
                        if observed(var as usize).is_none() {
                            assignment[var as usize] = usize::from(p[1] > p[0]);
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
            let log_prob = vals[root * l + lane].wide().ln();
            *out = MpeResult { assignment, log_prob };
        }
    }

    /// One max-product walk of the node table over the `l <= TILE`
    /// storage lanes from `t0`: values in the slot table `vals`
    /// (`slots × l`), the winning child of each disjunction in the
    /// node-indexed `buf.arg` (`nodes × l`), which the downward trace
    /// reads by node id.
    fn max_product_walk<V: Value>(
        &self,
        batch: &DnnfBatch,
        t0: usize,
        l: usize,
        vals: &mut Vec<V>,
        buf: &mut BatchBuffer,
        isa: Isa,
    ) {
        buf.walks += 1;
        let (n, slots) = (self.nodes.len(), self.slots as usize);
        grow(vals, slots * l, V::ZERO);
        if buf.arg.len() < n * l {
            buf.arg.resize(n * l, 0);
        }
        let (vals, arg) = (&mut vals[..slots * l], &mut buf.arg[..n * l]);
        match isa {
            // SAFETY: an `Isa::Avx2` is only made after the CPU
            // reported AVX2 (`Isa::detect`).
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { self.max_product_avx2(batch, t0, l, vals, arg) },
            Isa::Baseline => self.max_product_lanes(batch, t0, l, vals, arg),
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn max_product_avx2<V: Value>(
        &self,
        batch: &DnnfBatch,
        t0: usize,
        l: usize,
        vals: &mut [V],
        arg: &mut [u32],
    ) {
        self.max_product_lanes(batch, t0, l, vals, arg);
    }

    /// The body of [`max_product_walk`](Self::max_product_walk),
    /// inlined into each instruction-set variant.
    #[inline(always)]
    fn max_product_lanes<V: Value>(
        &self,
        batch: &DnnfBatch,
        t0: usize,
        l: usize,
        vals: &mut [V],
        arg: &mut [u32],
    ) {
        let table = SlotTable::new(vals, self.slots as usize, l);
        for (i, node) in self.nodes.iter().enumerate() {
            let s = self.slot[i] as usize;
            // SAFETY: as in `sum_product_lanes`: node `i`'s chunk is
            // the only one written while it lives, and it reads only its
            // children's, in other slots.
            let out = unsafe { table.out(s) };
            let chunk = |c: u32| {
                let sc = self.slot[c as usize] as usize;
                debug_assert_ne!(sc, s, "node {i} shares its slot with child {c}");
                // SAFETY: `sc != s`, so no view of this chunk is written.
                unsafe { table.chunk(sc) }
            };
            match *node {
                Node::Indicator { var, value } => {
                    for (o, &c) in out.iter_mut().zip(batch.tile_codes(var as usize, t0, l)) {
                        let hit = c == MARGINALIZED || (c == 1) == value;
                        *o = if hit { V::ONE } else { V::ZERO };
                    }
                }
                Node::Leaf { var, p } => {
                    let table = [V::of(p[0]), V::of(p[1]), V::of(p[0].max(p[1]))];
                    for (o, &c) in out.iter_mut().zip(batch.tile_codes(var as usize, t0, l)) {
                        *o = table[c as usize];
                    }
                }
                Node::And { start, len, .. } => {
                    product_into(out, &self.edges[start as usize..(start + len) as usize], chunk);
                }
                Node::Or { start, len, .. } => {
                    let (s, e) = (start as usize, (start + len) as usize);
                    let args = &mut arg[i * l..i * l + l];
                    let mut terms = self.edges[s..e].iter().zip(&self.edge_weights[s..e]);
                    // The first child seeds every lane. A term is
                    // non-negative, so this is what a seed of 0 would
                    // keep: the term if it is positive, else a zero of
                    // the same bits, with child 0 as the argmax.
                    let Some((&c, &w)) = terms.next() else {
                        out.fill(V::ZERO);
                        args.fill(0);
                        continue;
                    };
                    let w = V::of(w);
                    for ((o, a), &v) in out.iter_mut().zip(args.iter_mut()).zip(chunk(c)) {
                        (*o, *a) = (w.mul(v), 0);
                    }
                    // Strict `>`: ties keep the earliest child.
                    for (k, (&c, &w)) in (1..).zip(terms) {
                        let w = V::of(w);
                        for ((o, a), &v) in out.iter_mut().zip(args.iter_mut()).zip(chunk(c)) {
                            let x = w.mul(v);
                            if x.gt(*o) {
                                (*o, *a) = (x, k);
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
    use crate::reference;
    use crate::structure::{random_mixture_circuit, StructureConfig};
    use reason_sat::gen::random_ksat;
    use reason_sat::Cnf;

    fn compiled(seed: u64, n: usize, m: usize) -> Option<(Circuit, Dnnf)> {
        let cnf = random_ksat(n, m, 3, seed);
        let weights = WmcWeights::new((0..n).map(|v| 0.3 + 0.05 * (v % 7) as f64).collect());
        let circuit = compile_cnf(&cnf, &weights)?;
        let arena = Dnnf::from_circuit(&circuit).unwrap();
        Some((circuit, arena))
    }

    /// Every answer an arena gives on `lanes` — probability, its log,
    /// a marginal of the middle variable, the MPE — against the
    /// double-double reference, each within its bound
    /// (`reference::check_*`); and the log lane is the `ln` of the
    /// linear one, bit for bit.
    fn assert_within_bounds(circuit: &Circuit, arena: &Dnnf, lanes: &[Evidence]) {
        let batch = DnnfBatch::pack(lanes);
        let mut buf = BatchBuffer::new();
        let ps = arena.wmc_batch(&batch, &mut buf);
        let logs = arena.log_probability_batch(&batch, &mut buf);
        let var = arena.num_vars() / 2;
        let dists = (arena.num_vars() > 0).then(|| arena.marginal_batch(&batch, var, &mut buf));
        let mpes = arena.mpe_batch(&batch, &mut buf);
        for (k, ev) in lanes.iter().enumerate() {
            let lane = |why: String| format!("lane {k}: {why}");
            reference::check_probability(circuit, ev, ps[k]).map_err(lane).unwrap();
            assert_eq!(logs[k].to_bits(), ps[k].ln().to_bits(), "lane {k}");
            if let Some(dists) = &dists {
                reference::check_marginal(circuit, ev, var, &dists[k]).map_err(lane).unwrap();
            }
            let MpeResult { assignment, log_prob } = &mpes[k];
            reference::check_mpe(circuit, ev, assignment, *log_prob).map_err(lane).unwrap();
        }
    }

    #[test]
    fn arena_matches_the_reference_within_gamma_d() {
        let mut checked = 0;
        for seed in 0..12 {
            let Some((circuit, arena)) = compiled(seed, 10, 26) else { continue };
            // Full marginalization, full assignments, partial evidence.
            let mut evidences = vec![Evidence::empty(10)];
            for bits in [0u32, 7, 99, 1023] {
                let values: Vec<usize> = (0..10).map(|v| (bits >> v & 1) as usize).collect();
                evidences.push(Evidence::from_assignment(&values));
            }
            let mut partial = Evidence::empty(10);
            partial.set(0, 1).set(3, 0).set(7, 1);
            evidences.push(partial);
            assert_within_bounds(&circuit, &arena, &evidences);
            reference::check_probability(&circuit, &evidences[0], arena.wmc()).unwrap();
            checked += 1;
        }
        assert!(checked > 0, "at least one satisfiable instance must be checked");
    }

    #[test]
    fn marginal_and_mpe_match_circuit() {
        let (circuit, arena) = compiled(3, 9, 22).expect("seed 3 is satisfiable");
        let mut bbuf = BatchBuffer::new();
        let mut ev = Evidence::empty(9);
        ev.set(2, 1);
        let one = DnnfBatch::pack(std::slice::from_ref(&ev));
        for var in [0, 4, 8] {
            let got = &arena.marginal_batch(&one, var, &mut bbuf)[0];
            reference::check_marginal(&circuit, &ev, var, got).unwrap();
        }
        let MpeResult { assignment, log_prob } = &arena.mpe_batch(&one, &mut bbuf)[0];
        reference::check_mpe(&circuit, &ev, assignment, *log_prob).unwrap();
        // The exact MPE of this instance has no tie: the log-space
        // circuit and the arena pick the same assignment.
        assert_eq!(circuit.mpe(&ev).assignment, *assignment);
    }

    #[test]
    fn every_interior_node_stores_its_empty_evidence_value() {
        let mut checked = 0;
        for seed in 0..12 {
            // Weights at 0 and 1 too: log-weights of -inf and 0.
            let n = 10;
            let cnf = random_ksat(n, 24, 3, seed);
            let probs = (0..n).map(|v| [0.0, 1.0, 0.3, 0.55, 0.8][v % 5]).collect();
            for weights in [WmcWeights::new(probs), WmcWeights::uniform(n)] {
                let Some(circuit) = compile_cnf(&cnf, &weights) else { continue };
                let arena = Dnnf::from_circuit(&circuit).unwrap();
                assert!(!arena.wide, "seed {seed}: small formulas walk f64");
                let want = reference::values(&circuit, &Evidence::empty(n));
                let depths = reference::rounding_depths(&circuit);
                for (i, node) in arena.nodes.iter().enumerate() {
                    if matches!(node, Node::And { .. } | Node::Or { .. }) {
                        // Each node's own bound: γ of its own depth.
                        let got: f64 = node.empty();
                        let err = reference::relative_error(got, want[i]);
                        let bound = reference::gamma(depths[i]);
                        assert!(err <= bound, "seed {seed} node {i}: {got}, error {err:e}");
                    }
                }
                checked += 1;
            }
        }
        assert!(checked > 0, "at least one instance must carry mass");
    }

    /// `arena` with a slot of its own for every node (`slot[i] = i`):
    /// a valid slot map, under which the walk leaves every node's
    /// values in place.
    fn identity_slots(arena: &Dnnf) -> Dnnf {
        let n = arena.nodes.len() as u32;
        Dnnf { slot: (0..n).collect(), slots: n, ..arena.clone() }
    }

    /// Walks one tile of `lanes` and checks that every `(node, lane)`
    /// outside the node's lane mask holds the node's stored empty value
    /// bit for bit. Returns how many And and Or nodes the tile left
    /// partly masked (some lanes set, not all).
    fn unmasked_lanes_hold_the_empty_value<V: Value + fmt::Debug>(
        arena: &Dnnf,
        lanes: &[Evidence],
    ) -> [usize; 2] {
        let batch = DnnfBatch::pack(lanes);
        let l = batch.distinct_lanes();
        assert!(l <= TILE, "one tile");
        // A slot per node, so every node's chunk survives the walk.
        let arena = &identity_slots(arena);
        let mut buf = BatchBuffer::new();
        let mut vals: Vec<V> = Vec::new();
        arena.sum_product_walk(&batch, 0, l, &mut vals, &mut buf, Isa::detect());
        let all = u64::MAX >> (64 - l);
        let mut partly = [0; 2];
        for (i, node) in arena.nodes.iter().enumerate() {
            let mask = buf.dirty[i];
            if mask != 0 && mask != all {
                match node {
                    Node::And { .. } => partly[0] += 1,
                    Node::Or { .. } => partly[1] += 1,
                    _ => {}
                }
            }
            let empty = format!("{:?}", node.empty::<V>());
            for k in (0..l).filter(|&k| mask >> k & 1 == 0) {
                assert_eq!(format!("{:?}", vals[i * l + k]), empty, "node {i} lane {k}");
            }
        }
        partly
    }

    /// A mixed tile over `n` variables: a lane observing nothing, one
    /// lane per variable observing only it, and one observing them all.
    fn mixed_tile(n: usize) -> Vec<Evidence> {
        let mut lanes = vec![Evidence::empty(n)];
        for var in 0..n {
            lanes.push(Evidence::empty(n));
            lanes[var + 1].set(var, var % 2);
        }
        lanes.push(Evidence::from_assignment(&(0..n).map(|v| (v / 2) % 2).collect::<Vec<_>>()));
        lanes
    }

    #[test]
    fn lanes_outside_a_node_mask_recompute_its_empty_value_bit_for_bit() {
        // f64 arenas: compiled formulas (binary Or nodes) and mixtures
        // with 3-, 4- and 5-way Or nodes over Bernoulli leaves, so every
        // shape of the two-per-pass folds meets the stored fold.
        let mut partly = [0; 2];
        for seed in 0..6 {
            let Some((_, arena)) = compiled(seed, 12, 30) else { continue };
            let got = unmasked_lanes_hold_the_empty_value::<f64>(&arena, &mixed_tile(12));
            partly = [partly[0] + got[0], partly[1] + got[1]];
        }
        for num_components in [3, 4, 5] {
            let config = StructureConfig { num_vars: 10, depth: 3, num_components, seed: 11 };
            let arena = Dnnf::from_circuit(&random_mixture_circuit(&config)).unwrap();
            assert!(!arena.wide);
            let got = unmasked_lanes_hold_the_empty_value::<f64>(&arena, &mixed_tile(10));
            assert!(got[1] > 0, "{num_components}-way mixtures leave Or nodes partly masked");
        }
        assert!(partly[0] > 0 && partly[1] > 0, "partly masked And and Or nodes: {partly:?}");
        // Extended-exponent arenas: 1e-160 on every third variable.
        let mut checked = 0;
        for seed in 0..4u64 {
            let n = 12 + seed as usize;
            let probs = (0..n).map(|v| [1e-160, 0.5, 0.3][v % 3]).collect();
            let cnf = random_ksat(n, 2 * n, 3, 40 + seed);
            let Some(circuit) = compile_cnf(&cnf, &WmcWeights::new(probs)) else { continue };
            let arena = Dnnf::from_circuit(&circuit).unwrap();
            assert!(arena.wide, "seed {seed}: values leave f64's range");
            let got = unmasked_lanes_hold_the_empty_value::<Ext>(&arena, &mixed_tile(n));
            assert!(got[0] > 0 && got[1] > 0, "seed {seed}: partly masked nodes {got:?}");
            checked += 1;
        }
        assert!(checked > 0, "at least one extended arena must be checked");
    }

    #[test]
    fn an_empty_product_reads_one_and_its_log_positive_zero_on_every_path() {
        // The root of an n = 0 formula, and a bare `product(vec![])`.
        // The fold starts from 1.0, so the product is exactly 1 and its
        // log `ln(1) = +0.0`. (The log-space `Circuit` still folds from
        // `-0.0`, as `Iterator::sum` does; no arena path reads that.)
        let nothing = compile_cnf(&Cnf::from_clauses(0, vec![]), &WmcWeights::uniform(0))
            .expect("the empty formula has mass");
        let mut b = CircuitBuilder::new(vec![2]);
        let root = b.product(&[]);
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
            let root: f64 = arena.nodes[arena.root as usize].empty();
            assert_eq!(root.to_bits(), 1f64.to_bits());
            assert_eq!(arena.wmc().to_bits(), 1f64.to_bits(), "n = {n}");
            for (k, ev) in lanes.iter().enumerate() {
                assert_eq!(logp[k].to_bits(), 0f64.to_bits(), "n = {n} lane {k}");
                assert_eq!(ps[k].to_bits(), 1f64.to_bits(), "n = {n} lane {k}");
                let want = circuit.mpe(ev);
                assert_eq!(mpes[k].assignment, want.assignment, "n = {n} lane {k}");
                assert_eq!(mpes[k].log_prob.to_bits(), 0f64.to_bits(), "n = {n} lane {k}");
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
        let root = b.product(&[]);
        circuits.push(b.build(root).unwrap());
        let mut buf = BatchBuffer::new();
        for (k, circuit) in circuits.iter().enumerate() {
            let arena = Dnnf::from_circuit(circuit).unwrap();
            let empty = Evidence::empty(circuit.num_vars());
            let lane = arena.wmc_batch(&DnnfBatch::pack(std::slice::from_ref(&empty)), &mut buf);
            assert_eq!(arena.wmc().to_bits(), lane[0].to_bits(), "circuit {k}: {}", arena.wmc());
            reference::check_probability(circuit, &empty, arena.wmc()).unwrap();
        }
    }

    /// Random 3-CNFs at n = 8..=16 on skewed weights (some at exactly 0
    /// and 1), plus two taller ones at n = 30 and 36, each with its
    /// mixed lanes, 40 distinct base-3 lanes and one lane observing
    /// every variable.
    fn reference_workload() -> Vec<(Circuit, Vec<Evidence>)> {
        let mut out = Vec::new();
        let shapes = (0..24u64).map(|seed| (8 + seed as usize % 9, seed)).chain([(30, 3), (36, 7)]);
        for (n, seed) in shapes {
            let cnf = random_ksat(n, 2 * n + seed as usize % 13, 3, 900 + seed);
            let probs = (0..n).map(|v| match (v * 7 + seed as usize) % 11 {
                0 => 0.0,
                1 => 1.0,
                k => 0.03 + 0.09 * k as f64,
            });
            let Some(circuit) = compile_cnf(&cnf, &WmcWeights::new(probs.collect())) else {
                continue;
            };
            let mut lanes = lanes(n);
            lanes.extend(distinct_lanes(n, 40));
            lanes.push(Evidence::from_assignment(&(0..n).map(|v| v % 2).collect::<Vec<_>>()));
            out.push((circuit, lanes));
        }
        out
    }

    /// The arena's largest relative errors against the double-double
    /// reference over [`reference_workload`], as `(error, error / bound)`
    /// pairs: probability lanes against `γ_D`, marginals against
    /// `γ_{2D+1}` (a quotient of two lanes), and the MPE's `ln` weight
    /// (an absolute error) against `reference::check_mpe`'s slack.
    fn worst_reference_errors() -> [(f64, f64); 3] {
        let mut worst = [(0.0f64, 0.0f64); 3];
        let mut record = |kind: usize, err: f64, bound: f64| {
            worst[kind] = (worst[kind].0.max(err), worst[kind].1.max(err / bound));
        };
        for (circuit, lanes) in reference_workload() {
            let arena = Dnnf::from_circuit(&circuit).unwrap();
            let d = reference::rounding_depth(&circuit);
            let (g, g2) = (reference::gamma(d), reference::gamma(2 * d + 1));
            let batch = DnnfBatch::pack(&lanes);
            let mut buf = BatchBuffer::new();
            let ps = arena.wmc_batch(&batch, &mut buf);
            let var = circuit.num_vars() / 2;
            let dists = arena.marginal_batch(&batch, var, &mut buf);
            let mpes = arena.mpe_batch(&batch, &mut buf);
            for (k, ev) in lanes.iter().enumerate() {
                let want = reference::probability(&circuit, ev);
                record(0, reference::relative_error(ps[k], want), g);
                let mut e = ev.clone();
                let t0 = reference::probability(&circuit, e.clear(var));
                if t0.hi > 0.0 {
                    for (b, &got) in dists[k].iter().enumerate() {
                        let tb = reference::probability(&circuit, e.set(var, b));
                        record(1, reference::relative_error(got, reference::ratio(tb, t0)), g2);
                    }
                }
                let max = reference::max_probability(&circuit, ev);
                if max.hi > 0.0 {
                    let ln = max.hi.ln() + max.lo / max.hi;
                    let slack = reference::gamma(d + 1) + 4.0 * reference::U * ln.abs();
                    record(2, (mpes[k].log_prob - ln).abs(), slack);
                }
            }
        }
        worst
    }

    #[test]
    fn every_lane_is_within_gamma_d_of_the_double_double_reference() {
        let [p, m, mpe] = worst_reference_errors();
        println!(
            "worst error (error / bound): probability {:.3e} ({:.3}), marginal {:.3e} ({:.3}), \
             mpe ln weight {:.3e} ({:.3})",
            p.0, p.1, m.0, m.1, mpe.0, mpe.1
        );
        assert!(p.1 <= 1.0, "a probability lane exceeds γ_D");
        assert!(m.1 <= 1.0, "a marginal exceeds γ_(2D+1)");
        assert!(mpe.1 <= 1.0, "an MPE log weight exceeds its bound");
    }

    #[test]
    fn the_double_double_reference_agrees_with_the_circuit() {
        for (circuit, lanes) in reference_workload().iter().take(6) {
            for ev in lanes {
                let want = circuit.probability(ev);
                let got = reference::probability(circuit, ev);
                assert!((got.hi - want).abs() <= 1e-12 * want, "{got:?} vs {want}");
            }
        }
    }

    #[test]
    fn extended_values_round_like_f64_in_range_and_reach_beyond_it() {
        let xs = [1.0, 0.75, 0.3, 1e-5, 0.999_999_999, 2.0f64.powi(-900), 1.0 / 3.0];
        for &a in &xs {
            assert_eq!(Ext::new(a).to_f64().to_bits(), a.to_bits(), "{a}");
            assert_eq!(Ext::new(a).ln().to_bits(), a.ln().to_bits(), "{a}");
            for &b in &xs {
                let (x, y) = (Ext::new(a), Ext::new(b));
                assert_eq!(x.mul(y).to_f64().to_bits(), (a * b).to_bits(), "{a} · {b}");
                assert_eq!(x.add(y).to_f64().to_bits(), (a + b).to_bits(), "{a} + {b}");
                assert_eq!(x.gt(y), a > b, "{a} > {b}");
                assert_eq!(x.ratio(y).to_bits(), (a / b).to_bits(), "{a} / {b}");
            }
        }
        assert_eq!((TINY, HUGE), (2f64.powi(-1000), 2f64.powi(1000)));
        // Subnormals normalize exactly; zero is absorbing and the least.
        assert_eq!(Ext::new(5e-324), Ext { m: 1.0, e: -1074 });
        assert_eq!(Ext::new(5e-324).to_f64(), 5e-324);
        assert_eq!(Ext::ZERO.add(Ext::new(0.5)), Ext::new(0.5));
        assert_eq!(Ext::new(0.5).mul(Ext::ZERO), Ext::ZERO);
        assert!(Ext::new(5e-324).gt(Ext::ZERO) && !Ext::ZERO.gt(Ext::ZERO));
        // Far below f64: 1e-160^8 is 1e-1280, and its log survives.
        let tiny = (0..8).fold(<Ext as Value>::ONE, |acc, _| acc.mul(Ext::new(1e-160)));
        assert_eq!(tiny.to_f64(), 0.0);
        assert!((tiny.ln() - 8.0 * 1e-160f64.ln()).abs() < 1e-12, "{}", tiny.ln());
        assert!(tiny.gt(tiny.mul(Ext::new(0.5))));
        // A term 2^-65 below the other cannot move it: the rounded sum
        // is the larger term, as in f64.
        let one = Ext::new(1.0);
        assert_eq!(one.add(Ext::new(2f64.powi(-65))), one);
        assert_eq!(one.add(Ext::new(2f64.powi(-52))).to_f64(), 1.0 + 2f64.powi(-52));
    }

    /// `ln Pr[φ ∧ e]` by enumerating every assignment in log space: each
    /// model's weight is a sum of logs, so nothing underflows.
    fn brute_log_probability(cnf: &Cnf, probs: &[f64], ev: &Evidence) -> f64 {
        let n = cnf.num_vars();
        let logs: Vec<f64> = (0..1u32 << n)
            .filter_map(|bits| {
                let model: Vec<bool> = (0..n).map(|v| bits >> v & 1 == 1).collect();
                let agrees = (0..n).all(|v| ev.value(v).is_none_or(|b| (b == 1) == model[v]));
                (agrees && cnf.eval(&model)).then(|| {
                    let w = |v: usize| if model[v] { probs[v] } else { 1.0 - probs[v] };
                    (0..n).map(|v| w(v).ln()).sum::<f64>()
                })
            })
            .collect();
        let m = logs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if m == f64::NEG_INFINITY {
            return m;
        }
        m + logs.iter().map(|l| (l - m).exp()).sum::<f64>().ln()
    }

    /// Lanes for an adversarial formula: the empty evidence, every
    /// variable set to 1, alternating values, a partial pattern and the
    /// first falsifying full assignment (a zero-mass lane) if any.
    fn hostile_lanes(cnf: &Cnf) -> Vec<Evidence> {
        let n = cnf.num_vars();
        let mut lanes = vec![Evidence::empty(n)];
        if n == 0 {
            return lanes;
        }
        lanes.push(Evidence::from_assignment(&vec![1; n]));
        lanes.push(Evidence::from_assignment(&(0..n).map(|v| v % 2).collect::<Vec<_>>()));
        let mut partial = Evidence::empty(n);
        partial.set(0, 1).set(n - 1, 0);
        lanes.push(partial);
        let falsifying = (0..1u64 << n.min(20)).find_map(|bits| {
            let model: Vec<bool> = (0..n).map(|v| v < 64 && bits >> v & 1 == 1).collect();
            (!cnf.eval(&model)).then(|| model.iter().map(|&b| usize::from(b)).collect::<Vec<_>>())
        });
        lanes.extend(falsifying.map(|a| Evidence::from_assignment(&a)));
        lanes
    }

    /// `compile_golden`'s hostile set: weights at exactly 0 and 1, the
    /// empty formula, n = 0, duplicate and tautological literals, a
    /// 35-literal clause alone and inside a 3-SAT formula — plus a
    /// weight of 1e-160 that keeps every value inside f64's range.
    /// (A weight of 5e-324 never does: it is below 2^-1000 itself; see
    /// [`extended_inputs`].)
    fn hostile_inputs() -> Vec<(Cnf, Vec<f64>)> {
        let skewed = |n: usize| (0..n).map(|v| 0.2 + 0.15 * (v % 5) as f64).collect::<Vec<_>>();
        let wide: Vec<i32> = (1..=35).map(|v| if v % 3 == 0 { -v } else { v }).collect();
        let mut mixed = random_ksat(36, 60, 3, 91);
        mixed.add_dimacs_clause(&wide);
        let mut inputs = vec![
            (Cnf::new(4), skewed(4)),
            (Cnf::new(0), vec![]),
            (Cnf::from_clauses(5, vec![vec![1, 1, 2], vec![-2, -2], vec![3, -3, 4]]), skewed(5)),
            (Cnf::from_clauses(4, vec![vec![1, -1], vec![2, 2], vec![-2, 3, 3, 4]]), skewed(4)),
            (Cnf::from_clauses(36, vec![wide]), skewed(36)),
            (mixed, skewed(36)),
            (Cnf::from_clauses(3, vec![vec![1, 2], vec![-1, 3]]), vec![1e-160, 0.5, 0.3]),
        ];
        for seed in 0..6u64 {
            let n = 10 + seed as usize;
            let probs = (0..n).map(|v| [0.0, 1.0, 0.25, 0.6][(v + seed as usize) % 4]).collect();
            inputs.push((random_ksat(n, 2 * n, 3, 500 + seed), probs));
        }
        inputs
    }

    #[test]
    fn hostile_inputs_stay_within_their_bounds() {
        let mut checked = 0;
        for (k, (cnf, probs)) in hostile_inputs().iter().enumerate() {
            let Some(circuit) = compile_cnf(cnf, &WmcWeights::new(probs.clone())) else {
                continue;
            };
            let arena = Dnnf::from_circuit(&circuit).unwrap();
            assert!(!arena.wide, "input {k} stays in range");
            assert_within_bounds(&circuit, &arena, &hostile_lanes(cnf));
            checked += 1;
        }
        assert!(checked >= 10, "most hostile inputs carry mass ({checked})");
        // UNSAT, an empty clause and one among others compile to
        // nothing: no arena, so nothing to answer.
        let mut empty_clause = Cnf::from_clauses(3, vec![vec![1, 2], vec![-2, 3]]);
        empty_clause.add_clause(reason_sat::Clause::new(vec![]));
        for cnf in [Cnf::from_clauses(2, vec![vec![1], vec![-1]]), empty_clause] {
            assert!(compile_cnf(&cnf, &WmcWeights::uniform(cnf.num_vars())).is_none());
        }
    }

    /// Formulas with a weight of 1e-160 or 5e-324 on every third
    /// variable, as `(tiny, seed, cnf, probs)`; at seed 3 every tiny
    /// variable is forced true, so `Z` itself is below f64's range.
    fn extended_inputs() -> Vec<(f64, u64, Cnf, Vec<f64>)> {
        let mut inputs = Vec::new();
        for tiny in [1e-160, 5e-324] {
            for seed in 0..4u64 {
                let n = 12 + seed as usize;
                let mut cnf = random_ksat(n, 2 * n, 3, 40 + seed);
                if seed == 3 {
                    (0..n).step_by(3).for_each(|v| cnf.add_dimacs_clause(&[v as i32 + 1]));
                }
                let probs: Vec<f64> = (0..n).map(|v| [tiny, 0.5, 0.3][v % 3]).collect();
                inputs.push((tiny, seed, cnf, probs));
            }
        }
        inputs
    }

    #[test]
    fn arenas_out_of_range_walk_extended_values_and_match_log_space_enumeration() {
        // Weights of 1e-160 or 5e-324 on every third variable: no single
        // weight leaves f64's range check, but a lane observing a few of
        // them at 1 does, so a range check that reads only weights (or
        // only `Z`) would let these underflow. f64 brute force
        // underflows too; enumeration in log space does not.
        let mut checked = 0;
        for (tiny, seed, cnf, probs) in extended_inputs() {
            let n = cnf.num_vars();
            let Some(circuit) = compile_cnf(&cnf, &WmcWeights::new(probs.clone())) else {
                continue;
            };
            let arena = Dnnf::from_circuit(&circuit).unwrap();
            assert!(arena.wide, "tiny {tiny:e} seed {seed}: values leave f64's range");
            let lanes = hostile_lanes(&cnf);
            let batch = DnnfBatch::pack(&lanes);
            let mut buf = BatchBuffer::new();
            let logs = arena.log_probability_batch(&batch, &mut buf);
            let var = 1;
            let dists = arena.marginal_batch(&batch, var, &mut buf);
            let mpes = arena.mpe_batch(&batch, &mut buf);
            // Tolerance: enumeration sums n logs of up to 745 per
            // model (~n²·745·u ≈ 2e-11), the arena's one `ln` adds
            // ~|e|·ln 2·u; 1e-9 absolute on a log covers both.
            let close = |a: f64, b: f64| a == b || (a - b).abs() <= 1e-9;
            for (k, ev) in lanes.iter().enumerate() {
                let want = brute_log_probability(&cnf, &probs, ev);
                assert!(close(logs[k], want), "seed {seed} lane {k}: {} vs {want}", logs[k]);
                let mut e = ev.clone();
                let t0 = brute_log_probability(&cnf, &probs, e.clear(var));
                for (b, &p) in dists[k].iter().enumerate() {
                    let tb = brute_log_probability(&cnf, &probs, e.set(var, b));
                    let want = if t0 == f64::NEG_INFINITY { 0.5 } else { (tb - t0).exp() };
                    assert!((p - want).abs() <= 1e-9 * want.max(1e-300), "lane {k}: {p}");
                }
                let MpeResult { assignment, log_prob } = &mpes[k];
                let own = Evidence::from_assignment(assignment);
                let weight = brute_log_probability(&cnf, &probs, &own);
                assert!(close(*log_prob, weight), "lane {k}: {log_prob} vs {weight}");
                let full = (0..n).all(|v| ev.value(v).is_some());
                if full || want == f64::NEG_INFINITY {
                    assert!(close(*log_prob, want), "lane {k}: {log_prob} vs {want}");
                }
            }
            let z = brute_log_probability(&cnf, &probs, &Evidence::empty(n));
            assert!(close(arena.wmc().ln(), z) || (arena.wmc() == 0.0 && z < -745.0));
            // The walks ran on the extended table alone, and the
            // buffer's byte count includes it.
            assert_eq!(buf.vals.capacity(), 0);
            assert!(buf.wide.len() >= arena.slots as usize * batch.distinct_lanes());
            let wide_bytes = buf.wide.capacity() * std::mem::size_of::<Ext>();
            assert!(buf.slab_bytes() >= wide_bytes + 8 * arena.num_nodes());
            checked += 1;
        }
        assert!(checked >= 6, "most instances carry mass ({checked})");
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
            let mut sbuf = BatchBuffer::new();
            let mut bbuf = BatchBuffer::new();
            let got = arena.log_probability_batch(&batch, &mut bbuf);
            let probs = arena.wmc_batch(&batch, &mut bbuf);
            assert_eq!(got.len(), lanes.len());
            // A batch of one lane answers what its lane of the wide
            // batch answered, in both spaces; the reference bounds it.
            for (lane, ev) in lanes.iter().enumerate() {
                let one = DnnfBatch::pack(std::slice::from_ref(ev));
                let single = arena.log_probability_batch(&one, &mut sbuf)[0];
                assert_eq!(single.to_bits(), got[lane].to_bits(), "seed {seed} lane {lane}");
                let p = arena.probability(ev, &mut sbuf);
                assert_eq!(probs[lane].to_bits(), p.to_bits(), "seed {seed} lane {lane}");
                reference::check_probability(&circuit, ev, p).unwrap();
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
        let mut bbuf = BatchBuffer::new();
        let mut sbuf = BatchBuffer::new();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for var in [0, 4, 8] {
            let dists = arena.marginal_batch(&batch, var, &mut bbuf);
            for (lane, ev) in lanes.iter().enumerate() {
                let one = DnnfBatch::pack(std::slice::from_ref(ev));
                let single = &arena.marginal_batch(&one, var, &mut sbuf)[0];
                assert_eq!(bits(&dists[lane]), bits(single), "var {var} lane {lane}");
                reference::check_marginal(&circuit, ev, var, single).unwrap();
            }
        }
        let results = arena.mpe_batch(&batch, &mut bbuf);
        for (lane, ev) in lanes.iter().enumerate() {
            let one = DnnfBatch::pack(std::slice::from_ref(ev));
            let single = &arena.mpe_batch(&one, &mut sbuf)[0];
            assert_eq!(results[lane].assignment, single.assignment, "lane {lane}");
            assert_eq!(results[lane].log_prob.to_bits(), single.log_prob.to_bits(), "lane {lane}");
            reference::check_mpe(&circuit, ev, &single.assignment, single.log_prob).unwrap();
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
        let logp = arena.log_probability_batch(&wide, &mut buf);
        let marg = arena.marginal_batch(&wide, 4, &mut buf);
        let mpe = arena.mpe_batch(&wide, &mut buf);
        for k in [0, TILE - 1, TILE, TILE + 8] {
            let one = DnnfBatch::pack(std::slice::from_ref(&lanes[k]));
            let single = arena.log_probability_batch(&one, &mut buf)[0];
            assert_eq!(single.to_bits(), logp[k].to_bits(), "lane {k}");
            assert_eq!(arena.marginal_batch(&one, 4, &mut buf)[0], marg[k], "lane {k}");
            assert_eq!(arena.mpe_batch(&one, &mut buf)[0], mpe[k], "lane {k}");
        }
        assert_within_bounds(&circuit, &arena, &lanes);
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

    /// Replays a walk's slot traffic: no node reads a child's slot
    /// after another node took it, no node shares a slot with a child,
    /// and the root's value survives to the end.
    fn assert_slots_hold_until_the_last_reader(arena: &Dnnf) {
        let kids = |node: &Node| match *node {
            Node::And { start, len, .. } | Node::Or { start, len, .. } => {
                &arena.edges[start as usize..(start + len) as usize]
            }
            Node::Indicator { .. } | Node::Leaf { .. } => &[],
        };
        let slot = |i: u32| arena.slot[i as usize] as usize;
        let mut holder: Vec<Option<u32>> = vec![None; arena.slots as usize];
        for (i, node) in (0..).zip(&arena.nodes) {
            for &c in kids(node) {
                assert_ne!(slot(i), slot(c), "node {i} shares its slot with child {c}");
                assert_eq!(
                    holder[slot(c)],
                    Some(c),
                    "node {i} reads child {c} after its slot moved"
                );
            }
            holder[slot(i)] = Some(i);
        }
        assert_eq!(holder[slot(arena.root)], Some(arena.root), "the root's slot was reused");
        assert_eq!(arena.slot.iter().max().map(|&s| s + 1), Some(arena.slots));
    }

    #[test]
    fn slots_hold_every_value_until_its_last_reader() {
        let mut arenas: Vec<Dnnf> = reference_workload()
            .iter()
            .map(|(circuit, _)| Dnnf::from_circuit(circuit).unwrap())
            .collect();
        for num_components in [3, 4, 5] {
            let config = StructureConfig { num_vars: 10, depth: 3, num_components, seed: 11 };
            arenas.push(Dnnf::from_circuit(&random_mixture_circuit(&config)).unwrap());
        }
        // A root that is not the last node, a sum that repeats a child,
        // a node read only after the root and a node nothing reads.
        let mut b = CircuitBuilder::new(vec![2, 2]);
        let (a0, a1) = (b.indicator(0, 0), b.indicator(0, 1));
        let (b0, b1) = (b.indicator(1, 0), b.indicator(1, 1));
        let sa = b.sum(&[a0, a1, a0], &[0.3, 0.5, 0.2]);
        let sb = b.sum(&[b0, b1], &[0.4, 0.6]);
        let root = b.product(&[sa, sb]);
        b.product(&[sa]);
        b.sum(&[b1, b1], &[0.5, 0.5]);
        let circuit = b.build(root).unwrap();
        let arena = Dnnf::from_circuit(&circuit).unwrap();
        assert!((arena.root as usize) < arena.num_nodes() - 1);
        assert_within_bounds(&circuit, &arena, &lanes(2));
        arenas.push(arena);
        for (k, arena) in arenas.iter().enumerate() {
            assert_slots_hold_until_the_last_reader(arena);
            assert!(arena.slots as usize <= arena.num_nodes(), "arena {k}");
        }
        let (slots, nodes) =
            arenas.iter().fold((0, 0), |(s, n), a| (s + a.slots, n + a.nodes.len()));
        println!("{} arenas: {slots} slots for {nodes} nodes", arenas.len());
    }

    /// The instruction-set variants this CPU runs, baseline first.
    fn supported() -> Vec<Isa> {
        #[allow(unused_mut)]
        let mut isas = vec![Isa::Baseline];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                isas.push(Isa::Avx2);
            }
        }
        isas
    }

    #[test]
    fn every_instruction_set_variant_gives_the_baseline_bits() {
        let mut cases: Vec<(Circuit, Vec<Evidence>)> = reference_workload();
        let inputs = hostile_inputs()
            .into_iter()
            .chain(extended_inputs().into_iter().map(|(_, _, cnf, probs)| (cnf, probs)));
        for (cnf, probs) in inputs {
            if let Some(circuit) = compile_cnf(&cnf, &WmcWeights::new(probs)) {
                cases.push((circuit, hostile_lanes(&cnf)));
            }
        }
        let isas = supported();
        let wide = cases.iter().filter(|(c, _)| Dnnf::from_circuit(c).unwrap().wide).count();
        println!("variants {isas:?} on {} arenas ({wide} extended)", cases.len());
        assert!(wide > 0);
        let bits = |roots: &[Ext]| roots.iter().map(|r| (r.m.to_bits(), r.e)).collect::<Vec<_>>();
        let mpe_bits = |mpes: &[MpeResult]| {
            mpes.iter().map(|m| (m.assignment.clone(), m.log_prob.to_bits())).collect::<Vec<_>>()
        };
        for (k, (circuit, lanes)) in cases.iter().enumerate() {
            let arena = Dnnf::from_circuit(circuit).unwrap();
            let batch = DnnfBatch::pack(lanes);
            // Triplets span several tiles.
            let triplets = batch.triplets(circuit.num_vars() / 2);
            let run = |isa: Isa| {
                let mut buf = BatchBuffer::new();
                let mut walk = |sum, max| arena.walk_tiles_on(sum, max, &mut buf, isa, None);
                let roots = bits(&walk(Some(&batch), None).0);
                let wide = (circuit.num_vars() > 0).then(|| bits(&walk(Some(&triplets), None).0));
                (roots, wide, mpe_bits(&walk(None, Some(&batch)).1))
            };
            let baseline = run(Isa::Baseline);
            for &isa in &isas[1..] {
                assert!(run(isa) == baseline, "case {k}: {isa:?} differs from the baseline");
            }
        }
    }

    /// Walks `sum` and `max` as one tile list through the process's
    /// tile pool until a call fans out (the pool may be held by a test
    /// on another thread), and returns the answers' bits, the walk
    /// counts and whether a call fanned out.
    fn fanned_bits(arena: &Dnnf, sum: &DnnfBatch, max: &DnnfBatch) -> (TileBits, bool) {
        let pool = Some(Pool::global());
        for _ in 0..1_000 {
            let mut buf = BatchBuffer::new();
            let (roots, mpes, fanned) =
                arena.walk_tiles_on(Some(sum), Some(max), &mut buf, Isa::detect(), pool);
            if fanned || std::thread::available_parallelism().map_or(1, |n| n.get()) == 1 {
                return (tile_bits(&roots, &mpes, &buf), fanned);
            }
            std::thread::yield_now();
        }
        panic!("the tile pool stayed held by other callers");
    }

    /// The bits of a walk's roots and MPEs, its walks and its computed
    /// node·lanes.
    type TileBits = (Vec<(u64, i32)>, Vec<(Vec<usize>, u64)>, u64, u64);

    fn tile_bits(roots: &[Ext], mpes: &[MpeResult], buf: &BatchBuffer) -> TileBits {
        (
            roots.iter().map(|r| (r.m.to_bits(), r.e)).collect(),
            mpes.iter().map(|m| (m.assignment.clone(), m.log_prob.to_bits())).collect(),
            buf.walks(),
            buf.lanes_computed(),
        )
    }

    #[test]
    fn a_fanned_out_batch_has_the_bits_of_one_walked_a_tile_at_a_time() {
        // Extended-exponent arenas and f64 ones, each with a sum slab
        // and an MPE slab of several tiles.
        let mut arenas: Vec<(Dnnf, usize)> = Vec::new();
        for (_, _, cnf, probs) in extended_inputs() {
            if let Some(circuit) = compile_cnf(&cnf, &WmcWeights::new(probs)) {
                arenas.push((Dnnf::from_circuit(&circuit).unwrap(), cnf.num_vars()));
            }
        }
        let extended = arenas.len();
        assert!(extended >= 6 && arenas.iter().all(|(a, _)| a.wide));
        arenas.extend(
            [(3, 9, 22), (5, 12, 30)]
                .iter()
                .filter_map(|&(seed, n, m)| compiled(seed, n, m).map(|(_, arena)| (arena, n))),
        );
        let mut fanned_out = 0;
        for (k, (arena, n)) in arenas.iter().enumerate() {
            let lanes = distinct_lanes(*n, 2 * TILE + 20);
            let sum = DnnfBatch::pack(&lanes).triplets(n / 2);
            let max = DnnfBatch::pack(&lanes[..TILE + 7]);
            let mut buf = BatchBuffer::new();
            let (roots, mpes, fanned) =
                arena.walk_tiles_on(Some(&sum), Some(&max), &mut buf, Isa::detect(), None);
            assert!(!fanned, "no pool, no fan-out");
            let inline = tile_bits(&roots, &mpes, &buf);
            let (spread, fanned) = fanned_bits(arena, &sum, &max);
            assert!(
                spread == inline,
                "arena {k} (extended: {}): the fan-out moved a bit",
                k < extended
            );
            fanned_out += usize::from(fanned);
        }
        println!("{fanned_out} of {} arenas fanned out", arenas.len());
    }

    #[test]
    fn two_threads_batching_on_one_arena_at_once_get_the_sequential_bits() {
        let (_, arena) = compiled(5, 24, 60).expect("seed 5 is satisfiable");
        let lanes = distinct_lanes(24, 3 * TILE);
        assert!(
            arena.num_nodes() * lanes.len() >= FAN_OUT_NODE_LANES,
            "{} nodes",
            arena.num_nodes()
        );
        let refs: Vec<&Evidence> = lanes.iter().collect();
        let marginals: Vec<(&Evidence, usize)> = refs.iter().map(|&ev| (ev, 3)).collect();
        let ask = |buf: &mut BatchBuffer| {
            let (ps, dists, mpes) = arena.query_batch(&refs, &marginals, &refs[..TILE + 1], buf);
            let dists: Vec<f64> = dists.concat();
            let ps: Vec<u64> = ps.iter().chain(&dists).map(|x| x.to_bits()).collect();
            let mpes: Vec<(Vec<usize>, u64)> =
                mpes.into_iter().map(|m| (m.assignment, m.log_prob.to_bits())).collect();
            (ps, mpes, buf.walks(), buf.lanes_computed())
        };
        // The call made alone; then two at once, many times: one of
        // the two holds the pool, the other walks its tiles inline.
        let alone = ask(&mut BatchBuffer::new());
        let start = std::sync::Barrier::new(2);
        for round in 0..20 {
            let both = std::thread::scope(|scope| {
                let racers: Vec<_> = (0..2)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut buf = BatchBuffer::new();
                            start.wait();
                            ask(&mut buf)
                        })
                    })
                    .collect();
                racers.into_iter().map(|r| r.join().expect("no racer panics")).collect::<Vec<_>>()
            });
            for got in both {
                assert!(got == alone, "round {round}: a racing call moved a bit");
            }
        }
    }
}
