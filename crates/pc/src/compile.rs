//! Knowledge compilation: CNF formulas → deterministic circuits.
//!
//! This is how R²-Guard-style systems (paper Table I) turn logical safety
//! rules into probabilistic circuits: a propositional formula over binary
//! variables is compiled into a smooth, decomposable, *deterministic*
//! circuit whose weighted model count equals the probability that the
//! formula holds under independent variable marginals.
//!
//! [`compile_cnf`] is a sharpSAT/c2d-style **top-down component-caching
//! compiler** built on `reason_sat`'s shared clause pool
//! ([`reason_sat::ClausePool`]) and trail propagator
//! ([`reason_sat::Propagator`]). Each search node runs four steps:
//!
//! 1. **propagate** — unit propagation fixes every implied literal, so
//!    implications become cheap weighted factors instead of trivial
//!    decision sums; the factors are read off the trail in place;
//! 2. **decompose** — the residual clause set splits into connected
//!    components (clauses sharing no variable), compiled independently
//!    and joined by a decomposable product. This is where a residual
//!    clause's literals are scanned, once:
//!    [`Propagator::residual_mask`] says whether the clause is satisfied
//!    and, if not, which literal positions are unassigned, and the flood
//!    fill and steps 3–4 iterate that mask. A component is two ranges —
//!    clause ids and variables — on stacks the whole search shares,
//!    flood-filled straight onto the stack tops and truncated when the
//!    search node returns; no search node owns a `Vec`;
//! 3. **decide** — a branching variable is chosen *dynamically* per
//!    component: the one with the most residual occurrences (ties to the
//!    lowest index), which maximizes how much each decision satisfies
//!    or shrinks;
//! 4. **cache** — components are memoized under hashed fingerprints
//!    whose words are `(clause id << 32) | surviving-literal mask` over
//!    the shared pool, so a cache probe is linear in the component and
//!    never sorts or clones the residual clauses. A fingerprint is built
//!    in a scratch buffer and probed by slice; only a miss allocates the
//!    key, once, shared by the in-compile and the cross-query cache.
//!
//! A formula with a clause wider than 32 literals cannot use masks; it
//! keeps a literal-scanning path for steps 2–4 (and tagged literal codes
//! in its fingerprints), chosen once per compile from the formula.
//!
//! What a search node allocates is therefore one key per cache miss:
//! the nodes it emits append to the builder's flat tables, and a node
//! owns no allocation. The finished tables are handed on, not copied:
//! [`Circuit`] holds them behind an `Arc`, and when the search left no
//! dead node the returned circuit *is* the tables an attached
//! [`PersistentComponentCache`] adopts.
//!
//! The PR-3-era static-order Shannon expansion survives as
//! [`compile_cnf_shannon`]: it is the baseline the `reason-eval compile`
//! sweep measures speedups against, and the regression guard that pins
//! the new compiler's circuit sizes from above.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use reason_sat::{ClausePool, Cnf, Lit, Propagator, Var};
use reason_telemetry::Telemetry;

use crate::circuit::{Circuit, CircuitBuilder, NodeId, PcNode, Tables};
use crate::infer::Evidence;

/// Per-variable Bernoulli marginals used as weights for weighted model
/// counting.
#[derive(Debug, Clone, PartialEq)]
pub struct WmcWeights {
    probs: Vec<f64>,
}

impl WmcWeights {
    /// Weights with `probs[v] = p(X_v = 1)`.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    pub fn new(probs: Vec<f64>) -> Self {
        assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)), "probabilities must be in [0,1]");
        WmcWeights { probs }
    }

    /// Uniform weights (`p = 0.5` everywhere): the weighted model count
    /// equals `#models / 2^n`.
    pub fn uniform(num_vars: usize) -> Self {
        WmcWeights { probs: vec![0.5; num_vars] }
    }

    /// `p(X_v = 1)`.
    pub fn prob(&self, var: usize) -> f64 {
        self.probs[var]
    }

    /// The probability that `lit` is true.
    fn lit_prob(&self, lit: Lit) -> f64 {
        let p = self.probs[lit.var().index()];
        if lit.is_neg() {
            1.0 - p
        } else {
            p
        }
    }

    /// Number of variables covered.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// `true` when there are no variables.
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }
}

/// What one [`compile_cnf_with`] call runs with; `default()` is what
/// [`compile_cnf`] uses.
#[derive(Debug, Default)]
pub struct CompileOptions<'a> {
    /// A caller-held cross-query cache: components whose fingerprints
    /// survive from earlier compilations of *related* formulas (same
    /// clause-pool ids, same weights) are spliced from the cached node
    /// tables instead of recompiled — how a serving knowledge base
    /// recompiles only the components an added clause touches. The cache
    /// binds to the first weight vector it compiles under.
    pub cache: Option<&'a mut PersistentComponentCache>,
    /// An observability sink: the propagate / component-split /
    /// cache-probe phases emit child spans under a `pc.compile` root and
    /// the [`CompileStats`] counters land in the registry
    /// (`pc_propagations_total`, `pc_cache_probes_total{result}`, ...),
    /// with an attached cache's footprint as `pc_persistent_cache_bytes`.
    /// Phase timing only *reads* the injected clock, so the compiled
    /// circuit never depends on it.
    pub telemetry: Option<&'a Telemetry>,
}

/// Counters reported by [`compile_cnf_with`]: what the
/// propagate → decompose → decide → cache pipeline actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Decision (branching) nodes explored.
    pub decisions: u64,
    /// Literals fixed by unit propagation (never became decisions).
    pub propagations: u64,
    /// Connected components created by decomposition.
    pub components: u64,
    /// Component-cache hits.
    pub cache_hits: u64,
    /// Component-cache misses (compiled components).
    pub cache_misses: u64,
    /// Components answered by a cross-query [`PersistentComponentCache`]
    /// (always 0 without [`CompileOptions::cache`]).
    pub persistent_hits: u64,
    /// Components stored into the cross-query cache.
    pub persistent_stores: u64,
    /// Nodes the search built, dead branches included — what an attached
    /// cross-query cache retains of this compilation.
    pub built_nodes: usize,
    /// Nodes in the final (compacted) circuit; 0 for UNSAT inputs.
    pub nodes: usize,
    /// Edges in the final (compacted) circuit; 0 for UNSAT inputs.
    pub edges: usize,
}

impl CompileStats {
    /// Cache hits as a fraction of all component probes.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Compiles `cnf` into a deterministic circuit over all `cnf.num_vars()`
/// binary variables, weighted by `weights`, using the top-down
/// component-caching compiler (see the [module docs](self)).
///
/// The root's fully-marginalized probability equals the weighted model
/// count `Pr[φ]`; conditioning works as in any PC. The circuit is smooth,
/// decomposable, and deterministic, so MPE queries are exact.
///
/// Returns `None` if the formula is unsatisfiable (the zero circuit is not
/// representable as a normalized PC).
///
/// # Panics
///
/// Panics if `weights.len() != cnf.num_vars()`.
///
/// ```
/// use reason_sat::Cnf;
/// use reason_pc::{compile_cnf, WmcWeights, Evidence};
///
/// // x0 | x1 under uniform weights: 3 of 4 assignments satisfy.
/// let cnf = Cnf::from_clauses(2, vec![vec![1, 2]]);
/// let circuit = compile_cnf(&cnf, &WmcWeights::uniform(2)).unwrap();
/// let pr = circuit.probability(&Evidence::empty(2));
/// assert!((pr - 0.75).abs() < 1e-12);
/// ```
pub fn compile_cnf(cnf: &Cnf, weights: &WmcWeights) -> Option<Circuit> {
    compile_cnf_with(cnf, weights, CompileOptions::default()).0
}

/// [`compile_cnf`] under explicit [`CompileOptions`], also reporting
/// [`CompileStats`].
///
/// # Panics
///
/// Panics on a weight arity mismatch and if `options.cache` was
/// previously used with different weights.
pub fn compile_cnf_with(
    cnf: &Cnf,
    weights: &WmcWeights,
    options: CompileOptions<'_>,
) -> (Option<Circuit>, CompileStats) {
    let CompileOptions { cache: mut persistent, telemetry } = options;
    assert_eq!(weights.len(), cnf.num_vars(), "weights arity mismatch");
    if let Some(cache) = persistent.as_deref_mut() {
        cache.bind_weights(weights);
    }
    let num_vars = cnf.num_vars();
    let pool = ClausePool::new(cnf);
    let num_clauses = pool.num_clauses();
    let narrow = (0..num_clauses as u32).all(|c| pool.clause(c).len() <= 32);
    let persist_depth = persistent.as_ref().map_or(0, |p| p.persist_depth);
    let mut compiler = TopDown {
        pool,
        prop: Propagator::new(num_vars),
        builder: CircuitBuilder::new(vec![2; num_vars]),
        weights,
        cache: HashMap::new(),
        persistent,
        persist_depth,
        persisted: Vec::new(),
        spliced: HashMap::new(),
        depth: 0,
        indicator_memo: vec![[None; 2]; num_vars],
        free_memo: vec![None; num_vars],
        implied_memo: vec![[None; 2]; num_vars],
        clause_stack: (0..num_clauses as u32).collect(),
        var_stack: (0..num_vars).map(Var::new).collect(),
        spans: Vec::new(),
        factors: Vec::new(),
        narrow,
        masks: vec![0; num_clauses],
        key: Vec::new(),
        clause_active: vec![0; num_clauses],
        clause_taken: vec![0; num_clauses],
        var_stamp: vec![0; num_vars],
        occ_scratch: vec![0; num_vars],
        stamp: 0,
        stats: CompileStats::default(),
        telemetry,
        phase_prop_s: 0.0,
        phase_split_s: 0.0,
        phase_probe_s: 0.0,
    };
    let t_begin = telemetry.map(|t| t.now_s());
    let root = compiler.compile_top();
    let phases = (compiler.phase_prop_s, compiler.phase_split_s, compiler.phase_probe_s);
    let TopDown { builder, persistent, persisted, mut stats, .. } = compiler;
    let (arities, mut nodes) = builder.into_parts();
    stats.built_nodes = nodes.len();
    // The search's own tables, dead branches and all, become the one
    // set the circuit and every component persisted by this
    // compilation point into; held for as long as either is.
    nodes.shrink_to_fit();
    let nodes = Arc::new(nodes);
    // Branches killed by a sibling conflict leave unreachable nodes
    // behind; only then is the circuit a compacted copy.
    let circuit = root.map(|root| Circuit::live(arities, &nodes, root));
    if let Some(circuit) = &circuit {
        debug_assert!(circuit.validate().is_ok(), "compiler emits valid circuits");
        stats.nodes = circuit.num_nodes();
        stats.edges = circuit.num_edges();
    }
    if let Some(cache) = persistent {
        cache.adopt(nodes, persisted);
        if let Some(tel) = telemetry {
            tel.registry.gauge("pc_persistent_cache_bytes", &[]).set(cache.bytes() as f64);
        }
    }
    if let (Some(tel), Some(t0)) = (telemetry, t_begin) {
        record_compile_telemetry(tel, t0, &stats, circuit.is_some(), phases);
    }
    (circuit, stats)
}

/// Pushes one compilation into an attached [`Telemetry`]: a
/// `pc.compile` root span with sequential `pc.propagate` /
/// `pc.component_split` / `pc.cache_probe` children (phase time laid
/// out cumulatively from the compile's start), per-phase time
/// histograms (seconds), and the [`CompileStats`] event counters.
fn record_compile_telemetry(
    tel: &Telemetry,
    t0: f64,
    stats: &CompileStats,
    sat: bool,
    (prop_s, split_s, probe_s): (f64, f64, f64),
) {
    let t1 = tel.now_s().max(t0);
    let result = if sat { "sat" } else { "unsat" };
    let reg = &tel.registry;
    reg.counter("pc_compile_total", &[("result", result)]).inc();
    reg.counter("pc_propagations_total", &[]).add(stats.propagations);
    reg.counter("pc_decisions_total", &[]).add(stats.decisions);
    reg.counter("pc_components_total", &[]).add(stats.components);
    reg.counter("pc_cache_probes_total", &[("result", "hit")]).add(stats.cache_hits);
    reg.counter("pc_cache_probes_total", &[("result", "miss")]).add(stats.cache_misses);
    reg.counter("pc_persistent_probes_total", &[("result", "hit")]).add(stats.persistent_hits);
    reg.counter("pc_persistent_probes_total", &[("result", "store")]).add(stats.persistent_stores);
    reg.histogram("pc_compile_phase_seconds", &[("phase", "propagate")]).record(prop_s);
    reg.histogram("pc_compile_phase_seconds", &[("phase", "component_split")]).record(split_s);
    reg.histogram("pc_compile_phase_seconds", &[("phase", "cache_probe")]).record(probe_s);
    let root = tel.tracer.record_span(0, "pc.compile", &[("result", result)], t0, t1);
    let mut cursor = t0;
    for (name, d) in
        [("pc.propagate", prop_s), ("pc.component_split", split_s), ("pc.cache_probe", probe_s)]
    {
        let end = (cursor + d).min(t1);
        tel.tracer.record_span_under(0, name, &[], cursor, end, root);
        cursor = end;
    }
}

/// A residual sub-formula as two ranges on [`TopDown`]'s stacks:
/// `clause_stack[clause_lo..clause_hi]` are pool ids and
/// `var_stack[var_lo..var_hi]` variables. For a connected component the
/// clauses are exactly its currently-unsatisfied ones and the variables
/// exactly the unassigned ones they mention (both ranges sorted), so
/// the compiled node's scope is exactly that variable range.
#[derive(Clone, Copy)]
struct Span {
    clause_lo: usize,
    clause_hi: usize,
    var_lo: usize,
    var_hi: usize,
}

/// Marker bit distinguishing wide-clause fingerprint entries from the
/// packed `(clause id << 32) | literal mask` form.
const WIDE_ENTRY: u64 = 1 << 63;

/// Secondary marker inside wide entries: set on literal codes,
/// clear on the leading clause-id entry.
const WIDE_LIT: u64 = 1 << 62;

/// A component fingerprint in owned form: allocated once, on a cache
/// miss, and shared between the in-compile and the cross-query cache.
type Key = Arc<[u64]>;

/// One compilation's node tables, shared by every component that
/// compilation persisted; also the tables of the compilation's own
/// [`Circuit`] when its search left no dead node.
type SharedNodes = Arc<Tables>;

/// What one cache entry holds: the tables its component's root lives in
/// and that root, or `None` for a component cached as UNSAT.
type Entry = Option<(SharedNodes, NodeId)>;

/// Counters of a [`PersistentComponentCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistentCacheStats {
    /// Probes answered from the cache.
    pub hits: u64,
    /// Probes that missed (the component was then compiled and stored).
    pub misses: u64,
    /// Components stored.
    pub stores: u64,
    /// Entries dropped by clause invalidation.
    pub invalidated: u64,
}

/// A component cache that survives *across* compilations — the PR-4
/// in-compile cache lifted to the serving layer.
///
/// Keys are the same `(clause id, surviving-literal mask)` fingerprints
/// the in-compile cache uses, so they are only meaningful while clause
/// ids stay stable: the owning knowledge base appends new clauses at
/// fresh ids (old fingerprints stay valid) and calls
/// [`invalidate_clauses_from`](Self::invalidate_clauses_from) when a
/// retraction shifts ids.
///
/// Every compiled node is stored once. A compilation shares its whole
/// node tables with the cache when it finishes — the same tables its
/// own [`Circuit`] reads, unless the search left dead nodes and the
/// circuit had to be a compacted copy — and each component it persisted
/// is a root id into those tables (or a cached UNSAT verdict); a later
/// hit walks from the root and splices what it reaches into the new
/// compilation's builder, log-weights preserved bit-for-bit. The cache
/// holds a compilation's tables exactly as long as some entry points
/// into them, so it holds at most the nodes of the compilations it
/// still references, at about 32 bytes per node.
///
/// Only components discovered within `persist_depth` decisions of the
/// root are persisted. That costs a key and a map insert, never a copy:
/// depth bounds the number of keys, which deep, tiny components would
/// multiply without ever being hit.
///
/// The cache binds to the weight vector of its first compilation;
/// reusing it under different weights would splice stale leaf
/// probabilities, so [`compile_cnf_with`] panics on a mismatch.
#[derive(Debug, Clone)]
pub struct PersistentComponentCache {
    entries: HashMap<Key, Entry>,
    persist_depth: u32,
    weights_sig: Option<Vec<u64>>,
    stats: PersistentCacheStats,
}

impl Default for PersistentComponentCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PersistentComponentCache {
    /// Persistence depth: components within 12 decisions of the root.
    /// Measured on random 3-SAT (n = 12–20, m/n = 3), hits after a
    /// one-clause edit saturate by depth ~8–12; deeper settings add
    /// keys and buy no hits.
    const DEFAULT_DEPTH: u32 = 12;

    /// An empty cache.
    pub fn new() -> Self {
        PersistentComponentCache {
            entries: HashMap::new(),
            persist_depth: Self::DEFAULT_DEPTH,
            weights_sig: None,
            stats: PersistentCacheStats::default(),
        }
    }

    /// An empty cache with another depth limit, for the unit test of
    /// the limit itself.
    #[cfg(test)]
    fn with_depth(persist_depth: u32) -> Self {
        PersistentComponentCache { persist_depth, ..Self::new() }
    }

    /// Number of cached components.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Probe/store/invalidation counters.
    #[cfg(test)]
    fn stats(&self) -> PersistentCacheStats {
        self.stats
    }

    /// The distinct node tables some entry still points into.
    fn arrays(&self) -> impl Iterator<Item = &SharedNodes> {
        let mut seen = HashSet::new();
        self.entries
            .values()
            .filter_map(|entry| entry.as_ref().map(|(array, _)| array))
            .filter(move |array| seen.insert(Arc::as_ptr(array)))
    }

    /// Nodes held across all shared tables, each compilation's counted
    /// once.
    pub fn retained_nodes(&self) -> usize {
        self.arrays().map(|array| array.len()).sum()
    }

    /// Heap footprint in bytes, read off the capacities the cache holds:
    /// every key's allocation and map slot, plus every shared set of
    /// node tables once. The map's spare slots are not counted.
    pub fn bytes(&self) -> usize {
        let slot = std::mem::size_of::<(Key, Entry)>();
        let keys: usize = self.entries.keys().map(|k| key_bytes(k) + slot).sum();
        keys + self.arrays().map(|array| array.shared_bytes()).sum::<usize>()
    }

    /// Drops everything, including the weight binding — with no
    /// components left there is nothing to go stale, so the cache may be
    /// rebound to new weights (counters survive).
    #[cfg(test)]
    fn clear(&mut self) {
        self.entries.clear();
        self.weights_sig = None;
    }

    /// Drops every entry whose fingerprint mentions a clause id `>=
    /// first_id`, returning how many were removed. A knowledge base
    /// calls this when retracting clause `first_id`: that id and every
    /// later one shift, so their fingerprints no longer describe the
    /// same clauses. Appending clauses needs no invalidation.
    pub fn invalidate_clauses_from(&mut self, first_id: u32) -> usize {
        let before = self.entries.len();
        self.entries.retain(|key, _| !key_mentions_clause_from(key, first_id));
        let removed = before - self.entries.len();
        self.stats.invalidated += removed as u64;
        removed
    }

    /// Binds the cache to a weight vector (first use) or asserts the
    /// weights match (every later use).
    fn bind_weights(&mut self, weights: &WmcWeights) {
        let sig: Vec<u64> = (0..weights.len()).map(|v| weights.prob(v).to_bits()).collect();
        match &self.weights_sig {
            None => self.weights_sig = Some(sig),
            Some(bound) => {
                assert_eq!(*bound, sig, "PersistentComponentCache reused under different weights")
            }
        }
    }

    /// `Some(entry)` on a hit; the entry shares its tables, it copies
    /// no node.
    fn probe(&mut self, key: &[u64]) -> Option<Entry> {
        let hit = self.entries.get(key).cloned();
        match hit {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        hit
    }

    /// Takes a share of a finished compilation's node tables and points
    /// every component it persisted (`None` = UNSAT verdict) into them.
    fn adopt(&mut self, nodes: SharedNodes, persisted: Vec<(Key, Option<NodeId>)>) {
        self.stats.stores += persisted.len() as u64;
        for (key, root) in persisted {
            self.entries.insert(key, root.map(|root| (Arc::clone(&nodes), root)));
        }
    }
}

/// The allocation behind a [`Key`]: the `Arc`'s two counters and the
/// words.
fn key_bytes(key: &Key) -> usize {
    2 * std::mem::size_of::<usize>() + 8 * key.len()
}

/// `true` when a fingerprint references any clause id `>= first`.
fn key_mentions_clause_from(key: &[u64], first: u32) -> bool {
    key.iter().any(|&e| {
        if e & WIDE_ENTRY != 0 {
            e & WIDE_LIT == 0 && (e & !WIDE_ENTRY) >= u64::from(first)
        } else {
            (e >> 32) >= u64::from(first)
        }
    })
}

/// The unassigned literals of residual clause `c`: the set bits of the
/// mask its decomposition recorded, or — in a formula too wide for
/// masks — a scan against the assignment.
fn residual_lits<'a>(
    pool: &'a ClausePool,
    prop: &'a Propagator,
    narrow: bool,
    masks: &[u32],
    c: u32,
) -> impl Iterator<Item = Lit> + 'a {
    let mask = masks[c as usize];
    pool.clause(c).iter().enumerate().filter_map(move |(i, &l)| {
        let residual = if narrow { mask >> i & 1 == 1 } else { !prop.is_assigned(l.var()) };
        residual.then_some(l)
    })
}

struct TopDown<'a> {
    pool: ClausePool,
    prop: Propagator,
    builder: CircuitBuilder,
    weights: &'a WmcWeights,
    /// Component cache: fingerprint of the residual clause set → the
    /// compiled node (`None` caches UNSAT components too). A key is
    /// allocated once, on a miss, and shared with `persisted`.
    cache: HashMap<Key, Option<NodeId>>,
    /// Cross-query component cache (see [`PersistentComponentCache`]),
    /// probed on in-compile misses up to `persist_depth` decisions from
    /// the root; the components compiled there are noted in `persisted`
    /// and handed over with the node array when the search ends.
    persistent: Option<&'a mut PersistentComponentCache>,
    persist_depth: u32,
    persisted: Vec<(Key, Option<NodeId>)>,
    /// Per cached set of tables (by address; the cache keeps it alive),
    /// the builder id each of its nodes was spliced to, so hits whose
    /// subgraphs overlap share nodes.
    spliced: HashMap<*const Tables, Vec<Option<NodeId>>>,
    /// Decisions on the current search path.
    depth: u32,
    /// Hash-consed leaves: indicator `[x_v = b]`, free Bernoulli leaf,
    /// and the weighted implied-literal factor `w · [x_v = b]`.
    indicator_memo: Vec<[Option<NodeId>; 2]>,
    free_memo: Vec<Option<NodeId>>,
    implied_memo: Vec<[Option<NodeId>; 2]>,
    /// The search's working set, as stacks that grow with the recursion
    /// and are truncated on the way out — no search node owns a `Vec`.
    /// `clause_stack` and `var_stack` start as the whole formula; each
    /// decomposition appends its components' clause ids and variables
    /// (the variable stack's tail doubles as the flood fill's queue) and
    /// one [`Span`] per component to `spans`.
    clause_stack: Vec<u32>,
    var_stack: Vec<Var>,
    spans: Vec<Span>,
    /// Factors of the products under construction; a finished product
    /// takes its children as the tail of this stack.
    factors: Vec<NodeId>,
    /// No clause is wider than 32 literals, so residual clauses are read
    /// through `masks` (an input property, fixed for the compile).
    narrow: bool,
    /// Per clause, the bitmask of its unassigned literal positions as of
    /// the decomposition that last found it unsatisfied. The assignment
    /// does not change between that decomposition and the fingerprint /
    /// branching choice of each component it found (sibling branches
    /// undo to their mark and touch only their own clauses), so flood
    /// fill, fingerprint and occurrence count all read the one scan.
    masks: Vec<u32>,
    /// Scratch for the fingerprint being probed.
    key: Vec<u64>,
    /// Stamped scratch marks for component decomposition (no clearing
    /// between calls; a fresh stamp invalidates old marks).
    clause_active: Vec<u64>,
    clause_taken: Vec<u64>,
    var_stamp: Vec<u64>,
    occ_scratch: Vec<u32>,
    stamp: u64,
    stats: CompileStats,
    /// Optional observability sink; when attached the three compile
    /// phases accumulate clock time below.
    telemetry: Option<&'a Telemetry>,
    phase_prop_s: f64,
    phase_split_s: f64,
    phase_probe_s: f64,
}

impl TopDown<'_> {
    /// Clock read at a phase boundary; `None` when no telemetry is
    /// attached (the phase accumulators then stay untouched — zero
    /// overhead on unobserved compiles).
    fn phase_start(&self) -> Option<f64> {
        self.telemetry.map(|t| t.now_s())
    }

    /// Seconds since `t0`, or 0 when unobserved.
    fn phase_elapsed(&self, t0: Option<f64>) -> f64 {
        match (t0, self.telemetry) {
            (Some(t0), Some(tel)) => (tel.now_s() - t0).max(0.0),
            _ => 0.0,
        }
    }

    /// Top-level: propagate the full formula, then compile the residual
    /// as free leaves + independent components. Returns the root node,
    /// or `None` when the formula is unsatisfiable.
    fn compile_top(&mut self) -> Option<NodeId> {
        let t0 = self.phase_start();
        let ok = self.prop.propagate(&self.pool, &self.clause_stack);
        self.phase_prop_s += self.phase_elapsed(t0);
        if !ok {
            return None;
        }
        let whole = Span {
            clause_lo: 0,
            clause_hi: self.clause_stack.len(),
            var_lo: 0,
            var_hi: self.var_stack.len(),
        };
        self.product_over(None, 0, whole)
    }

    /// The product of `decision`'s indicator (a branch has one, the top
    /// level none), the weighted factors of the implied literals
    /// `trail[implied_from..]`, and the compiled residual of `span`; a
    /// lone factor is returned as itself. `None` when an implied
    /// literal has zero mass or the residual is unsatisfiable.
    fn product_over(
        &mut self,
        decision: Option<Lit>,
        implied_from: usize,
        span: Span,
    ) -> Option<NodeId> {
        let implied_to = self.prop.trail().len();
        self.stats.propagations += (implied_to - implied_from) as u64;
        if self.prop.trail()[implied_from..].iter().any(|&l| self.weights.lit_prob(l) <= 0.0) {
            return None; // an implied literal with zero mass: Pr = 0
        }
        let base = self.factors.len();
        if let Some(lit) = decision {
            let indicator = self.indicator_leaf(lit.var(), !lit.is_neg());
            self.factors.push(indicator);
        }
        // The trail is read in place: the residual search below grows
        // it only above `implied_to`, and undoes what it grew.
        for i in implied_from..implied_to {
            let factor = self.implied_factor(self.prop.trail()[i]);
            self.factors.push(factor);
        }
        let node = self.compile_residual(span).then(|| match self.factors.len() - base {
            1 => self.factors[base],
            _ => self.builder.product(&self.factors[base..]),
        });
        self.factors.truncate(base);
        node
    }

    /// Compiles the unsatisfied part of `span`'s clauses over the
    /// still-unassigned subset of its variables, pushing one free
    /// Bernoulli leaf per unconstrained variable and then one cached
    /// node per connected component onto `factors`. The pushed factors
    /// have pairwise-disjoint scopes whose union is exactly that
    /// unassigned subset; `false` means some component is unsatisfiable
    /// (the caller drops what was pushed).
    fn compile_residual(&mut self, span: Span) -> bool {
        let (clauses, vars, spans) =
            (self.clause_stack.len(), self.var_stack.len(), self.spans.len());
        self.split_components(span);
        let mut sat = true;
        for i in spans..self.spans.len() {
            match self.compile_component(self.spans[i]) {
                Some(node) => self.factors.push(node),
                None => {
                    sat = false;
                    break;
                }
            }
        }
        self.clause_stack.truncate(clauses);
        self.var_stack.truncate(vars);
        self.spans.truncate(spans);
        sat
    }

    /// Decomposition step: partitions the unsatisfied clauses of `span`
    /// into variable-connected components, each flood-filled straight
    /// onto the stack tops and recorded in `spans`, and pushes the free
    /// leaf of every unassigned variable no such clause mentions. This
    /// is where each residual clause's literals are scanned, once.
    fn split_components(&mut self, span: Span) {
        let t0 = self.phase_start();
        self.stamp += 1;
        let stamp = self.stamp;
        for i in span.clause_lo..span.clause_hi {
            let c = self.clause_stack[i];
            if self.narrow {
                if let Some(mask) = self.prop.residual_mask(&self.pool, c) {
                    self.clause_active[c as usize] = stamp;
                    self.masks[c as usize] = mask;
                }
            } else if !self.prop.clause_satisfied(&self.pool, c) {
                self.clause_active[c as usize] = stamp;
            }
        }
        for i in span.var_lo..span.var_hi {
            let v = self.var_stack[i];
            if self.prop.is_assigned(v) || self.var_stamp[v.index()] == stamp {
                continue;
            }
            let touches =
                self.pool.occurrences(v).iter().any(|&c| self.clause_active[c as usize] == stamp);
            self.var_stamp[v.index()] = stamp;
            if !touches {
                let leaf = self.free_leaf(v);
                self.factors.push(leaf);
                continue;
            }
            // Flood-fill the component containing `v`; the variables
            // pushed so far are the queue.
            let (clause_lo, var_lo) = (self.clause_stack.len(), self.var_stack.len());
            self.var_stack.push(v);
            let mut head = var_lo;
            while head < self.var_stack.len() {
                let u = self.var_stack[head];
                head += 1;
                for &c in self.pool.occurrences(u) {
                    if self.clause_active[c as usize] != stamp
                        || self.clause_taken[c as usize] == stamp
                    {
                        continue;
                    }
                    self.clause_taken[c as usize] = stamp;
                    self.clause_stack.push(c);
                    for l in residual_lits(&self.pool, &self.prop, self.narrow, &self.masks, c) {
                        let w = l.var();
                        if self.var_stamp[w.index()] != stamp {
                            self.var_stamp[w.index()] = stamp;
                            self.var_stack.push(w);
                        }
                    }
                }
            }
            self.clause_stack[clause_lo..].sort_unstable();
            self.var_stack[var_lo..].sort_unstable();
            self.stats.components += 1;
            self.spans.push(Span {
                clause_lo,
                clause_hi: self.clause_stack.len(),
                var_lo,
                var_hi: self.var_stack.len(),
            });
        }
        self.phase_split_s += self.phase_elapsed(t0);
    }

    /// Decide + cache: compiles one component through its branching
    /// variable, memoized by residual-clause fingerprint — first in the
    /// in-compile cache, then (within the persistence depth) in the
    /// cross-query cache. Both are probed with the scratch fingerprint;
    /// only a miss allocates the owned key.
    fn compile_component(&mut self, comp: Span) -> Option<NodeId> {
        let t0 = self.phase_start();
        self.component_key(comp);
        if let Some(&hit) = self.cache.get(self.key.as_slice()) {
            self.stats.cache_hits += 1;
            self.phase_probe_s += self.phase_elapsed(t0);
            return hit;
        }
        let persist = self.persistent.is_some() && self.depth <= self.persist_depth;
        let cached =
            if persist { self.persistent.as_mut().and_then(|p| p.probe(&self.key)) } else { None };
        self.phase_probe_s += self.phase_elapsed(t0);
        // Owned before the search below reuses the scratch.
        let key: Key = Arc::from(self.key.as_slice());
        if let Some(component) = cached {
            self.stats.persistent_hits += 1;
            let node = component.map(|(array, root)| self.splice(&array, root));
            self.cache.insert(key, node);
            return node;
        }
        self.stats.cache_misses += 1;
        self.stats.decisions += 1;
        let v = self.pick_var(comp);
        let p = self.weights.prob(v.index());
        let mut children = [NodeId(0); 2];
        let mut log_weights = [0.0; 2];
        let mut live = 0;
        self.depth += 1;
        for (value, w) in [(true, p), (false, 1.0 - p)] {
            if w <= 0.0 {
                continue; // zero-mass polarity: mirror of an UNSAT branch
            }
            if let Some(node) = self.compile_branch(comp, v, value) {
                children[live] = node;
                log_weights[live] = w.ln();
                live += 1;
            }
        }
        self.depth -= 1;
        // WMC semantics keeps the *sub*-normalized weights: mass of an
        // unsatisfiable branch is simply lost, so the root value is
        // exactly Pr[φ]. `Circuit::validate` admits sums whose weights
        // total at most 1.
        let result = (live > 0).then(|| {
            self.builder.push_raw(PcNode::Sum {
                children: &children[..live],
                log_weights: &log_weights[..live],
            })
        });
        if persist {
            self.stats.persistent_stores += 1;
            self.persisted.push((Arc::clone(&key), result));
        }
        self.cache.insert(key, result);
        result
    }

    /// Splices the subgraph under `root` of cached tables into the
    /// builder, recursing no deeper than the search that built it:
    /// leaves are hash-consed through the usual memos, interior nodes
    /// copied raw so their log-weights survive bit-for-bit, nodes an
    /// earlier hit spliced reused. Returns the builder id of `root`.
    fn splice(&mut self, array: &SharedNodes, root: NodeId) -> NodeId {
        let mut memo =
            self.spliced.remove(&Arc::as_ptr(array)).unwrap_or_else(|| vec![None; array.len()]);
        let spliced = self.splice_node(array, &mut memo, root);
        self.spliced.insert(Arc::as_ptr(array), memo);
        spliced
    }

    fn splice_node(&mut self, nodes: &Tables, memo: &mut [Option<NodeId>], id: NodeId) -> NodeId {
        if let Some(spliced) = memo[id.index()] {
            return spliced;
        }
        let node = nodes.node(id);
        let spliced = match node {
            PcNode::Indicator { var, value } => self.indicator_leaf(Var::new(var), value == 1),
            // Free Bernoulli leaves are the only categoricals the
            // compiler emits; the cache's weight binding guarantees
            // the memoized leaf carries the same probabilities.
            PcNode::Categorical { var, .. } => self.free_leaf(Var::new(var)),
            PcNode::Sum { children, .. } | PcNode::Product { children } => {
                for &c in children {
                    self.splice_node(nodes, memo, c);
                }
                self.builder.push_mapped(node, |c| memo[c.index()].expect("spliced above"))
            }
        };
        memo[id.index()] = Some(spliced);
        spliced
    }

    /// One decision branch: assume `v = value`, propagate within the
    /// component, and join the decision indicator, the implied-literal
    /// factors, and the recursively-compiled residual into a product
    /// with scope exactly the component's variables.
    fn compile_branch(&mut self, comp: Span, v: Var, value: bool) -> Option<NodeId> {
        let mark = self.prop.mark();
        let decision = if value { v.pos() } else { v.neg() };
        self.prop.assume(decision);
        let t0 = self.phase_start();
        let clauses = &self.clause_stack[comp.clause_lo..comp.clause_hi];
        let ok = self.prop.propagate(&self.pool, clauses);
        self.phase_prop_s += self.phase_elapsed(t0);
        let result = if ok { self.product_over(Some(decision), mark + 1, comp) } else { None };
        self.prop.undo_to(mark);
        result
    }

    /// Fingerprint of a component's residual clause set over the shared
    /// pool, left in `self.key`: per clause, the pool id packed with the
    /// bitmask of its surviving (unassigned) literal positions —
    /// O(component) to build, no sorting, no cloning of literal
    /// vectors. In a formula with a clause wider than 32 literals the
    /// masks are rebuilt from the assignment, and the wide clauses
    /// themselves fall back to explicit tagged literal codes.
    fn component_key(&mut self, comp: Span) {
        self.key.clear();
        for &c in &self.clause_stack[comp.clause_lo..comp.clause_hi] {
            if self.narrow {
                self.key.push((u64::from(c) << 32) | u64::from(self.masks[c as usize]));
                continue;
            }
            let lits = self.pool.clause(c);
            if lits.len() <= 32 {
                let mut mask = 0u64;
                for (i, &l) in lits.iter().enumerate() {
                    if !self.prop.is_assigned(l.var()) {
                        mask |= 1 << i;
                    }
                }
                self.key.push((u64::from(c) << 32) | mask);
            } else {
                self.key.push(WIDE_ENTRY | u64::from(c));
                for &l in lits {
                    if !self.prop.is_assigned(l.var()) {
                        self.key.push(WIDE_ENTRY | WIDE_LIT | l.code() as u64);
                    }
                }
            }
        }
    }

    /// The decide step's variable choice: the component variable with
    /// the most occurrences in its residual clauses, ties to the lowest
    /// index.
    fn pick_var(&mut self, comp: Span) -> Var {
        for &c in &self.clause_stack[comp.clause_lo..comp.clause_hi] {
            for l in residual_lits(&self.pool, &self.prop, self.narrow, &self.masks, c) {
                self.occ_scratch[l.var().index()] += 1;
            }
        }
        let vars = &self.var_stack[comp.var_lo..comp.var_hi];
        let mut best = vars[0];
        let mut best_count = 0u32;
        for &v in vars {
            let count = std::mem::take(&mut self.occ_scratch[v.index()]);
            if count > best_count {
                best = v;
                best_count = count;
            }
        }
        best
    }

    /// Hash-consed indicator leaf `[x_v = value]`.
    fn indicator_leaf(&mut self, v: Var, value: bool) -> NodeId {
        let slot = &mut self.indicator_memo[v.index()][usize::from(value)];
        match *slot {
            Some(id) => id,
            None => {
                let id = self.builder.indicator(v.index(), usize::from(value));
                *slot = Some(id);
                id
            }
        }
    }

    /// Hash-consed free Bernoulli leaf for an unconstrained variable.
    fn free_leaf(&mut self, v: Var) -> NodeId {
        match self.free_memo[v.index()] {
            Some(id) => id,
            None => {
                let p = self.weights.prob(v.index());
                let id = self.builder.categorical(v.index(), &[1.0 - p, p]);
                self.free_memo[v.index()] = Some(id);
                id
            }
        }
    }

    /// Hash-consed factor for a unit-implied literal: a single-child
    /// sum carrying the literal's weight over its indicator, so the
    /// implication contributes `w · [x_v = b]` without a decision node.
    fn implied_factor(&mut self, lit: Lit) -> NodeId {
        let (v, value) = (lit.var(), !lit.is_neg());
        if let Some(id) = self.implied_memo[v.index()][usize::from(value)] {
            return id;
        }
        let ind = self.indicator_leaf(v, value);
        let id = self.builder.sum(&[ind], &[self.weights.lit_prob(lit)]);
        self.implied_memo[v.index()][usize::from(value)] = Some(id);
        id
    }
}

/// A compiled-once, query-many exact WMC oracle.
///
/// Compiles the formula a single time and answers every subsequent
/// query from the cached circuit through [`Circuit::probability`]. No
/// serving path evaluates it: it is the reference the tests, benches
/// and `reason-eval` sweeps hold served answers against.
///
/// ```
/// use reason_sat::Cnf;
/// use reason_pc::{CompiledWmc, Evidence, WmcWeights};
///
/// let cnf = Cnf::from_clauses(2, vec![vec![1, 2]]);
/// let oracle = CompiledWmc::new(&cnf, &WmcWeights::uniform(2));
/// assert!((oracle.wmc() - 0.75).abs() < 1e-12);
/// // Pr[φ ∧ x0=1] = 0.5 — answered from the cached circuit.
/// let mut ev = Evidence::empty(2);
/// ev.set(0, 1);
/// assert!((oracle.probability(&ev) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct CompiledWmc {
    circuit: Option<Circuit>,
    z: f64,
}

impl CompiledWmc {
    /// Compiles `cnf` once (top-down compiler) and caches the weighted
    /// model count.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != cnf.num_vars()`.
    pub fn new(cnf: &Cnf, weights: &WmcWeights) -> Self {
        let circuit = compile_cnf(cnf, weights);
        let z = circuit.as_ref().map_or(0.0, |c| c.probability(&Evidence::empty(cnf.num_vars())));
        CompiledWmc { circuit, z }
    }

    /// The weighted model count `Pr[φ]` (0 for unsatisfiable formulas).
    /// Cached — repeated calls are free.
    pub fn wmc(&self) -> f64 {
        self.z
    }

    /// `true` when the formula carries positive mass under the weights
    /// (equivalently, a circuit was compiled). Note this is *weighted*
    /// satisfiability: a satisfiable formula whose every model is
    /// killed by a zero-probability weight reports `false`, matching
    /// [`compile_cnf`]'s `None`.
    pub fn has_mass(&self) -> bool {
        self.circuit.is_some()
    }

    /// The compiled circuit, when the formula is satisfiable.
    pub fn circuit(&self) -> Option<&Circuit> {
        self.circuit.as_ref()
    }

    /// `Pr[φ ∧ e]`: the probability mass of models consistent with the
    /// (partial) evidence, evaluated on the cached circuit; 0 for
    /// unsatisfiable formulas.
    pub fn probability(&self, evidence: &Evidence) -> f64 {
        self.circuit.as_ref().map_or(0.0, |c| c.probability(evidence))
    }

    /// `Pr[e | φ]`: the conditional probability of the evidence given
    /// the formula. Returns `None` for unsatisfiable formulas.
    pub fn posterior(&self, evidence: &Evidence) -> Option<f64> {
        if self.z == 0.0 {
            return None;
        }
        let joint = self.probability(evidence);
        Some(joint / self.z)
    }
}

// ---------------------------------------------------------------------------
// Legacy baseline: static-order Shannon expansion.
// ---------------------------------------------------------------------------

/// Compiles `cnf` with the legacy static-order Shannon-expansion
/// compiler (the pre-component-caching implementation).
///
/// Kept as the measured baseline: `reason-eval compile` reports the
/// top-down compiler's speedup against it, and the circuit-size
/// regression tests assert the top-down compiler never emits more
/// nodes. Its cache keys sort and clone the entire residual clause set
/// at every node, which is exactly the cost the top-down compiler's
/// pooled fingerprints remove — expect seconds instead of milliseconds
/// above ~24 variables on random 3-SAT.
///
/// Semantics match [`compile_cnf`]: same WMC, same `None`-on-UNSAT.
pub fn compile_cnf_shannon(cnf: &Cnf, weights: &WmcWeights) -> Option<Circuit> {
    assert_eq!(weights.len(), cnf.num_vars(), "weights arity mismatch");
    let mut compiler = Shannon {
        builder: CircuitBuilder::new(vec![2; cnf.num_vars()]),
        cache: HashMap::new(),
        weights,
        num_vars: cnf.num_vars(),
    };
    let clauses: Vec<Vec<Lit>> = cnf.clauses().iter().map(|c| c.lits().to_vec()).collect();
    let root = compiler.compile(clauses, 0)?;
    Some(compiler.builder.build(root).expect("compiler emits valid circuits"))
}

struct Shannon<'w> {
    builder: CircuitBuilder,
    /// Cache keyed by (next variable, canonical clause set).
    cache: HashMap<(usize, Vec<Vec<i32>>), Option<NodeId>>,
    weights: &'w WmcWeights,
    num_vars: usize,
}

impl Shannon<'_> {
    /// Compiles the residual clause set starting at variable `var`,
    /// returning a node whose scope is exactly `var..num_vars`.
    fn compile(&mut self, clauses: Vec<Vec<Lit>>, var: usize) -> Option<NodeId> {
        if clauses.iter().any(Vec::is_empty) {
            return None; // unsatisfiable branch
        }
        if var == self.num_vars {
            debug_assert!(clauses.is_empty(), "all variables decided but clauses remain");
            return Some(self.true_tail(var)); // empty product ≡ constant 1
        }
        let key = (var, canonical(&clauses));
        if let Some(&cached) = self.cache.get(&key) {
            return cached;
        }

        // If the remaining clauses never mention `var`, emit a free leaf and
        // recurse — this keeps compiled circuits compact for sparse rules.
        let mentions = clauses.iter().any(|c| c.iter().any(|l| l.var().index() == var));
        let result = if !mentions {
            let tail = self.compile(clauses, var + 1);
            tail.map(|t| {
                let leaf = self.free_leaf(var);
                self.builder.product(&[leaf, t])
            })
        } else {
            let pos = cofactor(&clauses, Var::new(var).pos());
            let neg = cofactor(&clauses, Var::new(var).neg());
            let p = self.weights.prob(var);
            let pos_node = if p > 0.0 { self.compile(pos, var + 1) } else { None };
            let neg_node = if p < 1.0 { self.compile(neg, var + 1) } else { None };
            let mut children: Vec<NodeId> = Vec::with_capacity(2);
            let mut ws: Vec<f64> = Vec::with_capacity(2);
            if let Some(n) = pos_node {
                let ind = self.builder.indicator(var, 1);
                children.push(self.builder.product(&[ind, n]));
                ws.push(p);
            }
            if let Some(n) = neg_node {
                let ind = self.builder.indicator(var, 0);
                children.push(self.builder.product(&[ind, n]));
                ws.push(1.0 - p);
            }
            if children.is_empty() {
                None
            } else {
                // Sub-normalized like the top-down compiler: mass of an
                // unsatisfiable branch is lost, root value is Pr[φ].
                Some(self.builder.sum(&children, &ws))
            }
        };
        self.cache.insert(key, result);
        result
    }

    /// Product of free leaves for variables `var..num_vars` (constant 1 over
    /// the remaining scope).
    fn true_tail(&mut self, var: usize) -> NodeId {
        let leaves: Vec<NodeId> = (var..self.num_vars).map(|v| self.free_leaf(v)).collect();
        if leaves.len() == 1 {
            leaves[0]
        } else {
            self.builder.product(&leaves)
        }
    }

    /// A Bernoulli leaf carrying the variable's marginal weight.
    fn free_leaf(&mut self, var: usize) -> NodeId {
        let p = self.weights.prob(var);
        self.builder.categorical(var, &[1.0 - p, p])
    }
}

/// Canonical form of a clause set for caching (legacy compiler only —
/// this sort-and-clone per node is what pooled fingerprints replace).
fn canonical(clauses: &[Vec<Lit>]) -> Vec<Vec<i32>> {
    let mut out: Vec<Vec<i32>> = clauses
        .iter()
        .map(|c| {
            let mut v: Vec<i32> = c.iter().map(|l| l.to_dimacs()).collect();
            v.sort_unstable();
            v
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Conditions the clause set on `lit` being true: satisfied clauses drop,
/// falsified literals are removed.
fn cofactor(clauses: &[Vec<Lit>], lit: Lit) -> Vec<Vec<Lit>> {
    let mut out = Vec::with_capacity(clauses.len());
    for c in clauses {
        if c.contains(&lit) {
            continue;
        }
        let reduced: Vec<Lit> = c.iter().copied().filter(|&l| l != !lit).collect();
        out.push(reduced);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::Evidence;
    use reason_sat::gen::random_ksat;
    use reason_sat::{brute_force, count_models};

    fn cached(
        cnf: &Cnf,
        weights: &WmcWeights,
        cache: &mut PersistentComponentCache,
    ) -> (Option<Circuit>, CompileStats) {
        compile_cnf_with(
            cnf,
            weights,
            CompileOptions { cache: Some(cache), ..CompileOptions::default() },
        )
    }

    fn brute_wmc(cnf: &Cnf, weights: &WmcWeights) -> f64 {
        let n = cnf.num_vars();
        let mut total = 0.0;
        let mut model = vec![false; n];
        for bits in 0u64..(1 << n) {
            for (v, slot) in model.iter_mut().enumerate() {
                *slot = bits >> v & 1 == 1;
            }
            if cnf.eval(&model) {
                let mut w = 1.0;
                for (v, &b) in model.iter().enumerate() {
                    w *= if b { weights.prob(v) } else { 1.0 - weights.prob(v) };
                }
                total += w;
            }
        }
        total
    }

    #[test]
    fn observed_compile_reports_counters_and_spans() {
        use reason_telemetry::{is_well_formed_forest, MetricValue, Telemetry, VirtualClock};
        let clock = VirtualClock::shared();
        let tel = Telemetry::with_clock(clock);
        let cnf = random_ksat(8, 20, 3, 7);
        let weights = WmcWeights::uniform(8);
        let (observed, stats) = compile_cnf_with(
            &cnf,
            &weights,
            CompileOptions { telemetry: Some(&tel), ..CompileOptions::default() },
        );
        let (plain, plain_stats) = compile_cnf_with(&cnf, &weights, CompileOptions::default());
        // Instrumentation must not perturb the compilation itself.
        assert_eq!(observed.is_some(), plain.is_some());
        assert_eq!(stats, plain_stats);
        let snap = tel.registry.snapshot();
        let counter = |name: &str| {
            snap.iter()
                .filter(|m| m.name == name)
                .map(|m| match m.value {
                    MetricValue::Counter(v) => v,
                    _ => panic!("{name} is not a counter"),
                })
                .sum::<u64>()
        };
        assert_eq!(counter("pc_propagations_total"), stats.propagations);
        assert_eq!(counter("pc_decisions_total"), stats.decisions);
        assert_eq!(counter("pc_cache_probes_total"), stats.cache_hits + stats.cache_misses);
        let spans = tel.tracer.finished();
        assert!(spans.iter().any(|s| s.name == "pc.compile"));
        assert!(spans.iter().any(|s| s.name == "pc.propagate"));
        assert!(is_well_formed_forest(&spans));
    }

    #[test]
    fn uniform_wmc_equals_model_count() {
        for seed in 0..10 {
            let cnf = random_ksat(8, 20, 3, seed);
            let wmc = CompiledWmc::new(&cnf, &WmcWeights::uniform(8)).wmc();
            let expect = count_models(&cnf) as f64 / 256.0;
            assert!((wmc - expect).abs() < 1e-9, "seed {seed}: {wmc} vs {expect}");
        }
    }

    #[test]
    fn weighted_wmc_matches_enumeration() {
        let weights = WmcWeights::new(vec![0.9, 0.2, 0.5, 0.7, 0.3, 0.6]);
        for seed in 0..10 {
            let cnf = random_ksat(6, 14, 3, 100 + seed);
            let wmc = CompiledWmc::new(&cnf, &weights).wmc();
            let expect = brute_wmc(&cnf, &weights);
            assert!((wmc - expect).abs() < 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn unsat_compiles_to_none() {
        let cnf = Cnf::from_clauses(2, vec![vec![1], vec![-1]]);
        assert!(compile_cnf(&cnf, &WmcWeights::uniform(2)).is_none());
        assert!(compile_cnf_shannon(&cnf, &WmcWeights::uniform(2)).is_none());
        assert_eq!(CompiledWmc::new(&cnf, &WmcWeights::uniform(2)).wmc(), 0.0);
    }

    #[test]
    fn compiled_circuit_is_valid_and_deterministic() {
        let cnf = random_ksat(7, 16, 3, 3);
        if !brute_force(&cnf).is_sat() {
            return;
        }
        let c = compile_cnf(&cnf, &WmcWeights::uniform(7)).unwrap();
        c.validate().unwrap();
        assert!(c.is_syntactically_deterministic());
    }

    #[test]
    fn conditioning_matches_conditional_wmc() {
        let weights = WmcWeights::new(vec![0.5, 0.8, 0.3, 0.6]);
        let cnf = Cnf::from_clauses(4, vec![vec![1, 2], vec![-2, 3], vec![3, 4]]);
        let c = compile_cnf(&cnf, &weights).unwrap();
        // p(x0=1 | φ) via circuit conditional against enumeration.
        let total = brute_wmc(&cnf, &weights);
        let mut cnf_x0 = cnf.clone();
        cnf_x0.add_dimacs_clause(&[1]);
        let with_x0 = brute_wmc(&cnf_x0, &weights);
        let marg = c.marginal(&Evidence::empty(4), 0);
        assert!((marg[1] - with_x0 / total).abs() < 1e-9);
    }

    #[test]
    fn mpe_on_compiled_circuit_is_a_model() {
        let cnf = Cnf::from_clauses(4, vec![vec![1, 2], vec![-1, 3], vec![-3, -2, 4]]);
        let c = compile_cnf(&cnf, &WmcWeights::uniform(4)).unwrap();
        let res = c.mpe(&Evidence::empty(4));
        let model: Vec<bool> = res.assignment.iter().map(|&v| v == 1).collect();
        assert!(cnf.eval(&model), "MPE of a formula circuit must satisfy the formula");
    }

    #[test]
    fn cache_shares_subcircuits() {
        // Chain formula has massive cofactor sharing: circuit stays small.
        let mut clauses = Vec::new();
        for i in 1..12 {
            clauses.push(vec![-i, i + 1]);
        }
        let cnf = Cnf::from_clauses(12, clauses);
        let c = compile_cnf(&cnf, &WmcWeights::uniform(12)).unwrap();
        assert!(
            c.num_nodes() < 400,
            "expected compact compiled circuit, got {} nodes",
            c.num_nodes()
        );
    }

    #[test]
    fn empty_formula_compiles_to_constant_one() {
        let cnf = Cnf::new(3);
        let c = compile_cnf(&cnf, &WmcWeights::uniform(3)).unwrap();
        let p = c.probability(&Evidence::empty(3));
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn topdown_and_shannon_agree_on_random_instances() {
        for seed in 0..20 {
            let cnf = random_ksat(9, 24, 3, 300 + seed);
            let weights = WmcWeights::new((0..9).map(|v| 0.3 + 0.05 * v as f64).collect());
            let new = compile_cnf(&cnf, &weights);
            let old = compile_cnf_shannon(&cnf, &weights);
            match (new, old) {
                (Some(n), Some(o)) => {
                    let zn = n.probability(&Evidence::empty(9));
                    let zo = o.probability(&Evidence::empty(9));
                    assert!((zn - zo).abs() < 1e-9, "seed {seed}: {zn} vs {zo}");
                    n.validate().unwrap();
                    assert!(n.is_syntactically_deterministic());
                }
                (None, None) => {}
                (n, o) => {
                    panic!("seed {seed}: SAT disagreement (topdown {n:?} vs shannon {o:?})")
                }
            }
        }
    }

    #[test]
    fn topdown_is_never_larger_than_shannon_on_fixed_instances() {
        let fixed: Vec<Cnf> = vec![
            Cnf::from_clauses(12, (1..12).map(|i| vec![-i, i + 1]).collect()),
            Cnf::from_clauses(6, vec![vec![1, 2], vec![-2, 3], vec![-1, 4, 5], vec![3, -5, 6]]),
            random_ksat(10, 26, 3, 5),
            random_ksat(12, 30, 3, 8),
        ];
        for (i, cnf) in fixed.iter().enumerate() {
            let w = WmcWeights::uniform(cnf.num_vars());
            let new = compile_cnf(cnf, &w).unwrap();
            let old = compile_cnf_shannon(cnf, &w).unwrap();
            assert!(
                new.num_nodes() <= old.num_nodes(),
                "instance {i}: topdown {} nodes vs shannon {}",
                new.num_nodes(),
                old.num_nodes()
            );
        }
    }

    #[test]
    fn unit_clauses_become_propagations_not_decisions() {
        // x0 & (!x0 | x1) & (x2 | x3): the first two clauses are fully
        // implied, only the third needs one decision.
        let cnf = Cnf::from_clauses(4, vec![vec![1], vec![-1, 2], vec![3, 4]]);
        let (c, stats) = compile_cnf_with(&cnf, &WmcWeights::uniform(4), CompileOptions::default());
        let c = c.unwrap();
        // x0 and x1 are implied at the top level; deciding x2 = false
        // unit-implies x3 inside the branch.
        assert_eq!(stats.propagations, 3);
        assert_eq!(stats.decisions, 1, "only the (x2 | x3) component branches");
        let z = c.probability(&Evidence::empty(4));
        assert!((z - brute_wmc(&cnf, &WmcWeights::uniform(4))).abs() < 1e-12);
    }

    #[test]
    fn independent_clauses_decompose_into_components() {
        // Three variable-disjoint clauses: component decomposition must
        // compile them independently (3 components, ≤ 1 decision each).
        let cnf = Cnf::from_clauses(6, vec![vec![1, 2], vec![3, 4], vec![5, 6]]);
        let (c, stats) = compile_cnf_with(&cnf, &WmcWeights::uniform(6), CompileOptions::default());
        assert!(stats.components >= 3, "expected ≥ 3 components, got {}", stats.components);
        let z = c.unwrap().probability(&Evidence::empty(6));
        assert!((z - 0.75f64.powi(3)).abs() < 1e-12);
    }

    #[test]
    fn component_cache_is_probed_and_hit() {
        // Identical disjoint sub-formulas share structure via the pool
        // fingerprints only when the clause ids coincide — but repeated
        // sub-problems inside one component's search do hit.
        let cnf = random_ksat(12, 36, 3, 2);
        let (_, stats) =
            compile_cnf_with(&cnf, &WmcWeights::uniform(12), CompileOptions::default());
        assert!(stats.cache_misses > 0);
        assert!(stats.hit_rate() >= 0.0);
    }

    #[test]
    fn every_var_order_agrees_with_brute_force() {
        // The compiler has one branching order (most residual occurrences);
        // it must count graded weights on a wider formula exactly.
        let cnf = random_ksat(8, 20, 3, 77);
        let weights = WmcWeights::new((0..8).map(|v| 0.35 + 0.04 * v as f64).collect());
        let expect = brute_wmc(&cnf, &weights);
        let (c, _) = compile_cnf_with(&cnf, &weights, CompileOptions::default());
        let z = c.map_or(0.0, |c| c.probability(&Evidence::empty(8)));
        assert!((z - expect).abs() < 1e-9, "{z} vs {expect}");
    }

    #[test]
    fn compilation_is_deterministic_across_runs() {
        let cnf = random_ksat(11, 30, 3, 13);
        let w = WmcWeights::uniform(11);
        let a = compile_cnf(&cnf, &w);
        let b = compile_cnf(&cnf, &w);
        assert_eq!(a, b, "same input must compile to the identical circuit");
    }

    #[test]
    fn compiled_wmc_reuses_one_compilation() {
        let cnf = Cnf::from_clauses(3, vec![vec![1, 2], vec![-2, 3]]);
        let w = WmcWeights::new(vec![0.4, 0.6, 0.5]);
        let oracle = CompiledWmc::new(&cnf, &w);
        assert!(oracle.has_mass());
        let expect = brute_wmc(&cnf, &w);
        assert!((oracle.wmc() - expect).abs() < 1e-12);
        // Conditional mass queries answer from the cached circuit.
        let mut ev = Evidence::empty(3);
        ev.set(1, 1);
        let mut with_x1 = cnf.clone();
        with_x1.add_dimacs_clause(&[2]);
        assert!((oracle.probability(&ev) - brute_wmc(&with_x1, &w)).abs() < 1e-12);
        let post = oracle.posterior(&ev).unwrap();
        assert!((post - brute_wmc(&with_x1, &w) / expect).abs() < 1e-12);
    }

    #[test]
    fn compiled_wmc_on_unsat_is_zero() {
        let cnf = Cnf::from_clauses(2, vec![vec![1], vec![-1]]);
        let oracle = CompiledWmc::new(&cnf, &WmcWeights::uniform(2));
        assert!(!oracle.has_mass());
        assert_eq!(oracle.wmc(), 0.0);
        assert_eq!(oracle.probability(&Evidence::empty(2)), 0.0);
        assert_eq!(oracle.posterior(&Evidence::empty(2)), None);
        assert!(oracle.circuit().is_none());
    }

    #[test]
    fn extreme_weights_prune_zero_mass_branches() {
        // p(x0) = 1 forces the x0-false branch away entirely.
        let cnf = Cnf::from_clauses(2, vec![vec![1, 2]]);
        let w = WmcWeights::new(vec![1.0, 0.25]);
        let c = compile_cnf(&cnf, &w).unwrap();
        let z = c.probability(&Evidence::empty(2));
        assert!((z - 1.0).abs() < 1e-12, "x0 always true satisfies the clause: {z}");
        // An implied literal with zero mass is an UNSAT-equivalent.
        let unit = Cnf::from_clauses(1, vec![vec![1]]);
        assert!(compile_cnf(&unit, &WmcWeights::new(vec![0.0])).is_none());
        assert_eq!(CompiledWmc::new(&unit, &WmcWeights::new(vec![0.0])).wmc(), 0.0);
    }

    #[test]
    fn lit_prob_reflects_polarity() {
        let w = WmcWeights::new(vec![0.3]);
        assert!((w.lit_prob(Var::new(0).pos()) - 0.3).abs() < 1e-12);
        assert!((w.lit_prob(Var::new(0).neg()) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn stats_hit_rate_is_well_defined() {
        assert_eq!(CompileStats::default().hit_rate(), 0.0);
        let stats = CompileStats { cache_hits: 3, cache_misses: 1, ..CompileStats::default() };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn cached_cold_compile_matches_uncached_exactly() {
        let cnf = random_ksat(10, 26, 3, 21);
        let w = WmcWeights::uniform(10);
        let mut cache = PersistentComponentCache::new();
        let (cached, stats) = cached(&cnf, &w, &mut cache);
        let plain = compile_cnf(&cnf, &w);
        // Probes never alter the search, so a cold cached compile emits
        // the identical circuit (and reports its probes as misses).
        assert_eq!(cached, plain);
        assert_eq!(stats.persistent_hits, 0);
        assert!(stats.persistent_stores > 0);
        assert!(!cache.is_empty());
    }

    #[test]
    fn warm_recompile_hits_and_preserves_answers_bit_for_bit() {
        let cnf = random_ksat(12, 32, 3, 5);
        let w = WmcWeights::new((0..12).map(|v| 0.35 + 0.02 * v as f64).collect());
        let mut cache = PersistentComponentCache::new();
        let (cold, _) = cached(&cnf, &w, &mut cache);
        let (warm, warm_stats) = cached(&cnf, &w, &mut cache);
        assert!(warm_stats.persistent_hits > 0, "second compile must reuse components");
        let z_cold = cold.unwrap().probability(&Evidence::empty(12));
        let z_warm = warm.unwrap().probability(&Evidence::empty(12));
        assert_eq!(z_cold.to_bits(), z_warm.to_bits(), "spliced circuits answer bit-for-bit");
    }

    #[test]
    fn adding_a_clause_recompiles_only_touched_components() {
        // Two variable-disjoint blocks; the added clause touches only
        // the second, so the first block's components hit the cache.
        let mut clauses =
            vec![vec![1, 2], vec![-2, 3], vec![-1, 3, 4], vec![5, 6], vec![-6, 7], vec![-5, 7, 8]];
        let cnf = Cnf::from_clauses(8, clauses.clone());
        let w = WmcWeights::uniform(8);
        let mut cache = PersistentComponentCache::new();
        let _ = cached(&cnf, &w, &mut cache);
        clauses.push(vec![-7, -8]);
        let extended = Cnf::from_clauses(8, clauses);
        let (warm, stats) = cached(&extended, &w, &mut cache);
        assert!(stats.persistent_hits > 0, "untouched block must be reused: {stats:?}");
        let expect = CompiledWmc::new(&extended, &w).wmc();
        let z = warm.unwrap().probability(&Evidence::empty(8));
        assert!((z - expect).abs() < 1e-12, "{z} vs {expect}");
    }

    #[test]
    fn retraction_invalidation_keeps_recompiles_correct() {
        let mut clauses = vec![vec![1, 2], vec![-2, 3], vec![3, 4], vec![-1, -4], vec![2, -3]];
        let cnf = Cnf::from_clauses(4, clauses.clone());
        let w = WmcWeights::uniform(4);
        let mut cache = PersistentComponentCache::new();
        let _ = cached(&cnf, &w, &mut cache);
        // Retract clause 1: ids 1.. shift, so their fingerprints die.
        clauses.remove(1);
        let removed = cache.invalidate_clauses_from(1);
        assert!(removed > 0);
        assert!(cache.stats().invalidated >= removed as u64);
        let retracted = Cnf::from_clauses(4, clauses);
        let (warm, _) = cached(&retracted, &w, &mut cache);
        let expect = CompiledWmc::new(&retracted, &w).wmc();
        let z = warm.unwrap().probability(&Evidence::empty(4));
        assert!((z - expect).abs() < 1e-12, "{z} vs {expect}");
    }

    #[test]
    fn a_search_that_killed_no_branch_shares_its_array_with_the_cache() {
        let cnf = random_ksat(12, 32, 3, 5);
        let w = WmcWeights::uniform(12);
        let mut cache = PersistentComponentCache::new();
        let (circuit, stats) = cached(&cnf, &w, &mut cache);
        let circuit = circuit.unwrap();
        assert_eq!(stats.built_nodes, stats.nodes, "pick a formula whose search kills no branch");
        // One set of tables, two owners: the circuit's nodes are the cache's.
        let array = Arc::clone(cache.arrays().next().unwrap());
        assert!(Arc::ptr_eq(circuit.tables(), &array));
        let entries = cache.entries.values().flatten().count();
        assert_eq!(Arc::strong_count(&array), entries + 2, "entries + circuit + this handle");
        assert_eq!(cache.retained_nodes(), circuit.num_nodes());
        // A clone of the circuit is a share, and equal.
        let twin = circuit.clone();
        assert!(Arc::ptr_eq(twin.tables(), circuit.tables()));
        assert_eq!(twin, circuit);
        // The array outlives the cache for as long as a circuit reads it.
        let weak = Arc::downgrade(&array);
        drop((array, twin));
        cache.clear();
        assert!(weak.upgrade().is_some(), "the circuit still holds its nodes");
        circuit.validate().unwrap();
        drop(circuit);
        assert!(weak.upgrade().is_none(), "last owner gone, yet the array is held");
    }

    #[test]
    fn a_search_that_killed_a_branch_returns_a_compacted_copy() {
        let cnf = random_ksat(18, 66, 3, 53);
        let w = WmcWeights::uniform(18);
        let mut cache = PersistentComponentCache::new();
        let (circuit, stats) = cached(&cnf, &w, &mut cache);
        let circuit = circuit.unwrap();
        assert!(stats.nodes < stats.built_nodes, "pick a formula whose search kills a branch");
        let array = Arc::clone(cache.arrays().next().unwrap());
        assert!(!Arc::ptr_eq(circuit.tables(), &array));
        let entries = cache.entries.values().flatten().count();
        assert_eq!(
            Arc::strong_count(&array),
            entries + 1,
            "entries + this handle: a copied circuit"
        );
        assert_eq!(circuit.num_nodes(), stats.nodes);
        circuit.validate().unwrap();
        // The cache keeps the search's whole vector, dead nodes included.
        assert_eq!(cache.retained_nodes(), stats.built_nodes);
        assert_eq!(circuit, compile_cnf(&cnf, &w).unwrap());
    }

    #[test]
    fn cache_reports_sizes_and_clears() {
        let cnf = random_ksat(9, 24, 3, 11);
        let w = WmcWeights::uniform(9);
        let mut cache = PersistentComponentCache::with_depth(2);
        let (circuit, stats) = cached(&cnf, &w, &mut cache);
        assert!(!cache.is_empty());
        assert!(cache.stats().stores > 0);
        // Every entry points into the one array the compile handed over.
        assert_eq!(cache.arrays().count(), 1);
        assert_eq!(cache.retained_nodes(), stats.built_nodes);
        let keys: usize = cache.entries.keys().map(|k| k.len() * 8).sum();
        assert!(cache.bytes() > keys);
        let array = Arc::downgrade(cache.arrays().next().unwrap());
        // The circuit may share the node tables, so it goes first.
        drop(circuit);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((cache.bytes(), cache.retained_nodes()), (0, 0));
        assert!(array.upgrade().is_none(), "clear() must release the tables");
    }

    #[test]
    fn bytes_are_the_capacities_the_cache_holds() {
        use std::mem::size_of;
        let cnf = random_ksat(12, 32, 3, 5);
        let w = WmcWeights::uniform(12);
        let mut cache = PersistentComponentCache::new();
        let (_, stats) = cached(&cnf, &w, &mut cache);
        let tables = cache.arrays().next().unwrap();
        // The adopted tables are shrunk to fit: one 16-byte record per
        // built node, a 4-byte id per edge, an 8-byte parameter per sum
        // weight and per categorical probability.
        let (edges, params) = tables
            .nodes()
            .map(|n| (n.children().len(), n.num_params()))
            .fold((0, 0), |(e, p), (de, dp)| (e + de, p + dp));
        assert_eq!(tables.len(), stats.built_nodes);
        let table_bytes = 2 * size_of::<usize>()
            + size_of::<Tables>()
            + 16 * stats.built_nodes
            + 4 * edges
            + 8 * params;
        assert_eq!(tables.shared_bytes(), table_bytes);
        // Each key: its allocation (two counters and its words) and the
        // map slot holding it with its entry.
        let slot = size_of::<(Key, Entry)>();
        let keys: usize =
            cache.entries.keys().map(|k| 2 * size_of::<usize>() + 8 * k.len() + slot).sum();
        assert_eq!(cache.bytes(), table_bytes + keys);
        assert!(cache.bytes() < 40 * stats.built_nodes + keys, "about 32 bytes per node");
    }

    #[test]
    fn an_array_lives_exactly_as_long_as_an_entry_points_into_it() {
        // The added clause sits on two so-far-free variables, so the
        // only component the recompile compiles (and persists) is that
        // clause's own; the block beside it is spliced.
        let mut clauses = vec![vec![1, 2], vec![-2, 3], vec![-1, 3, 4]];
        let w = WmcWeights::uniform(6);
        let mut cache = PersistentComponentCache::new();
        let _ = cached(&Cnf::from_clauses(6, clauses.clone()), &w, &mut cache);
        let first = Arc::downgrade(cache.arrays().next().unwrap());
        clauses.push(vec![5, 6]);
        let (_, stats) = cached(&Cnf::from_clauses(6, clauses), &w, &mut cache);
        assert!(stats.persistent_hits > 0 && stats.persistent_stores > 0);
        let second = cache
            .arrays()
            .map(Arc::downgrade)
            .find(|a| !a.ptr_eq(&first))
            .expect("the recompile persisted components of its own");
        let both = cache.bytes();

        // Retracting the added clause drops the second array's last entry.
        cache.invalidate_clauses_from(3);
        assert!(second.upgrade().is_none(), "no entry left, yet the array is held");
        assert!(first.upgrade().is_some());
        assert_eq!(cache.arrays().count(), 1);
        assert!(cache.bytes() < both);

        cache.invalidate_clauses_from(0);
        assert!(first.upgrade().is_none());
        assert_eq!((cache.len(), cache.bytes(), cache.retained_nodes()), (0, 0, 0));
    }

    #[test]
    fn observed_cached_compile_reports_the_cache_footprint() {
        use reason_telemetry::{MetricValue, Telemetry, VirtualClock};
        let tel = Telemetry::with_clock(VirtualClock::shared());
        let cnf = random_ksat(9, 24, 3, 11);
        let mut cache = PersistentComponentCache::new();
        let options = CompileOptions { cache: Some(&mut cache), telemetry: Some(&tel) };
        let _ = compile_cnf_with(&cnf, &WmcWeights::uniform(9), options);
        let gauge = tel.registry.snapshot().into_iter().find_map(|m| match m.value {
            MetricValue::Gauge(v) if m.name == "pc_persistent_cache_bytes" => Some(v),
            _ => None,
        });
        assert_eq!(gauge, Some(cache.bytes() as f64));
    }

    #[test]
    #[should_panic(expected = "different weights")]
    fn cache_rejects_weight_changes() {
        let cnf = random_ksat(6, 14, 3, 2);
        let mut cache = PersistentComponentCache::new();
        let _ = cached(&cnf, &WmcWeights::uniform(6), &mut cache);
        let other = WmcWeights::new(vec![0.3; 6]);
        let _ = cached(&cnf, &other, &mut cache);
    }
}
