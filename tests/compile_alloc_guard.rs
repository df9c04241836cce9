//! Allocation guard for the knowledge compiler: counts, not clocks.
//!
//! A cold compile is the cold start, the failover and the clause edit,
//! and before the component search moved to shared stacks a third of it
//! was `malloc`/`free`/`memcpy`: 8.7–11.0 heap allocations and
//! 276–323 requested bytes per built node (two push-grown `Vec`s per
//! component, an owned key per probe, the trail and the factor list
//! copied per branch, the node vector cloned node by node into the
//! `Circuit`). Then every emitted node still owned its child and weight
//! vectors: 1.68–1.73 allocations and 175–186 bytes per node. Since
//! the circuit is three flat tables, what is left is one key per
//! in-compile cache miss and the tables' and maps' amortized growth:
//! 0.35–0.41 allocations and 135–146 bytes per node, and an all-hit
//! recompile makes 174–206 allocations instead of 3,416–20,182. This
//! host cannot gate on a clock, so the two ratios are pinned here with
//! headroom; the allocation bound catches a node that owns a heap
//! vector again, the byte bound a reintroduced node-by-node clone.
//!
//! The counting allocator is process-wide, so this binary holds exactly
//! one `#[test]`: nothing else allocates between the marks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use reason::pc::{Circuit, CompileStats, WmcWeights};
use reason::sat::gen::planted_ksat;
use reason::serve::KnowledgeBase;

/// The system allocator, counting calls and requested bytes.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    // Statistics only: nothing is published through these.
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocator calls, requested bytes)` spent inside `f`.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (calls, bytes) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let out = f();
    (out, CALLS.load(Ordering::Relaxed) - calls, BYTES.load(Ordering::Relaxed) - bytes)
}

/// The benchmark's weights: `0.45 + 0.1·(v mod 2)`.
fn ladder_weights(n: usize) -> WmcWeights {
    WmcWeights::new((0..n).map(|v| 0.45 + 0.1 * (v % 2) as f64).collect())
}

/// One `KnowledgeBase::compile`, with what the search allocated.
fn compile_counted(kb: &mut KnowledgeBase) -> (Circuit, CompileStats, u64, u64) {
    let ((circuit, stats), mut calls, mut bytes) = counted(|| kb.compile());
    let circuit = circuit.expect("planted formulas are satisfiable");
    if cfg!(debug_assertions) {
        // A debug build validates the circuit inside the compile (a
        // `debug_assert!`); that walk is not the search's.
        let (valid, validate_calls, validate_bytes) = counted(|| circuit.validate());
        valid.expect("compiler emits valid circuits");
        calls -= validate_calls;
        bytes -= validate_bytes;
    }
    (circuit, stats, calls, bytes)
}

/// The measured 0.35–0.41 plus about 45 % headroom.
const MAX_ALLOCS_PER_NODE: f64 = 0.6;
/// The measured 146 plus about 15 % headroom.
const MAX_BYTES_PER_NODE: f64 = 170.0;

#[test]
fn a_compile_allocates_what_its_nodes_own_and_little_else() {
    // A `cold_ladder` low rung and a tall one, as a knowledge base
    // compiles them: through its persistent component cache.
    for (n, seed) in [(28usize, 17u64), (40, 29)] {
        let cnf = planted_ksat(n, n + 24, 3, seed);
        let mut kb = KnowledgeBase::new("guard", &cnf, ladder_weights(n));

        let (circuit, stats, calls, bytes) = compile_counted(&mut kb);
        let built = stats.built_nodes as f64;
        let (per_node, bytes_per_node) = (calls as f64 / built, bytes as f64 / built);
        println!(
            "n={n}: {calls} allocations, {bytes} bytes, {} built nodes: \
             {per_node:.2} allocations and {bytes_per_node:.1} bytes per node",
            stats.built_nodes
        );
        assert!(
            per_node <= MAX_ALLOCS_PER_NODE,
            "n={n}: {per_node:.2} allocations per built node exceeds {MAX_ALLOCS_PER_NODE}"
        );
        assert!(
            bytes_per_node <= MAX_BYTES_PER_NODE,
            "n={n}: {bytes_per_node:.1} bytes per built node exceeds {MAX_BYTES_PER_NODE}"
        );

        // Unchanged knowledge base: every top-level component is a
        // persistent hit, so the search allocates nothing of its own.
        drop(circuit);
        let (_, warm, warm_calls, _) = compile_counted(&mut kb);
        assert!(warm.persistent_hits > 0 && warm.decisions == 0, "{warm:?}");
        println!("n={n}: all-hit recompile: {warm_calls} allocations");
        assert!(
            warm_calls < calls,
            "n={n}: an all-hit recompile made {warm_calls} allocations, the cold compile {calls}"
        );
    }
}
