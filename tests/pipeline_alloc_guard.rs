//! Allocation guard for the paper pipeline: counts, not clocks.
//!
//! `ReasonPipeline::compile` lowers a kernel to the unified DAG and
//! regularizes it. While every DAG node owned a `Vec` of children, every
//! hash-consing probe cloned that `Vec` into an owned key and
//! regularization built a full copy to sweep into a second one, a
//! compile cost 3–4 allocations per output node: 17,284 allocator calls
//! and 2,153,273 requested bytes (3.16 and 394 per node) on pc-3
//! (`random_mixture_circuit` 12/4/3, seed 3, 5,465 nodes), and 19,767
//! calls and 1,619,937 bytes (4.04 and 331 per node) on hmm-9-11
//! (`Hmm::random(9, 8, 11)` unrolled 16 steps, 4,897 nodes). On the flat
//! arena a DAG is four arrays sized up front, the hash-consing table
//! holds node ids, and the front ends reuse one scratch list, so the
//! number of calls is a small constant whatever the kernel's size: 19
//! calls for a 175-node circuit and for pc-3 alike, 20 for hmm-9-11 at
//! 4 or 16 steps, at 84–87 requested bytes per output node. Both are
//! pinned with headroom; the byte bound is the one that catches a
//! per-node allocation coming back through a larger buffer.
//!
//! The counting allocator is process-wide, so this binary holds exactly
//! one `#[test]`: nothing else allocates between the marks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use reason::core::{KernelSource, OptimizedKernel, ReasonPipeline};
use reason::hmm::Hmm;
use reason::pc::{random_mixture_circuit, StructureConfig};

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

/// One `ReasonPipeline::compile`, with its allocator calls and bytes.
fn compile_counted(source: KernelSource<'_>) -> (OptimizedKernel, u64, u64) {
    let (calls, bytes) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let kernel = ReasonPipeline::new().compile(source).expect("kernels without data compile");
    (kernel, CALLS.load(Ordering::Relaxed) - calls, BYTES.load(Ordering::Relaxed) - bytes)
}

const MAX_CALLS_PER_COMPILE: u64 = 32;
const MAX_BYTES_PER_NODE: f64 = 128.0;

#[test]
fn a_pipeline_compile_allocates_a_constant_number_of_times() {
    let mixture = |num_vars, depth, num_components| {
        random_mixture_circuit(&StructureConfig { num_vars, depth, num_components, seed: 3 })
    };
    let (pc_small, pc3) = (mixture(6, 2, 2), mixture(12, 4, 3));
    let hmm = Hmm::random(9, 8, 11);
    for (label, source) in [
        ("pc-small", KernelSource::Pc(&pc_small)),
        ("pc-3", KernelSource::Pc(&pc3)),
        ("hmm-9-11/len4", KernelSource::Hmm { hmm: &hmm, len: 4 }),
        ("hmm-9-11", KernelSource::Hmm { hmm: &hmm, len: 16 }),
    ] {
        let (kernel, calls, bytes) = compile_counted(source);
        let nodes = kernel.dag.num_nodes() as f64;
        let bytes_per_node = bytes as f64 / nodes;
        println!(
            "{label}: {calls} allocations, {bytes} bytes, {nodes} output nodes: \
             {:.3} allocations and {bytes_per_node:.1} bytes per node",
            calls as f64 / nodes
        );
        assert!(
            calls <= MAX_CALLS_PER_COMPILE,
            "{label}: {calls} allocations per compile exceeds {MAX_CALLS_PER_COMPILE}"
        );
        assert!(
            bytes_per_node <= MAX_BYTES_PER_NODE,
            "{label}: {bytes_per_node:.1} bytes per output node exceeds {MAX_BYTES_PER_NODE}"
        );
    }
}
