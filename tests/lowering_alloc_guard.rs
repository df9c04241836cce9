//! Allocation guard for the lowering and the array: counts, not clocks.
//!
//! `ReasonCompiler::compile` carves a regular DAG into blocks, schedules
//! them, places every value in a bank and emits the VLIW program;
//! `CompiledKernel::program` binds the inputs and `VliwExecutor::execute`
//! runs it. While every block owned a member and an operand `Vec`, every
//! value a reader list and every block a consumer list, and every
//! instruction its own read, node and free lists, each of the three
//! allocated per block: `compile` made 7,498 allocator calls on pc-3
//! (`random_mixture_circuit` 12/4/3, seed 3, regularized by
//! `ReasonPipeline`) and 8,087 on hmm-9-11 (`Hmm::random(9, 8, 11)`
//! unrolled 16 steps); `program` 1,773 and 2,041 (a deep clone of the
//! instruction list); `execute` 599 and 843 (a depth `Vec` per validated
//! instruction).
//!
//! With blocks, readers and consumers as CSR tables, the register file a
//! bitmask and the program one flat array per field, each of the three
//! allocates a fixed number of times whatever the kernel's size: 47
//! calls per `compile`, 10 per `program` and 9 per `execute` on every
//! kernel here, from a 175-node mixture to hmm-9-11. The compile's bytes
//! are a fixed ~18 KiB (the allocator mirror's register file at the paper
//! design point) plus 90–105 per DAG node: 96.0 and 110.6 per node in all
//! on pc-3 and hmm-9-11, against 211.8 and 233.1 before. Both are pinned
//! with headroom; the byte bound is the one that catches a per-block
//! allocation coming back through a larger buffer.
//!
//! The counting allocator is process-wide, so this binary holds exactly
//! one `#[test]`: nothing else allocates between the marks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use reason::arch::{ArchConfig, VliwExecutor};
use reason::compiler::ReasonCompiler;
use reason::core::{KernelSource, ReasonPipeline};
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

/// Runs `f`, returning its result with its allocator calls and bytes.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (calls, bytes) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let out = f();
    (out, CALLS.load(Ordering::Relaxed) - calls, BYTES.load(Ordering::Relaxed) - bytes)
}

const MAX_CALLS_PER_COMPILE: u64 = 64;
const MAX_CALLS_PER_PROGRAM: u64 = 16;
const MAX_CALLS_PER_EXECUTE: u64 = 16;
const MAX_COMPILE_FIXED_BYTES: f64 = 32.0 * 1024.0;
const MAX_COMPILE_BYTES_PER_NODE: f64 = 160.0;

#[test]
fn lowering_and_execution_allocate_a_constant_number_of_times() {
    let mixture = |num_vars, depth, num_components| {
        random_mixture_circuit(&StructureConfig { num_vars, depth, num_components, seed: 3 })
    };
    let (pc_small, pc3) = (mixture(6, 2, 2), mixture(12, 4, 3));
    let hmm = Hmm::random(9, 8, 11);
    let config = ArchConfig::paper();
    let compiler = ReasonCompiler::new(config);
    let executor = VliwExecutor::new(config);
    for (label, source) in [
        ("pc-small", KernelSource::Pc(&pc_small)),
        ("pc-3", KernelSource::Pc(&pc3)),
        ("hmm-9-11/len4", KernelSource::Hmm { hmm: &hmm, len: 4 }),
        ("hmm-9-11", KernelSource::Hmm { hmm: &hmm, len: 16 }),
    ] {
        let lowered = ReasonPipeline::new().compile(source).expect("kernels without data compile");
        let inputs = vec![1.0; lowered.stats.after.inputs];
        let (kernel, compile_calls, compile_bytes) = counted(|| compiler.compile(&lowered.dag));
        let kernel = kernel.expect("the benchmark's kernels fit the paper register file");
        let (program, program_calls, _) = counted(|| kernel.program(&inputs));
        let (run, execute_calls, _) = counted(|| executor.execute(&program));
        assert_eq!(run.output.to_bits(), lowered.dag.evaluate_output(&inputs).to_bits());

        let nodes = lowered.dag.num_nodes() as f64;
        let byte_bound = MAX_COMPILE_FIXED_BYTES + MAX_COMPILE_BYTES_PER_NODE * nodes;
        println!(
            "{label}: {nodes} nodes, {} instructions: compile {compile_calls} allocations \
             and {compile_bytes} bytes ({:.1} per node), program {program_calls}, \
             execute {execute_calls}",
            kernel.report.instructions,
            compile_bytes as f64 / nodes
        );
        assert!(
            compile_calls <= MAX_CALLS_PER_COMPILE,
            "{label}: {compile_calls} allocations per compile exceeds {MAX_CALLS_PER_COMPILE}"
        );
        assert!(
            program_calls <= MAX_CALLS_PER_PROGRAM,
            "{label}: {program_calls} allocations per program exceeds {MAX_CALLS_PER_PROGRAM}"
        );
        assert!(
            execute_calls <= MAX_CALLS_PER_EXECUTE,
            "{label}: {execute_calls} allocations per execute exceeds {MAX_CALLS_PER_EXECUTE}"
        );
        assert!(
            compile_bytes as f64 <= byte_bound,
            "{label}: {compile_bytes} compile bytes exceed {MAX_COMPILE_FIXED_BYTES} \
             + {MAX_COMPILE_BYTES_PER_NODE} per DAG node = {byte_bound}"
        );
    }
}
