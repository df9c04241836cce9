//! Allocation guard for the executor's inline path: counts, not clocks.
//!
//! Every served batch runs through `BatchExecutor::run` on
//! `ExecutorConfig::sequential()`: the engines the benchmark builds serve
//! inline, on the caller's thread. What a warm run allocates there is the
//! task's bookkeeping (its result slot, its verdicts, its name) and the
//! batched kernel's answers, never the threads, channel, shared memory or
//! locked slots of the symbolic lanes: 15 allocator calls for a batch of
//! one and 23 for a 64-lane batch (the per-kind lane lists grow by
//! doubling), whatever the arena's size. Both are pinned exactly, so any
//! allocation the inline path gains fails here. `-- --nocapture` prints
//! them.
//!
//! The counting allocator is process-wide, so this binary holds exactly
//! one `#[test]`: nothing else allocates between the marks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use reason::pc::{compile_cnf, Dnnf, Evidence, WmcWeights};
use reason::sat::gen::planted_ksat;
use reason::system::{
    synthetic_batch, BatchExecutor, BatchTask, ExecutorConfig, NeuralStage, ServeQuery,
    SymbolicStage, Verdict,
};
use reason::telemetry::{MetricValue, Telemetry};

/// The system allocator, counting calls.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // Statistics only: nothing is published through the counter.
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
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

/// Runs `f`, returning its result with its allocator calls.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let calls = CALLS.load(Ordering::Relaxed);
    let out = f();
    (out, CALLS.load(Ordering::Relaxed) - calls)
}

/// One `ServeBatch` task of `lanes` posterior queries, each with its own
/// evidence, on `arena`.
fn serve_task(arena: &Arc<Dnnf>, z: f64, n: usize, lanes: usize) -> BatchTask {
    let queries = (0..lanes)
        .map(|k| {
            let mut ev = Evidence::empty(n);
            for var in (0..6).filter(|var| k >> var & 1 == 1) {
                ev.set(var, (k + var) % 2);
            }
            ServeQuery::Posterior(ev)
        })
        .collect();
    BatchTask {
        name: format!("serve-{lanes}"),
        neural: NeuralStage::Synthetic { duration: Duration::ZERO },
        symbolic: SymbolicStage::ServeBatch { arena: Arc::clone(arena), z, queries },
        deadline: None,
    }
}

/// Allocator calls of a warm inline run of one serve task, by lane count.
const PINNED: [(usize, u64); 2] = [(1, 15), (64, 23)];

#[test]
fn a_warm_inline_serve_run_allocates_a_fixed_count() {
    let n = 20;
    let cnf = planted_ksat(n, 2 * n + 4, 3, 11);
    let weights = WmcWeights::new((0..n).map(|v| 0.45 + 0.1 * (v % 2) as f64).collect());
    let circuit = compile_cnf(&cnf, &weights).expect("planted formulas carry mass");
    let arena = Arc::new(Dnnf::from_circuit(&circuit).expect("compiled circuits are binary"));
    let z = arena.wmc();
    let executor = BatchExecutor::new(ExecutorConfig::sequential());

    for (lanes, pinned) in PINNED {
        let tasks = [serve_task(&arena, z, n, lanes)];
        // The first run grows this thread's kernel scratch.
        let cold = executor.run(&tasks);
        let (warm, calls) = counted(|| executor.run(&tasks));
        println!("{lanes} lanes: {calls} allocations per warm inline run");
        assert_eq!(warm.results[0].verdict, cold.results[0].verdict);
        let Verdict::Batch(answers) = &warm.results[0].verdict else {
            panic!("a serve task answers a batch: {:?}", warm.results[0].verdict);
        };
        assert_eq!(answers.len(), lanes);
        assert_eq!(calls, pinned, "{lanes} lanes: a warm inline run's allocations moved");
    }

    // A multi-task serial run is inline too: it counts its tasks under
    // `mode="serial"` and drains on no symbolic lane.
    let tel = Telemetry::wall();
    let report = executor.run_with_telemetry(&synthetic_batch(&[(0, 0); 3]), Some(&tel));
    assert_eq!(report.results.len(), 3);
    let snap = tel.registry.snapshot();
    assert!(snap.iter().all(|m| m.name != "executor_lane_tasks_total"));
    let total = snap.iter().find(|m| m.name == "executor_tasks_total").expect("task counter");
    assert_eq!(total.labels, vec![("mode".to_string(), "serial".to_string())]);
    assert!(matches!(total.value, MetricValue::Counter(3)));
}
