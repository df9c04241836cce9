//! The process-wide tile pool: helper threads that walk the lane tiles
//! of one wide batch beside the thread that asked for it.
//!
//! REASON runs the independent parts of one probabilistic DAG side by
//! side (its tree PEs and two-level pipeline, Sec. VI). The arena's
//! counterpart is the lane tile: every tile of a batch is walked on its
//! own value table, and a lane's bits do not depend on its tile
//! partners, so the tiles of one batch can be walked on different
//! threads with no change to any answer. [`walk_jobs`] takes a batch's
//! tiles as one job list; the caller walks job 0 and then claims jobs
//! through an atomic counter, and every helper that wakes before the
//! list is empty claims jobs from the same counter.
//!
//! The pool holds one helper per core beyond the caller's
//! (`available_parallelism() − 1`), spawned on the first batch that
//! fans out. Each helper keeps its own [`BatchBuffer`], so its scratch
//! is one tile's value table plus one argmax table, grown to the
//! largest arena it walked. Helpers live as long as the process and
//! never exit: every panic in a job is caught, so no helper is joined.
//! One caller holds the pool at a time; a caller that finds it held
//! walks its whole list itself, through the same code.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

use crate::dnnf::BatchBuffer;

/// Walks job `i` of a list against a thread's scratch.
type Walk<'a> = dyn Fn(usize, &mut BatchBuffer) + Sync + 'a;

/// One batch's job list, shared with the helpers that enter it.
struct Job<'a> {
    walk: &'a Walk<'a>,
    jobs: usize,
    /// The next unclaimed job. `Relaxed` is enough: the counter only
    /// hands out indices (each once, by `fetch_add`); what a job writes
    /// reaches the caller through the pool's mutex, which a helper
    /// takes after its last job and the caller takes before it reads.
    next: AtomicUsize,
    /// Walks and node·lanes the helpers computed, for the caller's
    /// buffer (read after the same mutex hand-off).
    walks: AtomicU64,
    computed: AtomicU64,
    /// The first panic a helper caught, re-raised on the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job<'_> {
    /// Claims and walks jobs until none is left.
    fn drain(&self, buf: &mut BatchBuffer) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.jobs {
                return;
            }
            (self.walk)(i, buf);
        }
    }
}

/// A published job, its lifetime erased (see [`Pool::open`]).
#[derive(Clone, Copy)]
struct JobPtr(*const Job<'static>);

// SAFETY: a `Job` is `Sync` (a `Sync` closure, atomics, a mutex), so
// helpers may share `&Job` across threads; `Pool::open` and `Open`'s
// drop keep the pointee alive while any helper can reach the pointer.
unsafe impl Send for JobPtr {}

struct State {
    /// The open job list, if any.
    job: Option<JobPtr>,
    /// Bumped on every publish, so a helper enters each list once.
    epoch: u64,
    /// Helpers inside the current list.
    inside: usize,
    /// A caller holds the pool, from publish until every helper that
    /// entered its list has left.
    held: bool,
}

/// A set of helper threads and the one job list they may be walking.
pub(crate) struct Pool {
    state: Mutex<State>,
    /// Helpers sleep here between lists.
    wake: Condvar,
    /// Helpers spawned, set once.
    helpers: OnceLock<usize>,
}

impl Pool {
    const fn new() -> Pool {
        Pool {
            state: Mutex::new(State { job: None, epoch: 0, inside: 0, held: false }),
            wake: Condvar::new(),
            helpers: OnceLock::new(),
        }
    }

    /// The process's pool, its helpers spawned on the first call: one
    /// per core beyond the caller's.
    pub(crate) fn global() -> &'static Pool {
        static POOL: Pool = Pool::new();
        POOL.start(|| thread::available_parallelism().map_or(0, |n| n.get() - 1));
        &POOL
    }

    /// Spawns `count()` helpers unless this pool has some already, and
    /// returns how many it has. A helper the OS refuses is not retried.
    fn start(&'static self, count: impl FnOnce() -> usize) -> usize {
        *self.helpers.get_or_init(|| {
            let spawn = |k| {
                let builder = thread::Builder::new().name(format!("reason-pc-tile-{k}"));
                builder.spawn(move || self.help()).is_ok()
            };
            (0..count()).take_while(|&k| spawn(k)).count()
        })
    }

    /// The state, whatever a panicking thread left: every update of it
    /// is one assignment, so it is valid at every step, and no job runs
    /// under the lock.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A helper's life: sleep until a list is published, enter it,
    /// claim jobs until none is left, leave; forever.
    fn help(&self) {
        let mut buf = BatchBuffer::new();
        let mut seen = 0;
        loop {
            let job = {
                let mut state = self.lock();
                while state.job.is_none() || state.epoch == seen {
                    state = self.wake.wait(state).unwrap_or_else(PoisonError::into_inner);
                }
                seen = state.epoch;
                state.inside += 1;
                state.job.expect("a job is open")
            };
            // SAFETY: the helper entered the list under the lock while
            // it was open, and counted itself in `inside`. The caller's
            // `Open` guard closes the list under the lock, and its drop
            // does not return before it has read `inside == 0` under the
            // lock, so the `Job` (which outlives the guard) is alive
            // until this helper leaves below, and is not touched after.
            let job = unsafe { &*job.0 };
            let before = buf.counts();
            match panic::catch_unwind(AssertUnwindSafe(|| job.drain(&mut buf))) {
                Ok(()) => {
                    let after = buf.counts();
                    job.walks.fetch_add(after.0 - before.0, Ordering::Relaxed);
                    job.computed.fetch_add(after.1 - before.1, Ordering::Relaxed);
                }
                Err(payload) => {
                    // The tables may be half written: start afresh.
                    buf = BatchBuffer::new();
                    let mut first = job.panic.lock().unwrap_or_else(PoisonError::into_inner);
                    first.get_or_insert(payload);
                }
            }
            self.lock().inside -= 1;
        }
    }

    /// Publishes `job` to the helpers, unless the pool has none or
    /// another caller holds it. The pointer the helpers read has its
    /// lifetime erased; the returned guard restores the bound: its drop
    /// (on return, or while the caller's own tile unwinds) closes the
    /// list and waits for every helper that entered it to leave, and the
    /// guard borrows `job`, so `job` outlives every helper's use of it.
    /// The guard is never leaked.
    fn open<'j>(&self, job: &'j Job<'j>) -> Option<Open<'_, 'j>> {
        let helpers = self.helpers.get().copied().unwrap_or(0);
        if helpers == 0 {
            return None;
        }
        {
            let mut state = self.lock();
            if state.held {
                return None;
            }
            state.held = true;
            state.job = Some(JobPtr(std::ptr::from_ref(job).cast()));
            state.epoch += 1;
        }
        // A helper that is not asleep may enter too; waking more
        // helpers than there are jobs beyond the caller's wastes wakes.
        for _ in 0..helpers.min(job.jobs - 1) {
            self.wake.notify_one();
        }
        Some(Open { pool: self, job })
    }
}

/// A list published to a pool's helpers (see [`Pool::open`]).
struct Open<'p, 'j> {
    pool: &'p Pool,
    job: &'j Job<'j>,
}

impl Drop for Open<'_, '_> {
    fn drop(&mut self) {
        // Unclaimed jobs stay unwalked: on return there are none, and
        // while the caller unwinds nobody reads their results.
        self.job.next.fetch_max(self.job.jobs, Ordering::Relaxed);
        let mut state = self.pool.lock();
        state.job = None;
        // A helper inside has at most the tile in its hands left to
        // walk. Yielding, not parking on a condvar, keeps the caller's
        // core awake for it: the wake from a condvar costs about what
        // a helper saves on a small arena (see `FAN_OUT_NODE_LANES`).
        while state.inside > 0 {
            drop(state);
            thread::yield_now();
            state = self.pool.lock();
        }
        state.held = false;
    }
}

/// Walks jobs `0..jobs` with `walk`. The caller walks job 0 on `buf`,
/// then claims jobs from the list's counter; given a `pool` that no
/// other caller holds, and at least two jobs, the list is published
/// first, and every helper that wakes before it is empty claims jobs
/// too. The helpers' walk counts are added to `buf`'s, and a panic in a
/// helper's job is re-raised here once every claimed job has finished.
/// Returns whether the list was published.
pub(crate) fn walk_jobs(
    pool: Option<&Pool>,
    jobs: usize,
    buf: &mut BatchBuffer,
    walk: &Walk<'_>,
) -> bool {
    let job = Job {
        walk,
        jobs,
        next: AtomicUsize::new(1),
        walks: AtomicU64::new(0),
        computed: AtomicU64::new(0),
        panic: Mutex::new(None),
    };
    let open = pool.filter(|_| jobs >= 2).and_then(|pool| pool.open(&job));
    let published = open.is_some();
    if jobs > 0 {
        walk(0, buf);
    }
    job.drain(buf);
    drop(open);
    buf.add_counts((job.walks.into_inner(), job.computed.into_inner()));
    if let Some(payload) = job.panic.into_inner().unwrap_or_else(PoisonError::into_inner) {
        panic::resume_unwind(payload);
    }
    published
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// A pool of its own with `helpers` helpers, for the life of the
    /// test process.
    fn pool_of(helpers: usize) -> &'static Pool {
        let pool: &'static Pool = Box::leak(Box::new(Pool::new()));
        assert_eq!(pool.start(|| helpers), helpers);
        pool
    }

    /// Runs `jobs` jobs on `pool`, job 0 on the caller holding until
    /// every other job has finished, so helpers must walk them. Returns
    /// how many times each job ran and the threads that ran jobs 1…
    fn run_counted(pool: &Pool, jobs: usize) -> (Vec<usize>, Vec<thread::ThreadId>) {
        let runs: Vec<AtomicUsize> = (0..jobs).map(|_| AtomicUsize::new(0)).collect();
        let ran_on = Mutex::new(Vec::new());
        let (done, finished) = mpsc::channel::<()>();
        let (done, finished) = (Mutex::new(done), Mutex::new(finished));
        let walk = |i: usize, buf: &mut BatchBuffer| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            buf.add_counts((1, i as u64));
            if i == 0 {
                let finished = finished.lock().unwrap();
                for _ in 1..jobs {
                    let wait = finished.recv_timeout(Duration::from_secs(30));
                    wait.expect("a helper walks every other job");
                }
            } else {
                ran_on.lock().unwrap().push(thread::current().id());
                done.lock().unwrap().send(()).unwrap();
            }
        };
        let mut buf = BatchBuffer::new();
        let published = walk_jobs(Some(pool), jobs, &mut buf, &walk);
        assert_eq!(published, jobs >= 2, "{jobs} jobs");
        // Every job's walk was counted into the caller's buffer.
        assert_eq!(buf.walks(), jobs as u64);
        assert_eq!(buf.lanes_computed(), (0..jobs as u64).sum::<u64>());
        let runs = runs.iter().map(|r| r.load(Ordering::Relaxed)).collect();
        (runs, ran_on.into_inner().unwrap())
    }

    #[test]
    fn every_job_runs_exactly_once_and_helpers_walk_the_rest() {
        // Four helpers: fewer jobs than helpers, as many, and more.
        let pool = pool_of(4);
        let me = thread::current().id();
        for jobs in 0..12 {
            let (runs, ran_on) = run_counted(pool, jobs);
            assert_eq!(runs, vec![1; jobs], "{jobs} jobs");
            assert!(ran_on.iter().all(|&t| t != me), "{jobs} jobs: a helper walks jobs 1…");
        }
    }

    #[test]
    fn a_pool_without_helpers_walks_every_job_on_the_caller() {
        let pool = pool_of(0);
        let runs: Vec<AtomicUsize> = (0..5).map(|_| AtomicUsize::new(0)).collect();
        let me = thread::current().id();
        let walk = |i: usize, _: &mut BatchBuffer| {
            assert_eq!(thread::current().id(), me);
            runs[i].fetch_add(1, Ordering::Relaxed);
        };
        assert!(!walk_jobs(Some(pool), 5, &mut BatchBuffer::new(), &walk));
        assert!(!walk_jobs(None, 5, &mut BatchBuffer::new(), &walk));
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 2));
    }

    #[test]
    fn a_panic_on_a_helper_re_raises_on_the_caller_and_the_next_list_runs_whole() {
        let pool = pool_of(2);
        let (started, on_helper) = mpsc::channel::<()>();
        let (started, on_helper) = (Mutex::new(started), Mutex::new(on_helper));
        let walked = AtomicUsize::new(0);
        let walk = |i: usize, _: &mut BatchBuffer| {
            walked.fetch_add(1, Ordering::Relaxed);
            match i {
                // The caller holds job 0 until job 1 has started, so
                // job 1 runs on a helper.
                0 => {
                    let on_helper = on_helper.lock().unwrap();
                    on_helper.recv_timeout(Duration::from_secs(30)).expect("a helper takes job 1");
                }
                1 => {
                    started.lock().unwrap().send(()).unwrap();
                    panic!("job 1 fails on a helper");
                }
                _ => {}
            }
        };
        let mut buf = BatchBuffer::new();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            walk_jobs(Some(pool), 6, &mut buf, &walk);
        }));
        let payload = caught.expect_err("the helper's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job 1 fails on a helper"));
        // The caller walked every job nobody else claimed, then waited
        // for the helpers: every job ran by the time it re-raised.
        assert_eq!(walked.load(Ordering::Relaxed), 6);
        // The pool is free again and walks a whole list.
        let (runs, _) = run_counted(pool, 7);
        assert_eq!(runs, vec![1; 7]);
    }
}
