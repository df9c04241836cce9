//! Shared-memory flag synchronization (paper Sec. VI-B).
//!
//! "After executing \[the\] LLM kernel, SMs write the output to shared
//! memory and set \[the\] `neural_ready` flag. REASON polls this flag,
//! fetches the data, and performs symbolic reasoning. It then writes the
//! result back to shared memory and sets \[the\] `symbolic_ready` flag."
//!
//! The model is thread-safe (host and device sides may run on different
//! threads in tests and in the pipeline driver).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

#[derive(Debug, Default)]
struct Slot {
    neural: Option<Vec<f64>>,
    symbolic: Option<Vec<f64>>,
}

#[derive(Debug, Default)]
struct Inner {
    slots: HashMap<u64, Slot>,
}

/// The shared-memory region coordinating GPU SMs and REASON.
///
/// Cloning shares the region (both sides hold handles).
#[derive(Debug, Clone, Default)]
pub struct SharedMemory {
    inner: Arc<(Mutex<Inner>, Condvar)>,
}

impl SharedMemory {
    /// An empty region.
    pub fn new() -> Self {
        SharedMemory::default()
    }

    /// GPU side: publishes neural results for a batch and raises
    /// `neural_ready`.
    pub fn publish_neural(&self, batch: u64, data: Vec<f64>) {
        let (lock, cv) = &*self.inner;
        lock.lock().slots.entry(batch).or_default().neural = Some(data);
        cv.notify_all();
    }

    /// Device side: consumes neural results if ready (`neural_ready`
    /// poll + fetch).
    pub(crate) fn take_neural(&self, batch: u64) -> Option<Vec<f64>> {
        let (lock, _) = &*self.inner;
        lock.lock().slots.get_mut(&batch).and_then(|s| s.neural.take())
    }

    /// Device side: blocks until `neural_ready` for a batch, then
    /// consumes.
    pub fn wait_neural(&self, batch: u64) -> Vec<f64> {
        let (lock, cv) = &*self.inner;
        let mut guard = lock.lock();
        loop {
            if let Some(data) = guard.slots.get_mut(&batch).and_then(|s| s.neural.take()) {
                return data;
            }
            cv.wait(&mut guard);
        }
    }

    /// Device side: publishes symbolic results and raises
    /// `symbolic_ready`.
    pub(crate) fn publish_symbolic(&self, batch: u64, data: Vec<f64>) {
        let (lock, cv) = &*self.inner;
        lock.lock().slots.entry(batch).or_default().symbolic = Some(data);
        cv.notify_all();
    }

    /// Host side: checks `symbolic_ready` without blocking.
    pub fn symbolic_ready(&self, batch: u64) -> bool {
        let (lock, _) = &*self.inner;
        lock.lock().slots.get(&batch).is_some_and(|s| s.symbolic.is_some())
    }

    /// Host side: blocks until symbolic results arrive, then consumes.
    pub fn wait_symbolic(&self, batch: u64) -> Vec<f64> {
        let (lock, cv) = &*self.inner;
        let mut guard = lock.lock();
        loop {
            if let Some(data) = guard.slots.get_mut(&batch).and_then(|s| s.symbolic.take()) {
                return data;
            }
            cv.wait(&mut guard);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_round_trip_single_thread() {
        let shm = SharedMemory::new();
        assert!(!shm.symbolic_ready(0));
        shm.publish_neural(0, vec![1.0, 2.0]);
        assert_eq!(shm.take_neural(0), Some(vec![1.0, 2.0]));
        assert_eq!(shm.take_neural(0), None, "flag consumed");
        shm.publish_symbolic(0, vec![3.0]);
        assert!(shm.symbolic_ready(0));
        assert_eq!(shm.wait_symbolic(0), vec![3.0]);
    }

    #[test]
    fn cross_thread_handoff() {
        let shm = SharedMemory::new();
        let device = shm.clone();
        crossbeam::thread::scope(|scope| {
            // Device thread: waits for neural data, doubles it, publishes.
            scope.spawn(move |_| {
                let data = device.wait_neural(7);
                let out: Vec<f64> = data.iter().map(|x| 2.0 * x).collect();
                device.publish_symbolic(7, out);
            });
            // Host thread.
            shm.publish_neural(7, vec![1.5, 2.5]);
            let result = shm.wait_symbolic(7);
            assert_eq!(result, vec![3.0, 5.0]);
        })
        .expect("threads joined");
    }

    #[test]
    fn batches_are_independent() {
        let shm = SharedMemory::new();
        shm.publish_neural(1, vec![1.0]);
        shm.publish_neural(2, vec![2.0]);
        assert_eq!(shm.take_neural(2), Some(vec![2.0]));
        assert_eq!(shm.take_neural(1), Some(vec![1.0]));
    }
}
