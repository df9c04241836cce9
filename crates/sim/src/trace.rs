//! Memory-access traces and locality statistics.
//!
//! The paper's profiling insight (Sec. III-B) is that symbolic and
//! probabilistic kernels issue *scattered, uncoalesced* accesses while
//! neural kernels stream. Traces here carry that distinction: they are
//! consumed by the cache simulator for hit rates and analyzed for warp
//! coalescing factors.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A byte-address access trace (sampled, not exhaustive).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessTrace {
    /// Byte addresses in issue order.
    pub addresses: Vec<u64>,
}

impl AccessTrace {
    /// Wraps raw addresses.
    #[cfg(test)]
    fn new(addresses: Vec<u64>) -> Self {
        AccessTrace { addresses }
    }

    /// A sequential streaming trace (`count` accesses of `stride` bytes).
    pub(crate) fn streaming(count: usize, stride: u64) -> Self {
        AccessTrace { addresses: (0..count as u64).map(|i| i * stride).collect() }
    }

    /// A uniformly random scatter over `footprint_bytes`.
    pub(crate) fn scattered(count: usize, footprint_bytes: u64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        AccessTrace {
            addresses: (0..count).map(|_| rng.gen_range(0..footprint_bytes) & !3).collect(),
        }
    }

    /// A pointer-chasing walk with short runs: `run_len` sequential words
    /// then a random jump — the watch-list / linked-list pattern of logic
    /// kernels.
    pub(crate) fn pointer_chasing(
        count: usize,
        footprint_bytes: u64,
        run_len: usize,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut addresses = Vec::with_capacity(count);
        let mut cur = rng.gen_range(0..footprint_bytes) & !3;
        for i in 0..count {
            if i % run_len == 0 {
                cur = rng.gen_range(0..footprint_bytes) & !3;
            } else {
                cur = (cur + 4) % footprint_bytes;
            }
            addresses.push(cur);
        }
        AccessTrace { addresses }
    }

    /// Warp coalescing factor in `(0, 1]`: for each window of 32
    /// consecutive accesses (one warp), the ratio of the minimum possible
    /// memory transactions (1) to the 128-byte lines actually touched.
    /// Streaming word accesses approach 1.0; random scatters approach
    /// 1/32.
    pub(crate) fn coalescing_factor(&self) -> f64 {
        if self.addresses.is_empty() {
            return 1.0;
        }
        let mut total_lines = 0usize;
        let mut windows = 0usize;
        for chunk in self.addresses.chunks(32) {
            let mut lines: Vec<u64> = chunk.iter().map(|a| a / 128).collect();
            lines.sort_unstable();
            lines.dedup();
            total_lines += lines.len();
            windows += 1;
        }
        windows as f64 / total_lines as f64
    }

    /// Unique bytes touched (footprint), assuming 4-byte words.
    #[cfg(test)]
    fn footprint_bytes(&self) -> u64 {
        let mut words: Vec<u64> = self.addresses.iter().map(|a| a / 4).collect();
        words.sort_unstable();
        words.dedup();
        4 * words.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_coalesces_perfectly() {
        let t = AccessTrace::streaming(1024, 4);
        assert!(t.coalescing_factor() > 0.9, "factor {}", t.coalescing_factor());
    }

    #[test]
    fn scatter_coalesces_poorly() {
        let t = AccessTrace::scattered(1024, 1 << 24, 1);
        assert!(t.coalescing_factor() < 0.05, "factor {}", t.coalescing_factor());
    }

    #[test]
    fn pointer_chasing_sits_in_between() {
        let t = AccessTrace::pointer_chasing(1024, 1 << 22, 8, 2);
        let f = t.coalescing_factor();
        assert!(f > 0.05 && f < 0.9, "factor {f}");
    }

    #[test]
    fn footprint_counts_unique_words() {
        let t = AccessTrace::new(vec![0, 4, 8, 0, 4]);
        assert_eq!(t.footprint_bytes(), 12);
    }

    #[test]
    fn deterministic_generation() {
        assert_eq!(AccessTrace::scattered(64, 1024, 7), AccessTrace::scattered(64, 1024, 7));
    }
}
