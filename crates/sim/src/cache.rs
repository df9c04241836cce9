//! Set-associative LRU cache simulation.

use serde::{Deserialize, Serialize};

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// A 128 KiB, 128 B-line, 4-way L1 (the paper's simulated GPU L1).
    pub(crate) fn gpu_l1() -> Self {
        CacheConfig { capacity_bytes: 128 * 1024, line_bytes: 128, ways: 4 }
    }

    /// A 2 MiB, 128 B-line, 16-way L2.
    pub(crate) fn gpu_l2() -> Self {
        CacheConfig { capacity_bytes: 2 * 1024 * 1024, line_bytes: 128, ways: 16 }
    }

    /// Number of sets.
    fn num_sets(&self) -> usize {
        self.capacity_bytes / (self.line_bytes * self.ways)
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Accesses served from the cache.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (1 when no accesses occurred).
    pub(crate) fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A set-associative LRU cache.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `sets[set]` holds tags in LRU order (front = most recent).
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
}

impl Cache {
    /// An empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets or ways).
    pub(crate) fn new(config: CacheConfig) -> Self {
        assert!(config.ways >= 1, "need at least one way");
        assert!(config.num_sets() >= 1, "capacity too small for geometry");
        Cache { config, sets: vec![Vec::new(); config.num_sets()], stats: CacheStats::default() }
    }

    /// Counters so far.
    pub(crate) fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Touches a byte address; returns `true` on hit.
    pub(crate) fn access(&mut self, address: u64) -> bool {
        let line = address / self.config.line_bytes as u64;
        let set = (line % self.sets.len() as u64) as usize;
        let tag = line / self.sets.len() as u64;
        let entries = &mut self.sets[set];
        if let Some(pos) = entries.iter().position(|&t| t == tag) {
            entries.remove(pos);
            entries.insert(0, tag);
            self.stats.hits += 1;
            true
        } else {
            entries.insert(0, tag);
            entries.truncate(self.config.ways);
            self.stats.misses += 1;
            false
        }
    }

    /// Runs a whole trace, returning the stats delta.
    #[cfg(test)]
    fn run(&mut self, addresses: &[u64]) -> CacheStats {
        let before = self.stats;
        for &a in addresses {
            self.access(a);
        }
        CacheStats {
            hits: self.stats.hits - before.hits,
            misses: self.stats.misses - before.misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(CacheConfig { capacity_bytes: 1024, line_bytes: 64, ways: 2 });
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction() {
        // 1 set, 2 ways, 64B lines.
        let mut c = Cache::new(CacheConfig { capacity_bytes: 128, line_bytes: 64, ways: 2 });
        c.access(0); // line A
        c.access(64); // line B
        c.access(128); // line C evicts A
        assert!(!c.access(0), "A was evicted");
        assert!(c.access(128), "C stays resident");
    }

    #[test]
    fn streaming_misses_small_cache() {
        let mut c = Cache::new(CacheConfig { capacity_bytes: 4096, line_bytes: 128, ways: 4 });
        let trace: Vec<u64> = (0..1000u64).map(|i| i * 128).collect();
        let stats = c.run(&trace);
        assert_eq!(stats.hits, 0, "pure streaming never re-touches a line");
    }

    #[test]
    fn working_set_that_fits_hits_after_warmup() {
        let mut c = Cache::new(CacheConfig::gpu_l1());
        let trace: Vec<u64> = (0..256u64).map(|i| i * 128).collect();
        c.run(&trace); // warmup
        let stats = c.run(&trace);
        assert_eq!(stats.misses, 0, "32 KiB working set fits a 128 KiB L1");
    }

    #[test]
    fn hit_rate_bounds() {
        let s = CacheStats { hits: 3, misses: 1 };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 1.0);
    }
}
