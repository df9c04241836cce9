//! The persistent compiled-circuit store: cost-aware, byte-metered.
//!
//! A [`CircuitStore`] maps [`FormulaFingerprint`]s to compiled
//! artifacts so that *every* query after a knowledge base's first
//! compilation is answered from the store instead of repaying
//! compilation. Entries carry the flat d-DNNF arena (the serving hot
//! path, whose root also holds the weighted model count:
//! [`Dnnf::wmc`]), the source circuit (one allocation shared with the
//! owning knowledge base's engine entry, which re-flattens it after an
//! eviction and trains the predictor from it), and the compile
//! telemetry the router's cost model feeds on.
//!
//! The store is bounded two ways — entry count and total artifact
//! bytes — and evicts entries when either bound is crossed. The victim
//! is cost-aware: each entry scores `bytes × EWMA recompile seconds`
//! (the telemetry every insertion already carries) and the *minimum*
//! goes — the entry whose loss is cheapest to repay — with recency only
//! breaking ties. Small artifacts that are cheap to rebuild go first,
//! while large circuits that took real compile time stick around even
//! when a stream of one-shot keys churns the recency order. The EWMA
//! survives eviction (keyed by digest), so a key that keeps bouncing in
//! and out remembers what its recompilations cost. Plain LRU loses to
//! this rule on recompile-heavy traces (`tests/eviction_regression.rs`
//! replays one against an LRU model).
//!
//! Each slot keeps its artifact's size, read once at insert
//! ([`StoredCircuit::bytes`] walks the circuit), so a victim search is
//! one O(entries) pass over stored sizes, recompile costs and recency,
//! and the byte meter moves by the stored size on overwrite and
//! removal. Eviction is safe by construction: recompiling the same
//! `(formula, weights)` key reproduces the artifact bit-for-bit (see
//! the store round-trip property tests), so an evicted entry costs
//! latency, never correctness.

use std::collections::HashMap;
use std::sync::Arc;

use reason_pc::{Circuit, CompileStats, Dnnf};
use reason_telemetry::{Counter, Gauge, Telemetry};

use crate::fingerprint::FormulaFingerprint;

/// Size bounds of a [`CircuitStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Maximum live entries.
    pub max_entries: usize,
    /// Maximum total artifact bytes (arena + circuit estimates). A
    /// single artifact larger than the bound is still admitted — the
    /// bound then holds everything *else* out.
    pub max_bytes: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig { max_entries: 64, max_bytes: 64 << 20 }
    }
}

/// One compiled artifact.
#[derive(Debug, Clone)]
pub struct StoredCircuit {
    /// The flat, evaluation-ready d-DNNF arena, shared: batch execution
    /// hands the same arena to `reason_system`'s batched serve lane
    /// without copying the node table.
    pub dnnf: Arc<Dnnf>,
    /// The source circuit, shared (not copied) with the engine entry of
    /// the knowledge base it was compiled for.
    pub circuit: Arc<Circuit>,
    /// Seconds the producing compilation took.
    pub compile_s: f64,
    /// The producing compilation's counters.
    pub stats: CompileStats,
}

impl StoredCircuit {
    /// Artifact footprint metered against [`StoreConfig::max_bytes`].
    /// The metered circuit may alias the node array of its knowledge
    /// base's component cache (a compile whose search left no dead node
    /// returns that array itself), so evicting the artifact always
    /// frees the arena but not necessarily the nodes.
    ///
    /// This walks the circuit's node array
    /// ([`Circuit::footprint_bytes`]); a [`CircuitStore`] reads it once
    /// per insert and keeps the value for scoring and metering.
    pub fn bytes(&self) -> usize {
        self.dnnf.bytes() + self.circuit.footprint_bytes()
    }
}

/// Hit/miss/eviction counters plus current occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Artifacts inserted.
    pub insertions: u64,
    /// Artifacts evicted by the size bounds.
    pub evictions: u64,
    /// Live entries right now.
    pub entries: usize,
    /// Live artifact bytes right now.
    pub bytes: usize,
}

impl CacheStats {
    /// Hits as a fraction of all lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Slot {
    value: StoredCircuit,
    /// `value.bytes()`, read once when the slot is made: a stored
    /// artifact never changes, and re-measuring it walks its circuit.
    bytes: usize,
    last_used: u64,
    /// EWMA of the recompile seconds observed for this key, carried
    /// from `recompile_ewma` at insertion time.
    cost_s: f64,
}

impl Slot {
    /// Retention score: the recompile seconds an eviction would
    /// eventually repay, weighted by footprint (bytes and compile effort
    /// grow together on this workload, so the product separates
    /// throwaway artifacts from the ones worth pinning).
    fn score(&self) -> f64 {
        self.bytes as f64 * self.cost_s
    }
}

/// Cached registry handles for an attached telemetry sink — resolved
/// once at attach time so the lookup hot path pays one atomic
/// increment, never a registry lock.
#[derive(Debug)]
struct StoreMetrics {
    hits: Counter,
    misses: Counter,
    insertions: Counter,
    evictions: Counter,
    entries: Gauge,
    bytes: Gauge,
}

impl StoreMetrics {
    fn new(tel: &Telemetry, labels: &[(&str, &str)]) -> Self {
        let mut hit = labels.to_vec();
        hit.push(("result", "hit"));
        let mut miss = labels.to_vec();
        miss.push(("result", "miss"));
        StoreMetrics {
            hits: tel.registry.counter("store_lookups_total", &hit),
            misses: tel.registry.counter("store_lookups_total", &miss),
            insertions: tel.registry.counter("store_insertions_total", labels),
            evictions: tel.registry.counter("store_evictions_total", labels),
            entries: tel.registry.gauge("store_entries", labels),
            bytes: tel.registry.gauge("store_bytes", labels),
        }
    }
}

/// The bounded compiled-circuit store (see the [module docs](self)).
pub struct CircuitStore {
    config: StoreConfig,
    entries: HashMap<FormulaFingerprint, Slot>,
    /// Per-digest EWMA of observed recompile seconds. Outlives the
    /// entries themselves so eviction does not erase the cost history
    /// that justifies keeping a key next time.
    recompile_ewma: HashMap<u64, f64>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    metrics: Option<StoreMetrics>,
}

impl CircuitStore {
    /// An empty store with the given bounds.
    pub fn new(config: StoreConfig) -> Self {
        CircuitStore {
            config,
            entries: HashMap::new(),
            recompile_ewma: HashMap::new(),
            bytes: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
            metrics: None,
        }
    }

    /// Attaches a telemetry sink: every lookup, insertion, and eviction
    /// from now on lands in `store_lookups_total{result}` /
    /// `store_insertions_total` / `store_evictions_total` counters and
    /// the `store_entries` / `store_bytes` occupancy gauges, all tagged
    /// with `labels` (the serving layers pass `shard`).
    pub(crate) fn attach_telemetry(&mut self, tel: &Telemetry, labels: &[(&str, &str)]) {
        let metrics = StoreMetrics::new(tel, labels);
        metrics.entries.set(self.entries.len() as f64);
        metrics.bytes.set(self.bytes as f64);
        self.metrics = Some(metrics);
    }

    fn sync_occupancy_gauges(&self) {
        if let Some(m) = &self.metrics {
            m.entries.set(self.entries.len() as f64);
            m.bytes.set(self.bytes as f64);
        }
    }

    /// Looks an artifact up, counting the hit/miss and refreshing the
    /// entry's recency on a hit.
    pub fn get(&mut self, key: &FormulaFingerprint) -> Option<&StoredCircuit> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some(slot) => {
                slot.last_used = self.tick;
                self.hits += 1;
                if let Some(m) = &self.metrics {
                    m.hits.inc();
                }
                Some(&slot.value)
            }
            None => {
                self.misses += 1;
                if let Some(m) = &self.metrics {
                    m.misses.inc();
                }
                None
            }
        }
    }

    /// `true` when the key is live — no recency bump, no hit/miss
    /// accounting.
    pub fn contains(&self, key: &FormulaFingerprint) -> bool {
        self.entries.contains_key(key)
    }

    /// Reads an entry without touching counters or recency — for a
    /// caller that just paid the accounting through
    /// [`get`](Self::get) and needs a second (immutable) look.
    pub fn peek(&self, key: &FormulaFingerprint) -> Option<&StoredCircuit> {
        self.entries.get(key).map(|slot| &slot.value)
    }

    /// Inserts (or replaces) an artifact, then evicts the lowest-scoring
    /// entries (least recently used first among equal scores) until both
    /// bounds hold again. The newly inserted artifact is never the eviction
    /// victim. The artifact's `compile_s` telemetry folds into the
    /// key's recompile-cost EWMA before the victim search, so a
    /// re-inserted key is judged by its whole recompilation history.
    pub fn insert(&mut self, key: FormulaFingerprint, value: StoredCircuit) {
        self.tick += 1;
        self.insertions += 1;
        if let Some(m) = &self.metrics {
            m.insertions.inc();
        }
        let bytes = value.bytes();
        let cost_s = match self.recompile_ewma.get(&key.digest()) {
            Some(&old) => 0.7 * old + 0.3 * value.compile_s.max(0.0),
            None => value.compile_s.max(0.0),
        };
        self.recompile_ewma.insert(key.digest(), cost_s);
        let slot = Slot { value, bytes, last_used: self.tick, cost_s };
        if let Some(old) = self.entries.insert(key.clone(), slot) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        while self.entries.len() > self.config.max_entries
            || (self.bytes > self.config.max_bytes && self.entries.len() > 1)
        {
            let victim = self
                .entries
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by(|(_, a), (_, b)| {
                    a.score().total_cmp(&b.score()).then(a.last_used.cmp(&b.last_used))
                })
                .map(|(k, _)| k.clone());
            match victim {
                Some(v) => {
                    self.remove(&v);
                    self.evictions += 1;
                    if let Some(m) = &self.metrics {
                        m.evictions.inc();
                    }
                }
                None => break, // only the fresh entry remains
            }
        }
        self.sync_occupancy_gauges();
    }

    /// Drops every entry at once (fault-injection cache wipes). The
    /// recompile-cost history survives, so re-inserted keys are still
    /// judged by their full recompilation record.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.bytes = 0;
        self.sync_occupancy_gauges();
    }

    /// Removes an entry outright (KB deregistration), returning it.
    pub fn remove(&mut self, key: &FormulaFingerprint) -> Option<StoredCircuit> {
        let removed = self.entries.remove(key).map(|slot| {
            self.bytes -= slot.bytes;
            slot.value
        });
        self.sync_occupancy_gauges();
        removed
    }

    /// Number of live entries.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is stored.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counters plus current occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            insertions: self.insertions,
            evictions: self.evictions,
            entries: self.entries.len(),
            bytes: self.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reason_pc::{compile_cnf, compile_cnf_with, CompileOptions, WmcWeights};
    use reason_sat::gen::random_ksat;
    use reason_sat::Cnf;

    fn artifact(seed: u64) -> (FormulaFingerprint, StoredCircuit) {
        artifact_costing(seed, 1e-3)
    }

    fn artifact_costing(seed: u64, compile_s: f64) -> (FormulaFingerprint, StoredCircuit) {
        let mut s = seed;
        loop {
            let cnf = random_ksat(8, 20, 3, s);
            let w = WmcWeights::uniform(8);
            let (circuit, stats) = compile_cnf_with(&cnf, &w, CompileOptions::default());
            if let Some(circuit) = circuit.map(Arc::new) {
                let dnnf = Arc::new(Dnnf::from_circuit(&circuit).unwrap());
                let fp = FormulaFingerprint::new(&cnf, &w);
                return (fp, StoredCircuit { dnnf, circuit, compile_s, stats });
            }
            s += 1000;
        }
    }

    #[test]
    fn hit_miss_and_recency_accounting() {
        let mut store = CircuitStore::new(StoreConfig::default());
        let (fp, art) = artifact(1);
        assert!(store.get(&fp).is_none());
        store.insert(fp.clone(), art);
        assert!(store.get(&fp).is_some());
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    /// `count` distinct keys over one artifact body, so every entry
    /// scores the same and recency alone picks the victim.
    fn equal_scores(count: usize) -> Vec<(FormulaFingerprint, StoredCircuit)> {
        let (_, body) = artifact(1);
        (0..count)
            .map(|k| {
                let w = WmcWeights::new(vec![0.1 + 0.1 * k as f64; 8]);
                (FormulaFingerprint::from_parts(8, &[], &w), body.clone())
            })
            .collect()
    }

    #[test]
    fn entry_bound_evicts_least_recently_used() {
        let mut store = CircuitStore::new(StoreConfig { max_entries: 2, max_bytes: usize::MAX });
        let mut keys = equal_scores(3).into_iter();
        let (fp_a, a) = keys.next().unwrap();
        let (fp_b, b) = keys.next().unwrap();
        let (fp_c, c) = keys.next().unwrap();
        store.insert(fp_a.clone(), a);
        store.insert(fp_b.clone(), b);
        let _ = store.get(&fp_a); // refresh A: B becomes the LRU victim
        store.insert(fp_c.clone(), c);
        assert!(store.contains(&fp_a));
        assert!(!store.contains(&fp_b), "stale entry must be evicted");
        assert!(store.contains(&fp_c));
        assert_eq!(store.stats().evictions, 1);
    }

    #[test]
    fn byte_bound_holds_but_admits_a_single_oversized_artifact() {
        let (fp_a, a) = artifact(1);
        let (fp_b, b) = artifact(2);
        let tiny = a.bytes() / 2;
        let mut store = CircuitStore::new(StoreConfig { max_entries: 10, max_bytes: tiny });
        store.insert(fp_a.clone(), a);
        assert_eq!(store.len(), 1, "oversized single artifact is admitted");
        store.insert(fp_b.clone(), b);
        assert_eq!(store.len(), 1, "byte bound evicts the older artifact");
        assert!(store.contains(&fp_b));
    }

    #[test]
    fn recompilation_reproduces_evicted_artifacts_bit_for_bit() {
        let cnf = Cnf::from_clauses(6, vec![vec![1, 2], vec![-2, 3], vec![4, 5, -6]]);
        let w = WmcWeights::new(vec![0.4, 0.55, 0.5, 0.35, 0.6, 0.45]);
        let first = compile_cnf(&cnf, &w).unwrap();
        let z_first = Dnnf::from_circuit(&first).unwrap().wmc();
        // "Evict" and recompile from scratch: identical key → identical
        // artifact → identical bits.
        let second = compile_cnf(&cnf, &w).unwrap();
        assert_eq!(first, second);
        let z_second = Dnnf::from_circuit(&second).unwrap().wmc();
        assert_eq!(z_first.to_bits(), z_second.to_bits());
    }

    #[test]
    fn overwrite_then_evict_keeps_stats_in_sync_with_live_entries() {
        // The full re-insert lifecycle: byte accounting must track the
        // *live* artifacts exactly through overwrites (the old entry's
        // footprint leaves the meter, the new one enters — never both)
        // and through the evictions an oversized overwrite triggers.
        let (fp_a, a) = artifact(1);
        let (fp_b, b) = artifact(2);
        let (_, a2) = artifact(3);
        let (bytes_a, bytes_b, bytes_a2) = (a.bytes(), b.bytes(), a2.bytes());
        // Byte bound fits both originals plus slack, but not an extra
        // stale copy of A: if an overwrite double-counted, the meter
        // would cross the bound and evict spuriously.
        let budget = bytes_a + bytes_b + bytes_a2.max(bytes_a);
        let mut store = CircuitStore::new(StoreConfig { max_entries: 8, max_bytes: budget });
        store.insert(fp_a.clone(), a);
        store.insert(fp_b.clone(), b);
        assert_eq!(store.stats().bytes, bytes_a + bytes_b);

        // Overwrite A in place: same key, new artifact.
        store.insert(fp_a.clone(), a2);
        let stats = store.stats();
        assert_eq!(stats.entries, 2, "overwrite must not grow the store");
        assert_eq!(
            stats.bytes,
            bytes_a2 + bytes_b,
            "overwrite must swap A's footprint, not accumulate it"
        );
        assert_eq!(stats.evictions, 0, "a within-budget overwrite must not evict");
        assert_eq!(stats.insertions, 3);

        // Meter integrity: the stats byte count equals the recomputed
        // footprints of exactly the live entries.
        let live: usize = [&fp_a, &fp_b].iter().map(|fp| store.peek(fp).unwrap().bytes()).sum();
        assert_eq!(store.stats().bytes, live);

        // An overwrite that blows the byte budget evicts the other
        // entry (B), never the just-refreshed key.
        let mut store =
            CircuitStore::new(StoreConfig { max_entries: 8, max_bytes: bytes_a + bytes_b });
        let (_, a) = artifact(1);
        let (_, b) = artifact(2);
        let (_, big) = (3..)
            .map(artifact)
            .find(|(_, art)| art.bytes() > bytes_a)
            .expect("some artifact outgrows A");
        let big_bytes = big.bytes();
        store.insert(fp_a.clone(), a);
        store.insert(fp_b.clone(), b);
        store.insert(fp_a.clone(), big); // bytes_a2 + bytes_b > budget
        assert!(store.contains(&fp_a), "the fresh entry is never the victim");
        assert!(!store.contains(&fp_b), "the other entry pays for the overgrown overwrite");
        let stats = store.stats();
        assert_eq!((stats.entries, stats.evictions), (1, 1));
        assert_eq!(stats.bytes, big_bytes);
    }

    #[test]
    fn replacing_an_entry_keeps_byte_accounting_consistent() {
        let mut store = CircuitStore::new(StoreConfig::default());
        let (fp, a) = artifact(1);
        let bytes_a = a.bytes();
        store.insert(fp.clone(), a);
        assert_eq!(store.stats().bytes, bytes_a);
        let (_, b) = artifact(5);
        let bytes_b = b.bytes();
        store.insert(fp.clone(), b);
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().bytes, bytes_b);
        store.remove(&fp);
        assert_eq!(store.stats().bytes, 0);
        assert!(store.is_empty());
    }

    #[test]
    fn cost_aware_eviction_protects_expensive_artifacts_over_recent_cheap_ones() {
        let mut store = CircuitStore::new(StoreConfig { max_entries: 2, max_bytes: usize::MAX });
        let (fp_dear, dear) = artifact_costing(1, 2.0); // seconds to recompile
        let (fp_cheap, cheap) = artifact_costing(2, 1e-6);
        let (fp_new, fresh) = artifact_costing(3, 1e-6);
        store.insert(fp_dear.clone(), dear);
        store.insert(fp_cheap.clone(), cheap);
        let _ = store.get(&fp_cheap); // cheap entry is the *most* recent
        store.insert(fp_new.clone(), fresh);
        assert!(store.contains(&fp_dear), "expensive artifact must survive the churn");
        assert!(!store.contains(&fp_cheap), "cheapest-to-repay entry is the victim");
        assert!(store.contains(&fp_new));
    }

    #[test]
    fn recompile_cost_ewma_survives_eviction() {
        // A key whose compilations cost 1.0s is evicted, then
        // re-inserted with an optimistic compile_s of 0 (e.g. a
        // near-free persistent-cache rebuild). The EWMA must remember
        // the expensive history: 0.7 * 1.0 + 0.3 * 0.0 = 0.7s, which
        // still outranks a genuinely cheap competitor.
        let mut store = CircuitStore::new(StoreConfig { max_entries: 1, max_bytes: usize::MAX });
        let (fp_dear, dear) = artifact_costing(1, 1.0);
        let (_, dear_rebuilt) = artifact_costing(1, 0.0);
        let (fp_cheap, cheap) = artifact_costing(2, 1e-6);
        store.insert(fp_dear.clone(), dear);
        store.insert(fp_cheap.clone(), cheap); // evicts dear (only other entry)
        assert!(!store.contains(&fp_dear));
        store.insert(fp_dear.clone(), dear_rebuilt); // evicts cheap
        assert_eq!(store.entries[&fp_dear].cost_s, 0.7, "EWMA folds the evicted history back in");
        assert_eq!(store.stats().evictions, 2);
    }

    #[test]
    fn cost_aware_ties_break_least_recently_used() {
        let mut store = CircuitStore::new(StoreConfig { max_entries: 2, max_bytes: usize::MAX });
        // Give two *distinct* keys identical scores by storing one
        // artifact body under two fingerprints.
        let (fp_a, a) = artifact_costing(1, 1e-3);
        let (fp_c, c) = artifact_costing(3, 1e-3);
        let fp_b = FormulaFingerprint::from_parts(8, &[], &WmcWeights::new(vec![0.4; 8]));
        let b = a.clone();
        store.insert(fp_a.clone(), a);
        store.insert(fp_b.clone(), b);
        let _ = store.get(&fp_a); // equal scores: B is now the older entry
        store.insert(fp_c.clone(), c); // victim search is over {A, B} only
        assert!(store.contains(&fp_a));
        assert!(!store.contains(&fp_b), "score tie must fall back to recency");
    }
}
