//! Pinned eviction-policy regression: cost-aware eviction must beat
//! plain LRU on a recompile-heavy serving trace.
//!
//! The trace is the pattern that motivated the policy: a couple of
//! expensive knowledge bases stay hot forever while bursts of cheap
//! one-shot formulas stream past between their accesses. Under LRU the
//! streamers churn the recency order and push the expensive artifacts
//! out right before every re-access; the cost-aware score
//! (`bytes × EWMA recompile seconds`) lets the streamers evict each
//! other instead. The counts below are exact and deterministic — a
//! revert of the store's cost-aware victim rule fails this file, it
//! cannot drift quietly.
//!
//! A second, byte-bound trace pins the exact *order* in which keys leave
//! under both rules: artifacts of mixed sizes, varied recompile costs,
//! overwrites and lookups between the inserts. Its expected sequences
//! were read from the store that re-measured every artifact's footprint
//! on each victim comparison, so a store that ranks victims from sizes
//! kept at insert must evict exactly the same keys.
//!
//! The store has one victim rule. The LRU baseline both traces compare
//! against is [`LruModel`], a least-recently-used store kept in this
//! file: its sequences were read from the store's own LRU mode before
//! that mode was retired, and stay pinned unedited.

use std::sync::Arc;

use reason::pc::{compile_cnf_with, CompileOptions, Dnnf, WmcWeights};
use reason::sat::gen::random_ksat;
use reason::serve::{CircuitStore, FormulaFingerprint, StoreConfig, StoredCircuit};

/// A compiled artifact over a random satisfiable `n`-variable 3-CNF at
/// clause ratio 2.5, tagged with the compile cost the store will judge
/// it by.
fn sized_artifact(n: usize, seed: u64, compile_s: f64) -> (FormulaFingerprint, StoredCircuit) {
    let mut s = seed;
    loop {
        let cnf = random_ksat(n, 5 * n / 2, 3, s);
        let w = WmcWeights::uniform(n);
        let (circuit, stats) = compile_cnf_with(&cnf, &w, CompileOptions::default());
        if let Some(circuit) = circuit.map(Arc::new) {
            let dnnf = Arc::new(Dnnf::from_circuit(&circuit).unwrap());
            let fp = FormulaFingerprint::new(&cnf, &w);
            return (fp, StoredCircuit { dnnf, compile_s, stats });
        }
        s += 1000;
    }
}

/// What a trace replay needs of a store.
trait Store {
    fn new(config: StoreConfig) -> Self;
    /// A counted lookup: `true` on a hit, which refreshes recency.
    fn get(&mut self, key: &FormulaFingerprint) -> bool;
    fn contains(&self, key: &FormulaFingerprint) -> bool;
    fn insert(&mut self, key: FormulaFingerprint, value: StoredCircuit);
}

impl Store for CircuitStore {
    fn new(config: StoreConfig) -> Self {
        CircuitStore::new(config)
    }

    fn get(&mut self, key: &FormulaFingerprint) -> bool {
        CircuitStore::get(self, key).is_some()
    }

    fn contains(&self, key: &FormulaFingerprint) -> bool {
        CircuitStore::contains(self, key)
    }

    fn insert(&mut self, key: FormulaFingerprint, value: StoredCircuit) {
        CircuitStore::insert(self, key, value);
    }
}

/// A least-recently-used store under the same bounds: every lookup and
/// insert advances one clock, a hit or an insert stamps its key, and
/// while a bound is crossed the stalest key other than the fresh one
/// leaves (the byte bound never evicts the last entry).
struct LruModel {
    config: StoreConfig,
    /// `(key, bytes, last used)`.
    slots: Vec<(FormulaFingerprint, usize, u64)>,
    tick: u64,
}

impl Store for LruModel {
    fn new(config: StoreConfig) -> Self {
        LruModel { config, slots: Vec::new(), tick: 0 }
    }

    fn get(&mut self, key: &FormulaFingerprint) -> bool {
        self.tick += 1;
        let slot = self.slots.iter_mut().find(|(k, ..)| k == key);
        slot.map(|(_, _, used)| *used = self.tick).is_some()
    }

    fn contains(&self, key: &FormulaFingerprint) -> bool {
        self.slots.iter().any(|(k, ..)| k == key)
    }

    fn insert(&mut self, key: FormulaFingerprint, value: StoredCircuit) {
        self.tick += 1;
        self.slots.retain(|(k, ..)| *k != key);
        self.slots.push((key.clone(), value.bytes(), self.tick));
        while self.slots.len() > self.config.max_entries
            || (self.slots.iter().map(|s| s.1).sum::<usize>() > self.config.max_bytes
                && self.slots.len() > 1)
        {
            let stalest = (0..self.slots.len())
                .filter(|&i| self.slots[i].0 != key)
                .min_by_key(|&i| self.slots[i].2)
                .expect("another entry is live");
            self.slots.remove(stalest);
        }
    }
}

/// An 8-variable [`sized_artifact`].
fn artifact(seed: u64, compile_s: f64) -> (FormulaFingerprint, StoredCircuit) {
    sized_artifact(8, seed, compile_s)
}

/// Replays the trace against one store under `config`. Returns the
/// number of hot-key recompilations (a miss on a key that was already
/// compiled once) and the seconds those recompilations repay.
fn run_trace<S: Store>(config: StoreConfig) -> (u64, f64) {
    const HOT_COMPILE_S: f64 = 0.5;
    const CHEAP_COMPILE_S: f64 = 1e-3;
    let hot: Vec<_> = (0..2).map(|i| artifact(100 + i, HOT_COMPILE_S)).collect();
    let streamers: Vec<_> = (0..12).map(|i| artifact(200 + i, CHEAP_COMPILE_S)).collect();
    let mut store = S::new(config);
    let mut recompiles = 0u64;
    let mut recompile_s = 0.0;
    // First compilations are paid under any rule; they don't count.
    for (fp, art) in &hot {
        store.insert(fp.clone(), art.clone());
    }
    // Each round: a burst of 4 one-shot streamers (enough to churn the
    // whole 4-entry store), then both hot keys are needed again.
    for round in streamers.chunks(4) {
        for (fp, art) in round {
            if !store.get(fp) {
                store.insert(fp.clone(), art.clone());
            }
        }
        for (fp, art) in &hot {
            if !store.get(fp) {
                recompiles += 1;
                recompile_s += art.compile_s;
                store.insert(fp.clone(), art.clone());
            }
        }
    }
    (recompiles, recompile_s)
}

/// The entry-bound trace's store: four entries, no byte bound.
const FOUR_ENTRIES: StoreConfig = StoreConfig { max_entries: 4, max_bytes: usize::MAX };

#[test]
fn cost_aware_eviction_beats_lru_on_a_recompile_heavy_trace() {
    let (lru_recompiles, lru_s) = run_trace::<LruModel>(FOUR_ENTRIES);
    let (ca_recompiles, ca_s) = run_trace::<CircuitStore>(FOUR_ENTRIES);
    // LRU: every 4-streamer burst fills the store and evicts both hot
    // artifacts, so each of the 3 rounds recompiles both — 6 in total.
    assert_eq!(lru_recompiles, 6, "LRU trace drifted; the burst no longer churns the hot keys");
    assert!((lru_s - 3.0).abs() < 1e-12, "6 recompiles at 0.5 s each, got {lru_s}");
    // Cost-aware: the streamers' scores are ~500x below the hot keys',
    // so the bursts evict each other and the hot keys never recompile.
    assert_eq!(ca_recompiles, 0, "cost-aware eviction must keep the expensive artifacts hot");
    assert_eq!(ca_s, 0.0);
}

/// Replays a byte-bound churn trace against one store and returns its
/// eviction order: `"i:a,b"` for every insert `i` (counted from 0) that
/// evicted, where `a,b` are the labels of the keys that left, read with
/// `contains` after the insert (so keys leaving together are listed by
/// label, not by the order the victim search took them).
fn byte_bound_eviction_order<S: Store>() -> String {
    const KEYS: usize = 14;
    // Labels 0..14: formulas of n = 8…14 (two of each), recompile
    // costs spread over 1–9 ms.
    let keys: Vec<_> = (0..KEYS as u64)
        .map(|k| sized_artifact(8 + (k % 7) as usize, 300 + k, 1e-3 * (1 + k * 5 % 9) as f64))
        .collect();
    let total: usize = keys.iter().map(|(_, art)| art.bytes()).sum();
    // About a third of the artifacts fit: the byte bound, never the
    // entry bound, picks every victim.
    let mut store = S::new(StoreConfig { max_entries: 64, max_bytes: total / 3 });
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut order = Vec::new();
    let mut inserts = 0;
    for step in 0..160 {
        let r = next();
        let k = (r % KEYS as u64) as usize;
        let (fp, art) = &keys[k];
        let mut value = if step % 5 == 4 && store.contains(fp) {
            // Overwrite a live key with another key's body: the store
            // must swap the old size out of its meter for a new one.
            keys[(k + 3) % KEYS].1.clone()
        } else if !store.get(fp) {
            art.clone()
        } else {
            continue;
        };
        // Each (re)compile of a key costs a little differently, so the
        // recompile EWMA moves between its insertions.
        value.compile_s *= 0.5 + 0.5 * ((r >> 32) % 4) as f64;
        let live: Vec<usize> = (0..KEYS).filter(|&j| store.contains(&keys[j].0)).collect();
        store.insert(fp.clone(), value);
        let gone: Vec<String> = live
            .into_iter()
            .filter(|&j| !store.contains(&keys[j].0))
            .map(|j| j.to_string())
            .collect();
        if !gone.is_empty() {
            order.push(format!("{inserts}:{}", gone.join(",")));
        }
        inserts += 1;
        // A lookup between inserts moves the recency order.
        store.get(&keys[(next() % KEYS as u64) as usize].0);
    }
    order.join(" ")
}

/// [`byte_bound_eviction_order`] on [`LruModel`].
const LRU_ORDER: &str = concat!(
    "5:2,5 7:13 10:1 11:0,5 12:9 13:7,11 14:2 15:13 16:5 17:1,12 18:4 20:6 22:13 23:10 ",
    "24:0,2 25:9,13 27:6 28:11 29:10 30:4 32:13 33:2 34:1 35:3 37:12 38:5 39:0 40:7 41:8 ",
    "42:11 43:1 44:2 45:0 46:4,10 47:5 50:3 51:13 54:5,11 55:8 57:0,9 59:2 60:7 61:10 ",
    "62:0,6 63:9 64:1 65:10,11 66:3 67:12 68:4 71:13 72:10 73:1 74:0,6 75:5 76:11 77:2,8 ",
    "78:13 80:7 81:4 83:0,1 85:2 86:11,12 87:3 90:4 92:8,13 93:3,10 95:4 97:1 98:5,12 ",
    "100:7 101:3 103:0,2,5 104:1 107:13 109:3,12 110:11 111:7 112:13 113:10 114:2 115:5,6 ",
    "116:4 117:11 118:13 121:1 122:10 123:6,7",
);

/// [`byte_bound_eviction_order`] on the [`CircuitStore`].
const COST_AWARE_ORDER: &str = concat!(
    "5:0,2 6:13 8:6,7 10:11 12:0,1,2 13:13 15:2 16:1,6,7 17:13 18:12 20:9 21:2 22:13 23:2 ",
    "24:10 25:4,11 29:13 30:1,3 33:0,11 34:4 36:0 37:2 38:0 39:1 40:6,9 42:3,11 43:13 ",
    "45:11 47:0 48:7,9,10 49:13 51:9,10 52:13 55:0,11 56:1 57:6,9 58:11 60:6 61:12 62:13 ",
    "64:11 65:2 66:0,10 67:6 68:11 69:13 71:2 72:4,7 73:6 74:8 75:0,3 76:13 78:2 79:5,11 ",
    "80:13 82:0,11 83:13 85:3 86:1,4 88:7 89:13 93:3,4 94:1 96:1 98:2,10 99:7 100:11 ",
    "101:3,7 102:13 104:9 105:2 106:1,4,5 107:13 110:6",
);

#[test]
fn byte_bound_churn_evicts_the_pinned_keys_in_the_pinned_order() {
    assert_eq!(byte_bound_eviction_order::<LruModel>(), LRU_ORDER);
    assert_eq!(byte_bound_eviction_order::<CircuitStore>(), COST_AWARE_ORDER);
}

#[test]
fn cost_aware_is_the_default_store_policy() {
    // The serving engine's default store, held to the entry bound of
    // the trace above: its byte bound must not re-open the recompile
    // churn LRU suffers.
    let config = StoreConfig { max_entries: 4, ..StoreConfig::default() };
    assert_eq!(run_trace::<CircuitStore>(config), (0, 0.0));
}
