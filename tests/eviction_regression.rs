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
//! revert of [`EvictionPolicy::CostAware`] (or of the default policy)
//! fails this file, it cannot drift quietly.

use std::sync::Arc;

use reason::pc::{compile_cnf_with, CompileOptions, Dnnf, DnnfBuffer, Evidence, WmcWeights};
use reason::sat::gen::random_ksat;
use reason::serve::{CircuitStore, EvictionPolicy, FormulaFingerprint, StoreConfig, StoredCircuit};

/// A compiled artifact over a random satisfiable 8-variable 3-CNF,
/// tagged with the compile cost the store's policy will judge it by.
fn artifact(seed: u64, compile_s: f64) -> (FormulaFingerprint, StoredCircuit) {
    let mut s = seed;
    loop {
        let cnf = random_ksat(8, 20, 3, s);
        let w = WmcWeights::uniform(8);
        let (circuit, stats) = compile_cnf_with(&cnf, &w, CompileOptions::default());
        if let Some(circuit) = circuit.map(Arc::new) {
            let dnnf = Arc::new(Dnnf::from_circuit(&circuit).unwrap());
            let z = dnnf.probability(&Evidence::empty(8), &mut DnnfBuffer::new());
            let fp = FormulaFingerprint::new(&cnf, &w);
            return (fp, StoredCircuit { dnnf, circuit, z, compile_s, stats });
        }
        s += 1000;
    }
}

/// Replays the trace against one policy. Returns the number of hot-key
/// recompilations (a miss on a key that was already compiled once) and
/// the seconds those recompilations repay.
fn run_trace(policy: EvictionPolicy) -> (u64, f64) {
    const HOT_COMPILE_S: f64 = 0.5;
    const CHEAP_COMPILE_S: f64 = 1e-3;
    let hot: Vec<_> = (0..2).map(|i| artifact(100 + i, HOT_COMPILE_S)).collect();
    let streamers: Vec<_> = (0..12).map(|i| artifact(200 + i, CHEAP_COMPILE_S)).collect();
    let mut store =
        CircuitStore::new(StoreConfig { max_entries: 4, max_bytes: usize::MAX, policy });
    let mut recompiles = 0u64;
    let mut recompile_s = 0.0;
    // First compilations are paid under any policy; they don't count.
    for (fp, art) in &hot {
        store.insert(fp.clone(), art.clone());
    }
    // Each round: a burst of 4 one-shot streamers (enough to churn the
    // whole 4-entry store), then both hot keys are needed again.
    for round in streamers.chunks(4) {
        for (fp, art) in round {
            if store.get(fp).is_none() {
                store.insert(fp.clone(), art.clone());
            }
        }
        for (fp, art) in &hot {
            if store.get(fp).is_none() {
                recompiles += 1;
                recompile_s += art.compile_s;
                store.insert(fp.clone(), art.clone());
            }
        }
    }
    (recompiles, recompile_s)
}

#[test]
fn cost_aware_eviction_beats_lru_on_a_recompile_heavy_trace() {
    let (lru_recompiles, lru_s) = run_trace(EvictionPolicy::Lru);
    let (ca_recompiles, ca_s) = run_trace(EvictionPolicy::CostAware);
    // LRU: every 4-streamer burst fills the store and evicts both hot
    // artifacts, so each of the 3 rounds recompiles both — 6 in total.
    assert_eq!(lru_recompiles, 6, "LRU trace drifted; the burst no longer churns the hot keys");
    assert!((lru_s - 3.0).abs() < 1e-12, "6 recompiles at 0.5 s each, got {lru_s}");
    // Cost-aware: the streamers' scores are ~500x below the hot keys',
    // so the bursts evict each other and the hot keys never recompile.
    assert_eq!(ca_recompiles, 0, "cost-aware eviction must keep the expensive artifacts hot");
    assert_eq!(ca_s, 0.0);
}

#[test]
fn cost_aware_is_the_default_store_policy() {
    // The serving engine relies on the default; a quiet revert to LRU
    // would re-open the recompile churn pinned above.
    assert_eq!(StoreConfig::default().policy, EvictionPolicy::CostAware);
}
