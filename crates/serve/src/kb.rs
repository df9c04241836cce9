//! Registered knowledge bases: one formula, one weight vector, one
//! cross-query component cache.
//!
//! A [`KnowledgeBase`] is the unit of registration in the serving
//! engine: a CNF rule set over fixed per-variable marginals. It owns
//! the [`PersistentComponentCache`] that carries compiled components
//! across its own recompilations, and it maintains the id-stability
//! contract that cache depends on:
//!
//! * clauses keep their positional ids for their whole lifetime —
//!   additions append at fresh ids, so existing component fingerprints
//!   stay valid and an incremental recompile reuses every component the
//!   new clause does not touch;
//! * a retraction shifts the ids after the removed clause, so the cache
//!   entries mentioning any shifted id are invalidated
//!   ([`PersistentComponentCache::invalidate_clauses_from`]) before the
//!   next compile.
//!
//! Clauses are canonicalized on entry (literals sorted, duplicates
//! dropped) so the fingerprint a [`crate::CircuitStore`] keys on is a
//! function of the logic, not of literal spelling.
//!
//! # Does the cache earn its keep? (ROADMAP, Settled)
//!
//! Yes, by more than the earlier readings said. The prototype is one
//! line on a scratch copy — `cache: None` in
//! `KnowledgeBase::compile_observed`, every check kept — run as four
//! alternating 22 s pairs of `benchmark/run.sh` at seed 42, `--trace 0`,
//! on a 2-core VM, against a store that ranks eviction victims from
//! sizes kept at insert:
//!
//! | `edit_churn` | with the cache | `cache: None` |
//! |---|---|---|
//! | `ops_per_s` | 1,487–1,618 (median 1,518) | 1,092–1,210 (median 1,133, −25 %; cache wins 4/4) |
//! | `call_p50_us` | 534–589 | 747–820 |
//! | `peak_rss_mb` | 36.8 | 20.2 |
//!
//! Every earlier margin was measured while half of every edit went to
//! the store's victim scan, which re-walked all 64 stored circuits on
//! each evicting insert. Both arms paid that scan, so it diluted the
//! compile the cache saves: the two earlier readings were −14 % and
//! then −7 % (cache winning 4/4, then 3/4). Without the scan the cache
//! is worth about +34 % on the workload built for it, for about 17 MiB.
//! `cold_ladder` (five pairs, in a slow host phase) read 327–483 with
//! and 438–506 without, a difference this host does not resolve; the
//! earlier reading put the bookkeeping of a cache nothing hits at about
//! 2 % of a cold compile. The cache stays. Four pairs is below the
//! ten-pair house rule: this is evidence for keeping the cache, not a
//! claimed gain, and the next compile speed-up should re-run it.

use reason_pc::{
    compile_cnf_with, Circuit, CompileOptions, CompileStats, PersistentComponentCache, WmcWeights,
};
use reason_sat::{Clause, Cnf, Lit};
use reason_telemetry::Telemetry;

use crate::fingerprint::FormulaFingerprint;

/// A registered rule set with its weights and cross-query compile
/// cache (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    name: String,
    num_vars: usize,
    clauses: Vec<Clause>,
    weights: WmcWeights,
    cache: PersistentComponentCache,
    /// Bumped on every mutation; serving layers use it to notice stale
    /// derived state (source circuits, trained predictors).
    revision: u64,
}

/// Sorted-deduplicated canonical form of one clause.
fn canonical_clause(clause: &Clause) -> Clause {
    let mut lits: Vec<Lit> = clause.lits().to_vec();
    lits.sort_unstable_by_key(|l| l.code());
    lits.dedup();
    Clause::new(lits)
}

impl KnowledgeBase {
    /// Registers a formula under its weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != cnf.num_vars()`.
    pub fn new(name: impl Into<String>, cnf: &Cnf, weights: WmcWeights) -> Self {
        assert_eq!(weights.len(), cnf.num_vars(), "weights arity mismatch");
        KnowledgeBase {
            name: name.into(),
            num_vars: cnf.num_vars(),
            clauses: cnf.clauses().iter().map(canonical_clause).collect(),
            weights,
            cache: PersistentComponentCache::new(),
            revision: 0,
        }
    }

    /// The registration name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Number of variables in the universe.
    pub(crate) fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of live clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// The per-variable marginals.
    pub(crate) fn weights(&self) -> &WmcWeights {
        &self.weights
    }

    /// The live clauses, in id order.
    #[cfg(test)]
    fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Mutation counter: bumped by every add/retract.
    pub(crate) fn revision(&self) -> u64 {
        self.revision
    }

    /// Materializes the current formula.
    pub fn cnf(&self) -> Cnf {
        let mut cnf = Cnf::new(self.num_vars);
        for c in &self.clauses {
            cnf.add_clause(c.clone());
        }
        cnf
    }

    /// The store key for the current `(formula, weights)` state.
    pub(crate) fn fingerprint(&self) -> FormulaFingerprint {
        FormulaFingerprint::from_parts(self.num_vars, &self.clauses, &self.weights)
    }

    /// Appends a clause at a fresh id. No cache invalidation: existing
    /// component fingerprints never mention the new id, so the next
    /// compile reuses every component the clause does not touch.
    ///
    /// # Panics
    ///
    /// Panics if a literal references a variable outside the universe.
    pub fn add_clause(&mut self, dimacs: &[i32]) {
        let clause = canonical_clause(&Clause::from_dimacs(dimacs));
        for lit in clause.iter() {
            assert!(
                lit.var().index() < self.num_vars,
                "literal {lit} out of range for {} variables",
                self.num_vars
            );
        }
        self.clauses.push(clause);
        self.revision += 1;
    }

    /// Retracts the clause at `index`, invalidating every cached
    /// component whose fingerprint mentions a shifted id (ids `>=
    /// index`). Returns the removed clause. Retracting recently-added
    /// clauses is therefore cheap; retracting early clauses flushes
    /// more of the cache — the honest cost of positional ids.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.num_clauses()`.
    pub fn retract_clause(&mut self, index: usize) -> Clause {
        let removed = self.clauses.remove(index);
        self.cache.invalidate_clauses_from(index as u32);
        self.revision += 1;
        removed
    }

    /// Compiles the current formula through the persistent component
    /// cache: the first call pays the full compile, later calls (after
    /// edits) reuse every untouched component. Returns the circuit
    /// (`None` when the formula carries no mass) and the compile
    /// counters, whose `persistent_hits` field reports the reuse.
    pub fn compile(&mut self) -> (Option<Circuit>, CompileStats) {
        self.compile_observed(None)
    }

    /// [`compile`](Self::compile) with an optional telemetry sink: the
    /// compiler's propagate / component-split / cache-probe phases emit
    /// spans and counters (see [`reason_pc::CompileOptions::telemetry`]).
    pub(crate) fn compile_observed(
        &mut self,
        telemetry: Option<&Telemetry>,
    ) -> (Option<Circuit>, CompileStats) {
        let cnf = self.cnf();
        let options =
            CompileOptions { cache: Some(&mut self.cache), telemetry, ..CompileOptions::default() };
        compile_cnf_with(&cnf, &self.weights, options)
    }

    /// The cross-query component cache (sizes, probe counters).
    pub fn component_cache(&self) -> &PersistentComponentCache {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reason_pc::{CompiledWmc, Evidence};
    use reason_sat::gen::random_ksat;

    fn z_of(circuit: Option<Circuit>, n: usize) -> f64 {
        circuit.map_or(0.0, |c| c.probability(&Evidence::empty(n)))
    }

    #[test]
    fn lifecycle_add_compile_retract_stays_exact() {
        let cnf = Cnf::from_clauses(6, vec![vec![1, 2], vec![-2, 3], vec![4, 5]]);
        let w = WmcWeights::new(vec![0.4, 0.55, 0.5, 0.35, 0.6, 0.45]);
        let mut kb = KnowledgeBase::new("demo", &cnf, w.clone());
        assert_eq!(kb.revision(), 0);
        let (c0, _) = kb.compile();
        assert!((z_of(c0, 6) - CompiledWmc::new(&cnf, &w).wmc()).abs() < 1e-12);

        kb.add_clause(&[-5, 6]);
        assert_eq!(kb.revision(), 1);
        let (c1, stats1) = kb.compile();
        assert!((z_of(c1, 6) - CompiledWmc::new(&kb.cnf(), &w).wmc()).abs() < 1e-12);
        assert!(
            stats1.persistent_hits > 0,
            "adding a clause must reuse untouched components: {stats1:?}"
        );

        let removed = kb.retract_clause(1);
        assert_eq!(removed.lits().len(), 2);
        assert_eq!(kb.num_clauses(), 3);
        let (c2, _) = kb.compile();
        assert!((z_of(c2, 6) - CompiledWmc::new(&kb.cnf(), &w).wmc()).abs() < 1e-12);
    }

    #[test]
    fn fingerprint_tracks_mutations() {
        let cnf = random_ksat(8, 20, 3, 4);
        let mut kb = KnowledgeBase::new("fp", &cnf, WmcWeights::uniform(8));
        let fp0 = kb.fingerprint();
        kb.add_clause(&[1, -2]);
        let fp1 = kb.fingerprint();
        assert_ne!(fp0, fp1);
        kb.retract_clause(kb.num_clauses() - 1);
        assert_eq!(kb.fingerprint(), fp0, "undoing the edit restores the key");
    }

    #[test]
    fn clauses_are_canonicalized_on_entry() {
        let cnf = Cnf::from_clauses(3, vec![vec![2, 1, 2]]);
        let kb = KnowledgeBase::new("canon", &cnf, WmcWeights::uniform(3));
        let lits: Vec<i32> = kb.clauses()[0].iter().map(|l| l.to_dimacs()).collect();
        assert_eq!(lits, vec![1, 2], "sorted and deduplicated");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_clause_checks_the_universe() {
        let cnf = Cnf::new(2);
        let mut kb = KnowledgeBase::new("small", &cnf, WmcWeights::uniform(2));
        kb.add_clause(&[3]);
    }
}
