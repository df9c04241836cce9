//! Shared indexed clause pool and trail-based unit propagation.
//!
//! Search-style consumers — the top-down knowledge compiler in
//! `reason-pc` is the motivating one — need three things the plain
//! [`Cnf`] representation does not give them: stable integer clause
//! ids (so residual formulas can be *named* instead of cloned), a
//! per-variable occurrence index (so connected components can be found
//! by flood fill), and an undoable assignment with unit propagation
//! (so implied literals never become search branches). [`ClausePool`]
//! and [`Propagator`] provide exactly that, kept separate from the
//! CDCL solver's internal watched-literal arena: the pool is immutable
//! and shared, the propagator is a small trail that many nested
//! queries can push onto and roll back.
//!
//! Propagation is round-based and dirty-filtered, with no watch lists:
//! a round walks the caller's clause list in order and examines only
//! the clauses one of whose variables changed value since they were
//! last examined (a per-clause flag, set through the occurrence index
//! on every assignment and un-assignment). The skipped examinations are
//! exactly the ones that could not have found anything, so the trail —
//! order included — is the one a full scan of every clause in every
//! round builds; a `#[cfg(test)]` copy of that full scan is the oracle.
//! Searches that fingerprint residual clauses read them through
//! [`Propagator::residual_mask`]: one literal scan answers "satisfied?"
//! and "which literals survive?" together.
//!
//! ```
//! use reason_sat::{ClausePool, Cnf, Propagator, Var};
//!
//! // (x0) & (!x0 | x1): assuming nothing, propagation fixes both.
//! let cnf = Cnf::from_clauses(2, vec![vec![1], vec![-1, 2]]);
//! let pool = ClausePool::new(&cnf);
//! let mut prop = Propagator::new(pool.num_vars());
//! let all: Vec<u32> = (0..pool.num_clauses() as u32).collect();
//! assert!(prop.propagate(&pool, &all));
//! assert_eq!(prop.value(Var::new(0)), Some(true));
//! assert_eq!(prop.value(Var::new(1)), Some(true));
//! ```

use crate::cnf::Cnf;
use crate::types::{Lit, Var};

/// An immutable, indexed clause arena: clause `c` is addressable as a
/// literal slice, and every variable knows which clauses mention it.
///
/// The pool is the shared substrate for component-caching search: a
/// residual formula is a *list of clause ids* plus the current
/// assignment, never a cloned clause set.
#[derive(Debug, Clone)]
pub struct ClausePool {
    num_vars: usize,
    lits: Vec<Lit>,
    /// Clause `c` occupies `lits[bounds[c] .. bounds[c + 1]]`.
    bounds: Vec<u32>,
    /// `occurs[v]` = ids of clauses containing variable `v` (either
    /// polarity), each id listed once, in increasing order.
    occurs: Vec<Vec<u32>>,
}

impl ClausePool {
    /// Indexes the clauses of `cnf`.
    pub fn new(cnf: &Cnf) -> Self {
        let num_vars = cnf.num_vars();
        let mut lits = Vec::with_capacity(cnf.num_literals());
        let mut bounds = Vec::with_capacity(cnf.num_clauses() + 1);
        let mut occurs: Vec<Vec<u32>> = vec![Vec::new(); num_vars];
        bounds.push(0);
        for (id, clause) in cnf.clauses().iter().enumerate() {
            for &l in clause.iter() {
                lits.push(l);
                let occ = &mut occurs[l.var().index()];
                // A variable occurring twice in one clause (duplicate or
                // tautological literals) is still listed once.
                if occ.last() != Some(&(id as u32)) {
                    occ.push(id as u32);
                }
            }
            bounds.push(lits.len() as u32);
        }
        ClausePool { num_vars, lits, bounds, occurs }
    }

    /// Number of variables in the universe.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses in the pool.
    pub fn num_clauses(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The literals of clause `id`.
    pub fn clause(&self, id: u32) -> &[Lit] {
        let lo = self.bounds[id as usize] as usize;
        let hi = self.bounds[id as usize + 1] as usize;
        &self.lits[lo..hi]
    }

    /// Ids of the clauses mentioning `var`, in increasing order.
    pub fn occurrences(&self, var: Var) -> &[u32] {
        &self.occurs[var.index()]
    }
}

/// A trail-based partial assignment with unit propagation over clause
/// subsets of a [`ClausePool`].
///
/// Assignments are pushed with [`assume`](Self::assume) (or implied by
/// [`propagate`](Self::propagate)) and rolled back to any earlier
/// [`mark`](Self::mark) with [`undo_to`](Self::undo_to) — the
/// backtracking discipline of a DPLL-style search, without the CDCL
/// solver's clause-learning machinery.
///
/// A propagator remembers which clauses of *its* pool it has examined,
/// so it must be used with one [`ClausePool`] for its whole life.
#[derive(Debug, Clone)]
pub struct Propagator {
    /// Per-variable value; `i8` keeps the hot array dense
    /// (`-1` unassigned, `0` false, `1` true).
    values: Vec<i8>,
    trail: Vec<Lit>,
    /// Per-clause: some variable of the clause changed value since
    /// [`propagate`](Self::propagate) last examined it (or it never
    /// was). Sized on first use — `new` sees no pool — and born set.
    dirty: Vec<bool>,
    /// Trail literals below this index have had their occurrences
    /// marked dirty.
    cursor: usize,
    /// Variables [`undo_to`](Self::undo_to) unassigned after their
    /// assignment had been marked; their occurrences are re-marked by
    /// the next `propagate`, because `undo_to` has no pool to mark with.
    unassigned: Vec<Var>,
}

impl Propagator {
    /// An empty assignment over `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        Propagator {
            values: vec![-1; num_vars],
            trail: Vec::new(),
            dirty: Vec::new(),
            cursor: 0,
            unassigned: Vec::new(),
        }
    }

    /// The current value of `var`, if assigned.
    pub fn value(&self, var: Var) -> Option<bool> {
        match self.values[var.index()] {
            -1 => None,
            v => Some(v == 1),
        }
    }

    /// The truth value of `lit` under the current assignment, if its
    /// variable is assigned.
    fn lit_value(&self, lit: Lit) -> Option<bool> {
        self.value(lit.var()).map(|v| lit.eval(v))
    }

    /// `true` when `var` has a value.
    pub fn is_assigned(&self, var: Var) -> bool {
        self.values[var.index()] != -1
    }

    /// The assigned literals, oldest first (decisions and implications
    /// interleaved in assignment order).
    pub fn trail(&self) -> &[Lit] {
        &self.trail
    }

    /// A checkpoint for [`undo_to`](Self::undo_to): the current trail
    /// length.
    pub fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Asserts `lit` true.
    ///
    /// # Panics
    ///
    /// Panics if the literal's variable is already assigned.
    pub fn assume(&mut self, lit: Lit) {
        let v = lit.var().index();
        assert_eq!(self.values[v], -1, "variable {} already assigned", lit.var());
        self.values[v] = i8::from(!lit.is_neg());
        self.trail.push(lit);
    }

    /// Rolls the assignment back to a previous [`mark`](Self::mark).
    ///
    /// # Panics
    ///
    /// Panics if `mark` exceeds the current trail length.
    pub fn undo_to(&mut self, mark: usize) {
        assert!(mark <= self.trail.len(), "mark {mark} beyond trail");
        if mark < self.cursor {
            self.unassigned.extend(self.trail[mark..self.cursor].iter().map(|l| l.var()));
            self.cursor = mark;
        }
        for lit in self.trail.drain(mark..) {
            self.values[lit.var().index()] = -1;
        }
    }

    /// `true` when some literal of clause `id` is true under the
    /// current assignment.
    pub fn clause_satisfied(&self, pool: &ClausePool, id: u32) -> bool {
        pool.clause(id).iter().any(|&l| self.lit_value(l) == Some(true))
    }

    /// One scan of clause `id` answering both questions a residual
    /// fingerprint asks: `None` when some literal is true (the clause
    /// is satisfied), else the bitmask of its unassigned literal
    /// positions (bit `i` set = literal `i` survives; `Some(0)` is a
    /// falsified clause).
    ///
    /// # Panics
    ///
    /// Panics if the clause has more than 32 literals.
    pub fn residual_mask(&self, pool: &ClausePool, id: u32) -> Option<u32> {
        let lits = pool.clause(id);
        assert!(lits.len() <= 32, "clause {id} is wider than a residual mask");
        let mut mask = 0u32;
        for (i, &l) in lits.iter().enumerate() {
            match self.lit_value(l) {
                Some(true) => return None,
                Some(false) => {}
                None => mask |= 1 << i,
            }
        }
        Some(mask)
    }

    /// Flags every clause mentioning `var` for re-examination.
    fn mark_occurrences(dirty: &mut [bool], pool: &ClausePool, var: Var) {
        for &c in pool.occurrences(var) {
            dirty[c as usize] = true;
        }
    }

    /// Unit-propagates to fixpoint over the clauses named by
    /// `clause_ids`, pushing every implied literal onto the trail.
    ///
    /// Returns `false` on conflict (some clause has every literal
    /// false); the trail then holds whatever was implied before the
    /// conflict, and the caller is expected to roll back with
    /// [`undo_to`](Self::undo_to). Clauses outside `clause_ids` are
    /// never examined, so disjoint subproblems can share one
    /// propagator.
    ///
    /// Propagation is round-based, dirty-filtered; no watch lists: each
    /// round walks the clause list once, in order, examining the
    /// clauses one of whose variables was assigned or unassigned since
    /// they were last examined, and rounds repeat until no new literal
    /// is implied. A clause none of whose variables changed has the
    /// verdict it had, and the only verdicts that leave a clause
    /// unflagged are the ones that do nothing (satisfied, or two free
    /// literals), so the skipped examinations are exactly the no-ops of
    /// a full scan: a clause later in a round still sees a unit found
    /// earlier in it, and the trail comes out in the same order — for
    /// any interleaving of `assume`, `propagate` and `undo_to`, over
    /// any clause subsets. That order is kept because searches hosted
    /// here (the knowledge compiler) emit their implied literals in
    /// trail order; watch lists would visit clauses in another.
    ///
    /// A clause whose only unassigned literals are duplicates of one
    /// another is treated as having two free slots (not propagated);
    /// duplicate literals cost completeness of *propagation* only,
    /// never soundness of the search that hosts it.
    #[must_use = "a false return is a conflict the caller must unwind"]
    pub fn propagate(&mut self, pool: &ClausePool, clause_ids: &[u32]) -> bool {
        if self.dirty.len() < pool.num_clauses() {
            self.dirty.resize(pool.num_clauses(), true);
        }
        for var in self.unassigned.drain(..) {
            Self::mark_occurrences(&mut self.dirty, pool, var);
        }
        for &lit in &self.trail[self.cursor..] {
            Self::mark_occurrences(&mut self.dirty, pool, lit.var());
        }
        loop {
            let mut progressed = false;
            for &c in clause_ids {
                if !std::mem::take(&mut self.dirty[c as usize]) {
                    continue;
                }
                let mut satisfied = false;
                let mut unassigned = 0usize;
                let mut unit = None;
                for &l in pool.clause(c) {
                    match self.lit_value(l) {
                        Some(true) => {
                            satisfied = true;
                            break;
                        }
                        Some(false) => {}
                        None => {
                            unassigned += 1;
                            if unassigned > 1 {
                                break;
                            }
                            unit = Some(l);
                        }
                    }
                }
                if satisfied || unassigned > 1 {
                    continue;
                }
                match unit {
                    None => {
                        // Every literal false. The conflict stands until
                        // a variable changes, so the clause stays flagged.
                        self.dirty[c as usize] = true;
                        self.cursor = self.trail.len();
                        return false;
                    }
                    Some(l) => {
                        self.assume(l);
                        Self::mark_occurrences(&mut self.dirty, pool, l.var());
                        progressed = true;
                    }
                }
            }
            if !progressed {
                self.cursor = self.trail.len();
                return true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn all_ids(pool: &ClausePool) -> Vec<u32> {
        (0..pool.num_clauses() as u32).collect()
    }

    /// The propagation loop [`Propagator::propagate`] replaced, kept as
    /// its oracle: every round examines every clause of `clause_ids`.
    fn propagate_full_scan(prop: &mut Propagator, pool: &ClausePool, clause_ids: &[u32]) -> bool {
        loop {
            let mut progressed = false;
            for &c in clause_ids {
                let mut satisfied = false;
                let mut unassigned = 0usize;
                let mut unit = None;
                for &l in pool.clause(c) {
                    match prop.lit_value(l) {
                        Some(true) => {
                            satisfied = true;
                            break;
                        }
                        Some(false) => {}
                        None => {
                            unassigned += 1;
                            if unassigned > 1 {
                                break;
                            }
                            unit = Some(l);
                        }
                    }
                }
                if satisfied || unassigned > 1 {
                    continue;
                }
                match unit {
                    None => return false, // every literal false
                    Some(l) => {
                        prop.assume(l);
                        progressed = true;
                    }
                }
            }
            if !progressed {
                return true;
            }
        }
    }

    /// A dirty-filtered propagator and a full-scan one driven in
    /// lockstep; every step asserts the same verdict and the same trail.
    struct Lockstep {
        pool: ClausePool,
        fast: Propagator,
        oracle: Propagator,
    }

    impl Lockstep {
        fn new(num_vars: usize, clauses: Vec<Vec<i32>>) -> Self {
            let pool = ClausePool::new(&Cnf::from_clauses(num_vars, clauses));
            Lockstep { pool, fast: Propagator::new(num_vars), oracle: Propagator::new(num_vars) }
        }

        fn assume(&mut self, dimacs: i32) {
            self.fast.assume(Lit::from_dimacs(dimacs));
            self.oracle.assume(Lit::from_dimacs(dimacs));
        }

        fn undo_to(&mut self, mark: usize) {
            self.fast.undo_to(mark);
            self.oracle.undo_to(mark);
            assert_eq!(self.fast.trail(), self.oracle.trail());
        }

        fn propagate(&mut self, ids: &[u32]) -> bool {
            let ok = self.fast.propagate(&self.pool, ids);
            assert_eq!(ok, propagate_full_scan(&mut self.oracle, &self.pool, ids), "verdict");
            assert_eq!(self.fast.trail(), self.oracle.trail(), "trail, order included");
            ok
        }
    }

    #[test]
    fn random_programs_build_the_full_scan_trail() {
        for case in 0..256u64 {
            let mut rng = StdRng::seed_from_u64(0x9e37_79b9 ^ case);
            let num_vars = rng.gen_range(1..=10usize);
            let num_clauses = rng.gen_range(0..=24usize);
            // Widths 0..=4 with repetition: empty and unit clauses,
            // duplicate and tautological literals all occur.
            let clauses: Vec<Vec<i32>> = (0..num_clauses)
                .map(|_| {
                    let width = [0, 1, 1, 2, 2, 2, 3, 3, 3, 4][rng.gen_range(0..10usize)];
                    (0..width)
                        .map(|_| {
                            let v = rng.gen_range(1..=num_vars as i32);
                            if rng.gen_bool(0.5) {
                                v
                            } else {
                                -v
                            }
                        })
                        .collect()
                })
                .collect();
            let mut run = Lockstep::new(num_vars, clauses);
            let mut marks: Vec<usize> = Vec::new();
            for _ in 0..rng.gen_range(4..=40usize) {
                let free: Vec<usize> =
                    (0..num_vars).filter(|&v| !run.fast.is_assigned(Var::new(v))).collect();
                match rng.gen_range(0..10u32) {
                    // Assume a free variable — also straight after a
                    // conflict, which no search does but the contract
                    // allows.
                    0..=3 if !free.is_empty() => {
                        let v = free[rng.gen_range(0..free.len())] as i32 + 1;
                        marks.push(run.fast.mark());
                        run.assume(if rng.gen_bool(0.5) { v } else { -v });
                    }
                    // Propagate over a fresh random subset; after a
                    // conflict this re-examines the standing conflict.
                    0..=7 => {
                        let ids: Vec<u32> = match rng.gen_range(0..3u32) {
                            0 => (0..num_clauses as u32).collect(),
                            _ => (0..num_clauses as u32).filter(|_| rng.gen_bool(0.6)).collect(),
                        };
                        let _ = run.propagate(&ids);
                    }
                    // Undo to a random earlier mark.
                    _ => {
                        if let Some(&mark) = marks.get(rng.gen_range(0..marks.len().max(1))) {
                            marks.retain(|&m| m < mark);
                            run.undo_to(mark);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_unit_found_late_in_a_round_is_seen_by_a_later_clause_of_the_same_round() {
        // Clause 1 implies x1 mid-round; clause 2, later in the same
        // round, must already see it and imply x2 — before clause 0 gets
        // its second look — so the trail is x0, x1, x2, x3 in that order.
        let mut run = Lockstep::new(4, vec![vec![-3, 4], vec![-1, 2], vec![-2, 3], vec![1]]);
        assert!(run.propagate(&[3, 1, 2, 0]));
        let trail: Vec<i32> = run.fast.trail().iter().map(|l| l.to_dimacs()).collect();
        assert_eq!(trail, vec![1, 2, 3, 4]);
    }

    #[test]
    fn a_clause_left_dirty_by_a_conflict_is_re_examined_not_skipped() {
        // x0 falsifies clause 0 outright. Without an undo in between the
        // conflict must be reported again, not skipped as "examined".
        let mut run = Lockstep::new(2, vec![vec![-1], vec![1, 2]]);
        run.assume(1);
        assert!(!run.propagate(&[0, 1]));
        assert!(!run.propagate(&[0, 1]));
        assert!(!run.propagate(&[0]));
        // And after the undo the other polarity goes through.
        run.undo_to(0);
        run.assume(-1);
        assert!(run.propagate(&[0, 1]));
        assert_eq!(run.fast.value(Var::new(1)), Some(true));
    }

    #[test]
    fn a_clause_satisfied_by_a_literal_that_is_then_undone_is_re_examined() {
        // {a, l}: under ¬a and l the clause is satisfied and examined;
        // undoing l alone must flag it again so that l is re-derived.
        // Marking occurrences on assume only would skip it.
        let mut run = Lockstep::new(2, vec![vec![1, 2]]);
        run.assume(-1);
        let mark = run.fast.mark();
        run.assume(2);
        assert!(run.propagate(&[0]));
        run.undo_to(mark);
        assert!(run.propagate(&[0]));
        assert_eq!(run.fast.trail(), &[Lit::from_dimacs(-1), Lit::from_dimacs(2)]);
    }

    #[test]
    fn residual_mask_names_the_surviving_literals() {
        let cnf = Cnf::from_clauses(4, vec![vec![1, -2, 3, 4]]);
        let pool = ClausePool::new(&cnf);
        let mut prop = Propagator::new(4);
        assert_eq!(prop.residual_mask(&pool, 0), Some(0b1111));
        prop.assume(Var::new(0).neg());
        prop.assume(Var::new(2).neg());
        assert_eq!(prop.residual_mask(&pool, 0), Some(0b1010));
        prop.assume(Var::new(1).pos());
        prop.assume(Var::new(3).neg());
        assert_eq!(prop.residual_mask(&pool, 0), Some(0), "falsified, not satisfied");
        prop.undo_to(2);
        prop.assume(Var::new(1).neg());
        assert_eq!(prop.residual_mask(&pool, 0), None, "a true literal satisfies it");
    }

    #[test]
    fn pool_indexes_clauses_and_occurrences() {
        let cnf = Cnf::from_clauses(3, vec![vec![1, -2], vec![2, 3], vec![-3]]);
        let pool = ClausePool::new(&cnf);
        assert_eq!(pool.num_vars(), 3);
        assert_eq!(pool.num_clauses(), 3);
        assert_eq!(pool.clause(0), &[Lit::from_dimacs(1), Lit::from_dimacs(-2)]);
        assert_eq!(pool.occurrences(Var::new(1)), &[0, 1]);
        assert_eq!(pool.occurrences(Var::new(2)), &[1, 2]);
    }

    #[test]
    fn duplicate_literals_list_the_clause_once() {
        let cnf = Cnf::from_clauses(2, vec![vec![1, 1, -1], vec![2]]);
        let pool = ClausePool::new(&cnf);
        assert_eq!(pool.occurrences(Var::new(0)), &[0]);
    }

    #[test]
    fn assume_and_undo_roundtrip() {
        let mut prop = Propagator::new(3);
        let mark = prop.mark();
        prop.assume(Var::new(1).neg());
        assert_eq!(prop.value(Var::new(1)), Some(false));
        assert_eq!(prop.lit_value(Var::new(1).neg()), Some(true));
        assert_eq!(prop.trail(), &[Var::new(1).neg()]);
        prop.undo_to(mark);
        assert!(!prop.is_assigned(Var::new(1)));
        assert!(prop.trail().is_empty());
    }

    #[test]
    #[should_panic(expected = "already assigned")]
    fn double_assume_panics() {
        let mut prop = Propagator::new(1);
        prop.assume(Var::new(0).pos());
        prop.assume(Var::new(0).neg());
    }

    #[test]
    fn propagation_chains_implications() {
        // x0 & (!x0 | x1) & (!x1 | x2)
        let cnf = Cnf::from_clauses(3, vec![vec![1], vec![-1, 2], vec![-2, 3]]);
        let pool = ClausePool::new(&cnf);
        let mut prop = Propagator::new(3);
        assert!(prop.propagate(&pool, &all_ids(&pool)));
        assert_eq!(prop.trail().len(), 3);
        for v in 0..3 {
            assert_eq!(prop.value(Var::new(v)), Some(true));
        }
    }

    #[test]
    fn propagation_detects_conflicts() {
        let cnf = Cnf::from_clauses(2, vec![vec![1], vec![-1, 2], vec![-2, -1]]);
        let pool = ClausePool::new(&cnf);
        let mut prop = Propagator::new(2);
        assert!(!prop.propagate(&pool, &all_ids(&pool)));
    }

    #[test]
    fn propagation_respects_the_clause_subset() {
        let cnf = Cnf::from_clauses(2, vec![vec![1], vec![2]]);
        let pool = ClausePool::new(&cnf);
        let mut prop = Propagator::new(2);
        assert!(prop.propagate(&pool, &[0]));
        assert_eq!(prop.value(Var::new(0)), Some(true));
        assert!(!prop.is_assigned(Var::new(1)));
    }

    #[test]
    fn conflict_unwinds_cleanly_with_undo() {
        let cnf = Cnf::from_clauses(2, vec![vec![-1, 2], vec![-1, -2]]);
        let pool = ClausePool::new(&cnf);
        let mut prop = Propagator::new(2);
        let mark = prop.mark();
        prop.assume(Var::new(0).pos());
        assert!(!prop.propagate(&pool, &all_ids(&pool)));
        prop.undo_to(mark);
        // The other branch is fine.
        prop.assume(Var::new(0).neg());
        assert!(prop.propagate(&pool, &all_ids(&pool)));
        assert_eq!(prop.value(Var::new(0)), Some(false));
    }

    #[test]
    fn satisfied_clause_queries() {
        let cnf = Cnf::from_clauses(2, vec![vec![1, 2]]);
        let pool = ClausePool::new(&cnf);
        let mut prop = Propagator::new(2);
        assert!(!prop.clause_satisfied(&pool, 0));
        prop.assume(Var::new(1).pos());
        assert!(prop.clause_satisfied(&pool, 0));
    }

    #[test]
    fn empty_clause_is_an_immediate_conflict() {
        let mut cnf = Cnf::new(1);
        cnf.add_clause(crate::types::Clause::new(vec![]));
        let pool = ClausePool::new(&cnf);
        let mut prop = Propagator::new(1);
        assert!(!prop.propagate(&pool, &all_ids(&pool)));
    }
}
