//! Lookahead literal scoring for cube splitting.
//!
//! Cube-and-conquer (Heule et al., paper reference \[27\]) guides CDCL by a
//! lookahead phase: candidate split variables are evaluated by propagating
//! each polarity and measuring how strongly the formula shrinks. REASON's
//! working example (paper Fig. 9, "Lookahead: LA(A) < LA(B)") ranks DPLL
//! tree nodes by exactly this score.
//!
//! A probe runs on the crate's one unit propagator outside CDCL, the
//! [`Propagator`] over a [`ClausePool`] that the knowledge compiler
//! also uses: assume the literal, propagate over every clause, read the
//! trail's growth, roll back.

use crate::cnf::Cnf;
use crate::pool::{ClausePool, Propagator};
use crate::types::{Lit, Var};

/// The lookahead measurement for one variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LookaheadScore {
    /// The variable measured.
    pub(crate) var: Var,
    /// Literals implied when the positive literal is assumed
    /// (`None` encodes an immediate conflict ⇒ failed literal).
    pub(crate) pos_implied: Option<usize>,
    /// Literals implied when the negative literal is assumed.
    pub(crate) neg_implied: Option<usize>,
}

impl LookaheadScore {
    /// The product score `(1 + pos) * (1 + neg)` used to rank split
    /// variables; conflicts count as maximal reduction on that side.
    pub(crate) fn product(&self) -> u64 {
        let p = self.pos_implied.map_or(u64::MAX >> 33, |n| n as u64);
        let n = self.neg_implied.map_or(u64::MAX >> 33, |n| n as u64);
        (1 + p).saturating_mul(1 + n)
    }

    /// `true` if either polarity conflicts immediately — the other polarity
    /// is then forced (a *failed literal*).
    pub(crate) fn failed_literal(&self) -> Option<Lit> {
        match (self.pos_implied, self.neg_implied) {
            (None, Some(_)) => Some(self.var.neg()),
            (Some(_), None) => Some(self.var.pos()),
            _ => None,
        }
    }
}

/// Lookahead engine over a formula: its clauses as a [`ClausePool`],
/// one [`Propagator`] every probe pushes onto and rolls back, and the
/// split candidates ranked once.
#[derive(Debug)]
pub(crate) struct Lookahead {
    pool: ClausePool,
    prop: Propagator,
    /// Every clause id: a probe propagates over the whole formula.
    all: Vec<u32>,
    /// The variables that occur, most literal occurrences first (a
    /// duplicated literal counts twice), ties by index.
    ranked: Vec<Var>,
}

impl Lookahead {
    /// Builds a lookahead engine for `cnf`.
    pub(crate) fn new(cnf: &Cnf) -> Self {
        let mut occurrences = vec![0u32; cnf.num_vars()];
        for clause in cnf.clauses() {
            for lit in clause.iter() {
                occurrences[lit.var().index()] += 1;
            }
        }
        let mut ranked: Vec<Var> =
            (0..cnf.num_vars()).filter(|&v| occurrences[v] > 0).map(Var::new).collect();
        // Stable: equal counts stay in index order.
        ranked.sort_by_key(|v| std::cmp::Reverse(occurrences[v.index()]));
        let pool = ClausePool::new(cnf);
        Lookahead {
            prop: Propagator::new(pool.num_vars()),
            all: (0..pool.num_clauses() as u32).collect(),
            pool,
            ranked,
        }
    }

    /// Scores a single variable by propagating both polarities.
    fn score(&mut self, var: Var) -> LookaheadScore {
        let pos = self.implied_under(var.pos());
        let neg = self.implied_under(var.neg());
        LookaheadScore { var, pos_implied: pos, neg_implied: neg }
    }

    /// Number of literals fixed by unit propagation under `assumption`
    /// (itself included), or `None` if it leads to an immediate conflict:
    /// the per-node broadcast / implication traffic the REASON hardware
    /// pipelines (paper Fig. 9). A probe starts from the empty
    /// assignment and leaves it empty.
    fn implied_under(&mut self, assumption: Lit) -> Option<usize> {
        self.prop.assume(assumption);
        let implied = self.prop.propagate(&self.pool, &self.all).then(|| self.prop.trail().len());
        self.prop.undo_to(0);
        implied
    }

    /// Scores the `num_candidates` most frequently occurring variables,
    /// excluding those listed in `frozen` (already decided in the cube).
    pub(crate) fn score_candidates(
        &mut self,
        num_candidates: usize,
        frozen: &[Var],
    ) -> Vec<LookaheadScore> {
        let candidates: Vec<Var> = self
            .ranked
            .iter()
            .copied()
            .filter(|v| !frozen.contains(v))
            .take(num_candidates)
            .collect();
        candidates.into_iter().map(|v| self.score(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_counts_implications() {
        // x0 -> x1 -> x2: assuming x0 implies 3 literals total (x0,x1,x2);
        // assuming !x0 implies just itself.
        let cnf = Cnf::from_clauses(3, vec![vec![-1, 2], vec![-2, 3]]);
        let mut la = Lookahead::new(&cnf);
        let s = la.score(Var::new(0));
        assert_eq!(s.pos_implied, Some(3));
        assert_eq!(s.neg_implied, Some(1));
        assert!(s.failed_literal().is_none());
    }

    #[test]
    fn failed_literal_detected() {
        // x0 -> x1 and x0 -> !x1: assuming x0 conflicts, so !x0 is forced.
        let cnf = Cnf::from_clauses(2, vec![vec![-1, 2], vec![-1, -2]]);
        let mut la = Lookahead::new(&cnf);
        let s = la.score(Var::new(0));
        assert_eq!(s.pos_implied, None);
        assert_eq!(s.failed_literal(), Some(Var::new(0).neg()));
    }

    #[test]
    fn best_split_prefers_high_impact_variable() {
        // x0 drives a chain both ways (3 × 3 implied); assuming !x4 fails
        // outright, which the product score ranks above any chain.
        let cnf = Cnf::from_clauses(
            5,
            vec![vec![-1, 2], vec![-2, 3], vec![1, 4], vec![-4, 5], vec![4, 5]],
        );
        let mut la = Lookahead::new(&cnf);
        let scores = la.score_candidates(5, &[]);
        let best = scores.iter().max_by_key(|s| s.product()).unwrap();
        assert_eq!(best.var, Var::new(4));
        assert_eq!(best.failed_literal(), Some(Var::new(4).pos()));
        let chain = scores.iter().find(|s| s.var == Var::new(0)).unwrap();
        assert_eq!(chain.product(), 16);
    }

    #[test]
    fn propagate_assumption_reports_implications() {
        // !x0 -> x1 -> x2
        let cnf = Cnf::from_clauses(3, vec![vec![1, 2], vec![-2, 3]]);
        let mut la = Lookahead::new(&cnf);
        assert_eq!(la.implied_under(Var::new(0).neg()), Some(3));
        assert_eq!(la.implied_under(Var::new(0).pos()), Some(1));
    }

    #[test]
    fn propagate_assumption_detects_conflict() {
        let cnf = Cnf::from_clauses(2, vec![vec![1], vec![-1, 2], vec![-1, -2]]);
        let mut la = Lookahead::new(&cnf);
        assert!(la.implied_under(Var::new(0).pos()).is_none());
    }

    #[test]
    fn frozen_variables_are_skipped() {
        let cnf = Cnf::from_clauses(3, vec![vec![-1, 2], vec![-2, 3], vec![1, 3]]);
        let mut la = Lookahead::new(&cnf);
        let scores = la.score_candidates(3, &[Var::new(0)]);
        assert!(scores.iter().all(|s| s.var.index() != 0));
    }

    #[test]
    fn every_occurring_variable_is_a_candidate() {
        let cnf = Cnf::from_clauses(3, vec![vec![1, 2], vec![-1, 3], vec![-2, 3]]);
        let mut la = Lookahead::new(&cnf);
        let scores = la.score_candidates(4, &[]);
        assert_eq!(scores.len(), 3);
    }

    #[test]
    fn candidates_rank_by_literal_occurrences_then_index() {
        // x0 occurs twice in one clause, x1 in two clauses: literal counts
        // tie at 2 and the lower index wins (clause counts would rank x1
        // first); x3 never occurs.
        let cnf = Cnf::from_clauses(4, vec![vec![1, 1, 3], vec![2, 3], vec![-2, 3]]);
        let mut la = Lookahead::new(&cnf);
        let order: Vec<usize> = la.score_candidates(8, &[]).iter().map(|s| s.var.index()).collect();
        assert_eq!(order, vec![2, 0, 1]);
    }

    /// The scan [`Lookahead::implied_under`] replaced, kept as its
    /// oracle: every round rescans every clause of the formula.
    fn implied_under_full_scan(cnf: &Cnf, assumption: Lit) -> Option<usize> {
        let mut assign: Vec<Option<bool>> = vec![None; cnf.num_vars()];
        assign[assumption.var().index()] = Some(!assumption.is_neg());
        let mut implied = 1;
        loop {
            let mut changed = false;
            for clause in cnf.clauses() {
                let mut unassigned: Option<Lit> = None;
                let mut num_unassigned = 0;
                let mut satisfied = false;
                for &l in clause.iter() {
                    match assign[l.var().index()] {
                        None => {
                            num_unassigned += 1;
                            unassigned = Some(l);
                        }
                        Some(v) => {
                            if l.eval(v) {
                                satisfied = true;
                                break;
                            }
                        }
                    }
                }
                if satisfied {
                    continue;
                }
                match (num_unassigned, unassigned) {
                    (0, _) => return None,
                    (1, Some(l)) => {
                        assign[l.var().index()] = Some(!l.is_neg());
                        implied += 1;
                        changed = true;
                    }
                    _ => {}
                }
            }
            if !changed {
                return Some(implied);
            }
        }
    }

    #[test]
    fn probes_match_the_full_scan_on_seeded_formulas() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for case in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(0x100c_a4ead ^ case);
            let num_vars = rng.gen_range(1..=20usize);
            // Widths 0..=4: empty and unit clauses, duplicate and
            // tautological literals all occur.
            let clauses: Vec<Vec<i32>> = (0..rng.gen_range(0..=40usize))
                .map(|_| {
                    let width = [0, 1, 1, 2, 2, 3, 3, 3, 4, 4][rng.gen_range(0..10usize)];
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
            let cnf = Cnf::from_clauses(num_vars, clauses);
            // One engine probes every variable in turn, so each probe
            // starts from whatever the last one left behind.
            let mut la = Lookahead::new(&cnf);
            for v in (0..num_vars).map(Var::new) {
                let s = la.score(v);
                let want = (
                    implied_under_full_scan(&cnf, v.pos()),
                    implied_under_full_scan(&cnf, v.neg()),
                );
                assert_eq!((s.pos_implied, s.neg_implied), want, "case {case}, {v}");
            }
        }
    }
}
