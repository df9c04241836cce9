//! Lookahead literal scoring for cube splitting.
//!
//! Cube-and-conquer (Heule et al., paper reference \[27\]) guides CDCL by a
//! lookahead phase: candidate split variables are evaluated by propagating
//! each polarity and measuring how strongly the formula shrinks. REASON's
//! working example (paper Fig. 9, "Lookahead: LA(A) < LA(B)") ranks DPLL
//! tree nodes by exactly this score.

use crate::cnf::Cnf;
use crate::types::{Lit, Var};

const UNASSIGNED: u8 = 2;

/// The lookahead measurement for one variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LookaheadScore {
    /// The variable measured.
    pub var: Var,
    /// Literals implied when the positive literal is assumed
    /// (`None` encodes an immediate conflict ⇒ failed literal).
    pub pos_implied: Option<usize>,
    /// Literals implied when the negative literal is assumed.
    pub neg_implied: Option<usize>,
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

/// Lookahead engine over a formula.
///
/// ```
/// use reason_sat::{Cnf, Lookahead};
/// let cnf = Cnf::from_clauses(3, vec![vec![1, 2], vec![-1, 3], vec![-2, 3]]);
/// let mut la = Lookahead::new(&cnf);
/// let scores = la.score_candidates(4, &[]);
/// assert_eq!(scores.len(), 3);
/// ```
#[derive(Debug)]
pub struct Lookahead {
    cnf: Cnf,
    occurrences: Vec<u32>,
}

impl Lookahead {
    /// Builds a lookahead engine for `cnf`.
    pub fn new(cnf: &Cnf) -> Self {
        let mut occurrences = vec![0u32; cnf.num_vars()];
        for clause in cnf.clauses() {
            for lit in clause.iter() {
                occurrences[lit.var().index()] += 1;
            }
        }
        Lookahead { cnf: cnf.clone(), occurrences }
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
    /// pipelines (paper Fig. 9).
    fn implied_under(&self, assumption: Lit) -> Option<usize> {
        let mut assign = vec![UNASSIGNED; self.cnf.num_vars()];
        assign[assumption.var().index()] = u8::from(!assumption.is_neg());
        let mut implied = 1;
        loop {
            let mut changed = false;
            for clause in self.cnf.clauses() {
                let mut unassigned: Option<Lit> = None;
                let mut num_unassigned = 0;
                let mut satisfied = false;
                for &l in clause.iter() {
                    match assign[l.var().index()] {
                        UNASSIGNED => {
                            num_unassigned += 1;
                            unassigned = Some(l);
                        }
                        v => {
                            if l.eval(v == 1) {
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
                        assign[l.var().index()] = u8::from(!l.is_neg());
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

    /// Scores the `num_candidates` most frequently occurring variables,
    /// excluding those listed in `frozen` (already decided in the cube).
    pub fn score_candidates(
        &mut self,
        num_candidates: usize,
        frozen: &[Var],
    ) -> Vec<LookaheadScore> {
        let mut by_occurrence: Vec<usize> = (0..self.cnf.num_vars()).collect();
        by_occurrence.sort_by_key(|&v| std::cmp::Reverse(self.occurrences[v]));
        let frozen_set: std::collections::HashSet<usize> =
            frozen.iter().map(|v| v.index()).collect();
        let candidates: Vec<usize> = by_occurrence
            .into_iter()
            .filter(|v| !frozen_set.contains(v) && self.occurrences[*v] > 0)
            .take(num_candidates)
            .collect();
        candidates.into_iter().map(|v| self.score(Var::new(v))).collect()
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
        let la = Lookahead::new(&cnf);
        assert_eq!(la.implied_under(Var::new(0).neg()), Some(3));
        assert_eq!(la.implied_under(Var::new(0).pos()), Some(1));
    }

    #[test]
    fn propagate_assumption_detects_conflict() {
        let cnf = Cnf::from_clauses(2, vec![vec![1], vec![-1, 2], vec![-1, -2]]);
        let la = Lookahead::new(&cnf);
        assert!(la.implied_under(Var::new(0).pos()).is_none());
    }

    #[test]
    fn frozen_variables_are_skipped() {
        let cnf = Cnf::from_clauses(3, vec![vec![-1, 2], vec![-2, 3], vec![1, 3]]);
        let mut la = Lookahead::new(&cnf);
        let scores = la.score_candidates(3, &[Var::new(0)]);
        assert!(scores.iter().all(|s| s.var.index() != 0));
    }
}
