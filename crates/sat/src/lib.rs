//! Boolean satisfiability substrate for the REASON reproduction.
//!
//! This crate implements the logical-reasoning kernels that the REASON paper
//! (HPCA 2026) identifies as one half of the "probabilistic logical reasoning"
//! bottleneck: propositional satisfiability solving with the modern machinery
//! referenced in the paper — conflict-driven clause learning (CDCL) with
//! two-watched-literal propagation, lookahead-guided cube-and-conquer, and the
//! binary-implication-graph preprocessing that REASON's adaptive DAG pruning
//! builds on.
//!
//! # Layout
//!
//! * [`types`] — [`Var`], [`Lit`], [`Clause`]: the propositional vocabulary.
//! * [`cnf`] — [`Cnf`] formulas with DIMACS parsing and printing.
//! * [`cdcl`] — a full CDCL solver: 1UIP learning, VSIDS, phase saving,
//!   Luby restarts, LBD-based clause-database reduction, assumptions.
//! * `lookahead` (crate-private) — lookahead literal scoring used to pick
//!   cube-split variables: each probe is an assumption on the shared
//!   [`Propagator`].
//! * [`cube`] — cube-and-conquer: lookahead cube generation plus sequential
//!   or parallel CDCL conquering.
//! * [`pool`] — a shared indexed clause pool ([`ClausePool`]) and a
//!   trail-based unit propagator ([`Propagator`]): the crate's one unit
//!   propagator outside CDCL's watched literals. Search-style consumers
//!   name residual formulas by clause id instead of cloning them. It
//!   runs `reason-pc`'s top-down component-caching compiler, the
//!   lookahead probes and the preprocessor's unit pass.
//! * [`preprocess`] — unit/pure-literal simplification, binary implication
//!   graph construction, failed-literal probing, hidden-literal elimination,
//!   and equivalent-literal substitution. These are the symbolic half of
//!   REASON's adaptive DAG pruning (paper Sec. IV-B).
//! * [`gen`] — seeded instance generators (random k-SAT, pigeonhole,
//!   graph coloring) used by the workload suite.
//! * [`brute`] — brute-force model enumeration and counting for testing.
//!
//! # Example
//!
//! ```
//! use reason_sat::{Cnf, CdclSolver, Solution};
//!
//! // (x0 | x1) & (!x0 | x1) & (x0 | !x1)  =>  x0 = x1 = true
//! let cnf = Cnf::from_clauses(2, vec![vec![1, 2], vec![-1, 2], vec![1, -2]]);
//! let mut solver = CdclSolver::new(&cnf);
//! match solver.solve() {
//!     Solution::Sat(model) => {
//!         assert!(model[0] && model[1]);
//!     }
//!     Solution::Unsat => unreachable!("formula is satisfiable"),
//! }
//! ```

pub mod brute;
pub mod cdcl;
pub mod cnf;
pub mod cube;
pub mod gen;
mod lookahead;
pub mod pool;
pub mod preprocess;
pub mod types;

pub use brute::{brute_force, count_models, weighted_count};
pub use cdcl::{CdclSolver, SolverObserver, SolverStats};
pub use cnf::{Cnf, DimacsError};
pub use cube::{CubeAndConquer, CubeConfig, CubeOutcome};
pub use pool::{ClausePool, Propagator};
pub use preprocess::{PreprocessResult, Preprocessor};
pub use types::{Clause, Lit, Var};

/// The outcome of a satisfiability query.
///
/// `Sat` carries a complete model indexed by variable: `model[v]` is the
/// truth value assigned to variable `v`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Solution {
    /// The formula is satisfiable; the payload is a witnessing assignment.
    Sat(Vec<bool>),
    /// The formula is unsatisfiable.
    Unsat,
}

impl Solution {
    /// Returns `true` if the query was satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, Solution::Sat(_))
    }

    /// Returns the model if satisfiable.
    #[cfg(test)]
    fn model(&self) -> Option<&[bool]> {
        match self {
            Solution::Sat(m) => Some(m),
            Solution::Unsat => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solution_accessors() {
        let sat = Solution::Sat(vec![true, false]);
        assert!(sat.is_sat());
        assert_eq!(sat.model(), Some(&[true, false][..]));
        let unsat = Solution::Unsat;
        assert!(!unsat.is_sat());
        assert_eq!(unsat.model(), None);
    }
}
