//! Cube-and-conquer SAT solving.
//!
//! Cube-and-conquer (paper references \[27\], \[28\]) splits a hard formula
//! into a tree of *cubes* — conjunctions of assumed literals chosen by
//! lookahead — and solves each leaf cube with a CDCL "conquer" solver. The
//! cubes are independent; REASON's hardware conquers them side by side
//! ("Multiple parallelable CDCLs", paper Fig. 9), which the BCP model in
//! `reason-arch` (`SymbolicEngine`) accounts for. Here one incremental
//! solver conquers them in order.

use crate::cdcl::CdclSolver;
use crate::cnf::Cnf;
use crate::lookahead::Lookahead;
use crate::types::Lit;
use crate::Solution;

/// Lookahead candidates evaluated per split.
const LOOKAHEAD_CANDIDATES: usize = 8;

/// Parameters for cube generation and conquering.
#[derive(Debug, Clone)]
pub struct CubeConfig {
    /// Maximum cube depth (number of split literals per cube).
    pub max_depth: usize,
}

impl Default for CubeConfig {
    fn default() -> Self {
        CubeConfig { max_depth: 4 }
    }
}

/// Result of a cube-and-conquer run, with phase structure preserved so
/// experiments can attribute time to cubing versus conquering.
#[derive(Debug, Clone)]
pub struct CubeOutcome {
    /// The overall answer.
    pub solution: Solution,
    /// The cubes generated by the lookahead phase.
    pub cubes: Vec<Vec<Lit>>,
    /// Cubes refuted before conquering (lookahead found them inconsistent).
    pub refuted_during_cubing: usize,
    /// Number of cubes actually solved before an answer was reached.
    pub cubes_solved: usize,
}

/// Cube-and-conquer driver.
///
/// ```
/// use reason_sat::{Cnf, CubeAndConquer, CubeConfig};
/// let cnf = reason_sat::gen::random_ksat(15, 60, 3, 3);
/// let outcome = CubeAndConquer::new(&cnf, CubeConfig::default()).solve();
/// assert!(!outcome.cubes.is_empty());
/// ```
#[derive(Debug)]
pub struct CubeAndConquer {
    cnf: Cnf,
    config: CubeConfig,
}

impl CubeAndConquer {
    /// Creates a driver for `cnf`.
    pub fn new(cnf: &Cnf, config: CubeConfig) -> Self {
        CubeAndConquer { cnf: cnf.clone(), config }
    }

    /// Generates cubes by recursive lookahead splitting. Returns the cube
    /// set along with how many branches were refuted outright.
    fn generate_cubes(&self) -> (Vec<Vec<Lit>>, usize) {
        let mut cubes = Vec::new();
        let mut refuted = 0usize;
        let mut lookahead = Lookahead::new(&self.cnf);
        self.split(&mut lookahead, Vec::new(), &mut cubes, &mut refuted);
        (cubes, refuted)
    }

    fn split(
        &self,
        lookahead: &mut Lookahead,
        prefix: Vec<Lit>,
        cubes: &mut Vec<Vec<Lit>>,
        refuted: &mut usize,
    ) {
        if prefix.len() >= self.config.max_depth {
            cubes.push(prefix);
            return;
        }
        let frozen: Vec<_> = prefix.iter().map(|l| l.var()).collect();
        let scores = lookahead.score_candidates(LOOKAHEAD_CANDIDATES, &frozen);
        let best = scores.into_iter().max_by_key(|s| s.product());
        match best {
            None => cubes.push(prefix),
            Some(score) => {
                // A failed literal refutes one branch immediately.
                if let Some(forced) = score.failed_literal() {
                    *refuted += 1;
                    let mut ext = prefix;
                    ext.push(forced);
                    self.split(lookahead, ext, cubes, refuted);
                    return;
                }
                for lit in [score.var.pos(), score.var.neg()] {
                    let mut ext = prefix.clone();
                    ext.push(lit);
                    self.split(lookahead, ext, cubes, refuted);
                }
            }
        }
    }

    /// Runs the full cube-and-conquer pipeline.
    ///
    /// The formula is SAT iff any cube is SAT; if every cube is refuted the
    /// formula is UNSAT (the cubes partition the search space, with
    /// failed-literal branches already refuted during cubing).
    ///
    /// The conquer phase runs one incremental CDCL solver over the cubes
    /// in order, so clauses learned on one cube carry over to the next; it
    /// stops at the first satisfiable cube and returns its model. The run
    /// is deterministic: the same formula and depth give the same cubes,
    /// the same model and the same [`CubeOutcome::cubes_solved`].
    pub fn solve(&self) -> CubeOutcome {
        let (cubes, refuted_during_cubing) = self.generate_cubes();
        if cubes.is_empty() {
            // Splitting refuted everything.
            return CubeOutcome {
                solution: Solution::Unsat,
                cubes,
                refuted_during_cubing,
                cubes_solved: 0,
            };
        }
        let (solution, cubes_solved) = self.conquer(&cubes);
        CubeOutcome { solution, cubes, refuted_during_cubing, cubes_solved }
    }

    fn conquer(&self, cubes: &[Vec<Lit>]) -> (Solution, usize) {
        let mut solver = CdclSolver::new(&self.cnf);
        for (i, cube) in cubes.iter().enumerate() {
            if let Solution::Sat(model) = solver.solve_with_assumptions(cube) {
                return (Solution::Sat(model), i + 1);
            }
        }
        (Solution::Unsat, cubes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force;
    use crate::gen::{pigeonhole, planted_ksat, random_ksat};

    fn check(cnf: &Cnf, config: CubeConfig) {
        let expect = brute_force(cnf).is_sat();
        let outcome = CubeAndConquer::new(cnf, config).solve();
        assert_eq!(outcome.solution.is_sat(), expect);
        if let Solution::Sat(m) = &outcome.solution {
            assert!(cnf.eval(m));
        }
    }

    #[test]
    fn matches_brute_force_sequential() {
        for seed in (0..10).chain(100..106) {
            let cnf = random_ksat(10, 42, 3, seed);
            check(&cnf, CubeConfig::default());
        }
    }

    #[test]
    fn pigeonhole_unsat_through_cubes() {
        let cnf = pigeonhole(4);
        let outcome = CubeAndConquer::new(&cnf, CubeConfig::default()).solve();
        assert!(!outcome.solution.is_sat());
        assert!(outcome.cubes_solved > 0);
    }

    #[test]
    fn planted_sat_found() {
        let cnf = planted_ksat(20, 80, 3, 5);
        let config = CubeConfig { max_depth: 3 };
        let outcome = CubeAndConquer::new(&cnf, config).solve();
        assert!(outcome.solution.is_sat());
    }

    #[test]
    fn cube_count_bounded_by_depth() {
        let cnf = random_ksat(12, 50, 3, 11);
        let config = CubeConfig { max_depth: 3 };
        let (cubes, _) = CubeAndConquer::new(&cnf, config).generate_cubes();
        assert!(cubes.len() <= 8, "at most 2^3 cubes, got {}", cubes.len());
        for cube in &cubes {
            assert!(cube.len() <= 3);
        }
    }
}
