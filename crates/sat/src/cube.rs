//! Cube-and-conquer SAT solving.
//!
//! Cube-and-conquer (paper references \[27\], \[28\]) splits a hard formula
//! into a tree of *cubes* — conjunctions of assumed literals chosen by
//! lookahead — and solves each leaf cube with a CDCL "conquer" solver. The
//! cubes are independent, so the conquer phase parallelizes; REASON's
//! architecture exploits exactly this structure ("Multiple parallelable
//! CDCLs", paper Fig. 9).

use crossbeam::thread;

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
    /// Number of conquer worker threads (1 = sequential incremental
    /// solving; > 1 = threaded conquering with deterministic answer
    /// selection — see [`CubeAndConquer::solve`]).
    pub workers: usize,
}

impl Default for CubeConfig {
    fn default() -> Self {
        CubeConfig { max_depth: 4, workers: 1 }
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
    /// With `workers > 1` the conquer phase is threaded, and the answer is
    /// selected **deterministically**: the model returned is always the one
    /// found in the lowest-indexed satisfiable cube, solved by a fresh CDCL
    /// solver, so repeated parallel runs (and runs with different worker
    /// counts) return bit-identical models. Only [`CubeOutcome::cubes_solved`]
    /// is timing-dependent — workers may conquer a few extra cubes that were
    /// already in flight when the winning cube was found.
    ///
    /// The sequential path (`workers <= 1`) instead reuses one incremental
    /// solver across cubes so learned clauses carry over; its verdict always
    /// matches the parallel path, but a SAT model may differ (both are
    /// checked models of the formula).
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
        let (solution, cubes_solved) = if self.config.workers <= 1 {
            self.conquer_sequential(&cubes)
        } else {
            self.conquer_parallel(&cubes)
        };
        CubeOutcome { solution, cubes, refuted_during_cubing, cubes_solved }
    }

    fn conquer_sequential(&self, cubes: &[Vec<Lit>]) -> (Solution, usize) {
        let mut solver = CdclSolver::new(&self.cnf);
        for (i, cube) in cubes.iter().enumerate() {
            if let Solution::Sat(model) = solver.solve_with_assumptions(cube) {
                return (Solution::Sat(model), i + 1);
            }
        }
        (Solution::Unsat, cubes.len())
    }

    /// Threaded conquer with deterministic answer selection.
    ///
    /// Workers claim cube indices in increasing order from a shared
    /// counter and solve each claimed cube with a *fresh* CDCL solver, so
    /// every cube's result is a pure function of `(cnf, cube)`.
    /// The first-found SAT cube only *bounds* the search: claims stop past
    /// the best (lowest) SAT index seen so far, but every lower-indexed
    /// cube was already claimed and will be finished, so after the join
    /// the lowest SAT index — and therefore the returned model — is
    /// independent of thread timing.
    fn conquer_parallel(&self, cubes: &[Vec<Lit>]) -> (Solution, usize) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;

        let next = AtomicUsize::new(0);
        let best_sat = AtomicUsize::new(usize::MAX);
        let solved = AtomicUsize::new(0);
        let models: Vec<Mutex<Option<Vec<bool>>>> =
            cubes.iter().map(|_| Mutex::new(None)).collect();

        thread::scope(|scope| {
            for _ in 0..self.config.workers {
                scope.spawn(|_| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    // A cube past the best-known SAT index can never win
                    // the deterministic selection; indices below it were
                    // claimed earlier (claims are monotone) and complete
                    // before the scope joins.
                    if i >= cubes.len() || i > best_sat.load(Ordering::SeqCst) {
                        return;
                    }
                    let mut solver = CdclSolver::new(&self.cnf);
                    let sol = solver.solve_with_assumptions(&cubes[i]);
                    solved.fetch_add(1, Ordering::SeqCst);
                    if let Solution::Sat(model) = sol {
                        *models[i].lock().unwrap() = Some(model);
                        best_sat.fetch_min(i, Ordering::SeqCst);
                    }
                });
            }
        })
        .expect("conquer worker panicked");

        let solved = solved.into_inner();
        match best_sat.into_inner() {
            usize::MAX => (Solution::Unsat, solved),
            best => {
                let model = models[best].lock().unwrap().take().expect("winning cube has a model");
                (Solution::Sat(model), solved)
            }
        }
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
        for seed in 0..10 {
            let cnf = random_ksat(10, 42, 3, seed);
            check(&cnf, CubeConfig::default());
        }
    }

    #[test]
    fn matches_brute_force_parallel() {
        let config = CubeConfig { workers: 4, ..CubeConfig::default() };
        for seed in 0..6 {
            let cnf = random_ksat(10, 42, 3, 100 + seed);
            check(&cnf, config.clone());
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
        let config = CubeConfig { max_depth: 3, workers: 2 };
        let outcome = CubeAndConquer::new(&cnf, config).solve();
        assert!(outcome.solution.is_sat());
    }

    #[test]
    fn parallel_and_sequential_agree_on_random_ksat() {
        // The satellite guarantee: same SAT/UNSAT verdict with workers > 1
        // as with the sequential conquer, across SAT and UNSAT instances.
        for seed in 0..12 {
            let cnf = random_ksat(10, 44, 3, 300 + seed);
            let seq = CubeAndConquer::new(&cnf, CubeConfig::default()).solve();
            let par = CubeAndConquer::new(&cnf, CubeConfig { workers: 4, ..CubeConfig::default() })
                .solve();
            assert_eq!(seq.solution.is_sat(), par.solution.is_sat(), "seed {seed}");
            if let Solution::Sat(m) = &par.solution {
                assert!(cnf.eval(m), "seed {seed}: parallel model must satisfy the formula");
            }
        }
    }

    #[test]
    fn parallel_answer_selection_is_deterministic() {
        // Repeated parallel runs (and different worker counts) must return
        // bit-identical models: the lowest-indexed SAT cube always wins.
        for seed in 0..4 {
            let cnf = planted_ksat(18, 70, 3, 40 + seed);
            let solve = |workers: usize| {
                CubeAndConquer::new(&cnf, CubeConfig { workers, ..CubeConfig::default() })
                    .solve()
                    .solution
            };
            let reference = solve(2);
            assert!(reference.is_sat());
            for run in 0..3 {
                assert_eq!(reference, solve(2), "seed {seed} run {run}");
            }
            assert_eq!(reference, solve(8), "seed {seed}: worker count changes the answer");
        }
    }

    #[test]
    fn cube_count_bounded_by_depth() {
        let cnf = random_ksat(12, 50, 3, 11);
        let config = CubeConfig { max_depth: 3, ..CubeConfig::default() };
        let (cubes, _) = CubeAndConquer::new(&cnf, config).generate_cubes();
        assert!(cubes.len() <= 8, "at most 2^3 cubes, got {}", cubes.len());
        for cube in &cubes {
            assert!(cube.len() <= 3);
        }
    }
}
