//! Satisfiability-preserving CNF preprocessing.
//!
//! This module implements the symbolic side of REASON's *adaptive DAG
//! pruning* (paper Sec. IV-B): the binary implication graph (BIG) is built
//! from the formula's binary clauses, reachability over the BIG exposes
//! *hidden literals* that can be dropped from clauses without changing
//! satisfiability, *failed literals* whose negations are forced, and
//! strongly connected components of equivalent literals that can be
//! substituted away. Unit propagation and pure-literal elimination round
//! out the pipeline.
//!
//! Every transformation records a reconstruction step so that a model of
//! the reduced formula can be extended back to a model of the original
//! formula ([`PreprocessResult::reconstruct_model`]).
//!
//! **Contract: satisfiability, not counts.** The pass is for *logical*
//! kernels, where one model is the answer. It preserves neither the
//! number nor the weight of models: a fixed pure literal discards the
//! models that set it the other way, and a fixed or substituted
//! variable takes its weight out of the formula. On `(x1 ∨ x2) ∧ (¬x2 ∨
//! x3)` under uniform weights the count is 1/2 before and 1 after the
//! default pass (pinned in `tests/property_invariants.rs`), so it must
//! not front a model counter or `reason_pc::compile_cnf`; that needs a
//! count-preserving mode, which does not exist yet.

use std::collections::{HashMap, HashSet};

use crate::cnf::Cnf;
use crate::types::{Clause, Lit, Var};

/// The binary implication graph of a CNF formula.
///
/// Every binary clause `(a | b)` induces the implications `!a -> b` and
/// `!b -> a`. Reachability over this graph is the pruning relation used by
/// hidden-literal elimination: if `a` reaches `b`, then whenever `a` holds,
/// `b` holds.
///
/// ```
/// use reason_sat::{BinaryImplicationGraph, Cnf, Var};
/// let cnf = Cnf::from_clauses(3, vec![vec![-1, 2], vec![-2, 3]]);
/// let mut big = BinaryImplicationGraph::new(&cnf);
/// // x0 -> x1 -> x2
/// assert!(big.implies(Var::new(0).pos(), Var::new(2).pos()));
/// assert!(!big.implies(Var::new(2).pos(), Var::new(0).pos()));
/// ```
#[derive(Debug, Clone)]
pub struct BinaryImplicationGraph {
    /// Successors per literal code.
    succ: Vec<Vec<Lit>>,
    /// Cap on nodes explored per reachability query (soundness is kept:
    /// truncated searches only *miss* pruning opportunities).
    reach_limit: usize,
    cache: HashMap<usize, HashSet<usize>>,
}

impl BinaryImplicationGraph {
    /// Builds the BIG from all binary clauses of `cnf`.
    pub fn new(cnf: &Cnf) -> Self {
        let mut succ = vec![Vec::new(); 2 * cnf.num_vars()];
        for clause in cnf.clauses() {
            if clause.len() == 2 {
                let (a, b) = (clause.lits()[0], clause.lits()[1]);
                succ[(!a).code()].push(b);
                succ[(!b).code()].push(a);
            }
        }
        BinaryImplicationGraph { succ, reach_limit: 100_000, cache: HashMap::new() }
    }

    /// Number of implication edges.
    #[cfg(test)]
    fn num_edges(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }

    /// The set of literal codes reachable from `lit` (excluding `lit`
    /// itself unless it lies on a cycle). Memoized.
    fn reachable(&mut self, lit: Lit) -> &HashSet<usize> {
        if !self.cache.contains_key(&lit.code()) {
            let mut seen: HashSet<usize> = HashSet::new();
            let mut stack: Vec<Lit> = self.succ[lit.code()].clone();
            while let Some(l) = stack.pop() {
                if seen.len() >= self.reach_limit {
                    break;
                }
                if seen.insert(l.code()) {
                    stack.extend_from_slice(&self.succ[l.code()]);
                }
            }
            self.cache.insert(lit.code(), seen);
        }
        &self.cache[&lit.code()]
    }

    /// `true` when assigning `from` true forces `to` true through chains of
    /// binary clauses.
    pub fn implies(&mut self, from: Lit, to: Lit) -> bool {
        self.reachable(from).contains(&to.code())
    }

    /// Literals `l` with `l -> !l`: these *failed literals* force `!l`.
    fn failed_literals(&mut self) -> Vec<Lit> {
        let n = self.succ.len();
        let mut failed = Vec::new();
        for code in 0..n {
            let lit = Lit::from_code(code);
            if !self.succ[code].is_empty() && self.implies(lit, !lit) {
                failed.push(lit);
            }
        }
        failed
    }

    /// Tarjan SCC over the literal graph. Returns, per literal code, its
    /// component id. Literals in one component are pairwise equivalent.
    fn sccs(&self) -> Vec<u32> {
        let n = self.succ.len();
        let mut index = vec![u32::MAX; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut comp = vec![u32::MAX; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0u32;
        let mut next_comp = 0u32;

        // Iterative Tarjan with an explicit work stack.
        enum Frame {
            Enter(usize),
            Exit(usize, usize), // (node, successor position resumed after)
        }
        for root in 0..n {
            if index[root] != u32::MAX {
                continue;
            }
            let mut work = vec![Frame::Enter(root)];
            while let Some(frame) = work.pop() {
                match frame {
                    Frame::Enter(v) => {
                        if index[v] != u32::MAX {
                            continue;
                        }
                        index[v] = next_index;
                        low[v] = next_index;
                        next_index += 1;
                        stack.push(v);
                        on_stack[v] = true;
                        work.push(Frame::Exit(v, 0));
                    }
                    Frame::Exit(v, mut pos) => {
                        // Fold in the child just finished, if any.
                        if pos > 0 {
                            let w = self.succ[v][pos - 1].code();
                            low[v] = low[v].min(low[w]);
                        }
                        let mut descended = false;
                        while pos < self.succ[v].len() {
                            let w = self.succ[v][pos].code();
                            pos += 1;
                            if index[w] == u32::MAX {
                                work.push(Frame::Exit(v, pos));
                                work.push(Frame::Enter(w));
                                descended = true;
                                break;
                            } else if on_stack[w] {
                                low[v] = low[v].min(index[w]);
                            }
                        }
                        if descended {
                            continue;
                        }
                        if low[v] == index[v] {
                            loop {
                                let w = stack.pop().expect("tarjan stack underflow");
                                on_stack[w] = false;
                                comp[w] = next_comp;
                                if w == v {
                                    break;
                                }
                            }
                            next_comp += 1;
                        }
                    }
                }
            }
        }
        comp
    }
}

/// One reversible preprocessing action, recorded for model reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Variable fixed to a constant (unit propagation, failed or pure literal).
    Fixed(Var, bool),
    /// Variable substituted by an equivalent literal.
    Subst(Var, Lit),
}

/// Statistics produced by a preprocessing run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Variables fixed by unit propagation.
    pub units_fixed: usize,
    /// Failed literals detected through the BIG.
    pub failed_literals: usize,
    /// Variables substituted by equivalent literals (BIG SCCs).
    pub equivalences: usize,
    /// Variables fixed by pure-literal elimination.
    pub pure_literals: usize,
    /// Literal occurrences dropped by hidden-literal elimination.
    pub hidden_literals: usize,
    /// Clauses removed end to end.
    pub clauses_removed: usize,
    /// Formula footprint in bytes before preprocessing.
    pub bytes_before: usize,
    /// Formula footprint in bytes after preprocessing.
    pub bytes_after: usize,
}

impl PruneStats {
    /// Fraction of the memory footprint removed, in `[0, 1]`.
    pub fn memory_reduction(&self) -> f64 {
        if self.bytes_before == 0 {
            0.0
        } else {
            1.0 - self.bytes_after as f64 / self.bytes_before as f64
        }
    }
}

/// Configuration of the preprocessing pipeline.
#[derive(Debug, Clone)]
pub struct PreprocessConfig {
    /// Enable pure-literal elimination (satisfiability-preserving but not
    /// model-count-preserving). Turning it off is necessary for counting
    /// but not sufficient: units, failed literals and equivalences still
    /// remove variables and their weights (see the [module docs](self)).
    pub pure_literals: bool,
    /// Enable equivalent-literal substitution via BIG SCCs.
    pub equivalences: bool,
    /// Enable failed-literal detection over the BIG.
    pub failed_literals: bool,
}

/// Pipeline rounds (the reductions enable one another). Hidden-literal
/// elimination runs in every round.
const ROUNDS: usize = 2;

impl Default for PreprocessConfig {
    fn default() -> Self {
        PreprocessConfig { pure_literals: true, equivalences: true, failed_literals: true }
    }
}

/// Result of preprocessing: the reduced formula plus everything needed to
/// lift models back to the original variable universe.
#[derive(Debug, Clone)]
pub struct PreprocessResult {
    /// The reduced formula (same variable universe as the input).
    pub cnf: Cnf,
    /// `Some(false)` when preprocessing proved the formula unsatisfiable;
    /// `Some(true)` when it proved it satisfiable (all clauses eliminated);
    /// `None` when a solver still has work to do.
    pub decided: Option<bool>,
    /// Reduction statistics.
    pub stats: PruneStats,
    steps: Vec<Step>,
}

impl PreprocessResult {
    /// Extends a model of the reduced formula to a model of the original
    /// formula by replaying the recorded eliminations in reverse.
    ///
    /// # Panics
    ///
    /// Panics if `reduced_model` is shorter than the variable universe.
    pub fn reconstruct_model(&self, reduced_model: &[bool]) -> Vec<bool> {
        let mut model = reduced_model.to_vec();
        for step in self.steps.iter().rev() {
            match *step {
                Step::Fixed(v, b) => model[v.index()] = b,
                Step::Subst(v, lit) => model[v.index()] = lit.eval(model[lit.var().index()]),
            }
        }
        model
    }
}

/// The preprocessing pipeline driver.
///
/// ```
/// use reason_sat::{Cnf, Preprocessor};
/// let cnf = Cnf::from_clauses(3, vec![vec![1], vec![-1, 2], vec![-2, 3, 1]]);
/// let result = Preprocessor::new().run(&cnf);
/// assert_eq!(result.decided, Some(true)); // fully solved by propagation
/// ```
#[derive(Debug, Default)]
pub struct Preprocessor {
    config: PreprocessConfig,
}

impl Preprocessor {
    /// Creates a preprocessor with the default configuration.
    pub fn new() -> Self {
        Preprocessor { config: PreprocessConfig::default() }
    }

    /// Creates a preprocessor with an explicit configuration.
    #[cfg(test)]
    fn with_config(config: PreprocessConfig) -> Self {
        Preprocessor { config }
    }

    /// Runs the pipeline on `cnf`.
    pub fn run(&self, cnf: &Cnf) -> PreprocessResult {
        let mut work = cnf.clone();
        let mut stats =
            PruneStats { bytes_before: work.footprint_bytes(), ..PruneStats::default() };
        let clauses_before = work.num_clauses();
        let mut steps: Vec<Step> = Vec::new();
        work.normalize();

        let mut decided: Option<bool> = None;
        'rounds: for _ in 0..ROUNDS {
            // 1. Unit propagation to fixpoint.
            match propagate_units(&mut work, &mut steps, &mut stats) {
                UnitOutcome::Conflict => {
                    decided = Some(false);
                    break 'rounds;
                }
                UnitOutcome::Done => {}
            }
            if work.num_clauses() == 0 {
                decided = Some(true);
                break 'rounds;
            }

            // 2. Failed literals over the BIG.
            if self.config.failed_literals {
                let mut big = BinaryImplicationGraph::new(&work);
                let failed = big.failed_literals();
                if !failed.is_empty() {
                    stats.failed_literals += failed.len();
                    for l in failed {
                        // `l -> !l` forces `!l`.
                        work.add_clause(Clause::new(vec![!l]));
                    }
                    match propagate_units(&mut work, &mut steps, &mut stats) {
                        UnitOutcome::Conflict => {
                            decided = Some(false);
                            break 'rounds;
                        }
                        UnitOutcome::Done => {}
                    }
                }
            }

            // 3. Equivalent-literal substitution via SCCs.
            if self.config.equivalences {
                let big = BinaryImplicationGraph::new(&work);
                let comp = big.sccs();
                // Detect l ~ !l: unsatisfiable.
                let mut rep_of_comp: HashMap<u32, Lit> = HashMap::new();
                for code in 0..comp.len() {
                    let lit = Lit::from_code(code);
                    if comp[code] == comp[(!lit).code()] && comp[code] != u32::MAX {
                        // A literal equivalent to its own negation.
                        decided = Some(false);
                        break 'rounds;
                    }
                    let entry = rep_of_comp.entry(comp[code]).or_insert(lit);
                    if lit.code() < entry.code() {
                        *entry = lit;
                    }
                }
                let mut subst: Vec<Option<Lit>> = vec![None; work.num_vars()];
                for code in 0..comp.len() {
                    let lit = Lit::from_code(code);
                    let rep = rep_of_comp[&comp[code]];
                    if rep != lit && rep.var() != lit.var() {
                        // Record once per variable using the positive polarity.
                        if !lit.is_neg() && subst[lit.var().index()].is_none() {
                            subst[lit.var().index()] = Some(rep);
                        }
                    }
                }
                let mut any = false;
                for (v, rep) in subst.iter().enumerate() {
                    if let Some(rep) = rep {
                        steps.push(Step::Subst(Var::new(v), *rep));
                        stats.equivalences += 1;
                        any = true;
                    }
                }
                if any {
                    apply_substitution(&mut work, &subst);
                    work.normalize();
                    match propagate_units(&mut work, &mut steps, &mut stats) {
                        UnitOutcome::Conflict => {
                            decided = Some(false);
                            break 'rounds;
                        }
                        UnitOutcome::Done => {}
                    }
                }
            }

            // 4. Hidden-literal elimination.
            let mut big = BinaryImplicationGraph::new(&work);
            let mut new_clauses: Vec<Clause> = Vec::with_capacity(work.num_clauses());
            let mut dropped = 0usize;
            for clause in work.clauses() {
                if clause.len() < 2 {
                    new_clauses.push(clause.clone());
                    continue;
                }
                let mut kept: Vec<Lit> = clause.lits().to_vec();
                let mut i = 0;
                while i < kept.len() {
                    let a = kept[i];
                    // Skip failed-literal cases (handled above).
                    if big.implies(a, !a) {
                        i += 1;
                        continue;
                    }
                    let drop = kept.iter().enumerate().any(|(j, &b)| j != i && big.implies(a, b));
                    if drop {
                        kept.remove(i);
                        dropped += 1;
                    } else {
                        i += 1;
                    }
                }
                new_clauses.push(Clause::new(kept));
            }
            if dropped > 0 {
                stats.hidden_literals += dropped;
                let num_vars = work.num_vars();
                work = Cnf::new(num_vars);
                for c in new_clauses {
                    work.add_clause(c);
                }
                match propagate_units(&mut work, &mut steps, &mut stats) {
                    UnitOutcome::Conflict => {
                        decided = Some(false);
                        break 'rounds;
                    }
                    UnitOutcome::Done => {}
                }
            }

            // 5. Pure-literal elimination.
            if self.config.pure_literals {
                let fixed = eliminate_pure_literals(&mut work, &mut steps, &mut stats);
                if fixed && work.num_clauses() == 0 {
                    decided = Some(true);
                    break 'rounds;
                }
            }

            if work.num_clauses() == 0 {
                decided = Some(true);
                break 'rounds;
            }
        }

        if work.has_empty_clause() {
            decided = Some(false);
        }
        if decided == Some(false) {
            // A proven-unsatisfiable formula reduces to the empty clause.
            let num_vars = work.num_vars();
            work = Cnf::new(num_vars);
            work.add_clause(Clause::new(Vec::new()));
        }
        stats.bytes_after = work.footprint_bytes();
        stats.clauses_removed = clauses_before.saturating_sub(work.num_clauses());
        PreprocessResult { cnf: work, decided, stats, steps }
    }
}

enum UnitOutcome {
    Done,
    Conflict,
}

/// Propagates all unit clauses to fixpoint, simplifying in place.
fn propagate_units(cnf: &mut Cnf, steps: &mut Vec<Step>, stats: &mut PruneStats) -> UnitOutcome {
    let num_vars = cnf.num_vars();
    let mut value: Vec<Option<bool>> = vec![None; num_vars];
    // Seed with current units.
    let mut queue: Vec<Lit> = Vec::new();
    for c in cnf.clauses() {
        if c.is_unit() {
            queue.push(c.lits()[0]);
        }
        if c.is_empty() {
            return UnitOutcome::Conflict;
        }
    }
    let mut clauses: Vec<Clause> = cnf.clauses().to_vec();
    loop {
        let mut progressed = false;
        while let Some(l) = queue.pop() {
            match value[l.var().index()] {
                Some(b) if b == l.is_neg() => return UnitOutcome::Conflict,
                Some(_) => {}
                None => {
                    value[l.var().index()] = Some(!l.is_neg());
                    steps.push(Step::Fixed(l.var(), !l.is_neg()));
                    stats.units_fixed += 1;
                    progressed = true;
                }
            }
        }
        if !progressed {
            break;
        }
        // Simplify clauses under the accumulated assignment.
        let mut next: Vec<Clause> = Vec::with_capacity(clauses.len());
        for c in &clauses {
            let mut lits: Vec<Lit> = Vec::with_capacity(c.len());
            let mut satisfied = false;
            for &l in c.iter() {
                match value[l.var().index()] {
                    Some(b) => {
                        if l.eval(b) {
                            satisfied = true;
                            break;
                        }
                    }
                    None => lits.push(l),
                }
            }
            if satisfied {
                continue;
            }
            if lits.is_empty() {
                return UnitOutcome::Conflict;
            }
            if lits.len() == 1 {
                queue.push(lits[0]);
            }
            next.push(Clause::new(lits));
        }
        clauses = next;
    }
    let mut out = Cnf::new(num_vars);
    for c in clauses {
        out.add_clause(c);
    }
    *cnf = out;
    UnitOutcome::Done
}

fn apply_substitution(cnf: &mut Cnf, subst: &[Option<Lit>]) {
    let num_vars = cnf.num_vars();
    let mut out = Cnf::new(num_vars);
    for c in cnf.clauses() {
        let lits: Vec<Lit> = c
            .iter()
            .map(|&l| match subst[l.var().index()] {
                Some(rep) => {
                    if l.is_neg() {
                        !rep
                    } else {
                        rep
                    }
                }
                None => l,
            })
            .collect();
        out.add_clause(Clause::new(lits));
    }
    *cnf = out;
}

fn eliminate_pure_literals(cnf: &mut Cnf, steps: &mut Vec<Step>, stats: &mut PruneStats) -> bool {
    let mut any = false;
    loop {
        let n = cnf.num_vars();
        let mut pos = vec![false; n];
        let mut neg = vec![false; n];
        for c in cnf.clauses() {
            for &l in c.iter() {
                if l.is_neg() {
                    neg[l.var().index()] = true;
                } else {
                    pos[l.var().index()] = true;
                }
            }
        }
        let mut pure: Vec<Lit> = Vec::new();
        for v in 0..n {
            match (pos[v], neg[v]) {
                (true, false) => pure.push(Var::new(v).pos()),
                (false, true) => pure.push(Var::new(v).neg()),
                _ => {}
            }
        }
        if pure.is_empty() {
            return any;
        }
        any = true;
        let pure_set: HashSet<usize> = pure.iter().map(|l| l.code()).collect();
        for l in &pure {
            steps.push(Step::Fixed(l.var(), !l.is_neg()));
            stats.pure_literals += 1;
        }
        let num_vars = cnf.num_vars();
        let mut out = Cnf::new(num_vars);
        for c in cnf.clauses() {
            if !c.iter().any(|l| pure_set.contains(&l.code())) {
                out.add_clause(c.clone());
            }
        }
        *cnf = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force;
    use crate::cdcl::CdclSolver;
    use crate::gen::random_ksat;
    use crate::Solution;

    #[test]
    fn big_edges_from_binary_clauses() {
        let cnf = Cnf::from_clauses(2, vec![vec![1, 2]]);
        let mut big = BinaryImplicationGraph::new(&cnf);
        assert!(big.implies(Var::new(0).neg(), Var::new(1).pos()));
        assert!(big.implies(Var::new(1).neg(), Var::new(0).pos()));
        assert_eq!(big.num_edges(), 2);
    }

    #[test]
    fn big_transitive_reachability() {
        let cnf = Cnf::from_clauses(4, vec![vec![-1, 2], vec![-2, 3], vec![-3, 4]]);
        let mut big = BinaryImplicationGraph::new(&cnf);
        assert!(big.implies(Var::new(0).pos(), Var::new(3).pos()));
        assert!(!big.implies(Var::new(3).pos(), Var::new(0).pos()));
    }

    #[test]
    fn failed_literal_found() {
        // x0 -> x1, x0 -> !x1  ==>  x0 -> !x0 via x1? Not directly in BIG;
        // use the direct encoding: x0 -> x1 and x1 -> !x0 gives x0 -> !x0.
        let cnf = Cnf::from_clauses(2, vec![vec![-1, 2], vec![-2, -1]]);
        let mut big = BinaryImplicationGraph::new(&cnf);
        let failed = big.failed_literals();
        assert!(failed.contains(&Var::new(0).pos()));
    }

    #[test]
    fn scc_finds_equivalent_literals() {
        // x0 <-> x1 via (x0 -> x1) and (x1 -> x0).
        let cnf = Cnf::from_clauses(2, vec![vec![-1, 2], vec![-2, 1]]);
        let big = BinaryImplicationGraph::new(&cnf);
        let comp = big.sccs();
        assert_eq!(comp[Var::new(0).pos().code()], comp[Var::new(1).pos().code()]);
        assert_eq!(comp[Var::new(0).neg().code()], comp[Var::new(1).neg().code()]);
        assert_ne!(comp[Var::new(0).pos().code()], comp[Var::new(0).neg().code()]);
    }

    #[test]
    fn hidden_literal_elimination_example() {
        // Paper example: clause (l | l') with l -> l' drops l, leaving (l').
        // l = x0, l' = x1; implication from clause (!x0 | x1).
        let cnf = Cnf::from_clauses(3, vec![vec![-1, 2], vec![1, 2, 3]]);
        let config =
            PreprocessConfig { pure_literals: false, equivalences: false, failed_literals: false };
        let result = Preprocessor::with_config(config).run(&cnf);
        assert!(result.stats.hidden_literals >= 1);
        // The wide clause shrank.
        assert!(result.cnf.clauses().iter().all(|c| c.len() <= 2));
    }

    #[test]
    fn preserves_satisfiability_on_random_instances() {
        for seed in 0..30 {
            let cnf = random_ksat(10, 42, 3, seed);
            let expect = brute_force(&cnf).is_sat();
            let result = Preprocessor::new().run(&cnf);
            let got = match result.decided {
                Some(d) => d,
                None => CdclSolver::new(&result.cnf).solve().is_sat(),
            };
            assert_eq!(got, expect, "preprocessing changed satisfiability on seed {seed}");
        }
    }

    #[test]
    fn model_reconstruction_is_valid() {
        for seed in 0..30 {
            let cnf = random_ksat(10, 30, 3, 500 + seed);
            let result = Preprocessor::new().run(&cnf);
            let reduced_model = match result.decided {
                Some(false) => continue,
                Some(true) => vec![false; cnf.num_vars()],
                None => match CdclSolver::new(&result.cnf).solve() {
                    Solution::Sat(m) => m,
                    Solution::Unsat => continue,
                },
            };
            let model = result.reconstruct_model(&reduced_model);
            assert!(cnf.eval(&model), "reconstructed model invalid on seed {seed}");
        }
    }

    #[test]
    fn unit_propagation_decides_chains() {
        let cnf = Cnf::from_clauses(3, vec![vec![1], vec![-1, 2], vec![-2, 3]]);
        let result = Preprocessor::new().run(&cnf);
        assert_eq!(result.decided, Some(true));
        let model = result.reconstruct_model(&[false; 3]);
        assert_eq!(model, vec![true, true, true]);
    }

    #[test]
    fn detects_trivial_unsat() {
        let cnf = Cnf::from_clauses(2, vec![vec![1], vec![-1]]);
        let result = Preprocessor::new().run(&cnf);
        assert_eq!(result.decided, Some(false));
    }

    #[test]
    fn stats_track_memory_reduction() {
        let cnf = random_ksat(20, 90, 3, 17);
        let result = Preprocessor::new().run(&cnf);
        assert!(result.stats.bytes_before >= result.stats.bytes_after);
        let r = result.stats.memory_reduction();
        assert!((0.0..=1.0).contains(&r));
    }
}
