//! Conflict-driven clause learning (CDCL) SAT solver.
//!
//! This is a MiniSat-lineage solver with the feature set the REASON paper
//! assumes of its symbolic kernels (Sec. II-C): two-watched-literal Boolean
//! constraint propagation (BCP), first-UIP conflict analysis with clause
//! learning and non-chronological backtracking, VSIDS branching with phase
//! saving, Luby restarts, and LBD-based learnt-clause database reduction.
//! Assumption-based solving supports the cube-and-conquer driver in
//! [`crate::cube`].
//!
//! The solver exposes an observer interface ([`SolverObserver`]) that streams
//! decision/implication/conflict events; the hardware model in `reason-arch`
//! replays these events through its cycle-level BCP pipeline so that the
//! simulated accelerator executes exactly the propagation work the software
//! solver performed.

use crate::cnf::Cnf;
use crate::types::{Lit, Var};
use crate::Solution;

/// Conflicts per Luby-restart unit.
const RESTART_BASE: u64 = 100;
/// Multiplicative VSIDS decay applied after each conflict.
const VAR_DECAY: f64 = 0.95;
/// Activity decay for learnt clauses.
const CLAUSE_DECAY: f64 = 0.999;
/// Initial learnt-clause budget as a fraction of the problem clauses.
const LEARNTSIZE_FACTOR: f64 = 1.0 / 3.0;
/// Growth of the learnt-clause budget at each database reduction.
const LEARNTSIZE_INC: f64 = 1.1;

/// Aggregate search statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolverStats {
    /// Branching decisions made.
    pub decisions: u64,
    /// Literals enqueued by BCP.
    pub propagations: u64,
    /// Conflicts analyzed.
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses added.
    pub learned: u64,
    /// Learnt clauses discarded by database reductions.
    pub removed_learnts: u64,
    /// Database reduction passes.
    pub db_reductions: u64,
    /// Deepest decision level reached.
    pub max_decision_level: u32,
    /// Clause lookups during propagation (watch-list traversal work, the
    /// quantity REASON's watched-literal hardware unit parallelizes).
    pub clause_inspections: u64,
}

/// Receives fine-grained solver events.
///
/// All methods default to no-ops so implementors only override what they
/// need. `reason-arch` implements this to drive its cycle-level symbolic
/// pipeline model.
pub trait SolverObserver {
    /// A branching decision assigned `lit` at `level`.
    fn on_decision(&mut self, lit: Lit, level: u32) {
        let _ = (lit, level);
    }
    /// BCP implied `lit` from a clause of length `clause_len`.
    fn on_implication(&mut self, lit: Lit, clause_len: usize, level: u32) {
        let _ = (lit, clause_len, level);
    }
    /// A conflict occurred at `level`.
    fn on_conflict(&mut self, level: u32) {
        let _ = level;
    }
    /// A clause of length `len` with the given LBD was learnt.
    fn on_learned(&mut self, len: usize, lbd: u32) {
        let _ = (len, lbd);
    }
    /// The solver backjumped from `from` to `to`.
    fn on_backjump(&mut self, from: u32, to: u32) {
        let _ = (from, to);
    }
    /// The solver restarted.
    fn on_restart(&mut self) {}
}

/// A no-op observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl SolverObserver for NullObserver {}

const LBOOL_UNDEF: u8 = 2;

type ClauseRef = u32;

#[derive(Debug)]
struct ClauseData {
    lits: Vec<Lit>,
    learnt: bool,
    deleted: bool,
    lbd: u32,
    activity: f64,
}

#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// Max-heap over variable activities (MiniSat order heap).
#[derive(Debug, Default)]
struct VarHeap {
    heap: Vec<u32>,
    index: Vec<i32>,
}

impl VarHeap {
    fn with_vars(n: usize) -> Self {
        VarHeap { heap: (0..n as u32).collect(), index: (0..n as i32).collect() }
    }

    fn contains(&self, v: usize) -> bool {
        self.index[v] >= 0
    }

    fn percolate_up(&mut self, mut i: usize, act: &[f64]) {
        let x = self.heap[i];
        while i > 0 {
            let p = (i - 1) >> 1;
            if act[self.heap[p] as usize] >= act[x as usize] {
                break;
            }
            self.heap[i] = self.heap[p];
            self.index[self.heap[i] as usize] = i as i32;
            i = p;
        }
        self.heap[i] = x;
        self.index[x as usize] = i as i32;
    }

    fn percolate_down(&mut self, mut i: usize, act: &[f64]) {
        let x = self.heap[i];
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let c = if r < n && act[self.heap[r] as usize] > act[self.heap[l] as usize] {
                r
            } else {
                l
            };
            if act[self.heap[c] as usize] <= act[x as usize] {
                break;
            }
            self.heap[i] = self.heap[c];
            self.index[self.heap[i] as usize] = i as i32;
            i = c;
        }
        self.heap[i] = x;
        self.index[x as usize] = i as i32;
    }

    fn insert(&mut self, v: usize, act: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.heap.push(v as u32);
        let i = self.heap.len() - 1;
        self.index[v] = i as i32;
        self.percolate_up(i, act);
    }

    fn pop_max(&mut self, act: &[f64]) -> Option<usize> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0] as usize;
        let last = self.heap.pop().unwrap();
        self.index[top] = -1;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.index[last as usize] = 0;
            self.percolate_down(0, act);
        }
        Some(top)
    }

    fn bumped(&mut self, v: usize, act: &[f64]) {
        if self.contains(v) {
            self.percolate_up(self.index[v] as usize, act);
        }
    }
}

/// A CDCL SAT solver over a fixed [`Cnf`].
///
/// ```
/// use reason_sat::{Cnf, CdclSolver};
/// let cnf = Cnf::from_clauses(3, vec![vec![1, 2, 3], vec![-1, -2], vec![-2, -3], vec![2]]);
/// let sol = CdclSolver::new(&cnf).solve();
/// assert!(sol.is_sat());
/// ```
#[derive(Debug)]
pub struct CdclSolver {
    num_vars: usize,
    clauses: Vec<ClauseData>,
    watches: Vec<Vec<Watcher>>,
    assign: Vec<u8>,
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    heap: VarHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
    ok: bool,
    /// Hard cap on conflicts (0 = unlimited), set per call by
    /// [`CdclSolver::solve_limited`].
    conflict_limit: u64,
    stats: SolverStats,
    num_original: usize,
    max_learnts: f64,
}

impl CdclSolver {
    /// Builds a solver for `cnf`, normalizing away tautologies and duplicate
    /// literals at ingest.
    pub fn new(cnf: &Cnf) -> Self {
        let n = cnf.num_vars();
        let mut s = CdclSolver {
            num_vars: n,
            clauses: Vec::with_capacity(cnf.num_clauses()),
            watches: vec![Vec::new(); 2 * n],
            assign: vec![LBOOL_UNDEF; n],
            level: vec![0; n],
            reason: vec![None; n],
            trail: Vec::with_capacity(n),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: vec![0.0; n],
            var_inc: 1.0,
            cla_inc: 1.0,
            heap: VarHeap::with_vars(n),
            phase: vec![false; n],
            seen: vec![false; n],
            ok: true,
            conflict_limit: 0,
            stats: SolverStats::default(),
            num_original: 0,
            max_learnts: 0.0,
        };
        for clause in cnf.iter() {
            let mut lits: Vec<Lit> = clause.lits().to_vec();
            lits.sort_unstable();
            lits.dedup();
            if lits.windows(2).any(|w| w[0] == !w[1]) {
                continue; // tautology
            }
            s.add_clause_internal(lits, false);
            if !s.ok {
                break;
            }
        }
        s.num_original = s.clauses.len();
        s.max_learnts = s.num_original as f64 * LEARNTSIZE_FACTOR + 100.0;
        s
    }

    /// Search statistics accumulated so far.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Number of variables in the solver's universe.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    fn value(&self, lit: Lit) -> u8 {
        let v = self.assign[lit.var().index()];
        if v == LBOOL_UNDEF {
            LBOOL_UNDEF
        } else {
            v ^ u8::from(lit.is_neg())
        }
    }

    fn add_clause_internal(&mut self, lits: Vec<Lit>, learnt: bool) -> Option<ClauseRef> {
        match lits.len() {
            0 => {
                self.ok = false;
                None
            }
            1 => {
                match self.value(lits[0]) {
                    0 => self.ok = false,
                    LBOOL_UNDEF => self.enqueue(lits[0], None),
                    _ => {}
                }
                None
            }
            _ => {
                let cref = self.clauses.len() as ClauseRef;
                self.watches[(!lits[0]).code()].push(Watcher { cref, blocker: lits[1] });
                self.watches[(!lits[1]).code()].push(Watcher { cref, blocker: lits[0] });
                self.clauses.push(ClauseData {
                    lits,
                    learnt,
                    deleted: false,
                    lbd: 0,
                    activity: 0.0,
                });
                Some(cref)
            }
        }
    }

    fn enqueue(&mut self, lit: Lit, from: Option<ClauseRef>) {
        debug_assert_eq!(self.value(lit), LBOOL_UNDEF);
        let v = lit.var().index();
        self.assign[v] = u8::from(!lit.is_neg());
        self.level[v] = self.decision_level();
        self.reason[v] = from;
        self.phase[v] = !lit.is_neg();
        self.trail.push(lit);
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn propagate<O: SolverObserver>(&mut self, obs: &mut O) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;

            let mut i = 0;
            let mut j = 0;
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut conflict = None;
            'watches: while i < ws.len() {
                let w = ws[i];
                i += 1;
                // Fast path: blocker already true.
                if self.value(w.blocker) == 1 {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                self.stats.clause_inspections += 1;
                let cref = w.cref;
                if self.clauses[cref as usize].deleted {
                    continue;
                }
                // Ensure the false literal is in slot 1.
                let not_p = !p;
                {
                    let lits = &mut self.clauses[cref as usize].lits;
                    if lits[0] == not_p {
                        lits.swap(0, 1);
                    }
                }
                let first = self.clauses[cref as usize].lits[0];
                if first != w.blocker && self.value(first) == 1 {
                    ws[j] = Watcher { cref, blocker: first };
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.clauses[cref as usize].lits.len();
                for k in 2..len {
                    let lk = self.clauses[cref as usize].lits[k];
                    if self.value(lk) != 0 {
                        self.clauses[cref as usize].lits.swap(1, k);
                        self.watches[(!lk).code()].push(Watcher { cref, blocker: first });
                        continue 'watches;
                    }
                }
                // No new watch: clause is unit or conflicting.
                ws[j] = Watcher { cref, blocker: first };
                j += 1;
                if self.value(first) == 0 {
                    // Conflict: copy back remaining watchers and bail out.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    self.qhead = self.trail.len();
                    conflict = Some(cref);
                } else {
                    obs.on_implication(first, len, self.decision_level());
                    self.enqueue(first, Some(cref));
                }
            }
            ws.truncate(j);
            self.watches[p.code()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn bump_var(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.bumped(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let c = &mut self.clauses[cref as usize];
        c.activity += self.cla_inc;
        if c.activity > 1e20 {
            for cd in &mut self.clauses {
                cd.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis. Returns (learnt clause, backjump level, lbd).
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, u32, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::from_code(0)]; // slot 0 = asserting literal
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut confl = confl;
        let mut index = self.trail.len();
        let current = self.decision_level();

        loop {
            self.bump_clause(confl);
            let lits: Vec<Lit> = self.clauses[confl as usize].lits.clone();
            let start = usize::from(p.is_some());
            for &q in &lits[start..] {
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(v);
                    if self.level[v] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next literal to expand from the trail.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !pl;
                break;
            }
            p = Some(pl);
            confl = self.reason[pl.var().index()].expect("non-decision must have a reason");
        }

        // Local minimization: drop literals whose reason is fully subsumed.
        let keep: Vec<bool> = learnt
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                if i == 0 {
                    return true;
                }
                match self.reason[l.var().index()] {
                    None => true,
                    Some(r) => self.clauses[r as usize].lits.iter().any(|&q| {
                        q.var() != l.var()
                            && !self.seen[q.var().index()]
                            && self.level[q.var().index()] > 0
                    }),
                }
            })
            .collect();
        // `seen` currently true for all learnt literals except index 0's var was cleared;
        // re-mark for the subsumption test above to be meaningful.
        // (Simpler: mark all learnt vars seen first, then test.)
        let mut learnt: Vec<Lit> = learnt
            .into_iter()
            .zip(keep)
            .filter_map(|(l, k)| if k { Some(l) } else { None })
            .collect();
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }
        // Clear any stragglers.
        for i in 0..self.trail.len() {
            self.seen[self.trail[i].var().index()] = false;
        }

        // Compute backjump level: second-highest level in the learnt clause.
        let backjump = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };

        // LBD: number of distinct decision levels among learnt literals.
        let mut levels: Vec<u32> = learnt.iter().map(|l| self.level[l.var().index()]).collect();
        levels.sort_unstable();
        levels.dedup();
        let lbd = levels.len() as u32;

        (learnt, backjump, lbd)
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level as usize];
        for i in (bound..self.trail.len()).rev() {
            let v = self.trail[i].var().index();
            self.assign[v] = LBOOL_UNDEF;
            self.reason[v] = None;
            self.heap.insert(v, &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap.pop_max(&self.activity) {
            if self.assign[v] == LBOOL_UNDEF {
                return Some(Lit::new(Var::new(v), !self.phase[v]));
            }
        }
        None
    }

    fn reduce_db(&mut self) {
        self.stats.db_reductions += 1;
        let mut learnt_refs: Vec<ClauseRef> = (self.num_original..self.clauses.len())
            .map(|i| i as ClauseRef)
            .filter(|&c| {
                let cd = &self.clauses[c as usize];
                cd.learnt && !cd.deleted && cd.lits.len() > 2
            })
            .collect();
        // Worst first: high LBD, then low activity.
        learnt_refs.sort_by(|&a, &b| {
            let (ca, cb) = (&self.clauses[a as usize], &self.clauses[b as usize]);
            cb.lbd.cmp(&ca.lbd).then(ca.activity.partial_cmp(&cb.activity).unwrap())
        });
        let locked: Vec<bool> = learnt_refs
            .iter()
            .map(|&c| {
                let lit0 = self.clauses[c as usize].lits[0];
                self.value(lit0) == 1 && self.reason[lit0.var().index()] == Some(c)
            })
            .collect();
        let target = learnt_refs.len() / 2;
        let mut removed = 0;
        for (k, &c) in learnt_refs.iter().enumerate() {
            if removed >= target {
                break;
            }
            if locked[k] || self.clauses[c as usize].lbd <= 2 {
                continue;
            }
            self.clauses[c as usize].deleted = true;
            removed += 1;
        }
        self.stats.removed_learnts += removed as u64;
        // Scrub watch lists of deleted clauses (disjoint field borrows).
        let clauses = &self.clauses;
        for w in &mut self.watches {
            w.retain(|watcher| !clauses[watcher.cref as usize].deleted);
        }
    }

    fn luby(y: f64, mut x: u64) -> f64 {
        let (mut size, mut seq) = (1u64, 0u32);
        while size < x + 1 {
            seq += 1;
            size = 2 * size + 1;
        }
        while size - 1 != x {
            size = (size - 1) >> 1;
            seq -= 1;
            x %= size;
        }
        y.powi(seq as i32)
    }

    /// Solves the formula.
    pub fn solve(&mut self) -> Solution {
        self.solve_with(&mut NullObserver, &[])
            .expect("unlimited solve cannot exhaust the conflict budget")
    }

    /// Solves under assumptions: the given literals are forced as
    /// pseudo-decisions before free search. Used by cube-and-conquer.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> Solution {
        self.solve_with(&mut NullObserver, assumptions)
            .expect("unlimited solve cannot exhaust the conflict budget")
    }

    /// Solves with a conflict budget; returns `None` if the budget was
    /// exhausted before an answer was found.
    pub fn solve_limited(&mut self, conflict_limit: u64) -> Option<Solution> {
        self.conflict_limit = conflict_limit;
        self.solve_with(&mut NullObserver, &[])
    }

    /// Observer events plus assumptions, with VSIDS branching.
    ///
    /// Returns `None` only inside [`solve_limited`](Self::solve_limited),
    /// when its conflict budget is exhausted.
    pub fn solve_with<O: SolverObserver>(
        &mut self,
        obs: &mut O,
        assumptions: &[Lit],
    ) -> Option<Solution> {
        if !self.ok {
            return Some(Solution::Unsat);
        }
        self.cancel_until(0);
        if self.propagate(obs).is_some() {
            self.ok = false;
            return Some(Solution::Unsat);
        }

        let mut curr_restarts = 0u64;
        loop {
            let budget = (Self::luby(2.0, curr_restarts) * RESTART_BASE as f64) as u64;
            match self.search(budget, obs, assumptions) {
                SearchResult::Sat => {
                    let model = (0..self.num_vars)
                        .map(|v| {
                            self.assign[v] == 1 || (self.assign[v] == LBOOL_UNDEF && self.phase[v])
                        })
                        .collect();
                    self.cancel_until(0);
                    return Some(Solution::Sat(model));
                }
                SearchResult::Unsat => {
                    self.cancel_until(0);
                    return Some(Solution::Unsat);
                }
                SearchResult::Restart => {
                    curr_restarts += 1;
                    self.stats.restarts += 1;
                    obs.on_restart();
                    self.cancel_until(0);
                    if self.conflict_limit != 0 && self.stats.conflicts >= self.conflict_limit {
                        self.cancel_until(0);
                        return None;
                    }
                }
            }
        }
    }

    fn search<O: SolverObserver>(
        &mut self,
        conflict_budget: u64,
        obs: &mut O,
        assumptions: &[Lit],
    ) -> SearchResult {
        let mut conflicts_here = 0u64;
        loop {
            if let Some(confl) = self.propagate(obs) {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                obs.on_conflict(self.decision_level());
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SearchResult::Unsat;
                }
                // A conflict below the assumption prefix means the cube itself
                // is inconsistent with the formula.
                if (self.decision_level() as usize) <= assumptions.len() {
                    return SearchResult::Unsat;
                }
                let (learnt, backjump, lbd) = self.analyze(confl);
                let backjump = backjump.max(assumptions.len() as u32);
                obs.on_learned(learnt.len(), lbd);
                obs.on_backjump(self.decision_level(), backjump);
                self.cancel_until(backjump);
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    if self.value(asserting) == LBOOL_UNDEF {
                        self.enqueue(asserting, None);
                    } else if self.value(asserting) == 0 {
                        self.ok = false;
                        return SearchResult::Unsat;
                    }
                } else {
                    let cref = self
                        .add_clause_internal(learnt, true)
                        .expect("learnt clause has >= 2 lits");
                    self.clauses[cref as usize].lbd = lbd;
                    self.bump_clause(cref);
                    self.enqueue(asserting, Some(cref));
                }
                self.stats.learned += 1;
                self.var_inc /= VAR_DECAY;
                self.cla_inc /= CLAUSE_DECAY;

                let learnt_count = self.clauses.len() - self.num_original;
                if learnt_count as f64 > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= LEARNTSIZE_INC;
                }
            } else {
                if conflicts_here >= conflict_budget {
                    return SearchResult::Restart;
                }
                // Next decision: assumptions first, then VSIDS.
                let next = if (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.value(a) {
                        1 => {
                            // Already satisfied: open an empty level to keep the
                            // assumption-prefix invariant.
                            self.trail_lim.push(self.trail.len());
                            continue;
                        }
                        0 => return SearchResult::Unsat,
                        _ => Some(a),
                    }
                } else {
                    self.pick_branch()
                };
                match next {
                    None => return SearchResult::Sat,
                    Some(lit) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let lvl = self.decision_level();
                        self.stats.max_decision_level = self.stats.max_decision_level.max(lvl);
                        obs.on_decision(lit, lvl);
                        self.enqueue(lit, None);
                    }
                }
            }
        }
    }
}

enum SearchResult {
    Sat,
    Unsat,
    Restart,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force;
    use crate::gen::{pigeonhole, random_ksat};

    fn check_matches_brute(cnf: &Cnf) {
        let expect = brute_force(cnf).is_sat();
        let got = CdclSolver::new(cnf).solve();
        assert_eq!(got.is_sat(), expect, "cdcl disagrees with brute force on {cnf}");
        if let Solution::Sat(model) = got {
            assert!(cnf.eval(&model), "cdcl returned a non-model for {cnf}");
        }
    }

    #[test]
    fn trivial_cases() {
        // Empty formula: SAT.
        assert!(CdclSolver::new(&Cnf::new(3)).solve().is_sat());
        // Empty clause: UNSAT.
        let mut cnf = Cnf::new(1);
        cnf.add_clause(crate::types::Clause::new(vec![]));
        assert!(!CdclSolver::new(&cnf).solve().is_sat());
        // Contradictory units.
        let cnf = Cnf::from_clauses(1, vec![vec![1], vec![-1]]);
        assert!(!CdclSolver::new(&cnf).solve().is_sat());
    }

    #[test]
    fn simple_chain_propagation() {
        // x1 & (x1 -> x2) & (x2 -> x3)
        let cnf = Cnf::from_clauses(3, vec![vec![1], vec![-1, 2], vec![-2, 3]]);
        match CdclSolver::new(&cnf).solve() {
            Solution::Sat(m) => assert_eq!(m, vec![true, true, true]),
            Solution::Unsat => panic!("should be sat"),
        }
    }

    #[test]
    fn pigeonhole_unsat() {
        for n in 2..=4 {
            let cnf = pigeonhole(n);
            let mut solver = CdclSolver::new(&cnf);
            assert!(!solver.solve().is_sat(), "PHP({n}) must be UNSAT");
            assert!(solver.stats().conflicts > 0);
        }
    }

    #[test]
    fn random_instances_match_brute_force() {
        for seed in 0..30 {
            let cnf = random_ksat(8, 30, 3, seed);
            check_matches_brute(&cnf);
        }
        for seed in 0..15 {
            let cnf = random_ksat(12, 48, 3, 1000 + seed);
            check_matches_brute(&cnf);
        }
    }

    #[test]
    fn assumptions_prune_search() {
        // (x0 | x1) with assumption !x0 forces x1.
        let cnf = Cnf::from_clauses(2, vec![vec![1, 2]]);
        let mut s = CdclSolver::new(&cnf);
        match s.solve_with_assumptions(&[Var::new(0).neg()]) {
            Solution::Sat(m) => {
                assert!(!m[0]);
                assert!(m[1]);
            }
            Solution::Unsat => panic!("should be sat"),
        }
    }

    #[test]
    fn assumptions_can_make_unsat() {
        let cnf = Cnf::from_clauses(2, vec![vec![1], vec![-1, 2]]);
        let mut s = CdclSolver::new(&cnf);
        assert!(!s.solve_with_assumptions(&[Var::new(1).neg()]).is_sat());
        // Without the assumption it is satisfiable.
        let mut s2 = CdclSolver::new(&cnf);
        assert!(s2.solve().is_sat());
    }

    #[test]
    fn conflict_limit_yields_none() {
        let cnf = pigeonhole(6);
        let mut s = CdclSolver::new(&cnf);
        // PHP(6) needs far more than 1 conflict.
        assert_eq!(s.solve_limited(1), None);
    }

    #[test]
    fn observer_sees_events() {
        #[derive(Default)]
        struct Counter {
            decisions: usize,
            implications: usize,
            conflicts: usize,
        }
        impl SolverObserver for Counter {
            fn on_decision(&mut self, _: Lit, _: u32) {
                self.decisions += 1;
            }
            fn on_implication(&mut self, _: Lit, _: usize, _: u32) {
                self.implications += 1;
            }
            fn on_conflict(&mut self, _: u32) {
                self.conflicts += 1;
            }
        }
        let cnf = pigeonhole(3);
        let mut s = CdclSolver::new(&cnf);
        let mut obs = Counter::default();
        let sol = s.solve_with(&mut obs, &[]).unwrap();
        assert!(!sol.is_sat());
        assert!(obs.conflicts > 0);
        assert!(obs.decisions > 0);
        assert!(obs.implications > 0);
    }

    #[test]
    fn stats_are_populated() {
        let cnf = random_ksat(20, 85, 3, 7);
        let mut s = CdclSolver::new(&cnf);
        let _ = s.solve();
        assert!(s.stats().decisions > 0);
        assert!(s.stats().propagations > 0);
    }

    #[test]
    fn larger_satisfiable_instance_model_is_valid() {
        // Under-constrained: almost surely SAT.
        let cnf = random_ksat(60, 150, 3, 42);
        let mut s = CdclSolver::new(&cnf);
        if let Solution::Sat(model) = s.solve() {
            assert!(cnf.eval(&model));
        }
    }
}
