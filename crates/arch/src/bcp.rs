//! Symbolic mode: watched-literal hardware, BCP FIFO, and the CDCL timing
//! engine (paper Sec. V-D, Fig. 6(e), Fig. 9).
//!
//! Three pieces:
//!
//! * [`WatchedLiteralUnit`] — a functional model of the linked-list SRAM
//!   layout: a head-pointer table indexed by literal id plus clause
//!   records carrying next-watch pointers. Watch moves splice lists; every
//!   SRAM word touched is counted. The unit is validated against a
//!   reference set implementation.
//! * [`BcpFifo`] — the implication queue that serializes concurrently
//!   discovered implications while preserving the causality chain.
//! * [`SymbolicEngine`] — runs the *real* CDCL solver from `reason-sat`
//!   and replays its event stream through the hardware pipeline model:
//!   decisions broadcast down the tree (D cycles), implications return
//!   through the reduction tree pipelined at one per cycle, watched-
//!   literal lookups touch the modeled SRAM, conflicts flush the FIFO with
//!   priority, and clause-database overflow spills to DRAM through the
//!   DMA model.

use std::collections::VecDeque;

use reason_sat::{CdclSolver, Cnf, Lit, Solution, SolverObserver};
use serde::{Deserialize, Serialize};

use crate::config::ArchConfig;
use crate::energy::{EnergyEvents, EnergyModel, EnergyReport};
use crate::mem::DmaModel;
use crate::tree::TreeEngine;

const NULL_PTR: u32 = u32::MAX;

/// One watch record: a clause occurrence on some literal's watch list.
#[derive(Debug, Clone, Copy)]
struct WatchRecord {
    clause: u32,
    next: u32,
}

/// Functional model of the linked-list watched-literal memory layout.
///
/// "A dedicated region stores a head pointer table indexed by literal IDs
/// [...] The main data region stores clauses, each augmented with a
/// next-watch pointer that links to other clauses watching the same
/// literal" (paper Sec. V-D).
#[derive(Debug, Clone)]
pub struct WatchedLiteralUnit {
    heads: Vec<u32>,
    records: Vec<WatchRecord>,
    free: Vec<u32>,
    /// SRAM words read (head fetches + record traversals).
    pub sram_reads: u64,
    /// SRAM words written (list splices).
    pub sram_writes: u64,
}

impl WatchedLiteralUnit {
    /// An empty unit over `2 * num_vars` literals.
    fn new(num_vars: usize) -> Self {
        WatchedLiteralUnit {
            heads: vec![NULL_PTR; 2 * num_vars],
            records: Vec::new(),
            free: Vec::new(),
            sram_reads: 0,
            sram_writes: 0,
        }
    }

    /// Builds the unit from a formula, watching the first two literals of
    /// every clause with at least two literals.
    fn from_cnf(cnf: &Cnf) -> Self {
        let mut unit = WatchedLiteralUnit::new(cnf.num_vars());
        for (i, clause) in cnf.iter().enumerate() {
            if clause.len() >= 2 {
                unit.add_watch(clause.lits()[0], i as u32);
                unit.add_watch(clause.lits()[1], i as u32);
            }
        }
        unit
    }

    /// Pushes clause `clause` onto `lit`'s watch list (O(1): head splice).
    fn add_watch(&mut self, lit: Lit, clause: u32) {
        let slot = if let Some(s) = self.free.pop() {
            self.records[s as usize] = WatchRecord { clause, next: self.heads[lit.code()] };
            s
        } else {
            self.records.push(WatchRecord { clause, next: self.heads[lit.code()] });
            (self.records.len() - 1) as u32
        };
        self.heads[lit.code()] = slot;
        self.sram_reads += 1; // old head fetch
        self.sram_writes += 2; // record + head update
    }

    /// Removes clause `clause` from `lit`'s watch list.
    ///
    /// # Panics
    ///
    /// Panics if the clause is not on the list.
    fn remove_watch(&mut self, lit: Lit, clause: u32) {
        let mut prev: Option<u32> = None;
        let mut cur = self.heads[lit.code()];
        self.sram_reads += 1;
        while cur != NULL_PTR {
            let rec = self.records[cur as usize];
            self.sram_reads += 1;
            if rec.clause == clause {
                match prev {
                    None => self.heads[lit.code()] = rec.next,
                    Some(p) => self.records[p as usize].next = rec.next,
                }
                self.sram_writes += 1;
                self.free.push(cur);
                return;
            }
            prev = Some(cur);
            cur = rec.next;
        }
        panic!("clause {clause} not watching {lit}");
    }

    /// Moves a watch from one literal to another (the BCP new-watch case).
    pub fn move_watch(&mut self, from: Lit, to: Lit, clause: u32) {
        self.remove_watch(from, clause);
        self.add_watch(to, clause);
    }

    /// Traverses `lit`'s watch list, returning the watching clauses in
    /// list order and counting the SRAM reads the traversal costs.
    pub fn watchers_of(&mut self, lit: Lit) -> Vec<u32> {
        let mut out = Vec::new();
        let mut cur = self.heads[lit.code()];
        self.sram_reads += 1; // head fetch
        while cur != NULL_PTR {
            let rec = self.records[cur as usize];
            self.sram_reads += 1;
            out.push(rec.clause);
            cur = rec.next;
        }
        out
    }

    /// Length of `lit`'s watch list without charging SRAM accesses
    /// (diagnostics).
    fn watch_len(&self, lit: Lit) -> usize {
        let mut n = 0;
        let mut cur = self.heads[lit.code()];
        while cur != NULL_PTR {
            n += 1;
            cur = self.records[cur as usize].next;
        }
        n
    }
}

/// The implication FIFO atop the output interconnect (paper Fig. 6(e)).
#[derive(Debug, Clone, Default)]
pub struct BcpFifo {
    queue: VecDeque<Lit>,
    /// Total pushes.
    pub pushes: u64,
    /// Total pops.
    pub pops: u64,
    /// Conflict-triggered flushes.
    pub flushes: u64,
    /// High-water mark of occupancy.
    pub max_occupancy: usize,
}

impl BcpFifo {
    /// An empty FIFO.
    fn new() -> Self {
        BcpFifo::default()
    }

    /// Enqueues an implication.
    fn push(&mut self, lit: Lit) {
        self.queue.push_back(lit);
        self.pushes += 1;
        self.max_occupancy = self.max_occupancy.max(self.queue.len());
    }

    /// Dequeues the next implication.
    fn pop(&mut self) -> Option<Lit> {
        let l = self.queue.pop_front();
        if l.is_some() {
            self.pops += 1;
        }
        l
    }

    /// Discards all pending implications (conflict priority handling:
    /// "the controller asserts priority control: it halts the ongoing DMA
    /// fetch, flushes the FIFO" — paper Sec. V-E).
    fn flush(&mut self) {
        self.queue.clear();
        self.flushes += 1;
    }

    /// Current occupancy.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` when empty.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

/// Timing/energy report of a symbolic-mode run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SymbolicReport {
    /// Total cycles.
    pub cycles: u64,
    /// Decisions broadcast.
    pub decisions: u64,
    /// Implications propagated.
    pub implications: u64,
    /// Conflicts handled.
    pub conflicts: u64,
    /// Learned clauses recorded by the scalar PE.
    pub learned: u64,
    /// Watch-list SRAM reads.
    pub wl_sram_reads: u64,
    /// DMA fetches for clause-database misses.
    pub dma_fetches: u64,
    /// FIFO high-water mark.
    pub fifo_max_occupancy: usize,
    /// Raw energy events.
    pub events: EnergyEvents,
    /// Evaluated energy.
    pub energy: EnergyReport,
}

/// The symbolic-mode engine: real CDCL solving with hardware timing.
#[derive(Debug)]
pub struct SymbolicEngine {
    config: ArchConfig,
    energy_model: EnergyModel,
    dma: DmaModel,
}

impl SymbolicEngine {
    /// An engine for the given architecture.
    pub fn new(config: ArchConfig) -> Self {
        config.validate();
        let mut energy_model = EnergyModel::at_node(config.tech);
        energy_model.freq_mhz = config.freq_mhz;
        SymbolicEngine { config, energy_model, dma: DmaModel::paper() }
    }

    /// Solves `cnf` on the modeled hardware: the answer comes from the
    /// real CDCL solver; cycles and energy from replaying its event stream
    /// through the pipeline model.
    pub fn solve(&self, cnf: &Cnf) -> (Solution, SymbolicReport) {
        let tree = TreeEngine::new(self.config.tree_depth);
        // Average watch-list length from the hardware layout: drives the
        // per-implication SRAM traversal cost.
        let wl = WatchedLiteralUnit::from_cnf(cnf);
        let total_lits = 2 * cnf.num_vars();
        let avg_watch_len = if total_lits == 0 {
            0.0
        } else {
            (0..total_lits).map(|code| wl.watch_len(Lit::from_code(code))).sum::<usize>() as f64
                / total_lits as f64
        };

        // Does the clause database fit in the local SRAM? 16 bytes per
        // clause record + 8 per watch head entry.
        let db_bytes = 16 * cnf.num_clauses() + 8 * total_lits;
        let sram_bytes = self.config.sram_kib * 1024;
        let miss_rate =
            if db_bytes <= sram_bytes { 0.0 } else { 1.0 - sram_bytes as f64 / db_bytes as f64 };

        let mut observer = TimingObserver {
            tree,
            fifo: BcpFifo::new(),
            avg_watch_len,
            wl_layout: self.config.ablation.wl_memory_layout,
            num_clauses: cnf.num_clauses() as u64,
            miss_rate,
            dma: self.dma,
            cycles: 0,
            wl_sram_reads: 0,
            dma_fetches: 0,
            implications: 0,
            decisions: 0,
            conflicts: 0,
            learned: 0,
            events: EnergyEvents::default(),
        };
        let mut solver = CdclSolver::new(cnf);
        let solution = solver.solve_with(&mut observer, &[]);

        // Cube-and-conquer distributes independent DPLL branches across
        // the PE array ("Multiple parallelable CDCLs", paper Fig. 9 top):
        // propagation work parallelizes across trees, leaving a fill/drain
        // residue.
        let pes = self.config.num_pes.max(1) as u64;
        observer.cycles = observer.cycles / pes + 2 * self.config.tree_depth as u64;
        observer.events.cycles = observer.cycles;
        let energy = self.energy_model.report(&observer.events);
        let report = SymbolicReport {
            cycles: observer.cycles,
            decisions: observer.decisions,
            implications: observer.implications,
            conflicts: observer.conflicts,
            learned: observer.learned,
            wl_sram_reads: observer.wl_sram_reads,
            dma_fetches: observer.dma_fetches,
            fifo_max_occupancy: observer.fifo.max_occupancy,
            events: observer.events,
            energy,
        };
        (solution, report)
    }
}

/// Observer charging hardware cycles per solver event.
#[derive(Debug)]
struct TimingObserver {
    tree: TreeEngine,
    fifo: BcpFifo,
    avg_watch_len: f64,
    wl_layout: bool,
    num_clauses: u64,
    miss_rate: f64,
    dma: DmaModel,
    cycles: u64,
    wl_sram_reads: u64,
    dma_fetches: u64,
    implications: u64,
    decisions: u64,
    conflicts: u64,
    learned: u64,
    events: EnergyEvents,
}

impl SolverObserver for TimingObserver {
    fn on_decision(&mut self, _lit: Lit, _level: u32) {
        self.decisions += 1;
        // Decision broadcast root→leaves (paper Fig. 9 T1–T4).
        self.cycles += self.tree.broadcast_cycles();
        self.events.tree_hops += self.tree.broadcast_hops();
        self.events.fifo_ops += 1;
    }

    fn on_implication(&mut self, lit: Lit, _clause_len: usize, _level: u32) {
        self.implications += 1;
        self.fifo.push(lit);
        let _ = self.fifo.pop();
        // Watch-list traversal: with the linked-list layout only the
        // relevant clauses are touched; without it BCP scans the database.
        let reads = if self.wl_layout {
            // head pointer + records on the list
            1 + self.avg_watch_len.ceil() as u64
        } else {
            self.num_clauses.max(1)
        };
        self.wl_sram_reads += reads;
        self.events.sram_reads += reads;
        self.events.fifo_ops += 2;
        // Implications pipeline through the reduction tree at one per
        // cycle once full (paper Sec. V-E); SRAM traversal overlaps with
        // the pipeline except for long lists.
        let traversal_overhang = reads.saturating_sub(self.tree.reduction_cycles());
        self.cycles += 1 + traversal_overhang / 4;
        // Clause-database miss: DMA fetch, half hidden by FIFO draining
        // (paper Fig. 9 overlaps DMA with queued implications).
        if self.miss_rate > 0.0 {
            let expected_misses = self.miss_rate; // per implication
            let dma_cycles = self.dma.transfer_cycles(32) as f64 * expected_misses * 0.5;
            self.cycles += dma_cycles as u64;
            self.dma_fetches += (expected_misses.ceil()) as u64;
            self.events.dram_bytes += (32.0 * expected_misses) as u64;
        }
        self.events.alu_ops += self.tree.num_leaves() as u64; // leaf comparators
        self.events.tree_hops += self.tree.reduction_cycles();
    }

    fn on_conflict(&mut self, _level: u32) {
        self.conflicts += 1;
        // Conflict propagates up with priority; FIFO flushes; DMA halts.
        self.cycles += self.tree.reduction_cycles() + 1;
        self.fifo.flush();
        self.events.fifo_ops += 1;
        self.events.tree_hops += self.tree.reduction_cycles();
    }

    fn on_learned(&mut self, len: usize, _lbd: u32) {
        self.learned += 1;
        // Scalar PE conflict analysis: ~2 cycles per learnt literal, plus
        // clause store writeback.
        self.cycles += 2 * len as u64 + 2;
        self.events.sram_writes += len as u64;
    }

    fn on_backjump(&mut self, from: u32, to: u32) {
        // Trail unwinding on the scalar PE.
        self.cycles += u64::from(from.saturating_sub(to));
    }

    fn on_restart(&mut self) {
        self.cycles += self.tree.broadcast_cycles() + 4;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AblationConfig;
    use reason_sat::gen::{pigeonhole, random_ksat};
    use reason_sat::Var;
    use std::collections::HashSet;

    #[test]
    fn wl_unit_matches_reference_sets() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let num_vars = 12;
        let mut unit = WatchedLiteralUnit::new(num_vars);
        let mut reference: Vec<HashSet<u32>> = vec![HashSet::new(); 2 * num_vars];
        let mut rng = StdRng::seed_from_u64(5);
        // Random adds/removes, checking traversal agreement.
        for clause in 0..200u32 {
            let code = rng.gen_range(0..2 * num_vars);
            unit.add_watch(Lit::from_code(code), clause);
            reference[code].insert(clause);
        }
        for _ in 0..300 {
            let code = rng.gen_range(0..2 * num_vars);
            let lit = Lit::from_code(code);
            let watchers: HashSet<u32> = unit.watchers_of(lit).into_iter().collect();
            assert_eq!(watchers, reference[code]);
            // Move one watcher elsewhere.
            if let Some(&c) = reference[code].iter().next() {
                let to = rng.gen_range(0..2 * num_vars);
                unit.move_watch(lit, Lit::from_code(to), c);
                reference[code].remove(&c);
                reference[to].insert(c);
            }
        }
        assert!(unit.sram_reads > 0);
        assert!(unit.sram_writes > 0);
    }

    #[test]
    fn fifo_semantics() {
        let mut fifo = BcpFifo::new();
        let a = Var::new(0).pos();
        let b = Var::new(1).neg();
        fifo.push(a);
        fifo.push(b);
        assert_eq!(fifo.len(), 2);
        assert_eq!(fifo.pop(), Some(a));
        fifo.flush();
        assert!(fifo.is_empty());
        assert_eq!(fifo.flushes, 1);
        assert_eq!(fifo.max_occupancy, 2);
    }

    #[test]
    fn engine_answers_match_software_solver() {
        let engine = SymbolicEngine::new(ArchConfig::paper());
        for seed in 0..6 {
            let cnf = random_ksat(15, 63, 3, seed);
            let (hw, report) = engine.solve(&cnf);
            let sw = CdclSolver::new(&cnf).solve();
            assert_eq!(hw.is_sat(), sw.is_sat(), "seed {seed}");
            assert!(report.cycles > 0);
            assert!(report.energy.total_j() > 0.0);
        }
    }

    #[test]
    fn unsat_instances_cost_conflict_cycles() {
        let engine = SymbolicEngine::new(ArchConfig::paper());
        let (sol, report) = engine.solve(&pigeonhole(4));
        assert!(!sol.is_sat());
        assert!(report.conflicts > 0);
        assert!(report.learned > 0);
        assert!(report.fifo_max_occupancy <= 1, "fifo drains every implication");
    }

    #[test]
    fn wl_layout_ablation_costs_cycles() {
        let mut no_wl = ArchConfig::paper();
        no_wl.ablation = AblationConfig { wl_memory_layout: false, ..AblationConfig::default() };
        let cnf = random_ksat(20, 85, 3, 9);
        let (_, with_layout) = SymbolicEngine::new(ArchConfig::paper()).solve(&cnf);
        let (_, without) = SymbolicEngine::new(no_wl).solve(&cnf);
        assert!(
            without.wl_sram_reads > with_layout.wl_sram_reads,
            "database scans must touch more SRAM than watch lists"
        );
        assert!(without.cycles >= with_layout.cycles);
    }

    #[test]
    fn small_db_has_no_dma_traffic() {
        let engine = SymbolicEngine::new(ArchConfig::paper());
        let cnf = random_ksat(10, 40, 3, 2);
        let (_, report) = engine.solve(&cnf);
        assert_eq!(report.dma_fetches, 0, "40 clauses fit in 1.25 MB SRAM");
    }
}
