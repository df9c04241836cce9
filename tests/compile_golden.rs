//! Compile golden: pinned circuit digests and search counters.
//!
//! `compile_cnf_with` is deterministic, so the exact circuit it emits
//! for a fixed formula — node order, child order, every log-weight bit
//! — and every [`CompileStats`] counter of the search that built it are
//! constants of the repository. They were read on the commit *before*
//! the compiler's inner loop moved to component stacks, per-clause
//! residual masks, dirty-clause propagation and one shared node array,
//! so any rewrite of `reason_pc::compile` or `reason_sat::pool` that
//! changes a decision, a trail order, a child order or a cache verdict
//! fails here instead of silently shifting circuits.
//!
//! Each corpus group pins three things: an FNV-1a digest over the
//! `Debug` bytes of every compiled `Option<Circuit>`, the per-field
//! totals of every `CompileStats`, and a digest over the per-formula
//! counters (so two drifts that cancel in a total still show). A
//! digest that leaned on `HashMap` iteration order would flap from run
//! to run — `RandomState` is seeded per map — so CI runs this three
//! times.

use std::fmt::{self, Write};

use reason::pc::{
    compile_cnf_with, Circuit, CompileOptions, CompileStats, PersistentComponentCache, WmcWeights,
};
use reason::sat::gen::{planted_ksat, random_ksat};
use reason::sat::{Clause, Cnf};

/// FNV-1a over a byte stream; `Write` lets `{:?}` stream into it
/// without building the string.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// What one corpus group pins.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    formulas: usize,
    unsat: usize,
    circuits: u64,
    stats: u64,
    totals: CompileStats,
}

/// Accumulates a group's compiles into its [`Pin`].
struct Group {
    formulas: usize,
    unsat: usize,
    circuits: Fnv,
    stats: Fnv,
    totals: CompileStats,
}

impl Group {
    fn new() -> Self {
        Group {
            formulas: 0,
            unsat: 0,
            circuits: Fnv::new(),
            stats: Fnv::new(),
            totals: CompileStats::default(),
        }
    }

    fn record(&mut self, (circuit, stats): (Option<Circuit>, CompileStats)) {
        self.formulas += 1;
        self.unsat += usize::from(circuit.is_none());
        write!(self.circuits, "{circuit:?}").expect("hashing cannot fail");
        // Exhaustive on purpose: a new counter must be pinned too.
        let CompileStats {
            decisions,
            propagations,
            components,
            cache_hits,
            cache_misses,
            persistent_hits,
            persistent_stores,
            built_nodes,
            nodes,
            edges,
        } = stats;
        for word in [
            decisions,
            propagations,
            components,
            cache_hits,
            cache_misses,
            persistent_hits,
            persistent_stores,
            built_nodes as u64,
            nodes as u64,
            edges as u64,
        ] {
            self.stats.bytes(&word.to_le_bytes());
        }
        let t = &mut self.totals;
        t.decisions += decisions;
        t.propagations += propagations;
        t.components += components;
        t.cache_hits += cache_hits;
        t.cache_misses += cache_misses;
        t.persistent_hits += persistent_hits;
        t.persistent_stores += persistent_stores;
        t.built_nodes += built_nodes;
        t.nodes += nodes;
        t.edges += edges;
    }

    fn compile(&mut self, cnf: &Cnf, weights: &WmcWeights) {
        self.record(compile_cnf_with(cnf, weights, CompileOptions::default()));
    }

    fn pin(self) -> Pin {
        Pin {
            formulas: self.formulas,
            unsat: self.unsat,
            circuits: self.circuits.0,
            stats: self.stats.0,
            totals: self.totals,
        }
    }
}

/// The benchmark's weights: `0.45 + 0.1·(v mod 2)`.
fn ladder_weights(n: usize) -> WmcWeights {
    WmcWeights::new((0..n).map(|v| 0.45 + 0.1 * (v % 2) as f64).collect())
}

/// Eleven distinct marginals in `[0.2, 0.8]`, none of them `0.5`-symmetric
/// across neighbours.
fn skewed_weights(n: usize) -> WmcWeights {
    WmcWeights::new((0..n).map(|v| 0.2 + 0.06 * ((v * 7 + 3) % 11) as f64).collect())
}

/// `random_ksat` over n ∈ 3..=30 × clause/variable ratios 1..=5 at
/// width `k`, weights alternating between skewed and uniform.
fn ksat_group(k: usize) -> Pin {
    let mut group = Group::new();
    for n in 3..=30usize {
        for ratio in 1..=5usize {
            if k > n {
                continue;
            }
            let seed = (1000 * k + 10 * n + ratio) as u64;
            let cnf = random_ksat(n, ratio * n, k, seed);
            let weights =
                if (n + ratio) % 2 == 0 { skewed_weights(n) } else { WmcWeights::uniform(n) };
            group.compile(&cnf, &weights);
        }
    }
    group.pin()
}

#[test]
fn random_2sat_ladder_is_pinned() {
    assert_eq!(
        ksat_group(2),
        Pin {
            formulas: 140,
            unsat: 101,
            circuits: 0xb96e359b88540080,
            stats: 0xce3dbb32acf994e6,
            totals: CompileStats {
                decisions: 353,
                propagations: 809,
                components: 390,
                cache_hits: 37,
                cache_misses: 353,
                persistent_hits: 0,
                persistent_stores: 0,
                built_nodes: 2292,
                nodes: 2276,
                edges: 2961,
            },
        }
    );
}

#[test]
fn random_3sat_ladder_is_pinned() {
    assert_eq!(
        ksat_group(3),
        Pin {
            formulas: 140,
            unsat: 20,
            circuits: 0xe6bae604bd63df5a,
            stats: 0x904b55c10b1acb1f,
            totals: CompileStats {
                decisions: 10379,
                propagations: 25344,
                components: 16504,
                cache_hits: 6125,
                cache_misses: 10379,
                persistent_hits: 0,
                persistent_stores: 0,
                built_nodes: 36905,
                nodes: 36499,
                edges: 97189,
            },
        }
    );
}

#[test]
fn random_4sat_ladder_is_pinned() {
    assert_eq!(
        ksat_group(4),
        Pin {
            formulas: 135,
            unsat: 0,
            circuits: 0xd788a0387c497a44,
            stats: 0x82cba2a78513123e,
            totals: CompileStats {
                decisions: 203_059,
                propagations: 461_690,
                components: 349_918,
                cache_hits: 146_854,
                cache_misses: 203_059,
                persistent_hits: 0,
                persistent_stores: 0,
                built_nodes: 605_939,
                nodes: 605_926,
                edges: 1_911_461,
            },
        }
    );
}

#[test]
fn planted_formulas_on_the_benchmark_weights_are_pinned() {
    // The benchmark's `m = n + 24` ladder: its low rungs, the formula
    // the allocation guard counts, and two tall rungs.
    let mut group = Group::new();
    for (n, seed) in [(20, 3), (22, 5), (24, 7), (25, 11), (26, 13), (27, 19), (28, 17)] {
        group.compile(&planted_ksat(n, n + 24, 3, seed), &ladder_weights(n));
    }
    for (n, seed) in [(36, 23), (40, 29)] {
        group.compile(&planted_ksat(n, n + 24, 3, seed), &ladder_weights(n));
    }
    assert_eq!(
        group.pin(),
        Pin {
            formulas: 9,
            unsat: 0,
            circuits: 0xea7a5f5cf2300b4d,
            stats: 0x6e35c0dd8097a3c2,
            totals: CompileStats {
                decisions: 11998,
                propagations: 28738,
                components: 28537,
                cache_hits: 16539,
                cache_misses: 11998,
                persistent_hits: 0,
                persistent_stores: 0,
                built_nodes: 36983,
                nodes: 36983,
                edges: 125_078,
            },
        }
    );
}

#[test]
fn degenerate_inputs_are_pinned() {
    let mut group = Group::new();
    // Weights at exactly 0 and 1: zero-mass polarities are skipped,
    // zero-mass implications kill their branch.
    for seed in 0..12u64 {
        let n = 10 + seed as usize;
        let cnf = random_ksat(n, 2 * n, 3, 500 + seed);
        let weights = WmcWeights::new(
            (0..n)
                .map(|v| match (v + seed as usize) % 7 {
                    0 => 0.0,
                    1 => 1.0,
                    _ => 0.25 + 0.05 * (v % 7) as f64,
                })
                .collect(),
        );
        group.compile(&cnf, &weights);
    }
    // UNSAT: a contradiction, one found only after decisions, and an
    // over-constrained random instance.
    group.compile(&Cnf::from_clauses(2, vec![vec![1], vec![-1]]), &WmcWeights::uniform(2));
    group.compile(
        &Cnf::from_clauses(
            3,
            vec![
                vec![1, 2, 3],
                vec![1, 2, -3],
                vec![1, -2, 3],
                vec![1, -2, -3],
                vec![-1, 2, 3],
                vec![-1, 2, -3],
                vec![-1, -2, 3],
                vec![-1, -2, -3],
            ],
        ),
        &skewed_weights(3),
    );
    group.compile(&random_ksat(12, 96, 3, 77), &WmcWeights::uniform(12));
    // Empty formula, empty clause, an empty clause among others, n = 0.
    group.compile(&Cnf::new(4), &skewed_weights(4));
    group.compile(&Cnf::new(0), &WmcWeights::uniform(0));
    let mut empty_clause = Cnf::new(2);
    empty_clause.add_clause(Clause::new(vec![]));
    group.compile(&empty_clause, &WmcWeights::uniform(2));
    let mut among = Cnf::from_clauses(3, vec![vec![1, 2], vec![-2, 3]]);
    among.add_clause(Clause::new(vec![]));
    group.compile(&among, &WmcWeights::uniform(3));
    // Duplicate and tautological literals reach the pool unnormalized.
    group.compile(
        &Cnf::from_clauses(
            5,
            vec![vec![1, 1, 2], vec![-2, -2], vec![3, -3, 4], vec![4, 5, 5, -1], vec![2, 3, 3]],
        ),
        &skewed_weights(5),
    );
    group.compile(
        &Cnf::from_clauses(4, vec![vec![1, -1], vec![2, 2], vec![-2, 3, 3, 4], vec![-4, -4, 1]]),
        &ladder_weights(4),
    );
    // One clause of 33+ literals: the wide fingerprint path, alone and
    // inside a 3-SAT formula over the same variables.
    let wide: Vec<i32> = (1..=35).map(|v| if v % 3 == 0 { -v } else { v }).collect();
    group.compile(&Cnf::from_clauses(36, vec![wide.clone()]), &skewed_weights(36));
    let mut mixed = random_ksat(36, 60, 3, 91);
    mixed.add_dimacs_clause(&wide);
    mixed.add_dimacs_clause(&[-1, -2, -4, -5, 36]);
    group.compile(&mixed, &ladder_weights(36));
    assert_eq!(
        group.pin(),
        Pin {
            formulas: 23,
            unsat: 6,
            circuits: 0xdb0db4b7506aa85c,
            stats: 0x3f004ea58f7b1243,
            totals: CompileStats {
                decisions: 1833,
                propagations: 3934,
                components: 3842,
                cache_hits: 2005,
                cache_misses: 1833,
                persistent_hits: 0,
                persistent_stores: 0,
                built_nodes: 5865,
                nodes: 5785,
                edges: 17571,
            },
        }
    );
}

#[test]
fn edit_sequences_through_one_cache_are_pinned() {
    // Per base formula, through one cache: a cold compile, two added
    // clauses (compiled after each), a retraction of the oldest added
    // clause, and a recompile of the unchanged formula.
    let mut group = Group::new();
    for (base, first, second) in [
        (planted_ksat(14, 38, 3, 41), [3, -9], [-2, 7, 12]),
        (planted_ksat(20, 44, 3, 43), [-5, 11], [1, -14, 19]),
        (planted_ksat(24, 48, 3, 47), [6, 17], [-8, -20, 23]),
        (planted_ksat(28, 52, 3, 17), [3, -11], [-7, 20, 26]),
        // Unplanted and tight: sibling conflicts leave dead nodes in
        // the array the cache adopts.
        (random_ksat(18, 66, 3, 53), [4, -13], [-1, 9, 16]),
    ] {
        let n = base.num_vars();
        let weights = ladder_weights(n);
        let mut clauses: Vec<Vec<i32>> = base
            .clauses()
            .iter()
            .map(|c| c.lits().iter().map(|l| l.to_dimacs()).collect())
            .collect();
        let oldest_added = clauses.len();
        let mut cache = PersistentComponentCache::new();
        let mut compile = |clauses: &[Vec<i32>], cache: &mut PersistentComponentCache| {
            let cnf = Cnf::from_clauses(n, clauses.to_vec());
            let options = CompileOptions { cache: Some(cache), ..Default::default() };
            group.record(compile_cnf_with(&cnf, &weights, options));
        };
        compile(&clauses, &mut cache);
        clauses.push(first.to_vec());
        compile(&clauses, &mut cache);
        clauses.push(second.to_vec());
        compile(&clauses, &mut cache);
        clauses.remove(oldest_added);
        cache.invalidate_clauses_from(oldest_added as u32);
        compile(&clauses, &mut cache);
        compile(&clauses, &mut cache);
    }
    assert_eq!(
        group.pin(),
        Pin {
            formulas: 25,
            unsat: 0,
            circuits: 0x4e57215ab4317140,
            stats: 0xa575bcea09ae1c22,
            totals: CompileStats {
                decisions: 2133,
                propagations: 5723,
                components: 3938,
                cache_hits: 1352,
                cache_misses: 2133,
                persistent_hits: 453,
                persistent_stores: 2099,
                built_nodes: 21078,
                nodes: 21068,
                edges: 59874,
            },
        }
    );
}
