//! Seeded input generation. Everything a workload feeds the program is
//! drawn here from one SplitMix64 stream seeded by `--seed`, as plain
//! data (`layers` turns it into the program's types), and folded into
//! an `input_digest` so two runs can prove they measured the same
//! inputs.
//!
//! Knowledge bases are *planted* 3-CNF: a hidden assignment is drawn
//! first and every clause is forced to agree with it, so each formula
//! has satisfying mass by construction — no seed-walking over the
//! program's own output. Query evidence agrees with the planted
//! assignment for the same reason: no query conditions on a zero-mass
//! event, so no operation can fail for want of mass.

/// SplitMix64 (Steele, Lea & Flood): the benchmark's only randomness.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias at these sizes is
    /// below 2^-50).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn flip(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// An independent stream for one named part of a workload, so
    /// adding draws to one part never shifts another's inputs.
    pub fn fork(&self, label: u64) -> SplitMix64 {
        let mut child = SplitMix64(self.0 ^ label.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        child.next_u64();
        child
    }
}

/// FNV-1a over the generated inputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// One generated knowledge base, as plain data.
#[derive(Debug, Clone)]
pub struct Kb {
    pub n: usize,
    /// DIMACS-signed literals, three distinct variables per clause.
    pub clauses: Vec<Vec<i32>>,
    /// `probs[v] = Pr[x_v = 1]`.
    pub probs: Vec<f64>,
    /// The hidden satisfying assignment.
    pub planted: Vec<bool>,
}

impl Kb {
    pub fn digest_into(&self, d: &mut Digest) {
        d.u64(self.n as u64);
        for clause in &self.clauses {
            for &lit in clause {
                d.u64(lit as i64 as u64);
            }
        }
        for &p in &self.probs {
            d.u64(p.to_bits());
        }
    }

    /// Does `assignment` (one 0/1 value per variable) satisfy every
    /// clause?
    pub fn satisfied_by(&self, assignment: &[usize]) -> bool {
        self.clauses.iter().all(|clause| {
            clause
                .iter()
                .any(|&lit| (assignment[lit.unsigned_abs() as usize - 1] == 1) == (lit > 0))
        })
    }

    /// Product of the per-variable weights of a complete assignment.
    pub fn weight_of(&self, assignment: &[usize]) -> f64 {
        assignment
            .iter()
            .zip(&self.probs)
            .map(|(&value, &p)| if value == 1 { p } else { 1.0 - p })
            .product()
    }
}

/// The weight ladder every knowledge base uses: `0.45 + 0.1·(v mod 2)`.
pub fn ladder_probs(n: usize) -> Vec<f64> {
    (0..n).map(|v| 0.45 + 0.1 * (v % 2) as f64).collect()
}

/// One clause over three distinct variables that the planted assignment
/// satisfies: signs are random, and a clause the assignment falsifies
/// has one literal flipped.
pub fn planted_clause(rng: &mut SplitMix64, planted: &[bool]) -> Vec<i32> {
    let n = planted.len();
    let mut vars = [0usize; 3];
    let mut picked = 0;
    while picked < 3 {
        let v = rng.below(n);
        if !vars[..picked].contains(&v) {
            vars[picked] = v;
            picked += 1;
        }
    }
    let mut signs = [rng.flip(), rng.flip(), rng.flip()];
    if (0..3).all(|i| signs[i] != planted[vars[i]]) {
        let fix = rng.below(3);
        signs[fix] = planted[vars[fix]];
    }
    (0..3).map(|i| if signs[i] { vars[i] as i32 + 1 } else { -(vars[i] as i32 + 1) }).collect()
}

/// A planted 3-CNF over `n` variables on the `m = n + 24` ladder.
pub fn planted_kb(rng: &mut SplitMix64, n: usize) -> Kb {
    let planted: Vec<bool> = (0..n).map(|_| rng.flip()).collect();
    let clauses = (0..n + 24).map(|_| planted_clause(rng, &planted)).collect();
    Kb { n, clauses, probs: ladder_probs(n), planted }
}

/// Stream the fixed shapes are drawn from, whatever `--seed`.
const FIXED_SHAPES: u64 = 0x7A11_5C0B_E5EE_D000;

/// The `index`-th fixed-shape planted 3-CNF over `n` variables: which
/// variables each clause joins, and which of its literals agree with
/// the hidden assignment, come from a fixed stream; the hidden
/// assignment itself comes from `rng`. Seeds therefore differ in every
/// literal's polarity — so in the models, the mass and every answer —
/// but not in the formula's shape, and compiling it is the same work
/// and the same circuit size on every seed.
///
/// Compile time, memory and arena size of a random formula vary ±30–40 %
/// with its shape, and the driver wants ten different seeds to agree:
/// every serving workload fixes its shapes so that the program, not the
/// seed, decides the result. (`planted_kb` draws the shape from the seed
/// too; `paper_lowering`'s small served arenas use it.)
pub fn fixed_shape_kb(rng: &mut SplitMix64, n: usize, index: usize) -> Kb {
    let mut shape = SplitMix64::new(FIXED_SHAPES).fork((n * 256 + index) as u64);
    let agree = vec![true; n];
    let planted: Vec<bool> = (0..n).map(|_| rng.flip()).collect();
    let clauses = (0..n + 24)
        .map(|_| {
            // A literal positive here agrees with the hidden assignment.
            let against_all_true = planted_clause(&mut shape, &agree);
            against_all_true
                .into_iter()
                .map(|lit| {
                    let var = lit.unsigned_abs() as usize - 1;
                    let positive = (lit > 0) == planted[var];
                    if positive {
                        var as i32 + 1
                    } else {
                        -(var as i32 + 1)
                    }
                })
                .collect()
        })
        .collect();
    Kb { n, clauses, probs: ladder_probs(n), planted }
}

/// What a query asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Wmc,
    Probability,
    Posterior,
    Marginal,
    Mpe,
}

/// One query shape, as plain data: a kind, partial evidence as
/// `(variable, value)` pairs, and the queried variable of a marginal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape {
    pub kind: Kind,
    pub evidence: Vec<(usize, bool)>,
    pub var: usize,
}

impl Shape {
    pub fn digest_into(&self, d: &mut Digest) {
        d.u64(self.kind as u64);
        for &(v, b) in &self.evidence {
            d.u64((v as u64) << 1 | u64::from(b));
        }
        d.u64(self.var as u64);
    }
}

/// A query shape of `kind` on `kb`: one or two evidence variables set
/// to their planted values (none for `Wmc`), and for a marginal a
/// queried variable outside the evidence.
pub fn shape(rng: &mut SplitMix64, kb: &Kb, kind: Kind) -> Shape {
    let mut evidence: Vec<(usize, bool)> = Vec::new();
    if kind != Kind::Wmc {
        for _ in 0..1 + rng.below(2) {
            let v = rng.below(kb.n);
            if evidence.iter().all(|&(seen, _)| seen != v) {
                evidence.push((v, kb.planted[v]));
            }
        }
    }
    let var = loop {
        let v = rng.below(kb.n);
        if evidence.iter().all(|&(seen, _)| seen != v) {
            break v;
        }
    };
    Shape { kind, evidence, var }
}

/// The hot-path kind mix — 60 % Probability, 15 % Posterior, 15 %
/// Marginal, 5 % Wmc, 5 % Mpe — as a fixed cycle: the `j`-th shape of
/// every menu has the same kind on every seed, so the seed decides what
/// a query asks about and never how dear a menu is.
pub fn mixed_kind(j: usize) -> Kind {
    use Kind::{Marginal as M, Mpe, Posterior as Po, Probability as P, Wmc as W};
    const CYCLE: [Kind; 20] = [P, Po, P, M, P, P, Po, P, M, P, W, P, Po, P, M, P, P, Mpe, P, P];
    CYCLE[j % CYCLE.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_repeats_per_seed_and_differs_across_seeds() {
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(7));
        // Reference value of the published algorithm for seed 0.
        assert_eq!(SplitMix64::new(0).next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn planted_assignments_satisfy_their_formulas() {
        for seed in 0..64 {
            let mut rng = SplitMix64::new(seed);
            let kb = planted_kb(&mut rng, 12 + seed as usize % 40);
            assert_eq!(kb.clauses.len(), kb.n + 24);
            let assignment: Vec<usize> = kb.planted.iter().map(|&b| usize::from(b)).collect();
            assert!(kb.satisfied_by(&assignment), "seed {seed}");
            assert!(kb.weight_of(&assignment) > 0.0);
            for clause in &kb.clauses {
                let mut vars: Vec<u32> = clause.iter().map(|l| l.unsigned_abs()).collect();
                vars.sort_unstable();
                vars.dedup();
                assert_eq!(vars.len(), 3, "three distinct variables per clause");
            }
        }
    }

    #[test]
    fn fixed_shapes_keep_their_shape_and_change_their_polarities_with_the_seed() {
        let (a, b) = (
            fixed_shape_kb(&mut SplitMix64::new(1), 40, 0),
            fixed_shape_kb(&mut SplitMix64::new(2), 40, 0),
        );
        let vars = |kb: &Kb| -> Vec<Vec<u32>> {
            kb.clauses.iter().map(|c| c.iter().map(|l| l.unsigned_abs()).collect()).collect()
        };
        assert_eq!(vars(&a), vars(&b));
        assert_ne!(a.clauses, b.clauses);
        assert_ne!(vars(&a), vars(&fixed_shape_kb(&mut SplitMix64::new(1), 40, 1)));
        for kb in [&a, &b] {
            let assignment: Vec<usize> = kb.planted.iter().map(|&v| usize::from(v)).collect();
            assert!(kb.satisfied_by(&assignment));
            // Literal by literal, agreement with the hidden assignment
            // is the shape's, not the seed's.
            let agrees = |kb: &Kb| -> Vec<bool> {
                kb.clauses
                    .iter()
                    .flatten()
                    .map(|&l| (l > 0) == kb.planted[l.unsigned_abs() as usize - 1])
                    .collect()
            };
            assert_eq!(agrees(kb), agrees(&a));
        }
    }

    #[test]
    fn evidence_agrees_with_the_planted_assignment() {
        let mut rng = SplitMix64::new(9);
        let kb = planted_kb(&mut rng, 20);
        for j in 0..200 {
            let kind = mixed_kind(j);
            let s = shape(&mut rng, &kb, kind);
            assert_eq!(s.evidence.is_empty(), kind == Kind::Wmc);
            assert!(s.evidence.iter().all(|&(v, b)| kb.planted[v] == b));
            assert!(s.evidence.iter().all(|&(v, _)| v != s.var));
        }
    }

    #[test]
    fn the_kind_cycle_holds_the_stated_mix() {
        let count = |kind| (0..20).filter(|&j| mixed_kind(j) == kind).count();
        let mix = [Kind::Probability, Kind::Posterior, Kind::Marginal, Kind::Wmc, Kind::Mpe];
        assert_eq!(mix.map(count), [12, 3, 3, 1, 1]);
        assert_eq!(mixed_kind(23), mixed_kind(3));
    }

    #[test]
    fn digests_follow_the_inputs() {
        let digest = |seed| {
            let mut rng = SplitMix64::new(seed);
            let kb = planted_kb(&mut rng, 16);
            let mut d = Digest::default();
            kb.digest_into(&mut d);
            shape(&mut rng, &kb, Kind::Marginal).digest_into(&mut d);
            d.value()
        };
        assert_eq!(digest(42), digest(42));
        assert_ne!(digest(42), digest(7));
    }
}
