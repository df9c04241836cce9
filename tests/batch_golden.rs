//! Batch golden: pinned digests of every batched arena answer.
//!
//! The arena's batched walks are deterministic, so the bits of every
//! answer they give on a fixed formula and a fixed set of lanes are
//! constants of the repository. They were read on the commit *before*
//! the lane kernels of `Dnnf::sum_product_walk` and
//! `Dnnf::max_product_walk` were rewritten to fold two children per
//! pass and to compute every partly observed Or node over its whole
//! tile, so any kernel rewrite that moves a rounding, a signed zero or
//! an MPE tie fails here instead of silently shifting answers.
//!
//! Inputs are `compile_golden`'s random 2-, 3- and 4-SAT ladders and
//! its hostile formulas, plus arenas whose values leave f64's range
//! (weights of 1e-160 and 5e-324 on every third variable), so the
//! extended-exponent walk is pinned too. Every arena answers batches of
//! 1, 7, 63, 64, 65 and 150 lanes, each lane observing 0–5 variables:
//! the tiles hold nodes no lane observes, partly observed nodes and
//! nodes every lane observes, and the wider batches span two or three
//! tiles.
//!
//! Each group pins one FNV-1a digest per answer kind over the answers'
//! bits: `wmc_batch`, `log_probability_batch`, `marginal_batch`,
//! `mpe_batch` (assignment and `log_prob`) and the three groups of
//! `query_batch`. CI runs this three times, like the other goldens.

use reason::pc::{compile_cnf, BatchBuffer, Dnnf, DnnfBatch, Evidence, MpeResult, WmcWeights};
use reason::sat::gen::random_ksat;
use reason::sat::{Clause, Cnf};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats<'a>(&mut self, xs: impl IntoIterator<Item = &'a f64>) {
        xs.into_iter().for_each(|x| self.word(x.to_bits()));
    }

    fn mpes(&mut self, mpes: &[MpeResult]) {
        for MpeResult { assignment, log_prob } in mpes {
            assignment.iter().for_each(|&v| self.word(v as u64));
            self.word(log_prob.to_bits());
        }
    }
}

/// What one input group pins.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    arenas: usize,
    lanes: usize,
    /// Lanes whose log-probability is finite but below the log of the
    /// smallest positive f64: answered only by the extended walk.
    below_f64: usize,
    wmc: u64,
    log: u64,
    marginal: u64,
    mpe: u64,
    query: u64,
}

/// Batch widths every arena answers.
const WIDTHS: [usize; 6] = [1, 7, 63, 64, 65, 150];

/// splitmix64: a fixed stream for the lanes, independent of any shim.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// `width` lanes over `n` variables, each observing 0–5 of them (a
/// variable drawn twice is observed once, with its last value).
fn sparse_lanes(n: usize, width: usize, rng: &mut Rng) -> Vec<Evidence> {
    (0..width)
        .map(|_| {
            let mut ev = Evidence::empty(n);
            let observed = if n == 0 { 0 } else { rng.below(6) };
            for _ in 0..observed {
                let var = rng.below(n);
                ev.set(var, rng.below(2));
            }
            ev
        })
        .collect()
}

/// Accumulates a group's answers into its [`Pin`].
struct Group {
    arenas: usize,
    lanes: usize,
    below_f64: usize,
    wmc: Fnv,
    log: Fnv,
    marginal: Fnv,
    mpe: Fnv,
    query: Fnv,
    rng: Rng,
    buf: BatchBuffer,
}

impl Group {
    fn new(seed: u64) -> Self {
        Group {
            arenas: 0,
            lanes: 0,
            below_f64: 0,
            wmc: Fnv::new(),
            log: Fnv::new(),
            marginal: Fnv::new(),
            mpe: Fnv::new(),
            query: Fnv::new(),
            rng: Rng(seed),
            buf: BatchBuffer::new(),
        }
    }

    /// Compiles `cnf` and, if it carries mass, answers every batch
    /// width on its arena. One buffer serves the whole group, so the
    /// walks also run on tables left behind by other arenas.
    fn answer(&mut self, cnf: &Cnf, weights: &WmcWeights) {
        let Some(circuit) = compile_cnf(cnf, weights) else { return };
        let arena = Dnnf::from_circuit(&circuit).expect("compiled formulas are binary");
        let n = arena.num_vars();
        self.arenas += 1;
        for width in WIDTHS {
            let lanes = sparse_lanes(n, width, &mut self.rng);
            self.lanes += width;
            let batch = DnnfBatch::pack(&lanes);
            let buf = &mut self.buf;
            self.wmc.floats(&arena.wmc_batch(&batch, buf));
            let logs = arena.log_probability_batch(&batch, buf);
            self.below_f64 +=
                logs.iter().filter(|&&l| l.is_finite() && l < f64::MIN_POSITIVE.ln()).count();
            self.log.floats(&logs);
            self.mpe.mpes(&arena.mpe_batch(&batch, buf));
            let refs: Vec<&Evidence> = lanes.iter().collect();
            let mut marginals = Vec::new();
            if n > 0 {
                let var = self.rng.below(n);
                let dists = arena.marginal_batch(&batch, var, buf);
                self.marginal.floats(dists.iter().flatten());
                marginals = lanes.iter().map(|ev| (ev, self.rng.below(n))).collect();
            }
            let (ps, dists, mpes) = arena.query_batch(&refs, &marginals, &refs, buf);
            self.query.floats(&ps);
            self.query.floats(dists.iter().flatten());
            self.query.mpes(&mpes);
        }
    }

    fn pin(self) -> Pin {
        Pin {
            arenas: self.arenas,
            lanes: self.lanes,
            below_f64: self.below_f64,
            wmc: self.wmc.0,
            log: self.log.0,
            marginal: self.marginal.0,
            mpe: self.mpe.0,
            query: self.query.0,
        }
    }
}

/// `compile_golden`'s benchmark weights: `0.45 + 0.1·(v mod 2)`.
fn ladder_weights(n: usize) -> WmcWeights {
    WmcWeights::new((0..n).map(|v| 0.45 + 0.1 * (v % 2) as f64).collect())
}

/// `compile_golden`'s eleven distinct marginals in `[0.2, 0.8]`.
fn skewed_weights(n: usize) -> WmcWeights {
    WmcWeights::new((0..n).map(|v| 0.2 + 0.06 * ((v * 7 + 3) % 11) as f64).collect())
}

/// `compile_golden`'s `random_ksat` ladder: n ∈ 3..=30 × clause/variable
/// ratios 1..=5 at width `k`, weights alternating skewed and uniform.
fn ksat_group(k: usize) -> Pin {
    let mut group = Group::new(k as u64);
    for n in 3..=30usize {
        for ratio in 1..=5usize {
            if k > n {
                continue;
            }
            let seed = (1000 * k + 10 * n + ratio) as u64;
            let cnf = random_ksat(n, ratio * n, k, seed);
            let weights =
                if (n + ratio) % 2 == 0 { skewed_weights(n) } else { WmcWeights::uniform(n) };
            group.answer(&cnf, &weights);
        }
    }
    group.pin()
}

#[test]
fn random_2sat_ladder_answers_are_pinned() {
    assert_eq!(
        ksat_group(2),
        Pin {
            arenas: 39,
            lanes: 13_650,
            below_f64: 0,
            wmc: 0xab74c9525d34aab3,
            log: 0xcf316eb37b572fdd,
            marginal: 0x5d2ad35571b4cfea,
            mpe: 0x974bff085a4f602e,
            query: 0x915e4cf2282f7f47,
        }
    );
}

#[test]
fn random_3sat_ladder_answers_are_pinned() {
    assert_eq!(
        ksat_group(3),
        Pin {
            arenas: 120,
            lanes: 42_000,
            below_f64: 0,
            wmc: 0x1e0e0c9d0e426c74,
            log: 0x2d5b346fbccf61a8,
            marginal: 0x9071333e5b4dbecc,
            mpe: 0xa6e23ddbab2710a8,
            query: 0x54c83df368b03276,
        }
    );
}

#[test]
fn random_4sat_ladder_answers_are_pinned() {
    assert_eq!(
        ksat_group(4),
        Pin {
            arenas: 135,
            lanes: 47_250,
            below_f64: 0,
            wmc: 0xefd8c5ad751fa4df,
            log: 0xbe91c26f9a8ea874,
            marginal: 0xe3b071511018a9d2,
            mpe: 0x60d39f053d8d7d28,
            query: 0x5a9e1c231fb40d6b,
        }
    );
}

#[test]
fn hostile_formula_answers_are_pinned() {
    // `compile_golden`'s degenerate inputs: weights at exactly 0 and 1,
    // UNSAT formulas (no arena), the empty formula, n = 0, an empty
    // clause, duplicate and tautological literals, and a 35-literal
    // clause alone and inside a 3-SAT formula.
    let mut group = Group::new(99);
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
        group.answer(&cnf, &weights);
    }
    group.answer(&Cnf::from_clauses(2, vec![vec![1], vec![-1]]), &WmcWeights::uniform(2));
    group.answer(&random_ksat(12, 96, 3, 77), &WmcWeights::uniform(12));
    group.answer(&Cnf::new(4), &skewed_weights(4));
    group.answer(&Cnf::new(0), &WmcWeights::uniform(0));
    let mut among = Cnf::from_clauses(3, vec![vec![1, 2], vec![-2, 3]]);
    among.add_clause(Clause::new(vec![]));
    group.answer(&among, &WmcWeights::uniform(3));
    group.answer(
        &Cnf::from_clauses(
            5,
            vec![vec![1, 1, 2], vec![-2, -2], vec![3, -3, 4], vec![4, 5, 5, -1], vec![2, 3, 3]],
        ),
        &skewed_weights(5),
    );
    group.answer(
        &Cnf::from_clauses(4, vec![vec![1, -1], vec![2, 2], vec![-2, 3, 3, 4], vec![-4, -4, 1]]),
        &ladder_weights(4),
    );
    let wide: Vec<i32> = (1..=35).map(|v| if v % 3 == 0 { -v } else { v }).collect();
    group.answer(&Cnf::from_clauses(36, vec![wide.clone()]), &skewed_weights(36));
    let mut mixed = random_ksat(36, 60, 3, 91);
    mixed.add_dimacs_clause(&wide);
    mixed.add_dimacs_clause(&[-1, -2, -4, -5, 36]);
    group.answer(&mixed, &ladder_weights(36));
    assert_eq!(
        group.pin(),
        Pin {
            arenas: 17,
            lanes: 5950,
            below_f64: 0,
            wmc: 0x4cf963fc99fb8626,
            log: 0xfe62bd92a1d7419b,
            marginal: 0xdde336f179b404d6,
            mpe: 0xac28e20edecb9e75,
            query: 0xd04c00f948a5c080,
        }
    );
}

#[test]
fn extended_range_answers_are_pinned() {
    // Weights of 1e-160 or 5e-324 on every third variable: a lane that
    // observes a few of them at 1 leaves f64's range, so these arenas
    // walk extended-exponent values. The last seed forces every tiny
    // variable true, so even `Z` lies below f64's range.
    let mut group = Group::new(7);
    for tiny in [1e-160, 5e-324] {
        for seed in 0..4u64 {
            let n = 12 + seed as usize;
            let mut cnf = random_ksat(n, 2 * n, 3, 40 + seed);
            if seed == 3 {
                (0..n).step_by(3).for_each(|v| cnf.add_dimacs_clause(&[v as i32 + 1]));
            }
            let probs = (0..n).map(|v| [tiny, 0.5, 0.3][v % 3]).collect();
            group.answer(&cnf, &WmcWeights::new(probs));
        }
    }
    assert_eq!(
        group.pin(),
        Pin {
            arenas: 8,
            lanes: 2800,
            below_f64: 1221,
            wmc: 0xf95cedb76915c839,
            log: 0xbc5f63b3254cac6a,
            marginal: 0xa9b8b775ee8af48b,
            mpe: 0xa50b1f2dec150a51,
            query: 0x4063239a6958e0fe,
        }
    );
}
