//! SAT golden: pinned results of the preprocessor and of cube-and-conquer.
//!
//! `Preprocessor::run` and `CubeAndConquer::solve` (sequential conquer)
//! are deterministic, so what each returns for a fixed formula is a
//! constant of the repository. Each row folds in:
//!
//! * from the preprocessor: the reduced formula's DIMACS text, `decided`,
//!   every `stats` field, and `reconstruct_model` of two fixed reduced
//!   models (all false, and a seeded pattern) and of the CDCL model of the
//!   reduced formula — the reconstruction, not the recorded steps, because
//!   steps that fix distinct variables may come in any order without
//!   changing a single lifted model — after checking the verdict against
//!   CDCL on the input and the lifted model against the input. A refuted
//!   formula pins neither `units_fixed` nor a reconstruction: it has no
//!   model to lift, and the count of units fixed before the conflict
//!   depends on the order they were propagated in (the queue pass this
//!   golden was first read on fixed whole layers of units before looking
//!   for a falsified clause; the propagator stops at the first one);
//! * from cube-and-conquer at depth 4 and depth 6: every cube in order,
//!   `refuted_during_cubing`, `cubes_solved` and the solution's model.
//!
//! The formulas are ~300 seeded ones (k = 2..4, n = 4..60) with unit
//! clauses, duplicate literals and tautologies mixed in, and planted 2-SAT
//! equivalence cycles and failed-literal triangles so that SCC
//! substitution and failed-literal probing fire, plus hostile rows: no
//! variables, no clauses, an empty clause, contradictory units, a unit
//! chain into a falsified unit, duplicate literals, tautologies and a
//! 35-literal clause.
//!
//! The digests were read before lookahead and the preprocessor's unit
//! pass moved onto the shared `ClausePool` + `Propagator`, so a
//! propagator that implies a different set, count or order of literals
//! fails here instead of moving a cube downstream. Like the other
//! goldens, run it more than once: a digest that leaned on a `HashMap`'s
//! iteration order would flap between runs.

use reason::sat::{CdclSolver, Clause, Cnf, CubeAndConquer, CubeConfig, Preprocessor, Solution};

/// FNV-1a over a stream of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn model(&mut self, model: &[bool]) {
        self.word(model.len() as u64);
        for &b in model {
            self.word(u64::from(b));
        }
    }
}

/// A local seed stream, so the inputs do not depend on the `rand` shim.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `1 / n`.
    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    /// A DIMACS literal over `1..=n` with a random sign.
    fn lit(&mut self, n: usize) -> i32 {
        let v = self.below(n) as i32 + 1;
        if self.one_in(2) {
            v
        } else {
            -v
        }
    }
}

/// `width` literals over distinct variables.
fn distinct_clause(rng: &mut SplitMix64, n: usize, width: usize) -> Vec<i32> {
    let mut clause: Vec<i32> = Vec::with_capacity(width);
    while clause.len() < width.min(n) {
        let l = rng.lit(n);
        if !clause.iter().any(|c| c.abs() == l.abs()) {
            clause.push(l);
        }
    }
    clause
}

/// Seeded formula `i`: mostly width-`k` clauses at a ratio around the
/// threshold, with units, binaries, duplicate literals and tautologies
/// mixed in; every fourth formula rejects clauses its hidden model
/// falsifies (planted), and three in four carry a planted equivalence
/// cycle, a failed-literal triangle or both.
fn seeded_formula(i: u64) -> (String, Cnf) {
    let mut rng = SplitMix64(0x5A7_601D ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let k = 2 + (i % 3) as usize;
    let n = 4 + rng.below(57);
    let ratio_x10 = match k {
        2 => 5 + rng.below(8),
        3 => 30 + rng.below(18),
        _ => 70 + rng.below(40),
    };
    let m = n * ratio_x10 / 10;
    let planted = i % 4 == 3;
    let hidden: Vec<bool> = (0..n).map(|_| rng.one_in(2)).collect();
    let satisfied = |c: &[i32]| c.iter().any(|&l| hidden[l.unsigned_abs() as usize - 1] == (l > 0));

    let mut clauses: Vec<Vec<i32>> = Vec::with_capacity(m + 8);
    while clauses.len() < m {
        let width = if rng.one_in(2 * n) {
            1
        } else if rng.one_in(ratio_x10 / 3 + 1) {
            2
        } else {
            k
        };
        let mut clause = distinct_clause(&mut rng, n, width);
        if rng.one_in(20) {
            let dup = clause[rng.below(clause.len())];
            clause.push(dup);
        }
        if rng.one_in(30) {
            let neg = -clause[rng.below(clause.len())];
            clause.push(neg);
        }
        if planted && !satisfied(&clause) {
            continue;
        }
        clauses.push(clause);
    }
    let shape = i % 4;
    if shape == 0 || shape == 2 {
        // l0 -> l1 -> ... -> l(c-1) -> l0: one SCC of equivalent literals.
        let len = 2 + rng.below(5);
        let cycle = distinct_clause(&mut rng, n, len);
        for j in 0..cycle.len() {
            clauses.push(vec![-cycle[j], cycle[(j + 1) % cycle.len()]]);
        }
    }
    if shape == 1 || shape == 2 {
        // a -> b -> c -> !a: `a` is a failed literal.
        let t = distinct_clause(&mut rng, n, 3);
        clauses.extend([vec![-t[0], t[1]], vec![-t[1], t[2]], vec![-t[2], -t[0]]]);
    }
    // Fisher–Yates, so the planted clauses are not all at the end.
    for j in (1..clauses.len()).rev() {
        clauses.swap(j, rng.below(j + 1));
    }
    (format!("f{i}-k{k}-n{n}-m{}", clauses.len()), Cnf::from_clauses(n, clauses))
}

/// Formulas no generator draws.
fn hostile() -> Vec<(String, Cnf)> {
    let with_empty = |mut cnf: Cnf| {
        cnf.add_clause(Clause::new(vec![]));
        cnf
    };
    let wide: Vec<i32> = (1..=35).map(|v| if v % 3 == 0 { -v } else { v }).collect();
    let mut wide_then_units = vec![wide.clone()];
    wide_then_units.extend((1..=34).map(|v| vec![if v % 3 == 0 { v } else { -v }]));
    let rows = vec![
        ("no-vars", Cnf::new(0)),
        ("no-clauses", Cnf::new(5)),
        ("empty-clause", with_empty(Cnf::from_clauses(3, vec![vec![1, -2], vec![-1, 3]]))),
        ("only-empty-clause", with_empty(Cnf::new(2))),
        ("contradictory-units", Cnf::from_clauses(3, vec![vec![1], vec![-1], vec![2, 3]])),
        (
            "contradictory-units-late",
            Cnf::from_clauses(3, vec![vec![1, 2], vec![-2, 3], vec![1], vec![-3], vec![-1]]),
        ),
        (
            "unit-chain-into-falsified-unit",
            Cnf::from_clauses(4, vec![vec![1], vec![-1, 2], vec![-2, 3], vec![-3], vec![4]]),
        ),
        (
            "duplicate-literals",
            Cnf::from_clauses(4, vec![vec![1, 1, 2], vec![-2, -2], vec![3, 3, 3], vec![-1, 4, 4]]),
        ),
        ("duplicate-unit", Cnf::from_clauses(3, vec![vec![2, 2], vec![-2, 1], vec![-1, -3, -3]])),
        (
            "tautologies",
            Cnf::from_clauses(3, vec![vec![1, -1], vec![2, -2, 3], vec![-3, 3, 1], vec![1, 2]]),
        ),
        ("wide-35", Cnf::from_clauses(40, vec![wide.clone(), vec![-36, 37], vec![-37, 38]])),
        ("wide-35-forced", Cnf::from_clauses(35, wide_then_units.clone())),
        ("wide-35-refuted", {
            let mut clauses = wide_then_units;
            clauses.push(vec![35]);
            Cnf::from_clauses(35, clauses)
        }),
    ];
    rows.into_iter().map(|(label, cnf)| (label.to_string(), cnf)).collect()
}

fn preprocess_digest(cnf: &Cnf) -> (usize, u64) {
    let result = Preprocessor::new().run(cnf);
    let mut h = Fnv::new();
    h.bytes(result.cnf.to_dimacs().as_bytes());
    h.word(match result.decided {
        None => 2,
        Some(d) => u64::from(d),
    });
    // A refuted formula has no model to lift, and how many units the unit
    // pass had fixed when it met its conflict is an artifact of the order
    // it propagates in; neither is pinned for one.
    let refuted = result.decided == Some(false);
    let s = result.stats;
    if !refuted {
        h.word(s.units_fixed as u64);
    }
    for w in [
        s.failed_literals,
        s.equivalences,
        s.pure_literals,
        s.hidden_literals,
        s.clauses_removed,
        s.bytes_before,
        s.bytes_after,
    ] {
        h.word(w as u64);
    }
    let n = cnf.num_vars();
    let mut pattern = SplitMix64(n as u64);
    let fixed: [Vec<bool>; 2] =
        [vec![false; n], (0..n).map(|_| pattern.next_u64() & 1 == 1).collect()];
    if !refuted {
        for reduced in &fixed {
            h.model(&result.reconstruct_model(reduced));
        }
    }
    // The verdict is the solver's, and a model of the reduced formula
    // lifts to a model of the input.
    let expect = CdclSolver::new(cnf).solve().is_sat();
    let lifted = match result.decided {
        Some(false) => None,
        Some(true) => Some(result.reconstruct_model(&fixed[1])),
        None => match CdclSolver::new(&result.cnf).solve() {
            Solution::Sat(model) => Some(result.reconstruct_model(&model)),
            Solution::Unsat => None,
        },
    };
    assert_eq!(lifted.is_some(), expect, "preprocessing changed satisfiability");
    if let Some(model) = lifted {
        assert!(cnf.eval(&model), "a reduced model did not lift to a model");
        h.model(&model);
    }
    (result.cnf.num_clauses(), h.0)
}

fn cube_digest(h: &mut Fnv, cnf: &Cnf, max_depth: usize) {
    let outcome = CubeAndConquer::new(cnf, CubeConfig { max_depth }).solve();
    h.word(outcome.cubes.len() as u64);
    for cube in &outcome.cubes {
        h.word(cube.len() as u64);
        for l in cube {
            h.word(l.to_dimacs() as u64);
        }
    }
    h.word(outcome.refuted_during_cubing as u64);
    h.word(outcome.cubes_solved as u64);
    match &outcome.solution {
        Solution::Sat(model) => {
            assert!(cnf.eval(model), "cube-and-conquer returned a non-model");
            h.word(1);
            h.model(model);
        }
        Solution::Unsat => h.word(0),
    }
}

/// One pinned row: `(label, reduced clauses, preprocess digest, cube digest)`.
type Row = (String, usize, u64, u64);

fn all_rows() -> Vec<Row> {
    let mut formulas: Vec<(String, Cnf)> = (0..300).map(seeded_formula).collect();
    formulas.extend(hostile());
    formulas
        .into_iter()
        .map(|(label, cnf)| {
            let (reduced, pre) = preprocess_digest(&cnf);
            let mut h = Fnv::new();
            for depth in [4, 6] {
                cube_digest(&mut h, &cnf, depth);
            }
            (label, reduced, pre, h.0)
        })
        .collect()
}

/// `(label, reduced clauses, preprocess digest, cube digest)`, read
/// before lookahead and the unit pass moved onto the shared propagator.
const PINS: &[(&str, usize, u64, u64)] = &[
    ("f0-k2-n58-m73", 1, 0xf995140062e2f8b5, 0x98342ab6022c2985),
    ("f1-k3-n13-m58", 1, 0x26eada50ef9650ae, 0x3813284f784d69a5),
    ("f2-k4-n49-m477", 1, 0x18feb02160c9f069, 0x42fe340c10bd88e5),
    ("f3-k2-n40-m44", 0, 0x14542070bdeb7bc7, 0x6e37ea6a2ab15383),
    ("f4-k3-n44-m181", 135, 0xefd8a86a7666ddb9, 0xc9c3cbaed828864e),
    ("f5-k4-n22-m179", 0, 0x8608a08c12f2fa6e, 0x7bf048c7d1611768),
    ("f6-k2-n34-m46", 0, 0x87625b89497d1510, 0x7fbcaa7bf22cc955),
    ("f7-k3-n55-m165", 117, 0x9f1ea1289c59da8a, 0x9f160d5949fd3f90),
    ("f8-k4-n6-m49", 1, 0x85042df3a2ea4ec0, 0x8bf63bd6844ed825),
    ("f9-k2-n4-m5", 0, 0x9853b2e26878d47c, 0x084da34e4578fc05),
    ("f10-k3-n54-m241", 1, 0x6e9eb77bdc564025, 0x2c7bccfc4add9ca5),
    ("f11-k4-n5-m35", 0, 0xe553142d0fc21cb3, 0x3c4e97ac5cc2ca7d),
    ("f12-k2-n50-m63", 0, 0x34e67be2dd437352, 0x0233811bc828c399),
    ("f13-k3-n16-m78", 0, 0x1be1b0c1c4c75d54, 0xe67bf5110dbc583b),
    ("f14-k4-n5-m44", 1, 0xe7b6731d933ba6b8, 0x660cd4433c267a25),
    ("f15-k2-n20-m12", 0, 0xf3c16c0dfe9d8009, 0xbefc6491bd68c2be),
    ("f16-k3-n49-m187", 1, 0xe5caad16ceaf8946, 0x5a0fa98150a25b65),
    ("f17-k4-n36-m355", 210, 0x30dfb655c613fccd, 0x7626d0a6cf116d21),
    ("f18-k2-n35-m31", 0, 0x8a4408bbb8030757, 0x2dd99f6e182858c7),
    ("f19-k3-n57-m256", 237, 0x1a3aed75b6640be2, 0xbe16791596cb8b0e),
    ("f20-k4-n47-m407", 344, 0xceeddac52547a5bf, 0x23e5a74cc5e279b5),
    ("f21-k2-n19-m20", 0, 0x067c0b342038be45, 0xabbacc05117fda52),
    ("f22-k3-n14-m65", 1, 0xac8c7aaaad17b829, 0x1f42eb732d401025),
    ("f23-k4-n40-m336", 149, 0xf6d13a131e73acef, 0xc48b849b72dc4e70),
    ("f24-k2-n25-m22", 0, 0x063dfa8d9d3ad2b8, 0x662eabf47511a241),
    ("f25-k3-n32-m153", 1, 0x08fb9dce5b261b00, 0xf0d76e3d1c3f28a5),
    ("f26-k4-n59-m610", 1, 0xb26b37c7b890e1d7, 0x62e9be51f6d0f6bb),
    ("f27-k2-n59-m35", 0, 0xfba7f116c98fcb09, 0x03ea5a6a5a97d016),
    ("f28-k3-n57-m253", 238, 0x091714904ccaaa54, 0x54a0c7196b40ca65),
    ("f29-k4-n14-m140", 0, 0x099faeefa8f8b95a, 0x60a8694ad738ce24),
    ("f30-k2-n53-m67", 0, 0xf52218a1c48f683a, 0xbb5a118c5dc75329),
    ("f31-k3-n4-m12", 0, 0x130a22b73d803268, 0x7fb7b69504535765),
    ("f32-k4-n36-m385", 334, 0xe2d56ca0473ef3e9, 0x48a59b78a051f2e5),
    ("f33-k2-n11-m16", 0, 0x0c0d598348d8889d, 0xb55c23c9b6441955),
    ("f34-k3-n32-m121", 1, 0xcd28348f8ffbaaeb, 0xa835ab99bfa75929),
    ("f35-k4-n46-m501", 0, 0x67de5b5b416d7a3e, 0x92d6f7e8ef262b84),
    ("f36-k2-n29-m32", 0, 0x9d6fcd7602138534, 0x6fdd88957b7a7b21),
    ("f37-k3-n55-m195", 174, 0x918b274c0b855d47, 0x1501302459464715),
    ("f38-k4-n45-m337", 1, 0x77034b617696a54d, 0x1633996cc8fde6e5),
    ("f39-k2-n13-m14", 0, 0xcb6bacd443e0e1cd, 0x9afe1a12a9a7f831),
    ("f40-k3-n55-m236", 1, 0x3b7abebebe697c65, 0x773f1afde80d4f1d),
    ("f41-k4-n21-m225", 1, 0x9bee0ea0eacc9868, 0x537a0a291d798765),
    ("f42-k2-n8-m13", 0, 0xaae592c44f34d33c, 0x6d1638867c9b3ac6),
    ("f43-k3-n58-m261", 231, 0xe3b4c76945893500, 0xa23485274f713fee),
    ("f44-k4-n43-m353", 328, 0x0153281acc26349f, 0x342c496db223ba58),
    ("f45-k2-n43-m41", 0, 0x664926059fbef0fd, 0xf820bddcdfe1ad4b),
    ("f46-k3-n45-m198", 1, 0xf477d6b8d786ff04, 0x8d03a1036b323ca5),
    ("f47-k4-n59-m601", 505, 0x02c42f2aa9b48e15, 0xcbfccef964a62685),
    ("f48-k2-n30-m39", 0, 0x4858f24b7d0c7275, 0x54b8b28b25ceea86),
    ("f49-k3-n36-m136", 1, 0xdb2057939d797e0c, 0xd01c094f1687e711),
    ("f50-k4-n50-m500", 299, 0x6e640358c12626be, 0x46c7adde821d354d),
    ("f51-k2-n34-m40", 0, 0x42036422d4e89c82, 0x2ab20662a2402a7f),
    ("f52-k3-n54-m212", 0, 0x42d283b0ec86ac1b, 0x1fde62c3f212af0a),
    ("f53-k4-n5-m42", 1, 0xf893056a193dcd6a, 0xedea92aa97715625),
    ("f54-k2-n13-m23", 0, 0xfb87b50a07363eb0, 0x844a797d56f19ea6),
    ("f55-k3-n58-m243", 202, 0x9a1c49159fc86326, 0x5c03ad63d221ad48),
    ("f56-k4-n57-m589", 439, 0x10ec4ba6b7e734e5, 0xb439b1df3943c0ed),
    ("f57-k2-n55-m58", 0, 0x06bee428a23883c2, 0xfe22a50aa41f4963),
    ("f58-k3-n42-m198", 60, 0xf978e924d2d07011, 0x8d1f53b6e189b066),
    ("f59-k4-n52-m556", 410, 0x1e10aada143cecbe, 0x31008a0b188ac84d),
    ("f60-k2-n29-m33", 0, 0xff4727b7c7ea5d65, 0xb40304bfa8179ad2),
    ("f61-k3-n27-m97", 1, 0xa24ea7e83482c9b7, 0x7bee54d48d0f4675),
    ("f62-k4-n4-m47", 1, 0x04f579a6eb359698, 0x077ac929134dd525),
    ("f63-k2-n27-m21", 0, 0x4caae2f9a260334b, 0x164c098527ba29f7),
    ("f64-k3-n39-m162", 1, 0x5136a9dd76beb2bb, 0x3908e8b64d3b2bb9),
    ("f65-k4-n31-m328", 256, 0x8cb452f22ba4a278, 0x363d56b13bb9cd55),
    ("f66-k2-n29-m27", 0, 0xacb5fb8e6e4bc610, 0x8cf1447211e87423),
    ("f67-k3-n20-m86", 0, 0xf86725e0e2484ff3, 0x81cdcb3d5e3ba92e),
    ("f68-k4-n21-m166", 1, 0x5792e36a6f174426, 0x273201d5b0602a25),
    ("f69-k2-n20-m13", 0, 0x916b4ca3b9d33002, 0x1ffa37f11929b769),
    ("f70-k3-n50-m170", 115, 0xb1cc639bb8c8234a, 0xa15ac9e66e2c5180),
    ("f71-k4-n43-m344", 304, 0x6d0e9abda4194903, 0xd85b3f22fa8bd2f7),
    ("f72-k2-n25-m20", 0, 0x055123a03e9c2a54, 0xbcd6bbcf94a255e5),
    ("f73-k3-n51-m166", 98, 0x719f2ab6a63d3bb7, 0x69b5d85b58bda06a),
    ("f74-k4-n32-m287", 1, 0x4e1ade89f79d931c, 0x79c4a884063d04e5),
    ("f75-k2-n39-m23", 0, 0x8321bae5ef3ccae7, 0xf42740f1f69a58a2),
    ("f76-k3-n9-m32", 0, 0xe0d2d70713cf6f70, 0x2c83134d16efd8d7),
    ("f77-k4-n9-m75", 0, 0xba679830d0d98f06, 0x0b205e5d9e0447b6),
    ("f78-k2-n30-m24", 0, 0xda28cb3bc929125f, 0xb217651ab5a7c5bc),
    ("f79-k3-n12-m46", 45, 0xbd4dd18756339996, 0x20ef060d3e281d72),
    ("f80-k4-n57-m614", 518, 0xc4a496b9f5fec468, 0x0231b1df65dfbe95),
    ("f81-k2-n50-m33", 0, 0xfef6350ce9066ab3, 0xf315e4f6feb9a10b),
    ("f82-k3-n20-m69", 1, 0x4c164cb9b70b2566, 0x908b04762926b489),
    ("f83-k4-n38-m399", 360, 0x3357c33cd018055d, 0x6fc5b4f2cff5bc13),
    ("f84-k2-n48-m55", 0, 0xcd645d8bc52c534a, 0x96f74a606a330112),
    ("f85-k3-n27-m100", 1, 0xcfb1d08a264ee842, 0xff30d6e4e7331f6d),
    ("f86-k4-n44-m427", 1, 0x79874065bfc6f6dd, 0xb8d733e5c078e1a5),
    ("f87-k2-n29-m26", 0, 0x934cefb946ca94aa, 0x067b55cdb2700dac),
    ("f88-k3-n24-m104", 86, 0x5102f3b65e7bee25, 0x6051f38110e3f6c8),
    ("f89-k4-n5-m54", 1, 0xe42a0459a92c331a, 0x2f9bea5a8fbc7a25),
    ("f90-k2-n54-m52", 0, 0x1461f5e170aed7f0, 0xc8fdc73ef55328aa),
    ("f91-k3-n19-m74", 69, 0xb9dcac4f0accf178, 0x97d757899a94a4a4),
    ("f92-k4-n42-m312", 1, 0x574680f387225af7, 0x3bacc7b4189d95a5),
    ("f93-k2-n54-m67", 0, 0xcf2c49cbb941fa8c, 0x8dfd14c95a974b23),
    ("f94-k3-n17-m76", 1, 0xa3b6cc4d351d984b, 0x0bc9424bed51a665),
    ("f95-k4-n9-m89", 51, 0x6ba5d9c04b05dedf, 0x7c421fe8e42e26f3),
    ("f96-k2-n47-m26", 0, 0xb3d1c199f01aef65, 0x298b0f977887e83e),
    ("f97-k3-n53-m172", 139, 0x8da4589db288ca71, 0x6c70e1be2f4c6b69),
    ("f98-k4-n38-m357", 1, 0xd493f716649ee247, 0x7f8c56c985e03d45),
    ("f99-k2-n29-m26", 0, 0x0d0e7f83fe7ea036, 0xe8ab6c23490d5f6f),
    ("f100-k3-n23-m98", 1, 0x4141f8bfd6db61ff, 0xe1463586007ff0e5),
    ("f101-k4-n19-m194", 1, 0xed9b02a56f8839b9, 0xe4997a6911dadea5),
    ("f102-k2-n20-m21", 0, 0x21e1cf8f343d21a4, 0x84fd68eb6ed6380a),
    ("f103-k3-n59-m218", 204, 0x2c1a7817b810086a, 0x34ee91a681b9eee2),
    ("f104-k4-n33-m348", 1, 0xa0476f88067d907c, 0x0c6612c5e94aa265),
    ("f105-k2-n7-m11", 0, 0xdf1b8dce32b7d8c5, 0xd65e69ecf876466e),
    ("f106-k3-n45-m156", 1, 0x84daad820c48236b, 0x52e50f46cd2e6d19),
    ("f107-k4-n32-m246", 193, 0xd85402a86e8180a1, 0x1b27466ecbf467fc),
    ("f108-k2-n50-m66", 1, 0x93f6b71189f34639, 0x8511347243741565),
    ("f109-k3-n55-m184", 1, 0x1353d7bf737909bb, 0xace064a2c828eedd),
    ("f110-k4-n5-m54", 1, 0x17f893c24cfae526, 0x537cc6a1576b7e25),
    ("f111-k2-n58-m34", 0, 0xa5f9d24358e19bcd, 0x98edfb65e51743c1),
    ("f112-k3-n56-m269", 1, 0x78a200d6f96778ac, 0x33523ae58ca4c2b2),
    ("f113-k4-n43-m372", 201, 0xcf09fad8d297a9a9, 0x369f709804dafb16),
    ("f114-k2-n59-m77", 0, 0xb5e602628c4d1b85, 0x620e291ed449a34c),
    ("f115-k3-n6-m21", 20, 0xc6450fb58ccd0e07, 0x351dd0137e0c86ba),
    ("f116-k4-n39-m321", 1, 0xc3dc99276607112b, 0xafea7433cea454e5),
    ("f117-k2-n32-m41", 0, 0xd8b86d5d95a5a0d7, 0xcbceb88df6359714),
    ("f118-k3-n54-m213", 1, 0xb1bfde79ccb72299, 0xf2fc940c6d152c31),
    ("f119-k4-n32-m272", 174, 0x4bfc4e4d1dabb51d, 0x835c39d16c05e2af),
    ("f120-k2-n38-m37", 0, 0x672c17d1581602f0, 0xe73d104abf4a4b47),
    ("f121-k3-n26-m114", 1, 0xee0d071a4d51d274, 0x5c187e77532fc0e5),
    ("f122-k4-n55-m528", 1, 0xb5771e088b064600, 0x2c3412314f9e1809),
    ("f123-k2-n4-m4", 0, 0x31c1d18792e25e74, 0xca33f599a9fbe965),
    ("f124-k3-n52-m219", 127, 0x75b1dfa2b6881762, 0xb74e774771fbbd48),
    ("f125-k4-n33-m267", 1, 0x5d9b7c6ad03388d3, 0x47c69c3faf1904c5),
    ("f126-k2-n27-m24", 0, 0xf4cdb1a2de14a86d, 0xf78556a44b6a1f71),
    ("f127-k3-n37-m133", 100, 0xcdf63f8953ffa871, 0x2ea8564f5a70e5c8),
    ("f128-k4-n6-m46", 0, 0x397095a82a8e7ed6, 0x925292c05d6d5dee),
    ("f129-k2-n23-m14", 0, 0xd7a2fdad3f63be2a, 0x0c00351f32812b52),
    ("f130-k3-n37-m165", 1, 0xabec21db42eee775, 0x70f2cfb5b0dbbc85),
    ("f131-k4-n5-m46", 4, 0xcf99eb431771d899, 0x34aa43489719452f),
    ("f132-k2-n14-m18", 0, 0x0eceb317f85cd123, 0x47541f955746db04),
    ("f133-k3-n14-m63", 1, 0x9164e65141ae8c0c, 0xe6100d51055f4925),
    ("f134-k4-n4-m46", 1, 0x1331f91f1e5b208b, 0x4df16bf03d3be725),
    ("f135-k2-n33-m36", 0, 0xb9787db2a3e1d2e3, 0x83271ad94d900446),
    ("f136-k3-n18-m77", 1, 0x4dc8a3f20e8a3081, 0x1c102519bb33bcb5),
    ("f137-k4-n49-m478", 1, 0xd3fb04d042ce3034, 0x3fd363dca0daa3f9),
    ("f138-k2-n41-m38", 0, 0x5470c83d0267723d, 0x57ab71953877890f),
    ("f139-k3-n38-m163", 141, 0x7e4dfb152323c081, 0x05a10d49b36416ea),
    ("f140-k4-n21-m216", 1, 0x038ed8392acd5bcb, 0xd758f0acc3e03425),
    ("f141-k2-n8-m10", 0, 0xd5fd482d21d3615d, 0x46f3d80d33fec096),
    ("f142-k3-n17-m85", 1, 0x342d66338338776f, 0xa37aafb0510c68e5),
    ("f143-k4-n5-m36", 0, 0x32b83a40d85b7b43, 0x301fec554c53a611),
    ("f144-k2-n4-m7", 0, 0xf842762b4f8163d4, 0x69a9334b4b69ee25),
    ("f145-k3-n56-m171", 136, 0xb180d29f65b4380c, 0xa018e3371371c404),
    ("f146-k4-n58-m558", 1, 0x0b8725c6788f6cd5, 0x02d58f2bdd8d5c65),
    ("f147-k2-n57-m51", 0, 0xe49c66ebe1a1d9dc, 0xe261de6113081f16),
    ("f148-k3-n11-m56", 1, 0xe9aa8604178f3230, 0xd7faf8f9e496a225),
    ("f149-k4-n34-m312", 265, 0xd6752bfebdb35f20, 0x729595121f276465),
    ("f150-k2-n9-m17", 1, 0xda06bc7965200391, 0xf5ad36fbebd72525),
    ("f151-k3-n4-m18", 0, 0xf7d48341f6cfc247, 0xcfe8696f7b85a8e5),
    ("f152-k4-n12-m103", 1, 0x68bfc3980d50441e, 0x9bb3d206cb70e3e5),
    ("f153-k2-n50-m53", 0, 0xd36f0a58913595dd, 0x4ef496840e3ac647),
    ("f154-k3-n15-m70", 1, 0xc329d739f7f06c2b, 0xdf1d8d0c8ab057c5),
    ("f155-k4-n39-m362", 328, 0x19179946ad9bbb9d, 0x4792aec811dee9c9),
    ("f156-k2-n12-m17", 0, 0xeef5a2ed0607226d, 0x5badf50d9f22c89c),
    ("f157-k3-n41-m150", 1, 0x919eeb187eef69eb, 0xf7276a777c691d65),
    ("f158-k4-n7-m58", 1, 0x18daa2c581c85d81, 0x34873c0c4eafa225),
    ("f159-k2-n45-m40", 0, 0xcd2d78170e72434c, 0xbb343036bd5136d5),
    ("f160-k3-n34-m108", 1, 0xf00695148c73604c, 0x8875d562fd216865),
    ("f161-k4-n34-m326", 1, 0xc39af95972faf8c8, 0x128f210bac9c06e5),
    ("f162-k2-n54-m44", 0, 0xad25ff3b592df527, 0xac17ac8803d88ee4),
    ("f163-k3-n19-m89", 0, 0x9453f8d77df8ed64, 0x86154595374e65b1),
    ("f164-k4-n39-m323", 264, 0x11921b7d65522e13, 0x5c42e8a24179fa85),
    ("f165-k2-n10-m11", 0, 0x57ba7dfd78b5de16, 0x9bc84f6ad5f62c07),
    ("f166-k3-n22-m106", 1, 0xda748592749e6ec7, 0x5ce04facffefa505),
    ("f167-k4-n44-m382", 286, 0x01d3952a1fd3bf66, 0x042dced25ac77015),
    ("f168-k2-n19-m23", 1, 0x41d4cd98e27b5f44, 0x2773e70dc80896a5),
    ("f169-k3-n9-m40", 1, 0xedfe89c9d57c238c, 0x4538f7aeba147845),
    ("f170-k4-n7-m63", 1, 0xe93002804ce61cd6, 0x0f9a59a397df7e25),
    ("f171-k2-n60-m30", 0, 0x3ae986b1edb14993, 0x2a0ac479ff826d74),
    ("f172-k3-n49-m195", 1, 0x5c5a5280c768cd51, 0x8a28f7f8d0f96e13),
    ("f173-k4-n47-m435", 1, 0xc42481038835b7ef, 0x412e8b888ea165a4),
    ("f174-k2-n24-m32", 1, 0xad9db75f673a2c96, 0x11740d792a3c1465),
    ("f175-k3-n21-m63", 44, 0x926e51a7d3447e00, 0x13149dda2ea63496),
    ("f176-k4-n52-m554", 408, 0x49694f00efbe1508, 0x8c7219c6d9c9fa15),
    ("f177-k2-n33-m19", 0, 0xb6d14f6878a9d37f, 0x82ddcf66c514780e),
    ("f178-k3-n51-m218", 1, 0x5b656f3a7f577184, 0x8d67c997d059d7b5),
    ("f179-k4-n13-m131", 82, 0x5970f1eeaad6e36d, 0x5c42916549aecd5a),
    ("f180-k2-n24-m33", 1, 0x88e13160a67b06c5, 0xa291c2adcf29fa25),
    ("f181-k3-n12-m51", 0, 0x9141e2cb3eb23286, 0x346bf3ec4086774e),
    ("f182-k4-n29-m295", 1, 0xd38d357ff560373c, 0xfba58dc4eff26aa5),
    ("f183-k2-n34-m20", 0, 0xf51b408e5c16c7ee, 0x16d4fb4aa075ab12),
    ("f184-k3-n10-m36", 0, 0x064710b841361de3, 0x79008659b822a7c0),
    ("f185-k4-n6-m63", 1, 0x6bc5afa2247366af, 0x6b27b759fa2b9025),
    ("f186-k2-n9-m13", 1, 0x7ef427af05dd19c5, 0xfc5b38043ea78d05),
    ("f187-k3-n47-m141", 100, 0x63f73d8f1ecfbb5b, 0xf51323dc42628914),
    ("f188-k4-n47-m419", 1, 0x30f9dad964d60cb9, 0x658c84d264443a8c),
    ("f189-k2-n47-m26", 0, 0xfb6905c251cc7c75, 0x0dcd5ce27e8689ac),
    ("f190-k3-n9-m41", 1, 0xf0a2579740e386d0, 0x8a15013815fe2305),
    ("f191-k4-n13-m131", 124, 0x62e2f09e32f153c0, 0x7789ffd0f9281077),
    ("f192-k2-n12-m12", 0, 0x479ec2559340c5f2, 0xacf6138c7e22b2af),
    ("f193-k3-n15-m54", 1, 0xffdd526a1ab28a27, 0x755376db80fd8fc9),
    ("f194-k4-n17-m162", 1, 0x54ab862680af45a9, 0x6a7e5f3ca8d513e5),
    ("f195-k2-n51-m30", 0, 0x4ccf2e9d16ece688, 0x9c38584f513de766),
    ("f196-k3-n44-m197", 1, 0x0a097053e7030368, 0xb1f7aa685d0b28b9),
    ("f197-k4-n43-m381", 308, 0xba06a47dd9c9cbbb, 0xadd7cf9f5a93e0e5),
    ("f198-k2-n53-m34", 0, 0x4aaaa0082d5c3832, 0x1d559fb53e7625e9),
    ("f199-k3-n33-m132", 118, 0x56af3e1007813040, 0x72c8934ee42cf570),
    ("f200-k4-n16-m151", 1, 0xab33925a7e4df185, 0x0c1876d27ddef6c5),
    ("f201-k2-n24-m17", 0, 0x802830c6ab14d1b2, 0xe33de75cab436a2f),
    ("f202-k3-n17-m65", 1, 0x5ce8b8807c885a19, 0xcd3ae405712bb6a5),
    ("f203-k4-n21-m220", 4, 0x36c1897c5abdb3c9, 0x63b0a74990f61beb),
    ("f204-k2-n55-m42", 0, 0x54a80e7da3f56e7a, 0x9238f57a216498b0),
    ("f205-k3-n12-m43", 1, 0x49f3b02f1b49cf8b, 0x9cfef4d2cfc52122),
    ("f206-k4-n56-m448", 325, 0xd27dcfc3e2ee91a8, 0xb12f8beb44e5df01),
    ("f207-k2-n16-m12", 0, 0x252857e43c392f9a, 0x5dcf4c8e486e9b42),
    ("f208-k3-n26-m87", 1, 0xe52108dffa1369e5, 0xd39904f690156be5),
    ("f209-k4-n50-m433", 290, 0x32129a8eaaabc6ac, 0x2b29e214b5e15ba6),
    ("f210-k2-n23-m33", 1, 0x414dce25e09b71ba, 0x994e8d0e77a08045),
    ("f211-k3-n9-m33", 6, 0x79892e57451a93e8, 0xcdc0524543339457),
    ("f212-k4-n45-m380", 358, 0x78f4ac36e8de2022, 0x263d2eb563a2721c),
    ("f213-k2-n17-m21", 0, 0x145643d2452f2dfe, 0x7cb9696990b1196e),
    ("f214-k3-n13-m54", 1, 0x890a8cf00789613a, 0xe1e503b66ec984e5),
    ("f215-k4-n52-m374", 329, 0xbb32be95583dca05, 0xd9696688f7a69c65),
    ("f216-k2-n19-m25", 0, 0xcec6f5df8757e4f9, 0x13db2e4014e54c2e),
    ("f217-k3-n42-m200", 1, 0x4ec2921867602281, 0xc8faa18810fb77a5),
    ("f218-k4-n34-m253", 174, 0xfc3b5d3aeb55a1be, 0x23ac36a8da00f02b),
    ("f219-k2-n53-m37", 0, 0xd5b4f91d95184731, 0xa7439d6ce28feff5),
    ("f220-k3-n51-m184", 1, 0x05e130ced0076341, 0x333824fef645f565),
    ("f221-k4-n19-m172", 1, 0x77a2b9a8f434d426, 0x2ee4f47e846dd665),
    ("f222-k2-n23-m32", 1, 0x0f4d72209ec08281, 0xa01ff306466854e5),
    ("f223-k3-n36-m140", 104, 0x57d80f2964b256d3, 0x2c12ce9700aa8f27),
    ("f224-k4-n10-m85", 1, 0xd501497165ef22d5, 0x7a057e187d8c3ba5),
    ("f225-k2-n38-m41", 1, 0xf3cb2ace340bd89e, 0x741bf8ec6b6358a5),
    ("f226-k3-n56-m264", 225, 0x4aa6facc04c8c77c, 0xb4e4a771eb286c98),
    ("f227-k4-n31-m291", 206, 0x64f73bcf77077fb1, 0x22ee376baf02215c),
    ("f228-k2-n46-m31", 0, 0xaf1d9c192b4056b9, 0xacde2a4a918833fc),
    ("f229-k3-n14-m49", 1, 0xa4042be26552110e, 0x2d8cee2b59bd7069),
    ("f230-k4-n4-m41", 1, 0xc4701df83a86e659, 0x077ac929134dd525),
    ("f231-k2-n55-m38", 0, 0x3702ca04cddb4d84, 0x8f8d5fddd4e19cc5),
    ("f232-k3-n16-m58", 40, 0xd6fe605c38420255, 0x678b8f5baa3d9c13),
    ("f233-k4-n53-m389", 291, 0x5c101a5a58e38f5e, 0x99245e37327ce186),
    ("f234-k2-n39-m40", 1, 0x34d22b742de2a0f1, 0x8afd5359d8931de5),
    ("f235-k3-n43-m176", 150, 0xa16a090fea277b22, 0x4a417237f4518562),
    ("f236-k4-n20-m193", 1, 0x8516cd195bddc357, 0x67c680053e0532e5),
    ("f237-k2-n59-m38", 0, 0xa4fb2edd8b63b2b5, 0x5df366edb31e5786),
    ("f238-k3-n47-m217", 192, 0x5c79fc3bae987dcf, 0x05ebe09f35530f35),
    ("f239-k4-n43-m391", 321, 0x5b19cc1a1ae7b419, 0xa26fda0228882d17),
    ("f240-k2-n46-m48", 0, 0x3d0e830d04513781, 0xeef0dc7f4701bcf4),
    ("f241-k3-n50-m158", 1, 0xa430d94bcd54e1a2, 0x6b739911e8e0031d),
    ("f242-k4-n42-m449", 1, 0x6b10f861639c1327, 0x8628aaee2990e4e5),
    ("f243-k2-n35-m17", 0, 0x267390903e2f0d10, 0x89f7af9ca5009076),
    ("f244-k3-n16-m60", 0, 0xf5680a44e9deb07e, 0x433b1963d5285848),
    ("f245-k4-n47-m510", 1, 0xb850ff1a672333b0, 0x7798eb96fbece9e5),
    ("f246-k2-n41-m25", 0, 0xce89e8f9fe6537a9, 0x274e0e5de1d6e5bc),
    ("f247-k3-n36-m122", 85, 0x15a552c3b047ee76, 0x0a76cbcd898b8952),
    ("f248-k4-n11-m97", 0, 0x7bb59d3d76690309, 0xe1f612b3308a1c65),
    ("f249-k2-n33-m39", 1, 0x8f5e5c9b9312762c, 0x521e32720e0393e5),
    ("f250-k3-n16-m58", 0, 0x72fad2aadce0f2f3, 0xcb18dd1892c16ced),
    ("f251-k4-n46-m372", 301, 0x15255c1c85f9bc83, 0x9abef0e0151ab4e8),
    ("f252-k2-n28-m32", 0, 0xf1db825b207690b2, 0xf770275cd220e0f9),
    ("f253-k3-n54-m192", 143, 0x25e53ec0eeb5c29d, 0x0a238de71e55a9b0),
    ("f254-k4-n31-m346", 1, 0xd41daa6f80777944, 0xc27d09bd35828d85),
    ("f255-k2-n41-m41", 0, 0x65af584c5873d811, 0xac78486050256648),
    ("f256-k3-n5-m21", 1, 0x6b2005cf09bf3e81, 0x10e7ff213b047625),
    ("f257-k4-n32-m348", 1, 0x97bf8ebabc589085, 0x77e0d7ae9a92dd25),
    ("f258-k2-n16-m22", 0, 0xd97ba3a5792ab3fd, 0xc9ad50c5f78a8d5f),
    ("f259-k3-n12-m40", 35, 0x1d3fd5b0dded1bf7, 0xba317e279ea7b757),
    ("f260-k4-n50-m355", 281, 0x4d9ea495105b0911, 0xe45789683c904238),
    ("f261-k2-n45-m52", 1, 0x73e72626b43df55c, 0xb399c6d20c1534e5),
    ("f262-k3-n40-m163", 1, 0xca1f632363bd8e37, 0x41b842f73386d95e),
    ("f263-k4-n24-m218", 134, 0x301bd83a8bc42a1d, 0x436bee63f0a9283d),
    ("f264-k2-n30-m28", 0, 0x480b1eeed36fe32a, 0xf41cc08f1eb2f8e6),
    ("f265-k3-n53-m183", 1, 0xfa141d582f730050, 0xb77fc4073bc7f887),
    ("f266-k4-n47-m381", 276, 0x4d1e6e6458be42d2, 0x86b42ab5a9a19a41),
    ("f267-k2-n51-m25", 0, 0x387bedb298d37a9d, 0x921d6adc74a9a0fc),
    ("f268-k3-n9-m45", 1, 0xdeedaa65e6d889c4, 0xef0b728a52f74ee5),
    ("f269-k4-n52-m538", 1, 0x4224e0bbb5817647, 0xf785484d7c42be2b),
    ("f270-k2-n52-m55", 0, 0x1f7a41804937cf04, 0x55d877e0a4cf9b1b),
    ("f271-k3-n47-m192", 168, 0x96423105603d6fb0, 0xa23811a56bd48e40),
    ("f272-k4-n39-m417", 1, 0x8cd2e8643a01b06a, 0x4068e59ec5dadb32),
    ("f273-k2-n39-m26", 0, 0x9f55a5eae60b557b, 0x64389ebd3133c422),
    ("f274-k3-n42-m163", 1, 0x9cf36ab3ecd1e3ca, 0x207560e50722ad25),
    ("f275-k4-n25-m240", 170, 0x4161712361b3f740, 0x685b66d0369ef46b),
    ("f276-k2-n21-m21", 0, 0xea0902124b6f941c, 0x282fc2dc251f36f5),
    ("f277-k3-n9-m35", 1, 0x28af176d124a23ba, 0xdcb3964d1f6bf125),
    ("f278-k4-n44-m438", 1, 0xefb8045b5bd64f71, 0x2a8059e05ca115e5),
    ("f279-k2-n60-m66", 0, 0x5541a14875c57489, 0xe3263abe32ee119f),
    ("f280-k3-n18-m60", 1, 0x7c29d4e110805ba8, 0x98c4b737b4e9e035),
    ("f281-k4-n14-m106", 27, 0xc4e5cb233a04c974, 0xfe2698aad2fbf0f9),
    ("f282-k2-n58-m36", 0, 0x97be19c50da8c9d9, 0x0e2e9aa4c4901714),
    ("f283-k3-n10-m42", 38, 0x974a6d06334cb139, 0x2fef9a8a434321cc),
    ("f284-k4-n46-m420", 1, 0x0577cab76cce21a1, 0x5e511ac77dcca475),
    ("f285-k2-n45-m48", 0, 0xf79d73c72a4f4723, 0x9d3cd8b3bb0e409b),
    ("f286-k3-n7-m32", 1, 0x558553752b18d018, 0x8c8f6012ef1cc825),
    ("f287-k4-n31-m310", 146, 0x2b04f20e9588bdb6, 0x6a9a6851c29ca95e),
    ("f288-k2-n16-m16", 0, 0x6b939e54f132a71a, 0xbc8fbe301dc89e0c),
    ("f289-k3-n25-m95", 1, 0xd1ffe46d9016ea9a, 0x88945df052966b30),
    ("f290-k4-n45-m407", 190, 0x7c5046421809e9b9, 0x1b120e54ddee52e4),
    ("f291-k2-n42-m46", 0, 0xc3876e6a5fa3dbd2, 0x0d61d4188be5f560),
    ("f292-k3-n27-m113", 1, 0x46075e59e841dae3, 0x346c1e76560e3865),
    ("f293-k4-n49-m370", 209, 0xf1b4fcd5875f7624, 0xea91aa98031e9856),
    ("f294-k2-n38-m47", 0, 0x54d7f0604ce00890, 0xd4d7f638d250b088),
    ("f295-k3-n20-m64", 38, 0x6c580a4ef27031c3, 0x633fd46cc3cfe6fe),
    ("f296-k4-n17-m131", 42, 0x9388735c616c0163, 0x77f44b97e931d1c3),
    ("f297-k2-n32-m35", 0, 0x9c0482da5f23bec6, 0x95c8aa5e88d397f7),
    ("f298-k3-n48-m184", 1, 0xd9f800a50b962436, 0xc76e51c722a32277),
    ("f299-k4-n25-m205", 17, 0x9c5b0fc56ed77057, 0x308de66ec6d63a48),
    ("no-vars", 0, 0x6aa1041b4a80c2ef, 0xe0c90f0ef278e9e5),
    ("no-clauses", 0, 0x44cc58a2c46e9cb3, 0x02806bdcc3624a65),
    ("empty-clause", 1, 0x3a2f93581213084e, 0xa0ee2f8964d534e5),
    ("only-empty-clause", 1, 0xc7f7903510a0662d, 0xfa77825bdff148a5),
    ("contradictory-units", 1, 0x3a2f93581213084e, 0xa0ee2f8964d534e5),
    ("contradictory-units-late", 1, 0xf60bfdd3b7e63124, 0xa0ee2f8964d534e5),
    ("unit-chain-into-falsified-unit", 1, 0x09bbafbfba56cd6b, 0x077ac929134dd525),
    ("duplicate-literals", 0, 0x61ea5fea1fc46a3a, 0x0709f78ee2e6fb55),
    ("duplicate-unit", 0, 0x3371b5633560656b, 0x32e37463e6e95e95),
    ("tautologies", 0, 0x174353ca86eb299d, 0xfda75d1ab5a1da25),
    ("wide-35", 0, 0x703dfc2419184617, 0xae5509deec64a155),
    ("wide-35-forced", 0, 0x2c7aa486313c369c, 0x7131634721053e9d),
    ("wide-35-refuted", 0, 0x910778c8866778d3, 0x7131634721053e9d),
];

#[test]
fn every_preprocess_and_cube_result_is_pinned() {
    let rows = all_rows();
    let listing: Vec<String> = rows
        .iter()
        .map(|(label, reduced, pre, cube)| {
            format!("    (\"{label}\", {reduced}, {pre:#018x}, {cube:#018x}),")
        })
        .collect();
    let got: Vec<(&str, usize, u64, u64)> =
        rows.iter().map(|(l, r, p, c)| (l.as_str(), *r, *p, *c)).collect();
    assert!(
        got == PINS,
        "preprocess or cube results drifted from their pins; this run read:\n{}",
        listing.join("\n")
    );
}
