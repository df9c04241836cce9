//! HMM golden: pinned digests of the GeLaTo/Ctrl-G task answers and of
//! the HMM kernels underneath them.
//!
//! The Table-I sequence workloads answer through two `reason-hmm` kernels:
//! `Hmm::constrained_decode` (the HMM×DFA product-space Viterbi, plus the
//! constrained forward pass it reports beside it) and `prune_transitions`
//! (expected transition usage from forward-backward). Every answer a task
//! reports is a constant of the repository, so this file pins FNV digests
//! of
//!
//! * `(correct, score bits, kernel_bytes)` of `run_task` for CommonGen,
//!   News and CoAuthor at both scales, pruning off and on, over the first
//!   ten task seeds `paper_lowering` draws at `--seed 42` and `--seed 7`
//!   plus 150 more;
//! * `constrained_decode`'s `best_sequence` and `best_log_prob` bits on
//!   random and pruned HMMs under keyword, prefix+keyword and avoid DFAs,
//!   satisfiable and not;
//! * `prune_transitions`'s `removed`, `remaining`, `bytes_after` and the
//!   pruned model's `log_trans` bits over a threshold sweep.
//!
//! `log_prob_satisfied` and `usage_removed` are sums whose rounding
//! depends on the evaluation order, so they are not pinned here; the
//! kernels' own tests hold them to a log-space reference.
//!
//! The digests were read before the kernels moved from log-space sums to
//! linear-domain ones. Like `dag_golden`, run it more than once.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use reason::hmm::sample::sample_sequence;
use reason::hmm::{prune_transitions, Dfa, Hmm};
use reason::workloads::models::ctrlg::prefix_and_keyword_dfa;
use reason::workloads::{model_for, Dataset, Scale, TaskSpec};

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
}

/// `paper_lowering`'s seed stream (`SplitMix64`), for its task seeds.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn fork(&self, label: u64) -> SplitMix64 {
        let mut child = SplitMix64(self.0 ^ label.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        child.next_u64();
        child
    }
}

/// The first `n` task seeds of a `paper_lowering` run at `seed`.
fn task_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = SplitMix64(seed).fork(0x9A9E);
    (0..n).map(|_| rng.next_u64() >> 16).collect()
}

/// One pinned row: `(label, items hashed, digest)`.
type Row = (String, usize, u64);

fn task_rows(rows: &mut Vec<Row>) {
    let mut seeds = task_seeds(42, 10);
    seeds.extend(task_seeds(7, 10));
    seeds.extend(0..150);
    for dataset in [Dataset::CommonGen, Dataset::News, Dataset::CoAuthor] {
        let model = model_for(dataset.workload());
        for scale in [Scale::Small, Scale::Large] {
            for optimized in [false, true] {
                let mut h = Fnv::new();
                for &seed in &seeds {
                    let r = model.run_task(&TaskSpec::new(dataset, scale, seed), optimized);
                    h.word(u64::from(r.correct));
                    h.word(r.score.to_bits());
                    h.word(r.kernel_bytes as u64);
                }
                let which = if optimized { "pruned" } else { "plain" };
                rows.push((format!("task/{}/{scale:?}/{which}", dataset.name()), seeds.len(), h.0));
            }
        }
    }
}

/// Calibration data drawn from the model itself, as the workloads do.
fn sampled(hmm: &Hmm, n: usize, len: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| sample_sequence(hmm, len, &mut rng).observations).collect()
}

/// The three DFA families the workloads and the example build, drawn at
/// random over `v` symbols.
fn dfas(v: usize, rng: &mut StdRng) -> Vec<(&'static str, Dfa)> {
    let mut word = |n: usize| -> Vec<usize> { (0..n).map(|_| rng.gen_range(0..v)).collect() };
    let kw1 = word(1);
    let kw2 = word(2);
    let kw3 = word(3);
    let prefix = word(2);
    let banned = word(1)[0];
    vec![
        ("kw1", Dfa::contains_keyword(&kw1, v)),
        ("kw3", Dfa::contains_keyword(&kw3, v)),
        ("prefix+kw", prefix_and_keyword_dfa(&prefix, &kw2, v)),
        ("avoid", Dfa::avoids_symbol(banned, v)),
    ]
}

fn decode_rows(rows: &mut Vec<Row>) {
    for (s, v, seed) in [(2usize, 3usize, 1u64), (4, 6, 2), (5, 8, 3), (7, 12, 4), (10, 14, 5)] {
        let base = Hmm::random(s, v, seed);
        let data = sampled(&base, 20, 12, seed ^ 0xD1CE);
        let pruned = prune_transitions(&base, &data, 0.012).hmm;
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31));
        for (kind, hmm) in [("random", &base), ("pruned", &pruned)] {
            for (name, dfa) in dfas(v, &mut rng) {
                let mut h = Fnv::new();
                let lens = [1usize, 2, 3, 5, 8, 13, 20];
                for len in lens {
                    let r = hmm.constrained_decode(&dfa, len);
                    h.word(r.best_sequence.len() as u64);
                    for &sym in &r.best_sequence {
                        h.word(sym as u64);
                    }
                    h.word(r.best_log_prob.to_bits());
                }
                rows.push((format!("decode/{s}x{v}-{seed}/{kind}/{name}"), lens.len(), h.0));
            }
        }
    }
}

fn prune_rows(rows: &mut Vec<Row>) {
    for (s, v, seed) in [(3usize, 4usize, 11u64), (5, 8, 12), (6, 8, 13), (8, 10, 14), (10, 14, 15)]
    {
        let hmm = Hmm::random(s, v, seed);
        for (n, len) in [(1usize, 2usize), (5, 9), (20, 20), (40, 64)] {
            let data = sampled(&hmm, n, len, seed.wrapping_add(n as u64));
            let mut h = Fnv::new();
            let thresholds = [0.0, 0.002, 0.005, 0.012, 0.02, 0.05, 0.2];
            for threshold in thresholds {
                let r = prune_transitions(&hmm, &data, threshold);
                for w in [r.removed, r.remaining, r.bytes_before, r.bytes_after] {
                    h.word(w as u64);
                }
                for lp in r.hmm.log_trans().iter().flatten() {
                    h.word(lp.to_bits());
                }
            }
            rows.push((format!("prune/{s}x{v}-{seed}/{n}x{len}"), thresholds.len(), h.0));
        }
    }
}

fn all_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    task_rows(&mut rows);
    decode_rows(&mut rows);
    prune_rows(&mut rows);
    rows
}

/// `(label, items, digest)`, read before the linear-domain rewrite.
const PINS: &[(&str, usize, u64)] = &[
    ("task/ComGen/Small/plain", 170, 0x2417f2d4b11a6493),
    ("task/ComGen/Small/pruned", 170, 0xcf066c2e87c756bd),
    ("task/ComGen/Large/plain", 170, 0x343012ef027fb511),
    ("task/ComGen/Large/pruned", 170, 0xc07b0b7ca40df77b),
    ("task/News/Small/plain", 170, 0xc7b8d7f15ed1c63d),
    ("task/News/Small/pruned", 170, 0x63f44ede11682b7a),
    ("task/News/Large/plain", 170, 0x90c5d8f8dc93473e),
    ("task/News/Large/pruned", 170, 0x7e63881b87233c66),
    ("task/CoAuthor/Small/plain", 170, 0xb7d9c1cdb1f1f3c1),
    ("task/CoAuthor/Small/pruned", 170, 0xe65b297e7664db41),
    ("task/CoAuthor/Large/plain", 170, 0xc648895912f14925),
    ("task/CoAuthor/Large/pruned", 170, 0xacb7ed4586f098f5),
    ("decode/2x3-1/random/kw1", 7, 0xdd80c402fd4664d9),
    ("decode/2x3-1/random/kw3", 7, 0x7980840b530266c1),
    ("decode/2x3-1/random/prefix+kw", 7, 0xa22bac3cd2d5e1f3),
    ("decode/2x3-1/random/avoid", 7, 0xefe2f9b31d66e948),
    ("decode/2x3-1/pruned/kw1", 7, 0x199b1e8b5ef4c787),
    ("decode/2x3-1/pruned/kw3", 7, 0xbb7996fd8895f917),
    ("decode/2x3-1/pruned/prefix+kw", 7, 0x8f9a0b7c51e4302d),
    ("decode/2x3-1/pruned/avoid", 7, 0xefe2f9b31d66e948),
    ("decode/4x6-2/random/kw1", 7, 0x517e42828c75d4ed),
    ("decode/4x6-2/random/kw3", 7, 0xe17085b780ba4ab4),
    ("decode/4x6-2/random/prefix+kw", 7, 0xeb43414fec779c0a),
    ("decode/4x6-2/random/avoid", 7, 0x517e42828c75d4ed),
    ("decode/4x6-2/pruned/kw1", 7, 0xc2474d4a1d3fb63e),
    ("decode/4x6-2/pruned/kw3", 7, 0x386c15a2658166b4),
    ("decode/4x6-2/pruned/prefix+kw", 7, 0xc3315f81d114b834),
    ("decode/4x6-2/pruned/avoid", 7, 0x517e42828c75d4ed),
    ("decode/5x8-3/random/kw1", 7, 0x7e0946c5293a4973),
    ("decode/5x8-3/random/kw3", 7, 0xe96c435f8c0ec0b0),
    ("decode/5x8-3/random/prefix+kw", 7, 0x1f93ee983f573adf),
    ("decode/5x8-3/random/avoid", 7, 0x87435711f8859bf5),
    ("decode/5x8-3/pruned/kw1", 7, 0x24aa64ce26233240),
    ("decode/5x8-3/pruned/kw3", 7, 0x6eeacc79bdc4e14b),
    ("decode/5x8-3/pruned/prefix+kw", 7, 0x9a5631f278c7c300),
    ("decode/5x8-3/pruned/avoid", 7, 0x86f64921586862f9),
    ("decode/7x12-4/random/kw1", 7, 0x0f160601ed657553),
    ("decode/7x12-4/random/kw3", 7, 0x923d347ca8c59581),
    ("decode/7x12-4/random/prefix+kw", 7, 0x57ffdc897ccba571),
    ("decode/7x12-4/random/avoid", 7, 0xa78e42153e2c82fa),
    ("decode/7x12-4/pruned/kw1", 7, 0x4d6fdecdb7aa329f),
    ("decode/7x12-4/pruned/kw3", 7, 0x82c05819007529bd),
    ("decode/7x12-4/pruned/prefix+kw", 7, 0xbd57a8a72de3e495),
    ("decode/7x12-4/pruned/avoid", 7, 0x5bce9a6bee661a62),
    ("decode/10x14-5/random/kw1", 7, 0x55cf3cd239eaebd8),
    ("decode/10x14-5/random/kw3", 7, 0x593031923f2ce92e),
    ("decode/10x14-5/random/prefix+kw", 7, 0xa97825a39419e397),
    ("decode/10x14-5/random/avoid", 7, 0xbdeb10f69b6adc15),
    ("decode/10x14-5/pruned/kw1", 7, 0x68eefd8bdf117c0e),
    ("decode/10x14-5/pruned/kw3", 7, 0x848311dd7f1f5f4b),
    ("decode/10x14-5/pruned/prefix+kw", 7, 0xf8f4259d9ca43f2c),
    ("decode/10x14-5/pruned/avoid", 7, 0x7ba943149133a529),
    ("prune/3x4-11/1x2", 7, 0xea371768ee809c46),
    ("prune/3x4-11/5x9", 7, 0x70c345f42ad5bdd2),
    ("prune/3x4-11/20x20", 7, 0x298e7d6621712b81),
    ("prune/3x4-11/40x64", 7, 0x298e7d6621712b81),
    ("prune/5x8-12/1x2", 7, 0x3ecf2d772ec1d853),
    ("prune/5x8-12/5x9", 7, 0xc935c08b857523bb),
    ("prune/5x8-12/20x20", 7, 0x230a7f90eb6c6057),
    ("prune/5x8-12/40x64", 7, 0x6120913268a06e57),
    ("prune/6x8-13/1x2", 7, 0xab3b2ee485b8d3e5),
    ("prune/6x8-13/5x9", 7, 0x479f872fdeb1f153),
    ("prune/6x8-13/20x20", 7, 0xecada09eee37f78f),
    ("prune/6x8-13/40x64", 7, 0x08111e3346f5df8f),
    ("prune/8x10-14/1x2", 7, 0xbfca106b7dedf4ad),
    ("prune/8x10-14/5x9", 7, 0xc69490d04be2bc78),
    ("prune/8x10-14/20x20", 7, 0x24ccc4346e1815d8),
    ("prune/8x10-14/40x64", 7, 0x868b4e1742f4c0dd),
    ("prune/10x14-15/1x2", 7, 0xf8813aaae881a646),
    ("prune/10x14-15/5x9", 7, 0xcb26cb7a2f48d267),
    ("prune/10x14-15/20x20", 7, 0x00125df89bfd90d4),
    ("prune/10x14-15/40x64", 7, 0xd194bea3951b8112),
];

#[test]
fn every_hmm_answer_is_pinned() {
    let rows = all_rows();
    let listing: Vec<String> = rows
        .iter()
        .map(|(label, items, digest)| format!("    (\"{label}\", {items}, {digest:#018x}),"))
        .collect();
    let got: Vec<(&str, usize, u64)> = rows.iter().map(|(l, n, d)| (l.as_str(), *n, *d)).collect();
    assert!(
        got == PINS,
        "HMM digests drifted from their pins; this run read:\n{}",
        listing.join("\n")
    );
}
