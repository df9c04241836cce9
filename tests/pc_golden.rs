//! PC golden: pinned digests of the circuit task answers and of the
//! `reason-pc` kernels underneath them.
//!
//! The Table-I circuit workloads answer through the log-space `Circuit`
//! evaluator and flow pruning: R²-Guard (TwinSafety, XSTest) compiles its
//! rules and reads `Circuit::probability`, NeuroPC (AwA2) classifies with
//! `Circuit::marginal`, and both prune with `prune_by_flow` when asked.
//! Every answer is a constant of the repository, so this file pins FNV
//! digests of
//!
//! * `(correct, score bits, kernel_bytes)` of `run_task` for AwA2,
//!   TwinSafety and XSTest at both scales, pruning off and on, over the
//!   first ten task seeds `paper_lowering` draws at `--seed 42` and
//!   `--seed 7` plus 150 more;
//! * `prune_by_flow`'s `edges_removed`, `nodes_removed`, `bytes_after`
//!   and the pruned circuit's nodes, children and log-weight bits on
//!   seeded random mixtures over a fraction sweep;
//! * `Circuit::{probability, marginal, mpe}` bits on those mixtures, their
//!   pruned versions and a few compiled formulas, under seeded evidence.
//!
//! `log_likelihood_bound` is a sum of flows whose rounding depends on the
//! evaluation order, so it is not pinned here; the kernels' own tests
//! check it. Like `dag_golden`, run it more than once.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use reason::pc::{
    compile_cnf, prune_by_flow, random_mixture_circuit, sample, Circuit, Evidence, PcNode,
    StructureConfig, WmcWeights,
};
use reason::sat::gen::planted_ksat;
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

    fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
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
    for dataset in [Dataset::AwA2, Dataset::TwinSafety, Dataset::XsTest] {
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

/// The seeded random mixtures the prune and query rows read.
fn mixtures() -> Vec<(String, Circuit)> {
    [(4usize, 2usize, 2usize, 1u64), (6, 3, 2, 2), (8, 3, 3, 3), (10, 4, 2, 4), (12, 4, 3, 5)]
        .into_iter()
        .map(|(num_vars, depth, num_components, seed)| {
            let config = StructureConfig { num_vars, depth, num_components, seed };
            (
                format!("{num_vars}v{depth}d{num_components}c-{seed}"),
                random_mixture_circuit(&config),
            )
        })
        .collect()
}

/// `n` samples of the circuit, as the workloads' calibration data.
fn sampled(circuit: &Circuit, n: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| sample(circuit, &mut rng)).collect()
}

/// Every node's kind, variable, value, children and log-parameter bits.
fn hash_circuit(h: &mut Fnv, circuit: &Circuit) {
    h.word(circuit.num_nodes() as u64);
    h.word(circuit.root().index() as u64);
    for node in circuit.nodes() {
        match node {
            PcNode::Sum { log_weights, .. } => {
                h.word(0);
                h.floats(log_weights);
            }
            PcNode::Product { .. } => h.word(1),
            PcNode::Indicator { var, value } => {
                h.word(2);
                h.word(var as u64);
                h.word(value as u64);
            }
            PcNode::Categorical { var, log_probs } => {
                h.word(3);
                h.word(var as u64);
                h.floats(log_probs);
            }
        }
        h.word(node.children().len() as u64);
        for c in node.children() {
            h.word(c.index() as u64);
        }
    }
}

const FRACTIONS: [f64; 6] = [0.0, 0.05, 0.15, 0.3, 0.6, 1.0];

fn prune_rows(rows: &mut Vec<Row>) {
    for (name, circuit) in mixtures() {
        for n in [1usize, 8, 64] {
            let data = sampled(&circuit, n, n as u64 * 101);
            let mut h = Fnv::new();
            for fraction in FRACTIONS {
                let r = prune_by_flow(&circuit, &data, fraction);
                for w in [r.edges_removed, r.nodes_removed, r.bytes_before, r.bytes_after] {
                    h.word(w as u64);
                }
                hash_circuit(&mut h, &r.circuit);
            }
            rows.push((format!("prune/{name}/{n}"), FRACTIONS.len(), h.0));
        }
    }
}

/// Seeded evidence over `num_vars` binary variables: about half observed.
fn evidence(num_vars: usize, rng: &mut StdRng) -> Evidence {
    let values: Vec<Option<usize>> =
        (0..num_vars).map(|_| rng.gen_bool(0.5).then(|| rng.gen_range(0..2))).collect();
    Evidence::from_values(&values)
}

/// `probability`, every variable's `marginal` and `mpe` under 12 seeded
/// evidences plus the empty one.
fn query_row(rows: &mut Vec<Row>, label: String, circuit: &Circuit, seed: u64) {
    let n = circuit.num_vars();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut evs = vec![Evidence::empty(n)];
    evs.extend((0..12).map(|_| evidence(n, &mut rng)));
    let mut h = Fnv::new();
    for ev in &evs {
        h.word(circuit.probability(ev).to_bits());
        for var in 0..n {
            h.floats(&circuit.marginal(ev, var));
        }
        let mpe = circuit.mpe(ev);
        for &v in &mpe.assignment {
            h.word(v as u64);
        }
        h.word(mpe.log_prob.to_bits());
    }
    rows.push((label, evs.len(), h.0));
}

fn query_rows(rows: &mut Vec<Row>) {
    for (i, (name, circuit)) in mixtures().into_iter().enumerate() {
        let seed = 0xE71D + i as u64;
        query_row(rows, format!("query/{name}/plain"), &circuit, seed);
        let data = sampled(&circuit, 16, seed);
        let pruned = prune_by_flow(&circuit, &data, 0.3).circuit;
        query_row(rows, format!("query/{name}/pruned"), &pruned, seed);
    }
    for (num_vars, num_clauses, seed) in [(6usize, 10usize, 21u64), (10, 30, 22), (14, 50, 23)] {
        let cnf = planted_ksat(num_vars, num_clauses, 3, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let probs: Vec<f64> = (0..num_vars).map(|_| rng.gen_range(0.05..0.95)).collect();
        let circuit = compile_cnf(&cnf, &WmcWeights::new(probs)).expect("planted formulas hold");
        query_row(rows, format!("query/cnf{num_vars}x{num_clauses}-{seed}"), &circuit, seed);
    }
}

fn all_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    task_rows(&mut rows);
    prune_rows(&mut rows);
    query_rows(&mut rows);
    rows
}

/// `(label, items, digest)`, read before the compiler and the `Circuit`
/// evaluator lost their test-only options.
const PINS: &[(&str, usize, u64)] = &[
    ("task/AwA2/Small/plain", 170, 0x135a6b8837b383dc),
    ("task/AwA2/Small/pruned", 170, 0x4fdaf3165263f5f9),
    ("task/AwA2/Large/plain", 170, 0x5a142d47fe06a11a),
    ("task/AwA2/Large/pruned", 170, 0x6a634e13e3484949),
    ("task/TwinS/Small/plain", 170, 0x99786cae9dd80b4f),
    ("task/TwinS/Small/pruned", 170, 0xcae464abfc47ee04),
    ("task/TwinS/Large/plain", 170, 0xf2623a5004ee85c9),
    ("task/TwinS/Large/pruned", 170, 0xccbf823da7ae0a59),
    ("task/XSTest/Small/plain", 170, 0x99786cae9dd80b4f),
    ("task/XSTest/Small/pruned", 170, 0xcae464abfc47ee04),
    ("task/XSTest/Large/plain", 170, 0xf2623a5004ee85c9),
    ("task/XSTest/Large/pruned", 170, 0xccbf823da7ae0a59),
    ("prune/4v2d2c-1/1", 6, 0xe42dad078c9e405b),
    ("prune/4v2d2c-1/8", 6, 0xe42dad078c9e405b),
    ("prune/4v2d2c-1/64", 6, 0x3c139ef3e397b152),
    ("prune/6v3d2c-2/1", 6, 0xb1de439056bf9d2d),
    ("prune/6v3d2c-2/8", 6, 0x38d4a0df1f3e32df),
    ("prune/6v3d2c-2/64", 6, 0x6cddf851cc738b60),
    ("prune/8v3d3c-3/1", 6, 0x4103c868ab227f50),
    ("prune/8v3d3c-3/8", 6, 0x7be4b895d54d907f),
    ("prune/8v3d3c-3/64", 6, 0xcb4fe9a70cfe48ff),
    ("prune/10v4d2c-4/1", 6, 0x08f1d0419f8ce4b0),
    ("prune/10v4d2c-4/8", 6, 0x9a994f2618072772),
    ("prune/10v4d2c-4/64", 6, 0x513e0f85bbb2cd52),
    ("prune/12v4d3c-5/1", 6, 0x7ec5eb4c0e293153),
    ("prune/12v4d3c-5/8", 6, 0x889f2999d5771100),
    ("prune/12v4d3c-5/64", 6, 0xc0f5c5ae2473e956),
    ("query/4v2d2c-1/plain", 13, 0xa7e5887661fb8a77),
    ("query/4v2d2c-1/pruned", 13, 0x45255d536d5b0b70),
    ("query/6v3d2c-2/plain", 13, 0xf9b0bfba0d90b45c),
    ("query/6v3d2c-2/pruned", 13, 0xebd7297f81540c5c),
    ("query/8v3d3c-3/plain", 13, 0x231dc36fc8ccf565),
    ("query/8v3d3c-3/pruned", 13, 0xc62e1fb01089fe59),
    ("query/10v4d2c-4/plain", 13, 0xfe708d01b5c369f7),
    ("query/10v4d2c-4/pruned", 13, 0x3e74fb8466be4928),
    ("query/12v4d3c-5/plain", 13, 0x5d1e2ef732c6b1cf),
    ("query/12v4d3c-5/pruned", 13, 0xc1e19f04631f523a),
    ("query/cnf6x10-21", 13, 0x8b6a380f2e207bf3),
    ("query/cnf10x30-22", 13, 0x7404ceb71963baf1),
    ("query/cnf14x50-23", 13, 0x3a7115fe9196218b),
];

#[test]
fn every_pc_answer_is_pinned() {
    let rows = all_rows();
    let listing: Vec<String> = rows
        .iter()
        .map(|(label, items, digest)| format!("    (\"{label}\", {items}, {digest:#018x}),"))
        .collect();
    let got: Vec<(&str, usize, u64)> = rows.iter().map(|(l, n, d)| (l.as_str(), *n, *d)).collect();
    assert!(
        got == PINS,
        "PC digests drifted from their pins; this run read:\n{}",
        listing.join("\n")
    );
}
