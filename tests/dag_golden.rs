//! DAG golden: pinned digests of every unified DAG the paper path builds.
//!
//! The three front ends (`dag_from_circuit`, `dag_from_hmm`,
//! `dag_from_cnf`), `regularize` and every `KernelSource` arm of
//! `ReasonPipeline::compile` are deterministic, so the exact DAG each
//! emits for a fixed kernel is a constant of the repository: node order,
//! ops (constants by bits), provenance kinds, children, the output and
//! `num_inputs`. The pipeline rows fold in the reported `before`/`after`
//! shapes as well. The digests were read before the DAG moved to a flat
//! arena, so a representation change that reorders, merges or retypes a
//! node fails here instead of shifting `sim_cycles` downstream.
//!
//! `ReasonPipeline` once had a pruning stage and two stage switches; each
//! pipeline row keeps, unchanged, the pin it read with pruning off and
//! regularization on (`…/reg`). On a `Sat` kernel that is the proof that
//! the pipeline lowers the formula it is given, not the preprocessor's
//! equisatisfiable reduction.
//!
//! The kernels are `lowering_golden.rs`'s (the 12-variable mixture
//! circuits, the 16-step HMMs, two served formula circuits) plus the
//! first task seeds `paper_lowering` draws at `--seed 42`, and a set of
//! hash-consing edge cases the builder must keep:
//!
//! * `Const(0.0)` and `Const(-0.0)` are two nodes: CSE keys on bits;
//! * the kind is not part of the key, so the first interned node's wins;
//! * `input()` bumps `num_inputs` on a hit as on a miss;
//! * `without_cse` never merges;
//! * a one-child `Add`, `Mul[x, x]`, an output that is an `Input`, the
//!   empty product (`Const(1.0)`), an empty CNF and an empty clause;
//! * dead nodes are dropped by `regularize`, which keeps `num_inputs`.
//!
//! Like `compile_golden`, run it more than once: a digest that leaned on
//! a `HashMap`'s iteration order would flap between runs.

use reason::core::{
    dag_from_circuit, dag_from_cnf, dag_from_hmm, regularize, Dag, DagBuilder, DagOp, KernelSource,
    NodeId, NodeKind, OptimizedKernel, ReasonPipeline,
};
use reason::hmm::Hmm;
use reason::pc::{
    compile_cnf, random_mixture_circuit, Circuit, CircuitBuilder, StructureConfig, WmcWeights,
};
use reason::sat::gen::{planted_ksat, random_ksat};
use reason::sat::{Clause, Cnf};

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

fn kind_tag(kind: NodeKind) -> u64 {
    match kind {
        NodeKind::Literal => 0,
        NodeKind::Clause => 1,
        NodeKind::Formula => 2,
        NodeKind::Sum => 3,
        NodeKind::Product => 4,
        NodeKind::Leaf => 5,
        NodeKind::Transition => 6,
        NodeKind::Emission => 7,
        NodeKind::Generic => 8,
    }
}

/// Every node (op tag, `Input` slot, `Const` bits, kind, children), the
/// output and `num_inputs`, in node order.
fn dag_digest(h: &mut Fnv, dag: &Dag) {
    h.word(dag.num_nodes() as u64);
    for i in 0..dag.num_nodes() {
        let node = dag.node(NodeId::from_index(i));
        match node.op {
            DagOp::Input(slot) => {
                h.word(0);
                h.word(u64::from(slot));
            }
            DagOp::Const(c) => {
                h.word(1);
                h.word(c.to_bits());
            }
            DagOp::Add => h.word(2),
            DagOp::Mul => h.word(3),
            DagOp::Max => h.word(4),
            DagOp::Not => h.word(5),
        }
        h.word(kind_tag(node.kind));
        h.word(node.children.len() as u64);
        for c in node.children.iter() {
            h.word(c.index() as u64);
        }
    }
    h.word(dag.output().index() as u64);
    h.word(dag.num_inputs() as u64);
}

/// `DagBuilder::node` over a borrowed child list; `into()` hands the
/// slice over in whatever form the builder takes its children.
#[allow(clippy::useless_conversion)]
fn node(b: &mut DagBuilder, op: DagOp, children: &[NodeId], kind: NodeKind) -> NodeId {
    b.node(op, children.into(), kind)
}

/// One pinned row: `(label, nodes, digest)`.
type Row = (String, usize, u64);

fn dag_row(label: String, dag: &Dag) -> Row {
    let mut h = Fnv::new();
    dag_digest(&mut h, dag);
    (label, dag.num_nodes(), h.0)
}

fn kernel_row(label: String, kernel: &OptimizedKernel) -> Row {
    let mut h = Fnv::new();
    dag_digest(&mut h, &kernel.dag);
    for s in [kernel.stats.before, kernel.stats.after] {
        for w in [s.nodes, s.edges, s.inputs, s.depth, s.max_fan_in, s.footprint_bytes] {
            h.word(w as u64);
        }
    }
    // Three zero words where the pins hashed the pruning report (bytes
    // before, bytes after, elements removed), which was all zeros for
    // every unpruned run, so the pins carry over.
    for _ in 0..3 {
        h.word(0);
    }
    (label, kernel.dag.num_nodes(), h.0)
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

fn mixture(seed: u64) -> Circuit {
    random_mixture_circuit(&StructureConfig { num_vars: 12, depth: 4, num_components: 3, seed })
}

fn served(n: usize, seed: u64) -> Circuit {
    let cnf = planted_ksat(n, n + 24, 3, seed);
    let weights = WmcWeights::new((0..n).map(|v| 0.3 + 0.4 * v as f64 / n as f64).collect());
    compile_cnf(&cnf, &weights).expect("planted formulas have mass")
}

/// `0.4·[X0 = 1]·1 + 0.6·[X0 = 0]·1`, the `1` an explicit empty product.
fn empty_product_circuit() -> Circuit {
    let mut b = CircuitBuilder::new(vec![2]);
    let t = b.indicator(0, 1);
    let f = b.indicator(0, 0);
    let one = b.product(&[]);
    let p = b.product(&[t, one]);
    let q = b.product(&[f, one]);
    let root = b.sum(&[p, q], &[0.4, 0.6]);
    b.build(root).expect("smooth and decomposable")
}

fn circuit_rows(label: &str, circuit: &Circuit, rows: &mut Vec<Row>) {
    let (raw, _) = dag_from_circuit(circuit);
    rows.push(dag_row(format!("{label}/raw"), &raw));
    rows.push(dag_row(format!("{label}/regular"), &regularize(&raw)));
    let kernel = ReasonPipeline::new().compile(KernelSource::Pc(circuit)).expect("compiles");
    rows.push(kernel_row(format!("{label}/Pc/reg"), &kernel));
}

fn hmm_rows(label: &str, hmm: &Hmm, rows: &mut Vec<Row>) {
    let len = 16;
    let (raw, _) = dag_from_hmm(hmm, len);
    rows.push(dag_row(format!("{label}/raw"), &raw));
    rows.push(dag_row(format!("{label}/regular"), &regularize(&raw)));
    let kernel = ReasonPipeline::new().compile(KernelSource::Hmm { hmm, len }).expect("compiles");
    rows.push(kernel_row(format!("{label}/Hmm/reg"), &kernel));
}

fn cnf_rows(label: &str, cnf: &Cnf, rows: &mut Vec<Row>) {
    let (raw, _) = dag_from_cnf(cnf);
    rows.push(dag_row(format!("{label}/raw"), &raw));
    rows.push(dag_row(format!("{label}/regular"), &regularize(&raw)));
    let kernel = ReasonPipeline::new().compile(KernelSource::Sat(cnf)).expect("compiles");
    rows.push(kernel_row(format!("{label}/Sat/reg"), &kernel));
}

/// A DAG and its regularization.
fn edge_rows(label: &str, dag: &Dag, rows: &mut Vec<Row>) {
    rows.push(dag_row(format!("{label}/raw"), dag));
    rows.push(dag_row(format!("{label}/regular"), &regularize(dag)));
}

/// The builder-level edge cases, each with the structural fact it pins.
fn edge_cases(rows: &mut Vec<Row>) {
    // Signed zeros are two constants.
    let mut b = DagBuilder::new();
    let x = b.input(0);
    let zero = b.constant(0.0);
    let neg_zero = b.constant(-0.0);
    assert_ne!(zero, neg_zero, "CSE keys constants on bits");
    assert_eq!(b.constant(0.0), zero);
    assert_eq!(b.constant(-0.0), neg_zero);
    let sum = node(&mut b, DagOp::Add, &[x, zero, neg_zero], NodeKind::Generic);
    edge_rows("signed-zeros", &b.build(sum).unwrap(), rows);

    // The first interned node's kind wins; inputs are `Generic` even when
    // re-requested through `node`.
    let mut b = DagBuilder::new();
    let x = b.input(0);
    let lit = node(&mut b, DagOp::Not, &[x], NodeKind::Literal);
    assert_eq!(node(&mut b, DagOp::Not, &[x], NodeKind::Clause), lit);
    assert_eq!(node(&mut b, DagOp::Input(0), &[], NodeKind::Leaf), x);
    let c = b.constant(0.5);
    assert_eq!(node(&mut b, DagOp::Const(0.5), &[], NodeKind::Emission), c);
    let or = node(&mut b, DagOp::Max, &[lit, c], NodeKind::Clause);
    assert_eq!(node(&mut b, DagOp::Max, &[lit, c], NodeKind::Formula), or);
    assert_ne!(node(&mut b, DagOp::Max, &[c, lit], NodeKind::Clause), or, "child order is key");
    assert_ne!(node(&mut b, DagOp::Add, &[lit, c], NodeKind::Clause), or, "op is key");
    let dag = b.build(or).unwrap();
    assert_eq!(dag.node(lit).kind, NodeKind::Literal);
    assert_eq!(dag.node(x).kind, NodeKind::Generic);
    edge_rows("first-kind-wins", &dag, rows);

    // `input()` bumps `num_inputs` on a hit as on a miss.
    let mut b = DagBuilder::new();
    let x3 = b.input(3);
    assert_eq!(b.input(3), x3);
    let x1 = b.input(1);
    assert_eq!(b.input(1), x1);
    assert_eq!(b.len(), 2);
    let mul = node(&mut b, DagOp::Mul, &[x1, x3], NodeKind::Generic);
    let dag = b.build(mul).unwrap();
    assert_eq!(dag.num_inputs(), 4);
    edge_rows("input-hits", &dag, rows);

    // `without_cse` never merges.
    let mut b = DagBuilder::without_cse();
    let x = b.input(0);
    let y = b.input(0);
    let c1 = b.constant(1.0);
    let c2 = b.constant(1.0);
    let n1 = node(&mut b, DagOp::Not, &[x], NodeKind::Generic);
    let n2 = node(&mut b, DagOp::Not, &[x], NodeKind::Generic);
    let all = node(&mut b, DagOp::Add, &[x, y, c1, c2, n1, n2], NodeKind::Generic);
    assert_eq!(b.len(), 7);
    edge_rows("without-cse", &b.build(all).unwrap(), rows);

    // One-child `Add`, `Mul[x, x]`, and a wide node over them.
    let mut b = DagBuilder::new();
    let x = b.input(0);
    let one = node(&mut b, DagOp::Add, &[x], NodeKind::Sum);
    let square = node(&mut b, DagOp::Mul, &[x, x], NodeKind::Product);
    let wide = node(&mut b, DagOp::Max, &[one, square, x, one], NodeKind::Clause);
    edge_rows("one-child-and-square", &b.build(wide).unwrap(), rows);

    // The output is an `Input`.
    let mut b = DagBuilder::new();
    let _ = b.input(0);
    let x2 = b.input(2);
    edge_rows("output-is-input", &b.build(x2).unwrap(), rows);

    // Dead nodes, among them the largest input slot and a wide node whose
    // balanced tree would be dead too.
    let mut b = DagBuilder::without_cse();
    let x = b.input(0);
    let y = b.input(1);
    let _dead_input = b.input(7);
    let _dead_not = node(&mut b, DagOp::Not, &[x], NodeKind::Generic);
    let _dead_wide = node(&mut b, DagOp::Add, &[x, y, x, y, x], NodeKind::Sum);
    let live = node(&mut b, DagOp::Not, &[y], NodeKind::Literal);
    let _dead_after = node(&mut b, DagOp::Mul, &[live, x], NodeKind::Generic);
    let dag = b.build(live).unwrap();
    let reg = regularize(&dag);
    assert_eq!(reg.num_nodes(), 2, "only y and Not(y) are live");
    assert_eq!(reg.num_inputs(), 8, "regularization keeps the input universe");
    edge_rows("dead-nodes", &dag, rows);
}

fn all_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for seed in [3u64, 17] {
        circuit_rows(&format!("pc-{seed}"), &mixture(seed), &mut rows);
    }
    for (states, seed) in [(7usize, 5u64), (9, 11)] {
        hmm_rows(&format!("hmm-{states}-{seed}"), &Hmm::random(states, 8, seed), &mut rows);
    }
    for (n, seed) in [(12usize, 2u64), (15, 9)] {
        circuit_rows(&format!("served-{n}-{seed}"), &served(n, seed), &mut rows);
    }
    // `paper_lowering`'s circuit and HMM kernels for its first task seeds.
    for (i, seed) in task_seeds(42, 3).into_iter().enumerate() {
        circuit_rows(&format!("task{i}-pc"), &mixture(seed), &mut rows);
        for states in [7usize, 9] {
            hmm_rows(&format!("task{i}-hmm-{states}"), &Hmm::random(states, 8, seed), &mut rows);
        }
    }
    circuit_rows("empty-product", &empty_product_circuit(), &mut rows);
    cnf_rows("planted-12-2", &planted_ksat(12, 36, 3, 2), &mut rows);
    cnf_rows("random-10-7", &random_ksat(10, 42, 3, 7), &mut rows);
    cnf_rows("empty-cnf", &Cnf::new(3), &mut rows);
    let mut with_empty_clause = Cnf::from_clauses(3, vec![vec![1, -2], vec![-1, 3]]);
    with_empty_clause.add_clause(Clause::new(vec![]));
    cnf_rows("empty-clause", &with_empty_clause, &mut rows);
    edge_cases(&mut rows);
    rows
}

/// `(label, nodes, digest)`, read before the arena rewrite. A pipeline
/// row keeps the label and pin of the removed configuration it equals
/// (`reg`: pruning off, regularization on).
const PINS: &[(&str, usize, u64)] = &[
    ("pc-3/raw", 5314, 0x3ab454e615aaf092),
    ("pc-3/regular", 5465, 0x2f1820f42b7d034a),
    ("pc-3/Pc/reg", 5465, 0x82806484c59f1043),
    ("pc-17/raw", 5314, 0x44ddef8d32ed0f6f),
    ("pc-17/regular", 5465, 0xe1fba2b0a493e8bf),
    ("pc-17/Pc/reg", 5465, 0x5a1f4884d02380da),
    ("hmm-7-5/raw", 2201, 0x8ed78021c2b5ec39),
    ("hmm-7-5/regular", 3403, 0xa607140ba38e4a74),
    ("hmm-7-5/Hmm/reg", 3403, 0x38383aa931bf8f62),
    ("hmm-9-11/raw", 3081, 0xfcbf0c4028ed98f5),
    ("hmm-9-11/regular", 4897, 0x0f27d0a24aa2c799),
    ("hmm-9-11/Hmm/reg", 4897, 0x0d489afbf821f768),
    ("served-12-2/raw", 170, 0x5b1e5b71f78b75b8),
    ("served-12-2/regular", 215, 0x060ce7c87a384046),
    ("served-12-2/Pc/reg", 215, 0x0d3520e2f7392123),
    ("served-15-9/raw", 394, 0x98bf60ba20edd31d),
    ("served-15-9/regular", 547, 0x47ab9af57ab8a356),
    ("served-15-9/Pc/reg", 547, 0xb7a6b9b198a9d754),
    ("task0-pc/raw", 5314, 0x8837c58c80984dd8),
    ("task0-pc/regular", 5465, 0xaad31d805463de34),
    ("task0-pc/Pc/reg", 5465, 0x8ec9d1dc2a133d45),
    ("task0-hmm-7/raw", 2201, 0xa99aec0768f0a349),
    ("task0-hmm-7/regular", 3403, 0xd49eeebb9afc4d8c),
    ("task0-hmm-7/Hmm/reg", 3403, 0x85af326991dfbbda),
    ("task0-hmm-9/raw", 3081, 0xd40f0703a1ab86bc),
    ("task0-hmm-9/regular", 4897, 0xb4cfd81a71646008),
    ("task0-hmm-9/Hmm/reg", 4897, 0x188199721d12d59d),
    ("task1-pc/raw", 5314, 0x2f9db1c7802cbb0d),
    ("task1-pc/regular", 5465, 0x5b3e55050fb38fb9),
    ("task1-pc/Pc/reg", 5465, 0x2b40cce68a759eac),
    ("task1-hmm-7/raw", 2201, 0xae0078d740cbb0fd),
    ("task1-hmm-7/regular", 3403, 0xd8d2b598f6e60d60),
    ("task1-hmm-7/Hmm/reg", 3403, 0xe7093d26d79bfd0e),
    ("task1-hmm-9/raw", 3081, 0x0eae13cfb01a6ce4),
    ("task1-hmm-9/regular", 4897, 0x78754823b3660274),
    ("task1-hmm-9/Hmm/reg", 4897, 0x71b8b577f18975a1),
    ("task2-pc/raw", 5314, 0x9aba795b2fbb0faf),
    ("task2-pc/regular", 5465, 0xcd9ca53cfeb5d723),
    ("task2-pc/Pc/reg", 5465, 0x86736a54cedd824e),
    ("task2-hmm-7/raw", 2201, 0x1f40de8148f82412),
    ("task2-hmm-7/regular", 3403, 0xc86686859af9b1f7),
    ("task2-hmm-7/Hmm/reg", 3403, 0x86f50c1dbb6f8bad),
    ("task2-hmm-9/raw", 3081, 0x3fd5555a925e5d11),
    ("task2-hmm-9/regular", 4897, 0x196e3480392dfc9d),
    ("task2-hmm-9/Hmm/reg", 4897, 0xc9eda0e31bc78224),
    ("empty-product/raw", 10, 0xf681c9f6f4b090ad),
    ("empty-product/regular", 10, 0xf681c9f6f4b090ad),
    ("empty-product/Pc/reg", 10, 0xa31d79b58d9771cd),
    ("planted-12-2/raw", 61, 0xc25b8b0054f08754),
    ("planted-12-2/regular", 131, 0x5c71580b264f0d20),
    ("planted-12-2/Sat/reg", 131, 0x136a4853948282d1),
    ("random-10-7/raw", 63, 0x3bbeaac21c8ac6ea),
    ("random-10-7/regular", 145, 0x495db778cd1fb476),
    ("random-10-7/Sat/reg", 145, 0x331a8226b4ac72c3),
    ("empty-cnf/raw", 4, 0xbc04a992e4d46cfa),
    ("empty-cnf/regular", 1, 0xdd20a74ce3eec433),
    ("empty-cnf/Sat/reg", 1, 0xf0ccde22d58b9c26),
    ("empty-clause/raw", 9, 0xe0e71699442a5d87),
    ("empty-clause/regular", 10, 0xf9e2cb5d77f4602f),
    ("empty-clause/Sat/reg", 10, 0x26894d5637c579e1),
    ("signed-zeros/raw", 4, 0xd8b9f446dd83d221),
    ("signed-zeros/regular", 5, 0x27d2b370fe42144d),
    ("first-kind-wins/raw", 6, 0x430ea71217f811f7),
    ("first-kind-wins/regular", 4, 0xded9b4f8e25cc5af),
    ("input-hits/raw", 3, 0xdda6aa12f1a4490a),
    ("input-hits/regular", 3, 0xdda6aa12f1a4490a),
    ("without-cse/raw", 7, 0x0be0bd0c7e2b2888),
    ("without-cse/regular", 11, 0x5243608a8176769c),
    ("one-child-and-square/raw", 4, 0x04c6f53a0373afad),
    ("one-child-and-square/regular", 6, 0x721be7f914e4e268),
    ("output-is-input/raw", 2, 0xa5706ecfa0d893a7),
    ("output-is-input/regular", 1, 0xb93bbfe4621779cd),
    ("dead-nodes/raw", 7, 0xab4d5003a2fff1a0),
    ("dead-nodes/regular", 2, 0x13447d74b126f823),
];

#[test]
fn every_dag_is_pinned() {
    let rows = all_rows();
    let listing: Vec<String> = rows
        .iter()
        .map(|(label, nodes, digest)| format!("    (\"{label}\", {nodes}, {digest:#018x}),"))
        .collect();
    let got: Vec<(&str, usize, u64)> = rows.iter().map(|(l, n, d)| (l.as_str(), *n, *d)).collect();
    assert!(
        got == PINS,
        "DAG digests drifted from their pins; this run read:\n{}",
        listing.join("\n")
    );
}
