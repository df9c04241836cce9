//! DAG golden: pinned digests of every unified DAG the paper path builds.
//!
//! The three front ends (`dag_from_circuit`, `dag_from_hmm`,
//! `dag_from_cnf`), `regularize` and every `KernelSource` arm of
//! `ReasonPipeline::compile` under each `PipelineConfig` are
//! deterministic, so the exact DAG each emits for a fixed kernel is a
//! constant of the repository: node order, ops (constants by bits),
//! provenance kinds, children, the output and `num_inputs`. The pipeline
//! rows fold in the reported `before`/`after` shapes and the pruning
//! report as well. The digests were read before the DAG moved to a flat
//! arena, so a representation change that reorders, merges or retypes a
//! node fails here instead of shifting `sim_cycles` downstream.
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
    NodeId, NodeKind, OptimizedKernel, PipelineConfig, ReasonPipeline,
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
    let p = kernel.stats.prune;
    for w in [p.bytes_before, p.bytes_after, p.elements_removed] {
        h.word(w as u64);
    }
    (label, kernel.dag.num_nodes(), h.0)
}

/// The four stage switches, in row order.
fn configs() -> [(&'static str, PipelineConfig); 4] {
    let cfg = |prune, regularize| PipelineConfig { prune, regularize };
    [
        ("prune+reg", cfg(true, true)),
        ("prune", cfg(true, false)),
        ("reg", cfg(false, true)),
        ("none", cfg(false, false)),
    ]
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

/// A deterministic calibration set: `rows` vectors of values below
/// `bound(i)`.
fn calibration(
    rows: usize,
    len: usize,
    bound: impl Fn(usize) -> usize,
    seed: u64,
) -> Vec<Vec<usize>> {
    let mut rng = SplitMix64(seed);
    (0..rows)
        .map(|_| (0..len).map(|i| (rng.next_u64() % bound(i) as u64) as usize).collect())
        .collect()
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
    let one = b.product(vec![]);
    let p = b.product(vec![t, one]);
    let q = b.product(vec![f, one]);
    let root = b.sum(vec![p, q], vec![0.4, 0.6]);
    b.build(root).expect("smooth and decomposable")
}

fn circuit_rows(label: &str, circuit: &Circuit, rows: &mut Vec<Row>) {
    let (raw, _) = dag_from_circuit(circuit);
    rows.push(dag_row(format!("{label}/raw"), &raw));
    rows.push(dag_row(format!("{label}/regular"), &regularize(&raw)));
    let arities = circuit.arities().to_vec();
    let data = calibration(16, arities.len(), |i| arities[i], 0xC0FFEE);
    for (which, config) in configs() {
        let pipeline = ReasonPipeline::with_config(config);
        let kernel = pipeline.compile(KernelSource::Pc(circuit)).expect("compiles");
        rows.push(kernel_row(format!("{label}/Pc/{which}"), &kernel));
        let source = KernelSource::PcWithData { circuit, data: &data, prune_fraction: 0.3 };
        let kernel = pipeline.compile(source).expect("compiles");
        rows.push(kernel_row(format!("{label}/PcWithData/{which}"), &kernel));
    }
}

fn hmm_rows(label: &str, hmm: &Hmm, rows: &mut Vec<Row>) {
    let len = 16;
    let (raw, _) = dag_from_hmm(hmm, len);
    rows.push(dag_row(format!("{label}/raw"), &raw));
    rows.push(dag_row(format!("{label}/regular"), &regularize(&raw)));
    let symbols = hmm.num_symbols();
    let data = calibration(6, len, |_| symbols, 0xBEEF);
    for (which, config) in configs() {
        let pipeline = ReasonPipeline::with_config(config);
        let kernel = pipeline.compile(KernelSource::Hmm { hmm, len }).expect("compiles");
        rows.push(kernel_row(format!("{label}/Hmm/{which}"), &kernel));
        let source = KernelSource::HmmWithData { hmm, len, data: &data, usage_threshold: 0.02 };
        let kernel = pipeline.compile(source).expect("compiles");
        rows.push(kernel_row(format!("{label}/HmmWithData/{which}"), &kernel));
    }
}

fn cnf_rows(label: &str, cnf: &Cnf, rows: &mut Vec<Row>) {
    let (raw, _) = dag_from_cnf(cnf);
    rows.push(dag_row(format!("{label}/raw"), &raw));
    rows.push(dag_row(format!("{label}/regular"), &regularize(&raw)));
    for (which, config) in configs() {
        let kernel = ReasonPipeline::with_config(config).compile(KernelSource::Sat(cnf));
        rows.push(kernel_row(format!("{label}/Sat/{which}"), &kernel.expect("compiles")));
    }
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

/// `(label, nodes, digest)`, read before the arena rewrite.
const PINS: &[(&str, usize, u64)] = &[
    ("pc-3/raw", 5314, 0x3ab454e615aaf092),
    ("pc-3/regular", 5465, 0x2f1820f42b7d034a),
    ("pc-3/Pc/prune+reg", 5465, 0x82806484c59f1043),
    ("pc-3/PcWithData/prune+reg", 3512, 0x068f28142461b34b),
    ("pc-3/Pc/prune", 5314, 0x5786e7c49855c15a),
    ("pc-3/PcWithData/prune", 3446, 0xd84222ac41b7d7aa),
    ("pc-3/Pc/reg", 5465, 0x82806484c59f1043),
    ("pc-3/PcWithData/reg", 5465, 0x82806484c59f1043),
    ("pc-3/Pc/none", 5314, 0x5786e7c49855c15a),
    ("pc-3/PcWithData/none", 5314, 0x5786e7c49855c15a),
    ("pc-17/raw", 5314, 0x44ddef8d32ed0f6f),
    ("pc-17/regular", 5465, 0xe1fba2b0a493e8bf),
    ("pc-17/Pc/prune+reg", 5465, 0x5a1f4884d02380da),
    ("pc-17/PcWithData/prune+reg", 3544, 0xabdd24c96451b96d),
    ("pc-17/Pc/prune", 5314, 0xa55c4d5167b5824f),
    ("pc-17/PcWithData/prune", 3478, 0x54696e90e1d9ccec),
    ("pc-17/Pc/reg", 5465, 0x5a1f4884d02380da),
    ("pc-17/PcWithData/reg", 5465, 0x5a1f4884d02380da),
    ("pc-17/Pc/none", 5314, 0xa55c4d5167b5824f),
    ("pc-17/PcWithData/none", 5314, 0xa55c4d5167b5824f),
    ("hmm-7-5/raw", 2201, 0x8ed78021c2b5ec39),
    ("hmm-7-5/regular", 3403, 0xa607140ba38e4a74),
    ("hmm-7-5/Hmm/prune+reg", 3403, 0x38383aa931bf8f62),
    ("hmm-7-5/HmmWithData/prune+reg", 3125, 0xb48c08074686467a),
    ("hmm-7-5/Hmm/prune", 2201, 0x512b162f8afac97d),
    ("hmm-7-5/HmmWithData/prune", 1923, 0x1151f4d9fd16d3a9),
    ("hmm-7-5/Hmm/reg", 3403, 0x38383aa931bf8f62),
    ("hmm-7-5/HmmWithData/reg", 3403, 0x38383aa931bf8f62),
    ("hmm-7-5/Hmm/none", 2201, 0x512b162f8afac97d),
    ("hmm-7-5/HmmWithData/none", 2201, 0x512b162f8afac97d),
    ("hmm-9-11/raw", 3081, 0xfcbf0c4028ed98f5),
    ("hmm-9-11/regular", 4897, 0x0f27d0a24aa2c799),
    ("hmm-9-11/Hmm/prune+reg", 4897, 0x0d489afbf821f768),
    ("hmm-9-11/HmmWithData/prune+reg", 3667, 0xa720e4336975e0f2),
    ("hmm-9-11/Hmm/prune", 3081, 0x8c406ada0ab5ff59),
    ("hmm-9-11/HmmWithData/prune", 2061, 0xf8dee742090c9dbf),
    ("hmm-9-11/Hmm/reg", 4897, 0x0d489afbf821f768),
    ("hmm-9-11/HmmWithData/reg", 4897, 0x0d489afbf821f768),
    ("hmm-9-11/Hmm/none", 3081, 0x8c406ada0ab5ff59),
    ("hmm-9-11/HmmWithData/none", 3081, 0x8c406ada0ab5ff59),
    ("served-12-2/raw", 170, 0x5b1e5b71f78b75b8),
    ("served-12-2/regular", 215, 0x060ce7c87a384046),
    ("served-12-2/Pc/prune+reg", 215, 0x0d3520e2f7392123),
    ("served-12-2/PcWithData/prune+reg", 101, 0x5637b76609eaa97b),
    ("served-12-2/Pc/prune", 170, 0xdda72859dcf15508),
    ("served-12-2/PcWithData/prune", 94, 0x8fa940d98ecfc670),
    ("served-12-2/Pc/reg", 215, 0x0d3520e2f7392123),
    ("served-12-2/PcWithData/reg", 215, 0x0d3520e2f7392123),
    ("served-12-2/Pc/none", 170, 0xdda72859dcf15508),
    ("served-12-2/PcWithData/none", 170, 0xdda72859dcf15508),
    ("served-15-9/raw", 394, 0x98bf60ba20edd31d),
    ("served-15-9/regular", 547, 0x47ab9af57ab8a356),
    ("served-15-9/Pc/prune+reg", 547, 0xb7a6b9b198a9d754),
    ("served-15-9/PcWithData/prune+reg", 289, 0xca6a4db2ec819172),
    ("served-15-9/Pc/prune", 394, 0xf465468c97a033dd),
    ("served-15-9/PcWithData/prune", 231, 0xd92486b48ff1b88d),
    ("served-15-9/Pc/reg", 547, 0xb7a6b9b198a9d754),
    ("served-15-9/PcWithData/reg", 547, 0xb7a6b9b198a9d754),
    ("served-15-9/Pc/none", 394, 0xf465468c97a033dd),
    ("served-15-9/PcWithData/none", 394, 0xf465468c97a033dd),
    ("task0-pc/raw", 5314, 0x8837c58c80984dd8),
    ("task0-pc/regular", 5465, 0xaad31d805463de34),
    ("task0-pc/Pc/prune+reg", 5465, 0x8ec9d1dc2a133d45),
    ("task0-pc/PcWithData/prune+reg", 3480, 0x41eec27ed485a241),
    ("task0-pc/Pc/prune", 5314, 0x4d1b4613fd425300),
    ("task0-pc/PcWithData/prune", 3413, 0x65a489ef84296d30),
    ("task0-pc/Pc/reg", 5465, 0x8ec9d1dc2a133d45),
    ("task0-pc/PcWithData/reg", 5465, 0x8ec9d1dc2a133d45),
    ("task0-pc/Pc/none", 5314, 0x4d1b4613fd425300),
    ("task0-pc/PcWithData/none", 5314, 0x4d1b4613fd425300),
    ("task0-hmm-7/raw", 2201, 0xa99aec0768f0a349),
    ("task0-hmm-7/regular", 3403, 0xd49eeebb9afc4d8c),
    ("task0-hmm-7/Hmm/prune+reg", 3403, 0x85af326991dfbbda),
    ("task0-hmm-7/HmmWithData/prune+reg", 3157, 0x563d93f8296a136c),
    ("task0-hmm-7/Hmm/prune", 2201, 0xcda6703c858b404d),
    ("task0-hmm-7/HmmWithData/prune", 1955, 0xde912e2bb2d591b5),
    ("task0-hmm-7/Hmm/reg", 3403, 0x85af326991dfbbda),
    ("task0-hmm-7/HmmWithData/reg", 3403, 0x85af326991dfbbda),
    ("task0-hmm-7/Hmm/none", 2201, 0xcda6703c858b404d),
    ("task0-hmm-7/HmmWithData/none", 2201, 0xcda6703c858b404d),
    ("task0-hmm-9/raw", 3081, 0xd40f0703a1ab86bc),
    ("task0-hmm-9/regular", 4897, 0xb4cfd81a71646008),
    ("task0-hmm-9/Hmm/prune+reg", 4897, 0x188199721d12d59d),
    ("task0-hmm-9/HmmWithData/prune+reg", 3820, 0x0e2db1ede578bc57),
    ("task0-hmm-9/Hmm/prune", 3081, 0x1ad958a8d441fde0),
    ("task0-hmm-9/HmmWithData/prune", 2109, 0xf27b7274de34d36d),
    ("task0-hmm-9/Hmm/reg", 4897, 0x188199721d12d59d),
    ("task0-hmm-9/HmmWithData/reg", 4897, 0x188199721d12d59d),
    ("task0-hmm-9/Hmm/none", 3081, 0x1ad958a8d441fde0),
    ("task0-hmm-9/HmmWithData/none", 3081, 0x1ad958a8d441fde0),
    ("task1-pc/raw", 5314, 0x2f9db1c7802cbb0d),
    ("task1-pc/regular", 5465, 0x5b3e55050fb38fb9),
    ("task1-pc/Pc/prune+reg", 5465, 0x2b40cce68a759eac),
    ("task1-pc/PcWithData/prune+reg", 3512, 0xe097c9174ed09855),
    ("task1-pc/Pc/prune", 5314, 0x3c9f197e55293c3d),
    ("task1-pc/PcWithData/prune", 3445, 0x77e2370348615024),
    ("task1-pc/Pc/reg", 5465, 0x2b40cce68a759eac),
    ("task1-pc/PcWithData/reg", 5465, 0x2b40cce68a759eac),
    ("task1-pc/Pc/none", 5314, 0x3c9f197e55293c3d),
    ("task1-pc/PcWithData/none", 5314, 0x3c9f197e55293c3d),
    ("task1-hmm-7/raw", 2201, 0xae0078d740cbb0fd),
    ("task1-hmm-7/regular", 3403, 0xd8d2b598f6e60d60),
    ("task1-hmm-7/Hmm/prune+reg", 3403, 0xe7093d26d79bfd0e),
    ("task1-hmm-7/HmmWithData/prune+reg", 3077, 0x46a215eba21be4ed),
    ("task1-hmm-7/Hmm/prune", 2201, 0x75c47d74ecffe9e1),
    ("task1-hmm-7/HmmWithData/prune", 1875, 0x822ed9f4024360e3),
    ("task1-hmm-7/Hmm/reg", 3403, 0xe7093d26d79bfd0e),
    ("task1-hmm-7/HmmWithData/reg", 3403, 0xe7093d26d79bfd0e),
    ("task1-hmm-7/Hmm/none", 2201, 0x75c47d74ecffe9e1),
    ("task1-hmm-7/HmmWithData/none", 2201, 0x75c47d74ecffe9e1),
    ("task1-hmm-9/raw", 3081, 0x0eae13cfb01a6ce4),
    ("task1-hmm-9/regular", 4897, 0x78754823b3660274),
    ("task1-hmm-9/Hmm/prune+reg", 4897, 0x71b8b577f18975a1),
    ("task1-hmm-9/HmmWithData/prune+reg", 3547, 0xed3fda725979cf00),
    ("task1-hmm-9/Hmm/prune", 3081, 0xd58007ba7027bae8),
    ("task1-hmm-9/HmmWithData/prune", 2046, 0xb5d5980e4eab0b01),
    ("task1-hmm-9/Hmm/reg", 4897, 0x71b8b577f18975a1),
    ("task1-hmm-9/HmmWithData/reg", 4897, 0x71b8b577f18975a1),
    ("task1-hmm-9/Hmm/none", 3081, 0xd58007ba7027bae8),
    ("task1-hmm-9/HmmWithData/none", 3081, 0xd58007ba7027bae8),
    ("task2-pc/raw", 5314, 0x9aba795b2fbb0faf),
    ("task2-pc/regular", 5465, 0xcd9ca53cfeb5d723),
    ("task2-pc/Pc/prune+reg", 5465, 0x86736a54cedd824e),
    ("task2-pc/PcWithData/prune+reg", 3520, 0x70d3ec376f25d1ae),
    ("task2-pc/Pc/prune", 5314, 0xc9fa467d1420d98f),
    ("task2-pc/PcWithData/prune", 3452, 0xd9db9001e6fc341d),
    ("task2-pc/Pc/reg", 5465, 0x86736a54cedd824e),
    ("task2-pc/PcWithData/reg", 5465, 0x86736a54cedd824e),
    ("task2-pc/Pc/none", 5314, 0xc9fa467d1420d98f),
    ("task2-pc/PcWithData/none", 5314, 0xc9fa467d1420d98f),
    ("task2-hmm-7/raw", 2201, 0x1f40de8148f82412),
    ("task2-hmm-7/regular", 3403, 0xc86686859af9b1f7),
    ("task2-hmm-7/Hmm/prune+reg", 3403, 0x86f50c1dbb6f8bad),
    ("task2-hmm-7/HmmWithData/prune+reg", 3141, 0x22dcf3c535ae3d90),
    ("task2-hmm-7/Hmm/prune", 2201, 0x27a05f57c341c3c6),
    ("task2-hmm-7/HmmWithData/prune", 1939, 0x2f3820daa49b7c85),
    ("task2-hmm-7/Hmm/reg", 3403, 0x86f50c1dbb6f8bad),
    ("task2-hmm-7/HmmWithData/reg", 3403, 0x86f50c1dbb6f8bad),
    ("task2-hmm-7/Hmm/none", 2201, 0x27a05f57c341c3c6),
    ("task2-hmm-7/HmmWithData/none", 2201, 0x27a05f57c341c3c6),
    ("task2-hmm-9/raw", 3081, 0x3fd5555a925e5d11),
    ("task2-hmm-9/regular", 4897, 0x196e3480392dfc9d),
    ("task2-hmm-9/Hmm/prune+reg", 4897, 0xc9eda0e31bc78224),
    ("task2-hmm-9/HmmWithData/prune+reg", 3836, 0xd65876cd54daacd8),
    ("task2-hmm-9/Hmm/prune", 3081, 0xa815dae8f1968ac5),
    ("task2-hmm-9/HmmWithData/prune", 2125, 0x418cf990947264af),
    ("task2-hmm-9/Hmm/reg", 4897, 0xc9eda0e31bc78224),
    ("task2-hmm-9/HmmWithData/reg", 4897, 0xc9eda0e31bc78224),
    ("task2-hmm-9/Hmm/none", 3081, 0xa815dae8f1968ac5),
    ("task2-hmm-9/HmmWithData/none", 3081, 0xa815dae8f1968ac5),
    ("empty-product/raw", 10, 0xf681c9f6f4b090ad),
    ("empty-product/regular", 10, 0xf681c9f6f4b090ad),
    ("empty-product/Pc/prune+reg", 10, 0xa31d79b58d9771cd),
    ("empty-product/PcWithData/prune+reg", 10, 0x48ecf71b087b83cd),
    ("empty-product/Pc/prune", 10, 0xa31d79b58d9771cd),
    ("empty-product/PcWithData/prune", 10, 0x48ecf71b087b83cd),
    ("empty-product/Pc/reg", 10, 0xa31d79b58d9771cd),
    ("empty-product/PcWithData/reg", 10, 0xa31d79b58d9771cd),
    ("empty-product/Pc/none", 10, 0xa31d79b58d9771cd),
    ("empty-product/PcWithData/none", 10, 0xa31d79b58d9771cd),
    ("planted-12-2/raw", 61, 0xc25b8b0054f08754),
    ("planted-12-2/regular", 131, 0x5c71580b264f0d20),
    ("planted-12-2/Sat/prune+reg", 131, 0x7ac6f1f0ffb2d011),
    ("planted-12-2/Sat/prune", 61, 0x9e3147afa03035c4),
    ("planted-12-2/Sat/reg", 131, 0x136a4853948282d1),
    ("planted-12-2/Sat/none", 61, 0x058df14d0b608304),
    ("random-10-7/raw", 63, 0x3bbeaac21c8ac6ea),
    ("random-10-7/regular", 145, 0x495db778cd1fb476),
    ("random-10-7/Sat/prune+reg", 145, 0x175cd3543f444983),
    ("random-10-7/Sat/prune", 63, 0x2d4948771741f936),
    ("random-10-7/Sat/reg", 145, 0x331a8226b4ac72c3),
    ("random-10-7/Sat/none", 63, 0x65095c3e51268836),
    ("empty-cnf/raw", 4, 0xbc04a992e4d46cfa),
    ("empty-cnf/regular", 1, 0xdd20a74ce3eec433),
    ("empty-cnf/Sat/prune+reg", 1, 0xf0ccde22d58b9c26),
    ("empty-cnf/Sat/prune", 4, 0xb1994c73a50557fa),
    ("empty-cnf/Sat/reg", 1, 0xf0ccde22d58b9c26),
    ("empty-cnf/Sat/none", 4, 0xb1994c73a50557fa),
    ("empty-clause/raw", 9, 0xe0e71699442a5d87),
    ("empty-clause/regular", 10, 0xf9e2cb5d77f4602f),
    ("empty-clause/Sat/prune+reg", 2, 0x97581b00503ccea7),
    ("empty-clause/Sat/prune", 5, 0x6ed6b28fd52dc8da),
    ("empty-clause/Sat/reg", 10, 0x26894d5637c579e1),
    ("empty-clause/Sat/none", 9, 0xc88bd8e7385bc0e7),
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
