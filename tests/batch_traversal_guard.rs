//! Counts-not-clocks guard for the batched arena traversal.
//!
//! The batched kernels walk the node table once per *tile* of distinct
//! evidence columns, whatever the mix of query kinds, against a value
//! table that is `slots × TILE` whatever the batch width (`slots`: the
//! arena's peak number of live node values, a node's slot being reused
//! once its last reader has run). Both are properties a wall clock only
//! shows on a quiet machine, so they are pinned here as counts read off
//! [`BatchBuffer`]:
//!
//! 1. **walks** — a mixed probability + marginal batch costs
//!    `⌈distinct columns / TILE⌉` sum-product walks (not one walk for
//!    the probabilities plus three per queried variable), and
//!    `marginal_batch` over `L` distinct lanes costs `⌈3L / TILE⌉`;
//! 2. **bytes** — after a 256-lane call on a tall arena the buffer
//!    holds at most `nodes × (TILE × 12 + 8)` bytes (an `f64` value and
//!    a `u32` argmax per node·lane of one tile, plus one `u64` lane mask
//!    per node), and exactly what its slot table needs: an `f64` value
//!    and a `u64` mask per slot·lane and per slot, beside the
//!    node-indexed `u32` argmax table;
//! 3. **lanes computed** — the sum-product walk counts a node·lane as
//!    computed only where the lane's evidence observes a variable in the
//!    node's scope. A node no lane observes copies its stored
//!    empty-evidence value; a partly observed leaf, And or Or node
//!    computes its whole tile, and its other lanes recompute that empty
//!    value to the same bits without being counted. So a batch of
//!    empty-evidence lanes computes no node·lane at all, and lanes
//!    observing only variable `v` compute exactly the nodes whose scope
//!    holds `v`, counted here from the source circuit.

use std::collections::HashSet;

use reason::pc::{
    compile_cnf, BatchBuffer, Circuit, Dnnf, DnnfBatch, Evidence, PcNode, WmcWeights,
};
use reason::sat::gen::random_ksat;

/// `reason-pc`'s lane-tile width. The constant is private to the
/// kernels; the walk counts below fail if it drifts from this value.
const TILE: usize = 64;

fn circuit(n: usize, clauses: usize, seed: u64) -> Circuit {
    let cnf = random_ksat(n, clauses, 3, seed);
    compile_cnf(&cnf, &WmcWeights::uniform(n)).expect("instance carries mass")
}

fn arena(n: usize, clauses: usize, seed: u64) -> Dnnf {
    Dnnf::from_circuit(&circuit(n, clauses, seed)).expect("compiled formulas are binary")
}

/// `count` pairwise-distinct evidence lanes: lane `k` spells `k` in
/// base 3 (marginalized / 0 / 1) over the variables from `first` up.
fn distinct_lanes(n: usize, first: usize, count: usize) -> Vec<Evidence> {
    (0..count)
        .map(|k| {
            let mut ev = Evidence::empty(n);
            let mut rest = k;
            for var in first..n {
                if rest % 3 > 0 {
                    ev.set(var, rest % 3 - 1);
                }
                rest /= 3;
            }
            ev
        })
        .collect()
}

#[test]
fn a_mixed_batch_walks_once_per_tile_of_distinct_columns() {
    let n = 12;
    let arena = arena(n, 30, 2);
    let lanes = distinct_lanes(n, 0, 140);
    let (probabilities, conditioned) = lanes.split_at(100);
    let probabilities: Vec<&Evidence> = probabilities.iter().collect();
    // 40 marginal lanes asking about 8 different variables.
    let marginals: Vec<(&Evidence, usize)> =
        conditioned.iter().enumerate().map(|(k, ev)| (ev, k % 8)).collect();

    // The distinct columns, counted independently of the packer.
    let column = |ev: &Evidence, set: Option<(usize, Option<usize>)>| {
        let mut column: Vec<Option<usize>> = (0..n).map(|v| ev.value(v)).collect();
        if let Some((var, code)) = set {
            column[var] = code;
        }
        column
    };
    let mut distinct: HashSet<Vec<Option<usize>>> =
        probabilities.iter().map(|ev| column(ev, None)).collect();
    for &(ev, var) in &marginals {
        distinct.extend([None, Some(0), Some(1)].map(|code| column(ev, Some((var, code)))));
    }
    assert!(distinct.len() > 2 * TILE, "the batch must span several tiles");

    let mut buf = BatchBuffer::new();
    let (ps, dists, _) = arena.query_batch(&probabilities, &marginals, &[], &mut buf);
    assert_eq!((ps.len(), dists.len()), (100, 40));
    assert_eq!(
        buf.walks(),
        distinct.len().div_ceil(TILE) as u64,
        "one sum-product walk per tile of {} distinct columns, not 1 + 3 x 8 variables",
        distinct.len()
    );
}

#[test]
fn marginal_batch_walks_once_per_tile_of_triplet_columns() {
    let n = 12;
    let arena = arena(n, 30, 2);
    for lanes in [1, 21, 22, 100] {
        // Variable 0 is left free, so no two triplets share a column.
        let batch = DnnfBatch::pack(&distinct_lanes(n, 1, lanes));
        let mut buf = BatchBuffer::new();
        arena.marginal_batch(&batch, 0, &mut buf);
        assert_eq!(buf.walks(), (3 * lanes).div_ceil(TILE) as u64, "{lanes} lanes");
    }
}

#[test]
fn the_scratch_tables_are_bounded_by_one_tile_however_wide_the_batch() {
    let n = 32;
    let arena = arena(n, 70, 5);
    assert!(arena.num_nodes() > 1_000, "a tall arena: {} nodes", arena.num_nodes());
    let batch = DnnfBatch::pack(&distinct_lanes(n, 0, 256));
    assert_eq!(batch.distinct_lanes(), 256);
    let mut buf = BatchBuffer::new();
    arena.wmc_batch(&batch, &mut buf);
    arena.marginal_batch(&batch, 7, &mut buf);
    arena.mpe_batch(&batch, &mut buf);
    assert_eq!(buf.walks(), (4 + 12 + 4) as u64);
    let bound = arena.num_nodes() * (TILE * 12 + 8);
    assert!(
        buf.slab_bytes() <= bound,
        "{} slab bytes held after 256-lane calls on {} nodes; one tile is {bound}",
        buf.slab_bytes(),
        arena.num_nodes()
    );
    // 204 live slots × (64 f64 values + one u64 mask) + 2,802 nodes × 64
    // u32 argmaxes; 2,174,352 bytes when every node had a chunk.
    assert_eq!(arena.num_nodes(), 2_802);
    assert_eq!(buf.slab_bytes(), 204 * (TILE * 8 + 8) + 2_802 * TILE * 4);
}

#[test]
fn lanes_compute_only_the_nodes_their_evidence_reaches() {
    let n = 16;
    let circuit = circuit(n, 40, 3);
    let arena = Dnnf::from_circuit(&circuit).expect("compiled formulas are binary");

    // A full tile of empty-evidence probability lanes: every node
    // copies `empty`.
    let empty = vec![Evidence::empty(n); TILE];
    let refs: Vec<&Evidence> = empty.iter().collect();
    let mut buf = BatchBuffer::new();
    arena.query_batch(&refs, &[], &[], &mut buf);
    assert_eq!((buf.walks(), buf.lanes_computed()), (1, 0), "empty evidence computes nothing");

    for v in [0, 7, n - 1] {
        // The nodes whose scope holds `v`, from the source circuit.
        let mut reaches: Vec<bool> = Vec::with_capacity(circuit.num_nodes());
        for node in circuit.nodes() {
            let hit = match node {
                PcNode::Indicator { var, .. } | PcNode::Categorical { var, .. } => var == v,
                _ => node.children().iter().any(|c| reaches[c.index()]),
            };
            reaches.push(hit);
        }
        let scope = reaches.iter().filter(|&&r| r).count() as u64;
        assert!(0 < scope && scope < circuit.num_nodes() as u64, "v = {v}: {scope} nodes");

        // 100 query lanes observing only `v`: two distinct columns.
        let lanes: Vec<Evidence> = (0..100)
            .map(|k| {
                let mut ev = Evidence::empty(n);
                ev.set(v, k % 2);
                ev
            })
            .collect();
        let batch = DnnfBatch::pack(&lanes);
        let mut buf = BatchBuffer::new();
        arena.wmc_batch(&batch, &mut buf);
        assert_eq!(
            buf.lanes_computed(),
            batch.distinct_lanes() as u64 * scope,
            "v = {v}: {} distinct lanes × {scope} nodes whose scope holds v",
            batch.distinct_lanes()
        );
    }
}
