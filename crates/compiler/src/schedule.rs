//! Step 4: pipeline-aware reordering (paper Fig. 7 "Step 5: Reordering").
//!
//! "Dependent operations are spaced by at least one full pipeline
//! interval, while independent ones are interleaved." The list scheduler
//! below greedily picks, among ready blocks, the one whose most recent
//! producer was scheduled longest ago — maximizing the slack available to
//! hide the tree pipeline latency.
//!
//! # Selection key
//!
//! At every step the ready block with the largest slack `now - t` issues,
//! where `t` is the issue slot of its latest producer; a block with no
//! producer has infinite slack, and ties go to the lowest block index.
//! `now` is the same for every candidate and `t` is fixed from the moment
//! a block becomes ready (all its producers have issued by then), so the
//! choice is the minimum of `(t, block index)` with producer-less blocks
//! first — a key that never changes while a block waits. The ready set is
//! therefore a binary heap on that key, and the schedule costs
//! O(E + B log B) for B blocks and E block-level dependency edges instead
//! of a scan of the whole ready set per issue.
//!
//! The dependency edges are one CSR table (each block's consumers are a
//! range of one flat array), built by a counting pass and a fill pass over
//! the blocks in index order, so every consumer list is in increasing
//! block order and the schedule allocates a fixed number of arrays.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::blocks::BlockDecomposition;
use crate::csr::Csr;

/// Orders the blocks of `decomposition` for issue.
///
/// With `pipeline_aware == false` the natural topological order is
/// returned (the paper's scheduling ablation); otherwise a slack-greedy
/// list schedule.
pub fn schedule_blocks(decomposition: &BlockDecomposition, pipeline_aware: bool) -> Vec<usize> {
    let n = decomposition.num_blocks();
    if !pipeline_aware || n <= 1 {
        return (0..n).collect();
    }

    // Block-level dependency edges: block b waits for the producer blocks
    // of its operands, each counted once.
    // feeds[p] == b once the edge p -> b has been recorded in this pass.
    let mut feeds = vec![usize::MAX; n];
    let consumers = Csr::build(n, |edge| {
        feeds.fill(usize::MAX);
        for b in 0..n {
            for &op in decomposition.operands(b) {
                if let Some(producer) = decomposition.block_of(op) {
                    if producer != b && std::mem::replace(&mut feeds[producer], b) != b {
                        edge(producer, b);
                    }
                }
            }
        }
    });
    let mut pending = vec![0u32; n];
    for &c in consumers.values() {
        pending[c as usize] += 1;
    }

    // Min-heap on (issue slot of the latest producer, block index);
    // `None` (no producer) orders before every `Some`.
    let mut ready: BinaryHeap<Reverse<(Option<usize>, usize)>> = BinaryHeap::with_capacity(n);
    ready.extend((0..n).filter(|&b| pending[b] == 0).map(|b| Reverse((None, b))));
    let mut order: Vec<usize> = Vec::with_capacity(n);
    while let Some(Reverse((_, b))) = ready.pop() {
        let now = order.len();
        order.push(b);
        for &c in consumers.row(b) {
            let c = c as usize;
            pending[c] -= 1;
            if pending[c] == 0 {
                // `b` is the last of c's producers to issue, hence the
                // latest.
                ready.push(Reverse((Some(now), c)));
            }
        }
    }
    debug_assert_eq!(order.len(), n, "dependency graph must be acyclic");
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::decompose_blocks;
    use crate::testing::random_regular_dag;
    use proptest::prelude::*;
    use reason_core::{Dag, DagBuilder, DagOp, NodeKind};

    /// The reference list scheduler: rescans the whole ready set at every
    /// issue for the block with the most slack since its latest producer.
    fn schedule_by_slack_scan(decomposition: &BlockDecomposition) -> Vec<usize> {
        let n = decomposition.num_blocks();
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
        for bi in 0..n {
            for &op in decomposition.operands(bi) {
                if let Some(producer) = decomposition.block_of(op) {
                    if producer != bi && !deps[bi].contains(&producer) {
                        deps[bi].push(producer);
                        consumers[producer].push(bi);
                    }
                }
            }
        }
        let mut pending: Vec<usize> = deps.iter().map(Vec::len).collect();
        let mut scheduled_at: Vec<Option<usize>> = vec![None; n];
        let mut ready: Vec<usize> = (0..n).filter(|&b| pending[b] == 0).collect();
        let mut order: Vec<usize> = Vec::with_capacity(n);
        while !ready.is_empty() {
            let now = order.len();
            let mut best_pos = 0;
            let mut best_key = (usize::MIN, usize::MAX);
            for (pos, &b) in ready.iter().enumerate() {
                let latest_producer = deps[b]
                    .iter()
                    .map(|&p| scheduled_at[p].expect("producers scheduled before consumers"))
                    .max();
                // Blocks with no producers have infinite slack.
                let slack = latest_producer.map_or(usize::MAX, |t| now - t);
                let key = (slack, usize::MAX - b);
                if key > best_key {
                    best_key = key;
                    best_pos = pos;
                }
            }
            let b = ready.swap_remove(best_pos);
            scheduled_at[b] = Some(now);
            order.push(b);
            for &c in &consumers[b] {
                pending[c] -= 1;
                if pending[c] == 0 {
                    ready.push(c);
                }
            }
        }
        order
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn heap_schedule_equals_the_slack_scan(
            family in 0usize..3,
            size in 0usize..7,
            seed in any::<u64>(),
            tree_depth in 1usize..5,
        ) {
            let dag = random_regular_dag(family, size, seed);
            let d = decompose_blocks(&dag, tree_depth);
            let order = schedule_blocks(&d, true);
            prop_assert_eq!(&order, &schedule_by_slack_scan(&d));
            prop_assert_eq!(order.len(), d.num_blocks());
            prop_assert_eq!(schedule_blocks(&d, false), (0..d.num_blocks()).collect::<Vec<_>>());
        }
    }

    /// Two independent chains: a good schedule interleaves them.
    fn two_chains() -> Dag {
        let mut b = DagBuilder::without_cse();
        let x = b.input(0);
        let y = b.input(1);
        let mut a = b.node(DagOp::Not, &[x], NodeKind::Generic);
        let mut c = b.node(DagOp::Not, &[y], NodeKind::Generic);
        for _ in 0..3 {
            a = b.node(DagOp::Not, &[a], NodeKind::Generic);
            c = b.node(DagOp::Not, &[c], NodeKind::Generic);
        }
        let root = b.node(DagOp::Mul, &[a, c], NodeKind::Generic);
        b.build(root).unwrap()
    }

    #[test]
    fn respects_dependencies() {
        let dag = two_chains();
        let d = decompose_blocks(&dag, 1);
        let order = schedule_blocks(&d, true);
        let mut position = vec![0usize; order.len()];
        for (pos, &b) in order.iter().enumerate() {
            position[b] = pos;
        }
        for bi in 0..d.num_blocks() {
            for &op in d.operands(bi) {
                if let Some(p) = d.block_of(op) {
                    assert!(position[p] < position[bi], "producer must precede consumer");
                }
            }
        }
    }

    #[test]
    fn interleaves_independent_chains() {
        let dag = two_chains();
        let d = decompose_blocks(&dag, 1);
        let order = schedule_blocks(&d, true);
        // Count adjacent pairs that are dependent (producer immediately
        // before consumer): interleaving should avoid most of them.
        let mut adjacent_dependent = 0;
        for w in order.windows(2) {
            if d.operands(w[1]).contains(&d.root(w[0])) {
                adjacent_dependent += 1;
            }
        }
        // The naive order would have nearly all pairs dependent; the
        // scheduler interleaves the two chains.
        assert!(
            adjacent_dependent * 2 <= order.len(),
            "schedule leaves {adjacent_dependent} adjacent dependences in {} issues",
            order.len()
        );
    }

    #[test]
    fn disabled_scheduling_is_identity() {
        let dag = two_chains();
        let d = decompose_blocks(&dag, 1);
        let order = schedule_blocks(&d, false);
        assert_eq!(order, (0..d.num_blocks()).collect::<Vec<_>>());
    }
}
