//! Step 2: conflict-aware register-bank assignment (paper Fig. 7
//! "Step 3: PE and Register Mapping").
//!
//! "Operands are allocated to banks to avoid simultaneous conflicts [...]
//! This conflict-aware strategy minimizes bank contention and balances
//! data traffic across banks." Every *value* (kernel input, constant, or
//! block result) gets a home bank; the cost of placing value `v` in bank
//! `k` counts, over all blocks that read `v`, the co-operands already
//! assigned to `k` — dual-ported banks serve two reads per cycle, so each
//! additional co-resident operand risks a stall cycle.
//!
//! # Cost key and tie-break
//!
//! Values are placed one at a time — inputs and constants in node order,
//! then block results in schedule order — and a placement is never
//! revisited. Value `v` goes to the first bank `k` (lowest index) that
//! minimizes `cost[k] * 4096 + load[k]`, where `cost[k]` is the number of
//! already-placed co-operands of `v` in bank `k`, counted once per
//! reading block, and `load[k]` the number of values placed in `k` so
//! far. All `cost[k]` come out of a single walk over `v`'s co-operands
//! (each adds one to its own bank's entry), so placing `v` costs
//! O(co-operands + banks) rather than a walk per candidate bank.

use reason_core::{Dag, DagOp, NodeId};

use crate::blocks::BlockDecomposition;

/// The value→bank map produced by [`assign_banks`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankAssignment {
    /// Indexed by [`NodeId::index`]; `None` for nodes fused inside a block.
    bank_of: Vec<Option<usize>>,
    num_banks: usize,
}

impl BankAssignment {
    /// The bank assigned to a value node.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not a value node (input/const/block root).
    pub(crate) fn bank_of(&self, value: NodeId) -> usize {
        self.bank_of[value.index()].unwrap_or_else(|| panic!("{value} has no bank assignment"))
    }
}

/// The values in placement order: inputs and constants (in node order),
/// then block roots (in schedule order).
fn placement_order(dag: &Dag, decomposition: &BlockDecomposition, order: &[usize]) -> Vec<NodeId> {
    let sources = dag
        .nodes()
        .enumerate()
        .filter(|(_, node)| matches!(node.op, DagOp::Input(_) | DagOp::Const(_)))
        .map(|(i, _)| NodeId::from_index(i));
    sources.chain(order.iter().map(|&bi| decomposition.blocks[bi].root)).collect()
}

/// Assigns every value node a register bank.
///
/// `conflict_aware == false` falls back to round-robin placement (the
/// paper's bank-mapping ablation).
pub fn assign_banks(
    dag: &Dag,
    decomposition: &BlockDecomposition,
    order: &[usize],
    num_banks: usize,
    conflict_aware: bool,
) -> BankAssignment {
    let values = placement_order(dag, decomposition, order);

    // Reader groups: for each value, the blocks whose operand list
    // (co-read set) contains it.
    let mut readers_of: Vec<Vec<usize>> = vec![Vec::new(); dag.num_nodes()];
    for (bi, block) in decomposition.blocks.iter().enumerate() {
        for op in &block.operands {
            readers_of[op.index()].push(bi);
        }
    }

    let mut bank_of: Vec<Option<usize>> = vec![None; dag.num_nodes()];
    let mut load = vec![0usize; num_banks];
    let mut cost = vec![0usize; num_banks];
    for (vi, &v) in values.iter().enumerate() {
        let bank = if conflict_aware {
            // Conflict cost per bank: co-operands already placed there,
            // across every block that reads v (v itself is still
            // unplaced, so it never counts).
            cost.fill(0);
            for &bi in &readers_of[v.index()] {
                for op in &decomposition.blocks[bi].operands {
                    if let Some(k) = bank_of[op.index()] {
                        cost[k] += 1;
                    }
                }
            }
            // Weight conflicts heavily; break ties by load balance, then
            // by bank index (`min_by_key` keeps the first minimum).
            (0..num_banks)
                .min_by_key(|&k| cost[k] * 4096 + load[k])
                .expect("a register file has at least one bank")
        } else {
            vi % num_banks
        };
        bank_of[v.index()] = Some(bank);
        load[bank] += 1;
    }

    BankAssignment { bank_of, num_banks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::decompose_blocks;
    use crate::schedule::schedule_blocks;
    use crate::testing::random_regular_dag;
    use proptest::prelude::*;
    use reason_core::{dag_from_cnf, regularize, DagBuilder, NodeKind};
    use reason_sat::gen::random_ksat;
    use std::collections::HashMap;

    /// The reference placement: for every value, every candidate bank's
    /// conflict cost is recounted from scratch over the reader blocks.
    fn assign_by_rescan(
        dag: &Dag,
        decomposition: &BlockDecomposition,
        order: &[usize],
        num_banks: usize,
    ) -> HashMap<NodeId, usize> {
        let mut readers_of: HashMap<NodeId, Vec<usize>> = HashMap::new();
        for (bi, block) in decomposition.blocks.iter().enumerate() {
            for op in &block.operands {
                readers_of.entry(*op).or_default().push(bi);
            }
        }
        let mut bank_of: HashMap<NodeId, usize> = HashMap::new();
        let mut load = vec![0usize; num_banks];
        for v in placement_order(dag, decomposition, order) {
            let mut best = 0usize;
            let mut best_key = usize::MAX;
            for k in 0..num_banks {
                let mut cost = 0usize;
                for &bi in readers_of.get(&v).map_or(&[][..], Vec::as_slice) {
                    for op in &decomposition.blocks[bi].operands {
                        if *op != v && bank_of.get(op) == Some(&k) {
                            cost += 1;
                        }
                    }
                }
                let key = cost * 4096 + load[k];
                if key < best_key {
                    best_key = key;
                    best = k;
                }
            }
            bank_of.insert(v, best);
            load[best] += 1;
        }
        bank_of
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn one_walk_placement_equals_the_per_bank_rescan(
            family in 0usize..3,
            size in 0usize..7,
            seed in any::<u64>(),
            pipeline_aware in any::<bool>(),
        ) {
            let dag = random_regular_dag(family, size, seed);
            let d = decompose_blocks(&dag, 3);
            let order = schedule_blocks(&d, pipeline_aware);
            let values = placement_order(&dag, &d, &order);
            for num_banks in [2usize, 8, 64] {
                let aware = assign_banks(&dag, &d, &order, num_banks, true);
                let reference = assign_by_rescan(&dag, &d, &order, num_banks);
                prop_assert_eq!(reference.len(), values.len());
                for &v in &values {
                    prop_assert_eq!(aware.bank_of(v), reference[&v], "{} with {} banks", v, num_banks);
                }

                let round_robin = assign_banks(&dag, &d, &order, num_banks, false);
                for (vi, &v) in values.iter().enumerate() {
                    prop_assert_eq!(round_robin.bank_of(v), vi % num_banks);
                }
            }
        }
    }

    #[test]
    fn co_read_operands_spread_across_banks() {
        // One block reading four values: conflict-aware placement puts
        // them in four distinct banks.
        let mut b = DagBuilder::new();
        let xs: Vec<_> = (0..4).map(|i| b.input(i)).collect();
        let l = b.node(reason_core::DagOp::Add, &[xs[0], xs[1]], NodeKind::Generic);
        let r = b.node(reason_core::DagOp::Add, &[xs[2], xs[3]], NodeKind::Generic);
        let root = b.node(reason_core::DagOp::Mul, &[l, r], NodeKind::Generic);
        let dag = b.build(root).unwrap();
        let d = decompose_blocks(&dag, 3);
        let order = schedule_blocks(&d, true);
        let assignment = assign_banks(&dag, &d, &order, 8, true);
        let banks: std::collections::HashSet<usize> =
            xs.iter().map(|&x| assignment.bank_of(x)).collect();
        assert_eq!(banks.len(), 4, "four co-read operands in four banks");
    }

    #[test]
    fn round_robin_is_deterministic() {
        let cnf = random_ksat(8, 24, 3, 1);
        let (dag, _) = dag_from_cnf(&cnf);
        let dag = regularize(&dag);
        let d = decompose_blocks(&dag, 3);
        let order = schedule_blocks(&d, true);
        let a = assign_banks(&dag, &d, &order, 16, false);
        let b = assign_banks(&dag, &d, &order, 16, false);
        assert_eq!(a, b);
    }

    #[test]
    fn all_values_are_assigned() {
        let cnf = random_ksat(10, 35, 3, 2);
        let (dag, _) = dag_from_cnf(&cnf);
        let dag = regularize(&dag);
        let d = decompose_blocks(&dag, 3);
        let order = schedule_blocks(&d, true);
        let assignment = assign_banks(&dag, &d, &order, 16, true);
        for block in &d.blocks {
            let _ = assignment.bank_of(block.root);
            for op in &block.operands {
                let _ = assignment.bank_of(*op);
            }
        }
    }

    #[test]
    fn conflict_aware_beats_round_robin_on_conflict_count() {
        let cnf = random_ksat(12, 45, 3, 7);
        let (dag, _) = dag_from_cnf(&cnf);
        let dag = regularize(&dag);
        let d = decompose_blocks(&dag, 3);
        let order = schedule_blocks(&d, true);
        let aware = assign_banks(&dag, &d, &order, 8, true);
        let naive = assign_banks(&dag, &d, &order, 8, false);
        let conflicts = |a: &BankAssignment| -> usize {
            d.blocks
                .iter()
                .map(|blk| {
                    let mut per_bank = [0usize; 8];
                    for op in &blk.operands {
                        per_bank[a.bank_of(*op)] += 1;
                    }
                    per_bank.iter().map(|&n| n.saturating_sub(2)).sum::<usize>()
                })
                .sum()
        };
        assert!(
            conflicts(&aware) <= conflicts(&naive),
            "aware {} vs naive {}",
            conflicts(&aware),
            conflicts(&naive)
        );
    }
}
