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
//! far.
//!
//! # Cost of one placement
//!
//! The key is unchanged; only how its minimum is found. A value's
//! readers are a range of one CSR table (the blocks whose operands
//! contain it, in increasing block order), and every block keeps the
//! banks of its operands placed so far in a table laid out like the
//! decomposition's operand array. One walk over the readers' placed banks
//! adds one to the `cost` entry of each and lists every bank it touches;
//! only those *touched* banks can have a nonzero cost, and a block reads a
//! handful of operands, so there are a few of them. Among the *untouched*
//! banks the key is the load alone, so their winner is the lowest-index
//! bank at the lowest load. It is read off per-load bitsets — `level[l]`
//! holds the banks whose load is `l`, one bit per bank in
//! `num_banks.div_ceil(64)` words — by scanning up from the lowest
//! nonempty level (which only rises, as loads only grow) for the first
//! bank outside the touched mask. That winner is compared with each
//! touched bank's key, lowest index on ties, and only the touched `cost`
//! entries are reset. A placement costs O(co-operands) plus the levels it
//! skips, not O(banks).

use reason_core::{Dag, DagOp, NodeId};

use crate::blocks::BlockDecomposition;
use crate::csr::Csr;

/// The value→bank map produced by [`assign_banks`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankAssignment {
    /// Indexed by [`NodeId::index`]; `None` for nodes fused inside a block.
    bank_of: Vec<Option<u16>>,
}

impl BankAssignment {
    /// The bank assigned to a value node.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not a value node (input/const/block root).
    pub(crate) fn bank_of(&self, value: NodeId) -> usize {
        let bank = self.bank_of[value.index()];
        usize::from(bank.unwrap_or_else(|| panic!("{value} has no bank assignment")))
    }
}

/// The values in placement order: inputs and constants (in node order),
/// then block roots (in schedule order).
fn placement_order<'a>(
    dag: &'a Dag,
    decomposition: &'a BlockDecomposition,
    order: &'a [usize],
) -> impl Iterator<Item = NodeId> + 'a {
    let sources = (0..dag.num_nodes())
        .map(NodeId::from_index)
        .filter(|&id| matches!(dag.op(id), DagOp::Input(_) | DagOp::Const(_)));
    sources.chain(order.iter().map(|&b| decomposition.root(b)))
}

/// Banks grouped by load: `level[l]` is the set of banks whose load is
/// `l`, `words` words of one bit per bank, stored level after level.
struct LoadLevels {
    words: usize,
    level: Vec<u64>,
    /// The lowest nonempty level: the minimum load over all banks.
    min_level: usize,
}

impl LoadLevels {
    /// Every bank at load 0, with room for `levels` levels.
    fn new(num_banks: usize, levels: usize) -> Self {
        let words = num_banks.div_ceil(64);
        let mut level = Vec::with_capacity(words * levels);
        level.extend((0..words).map(|w| {
            let banks_here = (num_banks - 64 * w).min(64);
            if banks_here == 64 {
                u64::MAX
            } else {
                (1u64 << banks_here) - 1
            }
        }));
        LoadLevels { words, level, min_level: 0 }
    }

    /// Moves `bank` from load `load` to `load + 1`.
    fn raise(&mut self, bank: usize, load: usize) {
        let (word, bit) = (bank / 64, 1u64 << (bank % 64));
        if self.level.len() <= (load + 1) * self.words {
            self.level.resize((load + 2) * self.words, 0);
        }
        self.level[load * self.words + word] &= !bit;
        self.level[(load + 1) * self.words + word] |= bit;
        if load == self.min_level && self.level_words(load).iter().all(|&w| w == 0) {
            self.min_level += 1;
        }
    }

    fn level_words(&self, load: usize) -> &[u64] {
        &self.level[load * self.words..(load + 1) * self.words]
    }

    /// The lowest-index bank at the lowest load outside `excluded` (a
    /// bank mask of `words` words), if any bank is outside it.
    fn min_outside(&self, excluded: &[u64]) -> Option<usize> {
        (self.min_level..self.level.len() / self.words).find_map(|l| {
            self.level_words(l).iter().zip(excluded).enumerate().find_map(|(w, (&banks, &ex))| {
                let eligible = banks & !ex;
                (eligible != 0).then(|| 64 * w + eligible.trailing_zeros() as usize)
            })
        })
    }
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
    let n = dag.num_nodes();
    let mut bank_of: Vec<Option<u16>> = vec![None; n];
    let bank_index = |k: usize| u16::try_from(k).expect("a bank index fits in 16 bits");
    if !conflict_aware {
        for (vi, v) in placement_order(dag, decomposition, order).enumerate() {
            bank_of[v.index()] = Some(bank_index(vi % num_banks));
        }
        return BankAssignment { bank_of };
    }

    // Reader groups: for each value, the blocks whose operand list
    // (co-read set) contains it, in increasing block order.
    let readers_of = Csr::build(n, |push| {
        for b in 0..decomposition.num_blocks() {
            for &op in decomposition.operands(b) {
                push(op.index(), b);
            }
        }
    });

    // placed[operand_start(b)..][..num_placed[b]]: the banks of block b's
    // operands placed so far, in placement order.
    let mut placed = vec![0u16; decomposition.total_operands()];
    let mut num_placed = vec![0u32; decomposition.num_blocks()];
    let num_values = n - decomposition.total_members() + decomposition.num_blocks();
    let mut load = vec![0usize; num_banks];
    let mut levels = LoadLevels::new(num_banks, 2 + num_values / num_banks);
    let mut cost = vec![0usize; num_banks];
    // Banks with a nonzero `cost` for the value being placed, as a list
    // and as a mask of `levels.words` words.
    let mut touched: Vec<u16> = Vec::with_capacity(num_banks);
    let mut touched_mask = vec![0u64; levels.words];
    for v in placement_order(dag, decomposition, order) {
        // Conflict cost per bank: co-operands already placed there,
        // across every block that reads v (v itself is still unplaced, so
        // it never counts).
        let readers = readers_of.row(v.index());
        for &b in readers {
            let start = decomposition.operand_start(b as usize);
            for &bank in &placed[start..start + num_placed[b as usize] as usize] {
                let k = usize::from(bank);
                if cost[k] == 0 {
                    touched.push(bank);
                    touched_mask[k / 64] |= 1 << (k % 64);
                }
                cost[k] += 1;
            }
        }
        // Weight conflicts heavily; break ties by load balance, then by
        // bank index. Untouched banks cost nothing, so only their least
        // loaded (lowest index first) can win.
        let key = |k: usize| (cost[k] * 4096 + load[k], k);
        let untouched = if touched.len() < num_banks {
            levels.min_outside(&touched_mask).map(key)
        } else {
            None
        };
        let best = touched.iter().map(|&k| key(usize::from(k))).chain(untouched).min();
        let (_, bank) = best.expect("a register file has at least one bank");
        for &k in &touched {
            cost[usize::from(k)] = 0;
            touched_mask[usize::from(k) / 64] = 0;
        }
        touched.clear();

        bank_of[v.index()] = Some(bank_index(bank));
        for &b in readers {
            let b = b as usize;
            placed[decomposition.operand_start(b) + num_placed[b] as usize] = bank_index(bank);
            num_placed[b] += 1;
        }
        levels.raise(bank, load[bank]);
        load[bank] += 1;
    }

    BankAssignment { bank_of }
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
        for bi in 0..decomposition.num_blocks() {
            for op in decomposition.operands(bi) {
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
                    for op in decomposition.operands(bi) {
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
            let values: Vec<NodeId> = placement_order(&dag, &d, &order).collect();
            for num_banks in [2usize, 8, 64, 128, 256] {
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

    /// Past 4,096 values per bank the load term outweighs one conflict,
    /// so the choice between an untouched and a touched bank turns on
    /// loads far apart in the level table.
    #[test]
    fn two_crowded_banks_match_the_rescan() {
        let mut b = DagBuilder::without_cse();
        let mut layer: Vec<NodeId> = (0..9000).map(|i| b.input(i)).collect();
        let mut step = 0usize;
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|p| match *p {
                    [x, y] => {
                        step += 1;
                        let op = if step.is_multiple_of(3) { DagOp::Mul } else { DagOp::Add };
                        b.node(op, &[x, y], NodeKind::Generic)
                    }
                    _ => p[0],
                })
                .collect();
        }
        let dag = b.build(layer[0]).unwrap();
        let d = decompose_blocks(&dag, 3);
        let order = schedule_blocks(&d, true);
        let values: Vec<NodeId> = placement_order(&dag, &d, &order).collect();
        assert!(values.len() > 2 * 4096 + 2000, "{} values", values.len());
        let aware = assign_banks(&dag, &d, &order, 2, true);
        let reference = assign_by_rescan(&dag, &d, &order, 2);
        for &v in &values {
            assert_eq!(aware.bank_of(v), reference[&v], "{v}");
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
        for b in 0..d.num_blocks() {
            let _ = assignment.bank_of(d.root(b));
            for op in d.operands(b) {
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
            (0..d.num_blocks())
                .map(|b| {
                    let mut per_bank = [0usize; 8];
                    for op in d.operands(b) {
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
