//! The reconfigurable tree engine (RTE): structure and timing.
//!
//! Each PE's datapath is a bidirectional binary tree (paper Fig. 6(c,d)):
//! downward traversal broadcasts (decisions, operands), upward traversal
//! reduces (implications, partial sums). Levels act as pipeline stages, so
//! a value crosses the tree in `depth` cycles and back-to-back operations
//! overlap. Nodes are cycle-reconfigurable among `Add`, `Mul`, `Max`,
//! compare (symbolic BCP), and forward.

use serde::{Deserialize, Serialize};

/// Per-node datapath operation (paper Fig. 6(d): an ALU with adder,
/// multiplier/comparator, and forwarding logic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TreeOp {
    /// Two-input addition.
    Add,
    /// Two-input multiplication.
    Mul,
    /// Two-input maximum.
    Max,
    /// Complement `1 - x` of the left input (right ignored).
    Not,
    /// Forward the left input unchanged.
    Pass,
}

impl TreeOp {
    /// Applies the operation.
    pub(crate) fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            TreeOp::Add => a + b,
            TreeOp::Mul => a * b,
            TreeOp::Max => a.max(b),
            TreeOp::Not => 1.0 - a,
            TreeOp::Pass => a,
        }
    }
}

/// Structure and latency model of one tree PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeEngine {
    /// Number of levels (`depth` = D); the tree has `2^(D-1)` leaves and
    /// `2^D − 1` nodes.
    pub depth: usize,
}

impl TreeEngine {
    /// A tree of the given depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub(crate) fn new(depth: usize) -> Self {
        assert!(depth >= 1, "tree depth must be positive");
        TreeEngine { depth }
    }

    /// Leaf count.
    pub(crate) fn num_leaves(&self) -> usize {
        1 << (self.depth - 1)
    }

    /// Total node count.
    fn num_nodes(&self) -> usize {
        (1 << self.depth) - 1
    }

    /// Cycles for one value to traverse root→leaf (broadcast) — one cycle
    /// per level (paper Fig. 9: T1–T4 for a depth-4 path).
    pub(crate) fn broadcast_cycles(&self) -> u64 {
        self.depth as u64
    }

    /// Cycles for a reduction leaf→root.
    pub(crate) fn reduction_cycles(&self) -> u64 {
        self.depth as u64
    }

    /// Cycles to stream `count` independent broadcasts through the
    /// pipelined tree: fill latency plus one per extra item.
    pub fn pipelined_broadcast_cycles(&self, count: u64) -> u64 {
        if count == 0 {
            0
        } else {
            self.broadcast_cycles() + (count - 1)
        }
    }

    /// Link traversals (energy events) of a full broadcast to all leaves:
    /// every tree edge carries the value once.
    pub(crate) fn broadcast_hops(&self) -> u64 {
        (self.num_nodes() - 1) as u64
    }

    /// Evaluates a full reduction over `leaves` values with node op `op`,
    /// returning the root value (functional model of reduction mode).
    ///
    /// # Panics
    ///
    /// Panics if `leaves.len()` differs from the leaf count.
    pub fn reduce(&self, op: TreeOp, leaves: &[f64]) -> f64 {
        assert_eq!(leaves.len(), self.num_leaves(), "leaf count mismatch");
        let mut level: Vec<f64> = leaves.to_vec();
        while level.len() > 1 {
            level = level.chunks(2).map(|pair| op.apply(pair[0], pair[1])).collect();
        }
        level[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_counts() {
        let t = TreeEngine::new(3);
        assert_eq!(t.num_leaves(), 4);
        assert_eq!(t.num_nodes(), 7);
        assert_eq!(t.broadcast_cycles(), 3);
        assert_eq!(t.broadcast_hops(), 6);
    }

    #[test]
    fn ops_apply() {
        assert_eq!(TreeOp::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(TreeOp::Mul.apply(2.0, 3.0), 6.0);
        assert_eq!(TreeOp::Max.apply(2.0, 3.0), 3.0);
        assert_eq!(TreeOp::Not.apply(0.25, 9.0), 0.75);
        assert_eq!(TreeOp::Pass.apply(0.25, 9.0), 0.25);
    }

    #[test]
    fn reduction_is_correct() {
        let t = TreeEngine::new(3);
        assert_eq!(t.reduce(TreeOp::Add, &[1.0, 2.0, 3.0, 4.0]), 10.0);
        assert_eq!(t.reduce(TreeOp::Max, &[1.0, 9.0, 3.0, 4.0]), 9.0);
        assert_eq!(t.reduce(TreeOp::Mul, &[1.0, 2.0, 3.0, 4.0]), 24.0);
    }

    #[test]
    fn pipelining_overlaps() {
        let t = TreeEngine::new(4);
        assert_eq!(t.pipelined_broadcast_cycles(0), 0);
        assert_eq!(t.pipelined_broadcast_cycles(1), 4);
        // 10 items: 4 cycles fill + 9 more.
        assert_eq!(t.pipelined_broadcast_cycles(10), 13);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_depth_rejected() {
        let _ = TreeEngine::new(0);
    }
}
