//! Stage 2: adaptive DAG pruning (paper Sec. IV-B), unified reporting.
//!
//! Pruning is semantics-aware, so it runs on the *kernel* representations
//! (where the soundness arguments live) before DAG lowering:
//!
//! * symbolic kernels prune hidden literals, failed literals, and
//!   equivalent literals through the binary implication graph
//!   ([`reason_sat::Preprocessor`]);
//! * probabilistic circuits prune low-flow sum edges with the bounded
//!   log-likelihood-loss criterion ([`reason_pc::prune_by_flow`]);
//! * HMMs prune low-posterior-usage transitions
//!   ([`reason_hmm::prune_transitions`]).
//!
//! Dead DAG nodes, whatever left them, are dropped by
//! [`crate::regularize()`].
//! [`UnifiedPruneReport`] aggregates the memory-reduction metrics the
//! paper reports in Table IV.

/// Aggregated pruning metrics across kernels — the Table IV "Memory ↓"
/// numbers come from these.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UnifiedPruneReport {
    /// Footprint before pruning, bytes.
    pub bytes_before: usize,
    /// Footprint after pruning, bytes.
    pub bytes_after: usize,
    /// Structural elements removed (literals/edges/transitions).
    pub elements_removed: usize,
}

impl UnifiedPruneReport {
    /// Combines per-kernel reports.
    pub fn merge(&self, other: &UnifiedPruneReport) -> UnifiedPruneReport {
        UnifiedPruneReport {
            bytes_before: self.bytes_before + other.bytes_before,
            bytes_after: self.bytes_after + other.bytes_after,
            elements_removed: self.elements_removed + other.elements_removed,
        }
    }

    /// Fraction of memory removed, in `[0, 1]`.
    pub fn memory_reduction(&self) -> f64 {
        if self.bytes_before == 0 {
            0.0
        } else {
            1.0 - self.bytes_after as f64 / self.bytes_before as f64
        }
    }
}

impl From<&reason_sat::preprocess::PruneStats> for UnifiedPruneReport {
    fn from(s: &reason_sat::preprocess::PruneStats) -> Self {
        UnifiedPruneReport {
            bytes_before: s.bytes_before,
            bytes_after: s.bytes_after,
            elements_removed: s.hidden_literals
                + s.units_fixed
                + s.pure_literals
                + s.equivalences
                + s.failed_literals,
        }
    }
}

impl From<&reason_pc::PruneReport> for UnifiedPruneReport {
    fn from(r: &reason_pc::PruneReport) -> Self {
        UnifiedPruneReport {
            bytes_before: r.bytes_before,
            bytes_after: r.bytes_after,
            elements_removed: r.edges_removed,
        }
    }
}

impl From<&reason_hmm::TransitionPruneReport> for UnifiedPruneReport {
    fn from(r: &reason_hmm::TransitionPruneReport) -> Self {
        UnifiedPruneReport {
            bytes_before: r.bytes_before,
            bytes_after: r.bytes_after,
            elements_removed: r.removed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{DagBuilder, DagOp, NodeKind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use reason_pc::{prune_by_flow, random_mixture_circuit, StructureConfig};
    use reason_sat::gen::random_ksat;
    use reason_sat::Preprocessor;

    #[test]
    fn unified_report_from_sat() {
        let cnf = random_ksat(20, 90, 3, 3);
        let result = Preprocessor::new().run(&cnf);
        let report = UnifiedPruneReport::from(&result.stats);
        assert_eq!(report.bytes_before, result.stats.bytes_before);
        assert!((report.memory_reduction() - result.stats.memory_reduction()).abs() < 1e-12);
    }

    #[test]
    fn unified_report_from_pc() {
        let cfg = StructureConfig { num_vars: 6, depth: 3, num_components: 3, seed: 1 };
        let circuit = random_mixture_circuit(&cfg);
        let mut rng = StdRng::seed_from_u64(0);
        let data: Vec<Vec<usize>> =
            (0..40).map(|_| (0..6).map(|_| usize::from(rng.gen_bool(0.8))).collect()).collect();
        let pr = prune_by_flow(&circuit, &data, 0.3);
        let report = UnifiedPruneReport::from(&pr);
        assert!(report.memory_reduction() >= 0.0);
        assert_eq!(report.elements_removed, pr.edges_removed);
    }

    #[test]
    fn merge_accumulates() {
        let a = UnifiedPruneReport { bytes_before: 100, bytes_after: 60, elements_removed: 4 };
        let b = UnifiedPruneReport { bytes_before: 300, bytes_after: 240, elements_removed: 6 };
        let m = a.merge(&b);
        assert_eq!(m.bytes_before, 400);
        assert_eq!(m.bytes_after, 300);
        assert_eq!(m.elements_removed, 10);
        assert!((m.memory_reduction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn dead_node_pruning() {
        let mut b = DagBuilder::without_cse();
        let x = b.input(0);
        let _dead1 = b.node(DagOp::Not, &[x], NodeKind::Generic);
        let _dead2 = b.node(DagOp::Not, &[x], NodeKind::Generic);
        let live = b.node(DagOp::Not, &[x], NodeKind::Generic);
        let dag = b.build(live).unwrap();
        let (pruned, dropped) = dag.compact();
        assert_eq!(dropped, 2);
        assert!(pruned.stats().footprint_bytes < dag.stats().footprint_bytes);
        assert_eq!(pruned.evaluate_output(&[1.0]), 0.0);
    }
}
