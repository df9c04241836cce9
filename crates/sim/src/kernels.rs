//! Kernel profiles: the workload units the baseline models consume.
//!
//! A [`KernelProfile`] captures what the paper's Nsight profiling captures
//! per kernel: arithmetic work, data footprint, a representative access
//! trace, exploitable parallelism, and control divergence. Builders cover
//! the six kernels of Table II.

use serde::{Deserialize, Serialize};

use crate::trace::AccessTrace;

/// Kernel family (paper Table II column groups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelClass {
    /// Dense tensor work (MatMul, Softmax).
    Neural,
    /// Logic deduction (BCP, clause evaluation) and sparse algebra.
    Symbolic,
    /// Probabilistic aggregation (marginals, Bayesian updates).
    Probabilistic,
}

/// A device-independent kernel description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelProfile {
    /// Kernel name (Table II row).
    pub name: String,
    /// Family.
    pub class: KernelClass,
    /// Floating-point (or logic-op) work.
    pub flops: f64,
    /// Compulsory data movement in bytes.
    pub bytes: f64,
    /// Representative (sampled) access trace.
    pub trace: AccessTrace,
    /// Fraction of work that parallelizes (Amdahl).
    pub parallel_fraction: f64,
    /// Fraction of branches that diverge within a warp.
    pub branch_divergence: f64,
}

impl KernelProfile {
    /// Operational intensity in FLOPS/byte (the roofline x-axis).
    pub(crate) fn operational_intensity(&self) -> f64 {
        if self.bytes == 0.0 {
            0.0
        } else {
            self.flops / self.bytes
        }
    }

    /// Dense `n × n` GEMM: streaming accesses, near-perfect parallelism.
    pub fn matmul(n: usize) -> Self {
        let flops = 2.0 * (n as f64).powi(3);
        let bytes = 3.0 * 4.0 * (n as f64).powi(2);
        KernelProfile {
            name: format!("MatMul{n}"),
            class: KernelClass::Neural,
            flops,
            bytes,
            trace: AccessTrace::streaming(4096, 4),
            parallel_fraction: 0.99999,
            branch_divergence: 0.01,
        }
    }

    /// Row-wise softmax over an `n × n` activation block.
    fn softmax(n: usize) -> Self {
        let elems = (n as f64).powi(2);
        KernelProfile {
            name: format!("Softmax{n}"),
            class: KernelClass::Neural,
            flops: 5.0 * elems,
            bytes: 2.0 * 4.0 * elems,
            trace: AccessTrace::streaming(4096, 4),
            parallel_fraction: 0.9995,
            branch_divergence: 0.05,
        }
    }

    /// Sparse matrix-vector product over an `n × n` matrix at `density`.
    pub fn sparse_matvec(n: usize, density: f64) -> Self {
        let nnz = (n as f64).powi(2) * density;
        KernelProfile {
            name: format!("SparseMV{n}"),
            class: KernelClass::Symbolic,
            flops: 2.0 * nnz,
            bytes: 12.0 * nnz + 8.0 * n as f64,
            trace: AccessTrace::pointer_chasing(4096, (16.0 * nnz) as u64 | 0xFFF, 6, 11),
            parallel_fraction: 0.55,
            branch_divergence: 0.35,
        }
    }

    /// Boolean constraint propagation over `clauses` clauses: linked-list
    /// walks, heavy divergence, little arithmetic.
    pub fn logic_bcp(clauses: usize) -> Self {
        let work = clauses as f64 * 3.0;
        KernelProfile {
            name: format!("Logic{clauses}"),
            class: KernelClass::Symbolic,
            flops: work,
            bytes: 16.0 * clauses as f64,
            trace: AccessTrace::pointer_chasing(4096, (32 * clauses.max(1024)) as u64, 3, 13),
            parallel_fraction: 0.25,
            branch_divergence: 0.55,
        }
    }

    /// Marginal inference over a probabilistic circuit with `nodes` nodes:
    /// scattered child gathers, moderate parallelism per layer.
    pub fn pc_marginal(nodes: usize) -> Self {
        KernelProfile {
            name: format!("Marginal{nodes}"),
            class: KernelClass::Probabilistic,
            flops: 2.0 * nodes as f64,
            bytes: 12.0 * nodes as f64,
            trace: AccessTrace::scattered(4096, (16 * nodes.max(4096)) as u64, 17),
            parallel_fraction: 0.45,
            branch_divergence: 0.40,
        }
    }

    /// Bayesian (forward) update over `states` states for `steps` steps:
    /// repeated small reductions with state reuse.
    pub fn bayesian_update(states: usize, steps: usize) -> Self {
        let work = (states * states * steps) as f64 * 2.0;
        KernelProfile {
            name: format!("Bayesian{states}x{steps}"),
            class: KernelClass::Probabilistic,
            flops: work,
            bytes: 8.0 * (states * states) as f64 + 8.0 * (states * steps) as f64,
            trace: AccessTrace::pointer_chasing(4096, (64 * states * states) as u64, 4, 23),
            parallel_fraction: 0.40,
            branch_divergence: 0.45,
        }
    }

    /// The six Table II kernels at the paper's representative sizes.
    pub fn table2_suite() -> Vec<KernelProfile> {
        vec![
            KernelProfile::matmul(512),
            KernelProfile::softmax(512),
            KernelProfile::sparse_matvec(2048, 0.05),
            KernelProfile::logic_bcp(20_000),
            KernelProfile::pc_marginal(50_000),
            KernelProfile::bayesian_update(256, 64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intensity_ordering_matches_roofline_expectations() {
        // GEMM is compute-dense; logic/probabilistic kernels are not.
        let mm = KernelProfile::matmul(512);
        let bcp = KernelProfile::logic_bcp(20_000);
        let marg = KernelProfile::pc_marginal(50_000);
        assert!(mm.operational_intensity() > 10.0);
        assert!(bcp.operational_intensity() < 1.0);
        assert!(marg.operational_intensity() < 1.0);
    }

    #[test]
    fn neural_traces_coalesce_symbolic_do_not() {
        let mm = KernelProfile::matmul(256);
        let bcp = KernelProfile::logic_bcp(10_000);
        assert!(mm.trace.coalescing_factor() > 0.8);
        assert!(bcp.trace.coalescing_factor() < 0.4);
    }

    #[test]
    fn suite_has_six_kernels() {
        let suite = KernelProfile::table2_suite();
        assert_eq!(suite.len(), 6);
        assert_eq!(suite.iter().filter(|k| k.class == KernelClass::Neural).count(), 2);
        assert_eq!(suite.iter().filter(|k| k.class == KernelClass::Symbolic).count(), 2);
        assert_eq!(suite.iter().filter(|k| k.class == KernelClass::Probabilistic).count(), 2);
    }
}
