//! Probabilistic circuits (PCs) substrate for the REASON reproduction.
//!
//! Probabilistic circuits are the paper's tractable probabilistic backbone
//! (Sec. II-C, Eq. 1): rooted DAGs whose leaves are primitive distributions
//! and whose interior nodes are products (factorizations) and weighted sums
//! (mixtures). Structural properties — *smoothness* and *decomposability* —
//! guarantee exact marginal and conditional inference in time linear in
//! circuit size.
//!
//! This crate provides:
//!
//! * [`circuit`] — the circuit data structure, builders, and structural
//!   validation (scopes, smoothness, decomposability, determinism).
//! * [`infer`] — log-space evaluation, marginals, conditionals, and
//!   most-probable-explanation queries.
//! * [`flows`] — top-down *circuit flows* `F(n,c)(x)` (paper Sec. IV-B),
//!   expected flows over datasets, and flow-driven EM parameter learning.
//! * [`prune`] — flow-based edge pruning with the paper's bounded
//!   log-likelihood-loss criterion `Δ log L ≤ (1/|D|) Σ_x F(n,c)(x)`.
//! * [`compile`] — knowledge compilation from CNF formulas to smooth,
//!   deterministic circuits (how R²-Guard-style safety rules become PCs),
//!   with exact weighted model counting. The compiler is a top-down
//!   component-caching (sharpSAT/c2d-style) engine: unit propagation,
//!   connected-component decomposition, dynamic variable ordering, and
//!   hashed component fingerprints over `reason_sat`'s shared clause
//!   pool. [`PersistentComponentCache`] carries compiled components
//!   *across* compilations for serving knowledge bases; [`CompiledWmc`]
//!   is the compile-once reference oracle tests and benches compare
//!   served answers against.
//! * [`dnnf`] — compiled circuits flattened into evaluation-ready
//!   d-DNNF arenas ([`Dnnf`]), the artifact a serving circuit store
//!   keeps hot; answers are bit-identical to circuit evaluation.
//! * [`structure`] — seeded structure generators (mixture-of-factorization
//!   region trees) for workload synthesis.
//! * [`mod@sample`] — forward sampling.
//!
//! # Example
//!
//! ```
//! use reason_pc::{CircuitBuilder, Evidence};
//!
//! // A naive-Bayes-style mixture over two binary variables.
//! let mut b = CircuitBuilder::new(vec![2, 2]);
//! let x0_t = b.indicator(0, 1);
//! let x0_f = b.indicator(0, 0);
//! let x1_t = b.indicator(1, 1);
//! let x1_f = b.indicator(1, 0);
//! let c0 = b.product(vec![x0_t, x1_t]);
//! let c1 = b.product(vec![x0_f, x1_f]);
//! let root = b.sum(vec![c0, c1], vec![0.25, 0.75]);
//! let circuit = b.build(root).unwrap();
//!
//! // p(x0=1, x1=1) = 0.25
//! let p = circuit.probability(&Evidence::from_values(&[Some(1), Some(1)]));
//! assert!((p - 0.25).abs() < 1e-12);
//! // Marginal over x1: p(x0=1) = 0.25
//! let p = circuit.probability(&Evidence::from_values(&[Some(1), None]));
//! assert!((p - 0.25).abs() < 1e-12);
//! ```

pub mod circuit;
pub mod compile;
pub mod dnnf;
pub mod fingerprint;
pub mod flows;
pub mod infer;
pub mod prune;
pub mod sample;
pub mod structure;

pub use circuit::{Circuit, CircuitBuilder, CircuitError, NodeId, PcNode};
pub use compile::{
    compile_cnf, compile_cnf_shannon, compile_cnf_with, CompileOptions, CompileStats, CompiledWmc,
    PersistentCacheStats, PersistentComponentCache, VarOrder, WmcWeights,
};
pub use dnnf::{BatchBuffer, Dnnf, DnnfBatch, DnnfBuffer, DnnfError};
pub use fingerprint::{ring_mix, FormulaFingerprint};
pub use flows::{dataset_flows, em_step, EdgeFlows};
pub use infer::{EvalBuffer, Evidence, MpeResult};
pub use prune::{prune_by_flow, PruneReport};
pub use sample::sample;
pub use structure::{random_mixture_circuit, StructureConfig};

/// Numerically stable `log(sum(exp(xs)))`.
///
/// Returns negative infinity for an empty slice (the empty sum).
fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    m + xs.iter().map(|x| (x - m).exp()).sum::<f64>().ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_sum_exp_basics() {
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
        assert!((log_sum_exp(&[0.0, 0.0]) - 2.0f64.ln()).abs() < 1e-12);
        assert!((log_sum_exp(&[f64::NEG_INFINITY, 0.0]) - 0.0).abs() < 1e-12);
        // Stability with large magnitudes.
        let v = log_sum_exp(&[-1000.0, -1000.0]);
        assert!((v - (-1000.0 + 2.0f64.ln())).abs() < 1e-9);
    }
}
