//! `reason-core` — the REASON paper's algorithm layer (Sec. IV).
//!
//! REASON's first insight is that the heterogeneous reasoning kernels of
//! neuro-symbolic AI — SAT/FOL deduction, probabilistic-circuit inference,
//! and HMM message passing — share one computational skeleton: a directed
//! acyclic graph whose nodes are atomic reasoning operations and whose
//! edges are data dependencies (paper Fig. 5). This crate implements that
//! unified representation and the two optimizations stacked on it:
//!
//! * **Stage 1 — DAG representation unification** ([`dag`], [`frontend`]):
//!   a numeric DAG IR with `Input`/`Const`/`Add`/`Mul`/`Max`/`Not` ops,
//!   plus compilers from [`reason_sat::Cnf`] (literal → clause → formula
//!   layers), [`reason_pc::Circuit`] (indicator inputs, weighted sums,
//!   products), and [`reason_hmm::Hmm`] (time-unrolled forward recursion
//!   with transition/emission factors).
//! * **Stage 2 — adaptive DAG pruning** ([`prune`]): the symbolic side
//!   prunes hidden/failed/equivalent literals through the binary
//!   implication graph; the probabilistic side prunes low-flow circuit
//!   edges and low-usage HMM transitions. Both delegate to the substrate
//!   crates and are re-exposed here as one pipeline with unified
//!   reporting (the paper's Table IV metrics).
//! * **Stage 3 — two-input regularization** ([`mod@regularize`]): n-ary nodes
//!   decompose into balanced binary trees so the mapped DAG matches the
//!   two-input tree PEs of the REASON hardware (Sec. V).
//!
//! The [`pipeline`] module chains all three stages behind one facade,
//! [`ReasonPipeline`], producing [`OptimizedKernel`]s ready for
//! `reason-compiler`.
//!
//! # Example
//!
//! ```
//! use reason_core::{ReasonPipeline, KernelSource};
//! use reason_sat::Cnf;
//!
//! let cnf = Cnf::from_clauses(3, vec![vec![1, 2], vec![-1, 3], vec![2, 3]]);
//! let kernel = ReasonPipeline::new().compile(KernelSource::Sat(&cnf)).unwrap();
//! // The optimized DAG is two-input regular:
//! assert!(kernel.dag.max_fan_in() <= 2);
//! // ...and still evaluates the formula: x0=0, x1=1, x2=1 satisfies it.
//! assert_eq!(kernel.dag.evaluate_output(&[0.0, 1.0, 1.0]), 1.0);
//! ```

pub mod dag;
pub mod frontend;
pub mod pipeline;
pub mod prune;
pub mod regularize;

pub use dag::{Dag, DagBuilder, DagError, DagOp, DagStats, NodeId, NodeKind};
pub use frontend::hmm::{dag_from_hmm, HmmDagMap};
pub use frontend::pc::{dag_from_circuit, PcDagMap};
pub use frontend::sat::{dag_from_cnf, SatDagMap};
pub use pipeline::{KernelSource, OptimizedKernel, PipelineConfig, PipelineStats, ReasonPipeline};
pub use prune::UnifiedPruneReport;
pub use regularize::regularize;
