//! `reason-core` — the REASON paper's algorithm layer (Sec. IV).
//!
//! REASON's first insight is that the heterogeneous reasoning kernels of
//! neuro-symbolic AI — SAT/FOL deduction, probabilistic-circuit inference,
//! and HMM message passing — share one computational skeleton: a directed
//! acyclic graph whose nodes are atomic reasoning operations and whose
//! edges are data dependencies (paper Fig. 5). This crate implements that
//! unified representation and the regularization stacked on it; the
//! pruning stage between them belongs to the kernels:
//!
//! * **Stage 1 — DAG representation unification** ([`dag`], [`frontend`]):
//!   a numeric DAG IR with `Input`/`Const`/`Add`/`Mul`/`Max`/`Not` ops,
//!   plus compilers from [`reason_sat::Cnf`] (literal → clause → formula
//!   layers), [`reason_pc::Circuit`] (indicator inputs, weighted sums,
//!   products), and [`reason_hmm::Hmm`] (time-unrolled forward recursion
//!   with transition/emission factors).
//! * **Stage 2 — adaptive pruning** runs on the kernels, where the
//!   soundness arguments live, before they are lowered: the symbolic side
//!   prunes hidden/failed/equivalent literals through the binary
//!   implication graph ([`reason_sat::Preprocessor`]); the probabilistic
//!   side prunes low-flow circuit edges ([`reason_pc::prune_by_flow`])
//!   and low-usage HMM transitions ([`reason_hmm::prune_transitions`]).
//!   Every Table-I task model calls its pruner inside `run_task`
//!   (`alphageometry.rs`, `linc.rs`, `neuropc.rs`, `r2guard.rs`,
//!   `gelato.rs`, `ctrlg.rs` in `reason-workloads`), and each pruner
//!   reports its own Table IV memory reduction.
//! * **Stage 3 — two-input regularization** ([`mod@regularize`]): n-ary nodes
//!   decompose into balanced binary trees so the mapped DAG matches the
//!   two-input tree PEs of the REASON hardware (Sec. V). Dead nodes,
//!   whatever left them, are dropped in the same pass.
//!
//! The [`pipeline`] module chains Stages 1 and 3 behind one facade,
//! [`ReasonPipeline`], producing [`OptimizedKernel`]s ready for
//! `reason-compiler`. It lowers the kernel it is given, so a SAT kernel's
//! DAG computes that formula.
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
//! // ...and evaluates the formula: x0=0, x1=1, x2=1 satisfies it,
//! assert_eq!(kernel.dag.evaluate_output(&[0.0, 1.0, 1.0]), 1.0);
//! // and x0=1, x1=1, x2=0 falsifies (¬x0 ∨ x2).
//! assert_eq!(kernel.dag.evaluate_output(&[1.0, 1.0, 0.0]), 0.0);
//! ```

pub mod dag;
pub mod frontend;
pub mod pipeline;
pub mod regularize;

pub use dag::{Dag, DagBuilder, DagError, DagOp, DagStats, NodeId, NodeKind};
pub use frontend::hmm::{dag_from_hmm, HmmDagMap};
pub use frontend::pc::{dag_from_circuit, PcDagMap};
pub use frontend::sat::{dag_from_cnf, SatDagMap};
pub use pipeline::{KernelSource, OptimizedKernel, PipelineStats, ReasonPipeline};
pub use regularize::regularize;
