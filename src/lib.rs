//! # reason — a reproduction of REASON (HPCA 2026)
//!
//! *REASON: Accelerating Probabilistic Logical Reasoning for Scalable
//! Neuro-Symbolic Intelligence* (Wan et al., HPCA 2026) proposes an
//! algorithm/architecture/system co-design that accelerates the symbolic
//! and probabilistic reasoning kernels of neuro-symbolic AI. This
//! workspace re-implements the full system in Rust:
//!
//! * the reasoning substrates — SAT ([`sat`]), first-order logic
//!   ([`fol`]), probabilistic circuits ([`pc`]), hidden Markov models
//!   ([`hmm`]), and a neural proxy ([`neural`]);
//! * the paper's algorithm layer — the unified DAG representation and
//!   two-input regularization ([`core`]), over kernels the substrate
//!   crates have already pruned;
//! * the hardware model — reconfigurable tree PEs, a real Benes operand
//!   network, watched-literal BCP hardware, and an energy/area model
//!   ([`arch`]) with its mapping compiler ([`compiler`]);
//! * baseline device models — GPU/CPU/TPU-like/DPU-like ([`sim`]);
//! * system integration — the co-processor programming model, the
//!   two-level pipeline cost model, and the threaded
//!   [`BatchExecutor`](system::BatchExecutor) that runs mixed SAT/PC
//!   batches with real stage overlap ([`system`]);
//! * the knowledge-base serving engine — a persistent compiled-circuit
//!   store with adaptive exact/approx/predicted query routing
//!   ([`serve`]);
//! * the unified observability layer — metrics registry, clock-injected
//!   spans, Prometheus/Chrome-trace exporters ([`telemetry`]);
//! * the evaluation workloads and datasets ([`workloads`]).
//!
//! See `README.md` for a tour and `docs/ARCHITECTURE.md` for the
//! twelve-crate map, the end-to-end dataflow, and which paper section
//! each crate reproduces. The `reason-eval` binary (in `reason-bench`)
//! regenerates all experiments.
//!
//! # Quickstart
//!
//! ```
//! use reason::core::{KernelSource, ReasonPipeline};
//! use reason::arch::{ArchConfig, VliwExecutor};
//! use reason::compiler::ReasonCompiler;
//! use reason::sat::Cnf;
//!
//! // 1. A logical kernel: (x0 ∨ x1) ∧ (¬x0 ∨ x2).
//! let cnf = Cnf::from_clauses(3, vec![vec![1, 2], vec![-1, 3]]);
//!
//! // 2. REASON algorithm layer: unify → regularize.
//! let kernel = ReasonPipeline::new().compile(KernelSource::Sat(&cnf))?;
//!
//! // 3. Map onto the paper's hardware configuration and execute
//! //    cycle-accurately.
//! let config = ArchConfig::paper();
//! let compiled = ReasonCompiler::new(config).compile(&kernel.dag)?;
//! let report = VliwExecutor::new(config).execute(&compiled.program(&[1.0, 0.0, 1.0]));
//! assert_eq!(report.output, 1.0); // the assignment satisfies the formula
//! let report = VliwExecutor::new(config).execute(&compiled.program(&[0.0, 0.0, 1.0]));
//! assert_eq!(report.output, 0.0); // and this one falsifies (x0 ∨ x1)
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

/// The `rust` blocks of `README.md`, compiled as doctests so the tour
/// keeps building against the API it shows.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

pub use reason_approx as approx;
pub use reason_arch as arch;
pub use reason_compiler as compiler;
pub use reason_core as core;
pub use reason_fol as fol;
pub use reason_hmm as hmm;
pub use reason_neural as neural;
pub use reason_pc as pc;
pub use reason_sat as sat;
pub use reason_serve as serve;
pub use reason_sim as sim;
pub use reason_system as system;
pub use reason_telemetry as telemetry;
pub use reason_workloads as workloads;
