//! The unification → regularization facade (paper Sec. IV).
//!
//! "For each symbolic or probabilistic kernel, the compiler generates an
//! initial DAG, applies adaptive pruning, and then performs two-input
//! regularization to produce a unified balanced representation. These
//! DAGs are constructed offline and used to generate an execution binary
//! that is programmed onto REASON hardware." — this module is that flow,
//! up to the hand-off to `reason-compiler`.
//!
//! Adaptive pruning is semantics-aware, so it runs on the kernel itself,
//! before [`ReasonPipeline::compile`] sees it: every Table-I task model
//! prunes inside its `run_task` — `reason_sat::Preprocessor` in
//! `alphageometry.rs` and `linc.rs`, `reason_pc::prune_by_flow` in
//! `neuropc.rs` and `r2guard.rs`, `reason_hmm::prune_transitions` in
//! `gelato.rs` and `ctrlg.rs`. The facade lowers and regularizes the
//! kernel it is given, so a SAT kernel's DAG computes that formula, not
//! an equisatisfiable one.

use std::fmt;

use reason_hmm::Hmm;
use reason_pc::Circuit;
use reason_sat::Cnf;

use crate::dag::{Dag, DagStats};
use crate::frontend::{hmm::dag_from_hmm, pc::dag_from_circuit, sat::dag_from_cnf};
use crate::regularize::regularize;

/// A kernel handed to the pipeline.
#[derive(Debug, Clone, Copy)]
pub enum KernelSource<'a> {
    /// A propositional formula.
    Sat(&'a Cnf),
    /// A probabilistic circuit.
    Pc(&'a Circuit),
    /// An HMM unrolled to `len` steps.
    Hmm {
        /// The model.
        hmm: &'a Hmm,
        /// Unroll length.
        len: usize,
    },
}

/// Errors raised by [`ReasonPipeline::compile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// An HMM unroll length of zero was requested.
    ZeroLength,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::ZeroLength => write!(f, "HMM unroll length must be positive"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// End-to-end statistics of one pipeline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineStats {
    /// DAG shape of the unregularized lowering.
    pub before: DagStats,
    /// DAG shape after regularization.
    pub after: DagStats,
}

/// The optimized kernel handed to the mapping compiler.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizedKernel {
    /// The final, two-input regular DAG.
    pub dag: Dag,
    /// Pipeline statistics.
    pub stats: PipelineStats,
}

/// The REASON algorithm-level pipeline facade.
#[derive(Debug, Clone, Default)]
pub struct ReasonPipeline;

impl ReasonPipeline {
    /// The pipeline.
    pub fn new() -> Self {
        ReasonPipeline
    }

    /// Lowers one kernel to the unified DAG and regularizes it.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::ZeroLength`] for an HMM unroll length of
    /// zero.
    pub fn compile(&self, source: KernelSource<'_>) -> Result<OptimizedKernel, PipelineError> {
        let unified = match source {
            KernelSource::Sat(cnf) => dag_from_cnf(cnf).0,
            KernelSource::Pc(circuit) => dag_from_circuit(circuit).0,
            KernelSource::Hmm { hmm, len } => {
                if len == 0 {
                    return Err(PipelineError::ZeroLength);
                }
                dag_from_hmm(hmm, len).0
            }
        };
        let before = unified.stats();
        let dag = regularize(&unified);
        Ok(OptimizedKernel { stats: PipelineStats { before, after: dag.stats() }, dag })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reason_sat::gen::random_ksat;

    #[test]
    fn sat_pipeline_produces_two_input_dag() {
        let cnf = random_ksat(12, 50, 3, 1);
        let kernel = ReasonPipeline::new().compile(KernelSource::Sat(&cnf)).unwrap();
        assert!(kernel.dag.max_fan_in() <= 2);
        kernel.dag.validate().unwrap();
    }

    #[test]
    fn sat_dag_computes_the_formula() {
        // A falsifying assignment must read 0, not only a model 1.
        let formulas = [
            Cnf::from_clauses(2, vec![vec![1, 2]]),
            Cnf::from_clauses(3, vec![vec![1, 2], vec![-1, 3], vec![2, 3]]),
            Cnf::from_clauses(3, vec![vec![1, 2], vec![-1, 3]]),
            random_ksat(8, 24, 3, 9),
            random_ksat(10, 42, 3, 7),
        ];
        for cnf in &formulas {
            let n = cnf.num_vars();
            let kernel = ReasonPipeline::new().compile(KernelSource::Sat(cnf)).unwrap();
            for bits in 0..1u32 << n {
                let model: Vec<bool> = (0..n).map(|v| bits >> v & 1 == 1).collect();
                let inputs: Vec<f64> = model.iter().map(|&b| f64::from(b)).collect();
                let want = f64::from(cnf.eval(&model));
                assert_eq!(kernel.dag.evaluate_output(&inputs), want, "{cnf:?} at {model:?}");
            }
        }
    }

    #[test]
    fn hmm_pipeline_unrolls() {
        let hmm = reason_hmm::Hmm::random(3, 4, 2);
        let kernel =
            ReasonPipeline::new().compile(KernelSource::Hmm { hmm: &hmm, len: 8 }).unwrap();
        assert!(kernel.dag.max_fan_in() <= 2);
        assert!(kernel.dag.num_nodes() > 8 * 3);
    }

    #[test]
    fn zero_unroll_is_an_error() {
        let hmm = reason_hmm::Hmm::random(2, 2, 0);
        let err =
            ReasonPipeline::new().compile(KernelSource::Hmm { hmm: &hmm, len: 0 }).unwrap_err();
        assert_eq!(err, PipelineError::ZeroLength);
    }

    #[test]
    fn stats_report_before_and_after() {
        let cnf = random_ksat(10, 45, 3, 3);
        let kernel = ReasonPipeline::new().compile(KernelSource::Sat(&cnf)).unwrap();
        assert!(kernel.stats.before.nodes > 0);
        assert!(kernel.stats.after.nodes > 0);
        assert!(kernel.stats.after.max_fan_in <= 2);
    }
}
