//! The unification → pruning → regularization pipeline (paper Sec. IV).
//!
//! "For each symbolic or probabilistic kernel, the compiler generates an
//! initial DAG, applies adaptive pruning, and then performs two-input
//! regularization to produce a unified balanced representation. These
//! DAGs are constructed offline and used to generate an execution binary
//! that is programmed onto REASON hardware." — this module is that flow,
//! up to the hand-off to `reason-compiler`.

use std::fmt;

use reason_hmm::Hmm;
use reason_pc::Circuit;
use reason_sat::{Cnf, Preprocessor};

use crate::dag::{Dag, DagStats};
use crate::frontend::{hmm::dag_from_hmm, pc::dag_from_circuit, sat::dag_from_cnf};
use crate::prune::UnifiedPruneReport;
use crate::regularize::regularize;

/// Which reasoning family a kernel belongs to (paper Fig. 5 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// SAT / FOL deduction.
    Logical,
    /// Probabilistic-circuit inference.
    Probabilistic,
    /// HMM message passing.
    Sequential,
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelKind::Logical => write!(f, "logical"),
            KernelKind::Probabilistic => write!(f, "probabilistic"),
            KernelKind::Sequential => write!(f, "sequential"),
        }
    }
}

/// A kernel handed to the pipeline, optionally with the calibration data
/// that drives adaptive pruning.
#[derive(Debug, Clone, Copy)]
pub enum KernelSource<'a> {
    /// A propositional formula.
    Sat(&'a Cnf),
    /// A probabilistic circuit without pruning data (pruning is skipped).
    Pc(&'a Circuit),
    /// A probabilistic circuit with a calibration dataset; `prune_fraction`
    /// of sum edges (lowest flow first) are dropped.
    PcWithData {
        /// The circuit.
        circuit: &'a Circuit,
        /// Complete assignments used to measure flows.
        data: &'a [Vec<usize>],
        /// Fraction of sum edges to prune, in `[0, 1]`.
        prune_fraction: f64,
    },
    /// An HMM unrolled to `len` steps, without pruning data.
    Hmm {
        /// The model.
        hmm: &'a Hmm,
        /// Unroll length.
        len: usize,
    },
    /// An HMM with calibration sequences; transitions under
    /// `usage_threshold` (share of total expected usage) are dropped.
    HmmWithData {
        /// The model.
        hmm: &'a Hmm,
        /// Unroll length.
        len: usize,
        /// Observation sequences used to measure posterior usage.
        data: &'a [Vec<usize>],
        /// Usage-share threshold for pruning.
        usage_threshold: f64,
    },
}

impl KernelSource<'_> {
    /// Rejects a pruning parameter outside its domain — before any work,
    /// and whether or not the pipeline prunes.
    fn check_prune_parameters(&self) -> Result<(), PipelineError> {
        match *self {
            KernelSource::PcWithData { prune_fraction, .. }
                if !(0.0..=1.0).contains(&prune_fraction) =>
            {
                Err(PipelineError::BadPruneParameter {
                    parameter: "prune_fraction",
                    domain: "[0, 1]",
                })
            }
            KernelSource::HmmWithData { usage_threshold, .. }
                if !(0.0..).contains(&usage_threshold) =>
            {
                Err(PipelineError::BadPruneParameter {
                    parameter: "usage_threshold",
                    domain: "[0, ∞)",
                })
            }
            _ => Ok(()),
        }
    }

    /// The kernel family.
    fn kind(&self) -> KernelKind {
        match self {
            KernelSource::Sat(_) => KernelKind::Logical,
            KernelSource::Pc(_) | KernelSource::PcWithData { .. } => KernelKind::Probabilistic,
            KernelSource::Hmm { .. } | KernelSource::HmmWithData { .. } => KernelKind::Sequential,
        }
    }
}

/// Errors raised by [`ReasonPipeline::compile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// Pruning was requested with an empty calibration dataset.
    EmptyCalibrationData,
    /// An HMM unroll length of zero was requested.
    ZeroLength,
    /// A pruning parameter lies outside its domain: `prune_fraction`
    /// outside `[0, 1]`, or a negative `usage_threshold`; NaN is outside
    /// both.
    BadPruneParameter {
        /// The offending field of [`KernelSource`].
        parameter: &'static str,
        /// The interval it must lie in.
        domain: &'static str,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::EmptyCalibrationData => {
                write!(f, "adaptive pruning requires a non-empty calibration dataset")
            }
            PipelineError::ZeroLength => write!(f, "HMM unroll length must be positive"),
            PipelineError::BadPruneParameter { parameter, domain } => {
                write!(f, "{parameter} must lie in {domain}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Pipeline configuration (stages can be disabled for ablations —
/// paper Table V measures exactly this).
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Enable Stage 2 adaptive pruning.
    pub prune: bool,
    /// Enable Stage 3 two-input regularization.
    pub regularize: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { prune: true, regularize: true }
    }
}

/// End-to-end statistics of one pipeline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineStats {
    /// DAG shape before optimization (unpruned, unregularized lowering).
    pub before: DagStats,
    /// DAG shape after the full pipeline.
    pub after: DagStats,
    /// Kernel-level pruning report.
    pub prune: UnifiedPruneReport,
}

impl PipelineStats {
    /// Fraction of kernel memory removed by pruning (Table IV metric).
    #[cfg(test)]
    fn memory_reduction(&self) -> f64 {
        self.prune.memory_reduction()
    }
}

/// The optimized kernel handed to the mapping compiler.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizedKernel {
    /// The final DAG (pruned and two-input regular by default).
    pub dag: Dag,
    /// The kernel family.
    pub kind: KernelKind,
    /// Pipeline statistics.
    pub stats: PipelineStats,
}

/// The REASON algorithm-level pipeline facade.
#[derive(Debug, Clone, Default)]
pub struct ReasonPipeline {
    config: PipelineConfig,
}

impl ReasonPipeline {
    /// A pipeline with all stages enabled.
    pub fn new() -> Self {
        ReasonPipeline::default()
    }

    /// A pipeline with an explicit configuration.
    pub fn with_config(config: PipelineConfig) -> Self {
        ReasonPipeline { config }
    }

    /// Runs unification, pruning, and regularization on one kernel.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] on empty calibration data, a zero
    /// unroll length, or a pruning parameter outside its domain
    /// (`prune_fraction` outside `[0, 1]`, a negative `usage_threshold`,
    /// NaN for either).
    pub fn compile(&self, source: KernelSource<'_>) -> Result<OptimizedKernel, PipelineError> {
        source.check_prune_parameters()?;
        let kind = source.kind();
        // Each arm yields the shape of the unoptimized lowering, the
        // pruning report, and the DAG to regularize; when nothing is
        // pruned that DAG is the unoptimized lowering itself, moved.
        let unpruned = |before: Dag| (before.stats(), UnifiedPruneReport::default(), before);
        let (before, prune_report, optimized_dag) = match source {
            KernelSource::Sat(cnf) => {
                let (before, _) = dag_from_cnf(cnf);
                if self.config.prune {
                    let result = Preprocessor::new().run(cnf);
                    let report = UnifiedPruneReport::from(&result.stats);
                    let (dag, _) = dag_from_cnf(&result.cnf);
                    (before.stats(), report, dag)
                } else {
                    unpruned(before)
                }
            }
            KernelSource::Pc(circuit) => unpruned(dag_from_circuit(circuit).0),
            KernelSource::PcWithData { circuit, data, prune_fraction } => {
                let (before, _) = dag_from_circuit(circuit);
                if self.config.prune {
                    if data.is_empty() {
                        return Err(PipelineError::EmptyCalibrationData);
                    }
                    let pr = reason_pc::prune_by_flow(circuit, data, prune_fraction);
                    let report = UnifiedPruneReport::from(&pr);
                    let (dag, _) = dag_from_circuit(&pr.circuit);
                    (before.stats(), report, dag)
                } else {
                    unpruned(before)
                }
            }
            KernelSource::Hmm { hmm, len } => {
                if len == 0 {
                    return Err(PipelineError::ZeroLength);
                }
                unpruned(dag_from_hmm(hmm, len).0)
            }
            KernelSource::HmmWithData { hmm, len, data, usage_threshold } => {
                if len == 0 {
                    return Err(PipelineError::ZeroLength);
                }
                let (before, _) = dag_from_hmm(hmm, len);
                if self.config.prune {
                    if data.is_empty() {
                        return Err(PipelineError::EmptyCalibrationData);
                    }
                    let pr = reason_hmm::prune_transitions(hmm, data, usage_threshold);
                    let report = UnifiedPruneReport::from(&pr);
                    let (dag, _) = dag_from_hmm(&pr.hmm, len);
                    (before.stats(), report, dag)
                } else {
                    unpruned(before)
                }
            }
        };

        let final_dag =
            if self.config.regularize { regularize(&optimized_dag) } else { optimized_dag };
        Ok(OptimizedKernel {
            kind,
            stats: PipelineStats { before, after: final_dag.stats(), prune: prune_report },
            dag: final_dag,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use reason_pc::{random_mixture_circuit, StructureConfig};
    use reason_sat::gen::random_ksat;

    #[test]
    fn sat_pipeline_produces_two_input_dag() {
        let cnf = random_ksat(12, 50, 3, 1);
        let kernel = ReasonPipeline::new().compile(KernelSource::Sat(&cnf)).unwrap();
        assert_eq!(kernel.kind, KernelKind::Logical);
        assert!(kernel.dag.max_fan_in() <= 2);
        kernel.dag.validate().unwrap();
    }

    #[test]
    fn sat_pruning_preserves_models_forward() {
        // Every model of the original satisfies the optimized DAG.
        let cnf = random_ksat(8, 24, 3, 9);
        let kernel = ReasonPipeline::new().compile(KernelSource::Sat(&cnf)).unwrap();
        for bits in 0..256u32 {
            let model: Vec<bool> = (0..8).map(|v| bits >> v & 1 == 1).collect();
            if cnf.eval(&model) {
                let inputs: Vec<f64> = model.iter().map(|&b| f64::from(b)).collect();
                assert_eq!(kernel.dag.evaluate_output(&inputs), 1.0);
            }
        }
    }

    #[test]
    fn pc_pipeline_with_pruning_shrinks() {
        let cfg = StructureConfig { num_vars: 8, depth: 3, num_components: 4, seed: 5 };
        let circuit = random_mixture_circuit(&cfg);
        let mut rng = StdRng::seed_from_u64(1);
        let data: Vec<Vec<usize>> =
            (0..50).map(|_| (0..8).map(|_| usize::from(rng.gen_bool(0.85))).collect()).collect();
        let kernel = ReasonPipeline::new()
            .compile(KernelSource::PcWithData {
                circuit: &circuit,
                data: &data,
                prune_fraction: 0.3,
            })
            .unwrap();
        assert_eq!(kernel.kind, KernelKind::Probabilistic);
        assert!(kernel.stats.memory_reduction() > 0.0);
        assert!(kernel.dag.max_fan_in() <= 2);
    }

    #[test]
    fn hmm_pipeline_unrolls() {
        let hmm = reason_hmm::Hmm::random(3, 4, 2);
        let kernel =
            ReasonPipeline::new().compile(KernelSource::Hmm { hmm: &hmm, len: 8 }).unwrap();
        assert_eq!(kernel.kind, KernelKind::Sequential);
        assert!(kernel.dag.max_fan_in() <= 2);
        assert!(kernel.dag.num_nodes() > 8 * 3);
    }

    #[test]
    fn disabled_stages_are_skipped() {
        let cnf = random_ksat(10, 40, 3, 2);
        let config = PipelineConfig { prune: false, regularize: false };
        let kernel = ReasonPipeline::with_config(config).compile(KernelSource::Sat(&cnf)).unwrap();
        // Without regularization, clause fan-in of 3 remains.
        assert!(kernel.dag.max_fan_in() >= 3);
        assert_eq!(kernel.stats.prune, UnifiedPruneReport::default());
    }

    #[test]
    fn empty_data_is_an_error() {
        let cfg = StructureConfig::default();
        let circuit = random_mixture_circuit(&cfg);
        let err = ReasonPipeline::new()
            .compile(KernelSource::PcWithData { circuit: &circuit, data: &[], prune_fraction: 0.5 })
            .unwrap_err();
        assert_eq!(err, PipelineError::EmptyCalibrationData);
    }

    #[test]
    fn out_of_domain_prune_parameters_are_errors_not_panics() {
        let circuit = random_mixture_circuit(&StructureConfig::default());
        let hmm = reason_hmm::Hmm::random(3, 4, 2);
        let pc_data = vec![vec![1usize; StructureConfig::default().num_vars]; 4];
        let hmm_data = vec![vec![0usize, 1, 2, 3]; 4];
        for config in [PipelineConfig::default(), PipelineConfig { prune: false, regularize: true }]
        {
            let pipeline = ReasonPipeline::with_config(config);
            for bad in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
                let source = KernelSource::PcWithData {
                    circuit: &circuit,
                    data: &pc_data,
                    prune_fraction: bad,
                };
                let err = pipeline.compile(source).unwrap_err();
                let expect = PipelineError::BadPruneParameter {
                    parameter: "prune_fraction",
                    domain: "[0, 1]",
                };
                assert_eq!(err, expect, "prune_fraction {bad}");
                assert_eq!(err.to_string(), "prune_fraction must lie in [0, 1]");
            }
            for bad in [f64::NAN, -0.1, f64::NEG_INFINITY] {
                let source = KernelSource::HmmWithData {
                    hmm: &hmm,
                    len: 4,
                    data: &hmm_data,
                    usage_threshold: bad,
                };
                let err = pipeline.compile(source).unwrap_err();
                let expect = PipelineError::BadPruneParameter {
                    parameter: "usage_threshold",
                    domain: "[0, ∞)",
                };
                assert_eq!(err, expect, "usage_threshold {bad}");
            }
            // A usage share above 1 is in the domain: it prunes every
            // transition a row can lose.
            for fine in [1.5, f64::INFINITY] {
                let source = KernelSource::HmmWithData {
                    hmm: &hmm,
                    len: 4,
                    data: &hmm_data,
                    usage_threshold: fine,
                };
                assert!(pipeline.compile(source).is_ok(), "usage_threshold {fine}");
            }
        }
    }

    #[test]
    fn calibration_the_model_cannot_emit_is_not_a_panic() {
        // Neither state emits symbol 2, so the second sequence has zero
        // likelihood and no posterior: pruning skips it.
        let hmm = reason_hmm::Hmm::new(
            vec![0.5, 0.5],
            vec![vec![0.9, 0.1], vec![0.2, 0.8]],
            vec![vec![0.5, 0.5, 0.0], vec![0.3, 0.7, 0.0]],
        )
        .unwrap();
        let data = vec![vec![0usize, 1, 1, 0], vec![0, 2, 1, 0]];
        let source =
            KernelSource::HmmWithData { hmm: &hmm, len: 4, data: &data, usage_threshold: 0.1 };
        let kernel = ReasonPipeline::new().compile(source).unwrap();
        assert_eq!(kernel.kind, KernelKind::Sequential);
        kernel.dag.validate().unwrap();
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
