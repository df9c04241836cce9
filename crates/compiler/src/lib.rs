//! `reason-compiler` — DAG-to-hardware mapping (paper Sec. V-C, Fig. 7).
//!
//! The compiler lowers a two-input-regular [`reason_core::Dag`] onto the
//! tree-PE architecture in the paper's four steps:
//!
//! 1. **Block decomposition** ([`blocks`]) — a greedy bottom-up pass
//!    carves the DAG into depth-bounded fused subtrees ("schedulable
//!    subgraphs whose maximum depth does not exceed the hardware tree
//!    depth"), maximizing PE utilization while keeping multi-consumer
//!    values in registers.
//! 2. **PE and register mapping** ([`mapping`]) — every live value
//!    (constant, kernel input, block result) is assigned a register bank
//!    by a conflict-aware heuristic that minimizes same-cycle dual-port
//!    collisions among co-read operands: the first bank minimizing
//!    `conflicts * 4096 + load`; a round-robin fallback models the
//!    paper's bank-mapping ablation.
//! 3. **Tree mapping** — fusion happens during decomposition; block node
//!    lists are emitted in intra-block topological order so they drop
//!    directly onto the PE tree levels.
//! 4. **Reordering** ([`schedule`]) — pipeline-aware list scheduling
//!    interleaves independent blocks between dependent ones to hide the
//!    tree pipeline latency: the ready block whose latest producer issued
//!    longest ago goes next, lowest block index on ties; disabled under
//!    the scheduling ablation. (Reordering runs before bank mapping,
//!    which places block results in issue order.)
//!
//! Emission ([`emit`]) runs a compile-time mirror of the hardware's
//! automatic write-address allocator, so every instruction carries the
//! *predicted* write location that `reason-arch` verifies at runtime —
//! the paper's "the compiler precisely predicts these write addresses at
//! compile time".
//!
//! # Cost
//!
//! Lowering is linear in the DAG, plus `B log B` for the scheduler's
//! heap over `B` blocks; the bank choice costs O(co-operands) per placed
//! value, not O(banks) (see [`mapping`]). Every per-value table in the
//! four passes — fan-out, block membership, bank, register location, last
//! use — is a `Vec` indexed by [`reason_core::NodeId::index`]; none is a
//! hash map. Every per-block list is a CSR table (one flat array plus
//! per-row start offsets, like the DAG's own edge arena): the blocks'
//! members and operands ([`BlockDecomposition`]), each value's reader
//! blocks, and each block's consumers, each built by a counting pass and
//! a fill pass. The emitted [`reason_arch::VliwProgram`] is flat too, one
//! array of reads, nodes and frees with per-instruction offsets, sized
//! from the decomposition before the first instruction. Lowering a
//! kernel therefore allocates a fixed number of times whatever its size
//! (`tests/lowering_alloc_guard.rs` pins it). The passes read the DAG in
//! place: a node's children are a slice of the DAG's one edge array
//! ([`reason_core::Dag::node`]), and a pass that only classifies a node
//! as source or compute reads its op alone ([`reason_core::Dag::op`]), so
//! lowering copies no child list. The cost key and tie-break of each
//! greedy choice are documented in [`mapping`] and [`schedule`], and the
//! formulas they replaced (a cost recount per candidate bank, a scan of
//! the ready set per issue) live on as `#[cfg(test)]` oracles that the
//! passes are proptested equal to.
//!
//! # Example
//!
//! ```
//! use reason_arch::{ArchConfig, VliwExecutor};
//! use reason_compiler::ReasonCompiler;
//! use reason_core::{DagBuilder, DagOp, NodeKind};
//!
//! // (x0 + x1) * (x2 + x3)
//! let mut b = DagBuilder::new();
//! let xs: Vec<_> = (0..4).map(|i| b.input(i)).collect();
//! let l = b.node(DagOp::Add, &[xs[0], xs[1]], NodeKind::Generic);
//! let r = b.node(DagOp::Add, &[xs[2], xs[3]], NodeKind::Generic);
//! let root = b.node(DagOp::Mul, &[l, r], NodeKind::Generic);
//! let dag = b.build(root).unwrap();
//!
//! let config = ArchConfig::paper();
//! let kernel = ReasonCompiler::new(config).compile(&dag).unwrap();
//! let program = kernel.program(&[1.0, 2.0, 3.0, 4.0]);
//! let report = VliwExecutor::new(config).execute(&program);
//! assert_eq!(report.output, 21.0);
//! ```

pub mod blocks;
mod csr;
pub mod emit;
pub mod mapping;
pub mod schedule;

use std::fmt;

use reason_arch::ArchConfig;
use reason_core::Dag;

pub use blocks::{decompose_blocks, BlockDecomposition};
pub use emit::{CompileReport, CompiledKernel};
pub use mapping::{assign_banks, BankAssignment};
pub use schedule::schedule_blocks;

/// Errors raised during compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The DAG has a node with fan-in above 2; run
    /// [`reason_core::regularize()`] first.
    NotTwoInputRegular {
        /// Offending fan-in found.
        fan_in: usize,
    },
    /// The kernel's live values exceed the register file even after
    /// live-range recycling.
    RegisterOverflow {
        /// Registers available.
        capacity: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NotTwoInputRegular { fan_in } => {
                write!(f, "DAG has fan-in {fan_in}; two-input regularization required")
            }
            CompileError::RegisterOverflow { capacity } => {
                write!(f, "register demand exceeds the {capacity}-entry register file")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// The mapping compiler.
#[derive(Debug, Clone, Copy)]
pub struct ReasonCompiler {
    config: ArchConfig,
}

impl ReasonCompiler {
    /// A compiler targeting `config`.
    pub fn new(config: ArchConfig) -> Self {
        config.validate();
        ReasonCompiler { config }
    }

    /// Compiles a DAG into a reusable kernel (constants baked in, inputs
    /// bound per invocation via [`CompiledKernel::program`]).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] if the DAG is not two-input regular or
    /// exceeds the register file.
    pub fn compile(&self, dag: &Dag) -> Result<CompiledKernel, CompileError> {
        let fan_in = dag.max_fan_in();
        if fan_in > 2 {
            return Err(CompileError::NotTwoInputRegular { fan_in });
        }
        let decomposition = decompose_blocks(dag, self.config.tree_depth);
        let order = schedule_blocks(&decomposition, self.config.ablation.scheduling);
        let banks = assign_banks(
            dag,
            &decomposition,
            &order,
            self.config.num_banks,
            self.config.ablation.bank_mapping,
        );
        emit::emit_program(dag, &decomposition, &order, &banks, &self.config)
    }
}

/// Random two-input-regular DAGs for the pass-equivalence proptests.
#[cfg(test)]
pub(crate) mod testing {
    use reason_core::{dag_from_circuit, dag_from_cnf, dag_from_hmm, regularize, Dag};
    use reason_pc::{random_mixture_circuit, StructureConfig};
    use reason_sat::gen::random_ksat;

    /// A regularized DAG from one of the three front ends (`family % 3`:
    /// CNF, circuit, HMM), growing with `size`.
    pub(crate) fn random_regular_dag(family: usize, size: usize, seed: u64) -> Dag {
        let dag = match family % 3 {
            0 => dag_from_cnf(&random_ksat(4 + size, 6 + 4 * size, 3, seed)).0,
            1 => {
                let config = StructureConfig {
                    num_vars: 3 + size,
                    depth: 1 + size / 2,
                    num_components: 1 + size % 3,
                    seed,
                };
                dag_from_circuit(&random_mixture_circuit(&config)).0
            }
            _ => {
                dag_from_hmm(&reason_hmm::Hmm::random(2 + size / 2, 2 + size % 4, seed), 2 + size).0
            }
        };
        regularize(&dag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reason_arch::VliwExecutor;
    use reason_core::{dag_from_circuit, dag_from_cnf, dag_from_hmm, regularize};
    use reason_core::{DagBuilder, DagOp, NodeKind};
    use reason_pc::{random_mixture_circuit, Evidence, StructureConfig};
    use reason_sat::gen::random_ksat;

    #[test]
    fn rejects_wide_dags() {
        let mut b = DagBuilder::new();
        let xs: Vec<_> = (0..5).map(|i| b.input(i)).collect();
        let sum = b.node(DagOp::Add, &xs, NodeKind::Generic);
        let dag = b.build(sum).unwrap();
        let err = ReasonCompiler::new(ArchConfig::paper()).compile(&dag).unwrap_err();
        assert!(matches!(err, CompileError::NotTwoInputRegular { fan_in: 5 }));
    }

    #[test]
    fn sat_kernel_end_to_end_matches_dag() {
        let config = ArchConfig::paper();
        let cnf = random_ksat(8, 28, 3, 11);
        let (dag, _) = dag_from_cnf(&cnf);
        let dag = regularize(&dag);
        let kernel = ReasonCompiler::new(config).compile(&dag).unwrap();
        let exec = VliwExecutor::new(config);
        for bits in (0..256u32).step_by(11) {
            let inputs: Vec<f64> = (0..8).map(|v| f64::from(bits >> v & 1)).collect();
            let expect = dag.evaluate_output(&inputs);
            let report = exec.execute(&kernel.program(&inputs));
            assert_eq!(report.output, expect, "bits {bits:08b}");
        }
    }

    #[test]
    fn pc_kernel_end_to_end_matches_dag() {
        let config = ArchConfig::paper();
        let cfg = StructureConfig { num_vars: 6, depth: 3, num_components: 2, seed: 21 };
        let circuit = random_mixture_circuit(&cfg);
        let (dag, map) = dag_from_circuit(&circuit);
        let dag = regularize(&dag);
        let kernel = ReasonCompiler::new(config).compile(&dag).unwrap();
        let exec = VliwExecutor::new(config);
        let evidences: Vec<Vec<Option<usize>>> = vec![
            vec![Some(1), Some(0), Some(1), Some(1), Some(0), Some(1)],
            vec![None, Some(1), None, None, Some(0), None],
            vec![None; 6],
        ];
        for ev in evidences {
            let inputs = map.inputs_for_evidence(circuit.arities(), &ev);
            let expect = circuit.probability(&Evidence::from_values(&ev));
            let report = exec.execute(&kernel.program(&inputs));
            assert!(
                (report.output - expect).abs() < 1e-9,
                "evidence {ev:?}: hw {} vs circuit {expect}",
                report.output
            );
        }
    }

    #[test]
    fn hmm_kernel_end_to_end_matches_dag() {
        let config = ArchConfig::paper();
        let hmm = reason_hmm::Hmm::random(3, 3, 5);
        let (dag, map) = dag_from_hmm(&hmm, 6);
        let dag = regularize(&dag);
        let kernel = ReasonCompiler::new(config).compile(&dag).unwrap();
        let exec = VliwExecutor::new(config);
        let obs = [0usize, 2, 1, 1, 0, 2];
        let wrapped: Vec<Option<usize>> = obs.iter().map(|&o| Some(o)).collect();
        let inputs = map.inputs_for_observations(&wrapped);
        let report = exec.execute(&kernel.program(&inputs));
        let expect = hmm.log_likelihood(&obs).exp();
        assert!((report.output - expect).abs() < 1e-9);
    }

    #[test]
    fn scheduling_reduces_stalls() {
        let config = ArchConfig::paper();
        let mut no_sched = config;
        no_sched.ablation.scheduling = false;
        let cnf = random_ksat(12, 48, 3, 3);
        let (dag, _) = dag_from_cnf(&cnf);
        let dag = regularize(&dag);
        let sched = ReasonCompiler::new(config).compile(&dag).unwrap();
        let unsched = ReasonCompiler::new(no_sched).compile(&dag).unwrap();
        let inputs = vec![1.0; 12];
        let fast = VliwExecutor::new(config).execute(&sched.program(&inputs));
        let slow = VliwExecutor::new(no_sched).execute(&unsched.program(&inputs));
        assert_eq!(fast.output, slow.output);
        assert!(
            fast.cycles < slow.cycles,
            "scheduling must reduce cycles: {} vs {}",
            fast.cycles,
            slow.cycles
        );
    }

    #[test]
    fn bank_mapping_reduces_conflicts() {
        let config = ArchConfig::paper();
        let mut no_map = config;
        no_map.ablation.bank_mapping = false;
        let cfg = StructureConfig { num_vars: 8, depth: 3, num_components: 3, seed: 4 };
        let circuit = random_mixture_circuit(&cfg);
        let (dag, map) = dag_from_circuit(&circuit);
        let dag = regularize(&dag);
        let mapped = ReasonCompiler::new(config).compile(&dag).unwrap();
        let unmapped = ReasonCompiler::new(no_map).compile(&dag).unwrap();
        let inputs = map.inputs_for_evidence(circuit.arities(), &[None; 8]);
        let good = VliwExecutor::new(config).execute(&mapped.program(&inputs));
        let bad = VliwExecutor::new(no_map).execute(&unmapped.program(&inputs));
        assert!((good.output - bad.output).abs() < 1e-12);
        assert!(
            good.conflict_stall_cycles <= bad.conflict_stall_cycles,
            "conflict-aware mapping must not increase conflicts"
        );
    }

    #[test]
    fn degenerate_single_input_dag() {
        let mut b = DagBuilder::new();
        let x = b.input(0);
        let dag = b.build(x).unwrap();
        let config = ArchConfig::paper();
        let kernel = ReasonCompiler::new(config).compile(&dag).unwrap();
        let report = VliwExecutor::new(config).execute(&kernel.program(&[42.0]));
        assert_eq!(report.output, 42.0);
    }

    #[test]
    fn constant_only_dag() {
        let mut b = DagBuilder::new();
        let c = b.constant(7.5);
        let dag = b.build(c).unwrap();
        let config = ArchConfig::paper();
        let kernel = ReasonCompiler::new(config).compile(&dag).unwrap();
        let report = VliwExecutor::new(config).execute(&kernel.program(&[]));
        assert_eq!(report.output, 7.5);
    }
}
