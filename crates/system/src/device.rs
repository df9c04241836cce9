//! The REASON programming model (paper Sec. VI-B, Listing 1).
//!
//! ```c
//! void REASON_execute(int batch_id, int batch_size,
//!                     const void* neural_buffer,
//!                     const void* reasoning_mode,
//!                     void* symbolic_buffer);
//! int REASON_check_status(int batch_id, bool blocking);
//! ```
//!
//! [`ReasonDevice`] is the Rust analogue: `execute` consumes the batch's
//! neural results from [`SharedMemory`], dispatches to the matching
//! cycle-level engine (`reason-arch`), publishes symbolic results, and
//! accounts virtual device time; `check_status` reports `Idle`/`Executing`
//! against that virtual clock, with an optional blocking wait.

use reason_arch::{ArchConfig, SymbolicEngine, SymbolicReport, VliwExecutor};
use reason_compiler::CompiledKernel;
use reason_sat::{Cnf, Solution};

use crate::sync::SharedMemory;

/// A batch identifier (the paper's `batch_id`).
pub type BatchId = u64;

/// Device status returned by [`ReasonDevice::check_status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceStatus {
    /// No work in flight at the queried batch.
    Idle,
    /// The batch is still executing on the device's virtual clock.
    Executing,
}

/// What one `execute` call produced.
#[derive(Debug, Clone)]
pub enum ExecuteOutcome {
    /// Symbolic run: the SAT answer plus the hardware report.
    Symbolic {
        /// The solver answer.
        solution: Solution,
        /// Timing/energy of the run.
        report: SymbolicReport,
    },
    /// DAG run: the kernel output value plus the hardware report.
    Dag {
        /// The output value.
        output: f64,
        /// Timing/energy of the run.
        report: reason_arch::ExecutionReport,
    },
}

impl ExecuteOutcome {
    /// Device cycles consumed.
    pub fn cycles(&self) -> u64 {
        match self {
            ExecuteOutcome::Symbolic { report, .. } => report.cycles,
            ExecuteOutcome::Dag { report, .. } => report.cycles,
        }
    }
}

/// The co-processor device model.
#[derive(Debug)]
pub struct ReasonDevice {
    config: ArchConfig,
    shared: SharedMemory,
    /// Virtual device clock (cycles).
    now: u64,
    /// Completion time per batch.
    completes_at: std::collections::HashMap<BatchId, u64>,
}

impl ReasonDevice {
    /// A device with the given architecture, attached to a shared-memory
    /// region.
    pub fn new(config: ArchConfig, shared: SharedMemory) -> Self {
        config.validate();
        ReasonDevice { config, shared, now: 0, completes_at: std::collections::HashMap::new() }
    }

    /// The architecture configuration.
    #[cfg(test)]
    fn config(&self) -> &ArchConfig {
        &self.config
    }

    /// `REASON_execute` for DAG-mode kernels: reads the batch's neural
    /// buffer (kernel inputs) from shared memory, runs the compiled
    /// kernel, publishes the result, and advances the device clock.
    ///
    /// # Panics
    ///
    /// Panics if the batch's neural buffer was not published.
    pub fn execute_dag(&mut self, batch: BatchId, kernel: &CompiledKernel) -> ExecuteOutcome {
        let inputs =
            self.shared.take_neural(batch).expect("neural_ready must be set before REASON_execute");
        let program = kernel.program(&inputs);
        let report = VliwExecutor::new(self.config).execute(&program);
        self.shared.publish_symbolic(batch, vec![report.output]);
        self.now += report.cycles;
        self.completes_at.insert(batch, self.now);
        ExecuteOutcome::Dag { output: report.output, report }
    }

    /// `REASON_execute` for symbolic (SAT) work: the neural buffer is
    /// consumed as provenance (LLM-proposed facts), the formula solved on
    /// the BCP engine, and a 0/1 answer published.
    pub fn execute_sat(&mut self, batch: BatchId, cnf: &Cnf) -> ExecuteOutcome {
        let _provenance = self.shared.take_neural(batch);
        let (solution, report) = SymbolicEngine::new(self.config).solve(cnf);
        self.shared.publish_symbolic(batch, vec![f64::from(u8::from(solution.is_sat()))]);
        self.now += report.cycles;
        self.completes_at.insert(batch, self.now);
        ExecuteOutcome::Symbolic { solution, report }
    }

    /// `REASON_check_status(batch_id, blocking)`: compares the batch's
    /// completion time against the supplied host clock. With
    /// `blocking == true` the returned status is always `Idle` and the
    /// second component is the host's wait, in cycles.
    pub fn check_status(
        &self,
        batch: BatchId,
        host_cycles: u64,
        blocking: bool,
    ) -> (DeviceStatus, u64) {
        match self.completes_at.get(&batch) {
            None => (DeviceStatus::Idle, 0),
            Some(&done) => {
                if host_cycles >= done {
                    (DeviceStatus::Idle, 0)
                } else if blocking {
                    (DeviceStatus::Idle, done - host_cycles)
                } else {
                    (DeviceStatus::Executing, 0)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reason_compiler::ReasonCompiler;
    use reason_core::{DagBuilder, DagOp, NodeKind};
    use reason_sat::gen::random_ksat;

    fn device() -> (ReasonDevice, SharedMemory) {
        let shm = SharedMemory::new();
        (ReasonDevice::new(ArchConfig::paper(), shm.clone()), shm)
    }

    #[test]
    fn dag_execute_round_trip() {
        let (mut dev, shm) = device();
        let mut b = DagBuilder::new();
        let x = b.input(0);
        let y = b.input(1);
        let m = b.node(DagOp::Mul, &[x, y], NodeKind::Generic);
        let dag = b.build(m).unwrap();
        let kernel = ReasonCompiler::new(*dev.config()).compile(&dag).unwrap();

        shm.publish_neural(3, vec![6.0, 7.0]);
        let outcome = dev.execute_dag(3, &kernel);
        assert_eq!(shm.wait_symbolic(3), vec![42.0]);
        assert!(outcome.cycles() > 0);
    }

    #[test]
    fn sat_execute_publishes_answer() {
        let (mut dev, shm) = device();
        let cnf = random_ksat(10, 30, 3, 1);
        shm.publish_neural(0, vec![]);
        let outcome = dev.execute_sat(0, &cnf);
        let published = shm.wait_symbolic(0);
        match outcome {
            ExecuteOutcome::Symbolic { solution, .. } => {
                assert_eq!(published[0] == 1.0, solution.is_sat());
            }
            other => panic!("expected symbolic outcome, got {other:?}"),
        }
    }

    #[test]
    fn check_status_models_the_virtual_clock() {
        let (mut dev, shm) = device();
        let cnf = random_ksat(8, 24, 3, 2);
        shm.publish_neural(1, vec![]);
        let outcome = dev.execute_sat(1, &cnf);
        let done = outcome.cycles();
        // A host clock before completion sees Executing (non-blocking).
        assert_eq!(dev.check_status(1, 0, false).0, DeviceStatus::Executing);
        // Blocking returns Idle with the residual wait.
        let (status, wait) = dev.check_status(1, 0, true);
        assert_eq!(status, DeviceStatus::Idle);
        assert_eq!(wait, done);
        // After completion: Idle, no wait.
        assert_eq!(dev.check_status(1, done, false), (DeviceStatus::Idle, 0));
        // Unknown batches are idle.
        assert_eq!(dev.check_status(99, 0, false), (DeviceStatus::Idle, 0));
    }

    #[test]
    #[should_panic(expected = "neural_ready")]
    fn execute_without_neural_ready_panics() {
        let (mut dev, _shm) = device();
        let mut b = DagBuilder::new();
        let x = b.input(0);
        let dag = b.build(x).unwrap();
        let kernel = ReasonCompiler::new(*dev.config()).compile(&dag).unwrap();
        let _ = dev.execute_dag(0, &kernel);
    }
}
