//! `reason-system` — system integration of the REASON co-processor
//! (paper Sec. VI).
//!
//! REASON sits beside GPU SMs as a programmable co-processor. Integration
//! has three pieces, each modeled here:
//!
//! * [`sync`] — the shared-memory flag protocol: the GPU writes neural
//!   results and raises `neural_ready`; REASON polls, consumes, executes,
//!   writes back, and raises `symbolic_ready` (paper Sec. VI-B
//!   "Synchronization").
//! * [`device`] — the programming model: [`ReasonDevice::execute_dag`] /
//!   [`ReasonDevice::execute_sat`] and [`ReasonDevice::check_status`]
//!   mirror the paper's `REASON_execute` / `REASON_check_status` C++
//!   interface (Listing 1), dispatching to the cycle-level engines of
//!   `reason-arch` by reasoning mode. Nothing outside this module's
//!   tests, the workspace integration test and the examples drives the
//!   device: it is the model of Listing 1, kept as that.
//! * [`pipeline`] — the two-level execution pipeline (paper Sec. VI-C):
//!   task-level overlap of GPU neural work for batch `N+1` with REASON
//!   symbolic work for batch `N`, on top of the intra-REASON pipelining
//!   already modeled in `reason-arch`. This is the *cost model*: a
//!   two-stage flow-shop schedule over per-task stage costs.
//! * [`executor`] — the cost model made real: [`BatchExecutor`] runs
//!   mixed batches (SAT, PC inference, approximate WMC, and serve
//!   queries against shared compiled knowledge bases) with the caller
//!   as the neural stage and `n` symbolic lanes, for genuine
//!   thread-level stage overlap (with no lane, or a one-task batch, both
//!   stages run inline on the caller), moves data through the
//!   [`sync`] flag protocol, and reports measured schedules in the same
//!   [`PipelineReport`] vocabulary so model and execution can be
//!   compared directly.
//!
//! See `docs/ARCHITECTURE.md` at the workspace root for where this
//! crate sits in the end-to-end dataflow.

pub mod device;
pub mod executor;
pub mod pipeline;
pub mod sync;

pub use device::{BatchId, DeviceStatus, ExecuteOutcome, ReasonDevice};
pub use executor::{
    demo_approx_config, demo_batch, edf_order, synthetic_batch, BatchExecutor, BatchReport,
    BatchTask, ExecutorConfig, NeuralStage, ServeQuery, SymbolicStage, TaskResult, Verdict,
};
pub use pipeline::{PipelineReport, StageCost, TwoLevelPipeline};
pub use sync::SharedMemory;
