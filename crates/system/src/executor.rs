//! The threaded batch executor (paper Sec. VI-C, made real).
//!
//! [`crate::pipeline::TwoLevelPipeline`] *models* the two-level pipeline
//! as a flow-shop schedule over per-task stage costs. This module
//! *executes* it: [`BatchExecutor`] runs a queue of neuro-symbolic tasks
//! on two thread pools — a neural pool computing the GPU-side stage
//! (`reason-neural` MLP forward passes or LLM-proxy costs) and a symbolic
//! pool dispatching to `reason-sat` cube-and-conquer or `reason-pc`
//! circuit inference — with genuine stage overlap: while the symbolic
//! pool conquers task `N`, the neural pool is already producing task
//! `N+1`'s results ("Multiple parallelable CDCLs", paper Fig. 9).
//!
//! Data moves between the pools through the paper's shared-memory flag
//! protocol ([`crate::sync::SharedMemory`], Sec. VI-B): a neural worker
//! publishes the batch's buffer and raises `neural_ready`; the dispatch
//! queue (a `crossbeam` channel) hands the batch id to a symbolic worker,
//! which consumes the buffer and runs the reasoning kernel.
//!
//! The executor measures wall-clock per stage and reports a
//! [`PipelineReport`]-compatible measurement, so the cost model's
//! predicted makespan can be validated against real execution
//! ([`BatchReport::predicted`] vs [`BatchReport::measured`]).
//!
//! ```
//! use reason_system::{BatchExecutor, ExecutorConfig};
//!
//! let tasks = reason_system::executor::demo_batch(4, 0);
//! // Serial reference: both stages inline on the caller thread.
//! let serial = BatchExecutor::new(ExecutorConfig::sequential()).run(&tasks);
//! // Overlapped execution with two symbolic workers.
//! let threaded = BatchExecutor::new(ExecutorConfig::overlapped(2)).run(&tasks);
//! // Threading changes the schedule, never the answers.
//! assert!(threaded.agrees_with(&serial));
//! assert_eq!(threaded.measured.tasks, 4);
//! ```

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel;
use crossbeam::thread;
use parking_lot::Mutex;
use reason_approx::{ApproxConfig, ApproxEngine};
use reason_neural::{LlmProxy, Matrix, Mlp, MlpBuilder};
use reason_pc::{
    compile_cnf, random_mixture_circuit, BatchBuffer, Circuit, Dnnf, EvalBuffer, Evidence,
    StructureConfig, WmcWeights,
};
use reason_sat::gen::random_ksat;
use reason_sat::{Cnf, CubeAndConquer, CubeConfig, Solution};
use reason_telemetry::Telemetry;

use crate::pipeline::{PipelineReport, StageCost, TwoLevelPipeline};
use crate::sync::SharedMemory;

/// The GPU-side (stage 1) work of one task.
#[derive(Debug, Clone)]
pub enum NeuralStage {
    /// A real MLP forward pass; the flattened output matrix becomes the
    /// neural buffer handed to the symbolic stage.
    Mlp {
        /// The network.
        mlp: Mlp,
        /// The input batch (rows = samples).
        input: Matrix,
    },
    /// An LLM cost-model evaluation on the companion GPU hosting the
    /// neural stage; the buffer is the modeled latency in seconds.
    Proxy {
        /// The model proxy.
        proxy: LlmProxy,
        /// Prompt tokens processed.
        prompt_tokens: u64,
        /// Output tokens generated.
        output_tokens: u64,
        /// Peak compute of the hosting GPU, in FLOP/s (e.g. `38.7e12`
        /// for the A6000-class host used across `reason-bench`).
        flops_per_sec: f64,
        /// Memory bandwidth of the hosting GPU, in bytes/s (e.g.
        /// `768e9` for the A6000 class).
        bytes_per_sec: f64,
    },
    /// A synthetic stage of known duration (sleeps), used to calibrate
    /// the executor against the cost model under controlled stage costs.
    Synthetic {
        /// How long the stage takes.
        duration: Duration,
    },
}

/// The REASON-side (stage 2) work of one task.
#[derive(Debug, Clone)]
pub enum SymbolicStage {
    /// SAT deduction via lookahead cube-and-conquer; `config.workers`
    /// adds intra-task parallelism on top of the executor's inter-task
    /// overlap (deterministic either way — see
    /// [`reason_sat::CubeAndConquer::solve`]).
    Sat {
        /// The formula.
        cnf: Cnf,
        /// Cube-and-conquer parameters.
        config: CubeConfig,
    },
    /// Probabilistic-circuit marginal inference: the log-probability of
    /// the evidence.
    Pc {
        /// The circuit.
        circuit: Circuit,
        /// The (partial) evidence to marginalize over.
        evidence: Evidence,
    },
    /// Approximate weighted model counting on the `reason-approx`
    /// engine: anytime-bounded WMC where exact compilation would not
    /// fit the latency budget. Seeded, so verdicts stay bit-identical
    /// across executor configurations.
    Approx {
        /// The formula.
        cnf: Cnf,
        /// Per-variable Bernoulli marginals, `probs[v] = p(X_v = 1)`.
        probs: Vec<f64>,
        /// Estimator configuration (method, budget, seed).
        config: ApproxConfig,
    },
    /// A whole batch of queries against one shared compiled knowledge
    /// base, answered through the batched d-DNNF path
    /// ([`Dnnf::query_batch`]): every probability-flavored lane and the
    /// three evidence columns of every marginal lane — whatever
    /// variables they ask about — share one slab and **one** sum-product
    /// traversal (per lane tile; duplicate columns collapse across
    /// kinds), and MPE lanes share one max-product pass. The traversal
    /// scratch is kept per executing thread. Per-query answers are
    /// bit-identical to evaluating the source circuit one query at a
    /// time — batching changes the schedule, never the verdicts. This
    /// is the lane `reason-serve` routes every exact query through; a
    /// single query is a batch of one.
    ServeBatch {
        /// The flat evaluation arena of the compiled knowledge base.
        arena: Arc<Dnnf>,
        /// The partition function `Pr[φ]` ([`Dnnf::wmc`]), shared by
        /// every posterior lane in the batch.
        z: f64,
        /// The queries, answered in order into [`Verdict::Batch`].
        queries: Vec<ServeQuery>,
    },
    /// A synthetic stage of known duration (sleeps).
    Synthetic {
        /// How long the stage takes.
        duration: Duration,
    },
}

/// What a served query asks of a compiled knowledge base: one lane of a
/// [`SymbolicStage::ServeBatch`] task. `reason-serve` routes queries of
/// this type under the name `QueryKind`.
#[derive(Debug, Clone)]
pub enum ServeQuery {
    /// The weighted model count `Pr[φ]`, answered from the task's `z`.
    Wmc,
    /// `Pr[φ ∧ e]` for partial evidence `e`.
    Probability(Evidence),
    /// `Pr[e | φ]`; reported as 0 for massless formulas.
    Posterior(Evidence),
    /// The marginal distribution of one variable given the evidence.
    Marginal(Evidence, usize),
    /// Most probable explanation completing the evidence.
    Mpe(Evidence),
}

/// One unit of work for the executor: a named neural/symbolic stage pair.
#[derive(Debug, Clone)]
pub struct BatchTask {
    /// Task label, carried into [`TaskResult`].
    pub name: String,
    /// Stage 1 (GPU pool).
    pub neural: NeuralStage,
    /// Stage 2 (symbolic pool).
    pub symbolic: SymbolicStage,
    /// Answer-by budget. Deadlined tasks are *dispatched*
    /// earliest-deadline-first ahead of deadline-free ones (see
    /// [`edf_order`]); results still come back in submission order and
    /// verdicts are unaffected — the deadline shapes the schedule only.
    pub deadline: Option<Duration>,
}

impl BatchTask {
    /// The same task carrying a dispatch deadline.
    #[cfg(test)]
    fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// The dispatch order the executor feeds its neural pool: tasks with
/// deadlines first, earliest deadline first (ties by submission index),
/// then deadline-free tasks in submission order. A batch without
/// deadlines dispatches exactly in submission order, so the reorder is
/// free for deadline-oblivious callers. `reason-serve`'s cluster relies
/// on this to drain each shard's admitted queue EDF: the queries
/// closest to their deadline clear the pipeline first, while results —
/// written into per-index slots — stay in submission order and the
/// [`BatchReport::agrees_with`] determinism contract is untouched.
pub fn edf_order(tasks: &[BatchTask]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by_key(|&i| (tasks[i].deadline.unwrap_or(Duration::MAX), i));
    order
}

/// The answer a task's symbolic stage produced. Stage computations are
/// deterministic, so verdicts compare bit-exactly across executor
/// configurations.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// SAT outcome (verdict plus model, if satisfiable).
    Sat(Solution),
    /// Log-probability of the evidence under the circuit.
    LogMarginal(f64),
    /// Approximate weighted model count with its anytime bracket.
    Wmc {
        /// Point estimate of the weighted model count.
        estimate: f64,
        /// Lower confidence bound.
        lower: f64,
        /// Upper confidence bound.
        upper: f64,
    },
    /// A marginal distribution (from a [`ServeQuery::Marginal`]).
    Distribution(Vec<f64>),
    /// A most-probable-explanation assignment (from a
    /// [`ServeQuery::Mpe`]).
    Assignment {
        /// The maximizing complete assignment.
        assignment: Vec<usize>,
        /// Its max-product log-probability.
        log_prob: f64,
    },
    /// Per-query verdicts of a [`SymbolicStage::ServeBatch`] task, in
    /// query order.
    Batch(Vec<Verdict>),
    /// The task's worker panicked. The panic is contained to this slot:
    /// the lane keeps draining and every other task in the batch still
    /// reports its real verdict.
    Failed {
        /// The panic payload, when it carried a message.
        reason: String,
    },
    /// A synthetic stage completed.
    Done,
}

/// Per-task execution record.
#[derive(Debug, Clone)]
pub struct TaskResult {
    /// The task's label.
    pub name: String,
    /// The symbolic answer.
    pub verdict: Verdict,
    /// The neural buffer that crossed shared memory.
    pub neural_output: Vec<f64>,
    /// Measured neural-stage duration in seconds.
    pub neural_s: f64,
    /// Measured symbolic-stage duration in seconds.
    pub symbolic_s: f64,
}

/// Worker-pool shape of a [`BatchExecutor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// Threads in the symbolic (stage 2) pool; the neural stage (one
    /// device in the paper's pipeline) always runs on one thread.
    pub symbolic_workers: usize,
    /// `false` runs both stages inline on the caller thread — the serial
    /// baseline the paper ablates against (no overlap, no pools).
    pub overlap: bool,
}

impl ExecutorConfig {
    /// The serial baseline: no threads, no overlap.
    pub fn sequential() -> Self {
        ExecutorConfig { symbolic_workers: 1, overlap: false }
    }

    /// The paper's two-level pipeline (one device per stage), widened to
    /// `symbolic_workers` parallel symbolic lanes.
    pub fn overlapped(symbolic_workers: usize) -> Self {
        ExecutorConfig { symbolic_workers: symbolic_workers.max(1), overlap: true }
    }
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig::overlapped(1)
    }
}

/// Result of one [`BatchExecutor::run`].
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-task records, in submission order (independent of completion
    /// order).
    pub results: Vec<TaskResult>,
    /// The measured schedule: `pipelined_s` is the observed wall-clock
    /// makespan, `serial_s` the sum of measured stage durations. Unlike a
    /// modeled [`PipelineReport`], the measured `overlap_gain` can dip
    /// slightly below zero in serial mode (scheduling overhead is in the
    /// wall clock but not in the stage sums).
    pub measured: PipelineReport,
}

impl BatchReport {
    /// The measured per-task stage costs, in submission order.
    fn stage_costs(&self) -> Vec<StageCost> {
        self.results
            .iter()
            .map(|r| StageCost { neural_s: r.neural_s, symbolic_s: r.symbolic_s })
            .collect()
    }

    /// What the flow-shop cost model predicts for the *measured* stage
    /// costs. With one symbolic lane the prediction is a lower bound on
    /// the measured makespan (the model has no scheduling overhead);
    /// extra symbolic workers can beat it, since the model assumes a
    /// single symbolic device.
    pub fn predicted(&self) -> PipelineReport {
        TwoLevelPipeline::new().schedule(&self.stage_costs())
    }

    /// The verdicts, in submission order.
    pub fn verdicts(&self) -> Vec<&Verdict> {
        self.results.iter().map(|r| &r.verdict).collect()
    }

    /// `true` iff both runs produced identical verdicts (and marginals)
    /// task by task — the executor's determinism contract across worker
    /// configurations.
    pub fn agrees_with(&self, other: &BatchReport) -> bool {
        self.results.len() == other.results.len()
            && self
                .results
                .iter()
                .zip(&other.results)
                .all(|(a, b)| a.name == b.name && a.verdict == b.verdict)
    }
}

/// The threaded two-level batch executor.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchExecutor {
    config: ExecutorConfig,
}

impl BatchExecutor {
    /// An executor with the given pool shape.
    pub fn new(config: ExecutorConfig) -> Self {
        BatchExecutor { config }
    }

    /// Executes every task and reports per-task verdicts plus the
    /// measured schedule. Results are ordered by submission index no
    /// matter which worker finished first.
    pub fn run(&self, tasks: &[BatchTask]) -> BatchReport {
        self.run_with_telemetry(tasks, None)
    }

    /// [`run`](Self::run) with an optional observability sink. When
    /// attached, the executor records (all counters lock-free on the
    /// hot path, nothing recorded when `telemetry` is `None`):
    ///
    /// * `executor_tasks_total{mode=overlap|serial}` — tasks executed;
    /// * `executor_edf_reorder_depth` — histogram of
    ///   `|dispatch position − submission index|` under [`edf_order`]
    ///   (0 everywhere for deadline-free batches); a pure function of
    ///   the batch's deadlines, so deterministic across runs;
    /// * `executor_lane_tasks_total{lane}` — per-symbolic-lane
    ///   occupancy (which worker drained each task; scheduling-
    ///   dependent, so *not* replay-deterministic);
    /// * `executor_stage_seconds{stage=neural|symbolic}` — measured
    ///   wall-clock stage durations;
    /// * the measured [`PipelineReport`] gauges via
    ///   [`PipelineReport::record_into`] under `schedule="measured"`.
    pub fn run_with_telemetry(
        &self,
        tasks: &[BatchTask],
        telemetry: Option<&Telemetry>,
    ) -> BatchReport {
        let start = Instant::now();
        // A one-task batch has nothing to overlap: skip the thread scope.
        let results = if self.config.overlap && tasks.len() > 1 {
            self.run_overlapped(tasks, telemetry)
        } else {
            run_serial(tasks)
        };
        let pipelined_s = start.elapsed().as_secs_f64();
        let serial_s: f64 = results.iter().map(|r| r.neural_s + r.symbolic_s).sum();
        let measured = PipelineReport { pipelined_s, serial_s, tasks: tasks.len() };
        if let Some(tel) = telemetry {
            let mode = if self.config.overlap { "overlap" } else { "serial" };
            tel.registry.counter("executor_tasks_total", &[("mode", mode)]).add(tasks.len() as u64);
            let depth = tel.registry.histogram("executor_edf_reorder_depth", &[]);
            for (pos, &i) in edf_order(tasks).iter().enumerate() {
                depth.record((pos as f64 - i as f64).abs());
            }
            let neural_h = tel.registry.histogram("executor_stage_seconds", &[("stage", "neural")]);
            let symbolic_h =
                tel.registry.histogram("executor_stage_seconds", &[("stage", "symbolic")]);
            for r in &results {
                neural_h.record(r.neural_s);
                symbolic_h.record(r.symbolic_s);
            }
            measured.record_into(&tel.registry, "measured");
        }
        BatchReport { results, measured }
    }

    /// Threaded path: one neural producer feeds `symbolic_workers`
    /// consumers through shared memory plus a ready queue.
    fn run_overlapped(
        &self,
        tasks: &[BatchTask],
        telemetry: Option<&Telemetry>,
    ) -> Vec<TaskResult> {
        let shm = SharedMemory::new();
        // Stage-1 work queue, pre-loaded with every task index.
        let (task_tx, task_rx) = channel::unbounded::<usize>();
        // Stage-2 ready queue: `neural_ready` notifications in completion
        // order, carrying the stage-1 outcome.
        let (ready_tx, ready_rx) = channel::unbounded::<(usize, NeuralOutcome)>();
        let slots: Vec<Mutex<Option<TaskResult>>> =
            tasks.iter().map(|_| Mutex::new(None)).collect();

        thread::scope(|scope| {
            // The neural worker owns the only ready-queue sender:
            // symbolic workers drain until it exits.
            let neural_shm = shm.clone();
            scope.spawn(move |_| {
                while let Ok(i) = task_rx.recv() {
                    // The buffer crosses through shared memory; the
                    // ready queue carries the rest of the outcome.
                    let mut neural = neural_stage(&tasks[i]);
                    neural_shm.publish_neural(i as u64, std::mem::take(&mut neural.buffer));
                    // Receivers only disappear if a symbolic worker
                    // died; the scope join will surface that.
                    let _ = ready_tx.send((i, neural));
                }
            });

            for lane in 0..self.config.symbolic_workers.max(1) {
                let ready_rx = ready_rx.clone();
                let shm = shm.clone();
                let slots = &slots;
                // The handle is created once per lane (registry lock),
                // then incremented lock-free inside the drain loop.
                let lane_tasks = telemetry.map(|t| {
                    t.registry.counter("executor_lane_tasks_total", &[("lane", &lane.to_string())])
                });
                scope.spawn(move |_| {
                    // One evaluation buffer per worker: every PC task
                    // this worker executes reuses it.
                    let mut eval_buf = EvalBuffer::new();
                    while let Ok((i, mut neural)) = ready_rx.recv() {
                        if let Some(c) = &lane_tasks {
                            c.inc();
                        }
                        neural.buffer = shm
                            .take_neural(i as u64)
                            .expect("neural_ready is raised before dispatch");
                        *slots[i].lock() = Some(symbolic_stage(&tasks[i], neural, &mut eval_buf));
                    }
                });
            }

            // Earliest-deadline-first dispatch: the queue is loaded in
            // EDF order, so deadline-pressed tasks reach the pools (and
            // clear them) first. Result slots are per-index, so the
            // report still reads in submission order.
            for i in edf_order(tasks) {
                task_tx.send(i).expect("neural pool outlives submission");
            }
            drop(task_tx);
        })
        .expect("executor workers joined");

        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every task produced a result"))
            .collect()
    }
}

/// Serial reference path: both stages inline. Executes in the same EDF
/// dispatch order as the threaded path; results are returned in
/// submission order either way.
fn run_serial(tasks: &[BatchTask]) -> Vec<TaskResult> {
    let mut eval_buf = EvalBuffer::new();
    let mut results: Vec<Option<TaskResult>> = tasks.iter().map(|_| None).collect();
    for i in edf_order(tasks) {
        results[i] = Some(symbolic_stage(&tasks[i], neural_stage(&tasks[i]), &mut eval_buf));
    }
    results.into_iter().map(|r| r.expect("every task executed")).collect()
}

/// What stage 1 of one task hands to stage 2.
struct NeuralOutcome {
    /// The neural buffer (empty when the stage panicked).
    buffer: Vec<f64>,
    neural_s: f64,
    /// The panic message, when the stage died.
    panicked: Option<String>,
}

/// Stage 1 of one task on either schedule. A panicking task yields an
/// empty buffer and carries the panic downstream; the lane itself keeps
/// draining.
fn neural_stage(task: &BatchTask) -> NeuralOutcome {
    let t0 = Instant::now();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| run_neural(&task.neural)));
    let neural_s = t0.elapsed().as_secs_f64();
    match outcome {
        Ok(buffer) => NeuralOutcome { buffer, neural_s, panicked: None },
        Err(payload) => {
            NeuralOutcome { buffer: Vec::new(), neural_s, panicked: Some(panic_message(&*payload)) }
        }
    }
}

/// Stage 2 of one task on either schedule, closing its result slot. A
/// panic here (or one carried from stage 1, which skips the stage)
/// fails only this slot.
fn symbolic_stage(
    task: &BatchTask,
    neural: NeuralOutcome,
    eval_buf: &mut EvalBuffer,
) -> TaskResult {
    let (verdict, symbolic_s) = match neural.panicked {
        Some(reason) => (Verdict::Failed { reason }, 0.0),
        None => {
            let t0 = Instant::now();
            let outcome =
                panic::catch_unwind(AssertUnwindSafe(|| run_symbolic(&task.symbolic, eval_buf)));
            let symbolic_s = t0.elapsed().as_secs_f64();
            match outcome {
                Ok(verdict) => (verdict, symbolic_s),
                Err(payload) => {
                    // The buffers may have been half-updated when the
                    // task died: start the lane fresh.
                    *eval_buf = EvalBuffer::new();
                    SERVE_SCRATCH.with(|buf| *buf.borrow_mut() = BatchBuffer::new());
                    (Verdict::Failed { reason: panic_message(&*payload) }, symbolic_s)
                }
            }
        }
    };
    TaskResult {
        name: task.name.clone(),
        verdict,
        neural_output: neural.buffer,
        neural_s: neural.neural_s,
        symbolic_s,
    }
}

/// Extracts the human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

fn run_neural(stage: &NeuralStage) -> Vec<f64> {
    match stage {
        NeuralStage::Mlp { mlp, input } => {
            mlp.forward(input).data().iter().map(|&x| f64::from(x)).collect()
        }
        NeuralStage::Proxy {
            proxy,
            prompt_tokens,
            output_tokens,
            flops_per_sec,
            bytes_per_sec,
        } => {
            let cost = proxy.cost(*prompt_tokens, *output_tokens, *flops_per_sec, *bytes_per_sec);
            vec![cost.seconds]
        }
        NeuralStage::Synthetic { duration } => {
            std::thread::sleep(*duration);
            Vec::new()
        }
    }
}

fn run_symbolic(stage: &SymbolicStage, eval_buf: &mut EvalBuffer) -> Verdict {
    match stage {
        SymbolicStage::Sat { cnf, config } => {
            Verdict::Sat(CubeAndConquer::new(cnf, config.clone()).solve().solution)
        }
        SymbolicStage::Pc { circuit, evidence } => {
            Verdict::LogMarginal(circuit.log_probability_with(evidence, eval_buf))
        }
        SymbolicStage::Approx { cnf, probs, config } => {
            let est = ApproxEngine::new(*config).wmc(cnf, &WmcWeights::new(probs.clone()));
            Verdict::Wmc { estimate: est.estimate, lower: est.lower, upper: est.upper }
        }
        SymbolicStage::ServeBatch { arena, z, queries } => run_serve_batch(arena, *z, queries),
        SymbolicStage::Synthetic { duration } => {
            std::thread::sleep(*duration);
            Verdict::Done
        }
    }
}

thread_local! {
    /// The batched kernels' scratch tables, one per executing thread:
    /// they outlive the task, so a thread's serve batches after its
    /// first allocate nothing for the traversal.
    static SERVE_SCRATCH: RefCell<BatchBuffer> = RefCell::new(BatchBuffer::new());
}

/// Answers a whole query batch against one shared arena with the
/// batched d-DNNF kernel [`Dnnf::query_batch`]: probability, posterior
/// and marginal lanes — whatever variables the marginals ask about —
/// ride one slab through **one** sum-product traversal (per lane tile),
/// and MPE lanes share one max-product pass. Lanes are packed straight
/// from the task's evidence. Every per-query verdict is bit-identical
/// to evaluating the source circuit on that query alone: the batched
/// kernels replicate the single-query operation order per lane, and
/// the arena itself evaluates bit-identically to the source circuit.
fn run_serve_batch(arena: &Dnnf, z: f64, queries: &[ServeQuery]) -> Verdict {
    let mut verdicts: Vec<Option<Verdict>> = vec![None; queries.len()];
    let degenerate = |p: f64| Verdict::Wmc { estimate: p, lower: p, upper: p };

    // Partition the batch into lanes per answer kind, remembering each
    // lane's query index. `Wmc` asks for the partition function itself
    // — the task carries it, no lane needed.
    let (mut prob, mut prob_at) = (Vec::new(), Vec::new()); // at: (query, is_posterior)
    let (mut marginal, mut marginal_at) = (Vec::new(), Vec::new());
    let (mut mpe, mut mpe_at) = (Vec::new(), Vec::new());
    for (q, query) in queries.iter().enumerate() {
        match query {
            ServeQuery::Wmc => verdicts[q] = Some(degenerate(z)),
            ServeQuery::Probability(ev) | ServeQuery::Posterior(ev) => {
                prob.push(ev);
                prob_at.push((q, matches!(query, ServeQuery::Posterior(_))));
            }
            ServeQuery::Marginal(ev, var) => {
                marginal.push((ev, *var));
                marginal_at.push(q);
            }
            ServeQuery::Mpe(ev) => {
                mpe.push(ev);
                mpe_at.push(q);
            }
        }
    }

    let (ps, dists, results) =
        SERVE_SCRATCH.with(|buf| arena.query_batch(&prob, &marginal, &mpe, &mut buf.borrow_mut()));
    for ((q, posterior), p) in prob_at.into_iter().zip(ps) {
        // Posterior of a massless formula: no conditional exists;
        // report 0.
        let ans = if !posterior {
            p
        } else if z == 0.0 {
            0.0
        } else {
            p / z
        };
        verdicts[q] = Some(degenerate(ans));
    }
    for (q, dist) in marginal_at.into_iter().zip(dists) {
        verdicts[q] = Some(Verdict::Distribution(dist));
    }
    for (q, res) in mpe_at.into_iter().zip(results) {
        verdicts[q] =
            Some(Verdict::Assignment { assignment: res.assignment, log_prob: res.log_prob });
    }
    Verdict::Batch(verdicts.into_iter().map(|v| v.expect("every query answered")).collect())
}

/// A seeded mixed batch with MLP neural stages — the workload the
/// `reason-eval pipeline` experiment drives.
/// Lanes rotate four symbolic stages: SAT cube-and-conquer, exact PC
/// marginal inference, anytime approximate WMC (a trimmed-budget
/// [`ApproxConfig`], so demo batches stay interactive), and serve
/// queries against one shared compiled knowledge base (the same
/// `Arc<Dnnf>` arena across every serve task, exercising cross-thread
/// sharing).
pub fn demo_batch(tasks: usize, seed: u64) -> Vec<BatchTask> {
    // The serve lane's knowledge base: compiled once, shared by every
    // serve task in the batch. Walk seeds until the formula carries
    // mass so the batch is usable at any seed. Built only when the
    // batch is long enough to reach the serve lane (i = 4k + 3).
    let serve_kb = (tasks > 3).then(|| {
        let mut s = seed + 900_000;
        loop {
            let cnf = random_ksat(13, 34, 3, s);
            let probs: Vec<f64> = (0..13).map(|v| 0.4 + 0.02 * v as f64).collect();
            if let Some(circuit) = compile_cnf(&cnf, &WmcWeights::new(probs)) {
                let arena = Dnnf::from_circuit(&circuit).expect("compiled formulas are binary");
                let z = arena.wmc();
                break (Arc::new(arena), z);
            }
            s += 1;
        }
    });
    (0..tasks)
        .map(|i| {
            let s = seed + 1000 * i as u64;
            let mlp =
                MlpBuilder::new(16).layer(32, true, s).layer(8, false, s + 1).softmax().build();
            let input = Matrix::random(4, 16, 1.0, s + 2);
            let neural = NeuralStage::Mlp { mlp, input };
            let symbolic = match i % 4 {
                0 => SymbolicStage::Sat {
                    cnf: random_ksat(12, 50, 3, s + 3),
                    config: CubeConfig { max_depth: 3, ..CubeConfig::default() },
                },
                1 => {
                    let circuit = random_mixture_circuit(&StructureConfig {
                        num_vars: 8,
                        depth: 3,
                        num_components: 2,
                        seed: s + 4,
                    });
                    // PC tasks land at i = 4k + 1, so alternate the
                    // evidence value per PC task, not per task index.
                    let mut evidence = Evidence::empty(8);
                    evidence.set(0, (i / 4) % 2);
                    SymbolicStage::Pc { circuit, evidence }
                }
                2 => SymbolicStage::Approx {
                    cnf: random_ksat(14, 40, 3, s + 5),
                    probs: (0..14).map(|v| 0.35 + 0.02 * v as f64).collect(),
                    config: demo_approx_config(s + 6),
                },
                _ => {
                    // Serve tasks land at i = 4k + 3: alternate the
                    // conditioned value per serve task.
                    let mut evidence = Evidence::empty(13);
                    evidence.set(0, (i / 4) % 2);
                    let (arena, z) = serve_kb.as_ref().expect("serve lane implies tasks > 3");
                    SymbolicStage::ServeBatch {
                        arena: Arc::clone(arena),
                        z: *z,
                        queries: vec![ServeQuery::Posterior(evidence)],
                    }
                }
            };
            BatchTask { name: format!("task-{i}"), neural, symbolic, deadline: None }
        })
        .collect()
}

/// The trimmed approximate-inference budget demo batches run with:
/// small enough to keep executor tests and smoke runs interactive,
/// still seeded and anytime-bounded.
pub fn demo_approx_config(seed: u64) -> ApproxConfig {
    ApproxConfig {
        sampling: reason_approx::SampleConfig { samples: 2048, checkpoint: 256, seed },
        adapt: reason_approx::AdaptConfig { rounds: 4, batch: 256, components: 4 },
        ..ApproxConfig::default()
    }
}

/// A batch of synthetic tasks with controlled stage durations, given as
/// `(neural_ms, symbolic_ms)` pairs — the calibration workload for
/// validating the flow-shop cost model against measured execution.
pub fn synthetic_batch(costs: &[(u64, u64)]) -> Vec<BatchTask> {
    costs
        .iter()
        .enumerate()
        .map(|(i, &(n_ms, s_ms))| BatchTask {
            name: format!("synthetic-{i}"),
            neural: NeuralStage::Synthetic { duration: Duration::from_millis(n_ms) },
            symbolic: SymbolicStage::Synthetic { duration: Duration::from_millis(s_ms) },
            deadline: None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use reason_pc::CompiledWmc;

    #[test]
    fn parallel_verdicts_match_sequential() {
        let tasks = demo_batch(6, 7);
        let serial = BatchExecutor::new(ExecutorConfig::sequential()).run(&tasks);
        for workers in [1, 2, 4] {
            let threaded = BatchExecutor::new(ExecutorConfig::overlapped(workers)).run(&tasks);
            assert!(threaded.agrees_with(&serial), "workers = {workers}");
            // The buffers that crossed shared memory are identical too.
            for (a, b) in threaded.results.iter().zip(&serial.results) {
                assert_eq!(a.neural_output, b.neural_output);
            }
        }
    }

    #[test]
    fn panicking_task_fails_its_slot_and_lanes_keep_draining() {
        // Task 1's symbolic stage panics deliberately: the evidence
        // arity (4) does not match the circuit (8 vars), which trips
        // the `evidence arity mismatch` assert inside evaluation.
        let mut tasks = demo_batch(6, 7);
        let circuit = random_mixture_circuit(&StructureConfig {
            num_vars: 8,
            depth: 3,
            num_components: 2,
            seed: 99,
        });
        tasks[1] = BatchTask {
            name: "poison".to_string(),
            neural: tasks[1].neural.clone(),
            symbolic: SymbolicStage::Pc { circuit, evidence: Evidence::empty(4) },
            deadline: None,
        };

        let reference = BatchExecutor::new(ExecutorConfig::sequential())
            .run(&demo_batch(6, 7).into_iter().filter(|t| t.name != "task-1").collect::<Vec<_>>());
        for config in [
            ExecutorConfig::sequential(),
            ExecutorConfig::overlapped(1),
            ExecutorConfig::overlapped(2),
            ExecutorConfig::overlapped(4),
        ] {
            let report = BatchExecutor::new(config).run(&tasks);
            assert_eq!(report.results.len(), tasks.len(), "no slot lost to the panic");
            match &report.results[1].verdict {
                Verdict::Failed { reason } => {
                    assert!(reason.contains("arity"), "unexpected panic message: {reason}");
                }
                other => panic!("poisoned slot must fail, got {other:?}"),
            }
            // Every healthy task still answers, identically to a run
            // that never saw the poisoned task.
            let healthy: Vec<&Verdict> =
                report.results.iter().filter(|r| r.name != "poison").map(|r| &r.verdict).collect();
            assert_eq!(healthy.len(), reference.results.len(), "{config:?}");
            for (got, want) in healthy.iter().zip(&reference.results) {
                assert_eq!(**got, want.verdict, "{config:?}");
            }
        }
    }

    #[test]
    fn neural_stage_panic_is_contained_too() {
        let mut tasks = demo_batch(4, 3);
        // An MLP input whose width (8) does not match the layer (16)
        // panics inside the forward pass — on the neural pool.
        let mlp = MlpBuilder::new(16).layer(8, false, 5).build();
        tasks[2] = BatchTask {
            name: "poison-neural".to_string(),
            neural: NeuralStage::Mlp { mlp, input: Matrix::random(4, 8, 1.0, 5) },
            symbolic: tasks[2].symbolic.clone(),
            deadline: None,
        };
        for config in [ExecutorConfig::sequential(), ExecutorConfig::overlapped(2)] {
            let report = BatchExecutor::new(config).run(&tasks);
            assert!(matches!(report.results[2].verdict, Verdict::Failed { .. }));
            assert!(report.results[2].neural_output.is_empty());
            for (i, r) in report.results.iter().enumerate() {
                if i != 2 {
                    assert!(!matches!(r.verdict, Verdict::Failed { .. }), "slot {i} infected");
                }
            }
        }
    }

    #[test]
    fn results_come_back_in_submission_order() {
        // Front-load a slow task: with two symbolic lanes it finishes
        // last, but must still be reported first.
        let tasks = synthetic_batch(&[(1, 40), (1, 5), (1, 5), (1, 5)]);
        let report = BatchExecutor::new(ExecutorConfig::overlapped(2)).run(&tasks);
        let names: Vec<&str> = report.results.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["synthetic-0", "synthetic-1", "synthetic-2", "synthetic-3"]);
    }

    #[test]
    fn overlap_hides_a_stage_on_balanced_synthetic_tasks() {
        // 6 tasks x (15 ms + 15 ms): serial ~180 ms, flow shop ~105 ms.
        // Bounds are deliberately loose (flow-shop ratio is ~0.58) so a
        // loaded CI runner delaying sleep wakeups by tens of ms cannot
        // flake the test; the measured serial_s stretches together with
        // the makespan under contention, keeping the ratio stable.
        let tasks = synthetic_batch(&[(15, 15); 6]);
        let report = BatchExecutor::new(ExecutorConfig::overlapped(1)).run(&tasks);
        assert!(
            report.measured.pipelined_s < report.measured.serial_s * 0.92,
            "overlap should hide a large part of one stage: {:?}",
            report.measured
        );
        // The cost model's prediction from the measured stage costs is a
        // lower bound on (and close to) the measured makespan.
        let predicted = report.predicted();
        assert!(predicted.pipelined_s <= report.measured.pipelined_s * 1.05);
    }

    #[test]
    fn cost_model_ordering_matches_measured_ordering() {
        // Satellite check for the overlap_gain contract: on synthetic
        // tasks with controlled stage costs, the cost model's predicted
        // makespans must order the two batches the same way the measured
        // wall clocks do, and each predicted gain must land in the
        // modeled [0, 1) range while approximating the measurement.
        let balanced = synthetic_batch(&[(12, 12); 5]); // high overlap gain
        let lopsided = synthetic_batch(&[(2, 22); 5]); // symbolic-bound, low gain
        let exec = BatchExecutor::new(ExecutorConfig::overlapped(1));
        let (rb, rl) = (exec.run(&balanced), exec.run(&lopsided));
        let (pb, pl) = (rb.predicted(), rl.predicted());
        for p in [&pb, &pl] {
            assert!((0.0..1.0).contains(&p.overlap_gain()), "modeled gain in [0,1): {p:?}");
        }
        // The balanced batch overlaps better, predicted and measured.
        assert!(pb.overlap_gain() > pl.overlap_gain());
        assert!(rb.measured.overlap_gain() > rl.measured.overlap_gain());
        // Prediction tracks measurement: a lower bound (no scheduling
        // overhead in the model), with generous slack on the other side
        // so oversleep on a contended CI runner cannot flake the test.
        for (predicted, measured) in [(&pb, &rb.measured), (&pl, &rl.measured)] {
            assert!(predicted.pipelined_s <= measured.pipelined_s * 1.05);
            assert!(predicted.pipelined_s >= measured.pipelined_s * 0.25);
        }
    }

    #[test]
    fn sequential_mode_has_no_overlap() {
        let tasks = synthetic_batch(&[(5, 5); 4]);
        let report = BatchExecutor::new(ExecutorConfig::sequential()).run(&tasks);
        // Wall clock covers the full serial sum (plus scheduling slack).
        assert!(report.measured.pipelined_s >= report.measured.serial_s * 0.99);
    }

    #[test]
    fn empty_batch_reports_zero_tasks() {
        let report = BatchExecutor::new(ExecutorConfig::overlapped(3)).run(&[]);
        assert!(report.results.is_empty());
        assert_eq!(report.measured.tasks, 0);
        assert_eq!(report.measured.serial_s, 0.0);
    }

    #[test]
    fn approx_lane_reports_bracketed_wmc_deterministically() {
        let tasks = vec![BatchTask {
            name: "approx".into(),
            neural: NeuralStage::Synthetic { duration: Duration::from_millis(1) },
            symbolic: SymbolicStage::Approx {
                cnf: random_ksat(12, 36, 3, 9),
                probs: vec![0.5; 12],
                config: demo_approx_config(42),
            },
            deadline: None,
        }];
        let serial = BatchExecutor::new(ExecutorConfig::sequential()).run(&tasks);
        let threaded = BatchExecutor::new(ExecutorConfig::overlapped(2)).run(&tasks);
        // Seeded estimation: identical verdicts bit-for-bit across pool
        // shapes, and the bracket is well-formed.
        assert!(threaded.agrees_with(&serial));
        match &serial.results[0].verdict {
            Verdict::Wmc { estimate, lower, upper } => {
                assert!(lower <= estimate && estimate <= upper);
                assert!((0.0..=1.0).contains(lower) && (0.0..=1.0).contains(upper));
            }
            other => panic!("expected a WMC verdict, got {other:?}"),
        }
    }

    #[test]
    fn demo_batch_rotates_all_four_symbolic_lanes() {
        let tasks = demo_batch(8, 0);
        assert!(matches!(tasks[0].symbolic, SymbolicStage::Sat { .. }));
        assert!(matches!(tasks[1].symbolic, SymbolicStage::Pc { .. }));
        assert!(matches!(tasks[2].symbolic, SymbolicStage::Approx { .. }));
        assert!(matches!(tasks[3].symbolic, SymbolicStage::ServeBatch { .. }));
        // Every serve task shares the *same* compiled arena.
        let (
            SymbolicStage::ServeBatch { arena: a, .. },
            SymbolicStage::ServeBatch { arena: b, .. },
        ) = (&tasks[3].symbolic, &tasks[7].symbolic)
        else {
            panic!("serve lanes at i = 4k + 3");
        };
        assert!(Arc::ptr_eq(a, b), "serve tasks share one compiled KB");
        let report = BatchExecutor::new(ExecutorConfig::overlapped(2)).run(&tasks);
        // Serve tasks answer their one lane inside a batch verdict.
        let verdicts: Vec<&Verdict> = report
            .verdicts()
            .into_iter()
            .flat_map(|v| match v {
                Verdict::Batch(lanes) => lanes.iter().collect(),
                other => vec![other],
            })
            .collect();
        let wmc = verdicts.iter().filter(|v| matches!(v, Verdict::Wmc { .. })).count();
        assert_eq!(wmc, 4, "two approx + two serve verdicts");
        // Serve lanes report degenerate brackets, approx lanes real ones.
        let exact = verdicts
            .iter()
            .filter(|v| {
                matches!(v, Verdict::Wmc { estimate, lower, upper }
                if lower == estimate && estimate == upper)
            })
            .count();
        assert_eq!(exact, 2);
    }

    #[test]
    fn serve_batch_stage_matches_per_query_serve_tasks() {
        let cnf = random_ksat(10, 26, 3, 8);
        let weights = WmcWeights::new((0..10).map(|v| 0.3 + 0.04 * v as f64).collect());
        let mut oracle = CompiledWmc::new(&cnf, &weights);
        assert!(oracle.has_mass(), "seed 8 instance must carry mass");
        let circuit = oracle.circuit().expect("mass implies circuit").clone();
        let arena = Arc::new(Dnnf::from_circuit(&circuit).unwrap());
        let mut ev = Evidence::empty(10);
        ev.set(1, 1);
        let mut other = Evidence::empty(10);
        other.set(3, 0).set(6, 1);
        let queries = vec![
            ServeQuery::Wmc,
            ServeQuery::Probability(ev.clone()),
            ServeQuery::Posterior(ev.clone()),
            ServeQuery::Marginal(ev.clone(), 4),
            ServeQuery::Marginal(other.clone(), 4),
            ServeQuery::Marginal(other.clone(), 7),
            ServeQuery::Mpe(ev.clone()),
            ServeQuery::Posterior(ev.clone()), // duplicate lane
        ];
        // Reference: the oracle (and its source circuit) asked one
        // query at a time.
        let degenerate = |p: f64| Verdict::Wmc { estimate: p, lower: p, upper: p };
        let per_query: Vec<Verdict> = queries
            .iter()
            .map(|query| match query {
                ServeQuery::Wmc => degenerate(oracle.wmc()),
                ServeQuery::Probability(ev) => degenerate(oracle.probability(ev)),
                ServeQuery::Posterior(ev) => degenerate(oracle.posterior(ev).unwrap()),
                ServeQuery::Marginal(ev, var) => Verdict::Distribution(circuit.marginal(ev, *var)),
                ServeQuery::Mpe(ev) => {
                    let res = circuit.mpe(ev);
                    Verdict::Assignment { assignment: res.assignment, log_prob: res.log_prob }
                }
            })
            .collect();
        let batched = vec![BatchTask {
            name: "batch".into(),
            neural: NeuralStage::Synthetic { duration: Duration::from_millis(1) },
            symbolic: SymbolicStage::ServeBatch { arena, z: oracle.wmc(), queries },
            deadline: None,
        }];
        let report = BatchExecutor::new(ExecutorConfig::sequential()).run(&batched);
        let Verdict::Batch(answers) = &report.results[0].verdict else {
            panic!("ServeBatch reports a batch verdict");
        };
        assert_eq!(answers, &per_query, "batched lanes ≡ per-query oracle answers");
        let Verdict::Assignment { assignment, .. } = &answers[6] else {
            panic!("lane 6 is the MPE query");
        };
        let model: Vec<bool> = assignment.iter().map(|&v| v == 1).collect();
        assert!(cnf.eval(&model), "served MPE must satisfy the formula");
        // And the threaded executor agrees with the serial one.
        let threaded = BatchExecutor::new(ExecutorConfig::overlapped(3)).run(&batched);
        assert!(threaded.agrees_with(&report));
    }

    /// A serve arena with mass, its source circuit and its `Pr[φ]`.
    fn serve_kb(n: usize) -> (Circuit, Arc<Dnnf>, f64) {
        let cnf = random_ksat(n, 2 * n + 6, 3, 8);
        let weights = WmcWeights::new((0..n).map(|v| 0.3 + 0.04 * v as f64).collect());
        let circuit = compile_cnf(&cnf, &weights).expect("seed 8 instance must carry mass");
        let arena = Arc::new(Dnnf::from_circuit(&circuit).unwrap());
        let z = circuit.probability(&Evidence::empty(n));
        (circuit, arena, z)
    }

    fn serve_task(name: &str, arena: &Arc<Dnnf>, z: f64, queries: Vec<ServeQuery>) -> BatchTask {
        BatchTask {
            name: name.into(),
            neural: NeuralStage::Synthetic { duration: Duration::ZERO },
            symbolic: SymbolicStage::ServeBatch { arena: Arc::clone(arena), z, queries },
            deadline: None,
        }
    }

    #[test]
    fn serve_batch_of_a_single_query_kind_needs_no_other_lanes() {
        let (circuit, arena, z) = serve_kb(10);
        let mut ev = Evidence::empty(10);
        ev.set(1, 1);
        let mpe = circuit.mpe(&ev);
        let cases = [
            (vec![ServeQuery::Wmc; 3], Verdict::Wmc { estimate: z, lower: z, upper: z }),
            (vec![ServeQuery::Marginal(ev.clone(), 4); 2], {
                Verdict::Distribution(circuit.marginal(&ev, 4))
            }),
            (
                vec![ServeQuery::Mpe(ev.clone())],
                Verdict::Assignment { assignment: mpe.assignment, log_prob: mpe.log_prob },
            ),
            (Vec::new(), Verdict::Done),
        ];
        for (queries, want) in cases {
            let lanes = queries.len();
            let report = BatchExecutor::new(ExecutorConfig::sequential())
                .run(&[serve_task("one-kind", &arena, z, queries)]);
            assert_eq!(report.results[0].verdict, Verdict::Batch(vec![want; lanes]));
        }
    }

    #[test]
    fn panicking_serve_batch_leaves_the_threads_next_batch_correct() {
        let (_, arena, z) = serve_kb(10);
        let mut ev = Evidence::empty(10);
        ev.set(2, 0).set(5, 1);
        let good = vec![
            ServeQuery::Posterior(ev.clone()),
            ServeQuery::Marginal(ev.clone(), 3),
            ServeQuery::Mpe(ev.clone()),
        ];
        // Variable 10 does not exist: the kernel's range assert fires
        // after the thread's scratch has been borrowed.
        let poison = vec![ServeQuery::Probability(ev.clone()), ServeQuery::Marginal(ev, 10)];
        let tasks = [
            serve_task("before", &arena, z, good.clone()),
            serve_task("poison", &arena, z, poison),
            serve_task("after", &arena, z, good),
        ];
        // Inline, and one symbolic worker: all three tasks share a thread.
        for config in [ExecutorConfig::sequential(), ExecutorConfig::overlapped(1)] {
            let report = BatchExecutor::new(config).run(&tasks);
            match &report.results[1].verdict {
                Verdict::Failed { reason } => {
                    assert!(reason.contains("out of range"), "unexpected panic message: {reason}");
                }
                other => panic!("poisoned slot must fail, got {other:?}"),
            }
            assert!(
                matches!(&report.results[0].verdict, Verdict::Batch(lanes) if lanes.len() == 3)
            );
            assert_eq!(report.results[2].verdict, report.results[0].verdict, "{config:?}");
        }
    }

    #[test]
    fn proxy_stage_publishes_modeled_latency() {
        let tasks = vec![BatchTask {
            name: "proxy".into(),
            neural: NeuralStage::Proxy {
                proxy: LlmProxy::preset("7B"),
                prompt_tokens: 128,
                output_tokens: 32,
                flops_per_sec: 38.7e12,
                bytes_per_sec: 768e9,
            },
            symbolic: SymbolicStage::Synthetic { duration: Duration::from_millis(1) },
            deadline: None,
        }];
        let report = BatchExecutor::new(ExecutorConfig::default()).run(&tasks);
        assert_eq!(report.results[0].neural_output.len(), 1);
        assert!(report.results[0].neural_output[0] > 0.0);
    }

    #[test]
    fn edf_order_front_runs_deadlined_tasks() {
        let mut tasks = synthetic_batch(&[(1, 1); 5]);
        tasks[1] = tasks[1].clone().with_deadline(Duration::from_millis(20));
        tasks[4] = tasks[4].clone().with_deadline(Duration::from_millis(5));
        tasks[2] = tasks[2].clone().with_deadline(Duration::from_millis(20));
        // Deadlines first (earliest first, ties by index), then the
        // deadline-free tail in submission order.
        assert_eq!(edf_order(&tasks), vec![4, 1, 2, 0, 3]);
        // No deadlines anywhere → pure submission order.
        assert_eq!(edf_order(&synthetic_batch(&[(1, 1); 4])), vec![0, 1, 2, 3]);
    }

    #[test]
    fn telemetry_records_lanes_reorder_depth_and_pipeline_gauges() {
        use reason_telemetry::{MetricValue, Telemetry};
        let tel = Telemetry::wall();
        let mut tasks = synthetic_batch(&[(1, 2); 4]);
        tasks[3] = tasks[3].clone().with_deadline(Duration::from_millis(1));
        let report = BatchExecutor::new(ExecutorConfig::overlapped(2))
            .run_with_telemetry(&tasks, Some(&tel));
        assert_eq!(report.results.len(), 4);

        let snap = tel.registry.snapshot();
        let counter_sum = |name: &str| -> u64 {
            snap.iter()
                .filter(|m| m.name == name)
                .map(|m| match &m.value {
                    MetricValue::Counter(v) => *v,
                    _ => 0,
                })
                .sum()
        };
        assert_eq!(counter_sum("executor_tasks_total"), 4);
        // Every task is drained by exactly one symbolic lane.
        assert_eq!(counter_sum("executor_lane_tasks_total"), 4);
        // EDF pulled task 3 to the front: dispatch order [3, 0, 1, 2]
        // has depths [3, 1, 1, 1].
        let depth = snap
            .iter()
            .find(|m| m.name == "executor_edf_reorder_depth")
            .expect("reorder depth histogram");
        let MetricValue::Histogram(h) = &depth.value else { panic!("histogram") };
        assert_eq!(h.count, 4);
        // Measured pipeline gauges landed with documented units.
        assert!(snap.iter().any(|m| m.name == "pipeline_overlap_gain"
            && m.labels == vec![("schedule".to_string(), "measured".to_string())]));
        assert!(snap.iter().any(|m| m.name == "pipeline_makespan_seconds"));
        // Stage histograms saw every task once per stage.
        let stage_count: u64 = snap
            .iter()
            .filter(|m| m.name == "executor_stage_seconds")
            .map(|m| match &m.value {
                MetricValue::Histogram(h) => h.count,
                _ => 0,
            })
            .sum();
        assert_eq!(stage_count, 8);
    }

    #[test]
    fn one_task_batch_runs_inline_under_an_overlapped_config() {
        use reason_telemetry::{MetricValue, Telemetry};
        // One task has nothing to overlap: no symbolic lane is spawned,
        // so no lane counter exists, while `executor_tasks_total` keeps
        // the configured mode.
        let tasks = demo_batch(1, 5);
        let tel = Telemetry::wall();
        let threaded = BatchExecutor::new(ExecutorConfig::overlapped(2))
            .run_with_telemetry(&tasks, Some(&tel));
        let serial = BatchExecutor::new(ExecutorConfig::sequential()).run(&tasks);
        assert!(threaded.agrees_with(&serial));
        let snap = tel.registry.snapshot();
        assert!(snap.iter().all(|m| m.name != "executor_lane_tasks_total"));
        let total = snap.iter().find(|m| m.name == "executor_tasks_total").expect("task counter");
        assert_eq!(total.labels, vec![("mode".to_string(), "overlap".to_string())]);
        assert!(matches!(total.value, MetricValue::Counter(1)));
    }

    #[test]
    fn edf_dispatch_preserves_submission_order_results_and_verdicts() {
        // Give the demo batch a scrambled deadline profile and check the
        // determinism contract survives the reorder on every pool shape.
        let mut tasks = demo_batch(6, 7);
        let deadlines = [None, Some(3), None, Some(50), Some(1), None];
        for (task, d) in tasks.iter_mut().zip(deadlines) {
            task.deadline = d.map(Duration::from_millis);
        }
        let plain = BatchExecutor::new(ExecutorConfig::sequential()).run(&demo_batch(6, 7));
        let serial = BatchExecutor::new(ExecutorConfig::sequential()).run(&tasks);
        let threaded = BatchExecutor::new(ExecutorConfig::overlapped(2)).run(&tasks);
        assert!(serial.agrees_with(&plain), "deadlines shape the schedule, not the answers");
        assert!(threaded.agrees_with(&serial));
        let names: Vec<&str> = serial.results.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["task-0", "task-1", "task-2", "task-3", "task-4", "task-5"]);
    }
}
