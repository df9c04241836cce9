//! The only file that names the program's APIs: one thin function per
//! rung, each timing exactly the public call it wraps and handing back
//! plain data. Everything else in the benchmark goes through here, so
//! a PR that collapses an API edits this file and nothing else — and
//! can read below which entry points the benchmark holds load-bearing.
//!
//! Pinned signatures (ROADMAP item 2 names these as the survivors):
//!
//! | rung | call |
//! |---|---|
//! | compile | `reason_pc::compile_cnf(&Cnf, &WmcWeights) -> Option<Circuit>` |
//! | flatten | `reason_pc::Dnnf::from_circuit(&Circuit) -> Result<Dnnf, _>` |
//! | pack | `reason_pc::DnnfBatch::pack(&[Evidence]) -> DnnfBatch` |
//! | batched eval | `reason_pc::Dnnf::{wmc_batch, marginal_batch, mpe_batch}(&DnnfBatch, .., &mut BatchBuffer)` |
//! | single eval | `reason_pc::Dnnf::probability(&Evidence, &mut DnnfBuffer) -> f64` |
//! | executor | `reason_system::BatchExecutor::new(ExecutorConfig).run(&[BatchTask]) -> BatchReport` |
//! | knowledge base | `reason_serve::KnowledgeBase::new(name, &Cnf, WmcWeights).compile() -> (Option<Circuit>, CompileStats)` |
//! | engine | `reason_serve::ServeEngine::{new, register, serve, add_clause, retract_clause}` |
//! | cluster | `reason_serve::ServeCluster::{new, register, serve_at}` |
//! | admission | `reason_serve::QueryRouter::admit(&Query, &KbTelemetry, f64) -> Admission` |
//! | paper pipeline | `reason_core::ReasonPipeline::compile(KernelSource) -> Result<OptimizedKernel, _>` |
//! | lowering | `reason_compiler::ReasonCompiler::new(ArchConfig).compile(&Dag) -> Result<CompiledKernel, _>` |
//! | array | `reason_arch::VliwExecutor::new(ArchConfig).execute(&VliwProgram) -> ExecutionReport` |
//! | BCP engine | `reason_arch::SymbolicEngine::new(ArchConfig).solve(&Cnf) -> (Solution, SymbolicReport)` |
//! | task | `reason_workloads::WorkloadModel::run_task(&TaskSpec, bool) -> TaskResult` |
//!
//! Read-only accessors used for counts: `ServeEngine::{store_stats,
//! last_compile_stats}`, `ServeCluster::engines`, `Circuit::num_nodes`,
//! `Dnnf::{num_nodes, bytes}`, `CompiledKernel::{predicted_cycles,
//! program, num_inputs, report}`. Side rungs measured for the ledger
//! only: `reason_sat::Preprocessor::run`, `reason_sat::weighted_count`
//! (the brute oracle), `reason_sat::CdclSolver::solve`,
//! `ServeCluster::attach_telemetry`, and `BatchExecutor::run` on the
//! program's default pools (`ExecutorConfig::overlapped(2)`).
//! Not measured, but used: `reason_bench::json::{Json, parse}` reads
//! and writes every JSON file the benchmark touches.

use std::sync::Arc;
use std::time::{Duration, Instant};

use reason_arch::{ArchConfig, SymbolicEngine, VliwExecutor};
use reason_compiler::{CompiledKernel, ReasonCompiler};
use reason_core::{dag_from_circuit, regularize, Dag, KernelSource, ReasonPipeline};
use reason_hmm::Hmm;
use reason_pc::{
    compile_cnf, random_mixture_circuit, BatchBuffer, Circuit, Dnnf, DnnfBatch, DnnfBuffer,
    Evidence, StructureConfig, WmcWeights,
};
use reason_sat::{weighted_count, CdclSolver, Cnf, Preprocessor};
use reason_serve::{
    Admission, Answer, ClusterConfig, KbTelemetry, KnowledgeBase, QueryKind, QueryRouter, Route,
    RouterConfig, ServeConfig, StoreConfig,
};
use reason_system::{
    BatchExecutor, BatchTask, ExecutorConfig, NeuralStage, ServeQuery, SymbolicStage, Verdict,
};
use reason_telemetry::Telemetry;
use reason_workloads::{model_for, AlphaGeometry, Dataset, Scale, TaskSpec, Workload};

use crate::gen::{Kb, Kind, Shape};

pub use reason_bench::json;
pub use reason_pc::Dnnf as Arena;
pub use reason_serve::{ClusterKbId as TenantId, KbId, Query, ServeCluster, ServeEngine};
pub use reason_workloads::TaskSpec as PaperTask;

/// A value with the wall time of exactly the call that produced it.
#[derive(Debug, Clone)]
pub struct Timed<T> {
    pub start: Instant,
    pub dur: Duration,
    pub value: T,
}

impl<T> Timed<T> {
    /// The same interval around a converted value (conversion to plain
    /// data happens after the clock has stopped).
    fn map<U>(self, f: impl FnOnce(T) -> U) -> Timed<U> {
        Timed { start: self.start, dur: self.dur, value: f(self.value) }
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let start = Instant::now();
    let value = std::hint::black_box(f());
    Timed { start, dur: start.elapsed(), value }
}

/// A formula in the program's types.
#[derive(Debug, Clone)]
pub struct Formula {
    pub cnf: Cnf,
    pub weights: WmcWeights,
}

pub fn formula(kb: &Kb) -> Formula {
    Formula {
        cnf: Cnf::from_clauses(kb.n, kb.clauses.clone()),
        weights: WmcWeights::new(kb.probs.clone()),
    }
}

fn evidence(n: usize, pairs: &[(usize, bool)]) -> Evidence {
    let mut ev = Evidence::empty(n);
    for &(var, value) in pairs {
        ev.set(var, usize::from(value));
    }
    ev
}

/// A deadline-free query on an `n`-variable knowledge base.
pub fn query(n: usize, shape: &Shape) -> Query {
    let ev = evidence(n, &shape.evidence);
    let kind = match shape.kind {
        Kind::Wmc => QueryKind::Wmc,
        Kind::Probability => QueryKind::Probability(ev),
        Kind::Posterior => QueryKind::Posterior(ev),
        Kind::Marginal => QueryKind::Marginal(ev, shape.var),
        Kind::Mpe => QueryKind::Mpe(ev),
    };
    Query { kind, deadline: None }
}

/// What came back for one query, as plain data.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    Exact(f64),
    Bounds {
        estimate: f64,
        lower: f64,
        upper: f64,
    },
    Predicted(f64),
    Distribution(Vec<f64>),
    Assignment {
        assignment: Vec<usize>,
        log_prob: f64,
    },
    /// Refused before dispatch by admission control.
    Refused,
}

fn reply(answer: Answer) -> Reply {
    match answer {
        Answer::Exact(x) => Reply::Exact(x),
        Answer::Bounds { estimate, lower, upper } => Reply::Bounds { estimate, lower, upper },
        Answer::Predicted(x) => Reply::Predicted(x),
        Answer::Distribution(d) => Reply::Distribution(d),
        Answer::Assignment { assignment, log_prob } => Reply::Assignment { assignment, log_prob },
    }
}

/// Which rung of the degrade ladder answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    Exact,
    Approx,
    Predicted,
    Refused,
}

fn rung(route: Route) -> Rung {
    match route {
        Route::Exact => Rung::Exact,
        Route::Approx { .. } => Rung::Approx,
        Route::Predicted => Rung::Predicted,
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    pub rung: Rung,
    pub reply: Reply,
}

// ---------------------------------------------------------------- serving

/// The serving configuration every workload runs: the program's
/// defaults with a circuit store of `store_entries` per engine and the
/// executor inline on the caller's thread (`ExecutorConfig::sequential`).
///
/// The default executor (`overlapped(2)`) spawns and joins three threads
/// inside every `BatchExecutor::run`. On a hot point query that is three
/// quarters of the call, and its wall time is the host scheduler's: the
/// median call moves between 80 and 250 µs with where the kernel wakes
/// the workers, within one run. The benchmark therefore serves inline,
/// from one thread, and prices the pools apart as the layer metric
/// `system.executor.pool_spawn_us` (see `executor_pool_spawn`).
fn serve_config(store_entries: usize) -> ServeConfig {
    let base = ServeConfig::default();
    ServeConfig {
        store: StoreConfig { max_entries: store_entries, ..base.store },
        executor: ExecutorConfig::sequential(),
        ..base
    }
}

pub fn engine_new(store_entries: usize) -> ServeEngine {
    ServeEngine::new(serve_config(store_entries))
}

pub fn engine_register(engine: &mut ServeEngine, name: &str, f: &Formula) -> Timed<KbId> {
    timed(|| engine.register(name, &f.cnf, f.weights.clone()))
}

pub fn engine_serve(
    engine: &mut ServeEngine,
    kb: KbId,
    queries: &[Query],
) -> Timed<Result<Vec<Served>, String>> {
    timed(|| engine.serve(kb, queries)).map(|result| {
        let report = result.map_err(|e| e.to_string())?;
        Ok(report
            .outcomes
            .into_iter()
            .map(|o| Served { rung: rung(o.route), reply: reply(o.answer) })
            .collect())
    })
}

pub fn engine_add_clause(engine: &mut ServeEngine, kb: KbId, clause: &[i32]) -> Timed<()> {
    timed(|| engine.add_clause(kb, clause))
}

pub fn engine_retract_clause(engine: &mut ServeEngine, kb: KbId, index: usize) -> Timed<()> {
    timed(|| engine.retract_clause(kb, index))
}

/// Circuit-store counters, summed over engines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounts {
    pub hits: u64,
    pub misses: u64,
    /// One insertion per compile or re-flatten.
    pub insertions: u64,
    pub evictions: u64,
    pub bytes: usize,
}

impl StoreCounts {
    fn add(&mut self, engine: &ServeEngine) {
        let s = engine.store_stats();
        self.hits += s.hits;
        self.misses += s.misses;
        self.insertions += s.insertions;
        self.evictions += s.evictions;
        self.bytes += s.bytes;
    }
}

pub fn engine_store(engine: &ServeEngine) -> StoreCounts {
    let mut counts = StoreCounts::default();
    counts.add(engine);
    counts
}

pub fn cluster_store(cluster: &ServeCluster) -> StoreCounts {
    let mut counts = StoreCounts::default();
    for engine in cluster.engines() {
        counts.add(engine);
    }
    counts
}

/// `(components answered by the persistent cache, components compiled)`
/// of the knowledge base's last compile.
pub fn engine_last_compile(engine: &ServeEngine, kb: KbId) -> (u64, u64) {
    let stats = engine.last_compile_stats(kb);
    (stats.persistent_hits, stats.cache_misses)
}

pub fn cluster_new(shards: usize, store_entries: usize) -> ServeCluster {
    ServeCluster::new(ClusterConfig {
        shards,
        engine: serve_config(store_entries),
        ..ClusterConfig::default()
    })
}

pub fn cluster_register(cluster: &mut ServeCluster, name: &str, f: &Formula) -> TenantId {
    cluster.register(name, &f.cnf, f.weights.clone())
}

/// `arrivals` are `(tenant, query, virtual arrival seconds)`, sorted by
/// arrival. One `Served` per arrival, in order.
pub fn cluster_serve_at(
    cluster: &mut ServeCluster,
    arrivals: &[(TenantId, Query, f64)],
) -> Timed<Result<Vec<Served>, String>> {
    timed(|| cluster.serve_at(arrivals)).map(|result| {
        let report = result.map_err(|e| e.to_string())?;
        Ok(report
            .outcomes
            .into_iter()
            .map(|o| match (o.decision, o.answer) {
                (Admission::Admit(route), Some(answer)) => {
                    Served { rung: rung(route), reply: reply(answer) }
                }
                // Admitted but unanswered cannot happen without an
                // injected fault; it counts as a refusal if it does.
                _ => Served { rung: Rung::Refused, reply: Reply::Refused },
            })
            .collect())
    })
}

/// Attaches the program's own telemetry (wall clock) — only the
/// attach-overhead guard's twin cluster does this; every measured
/// object runs detached.
pub fn cluster_attach_telemetry(cluster: &mut ServeCluster) {
    cluster.attach_telemetry(Telemetry::shared());
}

/// Seconds per `QueryRouter::admit` call against the prior cost model
/// of an `(n, m)` knowledge base with an idle shard, averaged over
/// `reps` calls (one call is below the clock's resolution).
pub fn router_admit(n: usize, m: usize, q: &Query, reps: u32) -> Duration {
    let router = QueryRouter::new(RouterConfig::default());
    let model = KbTelemetry { compiled: true, has_predictor: true, ..KbTelemetry::prior(n, m) };
    let run = timed(|| {
        for _ in 0..reps {
            std::hint::black_box(router.admit(std::hint::black_box(q), &model, 0.0));
        }
    });
    run.dur / reps.max(1)
}

fn serve_query(q: &Query) -> ServeQuery {
    match &q.kind {
        QueryKind::Wmc => ServeQuery::Wmc,
        QueryKind::Probability(ev) => ServeQuery::Probability(ev.clone()),
        QueryKind::Posterior(ev) => ServeQuery::Posterior(ev.clone()),
        QueryKind::Marginal(ev, var) => ServeQuery::Marginal(ev.clone(), *var),
        QueryKind::Mpe(ev) => ServeQuery::Mpe(ev.clone()),
    }
}

fn verdict_reply(v: Verdict) -> Reply {
    match v {
        Verdict::Wmc { estimate, .. } => Reply::Exact(estimate),
        Verdict::Distribution(d) => Reply::Distribution(d),
        Verdict::Assignment { assignment, log_prob } => Reply::Assignment { assignment, log_prob },
        _ => Reply::Refused,
    }
}

fn serve_batch_task(arena: &Arc<Dnnf>, z: f64, queries: &[Query]) -> [BatchTask; 1] {
    [BatchTask {
        name: "exact-batch".into(),
        neural: NeuralStage::Synthetic { duration: Duration::ZERO },
        symbolic: SymbolicStage::ServeBatch {
            arena: Arc::clone(arena),
            z,
            queries: queries.iter().map(serve_query).collect(),
        },
        deadline: None,
    }]
}

/// The executor rung: the queries as one `ServeBatch` task on a
/// benchmark-compiled arena, run inline as the engines here run it.
/// Task construction is outside the timed call, as it is engine work.
pub fn executor_run(arena: &Arc<Dnnf>, z: f64, queries: &[Query]) -> Timed<Vec<Reply>> {
    let tasks = serve_batch_task(arena, z, queries);
    timed(|| BatchExecutor::new(ExecutorConfig::sequential()).run(&tasks)).map(
        |report| match report.results.into_iter().next().map(|r| r.verdict) {
            Some(Verdict::Batch(lanes)) => lanes.into_iter().map(verdict_reply).collect(),
            _ => Vec::new(),
        },
    )
}

/// What the program's default pools add to one `BatchExecutor::run` of
/// the same task: the run on `ExecutorConfig::overlapped(2)` (three
/// threads spawned and joined) less the inline run.
pub fn executor_pool_spawn(arena: &Arc<Dnnf>, z: f64, queries: &[Query]) -> Duration {
    let tasks = serve_batch_task(arena, z, queries);
    let pooled = timed(|| BatchExecutor::new(ExecutorConfig::overlapped(2)).run(&tasks));
    let inline = timed(|| BatchExecutor::new(ExecutorConfig::sequential()).run(&tasks));
    pooled.dur.saturating_sub(inline.dur)
}

// ------------------------------------------------------------- pc rungs

pub fn compile(f: &Formula) -> Timed<Option<Circuit>> {
    timed(|| compile_cnf(&f.cnf, &f.weights))
}

/// The compile as a knowledge base runs it: `KnowledgeBase::new` plus
/// `compile`, i.e. `compile_cnf` behind a fresh
/// `PersistentComponentCache` that stores every component fragment for
/// later edits. Returns the compiled circuit's node count.
pub fn kb_compile(f: &Formula) -> Timed<usize> {
    timed(|| KnowledgeBase::new("twin", &f.cnf, f.weights.clone()).compile())
        .map(|(circuit, _)| circuit.map_or(0, |c| c.num_nodes()))
}

pub fn flatten(circuit: &Circuit) -> Timed<Arc<Dnnf>> {
    timed(|| Dnnf::from_circuit(circuit))
        .map(|arena| Arc::new(arena.expect("compiled CNF circuits are binary")))
}

pub fn circuit_nodes(circuit: &Circuit) -> usize {
    circuit.num_nodes()
}

pub fn arena_nodes(arena: &Dnnf) -> usize {
    arena.num_nodes()
}

pub fn arena_bytes(arena: &Dnnf) -> usize {
    arena.bytes()
}

/// `Pr[φ ∧ e]` on the single-query path.
pub fn eval_single(arena: &Dnnf, pairs: &[(usize, bool)]) -> Timed<f64> {
    let ev = evidence(arena.num_vars(), pairs);
    let mut buf = DnnfBuffer::new();
    timed(|| arena.probability(&ev, &mut buf))
}

/// The bottom rung: the queries answered straight on the arena with
/// the batched kernels, grouped per kernel the way a `ServeBatch` task
/// groups them.
#[derive(Debug, Clone)]
pub struct BatchEval {
    pub start: Instant,
    /// Time inside `DnnfBatch::pack`.
    pub pack: Duration,
    /// Time inside `Dnnf::{wmc,marginal,mpe}_batch`.
    pub eval: Duration,
    /// Arena traversals × distinct lanes, summed over the kernels run.
    pub lane_passes: usize,
    pub lanes: usize,
    pub distinct_lanes: usize,
    pub replies: Vec<Reply>,
}

pub fn eval_batch(arena: &Dnnf, z: f64, queries: &[Query]) -> BatchEval {
    let start = Instant::now();
    let mut out = BatchEval {
        start,
        pack: Duration::ZERO,
        eval: Duration::ZERO,
        lane_passes: 0,
        lanes: 0,
        distinct_lanes: 0,
        replies: vec![Reply::Refused; queries.len()],
    };
    let mut buf = BatchBuffer::new();
    let mut prob: Vec<(usize, Evidence, bool)> = Vec::new();
    let mut marginals: Vec<(usize, Vec<(usize, Evidence)>)> = Vec::new();
    let mut mpe: Vec<(usize, Evidence)> = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        match &q.kind {
            QueryKind::Wmc => out.replies[i] = Reply::Exact(z),
            QueryKind::Probability(ev) => prob.push((i, ev.clone(), false)),
            QueryKind::Posterior(ev) => prob.push((i, ev.clone(), true)),
            QueryKind::Marginal(ev, var) => match marginals.iter_mut().find(|(v, _)| v == var) {
                Some((_, lanes)) => lanes.push((i, ev.clone())),
                None => marginals.push((*var, vec![(i, ev.clone())])),
            },
            QueryKind::Mpe(ev) => mpe.push((i, ev.clone())),
        }
    }
    let pack = |out: &mut BatchEval, evs: &[Evidence], passes: usize| {
        let packed = timed(|| DnnfBatch::pack(evs));
        out.pack += packed.dur;
        out.lanes += packed.value.lanes();
        out.distinct_lanes += packed.value.distinct_lanes();
        out.lane_passes += passes * packed.value.distinct_lanes();
        packed.value
    };
    if !prob.is_empty() {
        let evs: Vec<Evidence> = prob.iter().map(|(_, ev, _)| ev.clone()).collect();
        let batch = pack(&mut out, &evs, 1);
        let ps = timed(|| arena.wmc_batch(&batch, &mut buf));
        out.eval += ps.dur;
        for ((i, _, posterior), p) in prob.iter().zip(ps.value) {
            out.replies[*i] = Reply::Exact(if *posterior { p / z } else { p });
        }
    }
    for (var, lanes) in &marginals {
        let evs: Vec<Evidence> = lanes.iter().map(|(_, ev)| ev.clone()).collect();
        let batch = pack(&mut out, &evs, 3);
        let dists = timed(|| arena.marginal_batch(&batch, *var, &mut buf));
        out.eval += dists.dur;
        for ((i, _), dist) in lanes.iter().zip(dists.value) {
            out.replies[*i] = Reply::Distribution(dist);
        }
    }
    if !mpe.is_empty() {
        let evs: Vec<Evidence> = mpe.iter().map(|(_, ev)| ev.clone()).collect();
        let batch = pack(&mut out, &evs, 1);
        let results = timed(|| arena.mpe_batch(&batch, &mut buf));
        out.eval += results.dur;
        for ((i, _), res) in mpe.iter().zip(results.value) {
            out.replies[*i] =
                Reply::Assignment { assignment: res.assignment, log_prob: res.log_prob };
        }
    }
    out
}

// ----------------------------------------------------- oracles, side rungs

/// `φ ∧ e`: the evidence conjoined as unit clauses.
fn conjoin(cnf: &Cnf, pairs: &[(usize, bool)]) -> Cnf {
    let mut out = cnf.clone();
    for &(var, value) in pairs {
        out.add_dimacs_clause(&[if value { var as i32 + 1 } else { -(var as i32 + 1) }]);
    }
    out
}

/// `Pr[φ ∧ e]` by brute-force enumeration (`n ≤ 26`; cost `2^n`).
pub fn brute_probability(f: &Formula, pairs: &[(usize, bool)]) -> f64 {
    let cnf = conjoin(&f.cnf, pairs);
    let probs: Vec<f64> = (0..f.weights.len()).map(|v| f.weights.prob(v)).collect();
    weighted_count(&cnf, &probs)
}

/// The paper's Sec. IV-B front pass, which the compile path bypasses
/// today: `(clauses before, clauses after)`.
pub fn preprocess(f: &Formula) -> Timed<(usize, usize)> {
    let before = f.cnf.num_clauses();
    timed(|| Preprocessor::new().run(&f.cnf)).map(|result| (before, result.cnf.num_clauses()))
}

// ------------------------------------------------------------ paper path

/// Table I: ten datasets × two scales, `seeds.len()` tasks each.
pub fn paper_tasks(seeds: &[u64]) -> Vec<TaskSpec> {
    let mut tasks = Vec::new();
    for &seed in seeds {
        for dataset in Dataset::all() {
            for scale in [Scale::Small, Scale::Large] {
                tasks.push(TaskSpec::new(dataset, scale, seed));
            }
        }
    }
    tasks
}

pub fn task_label(task: &TaskSpec) -> String {
    format!("{}/{:?}/{}", task.dataset.name(), task.scale, task.seed)
}

/// `(correct, score)` of the task's exact reasoning, pruning on.
pub fn task_run(task: &TaskSpec) -> Timed<(bool, f64)> {
    timed(|| model_for(task.dataset.workload()).run_task(task, true))
        .map(|result| (result.correct, result.score))
}

/// The representative kernel of a task, by the convention
/// `reason-bench` costs tasks with: the refutation formula for the
/// deduction workloads, a deployment-scale mixture circuit for the
/// circuit workloads, an unrolled HMM for the sequence workloads.
#[derive(Debug, Clone)]
pub enum PaperKernel {
    Sat(Cnf),
    Pc(Circuit),
    Hmm(Hmm),
}

pub fn task_kernel(task: &TaskSpec) -> PaperKernel {
    match task.dataset.workload() {
        Workload::AlphaGeometry | Workload::Linc => {
            PaperKernel::Sat(AlphaGeometry.generate(task).refutation_cnf)
        }
        Workload::R2Guard | Workload::NeuroPc => {
            PaperKernel::Pc(random_mixture_circuit(&StructureConfig {
                num_vars: 12,
                depth: 4,
                num_components: 3,
                seed: task.seed,
            }))
        }
        Workload::GeLaTo | Workload::CtrlG => {
            PaperKernel::Hmm(Hmm::random(6 + task.scale.factor(), 8, task.seed))
        }
    }
}

/// A DAG ready for lowering, with the inputs that make it compute its
/// kernel's fully-marginalized value.
#[derive(Debug, Clone)]
pub struct Lowerable {
    pub dag: Dag,
    pub inputs: Vec<f64>,
    pub nodes_before: usize,
}

/// `ReasonPipeline::compile` on a DAG-mode kernel (`None` for the
/// deduction kernels, which run on the BCP engine instead).
pub fn pipeline_compile(kernel: &PaperKernel) -> Option<Timed<Lowerable>> {
    let source = match kernel {
        PaperKernel::Sat(_) => return None,
        PaperKernel::Pc(circuit) => KernelSource::Pc(circuit),
        PaperKernel::Hmm(hmm) => KernelSource::Hmm { hmm, len: 16 },
    };
    Some(timed(|| ReasonPipeline::new().compile(source)).map(|kernel| {
        let kernel = kernel.expect("kernels without calibration data always compile");
        let inputs = vec![1.0; kernel.stats.after.inputs];
        Lowerable { nodes_before: kernel.stats.before.nodes, dag: kernel.dag, inputs }
    }))
}

/// A served arena's source circuit as a lowerable DAG (`dag_from_circuit`
/// plus two-input regularization), bound to empty evidence.
pub fn served_dag(circuit: &Circuit) -> Lowerable {
    let (dag, map) = dag_from_circuit(circuit);
    let nodes_before = dag.num_nodes();
    let inputs = map.inputs_for_evidence(circuit.arities(), &vec![None; circuit.num_vars()]);
    Lowerable { dag: regularize(&dag), inputs, nodes_before }
}

pub fn dag_nodes(l: &Lowerable) -> usize {
    l.dag.num_nodes()
}

/// The DAG's own software evaluation — the array's reference.
pub fn dag_reference(l: &Lowerable) -> f64 {
    l.dag.evaluate_output(&l.inputs)
}

/// `Err` when the kernel does not fit the paper design point's register
/// file.
pub fn lower(l: &Lowerable) -> Timed<Result<CompiledKernel, String>> {
    timed(|| ReasonCompiler::new(ArchConfig::paper()).compile(&l.dag))
        .map(|kernel| kernel.map_err(|e| e.to_string()))
}

pub fn kernel_instructions(kernel: &CompiledKernel) -> usize {
    kernel.report.instructions
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayRun {
    pub output: f64,
    pub cycles: u64,
    pub stall_cycles: u64,
    /// The compiler's no-stall bound; must not exceed `cycles`.
    pub predicted_cycles: u64,
}

pub fn vliw_execute(kernel: &CompiledKernel, l: &Lowerable) -> Timed<ArrayRun> {
    let config = ArchConfig::paper();
    let program = kernel.program(&l.inputs);
    timed(|| VliwExecutor::new(config).execute(&program)).map(|report| ArrayRun {
        output: report.output,
        cycles: report.cycles,
        stall_cycles: report.raw_stall_cycles + report.conflict_stall_cycles,
        predicted_cycles: kernel.predicted_cycles(&config),
    })
}

/// `(satisfiable, simulated cycles)` on the BCP engine.
pub fn bcp_solve(cnf: &Cnf) -> Timed<(bool, u64)> {
    timed(|| SymbolicEngine::new(ArchConfig::paper()).solve(cnf))
        .map(|(solution, report)| (solution.is_sat(), report.cycles))
}

/// `(satisfiable, conflicts)` on the software CDCL solver — the BCP
/// engine's reference.
pub fn cdcl_solve(cnf: &Cnf) -> Timed<(bool, u64)> {
    let mut solver = CdclSolver::new(cnf);
    let solved = timed(|| solver.solve().is_sat());
    solved.map(|sat| (sat, solver.stats().conflicts))
}
