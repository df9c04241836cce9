//! The serving engine: registered knowledge bases, the compiled-circuit
//! store, and routed batch execution.
//!
//! [`ServeEngine`] is the layer `reason-eval serve` drives: register a
//! knowledge base once ([`ServeEngine::register`]), then throw batches
//! of [`Query`]s at it. The first query pays one compilation; every
//! later query is answered from the [`CircuitStore`]'s hot artifact —
//! the shared d-DNNF arena, walked once per *batch*
//! ([`ServeEngine::serve`]): every exact-routed query becomes one lane
//! of a single `ServeBatch` executor task answered by the batched arena
//! kernels. A single query is a batch of one.
//!
//! Each batch query is admitted by the [`QueryRouter`]: exact compiled
//! evaluation when the deadline allows, anytime Monte-Carlo bounds with
//! a deadline-trimmed budget when it does not, one prediction-network
//! forward pass when nothing else fits. Telemetry (measured compile,
//! eval, and per-sample latencies) feeds back into the router after
//! every batch, so routing adapts to the hardware it runs on.

use std::sync::Arc;
use std::time::{Duration, Instant};

use reason_approx::{ApproxConfig, Method, PredictConfig, PredictionNet, SampleConfig};
use reason_neural::Mlp;
use reason_pc::{Circuit, CompileStats, Dnnf, Evidence, WmcWeights};
use reason_sat::Cnf;
use reason_system::{
    BatchExecutor, BatchTask, ExecutorConfig, NeuralStage, PipelineReport, SymbolicStage,
    TaskResult, Verdict,
};
use reason_telemetry::Telemetry;

use crate::kb::KnowledgeBase;
use crate::router::{
    budget_s, exact_evals, KbTelemetry, Query, QueryKind, QueryRouter, Route, RouterConfig,
};
use crate::store::{CacheStats, CircuitStore, StoreConfig, StoredCircuit};

/// Engine-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Circuit-store bounds.
    pub store: StoreConfig,
    /// The router's one knob: the approximate rung's sample cap (its
    /// other thresholds are constants of [`crate::router`]).
    pub router: RouterConfig,
    /// Worker-pool shape batches execute with.
    pub executor: ExecutorConfig,
    /// When set, each knowledge base trains a prediction network on
    /// its first compilation (amortized: labels come from the already
    /// compiled circuit), enabling the router's last-resort rung.
    pub predictor: Option<PredictConfig>,
    /// Seed for the approximate rung's estimators (per-query streams
    /// are derived from it, so batches are reproducible).
    pub approx_seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            store: StoreConfig::default(),
            router: RouterConfig::default(),
            executor: ExecutorConfig::overlapped(2),
            predictor: None,
            approx_seed: 0x5EED,
        }
    }
}

/// Handle to a registered knowledge base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KbId(usize);

/// Serving failures. Every variant is recoverable by the caller: the
/// sharded cluster degrades or retries the affected query instead of
/// letting a hot-path invariant abort the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The knowledge base carries no satisfying mass under its weights
    /// — there is nothing to serve.
    NoMass(String),
    /// The compiled artifact vanished from the store between compilation
    /// and evaluation (an eviction race under concurrent tenants).
    ArtifactMissing(String),
    /// A [`Route::Predicted`] query arrived at a knowledge base with no
    /// trained prediction net.
    PredictorMissing(String),
    /// A degraded route was paired with a non-degradable query kind
    /// ([`QueryKind::Marginal`] / [`QueryKind::Mpe`]).
    NotDegradable(String),
    /// A compiled circuit failed to flatten into an evaluation arena.
    BadCircuit(String),
    /// A query does not fit the knowledge base it was sent to: its
    /// evidence covers a different number of variables, fixes a
    /// non-binary value, or its marginal variable is out of range.
    /// Rejected before any work is dispatched.
    BadQuery(String),
    /// An internal routing invariant was violated — a bug guard that
    /// fails the batch instead of aborting the process.
    Internal(&'static str),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::NoMass(name) => {
                write!(f, "knowledge base `{name}` has no satisfying mass")
            }
            ServeError::ArtifactMissing(name) => {
                write!(f, "knowledge base `{name}` lost its stored artifact mid-serve")
            }
            ServeError::PredictorMissing(name) => {
                write!(f, "knowledge base `{name}` has no trained predictor for a predicted route")
            }
            ServeError::NotDegradable(name) => {
                write!(f, "knowledge base `{name}` got a degraded route for an exact-only query")
            }
            ServeError::BadCircuit(detail) => {
                write!(f, "compiled circuit failed to flatten: {detail}")
            }
            ServeError::BadQuery(detail) => write!(f, "malformed query: {detail}"),
            ServeError::Internal(detail) => write!(f, "serve invariant violated: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The value a served query produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// An exact probability / weighted model count.
    Exact(f64),
    /// An anytime bracket from the approximate rung.
    Bounds {
        /// Point estimate.
        estimate: f64,
        /// Lower confidence bound.
        lower: f64,
        /// Upper confidence bound.
        upper: f64,
    },
    /// A prediction-network point estimate (no bounds).
    Predicted(f64),
    /// A marginal distribution (exact rung only).
    Distribution(Vec<f64>),
    /// A most-probable-explanation assignment (exact rung only).
    Assignment {
        /// The maximizing complete assignment.
        assignment: Vec<usize>,
        /// Its max-product log-probability.
        log_prob: f64,
    },
}

/// One served query: where it was routed, what came back, what it cost.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// The router's decision.
    pub route: Route,
    /// The answer.
    pub answer: Answer,
    /// Measured end-to-end seconds for this query's executor task(s).
    pub latency_s: f64,
}

/// The result of one [`ServeEngine::serve`] batch.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-query outcomes, in submission order.
    pub outcomes: Vec<ServeOutcome>,
    /// The executor's measured schedule for the batch.
    pub measured: PipelineReport,
}

/// How one query maps onto executor tasks.
enum Plan {
    /// Exact: one lane of the batch's shared `ServeBatch` task (always
    /// task 0) — every exact-routed query in the batch rides the same
    /// task, answered in one sum-product arena traversal (MPE lanes
    /// in one max-product pass).
    Batch { lane: usize },
    /// Plain-approximate: one task, answer from its verdict.
    Single { task: usize, route: Route },
    /// Approximate posterior with no trusted normalizer: a joint-mass
    /// task plus a base-mass task, combined conservatively.
    ApproxPair { joint: usize, base: usize, route: Route },
    /// Approximate posterior normalized by the last compiled `Z`.
    ApproxOverZ { joint: usize, z: f64, route: Route },
    /// Prediction-network forward pass: answer from the neural buffer.
    Predicted {
        task: usize,
        /// Prior mass of the evidence (for joint/posterior conversion).
        prior: f64,
        /// The trusted normalizer from training time.
        z: f64,
        kind_is_posterior: bool,
        kind_is_probability: bool,
    },
}

struct KbEntry {
    kb: KnowledgeBase,
    /// The current revision's source circuit — the allocation the
    /// store's artifact holds, not a copy. Every edit and store wipe
    /// clears it, so `Some` always means "compiled at this revision".
    circuit: Option<Arc<Circuit>>,
    /// Frozen prediction net plus the `Z` and revision it was trained
    /// against.
    predictor: Option<(Mlp, f64, u64)>,
    /// The router's cost numbers (`compile_s`, `eval_s`, `sample_s`).
    /// Its `compiled` and `has_predictor` bits are never written: the
    /// engine reads them off the store and the predictor's revision
    /// ([`ServeEngine::telemetry`]).
    costs: KbTelemetry,
    /// Last compile's counters (persistent-cache reuse shows up here).
    last_stats: CompileStats,
    /// Last measured compile seconds (0 before the first compile).
    last_compile_s: f64,
    /// `Z`, read off the arena, and the revision it belongs to: the
    /// approximate rung's normalizer, kept across store evictions.
    z: Option<(f64, u64)>,
}

/// The knowledge-base serving engine (see the [module docs](self)).
pub struct ServeEngine {
    config: ServeConfig,
    store: CircuitStore,
    router: QueryRouter,
    kbs: Vec<KbEntry>,
    served: u64,
    /// Attached observability sink (shared with the store; `None` =
    /// zero-overhead unobserved serving).
    telemetry: Option<Arc<Telemetry>>,
    /// The `shard` label value instrumented metrics carry ("0" for a
    /// standalone engine).
    shard_label: String,
}

impl ServeEngine {
    /// An engine with the given configuration.
    pub fn new(config: ServeConfig) -> Self {
        ServeEngine {
            config,
            store: CircuitStore::new(config.store),
            router: QueryRouter::new(config.router),
            kbs: Vec::new(),
            served: 0,
            telemetry: None,
            shard_label: "0".to_string(),
        }
    }

    /// Attaches a telemetry sink. From now on the store's
    /// lookups/evictions, every routed query, and every compilation
    /// (including the compiler's internal phases) land in the sink's
    /// registry and tracer, labeled `shard` (the cluster passes the
    /// shard index; standalone engines are shard 0).
    pub(crate) fn attach_telemetry(&mut self, telemetry: Arc<Telemetry>, shard: usize) {
        self.shard_label = shard.to_string();
        self.store.attach_telemetry(&telemetry, &[("shard", &self.shard_label)]);
        self.telemetry = Some(telemetry);
    }

    /// Registers a knowledge base. Registration is cheap — compilation
    /// happens on the first query that needs the exact artifact (or
    /// eagerly via [`warm`](Self::warm)).
    pub fn register(&mut self, name: impl Into<String>, cnf: &Cnf, weights: WmcWeights) -> KbId {
        let kb = KnowledgeBase::new(name, cnf, weights);
        let costs = KbTelemetry::prior(kb.num_vars(), kb.num_clauses());
        self.kbs.push(KbEntry {
            kb,
            circuit: None,
            predictor: None,
            costs,
            last_stats: CompileStats::default(),
            last_compile_s: 0.0,
            z: None,
        });
        KbId(self.kbs.len() - 1)
    }

    /// The registered knowledge base.
    pub fn kb(&self, id: KbId) -> &KnowledgeBase {
        &self.kbs[id.0].kb
    }

    /// The knowledge base's live routing telemetry: its measured costs,
    /// `compiled` when the entry holds the current revision's circuit
    /// and the store still holds its artifact (another tenant's insert
    /// may have evicted it), `has_predictor` when a net was trained at
    /// the current revision.
    fn telemetry(&self, id: KbId) -> KbTelemetry {
        let entry = &self.kbs[id.0];
        let revision = entry.kb.revision();
        KbTelemetry {
            compiled: entry.circuit.is_some() && self.store.contains(&entry.kb.fingerprint()),
            has_predictor: entry.predictor.as_ref().is_some_and(|(_, _, rev)| *rev == revision),
            ..entry.costs
        }
    }

    /// The last compile's counters (persistent-component-cache reuse
    /// shows up as `persistent_hits`).
    pub fn last_compile_stats(&self, id: KbId) -> CompileStats {
        self.kbs[id.0].last_stats
    }

    /// The circuit store's counters and occupancy.
    pub fn store_stats(&self) -> CacheStats {
        self.store.stats()
    }

    /// Drops every stored artifact and source circuit — the fault layer's
    /// cache-wipe injection. Registered knowledge bases (and their
    /// persistent component caches) survive, so the next exact query
    /// per KB pays a genuine — but component-cache-accelerated —
    /// recompile. Trained predictors are kept: they live outside the
    /// store and stay valid for their revision.
    pub(crate) fn wipe_store(&mut self) {
        self.store.clear();
        for entry in &mut self.kbs {
            entry.circuit = None;
        }
    }

    /// Appends a clause to a knowledge base. The compiled artifact goes
    /// stale (new fingerprint); the next compile reuses every cached
    /// component the clause does not touch. The trained net, if any,
    /// belongs to the previous revision: it is retrained on the next
    /// compile rather than trusted.
    pub fn add_clause(&mut self, id: KbId, dimacs: &[i32]) {
        let entry = &mut self.kbs[id.0];
        entry.kb.add_clause(dimacs);
        entry.circuit = None;
    }

    /// Retracts a clause (see [`KnowledgeBase::retract_clause`]).
    pub fn retract_clause(&mut self, id: KbId, index: usize) {
        let entry = &mut self.kbs[id.0];
        entry.kb.retract_clause(index);
        entry.circuit = None;
    }

    /// Eagerly compiles (or rehydrates) the knowledge base's artifact.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoMass`] when the formula has no satisfying mass.
    pub fn warm(&mut self, id: KbId) -> Result<(), ServeError> {
        self.ensure_compiled(id)
    }

    /// Serves a batch: routes every query down the degrade ladder that
    /// [`QueryRouter::admit`] walks at an idle shard, but never rejects
    /// (a zero deadline walks the ladder at budget 0); executes the
    /// tasks through the threaded `BatchExecutor` (exact queries become
    /// lanes of one batched-arena task sharing a single sum-product
    /// traversal), and feeds the measured latencies back into the
    /// router's telemetry.
    ///
    /// # Errors
    ///
    /// As `serve_routed`.
    pub fn serve(&mut self, id: KbId, queries: &[Query]) -> Result<ServeReport, ServeError> {
        let telemetry = self.telemetry(id);
        let routed: Vec<(&Query, Route)> = queries
            .iter()
            .map(|q| (q, self.router.ladder(q, &telemetry, budget_s(q, 0.0), true).0))
            .collect();
        self.serve_routed(id, &routed)
    }

    /// [`serve`](Self::serve) with the routing decided by the caller:
    /// executes each borrowed query on the route paired with it instead
    /// of consulting the engine's own adaptive router. This is the dispatch path of the
    /// sharded front-end ([`crate::cluster`]), whose admission
    /// controller decides routes *before* dispatch from a deterministic
    /// cost model — the engine then just executes them, so a replayed
    /// workload reproduces the identical route sequence regardless of
    /// what the engine's live telemetry measured. Deadlines still ride
    /// along: each admitted query's deadline becomes its executor
    /// task's [`BatchTask::deadline`] (the shared exact-batch task takes
    /// the earliest one), so the executor drains the queue EDF.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadQuery`] when a query's evidence or marginal
    /// variable does not fit the knowledge base (checked before
    /// anything is dispatched, whatever the route);
    /// [`ServeError::NoMass`] when an exact-routed query forces a
    /// compilation and the formula has no satisfying mass;
    /// [`ServeError::ArtifactMissing`] on an eviction race;
    /// [`ServeError::NotDegradable`] when a degraded route is paired
    /// with a non-degradable kind
    /// ([`QueryKind::Marginal`]/[`QueryKind::Mpe`]);
    /// [`ServeError::PredictorMissing`] when a [`Route::Predicted`]
    /// query arrives without a trained net. All of these fail the batch
    /// without panicking, so the cluster can degrade or retry it.
    pub(crate) fn serve_routed(
        &mut self,
        id: KbId,
        routed: &[(&Query, Route)],
    ) -> Result<ServeReport, ServeError> {
        let kb = &self.kbs[id.0].kb;
        if let Some(bad) = routed.iter().position(|(q, _)| !fits(&q.kind, kb.num_vars())) {
            return Err(ServeError::BadQuery(format!(
                "query {bad} does not fit the {} binary variables of `{}`",
                kb.num_vars(),
                kb.name()
            )));
        }
        if let Some(tel) = &self.telemetry {
            for (_, route) in routed {
                tel.registry
                    .counter(
                        "serve_queries_total",
                        &[("shard", &self.shard_label), ("route", route.label())],
                    )
                    .inc();
            }
        }
        if routed.iter().any(|(_, r)| matches!(r, Route::Exact)) {
            self.ensure_compiled(id)?;
        }

        let entry = &self.kbs[id.0];
        let base_cnf = entry.kb.cnf();
        let probs: Vec<f64> =
            (0..entry.kb.num_vars()).map(|v| entry.kb.weights().prob(v)).collect();
        let z_trusted = entry.z.and_then(|(z, rev)| (rev == entry.kb.revision()).then_some(z));

        let mut tasks: Vec<BatchTask> = Vec::new();
        let mut plans: Vec<Plan> = Vec::with_capacity(routed.len());

        // Every exact-routed query in the batch becomes one lane of a
        // single `ServeBatch` task over the stored arena: the executor
        // answers the whole group in one sum-product traversal (plus a
        // max-product pass when it holds MPE lanes) instead of re-walking the arena per query. Lane answers are
        // bit-identical to a batch of one, so batching is invisible to
        // callers except in latency.
        let exact: Vec<&Query> =
            routed.iter().filter(|(_, r)| matches!(r, Route::Exact)).map(|&(q, _)| q).collect();
        if !exact.is_empty() {
            let stored = self
                .store
                .peek(&entry.kb.fingerprint())
                .ok_or_else(|| ServeError::ArtifactMissing(entry.kb.name().to_string()))?;
            // Always task 0. It inherits the *earliest* deadline of its
            // lanes: it must clear the pipeline before the tightest one.
            tasks.push(BatchTask {
                name: "exact-batch".into(),
                neural: NeuralStage::Synthetic { duration: Duration::ZERO },
                symbolic: SymbolicStage::ServeBatch {
                    arena: Arc::clone(&stored.dnnf),
                    z: stored.dnnf.wmc(),
                    queries: exact.iter().map(|q| q.kind.clone()).collect(),
                },
                deadline: exact.iter().filter_map(|q| q.deadline).min(),
            });
        }
        let mut exact_lane = 0usize;

        for (qi, (query, route)) in routed.iter().enumerate() {
            let seed = self.config.approx_seed ^ (self.served << 20) ^ qi as u64;
            match route {
                Route::Exact => {
                    plans.push(Plan::Batch { lane: exact_lane });
                    exact_lane += 1;
                }
                Route::Approx { samples } => {
                    let stage = |cnf: Cnf, samples: u64, seed: u64| SymbolicStage::Approx {
                        cnf,
                        probs: probs.clone(),
                        config: approx_config(samples, seed),
                    };
                    match &query.kind {
                        QueryKind::Wmc => {
                            let task = push_task(
                                &mut tasks,
                                qi,
                                query.deadline,
                                stage(base_cnf.clone(), *samples, seed),
                            );
                            plans.push(Plan::Single { task, route: *route });
                        }
                        QueryKind::Probability(ev) => {
                            let task = push_task(
                                &mut tasks,
                                qi,
                                query.deadline,
                                stage(conjoin(&base_cnf, ev), *samples, seed),
                            );
                            plans.push(Plan::Single { task, route: *route });
                        }
                        QueryKind::Posterior(ev) => match z_trusted {
                            Some(z) => {
                                let joint = push_task(
                                    &mut tasks,
                                    qi,
                                    query.deadline,
                                    stage(conjoin(&base_cnf, ev), *samples, seed),
                                );
                                plans.push(Plan::ApproxOverZ { joint, z, route: *route });
                            }
                            None => {
                                // No trusted normalizer: the budget the
                                // router fitted to the deadline is split
                                // across the joint and base estimates so
                                // the pair still lands inside it.
                                let half = (*samples / 2).max(1);
                                let joint = push_task(
                                    &mut tasks,
                                    qi,
                                    query.deadline,
                                    stage(conjoin(&base_cnf, ev), half, seed),
                                );
                                let base = push_task(
                                    &mut tasks,
                                    qi,
                                    query.deadline,
                                    stage(base_cnf.clone(), half, seed ^ 0xBA5E),
                                );
                                plans.push(Plan::ApproxPair { joint, base, route: *route });
                            }
                        },
                        // The router never degrades these kinds.
                        QueryKind::Marginal(..) | QueryKind::Mpe(..) => {
                            return Err(ServeError::NotDegradable(entry.kb.name().to_string()));
                        }
                    }
                }
                Route::Predicted => {
                    let (mlp, z, _) = entry
                        .predictor
                        .as_ref()
                        .ok_or_else(|| ServeError::PredictorMissing(entry.kb.name().to_string()))?;
                    let (evidence, is_posterior, is_probability) = match &query.kind {
                        QueryKind::Wmc => (Evidence::empty(entry.kb.num_vars()), false, false),
                        QueryKind::Probability(ev) => (ev.clone(), false, true),
                        QueryKind::Posterior(ev) => (ev.clone(), true, false),
                        QueryKind::Marginal(..) | QueryKind::Mpe(..) => {
                            return Err(ServeError::NotDegradable(entry.kb.name().to_string()));
                        }
                    };
                    let options: Vec<Option<bool>> = (0..entry.kb.num_vars())
                        .map(|v| evidence.value(v).map(|x| x == 1))
                        .collect();
                    let input = PredictionNet::encode_query(&options, entry.kb.num_vars());
                    let prior = prior_mass(entry.kb.weights(), &evidence);
                    let task_idx = tasks.len();
                    tasks.push(BatchTask {
                        name: format!("query-{qi}"),
                        neural: NeuralStage::Mlp { mlp: mlp.clone(), input },
                        symbolic: SymbolicStage::Synthetic { duration: Duration::ZERO },
                        deadline: query.deadline,
                    });
                    plans.push(Plan::Predicted {
                        task: task_idx,
                        prior,
                        z: *z,
                        kind_is_posterior: is_posterior,
                        kind_is_probability: is_probability,
                    });
                }
            }
        }

        let report = BatchExecutor::new(self.config.executor)
            .run_with_telemetry(&tasks, self.telemetry.as_deref());
        self.served += routed.len() as u64;

        // Feed measured latencies back into the telemetry. The exact
        // lanes share one batched task, so its measured duration is
        // spread over the batch's total arena evaluations: every exact
        // query contributes the same per-eval latency sample.
        let batch_evals: f64 = plans
            .iter()
            .zip(routed)
            .filter(|(plan, _)| matches!(plan, Plan::Batch { .. }))
            .map(|(_, (q, _))| exact_evals(&q.kind))
            .sum();
        {
            let entry = &mut self.kbs[id.0];
            for plan in &plans {
                match plan {
                    Plan::Batch { .. } => {
                        let dt = report.results[0].symbolic_s;
                        entry.costs.eval_s = ewma(entry.costs.eval_s, dt / batch_evals);
                    }
                    Plan::Single { task, route: Route::Approx { samples } }
                    | Plan::ApproxOverZ { joint: task, route: Route::Approx { samples }, .. } => {
                        let dt = report.results[*task].symbolic_s;
                        entry.costs.sample_s = ewma(entry.costs.sample_s, dt / *samples as f64);
                    }
                    Plan::ApproxPair { joint, route: Route::Approx { samples }, .. } => {
                        // Each half of the pair ran samples / 2.
                        let dt = report.results[*joint].symbolic_s;
                        let ran = (*samples / 2).max(1);
                        entry.costs.sample_s = ewma(entry.costs.sample_s, dt / ran as f64);
                    }
                    _ => {}
                }
            }
        }

        let outcomes = plans
            .iter()
            .map(|plan| outcome(plan, &report.results))
            .collect::<Result<Vec<ServeOutcome>, ServeError>>()?;
        if let Some(tel) = &self.telemetry {
            let latency =
                tel.registry.histogram("serve_latency_seconds", &[("shard", &self.shard_label)]);
            for o in &outcomes {
                latency.record(o.latency_s);
            }
        }
        Ok(ServeReport { outcomes, measured: report.measured })
    }

    /// Guarantees the artifact is hot in the store and the entry holds
    /// its source circuit; measures compile latency into the cost model;
    /// trains the prediction net once per revision when configured.
    fn ensure_compiled(&mut self, id: KbId) -> Result<(), ServeError> {
        let telemetry = self.telemetry.clone();
        let entry = &mut self.kbs[id.0];
        let revision = entry.kb.revision();
        let fp = entry.kb.fingerprint();
        let fresh = entry.circuit.is_some();
        // One counted lookup: serving traffic registers as store hits
        // and refreshes the artifact's LRU recency, so a hot KB is
        // never the eviction victim of its own traffic.
        let hot = self.store.get(&fp).is_some();
        if fresh && hot {
            return Ok(());
        }
        if let Some(tel) = &telemetry {
            let kind = if hot {
                "rehydrate" // artifact hot, entry's circuit stale
            } else if fresh {
                "reflatten" // circuit current, artifact evicted
            } else {
                "cold" // full compilation
            };
            tel.registry
                .counter(
                    "serve_compiles_total",
                    &[("shard", &self.shard_label), ("tenant", entry.kb.name()), ("kind", kind)],
                )
                .inc();
        }
        let flatten = |circuit: &Circuit, name: &str| {
            Dnnf::from_circuit(circuit)
                .map(Arc::new)
                .map_err(|e| ServeError::BadCircuit(format!("{name}: {e:?}")))
        };
        let z = if let Some(stored) = self.store.peek(&fp) {
            // Rehydrate the entry from the stored artifact.
            entry.last_stats = stored.stats;
            entry.last_compile_s = stored.compile_s;
            entry.circuit = Some(Arc::clone(&stored.circuit));
            stored.dnnf.wmc()
        } else if let Some(circuit) = entry.circuit.clone() {
            // Evicted while the entry still holds the current
            // revision's circuit: rebuild the store artifact from it —
            // a linear flattening, not a recompile.
            let dnnf = flatten(&circuit, entry.kb.name())?;
            let z = dnnf.wmc();
            let (compile_s, stats) = (entry.last_compile_s, entry.last_stats);
            self.store.insert(fp, StoredCircuit { dnnf, circuit, compile_s, stats });
            z
        } else {
            let span = telemetry.as_ref().map(|tel| {
                tel.tracer.span_on(
                    0,
                    "serve.compile",
                    &[("shard", &self.shard_label), ("tenant", entry.kb.name())],
                )
            });
            let t0 = Instant::now();
            let (circuit, stats) = entry.kb.compile_observed(telemetry.as_deref());
            let compile_s = t0.elapsed().as_secs_f64();
            if let Some(span) = span {
                span.end();
            }
            let Some(circuit) = circuit.map(Arc::new) else {
                return Err(ServeError::NoMass(entry.kb.name().to_string()));
            };
            let dnnf = flatten(&circuit, entry.kb.name())?;
            let z = dnnf.wmc();
            entry.last_stats = stats;
            entry.last_compile_s = compile_s;
            entry.costs.compile_s = compile_s.max(1e-9);
            entry.circuit = Some(Arc::clone(&circuit));
            self.store.insert(fp, StoredCircuit { dnnf, circuit, compile_s, stats });
            z
        };
        entry.z = Some((z, revision));
        // Train the prediction net once per revision, when configured.
        if let (Some(cfg), Some(circuit)) = (self.config.predictor, &entry.circuit) {
            if entry.predictor.as_ref().is_none_or(|(_, _, rev)| *rev != revision) {
                let (net, _loss) =
                    PredictionNet::train_from_circuit(circuit, entry.kb.weights(), &cfg);
                entry.predictor = Some((net.to_mlp(), z, revision));
            }
        }
        Ok(())
    }
}

/// Builds one query's [`ServeOutcome`] from its executed task(s). A
/// task whose worker panicked ([`Verdict::Failed`]) or that reported
/// the wrong verdict shape fails the batch with a typed error.
fn outcome(plan: &Plan, results: &[TaskResult]) -> Result<ServeOutcome, ServeError> {
    /// The `(estimate, lower, upper)` of an approximate lane.
    fn bracket(r: &TaskResult) -> Result<(f64, f64, f64), ServeError> {
        match &r.verdict {
            Verdict::Wmc { estimate, lower, upper } => Ok((*estimate, *lower, *upper)),
            _ => Err(ServeError::Internal("an approximate task did not report a WMC bracket")),
        }
    }
    Ok(match plan {
        Plan::Batch { lane } => {
            let r = &results[0];
            let Verdict::Batch(answers) = &r.verdict else {
                return Err(ServeError::Internal("the exact batch task did not report its lanes"));
            };
            let answer = match answers.get(*lane) {
                Some(Verdict::Wmc { estimate, .. }) => Answer::Exact(*estimate),
                Some(Verdict::Distribution(d)) => Answer::Distribution(d.clone()),
                Some(Verdict::Assignment { assignment, log_prob }) => {
                    Answer::Assignment { assignment: assignment.clone(), log_prob: *log_prob }
                }
                _ => return Err(ServeError::Internal("an exact lane reported no answer")),
            };
            // One task served every exact lane; attribute an equal
            // share of its wall time to each query.
            let share = answers.len().max(1) as f64;
            ServeOutcome {
                route: Route::Exact,
                answer,
                latency_s: (r.neural_s + r.symbolic_s) / share,
            }
        }
        Plan::Single { task, route } => {
            let r = &results[*task];
            let (estimate, lower, upper) = bracket(r)?;
            ServeOutcome {
                route: *route,
                answer: Answer::Bounds { estimate, lower, upper },
                latency_s: r.neural_s + r.symbolic_s,
            }
        }
        Plan::ApproxOverZ { joint, z, route } => {
            let r = &results[*joint];
            let (estimate, lower, upper) = bracket(r)?;
            ServeOutcome {
                route: *route,
                answer: Answer::Bounds {
                    estimate: (estimate / z).clamp(0.0, 1.0),
                    lower: (lower / z).clamp(0.0, 1.0),
                    upper: (upper / z).clamp(0.0, 1.0),
                },
                latency_s: r.neural_s + r.symbolic_s,
            }
        }
        Plan::ApproxPair { joint, base, route } => {
            let (rj, rb) = (&results[*joint], &results[*base]);
            let ((ej, lj, uj), (eb, lb, ub)) = (bracket(rj)?, bracket(rb)?);
            // Conservative interval division: joint / base.
            let estimate = if eb > 0.0 { (ej / eb).clamp(0.0, 1.0) } else { 0.0 };
            let lower = if ub > 0.0 { (lj / ub).clamp(0.0, 1.0) } else { 0.0 };
            let upper = if lb > 0.0 { (uj / lb).clamp(0.0, 1.0) } else { 1.0 };
            ServeOutcome {
                route: *route,
                answer: Answer::Bounds { estimate, lower, upper },
                latency_s: rj.neural_s + rj.symbolic_s + rb.neural_s + rb.symbolic_s,
            }
        }
        Plan::Predicted { task, prior, z, kind_is_posterior, kind_is_probability } => {
            let r = &results[*task];
            // The sigmoid head's single output is Pr[φ | e].
            let conditional = r
                .neural_output
                .first()
                .ok_or(ServeError::Internal("the prediction task produced no output"))?
                .clamp(0.0, 1.0);
            let value = if *kind_is_posterior {
                // Pr[e | φ] = Pr[φ | e] · Pr[e] / Pr[φ].
                if *z > 0.0 {
                    (conditional * prior / z).clamp(0.0, 1.0)
                } else {
                    0.0
                }
            } else if *kind_is_probability {
                // Pr[φ ∧ e] = Pr[φ | e] · Pr[e].
                conditional * prior
            } else {
                conditional // Pr[φ | ∅] = Pr[φ]
            };
            ServeOutcome {
                route: Route::Predicted,
                answer: Answer::Predicted(value),
                latency_s: r.neural_s + r.symbolic_s,
            }
        }
    })
}

/// EWMA with a 0.3 step — fast enough to track warm-up, smooth enough
/// to ignore scheduler noise.
fn ewma(old: f64, new: f64) -> f64 {
    0.7 * old + 0.3 * new.max(1e-9)
}

/// `true` when the query can be asked of a knowledge base over
/// `num_vars` binary variables: its evidence covers exactly those
/// variables with values in `{0, 1}`, and a marginal's variable is one
/// of them.
pub(crate) fn fits(kind: &QueryKind, num_vars: usize) -> bool {
    let (evidence, var) = match kind {
        QueryKind::Wmc => return true,
        QueryKind::Probability(ev) | QueryKind::Posterior(ev) | QueryKind::Mpe(ev) => (ev, None),
        QueryKind::Marginal(ev, var) => (ev, Some(*var)),
    };
    evidence.len() == num_vars
        && var.is_none_or(|var| var < num_vars)
        && (0..num_vars).all(|v| evidence.value(v).is_none_or(|x| x < 2))
}

fn push_task(
    tasks: &mut Vec<BatchTask>,
    qi: usize,
    deadline: Option<Duration>,
    symbolic: SymbolicStage,
) -> usize {
    tasks.push(BatchTask {
        name: format!("query-{qi}"),
        neural: NeuralStage::Synthetic { duration: Duration::ZERO },
        symbolic,
        deadline,
    });
    tasks.len() - 1
}

/// Direct Monte-Carlo with the deadline-fitted budget: cost is linear
/// in the budget, which is exactly what the router's cost model
/// assumes.
fn approx_config(samples: u64, seed: u64) -> ApproxConfig {
    ApproxConfig {
        method: Method::MonteCarlo,
        sampling: SampleConfig { samples, checkpoint: (samples / 8).max(1), seed },
        ..ApproxConfig::default()
    }
}

/// Conjoins partial evidence onto a formula as unit clauses, so
/// `Pr[φ ∧ e]` becomes a plain WMC over the extended formula.
fn conjoin(cnf: &Cnf, evidence: &Evidence) -> Cnf {
    let mut out = cnf.clone();
    for v in 0..evidence.len() {
        if let Some(value) = evidence.value(v) {
            let dimacs = if value == 1 { v as i32 + 1 } else { -(v as i32 + 1) };
            out.add_dimacs_clause(&[dimacs]);
        }
    }
    out
}

/// The prior mass `Pr[e]` of partial evidence under independent
/// per-variable marginals.
fn prior_mass(weights: &WmcWeights, evidence: &Evidence) -> f64 {
    (0..weights.len())
        .map(|v| match evidence.value(v) {
            Some(1) => weights.prob(v),
            Some(_) => 1.0 - weights.prob(v),
            None => 1.0,
        })
        .product()
}

#[cfg(test)]
mod tests {
    use super::*;
    use reason_pc::CompiledWmc;
    use reason_sat::gen::random_ksat;

    fn engine() -> ServeEngine {
        ServeEngine::new(ServeConfig::default())
    }

    fn sat_instance(n: usize, m: usize, seed: u64) -> (Cnf, WmcWeights) {
        let mut s = seed;
        loop {
            let cnf = random_ksat(n, m, 3, s);
            let w = WmcWeights::new((0..n).map(|v| 0.35 + 0.03 * (v % 6) as f64).collect());
            if CompiledWmc::new(&cnf, &w).wmc() > 0.0 {
                return (cnf, w);
            }
            s += 1;
        }
    }

    #[test]
    fn exact_batch_matches_the_oracle_and_hits_the_store() {
        let (cnf, w) = sat_instance(10, 26, 1);
        let mut engine = engine();
        let id = engine.register("kb", &cnf, w.clone());
        let mut ev = Evidence::empty(10);
        ev.set(0, 1).set(3, 0);
        let queries = vec![
            Query::exact(QueryKind::Wmc),
            Query::exact(QueryKind::Probability(ev.clone())),
            Query::exact(QueryKind::Posterior(ev.clone())),
            Query::exact(QueryKind::Marginal(ev.clone(), 5)),
            Query::exact(QueryKind::Mpe(ev.clone())),
        ];
        let report = engine.serve(id, &queries).unwrap();
        assert_eq!(report.outcomes.len(), 5);
        let mut oracle = CompiledWmc::new(&cnf, &w);
        match &report.outcomes[0].answer {
            Answer::Exact(z) => assert_eq!(*z, oracle.wmc()),
            other => panic!("expected exact WMC, got {other:?}"),
        }
        match &report.outcomes[1].answer {
            Answer::Exact(p) => assert_eq!(*p, oracle.probability(&ev)),
            other => panic!("expected exact probability, got {other:?}"),
        }
        match &report.outcomes[2].answer {
            Answer::Exact(p) => assert_eq!(*p, oracle.posterior(&ev).unwrap()),
            other => panic!("expected exact posterior, got {other:?}"),
        }
        assert!(matches!(report.outcomes[3].answer, Answer::Distribution(_)));
        match &report.outcomes[4].answer {
            Answer::Assignment { assignment, .. } => {
                let model: Vec<bool> = assignment.iter().map(|&v| v == 1).collect();
                assert!(cnf.eval(&model));
            }
            other => panic!("expected assignment, got {other:?}"),
        }
        // A second batch answers from the hot store: no new insertion.
        let before = engine.store_stats().insertions;
        let again = engine.serve(id, &queries[..2]).unwrap();
        assert_eq!(engine.store_stats().insertions, before);
        assert!(again.outcomes.iter().all(|o| o.route == Route::Exact));
    }

    /// The one exact answer of a single-query batch.
    fn exact_one(engine: &mut ServeEngine, id: KbId, kind: QueryKind) -> f64 {
        match engine.serve(id, &[Query::exact(kind)]).unwrap().outcomes.remove(0).answer {
            Answer::Exact(x) => x,
            other => panic!("expected an exact answer, got {other:?}"),
        }
    }

    #[test]
    fn batch_of_one_equals_lane_k_of_a_wide_batch_bit_for_bit() {
        let (cnf, w) = sat_instance(9, 24, 3);
        let mut engine = engine();
        let id = engine.register("kb", &cnf, w);
        let wide: Vec<Query> = (0..12usize)
            .map(|k| {
                let mut ev = Evidence::empty(9);
                ev.set(k % 9, k % 2).set((k + 4) % 9, 1);
                Query::exact(match k % 4 {
                    0 => QueryKind::Posterior(ev),
                    1 => QueryKind::Probability(ev),
                    2 => QueryKind::Marginal(ev, k % 9),
                    _ => QueryKind::Mpe(ev),
                })
            })
            .collect();
        let batch = engine.serve(id, &wide).unwrap();
        for (k, q) in wide.iter().enumerate() {
            let alone = engine.serve(id, std::slice::from_ref(q)).unwrap().outcomes.remove(0);
            assert_eq!(alone.answer, batch.outcomes[k].answer, "lane {k}");
            if let (Answer::Exact(a), Answer::Exact(b)) = (alone.answer, &batch.outcomes[k].answer)
            {
                assert_eq!(a.to_bits(), b.to_bits(), "lane {k}");
            }
        }
    }

    #[test]
    fn deadline_fallback_produces_bounds_containing_the_exact_answer() {
        let (cnf, w) = sat_instance(12, 30, 5);
        let mut engine = engine();
        let id = engine.register("kb", &cnf, w.clone());
        // Cold artifact + tight deadline: the router charges the
        // predicted compile and degrades to anytime bounds.
        let q = Query::with_deadline(QueryKind::Wmc, Duration::from_micros(50));
        let report = engine.serve(id, &[q]).unwrap();
        assert!(matches!(report.outcomes[0].route, Route::Approx { .. }));
        let Answer::Bounds { lower, upper, .. } = report.outcomes[0].answer else {
            panic!("deadline fallback must produce bounds");
        };
        let exact = CompiledWmc::new(&cnf, &w).wmc();
        assert!(lower <= exact && exact <= upper, "[{lower}, {upper}] vs {exact}");
        assert_eq!(engine.store_stats().insertions, 0, "no compile happened");
    }

    #[test]
    fn incremental_edits_recompile_with_component_reuse() {
        let (cnf, w) = sat_instance(12, 30, 7);
        let mut engine = engine();
        let id = engine.register("kb", &cnf, w.clone());
        engine.warm(id).unwrap();
        let cold_stats = engine.last_compile_stats(id);
        assert_eq!(cold_stats.persistent_hits, 0);
        engine.add_clause(id, &[1, -2, 3]);
        engine.warm(id).unwrap();
        let warm_stats = engine.last_compile_stats(id);
        assert!(
            warm_stats.persistent_hits > 0,
            "incremental recompile must reuse components: {warm_stats:?}"
        );
        // Answers stay exact after the edit.
        let z = exact_one(&mut engine, id, QueryKind::Wmc);
        let expect = CompiledWmc::new(&engine.kb(id).cnf(), &w).wmc();
        assert!((z - expect).abs() < 1e-12);
    }

    #[test]
    fn predictor_rung_activates_under_impossible_deadlines() {
        let (cnf, w) = sat_instance(8, 20, 11);
        let cfg = ServeConfig {
            predictor: Some(PredictConfig { queries: 96, epochs: 120, hidden: 12 }),
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(cfg);
        let id = engine.register("kb", &cnf, w);
        engine.warm(id).unwrap();
        assert!(engine.telemetry(id).has_predictor);
        let q = Query::with_deadline(QueryKind::Wmc, Duration::from_nanos(10));
        let report = engine.serve(id, &[q]).unwrap();
        assert_eq!(report.outcomes[0].route, Route::Predicted);
        let Answer::Predicted(p) = report.outcomes[0].answer else {
            panic!("predicted answer");
        };
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn unsat_kbs_are_rejected_with_no_mass() {
        let cnf = Cnf::from_clauses(2, vec![vec![1], vec![-1]]);
        let mut engine = engine();
        let id = engine.register("empty", &cnf, WmcWeights::uniform(2));
        assert_eq!(engine.warm(id), Err(ServeError::NoMass("empty".to_string())));
    }

    /// Tenants "a" and "b" on an engine whose store holds one artifact.
    fn two_tenants_one_slot() -> (ServeEngine, KbId, KbId) {
        let mut engine = ServeEngine::new(ServeConfig {
            store: StoreConfig { max_entries: 1, max_bytes: usize::MAX },
            ..ServeConfig::default()
        });
        let (cnf_a, w_a) = sat_instance(9, 22, 21);
        let (cnf_b, w_b) = sat_instance(10, 24, 22);
        let a = engine.register("a", &cnf_a, w_a);
        let b = engine.register("b", &cnf_b, w_b);
        (engine, a, b)
    }

    #[test]
    fn eviction_roundtrip_preserves_answers_bit_for_bit() {
        let (mut engine, a, b) = two_tenants_one_slot();
        let z_first = exact_one(&mut engine, a, QueryKind::Wmc);
        // Serving B evicts A (1-entry store); serving A again rebuilds
        // its artifact and must reproduce the identical bits.
        let _ = exact_one(&mut engine, b, QueryKind::Wmc);
        assert_eq!(engine.store_stats().evictions, 1);
        let z_again = exact_one(&mut engine, a, QueryKind::Wmc);
        assert_eq!(z_first.to_bits(), z_again.to_bits());
        assert_eq!(engine.store_stats().insertions, 3);
    }

    #[test]
    fn telemetry_reads_hotness_off_the_store() {
        let (mut engine, a, b) = two_tenants_one_slot();
        engine.warm(a).unwrap();
        assert!(engine.telemetry(a).compiled);
        // B's compile evicts A from the one-entry store; A's entry still
        // holds its circuit, but nothing hot serves it.
        engine.warm(b).unwrap();
        assert_eq!(engine.store_stats().evictions, 1);
        assert!(!engine.telemetry(a).compiled, "an evicted artifact is cold");
        assert!(engine.telemetry(b).compiled);
    }

    #[test]
    fn every_compile_kind_shares_one_circuit_and_reproduces_z() {
        let tel = Telemetry::shared();
        let (mut engine, a, b) = two_tenants_one_slot();
        engine.attach_telemetry(Arc::clone(&tel), 0);
        let compiles = |kind: &str| {
            let labels = [("shard", "0"), ("tenant", "a"), ("kind", kind)];
            tel.registry.counter("serve_compiles_total", &labels).get()
        };

        type Step = fn(&mut ServeEngine, KbId, KbId);
        let steps: [(&str, Step); 3] = [
            ("cold", |_, _, _| {}),
            // Edit and undo without serving in between: the store still
            // holds the artifact, the entry dropped its circuit.
            ("rehydrate", |engine, a, _| {
                engine.add_clause(a, &[1, -2, 3]);
                engine.retract_clause(a, engine.kb(a).num_clauses() - 1);
            }),
            // B's compile evicts A from the 1-entry store; the entry
            // keeps A's circuit.
            ("reflatten", |engine, _, b| {
                let _ = exact_one(engine, b, QueryKind::Wmc);
            }),
        ];
        let mut z_bits = None;
        for (kind, disturb) in steps {
            disturb(&mut engine, a, b);
            let before: Vec<u64> = steps.iter().map(|(k, _)| compiles(k)).collect();
            let z = exact_one(&mut engine, a, QueryKind::Wmc);
            for ((k, _), was) in steps.iter().zip(before) {
                assert_eq!(compiles(k) - was, u64::from(*k == kind), "{kind} step, {k} counter");
            }
            assert_eq!(*z_bits.get_or_insert(z.to_bits()), z.to_bits(), "{kind}");
            let entry = engine.kbs[a.0].circuit.as_ref().expect("compiled");
            let stored = engine.store.peek(&engine.kb(a).fingerprint()).expect("hot");
            assert!(Arc::ptr_eq(entry, &stored.circuit), "{kind}: one circuit, not a copy");
        }
    }

    #[test]
    fn hostile_queries_are_rejected_and_leave_the_engine_serving() {
        let n = 9;
        let (cnf, w) = sat_instance(n, 24, 3);
        let mut ev = Evidence::empty(n);
        ev.set(2, 1);
        let valid = [
            Query::exact(QueryKind::Posterior(ev.clone())),
            Query::exact(QueryKind::Marginal(ev.clone(), n - 1)),
            Query::exact(QueryKind::Mpe(ev.clone())),
        ];
        let mut non_binary = ev.clone();
        non_binary.set(4, 2);
        let mut engine = engine();
        let id = engine.register("kb", &cnf, w.clone());
        for kind in [
            QueryKind::Probability(Evidence::empty(n + 1)),
            QueryKind::Posterior(Evidence::empty(n - 1)),
            QueryKind::Mpe(Evidence::empty(n + 1)),
            QueryKind::Marginal(Evidence::empty(n - 1), 0),
            QueryKind::Marginal(ev, n),
            QueryKind::Probability(non_binary),
        ] {
            // Behind a valid exact lane, and alone on the approximate
            // route (which would conjoin the evidence onto the formula).
            let batch = [valid[0].clone(), Query::exact(kind.clone())];
            let exact = engine.serve(id, &batch);
            let approx = engine.serve_routed(id, &[(&batch[1], Route::Approx { samples: 16 })]);
            for got in [exact, approx] {
                assert!(matches!(got, Err(ServeError::BadQuery(_))), "{kind:?}: {got:?}");
            }
        }
        let mut fresh = self::engine();
        let fresh_id = fresh.register("kb", &cnf, w);
        let after = engine.serve(id, &valid).unwrap();
        let reference = fresh.serve(fresh_id, &valid).unwrap();
        for (got, want) in after.outcomes.iter().zip(&reference.outcomes) {
            assert_eq!(got.answer, want.answer);
        }
    }
}
