//! The sharded serving front-end: consistent hashing, deadline-aware
//! admission control, and virtual-time queue modeling over a pool of
//! [`ServeEngine`] shards.
//!
//! A [`ServeCluster`] owns `N` independent [`ServeEngine`]s and places
//! every registered knowledge base on exactly one of them by
//! consistent-hashing its [`FormulaFingerprint`] onto a [`HashRing`] of
//! virtual nodes. Placement is a pure function of `(fingerprint, shard
//! count, replicas, salt)`, so growing or shrinking the pool by one
//! shard remaps only the keys the new/removed shard's arc covers —
//! about `1/N` of them — instead of reshuffling everything the way
//! `digest % N` would.
//!
//! Admission happens *before* dispatch. Each arriving query is judged
//! by [`QueryRouter::admit`] against a deterministic cost model (the
//! [`KbTelemetry::prior`] fit, upgraded as the cluster observes its own
//! dispatch decisions) plus the destination shard's modeled queue
//! backlog at arrival time. A query whose deadline budget the backlog
//! has already consumed is [`Admission::Reject`]ed outright — it never
//! occupies an executor lane only to miss — and a query that can still
//! make its deadline on a cheaper rung is degraded *now*, not after an
//! exact attempt times out. Rejected queries stay in the report: every
//! submitted query has exactly one [`ClusterOutcome`], admitted or not.
//!
//! Because admission reads only the deterministic model (never wall
//! clocks), a replayed workload re-derives the identical admission and
//! routing sequence; the engines then execute the pre-decided routes
//! via [`ServeEngine::serve_routed`], whose answers are bit-identical
//! to a single engine serving the same queries on the same routes.

use std::sync::Arc;

use reason_pc::{FormulaFingerprint, WmcWeights};
use reason_sat::Cnf;
use reason_telemetry::profile::{exemplars, Exemplar};
use reason_telemetry::slo::{Objective, SloAlert, SloMonitor, SloSpec};
use reason_telemetry::Telemetry;

use crate::engine::{Answer, KbId, ServeConfig, ServeEngine, ServeError};
use crate::fault::{BreakerState, FaultConfig, FaultPlan, FaultStats, ShardHealth};
use crate::router::{Admission, KbTelemetry, Query, QueryRouter, Route};

/// A consistent-hash ring mapping fingerprints to shard indices.
///
/// Each shard contributes `replicas` virtual points placed by the
/// [`reason_pc::ring_mix`] finalizer; a key owns the first point at or
/// clockwise-after its own hash. More replicas smooth the load split at
/// the cost of a longer (still binary-searched) point table.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, shard)` pairs sorted by point.
    points: Vec<(u64, usize)>,
    shards: usize,
    salt: u64,
}

impl HashRing {
    /// A ring of `shards` shards with `replicas` virtual points each.
    ///
    /// # Panics
    ///
    /// Panics when `shards` or `replicas` is zero.
    pub fn new(shards: usize, replicas: usize, salt: u64) -> Self {
        assert!(shards > 0, "a ring needs at least one shard");
        assert!(replicas > 0, "a ring needs at least one replica point per shard");
        let mut points = Vec::with_capacity(shards * replicas);
        for shard in 0..shards {
            for replica in 0..replicas {
                // Scatter each (shard, replica) pair independently of
                // the others so a shard's arcs interleave with everyone
                // else's instead of clustering. The pre-mix input stays
                // unique per pair: disjoint bit ranges for shard and
                // replica, XORed with a salt-derived constant.
                let point = reason_pc::ring_mix(
                    (((shard as u64) << 32) | replica as u64) ^ reason_pc::ring_mix(salt),
                );
                points.push((point, shard));
            }
        }
        points.sort_unstable();
        HashRing { points, shards, salt }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `fingerprint`: the first virtual point at or
    /// clockwise-after the key's hash, wrapping at the top of the ring.
    pub fn shard_for(&self, fingerprint: &FormulaFingerprint) -> usize {
        let key = fingerprint.ring_hash(self.salt);
        let idx = self.points.partition_point(|&(p, _)| p < key);
        let (_, shard) = self.points[idx % self.points.len()];
        shard
    }

    /// The ring with `shard`'s virtual points removed — the failover
    /// view the fault-tolerant dispatcher routes through when a shard
    /// dies. Exactly symmetric to growing the ring: keys owned by
    /// surviving shards keep their owning points and never move; only
    /// the dead shard's arcs fall to their clockwise successors. The
    /// shard index space is unchanged (`shards()` still reports the
    /// configured width), so surviving indices stay valid.
    ///
    /// # Panics
    ///
    /// Panics when removing `shard` would leave the ring empty.
    pub fn remove_shard(&self, shard: usize) -> HashRing {
        let points: Vec<(u64, usize)> =
            self.points.iter().copied().filter(|&(_, s)| s != shard).collect();
        assert!(!points.is_empty(), "cannot remove the last live shard from the ring");
        HashRing { points, shards: self.shards, salt: self.salt }
    }
}

/// Cluster-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of [`ServeEngine`] shards.
    pub shards: usize,
    /// Virtual points per shard on the [`HashRing`].
    pub replicas: usize,
    /// Ring salt: changing it reshuffles placement wholesale, so keep
    /// it fixed for the lifetime of a deployment.
    pub salt: u64,
    /// Per-shard engine configuration (every shard is identical).
    pub engine: ServeConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig { shards: 2, replicas: 32, salt: 0xC1A5, engine: ServeConfig::default() }
    }
}

impl ClusterConfig {
    /// The default configuration with `shards` shards.
    pub fn with_shards(shards: usize) -> Self {
        ClusterConfig { shards, ..Default::default() }
    }
}

/// Handle to a knowledge base registered with a [`ServeCluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterKbId {
    index: usize,
}

/// Where one query's modeled latency went: queueing behind the shard's
/// backlog, compiling a cold artifact, and executing the admitted
/// route. All fields are seconds of modeled (virtual) time, and they
/// partition [`ClusterOutcome::modeled_latency_s`] exactly:
/// `queue_s + compile_s + exec_s == modeled_latency_s` (up to float
/// association). Rejected queries carry their sinking backlog in
/// `queue_s` and zero elsewhere.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageBreakdown {
    /// Seconds the query waited behind earlier work on its shard.
    pub queue_s: f64,
    /// Modeled cold-compile seconds; `0.0` on warm or non-exact routes.
    pub compile_s: f64,
    /// Modeled service seconds for the route itself (evaluations,
    /// samples, or one predictor pass).
    pub exec_s: f64,
}

impl StageBreakdown {
    /// Sum of the stages — reproduces the modeled latency.
    pub fn total(&self) -> f64 {
        self.queue_s + self.compile_s + self.exec_s
    }
}

/// One query's fate through the cluster: where the ring placed it, what
/// admission decided, and what came back.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// The shard the ring routed the knowledge base to.
    pub shard: usize,
    /// The pre-dispatch admission verdict.
    pub decision: Admission,
    /// Why admission picked that rung (see
    /// [`QueryRouter::admit_explained`]).
    pub reason: &'static str,
    /// The answer; `None` exactly when the query was rejected.
    pub answer: Option<Answer>,
    /// Arrival-to-completion seconds under the deterministic queue
    /// model (for rejects: the backlog that sank the query).
    pub modeled_latency_s: f64,
    /// Where the modeled latency went, stage by stage.
    pub stage: StageBreakdown,
    /// `true` when the modeled latency exceeds the query's deadline
    /// (rejects always miss; deadline-free queries never do).
    pub deadline_miss: bool,
    /// Measured executor seconds for the query's task(s); `0.0` for
    /// rejects, which never dispatch.
    pub latency_s: f64,
    /// Dispatch attempts the query took (1 = served on the first try;
    /// higher counts mean backoff retries and/or failovers).
    pub attempts: u32,
    /// `true` when the query was re-routed to a failover shard after
    /// its primary was unreachable.
    pub failover: bool,
    /// `true` when the query stepped down the degrade ladder because of
    /// an injected fault (not because of its own deadline budget).
    pub degraded_by_fault: bool,
}

/// Admission counters over one [`ServeCluster::serve_at`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Queries admitted on the exact rung.
    pub exact: u64,
    /// Queries degraded to anytime bounds before dispatch.
    pub approx: u64,
    /// Queries degraded to the prediction network before dispatch.
    pub predicted: u64,
    /// Queries rejected before dispatch.
    pub rejected: u64,
    /// Admitted queries whose modeled latency still missed their
    /// deadline (the backlog estimate was optimistic).
    pub deadline_misses: u64,
}

/// The result of one cluster batch.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Per-query outcomes, in submission order — one per submitted
    /// query, including rejects.
    pub outcomes: Vec<ClusterOutcome>,
    /// Admission counters for this batch.
    pub stats: AdmissionStats,
}

/// What the cluster deterministically believes about one knowledge
/// base. Unlike the engines' live telemetry (which measures wall
/// clocks), this model is a pure function of the registration and the
/// admission history, so replays reproduce it exactly.
#[derive(Debug, Clone)]
struct KbModel {
    shard: usize,
    kb: KbId,
    /// Registration name — the `tenant` label on cluster metrics and
    /// spans.
    name: String,
    telemetry: KbTelemetry,
    /// The placement key, kept so the fault layer can re-route through
    /// a shrunken ring on failover.
    fingerprint: FormulaFingerprint,
    /// Failover replicas the fault layer registered on other shards,
    /// with their own compiled/predictor bits (the shared cost numbers
    /// stay in `telemetry`).
    failovers: Vec<FailoverReplica>,
}

/// One failover registration of a knowledge base on a non-primary
/// shard.
#[derive(Debug, Clone, Copy)]
struct FailoverReplica {
    shard: usize,
    kb: KbId,
    compiled: bool,
    has_predictor: bool,
}

/// The cluster's live fault-tolerance state: the injected plan, the
/// policy, one breaker per shard, and the lifetime counters.
struct FaultDomain {
    plan: FaultPlan,
    config: FaultConfig,
    health: Vec<ShardHealth>,
    /// One flag per scheduled wipe: fired yet?
    wipes_applied: Vec<bool>,
    stats: FaultStats,
}

impl FaultDomain {
    /// Publishes a breaker state change (if any) to the registry:
    /// `breaker_state{shard}` gauge plus
    /// `breaker_transitions_total{shard, to}`.
    fn observe_breaker(&self, tel: Option<&Telemetry>, shard: usize, before: BreakerState) {
        let after = self.health[shard].state();
        if before == after {
            return;
        }
        if let Some(tel) = tel {
            let shard_label = shard.to_string();
            tel.registry
                .gauge("breaker_state", &[("shard", &shard_label)])
                .set(after.gauge_value());
            tel.registry
                .counter(
                    "breaker_transitions_total",
                    &[("shard", &shard_label), ("to", after.label())],
                )
                .inc();
        }
    }
}

/// One fault-layer decision on a query's path to dispatch, kept so the
/// admission telemetry can trace it as a child span of the query's
/// `cluster.query` root.
#[derive(Debug, Clone, Copy)]
struct FaultEvent {
    name: &'static str,
    start: f64,
    end: f64,
}

/// Where (and when) the fault layer decided one query dispatches.
struct Placement {
    shard: usize,
    kb: KbId,
    /// Decision time after backoffs and recovery waits (`>=` arrival).
    now: f64,
    attempts: u32,
    failover: bool,
}

/// One knowledge base's admitted queries within a batch on one shard,
/// in admission order: (arrival index, query, decided route). The key
/// carries the shard and engine-local id because failover can split a
/// KB's traffic across shards within a single batch.
type AdmittedGroup = ((ClusterKbId, usize, KbId), Vec<(usize, Query, Route)>);

/// The sharded serving front-end (see the [module docs](self)).
pub struct ServeCluster {
    config: ClusterConfig,
    ring: HashRing,
    shards: Vec<ServeEngine>,
    /// Deterministic admission judge (no counters are ever recorded on
    /// it — [`QueryRouter::admit`] takes `&self`).
    admission: QueryRouter,
    kbs: Vec<KbModel>,
    /// Per-shard virtual clock: the modeled time each shard's queue
    /// drains. Admission charges `max(0, free_at - arrival)` as backlog.
    free_at: Vec<f64>,
    /// Optional observability sink: admission counters and per-query
    /// modeled span chains, plus whatever the shard engines record once
    /// attached.
    telemetry: Option<Arc<Telemetry>>,
    /// Trace track of the next query's span chain. Tracks start at 1
    /// (track 0 carries the engines' wall-clock spans) and each query
    /// gets its own: a queued query's arrival-to-completion interval
    /// genuinely overlaps its predecessor's service interval in virtual
    /// time, which a shared track could not represent as a well-formed
    /// forest.
    next_track: u64,
    /// Fault-tolerance state; `None` (the default) keeps the serve path
    /// exactly as fast as before the fault layer existed.
    fault: Option<FaultDomain>,
    /// Live SLO evaluation; `None` (the default) adds no per-arrival
    /// work. Alert spans land on [`SLO_TRACK`].
    slo: Option<SloMonitor>,
}

/// The span track [`SloMonitor`] alert spans use — far above the
/// per-query tracks, which count up from 1.
pub const SLO_TRACK: u64 = u64::MAX;

impl ServeCluster {
    /// A cluster of `config.shards` identically configured engines.
    ///
    /// # Panics
    ///
    /// Panics when `config.shards` or `config.replicas` is zero.
    pub fn new(config: ClusterConfig) -> Self {
        let ring = HashRing::new(config.shards, config.replicas, config.salt);
        let shards = (0..config.shards).map(|_| ServeEngine::new(config.engine)).collect();
        ServeCluster {
            config,
            ring,
            shards,
            admission: QueryRouter::new(config.engine.router),
            kbs: Vec::new(),
            free_at: vec![0.0; config.shards],
            telemetry: None,
            next_track: 1,
            fault: None,
            slo: None,
        }
    }

    /// Installs (or replaces) the fault domain: the injected
    /// [`FaultPlan`] plus the breaker/retry policy. From now on every
    /// [`serve_at`](Self::serve_at) arrival walks the fault-aware
    /// dispatch path — breaker checks, hedged retries with
    /// deterministic backoff, ring failover with recompilation on the
    /// surviving shard, and ladder degradation when exact capacity is
    /// lost. Installing `FaultPlan::new()` (no faults) keeps behavior
    /// identical to the bare cluster while exercising the machinery.
    pub fn install_fault_domain(&mut self, plan: FaultPlan, config: FaultConfig) {
        let wipes_applied = vec![false; plan.wipes().len()];
        self.fault = Some(FaultDomain {
            plan,
            config,
            health: (0..self.config.shards).map(|_| ShardHealth::new(config.breaker)).collect(),
            wipes_applied,
            stats: FaultStats::default(),
        });
    }

    /// The fault layer's lifetime counters; `None` before
    /// [`install_fault_domain`](Self::install_fault_domain).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.fault.as_ref().map(|f| f.stats)
    }

    /// Attaches an observability sink. The cluster records labeled
    /// admission counters (`cluster_admissions_total{shard, tenant,
    /// route, reason}`, `cluster_rejects_total`,
    /// `cluster_deadline_miss_total`) and, for every query, a modeled
    /// span chain on its own track — `cluster.query` spanning arrival
    /// to modeled completion, with `cluster.admit`, `cluster.route`,
    /// `queue.wait`, `store.probe`, `serve.compile` (cold exact only)
    /// and `serve.eval` children, every span labeled with shard and
    /// tenant — all stamped with virtual (modeled) timestamps, so
    /// traces replay byte-identically. Each shard engine is attached
    /// too, contributing its wall-clock store and compile
    /// instrumentation on track 0.
    pub fn attach_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        for (shard, engine) in self.shards.iter_mut().enumerate() {
            engine.attach_telemetry(telemetry.clone(), shard);
        }
        self.telemetry = Some(telemetry);
    }

    /// The default SLO set for a sweep spanning `horizon_s` virtual
    /// seconds: availability (reject fraction), deadline-miss fraction,
    /// and modeled latency, each burn-rate-alerted over a fast window
    /// of `horizon_s / 20` and a slow window of `horizon_s / 5`. The
    /// budgets are sized so healthy traffic/chaos baselines stay quiet
    /// while a crashed shard's reject concentration trips availability.
    pub fn default_slo_specs(horizon_s: f64) -> Vec<SloSpec> {
        let fast_window_s = horizon_s / 20.0;
        let slow_window_s = horizon_s / 5.0;
        let all: Vec<String> =
            vec!["cluster_admissions_total".into(), "cluster_rejects_total".into()];
        vec![
            SloSpec {
                name: "availability".into(),
                objective: Objective::CounterRatio {
                    bad: vec!["cluster_rejects_total".into()],
                    total: all.clone(),
                },
                budget: 0.01,
                fast_window_s,
                slow_window_s,
                burn_threshold: 10.0,
            },
            SloSpec {
                name: "deadline".into(),
                objective: Objective::CounterRatio {
                    bad: vec!["cluster_deadline_miss_total".into()],
                    total: all,
                },
                budget: 0.25,
                fast_window_s,
                slow_window_s,
                burn_threshold: 3.0,
            },
            SloSpec {
                name: "latency_1ms".into(),
                objective: Objective::LatencyAbove {
                    histogram: "cluster_modeled_latency_seconds".into(),
                    threshold_s: 1e-3,
                },
                budget: 0.1,
                fast_window_s,
                slow_window_s,
                burn_threshold: 5.0,
            },
        ]
    }

    /// Installs (or replaces) live SLO evaluation: every
    /// [`serve_at`](Self::serve_at) arrival re-measures the objectives
    /// at its arrival time, burn rates land in `slo_*` metrics, and
    /// alerts become spans on [`SLO_TRACK`].
    ///
    /// # Panics
    ///
    /// Panics when no telemetry is attached (the objectives read the
    /// attached registry) or when a spec is malformed (see
    /// [`SloMonitor::add`]).
    pub fn install_slos(&mut self, specs: Vec<SloSpec>) {
        let tel =
            self.telemetry.clone().expect("attach_telemetry before install_slos: SLOs read it");
        let mut monitor = SloMonitor::new(tel, SLO_TRACK);
        for spec in specs {
            monitor.add(spec);
        }
        self.slo = Some(monitor);
    }

    /// Every SLO alert fired so far; empty before
    /// [`install_slos`](Self::install_slos).
    pub fn slo_alerts(&self) -> &[SloAlert] {
        self.slo.as_ref().map_or(&[], |m| m.alerts())
    }

    /// Resolves every still-active SLO alert at virtual time `t` (end
    /// of sweep), recording their spans. No-op without a monitor.
    pub fn finish_slos(&mut self, t: f64) {
        if let Some(monitor) = &mut self.slo {
            monitor.finish(t);
        }
    }

    /// The `k` worst modeled-latency queries served so far, each with
    /// its full admit → route → compile → eval span chain — the tail
    /// worth reading first. Empty without attached telemetry.
    pub fn tail_exemplars(&self, k: usize) -> Vec<Exemplar> {
        self.telemetry
            .as_ref()
            .map_or_else(Vec::new, |tel| exemplars(&tel.tracer.finished(), "cluster.query", k))
    }

    /// The deterministic per-KB cost models admission judges against,
    /// as `(tenant, shard, model)` rows in registration order.
    pub fn kb_models(&self) -> Vec<(String, usize, KbTelemetry)> {
        self.kbs.iter().map(|m| (m.name.clone(), m.shard, m.telemetry)).collect()
    }

    /// Registers a knowledge base on the shard its fingerprint hashes
    /// to. Registration is cheap; compilation happens on the first
    /// exact dispatch.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        cnf: &Cnf,
        weights: WmcWeights,
    ) -> ClusterKbId {
        let name = name.into();
        let fingerprint = FormulaFingerprint::from_parts(cnf.num_vars(), cnf.clauses(), &weights);
        let shard = self.ring.shard_for(&fingerprint);
        let kb = self.shards[shard].register(name.clone(), cnf, weights);
        let registered = self.shards[shard].kb(kb);
        self.kbs.push(KbModel {
            shard,
            kb,
            name,
            telemetry: KbTelemetry::prior(registered.num_vars(), registered.num_clauses()),
            fingerprint,
            failovers: Vec::new(),
        });
        ClusterKbId { index: self.kbs.len() - 1 }
    }

    /// The shard the ring placed `id` on.
    pub fn shard_of(&self, id: ClusterKbId) -> usize {
        self.kbs[id.index].shard
    }

    /// Shard engines, for inspection (store/router statistics).
    pub fn engines(&self) -> &[ServeEngine] {
        &self.shards
    }

    /// Serves an open-loop workload: `(kb, query, arrival_seconds)`
    /// triples in nondecreasing arrival order (a batch arriving all at
    /// once is every arrival at `0.0`).
    ///
    /// Admission runs first, in arrival order, against the
    /// deterministic cost model and each shard's virtual clock: a
    /// query's backlog is how far its shard's modeled queue extends
    /// past its arrival, its admitted route is charged to the clock,
    /// and a query whose deadline budget the backlog consumes is
    /// rejected without ever dispatching. The admitted queries are then
    /// executed for real, grouped per `(shard, knowledge base)` through
    /// [`ServeEngine::serve_routed`] (preserving submission order
    /// within each group, with deadlines riding along for EDF
    /// dispatch), and the measured latencies land in
    /// [`ClusterOutcome::latency_s`] next to the modeled ones.
    ///
    /// The virtual clock persists across calls, so successive
    /// [`serve_at`](Self::serve_at) batches model one continuous queue.
    ///
    /// # Panics
    ///
    /// Panics when arrivals are not sorted by arrival time.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoMass`] when an exact-routed query forces a
    /// compilation and its formula has no satisfying mass;
    /// [`ServeError::BadQuery`] when a query does not fit its knowledge
    /// base. Neither can succeed on another route, so both fail the
    /// call instead of degrading.
    pub fn serve_at(
        &mut self,
        arrivals: &[(ClusterKbId, Query, f64)],
    ) -> Result<ClusterReport, ServeError> {
        // Taken out of `self` so the fault-aware helpers can borrow the
        // cluster mutably (lazy failover registration, cache wipes)
        // while walking the domain; restored before returning. The SLO
        // monitor rides along the same way.
        let mut fault = self.fault.take();
        let mut slo = self.slo.take();
        let result = self.serve_at_inner(arrivals, &mut fault, &mut slo);
        self.fault = fault;
        self.slo = slo;
        result
    }

    fn serve_at_inner(
        &mut self,
        arrivals: &[(ClusterKbId, Query, f64)],
        fault: &mut Option<FaultDomain>,
        slo: &mut Option<SloMonitor>,
    ) -> Result<ClusterReport, ServeError> {
        let tel = self.telemetry.clone();
        let mut stats = AdmissionStats::default();
        let mut outcomes: Vec<ClusterOutcome> = Vec::with_capacity(arrivals.len());
        let mut groups: Vec<AdmittedGroup> = Vec::new();

        let mut last_t = f64::NEG_INFINITY;
        for (i, (id, query, t)) in arrivals.iter().enumerate() {
            assert!(*t >= last_t, "arrivals must be sorted by arrival time");
            last_t = *t;
            let mut events: Vec<FaultEvent> = Vec::new();
            // Resolve where and when the query dispatches, and what
            // admission decided there. Without a fault domain this is
            // the primary shard at arrival time, judged exactly as
            // before the fault layer existed.
            let (place, tel_eff, decision, reason, degraded_by_fault) = match fault {
                None => {
                    let model = &self.kbs[id.index];
                    let shard = model.shard;
                    let backlog_s = (self.free_at[shard] - t).max(0.0);
                    let (decision, reason) =
                        self.admission.admit_explained(query, &model.telemetry, backlog_s);
                    let place =
                        Placement { shard, kb: model.kb, now: *t, attempts: 1, failover: false };
                    (place, model.telemetry, decision, reason, false)
                }
                Some(domain) => {
                    self.apply_due_wipes(domain, *t, tel.as_deref());
                    self.admit_under_faults(domain, *id, query, *t, tel.as_deref(), &mut events)
                }
            };
            let Placement { shard, kb, now, attempts, failover } = place;
            let model_name = self.kbs[id.index].name.clone();
            match decision {
                Admission::Reject { .. } => {
                    stats.rejected += 1;
                    stats.deadline_misses += 1;
                    if let Some(tel) = &tel {
                        let track = self.next_track;
                        let shard_label = shard.to_string();
                        let labels: [(&str, &str); 3] =
                            [("shard", &shard_label), ("tenant", &model_name), ("reason", reason)];
                        tel.registry.counter("cluster_rejects_total", &labels).inc();
                        tel.registry
                            .counter("cluster_deadline_miss_total", &[("shard", &shard_label)])
                            .inc();
                        let root = tel.tracer.record_span(
                            track,
                            "cluster.query",
                            &[
                                ("shard", &shard_label),
                                ("tenant", &model_name),
                                ("route", "reject"),
                                ("reason", reason),
                            ],
                            *t,
                            now.max(*t),
                        );
                        tel.tracer.record_span_under(
                            track,
                            "cluster.admit",
                            &[("decision", "reject")],
                            *t,
                            *t,
                            root,
                        );
                        record_fault_events(tel, track, root, &events, *t, now.max(*t));
                    }
                    self.next_track += 1;
                    let backlog_s = (self.free_at[shard] - t).max(0.0) + (now - t).max(0.0);
                    outcomes.push(ClusterOutcome {
                        shard,
                        decision,
                        reason,
                        answer: None,
                        modeled_latency_s: backlog_s,
                        stage: StageBreakdown { queue_s: backlog_s, compile_s: 0.0, exec_s: 0.0 },
                        deadline_miss: true,
                        latency_s: 0.0,
                        attempts,
                        failover,
                        degraded_by_fault,
                    });
                }
                Admission::Admit(route) => {
                    let cold = matches!(route, Route::Exact) && !tel_eff.compiled;
                    // Slow-shard windows stretch the modeled service
                    // (compile and execution alike) by their factor.
                    let start = self.free_at[shard].max(now);
                    let mult = match fault {
                        Some(domain) => {
                            let m = domain.plan.slow_multiplier(shard, start);
                            if m > 1.0 {
                                domain.stats.slowdowns_hit += 1;
                                if let Some(tel) = &tel {
                                    let shard_label = shard.to_string();
                                    tel.registry
                                        .counter(
                                            "fault_injected_total",
                                            &[("shard", &shard_label), ("kind", "slow")],
                                        )
                                        .inc();
                                }
                                events.push(FaultEvent { name: "fault.slow", start, end: start });
                            }
                            m
                        }
                        None => 1.0,
                    };
                    let cost_s = modeled_cost(route, query, &tel_eff) * mult;
                    let compile_s = if cold { tel_eff.compile_s * mult } else { 0.0 };
                    self.free_at[shard] = start + cost_s;
                    let stage = StageBreakdown {
                        queue_s: (start - t).max(0.0),
                        compile_s,
                        exec_s: cost_s - compile_s,
                    };
                    // The reported latency is *defined* as the stage
                    // sum, so the breakdown partitions it bit-exactly
                    // instead of drifting by a rounding term from
                    // `(start + cost) - t`.
                    let modeled_latency_s = stage.total();
                    let deadline_miss =
                        query.deadline.is_some_and(|d| modeled_latency_s > d.as_secs_f64());
                    let route_label = match route {
                        Route::Exact => "exact",
                        Route::Approx { .. } => "approx",
                        Route::Predicted => "predicted",
                    };
                    if let Some(tel) = &tel {
                        record_admit_telemetry(
                            tel,
                            self.next_track,
                            shard,
                            &model_name,
                            route_label,
                            reason,
                            deadline_miss,
                            *t,
                            start,
                            &stage,
                            cold,
                            matches!(route, Route::Exact),
                            &events,
                        );
                    }
                    self.next_track += 1;
                    match route {
                        Route::Exact => {
                            stats.exact += 1;
                            // The dispatch below compiles the artifact
                            // (and trains the predictor, when
                            // configured): upgrade the model so later
                            // arrivals are judged against warm costs.
                            self.mark_compiled(*id, shard);
                        }
                        Route::Approx { .. } => stats.approx += 1,
                        Route::Predicted => stats.predicted += 1,
                    }
                    if deadline_miss {
                        stats.deadline_misses += 1;
                    }
                    outcomes.push(ClusterOutcome {
                        shard,
                        decision,
                        reason,
                        answer: None,
                        modeled_latency_s,
                        stage,
                        deadline_miss,
                        latency_s: 0.0,
                        attempts,
                        failover,
                        degraded_by_fault,
                    });
                    let key = (*id, shard, kb);
                    match groups.iter_mut().find(|(gid, _)| *gid == key) {
                        Some((_, entries)) => entries.push((i, query.clone(), route)),
                        None => groups.push((key, vec![(i, query.clone(), route)])),
                    }
                }
            }
            // Re-measure the objectives now that this arrival's
            // counters landed — burn-rate windows advance in the same
            // virtual time admission models.
            if let Some(monitor) = slo.as_mut() {
                monitor.observe(*t);
            }
        }

        // Dispatch: every admitted query executes for real on its
        // shard, on the route admission pre-decided.
        let floor = self.config.engine.router.min_approx_samples.max(1);
        for ((_, shard, kb), entries) in groups {
            let queries: Vec<Query> = entries.iter().map(|(_, q, _)| q.clone()).collect();
            let routes: Vec<Route> = entries.iter().map(|(_, _, r)| *r).collect();
            let report = match self.shards[shard].serve_routed(kb, &queries, &routes) {
                Ok(report) => Some(report),
                Err(err @ (ServeError::NoMass(_) | ServeError::BadQuery(_))) => return Err(err),
                Err(_) => {
                    // A hot-path failure (eviction race, lost
                    // predictor) degrades this group instead of
                    // killing the whole batch: retry once on the
                    // cheapest sound routes.
                    let fallback: Vec<Route> = queries
                        .iter()
                        .zip(&routes)
                        .map(|(q, r)| match r {
                            Route::Exact if q.kind.degradable() => Route::Approx { samples: floor },
                            Route::Predicted => Route::Approx { samples: floor },
                            other => *other,
                        })
                        .collect();
                    for (((i, _, _), r), f) in entries.iter().zip(&routes).zip(&fallback) {
                        if r != f {
                            outcomes[*i].degraded_by_fault = true;
                        }
                    }
                    self.shards[shard].serve_routed(kb, &queries, &fallback).ok()
                }
            };
            if let Some(report) = report {
                for ((i, _, _), outcome) in entries.iter().zip(report.outcomes) {
                    outcomes[*i].answer = Some(outcome.answer);
                    outcomes[*i].latency_s = outcome.latency_s;
                }
            }
        }

        Ok(ClusterReport { outcomes, stats })
    }

    /// Fires every cache wipe scheduled at or before `t` that has not
    /// fired yet: the shard's store and source circuits are genuinely dropped
    /// (the next exact query recompiles through the KB's persistent
    /// component cache) and the admission model forgets the artifacts.
    fn apply_due_wipes(&mut self, domain: &mut FaultDomain, t: f64, tel: Option<&Telemetry>) {
        for wi in 0..domain.plan.wipes().len() {
            let wipe = domain.plan.wipes()[wi];
            if domain.wipes_applied[wi] || wipe.at_s > t || wipe.shard >= self.shards.len() {
                continue;
            }
            domain.wipes_applied[wi] = true;
            domain.stats.cache_wipes += 1;
            self.shards[wipe.shard].wipe_store();
            for model in &mut self.kbs {
                if model.shard == wipe.shard {
                    model.telemetry.compiled = false;
                }
                for replica in &mut model.failovers {
                    if replica.shard == wipe.shard {
                        replica.compiled = false;
                    }
                }
            }
            if let Some(tel) = tel {
                let shard_label = wipe.shard.to_string();
                tel.registry
                    .counter(
                        "fault_injected_total",
                        &[("shard", &shard_label), ("kind", "cache_wipe")],
                    )
                    .inc();
            }
        }
    }

    /// The fault-aware path to admission for one arrival: walk the
    /// breaker → crash-retry → ring-failover ladder in virtual time
    /// until a dispatchable shard is found, then run admission there —
    /// degrading past the exact rung when a transient compile fault
    /// blocks it. Crash windows are finite, so the walk always
    /// terminates: a query that finds every shard down waits for the
    /// earliest recovery instead of being dropped (zero lost queries).
    fn admit_under_faults(
        &mut self,
        domain: &mut FaultDomain,
        id: ClusterKbId,
        query: &Query,
        t: f64,
        tel: Option<&Telemetry>,
        events: &mut Vec<FaultEvent>,
    ) -> (Placement, KbTelemetry, Admission, &'static str, bool) {
        let mut now = t;
        let mut shard = self.kbs[id.index].shard;
        let mut excluded: Vec<usize> = Vec::new();
        let mut attempts_here: u32 = 1;
        let mut total_attempts: u32 = 1;
        let mut failover = false;
        let deadline_cutoff = t + query.deadline.map_or(f64::INFINITY, |d| d.as_secs_f64());
        // Per-query jitter salt: the placement key hashed with the
        // query's (deterministic) trace track.
        let salt = self.kbs[id.index].fingerprint.ring_hash(self.next_track);
        let count = |name: &str, kind: &str, shard: usize| {
            if let Some(tel) = tel {
                let shard_label = shard.to_string();
                let labels: [(&str, &str); 2] = [("shard", &shard_label), ("kind", kind)];
                let trimmed = if kind.is_empty() { &labels[..1] } else { &labels[..] };
                tel.registry.counter(name, trimmed).inc();
            }
        };
        loop {
            let before = domain.health[shard].state();
            let admits = domain.health[shard].admits(now);
            domain.observe_breaker(tel, shard, before);
            if admits {
                let dispatch_start = self.free_at[shard].max(now);
                if domain.plan.crashed(shard, dispatch_start) {
                    domain.stats.crashes_hit += 1;
                    count("fault_injected_total", "crash", shard);
                    events.push(FaultEvent { name: "fault.crash", start: now, end: now });
                    let before = domain.health[shard].state();
                    domain.health[shard].record_failure(now);
                    domain.observe_breaker(tel, shard, before);
                    let backoff = domain.config.retry.backoff_s(attempts_here, salt);
                    // Hedge: when the backoff would blow the deadline,
                    // skip straight to failover instead of retrying.
                    if attempts_here < domain.config.retry.max_attempts
                        && now + backoff <= deadline_cutoff
                    {
                        domain.stats.retries += 1;
                        count("retry_attempts_total", "", shard);
                        events.push(FaultEvent {
                            name: "fault.retry",
                            start: now,
                            end: now + backoff,
                        });
                        now += backoff;
                        attempts_here += 1;
                        total_attempts += 1;
                        continue;
                    }
                } else {
                    // The shard is dispatchable: run admission here.
                    let tel_eff = self.effective_telemetry(id, shard);
                    let backlog_s = (self.free_at[shard] - now).max(0.0);
                    let spent_s = now - t;
                    let (decision, reason) =
                        self.admission.admit_explained(query, &tel_eff, backlog_s + spent_s);
                    let compile_blocked = matches!(decision, Admission::Admit(Route::Exact))
                        && !tel_eff.compiled
                        && domain.plan.compile_faulted(shard, dispatch_start);
                    if compile_blocked {
                        domain.stats.compile_faults_hit += 1;
                        count("fault_injected_total", "compile_fault", shard);
                        events.push(FaultEvent { name: "fault.compile", start: now, end: now });
                        let before = domain.health[shard].state();
                        domain.health[shard].record_failure(now);
                        domain.observe_breaker(tel, shard, before);
                        if let Some((degraded, why)) =
                            self.admission.admit_under_failure(query, &tel_eff, backlog_s + spent_s)
                        {
                            domain.stats.degraded_under_failure += 1;
                            count("fault_degrade_total", "", shard);
                            events.push(FaultEvent { name: "fault.degrade", start: now, end: now });
                            let place = Placement {
                                shard,
                                kb: self.replica_kb(id, shard),
                                now,
                                attempts: total_attempts,
                                failover,
                            };
                            return (place, tel_eff, degraded, why, true);
                        }
                        // No degraded rung (distribution/assignment
                        // query): wait the fault window out, then
                        // re-resolve — the shard may have crashed in
                        // the meantime.
                        let recover = domain.plan.compile_recovery_time(shard, dispatch_start);
                        domain.stats.waited_for_recovery += 1;
                        events.push(FaultEvent { name: "fault.wait", start: now, end: recover });
                        now = recover.max(now);
                        continue;
                    }
                    let before = domain.health[shard].state();
                    domain.health[shard].record_success();
                    domain.observe_breaker(tel, shard, before);
                    let place = Placement {
                        shard,
                        kb: self.replica_kb(id, shard),
                        now,
                        attempts: total_attempts,
                        failover,
                    };
                    return (place, tel_eff, decision, reason, false);
                }
            } else {
                domain.stats.breaker_rejections += 1;
                count("fault_breaker_rejected_total", "", shard);
                events.push(FaultEvent { name: "breaker.reject", start: now, end: now });
            }
            // Failover: drop the unreachable shard from the ring and
            // re-route. When every shard is unreachable, wait until the
            // earliest one comes back (crash recovery or breaker
            // cooldown) — never drop the query.
            if !excluded.contains(&shard) {
                excluded.push(shard);
            }
            if excluded.len() >= self.config.shards {
                let target = (0..self.config.shards)
                    .map(|s| {
                        let t0 = self.free_at[s].max(now);
                        domain.plan.recovery_time(s, t0).max(domain.health[s].ready_at(now))
                    })
                    .fold(f64::INFINITY, f64::min);
                domain.stats.waited_for_recovery += 1;
                events.push(FaultEvent { name: "fault.wait", start: now, end: target.max(now) });
                now = target.max(now);
                excluded.clear();
                attempts_here = 1;
                continue;
            }
            let mut ring = self.ring.clone();
            for &dead in &excluded {
                ring = ring.remove_shard(dead);
            }
            let next = ring.shard_for(&self.kbs[id.index].fingerprint);
            domain.stats.failovers += 1;
            count("fault_failover_total", "", next);
            events.push(FaultEvent { name: "fault.failover", start: now, end: now });
            total_attempts += 1;
            attempts_here = 1;
            failover = true;
            shard = next;
        }
    }

    /// The admission-model view of `id` on `shard`: the KB's shared
    /// cost numbers with the per-replica compiled/predictor bits.
    fn effective_telemetry(&self, id: ClusterKbId, shard: usize) -> KbTelemetry {
        let model = &self.kbs[id.index];
        if model.shard == shard {
            return model.telemetry;
        }
        let replica = model.failovers.iter().find(|r| r.shard == shard);
        KbTelemetry {
            compiled: replica.is_some_and(|r| r.compiled),
            has_predictor: replica.is_some_and(|r| r.has_predictor),
            ..model.telemetry
        }
    }

    /// The engine-local id of `id` on `shard`, registering a failover
    /// replica there on first use: the formula and weights are cloned
    /// from the primary registration, and the replica's first exact
    /// dispatch recompiles through its own knowledge base's persistent
    /// component cache on the failover shard.
    fn replica_kb(&mut self, id: ClusterKbId, shard: usize) -> KbId {
        let model = &self.kbs[id.index];
        if model.shard == shard {
            return model.kb;
        }
        if let Some(replica) = model.failovers.iter().find(|r| r.shard == shard) {
            return replica.kb;
        }
        let (name, cnf, weights) = {
            let primary = self.shards[model.shard].kb(model.kb);
            (model.name.clone(), primary.cnf(), primary.weights().clone())
        };
        let kb = self.shards[shard].register(name, &cnf, weights);
        self.kbs[id.index].failovers.push(FailoverReplica {
            shard,
            kb,
            compiled: false,
            has_predictor: false,
        });
        kb
    }

    /// Marks `id` compiled (with a predictor when configured) on
    /// `shard` — primary or failover replica — so later arrivals are
    /// judged against warm costs.
    fn mark_compiled(&mut self, id: ClusterKbId, shard: usize) {
        let has_predictor = self.config.engine.predictor.is_some();
        let model = &mut self.kbs[id.index];
        if model.shard == shard {
            model.telemetry.compiled = true;
            model.telemetry.has_predictor = has_predictor;
        } else if let Some(replica) = model.failovers.iter_mut().find(|r| r.shard == shard) {
            replica.compiled = true;
            replica.has_predictor = has_predictor;
        }
    }
}

/// Emits the counters and the modeled span chain for one admitted
/// query: a `cluster.query` root on the query's own track spanning
/// arrival to modeled completion, with instantaneous `cluster.admit` /
/// `cluster.route` markers, a `queue.wait` child covering the backlog,
/// a `store.probe` marker on exact routes (`result = hit|miss`), a
/// `serve.compile` child on cold exact routes, and a `serve.eval`
/// child for the service itself. All timestamps are virtual (modeled)
/// seconds, so the chain is identical on every replay of a workload.
#[allow(clippy::too_many_arguments)]
fn record_admit_telemetry(
    tel: &Telemetry,
    track: u64,
    shard: usize,
    tenant: &str,
    route_label: &'static str,
    reason: &'static str,
    deadline_miss: bool,
    t: f64,
    start: f64,
    stage: &StageBreakdown,
    cold: bool,
    exact: bool,
    events: &[FaultEvent],
) {
    let shard_label = shard.to_string();
    let labels: [(&str, &str); 4] =
        [("shard", &shard_label), ("tenant", tenant), ("route", route_label), ("reason", reason)];
    tel.registry.counter("cluster_admissions_total", &labels).inc();
    if deadline_miss {
        tel.registry.counter("cluster_deadline_miss_total", &[("shard", &shard_label)]).inc();
    }
    // Modeled arrival-to-completion latency, per shard — the histogram
    // the default latency SLO watches (merge the shards' snapshots via
    // `Histogram::merge` for the cluster-wide view).
    tel.registry
        .histogram("cluster_modeled_latency_seconds", &[("shard", &shard_label)])
        .record(stage.total());
    let end = start + stage.compile_s + stage.exec_s;
    let root = tel.tracer.record_span(track, "cluster.query", &labels, t, end);
    tel.tracer.record_span_under(track, "cluster.admit", &[("decision", "admit")], t, t, root);
    tel.tracer.record_span_under(track, "cluster.route", &[("route", route_label)], t, t, root);
    tel.tracer.record_span_under(track, "queue.wait", &[], t, start, root);
    if exact {
        let result = if cold { "miss" } else { "hit" };
        tel.tracer.record_span_under(
            track,
            "store.probe",
            &[("result", result)],
            start,
            start,
            root,
        );
    }
    if cold {
        tel.tracer.record_span_under(
            track,
            "serve.compile",
            &[("tenant", tenant)],
            start,
            start + stage.compile_s,
            root,
        );
    }
    tel.tracer.record_span_under(track, "serve.eval", &[], start + stage.compile_s, end, root);
    record_fault_events(tel, track, root, events, t, end);
}

/// Nests the fault-layer decisions (retries, failovers, breaker
/// rejections, degrades, waits) for one query under its root span,
/// clamped into the root interval so the trace forest stays well
/// formed.
fn record_fault_events(
    tel: &Telemetry,
    track: u64,
    root: u64,
    events: &[FaultEvent],
    t: f64,
    end: f64,
) {
    for ev in events {
        let start = ev.start.clamp(t, end);
        let stop = ev.end.clamp(start, end);
        tel.tracer.record_span_under(track, ev.name, &[], start, stop, root);
    }
}

/// Modeled service seconds for an admitted route, from the same
/// deterministic telemetry admission judged it with.
fn modeled_cost(route: Route, query: &Query, t: &KbTelemetry) -> f64 {
    match route {
        Route::Exact => t.exact_cost(&query.kind),
        Route::Approx { samples } => samples as f64 * t.sample_s,
        // One forward pass, modeled at one warm evaluation.
        Route::Predicted => t.eval_s,
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::router::QueryKind;
    use reason_sat::Cnf;

    fn chain_cnf(n: usize) -> Cnf {
        let clauses: Vec<Vec<i32>> = (1..n as i32).map(|v| vec![-v, v + 1]).collect();
        Cnf::from_clauses(n, clauses)
    }

    fn fingerprints(count: usize) -> Vec<FormulaFingerprint> {
        (0..count)
            .map(|i| {
                let cnf = Cnf::from_clauses(
                    6,
                    vec![vec![1, 2], vec![-3, (i % 5) as i32 + 1], vec![(i % 6) as i32 + 1]],
                );
                let w = WmcWeights::new(vec![0.1 + (i as f64 % 7.0) / 10.0; 6]);
                FormulaFingerprint::from_parts(6, cnf.clauses(), &w)
            })
            .collect()
    }

    #[test]
    fn ring_placement_is_deterministic_and_in_range() {
        let ring = HashRing::new(4, 32, 7);
        let again = HashRing::new(4, 32, 7);
        for fp in fingerprints(64) {
            let shard = ring.shard_for(&fp);
            assert!(shard < 4);
            assert_eq!(shard, again.shard_for(&fp));
        }
    }

    #[test]
    fn ring_spreads_keys_over_every_shard() {
        let ring = HashRing::new(4, 64, 7);
        let mut counts = [0usize; 4];
        for fp in fingerprints(256) {
            counts[ring.shard_for(&fp)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "dead shard: {counts:?}");
    }

    #[test]
    fn adding_a_shard_remaps_only_a_slice_of_keys() {
        let before = HashRing::new(4, 64, 7);
        let after = HashRing::new(5, 64, 7);
        let keys = fingerprints(512);
        let moved = keys.iter().filter(|fp| before.shard_for(fp) != after.shard_for(fp)).count();
        // Expectation is 1/5 of keys; 2/5 leaves generous slack while
        // still catching a modulo-style full reshuffle (~4/5 moved).
        assert!(moved <= keys.len() * 2 / 5, "{moved}/{} keys moved", keys.len());
        // Every moved key lands on the new shard — existing shards
        // never trade keys among themselves.
        for fp in &keys {
            if before.shard_for(fp) != after.shard_for(fp) {
                assert_eq!(after.shard_for(fp), 4);
            }
        }
    }

    #[test]
    fn cluster_answers_match_a_single_engine_bit_for_bit() {
        let cnf = chain_cnf(8);
        let weights = WmcWeights::uniform(8);
        let mut ev = reason_pc::Evidence::empty(8);
        ev.set(0, 1);
        let queries: Vec<Query> = vec![
            Query::exact(QueryKind::Wmc),
            Query::exact(QueryKind::Probability(ev)),
            Query::exact(QueryKind::Marginal(reason_pc::Evidence::empty(8), 3)),
        ];

        let mut cluster = ServeCluster::new(ClusterConfig::with_shards(3));
        let kb = cluster.register("chain", &cnf, weights.clone());
        let batch: Vec<(ClusterKbId, Query, f64)> =
            queries.iter().map(|q| (kb, q.clone(), 0.0)).collect();
        let report = cluster.serve_at(&batch).unwrap();

        let mut single = ServeEngine::new(ServeConfig::default());
        let sid = single.register("chain", &cnf, weights);
        let reference = single.serve(sid, &queries).unwrap();

        assert_eq!(report.outcomes.len(), queries.len());
        for (got, want) in report.outcomes.iter().zip(&reference.outcomes) {
            assert_eq!(got.answer.as_ref().unwrap(), &want.answer);
            assert!(!got.deadline_miss);
        }
        assert_eq!(report.stats.exact, 3);
        assert_eq!(report.stats.rejected, 0);
    }

    #[test]
    fn hostile_queries_fail_the_call_and_leave_the_cluster_serving() {
        let cnf = chain_cnf(8);
        let mut cluster = ServeCluster::new(ClusterConfig::with_shards(2));
        let kb = cluster.register("chain", &cnf, WmcWeights::uniform(8));
        let valid = (kb, Query::exact(QueryKind::Marginal(reason_pc::Evidence::empty(8), 7)), 0.0);
        for kind in [
            QueryKind::Probability(reason_pc::Evidence::empty(9)),
            QueryKind::Mpe(reason_pc::Evidence::empty(7)),
            QueryKind::Marginal(reason_pc::Evidence::empty(8), 8),
        ] {
            let got = cluster.serve_at(&[valid.clone(), (kb, Query::exact(kind.clone()), 0.0)]);
            assert!(matches!(got, Err(ServeError::BadQuery(_))), "{kind:?}: {got:?}");
        }
        let mut fresh = ServeCluster::new(ClusterConfig::with_shards(2));
        let fresh_kb = fresh.register("chain", &cnf, WmcWeights::uniform(8));
        let after = cluster.serve_at(std::slice::from_ref(&valid)).unwrap();
        let reference = fresh.serve_at(&[(fresh_kb, valid.1, 0.0)]).unwrap();
        assert_eq!(after.outcomes[0].answer, reference.outcomes[0].answer);
        assert!(matches!(after.outcomes[0].answer, Some(Answer::Distribution(_))));
    }

    #[test]
    fn backlogged_shard_rejects_and_keeps_the_outcome() {
        let cnf = chain_cnf(10);
        let mut cluster = ServeCluster::new(ClusterConfig::with_shards(2));
        let kb = cluster.register("chain", &cnf, WmcWeights::uniform(10));
        let shard = cluster.shard_of(kb);

        // A deadline-free query charges the cold compile to the virtual
        // clock; a second query arriving "immediately" with a deadline
        // far below that backlog must be rejected before dispatch.
        let arrivals = vec![
            (kb, Query::exact(QueryKind::Wmc), 0.0),
            (kb, Query::with_deadline(QueryKind::Wmc, Duration::from_nanos(10)), 0.0),
        ];
        let report = cluster.serve_at(&arrivals).unwrap();

        assert_eq!(report.outcomes.len(), 2, "rejects stay in the report");
        assert!(matches!(report.outcomes[0].decision, Admission::Admit(Route::Exact)));
        assert!(report.outcomes[0].answer.is_some());
        let reject = &report.outcomes[1];
        assert!(matches!(reject.decision, Admission::Reject { .. }));
        assert!(reject.answer.is_none());
        assert!(reject.deadline_miss);
        assert_eq!(reject.shard, shard);
        assert_eq!(report.stats.rejected, 1);
        assert_eq!(report.stats.exact, 1);
    }

    #[test]
    fn admission_degrades_under_backlog_and_bounds_contain_the_exact_answer() {
        // ~0.49 satisfying mass: rare-event workloads would need more
        // than the degraded budget's samples for a tight bracket.
        let cnf = Cnf::from_clauses(12, vec![vec![1, 2], vec![-3, 4], vec![5, 6, 7]]);
        let weights = WmcWeights::uniform(12);
        let mut cluster = ServeCluster::new(ClusterConfig::with_shards(2));
        let kb = cluster.register("wide", &cnf, weights.clone());

        // Cold shard: the prior charges the whole compile (~120 µs at
        // n = 12) to the exact rung, so a 100 µs deadline leaves a
        // positive budget (50 µs after safety) that exact cannot fit —
        // admission must degrade to the anytime rung before dispatch.
        let q = Query::with_deadline(QueryKind::Wmc, Duration::from_micros(100));
        let report = cluster.serve_at(&[(kb, q, 0.0)]).unwrap();
        let outcome = &report.outcomes[0];
        match outcome.decision {
            Admission::Admit(Route::Approx { samples }) => assert!(samples >= 1),
            ref other => panic!("expected a degraded admit, got {other:?}"),
        }

        // The degraded bracket must contain the exact answer.
        let exact_report = cluster.serve_at(&[(kb, Query::exact(QueryKind::Wmc), 0.0)]).unwrap();
        let Answer::Exact(exact) = exact_report.outcomes[0].answer.clone().unwrap() else {
            panic!("deadline-free query is exact");
        };
        match outcome.answer.clone().unwrap() {
            Answer::Bounds { lower, upper, .. } => {
                assert!(
                    lower <= exact + 1e-12 && exact <= upper + 1e-12,
                    "bracket [{lower}, {upper}] misses exact {exact}"
                );
            }
            other => panic!("expected bounds, got {other:?}"),
        }
    }

    #[test]
    fn telemetry_records_stage_sums_chains_and_reasons() {
        use reason_telemetry::{is_well_formed_forest, Telemetry, VirtualClock};

        let tel = Arc::new(Telemetry::with_clock(VirtualClock::shared()));
        let cnf = chain_cnf(8);
        let mut cluster = ServeCluster::new(ClusterConfig::with_shards(2));
        cluster.attach_telemetry(tel.clone());
        let kb = cluster.register("chain", &cnf, WmcWeights::uniform(8));

        let arrivals = vec![
            (kb, Query::exact(QueryKind::Wmc), 0.0), // cold: compiles
            (kb, Query::exact(QueryKind::Wmc), 1.0), // warm: store hit
            (kb, Query::with_deadline(QueryKind::Wmc, Duration::from_nanos(1)), 1.0),
        ];
        let report = cluster.serve_at(&arrivals).unwrap();

        // Stage breakdowns partition the modeled latency bit-exactly.
        for o in &report.outcomes {
            assert_eq!(o.stage.total().to_bits(), o.modeled_latency_s.to_bits(), "{o:?}");
        }
        assert!(report.outcomes[0].stage.compile_s > 0.0, "cold query pays the compile");
        assert_eq!(report.outcomes[1].stage.compile_s, 0.0, "warm query does not");
        assert!(matches!(report.outcomes[2].decision, Admission::Reject { .. }));
        assert_eq!(report.outcomes[2].reason, "backlog_reject");

        // The modeled spans form one chain per query, warm and cold
        // distinguishable by their store.probe result and compile child.
        let spans = tel.tracer.finished();
        assert!(is_well_formed_forest(&spans), "cluster spans must nest cleanly");
        let roots: Vec<&reason_telemetry::SpanRecord> =
            spans.iter().filter(|s| s.name == "cluster.query").collect();
        assert_eq!(roots.len(), 3, "one root span per submitted query");
        let children_of = |root: u64| -> Vec<&reason_telemetry::SpanRecord> {
            spans.iter().filter(|s| s.parent == Some(root)).collect()
        };
        let probe_result = |root: u64| -> Option<String> {
            children_of(root).iter().find(|s| s.name == "store.probe").map(|s| {
                s.labels.iter().find(|(k, _)| k == "result").map(|(_, v)| v.clone()).unwrap()
            })
        };
        let cold_root = roots.iter().find(|r| probe_result(r.id).as_deref() == Some("miss"));
        let warm_root = roots.iter().find(|r| probe_result(r.id).as_deref() == Some("hit"));
        let cold_root = cold_root.expect("one cold query").id;
        let warm_root = warm_root.expect("one warm query").id;
        for (root, wants_compile) in [(cold_root, true), (warm_root, false)] {
            let names: Vec<&str> = children_of(root).iter().map(|s| s.name.as_str()).collect();
            assert!(names.contains(&"cluster.admit"), "{names:?}");
            assert!(names.contains(&"cluster.route"), "{names:?}");
            assert!(names.contains(&"queue.wait"), "{names:?}");
            assert!(names.contains(&"serve.eval"), "{names:?}");
            assert_eq!(names.contains(&"serve.compile"), wants_compile, "{names:?}");
        }
        for root in &roots {
            for key in ["shard", "tenant", "route", "reason"] {
                assert!(root.labels.iter().any(|(k, _)| k == key), "missing {key}");
            }
        }

        // Counters landed with the right labels.
        let snap = tel.registry.snapshot();
        let sum = |name: &str| -> u64 {
            snap.iter()
                .filter(|m| m.name == name)
                .map(|m| match &m.value {
                    reason_telemetry::MetricValue::Counter(v) => *v,
                    _ => 0,
                })
                .sum()
        };
        assert_eq!(sum("cluster_admissions_total"), 2);
        assert_eq!(sum("cluster_rejects_total"), 1);
        assert!(
            snap.iter().any(|m| m.name == "cluster_admissions_total"
                && m.labels.contains(&("tenant".to_string(), "chain".to_string()))
                && m.labels.contains(&("route".to_string(), "exact".to_string()))),
            "admissions must carry tenant and route labels"
        );
    }

    #[test]
    fn rejecting_cluster_trips_the_availability_slo_and_exposes_exemplars() {
        use reason_telemetry::{Telemetry, VirtualClock};

        let tel = Arc::new(Telemetry::with_clock(VirtualClock::shared()));
        let cnf = chain_cnf(8);
        let mut cluster = ServeCluster::new(ClusterConfig::with_shards(2));
        cluster.attach_telemetry(tel.clone());
        let kb = cluster.register("chain", &cnf, WmcWeights::uniform(8));
        let horizon = 60e-6;
        cluster.install_slos(ServeCluster::default_slo_specs(horizon));

        // Arrivals spaced well below the modeled service time, so the
        // backlog only grows: deadline-free queries keep feeding the
        // queue while tight-deadline queries reject against it — a
        // sustained availability burn far past 10x the 1% budget.
        let mut arrivals = vec![(kb, Query::exact(QueryKind::Wmc), 0.0)];
        for i in 1..60 {
            let t = i as f64 * horizon / 60.0;
            let q = if i % 2 == 0 {
                Query::exact(QueryKind::Wmc)
            } else {
                Query::with_deadline(QueryKind::Wmc, Duration::from_nanos(1))
            };
            arrivals.push((kb, q, t));
        }
        let report = cluster.serve_at(&arrivals).unwrap();
        assert!(report.stats.rejected > 20, "the workload is reject-heavy: {:?}", report.stats);
        cluster.finish_slos(horizon);

        let availability: Vec<_> =
            cluster.slo_alerts().iter().filter(|a| a.slo == "availability").collect();
        assert!(!availability.is_empty(), "sustained rejects must trip availability");
        assert!(availability[0].resolved_at_s.is_some(), "finish_slos closes the alert");
        assert!(availability[0].peak_burn_fast >= 10.0);

        // The alert is a span on the reserved track, and the forest
        // (queries + alert) stays well formed.
        let spans = tel.tracer.finished();
        assert!(reason_telemetry::is_well_formed_forest(&spans));
        let alert_spans: Vec<_> =
            spans.iter().filter(|s| s.name == "slo.alert" && s.track == SLO_TRACK).collect();
        assert_eq!(alert_spans.len(), cluster.slo_alerts().len(), "one span per alert");

        // Exemplars: the worst-latency query is the cold compile.
        let worst = cluster.tail_exemplars(3);
        assert!(!worst.is_empty());
        assert!(worst[0].duration_s() >= worst.last().unwrap().duration_s());
        assert!(
            worst[0].chain.iter().any(|s| s.name == "serve.compile"),
            "the tail exemplar keeps its full chain: {:?}",
            worst[0].chain
        );

        // The latency histogram feeds the latency SLO.
        let snap = tel.registry.snapshot();
        assert!(snap.iter().any(|m| m.name == "cluster_modeled_latency_seconds"));
        assert!(snap.iter().any(|m| m.name == "slo_burn_rate_fast"));
    }

    #[test]
    fn healthy_cluster_keeps_default_slos_quiet() {
        use reason_telemetry::{Telemetry, VirtualClock};

        let tel = Arc::new(Telemetry::with_clock(VirtualClock::shared()));
        let cnf = chain_cnf(8);
        let mut cluster = ServeCluster::new(ClusterConfig::with_shards(2));
        cluster.attach_telemetry(tel.clone());
        let kb = cluster.register("chain", &cnf, WmcWeights::uniform(8));
        cluster.install_slos(ServeCluster::default_slo_specs(1.0));

        // Deadline-free queries spaced far apart: nothing rejects,
        // nothing misses, modeled latencies sit far under 1 ms warm.
        let arrivals: Vec<_> =
            (0..40).map(|i| (kb, Query::exact(QueryKind::Wmc), i as f64 / 40.0)).collect();
        let report = cluster.serve_at(&arrivals).unwrap();
        cluster.finish_slos(1.0);
        assert_eq!(report.stats.rejected, 0);
        assert!(cluster.slo_alerts().is_empty(), "alerts: {:?}", cluster.slo_alerts());
        // The slo_* metric families still export, so quiet and noisy
        // sweeps share one deterministic schema.
        let names: Vec<String> = tel.registry.snapshot().iter().map(|m| m.name.clone()).collect();
        assert!(names.iter().any(|n| n == "slo_alerts_total"));
    }

    #[test]
    fn kbs_spread_across_shards_and_serve_interleaved_batches() {
        let mut cluster = ServeCluster::new(ClusterConfig::with_shards(4));
        let kbs: Vec<ClusterKbId> = (0..8)
            .map(|i| {
                let cnf = chain_cnf(6 + i % 4);
                cluster.register(format!("kb-{i}"), &cnf, WmcWeights::uniform(6 + i % 4))
            })
            .collect();
        let shards: std::collections::HashSet<usize> =
            kbs.iter().map(|&id| cluster.shard_of(id)).collect();
        assert!(shards.len() > 1, "8 KBs all hashed to one shard");

        let batch: Vec<(ClusterKbId, Query, f64)> =
            kbs.iter().map(|&id| (id, Query::exact(QueryKind::Wmc), 0.0)).collect();
        let report = cluster.serve_at(&batch).unwrap();
        assert_eq!(report.outcomes.len(), 8);
        for (outcome, &id) in report.outcomes.iter().zip(&kbs) {
            assert_eq!(outcome.shard, cluster.shard_of(id));
            assert!(matches!(outcome.answer, Some(Answer::Exact(_))));
        }
    }

    #[test]
    fn removing_a_shard_never_moves_surviving_keys() {
        let before = HashRing::new(4, 64, 7);
        let after = before.remove_shard(2);
        for fp in fingerprints(512) {
            let old = before.shard_for(&fp);
            let new = after.shard_for(&fp);
            assert_ne!(new, 2, "removed shard still owns a key");
            if old != 2 {
                assert_eq!(new, old, "a surviving key moved on shard removal");
            }
        }
    }

    #[test]
    fn empty_fault_plan_is_invisible() {
        let cnf = chain_cnf(8);
        let arrivals = |cluster: &mut ServeCluster, kb: ClusterKbId| {
            let batch = vec![
                (kb, Query::exact(QueryKind::Wmc), 0.0),
                (kb, Query::exact(QueryKind::Wmc), 1.0),
                (kb, Query::with_deadline(QueryKind::Wmc, Duration::from_nanos(1)), 1.0),
            ];
            cluster.serve_at(&batch).unwrap()
        };

        let mut plain = ServeCluster::new(ClusterConfig::with_shards(2));
        let kb = plain.register("chain", &cnf, WmcWeights::uniform(8));
        let baseline = arrivals(&mut plain, kb);

        let mut guarded = ServeCluster::new(ClusterConfig::with_shards(2));
        let kb = guarded.register("chain", &cnf, WmcWeights::uniform(8));
        guarded.install_fault_domain(FaultPlan::new(), FaultConfig::default());
        let report = arrivals(&mut guarded, kb);

        for (got, want) in report.outcomes.iter().zip(&baseline.outcomes) {
            assert_eq!(got.answer, want.answer);
            assert_eq!(got.decision, want.decision);
            assert_eq!(got.reason, want.reason);
            assert_eq!(got.modeled_latency_s, want.modeled_latency_s);
            assert_eq!(got.attempts, 1);
            assert!(!got.failover);
            assert!(!got.degraded_by_fault);
        }
        let stats = guarded.fault_stats().unwrap();
        assert_eq!(stats, FaultStats::default(), "empty plan must leave no trace");
    }

    #[test]
    fn crashed_shard_fails_over_and_answers_bit_for_bit() {
        let cnf = chain_cnf(8);
        let weights = WmcWeights::uniform(8);
        let queries: Vec<Query> = vec![Query::exact(QueryKind::Wmc), Query::exact(QueryKind::Wmc)];

        let mut cluster = ServeCluster::new(ClusterConfig::with_shards(3));
        let kb = cluster.register("chain", &cnf, weights.clone());
        let home = cluster.shard_of(kb);
        cluster
            .install_fault_domain(FaultPlan::new().crash(home, 0.0, 1e6), FaultConfig::default());

        let arrivals: Vec<(ClusterKbId, Query, f64)> =
            queries.iter().map(|q| (kb, q.clone(), 0.0)).collect();
        let report = cluster.serve_at(&arrivals).unwrap();

        let mut single = ServeEngine::new(ServeConfig::default());
        let sid = single.register("chain", &cnf, weights);
        let reference = single.serve(sid, &queries).unwrap();

        for (got, want) in report.outcomes.iter().zip(&reference.outcomes) {
            assert_ne!(got.shard, home, "query served on the crashed shard");
            assert!(got.failover, "failover must be visible in the outcome");
            assert!(got.attempts > 1);
            assert_eq!(got.answer.as_ref().unwrap(), &want.answer, "failover changed the answer");
        }
        let stats = cluster.fault_stats().unwrap();
        assert!(stats.crashes_hit > 0);
        assert!(stats.failovers >= 1);
        assert!(stats.retries >= 1, "hedged retries precede failover");
    }

    #[test]
    fn cache_wipe_forces_a_recompile_that_reproduces_the_answer() {
        let cnf = chain_cnf(8);
        let weights = WmcWeights::uniform(8);
        let mut cluster = ServeCluster::new(ClusterConfig::with_shards(2));
        let kb = cluster.register("chain", &cnf, weights);
        let home = cluster.shard_of(kb);
        cluster
            .install_fault_domain(FaultPlan::new().wipe_cache(home, 0.5), FaultConfig::default());

        let arrivals = vec![
            (kb, Query::exact(QueryKind::Wmc), 0.0),
            (kb, Query::exact(QueryKind::Wmc), 1.0), // after the wipe: recompiles
        ];
        let report = cluster.serve_at(&arrivals).unwrap();
        assert_eq!(report.outcomes[0].answer, report.outcomes[1].answer);
        assert!(
            report.outcomes[1].stage.compile_s > 0.0,
            "post-wipe query must pay the recompile: {:?}",
            report.outcomes[1]
        );
        assert_eq!(cluster.fault_stats().unwrap().cache_wipes, 1);
    }

    #[test]
    fn compile_fault_degrades_instead_of_erroring() {
        let cnf = chain_cnf(8);
        let mut cluster = ServeCluster::new(ClusterConfig::with_shards(2));
        let kb = cluster.register("chain", &cnf, WmcWeights::uniform(8));
        let home = cluster.shard_of(kb);
        cluster.install_fault_domain(
            FaultPlan::new().fail_compiles(home, 0.0, 1e6),
            FaultConfig::default(),
        );

        let report = cluster.serve_at(&[(kb, Query::exact(QueryKind::Wmc), 0.0)]).unwrap();
        let outcome = &report.outcomes[0];
        assert!(outcome.degraded_by_fault, "compile fault must degrade: {outcome:?}");
        assert!(matches!(outcome.decision, Admission::Admit(Route::Approx { .. })));
        let Some(Answer::Bounds { lower, upper, .. }) = outcome.answer else {
            panic!("degraded query answers with bounds: {outcome:?}");
        };
        // chain_cnf(8) over uniform weights has exact WMC 9/256.
        let exact = 9.0 / 256.0;
        assert!(lower <= exact + 1e-12 && exact <= upper + 1e-12);
        assert_eq!(cluster.fault_stats().unwrap().degraded_under_failure, 1);
    }
}
