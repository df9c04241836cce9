//! The sharded serving front-end: consistent hashing, deadline-aware
//! admission control, fault tolerance, and virtual-time queue modeling
//! over a pool of [`ServeEngine`] shards.
//!
//! A [`ServeCluster`] owns `N` independent [`ServeEngine`]s and places
//! every registered knowledge base on exactly one of them by
//! consistent-hashing its [`FormulaFingerprint`] onto a [`HashRing`] of
//! virtual nodes. Placement is a pure function of `(fingerprint, shard
//! count)` (the ring's 32 points per shard and its salt are constants),
//! so growing or shrinking the pool by one shard remaps only the keys
//! the new/removed shard's arc covers — about `1/N` of them — instead
//! of reshuffling everything the way `digest % N` would.
//!
//! Every arrival of [`ServeCluster::serve_at`] takes the same walk, over
//! plain data, in this order:
//!
//! 1. **Place** — find a shard that takes the query *now*: the ring
//!    primary unless its breaker is open or the [`FaultPlan`] has it
//!    crashed, in which case the query backs off and retries, fails
//!    over along the ring, or waits out the earliest recovery. A fresh
//!    cluster runs under an empty plan: the primary, at arrival time.
//! 2. **Admit** — `QueryRouter::admit_explained` judges the query
//!    against a deterministic cost model (the [`KbTelemetry::prior`]
//!    fit plus what the cluster knows it compiled where) and the
//!    shard's modeled queue backlog. A query whose deadline budget the
//!    backlog has consumed is [`Admission::Reject`]ed outright — it
//!    never occupies an executor lane only to miss — and one that can
//!    still make its deadline on a cheaper rung is degraded *now*, not
//!    after an exact attempt times out. A transient compile fault masks
//!    the exact rung (`QueryRouter::admit_under_failure`).
//! 3. **Charge** — the route's modeled cost (stretched by a slow-shard
//!    window) is charged to the shard's virtual clock and the arrival's
//!    one [`ClusterOutcome`] is built; rejects stay in the report.
//! 4. **Record** — one function turns that outcome into counters and
//!    the query's span chain.
//! 5. **Dispatch** — after the last arrival, the admitted queries
//!    execute for real, grouped per `(shard, knowledge base)`, on their
//!    pre-decided routes via `ServeEngine::serve_routed`, whose
//!    answers are bit-identical to a single engine serving the same
//!    queries on the same routes.
//!
//! Steps 1–4 read only the deterministic model (never wall clocks), so
//! a replayed workload re-derives the identical admission and routing
//! sequence.

use std::sync::Arc;

use reason_pc::{FormulaFingerprint, WmcWeights};
use reason_sat::Cnf;
use reason_telemetry::slo::{Objective, SloAlert, SloMonitor, SloSpec};
use reason_telemetry::Telemetry;

use crate::engine::{fits, Answer, KbId, ServeConfig, ServeEngine, ServeError};
use crate::fault::{backoff_s, FaultPlan, FaultStats, ShardHealth, MAX_ATTEMPTS};
use crate::router::{
    degradable, Admission, KbTelemetry, Query, QueryRouter, Route, MIN_APPROX_SAMPLES,
};
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
        HashRing { points, salt }
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
    /// shard index space is unchanged, so surviving indices stay valid.
    ///
    /// # Panics
    ///
    /// Panics when removing `shard` would leave the ring empty.
    pub fn remove_shard(&self, shard: usize) -> HashRing {
        let points: Vec<(u64, usize)> =
            self.points.iter().copied().filter(|&(_, s)| s != shard).collect();
        assert!(!points.is_empty(), "cannot remove the last live shard from the ring");
        HashRing { points, salt: self.salt }
    }
}

/// Virtual points per shard on the [`HashRing`].
const RING_REPLICAS: usize = 32;
/// Ring salt: changing it would reshuffle placement wholesale.
const RING_SALT: u64 = 0xC1A5;

/// Cluster-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of [`ServeEngine`] shards.
    pub shards: usize,
    /// Per-shard engine configuration (every shard is identical). Its
    /// router knobs also drive the cluster's pre-dispatch admission.
    pub engine: ServeConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig { shards: 2, engine: ServeConfig::default() }
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
    /// The shard the query was placed on (the ring's choice, or a
    /// failover shard).
    pub shard: usize,
    /// The pre-dispatch admission verdict.
    pub decision: Admission,
    /// Why admission picked that rung (see
    /// `QueryRouter::admit_explained`).
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
    /// deadline (the backlog estimate was optimistic), plus every
    /// reject.
    pub deadline_misses: u64,
}

impl AdmissionStats {
    fn count(&mut self, outcome: &ClusterOutcome) {
        match outcome.decision {
            Admission::Admit(Route::Exact) => self.exact += 1,
            Admission::Admit(Route::Approx { .. }) => self.approx += 1,
            Admission::Admit(Route::Predicted) => self.predicted += 1,
            Admission::Reject { .. } => self.rejected += 1,
        }
        self.deadline_misses += u64::from(outcome.deadline_miss);
    }
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
    /// Registration name — the `tenant` label on cluster metrics and
    /// spans.
    name: String,
    /// The cost numbers every home shares (`compile_s`, `eval_s`,
    /// `sample_s`); the compiled/predictor bits live per [`Home`].
    costs: KbTelemetry,
    /// The placement key, kept so failover can re-route through a
    /// shrunken ring.
    fingerprint: FormulaFingerprint,
    /// Every shard the knowledge base is registered on: the ring's
    /// primary at index 0, then failover registrations in the order the
    /// fault walk made them.
    homes: Vec<Home>,
}

/// One registration of a knowledge base on one shard.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Home {
    shard: usize,
    kb: KbId,
    compiled: bool,
    has_predictor: bool,
}

impl KbModel {
    /// The cost model admission judges with on `shard`: the shared cost
    /// numbers with that home's bits (cold and predictor-less where the
    /// knowledge base is not registered yet).
    fn view(&self, shard: usize) -> KbTelemetry {
        let home = self.homes.iter().find(|h| h.shard == shard);
        KbTelemetry {
            compiled: home.is_some_and(|h| h.compiled),
            has_predictor: home.is_some_and(|h| h.has_predictor),
            ..self.costs
        }
    }
}

/// The cluster's fault-tolerance state: the injected plan, the jitter
/// seed, one breaker per shard, and the lifetime counters.
struct FaultDomain {
    plan: FaultPlan,
    jitter_seed: u64,
    health: Vec<ShardHealth>,
    /// One flag per scheduled wipe: fired yet?
    wipes_applied: Vec<bool>,
    stats: FaultStats,
}

impl FaultDomain {
    fn new(plan: FaultPlan, jitter_seed: u64, shards: usize) -> Self {
        FaultDomain {
            wipes_applied: vec![false; plan.wipes().len()],
            plan,
            jitter_seed,
            health: vec![ShardHealth::default(); shards],
            stats: FaultStats::default(),
        }
    }

    /// Runs `step` on `shard`'s breaker and publishes the state change
    /// (if any) to the registry: `breaker_state{shard}` gauge plus
    /// `breaker_transitions_total{shard, to}`.
    fn breaker<R>(
        &mut self,
        tel: Option<&Telemetry>,
        shard: usize,
        step: impl FnOnce(&mut ShardHealth) -> R,
    ) -> R {
        let before = self.health[shard].state();
        let result = step(&mut self.health[shard]);
        let after = self.health[shard].state();
        if let (true, Some(tel)) = (before != after, tel) {
            tel.registry
                .gauge("breaker_state", &[("shard", &shard.to_string())])
                .set(after.gauge_value());
            count(Some(tel), "breaker_transitions_total", shard, &[("to", after.label())]);
        }
        result
    }
}

/// Bumps the fault-layer counter `name{shard, ..extra}` when a sink is
/// attached.
fn count(tel: Option<&Telemetry>, name: &str, shard: usize, extra: &[(&str, &str)]) {
    if let Some(tel) = tel {
        let shard_label = shard.to_string();
        let mut labels = vec![("shard", shard_label.as_str())];
        labels.extend_from_slice(extra);
        tel.registry.counter(name, &labels).inc();
    }
}

/// One fault-layer decision on a query's path to dispatch, kept so the
/// recorder can trace it as a child span of the query's `cluster.query`
/// root.
#[derive(Debug, Clone, Copy)]
struct FaultEvent {
    name: &'static str,
    start: f64,
    end: f64,
}

/// One arrival's walk through placement: where and when it stands, how
/// it got there, and the fault-layer decisions it met on the way.
struct Walk {
    /// Arrival time.
    t: f64,
    /// Decision time after backoffs and recovery waits (`>= t`).
    now: f64,
    shard: usize,
    /// Shards found unreachable since the last recovery wait.
    excluded: Vec<usize>,
    /// Dispatch attempts on the current shard.
    attempts_here: u32,
    attempts: u32,
    failover: bool,
    events: Vec<FaultEvent>,
}

impl Walk {
    /// An arrival at `t`, standing on its knowledge base's ring primary.
    fn new(t: f64, shard: usize) -> Self {
        Walk {
            t,
            now: t,
            shard,
            excluded: Vec::new(),
            attempts_here: 1,
            attempts: 1,
            failover: false,
            events: Vec::new(),
        }
    }

    /// Notes a fault-layer decision taken now and lasting until `end`.
    fn event(&mut self, name: &'static str, end: f64) {
        self.events.push(FaultEvent { name, start: self.now, end });
    }
}

/// What admission decided where the walk stands.
struct Verdict {
    /// The cost model admission judged with (that shard's view).
    model: KbTelemetry,
    decision: Admission,
    reason: &'static str,
    degraded_by_fault: bool,
}

/// One knowledge base's admitted queries within a batch on one shard,
/// in admission order: (arrival index, decided route). The key carries
/// the shard and engine-local id because failover can split a KB's
/// traffic across shards within a single batch.
type AdmittedGroup = ((ClusterKbId, usize, KbId), Vec<(usize, Route)>);

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
    /// Fault-tolerance state; an empty plan until
    /// [`install_fault_domain`](Self::install_fault_domain).
    fault: FaultDomain,
    /// Live SLO evaluation; `None` (the default) adds no per-arrival
    /// work. Alert spans land on [`SLO_TRACK`].
    slo: Option<SloMonitor>,
}

/// The span track [`SloMonitor`] alert spans use — far above the
/// per-query tracks, which count up from 1.
pub const SLO_TRACK: u64 = u64::MAX;

impl ServeCluster {
    /// A cluster of `config.shards` identically configured engines,
    /// running under an empty [`FaultPlan`].
    ///
    /// # Panics
    ///
    /// Panics when `config.shards` is zero.
    pub fn new(config: ClusterConfig) -> Self {
        let ring = HashRing::new(config.shards, RING_REPLICAS, RING_SALT);
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
            // No backoff is ever drawn under an empty plan, so the seed
            // is moot until a plan is installed with its own.
            fault: FaultDomain::new(FaultPlan::new(), 0, config.shards),
            slo: None,
        }
    }

    /// Replaces the fault domain: the injected [`FaultPlan`], fresh
    /// (closed) breakers and zeroed [`FaultStats`], with hedged-retry
    /// jitter drawn from `jitter_seed`. Arrivals walk the same path
    /// whatever the plan — breaker checks, hedged retries, ring
    /// failover, ladder degradation — and under an empty plan none of
    /// it fires. The thresholds are constants of [`crate::fault`].
    pub fn install_fault_domain(&mut self, plan: FaultPlan, jitter_seed: u64) {
        self.fault = FaultDomain::new(plan, jitter_seed, self.shards.len());
    }

    /// The fault layer's counters since the last
    /// [`install_fault_domain`](Self::install_fault_domain) (or since
    /// construction).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault.stats
    }

    /// Attaches an observability sink. The cluster records labeled
    /// admission counters (`cluster_admissions_total{shard, tenant,
    /// route, reason}`, `cluster_rejects_total`,
    /// `cluster_deadline_miss_total`) and, for every query, a modeled
    /// span chain on its own track (see `record`), stamped with virtual
    /// timestamps so traces replay byte-identically. Each shard engine
    /// is attached too, contributing its wall-clock store and compile
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

    /// The deterministic per-KB cost models admission judges against,
    /// as `(tenant, shard, model)` rows in registration order.
    pub fn kb_models(&self) -> Vec<(String, usize, KbTelemetry)> {
        self.kbs
            .iter()
            .map(|m| (m.name.clone(), m.homes[0].shard, m.view(m.homes[0].shard)))
            .collect()
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
            name,
            costs: KbTelemetry::prior(registered.num_vars(), registered.num_clauses()),
            fingerprint,
            homes: vec![Home { shard, kb, compiled: false, has_predictor: false }],
        });
        ClusterKbId { index: self.kbs.len() - 1 }
    }

    /// The shard the ring placed `id` on.
    #[cfg(test)]
    fn shard_of(&self, id: ClusterKbId) -> usize {
        self.kbs[id.index].homes[0].shard
    }

    /// Shard engines, for inspection (store/router statistics).
    pub fn engines(&self) -> &[ServeEngine] {
        &self.shards
    }

    /// Serves an open-loop workload: `(kb, query, arrival_seconds)`
    /// triples in nondecreasing arrival order (a batch arriving all at
    /// once is every arrival at `0.0`).
    ///
    /// Every arrival takes the place → admit → charge → record walk of
    /// the [module docs](self), in arrival order; a query's backlog is
    /// how far its shard's modeled queue extends past the decision
    /// time. The admitted queries are then dispatched for real
    /// (submission order preserved within each group, deadlines riding
    /// along for EDF), and the measured latencies land in
    /// [`ClusterOutcome::latency_s`] next to the modeled ones.
    ///
    /// The virtual clock persists across calls, so successive
    /// [`serve_at`](Self::serve_at) batches model one continuous queue.
    ///
    /// # Panics
    ///
    /// Panics when arrivals are not sorted by arrival time — before any
    /// arrival is admitted.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadQuery`] when a query does not fit its knowledge
    /// base: every arrival is checked before the first one is admitted,
    /// so the failed call leaves clocks, trace tracks, the admission
    /// model, counters and spans untouched.
    /// [`ServeError::NoMass`] when an exact-routed query forces a
    /// compilation and its formula has no satisfying mass; that takes a
    /// compile to detect, so the admissions of the failed call stay
    /// charged. Neither can succeed on another route, so both fail the
    /// call instead of degrading.
    pub fn serve_at(
        &mut self,
        arrivals: &[(ClusterKbId, Query, f64)],
    ) -> Result<ClusterReport, ServeError> {
        self.check(arrivals)?;
        let tel = self.telemetry.clone();
        let tel = tel.as_deref();
        let mut stats = AdmissionStats::default();
        let mut outcomes: Vec<ClusterOutcome> = Vec::with_capacity(arrivals.len());
        let mut groups: Vec<AdmittedGroup> = Vec::new();

        for (i, (id, query, t)) in arrivals.iter().enumerate() {
            self.apply_due_wipes(*t, tel);
            let mut walk = Walk::new(*t, self.kbs[id.index].homes[0].shard);
            let verdict = loop {
                self.place(*id, query, &mut walk, tel);
                if let Some(verdict) = self.admit(*id, query, &mut walk, tel) {
                    break verdict;
                }
            };
            let home = self.home_on(*id, walk.shard);
            let (outcome, start, cold) = self.charge(query, &mut walk, verdict, tel);
            if let Some(tel) = tel {
                let tenant = &self.kbs[id.index].name;
                record(tel, self.next_track, tenant, &walk, start, &outcome, cold);
            }
            self.next_track += 1;
            stats.count(&outcome);
            if let Admission::Admit(route) = outcome.decision {
                let home = &mut self.kbs[id.index].homes[home];
                if route == Route::Exact {
                    // The dispatch below compiles the artifact (and
                    // trains the predictor, when configured): upgrade
                    // the model so later arrivals are judged against
                    // warm costs.
                    home.compiled = true;
                    home.has_predictor = self.config.engine.predictor.is_some();
                }
                let key = (*id, home.shard, home.kb);
                match groups.iter_mut().find(|(gid, _)| *gid == key) {
                    Some((_, entries)) => entries.push((i, route)),
                    None => groups.push((key, vec![(i, route)])),
                }
            }
            outcomes.push(outcome);
            // Re-measure the objectives now that this arrival's
            // counters landed — burn-rate windows advance in the same
            // virtual time admission models.
            if let Some(monitor) = &mut self.slo {
                monitor.observe(*t);
            }
        }

        // Dispatch: every admitted query executes for real on its
        // shard, on the route admission pre-decided.
        for ((_, shard, kb), entries) in groups {
            let routed: Vec<(&Query, Route)> =
                entries.iter().map(|&(i, route)| (&arrivals[i].1, route)).collect();
            let report = match self.shards[shard].serve_routed(kb, &routed) {
                Ok(report) => Some(report),
                Err(err @ (ServeError::NoMass(_) | ServeError::BadQuery(_))) => return Err(err),
                Err(_) => {
                    // A hot-path failure (eviction race, lost
                    // predictor) degrades this group instead of
                    // killing the whole batch: retry once on the
                    // cheapest sound routes.
                    let floor = Route::Approx { samples: MIN_APPROX_SAMPLES };
                    let fallback: Vec<(&Query, Route)> = routed
                        .iter()
                        .map(|&(q, route)| match route {
                            Route::Exact if degradable(&q.kind) => (q, floor),
                            Route::Predicted => (q, floor),
                            other => (q, other),
                        })
                        .collect();
                    for (&(i, decided), &(_, retried)) in entries.iter().zip(&fallback) {
                        if decided != retried {
                            outcomes[i].degraded_by_fault = true;
                        }
                    }
                    self.shards[shard].serve_routed(kb, &fallback).ok()
                }
            };
            if let Some(report) = report {
                for (&(i, _), outcome) in entries.iter().zip(report.outcomes) {
                    outcomes[i].answer = Some(outcome.answer);
                    outcomes[i].latency_s = outcome.latency_s;
                }
            }
        }

        Ok(ClusterReport { outcomes, stats })
    }

    /// The preconditions of [`serve_at`](Self::serve_at), checked in one
    /// pass before the first admission so a refused call changes
    /// nothing: arrivals sorted by time, every query shaped for its
    /// knowledge base.
    fn check(&self, arrivals: &[(ClusterKbId, Query, f64)]) -> Result<(), ServeError> {
        let mut last_t = f64::NEG_INFINITY;
        for (i, (id, query, t)) in arrivals.iter().enumerate() {
            assert!(*t >= last_t, "arrivals must be sorted by arrival time");
            last_t = *t;
            let primary = self.kbs[id.index].homes[0];
            let kb = self.shards[primary.shard].kb(primary.kb);
            if !fits(&query.kind, kb.num_vars()) {
                return Err(ServeError::BadQuery(format!(
                    "arrival {i} does not fit the {} binary variables of `{}`",
                    kb.num_vars(),
                    kb.name()
                )));
            }
        }
        Ok(())
    }

    /// Fires every cache wipe scheduled at or before `t` that has not
    /// fired yet: the shard's stored arenas are genuinely dropped
    /// (the next exact query recompiles through the KB's
    /// persistent component cache) and the admission model forgets the
    /// artifacts of every home on that shard.
    fn apply_due_wipes(&mut self, t: f64, tel: Option<&Telemetry>) {
        for wi in 0..self.fault.wipes_applied.len() {
            let wipe = self.fault.plan.wipes()[wi];
            if self.fault.wipes_applied[wi] || wipe.at_s > t || wipe.shard >= self.shards.len() {
                continue;
            }
            self.fault.wipes_applied[wi] = true;
            self.fault.stats.cache_wipes += 1;
            self.shards[wipe.shard].wipe_store();
            for home in self.kbs.iter_mut().flat_map(|model| &mut model.homes) {
                if home.shard == wipe.shard {
                    home.compiled = false;
                }
            }
            count(tel, "fault_injected_total", wipe.shard, &[("kind", "cache_wipe")]);
        }
    }

    /// Step 1, place: advance the walk in virtual time along the
    /// breaker → crash-retry → ring-failover ladder until it stands on
    /// a shard that takes a dispatch now. Crash windows are finite, so
    /// the walk always terminates: a query that finds every shard down
    /// waits for the earliest recovery instead of being dropped (zero
    /// lost queries).
    fn place(&mut self, id: ClusterKbId, query: &Query, walk: &mut Walk, tel: Option<&Telemetry>) {
        let deadline_cutoff = walk.t + query.deadline.map_or(f64::INFINITY, |d| d.as_secs_f64());
        loop {
            let (shard, now) = (walk.shard, walk.now);
            if self.fault.breaker(tel, shard, |health| health.admits(now)) {
                if !self.fault.plan.crashed(shard, self.free_at[shard].max(now)) {
                    return;
                }
                self.fault.stats.crashes_hit += 1;
                count(tel, "fault_injected_total", shard, &[("kind", "crash")]);
                walk.event("fault.crash", now);
                self.fault.breaker(tel, shard, |health| health.record_failure(now));
                // Per-query jitter salt: the placement key hashed with
                // the query's (deterministic) trace track.
                let salt = self.kbs[id.index].fingerprint.ring_hash(self.next_track);
                let backoff = backoff_s(self.fault.jitter_seed, walk.attempts_here, salt);
                // Hedge: when the backoff would blow the deadline,
                // skip straight to failover instead of retrying.
                if walk.attempts_here < MAX_ATTEMPTS && now + backoff <= deadline_cutoff {
                    self.fault.stats.retries += 1;
                    count(tel, "retry_attempts_total", shard, &[]);
                    walk.event("fault.retry", now + backoff);
                    walk.now += backoff;
                    walk.attempts_here += 1;
                    walk.attempts += 1;
                    continue;
                }
            } else {
                self.fault.stats.breaker_rejections += 1;
                count(tel, "fault_breaker_rejected_total", shard, &[]);
                walk.event("breaker.reject", now);
            }
            // Failover: drop the unreachable shard from the ring and
            // re-route. When every shard is unreachable, wait until the
            // earliest one comes back (crash recovery or breaker
            // cooldown) — never drop the query.
            if !walk.excluded.contains(&shard) {
                walk.excluded.push(shard);
            }
            if walk.excluded.len() >= self.shards.len() {
                let target = (0..self.shards.len())
                    .map(|s| {
                        let t0 = self.free_at[s].max(now);
                        self.fault.plan.recovery_time(s, t0).max(self.fault.health[s].ready_at(now))
                    })
                    .fold(f64::INFINITY, f64::min)
                    .max(now);
                self.fault.stats.waited_for_recovery += 1;
                walk.event("fault.wait", target);
                walk.now = target;
                walk.excluded.clear();
                walk.attempts_here = 1;
                continue;
            }
            let mut ring = self.ring.clone();
            for &dead in &walk.excluded {
                ring = ring.remove_shard(dead);
            }
            walk.shard = ring.shard_for(&self.kbs[id.index].fingerprint);
            self.fault.stats.failovers += 1;
            count(tel, "fault_failover_total", walk.shard, &[]);
            walk.event("fault.failover", now);
            walk.attempts += 1;
            walk.attempts_here = 1;
            walk.failover = true;
        }
    }

    /// Step 2, admit: judge the query where the walk stands, with the
    /// time it already spent walking counted against its budget. A
    /// transient compile fault on a cold exact admission degrades past
    /// the exact rung; `None` when the query has no degraded rung
    /// (distribution/assignment kinds) — the walk has then waited the
    /// fault window out and must be placed again, since the shard may
    /// have crashed in the meantime.
    fn admit(
        &mut self,
        id: ClusterKbId,
        query: &Query,
        walk: &mut Walk,
        tel: Option<&Telemetry>,
    ) -> Option<Verdict> {
        let (shard, now) = (walk.shard, walk.now);
        let model = self.kbs[id.index].view(shard);
        let behind_s = (self.free_at[shard] - now).max(0.0) + (now - walk.t);
        let (decision, reason) = self.admission.admit_explained(query, &model, behind_s);
        let dispatch_start = self.free_at[shard].max(now);
        if decision != Admission::Admit(Route::Exact)
            || model.compiled
            || !self.fault.plan.compile_faulted(shard, dispatch_start)
        {
            self.fault.breaker(tel, shard, ShardHealth::record_success);
            return Some(Verdict { model, decision, reason, degraded_by_fault: false });
        }
        self.fault.stats.compile_faults_hit += 1;
        count(tel, "fault_injected_total", shard, &[("kind", "compile_fault")]);
        walk.event("fault.compile", now);
        self.fault.breaker(tel, shard, |health| health.record_failure(now));
        let Some((decision, reason)) = self.admission.admit_under_failure(query, &model, behind_s)
        else {
            let recover = self.fault.plan.compile_recovery_time(shard, dispatch_start);
            self.fault.stats.waited_for_recovery += 1;
            walk.event("fault.wait", recover);
            walk.now = recover.max(now);
            return None;
        };
        self.fault.stats.degraded_under_failure += 1;
        count(tel, "fault_degrade_total", shard, &[]);
        walk.event("fault.degrade", now);
        Some(Verdict { model, decision, reason, degraded_by_fault: true })
    }

    /// The index in `homes` of `id`'s registration on `shard`,
    /// registering a failover home there on first use: the formula and
    /// weights are cloned from the primary registration, and the new
    /// home's first exact dispatch recompiles through its own knowledge
    /// base's persistent component cache on the failover shard.
    fn home_on(&mut self, id: ClusterKbId, shard: usize) -> usize {
        let model = &mut self.kbs[id.index];
        if let Some(home) = model.homes.iter().position(|h| h.shard == shard) {
            return home;
        }
        let primary = self.shards[model.homes[0].shard].kb(model.homes[0].kb);
        let (cnf, weights) = (primary.cnf(), primary.weights().clone());
        let kb = self.shards[shard].register(model.name.clone(), &cnf, weights);
        model.homes.push(Home { shard, kb, compiled: false, has_predictor: false });
        model.homes.len() - 1
    }

    /// Step 3, charge: bill the verdict to the shard's virtual clock and
    /// build the arrival's one outcome, admitted or not. Also returns
    /// the virtual time service starts (for a reject: the time it was
    /// refused) and whether the route pays a cold compile — what the
    /// recorder needs beyond the outcome.
    fn charge(
        &mut self,
        query: &Query,
        walk: &mut Walk,
        verdict: Verdict,
        tel: Option<&Telemetry>,
    ) -> (ClusterOutcome, f64, bool) {
        let Verdict { model, decision, reason, degraded_by_fault } = verdict;
        let (shard, t) = (walk.shard, walk.t);
        let (start, stage, cold) = match decision {
            Admission::Reject { .. } => {
                // The backlog that sank the query: the shard's queue
                // plus the time the walk spent backing off and waiting.
                let backlog_s = (self.free_at[shard] - t).max(0.0) + (walk.now - t).max(0.0);
                (walk.now, StageBreakdown { queue_s: backlog_s, ..Default::default() }, false)
            }
            Admission::Admit(route) => {
                let cold = route == Route::Exact && !model.compiled;
                let start = self.free_at[shard].max(walk.now);
                // Slow-shard windows stretch the modeled service
                // (compile and execution alike) by their factor.
                let mult = self.fault.plan.slow_multiplier(shard, start);
                if mult > 1.0 {
                    self.fault.stats.slowdowns_hit += 1;
                    count(tel, "fault_injected_total", shard, &[("kind", "slow")]);
                    walk.events.push(FaultEvent { name: "fault.slow", start, end: start });
                }
                let cost_s = modeled_cost(route, query, &model) * mult;
                let compile_s = if cold { model.compile_s * mult } else { 0.0 };
                self.free_at[shard] = start + cost_s;
                let queue_s = (start - t).max(0.0);
                (start, StageBreakdown { queue_s, compile_s, exec_s: cost_s - compile_s }, cold)
            }
        };
        // The reported latency is *defined* as the stage sum, so the
        // breakdown partitions it bit-exactly instead of drifting by a
        // rounding term from `(start + cost) - t`.
        let modeled_latency_s = stage.total();
        let outcome = ClusterOutcome {
            shard,
            decision,
            reason,
            answer: None,
            modeled_latency_s,
            stage,
            deadline_miss: decision.route().is_none()
                || query.deadline.is_some_and(|d| modeled_latency_s > d.as_secs_f64()),
            latency_s: 0.0,
            attempts: walk.attempts,
            failover: walk.failover,
            degraded_by_fault,
        };
        (outcome, start, cold)
    }
}

/// Step 4, record: the counters and the modeled span chain of one
/// decided arrival. The chain is a `cluster.query` root on the query's
/// own track spanning arrival to modeled completion (for a reject: to
/// the refusal) with an instantaneous `cluster.admit` marker; an
/// admitted query adds a `cluster.route` marker, a `queue.wait` child
/// covering the backlog, a `store.probe` marker on exact routes
/// (`result = hit|miss`), a `serve.compile` child on cold exact routes,
/// and a `serve.eval` child for the service itself. The fault-layer
/// decisions (retries, failovers, breaker rejections, degrades, waits)
/// nest last, clamped into the root interval so the trace forest stays
/// well formed. All timestamps are virtual (modeled) seconds, so the
/// chain is identical on every replay of a workload.
fn record(
    tel: &Telemetry,
    track: u64,
    tenant: &str,
    walk: &Walk,
    start: f64,
    outcome: &ClusterOutcome,
    cold: bool,
) {
    let t = walk.t;
    let route = outcome.decision.route();
    let shard_label = outcome.shard.to_string();
    let labels: [(&str, &str); 4] = [
        ("shard", &shard_label),
        ("tenant", tenant),
        ("route", route.map_or("reject", Route::label)),
        ("reason", outcome.reason),
    ];
    let [shard, tenant, route_label, reason] = labels;
    if route.is_some() {
        tel.registry.counter("cluster_admissions_total", &labels).inc();
        // Modeled arrival-to-completion latency, per shard — the
        // histogram the default latency SLO watches (merge the shards'
        // snapshots via `Histogram::merge` for the cluster-wide view).
        tel.registry
            .histogram("cluster_modeled_latency_seconds", &[shard])
            .record(outcome.modeled_latency_s);
    } else {
        tel.registry.counter("cluster_rejects_total", &[shard, tenant, reason]).inc();
    }
    if outcome.deadline_miss {
        tel.registry.counter("cluster_deadline_miss_total", &[shard]).inc();
    }
    let compiled_at = start + outcome.stage.compile_s;
    // A reject's stage is all queue, so its chain ends where it starts.
    let end = compiled_at + outcome.stage.exec_s;
    let root = tel.tracer.record_span(track, "cluster.query", &labels, t, end);
    let span = |name: &str, labels: &[(&str, &str)], from: f64, to: f64| {
        tel.tracer.record_span_under(track, name, labels, from, to, root);
    };
    let verdict = if route.is_some() { "admit" } else { "reject" };
    span("cluster.admit", &[("decision", verdict)], t, t);
    if let Some(route) = route {
        span("cluster.route", &[route_label], t, t);
        span("queue.wait", &[], t, start);
        if route == Route::Exact {
            let result = if cold { "miss" } else { "hit" };
            span("store.probe", &[("result", result)], start, start);
        }
        if cold {
            span("serve.compile", &[tenant], start, compiled_at);
        }
        span("serve.eval", &[], compiled_at, end);
    }
    for ev in &walk.events {
        let from = ev.start.clamp(t, end);
        span(ev.name, &[], from, ev.end.clamp(from, end));
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
        use reason_telemetry::{Telemetry, VirtualClock};

        let tel = Arc::new(Telemetry::with_clock(VirtualClock::shared()));
        let cnf = chain_cnf(8);
        let mut cluster = ServeCluster::new(ClusterConfig::with_shards(2));
        cluster.attach_telemetry(tel.clone());
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
        // Unsorted arrivals panic before the first one is admitted.
        let unsorted = [(kb, valid.1.clone(), 1.0), valid.clone()];
        let call = std::panic::AssertUnwindSafe(|| cluster.serve_at(&unsorted));
        assert!(std::panic::catch_unwind(call).is_err());
        // The failed calls left no trace: no span, no compiled bit, no
        // phantom queue — the next query reads as on a fresh cluster.
        assert!(tel.tracer.finished().iter().all(|s| s.name != "cluster.query"));
        let mut fresh = ServeCluster::new(ClusterConfig::with_shards(2));
        let fresh_kb = fresh.register("chain", &cnf, WmcWeights::uniform(8));
        assert_eq!(format!("{:?}", cluster.kb_models()), format!("{:?}", fresh.kb_models()));
        let after = cluster.serve_at(std::slice::from_ref(&valid)).unwrap();
        let reference = fresh.serve_at(&[(fresh_kb, valid.1, 0.0)]).unwrap();
        let (after, reference) = (&after.outcomes[0], &reference.outcomes[0]);
        assert_eq!(after.answer, reference.answer);
        assert!(matches!(after.answer, Some(Answer::Distribution(_))));
        assert_eq!(after.stage, reference.stage);
        assert_eq!(after.modeled_latency_s.to_bits(), reference.modeled_latency_s.to_bits());
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
        let worst = reason_telemetry::profile::exemplars(&spans, "cluster.query", 3);
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
        let mut cluster = ServeCluster::new(ClusterConfig::with_shards(2));
        let kb = cluster.register("chain", &chain_cnf(8), WmcWeights::uniform(8));
        cluster.install_fault_domain(FaultPlan::new(), 7);
        let batch = vec![
            (kb, Query::exact(QueryKind::Wmc), 0.0),
            (kb, Query::exact(QueryKind::Wmc), 1.0),
            (kb, Query::with_deadline(QueryKind::Wmc, Duration::from_nanos(1)), 1.0),
        ];
        let report = cluster.serve_at(&batch).unwrap();

        // Pinned from the commit before the fault walk became the only
        // path, where these arrivals took the bare (fault-free) arm:
        // (decision, reason, [latency, queue, compile, exec] bits).
        let exact = Admission::Admit(Route::Exact);
        let reject = Admission::Reject { backlog_s: 1.600000000046009e-6 };
        let bare: [(Admission, &str, [u64; 4]); 3] = [
            (exact, "no_deadline", [0x3f1fe07017c01026, 0, 0x3f1f75104d551d69, 0x3ebad7f29abcaf40]),
            (exact, "no_deadline", [0x3ebad7f29abcaf48, 0, 0, 0x3ebad7f29abcaf48]),
            (reject, "backlog_reject", [0x3ebad7f29ac00000, 0x3ebad7f29ac00000, 0, 0]),
        ];
        for (got, (decision, reason, bits)) in report.outcomes.iter().zip(bare) {
            assert_eq!((got.decision, got.reason), (decision, reason));
            let StageBreakdown { queue_s, compile_s, exec_s } = got.stage;
            assert_eq!([got.modeled_latency_s, queue_s, compile_s, exec_s].map(f64::to_bits), bits);
            assert_eq!(got.answer.is_some(), decision.route().is_some());
            assert_eq!((got.attempts, got.failover, got.degraded_by_fault), (1, false, false));
        }
        assert_eq!(report.outcomes[0].answer, report.outcomes[1].answer);
        assert_eq!(cluster.fault_stats(), FaultStats::default(), "empty plan must leave no trace");
    }

    #[test]
    fn crashed_shard_fails_over_and_answers_bit_for_bit() {
        let cnf = chain_cnf(8);
        let weights = WmcWeights::uniform(8);
        let queries: Vec<Query> = vec![Query::exact(QueryKind::Wmc), Query::exact(QueryKind::Wmc)];

        let mut cluster = ServeCluster::new(ClusterConfig::with_shards(3));
        let kb = cluster.register("chain", &cnf, weights.clone());
        let home = cluster.shard_of(kb);
        cluster.install_fault_domain(FaultPlan::new().crash(home, 0.0, 1e6), 7);

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
        let stats = cluster.fault_stats();
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
        cluster.install_fault_domain(FaultPlan::new().wipe_cache(home, 0.5), 7);

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
        assert_eq!(cluster.fault_stats().cache_wipes, 1);
    }

    #[test]
    fn compile_fault_degrades_instead_of_erroring() {
        let cnf = chain_cnf(8);
        let mut cluster = ServeCluster::new(ClusterConfig::with_shards(2));
        let kb = cluster.register("chain", &cnf, WmcWeights::uniform(8));
        let home = cluster.shard_of(kb);
        cluster.install_fault_domain(FaultPlan::new().fail_compiles(home, 0.0, 1e6), 7);

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
        assert_eq!(cluster.fault_stats().degraded_under_failure, 1);
    }

    /// A one-tenant cluster whose knowledge base also has a failover
    /// home, plus the indices of its primary and failover shards.
    fn cluster_with_failover_home() -> (ServeCluster, ClusterKbId, usize, usize) {
        let mut cluster = ServeCluster::new(ClusterConfig::with_shards(2));
        let kb = cluster.register("chain", &chain_cnf(8), WmcWeights::uniform(8));
        let primary = cluster.shard_of(kb);
        assert_eq!(cluster.home_on(kb, 1 - primary), 1);
        (cluster, kb, primary, 1 - primary)
    }

    /// `decision` charged for a WMC query with a 1 ms deadline that
    /// arrived at 0.1 and, one retry later, stands at 0.1001 on its cold
    /// primary, whose queue drains at 0.3 inside a 3.7x slow window.
    fn charged(decision: Admission) -> (ServeCluster, Walk, (ClusterOutcome, f64, bool)) {
        let (mut cluster, kb, shard, _) = cluster_with_failover_home();
        cluster.install_fault_domain(FaultPlan::new().slow(shard, 0.0, 1.0, 3.7), 7);
        cluster.free_at[shard] = 0.3;
        let model = cluster.kbs[kb.index].view(shard);
        let query = Query::with_deadline(QueryKind::Wmc, Duration::from_millis(1));
        let mut walk = Walk::new(0.1, shard);
        walk.event("fault.retry", 0.1 + 1e-4);
        (walk.now, walk.attempts) = (0.1 + 1e-4, 2);
        let verdict = Verdict { model, decision, reason: "pinned", degraded_by_fault: false };
        let charged = cluster.charge(&query, &mut walk, verdict, None);
        (cluster, walk, charged)
    }

    #[test]
    fn charge_partitions_the_latency_bit_exactly_under_a_slow_multiplier() {
        let (cluster, walk, (outcome, start, cold)) = charged(Admission::Admit(Route::Exact));
        assert!(cold && start == 0.3);
        let model = cluster.kbs[0].view(walk.shard);
        let stage = outcome.stage;
        assert_eq!(stage.total().to_bits(), outcome.modeled_latency_s.to_bits());
        assert_eq!(stage.queue_s, 0.3 - 0.1);
        assert_eq!(stage.compile_s, model.compile_s * 3.7);
        let cost_s = model.exact_cost(&QueryKind::Wmc) * 3.7;
        assert_eq!(stage.exec_s, cost_s - stage.compile_s);
        assert_eq!(cluster.free_at[walk.shard], 0.3 + cost_s);
        assert!(outcome.deadline_miss, "0.2 s of queue misses a 1 ms deadline");
        assert_eq!((outcome.attempts, outcome.failover), (2, false));
        assert_eq!(cluster.fault_stats().slowdowns_hit, 1);
    }

    #[test]
    fn a_wipe_on_a_failover_shard_clears_only_that_home() {
        let (mut cluster, kb, primary, failover) = cluster_with_failover_home();
        cluster.install_fault_domain(FaultPlan::new().wipe_cache(failover, 0.5), 7);
        for home in &mut cluster.kbs[kb.index].homes {
            home.compiled = true;
        }
        cluster.apply_due_wipes(0.4, None);
        assert!(cluster.kbs[kb.index].homes.iter().all(|h| h.compiled), "not due yet");
        cluster.apply_due_wipes(0.6, None);
        let homes = &cluster.kbs[kb.index].homes;
        assert_eq!((homes[0].shard, homes[0].compiled), (primary, true));
        assert_eq!((homes[1].shard, homes[1].compiled), (failover, false));
        assert!(cluster.kbs[kb.index].view(primary).compiled);
        assert!(!cluster.kbs[kb.index].view(failover).compiled);
        assert_eq!(cluster.fault_stats().cache_wipes, 1);
        cluster.apply_due_wipes(0.7, None);
        assert_eq!(cluster.fault_stats().cache_wipes, 1, "a wipe fires once");
    }

    #[test]
    fn recorder_emits_the_pinned_span_chains() {
        use reason_telemetry::{Telemetry, VirtualClock};

        let tel = Telemetry::with_clock(VirtualClock::shared());
        let (_, walk, (cold_exact, start, cold)) = charged(Admission::Admit(Route::Exact));
        record(&tel, 1, "chain", &walk, start, &cold_exact, cold);
        let (_, walk, (reject, start, cold)) = charged(Admission::Reject { backlog_s: 0.2 });
        record(&tel, 2, "chain", &walk, start, &reject, cold);

        // Span names in record order (`finished` sorts by start time),
        // as the commit before `record` replaced the inline reject block
        // and `record_admit_telemetry` emitted them.
        let mut spans = tel.tracer.finished();
        assert!(reason_telemetry::is_well_formed_forest(&spans));
        spans.sort_by_key(|s| s.id);
        let names = |track| -> Vec<&str> {
            spans.iter().filter(|s| s.track == track).map(|s| s.name.as_str()).collect()
        };
        let admit_chain = "cluster.query cluster.admit cluster.route queue.wait store.probe \
                           serve.compile serve.eval fault.retry fault.slow";
        assert_eq!(names(1), admit_chain.split_whitespace().collect::<Vec<_>>());
        assert_eq!(names(2), ["cluster.query", "cluster.admit", "fault.retry"]);
        let end = 0.3 + cold_exact.stage.compile_s + cold_exact.stage.exec_s;
        assert_eq!((spans[0].start_s, spans[0].end_s), (0.1, end));
        let reject_root = spans.iter().find(|s| s.track == 2 && s.parent.is_none()).unwrap();
        assert_eq!((reject_root.start_s, reject_root.end_s), (0.1, 0.1 + 1e-4));
        assert!(reject_root.labels.contains(&("route".into(), "reject".into())));
    }
}
