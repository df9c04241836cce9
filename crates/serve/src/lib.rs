//! `reason-serve` — the knowledge-base serving engine.
//!
//! REASON's deployment argument (and this repo's north star) is a
//! system answering *heavy repeated query traffic* against shared
//! logical knowledge. Before this crate, nothing survived between
//! `reason-eval` invocations: every query repaid compilation from
//! scratch. `reason-serve` is the layer that remembers:
//!
//! * [`KnowledgeBase`] ([`kb`]) — a registered CNF rule set over fixed
//!   per-variable marginals, owning the cross-query
//!   [`reason_pc::PersistentComponentCache`] so that clause
//!   additions/retractions recompile only the components they touch.
//! * [`CircuitStore`] ([`store`]) — the persistent compiled-circuit
//!   store: artifacts (flat [`reason_pc::Dnnf`] arenas plus their
//!   source circuits) keyed by canonical [`FormulaFingerprint`]s
//!   ([`fingerprint`]), bounded by entries and bytes with cost-aware
//!   eviction, with
//!   hit/miss/eviction [`CacheStats`]. Eviction is safe: recompiling
//!   the same key reproduces answers bit-for-bit.
//! * [`QueryRouter`] ([`router`]) — adaptive admission: each
//!   deadline-carrying [`Query`] is routed to exact compiled
//!   evaluation, anytime Monte-Carlo bounds with a deadline-trimmed
//!   budget, or one prediction-network forward pass, using predicted
//!   costs seeded from the committed compile-sweep telemetry and
//!   refined by live measurements.
//! * [`ServeEngine`] ([`engine`]) — ties it together and executes
//!   admitted batches through `reason_system::BatchExecutor`'s
//!   threaded lanes; a batch's exact queries share one batched-arena
//!   task (`SymbolicStage::ServeBatch`): probability, posterior and
//!   marginal lanes ride one slab through a single sum-product d-DNNF
//!   traversal (walked in fixed-width lane tiles), MPE lanes share one
//!   max-product pass, and tasks drain earliest-deadline-first.
//! * [`ServeCluster`] ([`cluster`]) — the sharded front-end:
//!   fingerprints consistent-hash onto a [`HashRing`] of engine
//!   shards, and every query passes deadline-aware *pre-dispatch*
//!   admission ([`QueryRouter::admit`]) against a deterministic cost
//!   model plus the destination shard's modeled queue backlog —
//!   degrading or rejecting before an executor lane is spent, not
//!   after a miss.
//! * [`FaultPlan`] ([`fault`]) — the failure-domain layer: seeded
//!   deterministic fault injection (shard crashes, slow shards,
//!   transient compile faults, cache wipes), per-shard [`ShardHealth`]
//!   circuit breakers, and hedged retries with deterministic backoff
//!   (fixed thresholds; callers choose the plan and the jitter seed).
//!   The cluster
//!   reroutes around dead shards through [`HashRing::remove_shard`]
//!   failover, recompiles on the failover shard, and degrades down the
//!   exact → anytime-bounds → prediction ladder instead of erroring —
//!   no query is ever lost.
//!
//! `reason-eval serve` sweeps this engine (repeated-query speedups,
//! deadline fallbacks, incremental edits) and commits the result as
//! `BENCH_serve.json`.
//!
//! # Example
//!
//! ```
//! use reason_sat::Cnf;
//! use reason_pc::WmcWeights;
//! use reason_serve::{Answer, Query, QueryKind, ServeConfig, ServeEngine};
//!
//! let cnf = Cnf::from_clauses(3, vec![vec![1, 2], vec![-2, 3]]);
//! let mut engine = ServeEngine::new(ServeConfig::default());
//! let kb = engine.register("rules", &cnf, WmcWeights::uniform(3));
//!
//! // First exact query compiles; every later one is served hot.
//! let report = engine.serve(kb, &[Query::exact(QueryKind::Wmc)]).unwrap();
//! let Answer::Exact(z) = report.outcomes[0].answer else { unreachable!() };
//! assert!((z - 0.5).abs() < 1e-12); // 4 of 8 assignments satisfy

//! assert_eq!(engine.store_stats().insertions, 1);
//! ```

pub mod cluster;
pub mod engine;
pub mod fault;
pub mod kb;
pub mod router;
pub mod store;

pub use cluster::{
    AdmissionStats, ClusterConfig, ClusterKbId, ClusterOutcome, ClusterReport, HashRing,
    ServeCluster, StageBreakdown, SLO_TRACK,
};
pub use engine::{Answer, KbId, ServeConfig, ServeEngine, ServeError, ServeOutcome, ServeReport};
pub use fault::{BreakerState, CacheWipe, FaultPlan, FaultStats, ShardHealth};
pub use kb::KnowledgeBase;
/// Canonical formula fingerprints — the circuit store's keys. The type
/// lives in `reason_pc`; re-exported here because the store's API is
/// keyed by it.
pub use reason_pc::fingerprint;
pub use reason_pc::{ring_mix, FormulaFingerprint};
/// SLO machinery the cluster's live evaluation builds on, re-exported
/// so serving callers can declare objectives without importing the
/// telemetry crate directly.
pub use reason_telemetry::slo::{Objective, SloAlert, SloMonitor, SloSpec};
pub use router::{Admission, KbTelemetry, Query, QueryKind, QueryRouter, Route, RouterConfig};
pub use store::{CacheStats, CircuitStore, StoreConfig, StoredCircuit};
