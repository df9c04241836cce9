//! Adaptive exact/approx/predicted query routing.
//!
//! Every admitted [`Query`] carries an optional deadline. The
//! [`QueryRouter`] predicts what the exact compiled path would cost —
//! from the knowledge base's live [`KbTelemetry`]: measured warm-eval
//! latency when the artifact is hot, predicted (or last measured)
//! compile latency when it is cold — and walks the ladder:
//!
//! 1. **Exact** — compiled-circuit evaluation; always taken when there
//!    is no deadline or the predicted cost fits.
//! 2. **Approx** — anytime Monte-Carlo bounds with the sample budget
//!    trimmed to the remaining deadline (probability-valued queries
//!    only).
//! 3. **Predicted** — one forward pass of the knowledge base's trained
//!    prediction network: microseconds, no bounds, the last resort
//!    under sub-millisecond deadlines.
//!
//! Distribution- and assignment-valued queries ([`QueryKind::Marginal`],
//! [`QueryKind::Mpe`]) have no approximate rung yet and always route
//! exact. Cost constants start from a coarse fit of the committed
//! `BENCH_pc.json` compile sweep and are replaced by measurements as
//! the engine serves traffic — the routing is *adaptive*, not static.
//!
//! The sharded front-end ([`crate::cluster`]) extends the same ladder
//! into pre-dispatch **admission control**: [`QueryRouter::admit`]
//! subtracts the shard's modeled queue backlog from the deadline
//! budget before walking the rungs, and when the backlog alone has
//! consumed the deadline it returns [`Admission::Reject`] — the query
//! is refused up front instead of being dispatched into a guaranteed
//! miss. When a fault takes exact capacity away the cluster walks the
//! same ladder with the exact rung masked off
//! (`QueryRouter::admit_under_failure`). The sample cap is the one
//! knob ([`RouterConfig::max_approx_samples`]); the deadline head-room
//! (0.5) and the fewest samples worth an approximate answer (512) are
//! constants — no caller ever set another value.

use std::time::Duration;

/// What a query asks of its knowledge base: the executor's serve-lane
/// query type, under the name the serving layers use.
pub use reason_system::ServeQuery as QueryKind;

/// How many circuit evaluations the exact path of `kind` costs.
pub(crate) fn exact_evals(kind: &QueryKind) -> f64 {
    match kind {
        // One sweep per value plus the normalizer.
        QueryKind::Marginal(..) => 3.0,
        _ => 1.0,
    }
}

/// `true` for the probability-valued kinds the approximate and
/// predicted rungs can answer.
pub(crate) fn degradable(kind: &QueryKind) -> bool {
    matches!(kind, QueryKind::Wmc | QueryKind::Probability(_) | QueryKind::Posterior(_))
}

/// One admitted query: a kind plus an optional latency deadline.
#[derive(Debug, Clone)]
pub struct Query {
    /// What is asked.
    pub kind: QueryKind,
    /// Answer-by budget; `None` means "exact, whatever it costs".
    pub deadline: Option<Duration>,
}

impl Query {
    /// A deadline-free (always-exact) query.
    pub fn exact(kind: QueryKind) -> Self {
        Query { kind, deadline: None }
    }

    /// A deadline-bound query.
    pub fn with_deadline(kind: QueryKind, deadline: Duration) -> Self {
        Query { kind, deadline: Some(deadline) }
    }
}

/// Where the router sent a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Exact compiled evaluation.
    Exact,
    /// Anytime Monte-Carlo bounds under a trimmed sample budget.
    Approx {
        /// The deadline-fitted sample budget.
        samples: u64,
    },
    /// One forward pass of the trained prediction network.
    Predicted,
}

impl Route {
    /// The stable `route` label value on metrics and spans.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Route::Exact => "exact",
            Route::Approx { .. } => "approx",
            Route::Predicted => "predicted",
        }
    }
}

/// A pre-dispatch admission verdict (see [`QueryRouter::admit`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admission {
    /// Dispatch on the given route.
    Admit(Route),
    /// Refused before dispatch: the modeled queue backlog alone
    /// exceeds the query's effective deadline budget, so no rung —
    /// not even the prediction network — could answer in time.
    Reject {
        /// Modeled seconds of shard backlog at decision time.
        backlog_s: f64,
    },
}

impl Admission {
    /// The admitted route, or `None` when rejected.
    pub(crate) fn route(&self) -> Option<Route> {
        match self {
            Admission::Admit(route) => Some(*route),
            Admission::Reject { .. } => None,
        }
    }
}

/// Fraction of the deadline a predicted cost must fit inside —
/// head-room against prediction error.
const DEADLINE_SAFETY: f64 = 0.5;
/// Fewest samples an approximate answer is worth; below this the ladder
/// falls through to the prediction network.
pub(crate) const MIN_APPROX_SAMPLES: u64 = 512;

/// Router knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterConfig {
    /// Sample budget cap, so lax deadlines don't buy pointless work
    /// (default 65 536).
    pub max_approx_samples: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig { max_approx_samples: 1 << 16 }
    }
}

/// The live cost picture of one knowledge base. The serving engine
/// keeps the three cost numbers and computes the two bits on read
/// (`crate::ServeEngine::telemetry`); the cluster's cost model builds
/// the same view per shard.
#[derive(Debug, Clone, Copy)]
pub struct KbTelemetry {
    /// `true` when the compiled artifact is hot in the store.
    pub compiled: bool,
    /// Predicted cold-compile seconds: the coarse `BENCH_pc.json` fit
    /// before the first compile, the last measured compile after.
    pub compile_s: f64,
    /// Measured warm exact-evaluation seconds (EWMA).
    pub eval_s: f64,
    /// Measured approximate-sampling seconds per sample (EWMA).
    pub sample_s: f64,
    /// `true` when a trained prediction network is available.
    pub has_predictor: bool,
}

impl KbTelemetry {
    /// The pre-measurement prior for a formula of `num_vars` variables
    /// and `num_clauses` clauses: compile cost from a coarse
    /// exponential fit of the committed `BENCH_pc.json` random-3-SAT
    /// ladder (~124 µs at n = 12 doubling roughly every 3.6 variables),
    /// eval cost proportional to expected circuit size, sampling cost
    /// proportional to clause count.
    pub fn prior(num_vars: usize, num_clauses: usize) -> Self {
        let n = num_vars as f64;
        KbTelemetry {
            compiled: false,
            compile_s: 1.2e-4 * 1.21f64.powf((n - 12.0).max(0.0)),
            eval_s: 2e-7 * n.max(1.0),
            sample_s: 5e-8 * (num_clauses.max(1) as f64),
            has_predictor: false,
        }
    }

    /// Predicted seconds for the exact path of `kind` right now:
    /// (cold ? compile : 0) + evals × warm-eval.
    pub(crate) fn exact_cost(&self, kind: &QueryKind) -> f64 {
        let compile = if self.compiled { 0.0 } else { self.compile_s };
        compile + exact_evals(kind) * self.eval_s
    }

    /// The state as `(field, value)` pairs — the serializable snapshot
    /// of the router's EWMA cost model (`reason-eval` emits these as
    /// JSON next to every traffic sweep). Booleans encode as 0/1; the
    /// seconds fields are the live EWMAs the ladder judges with.
    pub fn snapshot(&self) -> [(&'static str, f64); 5] {
        [
            ("compiled", f64::from(u8::from(self.compiled))),
            ("compile_s", self.compile_s),
            ("eval_s", self.eval_s),
            ("sample_s", self.sample_s),
            ("has_predictor", f64::from(u8::from(self.has_predictor))),
        ]
    }
}

/// The admission router (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct QueryRouter {
    config: RouterConfig,
}

impl QueryRouter {
    /// A router with the given knobs.
    pub fn new(config: RouterConfig) -> Self {
        QueryRouter { config }
    }

    /// Pre-dispatch admission for the sharded front-end: the degrade
    /// ladder the engine routes with, but the effective budget is the
    /// deadline minus `backlog_s` — the shard's modeled queue wait at
    /// decision time. A deadlined query whose budget the backlog has
    /// already consumed is [`Admission::Reject`]ed outright (dropping
    /// *before* dispatch, not after a miss); deadline-free queries are
    /// always admitted exact. Deterministic: only the arguments feed
    /// the decision, so a replayed workload re-derives the identical
    /// admission sequence.
    pub fn admit(&self, query: &Query, t: &KbTelemetry, backlog_s: f64) -> Admission {
        self.admit_explained(query, t, backlog_s).0
    }

    /// [`admit`](Self::admit), also naming *why* the ladder landed
    /// where it did. The reason is a stable label
    /// (`no_deadline` / `exact_fit` / `not_degradable` /
    /// `deadline_approx` / `deadline_predicted` / `approx_floor` /
    /// `backlog_reject`) so instrumented callers can expose degrade
    /// decisions as labeled metrics without re-deriving the ladder.
    pub(crate) fn admit_explained(
        &self,
        query: &Query,
        t: &KbTelemetry,
        backlog_s: f64,
    ) -> (Admission, &'static str) {
        self.admit_within(query, t, backlog_s, true)
    }

    /// [`admit_explained`](Self::admit_explained) with the exact rung
    /// masked off — the step the fault-tolerant cluster takes when
    /// exact capacity is lost (transient compile failures, dead
    /// shards): the query walks the remaining anytime-bounds →
    /// prediction ladder instead of erroring, and the reasons read
    /// `fault_approx` / `fault_predicted` / `fault_approx_floor`.
    /// Deadline-free queries get the full sample cap; deadlined ones
    /// the backlog-trimmed fit. Returns `None` for kinds with no
    /// degraded rung ([`QueryKind::Marginal`]/[`QueryKind::Mpe`]),
    /// which must wait for exact capacity instead.
    pub(crate) fn admit_under_failure(
        &self,
        query: &Query,
        t: &KbTelemetry,
        backlog_s: f64,
    ) -> Option<(Admission, &'static str)> {
        degradable(&query.kind).then(|| self.admit_within(query, t, backlog_s, false))
    }

    /// Reject when the backlog has consumed the budget, else the ladder.
    fn admit_within(
        &self,
        query: &Query,
        t: &KbTelemetry,
        backlog_s: f64,
        exact_available: bool,
    ) -> (Admission, &'static str) {
        let budget_s = budget_s(query, backlog_s);
        if budget_s <= 0.0 {
            return (Admission::Reject { backlog_s }, "backlog_reject");
        }
        let (route, reason) = self.ladder(query, t, budget_s, exact_available);
        (Admission::Admit(route), reason)
    }

    /// The degrade ladder under an effective budget of `budget_s`,
    /// returning the route plus its reason label (see
    /// [`admit_explained`](Self::admit_explained)). With
    /// `exact_available` false the walk starts one rung down and the
    /// labels name the fault instead of the deadline.
    ///
    /// The engine routes with this walk at an idle shard's budget,
    /// [`budget_s`]`(query, 0.0)`, and never rejects: a zero deadline
    /// walks the ladder at budget 0 where admission would refuse it.
    pub(crate) fn ladder(
        &self,
        query: &Query,
        t: &KbTelemetry,
        budget_s: f64,
        exact_available: bool,
    ) -> (Route, &'static str) {
        let [approx, predicted, floor] = if exact_available {
            if query.deadline.is_none() {
                return (Route::Exact, "no_deadline");
            }
            if t.exact_cost(&query.kind) <= budget_s {
                return (Route::Exact, "exact_fit");
            }
            if !degradable(&query.kind) {
                // Distribution/assignment queries have no approximate rung:
                // they take the exact path even past their deadline.
                return (Route::Exact, "not_degradable");
            }
            ["deadline_approx", "deadline_predicted", "approx_floor"]
        } else {
            ["fault_approx", "fault_predicted", "fault_approx_floor"]
        };
        // Truncation floors the fitted budget at 0 under deadlines
        // tighter than one sample's latency, and saturates it under an
        // infinite (deadline-free) budget; the floor falls through to
        // the cheaper rungs and the cap trims the ceiling.
        let samples = (budget_s / t.sample_s.max(1e-12)) as u64;
        if samples >= MIN_APPROX_SAMPLES {
            // The trailing clamp keeps a degenerate zero cap from
            // producing a zero-sample budget (a silent non-answer).
            let samples = samples.min(self.config.max_approx_samples).max(1);
            return (Route::Approx { samples }, approx);
        }
        if t.has_predictor {
            return (Route::Predicted, predicted);
        }
        // No predictor trained yet: the smallest sound approximation is
        // still better than silently blowing the deadline on exact.
        (Route::Approx { samples: MIN_APPROX_SAMPLES }, floor)
    }
}

/// The effective budget of `query` behind `backlog_s` seconds of queue:
/// the deadline scaled by the safety head-room, minus the backlog;
/// infinite without a deadline.
pub(crate) fn budget_s(query: &Query, backlog_s: f64) -> f64 {
    query.deadline.map_or(f64::INFINITY, |d| d.as_secs_f64() * DEADLINE_SAFETY - backlog_s.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use reason_pc::Evidence;

    /// The engine's routing decision: the ladder at an idle shard.
    fn idle_route(router: &QueryRouter, query: &Query, t: &KbTelemetry) -> Route {
        router.ladder(query, t, budget_s(query, 0.0), true).0
    }

    fn hot_telemetry() -> KbTelemetry {
        KbTelemetry {
            compiled: true,
            compile_s: 0.2,
            eval_s: 5e-6,
            sample_s: 2e-6,
            has_predictor: true,
        }
    }

    #[test]
    fn deadline_free_queries_route_exact() {
        let router = QueryRouter::default();
        let t = hot_telemetry();
        assert_eq!(idle_route(&router, &Query::exact(QueryKind::Wmc), &t), Route::Exact);
    }

    #[test]
    fn zero_deadlines_walk_the_ladder_at_budget_zero_instead_of_rejecting() {
        let router = QueryRouter::default();
        let ev = Evidence::empty(4);
        let kinds = [
            QueryKind::Wmc,
            QueryKind::Probability(ev.clone()),
            QueryKind::Posterior(ev.clone()),
            QueryKind::Marginal(ev.clone(), 1),
            QueryKind::Mpe(ev),
        ];
        for kind in kinds {
            let degradable = degradable(&kind);
            let q = Query::with_deadline(kind, Duration::ZERO);
            // Admission on an idle shard refuses a zero budget up front.
            assert_eq!(
                router.admit(&q, &hot_telemetry(), 0.0),
                Admission::Reject { backlog_s: 0.0 }
            );
            // The engine still answers: probability-valued kinds drop to
            // the cheapest rung, the others stay exact.
            let no_net = KbTelemetry { has_predictor: false, ..hot_telemetry() };
            let (with_net, without_net) = if degradable {
                (Route::Predicted, Route::Approx { samples: MIN_APPROX_SAMPLES })
            } else {
                (Route::Exact, Route::Exact)
            };
            assert_eq!(idle_route(&router, &q, &hot_telemetry()), with_net, "{:?}", q.kind);
            assert_eq!(idle_route(&router, &q, &no_net), without_net, "{:?}", q.kind);
        }
    }

    #[test]
    fn generous_deadlines_stay_exact() {
        let router = QueryRouter::default();
        let q = Query::with_deadline(QueryKind::Wmc, Duration::from_millis(50));
        assert_eq!(idle_route(&router, &q, &hot_telemetry()), Route::Exact);
    }

    #[test]
    fn cold_artifacts_charge_the_compile_and_fall_back_to_bounds() {
        let router = QueryRouter::default();
        let t = KbTelemetry { compiled: false, ..hot_telemetry() };
        // 10 ms deadline vs 200 ms predicted compile: exact is out, and
        // the 5 ms effective budget buys 2 500 samples.
        let q = Query::with_deadline(QueryKind::Wmc, Duration::from_millis(10));
        match idle_route(&router, &q, &t) {
            Route::Approx { samples } => assert_eq!(samples, 2500),
            other => panic!("expected approx, got {other:?}"),
        }
    }

    #[test]
    fn sub_microsecond_deadlines_reach_the_prediction_net() {
        let router = QueryRouter::default();
        let q = Query::with_deadline(
            QueryKind::Posterior(Evidence::empty(4)),
            Duration::from_nanos(500),
        );
        assert_eq!(idle_route(&router, &q, &hot_telemetry()), Route::Predicted);
        let t = KbTelemetry { has_predictor: false, ..hot_telemetry() };
        match idle_route(&router, &q, &t) {
            Route::Approx { samples } => {
                assert_eq!(samples, MIN_APPROX_SAMPLES);
            }
            other => panic!("no predictor must degrade to minimum bounds, got {other:?}"),
        }
    }

    #[test]
    fn distribution_queries_never_degrade() {
        let router = QueryRouter::default();
        let t = KbTelemetry { compiled: false, ..hot_telemetry() };
        let q = Query::with_deadline(
            QueryKind::Marginal(Evidence::empty(4), 0),
            Duration::from_nanos(100),
        );
        assert_eq!(idle_route(&router, &q, &t), Route::Exact);
        let m = Query::with_deadline(QueryKind::Mpe(Evidence::empty(4)), Duration::from_nanos(100));
        assert_eq!(idle_route(&router, &m, &t), Route::Exact);
    }

    #[test]
    fn sample_budgets_are_capped() {
        let router = QueryRouter::default();
        let t = KbTelemetry { compiled: false, sample_s: 1e-9, ..hot_telemetry() };
        let q = Query::with_deadline(QueryKind::Wmc, Duration::from_millis(100));
        match idle_route(&router, &q, &t) {
            Route::Approx { samples } => {
                assert_eq!(samples, RouterConfig::default().max_approx_samples);
            }
            other => panic!("expected capped approx, got {other:?}"),
        }
    }

    #[test]
    fn tight_deadlines_never_produce_a_zero_sample_budget() {
        // No predictor: the ladder cannot skip past the approx rung.
        let t = KbTelemetry { compiled: false, has_predictor: false, ..hot_telemetry() };
        // 100 ns deadline, 2 µs/sample: the fitted budget truncates to
        // 0 and the floor answers with the minimum worthwhile budget.
        let q = Query::with_deadline(QueryKind::Wmc, Duration::from_nanos(100));
        assert_eq!(idle_route(&QueryRouter::default(), &q, &t), Route::Approx { samples: 512 });
        // A degenerate zero *cap* cannot produce a zero-sample budget
        // (a silent non-answer) either: it clamps to one sample.
        let capped = QueryRouter::new(RouterConfig { max_approx_samples: 0 });
        let lax = Query::with_deadline(QueryKind::Wmc, Duration::from_millis(10));
        assert_eq!(idle_route(&capped, &lax, &t), Route::Approx { samples: 1 });
    }

    #[test]
    fn admission_rejects_only_when_backlog_consumes_the_deadline() {
        let router = QueryRouter::default();
        let t = hot_telemetry();
        let q = Query::with_deadline(QueryKind::Wmc, Duration::from_millis(10));
        // Idle shard: plain exact admission (5 ms budget vs 5 µs eval).
        assert_eq!(router.admit(&q, &t, 0.0), Admission::Admit(Route::Exact));
        // Backlogged shard: 4 ms of queue leaves a 1 ms budget — exact
        // still fits.
        assert_eq!(router.admit(&q, &t, 4e-3), Admission::Admit(Route::Exact));
        // A cold artifact no longer fits the backlog-trimmed budget:
        // the ladder degrades to bounds fitted to what is left
        // (5 ms − 3 ms backlog = 2 ms → 1 000 samples at 2 µs each).
        let cold = KbTelemetry { compiled: false, ..t };
        match router.admit(&q, &cold, 3e-3) {
            Admission::Admit(Route::Approx { samples }) => assert_eq!(samples, 1000),
            other => panic!("expected degraded admission, got {other:?}"),
        }
        // Backlog at/over the effective deadline: rejected up front.
        let verdict = router.admit(&q, &t, 6e-3);
        assert_eq!(verdict, Admission::Reject { backlog_s: 6e-3 });
        assert_eq!(verdict.route(), None);
        // Deadline-free queries are never rejected, whatever the queue.
        assert_eq!(
            router.admit(&Query::exact(QueryKind::Wmc), &t, 1e9),
            Admission::Admit(Route::Exact)
        );
    }

    #[test]
    fn admission_is_deterministic_and_matches_route_on_an_idle_shard() {
        let router = QueryRouter::default();
        let t = KbTelemetry { compiled: false, has_predictor: false, ..hot_telemetry() };
        for deadline_ns in [500, 40_000, 10_000_000, 80_000_000] {
            let q = Query::with_deadline(QueryKind::Wmc, Duration::from_nanos(deadline_ns));
            let admitted = router.admit(&q, &t, 0.0);
            assert_eq!(admitted, router.admit(&q, &t, 0.0), "admission must be replayable");
            assert_eq!(
                admitted.route(),
                Some(idle_route(&router, &q, &t)),
                "idle admission ≡ routing"
            );
        }
    }

    #[test]
    fn admit_explained_names_every_rung() {
        let router = QueryRouter::default();
        let t = hot_telemetry();
        let free = Query::exact(QueryKind::Wmc);
        assert_eq!(router.admit_explained(&free, &t, 0.0).1, "no_deadline");
        let q = Query::with_deadline(QueryKind::Wmc, Duration::from_millis(10));
        assert_eq!(router.admit_explained(&q, &t, 0.0).1, "exact_fit");
        assert_eq!(router.admit_explained(&q, &t, 1.0).1, "backlog_reject");
        let cold = KbTelemetry { compiled: false, ..t };
        assert_eq!(router.admit_explained(&q, &cold, 0.0).1, "deadline_approx");
        let m = Query::with_deadline(QueryKind::Mpe(Evidence::empty(4)), Duration::from_nanos(10));
        // Tiny deadline but no backlog: the non-degradable kind stays
        // exact and says so.
        assert_eq!(router.admit_explained(&m, &cold, 0.0).1, "not_degradable");
        let tight = Query::with_deadline(QueryKind::Wmc, Duration::from_nanos(500));
        assert_eq!(router.admit_explained(&tight, &t, 0.0).1, "deadline_predicted");
        let no_net = KbTelemetry { has_predictor: false, ..t };
        assert_eq!(router.admit_explained(&tight, &no_net, 0.0).1, "approx_floor");
        // The explained admission and the plain one always agree.
        for (query, tel, backlog) in
            [(&q, &t, 0.0), (&q, &cold, 0.0), (&tight, &no_net, 0.0), (&q, &t, 1.0)]
        {
            assert_eq!(
                router.admit(query, tel, backlog),
                router.admit_explained(query, tel, backlog).0
            );
        }
    }

    #[test]
    fn telemetry_snapshot_round_trips_the_state() {
        let t = hot_telemetry();
        let snap = t.snapshot();
        let get = |k: &str| snap.iter().find(|(n, _)| *n == k).unwrap().1;
        assert_eq!(get("compiled"), 1.0);
        assert_eq!(get("compile_s"), t.compile_s);
        assert_eq!(get("eval_s"), t.eval_s);
        assert_eq!(get("sample_s"), t.sample_s);
        assert_eq!(get("has_predictor"), 1.0);
    }

    #[test]
    fn telemetry_prior_grows_with_instance_size() {
        let small = KbTelemetry::prior(12, 36);
        let large = KbTelemetry::prior(60, 84);
        assert!(large.compile_s > small.compile_s * 100.0);
        assert!(large.sample_s > small.sample_s);
        assert!(!small.compiled && !small.has_predictor);
    }

    /// The parent commit's `admit_under_failure`, kept verbatim (knobs
    /// inlined at their constant values) as the oracle the masked
    /// ladder is pinned against.
    fn admit_under_failure_oracle(
        max_approx_samples: u64,
        query: &Query,
        t: &KbTelemetry,
        backlog_s: f64,
    ) -> Option<(Admission, &'static str)> {
        if !degradable(&query.kind) {
            return None;
        }
        let budget_s = match query.deadline {
            None => f64::INFINITY,
            Some(d) => d.as_secs_f64() * 0.5 - backlog_s.max(0.0),
        };
        if budget_s <= 0.0 {
            return Some((Admission::Reject { backlog_s }, "backlog_reject"));
        }
        let samples = if budget_s.is_finite() {
            ((budget_s / t.sample_s.max(1e-12)) as u64).max(1)
        } else {
            max_approx_samples.max(1)
        };
        if samples >= 512 {
            let samples = samples.min(max_approx_samples).max(1);
            return Some((Admission::Admit(Route::Approx { samples }), "fault_approx"));
        }
        if t.has_predictor {
            return Some((Admission::Admit(Route::Predicted), "fault_predicted"));
        }
        Some((Admission::Admit(Route::Approx { samples: 512 }), "fault_approx_floor"))
    }

    proptest! {
        #[test]
        fn masked_ladder_matches_the_parent_admit_under_failure(
            kind in 0usize..5,
            // Log-uniform nanoseconds, 1 ns .. ~1 s; 0 draws "no deadline".
            deadline_exp in 0u32..31,
            bits in (any::<bool>(), any::<bool>(), any::<bool>()),
            sample_s in 1e-9f64..1e-5,
            backlog_s in -1e-4f64..2e-3,
        ) {
            let ev = Evidence::empty(4);
            let kind = match kind {
                0 => QueryKind::Wmc,
                1 => QueryKind::Probability(ev),
                2 => QueryKind::Posterior(ev),
                3 => QueryKind::Marginal(ev, 1),
                _ => QueryKind::Mpe(ev),
            };
            let deadline = (deadline_exp > 0).then(|| Duration::from_nanos(1 << (deadline_exp - 1)));
            let query = Query { kind, deadline };
            let (compiled, has_predictor, wide_cap) = bits;
            let t = KbTelemetry { compiled, has_predictor, sample_s, ..hot_telemetry() };
            // The two caps in use: the default and the traffic sweeps'.
            let cap = if wide_cap { 1 << 16 } else { 2048 };
            let router = QueryRouter::new(RouterConfig { max_approx_samples: cap });
            prop_assert_eq!(
                router.admit_under_failure(&query, &t, backlog_s),
                admit_under_failure_oracle(cap, &query, &t, backlog_s)
            );
        }
    }
}
