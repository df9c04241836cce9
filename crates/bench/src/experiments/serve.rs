//! Knowledge-base serving sweep (`reason-eval serve`).
//!
//! The experiment behind `reason-serve`: across a ladder of random
//! 3-SAT knowledge bases it serves a *repeated-query* workload from the
//! persistent compiled-circuit store and exercises the router ladder
//! (what the store saves in time is `benchmark/`'s `hot_point`
//! `call_p50_us` against `cold_ladder`'s):
//!
//! 1. a **deadline round** against the still-cold KB (the router
//!    charges the predicted compile cost, degrades to anytime bounds,
//!    and the sweep later checks the bounds contain the exact answer);
//! 2. a **cold round** (one exact query pays the compilation);
//! 3. a **warm round** of mixed exact queries (WMC / posterior /
//!    marginal / MPE) served from the store, each cross-checked against
//!    a freshly built [`reason_pc::CompiledWmc`] oracle — the guard CI
//!    smokes on the small rungs;
//! 4. a **predicted round** under nanosecond deadlines (one forward
//!    pass of the KB's trained prediction network);
//! 5. an **incremental round**: one clause added, the recompile reuses
//!    untouched components through the persistent component cache.
//!
//! Every column is a count or a verdict, so the report is
//! byte-identical per seed. `reason-eval serve --json >
//! BENCH_serve.json` regenerates the committed baseline.

use std::fmt::Write as _;
use std::time::Duration;

use rand::prelude::*;
use reason_pc::{CompiledWmc, Evidence};
use reason_serve::{
    Answer, CacheStats, Query, QueryKind, Route, ServeConfig, ServeEngine, ServeReport,
};

use super::registry::{Args, Output};
use super::replay::{instance_with_mass, sweep_predictor, sweep_weights};
use crate::json::Json;

/// The serving ladder `(num_vars, num_clauses)` — the compile sweep's
/// comparison rungs plus the n = 40 rung where cold compilation costs
/// tens of milliseconds and the store's amortization is most visible.
pub const SERVE_SIZES: [(usize, usize); 5] = [(12, 36), (16, 40), (20, 44), (28, 52), (40, 64)];

/// One knowledge base's counts and verdicts.
#[derive(Debug, Clone)]
struct ServeRow {
    /// Variable count.
    pub num_vars: usize,
    /// Clause count at registration.
    pub num_clauses: usize,
    /// Seed the instance was generated from.
    pub seed: u64,
    /// Warm queries served.
    pub warm_queries: usize,
    /// Deadline-round fallbacks taken against this KB (cold bounds).
    pub fallbacks: usize,
    /// The cold-round anytime brackets contained the exact answer.
    pub fallback_contains: bool,
    /// Predicted-round queries answered by the prediction network.
    pub predicted: usize,
    /// Exact warm answers matched a fresh `CompiledWmc` bit-for-bit.
    pub exact_ok: bool,
    /// Components reused from the persistent cache by the recompile
    /// after one clause was added.
    pub persistent_hits: u64,
    /// Incremental answers matched a fresh oracle (1e-9 relative).
    pub incremental_ok: bool,
}

/// Routes the sweep's served queries took, tallied off their outcomes.
#[derive(Debug, Clone, Copy, Default)]
struct RouteTally {
    exact: u64,
    approx: u64,
    predicted: u64,
}

impl RouteTally {
    fn add(&mut self, report: &ServeReport) {
        for outcome in &report.outcomes {
            match outcome.route {
                Route::Exact => self.exact += 1,
                Route::Approx { .. } => self.approx += 1,
                Route::Predicted => self.predicted += 1,
            }
        }
    }

    /// Queries pushed off the exact rung: every degraded route here is
    /// a deadline fallback.
    fn deadline_fallbacks(&self) -> u64 {
        self.approx + self.predicted
    }
}

/// Sweep output: per-KB rows plus engine-level counters.
#[derive(Debug, Clone)]
struct ServeSummary {
    /// Per-knowledge-base rows.
    pub rows: Vec<ServeRow>,
    /// Routes taken across the whole sweep, cold engines included.
    pub router: RouteTally,
    /// Store counters across the whole sweep.
    pub store: CacheStats,
}

/// Runs the sweep over an explicit ladder. Each rung walks seeds until
/// the instance carries mass (massless KBs are rejected at compile).
fn serve_rows_for(sizes: &[(usize, usize)], seed: u64) -> ServeSummary {
    let mut engine = ServeEngine::new(ServeConfig {
        predictor: Some(sweep_predictor()),
        approx_seed: seed,
        ..ServeConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E17E);
    let mut rows = Vec::with_capacity(sizes.len());
    let mut router = RouteTally::default();
    for &(n, m) in sizes {
        let weights = sweep_weights(n);
        // Probed *before* registration, so massless draws never leak
        // dead KB entries into the sweep engine.
        let (cnf, instance_seed) = instance_with_mass((n, m), &weights, seed, 0.0);
        let id = engine.register(format!("kb-{n}"), &cnf, weights.clone());
        engine.warm(id).expect("probed mass above");

        // Deadline round against a *cold* copy of the KB: the router
        // must charge the predicted compile and degrade to bounds.
        let mut cold = ServeEngine::new(ServeConfig {
            predictor: None,
            approx_seed: seed,
            ..ServeConfig::default()
        });
        let cold_id = cold.register(format!("kb-{n}-cold"), &cnf, weights.clone());
        let deadline_queries: Vec<Query> = (0..3)
            .map(|_| Query::with_deadline(QueryKind::Wmc, Duration::from_micros(50)))
            .collect();
        let cold_report = cold.serve(cold_id, &deadline_queries).expect("approx never compiles");
        let fallbacks =
            cold_report.outcomes.iter().filter(|o| !matches!(o.route, Route::Exact)).count();
        router.add(&cold_report);

        // Cold round: the first exact query (artifact already compiled
        // by `warm` above).
        router.add(&engine.serve(id, &[Query::exact(QueryKind::Wmc)]).expect("compiled"));

        // Warm round: mixed exact queries answered from the hot store.
        // The reference oracle compiles the KB's *canonical* formula
        // (literals sorted within clauses) — the exact presentation the
        // engine serves — so agreement is checked bit-for-bit.
        let mut oracle = CompiledWmc::new(&engine.kb(id).cnf(), &weights);
        let z = oracle.wmc();
        let fallback_contains = cold_report.outcomes.iter().all(|o| match &o.answer {
            Answer::Bounds { lower, upper, .. } => *lower <= z && z <= *upper,
            _ => true,
        });
        let warm_queries: Vec<Query> = (0..24)
            .map(|i| match i % 4 {
                0 => Query::exact(QueryKind::Wmc),
                1 => {
                    let mut ev = Evidence::empty(n);
                    for _ in 0..3 {
                        ev.set(rng.gen_range(0..n), usize::from(rng.gen_bool(0.5)));
                    }
                    Query::exact(QueryKind::Posterior(ev))
                }
                2 => Query::exact(QueryKind::Marginal(Evidence::empty(n), rng.gen_range(0..n))),
                _ => {
                    let mut ev = Evidence::empty(n);
                    ev.set(rng.gen_range(0..n), 1);
                    Query::exact(QueryKind::Mpe(ev))
                }
            })
            .collect();
        let warm = engine.serve(id, &warm_queries).expect("compiled");
        router.add(&warm);
        // The serve guard: every exact answer agrees with a freshly
        // compiled oracle, bit-for-bit.
        let mut exact_ok = true;
        for (query, outcome) in warm_queries.iter().zip(&warm.outcomes) {
            match (&query.kind, &outcome.answer) {
                (QueryKind::Wmc, Answer::Exact(got)) => exact_ok &= *got == z,
                (QueryKind::Posterior(ev), Answer::Exact(got)) => {
                    exact_ok &= *got == oracle.posterior(ev).expect("mass")
                }
                (QueryKind::Marginal(ev, var), Answer::Distribution(d)) => {
                    exact_ok &= *d == oracle.circuit().expect("mass").marginal(ev, *var)
                }
                (QueryKind::Mpe(ev), Answer::Assignment { assignment, log_prob }) => {
                    // Under zero-probability evidence the traced
                    // assignment is arbitrary (log_prob = -inf), so the
                    // guard is bit-agreement with the oracle's MPE.
                    let want = oracle.circuit().expect("mass").mpe(ev);
                    exact_ok &= *assignment == want.assignment && *log_prob == want.log_prob;
                }
                _ => exact_ok = false,
            }
        }
        assert!(exact_ok, "n={n}: serve answers diverged from CompiledWmc");

        // Predicted round: deadlines no exact or sampled path can meet.
        let tiny: Vec<Query> = (0..3)
            .map(|_| Query::with_deadline(QueryKind::Wmc, Duration::from_nanos(20)))
            .collect();
        let predicted_report = engine.serve(id, &tiny).expect("compiled");
        router.add(&predicted_report);
        let predicted = predicted_report
            .outcomes
            .iter()
            .filter(|o| matches!(o.route, Route::Predicted))
            .count();

        // Incremental round: add one clause, recompile reuses untouched
        // components, answers stay exact (1e-9 relative vs a fresh
        // oracle — the spliced circuit may differ in the last ulp).
        let lits: Vec<i32> = (0..3)
            .map(|_| {
                let v = rng.gen_range(0..n) as i32 + 1;
                if rng.gen_bool(0.5) {
                    v
                } else {
                    -v
                }
            })
            .collect();
        engine.add_clause(id, &lits);
        let inc = engine.serve(id, &[Query::exact(QueryKind::Wmc)]).expect("still has mass");
        router.add(&inc);
        let persistent_hits = engine.last_compile_stats(id).persistent_hits;
        let fresh = CompiledWmc::new(&engine.kb(id).cnf(), &weights);
        let incremental_ok = match &inc.outcomes[0].answer {
            Answer::Exact(got) => (got - fresh.wmc()).abs() <= 1e-9 * fresh.wmc().max(1e-30),
            _ => false,
        };
        assert!(incremental_ok, "n={n}: incremental recompile diverged");

        rows.push(ServeRow {
            num_vars: n,
            num_clauses: m,
            seed: instance_seed,
            warm_queries: warm.outcomes.len(),
            fallbacks,
            fallback_contains,
            predicted,
            exact_ok,
            persistent_hits,
            incremental_ok,
        });
    }
    ServeSummary { rows, router, store: engine.store_stats() }
}

fn rows_to_text(summary: &ServeSummary) -> String {
    let mut out = String::from(
        "=== reason-serve: persistent circuit store + adaptive routing (seeded random 3-SAT) ===\n",
    );
    let _ = writeln!(
        out,
        "{:>6} {:>8} {:>6} {:>6} {:>5} {:>10} {:>8}",
        "vars", "clauses", "warm", "reuse", "fall", "predicted", "exact"
    );
    for r in &summary.rows {
        let _ = writeln!(
            out,
            "{:>6} {:>8} {:>6} {:>6} {:>5} {:>10} {:>8}",
            r.num_vars,
            r.num_clauses,
            r.warm_queries,
            r.persistent_hits,
            r.fallbacks,
            r.predicted,
            if r.exact_ok && r.incremental_ok { "yes" } else { "NO" },
        );
    }
    let _ = writeln!(
        out,
        "router: {} exact / {} approx / {} predicted ({} deadline fallbacks); store: {} \
         insertions, {} hits, {} misses, {} KiB",
        summary.router.exact,
        summary.router.approx,
        summary.router.predicted,
        summary.router.deadline_fallbacks(),
        summary.store.insertions,
        summary.store.hits,
        summary.store.misses,
        summary.store.bytes / 1024,
    );
    let _ = writeln!(
        out,
        "(second-and-later queries are served from the store's d-DNNF arena, one batched \
         traversal per kernel; reuse = components the one-clause recompile took from the \
         persistent cache; deadline rounds degrade cold KBs to anytime bounds and ns deadlines to \
         the prediction net; warm-vs-cold time is benchmark/'s hot_point vs cold_ladder \
         call_p50_us)"
    );
    out
}

fn rows_to_json(summary: &ServeSummary, seed: u64) -> Json {
    Json::Obj(vec![
        ("experiment".into(), Json::Str("serve".into())),
        ("seed".into(), Json::Num(seed as f64)),
        (
            "rows".into(),
            Json::Arr(
                summary
                    .rows
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("num_vars".into(), Json::Num(r.num_vars as f64)),
                            ("num_clauses".into(), Json::Num(r.num_clauses as f64)),
                            ("instance_seed".into(), Json::Num(r.seed as f64)),
                            ("warm_queries".into(), Json::Num(r.warm_queries as f64)),
                            ("deadline_fallbacks".into(), Json::Num(r.fallbacks as f64)),
                            ("fallback_contains_exact".into(), Json::Bool(r.fallback_contains)),
                            ("predicted_routed".into(), Json::Num(r.predicted as f64)),
                            ("exact_matches_compiled_wmc".into(), Json::Bool(r.exact_ok)),
                            ("persistent_hits".into(), Json::Num(r.persistent_hits as f64)),
                            ("incremental_ok".into(), Json::Bool(r.incremental_ok)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "router".into(),
            Json::Obj(vec![
                ("exact".into(), Json::Num(summary.router.exact as f64)),
                ("approx".into(), Json::Num(summary.router.approx as f64)),
                ("predicted".into(), Json::Num(summary.router.predicted as f64)),
                (
                    "deadline_fallbacks".into(),
                    Json::Num(summary.router.deadline_fallbacks() as f64),
                ),
            ]),
        ),
        (
            "store".into(),
            Json::Obj(vec![
                ("hits".into(), Json::Num(summary.store.hits as f64)),
                ("misses".into(), Json::Num(summary.store.misses as f64)),
                ("insertions".into(), Json::Num(summary.store.insertions as f64)),
                ("evictions".into(), Json::Num(summary.store.evictions as f64)),
                ("entries".into(), Json::Num(summary.store.entries as f64)),
                ("bytes".into(), Json::Num(summary.store.bytes as f64)),
                ("hit_rate".into(), Json::Num(summary.store.hit_rate())),
            ]),
        ),
    ])
}

/// The registry row: one sweep over [`SERVE_SIZES`], both views.
pub(crate) fn run(args: &Args) -> Output {
    let summary = serve_rows_for(&SERVE_SIZES, args.seed);
    Output::sweep(rows_to_text(&summary), rows_to_json(&summary, args.seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn small_summary() -> ServeSummary {
        // Only the cheap rungs, to keep debug-profile tests quick.
        serve_rows_for(&SERVE_SIZES[..2], 7)
    }

    #[test]
    fn sweep_rows_are_exact_and_exercise_the_ladder() {
        let summary = small_summary();
        assert_eq!(summary.rows.len(), 2);
        for r in &summary.rows {
            assert!(r.exact_ok && r.incremental_ok);
            assert!(r.fallbacks > 0, "cold deadline round must degrade");
            assert!(r.fallback_contains, "cold bounds must contain exact");
            assert!(r.predicted > 0, "ns deadlines must reach the prediction net");
            assert!(r.persistent_hits > 0, "incremental recompile must reuse components");
        }
        assert!(summary.router.approx > 0 && summary.router.predicted > 0);
        assert!(summary.store.insertions >= 2);
    }

    #[test]
    fn text_report_renders_every_row() {
        let summary = small_summary();
        let text = rows_to_text(&summary);
        assert!(text.contains("persistent circuit store"));
        assert!(text.contains("deadline fallbacks"));
        for r in &summary.rows {
            assert!(text.contains(&format!("{:>6} {:>8}", r.num_vars, r.num_clauses)));
        }
    }

    #[test]
    fn json_output_parses_and_carries_the_sweep() {
        let text = rows_to_json(&small_summary(), 7).render();
        let parsed = json::parse(&text).expect("sweep JSON must parse");
        assert_eq!(parsed.get("experiment").unwrap().as_str(), Some("serve"));
        let rows = parsed.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        for row in rows {
            assert_eq!(row.get("warm_queries").unwrap().as_f64(), Some(24.0));
            assert_eq!(row.get("exact_matches_compiled_wmc").unwrap().as_bool(), Some(true));
            assert_eq!(row.get("incremental_ok").unwrap().as_bool(), Some(true));
        }
        assert!(parsed.get("router").unwrap().get("deadline_fallbacks").is_some());
        assert!(parsed.get("store").unwrap().get("hit_rate").is_some());
    }

    #[test]
    fn serve_json_is_byte_identical_across_runs() {
        // Two full sweeps (fresh engines, real compiles and serves)
        // render identical JSON for the same seed: no column reads a
        // measured latency.
        let a = rows_to_json(&small_summary(), 7).render();
        let b = rows_to_json(&small_summary(), 7).render();
        assert_eq!(a, b);
    }
}
