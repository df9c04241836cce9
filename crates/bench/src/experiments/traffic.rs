//! Synthetic traffic harness for the sharded serving front-end
//! (`reason-eval traffic`).
//!
//! The experiment behind `reason_serve::cluster`: a seeded open-loop
//! workload — Poisson arrivals at a swept offered QPS, Zipf-skewed
//! tenant (knowledge-base) popularity, and Zipf-skewed query-shape
//! popularity within each tenant — is replayed against a
//! [`reason_serve::ServeCluster`] at several shard counts. Every cell of
//! the `offered QPS × shard count` grid reports the latency distribution
//! (p50/p99 under the cluster's deterministic virtual-time queue
//! model), the deadline-miss rate, the pre-dispatch degrade rate, and
//! the reject rate.
//!
//! Two guards run inside every cell:
//!
//! * **bit-identity** — each exact-admitted answer is compared
//!   bit-for-bit against a single-engine [`ServeEngine`] serving the
//!   identical workload deadline-free; sharding must be invisible to
//!   exact results.
//! * **bracket containment** — each degraded (anytime-bounds) answer's
//!   bracket is checked against the single-engine exact value; the
//!   per-cell contained/checked counts are reported.
//!
//! Determinism: admission, routing, and the virtual-time latency model
//! read only seeded inputs and the deterministic prior cost model —
//! never wall clocks — so `reason-eval traffic --seed S --json` is
//! byte-identical across runs. `reason-eval traffic --json >
//! BENCH_traffic.json` regenerates the committed baseline.

use std::fmt::Write as _;
use std::time::Duration;

use rand::prelude::*;
use reason_pc::{Evidence, WmcWeights};
use reason_sat::Cnf;
use reason_serve::{Answer, Query, QueryKind, RouterConfig, ServeConfig, ServeEngine};

use super::registry::{Args, Output};
use super::replay::{
    arrivals_at, fresh_cluster, instance_with_mass, score, sweep_predictor, sweep_weights,
};
use crate::json::Json;

/// Offered load sweep (queries per second of virtual time). The warm
/// exact rung costs ~2.4 µs under the prior model, so one shard
/// saturates near 4×10⁵ QPS: the ladder spans comfortable underload to
/// ~3× overload of the largest swept cluster.
const TRAFFIC_QPS: [f64; 4] = [5.0e4, 1.5e5, 4.5e5, 1.35e6];

/// Shard-count sweep.
const TRAFFIC_SHARDS: [usize; 3] = [1, 2, 4];

/// Queries per grid cell in the committed baseline.
const TRAFFIC_QUERIES: usize = 400;

/// Distinct query shapes per knowledge base (the Zipf popularity
/// domain).
const SHAPES_PER_KB: usize = 32;

/// One cell of the `offered QPS × shard count` grid.
#[derive(Debug, Clone)]
struct TrafficCell {
    /// Offered queries per second of virtual time.
    pub offered_qps: f64,
    /// Shards in the cluster.
    pub shards: usize,
    /// Queries replayed.
    pub queries: usize,
    /// Admitted on the exact rung.
    pub exact: u64,
    /// Degraded to anytime bounds before dispatch.
    pub approx: u64,
    /// Degraded to the prediction network before dispatch.
    pub predicted: u64,
    /// Rejected before dispatch.
    pub rejected: u64,
    /// Queries whose modeled latency missed their deadline (rejects
    /// included).
    pub deadline_misses: u64,
    /// Median modeled arrival-to-completion seconds (admitted queries).
    pub p50_s: f64,
    /// 99th-percentile modeled latency (admitted queries).
    pub p99_s: f64,
    /// `deadline_misses / queries`.
    pub miss_rate: f64,
    /// `(approx + predicted) / queries`.
    pub degrade_rate: f64,
    /// `rejected / queries`.
    pub reject_rate: f64,
    /// Every exact-admitted answer matched the single-engine reference
    /// bit-for-bit.
    pub exact_bit_identical: bool,
    /// Degraded brackets compared against the reference exact value.
    pub bounds_checked: usize,
    /// How many of those brackets contained it.
    pub bounds_contained: usize,
}

/// The whole grid.
#[derive(Debug, Clone)]
struct TrafficSummary {
    /// One row per `(offered QPS, shard count)` pair.
    pub cells: Vec<TrafficCell>,
    /// Queries per cell.
    pub queries_per_cell: usize,
    /// Registered knowledge bases (tenants).
    pub kbs: usize,
}

/// One registered tenant: a mass-probed random 3-SAT knowledge base
/// plus its fixed menu of query shapes.
pub(crate) struct TrafficKb {
    pub(crate) name: String,
    pub(crate) cnf: Cnf,
    pub(crate) weights: WmcWeights,
    pub(crate) shapes: Vec<QueryKind>,
}

/// A precomputed Zipf(s) sampler over `0..n` via inverse-CDF lookup.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    fn sample(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// The tenant set: six knowledge bases spanning n = 10..14, each
/// seed-walked until it carries non-trivial mass (rare-event tenants
/// would starve the bracket-containment guard of signal).
pub(crate) fn traffic_kbs(seed: u64) -> Vec<TrafficKb> {
    let sizes = [(10usize, 30usize), (11, 33), (12, 36), (13, 39), (14, 42), (12, 38)];
    sizes
        .iter()
        .enumerate()
        .map(|(i, &(n, m))| {
            let weights = sweep_weights(n);
            let first_seed = seed.wrapping_add(1000 * i as u64);
            let (cnf, _) = instance_with_mass((n, m), &weights, first_seed, 1e-3);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x7AFF1C ^ (i as u64) << 8);
            let shapes = (0..SHAPES_PER_KB)
                .map(|j| match j % 8 {
                    0 => QueryKind::Wmc,
                    7 => QueryKind::Marginal(Evidence::empty(n), rng.gen_range(0..n)),
                    6 => {
                        let mut ev = Evidence::empty(n);
                        ev.set(rng.gen_range(0..n), usize::from(rng.gen_bool(0.5)));
                        QueryKind::Posterior(ev)
                    }
                    _ => {
                        let mut ev = Evidence::empty(n);
                        for _ in 0..1 + j % 2 {
                            ev.set(rng.gen_range(0..n), usize::from(rng.gen_bool(0.5)));
                        }
                        QueryKind::Probability(ev)
                    }
                })
                .collect();
            TrafficKb { name: format!("tenant-{i}"), cnf, weights, shapes }
        })
        .collect()
}

/// One generated arrival: `(kb index, shape index, deadline, arrival
/// seconds)`.
pub(crate) type Arrival = (usize, usize, Option<Duration>, f64);

/// An open-loop Poisson workload at `qps`: exponential inter-arrivals,
/// Zipf(1.2) tenant skew, Zipf(1.1) shape popularity, and a deadline
/// mix of 30% deadline-free / 30% at 1 ms / 20% at 50 µs / 20% at 5 µs
/// (the last tier sits right at the warm exact rung's modeled cost, so
/// it exercises the degrade ladder even on an idle shard).
pub(crate) fn traffic_workload(
    kbs: &[TrafficKb],
    count: usize,
    qps: f64,
    seed: u64,
) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0FFE12ED);
    let tenant_zipf = Zipf::new(kbs.len(), 1.2);
    let shape_zipf = Zipf::new(SHAPES_PER_KB, 1.1);
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            t += -(1.0 - rng.gen::<f64>()).ln() / qps;
            let kb = tenant_zipf.sample(rng.gen::<f64>());
            let shape = shape_zipf.sample(rng.gen::<f64>());
            let u = rng.gen::<f64>();
            let deadline = if u < 0.3 {
                None
            } else if u < 0.6 {
                Some(Duration::from_millis(1))
            } else if u < 0.8 {
                Some(Duration::from_micros(50))
            } else {
                Some(Duration::from_micros(5))
            };
            (kb, shape, deadline, t)
        })
        .collect()
}

/// The per-shard engine configuration: the approximate rung's sample
/// cap is trimmed to bound real execution time, and the predictor is
/// on so the degrade ladder's last rung is reachable.
pub(crate) fn traffic_engine_config(seed: u64) -> ServeConfig {
    ServeConfig {
        router: RouterConfig { max_approx_samples: 2048 },
        predictor: Some(sweep_predictor()),
        approx_seed: seed,
        ..ServeConfig::default()
    }
}

/// `sorted` must be ascending; nearest-rank percentile.
pub(crate) fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Single-engine reference answers for the workload, deadline-free: the
/// bit-identity baseline every cell compares against. Shared with the
/// chaos sweep, which scores fault-tolerant replays of the same
/// workloads against the same oracle.
pub(crate) fn reference_answers(kbs: &[TrafficKb], workload: &[Arrival], seed: u64) -> Vec<Answer> {
    let mut engine = ServeEngine::new(traffic_engine_config(seed));
    let ids: Vec<_> =
        kbs.iter().map(|kb| engine.register(&kb.name, &kb.cnf, kb.weights.clone())).collect();
    let mut answers: Vec<Option<Answer>> = vec![None; workload.len()];
    for (kb_idx, &id) in ids.iter().enumerate() {
        let indices: Vec<usize> =
            (0..workload.len()).filter(|&i| workload[i].0 == kb_idx).collect();
        if indices.is_empty() {
            continue;
        }
        let queries: Vec<Query> = indices
            .iter()
            .map(|&i| Query::exact(kbs[kb_idx].shapes[workload[i].1].clone()))
            .collect();
        let report = engine.serve(id, &queries).expect("mass-probed tenants");
        for (&i, outcome) in indices.iter().zip(report.outcomes) {
            answers[i] = Some(outcome.answer);
        }
    }
    answers.into_iter().map(|a| a.expect("every arrival answered")).collect()
}

/// Runs one grid cell: replays the workload through a fresh cluster and
/// scores it against the precomputed single-engine reference.
fn run_cell(
    kbs: &[TrafficKb],
    workload: &[Arrival],
    reference: &[Answer],
    qps: f64,
    shards: usize,
    seed: u64,
) -> TrafficCell {
    let (mut cluster, ids) = fresh_cluster(kbs, shards, seed, None);
    let arrivals = arrivals_at(kbs, &ids, workload, 0.0);
    let report = cluster.serve_at(&arrivals).expect("mass-probed tenants");
    let scored = score(&report, reference);

    let stats = report.stats;
    let total = workload.len() as f64;
    TrafficCell {
        offered_qps: qps,
        shards,
        queries: workload.len(),
        exact: stats.exact,
        approx: stats.approx,
        predicted: stats.predicted,
        rejected: stats.rejected,
        deadline_misses: stats.deadline_misses,
        p50_s: percentile(&scored.latencies, 0.50),
        p99_s: percentile(&scored.latencies, 0.99),
        miss_rate: stats.deadline_misses as f64 / total,
        degrade_rate: (stats.approx + stats.predicted) as f64 / total,
        reject_rate: stats.rejected as f64 / total,
        // No plan is installed: a degraded or lost admit is a divergence.
        exact_bit_identical: scored.exact_bit_identical
            && scored.lost == 0
            && scored.degraded_by_fault == 0,
        bounds_checked: scored.bounds_checked,
        bounds_contained: scored.bounds_contained,
    }
}

/// Runs the grid over explicit sweeps. Each offered-QPS level generates
/// one workload, replayed unchanged at every shard count (and by the
/// single-engine reference), so cells in a row differ only in cluster
/// shape.
fn traffic_cells_for(
    qps_levels: &[f64],
    shard_counts: &[usize],
    queries_per_cell: usize,
    seed: u64,
) -> TrafficSummary {
    let kbs = traffic_kbs(seed);
    let mut cells = Vec::with_capacity(qps_levels.len() * shard_counts.len());
    for (qi, &qps) in qps_levels.iter().enumerate() {
        let workload =
            traffic_workload(&kbs, queries_per_cell, qps, seed ^ ((qi as u64 + 1) << 32));
        let reference = reference_answers(&kbs, &workload, seed);
        for &shards in shard_counts {
            cells.push(run_cell(&kbs, &workload, &reference, qps, shards, seed));
        }
    }
    TrafficSummary { cells, queries_per_cell, kbs: kbs.len() }
}

/// Runs the full committed grid ([`TRAFFIC_QPS`] × [`TRAFFIC_SHARDS`])
/// and enforces the harness guards: exact answers bit-identical to the
/// single-engine reference in every cell, and the sweep actually
/// reaching both degradation and saturation.
fn traffic_summary(seed: u64) -> TrafficSummary {
    let summary = traffic_cells_for(&TRAFFIC_QPS, &TRAFFIC_SHARDS, TRAFFIC_QUERIES, seed);
    for cell in &summary.cells {
        assert!(
            cell.exact_bit_identical,
            "sharded exact answers diverged from the single-engine reference at \
             qps={} shards={}",
            cell.offered_qps, cell.shards
        );
    }
    let degraded: u64 = summary.cells.iter().map(|c| c.approx + c.predicted).sum();
    let rejected: u64 = summary.cells.iter().map(|c| c.rejected).sum();
    assert!(degraded > 0, "the sweep never exercised the degrade ladder");
    assert!(rejected > 0, "the sweep never saturated a shard into rejects");
    summary
}

fn cells_to_text(summary: &TrafficSummary) -> String {
    let mut out = String::from(
        "=== reason-serve cluster: sharded admission under open-loop Poisson/Zipf traffic ===\n",
    );
    let _ = writeln!(
        out,
        "{:>10} {:>7} {:>9} {:>9} {:>7} {:>8} {:>7} {:>7} {:>7} {:>6}",
        "QPS", "shards", "p50 us", "p99 us", "miss%", "degrade%", "rej%", "exact", "bounds", "bit"
    );
    for c in &summary.cells {
        let _ = writeln!(
            out,
            "{:>10.0} {:>7} {:>9.2} {:>9.2} {:>6.1}% {:>7.1}% {:>6.1}% {:>7} {:>3}/{:>3} {:>5}",
            c.offered_qps,
            c.shards,
            1e6 * c.p50_s,
            1e6 * c.p99_s,
            100.0 * c.miss_rate,
            100.0 * c.degrade_rate,
            100.0 * c.reject_rate,
            c.exact,
            c.bounds_contained,
            c.bounds_checked,
            if c.exact_bit_identical { "yes" } else { "NO" },
        );
    }
    let _ = writeln!(
        out,
        "({} queries/cell over {} Zipf-skewed tenants; p50/p99 are modeled virtual-time \
         latencies of admitted queries; misses count rejects; `bit` = exact answers \
         bit-identical to a single-engine deadline-free replay)",
        summary.queries_per_cell, summary.kbs,
    );
    out
}

fn cells_to_json(summary: &TrafficSummary, seed: u64) -> Json {
    Json::Obj(vec![
        ("experiment".into(), Json::Str("traffic".into())),
        ("seed".into(), Json::Num(seed as f64)),
        ("queries_per_cell".into(), Json::Num(summary.queries_per_cell as f64)),
        ("tenants".into(), Json::Num(summary.kbs as f64)),
        (
            "cells".into(),
            Json::Arr(
                summary
                    .cells
                    .iter()
                    .map(|c| {
                        Json::Obj(vec![
                            ("offered_qps".into(), Json::Num(c.offered_qps)),
                            ("shards".into(), Json::Num(c.shards as f64)),
                            ("queries".into(), Json::Num(c.queries as f64)),
                            ("admitted_exact".into(), Json::Num(c.exact as f64)),
                            ("admitted_approx".into(), Json::Num(c.approx as f64)),
                            ("admitted_predicted".into(), Json::Num(c.predicted as f64)),
                            ("rejected".into(), Json::Num(c.rejected as f64)),
                            ("deadline_misses".into(), Json::Num(c.deadline_misses as f64)),
                            ("p50_latency_s".into(), Json::Num(c.p50_s)),
                            ("p99_latency_s".into(), Json::Num(c.p99_s)),
                            ("deadline_miss_rate".into(), Json::Num(c.miss_rate)),
                            ("degrade_rate".into(), Json::Num(c.degrade_rate)),
                            ("reject_rate".into(), Json::Num(c.reject_rate)),
                            ("exact_bit_identical".into(), Json::Bool(c.exact_bit_identical)),
                            ("bounds_checked".into(), Json::Num(c.bounds_checked as f64)),
                            ("bounds_contained".into(), Json::Num(c.bounds_contained as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The registry row: one run of the committed grid, both views
/// (byte-identical across runs with the same seed).
pub(crate) fn run(args: &Args) -> Output {
    let summary = traffic_summary(args.seed);
    Output::sweep(cells_to_text(&summary), cells_to_json(&summary, args.seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn tiny_summary() -> TrafficSummary {
        // One saturating QPS level at two shard counts, few queries:
        // cheap enough for debug-profile tests.
        traffic_cells_for(&[4.5e5], &[1, 2], 80, 11)
    }

    #[test]
    fn cells_are_sound_and_account_for_every_query() {
        let summary = tiny_summary();
        assert_eq!(summary.cells.len(), 2);
        for c in &summary.cells {
            assert_eq!(
                c.exact + c.approx + c.predicted + c.rejected,
                c.queries as u64,
                "every query admitted or rejected: {c:?}"
            );
            assert!(c.exact_bit_identical, "sharding changed an exact answer: {c:?}");
            assert!(c.p99_s >= c.p50_s);
            assert!(c.miss_rate <= 1.0 && c.degrade_rate <= 1.0 && c.reject_rate <= 1.0);
            assert!(c.bounds_contained <= c.bounds_checked);
        }
    }

    #[test]
    fn more_shards_never_reject_more() {
        let summary = tiny_summary();
        // Same workload, more shards: the queue spreads, so saturation
        // pressure (rejects) must not increase.
        assert!(summary.cells[1].rejected <= summary.cells[0].rejected);
    }

    #[test]
    fn traffic_json_is_byte_identical_across_runs() {
        // The determinism contract behind the committed baseline: two
        // full pipeline runs (fresh clusters, fresh engines, real
        // dispatch) render identical JSON for the same seed.
        let a = cells_to_json(&tiny_summary(), 11).render();
        let b = cells_to_json(&tiny_summary(), 11).render();
        assert_eq!(a, b);
        let parsed = json::parse(&a).expect("traffic JSON must parse");
        assert_eq!(parsed.get("experiment").unwrap().as_str(), Some("traffic"));
        let cells = parsed.get("cells").unwrap().as_arr().unwrap();
        assert_eq!(cells.len(), 2);
        for cell in cells {
            assert_eq!(cell.get("exact_bit_identical").unwrap().as_bool(), Some(true));
            assert!(cell.get("p99_latency_s").unwrap().as_f64().is_some());
            assert!(cell.get("deadline_miss_rate").unwrap().as_f64().is_some());
        }
    }

    #[test]
    fn text_report_renders_every_cell() {
        let summary = tiny_summary();
        let text = cells_to_text(&summary);
        assert!(text.contains("sharded admission"));
        for c in &summary.cells {
            assert!(text.contains(&format!("{:>10.0} {:>7}", c.offered_qps, c.shards)));
        }
    }
}
