//! Deterministic trace replay of the serving stack (`reason-eval
//! trace`) — the observability sweep behind `BENCH_obs.json`.
//!
//! The experiment replays a seeded open-loop traffic workload (the same
//! Poisson/Zipf generator as `reason-eval traffic`) against a
//! [`reason_serve::ServeCluster`] with a [`Telemetry`] sink attached on
//! a [`reason_telemetry::VirtualClock`]. Everything observable is then
//! cross-checked and exported:
//!
//! * **per-stage latency attribution** — every query's modeled latency
//!   is decomposed by [`StageBreakdown`] into queue / compile / exec
//!   seconds. Per outcome the partition is *bit-exact* (the cluster
//!   defines the modeled latency as the stage sum); per cell the two
//!   summation orders may differ only by float reassociation (≤1e-12
//!   relative).
//! * **metric snapshot** — the deterministic subset of the registry
//!   (`METRIC_ALLOWLIST`): admission/route/store/compile-event
//!   counters and modeled histograms. Wall-clock histograms
//!   (`*_seconds` measured on real clocks) and scheduling-dependent
//!   lane counters are deliberately excluded — they vary run to run and
//!   would break the byte-determinism contract of the committed
//!   artifact.
//! * **cost-model snapshots** — each tenant's deterministic
//!   [`reason_serve::KbTelemetry`] state via
//!   [`reason_serve::KbTelemetry::snapshot`].
//! * **span chains** — the Chrome `trace_event` export
//!   ([`chrome_trace_json`], loadable in Perfetto) must contain, for at
//!   least one warm and one cold query, the full
//!   `admit → route → store probe → (compile →) eval` chain with shard
//!   and tenant labels; spans are stamped with virtual timestamps, so
//!   the trace replays byte-identically per seed.
//!
//! `reason-eval trace --json > BENCH_obs.json` regenerates the
//! committed artifact; `--trace-out FILE` writes the Perfetto trace of
//! the final (most loaded) cell, from the same run. CI runs the
//! subcommand twice, `cmp`s both outputs, and `cmp`s the trace against
//! the committed `BENCH_obs_trace.json`.

use std::fmt::Write as _;
use std::sync::Arc;

use reason_serve::{Admission, KbTelemetry, StageBreakdown};
use reason_telemetry::{
    chrome_trace_json, is_well_formed_forest, MetricSnapshot, MetricValue, SpanRecord, Telemetry,
};

use super::registry::{Args, Output};
use super::replay::{arrivals_at, observed_cluster};
use super::traffic::{traffic_kbs, traffic_workload, Arrival, TrafficKb};
use crate::json::Json;

/// Offered-load sweep: comfortable underload and ~shard saturation
/// (same units as `TRAFFIC_QPS` — queries per second of virtual time).
const TRACE_QPS: [f64; 2] = [5.0e4, 4.5e5];

/// Shard-count sweep.
const TRACE_SHARDS: [usize; 2] = [1, 2];

/// Queries per grid cell in the committed baseline.
const TRACE_QUERIES: usize = 200;

/// The metrics the committed artifact snapshots: every one is a pure
/// function of the seeded workload and the deterministic cost model.
/// Excluded on purpose: `*_seconds` histograms measured on wall clocks
/// (`serve_latency_seconds`, `executor_stage_seconds`,
/// `pc_compile_phase_seconds`), the measured `pipeline_*` gauges, and
/// `executor_lane_tasks_total` (which worker drains a task is thread
/// scheduling, not semantics).
const METRIC_ALLOWLIST: [&str; 15] = [
    "cluster_admissions_total",
    "cluster_deadline_miss_total",
    "cluster_rejects_total",
    "executor_edf_reorder_depth",
    "executor_tasks_total",
    "pc_cache_probes_total",
    "pc_compile_total",
    "pc_components_total",
    "pc_decisions_total",
    "pc_persistent_probes_total",
    "pc_propagations_total",
    "serve_compiles_total",
    "serve_queries_total",
    "store_entries",
    "store_insertions_total",
];

/// One exported cost-model row: `(tenant, shard, model snapshot)`.
type KbModelRow = (String, usize, KbTelemetry);

/// One cell of the `offered QPS × shard count` grid: where the modeled
/// latency went, summed over the cell's queries.
#[derive(Debug, Clone)]
struct TraceCell {
    /// Offered queries per second of virtual time.
    pub offered_qps: f64,
    /// Shards in the cluster.
    pub shards: usize,
    /// Queries replayed.
    pub queries: usize,
    /// Queries admitted (any rung).
    pub admitted: u64,
    /// Queries rejected pre-dispatch.
    pub rejected: u64,
    /// Summed stage attribution over every outcome (seconds).
    pub stages: StageBreakdown,
    /// Summed end-to-end modeled latency over every outcome (seconds).
    pub modeled_total_s: f64,
    /// `|stages.total() − modeled_total_s| / modeled_total_s` — pure
    /// summation-reassociation error (the per-outcome partition is
    /// bit-exact), so it stays within ~1e-16 · outcomes.
    pub attribution_rel_err: f64,
    /// Span chains whose store probe hit (warm exact queries).
    pub warm_chains: usize,
    /// Span chains that paid a cold compile.
    pub cold_chains: usize,
}

/// The whole sweep plus the exported observability state of its final
/// (most loaded) cell.
#[derive(Debug, Clone)]
struct TraceSummary {
    /// One row per `(offered QPS, shard count)` pair.
    pub cells: Vec<TraceCell>,
    /// Queries per cell.
    pub queries_per_cell: usize,
    /// Deterministic metric snapshot of the final cell
    /// ([`METRIC_ALLOWLIST`] only).
    pub metrics: Vec<MetricSnapshot>,
    /// Final cell's per-tenant cost-model snapshots:
    /// `(tenant, shard, model)`.
    pub kb_models: Vec<KbModelRow>,
    /// Chrome `trace_event` JSON of the final cell (Perfetto-loadable).
    pub trace_json: String,
    /// Spans in the final cell's trace.
    pub trace_spans: usize,
}

/// Children of `root` in `spans`.
fn children_of(spans: &[SpanRecord], root: u64) -> Vec<&SpanRecord> {
    spans.iter().filter(|s| s.parent == Some(root)).collect()
}

/// Classifies a `cluster.query` root's chain: `Some(true)` = cold
/// (store probe missed and a compile child is present), `Some(false)` =
/// warm (probe hit), `None` = no probe (non-exact routes, rejects).
fn chain_is_cold(spans: &[SpanRecord], root: u64) -> Option<bool> {
    let kids = children_of(spans, root);
    let probe = kids.iter().find(|s| s.name == "store.probe")?;
    let result = probe.labels.iter().find(|(k, _)| k == "result").map(|(_, v)| v.as_str());
    match result {
        Some("miss") => Some(true),
        Some("hit") => Some(false),
        _ => None,
    }
}

/// `true` iff the chain under `root` carries the full query life:
/// admit → route → queue wait → store probe → (compile, cold only) →
/// eval, with shard and tenant labels on the root.
fn chain_is_complete(spans: &[SpanRecord], root: &SpanRecord, cold: bool) -> bool {
    let names: Vec<&str> = children_of(spans, root.id).iter().map(|s| s.name.as_str()).collect();
    let labeled = ["shard", "tenant", "route", "reason"]
        .iter()
        .all(|key| root.labels.iter().any(|(k, _)| k == key));
    labeled
        && names.contains(&"cluster.admit")
        && names.contains(&"cluster.route")
        && names.contains(&"queue.wait")
        && names.contains(&"store.probe")
        && names.contains(&"serve.eval")
        && names.contains(&"serve.compile") == cold
}

/// Replays one cell with a fresh cluster and telemetry sink; returns
/// the cell row plus the sink for the caller to export.
fn run_trace_cell(
    kbs: &[TrafficKb],
    workload: &[Arrival],
    qps: f64,
    shards: usize,
    seed: u64,
) -> (TraceCell, Arc<Telemetry>, Vec<KbModelRow>) {
    let (mut cluster, ids, telemetry) = observed_cluster(kbs, shards, seed);
    let arrivals = arrivals_at(kbs, &ids, workload, 0.0);
    let report = cluster.serve_at(&arrivals).expect("mass-probed tenants");

    let mut stages = StageBreakdown::default();
    let mut modeled_total_s = 0.0;
    let mut admitted = 0u64;
    let mut rejected = 0u64;
    for outcome in &report.outcomes {
        // Per outcome the partition is *bit-exact*: the cluster defines
        // the modeled latency as the sum of its stage breakdown.
        assert_eq!(
            outcome.stage.total().to_bits(),
            outcome.modeled_latency_s.to_bits(),
            "stage breakdown must partition the modeled latency exactly: {outcome:?}"
        );
        stages.queue_s += outcome.stage.queue_s;
        stages.compile_s += outcome.stage.compile_s;
        stages.exec_s += outcome.stage.exec_s;
        modeled_total_s += outcome.modeled_latency_s;
        match outcome.decision {
            Admission::Admit(_) => admitted += 1,
            Admission::Reject { .. } => rejected += 1,
        }
    }
    let attribution_rel_err = if modeled_total_s > 0.0 {
        (stages.total() - modeled_total_s).abs() / modeled_total_s
    } else {
        0.0
    };

    let spans = telemetry.tracer.finished();
    assert!(is_well_formed_forest(&spans), "cell qps={qps} shards={shards}: malformed spans");
    let mut warm_chains = 0usize;
    let mut cold_chains = 0usize;
    for root in spans.iter().filter(|s| s.name == "cluster.query") {
        match chain_is_cold(&spans, root.id) {
            Some(cold) if chain_is_complete(&spans, root, cold) => {
                if cold {
                    cold_chains += 1;
                } else {
                    warm_chains += 1;
                }
            }
            _ => {}
        }
    }

    let cell = TraceCell {
        offered_qps: qps,
        shards,
        queries: workload.len(),
        admitted,
        rejected,
        stages,
        modeled_total_s,
        attribution_rel_err,
        warm_chains,
        cold_chains,
    };
    (cell, telemetry, cluster.kb_models())
}

/// The deterministic subset of a registry snapshot (see
/// [`METRIC_ALLOWLIST`]).
fn allowlisted_metrics(telemetry: &Telemetry) -> Vec<MetricSnapshot> {
    telemetry
        .registry
        .snapshot()
        .into_iter()
        .filter(|m| METRIC_ALLOWLIST.contains(&m.name.as_str()))
        .collect()
}

/// Runs the sweep over explicit grids. Each QPS level generates one
/// workload, replayed at every shard count.
fn trace_cells_for(
    qps_levels: &[f64],
    shard_counts: &[usize],
    queries_per_cell: usize,
    seed: u64,
) -> TraceSummary {
    let kbs = traffic_kbs(seed);
    let mut cells = Vec::with_capacity(qps_levels.len() * shard_counts.len());
    let mut last: Option<(Arc<Telemetry>, Vec<KbModelRow>)> = None;
    for (qi, &qps) in qps_levels.iter().enumerate() {
        let workload =
            traffic_workload(&kbs, queries_per_cell, qps, seed ^ ((qi as u64 + 1) << 32));
        for &shards in shard_counts {
            let (cell, telemetry, models) = run_trace_cell(&kbs, &workload, qps, shards, seed);
            cells.push(cell);
            last = Some((telemetry, models));
        }
    }
    let (telemetry, kb_models) = last.expect("at least one cell");
    let spans = telemetry.tracer.finished();
    TraceSummary {
        cells,
        queries_per_cell,
        metrics: allowlisted_metrics(&telemetry),
        kb_models,
        trace_json: chrome_trace_json(&spans),
        trace_spans: spans.len(),
    }
}

/// Runs the committed grid ([`TRACE_QPS`] × [`TRACE_SHARDS`]) and
/// enforces the observability contracts: stage attribution partitions
/// the modeled latency exactly per outcome (bit-equal; asserted inside
/// each cell) and to summation reassociation per cell, and at least one
/// warm and one cold query with complete span chains in the exported
/// trace.
fn trace_summary(seed: u64) -> TraceSummary {
    let summary = trace_cells_for(&TRACE_QPS, &TRACE_SHARDS, TRACE_QUERIES, seed);
    for cell in &summary.cells {
        assert!(
            cell.attribution_rel_err <= 1e-12,
            "stage attribution off by {:e} (beyond reassociation error) at qps={} shards={}",
            cell.attribution_rel_err,
            cell.offered_qps,
            cell.shards
        );
        assert_eq!(cell.admitted + cell.rejected, cell.queries as u64);
    }
    let warm: usize = summary.cells.iter().map(|c| c.warm_chains).sum();
    let cold: usize = summary.cells.iter().map(|c| c.cold_chains).sum();
    assert!(warm > 0, "the sweep produced no warm (store-hit) span chain");
    assert!(cold > 0, "the sweep produced no cold (compile) span chain");
    let last = summary.cells.last().expect("non-empty grid");
    assert!(
        last.warm_chains > 0 && last.cold_chains > 0,
        "the exported trace cell must carry both a warm and a cold chain"
    );
    summary
}

fn metric_to_json(m: &MetricSnapshot) -> Json {
    let labels =
        Json::Obj(m.labels.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))).collect());
    let (kind, value) = match &m.value {
        MetricValue::Counter(v) => ("counter", Json::Num(*v as f64)),
        MetricValue::Gauge(g) => ("gauge", Json::Num(*g)),
        MetricValue::Histogram(h) => (
            "histogram",
            Json::Obj(vec![
                ("count".into(), Json::Num(h.count as f64)),
                ("sum".into(), Json::Num(h.sum)),
                ("p50".into(), Json::Num(h.p50().unwrap_or(0.0))),
                ("p90".into(), Json::Num(h.p90().unwrap_or(0.0))),
                ("p99".into(), Json::Num(h.p99().unwrap_or(0.0))),
            ]),
        ),
    };
    Json::Obj(vec![
        ("name".into(), Json::Str(m.name.clone())),
        ("labels".into(), labels),
        ("kind".into(), Json::Str(kind.into())),
        ("value".into(), value),
    ])
}

fn summary_to_json(summary: &TraceSummary, seed: u64) -> Json {
    Json::Obj(vec![
        ("experiment".into(), Json::Str("trace".into())),
        ("seed".into(), Json::Num(seed as f64)),
        ("queries_per_cell".into(), Json::Num(summary.queries_per_cell as f64)),
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
                            ("admitted".into(), Json::Num(c.admitted as f64)),
                            ("rejected".into(), Json::Num(c.rejected as f64)),
                            ("queue_s".into(), Json::Num(c.stages.queue_s)),
                            ("compile_s".into(), Json::Num(c.stages.compile_s)),
                            ("exec_s".into(), Json::Num(c.stages.exec_s)),
                            ("modeled_total_s".into(), Json::Num(c.modeled_total_s)),
                            ("attribution_rel_err".into(), Json::Num(c.attribution_rel_err)),
                            ("warm_chains".into(), Json::Num(c.warm_chains as f64)),
                            ("cold_chains".into(), Json::Num(c.cold_chains as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("metrics".into(), Json::Arr(summary.metrics.iter().map(metric_to_json).collect())),
        (
            "kb_models".into(),
            Json::Arr(
                summary
                    .kb_models
                    .iter()
                    .map(|(tenant, shard, model)| {
                        let mut fields = vec![
                            ("tenant".into(), Json::Str(tenant.clone())),
                            ("shard".into(), Json::Num(*shard as f64)),
                        ];
                        for (key, value) in model.snapshot() {
                            fields.push((key.to_string(), Json::Num(value)));
                        }
                        Json::Obj(fields)
                    })
                    .collect(),
            ),
        ),
        ("trace_spans".into(), Json::Num(summary.trace_spans as f64)),
    ])
}

fn summary_to_text(summary: &TraceSummary) -> String {
    let mut out =
        String::from("=== observability: deterministic trace replay of the serving stack ===\n");
    let _ = writeln!(
        out,
        "{:>10} {:>7} {:>9} {:>9} {:>11} {:>11} {:>11} {:>9} {:>5} {:>5}",
        "QPS",
        "shards",
        "admitted",
        "rejected",
        "queue s",
        "compile s",
        "exec s",
        "attr err",
        "warm",
        "cold"
    );
    for c in &summary.cells {
        let _ = writeln!(
            out,
            "{:>10.0} {:>7} {:>9} {:>9} {:>11.6} {:>11.6} {:>11.6} {:>8.4}% {:>5} {:>5}",
            c.offered_qps,
            c.shards,
            c.admitted,
            c.rejected,
            c.stages.queue_s,
            c.stages.compile_s,
            c.stages.exec_s,
            100.0 * c.attribution_rel_err,
            c.warm_chains,
            c.cold_chains,
        );
    }
    let _ = writeln!(
        out,
        "({} queries/cell; stage sums are virtual-time seconds over all outcomes and must \
         reproduce the modeled end-to-end latency — `attr err` is the relative gap; final cell \
         exports {} deterministic metrics and a {}-span Perfetto trace)",
        summary.queries_per_cell,
        summary.metrics.len(),
        summary.trace_spans,
    );
    out
}

/// The registry row: one run of the committed grid, both views plus
/// the final cell's Perfetto/Chrome trace. All three are byte-identical
/// across runs with the same seed: only [`METRIC_ALLOWLIST`] metrics and
/// virtual-time spans are exported.
pub(crate) fn run(args: &Args) -> Output {
    let summary = trace_summary(args.seed);
    Output::sweep(summary_to_text(&summary), summary_to_json(&summary, args.seed))
        .with_artifact(summary.trace_json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn tiny_summary() -> TraceSummary {
        trace_cells_for(&[4.5e5], &[2], 80, 11)
    }

    #[test]
    fn stage_sums_reproduce_modeled_latency_and_chains_exist() {
        let summary = tiny_summary();
        assert_eq!(summary.cells.len(), 1);
        let cell = &summary.cells[0];
        assert!(cell.attribution_rel_err <= 1e-12, "{cell:?}");
        assert_eq!(cell.admitted + cell.rejected, cell.queries as u64);
        assert!(cell.warm_chains > 0, "warm chain missing: {cell:?}");
        assert!(cell.cold_chains > 0, "cold chain missing: {cell:?}");
        assert!(!summary.metrics.is_empty());
        assert!(summary.metrics.iter().all(|m| METRIC_ALLOWLIST.contains(&m.name.as_str())));
        assert_eq!(summary.kb_models.len(), 6, "one cost model per tenant");
    }

    #[test]
    fn sweep_registry_passes_the_prometheus_lint() {
        let summary = tiny_summary();
        let text = reason_telemetry::prometheus_text(&summary.metrics);
        reason_telemetry::lint_prometheus(&text).expect("exposition is well-formed");
        assert!(text.contains("cluster_admissions_total"));
    }

    #[test]
    fn trace_json_is_byte_identical_across_runs() {
        let a = summary_to_json(&tiny_summary(), 11).render();
        let b = summary_to_json(&tiny_summary(), 11).render();
        assert_eq!(a, b);
        let parsed = json::parse(&a).expect("trace JSON must parse");
        assert_eq!(parsed.get("experiment").unwrap().as_str(), Some("trace"));
        assert!(parsed.get("metrics").unwrap().as_arr().unwrap().len() > 4);
        assert!(parsed.get("trace_spans").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn one_run_renders_the_report_and_the_artifact() {
        // `reason-eval trace --json --trace-out F` replays the sweep
        // once: one registry run builds one cluster per cell of the
        // committed grid, whatever views are read off it.
        use crate::experiments::replay::tests::CLUSTERS_BUILT;
        let before = CLUSTERS_BUILT.get();
        let out = run(&Args::default());
        assert_eq!(CLUSTERS_BUILT.get() - before, TRACE_QPS.len() * TRACE_SHARDS.len());
        // All three views describe the same final cell.
        let spans = out.json.expect("native JSON").get("trace_spans").unwrap().as_f64().unwrap();
        let artifact = json::parse(&out.artifact.expect("Perfetto artifact")).unwrap();
        assert_eq!(artifact.get("traceEvents").unwrap().as_arr().unwrap().len() as f64, spans);
        assert!(out.text.contains(&format!("a {spans}-span Perfetto trace")), "{}", out.text);
    }

    #[test]
    fn trace_artifact_is_deterministic_and_perfetto_shaped() {
        let a = tiny_summary().trace_json;
        let b = tiny_summary().trace_json;
        assert_eq!(a, b, "Perfetto trace must replay byte-identically");
        let parsed = json::parse(&a).expect("chrome trace is valid JSON");
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());
        for ev in events {
            assert_eq!(ev.get("ph").unwrap().as_str(), Some("X"));
            assert!(ev.get("ts").unwrap().as_f64().is_some());
        }
        assert!(
            events.iter().any(|ev| ev.get("name").unwrap().as_str() == Some("cluster.query")),
            "query roots must appear in the exported trace"
        );
    }
}
