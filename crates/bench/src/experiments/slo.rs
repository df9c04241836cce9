//! Live SLO burn-rate evaluation over the chaos scenarios
//! (`reason-eval slo`) — the `BENCH_slo.json` generator.
//!
//! The chaos sweep's seeded fault scenarios, replayed against a
//! telemetry-instrumented [`ServeCluster`] with the default SLO set
//! ([`ServeCluster::default_slo_specs`]) installed, so alerting is
//! evaluated *live* at every arrival instead of asserted post hoc.
//!
//! Unlike the chaos sweep, every cell first runs a deadline-free
//! **warm-up pass** (one exact query per tenant at `t = 0`) and the
//! measured workload is shifted to start at `SLO_WARM_PAD_S`. The
//! cold-compile era — which rejects tight-deadline queries identically
//! with and without faults, and therefore cannot distinguish an outage
//! from a cold start — is over before monitoring begins. What remains
//! is the steady-state contract the paper's serving story needs:
//!
//! * **baseline** (no faults): warm stores, backlog near zero, no
//!   rejects — every SLO stays quiet for the whole horizon.
//! * **crash_one_shard**: the dead shard's tenants fail over and
//!   recompile on the survivor; the localized reject/deadline burst
//!   burns the availability budget in both the fast and slow windows
//!   and deterministically fires the `availability` alert, which
//!   resolves once the failover compiles drain.
//! * **rolling_slow** / **cache_wipe_storm**: recorded for the
//!   committed artifact; whether they page depends on how fast their
//!   backlog concentrates, and the byte-determinism contract pins
//!   whatever the seed produces.
//!
//! Alerts are deterministic records (virtual-time stamps, peak burn
//! rates) and also land as `slo.alert` spans on
//! [`reason_serve::SLO_TRACK`] plus `slo_*` metrics, so the sweep
//! cross-checks record-vs-span consistency per cell. `reason-eval slo
//! --json > BENCH_slo.json` regenerates the committed artifact
//! byte-identically per seed; `reason-eval audit` re-derives it in CI.

use std::fmt::Write as _;

use reason_serve::{ClusterKbId, Objective, Query, ServeCluster, SloAlert, SloSpec, SLO_TRACK};
use reason_telemetry::is_well_formed_forest;

use super::chaos::CHAOS_SCENARIOS;
use super::registry::{Args, Output};
use super::replay::{arrivals_at, horizon_of, observed_cluster, scenario_plan};
use super::traffic::{traffic_kbs, traffic_workload, Arrival, TrafficKb};
use crate::json::Json;

/// Offered load of every SLO cell (queries per second of virtual
/// time). Same operating point as the chaos sweep: a healthy warm
/// cluster serves it without backlog, so any burn is attributable to
/// the injected faults.
const SLO_QPS: f64 = 3.0e4;

/// Cluster width of the committed grid. Two shards is the width where
/// one crash removes half the capacity — the separation the
/// availability alert must catch.
const SLO_SHARDS: usize = 2;

/// Queries per cell in the committed grid.
const SLO_QUERIES: usize = 300;

/// Virtual seconds between the warm-up pass (at `t = 0`) and the first
/// measured arrival — generous headroom for every tenant's cold
/// compile to drain, so the monitored phase starts on an idle cluster.
const SLO_WARM_PAD_S: f64 = 0.05;

/// One cell of the SLO grid: admission shape plus the full alert
/// history of the default SLO set.
#[derive(Debug, Clone)]
struct SloCell {
    /// Scenario name (`baseline` or one of [`CHAOS_SCENARIOS`]).
    pub scenario: &'static str,
    /// Shards in the cluster.
    pub shards: usize,
    /// Measured queries replayed (the warm-up pass is not counted).
    pub queries: usize,
    /// Measured-phase rejects.
    pub rejected: u64,
    /// Measured-phase deadline misses among admitted queries.
    pub deadline_misses: u64,
    /// Every alert the monitor fired, in fire order (all resolved by
    /// the end-of-horizon [`ServeCluster::finish_slos`]).
    pub alerts: Vec<SloAlert>,
    /// `slo.alert` spans recorded on [`SLO_TRACK`] — must equal
    /// `alerts.len()`.
    pub alert_spans: usize,
}

/// The whole grid plus the SLO set it was judged against.
#[derive(Debug, Clone)]
struct SloSummary {
    /// One `baseline` cell, then one per [`CHAOS_SCENARIOS`] entry.
    pub cells: Vec<SloCell>,
    /// Measured queries per cell.
    pub queries_per_cell: usize,
    /// Measured horizon in virtual seconds (workload span).
    pub horizon_s: f64,
    /// The installed objectives ([`ServeCluster::default_slo_specs`]
    /// over [`SloSummary::horizon_s`]).
    pub specs: Vec<SloSpec>,
}

/// Replays one warmed, monitored cell and collects its alert history.
fn run_slo_cell(
    kbs: &[TrafficKb],
    workload: &[Arrival],
    scenario: &'static str,
    shards: usize,
    seed: u64,
) -> SloCell {
    let horizon_s = horizon_of(workload);
    let (mut cluster, ids, telemetry) = observed_cluster(kbs, shards, seed);

    // Warm-up: one deadline-free exact query per tenant at t = 0
    // compiles every circuit on its home shard before monitoring
    // starts, so the measured phase judges steady-state serving.
    let warm: Vec<(ClusterKbId, Query, f64)> = ids
        .iter()
        .zip(kbs)
        .map(|(&id, kb)| (id, Query { kind: kb.shapes[0].clone(), deadline: None }, 0.0))
        .collect();
    cluster.serve_at(&warm).expect("mass-probed tenants");

    // The chaos fault plans, shifted to cover the measured window.
    cluster.install_fault_domain(scenario_plan(scenario, shards, SLO_WARM_PAD_S, horizon_s), seed);
    cluster.install_slos(ServeCluster::default_slo_specs(horizon_s));

    let arrivals = arrivals_at(kbs, &ids, workload, SLO_WARM_PAD_S);
    let report = cluster.serve_at(&arrivals).expect("mass-probed tenants");
    cluster.finish_slos(SLO_WARM_PAD_S + horizon_s);

    let spans = telemetry.tracer.finished();
    assert!(is_well_formed_forest(&spans), "slo cell {scenario}: malformed span forest");
    let alert_spans = spans.iter().filter(|s| s.track == SLO_TRACK).count();
    let alerts = cluster.slo_alerts().to_vec();
    assert!(
        alerts.iter().all(|a| a.resolved_at_s.is_some()),
        "{scenario}: finish_slos left an active alert: {alerts:?}"
    );

    SloCell {
        scenario,
        shards,
        queries: workload.len(),
        rejected: report.stats.rejected,
        deadline_misses: report.stats.deadline_misses,
        alerts,
        alert_spans,
    }
}

/// Runs the grid over an explicit scenario list and cell size. One
/// workload is generated once and replayed by every cell.
fn slo_cells_for(
    scenarios: &[&'static str],
    shards: usize,
    queries_per_cell: usize,
    qps: f64,
    seed: u64,
) -> SloSummary {
    let kbs = traffic_kbs(seed);
    let workload = traffic_workload(&kbs, queries_per_cell, qps, seed ^ (1 << 32));
    let horizon_s = horizon_of(&workload);
    let cells = std::iter::once("baseline")
        .chain(scenarios.iter().copied())
        .map(|scenario| run_slo_cell(&kbs, &workload, scenario, shards, seed))
        .collect();
    SloSummary {
        cells,
        queries_per_cell,
        horizon_s,
        specs: ServeCluster::default_slo_specs(horizon_s),
    }
}

/// Runs the committed grid and enforces the alerting contract: the
/// warm no-fault baseline never pages, the crash cell deterministically
/// fires (and resolves) the availability burn-rate alert, and every
/// cell's alert records match its `slo.alert` spans one-for-one.
fn slo_summary(seed: u64) -> SloSummary {
    let summary = slo_cells_for(&CHAOS_SCENARIOS, SLO_SHARDS, SLO_QUERIES, SLO_QPS, seed);
    for cell in &summary.cells {
        assert_eq!(
            cell.alert_spans,
            cell.alerts.len(),
            "{}: alert records and slo.alert spans disagree",
            cell.scenario
        );
        match cell.scenario {
            "baseline" => {
                assert!(cell.alerts.is_empty(), "warm no-fault baseline paged: {:?}", cell.alerts)
            }
            "crash_one_shard" => assert!(
                cell.alerts.iter().any(|a| a.slo == "availability"),
                "crash cell did not trip the availability burn-rate alert: {:?}",
                cell.alerts
            ),
            _ => {}
        }
    }
    summary
}

fn alert_to_json(a: &SloAlert) -> Json {
    Json::Obj(vec![
        ("slo".into(), Json::Str(a.slo.clone())),
        ("fired_at_s".into(), Json::Num(a.fired_at_s)),
        ("resolved_at_s".into(), a.resolved_at_s.map_or(Json::Null, Json::Num)),
        ("peak_burn_fast".into(), Json::Num(a.peak_burn_fast)),
        ("peak_burn_slow".into(), Json::Num(a.peak_burn_slow)),
    ])
}

fn spec_to_json(spec: &SloSpec) -> Json {
    let objective = match &spec.objective {
        Objective::CounterRatio { bad, total } => Json::Obj(vec![
            ("kind".into(), Json::Str("counter_ratio".into())),
            ("bad".into(), Json::Arr(bad.iter().map(|n| Json::Str(n.clone())).collect())),
            ("total".into(), Json::Arr(total.iter().map(|n| Json::Str(n.clone())).collect())),
        ]),
        Objective::LatencyAbove { histogram, threshold_s } => Json::Obj(vec![
            ("kind".into(), Json::Str("latency_above".into())),
            ("histogram".into(), Json::Str(histogram.clone())),
            ("threshold_s".into(), Json::Num(*threshold_s)),
        ]),
    };
    Json::Obj(vec![
        ("name".into(), Json::Str(spec.name.clone())),
        ("objective".into(), objective),
        ("budget".into(), Json::Num(spec.budget)),
        ("fast_window_s".into(), Json::Num(spec.fast_window_s)),
        ("slow_window_s".into(), Json::Num(spec.slow_window_s)),
        ("burn_threshold".into(), Json::Num(spec.burn_threshold)),
    ])
}

fn summary_to_json(summary: &SloSummary, seed: u64) -> Json {
    Json::Obj(vec![
        ("experiment".into(), Json::Str("slo".into())),
        ("seed".into(), Json::Num(seed as f64)),
        ("offered_qps".into(), Json::Num(SLO_QPS)),
        ("queries_per_cell".into(), Json::Num(summary.queries_per_cell as f64)),
        ("horizon_s".into(), Json::Num(summary.horizon_s)),
        ("warm_pad_s".into(), Json::Num(SLO_WARM_PAD_S)),
        ("slos".into(), Json::Arr(summary.specs.iter().map(spec_to_json).collect())),
        (
            "cells".into(),
            Json::Arr(
                summary
                    .cells
                    .iter()
                    .map(|c| {
                        Json::Obj(vec![
                            ("scenario".into(), Json::Str(c.scenario.into())),
                            ("shards".into(), Json::Num(c.shards as f64)),
                            ("queries".into(), Json::Num(c.queries as f64)),
                            ("rejected".into(), Json::Num(c.rejected as f64)),
                            ("deadline_misses".into(), Json::Num(c.deadline_misses as f64)),
                            ("alert_spans".into(), Json::Num(c.alert_spans as f64)),
                            (
                                "alerts".into(),
                                Json::Arr(c.alerts.iter().map(alert_to_json).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn summary_to_text(summary: &SloSummary) -> String {
    let mut out =
        String::from("=== slo: live burn-rate alerting over the chaos scenarios (warmed) ===\n");
    let _ = writeln!(
        out,
        "{} queries/cell at {:.0e} QPS; SLOs: {}\n",
        summary.queries_per_cell,
        SLO_QPS,
        summary
            .specs
            .iter()
            .map(|s| format!("{} (budget {}, {}x burn)", s.name, s.budget, s.burn_threshold))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(
        out,
        "{:>16} {:>3} {:>6} {:>6} {:>7}  alerts",
        "scenario", "sh", "rej", "miss", "pages"
    );
    for c in &summary.cells {
        let alerts = if c.alerts.is_empty() {
            "-".to_string()
        } else {
            c.alerts
                .iter()
                .map(|a| {
                    format!(
                        "{} @{:.1}ms..{:.1}ms (burn {:.0}x/{:.0}x)",
                        a.slo,
                        a.fired_at_s * 1e3,
                        a.resolved_at_s.unwrap_or(f64::NAN) * 1e3,
                        a.peak_burn_fast,
                        a.peak_burn_slow
                    )
                })
                .collect::<Vec<_>>()
                .join("; ")
        };
        let _ = writeln!(
            out,
            "{:>16} {:>3} {:>6} {:>6} {:>7}  {}",
            c.scenario,
            c.shards,
            c.rejected,
            c.deadline_misses,
            c.alerts.len(),
            alerts
        );
    }
    out.push_str(
        "\nguards: the warm baseline never pages; the crash cell deterministically\n\
         trips (and resolves) the availability burn-rate alert; alert records match\n\
         slo.alert spans one-for-one in every cell.\n",
    );
    out
}

/// The registry row: one run of the committed grid, both views.
/// Byte-identical across runs with the same seed: alert times are
/// virtual, burn rates are pure functions of seeded counters.
pub(crate) fn run(args: &Args) -> Output {
    let summary = slo_summary(args.seed);
    Output::sweep(summary_to_text(&summary), summary_to_json(&summary, args.seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn tiny_summary() -> SloSummary {
        slo_cells_for(&["crash_one_shard"], 2, 150, SLO_QPS, 11)
    }

    #[test]
    fn warm_baseline_stays_quiet_and_crash_pages_availability() {
        let summary = tiny_summary();
        assert_eq!(summary.cells.len(), 2);
        let baseline = &summary.cells[0];
        assert_eq!(baseline.scenario, "baseline");
        assert!(baseline.alerts.is_empty(), "warm baseline paged: {baseline:?}");
        // Warm steady state stays inside the availability budget (the
        // occasional Poisson-burst reject is the budget's whole point).
        assert!(
            (baseline.rejected as f64) < 0.01 * baseline.queries as f64,
            "warm baseline burned its whole reject budget: {baseline:?}"
        );
        let crash = &summary.cells[1];
        assert!(
            crash.alerts.iter().any(|a| a.slo == "availability"),
            "crash cell must trip availability: {crash:?}"
        );
        let alert = crash.alerts.iter().find(|a| a.slo == "availability").unwrap();
        assert!(alert.resolved_at_s.is_some());
        assert!(alert.peak_burn_fast >= 10.0, "{alert:?}");
    }

    #[test]
    fn alert_records_match_alert_spans() {
        for cell in tiny_summary().cells {
            assert_eq!(cell.alert_spans, cell.alerts.len(), "{cell:?}");
        }
    }

    #[test]
    fn slo_json_is_byte_identical_across_runs() {
        let a = summary_to_json(&tiny_summary(), 11).render();
        let b = summary_to_json(&tiny_summary(), 11).render();
        assert_eq!(a, b);
        let parsed = json::parse(&a).expect("slo JSON must parse");
        assert_eq!(parsed.get("experiment").unwrap().as_str(), Some("slo"));
        assert_eq!(parsed.get("slos").unwrap().as_arr().unwrap().len(), 3);
    }
}
