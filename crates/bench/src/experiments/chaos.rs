//! Chaos sweep for the fault-tolerant serving cluster
//! (`reason-eval chaos`).
//!
//! The traffic harness's seeded workloads, replayed against a
//! [`reason_serve::ServeCluster`] with a deterministic
//! [`reason_serve::FaultPlan`] installed. Three scenarios exercise the
//! failure-domain ladder:
//!
//! * **crash_one_shard** — the busiest shard is dead for the middle 40%
//!   of the workload horizon; its queries must hedge, trip the breaker,
//!   fail over through the shrunk hash ring, and recompile on the
//!   surviving shards.
//! * **rolling_slow** — an 8× latency window rolls across the shards,
//!   one slice of the horizon each; admission must degrade under the
//!   inflated backlog instead of missing deadlines blindly.
//! * **cache_wipe_storm** — every shard's circuit store is wiped twice;
//!   every later exact query must recompile and still answer
//!   bit-identically.
//!
//! Guards run inside every cell: **zero lost queries** (every admitted
//! query answers; rejects are flagged, answerless, and counted), and
//! **exact bit-identity** — every exact answer not degraded by a fault
//! matches the single-engine deadline-free oracle bit-for-bit, whether
//! it was served on its home shard or recompiled after failover. The
//! crash scenario additionally must hold ≥ 99% availability through
//! failover and degradation.
//!
//! Determinism: fault windows, retries (seeded backoff jitter), breaker
//! walks, and the virtual-time queue model read only seeded inputs, so
//! `reason-eval chaos --seed S --json` is byte-identical across runs.
//! `reason-eval chaos --json > BENCH_chaos.json` regenerates the
//! committed baseline.

use std::fmt::Write as _;

use reason_serve::{Answer, FaultStats};

use super::registry::{Args, Output};
use super::replay::{arrivals_at, fresh_cluster, horizon_of, scenario_plan, score};
use super::traffic::{
    percentile, reference_answers, traffic_kbs, traffic_workload, Arrival, TrafficKb,
};
use crate::json::Json;

/// Offered load of every chaos cell (queries per second of virtual
/// time). Far below a healthy shard's saturation point, so admission
/// losses under fault injection are attributable to the faults, not to
/// baseline overload.
const CHAOS_QPS: f64 = 3.0e4;

/// Cluster widths swept per scenario.
const CHAOS_SHARDS: [usize; 2] = [2, 4];

/// Queries per cell in the committed grid.
const CHAOS_QUERIES: usize = 300;

/// The committed fault scenario names, in grid order. Each shard count
/// additionally runs a `baseline` cell (empty fault plan) that anchors
/// the availability metric: only rejects *in excess of* the baseline's
/// are charged to the faults.
pub const CHAOS_SCENARIOS: [&str; 3] = ["crash_one_shard", "rolling_slow", "cache_wipe_storm"];

/// One cell of the `scenario × shard count` chaos grid.
#[derive(Debug, Clone)]
struct ChaosCell {
    /// Scenario name (one of [`CHAOS_SCENARIOS`]).
    pub scenario: &'static str,
    /// Shards in the cluster.
    pub shards: usize,
    /// Queries replayed.
    pub queries: usize,
    /// Admitted queries that never produced an answer. The harness
    /// asserts this is zero in every cell.
    pub lost: u64,
    /// Queries that received an answer (admitted and served).
    pub answered: u64,
    /// Fault-attributed availability: `1 - (lost + excess_rejects) /
    /// queries`, where `excess_rejects` is this cell's reject count
    /// beyond the same-shape baseline cell's. Admission-control rejects
    /// that happen identically without faults (tight deadlines against
    /// cold-compile backlogs) are not charged to the fault plan.
    pub availability: f64,
    /// Queries rejected by admission control (flagged, answerless).
    pub rejected: u64,
    /// The baseline (no-fault) cell's reject count at this shard width.
    pub baseline_rejected: u64,
    /// Exact / anytime-bounds / predicted admissions.
    pub exact: u64,
    /// Anytime-bounds admissions.
    pub approx: u64,
    /// Prediction-network admissions.
    pub predicted: u64,
    /// Queries pushed down the degrade ladder *by a fault* (compile
    /// fault on the exact rung, or a post-admission dispatch fallback).
    pub degraded_by_fault: u64,
    /// p50 of modeled latency over answered queries.
    pub p50_s: f64,
    /// p99 of modeled latency over answered queries.
    pub p99_s: f64,
    /// Degraded fraction (approx + predicted over total).
    pub degrade_rate: f64,
    /// Every non-degraded exact answer matched the single-engine
    /// oracle bit-for-bit.
    pub exact_bit_identical: bool,
    /// Fault-domain counters accumulated over the cell.
    pub fault: FaultStats,
}

/// The full chaos grid plus its workload shape.
#[derive(Debug, Clone)]
struct ChaosSummary {
    /// All cells, shard-major: a `baseline` cell then the
    /// [`CHAOS_SCENARIOS`] cells per shard width.
    pub cells: Vec<ChaosCell>,
    /// Queries per cell.
    pub queries_per_cell: usize,
    /// Registered tenants (knowledge bases).
    pub kbs: usize,
}

/// Replays one workload through a fresh cluster under the scenario's
/// fault plan and scores it against the single-engine reference.
/// `baseline_rejected`: the no-fault cell's rejects at this width
/// (`None` marks that cell itself, which anchors on its own).
fn run_cell(
    kbs: &[TrafficKb],
    workload: &[Arrival],
    reference: &[Answer],
    scenario: &'static str,
    shards: usize,
    seed: u64,
    baseline_rejected: Option<u64>,
) -> ChaosCell {
    let (mut cluster, ids) = fresh_cluster(kbs, shards, seed, None);
    cluster.install_fault_domain(scenario_plan(scenario, shards, 0.0, horizon_of(workload)), seed);
    let arrivals = arrivals_at(kbs, &ids, workload, 0.0);
    let report = cluster.serve_at(&arrivals).expect("mass-probed tenants");
    let scored = score(&report, reference);

    let stats = report.stats;
    let total = workload.len() as f64;
    let baseline_rejected = baseline_rejected.unwrap_or(stats.rejected);
    let excess_rejects = stats.rejected.saturating_sub(baseline_rejected);
    ChaosCell {
        scenario,
        shards,
        queries: workload.len(),
        lost: scored.lost,
        answered: scored.answered,
        availability: 1.0 - (scored.lost + excess_rejects) as f64 / total,
        rejected: stats.rejected,
        baseline_rejected,
        exact: stats.exact,
        approx: stats.approx,
        predicted: stats.predicted,
        degraded_by_fault: scored.degraded_by_fault,
        p50_s: percentile(&scored.latencies, 0.50),
        p99_s: percentile(&scored.latencies, 0.99),
        degrade_rate: (stats.approx + stats.predicted) as f64 / total,
        exact_bit_identical: scored.exact_bit_identical,
        fault: cluster.fault_stats(),
    }
}

/// Runs the grid over explicit sweeps. One workload is generated once
/// and replayed by every cell (and the single-engine reference). Each
/// shard count first runs a no-fault `baseline` cell, which anchors the
/// availability metric of that width's fault cells.
fn chaos_cells_for(
    scenarios: &[&'static str],
    shard_counts: &[usize],
    queries_per_cell: usize,
    qps: f64,
    seed: u64,
) -> ChaosSummary {
    let kbs = traffic_kbs(seed);
    let workload = traffic_workload(&kbs, queries_per_cell, qps, seed ^ (1 << 32));
    let reference = reference_answers(&kbs, &workload, seed);
    let mut cells = Vec::with_capacity((scenarios.len() + 1) * shard_counts.len());
    for &shards in shard_counts {
        // The baseline anchors itself: with no faults installed, its
        // fault-attributed availability is 1 minus losses (which the
        // harness asserts are zero anyway).
        let baseline = run_cell(&kbs, &workload, &reference, "baseline", shards, seed, None);
        let anchor = Some(baseline.rejected);
        cells.push(baseline);
        for &scenario in scenarios {
            cells.push(run_cell(&kbs, &workload, &reference, scenario, shards, seed, anchor));
        }
    }
    ChaosSummary { cells, queries_per_cell, kbs: kbs.len() }
}

/// Runs the full committed grid ([`CHAOS_SCENARIOS`] × [`CHAOS_SHARDS`])
/// and enforces the harness guards: zero lost queries and exact
/// bit-identity in every cell, ≥ 99% availability in every
/// crash-one-shard cell, and every scenario's faults actually firing.
fn chaos_summary(seed: u64) -> ChaosSummary {
    let summary = chaos_cells_for(&CHAOS_SCENARIOS, &CHAOS_SHARDS, CHAOS_QUERIES, CHAOS_QPS, seed);
    for cell in &summary.cells {
        assert_eq!(
            cell.lost, 0,
            "{} shards={} lost {} queries",
            cell.scenario, cell.shards, cell.lost
        );
        assert!(
            cell.exact_bit_identical,
            "{} shards={}: a non-degraded exact answer diverged from the oracle",
            cell.scenario, cell.shards
        );
        match cell.scenario {
            "baseline" => {
                assert_eq!(cell.fault, FaultStats::default(), "the baseline cell hit faults");
            }
            "crash_one_shard" => {
                assert!(
                    cell.availability >= 0.99,
                    "crash cell shards={} availability {:.4} < 0.99",
                    cell.shards,
                    cell.availability
                );
                assert!(cell.fault.crashes_hit > 0, "the crash window was never hit");
                assert!(cell.fault.failovers > 0, "no query failed over the dead shard");
            }
            "rolling_slow" => {
                assert!(cell.fault.slowdowns_hit > 0, "the slow windows were never hit");
            }
            "cache_wipe_storm" => {
                assert!(cell.fault.cache_wipes > 0, "no wipe fired");
            }
            _ => unreachable!(),
        }
    }
    summary
}

fn cells_to_text(summary: &ChaosSummary) -> String {
    let mut out = String::from("=== chaos: fault injection over the sharded serving cluster ===\n");
    let _ = writeln!(
        out,
        "{} queries/cell at {:.0e} QPS over {} tenants; plans per scenario, seeded\n",
        summary.queries_per_cell, CHAOS_QPS, summary.kbs
    );
    let _ = writeln!(
        out,
        "{:>16} {:>3} {:>5} {:>5} {:>6} {:>8} {:>8} {:>8} {:>5} {:>5} {:>5} {:>6}",
        "scenario",
        "sh",
        "lost",
        "avail",
        "rej",
        "p50(us)",
        "p99(us)",
        "degr",
        "retry",
        "fail",
        "brk",
        "exact="
    );
    for c in &summary.cells {
        let _ = writeln!(
            out,
            "{:>16} {:>3} {:>5} {:>5.3} {:>6} {:>8.2} {:>8.2} {:>8.3} {:>5} {:>5} {:>5} {:>6}",
            c.scenario,
            c.shards,
            c.lost,
            c.availability,
            c.rejected,
            c.p50_s * 1e6,
            c.p99_s * 1e6,
            c.degrade_rate,
            c.fault.retries,
            c.fault.failovers,
            c.fault.breaker_rejections,
            if c.exact_bit_identical { "yes" } else { "NO" },
        );
    }
    out.push_str(
        "\nguards: zero lost queries per cell; non-degraded exact answers bit-identical\n\
         to the single-engine oracle; crash cells >= 99% availability via failover.\n",
    );
    out
}

fn cells_to_json(summary: &ChaosSummary, seed: u64) -> Json {
    Json::Obj(vec![
        ("experiment".into(), Json::Str("chaos".into())),
        ("seed".into(), Json::Num(seed as f64)),
        ("offered_qps".into(), Json::Num(CHAOS_QPS)),
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
                            ("scenario".into(), Json::Str(c.scenario.into())),
                            ("shards".into(), Json::Num(c.shards as f64)),
                            ("queries".into(), Json::Num(c.queries as f64)),
                            ("lost".into(), Json::Num(c.lost as f64)),
                            ("answered".into(), Json::Num(c.answered as f64)),
                            ("availability".into(), Json::Num(c.availability)),
                            ("rejected".into(), Json::Num(c.rejected as f64)),
                            ("baseline_rejected".into(), Json::Num(c.baseline_rejected as f64)),
                            ("admitted_exact".into(), Json::Num(c.exact as f64)),
                            ("admitted_approx".into(), Json::Num(c.approx as f64)),
                            ("admitted_predicted".into(), Json::Num(c.predicted as f64)),
                            ("degraded_by_fault".into(), Json::Num(c.degraded_by_fault as f64)),
                            ("p50_latency_s".into(), Json::Num(c.p50_s)),
                            ("p99_latency_s".into(), Json::Num(c.p99_s)),
                            ("degrade_rate".into(), Json::Num(c.degrade_rate)),
                            ("exact_bit_identical".into(), Json::Bool(c.exact_bit_identical)),
                            ("crashes_hit".into(), Json::Num(c.fault.crashes_hit as f64)),
                            ("slowdowns_hit".into(), Json::Num(c.fault.slowdowns_hit as f64)),
                            (
                                "compile_faults_hit".into(),
                                Json::Num(c.fault.compile_faults_hit as f64),
                            ),
                            ("cache_wipes".into(), Json::Num(c.fault.cache_wipes as f64)),
                            ("retries".into(), Json::Num(c.fault.retries as f64)),
                            ("failovers".into(), Json::Num(c.fault.failovers as f64)),
                            (
                                "degraded_under_failure".into(),
                                Json::Num(c.fault.degraded_under_failure as f64),
                            ),
                            (
                                "breaker_rejections".into(),
                                Json::Num(c.fault.breaker_rejections as f64),
                            ),
                            (
                                "waited_for_recovery".into(),
                                Json::Num(c.fault.waited_for_recovery as f64),
                            ),
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
    let summary = chaos_summary(args.seed);
    Output::sweep(cells_to_text(&summary), cells_to_json(&summary, args.seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_summary() -> ChaosSummary {
        chaos_cells_for(&CHAOS_SCENARIOS, &[2], 60, CHAOS_QPS, 11)
    }

    #[test]
    fn cells_lose_nothing_and_stay_bit_identical() {
        for c in tiny_summary().cells {
            assert_eq!(c.lost, 0, "{c:?}");
            assert!(c.exact_bit_identical, "{c:?}");
            assert_eq!(c.answered + c.rejected + c.lost, c.queries as u64, "{c:?}");
        }
    }

    #[test]
    fn crash_scenario_actually_fails_over() {
        let summary = tiny_summary();
        let crash = summary.cells.iter().find(|c| c.scenario == "crash_one_shard").unwrap();
        assert!(crash.fault.crashes_hit > 0);
        assert!(crash.fault.failovers > 0);
        assert!(crash.availability >= 0.9, "{crash:?}");
    }

    #[test]
    fn chaos_json_is_byte_identical_across_runs() {
        let a = cells_to_json(&tiny_summary(), 11).render();
        let b = cells_to_json(&tiny_summary(), 11).render();
        assert_eq!(a, b);
    }

    #[test]
    fn text_report_renders_every_cell() {
        let summary = tiny_summary();
        let text = cells_to_text(&summary);
        for c in &summary.cells {
            assert!(text.contains(c.scenario), "missing {}", c.scenario);
        }
    }
}
