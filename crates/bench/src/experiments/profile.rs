//! Continuous-profiling experiment (`reason-eval profile`): the
//! serving stack's span forest folded into deterministic flame-graph
//! profiles.
//!
//! One seeded traffic workload is replayed twice against a
//! telemetry-instrumented [`reason_serve::ServeCluster`] on a virtual
//! clock:
//!
//! * **baseline** — no faults; its profile is the steady-state shape of
//!   where modeled time goes (queue wait, compiles, batched arena
//!   evals), exported as collapsed-stack text
//!   (`frame;frame;leaf <ns>` per line — loadable by speedscope and
//!   `inferno-flamegraph`) via `reason-eval profile --profile-out FILE`.
//! * **candidate** — the same workload under the chaos crash plan
//!   (shard 0 dead for the middle 40% of the horizon); the
//!   **differential profile** against the baseline surfaces exactly the
//!   stacks the outage moved (failover recompiles, inflated queue
//!   waits) without eyeballing two flame graphs side by side.
//!
//! The report also carries the top-k **hotspot table** (self vs total
//! ns per frame) and the **tail-latency exemplars**: the worst
//! modeled-latency queries of the faulted run, each keeping its full
//! admit → route → (compile →) eval span chain. Everything is derived
//! from virtual-time spans, so text, JSON, and the collapsed artifact
//! are byte-identical per seed.

use std::fmt::Write as _;

use reason_telemetry::is_well_formed_forest;
use reason_telemetry::profile::{exemplars, Exemplar, Hotspot, Profile, StackDelta};

use super::registry::{Args, Output};
use super::replay::{arrivals_at, horizon_of, observed_cluster, scenario_plan};
use super::traffic::{traffic_kbs, traffic_workload, Arrival, TrafficKb};
use crate::json::Json;

/// Offered load (queries per second of virtual time): the trace
/// sweep's comfortable-underload point, so the baseline profile shows
/// service costs rather than queueing collapse.
const PROFILE_QPS: f64 = 5.0e4;

/// Cluster width of both cells.
const PROFILE_SHARDS: usize = 2;

/// Queries replayed per cell.
const PROFILE_QUERIES: usize = 200;

/// Hotspots and differential entries kept in the committed report.
const TOP_K: usize = 10;

/// Tail exemplars kept (worst modeled-latency span chains).
const EXEMPLAR_K: usize = 3;

/// Both profiles plus the derived tables.
#[derive(Debug, Clone)]
struct ProfileSummary {
    /// Queries per cell.
    pub queries_per_cell: usize,
    /// Total self-time of the baseline profile (ns).
    pub baseline_total_ns: u64,
    /// Total self-time of the faulted candidate profile (ns).
    pub candidate_total_ns: u64,
    /// Collapsed-stack text of the baseline profile (the
    /// `--profile-out` artifact; speedscope/inferno-compatible).
    pub collapsed: String,
    /// Top-[`TOP_K`] baseline hotspots by self time.
    pub hotspots: Vec<Hotspot>,
    /// Top-[`TOP_K`] differential entries (candidate − baseline) by
    /// absolute delta.
    pub deltas: Vec<StackDelta>,
    /// The [`EXEMPLAR_K`] worst-latency queries of the faulted run,
    /// with their full span chains.
    pub exemplars: Vec<Exemplar>,
}

/// Replays the workload once under the named chaos scenario and folds
/// the span forest into a profile; also returns the exemplars of the
/// run.
fn run_profile_cell(
    kbs: &[TrafficKb],
    workload: &[Arrival],
    scenario: &str,
    seed: u64,
) -> (Profile, Vec<Exemplar>) {
    let (mut cluster, ids, telemetry) = observed_cluster(kbs, PROFILE_SHARDS, seed);
    let plan = scenario_plan(scenario, PROFILE_SHARDS, 0.0, horizon_of(workload));
    cluster.install_fault_domain(plan, seed);
    cluster.serve_at(&arrivals_at(kbs, &ids, workload, 0.0)).expect("mass-probed tenants");
    let spans = telemetry.tracer.finished();
    assert!(is_well_formed_forest(&spans), "profile cell: malformed span forest");
    // Track 0 carries the engines' wall-clock spans — everything else
    // is virtual time. Fold only the deterministic tracks.
    let modeled: Vec<_> = spans.iter().filter(|s| s.track != 0).cloned().collect();
    let profile = Profile::from_spans(&modeled);
    let tails = exemplars(&modeled, "cluster.query", EXEMPLAR_K);
    (profile, tails)
}

/// Runs both cells over explicit parameters.
fn profile_cells_for(queries_per_cell: usize, qps: f64, seed: u64) -> ProfileSummary {
    let kbs = traffic_kbs(seed);
    let workload = traffic_workload(&kbs, queries_per_cell, qps, seed ^ (1 << 32));
    let (baseline, _) = run_profile_cell(&kbs, &workload, "baseline", seed);
    let (candidate, tails) = run_profile_cell(&kbs, &workload, "crash_one_shard", seed);
    let mut deltas = candidate.diff(&baseline);
    deltas.truncate(TOP_K);
    ProfileSummary {
        queries_per_cell,
        baseline_total_ns: baseline.total_ns(),
        candidate_total_ns: candidate.total_ns(),
        collapsed: baseline.collapsed(),
        hotspots: baseline.hotspots(TOP_K),
        deltas,
        exemplars: tails,
    }
}

/// Runs the committed configuration and enforces the profiling
/// contracts: a non-empty well-formed collapsed export (every line
/// `stack <integer-ns>`), a populated hotspot table, a non-empty
/// differential against the crash plan, and exemplars that carry the
/// full query chain.
fn profile_summary(seed: u64) -> ProfileSummary {
    let summary = profile_cells_for(PROFILE_QUERIES, PROFILE_QPS, seed);
    assert!(!summary.collapsed.is_empty(), "empty collapsed-stack export");
    for line in summary.collapsed.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("collapsed line has a weight");
        assert!(!stack.is_empty(), "collapsed line with empty stack: {line:?}");
        assert!(weight.parse::<u64>().is_ok(), "non-integer collapsed weight: {line:?}");
    }
    assert!(!summary.hotspots.is_empty(), "no hotspots in the baseline profile");
    assert!(!summary.deltas.is_empty(), "the crash plan left no differential against the baseline");
    assert!(!summary.exemplars.is_empty(), "no tail exemplars captured");
    for ex in &summary.exemplars {
        assert!(
            ex.chain.iter().any(|s| s.name == "serve.eval" || s.name == "cluster.admit"),
            "exemplar chain is not a query life: {:?}",
            ex.chain.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
        );
    }
    summary
}

fn hotspot_to_json(h: &Hotspot) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(h.name.clone())),
        ("self_ns".into(), Json::Num(h.self_ns as f64)),
        ("total_ns".into(), Json::Num(h.total_ns as f64)),
        ("count".into(), Json::Num(h.count as f64)),
    ])
}

fn delta_to_json(d: &StackDelta) -> Json {
    Json::Obj(vec![
        ("stack".into(), Json::Str(d.stack.join(";"))),
        ("baseline_ns".into(), Json::Num(d.baseline_ns as f64)),
        ("candidate_ns".into(), Json::Num(d.candidate_ns as f64)),
        ("delta_ns".into(), Json::Num(d.delta_ns() as f64)),
    ])
}

fn exemplar_to_json(e: &Exemplar) -> Json {
    let tenant = e
        .root
        .labels
        .iter()
        .find(|(k, _)| k == "tenant")
        .map_or(Json::Null, |(_, v)| Json::Str(v.clone()));
    Json::Obj(vec![
        ("duration_s".into(), Json::Num(e.duration_s())),
        ("tenant".into(), tenant),
        ("chain".into(), Json::Arr(e.chain.iter().map(|s| Json::Str(s.name.clone())).collect())),
    ])
}

fn summary_to_json(summary: &ProfileSummary, seed: u64) -> Json {
    Json::Obj(vec![
        ("experiment".into(), Json::Str("profile".into())),
        ("seed".into(), Json::Num(seed as f64)),
        ("queries_per_cell".into(), Json::Num(summary.queries_per_cell as f64)),
        ("baseline_total_ns".into(), Json::Num(summary.baseline_total_ns as f64)),
        ("candidate_total_ns".into(), Json::Num(summary.candidate_total_ns as f64)),
        ("collapsed_lines".into(), Json::Num(summary.collapsed.lines().count() as f64)),
        ("hotspots".into(), Json::Arr(summary.hotspots.iter().map(hotspot_to_json).collect())),
        ("diff_vs_crash".into(), Json::Arr(summary.deltas.iter().map(delta_to_json).collect())),
        ("exemplars".into(), Json::Arr(summary.exemplars.iter().map(exemplar_to_json).collect())),
    ])
}

fn summary_to_text(summary: &ProfileSummary) -> String {
    let mut out = String::from("=== profile: flame-graph folding of the serving span forest ===\n");
    let _ = writeln!(
        out,
        "{} queries/cell; baseline {:.3} ms self-time over {} stacks; crash candidate {:.3} ms\n",
        summary.queries_per_cell,
        summary.baseline_total_ns as f64 / 1e6,
        summary.collapsed.lines().count(),
        summary.candidate_total_ns as f64 / 1e6,
    );
    let _ = writeln!(out, "-- top hotspots (baseline, by self time) --");
    let _ = writeln!(out, "{:>18} {:>12} {:>12} {:>7}", "frame", "self us", "total us", "count");
    for h in &summary.hotspots {
        let _ = writeln!(
            out,
            "{:>18} {:>12.2} {:>12.2} {:>7}",
            h.name,
            h.self_ns as f64 / 1e3,
            h.total_ns as f64 / 1e3,
            h.count
        );
    }
    let _ = writeln!(out, "\n-- differential: crash plan vs baseline (top |delta|) --");
    for d in &summary.deltas {
        let _ = writeln!(out, "{:>+12.2} us  {}", d.delta_ns() as f64 / 1e3, d.stack.join(";"));
    }
    let _ = writeln!(out, "\n-- tail exemplars (worst modeled latency under the crash plan) --");
    for e in &summary.exemplars {
        let _ = writeln!(
            out,
            "{:>10.2} us  {}",
            e.duration_s() * 1e6,
            e.chain.iter().map(|s| s.name.as_str()).collect::<Vec<_>>().join(" -> ")
        );
    }
    out.push_str(
        "\n(collapsed-stack export via `reason-eval profile --profile-out FILE`; \
         load in speedscope or inferno-flamegraph)\n",
    );
    out
}

/// The registry row: one run of both cells, both views plus the
/// baseline profile's collapsed stacks — byte-identical per seed.
pub(crate) fn run(args: &Args) -> Output {
    let summary = profile_summary(args.seed);
    Output::sweep(summary_to_text(&summary), summary_to_json(&summary, args.seed))
        .with_artifact(summary.collapsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn tiny_summary() -> ProfileSummary {
        profile_cells_for(80, PROFILE_QPS, 11)
    }

    #[test]
    fn collapsed_export_is_deterministic_and_parseable() {
        let a = tiny_summary();
        let b = tiny_summary();
        assert_eq!(a.collapsed, b.collapsed, "collapsed export must be byte-identical");
        assert!(!a.collapsed.is_empty());
        for line in a.collapsed.lines() {
            let (stack, weight) = line.rsplit_once(' ').expect("weighted line");
            assert!(weight.parse::<u64>().is_ok(), "line {line:?}");
            assert!(stack.split(';').all(|f| !f.is_empty()), "line {line:?}");
        }
        // Sorted stacks are what makes the export canonical.
        let stacks: Vec<&str> = a.collapsed.lines().collect();
        let mut sorted = stacks.clone();
        sorted.sort_unstable();
        assert_eq!(stacks, sorted, "collapsed lines must be lexicographically sorted");
    }

    #[test]
    fn crash_plan_produces_a_differential_and_exemplars() {
        let summary = tiny_summary();
        assert!(!summary.deltas.is_empty(), "crash must move some stack");
        assert!(!summary.exemplars.is_empty());
        // Exemplars are the worst tails, sorted worst-first.
        let durations: Vec<f64> = summary.exemplars.iter().map(|e| e.duration_s()).collect();
        let mut sorted = durations.clone();
        sorted.sort_by(|x, y| y.total_cmp(x));
        assert_eq!(durations, sorted);
    }

    #[test]
    fn profile_json_is_byte_identical_across_runs() {
        let a = summary_to_json(&tiny_summary(), 11).render();
        let b = summary_to_json(&tiny_summary(), 11).render();
        assert_eq!(a, b);
        let parsed = json::parse(&a).expect("profile JSON must parse");
        assert_eq!(parsed.get("experiment").unwrap().as_str(), Some("profile"));
        assert!(parsed.get("hotspots").unwrap().as_arr().unwrap().len() > 3);
    }
}
