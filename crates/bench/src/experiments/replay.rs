//! What the seeded sweeps share, said once: the instance helpers every
//! ladder draws from (weights, the seed walk to an instance with mass,
//! the predictor schedule), and the walk the five traffic-driven sweeps
//! take per cell — [`fresh_cluster`] / [`observed_cluster`] →
//! [`arrivals_at`] → (install a [`scenario_plan`]) → `serve_at` →
//! [`score`] against the single-engine reference.

use std::sync::Arc;

use reason_pc::WmcWeights;
use reason_sat::gen::random_ksat;
use reason_sat::Cnf;
use reason_serve::{
    Admission, Answer, ClusterConfig, ClusterKbId, ClusterReport, FaultPlan, Query, Route,
    ServeCluster,
};
use reason_telemetry::{Telemetry, VirtualClock};

use super::traffic::{traffic_engine_config, Arrival, TrafficKb};

/// Alternating mildly skewed per-variable marginals — one shape for
/// every sweep, so the ladders stay instance-for-instance comparable.
pub(crate) fn sweep_weights(num_vars: usize) -> WmcWeights {
    WmcWeights::new((0..num_vars).map(|v| 0.45 + 0.1 * (v % 2) as f64).collect())
}

/// Walks seeds up from `first_seed` until the random 3-SAT draw carries
/// more than `floor` mass under `weights`; returns it with its seed.
pub(crate) fn instance_with_mass(
    (n, m): (usize, usize),
    weights: &WmcWeights,
    first_seed: u64,
    floor: f64,
) -> (Cnf, u64) {
    let mut seed = first_seed;
    loop {
        let cnf = random_ksat(n, m, 3, seed);
        if reason_pc::CompiledWmc::new(&cnf, weights).wmc() > floor {
            return (cnf, seed);
        }
        seed += 1;
    }
}

/// A trimmed prediction-network schedule: enough to exercise the
/// predicted rung, cheap enough for CI smoke.
pub(crate) fn sweep_predictor() -> reason_approx::PredictConfig {
    reason_approx::PredictConfig { queries: 128, epochs: 150, hidden: 16 }
}

/// A fresh `shards`-wide cluster with every tenant registered; a
/// `telemetry` sink is attached first, so it sees the cell's whole life.
pub(crate) fn fresh_cluster(
    kbs: &[TrafficKb],
    shards: usize,
    seed: u64,
    telemetry: Option<Arc<Telemetry>>,
) -> (ServeCluster, Vec<ClusterKbId>) {
    #[cfg(test)]
    tests::CLUSTERS_BUILT.with(|n| n.set(n.get() + 1));
    let mut cluster =
        ServeCluster::new(ClusterConfig { shards, engine: traffic_engine_config(seed) });
    if let Some(telemetry) = telemetry {
        cluster.attach_telemetry(telemetry);
    }
    let ids =
        kbs.iter().map(|kb| cluster.register(&kb.name, &kb.cnf, kb.weights.clone())).collect();
    (cluster, ids)
}

/// [`fresh_cluster`] observed by a new sink on a [`VirtualClock`], so
/// every span and metric replays byte-identically per seed.
pub(crate) fn observed_cluster(
    kbs: &[TrafficKb],
    shards: usize,
    seed: u64,
) -> (ServeCluster, Vec<ClusterKbId>, Arc<Telemetry>) {
    let telemetry = Arc::new(Telemetry::with_clock(VirtualClock::shared()));
    let (cluster, ids) = fresh_cluster(kbs, shards, seed, Some(telemetry.clone()));
    (cluster, ids, telemetry)
}

/// The workload as `serve_at` arrivals, shifted to start at `offset_s`.
pub(crate) fn arrivals_at(
    kbs: &[TrafficKb],
    ids: &[ClusterKbId],
    workload: &[Arrival],
    offset_s: f64,
) -> Vec<(ClusterKbId, Query, f64)> {
    workload
        .iter()
        .map(|&(kb, shape, deadline, t)| {
            (ids[kb], Query { kind: kbs[kb].shapes[shape].clone(), deadline }, offset_s + t)
        })
        .collect()
}

/// The workload's span in virtual seconds (its last arrival), kept
/// positive so fault windows never collapse.
pub(crate) fn horizon_of(workload: &[Arrival]) -> f64 {
    workload.last().map_or(0.0, |a| a.3).max(f64::MIN_POSITIVE)
}

/// The deterministic fault plan of a named scenario over the virtual
/// window `[start_s, start_s + horizon_s]` on a `shards`-wide cluster.
pub(crate) fn scenario_plan(
    scenario: &str,
    shards: usize,
    start_s: f64,
    horizon_s: f64,
) -> FaultPlan {
    let at = |frac: f64| start_s + frac * horizon_s;
    match scenario {
        // The availability anchor: no faults at all.
        "baseline" => FaultPlan::new(),
        // Shard 0 is dead for the middle 40% of the window.
        "crash_one_shard" => FaultPlan::new().crash(0, at(0.2), at(0.6)),
        // An 8x slowdown rolls across the shards, one equal slice each.
        "rolling_slow" => {
            let slice = 1.0 / shards as f64;
            (0..shards).fold(FaultPlan::new(), |plan, s| {
                plan.slow(s, at(s as f64 * slice), at((s + 1) as f64 * slice), 8.0)
            })
        }
        // Every shard's store is wiped at 30% and 60% of the window.
        "cache_wipe_storm" => (0..shards)
            .fold(FaultPlan::new(), |plan, s| plan.wipe_cache(s, at(0.3)).wipe_cache(s, at(0.6))),
        other => panic!("unknown fault scenario {other:?}"),
    }
}

/// One replay scored against the single-engine, deadline-free reference
/// answers ([`super::traffic::reference_answers`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Score {
    /// Admitted queries that never produced an answer.
    pub(crate) lost: u64,
    /// Queries that received an answer.
    pub(crate) answered: u64,
    /// Queries a fault pushed down the degrade ladder.
    pub(crate) degraded_by_fault: u64,
    /// Every exact answer no fault degraded matched the reference bits.
    pub(crate) exact_bit_identical: bool,
    /// Anytime brackets compared against an exact reference value.
    pub(crate) bounds_checked: usize,
    /// How many of those brackets contained it.
    pub(crate) bounds_contained: usize,
    /// Modeled latency of every admitted query, ascending.
    pub(crate) latencies: Vec<f64>,
}

/// Scores `report` outcome by outcome; `reference[i]` answers arrival
/// `i`. Rejects must be answerless; the report's own stats count them.
pub(crate) fn score(report: &ClusterReport, reference: &[Answer]) -> Score {
    assert_eq!(report.outcomes.len(), reference.len(), "every query keeps an outcome");
    let mut score = Score { exact_bit_identical: true, ..Score::default() };
    for (outcome, want) in report.outcomes.iter().zip(reference) {
        score.degraded_by_fault += u64::from(outcome.degraded_by_fault);
        let Admission::Admit(route) = outcome.decision else {
            assert!(outcome.answer.is_none(), "a reject carries no answer");
            continue;
        };
        score.latencies.push(outcome.modeled_latency_s);
        let Some(answer) = &outcome.answer else {
            score.lost += 1;
            continue;
        };
        score.answered += 1;
        match (route, answer, want) {
            (Route::Exact, got, want) if !outcome.degraded_by_fault => {
                score.exact_bit_identical &= got == want;
            }
            (Route::Approx { .. }, Answer::Bounds { lower, upper, .. }, Answer::Exact(x)) => {
                score.bounds_checked += 1;
                score.bounds_contained += usize::from(lower <= x && x <= upper);
            }
            _ => {}
        }
    }
    score.latencies.sort_by(f64::total_cmp);
    score
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use reason_serve::{AdmissionStats, ClusterOutcome, StageBreakdown};

    thread_local! {
        /// Clusters [`fresh_cluster`] built on this thread, so a test
        /// can count the cells one run replayed.
        pub(crate) static CLUSTERS_BUILT: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
    }

    fn outcome(decision: Admission, answer: Option<Answer>, latency_s: f64) -> ClusterOutcome {
        ClusterOutcome {
            shard: 0,
            decision,
            reason: "pinned",
            answer,
            modeled_latency_s: latency_s,
            stage: StageBreakdown::default(),
            deadline_miss: false,
            latency_s: 0.0,
            attempts: 1,
            failover: false,
            degraded_by_fault: false,
        }
    }

    fn three_outcomes() -> (ClusterReport, Vec<Answer>) {
        let bracket = Answer::Bounds { estimate: 0.3, lower: 0.2, upper: 0.4 };
        let outcomes = vec![
            outcome(Admission::Admit(Route::Exact), Some(Answer::Exact(0.25)), 3e-6),
            outcome(Admission::Admit(Route::Approx { samples: 64 }), Some(bracket), 1e-6),
            outcome(Admission::Reject { backlog_s: 1.0 }, None, 1.0),
        ];
        let reference = vec![Answer::Exact(0.25), Answer::Exact(0.35), Answer::Exact(0.5)];
        (ClusterReport { outcomes, stats: AdmissionStats::default() }, reference)
    }

    #[test]
    fn score_reads_matches_brackets_rejects_exemptions_and_losses() {
        let (mut report, mut reference) = three_outcomes();
        let want = Score {
            lost: 0,
            answered: 2,
            degraded_by_fault: 0,
            exact_bit_identical: true,
            bounds_checked: 1,
            bounds_contained: 1,
            // The reject's backlog is not a latency; admits sort ascending.
            latencies: vec![1e-6, 3e-6],
        };
        assert_eq!(score(&report, &reference), want);
        // One ULP off the reference is a divergence, unless a fault
        // degraded the query; a bracket that misses is checked, not
        // contained; an admitted query without an answer is lost.
        reference[0] = Answer::Exact(f64::from_bits(0.25f64.to_bits() + 1));
        reference[1] = Answer::Exact(0.9);
        assert!(!score(&report, &reference).exact_bit_identical);
        report.outcomes[0].degraded_by_fault = true;
        let exempt = score(&report, &reference);
        assert!(exempt.exact_bit_identical && exempt.degraded_by_fault == 1);
        assert_eq!((exempt.bounds_checked, exempt.bounds_contained), (1, 0));
        report.outcomes[0].answer = None;
        let lossy = score(&report, &reference);
        assert_eq!((lossy.lost, lossy.answered, lossy.latencies.len()), (1, 1, 2));
    }
}
