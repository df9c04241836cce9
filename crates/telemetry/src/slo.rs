//! Declarative service-level objectives with multi-window burn-rate
//! alerting, evaluated over registry metrics on the injectable clock.
//!
//! An [`SloSpec`] names an [`Objective`] — an error fraction read from
//! the [`MetricsRegistry`](crate::MetricsRegistry) — plus an error
//! *budget* (the tolerable bad fraction) and a fast/slow window pair.
//! An [`SloMonitor`] samples the registry at explicit (usually virtual)
//! timestamps, keeps a cumulative `(t, bad, total)` history per spec,
//! and computes the **burn rate** of each window: the windowed bad
//! fraction divided by the budget. An alert fires when *both* windows
//! burn past the spec's threshold — the classic multi-window guard that
//! keeps one bad second from paging while still catching sustained
//! burns fast — and resolves when the fast window recovers. A window
//! reads `0` until the observation history spans it, so a freshly
//! installed monitor cannot page off its first few samples.
//!
//! Everything the monitor produces is itself telemetry: burn rates land
//! in `slo_burn_rate_fast`/`slo_burn_rate_slow` gauges, firings count in
//! `slo_alerts_total`, the in-alert state shows in `slo_alert_active`,
//! and every resolved alert becomes an `slo.alert` span on the
//! monitor's dedicated track, so a sweep's alert history exports
//! through the same Chrome-trace / Prometheus paths as the workload
//! itself — byte-deterministic per seed.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::metrics::{Counter, Gauge, MetricSnapshot, MetricValue};
use crate::Telemetry;

/// An error fraction read from registry metrics. Both variants reduce
/// to cumulative `(bad, total)` event counts, so burn-rate windows
/// difference them like any Prometheus `increase()`.
#[derive(Debug, Clone, PartialEq)]
pub enum Objective {
    /// `bad / total` over named counters, each side summed across every
    /// label set of every listed name. `bad` should be a semantic
    /// subset of `total` (e.g. rejects over rejects + admissions).
    CounterRatio {
        /// Counter names whose sum is the bad-event count.
        bad: Vec<String>,
        /// Counter names whose sum is the total-event count.
        total: Vec<String>,
    },
    /// The fraction of histogram samples at or above a latency
    /// threshold, summed across every label set of the named histogram.
    /// A sample counts as bad when its bucket's lower bound is
    /// `>= threshold_s` — deterministic, and conservative by at most
    /// one bucket's width (samples above the threshold inside a
    /// straddling bucket are not counted).
    LatencyAbove {
        /// The histogram metric name.
        histogram: String,
        /// The latency target in seconds.
        threshold_s: f64,
    },
}

impl Objective {
    /// The cumulative `(bad, total)` counts in a registry snapshot.
    fn measure(&self, snapshot: &[MetricSnapshot]) -> (u64, u64) {
        match self {
            Objective::CounterRatio { bad, total } => {
                let sum_of = |names: &[String]| -> u64 {
                    snapshot
                        .iter()
                        .filter(|m| names.iter().any(|n| n == &m.name))
                        .filter_map(|m| match &m.value {
                            MetricValue::Counter(c) => Some(*c),
                            _ => None,
                        })
                        .sum()
                };
                (sum_of(bad), sum_of(total))
            }
            Objective::LatencyAbove { histogram, threshold_s } => {
                let mut bad = 0u64;
                let mut total = 0u64;
                for m in snapshot.iter().filter(|m| &m.name == histogram) {
                    if let MetricValue::Histogram(h) = &m.value {
                        total += h.count;
                        bad += h
                            .buckets
                            .iter()
                            .filter(|b| b.lower >= *threshold_s)
                            .map(|b| b.count)
                            .sum::<u64>();
                    }
                }
                (bad, total)
            }
        }
    }
}

/// One service-level objective: what to measure, how much failure the
/// budget tolerates, and how aggressively to alert on budget burn.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Objective name — the `slo` label on every derived metric, span,
    /// and alert. Must be a valid metric label value.
    pub name: String,
    /// The error fraction under objective.
    pub objective: Objective,
    /// The tolerable bad fraction (e.g. `0.01` = 99% target). Must be
    /// positive.
    pub budget: f64,
    /// The fast alerting window in clock seconds (must not exceed the
    /// slow window).
    pub fast_window_s: f64,
    /// The slow alerting window in clock seconds.
    pub slow_window_s: f64,
    /// Fire when both windows burn at `>= burn_threshold` times the
    /// budgeted rate; resolve when the fast window drops back below.
    pub burn_threshold: f64,
}

/// One deterministic alert record: when the burn fired, when (if) it
/// resolved, and the worst burn rates seen while active.
#[derive(Debug, Clone, PartialEq)]
pub struct SloAlert {
    /// The [`SloSpec::name`] that fired.
    pub slo: String,
    /// Fire time in clock seconds.
    pub fired_at_s: f64,
    /// Resolve time, or `None` while still active.
    pub resolved_at_s: Option<f64>,
    /// The highest fast-window burn rate observed while active.
    pub peak_burn_fast: f64,
    /// The highest slow-window burn rate observed while active.
    pub peak_burn_slow: f64,
}

/// Cumulative observations of one spec plus its derived metric handles.
#[derive(Debug)]
struct SpecState {
    spec: SloSpec,
    /// `(t, bad, total)` cumulative samples, oldest first. Pruned to
    /// the slow window plus one anchor entry at or before its edge.
    history: VecDeque<(f64, u64, u64)>,
    /// Index into `SloMonitor::alerts` while an alert is active.
    active: Option<usize>,
    burn_fast: Gauge,
    burn_slow: Gauge,
    alerts_total: Counter,
    alert_active: Gauge,
}

/// The windowed burn rate: the bad fraction accrued since the newest
/// history entry at or before `t - window`, divided by the budget.
///
/// A window the history does not yet span reads `0.0`: until `window`
/// seconds of observations exist, no *sustained* burn can be
/// witnessed, so a young monitor stays quiet instead of letting both
/// windows degenerate to noisy "since start" ratios (which would
/// defeat the multi-window guard exactly when samples are fewest).
fn window_burn(history: &VecDeque<(f64, u64, u64)>, t: f64, window: f64, budget: f64) -> f64 {
    let Some(&(_, cur_bad, cur_total)) = history.back() else { return 0.0 };
    let edge = t - window;
    let Some(anchor) = history.iter().rev().find(|(ts, _, _)| *ts <= edge) else {
        return 0.0;
    };
    let d_bad = cur_bad.saturating_sub(anchor.1);
    let d_total = cur_total.saturating_sub(anchor.2);
    if d_total == 0 {
        return 0.0;
    }
    (d_bad as f64 / d_total as f64) / budget
}

/// Evaluates a set of [`SloSpec`]s against a [`Telemetry`] registry at
/// explicit timestamps, recording burn rates, alert state, and resolved
/// alerts back into the same telemetry.
#[derive(Debug)]
pub struct SloMonitor {
    telemetry: Arc<Telemetry>,
    /// The span track `slo.alert` records land on. Pick a track no
    /// workload writes to (the serve cluster reserves `u64::MAX`).
    track: u64,
    specs: Vec<SpecState>,
    alerts: Vec<SloAlert>,
}

impl SloMonitor {
    /// A monitor with no objectives, recording alert spans on `track`.
    pub fn new(telemetry: Arc<Telemetry>, track: u64) -> Self {
        SloMonitor { telemetry, track, specs: Vec::new(), alerts: Vec::new() }
    }

    /// Installs an objective. Its `slo_*` metrics are registered
    /// immediately, so a spec that never burns still exports a full —
    /// and therefore deterministic — metric set.
    ///
    /// # Panics
    ///
    /// On a non-positive budget or threshold, or a fast window longer
    /// than the slow window.
    pub fn add(&mut self, spec: SloSpec) {
        assert!(spec.budget > 0.0, "SLO {:?}: budget must be positive", spec.name);
        assert!(spec.burn_threshold > 0.0, "SLO {:?}: threshold must be positive", spec.name);
        assert!(
            spec.fast_window_s > 0.0 && spec.fast_window_s <= spec.slow_window_s,
            "SLO {:?}: windows must satisfy 0 < fast <= slow",
            spec.name
        );
        let reg = &self.telemetry.registry;
        let labels = [("slo", spec.name.as_str())];
        let state = SpecState {
            burn_fast: reg.gauge("slo_burn_rate_fast", &labels),
            burn_slow: reg.gauge("slo_burn_rate_slow", &labels),
            alerts_total: reg.counter("slo_alerts_total", &labels),
            alert_active: reg.gauge("slo_alert_active", &labels),
            spec,
            history: VecDeque::new(),
            active: None,
        };
        self.specs.push(state);
    }

    /// Samples the registry at time `t` (nondecreasing across calls)
    /// and updates every spec's burn rates and alert state.
    pub fn observe(&mut self, t: f64) {
        let snapshot = self.telemetry.registry.snapshot();
        for st in &mut self.specs {
            let (bad, total) = st.spec.objective.measure(&snapshot);
            st.history.push_back((t, bad, total));
            // Keep one anchor at or before the slow-window edge; drop
            // anything older.
            let edge = t - st.spec.slow_window_s;
            while st.history.len() >= 2 && st.history[1].0 <= edge {
                st.history.pop_front();
            }
            let fast = window_burn(&st.history, t, st.spec.fast_window_s, st.spec.budget);
            let slow = window_burn(&st.history, t, st.spec.slow_window_s, st.spec.budget);
            st.burn_fast.set(fast);
            st.burn_slow.set(slow);
            match st.active {
                None if fast >= st.spec.burn_threshold && slow >= st.spec.burn_threshold => {
                    st.active = Some(self.alerts.len());
                    st.alerts_total.inc();
                    st.alert_active.set(1.0);
                    self.alerts.push(SloAlert {
                        slo: st.spec.name.clone(),
                        fired_at_s: t,
                        resolved_at_s: None,
                        peak_burn_fast: fast,
                        peak_burn_slow: slow,
                    });
                }
                Some(idx) if fast < st.spec.burn_threshold => {
                    let alert = &mut self.alerts[idx];
                    alert.resolved_at_s = Some(t);
                    st.active = None;
                    st.alert_active.set(0.0);
                    self.telemetry.tracer.record_span(
                        self.track,
                        "slo.alert",
                        &[("slo", &st.spec.name)],
                        alert.fired_at_s,
                        t,
                    );
                }
                Some(idx) => {
                    let alert = &mut self.alerts[idx];
                    alert.peak_burn_fast = alert.peak_burn_fast.max(fast);
                    alert.peak_burn_slow = alert.peak_burn_slow.max(slow);
                }
                None => {}
            }
        }
    }

    /// Resolves every still-active alert at time `t` (end of sweep),
    /// recording their spans. Idempotent.
    pub fn finish(&mut self, t: f64) {
        for st in &mut self.specs {
            if let Some(idx) = st.active.take() {
                let alert = &mut self.alerts[idx];
                let end = t.max(alert.fired_at_s);
                alert.resolved_at_s = Some(end);
                st.alert_active.set(0.0);
                self.telemetry.tracer.record_span(
                    self.track,
                    "slo.alert",
                    &[("slo", &st.spec.name)],
                    alert.fired_at_s,
                    end,
                );
            }
        }
    }

    /// Every alert fired so far, in fire order. Active alerts have
    /// `resolved_at_s == None` until [`SloMonitor::finish`] runs.
    pub fn alerts(&self) -> &[SloAlert] {
        &self.alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::trace::is_well_formed_forest;
    use crate::Telemetry;

    fn availability_spec() -> SloSpec {
        SloSpec {
            name: "availability".into(),
            objective: Objective::CounterRatio {
                bad: vec!["rejects_total".into()],
                total: vec!["rejects_total".into(), "admissions_total".into()],
            },
            budget: 0.01,
            fast_window_s: 2.0,
            slow_window_s: 10.0,
            burn_threshold: 10.0,
        }
    }

    fn monitor() -> (Arc<Telemetry>, SloMonitor) {
        let telemetry = Arc::new(Telemetry::with_clock(VirtualClock::shared()));
        let monitor = SloMonitor::new(telemetry.clone(), u64::MAX);
        (telemetry, monitor)
    }

    #[test]
    fn counter_ratio_sums_across_label_sets() {
        let telemetry = Telemetry::wall();
        telemetry.registry.counter("rejects_total", &[("shard", "0")]).add(3);
        telemetry.registry.counter("rejects_total", &[("shard", "1")]).add(2);
        telemetry.registry.counter("admissions_total", &[]).add(95);
        let obj = availability_spec().objective;
        assert_eq!(obj.measure(&telemetry.registry.snapshot()), (5, 100));
    }

    #[test]
    fn latency_objective_counts_slow_buckets() {
        let telemetry = Telemetry::wall();
        let h = telemetry.registry.histogram("latency_seconds", &[]);
        for _ in 0..90 {
            h.record(1e-4);
        }
        for _ in 0..10 {
            h.record(2.0);
        }
        let obj = Objective::LatencyAbove { histogram: "latency_seconds".into(), threshold_s: 1.0 };
        assert_eq!(obj.measure(&telemetry.registry.snapshot()), (10, 100));
        let none =
            Objective::LatencyAbove { histogram: "latency_seconds".into(), threshold_s: 4.0 };
        assert_eq!(none.measure(&telemetry.registry.snapshot()), (0, 100));
    }

    #[test]
    fn quiet_spec_exports_metrics_without_alerting() {
        let (telemetry, mut monitor) = monitor();
        monitor.add(availability_spec());
        let admissions = telemetry.registry.counter("admissions_total", &[]);
        for tick in 0..20 {
            admissions.add(10);
            monitor.observe(tick as f64);
        }
        monitor.finish(20.0);
        assert!(monitor.alerts().is_empty());
        let names: Vec<String> =
            telemetry.registry.snapshot().iter().map(|m| m.name.clone()).collect();
        for expected in
            ["slo_alert_active", "slo_alerts_total", "slo_burn_rate_fast", "slo_burn_rate_slow"]
        {
            assert!(names.iter().any(|n| n == expected), "missing {expected}: {names:?}");
        }
        assert_eq!(
            telemetry.registry.counter("slo_alerts_total", &[("slo", "availability")]).get(),
            0
        );
        assert!(telemetry.tracer.finished().is_empty(), "no alert spans when quiet");
    }

    #[test]
    fn sustained_burn_fires_then_resolves() {
        let (telemetry, mut monitor) = monitor();
        monitor.add(availability_spec());
        let admissions = telemetry.registry.counter("admissions_total", &[]);
        let rejects = telemetry.registry.counter("rejects_total", &[]);
        // Healthy warm-up: well under budget.
        for tick in 0..5 {
            admissions.add(10);
            monitor.observe(tick as f64);
        }
        assert!(monitor.alerts().is_empty());
        // Outage: half of traffic rejected — burn 50x budget.
        let mut fired_at = None;
        for tick in 5..12 {
            admissions.add(5);
            rejects.add(5);
            monitor.observe(tick as f64);
            if fired_at.is_none() && !monitor.alerts().is_empty() {
                fired_at = Some(tick as f64);
            }
        }
        let fired_at = fired_at.expect("sustained burn fires");
        assert_eq!(monitor.alerts().len(), 1, "one alert for one outage");
        assert!(monitor.alerts()[0].resolved_at_s.is_none(), "still burning");
        assert!(monitor.alerts()[0].peak_burn_fast >= 10.0);
        // Recovery: fast window drains and the alert resolves.
        let mut resolved_at = None;
        for tick in 12..30 {
            admissions.add(10);
            monitor.observe(tick as f64);
            if resolved_at.is_none() && monitor.alerts()[0].resolved_at_s.is_some() {
                resolved_at = Some(tick as f64);
            }
        }
        let resolved_at = resolved_at.expect("recovery resolves the alert");
        assert!(resolved_at > fired_at);
        // The alert is telemetry: a counter tick and a span.
        assert_eq!(
            telemetry.registry.counter("slo_alerts_total", &[("slo", "availability")]).get(),
            1
        );
        assert_eq!(
            telemetry.registry.gauge("slo_alert_active", &[("slo", "availability")]).get(),
            0.0
        );
        let spans = telemetry.tracer.finished();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "slo.alert");
        assert_eq!(spans[0].track, u64::MAX);
        assert_eq!((spans[0].start_s, spans[0].end_s), (fired_at, resolved_at));
        assert!(is_well_formed_forest(&spans));
    }

    #[test]
    fn short_spike_does_not_page() {
        let (telemetry, mut monitor) = monitor();
        monitor.add(availability_spec());
        let admissions = telemetry.registry.counter("admissions_total", &[]);
        let rejects = telemetry.registry.counter("rejects_total", &[]);
        // A long healthy history, one bad tick, healthy again: the fast
        // window burns but the slow window absorbs it.
        for tick in 0..40 {
            if tick == 20 {
                rejects.add(5);
                admissions.add(5);
            } else {
                admissions.add(10);
            }
            monitor.observe(tick as f64);
        }
        monitor.finish(40.0);
        assert!(
            monitor.alerts().is_empty(),
            "multi-window gating suppresses one-tick spikes: {:?}",
            monitor.alerts()
        );
    }

    #[test]
    fn finish_resolves_active_alerts() {
        let (telemetry, mut monitor) = monitor();
        monitor.add(availability_spec());
        let rejects = telemetry.registry.counter("rejects_total", &[]);
        // Past the 10 s slow window, an all-reject stream is burning in
        // both windows and fires; the sweep then ends mid-alert.
        for tick in 0..13 {
            rejects.add(10);
            monitor.observe(tick as f64);
        }
        assert_eq!(monitor.alerts().len(), 1);
        assert!(monitor.alerts()[0].resolved_at_s.is_none());
        monitor.finish(13.0);
        monitor.finish(13.0); // idempotent
        assert_eq!(monitor.alerts()[0].resolved_at_s, Some(13.0));
        assert_eq!(telemetry.tracer.finished().len(), 1, "one span despite double finish");
    }

    #[test]
    fn young_windows_stay_quiet_until_spanned() {
        let (telemetry, mut monitor) = monitor();
        monitor.add(availability_spec());
        let rejects = telemetry.registry.counter("rejects_total", &[]);
        // 100% rejects, but the 10 s slow window is not yet covered by
        // history: no sustained burn is witnessable, so no page.
        for tick in 0..9 {
            rejects.add(10);
            monitor.observe(tick as f64);
        }
        assert!(monitor.alerts().is_empty(), "{:?}", monitor.alerts());
        // One more observation past the slow-window span and the same
        // stream fires immediately.
        rejects.add(10);
        monitor.observe(10.5);
        assert_eq!(monitor.alerts().len(), 1);
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn zero_budget_is_rejected() {
        let (_, mut monitor) = monitor();
        let mut spec = availability_spec();
        spec.budget = 0.0;
        monitor.add(spec);
    }
}
