//! `reason-telemetry`: the unified observability layer for the REASON
//! stack (paper Sec. VII's per-stage attribution, made a first-class
//! subsystem).
//!
//! Five pieces, all dependency-free:
//!
//! * a [`MetricsRegistry`] of named counters, gauges, and log-bucketed
//!   histograms with exact deterministic p50/p90/p99 extraction
//!   ([`metrics`]);
//! * hierarchical spans ([`Tracer`] / [`SpanGuard`]) driven by an
//!   injectable [`Clock`] — the wall clock in production, a modeled
//!   [`VirtualClock`] in sweeps, so traces are byte-deterministic per
//!   seed ([`trace`]);
//! * two exporters — Prometheus-style text exposition and Chrome
//!   `trace_event` JSON loadable in Perfetto ([`export`]);
//! * flame-graph profiles folded from span forests — collapsed-stack
//!   text, self/total hotspot tables, differential profiles, and
//!   tail-latency exemplars ([`profile`]);
//! * declarative SLOs over registry metrics with multi-window
//!   burn-rate alerting on the injectable clock ([`slo`]).
//!
//! The serving stack (`reason-pc` compile phases, `reason-serve`
//! store/router/cluster, `reason-system` executor) takes an optional
//! `Arc<Telemetry>`; when attached, a query's whole life — admit →
//! route → store probe → (re)compile → batched arena eval — lands in
//! one connected trace tagged with shard and tenant.
//!
//! ```
//! use reason_telemetry::{Telemetry, VirtualClock};
//!
//! let clock = VirtualClock::shared();
//! let tel = Telemetry::with_clock(clock.clone());
//! let hits = tel.registry.counter("store_hits_total", &[("shard", "0")]);
//! hits.inc();
//! let span = tel.tracer.span_on(0, "serve.query", &[("tenant", "kb-a")]);
//! clock.set(0.002);
//! span.end();
//!
//! let text = reason_telemetry::prometheus_text(&tel.registry.snapshot());
//! assert!(text.contains("store_hits_total{shard=\"0\"} 1"));
//! let trace = reason_telemetry::chrome_trace_json(&tel.tracer.finished());
//! assert!(trace.contains("\"name\":\"serve.query\""));
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod export;
pub mod metrics;
pub mod profile;
pub mod slo;
pub mod trace;

use std::sync::Arc;

pub use clock::{Clock, VirtualClock, WallClock};
pub use export::{chrome_trace_json, json_escape, lint_prometheus, prometheus_text};
pub use metrics::{
    bucket_lower, bucket_upper, valid_metric_name, Counter, Gauge, HistBucket, Histogram,
    HistogramSnapshot, MetricSnapshot, MetricValue, MetricsRegistry, DEFAULT_SERIES_LIMIT,
    DROPPED_SERIES_METRIC,
};
pub use profile::{exemplars, Exemplar, Hotspot, Profile, StackDelta, StackWeight};
pub use slo::{Objective, SloAlert, SloMonitor, SloSpec};
pub use trace::{is_well_formed_forest, SpanGuard, SpanHandle, SpanRecord, Tracer};

/// The bundle instrumented components share: one registry plus one
/// tracer on a common clock. Pass it around as `Arc<Telemetry>`.
#[derive(Debug)]
pub struct Telemetry {
    /// The metrics registry.
    pub registry: MetricsRegistry,
    /// The span collector.
    pub tracer: Tracer,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::wall()
    }
}

impl Telemetry {
    /// A telemetry bundle on the monotonic wall clock (production).
    pub fn wall() -> Self {
        Telemetry::with_clock(Arc::new(WallClock::new()))
    }

    /// A telemetry bundle on an injected clock (modeled sweeps inject a
    /// [`VirtualClock`] for byte-deterministic traces).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Telemetry { registry: MetricsRegistry::new(), tracer: Tracer::new(clock) }
    }

    /// A shareable wall-clock bundle.
    pub fn shared() -> Arc<Self> {
        Arc::new(Telemetry::wall())
    }

    /// The clock's current time in seconds.
    pub fn now_s(&self) -> f64 {
        self.tracer.now_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_shares_one_clock() {
        let clock = VirtualClock::shared();
        let tel = Telemetry::with_clock(clock.clone());
        clock.set(4.5);
        assert_eq!(tel.now_s(), 4.5);
        let span = tel.tracer.span("s");
        clock.set(5.0);
        span.end();
        let spans = tel.tracer.finished();
        assert_eq!((spans[0].start_s, spans[0].end_s), (4.5, 5.0));
    }
}
