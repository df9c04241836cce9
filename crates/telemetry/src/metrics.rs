//! The metrics registry: named counters, gauges, and log-bucketed
//! histograms with exact deterministic quantile extraction.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`
//! clones that call sites cache once and update lock-free thereafter:
//! counters and gauges are single atomics, so the hot path never takes
//! the registry lock. Histograms serialize recordings through a light
//! mutex — they sit on per-batch paths, not per-node inner loops.
//!
//! # Histogram buckets
//!
//! Recorded values land in logarithmic buckets derived from the IEEE-754
//! bit pattern: bucket index `v.to_bits() >> 49` splits every power of
//! two into 8 sub-buckets (relative width ≤ 12.5%), is monotone in the
//! value, and handles subnormals with no special casing. Bucket bounds
//! are exact (`f64::from_bits(index << 49)`), so quantiles — reported as
//! the lower bound of the bucket holding the nearest-rank sample — are
//! deterministic, always lie within the true bucket bounds, and are
//! monotone in rank. Zero, negative, and `+inf` samples get dedicated
//! buckets; `NaN` recordings are tallied separately and excluded from
//! `count`/`sum`/quantiles.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Bits shifted off a positive `f64` to get its bucket index: keeps the
/// sign-free exponent plus the top 3 mantissa bits (8 sub-buckets per
/// octave).
const BUCKET_SHIFT: u32 = 49;

/// A canonical metric identity: name plus key-sorted labels.
pub(crate) type MetricId = (String, Vec<(String, String)>);

fn canonical_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> =
        labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    out.sort();
    out
}

/// `true` iff `name` is a legal metric/label identifier
/// (`[a-zA-Z_][a-zA-Z0-9_]*`) — the grammar the Prometheus exposition
/// lint enforces.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// A monotone event counter. Lock-free: one atomic increment per event.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (stored as `f64` bits in one
/// atomic — lock-free).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug, Default)]
struct HistState {
    /// Positive finite samples, keyed by log bucket index.
    finite: BTreeMap<u16, u64>,
    zero: u64,
    negative: u64,
    infinite: u64,
    nan: u64,
    sum: f64,
    count: u64,
}

/// A log-bucketed histogram handle (see the module docs for the bucket
/// layout and quantile semantics).
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<Mutex<HistState>>);

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: f64) {
        let mut s = self.0.lock().expect("histogram lock");
        if v.is_nan() {
            s.nan += 1;
            return;
        }
        s.count += 1;
        s.sum += v;
        if v == 0.0 {
            s.zero += 1;
        } else if v < 0.0 {
            s.negative += 1;
        } else if v.is_infinite() {
            s.infinite += 1;
        } else {
            *s.finite.entry((v.to_bits() >> BUCKET_SHIFT) as u16).or_insert(0) += 1;
        }
    }

    /// Merges `other`'s current state into `self` — bucket-wise sums,
    /// so the merged histogram's snapshot (buckets, count, sum,
    /// quantiles) is identical to tallying both sample streams into one
    /// histogram. The cross-shard aggregation path: each shard records
    /// locally, the collector merges. Merging a histogram into itself
    /// doubles it.
    pub fn merge(&self, other: &Histogram) {
        // Copy `other` out before locking `self`: the locks never
        // overlap, so self-merge cannot deadlock.
        let o = {
            let s = other.0.lock().expect("histogram lock");
            (s.finite.clone(), s.zero, s.negative, s.infinite, s.nan, s.sum, s.count)
        };
        let mut s = self.0.lock().expect("histogram lock");
        for (idx, c) in o.0 {
            *s.finite.entry(idx).or_insert(0) += c;
        }
        s.zero += o.1;
        s.negative += o.2;
        s.infinite += o.3;
        s.nan += o.4;
        s.sum += o.5;
        s.count += o.6;
    }

    /// An immutable copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let s = self.0.lock().expect("histogram lock");
        let mut buckets = Vec::with_capacity(s.finite.len() + 3);
        if s.negative > 0 {
            buckets.push(HistBucket { lower: f64::NEG_INFINITY, upper: 0.0, count: s.negative });
        }
        if s.zero > 0 {
            buckets.push(HistBucket { lower: 0.0, upper: 0.0, count: s.zero });
        }
        for (&idx, &count) in &s.finite {
            buckets.push(HistBucket { lower: bucket_lower(idx), upper: bucket_upper(idx), count });
        }
        if s.infinite > 0 {
            buckets.push(HistBucket {
                lower: f64::INFINITY,
                upper: f64::INFINITY,
                count: s.infinite,
            });
        }
        HistogramSnapshot { buckets, count: s.count, sum: s.sum, nan: s.nan }
    }
}

/// The exact lower bound of finite bucket `idx`: every sample in the
/// bucket is `>=` this value.
pub fn bucket_lower(idx: u16) -> f64 {
    f64::from_bits((idx as u64) << BUCKET_SHIFT)
}

/// The exclusive upper bound of finite bucket `idx`: every sample in
/// the bucket is `<` this value (the top bucket's bound is `+inf`).
pub fn bucket_upper(idx: u16) -> f64 {
    f64::from_bits(((idx as u64) + 1) << BUCKET_SHIFT)
}

/// One histogram bucket in a snapshot: samples `v` with
/// `lower <= v < upper` (the zero bucket has `lower == upper == 0`, the
/// infinity bucket `lower == upper == +inf`; both hold exact values).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistBucket {
    /// Inclusive lower bound.
    pub lower: f64,
    /// Exclusive upper bound (inclusive for the degenerate zero / inf
    /// buckets).
    pub upper: f64,
    /// Samples in the bucket.
    pub count: u64,
}

/// An immutable histogram state: non-empty buckets in ascending value
/// order, plus the sample count and sum.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramSnapshot {
    /// Non-empty buckets, ascending.
    pub buckets: Vec<HistBucket>,
    /// Total non-NaN samples.
    pub count: u64,
    /// Sum of all non-NaN samples (exact for integer-valued samples
    /// below 2^53 regardless of recording order).
    pub sum: f64,
    /// NaN recordings (excluded from `count`, `sum`, and quantiles).
    pub nan: u64,
}

impl HistogramSnapshot {
    /// The exact nearest-rank `q`-quantile, reported as the lower bound
    /// of the bucket holding the rank-`ceil(q * count)` sample
    /// (`q = 0` reports the first bucket). `None` on an empty
    /// histogram. Deterministic, within the true bucket bounds of the
    /// selected sample, and monotone in `q`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for b in &self.buckets {
            seen += b.count;
            if seen >= rank {
                return Some(b.lower);
            }
        }
        // Unreachable when bucket counts sum to `count`; report the top
        // bucket defensively.
        self.buckets.last().map(|b| b.lower)
    }

    /// Median ([`HistogramSnapshot::quantile`] at 0.5).
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// 90th percentile.
    pub fn p90(&self) -> Option<f64> {
        self.quantile(0.9)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }
}

/// One exported metric: canonical identity plus current value.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Metric name (`[a-zA-Z_][a-zA-Z0-9_]*`).
    pub name: String,
    /// Key-sorted labels.
    pub labels: Vec<(String, String)>,
    /// The value at snapshot time.
    pub value: MetricValue,
}

/// The value half of a [`MetricSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotone count.
    Counter(u64),
    /// Instantaneous value.
    Gauge(f64),
    /// Bucketed distribution.
    Histogram(HistogramSnapshot),
}

/// The counter that tallies series dropped by the cardinality guard.
/// Exempt from the cap itself, so the drop signal always exports.
pub const DROPPED_SERIES_METRIC: &str = "telemetry_dropped_series_total";

/// Default cap on distinct registered series — far above any sane
/// sweep (hundreds of series) yet a hard stop against adversarial
/// label cardinality (e.g. a tenant id per request).
pub const DEFAULT_SERIES_LIMIT: usize = 10_000;

#[derive(Debug)]
struct RegistryInner {
    counters: BTreeMap<MetricId, Counter>,
    gauges: BTreeMap<MetricId, Gauge>,
    histograms: BTreeMap<MetricId, Histogram>,
    series_limit: usize,
}

impl Default for RegistryInner {
    fn default() -> Self {
        RegistryInner {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            series_limit: DEFAULT_SERIES_LIMIT,
        }
    }
}

impl RegistryInner {
    fn series_count(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// `true` when registering one more series under `name` would
    /// exceed the cap. The drop counter itself is exempt: the overflow
    /// signal must never be a casualty of the overflow.
    fn would_overflow(&self, name: &str) -> bool {
        name != DROPPED_SERIES_METRIC && self.series_count() >= self.series_limit
    }

    /// Tallies one dropped series.
    fn count_drop(&mut self) {
        self.counters.entry((DROPPED_SERIES_METRIC.to_string(), Vec::new())).or_default().inc();
    }
}

/// The process-wide (or sweep-wide) collection of metrics. Handle
/// lookup takes a lock; the returned handles do not.
///
/// # Cardinality guard
///
/// Distinct series (name + label set) are capped at
/// [`DEFAULT_SERIES_LIMIT`]. Once the cap is reached, lookups of
/// *existing* series keep working, but a lookup that would mint a new
/// series instead returns a detached handle (a
/// live metric that is not exported) and increments
/// [`DROPPED_SERIES_METRIC`] — so adversarial label cardinality
/// degrades to a counted, visible drop instead of unbounded memory.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry with the default series cap.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// An empty registry capped at `limit` distinct series, for the
    /// unit test of the cap itself.
    #[cfg(test)]
    fn with_series_limit(limit: usize) -> Self {
        let reg = MetricsRegistry::default();
        reg.inner.lock().expect("registry lock").series_limit = limit;
        reg
    }

    /// Distinct series currently registered.
    #[cfg(test)]
    fn series_count(&self) -> usize {
        self.inner.lock().expect("registry lock").series_count()
    }

    fn id(name: &str, labels: &[(&str, &str)]) -> MetricId {
        debug_assert!(valid_metric_name(name), "invalid metric name {name:?}");
        debug_assert!(
            labels.iter().all(|(k, _)| valid_metric_name(k)),
            "invalid label key in {labels:?}"
        );
        (name.to_string(), canonical_labels(labels))
    }

    /// The counter registered under `(name, labels)`, created on first
    /// use. Cache the handle; increments are lock-free.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let id = Self::id(name, labels);
        let mut inner = self.inner.lock().expect("registry lock");
        if let Some(c) = inner.counters.get(&id) {
            return c.clone();
        }
        if inner.would_overflow(name) {
            inner.count_drop();
            return Counter::default();
        }
        inner.counters.entry(id).or_default().clone()
    }

    /// The gauge registered under `(name, labels)`, created on first
    /// use.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let id = Self::id(name, labels);
        let mut inner = self.inner.lock().expect("registry lock");
        if let Some(g) = inner.gauges.get(&id) {
            return g.clone();
        }
        if inner.would_overflow(name) {
            inner.count_drop();
            return Gauge::default();
        }
        inner.gauges.entry(id).or_default().clone()
    }

    /// The histogram registered under `(name, labels)`, created on
    /// first use.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let id = Self::id(name, labels);
        let mut inner = self.inner.lock().expect("registry lock");
        if let Some(h) = inner.histograms.get(&id) {
            return h.clone();
        }
        if inner.would_overflow(name) {
            inner.count_drop();
            return Histogram::default();
        }
        inner.histograms.entry(id).or_default().clone()
    }

    /// Every registered metric, sorted by `(name, labels)` — the
    /// deterministic order both exporters emit.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let inner = self.inner.lock().expect("registry lock");
        let mut out = Vec::new();
        for ((name, labels), c) in &inner.counters {
            out.push(MetricSnapshot {
                name: name.clone(),
                labels: labels.clone(),
                value: MetricValue::Counter(c.get()),
            });
        }
        for ((name, labels), g) in &inner.gauges {
            out.push(MetricSnapshot {
                name: name.clone(),
                labels: labels.clone(),
                value: MetricValue::Gauge(g.get()),
            });
        }
        for ((name, labels), h) in &inner.histograms {
            out.push(MetricSnapshot {
                name: name.clone(),
                labels: labels.clone(),
                value: MetricValue::Histogram(h.snapshot()),
            });
        }
        out.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_state_per_identity() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("queries_total", &[("route", "exact")]);
        // Label order is canonicalized, so a permuted spelling is the
        // same counter.
        let b = reg.counter("queries_total", &[("route", "exact")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let other = reg.counter("queries_total", &[("route", "approx")]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    fn gauge_holds_last_write() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("store_bytes", &[]);
        assert_eq!(g.get(), 0.0);
        g.set(1.5e9);
        assert_eq!(g.get(), 1.5e9);
    }

    #[test]
    fn histogram_buckets_bound_their_samples() {
        let h = Histogram::default();
        for v in [1e-300, 0.1, 0.5, 1.0, 1.5, 2.0, 1e12] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 7);
        for b in &snap.buckets {
            assert!(b.lower <= b.upper);
        }
        // Each sample lies inside exactly one snapshot bucket.
        for v in [1e-300, 0.1, 0.5, 1.0, 1.5, 2.0, 1e12] {
            let holding: Vec<_> = snap
                .buckets
                .iter()
                .filter(|b| b.lower <= v && (v < b.upper || (v == b.upper && b.lower == b.upper)))
                .collect();
            assert_eq!(holding.len(), 1, "sample {v} has one bucket");
        }
    }

    #[test]
    fn quantiles_are_exact_on_separated_samples() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.record(1.0);
        }
        for _ in 0..10 {
            h.record(1000.0);
        }
        let snap = h.snapshot();
        assert_eq!(snap.p50(), Some(1.0));
        assert_eq!(snap.p90(), Some(1.0));
        // Rank ceil(0.99 * 100) = 99 lands in the 1000-bucket; the
        // reported lower bound is within 12.5% below the true value.
        let p99 = snap.p99().unwrap();
        assert!(p99 <= 1000.0 && p99 > 1000.0 * 0.875, "p99 = {p99}");
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let snap = Histogram::default().snapshot();
        assert_eq!(snap.quantile(0.5), None);
        assert_eq!(snap.count, 0);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let reg = MetricsRegistry::new();
        reg.counter("b_total", &[]).inc();
        reg.gauge("a_value", &[]).set(2.0);
        reg.histogram("c_hist", &[("shard", "0")]).record(1.0);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["a_value", "b_total", "c_hist"]);
    }

    #[test]
    fn merged_histograms_match_a_single_tally() {
        let a = Histogram::default();
        let b = Histogram::default();
        let one = Histogram::default();
        let samples_a = [0.0, 1.0, 7.0, -3.0, f64::INFINITY, f64::NAN, 1e9];
        let samples_b = [2.0, 7.0, 0.0, 512.0];
        for v in samples_a {
            a.record(v);
            one.record(v);
        }
        for v in samples_b {
            b.record(v);
            one.record(v);
        }
        a.merge(&b);
        assert_eq!(a.snapshot(), one.snapshot(), "merge == tallying into one histogram");
        assert_eq!(a.snapshot().p99(), one.snapshot().p99());
    }

    #[test]
    fn self_merge_doubles() {
        let h = Histogram::default();
        h.record(1.0);
        h.record(4.0);
        h.merge(&h);
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum, 10.0);
    }

    #[test]
    fn cardinality_guard_drops_new_series_past_the_cap() {
        let reg = MetricsRegistry::with_series_limit(3);
        let a = reg.counter("kept_total", &[("tenant", "a")]);
        let b = reg.counter("kept_total", &[("tenant", "b")]);
        reg.gauge("kept_value", &[]);
        assert_eq!(reg.series_count(), 3);
        // At capacity: a new series is dropped, counted, and detached.
        let dropped = reg.counter("kept_total", &[("tenant", "zzz")]);
        dropped.inc();
        reg.histogram("new_hist", &[]).record(1.0);
        reg.gauge("new_value", &[]).set(9.0);
        assert_eq!(reg.counter(DROPPED_SERIES_METRIC, &[]).get(), 3);
        // Existing series still resolve to their shared state...
        a.inc();
        reg.counter("kept_total", &[("tenant", "a")]).inc();
        assert_eq!(a.get(), 2);
        assert_eq!(b.get(), 0);
        // ...and the snapshot holds the capped set plus the drop
        // counter, not the adversarial series.
        let names: Vec<String> = reg.snapshot().iter().map(|m| m.name.clone()).collect();
        assert_eq!(names, vec!["kept_total", "kept_total", "kept_value", DROPPED_SERIES_METRIC]);
    }

    #[test]
    fn default_limit_is_roomy() {
        let reg = MetricsRegistry::new();
        for i in 0..100 {
            reg.counter("series_total", &[("i", &i.to_string())]).inc();
        }
        assert_eq!(reg.series_count(), 100);
        assert_eq!(reg.counter(DROPPED_SERIES_METRIC, &[]).get(), 0);
    }

    #[test]
    fn metric_name_grammar() {
        assert!(valid_metric_name("serve_queries_total"));
        assert!(valid_metric_name("_hidden"));
        assert!(!valid_metric_name("9lives"));
        assert!(!valid_metric_name("has-dash"));
        assert!(!valid_metric_name(""));
    }
}
