//! Telemetry overhead benchmarks: the hot-path cost of cached metric
//! handles (atomic counters, gauge stores, histogram recordings) and
//! the end-to-end overhead of attaching a full telemetry sink to a
//! serving sweep — the registry's contract is <2% on the serve path.
//!
//! `cargo bench --bench bench_telemetry` (shimmed timing; raise
//! `CRITERION_SHIM_ITERS` for real measurements).

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use reason_pc::WmcWeights;
use reason_sat::gen::random_ksat;
use reason_sat::Cnf;
use reason_serve::{ClusterConfig, Query, QueryKind, ServeCluster};
use reason_telemetry::{MetricsRegistry, Telemetry, Tracer, VirtualClock};

fn sat_instance(n: usize, m: usize, seed: u64) -> Cnf {
    let mut s = seed;
    loop {
        let cnf = random_ksat(n, m, 3, s);
        if reason_pc::weighted_model_count(&cnf, &WmcWeights::uniform(n)) > 0.0 {
            return cnf;
        }
        s += 1;
    }
}

/// Cached-handle updates: the per-event cost instrumented hot loops pay.
/// Counters and gauges are single relaxed atomics; histograms take a
/// short mutex.
fn bench_handles(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_handles");
    let registry = MetricsRegistry::new();
    let counter = registry.counter("bench_events_total", &[("shard", "0")]);
    let gauge = registry.gauge("bench_entries", &[]);
    let histogram = registry.histogram("bench_latency_seconds", &[("shard", "0")]);
    group.bench_function("counter_inc_x1000", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                counter.inc();
            }
            black_box(counter.get())
        })
    });
    group.bench_function("gauge_set_x1000", |b| {
        b.iter(|| {
            for i in 0..1000 {
                gauge.set(i as f64);
            }
            black_box(gauge.get())
        })
    });
    group.bench_function("histogram_record_x1000", |b| {
        b.iter(|| {
            for i in 0..1000 {
                histogram.record(1e-6 * (1 + i % 97) as f64);
            }
            black_box(histogram.snapshot().count)
        })
    });
    group.finish();
}

/// Handle lookup (registry lock + BTreeMap) vs the cached fast path —
/// the reason call sites hold handles instead of re-resolving names.
fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_lookup");
    let registry = MetricsRegistry::new();
    for shard in 0..4 {
        registry.counter("bench_lookup_total", &[("shard", &shard.to_string())]).inc();
    }
    group.bench_function("counter_resolve_x100", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..100u32 {
                let shard = (i % 4).to_string();
                acc += registry.counter("bench_lookup_total", &[("shard", &shard)]).get();
            }
            black_box(acc)
        })
    });
    group.finish();
}

/// Span recording on a virtual clock: the modeled-sweep tracing path.
fn bench_spans(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_spans");
    group.bench_function("record_span_chain_x100", |b| {
        b.iter(|| {
            let tracer = Tracer::new(VirtualClock::shared());
            for i in 0..100 {
                let t = i as f64 * 1e-3;
                let root = tracer.record_span(
                    i,
                    "cluster.query",
                    &[("shard", "0"), ("tenant", "kb")],
                    t,
                    t + 1e-3,
                );
                tracer.record_span_under(i, "serve.eval", &[], t, t + 1e-3, root);
            }
            black_box(tracer.finished().len())
        })
    });
    group.finish();
}

/// The headline pin: a serving sweep with and without an attached sink.
/// The instrumented run pays cached-atomic updates plus span records;
/// the contract is <2% end-to-end overhead.
fn bench_serve_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_serve_overhead");
    let cnf = sat_instance(12, 36, 5);
    for instrumented in [false, true] {
        let label = if instrumented { "with_telemetry" } else { "bare" };
        group.bench_with_input(
            BenchmarkId::new("serve_16_queries", label),
            &instrumented,
            |b, &instrumented| {
                b.iter(|| {
                    let mut cluster = ServeCluster::new(ClusterConfig::with_shards(2));
                    if instrumented {
                        let tel = Arc::new(Telemetry::with_clock(VirtualClock::shared()));
                        cluster.attach_telemetry(tel);
                    }
                    let kb = cluster.register("bench", &cnf, WmcWeights::uniform(12));
                    let batch: Vec<_> =
                        (0..16).map(|_| (kb, Query::exact(QueryKind::Wmc), 0.0)).collect();
                    black_box(cluster.serve_at(&batch).unwrap().outcomes.len())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_handles, bench_lookup, bench_spans, bench_serve_overhead);
criterion_main!(benches);
