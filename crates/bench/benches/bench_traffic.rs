//! Sharded-cluster benchmarks: consistent-hash ring lookups, admission
//! throughput on a loaded shard, and one traffic-grid cell end to end.
//!
//! `cargo bench --bench bench_traffic` (shimmed timing; raise
//! `CRITERION_SHIM_ITERS` for real measurements).

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use reason_pc::{FormulaFingerprint, WmcWeights};
use reason_sat::gen::random_ksat;
use reason_sat::Cnf;
use reason_serve::{
    ClusterConfig, HashRing, Query, QueryKind, QueryRouter, RouterConfig, ServeCluster,
};

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

/// Ring lookups: the per-query placement cost of the front-end.
fn bench_ring_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_ring");
    let keys: Vec<FormulaFingerprint> = (0..64)
        .map(|i| {
            let cnf = sat_instance(12, 36, i);
            FormulaFingerprint::from_parts(12, cnf.clauses(), &WmcWeights::uniform(12))
        })
        .collect();
    for shards in [4usize, 16] {
        let ring = HashRing::new(shards, 32, 0xC1A5);
        group.bench_with_input(BenchmarkId::new("shard_for_64_keys", shards), &ring, |b, ring| {
            b.iter(|| {
                let mut acc = 0usize;
                for fp in &keys {
                    acc += ring.shard_for(black_box(fp));
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

/// Admission decisions: the pre-dispatch judge on hot telemetry.
fn bench_admission(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_admission");
    let router = QueryRouter::new(RouterConfig::default());
    let telemetry = reason_serve::KbTelemetry::prior(12, 36);
    let queries: Vec<Query> = (0..64)
        .map(|i| match i % 3 {
            0 => Query::exact(QueryKind::Wmc),
            1 => Query::with_deadline(QueryKind::Wmc, Duration::from_millis(1)),
            _ => Query::with_deadline(QueryKind::Wmc, Duration::from_micros(50)),
        })
        .collect();
    group.bench_function("admit_64_mixed_deadlines", |b| {
        b.iter(|| {
            let mut admitted = 0usize;
            for (i, q) in queries.iter().enumerate() {
                let backlog = 1e-6 * (i % 7) as f64;
                if router.admit(q, &telemetry, backlog).route().is_some() {
                    admitted += 1;
                }
            }
            black_box(admitted)
        })
    });
    group.finish();
}

/// One cluster batch end to end: register, admit, dispatch, answer.
fn bench_cluster_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_serve");
    let cnf = sat_instance(12, 36, 5);
    for shards in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("serve_16_queries", shards), &shards, |b, &s| {
            b.iter(|| {
                let mut cluster = ServeCluster::new(ClusterConfig::with_shards(s));
                let kb = cluster.register("bench", &cnf, WmcWeights::uniform(12));
                let batch: Vec<_> =
                    (0..16).map(|_| (kb, Query::exact(QueryKind::Wmc), 0.0)).collect();
                black_box(cluster.serve_at(&batch).unwrap().outcomes.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ring_lookup, bench_admission, bench_cluster_batch);
criterion_main!(benches);
