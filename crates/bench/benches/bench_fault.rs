//! Fault-layer overhead benchmarks: the happy-path cost of the
//! breaker and hedged-retry machinery when no fault ever fires (the
//! contract is <2% on the serve path), plus microbenches for the
//! breaker check and the deterministic backoff computation, and a
//! faulted sweep showing what a crash-failover path costs end to end.
//!
//! `cargo bench --bench bench_fault` (shimmed timing; raise
//! `CRITERION_SHIM_ITERS` for real measurements).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use reason_pc::WmcWeights;
use reason_sat::gen::random_ksat;
use reason_sat::Cnf;
use reason_serve::{
    BreakerConfig, ClusterConfig, FaultConfig, FaultPlan, Query, QueryKind, RetryConfig,
    ServeCluster, ShardHealth,
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

/// The headline pin: a serving sweep bare vs with an (empty-plan) fault
/// domain installed. The guarded run pays one breaker check and the
/// fault-plan point queries per arrival; the contract is <2% overhead.
fn bench_happy_path_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_happy_path_overhead");
    let cnf = sat_instance(12, 36, 5);
    for guarded in [false, true] {
        let label = if guarded { "with_fault_domain" } else { "bare" };
        group.bench_with_input(
            BenchmarkId::new("serve_16_queries", label),
            &guarded,
            |b, &guarded| {
                b.iter(|| {
                    let mut cluster = ServeCluster::new(ClusterConfig::with_shards(2));
                    if guarded {
                        cluster.install_fault_domain(FaultPlan::new(), FaultConfig::default());
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

/// A crash-failover sweep: the same batch served while the home shards
/// are dead, so every query pays retries, breaker bookkeeping, ring
/// reroutes, and a failover-shard recompile.
fn bench_crash_failover(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_crash_failover");
    let cnf = sat_instance(12, 36, 5);
    group.bench_function("serve_16_queries_all_crashed_home", |b| {
        b.iter(|| {
            let mut cluster = ServeCluster::new(ClusterConfig::with_shards(2));
            let kb = cluster.register("bench", &cnf, WmcWeights::uniform(12));
            let home = cluster.shard_of(kb);
            cluster.install_fault_domain(
                FaultPlan::new().crash(home, 0.0, 1e6),
                FaultConfig::default(),
            );
            let batch: Vec<_> = (0..16).map(|_| (kb, Query::exact(QueryKind::Wmc), 0.0)).collect();
            black_box(cluster.serve_at(&batch).unwrap().outcomes.len())
        })
    });
    group.finish();
}

/// Per-arrival fault-layer primitives: one breaker admit check and one
/// deterministic backoff computation.
fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_primitives");
    group.bench_function("breaker_admit_x1000", |b| {
        b.iter(|| {
            let mut health = ShardHealth::new(BreakerConfig::default());
            let mut admitted = 0u32;
            for i in 0..1000 {
                admitted += u32::from(health.admits(i as f64 * 1e-6));
            }
            black_box(admitted)
        })
    });
    let retry = RetryConfig::default();
    group.bench_function("backoff_s_x1000", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for i in 0..1000u64 {
                acc += retry.backoff_s(1 + (i % 3) as u32, i);
            }
            black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_happy_path_overhead, bench_crash_failover, bench_primitives);
criterion_main!(benches);
