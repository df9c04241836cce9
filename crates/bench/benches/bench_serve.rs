//! Serving-engine benchmarks: cold registration+compile against warm
//! store-served queries (a batch of one and a batch of eight), and
//! incremental recompilation through the persistent component cache.
//!
//! `cargo bench --bench bench_serve` (shimmed timing; raise
//! `CRITERION_SHIM_ITERS` for real measurements).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use reason_pc::{Evidence, WmcWeights};
use reason_sat::gen::random_ksat;
use reason_sat::Cnf;
use reason_serve::{Query, QueryKind, ServeConfig, ServeEngine};

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

/// The cold path: register + first compiled query, from nothing.
fn bench_cold_serve(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_cold");
    for (n, m) in [(12usize, 36usize), (20, 44)] {
        let cnf = sat_instance(n, m, 5);
        group.bench_with_input(BenchmarkId::new("register_compile_query", n), &cnf, |b, cnf| {
            b.iter(|| {
                let mut engine = ServeEngine::new(ServeConfig::default());
                let id = engine.register("bench", cnf, WmcWeights::uniform(cnf.num_vars()));
                black_box(engine.serve(id, &[Query::exact(QueryKind::Wmc)]).unwrap().outcomes.len())
            })
        });
    }
    group.finish();
}

/// The warm path the store buys: routed executor batches of one and of
/// eight against the hot artifact.
fn bench_warm_serve(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_warm");
    for (n, m) in [(12usize, 36usize), (20, 44)] {
        let cnf = sat_instance(n, m, 5);
        let mut engine = ServeEngine::new(ServeConfig::default());
        let id = engine.register("bench", &cnf, WmcWeights::uniform(n));
        engine.warm(id).unwrap();
        let mut ev = Evidence::empty(n);
        ev.set(0, 1).set(n - 1, 0);
        let batch: Vec<Query> =
            (0..8).map(|_| Query::exact(QueryKind::Posterior(ev.clone()))).collect();
        for width in [1, 8] {
            group.bench_function(BenchmarkId::new(format!("routed_batch_{width}"), n), |b| {
                b.iter(|| black_box(engine.serve(id, &batch[..width]).unwrap().outcomes.len()))
            });
        }
    }
    group.finish();
}

/// Incremental maintenance: add a clause, recompile through the
/// persistent component cache (vs. the from-scratch alternative the
/// cold bench measures).
fn bench_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_incremental");
    let n = 20;
    let cnf = sat_instance(n, 44, 5);
    group.bench_function(BenchmarkId::new("add_clause_recompile", n), |b| {
        b.iter(|| {
            let mut engine = ServeEngine::new(ServeConfig::default());
            let id = engine.register("bench", &cnf, WmcWeights::uniform(n));
            engine.warm(id).unwrap();
            engine.add_clause(id, &[1, -2, 3]);
            black_box(engine.serve(id, &[Query::exact(QueryKind::Wmc)]).unwrap().outcomes.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cold_serve, bench_warm_serve, bench_incremental);
criterion_main!(benches);
