//! The five workloads, and what they share: tenants with query menus,
//! the benchmark's own twin arenas, and the serving rung chain replayed
//! in traced rounds.

use std::sync::Arc;

use crate::bench::Bench;
use crate::checks;
use crate::gen::{mixed_kind, shape, Kb, Kind, Shape, SplitMix64};
use crate::layers::{
    self, Arena, Formula, KbId, Query, Reply, Rung, ServeCluster, ServeEngine, Served, TenantId,
};

pub mod cold_ladder;
pub mod edit_churn;
pub mod hot_point;
pub mod hot_wide;
pub mod paper_lowering;

/// Runs one workload to completion inside `b`.
pub fn run(name: &str, b: &mut Bench) -> Result<(), String> {
    match name {
        "cold_ladder" => cold_ladder::run(b),
        "hot_point" => hot_point::run(b),
        "hot_wide" => hot_wide::run(b),
        "edit_churn" => edit_churn::run(b),
        "paper_lowering" => paper_lowering::run(b),
        other => return Err(format!("unknown workload `{other}`")),
    }
    Ok(())
}

/// Generates one workload's inputs without running it, folding them
/// into `b`'s input digest.
#[cfg(test)]
pub fn generate(name: &str, b: &mut Bench) -> Result<(), String> {
    match name {
        "cold_ladder" => drop(cold_ladder::generate(b)),
        "hot_point" => drop(hot_point::generate(b)),
        "hot_wide" => drop(hot_wide::generate(b)),
        "edit_churn" => drop(edit_churn::generate(b)),
        "paper_lowering" => drop(paper_lowering::generate(b)),
        other => return Err(format!("unknown workload `{other}`")),
    }
    Ok(())
}

/// Brute-force enumeration is `2^n`; beyond this the identities carry
/// the check alone.
const BRUTE_MAX_VARS: usize = 18;
/// Up to here every shape is enumerated; above, only the first few.
const BRUTE_ALL_SHAPES_MAX_VARS: usize = 14;

/// One knowledge base with its fixed query menu.
#[derive(Debug, Clone)]
pub struct Tenant {
    pub name: String,
    pub kb: Kb,
    pub formula: Formula,
    pub shapes: Vec<Shape>,
    /// `shapes` as deadline-free queries.
    pub queries: Vec<Query>,
}

impl Tenant {
    /// `kb` with a menu of `shapes` query shapes in the hot-path kind
    /// mix; shape 0 is always `Wmc` (the warm-up query).
    pub fn on(rng: &mut SplitMix64, index: usize, kb: Kb, shapes: usize) -> Tenant {
        let shapes: Vec<Shape> = (0..shapes)
            .map(|j| {
                let kind = if j == 0 { Kind::Wmc } else { mixed_kind(j - 1) };
                shape(rng, &kb, kind)
            })
            .collect();
        Tenant::with_shapes(format!("tenant-{index}"), kb, shapes)
    }

    pub fn with_shapes(name: String, kb: Kb, shapes: Vec<Shape>) -> Tenant {
        let formula = layers::formula(&kb);
        let queries = shapes.iter().map(|s| layers::query(kb.n, s)).collect();
        Tenant { name, kb, formula, shapes, queries }
    }

    pub fn digest_into(&self, b: &mut Bench) {
        self.kb.digest_into(&mut b.digest);
        for s in &self.shapes {
            s.digest_into(&mut b.digest);
        }
    }
}

/// The benchmark's own compile of a tenant: the arena the lower rungs
/// replay on, and the reference every exact answer must equal.
#[derive(Debug, Clone)]
pub struct Twin {
    pub arena: Arc<Arena>,
    pub z: f64,
    /// The arena's reply to each of the tenant's shapes.
    pub expected: Vec<Reply>,
}

impl Twin {
    /// Compiles and flattens the tenant through the `reason-pc` rungs,
    /// answers its whole menu on the arena, and checks those answers by
    /// brute force (small `n`) and by identities before anything is
    /// compared against them.
    pub fn build(b: &mut Bench, tenant: &Tenant) -> Twin {
        let circuit = layers::compile(&tenant.formula).value.expect("planted formulas have mass");
        let arena = layers::flatten(&circuit).value;
        let z = layers::eval_single(&arena, &[]).value;
        let expected = layers::eval_batch(&arena, z, &tenant.queries).replies;

        let kb = &tenant.kb;
        if z <= 0.0 {
            b.check(Err(format!("n={}: planted formula compiled to mass {z}", kb.n)));
        }
        let brute_z =
            (kb.n <= BRUTE_MAX_VARS).then(|| layers::brute_probability(&tenant.formula, &[]));
        for (j, (s, reply)) in tenant.shapes.iter().zip(&expected).enumerate() {
            b.check(checks::reply_is_sane(kb, s, reply, Some(z)));
            let scalar = !matches!(s.kind, Kind::Marginal | Kind::Mpe);
            if let Some(brute_z) = brute_z.filter(|_| scalar) {
                if kb.n <= BRUTE_ALL_SHAPES_MAX_VARS || j < 4 {
                    let joint = layers::brute_probability(&tenant.formula, &s.evidence);
                    b.check(checks::matches_brute(kb, s, reply, joint, brute_z));
                }
            }
        }
        let var = tenant.shapes[0].var;
        let with = layers::eval_single(&arena, &[(var, true)]).value;
        let without = layers::eval_single(&arena, &[(var, false)]).value;
        b.check(checks::splits_add_up(kb, var, with, without, z));

        Twin { arena, z, expected }
    }
}

/// Reports the circuit-store activity between two counter readings.
pub fn report_store(b: &mut Bench, before: layers::StoreCounts, after: layers::StoreCounts) {
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    b.set("serve.store.hit_share", hits as f64 / (hits + misses).max(1) as f64);
    b.set("serve.store.evictions", (after.evictions - before.evictions) as f64);
    b.set("serve.store.bytes", after.bytes as f64);
    b.set("pc.compile.calls", (after.insertions - before.insertions) as f64);
}

/// Checks one deadline-free reply from a real entry point: it must be
/// on the exact rung and equal the twin arena's reply bit for bit.
pub fn check_exact(b: &mut Bench, tenant: &Tenant, twin: &Twin, shape: usize, served: &Served) {
    if served.rung != Rung::Exact {
        b.fail(1, || format!("{}: deadline-free query served on {:?}", tenant.name, served.rung));
        return;
    }
    b.check(checks::matches_twin(
        &tenant.kb,
        &tenant.shapes[shape],
        &served.reply,
        &twin.expected[shape],
    ));
}

/// The rungs below a serving entry point, replayed for one op: the
/// same queries through `ServeEngine::serve` on a twin engine, then as
/// one `ServeBatch` task through `BatchExecutor::run`, then straight on
/// the arena. Records the spans under `parent` (their self times reach
/// the ledger from there) and checks every rung's replies against the
/// twin arena's.
#[allow(clippy::too_many_arguments)]
pub fn replay_serving_rungs(
    b: &mut Bench,
    parent: usize,
    op: u64,
    tenant: &Tenant,
    twin: &Twin,
    engine: &mut ServeEngine,
    kb: KbId,
    shapes: &[usize],
) {
    let queries: Vec<Query> = shapes.iter().map(|&j| tenant.queries[j].clone()).collect();
    let want: Vec<&Reply> = shapes.iter().map(|&j| &twin.expected[j]).collect();
    let verify = |b: &mut Bench, rung: &str, got: &[Reply]| {
        if got.len() != want.len() || got.iter().zip(&want).any(|(g, w)| g != *w) {
            b.check(Err(format!("{}: {rung} rung disagrees with the twin arena", tenant.name)));
        }
    };

    let served = layers::engine_serve(engine, kb, &queries);
    let engine_span = b.span("serve.engine", Some(parent), op, &served);
    match &served.value {
        Ok(outcomes) => {
            let replies: Vec<Reply> = outcomes.iter().map(|s| s.reply.clone()).collect();
            verify(b, "engine", &replies);
        }
        Err(e) => b.check(Err(format!("{}: twin engine failed: {e}", tenant.name))),
    }

    let executed = layers::executor_run(&twin.arena, twin.z, &queries);
    let executor_span = b.span("system.executor", Some(engine_span), op, &executed);
    verify(b, "executor", &executed.value);

    let eval = layers::eval_batch(&twin.arena, twin.z, &queries);
    let eval_dur = eval.pack + eval.eval;
    b.span_raw("pc.eval_batch", Some(executor_span), op, eval.start, eval_dur);
    verify(b, "arena", &eval.replies);

    b.sample("pc.eval_batch.pack_us", eval.pack.as_secs_f64() * 1e6);
    if eval.lane_passes > 0 {
        let node_lanes = (layers::arena_nodes(&twin.arena) * eval.lane_passes) as f64;
        b.sample("pc.eval_batch.ns_per_node_lane", eval.eval.as_secs_f64() * 1e9 / node_lanes);
        b.sample(
            "pc.eval_batch.distinct_lane_share",
            eval.distinct_lanes as f64 / eval.lanes as f64,
        );
    }
}

/// Samples the single-query evaluator on the op's first evidence-
/// carrying shape.
pub fn sample_eval_single(b: &mut Bench, tenant: &Tenant, twin: &Twin, shapes: &[usize]) {
    if let Some(&j) = shapes.iter().find(|&&j| !tenant.shapes[j].evidence.is_empty()) {
        let single = layers::eval_single(&twin.arena, &tenant.shapes[j].evidence);
        let nodes = layers::arena_nodes(&twin.arena) as f64;
        b.sample("pc.eval_single.ns_per_node", single.dur.as_secs_f64() * 1e9 / nodes);
    }
}

/// Store entries per engine on the hot workloads: the whole working
/// set stays compiled.
pub const HOT_STORE_ENTRIES: usize = 1024;

/// Registers every tenant and warms it with its `Wmc` query.
pub fn warmed_cluster(tenants: &[Tenant], store_entries: usize) -> (ServeCluster, Vec<TenantId>) {
    let mut cluster = layers::cluster_new(2, store_entries);
    let ids: Vec<TenantId> = tenants
        .iter()
        .map(|t| layers::cluster_register(&mut cluster, &t.name, &t.formula))
        .collect();
    for (tenant, &id) in tenants.iter().zip(&ids) {
        let warm = layers::cluster_serve_at(&mut cluster, &[(id, tenant.queries[0].clone(), 0.0)]);
        warm.value.expect("planted tenants have mass");
    }
    (cluster, ids)
}

pub fn warmed_engine(tenants: &[Tenant], store_entries: usize) -> (ServeEngine, Vec<KbId>) {
    let mut engine = layers::engine_new(store_entries);
    let ids: Vec<KbId> = tenants
        .iter()
        .map(|t| layers::engine_register(&mut engine, &t.name, &t.formula).value)
        .collect();
    for (tenant, &id) in tenants.iter().zip(&ids) {
        layers::engine_serve(&mut engine, id, &tenant.queries[..1])
            .value
            .expect("planted tenants have mass");
    }
    (engine, ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::Args;
    use crate::spec::spec;
    use crate::trace::{is_well_formed, self_times_ns};

    fn quick(workload: &str, seed: u64, trace: bool) -> Bench {
        Bench::new(&Args { workload: workload.into(), seed, seconds: 1.0, trace, quick: true })
    }

    fn digest(workload: &str, seed: u64, quick: bool) -> u64 {
        let mut b = Bench::new(&Args {
            workload: workload.into(),
            seed,
            seconds: 1.0,
            trace: false,
            quick,
        });
        generate(workload, &mut b).expect("known workload");
        b.finish().input_digest
    }

    #[test]
    fn input_digests_repeat_per_seed_and_differ_across_seeds() {
        let names = &spec().workloads;
        for name in names {
            for quick in [true, false] {
                assert_eq!(digest(name, 42, quick), digest(name, 42, quick), "{name}");
                assert_ne!(digest(name, 42, quick), digest(name, 7, quick), "{name}");
            }
            assert_ne!(digest(name, 42, true), digest(name, 42, false), "{name}: quick is smaller");
        }
        let all: std::collections::BTreeSet<u64> =
            names.iter().map(|name| digest(name, 42, false)).collect();
        assert_eq!(all.len(), names.len(), "workloads draw from separate streams");
    }

    #[test]
    fn every_planted_instance_has_mass_and_a_consistent_twin() {
        let mut b = quick("test", 1, false);
        let mut rng = SplitMix64::new(11);
        for (i, n) in [8, 11, 14, 17, 20, 23].into_iter().enumerate() {
            // Random shapes and fixed ones alternate.
            let kb = if i % 2 == 0 {
                crate::gen::planted_kb(&mut rng, n)
            } else {
                crate::gen::fixed_shape_kb(&mut rng, n, i)
            };
            let tenant = Tenant::on(&mut rng, i, kb, 12);
            let twin = Twin::build(&mut b, &tenant);
            assert!(twin.z > 0.0 && twin.z <= 1.0, "n={n}: Z = {}", twin.z);
            assert_eq!(twin.expected.len(), tenant.shapes.len());
            assert_eq!(twin.expected[0], Reply::Exact(twin.z));
        }
        // Brute force, identities and sanity all passed inside `build`.
        let out = b.finish();
        assert_eq!(out.wrong, 0, "{:?}", out.first_wrong);
    }

    #[test]
    fn a_wrong_twin_answer_is_caught() {
        let mut b = quick("test", 1, false);
        let mut rng = SplitMix64::new(3);
        let kb = crate::gen::planted_kb(&mut rng, 10);
        let tenant = Tenant::on(&mut rng, 0, kb, 6);
        let twin = Twin::build(&mut b, &tenant);
        let served = Served { rung: Rung::Exact, reply: Reply::Exact(twin.z * 1.001) };
        check_exact(&mut b, &tenant, &twin, 0, &served);
        let degraded = Served { rung: Rung::Predicted, reply: Reply::Predicted(twin.z) };
        check_exact(&mut b, &tenant, &twin, 0, &degraded);
        let out = b.finish();
        assert_eq!(out.wrong, 1);
        assert_eq!(out.failed, 2, "one wrong answer plus one op off the exact rung");
    }

    /// The whole traced path on the smallest workload: every answer
    /// checks out, the span forest is well formed, and every op's self
    /// times sum to its real call.
    #[test]
    fn quick_traced_hot_point_is_correct_and_its_spans_add_up() {
        let mut b = quick("hot_point", 42, true);
        run("hot_point", &mut b).expect("known workload");
        let spans = b.spans().to_vec();
        assert!(is_well_formed(&spans));
        let own = self_times_ns(&spans);
        let mut roots = 0;
        for (i, root) in spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()) {
            roots += 1;
            assert_eq!(root.name, "serve.cluster");
            let tree: i64 = spans
                .iter()
                .zip(&own)
                .skip(i)
                .take_while(|(s, _)| s.op == root.op)
                .map(|(_, own)| own)
                .sum();
            assert_eq!(tree, root.dur_ns() as i64, "op {}", root.op);
        }
        assert!(roots >= 50, "one chain per traced call");
        let out = b.finish();
        assert_eq!((out.wrong, out.failed), (0, 0), "{:?}", out.first_wrong);
        assert!(out.attempted >= 100, "a plain and a traced round");
        let rungs = [
            "serve.cluster.self_us",
            "serve.engine.self_us",
            "system.executor.self_us",
            "pc.eval_batch.self_us",
        ];
        for name in rungs {
            assert!(out.per_layer.contains_key(name), "{name}");
        }
        // Median self times of a four-rung chain land near the median
        // call (exactly per op; loosely across medians).
        let ratio = out.per_layer["bench.rung_sum_over_call"];
        assert!((0.5..2.0).contains(&ratio), "rung sum / call = {ratio}");
        assert_eq!(out.per_layer["pc.compile.calls"], 0.0, "hot tenants never recompile");
        assert!(out.chrome_trace.is_some_and(|t| crate::layers::json::parse(&t).is_ok()));
    }
}
