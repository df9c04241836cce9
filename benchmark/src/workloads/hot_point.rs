//! `hot_point` — one deadline-free query per `ServeCluster::serve_at`
//! on a warmed 2-shard cluster of 8 tenants, n = 12…26.
//!
//! *Op = call* = one query. The arena traversal is a fraction of a call
//! of tens of microseconds, so this workload isolates per-call overhead
//! in `reason-serve` and `reason-system`; the compile layer makes zero
//! calls once the tenants are warm. The executor runs inline here as in
//! every workload (`layers::serve_config` says why); what the program's
//! default pools would add to each call is sampled in traced rounds as
//! `system.executor.pool_spawn_us`.
//!
//! The tenants are `gen::fixed_shape_kb` formulas with menus on the
//! fixed kind cycle, and a round calls every (tenant, shape) pair the
//! same number of times: the seed draws polarities, what each query
//! asks about and the order of the calls — never how dear a round is.

use crate::bench::Bench;
use crate::gen::SplitMix64;
use crate::layers;
use crate::workloads::{
    check_exact, replay_serving_rungs, report_store, sample_eval_single, warmed_cluster,
    warmed_engine, Tenant, Twin, HOT_STORE_ENTRIES,
};

const TENANT_VARS: [usize; 8] = [12, 14, 16, 18, 20, 22, 24, 26];
const SHAPES_PER_TENANT: usize = 32;
/// Times a round calls each (tenant, shape) pair: 12 × 8 × 32 = 3 072
/// calls a round.
const CALLS_PER_PAIR: usize = 12;
/// Virtual seconds between arrivals: far apart, so the modeled queue
/// is always empty.
const ARRIVAL_GAP_S: f64 = 1e-3;

/// The tenants and the per-round call script `(tenant, shape)`: every
/// pair `CALLS_PER_PAIR` times (once in `--quick` mode), in seeded
/// order.
pub fn generate(b: &mut Bench) -> (Vec<Tenant>, Vec<(usize, usize)>) {
    let mut rng = SplitMix64::new(b.seed).fork(0x407);
    let tenants: Vec<Tenant> = TENANT_VARS
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let kb = crate::gen::fixed_shape_kb(&mut rng, n, 0);
            Tenant::on(&mut rng, i, kb, SHAPES_PER_TENANT)
        })
        .collect();
    let mut script: Vec<(usize, usize)> = (0..b.scaled(CALLS_PER_PAIR, 1))
        .flat_map(|_| 0..tenants.len() * SHAPES_PER_TENANT)
        .map(|pair| (pair / SHAPES_PER_TENANT, pair % SHAPES_PER_TENANT))
        .collect();
    for i in (1..script.len()).rev() {
        script.swap(i, rng.below(i + 1));
    }
    for tenant in &tenants {
        tenant.digest_into(b);
    }
    for &(t, s) in &script {
        b.digest.u64((t * SHAPES_PER_TENANT + s) as u64);
    }
    (tenants, script)
}

pub fn run(b: &mut Bench) {
    let (tenants, script) = generate(b);
    let (mut cluster, ids) = b.setup(|| warmed_cluster(&tenants, HOT_STORE_ENTRIES));
    let twins: Vec<Twin> = tenants.iter().map(|t| Twin::build(b, t)).collect();
    let mut rungs = b.tracing().then(|| {
        let (engine, kbs) = warmed_engine(&tenants, HOT_STORE_ENTRIES);
        let (mut observed, observed_ids) = warmed_cluster(&tenants, HOT_STORE_ENTRIES);
        layers::cluster_attach_telemetry(&mut observed);
        (engine, kbs, observed, observed_ids)
    });

    let store_before = layers::cluster_store(&cluster);
    let mut now = 1.0;
    while b.next_round() {
        for &(t, s) in &script {
            let (tenant, twin) = (&tenants[t], &twins[t]);
            now += ARRIVAL_GAP_S;
            let arrival = [(ids[t], tenant.queries[s].clone(), now)];
            let real = layers::cluster_serve_at(&mut cluster, &arrival);
            b.call(real.dur, 1);
            match &real.value {
                Ok(served) => check_exact(b, tenant, twin, s, &served[0]),
                Err(e) => b.fail(1, || format!("{}: serve_at failed: {e}", tenant.name)),
            }
            if !b.traced_round() {
                continue;
            }
            let (engine, kbs, observed, observed_ids) =
                rungs.as_mut().expect("tracing builds twins");
            let op = b.op_id();
            let root = b.span("serve.cluster", None, op, &real);
            replay_serving_rungs(b, root, op, tenant, twin, engine, kbs[t], &[s]);
            sample_eval_single(b, tenant, twin, &[s]);
            let pools = layers::executor_pool_spawn(&twin.arena, twin.z, &tenant.queries[s..=s]);
            b.sample("system.executor.pool_spawn_us", pools.as_secs_f64() * 1e6);
            let attached = layers::cluster_serve_at(
                observed,
                &[(observed_ids[t], tenant.queries[s].clone(), now)],
            );
            b.sample(
                "telemetry.attach_overhead_share",
                attached.dur.as_secs_f64() / real.dur.as_secs_f64() - 1.0,
            );
        }
        if b.traced_round() {
            let (t, s) = script[0];
            let kb = &tenants[t].kb;
            let per_call =
                layers::router_admit(kb.n, kb.clauses.len(), &tenants[t].queries[s], 10_000);
            b.sample("serve.router.admit_ns", per_call.as_secs_f64() * 1e9);
        }
    }
    report_store(b, store_before, layers::cluster_store(&cluster));
}
