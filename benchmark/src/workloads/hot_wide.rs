//! `hot_wide` — 256 deadline-free queries per `ServeCluster::serve_at`
//! on one warmed tenant.
//!
//! *Call* = one `serve_at`; *op* = one query, so a call is 256 ops.
//! `DnnfBatch::pack` plus the batched arena traversal dominate a call
//! and the executor hand-off is a small share, so this workload
//! bypasses what `hot_point` stresses: a change to per-call overhead
//! should not move it, and an evaluator change that helps one lane but
//! costs 256 shows here. A tenth of each call's lanes repeat an earlier
//! lane, so lane deduplication is exercised.
//!
//! One call per tenant per round, on two kinds of tenant, all
//! `gen::fixed_shape_kb` formulas (fixed shape, seeded polarities and
//! queries — arena size of a random formula varies ±30 % between
//! instances, and the seed must not decide the result). The many small
//! tenants (n = 24…27, ~1.4k-node arenas that sit in cache) set
//! `call_p50_us`. The tall tenants (n = 36…44, 10k–22k-node arenas whose
//! 256-lane value table is 20–45 MB) set `client.call_p90_us` and carry
//! most of `ops_per_s`.

use crate::bench::Bench;
use crate::gen::SplitMix64;
use crate::layers;
use crate::workloads::{
    check_exact, replay_serving_rungs, report_store, sample_eval_single, warmed_cluster,
    warmed_engine, Tenant, Twin, HOT_STORE_ENTRIES,
};

const SMALL_TENANTS: usize = 48;
const SMALL_VARS: [usize; 4] = [24, 25, 26, 27];
/// `(n, shape index)` of the tall tenants: the shapes of each size
/// whose arenas fall in the 10k–25k-node range the issue named.
const TALL_TENANTS: [(usize, usize); 6] = [(36, 5), (40, 3), (40, 1), (40, 8), (44, 3), (44, 6)];
const LANES: usize = 256;
/// Distinct shapes per tenant; the remaining lanes of a call repeat
/// one of them.
const DISTINCT_SHAPES: usize = LANES - LANES / 10;
const ARRIVAL_GAP_S: f64 = 1e-3;

/// The tenants and, per tenant, the shape each of its call's 256
/// lanes asks.
pub fn generate(b: &mut Bench) -> (Vec<Tenant>, Vec<Vec<usize>>) {
    let mut rng = SplitMix64::new(b.seed).fork(0x31DE);
    let mut tenants: Vec<Tenant> = (0..b.scaled(SMALL_TENANTS, 3))
        .map(|i| {
            let (n, index) = (SMALL_VARS[i % SMALL_VARS.len()], i / SMALL_VARS.len());
            let kb = crate::gen::fixed_shape_kb(&mut rng, n, index);
            Tenant::on(&mut rng, i, kb, DISTINCT_SHAPES)
        })
        .collect();
    for &(n, index) in &TALL_TENANTS[..b.scaled(TALL_TENANTS.len(), 1)] {
        let kb = crate::gen::fixed_shape_kb(&mut rng, n, index);
        tenants.push(Tenant::on(&mut rng, tenants.len(), kb, DISTINCT_SHAPES));
    }
    // Lane k of a tenant's call asks shape `lanes[k]`.
    let lanes: Vec<Vec<usize>> = tenants
        .iter()
        .map(|_| {
            let mut lanes: Vec<usize> = (0..DISTINCT_SHAPES).collect();
            while lanes.len() < LANES {
                lanes.insert(rng.below(lanes.len() + 1), rng.below(DISTINCT_SHAPES));
            }
            lanes
        })
        .collect();
    for (tenant, lanes) in tenants.iter().zip(&lanes) {
        tenant.digest_into(b);
        for &lane in lanes {
            b.digest.u64(lane as u64);
        }
    }
    (tenants, lanes)
}

pub fn run(b: &mut Bench) {
    let (tenants, lanes) = generate(b);
    let (mut cluster, ids) = b.setup(|| warmed_cluster(&tenants, HOT_STORE_ENTRIES));
    let twins: Vec<Twin> = tenants.iter().map(|t| Twin::build(b, t)).collect();
    let mut rungs = b.tracing().then(|| warmed_engine(&tenants, HOT_STORE_ENTRIES));

    let store_before = layers::cluster_store(&cluster);
    let mut now = 1.0;
    while b.next_round() {
        for (t, (tenant, twin)) in tenants.iter().zip(&twins).enumerate() {
            now += ARRIVAL_GAP_S;
            let arrivals: Vec<_> =
                lanes[t].iter().map(|&s| (ids[t], tenant.queries[s].clone(), now)).collect();
            let real = layers::cluster_serve_at(&mut cluster, &arrivals);
            b.call(real.dur, LANES as u64);
            match &real.value {
                Ok(served) => {
                    for (&s, served) in lanes[t].iter().zip(served) {
                        check_exact(b, tenant, twin, s, served);
                    }
                }
                Err(e) => b.fail(LANES as u64, || format!("{}: serve_at failed: {e}", tenant.name)),
            }
            if !b.traced_round() {
                continue;
            }
            let (engine, kbs) = rungs.as_mut().expect("tracing builds twins");
            let op = b.op_id();
            let root = b.span("serve.cluster", None, op, &real);
            replay_serving_rungs(b, root, op, tenant, twin, engine, kbs[t], &lanes[t]);
            sample_eval_single(b, tenant, twin, &lanes[t]);
        }
    }
    report_store(b, store_before, layers::cluster_store(&cluster));
}
