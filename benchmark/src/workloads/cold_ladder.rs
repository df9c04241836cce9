//! `cold_ladder` — register a knowledge base on a fresh `ServeEngine`
//! and serve its first `[Wmc]`.
//!
//! *Op = call* = `register` + first `serve` (their summed time). The
//! first serve compiles, flattens and evaluates, and `reason-pc`'s
//! compile does nearly all of it: this is the cold-start cost, and the
//! cost of every failover recompile. Every round builds every engine
//! anew, so rounds do identical work.
//!
//! Compile time of a random formula varies about ±30 % between
//! instances of one size and grows ~1.2× per variable, so every rung
//! is a `gen::fixed_shape_kb` formula — fixed shape, seeded polarities —
//! and compiling the ladder is the same work on every seed. The low
//! rungs are 40 shapes each of five sizes: they set `call_p50_us`. The
//! tall rungs (n = 36…44, arenas of 10k–21k nodes, 0.1–0.2 s each)
//! weigh in `ops_per_s`, of whose time they are about a quarter.

use std::time::Duration;

use crate::bench::Bench;
use crate::checks;
use crate::gen::{Kind, Shape, SplitMix64};
use crate::layers::{self, Reply, Timed};
use crate::workloads::{Tenant, Twin};

const LADDER_VARS: [usize; 5] = [24, 25, 26, 27, 28];
const INSTANCES_PER_RUNG: usize = 40;
/// `(n, shape index)` of the tall rungs: shapes whose arenas fall in
/// the 10k–25k-node range the issue named.
const TALL_RUNGS: [(usize, usize); 4] = [(36, 5), (40, 3), (40, 1), (44, 3)];

const STORE_ENTRIES: usize = 64;

/// One cold op: the call's duration, and the now-warm engine with the
/// served reply.
type Cold = (layers::ServeEngine, layers::KbId, Reply);

fn cold_call(tenant: &Tenant) -> Timed<Result<Cold, String>> {
    let mut engine = layers::engine_new(STORE_ENTRIES);
    let registered = layers::engine_register(&mut engine, &tenant.name, &tenant.formula);
    let kb = registered.value;
    let served = layers::engine_serve(&mut engine, kb, &tenant.queries[..1]);
    Timed {
        start: registered.start,
        dur: registered.dur + served.dur,
        value: served.value.map(|mut s| (engine, kb, s.remove(0).reply)),
    }
}

/// Shape 0 is the served `Wmc`; shapes 1 and 2 split it on one
/// variable for the untimed identity check.
fn instance(rng: &mut SplitMix64, name: String, kb: crate::gen::Kb) -> Tenant {
    let n = kb.n;
    let var = rng.below(n);
    let split =
        |value| Shape { kind: Kind::Probability, evidence: vec![(var, value)], var: (var + 1) % n };
    let shapes = vec![Shape { kind: Kind::Wmc, evidence: vec![], var }, split(true), split(false)];
    Tenant::with_shapes(name, kb, shapes)
}

/// The ladder's instances: the low rungs interleaved, then the tall.
pub fn generate(b: &mut Bench) -> Vec<Tenant> {
    let mut rng = SplitMix64::new(b.seed).fork(0xC01D);
    let mut tenants: Vec<Tenant> = Vec::new();
    for index in 0..b.scaled(INSTANCES_PER_RUNG, 2) {
        for &n in &LADDER_VARS {
            let kb = crate::gen::fixed_shape_kb(&mut rng, n, index);
            tenants.push(instance(&mut rng, format!("rung{n}-{}", tenants.len()), kb));
        }
    }
    for &(n, index) in &TALL_RUNGS[..b.scaled(TALL_RUNGS.len(), 1)] {
        let kb = crate::gen::fixed_shape_kb(&mut rng, n, index);
        tenants.push(instance(&mut rng, format!("tall{n}-{index}"), kb));
    }
    for tenant in &tenants {
        tenant.digest_into(b);
    }
    tenants
}

pub fn run(b: &mut Bench) {
    let tenants = generate(b);
    // Set-up is generation (above) plus a warm-up pass over the lowest
    // rung, so allocator and caches are in their steady state before
    // the first timed op.
    b.setup(|| {
        for tenant in tenants.iter().filter(|t| t.kb.n == LADDER_VARS[0]) {
            cold_call(tenant).value.expect("planted formulas have mass");
        }
    });
    let twins: Option<Vec<Twin>> =
        b.tracing().then(|| tenants.iter().map(|t| Twin::build(b, t)).collect());

    // `Z` per instance as first served; every later round must repeat
    // it bit for bit.
    let mut first_z: Vec<Option<f64>> = vec![None; tenants.len()];
    let mut compiles = 0u64;
    while b.next_round() {
        for (i, tenant) in tenants.iter().enumerate() {
            let cold = cold_call(tenant);
            b.call(cold.dur, 1);
            compiles += 1;
            let (mut engine, kb, reply) = match cold.value {
                Ok(ok) => ok,
                Err(e) => {
                    b.fail(1, || format!("{}: cold serve failed: {e}", tenant.name));
                    continue;
                }
            };
            let Reply::Exact(z) = reply else {
                b.check(Err(format!("{}: Wmc answered with {reply:?}", tenant.name)));
                continue;
            };
            b.check(checks::reply_is_sane(&tenant.kb, &tenant.shapes[0], &reply, None));
            if *first_z[i].get_or_insert(z) != z {
                b.check(Err(format!("{}: Z changed between rounds", tenant.name)));
            }
            // Untimed, on the now-warm engine: Pr[φ∧x] + Pr[φ∧¬x] = Z.
            match layers::engine_serve(&mut engine, kb, &tenant.queries[1..3]).value.as_deref() {
                Ok([with, without]) => match (&with.reply, &without.reply) {
                    (Reply::Exact(p), Reply::Exact(q)) => {
                        b.check(checks::splits_add_up(
                            &tenant.kb,
                            tenant.shapes[1].evidence[0].0,
                            *p,
                            *q,
                            z,
                        ));
                    }
                    other => {
                        b.check(Err(format!("{}: split answered with {other:?}", tenant.name)))
                    }
                },
                _ => b.check(Err(format!("{}: split queries failed", tenant.name))),
            }

            if !b.traced_round() {
                continue;
            }
            let twin = &twins.as_ref().expect("tracing builds twins")[i];
            b.check(checks::matches_twin(&tenant.kb, &tenant.shapes[0], &reply, &twin.expected[0]));
            // The rungs under a cold serve, replayed: the compile as the
            // knowledge base runs it (behind its persistent cache), and
            // the flatten. Beside them, the plain compile the cache
            // wraps.
            let op = b.op_id();
            let root = b.span_raw("serve.engine.cold", None, op, cold.start, cold.dur);
            let persistent = layers::kb_compile(&tenant.formula);
            b.span("pc.compile.persistent", Some(root), op, &persistent);
            let compiled = layers::compile(&tenant.formula);
            b.span("pc.compile", None, op, &compiled);
            let circuit = compiled.value.expect("planted formulas have mass");
            let flat = layers::flatten(&circuit);
            b.span("pc.flatten", Some(root), op, &flat);
            let nodes = layers::circuit_nodes(&circuit) as f64;
            let arena_nodes = layers::arena_nodes(&flat.value) as f64;
            let us = |d: Duration| d.as_secs_f64() * 1e6;
            b.sample("pc.compile.call_ms", us(compiled.dur) / 1e3);
            b.sample("pc.compile.us_per_node", us(compiled.dur) / nodes);
            b.sample("pc.compile.nodes", nodes);
            b.sample("pc.flatten.ns_per_node", us(flat.dur) * 1e3 / arena_nodes);
            b.sample("pc.flatten.arena_bytes", layers::arena_bytes(&flat.value) as f64);
            let front = layers::preprocess(&tenant.formula);
            b.sample("sat.preprocess.call_us", us(front.dur));
            let (before, after) = front.value;
            b.sample("sat.preprocess.clause_reduction", 1.0 - after as f64 / before.max(1) as f64);
        }
    }
    b.set("pc.compile.calls", compiles as f64);
}
