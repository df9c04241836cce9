//! `edit_churn` — one clause edit on a warmed `ServeEngine` knowledge
//! base, then a `serve` of four exact queries.
//!
//! *Op = call* = `add_clause`/`retract_clause` + the `serve` that pays
//! for it (their summed time). This is writes beside reads: the same
//! compile layer `cold_ladder` measures, but through the knowledge
//! base's `PersistentComponentCache` — an added clause appends at a
//! fresh id and reuses every untouched component, a retraction
//! invalidates the cache suffix behind it — plus store churn (each
//! edit is a new fingerprint) and revisited fingerprints (retracting
//! the newest clause returns to a stored artifact). A compile change
//! that wins cold but loses incremental shows here.
//!
//! Every round rebuilds and re-warms its engine (untimed) and replays
//! the same edit script, so rounds do identical work. The knowledge
//! bases start as `gen::fixed_shape_kb` formulas (48 shapes); the seed
//! draws their polarities, their query menus and every edit.

use crate::bench::Bench;
use crate::checks;
use crate::gen::{fixed_shape_kb, planted_clause, Kb, Kind, Shape, SplitMix64};
use crate::layers::{self, Reply};
use crate::workloads::{report_store, warmed_engine, Tenant};

const KB_VARS: [usize; 3] = [20, 22, 24];
const KBS_PER_SIZE: usize = 16;
const EDITS_PER_KB: usize = 6;
/// Added clauses a knowledge base carries before an edit retracts one.
const MAX_ADDED: usize = 3;

#[derive(Debug, Clone)]
pub enum Edit {
    Add(Vec<i32>),
    /// Retract the `k`-th of the currently added clauses.
    Retract(usize),
}

const STORE_ENTRIES: usize = 64;

/// The four queries after each edit: `Z`, its split on one variable,
/// and an MPE on planted evidence.
fn menu(rng: &mut SplitMix64, kb: &Kb) -> Vec<Shape> {
    let var = rng.below(kb.n);
    let other = (var + 1 + rng.below(kb.n - 1)) % kb.n;
    let split = |value| Shape { kind: Kind::Probability, evidence: vec![(var, value)], var: other };
    vec![
        Shape { kind: Kind::Wmc, evidence: vec![], var },
        split(true),
        split(false),
        Shape { kind: Kind::Mpe, evidence: vec![(other, kb.planted[other])], var },
    ]
}

/// The knowledge bases and one edit script each.
pub fn generate(b: &mut Bench) -> (Vec<Tenant>, Vec<Vec<Edit>>) {
    let mut rng = SplitMix64::new(b.seed).fork(0xED17);
    let per_size = b.scaled(KBS_PER_SIZE, 1);
    let mut tenants: Vec<Tenant> = Vec::new();
    for index in 0..per_size {
        for &n in &KB_VARS {
            let kb = fixed_shape_kb(&mut rng, n, index);
            let shapes = menu(&mut rng, &kb);
            tenants.push(Tenant::with_shapes(format!("kb{n}-{}", tenants.len()), kb, shapes));
        }
    }
    // One script per knowledge base: add until three added clauses are
    // live, then retract — usually the oldest (the one added three
    // edits earlier), sometimes the newest (a revisited fingerprint).
    let scripts: Vec<Vec<Edit>> = tenants
        .iter()
        .map(|tenant| {
            let mut live = 0;
            (0..EDITS_PER_KB)
                .map(|_| {
                    if live < MAX_ADDED {
                        live += 1;
                        Edit::Add(planted_clause(&mut rng, &tenant.kb.planted))
                    } else {
                        live -= 1;
                        Edit::Retract(if rng.below(4) == 0 { live } else { 0 })
                    }
                })
                .collect()
        })
        .collect();
    for (tenant, script) in tenants.iter().zip(&scripts) {
        tenant.digest_into(b);
        for edit in script {
            match edit {
                Edit::Add(clause) => clause.iter().for_each(|&l| b.digest.u64(l as i64 as u64)),
                Edit::Retract(k) => b.digest.u64(0xDE1 + *k as u64),
            }
        }
    }
    (tenants, scripts)
}

pub fn run(b: &mut Bench) {
    let (tenants, scripts) = generate(b);
    drop(b.setup(|| warmed_engine(&tenants, STORE_ENTRIES)));

    while b.next_round() {
        let (mut engine, ids) = warmed_engine(&tenants, STORE_ENTRIES);
        let store_before = layers::engine_store(&engine);
        // Per knowledge base: the clauses currently added, and the last
        // `Z` served.
        let mut added: Vec<Vec<Vec<i32>>> = vec![Vec::new(); tenants.len()];
        let mut last_z: Vec<Option<f64>> = vec![None; tenants.len()];
        for step in 0..EDITS_PER_KB {
            for (i, (tenant, script)) in tenants.iter().zip(&scripts).enumerate() {
                let base = tenant.kb.clauses.len();
                let edit = &script[step];
                let edited = match edit {
                    Edit::Add(clause) => {
                        added[i].push(clause.clone());
                        layers::engine_add_clause(&mut engine, ids[i], clause)
                    }
                    Edit::Retract(k) => {
                        added[i].remove(*k);
                        layers::engine_retract_clause(&mut engine, ids[i], base + k)
                    }
                };
                let served = layers::engine_serve(&mut engine, ids[i], &tenant.queries);
                let dur = edited.dur + served.dur;
                b.call(dur, 1);

                let replies: Vec<Reply> = match &served.value {
                    Ok(outcomes) => outcomes.iter().map(|s| s.reply.clone()).collect(),
                    Err(e) => {
                        b.fail(1, || format!("{}: serve after edit failed: {e}", tenant.name));
                        continue;
                    }
                };
                let now = Kb {
                    clauses: tenant.kb.clauses.iter().chain(&added[i]).cloned().collect(),
                    ..tenant.kb.clone()
                };
                let z = check_replies(b, &now, &tenant.shapes, &replies);
                // An added clause can only remove models, a retracted
                // one only restore them.
                if let (Some(z), Some(before)) = (z, last_z[i]) {
                    let grew = z > before * (1.0 + 1e-9);
                    let shrank = z < before * (1.0 - 1e-9);
                    if matches!(edit, Edit::Add(_)) && grew
                        || matches!(edit, Edit::Retract(_)) && shrank
                    {
                        b.check(Err(format!(
                            "{}: Z moved the wrong way: {before} -> {z}",
                            tenant.name
                        )));
                    }
                }
                last_z[i] = z.or(last_z[i]);

                if !b.traced_round() {
                    continue;
                }
                let op = b.op_id();
                let root = b.span_raw("serve.kb.edit+serve", None, op, edited.start, dur);
                b.span("serve.kb.edit", Some(root), op, &edited);
                // The same queries again, now hot: what is left of the
                // op once the edit and a hot serve are taken out is the
                // (incremental) recompile — the root span's self time.
                let hot = layers::engine_serve(&mut engine, ids[i], &tenant.queries);
                b.span("serve.engine", Some(root), op, &hot);
                let (hits, compiled) = layers::engine_last_compile(&engine, ids[i]);
                b.sample(
                    "pc.compile.persistent_hit_share",
                    hits as f64 / (hits + compiled).max(1) as f64,
                );
                // Beside the op, the rung the persistent cache
                // short-cuts: the edited formula compiled from scratch,
                // whose answers the incremental path must reproduce.
                let scratch = layers::compile(&layers::formula(&now));
                b.span("pc.compile", None, op, &scratch);
                b.sample("pc.compile.call_ms", scratch.dur.as_secs_f64() * 1e3);
                let circuit = scratch.value.expect("planted-consistent edits keep mass");
                b.sample("pc.compile.nodes", layers::circuit_nodes(&circuit) as f64);
                let arena = layers::flatten(&circuit).value;
                let scratch_z = layers::eval_single(&arena, &[]).value;
                let want = layers::eval_batch(&arena, scratch_z, &tenant.queries).replies;
                for ((shape, got), want) in tenant.shapes.iter().zip(&replies).zip(&want) {
                    b.check(same_within_tolerance(&now, shape, got, want));
                }
            }
        }
        let store_after = layers::engine_store(&engine);
        report_store(b, store_before, store_after);
    }
}

/// Identity checks on the four replies; returns the served `Z`.
fn check_replies(b: &mut Bench, now: &Kb, shapes: &[Shape], replies: &[Reply]) -> Option<f64> {
    let z = match replies.first() {
        Some(Reply::Exact(z)) => Some(*z),
        _ => None,
    };
    for (shape, reply) in shapes.iter().zip(replies) {
        b.check(checks::reply_is_sane(now, shape, reply, z));
    }
    match (z, replies.get(1), replies.get(2)) {
        (Some(z), Some(Reply::Exact(with)), Some(Reply::Exact(without))) => {
            b.check(checks::splits_add_up(now, shapes[1].evidence[0].0, *with, *without, z));
        }
        _ => {
            b.check(Err(format!("n={}: Z and its split were not served exact: {replies:?}", now.n)))
        }
    }
    z
}

/// An incrementally compiled answer against the from-scratch compile
/// of the same formula: equal within the oracle tolerance (the two
/// circuits may order their sums differently, so not bit for bit).
fn same_within_tolerance(now: &Kb, shape: &Shape, got: &Reply, want: &Reply) -> Result<(), String> {
    let same = match (got, want) {
        (Reply::Exact(a), Reply::Exact(b)) => checks::close(*a, *b),
        // Ties can pick different maximizers; the weight must agree.
        (Reply::Assignment { log_prob: a, .. }, Reply::Assignment { log_prob: b, .. }) => {
            checks::close(*a, *b)
        }
        _ => false,
    };
    if same {
        Ok(())
    } else {
        Err(format!("n={} {:?}: incremental {got:?} != from-scratch {want:?}", now.n, shape.kind))
    }
}
