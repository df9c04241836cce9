//! The cross-query component cache, held to counts and to the
//! from-scratch compiler.
//!
//! A [`KnowledgeBase`] recompiles through a
//! [`reason::pc::PersistentComponentCache`] that points into the node
//! tables of earlier compilations instead of copying out of them. Four
//! things can go wrong with that, and none of them shows on a clock this
//! host can gate on, so they are pinned here as counts and bit patterns:
//!
//! 1. **storage stops being linear** — a node kept once per enclosing
//!    component instead of once;
//! 2. **a node grows** — a retained node costs more bytes than its flat
//!    table rows and its share of the keys;
//! 3. **overlapping hits stop sharing** — two spliced components that
//!    reach the same cached node emit it twice;
//! 4. **an edit sequence drifts from a from-scratch compile** — after any
//!    add/retract program, suffix invalidation and entries surviving
//!    from older arrays included.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use reason::pc::{compile_cnf, Evidence, WmcWeights};
use reason::sat::gen::planted_ksat;
use reason::sat::{weighted_count, Cnf};
use reason::serve::KnowledgeBase;

/// The benchmark's weights: `0.45 + 0.1·(v mod 2)`.
fn alternating_weights(n: usize) -> WmcWeights {
    WmcWeights::new((0..n).map(|v| 0.45 + 0.1 * (v % 2) as f64).collect())
}

#[test]
fn cache_retains_each_compiled_node_once() {
    let n = 28;
    let cnf = planted_ksat(n, n + 24, 3, 17);
    let mut kb = KnowledgeBase::new("linear", &cnf, alternating_weights(n));
    let retained = |kb: &KnowledgeBase| kb.component_cache().retained_nodes();

    let (_, cold) = kb.compile();
    assert!(cold.persistent_stores > 0 && retained(&kb) > 0, "nothing was persisted: {cold:?}");
    assert!(
        retained(&kb) <= cold.built_nodes,
        "cold compile built {} nodes, cache retains {}",
        cold.built_nodes,
        retained(&kb)
    );

    // Every live array belongs to one of the compiles so far, so their
    // built-node counts bound what the cache may hold.
    let mut built = cold.built_nodes;
    let base = kb.num_clauses();
    let edits: [&dyn Fn(&mut KnowledgeBase); 5] = [
        &|kb| kb.add_clause(&[3, -11]),
        &|kb| kb.add_clause(&[-7, 20, 26]),
        &|kb| drop(kb.retract_clause(kb.num_clauses() - 1)),
        &|kb| kb.add_clause(&[14, 15]),
        &|kb| drop(kb.retract_clause(base)),
    ];
    for (step, edit) in edits.iter().enumerate() {
        edit(&mut kb);
        built += kb.compile().1.built_nodes;
        assert!(
            retained(&kb) <= built,
            "edit {step}: cache retains {} nodes, the compiles it can reference built {built}",
            retained(&kb)
        );
    }

    // Sixth edit: retracting clause 0 shifts every id, so nothing may
    // survive, and the next compile starts the count over.
    kb.retract_clause(0);
    assert_eq!((retained(&kb), kb.component_cache().bytes()), (0, 0), "arrays not released");
    let (_, fresh) = kb.compile();
    assert!(retained(&kb) <= fresh.built_nodes);
}

/// `(n, planted seed, [(added clause, nodes, nodes with one copy per
/// component, Z bits)])`: the incremental circuit after each addition.
/// The copying cache's counts are ceilings, its `Z` is the reference.
type OverlapFixture = (usize, u64, [([i32; 2], usize, usize, u64); 3]);

const OVERLAP_FIXTURES: [OverlapFixture; 3] = [
    (
        21,
        39,
        [
            ([5, 1], 228, 289, 4546681239374245600),
            ([-17, -12], 230, 272, 4546116772733258733),
            ([14, 17], 188, 201, 4541764539817493103),
        ],
    ),
    (
        24,
        11,
        [
            ([20, 24], 287, 326, 4539473177005109210),
            ([20, 2], 298, 314, 4539473177005109226),
            ([-12, 4], 199, 202, 4529346217941705600),
        ],
    ),
    (
        20,
        3,
        [
            ([4, 16], 315, 356, 4557932489540631431),
            ([-4, -16], 252, 253, 4556746370057937483),
            ([10, 4], 199, 208, 4550324267405620823),
        ],
    ),
];

#[test]
fn overlapping_hits_share_spliced_nodes() {
    for (n, seed, script) in OVERLAP_FIXTURES {
        let cnf = planted_ksat(n, 3 * n, 3, seed);
        let mut kb = KnowledgeBase::new("overlap", &cnf, alternating_weights(n));
        kb.compile();
        for (clause, nodes, copied_nodes, z_bits) in script {
            kb.add_clause(&clause);
            let (circuit, stats) = kb.compile();
            let circuit = circuit.expect("planted formulas keep mass under these additions");
            circuit.validate().expect("spliced circuits are valid");
            assert!(stats.persistent_hits > 0, "n={n} seed={seed} {clause:?}: no reuse");
            assert_eq!(stats.nodes, nodes, "n={n} seed={seed} {clause:?}: node count moved");
            assert!(stats.nodes <= copied_nodes, "n={n} seed={seed} {clause:?}: sharing lost");
            let z = circuit.probability(&Evidence::empty(n));
            assert_eq!(z.to_bits(), z_bits, "n={n} seed={seed} {clause:?}: Z moved ({z})");
        }
    }
}

/// Ceiling on `PersistentComponentCache::bytes()` per retained node
/// after [`cache_bytes_per_retained_node_stay_pinned`]'s script. The
/// flat node tables cost 32.1 bytes per node there and the fingerprint
/// keys with their map slots 9.2 more (41.3 in all); the ceiling leaves
/// about 10 % headroom. When every node was an enum owning its child
/// and weight vectors, `bytes()` read 84.6 on the same script while
/// leaving those vectors' heap uncounted.
const MAX_CACHE_BYTES_PER_NODE: f64 = 45.5;

#[test]
fn cache_bytes_per_retained_node_stay_pinned() {
    // `edit_churn`'s shape: knowledge bases of n = 20, 22 and 24 on the
    // m = n + 24 planted ladder, six edits each — add until three added
    // clauses are live, then retract the oldest — with a compile after
    // every edit. Added clauses come from the same planted stream, so
    // every revision keeps mass.
    let (mut bytes, mut retained) = (0usize, 0usize);
    for n in [20usize, 22, 24] {
        for seed in 1..=4u64 {
            let full = planted_ksat(n, n + 30, 3, seed);
            let dimacs: Vec<Vec<i32>> = full
                .clauses()
                .iter()
                .map(|c| c.lits().iter().map(|l| l.to_dimacs()).collect())
                .collect();
            let base = Cnf::from_clauses(n, dimacs[..n + 24].to_vec());
            let mut kb = KnowledgeBase::new("churn", &base, alternating_weights(n));
            kb.compile();
            let first_added = kb.num_clauses();
            let mut added = dimacs[n + 24..].iter();
            let mut live = 0;
            for _ in 0..6 {
                if live < 3 {
                    kb.add_clause(added.next().expect("six planted extras"));
                    live += 1;
                } else {
                    kb.retract_clause(first_added);
                    live -= 1;
                }
                kb.compile();
            }
            bytes += kb.component_cache().bytes();
            retained += kb.component_cache().retained_nodes();
        }
    }
    let per_node = bytes as f64 / retained as f64;
    println!("{bytes} cache bytes over {retained} retained nodes: {per_node:.1} per node");
    assert!(
        per_node <= MAX_CACHE_BYTES_PER_NODE,
        "{per_node:.1} cache bytes per retained node exceeds {MAX_CACHE_BYTES_PER_NODE}"
    );
}

#[derive(Debug, Clone)]
enum Edit {
    Add(Vec<i32>),
    RetractOldest,
    RetractNewest,
}

/// A knowledge base of `4 <= n <= 14` variables (at most `2n` clauses
/// of 2–3 literals) with distinct weights, so the MPE assignment is
/// unique, and an add/retract program over it. Literals are drawn over
/// 14 variables and folded onto `n`.
fn arb_program() -> impl Strategy<Value = (Cnf, Vec<f64>, Vec<Edit>)> {
    let lit = || (1..=14i32, any::<bool>()).prop_map(|(v, neg)| if neg { -v } else { v });
    let clause = move || prop::collection::vec(lit(), 2..=3);
    let edit = (0u8..4, clause());
    (
        4usize..=14,
        prop::collection::vec(clause(), 1..=28),
        prop::collection::vec(0.05f64..0.95, 14),
        prop::collection::vec(edit, 1..=8),
    )
        .prop_map(|(n, mut clauses, mut probs, edits)| {
            let fold = |c: Vec<i32>| -> Vec<i32> {
                c.into_iter().map(|l| l.signum() * ((l.abs() - 1) % n as i32 + 1)).collect()
            };
            probs.truncate(n);
            clauses.truncate(2 * n);
            let edits = edits
                .into_iter()
                .map(|(kind, clause)| match kind {
                    0 => Edit::RetractOldest,
                    1 => Edit::RetractNewest,
                    _ => Edit::Add(fold(clause)),
                })
                .collect();
            (Cnf::from_clauses(n, clauses.into_iter().map(fold).collect()), probs, edits)
        })
}

fn relatively_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
}

#[test]
fn edit_programs_match_from_scratch_compiles() {
    static PROGRAMS_WITH_REUSE: AtomicUsize = AtomicUsize::new(0);
    const CASES: u32 = 192;
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]
        fn program(input in arb_program()) {
            let (cnf, probs, edits) = input;
            let n = cnf.num_vars();
            let weights = WmcWeights::new(probs.clone());
            let mut kb = KnowledgeBase::new("edits", &cnf, weights.clone());
            let mut hits = kb.compile().1.persistent_hits;
            for edit in &edits {
                match edit {
                    Edit::Add(clause) => kb.add_clause(clause),
                    Edit::RetractOldest if kb.num_clauses() > 0 => drop(kb.retract_clause(0)),
                    Edit::RetractNewest if kb.num_clauses() > 0 => {
                        drop(kb.retract_clause(kb.num_clauses() - 1));
                    }
                    _ => continue,
                }
                let (incremental, stats) = kb.compile();
                hits += stats.persistent_hits;
                let now = kb.cnf();
                let scratch = compile_cnf(&now, &weights);
                let (Some(inc), Some(scratch)) = (&incremental, &scratch) else {
                    prop_assert!(incremental.is_none() && scratch.is_none());
                    prop_assert_eq!(weighted_count(&now, &probs), 0.0);
                    continue;
                };
                prop_assert!(inc.validate().is_ok());
                let empty = Evidence::empty(n);
                let z = inc.probability(&empty);
                prop_assert!(relatively_close(z, weighted_count(&now, &probs)), "Z = {}", z);
                for v in 0..n {
                    let (a, b) = (inc.marginal(&empty, v), scratch.marginal(&empty, v));
                    prop_assert!(relatively_close(a[1], b[1]), "marginal {}: {:?} vs {:?}", v, a, b);
                }
                prop_assert_eq!(inc.mpe(&empty).assignment, scratch.mpe(&empty).assignment);
            }
            if hits > 0 {
                PROGRAMS_WITH_REUSE.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    program();
    // Reuse is what puts the splice under test; a generator drifting
    // towards programs that never hit would pass everything above.
    let reused = PROGRAMS_WITH_REUSE.load(Ordering::Relaxed);
    assert!(reused * 2 >= CASES as usize, "only {reused} of {CASES} programs reused a component");
}
