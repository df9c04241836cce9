//! Property-based tests (proptest) on the workspace's core invariants.
//!
//! Randomized structures exercise the algebraic properties the REASON
//! stack depends on: satisfiability preservation under preprocessing,
//! semantic preservation under DAG lowering/regularization/compilation,
//! probabilistic normalization, Benes routability, and pipeline-schedule
//! sanity.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use reason::arch::{ArchConfig, BenesNetwork, VliwExecutor};
use reason::compiler::ReasonCompiler;
use reason::core::{dag_from_cnf, regularize};
use reason::pc::{compile_cnf, Circuit, Evidence, PcNode, WmcWeights};
use reason::sat::{brute_force, weighted_count, CdclSolver, Cnf, Preprocessor};
use reason::serve::{CacheStats, CircuitStore, FormulaFingerprint, StoreConfig, StoredCircuit};
use reason::system::{StageCost, TwoLevelPipeline};

/// The double-double reference evaluator of `reason-pc`'s tests, which
/// the arena's answers are checked against within their stated bounds.
#[path = "../crates/pc/src/reference.rs"]
mod reference;

/// A random small CNF as DIMACS-style clause lists.
fn arb_cnf(max_vars: usize, max_clauses: usize) -> impl Strategy<Value = Cnf> {
    let var = 1..=max_vars as i32;
    let lit = (var, any::<bool>()).prop_map(|(v, neg)| if neg { -v } else { v });
    let clause = prop::collection::vec(lit, 1..=3);
    prop::collection::vec(clause, 1..=max_clauses)
        .prop_map(move |clauses| Cnf::from_clauses(max_vars, clauses))
}

proptest! {
    // 256 cases keeps the whole suite under a few seconds; failures
    // report a replay seed (see third_party/proptest) — pin any that
    // appear as explicit regression tests below the proptest! block.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn preprocessing_preserves_satisfiability(cnf in arb_cnf(8, 20)) {
        let expect = brute_force(&cnf).is_sat();
        let result = Preprocessor::new().run(&cnf);
        let got = match result.decided {
            Some(d) => d,
            None => CdclSolver::new(&result.cnf).solve().is_sat(),
        };
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn preprocessing_models_reconstruct(cnf in arb_cnf(8, 16)) {
        let result = Preprocessor::new().run(&cnf);
        let reduced_model = match result.decided {
            Some(false) => return Ok(()),
            Some(true) => vec![false; cnf.num_vars()],
            None => match CdclSolver::new(&result.cnf).solve() {
                reason::sat::Solution::Sat(m) => m,
                reason::sat::Solution::Unsat => return Ok(()),
            },
        };
        let model = result.reconstruct_model(&reduced_model);
        prop_assert!(cnf.eval(&model));
    }

    #[test]
    fn dag_lowering_matches_cnf_semantics(cnf in arb_cnf(7, 14), bits in 0u32..128) {
        let (dag, _) = dag_from_cnf(&cnf);
        let reg = regularize(&dag);
        let model: Vec<bool> = (0..7).map(|v| bits >> v & 1 == 1).collect();
        let inputs: Vec<f64> = model.iter().map(|&b| f64::from(b)).collect();
        let expect = f64::from(u8::from(cnf.eval(&model)));
        prop_assert_eq!(dag.evaluate_output(&inputs), expect);
        prop_assert_eq!(reg.evaluate_output(&inputs), expect);
        prop_assert!(reg.max_fan_in() <= 2);
    }

    #[test]
    fn compiled_kernels_match_dag_evaluation(cnf in arb_cnf(6, 12), bits in 0u32..64) {
        let (dag, _) = dag_from_cnf(&cnf);
        let dag = regularize(&dag);
        let config = ArchConfig::paper();
        let kernel = ReasonCompiler::new(config).compile(&dag).unwrap();
        let inputs: Vec<f64> = (0..6).map(|v| f64::from(bits >> v & 1)).collect();
        let report = VliwExecutor::new(config).execute(&kernel.program(&inputs));
        prop_assert_eq!(report.output, dag.evaluate_output(&inputs));
    }

    #[test]
    fn wmc_circuits_are_probabilities(cnf in arb_cnf(6, 10), p in 0.05f64..0.95) {
        let weights = WmcWeights::new(vec![p; 6]);
        if let Some(circuit) = compile_cnf(&cnf, &weights) {
            let pr = circuit.probability(&Evidence::empty(6));
            prop_assert!((0.0..=1.0 + 1e-9).contains(&pr));
            circuit.validate().unwrap();
        }
    }

    #[test]
    fn benes_routes_every_permutation(seed in 0u64..500, logn in 1u32..6) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let n = 1usize << logn;
        let mut perm: Vec<usize> = (0..n).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        perm.shuffle(&mut rng);
        let net = BenesNetwork::new(n);
        let routing = net.route(&perm).unwrap();
        let out = routing.apply(&(0..n).collect::<Vec<_>>());
        for (i, &o) in perm.iter().enumerate() {
            prop_assert_eq!(out[o], i);
        }
    }

    #[test]
    fn two_level_pipeline_bounds(costs in prop::collection::vec((0.01f64..2.0, 0.01f64..2.0), 1..20)) {
        let tasks: Vec<StageCost> =
            costs.iter().map(|&(n, s)| StageCost { neural_s: n, symbolic_s: s }).collect();
        let report = TwoLevelPipeline::new().schedule(&tasks);
        // Never worse than serial, never better than the dominant stage.
        prop_assert!(report.pipelined_s <= report.serial_s + 1e-9);
        let neural_total: f64 = tasks.iter().map(|t| t.neural_s).sum();
        let symbolic_total: f64 = tasks.iter().map(|t| t.symbolic_s).sum();
        prop_assert!(report.pipelined_s + 1e-9 >= neural_total.max(symbolic_total));
    }

    #[test]
    fn compiled_wmc_agrees_with_brute_weighted_count(cnf in arb_cnf(8, 16), seed in 0u64..10_000) {
        // Pins the oracle pair the approximate engine is validated
        // against: knowledge compilation (pc::compile) and exhaustive
        // weighted enumeration (sat::brute) must agree on every random
        // small CNF under shared-seed random weights.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let probs: Vec<f64> = (0..8).map(|_| rng.gen_range(0.05..0.95)).collect();
        let exact = reason::sat::weighted_count(&cnf, &probs);
        match compile_cnf(&cnf, &WmcWeights::new(probs)) {
            Some(circuit) => {
                let wmc = circuit.probability(&Evidence::empty(8));
                prop_assert!((wmc - exact).abs() < 1e-9, "compiled {} vs brute {}", wmc, exact);
            }
            None => prop_assert!(exact == 0.0, "UNSAT compile but brute mass {}", exact),
        }
    }

    #[test]
    fn topdown_compiler_matches_brute_up_to_16_vars(n in 4usize..=16, seed in 0u64..10_000) {
        // The component-caching compiler against exhaustive weighted
        // enumeration on random 3-CNF across the whole tractable range,
        // under shared-seed random weights — plus determinism: the same
        // input must compile to the bit-identical circuit every run.
        use rand::{Rng, SeedableRng};
        let m = 2 * n + (seed % 17) as usize;
        let cnf = reason::sat::gen::random_ksat(n, m, 3, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC0117);
        let probs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05..0.95)).collect();
        let exact = reason::sat::weighted_count(&cnf, &probs);
        let weights = WmcWeights::new(probs);
        let first = compile_cnf(&cnf, &weights);
        let second = compile_cnf(&cnf, &weights);
        prop_assert_eq!(&first, &second, "compilation must be deterministic across runs");
        match first {
            Some(circuit) => {
                let wmc = circuit.probability(&Evidence::empty(n));
                prop_assert!((wmc - exact).abs() < 1e-9, "compiled {} vs brute {}", wmc, exact);
                prop_assert!(circuit.is_syntactically_deterministic());
            }
            None => prop_assert!(exact == 0.0, "UNSAT compile but brute mass {}", exact),
        }
    }

    #[test]
    fn topdown_and_shannon_compile_the_same_distribution(cnf in arb_cnf(7, 14)) {
        // Old and new compiler must agree query-for-query, not only on
        // the root: every complete assignment gets the same likelihood.
        let weights = WmcWeights::new((0..7).map(|v| 0.25 + 0.07 * v as f64).collect());
        let new = compile_cnf(&cnf, &weights);
        let old = reason::pc::compile_cnf_shannon(&cnf, &weights);
        prop_assert_eq!(new.is_some(), old.is_some());
        if let (Some(new), Some(old)) = (new, old) {
            for bits in 0u32..128 {
                let assignment: Vec<usize> = (0..7).map(|v| (bits >> v & 1) as usize).collect();
                let a = new.log_likelihood(&assignment).exp();
                let b = old.log_likelihood(&assignment).exp();
                prop_assert!((a - b).abs() < 1e-12, "assignment {:07b}: {} vs {}", bits, a, b);
            }
        }
    }

    #[test]
    fn dnnf_arena_evaluation_equals_circuit_wmc(n in 4usize..=16, seed in 0u64..10_000) {
        // The serving layer's flat d-DNNF arena is a 1:1 flattening of
        // the compiled circuit that walks probabilities instead of
        // logs: on random CNFs across the tractable range, WMC,
        // partial-evidence probabilities, marginals, and MPE must agree
        // with the circuit within the bounds `reference::check_*` state
        // (γ_D against a double-double evaluation of the circuit).
        use rand::{Rng, SeedableRng};
        let m = 2 * n + (seed % 13) as usize;
        let cnf = reason::sat::gen::random_ksat(n, m, 3, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xD44F);
        let probs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05..0.95)).collect();
        let Some(circuit) = compile_cnf(&cnf, &WmcWeights::new(probs)) else {
            return Ok(());
        };
        let arena = reason::pc::Dnnf::from_circuit(&circuit).expect("binary universe");
        let mut bbuf = reason::pc::BatchBuffer::new();
        // Full marginalization — `Z`, read off the arena's root and
        // walked as one lane, the same bits — plus a random partial
        // evidence pattern.
        let mut evidence = Evidence::empty(n);
        let one = reason::pc::DnnfBatch::pack(std::slice::from_ref(&evidence));
        prop_assert_eq!(arena.wmc().to_bits(), arena.wmc_batch(&one, &mut bbuf)[0].to_bits());
        let check = reference::check_probability(&circuit, &evidence, arena.wmc());
        prop_assert!(check.is_ok(), "Z: {:?}", check);
        for v in 0..n {
            if rng.gen_bool(0.4) {
                evidence.set(v, usize::from(rng.gen_bool(0.5)));
            }
        }
        // Everything else runs on the arena as a batch of one; the log
        // lane is one `ln` of the linear lane.
        let one = reason::pc::DnnfBatch::pack(std::slice::from_ref(&evidence));
        let p = arena.wmc_batch(&one, &mut bbuf)[0];
        let lp = arena.log_probability_batch(&one, &mut bbuf)[0];
        prop_assert_eq!(lp.to_bits(), p.ln().to_bits());
        let check = reference::check_probability(&circuit, &evidence, p);
        prop_assert!(check.is_ok(), "{:?}", check);
        let var = rng.gen_range(0..n);
        let dist = &arena.marginal_batch(&one, var, &mut bbuf)[0];
        let check = reference::check_marginal(&circuit, &evidence, var, dist);
        prop_assert!(check.is_ok(), "{:?}", check);
        let am = &arena.mpe_batch(&one, &mut bbuf)[0];
        let check = reference::check_mpe(&circuit, &evidence, &am.assignment, am.log_prob);
        prop_assert!(check.is_ok(), "{:?}", check);
    }

    #[test]
    fn batched_arena_evaluation_equals_per_query_bit_for_bit(n in 4usize..=16, seed in 0u64..10_000) {
        // The structure-of-arrays batch evaluator is a data-layout
        // transformation, not a numerical one: every lane of a mixed
        // WMC/marginal/MPE batch — including duplicated queries, which
        // the packer collapses onto a shared storage lane — must
        // reproduce the arena's single-query answer bit-for-bit, and
        // that answer the circuit's within `reference::check_*`'s bounds.
        use rand::{Rng, SeedableRng};
        let m = 2 * n + (seed % 13) as usize;
        let cnf = reason::sat::gen::random_ksat(n, m, 3, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xBA7C);
        let probs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05..0.95)).collect();
        let Some(circuit) = compile_cnf(&cnf, &WmcWeights::new(probs)) else {
            return Ok(());
        };
        let arena = reason::pc::Dnnf::from_circuit(&circuit).expect("binary universe");
        let lanes = rng.gen_range(1..=9usize);
        let mut evidences: Vec<Evidence> = (0..lanes)
            .map(|_| {
                let mut ev = Evidence::empty(n);
                for v in 0..n {
                    if rng.gen_bool(0.3) {
                        ev.set(v, usize::from(rng.gen_bool(0.5)));
                    }
                }
                ev
            })
            .collect();
        // Force duplicate lanes so the dedup path is always exercised.
        if lanes >= 2 {
            let src = rng.gen_range(0..lanes - 1);
            evidences[lanes - 1] = evidences[src].clone();
        }
        let batch = reason::pc::DnnfBatch::pack(&evidences);
        prop_assert_eq!(batch.lanes(), lanes);
        let mut bbuf = reason::pc::BatchBuffer::new();
        let mut sbuf = reason::pc::BatchBuffer::new();
        let logp = arena.log_probability_batch(&batch, &mut bbuf);
        let wmc = arena.wmc_batch(&batch, &mut bbuf);
        let var = rng.gen_range(0..n);
        let marg = arena.marginal_batch(&batch, var, &mut bbuf);
        let mpe = arena.mpe_batch(&batch, &mut bbuf);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (lane, ev) in evidences.iter().enumerate() {
            let one = reason::pc::DnnfBatch::pack(std::slice::from_ref(ev));
            let lp = arena.log_probability_batch(&one, &mut sbuf)[0];
            prop_assert_eq!(logp[lane].to_bits(), lp.to_bits(), "lane {} logp", lane);
            let p = arena.wmc_batch(&one, &mut sbuf)[0];
            prop_assert_eq!(wmc[lane].to_bits(), p.to_bits(), "lane {} wmc", lane);
            let check = reference::check_probability(&circuit, ev, p);
            prop_assert!(check.is_ok(), "lane {}: {:?}", lane, check);
            let sm = &arena.marginal_batch(&one, var, &mut sbuf)[0];
            prop_assert_eq!(bits(&marg[lane]), bits(sm), "lane {} marginal", lane);
            let check = reference::check_marginal(&circuit, ev, var, sm);
            prop_assert!(check.is_ok(), "lane {}: {:?}", lane, check);
            let single = &arena.mpe_batch(&one, &mut sbuf)[0];
            prop_assert_eq!(&mpe[lane].assignment, &single.assignment, "lane {} mpe", lane);
            prop_assert_eq!(mpe[lane].log_prob.to_bits(), single.log_prob.to_bits());
            let check = reference::check_mpe(&circuit, ev, &single.assignment, single.log_prob);
            prop_assert!(check.is_ok(), "lane {}: {:?}", lane, check);
        }
    }

    #[test]
    fn serve_batch_lanes_equal_per_query_circuit_answers_bit_for_bit(
        n in 4usize..=16,
        seed in 0u64..10_000,
        width in 0usize..5,
    ) {
        // A `ServeBatch` task packs every probability, posterior and
        // marginal lane into one slab walked in lane tiles. Whatever
        // the mix and the batch width (below, at and across tile
        // boundaries), every lane must reproduce bit-for-bit, inline
        // and on the pools, what a twin arena flattened from the same
        // circuit answers one query at a time — and each such answer
        // must sit within its bound of the circuit (`reference::check_*`).
        use rand::{Rng, SeedableRng};
        use reason::system::{
            BatchExecutor, BatchTask, ExecutorConfig, NeuralStage, ServeQuery, SymbolicStage,
            Verdict,
        };
        // reason-pc's private lane-tile width (pinned by
        // tests/batch_traversal_guard.rs).
        const TILE: usize = 64;
        let lanes = [1, TILE - 1, TILE, TILE + 1, 3 * TILE + 5][width];
        let m = 2 * n + (seed % 13) as usize;
        let cnf = reason::sat::gen::random_ksat(n, m, 3, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5E7B);
        let probs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05..0.95)).collect();
        let Some(circuit) = compile_cnf(&cnf, &WmcWeights::new(probs)) else {
            return Ok(());
        };
        let arena = std::sync::Arc::new(reason::pc::Dnnf::from_circuit(&circuit).expect("binary"));
        let twin = reason::pc::Dnnf::from_circuit(&circuit).expect("binary");
        let mut tbuf = reason::pc::BatchBuffer::new();
        let z = twin.wmc();
        let check = reference::check_probability(&circuit, &Evidence::empty(n), z);
        prop_assert!(check.is_ok(), "Z: {:?}", check);

        let mut queries: Vec<ServeQuery> = (0..lanes)
            .map(|_| {
                let mut ev = Evidence::empty(n);
                for v in 0..n {
                    if rng.gen_bool(0.3) {
                        ev.set(v, usize::from(rng.gen_bool(0.5)));
                    }
                }
                match rng.gen_range(0..10) {
                    0 => ServeQuery::Wmc,
                    1..=3 => ServeQuery::Probability(ev),
                    4..=5 => ServeQuery::Posterior(ev),
                    6..=8 => ServeQuery::Marginal(ev, rng.gen_range(0..n)),
                    _ => ServeQuery::Mpe(ev),
                }
            })
            .collect();
        if lanes >= TILE - 1 {
            // The shapes the merged slab must get right: a marginal
            // whose evidence already fixes its variable, a probability
            // lane equal to that marginal's `e∖v` column (cross-kind
            // dedup), zero-mass evidence (the first clause falsified)
            // asked every way, and a repeated lane.
            let var = rng.gen_range(0..n);
            let mut fixed = Evidence::empty(n);
            fixed.set(var, 1).set((var + 1) % n, 0);
            let mut cleared = fixed.clone();
            cleared.clear(var);
            let mut massless = Evidence::empty(n);
            for lit in cnf.clauses()[0].lits() {
                massless.set(lit.var().index(), usize::from(lit.is_neg()));
            }
            let free = (0..n).find(|&v| massless.value(v).is_none()).expect("clauses have <= 3 vars");
            queries[0] = ServeQuery::Marginal(fixed, var);
            queries[1] = ServeQuery::Probability(cleared);
            queries[2] = ServeQuery::Posterior(massless.clone());
            queries[3] = ServeQuery::Marginal(massless.clone(), free);
            queries[4] = ServeQuery::Mpe(massless);
            queries[lanes - 1] = queries[0].clone();
            queries[lanes - 2] = queries[1].clone();
        }

        let degenerate = |p: f64| Verdict::Wmc { estimate: p, lower: p, upper: p };
        let one = |ev: &Evidence| reason::pc::DnnfBatch::pack(std::slice::from_ref(ev));
        let mut want: Vec<Verdict> = Vec::with_capacity(lanes);
        for query in &queries {
            let (answer, check) = match query {
                ServeQuery::Wmc => (degenerate(z), Ok(())),
                ServeQuery::Probability(ev) | ServeQuery::Posterior(ev) => {
                    let p = twin.probability(ev, &mut tbuf);
                    let check = reference::check_probability(&circuit, ev, p);
                    let posterior = matches!(query, ServeQuery::Posterior(_));
                    (degenerate(if posterior { p / z } else { p }), check)
                }
                ServeQuery::Marginal(ev, var) => {
                    let dist = twin.marginal_batch(&one(ev), *var, &mut tbuf).remove(0);
                    let check = reference::check_marginal(&circuit, ev, *var, &dist);
                    (Verdict::Distribution(dist), check)
                }
                ServeQuery::Mpe(ev) => {
                    let res = twin.mpe_batch(&one(ev), &mut tbuf).remove(0);
                    let check =
                        reference::check_mpe(&circuit, ev, &res.assignment, res.log_prob);
                    (Verdict::Assignment { assignment: res.assignment, log_prob: res.log_prob }, check)
                }
            };
            prop_assert!(check.is_ok(), "{:?}: {:?}", query, check);
            want.push(answer);
        }
        if lanes >= TILE - 1 {
            prop_assert_eq!(&want[2], &degenerate(0.0));
            prop_assert_eq!(&want[3], &Verdict::Distribution(vec![0.5, 0.5]));
        }

        // Two tasks, so both pool lanes (and a reused scratch) see work.
        let tasks: Vec<BatchTask> = (0..2)
            .map(|i| BatchTask {
                name: format!("serve-{i}"),
                neural: NeuralStage::Synthetic { duration: std::time::Duration::ZERO },
                symbolic: SymbolicStage::ServeBatch {
                    arena: std::sync::Arc::clone(&arena),
                    z,
                    queries: queries.clone(),
                },
                deadline: None,
            })
            .collect();
        for config in [ExecutorConfig::sequential(), ExecutorConfig::overlapped(2)] {
            for result in BatchExecutor::new(config).run(&tasks).results {
                let Verdict::Batch(got) = result.verdict else {
                    return Err(TestCaseError::fail(format!("{config:?}: {:?}", result.verdict)));
                };
                prop_assert_eq!(got.len(), want.len());
                // `Debug` spells an f64 out exactly, so equal strings are
                // equal bits (and -0.0 differs from 0.0).
                for (lane, (g, w)) in got.iter().zip(&want).enumerate() {
                    prop_assert_eq!(
                        format!("{g:?}"), format!("{w:?}"),
                        "{:?} lane {} ({:?})", config, lane, &queries[lane]
                    );
                }
            }
        }
    }

    #[test]
    fn sparse_lanes_equal_per_query_circuit_answers_bit_for_bit(
        n in 6usize..=16,
        seed in 0u64..10_000,
        shape in 0usize..5,
    ) {
        // The batched walk copies a node's stored empty-evidence value
        // into every lane whose evidence misses the node's scope, and
        // the serving menus observe only 0-2 variables a lane, so most
        // node·lanes take that copy. Whatever the mask looks like —
        // sparse lanes at and across the 64-lane mask width, one dirty
        // lane first or last in an otherwise clean tile, a tile of
        // empty evidence — and with weights at 0 and 1 (empty values
        // of 0), every lane must reproduce the arena's single-query
        // answer bit-for-bit, and that answer sit within its bound of
        // the source circuit (`reference::check_*`).
        use rand::{Rng, SeedableRng};
        // reason-pc's private lane-tile width (pinned by
        // tests/batch_traversal_guard.rs).
        const TILE: usize = 64;
        let m = 2 * n + (seed % 13) as usize;
        let cnf = reason::sat::gen::random_ksat(n, m, 3, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5C0E);
        let probs: Vec<f64> = (0..n)
            .map(|_| match rng.gen_range(0..6) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.gen_range(0.05..0.95),
            })
            .collect();
        let Some(circuit) = compile_cnf(&cnf, &WmcWeights::new(probs)) else {
            return Ok(());
        };
        let arena = reason::pc::Dnnf::from_circuit(&circuit).expect("binary universe");
        let v = rng.gen_range(0..n);
        let lanes: Vec<Evidence> = match shape {
            0 | 1 => {
                // Distinct, so the storage lanes fill the mask width
                // exactly (64) or spill one lane into a second tile (65).
                let mut lanes: Vec<Evidence> = Vec::new();
                while lanes.len() < TILE + shape {
                    let mut ev = Evidence::empty(n);
                    for _ in 0..rng.gen_range(0..=2usize) {
                        ev.set(rng.gen_range(0..n), usize::from(rng.gen_bool(0.5)));
                    }
                    if !lanes.contains(&ev) {
                        lanes.push(ev);
                    }
                }
                lanes
            }
            2 | 3 => {
                // 64 distinct lanes: 63 spell k in base 3 over the
                // variables other than `v`, the dirty one observes only
                // `v` — so nodes over `v` alone see one lane set.
                let others: Vec<usize> = (0..n).filter(|&u| u != v).collect();
                let mut lanes: Vec<Evidence> = (0..TILE - 1)
                    .map(|k| {
                        let mut ev = Evidence::empty(n);
                        let mut rest = k;
                        for &u in &others {
                            if rest % 3 > 0 {
                                ev.set(u, rest % 3 - 1);
                            }
                            rest /= 3;
                        }
                        ev
                    })
                    .collect();
                let mut dirty = Evidence::empty(n);
                dirty.set(v, usize::from(rng.gen_bool(0.5)));
                lanes.insert(if shape == 2 { 0 } else { TILE - 1 }, dirty);
                lanes
            }
            _ => vec![Evidence::empty(n); TILE],
        };
        let refs: Vec<&Evidence> = lanes.iter().collect();
        let marginals: Vec<(&Evidence, usize)> =
            lanes.iter().map(|ev| (ev, rng.gen_range(0..n))).collect();
        let mut bbuf = reason::pc::BatchBuffer::new();
        let mut sbuf = reason::pc::BatchBuffer::new();
        // Probability lanes alone, so storage lane k is query lane k.
        let (ps, _, _) = arena.query_batch(&refs, &[], &[], &mut bbuf);
        let (_, dists, mpes) = arena.query_batch(&[], &marginals, &refs, &mut bbuf);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (lane, ev) in lanes.iter().enumerate() {
            let (p, dist, mpe) = arena.query_batch(&[ev], &[marginals[lane]], &[ev], &mut sbuf);
            prop_assert_eq!(ps[lane].to_bits(), p[0].to_bits(), "lane {} probability", lane);
            let check = reference::check_probability(&circuit, ev, p[0]);
            prop_assert!(check.is_ok(), "lane {}: {:?}", lane, check);
            prop_assert_eq!(bits(&dists[lane]), bits(&dist[0]), "lane {} marginal", lane);
            let check = reference::check_marginal(&circuit, ev, marginals[lane].1, &dist[0]);
            prop_assert!(check.is_ok(), "lane {}: {:?}", lane, check);
            prop_assert_eq!(&mpes[lane].assignment, &mpe[0].assignment, "lane {} mpe", lane);
            prop_assert_eq!(mpes[lane].log_prob.to_bits(), mpe[0].log_prob.to_bits());
            let check = reference::check_mpe(&circuit, ev, &mpe[0].assignment, mpe[0].log_prob);
            prop_assert!(check.is_ok(), "lane {}: {:?}", lane, check);
        }
    }

    #[test]
    fn arena_answers_stay_within_gamma_d_of_a_double_double_reference(
        n in 2usize..=16,
        seed in 0u64..100_000,
    ) {
        // The linear-domain walk's contract: on random formulas, with
        // weights anywhere in (0, 1) including 0, 1 and values near
        // both, every lane of a random batch — probability, marginal
        // and MPE — lies within `γ_D = D·u / (1 − D·u)` of a
        // double-double evaluation of the circuit (`γ_{2D+1}` for a
        // marginal's quotient, `reference::check_mpe`'s terms for the
        // MPE), and the log lane is one `ln` of the linear lane.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x6A3D);
        let m = rng.gen_range(n..=4 * n);
        let cnf = reason::sat::gen::random_ksat(n, m, rng.gen_range(2..=3.min(n)), seed);
        let probs: Vec<f64> = (0..n)
            .map(|_| match rng.gen_range(0..8) {
                0 => 0.0,
                1 => 1.0,
                2 => rng.gen_range(1e-12..1e-3),
                3 => 1.0 - rng.gen_range(1e-12..1e-3),
                _ => rng.gen_range(0.0..1.0),
            })
            .collect();
        let Some(circuit) = compile_cnf(&cnf, &WmcWeights::new(probs)) else {
            return Ok(());
        };
        let arena = reason::pc::Dnnf::from_circuit(&circuit).expect("binary universe");
        let evidences: Vec<Evidence> = (0..rng.gen_range(1..=12usize))
            .map(|_| {
                let observe = rng.gen_range(0.0..1.0);
                let values: Vec<Option<usize>> = (0..n)
                    .map(|_| rng.gen_bool(observe).then(|| usize::from(rng.gen_bool(0.5))))
                    .collect();
                Evidence::from_values(&values)
            })
            .collect();
        let refs: Vec<&Evidence> = evidences.iter().collect();
        let marginals: Vec<(&Evidence, usize)> =
            evidences.iter().map(|ev| (ev, rng.gen_range(0..n))).collect();
        let mut bbuf = reason::pc::BatchBuffer::new();
        let (ps, dists, mpes) = arena.query_batch(&refs, &marginals, &refs, &mut bbuf);
        let logs = arena.log_probability_batch(&reason::pc::DnnfBatch::pack(&evidences), &mut bbuf);
        for (k, ev) in evidences.iter().enumerate() {
            prop_assert_eq!(logs[k].to_bits(), ps[k].ln().to_bits(), "lane {}", k);
            let check = reference::check_probability(&circuit, ev, ps[k]);
            prop_assert!(check.is_ok(), "lane {}: {:?}", k, check);
            let check = reference::check_marginal(&circuit, ev, marginals[k].1, &dists[k]);
            prop_assert!(check.is_ok(), "lane {}: {:?}", k, check);
            let check = reference::check_mpe(&circuit, ev, &mpes[k].assignment, mpes[k].log_prob);
            prop_assert!(check.is_ok(), "lane {}: {:?}", k, check);
        }
    }

    #[test]
    fn circuit_store_roundtrip_preserves_answers_bit_for_bit(n in 4usize..=12, seed in 0u64..10_000) {
        // Insert → evict → recompile through a 1-entry serving store:
        // the recompiled artifact must reproduce the original answers
        // bit-for-bit (eviction costs latency, never correctness).
        use reason::serve::{Answer, Query, QueryKind, ServeConfig, ServeEngine, StoreConfig};
        use rand::{Rng, SeedableRng};
        let m = 2 * n + (seed % 11) as usize;
        let cnf = reason::sat::gen::random_ksat(n, m, 3, seed);
        let weights = WmcWeights::uniform(n);
        if compile_cnf(&cnf, &weights).is_none() {
            return Ok(()); // massless KBs are rejected at registration
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x570E);
        let mut evict_seed = seed ^ 0xE71C7;
        let other = loop {
            let other = reason::sat::gen::random_ksat(6, 13, 3, evict_seed);
            if compile_cnf(&other, &WmcWeights::uniform(6)).is_some() {
                break other;
            }
            evict_seed += 1;
        };
        let mut engine = ServeEngine::new(ServeConfig {
            store: StoreConfig { max_entries: 1, max_bytes: usize::MAX },
            ..ServeConfig::default()
        });
        let kb = engine.register("kb", &cnf, weights);
        let mut evidence = Evidence::empty(n);
        evidence.set(rng.gen_range(0..n), usize::from(rng.gen_bool(0.5)));
        let query = [Query::exact(QueryKind::Posterior(evidence))];
        let Answer::Exact(first) = engine.serve(kb, &query).unwrap().outcomes[0].answer else {
            unreachable!()
        };
        // Fill the 1-entry store with another KB: the first artifact is
        // evicted and the next query recompiles it.
        let filler = engine.register("filler", &other, WmcWeights::uniform(6));
        engine.warm(filler).unwrap();
        prop_assert!(engine.store_stats().evictions >= 1);
        // Drop the entry's circuit too (add + retract restores the same
        // fingerprint at a new revision), so the next query is a
        // genuine recompile, not a rebuild from the cached circuit.
        engine.add_clause(kb, &[1]);
        engine.retract_clause(kb, engine.kb(kb).num_clauses() - 1);
        let Answer::Exact(again) = engine.serve(kb, &query).unwrap().outcomes[0].answer else {
            unreachable!()
        };
        prop_assert_eq!(first.to_bits(), again.to_bits(),
            "evict + recompile changed an answer: {} vs {}", first, again);
    }

    #[test]
    fn circuit_store_matches_a_reference_model_op_for_op(
        ops in prop::collection::vec((0u8..9, 0usize..STORE_POOL, 0usize..STORE_POOL, 0usize..4), 1..=48),
        max_entries in 1usize..=5,
        byte_sixths in 1usize..=6,
    ) {
        // Random insert / overwrite / get / remove / clear programs under
        // tight entry and byte bounds against
        // `StoreModel`, which re-measures every artifact on every use.
        // After each op: the same victims, the same stats, and a byte
        // meter equal to the live artifacts' footprints.
        let pool = store_pool();
        let total: usize = pool.iter().map(|(_, art)| art.bytes()).sum();
        let config = StoreConfig { max_entries, max_bytes: total * byte_sixths / 6 };
        let mut store = CircuitStore::new(config);
        let mut model = StoreModel::default();
        for (step, &(op, a, b, cost)) in ops.iter().enumerate() {
            match op {
                0..=4 => {
                    // 0–2 insert a fresh key, 3–4 overwrite a live one;
                    // either falls back to the other when no key fits.
                    let before: Vec<usize> =
                        (0..STORE_POOL).filter(|&k| store.contains(&pool[k].0)).collect();
                    let key = (0..STORE_POOL)
                        .map(|i| (a + i) % STORE_POOL)
                        .find(|k| before.contains(k) == (op >= 3))
                        .unwrap_or(a);
                    // Another key's body under this key: sizes vary per
                    // insert, and an overwrite changes the entry's size.
                    let mut value = pool[b].1.clone();
                    value.compile_s = [0.0, 2e-4, 1e-3, 5e-3][cost];
                    store.insert(pool[key].0.clone(), value.clone());
                    let gone: Vec<usize> =
                        before.into_iter().filter(|&k| !store.contains(&pool[k].0)).collect();
                    // `contains` reads one insert's victims as a set. The
                    // model lists them in eviction order, which is
                    // ascending (score, recency) — a function of the set —
                    // so comparing sets per insert compares the order.
                    let mut victims = model.insert(key, value, config);
                    victims.sort_unstable();
                    prop_assert_eq!(&gone, &victims, "step {}: evicted {:?}, model {:?}", step, gone, victims);
                }
                5 | 6 => {
                    let got = store.get(&pool[a].0).map(|art| Arc::as_ptr(&art.dnnf));
                    let want = model.get(a).map(|art| Arc::as_ptr(&art.dnnf));
                    prop_assert_eq!(got, want, "step {}: get {}", step, a);
                }
                7 => {
                    let got = store.remove(&pool[a].0).map(|art| Arc::as_ptr(&art.dnnf));
                    let want = model.remove(a).map(|art| Arc::as_ptr(&art.dnnf));
                    prop_assert_eq!(got, want, "step {}: remove {}", step, a);
                }
                _ => {
                    store.clear();
                    model.clear();
                }
            }
            let (stats, want) = (store.stats(), model.stats());
            prop_assert_eq!(stats, want, "step {}: stats {:?}, model {:?}", step, stats, want);
            let metered: usize =
                (0..STORE_POOL).filter_map(|k| store.peek(&pool[k].0)).map(StoredCircuit::bytes).sum();
            prop_assert_eq!(stats.bytes, metered, "step {}: byte meter vs live footprints", step);
        }
    }

    #[test]
    fn approx_brackets_are_well_formed_and_track_brute_truth(cnf in arb_cnf(8, 14), seed in 0u64..1000) {
        // Small-budget Monte-Carlo WMC: the anytime bracket must be
        // well-formed at every checkpoint, and the enumerated truth must
        // sit within the 4σ envelope plus a small absolute slack. (The
        // envelope itself is a confidence interval — a *strict*
        // containment assertion over many thousands of property cases
        // would flake on the expected tail; the slack turns the check
        // into a ~6σ event, negligible at any case count.)
        let est = reason::approx::mc_wmc(
            &cnf,
            &WmcWeights::uniform(8),
            &reason::approx::SampleConfig { samples: 2048, checkpoint: 512, seed },
        );
        prop_assert!(est.lower <= est.estimate && est.estimate <= est.upper);
        for p in est.trace.points() {
            prop_assert!(p.lower <= p.estimate && p.estimate <= p.upper);
            prop_assert!((0.0..=1.0).contains(&p.lower) && (0.0..=1.0).contains(&p.upper));
        }
        let exact = reason::sat::weighted_count(&cnf, &[0.5; 8]);
        prop_assert!(
            exact >= est.lower - 0.02 && exact <= est.upper + 0.02,
            "[{}, {}] (+-0.02) misses brute truth {}", est.lower, est.upper, exact
        );
    }

    #[test]
    fn consistent_ring_remaps_only_the_new_shards_arcs(shards in 1usize..8, seed in 0u64..10_000) {
        // The cluster front-end's placement contract: routing is a pure
        // function of (key, ring parameters) — two rings built from the
        // same parameters agree on every key — and growing the ring by
        // one shard only remaps the keys whose arcs the new shard's
        // virtual points capture (about 1/(N+1) of them), each landing
        // on the new shard. Shrinking is the same statement read
        // backwards: removing shard N only disturbs keys that lived on
        // shard N, so the "movers land on the new shard" assertion
        // covers both directions.
        use rand::{Rng, SeedableRng};
        use reason::serve::{FormulaFingerprint, HashRing};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cnf = Cnf::from_clauses(3, vec![vec![1, 2], vec![-2, 3]]);
        let keys: Vec<FormulaFingerprint> = (0..128)
            .map(|_| {
                let probs: Vec<f64> = (0..3).map(|_| rng.gen_range(0.05..0.95)).collect();
                FormulaFingerprint::from_parts(3, cnf.clauses(), &WmcWeights::new(probs))
            })
            .collect();
        let ring = HashRing::new(shards, 32, seed);
        let again = HashRing::new(shards, 32, seed);
        let grown = HashRing::new(shards + 1, 32, seed);
        let mut moved = 0usize;
        for fp in &keys {
            let before = ring.shard_for(fp);
            prop_assert!(before < shards);
            prop_assert_eq!(before, again.shard_for(fp), "routing must be deterministic");
            let after = grown.shard_for(fp);
            if after != before {
                moved += 1;
                prop_assert_eq!(after, shards, "a remapped key may only land on the new shard");
            }
        }
        // The expected remap fraction is 1/(shards+1). Allow twice that
        // plus an absolute slack for the arc-length variance of 32
        // virtual points per shard — many standard deviations above the
        // mean, so the bound never flakes, while any return to modulo
        // placement (which remaps ~half of all keys) still fails it.
        let bound = 2 * keys.len() / (shards + 1) + keys.len() / 8;
        prop_assert!(
            moved <= bound,
            "adding a shard moved {}/{} keys (bound {})", moved, keys.len(), bound
        );
    }

    #[test]
    fn cluster_admission_degrades_soundly_and_loses_no_query(cnf in arb_cnf(8, 14), seed in 0u64..1000) {
        // Pre-dispatch admission may degrade or reject, never lie or
        // lose: every submitted query gets exactly one outcome (rejects
        // included, answerless and flagged), exact answers are
        // bit-identical to an unsharded engine's, and a degraded
        // query's bracket must contain the compiled-oracle truth up to
        // the same statistical slack the approx property above pins.
        use std::time::Duration;
        use reason::pc::CompiledWmc;
        use reason::serve::{
            Admission, Answer, ClusterConfig, Query, QueryKind, Route, ServeCluster, ServeConfig,
            ServeEngine,
        };
        let weights = WmcWeights::uniform(8);
        let oracle = CompiledWmc::new(&cnf, &weights);
        if !oracle.has_mass() {
            return Ok(()); // massless KBs are rejected at registration
        }
        let exact = oracle.wmc();
        let mut config = ClusterConfig::with_shards(2);
        config.engine = ServeConfig { approx_seed: seed, ..ServeConfig::default() };
        let mut cluster = ServeCluster::new(config);
        let kb = cluster.register("kb", &cnf, weights.clone());
        // All four arrive at t = 0 on a cold shard, so the modeled
        // queue fills deterministically: the first deadline is too
        // tight for a cold compile (degrade), the unbounded queries
        // stay exact (the second one warm), and by the last arrival the
        // backlog alone exceeds a 1 µs deadline (reject).
        let queries = [
            Query::with_deadline(QueryKind::Wmc, Duration::from_micros(100)),
            Query::exact(QueryKind::Wmc),
            Query::with_deadline(QueryKind::Wmc, Duration::from_micros(1)),
            Query::exact(QueryKind::Wmc),
        ];
        let arrivals: Vec<_> = queries.iter().map(|q| (kb, q.clone(), 0.0)).collect();
        let report = cluster.serve_at(&arrivals).unwrap();
        prop_assert_eq!(report.outcomes.len(), queries.len(), "no query may vanish");
        let s = report.stats;
        prop_assert_eq!(
            s.exact + s.approx + s.predicted + s.rejected,
            queries.len() as u64,
            "admission counters must account for every query"
        );
        prop_assert_eq!((s.exact, s.approx, s.rejected), (2, 1, 1));
        // The degraded query: an anytime bracket containing the truth.
        let degraded =
            matches!(report.outcomes[0].decision, Admission::Admit(Route::Approx { .. }));
        prop_assert!(degraded, "tight-deadline cold query must degrade to bounds");
        let Some(Answer::Bounds { estimate, lower, upper }) = report.outcomes[0].answer.clone()
        else {
            panic!("degraded query must answer with bounds");
        };
        prop_assert!(lower <= estimate && estimate <= upper);
        prop_assert!(
            exact >= lower - 0.02 && exact <= upper + 0.02,
            "[{}, {}] (+-0.02) misses the compiled oracle {}", lower, upper, exact
        );
        // The reject: flagged, answerless, but still reported.
        let rejected = matches!(report.outcomes[2].decision, Admission::Reject { .. });
        prop_assert!(rejected, "backlogged 1 microsecond deadline must reject");
        prop_assert!(report.outcomes[2].answer.is_none());
        prop_assert!(report.outcomes[2].deadline_miss);
        // The exact admissions: bit-identical to an unsharded engine.
        let mut single = ServeEngine::new(ServeConfig::default());
        let skb = single.register("kb", &cnf, weights);
        let reference = single
            .serve(skb, &[Query::exact(QueryKind::Wmc), Query::exact(QueryKind::Wmc)])
            .unwrap();
        for (cluster_i, single_i) in [(1usize, 0usize), (3, 1)] {
            let (Some(Answer::Exact(a)), Answer::Exact(b)) =
                (&report.outcomes[cluster_i].answer, &reference.outcomes[single_i].answer)
            else {
                panic!("exact admission must answer exactly");
            };
            prop_assert_eq!(
                a.to_bits(), b.to_bits(),
                "sharded exact answer {} differs from unsharded {}", a, b
            );
        }
    }

    #[test]
    fn removing_a_shard_remaps_only_its_own_keys(shards in 2usize..8, dead in 0usize..8, seed in 0u64..10_000) {
        // Failover's routing contract, the shrink direction of the
        // grow property above: dropping a dead shard from the ring
        // only remaps the keys that lived on it — surviving shards
        // never trade keys among themselves, so a failover storm
        // cannot cascade recompiles across healthy shards.
        use rand::{Rng, SeedableRng};
        use reason::serve::{FormulaFingerprint, HashRing};
        let dead = dead % shards;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cnf = Cnf::from_clauses(3, vec![vec![1, 2], vec![-2, 3]]);
        let ring = HashRing::new(shards, 32, seed);
        let shrunk = ring.remove_shard(dead);
        for _ in 0..128 {
            let probs: Vec<f64> = (0..3).map(|_| rng.gen_range(0.05..0.95)).collect();
            let fp = FormulaFingerprint::from_parts(3, cnf.clauses(), &WmcWeights::new(probs));
            let before = ring.shard_for(&fp);
            let after = shrunk.shard_for(&fp);
            prop_assert!(after != dead, "removed shard {} still owns a key", dead);
            if before != dead {
                prop_assert_eq!(
                    after, before,
                    "removing shard {} moved a key from surviving shard {}", dead, before
                );
            }
        }
    }

    #[test]
    fn faulted_cluster_loses_no_query_and_exact_answers_match_oracle(cnf in arb_cnf(8, 14), seed in 0u64..500) {
        // The fault layer's availability contract: under ANY seeded
        // fault plan (crashes, slow shards, compile faults, cache
        // wipes) the cluster loses no query — every submission gets
        // exactly one outcome, every admitted query an answer — and
        // every exact answer that was not degraded by a fault is
        // bit-identical to an unsharded engine's, whether it was
        // served on the home shard, retried, or recompiled on a
        // failover shard. (The breaker's closed → open → half-open →
        // closed walk is pinned separately in `reason_serve::fault`.)
        use std::time::Duration;
        use reason::pc::CompiledWmc;
        use reason::serve::{
            Admission, Answer, ClusterConfig, FaultPlan, Query, QueryKind, Route, ServeCluster,
            ServeConfig, ServeEngine,
        };
        let weights = WmcWeights::uniform(8);
        if !CompiledWmc::new(&cnf, &weights).has_mass() {
            return Ok(()); // massless KBs are rejected at registration
        }
        let shards = 2 + (seed as usize) % 3;
        let mut config = ClusterConfig::with_shards(shards);
        config.engine = ServeConfig { approx_seed: seed, ..ServeConfig::default() };
        let mut cluster = ServeCluster::new(config);
        let kb = cluster.register("kb", &cnf, weights.clone());
        // A fault plan over the whole workload horizon, seeded from the
        // case seed: any mix of crashes, slowdowns, compile faults and
        // cache wipes the generator can produce.
        cluster.install_fault_domain(FaultPlan::seeded(seed, shards, 8.0), seed);
        let arrivals: Vec<_> = (0..8)
            .map(|i| {
                let q = match i % 3 {
                    0 => Query::exact(QueryKind::Wmc),
                    1 => Query::with_deadline(QueryKind::Wmc, Duration::from_micros(200)),
                    _ => Query::with_deadline(QueryKind::Wmc, Duration::from_millis(10)),
                };
                (kb, q, i as f64)
            })
            .collect();
        let report = cluster.serve_at(&arrivals).unwrap();
        prop_assert_eq!(report.outcomes.len(), arrivals.len(), "no query may vanish");

        let mut single = ServeEngine::new(ServeConfig::default());
        let skb = single.register("kb", &cnf, weights);
        let reference = single.serve(skb, &[Query::exact(QueryKind::Wmc)]).unwrap();
        let Answer::Exact(truth) = reference.outcomes[0].answer else {
            panic!("deadline-free query is exact");
        };
        for outcome in &report.outcomes {
            match outcome.decision {
                Admission::Reject { .. } => {
                    prop_assert!(outcome.answer.is_none());
                    prop_assert!(outcome.deadline_miss, "rejects must be flagged");
                }
                Admission::Admit(route) => {
                    prop_assert!(
                        outcome.answer.is_some(),
                        "admitted query lost under faults: {:?}", outcome
                    );
                    if matches!(route, Route::Exact) && !outcome.degraded_by_fault {
                        let Some(Answer::Exact(z)) = outcome.answer else {
                            panic!("exact admission must answer exactly: {outcome:?}");
                        };
                        prop_assert_eq!(
                            z.to_bits(), truth.to_bits(),
                            "exact answer {} differs from oracle {} (failover={})",
                            z, truth, outcome.failover
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn histogram_merge_matches_single_tally(
        shards in prop::collection::vec(
            prop::collection::vec(-1_000i32..1_000_000, 0..30),
            1..5,
        )
    ) {
        // Cross-shard aggregation contract: per-shard histograms merged
        // into a collector must be indistinguishable from tallying every
        // sample into one histogram — buckets, counts, and (for
        // integer-valued samples, whose f64 sums are exact in any
        // order) the running sum, bit for bit.
        use reason::telemetry::Histogram;
        let merged = Histogram::default();
        let single = Histogram::default();
        for shard in &shards {
            let local = Histogram::default();
            for &v in shard {
                local.record(f64::from(v));
                single.record(f64::from(v));
            }
            merged.merge(&local);
        }
        let (a, b) = (merged.snapshot(), single.snapshot());
        prop_assert_eq!(&a.buckets, &b.buckets);
        prop_assert_eq!(a.count, b.count);
        prop_assert_eq!(a.nan, b.nan);
        prop_assert_eq!(a.sum.to_bits(), b.sum.to_bits(), "sum {} vs {}", a.sum, b.sum);
    }

    #[test]
    fn stage_breakdown_partitions_modeled_latency_exactly(
        cnf in arb_cnf(8, 14), seed in 0u64..500, faulted in any::<bool>()
    ) {
        // The attribution contract behind `reason-eval trace`:
        // queue_s + compile_s + exec_s IS the modeled latency — not
        // within a tolerance, but bit for bit — for every outcome,
        // with or without an active fault plan (failover recompiles
        // and retry backoff must flow into the same partition).
        use std::time::Duration;
        use reason::pc::CompiledWmc;
        use reason::serve::{
            ClusterConfig, FaultPlan, Query, QueryKind, ServeCluster, ServeConfig,
        };
        let weights = WmcWeights::uniform(8);
        if !CompiledWmc::new(&cnf, &weights).has_mass() {
            return Ok(()); // massless KBs are rejected at registration
        }
        let shards = 2 + (seed as usize) % 3;
        let mut config = ClusterConfig::with_shards(shards);
        config.engine = ServeConfig { approx_seed: seed, ..ServeConfig::default() };
        let mut cluster = ServeCluster::new(config);
        let kb = cluster.register("kb", &cnf, weights);
        if faulted {
            cluster.install_fault_domain(FaultPlan::seeded(seed, shards, 8.0), seed);
        }
        let arrivals: Vec<_> = (0..8)
            .map(|i| {
                let q = match i % 3 {
                    0 => Query::exact(QueryKind::Wmc),
                    1 => Query::with_deadline(QueryKind::Wmc, Duration::from_micros(200)),
                    _ => Query::with_deadline(QueryKind::Wmc, Duration::from_millis(10)),
                };
                (kb, q, i as f64)
            })
            .collect();
        let report = cluster.serve_at(&arrivals).unwrap();
        prop_assert_eq!(report.outcomes.len(), arrivals.len());
        for outcome in &report.outcomes {
            prop_assert_eq!(
                outcome.stage.total().to_bits(),
                outcome.modeled_latency_s.to_bits(),
                "stage partition must be exact (faulted={}): {:?}", faulted, outcome
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Seed-pinned regressions.
//
// The randomized properties above report a replay seed on failure; any
// such failure gets pinned here as a concrete deterministic case so it
// can never silently regress. The cases below additionally pin the
// boundary shapes the random generator reaches only rarely (unit
// clauses, duplicate/contradictory literals, single-variable formulas,
// the smallest Benes network, length-1 HMM filtering).
// ---------------------------------------------------------------------------

/// Every engine and the full DAG→VLIW stack on a fixed contradictory
/// formula: (x1) ∧ (¬x1) plus satisfiable padding.
#[test]
fn pinned_contradiction_is_unsat_through_preprocessing() {
    let cnf = Cnf::from_clauses(3, vec![vec![1], vec![-1], vec![2, 3], vec![-2, 3]]);
    assert!(!brute_force(&cnf).is_sat());
    let result = Preprocessor::new().run(&cnf);
    let got = match result.decided {
        Some(d) => d,
        None => CdclSolver::new(&result.cnf).solve().is_sat(),
    };
    assert!(!got, "preprocessing must preserve UNSAT");
}

/// The default pass preserves satisfiability, **not** the weighted
/// count: on (x1 ∨ x2) ∧ (¬x2 ∨ x3) it fixes the pure literals x1 and
/// x3 and decides SAT, and the count under uniform weights moves from
/// 1/2 to 1 — why `Preprocessor` cannot front `compile_cnf` as
/// configured (ROADMAP item 5, the count-preserving front pass).
#[test]
fn pinned_default_preprocessing_keeps_satisfiability_but_moves_the_weighted_count() {
    let cnf = Cnf::from_clauses(3, vec![vec![1, 2], vec![-2, 3]]);
    let uniform = [0.5; 3];
    assert!(brute_force(&cnf).is_sat());
    assert_eq!(weighted_count(&cnf, &uniform), 0.5);

    let result = Preprocessor::new().run(&cnf);
    assert_eq!(result.decided, Some(true), "satisfiability is kept");
    assert!(cnf.eval(&result.reconstruct_model(&[false; 3])), "and a model reconstructs");
    assert_eq!(weighted_count(&result.cnf, &uniform), 1.0, "the count is not");
}

/// Duplicate and tautological literals in one clause must not confuse
/// DAG lowering: (x1 ∨ x1 ∨ ¬x1) is a tautology, the formula reduces to
/// the remaining clauses.
#[test]
fn pinned_tautological_clause_lowering_matches_eval() {
    let cnf = Cnf::from_clauses(3, vec![vec![1, 1, -1], vec![2, -3]]);
    let (dag, _) = dag_from_cnf(&cnf);
    let reg = regularize(&dag);
    for bits in 0u32..8 {
        let model: Vec<bool> = (0..3).map(|v| bits >> v & 1 == 1).collect();
        let inputs: Vec<f64> = model.iter().map(|&b| f64::from(b)).collect();
        let expect = f64::from(u8::from(cnf.eval(&model)));
        assert_eq!(dag.evaluate_output(&inputs), expect, "model {bits:03b}");
        assert_eq!(reg.evaluate_output(&inputs), expect, "regularized, model {bits:03b}");
    }
}

/// The single-variable formula (x1) through compilation and execution:
/// the smallest kernel the compiler must handle.
#[test]
fn pinned_single_variable_kernel_executes() {
    let cnf = Cnf::from_clauses(1, vec![vec![1]]);
    let (dag, _) = dag_from_cnf(&cnf);
    let dag = regularize(&dag);
    let config = ArchConfig::paper();
    let kernel = ReasonCompiler::new(config).compile(&dag).unwrap();
    let exec = VliwExecutor::new(config);
    assert_eq!(exec.execute(&kernel.program(&[1.0])).output, 1.0);
    assert_eq!(exec.execute(&kernel.program(&[0.0])).output, 0.0);
}

/// The 2×2 Benes network must route both permutations.
#[test]
fn pinned_smallest_benes_routes_identity_and_swap() {
    let net = BenesNetwork::new(2);
    for perm in [vec![0usize, 1], vec![1usize, 0]] {
        let routing = net.route(&perm).unwrap();
        let out = routing.apply(&[0usize, 1]);
        for (i, &o) in perm.iter().enumerate() {
            assert_eq!(out[o], i, "perm {perm:?}");
        }
    }
}

/// WMC on a fixed formula with known exact weighted count:
/// (x1 ∨ x2) with p = 0.5 each ⇒ probability 0.75.
#[test]
fn pinned_wmc_matches_hand_computed_probability() {
    let cnf = Cnf::from_clauses(2, vec![vec![1, 2]]);
    let weights = WmcWeights::new(vec![0.5; 2]);
    let circuit = compile_cnf(&cnf, &weights).expect("tiny formula compiles");
    let pr = circuit.probability(&Evidence::empty(2));
    assert!((pr - 0.75).abs() < 1e-12, "got {pr}");
    circuit.validate().unwrap();
}

/// Keys in [`store_pool`].
const STORE_POOL: usize = 6;

/// Six small compiled artifacts of mixed sizes (n = 4…9), built once
/// and shared by every case of the store model property.
fn store_pool() -> &'static [(FormulaFingerprint, StoredCircuit)] {
    static POOL: OnceLock<Vec<(FormulaFingerprint, StoredCircuit)>> = OnceLock::new();
    POOL.get_or_init(|| {
        (0..STORE_POOL)
            .map(|k| {
                let n = 4 + k;
                let weights = WmcWeights::uniform(n);
                let (cnf, circuit) = (0..)
                    .find_map(|seed| {
                        let cnf = reason::sat::gen::random_ksat(n, 2 * n, 3, 70 + 1000 * seed);
                        compile_cnf(&cnf, &weights).map(|circuit| (cnf, circuit))
                    })
                    .expect("some seed is satisfiable");
                let dnnf = reason::pc::Dnnf::from_circuit(&circuit).expect("binary");
                let value = StoredCircuit {
                    dnnf: Arc::new(dnnf),
                    compile_s: 0.0,
                    stats: Default::default(),
                };
                (FormulaFingerprint::new(&cnf, &weights), value)
            })
            .collect()
    })
}

/// One live entry of [`StoreModel`].
struct ModelSlot {
    key: usize,
    value: StoredCircuit,
    last_used: u64,
    cost_s: f64,
}

/// A reference `CircuitStore` over [`store_pool`] labels: it keeps no
/// byte meter and recomputes `StoredCircuit::bytes()` on every use.
#[derive(Default)]
struct StoreModel {
    slots: Vec<ModelSlot>,
    ewma: HashMap<usize, f64>,
    tick: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

impl StoreModel {
    fn bytes(&self) -> usize {
        self.slots.iter().map(|s| s.value.bytes()).sum()
    }

    fn get(&mut self, key: usize) -> Option<&StoredCircuit> {
        self.tick += 1;
        match self.slots.iter_mut().find(|s| s.key == key) {
            Some(slot) => {
                slot.last_used = self.tick;
                self.hits += 1;
                Some(&slot.value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn remove(&mut self, key: usize) -> Option<StoredCircuit> {
        let at = self.slots.iter().position(|s| s.key == key)?;
        Some(self.slots.swap_remove(at).value)
    }

    fn clear(&mut self) {
        self.slots.clear();
    }

    /// Inserts or overwrites `key`, then evicts until both bounds hold;
    /// returns the victims in eviction order.
    fn insert(&mut self, key: usize, value: StoredCircuit, config: StoreConfig) -> Vec<usize> {
        self.tick += 1;
        self.insertions += 1;
        let cost_s = match self.ewma.get(&key) {
            Some(&old) => 0.7 * old + 0.3 * value.compile_s.max(0.0),
            None => value.compile_s.max(0.0),
        };
        self.ewma.insert(key, cost_s);
        self.remove(key);
        self.slots.push(ModelSlot { key, value, last_used: self.tick, cost_s });
        let mut victims = Vec::new();
        while self.slots.len() > config.max_entries
            || (self.bytes() > config.max_bytes && self.slots.len() > 1)
        {
            let score = |s: &ModelSlot| s.value.bytes() as f64 * s.cost_s;
            let victim = self
                .slots
                .iter()
                .filter(|s| s.key != key)
                .min_by(|a, b| score(a).total_cmp(&score(b)).then(a.last_used.cmp(&b.last_used)))
                .map(|s| s.key)
                .expect("another entry is live");
            self.remove(victim);
            self.evictions += 1;
            victims.push(victim);
        }
        victims
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            insertions: self.insertions,
            evictions: self.evictions,
            entries: self.slots.len(),
            bytes: self.bytes(),
        }
    }
}
