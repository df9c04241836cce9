//! Cross-crate integration: the full REASON stack, from reasoning kernel
//! to cycle-level hardware execution.
//!
//! These tests pin the reproduction's central invariant: every layer —
//! exact substrate algorithms, the unified DAG, the compiled VLIW
//! program on the simulated accelerator, and the co-processor interface —
//! computes the same answers.

use reason::arch::{ArchConfig, SymbolicEngine, VliwExecutor};
use reason::compiler::ReasonCompiler;
use reason::core::{dag_from_circuit, dag_from_cnf, dag_from_hmm, KernelSource, ReasonPipeline};
use reason::fol::{clausify, ground_clauses, parse_formula, prove, Formula, ProofResult};
use reason::hmm::Hmm;
use reason::neural::{CsrMatrix, LlmProxy, Matrix, MlpBuilder};
use reason::pc::{random_mixture_circuit, Evidence, StructureConfig};
use reason::sat::{
    brute_force, gen::random_ksat, CdclSolver, CubeAndConquer, CubeConfig, Solution,
};
use reason::system::{
    BatchExecutor, ExecutorConfig, ReasonDevice, SharedMemory, StageCost, TwoLevelPipeline,
};

#[test]
fn four_sat_engines_agree() {
    for seed in 0..8 {
        let cnf = random_ksat(10, 40, 3, seed);
        let expect = brute_force(&cnf).is_sat();
        assert_eq!(CdclSolver::new(&cnf).solve().is_sat(), expect, "cdcl seed {seed}");
        let cube = CubeAndConquer::new(&cnf, CubeConfig::default()).solve();
        assert_eq!(cube.solution.is_sat(), expect, "cube-and-conquer seed {seed}");
        let (hw, _) = SymbolicEngine::new(ArchConfig::paper()).solve(&cnf);
        assert_eq!(hw.is_sat(), expect, "hardware seed {seed}");
    }
}

#[test]
fn sat_dag_on_hardware_evaluates_satisfying_assignments() {
    let cnf = random_ksat(9, 32, 3, 3);
    let config = ArchConfig::paper();
    let kernel = ReasonPipeline::new().compile(KernelSource::Sat(&cnf)).unwrap();
    let compiled = ReasonCompiler::new(config).compile(&kernel.dag).unwrap();
    let exec = VliwExecutor::new(config);
    let mut checked = 0;
    for bits in 0..512u32 {
        let model: Vec<bool> = (0..9).map(|v| bits >> v & 1 == 1).collect();
        if cnf.eval(&model) {
            let inputs: Vec<f64> = model.iter().map(|&b| f64::from(b)).collect();
            let report = exec.execute(&compiled.program(&inputs));
            assert_eq!(report.output, 1.0, "model {bits:09b} must satisfy the compiled kernel");
            checked += 1;
        }
    }
    assert!(checked > 0, "instance should have models");
}

#[test]
fn pc_inference_matches_through_every_layer() {
    let circuit = random_mixture_circuit(&StructureConfig {
        num_vars: 7,
        depth: 3,
        num_components: 2,
        seed: 11,
    });
    let config = ArchConfig::paper();
    let (dag, map) = dag_from_circuit(&circuit);
    let dag = reason::core::regularize(&dag);
    let compiled = ReasonCompiler::new(config).compile(&dag).unwrap();
    let exec = VliwExecutor::new(config);
    for seed in 0..10u64 {
        // Random partial evidence.
        let ev: Vec<Option<usize>> = (0..7)
            .map(|v| match (seed + v) % 3 {
                0 => Some(((seed >> v) & 1) as usize),
                _ => None,
            })
            .collect();
        let exact = circuit.probability(&Evidence::from_values(&ev));
        let dag_val = dag.evaluate_output(&map.inputs_for_evidence(circuit.arities(), &ev));
        let hw = exec.execute(&compiled.program(&map.inputs_for_evidence(circuit.arities(), &ev)));
        assert!((dag_val - exact).abs() < 1e-9, "DAG vs circuit, evidence {ev:?}");
        assert!((hw.output - exact).abs() < 1e-9, "hardware vs circuit, evidence {ev:?}");
    }
}

#[test]
fn hmm_likelihood_matches_through_every_layer() {
    let hmm = Hmm::random(4, 5, 77);
    let len = 7;
    let config = ArchConfig::paper();
    let (dag, map) = dag_from_hmm(&hmm, len);
    let dag = reason::core::regularize(&dag);
    let compiled = ReasonCompiler::new(config).compile(&dag).unwrap();
    let exec = VliwExecutor::new(config);
    for seed in 0..5u64 {
        let obs: Vec<usize> = (0..len).map(|t| ((seed + t as u64 * 3) % 5) as usize).collect();
        let wrapped: Vec<Option<usize>> = obs.iter().map(|&o| Some(o)).collect();
        let exact = hmm.log_likelihood(&obs).exp();
        let hw = exec.execute(&compiled.program(&map.inputs_for_observations(&wrapped)));
        assert!(
            (hw.output - exact).abs() < 1e-9,
            "hardware {} vs forward algorithm {exact}",
            hw.output
        );
    }
}

#[test]
fn pruned_sat_kernel_still_accepts_models_on_hardware() {
    // The full REASON pipeline (with pruning) composed with hardware
    // execution: every model of the original formula must still evaluate
    // to 1.0 on the accelerator.
    let cnf = random_ksat(8, 26, 3, 21);
    let config = ArchConfig::paper();
    let kernel = ReasonPipeline::new().compile(KernelSource::Sat(&cnf)).unwrap();
    let compiled = ReasonCompiler::new(config).compile(&kernel.dag).unwrap();
    let exec = VliwExecutor::new(config);
    for bits in 0..256u32 {
        let model: Vec<bool> = (0..8).map(|v| bits >> v & 1 == 1).collect();
        if cnf.eval(&model) {
            let inputs: Vec<f64> = model.iter().map(|&b| f64::from(b)).collect();
            assert_eq!(exec.execute(&compiled.program(&inputs)).output, 1.0);
        }
    }
}

#[test]
fn fol_resolution_agrees_with_grounded_sat_on_every_engine() {
    // A goal the resolution prover derives in two chained steps.
    let axioms = vec![
        parse_formula("forall X. (man(X) -> mortal(X))").unwrap(),
        parse_formula("forall X. (mortal(X) -> fallible(X))").unwrap(),
        parse_formula("man(socrates)").unwrap(),
        parse_formula("man(plato)").unwrap(),
    ];
    let goal = parse_formula("fallible(socrates)").unwrap();
    assert!(
        matches!(prove(&axioms, &goal, 10_000), ProofResult::Proved { .. }),
        "resolution must derive the chained implication"
    );

    // The same entailment question, grounded to propositional SAT:
    // axioms ∧ ¬goal must be UNSAT, and every SAT engine — exact
    // brute force, CDCL, and the watched-literal BCP hardware — must
    // agree with the prover.
    let mut formulas = axioms.clone();
    formulas.push(Formula::not(goal));
    let grounding = ground_clauses(&clausify(&formulas), &[]).expect("function-free");
    let cnf = grounding.cnf;
    assert!(!brute_force(&cnf).is_sat(), "prover and grounding must agree: UNSAT");
    assert!(!CdclSolver::new(&cnf).solve().is_sat(), "cdcl");
    let (hw, _) = SymbolicEngine::new(ArchConfig::paper()).solve(&cnf);
    assert!(!hw.is_sat(), "BCP hardware");
}

#[test]
fn unprovable_fol_goal_grounds_to_sat_models_on_hardware() {
    // `mortal(plato)` does not follow without `man(plato)`: resolution
    // saturates, so the grounded counterexample search must be SAT.
    let axioms = vec![
        parse_formula("forall X. (man(X) -> mortal(X))").unwrap(),
        parse_formula("man(socrates)").unwrap(),
        parse_formula("person(plato)").unwrap(),
    ];
    let goal = parse_formula("mortal(plato)").unwrap();
    assert!(
        !matches!(prove(&axioms, &goal, 10_000), ProofResult::Proved { .. }),
        "goal must not be entailed"
    );

    let mut formulas = axioms.clone();
    formulas.push(Formula::not(goal));
    let grounding = ground_clauses(&clausify(&formulas), &[]).expect("function-free");
    let cnf = grounding.cnf;
    assert!(brute_force(&cnf).is_sat(), "prover and grounding must agree: SAT");

    // Push the grounded kernel through the full stack: the CDCL model
    // must evaluate to 1.0 on the unified DAG and on the compiled VLIW
    // program, exactly as the substrate's `Cnf::eval` says.
    let model = match CdclSolver::new(&cnf).solve() {
        Solution::Sat(m) => m,
        Solution::Unsat => panic!("instance is satisfiable"),
    };
    assert!(cnf.eval(&model));
    let inputs: Vec<f64> = model.iter().map(|&b| f64::from(b)).collect();
    let (dag, _) = dag_from_cnf(&cnf);
    assert_eq!(dag.evaluate_output(&inputs), 1.0, "DAG agrees with Cnf::eval");
    let config = ArchConfig::paper();
    let kernel = ReasonPipeline::new().compile(KernelSource::Sat(&cnf)).unwrap();
    let compiled = ReasonCompiler::new(config).compile(&kernel.dag).unwrap();
    let report = VliwExecutor::new(config).execute(&compiled.program(&inputs));
    assert_eq!(report.output, 1.0, "hardware agrees with Cnf::eval");
}

#[test]
fn neural_sparse_kernels_agree_with_dense_reference() {
    // The tree-PE's SpMSpM mode executes CSR kernels; they must compute
    // exactly what the dense tensor substrate computes.
    let a = Matrix::random(12, 16, 1.0, 42);
    let b = Matrix::random(16, 10, 1.0, 43);
    let exact = a.matmul(&b);
    let sparse = CsrMatrix::from_dense(&a).spmspm(&CsrMatrix::from_dense(&b)).to_dense();
    assert_eq!(sparse.rows(), exact.rows());
    assert_eq!(sparse.cols(), exact.cols());
    for r in 0..exact.rows() {
        for c in 0..exact.cols() {
            assert!(
                (sparse.at(r, c) - exact.at(r, c)).abs() < 1e-4,
                "SpMSpM [{r},{c}]: {} vs dense {}",
                sparse.at(r, c),
                exact.at(r, c)
            );
        }
    }

    // SpMV against the dense row-by-row reference.
    let x: Vec<f32> = (0..16).map(|i| (i as f32 * 0.37).sin()).collect();
    let y = CsrMatrix::from_dense(&a).spmv(&x);
    for r in 0..a.rows() {
        let dense_dot: f32 = (0..a.cols()).map(|c| a.at(r, c) * x[c]).sum();
        assert!((y[r] - dense_dot).abs() < 1e-4, "SpMV row {r}");
    }

    // The MLP head must emit a probability distribution per batch row.
    let mlp = MlpBuilder::new(8).layer(16, true, 1).layer(4, false, 2).softmax().build();
    let batch = Matrix::random(5, 8, 1.0, 44);
    let out = mlp.forward(&batch);
    assert_eq!(out.rows(), 5);
    for r in 0..out.rows() {
        let total: f32 = (0..out.cols()).map(|c| out.at(r, c)).sum();
        assert!((total - 1.0).abs() < 1e-5, "softmax row {r} sums to {total}");
    }
}

#[test]
fn llm_proxy_costs_drive_the_two_level_pipeline() {
    // Neural stage: LLM proxy on an A6000-like device (~155 TFLOP/s fp16,
    // ~768 GB/s). Symbolic stage: the cycle-accurate cost of the compiled
    // PC kernel on the REASON device.
    let proxy = LlmProxy::preset("7B");
    let config = ArchConfig::paper();
    let circuit = random_mixture_circuit(&StructureConfig {
        num_vars: 6,
        depth: 3,
        num_components: 2,
        seed: 13,
    });
    let (dag, map) = dag_from_circuit(&circuit);
    let dag = reason::core::regularize(&dag);
    let compiled = ReasonCompiler::new(config).compile(&dag).unwrap();
    let exec = VliwExecutor::new(config);

    let mut tasks = Vec::new();
    for seed in 0..6u64 {
        let neural = proxy.cost(256, 8 + 4 * seed, 155e12, 768e9);
        let ev: Vec<Option<usize>> =
            (0..6).map(|v| if (seed + v) % 2 == 0 { Some(1) } else { None }).collect();
        let report =
            exec.execute(&compiled.program(&map.inputs_for_evidence(circuit.arities(), &ev)));
        // The symbolic answer itself must stay exact while we time it.
        let exact = circuit.probability(&Evidence::from_values(&ev));
        assert!((report.output - exact).abs() < 1e-9, "seed {seed}");
        tasks.push(StageCost {
            neural_s: neural.seconds,
            symbolic_s: report.cycles as f64 / (f64::from(config.freq_mhz) * 1e6),
        });
    }

    let schedule = TwoLevelPipeline::new().schedule(&tasks);
    // The schedule's serial time must equal the exact sum of stage costs,
    // and pipelining must land between the dominant stage and serial.
    let serial: f64 = tasks.iter().map(|t| t.neural_s + t.symbolic_s).sum();
    assert!((schedule.serial_s - serial).abs() < 1e-12);
    let neural_total: f64 = tasks.iter().map(|t| t.neural_s).sum();
    let symbolic_total: f64 = tasks.iter().map(|t| t.symbolic_s).sum();
    assert!(schedule.pipelined_s <= schedule.serial_s + 1e-12);
    assert!(schedule.pipelined_s + 1e-12 >= neural_total.max(symbolic_total));
}

#[test]
fn device_interface_round_trips_through_shared_memory() {
    let circuit = random_mixture_circuit(&StructureConfig {
        num_vars: 5,
        depth: 2,
        num_components: 2,
        seed: 5,
    });
    let config = ArchConfig::paper();
    let (dag, map) = dag_from_circuit(&circuit);
    let dag = reason::core::regularize(&dag);
    let kernel = ReasonCompiler::new(config).compile(&dag).unwrap();

    let shm = SharedMemory::new();
    let mut device = ReasonDevice::new(config, shm.clone());
    for batch in 0..4u64 {
        let ev: Vec<Option<usize>> =
            (0..5).map(|v| if v as u64 == batch { Some(1) } else { None }).collect();
        shm.publish_neural(batch, map.inputs_for_evidence(circuit.arities(), &ev));
        let outcome = device.execute_dag(batch, &kernel);
        let expect = circuit.probability(&Evidence::from_values(&ev));
        let published = shm.wait_symbolic(batch)[0];
        assert!((published - expect).abs() < 1e-9, "batch {batch}");
        assert!(outcome.cycles() > 0);
    }
}

#[test]
fn threaded_executor_is_deterministic_across_the_stack() {
    // The acceptance contract of the batch executor: any lane count —
    // serial, single-lane overlap, several symbolic lanes — returns
    // identical verdicts and
    // marginals on the same mixed SAT/PC batch, and the measured schedule
    // stays consistent with the flow-shop cost model's vocabulary.
    let tasks = reason::system::demo_batch(8, 123);
    let serial = BatchExecutor::new(ExecutorConfig::sequential()).run(&tasks);
    assert_eq!(serial.results.len(), 8);

    for config in [
        ExecutorConfig::overlapped(1),
        ExecutorConfig::overlapped(4),
        ExecutorConfig::overlapped(3),
    ] {
        let threaded = BatchExecutor::new(config).run(&tasks);
        assert!(threaded.agrees_with(&serial), "{config:?}");
        // Stage sums are measured per run but count the same work.
        assert!(threaded.measured.serial_s > 0.0);
        assert_eq!(threaded.measured.tasks, 8);
        // The neural buffers that crossed the shared-memory protocol are
        // bit-identical to the inline computation.
        for (a, b) in threaded.results.iter().zip(&serial.results) {
            assert_eq!(a.neural_output, b.neural_output, "{config:?}");
        }
    }
}

#[test]
fn ablations_change_cycles_but_never_results() {
    let circuit = random_mixture_circuit(&StructureConfig {
        num_vars: 8,
        depth: 3,
        num_components: 3,
        seed: 9,
    });
    let (dag, map) = dag_from_circuit(&circuit);
    let dag = reason::core::regularize(&dag);
    let inputs = map.inputs_for_evidence(circuit.arities(), &[None; 8]);

    let full = ArchConfig::paper();
    let mut crippled = full;
    crippled.ablation.scheduling = false;
    crippled.ablation.bank_mapping = false;
    crippled.ablation.reconfigurable = false;

    let fast_kernel = ReasonCompiler::new(full).compile(&dag).unwrap();
    let slow_kernel = ReasonCompiler::new(crippled).compile(&dag).unwrap();
    let fast = VliwExecutor::new(full).execute(&fast_kernel.program(&inputs));
    let slow = VliwExecutor::new(crippled).execute(&slow_kernel.program(&inputs));
    assert!((fast.output - slow.output).abs() < 1e-12, "ablations must be timing-only");
    assert!(slow.cycles > fast.cycles, "removing every technique must cost cycles");
}
