//! Every table and figure of the paper's evaluation, as reproducible
//! experiment functions. Each returns a printable report whose rows and
//! series mirror the paper's layout and close with the paper's reported
//! values, so printed-vs-paper comparison needs no external record.
//! The seeded sweeps live in the submodules; [`REGISTRY`] names every
//! experiment once, for `reason-eval`, its `all` and its `audit` gate.

pub mod approx;
pub mod audit;
pub mod batch;
pub mod chaos;
pub mod compile;
pub mod profile;
pub mod registry;
pub(crate) mod replay;
pub mod serve;
pub mod slo;
pub mod trace;
pub mod traffic;

pub use registry::{Args, Experiment, Output, REGISTRY};

use std::fmt::Write as _;

use reason_arch::{
    broadcast_latency_cycles, explore_design_space, noc_latency_breakdown, ArchConfig, NocTopology,
    SymbolicEngine, TechNode, VliwExecutor,
};
use reason_compiler::ReasonCompiler;
use reason_core::{KernelSource, PipelineConfig, ReasonPipeline};
use reason_sim::{roofline_point, DpuModel, GpuModel, KernelProfile, TpuModel};
use reason_workloads::scaling::{accuracy_scaling, runtime_scaling, TaskFamily};
use reason_workloads::{batch_score, model_for, Dataset, Scale, TaskSpec, Workload};

use crate::{baseline_symbolic_cost, end_to_end_cost, neural_cost, Platform, TaskCost};

/// Fig. 2: scaling performance (accuracy vs model size; runtime vs task
/// complexity).
fn fig2() -> String {
    let mut out = String::from(
        "=== Fig. 2(a-c): accuracy vs model size (C = compositional, M = monolithic) ===\n",
    );
    for family in
        [TaskFamily::ComplexReasoning, TaskFamily::MathReasoning, TaskFamily::QuestionAnswering]
    {
        let _ = writeln!(out, "-- {} --", family.name());
        let _ = writeln!(out, "{:>6} {:>8} {:>8}", "model", "C (%)", "M (%)");
        for p in accuracy_scaling(family) {
            let _ = writeln!(
                out,
                "{:>6} {:>8.1} {:>8.1}",
                p.model, p.compositional_pct, p.monolithic_pct
            );
        }
    }
    out.push_str("=== Fig. 2(d): task runtime vs complexity (minutes) ===\n");
    let _ = writeln!(out, "{:>10} {:>14} {:>10}", "complexity", "neuro-symb", "CoT-RL");
    for p in runtime_scaling(8) {
        let _ = writeln!(
            out,
            "{:>10} {:>14.2} {:>10.2}",
            p.complexity, p.neuro_symbolic_min, p.cot_min
        );
    }
    out
}

/// Fig. 3(a): neural vs symbolic runtime split per workload on the
/// CPU+GPU platform.
fn fig3a() -> String {
    let mut out =
        String::from("=== Fig. 3(a): runtime split, neural vs symbolic (A6000 platform) ===\n");
    let _ = writeln!(
        out,
        "{:>14} {:>10} {:>12} {:>12} {:>12}",
        "workload", "neural %", "symbolic %", "neural s", "symbolic s"
    );
    for w in Workload::all() {
        let dataset = Dataset::all()
            .into_iter()
            .find(|d| d.workload() == w)
            .expect("every workload has a dataset");
        let spec = TaskSpec::new(dataset, Scale::Small, 0);
        let n = neural_cost(Platform::RtxA6000, &spec);
        let s = baseline_symbolic_cost(Platform::RtxA6000, &spec);
        let total = n.seconds + s.seconds;
        let _ = writeln!(
            out,
            "{:>14} {:>10.1} {:>12.1} {:>12.4} {:>12.4}",
            w.name(),
            100.0 * n.seconds / total,
            100.0 * s.seconds / total,
            n.seconds,
            s.seconds
        );
    }
    out.push_str(
        "(paper: symbolic share 63.8/62.7/36.6/63.9/50.5/34.8% across the six workloads)\n",
    );
    out
}

/// Fig. 3(b): runtime across task scales.
fn fig3b() -> String {
    let mut out =
        String::from("=== Fig. 3(b): runtime vs task scale (A6000 platform, s/task) ===\n");
    let _ =
        writeln!(out, "{:>10} {:>10} {:>12} {:>12}", "dataset", "scale", "neural s", "symbolic s");
    for dataset in Dataset::all() {
        for scale in [Scale::Small, Scale::Large] {
            let spec = TaskSpec::new(dataset, scale, 0);
            let n = neural_cost(Platform::RtxA6000, &spec);
            let s = baseline_symbolic_cost(Platform::RtxA6000, &spec);
            let _ = writeln!(
                out,
                "{:>10} {:>10} {:>12.4} {:>12.4}",
                dataset.name(),
                if scale == Scale::Small { "Small" } else { "Large" },
                n.seconds,
                s.seconds
            );
        }
    }
    out.push_str("(paper: relative neural/symbolic split stays stable; totals grow with scale)\n");
    out
}

/// Fig. 3(c): A6000 vs Orin NX latency.
fn fig3c() -> String {
    let mut out = String::from("=== Fig. 3(c): A6000 vs Orin NX (s/task, symbolic stage) ===\n");
    let _ = writeln!(out, "{:>10} {:>12} {:>12} {:>8}", "dataset", "A6000 s", "Orin s", "ratio");
    for dataset in [Dataset::MiniF2F, Dataset::XsTest] {
        let spec = TaskSpec::new(dataset, Scale::Small, 0);
        let a = baseline_symbolic_cost(Platform::RtxA6000, &spec);
        let o = baseline_symbolic_cost(Platform::OrinNx, &spec);
        let _ = writeln!(
            out,
            "{:>10} {:>12.4} {:>12.4} {:>8.1}",
            dataset.name(),
            a.seconds,
            o.seconds,
            o.seconds / a.seconds
        );
    }
    out
}

/// Fig. 3(d): roofline analysis.
fn fig3d() -> String {
    let gpu = GpuModel::a6000();
    let mut out = String::from("=== Fig. 3(d): roofline (A6000) ===\n");
    let _ = writeln!(
        out,
        "{:>16} {:>12} {:>16} {:>16} {:>8}",
        "kernel", "FLOPs/byte", "attainable GF/s", "achieved GF/s", "bound"
    );
    for k in KernelProfile::table2_suite() {
        let p = roofline_point(&gpu, &k);
        let _ = writeln!(
            out,
            "{:>16} {:>12.3} {:>16.1} {:>16.2} {:>8}",
            p.name,
            p.intensity,
            p.attainable_flops / 1e9,
            p.achieved_flops / 1e9,
            if p.memory_bound { "memory" } else { "compute" }
        );
    }
    out.push_str(
        "(paper: symbolic/probabilistic kernels sit far left, under the bandwidth roof)\n",
    );
    out
}

/// Table II: hardware inefficiency counters per kernel.
fn table2() -> String {
    let gpu = GpuModel::a6000();
    let mut out = String::from("=== Table II: kernel counters on the GPU model (A6000) ===\n");
    let _ = writeln!(
        out,
        "{:>16} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "kernel", "compute%", "ALU%", "L1 hit%", "L2 hit%", "DRAM%", "warp%", "branch%"
    );
    for k in KernelProfile::table2_suite() {
        let r = gpu.run(&k);
        let _ = writeln!(
            out,
            "{:>16} {:>9.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
            k.name,
            r.compute_throughput_pct,
            r.alu_utilization_pct,
            r.l1_hit_rate_pct,
            r.l2_hit_rate_pct,
            r.dram_bw_utilization_pct,
            r.warp_efficiency_pct,
            r.branch_efficiency_pct
        );
    }
    out.push_str(
        "(paper: MatMul 96.8/98.4, Logic 14.7/29.3 compute/ALU; symbolic kernels DRAM-bound)\n",
    );
    out
}

/// Table III / Fig. 10: hardware specifications with technology scaling.
fn table3() -> String {
    let mut out = String::from("=== Table III / Fig. 10: REASON physical design ===\n");
    let _ = writeln!(out, "{:>8} {:>10} {:>10}", "node", "area mm2", "power W");
    for tech in [TechNode::N28, TechNode::N12, TechNode::N8] {
        let _ =
            writeln!(out, "{:>8?} {:>10.2} {:>10.2}", tech, tech.area_mm2(), tech.avg_power_w());
    }
    let c = ArchConfig::paper();
    let _ = writeln!(
        out,
        "config: D={} B={} R={} PEs={} nodes={} SRAM={} KiB @ {} MHz",
        c.tree_depth,
        c.num_banks,
        c.regs_per_bank,
        c.num_pes,
        c.total_nodes(),
        c.sram_kib,
        c.freq_mhz
    );
    out
}

/// Table IV: algorithm-optimization accuracy and memory reduction.
fn table4(tasks_per_dataset: usize) -> String {
    let mut out = String::from("=== Table IV: REASON algorithm optimization ===\n");
    let _ = writeln!(
        out,
        "{:>14} {:>10} {:>10} {:>10} {:>9}",
        "workload", "dataset", "baseline", "optimized", "memory↓"
    );
    let mut total_reduction = 0.0;
    let mut rows = 0usize;
    for dataset in Dataset::all() {
        let model = model_for(dataset.workload());
        let specs = TaskSpec::batch(dataset, Scale::Small, tasks_per_dataset);
        let base = batch_score(model.as_ref(), &specs, false);
        let opt = batch_score(model.as_ref(), &specs, true);
        let bytes: Vec<(usize, usize)> = specs
            .iter()
            .map(|s| (model.run_task(s, false).kernel_bytes, model.run_task(s, true).kernel_bytes))
            .collect();
        let before: usize = bytes.iter().map(|b| b.0).sum();
        let after: usize = bytes.iter().map(|b| b.1).sum();
        let reduction = 100.0 * (1.0 - after as f64 / before.max(1) as f64);
        total_reduction += reduction;
        rows += 1;
        let _ = writeln!(
            out,
            "{:>14} {:>10} {:>10.3} {:>10.3} {:>8.1}%",
            dataset.workload().name(),
            dataset.name(),
            base,
            opt,
            reduction
        );
    }
    let _ = writeln!(
        out,
        "average memory reduction: {:.1}% (paper: 31.7%)",
        total_reduction / rows as f64
    );
    out
}

/// Fig. 8: interconnect scalability.
fn fig8() -> String {
    let mut out = String::from("=== Fig. 8(a): latency breakdown as leaves grow (cycles) ===\n");
    let base = 8usize;
    let _ = writeln!(
        out,
        "{:>6} {:>10} {:>8} {:>6} {:>8} {:>10} {:>8}",
        "N", "topology", "memory", "PE", "periph", "internode", "total"
    );
    for mult in 1..=8 {
        for topo in NocTopology::all() {
            let b = noc_latency_breakdown(topo, base * mult);
            let _ = writeln!(
                out,
                "{:>6} {:>10} {:>8.1} {:>6.1} {:>8.1} {:>10.1} {:>8.1}",
                base * mult,
                topo.name(),
                b.memory,
                b.pe,
                b.peripheries,
                b.inter_node,
                b.total()
            );
        }
    }
    out.push_str("=== Fig. 8(b): broadcast-to-root cycles ===\n");
    let _ = writeln!(out, "{:>6} {:>10} {:>8} {:>8}", "N", "tree", "mesh", "all-to-one");
    for mult in 1..=8 {
        let n = base * mult;
        let _ = writeln!(
            out,
            "{:>6} {:>10} {:>8} {:>8}",
            n,
            broadcast_latency_cycles(NocTopology::Tree, n),
            broadcast_latency_cycles(NocTopology::Mesh, n),
            broadcast_latency_cycles(NocTopology::AllToOne, n)
        );
    }
    out.push_str("(paper: tree O(log N) ≪ mesh O(√N) ≪ bus O(N))\n");
    out
}

/// Fig. 11: end-to-end runtime across platforms, normalized to REASON.
fn fig11(tasks: usize) -> String {
    let mut out = String::from("=== Fig. 11: end-to-end runtime, normalized to REASON = 1.0 ===\n");
    let _ = writeln!(
        out,
        "{:>10} {:>12} {:>10} {:>10} {:>10} {:>14}",
        "dataset", "Xeon", "Orin NX", "RTX GPU", "REASON", "REASON s/task"
    );
    for dataset in Dataset::all() {
        let costs: Vec<TaskCost> =
            Platform::all().iter().map(|&p| end_to_end_cost(p, dataset, tasks)).collect();
        let reason_s = costs[3].seconds;
        let _ = writeln!(
            out,
            "{:>10} {:>12.1} {:>10.1} {:>10.1} {:>10.1} {:>14.3}",
            dataset.name(),
            costs[0].seconds / reason_s,
            costs[1].seconds / reason_s,
            costs[2].seconds / reason_s,
            1.0,
            reason_s
        );
    }
    out.push_str("(paper: Xeon ~96-100x, Orin ~48-53x, RTX ~9.8-13.8x; REASON < 1.0 s/task)\n");
    out
}

/// Fig. 12: power and energy efficiency.
fn fig12(tasks: usize) -> String {
    let mut out = String::from("=== Fig. 12(a): REASON power across workloads ===\n");
    let _ = writeln!(out, "{:>10} {:>10}", "dataset", "power W");
    let config = ArchConfig::paper();
    let model = reason_arch::EnergyModel::paper();
    for dataset in
        [Dataset::TwinSafety, Dataset::XsTest, Dataset::CommonGen, Dataset::News, Dataset::AwA2]
    {
        // Sustained-array power: the busy-cycle event profile scaled by
        // the workload's achieved utilization (>90% per Sec. V-F, with
        // per-workload variation from its sparsity).
        let w = dataset.workload();
        let utilization = 0.70 + 0.35 * (1.0 - w.sparsity());
        let mut events = reason_arch::EnergyModel::busy_cycle_events(
            config.num_pes,
            config.nodes_per_pe(),
            config.leaves_per_pe(),
        );
        events.alu_ops = (events.alu_ops as f64 * utilization) as u64;
        events.dram_bytes = (events.dram_bytes as f64 * utilization) as u64;
        let mut total = reason_arch::EnergyEvents::default();
        for _ in 0..1000 {
            total.accumulate(&events);
        }
        let report = model.report(&total);
        let _ = writeln!(out, "{:>10} {:>10.2}", dataset.name(), report.avg_power_w);
    }
    out.push_str("(paper: 1.88-2.51 W, average 2.12 W)\n");
    out.push_str(
        "=== Fig. 12(b): reasoning-stage energy per task, normalized to REASON = 1.0 ===\n",
    );
    let _ = writeln!(
        out,
        "{:>10} {:>12} {:>10} {:>10} {:>14}",
        "dataset", "Xeon", "Orin NX", "RTX GPU", "REASON J/task"
    );
    let _ = tasks;
    for dataset in Dataset::all() {
        let spec = TaskSpec::new(dataset, Scale::Small, 0);
        let costs: Vec<TaskCost> =
            Platform::all().iter().map(|&p| crate::baseline_symbolic_cost(p, &spec)).collect();
        let reason_j = costs[3].energy_j;
        let _ = writeln!(
            out,
            "{:>10} {:>12.0} {:>10.0} {:>10.0} {:>14.4}",
            dataset.name(),
            costs[0].energy_j / reason_j,
            costs[1].energy_j / reason_j,
            costs[2].energy_j / reason_j,
            reason_j
        );
    }
    out.push_str("(paper: 310-838x across devices, 681x vs RTX GPU)\n");
    out
}

/// Fig. 13: comparison against ML accelerators.
fn fig13() -> String {
    let mut out =
        String::from("=== Fig. 13: vs TPU-like and DPU-like (runtime normalized to REASON) ===\n");
    let tpu = TpuModel::paper();
    let dpu = DpuModel::paper();
    let config = ArchConfig::paper();
    let _ = writeln!(
        out,
        "{:>14} {:>22} {:>22} {:>22}",
        "workload", "symbolic (TPU/DPU)", "neural (TPU/DPU)", "end-to-end (TPU/DPU)"
    );
    for w in Workload::all() {
        let dataset =
            Dataset::all().into_iter().find(|d| d.workload() == w).expect("dataset exists");
        let spec = TaskSpec::new(dataset, Scale::Small, 0);
        let profiles = model_for(w).kernel_profiles(&spec);
        let steps = w.reasoning_steps() as f64;
        // Symbolic stage (whole task: per-step kernels x step count).
        let reason_sym = crate::reason_symbolic_cost(&spec, &config).seconds;
        let tpu_sym: f64 = profiles.iter().map(|k| tpu.run(k).seconds).sum::<f64>() * steps;
        let dpu_sym: f64 = profiles.iter().map(|k| dpu.run(k).seconds).sum::<f64>() * steps;
        // Neural stage: small-DNN kernels; REASON's SpMSpM mode runs at its
        // array peak, the DPU at its smaller array, and the TPU at
        // launch/fill-drain-limited small-tile throughput (a 128x128 tile
        // barely wets a 128x128x8 array).
        let neural = KernelProfile::matmul(128 * spec.scale.factor());
        let reason_neural =
            neural.flops / (2.0 * config.total_nodes() as f64 * config.freq_mhz as f64 * 1e6 * 0.8);
        let tpu_neural = neural.flops / (2.0 * tpu.peak_macs() * 4e-4);
        let dpu_neural = dpu.run(&neural).seconds;
        // End to end: neural + symbolic serial on accelerators.
        let reason_e2e = reason_sym + reason_neural;
        let tpu_e2e = tpu_sym + tpu_neural;
        let dpu_e2e = dpu_sym + dpu_neural;
        let _ = writeln!(
            out,
            "{:>14} {:>11.1}/{:>9.1} {:>12.2}/{:>8.2} {:>12.1}/{:>8.1}",
            w.name(),
            tpu_sym / reason_sym,
            dpu_sym / reason_sym,
            tpu_neural / reason_neural,
            dpu_neural / reason_neural,
            tpu_e2e / reason_e2e,
            dpu_e2e / reason_e2e
        );
    }
    out.push_str("(paper: symbolic TPU 74-110x / DPU 5-24x; neural TPU ~0.7x / DPU ~4.3x; end-to-end TPU 9.8-21x / DPU 2.2-8.6x)\n");
    out
}

/// Table V: necessity of co-design (algorithm-only vs algorithm+hardware).
fn table5(tasks: usize) -> String {
    let mut out = String::from("=== Table V: co-design ablation (normalized runtime %) ===\n");
    let _ = writeln!(
        out,
        "{:>10} {:>16} {:>20} {:>22}",
        "dataset", "baseline @Orin", "REASON-algo @Orin", "REASON-algo @REASON"
    );
    for dataset in
        [Dataset::Imo, Dataset::MiniF2F, Dataset::TwinSafety, Dataset::XsTest, Dataset::CommonGen]
    {
        let specs = TaskSpec::batch(dataset, Scale::Small, tasks);
        let model = model_for(dataset.workload());
        // Memory reduction drives the algorithm-level op reduction.
        let mut before = 0usize;
        let mut after = 0usize;
        for s in &specs {
            before += model.run_task(s, false).kernel_bytes;
            after += model.run_task(s, true).kernel_bytes;
        }
        let keep = after as f64 / before.max(1) as f64;
        let spec = specs[0];
        let orin_neural = neural_cost(Platform::OrinNx, &spec).seconds;
        let orin_sym = baseline_symbolic_cost(Platform::OrinNx, &spec).seconds;
        let baseline = orin_neural + orin_sym;
        // Algorithm-only: symbolic work scales with the surviving fraction
        // (plus a floor: control flow does not shrink linearly).
        let algo_only = orin_neural + orin_sym * (0.55 + 0.45 * keep);
        // Algorithm + hardware: symbolic on REASON, pipelined.
        let reason_sym = baseline_symbolic_cost(Platform::Reason, &spec).seconds * keep;
        let co_designed = orin_neural.max(reason_sym);
        let _ = writeln!(
            out,
            "{:>10} {:>15.1}% {:>19.1}% {:>21.2}%",
            dataset.name(),
            100.0,
            100.0 * algo_only / baseline,
            100.0 * co_designed / baseline
        );
    }
    out.push_str("(paper: algo-only 78.3-87.0%; algo+HW 1.94-2.08%)\n");
    out
}

/// Sec. VII-C hardware-technique ablation.
fn ablation() -> String {
    let mut out = String::from("=== Hardware-technique ablation (symbolic kernel cycles) ===\n");
    let cnf = reason_sat::gen::random_ksat(40, 170, 3, 7);
    let full = ArchConfig::paper();
    let mut no_wl = full;
    no_wl.ablation.wl_memory_layout = false;
    let (_, base) = SymbolicEngine::new(full).solve(&cnf);
    let (_, wl_off) = SymbolicEngine::new(no_wl).solve(&cnf);
    let _ = writeln!(out, "full configuration:        {:>10} cycles", base.cycles);
    let _ = writeln!(
        out,
        "w/o WL memory layout:      {:>10} cycles (+{:.0}%)",
        wl_off.cycles,
        100.0 * (wl_off.cycles as f64 / base.cycles as f64 - 1.0)
    );

    // DAG-mode ablations on a compiled probabilistic kernel.
    let circuit = reason_pc::random_mixture_circuit(&reason_pc::StructureConfig {
        num_vars: 10,
        depth: 3,
        num_components: 3,
        seed: 3,
    });
    let pipeline = ReasonPipeline::with_config(PipelineConfig { prune: false, regularize: true });
    let kernel = pipeline.compile(KernelSource::Pc(&circuit)).expect("compiles");
    let mut no_sched = full;
    no_sched.ablation.scheduling = false;
    let mut no_reconf = full;
    no_reconf.ablation.reconfigurable = false;
    for (name, cfg) in [
        ("full configuration", full),
        ("w/o scheduling", no_sched),
        ("w/o reconfigurable array", no_reconf),
    ] {
        let compiled = ReasonCompiler::new(cfg).compile(&kernel.dag).expect("maps");
        let exec = VliwExecutor::new(cfg);
        let report = exec.execute(&compiled.program(&vec![1.0; compiled.num_inputs()]));
        let _ = writeln!(out, "{name:<26} {:>10} cycles (DAG mode)", report.cycles);
    }
    out.push_str(
        "(paper: memory layout ~22%, reconfig+scheduling up to 56-73% runtime reduction)\n",
    );
    out
}

/// Fig. 9 case study: a working example of symbolic execution — one
/// small SAT instance narrated through the hardware pipeline events.
fn fig9() -> String {
    let mut out =
        String::from("=== Fig. 9 case study: symbolic execution on the BCP pipeline ===\n");
    let config = ArchConfig::paper();
    let cnf = reason_sat::gen::random_ksat(16, 68, 3, 4);
    let engine = SymbolicEngine::new(config);
    let (solution, r) = engine.solve(&cnf);
    let _ = writeln!(
        out,
        "instance: 16 vars, 68 clauses -> {}",
        if solution.is_sat() { "SAT" } else { "UNSAT" }
    );
    let _ = writeln!(
        out,
        "decisions broadcast through the tree ({} cycles root->leaf): {}",
        config.tree_depth, r.decisions
    );
    let _ = writeln!(
        out,
        "implications pipelined through the reduction tree:        {}",
        r.implications
    );
    let _ = writeln!(
        out,
        "watched-literal SRAM reads (linked-list traversals):      {}",
        r.wl_sram_reads
    );
    let _ =
        writeln!(out, "conflicts (priority propagation + FIFO flush):            {}", r.conflicts);
    let _ =
        writeln!(out, "learned clauses recorded by the scalar PE:                {}", r.learned);
    let _ = writeln!(
        out,
        "BCP FIFO high-water mark:                                 {}",
        r.fifo_max_occupancy
    );
    let _ = writeln!(
        out,
        "DMA fetches for clause-database misses:                   {}",
        r.dma_fetches
    );
    let _ = writeln!(out, "total: {} cycles, {:.2} uJ", r.cycles, r.energy.total_j() * 1e6);
    out.push_str("(paper Fig. 9: decision broadcast T1-T4, pipelined implications, conflict at T22 flushing the FIFO and halting DMA)\n");
    out
}

/// The threaded two-level pipeline, executed for real: a mixed
/// SAT/PC/approx/serve batch on the `reason-system`
/// [`BatchExecutor`](reason_system::BatchExecutor), serial vs overlapped
/// vs multi-worker symbolic conquering, with the flow-shop cost model's
/// prediction next to the measured wall clock (validates Sec. VI-C
/// against execution instead of simulation). The one `reason-eval`
/// experiment that keeps a clock: the comparison *is* measured against
/// modeled, so it is unaudited and its header says so.
fn pipeline(tasks: usize, workers: usize, seed: u64) -> String {
    use reason_system::{BatchExecutor, ExecutorConfig};

    let mut out = String::from(
        "=== Sec. VI-C: two-level pipeline, executed (wall clock: measured vs modeled, so \
         timings vary run to run and nothing here is audited) ===\n",
    );

    // Part 1: real reasoning kernels — threading must never change an
    // answer, whatever the pool shape.
    let batch = reason_system::demo_batch(tasks, seed);
    let _ = writeln!(
        out,
        "-- determinism: {} real tasks (rotating cube-and-conquer SAT / PC marginal / approx WMC \
         / shared-KB serve) --",
        tasks
    );
    let wide_workers = workers.max(1);
    let serial = BatchExecutor::new(ExecutorConfig::sequential()).run(&batch);
    let mut sweep = vec![1];
    if wide_workers > 1 {
        sweep.push(wide_workers);
    }
    for &w in &sweep {
        let report = BatchExecutor::new(ExecutorConfig::overlapped(w)).run(&batch);
        assert!(
            report.agrees_with(&serial),
            "threaded execution changed a verdict — determinism bug"
        );
    }
    let verdicts = serial.verdicts();
    let sat = verdicts
        .iter()
        .filter(|v| matches!(v, reason_system::Verdict::Sat(s) if s.is_sat()))
        .count();
    let marginals =
        verdicts.iter().filter(|v| matches!(v, reason_system::Verdict::LogMarginal(_))).count();
    let wmc = verdicts.iter().filter(|v| matches!(v, reason_system::Verdict::Wmc { .. })).count();
    let served = verdicts.iter().filter(|v| matches!(v, reason_system::Verdict::Batch(_))).count();
    let swept: Vec<String> = sweep.iter().map(|w| format!("{w}-worker")).collect();
    let _ = writeln!(
        out,
        "verdicts identical across serial / {} runs: {} SAT, {} PC marginals, {} approx WMC, \
         {} served batches",
        swept.join(" / "),
        sat,
        marginals,
        wmc,
        served
    );

    // Part 2: calibrated stage durations — validate the flow-shop cost
    // model against measured wall clock where overhead is negligible.
    let calibrated = reason_system::synthetic_batch(&vec![(8u64, 8u64); tasks.max(4)]);
    let _ = writeln!(
        out,
        "-- schedule: {} calibrated tasks, 8 ms neural + 8 ms symbolic each --",
        tasks.max(4)
    );
    let _ = writeln!(
        out,
        "{:>28} {:>12} {:>12} {:>8}",
        "configuration", "makespan s", "serial s", "gain"
    );
    // Every schedule is published into one metrics registry (the
    // structured path — `PipelineReport::record_into` with documented
    // units) and the table below is rendered *from* the registry, so
    // nothing here is print-only.
    let registry = reason_telemetry::MetricsRegistry::new();
    let serial_cal = BatchExecutor::new(ExecutorConfig::sequential()).run(&calibrated);
    let overlapped = BatchExecutor::new(ExecutorConfig::overlapped(1)).run(&calibrated);
    serial_cal.measured.record_into(&registry, "serial");
    overlapped.measured.record_into(&registry, "overlapped_1");
    overlapped.predicted().record_into(&registry, "predicted");
    let mut rows = vec![
        ("serial (no overlap)".to_string(), "serial"),
        ("overlapped, 1 sym worker".to_string(), "overlapped_1"),
        ("  cost-model prediction".to_string(), "predicted"),
    ];
    if wide_workers > 1 {
        let wide = BatchExecutor::new(ExecutorConfig::overlapped(wide_workers)).run(&calibrated);
        wide.measured.record_into(&registry, "overlapped_wide");
        rows.push((format!("overlapped, {wide_workers} sym workers"), "overlapped_wide"));
    }
    let gauge = |name: &str, labels: &[(&str, &str)]| -> f64 {
        let mut want: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        want.sort();
        registry
            .snapshot()
            .iter()
            .find_map(|m| match &m.value {
                reason_telemetry::MetricValue::Gauge(g) if m.name == name && m.labels == want => {
                    Some(*g)
                }
                _ => None,
            })
            .unwrap_or_else(|| panic!("missing gauge {name}{labels:?}"))
    };
    for (name, schedule) in &rows {
        let _ = writeln!(
            out,
            "{:>28} {:>12.4} {:>12.4} {:>7.1}%",
            name,
            gauge("pipeline_makespan_seconds", &[("schedule", schedule), ("mode", "pipelined")]),
            gauge("pipeline_makespan_seconds", &[("schedule", schedule), ("mode", "serial")]),
            100.0 * gauge("pipeline_overlap_gain", &[("schedule", schedule)])
        );
    }
    out.push_str("(paper: overlap hides the shorter stage; gain -> 50% on balanced stages)\n");
    out
}

/// Sec. V-F design-space exploration.
fn dse() -> String {
    let mut out = String::from("=== Sec. V-F: design-space exploration over (D, B, R) ===\n");
    let circuit = reason_pc::random_mixture_circuit(&reason_pc::StructureConfig {
        num_vars: 10,
        depth: 3,
        num_components: 3,
        seed: 1,
    });
    let pipeline = ReasonPipeline::new();
    let base = ArchConfig::paper();
    let points = explore_design_space(&[2, 3, 4], &[32, 64, 128], &[16, 32], &base, |cfg| {
        let kernel = pipeline.compile(KernelSource::Pc(&circuit)).expect("compiles");
        match ReasonCompiler::new(*cfg).compile(&kernel.dag) {
            Ok(compiled) => {
                let report = VliwExecutor::new(*cfg)
                    .execute(&compiled.program(&vec![1.0; compiled.num_inputs()]));
                (report.cycles, report.energy.total_j())
            }
            Err(_) => (u64::MAX / 2, f64::MAX / 2.0),
        }
    });
    let _ = writeln!(
        out,
        "{:>4} {:>6} {:>4} {:>10} {:>14} {:>14}",
        "D", "B", "R", "cycles", "energy J", "EDP"
    );
    for p in points.iter().take(8) {
        let _ = writeln!(
            out,
            "{:>4} {:>6} {:>4} {:>10} {:>14.3e} {:>14.3e}",
            p.tree_depth,
            p.num_banks,
            p.regs_per_bank,
            p.cycles,
            p.energy_j,
            p.edp()
        );
    }
    let best = &points[0];
    let _ = writeln!(
        out,
        "best by EDP: D={} B={} R={} (paper selects D=3, B=64, R=32)",
        best.tree_depth, best.num_banks, best.regs_per_bank
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_produces_output() {
        // Smoke: each experiment renders non-trivially. Kept to the
        // cheapest parameters; full runs happen in reason-eval.
        assert!(fig2().lines().count() > 10);
        assert!(table3().contains("6.00"));
        assert!(fig8().contains("all-to-one") || fig8().contains("All-to-One"));
        assert!(dse().contains("best by EDP"));
    }

    #[test]
    fn table4_reports_reduction() {
        let t = table4(2);
        assert!(t.contains("average memory reduction"));
    }

    #[test]
    fn fig11_normalizes_to_reason() {
        let f = fig11(2);
        assert!(f.contains("REASON"));
        assert!(f.contains("1.0"));
    }

    #[test]
    fn pipeline_experiment_validates_determinism() {
        // pipeline() asserts internally that every executor configuration
        // returns identical verdicts; reaching the report text means the
        // determinism contract held.
        let p = pipeline(4, 2, 42);
        assert!(p.contains("cost-model prediction"));
        assert!(p.contains("verdicts identical across serial"));
        assert!(p.contains("approx WMC"));
    }
}
