//! `reason-bench` — the experiment harness regenerating every table and
//! figure of the REASON paper's evaluation (Sec. VII).
//!
//! The shared machinery here turns workload tasks into device costs:
//!
//! * REASON costs come from the *cycle-level simulation* of `reason-arch`
//!   (compiled VLIW kernels for probabilistic work, the BCP engine for
//!   symbolic work), trace-scaled from the representative simulated
//!   kernel to the task-scale kernel profile;
//! * baseline costs come from the device models of `reason-sim`;
//! * neural-stage costs come from the LLM proxy of `reason-neural`.
//!
//! Experiments live in [`experiments`]; the `reason-eval` binary prints
//! them in the paper's row/series layout, each ending with the paper's
//! reported values for comparison. The `pipeline` experiment goes one
//! step further: instead of *costing* the two-level pipeline it *runs*
//! it, on the threaded `reason_system::BatchExecutor`, and prints the
//! flow-shop cost model's prediction next to the measured wall clock.
//!
//! This crate reports counts, modeled latencies and answers; it times
//! nothing the `audit` gate compares. Wall-clock speed is measured by
//! the standalone `benchmark/` package (`BENCHMARK.json`) only. See
//! `docs/ARCHITECTURE.md` for where this harness sits in the workspace.

pub mod experiments;
pub mod json;

use reason_arch::{ArchConfig, SymbolicEngine, VliwExecutor};
use reason_compiler::ReasonCompiler;
use reason_core::{KernelSource, ReasonPipeline};
use reason_hmm::Hmm;
use reason_neural::LlmProxy;
use reason_sim::{CpuModel, GpuModel};
use reason_workloads::{model_for, Dataset, Scale, TaskSpec, Workload};

/// Cost of one stage on one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskCost {
    /// Latency in seconds.
    pub seconds: f64,
    /// Energy in joules.
    pub energy_j: f64,
}

/// Which platform executes the symbolic/probabilistic stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// Intel Xeon CPU.
    Xeon,
    /// NVIDIA Jetson Orin NX.
    OrinNx,
    /// NVIDIA RTX A6000.
    RtxA6000,
    /// The REASON accelerator.
    Reason,
}

impl Platform {
    /// Display name (paper Fig. 11 legend).
    #[cfg(test)]
    fn name(self) -> &'static str {
        match self {
            Platform::Xeon => "Xeon CPU",
            Platform::OrinNx => "Orin NX",
            Platform::RtxA6000 => "RTX GPU",
            Platform::Reason => "REASON",
        }
    }

    /// All four platforms in the paper's order.
    fn all() -> [Platform; 4] {
        [Platform::Xeon, Platform::OrinNx, Platform::RtxA6000, Platform::Reason]
    }
}

/// Total abstract operation count of a task's symbolic kernels.
fn task_ops(spec: &TaskSpec) -> f64 {
    model_for(spec.dataset.workload()).kernel_profiles(spec).iter().map(|k| k.flops).sum()
}

/// REASON-side cost of one task's symbolic stage: the representative
/// kernel is *actually executed* on the cycle-level model, then scaled to
/// the task-level operation count.
fn reason_symbolic_cost(spec: &TaskSpec, config: &ArchConfig) -> TaskCost {
    let workload = spec.dataset.workload();
    let (sim_seconds, sim_energy, sim_ops) = match workload {
        Workload::AlphaGeometry | Workload::Linc => {
            // Representative deduction: the task's refutation formula on
            // the BCP engine.
            let task = reason_workloads::AlphaGeometry.generate(spec);
            let engine = SymbolicEngine::new(*config);
            let (_, report) = engine.solve(&task.refutation_cnf);
            // Hardware ops: leaf comparisons + SRAM walk, from the event trace.
            let ops = (report.events.alu_ops + report.events.sram_reads).max(1) as f64;
            (report.energy.seconds, report.energy.total_j(), ops)
        }
        Workload::R2Guard | Workload::NeuroPc => {
            // A deployment-scale circuit keeps the 12-PE array utilized;
            // tiny rule circuits would under-report throughput.
            let circuit = reason_pc::random_mixture_circuit(&reason_pc::StructureConfig {
                num_vars: 12,
                depth: 4,
                num_components: 3,
                seed: spec.seed,
            });
            let kernel = compile_pc_kernel(&circuit, config);
            let exec = VliwExecutor::new(*config);
            let inputs = vec![1.0; kernel.num_inputs()];
            let report = exec.execute(&kernel.program(&inputs));
            let ops = report.events.alu_ops.max(1) as f64;
            (report.energy.seconds, report.energy.total_j(), ops)
        }
        Workload::GeLaTo | Workload::CtrlG => {
            let hmm = Hmm::random(6 + spec.scale.factor(), 8, spec.seed);
            let pipeline = ReasonPipeline::new();
            let kernel = pipeline
                .compile(KernelSource::Hmm { hmm: &hmm, len: 16 })
                .expect("hmm kernel compiles");
            let compiled = ReasonCompiler::new(*config)
                .compile(&kernel.dag)
                .expect("hmm DAG maps onto the paper configuration");
            let exec = VliwExecutor::new(*config);
            let inputs = vec![1.0; compiled.num_inputs()];
            let report = exec.execute(&compiled.program(&inputs));
            let ops = report.events.alu_ops.max(1) as f64;
            (report.energy.seconds, report.energy.total_j(), ops)
        }
    };
    let steps = workload.reasoning_steps() as f64;
    let scale = task_ops(spec) / sim_ops * steps;
    TaskCost { seconds: sim_seconds * scale, energy_j: sim_energy * scale }
}

fn compile_pc_kernel(
    circuit: &reason_pc::Circuit,
    config: &ArchConfig,
) -> reason_compiler::CompiledKernel {
    let kernel =
        ReasonPipeline::new().compile(KernelSource::Pc(circuit)).expect("pc kernel compiles");
    ReasonCompiler::new(*config).compile(&kernel.dag).expect("pc DAG maps onto the configuration")
}

/// Baseline-device cost of one task's symbolic stage.
fn baseline_symbolic_cost(platform: Platform, spec: &TaskSpec) -> TaskCost {
    let workload = spec.dataset.workload();
    let profiles = model_for(workload).kernel_profiles(spec);
    let steps = workload.reasoning_steps() as f64;
    let scaled = |pair: (f64, f64)| TaskCost { seconds: pair.0 * steps, energy_j: pair.1 * steps };
    match platform {
        Platform::Xeon => scaled(CpuModel::xeon().run_all(&profiles)),
        Platform::OrinNx => scaled(GpuModel::orin_nx().run_all(&profiles)),
        Platform::RtxA6000 => scaled(GpuModel::a6000().run_all(&profiles)),
        Platform::Reason => reason_symbolic_cost(spec, &ArchConfig::paper()),
    }
}

/// Neural-stage cost of one task on the platform hosting the LLM.
///
/// REASON keeps the neural stage on its companion GPU (edge deployment:
/// Orin-class), so the neural time is shared across platforms; what
/// differs is the symbolic stage and the overlap.
fn neural_cost(platform: Platform, spec: &TaskSpec) -> TaskCost {
    let (prompt, output) = model_for(spec.dataset.workload()).neural_tokens(spec);
    let llm = LlmProxy::preset("7B");
    // REASON is a GPU plug-in (paper Fig. 6(a)): its neural stage runs on
    // the A6000-class host GPU it shares a die with.
    let (flops, bw, power) = match platform {
        Platform::Xeon => (7.3e12, 307e9, 270.0),
        Platform::OrinNx => (3.8e12, 104e9, 15.0),
        Platform::RtxA6000 | Platform::Reason => (38.7e12, 768e9, 300.0),
    };
    let c = llm.cost(prompt, output, flops, bw);
    TaskCost { seconds: c.seconds, energy_j: power * 0.6 * c.seconds }
}

/// Mean end-to-end task cost over a seed batch, with the two-level
/// pipeline overlap applied on REASON (paper Sec. VI-C) and serial
/// execution on the baselines.
fn end_to_end_cost(platform: Platform, dataset: Dataset, tasks: usize) -> TaskCost {
    let specs = TaskSpec::batch(dataset, Scale::Small, tasks);
    let stage_costs: Vec<(TaskCost, TaskCost)> = specs
        .iter()
        .map(|s| (neural_cost(platform, s), baseline_symbolic_cost(platform, s)))
        .collect();
    let energy: f64 = stage_costs.iter().map(|(n, s)| n.energy_j + s.energy_j).sum();
    let seconds = if platform == Platform::Reason {
        let items: Vec<reason_system::StageCost> = stage_costs
            .iter()
            .map(|(n, s)| reason_system::StageCost { neural_s: n.seconds, symbolic_s: s.seconds })
            .collect();
        reason_system::TwoLevelPipeline::new().schedule(&items).pipelined_s
    } else {
        stage_costs.iter().map(|(n, s)| n.seconds + s.seconds).sum()
    };
    TaskCost { seconds: seconds / tasks as f64, energy_j: energy / tasks as f64 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reason_beats_every_baseline_on_symbolic_work() {
        let spec = TaskSpec::new(Dataset::TwinSafety, Scale::Small, 0);
        let reason = baseline_symbolic_cost(Platform::Reason, &spec);
        for platform in [Platform::Xeon, Platform::OrinNx, Platform::RtxA6000] {
            let base = baseline_symbolic_cost(platform, &spec);
            assert!(
                base.seconds > reason.seconds,
                "{} ({}s) should trail REASON ({}s)",
                platform.name(),
                base.seconds,
                reason.seconds
            );
        }
    }

    #[test]
    fn end_to_end_ordering_matches_fig11() {
        let costs: Vec<(Platform, TaskCost)> =
            Platform::all().into_iter().map(|p| (p, end_to_end_cost(p, Dataset::Imo, 3))).collect();
        let reason = costs.iter().find(|(p, _)| *p == Platform::Reason).unwrap().1;
        let rtx = costs.iter().find(|(p, _)| *p == Platform::RtxA6000).unwrap().1;
        let orin = costs.iter().find(|(p, _)| *p == Platform::OrinNx).unwrap().1;
        assert!(reason.seconds < rtx.seconds);
        assert!(rtx.seconds < orin.seconds, "desktop GPU beats the edge GPU");
        assert!(reason.energy_j < rtx.energy_j);
    }

    #[test]
    fn costs_are_finite_and_positive() {
        for dataset in Dataset::all() {
            let spec = TaskSpec::new(dataset, Scale::Small, 1);
            let c = baseline_symbolic_cost(Platform::Reason, &spec);
            assert!(c.seconds.is_finite() && c.seconds > 0.0, "{dataset}");
            assert!(c.energy_j.is_finite() && c.energy_j > 0.0, "{dataset}");
        }
    }
}
