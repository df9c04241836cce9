//! `paper_lowering` — the paper's own path: one Table-I task, then its
//! kernel lowered onto the simulated REASON array.
//!
//! *Op* = one task: `WorkloadModel::run_task` (pruning on) followed by
//! the task's representative kernel through `ReasonPipeline::compile`
//! → `ReasonCompiler::compile` → `VliwExecutor::execute` (circuit and
//! HMM workloads) or `SymbolicEngine::solve` (the deduction workloads);
//! or one compiled serving arena lowered through `dag_from_circuit`.
//! *Call* = one pass over Table I for one task seed — ten datasets ×
//! two scales, plus two served arenas, 22 ops — timed as the sum of
//! its calls into the program. This is the only workload where
//! `reason-core`, `reason-compiler` and `reason-arch` do the work and
//! the serving stack does none.
//!
//! A single task is either a deduction (well under a millisecond) or a
//! lowering (tens of milliseconds), so per-task latency is bimodal and
//! its median sits on the edge between the modes; a whole pass is not,
//! which is why the pass is the call.
//!
//! Host time and simulated time are different things: every timing
//! here is host time (what the simulator costs to run); `sim_cycles`
//! is what the modeled hardware would take, and repeats exactly.

use std::time::{Duration, Instant};

use crate::bench::Bench;
use crate::checks::close;
use crate::gen::{planted_kb, Kb, SplitMix64};
use crate::layers::{self, Lowerable, PaperKernel, PaperTask};

const TASK_SEEDS: usize = 10;
/// Served knowledge bases whose arenas are lowered in each pass. Sizes
/// stop where every instance still fits the paper design point's
/// register file, so no op fails for want of registers.
const SERVED_VARS: [usize; 4] = [12, 13, 14, 15];
const SERVED_PER_PASS: usize = 2;

/// A served arena as a lowerable DAG, with the value it must compute.
struct ServedKernel {
    label: String,
    dag: Lowerable,
    z: f64,
}

/// Lowers and executes one DAG; returns the timed calls' total.
fn lower_and_execute(
    b: &mut Bench,
    label: &str,
    dag: &Lowerable,
    want: f64,
    trace: Option<(usize, u64)>,
) -> (Duration, u64) {
    let lowered = layers::lower(dag);
    let mut total = lowered.dur;
    let kernel = match &lowered.value {
        Ok(kernel) => kernel,
        Err(e) => {
            b.fail(1, || format!("{label}: lowering failed: {e}"));
            return (total, 0);
        }
    };
    let ran = layers::vliw_execute(kernel, dag);
    total += ran.dur;
    let run = ran.value;
    if !close(run.output, want) {
        b.check(Err(format!("{label}: array output {} != DAG value {want}", run.output)));
    }
    if run.predicted_cycles > run.cycles {
        b.check(Err(format!(
            "{label}: no-stall bound {} exceeds measured {} cycles",
            run.predicted_cycles, run.cycles
        )));
    }
    if let Some((root, op)) = trace {
        b.span("compiler.lower", Some(root), op, &lowered);
        b.span("arch.vliw", Some(root), op, &ran);
        let instrs = layers::kernel_instructions(kernel) as f64;
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        b.sample("compiler.lower.call_us", us(lowered.dur));
        b.sample("compiler.lower.us_per_instr", us(lowered.dur) / instrs.max(1.0));
        b.sample("compiler.lower.instrs", instrs);
        b.sample("arch.vliw.host_us", us(ran.dur));
        b.sample("arch.vliw.host_ns_per_cycle", us(ran.dur) * 1e3 / run.cycles.max(1) as f64);
        b.sample("arch.vliw.sim_cycles", run.cycles as f64);
        b.sample("arch.vliw.stall_share", run.stall_cycles as f64 / run.cycles.max(1) as f64);
        b.sample(
            "arch.vliw.predicted_over_measured",
            run.predicted_cycles as f64 / run.cycles.max(1) as f64,
        );
    }
    (total, run.cycles)
}

/// The task seeds, their Table-I tasks, and the served knowledge bases.
pub fn generate(b: &mut Bench) -> (Vec<u64>, Vec<PaperTask>, Vec<Kb>) {
    let mut rng = SplitMix64::new(b.seed).fork(0x9A9E);
    let seeds: Vec<u64> = (0..b.scaled(TASK_SEEDS, 1)).map(|_| rng.next_u64() >> 16).collect();
    let tasks: Vec<PaperTask> = layers::paper_tasks(&seeds);
    for &seed in &seeds {
        b.digest.u64(seed);
    }
    let served_kbs: Vec<Kb> = (0..seeds.len() * SERVED_PER_PASS)
        .map(|i| planted_kb(&mut rng, SERVED_VARS[i % SERVED_VARS.len()]))
        .collect();
    for kb in &served_kbs {
        kb.digest_into(&mut b.digest);
    }
    (seeds, tasks, served_kbs)
}

pub fn run(b: &mut Bench) {
    let (seeds, tasks, served_kbs) = generate(b);
    let tasks_per_pass = tasks.len() / seeds.len();
    // Set-up: the task kernels, and the served arenas compiled and
    // turned into DAGs — everything before the first timed call.
    let (kernels, served) = b.setup(|| {
        let kernels: Vec<PaperKernel> = tasks.iter().map(layers::task_kernel).collect();
        let served: Vec<ServedKernel> = served_kbs
            .iter()
            .enumerate()
            .map(|(i, kb)| {
                let formula = layers::formula(kb);
                let circuit = layers::compile(&formula).value.expect("planted formulas have mass");
                let arena = layers::flatten(&circuit).value;
                ServedKernel {
                    label: format!("served-n{}-{i}", kb.n),
                    dag: layers::served_dag(&circuit),
                    z: layers::eval_single(&arena, &[]).value,
                }
            })
            .collect();
        (kernels, served)
    });
    for (kb, s) in served_kbs.iter().zip(&served) {
        let brute = layers::brute_probability(&layers::formula(kb), &[]);
        if !close(s.z, brute) {
            b.check(Err(format!("{}: arena Z {} != brute force {brute}", s.label, s.z)));
        }
        // The DAG's software evaluation must itself reproduce Z.
        if !close(layers::dag_reference(&s.dag), s.z) {
            b.check(Err(format!("{}: lowered DAG does not compute Z", s.label)));
        }
    }

    while b.next_round() {
        let traced = b.traced_round();
        let mut sim_cycles = 0u64;
        let mut scores = 0.0;
        for pass in 0..seeds.len() {
            let op = b.op_id();
            // The root span opens first so the calls below can name
            // it, and closes with the pass's summed call time.
            let root =
                traced.then(|| b.span_raw("paper.pass", None, op, Instant::now(), Duration::ZERO));
            let mut total = Duration::ZERO;
            let range = pass * tasks_per_pass..(pass + 1) * tasks_per_pass;
            for (task, kernel) in tasks[range.clone()].iter().zip(&kernels[range]) {
                let label = layers::task_label(task);
                let ran = layers::task_run(task);
                scores += ran.value.1;
                total += ran.dur;
                if let Some(root) = root {
                    b.span("workloads.task", Some(root), op, &ran);
                    b.sample("workloads.task.call_us", ran.dur.as_secs_f64() * 1e6);
                }
                match kernel {
                    PaperKernel::Sat(cnf) => {
                        let solved = layers::bcp_solve(cnf);
                        total += solved.dur;
                        let (sat, cycles) = solved.value;
                        sim_cycles += cycles;
                        let reference = layers::cdcl_solve(cnf);
                        if reference.value.0 != sat {
                            b.check(Err(format!(
                                "{label}: BCP engine says sat={sat}, CDCL disagrees"
                            )));
                        }
                        if let Some(root) = root {
                            b.span("arch.bcp", Some(root), op, &solved);
                            b.sample("arch.bcp.host_us", solved.dur.as_secs_f64() * 1e6);
                            b.sample("arch.bcp.sim_cycles", cycles as f64);
                            let conflicts = reference.value.1.max(1) as f64;
                            b.sample(
                                "sat.cdcl.us_per_conflict",
                                reference.dur.as_secs_f64() * 1e6 / conflicts,
                            );
                        }
                    }
                    dag_kernel => {
                        let piped = layers::pipeline_compile(dag_kernel).expect("DAG-mode kernel");
                        total += piped.dur;
                        let want = layers::dag_reference(&piped.value);
                        if let Some(root) = root {
                            b.span("core.pipeline", Some(root), op, &piped);
                            b.sample("core.pipeline.call_us", piped.dur.as_secs_f64() * 1e6);
                            let (before, after) =
                                (piped.value.nodes_before, layers::dag_nodes(&piped.value));
                            b.sample(
                                "core.pipeline.node_reduction",
                                1.0 - after as f64 / before.max(1) as f64,
                            );
                        }
                        let (dur, cycles) =
                            lower_and_execute(b, &label, &piped.value, want, root.map(|r| (r, op)));
                        total += dur;
                        sim_cycles += cycles;
                    }
                }
            }
            for s in &served[pass * SERVED_PER_PASS..(pass + 1) * SERVED_PER_PASS] {
                let (dur, cycles) =
                    lower_and_execute(b, &s.label, &s.dag, s.z, root.map(|r| (r, op)));
                total += dur;
                sim_cycles += cycles;
            }
            if let Some(root) = root {
                b.span_close(root, total);
            }
            b.call(total, (tasks_per_pass + SERVED_PER_PASS) as u64);
        }
        // Simulated time of one round; identical every round.
        b.set("sim_cycles", sim_cycles as f64);
        b.set("workloads.task.score_mean", scores / tasks.len().max(1) as f64);
    }
}
