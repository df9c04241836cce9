//! Batched d-DNNF arena evaluation sweep (`reason-eval batch`).
//!
//! The experiment behind `reason_pc`'s structure-of-arrays batch
//! evaluator: across the serving ladder's random 3-SAT knowledge bases
//! it checks that one shared arena traversal — `B` queries answered by
//! a single pass with tight inner sum/max loops — returns what `B`
//! separate evaluations of the source circuit return, and closes the
//! HW/SW loop by lowering each rung's compiled circuit through
//! `reason-compiler` onto the simulated accelerator (what the shared
//! traversal buys in time is `benchmark/`'s `hot_wide`
//! `pc.eval_batch.ns_per_node_lane` against `pc.eval_single.ns_per_node`):
//!
//! 1. a **bit-identity guard**: per rung and batch width
//!    `B ∈ {8, 32, 128}`, a mixed WMC / marginal / MPE batch (with
//!    duplicate lanes) must match the single-query answers bit-for-bit
//!    — the same contract the serve path's
//!    `SymbolicStage::ServeBatch` relies on;
//! 2. an **accelerator round**: the rung's circuit is regularized,
//!    compiled onto [`reason_arch::ArchConfig::paper`], and executed on
//!    the cycle-accurate VLIW model; the compiler's analytic no-stall
//!    bound ([`reason_compiler::CompiledKernel::predicted_cycles`]) is
//!    reported next to the measured cycles. Rungs whose kernels exceed
//!    the register file record the overflow instead of a lowering.
//!
//! Every column is a count or a verdict, so the report is
//! byte-identical per seed. `reason-eval batch --json >
//! BENCH_batch.json` regenerates the committed baseline.

use std::fmt::Write as _;

use rand::prelude::*;
use reason_arch::{ArchConfig, VliwExecutor};
use reason_compiler::ReasonCompiler;
use reason_core::{dag_from_circuit, regularize};
use reason_pc::{BatchBuffer, Circuit, CompiledWmc, Dnnf, DnnfBatch, Evidence};

use super::registry::{Args, Output};
use super::replay::{instance_with_mass, sweep_weights};
use super::serve::SERVE_SIZES;
use crate::json::Json;

/// Batch widths swept per rung.
const BATCH_LANES: [usize; 3] = [8, 32, 128];

/// One `(knowledge base, batch width)` cell of the bit-identity sweep.
#[derive(Debug, Clone)]
struct BatchRow {
    /// Variable count.
    pub num_vars: usize,
    /// Clause count.
    pub num_clauses: usize,
    /// Seed the instance was generated from.
    pub seed: u64,
    /// Arena nodes.
    pub nodes: usize,
    /// Arena edges.
    pub edges: usize,
    /// Batch width `B`.
    pub lanes: usize,
    /// Mixed WMC/marginal/MPE batch matched per-query answers
    /// bit-for-bit (including duplicate lanes).
    pub bit_identical: bool,
}

/// One rung's accelerator lowering.
#[derive(Debug, Clone)]
struct AccelRow {
    /// Variable count.
    pub num_vars: usize,
    /// Arena nodes (the circuit the kernel computes).
    pub nodes: usize,
    /// Kernel lowered onto the paper design point (false = the register
    /// file overflowed, recorded gracefully instead of lowering).
    pub lowered: bool,
    /// VLIW instructions emitted.
    pub instructions: usize,
    /// The compiler's analytic no-stall cycle bound.
    pub predicted_cycles: u64,
    /// Cycle-accurate executor measurement.
    pub measured_cycles: u64,
}

/// Sweep output: bit-identity cells plus per-rung lowerings.
#[derive(Debug, Clone)]
struct BatchSummary {
    /// `(rung, B)` bit-identity cells.
    pub rows: Vec<BatchRow>,
    /// One lowering attempt per rung.
    pub accel: Vec<AccelRow>,
}

/// Mixed evidence batch shaped like serve traffic: empty lanes (WMC /
/// marginal normalizers), single-variable lanes (marginal numerators),
/// an occasional three-variable posterior, and every fifth lane
/// duplicating an earlier one so repeated queries ride the same
/// traversal.
fn evidence_batch(n: usize, lanes: usize, rng: &mut StdRng) -> Vec<Evidence> {
    let mut evs: Vec<Evidence> = Vec::with_capacity(lanes);
    for i in 0..lanes {
        if i % 5 == 4 {
            evs.push(evs[i - 2].clone());
            continue;
        }
        let mut ev = Evidence::empty(n);
        let observed = match i % 7 {
            0..=2 => 0,
            6 => 3,
            _ => 1,
        };
        for _ in 0..observed {
            ev.set(rng.gen_range(0..n), usize::from(rng.gen_bool(0.5)));
        }
        evs.push(ev);
    }
    evs
}

/// The guard for one packed batch: WMC, marginals and MPE on every
/// lane equal, bit for bit, what a twin arena flattened from the same
/// circuit answers for that lane alone (the benchmark's twin check),
/// and lie within [`CIRCUIT_TOL`] of the source circuit's single-query
/// evaluator.
fn batch_matches_per_query(
    circuit: &Circuit,
    arena: &Dnnf,
    evs: &[Evidence],
    batch: &DnnfBatch,
    rng: &mut StdRng,
) -> bool {
    let twin = Dnnf::from_circuit(circuit).expect("compiled circuits are binary");
    let one = |ev: &Evidence| DnnfBatch::pack(std::slice::from_ref(ev));
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut bbuf = BatchBuffer::new();
    let mut tbuf = BatchBuffer::new();
    let n = arena.num_vars();
    let mut ok = true;
    let wmc = arena.wmc_batch(batch, &mut bbuf);
    for (ev, got) in evs.iter().zip(&wmc) {
        ok &= got.to_bits() == twin.wmc_batch(&one(ev), &mut tbuf)[0].to_bits();
        ok &= circuit_close(*got, circuit.probability(ev));
    }
    let var = rng.gen_range(0..n);
    let marginals = arena.marginal_batch(batch, var, &mut bbuf);
    for (ev, got) in evs.iter().zip(&marginals) {
        ok &= bits(got) == bits(&twin.marginal_batch(&one(ev), var, &mut tbuf)[0]);
        let want = circuit.marginal(ev, var);
        ok &= got.iter().zip(&want).all(|(&a, &b)| circuit_close(a, b));
    }
    let mpes = arena.mpe_batch(batch, &mut bbuf);
    for (ev, got) in evs.iter().zip(&mpes) {
        let alone = &twin.mpe_batch(&one(ev), &mut tbuf)[0];
        ok &= got.assignment == alone.assignment
            && got.log_prob.to_bits() == alone.log_prob.to_bits();
        // Ties may resolve differently from the log-space circuit: the
        // chosen assignment's own log-likelihood must reach the maximum.
        let best = circuit.mpe(ev).log_prob;
        ok &= log_close(got.log_prob, best)
            && log_close(circuit.log_likelihood(&got.assignment), best);
    }
    ok
}

/// Relative tolerance of the sweeps' arena-vs-circuit checks: the arena
/// is within `γ_D` (below 1e-13 on these ladders) of exact arithmetic
/// on the circuit's weights (`reason_pc::dnnf`'s module docs), the
/// log-space circuit within a few ulps of `ln p` per node; 1e-9 is the
/// benchmark's answer tolerance (`benchmark/src/checks.rs`).
pub(crate) const CIRCUIT_TOL: f64 = 1e-9;

/// `a` and `b` agree within [`CIRCUIT_TOL`], relatively.
pub(crate) fn circuit_close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= CIRCUIT_TOL * a.abs().max(b.abs())
}

/// Two log-probabilities agree within [`CIRCUIT_TOL`], absolutely (a
/// relative error `δ` in linear space is `≈ δ` on the log).
pub(crate) fn log_close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= CIRCUIT_TOL
}

/// Runs the sweep over an explicit ladder and batch widths. Each rung
/// walks seeds until the instance carries mass.
fn batch_rows_for(sizes: &[(usize, usize)], lanes_list: &[usize], seed: u64) -> BatchSummary {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C4);
    let mut rows = Vec::with_capacity(sizes.len() * lanes_list.len());
    let mut accel = Vec::with_capacity(sizes.len());
    let config = ArchConfig::paper();
    for &(n, m) in sizes {
        // The serve sweep's weights and draw, so both experiments
        // exercise the same artifacts.
        let weights = sweep_weights(n);
        let (cnf, instance_seed) = instance_with_mass((n, m), &weights, seed, 0.0);
        let oracle = CompiledWmc::new(&cnf, &weights);
        let circuit = oracle.circuit().expect("probed mass above");
        let arena = Dnnf::from_circuit(circuit).expect("compiled circuits are binary");

        for &lanes in lanes_list {
            let evs = evidence_batch(n, lanes, &mut rng);
            let batch = DnnfBatch::pack(&evs);
            let bit_identical = batch_matches_per_query(circuit, &arena, &evs, &batch, &mut rng);
            assert!(bit_identical, "n={n} B={lanes}: batched answers diverged from per-query");
            rows.push(BatchRow {
                num_vars: n,
                num_clauses: m,
                seed: instance_seed,
                nodes: arena.num_nodes(),
                edges: arena.num_edges(),
                lanes,
                bit_identical,
            });
        }

        // Accelerator round: lower this rung's circuit onto the paper
        // design point and report predicted vs measured cycles.
        let (dag, map) = dag_from_circuit(circuit);
        let dag = regularize(&dag);
        match ReasonCompiler::new(config).compile(&dag) {
            Ok(kernel) => {
                let inputs = map.inputs_for_evidence(circuit.arities(), &vec![None; n]);
                let report = VliwExecutor::new(config).execute(&kernel.program(&inputs));
                let predicted = kernel.predicted_cycles(&config);
                assert!(
                    predicted <= report.cycles,
                    "n={n}: no-stall bound {predicted} exceeds measured {}",
                    report.cycles
                );
                // The lowered kernel computes the same quantity the
                // arena's empty-evidence lane does: the partition
                // function.
                assert!(
                    (report.output - oracle.wmc()).abs() <= 1e-9 * oracle.wmc().max(1e-30),
                    "n={n}: accelerator output diverged from CompiledWmc"
                );
                accel.push(AccelRow {
                    num_vars: n,
                    nodes: arena.num_nodes(),
                    lowered: true,
                    instructions: kernel.report.instructions,
                    predicted_cycles: predicted,
                    measured_cycles: report.cycles,
                });
            }
            Err(err) => {
                // Big arenas can exceed the register file; the sweep
                // records the overflow instead of failing.
                let _ = err;
                accel.push(AccelRow {
                    num_vars: n,
                    nodes: arena.num_nodes(),
                    lowered: false,
                    instructions: 0,
                    predicted_cycles: 0,
                    measured_cycles: 0,
                });
            }
        }
    }
    BatchSummary { rows, accel }
}

/// Runs the full ladder ([`SERVE_SIZES`] × [`BATCH_LANES`]) and asserts
/// that some rung lowers onto the simulated accelerator.
fn batch_summary(seed: u64) -> BatchSummary {
    let summary = batch_rows_for(&SERVE_SIZES, &BATCH_LANES, seed);
    assert!(
        summary.accel.iter().any(|a| a.lowered),
        "no rung lowered onto the simulated accelerator"
    );
    summary
}

fn rows_to_text(summary: &BatchSummary) -> String {
    let mut out =
        String::from("=== reason-pc: batched d-DNNF arena evaluation (seeded random 3-SAT) ===\n");
    let _ = writeln!(
        out,
        "{:>6} {:>8} {:>8} {:>8} {:>6} {:>5}",
        "vars", "clauses", "nodes", "edges", "B", "bits"
    );
    for r in &summary.rows {
        let _ = writeln!(
            out,
            "{:>6} {:>8} {:>8} {:>8} {:>6} {:>5}",
            r.num_vars,
            r.num_clauses,
            r.nodes,
            r.edges,
            r.lanes,
            if r.bit_identical { "yes" } else { "NO" },
        );
    }
    out.push_str("-- accelerator lowering (ArchConfig::paper, cycle-accurate VLIW) --\n");
    let _ = writeln!(
        out,
        "{:>6} {:>8} {:>7} {:>8} {:>11} {:>10} {:>7}",
        "vars", "nodes", "instrs", "cycles", "predicted", "stalls", "ratio"
    );
    for a in &summary.accel {
        if a.lowered {
            let _ = writeln!(
                out,
                "{:>6} {:>8} {:>7} {:>8} {:>11} {:>10} {:>6.2}x",
                a.num_vars,
                a.nodes,
                a.instructions,
                a.measured_cycles,
                a.predicted_cycles,
                a.measured_cycles - a.predicted_cycles,
                a.measured_cycles as f64 / a.predicted_cycles.max(1) as f64,
            );
        } else {
            let _ = writeln!(
                out,
                "{:>6} {:>8} {:>7}",
                a.num_vars, a.nodes, "register file overflow (not lowered)"
            );
        }
    }
    out.push_str(
        "(bits = one DnnfBatch traversal of a mixed WMC/marginal/MPE batch matches B per-query \
         walks bit-for-bit; predicted = the compiler's no-stall bound, measured adds RAW and \
         bank-conflict stalls; batched-vs-single time is benchmark/'s hot_wide \
         pc.eval_batch.ns_per_node_lane vs pc.eval_single.ns_per_node)\n",
    );
    out
}

fn rows_to_json(summary: &BatchSummary, seed: u64) -> Json {
    Json::Obj(vec![
        ("experiment".into(), Json::Str("batch".into())),
        ("seed".into(), Json::Num(seed as f64)),
        (
            "rows".into(),
            Json::Arr(
                summary
                    .rows
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("num_vars".into(), Json::Num(r.num_vars as f64)),
                            ("num_clauses".into(), Json::Num(r.num_clauses as f64)),
                            ("instance_seed".into(), Json::Num(r.seed as f64)),
                            ("nodes".into(), Json::Num(r.nodes as f64)),
                            ("edges".into(), Json::Num(r.edges as f64)),
                            ("lanes".into(), Json::Num(r.lanes as f64)),
                            ("bit_identical".into(), Json::Bool(r.bit_identical)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "accelerator".into(),
            Json::Arr(
                summary
                    .accel
                    .iter()
                    .map(|a| {
                        Json::Obj(vec![
                            ("num_vars".into(), Json::Num(a.num_vars as f64)),
                            ("nodes".into(), Json::Num(a.nodes as f64)),
                            ("lowered".into(), Json::Bool(a.lowered)),
                            ("instructions".into(), Json::Num(a.instructions as f64)),
                            ("predicted_cycles".into(), Json::Num(a.predicted_cycles as f64)),
                            ("measured_cycles".into(), Json::Num(a.measured_cycles as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The registry row: one sweep, both views.
pub(crate) fn run(args: &Args) -> Output {
    let summary = batch_summary(args.seed);
    Output::sweep(rows_to_text(&summary), rows_to_json(&summary, args.seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn small_summary() -> BatchSummary {
        // Cheap rungs and narrow batches for the debug profile.
        batch_rows_for(&SERVE_SIZES[..2], &[4, 8], 7)
    }

    #[test]
    fn sweep_cells_are_bit_identical_and_lower_onto_the_accelerator() {
        let summary = small_summary();
        assert_eq!(summary.rows.len(), 4);
        for r in &summary.rows {
            assert!(r.bit_identical);
        }
        assert_eq!(summary.accel.len(), 2);
        for a in &summary.accel {
            assert!(a.lowered, "small rungs fit the register file");
            assert!(a.predicted_cycles > 0);
            assert!(a.predicted_cycles <= a.measured_cycles);
        }
    }

    #[test]
    fn text_report_renders_every_cell() {
        let summary = small_summary();
        let text = rows_to_text(&summary);
        assert!(text.contains("batched d-DNNF arena evaluation"));
        assert!(text.contains("accelerator lowering"));
        for r in &summary.rows {
            assert!(
                text.contains(&format!("{:>6} {:>8} {:>8}", r.num_vars, r.num_clauses, r.nodes))
            );
        }
    }

    #[test]
    fn json_output_parses_and_carries_the_sweep() {
        let text = rows_to_json(&small_summary(), 7).render();
        let parsed = json::parse(&text).expect("sweep JSON must parse");
        assert_eq!(parsed.get("experiment").unwrap().as_str(), Some("batch"));
        let rows = parsed.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 4);
        for row in rows {
            assert!(row.get("lanes").unwrap().as_f64().is_some());
            assert_eq!(row.get("bit_identical").unwrap().as_bool(), Some(true));
        }
        let accel = parsed.get("accelerator").unwrap().as_arr().unwrap();
        assert_eq!(accel.len(), 2);
        for a in accel {
            assert_eq!(a.get("lowered").unwrap().as_bool(), Some(true));
            assert!(a.get("predicted_cycles").unwrap().as_f64().unwrap() > 0.0);
        }
    }

    #[test]
    fn batch_json_is_byte_identical_across_runs() {
        // Two full sweeps (fresh compiles, arenas and lowerings) render
        // identical JSON for the same seed: no column reads a clock.
        let a = rows_to_json(&small_summary(), 7).render();
        let b = rows_to_json(&small_summary(), 7).render();
        assert_eq!(a, b);
    }
}
