//! Lowering regression guard: pinned program digests and cycle counts.
//!
//! `ReasonCompiler::compile` is deterministic, so the exact program it
//! emits for a fixed kernel — reads, node encodings, write banks,
//! predicted writes, frees, preload order — and the cycle counts the
//! array measures on it are constants of the repository. They were
//! measured on the commit *before* the lowering passes moved from hash
//! maps and per-bank rescans to dense `NodeId::index()` tables, so any
//! rewrite of `reason-compiler`, `RegisterBanks` or `VliwExecutor` that
//! changes a tie-break, an allocation order or a stall count fails
//! here instead of silently shifting `sim_cycles`.
//!
//! The kernels are the ones the repo benchmark lowers (`paper_lowering`):
//! the 12-variable mixture circuit and the 16-step HMM through
//! `ReasonPipeline::compile`, and a served arena's source circuit
//! through `dag_from_circuit` + `regularize`; each at the paper design
//! point, with both compiler ablations (bank mapping, scheduling)
//! switched off, and on a narrow 4-bank register file where the
//! conflict cost decides most placements and port conflicts do stall.

use reason::arch::{ArchConfig, BankAddr, BlockNode, BlockOperand, VliwExecutor, VliwProgram};
use reason::compiler::ReasonCompiler;
use reason::core::{dag_from_circuit, regularize, Dag, DagStats, KernelSource, ReasonPipeline};
use reason::hmm::Hmm;
use reason::pc::{compile_cnf, random_mixture_circuit, StructureConfig, WmcWeights};
use reason::sat::gen::planted_ksat;

/// Everything pinned about one lowered kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    instructions: usize,
    reads: usize,
    peak_live_registers: usize,
    cycles: u64,
    raw_stall_cycles: u64,
    conflict_stall_cycles: u64,
    program_digest: u64,
}

/// FNV-1a over a stream of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One instruction as the digest reads it.
struct Instr<'a> {
    reads: &'a [BankAddr],
    nodes: &'a [BlockNode],
    write_bank: usize,
    predicted_write: Option<BankAddr>,
    frees: &'a [BankAddr],
}

/// The program's instructions in issue order: the one place this file
/// reads the program's instruction layout.
fn instructions(p: &VliwProgram) -> impl Iterator<Item = Instr<'_>> {
    p.instructions().map(|instr| Instr {
        reads: instr.reads,
        nodes: instr.nodes,
        write_bank: instr.write_bank,
        predicted_write: instr.predicted_write,
        frees: instr.frees,
    })
}

/// A 64-bit digest of every field of the program, in order.
fn program_digest(p: &VliwProgram) -> u64 {
    let mut h = Fnv::new();
    h.word(p.preload.len() as u64);
    for &(at, value) in &p.preload {
        h.word(u64::from(at.bank) << 16 | u64::from(at.addr));
        h.word(value.to_bits());
    }
    h.word(instructions(p).count() as u64);
    for instr in instructions(p) {
        h.word(instr.reads.len() as u64);
        for r in instr.reads {
            h.word(u64::from(r.bank) << 16 | u64::from(r.addr));
        }
        h.word(instr.nodes.len() as u64);
        for node in instr.nodes {
            h.word(node.op as u64);
            for input in node.inputs {
                match input {
                    BlockOperand::Read(i) => h.word(2 * i as u64),
                    BlockOperand::Node(j) => h.word(2 * j as u64 + 1),
                }
            }
        }
        h.word(instr.write_bank as u64);
        match instr.predicted_write {
            Some(at) => h.word(1 << 32 | u64::from(at.bank) << 16 | u64::from(at.addr)),
            None => h.word(0),
        }
        h.word(instr.frees.len() as u64);
        for f in instr.frees {
            h.word(u64::from(f.bank) << 16 | u64::from(f.addr));
        }
    }
    h.word(p.output_instr as u64);
    h.word(p.num_banks as u64);
    h.word(p.max_block_depth as u64);
    h.0
}

fn lower_and_run(dag: &Dag, inputs: &[f64], config: ArchConfig) -> Pin {
    let kernel = ReasonCompiler::new(config).compile(dag).expect("kernel fits the register file");
    let program = kernel.program(inputs);
    let run = VliwExecutor::new(config).execute(&program);
    assert!(kernel.predicted_cycles(&config) <= run.cycles);
    assert_eq!(kernel.report.instructions, instructions(&program).count());
    Pin {
        instructions: kernel.report.instructions,
        reads: kernel.report.reads,
        peak_live_registers: kernel.report.peak_live_registers,
        cycles: run.cycles,
        raw_stall_cycles: run.raw_stall_cycles,
        conflict_stall_cycles: run.conflict_stall_cycles,
        program_digest: program_digest(&program),
    }
}

fn mixture(seed: u64) -> reason::pc::Circuit {
    random_mixture_circuit(&StructureConfig { num_vars: 12, depth: 4, num_components: 3, seed })
}

/// The benchmark's kernels as `(label, regular DAG, input binding)`.
fn kernels() -> Vec<(String, Dag, Vec<f64>)> {
    let mut out = Vec::new();
    for seed in [3u64, 17] {
        let circuit = mixture(seed);
        let kernel = ReasonPipeline::new().compile(KernelSource::Pc(&circuit)).unwrap();
        let inputs = vec![1.0; kernel.stats.after.inputs];
        out.push((format!("pc-{seed}"), kernel.dag, inputs));
    }
    // `6 + scale` hidden states for the small (1) and large (3) scales.
    for (states, seed) in [(7usize, 5u64), (9, 11)] {
        let hmm = Hmm::random(states, 8, seed);
        let kernel = ReasonPipeline::new().compile(KernelSource::Hmm { hmm: &hmm, len: 16 });
        let kernel = kernel.unwrap();
        let inputs = vec![1.0; kernel.stats.after.inputs];
        out.push((format!("hmm-{states}-{seed}"), kernel.dag, inputs));
    }
    for (n, seed) in [(12usize, 2u64), (15, 9)] {
        let cnf = planted_ksat(n, n + 24, 3, seed);
        let weights = WmcWeights::new((0..n).map(|v| 0.3 + 0.4 * v as f64 / n as f64).collect());
        let circuit = compile_cnf(&cnf, &weights).expect("planted formulas have mass");
        let (dag, map) = dag_from_circuit(&circuit);
        let inputs = map.inputs_for_evidence(circuit.arities(), &vec![None; n]);
        out.push((format!("served-{n}-{seed}"), regularize(&dag), inputs));
    }
    out
}

/// The configurations each kernel is lowered for, in pin order: the
/// paper design point; the same with both compiler ablations off; and
/// four deep banks, where co-read operands must share banks.
fn configs() -> [(&'static str, ArchConfig); 3] {
    let paper = ArchConfig::paper();
    let mut ablated = paper;
    ablated.ablation.bank_mapping = false;
    ablated.ablation.scheduling = false;
    let narrow = ArchConfig { num_banks: 4, regs_per_bank: 512, ..paper };
    [("paper", paper), ("ablated", ablated), ("narrow", narrow)]
}

/// `(label, [paper, ablated, narrow])`, measured on the parent of the
/// dense-index rewrite.
const PINS: [(&str, [Pin; 3]); 6] = [
    (
        "pc-3",
        [
            pin(590, 4066, 1986, 75, 103, 0, 0x68f68a946bc036e4),
            pin(590, 4066, 1986, 2955, 0, 0, 0x69c62d0d4257f336),
            pin(590, 4066, 1986, 75, 103, 0, 0xc2b5f50002dac4ac),
        ],
    ),
    (
        "pc-17",
        [
            pin(590, 4066, 1986, 75, 103, 0, 0x77c00d1c5d9a5b44),
            pin(590, 4066, 1986, 2955, 0, 0, 0x14f310be3287bc04),
            pin(590, 4066, 1986, 78, 109, 17, 0xf87c01bffbf331da),
        ],
    ),
    (
        "hmm-7-5",
        [
            pin(544, 3707, 336, 192, 1560, 0, 0xe2b85f0c3f6c6539),
            pin(544, 3707, 242, 2725, 0, 0, 0x43209f6ed9caf638),
            pin(544, 3707, 336, 192, 1560, 0, 0xb0a13079829e18aa),
        ],
    ),
    (
        "hmm-9-11",
        [
            pin(834, 5441, 446, 280, 2330, 0, 0xa1585a600aa8b056),
            pin(834, 5441, 293, 4175, 0, 0, 0x90d5c039620ce679),
            pin(834, 5441, 446, 280, 2330, 0, 0x82f9c218d56bdc69),
        ],
    ),
    (
        "served-12-2",
        [
            pin(75, 231, 64, 57, 343, 0, 0x269c3e22358295f2),
            pin(75, 231, 56, 380, 0, 0, 0x3dd15be4be5b8756),
            pin(75, 231, 64, 57, 342, 1, 0xb67e8342c86ef0b2),
        ],
    ),
    (
        "served-15-9",
        [
            pin(168, 634, 106, 73, 447, 0, 0xf57de8ee91c46e13),
            pin(168, 634, 83, 845, 0, 0, 0xfb6b12a9b6ad3b86),
            pin(168, 634, 106, 73, 448, 4, 0xdfa7a9a40d957936),
        ],
    ),
];

const fn pin(
    instructions: usize,
    reads: usize,
    peak_live_registers: usize,
    cycles: u64,
    raw_stall_cycles: u64,
    conflict_stall_cycles: u64,
    program_digest: u64,
) -> Pin {
    Pin {
        instructions,
        reads,
        peak_live_registers,
        cycles,
        raw_stall_cycles,
        conflict_stall_cycles,
        program_digest,
    }
}

#[test]
fn emitted_programs_and_cycle_counts_are_pinned() {
    let kernels = kernels();
    assert_eq!(kernels.len(), PINS.len());
    let mut drift = Vec::new();
    for ((label, dag, inputs), (pinned_label, pins)) in kernels.iter().zip(PINS) {
        assert_eq!(label, pinned_label);
        for ((which, config), pin) in configs().into_iter().zip(pins) {
            let got = lower_and_run(dag, inputs, config);
            if got != pin {
                drift.push(format!("{label} [{which}]:\n  pinned {pin:?}\n  got    {got:?}"));
            }
        }
    }
    assert!(drift.is_empty(), "lowering drifted from its pins:\n{}", drift.join("\n"));
}

/// `ReasonPipeline::compile` reports the shape of the unregularized
/// lowering in `stats.before`; it hands that very DAG on to `regularize`
/// instead of a copy, which must not change what is reported.
#[test]
fn pipeline_before_stats_are_pinned() {
    let circuit = mixture(3);
    let hmm = Hmm::random(7, 8, 5);
    let cnf = planted_ksat(12, 36, 3, 2);
    let pipeline = ReasonPipeline::new();
    let got: Vec<(&str, DagStats)> = vec![
        ("pc", pipeline.compile(KernelSource::Pc(&circuit)).unwrap().stats.before),
        ("hmm", pipeline.compile(KernelSource::Hmm { hmm: &hmm, len: 16 }).unwrap().stats.before),
        ("sat", pipeline.compile(KernelSource::Sat(&cnf)).unwrap().stats.before),
    ];
    let stats = |nodes, edges, inputs, depth, max_fan_in, footprint_bytes| DagStats {
        nodes,
        edges,
        inputs,
        depth,
        max_fan_in,
        footprint_bytes,
    };
    let pinned: Vec<(&str, DagStats)> = vec![
        ("pc", stats(5314, 6801, 24, 14, 3, 139_432)),
        ("hmm", stats(2201, 5124, 128, 49, 8, 76_208)),
        ("sat", stats(61, 156, 12, 3, 36, 2224)),
    ];
    assert_eq!(got, pinned);
}
