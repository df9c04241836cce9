//! VLIW program format and the cycle-accurate probabilistic/DAG-mode
//! executor.
//!
//! `reason-compiler` lowers a two-input-regular DAG into *blocks*: depth-
//! bounded subtrees that issue as single VLIW instructions. Each
//! instruction reads operands from the banked register file (through the
//! Benes crossbar), streams them through the tree pipeline, and writes the
//! block root back to a bank using automatic lowest-free addressing
//! (paper Sec. V-C). The executor here is both *functional* (it computes
//! the real values, verified against DAG evaluation) and *timed* (issue
//! pipelining, RAW hazards, dual-port bank conflicts, energy events).

use serde::{Deserialize, Serialize};

use crate::config::ArchConfig;
use crate::energy::{EnergyEvents, EnergyModel, EnergyReport};
use crate::mem::{BankAddr, RegisterBanks};
use crate::tree::TreeOp;

/// An operand of a block node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockOperand {
    /// The `i`-th entry of the instruction's read list.
    Read(usize),
    /// The result of an earlier node in the same block.
    Node(usize),
}

/// One two-input compute node inside a block.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockNode {
    /// The operation.
    pub op: TreeOp,
    /// Left and right operands (`Not`/`Pass` use only the left).
    pub inputs: [BlockOperand; 2],
}

/// One VLIW instruction: a register read set, a block of tree ops, and a
/// writeback bank.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VliwInstr {
    /// Register locations read this issue.
    pub reads: Vec<BankAddr>,
    /// Block nodes in topological order; the last node is the block root.
    pub nodes: Vec<BlockNode>,
    /// Bank receiving the block result (one-bank-one-PE writeback).
    pub write_bank: usize,
    /// Compiler-predicted write location, checked against the hardware's
    /// automatic addressing at runtime.
    pub predicted_write: Option<BankAddr>,
    /// Registers whose live ranges end after this instruction.
    pub frees: Vec<BankAddr>,
}

impl VliwInstr {
    /// The pipeline depth this block needs (longest node chain).
    pub fn block_depth(&self) -> usize {
        let mut depth = vec![0usize; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            let d = node
                .inputs
                .iter()
                .map(|op| match op {
                    BlockOperand::Read(_) => 0,
                    BlockOperand::Node(j) => depth[*j] + 1,
                })
                .max()
                .unwrap_or(0);
            depth[i] = d;
        }
        depth.last().map_or(0, |d| d + 1)
    }
}

/// A complete program for one kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VliwProgram {
    /// Values preloaded into the register file before execution
    /// (constants and kernel inputs).
    pub preload: Vec<(BankAddr, f64)>,
    /// The instruction stream.
    pub instructions: Vec<VliwInstr>,
    /// Index of the instruction whose result is the kernel output.
    pub output_instr: usize,
    /// Banks in the register file this program was compiled for.
    pub num_banks: usize,
    /// Maximum block depth (must not exceed the PE tree depth).
    pub max_block_depth: usize,
}

impl VliwProgram {
    /// Static validation against an architecture.
    ///
    /// # Panics
    ///
    /// Panics when the program is incompatible with `config` (bank count,
    /// block depth, a location outside the register file) or
    /// self-inconsistent (operand indices out of range, a node reading a
    /// node that is not strictly before it).
    pub fn validate(&self, config: &ArchConfig) {
        assert!(self.num_banks <= config.num_banks, "program uses too many banks");
        assert!(
            self.max_block_depth <= config.tree_depth,
            "block depth {} exceeds tree depth {}",
            self.max_block_depth,
            config.tree_depth
        );
        assert!(self.output_instr < self.instructions.len(), "output index out of range");
        let in_regfile = |at: &BankAddr| {
            (at.bank as usize) < config.num_banks && (at.addr as usize) < config.regs_per_bank
        };
        assert!(self.preload.iter().all(|(at, _)| in_regfile(at)), "preload outside register file");
        for (k, instr) in self.instructions.iter().enumerate() {
            assert!(!instr.nodes.is_empty(), "instruction {k} has no nodes");
            assert!(
                instr.reads.iter().chain(&instr.frees).all(in_regfile),
                "instruction {k} names a location outside the register file"
            );
            for (pos, node) in instr.nodes.iter().enumerate() {
                for op in &node.inputs {
                    match op {
                        BlockOperand::Read(i) => {
                            assert!(*i < instr.reads.len(), "instruction {k} read out of range")
                        }
                        BlockOperand::Node(j) => assert!(
                            *j < pos,
                            "instruction {k} node {pos} has forward reference to node {j}"
                        ),
                    }
                }
            }
            assert!(instr.block_depth() <= self.max_block_depth, "instruction {k} too deep");
        }
    }
}

/// Result of executing a program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Total cycles.
    pub cycles: u64,
    /// Instructions issued.
    pub instructions: u64,
    /// Cycles lost to read-after-write hazards.
    pub raw_stall_cycles: u64,
    /// Cycles lost to bank port conflicts.
    pub conflict_stall_cycles: u64,
    /// The kernel output value.
    pub output: f64,
    /// Raw energy events.
    pub events: EnergyEvents,
    /// Evaluated energy/power/area.
    pub energy: EnergyReport,
}

impl ExecutionReport {
    /// Wall-clock seconds of the run.
    pub fn seconds(&self) -> f64 {
        self.energy.seconds
    }

    /// Fraction of cycles not lost to stalls. Stall cycles on different
    /// PEs can overlap, so the metric clamps at zero.
    pub fn pipeline_utilization(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        (1.0 - (self.raw_stall_cycles + self.conflict_stall_cycles) as f64 / self.cycles as f64)
            .clamp(0.0, 1.0)
    }
}

/// The cycle-accurate executor for DAG-mode programs.
#[derive(Debug)]
pub struct VliwExecutor {
    config: ArchConfig,
    energy_model: EnergyModel,
}

impl VliwExecutor {
    /// An executor for the given architecture.
    pub fn new(config: ArchConfig) -> Self {
        config.validate();
        let mut energy_model = EnergyModel::at_node(config.tech);
        energy_model.freq_mhz = config.freq_mhz;
        VliwExecutor { config, energy_model }
    }

    /// The architecture being modeled.
    pub fn config(&self) -> &ArchConfig {
        &self.config
    }

    /// Runs `program`, returning timing, energy, and the output value.
    ///
    /// # Panics
    ///
    /// Panics if the program fails validation or the compiler's predicted
    /// write addresses diverge from the hardware's automatic addressing.
    pub fn execute(&self, program: &VliwProgram) -> ExecutionReport {
        program.validate(&self.config);
        let mut rf = RegisterBanks::new(self.config.num_banks, self.config.regs_per_bank);
        let mut events = EnergyEvents::default();

        // Preload constants and inputs (DMA from the shared scratchpad).
        for &(at, value) in &program.preload {
            rf.write_at(at, value);
        }
        events.sram_reads += program.preload.len() as u64;
        events.reg_writes += program.preload.len() as u64;
        events.dram_bytes += 4 * program.preload.len() as u64;

        let pipeline_depth = self.config.pipeline_depth() as u64;
        let benes_stages = if self.config.num_banks >= 2 {
            2 * (self.config.num_banks as u64).trailing_zeros() as u64 - 1
        } else {
            0
        };

        // Per register, bank-major: completion cycle of the instruction
        // that wrote it, 0 when it was preloaded or freed (no issue
        // happens before cycle 1, so 0 never stalls).
        let regs_per_bank = self.config.regs_per_bank;
        let register = |at: BankAddr| at.bank as usize * regs_per_bank + at.addr as usize;
        let mut ready_at = vec![0u64; self.config.regfile_words()];
        let mut cycle: u64 = 0;
        let mut raw_stalls = 0u64;
        let mut conflict_stalls = 0u64;
        let mut output = 0.0f64;
        // Block-evaluation buffers, reused across instructions.
        let mut operand_values: Vec<f64> = Vec::new();
        let mut node_values: Vec<f64> = Vec::new();
        // The array issues one block per tree PE per cycle: instruction k
        // lands on PE (k mod num_pes), which frees one cycle after its
        // previous issue.
        let mut pe_free = vec![0u64; self.config.num_pes.max(1)];

        if !self.config.ablation.reconfigurable {
            // Non-reconfigurable datapath: pay a mode-configuration penalty
            // before the kernel starts.
            cycle += 2 * pipeline_depth + self.config.total_nodes() as u64;
            pe_free.iter_mut().for_each(|t| *t = cycle);
        }

        for (k, instr) in program.instructions.iter().enumerate() {
            // Issue constraints: the assigned PE must be free...
            let pe = k % pe_free.len();
            let mut issue = pe_free[pe] + 1;
            if self.config.ablation.scheduling {
                // ...and RAW hazards require operands written back.
                for &r in &instr.reads {
                    let t = ready_at[register(r)];
                    if t > issue {
                        raw_stalls += t - issue;
                        issue = t;
                    }
                }
            } else {
                // No pipeline-aware scheduling: serialize fully.
                issue = issue.max(cycle + pipeline_depth);
            }
            // Bank port conflicts extend the read phase.
            let conflict = rf.conflict_penalty(&instr.reads);
            conflict_stalls += conflict;
            let issue = issue + conflict;

            // Functional evaluation of the block.
            operand_values.clear();
            operand_values.extend(instr.reads.iter().map(|&r| rf.read(r)));
            node_values.clear();
            for node in &instr.nodes {
                let fetch = |op: &BlockOperand| -> f64 {
                    match op {
                        BlockOperand::Read(i) => operand_values[*i],
                        BlockOperand::Node(j) => node_values[*j],
                    }
                };
                let a = fetch(&node.inputs[0]);
                let b = fetch(&node.inputs[1]);
                node_values.push(node.op.apply(a, b));
            }
            let result = *node_values.last().expect("non-empty block");

            // Writeback with automatic addressing; verify the compiler's
            // prediction (paper: "the compiler precisely predicts these
            // write addresses at compile time").
            let written = rf.alloc_write(instr.write_bank, result);
            if let Some(predicted) = instr.predicted_write {
                assert_eq!(
                    written, predicted,
                    "instruction {k}: hardware auto-address diverged from compiler prediction"
                );
            }
            let completion = issue + pipeline_depth;
            ready_at[register(written)] = completion;
            for &f in &instr.frees {
                rf.free(f);
                ready_at[register(f)] = 0;
            }
            if k == program.output_instr {
                output = result;
            }

            // Energy events for this issue.
            events.reg_reads += instr.reads.len() as u64;
            events.reg_writes += 1;
            events.benes_hops += instr.reads.len() as u64 * benes_stages;
            events.alu_ops += instr.nodes.len() as u64;
            events.tree_hops += instr.nodes.len() as u64;

            pe_free[pe] = issue;
            cycle = cycle.max(issue);
        }

        // Drain the pipeline.
        let total_cycles = cycle + pipeline_depth;
        events.cycles = total_cycles;
        let energy = self.energy_model.report(&events);
        ExecutionReport {
            cycles: total_cycles,
            instructions: program.instructions.len() as u64,
            raw_stall_cycles: raw_stalls,
            conflict_stall_cycles: conflict_stalls,
            output,
            events,
            energy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AblationConfig;

    /// Hand-assembles a program computing ((a+b) * (c+d)) with a = 1,
    /// b = 2, c = 3, d = 4 → 21.
    fn sum_product_program() -> VliwProgram {
        let a = BankAddr::new(0, 0);
        let b = BankAddr::new(1, 0);
        let c = BankAddr::new(2, 0);
        let d = BankAddr::new(3, 0);
        VliwProgram {
            preload: vec![(a, 1.0), (b, 2.0), (c, 3.0), (d, 4.0)],
            instructions: vec![VliwInstr {
                reads: vec![a, b, c, d],
                nodes: vec![
                    BlockNode {
                        op: TreeOp::Add,
                        inputs: [BlockOperand::Read(0), BlockOperand::Read(1)],
                    },
                    BlockNode {
                        op: TreeOp::Add,
                        inputs: [BlockOperand::Read(2), BlockOperand::Read(3)],
                    },
                    BlockNode {
                        op: TreeOp::Mul,
                        inputs: [BlockOperand::Node(0), BlockOperand::Node(1)],
                    },
                ],
                write_bank: 0,
                predicted_write: Some(BankAddr::new(0, 1)),
                frees: vec![],
            }],
            output_instr: 0,
            num_banks: 4,
            max_block_depth: 2,
        }
    }

    #[test]
    fn executes_sum_product_block() {
        let exec = VliwExecutor::new(ArchConfig::paper());
        let report = exec.execute(&sum_product_program());
        assert_eq!(report.output, 21.0);
        assert!(report.cycles > 0);
        assert!(report.energy.total_j() > 0.0);
    }

    #[test]
    fn raw_hazard_stalls_dependent_instructions() {
        // Two instructions where the second reads the first's result.
        let a = BankAddr::new(0, 0);
        let b = BankAddr::new(1, 0);
        let first_out = BankAddr::new(2, 0);
        let program = VliwProgram {
            preload: vec![(a, 2.0), (b, 3.0)],
            instructions: vec![
                VliwInstr {
                    reads: vec![a, b],
                    nodes: vec![BlockNode {
                        op: TreeOp::Add,
                        inputs: [BlockOperand::Read(0), BlockOperand::Read(1)],
                    }],
                    write_bank: 2,
                    predicted_write: Some(first_out),
                    frees: vec![],
                },
                VliwInstr {
                    reads: vec![first_out, a],
                    nodes: vec![BlockNode {
                        op: TreeOp::Mul,
                        inputs: [BlockOperand::Read(0), BlockOperand::Read(1)],
                    }],
                    write_bank: 3,
                    predicted_write: None,
                    frees: vec![],
                },
            ],
            output_instr: 1,
            num_banks: 4,
            max_block_depth: 1,
        };
        let exec = VliwExecutor::new(ArchConfig::paper());
        let report = exec.execute(&program);
        assert_eq!(report.output, 10.0);
        assert!(report.raw_stall_cycles > 0, "dependent issue must stall");
    }

    #[test]
    fn scheduling_ablation_slows_execution() {
        let mut no_sched = ArchConfig::paper();
        no_sched.ablation = AblationConfig { scheduling: false, ..AblationConfig::default() };
        let base = VliwExecutor::new(ArchConfig::paper()).execute(&sum_product_program());
        let slow = VliwExecutor::new(no_sched).execute(&sum_product_program());
        assert_eq!(base.output, slow.output, "ablation must not change results");
        assert!(slow.cycles >= base.cycles);
    }

    #[test]
    fn reconfigurability_ablation_adds_setup() {
        let mut fixed = ArchConfig::paper();
        fixed.ablation = AblationConfig { reconfigurable: false, ..AblationConfig::default() };
        let base = VliwExecutor::new(ArchConfig::paper()).execute(&sum_product_program());
        let slow = VliwExecutor::new(fixed).execute(&sum_product_program());
        assert!(slow.cycles > base.cycles);
    }

    #[test]
    fn bank_conflicts_are_counted() {
        // Four reads from one bank: dual ports ⇒ one extra cycle.
        let addrs: Vec<BankAddr> = (0..4).map(|i| BankAddr::new(0, i)).collect();
        let program = VliwProgram {
            preload: addrs.iter().map(|&a| (a, 1.0)).collect(),
            instructions: vec![VliwInstr {
                reads: addrs.clone(),
                nodes: vec![
                    BlockNode {
                        op: TreeOp::Add,
                        inputs: [BlockOperand::Read(0), BlockOperand::Read(1)],
                    },
                    BlockNode {
                        op: TreeOp::Add,
                        inputs: [BlockOperand::Read(2), BlockOperand::Read(3)],
                    },
                    BlockNode {
                        op: TreeOp::Add,
                        inputs: [BlockOperand::Node(0), BlockOperand::Node(1)],
                    },
                ],
                write_bank: 1,
                predicted_write: None,
                frees: vec![],
            }],
            output_instr: 0,
            num_banks: 2,
            max_block_depth: 2,
        };
        let exec = VliwExecutor::new(ArchConfig::paper());
        let report = exec.execute(&program);
        assert_eq!(report.output, 4.0);
        assert_eq!(report.conflict_stall_cycles, 1);
    }

    #[test]
    #[should_panic(expected = "diverged")]
    fn wrong_write_prediction_is_caught() {
        let mut program = sum_product_program();
        program.instructions[0].predicted_write = Some(BankAddr::new(0, 5));
        VliwExecutor::new(ArchConfig::paper()).execute(&program);
    }

    #[test]
    #[should_panic(expected = "forward reference")]
    fn forward_node_references_are_rejected() {
        let mut program = sum_product_program();
        // Node 0 reads node 1, which comes after it.
        program.instructions[0].nodes[0].inputs[1] = BlockOperand::Node(1);
        program.validate(&ArchConfig::paper());
    }

    #[test]
    #[should_panic(expected = "forward reference")]
    fn self_references_are_rejected() {
        let mut program = sum_product_program();
        program.instructions[0].nodes[2].inputs[0] = BlockOperand::Node(2);
        program.validate(&ArchConfig::paper());
    }

    #[test]
    #[should_panic(expected = "outside the register file")]
    fn reads_past_a_bank_are_rejected() {
        let mut program = sum_product_program();
        let regs = ArchConfig::paper().regs_per_bank;
        program.instructions[0].reads[1] = BankAddr::new(0, regs);
        program.validate(&ArchConfig::paper());
    }

    #[test]
    fn reused_register_stalls_its_reader_on_the_new_producer() {
        // Instruction 0 writes bank 2 and instruction 1 frees that
        // register; instruction 2 reuses the address. Instruction 3 reads
        // it and waits for instruction 2.
        let a = BankAddr::new(0, 0);
        let b = BankAddr::new(1, 0);
        let out = BankAddr::new(2, 0);
        let add = |reads: Vec<BankAddr>, write_bank, frees| VliwInstr {
            reads,
            nodes: vec![BlockNode {
                op: TreeOp::Add,
                inputs: [BlockOperand::Read(0), BlockOperand::Read(1)],
            }],
            write_bank,
            predicted_write: None,
            frees,
        };
        let program = VliwProgram {
            preload: vec![(a, 2.0), (b, 3.0)],
            instructions: vec![
                add(vec![a, b], 2, vec![]),
                add(vec![out, a], 3, vec![out]),
                add(vec![b, b], 2, vec![]),
                add(vec![out, a], 3, vec![]),
            ],
            output_instr: 3,
            num_banks: 4,
            max_block_depth: 1,
        };
        let mut one_pe = ArchConfig::paper();
        one_pe.num_pes = 1;
        let report = VliwExecutor::new(one_pe).execute(&program);
        assert_eq!(report.output, 8.0);
        // Issues at 1, 6 (RAW on 0), 7, 12 (RAW on 2): two stalls of
        // pipeline_depth - 1 cycles each.
        let depth = one_pe.pipeline_depth() as u64;
        assert_eq!(report.raw_stall_cycles, 2 * (depth - 1));
        assert_eq!(report.cycles, 2 + 2 * depth + depth);
    }

    #[test]
    fn block_depth_computed() {
        let program = sum_product_program();
        assert_eq!(program.instructions[0].block_depth(), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds tree depth")]
    fn too_deep_blocks_rejected() {
        let mut program = sum_product_program();
        program.max_block_depth = 9;
        VliwExecutor::new(ArchConfig::paper()).execute(&program);
    }
}
