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
//!
//! A [`VliwProgram`] is a fixed number of flat arrays — every
//! instruction's reads, nodes and frees back to back with per-instruction
//! offsets, one write bank and one predicted write per instruction — so
//! building, cloning, validating and executing one allocates a constant
//! number of times whatever its length. Instructions are appended with
//! [`VliwProgram::push`] and read back as borrowed [`Instruction`] views.

use serde::{Deserialize, Serialize};

use crate::config::ArchConfig;
use crate::energy::{EnergyEvents, EnergyModel, EnergyReport};
use crate::mem::{BankAddr, RegisterBanks};
use crate::tree::TreeOp;

/// An operand of a block node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockOperand {
    /// The `i`-th entry of the instruction's read list.
    Read(u32),
    /// The result of an earlier node in the same block.
    Node(u32),
}

/// One two-input compute node inside a block.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockNode {
    /// The operation.
    pub op: TreeOp,
    /// Left and right operands (`Not`/`Pass` use only the left).
    pub inputs: [BlockOperand; 2],
}

/// One VLIW instruction, borrowed from its [`VliwProgram`]: a register
/// read set, a block of tree ops, and a writeback bank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instruction<'a> {
    /// Register locations read this issue.
    pub reads: &'a [BankAddr],
    /// Block nodes in topological order; the last node is the block root.
    pub nodes: &'a [BlockNode],
    /// Bank receiving the block result (one-bank-one-PE writeback).
    pub write_bank: usize,
    /// Compiler-predicted write location, checked against the hardware's
    /// automatic addressing at runtime.
    pub predicted_write: Option<BankAddr>,
    /// Registers whose live ranges end after this instruction.
    pub frees: &'a [BankAddr],
}

/// A complete program for one kernel.
///
/// The instruction stream is flat: one array each of reads, nodes and
/// frees holding every instruction's entries back to back, with
/// per-instruction start offsets (instruction `k`'s reads are
/// `reads[read_starts[k]..read_starts[k + 1]]`), plus one write bank and
/// one predicted write per instruction. [`push`](Self::push) appends an
/// instruction and [`instructions`](Self::instructions) lends each back
/// as an [`Instruction`] view, so a program is a fixed number of arrays
/// whatever its length, and cloning one clones that many.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VliwProgram {
    /// Values preloaded into the register file before execution
    /// (constants and kernel inputs).
    pub preload: Vec<(BankAddr, f64)>,
    read_starts: Vec<u32>,
    reads: Vec<BankAddr>,
    node_starts: Vec<u32>,
    nodes: Vec<BlockNode>,
    free_starts: Vec<u32>,
    frees: Vec<BankAddr>,
    write_banks: Vec<u16>,
    predicted_writes: Vec<Option<BankAddr>>,
    /// Index of the instruction whose result is the kernel output.
    pub output_instr: usize,
    /// Banks in the register file this program was compiled for.
    pub num_banks: usize,
    /// Maximum block depth (must not exceed the PE tree depth).
    pub max_block_depth: usize,
}

/// Appends `len` to a start-offset array.
fn push_start(starts: &mut Vec<u32>, len: usize) {
    starts.push(u32::try_from(len).expect("a program holds fewer than 2^32 entries per field"));
}

/// The longest range of a start-offset array: the most entries any one
/// instruction has in that field.
fn widest(starts: &[u32]) -> usize {
    starts.windows(2).map(|w| (w[1] - w[0]) as usize).max().unwrap_or(0)
}

impl VliwProgram {
    /// An empty program for a `num_banks`-bank register file whose
    /// blocks are at most `max_block_depth` deep, with room for
    /// `instructions` instructions holding `reads`, `nodes` and `frees`
    /// entries in total. Nothing is preloaded and the output is
    /// instruction 0 until the caller sets `preload` and `output_instr`.
    pub fn with_capacity(
        num_banks: usize,
        max_block_depth: usize,
        [instructions, reads, nodes, frees]: [usize; 4],
    ) -> Self {
        let starts = || {
            let mut starts = Vec::with_capacity(instructions + 1);
            starts.push(0);
            starts
        };
        VliwProgram {
            preload: Vec::new(),
            read_starts: starts(),
            reads: Vec::with_capacity(reads),
            node_starts: starts(),
            nodes: Vec::with_capacity(nodes),
            free_starts: starts(),
            frees: Vec::with_capacity(frees),
            write_banks: Vec::with_capacity(instructions),
            predicted_writes: Vec::with_capacity(instructions),
            output_instr: 0,
            num_banks,
            max_block_depth,
        }
    }

    /// Appends an instruction, returning its index.
    ///
    /// # Panics
    ///
    /// Panics if `instr.write_bank` does not fit a 16-bit bank index.
    pub fn push(&mut self, instr: Instruction<'_>) -> usize {
        let k = self.write_banks.len();
        self.reads.extend_from_slice(instr.reads);
        push_start(&mut self.read_starts, self.reads.len());
        self.nodes.extend_from_slice(instr.nodes);
        push_start(&mut self.node_starts, self.nodes.len());
        self.frees.extend_from_slice(instr.frees);
        push_start(&mut self.free_starts, self.frees.len());
        self.write_banks.push(u16::try_from(instr.write_bank).expect("a bank index fits 16 bits"));
        self.predicted_writes.push(instr.predicted_write);
        k
    }

    /// Instruction `k`.
    fn instruction(&self, k: usize) -> Instruction<'_> {
        let range = |starts: &[u32]| starts[k] as usize..starts[k + 1] as usize;
        Instruction {
            reads: &self.reads[range(&self.read_starts)],
            nodes: &self.nodes[range(&self.node_starts)],
            write_bank: usize::from(self.write_banks[k]),
            predicted_write: self.predicted_writes[k],
            frees: &self.frees[range(&self.free_starts)],
        }
    }

    /// The instruction stream in issue order.
    pub fn instructions(&self) -> impl ExactSizeIterator<Item = Instruction<'_>> {
        (0..self.write_banks.len()).map(move |k| self.instruction(k))
    }

    /// Static validation against an architecture.
    ///
    /// # Panics
    ///
    /// Panics when the program is incompatible with `config` (bank count,
    /// block depth, a location outside the register file) or
    /// self-inconsistent (operand indices out of range, a node reading a
    /// node that is not strictly before it).
    fn validate(&self, config: &ArchConfig) {
        assert!(self.num_banks <= config.num_banks, "program uses too many banks");
        assert!(
            self.max_block_depth <= config.tree_depth,
            "block depth {} exceeds tree depth {}",
            self.max_block_depth,
            config.tree_depth
        );
        assert!(self.output_instr < self.write_banks.len(), "output index out of range");
        let in_regfile = |at: &BankAddr| {
            (at.bank as usize) < config.num_banks && (at.addr as usize) < config.regs_per_bank
        };
        assert!(self.preload.iter().all(|(at, _)| in_regfile(at)), "preload outside register file");
        // Per node of the instruction being checked: its pipeline depth
        // (longest node chain ending there); one buffer for the program.
        let mut depth: Vec<usize> = Vec::with_capacity(widest(&self.node_starts));
        for (k, instr) in self.instructions().enumerate() {
            assert!(!instr.nodes.is_empty(), "instruction {k} has no nodes");
            assert!(
                instr.reads.iter().chain(instr.frees).all(in_regfile),
                "instruction {k} names a location outside the register file"
            );
            depth.clear();
            for (pos, node) in instr.nodes.iter().enumerate() {
                let mut d = 0;
                for op in &node.inputs {
                    match *op {
                        BlockOperand::Read(i) => assert!(
                            (i as usize) < instr.reads.len(),
                            "instruction {k} read out of range"
                        ),
                        BlockOperand::Node(j) => {
                            assert!(
                                (j as usize) < pos,
                                "instruction {k} node {pos} has forward reference to node {j}"
                            );
                            d = d.max(depth[j as usize] + 1);
                        }
                    }
                }
                depth.push(d);
            }
            let block_depth = depth.last().map_or(0, |d| d + 1);
            assert!(block_depth <= self.max_block_depth, "instruction {k} too deep");
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
        // Block-evaluation buffers, sized for the widest instruction and
        // reused across instructions.
        let mut operand_values: Vec<f64> = Vec::with_capacity(widest(&program.read_starts));
        let mut node_values: Vec<f64> = Vec::with_capacity(widest(&program.node_starts));
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

        for (k, instr) in program.instructions().enumerate() {
            // Issue constraints: the assigned PE must be free...
            let pe = k % pe_free.len();
            let mut issue = pe_free[pe] + 1;
            if self.config.ablation.scheduling {
                // ...and RAW hazards require operands written back.
                for &r in instr.reads {
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
            let conflict = rf.conflict_penalty(instr.reads);
            conflict_stalls += conflict;
            let issue = issue + conflict;

            // Functional evaluation of the block.
            operand_values.clear();
            operand_values.extend(instr.reads.iter().map(|&r| rf.read(r)));
            node_values.clear();
            for node in instr.nodes {
                let fetch = |op: &BlockOperand| -> f64 {
                    match op {
                        BlockOperand::Read(i) => operand_values[*i as usize],
                        BlockOperand::Node(j) => node_values[*j as usize],
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
            for &f in instr.frees {
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
            instructions: program.instructions().len() as u64,
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

    /// A program of `instructions`.
    fn assemble(
        preload: Vec<(BankAddr, f64)>,
        instructions: &[Instruction<'_>],
        output_instr: usize,
        num_banks: usize,
        max_block_depth: usize,
    ) -> VliwProgram {
        let mut program = VliwProgram::with_capacity(num_banks, max_block_depth, [0; 4]);
        program.preload = preload;
        for &instr in instructions {
            program.push(instr);
        }
        program.output_instr = output_instr;
        program
    }

    fn instr<'a>(
        reads: &'a [BankAddr],
        nodes: &'a [BlockNode],
        write_bank: usize,
        predicted_write: Option<BankAddr>,
        frees: &'a [BankAddr],
    ) -> Instruction<'a> {
        Instruction { reads, nodes, write_bank, predicted_write, frees }
    }

    fn node(op: TreeOp, a: BlockOperand, b: BlockOperand) -> BlockNode {
        BlockNode { op, inputs: [a, b] }
    }

    use BlockOperand::{Node, Read};

    /// Hand-assembles a program computing ((a+b) * (c+d)) with a = 1,
    /// b = 2, c = 3, d = 4 → 21.
    fn sum_product_program() -> VliwProgram {
        let a = BankAddr::new(0, 0);
        let b = BankAddr::new(1, 0);
        let c = BankAddr::new(2, 0);
        let d = BankAddr::new(3, 0);
        let nodes = [
            node(TreeOp::Add, Read(0), Read(1)),
            node(TreeOp::Add, Read(2), Read(3)),
            node(TreeOp::Mul, Node(0), Node(1)),
        ];
        assemble(
            vec![(a, 1.0), (b, 2.0), (c, 3.0), (d, 4.0)],
            &[instr(&[a, b, c, d], &nodes, 0, Some(BankAddr::new(0, 1)), &[])],
            0,
            4,
            2,
        )
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
    fn instructions_read_back_as_pushed() {
        let program = sum_product_program();
        let instrs: Vec<Instruction<'_>> = program.instructions().collect();
        assert_eq!(instrs.len(), 1);
        assert_eq!(instrs[0].reads.len(), 4);
        assert_eq!(instrs[0].nodes[2], node(TreeOp::Mul, Node(0), Node(1)));
        assert_eq!(instrs[0].write_bank, 0);
        assert_eq!(instrs[0].predicted_write, Some(BankAddr::new(0, 1)));
        assert!(instrs[0].frees.is_empty());
    }

    #[test]
    fn raw_hazard_stalls_dependent_instructions() {
        // Two instructions where the second reads the first's result.
        let a = BankAddr::new(0, 0);
        let b = BankAddr::new(1, 0);
        let first_out = BankAddr::new(2, 0);
        let program = assemble(
            vec![(a, 2.0), (b, 3.0)],
            &[
                instr(&[a, b], &[node(TreeOp::Add, Read(0), Read(1))], 2, Some(first_out), &[]),
                instr(&[first_out, a], &[node(TreeOp::Mul, Read(0), Read(1))], 3, None, &[]),
            ],
            1,
            4,
            1,
        );
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
        let nodes = [
            node(TreeOp::Add, Read(0), Read(1)),
            node(TreeOp::Add, Read(2), Read(3)),
            node(TreeOp::Add, Node(0), Node(1)),
        ];
        let program = assemble(
            addrs.iter().map(|&a| (a, 1.0)).collect(),
            &[instr(&addrs, &nodes, 1, None, &[])],
            0,
            2,
            2,
        );
        let exec = VliwExecutor::new(ArchConfig::paper());
        let report = exec.execute(&program);
        assert_eq!(report.output, 4.0);
        assert_eq!(report.conflict_stall_cycles, 1);
    }

    #[test]
    #[should_panic(expected = "diverged")]
    fn wrong_write_prediction_is_caught() {
        let mut program = sum_product_program();
        program.predicted_writes[0] = Some(BankAddr::new(0, 5));
        VliwExecutor::new(ArchConfig::paper()).execute(&program);
    }

    #[test]
    #[should_panic(expected = "forward reference")]
    fn forward_node_references_are_rejected() {
        let mut program = sum_product_program();
        // Node 0 reads node 1, which comes after it.
        program.nodes[0].inputs[1] = Node(1);
        program.validate(&ArchConfig::paper());
    }

    #[test]
    #[should_panic(expected = "forward reference")]
    fn self_references_are_rejected() {
        let mut program = sum_product_program();
        program.nodes[2].inputs[0] = Node(2);
        program.validate(&ArchConfig::paper());
    }

    #[test]
    #[should_panic(expected = "outside the register file")]
    fn reads_past_a_bank_are_rejected() {
        let mut program = sum_product_program();
        let regs = ArchConfig::paper().regs_per_bank;
        program.reads[1] = BankAddr::new(0, regs);
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
        let add = [node(TreeOp::Add, Read(0), Read(1))];
        let program = assemble(
            vec![(a, 2.0), (b, 3.0)],
            &[
                instr(&[a, b], &add, 2, None, &[]),
                instr(&[out, a], &add, 3, None, &[out]),
                instr(&[b, b], &add, 2, None, &[]),
                instr(&[out, a], &add, 3, None, &[]),
            ],
            3,
            4,
            1,
        );
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
        // The sum-product block chains two levels, exactly its declared
        // depth.
        let program = sum_product_program();
        assert_eq!(program.max_block_depth, 2);
        program.validate(&ArchConfig::paper());
    }

    #[test]
    #[should_panic(expected = "instruction 0 too deep")]
    fn an_understated_block_depth_is_rejected() {
        let mut program = sum_product_program();
        program.max_block_depth = 1;
        program.validate(&ArchConfig::paper());
    }

    #[test]
    #[should_panic(expected = "exceeds tree depth")]
    fn too_deep_blocks_rejected() {
        let mut program = sum_product_program();
        program.max_block_depth = 9;
        VliwExecutor::new(ArchConfig::paper()).execute(&program);
    }
}
