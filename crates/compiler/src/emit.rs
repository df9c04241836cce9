//! Program emission: registers, live ranges, and VLIW encoding.
//!
//! Emission runs a compile-time mirror of the hardware register allocator
//! (same lowest-free policy, same alloc/free order), so every
//! instruction's write location is *predicted* exactly and checked by the
//! executor at runtime. Live-range analysis attaches register frees to
//! the last reader so long kernels recycle the register file.
//!
//! Every per-value table here (`location`, `last_use`, the block-local
//! operand encoding) is a `Vec` indexed by [`NodeId::index`], and the
//! mirror keeps its own per-bank live counts, so emission is linear in
//! the DAG plus O(banks) per instruction only when a preferred bank is
//! full.

use reason_arch::{
    ArchConfig, BankAddr, BlockNode, BlockOperand, RegisterBanks, TreeOp, VliwInstr, VliwProgram,
};
use reason_core::{Dag, DagOp, NodeId};

use crate::blocks::BlockDecomposition;
use crate::mapping::BankAssignment;
use crate::CompileError;

/// Compilation statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileReport {
    /// Blocks produced by decomposition.
    pub blocks: usize,
    /// Instructions emitted (= blocks, plus a pass-through for degenerate
    /// outputs).
    pub instructions: usize,
    /// Total register reads across instructions.
    pub reads: usize,
    /// Deepest block.
    pub max_block_depth: usize,
    /// Peak live registers during the compile-time allocator mirror.
    pub peak_live_registers: usize,
}

/// A compiled kernel: a program template with constants baked in and
/// input locations bound per invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKernel {
    template: VliwProgram,
    /// (input slot, register location) pairs.
    input_slots: Vec<(u32, BankAddr)>,
    /// Compilation statistics.
    pub report: CompileReport,
}

impl CompiledKernel {
    /// The program template (constants preloaded, inputs unbound).
    #[cfg(test)]
    fn template(&self) -> &VliwProgram {
        &self.template
    }

    /// Number of input slots the kernel expects.
    pub fn num_inputs(&self) -> usize {
        self.input_slots.iter().map(|&(s, _)| s as usize + 1).max().unwrap_or(0)
    }

    /// Analytic no-stall cycle bound for this kernel on `config`.
    ///
    /// Models the executor's ideal schedule: instructions issue
    /// round-robin across the tree PEs one cycle apart, the pipeline
    /// drains once at the end, and a non-reconfigurable datapath pays
    /// its mode-configuration penalty up front. The cycle-accurate
    /// [`reason_arch::VliwExecutor`] can only *add* RAW-hazard and
    /// bank-conflict stalls on top of that schedule (its VLIW timing is
    /// data-independent otherwise), so for every input binding
    /// `predicted_cycles(config) <= ExecutionReport::cycles`, with
    /// equality exactly when nothing stalls.
    pub fn predicted_cycles(&self, config: &ArchConfig) -> u64 {
        let pipeline_depth = config.pipeline_depth() as u64;
        let reconfig = if config.ablation.reconfigurable {
            0
        } else {
            2 * pipeline_depth + config.total_nodes() as u64
        };
        let n = self.template.instructions.len() as u64;
        let pes = config.num_pes.max(1) as u64;
        reconfig + n.div_ceil(pes) + pipeline_depth
    }

    /// Binds input values (indexed by slot) into an executable program.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is shorter than the highest input slot.
    pub fn program(&self, inputs: &[f64]) -> VliwProgram {
        let mut program = self.template.clone();
        for &(slot, at) in &self.input_slots {
            assert!(
                (slot as usize) < inputs.len(),
                "kernel expects input slot {slot} but only {} values given",
                inputs.len()
            );
            program.preload.push((at, inputs[slot as usize]));
        }
        program
    }
}

fn tree_op(op: DagOp) -> TreeOp {
    match op {
        DagOp::Add => TreeOp::Add,
        DagOp::Mul => TreeOp::Mul,
        DagOp::Max => TreeOp::Max,
        DagOp::Not => TreeOp::Not,
        DagOp::Input(_) | DagOp::Const(_) => TreeOp::Pass,
    }
}

/// Emits the final program.
pub(crate) fn emit_program(
    dag: &Dag,
    decomposition: &BlockDecomposition,
    order: &[usize],
    banks: &BankAssignment,
    config: &ArchConfig,
) -> Result<CompiledKernel, CompileError> {
    let n = dag.num_nodes();
    let mut mirror = RegisterBanks::new(config.num_banks, config.regs_per_bank);
    // Register holding each value, once materialized.
    let mut location: Vec<Option<BankAddr>> = vec![None; n];
    let mut preload: Vec<(BankAddr, f64)> = Vec::new();
    let mut input_slots: Vec<(u32, BankAddr)> = Vec::new();

    // Allocate inputs and constants first (the runtime preload phase).
    for (i, node) in dag.nodes().enumerate() {
        let id = NodeId::from_index(i);
        match node.op {
            DagOp::Const(c) => {
                let at = alloc(&mut mirror, banks.bank_of(id), config)?;
                preload.push((at, c));
                location[i] = Some(at);
            }
            DagOp::Input(slot) => {
                let at = alloc(&mut mirror, banks.bank_of(id), config)?;
                input_slots.push((slot, at));
                location[i] = Some(at);
            }
            _ => {}
        }
    }

    // Last-use analysis over the scheduled instruction order.
    // Instruction k reads the operands of block order[k].
    let mut last_use = vec![usize::MAX; n];
    for (k, &bi) in order.iter().enumerate() {
        for op in &decomposition.blocks[bi].operands {
            last_use[op.index()] = k;
        }
    }

    let mut instructions: Vec<VliwInstr> = Vec::with_capacity(order.len());
    let mut output_instr: Option<usize> = None;
    let mut total_reads = 0usize;
    let mut max_depth = 0usize;
    let mut peak_live = 0usize;
    // How the current block's nodes fetch each DAG node: its operands as
    // `Read`, its members as `Node`. A member's children are all one or
    // the other, so entries left by earlier blocks are never consulted.
    let mut fetch = vec![BlockOperand::Read(usize::MAX); n];

    for (k, &bi) in order.iter().enumerate() {
        let block = &decomposition.blocks[bi];
        max_depth = max_depth.max(block.depth);

        // Reads: one per distinct operand.
        let reads: Vec<BankAddr> = block
            .operands
            .iter()
            .map(|op| {
                location[op.index()].unwrap_or_else(|| panic!("operand {op} not yet materialized"))
            })
            .collect();
        total_reads += reads.len();
        for (i, op) in block.operands.iter().enumerate() {
            fetch[op.index()] = BlockOperand::Read(i);
        }
        for (j, m) in block.members.iter().enumerate() {
            fetch[m.index()] = BlockOperand::Node(j);
        }

        // Encode block nodes in intra-block topological order.
        let nodes: Vec<BlockNode> = block
            .members
            .iter()
            .map(|m| {
                let dnode = dag.node(*m);
                let inputs = match *dnode.children {
                    [x] => [fetch[x.index()]; 2],
                    [x, y] => [fetch[x.index()], fetch[y.index()]],
                    _ => unreachable!("two-input regular DAG has fan-in {}", dnode.children.len()),
                };
                // Single-child associative ops are identity passes.
                let op = if dnode.children.len() == 1 && dnode.op.is_associative() {
                    TreeOp::Pass
                } else {
                    tree_op(dnode.op)
                };
                BlockNode { op, inputs }
            })
            .collect();

        // Writeback: the mirror allocator predicts the hardware address.
        let write_bank = pick_bank_with_space(&mirror, banks.bank_of(block.root), config)?;
        let predicted = mirror.alloc_write(write_bank, 0.0);
        location[block.root.index()] = Some(predicted);

        // Frees: values whose last use is this instruction (never the
        // kernel output).
        let mut frees: Vec<BankAddr> = Vec::new();
        for (op, &at) in block.operands.iter().zip(&reads) {
            if last_use[op.index()] == k && *op != dag.output() {
                mirror.free(at);
                frees.push(at);
            }
        }

        peak_live = peak_live.max(mirror.live_registers());
        if block.root == dag.output() {
            output_instr = Some(instructions.len());
        }
        instructions.push(VliwInstr {
            reads,
            nodes,
            write_bank,
            predicted_write: Some(predicted),
            frees,
        });
    }

    // Degenerate DAG: output is an input or constant — emit a pass block.
    let output_instr = match output_instr {
        Some(k) => k,
        None => {
            let at = location[dag.output().index()].expect("sources are preloaded");
            let write_bank = pick_bank_with_space(&mirror, at.bank as usize, config)?;
            let predicted = mirror.alloc_write(write_bank, 0.0);
            instructions.push(VliwInstr {
                reads: vec![at],
                nodes: vec![BlockNode {
                    op: TreeOp::Pass,
                    inputs: [BlockOperand::Read(0), BlockOperand::Read(0)],
                }],
                write_bank,
                predicted_write: Some(predicted),
                frees: vec![],
            });
            total_reads += 1;
            instructions.len() - 1
        }
    };

    let max_block_depth = max_depth.max(1);
    let template = VliwProgram {
        preload,
        instructions,
        output_instr,
        num_banks: config.num_banks,
        max_block_depth,
    };
    let report = CompileReport {
        blocks: decomposition.blocks.len(),
        instructions: template.instructions.len(),
        reads: total_reads,
        max_block_depth,
        peak_live_registers: peak_live,
    };
    Ok(CompiledKernel { template, input_slots, report })
}

/// Allocates in the preferred bank, falling back to the emptiest bank
/// with space.
fn alloc(
    mirror: &mut RegisterBanks,
    preferred: usize,
    config: &ArchConfig,
) -> Result<BankAddr, CompileError> {
    let bank = pick_bank_with_space(mirror, preferred, config)?;
    Ok(mirror.alloc_write(bank, 0.0))
}

fn pick_bank_with_space(
    mirror: &RegisterBanks,
    preferred: usize,
    config: &ArchConfig,
) -> Result<usize, CompileError> {
    let occupancy = mirror.occupancy();
    if occupancy[preferred] < config.regs_per_bank {
        return Ok(preferred);
    }
    occupancy
        .iter()
        .enumerate()
        .filter(|&(_, &o)| o < config.regs_per_bank)
        .min_by_key(|&(_, &o)| o)
        .map(|(k, _)| k)
        .ok_or(CompileError::RegisterOverflow { capacity: config.regfile_words() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReasonCompiler;
    use reason_arch::VliwExecutor;
    use reason_core::{dag_from_cnf, regularize};
    use reason_sat::gen::random_ksat;

    #[test]
    fn report_counts_are_consistent() {
        let cnf = random_ksat(10, 40, 3, 8);
        let (dag, _) = dag_from_cnf(&cnf);
        let dag = regularize(&dag);
        let config = ArchConfig::paper();
        let kernel = ReasonCompiler::new(config).compile(&dag).unwrap();
        assert_eq!(kernel.report.instructions, kernel.template().instructions.len());
        assert!(kernel.report.max_block_depth <= config.tree_depth);
        assert!(kernel.report.peak_live_registers <= config.regfile_words());
        assert_eq!(kernel.num_inputs(), 10);
    }

    #[test]
    fn register_recycling_keeps_small_footprint() {
        // A long chain should keep a tiny live set thanks to frees.
        let mut b = reason_core::DagBuilder::without_cse();
        let mut cur = b.input(0);
        for _ in 0..200 {
            cur = b.node(DagOp::Not, &[cur], reason_core::NodeKind::Generic);
        }
        let dag = b.build(cur).unwrap();
        let config = ArchConfig::paper();
        let kernel = ReasonCompiler::new(config).compile(&dag).unwrap();
        assert!(
            kernel.report.peak_live_registers < 20,
            "chain should recycle registers, peak {}",
            kernel.report.peak_live_registers
        );
        // And still compute correctly: 200 NOTs = identity.
        let report = VliwExecutor::new(config).execute(&kernel.program(&[1.0]));
        assert_eq!(report.output, 1.0);
    }

    #[test]
    fn predicted_cycles_lower_bound_the_executor() {
        let config = ArchConfig::paper();
        let cnf = random_ksat(10, 40, 3, 8);
        let (dag, _) = dag_from_cnf(&cnf);
        let dag = regularize(&dag);
        let kernel = ReasonCompiler::new(config).compile(&dag).unwrap();
        let predicted = kernel.predicted_cycles(&config);
        assert!(predicted > 0);
        let exec = VliwExecutor::new(config);
        for bits in [0u32, 0b1010101010, 0b1111111111] {
            let inputs: Vec<f64> = (0..10).map(|v| f64::from(bits >> v & 1)).collect();
            let report = exec.execute(&kernel.program(&inputs));
            assert!(
                predicted <= report.cycles,
                "no-stall bound {predicted} exceeds measured {} cycles",
                report.cycles
            );
        }

        // A non-reconfigurable datapath pays its setup penalty in the
        // bound too, and stays a lower bound.
        let mut fixed = config;
        fixed.ablation.reconfigurable = false;
        let fixed_kernel = ReasonCompiler::new(fixed).compile(&dag).unwrap();
        let fixed_predicted = fixed_kernel.predicted_cycles(&fixed);
        assert!(fixed_predicted > predicted);
        let report = VliwExecutor::new(fixed).execute(&fixed_kernel.program(&[1.0; 10]));
        assert!(fixed_predicted <= report.cycles);
    }

    #[test]
    fn predicted_cycles_exact_on_stall_free_kernels() {
        // A single-instruction kernel cannot stall: the bound is tight.
        let mut b = reason_core::DagBuilder::new();
        let x = b.input(0);
        let y = b.input(1);
        let sum = b.node(DagOp::Add, &[x, y], reason_core::NodeKind::Generic);
        let dag = b.build(sum).unwrap();
        let config = ArchConfig::paper();
        let kernel = ReasonCompiler::new(config).compile(&dag).unwrap();
        let report = VliwExecutor::new(config).execute(&kernel.program(&[2.0, 3.0]));
        assert_eq!(report.output, 5.0);
        assert_eq!(kernel.predicted_cycles(&config), report.cycles);
    }

    #[test]
    fn small_register_file_overflows_cleanly() {
        // Many simultaneously live values on a tiny register file.
        let mut b = reason_core::DagBuilder::without_cse();
        let inputs: Vec<_> = (0..64).map(|i| b.input(i)).collect();
        // Pairwise products, all live until the end.
        let mut layer: Vec<_> = inputs
            .chunks(2)
            .map(|p| b.node(DagOp::Mul, &[p[0], p[1]], reason_core::NodeKind::Generic))
            .collect();
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|p| {
                    if p.len() == 2 {
                        b.node(DagOp::Add, &[p[0], p[1]], reason_core::NodeKind::Generic)
                    } else {
                        p[0]
                    }
                })
                .collect();
        }
        let dag = b.build(layer[0]).unwrap();
        let mut tiny = ArchConfig::paper();
        tiny.num_banks = 2;
        tiny.regs_per_bank = 4;
        let result = ReasonCompiler::new(tiny).compile(&dag);
        assert!(matches!(result, Err(CompileError::RegisterOverflow { .. })));
    }
}
