//! Architectural configuration (paper Sec. V-F).

use serde::{Deserialize, Serialize};

use crate::energy::TechNode;
use crate::mem::MAX_LOCATIONS;

/// REASON architecture parameters.
///
/// The paper's design-space exploration selects `D = 3`, `B = 64`,
/// `R = 32` with 12 tree PEs (Fig. 10: 12 PEs / 80 nodes, 1.25 MB SRAM,
/// 500 MHz); [`ArchConfig::paper`] reproduces that design point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArchConfig {
    /// Tree depth D: each PE tree has `2^(D-1)` leaves and `2^D - 1`
    /// compute nodes.
    pub tree_depth: usize,
    /// Number of parallel register banks B.
    pub num_banks: usize,
    /// Registers per bank R.
    pub regs_per_bank: usize,
    /// Number of tree PEs.
    pub num_pes: usize,
    /// Shared local SRAM in KiB.
    pub sram_kib: usize,
    /// Clock frequency in MHz.
    pub freq_mhz: u32,
    /// Technology node.
    pub tech: TechNode,
    /// Ablation switches.
    pub ablation: AblationConfig,
}

/// Switches disabling individual hardware techniques, for the Sec. VII-C
/// ablation ("w/o scheduling / reconfigurable array / bank mapping").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AblationConfig {
    /// Pipeline-aware instruction scheduling (off → every instruction
    /// waits for the full pipeline to drain).
    pub scheduling: bool,
    /// Reconfigurable datapath (off → mode switches flush the pipeline and
    /// cost a reconfiguration penalty per kernel).
    pub reconfigurable: bool,
    /// Conflict-aware register-bank mapping (off → operands land in
    /// banks round-robin, so dual-port conflicts occur).
    pub bank_mapping: bool,
    /// Linked-list watched-literal memory layout (off → BCP scans the
    /// whole clause database).
    pub wl_memory_layout: bool,
}

impl Default for AblationConfig {
    fn default() -> Self {
        AblationConfig {
            scheduling: true,
            reconfigurable: true,
            bank_mapping: true,
            wl_memory_layout: true,
        }
    }
}

impl ArchConfig {
    /// The paper's chosen design point (Fig. 10 / Sec. V-F).
    pub fn paper() -> Self {
        ArchConfig {
            tree_depth: 3,
            num_banks: 64,
            regs_per_bank: 32,
            num_pes: 12,
            sram_kib: 1280,
            freq_mhz: 500,
            tech: TechNode::N28,
            ablation: AblationConfig::default(),
        }
    }

    /// The DPU-like baseline template of Table III (8 PEs / 56 nodes,
    /// fixed dataflow — used by `reason-sim`'s DPU model).
    pub fn dpu_like() -> Self {
        ArchConfig {
            tree_depth: 3,
            num_banks: 32,
            regs_per_bank: 32,
            num_pes: 8,
            sram_kib: 2400,
            freq_mhz: 500,
            tech: TechNode::N28,
            ablation: AblationConfig { reconfigurable: false, ..AblationConfig::default() },
        }
    }

    /// Compute nodes per PE tree (`2^D - 1`).
    pub fn nodes_per_pe(&self) -> usize {
        (1 << self.tree_depth) - 1
    }

    /// Leaves per PE tree (`2^(D-1)`).
    pub fn leaves_per_pe(&self) -> usize {
        1 << (self.tree_depth - 1)
    }

    /// Total compute nodes across PEs.
    pub fn total_nodes(&self) -> usize {
        self.num_pes * self.nodes_per_pe()
    }

    /// Pipeline depth in cycles for one block issue: operand fetch,
    /// `D` tree levels, writeback.
    pub fn pipeline_depth(&self) -> usize {
        self.tree_depth + 2
    }

    /// Total register-file capacity (words).
    pub fn regfile_words(&self) -> usize {
        self.num_banks * self.regs_per_bank
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero, `num_banks` is not a power of
    /// two (the Benes network requires it), or `num_banks` or
    /// `regs_per_bank` exceeds 65,536 (a register location is a 16-bit
    /// bank and a 16-bit address).
    pub fn validate(&self) {
        assert!(self.tree_depth >= 1, "tree depth must be at least 1");
        assert!(self.num_banks.is_power_of_two(), "bank count must be a power of two");
        assert!(self.regs_per_bank >= 1, "need at least one register per bank");
        assert!(
            self.num_banks <= MAX_LOCATIONS && self.regs_per_bank <= MAX_LOCATIONS,
            "at most {MAX_LOCATIONS} banks of {MAX_LOCATIONS} registers fit 16-bit locations"
        );
        assert!(self.num_pes >= 1, "need at least one PE");
        assert!(self.freq_mhz > 0, "frequency must be positive");
    }
}

impl Default for ArchConfig {
    fn default() -> Self {
        ArchConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_design_point_matches_fig10() {
        let c = ArchConfig::paper();
        c.validate();
        assert_eq!(c.tree_depth, 3);
        assert_eq!(c.num_banks, 64);
        assert_eq!(c.regs_per_bank, 32);
        assert_eq!(c.num_pes, 12);
        assert_eq!(c.freq_mhz, 500);
        // 12 PEs x 7 nodes = 84 compute nodes (the paper rounds its count
        // to 80 after floorplanning).
        assert_eq!(c.total_nodes(), 84);
        assert_eq!(c.leaves_per_pe(), 4);
    }

    #[test]
    fn dpu_baseline_matches_table3() {
        let c = ArchConfig::dpu_like();
        c.validate();
        assert_eq!(c.num_pes, 8);
        assert_eq!(c.total_nodes(), 56);
        assert!(!c.ablation.reconfigurable);
    }

    #[test]
    fn derived_quantities() {
        let c = ArchConfig::paper();
        assert_eq!(c.pipeline_depth(), 5);
        assert_eq!(c.regfile_words(), 64 * 32);
    }

    /// Register 65,536 of a 65,537-register bank would be `BankAddr`
    /// address 0 once truncated to 16 bits, silently overwriting it.
    #[test]
    #[should_panic(expected = "16-bit locations")]
    fn rejects_banks_deeper_than_a_16_bit_address() {
        let mut c = ArchConfig::paper();
        c.regs_per_bank = 65_537;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "16-bit locations")]
    fn rejects_more_banks_than_a_16_bit_index() {
        let mut c = ArchConfig::paper();
        c.num_banks = 1 << 17;
        c.validate();
    }

    #[test]
    fn accepts_the_largest_16_bit_register_file() {
        let mut c = ArchConfig::paper();
        c.num_banks = 1 << 16;
        c.regs_per_bank = 1 << 16;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_banks() {
        let mut c = ArchConfig::paper();
        c.num_banks = 48;
        c.validate();
    }
}
