//! Event-based energy, power, and area model with technology scaling.
//!
//! Calibration anchors come straight from the paper: the 28 nm design
//! point draws 2.12 W average at 500 MHz in 6 mm² (Fig. 10), and Table III
//! gives the DeepScaleTool-derived 12 nm (1.37 mm², 1.21 W) and 8 nm
//! (0.51 mm², 0.98 W) scalings at 0.8 V / 500 MHz. Dynamic energy is
//! accumulated per microarchitectural event; static power is a fixed
//! fraction of the calibrated average.

use serde::{Deserialize, Serialize};

/// Process node of the physical design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TechNode {
    /// TSMC 28 nm (the paper's primary design point).
    N28,
    /// 12 nm scaling per DeepScaleTool.
    N12,
    /// 8 nm scaling per DeepScaleTool.
    N8,
}

impl TechNode {
    /// Die area of the REASON design at this node, mm² (Table III).
    pub fn area_mm2(self) -> f64 {
        match self {
            TechNode::N28 => 6.00,
            TechNode::N12 => 1.37,
            TechNode::N8 => 0.51,
        }
    }

    /// Average power of the REASON design at this node, W (Table III).
    pub fn avg_power_w(self) -> f64 {
        match self {
            TechNode::N28 => 2.12,
            TechNode::N12 => 1.21,
            TechNode::N8 => 0.98,
        }
    }

    /// Dynamic-energy scale factor relative to 28 nm.
    fn energy_scale(self) -> f64 {
        self.avg_power_w() / TechNode::N28.avg_power_w()
    }
}

/// Counts of energy-bearing microarchitectural events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyEvents {
    /// Two-input ALU operations (add/mul/max/compare) in tree nodes.
    pub alu_ops: u64,
    /// Register-bank reads.
    pub reg_reads: u64,
    /// Register-bank writes.
    pub reg_writes: u64,
    /// SRAM (shared scratchpad / clause store) reads of 32-bit words.
    pub sram_reads: u64,
    /// SRAM writes of 32-bit words.
    pub sram_writes: u64,
    /// Benes switch traversals (per 2×2 switch crossing).
    pub benes_hops: u64,
    /// Inter-node tree link traversals (broadcast/reduction).
    pub tree_hops: u64,
    /// Bytes transferred from off-chip DRAM.
    pub dram_bytes: u64,
    /// FIFO pushes/pops.
    pub fifo_ops: u64,
    /// Total cycles elapsed (for static energy).
    pub cycles: u64,
}

impl EnergyEvents {
    /// Accumulates another event set.
    pub fn accumulate(&mut self, other: &EnergyEvents) {
        self.alu_ops += other.alu_ops;
        self.reg_reads += other.reg_reads;
        self.reg_writes += other.reg_writes;
        self.sram_reads += other.sram_reads;
        self.sram_writes += other.sram_writes;
        self.benes_hops += other.benes_hops;
        self.tree_hops += other.tree_hops;
        self.dram_bytes += other.dram_bytes;
        self.fifo_ops += other.fifo_ops;
        self.cycles += other.cycles;
    }
}

/// Energy/power/area results for a run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Dynamic energy in joules.
    pub dynamic_j: f64,
    /// Static energy in joules.
    pub static_j: f64,
    /// Wall-clock seconds at the configured frequency.
    pub seconds: f64,
    /// Average power in watts.
    pub avg_power_w: f64,
    /// Die area in mm².
    pub area_mm2: f64,
}

impl EnergyReport {
    /// Total energy in joules.
    pub fn total_j(&self) -> f64 {
        self.dynamic_j + self.static_j
    }
}

/// Per-event energy constants (picojoules) at 28 nm, with tech scaling.
///
/// The constants follow standard 28 nm energy folklore (≈0.5 pJ for a
/// 32-bit ALU op, a few pJ per small-SRAM access, ~20 pJ/B for LPDDR
/// traffic) and are jointly chosen so that a fully utilized 12-PE array at
/// 500 MHz lands at the paper's 2.12 W average.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Technology node.
    pub tech: TechNode,
    /// Clock frequency (MHz) used for static energy and wall-clock time.
    pub freq_mhz: u32,
    /// pJ per two-input ALU op.
    pub alu_pj: f64,
    /// pJ per register-bank access.
    pub reg_pj: f64,
    /// pJ per 32-bit SRAM access.
    pub sram_pj: f64,
    /// pJ per Benes 2×2 switch crossing.
    pub benes_pj: f64,
    /// pJ per tree link traversal.
    pub tree_hop_pj: f64,
    /// pJ per DRAM byte.
    pub dram_pj_per_byte: f64,
    /// pJ per FIFO operation.
    pub fifo_pj: f64,
    /// Static power in watts at 28 nm.
    pub static_w: f64,
}

impl EnergyModel {
    /// The calibrated 28 nm model at 500 MHz.
    pub fn paper() -> Self {
        EnergyModel {
            tech: TechNode::N28,
            freq_mhz: 500,
            alu_pj: 0.9,
            reg_pj: 0.35,
            sram_pj: 2.4,
            benes_pj: 0.12,
            tree_hop_pj: 0.18,
            dram_pj_per_byte: 20.0,
            fifo_pj: 0.4,
            static_w: 0.32,
        }
    }

    /// The same constants scaled to another node.
    pub(crate) fn at_node(tech: TechNode) -> Self {
        EnergyModel { tech, ..EnergyModel::paper() }
    }

    /// Evaluates an event trace into an energy report.
    pub fn report(&self, events: &EnergyEvents) -> EnergyReport {
        let scale = self.tech.energy_scale();
        let dynamic_pj = events.alu_ops as f64 * self.alu_pj
            + (events.reg_reads + events.reg_writes) as f64 * self.reg_pj
            + (events.sram_reads + events.sram_writes) as f64 * self.sram_pj
            + events.benes_hops as f64 * self.benes_pj
            + events.tree_hops as f64 * self.tree_hop_pj
            + events.dram_bytes as f64 * self.dram_pj_per_byte
            + events.fifo_ops as f64 * self.fifo_pj;
        let dynamic_j = dynamic_pj * 1e-12 * scale;
        let seconds = events.cycles as f64 / (self.freq_mhz as f64 * 1e6);
        let static_j = self.static_w * scale * seconds;
        let total = dynamic_j + static_j;
        EnergyReport {
            dynamic_j,
            static_j,
            seconds,
            avg_power_w: if seconds > 0.0 { total / seconds } else { 0.0 },
            area_mm2: self.tech.area_mm2(),
        }
    }

    /// A busy-workload event profile for one cycle of a fully active
    /// array, used to sanity-check the power calibration against the
    /// paper's 2.12 W.
    pub fn busy_cycle_events(
        num_pes: usize,
        nodes_per_pe: usize,
        leaves_per_pe: usize,
    ) -> EnergyEvents {
        EnergyEvents {
            alu_ops: (num_pes * nodes_per_pe) as u64,
            reg_reads: (num_pes * leaves_per_pe * 2) as u64,
            reg_writes: num_pes as u64,
            sram_reads: (num_pes * 2) as u64,
            sram_writes: num_pes as u64,
            benes_hops: (num_pes * leaves_per_pe * 6) as u64,
            tree_hops: (num_pes * nodes_per_pe) as u64,
            // Symbolic/probabilistic kernels are DRAM-bound (paper
            // Table II: 60-70% bandwidth utilization) — ~160 B/cycle of a
            // 208 B/cycle peak.
            dram_bytes: 160,
            fifo_ops: num_pes as u64,
            cycles: 1,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tech_scaling_reproduces_table3() {
        assert_eq!(TechNode::N28.area_mm2(), 6.00);
        assert_eq!(TechNode::N12.area_mm2(), 1.37);
        assert_eq!(TechNode::N8.area_mm2(), 0.51);
        assert_eq!(TechNode::N28.avg_power_w(), 2.12);
        assert_eq!(TechNode::N12.avg_power_w(), 1.21);
        assert_eq!(TechNode::N8.avg_power_w(), 0.98);
    }

    #[test]
    fn busy_power_lands_near_paper_average() {
        // A fully busy 12-PE array at 500 MHz should draw on the order of
        // the paper's 2.12 W (±40%): this pins the constants to reality.
        let model = EnergyModel::paper();
        let per_cycle = EnergyModel::busy_cycle_events(12, 7, 4);
        let mut events = EnergyEvents::default();
        for _ in 0..1000 {
            events.accumulate(&per_cycle);
        }
        let report = model.report(&events);
        assert!(
            (1.3..=3.0).contains(&report.avg_power_w),
            "busy power {} W is far from 2.12 W",
            report.avg_power_w
        );
    }

    #[test]
    fn energy_scales_down_with_node() {
        let events = {
            let mut e = EnergyEvents::default();
            for _ in 0..100 {
                e.accumulate(&EnergyModel::busy_cycle_events(12, 7, 4));
            }
            e
        };
        let e28 = EnergyModel::at_node(TechNode::N28).report(&events);
        let e12 = EnergyModel::at_node(TechNode::N12).report(&events);
        let e8 = EnergyModel::at_node(TechNode::N8).report(&events);
        assert!(e28.total_j() > e12.total_j());
        assert!(e12.total_j() > e8.total_j());
        // Scaling ratio matches Table III's power ratio.
        let ratio = e12.total_j() / e28.total_j();
        assert!((ratio - 1.21 / 2.12).abs() < 1e-9);
    }

    #[test]
    fn zero_events_zero_energy() {
        let report = EnergyModel::paper().report(&EnergyEvents::default());
        assert_eq!(report.total_j(), 0.0);
        assert_eq!(report.avg_power_w, 0.0);
    }

    #[test]
    fn accumulate_sums_fields() {
        let mut a = EnergyEvents { alu_ops: 1, cycles: 2, ..EnergyEvents::default() };
        let b = EnergyEvents { alu_ops: 3, dram_bytes: 7, cycles: 1, ..EnergyEvents::default() };
        a.accumulate(&b);
        assert_eq!(a.alu_ops, 4);
        assert_eq!(a.dram_bytes, 7);
        assert_eq!(a.cycles, 3);
    }
}
