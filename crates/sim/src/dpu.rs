//! A DPU-like tree-array model (paper Fig. 13 and Table III baseline).
//!
//! DPU-v2 (paper reference \[46\]) executes irregular DAGs on a fixed-
//! dataflow tree array: 8 PEs / 56 nodes, 2.4 MB SRAM at 28 nm. It lacks
//! REASON's cycle-reconfigurable datapath, Benes operand crossbar,
//! conflict-aware bank mapping, and watched-literal hardware, so:
//! probabilistic DAGs run with materially lower node utilization (operand
//! routing conflicts), and symbolic (SAT) kernels must be *emulated*
//! arithmetically — the gap Fig. 13 quantifies.

use serde::{Deserialize, Serialize};

use crate::kernels::{KernelClass, KernelProfile};

/// A fixed-dataflow tree-array accelerator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DpuModel {
    /// Device name.
    pub name: String,
    /// Total compute nodes across trees.
    pub nodes: usize,
    /// Clock in Hz.
    pub clock_hz: f64,
    /// Average power in watts (Table III: 1.10 W).
    pub power_w: f64,
}

impl DpuModel {
    /// The paper's DPU-like configuration (Table III row).
    pub fn paper() -> Self {
        DpuModel { name: "DPU-like".into(), nodes: 56, clock_hz: 500e6, power_w: 1.10 }
    }

    /// Peak op/s across tree nodes.
    fn peak_ops(&self) -> f64 {
        self.nodes as f64 * self.clock_hz
    }

    /// Runs one kernel.
    pub fn run(&self, kernel: &KernelProfile) -> DpuReport {
        let utilization = match kernel.class {
            // Small neural kernels map onto the tree's MAC reduction well.
            KernelClass::Neural => 0.55,
            // Probabilistic DAGs fit the tree but the fixed interconnect
            // loses cycles to operand-bank conflicts and rigid mapping.
            KernelClass::Probabilistic => 0.08,
            // No comparator datapath or watched-literal memory: SAT-style
            // propagation is emulated with arithmetic ops and full scans.
            KernelClass::Symbolic => 0.012,
        };
        let seconds = kernel.flops / (self.peak_ops() * utilization);
        DpuReport {
            device: self.name.clone(),
            seconds,
            energy_j: self.power_w * seconds,
            utilization,
        }
    }
}

/// DPU run result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DpuReport {
    /// Device name.
    pub device: String,
    /// Latency in seconds.
    pub seconds: f64,
    /// Energy in joules.
    pub energy_j: f64,
    /// Achieved fraction of peak.
    pub utilization: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpu::TpuModel;

    #[test]
    fn dpu_beats_tpu_on_irregular_work() {
        // Fig. 13: on symbolic/probabilistic kernels the tree array is
        // much closer to REASON than the systolic array.
        let dpu = DpuModel::paper();
        let tpu = TpuModel::paper();
        let marg = KernelProfile::pc_marginal(200_000);
        assert!(dpu.run(&marg).seconds < tpu.run(&marg).seconds);
        let bcp = KernelProfile::logic_bcp(100_000);
        assert!(dpu.run(&bcp).seconds < tpu.run(&bcp).seconds);
    }

    #[test]
    fn symbolic_emulation_is_the_weak_spot() {
        let dpu = DpuModel::paper();
        let marg = dpu.run(&KernelProfile::pc_marginal(100_000));
        let bcp = dpu.run(&KernelProfile::logic_bcp(100_000));
        assert!(bcp.utilization < marg.utilization);
    }

    #[test]
    fn energy_uses_published_power() {
        let dpu = DpuModel::paper();
        let r = dpu.run(&KernelProfile::pc_marginal(50_000));
        assert!((r.energy_j / r.seconds - 1.10).abs() < 1e-9);
    }
}
