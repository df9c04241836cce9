//! A Xeon-class multicore CPU model.
//!
//! The paper's CPU+GPU analysis (Sec. VII-C) finds "<5% CPU parallel
//! efficiency" on symbolic/probabilistic kernels; this model reproduces
//! that via per-class efficiency factors on top of the usual
//! compute-vs-bandwidth analysis.

use serde::{Deserialize, Serialize};

use crate::kernels::{KernelClass, KernelProfile};

/// A multicore CPU device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuModel {
    /// Device name.
    pub name: String,
    /// Core count.
    pub cores: usize,
    /// Peak vector throughput in FLOP/s.
    pub peak_flops: f64,
    /// Memory bandwidth in bytes/s.
    pub peak_bw: f64,
    /// Package power in watts.
    pub tdp_w: f64,
}

impl CpuModel {
    /// 4th-gen Xeon Scalable (paper Table III: 60 cores, 270 W).
    pub fn xeon() -> Self {
        CpuModel {
            name: "Xeon 8490H".into(),
            cores: 60,
            peak_flops: 7.3e12,
            peak_bw: 307e9,
            tdp_w: 270.0,
        }
    }

    /// Runs one kernel.
    fn run(&self, kernel: &KernelProfile) -> CpuReport {
        // Parallel efficiency per class: neural vectorizes, symbolic and
        // probabilistic kernels mostly do not (paper: <5%).
        let efficiency = match kernel.class {
            KernelClass::Neural => 0.60,
            KernelClass::Symbolic => 0.04,
            KernelClass::Probabilistic => 0.05,
        };
        let compute_time = kernel.flops / (self.peak_flops * efficiency);
        let locality = kernel.trace.coalescing_factor().clamp(0.05, 1.0);
        let memory_time = kernel.bytes / (self.peak_bw * locality.max(0.2));
        // Pointer chasing is latency-bound, not bandwidth-bound: each
        // non-local cache line costs a full ~80 ns round trip that a CPU
        // core cannot hide.
        let latency_time = kernel.bytes / 64.0 * (1.0 - locality) * 80e-9;
        let seconds = compute_time.max(memory_time).max(latency_time);
        let activity = 0.4 + 0.4 * (compute_time / seconds).min(1.0);
        CpuReport { device: self.name.clone(), seconds, energy_j: self.tdp_w * activity * seconds }
    }

    /// Sum over a kernel list.
    pub fn run_all(&self, kernels: &[KernelProfile]) -> (f64, f64) {
        kernels
            .iter()
            .map(|k| {
                let r = self.run(k);
                (r.seconds, r.energy_j)
            })
            .fold((0.0, 0.0), |acc, x| (acc.0 + x.0, acc.1 + x.1))
    }
}

/// CPU run result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuReport {
    /// Device name.
    pub device: String,
    /// Latency in seconds.
    pub seconds: f64,
    /// Energy in joules.
    pub energy_j: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::GpuModel;

    #[test]
    fn cpu_trails_gpu_on_neural_work() {
        let cpu = CpuModel::xeon();
        let gpu = GpuModel::a6000();
        let k = KernelProfile::matmul(1024);
        assert!(cpu.run(&k).seconds > gpu.run(&k).seconds);
    }

    #[test]
    fn symbolic_parallel_efficiency_is_tiny() {
        let cpu = CpuModel::xeon();
        let logic = cpu.run(&KernelProfile::logic_bcp(100_000));
        let neural = cpu.run(&KernelProfile::matmul(256));
        // Per-FLOP cost of logic work dwarfs neural work.
        let logic_cost = logic.seconds / KernelProfile::logic_bcp(100_000).flops;
        let neural_cost = neural.seconds / KernelProfile::matmul(256).flops;
        assert!(logic_cost > 5.0 * neural_cost);
    }

    #[test]
    fn energy_positive_and_bounded_by_tdp() {
        let cpu = CpuModel::xeon();
        let r = cpu.run(&KernelProfile::pc_marginal(100_000));
        assert!(r.energy_j > 0.0);
        assert!(r.energy_j <= cpu.tdp_w * r.seconds * 1.0001);
    }
}
