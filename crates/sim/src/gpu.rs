//! The GPU SM model.
//!
//! An analytic, trace-calibrated model of a CUDA-class GPU: compute time
//! follows peak throughput derated by Amdahl parallelism and warp
//! divergence; memory time follows DRAM bandwidth derated by coalescing
//! and amplified by cache misses (simulated on the kernel's access
//! trace). The counters it emits mirror the Nsight metrics of paper
//! Table II, and its latency/energy outputs are the CPU/GPU baselines of
//! Figs. 11 and 12.

use serde::{Deserialize, Serialize};

use crate::cache::{Cache, CacheConfig};
use crate::kernels::KernelProfile;

/// A GPU device description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuModel {
    /// Device name.
    pub name: String,
    /// Streaming multiprocessors.
    pub sms: usize,
    /// Peak throughput in FLOP/s.
    pub peak_flops: f64,
    /// Peak DRAM bandwidth in bytes/s.
    pub peak_bw: f64,
    /// L1 geometry (per SM, modeled unified).
    pub l1: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// Board power in watts.
    pub tdp_w: f64,
    /// Single-thread scalar throughput in FLOP/s (serial sections).
    pub scalar_flops: f64,
}

impl GpuModel {
    /// NVIDIA RTX A6000 (paper Table III: 628 mm², 300 W, 10752 cores).
    pub fn a6000() -> Self {
        GpuModel {
            name: "RTX A6000".into(),
            sms: 84,
            peak_flops: 38.7e12,
            peak_bw: 768e9,
            l1: CacheConfig::gpu_l1(),
            l2: CacheConfig { capacity_bytes: 6 * 1024 * 1024, line_bytes: 128, ways: 16 },
            tdp_w: 300.0,
            scalar_flops: 0.5e9,
        }
    }

    /// NVIDIA Jetson Orin NX (paper Table III: 15 W edge module).
    pub fn orin_nx() -> Self {
        GpuModel {
            name: "Orin NX".into(),
            sms: 8,
            peak_flops: 3.8e12,
            peak_bw: 104e9,
            l1: CacheConfig::gpu_l1(),
            l2: CacheConfig::gpu_l2(),
            tdp_w: 15.0,
            scalar_flops: 0.2e9,
        }
    }

    /// Runs one kernel, producing latency, energy, and Table II counters.
    pub fn run(&self, kernel: &KernelProfile) -> GpuKernelReport {
        // Cache hierarchy on the sampled trace.
        let mut l1 = Cache::new(self.l1);
        let mut l2 = Cache::new(self.l2);
        for &a in &kernel.trace.addresses {
            if !l1.access(a) {
                l2.access(a);
            }
        }
        let l1_hit = l1.stats().hit_rate();
        let l2_hit = l2.stats().hit_rate();

        let coalescing = kernel.trace.coalescing_factor();
        // Warp efficiency collapses under divergence.
        let warp_eff = (1.0 - kernel.branch_divergence).clamp(0.05, 1.0);
        // Compute: Amdahl-derated peak.
        let eff_flops = self.peak_flops * kernel.parallel_fraction * warp_eff;
        let compute_time = kernel.flops / eff_flops.max(1.0);
        // Serial remainder on one scalar pipeline.
        let serial_time = kernel.flops * (1.0 - kernel.parallel_fraction) / self.scalar_flops;
        // Memory: DRAM-visible traffic = compulsory bytes amplified by
        // uncoalesced line fetches, filtered by caches.
        let miss_chain = (1.0 - l1_hit) * (1.0 - l2_hit);
        let amplification = (1.0 / coalescing).clamp(1.0, 32.0);
        let dram_traffic = kernel.bytes * (miss_chain * amplification).max(0.02);
        let memory_time = dram_traffic / self.peak_bw;

        let latency = compute_time.max(memory_time) + serial_time;
        let compute_share = compute_time / latency;
        let memory_share = memory_time / latency;

        // Energy: idle floor plus activity-proportional dynamic power.
        let activity = 0.25 + 0.65 * compute_share.max(memory_share).min(1.0);
        let energy_j = self.tdp_w * activity * latency;

        GpuKernelReport {
            device: self.name.clone(),
            seconds: latency,
            energy_j,
            compute_throughput_pct: 100.0 * compute_share * warp_eff,
            alu_utilization_pct: 100.0 * compute_share * warp_eff * kernel.parallel_fraction + 2.0,
            l1_hit_rate_pct: 100.0 * l1_hit,
            l2_hit_rate_pct: 100.0 * l2_hit,
            dram_bw_utilization_pct: 100.0 * memory_share.min(1.0),
            warp_efficiency_pct: 100.0 * warp_eff,
            branch_efficiency_pct: 100.0 * (1.0 - 0.7 * kernel.branch_divergence),
            eligible_warps_pct: (8.0 * kernel.parallel_fraction * warp_eff).min(8.0),
        }
    }

    /// Sum of per-kernel runs (a whole workload phase).
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

/// Per-kernel GPU metrics (the Table II rows).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuKernelReport {
    /// Device name.
    pub device: String,
    /// Latency in seconds.
    pub seconds: f64,
    /// Energy in joules.
    pub energy_j: f64,
    /// Compute throughput (% of peak).
    pub compute_throughput_pct: f64,
    /// ALU utilization (%).
    pub alu_utilization_pct: f64,
    /// L1 cache hit rate (%).
    pub l1_hit_rate_pct: f64,
    /// L2 cache hit rate (%).
    pub l2_hit_rate_pct: f64,
    /// DRAM bandwidth utilization (%).
    pub dram_bw_utilization_pct: f64,
    /// Warp execution efficiency (%).
    pub warp_efficiency_pct: f64,
    /// Branch efficiency (%).
    pub branch_efficiency_pct: f64,
    /// Eligible warps per cycle (of 8 scheduler slots).
    pub eligible_warps_pct: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neural_kernels_utilize_symbolic_kernels_do_not() {
        let gpu = GpuModel::a6000();
        let mm = gpu.run(&KernelProfile::matmul(512));
        let bcp = gpu.run(&KernelProfile::logic_bcp(20_000));
        // Table II shape: MatMul ~97% throughput, Logic ~15%.
        assert!(mm.compute_throughput_pct > 50.0, "matmul {:.1}%", mm.compute_throughput_pct);
        assert!(bcp.compute_throughput_pct < 30.0, "logic {:.1}%", bcp.compute_throughput_pct);
        assert!(mm.warp_efficiency_pct > bcp.warp_efficiency_pct);
        assert!(mm.l1_hit_rate_pct > bcp.l1_hit_rate_pct);
    }

    #[test]
    fn symbolic_kernels_are_memory_bound() {
        let gpu = GpuModel::a6000();
        let marg = gpu.run(&KernelProfile::pc_marginal(50_000));
        assert!(
            marg.dram_bw_utilization_pct > marg.compute_throughput_pct,
            "marginal inference must be memory-bound: mem {:.1}% vs compute {:.1}%",
            marg.dram_bw_utilization_pct,
            marg.compute_throughput_pct
        );
    }

    #[test]
    fn edge_gpu_is_slower_than_desktop() {
        let desk = GpuModel::a6000();
        let edge = GpuModel::orin_nx();
        let k = KernelProfile::pc_marginal(100_000);
        assert!(edge.run(&k).seconds > desk.run(&k).seconds);
    }

    #[test]
    fn energy_scales_with_latency_and_tdp() {
        let desk = GpuModel::a6000();
        let edge = GpuModel::orin_nx();
        let k = KernelProfile::logic_bcp(50_000);
        let d = desk.run(&k);
        let e = edge.run(&k);
        // The edge part burns less power; energy ratio below latency ratio.
        assert!(e.seconds > d.seconds);
        assert!(e.energy_j < d.energy_j * (e.seconds / d.seconds));
    }

    #[test]
    fn run_all_accumulates() {
        let gpu = GpuModel::orin_nx();
        let suite = KernelProfile::table2_suite();
        let (secs, joules) = gpu.run_all(&suite);
        assert!(secs > 0.0);
        assert!(joules > 0.0);
    }
}
