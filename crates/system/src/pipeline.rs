//! The two-level execution pipeline (paper Sec. VI-C, Fig. 9 top).
//!
//! "The GPU-REASON pipeline overlaps the execution of symbolic kernels on
//! REASON for step N with neural kernels on GPU for step N+1, effectively
//! hiding the latency of one stage." This module computes the two-stage
//! flow-shop schedule for a task sequence and reports the overlap gain
//! against serial execution; it is the model behind the end-to-end
//! runtimes of Fig. 11.

use reason_telemetry::MetricsRegistry;
use serde::{Deserialize, Serialize};

/// Per-task stage costs in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageCost {
    /// GPU neural stage.
    pub neural_s: f64,
    /// REASON (or baseline device) symbolic stage.
    pub symbolic_s: f64,
}

/// Result of scheduling a task sequence — or, when produced by
/// [`reason_system::BatchExecutor`](crate::BatchExecutor), of *measuring*
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineReport {
    /// Makespan with two-stage overlap, in seconds.
    pub pipelined_s: f64,
    /// Makespan with serial stage execution, in seconds (the sum of every
    /// task's `neural_s + symbolic_s`).
    pub serial_s: f64,
    /// Tasks scheduled.
    pub tasks: usize,
}

impl PipelineReport {
    /// Fraction of the serial makespan hidden by the overlap:
    /// `1 - pipelined_s / serial_s`. Dimensionless, **not** a percentage
    /// and **not** a speedup factor (a gain of `0.5` means the pipelined
    /// schedule takes half the serial time, i.e. a 2x speedup).
    ///
    /// For *modeled* schedules ([`TwoLevelPipeline::schedule`]) the value
    /// is always in `[0, 1)`: the flow shop can never take longer than
    /// serial execution, and the first task's stage-1 latency is never
    /// hidden. For *measured* reports
    /// ([`BatchReport::measured`](crate::BatchReport)) the value can dip
    /// slightly below zero, because the wall clock includes thread
    /// scheduling overhead that the per-stage sums exclude.
    ///
    /// An empty schedule (`serial_s == 0`) reports a gain of `0`.
    pub(crate) fn overlap_gain(&self) -> f64 {
        if self.serial_s == 0.0 {
            0.0
        } else {
            1.0 - self.pipelined_s / self.serial_s
        }
    }

    /// Publishes the report into a metrics registry, labeled by
    /// `schedule` (e.g. `"measured"`, `"predicted"`, `"modeled"`).
    /// Units are explicit in the metric names:
    ///
    /// * `pipeline_makespan_seconds{schedule, mode=pipelined|serial}`
    ///   — gauge, seconds;
    /// * `pipeline_overlap_gain{schedule}` — gauge, dimensionless
    ///   fraction of the serial makespan hidden by the overlap
    ///   (see `overlap_gain`: `0.5` means a 2x
    ///   speedup, **not** 50 "percent faster");
    /// * `pipeline_tasks{schedule}` — gauge, task count.
    ///
    /// This is the structured replacement for printing the report: any
    /// sink holding the registry can export the same numbers through
    /// [`reason_telemetry::prometheus_text`] or compare schedules by
    /// label.
    pub fn record_into(&self, registry: &MetricsRegistry, schedule: &str) {
        let labels = [("schedule", schedule)];
        registry
            .gauge("pipeline_makespan_seconds", &[("schedule", schedule), ("mode", "pipelined")])
            .set(self.pipelined_s);
        registry
            .gauge("pipeline_makespan_seconds", &[("schedule", schedule), ("mode", "serial")])
            .set(self.serial_s);
        registry.gauge("pipeline_overlap_gain", &labels).set(self.overlap_gain());
        registry.gauge("pipeline_tasks", &labels).set(self.tasks as f64);
    }
}

/// The two-level pipeline scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoLevelPipeline {
    /// Disable the overlap (the serial baseline used in ablations).
    pub disable_overlap: bool,
}

impl TwoLevelPipeline {
    /// A pipeline with overlap enabled.
    pub fn new() -> Self {
        TwoLevelPipeline::default()
    }

    /// Schedules a task sequence.
    pub fn schedule(&self, tasks: &[StageCost]) -> PipelineReport {
        let serial: f64 = tasks.iter().map(|t| t.neural_s + t.symbolic_s).sum();
        if self.disable_overlap {
            return PipelineReport { pipelined_s: serial, serial_s: serial, tasks: tasks.len() };
        }
        // Two-stage flow shop: stage 1 (GPU) streams tasks back to back;
        // stage 2 (REASON) starts a task when both its neural result and
        // the device are free.
        let mut neural_done = 0.0f64;
        let mut symbolic_done = 0.0f64;
        for t in tasks {
            neural_done += t.neural_s;
            symbolic_done = neural_done.max(symbolic_done) + t.symbolic_s;
        }
        PipelineReport { pipelined_s: symbolic_done, serial_s: serial, tasks: tasks.len() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_stages_hide_half_the_work() {
        let pipe = TwoLevelPipeline::new();
        let tasks = vec![StageCost { neural_s: 1.0, symbolic_s: 1.0 }; 100];
        let report = pipe.schedule(&tasks);
        assert_eq!(report.serial_s, 200.0);
        // Steady state: one stage is fully hidden; makespan ≈ 101.
        assert!((report.pipelined_s - 101.0).abs() < 1e-9);
        assert!(report.overlap_gain() > 0.49);
    }

    #[test]
    fn dominant_stage_bounds_the_makespan() {
        let pipe = TwoLevelPipeline::new();
        let tasks = vec![StageCost { neural_s: 0.1, symbolic_s: 1.0 }; 50];
        let report = pipe.schedule(&tasks);
        // Symbolic dominates: makespan ≈ 0.1 + 50 * 1.0.
        assert!((report.pipelined_s - 50.1).abs() < 1e-9);
    }

    #[test]
    fn disabled_overlap_is_serial() {
        let pipe = TwoLevelPipeline { disable_overlap: true };
        let tasks = vec![StageCost { neural_s: 1.0, symbolic_s: 2.0 }; 10];
        let report = pipe.schedule(&tasks);
        assert_eq!(report.pipelined_s, report.serial_s);
        assert_eq!(report.overlap_gain(), 0.0);
    }

    #[test]
    fn empty_sequence() {
        let report = TwoLevelPipeline::new().schedule(&[]);
        assert_eq!(report.pipelined_s, 0.0);
        assert_eq!(report.tasks, 0);
    }

    #[test]
    fn record_into_publishes_gains_and_makespans() {
        use reason_telemetry::MetricValue;
        let report =
            TwoLevelPipeline::new().schedule(&[StageCost { neural_s: 1.0, symbolic_s: 1.0 }; 4]);
        let registry = MetricsRegistry::new();
        report.record_into(&registry, "modeled");
        let get = |name: &str, labels: &[(&str, &str)]| -> f64 {
            let want: Vec<(String, String)> = {
                let mut v: Vec<(String, String)> =
                    labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
                v.sort();
                v
            };
            registry
                .snapshot()
                .iter()
                .find(|m| m.name == name && m.labels == want)
                .map(|m| match &m.value {
                    MetricValue::Gauge(g) => *g,
                    other => panic!("expected gauge, got {other:?}"),
                })
                .unwrap_or_else(|| panic!("missing {name}{labels:?}"))
        };
        let pipelined =
            get("pipeline_makespan_seconds", &[("schedule", "modeled"), ("mode", "pipelined")]);
        let serial =
            get("pipeline_makespan_seconds", &[("schedule", "modeled"), ("mode", "serial")]);
        assert_eq!(pipelined, report.pipelined_s);
        assert_eq!(serial, report.serial_s);
        assert_eq!(get("pipeline_overlap_gain", &[("schedule", "modeled")]), report.overlap_gain());
        assert_eq!(get("pipeline_tasks", &[("schedule", "modeled")]), 4.0);
    }

    #[test]
    fn pipelining_never_hurts() {
        let pipe = TwoLevelPipeline::new();
        let tasks: Vec<StageCost> = (0..20)
            .map(|i| StageCost {
                neural_s: (i % 5) as f64 * 0.2 + 0.1,
                symbolic_s: (i % 3) as f64 * 0.4 + 0.2,
            })
            .collect();
        let report = pipe.schedule(&tasks);
        assert!(report.pipelined_s <= report.serial_s + 1e-12);
    }
}
