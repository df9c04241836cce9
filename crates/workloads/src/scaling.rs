//! Scaling analyses behind paper Fig. 2.
//!
//! Fig. 2(a-c): task accuracy of compositional (LLM + symbolic) versus
//! monolithic LLMs across model sizes, on three task families of
//! different difficulty. Fig. 2(d): runtime of neuro-symbolic models
//! versus RL-based chain-of-thought reasoning as task complexity grows —
//! CoT models re-query the LLM hundreds of times per decision, while
//! neuro-symbolic models delegate to cheap symbolic engines.

use reason_neural::LlmProxy;

/// One accuracy-vs-size curve point.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingPoint {
    /// Model-size label ("7B", …).
    pub model: String,
    /// Compositional (LLM + symbolic) accuracy, percent.
    pub compositional_pct: f64,
    /// Monolithic LLM accuracy, percent.
    pub monolithic_pct: f64,
}

/// The model-size axis of Fig. 2.
pub const MODEL_SIZES: [&str; 5] = ["7B", "8B", "13B", "70B", "GPT"];

/// Task families of Fig. 2(a-c) with their difficulty knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskFamily {
    /// Complex reasoning (Textedit, CLUTRR, ProofWriter).
    ComplexReasoning,
    /// Mathematical reasoning (GSM8K, SVAMP, TabMWP).
    MathReasoning,
    /// Question answering (AmbigNQ, TriviaQA, HotpotQA).
    QuestionAnswering,
}

impl TaskFamily {
    /// Difficulty parameter for the accuracy proxy.
    fn difficulty(self) -> f64 {
        match self {
            TaskFamily::ComplexReasoning => 2.6,
            TaskFamily::MathReasoning => 2.2,
            TaskFamily::QuestionAnswering => 1.4,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            TaskFamily::ComplexReasoning => "Complex Reasoning",
            TaskFamily::MathReasoning => "Math Reasoning",
            TaskFamily::QuestionAnswering => "Question Answering",
        }
    }
}

/// Computes the accuracy-vs-size curves for one task family.
pub fn accuracy_scaling(family: TaskFamily) -> Vec<ScalingPoint> {
    MODEL_SIZES
        .iter()
        .map(|&m| {
            let proxy = LlmProxy::preset(m);
            ScalingPoint {
                model: m.to_string(),
                compositional_pct: 100.0 * proxy.accuracy_proxy(family.difficulty(), true),
                monolithic_pct: 100.0 * proxy.accuracy_proxy(family.difficulty(), false),
            }
        })
        .collect()
}

/// One runtime-vs-complexity point of Fig. 2(d).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimePoint {
    /// Task complexity (problem index in the paper's IMO set).
    pub complexity: usize,
    /// Neuro-symbolic task runtime, minutes.
    pub neuro_symbolic_min: f64,
    /// RL-based CoT task runtime, minutes.
    pub cot_min: f64,
}

/// Computes the Fig. 2(d) runtime comparison on a desktop-GPU cost basis.
///
/// The neuro-symbolic system issues one LLM proposal round per complexity
/// unit plus symbolic search (cheap); the CoT model issues hundreds of
/// chained LLM queries whose count grows with complexity.
pub fn runtime_scaling(max_complexity: usize) -> Vec<RuntimePoint> {
    let llm = LlmProxy::preset("70B");
    // A6000-class device.
    let (flops, bw) = (38.7e12, 768e9);
    (1..=max_complexity)
        .map(|c| {
            let proposals = 4 + 2 * c as u64;
            let ns_llm = llm.cost(256, 128, flops, bw).seconds * proposals as f64;
            let symbolic = 0.4 * (1.6f64).powi(c as i32 / 3); // search grows, but off-LLM
            let cot_queries = 150 + 130 * c as u64;
            let cot = llm.cost(512, 256, flops, bw).seconds * cot_queries as f64;
            RuntimePoint {
                complexity: c,
                neuro_symbolic_min: (ns_llm + symbolic) / 60.0,
                cot_min: cot / 60.0,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compositional_dominates_every_size() {
        for family in
            [TaskFamily::ComplexReasoning, TaskFamily::MathReasoning, TaskFamily::QuestionAnswering]
        {
            for p in accuracy_scaling(family) {
                assert!(
                    p.compositional_pct > p.monolithic_pct,
                    "{} {}: {} <= {}",
                    family.name(),
                    p.model,
                    p.compositional_pct,
                    p.monolithic_pct
                );
            }
        }
    }

    #[test]
    fn small_compositional_beats_large_monolithic() {
        // Fig. 2's second headline: a 7B compositional model matches or
        // exceeds much larger monolithic LLMs.
        let pts = accuracy_scaling(TaskFamily::MathReasoning);
        let comp_7b = pts[0].compositional_pct;
        let mono_70b = pts[3].monolithic_pct;
        assert!(comp_7b > mono_70b);
    }

    #[test]
    fn accuracy_grows_with_scale() {
        let pts = accuracy_scaling(TaskFamily::ComplexReasoning);
        for w in pts.windows(2) {
            assert!(w[1].compositional_pct >= w[0].compositional_pct);
            assert!(w[1].monolithic_pct >= w[0].monolithic_pct);
        }
    }

    #[test]
    fn cot_runtime_grows_much_faster() {
        let pts = runtime_scaling(8);
        for p in &pts {
            assert!(p.cot_min > p.neuro_symbolic_min, "complexity {}", p.complexity);
        }
        // Paper: >2x efficiency gap.
        let last = pts.last().unwrap();
        assert!(last.cot_min / last.neuro_symbolic_min > 2.0);
    }
}
