//! LLM cost proxy.
//!
//! The paper's neuro-symbolic workloads wrap LLaMA-class language models.
//! Running such models is neither possible nor necessary here: REASON
//! accelerates the *symbolic* side and only needs the neural side's
//! compute/memory/time profile to reproduce the runtime splits of Fig. 3
//! and the pipeline overlap of Sec. VI-C. [`LlmProxy`] models a
//! decoder-only transformer's FLOPs, parameter traffic, and token-loop
//! latency from its parameter count, following the standard
//! `2 * params` FLOPs-per-token approximation.

/// Aggregate cost of one neural invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeuralCost {
    /// Total floating-point operations.
    pub flops: f64,
    /// Bytes of parameter/KV traffic.
    pub bytes: f64,
    /// Latency in seconds on the device described by the throughput
    /// parameters passed to [`LlmProxy::cost`].
    pub seconds: f64,
}

/// A latency/energy proxy for decoder-only LLM inference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LlmProxy {
    /// Parameter count (e.g. `7e9` for a 7B model).
    pub params: f64,
    /// Bytes per parameter (2 for fp16, 1 for int8).
    pub bytes_per_param: f64,
}

impl LlmProxy {
    /// A proxy for a model with `params` parameters stored in fp16.
    fn new(params: f64) -> Self {
        LlmProxy { params, bytes_per_param: 2.0 }
    }

    /// Named presets matching the paper's model-size axis (Fig. 2):
    /// "7B", "8B", "13B", "70B", and "GPT" (proxy for a frontier model).
    ///
    /// # Panics
    ///
    /// Panics on an unknown preset name.
    pub fn preset(name: &str) -> Self {
        let params = match name {
            "7B" => 7e9,
            "8B" => 8e9,
            "13B" => 13e9,
            "70B" => 70e9,
            "GPT" => 1750e9,
            other => panic!("unknown LLM preset {other:?}"),
        };
        LlmProxy::new(params)
    }

    /// FLOPs to process `prompt_tokens` and generate `output_tokens`
    /// (≈ `2 * params` per token).
    fn flops(&self, prompt_tokens: u64, output_tokens: u64) -> f64 {
        2.0 * self.params * (prompt_tokens + output_tokens) as f64
    }

    /// Bytes moved: every generated token re-reads the parameters
    /// (memory-bound decoding); the prompt is processed in one pass.
    fn bytes(&self, output_tokens: u64) -> f64 {
        self.params * self.bytes_per_param * (output_tokens.max(1)) as f64
    }

    /// Full cost on a device with `flops_per_sec` peak compute and
    /// `bytes_per_sec` memory bandwidth: prefill is compute-bound, decode
    /// is bandwidth-bound; the device takes the max of both constraints.
    pub fn cost(
        &self,
        prompt_tokens: u64,
        output_tokens: u64,
        flops_per_sec: f64,
        bytes_per_sec: f64,
    ) -> NeuralCost {
        let flops = self.flops(prompt_tokens, output_tokens);
        let bytes = self.bytes(output_tokens);
        let compute_time = flops / flops_per_sec;
        let memory_time = bytes / bytes_per_sec;
        NeuralCost { flops, bytes, seconds: compute_time.max(memory_time) }
    }

    /// A synthetic task-accuracy proxy: accuracy grows with log-params and
    /// saturates. `compositional` models (LLM + symbolic tools) start
    /// higher and saturate faster — the qualitative shape of paper
    /// Fig. 2(a-c).
    ///
    /// Returns a value in `[0, 1]`.
    pub fn accuracy_proxy(&self, task_difficulty: f64, compositional: bool) -> f64 {
        let capability = (self.params.log10() - 8.0).max(0.0); // 0 at 0.1B
        let boost = if compositional { 1.9 } else { 0.0 };
        let raw = (capability + boost) / (task_difficulty + capability + boost + 1.0);
        raw.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_scale() {
        let small = LlmProxy::preset("7B");
        let big = LlmProxy::preset("70B");
        assert!(big.flops(10, 10) > small.flops(10, 10));
        assert_eq!(small.flops(5, 5), 2.0 * 7e9 * 10.0);
    }

    #[test]
    #[should_panic(expected = "unknown LLM preset")]
    fn bad_preset_panics() {
        let _ = LlmProxy::preset("9000B");
    }

    #[test]
    fn decode_is_memory_bound_on_gpu_like_device() {
        let m = LlmProxy::preset("7B");
        // A6000-like: 38 TFLOPs fp16-ish, 768 GB/s.
        let c = m.cost(128, 128, 38e12, 768e9);
        let memory_time = m.bytes(128) / 768e9;
        assert!(
            (c.seconds - memory_time).abs() / memory_time < 1e-9,
            "decode should be bandwidth-bound"
        );
    }

    #[test]
    fn accuracy_proxy_matches_fig2_shape() {
        let sizes = ["7B", "8B", "13B", "70B"];
        let mut last_mono = 0.0;
        let mut last_comp = 0.0;
        for s in sizes {
            let p = LlmProxy::preset(s);
            let mono = p.accuracy_proxy(2.0, false);
            let comp = p.accuracy_proxy(2.0, true);
            // Compositional beats monolithic at the same size (Fig. 2).
            assert!(comp > mono, "{s}");
            // Both improve with scale.
            assert!(mono >= last_mono);
            assert!(comp >= last_comp);
            last_mono = mono;
            last_comp = comp;
        }
        // A small compositional model beats a much larger monolithic one.
        let comp_7b = LlmProxy::preset("7B").accuracy_proxy(2.0, true);
        let mono_70b = LlmProxy::preset("70B").accuracy_proxy(2.0, false);
        assert!(comp_7b > mono_70b);
    }

    #[test]
    fn costs_are_positive_and_monotone_in_tokens() {
        let m = LlmProxy::preset("13B");
        let a = m.cost(64, 16, 1e12, 1e11);
        let b = m.cost(64, 64, 1e12, 1e11);
        assert!(a.seconds > 0.0);
        assert!(b.seconds > a.seconds);
        assert!(b.flops > a.flops);
    }
}
