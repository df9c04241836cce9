//! Gradient training for small MLPs.
//!
//! The A-NeSI line of work (van Krieken et al., PAPERS.md) amortizes
//! exact probabilistic inference with a small *prediction network*
//! trained on samples drawn from the exact engine. The inference-only
//! [`crate::Mlp`] cannot learn; [`TrainableMlp`] is its training-capable
//! twin: dense ReLU layers, a sigmoid output head for probability
//! targets, full backpropagation, and plain SGD — deliberately minimal,
//! since prediction networks in this workspace are tiny (thousands of
//! parameters) and train in milliseconds.
//!
//! Trained networks freeze into ordinary [`crate::Mlp`]s via
//! [`TrainableMlp::to_mlp`], so they can run anywhere an `Mlp` runs —
//! including as the neural stage of `reason_system::BatchExecutor`
//! tasks.
//!
//! ```
//! use reason_neural::{Matrix, TrainableMlp};
//!
//! // Learn AND on {0,1}²: a linearly separable toy target.
//! let x = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
//! let y = Matrix::from_vec(4, 1, vec![0., 0., 0., 1.]);
//! let mut net = TrainableMlp::new(&[2, 4, 1], 7);
//! for _ in 0..400 {
//!     net.train_batch(&x, &y, 1.0);
//! }
//! let p = net.forward(&x);
//! assert!(p.at(3, 0) > 0.8 && p.at(0, 0) < 0.2);
//! ```

use crate::mlp::{Mlp, MlpBuilder};
use crate::tensor::Matrix;

/// One trainable dense layer.
#[derive(Debug, Clone)]
struct TrainLayer {
    /// `in_dim × out_dim` weight matrix.
    weight: Matrix,
    bias: Vec<f32>,
    relu: bool,
}

/// A small feed-forward network with ReLU hidden layers, a sigmoid
/// output head, and SGD backpropagation against binary-cross-entropy
/// loss. See the module docs for the role it plays.
#[derive(Debug, Clone)]
pub struct TrainableMlp {
    layers: Vec<TrainLayer>,
}

impl TrainableMlp {
    /// A network with layer widths `dims` (`dims[0]` = input width,
    /// `dims.last()` = output width), ReLU on every hidden layer, and
    /// seeded He-scaled random initialization.
    ///
    /// # Panics
    ///
    /// Panics if `dims` has fewer than two entries.
    pub fn new(dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output widths");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let (in_dim, out_dim) = (w[0], w[1]);
                let scale = (2.0 / in_dim as f32).sqrt();
                TrainLayer {
                    weight: Matrix::random(in_dim, out_dim, scale, seed.wrapping_add(i as u64)),
                    bias: vec![0.0; out_dim],
                    relu: i + 2 < dims.len(), // hidden layers only
                }
            })
            .collect();
        TrainableMlp { layers }
    }

    /// Input width.
    fn input_dim(&self) -> usize {
        self.layers[0].weight.rows()
    }

    /// Output width.
    fn output_dim(&self) -> usize {
        self.layers.last().expect("at least one layer").weight.cols()
    }

    /// Forward pass with the sigmoid head applied (rows = batch).
    pub fn forward(&self, input: &Matrix) -> Matrix {
        let mut x = input.clone();
        for layer in &self.layers {
            let mut y = x.matmul(&layer.weight);
            y.add_bias(&layer.bias);
            if layer.relu {
                y.relu();
            }
            x = y;
        }
        x.sigmoid();
        x
    }

    /// One full-batch SGD step against binary cross-entropy; `targets`
    /// entries must lie in `[0, 1]`. Returns the pre-step mean BCE loss.
    ///
    /// # Panics
    ///
    /// Panics if `inputs`/`targets` shapes disagree with the network.
    pub fn train_batch(&mut self, inputs: &Matrix, targets: &Matrix, lr: f32) -> f32 {
        assert_eq!(inputs.cols(), self.input_dim(), "input width mismatch");
        assert_eq!(targets.cols(), self.output_dim(), "target width mismatch");
        assert_eq!(inputs.rows(), targets.rows(), "batch size mismatch");
        let batch = inputs.rows();

        // Forward, keeping every layer's post-activation output.
        let mut activations: Vec<Matrix> = Vec::with_capacity(self.layers.len() + 1);
        activations.push(inputs.clone());
        for layer in &self.layers {
            let mut y = activations.last().unwrap().matmul(&layer.weight);
            y.add_bias(&layer.bias);
            if layer.relu {
                y.relu();
            }
            activations.push(y);
        }
        let mut probs = activations.last().unwrap().clone();
        probs.sigmoid();

        // BCE loss and its logit gradient: d(BCE)/d(z) = (p - y) / batch.
        let mut loss = 0.0f32;
        let mut delta = Matrix::zeros(batch, self.output_dim());
        for i in 0..batch * self.output_dim() {
            let (p, y) = (probs.data()[i], targets.data()[i]);
            let pc = p.clamp(1e-7, 1.0 - 1e-7);
            loss -= y * pc.ln() + (1.0 - y) * (1.0 - pc).ln();
            delta.data_mut()[i] = (p - y) / batch as f32;
        }
        loss /= (batch * self.output_dim()) as f32;

        // Backward: walk layers last-to-first.
        for l in (0..self.layers.len()).rev() {
            let a_prev = &activations[l];
            let grad_w = a_prev.transpose().matmul(&delta);
            let mut grad_b = vec![0.0f32; self.layers[l].bias.len()];
            for r in 0..delta.rows() {
                for (c, g) in grad_b.iter_mut().enumerate() {
                    *g += delta.at(r, c);
                }
            }
            if l > 0 {
                let mut next = delta.matmul(&self.layers[l].weight.transpose());
                if self.layers[l - 1].relu {
                    // relu'(z) = 1 where the stored activation is positive.
                    for (d, &a) in next.data_mut().iter_mut().zip(activations[l].data()) {
                        if a <= 0.0 {
                            *d = 0.0;
                        }
                    }
                }
                delta = next;
            }
            let layer = &mut self.layers[l];
            for (w, g) in layer.weight.data_mut().iter_mut().zip(grad_w.data()) {
                *w -= lr * g;
            }
            for (b, g) in layer.bias.iter_mut().zip(&grad_b) {
                *b -= lr * g;
            }
        }
        loss
    }

    /// Freezes the trained parameters into an inference [`Mlp`] with a
    /// sigmoid output head; its `forward` matches this network's.
    pub fn to_mlp(&self) -> Mlp {
        let mut b = MlpBuilder::new(self.input_dim());
        for layer in &self.layers {
            b = b.layer_with_params(layer.weight.clone(), layer.bias.clone(), layer.relu);
        }
        b.sigmoid().build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Matrix, Matrix) {
        (
            Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]),
            Matrix::from_vec(4, 1, vec![0., 1., 1., 0.]),
        )
    }

    #[test]
    fn loss_decreases_on_xor() {
        let (x, y) = xor_data();
        let mut net = TrainableMlp::new(&[2, 8, 1], 1);
        let first = net.train_batch(&x, &y, 0.8);
        let mut last = first;
        for _ in 0..1500 {
            last = net.train_batch(&x, &y, 0.8);
        }
        assert!(last < first * 0.25, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn learns_xor_decision_boundary() {
        let (x, y) = xor_data();
        let mut net = TrainableMlp::new(&[2, 8, 1], 3);
        for _ in 0..3000 {
            net.train_batch(&x, &y, 0.8);
        }
        let p = net.forward(&x);
        for r in 0..4 {
            let target = y.at(r, 0);
            assert!(
                (p.at(r, 0) - target).abs() < 0.25,
                "row {r}: predicted {} for target {target}",
                p.at(r, 0)
            );
        }
    }

    #[test]
    fn frozen_mlp_matches_trainable_forward() {
        let (x, y) = xor_data();
        let mut net = TrainableMlp::new(&[2, 6, 1], 9);
        for _ in 0..200 {
            net.train_batch(&x, &y, 0.5);
        }
        let frozen = net.to_mlp();
        let (a, b) = (net.forward(&x), frozen.forward(&x));
        for i in 0..4 {
            assert!((a.at(i, 0) - b.at(i, 0)).abs() < 1e-6);
        }
    }

    #[test]
    fn construction_is_deterministic() {
        let a = TrainableMlp::new(&[3, 5, 2], 42);
        let b = TrainableMlp::new(&[3, 5, 2], 42);
        let x = Matrix::random(2, 3, 1.0, 0);
        assert_eq!(a.forward(&x).data(), b.forward(&x).data());
    }

    #[test]
    #[should_panic(expected = "batch size mismatch")]
    fn shape_checks() {
        let mut net = TrainableMlp::new(&[2, 1], 0);
        let _ = net.train_batch(&Matrix::zeros(3, 2), &Matrix::zeros(2, 1), 0.1);
    }
}
