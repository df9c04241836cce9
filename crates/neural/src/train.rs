//! Gradient training for small MLPs.
//!
//! The A-NeSI line of work (van Krieken et al., PAPERS.md) amortizes
//! exact probabilistic inference with a small *prediction network*
//! trained on samples drawn from the exact engine. That network is an
//! ordinary [`crate::Mlp`]: ReLU hidden layers and a sigmoid output head
//! for probability targets ([`crate::MlpBuilder::sigmoid`]), trained in
//! place by [`Mlp::train_batch`] — full backpropagation and plain SGD,
//! deliberately minimal, since prediction networks in this workspace are
//! tiny (thousands of parameters) and train in milliseconds. The net
//! that trains is the net that serves, anywhere an `Mlp` runs —
//! including as the neural stage of `reason_system::BatchExecutor`
//! tasks.
//!
//! ```
//! use reason_neural::{Matrix, MlpBuilder};
//!
//! // Learn AND on {0,1}²: a linearly separable toy target.
//! let x = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
//! let y = Matrix::from_vec(4, 1, vec![0., 0., 0., 1.]);
//! let mut net = MlpBuilder::new(2).layer(4, true, 7).layer(1, false, 8).sigmoid().build();
//! for _ in 0..400 {
//!     net.train_batch(&x, &y, 1.0);
//! }
//! let p = net.forward(&x);
//! assert!(p.at(3, 0) > 0.8 && p.at(0, 0) < 0.2);
//! ```

use crate::mlp::Mlp;
use crate::tensor::Matrix;

impl Mlp {
    /// One full-batch SGD step against binary cross-entropy; `targets`
    /// entries must lie in `[0, 1]`. Returns the pre-step mean BCE loss.
    ///
    /// # Panics
    ///
    /// Panics if the network has no sigmoid head or has a softmax head,
    /// or if `inputs`/`targets` shapes disagree with the network.
    pub fn train_batch(&mut self, inputs: &Matrix, targets: &Matrix, lr: f32) -> f32 {
        assert!(self.sigmoid_output && !self.softmax_output, "training needs a sigmoid head");
        let output_dim = self.layers.last().expect("at least one layer").weight.cols();
        assert_eq!(inputs.cols(), self.layers[0].weight.rows(), "input width mismatch");
        assert_eq!(targets.cols(), output_dim, "target width mismatch");
        assert_eq!(inputs.rows(), targets.rows(), "batch size mismatch");
        let batch = inputs.rows();

        // Forward, keeping every layer's input.
        let mut activations: Vec<Matrix> = Vec::with_capacity(self.layers.len());
        let mut probs = self.layers_forward(inputs, Some(&mut activations));
        probs.sigmoid();

        // BCE loss and its logit gradient: d(BCE)/d(z) = (p - y) / batch.
        let mut loss = 0.0f32;
        let mut delta = Matrix::zeros(batch, output_dim);
        for i in 0..batch * output_dim {
            let (p, y) = (probs.data()[i], targets.data()[i]);
            let pc = p.clamp(1e-7, 1.0 - 1e-7);
            loss -= y * pc.ln() + (1.0 - y) * (1.0 - pc).ln();
            delta.data_mut()[i] = (p - y) / batch as f32;
        }
        loss /= (batch * output_dim) as f32;

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
}

#[cfg(test)]
mod tests {
    use crate::{Matrix, Mlp, MlpBuilder};

    /// A sigmoid-headed ReLU net with layer widths `dims`, layer `i`
    /// seeded `seed + i`.
    fn net(dims: &[usize], seed: u64) -> Mlp {
        let last = dims.len() - 2;
        let mut b = MlpBuilder::new(dims[0]);
        for (i, &width) in dims[1..].iter().enumerate() {
            b = b.layer(width, i < last, seed + i as u64);
        }
        b.sigmoid().build()
    }

    fn xor_data() -> (Matrix, Matrix) {
        (
            Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]),
            Matrix::from_vec(4, 1, vec![0., 1., 1., 0.]),
        )
    }

    #[test]
    fn loss_decreases_on_xor() {
        let (x, y) = xor_data();
        let mut net = net(&[2, 8, 1], 1);
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
        let mut net = net(&[2, 8, 1], 3);
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
    fn construction_is_deterministic() {
        let a = net(&[3, 5, 2], 42);
        let b = net(&[3, 5, 2], 42);
        let x = Matrix::random(2, 3, 1.0, 0);
        assert_eq!(a.forward(&x).data(), b.forward(&x).data());
    }

    #[test]
    #[should_panic(expected = "batch size mismatch")]
    fn shape_checks() {
        let mut net = net(&[2, 1], 0);
        let _ = net.train_batch(&Matrix::zeros(3, 2), &Matrix::zeros(2, 1), 0.1);
    }

    #[test]
    #[should_panic(expected = "training needs a sigmoid head")]
    fn softmax_heads_do_not_train() {
        let mut net = MlpBuilder::new(2).layer(2, false, 0).softmax().build();
        let _ = net.train_batch(&Matrix::zeros(1, 2), &Matrix::zeros(1, 2), 0.1);
    }
}
