//! Multi-layer perceptron inference.
//!
//! NeuroPC-style workloads (paper Table I) pair a small DNN feature
//! extractor with a probabilistic circuit head; this MLP is that DNN
//! substrate, with parameter/FLOP accounting for the characterization
//! experiments.

use crate::tensor::Matrix;

/// One dense layer.
#[derive(Debug, Clone, PartialEq)]
struct Layer {
    weight: Matrix,
    bias: Vec<f32>,
    relu: bool,
}

/// A feed-forward network of dense layers with optional ReLU activations
/// and a softmax or sigmoid output head.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Layer>,
    softmax_output: bool,
    sigmoid_output: bool,
}

/// Builder for [`Mlp`].
///
/// ```
/// use reason_neural::{MlpBuilder, Matrix};
/// let mlp = MlpBuilder::new(4)
///     .layer(8, true, 1)
///     .layer(3, false, 2)
///     .softmax()
///     .build();
/// let x = Matrix::random(1, 4, 1.0, 3);
/// let y = mlp.forward(&x);
/// assert_eq!(y.cols(), 3);
/// let total: f32 = y.data().iter().sum();
/// assert!((total - 1.0).abs() < 1e-5);
/// ```
#[derive(Debug, Clone)]
pub struct MlpBuilder {
    input_dim: usize,
    layers: Vec<Layer>,
    softmax_output: bool,
    sigmoid_output: bool,
}

impl MlpBuilder {
    /// Starts a builder for inputs of width `input_dim`.
    pub fn new(input_dim: usize) -> Self {
        MlpBuilder { input_dim, layers: Vec::new(), softmax_output: false, sigmoid_output: false }
    }

    /// Appends a dense layer with `width` outputs and seeded random
    /// parameters; `relu` enables the activation.
    pub fn layer(mut self, width: usize, relu: bool, seed: u64) -> Self {
        let in_dim = self.layers.last().map_or(self.input_dim, |l| l.weight.cols());
        let scale = (2.0 / in_dim as f32).sqrt();
        let weight = Matrix::random(in_dim, width, scale, seed);
        let bias = vec![0.0; width];
        self.layers.push(Layer { weight, bias, relu });
        self
    }

    /// Appends a dense layer with explicit parameters — how trained
    /// networks ([`crate::train::TrainableMlp`]) are frozen into
    /// inference [`Mlp`]s.
    ///
    /// # Panics
    ///
    /// Panics if `weight.rows()` does not match the previous layer's
    /// output width (or `input_dim` for the first layer), or if
    /// `bias.len() != weight.cols()`.
    pub(crate) fn layer_with_params(mut self, weight: Matrix, bias: Vec<f32>, relu: bool) -> Self {
        let in_dim = self.layers.last().map_or(self.input_dim, |l| l.weight.cols());
        assert_eq!(weight.rows(), in_dim, "layer input width mismatch");
        assert_eq!(bias.len(), weight.cols(), "bias length mismatch");
        self.layers.push(Layer { weight, bias, relu });
        self
    }

    /// Enables a softmax output head.
    pub fn softmax(mut self) -> Self {
        self.softmax_output = true;
        self
    }

    /// Enables an elementwise sigmoid output head (probability outputs,
    /// as in the approximate-inference prediction networks).
    pub(crate) fn sigmoid(mut self) -> Self {
        self.sigmoid_output = true;
        self
    }

    /// Finalizes the network.
    pub fn build(self) -> Mlp {
        Mlp {
            layers: self.layers,
            softmax_output: self.softmax_output,
            sigmoid_output: self.sigmoid_output,
        }
    }
}

impl Mlp {
    /// Runs the network on a batch (`rows` = batch size).
    ///
    /// # Panics
    ///
    /// Panics if `input.cols()` differs from the first layer's input width.
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
        if self.softmax_output {
            x.softmax_rows();
        }
        if self.sigmoid_output {
            x.sigmoid();
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes() {
        let mlp = MlpBuilder::new(10).layer(16, true, 1).layer(4, false, 2).build();
        let x = Matrix::random(5, 10, 1.0, 3);
        let y = mlp.forward(&x);
        assert_eq!(y.rows(), 5);
        assert_eq!(y.cols(), 4);
    }

    #[test]
    fn softmax_head_normalizes() {
        let mlp = MlpBuilder::new(6).layer(8, true, 1).layer(3, false, 2).softmax().build();
        let x = Matrix::random(4, 6, 1.0, 9);
        let y = mlp.forward(&x);
        for r in 0..4 {
            let s: f32 = (0..3).map(|c| y.at(r, c)).sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn deterministic_construction() {
        let a = MlpBuilder::new(4).layer(4, true, 42).build();
        let b = MlpBuilder::new(4).layer(4, true, 42).build();
        let x = Matrix::random(1, 4, 1.0, 0);
        assert_eq!(a.forward(&x), b.forward(&x));
    }
}
