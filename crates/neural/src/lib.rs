//! Neural substrate for the REASON reproduction.
//!
//! The paper's neural modules are LLMs/DNNs running on GPU SMs; REASON
//! never accelerates them directly but (a) overlaps their execution with
//! symbolic work in the two-level pipeline (Sec. VI-C), (b) supports small
//! neural kernels through the tree-PE **SpMSpM mode** (Sec. V-B), and (c)
//! needs their FLOP/byte profile to reproduce the workload
//! characterization (Fig. 3, Table II).
//!
//! This crate provides the corresponding substrate:
//!
//! * [`tensor`] — dense row-major matrices with matmul, bias, ReLU, and
//!   softmax kernels.
//! * [`sparse`] — CSR sparse matrices with SpMV and Gustavson SpMSpM (the
//!   kernel the tree-PE executes in SpMSpM mode).
//! * [`mlp`] — multi-layer perceptron inference with parameter and FLOP
//!   accounting.
//! * [`train`] — SGD backpropagation for small sigmoid-headed [`Mlp`]s
//!   ([`Mlp::train_batch`]): the substrate of the A-NeSI-style
//!   prediction networks in `reason-approx`, which serve as the same
//!   `Mlp` they trained as.
//! * [`proxy`] — an LLM cost proxy: FLOPs, bytes moved, and token-loop
//!   latency modeling calibrated by parameter count, standing in for the
//!   LLaMA-class models of the paper's workloads.
//!
//! Both [`Mlp`] forward passes and [`LlmProxy`] evaluations also serve as
//! the *neural stage* of `reason_system::BatchExecutor` tasks: the
//! executor's caller runs them while its symbolic lanes reason over
//! earlier tasks, realizing the stage overlap of Sec. VI-C.
//!
//! # Example
//!
//! ```
//! use reason_neural::{Matrix, MlpBuilder};
//!
//! let mlp = MlpBuilder::new(4).layer(8, true, 1).layer(3, false, 2).softmax().build();
//! let out = mlp.forward(&Matrix::random(2, 4, 1.0, 3));
//! assert_eq!((out.rows(), out.cols()), (2, 3));
//! // Softmax rows are normalized.
//! let row_sum: f32 = (0..3).map(|c| out.at(0, c)).sum();
//! assert!((row_sum - 1.0).abs() < 1e-5);
//! ```

pub mod mlp;
pub mod proxy;
pub mod sparse;
pub mod tensor;
pub mod train;

pub use mlp::{Mlp, MlpBuilder};
pub use proxy::{LlmProxy, NeuralCost};
pub use sparse::CsrMatrix;
pub use tensor::Matrix;
