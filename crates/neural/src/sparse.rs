//! CSR sparse matrices, SpMV, and Gustavson SpMSpM.
//!
//! Sparse matrix-sparse matrix multiplication is the third operating mode
//! of REASON's tree PEs (paper Sec. V-B): leaves multiply partial products
//! while internal nodes reduce. This module provides the functional kernel
//! that mode must reproduce, plus the access-pattern statistics the GPU
//! baseline model consumes.

use crate::tensor::Matrix;

/// A compressed-sparse-row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from a dense one, keeping entries with
    /// `|x| > 0`.
    pub fn from_dense(dense: &Matrix) -> Self {
        let mut row_ptr = Vec::with_capacity(dense.rows() + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..dense.rows() {
            for c in 0..dense.cols() {
                let v = dense.at(r, c);
                if v != 0.0 {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix { rows: dense.rows(), cols: dense.cols(), row_ptr, col_idx, values }
    }

    /// A seeded random sparse matrix with the given fill density.
    #[cfg(test)]
    fn random(rows: usize, cols: usize, density: f64, seed: u64) -> Self {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dense = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if rng.gen_bool(density) {
                    *dense.at_mut(r, c) = rng.gen_range(-1.0..1.0);
                }
            }
        }
        CsrMatrix::from_dense(&dense)
    }

    /// Number of stored non-zeros.
    #[cfg(test)]
    fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fill density in `[0, 1]`.
    #[cfg(test)]
    fn density(&self) -> f64 {
        if self.rows * self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows * self.cols) as f64
        }
    }

    /// The non-zeros of row `r` as `(col, value)` pairs.
    fn row(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let span = self.row_ptr[r]..self.row_ptr[r + 1];
        self.col_idx[span.clone()].iter().copied().zip(self.values[span].iter().copied())
    }

    /// Converts back to dense form.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                *out.at_mut(r, c) = v;
            }
        }
        out
    }

    /// Sparse matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols`.
    pub fn spmv(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "vector length mismatch");
        (0..self.rows).map(|r| self.row(r).map(|(c, v)| v * x[c]).sum()).collect()
    }

    /// Gustavson row-wise sparse-sparse matrix multiplication.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn spmspm(&self, rhs: &CsrMatrix) -> CsrMatrix {
        assert_eq!(self.cols, rhs.rows, "inner dimensions disagree");
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        // Dense accumulator per output row (classic Gustavson).
        let mut acc = vec![0.0f32; rhs.cols];
        let mut touched: Vec<usize> = Vec::new();
        for r in 0..self.rows {
            for (k, a) in self.row(r) {
                for (c, b) in rhs.row(k) {
                    if acc[c] == 0.0 {
                        touched.push(c);
                    }
                    acc[c] += a * b;
                }
            }
            touched.sort_unstable();
            for &c in &touched {
                if acc[c] != 0.0 {
                    col_idx.push(c);
                    values.push(acc[c]);
                }
                acc[c] = 0.0;
            }
            touched.clear();
            row_ptr.push(col_idx.len());
        }
        CsrMatrix { rows: self.rows, cols: rhs.cols, row_ptr, col_idx, values }
    }

    /// Multiply-accumulate operations performed by [`spmspm`](Self::spmspm)
    /// with this operand pair — the work the tree-PE SpMSpM mode schedules.
    pub fn spmspm_macs(&self, rhs: &CsrMatrix) -> u64 {
        let mut macs = 0u64;
        for r in 0..self.rows {
            for (k, _) in self.row(r) {
                macs += (rhs.row_ptr[k + 1] - rhs.row_ptr[k]) as u64;
            }
        }
        macs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_round_trip() {
        let dense = Matrix::from_vec(2, 3, vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
        let csr = CsrMatrix::from_dense(&dense);
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.to_dense(), dense);
    }

    #[test]
    fn spmv_matches_dense() {
        let dense = Matrix::random(5, 7, 1.0, 3);
        let csr = CsrMatrix::from_dense(&dense);
        let x: Vec<f32> = (0..7).map(|i| i as f32 * 0.5 - 1.0).collect();
        let sparse_y = csr.spmv(&x);
        for r in 0..5 {
            let dense_y: f32 = (0..7).map(|c| dense.at(r, c) * x[c]).sum();
            assert!((sparse_y[r] - dense_y).abs() < 1e-4);
        }
    }

    #[test]
    fn spmspm_matches_dense_matmul() {
        let a = CsrMatrix::random(6, 8, 0.4, 1);
        let b = CsrMatrix::random(8, 5, 0.4, 2);
        let sparse = a.spmspm(&b).to_dense();
        let dense = a.to_dense().matmul(&b.to_dense());
        for r in 0..6 {
            for c in 0..5 {
                assert!((sparse.at(r, c) - dense.at(r, c)).abs() < 1e-4, "mismatch at ({r},{c})");
            }
        }
    }

    #[test]
    fn macs_bound_output_work() {
        let a = CsrMatrix::random(10, 10, 0.3, 5);
        let b = CsrMatrix::random(10, 10, 0.3, 6);
        let macs = a.spmspm_macs(&b);
        assert!(macs > 0);
        // MACs can never exceed the dense count.
        assert!(macs <= 10 * 10 * 10);
    }

    #[test]
    fn density_reflects_request() {
        let m = CsrMatrix::random(50, 50, 0.2, 7);
        assert!((m.density() - 0.2).abs() < 0.05, "density {}", m.density());
    }

    #[test]
    fn empty_rows_handled() {
        let dense = Matrix::zeros(3, 3);
        let csr = CsrMatrix::from_dense(&dense);
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.spmv(&[1.0, 1.0, 1.0]), vec![0.0, 0.0, 0.0]);
        let out = csr.spmspm(&csr);
        assert_eq!(out.nnz(), 0);
    }
}
