//! Dense row-major matrices and elementwise kernels.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dense row-major `f32` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// An all-zeros matrix.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Matrix { rows, cols, data }
    }

    /// A seeded random matrix with entries in `[-scale, scale]`.
    pub fn random(rows: usize, cols: usize, scale: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows * cols).map(|_| rng.gen_range(-scale..=scale)).collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Element access.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn at(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub(crate) fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        &mut self.data[r * self.cols + c]
    }

    /// Matrix multiplication `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimensions disagree");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in orow.iter_mut().zip(row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Adds a bias row vector to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != self.cols`.
    pub(crate) fn add_bias(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            for (c, b) in bias.iter().enumerate() {
                self.data[r * self.cols + c] += b;
            }
        }
    }

    /// Applies ReLU in place.
    pub(crate) fn relu(&mut self) {
        for x in &mut self.data {
            *x = x.max(0.0);
        }
    }

    /// Applies a numerically stable row-wise softmax in place.
    pub(crate) fn softmax_rows(&mut self) {
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for x in row.iter_mut() {
                *x = (*x - m).exp();
                sum += *x;
            }
            for x in row.iter_mut() {
                *x /= sum;
            }
        }
    }

    /// Mutable access to the underlying row-major data.
    pub(crate) fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The transposed matrix.
    pub(crate) fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Applies a numerically stable logistic sigmoid in place.
    pub(crate) fn sigmoid(&mut self) {
        for x in &mut self.data {
            *x = if *x >= 0.0 {
                1.0 / (1.0 + (-*x).exp())
            } else {
                let e = x.exp();
                e / (1.0 + e)
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_correctness() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut eye = Matrix::zeros(3, 3);
        for i in 0..3 {
            *eye.at_mut(i, i) = 1.0;
        }
        let a = Matrix::random(3, 3, 1.0, 4);
        assert_eq!(a.matmul(&eye), a);
    }

    #[test]
    fn relu_and_bias() {
        let mut m = Matrix::from_vec(1, 3, vec![-1.0, 0.5, 2.0]);
        m.add_bias(&[0.5, 0.5, 0.5]);
        m.relu();
        assert_eq!(m.data(), &[0.0, 1.0, 2.5]);
    }

    #[test]
    fn softmax_rows_normalize() {
        let mut m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0]);
        m.softmax_rows();
        for r in 0..2 {
            let s: f32 = (0..3).map(|c| m.at(r, c)).sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        // Large magnitudes stay finite.
        assert!(m.data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn transpose_roundtrips() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!((t.rows(), t.cols()), (3, 2));
        assert_eq!(t.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn sigmoid_is_stable_and_bounded() {
        let mut m = Matrix::from_vec(1, 4, vec![-100.0, 0.0, 2.0, 100.0]);
        m.sigmoid();
        assert!(m.data().iter().all(|x| x.is_finite() && (0.0..=1.0).contains(x)));
        assert!((m.at(0, 1) - 0.5).abs() < 1e-6);
        assert!(m.at(0, 0) < 1e-6);
        assert!(m.at(0, 3) > 1.0 - 1e-6);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_checks_dims() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 2);
        let _ = a.matmul(&b);
    }
}
