//! Row-major dense matrix.

use serde::Serialize;
use std::fmt;
use std::ops::{Index, IndexMut};

/// Errors from linear-algebra operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes are incompatible.
    ShapeMismatch {
        lhs: (usize, usize),
        rhs: (usize, usize),
    },
    /// A factorization found the matrix singular or not positive-definite.
    NotPositiveDefinite,
    /// The system is rank-deficient (no unique least-squares solution).
    RankDeficient,
    /// An iterative method failed to converge.
    NoConvergence { iterations: usize },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { lhs, rhs } => {
                write!(
                    f,
                    "shape mismatch: {}x{} vs {}x{}",
                    lhs.0, lhs.1, rhs.0, rhs.1
                )
            }
            LinalgError::NotPositiveDefinite => write!(f, "matrix is not positive definite"),
            LinalgError::RankDeficient => write!(f, "matrix is rank deficient"),
            LinalgError::NoConvergence { iterations } => {
                write!(f, "no convergence after {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the identity matrix of size `n`.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row-major data. Panics if `data.len() != rows*cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Matrix { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Matrix {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow of row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy of column `j`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Simultaneous mutable borrows of two distinct rows. Panics if `i == j`.
    #[inline]
    pub fn row_pair_mut(&mut self, i: usize, j: usize) -> (&mut [f64], &mut [f64]) {
        assert_ne!(i, j, "row_pair_mut requires distinct rows");
        let cols = self.cols;
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        let (head, tail) = self.data.split_at_mut(hi * cols);
        let lo_row = &mut head[lo * cols..(lo + 1) * cols];
        let hi_row = &mut tail[..cols];
        if i < j {
            (lo_row, hi_row)
        } else {
            (hi_row, lo_row)
        }
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            let row = self.row(i);
            for (j, &v) in row.iter().enumerate() {
                t[(j, i)] = v;
            }
        }
        t
    }

    /// Matrix product `self * rhs`. i-k-j loop order keeps the inner axpy
    /// contiguous in both operands.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let orow = out.row_mut(i);
            for (k, &a) in self.row(i).iter().enumerate() {
                crate::kernel::axpy(orow, a, rhs.row(k));
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if self.cols != x.len() {
            return Err(LinalgError::ShapeMismatch {
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|i| crate::kernel::dot(self.row(i), x))
            .collect())
    }

    /// Gram matrix `selfᵀ * self` (symmetric, cols × cols), computed without
    /// materializing the transpose: each input row rank-1-updates the upper
    /// triangle through contiguous axpys.
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..n {
                let grow = &mut g.data[i * n + i..(i + 1) * n];
                crate::kernel::axpy(grow, row[i], &row[i..]);
            }
        }
        for i in 0..n {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Largest absolute elementwise difference to `other`; infinity if shapes
    /// differ. Useful in tests.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        if self.shape() != other.shape() {
            return f64::INFINITY;
        }
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_rows_length_checked() {
        Matrix::from_rows(2, 2, vec![1.0]);
    }

    #[test]
    fn identity_and_zeros() {
        let i = Matrix::identity(3);
        assert_eq!(i[(1, 1)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        let z = Matrix::zeros(2, 2);
        assert!(z.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (4, 3));
        assert_eq!(t[(2, 1)], m[(1, 2)]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_against_hand_computed() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_rows(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let m = Matrix::from_fn(3, 3, |i, j| (i + 2 * j) as f64);
        assert_eq!(m.matmul(&Matrix::identity(3)).unwrap(), m);
        assert_eq!(Matrix::identity(3).matmul(&m).unwrap(), m);
    }

    #[test]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matvec_works() {
        let a = Matrix::from_rows(2, 3, vec![1.0, 0.0, 2.0, 0.0, 1.0, -1.0]);
        let y = a.matvec(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(y, vec![7.0, -1.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn gram_matches_explicit_transpose_product() {
        let a = Matrix::from_fn(4, 3, |i, j| ((i * 3 + j) % 5) as f64 - 2.0);
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        assert!(g.max_abs_diff(&explicit) < 1e-12);
    }

    #[test]
    fn row_pair_mut_either_order() {
        let mut m = Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64);
        {
            let (r2, r0) = m.row_pair_mut(2, 0);
            assert_eq!(r2, &[4.0, 5.0]);
            assert_eq!(r0, &[0.0, 1.0]);
            r2[0] = -1.0;
        }
        assert_eq!(m[(2, 0)], -1.0);
        let (r0, r1) = m.row_pair_mut(0, 1);
        assert_eq!(r0, &[0.0, 1.0]);
        assert_eq!(r1, &[2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "distinct rows")]
    fn row_pair_mut_same_row_panics() {
        let mut m = Matrix::zeros(2, 2);
        let _ = m.row_pair_mut(1, 1);
    }

    #[test]
    fn frobenius() {
        let m = Matrix::from_rows(1, 2, vec![3.0, 4.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn max_abs_diff_shape_mismatch() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(2, 1);
        assert_eq!(a.max_abs_diff(&b), f64::INFINITY);
    }
}
