//! Linear solvers: Cholesky, Householder QR least squares, ridge regression.
//!
//! All three route their inner loops through `dot`/`axpy`/`axmy` of
//! [`crate::kernel`] — which run as `vfmadd` vectors where the CPU has
//! AVX2+FMA and as one libm `fma` call per element where it does not, with
//! the same bits out — and borrow workspace from the thread-local
//! [`crate::scratch`] pool, so repeated fits are allocation-free.

use crate::kernel;
use crate::matrix::{LinalgError, Matrix};
use crate::scratch;

/// Solves `A x = b` for symmetric positive-definite `A` via Cholesky
/// factorization (`A = L Lᵀ`).
pub fn cholesky_solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let n = a.rows();
    if a.cols() != n || b.len() != n {
        return Err(LinalgError::ShapeMismatch {
            lhs: a.shape(),
            rhs: (b.len(), 1),
        });
    }
    // Factorize into a lower triangle stored densely (pooled workspace).
    // Row-prefix dot products replace the indexed k-loops.
    let mut l = scratch::take(n * n);
    l.resize(n * n, 0.0);
    for i in 0..n {
        let (head, tail) = l.split_at_mut(i * n);
        let li = &mut tail[..n];
        for j in 0..i {
            let lj = &head[j * n..j * n + j + 1];
            let sum = a[(i, j)] - kernel::dot(&li[..j], &lj[..j]);
            li[j] = sum / lj[j];
        }
        let diag = a[(i, i)] - kernel::norm_sq(&li[..i]);
        if diag <= 0.0 || !diag.is_finite() {
            scratch::recycle(l);
            return Err(LinalgError::NotPositiveDefinite);
        }
        li[i] = diag.sqrt();
    }
    // Forward substitution: L y = b.
    let mut y = scratch::take(n);
    for i in 0..n {
        let row = &l[i * n..i * n + i];
        let sum = b[i] - kernel::dot(row, &y);
        y.push(sum / l[i * n + i]);
    }
    // Back substitution: Lᵀ x = y (column access is strided; n is small
    // enough here that the walk is cache-resident anyway).
    let mut x = vec![0.0f64; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in i + 1..n {
            sum -= l[k * n + i] * x[k];
        }
        x[i] = sum / l[i * n + i];
    }
    scratch::recycle(y);
    scratch::recycle(l);
    Ok(x)
}

/// Solves the least-squares problem `min ||A x - b||₂` for a tall matrix
/// (`rows >= cols`) via Householder QR with implicit Q application.
///
/// Internally works on `Aᵀ` so each Householder reflector touches
/// *contiguous* rows (the columns of `A`), letting the whole O(m·n²)
/// triangularization run through the chunked dot/axpy kernels.
pub fn least_squares(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let (m, n) = a.shape();
    if b.len() != m {
        return Err(LinalgError::ShapeMismatch {
            lhs: a.shape(),
            rhs: (b.len(), 1),
        });
    }
    if m < n {
        return Err(LinalgError::RankDeficient);
    }
    // at row j = column j of A, contiguous. R accumulates transposed in at:
    // R[i][j] = at[(j, i)] for j >= i.
    let mut at = a.transpose();
    let mut rhs = scratch::take(m);
    rhs.extend_from_slice(b);
    let mut v = scratch::take(m);
    let cleanup = |at: Matrix, rhs: Vec<f64>, v: Vec<f64>| {
        at.recycle();
        scratch::recycle(rhs);
        scratch::recycle(v);
    };
    // Householder triangularization, applying each reflector to rhs as we go.
    for k in 0..n {
        let norm = kernel::norm_sq(&at.row(k)[k..]).sqrt();
        if norm < 1e-14 {
            cleanup(at, rhs, v);
            return Err(LinalgError::RankDeficient);
        }
        let akk = at[(k, k)];
        let alpha = if akk >= 0.0 { -norm } else { norm };
        // v = x - alpha * e_k, normalized implicitly through vtv.
        v.clear();
        v.extend_from_slice(&at.row(k)[k..]);
        v[0] = akk - alpha;
        let vtv = kernel::norm_sq(&v);
        if vtv < 1e-300 {
            continue; // Column already triangular.
        }
        // Apply H = I - 2 v vᵀ / vᵀv to the remaining columns of A
        // (= remaining rows of at, each a contiguous slice).
        for j in k..n {
            let row = &mut at.row_mut(j)[k..];
            let d = kernel::dot(&v, row);
            kernel::axmy(row, 2.0 * d / vtv, &v);
        }
        // And to the right-hand side.
        let tail = &mut rhs[k..];
        let d = kernel::dot(&v, tail);
        kernel::axmy(tail, 2.0 * d / vtv, &v);
    }
    // Back substitution on the n×n upper triangle (strided reads of Rᵀ —
    // n is small, the triangle is cache-resident).
    let mut x = vec![0.0f64; n];
    for i in (0..n).rev() {
        let mut sum = rhs[i];
        for j in i + 1..n {
            sum -= at[(j, i)] * x[j];
        }
        let d = at[(i, i)];
        if d.abs() < 1e-12 {
            cleanup(at, rhs, v);
            return Err(LinalgError::RankDeficient);
        }
        x[i] = sum / d;
    }
    cleanup(at, rhs, v);
    Ok(x)
}

/// Ridge regression: solves `min ||A x - b||² + lambda ||x||²` via the normal
/// equations `(AᵀA + λI) x = Aᵀ b`, which are positive definite for λ > 0.
///
/// This is the fitting backend for the Prophet-style additive model, where the
/// Fourier design matrix can be nearly collinear and the paper's original uses
/// a penalized fit.
pub fn ridge_regression(a: &Matrix, b: &[f64], lambda: f64) -> Result<Vec<f64>, LinalgError> {
    if b.len() != a.rows() {
        return Err(LinalgError::ShapeMismatch {
            lhs: a.shape(),
            rhs: (b.len(), 1),
        });
    }
    let mut gram = a.gram();
    for i in 0..gram.rows() {
        gram[(i, i)] += lambda;
    }
    // Aᵀ b without materializing the transpose: one contiguous axpy per row.
    let n = a.cols();
    let mut atb = scratch::take(n);
    atb.resize(n, 0.0);
    for (i, &bi) in b.iter().enumerate() {
        kernel::axpy(&mut atb, bi, a.row(i));
    }
    let x = cholesky_solve(&gram, &atb);
    gram.recycle();
    scratch::recycle(atb);
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} != {b:?}");
        }
    }

    #[test]
    fn cholesky_solves_spd_system() {
        // A = [[4,2],[2,3]], b = [10, 9] -> x = [1.5, 2]
        let a = Matrix::from_rows(2, 2, vec![4.0, 2.0, 2.0, 3.0]);
        let x = cholesky_solve(&a, &[10.0, 9.0]).unwrap();
        assert_close(&x, &[1.5, 2.0], 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 1.0]);
        assert!(matches!(
            cholesky_solve(&a, &[1.0, 1.0]),
            Err(LinalgError::NotPositiveDefinite)
        ));
    }

    #[test]
    fn cholesky_shape_checked() {
        let a = Matrix::zeros(2, 3);
        assert!(cholesky_solve(&a, &[1.0, 1.0]).is_err());
        let b = Matrix::identity(2);
        assert!(cholesky_solve(&b, &[1.0]).is_err());
    }

    #[test]
    fn least_squares_exact_square() {
        let a = Matrix::from_rows(2, 2, vec![2.0, 0.0, 0.0, 4.0]);
        let x = least_squares(&a, &[2.0, 8.0]).unwrap();
        assert_close(&x, &[1.0, 2.0], 1e-12);
    }

    #[test]
    fn least_squares_overdetermined_line_fit() {
        // Fit y = 1 + 2 t through noisy-free points: exact recovery.
        let ts = [0.0, 1.0, 2.0, 3.0, 4.0];
        let a = Matrix::from_fn(5, 2, |i, j| if j == 0 { 1.0 } else { ts[i] });
        let b: Vec<f64> = ts.iter().map(|t| 1.0 + 2.0 * t).collect();
        let x = least_squares(&a, &b).unwrap();
        assert_close(&x, &[1.0, 2.0], 1e-10);
    }

    #[test]
    fn least_squares_minimizes_residual() {
        // Inconsistent system: the LS solution must satisfy the normal
        // equations Aᵀ(Ax - b) = 0.
        let a = Matrix::from_rows(3, 2, vec![1.0, 1.0, 1.0, 2.0, 1.0, 3.0]);
        let b = [1.0, 2.0, 2.0];
        let x = least_squares(&a, &b).unwrap();
        let ax = a.matvec(&x).unwrap();
        let resid: Vec<f64> = ax.iter().zip(&b).map(|(p, q)| p - q).collect();
        let at_r = a.transpose().matvec(&resid).unwrap();
        for v in at_r {
            assert!(v.abs() < 1e-10);
        }
    }

    #[test]
    fn least_squares_detects_rank_deficiency() {
        // Two identical columns.
        let a = Matrix::from_rows(3, 2, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
        assert!(least_squares(&a, &[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn least_squares_underdetermined_rejected() {
        let a = Matrix::zeros(1, 2);
        assert!(least_squares(&a, &[1.0]).is_err());
    }

    #[test]
    fn ridge_shrinks_towards_zero() {
        let ts = [0.0, 1.0, 2.0, 3.0, 4.0];
        let a = Matrix::from_fn(5, 2, |i, j| if j == 0 { 1.0 } else { ts[i] });
        let b: Vec<f64> = ts.iter().map(|t| 1.0 + 2.0 * t).collect();
        let x0 = ridge_regression(&a, &b, 1e-9).unwrap();
        assert_close(&x0, &[1.0, 2.0], 1e-5);
        let x_big = ridge_regression(&a, &b, 1e6).unwrap();
        assert!(x_big[1].abs() < 0.1);
    }

    #[test]
    fn ridge_handles_collinear_columns() {
        // Identical columns break plain LS but ridge stays solvable.
        let a = Matrix::from_rows(3, 2, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
        let x = ridge_regression(&a, &[2.0, 4.0, 6.0], 1e-6).unwrap();
        // Symmetric solution splits the weight.
        assert!((x[0] - x[1]).abs() < 1e-6);
        assert!((x[0] + x[1] - 2.0).abs() < 1e-3);
    }
}
