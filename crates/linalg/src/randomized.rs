//! Randomized truncated eigendecomposition for symmetric PSD matrices.
//!
//! SSA only ever keeps the leading `r ≪ L` eigentriples of the `L × L`
//! trajectory Gram matrix, yet the dense cyclic-Jacobi path pays for all
//! `L` of them. This module implements the classic randomized subspace
//! recipe (Halko–Martinsson–Tropp): sketch the range with a seeded Gaussian
//! test matrix, sharpen it with a few power iterations, project the problem
//! into the `q`-dimensional subspace, and solve the tiny `q × q`
//! eigenproblem with the existing Jacobi code. With oversampling `q =
//! r + p` the leading `r` eigenpairs come out accurate to working precision
//! for the rapidly-decaying spectra SSA produces.
//!
//! Everything is deterministic: the Gaussian sketch comes from a seeded
//! [`SubspaceRng`] (the same SplitMix64 stream as `seagull-telemetry`'s
//! `DetRng`), so a given `(matrix, sketch shape, seed)` always yields the same
//! decomposition, independent of threads or call ordering.

use crate::eigen::symmetric_eigen;
use crate::kernel;
use crate::matrix::{LinalgError, Matrix};

/// SplitMix64 stream — deliberately the same generator as
/// `seagull_telemetry::DetRng`, re-implemented here so the linalg substrate
/// stays dependency-free. Used only to draw the Gaussian sketch.
#[derive(Debug, Clone)]
pub struct SubspaceRng {
    state: u64,
}

impl SubspaceRng {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> SubspaceRng {
        SubspaceRng { state: seed }
    }

    /// Next raw 64-bit value (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard normal deviate via Box–Muller (one of the pair; the other
    /// is discarded to keep the stream position a simple function of the
    /// draw count).
    pub fn next_gaussian(&mut self) -> f64 {
        // Guard against ln(0): push u1 into (0, 1].
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// Truncated eigendecomposition of a symmetric PSD matrix: the leading
/// `rank` eigenpairs, eigenvalues descending.
///
/// Eigenvectors are returned as *rows* of `vectors_t` (each row contiguous)
/// because every consumer walks whole eigenvectors; transpose if column
/// orientation is needed.
#[derive(Debug, Clone)]
pub struct TruncatedEigh {
    /// Leading eigenvalues, descending, length `rank`.
    pub values: Vec<f64>,
    /// Eigenvectors, one per **row**, index-aligned with `values`
    /// (`rank × n`, pool-backed — recycle in hot loops).
    pub vectors_t: Matrix,
}

impl TruncatedEigh {
    /// Returns the backing stores to the scratch pool.
    pub fn recycle(self) {
        self.vectors_t.recycle();
    }
}

/// The transposed Gaussian test matrix `Ωᵀ` (`rows × cols`, pool-backed)
/// drawn from a seeded [`SubspaceRng`]. It depends only on shape and seed,
/// never on the data, so one sketch serves every [`truncated_eigh`] call on
/// problems of that shape.
pub fn gaussian_sketch(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = SubspaceRng::new(seed);
    let mut m = Matrix::zeros_pooled(rows, cols);
    for v in m.data_mut() {
        *v = rng.next_gaussian();
    }
    m
}

/// Computes the leading eigenpairs of symmetric PSD `g` (`n × n`) by the
/// randomized subspace method, one per row of the caller's sketch `omega_t`
/// (`Ωᵀ`, `rank × n`, from [`gaussian_sketch`]); falls back to dense Jacobi
/// (truncated afterwards, sketch unused) when the sketch would not be
/// meaningfully smaller than the matrix.
///
/// Deterministic for fixed `(g, omega_t, power_iters)`. Rank-deficient input
/// is fine: directions the range finder cannot resolve are deflated to zero
/// vectors with zero eigenvalues and sort to the tail.
pub fn truncated_eigh(
    g: &Matrix,
    omega_t: &Matrix,
    power_iters: usize,
) -> Result<TruncatedEigh, LinalgError> {
    let n = g.rows();
    if g.cols() != n {
        return Err(LinalgError::ShapeMismatch {
            lhs: g.shape(),
            rhs: g.shape(),
        });
    }
    if omega_t.cols() != n {
        return Err(LinalgError::ShapeMismatch {
            lhs: omega_t.shape(),
            rhs: g.shape(),
        });
    }
    let q = omega_t.rows().min(n);
    if q == 0 {
        return Ok(TruncatedEigh {
            values: Vec::new(),
            vectors_t: Matrix::zeros(0, n),
        });
    }
    // A sketch nearly as wide as the matrix saves nothing — use Jacobi.
    if 2 * q >= n {
        let eig = symmetric_eigen(g, 100)?;
        let vectors_t = Matrix::from_fn(q, n, |c, i| eig.vectors[(i, c)]);
        return Ok(TruncatedEigh {
            values: eig.values[..q].to_vec(),
            vectors_t,
        });
    }
    project_with_sketch(g, omega_t, power_iters)
}

/// Range-find with the given sketch, power-iterate, project, solve the
/// small problem, lift back.
fn project_with_sketch(
    g: &Matrix,
    omega_t: &Matrix,
    power_iters: usize,
) -> Result<TruncatedEigh, LinalgError> {
    let q = omega_t.rows();
    let n = g.rows();
    // Range finder: Yᵀ = Ωᵀ G. Working with transposed blocks keeps every
    // basis vector a contiguous row.
    let mut yt = omega_t.matmul_pooled(g)?;
    orthonormalize_rows(&mut yt);
    // Power iterations: Yᵀ ← orth(Yᵀ) G, sharpening the subspace towards
    // the leading invariant one. G is symmetric so row-times-G is exact.
    for _ in 0..power_iters {
        let next = yt.matmul_pooled(g)?;
        yt.recycle();
        yt = next;
        orthonormalize_rows(&mut yt);
    }

    // Project: B = Q G Qᵀ (q × q), solve densely, lift back.
    let qg = yt.matmul_pooled(g)?;
    let b = Matrix::from_fn(q, q, |i, j| kernel::dot(qg.row(i), yt.row(j)));
    qg.recycle();
    let small = symmetric_eigen(&b, 100)?;
    // vectors_t[c] = Σ_j W[j][c] · Q[j] — contiguous axpys.
    let mut vectors_t = Matrix::zeros_pooled(q, n);
    for c in 0..q {
        let row = vectors_t.row_mut(c);
        for j in 0..q {
            kernel::axpy(row, small.vectors[(j, c)], yt.row(j));
        }
    }
    yt.recycle();
    Ok(TruncatedEigh {
        values: small.values,
        vectors_t,
    })
}

/// Modified Gram–Schmidt over the rows of `m`, in place. Rows whose
/// residual norm collapses (rank deficiency in the sketch) are deflated to
/// zero rather than normalized into noise.
fn orthonormalize_rows(m: &mut Matrix) {
    let rows = m.rows();
    let scale = {
        let data = m.data();
        (kernel::norm_sq(data) / (rows.max(1) as f64)).sqrt()
    };
    let tol = 1e-12 * scale.max(1e-300);
    for i in 0..rows {
        for j in 0..i {
            let (ri, rj) = m.row_pair_mut(i, j);
            let r = kernel::dot(ri, rj);
            kernel::axmy(ri, r, rj);
        }
        let row = m.row_mut(i);
        let norm = kernel::norm_sq(row).sqrt();
        if norm <= tol {
            row.fill(0.0);
        } else {
            kernel::scale(row, 1.0 / norm);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0x5ea9_0111_7af1_75eb;

    /// Leading `rank` eigenpairs of `g` from a freshly drawn sketch, two
    /// power iterations.
    fn eigh(g: &Matrix, rank: usize) -> Result<TruncatedEigh, LinalgError> {
        truncated_eigh(g, &gaussian_sketch(rank, g.rows(), SEED), 2)
    }

    fn psd(n: usize, decay: f64) -> Matrix {
        // Σ λ_c u_c u_cᵀ with geometric eigenvalues and a fixed orthogonal
        // basis built from shifted cosines.
        let basis = {
            let raw = Matrix::from_fn(n, n, |i, j| {
                ((i * j) as f64 * 0.7 + i as f64 * 0.13).cos() + if i == j { 2.0 } else { 0.0 }
            });
            let mut m = raw;
            orthonormalize_rows(&mut m);
            m
        };
        let mut g = Matrix::zeros(n, n);
        for c in 0..n {
            let lambda = decay.powi(c as i32);
            for i in 0..n {
                let ui = basis[(c, i)];
                if ui == 0.0 {
                    continue;
                }
                kernel::axpy(g.row_mut(i), lambda * ui, basis.row(c));
            }
        }
        g
    }

    #[test]
    fn leading_eigenpairs_match_dense_jacobi() {
        let g = psd(40, 0.6);
        let dense = symmetric_eigen(&g, 100).unwrap();
        let trunc = eigh(&g, 14).unwrap();
        assert_eq!(trunc.values.len(), 14);
        for c in 0..6 {
            let rel = (trunc.values[c] - dense.values[c]).abs() / dense.values[0];
            assert!(rel < 1e-9, "eigenvalue {c}: rel err {rel}");
            // Eigenvectors match up to sign.
            let dot: f64 = (0..40)
                .map(|i| trunc.vectors_t[(c, i)] * dense.vectors[(i, c)])
                .sum();
            assert!(
                dot.abs() > 1.0 - 1e-7,
                "eigenvector {c}: |dot| {}",
                dot.abs()
            );
        }
    }

    #[test]
    fn deterministic_across_calls() {
        let g = psd(32, 0.7);
        let a = eigh(&g, 10).unwrap();
        let b = eigh(&g, 10).unwrap();
        assert_eq!(a.values, b.values);
        assert_eq!(a.vectors_t.data(), b.vectors_t.data());
    }

    #[test]
    fn rank_deficient_input_deflates() {
        // Rank-1 PSD matrix: one real eigenpair, the rest ~0.
        let n = 24;
        let g = Matrix::from_fn(n, n, |i, j| ((i + 1) * (j + 1)) as f64);
        let trunc = eigh(&g, 6).unwrap();
        assert!(trunc.values[0] > 0.0);
        for c in 1..6 {
            assert!(
                trunc.values[c].abs() <= 1e-6 * trunc.values[0],
                "trailing eigenvalue {c} = {}",
                trunc.values[c]
            );
        }
        for v in trunc.vectors_t.data() {
            assert!(v.is_finite());
        }
    }

    #[test]
    fn small_matrix_falls_back_to_dense() {
        let g = Matrix::from_rows(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let trunc = eigh(&g, 2).unwrap();
        assert!((trunc.values[0] - 3.0).abs() < 1e-10);
        assert!((trunc.values[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn orthonormal_output_rows() {
        let g = psd(36, 0.5);
        let trunc = eigh(&g, 12).unwrap();
        for i in 0..12 {
            for j in 0..=i {
                let d = kernel::dot(trunc.vectors_t.row(i), trunc.vectors_t.row(j));
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-8, "({i},{j}) dot {d}");
            }
        }
    }

    #[test]
    fn non_square_rejected() {
        let g = Matrix::zeros(3, 4);
        assert!(eigh(&g, 2).is_err());
    }

    #[test]
    fn wrong_sketch_shape_rejected() {
        let g = psd(30, 0.5);
        let sketch = gaussian_sketch(5, 29, 1);
        assert!(truncated_eigh(&g, &sketch, 2).is_err());
    }

    #[test]
    fn gaussian_stream_is_reasonable() {
        let mut rng = SubspaceRng::new(42);
        let n = 20_000;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for _ in 0..n {
            let g = rng.next_gaussian();
            sum += g;
            sq += g * g;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
