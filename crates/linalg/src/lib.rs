//! # seagull-linalg
//!
//! Small dense linear-algebra substrate for the Seagull forecasting models.
//!
//! The paper's model zoo leans on numerical kernels that its Python stack got
//! for free (ML.NET's SSA decomposition, Prophet's penalized regression,
//! ARIMA's least-squares fits). This crate provides the from-scratch
//! equivalents: a row-major dense [`Matrix`], Cholesky and QR solvers, ridge
//! regression, a cyclic-Jacobi symmetric eigendecomposition, a randomized
//! truncated eigensolver for when only the leading subspace is needed, a thin
//! SVD, and Hankel-matrix helpers for singular spectrum analysis.
//!
//! Matrices here are small (SSA windows are ≤ a few hundred columns), so
//! blocking is unnecessary — but the inner loops matter. Every hot path
//! bottoms out in the two kernels of [`kernel`] (multi-accumulator dot and
//! axpy over contiguous rows, one `mul_add` per element, no per-element
//! bounds checks) and borrows its buffers from the thread-local [`scratch`]
//! pool so steady-state fitting is allocation-free. On baseline x86-64 a
//! `mul_add` is a libm call, so [`kernel`] compiles the same two loop bodies
//! a second time with AVX2+FMA enabled and picks that copy at run time when
//! the CPU has both; the results are the same bits either way (see the
//! module's docs), and the two `unsafe` calls this needs are the only ones
//! in the crate.

#![deny(unsafe_code)]

pub mod eigen;
pub mod hankel;
pub mod kernel;
pub mod matrix;
pub mod randomized;
pub mod scratch;
pub mod solve;
pub mod svd;

pub use eigen::{symmetric_eigen, SymmetricEigen};
pub use hankel::{hankel_gram, hankel_matrix, hankelize};
pub use matrix::{LinalgError, Matrix};
pub use randomized::{gaussian_sketch, truncated_eigh, SubspaceRng, TruncatedEigh};
pub use scratch::ScratchStats;
pub use solve::{cholesky_solve, least_squares, ridge_regression};
pub use svd::{thin_svd, ThinSvd};
