//! Chunked vector kernels built on fused multiply-add, with a
//! runtime-detected AVX2+FMA compilation on x86-64.
//!
//! Every hot inner loop in this crate bottoms out in one of two shapes: a
//! dot product (`Σ aᵢ·bᵢ`) or an axpy (`yᵢ += α·xᵢ`). Both are written over
//! fixed-width chunks with independent accumulators — `chunks_exact` erases
//! the bounds checks and the 8/4-wide banks give the backend straight-line
//! code it can vectorize — and handle the ragged tail separately. Each step
//! is an `f64::mul_add`, one rounding per element.
//!
//! # What `mul_add` compiles to, and the dispatch rule
//!
//! The workspace is built for baseline x86-64, which has no FMA instruction.
//! There `mul_add` lowers to `call fma`: the `compiler_builtins` libm, which
//! goes through a function pointer to a scalar `vfmadd…sd` or to a software
//! routine, on every call. A loop of them makes two calls per element and
//! vectorizes nothing. The loop bodies are therefore compiled twice from the
//! same source: the private `dot_body` and `axpy_body` are the portable
//! definition, and on `x86_64` one more copy of each is compiled under
//! `#[target_feature(enable = "avx2,fma")]`, where the `mul_add`s become
//! packed `vfmadd…pd`. [`dot`] and [`axpy`] pick the second copy per call
//! when `is_x86_feature_detected!` reports both features (a cached atomic
//! load), and the portable one otherwise. [`norm_sq`] and [`axmy`] are built
//! on the two. On `aarch64` `fmadd` is baseline and `mul_add` already
//! inlines, so there is only the one body.
//!
//! # Why the bits cannot differ
//!
//! IEEE 754 defines `fma(a, b, c)` as `a·b + c` rounded once, so a software
//! `fma`, a scalar `vfmadd…sd` and one lane of a `vfmadd…pd` return the same
//! value. Vectorizing does not reorder anything either: every output
//! element (an accumulator lane of `dot`, an element of `y` in `axpy`) keeps
//! its own chain of operations in source order, and the final reduction of
//! `dot` is written out as a fixed tree. So both compilations return the
//! same bits for the same input, every caller — `hankel_gram`, `Matrix`
//! products, the solvers, the SSA fit — returns what it returned before the
//! dispatch existed, and no tolerance or golden anywhere moves. The one
//! exception is which NaN comes out when several meet in one operation
//! (IEEE 754 and Rust leave a NaN's sign and payload open); a NaN result is
//! a NaN on both routes. `tests::dispatched_*` pins all of this.
//!
//! Two cheaper-looking routes were not taken. Writing `a * b + c` would
//! vectorize on baseline x86-64, but it rounds twice and would move every
//! SSA prediction, the randomized-vs-dense parity numbers and the model
//! cache's drift statistics in the last places. Building with
//! `-C target-cpu`/`target-feature` would inline `vfmadd` everywhere, but
//! the binary then traps on a machine without FMA and the speed depends on
//! a build option someone must remember; there is no cargo feature or
//! environment variable here for the same reason.
//!
//! # The `unsafe` sites
//!
//! Calling a `#[target_feature]` function from one without those features
//! is `unsafe`: executing `vfmadd` on a CPU that lacks it is undefined.
//! There is exactly one such call per dispatched kernel, each directly
//! under the `is_x86_feature_detected!` check that justifies it. The crate
//! is `#![deny(unsafe_code)]` and [`dot`] and [`axpy`] alone carry an
//! `#[allow(unsafe_code)]`; every other crate of the workspace forbids it.
//!
//! Accumulation order is fixed by the chunk layout, so results are
//! deterministic for a given input (they differ from a serial left-to-right
//! sum by the usual floating-point reassociation, which every caller in
//! this workspace tolerates).

/// Chunk width for the dot-product accumulator bank.
const DOT_LANES: usize = 8;

/// The definition of [`dot`]: an 8-wide accumulator bank over the common
/// prefix, a serial tail, and a fixed reduction tree.
#[inline(always)]
fn dot_body(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f64; DOT_LANES];
    let mut ca = a.chunks_exact(DOT_LANES);
    let mut cb = b.chunks_exact(DOT_LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..DOT_LANES {
            acc[l] = xa[l].mul_add(xb[l], acc[l]);
        }
    }
    let mut tail = 0.0;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail = x.mul_add(*y, tail);
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
}

/// The definition of [`axpy`]: 4-wide chunks over the common prefix, then
/// the tail, one `mul_add` per element.
#[inline(always)]
fn axpy_body(y: &mut [f64], alpha: f64, x: &[f64]) {
    if alpha == 0.0 {
        return;
    }
    let n = y.len().min(x.len());
    let (y, x) = (&mut y[..n], &x[..n]);
    let mut cy = y.chunks_exact_mut(4);
    let mut cx = x.chunks_exact(4);
    for (wy, wx) in (&mut cy).zip(&mut cx) {
        wy[0] = wx[0].mul_add(alpha, wy[0]);
        wy[1] = wx[1].mul_add(alpha, wy[1]);
        wy[2] = wx[2].mul_add(alpha, wy[2]);
        wy[3] = wx[3].mul_add(alpha, wy[3]);
    }
    for (py, px) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
        *py = px.mul_add(alpha, *py);
    }
}

/// [`dot_body`] compiled with AVX2 and FMA enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn dot_avx2_fma(a: &[f64], b: &[f64]) -> f64 {
    dot_body(a, b)
}

/// [`axpy_body`] compiled with AVX2 and FMA enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn axpy_avx2_fma(y: &mut [f64], alpha: f64, x: &[f64]) {
    axpy_body(y, alpha, x)
}

/// Whether this CPU runs the AVX2+FMA bodies (after the first call, one
/// cached atomic load per feature).
#[cfg(target_arch = "x86_64")]
#[inline]
fn has_avx2_fma() -> bool {
    #[cfg(test)]
    if tests::FORCE_PORTABLE.with(std::cell::Cell::get) {
        return false;
    }
    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
}

/// Dot product `Σ aᵢ·bᵢ` over the common prefix of `a` and `b`, computed
/// with an 8-wide accumulator bank.
///
/// Debug builds assert equal lengths; release builds silently use the
/// shorter slice, matching `Iterator::zip`.
#[inline]
#[allow(unsafe_code)]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot operands must be equal length");
    #[cfg(target_arch = "x86_64")]
    if has_avx2_fma() {
        // SAFETY: `dot_avx2_fma` requires a CPU with AVX2 and FMA, and
        // `has_avx2_fma` has just detected both on the one running this.
        return unsafe { dot_avx2_fma(a, b) };
    }
    dot_body(a, b)
}

/// `y[i] += alpha * x[i]` over the common prefix, in 4-wide chunks.
#[inline]
#[allow(unsafe_code)]
pub fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
    debug_assert_eq!(y.len(), x.len(), "axpy operands must be equal length");
    #[cfg(target_arch = "x86_64")]
    if has_avx2_fma() {
        // SAFETY: `axpy_avx2_fma` requires a CPU with AVX2 and FMA, and
        // `has_avx2_fma` has just detected both on the one running this.
        return unsafe { axpy_avx2_fma(y, alpha, x) };
    }
    axpy_body(y, alpha, x)
}

/// `y[i] -= alpha * x[i]` over the common prefix — the subtraction twin of
/// [`axpy`], used by the triangular solvers.
#[inline]
pub fn axmy(y: &mut [f64], alpha: f64, x: &[f64]) {
    axpy(y, -alpha, x);
}

/// Squared Euclidean norm `Σ aᵢ²`.
#[inline]
pub fn norm_sq(a: &[f64]) -> f64 {
    dot(a, a)
}

/// `y[i] *= alpha` in place.
#[inline]
pub fn scale(y: &mut [f64], alpha: f64) {
    for v in y {
        *v *= alpha;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gaussian_sketch, hankel_gram, hankel_matrix, thin_svd, truncated_eigh};
    use proptest::prelude::*;

    thread_local! {
        /// While set, `has_avx2_fma` answers no on this thread, so the
        /// public kernels and everything built on them take the portable
        /// bodies.
        #[cfg(target_arch = "x86_64")]
        pub(super) static FORCE_PORTABLE: std::cell::Cell<bool> =
            const { std::cell::Cell::new(false) };
    }

    /// Runs `f` with the dispatch forced to the portable bodies.
    fn with_portable<R>(f: impl FnOnce() -> R) -> R {
        #[cfg(target_arch = "x86_64")]
        FORCE_PORTABLE.with(|c| c.set(true));
        let out = f();
        #[cfg(target_arch = "x86_64")]
        FORCE_PORTABLE.with(|c| c.set(false));
        out
    }

    /// Which body the public kernels run on this machine, for test output.
    fn route() -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if has_avx2_fma() {
            return "avx2+fma bodies against portable bodies";
        }
        "no AVX2+FMA dispatch on this CPU: both routes are the portable bodies"
    }

    fn series(n: usize, k: u64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as u64).wrapping_mul(k) % 97) as f64 / 7.0 - 5.0)
            .collect()
    }

    #[test]
    fn dot_matches_serial_sum() {
        for n in [0, 1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000] {
            let a = series(n, 31);
            let b = series(n, 17);
            let serial: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let chunked = dot(&a, &b);
            assert!(
                (serial - chunked).abs() <= 1e-9 * serial.abs().max(1.0),
                "n={n}: serial {serial} vs chunked {chunked}"
            );
        }
    }

    #[test]
    fn axpy_matches_serial_update() {
        for n in [0, 1, 2, 3, 4, 5, 11, 100] {
            let x = series(n, 13);
            let mut y = series(n, 29);
            let mut expect = y.clone();
            for (e, v) in expect.iter_mut().zip(&x) {
                *e += 2.5 * v;
            }
            axpy(&mut y, 2.5, &x);
            for (a, b) in y.iter().zip(&expect) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn axpy_zero_alpha_is_noop() {
        let x = vec![f64::MAX; 8];
        let mut y = series(8, 3);
        let before = y.clone();
        axpy(&mut y, 0.0, &x);
        assert_eq!(y, before);
    }

    #[test]
    fn axmy_subtracts() {
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let mut y = vec![10.0; 5];
        axmy(&mut y, 2.0, &x);
        assert_eq!(y, vec![8.0, 6.0, 4.0, 2.0, 0.0]);
    }

    #[test]
    fn norm_sq_and_scale() {
        let mut v = vec![3.0, 4.0];
        assert!((norm_sq(&v) - 25.0).abs() < 1e-12);
        scale(&mut v, 2.0);
        assert_eq!(v, vec![6.0, 8.0]);
    }

    #[test]
    fn dot_deterministic_across_calls() {
        let a = series(1023, 41);
        let b = series(1023, 43);
        assert_eq!(dot(&a, &b).to_bits(), dot(&a, &b).to_bits());
    }

    /// Same bits, or a NaN on both sides: which NaN an operation returns
    /// when several meet in it depends on operand order in the instruction
    /// the compiler picked, which neither IEEE 754 nor Rust pins down.
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    fn value() -> impl Strategy<Value = f64> {
        prop_oneof![
            8 => -100.0f64..100.0,
            1 => prop_oneof![Just(0.0), Just(-0.0)],
            // Subnormals: products underflow, sums stay subnormal.
            1 => prop_oneof![Just(5e-324), Just(-3e-310), Just(f64::MIN_POSITIVE / 2.0)],
            // Sums of these overflow to infinity, and inf − inf to NaN.
            1 => prop_oneof![Just(1e308), Just(-1e308)],
            1 => Just(f64::NAN),
        ]
    }

    fn alpha() -> impl Strategy<Value = f64> {
        prop_oneof![
            4 => value(),
            1 => prop_oneof![Just(0.0), Just(-0.0)],
        ]
    }

    /// Longest slice compared: 8 chunks of `DOT_LANES` plus every remainder
    /// of both chunk widths on the way there.
    const MAX_LEN: usize = 67;
    /// Start offsets into the buffers, so the slices sit at every alignment
    /// relative to a 32-byte vector.
    const MAX_OFFSET: usize = 3;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The public entries return what the portable bodies return, to
        /// the bit, at every length 0..=67 and start offset 0..=3.
        #[test]
        fn dispatched_kernels_equal_the_portable_bodies(
            a in proptest::collection::vec(value(), MAX_OFFSET + MAX_LEN),
            b in proptest::collection::vec(value(), MAX_OFFSET + MAX_LEN),
            alpha in alpha(),
        ) {
            for off in 0..=MAX_OFFSET {
                for len in 0..=MAX_LEN {
                    let (x, y) = (&a[off..off + len], &b[off..off + len]);
                    let what = || format!("{}, offset {off}, len {len}", route());

                    let (got, want) = (dot(x, y), dot_body(x, y));
                    prop_assert!(same(got, want), "dot: {got:e} vs {want:e} ({})", what());
                    let (got, want) = (norm_sq(x), dot_body(x, x));
                    prop_assert!(same(got, want), "norm_sq: {got:e} vs {want:e} ({})", what());

                    let (mut got, mut want) = (y.to_vec(), y.to_vec());
                    axpy(&mut got, alpha, x);
                    axpy_body(&mut want, alpha, x);
                    for (g, w) in got.iter().zip(&want) {
                        prop_assert!(same(*g, *w), "axpy: {g:e} vs {w:e} ({})", what());
                    }
                    let (mut got, mut want) = (y.to_vec(), y.to_vec());
                    axmy(&mut got, alpha, x);
                    axpy_body(&mut want, -alpha, x);
                    for (g, w) in got.iter().zip(&want) {
                        prop_assert!(same(*g, *w), "axmy: {g:e} vs {w:e} ({})", what());
                    }
                }
            }
        }
    }

    /// One week of 5-minute loads with a daily and a 6-hour cycle and a
    /// deterministic ripple, the shape an SSA fit sees.
    fn patterned_week() -> Vec<f64> {
        (0..2016)
            .map(|i| {
                let m = i as f64 * 5.0;
                45.0 + 25.0 * (2.0 * std::f64::consts::PI * m / 1440.0).sin()
                    + 8.0 * (2.0 * std::f64::consts::PI * m / 360.0).cos()
                    + 3.0 * ((m / 35.0).sin() * (m / 11.0).cos())
            })
            .collect()
    }

    fn assert_same_bits(what: &str, got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len(), "{what}: length ({})", route());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}[{i}]: {g:e} vs {w:e} ({})",
                route()
            );
        }
    }

    /// One level up: the Gram matrix, the randomized eigensolver and the
    /// thin SVD of a 2,016-point week (window 72) return the same bits
    /// whichever bodies the kernels under them run.
    #[test]
    fn dispatched_callers_equal_portable_callers_on_a_week() {
        println!("kernel dispatch under test: {}", route());
        let week = patterned_week();

        let gram = hankel_gram(&week, 72);
        let gram_p = with_portable(|| hankel_gram(&week, 72));
        assert_same_bits("hankel_gram", gram.data(), gram_p.data());

        let sketch = gaussian_sketch(12, 72, 0x5ea9_0111_7af1_75eb);
        let eig = truncated_eigh(&gram, &sketch, 2).unwrap();
        let eig_p = with_portable(|| truncated_eigh(&gram_p, &sketch, 2)).unwrap();
        assert_same_bits("truncated_eigh values", &eig.values, &eig_p.values);
        assert_same_bits(
            "truncated_eigh vectors",
            eig.vectors_t.data(),
            eig_p.vectors_t.data(),
        );

        let traj = hankel_matrix(&week, 72);
        let svd = thin_svd(&traj).unwrap();
        let svd_p = with_portable(|| thin_svd(&traj)).unwrap();
        assert_same_bits("thin_svd sigma", &svd.sigma, &svd_p.sigma);
        assert_same_bits("thin_svd u", svd.u.data(), svd_p.u.data());
        assert_same_bits("thin_svd v", svd.v.data(), svd_p.v.data());
    }
}
