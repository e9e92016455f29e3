//! Singular Spectrum Analysis with recurrent forecasting.
//!
//! This is the algorithm behind NimbusML/ML.NET's `SsaForecaster`, which the
//! paper applies to unstable servers: "Specifically, we use Singular Spectrum
//! Analysis to transform forecasts" (Section 5.1).
//!
//! The implementation follows the classical Basic SSA + R-forecasting recipe
//! (Golyandina et al.):
//!
//! 1. embed the series into an `L × K` Hankel trajectory matrix;
//! 2. take its SVD and keep the leading eigentriples covering an energy
//!    fraction (the *signal subspace*);
//! 3. reconstruct the smoothed signal by diagonal averaging;
//! 4. derive the linear recurrence relation (LRR) from the signal subspace
//!    and iterate it to produce the forecast.

use crate::{check_history, FittedModel, ForecastError, ForecastGrid, Forecaster};
use seagull_linalg::{
    gaussian_sketch, hankel_gram, hankel_matrix, kernel, thin_svd, truncated_eigh, Matrix,
};
use seagull_timeseries::TimeSeries;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which factorization backs the SSA fit.
///
/// The fitted forecast is pinned to the dense path within
/// [`RANDOMIZED_PARITY_TOL`]; kernel choice is a performance decision, not a
/// model change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SsaKernel {
    /// Pick automatically: randomized when the window comfortably exceeds
    /// the sketched subspace (`L ≥ 2·(max_rank + oversample)`), dense
    /// otherwise.
    #[default]
    Auto,
    /// Full cyclic-Jacobi eigendecomposition of the trajectory SVD — the
    /// reference path.
    Dense,
    /// Randomized truncated subspace of the trajectory Gram matrix.
    Randomized,
}

/// Maximum absolute forecast divergence between the randomized and dense
/// kernels, on the 0–100 load scale. Degenerate eigenvalue pairs (pure
/// sinusoids split across two equal-σ components) allow the two paths to
/// pick different bases for the same signal subspace; everything the LRR and
/// reconstruction consume is subspace-invariant, so the divergence stays at
/// numerical-noise level. Asserted by the parity test suite and the fit
/// bench.
pub const RANDOMIZED_PARITY_TOL: f64 = 5e-3;

/// SSA hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SsaConfig {
    /// Embedding window length `L`. The classical guidance is `n/2 ≥ L ≥
    /// period`; for 5-minute telemetry a few hours works well and keeps the
    /// `L × L` eigenproblem cheap.
    pub window: usize,
    /// Keep the smallest set of leading components whose squared singular
    /// values cover this energy fraction.
    pub energy: f64,
    /// Hard cap on the number of retained components.
    pub max_rank: usize,
    /// Factorization backend (defaults to [`SsaKernel::Auto`]).
    #[serde(default)]
    pub kernel: SsaKernel,
}

impl Default for SsaConfig {
    fn default() -> Self {
        SsaConfig {
            window: 72, // 6 hours at 5-minute granularity
            energy: 0.92,
            max_rank: 12,
            kernel: SsaKernel::Auto,
        }
    }
}

/// Sketch columns beyond `max_rank` for the randomized kernel (the
/// oversampling parameter of the range finder).
const OVERSAMPLE: usize = 8;

/// Power iterations for the randomized kernel.
const POWER_ITERS: usize = 2;

/// Base seed for the Gaussian sketch. The effective seed mixes in the
/// problem shape only — never the server or the history — so a given
/// `(window, rank)` always draws the same sketch: it is a constant of the
/// configuration, drawn once in [`SsaForecaster::new`].
const SKETCH_SEED: u64 = 0x5ea9_0111_7af1_75eb;

fn sketch_seed(l: usize, q: usize) -> u64 {
    SKETCH_SEED ^ ((l as u64) << 32) ^ q as u64
}

/// The SSA forecaster.
#[derive(Debug, Clone, PartialEq)]
pub struct SsaForecaster {
    config: SsaConfig,
    /// The randomized kernel's Gaussian sketch (`q × L`), read-only and
    /// shared by every fit and every clone; `None` when the configuration
    /// resolves to the dense kernel.
    sketch: Option<Arc<Matrix>>,
}

impl SsaForecaster {
    /// Creates a forecaster with the given configuration, drawing the
    /// randomized kernel's sketch if the configuration resolves to it.
    pub fn new(config: SsaConfig) -> SsaForecaster {
        let mut model = SsaForecaster {
            config,
            sketch: None,
        };
        if model.resolved_kernel() == SsaKernel::Randomized {
            let (l, q) = (config.window, model.sketch_width());
            model.sketch = Some(Arc::new(gaussian_sketch(q, l, sketch_seed(l, q))));
        }
        model
    }

    /// The configuration.
    pub fn config(&self) -> &SsaConfig {
        &self.config
    }

    /// Sketch width `q = min(max_rank + oversample, L)` of the randomized
    /// kernel for this configuration.
    fn sketch_width(&self) -> usize {
        (self.config.max_rank + OVERSAMPLE).min(self.config.window)
    }

    /// The kernel [`SsaKernel::Auto`] resolves to for this configuration:
    /// randomized only when the window strictly exceeds twice the sketch
    /// width (below that the subspace projection saves nothing over dense
    /// Jacobi, which is also the fallback rule inside the eigensolver).
    pub fn resolved_kernel(&self) -> SsaKernel {
        match self.config.kernel {
            SsaKernel::Auto => {
                if self.config.window > 2 * self.sketch_width() {
                    SsaKernel::Randomized
                } else {
                    SsaKernel::Dense
                }
            }
            k => k,
        }
    }

    /// Window sanity + history validation shared by both kernels.
    fn validate(&self, history: &TimeSeries) -> Result<(), ForecastError> {
        let l = self.config.window;
        if l < 2 {
            return Err(ForecastError::Numerical(
                "SSA window must be at least 2".into(),
            ));
        }
        // Need at least 2L points so that K = n - L + 1 > L (a proper
        // trajectory matrix) and the LRR has data to run on.
        check_history(history, 2 * l)
    }

    /// Reference path: full trajectory-matrix SVD via dense cyclic Jacobi.
    fn fit_dense(&self, history: &TimeSeries) -> Result<Box<dyn FittedModel>, ForecastError> {
        let l = self.config.window;
        // No centering: the DC level is captured by the leading eigentriple,
        // keeping the linear recurrence valid on the raw signal.
        let traj = hankel_matrix(history.values(), l);
        let svd_result = thin_svd(&traj);
        let traj_cols = traj.cols();
        traj.recycle();
        let svd = svd_result?;

        // Pick the signal subspace by cumulative energy.
        let total: f64 = svd.sigma.iter().map(|s| s * s).sum();
        let mut rank = 0;
        let mut acc = 0.0;
        for s in &svd.sigma {
            if rank >= self.config.max_rank {
                break;
            }
            rank += 1;
            acc += s * s;
            if total > 0.0 && acc / total >= self.config.energy {
                break;
            }
        }
        let rank = rank.max(1);

        // The LRR needs the verticality coefficient v² = Σ π_i² < 1 where
        // π_i is the last coordinate of the i-th left singular vector.
        let mut v2 = 0.0;
        for c in 0..rank {
            let pi = svd.u[(l - 1, c)];
            v2 += pi * pi;
        }
        if v2 >= 1.0 - 1e-9 {
            return Err(ForecastError::Numerical(
                "SSA series is non-forecastable (vertical signal subspace)".into(),
            ));
        }
        // R_j = (1/(1-v²)) Σ_i π_i · U_i[j], j = 0..L-1.
        let mut lrr = vec![0.0f64; l - 1];
        for c in 0..rank {
            let pi = svd.u[(l - 1, c)];
            if pi == 0.0 {
                continue;
            }
            for (j, r) in lrr.iter_mut().enumerate() {
                *r += pi * svd.u[(j, c)];
            }
        }
        for r in &mut lrr {
            *r /= 1.0 - v2;
        }

        // Reconstruct the smoothed signal (rank-r approximation of the
        // trajectory matrix, diagonally averaged) to seed the recurrence with
        // denoised values. The recurrence reads only the last L−1 points,
        // which the last L−1 columns of the approximation determine, so only
        // those are built: U_r diag(sigma_r) V_rᵀ one component at a time,
        // each kept cell through the same fma chain as in the full matrix.
        let first_col = traj_cols - (l - 1);
        let mut approx = Matrix::zeros_pooled(l, l - 1);
        for c in 0..rank {
            let s = svd.sigma[c];
            let vc: Vec<f64> = (first_col..traj_cols).map(|j| svd.v[(j, c)]).collect();
            for i in 0..l {
                kernel::axpy(approx.row_mut(i), svd.u[(i, c)] * s, &vc);
            }
        }
        // Anti-diagonal sums of the tail, rows in ascending order as
        // `hankelize` takes them: row i reaches tail points 0..i.
        let mut tail = vec![0.0f64; l - 1];
        for i in 1..l {
            let row = approx.row(i);
            for (t, cell) in tail[..i].iter_mut().zip(&row[l - 1 - i..]) {
                *t += cell;
            }
        }
        average_tail(&mut tail);
        approx.recycle();
        svd.u.recycle();
        svd.v.recycle();

        Ok(Box::new(FittedSsa {
            tail,
            lrr,
            grid: ForecastGrid::after(history),
            kernel: "ssa-dense",
        }))
    }

    /// Fast path: randomized truncated eigendecomposition of the trajectory
    /// Gram matrix, with the projection and reconstruction fused into
    /// convolution-style axpys over the raw series (the `L × K` trajectory
    /// matrix is never materialized).
    fn fit_randomized(
        &self,
        history: &TimeSeries,
        sketch: &Matrix,
    ) -> Result<Box<dyn FittedModel>, ForecastError> {
        let s = history.values();
        let n = s.len();
        let l = self.config.window;
        let k = n - l + 1;
        let g = hankel_gram(s, l);
        // Total spectral energy Σ σ² = trace(G): the truncated path never
        // sees the tail of the spectrum, but the trace carries its sum
        // exactly, so energy-based rank selection matches the dense rule.
        let total: f64 = (0..l).map(|i| g[(i, i)]).sum();
        let eig_result = truncated_eigh(&g, sketch, POWER_ITERS);
        g.recycle();
        let eig = eig_result?;

        // Pick the signal subspace by cumulative energy (λ = σ²).
        let mut rank = 0;
        let mut acc = 0.0;
        for &lambda in &eig.values {
            if rank >= self.config.max_rank {
                break;
            }
            rank += 1;
            acc += lambda.max(0.0);
            if total > 0.0 && acc / total >= self.config.energy {
                break;
            }
        }
        let rank = rank.max(1);

        // Verticality check on the last coordinate of each eigenvector
        // (rows of vectors_t are the left singular vectors of the
        // trajectory matrix).
        let mut v2 = 0.0;
        for c in 0..rank {
            let pi = eig.vectors_t[(c, l - 1)];
            v2 += pi * pi;
        }
        if v2 >= 1.0 - 1e-9 {
            eig.recycle();
            return Err(ForecastError::Numerical(
                "SSA series is non-forecastable (vertical signal subspace)".into(),
            ));
        }
        // R_j = (1/(1-v²)) Σ_i π_i · U_i[j], j = 0..L-1.
        let mut lrr = vec![0.0f64; l - 1];
        for c in 0..rank {
            let urow = eig.vectors_t.row(c);
            kernel::axpy(&mut lrr, urow[l - 1], &urow[..l - 1]);
        }
        for r in &mut lrr {
            *r /= 1.0 - v2;
        }

        // Signal reconstruction without V: the rank-r trajectory
        // approximation is U_r (U_rᵀ A); both products run as contiguous
        // axpys over series windows. The recurrence reads only the last L−1
        // points of the signal, and those depend only on the last L−1
        // columns of P = U_rᵀ A, so only that much is computed — every kept
        // element through the same `c → i` fma sequence as in the full
        // product. First the tail columns K−L+1..K of P (rank × (L−1))…
        let first_col = k - (l - 1);
        let mut p = Matrix::zeros_pooled(rank, l - 1);
        for c in 0..rank {
            let urow = eig.vectors_t.row(c);
            let prow = p.row_mut(c);
            for (i, &u) in urow.iter().enumerate() {
                kernel::axpy(prow, u, &s[first_col + i..k + i]);
            }
        }
        // …then the anti-diagonal sums of U_r P for the points t ∈ [K, n)
        // (fused hankelization — the L × K approximation is never
        // materialized either): row i of the approximation reaches tail
        // points 0..i, through the last i columns of P.
        let mut tail = vec![0.0f64; l - 1];
        for c in 0..rank {
            let urow = eig.vectors_t.row(c);
            let prow = p.row(c);
            for (i, &u) in urow.iter().enumerate() {
                kernel::axpy(&mut tail[..i], u, &prow[l - 1 - i..]);
            }
        }
        p.recycle();
        eig.recycle();
        average_tail(&mut tail);

        Ok(Box::new(FittedSsa {
            tail,
            lrr,
            grid: ForecastGrid::after(history),
            kernel: "ssa-randomized",
        }))
    }
}

/// Finishes the diagonal averaging of the last `L − 1` signal points:
/// anti-diagonal `t = K + i` of an `L × K` matrix with `K ≥ L` has
/// `L − 1 − i` cells.
fn average_tail(tail: &mut [f64]) {
    let len = tail.len();
    for (i, v) in tail.iter_mut().enumerate() {
        *v /= (len - i) as f64;
    }
}

impl Default for SsaForecaster {
    fn default() -> Self {
        SsaForecaster::new(SsaConfig::default())
    }
}

impl Forecaster for SsaForecaster {
    fn name(&self) -> &'static str {
        "ssa"
    }

    fn fit(&self, history: &TimeSeries) -> Result<Box<dyn FittedModel>, ForecastError> {
        self.validate(history)?;
        match &self.sketch {
            Some(sketch) => self.fit_randomized(history, sketch),
            None => self.fit_dense(history),
        }
    }
}

struct FittedSsa {
    /// The last `L − 1` points of the denoised history: all of the
    /// reconstructed signal the recurrence reads.
    tail: Vec<f64>,
    /// Linear recurrence coefficients, length `L-1`.
    lrr: Vec<f64>,
    grid: ForecastGrid,
    /// Which factorization produced this fit.
    kernel: &'static str,
}

impl FittedModel for FittedSsa {
    fn predict(&self, horizon: usize) -> Result<TimeSeries, ForecastError> {
        let l1 = self.lrr.len();
        let mut buf = Vec::with_capacity(self.tail.len() + horizon);
        buf.extend_from_slice(&self.tail);
        for _ in 0..horizon {
            let n = buf.len();
            let next: f64 = self
                .lrr
                .iter()
                .zip(&buf[n - l1..])
                .map(|(r, z)| r * z)
                .sum();
            // Load is a percentage; clamp forecasts into the physical range
            // so a marginally unstable LRR cannot run away over long horizons.
            buf.push(next.clamp(0.0, 100.0));
        }
        buf.drain(..self.tail.len());
        self.grid.series(buf)
    }

    fn fit_kernel(&self) -> &'static str {
        self.kernel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{daily_sine, rmse};
    use seagull_timeseries::{TimeSeries, Timestamp};

    #[test]
    fn forecasts_pure_sine_accurately() {
        let hist = daily_sine(3, 15); // 96/day, 288 points
        let model = SsaForecaster::new(SsaConfig {
            window: 48,
            energy: 0.999,
            max_rank: 8,
            kernel: SsaKernel::Auto,
        });
        let pred = model.fit_predict(&hist, 96).unwrap();
        let truth = daily_sine(4, 15);
        let expect = truth.slice(hist.end(), hist.end() + 1440).unwrap();
        let err = rmse(&pred, &expect);
        assert!(err < 1.0, "rmse {err}");
    }

    #[test]
    fn constant_series_forecasts_constant() {
        let hist = TimeSeries::from_fn(Timestamp::from_days(5), 5, 600, |_| 42.0).unwrap();
        let pred = SsaForecaster::default().fit_predict(&hist, 50).unwrap();
        for v in pred.values() {
            assert!((v - 42.0).abs() < 0.5, "value {v}");
        }
    }

    #[test]
    fn linear_trend_continues() {
        let hist = TimeSeries::from_fn(Timestamp::from_days(5), 5, 400, |t| {
            20.0 + 0.01 * (t.minutes() - 5 * 1440) as f64 / 5.0
        })
        .unwrap();
        let model = SsaForecaster::new(SsaConfig {
            window: 30,
            energy: 0.9999,
            max_rank: 4,
            kernel: SsaKernel::Auto,
        });
        let pred = model.fit_predict(&hist, 20).unwrap();
        // The trend should keep rising.
        let last_hist = hist.values()[hist.len() - 1];
        assert!(pred.values()[19] > last_hist, "trend should continue");
        // And roughly linearly.
        let expect = last_hist + 0.01 * 20.0;
        assert!((pred.values()[19] - expect).abs() < 0.5);
    }

    #[test]
    fn insufficient_history_rejected() {
        let hist = TimeSeries::from_fn(Timestamp::from_days(5), 5, 100, |_| 1.0).unwrap();
        let model = SsaForecaster::default(); // window 72 needs 144 points
        assert!(matches!(
            model.fit(&hist),
            Err(ForecastError::InsufficientHistory { .. })
        ));
    }

    #[test]
    fn nan_history_rejected() {
        let mut hist = daily_sine(2, 5);
        hist.values_mut()[3] = f64::NAN;
        assert!(matches!(
            SsaForecaster::default().fit(&hist),
            Err(ForecastError::NonFiniteHistory)
        ));
    }

    #[test]
    fn forecast_grid_follows_history() {
        let hist = daily_sine(2, 5);
        let pred = SsaForecaster::default().fit_predict(&hist, 12).unwrap();
        assert_eq!(pred.start(), hist.end());
        assert_eq!(pred.step_min(), 5);
        assert_eq!(pred.len(), 12);
    }

    #[test]
    fn forecasts_stay_in_percentage_range() {
        // A noisy-ish deterministic series that could excite instability.
        let hist = TimeSeries::from_fn(Timestamp::from_days(5), 5, 500, |t| {
            let x = t.minutes() as f64;
            50.0 + 30.0 * (x / 97.0).sin() + 15.0 * (x / 13.0).cos()
        })
        .unwrap();
        let pred = SsaForecaster::default().fit_predict(&hist, 1000).unwrap();
        for v in pred.values() {
            assert!((0.0..=100.0).contains(v));
        }
    }

    #[test]
    fn repeated_fits_reuse_scratch_buffers() {
        let hist = daily_sine(3, 15);
        let model = SsaForecaster::new(SsaConfig {
            window: 48,
            energy: 0.999,
            max_rank: 8,
            kernel: SsaKernel::Auto,
        });
        // First fit seeds this thread's pool; later fits draw from it.
        model.fit(&hist).unwrap();
        let before = seagull_linalg::scratch::stats();
        model.fit(&hist).unwrap();
        let after = seagull_linalg::scratch::stats();
        assert!(
            after.reuses > before.reuses,
            "second fit reused no scratch buffers ({before:?} -> {after:?})"
        );
    }

    #[test]
    fn tiny_window_rejected() {
        let hist = daily_sine(2, 5);
        let model = SsaForecaster::new(SsaConfig {
            window: 1,
            energy: 0.9,
            max_rank: 3,
            kernel: SsaKernel::Auto,
        });
        assert!(model.fit(&hist).is_err());
    }

    fn with_kernel(kernel: SsaKernel) -> SsaForecaster {
        SsaForecaster::new(SsaConfig {
            kernel,
            ..SsaConfig::default()
        })
    }

    #[test]
    fn auto_resolves_randomized_for_default_config() {
        // Default window 72 ≥ 2·(12+8): the fast path must be the default.
        assert_eq!(
            SsaForecaster::default().resolved_kernel(),
            SsaKernel::Randomized
        );
        // A window too small to amortize the sketch stays dense.
        let small = SsaForecaster::new(SsaConfig {
            window: 24,
            energy: 0.92,
            max_rank: 12,
            kernel: SsaKernel::Auto,
        });
        assert_eq!(small.resolved_kernel(), SsaKernel::Dense);
    }

    #[test]
    fn fit_kernel_labels_report_the_path_taken() {
        let hist = daily_sine(3, 5);
        let fast = with_kernel(SsaKernel::Randomized).fit(&hist).unwrap();
        assert_eq!(fast.fit_kernel(), "ssa-randomized");
        let dense = with_kernel(SsaKernel::Dense).fit(&hist).unwrap();
        assert_eq!(dense.fit_kernel(), "ssa-dense");
    }

    #[test]
    fn randomized_forecast_parity_with_dense() {
        // Forecast-level parity on a realistic mixed signal, pinned to the
        // published tolerance.
        let hist = TimeSeries::from_fn(Timestamp::from_days(7), 5, 2016, |t| {
            let m = t.minutes() as f64;
            45.0 + 25.0 * (2.0 * std::f64::consts::PI * m / 1440.0).sin()
                + 8.0 * (2.0 * std::f64::consts::PI * m / 360.0).cos()
                + 3.0 * ((m / 35.0).sin() * (m / 11.0).cos())
        })
        .unwrap();
        let fast = with_kernel(SsaKernel::Randomized)
            .fit_predict(&hist, 288)
            .unwrap();
        let dense = with_kernel(SsaKernel::Dense)
            .fit_predict(&hist, 288)
            .unwrap();
        let max_diff = fast
            .values()
            .iter()
            .zip(dense.values())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            max_diff <= RANDOMIZED_PARITY_TOL,
            "kernel divergence {max_diff} exceeds tolerance {RANDOMIZED_PARITY_TOL}"
        );
    }

    #[test]
    fn randomized_constant_series_forecasts_constant() {
        let hist = TimeSeries::from_fn(Timestamp::from_days(5), 5, 600, |_| 42.0).unwrap();
        let pred = with_kernel(SsaKernel::Randomized)
            .fit_predict(&hist, 50)
            .unwrap();
        for v in pred.values() {
            assert!((v - 42.0).abs() < 0.5, "value {v}");
        }
    }

    #[test]
    fn held_sketch_is_the_seeded_constant_and_fit_uses_it() {
        let model = SsaForecaster::default();
        let (l, q) = (model.config().window, model.sketch_width());
        let held = model.sketch.as_ref().expect("default config is randomized");
        let fresh = gaussian_sketch(q, l, sketch_seed(l, q));
        assert_eq!(held.shape(), (q, l));
        for (a, b) in held.data().iter().zip(fresh.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        let hist = daily_sine(3, 5);
        let via_fit = model.fit(&hist).unwrap().predict(288).unwrap();
        let direct = model.fit_randomized(&hist, &fresh).unwrap();
        let direct = direct.predict(288).unwrap();
        for (x, y) in via_fit.values().iter().zip(direct.values()) {
            assert_eq!(x.to_bits(), y.to_bits(), "fit diverged from a fresh sketch");
        }
    }

    #[test]
    fn clones_share_the_sketch() {
        let model = SsaForecaster::default();
        let clone = model.clone();
        assert!(Arc::ptr_eq(
            model.sketch.as_ref().unwrap(),
            clone.sketch.as_ref().unwrap()
        ));
    }

    #[test]
    fn dense_configs_hold_no_sketch() {
        assert!(with_kernel(SsaKernel::Dense).sketch.is_none());
        // Auto on a window too small for the sketch to pay resolves dense.
        let small = SsaForecaster::new(SsaConfig {
            window: 24,
            ..SsaConfig::default()
        });
        assert_eq!(small.resolved_kernel(), SsaKernel::Dense);
        assert!(small.sketch.is_none());
    }

    #[test]
    fn randomized_fits_reuse_scratch_buffers() {
        let hist = daily_sine(3, 5);
        let model = with_kernel(SsaKernel::Randomized);
        model.fit(&hist).unwrap();
        let before = seagull_linalg::scratch::stats();
        model.fit(&hist).unwrap();
        let after = seagull_linalg::scratch::stats();
        assert!(
            after.reuses > before.reuses,
            "second randomized fit reused no scratch buffers ({before:?} -> {after:?})"
        );
    }
}
