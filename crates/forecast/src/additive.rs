//! A Prophet-style additive model.
//!
//! Prophet "forecasts a time series data based on an additive model where
//! non-linear trends are fit with yearly, weekly, and daily seasonality"
//! (Section 5.1). For week-scale server telemetry the relevant structure is a
//! piecewise-linear trend with changepoints plus daily and weekly Fourier
//! seasonality, which is exactly what this module fits.
//!
//! Two fitting backends are provided. [`FitMethod::GradientDescent`] descends
//! the full penalized least-squares objective, re-evaluating the design
//! matrix every iteration — the cost profile of Prophet's per-series MAP
//! optimization, and the default so the Figure 11(a) runtime comparison
//! reproduces the paper's "Prophet does not scale" finding honestly.
//! [`FitMethod::Exact`] solves the same objective in closed form via ridge
//! regression for callers that just want the model.

use crate::{check_history, FittedModel, ForecastError, ForecastGrid, Forecaster};
use seagull_linalg::{ridge_regression, Matrix};
use seagull_timeseries::{TimeSeries, Timestamp, MINUTES_PER_DAY, MINUTES_PER_WEEK};
use serde::{Deserialize, Serialize};

/// How to optimize the additive objective.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FitMethod {
    /// Closed-form ridge solution.
    Exact,
    /// Full-gradient descent with the given iteration budget (Prophet-like
    /// per-series optimization cost).
    GradientDescent {
        /// Number of full-gradient iterations.
        iterations: usize,
    },
}

/// Additive-model hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdditiveConfig {
    /// Fourier harmonics for the daily period.
    pub daily_harmonics: usize,
    /// Fourier harmonics for the weekly period.
    pub weekly_harmonics: usize,
    /// Number of interior trend changepoints (uniformly spaced over the
    /// first 80 % of history, as Prophet does).
    pub changepoints: usize,
    /// L2 penalty on all coefficients.
    pub ridge_lambda: f64,
    /// Optimization backend.
    pub fit: FitMethod,
}

impl Default for AdditiveConfig {
    fn default() -> Self {
        AdditiveConfig {
            daily_harmonics: 6,
            weekly_harmonics: 3,
            changepoints: 8,
            ridge_lambda: 1.0,
            fit: FitMethod::GradientDescent { iterations: 5000 },
        }
    }
}

/// The additive forecaster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdditiveForecaster {
    config: AdditiveConfig,
}

impl AdditiveForecaster {
    /// Creates a forecaster with the given configuration.
    pub fn new(config: AdditiveConfig) -> AdditiveForecaster {
        AdditiveForecaster { config }
    }

    /// The configuration.
    pub fn config(&self) -> &AdditiveConfig {
        &self.config
    }

    fn feature_dim(&self) -> usize {
        // intercept + slope + changepoints + 2 per harmonic.
        2 + self.config.changepoints
            + 2 * (self.config.daily_harmonics + self.config.weekly_harmonics)
    }

    /// Feature vector for a timestamp. `t0`/`span_min` normalize the trend.
    fn features(&self, at: Timestamp, t0: Timestamp, span_min: f64, out: &mut Vec<f64>) {
        out.clear();
        let c = &self.config;
        let tn = (at - t0) as f64 / span_min;
        out.push(1.0);
        out.push(tn);
        for j in 0..c.changepoints {
            // Changepoints uniformly over the first 80 % of history.
            let cp = 0.8 * (j + 1) as f64 / (c.changepoints + 1) as f64;
            out.push((tn - cp).max(0.0));
        }
        let two_pi = 2.0 * std::f64::consts::PI;
        let mday = at.minute_of_day() as f64 / MINUTES_PER_DAY as f64;
        for k in 1..=c.daily_harmonics {
            let arg = two_pi * k as f64 * mday;
            out.push(arg.sin());
            out.push(arg.cos());
        }
        let mweek = at.minute_of_week() as f64 / MINUTES_PER_WEEK as f64;
        for k in 1..=c.weekly_harmonics {
            let arg = two_pi * k as f64 * mweek;
            out.push(arg.sin());
            out.push(arg.cos());
        }
    }
}

impl Default for AdditiveForecaster {
    fn default() -> Self {
        AdditiveForecaster::new(AdditiveConfig::default())
    }
}

impl Forecaster for AdditiveForecaster {
    fn name(&self) -> &'static str {
        "additive"
    }

    fn fit(&self, history: &TimeSeries) -> Result<Box<dyn FittedModel>, ForecastError> {
        let dim = self.feature_dim();
        check_history(history, dim.max(2 * history.points_per_day().min(48)))?;
        let n = history.len();
        let t0 = history.start();
        let span_min = (history.end() - history.start()) as f64;

        // Build the design matrix once (pool-backed: steady-state fits reuse
        // the previous fit's buffer).
        let mut scratch = Vec::with_capacity(dim);
        let mut design = Matrix::zeros_pooled(n, dim);
        for i in 0..n {
            self.features(history.timestamp_at(i), t0, span_min, &mut scratch);
            design.row_mut(i).copy_from_slice(&scratch);
        }
        // Center the target for conditioning.
        let mean = history.mean();
        let mut y = seagull_linalg::scratch::take(n);
        y.extend(history.values().iter().map(|v| v - mean));

        let fit_result = match self.config.fit {
            FitMethod::Exact => ridge_regression(&design, &y, self.config.ridge_lambda),
            FitMethod::GradientDescent { iterations } => Ok(gradient_descent(
                &design,
                &y,
                self.config.ridge_lambda,
                iterations,
            )),
        };
        design.recycle();
        seagull_linalg::scratch::recycle(y);
        let coef = fit_result?;

        Ok(Box::new(FittedAdditive {
            forecaster: *self,
            coef,
            mean,
            t0,
            span_min,
            grid: ForecastGrid::after(history),
        }))
    }
}

/// Full-gradient descent on `(1/n)||Ax-b||² + λ/n ||x||²` with a step size
/// from a power-iteration estimate of the Lipschitz constant. The design
/// matrix is re-traversed every iteration by construction (see module docs).
fn gradient_descent(a: &Matrix, b: &[f64], lambda: f64, iterations: usize) -> Vec<f64> {
    let (n, d) = a.shape();
    let nf = n as f64;
    // Estimate the largest eigenvalue of (AᵀA)/n with a few power iterations.
    let mut v = vec![1.0f64; d];
    let mut lip = 1.0;
    for _ in 0..20 {
        // w = Aᵀ(A v) / n
        let av = a.matvec(&v).expect("shape checked");
        let mut w = vec![0.0f64; d];
        for (i, &s) in av.iter().enumerate() {
            for (wj, &r) in w.iter_mut().zip(a.row(i)) {
                *wj += r * s;
            }
        }
        for wj in &mut w {
            *wj /= nf;
        }
        let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm < 1e-12 {
            break;
        }
        lip = norm;
        for (vj, wj) in v.iter_mut().zip(&w) {
            *vj = wj / norm;
        }
    }
    let step = 1.0 / (2.0 * (lip + lambda / nf) + 1e-9);

    let mut x = vec![0.0f64; d];
    for _ in 0..iterations {
        // grad = 2 Aᵀ(Ax − b)/n + 2 λ x / n, computed against the full
        // design matrix each iteration.
        let ax = a.matvec(&x).expect("shape checked");
        let mut grad = vec![0.0f64; d];
        for i in 0..n {
            let r = ax[i] - b[i];
            if r == 0.0 {
                continue;
            }
            let row = a.row(i);
            for (g, &v) in grad.iter_mut().zip(row) {
                *g += r * v;
            }
        }
        for (j, g) in grad.iter_mut().enumerate() {
            *g = 2.0 * (*g + lambda * x[j]) / nf;
        }
        for (xj, g) in x.iter_mut().zip(&grad) {
            *xj -= step * g;
        }
    }
    x
}

struct FittedAdditive {
    forecaster: AdditiveForecaster,
    coef: Vec<f64>,
    mean: f64,
    t0: Timestamp,
    span_min: f64,
    grid: ForecastGrid,
}

impl FittedModel for FittedAdditive {
    fn predict(&self, horizon: usize) -> Result<TimeSeries, ForecastError> {
        let ForecastGrid { start, step_min } = self.grid;
        let mut scratch = Vec::with_capacity(self.coef.len());
        let mut values = Vec::with_capacity(horizon);
        for i in 0..horizon {
            let at = start + i as i64 * step_min as i64;
            self.forecaster
                .features(at, self.t0, self.span_min, &mut scratch);
            let v: f64 = scratch.iter().zip(&self.coef).map(|(f, c)| f * c).sum();
            values.push((v + self.mean).clamp(0.0, 100.0));
        }
        self.grid.series(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{daily_sine, rmse};

    fn exact() -> AdditiveForecaster {
        AdditiveForecaster::new(AdditiveConfig {
            fit: FitMethod::Exact,
            ..AdditiveConfig::default()
        })
    }

    #[test]
    fn repeated_fits_reuse_scratch_buffers() {
        let hist = daily_sine(3, 15);
        let model = exact();
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
    fn exact_fit_recovers_daily_sine() {
        let hist = daily_sine(7, 15);
        let pred = exact().fit_predict(&hist, 96).unwrap();
        let truth = daily_sine(8, 15);
        let expect = truth.slice(hist.end(), hist.end() + 1440).unwrap();
        let err = rmse(&pred, &expect);
        assert!(err < 1.0, "rmse {err}");
    }

    #[test]
    fn gradient_descent_approaches_exact() {
        let hist = daily_sine(5, 15);
        let gd = AdditiveForecaster::new(AdditiveConfig {
            fit: FitMethod::GradientDescent { iterations: 3000 },
            ..AdditiveConfig::default()
        });
        let pe = exact().fit_predict(&hist, 96).unwrap();
        let pg = gd.fit_predict(&hist, 96).unwrap();
        let diff = rmse(&pe, &pg);
        assert!(diff < 3.0, "gd vs exact rmse {diff}");
    }

    #[test]
    fn weekly_seasonality_captured() {
        // Weekdays 60, weekends 10: the weekly Fourier terms must pick the
        // structure up well enough to tell a Saturday from a Wednesday.
        let hist = TimeSeries::from_fn(
            seagull_timeseries::Timestamp::from_days(700),
            15,
            3 * 7 * 96,
            |t| {
                if t.day_of_week().is_weekend() {
                    10.0
                } else {
                    60.0
                }
            },
        )
        .unwrap();
        let model = AdditiveForecaster::new(AdditiveConfig {
            weekly_harmonics: 8,
            daily_harmonics: 2,
            changepoints: 0,
            ridge_lambda: 0.1,
            fit: FitMethod::Exact,
        });
        let fitted = model.fit(&hist).unwrap();
        let pred = fitted.predict(7 * 96).unwrap();
        // Compare mean predicted weekday vs weekend level.
        let mut wd = vec![];
        let mut we = vec![];
        for (t, v) in pred.iter() {
            if t.day_of_week().is_weekend() {
                we.push(v);
            } else {
                wd.push(v);
            }
        }
        let wd_mean = seagull_timeseries::mean(&wd);
        let we_mean = seagull_timeseries::mean(&we);
        assert!(
            wd_mean - we_mean > 30.0,
            "weekday {wd_mean} vs weekend {we_mean}"
        );
    }

    #[test]
    fn trend_extends_into_forecast() {
        // Rising linear trend, no seasonality.
        let hist = TimeSeries::from_fn(
            seagull_timeseries::Timestamp::from_days(10),
            15,
            5 * 96,
            |t| 10.0 + 0.005 * (t - seagull_timeseries::Timestamp::from_days(10)) as f64 / 15.0,
        )
        .unwrap();
        let model = AdditiveForecaster::new(AdditiveConfig {
            daily_harmonics: 0,
            weekly_harmonics: 0,
            changepoints: 4,
            ridge_lambda: 1e-6,
            fit: FitMethod::Exact,
        });
        let pred = model.fit(&hist).unwrap().predict(96).unwrap();
        let last = hist.values()[hist.len() - 1];
        assert!(pred.values()[95] > last + 0.3, "trend should continue");
    }

    #[test]
    fn insufficient_history_rejected() {
        let hist =
            TimeSeries::from_fn(seagull_timeseries::Timestamp::from_days(10), 15, 10, |_| {
                1.0
            })
            .unwrap();
        assert!(matches!(
            exact().fit(&hist),
            Err(ForecastError::InsufficientHistory { .. })
        ));
    }

    #[test]
    fn nan_rejected() {
        let mut hist = daily_sine(3, 15);
        hist.values_mut()[5] = f64::NAN;
        assert!(matches!(
            exact().fit(&hist),
            Err(ForecastError::NonFiniteHistory)
        ));
    }

    #[test]
    fn predictions_clamped_to_percentage() {
        let hist = daily_sine(3, 15);
        let pred = exact().fit_predict(&hist, 500).unwrap();
        for v in pred.values() {
            assert!((0.0..=100.0).contains(v));
        }
    }

    #[test]
    fn feature_dim_matches_features() {
        let f = exact();
        let mut v = Vec::new();
        f.features(
            seagull_timeseries::Timestamp::from_days(3),
            seagull_timeseries::Timestamp::from_days(2),
            1440.0,
            &mut v,
        );
        assert_eq!(v.len(), f.feature_dim());
    }
}
