//! # seagull-forecast
//!
//! The forecasting-model zoo of the Seagull paper (Section 5.1), implemented
//! from scratch:
//!
//! * [`persistent`] — the three persistent-forecast heuristics (previous day,
//!   previous equivalent day, previous-week average). These ended up being
//!   the production model: "we deployed persistent forecast based on previous
//!   day to predict low load for all servers".
//! * [`ssa`] — singular spectrum analysis with recurrent forecasting, the
//!   algorithm behind NimbusML/ML.NET's `SsaForecaster`.
//! * [`feedforward`] — a simple feed-forward neural network estimator, the
//!   GluonTS model the paper trains ("we train a simple feed forward
//!   estimator").
//! * [`additive`] — a Prophet-style additive model: piecewise-linear trend
//!   with changepoints plus Fourier daily/weekly seasonality.
//! * [`arima`] — ARIMA(p,d,q) with an automatic order grid search, matching
//!   pmdarima's auto-ARIMA behaviour (and, as in the paper, its cost).
//!
//! Every model implements [`Forecaster`], whose two-phase `fit` → `predict`
//! split lets the evaluation harness time training and inference separately
//! (paper Figure 11(a)).

#![warn(missing_docs)]

pub mod additive;
pub mod arima;
pub mod cache;
pub mod diagnostics;
pub mod feedforward;
pub mod persistent;
pub mod select;
pub mod ssa;

use seagull_timeseries::{TimeSeries, TimeSeriesError};
use std::fmt;

pub use additive::{AdditiveConfig, AdditiveForecaster};
pub use arima::{ArimaConfig, ArimaForecaster, ArimaOrder};
pub use cache::{
    shape_sketch, sketches_similar, CacheStats, CacheUpdate, CachedFit, Lookup, MissReason,
    ModelCache,
};
pub use diagnostics::{acf, ljung_box, pacf, series_drift, suggest_orders, DriftVerdict, LjungBox};
pub use feedforward::{FeedForwardConfig, FeedForwardForecaster};
pub use persistent::{PersistentForecast, PersistentVariant};
pub use select::{detect_pattern, ClassAwareForecaster, HistoryPattern, PatternThresholds};
pub use ssa::{SsaConfig, SsaForecaster, SsaKernel};

/// Errors produced by forecasting models.
#[derive(Debug, Clone, PartialEq)]
pub enum ForecastError {
    /// The model needs more history than was provided.
    InsufficientHistory {
        /// Minimum points the model requires.
        needed: usize,
        /// Points actually provided.
        got: usize,
    },
    /// The history contains NaN/infinite values; models require gap-filled
    /// input (see `seagull_timeseries::fill_gaps`).
    NonFiniteHistory,
    /// A numerical routine failed (singular system, no convergence, ...).
    Numerical(String),
    /// Series construction failed (grid misalignment and the like).
    Series(TimeSeriesError),
}

impl fmt::Display for ForecastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForecastError::InsufficientHistory { needed, got } => {
                write!(f, "insufficient history: need {needed} points, got {got}")
            }
            ForecastError::NonFiniteHistory => write!(f, "history contains non-finite values"),
            ForecastError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
            ForecastError::Series(e) => write!(f, "series error: {e}"),
        }
    }
}

impl std::error::Error for ForecastError {}

impl From<TimeSeriesError> for ForecastError {
    fn from(e: TimeSeriesError) -> Self {
        ForecastError::Series(e)
    }
}

impl From<seagull_linalg::LinalgError> for ForecastError {
    fn from(e: seagull_linalg::LinalgError) -> Self {
        ForecastError::Numerical(e.to_string())
    }
}

/// A fitted model, ready for inference.
///
/// Predictions start at the first grid point after the training history and
/// share its grid.
pub trait FittedModel: Send + Sync {
    /// Predicts the next `horizon` points.
    fn predict(&self, horizon: usize) -> Result<TimeSeries, ForecastError>;

    /// Stable label of the numerical kernel that produced this fit (e.g.
    /// `"ssa-randomized"`, `"ssa-dense"`). The pipeline exports per-kernel
    /// fit counts so kernel selection is observable in production; models
    /// with a single fitting path report `"default"`.
    fn fit_kernel(&self) -> &'static str {
        "default"
    }
}

/// A forecasting model family.
///
/// `fit` consumes history and returns a [`FittedModel`]; the two-phase split
/// exists so the harness can measure training and inference separately, as
/// the paper's Figure 11(a) does. [`Forecaster::fit_predict`] is the one-shot
/// convenience used everywhere else.
pub trait Forecaster: Send + Sync {
    /// Stable model name used in experiment output (e.g. `"persistent-prev-day"`).
    fn name(&self) -> &'static str;

    /// Fits the model to `history`.
    fn fit(&self, history: &TimeSeries) -> Result<Box<dyn FittedModel>, ForecastError>;

    /// Fits and immediately predicts `horizon` points.
    fn fit_predict(
        &self,
        history: &TimeSeries,
        horizon: usize,
    ) -> Result<TimeSeries, ForecastError> {
        self.fit(history)?.predict(horizon)
    }

    /// Fits a batch of histories in one kernel invocation.
    ///
    /// The pipeline groups same-shape (same length / step) servers and hands
    /// each group here so implementations can hoist shape-dependent setup —
    /// sketches, factorization workspace — across the batch. Two contracts
    /// hold for every implementation:
    ///
    /// 1. **Parity**: result `i` is bitwise identical to `self.fit(&histories[i])`
    ///    run in isolation (batching is a pure performance optimization);
    /// 2. **Isolation**: one history failing to fit yields an `Err` in its
    ///    slot only — the rest of the batch still fits.
    ///
    /// The default implementation fits sequentially, which already satisfies
    /// both (and reuses factorization buffers through the thread-local
    /// scratch pool).
    fn fit_batch(
        &self,
        histories: &[&TimeSeries],
    ) -> Vec<Result<Box<dyn FittedModel>, ForecastError>> {
        histories.iter().map(|h| self.fit(h)).collect()
    }
}

/// Validates history for models that need clean, sufficiently long input.
pub(crate) fn check_history(history: &TimeSeries, min_points: usize) -> Result<(), ForecastError> {
    if history.len() < min_points {
        return Err(ForecastError::InsufficientHistory {
            needed: min_points,
            got: history.len(),
        });
    }
    if history.check_finite().is_err() {
        return Err(ForecastError::NonFiniteHistory);
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod testutil {
    use seagull_timeseries::{TimeSeries, Timestamp};

    /// A noiseless daily sine pattern: value depends only on minute-of-day.
    pub fn daily_sine(days: usize, step_min: u32) -> TimeSeries {
        let n = days * (1440 / step_min as usize);
        TimeSeries::from_fn(Timestamp::from_days(100), step_min, n, |t| {
            let m = t.minute_of_day() as f64;
            30.0 + 20.0 * (2.0 * std::f64::consts::PI * m / 1440.0).sin()
        })
        .unwrap()
    }

    /// Root-mean-square error between two equal-length series.
    pub fn rmse(a: &TimeSeries, b: &TimeSeries) -> f64 {
        assert_eq!(a.len(), b.len());
        let s: f64 = a
            .values()
            .iter()
            .zip(b.values())
            .map(|(x, y)| (x - y) * (x - y))
            .sum();
        (s / a.len() as f64).sqrt()
    }
}
