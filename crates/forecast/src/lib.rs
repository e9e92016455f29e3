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
#![forbid(unsafe_code)]

pub mod additive;
pub mod arima;
pub mod cache;
pub mod diagnostics;
pub mod feedforward;
pub mod persistent;
pub mod select;
pub mod ssa;

use seagull_timeseries::{TimeSeries, TimeSeriesError, Timestamp};
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
}

/// Where a fitted model's forecast starts and on what grid: the end and the
/// step of its history.
///
/// Fitted models keep this instead of a clone of the history. A gap-free
/// [`TimeSeries`] is a view over its region-week's shared decode buffer, so a
/// model that held one would keep that whole buffer alive for as long as the
/// model cache or a serve snapshot keeps the model.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ForecastGrid {
    pub(crate) start: Timestamp,
    pub(crate) step_min: u32,
}

impl ForecastGrid {
    /// The grid of the forecast that follows `history`.
    pub(crate) fn after(history: &TimeSeries) -> ForecastGrid {
        ForecastGrid {
            start: history.end(),
            step_min: history.step_min(),
        }
    }

    /// The forecast holding `values`.
    pub(crate) fn series(&self, values: Vec<f64>) -> Result<TimeSeries, ForecastError> {
        Ok(TimeSeries::new(self.start, self.step_min, values)?)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arima::ArimaConfig;
    use crate::feedforward::FeedForwardConfig;
    use std::sync::Arc;

    /// A fitted model of any family holds no reference to the buffer its
    /// history was a view of, so the model cache and serve snapshots do not
    /// keep a region-week's decode buffer alive.
    #[test]
    fn fitted_models_do_not_share_storage_with_their_history() {
        // Three days at 15 minutes, viewed inside a larger shared buffer the
        // way the columnar decoder hands out servers.
        let day = testutil::daily_sine(3, 15);
        let mut buffer = vec![0.0; 100];
        buffer.extend_from_slice(day.values());
        buffer.extend_from_slice(&[0.0; 100]);
        let storage: Arc<[f64]> = buffer.into();
        let history =
            TimeSeries::from_shared(day.start(), 15, Arc::clone(&storage), 100, day.len()).unwrap();
        assert!(history.shares_storage(&history.clone()));

        let families: Vec<Box<dyn Forecaster>> = vec![
            Box::new(PersistentForecast::new(PersistentVariant::PreviousDay)),
            Box::new(PersistentForecast::new(
                PersistentVariant::PreviousWeekAverage,
            )),
            Box::new(SsaForecaster::new(SsaConfig {
                window: 48,
                kernel: SsaKernel::Randomized,
                ..SsaConfig::default()
            })),
            Box::new(SsaForecaster::new(SsaConfig {
                window: 48,
                kernel: SsaKernel::Dense,
                ..SsaConfig::default()
            })),
            Box::new(AdditiveForecaster::default()),
            Box::new(ArimaForecaster::new(ArimaConfig::fixed(
                ArimaOrder::simple(1, 0, 1),
            ))),
            Box::new(FeedForwardForecaster::new(FeedForwardConfig {
                context_len: 24,
                prediction_len: 24,
                hidden: vec![8],
                epochs: 1,
                ..FeedForwardConfig::default()
            })),
        ];
        let holders = Arc::strong_count(&storage);
        for family in &families {
            let fitted = family.fit(&history).unwrap();
            assert_eq!(
                Arc::strong_count(&storage),
                holders,
                "{} keeps its history's buffer alive",
                family.name()
            );
            let forecast = fitted.predict(4).unwrap();
            assert!(!forecast.shares_storage(&history));
            assert_eq!(forecast.start(), history.end());
            assert_eq!(forecast.step_min(), 15);
        }
    }
}
