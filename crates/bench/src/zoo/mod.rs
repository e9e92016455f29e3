//! The Fig. 11 model zoo: the baselines the paper compared persistent
//! forecast against (Section 5.1), and the Section 5.2 per-class router it
//! declined to deploy. None of them is reachable from a `PipelineConfig`;
//! the production crates keep persistent forecast and SSA only.
//!
//! * [`feedforward`] — a simple feed-forward neural network estimator, the
//!   GluonTS model the paper trains ("we train a simple feed forward
//!   estimator").
//! * [`additive`] — a Prophet-style additive model: piecewise-linear trend
//!   with changepoints plus Fourier daily/weekly seasonality.
//! * [`arima`] — ARIMA(p,d,q) with an automatic order grid search, matching
//!   pmdarima's auto-ARIMA behaviour (and, as in the paper, its cost).
//! * [`select`] — a router that sends each server to a model by the
//!   pipeline's own classification of its history.

#![warn(missing_docs)]

pub mod additive;
pub mod arima;
pub mod feedforward;
pub mod select;

pub use additive::{AdditiveConfig, AdditiveForecaster};
pub use arima::{ArimaConfig, ArimaForecaster, ArimaOrder};
pub use feedforward::{FeedForwardConfig, FeedForwardForecaster};
pub use select::ClassAwareForecaster;

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
    use seagull_forecast::Forecaster;
    use seagull_timeseries::TimeSeries;
    use std::sync::Arc;

    /// A fitted zoo model holds no reference to the buffer its history was a
    /// view of, as `seagull-forecast`'s own models do not.
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
