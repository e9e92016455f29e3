//! Per-class model selection — Section 5.2's "ML Model per Class of Servers".
//!
//! The paper discusses (and ultimately declines, for operational simplicity)
//! deploying a different model per class of servers: persistent forecast for
//! stable and patterned servers, an ML model for unstable servers. This
//! module implements that strategy as a composable [`Forecaster`], so the
//! ablation harness can quantify what the simpler single-model deployment
//! gave up ("it is easier to maintain a single model for the entire fleet of
//! servers than a different model per each class", Section 5.4).
//!
//! Classification happens on the *training history* at fit time, by the
//! pipeline's own classifier ([`classify_series`], Definitions 4–6).

use seagull_core::classify::{classify_series, ServerClass};
use seagull_forecast::{
    FittedModel, ForecastError, Forecaster, PersistentForecast, PersistentVariant,
};
use seagull_timeseries::TimeSeries;
use std::sync::Arc;

/// A forecaster that routes each server to a model by its class.
pub struct ClassAwareForecaster {
    stable: Arc<dyn Forecaster>,
    daily: Arc<dyn Forecaster>,
    weekly: Arc<dyn Forecaster>,
    unstable: Arc<dyn Forecaster>,
}

impl ClassAwareForecaster {
    /// Builds a router with explicit per-class models.
    pub fn new(
        stable: Arc<dyn Forecaster>,
        daily: Arc<dyn Forecaster>,
        weekly: Arc<dyn Forecaster>,
        unstable: Arc<dyn Forecaster>,
    ) -> ClassAwareForecaster {
        ClassAwareForecaster {
            stable,
            daily,
            weekly,
            unstable,
        }
    }

    /// The Section 5.2 configuration: persistent variants matched to their
    /// classes, with a pluggable model for unstable servers.
    pub fn paper_defaults(unstable: Arc<dyn Forecaster>) -> ClassAwareForecaster {
        ClassAwareForecaster::new(
            Arc::new(PersistentForecast::new(
                PersistentVariant::PreviousWeekAverage,
            )),
            Arc::new(PersistentForecast::new(PersistentVariant::PreviousDay)),
            Arc::new(PersistentForecast::new(
                PersistentVariant::PreviousEquivalentDay,
            )),
            unstable,
        )
    }

    /// Which model a history routes to, by its class under the paper's
    /// Definitions 4–6. `ShortLived` is a lifespan verdict that
    /// [`classify_series`] never returns; it would route as unstable.
    pub fn route(&self, history: &TimeSeries) -> (&'static str, &Arc<dyn Forecaster>) {
        match classify_series(history) {
            ServerClass::Stable => ("stable", &self.stable),
            ServerClass::DailyPattern => ("daily", &self.daily),
            ServerClass::WeeklyPattern => ("weekly", &self.weekly),
            ServerClass::NoPattern | ServerClass::ShortLived => ("unstable", &self.unstable),
        }
    }
}

impl Forecaster for ClassAwareForecaster {
    fn name(&self) -> &'static str {
        "class-aware"
    }

    fn fit(&self, history: &TimeSeries) -> Result<Box<dyn FittedModel>, ForecastError> {
        let (_, model) = self.route(history);
        match model.fit(history) {
            Ok(fitted) => Ok(fitted),
            // If the class-specific model cannot fit (e.g. the weekly
            // variant on six days of history), fall back to the daily model,
            // which has the weakest requirements.
            Err(_) => self.daily.fit(history),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::testutil::daily_sine;
    use seagull_timeseries::{TimeSeries, Timestamp};

    fn flat(days: usize) -> TimeSeries {
        TimeSeries::from_fn(Timestamp::from_days(700), 15, days * 96, |_| 25.0).unwrap()
    }

    fn weekly(days: usize) -> TimeSeries {
        TimeSeries::from_fn(Timestamp::from_days(700), 15, days * 96, |t| {
            if t.day_of_week().is_weekend() {
                5.0
            } else {
                60.0
            }
        })
        .unwrap()
    }

    fn chaos(days: usize) -> TimeSeries {
        TimeSeries::from_fn(Timestamp::from_days(700), 15, days * 96, |t| {
            let b = t.minutes() / 200;
            ((b.wrapping_mul(2654435761)) % 83) as f64
        })
        .unwrap()
    }

    #[test]
    fn routes_to_matching_model() {
        let router =
            ClassAwareForecaster::paper_defaults(Arc::new(PersistentForecast::previous_day()));
        assert_eq!(router.route(&flat(7)).0, "stable");
        assert_eq!(router.route(&daily_sine(7, 15)).0, "daily");
        assert_eq!(router.route(&weekly(15)).0, "weekly");
        assert_eq!(router.route(&chaos(7)).0, "unstable");
        let empty = TimeSeries::empty(Timestamp::EPOCH, 15).unwrap();
        assert_eq!(router.route(&empty).0, "unstable");
    }

    #[test]
    fn forecasts_flow_through_routed_model() {
        let router =
            ClassAwareForecaster::paper_defaults(Arc::new(PersistentForecast::previous_day()));
        // Stable history -> week-average model -> constant prediction.
        let pred = router.fit_predict(&flat(7), 96).unwrap();
        assert!(pred.values().iter().all(|v| (v - 25.0).abs() < 1e-9));
        // Daily history -> previous-day replication.
        let hist = daily_sine(7, 15);
        let pred = router.fit_predict(&hist, 96).unwrap();
        assert_eq!(pred.values(), &hist.values()[6 * 96..]);
    }

    #[test]
    fn weekly_fallback_when_history_too_short() {
        // Weekly-shaped but only 6 days: the weekly model cannot fit, the
        // router falls back to previous-day instead of failing.
        let short = weekly(6);
        let router =
            ClassAwareForecaster::paper_defaults(Arc::new(PersistentForecast::previous_day()));
        // Detection needs a (d, d-7) pair, so this classifies as
        // stable/daily/none; whatever the route, fit must succeed.
        assert!(router.fit(&short).is_ok());
    }
}
