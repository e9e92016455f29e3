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
//! Classification happens on the *training history* at fit time using the
//! same Definitions 4–6 logic as the classifier proper.

use crate::persistent::{PersistentForecast, PersistentVariant};
use crate::{FittedModel, ForecastError, Forecaster};
use seagull_timeseries::TimeSeries;
use std::sync::Arc;

/// The pattern detected in a training history (a history-local mirror of the
/// fleet classifier's pattern hierarchy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryPattern {
    /// A constant (mean-predictable) history.
    Stable,
    /// Each day conforms to the previous day.
    Daily,
    /// Each day conforms to the same day one week earlier.
    Weekly,
    /// No detected pattern (unstable).
    None,
}

/// Thresholds for history-local pattern detection. These mirror the
/// `seagull-core` classifier's defaults; they are duplicated here (rather
/// than imported) because `seagull-core` depends on this crate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternThresholds {
    /// Tolerated over-prediction (CPU points).
    pub over: f64,
    /// Tolerated under-prediction (CPU points).
    pub under: f64,
    /// Required fraction of in-bound points, `[0, 1]`.
    pub ratio: f64,
}

impl Default for PatternThresholds {
    fn default() -> Self {
        PatternThresholds {
            over: 10.0,
            under: 5.0,
            ratio: 0.9,
        }
    }
}

impl PatternThresholds {
    fn in_bound(&self, predicted: f64, truth: f64) -> bool {
        let err = predicted - truth;
        err <= self.over && -err <= self.under
    }

    /// Fraction of comparable points where `predicted` lands within the
    /// over/under tolerance of `truth` (NaN truths are skipped, NaN
    /// predictions count as misses); `None` when nothing is comparable.
    ///
    /// This is the scoring primitive behind pattern detection.
    pub fn in_bound_fraction(&self, predicted: &[f64], truth: &[f64]) -> Option<f64> {
        let mut hits = 0usize;
        let mut total = 0usize;
        for (&p, &t) in predicted.iter().zip(truth) {
            if t.is_nan() {
                continue;
            }
            total += 1;
            if !p.is_nan() && self.in_bound(p, t) {
                hits += 1;
            }
        }
        (total > 0).then(|| hits as f64 / total as f64)
    }

    fn ratio_ok(&self, predicted: &[f64], truth: &[f64]) -> bool {
        self.in_bound_fraction(predicted, truth)
            .is_some_and(|f| f >= self.ratio)
    }
}

/// Detects the pattern of a training history.
pub fn detect_pattern(history: &TimeSeries, thresholds: &PatternThresholds) -> HistoryPattern {
    // Stable: the mean predicts the whole history.
    let present: Vec<f64> = history
        .values()
        .iter()
        .copied()
        .filter(|v| !v.is_nan())
        .collect();
    if present.is_empty() {
        return HistoryPattern::None;
    }
    let mean = seagull_timeseries::mean(&present);
    let constant = vec![mean; history.len()];
    if thresholds.ratio_ok(&constant, history.values()) {
        return HistoryPattern::Stable;
    }
    // Daily: every consecutive day pair conforms.
    let lag_ok = |lag: i64| {
        let (Some(first), Some(last)) = (history.first_full_day(), history.last_full_day()) else {
            return false;
        };
        let mut pairs = 0;
        for d in (first + lag)..=last {
            let (Some(today), Some(earlier)) = (history.day_values(d), history.day_values(d - lag))
            else {
                continue;
            };
            pairs += 1;
            if !thresholds.ratio_ok(earlier, today) {
                return false;
            }
        }
        pairs > 0
    };
    if lag_ok(1) {
        HistoryPattern::Daily
    } else if lag_ok(7) {
        HistoryPattern::Weekly
    } else {
        HistoryPattern::None
    }
}

/// A forecaster that routes each server to a model by its detected pattern.
pub struct ClassAwareForecaster {
    thresholds: PatternThresholds,
    stable: Arc<dyn Forecaster>,
    daily: Arc<dyn Forecaster>,
    weekly: Arc<dyn Forecaster>,
    unstable: Arc<dyn Forecaster>,
}

impl ClassAwareForecaster {
    /// Builds a router with explicit per-class models.
    pub fn new(
        thresholds: PatternThresholds,
        stable: Arc<dyn Forecaster>,
        daily: Arc<dyn Forecaster>,
        weekly: Arc<dyn Forecaster>,
        unstable: Arc<dyn Forecaster>,
    ) -> ClassAwareForecaster {
        ClassAwareForecaster {
            thresholds,
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
            PatternThresholds::default(),
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

    /// Which model a history routes to.
    pub fn route(&self, history: &TimeSeries) -> (&'static str, &Arc<dyn Forecaster>) {
        match detect_pattern(history, &self.thresholds) {
            HistoryPattern::Stable => ("stable", &self.stable),
            HistoryPattern::Daily => ("daily", &self.daily),
            HistoryPattern::Weekly => ("weekly", &self.weekly),
            HistoryPattern::None => ("unstable", &self.unstable),
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
    use crate::testutil::daily_sine;
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
    fn pattern_detection() {
        let th = PatternThresholds::default();
        assert_eq!(detect_pattern(&flat(7), &th), HistoryPattern::Stable);
        assert_eq!(
            detect_pattern(&daily_sine(7, 15), &th),
            HistoryPattern::Daily
        );
        assert_eq!(detect_pattern(&weekly(15), &th), HistoryPattern::Weekly);
        assert_eq!(detect_pattern(&chaos(7), &th), HistoryPattern::None);
        let empty = TimeSeries::empty(Timestamp::EPOCH, 15).unwrap();
        assert_eq!(detect_pattern(&empty, &th), HistoryPattern::None);
    }

    #[test]
    fn routes_to_matching_model() {
        let router =
            ClassAwareForecaster::paper_defaults(Arc::new(PersistentForecast::previous_day()));
        assert_eq!(router.route(&flat(7)).0, "stable");
        assert_eq!(router.route(&daily_sine(7, 15)).0, "daily");
        assert_eq!(router.route(&weekly(15)).0, "weekly");
        assert_eq!(router.route(&chaos(7)).0, "unstable");
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
