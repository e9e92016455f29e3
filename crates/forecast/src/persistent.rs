//! Persistent forecasting: "replicating previously seen load per server as
//! the forecast of the load for this server" (Section 5.1).
//!
//! Three variants, exactly as the paper compares them:
//!
//! * **Previous week average** — a constant prediction equal to the mean load
//!   over the last week of history. Captures stable servers (Definition 4).
//! * **Previous equivalent day** — replicates the load of the same weekday
//!   one week ago. Captures weekly patterns (Definition 6).
//! * **Previous day** — replicates yesterday's load. Captures daily patterns
//!   (Definition 5) and is the variant deployed to production (Section 5.4).

use crate::{FittedModel, ForecastError, ForecastGrid, Forecaster};
use seagull_timeseries::TimeSeries;
use serde::Serialize;

/// Which persistent-forecast heuristic to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum PersistentVariant {
    /// Average of the same grid slot over the previous week.
    PreviousWeekAverage,
    /// Replicate the most recent same day-of-week.
    PreviousEquivalentDay,
    /// Replicate the previous day (the production default).
    PreviousDay,
}

impl PersistentVariant {
    /// All variants, in the paper's presentation order.
    pub const ALL: [PersistentVariant; 3] = [
        PersistentVariant::PreviousWeekAverage,
        PersistentVariant::PreviousEquivalentDay,
        PersistentVariant::PreviousDay,
    ];
}

/// The persistent-forecast model.
///
/// ```
/// use seagull_forecast::{Forecaster, PersistentForecast};
/// use seagull_timeseries::{TimeSeries, Timestamp};
/// // Two days of history whose value is the day index.
/// let hist = TimeSeries::from_fn(Timestamp::from_days(10), 5, 2 * 288, |t| {
///     t.day_index() as f64
/// }).unwrap();
/// let pred = PersistentForecast::previous_day()
///     .fit_predict(&hist, 288)
///     .unwrap();
/// // Day 12 is predicted as a replay of day 11.
/// assert!(pred.values().iter().all(|&v| v == 11.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistentForecast {
    variant: PersistentVariant,
}

impl PersistentForecast {
    /// Creates a model with the chosen variant.
    pub fn new(variant: PersistentVariant) -> PersistentForecast {
        PersistentForecast { variant }
    }

    /// The production configuration: previous day.
    pub fn previous_day() -> PersistentForecast {
        Self::new(PersistentVariant::PreviousDay)
    }

    /// The variant.
    pub fn variant(&self) -> PersistentVariant {
        self.variant
    }
}

impl Forecaster for PersistentForecast {
    fn name(&self) -> &'static str {
        match self.variant {
            PersistentVariant::PreviousWeekAverage => "persistent-week-avg",
            PersistentVariant::PreviousEquivalentDay => "persistent-prev-eq-day",
            PersistentVariant::PreviousDay => "persistent-prev-day",
        }
    }

    fn fit(&self, history: &TimeSeries) -> Result<Box<dyn FittedModel>, ForecastError> {
        let points_per_day = history.points_per_day();
        let needed = match self.variant {
            PersistentVariant::PreviousDay => points_per_day,
            // Week-average works from whatever is available up to a week but
            // needs at least a day to be meaningful; equivalent-day needs the
            // full week back.
            PersistentVariant::PreviousWeekAverage => points_per_day,
            PersistentVariant::PreviousEquivalentDay => 7 * points_per_day,
        };
        // NaNs are tolerated here (persistence replicates them); the metric
        // layer treats NaN predictions as automatic misses, matching how
        // production handles holes. Only the length is validated.
        if history.len() < needed {
            return Err(ForecastError::InsufficientHistory {
                needed,
                got: history.len(),
            });
        }
        let grid = ForecastGrid::after(history);
        let fitted = match self.variant {
            PersistentVariant::PreviousWeekAverage => {
                let week_points = (7 * points_per_day).min(history.len());
                let tail = &history.values()[history.len() - week_points..];
                let present: Vec<f64> = tail.iter().copied().filter(|v| !v.is_nan()).collect();
                Fitted::Constant {
                    value: seagull_timeseries::mean(&present),
                    grid,
                }
            }
            // `needed` above is one lookback period, so the copy is whole.
            PersistentVariant::PreviousEquivalentDay | PersistentVariant::PreviousDay => {
                Fitted::Replicate {
                    period: history.values()[history.len() - needed..].to_vec(),
                    grid,
                }
            }
        };
        Ok(Box::new(fitted))
    }
}

enum Fitted {
    /// Constant prediction (previous-week average).
    Constant { value: f64, grid: ForecastGrid },
    /// Replay the last lookback period (a day or a week) of the history,
    /// over and over when the horizon is longer than it. The period is a
    /// copy: a view would keep the region-week's decode buffer alive (see
    /// [`ForecastGrid`]).
    Replicate {
        period: Vec<f64>,
        grid: ForecastGrid,
    },
}

impl FittedModel for Fitted {
    fn predict(&self, horizon: usize) -> Result<TimeSeries, ForecastError> {
        match self {
            Fitted::Constant { value, grid } => grid.series(vec![*value; horizon]),
            Fitted::Replicate { period, grid } => {
                grid.series(period.iter().copied().cycle().take(horizon).collect())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::daily_sine;
    use seagull_timeseries::Timestamp;

    #[test]
    fn previous_day_replays_yesterday() {
        let hist = daily_sine(7, 5);
        let model = PersistentForecast::previous_day();
        let pred = model.fit_predict(&hist, 288).unwrap();
        assert_eq!(pred.start(), hist.end());
        let last_day = &hist.values()[6 * 288..];
        assert_eq!(pred.values(), last_day);
    }

    #[test]
    fn previous_day_wraps_for_long_horizons() {
        let hist = daily_sine(7, 5);
        let model = PersistentForecast::previous_day();
        let pred = model.fit_predict(&hist, 2 * 288).unwrap();
        let last_day = &hist.values()[6 * 288..];
        assert_eq!(&pred.values()[..288], last_day);
        assert_eq!(&pred.values()[288..], last_day);
    }

    #[test]
    fn previous_equivalent_day_replays_last_week() {
        // Build a series where each weekday has a distinct constant level.
        let hist = TimeSeries::from_fn(Timestamp::from_days(700), 5, 7 * 288, |t| {
            t.day_of_week().index() as f64 * 10.0
        })
        .unwrap();
        let model = PersistentForecast::new(PersistentVariant::PreviousEquivalentDay);
        let pred = model.fit_predict(&hist, 288).unwrap();
        // The predicted day is the same weekday as 7 days prior, so the
        // constant must match the true next day's level.
        let expect = pred.start().day_of_week().index() as f64 * 10.0;
        assert!(pred.values().iter().all(|&v| v == expect));
    }

    #[test]
    fn week_average_is_constant_mean() {
        let hist = TimeSeries::from_fn(Timestamp::from_days(10), 5, 7 * 288, |t| {
            if t.day_index() % 2 == 0 {
                10.0
            } else {
                20.0
            }
        })
        .unwrap();
        let model = PersistentForecast::new(PersistentVariant::PreviousWeekAverage);
        let pred = model.fit_predict(&hist, 100).unwrap();
        let mean = hist.mean();
        assert!(pred.values().iter().all(|&v| (v - mean).abs() < 1e-12));
        assert_eq!(pred.len(), 100);
    }

    #[test]
    fn insufficient_history_rejected() {
        let short = daily_sine(1, 5);
        let eq = PersistentForecast::new(PersistentVariant::PreviousEquivalentDay);
        assert!(matches!(
            eq.fit(&short),
            Err(ForecastError::InsufficientHistory { .. })
        ));
        let tiny = TimeSeries::from_fn(Timestamp::from_days(1), 5, 4, |_| 0.0).unwrap();
        assert!(PersistentForecast::previous_day().fit(&tiny).is_err());
    }

    #[test]
    fn nan_history_replicates_nan() {
        let mut hist = daily_sine(2, 5);
        let n = hist.len();
        hist.values_mut()[n - 1] = f64::NAN;
        let pred = PersistentForecast::previous_day()
            .fit_predict(&hist, 288)
            .unwrap();
        assert!(pred.values()[287].is_nan());
        assert!(!pred.values()[0].is_nan());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(
            PersistentForecast::previous_day().name(),
            "persistent-prev-day"
        );
        assert_eq!(
            PersistentForecast::new(PersistentVariant::PreviousWeekAverage).name(),
            "persistent-week-avg"
        );
        assert_eq!(
            PersistentForecast::new(PersistentVariant::PreviousEquivalentDay).name(),
            "persistent-prev-eq-day"
        );
    }

    #[test]
    fn perfect_on_exact_daily_pattern() {
        // Property from the paper: persistent forecast is exact for a
        // noiseless periodic series.
        let hist = daily_sine(3, 15);
        let pred = PersistentForecast::previous_day()
            .fit_predict(&hist, 96)
            .unwrap();
        let truth = daily_sine(4, 15);
        let expected = truth.slice_values(hist.end(), hist.end() + 1440).unwrap();
        for (p, e) in pred.values().iter().zip(expected) {
            assert!((p - e).abs() < 1e-9);
        }
    }
}
