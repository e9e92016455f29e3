//! Server classification — Definitions 3–6 and the Figure 3 breakdown.
//!
//! "We classify the servers with respect to their lifetime and typical
//! customer activity patterns. ... The classification provides us valuable
//! insights about load predictability per class of servers" (Section 3.2).

use crate::metrics::{is_accurate, AccuracyConfig};
use seagull_telemetry::fleet::ServerTelemetry;
use seagull_telemetry::server::ServerId;
use seagull_timeseries::TimeSeries;
use serde::Serialize;

/// The class Seagull assigns to a server from its load alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ServerClass {
    /// Existed three weeks or less (Definition 3); excluded from prediction.
    ShortLived,
    /// Long-lived, load accurately predicted by its average (Definition 4).
    Stable,
    /// Long-lived, unstable, each day predicted by the previous day
    /// (Definition 5).
    DailyPattern,
    /// Long-lived, unstable, no daily pattern, each day predicted by the
    /// previous equivalent day (Definition 6).
    WeeklyPattern,
    /// Long-lived, unstable, conforms to no pattern.
    NoPattern,
}

impl ServerClass {
    /// Short label for experiment output.
    pub fn label(self) -> &'static str {
        match self {
            ServerClass::ShortLived => "short-lived",
            ServerClass::Stable => "stable",
            ServerClass::DailyPattern => "daily-pattern",
            ServerClass::WeeklyPattern => "weekly-pattern",
            ServerClass::NoPattern => "no-pattern",
        }
    }
}

/// Definition 4: is the load over the series accurately predicted by the
/// series' own average?
pub fn is_stable(series: &TimeSeries) -> bool {
    // The bucket ratio of a constant prediction, without building one: every
    // present point is a comparable pair, and a hit when the average is
    // within the bound of it.
    let (mut sum, mut present) = (0.0, 0usize);
    for &v in series.values() {
        if !v.is_nan() {
            sum += v;
            present += 1;
        }
    }
    if present == 0 {
        return false;
    }
    let avg = sum / present as f64;
    let accuracy = AccuracyConfig::default();
    let hits = series
        .values()
        .iter()
        .filter(|&&t| !t.is_nan() && accuracy.bound.contains(avg, t))
        .count();
    100.0 * hits as f64 / present as f64 >= accuracy.bucket_ratio_threshold
}

/// Definition 5: does every day in the series conform to a daily pattern
/// (day `d` accurately predicted by day `d−1`)? Requires at least two full
/// days; returns `false` otherwise.
pub fn has_daily_pattern(series: &TimeSeries) -> bool {
    conforms_with_lag(series, 1)
}

/// Definition 6 (pattern part): does every day conform to a weekly pattern
/// (day `d` accurately predicted by day `d−7`)? Requires at least eight full
/// days; returns `false` otherwise. Note Definition 6 additionally requires
/// *not* having a daily pattern — [`classify_series`] applies that ordering.
pub fn has_weekly_pattern(series: &TimeSeries) -> bool {
    conforms_with_lag(series, 7)
}

/// True if every full day `d` with a full day `d − lag_days` available is
/// accurately predicted by that earlier day (Definition 2), and at least one
/// such pair exists.
fn conforms_with_lag(series: &TimeSeries, lag_days: i64) -> bool {
    let accuracy = AccuracyConfig::default();
    let mut pairs = 0usize;
    let Some(first) = series.first_full_day() else {
        return false;
    };
    let Some(last) = series.last_full_day() else {
        return false;
    };
    for d in (first + lag_days)..=last {
        let (Some(today), Some(earlier)) = (series.day_values(d), series.day_values(d - lag_days))
        else {
            continue;
        };
        pairs += 1;
        if !is_accurate(earlier, today, &accuracy) {
            return false;
        }
    }
    pairs > 0
}

/// Classifies one long-lived load series (lifespan is checked by the caller,
/// which knows the metadata).
pub fn classify_series(series: &TimeSeries) -> ServerClass {
    if is_stable(series) {
        ServerClass::Stable
    } else if has_daily_pattern(series) {
        ServerClass::DailyPattern
    } else if has_weekly_pattern(series) {
        ServerClass::WeeklyPattern
    } else {
        ServerClass::NoPattern
    }
}

/// Classifies a server: lifespan first (Definition 3), then the pattern
/// hierarchy. `as_of_day` is "today" for the lifespan rule (usually the end
/// of the observation window).
pub fn classify_server(server: &ServerTelemetry, as_of_day: i64) -> ServerClass {
    if !server.meta.is_long_lived(as_of_day) {
        return ServerClass::ShortLived;
    }
    classify_series(&server.series)
}

/// The Figure 3 breakdown of a fleet.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClassificationReport {
    /// Servers per class, in [`ServerClass`] declaration order.
    pub counts: Vec<(ServerClass, usize)>,
    /// Per-server assignments, in input order.
    pub assignments: Vec<(ServerId, ServerClass)>,
}

impl ClassificationReport {
    /// Total servers classified.
    pub fn total(&self) -> usize {
        self.counts.iter().map(|(_, n)| n).sum()
    }

    /// Count for a class.
    pub fn count(&self, class: ServerClass) -> usize {
        self.counts
            .iter()
            .find(|(c, _)| *c == class)
            .map_or(0, |(_, n)| *n)
    }

    /// Percentage (0–100) for a class.
    pub fn percentage(&self, class: ServerClass) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        100.0 * self.count(class) as f64 / total as f64
    }
}

/// Classifies a whole fleet as of `as_of_day` ("today" for the lifespan
/// rule; usually the end of the observation window).
pub fn classify_fleet(fleet: &[ServerTelemetry], as_of_day: i64) -> ClassificationReport {
    let mut assignments = Vec::with_capacity(fleet.len());
    let mut counts: Vec<(ServerClass, usize)> = [
        ServerClass::ShortLived,
        ServerClass::Stable,
        ServerClass::DailyPattern,
        ServerClass::WeeklyPattern,
        ServerClass::NoPattern,
    ]
    .iter()
    .map(|c| (*c, 0usize))
    .collect();
    for server in fleet {
        let class = classify_server(server, as_of_day);
        assignments.push((server.meta.id, class));
        if let Some(entry) = counts.iter_mut().find(|(c, _)| *c == class) {
            entry.1 += 1;
        }
    }
    ClassificationReport {
        counts,
        assignments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use seagull_timeseries::{TimeSeries, Timestamp};

    fn series_of_days(days: usize, f: impl Fn(Timestamp) -> f64) -> TimeSeries {
        TimeSeries::from_fn(Timestamp::from_days(1000), 5, days * 288, f).unwrap()
    }

    #[test]
    fn constant_series_is_stable() {
        let s = series_of_days(7, |_| 25.0);
        assert!(is_stable(&s));
        assert_eq!(classify_series(&s), ServerClass::Stable);
    }

    #[test]
    fn high_amplitude_daily_is_not_stable_but_daily() {
        let s = series_of_days(7, |t| {
            30.0 + 30.0 * (2.0 * std::f64::consts::PI * t.minute_of_day() as f64 / 1440.0).sin()
        });
        assert!(!is_stable(&s));
        assert!(has_daily_pattern(&s));
        assert_eq!(classify_series(&s), ServerClass::DailyPattern);
    }

    #[test]
    fn weekend_structure_is_weekly() {
        // Needs >= 8 full days so a (d, d-7) pair exists.
        let s = series_of_days(15, |t| {
            let base = if t.day_of_week().is_weekend() {
                5.0
            } else {
                65.0
            };
            base + 20.0
                * (2.0 * std::f64::consts::PI * t.minute_of_day() as f64 / 1440.0)
                    .sin()
                    .max(0.0)
                * if t.day_of_week().is_weekend() {
                    0.0
                } else {
                    1.0
                }
        });
        assert!(!is_stable(&s));
        assert!(!has_daily_pattern(&s), "weekend boundary breaks daily");
        assert!(has_weekly_pattern(&s));
        assert_eq!(classify_series(&s), ServerClass::WeeklyPattern);
    }

    #[test]
    fn chaos_is_no_pattern() {
        // Deterministic but aperiodic: large swings keyed to a hash of the
        // absolute 3-hour block index.
        let s = series_of_days(15, |t| {
            let block = t.minutes() / 180;
            ((block.wrapping_mul(2654435761) % 97) as f64).abs()
        });
        assert_eq!(classify_series(&s), ServerClass::NoPattern);
    }

    #[test]
    fn too_short_series_has_no_pattern() {
        let one_day = series_of_days(1, |_| {
            // Varying enough to not be stable.
            0.0
        });
        // One flat day IS stable; make it unstable but too short for daily.
        let swingy = TimeSeries::from_fn(Timestamp::from_days(1000), 5, 288, |t| {
            (t.minute_of_day() % 100) as f64
        })
        .unwrap();
        assert!(!has_daily_pattern(&swingy));
        assert!(!has_weekly_pattern(&swingy));
        assert!(is_stable(&one_day));
    }

    #[test]
    fn empty_series_is_nothing() {
        let empty = TimeSeries::empty(Timestamp::EPOCH, 5).unwrap();
        assert!(!is_stable(&empty));
        assert_eq!(classify_series(&empty), ServerClass::NoPattern);
    }

    #[test]
    fn fleet_report_percentages() {
        use seagull_telemetry::fleet::{FleetGenerator, FleetSpec};
        let mut spec = FleetSpec::small_region(31);
        spec.regions[0].servers = 400;
        let start = spec.start_day;
        let fleet = FleetGenerator::new(spec).generate_weeks(4);
        let report = classify_fleet(&fleet, start + 28);
        assert_eq!(report.total(), 400);
        // The generated mix should be recovered approximately (Figure 3).
        let short = report.percentage(ServerClass::ShortLived);
        assert!((short - 42.1).abs() < 8.0, "short-lived {short}%");
        let stable = report.percentage(ServerClass::Stable);
        assert!((stable - 53.5).abs() < 8.0, "stable {stable}%");
        let total_pct: f64 = [
            ServerClass::ShortLived,
            ServerClass::Stable,
            ServerClass::DailyPattern,
            ServerClass::WeeklyPattern,
            ServerClass::NoPattern,
        ]
        .iter()
        .map(|c| report.percentage(*c))
        .sum();
        assert!((total_pct - 100.0).abs() < 1e-9, "partition sums to 100");
    }

    #[test]
    fn labels() {
        assert_eq!(ServerClass::NoPattern.label(), "no-pattern");
        assert_eq!(ServerClass::ShortLived.label(), "short-lived");
    }

    /// `is_stable` as it was: the present values collected for their mean,
    /// and a constant prediction built for `bucket_ratio` to score.
    fn is_stable_reference(series: &TimeSeries) -> bool {
        if series.is_empty() {
            return false;
        }
        let present: Vec<f64> = series
            .values()
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .collect();
        if present.is_empty() {
            return false;
        }
        let avg = seagull_timeseries::mean(&present);
        let constant = vec![avg; series.len()];
        let accuracy = AccuracyConfig::default();
        crate::metrics::bucket_ratio(&constant, series.values(), &accuracy.bound)
            .is_some_and(|r| r >= accuracy.bucket_ratio_threshold)
    }

    proptest! {
        /// Counting bound hits against the scalar mean decides exactly what
        /// scoring a constant prediction decided, around the 90 % threshold
        /// (a base level with a varying share of outliers), with gaps, on
        /// all-gap and empty series, and when the sum overflows.
        #[test]
        fn is_stable_matches_reference(
            base in 0.0f64..100.0,
            points in proptest::collection::vec(
                prop_oneof![
                    12 => -5.0f64..10.0,
                    2 => 10.0f64..60.0,
                    2 => Just(f64::NAN),
                    1 => Just(-0.0),
                    1 => prop_oneof![Just(1e308), Just(-1e308)],
                ],
                0..120,
            ),
            absolute in any::<bool>(),
        ) {
            let values = points
                .into_iter()
                .map(|p| if absolute || p.abs() >= 1e308 { p } else { base + p })
                .collect();
            let s = TimeSeries::new(Timestamp::from_days(1000), 5, values).unwrap();
            prop_assert_eq!(is_stable(&s), is_stable_reference(&s));
        }
    }
}
