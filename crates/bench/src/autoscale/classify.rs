//! SQL database classification — Definition 10.
//!
//! "A stable database is defined as a database whose variation does not
//! exceed one standard deviation for the last three days in the period
//! evaluated. Otherwise, a database is called unstable" (Appendix A.1).
//!
//! The definition leaves the unit of "one standard deviation" open. We read
//! it as a fixed deviation budget in CPU percentage points (the natural unit
//! of the signal): a database is stable when the standard deviation of its
//! load over the last three days does not exceed `sigma_budget` points.
//! A relative reading (tail spread vs. the period's own σ) cannot work: for
//! any stationary noisy-but-flat database the two are equal by construction,
//! so *no* database would ever classify as stable regardless of how flat it
//! is. With the default budget the paper's measured 19.36 % stable share is
//! reproduced by the synthetic SQL population
//! ([`super::evaluate::sql_fleet_spec`]).

use seagull_telemetry::fleet::ServerTelemetry;
use seagull_timeseries::{TimeSeries, Timestamp};
use serde::Serialize;

/// Definition 10 parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct StableDbConfig {
    /// Days of trailing history the rule inspects (paper: 3).
    pub window_days: i64,
    /// Maximum standard deviation of the trailing window, in CPU percentage
    /// points, for the database to count as stable.
    pub sigma_budget: f64,
}

impl Default for StableDbConfig {
    fn default() -> Self {
        StableDbConfig {
            window_days: 3,
            sigma_budget: 2.0,
        }
    }
}

/// Applies Definition 10 to one database's load over the evaluated period.
/// Returns `false` when fewer than `window_days` full days exist.
pub fn is_stable_database(series: &TimeSeries, config: &StableDbConfig) -> bool {
    let Some(last) = series.last_full_day() else {
        return false;
    };
    let first_needed = last - config.window_days + 1;
    let from = Timestamp::from_days(first_needed);
    let to = Timestamp::from_days(last + 1);
    let Ok(tail) = series.slice_values(from, to) else {
        return false;
    };
    let present: Vec<f64> = tail.iter().copied().filter(|v| !v.is_nan()).collect();
    if present.len() < tail.len() / 2 {
        return false; // Too little data in the window to call it stable.
    }
    seagull_timeseries::stddev(&present) <= config.sigma_budget
}

/// Fleet-level classification result.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SqlClassification {
    /// Databases classified.
    pub databases: usize,
    /// Databases meeting the Definition 10 stability criterion.
    pub stable: usize,
}

impl SqlClassification {
    /// Percentage of stable databases (the paper's 19.36 %).
    pub fn stable_pct(&self) -> f64 {
        if self.databases == 0 {
            0.0
        } else {
            100.0 * self.stable as f64 / self.databases as f64
        }
    }
}

/// Classifies a SQL fleet.
pub fn classify_sql_fleet(fleet: &[ServerTelemetry], config: &StableDbConfig) -> SqlClassification {
    let stable = fleet
        .iter()
        .filter(|db| is_stable_database(&db.series, config))
        .count();
    SqlClassification {
        databases: fleet.len(),
        stable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(days: usize, f: impl Fn(Timestamp) -> f64) -> TimeSeries {
        TimeSeries::from_fn(Timestamp::from_days(500), 15, days * 96, f).unwrap()
    }

    #[test]
    fn flat_database_is_stable() {
        let s = series(7, |_| 20.0);
        assert!(is_stable_database(&s, &StableDbConfig::default()));
    }

    #[test]
    fn mild_noise_is_stable() {
        let s = series(7, |t| 20.0 + ((t.minutes() / 15) % 3) as f64);
        // Values 20, 21, 22: stddev < 1.
        assert!(is_stable_database(&s, &StableDbConfig::default()));
    }

    #[test]
    fn swinging_tail_is_unstable() {
        let s = series(7, |t| {
            if t.day_index() >= 504 {
                if (t.minutes() / 15) % 2 == 0 {
                    0.0
                } else {
                    80.0
                }
            } else {
                30.0
            }
        });
        assert!(!is_stable_database(&s, &StableDbConfig::default()));
    }

    #[test]
    fn calm_tail_after_noisy_history_is_stable() {
        // The rule only inspects the trailing window.
        let s = series(7, |t| {
            if t.day_index() < 504 {
                if (t.minutes() / 15) % 2 == 0 {
                    10.0
                } else {
                    50.0
                }
            } else {
                30.0
            }
        });
        assert!(is_stable_database(&s, &StableDbConfig::default()));
    }

    #[test]
    fn short_history_is_unstable() {
        let s = series(2, |_| 20.0);
        assert!(!is_stable_database(&s, &StableDbConfig::default()));
    }

    #[test]
    fn missing_data_blocks_stability() {
        let mut s = series(4, |_| 20.0);
        let n = s.len();
        for v in s.values_mut()[n - 2 * 96..].iter_mut() {
            *v = f64::NAN;
        }
        assert!(!is_stable_database(&s, &StableDbConfig::default()));
    }

    #[test]
    fn budget_tightens_or_loosens() {
        let s = series(7, |t| 30.0 + 5.0 * ((t.minutes() / 15) % 2) as f64);
        // stddev = 2.5.
        let loose = StableDbConfig {
            sigma_budget: 3.0,
            ..StableDbConfig::default()
        };
        let tight = StableDbConfig {
            sigma_budget: 2.0,
            ..StableDbConfig::default()
        };
        assert!(is_stable_database(&s, &loose));
        assert!(!is_stable_database(&s, &tight));
    }

    #[test]
    fn fleet_percentage_matches_paper_ballpark() {
        use seagull_telemetry::fleet::FleetGenerator;
        let spec = crate::autoscale::evaluate::sql_fleet_spec(9, 600);
        let fleet = FleetGenerator::new(spec).generate_weeks(1);
        let report = classify_sql_fleet(&fleet, &StableDbConfig::default());
        assert_eq!(report.databases, 600);
        // The paper measures 19.36 % stable.
        let pct = report.stable_pct();
        assert!(pct > 12.0 && pct < 28.0, "stable {pct}%");
    }
}
