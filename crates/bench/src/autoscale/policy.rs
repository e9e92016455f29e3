//! Preemptive auto-scale policy — the Appendix A scenario end-to-end.
//!
//! The paper's second use case: "we will use SEAGULL infrastructure for
//! preemptive auto-scale of resources for Azure SQL databases" (Appendix A),
//! motivated by Figure 13(b)'s observation that 96.3 % of servers never
//! reach capacity. This module closes the loop the appendix sketches:
//! predicted load → recommended allocation on a discrete SKU ladder →
//! simulated outcome (throttling violations vs wasted capacity), with a
//! *reactive* baseline (yesterday's peak) for comparison.

use seagull_core::par::parallel_map;
use seagull_forecast::Forecaster;
use seagull_telemetry::fleet::ServerTelemetry;
use seagull_timeseries::{TimeSeries, Timestamp};
use serde::Serialize;

/// The discrete capacity steps databases can be resized between, in the same
/// CPU-percentage units as the telemetry (100 = the largest SKU).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SkuLadder {
    /// Capacity steps in ascending order.
    pub steps: Vec<f64>,
}

impl Default for SkuLadder {
    fn default() -> Self {
        SkuLadder {
            steps: vec![12.5, 25.0, 50.0, 75.0, 100.0],
        }
    }
}

impl SkuLadder {
    /// The smallest step covering `demand`, or the largest step if none does.
    pub fn fit(&self, demand: f64) -> f64 {
        self.steps
            .iter()
            .copied()
            .find(|s| *s >= demand)
            .unwrap_or_else(|| self.steps.iter().copied().fold(f64::NEG_INFINITY, f64::max))
    }
}

/// Sizing policy applied to a predicted (or observed) day of load.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AutoscalePolicy {
    /// The sizing statistic: quantile of the day's load (1.0 = max).
    pub sizing_quantile: f64,
    /// Multiplicative headroom above the sizing statistic.
    pub headroom: f64,
}

impl Default for AutoscalePolicy {
    fn default() -> Self {
        AutoscalePolicy {
            sizing_quantile: 0.98,
            headroom: 1.15,
        }
    }
}

impl AutoscalePolicy {
    /// Target capacity for a day of (predicted) load.
    pub fn target(&self, day: &TimeSeries, ladder: &SkuLadder) -> f64 {
        let q = seagull_timeseries::quantile(day.values(), self.sizing_quantile);
        ladder.fit(q * self.headroom)
    }
}

/// Outcome of running one database for one day at a fixed capacity.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct DayOutcome {
    /// Allocated capacity.
    pub capacity: f64,
    /// Minutes in which true demand exceeded capacity (throttling).
    pub violation_min: f64,
    /// Integral of unused capacity, in CPU-percent·hours.
    pub waste_pct_hours: f64,
}

/// Simulates one day: demand above capacity is throttled (a violation);
/// capacity above demand is waste.
pub fn simulate_day(truth: &TimeSeries, capacity: f64) -> DayOutcome {
    let step_h = truth.step_min() as f64 / 60.0;
    let mut violation_min = 0.0;
    let mut waste = 0.0;
    for &v in truth.values() {
        if v.is_nan() {
            continue;
        }
        if v > capacity {
            violation_min += truth.step_min() as f64;
        } else {
            waste += (capacity - v) * step_h;
        }
    }
    DayOutcome {
        capacity,
        violation_min,
        waste_pct_hours: waste,
    }
}

/// Which signal sizes the allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SizingMode {
    /// Preemptive: size on the model's 24 h-ahead prediction (the Seagull
    /// use case).
    Preemptive,
    /// Reactive: size on yesterday's observed load (what reactive auto-scale
    /// converges to, one day late).
    Reactive,
    /// Static: stay on the largest SKU (no auto-scale).
    StaticMax,
}

/// Fleet-level aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct PolicySummary {
    /// Databases simulated.
    pub databases: usize,
    /// Database-days with both a forecast and truth to evaluate.
    pub evaluated: usize,
    /// Share of evaluated database-days with any throttling, percent.
    pub violation_rate_pct: f64,
    /// Mean throttled minutes per database-day.
    pub mean_violation_min: f64,
    /// Mean wasted capacity per database-day, CPU-percent·hours.
    pub mean_waste_pct_hours: f64,
    /// Mean allocated capacity.
    pub mean_capacity: f64,
}

/// Evaluates a sizing mode over a fleet for `target_day`.
#[allow(clippy::too_many_arguments)] // mirrors the experiment parameter list
pub fn evaluate_policy(
    fleet: &[ServerTelemetry],
    target_day: i64,
    mode: SizingMode,
    policy: &AutoscalePolicy,
    ladder: &SkuLadder,
    forecaster: &dyn Forecaster,
    train_days: i64,
    threads: usize,
) -> PolicySummary {
    let outcomes: Vec<Option<DayOutcome>> = parallel_map(fleet, threads, |db| {
        let truth = db.series.day(target_day)?;
        let capacity = match mode {
            SizingMode::StaticMax => ladder
                .steps
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max),
            SizingMode::Reactive => {
                let yesterday = db.series.day(target_day - 1)?;
                policy.target(&yesterday, ladder)
            }
            SizingMode::Preemptive => {
                let day_start = Timestamp::from_days(target_day);
                let history = db
                    .series
                    .slice(Timestamp::from_days(target_day - train_days), day_start)
                    .ok()?;
                if history.check_finite().is_err() {
                    return None;
                }
                let predicted = forecaster.fit_predict(&history, truth.len()).ok()?;
                policy.target(&predicted, ladder)
            }
        };
        Some(simulate_day(&truth, capacity))
    });
    let ok: Vec<&DayOutcome> = outcomes.iter().flatten().collect();
    let n = ok.len().max(1) as f64;
    PolicySummary {
        databases: fleet.len(),
        evaluated: ok.len(),
        violation_rate_pct: 100.0 * ok.iter().filter(|o| o.violation_min > 0.0).count() as f64 / n,
        mean_violation_min: ok.iter().map(|o| o.violation_min).sum::<f64>() / n,
        mean_waste_pct_hours: ok.iter().map(|o| o.waste_pct_hours).sum::<f64>() / n,
        mean_capacity: ok.iter().map(|o| o.capacity).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscale::evaluate::sql_fleet_spec;
    use seagull_forecast::PersistentForecast;
    use seagull_telemetry::fleet::FleetGenerator;

    #[test]
    fn ladder_fit() {
        let ladder = SkuLadder::default();
        assert_eq!(ladder.fit(5.0), 12.5);
        assert_eq!(ladder.fit(12.5), 12.5);
        assert_eq!(ladder.fit(26.0), 50.0);
        assert_eq!(ladder.fit(500.0), 100.0, "clamps to the largest SKU");
    }

    #[test]
    fn simulate_day_accounting() {
        let truth =
            TimeSeries::new(Timestamp::from_days(5), 15, vec![10.0, 30.0, 10.0, 10.0]).unwrap();
        let out = simulate_day(&truth, 20.0);
        assert_eq!(out.violation_min, 15.0);
        // Waste = (10+10+10) * 0.25h = 7.5 %·h over the non-violating buckets.
        assert!((out.waste_pct_hours - 7.5).abs() < 1e-9);
        let all_covered = simulate_day(&truth, 50.0);
        assert_eq!(all_covered.violation_min, 0.0);
    }

    #[test]
    fn static_max_never_violates_but_wastes_most() {
        let spec = sql_fleet_spec(3, 40);
        let start = spec.start_day;
        let fleet = FleetGenerator::new(spec).generate_weeks(2);
        let model = PersistentForecast::previous_day();
        let policy = AutoscalePolicy::default();
        let ladder = SkuLadder::default();
        let day = start + 8;
        let s_static = evaluate_policy(
            &fleet,
            day,
            SizingMode::StaticMax,
            &policy,
            &ladder,
            &model,
            7,
            2,
        );
        let s_pre = evaluate_policy(
            &fleet,
            day,
            SizingMode::Preemptive,
            &policy,
            &ladder,
            &model,
            7,
            2,
        );
        assert_eq!(s_static.violation_rate_pct, 0.0);
        assert!(
            s_static.mean_waste_pct_hours > s_pre.mean_waste_pct_hours,
            "static {} vs preemptive {}",
            s_static.mean_waste_pct_hours,
            s_pre.mean_waste_pct_hours
        );
        assert!(s_pre.mean_capacity < s_static.mean_capacity);
    }

    #[test]
    fn preemptive_beats_reactive_on_waste_or_violations() {
        let spec = sql_fleet_spec(4, 60);
        let start = spec.start_day;
        let fleet = FleetGenerator::new(spec).generate_weeks(2);
        let model = PersistentForecast::previous_day();
        let policy = AutoscalePolicy::default();
        let ladder = SkuLadder::default();
        let day = start + 8;
        let pre = evaluate_policy(
            &fleet,
            day,
            SizingMode::Preemptive,
            &policy,
            &ladder,
            &model,
            7,
            2,
        );
        let rea = evaluate_policy(
            &fleet,
            day,
            SizingMode::Reactive,
            &policy,
            &ladder,
            &model,
            7,
            2,
        );
        // With previous-day persistence the preemptive forecast equals
        // yesterday's curve, so the two agree almost everywhere; preemptive
        // must not be materially worse on either axis.
        assert!(pre.mean_violation_min <= rea.mean_violation_min + 5.0);
        assert!(pre.mean_waste_pct_hours <= rea.mean_waste_pct_hours * 1.1 + 1.0);
        assert!(pre.evaluated > 0);
    }

    #[test]
    fn first_day_cannot_be_evaluated() {
        let spec = sql_fleet_spec(5, 5);
        let start = spec.start_day;
        let fleet = FleetGenerator::new(spec).generate_weeks(1);
        let model = PersistentForecast::previous_day();
        let s = evaluate_policy(
            &fleet,
            start,
            SizingMode::Preemptive,
            &AutoscalePolicy::default(),
            &SkuLadder::default(),
            &model,
            7,
            1,
        );
        assert_eq!(s.evaluated, 0);
    }
}
