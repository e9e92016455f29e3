//! The Appendix A model bake-off: Figures 16 and 17.
//!
//! "We predict the CPU load per database 24 hours ahead" with persistent
//! forecast (previous day), a neural network (GluonTS → our feed-forward
//! estimator), and ARIMA, reporting Mean NRMSE and MASE (Figure 16) and the
//! training / inference / accuracy-evaluation runtimes (Figure 17). "GluonTS
//! and ARIMA are trained on one week of historical load per database."

use seagull_core::par::parallel_map;
use seagull_forecast::Forecaster;
use seagull_telemetry::fleet::{ClassMix, FleetSpec, RegionSpec, ServerTelemetry};
use seagull_timeseries::Timestamp;
use serde::Serialize;
use std::time::{Duration, Instant};

/// The synthetic Azure SQL population: 15-minute grid, no short-lived churn
/// in the sample ("single standard and premium SQL databases"), and a class
/// mix calibrated so Definition 10 yields the paper's ~19.36 % stable share.
pub fn sql_fleet_spec(seed: u64, databases: usize) -> FleetSpec {
    FleetSpec {
        seed,
        regions: vec![RegionSpec {
            name: "sql-region".into(),
            servers: databases,
        }],
        start_day: 17_997,
        grid_min: 15,
        mix: ClassMix {
            short_lived: 0.0,
            stable: 0.1936,
            daily: 0.35,
            weekly: 0.10,
            unstable: 0.3564,
        },
        capacity_reaching: 0.037,
    }
}

/// One Figure 16/17 row.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ModelEvalRow {
    /// Model name as reported by its [`seagull_forecast::Forecaster`].
    pub model: String,
    /// Databases the model produced a forecast for.
    pub forecasts: usize,
    /// Databases skipped (insufficient history / model failure).
    pub skipped: usize,
    /// Average Mean NRMSE across databases (Equation 2).
    pub mean_nrmse: f64,
    /// Average MASE across databases (Equation 3).
    pub mase: f64,
    /// Total training + inference time (Figure 17 separates them; both are
    /// reported).
    pub train_time: Duration,
    /// Total inference time across databases.
    pub infer_time: Duration,
    /// Time spent computing the error metrics.
    pub eval_time: Duration,
}

/// Evaluates each model on a 24 h-ahead forecast of `target_day` for every
/// database, training on the preceding `train_days` days.
///
/// Models run sequentially (so their timings do not interfere); databases
/// run in parallel within a model when `threads > 1`.
pub fn evaluate_models(
    fleet: &[ServerTelemetry],
    models: &[(&str, &dyn Forecaster)],
    target_day: i64,
    train_days: i64,
    threads: usize,
) -> Vec<ModelEvalRow> {
    let day_start = Timestamp::from_days(target_day);
    let hist_start = Timestamp::from_days(target_day - train_days);

    models
        .iter()
        .map(|(name, model)| {
            // Per-database: (train time, infer time, nrmse, mase) or None.
            let per_db: Vec<Option<(Duration, Duration, f64, f64)>> =
                parallel_map(fleet, threads, |db| {
                    let history = db.series.slice(hist_start, day_start).ok()?;
                    let truth = db.series.day(target_day)?;
                    if history.check_finite().is_err() {
                        return None;
                    }
                    let t = Instant::now();
                    let fitted = model.fit(&history).ok()?;
                    let train = t.elapsed();
                    let t = Instant::now();
                    let predicted = fitted.predict(truth.len()).ok()?;
                    let infer = t.elapsed();
                    let nrmse = mean_nrmse(predicted.values(), truth.values())?;
                    let mase_v = mase(predicted.values(), truth.values())?;
                    Some((train, infer, nrmse, mase_v))
                });
            let t_eval = Instant::now();
            let ok: Vec<&(Duration, Duration, f64, f64)> = per_db.iter().flatten().collect();
            let n = ok.len().max(1) as f64;
            ModelEvalRow {
                model: name.to_string(),
                forecasts: ok.len(),
                skipped: fleet.len() - ok.len(),
                mean_nrmse: ok.iter().map(|r| r.2).sum::<f64>() / n,
                mase: ok.iter().map(|r| r.3).sum::<f64>() / n,
                train_time: ok.iter().map(|r| r.0).sum(),
                infer_time: ok.iter().map(|r| r.1).sum(),
                eval_time: t_eval.elapsed(),
            }
        })
        .collect()
}

/// Appendix A, Equation 2: `sqrt(mean(error²)) / mean(true)`.
///
/// Returns `None` for empty input or a zero true mean.
pub fn mean_nrmse(predicted: &[f64], truth: &[f64]) -> Option<f64> {
    if predicted.len() != truth.len() || truth.is_empty() {
        return None;
    }
    let mse = predicted
        .iter()
        .zip(truth)
        .map(|(p, t)| (p - t) * (p - t))
        .sum::<f64>()
        / truth.len() as f64;
    let mean_true = seagull_timeseries::mean(truth);
    (mean_true.abs() > 1e-12).then(|| mse.sqrt() / mean_true)
}

/// Appendix A, Equation 3: mean absolute error scaled by the in-sample
/// one-step-ahead naive error ("the error produced by a one step ahead true
/// forecast").
///
/// Returns `None` for empty/mismatched input or a constant true series
/// (zero normalizing factor).
pub fn mase(predicted: &[f64], truth: &[f64]) -> Option<f64> {
    if predicted.len() != truth.len() || truth.len() < 2 {
        return None;
    }
    let mae = predicted
        .iter()
        .zip(truth)
        .map(|(p, t)| (p - t).abs())
        .sum::<f64>()
        / truth.len() as f64;
    let naive =
        truth.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (truth.len() - 1) as f64;
    (naive > 1e-12).then(|| mae / naive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{ArimaConfig, ArimaForecaster, FeedForwardConfig, FeedForwardForecaster};
    use seagull_forecast::PersistentForecast;
    use seagull_telemetry::fleet::FleetGenerator;

    fn small_sql_fleet() -> (Vec<ServerTelemetry>, i64) {
        let spec = sql_fleet_spec(21, 20);
        let start = spec.start_day;
        (FleetGenerator::new(spec).generate_weeks(2), start)
    }

    #[test]
    fn persistent_forecast_evaluates_whole_fleet() {
        let (fleet, start) = small_sql_fleet();
        let pf = PersistentForecast::previous_day();
        let rows = evaluate_models(&fleet, &[("persistent", &pf)], start + 8, 7, 2);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert!(row.forecasts > 0, "forecasts {}", row.forecasts);
        assert!(row.mean_nrmse.is_finite() && row.mean_nrmse >= 0.0);
        assert!(row.mase.is_finite() && row.mase >= 0.0);
        // Persistent forecast needs no training.
        assert!(row.train_time < row.infer_time + Duration::from_millis(50));
    }

    #[test]
    fn model_ordering_matches_paper_cost_profile() {
        let (fleet, start) = small_sql_fleet();
        let subset = &fleet[..6];
        let pf = PersistentForecast::previous_day();
        let nn = FeedForwardForecaster::new(FeedForwardConfig {
            context_len: 24,
            prediction_len: 24,
            hidden: vec![8],
            epochs: 4,
            batch_size: 16,
            learning_rate: 1e-3,
            stride: 4,
            seed: 1,
        });
        let arima = ArimaForecaster::new(ArimaConfig {
            max_p: 1,
            max_d: 1,
            max_q: 1,
            max_sp: 0,
            max_sd: 1,
            max_sq: 0,
            period: 96,
            refine_iterations: 5,
            prescreen: false,
        });
        let rows = evaluate_models(
            &fleet[..subset.len()],
            &[("persistent", &pf), ("neural-net", &nn), ("arima", &arima)],
            start + 8,
            7,
            1,
        );
        assert_eq!(rows.len(), 3);
        // Training cost: persistent << neural net and ARIMA (Figure 17).
        assert!(rows[0].train_time < rows[1].train_time);
        assert!(rows[0].train_time < rows[2].train_time);
    }

    #[test]
    fn short_history_databases_are_skipped() {
        let (fleet, start) = small_sql_fleet();
        let pf = PersistentForecast::previous_day();
        // Target day right at the window start: no 7-day history exists.
        let rows = evaluate_models(&fleet, &[("persistent", &pf)], start, 7, 1);
        assert_eq!(rows[0].forecasts, 0);
        assert_eq!(rows[0].skipped, fleet.len());
    }

    #[test]
    fn spec_mix_is_valid() {
        sql_fleet_spec(1, 10).mix.validate().unwrap();
    }

    #[test]
    fn nrmse_of_mean_prediction_is_one_ish() {
        // Predicting the mean gives NRMSE = std/mean by this definition.
        let truth = [10.0, 20.0, 30.0, 40.0];
        let mean = 25.0;
        let pred = [mean; 4];
        let n = mean_nrmse(&pred, &truth).unwrap();
        let expect = seagull_timeseries::stddev(&truth) / mean;
        assert!((n - expect).abs() < 1e-12);
        assert!(mean_nrmse(&[], &[]).is_none());
        assert!(mean_nrmse(&[1.0], &[0.0]).is_none());
    }

    #[test]
    fn perfect_prediction_scores_zero() {
        let truth = [5.0, 6.0, 7.0];
        assert_eq!(mean_nrmse(&truth, &truth), Some(0.0));
        assert_eq!(mase(&truth, &truth), Some(0.0));
    }

    #[test]
    fn mase_scales_by_naive_error() {
        let truth = [0.0, 1.0, 0.0, 1.0]; // naive error = 1
        let pred = [0.5, 0.5, 0.5, 0.5]; // mae = 0.5
        assert!((mase(&pred, &truth).unwrap() - 0.5).abs() < 1e-12);
        // Constant series: undefined.
        assert!(mase(&[1.0, 1.0], &[2.0, 2.0]).is_none());
        assert!(mase(&[1.0], &[1.0]).is_none());
    }
}
