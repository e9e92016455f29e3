//! The Section 5.3.1 refit harness: "ML models are trained on one week of
//! data prior to backup day", and the backup day's prediction is scored with
//! the two low-load metrics (Definitions 2 and 8). A server is *predictable*
//! (Definition 9) "if for the last three weeks its LL windows were chosen
//! correctly and the load during these windows was predicted accurately".
//! Every call fits afresh, so any model can be compared on any week.
//!
//! The per-server evaluation is embarrassingly parallel; the paper runs it
//! single-threaded or on Dask (Figure 12(b)) — here, serially or on the
//! [`seagull_core::par`] executor, selected by the `threads` argument.

use seagull_core::metrics::{evaluate_low_load, AccuracyConfig, LowLoadEvaluation};
use seagull_core::par::parallel_map;
use seagull_core::pipeline::{AccuracySummary, PREDICTABILITY_WEEKS};
use seagull_forecast::Forecaster;
use seagull_telemetry::fleet::ServerTelemetry;
use seagull_timeseries::Timestamp;
use serde::Serialize;

/// Evaluation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EvaluationConfig {
    /// Error bound and bucket-ratio threshold (Definitions 1–2).
    pub accuracy: AccuracyConfig,
    /// Days of history a model is trained on before a backup day ("ML models
    /// are trained on one week of data prior to backup day", Section 5.3.1).
    pub train_days: i64,
    /// Weeks of history the predictability gate inspects (Definition 9: 3).
    pub predictability_weeks: usize,
    /// Minimum days of history required before a backup day can be evaluated
    /// at all ("servers have at least three days of history prior to their
    /// backup days", Section 5.3.1).
    pub min_history_days: i64,
}

impl Default for EvaluationConfig {
    fn default() -> Self {
        EvaluationConfig {
            accuracy: AccuracyConfig::default(),
            train_days: 7,
            predictability_weeks: PREDICTABILITY_WEEKS.into(),
            min_history_days: 3,
        }
    }
}

/// One server-day evaluation outcome.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BackupDayEvaluation {
    /// Server the evaluation covers.
    pub server_id: u64,
    /// Backup day that was evaluated.
    pub backup_day: i64,
    /// `None` when the server could not be evaluated (insufficient history,
    /// model failure, missing truth) — such servers keep their default
    /// backup window.
    pub result: Option<LowLoadEvaluation>,
}

/// Evaluates one server's backup day: trains on the preceding `train_days`
/// of load, predicts the backup day, and scores both low-load metrics
/// against the true load.
pub fn evaluate_backup_day(
    server: &ServerTelemetry,
    backup_day: i64,
    forecaster: &dyn Forecaster,
    config: &EvaluationConfig,
) -> Option<LowLoadEvaluation> {
    let day_start = Timestamp::from_days(backup_day);
    let series = &server.series;
    // Available history strictly before the backup day, capped at train_days.
    let hist_start_day = (backup_day - config.train_days).max(series.start().day_index());
    if backup_day - hist_start_day < config.min_history_days {
        return None;
    }
    let history = series
        .slice(Timestamp::from_days(hist_start_day), day_start)
        .ok()?;
    let truth = series.day(backup_day)?;
    let horizon = truth.len();
    let predicted = forecaster.fit_predict(&history, horizon).ok()?;
    evaluate_low_load(
        &truth,
        &predicted,
        server.meta.backup.duration_min,
        &config.accuracy,
    )
}

/// Evaluates the backup day of every server for the week starting at
/// `week_start_day`, serially or in parallel (`threads > 1`).
pub fn evaluate_fleet_week(
    fleet: &[ServerTelemetry],
    week_start_day: i64,
    forecaster: &dyn Forecaster,
    config: &EvaluationConfig,
    threads: usize,
) -> Vec<BackupDayEvaluation> {
    parallel_map(fleet, threads, |server| {
        let backup_day = server.meta.backup.day_in_week(week_start_day);
        BackupDayEvaluation {
            server_id: server.meta.id.0,
            backup_day,
            result: evaluate_backup_day(server, backup_day, forecaster, config),
        }
    })
}

/// Evaluates every day of one week ahead per server (the Figure 12(b)
/// "accuracy evaluation on each day one week ahead" variant, used to move
/// backups to a better weekday).
pub fn evaluate_fleet_week_all_days(
    fleet: &[ServerTelemetry],
    week_start_day: i64,
    forecaster: &dyn Forecaster,
    config: &EvaluationConfig,
    threads: usize,
) -> Vec<Vec<BackupDayEvaluation>> {
    parallel_map(fleet, threads, |server| {
        (0..7)
            .map(|offset| {
                let day = week_start_day + offset;
                BackupDayEvaluation {
                    server_id: server.meta.id.0,
                    backup_day: day,
                    result: evaluate_backup_day(server, day, forecaster, config),
                }
            })
            .collect()
    })
}

/// Definition 9 verdict for one server.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServerPredictability {
    /// Server the verdict covers.
    pub server_id: u64,
    /// Weekly backup-day evaluations, oldest first.
    pub weeks: Vec<BackupDayEvaluation>,
    /// True iff every inspected week evaluated successfully with a correct
    /// window and accurate load.
    pub predictable: bool,
}

/// Applies the Definition 9 gate: the server's backup day in each of the
/// `predictability_weeks` weeks ending at `as_of_week_start` (exclusive) must
/// have been predicted correctly and accurately.
pub fn predictability(
    server: &ServerTelemetry,
    as_of_week_start: i64,
    forecaster: &dyn Forecaster,
    config: &EvaluationConfig,
) -> ServerPredictability {
    let mut weeks = Vec::with_capacity(config.predictability_weeks);
    for k in (1..=config.predictability_weeks).rev() {
        let week_start = as_of_week_start - 7 * k as i64;
        let backup_day = server.meta.backup.day_in_week(week_start);
        weeks.push(BackupDayEvaluation {
            server_id: server.meta.id.0,
            backup_day,
            result: evaluate_backup_day(server, backup_day, forecaster, config),
        });
    }
    let predictable = !weeks.is_empty()
        && weeks.iter().all(|w| {
            w.result
                .as_ref()
                .is_some_and(|r| r.window_correct && r.load_accurate)
        });
    ServerPredictability {
        server_id: server.meta.id.0,
        weeks,
        predictable,
    }
}

/// Fleet-level predictability, serial or parallel.
pub fn predictability_fleet(
    fleet: &[ServerTelemetry],
    as_of_week_start: i64,
    forecaster: &dyn Forecaster,
    config: &EvaluationConfig,
    threads: usize,
) -> Vec<ServerPredictability> {
    parallel_map(fleet, threads, |server| {
        predictability(server, as_of_week_start, forecaster, config)
    })
}

/// Summarizes a batch of backup-day evaluations.
pub fn summarize(evals: &[BackupDayEvaluation]) -> AccuracySummary {
    let verdicts = (evals.iter().filter_map(|e| e.result.as_ref()))
        .map(|r| (r.window_correct, r.load_accurate));
    AccuracySummary::from_verdicts(evals.len(), verdicts)
}

/// Percentage of predictable servers in a predictability batch.
pub fn predictable_pct(preds: &[ServerPredictability]) -> f64 {
    if preds.is_empty() {
        return 0.0;
    }
    100.0 * preds.iter().filter(|p| p.predictable).count() as f64 / preds.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use seagull_forecast::PersistentForecast;
    use seagull_telemetry::fleet::{FleetGenerator, FleetSpec};
    use seagull_telemetry::server::GeneratedClass;

    fn fleet() -> (Vec<ServerTelemetry>, i64) {
        let mut spec = FleetSpec::small_region(55);
        spec.regions[0].servers = 120;
        let start = spec.start_day;
        (FleetGenerator::new(spec).generate_weeks(4), start)
    }

    /// Each server is evaluated on the one day of the week it is due.
    #[test]
    fn backup_day_lands_on_weekday() {
        let (fleet, start) = fleet();
        let model = PersistentForecast::previous_day();
        let evals = evaluate_fleet_week(&fleet, start + 7, &model, &EvaluationConfig::default(), 1);
        for (s, e) in fleet.iter().zip(&evals) {
            assert!((start + 7..start + 14).contains(&e.backup_day));
            assert!(s.meta.backup.due_on(e.backup_day));
        }
    }

    #[test]
    fn stable_servers_evaluate_well_with_persistent_forecast() {
        let (fleet, start) = fleet();
        let stable: Vec<ServerTelemetry> = fleet
            .iter()
            .filter(|s| s.meta.class == GeneratedClass::Stable && s.meta.deleted_day.is_none())
            .cloned()
            .collect();
        assert!(!stable.is_empty());
        let cfg = EvaluationConfig::default();
        let model = PersistentForecast::previous_day();
        // Second week so a full week of history exists.
        let evals = evaluate_fleet_week(&stable, start + 7, &model, &cfg, 1);
        let summary = summarize(&evals);
        assert_eq!(summary.servers, stable.len());
        assert!(summary.evaluated > 0);
        assert!(
            summary.window_correct_pct > 95.0,
            "window correct {}",
            summary.window_correct_pct
        );
        assert!(
            summary.load_accurate_pct > 95.0,
            "load accurate {}",
            summary.load_accurate_pct
        );
    }

    #[test]
    fn parallel_matches_serial() {
        let (fleet, start) = fleet();
        let subset = &fleet[..40.min(fleet.len())];
        let cfg = EvaluationConfig::default();
        let model = PersistentForecast::previous_day();
        let serial = evaluate_fleet_week(subset, start + 7, &model, &cfg, 1);
        let parallel = evaluate_fleet_week(subset, start + 7, &model, &cfg, 4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn insufficient_history_yields_none() {
        let (fleet, start) = fleet();
        let long = fleet.iter().find(|s| s.meta.deleted_day.is_none()).unwrap();
        let cfg = EvaluationConfig::default();
        let model = PersistentForecast::previous_day();
        // Backup on day start+1: only 1 day of history inside the window.
        assert!(evaluate_backup_day(long, start + 1, &model, &cfg).is_none());
        // Day before the window: no truth either.
        assert!(evaluate_backup_day(long, start - 1, &model, &cfg).is_none());
    }

    #[test]
    fn predictability_gate_requires_all_weeks() {
        let (fleet, start) = fleet();
        let cfg = EvaluationConfig::default();
        let model = PersistentForecast::previous_day();
        let stable: Vec<&ServerTelemetry> = fleet
            .iter()
            .filter(|s| s.meta.class == GeneratedClass::Stable && s.meta.deleted_day.is_none())
            .collect();
        // As-of the start of week 4: weeks 1-3 are inspected.
        let p = predictability(stable[0], start + 28, &model, &cfg);
        assert_eq!(p.weeks.len(), 3);
        assert!(p.predictable, "stable server should gate through");

        // A short-lived server that never had enough history must not pass.
        let short = fleet.iter().find(|s| s.meta.deleted_day.is_some()).unwrap();
        let ps = predictability(short, start + 28, &model, &cfg);
        assert!(!ps.predictable);
    }

    #[test]
    fn unstable_servers_less_predictable_than_stable() {
        let (fleet, start) = fleet();
        let cfg = EvaluationConfig::default();
        let model = PersistentForecast::previous_day();
        let stable: Vec<ServerTelemetry> = fleet
            .iter()
            .filter(|s| s.meta.class == GeneratedClass::Stable && s.meta.deleted_day.is_none())
            .cloned()
            .collect();
        let unstable: Vec<ServerTelemetry> = fleet
            .iter()
            .filter(|s| s.meta.class == GeneratedClass::Unstable && s.meta.deleted_day.is_none())
            .cloned()
            .collect();
        let ps = predictability_fleet(&stable, start + 28, &model, &cfg, 2);
        let pu = predictability_fleet(&unstable, start + 28, &model, &cfg, 2);
        if !unstable.is_empty() {
            assert!(
                predictable_pct(&ps) >= predictable_pct(&pu),
                "stable {} vs unstable {}",
                predictable_pct(&ps),
                predictable_pct(&pu)
            );
        }
        assert!(predictable_pct(&ps) > 90.0);
    }

    #[test]
    fn all_days_evaluation_shape() {
        let (fleet, start) = fleet();
        let subset = &fleet[..10.min(fleet.len())];
        let cfg = EvaluationConfig::default();
        let model = PersistentForecast::previous_day();
        let evals = evaluate_fleet_week_all_days(subset, start + 14, &model, &cfg, 2);
        assert_eq!(evals.len(), subset.len());
        for per_server in &evals {
            assert_eq!(per_server.len(), 7);
        }
    }

    #[test]
    fn empty_summary() {
        let s = summarize(&[]);
        assert_eq!(s.servers, 0);
        assert_eq!(s.window_correct_pct, 0.0);
        assert_eq!(predictable_pct(&[]), 0.0);
    }
}
