//! The backup-scheduling algorithm (Section 2.3).
//!
//! "For those servers that are due for full backups the next day, the backup
//! scheduling algorithm verifies if these servers were predicted correctly
//! for the last three weeks. ... For such predictable servers, the algorithm
//! extracts the predicted load for the next day and selects a time window
//! during which customer activity is expected to be the lowest. The algorithm
//! stores the start time of this window as a service fabric property ...
//! Servers that did not exist or were unpredictable for the last three weeks
//! are scheduled for backup at default time."

use crate::fabric::FabricPropertyStore;
use seagull_core::evaluate::{predictability, EvaluationConfig};
use seagull_core::metrics::{lowest_load_window, LowLoadWindow};
use seagull_core::par::parallel_map;
use seagull_forecast::Forecaster;
use seagull_serve::{ServeError, ServeService};
use seagull_telemetry::fleet::ServerTelemetry;
use seagull_telemetry::server::ServerId;
use seagull_timeseries::{DayOfWeek, Timestamp};
use serde::Serialize;

/// Why a server kept its default backup window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum DefaultReason {
    /// The server has existed fewer than the required weeks ("servers that
    /// did not exist ... for the last three weeks").
    TooYoung,
    /// The three-week predictability gate failed (Definition 9).
    NotPredictable,
    /// The model produced no usable prediction for the backup day.
    PredictionFailed,
}

/// The outcome for one server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum ScheduleDecision {
    /// Backup moved into the predicted lowest-load window.
    Rescheduled { window: LowLoadWindow },
    /// Backup stays at the default time.
    DefaultKept { reason: DefaultReason },
}

/// One scheduled backup.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ScheduledBackup {
    pub server_id: u64,
    pub backup_day: i64,
    /// The start time the backup service will use.
    pub start: Timestamp,
    pub duration_min: u32,
    pub decision: ScheduleDecision,
}

/// Scheduler parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SchedulerConfig {
    /// The shared evaluation parameters (three-week gate, error bound, ...).
    pub evaluation: EvaluationConfig,
    /// Worker threads for fleet-wide scheduling.
    pub threads: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            evaluation: EvaluationConfig::default(),
            threads: 1,
        }
    }
}

/// The backup scheduler.
#[derive(Debug, Clone, Copy)]
pub struct BackupScheduler {
    pub config: SchedulerConfig,
}

impl BackupScheduler {
    /// Creates a scheduler.
    pub fn new(config: SchedulerConfig) -> BackupScheduler {
        BackupScheduler { config }
    }

    /// Schedules one server's backup for `backup_day` (assumed to be the
    /// server's due day). Applies the three-week predictability gate, then
    /// selects the predicted LL window; on any failure the default window is
    /// kept.
    pub fn schedule_server(
        &self,
        server: &ServerTelemetry,
        backup_day: i64,
        forecaster: &dyn Forecaster,
    ) -> ScheduledBackup {
        let cfg = &self.config.evaluation;
        let duration = server.meta.backup.duration_min;
        let (default_start, _) = server.meta.backup.default_window_on(backup_day);
        let default_backup = |reason| ScheduledBackup {
            server_id: server.meta.id.0,
            backup_day,
            start: default_start,
            duration_min: duration,
            decision: ScheduleDecision::DefaultKept { reason },
        };

        // Gate 1: existence — "servers that did not exist ... for the last
        // three weeks are scheduled for backup at default time". Telemetry
        // truncation (the observation window starting after creation) is not
        // youth; missing data simply fails the predictability evaluation in
        // gate 2.
        let needed_days = 7 * cfg.predictability_weeks as i64;
        if server.series.is_empty() || backup_day - server.meta.created_day < needed_days {
            return default_backup(DefaultReason::TooYoung);
        }

        // Gate 2: Definition 9 over the three prior weeks. Weeks are anchored
        // so that the most recent inspected backup day is `backup_day - 7`.
        let anchor_week_start = backup_day - 6; // window [backup_day-6, backup_day] contains only future days of this week
        let verdict = predictability(server, anchor_week_start, forecaster, cfg);
        if !verdict.predictable {
            return default_backup(DefaultReason::NotPredictable);
        }

        // Predict the backup day from the preceding week and take the LL
        // window of the prediction.
        let day_start = Timestamp::from_days(backup_day);
        let hist_start = Timestamp::from_days(backup_day - cfg.train_days);
        let Ok(history) = server.series.slice(hist_start, day_start) else {
            return default_backup(DefaultReason::PredictionFailed);
        };
        let points_per_day = history.points_per_day();
        let Ok(predicted) = forecaster.fit_predict(&history, points_per_day) else {
            return default_backup(DefaultReason::PredictionFailed);
        };
        let Some(window) = lowest_load_window(&predicted, duration) else {
            return default_backup(DefaultReason::PredictionFailed);
        };
        ScheduledBackup {
            server_id: server.meta.id.0,
            backup_day,
            start: window.start,
            duration_min: duration,
            decision: ScheduleDecision::Rescheduled { window },
        }
    }

    /// Schedules every server due on `backup_day` (by its configured
    /// weekday), writing chosen start times into the fabric store.
    pub fn schedule_day(
        &self,
        fleet: &[ServerTelemetry],
        backup_day: i64,
        forecaster: &dyn Forecaster,
        fabric: &FabricPropertyStore,
    ) -> Vec<ScheduledBackup> {
        let weekday = DayOfWeek::from_day_index(backup_day).index();
        let due: Vec<&ServerTelemetry> = fleet
            .iter()
            .filter(|s| {
                s.meta.backup.backup_weekday as usize == weekday && s.meta.alive_on(backup_day)
            })
            .collect();
        let scheduled = parallel_map(&due, self.config.threads, |server| {
            self.schedule_server(server, backup_day, forecaster)
        });
        for b in &scheduled {
            // Fault-aware write: a dropped write is repaired by the runner's
            // verify-and-retry pass, so scheduling itself never aborts.
            let _ = fabric.try_set_backup_window_start(ServerId(b.server_id), b.start);
        }
        scheduled
    }

    /// Schedules one server's backup by querying the serving layer instead
    /// of fitting a model inline.
    ///
    /// This is the production split the serving layer exists for: the
    /// scheduler never trains a model on the request path. It applies
    /// neither gate of [`BackupScheduler::schedule_server`]: the pipeline
    /// predicts every server it has any history for, without the existence
    /// or Definition 9 predictability check, so a server the snapshot covers
    /// is rescheduled even where the inline path would keep the default as
    /// [`DefaultReason::TooYoung`] or [`DefaultReason::NotPredictable`]. A
    /// server *absent* from the snapshot maps to
    /// [`DefaultReason::NotPredictable`]; a shed request, missing snapshot,
    /// or uncovered day keeps the default window as
    /// [`DefaultReason::PredictionFailed`].
    pub fn schedule_server_served(
        &self,
        serve: &ServeService,
        region: &str,
        server: &ServerTelemetry,
        backup_day: i64,
    ) -> ScheduledBackup {
        let duration = server.meta.backup.duration_min;
        let (default_start, _) = server.meta.backup.default_window_on(backup_day);
        let default_backup = |reason| ScheduledBackup {
            server_id: server.meta.id.0,
            backup_day,
            start: default_start,
            duration_min: duration,
            decision: ScheduleDecision::DefaultKept { reason },
        };
        match serve.ll_window(region, server.meta.id.0, backup_day) {
            Ok(window) => ScheduledBackup {
                server_id: server.meta.id.0,
                backup_day,
                start: window.start,
                duration_min: duration,
                decision: ScheduleDecision::Rescheduled { window },
            },
            Err(ServeError::UnknownServer { .. }) => default_backup(DefaultReason::NotPredictable),
            Err(_) => default_backup(DefaultReason::PredictionFailed),
        }
    }

    /// Schedules every server due on `backup_day` through the serving
    /// layer, writing chosen start times into the fabric store. The served
    /// counterpart of [`BackupScheduler::schedule_day`].
    pub fn schedule_day_served(
        &self,
        fleet: &[ServerTelemetry],
        backup_day: i64,
        serve: &ServeService,
        region: &str,
        fabric: &FabricPropertyStore,
    ) -> Vec<ScheduledBackup> {
        let weekday = DayOfWeek::from_day_index(backup_day).index();
        // On the calling thread: each item is a microsecond read of an
        // immutable snapshot, less than forking a helper for it costs.
        let scheduled: Vec<ScheduledBackup> = fleet
            .iter()
            .filter(|s| {
                s.meta.backup.backup_weekday as usize == weekday && s.meta.alive_on(backup_day)
            })
            .map(|server| self.schedule_server_served(serve, region, server, backup_day))
            .collect();
        for b in &scheduled {
            let _ = fabric.try_set_backup_window_start(ServerId(b.server_id), b.start);
        }
        scheduled
    }

    /// Schedules a whole week (the runner invokes this per day in practice).
    pub fn schedule_week(
        &self,
        fleet: &[ServerTelemetry],
        week_start_day: i64,
        forecaster: &dyn Forecaster,
        fabric: &FabricPropertyStore,
    ) -> Vec<ScheduledBackup> {
        let mut all = Vec::new();
        for offset in 0..7 {
            all.extend(self.schedule_day(fleet, week_start_day + offset, forecaster, fabric));
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seagull_forecast::PersistentForecast;
    use seagull_telemetry::fleet::{FleetGenerator, FleetSpec};
    use seagull_telemetry::server::{GeneratedClass, ServerId};

    fn fleet() -> (Vec<ServerTelemetry>, i64) {
        let mut spec = FleetSpec::small_region(123);
        spec.regions[0].servers = 150;
        let start = spec.start_day;
        (FleetGenerator::new(spec).generate_weeks(5), start)
    }

    #[test]
    fn stable_predictable_servers_get_rescheduled() {
        let (fleet, start) = fleet();
        let scheduler = BackupScheduler::new(SchedulerConfig::default());
        let model = PersistentForecast::previous_day();
        let fabric = FabricPropertyStore::new();
        // Week 5: four prior weeks of history exist.
        let day = start + 28;
        let scheduled = scheduler.schedule_day(&fleet, day, &model, &fabric);
        assert!(!scheduled.is_empty());
        let rescheduled = scheduled
            .iter()
            .filter(|b| matches!(b.decision, ScheduleDecision::Rescheduled { .. }))
            .count();
        assert!(
            rescheduled > 0,
            "some due servers must pass the gate and move"
        );
        // Every scheduled backup has its fabric property set.
        for b in &scheduled {
            assert_eq!(
                fabric.backup_window_start(ServerId(b.server_id)),
                Some(b.start)
            );
            // Window lies within the backup day.
            assert!(b.start.day_index() == b.backup_day);
        }
    }

    /// The training history handed to the forecaster is a view into the
    /// server's telemetry buffer, not a copy — the scheduler read path stays
    /// zero-copy under the Arc-backed series representation.
    #[test]
    fn training_history_is_a_zero_copy_view() {
        let (fleet, start) = fleet();
        let cfg = SchedulerConfig::default();
        let day = start + 28;
        let day_start = Timestamp::from_days(day);
        let hist_start = Timestamp::from_days(day - cfg.evaluation.train_days);
        let server = fleet
            .iter()
            .find(|s| s.series.slice(hist_start, day_start).is_ok())
            .expect("some server has a full training window");
        let history = server.series.slice(hist_start, day_start).unwrap();
        assert!(
            history.shares_storage(&server.series),
            "slicing the training window must not allocate a new buffer"
        );
    }

    #[test]
    fn short_lived_servers_keep_default() {
        let (fleet, start) = fleet();
        let scheduler = BackupScheduler::new(SchedulerConfig::default());
        let model = PersistentForecast::previous_day();
        let _fabric = FabricPropertyStore::new();
        let day = start + 28;
        let weekday = DayOfWeek::from_day_index(day).index();
        let short: Vec<&ServerTelemetry> = fleet
            .iter()
            .filter(|s| {
                s.meta.deleted_day.is_some()
                    && s.meta.alive_on(day)
                    && s.meta.backup.backup_weekday as usize == weekday
            })
            .collect();
        for s in short {
            let b = scheduler.schedule_server(s, day, &model);
            assert!(
                matches!(
                    b.decision,
                    ScheduleDecision::DefaultKept {
                        reason: DefaultReason::TooYoung
                    } | ScheduleDecision::DefaultKept {
                        reason: DefaultReason::NotPredictable
                    }
                ),
                "short-lived server must keep default: {:?}",
                b.decision
            );
            let (default_start, _) = s.meta.backup.default_window_on(day);
            assert_eq!(b.start, default_start);
        }
    }

    #[test]
    fn unstable_servers_mostly_keep_default() {
        let (fleet, start) = fleet();
        let scheduler = BackupScheduler::new(SchedulerConfig::default());
        let model = PersistentForecast::previous_day();
        let day = start + 28;
        let unstable: Vec<&ServerTelemetry> = fleet
            .iter()
            .filter(|s| s.meta.class == GeneratedClass::Unstable && s.meta.deleted_day.is_none())
            .collect();
        if unstable.is_empty() {
            return;
        }
        let kept = unstable
            .iter()
            .map(|s| scheduler.schedule_server(s, day, &model))
            .filter(|b| matches!(b.decision, ScheduleDecision::DefaultKept { .. }))
            .count();
        assert!(
            kept as f64 / unstable.len() as f64 > 0.5,
            "most unstable servers should fail the gate ({kept}/{})",
            unstable.len()
        );
    }

    #[test]
    fn rescheduled_window_is_low_load() {
        let (fleet, start) = fleet();
        let scheduler = BackupScheduler::new(SchedulerConfig::default());
        let model = PersistentForecast::previous_day();
        let fabric = FabricPropertyStore::new();
        let day = start + 28;
        let scheduled = scheduler.schedule_day(&fleet, day, &model, &fabric);
        for b in scheduled {
            if let ScheduleDecision::Rescheduled { window } = b.decision {
                let server = fleet.iter().find(|s| s.meta.id.0 == b.server_id).unwrap();
                // The chosen window's true load should be near the true
                // minimum for predictable (stable/patterned) servers.
                let truth = server.series.day(day).unwrap();
                let true_ll = lowest_load_window(&truth, b.duration_min).unwrap();
                let chosen_true = truth
                    .slice_values(window.start, window.end())
                    .map(seagull_timeseries::mean)
                    .unwrap();
                assert!(
                    chosen_true <= true_ll.mean_load + 10.0 + 1e-9,
                    "chosen window load {chosen_true} vs true LL {}",
                    true_ll.mean_load
                );
            }
        }
    }

    /// Builds a serving snapshot whose per-server "prediction" is the true
    /// series for `day` — the served scheduler should then pick the true
    /// lowest-load window for every covered server.
    fn snapshot_of_truth(
        fleet: &[ServerTelemetry],
        day: i64,
        version: u64,
    ) -> seagull_serve::ModelSnapshot {
        let docs: Vec<seagull_core::pipeline::PredictionDoc> = fleet
            .iter()
            .filter_map(|s| {
                s.series
                    .day_values(day)
                    .map(|values| seagull_core::pipeline::PredictionDoc {
                        region: "west".into(),
                        server_id: s.meta.id.0,
                        day,
                        step_min: s.series.step_min(),
                        values: values.to_vec(),
                        duration_min: s.meta.backup.duration_min as i64,
                    })
            })
            .collect();
        seagull_serve::ModelSnapshot::from_predictions(
            "west",
            version,
            day - 7,
            "persistent-prev-day",
            &docs,
        )
    }

    #[test]
    fn served_scheduling_uses_snapshot_windows() {
        let (fleet, start) = fleet();
        let scheduler = BackupScheduler::new(SchedulerConfig::default());
        let serve = seagull_serve::ServeService::with_defaults();
        let day = start + 28;
        serve.publish(snapshot_of_truth(&fleet, day, 1));
        let fabric = FabricPropertyStore::new();
        let scheduled = scheduler.schedule_day_served(&fleet, day, &serve, "west", &fabric);
        assert!(!scheduled.is_empty());
        for b in &scheduled {
            // Fabric write happened for every decision.
            assert_eq!(
                fabric.backup_window_start(ServerId(b.server_id)),
                Some(b.start)
            );
            if let ScheduleDecision::Rescheduled { window } = b.decision {
                // The snapshot holds the true series, so the served window
                // must be the true lowest-load window exactly.
                let server = fleet.iter().find(|s| s.meta.id.0 == b.server_id).unwrap();
                let truth = server.series.day(day).unwrap();
                let true_ll = lowest_load_window(&truth, b.duration_min).unwrap();
                assert_eq!(window.start, true_ll.start);
                assert!((window.mean_load - true_ll.mean_load).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn served_scheduling_defaults_when_not_covered() {
        let (fleet, start) = fleet();
        let scheduler = BackupScheduler::new(SchedulerConfig::default());
        let serve = seagull_serve::ServeService::with_defaults();
        let day = start + 28;
        // Empty snapshot: every due server is unknown to the serving layer.
        serve.publish(snapshot_of_truth(&[], day, 1));
        let fabric = FabricPropertyStore::new();
        let scheduled = scheduler.schedule_day_served(&fleet, day, &serve, "west", &fabric);
        assert!(!scheduled.is_empty());
        for b in &scheduled {
            let server = fleet.iter().find(|s| s.meta.id.0 == b.server_id).unwrap();
            let (default_start, _) = server.meta.backup.default_window_on(day);
            assert_eq!(b.start, default_start);
            assert!(matches!(
                b.decision,
                ScheduleDecision::DefaultKept {
                    reason: DefaultReason::NotPredictable
                }
            ));
        }
        // No snapshot at all for the region → PredictionFailed, not a panic.
        let lone = &fleet[0];
        let b = scheduler.schedule_server_served(&serve, "nowhere", lone, day);
        assert!(matches!(
            b.decision,
            ScheduleDecision::DefaultKept {
                reason: DefaultReason::PredictionFailed
            }
        ));
    }

    #[test]
    fn schedule_week_covers_all_weekdays() {
        let (fleet, start) = fleet();
        let scheduler = BackupScheduler::new(SchedulerConfig {
            threads: 4,
            ..SchedulerConfig::default()
        });
        let model = PersistentForecast::previous_day();
        let fabric = FabricPropertyStore::new();
        let scheduled = scheduler.schedule_week(&fleet, start + 28, &model, &fabric);
        // Every alive server due that week is scheduled exactly once.
        let alive_due: usize = fleet
            .iter()
            .filter(|s| {
                (0..7).any(|o| {
                    let d = start + 28 + o;
                    s.meta.alive_on(d)
                        && s.meta.backup.backup_weekday as usize
                            == DayOfWeek::from_day_index(d).index()
                })
            })
            .count();
        assert_eq!(scheduled.len(), alive_due);
    }
}
