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
//!
//! The scheduler fits nothing: one [`ServeService::gated_ll_window`] per due
//! server reads the gate the pipeline moved on from its own weekly scores and
//! the window of the prediction it deployed, from one snapshot.

use crate::fabric::FabricPropertyStore;
use seagull_core::metrics::LowLoadWindow;
use seagull_serve::{ServeError, ServeService};
use seagull_telemetry::fleet::ServerTelemetry;
use seagull_telemetry::server::ServerId;
use seagull_timeseries::Timestamp;
use serde::Serialize;

/// Why a server kept its default backup window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum DefaultReason {
    /// Fewer than the gate's weeks in a row were scored ("servers that did
    /// not exist ... for the last three weeks"), read from the data.
    TooYoung,
    /// Scored, but not every one of the gate's weeks passed (Definition 9);
    /// also a server the serving snapshot does not carry.
    NotPredictable,
    /// The serving layer produced no usable window for the backup day.
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

/// The servers of `fleet` due for a backup on `day`: alive, on the weekday
/// their backups are configured for.
pub(crate) fn due(fleet: &[ServerTelemetry], day: i64) -> impl Iterator<Item = &ServerTelemetry> {
    fleet
        .iter()
        .filter(move |s| s.meta.backup.due_on(day) && s.meta.alive_on(day))
}

/// Scheduler parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SchedulerConfig {
    /// Inert: scheduling runs on the calling thread, each due server one
    /// read of an immutable snapshot. Kept while callers still set it.
    pub threads: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig { threads: 1 }
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
    /// server's due day) from the serving layer's snapshot of `region`: into
    /// the served lowest-load window when the server's gate is open, else at
    /// the default time — [`DefaultReason::TooYoung`] or
    /// [`DefaultReason::NotPredictable`] by the gate (the latter also for a
    /// server the snapshot does not carry), [`DefaultReason::PredictionFailed`]
    /// for a shed request, a region with no snapshot or a day with no window.
    pub fn schedule_server_served(
        &self,
        serve: &ServeService,
        region: &str,
        server: &ServerTelemetry,
        backup_day: i64,
    ) -> ScheduledBackup {
        let kept = |reason| ScheduleDecision::DefaultKept { reason };
        let decision = match serve.gated_ll_window(region, server.meta.id.0, backup_day) {
            Ok((gate, _)) if gate.to_score > 0 => kept(DefaultReason::TooYoung),
            Ok((gate, _)) if gate.to_pass > 0 => kept(DefaultReason::NotPredictable),
            Ok((_, Ok(window))) => ScheduleDecision::Rescheduled { window },
            Err(ServeError::UnknownServer { .. }) => kept(DefaultReason::NotPredictable),
            Ok((_, Err(_))) | Err(_) => kept(DefaultReason::PredictionFailed),
        };
        let start = match decision {
            ScheduleDecision::Rescheduled { window } => window.start,
            ScheduleDecision::DefaultKept { .. } => {
                server.meta.backup.default_window_on(backup_day).0
            }
        };
        ScheduledBackup {
            server_id: server.meta.id.0,
            backup_day,
            start,
            duration_min: server.meta.backup.duration_min,
            decision,
        }
    }

    /// Schedules every server due on `backup_day` (by its configured
    /// weekday) through the serving layer, writing chosen start times into
    /// the fabric store.
    pub fn schedule_day_served(
        &self,
        fleet: &[ServerTelemetry],
        backup_day: i64,
        serve: &ServeService,
        region: &str,
        fabric: &FabricPropertyStore,
    ) -> Vec<ScheduledBackup> {
        // On the calling thread: each item is a microsecond read of an
        // immutable snapshot, less than forking a helper for it costs.
        let scheduled: Vec<ScheduledBackup> = due(fleet, backup_day)
            .map(|server| self.schedule_server_served(serve, region, server, backup_day))
            .collect();
        for b in &scheduled {
            // Fault-aware write: a dropped write is repaired by the runner's
            // verify-and-retry pass, so scheduling itself never aborts.
            let _ = fabric.try_set_backup_window_start(ServerId(b.server_id), b.start);
        }
        scheduled
    }

    /// The seven days from `week_start_day`, one
    /// [`BackupScheduler::schedule_day_served`] each.
    pub fn schedule_week_served(
        &self,
        fleet: &[ServerTelemetry],
        week_start_day: i64,
        serve: &ServeService,
        region: &str,
        fabric: &FabricPropertyStore,
    ) -> Vec<ScheduledBackup> {
        (week_start_day..week_start_day + 7)
            .flat_map(|day| self.schedule_day_served(fleet, day, serve, region, fabric))
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use seagull_core::metrics::lowest_load_window;
    use seagull_core::pipeline::{GateState, PredictionDoc};
    use seagull_telemetry::fleet::{FleetGenerator, FleetSpec};
    use seagull_telemetry::server::GeneratedClass;

    /// The region every test fleet lives in.
    pub(crate) const REGION: &str = "region-a";

    /// Five weeks of a one-region fleet of `servers` and its first day.
    pub(crate) fn fleet_of(seed: u64, servers: usize) -> (Vec<ServerTelemetry>, i64) {
        let mut spec = FleetSpec::small_region(seed);
        spec.regions[0].servers = servers;
        let start = spec.start_day;
        (FleetGenerator::new(spec).generate_weeks(5), start)
    }

    fn fleet() -> (Vec<ServerTelemetry>, i64) {
        fleet_of(123, 150)
    }

    /// The serving layer after the pipeline ran the fleet's first `weeks`
    /// weeks: its snapshot covers the week after the last.
    pub(crate) fn served(fleet: &[ServerTelemetry], start: i64, weeks: i64) -> ServeService {
        let week_days: Vec<i64> = (0..weeks).map(|w| start + 7 * w).collect();
        crate::serve_weeks(fleet, &[REGION.into()], &week_days).0
    }

    /// Every backup due in the week from `week_start_day`.
    pub(crate) fn scheduled_week(
        fleet: &[ServerTelemetry],
        week_start_day: i64,
        serve: &ServeService,
        fabric: &FabricPropertyStore,
    ) -> Vec<ScheduledBackup> {
        BackupScheduler::new(SchedulerConfig::default()).schedule_week_served(
            fleet,
            week_start_day,
            serve,
            REGION,
            fabric,
        )
    }

    /// Week 5 of [`fleet`], scheduled from the week-4 snapshot.
    fn week_five() -> (Vec<ServerTelemetry>, Vec<ScheduledBackup>) {
        let (fleet, start) = fleet();
        let serve = served(&fleet, start, 4);
        let scheduled = scheduled_week(&fleet, start + 28, &serve, &FabricPropertyStore::new());
        (fleet, scheduled)
    }

    fn server(fleet: &[ServerTelemetry], id: u64) -> &ServerTelemetry {
        fleet.iter().find(|s| s.meta.id.0 == id).unwrap()
    }

    #[test]
    fn predictable_servers_get_rescheduled() {
        let (fleet, start) = fleet();
        let serve = served(&fleet, start, 4);
        let scheduler = BackupScheduler::new(SchedulerConfig::default());
        let fabric = FabricPropertyStore::new();
        let scheduled = scheduler.schedule_day_served(&fleet, start + 28, &serve, REGION, &fabric);
        assert!(!scheduled.is_empty());
        let rescheduled = scheduled
            .iter()
            .filter(|b| matches!(b.decision, ScheduleDecision::Rescheduled { .. }))
            .count();
        assert!(
            rescheduled > 0,
            "some due servers must pass the gate and move"
        );
        for b in &scheduled {
            // Every scheduled backup has its fabric property set, on its day.
            assert_eq!(
                fabric.backup_window_start(ServerId(b.server_id)),
                Some(b.start)
            );
            assert!(b.start.day_index() == b.backup_day);
            if let ScheduleDecision::DefaultKept { .. } = b.decision {
                let (default_start, _) = server(&fleet, b.server_id)
                    .meta
                    .backup
                    .default_window_on(b.backup_day);
                assert_eq!(b.start, default_start);
            }
        }
    }

    /// Each gate the snapshot carries maps to its decision; the window is
    /// not consulted for a closed gate.
    #[test]
    fn closed_gates_keep_the_default_window() {
        let (fleet, start) = fleet();
        let day = start + 28;
        let due: Vec<&ServerTelemetry> = fleet
            .iter()
            .filter(|s| s.series.day_values(day).is_some())
            .take(3)
            .collect();
        let gates = [
            GateState::CLOSED,
            GateState {
                to_score: 0,
                to_pass: 1,
            },
            GateState::OPEN,
        ];
        let docs: Vec<PredictionDoc> = due
            .iter()
            .zip(gates)
            .map(|(s, gate)| PredictionDoc {
                gate,
                ..truth_doc(s, day)
            })
            .collect();
        let serve = ServeService::with_defaults();
        serve.publish(seagull_serve::ModelSnapshot::from_predictions(
            REGION,
            1,
            day - 7,
            "persistent-prev-day",
            &docs,
        ));
        let scheduler = BackupScheduler::new(SchedulerConfig::default());
        let decisions: Vec<ScheduleDecision> = due
            .iter()
            .map(|s| {
                scheduler
                    .schedule_server_served(&serve, REGION, s, day)
                    .decision
            })
            .collect();
        let kept = |reason| ScheduleDecision::DefaultKept { reason };
        assert_eq!(decisions[0], kept(DefaultReason::TooYoung));
        assert_eq!(decisions[1], kept(DefaultReason::NotPredictable));
        assert!(matches!(decisions[2], ScheduleDecision::Rescheduled { .. }));
        // Closed gates win over a day the snapshot cannot answer.
        let later = scheduler.schedule_server_served(&serve, REGION, due[0], day + 7);
        assert_eq!(later.decision, kept(DefaultReason::TooYoung));
        let later = scheduler.schedule_server_served(&serve, REGION, due[2], day + 7);
        assert_eq!(later.decision, kept(DefaultReason::PredictionFailed));
    }

    #[test]
    fn short_lived_servers_keep_default() {
        let (fleet, scheduled) = week_five();
        let short: Vec<&ScheduledBackup> = scheduled
            .iter()
            .filter(|b| server(&fleet, b.server_id).meta.deleted_day.is_some())
            .collect();
        assert!(!short.is_empty());
        for b in short {
            assert!(
                matches!(
                    b.decision,
                    ScheduleDecision::DefaultKept {
                        reason: DefaultReason::TooYoung | DefaultReason::NotPredictable
                    }
                ),
                "short-lived server must keep default: {:?}",
                b.decision
            );
            let (default_start, _) = server(&fleet, b.server_id)
                .meta
                .backup
                .default_window_on(b.backup_day);
            assert_eq!(b.start, default_start);
        }
    }

    #[test]
    fn unstable_servers_mostly_keep_default() {
        let (fleet, scheduled) = week_five();
        let unstable: Vec<&ScheduledBackup> = scheduled
            .iter()
            .filter(|b| {
                let meta = &server(&fleet, b.server_id).meta;
                meta.class == GeneratedClass::Unstable && meta.deleted_day.is_none()
            })
            .collect();
        if unstable.is_empty() {
            return;
        }
        let kept = unstable
            .iter()
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
        let (fleet, scheduled) = week_five();
        for b in scheduled {
            if let ScheduleDecision::Rescheduled { window } = b.decision {
                // The chosen window's true load should be near the true
                // minimum for servers that passed the gate.
                let truth = server(&fleet, b.server_id)
                    .series
                    .day(b.backup_day)
                    .unwrap();
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

    /// A prediction document whose values are the server's true load on
    /// `day`, behind an open gate.
    fn truth_doc(s: &ServerTelemetry, day: i64) -> PredictionDoc {
        PredictionDoc {
            region: REGION.into(),
            server_id: s.meta.id.0,
            day,
            step_min: s.series.step_min(),
            values: s.series.day_values(day).unwrap().to_vec(),
            duration_min: s.meta.backup.duration_min as i64,
            gate: GateState::OPEN,
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
        let docs: Vec<PredictionDoc> = fleet
            .iter()
            .filter(|s| s.series.day_values(day).is_some())
            .map(|s| truth_doc(s, day))
            .collect();
        seagull_serve::ModelSnapshot::from_predictions(
            REGION,
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
        let serve = ServeService::with_defaults();
        let day = start + 28;
        serve.publish(snapshot_of_truth(&fleet, day, 1));
        let fabric = FabricPropertyStore::new();
        let scheduled = scheduler.schedule_day_served(&fleet, day, &serve, REGION, &fabric);
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
                let truth = server(&fleet, b.server_id).series.day(day).unwrap();
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
        let serve = ServeService::with_defaults();
        let day = start + 28;
        // Empty snapshot: every due server is unknown to the serving layer.
        serve.publish(snapshot_of_truth(&[], day, 1));
        let fabric = FabricPropertyStore::new();
        let scheduled = scheduler.schedule_day_served(&fleet, day, &serve, REGION, &fabric);
        assert!(!scheduled.is_empty());
        for b in &scheduled {
            let (default_start, _) = server(&fleet, b.server_id)
                .meta
                .backup
                .default_window_on(day);
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
    fn a_week_of_days_covers_all_weekdays() {
        let (fleet, start) = fleet();
        let serve = ServeService::with_defaults();
        let scheduled = scheduled_week(&fleet, start + 28, &serve, &FabricPropertyStore::new());
        // Every alive server due that week is scheduled exactly once.
        let alive_due: usize = fleet
            .iter()
            .filter(|s| {
                let d = s.meta.backup.day_in_week(start + 28);
                s.meta.alive_on(d)
            })
            .count();
        assert_eq!(scheduled.len(), alive_due);
    }
}
