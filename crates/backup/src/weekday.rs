//! Cross-day backup optimization — the Section 6.1 extension.
//!
//! "To further optimize backup scheduling, we will move a backup of a server
//! from its default backup day to other day of the week if the load is lower
//! and/or prediction is more accurate on another day." The paper already
//! measures the evaluation cost of this feature (the 7-day variant of
//! Figure 12(b)); this module implements the optimizer itself.
//!
//! For every candidate day of the upcoming week the optimizer predicts the
//! day, finds its lowest-load window, and scores the candidate by predicted
//! window load; days whose *historical* prediction quality (over the
//! predictability gate's weeks) was poor are excluded. The best candidate
//! must beat the server's current backup day by a configurable margin to
//! justify the churn of moving the backup.

use crate::scheduler::{BackupScheduler, DefaultReason, ScheduleDecision, ScheduledBackup};
use seagull_core::evaluate::evaluate_backup_day;
use seagull_core::metrics::lowest_load_window;
use seagull_core::par::parallel_map;
use seagull_forecast::Forecaster;
use seagull_telemetry::fleet::ServerTelemetry;
use seagull_timeseries::Timestamp;
use serde::Serialize;

/// Weekday-optimizer parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WeekdayConfig {
    /// A candidate day must undercut the due day's predicted window load by
    /// this many CPU percentage points to justify moving the backup.
    pub min_improvement: f64,
    /// Candidate days must have been predicted correctly and accurately on
    /// this many prior weeks (reuses the Definition 9 machinery per day).
    pub history_weeks: usize,
}

impl Default for WeekdayConfig {
    fn default() -> Self {
        WeekdayConfig {
            min_improvement: 5.0,
            history_weeks: 3,
        }
    }
}

/// Outcome of weekday optimization for one server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WeekdayPlan {
    pub server_id: u64,
    /// The server's originally due day this week.
    pub due_day: i64,
    /// The day the backup should run (== `due_day` when no move pays off).
    pub chosen_day: i64,
    /// Predicted mean window load on the due day (if predictable there).
    pub due_window_load: Option<f64>,
    /// Predicted mean window load on the chosen day.
    pub chosen_window_load: Option<f64>,
    /// The scheduled backup on the chosen day.
    pub backup: ScheduledBackup,
}

impl WeekdayPlan {
    /// True when the optimizer moved the backup off its due day.
    pub fn moved(&self) -> bool {
        self.chosen_day != self.due_day
    }
}

/// The cross-day optimizer, layered on the ordinary scheduler.
#[derive(Debug, Clone, Copy)]
pub struct WeekdayOptimizer {
    pub scheduler: BackupScheduler,
    pub config: WeekdayConfig,
}

impl WeekdayOptimizer {
    /// Creates an optimizer.
    pub fn new(scheduler: BackupScheduler, config: WeekdayConfig) -> WeekdayOptimizer {
        WeekdayOptimizer { scheduler, config }
    }

    /// Plans one server's backup for the week starting at `week_start_day`,
    /// where `due_day` is the server's configured day in that week.
    pub fn plan_server(
        &self,
        server: &ServerTelemetry,
        week_start_day: i64,
        due_day: i64,
        forecaster: &dyn Forecaster,
    ) -> WeekdayPlan {
        let eval_cfg = &self.scheduler.config.evaluation;
        let duration = server.meta.backup.duration_min;

        // Predicted window load for a candidate day, gated on that day's
        // historical prediction quality.
        let candidate_load = |day: i64| -> Option<f64> {
            // Gate: the same weekday must have evaluated correct + accurate
            // for the last `history_weeks` weeks.
            for k in 1..=self.config.history_weeks as i64 {
                let past = day - 7 * k;
                let e = evaluate_backup_day(server, past, forecaster, eval_cfg)?;
                if !(e.window_correct && e.load_accurate) {
                    return None;
                }
            }
            // Predict the candidate day from the week before it.
            let day_start = Timestamp::from_days(day);
            let history = server
                .series
                .slice(Timestamp::from_days(day - eval_cfg.train_days), day_start)
                .ok()?;
            let predicted = forecaster
                .fit_predict(&history, history.points_per_day())
                .ok()?;
            lowest_load_window(&predicted, duration).map(|w| w.mean_load)
        };

        let due_load = candidate_load(due_day);
        let mut chosen_day = due_day;
        let mut chosen_load = due_load;
        for offset in 0..7 {
            let day = week_start_day + offset;
            if day == due_day {
                continue;
            }
            let Some(load) = candidate_load(day) else {
                continue;
            };
            // A move must beat the incumbent by the margin; an unpredictable
            // due day is beaten by any predictable candidate.
            let beats = match chosen_load {
                Some(current) => {
                    let margin = if chosen_day == due_day {
                        self.config.min_improvement
                    } else {
                        0.0
                    };
                    load + margin < current
                }
                None => true,
            };
            if beats {
                chosen_day = day;
                chosen_load = Some(load);
            }
        }

        let backup = self
            .scheduler
            .schedule_server(server, chosen_day, forecaster);
        // If the chosen day turned out unschedulable after all, fall back to
        // the due day entirely.
        let backup = if chosen_day != due_day
            && matches!(
                backup.decision,
                ScheduleDecision::DefaultKept {
                    reason: DefaultReason::PredictionFailed
                }
            ) {
            chosen_day = due_day;
            chosen_load = due_load;
            self.scheduler.schedule_server(server, due_day, forecaster)
        } else {
            backup
        };

        WeekdayPlan {
            server_id: server.meta.id.0,
            due_day,
            chosen_day,
            due_window_load: due_load,
            chosen_window_load: chosen_load,
            backup,
        }
    }

    /// Plans the whole fleet for one week (each server evaluated on its due
    /// day plus all six alternatives — the expensive evaluation measured in
    /// Figure 12(b)'s 7-day variant).
    pub fn plan_week(
        &self,
        fleet: &[ServerTelemetry],
        week_start_day: i64,
        forecaster: &dyn Forecaster,
        threads: usize,
    ) -> Vec<WeekdayPlan> {
        parallel_map(fleet, threads, |server| {
            let due = crate::scheduler::due_day_in_week(server, week_start_day);
            self.plan_server(server, week_start_day, due, forecaster)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::SchedulerConfig;
    use seagull_forecast::PersistentForecast;
    use seagull_telemetry::fleet::{ClassMix, FleetGenerator, FleetSpec, RegionSpec};

    fn weekly_fleet(n: usize) -> (Vec<ServerTelemetry>, i64) {
        // Weekly-pattern servers: weekdays busy, weekends idle — the perfect
        // candidates for moving a weekday backup to a weekend.
        let spec = FleetSpec {
            seed: 5,
            regions: vec![RegionSpec {
                name: "wk".into(),
                servers: n,
            }],
            start_day: 17_997,
            grid_min: 5,
            mix: ClassMix {
                short_lived: 0.0,
                stable: 0.0,
                daily: 0.0,
                weekly: 1.0,
                unstable: 0.0,
            },
            capacity_reaching: 0.0,
        };
        let start = spec.start_day;
        (FleetGenerator::new(spec).generate_weeks(6), start)
    }

    #[test]
    fn moves_weekday_backups_toward_lower_days() {
        let (fleet, start) = weekly_fleet(30);
        let opt = WeekdayOptimizer::new(
            BackupScheduler::new(SchedulerConfig::default()),
            WeekdayConfig::default(),
        );
        let model = PersistentForecast::previous_day();
        let plans = opt.plan_week(&fleet, start + 35, &model, 2);
        assert_eq!(plans.len(), fleet.len());
        // Moves must never increase the predicted window load.
        for p in &plans {
            if p.moved() {
                let (due, chosen) = (
                    p.due_window_load.unwrap_or(f64::INFINITY),
                    p.chosen_window_load.expect("moved implies predictable"),
                );
                assert!(chosen < due, "move must improve: {chosen} vs {due}");
            }
            assert_eq!(p.backup.backup_day, p.chosen_day);
        }
        // Weekly-pattern servers due on busy weekdays should see real moves.
        let moved = plans.iter().filter(|p| p.moved()).count();
        assert!(moved > 0, "some backups should move to quieter days");
    }

    #[test]
    fn stable_servers_rarely_move() {
        // Flat load: no day is materially better, so the margin keeps
        // backups on their due day.
        let spec = FleetSpec {
            seed: 9,
            regions: vec![RegionSpec {
                name: "st".into(),
                servers: 20,
            }],
            start_day: 17_997,
            grid_min: 5,
            mix: ClassMix {
                short_lived: 0.0,
                stable: 1.0,
                daily: 0.0,
                weekly: 0.0,
                unstable: 0.0,
            },
            capacity_reaching: 0.0,
        };
        let start = spec.start_day;
        let fleet = FleetGenerator::new(spec).generate_weeks(6);
        let opt = WeekdayOptimizer::new(
            BackupScheduler::new(SchedulerConfig::default()),
            WeekdayConfig::default(),
        );
        let model = PersistentForecast::previous_day();
        let plans = opt.plan_week(&fleet, start + 35, &model, 2);
        // Flat load never justifies churn for a predictable due day: the
        // only admissible moves are away from due days whose own history
        // failed the gate ("prediction is more accurate on another day").
        for p in plans.iter().filter(|p| p.moved()) {
            assert!(
                p.due_window_load.is_none(),
                "a predictable flat due day must not move"
            );
        }
        let moved = plans.iter().filter(|p| p.moved()).count();
        assert!(moved * 5 <= plans.len(), "moves must be rare on flat load");
    }

    #[test]
    fn unpredictable_candidates_are_excluded() {
        let (fleet, start) = weekly_fleet(5);
        let opt = WeekdayOptimizer::new(
            BackupScheduler::new(SchedulerConfig::default()),
            WeekdayConfig {
                history_weeks: 8, // longer than the available history
                ..WeekdayConfig::default()
            },
        );
        let model = PersistentForecast::previous_day();
        // With an unsatisfiable gate no candidate (including the due day)
        // qualifies, so nothing moves and schedules fall back to defaults.
        let plans = opt.plan_week(&fleet, start + 35, &model, 1);
        assert!(plans.iter().all(|p| !p.moved()));
    }
}
