//! Customer backup-window advisor — the Section 6.2 extension.
//!
//! "More recently, customers can select a backup window themselves. However,
//! they may not know the best time to run a backup" (Section 1), and "We also
//! use the lowest load window metric to measure if backup windows selected by
//! customers correspond to predictable lowest load windows and suggest
//! windows with expected lower load instead" (Section 6.2).
//!
//! The advisor compares a customer-selected window against the predicted
//! lowest-load window on the same day and emits a suggestion when the
//! customer's choice is materially worse — but only for servers that pass
//! the predictability gate, so customers are never nagged on the basis of
//! guesswork.

use crate::scheduler::BackupScheduler;
use seagull_core::evaluate::predictability;
use seagull_core::metrics::{lowest_load_window, LowLoadWindow};
use seagull_core::par::parallel_map;
use seagull_forecast::Forecaster;
use seagull_telemetry::fleet::ServerTelemetry;
use seagull_timeseries::Timestamp;
use serde::Serialize;

/// A customer's chosen backup window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CustomerWindow {
    pub server_id: u64,
    /// Minute of day the customer picked (0..1440).
    pub start_minute: u32,
}

/// The advisor's verdict for one customer window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum Advice {
    /// The customer's window already sits within the acceptable bound of the
    /// predicted lowest-load window — leave them alone.
    KeepCurrent { predicted_load_in_window: f64 },
    /// A materially lower window exists; suggest it.
    Suggest {
        window: LowLoadWindow,
        predicted_load_in_current: f64,
        predicted_improvement: f64,
    },
    /// The server is not predictable enough to advise on.
    NotPredictable,
    /// The customer's window could not be evaluated (insufficient data).
    NotEvaluable,
}

/// One advisory record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WindowAdvice {
    pub server_id: u64,
    pub day: i64,
    pub advice: Advice,
}

/// The advisor, layered on the scheduler's configuration (shared error
/// bound, gate length, training window).
#[derive(Debug, Clone, Copy)]
pub struct WindowAdvisor {
    pub scheduler: BackupScheduler,
}

impl WindowAdvisor {
    /// Creates an advisor.
    pub fn new(scheduler: BackupScheduler) -> WindowAdvisor {
        WindowAdvisor { scheduler }
    }

    /// Advises one customer about their window on `day`.
    pub fn advise(
        &self,
        server: &ServerTelemetry,
        customer: CustomerWindow,
        day: i64,
        forecaster: &dyn Forecaster,
    ) -> WindowAdvice {
        let cfg = &self.scheduler.config.evaluation;
        let duration = server.meta.backup.duration_min;
        let mk = |advice| WindowAdvice {
            server_id: server.meta.id.0,
            day,
            advice,
        };

        // Gate: only advise on predictable servers (Definition 9, anchored
        // like the scheduler's gate).
        let verdict = predictability(server, day - 6, forecaster, cfg);
        if !verdict.predictable {
            return mk(Advice::NotPredictable);
        }

        // Predict the day.
        let day_start = Timestamp::from_days(day);
        let Ok(history) = server
            .series
            .slice(Timestamp::from_days(day - cfg.train_days), day_start)
        else {
            return mk(Advice::NotEvaluable);
        };
        let Ok(predicted) = forecaster.fit_predict(&history, history.points_per_day()) else {
            return mk(Advice::NotEvaluable);
        };
        let Some(best) = lowest_load_window(&predicted, duration) else {
            return mk(Advice::NotEvaluable);
        };

        // Predicted load inside the customer's window. Windows starting too
        // late to fit inside the day cannot be evaluated.
        let cust_start = day_start + customer.start_minute as i64;
        let Ok(vals) = predicted.slice_values(cust_start, cust_start + duration as i64) else {
            return mk(Advice::NotEvaluable);
        };
        let current = seagull_timeseries::mean(vals);

        // The paper's Definition 8 logic, applied to the customer's choice:
        // within the bound of the best window means "good enough".
        let bound = &cfg.accuracy.bound;
        if bound.contains(current, best.mean_load) {
            mk(Advice::KeepCurrent {
                predicted_load_in_window: current,
            })
        } else {
            mk(Advice::Suggest {
                window: best,
                predicted_load_in_current: current,
                predicted_improvement: current - best.mean_load,
            })
        }
    }

    /// Advises a batch of customers in parallel.
    pub fn advise_fleet(
        &self,
        pairs: &[(ServerTelemetry, CustomerWindow)],
        day_of: impl Fn(&ServerTelemetry) -> i64 + Sync,
        forecaster: &dyn Forecaster,
        threads: usize,
    ) -> Vec<WindowAdvice> {
        parallel_map(pairs, threads, |(server, customer)| {
            self.advise(server, *customer, day_of(server), forecaster)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::SchedulerConfig;
    use seagull_core::evaluate::backup_day_in_week;
    use seagull_forecast::PersistentForecast;
    use seagull_telemetry::fleet::{ClassMix, FleetGenerator, FleetSpec, RegionSpec};
    use seagull_telemetry::server::GeneratedClass;

    fn fleet_of(class: GeneratedClass, n: usize) -> (Vec<ServerTelemetry>, i64) {
        let mix = match class {
            GeneratedClass::Stable => ClassMix {
                short_lived: 0.0,
                stable: 1.0,
                daily: 0.0,
                weekly: 0.0,
                unstable: 0.0,
            },
            GeneratedClass::DailyPattern => ClassMix {
                short_lived: 0.0,
                stable: 0.0,
                daily: 1.0,
                weekly: 0.0,
                unstable: 0.0,
            },
            _ => ClassMix {
                short_lived: 0.0,
                stable: 0.0,
                daily: 0.0,
                weekly: 0.0,
                unstable: 1.0,
            },
        };
        let spec = FleetSpec {
            seed: 31,
            regions: vec![RegionSpec {
                name: "adv".into(),
                servers: n,
            }],
            start_day: 17_997,
            grid_min: 5,
            mix,
            capacity_reaching: 0.0,
        };
        let start = spec.start_day;
        (FleetGenerator::new(spec).generate_weeks(5), start)
    }

    fn advisor() -> WindowAdvisor {
        WindowAdvisor::new(BackupScheduler::new(SchedulerConfig::default()))
    }

    #[test]
    fn peak_hour_choice_on_daily_server_gets_a_suggestion() {
        let (fleet, start) = fleet_of(GeneratedClass::DailyPattern, 10);
        let model = PersistentForecast::previous_day();
        let mut suggested = 0;
        for server in &fleet {
            let day = backup_day_in_week(server, start + 28);
            // A customer picks the busiest hour of the previous day (each
            // server's diurnal phase is randomized, so locate its peak).
            let prev = server.series.day_values(day - 1).unwrap();
            let peak_idx = prev
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            let start_minute =
                ((peak_idx as u32 * 5).min(1440 - server.meta.backup.duration_min)) / 5 * 5;
            let advice = advisor().advise(
                server,
                CustomerWindow {
                    server_id: server.meta.id.0,
                    start_minute,
                },
                day,
                &model,
            );
            if let Advice::Suggest {
                predicted_improvement,
                ..
            } = advice.advice
            {
                assert!(predicted_improvement > 0.0);
                suggested += 1;
            }
        }
        assert!(
            suggested > fleet.len() / 2,
            "most peak-hour choices on patterned servers should be improvable \
             ({suggested}/{})",
            fleet.len()
        );
    }

    #[test]
    fn good_choice_on_stable_server_is_kept() {
        let (fleet, start) = fleet_of(GeneratedClass::Stable, 10);
        let model = PersistentForecast::previous_day();
        for server in &fleet {
            let day = backup_day_in_week(server, start + 28);
            let advice = advisor().advise(
                server,
                CustomerWindow {
                    server_id: server.meta.id.0,
                    start_minute: 3 * 60,
                },
                day,
                &model,
            );
            assert!(
                matches!(advice.advice, Advice::KeepCurrent { .. }),
                "flat load: every window is already within the bound, got {:?}",
                advice.advice
            );
        }
    }

    #[test]
    fn unstable_servers_get_no_advice() {
        let (fleet, start) = fleet_of(GeneratedClass::Unstable, 10);
        let model = PersistentForecast::previous_day();
        let mut not_predictable = 0;
        for server in &fleet {
            let day = backup_day_in_week(server, start + 28);
            let advice = advisor().advise(
                server,
                CustomerWindow {
                    server_id: server.meta.id.0,
                    start_minute: 0,
                },
                day,
                &model,
            );
            if matches!(advice.advice, Advice::NotPredictable) {
                not_predictable += 1;
            }
        }
        assert!(
            not_predictable > fleet.len() / 2,
            "unpredictable servers must be left alone ({not_predictable})"
        );
    }

    #[test]
    fn oversized_window_start_is_not_evaluable() {
        let (fleet, start) = fleet_of(GeneratedClass::Stable, 1);
        let model = PersistentForecast::previous_day();
        let server = &fleet[0];
        let day = backup_day_in_week(server, start + 28);
        let advice = advisor().advise(
            server,
            CustomerWindow {
                server_id: server.meta.id.0,
                start_minute: 1439, // cannot fit any real backup before midnight
            },
            day,
            &model,
        );
        assert!(matches!(advice.advice, Advice::NotEvaluable));
    }

    #[test]
    fn advise_fleet_parallel_matches_serial() {
        let (fleet, start) = fleet_of(GeneratedClass::DailyPattern, 8);
        let model = PersistentForecast::previous_day();
        let pairs: Vec<(ServerTelemetry, CustomerWindow)> = fleet
            .iter()
            .map(|s| {
                (
                    s.clone(),
                    CustomerWindow {
                        server_id: s.meta.id.0,
                        start_minute: 12 * 60,
                    },
                )
            })
            .collect();
        let day_of = |s: &ServerTelemetry| backup_day_in_week(s, start + 28);
        let serial = advisor().advise_fleet(&pairs, day_of, &model, 1);
        let parallel = advisor().advise_fleet(&pairs, day_of, &model, 4);
        assert_eq!(serial, parallel);
    }
}
