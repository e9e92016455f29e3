//! Impact analysis — Figure 13 of the paper.
//!
//! Figure 13(a): for predictable servers, what fraction of backups moved from
//! colliding default windows into correctly chosen LL windows (12.5 % for
//! daily-pattern servers), how many default windows already coincided with
//! the LL window (85.3 %), and how many LL windows were not chosen correctly
//! (2.1 %); plus busy-server collision avoidance (7.7 %) and the resulting
//! "several hundred hours of improved customer experience".
//!
//! Figure 13(b): the percentage of servers per maximal CPU load — "only 3.7 %
//! of servers reach their CPU capacity per week, i.e., for 96.3 % of servers
//! resources could be saved."

use crate::scheduler::{ScheduleDecision, ScheduledBackup};
use seagull_core::metrics::{lowest_load_window, ErrorBound};
use seagull_telemetry::fleet::ServerTelemetry;
use seagull_telemetry::server::GeneratedClass;
use seagull_timeseries::Timestamp;
use serde::Serialize;
use std::collections::HashMap;

/// Outcome counts for a set of backups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct ImpactCounts {
    /// Backups evaluated (truth available).
    pub total: usize,
    /// Rescheduled into a correct LL window that the default missed.
    pub moved: usize,
    /// Default window already matched the LL window ("this happens by chance
    /// when default windows do not collide with high customer load").
    pub already_optimal: usize,
    /// Rescheduled, but the chosen window was not correct.
    pub incorrect: usize,
    /// Kept the default window (gate failed).
    pub kept_default: usize,
}

impl ImpactCounts {
    fn pct(&self, n: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * n as f64 / self.total as f64
        }
    }

    /// Percentage moved (of evaluated backups).
    pub fn moved_pct(&self) -> f64 {
        self.pct(self.moved)
    }

    /// Percentage already optimal.
    pub fn already_optimal_pct(&self) -> f64 {
        self.pct(self.already_optimal)
    }

    /// Percentage incorrectly chosen.
    pub fn incorrect_pct(&self) -> f64 {
        self.pct(self.incorrect)
    }

    /// Percentage kept at default.
    pub fn kept_default_pct(&self) -> f64 {
        self.pct(self.kept_default)
    }
}

/// The Figure 13(a) report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ImpactReport {
    pub overall: ImpactCounts,
    /// Per ground-truth class.
    pub by_class: Vec<(GeneratedClass, ImpactCounts)>,
    /// Busy servers (true load exceeding the busy threshold on the backup
    /// day) whose default window collided with high load.
    pub busy_collisions: usize,
    /// Of those, collisions avoided by rescheduling.
    pub busy_collisions_avoided: usize,
    /// Total hours of backups moved off colliding windows ("hours of
    /// improved customer experience").
    pub hours_improved: f64,
}

impl ImpactReport {
    /// Busy-server collision avoidance percentage.
    pub fn busy_avoided_pct(&self) -> f64 {
        if self.busy_collisions == 0 {
            0.0
        } else {
            100.0 * self.busy_collisions_avoided as f64 / self.busy_collisions as f64
        }
    }

    /// Counts for one class.
    pub fn class_counts(&self, class: GeneratedClass) -> ImpactCounts {
        self.by_class
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, n)| *n)
            .unwrap_or_default()
    }
}

/// Analyzes the impact of a batch of scheduled backups against true load.
///
/// `busy_threshold` is the "customer load over 60 % of capacity" bar from the
/// paper; `bound` decides window correctness as in Definition 8.
pub fn analyze_impact(
    fleet: &[ServerTelemetry],
    scheduled: &[ScheduledBackup],
    bound: &ErrorBound,
    busy_threshold: f64,
) -> ImpactReport {
    let by_id: HashMap<u64, &ServerTelemetry> = fleet.iter().map(|s| (s.meta.id.0, s)).collect();
    let mut overall = ImpactCounts::default();
    let mut by_class: HashMap<GeneratedClass, ImpactCounts> = HashMap::new();
    let mut busy_collisions = 0usize;
    let mut busy_avoided = 0usize;
    let mut hours_improved = 0.0f64;

    for b in scheduled {
        let Some(server) = by_id.get(&b.server_id) else {
            continue;
        };
        // True load on the backup day (regenerated from the ground-truth
        // shape even when the stored window ends before that day).
        let Some(truth) = server.true_day(b.backup_day) else {
            continue;
        };
        let Some(true_ll) = lowest_load_window(&truth, b.duration_min) else {
            continue;
        };
        let window_mean = |start: Timestamp| {
            truth
                .slice_values(start, start + b.duration_min as i64)
                .map(seagull_timeseries::mean)
                .ok()
        };
        let (default_start, _) = server.meta.backup.default_window_on(b.backup_day);
        let Some(default_mean) = window_mean(default_start) else {
            continue;
        };
        let Some(chosen_mean) = window_mean(b.start) else {
            continue;
        };
        let default_correct = bound.contains(default_mean, true_ll.mean_load);
        let chosen_correct = bound.contains(chosen_mean, true_ll.mean_load);

        let counts = by_class.entry(server.meta.class).or_default();
        counts.total += 1;
        overall.total += 1;
        match b.decision {
            ScheduleDecision::DefaultKept { .. } => {
                counts.kept_default += 1;
                overall.kept_default += 1;
            }
            ScheduleDecision::Rescheduled { .. } => {
                if !chosen_correct {
                    counts.incorrect += 1;
                    overall.incorrect += 1;
                } else if default_correct {
                    counts.already_optimal += 1;
                    overall.already_optimal += 1;
                } else {
                    counts.moved += 1;
                    overall.moved += 1;
                    hours_improved += b.duration_min as f64 / 60.0;
                }
            }
        }

        // Busy-server collision accounting. A *collision with a peak* means
        // the default window sits in high load (> threshold) while a
        // materially lower window existed that day — a flat always-busy
        // server has no peak to collide with. The collision is *avoided*
        // when the backup was rescheduled into a materially lower window.
        let peak = seagull_timeseries::max(truth.values());
        if peak > busy_threshold
            && default_mean > busy_threshold
            && default_mean > true_ll.mean_load + bound.over
        {
            busy_collisions += 1;
            if chosen_mean + bound.over < default_mean
                && matches!(b.decision, ScheduleDecision::Rescheduled { .. })
            {
                busy_avoided += 1;
            }
        }
    }

    let mut by_class: Vec<(GeneratedClass, ImpactCounts)> = by_class.into_iter().collect();
    by_class.sort_by_key(|(c, _)| c.label());
    ImpactReport {
        overall,
        by_class,
        busy_collisions,
        busy_collisions_avoided: busy_avoided,
        hours_improved,
    }
}

/// Figure 13(b): percentage of servers per maximal-CPU bucket.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CapacityHistogram {
    /// Bucket width, CPU percentage points.
    pub bucket_width: f64,
    /// `buckets[i]` = percentage of servers whose weekly max CPU lies in
    /// `[i*width, (i+1)*width)`.
    pub buckets: Vec<f64>,
    /// Percentage of servers whose max reaches `capacity_threshold`.
    pub reaching_capacity_pct: f64,
    pub capacity_threshold: f64,
    pub servers: usize,
}

/// Computes the max-CPU histogram over servers with data.
pub fn capacity_histogram(
    fleet: &[ServerTelemetry],
    bucket_width: f64,
    capacity_threshold: f64,
) -> CapacityHistogram {
    let maxes: Vec<f64> = fleet
        .iter()
        .filter(|s| !s.series.is_empty())
        .map(|s| seagull_timeseries::max(s.series.values()))
        .filter(|m| m.is_finite())
        .collect();
    let n_buckets = (100.0 / bucket_width).ceil() as usize;
    let mut counts = vec![0usize; n_buckets];
    let mut reaching = 0usize;
    for &m in &maxes {
        let idx = ((m / bucket_width) as usize).min(n_buckets - 1);
        counts[idx] += 1;
        if m >= capacity_threshold {
            reaching += 1;
        }
    }
    let total = maxes.len().max(1) as f64;
    CapacityHistogram {
        bucket_width,
        buckets: counts
            .into_iter()
            .map(|c| 100.0 * c as f64 / total)
            .collect(),
        reaching_capacity_pct: 100.0 * reaching as f64 / total,
        capacity_threshold,
        servers: maxes.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricPropertyStore;
    use crate::scheduler::tests::{fleet_of, scheduled_week, served};
    use seagull_telemetry::fleet::{FleetGenerator, FleetSpec};

    fn fleet_and_schedule() -> (Vec<ServerTelemetry>, Vec<ScheduledBackup>) {
        let (fleet, start) = fleet_of(77, 200);
        let serve = served(&fleet, start, 4);
        let scheduled = scheduled_week(&fleet, start + 28, &serve, &FabricPropertyStore::new());
        (fleet, scheduled)
    }

    #[test]
    fn impact_partitions_backups() {
        let (fleet, scheduled) = fleet_and_schedule();
        let report = analyze_impact(&fleet, &scheduled, &ErrorBound::default(), 60.0);
        assert!(report.overall.total > 0);
        assert_eq!(
            report.overall.moved
                + report.overall.already_optimal
                + report.overall.incorrect
                + report.overall.kept_default,
            report.overall.total
        );
        // Stable servers: default windows almost always already optimal among
        // rescheduled ones (the load is flat).
        let stable = report.class_counts(GeneratedClass::Stable);
        if stable.total > 20 {
            let resched = stable.moved + stable.already_optimal + stable.incorrect;
            if resched > 0 {
                assert!(
                    stable.already_optimal as f64 / resched as f64 > 0.9,
                    "stable already-optimal {}/{resched}",
                    stable.already_optimal
                );
            }
        }
        // Patterned servers produce moves (their defaults often collide).
        let daily = report.class_counts(GeneratedClass::DailyPattern);
        let weekly = report.class_counts(GeneratedClass::WeeklyPattern);
        let patterned_moved = daily.moved + weekly.moved;
        let _ = patterned_moved; // sparse classes may be absent in small fleets
        assert!(report.hours_improved >= 0.0);
    }

    #[test]
    fn moved_backups_accumulate_hours() {
        let (fleet, scheduled) = fleet_and_schedule();
        let report = analyze_impact(&fleet, &scheduled, &ErrorBound::default(), 60.0);
        let expect_hours: f64 = scheduled
            .iter()
            .filter(|b| matches!(b.decision, ScheduleDecision::Rescheduled { .. }))
            .map(|b| b.duration_min as f64 / 60.0)
            .sum();
        // Moved hours are a subset of all rescheduled hours.
        assert!(report.hours_improved <= expect_hours + 1e-9);
    }

    #[test]
    fn histogram_sums_to_100() {
        let mut spec = FleetSpec::small_region(5);
        spec.regions[0].servers = 500;
        let fleet = FleetGenerator::new(spec).generate_weeks(1);
        let h = capacity_histogram(&fleet, 10.0, 97.0);
        let sum: f64 = h.buckets.iter().sum();
        assert!((sum - 100.0).abs() < 1e-6, "sum {sum}");
        assert_eq!(h.buckets.len(), 10);
        // The generator targets ~3.7 % capacity-reaching servers.
        assert!(
            h.reaching_capacity_pct > 0.5 && h.reaching_capacity_pct < 12.0,
            "reaching {}",
            h.reaching_capacity_pct
        );
        assert!(h.servers > 0);
    }

    #[test]
    fn histogram_empty_fleet() {
        let h = capacity_histogram(&[], 10.0, 97.0);
        assert_eq!(h.servers, 0);
        assert_eq!(h.reaching_capacity_pct, 0.0);
    }
}
