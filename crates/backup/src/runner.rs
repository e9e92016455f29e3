//! The Master Data Service runner substitute.
//!
//! "The backup scheduler runs within Master Data Service (MDS) runner per day
//! and cluster. The Runner Service deploys executables which probe their
//! respective services resulting in measurement of availability and quality
//! of service. The runner service is deployed in each Azure region"
//! (Section 2.3).
//!
//! The fleet is hash-partitioned into clusters; each day the runner invokes
//! the scheduler per cluster and probes that every due server ended up with a
//! usable fabric property. Dropped fabric writes are repaired under the
//! runner's [`RetryPolicy`], and a cluster whose scheduling pass fails gets
//! one re-run before it is reported as errored — so one bad cluster degrades
//! its own availability figure instead of poisoning the daily report.

use crate::fabric::FabricPropertyStore;
use crate::scheduler::{BackupScheduler, ScheduledBackup};
use seagull_core::resilience::{stage_seed, RetryPolicy, StageError};
use seagull_forecast::Forecaster;
use seagull_obs::Obs;
use seagull_telemetry::fleet::ServerTelemetry;
use seagull_telemetry::server::ServerId;
use seagull_timeseries::DayOfWeek;
use serde::Serialize;
use std::sync::Arc;

/// Health of one cluster's daily scheduling run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClusterReport {
    pub cluster: usize,
    pub due_servers: usize,
    pub rescheduled: usize,
    pub kept_default: usize,
    /// Probe: fraction of due servers with a valid fabric property after the
    /// run (1.0 = fully available).
    pub probe_availability: f64,
    /// Retry work spent on this cluster: repair writes for dropped fabric
    /// properties plus failed scheduling passes.
    pub retries: u32,
    /// True when the cluster's scheduling run failed even after the re-run
    /// pass; its due servers count as unavailable.
    pub errored: bool,
}

/// One day's runner output for a region.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunnerReport {
    pub day: i64,
    pub clusters: Vec<ClusterReport>,
    pub backups: Vec<ScheduledBackup>,
}

impl RunnerReport {
    /// Aggregate availability across clusters (due-server weighted). An
    /// errored cluster counts its due servers as unavailable rather than
    /// silently inflating the figure.
    pub fn availability(&self) -> f64 {
        let due: usize = self.clusters.iter().map(|c| c.due_servers).sum();
        if due == 0 {
            // Vacuously available — unless a cluster errored before it
            // could even enumerate its due servers.
            return if self.clusters.iter().any(|c| c.errored) {
                0.0
            } else {
                1.0
            };
        }
        let ok: f64 = self
            .clusters
            .iter()
            .map(|c| {
                if c.errored {
                    0.0
                } else {
                    c.probe_availability * c.due_servers as f64
                }
            })
            .sum();
        ok / due as f64
    }

    /// Retry work spent across all clusters.
    pub fn total_retries(&self) -> u32 {
        self.clusters.iter().map(|c| c.retries).sum()
    }
}

/// Test hook failing a whole cluster's scheduling pass:
/// `(cluster, day, attempt)` → should this pass fail?
type ClusterFaultHook = Arc<dyn Fn(usize, i64, u32) -> bool + Send + Sync>;

/// The per-region runner service.
pub struct RunnerService {
    pub scheduler: BackupScheduler,
    /// Number of clusters the region's fleet is partitioned into.
    pub clusters: usize,
    /// Retry policy for fabric-property repair writes.
    pub retry: RetryPolicy,
    /// Seed for the retry policy's jitter.
    pub retry_seed: u64,
    /// Observability: per-day/per-cluster span trees and runner metrics.
    pub obs: Obs,
    cluster_fault: Option<ClusterFaultHook>,
}

impl RunnerService {
    /// Creates a runner with the given scheduler and cluster count.
    pub fn new(scheduler: BackupScheduler, clusters: usize) -> RunnerService {
        RunnerService {
            scheduler,
            clusters: clusters.max(1),
            retry: RetryPolicy::default(),
            retry_seed: 0,
            obs: Obs::new(),
            cluster_fault: None,
        }
    }

    /// Shares an external observability handle (e.g. the pipeline's).
    pub fn with_obs(mut self, obs: Obs) -> RunnerService {
        self.obs = obs;
        self
    }

    /// Installs a cluster-level fault hook (tests): the hook fails whole
    /// scheduling passes per `(cluster, day, attempt)`.
    pub fn with_cluster_fault(
        mut self,
        hook: impl Fn(usize, i64, u32) -> bool + Send + Sync + 'static,
    ) -> RunnerService {
        self.cluster_fault = Some(Arc::new(hook));
        self
    }

    fn cluster_of(&self, id: ServerId) -> usize {
        // SplitMix-style spread so cluster sizes stay balanced.
        let mut z = id.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        (z ^ (z >> 31)) as usize % self.clusters
    }

    /// Servers in `members` due for backup on `day`.
    fn due_count(members: &[ServerTelemetry], day: i64) -> usize {
        let weekday = DayOfWeek::from_day_index(day).index();
        members
            .iter()
            .filter(|s| s.meta.backup.backup_weekday as usize == weekday && s.meta.alive_on(day))
            .count()
    }

    /// One cluster's scheduling pass with the re-run and repair machinery.
    fn run_cluster(
        &self,
        cluster: usize,
        members: &[ServerTelemetry],
        day: i64,
        forecaster: &dyn Forecaster,
        fabric: &FabricPropertyStore,
    ) -> (ClusterReport, Vec<ScheduledBackup>) {
        let mut retries = 0u32;
        // Re-run pass: a cluster whose scheduling fails outright gets one
        // more chance before the day gives up on it.
        for attempt in 1..=2u32 {
            if self
                .cluster_fault
                .as_ref()
                .is_some_and(|h| h(cluster, day, attempt))
            {
                retries += 1;
                continue;
            }
            let scheduled = self
                .scheduler
                .schedule_day(members, day, forecaster, fabric);
            // Verify-and-repair: rewrite any due server whose fabric write
            // was dropped, under the retry policy.
            for b in &scheduled {
                let id = ServerId(b.server_id);
                if fabric.backup_window_start(id) == Some(b.start) {
                    continue;
                }
                let seed = stage_seed(
                    self.retry_seed,
                    "fabric-write",
                    &format!("cluster-{cluster}/server-{}", b.server_id),
                    day,
                );
                let repaired = self.retry.run(seed, |_| {
                    fabric
                        .try_set_backup_window_start(id, b.start)
                        .map_err(|e| StageError::transient(e.to_string()))
                });
                // The repair write itself plus any backoff retries.
                retries += repaired.attempts;
            }
            let due = scheduled.len();
            let rescheduled = scheduled
                .iter()
                .filter(|b| {
                    matches!(
                        b.decision,
                        crate::scheduler::ScheduleDecision::Rescheduled { .. }
                    )
                })
                .count();
            // Probe: every due server must expose a parseable window start
            // that lies on its backup day.
            let ok = scheduled
                .iter()
                .filter(|b| {
                    fabric
                        .backup_window_start(ServerId(b.server_id))
                        .is_some_and(|t| t.day_index() == b.backup_day)
                })
                .count();
            let report = ClusterReport {
                cluster,
                due_servers: due,
                rescheduled,
                kept_default: due - rescheduled,
                probe_availability: if due == 0 {
                    1.0
                } else {
                    ok as f64 / due as f64
                },
                retries,
                errored: false,
            };
            return (report, scheduled);
        }
        // Both passes failed: the cluster is errored and its due servers
        // count as unavailable.
        let due = RunnerService::due_count(members, day);
        (
            ClusterReport {
                cluster,
                due_servers: due,
                rescheduled: 0,
                kept_default: due,
                probe_availability: 0.0,
                retries,
                errored: true,
            },
            Vec::new(),
        )
    }

    /// Runs one day: schedules every due server per cluster and probes the
    /// fabric store afterwards.
    pub fn run_day(
        &self,
        fleet: &[ServerTelemetry],
        day: i64,
        forecaster: &dyn Forecaster,
        fabric: &FabricPropertyStore,
    ) -> RunnerReport {
        let vt = day.max(0) as u64;
        let root = self.obs.tracer().start("runner-day", &[], vt);
        let registry = self.obs.registry();
        let mut clusters = Vec::with_capacity(self.clusters);
        let mut backups = Vec::new();
        for cluster in 0..self.clusters {
            let cluster_label = cluster.to_string();
            let span = self.obs.tracer().child(
                root,
                "cluster-schedule",
                &[("cluster", &cluster_label)],
                vt,
            );
            let members: Vec<ServerTelemetry> = fleet
                .iter()
                .filter(|s| self.cluster_of(s.meta.id) == cluster)
                .cloned()
                .collect();
            let (report, scheduled) = self.run_cluster(cluster, &members, day, forecaster, fabric);
            self.obs.tracer().end(span, vt);
            let labels = [("cluster", cluster_label.as_str())];
            registry
                .counter("seagull_runner_due_servers_total", &labels)
                .add(report.due_servers as u64);
            registry
                .counter("seagull_runner_rescheduled_total", &labels)
                .add(report.rescheduled as u64);
            registry
                .counter("seagull_runner_retries_total", &labels)
                .add(u64::from(report.retries));
            if report.errored {
                registry
                    .counter("seagull_runner_cluster_errors_total", &labels)
                    .inc();
            }
            clusters.push(report);
            backups.extend(scheduled);
        }
        self.obs.tracer().end(root, vt);
        let report = RunnerReport {
            day,
            clusters,
            backups,
        };
        registry
            .gauge("seagull_runner_availability", &[])
            .set(report.availability());
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::SchedulerConfig;
    use seagull_forecast::PersistentForecast;
    use seagull_telemetry::fleet::{FleetGenerator, FleetSpec};

    fn fleet(seed: u64, servers: usize) -> (Vec<ServerTelemetry>, i64) {
        let mut spec = FleetSpec::small_region(seed);
        spec.regions[0].servers = servers;
        let start = spec.start_day;
        (FleetGenerator::new(spec).generate_weeks(5), start)
    }

    #[test]
    fn runner_schedules_and_probes() {
        let (fleet, start) = fleet(44, 120);
        let runner = RunnerService::new(
            BackupScheduler::new(SchedulerConfig {
                threads: 2,
                ..SchedulerConfig::default()
            }),
            4,
        );
        let fabric = FabricPropertyStore::new();
        let model = PersistentForecast::previous_day();
        let report = runner.run_day(&fleet, start + 28, &model, &fabric);
        assert_eq!(report.clusters.len(), 4);
        let total_due: usize = report.clusters.iter().map(|c| c.due_servers).sum();
        assert_eq!(total_due, report.backups.len());
        // All due servers got a valid property -> full availability.
        assert!((report.availability() - 1.0).abs() < 1e-9);
        assert_eq!(report.total_retries(), 0, "no faults, no retry work");
        assert!(report.clusters.iter().all(|c| !c.errored));
    }

    #[test]
    fn clusters_partition_fleet() {
        let runner = RunnerService::new(BackupScheduler::new(SchedulerConfig::default()), 8);
        let mut counts = vec![0usize; 8];
        for i in 0..800 {
            counts[runner.cluster_of(ServerId(i))] += 1;
        }
        // Roughly balanced clusters.
        for c in counts {
            assert!(c > 40 && c < 160, "cluster size {c}");
        }
    }

    #[test]
    fn empty_day_is_fully_available() {
        let runner = RunnerService::new(BackupScheduler::new(SchedulerConfig::default()), 2);
        let fabric = FabricPropertyStore::new();
        let model = PersistentForecast::previous_day();
        let report = runner.run_day(&[], 100, &model, &fabric);
        assert_eq!(report.availability(), 1.0);
        assert!(report.backups.is_empty());
    }

    #[test]
    fn dropped_fabric_writes_are_repaired_with_retries() {
        let (fleet, start) = fleet(45, 120);
        let runner = RunnerService::new(BackupScheduler::new(SchedulerConfig::default()), 4);
        let fabric = FabricPropertyStore::new();
        fabric.inject_write_faults(7, 0.3);
        let model = PersistentForecast::previous_day();
        let report = runner.run_day(&fleet, start + 28, &model, &fabric);
        assert!(
            fabric.injected_faults() > 0,
            "30% fault rate over a day of writes must fire"
        );
        assert!(report.total_retries() > 0, "repair writes were needed");
        // Repair drives availability back to (near) full: each dropped write
        // gets five more chances at a 30% failure rate each.
        assert!(
            report.availability() > 0.9,
            "availability {}",
            report.availability()
        );
        assert!(report.clusters.iter().all(|c| !c.errored));
    }

    #[test]
    fn failing_cluster_is_rerun_once_then_isolated() {
        // Large enough that every cluster has due servers on any weekday.
        let (fleet, start) = fleet(46, 280);
        let day = start + 28;
        // Cluster 1 fails its first pass but recovers on the re-run;
        // cluster 2 fails both passes.
        let runner = RunnerService::new(BackupScheduler::new(SchedulerConfig::default()), 4)
            .with_cluster_fault(move |cluster, _, attempt| {
                (cluster == 1 && attempt == 1) || cluster == 2
            });
        let fabric = FabricPropertyStore::new();
        let model = PersistentForecast::previous_day();
        let report = runner.run_day(&fleet, day, &model, &fabric);

        let c1 = &report.clusters[1];
        assert!(!c1.errored, "cluster 1 recovered on the re-run pass");
        assert!(c1.retries >= 1, "the failed pass is counted as retry work");

        let c2 = &report.clusters[2];
        assert!(c2.errored, "cluster 2 failed both passes");
        assert_eq!(c2.probe_availability, 0.0);
        assert!(
            c2.due_servers > 0,
            "errored cluster still enumerates its due servers"
        );

        // Healthy clusters are unaffected: their due servers all scheduled.
        assert!(report.clusters[0].due_servers > 0 || report.clusters[3].due_servers > 0);
        assert!(!report.clusters[0].errored && !report.clusters[3].errored);

        // Availability reflects the lost cluster instead of inflating to 1.
        let avail = report.availability();
        assert!(avail < 1.0, "errored cluster must drag availability down");
        let due: usize = report.clusters.iter().map(|c| c.due_servers).sum();
        let expected = (due - c2.due_servers) as f64 / due as f64;
        assert!((avail - expected).abs() < 1e-9, "{avail} vs {expected}");
    }

    #[test]
    fn runner_records_per_cluster_span_tree() {
        let (fleet, start) = fleet(47, 80);
        let runner = RunnerService::new(BackupScheduler::new(SchedulerConfig::default()), 3);
        let fabric = FabricPropertyStore::new();
        let model = PersistentForecast::previous_day();
        let day = start + 28;
        let report = runner.run_day(&fleet, day, &model, &fabric);

        let spans = runner.obs.tracer().spans();
        let root = spans
            .iter()
            .find(|s| s.name == "runner-day")
            .expect("root span");
        assert_eq!(root.start_tick, day as u64);
        assert!(root.end_tick.is_some(), "root span ended");
        let children: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "cluster-schedule")
            .collect();
        assert_eq!(children.len(), 3, "one child span per cluster");
        for c in &children {
            assert_eq!(c.parent, Some(root.id), "children link to the day");
        }

        let due: u64 = (0..3)
            .map(|c| {
                runner
                    .obs
                    .registry()
                    .counter(
                        "seagull_runner_due_servers_total",
                        &[("cluster", &c.to_string())],
                    )
                    .get()
            })
            .sum();
        let expected: usize = report.clusters.iter().map(|c| c.due_servers).sum();
        assert_eq!(due, expected as u64);
        assert_eq!(
            runner
                .obs
                .registry()
                .gauge("seagull_runner_availability", &[])
                .get(),
            report.availability()
        );
    }

    #[test]
    fn fully_errored_empty_day_reports_zero_availability() {
        let runner = RunnerService::new(BackupScheduler::new(SchedulerConfig::default()), 2)
            .with_cluster_fault(|_, _, _| true);
        let fabric = FabricPropertyStore::new();
        let model = PersistentForecast::previous_day();
        let report = runner.run_day(&[], 100, &model, &fabric);
        assert_eq!(
            report.availability(),
            0.0,
            "errored clusters must not report a vacuously perfect day"
        );
    }
}
