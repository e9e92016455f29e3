//! # seagull-backup
//!
//! The backup-scheduling use case — the paper's "use-case-specific online
//! components" (Section 2.3) plus the impact analysis of Section 6.2.
//!
//! * [`fabric`] — the Service Fabric property store substitute: the scheduler
//!   "stores the start time of this window as a service fabric property of
//!   respective PostgreSQL and MySQL database instances. This property is
//!   used by the backup service to schedule backups."
//! * [`scheduler`] — the backup-scheduling algorithm: read each due server's
//!   three-week predictability gate and predicted lowest-load window from
//!   the serving layer, write the fabric property; unpredictable or young
//!   servers keep the default time.
//! * [`runner`] — the Master Data Service runner substitute: "the backup
//!   scheduler runs within Master Data Service (MDS) runner per day and
//!   cluster."
//! * [`impact`] — the Figure 13 impact analysis: moved/already-optimal/
//!   incorrect windows per server class, busy-server collision avoidance,
//!   hours of improved customer experience, and the capacity histogram.
//! * [`serve_weeks`] — the weekly production path the scheduler reads from:
//!   extraction, the pipeline, and the serving layer it deploys into;
//!   [`served_backup_day`] reads back what it serves for one server.

#![forbid(unsafe_code)]

pub mod fabric;
pub mod impact;
pub mod runner;
pub mod scheduler;

pub use fabric::{FabricPropertyStore, BACKUP_WINDOW_START_PROPERTY};
pub use impact::{analyze_impact, capacity_histogram, CapacityHistogram, ImpactReport};
pub use runner::{ClusterReport, RunnerReport, RunnerService};
pub use scheduler::{
    BackupScheduler, DefaultReason, ScheduleDecision, ScheduledBackup, SchedulerConfig,
};

use seagull_core::metrics::LowLoadWindow;
use seagull_core::pipeline::{
    collections, AccuracyDoc, AmlPipeline, GateState, PipelineConfig, PipelineRunReport,
};
use seagull_serve::{ServeError, ServeService};
use seagull_telemetry::blobstore::MemoryBlobStore;
use seagull_telemetry::extract::LoadExtraction;
use seagull_telemetry::fleet::ServerTelemetry;
use std::sync::Arc;

/// The production path over the weeks starting on `weeks` of `fleet`: their
/// load extracted into a memory blob store, then one production pipeline run
/// per region and week, each deploying into the returned serving layer,
/// whose snapshots then answer for the week after the last. The pipeline
/// and its run reports come back beside it.
pub fn serve_weeks(
    fleet: &[ServerTelemetry],
    regions: &[String],
    weeks: &[i64],
) -> (ServeService, AmlPipeline, Vec<PipelineRunReport>) {
    let store = Arc::new(MemoryBlobStore::new());
    LoadExtraction::columnar(5)
        .run(fleet, regions, weeks, store.as_ref())
        .expect("a memory blob store accepts every put");
    let serve = ServeService::with_defaults();
    let pipeline = AmlPipeline::new(PipelineConfig::production(), store)
        .with_deploy_sink(Arc::new(serve.clone()));
    let reports = pipeline.run_schedule(regions, weeks);
    (serve, pipeline, reports)
}

/// A server's gate, and the served lowest-load window for one day, as
/// `ServeService::gated_ll_window` answers them.
type GatedWindow = Result<(GateState, Result<LowLoadWindow, ServeError>), ServeError>;

/// What [`serve_weeks`] serves for `server` on its backup day in the week
/// starting `week_start_day`: the day, the server's Definition 9 gate with
/// the served lowest-load window for that day (`gated_ll_window`), and the
/// pipeline's latest score of one of its backup days (`None` before any
/// was scored).
pub fn served_backup_day(
    serve: &ServeService,
    pipeline: &AmlPipeline,
    region: &str,
    server: &ServerTelemetry,
    week_start_day: i64,
) -> (i64, GatedWindow, Option<AccuracyDoc>) {
    let id = server.meta.id.0;
    let day = server.meta.backup.day_in_week(week_start_day);
    let served = serve.gated_ll_window(region, id, day);
    let scores: Vec<AccuracyDoc> = (pipeline.docs)
        .scan(collections::ACCURACY)
        .expect("the pipeline stores only accuracy documents under ACCURACY");
    let last = (scores.into_iter())
        .filter(|d| d.region == region && d.server_id == id)
        .max_by_key(|d| d.day);
    (day, served, last)
}
