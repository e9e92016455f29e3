//! End-to-end integration tests spanning the whole workspace: telemetry →
//! extraction → pipeline → scheduler → impact.

use seagull::backup::{
    analyze_impact, BackupScheduler, FabricPropertyStore, RunnerService, ScheduleDecision,
    SchedulerConfig,
};
use seagull::core::metrics::ErrorBound;
use seagull::core::pipeline::{collections, AmlPipeline, PipelineConfig};
use seagull::core::Severity;
use seagull::forecast::PersistentForecast;
use seagull::telemetry::blobstore::MemoryBlobStore;
use seagull::telemetry::extract::LoadExtraction;
use seagull::telemetry::fleet::{FleetGenerator, FleetSpec, ServerTelemetry};
use std::sync::Arc;

fn fleet_of(servers: usize, weeks: usize, seed: u64) -> (Vec<ServerTelemetry>, FleetSpec) {
    let mut spec = FleetSpec::small_region(seed);
    spec.regions[0].servers = servers;
    let fleet = FleetGenerator::new(spec.clone()).generate_weeks(weeks);
    (fleet, spec)
}

#[test]
fn telemetry_to_pipeline_to_scheduler() {
    let (fleet, spec) = fleet_of(80, 5, 1);
    let region = spec.regions[0].name.clone();
    let start = spec.start_day;
    let weeks: Vec<i64> = (0..5).map(|w| start + 7 * w).collect();

    // Extraction fills the blob store.
    let store = Arc::new(MemoryBlobStore::new());
    LoadExtraction::columnar(5)
        .run(
            &fleet,
            std::slice::from_ref(&region),
            &weeks,
            store.as_ref(),
        )
        .unwrap();

    // Five weekly pipeline runs; later runs must evaluate earlier
    // predictions and keep the registry on the newest version.
    let pipeline = AmlPipeline::new(PipelineConfig::production(), store);
    let reports = pipeline.run_schedule(std::slice::from_ref(&region), &weeks);
    assert_eq!(reports.len(), 5);
    assert!(reports.iter().all(|r| !r.blocked));
    assert!(reports[0].predictions_written > 0);
    // Week 1 has no earlier predictions to score; week 2 scores week 1's.
    assert_eq!(reports[0].evaluations, 0);
    assert!(reports[0].accuracy.is_none());
    assert!(reports[1].evaluations > 0);
    let acc = reports[4].accuracy.expect("later runs have accuracy");
    assert!(acc.window_correct_pct > 80.0);
    assert_eq!(
        pipeline.registry.deployed(&region).unwrap().version,
        5,
        "one version per weekly run"
    );
    assert!(pipeline.docs.count(collections::PREDICTIONS) > 0);
    assert!(pipeline.docs.count(collections::ACCURACY) > 0);
    assert_eq!(pipeline.docs.count(collections::RUNS), 5);

    // The scheduler then places next week's backups.
    let scheduler = BackupScheduler::new(SchedulerConfig::default());
    let fabric = FabricPropertyStore::new();
    let model = PersistentForecast::previous_day();
    let scheduled = scheduler.schedule_week(&fleet, start + 28, &model, &fabric);
    assert!(!scheduled.is_empty());
    let rescheduled = scheduled
        .iter()
        .filter(|b| matches!(b.decision, ScheduleDecision::Rescheduled { .. }))
        .count();
    assert!(
        rescheduled * 2 > scheduled.len(),
        "a majority of this mostly-stable fleet passes the gate \
         ({rescheduled}/{})",
        scheduled.len()
    );

    // Impact analysis partitions every backup.
    let impact = analyze_impact(&fleet, &scheduled, &ErrorBound::default(), 60.0);
    assert_eq!(
        impact.overall.moved
            + impact.overall.already_optimal
            + impact.overall.incorrect
            + impact.overall.kept_default,
        impact.overall.total
    );
    assert!(impact.overall.incorrect_pct() < 10.0);
}

#[test]
fn runner_service_full_week_availability() {
    let (fleet, spec) = fleet_of(60, 5, 2);
    let start = spec.start_day;
    let runner = RunnerService::new(BackupScheduler::new(SchedulerConfig::default()), 3);
    let fabric = FabricPropertyStore::new();
    let model = PersistentForecast::previous_day();
    let mut total_due = 0;
    for offset in 0..7 {
        let report = runner.run_day(&fleet, start + 28 + offset, &model, &fabric);
        assert!((report.availability() - 1.0).abs() < 1e-9);
        total_due += report.backups.len();
    }
    let alive: usize = fleet
        .iter()
        .filter(|s| (0..7).any(|o| s.meta.alive_on(start + 28 + o)))
        .count();
    assert!(total_due <= alive);
    assert!(total_due > 0);
    assert!(fabric.server_count() > 0);
}

#[test]
fn missing_region_blob_raises_critical_incident() {
    let (_, spec) = fleet_of(5, 1, 3);
    let store = Arc::new(MemoryBlobStore::new());
    let pipeline = AmlPipeline::new(PipelineConfig::production(), store);
    let report = pipeline.run_region_week(&spec.regions[0].name, spec.start_day);
    assert!(report.blocked);
    assert_eq!(pipeline.incidents.open_count(Severity::Critical), 1);
}

#[test]
fn pipeline_is_deterministic_across_instances() {
    let (fleet, spec) = fleet_of(30, 2, 4);
    let region = spec.regions[0].name.clone();
    let start = spec.start_day;
    let weeks = [start, start + 7];

    let run = || {
        let store = Arc::new(MemoryBlobStore::new());
        LoadExtraction::columnar(5)
            .run(
                &fleet,
                std::slice::from_ref(&region),
                &weeks,
                store.as_ref(),
            )
            .unwrap();
        let pipeline = AmlPipeline::new(PipelineConfig::production(), store);
        let reports = pipeline.run_schedule(std::slice::from_ref(&region), &weeks);
        (
            reports[1].predictions_written,
            reports[1].evaluations,
            reports[1].accuracy.map(|a| {
                (
                    (a.window_correct_pct * 1000.0) as i64,
                    (a.load_accurate_pct * 1000.0) as i64,
                )
            }),
        )
    };
    assert_eq!(run(), run());
}
