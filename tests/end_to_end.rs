//! End-to-end integration tests spanning the whole workspace: telemetry →
//! extraction → pipeline → scheduler → impact.

use seagull::backup::{
    analyze_impact, serve_weeks, BackupScheduler, DefaultReason, FabricPropertyStore,
    RunnerService, ScheduleDecision, ScheduledBackup, SchedulerConfig,
};
use seagull::core::fleet::FleetRunner;
use seagull::core::metrics::ErrorBound;
use seagull::core::pipeline::{
    collections, AccuracyDoc, AmlPipeline, PipelineConfig, PredictionDoc,
};
use seagull::core::Severity;
use seagull::serve::ServeService;
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

/// The production path over the first `runs` weeks of the fleet: extracted,
/// run week by week through a `FleetRunner` whose pipeline deploys into the
/// returned serving layer, and the week after the last scheduled from its
/// snapshot, one `schedule_day_served` per day.
fn served_week(
    fleet: &[ServerTelemetry],
    spec: &FleetSpec,
    runs: i64,
) -> (FleetRunner, Vec<ScheduledBackup>) {
    let region = spec.regions[0].name.clone();
    let weeks: Vec<i64> = (0..runs).map(|w| spec.start_day + 7 * w).collect();
    let store = Arc::new(MemoryBlobStore::new());
    LoadExtraction::columnar(5)
        .run(fleet, std::slice::from_ref(&region), &weeks, store.as_ref())
        .unwrap();
    let serve = ServeService::with_defaults();
    let pipeline = AmlPipeline::new(PipelineConfig::production(), store)
        .with_deploy_sink(Arc::new(serve.clone()));
    let runner = FleetRunner::new(pipeline, vec![region.clone()]);
    let reports = runner.run_schedule(&weeks);
    assert!(reports.iter().all(|r| !r.blocked));
    let scheduler = BackupScheduler::new(SchedulerConfig::default());
    let fabric = FabricPropertyStore::new();
    let next_week = spec.start_day + 7 * runs;
    let scheduled = (next_week..next_week + 7)
        .flat_map(|day| scheduler.schedule_day_served(fleet, day, &serve, &region, &fabric))
        .collect();
    (runner, scheduled)
}

#[test]
fn telemetry_to_pipeline_to_scheduler() {
    let (fleet, spec) = fleet_of(80, 5, 1);
    let region = spec.regions[0].name.clone();
    let start = spec.start_day;
    let weeks: Vec<i64> = (0..4).map(|w| start + 7 * w).collect();

    // Extraction fills the blob store, then four weekly pipeline runs
    // deploy into the serving layer; later runs must evaluate earlier
    // predictions and keep the registry on the newest version.
    let (serve, pipeline, reports) = serve_weeks(&fleet, std::slice::from_ref(&region), &weeks);
    assert_eq!(reports.len(), 4);
    assert!(reports.iter().all(|r| !r.blocked));
    assert!(reports[0].predictions_written > 0);
    // Week 1 has no earlier predictions to score; week 2 scores week 1's.
    assert_eq!(reports[0].evaluations, 0);
    assert!(reports[0].accuracy.is_none());
    assert!(reports[1].evaluations > 0);
    let acc = reports[3].accuracy.expect("later runs have accuracy");
    assert!(acc.window_correct_pct > 80.0);
    assert_eq!(
        pipeline.registry.deployed(&region).unwrap().version,
        4,
        "one version per weekly run"
    );
    assert!(pipeline.docs.count(collections::PREDICTIONS) > 0);
    assert!(pipeline.docs.count(collections::ACCURACY) > 0);
    assert_eq!(pipeline.docs.count(collections::RUNS), 4);

    // The scheduler then places week 5's backups from week 4's snapshot.
    let scheduled = BackupScheduler::new(SchedulerConfig::default()).schedule_week_served(
        &fleet,
        start + 28,
        &serve,
        &region,
        &FabricPropertyStore::new(),
    );
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

/// A server whose gate saw a failed week among its three scored ones keeps
/// its default window as `NotPredictable`, and one with fewer than three
/// scored weeks as `TooYoung`: Definition 9, read from the `AccuracyDoc`s
/// the pipeline wrote for the three backup days before the scheduled one.
/// A server the deployed snapshot does not carry is `NotPredictable` too.
#[test]
fn failed_scored_week_keeps_the_default_window() {
    let (fleet, spec) = fleet_of(120, 5, 5);
    let region = spec.regions[0].name.clone();
    let (runner, scheduled) = served_week(&fleet, &spec, 4);
    let docs = &runner.pipeline().docs;
    let (mut failed, mut checked) = (0, 0);
    for b in &scheduled {
        let predicted = PredictionDoc::doc_id(&region, b.server_id, b.backup_day);
        let scores: Vec<Option<AccuracyDoc>> = (1..=3)
            .map(|k| {
                let id = format!("{region}/{}/{}", b.server_id, b.backup_day - 7 * k);
                docs.get::<AccuracyDoc>(collections::ACCURACY, &id).ok()
            })
            .collect();
        let expected = if !docs.contains(collections::PREDICTIONS, &predicted) {
            DefaultReason::NotPredictable
        } else if scores.iter().any(Option::is_none) {
            DefaultReason::TooYoung
        } else if scores
            .iter()
            .flatten()
            .any(|s| !(s.window_correct && s.load_accurate))
        {
            failed += 1;
            DefaultReason::NotPredictable
        } else {
            continue;
        };
        checked += 1;
        let server = fleet.iter().find(|s| s.meta.id.0 == b.server_id).unwrap();
        let (default_start, _) = server.meta.backup.default_window_on(b.backup_day);
        assert_eq!(b.start, default_start, "server {}", b.server_id);
        assert_eq!(
            b.decision,
            ScheduleDecision::DefaultKept { reason: expected },
            "server {}: {scores:?}",
            b.server_id
        );
    }
    assert!(
        failed > 0,
        "some server failed a scored week ({checked} checked)"
    );
}

/// Two runs score one week at most: every due server keeps its default
/// window, as `TooYoung` wherever the deployed snapshot covers it (a server
/// it does not carry is `NotPredictable`).
#[test]
fn two_runs_keep_every_due_server_too_young() {
    let (fleet, spec) = fleet_of(80, 3, 6);
    let region = spec.regions[0].name.clone();
    let (runner, scheduled) = served_week(&fleet, &spec, 2);
    let mut covered = 0;
    for b in &scheduled {
        let server = fleet.iter().find(|s| s.meta.id.0 == b.server_id).unwrap();
        let (default_start, _) = server.meta.backup.default_window_on(b.backup_day);
        assert_eq!(b.start, default_start, "server {}", b.server_id);
        let predicted = PredictionDoc::doc_id(&region, b.server_id, b.backup_day);
        let reason = if runner
            .pipeline()
            .docs
            .contains(collections::PREDICTIONS, &predicted)
        {
            covered += 1;
            DefaultReason::TooYoung
        } else {
            DefaultReason::NotPredictable
        };
        assert_eq!(
            b.decision,
            ScheduleDecision::DefaultKept { reason },
            "server {}",
            b.server_id
        );
    }
    assert!(covered > 0, "the snapshot covers due servers");
}

#[test]
fn runner_service_full_week_availability() {
    let (fleet, spec) = fleet_of(60, 5, 2);
    let start = spec.start_day;
    let region = spec.regions[0].name.clone();
    let weeks: Vec<i64> = (0..4).map(|w| start + 7 * w).collect();
    let (serve, ..) = serve_weeks(&fleet, std::slice::from_ref(&region), &weeks);
    let runner = RunnerService::new(BackupScheduler::new(SchedulerConfig::default()), 3);
    let fabric = FabricPropertyStore::new();
    let mut total_due = 0;
    for offset in 0..7 {
        let report = runner.run_day(&fleet, start + 28 + offset, &serve, &region, &fabric);
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
