//! Integration tests for the pieces that run beside the weekly pipeline: a
//! month of weekly pipeline runs interleaved with the daily backup runner,
//! the Appendix A auto-scale policy against static allocation, and the
//! Section 5.2 class-aware model router.

use seagull::backup::{BackupScheduler, FabricPropertyStore, RunnerService, SchedulerConfig};
use seagull::core::pipeline::{AmlPipeline, PipelineConfig};
use seagull::forecast::{Forecaster, PersistentForecast, SsaForecaster};
use seagull::serve::ServeService;
use seagull::telemetry::blobstore::MemoryBlobStore;
use seagull::telemetry::extract::LoadExtraction;
use seagull::telemetry::fleet::{FleetGenerator, FleetSpec};
use seagull::timeseries::Timestamp;
use seagull_bench::autoscale::{
    evaluate_policy, sql_fleet_spec, AutoscalePolicy, SizingMode, SkuLadder,
};
use seagull_bench::zoo::ClassAwareForecaster;
use std::sync::Arc;

#[test]
fn clock_driven_month_of_operations() {
    // A month of operations on a day-granular clock: the daily backup
    // runner schedules every day from the snapshot deployed last, and the
    // weekly pipeline runs once a week's load is in, at the end of its last
    // day, deploying the next week's predictions into the serving layer.
    // The runner consumes those predictions: the test checks that the
    // pipeline completes all five runs, that all 35 runner days keep every
    // cluster available and schedule backups, and that no backup moves
    // before a gate has three scored weeks behind it (the fourth run, the
    // first to deploy open gates, predicts week 5) and some move after.
    let mut spec = FleetSpec::small_region(61);
    spec.regions[0].servers = 50;
    let region = spec.regions[0].name.clone();
    let start = spec.start_day;
    let fleet = FleetGenerator::new(spec).generate_weeks(5);

    let store = Arc::new(MemoryBlobStore::new());
    let weeks: Vec<i64> = (0..5).map(|w| start + 7 * w).collect();
    LoadExtraction::columnar(5)
        .run(
            &fleet,
            std::slice::from_ref(&region),
            &weeks,
            store.as_ref(),
        )
        .unwrap();

    let serve = ServeService::with_defaults();
    let pipeline = AmlPipeline::new(PipelineConfig::production(), store)
        .with_deploy_sink(Arc::new(serve.clone()));
    let runner = RunnerService::new(BackupScheduler::new(SchedulerConfig::default()), 2);
    let fabric = FabricPropertyStore::new();

    let (mut pipeline_runs, mut runner_days, mut backups) = (0, 0, 0);
    let mut rescheduled = [0usize; 5];
    for day in start..start + 35 {
        let report = runner.run_day(&fleet, day, &serve, &region, &fabric);
        runner_days += 1;
        backups += report.backups.len();
        rescheduled[((day - start) / 7) as usize] +=
            report.clusters.iter().map(|c| c.rescheduled).sum::<usize>();
        assert!((report.availability() - 1.0).abs() < 1e-9);
        if (day - start) % 7 == 6 {
            pipeline.run_region_week(&region, day - 6);
            pipeline_runs += 1;
        }
    }

    assert_eq!(pipeline_runs, 5);
    assert_eq!(runner_days, 35);
    assert!(backups > 0);
    assert_eq!(pipeline.docs.count("runs"), 5);
    assert_eq!(rescheduled[..4], [0; 4]);
    assert!(rescheduled[4] > 0, "week 5 moves predictable servers");
}

#[test]
fn autoscale_policy_dominates_static_allocation() {
    let spec = sql_fleet_spec(64, 80);
    let start = spec.start_day;
    let fleet = FleetGenerator::new(spec).generate_weeks(2);
    let model = PersistentForecast::previous_day();
    let policy = AutoscalePolicy::default();
    let ladder = SkuLadder::default();
    let day = start + 8;
    let pre = evaluate_policy(
        &fleet,
        day,
        SizingMode::Preemptive,
        &policy,
        &ladder,
        &model,
        7,
        2,
    );
    let stat = evaluate_policy(
        &fleet,
        day,
        SizingMode::StaticMax,
        &policy,
        &ladder,
        &model,
        7,
        2,
    );
    assert!(pre.evaluated > 0);
    // Preemptive reclaims capacity (Figure 13(b)'s 96.3 % headroom) at a
    // bounded violation cost.
    assert!(pre.mean_capacity < stat.mean_capacity * 0.9);
    assert!(pre.mean_waste_pct_hours < stat.mean_waste_pct_hours);
    assert!(pre.violation_rate_pct < 35.0, "{}", pre.violation_rate_pct);
}

#[test]
fn class_aware_router_matches_best_single_models() {
    let mut spec = FleetSpec::small_region(66);
    spec.regions[0].servers = 60;
    let start = spec.start_day;
    let fleet = FleetGenerator::new(spec).generate_weeks(4);
    let router = ClassAwareForecaster::paper_defaults(Arc::new(SsaForecaster::default()));
    let mut routed = 0;
    for server in fleet.iter().filter(|s| s.meta.deleted_day.is_none()) {
        let history = server
            .series
            .slice(
                Timestamp::from_days(start + 14),
                Timestamp::from_days(start + 21),
            )
            .unwrap();
        if router.fit_predict(&history, 288).is_ok() {
            routed += 1;
        }
    }
    assert!(routed > 0, "router must serve the long-lived fleet");
}
