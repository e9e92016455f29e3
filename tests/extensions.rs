//! Integration tests for the pieces that run beside the weekly pipeline: a
//! month of weekly pipeline runs interleaved with the daily backup runner,
//! the Appendix A auto-scale policy against static allocation, and the
//! Section 5.2 class-aware model router.

use seagull::backup::{BackupScheduler, FabricPropertyStore, RunnerService, SchedulerConfig};
use seagull::core::pipeline::{AmlPipeline, PipelineConfig};
use seagull::forecast::{Forecaster, PersistentForecast, SsaForecaster};
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
    // A month of operations on a day-granular clock: the weekly pipeline
    // runs on every seventh day and the daily backup runner on every day.
    // The runner fits its own persistent forecast per cluster and reads no
    // pipeline output; the test checks that the pipeline completes all five
    // runs and that all 35 runner days keep every cluster available and
    // schedule backups.
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

    let pipeline = AmlPipeline::new(PipelineConfig::production(), store);
    let runner = RunnerService::new(BackupScheduler::new(SchedulerConfig::default()), 2);
    let fabric = FabricPropertyStore::new();
    let model = PersistentForecast::previous_day();

    let (mut pipeline_runs, mut runner_days, mut backups) = (0, 0, 0);
    for day in start..start + 35 {
        if (day - start) % 7 == 0 {
            pipeline.run_region_week(&region, day);
            pipeline_runs += 1;
        }
        let report = runner.run_day(&fleet, day, &model, &fabric);
        runner_days += 1;
        backups += report.backups.len();
        assert!((report.availability() - 1.0).abs() < 1e-9);
    }

    assert_eq!(pipeline_runs, 5);
    assert_eq!(runner_days, 35);
    assert!(backups > 0);
    assert_eq!(pipeline.docs.count("runs"), 5);
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
