//! Integration tests for the paper's extension features: a month of
//! operations, the weekday optimizer, the customer-window advisor, the
//! auto-scale policy, multi-signal telemetry, and the class-aware model
//! router.

use seagull::backup::{
    Advice, BackupScheduler, CustomerWindow, FabricPropertyStore, RunnerService, SchedulerConfig,
    WeekdayConfig, WeekdayOptimizer, WindowAdvisor,
};
use seagull::core::pipeline::{AmlPipeline, PipelineConfig};
use seagull::forecast::{Forecaster, PersistentForecast, SsaForecaster};
use seagull::telemetry::blobstore::MemoryBlobStore;
use seagull::telemetry::extract::LoadExtraction;
use seagull::telemetry::fleet::{FleetGenerator, FleetSpec};
use seagull::telemetry::signals::{SignalGenerator, SignalKind};
use seagull::timeseries::Timestamp;
use seagull_bench::autoscale::{
    evaluate_policy, sql_fleet_spec, AutoscalePolicy, SizingMode, SkuLadder,
};
use seagull_bench::zoo::ClassAwareForecaster;
use std::sync::Arc;

#[test]
fn clock_driven_month_of_operations() {
    // A month of operations on a day-granular clock: the weekly pipeline
    // runs before the daily backup runner on its day, so fresh predictions
    // exist when the runner consumes them, as production sequences them.
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
fn weekday_optimizer_never_worsens_predicted_load() {
    let mut spec = FleetSpec::small_region(62);
    spec.regions[0].servers = 60;
    let start = spec.start_day;
    let fleet = FleetGenerator::new(spec).generate_weeks(6);
    let opt = WeekdayOptimizer::new(
        BackupScheduler::new(SchedulerConfig::default()),
        WeekdayConfig::default(),
    );
    let model = PersistentForecast::previous_day();
    let plans = opt.plan_week(&fleet, start + 35, &model, 2);
    assert_eq!(plans.len(), fleet.len());
    for p in &plans {
        if p.moved() {
            let due = p.due_window_load.unwrap_or(f64::INFINITY);
            assert!(p.chosen_window_load.unwrap() < due);
        }
        // Every plan's backup lands on its chosen day.
        assert_eq!(p.backup.backup_day, p.chosen_day);
    }
}

#[test]
fn advisor_respects_predictability_gate() {
    let mut spec = FleetSpec::small_region(63);
    spec.regions[0].servers = 40;
    let start = spec.start_day;
    let fleet = FleetGenerator::new(spec).generate_weeks(5);
    let advisor = WindowAdvisor::new(BackupScheduler::new(SchedulerConfig::default()));
    let model = PersistentForecast::previous_day();
    let mut verdicts = (0usize, 0usize, 0usize, 0usize); // keep/suggest/unpredictable/unevaluable
    for server in &fleet {
        if !server.meta.alive_on(start + 30) {
            continue;
        }
        let advice = advisor.advise(
            server,
            CustomerWindow {
                server_id: server.meta.id.0,
                start_minute: 600,
            },
            start + 30,
            &model,
        );
        match advice.advice {
            Advice::KeepCurrent { .. } => verdicts.0 += 1,
            Advice::Suggest { .. } => verdicts.1 += 1,
            Advice::NotPredictable => verdicts.2 += 1,
            Advice::NotEvaluable => verdicts.3 += 1,
        }
    }
    // A mostly-stable fleet: most customers keep their window; short-lived
    // and unstable servers must land in NotPredictable, never Suggest.
    assert!(verdicts.0 > 0, "some keeps: {verdicts:?}");
    assert!(verdicts.2 > 0, "some unpredictable: {verdicts:?}");
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
fn signals_extend_every_server() {
    let mut spec = FleetSpec::small_region(65);
    spec.regions[0].servers = 10;
    let start = spec.start_day;
    let fleet = FleetGenerator::new(spec).generate_weeks(1);
    let _ = start;
    for server in &fleet {
        let Some(day) = server.series.first_full_day() else {
            continue;
        };
        let gen = SignalGenerator::new(server.shape, server.meta.id.0);
        for kind in SignalKind::ALL {
            let s = gen.series(kind, Timestamp::from_days(day), 5, 288);
            assert_eq!(s.len(), 288);
            assert!(s.values().iter().all(|v| v.is_finite() && *v >= 0.0));
        }
        // The CPU signal is exactly the stored telemetry.
        let cpu = gen.series(SignalKind::Cpu, Timestamp::from_days(day), 5, 288);
        assert_eq!(cpu.values(), server.series.day_values(day).unwrap());
    }
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
