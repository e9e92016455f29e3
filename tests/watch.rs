//! Watchtower integration tests: the full observability loop over a seeded
//! fleet — SLO breach → burn-rate alert → incident → recovery → alert
//! clear — plus staleness alerting under repeated deploy failures and the
//! deployment-accuracy series populated from served-vs-actual scoring.

use seagull::core::pipeline::{AmlPipeline, PipelineConfig};
use seagull::core::resilience::StageChaos;
use seagull::core::{IncidentManager, Severity};
use seagull::obs::Obs;
use seagull::serve::ServeService;
use seagull::telemetry::blobstore::{BlobStore, MemoryBlobStore};
use seagull::telemetry::extract::LoadExtraction;
use seagull::telemetry::fleet::{FleetGenerator, FleetSpec, RegionSpec, ServerTelemetry};
use seagull::watch::{AccuracyMonitor, BurnRatePair, SloSpec, WatchEngine, WatchReport};
use std::sync::Arc;

/// Two regions, `weeks` weeks of telemetry, extracted into a shared store.
fn two_region_store(seed: u64, weeks: usize) -> (Arc<MemoryBlobStore>, Vec<String>, Vec<i64>) {
    let mut spec = FleetSpec::small_region(seed);
    spec.regions[0].servers = 8;
    spec.regions.push(RegionSpec {
        name: "region-b".into(),
        servers: 8,
    });
    let start = spec.start_day;
    let regions: Vec<String> = spec.regions.iter().map(|r| r.name.clone()).collect();
    let fleet: Vec<ServerTelemetry> = FleetGenerator::new(spec).generate_weeks(weeks);
    let store = Arc::new(MemoryBlobStore::new());
    let week_days: Vec<i64> = (0..weeks as i64).map(|w| start + 7 * w).collect();
    LoadExtraction::columnar(5)
        .run(&fleet, &regions, &week_days, store.as_ref())
        .unwrap();
    (store, regions, week_days)
}

/// The paging pair alone, so recovery inside the test window can drain
/// every alerting window (the slow 6h/3d pair is exercised in unit tests).
fn fast_pair_only() -> Vec<BurnRatePair> {
    vec![BurnRatePair {
        name: "fast",
        long: 60,
        short: 5,
        factor: 14.4,
        severity: Severity::Critical,
    }]
}

/// The acceptance loop: a fleet schedule deploys snapshots and feeds the
/// accuracy monitor; a seeded regional outage on the serving path breaches
/// the error-rate SLO, the burn-rate alert fires a Critical incident for
/// exactly the broken region, recovery clears it, and the watch report
/// carries the deployment-accuracy series the pipeline scored.
#[test]
fn regional_outage_drives_breach_alert_incident_recovery_clear() {
    let (store, regions, week_days) = two_region_store(0x5ea9, 3);

    // Pipeline → serve (deploy sink) + accuracy monitor (accuracy sink).
    let serve = ServeService::with_defaults();
    let monitor = Arc::new(AccuracyMonitor::default());
    let pipeline = AmlPipeline::new(
        PipelineConfig {
            threads: 2,
            warm_cache: true,
            ..PipelineConfig::production()
        },
        Arc::clone(&store) as Arc<dyn BlobStore>,
    )
    .with_deploy_sink(Arc::new(serve.clone()))
    .with_accuracy_sink(Arc::clone(&monitor) as Arc<_>);
    pipeline.run_schedule(&regions, &week_days);

    // Served-vs-actual scoring populated the accuracy series: week 1 has no
    // prior predictions to score, weeks 2 and 3 do.
    for region in &regions {
        let trend = monitor.trend(region);
        assert_eq!(
            trend.len(),
            2,
            "{region}: two scored weeks expected, got {trend:?}"
        );
    }

    // Watch engine over the pipeline's incident log (shared handle).
    let mut engine =
        WatchEngine::new(Obs::new(), pipeline.incidents.clone()).with_pairs(fast_pair_only());
    engine.add_slo(SloSpec::error_rate("serve-errors", 0.99).with_window(120));
    let valid: Vec<u64> = regions
        .iter()
        .map(|r| {
            serve
                .snapshot(r)
                .expect("schedule published snapshots")
                .server_ids()
                .next()
                .expect("snapshot non-empty")
        })
        .collect();

    // 240 virtual minutes of traffic; region-a's queries go dark (unknown
    // server id — every request errors) for minutes 61..=120.
    let mut fired_at = None;
    let mut cleared_at = None;
    for tick in 1..=240u64 {
        for (r, region) in regions.iter().enumerate() {
            let outage = region == "region-a" && (61..=120).contains(&tick);
            let server = if outage { u64::MAX } else { valid[r] };
            let (mut good, mut bad) = (0, 0);
            for q in 0..4 {
                let horizon = 1 + ((tick + q) % 48) as usize;
                match serve.predict(region, server, horizon) {
                    Ok(_) => good += 1,
                    Err(_) => bad += 1,
                }
            }
            assert_eq!(good + bad, 4);
            engine.record("serve-errors", region, tick, good, bad);
        }
        for t in engine.evaluate(tick) {
            assert_eq!(t.region, "region-a", "only the broken region alerts");
            assert_eq!(t.pair, "fast");
            if t.fired {
                assert!(fired_at.is_none(), "alert must fire exactly once");
                fired_at = Some(tick);
            } else {
                assert!(fired_at.is_some());
                cleared_at = Some(tick);
            }
        }
        // While the alert is open, the incident log holds the Critical and
        // the region's health gauge is down.
        if fired_at.is_some() && cleared_at.is_none() {
            assert!(pipeline
                .incidents
                .open()
                .iter()
                .any(|i| i.source == "slo:serve-errors:fast"
                    && i.region == "region-a"
                    && i.severity == Severity::Critical));
        }
    }
    let fired_at = fired_at.expect("burn-rate alert fired");
    let cleared_at = cleared_at.expect("burn-rate alert cleared");
    assert!(
        (61..=130).contains(&fired_at),
        "fired at {fired_at}, expected during the outage"
    );
    assert!(cleared_at > 120, "cleared at {cleared_at}, after recovery");
    assert!(engine.open_alerts().is_empty());
    assert!(
        !pipeline
            .incidents
            .open()
            .iter()
            .any(|i| i.source.starts_with("slo:")),
        "slo incidents all resolved"
    );
    // The incident was deduped: one fast-pair incident total, raised once.
    let slo_incidents: Vec<_> = pipeline
        .incidents
        .all()
        .into_iter()
        .filter(|i| i.source == "slo:serve-errors:fast")
        .collect();
    assert_eq!(slo_incidents.len(), 1);
    assert_eq!(slo_incidents[0].count, 1);
    let healthy = engine
        .obs()
        .registry()
        .gauge("seagull_watch_region_healthy", &[("region", "region-a")])
        .get();
    assert_eq!(healthy, 1.0, "region-a healthy again after recovery");

    // Accuracy sweep lands gauges in the watch registry and the report
    // carries every section.
    monitor.sweep(engine.obs(), engine.incidents(), Some(&pipeline.cache));
    let report = WatchReport::collect(&engine, Some(&monitor), 240);
    assert_eq!(report.slos.len(), 2, "one SLO x two regions");
    assert!(report.alerts.is_empty());
    assert_eq!(report.accuracy.len(), 2);
    assert!(report.accuracy.iter().all(|a| !a.trend.is_empty()));
    let json = report.to_json();
    assert!(json.contains("serve-errors"));
    assert!(json.contains("region-a"));
}

/// Satellite: repeated deploy failures age the serving snapshot past the
/// staleness SLO — exactly one deduped incident is raised, and the next
/// successful deploy (plus a clean window) clears it.
#[test]
fn staleness_under_delayed_deploys_raises_one_incident_then_clears() {
    let mut spec = FleetSpec::small_region(0xdead);
    spec.regions[0].servers = 8;
    let region = spec.regions[0].name.clone();
    let start = spec.start_day;
    let week_days: Vec<i64> = (0..4).map(|w| start + 7 * w).collect();
    let fleet: Vec<ServerTelemetry> = FleetGenerator::new(spec).generate_weeks(4);
    let store = Arc::new(MemoryBlobStore::new());
    LoadExtraction::columnar(5)
        .run(
            &fleet,
            std::slice::from_ref(&region),
            &week_days,
            store.as_ref(),
        )
        .unwrap();

    // Chaos: the deployment stage hard-fails for weeks 2 and 3 (the hook's
    // tick is the week start day), so the week-1 snapshot keeps serving.
    let (bad1, bad2) = (week_days[1], week_days[2]);
    let serve = ServeService::with_defaults();
    let pipeline = AmlPipeline::new(
        PipelineConfig::production(),
        Arc::clone(&store) as Arc<dyn BlobStore>,
    )
    .with_chaos(StageChaos::from_fn(move |stage, _, tick, _| {
        stage == "deployment" && (tick == bad1 || tick == bad2)
    }))
    .with_deploy_sink(Arc::new(serve.clone()));

    // Staleness SLO on a day-granular clock: snapshot at most 14 days old
    // for 90% of observations; a one-week alert window.
    let mut engine =
        WatchEngine::new(Obs::new(), IncidentManager::new()).with_pairs(vec![BurnRatePair {
            name: "staleness-burn",
            long: 7,
            short: 2,
            factor: 1.0,
            severity: Severity::Critical,
        }]);
    engine.add_slo(SloSpec::staleness_under("snapshot-fresh", 14, 0.9).with_window(7));

    // Day loop: each week's run happens once its telemetry is complete
    // (week start + 7); every day observes staleness and evaluates.
    let mut week = 0;
    for day in start..=start + 35 {
        if week < week_days.len() && day == week_days[week] + 7 {
            pipeline.run_region_week(&region, week_days[week]);
            week += 1;
        }
        serve.set_clock_day(day);
        let tick = (day - start + 1) as u64;
        // Staleness is only meaningful once a snapshot exists (first deploy
        // lands at start + 7).
        if let Some(staleness) = serve.staleness_days(&region) {
            engine.observe_staleness("snapshot-fresh", &region, tick, staleness);
        }
        engine.evaluate(tick);
    }
    assert_eq!(week, 4, "all four weeks ran");

    // Two failed deploys kept last-known-good...
    assert_eq!(
        serve
            .obs()
            .registry()
            .counter(
                "seagull_serve_fallback_kept_total",
                &[("region", region.as_str())]
            )
            .get(),
        2
    );
    // ...week 4's successful deploy refreshed the snapshot...
    assert_eq!(
        serve.snapshot(&region).unwrap().week_start_day(),
        week_days[3]
    );
    // ...and the staleness breach raised exactly one deduped incident,
    // now resolved.
    let staleness_incidents: Vec<_> = engine
        .incidents()
        .all()
        .into_iter()
        .filter(|i| i.source == "slo:snapshot-fresh:staleness-burn")
        .collect();
    assert_eq!(
        staleness_incidents.len(),
        1,
        "exactly one staleness incident: {staleness_incidents:?}"
    );
    assert_eq!(staleness_incidents[0].count, 1, "deduped, raised once");
    assert_eq!(staleness_incidents[0].region, region);
    assert!(engine.open_alerts().is_empty(), "cleared after recovery");
    assert_eq!(engine.incidents().open_total(), 0);
}
