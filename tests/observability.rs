//! Observability integration tests: the exported metrics must agree with
//! the resilience layer's own accounting (incident log, breaker snapshots,
//! chaos stats), and the stable export must be byte-identical across
//! same-seed runs — the property that makes obs output diffable in CI.

use seagull::core::pipeline::{AmlPipeline, PipelineConfig};
use seagull::core::resilience::BreakerState;
use seagull::core::Severity;
use seagull::obs::{export, Obs};
use seagull::telemetry::blobstore::MemoryBlobStore;
use seagull::telemetry::chaos::{ChaosBlobStore, ChaosConfig};
use seagull::telemetry::extract::LoadExtraction;
use seagull::telemetry::fleet::{FleetGenerator, FleetSpec, RegionSpec};
use seagull_bench::spans::parse_span_json_lines;
use std::sync::Arc;

/// Parse the current full Prometheus exposition and return the value of the
/// sample with `name` whose labels contain every pair in `labels`.
fn sample(obs: &Obs, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    let text = export::to_prometheus(&obs.registry().snapshot());
    let parsed = export::parse_prometheus(&text).expect("exposition parses");
    parsed
        .iter()
        .find(|s| {
            s.name == name
                && labels
                    .iter()
                    .all(|(k, v)| s.labels.get(*k).map(String::as_str) == Some(*v))
        })
        .map(|s| s.value)
}

/// A sustained outage on one region's blob slice, observed end to end: the
/// exported retry counters match the chaos store's rejection count, and the
/// breaker-state gauge transitions (Closed → Open → Closed) line up exactly
/// with the trip/recovery incidents in the incident log.
#[test]
fn outage_metrics_match_incident_log() {
    let mut spec = FleetSpec::small_region(21);
    spec.regions[0].servers = 10;
    spec.regions.push(RegionSpec {
        name: "region-b".into(),
        servers: 10,
    });
    let start = spec.start_day;
    let regions: Vec<String> = spec.regions.iter().map(|r| r.name.clone()).collect();
    let fleet = FleetGenerator::new(spec).generate_weeks(5);
    let store = Arc::new(MemoryBlobStore::new());
    let week_days: Vec<i64> = (0..5).map(|w| start + 7 * w).collect();
    LoadExtraction::columnar(5)
        .run(&fleet, &regions, &week_days, store.as_ref())
        .unwrap();

    let chaos = Arc::new(ChaosBlobStore::new(store, ChaosConfig::default()));
    let obs = Obs::new();
    let pipeline =
        AmlPipeline::new(PipelineConfig::production(), chaos.clone()).with_obs(obs.clone());
    chaos.set_outage("extracted", "region-a");

    // Three weekly failures trip region-a's breaker; region-b stays healthy.
    for week in 0..3i64 {
        let tick = start + 7 * week;
        assert!(pipeline.run_region_week("region-a", tick).blocked);
        assert!(!pipeline.run_region_week("region-b", tick).blocked);
    }
    assert_eq!(pipeline.breaker.state("region-a"), BreakerState::Open);

    let labels_a = [("region", "region-a"), ("stage", "ingestion")];
    // 3 runs x 5 ingestion attempts, all rejected by the outage.
    assert_eq!(
        sample(&obs, "seagull_retry_attempts_total", &labels_a),
        Some(15.0)
    );
    assert_eq!(sample(&obs, "seagull_retries_total", &labels_a), Some(12.0));
    assert_eq!(
        sample(&obs, "seagull_retry_exhausted_total", &labels_a),
        Some(3.0)
    );
    // The counters agree with the chaos store's own accounting.
    assert_eq!(
        chaos.stats().outage_rejections,
        sample(&obs, "seagull_retry_attempts_total", &labels_a).unwrap() as u64
    );
    // Healthy region-b burned exactly one attempt per stage per run.
    assert_eq!(
        sample(
            &obs,
            "seagull_retry_attempts_total",
            &[("region", "region-b"), ("stage", "ingestion")]
        ),
        Some(3.0)
    );
    assert_eq!(
        sample(&obs, "seagull_retries_total", &[("region", "region-b")]),
        None,
        "no retries recorded for the healthy region"
    );

    // Breaker gauges: region-a Open (2), one trip; region-b Closed (0).
    let state_a = [("region", "region-a")];
    let state_b = [("region", "region-b")];
    assert_eq!(sample(&obs, "seagull_breaker_state", &state_a), Some(2.0));
    assert_eq!(sample(&obs, "seagull_breaker_trips", &state_a), Some(1.0));
    assert_eq!(sample(&obs, "seagull_breaker_state", &state_b), Some(0.0));

    // ... and the gauge transitions match the incident log exactly: one trip
    // gauge increment == one open Critical circuit-breaker incident.
    let open_criticals = pipeline
        .incidents
        .open()
        .iter()
        .filter(|i| {
            i.source == "circuit-breaker"
                && i.region == "region-a"
                && i.severity == Severity::Critical
        })
        .count() as f64;
    assert_eq!(
        sample(&obs, "seagull_breaker_trips", &state_a),
        Some(open_criticals)
    );

    // A run inside the cooldown is rejected by the gate, not by storage:
    // the blocked counter moves, the retry counters do not.
    pipeline.run_region_week("region-a", start + 21);
    assert_eq!(
        sample(&obs, "seagull_pipeline_blocked_total", &state_a),
        Some(4.0),
        "3 ingestion blocks + 1 breaker-gate skip"
    );
    assert_eq!(
        sample(&obs, "seagull_retry_attempts_total", &labels_a),
        Some(15.0)
    );

    // Heal the slice; the half-open probe run closes the circuit. The gauge
    // returns to Closed and the log swaps Critical for the Info recovery —
    // again in lockstep.
    chaos.clear_outage("extracted", "region-a");
    let recovered = pipeline.run_region_week("region-a", start + 28);
    assert!(!recovered.blocked);
    assert_eq!(sample(&obs, "seagull_breaker_state", &state_a), Some(0.0));
    assert_eq!(sample(&obs, "seagull_breaker_trips", &state_a), Some(1.0));
    let open = pipeline.incidents.open();
    assert!(
        open.iter()
            .all(|i| !(i.source == "circuit-breaker" && i.severity == Severity::Critical)),
        "trip incident resolved when the gauge returns to Closed"
    );
    assert!(open.iter().any(|i| i.source == "circuit-breaker"
        && i.region == "region-a"
        && i.severity == Severity::Info));

    // Span trees cover every run, blocked or not: 8 region-a + 3 region-b.
    let spans = obs.tracer().spans();
    let run_spans: Vec<_> = spans.iter().filter(|s| s.name == "run-week").collect();
    assert_eq!(run_spans.len(), 8);
    assert!(run_spans
        .iter()
        .all(|s| s.parent.is_none() && s.end_tick.is_some()));
}

/// One deterministic flaky-storage run, shared by the repeatability tests.
fn seeded_run(seed: u64) -> Obs {
    let mut spec = FleetSpec::small_region(seed);
    spec.regions[0].servers = 12;
    let region = spec.regions[0].name.clone();
    let start = spec.start_day;
    let fleet = FleetGenerator::new(spec).generate_weeks(2);
    let store = Arc::new(MemoryBlobStore::new());
    LoadExtraction::columnar(5)
        .run(
            &fleet,
            std::slice::from_ref(&region),
            &[start, start + 7],
            store.as_ref(),
        )
        .unwrap();
    let chaos = Arc::new(ChaosBlobStore::new(
        store,
        ChaosConfig {
            seed,
            transient_fault_prob: 0.25,
            ..ChaosConfig::default()
        },
    ));
    let obs = Obs::new();
    let pipeline =
        AmlPipeline::new(PipelineConfig::production(), chaos.clone()).with_obs(obs.clone());
    pipeline.run_region_week(&region, start);
    pipeline.run_region_week(&region, start + 7);
    chaos.export_metrics(obs.registry());
    obs
}

/// The acceptance property: same seed ⇒ byte-identical stable export, even
/// with parallel stages, wall-clock timing, and injected storage faults in
/// the mix. Wall-time series are Volatile and excluded by construction.
#[test]
fn same_seed_stable_export_is_byte_identical() {
    let a = seeded_run(42).stable_export();
    let b = seeded_run(42).stable_export();
    assert_eq!(a, b, "stable export must be reproducible byte for byte");
    assert!(
        !a.contains("seagull_stage_wall_seconds"),
        "wall-time series are volatile and must not leak into the stable export"
    );
    assert!(
        !a.contains("\"wall_us\""),
        "span wall fields are excluded from the stable export"
    );
    // The export is not trivially empty: retries happened and were recorded.
    assert!(a.contains("seagull_retry_attempts_total"));
    assert!(a.contains("run-week"));

    // A different seed shifts the fault schedule, so the export differs —
    // the byte-equality above is not vacuous.
    assert_ne!(a, seeded_run(43).stable_export());
}

/// The full export (volatile series included) still round-trips through the
/// parsers: Prometheus text and span JSON-lines are mutually consistent.
#[test]
fn full_export_round_trips_through_parsers() {
    let obs = seeded_run(7);
    let prom = export::to_prometheus(&obs.registry().snapshot());
    let parsed = export::parse_prometheus(&prom).expect("prometheus parses");
    assert!(!parsed.is_empty());
    assert_eq!(
        parsed.len(),
        export::parse_prometheus(&export::to_prometheus(&obs.registry().snapshot()))
            .unwrap()
            .len()
    );
    let spans = obs.tracer().spans();
    let lines = export::spans_to_json_lines(&spans, export::TimeMode::Full);
    let reparsed = parse_span_json_lines(&lines).expect("spans parse");
    // Wall time serializes at microsecond precision; everything else is
    // lossless.
    let truncated: Vec<_> = spans
        .iter()
        .cloned()
        .map(|mut s| {
            s.wall = s
                .wall
                .map(|w| std::time::Duration::from_micros(w.as_micros() as u64));
            s
        })
        .collect();
    assert_eq!(reparsed, truncated, "span JSON-lines round-trip");
}
