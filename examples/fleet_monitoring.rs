//! Monitoring and self-healing: the dashboard, incident management, and the
//! last-known-good fallback — under injected failures.
//!
//! Demonstrates Section 1's "SEAGULL continually re-evaluates accuracy of
//! predictions, fallback to previously known good models and triggers alerts
//! as appropriate": a failed deploy keeps the region's served snapshot, and
//! the failure raises a Critical. Run with
//! `cargo run --release --example fleet_monitoring`.

use seagull::core::dashboard;
use seagull::core::pipeline::{AmlPipeline, PipelineConfig};
use seagull::core::resilience::StageChaos;
use seagull::core::Severity;
use seagull::serve::ServeService;
use seagull::telemetry::blobstore::{Blob, BlobKey, BlobStore, MemoryBlobStore};
use seagull::telemetry::extract::LoadExtraction;
use seagull::telemetry::fleet::{FleetGenerator, FleetSpec};
use std::sync::Arc;

fn main() {
    let mut spec = FleetSpec::small_region(23);
    spec.regions[0].servers = 60;
    let region = spec.regions[0].name.clone();
    let start = spec.start_day;
    let fleet = FleetGenerator::new(spec).generate_weeks(3);

    let store = Arc::new(MemoryBlobStore::new());
    let weeks: Vec<i64> = (0..3).map(|w| start + 7 * w).collect();
    LoadExtraction::columnar(5)
        .run(
            &fleet,
            std::slice::from_ref(&region),
            &weeks,
            store.as_ref(),
        )
        .expect("extraction succeeds");

    // Garble week 3's blob: bytes that are no region-week, which ingestion
    // must refuse (and not retry).
    store
        .put(
            &BlobKey::extracted(&region, weeks[2]),
            Blob::from(&b"\x00garbled: not a region-week blob"[..]),
        )
        .expect("store accepts the bad blob");

    // Week 2's model deployment fails on every attempt.
    let bad_week = weeks[1];
    let serve = ServeService::with_defaults();
    let pipeline = AmlPipeline::new(PipelineConfig::production(), store)
        .with_chaos(StageChaos::from_fn(move |stage, _, tick, _| {
            stage == "deployment" && tick == bad_week
        }))
        .with_deploy_sink(Arc::new(serve.clone()));

    for &week in &weeks {
        let report = pipeline.run_region_week(&region, week);
        println!(
            "week {week}: blocked={} servers={} anomalies={} predictions={}",
            report.blocked, report.servers, report.anomalies, report.predictions_written
        );
    }
    // A pipeline run over a region with no data at all.
    pipeline.run_region_week("ghost-region", weeks[0]);

    // The fallback: the failed deploy published nothing, so the region
    // still serves week 1's snapshot, the version the registry names.
    let snapshot = serve.snapshot(&region).expect("week 1 deployed");
    let registered = pipeline
        .registry
        .deployed(&region)
        .expect("week 1 deployed");
    println!(
        "\nserving v{} (trained on week {}); registry: v{}",
        snapshot.version(),
        snapshot.week_start_day(),
        registered.version
    );

    // The operator view.
    println!(
        "\n{}",
        dashboard::render(&pipeline.docs, &pipeline.incidents)
    );
    println!("open critical incidents:");
    for i in pipeline.incidents.open() {
        if i.severity == Severity::Critical {
            println!("  #{} [{}] {}: {}", i.id, i.region, i.source, i.message);
        }
    }
}
