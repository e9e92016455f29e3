//! Fault-injection coverage for the columnar ingest path: a torn read of a
//! columnar blob must surface as a checksum failure — a retryable transient
//! stage error — and never as a silently truncated batch or a quarantined
//! poison server.

use seagull_core::incident::Severity;
use seagull_core::pipeline::{collections, AmlPipeline, PipelineConfig};
use seagull_telemetry::blobstore::{BlobKey, BlobStore, MemoryBlobStore};
use seagull_telemetry::chaos::{ChaosBlobStore, ChaosConfig};
use seagull_telemetry::columnar::ColumnarError;
use seagull_telemetry::extract::{LoadExtraction, RegionWeekBatch, RegionWeekError};
use seagull_telemetry::fleet::{FleetGenerator, FleetSpec, ServerTelemetry};
use seagull_telemetry::frame::FrameError;
use std::sync::Arc;

fn columnar_store(servers: usize, seed: u64) -> (Arc<MemoryBlobStore>, i64, Vec<ServerTelemetry>) {
    let mut spec = FleetSpec::small_region(seed);
    spec.regions[0].servers = servers;
    let start = spec.start_day;
    let fleet = FleetGenerator::new(spec).generate_weeks(1);
    let store = Arc::new(MemoryBlobStore::new());
    LoadExtraction::columnar(5)
        .run(&fleet, &["region-a".into()], &[start], store.as_ref())
        .unwrap();
    (store, start, fleet)
}

/// Every torn read either fails the decode loudly or returns the full batch —
/// a truncated blob can never decode to a *shorter* valid batch.
#[test]
fn torn_columnar_read_fails_checksum_never_truncates() {
    let (inner, start, _fleet) = columnar_store(12, 23);
    let key = BlobKey::extracted("region-a", start);
    let full = match RegionWeekBatch::decode(&inner.get(&key).unwrap()).unwrap() {
        RegionWeekBatch::Columnar(batch) => batch.len(),
        other => panic!("expected columnar blob, got {:?}", other.format()),
    };
    assert!(full > 0);

    let chaos = ChaosBlobStore::new(
        inner,
        ChaosConfig {
            seed: 5,
            torn_read_prob: 0.7,
            ..ChaosConfig::default()
        },
    );
    let mut checksum_failures = 0;
    let mut clean_reads = 0;
    for _ in 0..40 {
        let blob = chaos.get(&key).unwrap();
        match RegionWeekBatch::decode(&blob) {
            Ok(RegionWeekBatch::Columnar(batch)) => {
                assert_eq!(batch.len(), full, "decode must be all-or-nothing");
                clean_reads += 1;
            }
            Ok(RegionWeekBatch::Csv(_)) => panic!("torn columnar blob sniffed as CSV rows"),
            Err(RegionWeekError::Columnar(ColumnarError::Frame(
                FrameError::ChecksumMismatch { .. },
            ))) => {
                checksum_failures += 1;
            }
            // Cuts inside the header/footer or before the magic fail with
            // other structural errors; any loud failure is acceptable.
            Err(_) => {}
        }
    }
    assert!(chaos.stats().torn_reads > 0, "schedule never tore a read");
    assert!(clean_reads > 0, "some reads must come back whole");
    assert!(
        checksum_failures > 0,
        "torn blobs must be rejected by the checksum footer"
    );
}

/// The pipeline retries a torn columnar read via its resilience policy and
/// completes the run; nothing lands in the dead-letter quarantine.
#[test]
fn pipeline_retries_torn_columnar_read() {
    let (inner, start, _fleet) = columnar_store(12, 23);
    let chaos = Arc::new(ChaosBlobStore::new(
        inner,
        ChaosConfig {
            seed: 40,
            torn_read_prob: 0.5,
            ..ChaosConfig::default()
        },
    ));
    let pipeline = AmlPipeline::new(PipelineConfig::production(), chaos.clone());
    let report = pipeline.run_region_week("region-a", start);

    assert!(chaos.stats().torn_reads > 0, "schedule never tore a read");
    assert!(!report.blocked, "torn read must be retried, not fatal");
    assert!(report.servers > 0);
    assert!(report.predictions_written > 0);
    let degraded = report.degraded.expect("retries must be recorded");
    assert!(
        degraded.retries.get("ingestion").copied().unwrap_or(0) >= 1,
        "ingestion must retry the checksum failure: {degraded:?}"
    );
    assert!(degraded.exhausted_stages.is_empty());
    // A transient decode failure is not poison input: the quarantine stays
    // empty and no critical incident is raised.
    assert_eq!(pipeline.docs.count(collections::DEAD_LETTER), 0);
    assert_eq!(pipeline.incidents.open_count(Severity::Critical), 0);
}
