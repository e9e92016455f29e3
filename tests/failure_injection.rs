//! Failure-injection integration tests: the robustness properties Section 1
//! claims ("SEAGULL continually re-evaluates accuracy of predictions,
//! fallback to previously known good models and triggers alerts as
//! appropriate") exercised under adversarial input.

use seagull::core::pipeline::{
    collections, AccuracyDoc, AmlPipeline, DeadLetterDoc, GateState, PipelineConfig, PredictionDoc,
};
use seagull::core::resilience::{BreakerState, StageChaos};
use seagull::core::Severity;
use seagull::forecast::{FittedModel, ForecastError, Forecaster, PersistentForecast};
use seagull::serve::ServeService;
use seagull::telemetry::blobstore::{Blob, BlobKey, BlobStore, MemoryBlobStore};
use seagull::telemetry::chaos::{ChaosBlobStore, ChaosConfig};
use seagull::telemetry::columnar::{ColumnarBatch, COLUMNAR_MAGIC, COLUMNAR_VERSION};
use seagull::telemetry::extract::LoadExtraction;
use seagull::telemetry::fleet::{FleetGenerator, FleetSpec, RegionSpec, ServerTelemetry};
use seagull::telemetry::frame::{self, FOOTER_LEN, HEADER_LEN};
use seagull::telemetry::record::{LoadRecord, RecordBatch};
use seagull::telemetry::server::ServerId;
use seagull::timeseries::TimeSeries;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn fleet_and_store(
    servers: usize,
    weeks: usize,
    seed: u64,
) -> (Vec<ServerTelemetry>, Arc<MemoryBlobStore>, String, i64) {
    let mut spec = FleetSpec::small_region(seed);
    spec.regions[0].servers = servers;
    let region = spec.regions[0].name.clone();
    let start = spec.start_day;
    let fleet = FleetGenerator::new(spec).generate_weeks(weeks);
    let store = Arc::new(MemoryBlobStore::new());
    let week_days: Vec<i64> = (0..weeks as i64).map(|w| start + 7 * w).collect();
    LoadExtraction::columnar(5)
        .run(
            &fleet,
            std::slice::from_ref(&region),
            &week_days,
            store.as_ref(),
        )
        .unwrap();
    (fleet, store, region, start)
}

/// Rewrites the stored region-week as the `SGCB` blob of its CSV rows after
/// `poison` has edited them.
fn poison_week(
    fleet: &[ServerTelemetry],
    store: &MemoryBlobStore,
    region: &str,
    start: i64,
    poison: impl FnOnce(&mut [LoadRecord]),
) {
    let mut rows = LoadExtraction::columnar(5).extract_week(fleet, region, start);
    poison(&mut rows.records);
    let blob = ColumnarBatch::from_records(&rows, 5).encode();
    store.put(&BlobKey::extracted(region, start), blob).unwrap();
}

/// One region-week blob holding every block of `a`, then every block of `b`.
/// Extraction writes one grid per blob; a blob with two is spliced here from
/// what every body is — a block count, one table entry of a fixed size per
/// block, then the value column in block order. The sizes are measured off
/// blobs the codec writes, and the header and count are copied from one, so
/// the splice knows no field of the layout.
fn merged(a: &[u8], b: &[u8]) -> Blob {
    let blob_of = |servers: u64, points: i64| {
        let rows = (1..=servers).flat_map(|id| server_rows(id, 0, 5, points, (0, 60)).records);
        ColumnarBatch::from_records(&RecordBatch::new(rows.collect()), 5).encode()
    };
    let size = |servers, points| blob_of(servers, points).len();
    // A block more costs an entry and its point, a point more only a point.
    let entry = (size(2, 1) - size(1, 1)) - (size(1, 2) - size(1, 1));
    // An empty blob is the frame's header, the count and its footer.
    let table_at = size(0, 0) - FOOTER_LEN;
    let split = |blob| {
        let blocks = ColumnarBatch::decode(blob).unwrap().len();
        let body = &blob[table_at..blob.len() - FOOTER_LEN];
        (blocks, body.split_at(entry * blocks))
    };
    let ((count_a, (table_a, column_a)), (count_b, (table_b, column_b))) = (split(a), split(b));
    let counted = blob_of((count_a + count_b) as u64, 1);
    let mut framed = counted[..table_at].to_vec();
    for part in [table_a, table_b, column_a, column_b] {
        framed.extend_from_slice(part);
    }
    frame::seal(framed)
}

/// `rows` rows of server `id`, `step` minutes apart from `first`, with the
/// backup window `(start, end)`.
fn server_rows(id: u64, first: i64, step: i64, rows: i64, window: (i64, i64)) -> RecordBatch {
    RecordBatch::new(
        (0..rows)
            .map(|i| LoadRecord {
                server_id: ServerId(id),
                timestamp_min: first + step * i,
                avg_cpu: 20.0 + (i % 12) as f64,
                default_backup_start: window.0,
                default_backup_end: window.1,
            })
            .collect(),
    )
}

/// The validation incidents raised for anomalies of `kind`.
fn validation_incidents(pipeline: &AmlPipeline, kind: &str) -> usize {
    let all = pipeline.incidents.all();
    all.iter()
        .filter(|i| i.source == "validation" && i.message.starts_with(kind))
        .count()
}

/// All documents of one collection, sorted by id.
fn docs(p: &AmlPipeline, collection: &str) -> Vec<(String, serde_json::Value)> {
    let mut ids = p.docs.ids(collection);
    ids.sort();
    ids.into_iter()
        .map(|id| {
            let v: serde_json::Value = p.docs.get(collection, &id).unwrap();
            (id, v)
        })
        .collect()
}

#[test]
fn nan_telemetry_raises_warnings_but_does_not_block() {
    let (fleet, store, region, start) = fleet_and_store(20, 1, 10);
    // NaN is the missing-bucket marker on the wire; ±∞ is the non-finite
    // load a broken collector writes.
    poison_week(&fleet, &store, &region, start, |rows| {
        for (i, r) in rows.iter_mut().take(5).enumerate() {
            r.avg_cpu = [f64::INFINITY, f64::NEG_INFINITY][i % 2];
        }
    });

    let pipeline = AmlPipeline::new(PipelineConfig::production(), store);
    let report = pipeline.run_region_week(&region, start);
    assert!(
        !report.blocked,
        "non-finite loads are flagged, not blocking"
    );
    assert_eq!(validation_incidents(&pipeline, "NonFiniteValue"), 5);
    assert!(pipeline.incidents.open_count(Severity::Warning) > 0);
    assert!(report.predictions_written > 0, "pipeline still predicts");
}

#[test]
fn out_of_bound_values_are_flagged() {
    let (fleet, store, region, start) = fleet_and_store(10, 1, 11);
    poison_week(&fleet, &store, &region, start, |rows| {
        rows[0].avg_cpu = 250.0; // impossible CPU percentage
        rows[1].avg_cpu = -40.0;
    });

    let pipeline = AmlPipeline::new(PipelineConfig::production(), store);
    let report = pipeline.run_region_week(&region, start);
    assert!(report.anomalies >= 2);
    assert_eq!(validation_incidents(&pipeline, "BoundViolation"), 2);
    assert!(!report.blocked);
}

#[test]
fn off_grid_and_invalid_window_blocks_are_flagged() {
    let store = Arc::new(MemoryBlobStore::new());
    let region = "inj";
    let start = 18_004i64;
    let base = start * 1440;
    let inverted = server_rows(1, base, 5, 3, (base + 60, base));
    let ten_minute = server_rows(2, base, 10, 3, (base, base + 60));
    let blob = merged(
        &ColumnarBatch::from_records(&inverted, 5).encode(),
        &ColumnarBatch::from_records(&ten_minute, 10).encode(),
    );
    store.put(&BlobKey::extracted(region, start), blob).unwrap();
    let pipeline = AmlPipeline::new(PipelineConfig::production(), store);
    let report = pipeline.run_region_week(region, start);
    assert!(report.anomalies >= 2, "anomalies {}", report.anomalies);
    assert_eq!(validation_incidents(&pipeline, "InvalidBackupWindow"), 1);
    assert_eq!(validation_incidents(&pipeline, "OffGridTimestamp"), 1);
}

/// A region-week whose every block is on another grid than the pipeline's
/// leaves the run no server: each block raises its off-grid warning, then
/// one critical `EmptyInput` blocks the run.
#[test]
fn week_with_no_block_on_the_grid_is_blocked() {
    let store = Arc::new(MemoryBlobStore::new());
    let region = "off-grid";
    let start = 18_004i64;
    let base = start * 1440;
    let rows = [1, 2].map(|id| server_rows(id, base, 10, 3, (base, base + 60)).records);
    let blob = ColumnarBatch::from_records(&RecordBatch::new(rows.concat()), 10).encode();
    store.put(&BlobKey::extracted(region, start), blob).unwrap();
    let pipeline = AmlPipeline::new(PipelineConfig::production(), store);
    let report = pipeline.run_region_week(region, start);
    assert!(report.blocked);
    assert_eq!((report.servers, report.anomalies), (0, 3));
    assert_eq!(report.predictions_written, 0);
    let raised: Vec<(Severity, String)> = pipeline
        .incidents
        .all()
        .into_iter()
        .filter(|i| i.source == "validation")
        .map(|i| (i.severity, i.message))
        .collect();
    let off_grid = |id| format!("OffGridTimestamp {{ server_id: {id}, timestamp_min: {base} }}");
    assert_eq!(
        raised,
        vec![
            (Severity::Warning, off_grid(1)),
            (Severity::Warning, off_grid(2)),
            (Severity::Critical, "EmptyInput".to_string()),
        ]
    );
}

/// A blob's default backup window may lie outside its week: the server's
/// backup day is that window's weekday inside the week. A window two days
/// before the week still has the run predict next week's backup day, next
/// week's run score that prediction, and the server's gate count down.
#[test]
fn default_window_before_its_week_is_predicted_and_scored() {
    let store = Arc::new(MemoryBlobStore::new());
    let region = "calendar";
    let start = 18_004i64;
    for week in [start, start + 7] {
        let window = (week - 2) * 1440 + 600;
        let rows = server_rows(1, week * 1440, 5, 7 * 288, (window, window + 60));
        let blob = ColumnarBatch::from_records(&rows, 5).encode();
        store.put(&BlobKey::extracted(region, week), blob).unwrap();
    }
    let pipeline = AmlPipeline::new(PipelineConfig::production(), store);
    let first = pipeline.run_region_week(region, start);
    assert_eq!(
        first.predictions_written,
        1,
        "the run predicts day {}",
        start + 12
    );
    let second = pipeline.run_region_week(region, start + 7);
    assert_eq!(second.evaluations, 1, "next week's run scores it");
    let id = format!("{region}/1/{}", start + 12);
    let scored: AccuracyDoc = pipeline.docs.get(collections::ACCURACY, &id).unwrap();
    assert!(scored.window_correct && scored.load_accurate);
    let id = PredictionDoc::doc_id(region, 1, start + 19);
    let next: PredictionDoc = pipeline.docs.get(collections::PREDICTIONS, &id).unwrap();
    assert_eq!(next.gate, GateState::CLOSED.next(Some(true)));
}

/// A checksum-valid block on another grid than the pipeline's is reported
/// and left out of the run: a 10-minute server beside 5-minute siblings
/// raises one off-grid anomaly and gets no features and no prediction, and
/// every sibling document is what a run without it writes.
#[test]
fn block_on_another_grid_is_reported_and_left_out() {
    let (_, store, region, start) = fleet_and_store(12, 1, 19);
    let key = BlobKey::extracted(&region, start);
    let clean = AmlPipeline::new(
        PipelineConfig::production(),
        Arc::clone(&store) as Arc<dyn BlobStore>,
    );
    let clean_report = clean.run_region_week(&region, start);
    assert!(!clean_report.blocked && clean_report.predictions_written > 0);

    let base = start * 1440;
    let week = server_rows(999, base, 10, 7 * 144, (base + 1440, base + 1500));
    let ten_minute = ColumnarBatch::from_records(&week, 10).encode();
    store
        .put(&key, merged(&store.get(&key).unwrap(), &ten_minute))
        .unwrap();
    let pipeline = AmlPipeline::new(PipelineConfig::production(), store);
    let report = pipeline.run_region_week(&region, start);

    assert!(!report.blocked);
    assert_eq!(report.servers, clean_report.servers);
    assert_eq!(report.anomalies, clean_report.anomalies + 1);
    assert_eq!(
        validation_incidents(&pipeline, "OffGridTimestamp { server_id: 999,"),
        1
    );
    for collection in [collections::FEATURES, collections::PREDICTIONS] {
        let written = docs(&pipeline, collection);
        assert!(
            written
                .iter()
                .all(|(id, _)| !id.starts_with(&format!("{region}/999/"))),
            "the 10-minute server has a {collection} doc"
        );
        assert_eq!(written, docs(&clean, collection), "{collection} moved");
    }
}

/// A forecaster that always fails: the pipeline must degrade gracefully
/// (no predictions, no panic) rather than crash the run.
struct BrokenModel;

impl Forecaster for BrokenModel {
    fn name(&self) -> &'static str {
        "broken"
    }
    fn fit(&self, _history: &TimeSeries) -> Result<Box<dyn FittedModel>, ForecastError> {
        Err(ForecastError::Numerical("injected failure".into()))
    }
}

#[test]
fn failing_model_degrades_gracefully() {
    let (_, store, region, start) = fleet_and_store(15, 1, 12);
    let config = PipelineConfig {
        forecaster: Arc::new(BrokenModel),
        ..PipelineConfig::production()
    };
    let pipeline = AmlPipeline::new(config, store);
    let report = pipeline.run_region_week(&region, start);
    assert!(!report.blocked, "a broken model is not a blocked run");
    assert_eq!(report.predictions_written, 0);
    // The run is still recorded and its (empty) deploy still registers a
    // version.
    assert_eq!(pipeline.docs.count(collections::RUNS), 1);
    assert!(pipeline.registry.deployed(&region).is_some());
}

#[test]
fn header_only_blob_blocks_with_empty_input_anomaly() {
    let store = Arc::new(MemoryBlobStore::new());
    let region = "empty";
    let start = 18_004i64;
    store
        .put(
            &BlobKey::extracted(region, start),
            ColumnarBatch::from_records(&RecordBatch::default(), 5).encode(),
        )
        .unwrap();
    let pipeline = AmlPipeline::new(PipelineConfig::production(), store);
    let report = pipeline.run_region_week(region, start);
    assert!(report.blocked);
    assert!(pipeline.incidents.open_count(Severity::Critical) >= 1);
}

/// Three bytes that are no frame: refused as foreign, not retried.
#[test]
fn truncated_blob_blocks_at_ingestion() {
    let store = Arc::new(MemoryBlobStore::new());
    let region = "garbled";
    let start = 18_004i64;
    store
        .put(
            &BlobKey::extracted(region, start),
            Blob::from(&[0xff, 0x00, 0x12][..]),
        )
        .unwrap();
    let pipeline = AmlPipeline::new(PipelineConfig::production(), store);
    let report = pipeline.run_region_week(region, start);
    assert!(report.blocked);
    assert_eq!(report.servers, 0);
    assert_eq!(report.total_retries(), 0);
}

/// An intact blob this build does not read — here an `SGCB` from a newer
/// writer — blocks ingestion on its first attempt with a Critical and is no
/// infrastructure signal: three weeks of it leave the region's breaker
/// closed, where three unreadable weeks of a torn or unreachable slice trip
/// it at the default threshold.
#[test]
fn foreign_blob_blocks_without_retry_and_spares_the_breaker() {
    let (_, store, region, start) = fleet_and_store(10, 3, 17);
    let pipeline = AmlPipeline::new(
        PipelineConfig::production(),
        Arc::clone(&store) as Arc<dyn BlobStore>,
    );
    for week in 0..3i64 {
        let key = BlobKey::extracted(&region, start + 7 * week);
        let blob = store.get(&key).unwrap();
        let mut newer = frame::header(COLUMNAR_MAGIC, COLUMNAR_VERSION + 1).to_vec();
        newer.extend_from_slice(&blob[HEADER_LEN..blob.len() - FOOTER_LEN]);
        store.put(&key, frame::seal(newer)).unwrap();

        let report = pipeline.run_region_week(&region, start + 7 * week);
        assert!(report.blocked, "week {week}");
        assert_eq!(
            report.total_retries(),
            0,
            "week {week}: foreign is not retried"
        );
    }
    assert_eq!(pipeline.breaker.state(&region), BreakerState::Closed);
    assert_eq!(pipeline.breaker.snapshot(&region).trips, 0);
    assert_eq!(pipeline.incidents.open_count(Severity::Critical), 3);
}

/// The acceptance sweep: 20 seeds at a 10% transient storage fault rate,
/// three weekly runs each. Every run must complete (possibly degraded) —
/// five attempts at p = 0.1 exhaust with probability 1e-5 per run — and the
/// retry counters must line up with the injected-fault counters.
#[test]
fn chaos_sweep_every_seed_completes_with_retries() {
    let mut total_retries = 0u64;
    for seed in 0..20u64 {
        let (_, store, region, start) = fleet_and_store(12, 3, 100 + seed);
        let chaos = Arc::new(ChaosBlobStore::new(
            store,
            ChaosConfig {
                seed,
                transient_fault_prob: 0.1,
                ..ChaosConfig::default()
            },
        ));
        let pipeline = AmlPipeline::new(PipelineConfig::production(), chaos.clone());
        let mut seed_retries = 0u64;
        for week in 0..3i64 {
            let report = pipeline.run_region_week(&region, start + 7 * week);
            assert!(
                !report.blocked,
                "seed {seed} week {week}: a 10% transient rate must never \
                 exhaust the 5 ingestion attempts"
            );
            assert!(report.predictions_written > 0);
            seed_retries += u64::from(report.total_retries());
        }
        // Since no run exhausted, every injected fault cost exactly one
        // retry: the pipeline's accounting matches the chaos counters.
        assert_eq!(seed_retries, chaos.stats().transient_faults, "seed {seed}");
        total_retries += seed_retries;
    }
    // Pinned by simulation of the SplitMix64 schedule for seeds 0..20.
    assert!(
        total_retries > 0,
        "a 10% fault rate across 60 runs must cause retries"
    );
}

/// Same seed ⇒ byte-identical fault schedule, incident log, and degradation
/// summaries across two independent end-to-end runs.
#[test]
fn same_seed_reproduces_schedule_and_incident_log() {
    let run = || {
        let (_, store, region, start) = fleet_and_store(10, 3, 77);
        let chaos = Arc::new(ChaosBlobStore::new(
            store,
            ChaosConfig {
                seed: 5,
                transient_fault_prob: 0.3,
                torn_read_prob: 0.3,
            },
        ));
        let pipeline = AmlPipeline::new(PipelineConfig::production(), chaos.clone());
        let degraded: Vec<_> = (0..3i64)
            .map(|w| pipeline.run_region_week(&region, start + 7 * w).degraded)
            .collect();
        (
            chaos.schedule_log(),
            chaos.stats(),
            format!("{:?}", pipeline.incidents.all()),
            degraded,
        )
    };
    let (log_a, stats_a, incidents_a, degraded_a) = run();
    let (log_b, stats_b, incidents_b, degraded_b) = run();
    assert_eq!(
        log_a, log_b,
        "same seed must replay the same fault schedule"
    );
    assert_eq!(stats_a, stats_b);
    assert_eq!(incidents_a, incidents_b);
    assert_eq!(degraded_a, degraded_b);
    // Seed 5 injects a fault on the second ingestion op (verified against
    // the SplitMix64 stream), so the logs being compared are non-trivial.
    assert!(stats_a.faults > 0);
    assert!(!log_a.is_empty());
}

/// A sustained outage of one region's blob slice trips that region's
/// breaker (Critical raised, state observable), leaves the other region
/// unaffected, and recovers through half-open after the cooldown.
#[test]
fn sustained_outage_trips_breaker_and_recovers_through_half_open() {
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
    let pipeline = AmlPipeline::new(PipelineConfig::production(), chaos.clone());
    chaos.set_outage("extracted", "region-a");

    // Three weekly failures (5 ingestion attempts each) trip the breaker at
    // the default threshold of 3.
    for week in 0..3i64 {
        let tick = start + 7 * week;
        let ra = pipeline.run_region_week("region-a", tick);
        assert!(ra.blocked);
        assert_eq!(ra.total_retries(), 4, "all 5 attempts hit the outage");
        let rb = pipeline.run_region_week("region-b", tick);
        assert!(!rb.blocked, "the outage is sliced: region-b is unaffected");
        assert!(rb.predictions_written > 0);
        assert!(!rb.is_degraded());
    }
    assert_eq!(pipeline.breaker.state("region-a"), BreakerState::Open);
    assert_eq!(pipeline.breaker.snapshot("region-a").trips, 1);
    assert_eq!(pipeline.breaker.state("region-b"), BreakerState::Closed);
    assert_eq!(chaos.stats().outage_rejections, 15, "3 runs x 5 attempts");
    let trip_criticals = pipeline
        .incidents
        .open()
        .iter()
        .filter(|i| {
            i.source == "circuit-breaker"
                && i.region == "region-a"
                && i.severity == Severity::Critical
        })
        .count();
    assert_eq!(trip_criticals, 1);

    // Within the cooldown (14 ticks from the trip at start+14) the breaker
    // rejects the run outright — no storage ops, no retries burned.
    let r4 = pipeline.run_region_week("region-a", start + 21);
    assert!(r4.blocked);
    assert!(r4.degraded.expect("skip recorded").skipped_by_breaker);
    assert_eq!(pipeline.breaker.state("region-a"), BreakerState::Open);
    assert_eq!(
        chaos.stats().outage_rejections,
        15,
        "an open breaker spends nothing on storage"
    );

    // Heal the slice; the cooldown elapses at start+28 and the half-open
    // probe run succeeds, closing the circuit and resolving the trip.
    chaos.clear_outage("extracted", "region-a");
    let r5 = pipeline.run_region_week("region-a", start + 28);
    assert!(!r5.blocked, "half-open probe run completes");
    assert!(r5.predictions_written > 0);
    assert_eq!(pipeline.breaker.state("region-a"), BreakerState::Closed);
    let open = pipeline.incidents.open();
    assert!(
        open.iter()
            .all(|i| !(i.source == "circuit-breaker" && i.severity == Severity::Critical)),
        "the trip incident is resolved on recovery"
    );
    assert!(
        open.iter().any(|i| i.source == "circuit-breaker"
            && i.region == "region-a"
            && i.severity == Severity::Info),
        "recovery raises an Info incident"
    );
}

/// A forecaster whose fit fails (as a poison-input stand-in) for chosen
/// calls; with `threads: 1` the call order is the region's server order.
struct FailNthFit {
    calls: AtomicUsize,
    fail_on: &'static [usize],
    inner: PersistentForecast,
}

impl Forecaster for FailNthFit {
    fn name(&self) -> &'static str {
        "fail-nth-fit"
    }
    fn fit(&self, history: &TimeSeries) -> Result<Box<dyn FittedModel>, ForecastError> {
        let n = self.calls.fetch_add(1, Ordering::SeqCst);
        if self.fail_on.contains(&n) {
            return Err(ForecastError::Numerical(format!(
                "injected poison batch #{n}"
            )));
        }
        self.inner.fit(history)
    }
}

#[test]
fn poison_batches_are_quarantined_not_fatal() {
    let (_, store, region, start) = fleet_and_store(12, 1, 14);
    let config = PipelineConfig {
        forecaster: Arc::new(FailNthFit {
            calls: AtomicUsize::new(0),
            fail_on: &[1, 4],
            inner: PersistentForecast::previous_day(),
        }),
        ..PipelineConfig::production()
    };
    let pipeline = AmlPipeline::new(config, store);
    let report = pipeline.run_region_week(&region, start);
    assert!(!report.blocked, "poison batches degrade, they do not block");
    assert!(
        report.deployed_version.is_some(),
        "the region still deploys"
    );
    assert!(
        report.predictions_written > 0,
        "healthy servers still predict"
    );
    let degraded = report.degraded.expect("quarantine recorded");
    assert_eq!(degraded.quarantined_servers.len(), 2);
    assert_eq!(pipeline.docs.count(collections::DEAD_LETTER), 2);
    for server_id in &degraded.quarantined_servers {
        let id = DeadLetterDoc::doc_id(&region, *server_id, start);
        let doc: DeadLetterDoc = pipeline
            .docs
            .get(collections::DEAD_LETTER, &id)
            .expect("quarantined server has a dead-letter doc");
        assert_eq!(doc.stage, "train-infer");
        assert!(doc.reason.contains("injected poison batch"));
    }
    assert!(
        pipeline
            .incidents
            .open()
            .iter()
            .any(|i| i.source == "train-infer" && i.severity == Severity::Warning),
        "quarantine raises a Warning"
    );
}

/// Per-server fault granularity (dataflow): a server whose train-infer
/// attempts all fail exhausts only its *own* retry budget and dead-letters
/// only itself — siblings' predictions are byte-identical to a chaos-free
/// run, deployment proceeds, and no fallback is recorded.
#[test]
fn per_server_fault_quarantines_only_that_server() {
    let (_, store, region, start) = fleet_and_store(12, 1, 16);

    // Chaos-free baseline.
    let clean = AmlPipeline::new(
        PipelineConfig::production(),
        Arc::clone(&store) as Arc<dyn BlobStore>,
    );
    let clean_report = clean.run_region_week(&region, start);
    assert!(clean_report.degraded.is_none(), "baseline must be clean");

    // Server 3's train-infer faults on every attempt.
    let pipeline = AmlPipeline::new(
        PipelineConfig::production(),
        Arc::clone(&store) as Arc<dyn BlobStore>,
    )
    .with_chaos(StageChaos::from_server_fn(|stage, _, server_id, _, _| {
        stage == "train-infer" && server_id == 3
    }));
    let report = pipeline.run_region_week(&region, start);

    assert!(!report.blocked, "one poisoned server never blocks the run");
    assert_eq!(
        report.deployed_version, clean_report.deployed_version,
        "deployment proceeds on the healthy majority"
    );
    let degraded = report.degraded.expect("quarantine recorded");
    assert_eq!(degraded.quarantined_servers, vec![3]);
    assert!(!degraded.fallback_deployed);
    assert_eq!(
        degraded.retries.get("train-infer"),
        Some(&4),
        "only the poisoned server burned its five-attempt budget"
    );
    let doc: DeadLetterDoc = pipeline
        .docs
        .get(
            collections::DEAD_LETTER,
            &DeadLetterDoc::doc_id(&region, 3, start),
        )
        .expect("quarantined server has a dead-letter doc");
    assert_eq!(doc.stage, "train-infer");
    assert!(
        doc.reason
            .contains("train-infer retries exhausted after 5 attempt(s)"),
        "unexpected reason: {}",
        doc.reason
    );

    // Siblings' predictions are byte-identical to the clean run.
    let preds = |p: &AmlPipeline| -> Vec<(String, serde_json::Value)> {
        let mut ids = p.docs.ids(collections::PREDICTIONS);
        ids.sort();
        ids.into_iter()
            .map(|id| {
                let v: serde_json::Value = p.docs.get(collections::PREDICTIONS, &id).unwrap();
                (id, v)
            })
            .collect()
    };
    let sibling_preds: Vec<_> = preds(&clean)
        .into_iter()
        .filter(|(id, _)| !id.starts_with(&format!("{region}/3/")))
        .collect();
    assert_eq!(
        sibling_preds,
        preds(&pipeline),
        "siblings must be untouched by the quarantined server"
    );
    assert_eq!(report.predictions_written, sibling_preds.len());
}

/// Deploy failure mid-schedule: the failing week keeps serving the
/// last-known-good version, its predictions still land, and the next clean
/// week deploys a fresh version over it.
#[test]
fn deploy_failure_mid_schedule_keeps_serving_last_known_good() {
    let (_, store, region, start) = fleet_and_store(15, 3, 15);
    let bad_week = start + 7;
    let serve = ServeService::with_defaults();
    let pipeline = AmlPipeline::new(PipelineConfig::production(), store)
        .with_chaos(StageChaos::from_fn(move |stage, _, tick, _| {
            stage == "deployment" && tick == bad_week
        }))
        .with_deploy_sink(Arc::new(serve.clone()));
    let reports = pipeline.run_schedule(
        std::slice::from_ref(&region),
        &[start, bad_week, start + 14],
    );
    assert_eq!(reports[0].deployed_version, Some(1));

    // Week 2: deployment hard-fails; the run degrades instead of erroring.
    assert!(!reports[1].blocked);
    assert_eq!(reports[1].deployed_version, None);
    let degraded = reports[1].degraded.clone().expect("fallback recorded");
    assert!(degraded.fallback_deployed);
    assert_eq!(
        degraded.retries.get("deployment"),
        Some(&4),
        "all 5 deploy attempts burned"
    );
    assert!(degraded.exhausted_stages.contains(&"deployment".into()));
    assert!(reports[1].predictions_written > 0, "predictions still land");
    assert!(
        pipeline
            .incidents
            .open()
            .iter()
            .any(|i| i.source == "deployment" && i.severity == Severity::Critical),
        "deploy failure raises a Critical"
    );

    // Week 3: the fault clears; the predictions of the week whose deploy
    // failed are still scored, and a new version deploys over the kept v1.
    assert!(
        reports[1].accuracy.is_some(),
        "week 2 scored v1's predictions"
    );
    assert!(reports[2].evaluations > 0);
    assert_eq!(reports[2].deployed_version, Some(2));
    assert_eq!(pipeline.registry.deployed(&region).unwrap().version, 2);

    // The serving layer saw the same schedule: the failed deploy kept the
    // week-1 snapshot (one fallback, no swap) and week 3's deploy
    // refreshed it.
    assert_eq!(
        serve
            .obs()
            .registry()
            .counter(
                "seagull_serve_fallback_kept_total",
                &[("region", region.as_str())]
            )
            .get(),
        1
    );
    assert_eq!(serve.epoch(&region), 2, "one publish per successful deploy");
    let snap = serve.snapshot(&region).expect("deploys published");
    assert_eq!(snap.version(), 2);
    assert_eq!(snap.week_start_day(), start + 14);
}

/// The registry and the serving layer agree on what serves after a failed
/// deploy: the deploy-failed incident names the version of the snapshot the
/// region keeps, and no week's scores mark a version rolled back. On this
/// fleet week 3 scores worse than week 2 (two of 16–17 servers), which is
/// data noise under one deterministic forecaster, not a bad model.
#[test]
fn failed_deploy_names_the_snapshot_that_keeps_serving() {
    let (_, store, region, start) = fleet_and_store(20, 3, 42);
    let bad_week = start + 14;
    let serve = ServeService::with_defaults();
    let pipeline = AmlPipeline::new(PipelineConfig::production(), store)
        .with_chaos(StageChaos::from_fn(move |stage, _, tick, _| {
            stage == "deployment" && tick == bad_week
        }))
        .with_deploy_sink(Arc::new(serve.clone()));
    let reports =
        pipeline.run_schedule(std::slice::from_ref(&region), &[start, start + 7, bad_week]);
    assert_eq!(reports[2].deployed_version, None);
    let served = serve.snapshot(&region).expect("weeks 1 and 2 deployed");
    assert_eq!(served.version(), 2);
    assert_eq!(pipeline.registry.deployed(&region).unwrap().version, 2);
    let incidents = pipeline.incidents.all();
    let failed: Vec<_> = incidents
        .iter()
        .filter(|i| i.source == "deployment")
        .collect();
    assert_eq!(failed.len(), 1);
    assert!(
        failed[0]
            .message
            .ends_with("serving last-known-good: v2 (persistent-prev-day)"),
        "{}",
        failed[0].message
    );
    assert!(
        incidents.iter().all(|i| i.source != "model-registry"),
        "{incidents:?}"
    );
}

/// Predictions the docstore-write step dropped leave the next week nothing
/// to score, so every gate of the region restarts: three more scored weeks
/// pass before any of its backups may move.
#[test]
fn dropped_predictions_close_every_gate_for_three_weeks() {
    let run = |faulty: bool| {
        let (_, store, region, start) = fleet_and_store(60, 4, 17);
        let bad_week = start + 7;
        let pipeline =
            AmlPipeline::new(PipelineConfig::production(), store).with_chaos(StageChaos::from_fn(
                move |stage, _, tick, _| faulty && stage == "docstore-write" && tick == bad_week,
            ));
        let weeks: Vec<i64> = (0..4).map(|w| start + 7 * w).collect();
        let reports = pipeline.run_schedule(std::slice::from_ref(&region), &weeks);
        let docs: Vec<PredictionDoc> = pipeline.docs.scan(collections::PREDICTIONS).unwrap();
        let week_five = docs.into_iter().filter(|d| d.day >= start + 28);
        (reports, week_five.map(|d| d.gate).collect::<Vec<_>>())
    };
    let (_, gates) = run(false);
    assert!(
        gates.contains(&GateState::OPEN),
        "a clean month opens gates"
    );
    let (reports, gates) = run(true);
    assert_eq!(reports[1].predictions_written, 0);
    assert_eq!(reports[2].evaluations, 0, "nothing stored to score");
    assert!(!gates.is_empty());
    assert!(gates.iter().all(|g| g.to_score >= 2), "{gates:?}");
}
