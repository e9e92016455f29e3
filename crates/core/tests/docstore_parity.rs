//! The document store keeps each document as the typed value the pipeline
//! wrote and renders JSON only at its edge. Everything a reader can see must
//! be what a store that kept JSON trees showed: for every stored type, a
//! `Value` read and a `Value` scan are the document's `to_value`, a typed
//! read is the document, the snapshot prints the same bytes, and a read as
//! any other type is `WrongType`.

use seagull_core::docstore::{DocStore, DocStoreError};
use seagull_core::features::{extract_server_features, ServerFeatures};
use seagull_core::pipeline::{
    collections, AccuracyDoc, AccuracySummary, DeadLetterDoc, DegradedRun, GateState,
    PipelineRunReport, PredictionDoc, StageTiming,
};
use seagull_telemetry::extract::ExtractedServer;
use seagull_telemetry::server::ServerId;
use seagull_timeseries::{TimeSeries, Timestamp};
use serde::Serialize;
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::time::Duration;

fn prediction() -> PredictionDoc {
    PredictionDoc {
        region: "region-a".into(),
        server_id: 17,
        day: 19_000,
        step_min: 5,
        values: (0..288)
            .map(|i| match i {
                0 => -0.0,
                1 => 1e-300,
                _ => 30.0 + 20.0 * (i as f64 / 288.0 * std::f64::consts::TAU).sin(),
            })
            .collect(),
        duration_min: 75,
        gate: GateState {
            to_score: 0,
            to_pass: 2,
        },
    }
}

fn accuracy() -> AccuracyDoc {
    AccuracyDoc {
        region: "region-a".into(),
        server_id: 17,
        day: 19_000,
        window_correct: true,
        load_accurate: false,
        window_bucket_ratio: 87.5,
    }
}

/// Features of a server with no samples: every load statistic is NaN, which
/// JSON writes as `null`.
fn empty_series_features() -> ServerFeatures {
    let server = ExtractedServer {
        id: ServerId(3),
        series: TimeSeries::new(Timestamp::from_days(19_000), 5, Vec::new()).unwrap(),
        default_backup_start: Timestamp::from_days(19_001),
        default_backup_end: Timestamp::from_days(19_001),
    };
    let features = extract_server_features(&server, &server.series);
    assert!(features.stats.mean.is_nan(), "{features:?}");
    features
}

fn run_report() -> PipelineRunReport {
    PipelineRunReport {
        region: "region-a".into(),
        week_start_day: 18_998,
        input_bytes: 123_456,
        stages: ["ingestion", "validation", "features", "train-infer"]
            .iter()
            .enumerate()
            .map(|(i, stage)| StageTiming {
                stage: stage.to_string(),
                duration: Duration::new(i as u64, 123_456_789 + i as u32),
            })
            .collect(),
        servers: 80,
        anomalies: 2,
        blocked: false,
        predictions_written: 77,
        evaluations: 70,
        accuracy: Some(AccuracySummary {
            servers: 80,
            evaluated: 70,
            window_correct_pct: 97.142_857_142_857_14,
            load_accurate_pct: 90.0,
        }),
        deployed_version: Some(4),
        degraded: Some(DegradedRun {
            retries: BTreeMap::from([("ingestion".to_string(), 2), ("train-infer".to_string(), 5)]),
            quarantined_servers: vec![3, 41],
            fallback_deployed: false,
            exhausted_stages: vec!["docstore-write".into()],
        }),
    }
}

fn dead_letter() -> DeadLetterDoc {
    DeadLetterDoc {
        region: "region-a".into(),
        server_id: 41,
        week_start_day: 18_998,
        stage: "train-infer".into(),
        reason: "fused operator panicked: \"boom\"\n".into(),
    }
}

/// A type no collection stores.
#[derive(Debug, Clone)]
struct NotStored;

/// Upserts `doc` into a store of its own and checks every read and the
/// snapshot against the document and its JSON.
fn check<T>(collection: &str, id: &str, doc: &T)
where
    T: Serialize + Clone + Debug + Send + Sync + 'static,
{
    let store = DocStore::new();
    store.upsert(collection, id, doc);
    let json = serde_json::to_value(doc).unwrap();

    assert_eq!(store.get::<Value>(collection, id).unwrap(), json);
    // `Debug`, not `==`: the empty series' NaN statistics never equal
    // themselves.
    let typed: T = store.get(collection, id).unwrap();
    assert_eq!(format!("{typed:?}"), format!("{doc:?}"));
    assert_eq!(store.scan::<Value>(collection).unwrap(), vec![json.clone()]);

    let snapshot = store.snapshot_json().unwrap();
    let held = BTreeMap::from([(
        collection.to_string(),
        BTreeMap::from([(id.to_string(), json)]),
    )]);
    assert_eq!(snapshot, serde_json::to_string_pretty(&held).unwrap());

    let wrong = DocStoreError::WrongType {
        collection: collection.to_string(),
        id: id.to_string(),
    };
    assert_eq!(store.get::<NotStored>(collection, id).unwrap_err(), wrong);
}

#[test]
fn every_stored_type_reads_as_its_json() {
    check(collections::PREDICTIONS, "region-a/17/19000", &prediction());
    check(collections::ACCURACY, "region-a/17/19000", &accuracy());
    check(
        collections::FEATURES,
        "region-a/3/18998",
        &empty_series_features(),
    );
    check(collections::RUNS, "region-a/18998", &run_report());
    check(
        collections::DEAD_LETTER,
        "region-a/41/18998",
        &dead_letter(),
    );
}

/// What a `FEATURES` document holds: these six keys and no others.
#[test]
fn rendered_document_has_exactly_six_keys() {
    let Value::Object(doc) = serde_json::to_value(&empty_series_features()).unwrap() else {
        panic!("a features document renders as a JSON object");
    };
    let keys: Vec<&str> = doc.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "backup_duration_min",
            "missing_fraction",
            "observed_days",
            "pattern",
            "server_id",
            "stats"
        ]
    );
}
