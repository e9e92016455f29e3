//! What a run leaves behind: the run report with its per-stage timings and
//! degradation summary, the documents the pipeline stores in the
//! [`DocStore`](crate::docstore::DocStore), and the names of the collections
//! they land in.

use crate::evaluate::AccuracySummary;
use crate::resilience::RetryResult;
use seagull_timeseries::{TimeSeries, Timestamp};
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Duration;

/// Wall-clock timing of one pipeline stage.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageTiming {
    /// Stage name (see the `STAGE_ORDER` the dashboard renders).
    pub stage: String,
    /// Wall-clock time spent in the stage.
    pub duration: Duration,
}

/// Degradation summary of one run: what was retried, quarantined, skipped,
/// or fallen back on while still producing a report instead of an error.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct DegradedRun {
    /// Retries spent per stage (only stages that retried appear).
    pub retries: BTreeMap<String, u32>,
    /// Virtual backoff accounted across all retries, milliseconds.
    pub backoff_ms: u64,
    /// Servers quarantined to the dead-letter list this run.
    pub quarantined_servers: Vec<u64>,
    /// True when train/deploy failed and the registry's last-known-good
    /// model was kept serving instead of a new version.
    pub fallback_deployed: bool,
    /// True when the region's circuit breaker rejected the run outright.
    pub skipped_by_breaker: bool,
    /// Stages whose retries were exhausted (the run degraded around them).
    pub exhausted_stages: Vec<String>,
}

impl DegradedRun {
    /// Folds one stage's retry accounting into the summary.
    pub(super) fn note<T>(&mut self, stage: &str, result: &RetryResult<T>) {
        if result.attempts > 1 {
            *self.retries.entry(stage.to_string()).or_insert(0) += result.attempts - 1;
            self.backoff_ms += result.backoff_ms;
        }
    }

    /// Retries spent across all stages.
    pub fn total_retries(&self) -> u32 {
        self.retries.values().sum()
    }

    /// Whether anything actually degraded.
    pub fn is_degraded(&self) -> bool {
        !self.retries.is_empty()
            || !self.quarantined_servers.is_empty()
            || self.fallback_deployed
            || self.skipped_by_breaker
            || !self.exhausted_stages.is_empty()
    }

    pub(super) fn into_option(self) -> Option<DegradedRun> {
        if self.is_degraded() {
            Some(self)
        } else {
            None
        }
    }
}

/// The report of one pipeline run (one region, one week).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PipelineRunReport {
    /// Region the run covered.
    pub region: String,
    /// First day of the week the run ingested.
    pub week_start_day: i64,
    /// Size of the ingested blob, bytes (Figure 12 plots runtime vs this).
    pub input_bytes: u64,
    /// Per-stage wall-clock timings, in execution order.
    pub stages: Vec<StageTiming>,
    /// Servers found in the input window.
    pub servers: usize,
    /// Telemetry anomalies flagged by validation.
    pub anomalies: usize,
    /// True if validation blocked the run (no downstream stages executed).
    pub blocked: bool,
    /// Prediction documents written to the store.
    pub predictions_written: usize,
    /// Evaluations of last week's predictions performed this run.
    pub evaluations: usize,
    /// Aggregate accuracy of those evaluations, when any ran.
    pub accuracy: Option<AccuracySummary>,
    /// Model version the deployment stage registered, when it ran.
    pub deployed_version: Option<u64>,
    /// Present when the run retried, quarantined, fell back, or was skipped
    /// by the circuit breaker; `None` for a clean run.
    pub degraded: Option<DegradedRun>,
}

impl PipelineRunReport {
    /// Duration of a named stage, if it ran.
    pub fn stage_duration(&self, stage: &str) -> Option<Duration> {
        self.stages
            .iter()
            .find(|s| s.stage == stage)
            .map(|s| s.duration)
    }

    /// Total wall-clock across stages.
    pub fn total_duration(&self) -> Duration {
        self.stages.iter().map(|s| s.duration).sum()
    }

    /// Retries spent across all stages this run.
    pub fn total_retries(&self) -> u32 {
        self.degraded.as_ref().map_or(0, DegradedRun::total_retries)
    }

    /// True when the run completed but something degraded.
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }
}

/// A stored prediction document (the Cosmos DB row the backup scheduler
/// reads).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PredictionDoc {
    /// Region the server belongs to.
    pub region: String,
    /// Server the prediction is for.
    pub server_id: u64,
    /// The predicted day (index).
    pub day: i64,
    /// Grid step of `values`, minutes.
    pub step_min: u32,
    /// Predicted load for the whole day.
    pub values: Vec<f64>,
    /// Backup duration the window search should use, minutes.
    pub duration_min: i64,
}

impl PredictionDoc {
    /// Document id.
    pub fn doc_id(region: &str, server_id: u64, day: i64) -> String {
        format!("{region}/{server_id}/{day}")
    }

    /// The prediction as a series, consuming the document — moves the values
    /// into the series storage instead of cloning them.
    pub fn into_series(self) -> TimeSeries {
        TimeSeries::new(Timestamp::from_days(self.day), self.step_min, self.values)
            .expect("stored predictions are day-aligned")
    }
}

/// A stored accuracy document.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AccuracyDoc {
    /// Region the server belongs to.
    pub region: String,
    /// Server the evaluation covers.
    pub server_id: u64,
    /// Backup day that was evaluated.
    pub day: i64,
    /// Whether the predicted low-load window was correct (Definition 7).
    pub window_correct: bool,
    /// Whether the predicted load was accurate (Definition 2).
    pub load_accurate: bool,
    /// Bucket ratio over the predicted window, percent.
    pub window_bucket_ratio: f64,
}

/// A quarantined poison batch: a server whose training input caused a
/// non-benign model failure, recorded for offline triage instead of
/// aborting the region's run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DeadLetterDoc {
    /// Region the server belongs to.
    pub region: String,
    /// Server whose batch was quarantined.
    pub server_id: u64,
    /// Week the run ingested.
    pub week_start_day: i64,
    /// The stage that quarantined it.
    pub stage: String,
    /// Why the batch was poisonous.
    pub reason: String,
}

impl DeadLetterDoc {
    /// Document id.
    pub fn doc_id(region: &str, server_id: u64, week_start_day: i64) -> String {
        format!("{region}/{server_id}/{week_start_day}")
    }
}

/// Collection names in the [`DocStore`](crate::docstore::DocStore).
pub mod collections {
    /// Per-server next-week prediction documents.
    pub const PREDICTIONS: &str = "predictions";
    /// Per-server backup-day accuracy documents.
    pub const ACCURACY: &str = "accuracy";
    /// Per-server extracted-feature documents.
    pub const FEATURES: &str = "features";
    /// Run reports, one per `(region, week)`.
    pub const RUNS: &str = "runs";
    /// Quarantined poison batches.
    pub const DEAD_LETTER: &str = "dead-letter";
}
