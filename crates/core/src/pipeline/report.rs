//! What a run leaves behind: the run report with its per-stage timings and
//! degradation summary, the documents the pipeline stores in the
//! [`DocStore`](crate::docstore::DocStore), and the names of the collections
//! they land in.

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

/// Aggregate accuracy over a set of scored server-days (the Figure 11(b)–(d)
/// and Section 5.4 rows, and a run's [`PipelineRunReport::accuracy`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AccuracySummary {
    /// Servers submitted.
    pub servers: usize,
    /// Server-days that produced an evaluation.
    pub evaluated: usize,
    /// Percentage of evaluated days with a correctly chosen LL window.
    pub window_correct_pct: f64,
    /// Percentage of evaluated days with accurately predicted in-window load.
    pub load_accurate_pct: f64,
}

impl AccuracySummary {
    /// Summarizes `servers` submitted servers from the (window correct, load
    /// accurate) verdict of each evaluated server-day; both percentages are
    /// 0 when nothing was evaluated.
    pub fn from_verdicts(
        servers: usize,
        verdicts: impl IntoIterator<Item = (bool, bool)>,
    ) -> AccuracySummary {
        let verdicts: Vec<(bool, bool)> = verdicts.into_iter().collect();
        let pct = |count: usize| match verdicts.len() {
            0 => 0.0,
            n => 100.0 * count as f64 / n as f64,
        };
        AccuracySummary {
            servers,
            evaluated: verdicts.len(),
            window_correct_pct: pct(verdicts.iter().filter(|v| v.0).count()),
            load_accurate_pct: pct(verdicts.iter().filter(|v| v.1).count()),
        }
    }
}

/// Degradation summary of one run: what was retried, quarantined, exhausted,
/// or fallen back on while still producing a report instead of an error.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct DegradedRun {
    /// Retries spent per stage (only stages that retried appear).
    pub retries: BTreeMap<String, u32>,
    /// Servers quarantined to the dead-letter list this run.
    pub quarantined_servers: Vec<u64>,
    /// True when the deploy failed and the region's last published
    /// snapshot kept serving: no new version was registered.
    pub fallback_deployed: bool,
    /// Stages whose retries were exhausted (the run degraded around them).
    pub exhausted_stages: Vec<String>,
}

impl DegradedRun {
    /// Folds one stage's retry accounting into the summary.
    pub(super) fn note<T>(&mut self, stage: &str, result: &RetryResult<T>) {
        if result.attempts > 1 {
            *self.retries.entry(stage.to_string()).or_insert(0) += result.attempts - 1;
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
    /// Present when the run retried, quarantined, fell back, or exhausted a
    /// stage's retries; `None` for a clean run.
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
    /// The server's Definition 9 gate as of the run that wrote the document.
    pub gate: GateState,
}

/// Weeks of backup days Definition 9 inspects: a server is predictable "if
/// for the last three weeks its LL windows were chosen correctly and the load
/// during these windows was predicted accurately".
pub const PREDICTABILITY_WEEKS: u8 = 3;

/// Definition 9's gate for one server, moved on each week by the pipeline's
/// own score of its backup day: the consecutive scored weeks, and the
/// consecutive passing weeks (a correct window with accurately predicted
/// load), still missing before the backup scheduler may move its backup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct GateState {
    /// Above zero, the server is too young ("servers that did not exist ...
    /// for the last three weeks").
    pub to_score: u8,
    /// Above zero with every week scored, the server is not predictable.
    pub to_pass: u8,
}

impl GateState {
    /// The gate of a server the scheduler may move.
    pub const OPEN: GateState = GateState {
        to_score: 0,
        to_pass: 0,
    };

    /// The gate of a server with no scored week.
    pub const CLOSED: GateState = GateState {
        to_score: PREDICTABILITY_WEEKS,
        to_pass: PREDICTABILITY_WEEKS,
    };

    /// The gate one week on. `passed` is the week's score: a failed week
    /// restarts `to_pass`, and a week with nothing to score (`None`: no
    /// prediction, no truth, or an unscorable one) restarts both.
    pub fn next(self, passed: Option<bool>) -> GateState {
        match passed {
            None => GateState::CLOSED,
            Some(passed) => GateState {
                to_score: self.to_score.saturating_sub(1),
                to_pass: if passed {
                    self.to_pass.saturating_sub(1)
                } else {
                    PREDICTABILITY_WEEKS
                },
            },
        }
    }
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
