//! The two hooks a run announces to: [`DeploySink`] for the serving layer
//! (a new model version, or a fallback to the last-known-good one) and
//! [`AccuracySink`] for the online accuracy monitor (served-vs-actual
//! scores once the next week's telemetry arrives).

use super::PredictionDoc;
use seagull_forecast::ModelCache;

/// One successful deployment, as announced to a [`DeploySink`].
///
/// Carries everything a serving layer needs to assemble an immutable
/// region snapshot: the freshly deployed version, the predictions this run
/// materialized, and (when the warm cache is on) a handle to the model
/// cache so per-server fitted models can be extracted for horizons the
/// materialized predictions do not cover.
pub struct DeployEvent<'a> {
    /// Region the deployment belongs to.
    pub region: &'a str,
    /// The model-registry version that just started serving.
    pub version: u64,
    /// First day of the week whose data trained this version.
    pub week_start_day: i64,
    /// Name of the deployed forecaster (the registry's `model_name`).
    pub model_name: &'a str,
    /// Predictions written by this run, in server order.
    pub predictions: &'a [PredictionDoc],
    /// The pipeline's warm-model cache, when enabled for this run.
    pub cache: Option<&'a ModelCache>,
}

/// Observer of the deployment stage — the hook a prediction-serving layer
/// registers to receive versioned snapshots.
///
/// "The pipeline ... deploys the model, and makes it accessible through a
/// REST endpoint" (Section 2.2): [`AmlPipeline`] announces every successful
/// deployment through this trait so an out-of-pipeline service can publish
/// the new snapshot atomically. A failed deployment announces
/// [`DeploySink::on_fallback`] instead — the sink must keep serving its
/// last-known-good snapshot, mirroring the registry's fallback rule.
///
/// Implementations are called from inside pipeline runs (possibly from
/// several regions concurrently under [`AmlPipeline::run_fleet_week`]) and
/// must be cheap and non-blocking; region arguments are disjoint across
/// concurrent calls.
///
/// [`AmlPipeline`]: super::AmlPipeline
/// [`AmlPipeline::run_fleet_week`]: super::AmlPipeline::run_fleet_week
pub trait DeploySink: Send + Sync {
    /// A new model version was deployed for `event.region`.
    fn on_deploy(&self, event: &DeployEvent<'_>);

    /// Deployment failed; the last-known-good version keeps serving.
    fn on_fallback(&self, region: &str, week_start_day: i64) {
        let _ = (region, week_start_day);
    }
}

/// One previously-served prediction scored against the actual load that
/// arrived a week later (the paper's §5.4 deployment accuracy), as
/// announced to an [`AccuracySink`].
#[derive(Clone, Debug, PartialEq)]
pub struct ScoredPrediction {
    /// Server the prediction was served for.
    pub server_id: u64,
    /// Day index the prediction covered.
    pub day: i64,
    /// Classification label the server trained under this week (the
    /// cache-key class, e.g. `stable` / `unstable`).
    pub class: &'static str,
    /// Whether the predicted low-load window matched the true one.
    pub window_correct: bool,
    /// Whether predicted load in the window was accurate (Definition 9).
    pub load_accurate: bool,
    /// Bucket-ratio score of the predicted window, percent.
    pub window_bucket_ratio: f64,
}

/// Observer of the accuracy-evaluation stage — the hook an online accuracy
/// monitor registers to receive served-vs-actual scores as actuals arrive
/// with the next region-week of telemetry.
///
/// Like [`DeploySink`], implementations are called from inside pipeline
/// runs — possibly from several regions concurrently under
/// [`AmlPipeline::run_fleet_week`] — and must be cheap and non-blocking.
/// Region arguments are disjoint across concurrent calls, so an
/// implementation that keys its state by region stays deterministic; any
/// cross-region aggregation (and anything that raises incidents) must be
/// deferred to a serial step after the fleet barrier.
///
/// [`AmlPipeline::run_fleet_week`]: super::AmlPipeline::run_fleet_week
pub trait AccuracySink: Send + Sync {
    /// Scores for `region`'s previously-served predictions, evaluated
    /// against the telemetry of the week starting at `week_start_day`.
    /// Rows arrive in server order.
    fn on_scores(&self, region: &str, week_start_day: i64, scores: &[ScoredPrediction]);
}
