//! The hook a run announces to: [`DeploySink`] for the serving layer (a new
//! model version, or a fallback to the last-known-good one).

use super::PredictionDoc;
use seagull_forecast::ModelCache;

/// One successful deployment, as announced to a [`DeploySink`].
///
/// Carries everything a serving layer needs to assemble an immutable
/// region snapshot: the freshly deployed version, the predictions this run
/// materialized, and (when the forecaster uses the warm cache) a handle to
/// the model cache so per-server fitted models can be extracted for
/// horizons the materialized predictions do not cover.
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
    /// The pipeline's warm-model cache, when the run's forecaster uses it
    /// (`None` under the persistent forecasts).
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
/// last published snapshot, the one last-known-good (the registry, which
/// registered no new version, still names it).
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
