//! The AML pipeline substitute: the core orchestration of Seagull.
//!
//! "This pipeline consumes the load, validates it, extracts features, trains
//! a model, deploys the model, and makes it accessible through a REST
//! endpoint. The pipeline tracks the versions of deployed models, performs
//! inference, and evaluates the accuracy of predictions. Results are stored
//! in Cosmos DB. ... A run of the AML pipeline is scheduled once a week per
//! region" (Section 2.2).
//!
//! [`AmlPipeline::run_region_week`] is one such run. Every stage is timed
//! (the Figure 12(a) measurement); predictions and accuracy rows land in the
//! [`DocStore`]; validation anomalies and deployment regressions raise
//! incidents; each run deploys a fresh model version whose accuracy, once
//! measured a week later, feeds the last-known-good fallback rule.
//!
//! Every stage runs under the pipeline's [`ResiliencePolicy`]: transient
//! faults (storage timeouts, torn reads, outages) are retried with seeded
//! backoff, and exhausted retries degrade the run instead of aborting it —
//! poison server batches are quarantined to a dead-letter list, failed
//! train/deploy keeps the registry's last-known-good model serving, and the
//! run report carries a [`DegradedRun`] summary instead of an `Err`. A
//! per-region [`CircuitBreaker`] guards run entry so a region whose blob
//! slice is hard-down stops burning retries until a cooldown elapses.
//!
//! Every run is observed through the pipeline's [`Obs`] handle: each stage
//! runs inside a span (virtual tick = the scheduler's day index; wall time
//! captured by the tracer — the only raw `Instant` timing is the per-fit
//! cost the warm cache credits to its saved-wall counter), retries
//! and backoff feed `(region, stage)`-labelled counters and histograms, the
//! circuit breaker publishes a per-region state gauge, and the parallel
//! stages record per-worker profiles. `StageTiming`/`stage_duration` are
//! derived from the finished spans, so existing reports keep working.
//!
//! The middle of the run — validation, feature extraction, training and
//! inference — executes in one of two [`ExecMode`]s. [`ExecMode::Barrier`]
//! is the classic staged form: every server completes a stage before any
//! server enters the next. [`ExecMode::Dataflow`] (the production default)
//! fuses the per-server work into one operator chain — validate → gap-fill
//! → featurize → fit → predict — scheduled task-granularly on the worker
//! pool, so a straggler server delays only itself while its siblings flow
//! to completion. Results are absorbed serially in server input order at
//! the train-deploy barrier, which is why both modes (at any thread count)
//! produce byte-identical reports, documents, incidents, and stable
//! exports. Deployment and accuracy evaluation stay serial barriers: they
//! mutate region-wide state (the model registry, the serving snapshot)
//! that must observe one consistent fleet.

use crate::classify::ClassifyConfig;
use crate::docstore::DocStore;
use crate::evaluate::{AccuracySummary, EvaluationConfig};
use crate::features::{extract_features, extract_server_features, ServerFeatures};
use crate::incident::{IncidentManager, Severity};
use crate::metrics::evaluate_low_load;
use crate::par::{configured_threads, parallel_map, parallel_map_profiled, parallel_map_tasks};
use crate::registry::{EndpointSet, ModelAccuracy, ModelRegistry};
use crate::resilience::{stage_seed, CircuitBreaker, ResiliencePolicy, RetryResult, StageError};
use crate::validation::{
    validate_region_week, validate_server, validate_servers, Anomaly, DataProfile,
};
use seagull_forecast::{CacheUpdate, FittedModel, ForecastError, Forecaster, Lookup, ModelCache};
use seagull_obs::{Obs, SpanId, Stability};
use seagull_telemetry::blobstore::{BlobKey, BlobStore};
use seagull_telemetry::chaos::InjectedCrash;
use seagull_telemetry::columnar::checksum64_words;
use seagull_telemetry::csv_quantized;
use seagull_telemetry::extract::{ExtractedServer, RegionWeekBatch};
use seagull_timeseries::{GapFill, TimeSeries, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the middle of a run (validation → features → train-infer) executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Staged batch execution: every server completes a stage before any
    /// server enters the next. Retries, exhaustion, and injected faults
    /// are whole-stage on this path.
    Barrier,
    /// Fused per-server operators scheduled task-granularly on the worker
    /// pool: validate → gap-fill → featurize → fit → predict run as one
    /// task per server, with per-server retries, panic isolation, and
    /// dead-letter quarantine. The deterministic input-order absorb keeps
    /// every output byte-identical to [`ExecMode::Barrier`].
    Dataflow,
}

/// Pipeline configuration (the use-case-specific parameters of Section 2.4).
#[derive(Clone)]
pub struct PipelineConfig {
    /// Telemetry grid in minutes.
    pub grid_min: u32,
    /// Expert-verified data profile for validation.
    pub profile: DataProfile,
    /// Classification thresholds for feature extraction.
    pub classify: ClassifyConfig,
    /// Accuracy-evaluation parameters.
    pub evaluation: EvaluationConfig,
    /// The model trained/deployed each run.
    pub forecaster: Arc<dyn Forecaster>,
    /// Worker threads for the per-server stages and cross-region fan-out
    /// (1 = single-threaded).
    pub threads: usize,
    /// Reuse cached fitted models for servers whose series did not
    /// materially change since the last run (see [`ModelCache`]).
    pub warm_cache: bool,
    /// Accuracy drop (percentage points) that triggers model fallback.
    pub fallback_tolerance: f64,
    /// Cap on anomaly reports per kind per run.
    pub max_anomaly_reports: usize,
    /// Execution mode for the per-server middle of the run (see
    /// [`ExecMode`]).
    pub exec: ExecMode,
    /// Maximum servers per same-shape fit batch on the dataflow path
    /// (1 = fit every server individually). Same-shape servers are grouped
    /// in input order and their cold fits go through one
    /// [`Forecaster::fit_batch`] invocation, which shares the fitting
    /// workspace (and, for the randomized SSA kernel, the sketch) across
    /// the batch; the per-fit results are bitwise identical to solo fits.
    pub fit_batch: usize,
}

impl PipelineConfig {
    /// The production configuration: persistent forecast (previous day),
    /// 5-minute grid, threads from [`configured_threads`] (the machine's
    /// available parallelism, overridable via `SEAGULL_THREADS`), warm
    /// model cache on.
    pub fn production() -> PipelineConfig {
        PipelineConfig {
            grid_min: 5,
            profile: DataProfile::standard(5),
            classify: ClassifyConfig::default(),
            evaluation: EvaluationConfig::default(),
            forecaster: Arc::new(seagull_forecast::PersistentForecast::previous_day()),
            threads: configured_threads(),
            warm_cache: true,
            fallback_tolerance: 10.0,
            max_anomaly_reports: 20,
            exec: ExecMode::Dataflow,
            fit_batch: 16,
        }
    }
}

/// Wall-clock timing of one pipeline stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Stage name (see the `STAGE_ORDER` the dashboard renders).
    pub stage: String,
    /// Wall-clock time spent in the stage.
    pub duration: Duration,
}

/// Degradation summary of one run: what was retried, quarantined, skipped,
/// or fallen back on while still producing a report instead of an error.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct DegradedRun {
    /// Retries spent per stage (only stages that retried appear).
    #[serde(default)]
    pub retries: BTreeMap<String, u32>,
    /// Virtual backoff accounted across all retries, milliseconds.
    #[serde(default)]
    pub backoff_ms: u64,
    /// Servers quarantined to the dead-letter list this run.
    #[serde(default)]
    pub quarantined_servers: Vec<u64>,
    /// True when train/deploy failed and the registry's last-known-good
    /// model was kept serving instead of a new version.
    #[serde(default)]
    pub fallback_deployed: bool,
    /// True when the region's circuit breaker rejected the run outright.
    #[serde(default)]
    pub skipped_by_breaker: bool,
    /// Stages whose retries were exhausted (the run degraded around them).
    #[serde(default)]
    pub exhausted_stages: Vec<String>,
}

impl DegradedRun {
    /// Folds one stage's retry accounting into the summary.
    fn note<T>(&mut self, stage: &str, result: &RetryResult<T>) {
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

    fn into_option(self) -> Option<DegradedRun> {
        if self.is_degraded() {
            Some(self)
        } else {
            None
        }
    }
}

/// The report of one pipeline run (one region, one week).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    #[serde(default)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

    /// The prediction as a series.
    pub fn series(&self) -> TimeSeries {
        TimeSeries::new(
            Timestamp::from_days(self.day),
            self.step_min,
            self.values.clone(),
        )
        .expect("stored predictions are day-aligned")
    }

    /// The prediction as a series, consuming the document — moves the values
    /// into the series storage instead of cloning them.
    pub fn into_series(self) -> TimeSeries {
        TimeSeries::new(Timestamp::from_days(self.day), self.step_min, self.values)
            .expect("stored predictions are day-aligned")
    }
}

/// A stored accuracy document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// Per-server cache consequence of one train-infer item, applied serially
/// after the parallel region joins so cache state never depends on worker
/// interleaving.
enum CacheOutcome {
    /// Reused a cached fit; recency for this key is bumped at commit.
    Hit(String),
    /// A fresh fit to insert at commit.
    Fresh(Box<CacheUpdate>),
    /// No cache interaction (cache off, or insufficient history to fit).
    Bypass,
}

/// How one server's train-infer item will be served, resolved once (one
/// counted cache probe) before the fit so shape batches can be formed from
/// the servers that actually need a cold fit.
enum FitPath {
    /// Warm cache off: fit cold, no cache writes.
    Bypass,
    /// Warm-cache hit: serve the cached model, re-anchored.
    Hit(seagull_forecast::CachedFit, String),
    /// Warm-cache miss: fit cold and package the entry for the serial
    /// commit barrier.
    Miss { key: String, fingerprint: u64 },
}

/// Result of one server's train-infer item: the prediction doc (`None` for
/// young servers), the deferred cache write, and the fit-kernel label of any
/// cold fit that ran — or the `(server_id, reason)` poison record.
type FitOutcome =
    Result<(Option<PredictionDoc>, CacheOutcome, Option<&'static str>), (u64, String)>;

/// A pre-computed fit from a shape batch, consumed in place of a solo fit:
/// the kernel result plus the wall time attributed to that slot.
type Prefit = (Result<Box<dyn FittedModel>, ForecastError>, Duration);

/// What the mid-run stages (validation → features → train-infer →
/// docstore-write) hand to the shared tail (deployment, accuracy-eval).
/// The mid-stage drivers return `None` when validation blocks the run.
struct MidStages {
    /// Per-server features, index-aligned with the extracted servers.
    /// `None` marks a server whose fused operator panicked (dataflow only;
    /// the barrier path always produces `Some`).
    features: Vec<Option<ServerFeatures>>,
    /// Prediction documents materialized this run, in server input order.
    predictions: Vec<PredictionDoc>,
    /// True when the whole training stage failed (barrier path only) and
    /// deployment must keep the last-known-good model serving.
    train_failed: bool,
}

/// Everything one fused per-server operator produces, absorbed serially in
/// server input order after the fan-out joins.
struct FusedServerOutcome {
    /// The gap-filled series, written back to the fleet slice so accuracy
    /// evaluation sees the same repaired input the barrier path produces.
    series: TimeSeries,
    /// Per-server validation anomaly, if flagged (on the unfilled series).
    anomaly: Option<Anomaly>,
    /// Extracted features (extraction itself cannot fail).
    features: ServerFeatures,
    /// The backup-day prediction, when the model produced one.
    prediction: Option<PredictionDoc>,
    /// Cache consequence, committed serially at the absorb barrier.
    cache: CacheOutcome,
    /// Kernel label of the cold fit, when one ran (None on cache hits,
    /// bypasses without a fit, and failures).
    fit_kernel: Option<&'static str>,
    /// Poison reason when the fit failed permanently or exhausted retries.
    poison: Option<String>,
    /// Retries burned by this server's fit.
    retries: u32,
    /// Virtual backoff accounted by those retries, milliseconds.
    backoff_ms: u64,
    /// True when the fit failed by exhausting transient-fault retries.
    exhausted: bool,
    /// Wall time of validate + gap-fill + featurize.
    featurize_wall: Duration,
    /// Wall time of fit + predict, including retries.
    model_wall: Duration,
}

/// Content fingerprint of a training series: FNV-1a over the quantized
/// sample bytes plus the grid step. The start timestamp is deliberately
/// excluded so a weekly-periodic server hashes identically week over week;
/// [`ModelCache`] checks grid shape and whole-week alignment separately.
fn series_fingerprint(series: &TimeSeries) -> u64 {
    let step = std::iter::once(u64::from(series.step_min()));
    let samples = series.values().iter().map(|&v| csv_quantized(v).to_bits());
    checksum64_words(step.chain(samples))
}

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
pub trait AccuracySink: Send + Sync {
    /// Scores for `region`'s previously-served predictions, evaluated
    /// against the telemetry of the week starting at `week_start_day`.
    /// Rows arrive in server order.
    fn on_scores(&self, region: &str, week_start_day: i64, scores: &[ScoredPrediction]);
}

/// Collection names in the [`DocStore`].
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

/// The pipeline with its shared service handles.
#[derive(Clone)]
pub struct AmlPipeline {
    /// Knobs the run was configured with.
    pub config: PipelineConfig,
    /// Blob store the runs ingest from.
    pub blobs: Arc<dyn BlobStore>,
    /// Document store results land in.
    pub docs: DocStore,
    /// Shared incident log.
    pub incidents: IncidentManager,
    /// Model version registry fed by the deployment stage.
    pub registry: ModelRegistry,
    /// Deployment endpoints (the AML endpoint substitute).
    pub endpoints: EndpointSet,
    /// Retry/backoff/chaos policy threaded through every stage.
    pub resilience: ResiliencePolicy,
    /// Per-region breaker guarding run entry; ticks are day indices.
    pub breaker: CircuitBreaker,
    /// Observability handle: metrics registry + span tracer for every run.
    pub obs: Obs,
    /// Warm-model cache shared across runs and regions (see [`ModelCache`]).
    /// Keys are region-prefixed, so concurrent region runs touch disjoint
    /// entries; bypassed when [`PipelineConfig::warm_cache`] is off.
    pub cache: Arc<ModelCache>,
    /// Optional serving-layer hook, announced to on every deployment (see
    /// [`DeploySink`]). Shared across fleet scratch clones.
    pub deploy_sink: Option<Arc<dyn DeploySink>>,
    /// Optional accuracy-monitor hook, announced to whenever the
    /// accuracy-evaluation stage scores previously-served predictions (see
    /// [`AccuracySink`]). Shared across fleet scratch clones.
    pub accuracy_sink: Option<Arc<dyn AccuracySink>>,
}

impl AmlPipeline {
    /// Assembles a pipeline over the given blob store with the default
    /// resilience policy.
    pub fn new(config: PipelineConfig, blobs: Arc<dyn BlobStore>) -> AmlPipeline {
        AmlPipeline::with_resilience(config, blobs, ResiliencePolicy::default())
    }

    /// Assembles a pipeline with an explicit resilience policy (retry
    /// tuning, breaker thresholds, jitter seed, stage-fault hook).
    pub fn with_resilience(
        config: PipelineConfig,
        blobs: Arc<dyn BlobStore>,
        resilience: ResiliencePolicy,
    ) -> AmlPipeline {
        let breaker = CircuitBreaker::new(resilience.breaker);
        AmlPipeline {
            config,
            blobs,
            docs: DocStore::new(),
            incidents: IncidentManager::new(),
            registry: ModelRegistry::new(),
            endpoints: EndpointSet::new(),
            resilience,
            breaker,
            obs: Obs::new(),
            cache: Arc::new(ModelCache::new()),
            deploy_sink: None,
            accuracy_sink: None,
        }
    }

    /// Shares an external observability handle (e.g. with a dashboard or a
    /// runner) instead of the pipeline-private one.
    pub fn with_obs(mut self, obs: Obs) -> AmlPipeline {
        self.obs = obs;
        self
    }

    /// Registers a serving-layer deploy hook: every successful deployment
    /// (and every fallback) is announced to `sink` so it can swap in the
    /// region's new model snapshot.
    pub fn with_deploy_sink(mut self, sink: Arc<dyn DeploySink>) -> AmlPipeline {
        self.deploy_sink = Some(sink);
        self
    }

    /// Registers an accuracy-monitor hook: every accuracy-evaluation stage
    /// that scores previously-served predictions announces the per-server
    /// scores (with classification labels) to `sink`.
    pub fn with_accuracy_sink(mut self, sink: Arc<dyn AccuracySink>) -> AmlPipeline {
        self.accuracy_sink = Some(sink);
        self
    }

    /// Virtual scheduler tick for a day index (clamped at zero).
    fn vtick(day: i64) -> u64 {
        day.max(0) as u64
    }

    /// Starts a stage span under the run span.
    fn stage_span(&self, run: SpanId, stage: &str, region: &str, tick: u64) -> SpanId {
        self.obs
            .tracer()
            .child(run, stage, &[("region", region)], tick)
    }

    /// Ends a stage span and folds its wall duration into the report and
    /// the per-stage metrics.
    fn finish_stage(
        &self,
        report: &mut PipelineRunReport,
        span: SpanId,
        stage: &str,
        region: &str,
        tick: u64,
    ) {
        self.obs.tracer().end(span, tick);
        let wall = self.obs.tracer().wall_duration(span).unwrap_or_default();
        self.note_stage(report, stage, region, wall);
    }

    /// [`AmlPipeline::finish_stage`] with an externally measured wall
    /// duration: the dataflow path prices the features stage at the summed
    /// per-server featurize walls measured inside the fused operators,
    /// since no open span covers that interleaved work.
    fn finish_stage_with_wall(
        &self,
        report: &mut PipelineRunReport,
        span: SpanId,
        stage: &str,
        region: &str,
        tick: u64,
        wall: Duration,
    ) {
        self.obs.tracer().end_with_wall(span, tick, wall);
        self.note_stage(report, stage, region, wall);
    }

    /// Folds a finished stage's wall duration into the report (so
    /// [`PipelineRunReport::stage_duration`] keeps working) and the
    /// per-stage metrics.
    fn note_stage(
        &self,
        report: &mut PipelineRunReport,
        stage: &str,
        region: &str,
        wall: Duration,
    ) {
        let labels = [("region", region), ("stage", stage)];
        let registry = self.obs.registry();
        registry.counter("seagull_stage_runs_total", &labels).inc();
        registry
            .histogram_with("seagull_stage_wall_seconds", &labels, Stability::Volatile)
            .observe(wall.as_secs_f64());
        report.stages.push(StageTiming {
            stage: stage.into(),
            duration: wall,
        });
    }

    /// Raises one validation anomaly as an incident: blocking anomalies are
    /// critical, the rest warnings. Shared by both execution modes so the
    /// incident strings (and therefore the stable export) stay identical.
    fn raise_validation_anomaly(&self, region: &str, a: &Anomaly) {
        let severity = if a.is_blocking() {
            Severity::Critical
        } else {
            Severity::Warning
        };
        self.incidents
            .raise(severity, "validation", region, format!("{a:?}"));
    }

    /// Runs a stage closure under the retry policy, with the policy's
    /// stage-fault hook injected ahead of the real work.
    fn retry_stage<T>(
        &self,
        stage: &str,
        region: &str,
        tick: i64,
        mut op: impl FnMut() -> Result<T, StageError>,
    ) -> RetryResult<T> {
        let seed = stage_seed(self.resilience.seed, stage, region, tick);
        self.resilience
            .retry
            .run_observed(seed, self.obs.registry(), stage, region, |attempt| {
                if self
                    .resilience
                    .chaos
                    .should_fail(stage, region, tick, attempt)
                {
                    return Err(StageError::transient(format!(
                        "injected {stage} fault (attempt {attempt})"
                    )));
                }
                op()
            })
    }

    /// Runs the weekly pipeline for one region: ingestion → validation →
    /// feature extraction → training & inference → deployment → accuracy
    /// evaluation (of the previous run's predictions) → result storage.
    ///
    /// Never returns an error: transient faults are retried, and exhausted
    /// retries degrade the run (quarantine, fallback, skip) with the
    /// details summarized in [`PipelineRunReport::degraded`].
    pub fn run_region_week(&self, region: &str, week_start_day: i64) -> PipelineRunReport {
        let mut report = PipelineRunReport {
            region: region.to_string(),
            week_start_day,
            input_bytes: 0,
            stages: Vec::new(),
            servers: 0,
            anomalies: 0,
            blocked: false,
            predictions_written: 0,
            evaluations: 0,
            accuracy: None,
            deployed_version: None,
            degraded: None,
        };
        let mut degraded = DegradedRun::default();
        let tick = week_start_day;
        let vt = Self::vtick(week_start_day);
        let run_span = self
            .obs
            .tracer()
            .start("run-week", &[("region", region)], vt);
        self.obs
            .registry()
            .counter("seagull_pipeline_runs_total", &[("region", region)])
            .inc();

        // ---- Circuit-breaker gate --------------------------------------------
        // A region whose blob slice is hard-down stops burning retries: the
        // open breaker rejects runs until the cooldown admits a probe.
        if !self.breaker.allow(region, tick) {
            self.breaker.publish_region(self.obs.registry(), region);
            self.obs
                .registry()
                .counter("seagull_pipeline_blocked_total", &[("region", region)])
                .inc();
            degraded.skipped_by_breaker = true;
            report.blocked = true;
            report.degraded = degraded.into_option();
            self.obs.tracer().end(run_span, vt);
            self.store_run(&report);
            return report;
        }
        self.breaker.publish_region(self.obs.registry(), region);

        // ---- Data Ingestion -------------------------------------------------
        // Each stage entry is a kill-point: the chaos policy's kill hook can
        // terminate the process here, modelling a crash at a stage boundary.
        self.resilience.chaos.kill_point("ingestion", region, tick);
        let span = self.stage_span(run_span, "ingestion", region, vt);
        let key = BlobKey::extracted(region, week_start_day);
        let fetched = self.retry_stage("ingestion", region, tick, || {
            let blob = self.blobs.get(&key).map_err(|e| StageError::from_io(&e))?;
            // A decode failure is treated as transient: torn reads return a
            // truncated prefix — a CSV parse error or a columnar checksum
            // mismatch — and a re-read yields the full blob.
            let batch = RegionWeekBatch::decode(&blob)
                .map_err(|e| StageError::transient(format!("unreadable blob {key}: {e}")))?;
            Ok((blob.len() as u64, batch))
        });
        degraded.note("ingestion", &fetched);
        let batch = match fetched.outcome {
            Ok((bytes, batch)) => {
                report.input_bytes = bytes;
                // The breaker tracks the health of the region's blob slice.
                self.breaker.record_success(region, tick, &self.incidents);
                batch
            }
            Err(e) => {
                self.incidents.raise_keyed(
                    Severity::Critical,
                    "ingestion",
                    region,
                    format!("missing or unreadable input blob {key}"),
                    format!(
                        "missing or unreadable input blob {key} after {} attempt(s): {}",
                        fetched.attempts, e.message
                    ),
                );
                if e.transient {
                    // Infrastructure failure (outage, flakiness) — feed the
                    // breaker so a sustained outage trips it. Absent data
                    // (NotFound) is not an infrastructure signal.
                    self.breaker.record_failure(region, tick, &self.incidents);
                    degraded.exhausted_stages.push("ingestion".into());
                }
                self.breaker.publish_region(self.obs.registry(), region);
                self.obs
                    .registry()
                    .counter("seagull_pipeline_blocked_total", &[("region", region)])
                    .inc();
                report.blocked = true;
                self.finish_stage(&mut report, span, "ingestion", region, vt);
                report.degraded = degraded.into_option();
                self.obs.tracer().end(run_span, vt);
                self.store_run(&report);
                return report;
            }
        };
        self.breaker.publish_region(self.obs.registry(), region);
        // Columnar blobs yield zero-copy views into the shared decode buffer;
        // CSV rows are re-gridded into fresh series.
        let mut servers: Vec<ExtractedServer> = batch.extract(self.config.grid_min);
        report.servers = servers.len();
        self.finish_stage(&mut report, span, "ingestion", region, vt);

        // ---- Validation → features → train & infer ---------------------------
        // The middle of the run is mode-dispatched (see [`ExecMode`]): the
        // barrier path runs the classic per-stage batches; the dataflow
        // path fuses the per-server work into one operator chain each,
        // scheduled task-granularly. Both converge here, at the
        // train-deploy barrier, with byte-identical outputs.
        let mid = match self.config.exec {
            ExecMode::Barrier => self.mid_barrier(
                region,
                week_start_day,
                tick,
                vt,
                run_span,
                &mut report,
                &mut degraded,
                &batch,
                &mut servers,
            ),
            ExecMode::Dataflow => self.mid_dataflow(
                region,
                week_start_day,
                tick,
                vt,
                run_span,
                &mut report,
                &mut degraded,
                &batch,
                &mut servers,
            ),
        };
        let Some(MidStages {
            features,
            predictions,
            train_failed,
        }) = mid
        else {
            // Validation blocked the run: nothing downstream executes.
            self.obs
                .registry()
                .counter("seagull_pipeline_blocked_total", &[("region", region)])
                .inc();
            report.blocked = true;
            report.degraded = degraded.into_option();
            self.obs.tracer().end(run_span, vt);
            self.store_run(&report);
            return report;
        };

        // ---- Model Deployment --------------------------------------------------
        self.resilience.chaos.kill_point("deployment", region, tick);
        let span = self.stage_span(run_span, "deployment", region, vt);
        // The registry/endpoint mutation itself is infallible; the retried
        // gate models the external AML deployment call, which the
        // stage-fault hook can fail. Mutation happens only after the gate
        // passes so retries never double-deploy.
        let deploy_gate = self.retry_stage("deployment", region, tick, || Ok(()));
        degraded.note("deployment", &deploy_gate);
        if train_failed || deploy_gate.outcome.is_err() {
            // Keep serving the registry's last-known-good model: neither a
            // new version nor a new endpoint is published.
            if deploy_gate.outcome.is_err() {
                degraded.exhausted_stages.push("deployment".into());
            }
            degraded.fallback_deployed = true;
            let serving = self
                .registry
                .deployed(region)
                .map(|v| format!("v{} ({})", v.version, v.model_name))
                .unwrap_or_else(|| "no prior version".into());
            self.incidents.raise_keyed(
                Severity::Critical,
                "deployment",
                region,
                "deploy-failed",
                format!(
                    "model deployment failed in week starting day {week_start_day}; \
                     serving last-known-good: {serving}"
                ),
            );
            // The serving layer keeps its last published (known-good)
            // snapshot for this region: no swap happens.
            if let Some(sink) = &self.deploy_sink {
                sink.on_fallback(region, week_start_day);
            }
        } else {
            let model_name = self.config.forecaster.name();
            let version = self.registry.deploy(region, model_name, week_start_day);
            self.endpoints
                .publish(region, Arc::clone(&self.config.forecaster));
            report.deployed_version = Some(version);
            if let Some(sink) = &self.deploy_sink {
                sink.on_deploy(&DeployEvent {
                    region,
                    version,
                    week_start_day,
                    model_name,
                    predictions: &predictions,
                    cache: self.config.warm_cache.then_some(&*self.cache),
                });
            }
        }
        self.finish_stage(&mut report, span, "deployment", region, vt);

        // ---- Accuracy Evaluation ------------------------------------------------
        // Score the predictions stored by previous runs against the true load
        // that arrived in this week's data.
        self.resilience
            .chaos
            .kill_point("accuracy-eval", region, tick);
        let span = self.stage_span(run_span, "accuracy-eval", region, vt);
        let (eval_rows, eval_profile): (Vec<Option<AccuracyDoc>>, _) =
            parallel_map_profiled(&servers, self.config.threads, |s| {
                let day = backup_day_for_extracted(s, week_start_day);
                let id = PredictionDoc::doc_id(region, s.id.0, day);
                let doc: PredictionDoc = self.docs.get(collections::PREDICTIONS, &id).ok()?;
                let truth = s.series.day(day)?;
                let duration_min = doc.duration_min.max(self.config.grid_min as i64) as u32;
                let eval = evaluate_low_load(
                    &truth,
                    &doc.into_series(),
                    duration_min,
                    &self.config.evaluation.accuracy,
                )?;
                Some(AccuracyDoc {
                    region: region.to_string(),
                    server_id: s.id.0,
                    day,
                    window_correct: eval.window_correct,
                    load_accurate: eval.load_accurate,
                    window_bucket_ratio: eval.window_bucket_ratio,
                })
            });
        eval_profile.record(self.obs.registry(), "accuracy-eval");
        // Announce served-vs-actual scores to the online accuracy monitor
        // before flattening: eval rows index-align with `servers` (and thus
        // `features`), which is where the classification labels live. A
        // server whose fused operator panicked has no features and is
        // skipped (it has no fresh prediction either way).
        if let Some(sink) = &self.accuracy_sink {
            let scores: Vec<ScoredPrediction> = eval_rows
                .iter()
                .zip(&features)
                .filter_map(|(row, f)| match (row, f) {
                    (Some(e), Some(f)) => Some(ScoredPrediction {
                        server_id: e.server_id,
                        day: e.day,
                        class: f.pattern.label(),
                        window_correct: e.window_correct,
                        load_accurate: e.load_accurate,
                        window_bucket_ratio: e.window_bucket_ratio,
                    }),
                    _ => None,
                })
                .collect();
            if !scores.is_empty() {
                sink.on_scores(region, week_start_day, &scores);
            }
        }
        let evals: Vec<AccuracyDoc> = eval_rows.into_iter().flatten().collect();
        report.evaluations = evals.len();
        if !evals.is_empty() {
            let n = evals.len() as f64;
            let wc = 100.0 * evals.iter().filter(|e| e.window_correct).count() as f64 / n;
            let la = 100.0 * evals.iter().filter(|e| e.load_accurate).count() as f64 / n;
            report.accuracy = Some(AccuracySummary {
                servers: report.servers,
                evaluated: evals.len(),
                window_correct_pct: wc,
                load_accurate_pct: la,
            });
            for e in &evals {
                let id = format!("{region}/{}/{}", e.server_id, e.day);
                let _ = self.docs.upsert(collections::ACCURACY, &id, e);
            }
            // Feed the registry; the fallback rule compares against the last
            // known good version and raises an incident on regression. A run
            // that kept the last-known-good model has no new version to score.
            if let Some(version) = report.deployed_version {
                self.registry.record_accuracy(
                    region,
                    version,
                    ModelAccuracy {
                        window_correct_pct: wc,
                        load_accurate_pct: la,
                        predictable_pct: 0.0,
                    },
                );
                self.registry.maybe_fallback(
                    region,
                    self.config.fallback_tolerance,
                    &self.incidents,
                );
            }
        }
        self.finish_stage(&mut report, span, "accuracy-eval", region, vt);

        // Run-level outcome counters (all deterministic, hence stable).
        let registry = self.obs.registry();
        let region_label = [("region", region)];
        registry
            .counter("seagull_predictions_written_total", &region_label)
            .add(report.predictions_written as u64);
        registry
            .counter("seagull_evaluations_total", &region_label)
            .add(report.evaluations as u64);
        registry
            .counter("seagull_anomalies_total", &region_label)
            .add(report.anomalies as u64);
        self.obs.tracer().end(run_span, vt);

        report.degraded = degraded.into_option();
        self.store_run(&report);
        report
    }

    fn store_run(&self, report: &PipelineRunReport) {
        let id = format!("{}/{}", report.region, report.week_start_day);
        let _ = self.docs.upsert(collections::RUNS, &id, report);
    }

    /// Fits one server's model and materializes its backup-day prediction —
    /// the per-server body of the train-infer stage, shared verbatim by the
    /// barrier and dataflow execution paths.
    ///
    /// With the warm cache on, the server first looks up its cached fitted
    /// model (read-only, safe inside a parallel region); a hit skips the
    /// fit and re-anchors the cached prediction by a whole-week shift. The
    /// returned [`CacheOutcome`] is the deferred write side: the caller
    /// commits fresh fits and hit recency serially in item order after the
    /// join, so cache state never depends on worker interleaving.
    ///
    /// `Err` carries the `(server_id, reason)` poison record; too little
    /// history is the normal young-server case and yields `Ok((None, _))`.
    fn fit_server(
        &self,
        s: &ExtractedServer,
        class: &'static str,
        region: &str,
        next_week: i64,
    ) -> FitOutcome {
        let path = self.fit_path(s, class, region);
        self.finish_fit(s, class, region, next_week, &path, &mut None)
    }

    /// Resolves how a server's fit will be served: a warm-cache probe (one
    /// counted lookup) when the cache is on, else a plain cold fit. Safe to
    /// call from inside a parallel region; the probe is read-only.
    fn fit_path(&self, s: &ExtractedServer, class: &str, region: &str) -> FitPath {
        if !self.config.warm_cache {
            return FitPath::Bypass;
        }
        let key = format!("{region}/{}", s.id.0);
        let fingerprint = series_fingerprint(&s.series);
        match self.cache.lookup(&key, fingerprint, class, &s.series) {
            Lookup::Hit(hit) => FitPath::Hit(hit, key),
            Lookup::Miss(_) => FitPath::Miss { key, fingerprint },
        }
    }

    /// Completes one server's train-infer item for an already-resolved
    /// [`FitPath`]. On the cold paths a pre-computed fit (from a shape
    /// batch) is consumed from `prefit` when present — its results are
    /// bitwise identical to a solo fit by the [`Forecaster::fit_batch`]
    /// contract — otherwise the forecaster fits here. Returns the
    /// prediction doc, the cache consequence, and the fit-kernel label of
    /// any cold fit that ran.
    fn finish_fit(
        &self,
        s: &ExtractedServer,
        class: &'static str,
        region: &str,
        next_week: i64,
        path: &FitPath,
        prefit: &mut Option<Prefit>,
    ) -> FitOutcome {
        let grid = self.config.grid_min;
        let points_per_day = (seagull_timeseries::MINUTES_PER_DAY / grid as i64) as usize;
        // The server's backup day next week.
        let backup_day = s.default_backup_start.day_index() + 7;
        let horizon_days = (backup_day + 1 - next_week).max(1) as usize;
        let horizon = horizon_days * points_per_day;
        let doc_of = |pred: TimeSeries| {
            pred.day(backup_day).map(|day| PredictionDoc {
                region: region.to_string(),
                server_id: s.id.0,
                day: backup_day,
                step_min: grid,
                values: day.into_values(),
                duration_min: s.default_backup_end - s.default_backup_start,
            })
        };
        if let FitPath::Hit(hit, key) = path {
            let shifted = hit
                .fitted
                .predict(horizon)
                .and_then(|p| p.shifted(hit.shift_min).map_err(ForecastError::Series));
            return match shifted {
                Ok(pred) => Ok((doc_of(pred), CacheOutcome::Hit(key.clone()), None)),
                Err(e) => Err((s.id.0, e.to_string())),
            };
        }
        // Cold fit (cache off or probe missed). Fit-then-predict rather
        // than `fit_predict` so the resolved kernel label is observable;
        // the bytes are identical.
        let fit_start = Instant::now();
        let (fit, fit_wall) = match prefit.take() {
            Some((fit, wall)) => (fit, wall),
            None => {
                let fit = self.config.forecaster.fit(&s.series);
                (fit, fit_start.elapsed())
            }
        };
        match fit {
            Ok(boxed) => {
                let kernel = boxed.fit_kernel();
                let fitted: Arc<dyn FittedModel> = Arc::from(boxed);
                match fitted.predict(horizon) {
                    Ok(pred) => {
                        let outcome = match path {
                            FitPath::Miss { key, fingerprint } => {
                                CacheOutcome::Fresh(Box::new(CacheUpdate::new(
                                    key.clone(),
                                    *fingerprint,
                                    class,
                                    Arc::clone(&fitted),
                                    &s.series,
                                    fit_wall,
                                )))
                            }
                            _ => CacheOutcome::Bypass,
                        };
                        Ok((doc_of(pred), outcome, Some(kernel)))
                    }
                    Err(ForecastError::InsufficientHistory { .. }) => {
                        Ok((None, CacheOutcome::Bypass, Some(kernel)))
                    }
                    Err(e) => Err((s.id.0, e.to_string())),
                }
            }
            // Too little history is the normal young-server case.
            Err(ForecastError::InsufficientHistory { .. }) => {
                Ok((None, CacheOutcome::Bypass, None))
            }
            // Anything else is poison input or a broken model.
            Err(e) => Err((s.id.0, e.to_string())),
        }
    }

    /// Runs one same-shape fit batch as a single pool task: per-server
    /// prep (validate → gap-fill → featurize → cache probe), one shared
    /// [`Forecaster::fit_batch`] kernel invocation for the members that
    /// need a cold fit, then each server's retry loop and finish.
    ///
    /// Panic isolation stays per-server throughout: every phase that runs
    /// model or validation code for one server runs under its own
    /// [`isolate`], and a panic inside the *shared* fit invocation simply
    /// discards the batch results so every member falls back to a solo fit
    /// under its own isolation — a poison server quarantines alone even
    /// mid-batch. Results are keyed by server index.
    fn run_fit_batch(
        &self,
        batch: &[usize],
        servers: &[ExtractedServer],
        region: &str,
        tick: i64,
        next_week: i64,
        server_validation: bool,
    ) -> Vec<(usize, Result<FusedServerOutcome, String>)> {
        let base_seed = stage_seed(self.resilience.seed, "train-infer", region, tick);
        let chaos = &self.resilience.chaos;
        let retry = &self.resilience.retry;

        struct Prep {
            filled: ExtractedServer,
            anomaly: Option<Anomaly>,
            features: ServerFeatures,
            class: &'static str,
            path: FitPath,
            featurize_wall: Duration,
        }

        // Phase 1: per-server prep. The cache probe is counted here, once
        // per server, so batch membership below reflects real cold fits.
        let prepared: Vec<(usize, Result<Prep, String>)> = batch
            .iter()
            .map(|&i| {
                let s = &servers[i];
                let prep = isolate(|| {
                    let feat_start = Instant::now();
                    let anomaly = if server_validation {
                        validate_server(s, &self.config.profile)
                    } else {
                        None
                    };
                    // Repair tolerated gaps locally; the filled series is
                    // written back at the absorb barrier so accuracy
                    // evaluation sees the same repaired input the barrier
                    // path produces.
                    let mut series = s.series.clone();
                    seagull_timeseries::fill_gaps(&mut series, GapFill::Linear);
                    let filled = ExtractedServer {
                        id: s.id,
                        series,
                        default_backup_start: s.default_backup_start,
                        default_backup_end: s.default_backup_end,
                    };
                    let features = extract_server_features(&filled, &self.config.classify);
                    let class = features.pattern.label();
                    let path = self.fit_path(&filled, class, region);
                    Prep {
                        filled,
                        anomaly,
                        features,
                        class,
                        path,
                        featurize_wall: feat_start.elapsed(),
                    }
                });
                (i, prep)
            })
            .collect();

        // Phase 2: one shared kernel invocation for the batch's cold fits.
        let cold: Vec<usize> = prepared
            .iter()
            .enumerate()
            .filter_map(|(slot, (_, prep))| match prep {
                Ok(p) if !matches!(p.path, FitPath::Hit(..)) => Some(slot),
                _ => None,
            })
            .collect();
        let mut prefits: Vec<Option<Prefit>> = prepared.iter().map(|_| None).collect();
        if cold.len() > 1 {
            let histories: Vec<&TimeSeries> = cold
                .iter()
                .map(|&slot| match &prepared[slot].1 {
                    Ok(p) => &p.filled.series,
                    Err(_) => unreachable!("cold slots come from prepared servers"),
                })
                .collect();
            let batch_start = Instant::now();
            if let Ok(fits) = isolate(|| self.config.forecaster.fit_batch(&histories)) {
                // Even wall split: it only feeds volatile timing metrics
                // and the cache's saved-wall credit.
                let share = batch_start.elapsed() / cold.len() as u32;
                for (&slot, fit) in cold.iter().zip(fits) {
                    prefits[slot] = Some((fit, share));
                }
            }
        }

        // Phase 3: per-server retry loop and finish. The stage-level chaos
        // hook and the server-granular hook both inject ahead of the real
        // fit, and a transient fault burns only this server's retry
        // budget; the pre-computed batch fit is consumed by the first
        // non-injected attempt (later attempts refit solo — identical
        // bytes). The seed mixes the server id so jitter schedules are
        // independent.
        prepared
            .into_iter()
            .zip(prefits)
            .map(|((i, prep), mut prefit)| {
                let s = &servers[i];
                let out = match prep {
                    Err(msg) => Err(msg),
                    Ok(p) => isolate(move || {
                        let model_start = Instant::now();
                        let seed = base_seed ^ s.id.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        let fitted = retry.run(seed, |attempt| {
                            if chaos.should_fail("train-infer", region, tick, attempt)
                                || chaos.should_fail_server(
                                    "train-infer",
                                    region,
                                    s.id.0,
                                    tick,
                                    attempt,
                                )
                            {
                                return Err(StageError::transient(format!(
                                    "injected train-infer fault (attempt {attempt})"
                                )));
                            }
                            self.finish_fit(
                                &p.filled,
                                p.class,
                                region,
                                next_week,
                                &p.path,
                                &mut prefit,
                            )
                            .map_err(|(_, reason)| StageError::permanent(reason))
                        });
                        let model_wall = model_start.elapsed();
                        let retries = fitted.attempts.saturating_sub(1);
                        let (prediction, cache, fit_kernel, poison, exhausted) =
                            match fitted.outcome {
                                Ok((doc, cache, kernel)) => (doc, cache, kernel, None, false),
                                Err(e) => {
                                    let reason = if e.transient {
                                        format!(
                                            "train-infer retries exhausted after {} attempt(s): {}",
                                            fitted.attempts, e.message
                                        )
                                    } else {
                                        e.message
                                    };
                                    (None, CacheOutcome::Bypass, None, Some(reason), e.transient)
                                }
                            };
                        FusedServerOutcome {
                            series: p.filled.series,
                            anomaly: p.anomaly,
                            features: p.features,
                            prediction,
                            cache,
                            fit_kernel,
                            poison,
                            retries,
                            backoff_ms: fitted.backoff_ms,
                            exhausted,
                            featurize_wall: p.featurize_wall,
                            model_wall,
                        }
                    }),
                };
                (i, out)
            })
            .collect()
    }

    /// Folds the run's cold-fit kernel labels into the stable metric
    /// `seagull_fit_kernel_total{region, kernel}` at the serial absorb, so
    /// the counts are deterministic and identical across execution modes.
    fn record_fit_kernels(&self, region: &str, counts: &BTreeMap<&'static str, u64>) {
        let registry = self.obs.registry();
        for (&kernel, &n) in counts {
            registry
                .counter(
                    "seagull_fit_kernel_total",
                    &[("region", region), ("kernel", kernel)],
                )
                .add(n);
        }
    }

    /// The barrier middle: validation, feature extraction, and
    /// training/inference as whole-fleet batch stages — every server
    /// completes a stage before any server enters the next. Retries,
    /// exhaustion, and injected faults are whole-stage on this path.
    /// Returns `None` when validation blocks the run.
    #[allow(clippy::too_many_arguments)]
    fn mid_barrier(
        &self,
        region: &str,
        week_start_day: i64,
        tick: i64,
        vt: u64,
        run_span: SpanId,
        report: &mut PipelineRunReport,
        degraded: &mut DegradedRun,
        batch: &RegionWeekBatch,
        servers: &mut [ExtractedServer],
    ) -> Option<MidStages> {
        // ---- Data Validation -------------------------------------------------
        self.resilience.chaos.kill_point("validation", region, tick);
        let span = self.stage_span(run_span, "validation", region, vt);
        let validated = self.retry_stage("validation", region, tick, || {
            Ok((
                validate_region_week(batch, &self.config.profile, self.config.max_anomaly_reports),
                validate_servers(servers, &self.config.profile),
            ))
        });
        degraded.note("validation", &validated);
        let mut blocked = false;
        match validated.outcome {
            Ok((batch_report, server_report)) => {
                report.anomalies = batch_report.anomalies.len() + server_report.anomalies.len();
                for a in batch_report
                    .anomalies
                    .iter()
                    .chain(&server_report.anomalies)
                {
                    self.raise_validation_anomaly(region, a);
                }
                blocked = batch_report.is_blocked() || server_report.is_blocked();
            }
            Err(e) => {
                // Degraded mode: run unvalidated rather than drop the week.
                degraded.exhausted_stages.push("validation".into());
                self.incidents.raise_keyed(
                    Severity::Warning,
                    "validation",
                    region,
                    "validation-skipped",
                    format!(
                        "validation skipped after {} attempt(s): {}",
                        validated.attempts, e.message
                    ),
                );
            }
        }
        // Repair tolerated gaps so downstream models see clean input.
        if !blocked {
            for s in servers.iter_mut() {
                seagull_timeseries::fill_gaps(&mut s.series, GapFill::Linear);
            }
        }
        self.finish_stage(report, span, "validation", region, vt);
        if blocked {
            return None;
        }

        // ---- Feature Extraction ----------------------------------------------
        self.resilience.chaos.kill_point("features", region, tick);
        let span = self.stage_span(run_span, "features", region, vt);
        let features = extract_features(servers, &self.config.classify);
        for f in &features {
            let id = format!("{region}/{}/{week_start_day}", f.server_id);
            let _ = self.docs.upsert(collections::FEATURES, &id, f);
        }
        self.finish_stage(report, span, "features", region, vt);

        // ---- Model Training & Inference ---------------------------------------
        // One model family serves the whole region (Section 5.4: a single
        // model for the entire fleet); per-server fitting happens inside
        // [`AmlPipeline::fit_server`]. Predictions target each server's
        // next backup day.
        self.resilience
            .chaos
            .kill_point("train-infer", region, tick);
        let span = self.stage_span(run_span, "train-infer", region, vt);
        let next_week = week_start_day + 7;
        let threads = self.config.threads;
        // Classification labels index-align with `servers` (extract_features
        // maps over them in order); the label is part of the cache key
        // semantics — a reclassified server must refit.
        let train_inputs: Vec<(&ExtractedServer, &'static str)> = servers
            .iter()
            .zip(&features)
            .map(|(s, f)| (s, f.pattern.label()))
            .collect();
        let trained = self.retry_stage("train-infer", region, tick, || {
            let (results, profile) =
                parallel_map_profiled(&train_inputs, threads, |&(s, class)| {
                    self.fit_server(s, class, region, next_week)
                });
            profile.record(self.obs.registry(), "train-infer");
            Ok(results)
        });
        degraded.note("train-infer", &trained);
        let mut train_failed = false;
        let mut predictions: Vec<PredictionDoc> = Vec::new();
        match trained.outcome {
            Ok(results) => {
                let mut poison: Vec<(u64, String)> = Vec::new();
                let mut updates: Vec<CacheUpdate> = Vec::new();
                let mut hit_keys: Vec<String> = Vec::new();
                let mut kernel_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
                for r in results {
                    match r {
                        Ok((doc, outcome, kernel)) => {
                            if let Some(doc) = doc {
                                predictions.push(doc);
                            }
                            if let Some(kernel) = kernel {
                                *kernel_counts.entry(kernel).or_insert(0) += 1;
                            }
                            match outcome {
                                CacheOutcome::Hit(key) => hit_keys.push(key),
                                CacheOutcome::Fresh(update) => updates.push(*update),
                                CacheOutcome::Bypass => {}
                            }
                        }
                        Err(p) => poison.push(p),
                    }
                }
                if self.config.warm_cache {
                    // Serial, item-ordered commit: deterministic recency.
                    self.cache.commit(vt, updates, &hit_keys);
                }
                self.record_fit_kernels(region, &kernel_counts);
                self.quarantine_poison(region, week_start_day, degraded, poison);
            }
            Err(e) => {
                train_failed = true;
                degraded.exhausted_stages.push("train-infer".into());
                self.incidents.raise_keyed(
                    Severity::Critical,
                    "train-infer",
                    region,
                    "train-failed",
                    format!(
                        "training failed after {} attempt(s): {}",
                        trained.attempts, e.message
                    ),
                );
            }
        }

        report.predictions_written = self.write_predictions(region, tick, degraded, &predictions);
        self.finish_stage(report, span, "train-infer", region, vt);

        Some(MidStages {
            features: features.into_iter().map(Some).collect(),
            predictions,
            train_failed,
        })
    }

    /// The dataflow middle: batch-level validation, then one *fused*
    /// operator chain per server — validate → gap-fill → featurize → fit →
    /// predict — scheduled task-granularly on the worker pool and absorbed
    /// serially in server input order at the train-deploy barrier.
    ///
    /// Differences from [`AmlPipeline::mid_barrier`] are entirely in *when*
    /// work happens, never in *what* a clean run produces: its reports,
    /// documents, incidents, and stable export are byte-identical across
    /// the two paths (and across thread counts). Fault granularity does
    /// differ, deliberately: retries, exhaustion, and panics are
    /// per-server here — a poison server dead-letters only itself and can
    /// never fail the whole stage, so `train_failed` is always false on
    /// this path.
    #[allow(clippy::too_many_arguments)]
    fn mid_dataflow(
        &self,
        region: &str,
        week_start_day: i64,
        tick: i64,
        vt: u64,
        run_span: SpanId,
        report: &mut PipelineRunReport,
        degraded: &mut DegradedRun,
        batch: &RegionWeekBatch,
        servers: &mut [ExtractedServer],
    ) -> Option<MidStages> {
        // ---- Data Validation (batch-level) -------------------------------------
        // Per-server missing-data checks move into the fused operators; the
        // blocking decision must precede the fan-out, and only batch-level
        // anomalies (plus the empty-fleet guard) can block, so this part
        // stays a whole-batch step.
        self.resilience.chaos.kill_point("validation", region, tick);
        let span = self.stage_span(run_span, "validation", region, vt);
        let validated = self.retry_stage("validation", region, tick, || {
            Ok(validate_region_week(
                batch,
                &self.config.profile,
                self.config.max_anomaly_reports,
            ))
        });
        degraded.note("validation", &validated);
        let mut blocked = false;
        let mut server_validation = false;
        match validated.outcome {
            Ok(batch_report) => {
                server_validation = true;
                report.anomalies = batch_report.anomalies.len();
                for a in &batch_report.anomalies {
                    self.raise_validation_anomaly(region, a);
                }
                blocked = batch_report.is_blocked();
                if servers.is_empty() {
                    // An empty fleet can never reach the fused operators;
                    // surface the blocking EmptyInput here, exactly as the
                    // barrier path's whole-fleet validate_servers does.
                    let server_report = validate_servers(servers, &self.config.profile);
                    report.anomalies += server_report.anomalies.len();
                    for a in &server_report.anomalies {
                        self.raise_validation_anomaly(region, a);
                    }
                    blocked = blocked || server_report.is_blocked();
                }
            }
            Err(e) => {
                // Degraded mode: run unvalidated rather than drop the week
                // (the fused operators skip per-server validation too).
                degraded.exhausted_stages.push("validation".into());
                self.incidents.raise_keyed(
                    Severity::Warning,
                    "validation",
                    region,
                    "validation-skipped",
                    format!(
                        "validation skipped after {} attempt(s): {}",
                        validated.attempts, e.message
                    ),
                );
            }
        }
        self.finish_stage(report, span, "validation", region, vt);
        if blocked {
            return None;
        }

        // ---- Fused per-server operators ----------------------------------------
        // Both stage kill-points fire serially at the fan-out boundary so
        // crash-recovery semantics match the barrier path; so do the stage
        // spans, created in barrier order (features before train-infer) and
        // finished retroactively, which keeps stable span ids identical.
        self.resilience.chaos.kill_point("features", region, tick);
        let features_span = self.stage_span(run_span, "features", region, vt);
        self.resilience
            .chaos
            .kill_point("train-infer", region, tick);
        let fused_span = self.stage_span(run_span, "train-infer", region, vt);
        let next_week = week_start_day + 7;

        // Group same-shape servers (in input order) into fit batches: each
        // batch is one pool task whose cold fits run through one shared
        // [`Forecaster::fit_batch`] kernel invocation. `fit_batch = 1`
        // degenerates to one server per task.
        let cap = self.config.fit_batch.max(1);
        let mut batches: Vec<Vec<usize>> = Vec::new();
        let mut open: BTreeMap<(usize, u32), usize> = BTreeMap::new();
        for (i, s) in servers.iter().enumerate() {
            let shape = (s.series.len(), s.series.step_min());
            match open.get(&shape) {
                Some(&b) if batches[b].len() < cap => batches[b].push(i),
                _ => {
                    open.insert(shape, batches.len());
                    batches.push(vec![i]);
                }
            }
        }
        let (batch_results, profile) = parallel_map_tasks(&batches, self.config.threads, |batch| {
            self.run_fit_batch(batch, servers, region, tick, next_week, server_validation)
        });

        // Flatten back into server input order. A panic that escapes a
        // whole batch task (outside the per-server isolation inside
        // [`AmlPipeline::run_fit_batch`]) poisons every member.
        let mut results: Vec<Option<Result<FusedServerOutcome, String>>> =
            (0..servers.len()).map(|_| None).collect();
        for (batch, outcome) in batches.iter().zip(batch_results) {
            match outcome {
                Ok(per_server) => {
                    for (i, r) in per_server {
                        results[i] = Some(r);
                    }
                }
                Err(msg) => {
                    for &i in batch {
                        results[i] = Some(Err(msg.clone()));
                    }
                }
            }
        }

        // ---- Deterministic absorb ----------------------------------------------
        // Everything order-sensitive — incidents, docs, cache commits, span
        // records, metric folds — happens here, serially, in server input
        // order, so outputs are independent of worker interleaving.
        profile.record(self.obs.registry(), "train-infer");
        // The fan-out above is per *batch*, but `seagull_parallel_items_total`
        // is a stable metric that counts servers on the barrier path — top
        // it up by the difference so cross-mode exports stay byte-identical.
        self.obs
            .registry()
            .counter("seagull_parallel_items_total", &[("stage", "train-infer")])
            .add((servers.len() - batches.len()) as u64);
        let tracer = self.obs.tracer();
        let mut features: Vec<Option<ServerFeatures>> = Vec::with_capacity(servers.len());
        let mut predictions: Vec<PredictionDoc> = Vec::new();
        let mut updates: Vec<CacheUpdate> = Vec::new();
        let mut hit_keys: Vec<String> = Vec::new();
        let mut poison: Vec<(u64, String)> = Vec::new();
        let mut kernel_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut total_retries = 0u32;
        let mut total_backoff = 0u64;
        let mut exhausted_servers = 0u64;
        let mut featurize_wall = Duration::ZERO;
        for (i, result) in results.into_iter().enumerate() {
            let server_id = servers[i].id.0;
            let result = result.expect("every server slot is filled by its batch");
            match result {
                Ok(out) => {
                    servers[i].series = out.series;
                    if let Some(a) = &out.anomaly {
                        report.anomalies += 1;
                        self.raise_validation_anomaly(region, a);
                    }
                    let id = format!("{region}/{server_id}/{week_start_day}");
                    let _ = self.docs.upsert(collections::FEATURES, &id, &out.features);
                    features.push(Some(out.features));
                    let sid = server_id.to_string();
                    tracer.child_complete(
                        fused_span,
                        "fused-op",
                        &[("region", region), ("server", &sid)],
                        vt,
                        vt,
                        out.featurize_wall + out.model_wall,
                    );
                    featurize_wall += out.featurize_wall;
                    total_retries += out.retries;
                    total_backoff += out.backoff_ms;
                    if out.exhausted {
                        exhausted_servers += 1;
                    }
                    if let Some(reason) = out.poison {
                        poison.push((server_id, reason));
                    } else if let Some(doc) = out.prediction {
                        predictions.push(doc);
                    }
                    if let Some(kernel) = out.fit_kernel {
                        *kernel_counts.entry(kernel).or_insert(0) += 1;
                    }
                    match out.cache {
                        CacheOutcome::Hit(key) => hit_keys.push(key),
                        CacheOutcome::Fresh(update) => updates.push(*update),
                        CacheOutcome::Bypass => {}
                    }
                }
                Err(panic_msg) => {
                    // Per-server panic isolation: the panicking operator
                    // quarantines only its own server — no features, no
                    // prediction, unfilled series; siblings are untouched.
                    features.push(None);
                    poison.push((server_id, format!("fused operator panicked: {panic_msg}")));
                }
            }
        }
        if self.config.warm_cache {
            // Serial, item-ordered commit: deterministic recency.
            self.cache.commit(vt, updates, &hit_keys);
        }
        self.record_fit_kernels(region, &kernel_counts);

        // Fold per-server retry accounting into the same stage-level series
        // the barrier path records through its observed retry wrapper: one
        // virtual stage attempt plus every per-server retry, so a clean
        // run's stable export is byte-identical across execution modes.
        let labels = [("region", region), ("stage", "train-infer")];
        let registry = self.obs.registry();
        registry
            .counter("seagull_retry_attempts_total", &labels)
            .add(1 + u64::from(total_retries));
        if total_retries > 0 {
            registry
                .counter("seagull_retries_total", &labels)
                .add(u64::from(total_retries));
            registry
                .histogram("seagull_retry_backoff_ms", &labels)
                .observe(total_backoff as f64);
            *degraded
                .retries
                .entry("train-infer".to_string())
                .or_insert(0) += total_retries;
            degraded.backoff_ms += total_backoff;
        }
        if exhausted_servers > 0 {
            // Counts exhausted retry units: whole stages on the barrier
            // path, individual servers here — the stage itself never fails.
            registry
                .counter("seagull_retry_exhausted_total", &labels)
                .add(exhausted_servers);
        }
        self.quarantine_poison(region, week_start_day, degraded, poison);

        // The features stage is priced at the summed per-server featurize
        // walls and finishes (retroactively) before train-infer, keeping
        // the `report.stages` execution-order contract.
        self.finish_stage_with_wall(
            report,
            features_span,
            "features",
            region,
            vt,
            featurize_wall,
        );

        report.predictions_written = self.write_predictions(region, tick, degraded, &predictions);
        self.finish_stage(report, fused_span, "train-infer", region, vt);

        Some(MidStages {
            features,
            predictions,
            train_failed: false,
        })
    }

    /// Quarantines poison servers to the dead-letter list and raises the
    /// keyed incident; shared by both execution modes so documents and
    /// incident strings stay identical. No-op on an empty list.
    fn quarantine_poison(
        &self,
        region: &str,
        week_start_day: i64,
        degraded: &mut DegradedRun,
        mut poison: Vec<(u64, String)>,
    ) {
        if poison.is_empty() {
            return;
        }
        // Skip-and-quarantine: poison batches go to the dead-letter list;
        // the rest of the region proceeds.
        poison.sort_by_key(|(id, _)| *id);
        for (server_id, reason) in &poison {
            let id = DeadLetterDoc::doc_id(region, *server_id, week_start_day);
            let _ = self.docs.upsert(
                collections::DEAD_LETTER,
                &id,
                &DeadLetterDoc {
                    region: region.to_string(),
                    server_id: *server_id,
                    week_start_day,
                    stage: "train-infer".into(),
                    reason: reason.clone(),
                },
            );
        }
        degraded.quarantined_servers = poison.into_iter().map(|(id, _)| id).collect();
        self.incidents.raise_keyed(
            Severity::Warning,
            "train-infer",
            region,
            "poison-batch",
            format!(
                "{} poison server batch(es) quarantined to dead-letter in week \
                 starting day {week_start_day}",
                degraded.quarantined_servers.len()
            ),
        );
    }

    /// Persists predictions (the docstore-write sub-step), retried as a
    /// unit: upserts are idempotent, so a mid-write fault just replays the
    /// batch. Returns the number written (zero when retries exhausted).
    fn write_predictions(
        &self,
        region: &str,
        tick: i64,
        degraded: &mut DegradedRun,
        predictions: &[PredictionDoc],
    ) -> usize {
        let written = self.retry_stage("docstore-write", region, tick, || {
            let mut n = 0usize;
            for doc in predictions {
                let id = PredictionDoc::doc_id(region, doc.server_id, doc.day);
                self.docs
                    .upsert(collections::PREDICTIONS, &id, doc)
                    .map_err(|e| StageError::permanent(format!("docstore upsert {id}: {e}")))?;
                n += 1;
            }
            Ok(n)
        });
        degraded.note("docstore-write", &written);
        match written.outcome {
            Ok(n) => n,
            Err(e) => {
                degraded.exhausted_stages.push("docstore-write".into());
                self.incidents.raise_keyed(
                    Severity::Warning,
                    "docstore-write",
                    region,
                    "predictions-dropped",
                    format!(
                        "failed to persist predictions after {} attempt(s): {}",
                        written.attempts, e.message
                    ),
                );
                0
            }
        }
    }

    /// Runs one week for every region, fanning the regions out across the
    /// worker pool (each region's per-server stages then share the same
    /// pool via nested parallel maps).
    ///
    /// Every region executes against a scratch [`Obs`] handle and a
    /// recording [`IncidentManager`]; the other services (doc store, model
    /// registry, breaker, warm cache) are shared, and every cross-region
    /// touch point is region-keyed, so concurrent runs cannot observe each
    /// other. After the join the scratch handles are absorbed in region
    /// *input* order, which makes metrics, span ids, and the incident log —
    /// and therefore [`Obs::stable_export`] — byte-identical regardless of
    /// thread count or completion order. Reports come back in region input
    /// order.
    pub fn run_fleet_week(
        &self,
        regions: &[String],
        week_start_day: i64,
    ) -> Vec<PipelineRunReport> {
        self.run_fleet_week_with(regions, week_start_day, |_, _| {})
    }

    /// [`AmlPipeline::run_fleet_week`] with a per-region completion callback.
    ///
    /// `on_region_done(i, report)` fires on the worker thread immediately
    /// after region `regions[i]` finishes its run, before the fleet-wide
    /// join. [`FleetRunner`](crate::fleet::FleetRunner) uses it to persist
    /// per-region checkpoint markers the moment a region completes, so a
    /// crash mid-fleet loses only the regions still in flight. The callback
    /// may run concurrently for different regions and must be cheap; it is
    /// not called for regions whose worker panicked.
    pub fn run_fleet_week_with(
        &self,
        regions: &[String],
        week_start_day: i64,
        on_region_done: impl Fn(usize, &PipelineRunReport) + Sync,
    ) -> Vec<PipelineRunReport> {
        let scratch: Vec<AmlPipeline> = regions
            .iter()
            .map(|_| AmlPipeline {
                obs: Obs::new(),
                incidents: IncidentManager::recording(),
                ..self.clone()
            })
            .collect();
        let indices: Vec<usize> = (0..regions.len()).collect();
        let reports = parallel_map(&indices, self.config.threads, |&i| {
            let report = scratch[i].run_region_week(&regions[i], week_start_day);
            on_region_done(i, &report);
            report
        });
        for view in &scratch {
            self.obs.absorb(&view.obs);
            self.incidents.absorb(&view.incidents);
        }
        // Orchestrator barrier: evictions and the metrics mirror run once,
        // after every region committed, so they see the same cache state no
        // matter how the week was scheduled.
        if self.config.warm_cache {
            self.cache.evict_to_capacity();
            self.export_cache_metrics();
        }
        reports
    }

    /// Mirrors the warm cache's counters into the metrics registry.
    ///
    /// Uses idempotent stores (not increments) because the cache is shared
    /// across every pipeline clone: exporting at the orchestrator barrier
    /// keeps the registry consistent even though per-region scratch
    /// registries are absorbed additively.
    pub fn export_cache_metrics(&self) {
        let stats = self.cache.stats();
        let registry = self.obs.registry();
        registry
            .counter("seagull_model_cache_hits_total", &[])
            .store(stats.hits);
        // Similarity-keyed reuses are counted apart from exact-bytes hits so
        // the accuracy monitor can veto the similarity path independently.
        registry
            .counter("seagull_model_cache_similarity_hits_total", &[])
            .store(stats.hits_similarity);
        for (reason, n) in [
            ("cold", stats.misses_cold),
            ("fingerprint", stats.invalidated_fingerprint),
            ("class", stats.invalidated_class),
            ("drift", stats.invalidated_drift),
        ] {
            registry
                .counter("seagull_model_cache_misses_total", &[("reason", reason)])
                .store(n);
        }
        registry
            .counter("seagull_model_cache_evictions_total", &[])
            .store(stats.evictions);
        registry
            .gauge("seagull_model_cache_entries", &[])
            .set(self.cache.len() as f64);
        registry
            .gauge("seagull_model_cache_hit_rate", &[])
            .set(stats.hit_rate());
        // Wall-clock derived, hence volatile (excluded from stable exports).
        registry
            .gauge_with(
                "seagull_model_cache_saved_wall_seconds",
                &[],
                Stability::Volatile,
            )
            .set(stats.saved_wall.as_secs_f64());
    }

    /// The weekly scheduler: runs every region for each week in order,
    /// returning all run reports (Section 2.2's Pipeline Scheduler on a
    /// simulated clock). Weeks are sequential barriers; the regions within
    /// a week run through [`AmlPipeline::run_fleet_week`], whose
    /// deterministic merge keeps the outputs identical to a fully
    /// sequential schedule.
    pub fn run_schedule(
        &self,
        regions: &[String],
        week_start_days: &[i64],
    ) -> Vec<PipelineRunReport> {
        let mut reports = Vec::with_capacity(regions.len() * week_start_days.len());
        for &week in week_start_days {
            reports.extend(self.run_fleet_week(regions, week));
        }
        reports
    }
}

/// Runs `f` with per-call panic isolation: an ordinary panic becomes an
/// `Err` carrying its message, while [`InjectedCrash`] payloads (chaos kill
/// points simulating process death) are re-raised so crash-recovery tests
/// still observe a dying process. Mirrors the isolation contract of
/// [`parallel_map_tasks`] for code that runs *inside* a multi-server task.
fn isolate<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => Ok(r),
        Err(payload) => {
            if payload.is::<InjectedCrash>() {
                std::panic::resume_unwind(payload);
            }
            Err(crate::par::panic_message(payload.as_ref()))
        }
    }
}

/// The backup day encoded in a server's extracted default window, normalized
/// into the given week.
fn backup_day_for_extracted(s: &ExtractedServer, week_start_day: i64) -> i64 {
    let d = s.default_backup_start.day_index();
    week_start_day + (d - week_start_day).rem_euclid(7)
}

/// Re-export used by experiments to derive backup days from fleet metadata.
pub use crate::evaluate::backup_day_in_week as fleet_backup_day_in_week;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::{BreakerState, StageChaos};
    use seagull_telemetry::blobstore::MemoryBlobStore;
    use seagull_telemetry::extract::LoadExtraction;
    use seagull_telemetry::fleet::{FleetGenerator, FleetSpec};

    fn setup(servers: usize, weeks: usize) -> (AmlPipeline, i64) {
        let mut spec = FleetSpec::small_region(91);
        spec.regions[0].servers = servers;
        let start = spec.start_day;
        let fleet = FleetGenerator::new(spec).generate_weeks(weeks);
        let store = Arc::new(MemoryBlobStore::new());
        let weeks_days: Vec<i64> = (0..weeks as i64).map(|w| start + 7 * w).collect();
        LoadExtraction::default()
            .run(&fleet, &["region-a".into()], &weeks_days, store.as_ref())
            .unwrap();
        (AmlPipeline::new(PipelineConfig::production(), store), start)
    }

    /// Cache keys must not move: the streamed fingerprint is the checksum of
    /// the buffer it used to build (step word, then each quantized sample),
    /// gaps, unquantized gap-filled values and signed zeros included.
    #[test]
    fn series_fingerprint_is_the_checksum_of_the_old_buffer() {
        use seagull_telemetry::columnar::checksum64;
        let samples = [
            12.345,
            0.0,
            -0.0,
            f64::NAN,
            99.995,
            33.333_333_333_333_336,
            1e7,
        ];
        for len in [0, 1, 7, 2016] {
            let values: Vec<f64> = (0..len).map(|i| samples[i % samples.len()]).collect();
            for step in [5u32, 15] {
                let series = TimeSeries::new(Timestamp::from_days(3), step, values.clone())
                    .expect("grid-aligned start");
                let mut bytes = Vec::with_capacity(8 + series.len() * 8);
                bytes.extend_from_slice(&u64::from(series.step_min()).to_le_bytes());
                for &v in series.values() {
                    bytes.extend_from_slice(&csv_quantized(v).to_le_bytes());
                }
                assert_eq!(series_fingerprint(&series), checksum64(&bytes));
            }
        }
    }

    #[test]
    fn single_run_produces_stages_and_predictions() {
        let (pipeline, start) = setup(30, 1);
        let report = pipeline.run_region_week("region-a", start);
        assert!(!report.blocked);
        assert!(report.servers > 0);
        assert!(report.input_bytes > 0);
        let stage_names: Vec<&str> = report.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(
            stage_names,
            vec![
                "ingestion",
                "validation",
                "features",
                "train-infer",
                "deployment",
                "accuracy-eval"
            ]
        );
        assert!(report.predictions_written > 0);
        assert_eq!(report.deployed_version, Some(1));
        // First run: no prior predictions, so nothing to evaluate.
        assert_eq!(report.evaluations, 0);
        assert!(pipeline.docs.count(collections::FEATURES) > 0);
        assert_eq!(
            pipeline.docs.count(collections::PREDICTIONS),
            report.predictions_written
        );
        // A clean run carries no degradation summary and no retries.
        assert!(!report.is_degraded());
        assert_eq!(report.total_retries(), 0);
    }

    #[test]
    fn second_week_evaluates_first_weeks_predictions() {
        let (pipeline, start) = setup(40, 2);
        let r1 = pipeline.run_region_week("region-a", start);
        let r2 = pipeline.run_region_week("region-a", start + 7);
        assert!(r1.predictions_written > 0);
        assert!(
            r2.evaluations > 0,
            "week-2 run must score week-1 predictions"
        );
        let acc = r2.accuracy.expect("accuracy summary present");
        // Persistent forecast on a mostly-stable fleet is highly accurate.
        assert!(acc.window_correct_pct > 80.0, "{}", acc.window_correct_pct);
        assert!(pipeline.docs.count(collections::ACCURACY) > 0);
        assert_eq!(pipeline.registry.deployed("region-a").unwrap().version, 2);
    }

    #[test]
    fn missing_blob_blocks_and_raises() {
        let (pipeline, start) = setup(5, 1);
        let report = pipeline.run_region_week("ghost-region", start);
        assert!(report.blocked);
        assert_eq!(pipeline.incidents.open_count(Severity::Critical), 1);
        // Absent data is permanent: no retries are burned on it, and the
        // breaker (which tracks infrastructure health) stays closed.
        assert_eq!(report.total_retries(), 0);
        assert_eq!(pipeline.breaker.state("ghost-region"), BreakerState::Closed);
        // The blocked run is still recorded for the dashboard.
        assert_eq!(pipeline.docs.count(collections::RUNS), 1);
    }

    #[test]
    fn schedule_runs_all_cells() {
        let (pipeline, start) = setup(10, 2);
        let reports = pipeline.run_schedule(&["region-a".to_string()], &[start, start + 7]);
        assert_eq!(reports.len(), 2);
        assert_eq!(pipeline.docs.count(collections::RUNS), 2);
    }

    #[test]
    fn endpoint_published_after_run() {
        let (pipeline, start) = setup(10, 1);
        pipeline.run_region_week("region-a", start);
        assert!(pipeline.endpoints.resolve("region-a").is_some());
    }

    #[test]
    fn injected_stage_fault_is_retried_and_counted() {
        let (base, start) = setup(10, 1);
        // Fail the first two train-infer attempts; the third succeeds.
        let policy = ResiliencePolicy {
            chaos: StageChaos::from_fn(|stage, _, _, attempt| {
                stage == "train-infer" && attempt <= 2
            }),
            ..ResiliencePolicy::default()
        };
        // Whole-stage retry accounting is the barrier path's contract; the
        // dataflow path retries per server (covered below).
        let config = PipelineConfig {
            exec: ExecMode::Barrier,
            ..base.config
        };
        let pipeline = AmlPipeline::with_resilience(config, base.blobs, policy);
        let report = pipeline.run_region_week("region-a", start);
        assert!(!report.blocked);
        assert!(report.predictions_written > 0);
        let degraded = report.degraded.expect("retries recorded");
        assert_eq!(degraded.retries.get("train-infer"), Some(&2));
        assert!(degraded.backoff_ms > 0);
        assert!(degraded.exhausted_stages.is_empty());
    }

    #[test]
    fn dataflow_retries_injected_faults_per_server() {
        let (base, start) = setup(10, 1);
        let policy = ResiliencePolicy {
            chaos: StageChaos::from_fn(|stage, _, _, attempt| {
                stage == "train-infer" && attempt <= 2
            }),
            ..ResiliencePolicy::default()
        };
        let pipeline = AmlPipeline::with_resilience(base.config, base.blobs, policy);
        let report = pipeline.run_region_week("region-a", start);
        assert!(!report.blocked);
        assert!(report.predictions_written > 0);
        let degraded = report.degraded.expect("retries recorded");
        // Every server's fused operator burned two retries of its own
        // budget; the fold sums them into the stage entry.
        assert_eq!(
            degraded.retries.get("train-infer"),
            Some(&(2 * report.servers as u32))
        );
        assert!(degraded.backoff_ms > 0);
        assert!(degraded.exhausted_stages.is_empty());
        assert!(degraded.quarantined_servers.is_empty());
    }

    #[test]
    fn exhausted_deploy_keeps_last_known_good() {
        let (base, start) = setup(15, 2);
        let policy = ResiliencePolicy {
            // Deployment hard-fails, but only in week 2.
            chaos: StageChaos::from_fn(move |stage, _, tick, _| {
                stage == "deployment" && tick > start
            }),
            ..ResiliencePolicy::default()
        };
        let pipeline = AmlPipeline::with_resilience(base.config, base.blobs, policy);
        let r1 = pipeline.run_region_week("region-a", start);
        assert_eq!(r1.deployed_version, Some(1));
        let r2 = pipeline.run_region_week("region-a", start + 7);
        assert!(!r2.blocked, "deploy failure degrades, it does not block");
        assert_eq!(r2.deployed_version, None);
        let degraded = r2.degraded.expect("degradation recorded");
        assert!(degraded.fallback_deployed);
        assert!(degraded.exhausted_stages.contains(&"deployment".into()));
        // Version 1 is still the serving model.
        assert_eq!(pipeline.registry.deployed("region-a").unwrap().version, 1);
        assert!(pipeline.incidents.open_count(Severity::Critical) >= 1);
    }
}
