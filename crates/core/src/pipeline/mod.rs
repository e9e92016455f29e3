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
//! [`DocStore`]; validation anomalies and failed deploys raise incidents;
//! each run deploys a fresh model version, whose predictions the next run
//! scores.
//!
//! Every stage runs under [`retry`](crate::resilience::retry): transient
//! faults (storage timeouts, torn reads, outages) are retried at once, up to
//! a fixed attempt count, and exhausted retries degrade the run instead of
//! aborting it —
//! poison server batches are quarantined to a dead-letter list, a failed
//! deploy keeps the region's last published snapshot serving (the one
//! last-known-good; the registry still names its version), and the
//! run report carries a [`DegradedRun`] summary instead of an `Err`. A
//! per-region [`CircuitBreaker`] guards run entry so a region whose blob
//! slice is hard-down stops burning retries until a cooldown elapses.
//!
//! Every run is observed through the pipeline's [`Obs`] handle: each stage
//! runs inside a span (virtual tick = the scheduler's day index; wall time
//! captured by the tracer — the raw `Instant` timings are the fused
//! operator's, which no open span covers: each server's featurize and model
//! walls, and the per-fit cost the warm cache credits to its saved-wall
//! counter), retries feed
//! `(region, stage)`-labelled counters, stage walls feed histograms, the
//! circuit breaker publishes a per-region state gauge, and the parallel
//! stages record per-worker profiles. `StageTiming`/`stage_duration` are
//! derived from the finished spans, so existing reports keep working.
//!
//! The middle of the run — validation, feature extraction, training and
//! inference — is one fused operator chain per server — validate →
//! gap-fill → featurize → fit → predict — scheduled task-granularly by
//! [`parallel_map_tasks`](crate::par::parallel_map_tasks), so a straggler
//! server delays only itself while its siblings flow to completion. Results are absorbed serially in server
//! input order at the train-deploy barrier, which is why a run produces
//! byte-identical reports, documents, incidents, and stable exports at any
//! thread count. Deployment and accuracy evaluation stay serial barriers:
//! they mutate region-wide state (the model registry, the serving snapshot)
//! that must observe one consistent fleet.
//!
//! The module is split along those seams: this file holds the
//! configuration, [`AmlPipeline`] and [`AmlPipeline::run_region_week`];
//! `report` the run report and the stored document types; `sinks` the
//! deploy hook; `operator` the fused per-server operator, its
//! fit path and its absorb. The fleet fan-out over regions
//! ([`AmlPipeline::run_fleet_week`], [`AmlPipeline::run_schedule`]) lives
//! next to [`FleetRunner`](crate::fleet::FleetRunner) in [`crate::fleet`].

mod operator;
mod report;
mod sinks;

pub use report::{
    collections, AccuracyDoc, AccuracySummary, DeadLetterDoc, DegradedRun, GateState,
    PipelineRunReport, PredictionDoc, StageTiming, PREDICTABILITY_WEEKS,
};
pub use sinks::{DeployEvent, DeploySink};

use crate::docstore::{DocStore, DocStoreError};
use crate::incident::{IncidentManager, Severity};
use crate::metrics::{evaluate_low_load, AccuracyConfig};
use crate::par::{configured_threads, parallel_map_profiled};
use crate::registry::ModelRegistry;
use crate::resilience::{retry_observed, CircuitBreaker, RetryResult, StageChaos, StageError};
use crate::validation::DataProfile;
use seagull_forecast::{Forecaster, ModelCache, PersistentVariant};
use seagull_obs::{Obs, SpanId, Stability};
use seagull_telemetry::blobstore::{BlobKey, BlobStore};
use seagull_telemetry::columnar::ColumnarBatch;
use seagull_telemetry::extract::ExtractedServer;
use std::sync::Arc;
use std::time::Duration;

/// Cap on anomaly reports per kind per run.
const MAX_ANOMALY_REPORTS: usize = 20;

/// The expert-verified data profile every run validates against; its grid
/// is the one the run ingests, featurizes and predicts on.
pub const PROFILE: DataProfile = DataProfile::standard(5);

/// Pipeline configuration: the model and the threads. Everything else a run
/// applies is the paper's and fixed: [`PROFILE`], the classifier's
/// Definitions 2–6, the scorer's [`AccuracyConfig::default`] and the
/// [`PREDICTABILITY_WEEKS`] gate.
#[derive(Clone)]
pub struct PipelineConfig {
    /// The model trained/deployed each run.
    pub forecaster: Arc<dyn Forecaster>,
    /// Worker threads for the per-server stages and cross-region fan-out
    /// (1 = single-threaded).
    pub threads: usize,
}

impl PipelineConfig {
    /// The production configuration: persistent forecast (previous day),
    /// threads from [`configured_threads`] (the machine's
    /// available parallelism, overridable via `SEAGULL_THREADS`). Every
    /// server is predicted from yesterday's load, as Section 5.4 deploys
    /// it; the warm-model cache stays out of the run (see
    /// [`AmlPipeline::cache`]).
    pub fn production() -> PipelineConfig {
        PipelineConfig {
            forecaster: Arc::new(seagull_forecast::PersistentForecast::previous_day()),
            threads: configured_threads(),
        }
    }
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
    /// Each region's last successful deploy, numbered by the deployment
    /// stage.
    pub registry: ModelRegistry,
    /// Stage-fault and kill hooks (tests and chaos drills; none in
    /// production).
    pub chaos: StageChaos,
    /// Per-region breaker guarding run entry; ticks are day indices.
    pub breaker: CircuitBreaker,
    /// Observability handle: metrics registry + span tracer for every run.
    pub obs: Obs,
    /// Warm-model cache shared across runs and regions (see [`ModelCache`]).
    /// Keys are region-prefixed, so concurrent region runs touch disjoint
    /// entries. Only a forecaster whose fit costs more than a probe reads
    /// it: under the paper's persistent forecasts it stays empty (see
    /// [`PersistentVariant::named`]).
    pub cache: Arc<ModelCache>,
    /// Optional serving-layer hook, announced to on every deployment (see
    /// [`DeploySink`]). Shared across fleet scratch clones.
    pub deploy_sink: Option<Arc<dyn DeploySink>>,
}

impl AmlPipeline {
    /// Assembles a pipeline over the given blob store, with no injected
    /// stage faults.
    pub fn new(config: PipelineConfig, blobs: Arc<dyn BlobStore>) -> AmlPipeline {
        AmlPipeline {
            config,
            blobs,
            docs: DocStore::new(),
            incidents: IncidentManager::new(),
            registry: ModelRegistry::new(),
            chaos: StageChaos::none(),
            breaker: CircuitBreaker::new(),
            obs: Obs::new(),
            cache: Arc::new(ModelCache::new()),
            deploy_sink: None,
        }
    }

    /// Injects stage faults and kill-points per `chaos` (tests and chaos
    /// drills).
    pub fn with_chaos(mut self, chaos: StageChaos) -> AmlPipeline {
        self.chaos = chaos;
        self
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

    /// The warm-model cache, when the configured forecaster uses it: `None`
    /// for the paper's persistent forecasts, whose "fit" reads at most a
    /// week of load, less than the fingerprint and probe that would skip
    /// it. Decided by the forecaster's name, the identity every decorating
    /// forecaster forwards.
    pub(crate) fn model_cache(&self) -> Option<&ModelCache> {
        let persistent = PersistentVariant::named(self.config.forecaster.name()).is_some();
        (!persistent).then_some(&*self.cache)
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
    /// duration: the features stage is priced at the summed per-server
    /// featurize walls measured inside the fused operators, since no open
    /// span covers that interleaved work.
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

    /// Runs a stage closure under [`retry_observed`], with the stage-fault
    /// hook injected ahead of the real work.
    fn retry_stage<T>(
        &self,
        stage: &str,
        region: &str,
        tick: i64,
        mut op: impl FnMut() -> Result<T, StageError>,
    ) -> RetryResult<T> {
        retry_observed(self.obs.registry(), stage, region, |attempt| {
            if self.chaos.should_fail(stage, region, tick, attempt) {
                return Err(StageError::transient(format!(
                    "injected {stage} fault (attempt {attempt})"
                )));
            }
            op()
        })
    }

    /// Runs the weekly pipeline for one region: ingestion → validation →
    /// feature extraction → training & inference → accuracy evaluation (of
    /// the previous run's predictions, which moves each server's
    /// [`GateState`] one week on) → deployment (this run's predictions,
    /// stamped with the gate, are stored and published).
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
        // Each stage entry is a kill-point: the chaos kill hook can
        // terminate the process here, modelling a crash at a stage boundary.
        self.chaos.kill_point("ingestion", region, tick);
        let span = self.stage_span(run_span, "ingestion", region, vt);
        let key = BlobKey::extracted(region, week_start_day);
        let fetched = self.retry_stage("ingestion", region, tick, || {
            let blob = self.blobs.get(&key).map_err(|e| StageError::from_io(&e))?;
            // A torn read (a truncated prefix, a checksum mismatch) may read
            // whole on a retry; an intact blob that is foreign or malformed
            // reads the same every time.
            let batch = ColumnarBatch::decode(&blob).map_err(|e| {
                let message = format!("unreadable blob {key}: {e}");
                if e.is_torn() {
                    StageError::transient(message)
                } else {
                    StageError::permanent(message)
                }
            })?;
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
                    // Infrastructure failure (outage, flakiness, torn reads)
                    // — feed the breaker so a sustained outage trips it.
                    // Absent data (NotFound) and a foreign or malformed blob
                    // are not infrastructure signals.
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
        // Zero-copy views into the shared decode buffer; a block on another
        // grid is left out (validation reports it).
        let mut servers: Vec<ExtractedServer> = batch.extract(PROFILE.grid_min);
        report.servers = servers.len();
        self.finish_stage(&mut report, span, "ingestion", region, vt);

        // ---- Validation → features → train & infer ---------------------------
        // One fused operator chain per server, scheduled task-granularly
        // and absorbed in server input order (see `operator`); the run
        // resumes here, at the train-deploy barrier.
        let mid = self.mid_dataflow(
            region,
            week_start_day,
            tick,
            vt,
            run_span,
            &mut report,
            &mut degraded,
            &batch,
            &mut servers,
        );
        let Some(mut predictions) = mid else {
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

        // ---- Accuracy Evaluation ------------------------------------------------
        // Score the predictions stored by the previous run against the true
        // load that arrived in this week's data, and move each server's
        // Definition 9 gate one week on, before this week's predictions are
        // stamped with it, written and deployed.
        self.chaos.kill_point("accuracy-eval", region, tick);
        let span = self.stage_span(run_span, "accuracy-eval", region, vt);
        // A server with no stored prediction is skipped (`Ok(None)`); one
        // whose prediction cannot be scored — a value that is not finite, or
        // a document under its id that was written as another type — is
        // skipped and counted (`Err`). On the calling thread: an item is a
        // microsecond or two of document read and window search, less than
        // forking a helper costs.
        type Scored = Result<Option<(AccuracyDoc, GateState)>, ()>;
        let (eval_rows, eval_profile): (Vec<Scored>, _) = parallel_map_profiled(&servers, 1, |s| {
            let day = s.backup_day(week_start_day);
            let id = PredictionDoc::doc_id(region, s.id.0, day);
            let doc = match self
                .docs
                .get::<PredictionDoc>(collections::PREDICTIONS, &id)
            {
                Ok(doc) if doc.values.iter().all(|v| v.is_finite()) => doc,
                Ok(_non_finite) => return Err(()),
                Err(DocStoreError::NotFound { .. }) => return Ok(None),
                // `Codec` comes only from rendering a `Value` read.
                Err(DocStoreError::WrongType { .. } | DocStoreError::Codec(_)) => return Err(()),
            };
            let Some(truth) = s.series.day(day) else {
                return Ok(None);
            };
            let duration_min = doc.duration_min.max(PROFILE.grid_min as i64) as u32;
            let gate = doc.gate;
            let eval = evaluate_low_load(
                &truth,
                &doc.into_series(),
                duration_min,
                &AccuracyConfig::default(),
            );
            Ok(eval.map(|eval| {
                let gate = gate.next(Some(eval.window_correct && eval.load_accurate));
                let scored = AccuracyDoc {
                    region: region.to_string(),
                    server_id: s.id.0,
                    day,
                    window_correct: eval.window_correct,
                    load_accurate: eval.load_accurate,
                    window_bucket_ratio: eval.window_bucket_ratio,
                };
                (scored, gate)
            }))
        });
        eval_profile.record(self.obs.registry(), "accuracy-eval");
        let unscorable = eval_rows.iter().filter(|row| row.is_err()).count() as u64;
        if unscorable > 0 {
            self.obs
                .registry()
                .counter("seagull_accuracy_unscorable_total", &[("region", region)])
                .add(unscorable);
        }
        // Stamp each prediction with its server's gate after this week (a
        // week with nothing scored restarts it). The predictions are a
        // subsequence of `servers`, in order.
        let mut evals = Vec::new();
        let mut unstamped = predictions.iter_mut().peekable();
        for (s, row) in servers.iter().zip(eval_rows) {
            let (eval, gate) = row.ok().flatten().unzip();
            evals.extend(eval);
            if let Some(doc) = unstamped.next_if(|doc| doc.server_id == s.id.0) {
                doc.gate = gate.unwrap_or(GateState::CLOSED);
            }
        }
        report.evaluations = evals.len();
        if !evals.is_empty() {
            let verdicts = evals.iter().map(|e| (e.window_correct, e.load_accurate));
            report.accuracy = Some(AccuracySummary::from_verdicts(report.servers, verdicts));
            for e in &evals {
                let id = format!("{region}/{}/{}", e.server_id, e.day);
                self.docs.upsert(collections::ACCURACY, &id, e);
            }
        }
        self.finish_stage(&mut report, span, "accuracy-eval", region, vt);

        // ---- Model Deployment --------------------------------------------------
        // Persist the stamped predictions (the docstore-write sub-step), then
        // publish the version they belong to.
        self.chaos.kill_point("deployment", region, tick);
        let span = self.stage_span(run_span, "deployment", region, vt);
        report.predictions_written =
            self.write_predictions(region, tick, &mut degraded, &predictions);
        // The registry mutation itself is infallible; the retried
        // gate models the external AML deployment call, which the
        // stage-fault hook can fail. Mutation happens only after the gate
        // passes so retries never double-deploy.
        let deploy_gate = self.retry_stage("deployment", region, tick, || Ok(()));
        degraded.note("deployment", &deploy_gate);
        if deploy_gate.outcome.is_err() {
            // Keep serving the last published snapshot: no new version is
            // registered or published, so the registry still names it.
            degraded.exhausted_stages.push("deployment".into());
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
            report.deployed_version = Some(version);
            if let Some(sink) = &self.deploy_sink {
                sink.on_deploy(&DeployEvent {
                    region,
                    version,
                    week_start_day,
                    model_name,
                    predictions: &predictions,
                    cache: self.model_cache(),
                });
            }
        }
        self.finish_stage(&mut report, span, "deployment", region, vt);

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
            for doc in predictions {
                let id = PredictionDoc::doc_id(region, doc.server_id, doc.day);
                self.docs.upsert(collections::PREDICTIONS, &id, doc);
            }
            Ok(predictions.len())
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

    fn store_run(&self, report: &PipelineRunReport) {
        let id = format!("{}/{}", report.region, report.week_start_day);
        self.docs.upsert(collections::RUNS, &id, report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::ServerFeatures;
    use crate::resilience::{BreakerState, StageChaos};
    use seagull_telemetry::blobstore::MemoryBlobStore;
    use seagull_telemetry::extract::LoadExtraction;
    use seagull_telemetry::fleet::{FleetGenerator, FleetSpec};
    use seagull_timeseries::Timestamp;

    fn setup(servers: usize, weeks: usize) -> (AmlPipeline, i64) {
        let mut spec = FleetSpec::small_region(91);
        spec.regions[0].servers = servers;
        let start = spec.start_day;
        let fleet = FleetGenerator::new(spec).generate_weeks(weeks);
        let store = Arc::new(MemoryBlobStore::new());
        let weeks_days: Vec<i64> = (0..weeks as i64).map(|w| start + 7 * w).collect();
        LoadExtraction::columnar(5)
            .run(&fleet, &["region-a".into()], &weeks_days, store.as_ref())
            .unwrap();
        (AmlPipeline::new(PipelineConfig::production(), store), start)
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
                "accuracy-eval",
                "deployment"
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

    /// Each week moves every stamped gate one step: after four runs a
    /// server scored and passing three weeks running has an open gate, one
    /// with a failed week among them does not, and every stored prediction
    /// carries the gate its server left the run with.
    #[test]
    fn predictions_carry_the_gate_of_their_scored_weeks() {
        let (pipeline, start) = setup(40, 4);
        for w in 0..4 {
            pipeline.run_region_week("region-a", start + 7 * w);
        }
        let scores: Vec<AccuracyDoc> = pipeline.docs.scan(collections::ACCURACY).unwrap();
        let predictions: Vec<PredictionDoc> = pipeline.docs.scan(collections::PREDICTIONS).unwrap();
        let mut open = 0;
        for doc in predictions.iter().filter(|d| d.day >= start + 28) {
            // The gate replayed from the server's scores, oldest first.
            let gate = (1..=3).fold(GateState::CLOSED, |gate, k| {
                let day = doc.day - 7 * (4 - k);
                let score = scores
                    .iter()
                    .find(|e| e.server_id == doc.server_id && e.day == day)
                    .map(|e| e.window_correct && e.load_accurate);
                gate.next(score)
            });
            assert_eq!(doc.gate, gate, "server {}", doc.server_id);
            open += usize::from(gate == GateState::OPEN);
        }
        assert!(open > 0, "a mostly stable fleet opens gates in week 4");
    }

    #[test]
    fn gate_counts_down_and_restarts() {
        let gate = GateState::CLOSED;
        assert_ne!(gate, GateState::OPEN);
        let two = gate.next(Some(true)).next(Some(true));
        assert_eq!(
            two,
            GateState {
                to_score: 1,
                to_pass: 1
            }
        );
        assert_eq!(two.next(Some(true)), GateState::OPEN);
        // A failed week keeps the scored count and restarts the passing one.
        let failed = two.next(Some(false));
        assert_eq!(
            failed,
            GateState {
                to_score: 0,
                to_pass: 3
            }
        );
        assert_eq!(GateState::OPEN.next(Some(false)), failed);
        // A week with nothing to score restarts both.
        assert_eq!(GateState::OPEN.next(None), GateState::CLOSED);
        assert_eq!(GateState::OPEN.next(Some(true)), GateState::OPEN);
    }

    /// A stored prediction holding a NaN is not scored and is counted in
    /// `seagull_accuracy_unscorable_total`; every other server scores
    /// exactly as it does when no prediction is poisoned.
    #[test]
    fn non_finite_prediction_is_skipped_and_counted() {
        let run = |poison: Option<&AccuracyDoc>| {
            let (pipeline, start) = setup(40, 2);
            pipeline.run_region_week("region-a", start);
            if let Some(target) = poison {
                let id = PredictionDoc::doc_id("region-a", target.server_id, target.day);
                let mut doc: PredictionDoc =
                    pipeline.docs.get(collections::PREDICTIONS, &id).unwrap();
                doc.values[0] = f64::NAN;
                pipeline.docs.upsert(collections::PREDICTIONS, &id, &doc);
            }
            let report = pipeline.run_region_week("region-a", start + 7);
            let scored: Vec<AccuracyDoc> = pipeline.docs.scan(collections::ACCURACY).unwrap();
            let unscorable = pipeline
                .obs
                .registry()
                .counter(
                    "seagull_accuracy_unscorable_total",
                    &[("region", "region-a")],
                )
                .get();
            (report.evaluations, scored, unscorable)
        };
        let (clean_evaluations, clean, clean_unscorable) = run(None);
        assert_eq!(clean_unscorable, 0);
        let target = clean[0].clone();
        let (evaluations, scored, unscorable) = run(Some(&target));
        assert_eq!(unscorable, 1);
        assert_eq!(evaluations, clean_evaluations - 1);
        let siblings: Vec<AccuracyDoc> = clean
            .into_iter()
            .filter(|e| e.server_id != target.server_id)
            .collect();
        assert_eq!(scored, siblings);
    }

    /// A `FEATURES` document counts the gaps of the week as ingested, not
    /// those left in the repaired series the model trains on (none: linear
    /// repair fills every gap).
    #[test]
    fn features_doc_reports_an_interior_gap() {
        let mut spec = FleetSpec::small_region(91);
        spec.regions[0].servers = 10;
        let start = spec.start_day;
        let mut fleet = FleetGenerator::new(spec).generate_weeks(1);
        let server = fleet
            .iter_mut()
            .find(|s| {
                s.series.start() == Timestamp::from_days(start)
                    && s.series.len() == 7 * 288
                    && s.series.missing_count() == 0
            })
            .expect("a server with a complete week");
        server.series.values_mut()[1_000..1_012].fill(f64::NAN);
        let id = server.meta.id.0;
        let store = Arc::new(MemoryBlobStore::new());
        LoadExtraction::columnar(5)
            .run(&fleet, &["region-a".into()], &[start], store.as_ref())
            .unwrap();
        let pipeline = AmlPipeline::new(PipelineConfig::production(), store);
        assert!(!pipeline.run_region_week("region-a", start).blocked);
        let doc: ServerFeatures = pipeline
            .docs
            .get(collections::FEATURES, &format!("region-a/{id}/{start}"))
            .unwrap();
        assert_eq!(doc.missing_fraction, 12.0 / (7.0 * 288.0));
        assert_eq!(doc.stats.missing, 0);
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
    fn injected_faults_are_retried_per_server() {
        let (base, start) = setup(10, 1);
        let pipeline = AmlPipeline::new(base.config, base.blobs).with_chaos(StageChaos::from_fn(
            |stage, _, _, attempt| stage == "train-infer" && attempt <= 2,
        ));
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
        assert!(degraded.exhausted_stages.is_empty());
        assert!(degraded.quarantined_servers.is_empty());
    }

    #[test]
    fn exhausted_deploy_keeps_last_known_good() {
        let (base, start) = setup(15, 2);
        // Deployment hard-fails, but only in week 2.
        let pipeline = AmlPipeline::new(base.config, base.blobs).with_chaos(StageChaos::from_fn(
            move |stage, _, tick, _| stage == "deployment" && tick > start,
        ));
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
