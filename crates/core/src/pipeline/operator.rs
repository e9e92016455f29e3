//! The middle of a run: one fused operator per server — validate →
//! gap-fill → featurize → fit → predict — one pool task per server, then
//! absorbed serially in server input order.
//!
//! Everything order-sensitive (incidents, stored documents, cache commits,
//! span records, metric folds) happens in the absorb, so a run's outputs do
//! not depend on the thread count or on which worker finished first.
//! Faults are per-server: a transient fault burns only that server's retry
//! budget, and a server whose fit fails permanently, exhausts its retries
//! or panics is quarantined to the dead-letter list alone. There is one
//! panic-isolation boundary, the per-item one of [`parallel_map_tasks`].

use super::{
    collections, AmlPipeline, DeadLetterDoc, DegradedRun, GateState, PipelineRunReport,
    PredictionDoc, MAX_ANOMALY_REPORTS, PROFILE,
};
use crate::features::{extract_server_features, ServerFeatures};
use crate::incident::Severity;
use crate::par::parallel_map_tasks;
use crate::resilience::{retry, StageError};
use crate::validation::{validate_columnar, validate_server, Anomaly};
use seagull_forecast::{CacheUpdate, FittedModel, ForecastError, Lookup};
use seagull_obs::SpanId;
use seagull_telemetry::columnar::ColumnarBatch;
use seagull_telemetry::csv_quantized;
use seagull_telemetry::extract::ExtractedServer;
use seagull_telemetry::frame::checksum64_words;
use seagull_timeseries::{GapFill, TimeSeries};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-server cache consequence of one train-infer item, applied serially
/// after the parallel region joins so cache state never depends on worker
/// interleaving.
enum CacheOutcome {
    /// Reused a cached fit; recency for this key is bumped at commit.
    Hit(String),
    /// A fresh fit to insert at commit.
    Fresh(Box<CacheUpdate>),
    /// No cache interaction (the forecaster does not use the cache, or
    /// insufficient history to fit).
    Bypass,
}

/// How one server's train-infer item will be served, resolved once (one
/// counted cache probe) ahead of the retry loop.
enum FitPath {
    /// The forecaster does not use the cache: fit cold, no cache writes.
    Bypass,
    /// Warm-cache hit: serve the cached model, re-anchored.
    Hit(seagull_forecast::CachedFit, String),
    /// Warm-cache miss: fit cold and package the entry for the serial
    /// commit barrier.
    Miss { key: String, fingerprint: u64 },
}

/// Result of one server's train-infer item: the prediction doc (`None` for
/// young servers), the deferred cache write, and the fit-kernel label of any
/// cold fit that ran — or the reason the server's input is poison.
type FitOutcome = Result<(Option<PredictionDoc>, CacheOutcome, Option<&'static str>), String>;

/// Everything one fused per-server operator produces, absorbed serially in
/// server input order after the fan-out joins.
struct FusedServerOutcome {
    /// The gap-filled series, written back to the fleet slice so accuracy
    /// evaluation scores against the repaired input the model trained on.
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
    /// True when the fit failed by exhausting transient-fault retries.
    exhausted: bool,
    /// Wall time of validate + gap-fill + featurize.
    featurize_wall: Duration,
    /// Wall time of the cache probe, fit and predict, including retries.
    model_wall: Duration,
}

/// Content fingerprint of a training series: FNV-1a over the quantized
/// sample bytes plus the grid step. The start timestamp is deliberately
/// excluded so a weekly-periodic server hashes identically week over week;
/// [`ModelCache`] checks grid shape and whole-week alignment separately.
///
/// [`ModelCache`]: seagull_forecast::ModelCache
fn series_fingerprint(series: &TimeSeries) -> u64 {
    let step = std::iter::once(u64::from(series.step_min()));
    let samples = series.values().iter().map(|&v| csv_quantized(v).to_bits());
    checksum64_words(step.chain(samples))
}

impl AmlPipeline {
    /// Raises one validation anomaly as an incident: blocking anomalies are
    /// critical, the rest warnings.
    fn raise_validation_anomaly(&self, region: &str, a: &Anomaly) {
        let severity = if a.is_blocking() {
            Severity::Critical
        } else {
            Severity::Warning
        };
        self.incidents
            .raise(severity, "validation", region, format!("{a:?}"));
    }

    /// Resolves how a server's fit will be served: a warm-cache probe (one
    /// counted lookup) when the forecaster uses the cache, else a plain
    /// cold fit. Safe to call from inside a parallel region; the probe is
    /// read-only.
    fn fit_path(&self, s: &ExtractedServer, class: &str, region: &str) -> FitPath {
        let Some(cache) = self.model_cache() else {
            return FitPath::Bypass;
        };
        let key = format!("{region}/{}", s.id.0);
        let fingerprint = series_fingerprint(&s.series);
        match cache.lookup(&key, fingerprint, class, &s.series) {
            Lookup::Hit(hit) => FitPath::Hit(hit, key),
            Lookup::Miss(_) => FitPath::Miss { key, fingerprint },
        }
    }

    /// Completes one server's train-infer item for an already-resolved
    /// [`FitPath`]: serves the cached model on a hit, fits cold otherwise.
    /// Returns the prediction doc, the cache consequence, and the
    /// fit-kernel label of any cold fit that ran.
    fn finish_fit(
        &self,
        s: &ExtractedServer,
        class: &'static str,
        region: &str,
        next_week: i64,
        path: &FitPath,
    ) -> FitOutcome {
        let grid = PROFILE.grid_min;
        let points_per_day = (seagull_timeseries::MINUTES_PER_DAY / grid as i64) as usize;
        // Next week's backup day, 1..=7 days ahead: the day its run scores.
        let backup_day = s.backup_day(next_week);
        let horizon_days = (backup_day + 1 - next_week) as usize;
        let horizon = horizon_days * points_per_day;
        let doc_of = |pred: TimeSeries| {
            pred.day(backup_day).map(|day| PredictionDoc {
                region: region.to_string(),
                server_id: s.id.0,
                day: backup_day,
                step_min: grid,
                values: day.into_values(),
                duration_min: s.default_backup_end - s.default_backup_start,
                // Stamped after accuracy evaluation moves the gate on.
                gate: GateState::CLOSED,
            })
        };
        if let FitPath::Hit(hit, key) = path {
            let shifted = hit
                .fitted
                .predict(horizon)
                .and_then(|p| p.shifted(hit.shift_min).map_err(ForecastError::Series));
            return match shifted {
                Ok(pred) => Ok((doc_of(pred), CacheOutcome::Hit(key.clone()), None)),
                Err(e) => Err(e.to_string()),
            };
        }
        // Cold fit (no cache or probe missed). Fit-then-predict rather
        // than `fit_predict` so the resolved kernel label is observable;
        // the bytes are identical.
        let fit_start = Instant::now();
        let fit = self.config.forecaster.fit(&s.series);
        let fit_wall = fit_start.elapsed();
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
                    Err(e) => Err(e.to_string()),
                }
            }
            // Too little history is the normal young-server case.
            Err(ForecastError::InsufficientHistory { .. }) => {
                Ok((None, CacheOutcome::Bypass, None))
            }
            // Anything else is poison input or a broken model.
            Err(e) => Err(e.to_string()),
        }
    }

    /// One server's fused operator, run as one pool task: validate →
    /// gap-fill → featurize → cache probe, then the retry loop around
    /// fit → predict. A panic anywhere in it is caught by the per-item
    /// isolation of [`parallel_map_tasks`] and quarantines this server
    /// alone.
    fn run_server(
        &self,
        s: &ExtractedServer,
        region: &str,
        tick: i64,
        next_week: i64,
        server_validation: bool,
    ) -> FusedServerOutcome {
        let feat_start = Instant::now();
        let anomaly = if server_validation {
            validate_server(s, &PROFILE)
        } else {
            None
        };
        // Repair tolerated gaps locally; the filled series is written back
        // at the absorb so accuracy evaluation scores against the input the
        // model trained on.
        let mut series = s.series.clone();
        seagull_timeseries::fill_gaps(&mut series, GapFill::Linear);
        // Featurized from both: the gaps are counted on the series as
        // ingested, everything else on the repaired one.
        let features = extract_server_features(s, &series);
        let filled = ExtractedServer {
            id: s.id,
            series,
            default_backup_start: s.default_backup_start,
            default_backup_end: s.default_backup_end,
        };
        let class = features.pattern.label();
        let featurize_wall = feat_start.elapsed();

        // The cache probe is part of the model's cost, and is counted here,
        // once per server, not per attempt.
        let model_start = Instant::now();
        let path = self.fit_path(&filled, class, region);
        // The stage-level chaos hook and the server-granular hook both
        // inject ahead of the real fit, and a transient fault burns only
        // this server's retry budget.
        let chaos = &self.chaos;
        let fitted = retry(|attempt| {
            if chaos.should_fail("train-infer", region, tick, attempt)
                || chaos.should_fail_server("train-infer", region, s.id.0, tick, attempt)
            {
                return Err(StageError::transient(format!(
                    "injected train-infer fault (attempt {attempt})"
                )));
            }
            self.finish_fit(&filled, class, region, next_week, &path)
                .map_err(StageError::permanent)
        });
        let model_wall = model_start.elapsed();
        let retries = fitted.attempts.saturating_sub(1);
        let (prediction, cache, fit_kernel, poison, exhausted) = match fitted.outcome {
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
            series: filled.series,
            anomaly,
            features,
            prediction,
            cache,
            fit_kernel,
            poison,
            retries,
            exhausted,
            featurize_wall,
            model_wall,
        }
    }

    /// Folds the run's cold-fit kernel labels into the stable metric
    /// `seagull_fit_kernel_total{region, kernel}` at the serial absorb, so
    /// the counts do not depend on worker interleaving.
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

    /// The middle of a run: batch-level validation, then one *fused*
    /// operator chain per server — validate → gap-fill → featurize → fit →
    /// predict — scheduled task-granularly by `parallel_map_tasks` and absorbed
    /// serially in server input order at the train-deploy barrier.
    ///
    /// Reports, documents, incidents and the stable export of a run are
    /// byte-identical at every thread count. Retries, exhaustion and panics
    /// are per-server: a poison server dead-letters only itself and can
    /// never fail the whole stage. Returns the prediction documents
    /// materialized this run, in server input order and not yet stored
    /// (the run stamps their gate first), or `None` when validation blocks
    /// the run.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn mid_dataflow(
        &self,
        region: &str,
        week_start_day: i64,
        tick: i64,
        vt: u64,
        run_span: SpanId,
        report: &mut PipelineRunReport,
        degraded: &mut DegradedRun,
        batch: &ColumnarBatch,
        servers: &mut [ExtractedServer],
    ) -> Option<Vec<PredictionDoc>> {
        // ---- Data Validation (batch-level) -------------------------------------
        // Per-server missing-data checks run inside the fused operators; the
        // blocking decision must precede the fan-out, and only batch-level
        // anomalies can block (a week with no server on the grid), so this
        // part stays a whole-batch step.
        self.chaos.kill_point("validation", region, tick);
        let span = self.stage_span(run_span, "validation", region, vt);
        let validated = self.retry_stage("validation", region, tick, || {
            Ok(validate_columnar(batch, &PROFILE, MAX_ANOMALY_REPORTS))
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
        // Both stage kill-points fire serially at the fan-out boundary, a
        // crash point per stage name; the two stage spans open here in
        // stage order (features before train-infer) and finish after the
        // absorb, which fixes their stable span ids.
        self.chaos.kill_point("features", region, tick);
        let features_span = self.stage_span(run_span, "features", region, vt);
        self.chaos.kill_point("train-infer", region, tick);
        let fused_span = self.stage_span(run_span, "train-infer", region, vt);
        let next_week = week_start_day + 7;

        let (results, profile) = parallel_map_tasks(servers, self.config.threads, |s| {
            self.run_server(s, region, tick, next_week, server_validation)
        });

        // ---- Deterministic absorb ----------------------------------------------
        // Everything order-sensitive — incidents, docs, cache commits, span
        // records, metric folds — happens here, serially, in server input
        // order, so outputs are independent of worker interleaving.
        profile.record(self.obs.registry(), "train-infer");
        let tracer = self.obs.tracer();
        let mut predictions: Vec<PredictionDoc> = Vec::new();
        let mut updates: Vec<CacheUpdate> = Vec::new();
        let mut hit_keys: Vec<String> = Vec::new();
        let mut poison: Vec<(u64, String)> = Vec::new();
        let mut kernel_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut total_retries = 0u32;
        let mut exhausted_servers = 0u64;
        let mut featurize_wall = Duration::ZERO;
        for (i, result) in results.into_iter().enumerate() {
            let server_id = servers[i].id.0;
            match result {
                Ok(out) => {
                    servers[i].series = out.series;
                    if let Some(a) = &out.anomaly {
                        report.anomalies += 1;
                        self.raise_validation_anomaly(region, a);
                    }
                    let id = format!("{region}/{server_id}/{week_start_day}");
                    self.docs.upsert(collections::FEATURES, &id, &out.features);
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
                    poison.push((server_id, format!("fused operator panicked: {panic_msg}")));
                }
            }
        }
        if let Some(cache) = self.model_cache() {
            // Serial, item-ordered commit: deterministic recency.
            cache.commit(vt, updates, &hit_keys);
        }
        self.record_fit_kernels(region, &kernel_counts);

        // Fold per-server retry accounting into the `(region, stage)`
        // series the other stages record through `retry_stage`: one stage
        // attempt plus every per-server retry, so a clean run reads one
        // attempt and no retries for train-infer like for any other stage.
        let labels = [("region", region), ("stage", "train-infer")];
        let registry = self.obs.registry();
        registry
            .counter("seagull_retry_attempts_total", &labels)
            .add(1 + u64::from(total_retries));
        if total_retries > 0 {
            registry
                .counter("seagull_retries_total", &labels)
                .add(u64::from(total_retries));
            *degraded
                .retries
                .entry("train-infer".to_string())
                .or_insert(0) += total_retries;
        }
        if exhausted_servers > 0 {
            // Counts exhausted retry units, which for this stage are
            // individual servers — the stage itself never fails.
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

        self.finish_stage(report, fused_span, "train-infer", region, vt);

        Some(predictions)
    }

    /// Quarantines poison servers to the dead-letter list and raises the
    /// keyed incident. No-op on an empty list.
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
            self.docs.upsert(
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use seagull_timeseries::Timestamp;

    /// Cache keys must not move: the streamed fingerprint is the checksum of
    /// the buffer it used to build (step word, then each quantized sample),
    /// gaps, unquantized gap-filled values and signed zeros included.
    #[test]
    fn series_fingerprint_is_the_checksum_of_the_old_buffer() {
        use seagull_telemetry::frame::checksum64;
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
}
