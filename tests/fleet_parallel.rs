//! Fleet-parallelism integration tests: a same-seed fleet week must produce
//! byte-identical outputs whether it runs on one worker thread or eight,
//! and the features and predictions it stores must equal what the public
//! batch functions produce when composed stage by stage. A regional outage
//! must stay contained (the healthy region's outputs are unaffected by a
//! sibling region failing mid-fleet-week), and a straggler server must not
//! stall its siblings.

use seagull::core::fleet::FleetRunner;
use seagull::core::metrics::{evaluate_low_load, AccuracyConfig};
use seagull::core::pipeline::{
    collections, AmlPipeline, GateState, PipelineConfig, PipelineRunReport, PredictionDoc, PROFILE,
};
use seagull::core::{extract_features, validate_columnar};
use seagull::forecast::{
    FittedModel, ForecastError, Forecaster, PersistentForecast, SsaForecaster,
};
use seagull::telemetry::blobstore::{BlobKey, BlobStore, MemoryBlobStore};
use seagull::telemetry::chaos::{ChaosBlobStore, ChaosConfig};
use seagull::telemetry::columnar::ColumnarBatch;
use seagull::telemetry::extract::LoadExtraction;
use seagull::telemetry::fleet::{ClassMix, FleetGenerator, FleetSpec, RegionSpec, ServerTelemetry};
use seagull::telemetry::frame::checksum64;
use seagull::timeseries::{fill_gaps, GapFill, TimeSeries, MINUTES_PER_DAY};
use serde_json::{json, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Two regions, `weeks` weeks of telemetry, extracted into a shared store.
fn two_region_store(seed: u64, weeks: usize) -> (Arc<MemoryBlobStore>, Vec<String>, Vec<i64>) {
    let mut spec = FleetSpec::small_region(seed);
    spec.regions[0].servers = 8;
    spec.regions.push(RegionSpec {
        name: "region-b".into(),
        servers: 8,
    });
    let start = spec.start_day;
    let regions: Vec<String> = spec.regions.iter().map(|r| r.name.clone()).collect();
    let fleet: Vec<ServerTelemetry> = FleetGenerator::new(spec).generate_weeks(weeks);
    let store = Arc::new(MemoryBlobStore::new());
    let week_days: Vec<i64> = (0..weeks as i64).map(|w| start + 7 * w).collect();
    LoadExtraction::columnar(5)
        .run(&fleet, &regions, &week_days, store.as_ref())
        .unwrap();
    (store, regions, week_days)
}

/// The comparable part of a run report — wall-clock stage durations are
/// legitimately machine/thread dependent, everything else must match.
fn semantic_report(report: &PipelineRunReport) -> Value {
    json!({
        "region": report.region,
        "week_start_day": report.week_start_day,
        "stages": report.stages.iter().map(|s| s.stage.clone()).collect::<Vec<_>>(),
        "servers": report.servers,
        "anomalies": report.anomalies,
        "blocked": report.blocked,
        "predictions_written": report.predictions_written,
        "evaluations": report.evaluations,
        "accuracy": report.accuracy,
        "deployed_version": report.deployed_version,
        "degraded": report.degraded,
    })
}

/// Everything a schedule produces, canonicalized for byte equality: the
/// semantic reports, every stored document (sorted by id), the incident
/// log, and the stable metrics export.
fn canonical_outputs(pipeline: &AmlPipeline, reports: &[PipelineRunReport]) -> String {
    let mut docs = Vec::new();
    for collection in [
        collections::PREDICTIONS,
        collections::ACCURACY,
        collections::FEATURES,
        collections::RUNS,
        collections::DEAD_LETTER,
    ] {
        let mut ids = pipeline.docs.ids(collection);
        ids.sort();
        for id in ids {
            if collection == collections::RUNS {
                let run: PipelineRunReport = pipeline
                    .docs
                    .get(collection, &id)
                    .expect("listed doc exists");
                docs.push((format!("{collection}/{id}"), semantic_report(&run)));
            } else {
                let value: Value = pipeline
                    .docs
                    .get(collection, &id)
                    .expect("listed doc exists");
                docs.push((format!("{collection}/{id}"), value));
            }
        }
    }
    let incidents: Vec<Value> = pipeline
        .incidents
        .all()
        .iter()
        .map(|i| {
            json!({
                "severity": format!("{:?}", i.severity),
                "source": i.source,
                "region": i.region,
                "key": i.message_key,
                "count": i.count,
            })
        })
        .collect();
    json!({
        "reports": reports.iter().map(semantic_report).collect::<Vec<_>>(),
        "docs": docs,
        "incidents": incidents,
        "stable_export": pipeline.obs.stable_export(),
    })
    .to_string()
}

fn runner(store: &Arc<MemoryBlobStore>, regions: &[String], threads: usize) -> FleetRunner {
    let config = PipelineConfig {
        threads,
        ..PipelineConfig::production()
    };
    let pipeline = AmlPipeline::new(
        config,
        Arc::clone(store) as Arc<dyn seagull::telemetry::blobstore::BlobStore>,
    );
    FleetRunner::new(pipeline, regions.to_vec())
}

/// Four regions on a pattern-heavy class mix, three weeks, extracted into a
/// shared store: SSA on a flat stable server is trivial at any kernel, and
/// similarity reuse is about patterned servers whose bytes jitter week over
/// week while their shape persists. The paper's production mix is ~95 %
/// stable or short-lived and leaves both populations nearly empty at test
/// scale, so this fleet skews toward them.
fn pattern_heavy_store() -> (Arc<MemoryBlobStore>, Vec<String>, Vec<i64>) {
    let mut spec = FleetSpec::four_regions(90, 2);
    spec.mix = ClassMix {
        short_lived: 0.10,
        stable: 0.30,
        daily: 0.35,
        weekly: 0.15,
        unstable: 0.10,
    };
    let start = spec.start_day;
    let regions: Vec<String> = spec.regions.iter().map(|r| r.name.clone()).collect();
    let fleet: Vec<ServerTelemetry> = FleetGenerator::new(spec).generate_weeks(3);
    let store = Arc::new(MemoryBlobStore::new());
    let week_days: Vec<i64> = (0..3).map(|w| start + 7 * w).collect();
    LoadExtraction::columnar(5)
        .run(&fleet, &regions, &week_days, store.as_ref())
        .unwrap();
    (store, regions, week_days)
}

/// The headline determinism guarantee: a same-seed three-week schedule
/// produces byte-identical canonical outputs (reports, stored documents,
/// incident log, stable export) at threads=1 and threads=8 — completion
/// order must not leak anywhere. Once on the production configuration
/// (persistent, no cache) over two regions, once with the default SSA
/// (randomized kernel) over the pattern-heavy fleet, where every
/// server-week is a real fit or a cache decision.
#[test]
fn fleet_week_outputs_are_byte_identical_across_thread_counts() {
    let (store, regions, week_days) = two_region_store(2024, 3);
    let outputs: Vec<String> = [1usize, 8]
        .iter()
        .map(|&threads| {
            let runner = runner(&store, &regions, threads);
            let reports = runner.run_schedule(&week_days);
            canonical_outputs(runner.pipeline(), &reports)
        })
        .collect();
    assert_eq!(
        outputs[0], outputs[1],
        "threads=1 and threads=8 fleet schedules diverged"
    );

    let (store, regions, week_days) = pattern_heavy_store();
    let [(one, stats_one), (eight, stats_eight)] = [1usize, 8].map(|threads| {
        let config = PipelineConfig {
            threads,
            forecaster: Arc::new(SsaForecaster::default()),
        };
        let pipeline = AmlPipeline::new(config, Arc::clone(&store) as Arc<dyn BlobStore>);
        let runner = FleetRunner::new(pipeline, regions.clone());
        let reports = runner.run_schedule(&week_days);
        (
            canonical_outputs(runner.pipeline(), &reports),
            runner.cache_stats(),
        )
    });
    assert_eq!(
        one, eight,
        "threads=1 and threads=8 SSA schedules diverged on the pattern-heavy fleet"
    );
    for stats in [stats_one, stats_eight] {
        assert!(
            stats.hit_rate() > 0.5,
            "similarity-keyed cache must beat the exact-bytes 50% plateau: {stats:?}"
        );
        assert!(
            stats.hits_similarity > 0,
            "the similarity key must account for reuses beyond exact-bytes hits: {stats:?}"
        );
    }
}

/// "Same bits", pinned: the seed-4242 three-week schedule on the
/// production configuration renders the same canonical outputs at one
/// thread and at eight, and those outputs are pinned by length and checksum
/// (the text's sha256 is `2a14d912…d0dbc960`). A change that moves any stored
/// document, report, incident or stable-export line has to edit these
/// literals.
#[test]
fn seed_4242_canonical_outputs_are_pinned() {
    let (store, regions, week_days) = two_region_store(4242, 3);
    let [one, eight] = [1usize, 8].map(|threads| {
        let runner = runner(&store, &regions, threads);
        let reports = runner.run_schedule(&week_days);
        canonical_outputs(runner.pipeline(), &reports)
    });
    assert_eq!(one, eight, "threads=1 and threads=8 diverged");
    assert_eq!(one.len(), 75_979);
    assert_eq!(checksum64(one.as_bytes()), 0xb0ef_08f3_e890_4e57);
}

/// Documents as `(id, JSON value)` pairs, sorted by id.
type Docs = Vec<(String, Value)>;

/// All documents of one collection, sorted by id.
fn canonical_collection(pipeline: &AmlPipeline, collection: &str) -> Docs {
    let mut ids = pipeline.docs.ids(collection);
    ids.sort();
    ids.into_iter()
        .map(|id| {
            let v: Value = pipeline.docs.get(collection, &id).unwrap();
            (id, v)
        })
        .collect()
}

/// What the fused per-server operators must write, recomputed by composing
/// the public batch functions in stage order over each region-week's blob:
/// `validate_columnar` → `extract_features` (on the week as ingested; it
/// repairs a copy of its own) → `fill_gaps` → `fit` → `predict` →
/// backup-day slice, stamped with the gate that `evaluate_low_load` of the
/// previous week's prediction against the repaired week moves on. Returns
/// the expected `FEATURES` and `PREDICTIONS` collections, sorted by id.
fn staged_oracle(
    store: &MemoryBlobStore,
    config: &PipelineConfig,
    regions: &[String],
    week_days: &[i64],
) -> (Docs, Docs) {
    let grid_min = PROFILE.grid_min;
    let points_per_day = (MINUTES_PER_DAY / grid_min as i64) as usize;
    let mut features = Vec::new();
    let mut predictions = Vec::new();
    let mut written: Vec<PredictionDoc> = Vec::new();
    for &week in week_days {
        for region in regions {
            let blob = store.get(&BlobKey::extracted(region, week)).unwrap();
            let batch = ColumnarBatch::decode(&blob).unwrap();
            assert!(!validate_columnar(&batch, &PROFILE, usize::MAX).is_blocked());
            let mut servers = batch.extract(grid_min);
            let week_features = extract_features(&servers);
            for s in &mut servers {
                fill_gaps(&mut s.series, GapFill::Linear);
            }
            for (s, f) in servers.iter().zip(week_features) {
                features.push((
                    format!("{region}/{}/{week}", s.id.0),
                    serde_json::to_value(&f).unwrap(),
                ));
                let fitted = match config.forecaster.fit(&s.series) {
                    Ok(fitted) => fitted,
                    // A server too young to fit gets no prediction.
                    Err(ForecastError::InsufficientHistory { .. }) => continue,
                    Err(e) => panic!("server {} failed to fit: {e}", s.id.0),
                };
                let backup_day = s.backup_day(week + 7);
                let horizon_days = (backup_day + 1 - (week + 7)) as usize;
                let prediction = fitted.predict(horizon_days * points_per_day).unwrap();
                let Some(day) = prediction.day(backup_day) else {
                    continue;
                };
                let scored_day = s.backup_day(week);
                let score = written
                    .iter()
                    .find(|d| &d.region == region && d.server_id == s.id.0 && d.day == scored_day)
                    .and_then(|previous| {
                        let duration = previous.duration_min.max(i64::from(grid_min)) as u32;
                        let eval = evaluate_low_load(
                            &s.series.day(scored_day)?,
                            &previous.clone().into_series(),
                            duration,
                            &AccuracyConfig::default(),
                        )?;
                        Some((previous.gate, eval.window_correct && eval.load_accurate))
                    });
                let gate = match score {
                    Some((gate, passed)) => gate.next(Some(passed)),
                    None => GateState::CLOSED,
                };
                let doc = PredictionDoc {
                    region: region.clone(),
                    server_id: s.id.0,
                    day: backup_day,
                    step_min: grid_min,
                    values: day.into_values(),
                    duration_min: s.default_backup_end - s.default_backup_start,
                    gate,
                };
                written.push(doc.clone());
                predictions.push((
                    PredictionDoc::doc_id(region, s.id.0, backup_day),
                    serde_json::to_value(&doc).unwrap(),
                ));
            }
        }
    }
    features.sort_by(|a, b| a.0.cmp(&b.0));
    predictions.sort_by(|a, b| a.0.cmp(&b.0));
    (features, predictions)
}

/// The fused operators are a schedule, not a different computation: over a
/// three-week two-region schedule on the production configuration, the
/// `FEATURES` and `PREDICTIONS` collections the pipeline wrote equal the
/// staged oracle's at one and at eight threads. The persistent forecast
/// predicts every server from its own yesterday; under a forecaster that
/// uses the warm cache a hit legitimately serves a re-anchored older fit
/// (`warm_cache_changes_cost_not_schedule` covers that).
#[test]
fn pipeline_outputs_match_the_staged_batch_functions() {
    let (store, regions, week_days) = two_region_store(4242, 3);
    for threads in [1usize, 8] {
        let config = PipelineConfig {
            threads,
            ..PipelineConfig::production()
        };
        let (features, predictions) = staged_oracle(&store, &config, &regions, &week_days);
        assert!(!features.is_empty() && !predictions.is_empty());
        let pipeline = AmlPipeline::new(config, Arc::clone(&store) as Arc<dyn BlobStore>);
        let runner = FleetRunner::new(pipeline, regions.to_vec());
        let reports = runner.run_schedule(&week_days);
        assert!(reports.iter().all(|r| !r.blocked && !r.is_degraded()));
        assert_eq!(
            canonical_collection(runner.pipeline(), collections::FEATURES),
            features,
            "features diverged from the staged oracle at {threads} thread(s)"
        );
        assert_eq!(
            canonical_collection(runner.pipeline(), collections::PREDICTIONS),
            predictions,
            "predictions diverged from the staged oracle at {threads} thread(s)"
        );
    }
}

/// A forecaster that makes one fit a deliberate straggler (~100× the cost
/// of a persistent fit) and records every fit's completion instant.
struct SlowFirstFit {
    calls: AtomicUsize,
    finished: Mutex<Vec<(bool, Instant)>>,
    inner: PersistentForecast,
    delay: Duration,
}

impl Forecaster for SlowFirstFit {
    fn name(&self) -> &'static str {
        "slow-first-fit"
    }
    fn fit(&self, history: &TimeSeries) -> Result<Box<dyn FittedModel>, ForecastError> {
        let slow = self.calls.fetch_add(1, Ordering::SeqCst) == 0;
        if slow {
            std::thread::sleep(self.delay);
        }
        let out = self.inner.fit(history);
        self.finished.lock().unwrap().push((slow, Instant::now()));
        out
    }
}

/// Task-granular scheduling: while one server's fused operator sleeps in
/// its fit, every sibling's fused operator must run to completion on the
/// remaining workers — no sibling may finish after the straggler.
#[test]
fn straggler_server_does_not_stall_siblings() {
    let mut spec = FleetSpec::small_region(9001);
    spec.regions[0].servers = 40;
    let start = spec.start_day;
    let fleet = FleetGenerator::new(spec).generate_weeks(1);
    let store = Arc::new(MemoryBlobStore::new());
    LoadExtraction::columnar(5)
        .run(&fleet, &["region-a".into()], &[start], store.as_ref())
        .unwrap();

    let slow = Arc::new(SlowFirstFit {
        calls: AtomicUsize::new(0),
        finished: Mutex::new(Vec::new()),
        inner: PersistentForecast::previous_day(),
        delay: Duration::from_millis(2500),
    });
    let config = PipelineConfig {
        threads: 4,
        forecaster: Arc::clone(&slow) as Arc<dyn Forecaster>,
    };
    let pipeline = AmlPipeline::new(config, store);
    let report = pipeline.run_region_week("region-a", start);
    assert!(!report.blocked);
    assert_eq!(report.servers, 40);
    assert!(report.predictions_written > 0);

    let finished = slow.finished.lock().unwrap();
    assert_eq!(finished.len(), 40, "every server fit exactly once");
    let slow_finish = finished
        .iter()
        .find(|(is_slow, _)| *is_slow)
        .expect("the straggler fit ran")
        .1;
    let stalled = finished
        .iter()
        .filter(|(is_slow, t)| !*is_slow && *t >= slow_finish)
        .count();
    assert_eq!(
        stalled, 0,
        "{stalled} sibling(s) finished after the straggler — fused operators \
         must flow around a slow server"
    );
}

/// An outage on region-a's extracted blobs must not perturb region-b: its
/// report, predictions, and accuracy documents are identical to a run with
/// no chaos at all, and only region-a is blocked.
#[test]
fn regional_outage_is_isolated_from_healthy_regions() {
    let (store, regions, week_days) = two_region_store(77, 1);

    // Baseline: no chaos.
    let clean = runner(&store, &regions, 4);
    let clean_reports = clean.run_week(week_days[0]);

    // Chaos: region-a's extracted slice is down for the whole week.
    let chaos = Arc::new(ChaosBlobStore::new(
        Arc::clone(&store) as Arc<dyn seagull::telemetry::blobstore::BlobStore>,
        ChaosConfig::default(),
    ));
    chaos.set_outage("extracted", "region-a");
    let config = PipelineConfig {
        threads: 4,
        ..PipelineConfig::production()
    };
    let pipeline = AmlPipeline::new(config, chaos);
    let faulty = FleetRunner::new(pipeline, regions.clone());
    let faulty_reports = faulty.run_week(week_days[0]);

    assert!(faulty_reports[0].blocked, "region-a should be blocked");
    assert!(!faulty_reports[1].blocked, "region-b should be healthy");
    assert!(!clean_reports[1].blocked);

    // Region-b's semantic report matches the chaos-free run exactly.
    assert_eq!(
        semantic_report(&clean_reports[1]),
        semantic_report(&faulty_reports[1]),
        "region-b's report changed because region-a failed"
    );

    // ... and so do its stored predictions.
    for p in [clean.pipeline(), faulty.pipeline()] {
        assert!(
            !p.docs.ids(collections::PREDICTIONS).is_empty(),
            "region-b still writes predictions"
        );
    }
    let pred_docs = |p: &AmlPipeline| -> Vec<(String, Value)> {
        let mut ids = p.docs.ids(collections::PREDICTIONS);
        ids.sort();
        ids.into_iter()
            .filter(|id| id.contains("region-b"))
            .map(|id| {
                let v: Value = p.docs.get(collections::PREDICTIONS, &id).unwrap();
                (id, v)
            })
            .collect()
    };
    assert_eq!(pred_docs(clean.pipeline()), pred_docs(faulty.pipeline()));
}

/// The warm cache changes cost, not the schedule: under SSA on the
/// pattern-heavy fleet, a cached three-week schedule covers the same
/// servers with the same document set as the staged oracle's cold fits.
/// Per design, a server whose bytes changed slightly may reuse an older fit
/// (stable-class or similarity reuse, drift-gated), so its predicted values
/// can differ from a refit — but only on servers the cache served, and
/// within 10 % of the refit's mean on every document but three.
///
/// The three belong to two spiky servers reused as stable (week means
/// 11–24, daily peaks ~70). The drift gate passes them, since their input
/// did not drift, but SSA's forecast of them decays toward zero at a rate
/// that changes from fit to fit: `region-l/70`'s week-1 fit predicts 0.01
/// for both later backup days where the refits predict 5.78 and 0.61, and
/// `region-m/13`'s week-2 fit 4.28 where the week-3 refit predicts 6.27.
/// The gate bounds the input, not the forecast; the pin keeps that gap in
/// view.
#[test]
fn warm_cache_changes_cost_not_schedule() {
    let (store, regions, week_days) = pattern_heavy_store();
    let config = PipelineConfig {
        threads: 2,
        forecaster: Arc::new(SsaForecaster::default()),
    };
    let (_, cold_docs) = staged_oracle(&store, &config, &regions, &week_days);
    let pipeline = AmlPipeline::new(config, Arc::clone(&store) as Arc<dyn BlobStore>);
    let runner = FleetRunner::new(pipeline, regions.clone());
    let reports = runner.run_schedule(&week_days);
    let stats = runner.cache_stats();
    let warm_docs = canonical_predictions(runner.pipeline());
    let served = stats.hits + stats.hits_similarity;
    assert!(
        served > 0,
        "the later weeks should be served from the cache: {stats:?}"
    );

    // Same servers predicted, same weeks, same counts.
    assert!(reports.iter().all(|r| !r.blocked && !r.is_degraded()));
    let written: usize = reports.iter().map(|r| r.predictions_written).sum();
    assert_eq!(written, cold_docs.len());
    let ids = |docs: &[(String, Value)]| docs.iter().map(|(id, _)| id.clone()).collect::<Vec<_>>();
    assert_eq!(ids(&cold_docs), ids(&warm_docs), "document sets diverged");

    // Reused fits may deviate from a refit, but only modestly — the drift
    // gate rejects level/scale shifts of the input, so per-document mean
    // load stays within 10% of the cold fit's on all but the three
    // documents named above.
    let mut reused_docs = 0u64;
    let mut strayed = Vec::new();
    for ((id, cold), (_, warm)) in cold_docs.iter().zip(&warm_docs) {
        let mean = |v: &Value| {
            let vals = v["values"].as_array().expect("values array");
            vals.iter().filter_map(Value::as_f64).sum::<f64>() / vals.len().max(1) as f64
        };
        let (c, w) = (mean(cold), mean(warm));
        if (c - w).abs() > 0.10 * c.abs().max(1e-9) {
            strayed.push(id.as_str());
        }
        if cold != warm {
            reused_docs += 1;
        }
    }
    assert_eq!(
        strayed,
        [
            "region-l/70/18020",
            "region-l/70/18027",
            "region-m/13/18026"
        ],
        "documents whose warm mean strayed more than 10% from the cold fit's"
    );
    assert!(
        reused_docs <= served,
        "only cache hits may deviate: {reused_docs} docs differ, {served} hits"
    );
}

/// All prediction documents, sorted by id.
fn canonical_predictions(pipeline: &AmlPipeline) -> Vec<(String, Value)> {
    canonical_collection(pipeline, collections::PREDICTIONS)
}

/// A forecaster that panics on every fit of one specific history: the first
/// series it ever sees is remembered and poisons all later fits of the same
/// bytes.
struct PanicOnMarkedHistory {
    marked: Mutex<Option<Vec<f64>>>,
    panics: AtomicUsize,
    inner: PersistentForecast,
}

impl Forecaster for PanicOnMarkedHistory {
    fn name(&self) -> &'static str {
        "panic-on-marked-history"
    }
    fn fit(&self, history: &TimeSeries) -> Result<Box<dyn FittedModel>, ForecastError> {
        let mut marked = self.marked.lock().unwrap();
        let mine = match marked.as_ref() {
            None => {
                *marked = Some(history.values().to_vec());
                true
            }
            Some(m) => m == history.values(),
        };
        drop(marked);
        if mine {
            self.panics.fetch_add(1, Ordering::SeqCst);
            panic!("marked server fit panicked");
        }
        self.inner.fit(history)
    }
}

/// The only test where a fit *panics* rather than faults by chaos hook: the
/// panicking server quarantines alone — one panic (a panic is not retried),
/// one dead-letter doc — and every sibling lands its prediction
/// byte-identically to a clean run, at one thread and at four (where which
/// server fits first, and so is marked, is up to the scheduler).
#[test]
fn panicking_server_quarantines_alone() {
    let (store, _regions, week_days) = two_region_store(6006, 1);
    let store = || Arc::clone(&store) as Arc<dyn seagull::telemetry::blobstore::BlobStore>;

    for threads in [1usize, 4] {
        // Clean baseline with the real forecaster.
        let clean_config = PipelineConfig {
            threads,
            forecaster: Arc::new(PersistentForecast::previous_day()),
        };
        let clean = AmlPipeline::new(clean_config, store());
        let clean_report = clean.run_region_week("region-a", week_days[0]);
        assert!(clean_report.degraded.is_none(), "baseline must be clean");

        let poison = Arc::new(PanicOnMarkedHistory {
            marked: Mutex::new(None),
            panics: AtomicUsize::new(0),
            inner: PersistentForecast::previous_day(),
        });
        let config = PipelineConfig {
            threads,
            forecaster: Arc::clone(&poison) as Arc<dyn Forecaster>,
        };
        let pipeline = AmlPipeline::new(config, store());
        let report = pipeline.run_region_week("region-a", week_days[0]);

        assert!(!report.blocked, "a panicking server never blocks the run");
        assert_eq!(
            poison.panics.load(Ordering::SeqCst),
            1,
            "the marked fit panics once at {threads} thread(s)"
        );
        let degraded = report.degraded.expect("quarantine recorded");
        assert_eq!(
            degraded.quarantined_servers.len(),
            1,
            "exactly the marked server quarantines: {:?}",
            degraded.quarantined_servers
        );
        let marked_id = degraded.quarantined_servers[0];
        assert_eq!(
            pipeline.docs.count(collections::DEAD_LETTER),
            1,
            "one dead-letter doc for the marked server"
        );

        // Siblings are byte-identical to the clean run.
        let marked_prefix = format!("region-a/{marked_id}/");
        let sibling_preds: Vec<(String, Value)> = canonical_predictions(&clean)
            .into_iter()
            .filter(|(id, _)| !id.starts_with(&marked_prefix))
            .collect();
        assert_eq!(
            sibling_preds,
            canonical_predictions(&pipeline),
            "siblings must match the clean run exactly at {threads} thread(s)"
        );
        assert_eq!(report.predictions_written, sibling_preds.len());
    }
}
