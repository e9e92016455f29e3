//! Micro-benchmarks for the Seagull hot paths: the metric kernels (bucket
//! ratio, LL-window search), the served LL-window query, model fitting,
//! classification, the featurization kernels on a generated Fig. 3 week, the
//! `SGCB` data plane on that week (write, decode, checksum, validate), one
//! region's durable deploy a step at a time (snapshot build, `SGSS` encode
//! and decode, publish), the linalg kernels under an SSA fit
//! at its shapes, the document store, and the parallel executor.
//!
//! `cargo bench -p seagull-bench --bench micro -- <filter>` times every row
//! whose name contains `<filter>` (all rows without one) and prints its time
//! per iteration: the median and quartiles of 50 samples of about 10 ms
//! each. Run without `--bench` (`cargo test --benches`), each row runs once.

use seagull_bench::zoo::additive::FitMethod;
use seagull_bench::zoo::{
    AdditiveConfig, AdditiveForecaster, FeedForwardConfig, FeedForwardForecaster,
};
use seagull_core::classify::{classify_series, ClassifyConfig};
use seagull_core::docstore::DocStore;
use seagull_core::features::extract_server_features;
use seagull_core::metrics::{bucket_ratio, evaluate_low_load, AccuracyConfig, ErrorBound};
use seagull_core::par::parallel_map;
use seagull_core::pipeline::{DeployEvent, PredictionDoc};
use seagull_core::validation::{validate_columnar, DataProfile};
use seagull_forecast::{Forecaster, PersistentForecast, SsaForecaster};
use seagull_linalg::{hankel_gram, kernel};
use seagull_serve::{decode_snapshot, encode_snapshot, ModelSnapshot, ServeService};
use seagull_telemetry::blobstore::{BlobStore, MemoryBlobStore};
use seagull_telemetry::columnar::ColumnarBatch;
use seagull_telemetry::extract::{ExtractedServer, LoadExtraction};
use seagull_telemetry::fleet::{FleetGenerator, FleetSpec, ServerTelemetry};
use seagull_telemetry::frame::{checksum64, checksum64_words};
use seagull_telemetry::record::{csv_quantized, RecordBatch};
use seagull_timeseries::{
    decompose, detect_anomalies, fill_gaps, min_mean_window, AnomalyConfig, GapFill, SummaryStats,
    TimeSeries, Timestamp,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Samples timed per row, and the time one sample is calibrated to take.
const SAMPLES: usize = 50;
const SAMPLE_TIME: Duration = Duration::from_millis(10);

/// The row runner: the argv filter, and whether to time (`--bench`) or run
/// each row once.
struct Criterion {
    filter: Option<String>,
    measure: bool,
}

impl Criterion {
    /// Whether the filter lets rows named `name` run.
    fn runs(&self, name: &str) -> bool {
        self.filter
            .as_deref()
            .is_none_or(|filter| name.contains(filter))
    }

    fn bench_function(&mut self, name: &str, f: impl FnOnce(&mut Bencher)) {
        if !self.runs(name) {
            return;
        }
        let mut b = Bencher {
            measure: self.measure,
            ns_per_iter: Vec::new(),
        };
        f(&mut b);
        let mut ns = b.ns_per_iter;
        if ns.is_empty() {
            return;
        }
        ns.sort_by(f64::total_cmp);
        let at = |q: usize| fmt_ns(ns[(ns.len() - 1) * q / 4]);
        println!("{name:<44} {:>10}  [{} .. {}]", at(2), at(1), at(3));
    }
}

/// `ns` nanoseconds in ns, µs or ms.
fn fmt_ns(ns: f64) -> String {
    match ns {
        ns if ns < 1e3 => format!("{ns:.1} ns"),
        ns if ns < 1e6 => format!("{:.2} µs", ns / 1e3),
        ns => format!("{:.2} ms", ns / 1e6),
    }
}

/// Times one row's routine.
struct Bencher {
    measure: bool,
    ns_per_iter: Vec<f64>,
}

impl Bencher {
    /// Times `routine`, dropping each output inside the timing.
    fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        self.sample(|iters| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            start.elapsed()
        });
    }

    /// Times `routine` on inputs made by `setup`, outside the timing (as
    /// are the outputs' drops).
    fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
    ) {
        self.sample(|iters| {
            let inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
            let mut outputs = Vec::with_capacity(inputs.len());
            let start = Instant::now();
            for input in inputs {
                outputs.push(routine(input));
            }
            let elapsed = start.elapsed();
            black_box(outputs);
            elapsed
        });
    }

    /// Doubles the iterations per sample until one takes `SAMPLE_TIME`, then
    /// takes `SAMPLES` samples at that count.
    fn sample(&mut self, mut timed: impl FnMut(u64) -> Duration) {
        if !self.measure {
            timed(1);
            return;
        }
        let mut iters = 1;
        while timed(iters) < SAMPLE_TIME {
            iters *= 2;
        }
        self.ns_per_iter = (0..SAMPLES)
            .map(|_| timed(iters).as_nanos() as f64 / iters as f64)
            .collect();
    }
}

fn day_series(seed: u64) -> TimeSeries {
    TimeSeries::from_fn(Timestamp::from_days(100), 5, 288, |t| {
        let m = t.minute_of_day() as f64;
        30.0 + 20.0 * (2.0 * std::f64::consts::PI * (m + seed as f64) / 1440.0).sin()
    })
    .unwrap()
}

fn week_series(seed: u64) -> TimeSeries {
    TimeSeries::from_fn(Timestamp::from_days(100), 5, 7 * 288, |t| {
        let m = t.minute_of_day() as f64;
        30.0 + 20.0 * (2.0 * std::f64::consts::PI * (m + seed as f64) / 1440.0).sin()
    })
    .unwrap()
}

fn bench_metrics(c: &mut Criterion) {
    let truth = day_series(0);
    let pred = day_series(30);
    let bound = ErrorBound::default();
    c.bench_function("bucket_ratio/288pts", |b| {
        b.iter(|| bucket_ratio(black_box(pred.values()), black_box(truth.values()), &bound))
    });
    c.bench_function("min_mean_window/288pts", |b| {
        b.iter(|| min_mean_window(black_box(truth.values()), 24))
    });
    let cfg = AccuracyConfig::default();
    c.bench_function("evaluate_low_load/288pts", |b| {
        b.iter(|| evaluate_low_load(black_box(&truth), black_box(&pred), 120, &cfg))
    });
}

/// The scheduler's query, `ServeService::ll_window`, over 64 servers with a
/// 288-point day and a two-hour backup each: the row times one sweep of the
/// 64, so divide by 64 for a query and set it against
/// `min_mean_window/288pts` for the share that is the search.
fn bench_serve_ll_window(c: &mut Criterion) {
    const SERVERS: u64 = 64;
    let docs: Vec<PredictionDoc> = (0..SERVERS)
        .map(|id| PredictionDoc {
            region: "west".into(),
            server_id: id,
            day: 100,
            step_min: 5,
            values: day_series(id * 20).values().to_vec(),
            duration_min: 120,
        })
        .collect();
    let serve = ServeService::with_defaults();
    serve.publish(ModelSnapshot::from_predictions("west", 1, 93, "m", &docs));
    c.bench_function("serve/ll_window/64servers", |b| {
        b.iter(|| {
            (0..SERVERS)
                .map(|id| serve.ll_window("west", id, 100).unwrap().start.minutes())
                .sum::<i64>()
        })
    });
}

fn bench_models(c: &mut Criterion) {
    let week = week_series(0);
    c.bench_function("persistent_prev_day/fit_predict_week", |b| {
        let model = PersistentForecast::previous_day();
        b.iter(|| model.fit_predict(black_box(&week), 288).unwrap())
    });
    c.bench_function("ssa/fit_week", |b| {
        let model = SsaForecaster::default();
        b.iter(|| model.fit(black_box(&week)).unwrap())
    });
    c.bench_function("ssa/fit_week_dense", |b| {
        let model = SsaForecaster::default();
        b.iter(|| model.fit_dense(black_box(&week)).unwrap())
    });
    c.bench_function("additive_exact/fit_week", |b| {
        let model = AdditiveForecaster::new(AdditiveConfig {
            fit: FitMethod::Exact,
            ..AdditiveConfig::default()
        });
        b.iter(|| model.fit(black_box(&week)).unwrap())
    });
    c.bench_function("feedforward_small/fit_week", |b| {
        let model = FeedForwardForecaster::new(FeedForwardConfig {
            hidden: vec![8],
            epochs: 2,
            stride: 8,
            ..FeedForwardConfig::default()
        });
        b.iter(|| model.fit(black_box(&week)).unwrap())
    });
}

/// The two kernels every fit bottoms out in, and the Gram matrix built on
/// them, at the shapes of a default SSA fit of one week (`n = 2,016`,
/// `L = 72`, `K = 1,945`): one layer below `ssa/fit_week`, so a kernel that
/// falls back to a libm call per element shows here first.
fn bench_linalg(c: &mut Criterion) {
    let week = week_series(0);
    let (s, k) = (week.values(), 1945);
    c.bench_function("linalg/dot_1945", |b| {
        b.iter(|| kernel::dot(black_box(&s[..k]), black_box(&s[71..])))
    });
    c.bench_function("linalg/axpy_1945", |b| {
        let mut y = vec![0.0; k];
        b.iter(|| kernel::axpy(black_box(&mut y), 0.37, black_box(&s[..k])))
    });
    c.bench_function("linalg/hankel_gram_2016x72", |b| {
        b.iter(|| hankel_gram(black_box(s), 72))
    });
}

fn bench_codec(c: &mut Criterion) {
    use seagull_telemetry::record::LoadRecord;
    use seagull_telemetry::server::ServerId;
    let batch = RecordBatch::new(
        (0..2000)
            .map(|i| LoadRecord {
                server_id: ServerId(i % 20),
                timestamp_min: (i as i64) * 5,
                avg_cpu: (i % 100) as f64,
                default_backup_start: 0,
                default_backup_end: 60,
            })
            .collect(),
    );
    let blob = batch.to_csv();
    c.bench_function("csv/encode_2k_rows", |b| {
        b.iter(|| black_box(&batch).to_csv())
    });
    c.bench_function("csv/decode_2k_rows", |b| {
        b.iter(|| RecordBatch::from_csv(black_box(&blob)).unwrap())
    });
}

/// One region-week of the paper's Fig. 3 population mix (80 servers, mostly
/// short-lived and stable), as the fleet telemetry and the week's first day.
fn fig3_week_fleet() -> (Vec<ServerTelemetry>, i64) {
    let spec = FleetSpec::small_region(2020);
    let week = spec.start_day;
    (FleetGenerator::new(spec).generate_weeks(1), week)
}

/// That week as the rows the extraction query emits.
fn fig3_week_rows() -> RecordBatch {
    let (fleet, week) = fig3_week_fleet();
    LoadExtraction::columnar(5).extract_week(&fleet, "region-a", week)
}

/// The same week as the pipeline's featurizer sees it: gridded, quantized,
/// gaps as NaN.
fn fig3_week_servers() -> Vec<ExtractedServer> {
    ColumnarBatch::from_records(&fig3_week_rows(), 5).extract(5)
}

/// That week after the pipeline's gap repair, which is what it featurizes.
fn fig3_week_filled() -> Vec<ExtractedServer> {
    let mut servers = fig3_week_servers();
    for s in &mut servers {
        fill_gaps(&mut s.series, GapFill::Linear);
    }
    servers
}

// The kernels `extract_server_features` spends its time in, then the whole
// of it, then the data-plane part of the pipeline's per-server operator
// around it, each over every server of the week: a featurizer regression
// shows here before it shows in the end-to-end benchmark.
fn bench_decompose(c: &mut Criterion) {
    let week = week_series(0);
    c.bench_function("decompose/week_daily_period", |b| {
        b.iter(|| decompose(black_box(&week), 288).unwrap())
    });
    let servers = fig3_week_filled();
    c.bench_function("decompose_strengths/fig3_week_80srv", |b| {
        b.iter(|| {
            servers
                .iter()
                .filter_map(|s| decompose(black_box(&s.series), s.series.points_per_day()))
                .map(|d| d.strengths())
                .map(|(seasonal, trend)| seasonal + trend)
                .sum::<f64>()
        })
    });
}

fn bench_detect_anomalies(c: &mut Criterion) {
    let servers = fig3_week_servers();
    // The production ±1 h window, whose two positions per step lie within one
    // block move, and a ±40-point one, where they are up to three apart.
    let wide = AnomalyConfig {
        half_window: 40,
        ..AnomalyConfig::default()
    };
    for (name, cfg) in [
        ("detect_anomalies/fig3_week_80srv", AnomalyConfig::default()),
        ("detect_anomalies/fig3_week_80srv_w40", wide),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                servers
                    .iter()
                    .map(|s| detect_anomalies(black_box(&s.series), &cfg).len())
                    .sum::<usize>()
            })
        });
    }
}

fn bench_summary_stats(c: &mut Criterion) {
    let servers = fig3_week_servers();
    c.bench_function("summary_stats/fig3_week_80srv", |b| {
        b.iter(|| {
            servers
                .iter()
                .map(|s| SummaryStats::compute(black_box(s.series.values())).p95)
                .sum::<f64>()
        })
    });
}

fn bench_csv_quantized(c: &mut Criterion) {
    let loads: Vec<f64> = fig3_week_rows().records.iter().map(|r| r.avg_cpu).collect();
    c.bench_function("csv_quantized/fig3_week_rows", |b| {
        b.iter(|| {
            black_box(&loads)
                .iter()
                .map(|&v| csv_quantized(v))
                .sum::<f64>()
        })
    });
}

/// The `SGCB` data plane around the featurizer, a stage per row: the
/// extraction query writing the week's blob into a fresh store, the pipeline
/// decoding it into per-server views, validation's scan of the decoded batch.
/// With `csv_quantized/fig3_week_rows` and `run_server_shape/fig3_week_80srv`
/// they read a data-plane change apart without the end-to-end harness.
fn bench_sgcb(c: &mut Criterion) {
    let (fleet, week) = fig3_week_fleet();
    let regions = ["region-a".to_string()];
    let extraction = LoadExtraction::columnar(5);
    let write = || {
        let store = MemoryBlobStore::new();
        let keys = extraction.run(black_box(&fleet), &regions, &[week], &store);
        (store, keys.unwrap())
    };
    let (store, keys) = write();
    let blob = store.get(&keys[0]).unwrap();
    let rows = ["sgcb/encode_region_week", "sgcb/decode_region_week"];
    c.bench_function(rows[0], |b| b.iter(write));
    c.bench_function(rows[1], |b| {
        b.iter(|| ColumnarBatch::decode(black_box(&blob)).unwrap().extract(5))
    });
    // The stored size the two rows write and read, next to them.
    if rows.iter().any(|row| c.runs(row)) {
        let samples = ColumnarBatch::decode(&blob).unwrap().total_points();
        println!("  (one blob: {} bytes, {samples} samples)", blob.len());
    }
    // The checksum alone, over the same blob: the share of a decode (and of
    // every `seal`) that is hashing.
    c.bench_function("frame/checksum64_region_week", |b| {
        b.iter(|| checksum64(black_box(&blob)))
    });
    let batch = ColumnarBatch::decode(&blob).unwrap();
    let profile = DataProfile::standard(5);
    c.bench_function("validate_columnar/fig3_week", |b| {
        b.iter(|| validate_columnar(black_box(&batch), &profile, 20))
    });
}

/// One region's deploy of 80 servers' 288-point predictions through the
/// durable sink, a step per row: the snapshot built from the deploy event,
/// its `SGSS` blob encoded and sealed (as `on_deploy` writes it), the blob
/// opened and decoded (as `recover` reads it), and a snapshot published
/// into a service already serving the region (the superseded one dropped
/// inside the timing, as a deploy drops it). The publish row's snapshots
/// hold 48-point days: a sample builds every snapshot it publishes up front.
fn bench_persist(c: &mut Criterion) {
    let docs: Vec<PredictionDoc> = (0..80)
        .map(|id| PredictionDoc {
            region: "region-a".into(),
            server_id: id,
            day: 100,
            step_min: 5,
            values: day_series(id * 20).into_values(),
            duration_min: 120,
        })
        .collect();
    let event = DeployEvent {
        region: "region-a",
        version: 1,
        week_start_day: 93,
        model_name: "persistent-prev-day",
        predictions: &docs,
        cache: None,
    };
    c.bench_function("persist/from_deploy_region", |b| {
        b.iter(|| ModelSnapshot::from_deploy(black_box(&event)))
    });
    let snapshot = ModelSnapshot::from_deploy(&event);
    c.bench_function("persist/encode_region", |b| {
        b.iter(|| encode_snapshot(black_box(&snapshot)))
    });
    let blob = encode_snapshot(&snapshot);
    c.bench_function("persist/decode_region", |b| {
        b.iter(|| decode_snapshot(black_box(&blob)).unwrap())
    });
    let half_hourly: Vec<PredictionDoc> = docs
        .iter()
        .map(|doc| PredictionDoc {
            step_min: 30,
            values: doc.values.iter().step_by(6).copied().collect(),
            ..doc.clone()
        })
        .collect();
    let event = DeployEvent {
        predictions: &half_hourly,
        ..event
    };
    let serve = ServeService::with_defaults();
    serve.publish(ModelSnapshot::from_deploy(&event));
    c.bench_function("serve/publish_region", |b| {
        b.iter_batched(
            || ModelSnapshot::from_deploy(&event),
            |snapshot| serve.publish(snapshot),
        )
    });
}

fn bench_extract_server_features(c: &mut Criterion) {
    let servers = fig3_week_servers();
    let cfg = ClassifyConfig::default();
    c.bench_function("extract_server_features/fig3_week_80srv", |b| {
        b.iter(|| {
            servers
                .iter()
                .map(|s| extract_server_features(black_box(s), &cfg).load_anomalies)
                .sum::<usize>()
        })
    });
}

/// What `AmlPipeline::run_server` does to a server before its fit: copy and
/// gap-fill the series, featurize it, fingerprint it for the model cache.
fn bench_run_server_shape(c: &mut Criterion) {
    let servers = fig3_week_servers();
    let cfg = ClassifyConfig::default();
    c.bench_function("run_server_shape/fig3_week_80srv", |b| {
        b.iter(|| {
            servers
                .iter()
                .map(|s| {
                    let mut filled = black_box(s).clone();
                    fill_gaps(&mut filled.series, GapFill::Linear);
                    let features = extract_server_features(&filled, &cfg);
                    let step = std::iter::once(u64::from(filled.series.step_min()));
                    let samples = filled.series.values().iter();
                    let fingerprint =
                        checksum64_words(step.chain(samples.map(|&v| csv_quantized(v).to_bits())));
                    fingerprint ^ features.load_anomalies as u64
                })
                .fold(0, |acc, x| acc ^ x)
        })
    });
}

fn bench_classification(c: &mut Criterion) {
    let week = week_series(0);
    let cfg = ClassifyConfig::default();
    c.bench_function("classify_series/week", |b| {
        b.iter(|| classify_series(black_box(&week), &cfg))
    });
}

/// The pipeline's document traffic, per server: its 288-point prediction
/// upserted and read back (as accuracy-eval reads it a week later), and its
/// features document upserted. Ids cycle over 1,000 documents, so every
/// upsert past the first thousand replaces one.
fn bench_docstore(c: &mut Criterion) {
    let prediction = PredictionDoc {
        region: "region-a".into(),
        server_id: 0,
        day: 100,
        step_min: 5,
        values: day_series(0).into_values(),
        duration_min: 120,
    };
    c.bench_function("docstore/upsert_get", |b| {
        let store = DocStore::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let id = format!("region-a/{}/100", i % 1000);
            store.upsert("predictions", &id, black_box(&prediction));
            let doc: PredictionDoc = store.get("predictions", &id).unwrap();
            doc.values.len()
        })
    });
    let features = extract_server_features(&fig3_week_filled()[0], &ClassifyConfig::default());
    c.bench_function("docstore/upsert_features", |b| {
        let store = DocStore::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let id = format!("region-a/{}/93", i % 1000);
            store.upsert("features", &id, black_box(&features));
        })
    });
}

fn bench_executor(c: &mut Criterion) {
    let items: Vec<u64> = (0..256).collect();
    let work = |x: &u64| -> u64 {
        // A few microseconds of arithmetic per item.
        let mut acc = *x;
        for _ in 0..2000 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        acc
    };
    for threads in [1usize, 2, 4, 8] {
        c.bench_function(&format!("parallel_map/256items/{threads}"), |b| {
            b.iter_batched(
                || items.clone(),
                |items| parallel_map(&items, threads, work),
            )
        });
    }
}

fn main() {
    let mut c = Criterion {
        filter: std::env::args().skip(1).find(|arg| !arg.starts_with('-')),
        measure: std::env::args().any(|arg| arg == "--bench"),
    };
    let rows: [fn(&mut Criterion); 16] = [
        bench_metrics,
        bench_serve_ll_window,
        bench_models,
        bench_linalg,
        bench_classification,
        bench_codec,
        bench_decompose,
        bench_detect_anomalies,
        bench_summary_stats,
        bench_csv_quantized,
        bench_sgcb,
        bench_persist,
        bench_extract_server_features,
        bench_run_server_shape,
        bench_docstore,
        bench_executor,
    ];
    for row in rows {
        row(&mut c);
    }
}
