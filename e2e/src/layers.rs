//! Per-layer metrics of a traced run (`--trace 1`): sums over the recorded
//! spans, what public calls already returned, and a few direct timings of
//! public functions.

use crate::fleet::{self, Inputs, Pass};
use crate::run::{Metrics, Run};
use crate::spec;
use crate::trace::{self, Span};
use crate::util::{median, secs};
use seagull_core::pipeline::PipelineRunReport;
use seagull_obs::Stability;
use seagull_telemetry::blobstore::{BlobKey, BlobStore};
use seagull_telemetry::extract::RegionWeekBatch;
use std::time::Instant;

const DIRECT_REPEATS: usize = 3;

/// Per-layer metric of each pipeline stage the run reports name.
pub const STAGES: [(&str, &str); 7] = [
    ("core.pipeline.ingestion_s", "ingestion"),
    ("core.pipeline.validation_s", "validation"),
    ("core.pipeline.features_s", "features"),
    ("core.pipeline.train_infer_s", "train-infer"),
    ("core.pipeline.docstore_write_s", "docstore-write"),
    ("core.pipeline.deployment_s", "deployment"),
    ("core.pipeline.accuracy_eval_s", "accuracy-eval"),
];

/// Direct decode and extract of one pass's `SGCB` blobs: MB/s decoded and
/// microseconds per server extracted, medians of a few repeats.
fn columnar_direct(pass: &Pass, inputs: &Inputs) -> (f64, f64) {
    let blobs: Vec<_> = inputs
        .regions
        .iter()
        .flat_map(|region| {
            inputs
                .weeks
                .iter()
                .map(move |&week| BlobKey::extracted(region, week))
        })
        .map(|key| pass.blobs.get(&key).expect("extracted blob present"))
        .collect();
    let bytes: usize = blobs.iter().map(|b| b.len()).sum();
    let (mut decode, mut extract) = (Vec::new(), Vec::new());
    for _ in 0..DIRECT_REPEATS {
        let (mut decode_s, mut extract_s, mut servers) = (0.0, 0.0, 0usize);
        for blob in &blobs {
            let began = Instant::now();
            let batch = RegionWeekBatch::decode(blob).expect("own blobs decode");
            let decoded = Instant::now();
            servers += batch.extract(5).len();
            extract_s += secs(decoded.elapsed());
            decode_s += secs(decoded - began);
        }
        decode.push(bytes as f64 / 1e6 / decode_s);
        extract.push(extract_s * 1e6 / servers.max(1) as f64);
    }
    (median(&decode), median(&extract))
}

/// Solo SSA fits of 32 patterned week-long series fixed by the seed: median
/// microseconds per fit.
fn ssa_direct(seed: u64) -> f64 {
    let patterned = spec::workload("fleet_patterned").expect("table has the patterned workload");
    let inputs = Inputs::generate(patterned, 1, seed);
    let week = 7 * 24 * 60;
    let ssa = fleet::forecaster(spec::Model::Ssa);
    let per_fit: Vec<f64> = inputs
        .servers
        .iter()
        .flatten()
        .filter_map(|s| {
            s.series
                .slice(s.series.start(), s.series.start() + week)
                .ok()
        })
        .take(32)
        .map(|history| {
            let began = Instant::now();
            let fitted = ssa.fit(&history);
            let took = secs(began.elapsed()) * 1e6;
            drop(fitted);
            took
        })
        .collect();
    if per_fit.is_empty() {
        0.0
    } else {
        median(&per_fit)
    }
}

fn spans_as_json_lines(spans: &[Span]) -> String {
    spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"pass\":{}}}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.pass
            )
        })
        .collect()
}

pub fn measure(run: &Run<'_>, m: &mut Metrics) {
    let rec = run.recorder.as_ref().expect("a traced run records spans");
    let spans = rec.spans();
    let traced_passes = &run.fleet.traced_passes;
    let newest_pass = traced_passes.len() as u32;
    let per_pass = |f: &dyn Fn(u32) -> f64| -> Vec<f64> { (1..=newest_pass).map(f).collect() };
    let busy_s = |name: &'static str| per_pass(&|i| trace::busy(&spans, name, i).0);
    let count = |name: &str| trace::busy(&spans, name, newest_pass).1 as f64;
    let (_, newest_fit_errors) = traced_passes
        .last()
        .expect("a traced run has a traced pass");
    let setup = run.setup;
    let reference = &setup.reference;
    let last = run.fleet.last.as_ref().expect("at least one round");
    let traced_wall = median(&run.fleet.traced.wall.raw);
    let plain_wall = median(&run.fleet.plain.wall.raw);

    let extract_s = busy_s("telemetry.extract");
    m.set_median("telemetry.extract.busy_s", &extract_s);
    m.set("telemetry.extract.blob_bytes", last.blob_bytes as f64);
    m.set(
        "telemetry.extract.encode_mb_per_s",
        last.blob_bytes as f64 / 1e6 / median(&extract_s),
    );
    let (decode_mb_s, extract_us) = columnar_direct(last, &setup.inputs);
    m.set("telemetry.columnar.decode_mb_per_s", decode_mb_s);
    m.set("telemetry.columnar.extract_us_per_server", extract_us);

    for (k, (name, _)) in STAGES.into_iter().enumerate() {
        let seconds: Vec<f64> = traced_passes.iter().map(|(stages, _)| stages[k]).collect();
        m.set_median(name, &seconds);
    }
    m.set(
        "core.pipeline.unattributed_s",
        reference.run_week_wall - reference.stages_s(),
    );
    m.set_median(
        "core.pipeline.self_s",
        &per_pass(&|i| trace::self_time(&spans, "core.run_week", i)),
    );
    let sum =
        |f: &dyn Fn(&PipelineRunReport) -> usize| last.reports.iter().map(f).sum::<usize>() as f64;
    m.set("core.pipeline.servers_in", sum(&|r| r.servers));
    m.set(
        "core.pipeline.predictions_written",
        sum(&|r| r.predictions_written),
    );
    m.set("core.pipeline.anomalies", sum(&|r| r.anomalies));
    m.set(
        "core.pipeline.retries",
        sum(&|r| r.total_retries() as usize),
    );
    m.set(
        "core.pipeline.degraded_runs",
        sum(&|r| usize::from(r.is_degraded())),
    );
    m.set(
        "core.pipeline.quarantined_servers",
        last.quarantined() as f64,
    );
    m.set("core.par.threads", run.threads as f64);
    m.set("core.par.parallelism", last.stages_s() / last.run_week_wall);
    m.set("core.docstore.docs", last.docs as f64);
    m.set("core.docstore.prediction_docs", last.prediction_docs as f64);

    let fit_s = busy_s("forecast.fit");
    m.set("forecast.fit_calls", count("forecast.fit"));
    m.set_median("forecast.fit_busy_s", &fit_s);
    m.set("forecast.fit_errors", *newest_fit_errors as f64);
    m.set("forecast.predict_calls", count("forecast.predict"));
    m.set_median("forecast.predict_busy_s", &busy_s("forecast.predict"));
    m.set(
        "forecast.fit_share_pct",
        100.0 * median(&fit_s) / traced_wall,
    );
    m.set("forecast.cache.hits_exact", last.cache.hits as f64);
    m.set(
        "forecast.cache.hits_similarity",
        last.cache.hits_similarity as f64,
    );
    m.set("forecast.cache.misses", last.cache.misses() as f64);
    m.set("forecast.cache.hit_ratio", last.cache.hit_rate());
    m.set("forecast.cache.saved_fit_s", secs(last.cache.saved_wall));
    m.set("forecast.ssa.fit_us_auto", ssa_direct(run.args.seed));

    let durable = run
        .durable
        .newest
        .as_ref()
        .expect("at least one durable pass");
    let deploy_s = median(&run.durable.deploy_ms.raw) / 1e3;
    let recover_s = median(&run.durable.recover_ms.raw) / 1e3;
    m.set("serve.persist.on_deploy_calls", count("serve.on_deploy"));
    m.set_median("serve.persist.on_deploy_busy_s", &busy_s("serve.on_deploy"));
    m.set(
        "serve.persist.snapshot_bytes",
        durable.snapshot_bytes as f64,
    );
    m.set(
        "serve.persist.encode_mb_per_s",
        durable.snapshot_bytes as f64 / 1e6 / deploy_s,
    );
    m.set(
        "serve.persist.decode_mb_per_s",
        durable.report.bytes_replayed as f64 / 1e6 / recover_s,
    );
    m.set(
        "serve.persist.journal_records",
        durable.journal_records as f64,
    );
    m.set(
        "serve.persist.bytes_replayed",
        durable.report.bytes_replayed as f64,
    );
    m.set(
        "serve.persist.snapshot_fallbacks",
        durable.report.snapshot_fallbacks as f64,
    );
    m.set(
        "serve.persist.put_failures",
        (durable.put_failures + last.put_failures) as f64,
    );

    let serve = &run.serve;
    let kinds = [
        "serve.service.predict_p50_us",
        "serve.service.predict_day_p50_us",
        "serve.service.ll_window_p50_us",
        "serve.service.batch8_p50_us",
    ];
    for (name, kind) in kinds.into_iter().zip(&serve.by_kind) {
        m.set(name, kind.quantile_us(0.5));
    }
    m.set("serve.service.p999_us", serve.storm_all.quantile_us(0.999));
    m.set("serve.service.errors", serve.errors as f64);
    let registry = reference.serve.obs().registry();
    m.set(
        "serve.store.publish_p99_us",
        serve.publish_all.quantile_us(0.99),
    );
    m.set(
        "serve.store.publish_late_us",
        serve.late_all.quantile_us(0.5),
    );
    m.set("serve.store.publishes", serve.publishes as f64);
    m.set(
        "serve.store.snapshots_retired",
        registry.gauge("seagull_serve_snapshots_retired", &[]).get(),
    );
    m.set(
        "serve.store.snapshots_freed",
        registry
            .gauge_with("seagull_serve_gc_freed", &[], Stability::Volatile)
            .get(),
    );

    m.set_median("backup.scheduler.busy_s", &busy_s("backup.schedule"));
    m.set("backup.scheduler.due_servers", last.due_servers as f64);
    m.set("backup.scheduler.rescheduled", last.rescheduled as f64);
    m.set(
        "backup.scheduler.default_kept",
        (last.due_servers - last.rescheduled) as f64,
    );
    m.set(
        "backup.scheduler.rescheduled_ratio",
        last.rescheduled as f64 / last.due_servers.max(1) as f64,
    );

    let obs = last.runner.obs();
    let mut export_ms = Vec::new();
    let mut export_bytes = 0;
    for _ in 0..DIRECT_REPEATS {
        let began = Instant::now();
        export_bytes = obs.stable_export().len();
        export_ms.push(secs(began.elapsed()) * 1e3);
    }
    m.set("obs.spans_recorded", obs.tracer().spans().len() as f64);
    m.set("obs.series", obs.registry().snapshot().len() as f64);
    m.set("obs.stable_export_bytes", export_bytes as f64);
    m.set_median("obs.stable_export_ms", &export_ms);

    m.set(
        "bench.trace_overhead_pct",
        100.0 * (traced_wall / plain_wall - 1.0),
    );
    m.set(
        "bench.generator_late_us",
        serve.max_late.as_secs_f64() * 1e6,
    );
    m.set_median(
        "bench.harness_self_s",
        &per_pass(&|i| {
            trace::self_time(&spans, "bench.pass", i) + trace::self_time(&spans, "bench.week", i)
        }),
    );
    if let Some(path) = &run.args.spans {
        if let Err(e) = std::fs::write(path, spans_as_json_lines(&spans)) {
            eprintln!("e2e: cannot write spans to {path}: {e}");
        }
    }
}
