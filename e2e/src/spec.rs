//! The benchmark's one table: workloads, and every metric by name with its
//! unit and direction. `--list`, the runner, `--repeat` and the smoke test
//! all read it, and the smoke test checks `BENCHMARK.json` against it, so
//! the file and the binary cannot drift.

use seagull_telemetry::fleet::ClassMix;

/// What the driver runs, from the root of a checkout; it appends
/// `--workload <name> --seed <n> --seconds <run_seconds> --trace <0|1>`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "e2e/Cargo.toml",
    "--",
];
pub const PATHS: [&str; 1] = ["e2e"];
/// How long one run measures, seconds.
pub const RUN_SECONDS: u64 = 20;

/// Which forecaster a workload deploys.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// `PipelineConfig::production()`'s own (persistent, previous day).
    Production,
    /// `SsaForecaster::new(SsaConfig::default())`.
    Ssa,
}

/// One workload: a fleet, a model, and how long a round spends in each of
/// the three parts every workload runs (one fleet pass, then durable passes
/// for `durable_ms`, then a quiet and a storm segment of `serve_ms` each).
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Fleet size in units of 57 servers (see `fleet::REGION_UNITS`).
    pub scale: usize,
    pub mix: ClassMix,
    pub model: Model,
    pub durable_ms: u64,
    pub serve_ms: u64,
}

/// The pattern-heavy mix `experiments/BENCH_fit.json` documents.
const PATTERNED: ClassMix = ClassMix {
    short_lived: 0.10,
    stable: 0.30,
    daily: 0.35,
    weekly: 0.15,
    unstable: 0.10,
};

/// Paper Fig. 3 (`ClassMix::default()`), spelled out because the table is a
/// `const`.
const FIG3: ClassMix = ClassMix {
    short_lived: 0.421,
    stable: 0.535,
    daily: 0.002,
    weekly: 0.001,
    unstable: 0.041,
};

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fleet_fig3",
        why: "paper Fig. 3 mix, persistent forecast: the data plane (extract, decode, validate, featurize, persist) does the work, fits almost none",
        scale: 4,
        mix: FIG3,
        model: Model::Production,
        durable_ms: 100,
        serve_ms: 150,
    },
    Workload {
        name: "fleet_patterned",
        why: "pattern-heavy mix with SSA: forecast, linalg and the model cache do the work, the data plane little; week 1 cold, weeks 2-4 warm",
        scale: 3,
        mix: PATTERNED,
        model: Model::Ssa,
        durable_ms: 100,
        serve_ms: 150,
    },
    Workload {
        name: "serve_storm",
        why: "closed-loop reader beside an open-loop publisher (one region every 5 ms): reads beside writes on the snapshot store",
        scale: 4,
        mix: FIG3,
        model: Model::Production,
        durable_ms: 100,
        serve_ms: 800,
    },
    Workload {
        name: "durable_restart",
        why: "journaled deploys, drop, recover, probe: SGSS encode and SGJL append against replay, checksum, decode and publish",
        scale: 4,
        mix: FIG3,
        model: Model::Production,
        durable_ms: 1200,
        serve_ms: 150,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric is better.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Bounds come from the run-to-run spreads recorded in `README.md`.
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("server_weeks_per_s", "1/s", Better::Higher, 0.25),
    e2e("cold_week_s", "s", Better::Lower, 0.25),
    e2e("warm_week_s", "s", Better::Lower, 0.25),
    e2e("ll_window_correct_pct", "%", Better::Higher, 0.25),
    e2e("serve_qps", "1/s", Better::Higher, 0.25),
    e2e("serve_p50_us", "us", Better::Lower, 0.25),
    e2e("durable_deploy_ms", "ms", Better::Lower, 0.25),
    e2e("recover_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.20),
];

/// A per-layer metric: `<crate>.<module>.<metric>`, no bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 78] = [
    lo("telemetry.extract.busy_s", "s"),
    lo("telemetry.extract.blob_bytes", "bytes"),
    hi("telemetry.extract.encode_mb_per_s", "MB/s"),
    hi("telemetry.columnar.decode_mb_per_s", "MB/s"),
    lo("telemetry.columnar.extract_us_per_server", "us"),
    lo("core.pipeline.ingestion_s", "s"),
    lo("core.pipeline.validation_s", "s"),
    lo("core.pipeline.features_s", "s"),
    lo("core.pipeline.train_infer_s", "s"),
    lo("core.pipeline.docstore_write_s", "s"),
    lo("core.pipeline.deployment_s", "s"),
    lo("core.pipeline.accuracy_eval_s", "s"),
    lo("core.pipeline.unattributed_s", "s"),
    lo("core.pipeline.self_s", "s"),
    hi("core.pipeline.servers_in", "count"),
    hi("core.pipeline.predictions_written", "count"),
    lo("core.pipeline.anomalies", "count"),
    lo("core.pipeline.retries", "count"),
    lo("core.pipeline.degraded_runs", "count"),
    lo("core.pipeline.quarantined_servers", "count"),
    hi("core.par.threads", "count"),
    hi("core.par.parallelism", "ratio"),
    lo("core.docstore.docs", "count"),
    lo("core.docstore.prediction_docs", "count"),
    lo("forecast.fit_calls", "count"),
    lo("forecast.fit_busy_s", "s"),
    lo("forecast.fit_errors", "count"),
    lo("forecast.predict_calls", "count"),
    lo("forecast.predict_busy_s", "s"),
    lo("forecast.fit_share_pct", "%"),
    hi("forecast.cache.hits_exact", "count"),
    hi("forecast.cache.hits_similarity", "count"),
    lo("forecast.cache.misses", "count"),
    hi("forecast.cache.hit_ratio", "ratio"),
    hi("forecast.cache.saved_fit_s", "s"),
    lo("forecast.ssa.fit_us_auto", "us"),
    lo("serve.persist.on_deploy_calls", "count"),
    lo("serve.persist.on_deploy_busy_s", "s"),
    lo("serve.persist.snapshot_bytes", "bytes"),
    hi("serve.persist.encode_mb_per_s", "MB/s"),
    hi("serve.persist.decode_mb_per_s", "MB/s"),
    lo("serve.persist.journal_records", "count"),
    lo("serve.persist.bytes_replayed", "bytes"),
    lo("serve.persist.snapshot_fallbacks", "count"),
    lo("serve.persist.put_failures", "count"),
    lo("serve.service.predict_p50_us", "us"),
    lo("serve.service.predict_day_p50_us", "us"),
    lo("serve.service.ll_window_p50_us", "us"),
    lo("serve.service.batch8_p50_us", "us"),
    lo("serve.service.p99_us", "us"),
    lo("serve.service.p999_us", "us"),
    lo("serve.service.errors", "count"),
    hi("serve.service.quiet_qps", "1/s"),
    lo("serve.service.quiet_p50_us", "us"),
    lo("serve.service.quiet_p99_us", "us"),
    lo("serve.store.publish_p50_us", "us"),
    lo("serve.store.publish_p99_us", "us"),
    lo("serve.store.publish_late_us", "us"),
    hi("serve.store.publishes", "count"),
    lo("serve.store.snapshots_retired", "count"),
    hi("serve.store.snapshots_freed", "count"),
    lo("backup.scheduler.busy_s", "s"),
    hi("backup.scheduler.due_servers", "count"),
    hi("backup.scheduler.rescheduled", "count"),
    lo("backup.scheduler.default_kept", "count"),
    hi("backup.scheduler.rescheduled_ratio", "ratio"),
    lo("obs.spans_recorded", "count"),
    lo("obs.series", "count"),
    lo("obs.stable_export_bytes", "bytes"),
    lo("obs.stable_export_ms", "ms"),
    lo("bench.trace_overhead_pct", "%"),
    lo("bench.generator_late_us", "us"),
    lo("bench.failed_ops", "count"),
    hi("bench.attempted_ops", "count"),
    hi("bench.rounds", "count"),
    hi("bench.durable_passes", "count"),
    hi("bench.serve_requests", "count"),
    lo("bench.harness_self_s", "s"),
];
