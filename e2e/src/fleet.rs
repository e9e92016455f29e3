//! The fleet phase: generated inputs and one pass of the paper's weekly
//! path. Per week: `LoadExtraction::columnar(5).run` (telemetry to `SGCB`
//! blobs) → `FleetRunner::run_week` (ingest, validate, featurize, fit,
//! deploy through `DurableServeSink`) → `BackupScheduler::schedule_day_served`
//! for each of the next seven days and each region. Every pass builds its
//! pipeline, stores and service afresh from the same inputs.

use crate::spec::{Model, Workload};
use crate::trace::{BoundarySink, Deploy, Recorder, TracedForecaster};
use crate::util::{secs, Fnv};
use seagull_backup::scheduler::{ScheduleDecision, ScheduledBackup, SchedulerConfig};
use seagull_backup::{BackupScheduler, FabricPropertyStore};
use seagull_core::pipeline::{
    collections, AmlPipeline, PipelineConfig, PipelineRunReport, PredictionDoc,
};
use seagull_core::FleetRunner;
use seagull_forecast::{CacheStats, Forecaster, SsaConfig, SsaForecaster};
use seagull_serve::{DurableServeSink, ServeService};
use seagull_telemetry::blobstore::{BlobKey, BlobStore, MemoryBlobStore};
use seagull_telemetry::extract::LoadExtraction;
use seagull_telemetry::fleet::{FleetGenerator, FleetSpec, ServerTelemetry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub const WEEKS: usize = 4;
const GRID_MIN: u32 = 5;
/// Servers per region for each unit of scale: 57 in all, as
/// `FleetSpec::four_regions` has, but 4 / 6 / 14 / 33 where that has
/// 1 / 4 / 12 / 40.
///
/// The smallest region is larger because a region with no telemetry in some
/// week blocks its run (`Anomaly::EmptyInput`), which the benchmark counts as
/// a failed operation, and with the paper's 42 % short-lived servers a
/// 4-server region is empty in 0.4 % of region-weeks: one run in sixty.
///
/// The first two regions together are smaller than the third so that the
/// week's schedule on two threads does not hang on a tie. The pipeline maps
/// the four regions over the caller and one pool worker, two regions each.
/// Whoever finishes first takes the largest region; a pool worker left idle
/// then helps inside it, the caller left idle does not. With 4 / 8 / 12 / 33
/// both finish together, the largest region ran on one thread in about two
/// weeks of five, and `run_week` took 235 ms instead of 150 ms, a whole run
/// leaning one way or the other with the seed.
const REGION_UNITS: [usize; 4] = [4, 6, 14, 33];

/// What `--seed` turns into: the generated fleet, split by region.
pub struct Inputs {
    pub regions: Vec<String>,
    /// Servers of each region, in `regions` order.
    pub servers: Vec<Vec<ServerTelemetry>>,
    /// First day of each of the [`WEEKS`] weeks.
    pub weeks: Vec<i64>,
}

impl Inputs {
    pub fn generate(workload: &Workload, scale: usize, seed: u64) -> Inputs {
        let mut spec = FleetSpec {
            mix: workload.mix,
            ..FleetSpec::four_regions(seed, scale)
        };
        for (region, units) in spec.regions.iter_mut().zip(REGION_UNITS) {
            region.servers = units * scale;
        }
        let regions = spec.regions.iter().map(|r| r.name.clone()).collect();
        let weeks = (0..WEEKS as i64).map(|w| spec.start_day + 7 * w).collect();
        let generator = FleetGenerator::new(spec);
        let servers = (0..generator.spec().regions.len())
            .map(|r| generator.generate_region(r, WEEKS))
            .collect();
        Inputs {
            regions,
            servers,
            weeks,
        }
    }

    pub fn total_servers(&self) -> usize {
        self.servers.iter().map(Vec::len).sum()
    }

    pub fn server_weeks(&self) -> f64 {
        (self.total_servers() * WEEKS) as f64
    }
}

pub fn forecaster(model: Model) -> Arc<dyn Forecaster> {
    match model {
        Model::Production => PipelineConfig::production().forecaster,
        Model::Ssa => Arc::new(SsaForecaster::new(SsaConfig::default())),
    }
}

/// How one pass is run.
pub struct PassConfig {
    pub threads: usize,
    pub model: Model,
    /// Install the boundary wrappers and record spans.
    pub trace: Option<Arc<Recorder>>,
    /// Keep an owned copy of every deploy (the set-up pass does).
    pub capture: bool,
}

/// Everything one pass produced, timings first.
pub struct Pass {
    pub wall: f64,
    pub week_walls: Vec<f64>,
    pub run_week_wall: f64,
    pub reports: Vec<PipelineRunReport>,
    /// Digest over the sorted prediction documents and every scheduled backup.
    pub digest: u64,
    pub due_servers: u64,
    pub rescheduled: u64,
    pub blob_bytes: u64,
    pub docs: u64,
    pub prediction_docs: u64,
    pub cache: CacheStats,
    pub fit_errors: u64,
    pub fallbacks: u64,
    pub put_failures: u64,
    pub serve: ServeService,
    pub blobs: Arc<MemoryBlobStore>,
    pub deploys: Vec<Deploy>,
    pub runner: FleetRunner,
}

fn fold_backup(h: &mut Fnv, b: &ScheduledBackup) {
    h.u64(b.server_id);
    h.i64(b.backup_day);
    h.i64(b.start.minutes());
    h.u64(u64::from(b.duration_min));
    match b.decision {
        ScheduleDecision::Rescheduled { window } => {
            h.u64(1);
            h.i64(window.start.minutes());
            h.u64(u64::from(window.duration_min));
            h.u64(window.mean_load.to_bits());
        }
        ScheduleDecision::DefaultKept { reason } => {
            h.u64(2);
            h.u64(reason as u64);
        }
    }
}

fn fold_doc(h: &mut Fnv, doc: &PredictionDoc) {
    h.bytes(doc.region.as_bytes());
    h.u64(doc.server_id);
    h.i64(doc.day);
    h.u64(u64::from(doc.step_min));
    h.i64(doc.duration_min);
    h.f64s(&doc.values);
}

/// Counter value of the durable sink's put-failure series.
pub fn put_failures(serve: &ServeService) -> u64 {
    let registry = serve.obs().registry();
    registry
        .counter("seagull_durable_journal_put_failures_total", &[])
        .get()
        + registry
            .counter("seagull_durable_snapshot_put_failures_total", &[])
            .get()
}

pub fn run_pass(inputs: &Inputs, config: &PassConfig) -> Pass {
    let rec = config.trace.as_deref();
    let fit_errors = Arc::new(AtomicU64::new(0));
    let mut forecaster = forecaster(config.model);
    if let Some(rec) = &config.trace {
        forecaster = Arc::new(TracedForecaster {
            inner: forecaster,
            rec: Arc::clone(rec),
            fit_errors: Arc::clone(&fit_errors),
        });
    }

    let began = Instant::now();
    let _pass_span = rec.map(|r| r.enter("bench.pass"));
    let blobs = Arc::new(MemoryBlobStore::new());
    let serve = ServeService::with_defaults();
    let durable = Arc::new(DurableServeSink::new(
        serve.clone(),
        Arc::new(MemoryBlobStore::new()),
    ));
    let sink = Arc::new(BoundarySink {
        inner: durable,
        rec: config.trace.clone(),
        captured: config.capture.then(|| Mutex::new(Vec::new())),
        fallbacks: AtomicU64::new(0),
    });
    let pipeline_config = PipelineConfig {
        threads: config.threads,
        forecaster,
        ..PipelineConfig::production()
    };
    let pipeline = AmlPipeline::new(pipeline_config, Arc::clone(&blobs) as Arc<dyn BlobStore>)
        .with_deploy_sink(Arc::clone(&sink) as _);
    let runner = FleetRunner::new(pipeline, inputs.regions.clone());
    let scheduler = BackupScheduler::new(SchedulerConfig {
        threads: config.threads,
        ..SchedulerConfig::default()
    });
    let fabric = FabricPropertyStore::new();
    let extraction = LoadExtraction::columnar(GRID_MIN);

    let mut week_walls = Vec::with_capacity(WEEKS);
    let mut run_week_wall = 0.0;
    let mut reports = Vec::new();
    let mut backups = Fnv::new();
    let (mut due_servers, mut rescheduled) = (0, 0);
    for &week in &inputs.weeks {
        let week_began = Instant::now();
        let _week_span = rec.map(|r| r.enter("bench.week"));
        {
            let _span = rec.map(|r| r.enter("telemetry.extract"));
            for (region, servers) in inputs.regions.iter().zip(&inputs.servers) {
                extraction
                    .run(
                        servers,
                        std::slice::from_ref(region),
                        &[week],
                        blobs.as_ref(),
                    )
                    .expect("memory blob store accepts every put");
            }
        }
        let extracted = Instant::now();
        {
            let _span = rec.map(|r| r.enter("core.run_week"));
            reports.extend(runner.run_week(week));
        }
        let ran = Instant::now();
        {
            let _span = rec.map(|r| r.enter("backup.schedule"));
            serve.set_clock_day(week + 7);
            for day in week + 7..week + 14 {
                for (region, servers) in inputs.regions.iter().zip(&inputs.servers) {
                    for backup in
                        scheduler.schedule_day_served(servers, day, &serve, region, &fabric)
                    {
                        due_servers += 1;
                        rescheduled += u64::from(matches!(
                            backup.decision,
                            ScheduleDecision::Rescheduled { .. }
                        ));
                        fold_backup(&mut backups, &backup);
                    }
                }
            }
        }
        let scheduled = Instant::now();
        run_week_wall += secs(ran - extracted);
        week_walls.push(secs(scheduled - week_began));
    }
    drop(_pass_span);
    let wall = secs(began.elapsed());

    // Untimed from here: the oracle's digest and the counts.
    let docs = &runner.pipeline().docs;
    let predictions: Vec<PredictionDoc> = docs
        .scan(collections::PREDICTIONS)
        .expect("stored predictions decode");
    let mut digest = Fnv::new();
    for doc in &predictions {
        fold_doc(&mut digest, doc);
    }
    digest.u64(backups.0);
    let blob_bytes = inputs
        .regions
        .iter()
        .flat_map(|region| {
            inputs
                .weeks
                .iter()
                .map(move |&week| BlobKey::extracted(region, week))
        })
        .map(|key| blobs.size(&key).expect("extracted blob present"))
        .sum();
    let deploys = sink
        .captured
        .as_ref()
        .map(|c| {
            std::mem::take(
                &mut *c
                    .lock()
                    .expect("no thread panics while it holds the captured deploys"),
            )
        })
        .unwrap_or_default();
    Pass {
        wall,
        week_walls,
        run_week_wall,
        reports,
        digest: digest.0,
        due_servers,
        rescheduled,
        blob_bytes,
        docs: docs
            .collections()
            .iter()
            .map(|c| docs.count(c) as u64)
            .sum(),
        prediction_docs: predictions.len() as u64,
        cache: runner.cache_stats(),
        fit_errors: fit_errors.load(Ordering::Relaxed),
        fallbacks: sink.fallbacks.load(Ordering::Relaxed),
        put_failures: put_failures(&serve),
        serve,
        blobs,
        deploys,
        runner,
    }
}

impl Pass {
    /// Seconds the reports attribute to `stage`, summed over region-weeks.
    pub fn stage_s(&self, stage: &str) -> f64 {
        self.reports
            .iter()
            .filter_map(|r| r.stage_duration(stage))
            .map(secs)
            .sum()
    }

    /// Server-weeks the pass ingested: the servers each region-week's run
    /// found in its input (short-lived servers are not in every week).
    pub fn server_weeks(&self) -> f64 {
        self.reports.iter().map(|r| r.servers).sum::<usize>() as f64
    }

    /// Seconds of all stages of all region-weeks.
    pub fn stages_s(&self) -> f64 {
        self.reports.iter().map(|r| secs(r.total_duration())).sum()
    }

    /// `AccuracySummary::window_correct_pct`, weighted by `evaluated`.
    pub fn window_correct_pct(&self) -> f64 {
        let (mut correct, mut evaluated) = (0.0, 0.0);
        for a in self.reports.iter().filter_map(|r| r.accuracy) {
            correct += a.window_correct_pct * a.evaluated as f64;
            evaluated += a.evaluated as f64;
        }
        if evaluated > 0.0 {
            correct / evaluated
        } else {
            0.0
        }
    }

    /// Region-weeks that did not run clean, quarantined servers, deploy
    /// fallbacks and durable put failures. A fit that returns a typed error
    /// (too little history, say) is an outcome, not a failure.
    pub fn failed_ops(&self) -> u64 {
        let unclean = self
            .reports
            .iter()
            .filter(|r| r.blocked || r.is_degraded())
            .count();
        unclean as u64 + self.quarantined() + self.fallbacks + self.put_failures
    }

    pub fn quarantined(&self) -> u64 {
        self.reports
            .iter()
            .filter_map(|r| r.degraded.as_ref())
            .map(|d| d.quarantined_servers.len() as u64)
            .sum()
    }
}
