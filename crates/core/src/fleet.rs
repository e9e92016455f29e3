//! Fleet-wide execution facade.
//!
//! [`FleetRunner`] pairs an [`AmlPipeline`] with the fixed set of regions it
//! is responsible for and drives whole fleet-weeks through
//! [`AmlPipeline::run_fleet_week`]: regions fan out over a parallel map,
//! per-region observability is merged deterministically, and the shared
//! warm-model cache, when the forecaster uses it, is evicted and exported
//! once per week at the orchestrator barrier.
//!
//! The runner is a thin veneer — everything it does can be done against the
//! pipeline directly — but it gives experiments and benches one obvious
//! handle for "run the whole fleet" plus the read-side accessors they
//! report from (reports, cache statistics, the merged [`Obs`]).
//!
//! # Resumable fleet-weeks
//!
//! With [`FleetRunner::with_checkpoints`], the runner persists a per-region
//! *completion marker* the moment each region's run finishes (via
//! [`AmlPipeline::run_fleet_week_with`]), and consults those markers before
//! fanning out: a restarted run skips regions whose marker is present and
//! intact, re-running only the regions that were still in flight when the
//! process died. A marker is one sealed `SGJL` [`frame`], so a marker
//! torn mid-write does not open and the region is
//! simply re-run — pipeline runs are idempotent per `(region, week)`, so a
//! re-run after a crash converges on the same predictions and deployments
//! as an uninterrupted run.
use crate::incident::IncidentManager;
use crate::par::parallel_map;
use crate::pipeline::{AmlPipeline, PipelineRunReport};
use seagull_forecast::CacheStats;
use seagull_obs::{Obs, Stability};
use seagull_telemetry::blobstore::{Blob, BlobKey, BlobStore};
use seagull_telemetry::frame::{self, JOURNAL_MAGIC, JOURNAL_VERSION};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Blob kind under which per-region completion markers are stored.
pub const CHECKPOINT_KIND: &str = "checkpoint";

/// The blob key of one region-week completion marker.
pub fn checkpoint_key(region: &str, week_start_day: i64) -> BlobKey {
    BlobKey {
        kind: CHECKPOINT_KIND.into(),
        region: region.into(),
        week: week_start_day,
    }
}

/// Encodes a completion marker for a finished region run: a sealed frame
/// whose body names the region, week, deployed version (`-1` when the run
/// kept last-known-good), and server count.
fn encode_marker(report: &PipelineRunReport) -> Blob {
    let mut marker = frame::header(JOURNAL_MAGIC, JOURNAL_VERSION).to_vec();
    marker.extend_from_slice(
        format!(
            "{}\n{}\n{}\n{}",
            report.region,
            report.week_start_day,
            report.deployed_version.map_or(-1, |v| v as i64),
            report.servers,
        )
        .as_bytes(),
    );
    frame::seal(marker)
}

/// Whether a marker blob is an intact completion marker for this region and
/// week. Torn, truncated, or mismatched markers are not trusted: the region
/// is treated as incomplete and re-run.
fn marker_valid(blob: &[u8], region: &str, week_start_day: i64) -> bool {
    let Ok(body) = frame::open(blob, JOURNAL_MAGIC, JOURNAL_VERSION) else {
        return false;
    };
    let Ok(text) = std::str::from_utf8(body) else {
        return false;
    };
    let mut lines = text.lines();
    lines.next() == Some(region)
        && lines.next().and_then(|l| l.parse::<i64>().ok()) == Some(week_start_day)
}

/// Drives an [`AmlPipeline`] over a fixed region set, one fleet-week at a
/// time.
pub struct FleetRunner {
    pipeline: AmlPipeline,
    regions: Vec<String>,
    /// When set, completed region-weeks are marked here and skipped on
    /// restart (see the module docs).
    checkpoints: Option<Arc<dyn BlobStore>>,
}

impl FleetRunner {
    /// Wraps a pipeline and the regions it schedules.
    pub fn new(pipeline: AmlPipeline, regions: Vec<String>) -> FleetRunner {
        FleetRunner {
            pipeline,
            regions,
            checkpoints: None,
        }
    }

    /// Enables resumable fleet-weeks: every finished region run writes a
    /// completion marker to `store`, and [`FleetRunner::run_week`] skips
    /// regions whose marker for that week is already present and intact.
    pub fn with_checkpoints(mut self, store: Arc<dyn BlobStore>) -> FleetRunner {
        self.checkpoints = Some(store);
        self
    }

    /// The underlying pipeline (doc store, registry, incidents, …).
    pub fn pipeline(&self) -> &AmlPipeline {
        &self.pipeline
    }

    /// The regions this runner schedules, in fan-out (and report) order.
    pub fn regions(&self) -> &[String] {
        &self.regions
    }

    /// Whether `region` already has an intact completion marker for the
    /// week. Always false without a checkpoint store.
    pub fn completed(&self, region: &str, week_start_day: i64) -> bool {
        let Some(store) = &self.checkpoints else {
            return false;
        };
        store
            .get(&checkpoint_key(region, week_start_day))
            .is_ok_and(|blob| marker_valid(&blob, region, week_start_day))
    }

    /// Runs one week for every region; reports come back in region order.
    ///
    /// With a checkpoint store attached, regions already marked complete for
    /// this week are skipped (no report is produced for them), and each
    /// region that does run writes its marker the moment it finishes — so a
    /// crash mid-fleet loses only the in-flight regions, and the restarted
    /// week re-runs exactly those. A marker the store refuses is counted
    /// (`seagull_checkpoint_marker_put_failures_total`, beside
    /// `seagull_checkpoint_markers_written_total` for those that landed) and
    /// leaves its region to be run again.
    pub fn run_week(&self, week_start_day: i64) -> Vec<PipelineRunReport> {
        let Some(store) = self.checkpoints.clone() else {
            return self.pipeline.run_fleet_week(&self.regions, week_start_day);
        };
        let pending: Vec<String> = self
            .regions
            .iter()
            .filter(|r| !self.completed(r, week_start_day))
            .cloned()
            .collect();
        let skipped = self.regions.len() - pending.len();
        if skipped > 0 {
            self.pipeline
                .obs
                .registry()
                .counter("seagull_checkpoint_regions_skipped_total", &[])
                .add(skipped as u64);
        }
        if pending.is_empty() {
            return Vec::new();
        }
        // Counted on the workers, folded into the registry after the join, so
        // the export does not depend on how the regions interleaved.
        let (written, refused) = (AtomicU64::new(0), AtomicU64::new(0));
        let reports = self
            .pipeline
            .run_fleet_week_with(&pending, week_start_day, |_, report| {
                // A marker is written only after the region's run fully
                // completed (deployments announced, documents stored); a
                // crash between completion and the marker write, or a store
                // that refuses the write, just re-runs the region next time,
                // which is idempotent.
                let put = store.put(
                    &checkpoint_key(&report.region, week_start_day),
                    encode_marker(report),
                );
                let tally = if put.is_ok() { &written } else { &refused };
                tally.fetch_add(1, Ordering::Relaxed);
            });
        let registry = self.pipeline.obs.registry();
        registry
            .counter("seagull_checkpoint_markers_written_total", &[])
            .add(written.into_inner());
        let refused = refused.into_inner();
        if refused > 0 {
            registry
                .counter("seagull_checkpoint_marker_put_failures_total", &[])
                .add(refused);
        }
        reports
    }

    /// Runs the given weeks in order, each as one fleet-week (honouring
    /// checkpoints per week when enabled).
    pub fn run_schedule(&self, week_start_days: &[i64]) -> Vec<PipelineRunReport> {
        if self.checkpoints.is_none() {
            return self.pipeline.run_schedule(&self.regions, week_start_days);
        }
        let mut reports = Vec::with_capacity(self.regions.len() * week_start_days.len());
        for &week in week_start_days {
            reports.extend(self.run_week(week));
        }
        reports
    }

    /// Point-in-time statistics of the shared warm-model cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.pipeline.cache.stats()
    }

    /// The pipeline's (merged) observability handle.
    pub fn obs(&self) -> &Obs {
        &self.pipeline.obs
    }
}

/// The fleet fan-out: one week over every region, the weekly schedule, and
/// the cache-metrics mirror that runs at the fleet barrier.
impl AmlPipeline {
    /// Runs one week for every region, fanning the regions out over a
    /// parallel map (each region's per-server stages are maps nested inside
    /// it and share its `threads` running threads, see [`crate::par`]).
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
    /// join. [`FleetRunner`] uses it to persist
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
        if let Some(cache) = self.model_cache() {
            cache.evict_to_capacity();
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
        // the looser key's share of reuse reads on its own.
        registry
            .counter("seagull_model_cache_similarity_hits_total", &[])
            .store(stats.hits_similarity);
        // `reason="drift"` counts stable or shape-similar servers whose
        // history failed the `series_drift` level/scale gate and were refit.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use seagull_forecast::SsaForecaster;
    use seagull_telemetry::blobstore::MemoryBlobStore;
    use seagull_telemetry::extract::LoadExtraction;
    use seagull_telemetry::fleet::{FleetGenerator, FleetSpec, RegionSpec};
    use std::io;
    use std::sync::atomic::AtomicBool;

    fn runner(threads: usize, weeks: usize) -> (FleetRunner, Vec<i64>) {
        runner_over(&["region-a"], threads, weeks)
    }

    fn runner_over(regions: &[&str], threads: usize, weeks: usize) -> (FleetRunner, Vec<i64>) {
        let mut spec = FleetSpec::small_region(417);
        spec.regions = regions
            .iter()
            .map(|name| RegionSpec {
                name: name.to_string(),
                servers: 12,
            })
            .collect();
        let start = spec.start_day;
        let fleet = FleetGenerator::new(spec).generate_weeks(weeks);
        let store = Arc::new(MemoryBlobStore::new());
        let week_days: Vec<i64> = (0..weeks as i64).map(|w| start + 7 * w).collect();
        let regions: Vec<String> = regions.iter().map(|name| name.to_string()).collect();
        LoadExtraction::columnar(5)
            .run(&fleet, &regions, &week_days, store.as_ref())
            .unwrap();
        let config = PipelineConfig {
            threads,
            ..PipelineConfig::production()
        };
        let pipeline = AmlPipeline::new(config, store);
        (FleetRunner::new(pipeline, regions), week_days)
    }

    #[test]
    fn runner_schedules_all_weeks_in_region_order() {
        let (runner, weeks) = runner(2, 2);
        let reports = runner.run_schedule(&weeks);
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.region == "region-a"));
        assert_eq!(reports[0].week_start_day, weeks[0]);
        assert_eq!(reports[1].week_start_day, weeks[1]);
    }

    /// The same fleet under SSA, the forecaster the warm cache is for.
    fn under_ssa(production: &FleetRunner) -> FleetRunner {
        let base = production.pipeline();
        let config = PipelineConfig {
            forecaster: Arc::new(SsaForecaster::default()),
            ..base.config.clone()
        };
        let pipeline = AmlPipeline::new(config, Arc::clone(&base.blobs));
        FleetRunner::new(pipeline, production.regions().to_vec())
    }

    /// The production forecast never consults the cache: after `weeks` it
    /// holds no entry, counted nothing and exported no cache series.
    fn assert_production_leaves_the_cache_empty(production: &FleetRunner, weeks: &[i64]) {
        production.run_schedule(weeks);
        assert_eq!(production.pipeline().cache.len(), 0);
        assert_eq!(production.cache_stats(), CacheStats::default());
        let export = production.obs().stable_export();
        assert!(
            !export.contains("seagull_model_cache_"),
            "cache series in a production export:\n{export}"
        );
    }

    #[test]
    fn second_ssa_week_hits_the_model_cache() {
        let (production, weeks) = runner(1, 2);
        let runner = under_ssa(&production);
        runner.run_week(weeks[0]);
        let cold = runner.cache_stats();
        assert_eq!(cold.hits, 0, "first week is all cold misses");
        assert!(cold.misses_cold > 0);
        runner.run_week(weeks[1]);
        let warm = runner.cache_stats();
        assert!(
            warm.hits > 0,
            "a stable fleet's second week should reuse cached fits: {warm:?}"
        );
        assert_production_leaves_the_cache_empty(&production, &weeks);
    }

    #[test]
    fn cache_metrics_are_exported_at_the_weekly_barrier() {
        let (production, weeks) = runner(1, 1);
        let runner = under_ssa(&production);
        runner.run_week(weeks[0]);
        let export = runner.obs().stable_export();
        assert!(
            export.contains("seagull_model_cache_misses_total"),
            "cache counters missing from export:\n{export}"
        );
        assert_production_leaves_the_cache_empty(&production, &weeks);
    }

    #[test]
    fn checkpointed_run_writes_markers_and_skips_on_rerun() {
        let (base, weeks) = runner(1, 1);
        let marks = Arc::new(MemoryBlobStore::new());
        let runner = FleetRunner::new(base.pipeline.clone(), base.regions.clone())
            .with_checkpoints(Arc::clone(&marks) as Arc<dyn BlobStore>);
        let first = runner.run_week(weeks[0]);
        assert_eq!(first.len(), 1);
        assert!(runner.completed("region-a", weeks[0]));
        let marker = marks.get(&checkpoint_key("region-a", weeks[0])).unwrap();
        assert!(marker_valid(&marker, "region-a", weeks[0]));
        // A restarted week skips the completed region entirely.
        let again = runner.run_week(weeks[0]);
        assert!(again.is_empty(), "completed region must be skipped");
        let export = runner.obs().stable_export();
        assert!(export.contains("seagull_checkpoint_markers_written_total"));
        assert!(export.contains("seagull_checkpoint_regions_skipped_total"));
    }

    #[test]
    fn torn_marker_is_not_trusted() {
        let (base, weeks) = runner(1, 1);
        let marks = Arc::new(MemoryBlobStore::new());
        let runner = FleetRunner::new(base.pipeline.clone(), base.regions.clone())
            .with_checkpoints(Arc::clone(&marks) as Arc<dyn BlobStore>);
        runner.run_week(weeks[0]);
        let key = checkpoint_key("region-a", weeks[0]);
        let whole = marks.get(&key).unwrap();
        // Tear the marker mid-record, as a crash during the put would.
        marks.put(&key, whole.slice(0..whole.len() - 3)).unwrap();
        assert!(!runner.completed("region-a", weeks[0]));
        // Markers for the wrong week are also not trusted.
        marks.put(&checkpoint_key("region-a", 9999), whole).unwrap();
        assert!(!runner.completed("region-a", 9999));
    }

    /// A marker store that refuses checkpoint writes while `down` is set.
    #[derive(Default)]
    struct OutageStore {
        inner: MemoryBlobStore,
        down: AtomicBool,
    }

    impl BlobStore for OutageStore {
        fn put(&self, key: &BlobKey, data: Blob) -> io::Result<()> {
            if key.kind == CHECKPOINT_KIND && self.down.load(Ordering::Relaxed) {
                return Err(io::Error::other("checkpoint store is down"));
            }
            self.inner.put(key, data)
        }
        fn get(&self, key: &BlobKey) -> io::Result<Blob> {
            self.inner.get(key)
        }
        fn size(&self, key: &BlobKey) -> io::Result<u64> {
            self.inner.size(key)
        }
        fn list(&self, kind: &str) -> io::Result<Vec<BlobKey>> {
            self.inner.list(kind)
        }
        fn delete(&self, key: &BlobKey) -> io::Result<bool> {
            self.inner.delete(key)
        }
    }

    /// Every document but the run reports, whose stage timings are wall clock.
    fn documents(runner: &FleetRunner) -> Vec<(String, String, serde_json::Value)> {
        let docs = &runner.pipeline().docs;
        let mut out = Vec::new();
        for collection in docs.collections() {
            if collection == crate::pipeline::collections::RUNS {
                continue;
            }
            for id in docs.ids(&collection) {
                let doc = docs.get(&collection, &id).expect("listed doc exists");
                out.push((collection.clone(), id, doc));
            }
        }
        out
    }

    #[test]
    fn refused_marker_puts_are_counted_as_failures_not_as_written() {
        let regions = ["region-a", "region-b"];
        let (base, weeks) = runner_over(&regions, 2, 1);
        let marks = Arc::new(OutageStore::default());
        let runner = FleetRunner::new(base.pipeline.clone(), base.regions.clone())
            .with_checkpoints(Arc::clone(&marks) as Arc<dyn BlobStore>);
        let counter = |name: &str| runner.obs().registry().counter(name, &[]).get();

        marks.down.store(true, Ordering::Relaxed);
        assert_eq!(runner.run_week(weeks[0]).len(), regions.len());
        assert_eq!(counter("seagull_checkpoint_markers_written_total"), 0);
        assert_eq!(
            counter("seagull_checkpoint_marker_put_failures_total"),
            regions.len() as u64
        );
        assert!(regions.iter().all(|r| !runner.completed(r, weeks[0])));

        // With the store back, no region is skipped and every marker lands.
        marks.down.store(false, Ordering::Relaxed);
        assert_eq!(runner.run_week(weeks[0]).len(), regions.len());
        assert_eq!(
            counter("seagull_checkpoint_markers_written_total"),
            regions.len() as u64
        );
        assert_eq!(
            counter("seagull_checkpoint_marker_put_failures_total"),
            regions.len() as u64
        );
        assert_eq!(counter("seagull_checkpoint_regions_skipped_total"), 0);
        assert!(regions.iter().all(|r| runner.completed(r, weeks[0])));

        // Running the week twice left what running it once leaves.
        let (once, _) = runner_over(&regions, 2, 1);
        once.run_week(weeks[0]);
        assert_eq!(documents(&runner), documents(&once));
    }
}
