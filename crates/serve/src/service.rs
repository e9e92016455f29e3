//! The serving front-end: query routing and metrics.
//!
//! [`ServeService`] is the handle callers clone and query. It owns the
//! [`SnapshotStore`] and records every request into a [`seagull_obs`]
//! registry. It also implements [`DeploySink`], so handing a clone to
//! [`AmlPipeline::with_deploy_sink`](seagull_core::pipeline::AmlPipeline::with_deploy_sink)
//! makes every successful deployment publish a fresh snapshot — and every
//! failed deployment keep the last-known-good snapshot serving.
//!
//! ## The per-query fast path
//!
//! A query takes two uncontended read locks and clones two `Arc`s: the
//! region's `RegionCtx` out of the context map, then the current snapshot
//! out of the context's slot. Both guards are released before the query
//! is answered — answering can run a fitted model, and a writer waiting
//! on either lock would queue every later reader behind it. The
//! `RegionCtx` is built on a region's first query and holds what the hot
//! path would otherwise look up per request: the snapshot slot and the
//! `Arc<Counter>`/`Arc<Histogram>` handles (resolving one through the
//! registry takes its global mutex and allocates a label set; that, two or
//! three times a query, held the first serving path at ~65k QPS —
//! DESIGN.md §11).
//!
//! A publish resolves its six series once per region too, on the region's
//! first publish, into a `PublishCtx` kept apart from the `RegionCtx`.

use crate::snapshot::{ModelSnapshot, ServedServer};
use crate::store::{RegionSlot, SnapshotStore};
use seagull_core::metrics::{lowest_load_window, LowLoadWindow};
use seagull_core::pipeline::{DeployEvent, DeploySink, GateState};
use seagull_obs::{Counter, Gauge, Histogram, Obs, Stability};
use seagull_timeseries::{TimeSeries, Timestamp};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Instant;

/// Why a serving request could not be answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No snapshot has ever been published for this region.
    NoSnapshot {
        /// Region that has no published snapshot.
        region: String,
    },
    /// The snapshot has no prediction for this server (it had no load in
    /// the deployed week, or too little to fit).
    UnknownServer {
        /// Region that was queried.
        region: String,
        /// Server id the snapshot does not carry.
        server_id: u64,
    },
    /// The requested horizon extends past the materialized prediction and
    /// no cached model (or no model covering the range) is available.
    HorizonUnavailable {
        /// Steps the caller asked for.
        requested: usize,
        /// Steps the materialized prediction covers.
        materialized: usize,
    },
    /// The requested day is neither the materialized backup day nor
    /// reachable through the server's cached model.
    DayUnavailable {
        /// Day index the caller asked for.
        day: i64,
    },
    /// The day prediction exists but no low-load window of the requested
    /// duration fits it (duration not a multiple of the step, longer than
    /// the day, or zero).
    NoWindow {
        /// Requested window duration, minutes; 0 also stands for a stored
        /// duration that is negative or past `u32`.
        duration_min: u32,
    },
    /// The request was malformed (zero horizon, empty batch, ...).
    BadRequest(
        /// Human-readable description of what was wrong.
        String,
    ),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::NoSnapshot { region } => {
                write!(f, "no model snapshot published for region {region}")
            }
            ServeError::UnknownServer { region, server_id } => {
                write!(f, "no prediction for server {server_id} in region {region}")
            }
            ServeError::HorizonUnavailable {
                requested,
                materialized,
            } => write!(
                f,
                "horizon {requested} steps unavailable (materialized: {materialized}, no covering model)"
            ),
            ServeError::DayUnavailable { day } => {
                write!(f, "day {day} unavailable from snapshot or cached model")
            }
            ServeError::NoWindow { duration_min } => {
                write!(f, "no low-load window of {duration_min} min fits the day")
            }
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One region's pre-resolved hot-path state: the snapshot slot and cached
/// metric handles. Built on the region's first query and immutable
/// afterwards — deploys swap the slot's snapshot and the handles point at
/// live registry entries, so nothing here ever needs invalidation.
struct RegionCtx {
    slot: Arc<RegionSlot>,
    ok: Arc<Counter>,
    err: Arc<Counter>,
    latency: Arc<Histogram>,
    batch_size: Arc<Histogram>,
}

/// One region's publish-side metric handles, resolved on its first publish.
/// Kept apart from the `RegionCtx` so that neither creates the other's
/// series: a region published and never queried exports no request
/// counters. The last two are store-wide, the same handles in every
/// region's context.
struct PublishCtx {
    publishes: Arc<Counter>,
    epoch: Arc<Gauge>,
    servers: Arc<Gauge>,
    staleness: Arc<Histogram>,
    retired: Arc<Gauge>,
    freed: Arc<Gauge>,
}

/// The value under `region` in `map`, built and inserted if absent. `entry`
/// re-checks under the write lock: racing first callers build one value
/// between them.
fn region_entry<T>(
    map: &RwLock<BTreeMap<String, Arc<T>>>,
    region: &str,
    build: impl FnOnce() -> T,
) -> Arc<T> {
    if let Some(value) = map
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .get(region)
    {
        return Arc::clone(value);
    }
    let mut map = map.write().unwrap_or_else(PoisonError::into_inner);
    Arc::clone(
        map.entry(region.to_string())
            .or_insert_with(|| Arc::new(build())),
    )
}

struct ServeInner {
    store: SnapshotStore,
    obs: Obs,
    ctxs: RwLock<BTreeMap<String, Arc<RegionCtx>>>,
    publishers: RwLock<BTreeMap<String, Arc<PublishCtx>>>,
    clock_day: AtomicI64,
}

/// Cloneable handle to the in-process prediction service.
///
/// Cloning is cheap (one `Arc` bump) and every clone shares the same
/// snapshot store and metrics — hand clones to as many reader
/// threads as you like.
///
/// # Example
///
/// ```
/// use seagull_core::pipeline::{GateState, PredictionDoc};
/// use seagull_serve::{ModelSnapshot, ServeService};
///
/// let serve = ServeService::with_defaults();
/// let doc = PredictionDoc {
///     region: "west".into(),
///     server_id: 7,
///     day: 14,
///     step_min: 30,
///     values: vec![1.0; 48],
///     duration_min: 60,
///     gate: GateState::OPEN,
/// };
/// let snap = ModelSnapshot::from_predictions("west", 1, 7, "persistent-prev-day", &[doc]);
/// serve.publish(snap);
///
/// let prediction = serve.predict("west", 7, 4).unwrap();
/// assert_eq!(prediction.values(), &[1.0, 1.0, 1.0, 1.0]);
/// assert_eq!(serve.epoch("west"), 1);
/// ```
#[derive(Clone)]
pub struct ServeService {
    inner: Arc<ServeInner>,
}

impl ServeService {
    /// Creates a service recording into `obs`.
    pub fn new(obs: Obs) -> ServeService {
        ServeService {
            inner: Arc::new(ServeInner {
                store: SnapshotStore::new(),
                obs,
                ctxs: RwLock::new(BTreeMap::new()),
                publishers: RwLock::new(BTreeMap::new()),
                clock_day: AtomicI64::new(0),
            }),
        }
    }

    /// Convenience constructor with a fresh registry.
    pub fn with_defaults() -> ServeService {
        ServeService::new(Obs::new())
    }

    /// The observability handle requests are recorded into.
    pub fn obs(&self) -> &Obs {
        &self.inner.obs
    }

    /// Sets the service's notion of "today" (a day index on the simulated
    /// clock). Drives the staleness histogram stamped at publish time.
    pub fn set_clock_day(&self, day: i64) {
        self.inner.clock_day.store(day, Ordering::Relaxed);
    }

    /// The service's current day on the simulated clock.
    pub fn clock_day(&self) -> i64 {
        self.inner.clock_day.load(Ordering::Relaxed)
    }

    /// Publishes a snapshot, making it the region's serving state by
    /// swapping one `Arc`. Returns the new epoch. In-flight readers keep
    /// whatever snapshot they already hold.
    pub fn publish(&self, snapshot: ModelSnapshot) -> u64 {
        let metrics = self.publisher(snapshot.region());
        let servers = snapshot.len() as f64;
        let staleness = (self.clock_day() - snapshot.week_start_day()).max(0) as f64;
        let epoch = self.inner.store.publish(snapshot);
        metrics.publishes.inc();
        metrics.epoch.set(epoch as f64);
        metrics.servers.set(servers);
        metrics.staleness.observe(staleness);
        let retired = self.inner.store.stats().snapshots_retired as f64;
        metrics.retired.set(retired);
        // Freed = retired by construction (the swap drops the store's
        // `Arc`); sole reader: `e2e/src/layers.rs`, leaving with it.
        metrics.freed.set(retired);
        epoch
    }

    /// The region's publish-side handles, resolving them on its first
    /// publish.
    fn publisher(&self, region: &str) -> Arc<PublishCtx> {
        region_entry(&self.inner.publishers, region, || {
            let reg = self.inner.obs.registry();
            let labels = [("region", region)];
            PublishCtx {
                publishes: reg.counter("seagull_serve_publishes_total", &labels),
                epoch: reg.gauge("seagull_serve_epoch", &labels),
                servers: reg.gauge("seagull_serve_snapshot_servers", &labels),
                staleness: reg.histogram("seagull_serve_staleness_days", &labels),
                retired: reg.gauge("seagull_serve_snapshots_retired", &[]),
                freed: reg.gauge_with("seagull_serve_gc_freed", &[], Stability::Volatile),
            }
        })
    }

    /// The region's current snapshot, or `None` before the first publish.
    /// The returned `Arc` stays coherent across later deploys.
    pub fn snapshot(&self, region: &str) -> Option<Arc<ModelSnapshot>> {
        self.inner.store.load(region)
    }

    /// The region's deploy epoch (0 before the first publish).
    pub fn epoch(&self, region: &str) -> u64 {
        self.inner.store.epoch(region)
    }

    /// Regions with at least one published snapshot, ascending.
    pub fn regions(&self) -> Vec<String> {
        self.inner.store.regions()
    }

    /// The region's cached hot-path context, building it on first query.
    fn ctx(&self, region: &str) -> Arc<RegionCtx> {
        region_entry(&self.inner.ctxs, region, || {
            let reg = self.inner.obs.registry();
            let labels = [("region", region)];
            let outcome = |label| {
                reg.counter(
                    "seagull_serve_requests_total",
                    &[("region", region), ("outcome", label)],
                )
            };
            RegionCtx {
                slot: self.inner.store.slot_or_insert(region),
                ok: outcome("ok"),
                err: outcome("error"),
                latency: reg.histogram_with(
                    "seagull_serve_latency_seconds",
                    &labels,
                    Stability::Volatile,
                ),
                batch_size: reg.histogram("seagull_serve_batch_size", &labels),
            }
        })
    }

    /// The opening of every query: clones the region's context and current
    /// snapshot. No lock is held once this returns.
    fn load(&self, region: &str) -> Result<(Arc<RegionCtx>, Arc<ModelSnapshot>), ServeError> {
        let ctx = self.ctx(region);
        let snapshot = ctx.slot.load().ok_or_else(|| ServeError::NoSnapshot {
            region: region.to_string(),
        })?;
        Ok((ctx, snapshot))
    }

    /// Counts one answered (`ok`) or failed request and times it.
    fn finish(ctx: &RegionCtx, started: Instant, ok: bool) {
        if ok {
            ctx.ok.inc();
        } else {
            ctx.err.inc();
        }
        ctx.latency.observe(started.elapsed().as_secs_f64());
    }

    /// Predicts the next `horizon` steps for one server, anchored at the
    /// start of its materialized prediction day.
    ///
    /// Horizons within the materialized day are answered with a zero-copy
    /// slice of the snapshot (no allocation, no model inference). Longer
    /// horizons fall through to the server's cached fitted model when the
    /// deploy attached one; otherwise
    /// [`ServeError::HorizonUnavailable`] is returned.
    pub fn predict(
        &self,
        region: &str,
        server_id: u64,
        horizon: usize,
    ) -> Result<TimeSeries, ServeError> {
        let started = Instant::now();
        let (ctx, snapshot) = self.load(region)?;
        let result = self.predict_on(&snapshot, region, server_id, horizon);
        Self::finish(&ctx, started, result.is_ok());
        result
    }

    fn predict_on(
        &self,
        snapshot: &ModelSnapshot,
        region: &str,
        server_id: u64,
        horizon: usize,
    ) -> Result<TimeSeries, ServeError> {
        if horizon == 0 {
            return Err(ServeError::BadRequest("horizon must be positive".into()));
        }
        let server = Self::served(snapshot, region, server_id)?;
        let materialized = server.prediction();
        if horizon <= materialized.len() {
            let from = materialized.start();
            let to = from + horizon as i64 * materialized.step_min() as i64;
            return materialized
                .slice(from, to)
                .map_err(|_| ServeError::HorizonUnavailable {
                    requested: horizon,
                    materialized: materialized.len(),
                });
        }
        let unavailable = ServeError::HorizonUnavailable {
            requested: horizon,
            materialized: materialized.len(),
        };
        let model = server.model().ok_or_else(|| unavailable.clone())?;
        let from = materialized.start();
        let step = materialized.step_min() as i64;
        let to = from + horizon as i64 * step;
        Self::model_range(model.as_ref(), from, to, step).ok_or(unavailable)
    }

    /// Predicts a specific calendar day for one server. The materialized
    /// backup day is served zero-copy; other days go through the cached
    /// model when it covers them.
    pub fn predict_day(
        &self,
        region: &str,
        server_id: u64,
        day: i64,
    ) -> Result<TimeSeries, ServeError> {
        let started = Instant::now();
        let (ctx, snapshot) = self.load(region)?;
        let result = Self::served(&snapshot, region, server_id).and_then(|s| Self::day_of(s, day));
        Self::finish(&ctx, started, result.is_ok());
        result
    }

    /// The snapshot's state for one server.
    fn served<'a>(
        snapshot: &'a ModelSnapshot,
        region: &str,
        server_id: u64,
    ) -> Result<&'a ServedServer, ServeError> {
        snapshot
            .server(server_id)
            .ok_or_else(|| ServeError::UnknownServer {
                region: region.to_string(),
                server_id,
            })
    }

    /// One server's prediction for `day`: the materialized day zero-copy,
    /// another through the cached model when it covers it.
    fn day_of(server: &ServedServer, day: i64) -> Result<TimeSeries, ServeError> {
        if let Some(view) = server.prediction().day(day) {
            return Ok(view);
        }
        let model = server.model().ok_or(ServeError::DayUnavailable { day })?;
        let from = Timestamp::from_days(day);
        let to = Timestamp::from_days(day + 1);
        let step = server.prediction().step_min() as i64;
        Self::model_range(model.as_ref(), from, to, step).ok_or(ServeError::DayUnavailable { day })
    }

    /// Runs the model far enough to cover `[from, to)` and slices that
    /// range out. The model's own anchor (the start of the series its
    /// `predict` returns) is recovered from a one-step probe; `None` if the
    /// range starts before the anchor, the grids disagree, or the model
    /// errors.
    fn model_range(
        model: &dyn seagull_forecast::FittedModel,
        from: Timestamp,
        to: Timestamp,
        step: i64,
    ) -> Option<TimeSeries> {
        let probe = model.predict(1).ok()?;
        if probe.step_min() as i64 != step {
            return None;
        }
        let anchor = probe.start();
        if from < anchor || (from - anchor) % step != 0 {
            return None;
        }
        let total = ((to - anchor) / step) as usize;
        let full = model.predict(total).ok()?;
        full.slice(from, to).ok()
    }

    /// Finds the lowest-load window of the server's configured backup
    /// duration on the given day, gate or no gate (see [`Self::gated_ll_window`]).
    pub fn ll_window(
        &self,
        region: &str,
        server_id: u64,
        day: i64,
    ) -> Result<LowLoadWindow, ServeError> {
        self.gated_ll_window(region, server_id, day)
            .and_then(|(_, window)| window)
    }

    /// The backup scheduler's query: the server's Definition 9 gate as the
    /// pipeline stamped it and the lowest-load window of its backup duration
    /// on `day`, from one snapshot, so the two share an epoch. The outer
    /// error is a region with no snapshot or a server it does not carry; the
    /// inner one a day with no window (counted as a failed request, as
    /// `ll_window` counts it).
    pub fn gated_ll_window(
        &self,
        region: &str,
        server_id: u64,
        day: i64,
    ) -> Result<(GateState, Result<LowLoadWindow, ServeError>), ServeError> {
        let started = Instant::now();
        let (ctx, snapshot) = self.load(region)?;
        let answer = Self::served(&snapshot, region, server_id)
            .map(|server| (server.gate(), Self::window_of(server, day)));
        Self::finish(&ctx, started, matches!(answer, Ok((_, Ok(_)))));
        answer
    }

    fn window_of(server: &ServedServer, day: i64) -> Result<LowLoadWindow, ServeError> {
        let series = Self::day_of(server, day)?;
        // An inverted default backup window (validation reports it but
        // does not block) arrives as a negative duration: that, and one
        // past `u32`, is 0, the duration no window fits.
        let duration_min = u32::try_from(server.duration_min()).unwrap_or(0);
        lowest_load_window(&series, duration_min).ok_or(ServeError::NoWindow { duration_min })
    }

    /// Answers a batch of `(server_id, horizon)` queries against a single
    /// coherent snapshot acquisition — every answer in the batch comes from
    /// the same epoch, even if a deploy lands mid-batch. Responses are in
    /// input order. The snapshot lookup is batch-level: a missing snapshot
    /// fails the whole batch.
    ///
    /// The batch is vectorized over the snapshot: the snapshot is resolved
    /// once, duplicate `(server, horizon)` entries reuse the first answer
    /// (cheap `Arc`-view clones), and outcome counters are added once per
    /// batch instead of once per item.
    pub fn predict_batch(
        &self,
        region: &str,
        requests: &[(u64, usize)],
    ) -> Result<Vec<Result<TimeSeries, ServeError>>, ServeError> {
        let started = Instant::now();
        if requests.is_empty() {
            return Err(ServeError::BadRequest("empty batch".into()));
        }
        let (ctx, snapshot) = self.load(region)?;
        ctx.batch_size.observe(requests.len() as f64);
        let mut responses: Vec<Result<TimeSeries, ServeError>> = Vec::with_capacity(requests.len());
        let mut ok = 0u64;
        for (i, &(server_id, horizon)) in requests.iter().enumerate() {
            // In-batch dedup: identical queries share one computation.
            // Batches are small, so the linear probe beats hashing.
            let result = match requests[..i]
                .iter()
                .position(|&prior| prior == (server_id, horizon))
            {
                Some(j) => responses[j].clone(),
                None => self.predict_on(&snapshot, region, server_id, horizon),
            };
            ok += u64::from(result.is_ok());
            responses.push(result);
        }
        ctx.ok.add(ok);
        let errors = requests.len() as u64 - ok;
        if errors > 0 {
            ctx.err.add(errors);
        }
        ctx.latency.observe(started.elapsed().as_secs_f64());
        Ok(responses)
    }
}

impl DeploySink for ServeService {
    /// Successful deployment: build a snapshot from the deployed
    /// predictions (attaching warm-cache models when the pipeline's
    /// forecaster uses the cache) and swap it in.
    fn on_deploy(&self, event: &DeployEvent<'_>) {
        self.publish(ModelSnapshot::from_deploy(event));
    }

    /// Failed deployment: the store is deliberately *not* touched — the
    /// last-known-good snapshot keeps serving, and its version is the one
    /// the registry still names. Only a counter records that it happened.
    fn on_fallback(&self, region: &str, _week_start_day: i64) {
        self.inner
            .obs
            .registry()
            .counter("seagull_serve_fallback_kept_total", &[("region", region)])
            .inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seagull_core::pipeline::PredictionDoc;
    use seagull_forecast::{Forecaster, PersistentForecast};

    fn doc(server_id: u64, day: i64, values: Vec<f64>) -> PredictionDoc {
        PredictionDoc {
            region: "west".into(),
            server_id,
            day,
            step_min: 30,
            values,
            duration_min: 60,
            gate: GateState::OPEN,
        }
    }

    fn service_with_one_server() -> ServeService {
        let serve = ServeService::with_defaults();
        let values: Vec<f64> = (0..48).map(|i| i as f64).collect();
        let snap = ModelSnapshot::from_predictions("west", 1, 7, "m", &[doc(7, 14, values)]);
        serve.publish(snap);
        serve
    }

    #[test]
    fn predict_slices_materialized_day_zero_copy() {
        let serve = service_with_one_server();
        let p = serve.predict("west", 7, 4).unwrap();
        assert_eq!(p.values(), &[0.0, 1.0, 2.0, 3.0]);
        let full = serve.predict("west", 7, 48).unwrap();
        let snap = serve.snapshot("west").unwrap();
        assert!(full.shares_storage(snap.server(7).unwrap().prediction()));
    }

    #[test]
    fn predict_errors_are_specific() {
        let serve = service_with_one_server();
        assert!(matches!(
            serve.predict("east", 7, 4),
            Err(ServeError::NoSnapshot { .. })
        ));
        assert!(matches!(
            serve.predict("west", 99, 4),
            Err(ServeError::UnknownServer { server_id: 99, .. })
        ));
        assert!(matches!(
            serve.predict("west", 7, 0),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            serve.predict("west", 7, 49),
            Err(ServeError::HorizonUnavailable {
                requested: 49,
                materialized: 48
            })
        ));
    }

    #[test]
    fn predict_day_serves_materialized_day() {
        let serve = service_with_one_server();
        let day = serve.predict_day("west", 7, 14).unwrap();
        assert_eq!(day.len(), 48);
        assert!(matches!(
            serve.predict_day("west", 7, 15),
            Err(ServeError::DayUnavailable { day: 15 })
        ));
    }

    #[test]
    fn ll_window_finds_quietest_hour() {
        let serve = ServeService::with_defaults();
        // Low plateau at steps 10..14 (values 0.5), high elsewhere.
        let values: Vec<f64> = (0..48)
            .map(|i| if (10..14).contains(&i) { 0.5 } else { 9.0 })
            .collect();
        serve.publish(ModelSnapshot::from_predictions(
            "west",
            1,
            7,
            "m",
            &[doc(7, 14, values)],
        ));
        let w = serve.ll_window("west", 7, 14).unwrap();
        assert_eq!(w.duration_min, 60);
        assert_eq!(w.start.day_index(), 14);
        assert!((w.mean_load - 0.5).abs() < 1e-12);
    }

    /// The gated query answers the window `ll_window` answers, beside the
    /// gate the snapshot carries, and counts like it: a request without a
    /// window is an error.
    #[test]
    fn gated_ll_window_pairs_the_gate_with_the_window() {
        let serve = ServeService::with_defaults();
        let young = GateState::CLOSED;
        let docs = [
            doc(7, 14, (0..48).map(f64::from).collect()),
            PredictionDoc {
                gate: young,
                ..doc(8, 14, (0..48).rev().map(f64::from).collect())
            },
        ];
        serve.publish(ModelSnapshot::from_predictions("west", 1, 7, "m", &docs));
        for (server, gate) in [(7, GateState::OPEN), (8, young)] {
            assert_eq!(
                serve.gated_ll_window("west", server, 14),
                Ok((gate, serve.ll_window("west", server, 14)))
            );
        }
        let (gate, window) = serve.gated_ll_window("west", 8, 15).unwrap();
        assert_eq!(gate, young);
        assert_eq!(window, Err(ServeError::DayUnavailable { day: 15 }));
        assert!(matches!(
            serve.gated_ll_window("west", 9, 14),
            Err(ServeError::UnknownServer { server_id: 9, .. })
        ));
        let requests = |outcome| {
            serve
                .obs()
                .registry()
                .counter(
                    "seagull_serve_requests_total",
                    &[("region", "west"), ("outcome", outcome)],
                )
                .get()
        };
        assert_eq!((requests("ok"), requests("error")), (4, 2));
    }

    /// An inverted default backup window reaches the snapshot as a negative
    /// duration; cast with `as u32` it asked for a 4,294,967,236-minute
    /// window, and one past `u32` wrapped into a plausible hour.
    #[test]
    fn ll_window_answers_an_unrepresentable_duration_as_no_window() {
        let serve = ServeService::with_defaults();
        let mut inverted = doc(7, 14, (0..48).map(f64::from).collect());
        inverted.duration_min = -60;
        let mut wrapping = doc(8, 14, vec![1.0; 48]);
        wrapping.duration_min = i64::from(u32::MAX) + 61;
        let mut snap = ModelSnapshot::from_predictions("west", 1, 7, "m", &[inverted, wrapping]);
        // A model that reaches day 15, the day no document materializes.
        let history = TimeSeries::new(Timestamp::from_days(13), 30, vec![2.0; 48]).unwrap();
        let model = PersistentForecast::previous_day().fit(&history).unwrap();
        snap.attach_model(7, Arc::from(model));
        serve.publish(snap);
        assert!(serve.predict_day("west", 7, 15).is_ok());
        for (server, day) in [(7, 14), (7, 15), (8, 14)] {
            assert_eq!(
                serve.ll_window("west", server, day),
                Err(ServeError::NoWindow { duration_min: 0 }),
                "server {server}, day {day}"
            );
        }
    }

    #[test]
    fn batch_answers_in_input_order_from_one_epoch() {
        let serve = service_with_one_server();
        let out = serve
            .predict_batch("west", &[(99, 2), (7, 2), (7, 1)])
            .unwrap();
        assert_eq!(out.len(), 3);
        assert!(matches!(out[0], Err(ServeError::UnknownServer { .. })));
        assert_eq!(out[1].as_ref().unwrap().values(), &[0.0, 1.0]);
        assert_eq!(out[2].as_ref().unwrap().values(), &[0.0]);
        assert!(matches!(
            serve.predict_batch("west", &[]),
            Err(ServeError::BadRequest(_))
        ));
    }

    #[test]
    fn batch_dedup_reuses_identical_queries() {
        let serve = service_with_one_server();
        let out = serve
            .predict_batch("west", &[(7, 4), (7, 4), (7, 4), (7, 2)])
            .unwrap();
        assert_eq!(out.len(), 4);
        let first = out[0].as_ref().unwrap();
        for dup in &out[1..3] {
            let dup = dup.as_ref().unwrap();
            assert_eq!(dup.values(), first.values());
            assert!(dup.shares_storage(first), "dedup should reuse the view");
        }
        assert_eq!(out[3].as_ref().unwrap().values(), &[0.0, 1.0]);
    }

    #[test]
    fn every_query_is_timed_outside_the_stable_export() {
        let serve = service_with_one_server();
        for _ in 0..20 {
            serve.predict("west", 7, 4).unwrap();
        }
        let latency = serve.obs().registry().histogram_with(
            "seagull_serve_latency_seconds",
            &[("region", "west")],
            Stability::Volatile,
        );
        assert_eq!(latency.count(), 20);
        // The latency histogram is volatile: it may not leak into the
        // deterministic export.
        let stable = serve.obs().stable_export();
        assert!(!stable.contains("seagull_serve_latency_seconds"));
    }

    /// Publish handles live apart from the query context: publishing
    /// registers no request series, and every publish lands in one counter.
    #[test]
    fn publishes_resolve_their_own_series_once() {
        let serve = service_with_one_server();
        serve.publish(ModelSnapshot::from_predictions(
            "west",
            2,
            7,
            "m",
            &[doc(7, 14, vec![0.0; 48])],
        ));
        let reg = serve.obs().registry();
        let publishes = reg.counter("seagull_serve_publishes_total", &[("region", "west")]);
        assert_eq!(publishes.get(), 2);
        assert!(!serve
            .obs()
            .stable_export()
            .contains("seagull_serve_requests_total"));
        serve.predict("west", 7, 1).unwrap();
        assert!(serve
            .obs()
            .stable_export()
            .contains("seagull_serve_requests_total"));
    }

    #[test]
    fn store_metrics_export_at_publish_time() {
        let serve = service_with_one_server();
        let next = ModelSnapshot::from_predictions("west", 2, 7, "m", &[doc(7, 14, vec![0.0; 48])]);
        serve.publish(next);
        let reg = serve.obs().registry();
        assert_eq!(reg.gauge("seagull_serve_snapshots_retired", &[]).get(), 1.0);
        let freed = reg.gauge_with("seagull_serve_gc_freed", &[], Stability::Volatile);
        assert_eq!(freed.get(), 1.0);
        // The retirement count is deterministic; the freed gauge stays out
        // of the deterministic export until it goes with its one reader.
        let stable = serve.obs().stable_export();
        assert!(stable.contains("seagull_serve_snapshots_retired"));
        assert!(!stable.contains("seagull_serve_gc_freed"));
    }
}
