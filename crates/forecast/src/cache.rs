//! Warm-model cache: skip re-selection and re-fit for servers whose series
//! did not materially change since the last run.
//!
//! The pipeline re-fits every server every week, but most fleet series are
//! stable week over week (that is the paper's core observation — low-load
//! windows recur). [`ModelCache`] keeps the last fitted model per server,
//! keyed by a fingerprint of the quantized series bytes plus the server's
//! classification label. A lookup hits when
//!
//! * the fingerprint and classification are unchanged (byte-identical
//!   input ⇒ identical fit), or
//! * the server is classified *stable*, the new history has the same shape,
//!   and [`series_drift`] does not flag a level/scale
//!   shift against the statistics captured at fit time, or
//! * the new history's quantized shape sketch ([`shape_sketch`]) matches
//!   the one captured at fit time and the same drift gate passes — a
//!   *similarity* reuse, counted separately in
//!   [`CacheStats::hits_similarity`] so the looser key's reuse can be read
//!   apart from exact reuse.
//!
//! A stable or similar history that fails the drift gate misses with
//! [`MissReason::Drift`] and is refit; that gate is the only source of
//! [`CacheStats::invalidated_drift`].
//!
//! Reuse across weeks is sound because every forecaster here anchors its
//! prediction at `history.end()` and is translation-equivariant under
//! whole-week shifts (day-of-week and minute-of-day structure is
//! preserved); the caller re-anchors the cached model's output with
//! `TimeSeries::shifted(shift_min)`. A hit therefore requires the new
//! history to start an exact multiple of [`MINUTES_PER_WEEK`] after the
//! cached one.
//!
//! ## Determinism under parallelism
//!
//! Lookups are read-only and run inside the parallel train stage; mutations
//! are batched: the caller commits updates *serially in item order* after
//! the parallel region joins ([`ModelCache::commit`]), and evictions happen
//! only at orchestrator barriers ([`ModelCache::evict_to_capacity`]).
//! Recency is stamped with the caller's scheduler tick, with ties broken by
//! key, so cache state — and thus every hit/miss counter — is a pure
//! function of the input data, independent of thread count and region
//! completion order.

use crate::FittedModel;
use seagull_timeseries::{TimeSeries, MINUTES_PER_WEEK};
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// Default capacity: comfortably above any bench fleet, small enough that
/// eviction is exercised by tests.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Segments in the quantized shape sketch.
const SKETCH_BUCKETS: usize = 16;
/// Sketch quantization step, in units of the series' own standard deviation.
const SKETCH_QUANTUM: f64 = 0.25;

/// Quantized shape sketch of a series.
///
/// The series is split into `SKETCH_BUCKETS` equal segments; each
/// segment's mean is z-scored against the whole series, quantized to
/// `SKETCH_QUANTUM`-sigma steps, clamped to an `i8`, and the 16 signed
/// bucket values are packed into a `u128`. Two sketches are *similar*
/// ([`sketches_similar`]) when every bucket agrees to within one quantum —
/// exact equality would make reuse hostage to quantization-boundary jitter
/// (a segment mean sitting at 0.24σ one week and 0.26σ the next). The
/// sketch is deliberately much coarser than the byte fingerprint, which is
/// why the cache only consults it behind the drift gate.
pub fn shape_sketch(values: &[f64]) -> u128 {
    let (mean, std) = mean_std(values);
    sketch_about(values, mean, std)
}

/// [`shape_sketch`] of a series whose [`mean_std`] the caller already has.
fn sketch_about(values: &[f64], mean: f64, std: f64) -> u128 {
    if values.is_empty() {
        return 0;
    }
    let scale = std.max(1e-9);
    let n = values.len();
    let mut packed = 0u128;
    for b in 0..SKETCH_BUCKETS {
        let lo = b * n / SKETCH_BUCKETS;
        let hi = ((b + 1) * n / SKETCH_BUCKETS).max(lo + 1).min(n);
        let q = if lo >= hi {
            0i8
        } else {
            let seg = &values[lo..hi];
            let seg_mean = seg.iter().sum::<f64>() / seg.len() as f64;
            let z = (seg_mean - mean) / scale / SKETCH_QUANTUM;
            z.round().clamp(i8::MIN as f64 + 1.0, i8::MAX as f64) as i8
        };
        packed |= (q as u8 as u128) << (8 * b);
    }
    packed
}

/// Whether two shape sketches describe the same normalized shape: every
/// bucket's quantized z-score within one `SKETCH_QUANTUM` step of its
/// counterpart. Identical sketches are trivially similar.
pub fn sketches_similar(a: u128, b: u128) -> bool {
    for bucket in 0..SKETCH_BUCKETS {
        let qa = ((a >> (8 * bucket)) & 0xff) as u8 as i8;
        let qb = ((b >> (8 * bucket)) & 0xff) as u8 as i8;
        if (i16::from(qa) - i16::from(qb)).abs() > 1 {
            return false;
        }
    }
    true
}

struct CacheEntry {
    fingerprint: u64,
    class: String,
    fitted: Arc<dyn FittedModel>,
    /// Training-history grid, for shape checks and week-shift re-anchoring.
    start_min: i64,
    step_min: u32,
    len: usize,
    /// Summary statistics of the training history, the drift baseline.
    mean: f64,
    std: f64,
    /// Quantized shape sketch of the training history, the similarity key.
    sketch: u128,
    /// Wall time the original cold fit took; credited to
    /// [`CacheStats::saved_wall`] on every hit.
    fit_wall: Duration,
    /// Recency stamp: scheduler tick of the last touch (hit or insert).
    stamp: u64,
}

/// Verdict of [`series_drift`]: how far a series moved from a baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DriftVerdict {
    /// Level shift in baseline standard deviations (|Δmean| / σ₀).
    pub level_shift: f64,
    /// Scale ratio σ₁/σ₀ (1.0 when both are degenerate).
    pub scale_ratio: f64,
    /// Whether either signal crossed its drift threshold.
    pub drifted: bool,
}

/// Level shift beyond this many baseline sigmas flags drift.
const DRIFT_LEVEL_SIGMAS: f64 = 3.0;
/// Scale ratio outside `[1/x, x]` flags drift.
const DRIFT_SCALE_FACTOR: f64 = 2.5;

/// Compare a series against baseline `(mean, std)` statistics captured at an
/// earlier fit, flagging level or scale shifts that should invalidate a
/// cached model (see [`ModelCache::lookup`]).
///
/// Deterministic and cheap (two passes over `values`). A near-constant
/// baseline (σ₀ ≈ 0) falls back to a relative-mean gate so flat series
/// don't flag drift on numeric noise.
pub fn series_drift(baseline_mean: f64, baseline_std: f64, values: &[f64]) -> DriftVerdict {
    if values.is_empty() {
        return DriftVerdict {
            level_shift: 0.0,
            scale_ratio: 1.0,
            drifted: false,
        };
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    let std = var.sqrt();
    // Floor the denominator so flat baselines use a 5%-of-level gate.
    let denom = baseline_std.max(0.05 * baseline_mean.abs()).max(1e-9);
    let level_shift = (mean - baseline_mean).abs() / denom;
    let scale_ratio = if baseline_std <= 1e-9 && std <= 1e-9 {
        1.0
    } else {
        std / baseline_std.max(1e-9)
    };
    let drifted = level_shift > DRIFT_LEVEL_SIGMAS
        || !(1.0 / DRIFT_SCALE_FACTOR..=DRIFT_SCALE_FACTOR).contains(&scale_ratio);
    DriftVerdict {
        level_shift,
        scale_ratio,
        drifted,
    }
}

/// Why a lookup missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissReason {
    /// No entry for this server yet.
    Cold,
    /// Fingerprint changed (or the history grid/shape changed) and the
    /// series is not eligible for stable reuse.
    Fingerprint,
    /// The server's classification label changed.
    Class,
    /// Stable or similarity reuse was considered but [`series_drift`]
    /// flagged drift.
    Drift,
}

/// A successful lookup: the cached fitted model plus how far (in minutes)
/// its prediction must be shifted to anchor at the new history's end.
pub struct CachedFit {
    /// The cached fitted model, shared with the cache entry.
    pub fitted: Arc<dyn FittedModel>,
    /// Minutes to shift the prediction so it anchors at the new history end.
    pub shift_min: i64,
    /// True when the hit came from the quantized-shape similarity key
    /// rather than an exact fingerprint match or stable-class reuse.
    pub similarity: bool,
}

/// Outcome of [`ModelCache::lookup`].
pub enum Lookup {
    /// A reusable fitted model was found.
    Hit(CachedFit),
    /// No reusable entry; the caller must fit cold.
    Miss(MissReason),
}

/// A deferred insert, produced on a miss and applied by
/// [`ModelCache::commit`] after the parallel region joins.
pub struct CacheUpdate {
    key: String,
    fingerprint: u64,
    class: String,
    fitted: Arc<dyn FittedModel>,
    start_min: i64,
    step_min: u32,
    len: usize,
    mean: f64,
    std: f64,
    sketch: u128,
    fit_wall: Duration,
}

impl CacheUpdate {
    /// Packages a cold fit for the serial commit barrier.
    pub fn new(
        key: impl Into<String>,
        fingerprint: u64,
        class: impl Into<String>,
        fitted: Arc<dyn FittedModel>,
        history: &TimeSeries,
        fit_wall: Duration,
    ) -> CacheUpdate {
        let (mean, std) = mean_std(history.values());
        CacheUpdate {
            key: key.into(),
            fingerprint,
            class: class.into(),
            fitted,
            start_min: history.start().minutes(),
            step_min: history.step_min(),
            len: history.len(),
            mean,
            std,
            sketch: sketch_about(history.values(), mean, std),
            fit_wall,
        }
    }
}

/// Point-in-time cache counters. All except `saved_wall` are deterministic
/// for a given input stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheStats {
    /// Lookups served from the cache by exact fingerprint or stable-class
    /// reuse.
    pub hits: u64,
    /// Lookups served via the quantized-shape similarity key. Kept apart
    /// from `hits` so the looser key's share of reuse reads on its own.
    pub hits_similarity: u64,
    /// Lookups that found no entry at all.
    pub misses_cold: u64,
    /// Entries invalidated because the series fingerprint changed.
    pub invalidated_fingerprint: u64,
    /// Entries invalidated because the server changed class.
    pub invalidated_class: u64,
    /// Entries invalidated because a stable or shape-similar history failed
    /// the [`series_drift`] gate (a level or scale shift since the fit).
    pub invalidated_drift: u64,
    /// Entries evicted by the capacity sweep.
    pub evictions: u64,
    /// Cold-fit wall time skipped by hits (sum of the original fit cost of
    /// every reused entry). Wall-clock derived: volatile.
    pub saved_wall: Duration,
}

impl CacheStats {
    /// Total lookups that required a cold fit, for any reason.
    pub fn misses(&self) -> u64 {
        self.misses_cold
            + self.invalidated_fingerprint
            + self.invalidated_class
            + self.invalidated_drift
    }

    /// Hits (exact and similarity) over total lookups; 0.0 when nothing was
    /// looked up.
    pub fn hit_rate(&self) -> f64 {
        let served = self.hits + self.hits_similarity;
        let total = served + self.misses();
        if total == 0 {
            0.0
        } else {
            served as f64 / total as f64
        }
    }
}

/// LRU cache of fitted models, shared across pipeline runs.
pub struct ModelCache {
    entries: RwLock<BTreeMap<String, CacheEntry>>,
    capacity: usize,
    hits: AtomicU64,
    hits_similarity: AtomicU64,
    misses_cold: AtomicU64,
    invalidated_fingerprint: AtomicU64,
    invalidated_class: AtomicU64,
    invalidated_drift: AtomicU64,
    evictions: AtomicU64,
    saved_wall_ns: AtomicU64,
}

impl Default for ModelCache {
    fn default() -> Self {
        ModelCache::with_capacity(DEFAULT_CAPACITY)
    }
}

impl ModelCache {
    /// A cache with the default capacity.
    pub fn new() -> ModelCache {
        ModelCache::default()
    }

    /// A cache holding at most `capacity` fitted models.
    pub fn with_capacity(capacity: usize) -> ModelCache {
        ModelCache {
            entries: RwLock::new(BTreeMap::new()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            hits_similarity: AtomicU64::new(0),
            misses_cold: AtomicU64::new(0),
            invalidated_fingerprint: AtomicU64::new(0),
            invalidated_class: AtomicU64::new(0),
            invalidated_drift: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            saved_wall_ns: AtomicU64::new(0),
        }
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached fitted models.
    pub fn len(&self) -> usize {
        self.entries.read().unwrap().len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read-only lookup, safe to call from inside a parallel region.
    ///
    /// `class` is the server's current classification label; `history` the
    /// new training series. Recency is *not* updated here — report hits to
    /// [`ModelCache::commit`] so recency moves deterministically.
    pub fn lookup(&self, key: &str, fingerprint: u64, class: &str, history: &TimeSeries) -> Lookup {
        let entries = self.entries.read().unwrap();
        let Some(entry) = entries.get(key) else {
            self.misses_cold.fetch_add(1, Ordering::Relaxed);
            return Lookup::Miss(MissReason::Cold);
        };
        if entry.class != class {
            self.invalidated_class.fetch_add(1, Ordering::Relaxed);
            return Lookup::Miss(MissReason::Class);
        }
        let delta = history.start().minutes() - entry.start_min;
        let shape_ok = entry.step_min == history.step_min()
            && entry.len == history.len()
            && delta >= 0
            && delta % MINUTES_PER_WEEK == 0;
        if !shape_ok {
            self.invalidated_fingerprint.fetch_add(1, Ordering::Relaxed);
            return Lookup::Miss(MissReason::Fingerprint);
        }
        if entry.fingerprint == fingerprint {
            self.record_hit(entry, false);
            return Lookup::Hit(CachedFit {
                fitted: Arc::clone(&entry.fitted),
                shift_min: delta,
                similarity: false,
            });
        }
        // Changed bytes: stable servers may still reuse the fit if the
        // series has not drifted from the baseline captured at fit time,
        // and any other server whose quantized shape sketch is still
        // similar to the one captured at fit time gets a *similarity*
        // reuse behind the same drift gate. The entry itself is never
        // rewritten on a similarity hit — only recency moves (at commit).
        let stable = class == "stable";
        let similar = !stable && sketches_similar(entry.sketch, shape_sketch(history.values()));
        if stable || similar {
            let verdict = series_drift(entry.mean, entry.std, history.values());
            if !verdict.drifted {
                self.record_hit(entry, similar);
                return Lookup::Hit(CachedFit {
                    fitted: Arc::clone(&entry.fitted),
                    shift_min: delta,
                    similarity: similar,
                });
            }
            self.invalidated_drift.fetch_add(1, Ordering::Relaxed);
            return Lookup::Miss(MissReason::Drift);
        }
        self.invalidated_fingerprint.fetch_add(1, Ordering::Relaxed);
        Lookup::Miss(MissReason::Fingerprint)
    }

    fn record_hit(&self, entry: &CacheEntry, similarity: bool) {
        if similarity {
            self.hits_similarity.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        self.saved_wall_ns
            .fetch_add(entry.fit_wall.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Apply the batched outcome of one run: fresh fits are inserted (or
    /// replace the stale entry) and hit keys have their recency bumped, all
    /// stamped with `tick`. Call after the parallel region joins, passing
    /// updates in item order. Does not evict — see
    /// [`ModelCache::evict_to_capacity`].
    pub fn commit(&self, tick: u64, updates: Vec<CacheUpdate>, hit_keys: &[String]) {
        let mut entries = self.entries.write().unwrap();
        for key in hit_keys {
            if let Some(entry) = entries.get_mut(key) {
                entry.stamp = entry.stamp.max(tick);
            }
        }
        for u in updates {
            entries.insert(
                u.key,
                CacheEntry {
                    fingerprint: u.fingerprint,
                    class: u.class,
                    fitted: u.fitted,
                    start_min: u.start_min,
                    step_min: u.step_min,
                    len: u.len,
                    mean: u.mean,
                    std: u.std,
                    sketch: u.sketch,
                    fit_wall: u.fit_wall,
                    stamp: tick,
                },
            );
        }
    }

    /// Evict least-recently-used entries (oldest stamp, ties broken by key)
    /// until `len() <= capacity`. Deterministic: call from orchestrator
    /// barriers, never concurrently with lookups whose outcome should not
    /// depend on other regions' progress.
    pub fn evict_to_capacity(&self) {
        let mut entries = self.entries.write().unwrap();
        while entries.len() > self.capacity {
            let victim = entries
                .iter()
                .min_by(|(ka, ea), (kb, eb)| ea.stamp.cmp(&eb.stamp).then_with(|| ka.cmp(kb)))
                .map(|(key, _)| key.clone())
                .expect("non-empty map above capacity");
            entries.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether an entry exists for `key` (any fingerprint/class).
    pub fn contains(&self, key: &str) -> bool {
        self.entries.read().unwrap().contains_key(key)
    }

    /// The cached fitted model for `key`, if any — a read-only extraction
    /// that bypasses fingerprint/class/drift validation and does **not**
    /// count as a lookup or touch recency.
    ///
    /// This is the serving-layer hook: at deploy time the snapshot builder
    /// pulls each server's fitted model out of the warm cache so the
    /// serving read path can answer horizons the materialized predictions
    /// do not cover. Staleness checking is the caller's concern (the model
    /// is whatever the last pipeline run committed).
    pub fn fitted(&self, key: &str) -> Option<Arc<dyn FittedModel>> {
        self.with_fitted(|fitted| fitted(key))
    }

    /// [`ModelCache::fitted`] for many keys under one read lock: `f` is
    /// handed the lookup and runs while the lock is held, so it must not
    /// call back into the cache's writers.
    pub fn with_fitted<R>(
        &self,
        f: impl FnOnce(&dyn Fn(&str) -> Option<Arc<dyn FittedModel>>) -> R,
    ) -> R {
        let entries = self.entries.read().unwrap();
        f(&|key| entries.get(key).map(|e| Arc::clone(&e.fitted)))
    }

    /// Point-in-time counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            hits_similarity: self.hits_similarity.load(Ordering::Relaxed),
            misses_cold: self.misses_cold.load(Ordering::Relaxed),
            invalidated_fingerprint: self.invalidated_fingerprint.load(Ordering::Relaxed),
            invalidated_class: self.invalidated_class.load(Ordering::Relaxed),
            invalidated_drift: self.invalidated_drift.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            saved_wall: Duration::from_nanos(self.saved_wall_ns.load(Ordering::Relaxed)),
        }
    }
}

fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ForecastError;
    use seagull_timeseries::Timestamp;

    struct DummyFit {
        value: f64,
        anchor: Timestamp,
        step_min: u32,
    }

    impl FittedModel for DummyFit {
        fn predict(&self, horizon: usize) -> Result<TimeSeries, ForecastError> {
            TimeSeries::from_fn(self.anchor, self.step_min, horizon, |_| self.value)
                .map_err(ForecastError::Series)
        }
    }

    fn series(start_week: i64, value: f64) -> TimeSeries {
        TimeSeries::from_fn(
            Timestamp::from_minutes(start_week * MINUTES_PER_WEEK),
            30,
            7 * 48,
            |_| value,
        )
        .unwrap()
    }

    /// A daily sawtooth: same grid as [`series`] but a distinctly
    /// non-constant shape, so its sketch differs from any constant series.
    fn ramp(start_week: i64, level: f64, amplitude: f64) -> TimeSeries {
        TimeSeries::from_fn(
            Timestamp::from_minutes(start_week * MINUTES_PER_WEEK),
            30,
            7 * 48,
            |t| level + amplitude * ((t.minutes() / 30) % 48) as f64 / 48.0,
        )
        .unwrap()
    }

    fn update(key: &str, fp: u64, class: &str, history: &TimeSeries) -> CacheUpdate {
        let fitted: Arc<dyn FittedModel> = Arc::new(DummyFit {
            value: 1.0,
            anchor: history.end(),
            step_min: history.step_min(),
        });
        CacheUpdate::new(key, fp, class, fitted, history, Duration::from_millis(5))
    }

    #[test]
    fn cold_then_hit_on_same_fingerprint_next_week() {
        let cache = ModelCache::new();
        let week0 = series(0, 10.0);
        assert!(matches!(
            cache.lookup("a/s1", 42, "daily-pattern", &week0),
            Lookup::Miss(MissReason::Cold)
        ));
        cache.commit(0, vec![update("a/s1", 42, "daily-pattern", &week0)], &[]);

        let week1 = series(1, 10.0);
        match cache.lookup("a/s1", 42, "daily-pattern", &week1) {
            Lookup::Hit(hit) => assert_eq!(hit.shift_min, MINUTES_PER_WEEK),
            Lookup::Miss(r) => panic!("expected hit, got {r:?}"),
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses_cold, 1);
        assert_eq!(stats.saved_wall, Duration::from_millis(5));
    }

    #[test]
    fn fingerprint_and_class_changes_invalidate() {
        let cache = ModelCache::new();
        let week0 = series(0, 10.0);
        cache.commit(0, vec![update("a/s1", 42, "daily-pattern", &week0)], &[]);
        // Changed bytes *and* changed shape: no exact or similarity reuse.
        let reshaped = ramp(1, 10.0, 40.0);
        assert!(matches!(
            cache.lookup("a/s1", 43, "daily-pattern", &reshaped),
            Lookup::Miss(MissReason::Fingerprint)
        ));
        let week1 = series(1, 10.0);
        assert!(matches!(
            cache.lookup("a/s1", 42, "no-pattern", &week1),
            Lookup::Miss(MissReason::Class)
        ));
        let stats = cache.stats();
        assert_eq!(stats.invalidated_fingerprint, 1);
        assert_eq!(stats.invalidated_class, 1);
    }

    #[test]
    fn similarity_reuse_on_matching_sketch() {
        let cache = ModelCache::new();
        let week0 = ramp(0, 10.0, 40.0);
        cache.commit(0, vec![update("a/s1", 42, "daily-pattern", &week0)], &[]);
        // Different bytes, non-stable class, same quantized shape: the
        // similarity key serves the hit and it is counted separately.
        let week1 = ramp(1, 10.0, 40.0);
        match cache.lookup("a/s1", 99, "daily-pattern", &week1) {
            Lookup::Hit(hit) => {
                assert!(hit.similarity);
                assert_eq!(hit.shift_min, MINUTES_PER_WEEK);
            }
            Lookup::Miss(r) => panic!("expected similarity hit, got {r:?}"),
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.hits_similarity, 1);
        assert!(stats.hit_rate() > 0.99, "similarity hits count in hit_rate");
    }

    #[test]
    fn similarity_reuse_blocked_by_level_drift() {
        let cache = ModelCache::new();
        let week0 = ramp(0, 10.0, 40.0);
        cache.commit(0, vec![update("a/s1", 42, "daily-pattern", &week0)], &[]);
        // The sketch is z-scored, so a pure level/scale shift leaves it
        // unchanged — exactly the case the drift gate must catch.
        let shifted = ramp(1, 80.0, 40.0);
        assert!(matches!(
            cache.lookup("a/s1", 99, "daily-pattern", &shifted),
            Lookup::Miss(MissReason::Drift)
        ));
        assert_eq!(cache.stats().invalidated_drift, 1);
        assert_eq!(cache.stats().hits_similarity, 0);
    }

    /// A cold fit's update walks its history for the level once and hands it
    /// to the sketch: entry and sketch are what the two walks gave.
    #[test]
    fn update_sketch_and_level_equal_the_standalone_ones() {
        for history in [ramp(0, 10.0, 40.0), series(3, 20.0), ramp(1, -5.0, 1e-12)] {
            let u = update("r/1", 1, "daily", &history);
            let (mean, std) = mean_std(history.values());
            assert_eq!(u.mean.to_bits(), mean.to_bits());
            assert_eq!(u.std.to_bits(), std.to_bits());
            assert_eq!(u.sketch, shape_sketch(history.values()));
        }
    }

    #[test]
    fn shape_sketch_quantizes_and_discriminates() {
        let flat = series(0, 10.0);
        let saw = ramp(0, 10.0, 40.0);
        // Constant series: every bucket is exactly mean, sketch is zero.
        assert_eq!(shape_sketch(flat.values()), 0);
        assert_ne!(shape_sketch(saw.values()), shape_sketch(flat.values()));
        // Scale/level invariance (the drift gate owns those dimensions).
        let scaled = ramp(0, 50.0, 80.0);
        assert_eq!(shape_sketch(saw.values()), shape_sketch(scaled.values()));
        assert_eq!(shape_sketch(&[]), 0);
        // A saw is far more than one quantum from flat in some bucket.
        assert!(!sketches_similar(
            shape_sketch(saw.values()),
            shape_sketch(flat.values())
        ));
    }

    #[test]
    fn sketch_similarity_tolerates_one_quantum_of_jitter() {
        let a = shape_sketch(ramp(0, 10.0, 40.0).values());
        assert!(sketches_similar(a, a), "similarity is reflexive");
        // Nudge one bucket by exactly one quantum: still similar — this is
        // the quantization-boundary jitter noisy same-shape servers show
        // week over week.
        let bucket0 = (a & 0xff) as u8 as i8;
        let jittered = (a & !0xffu128) | (bucket0.wrapping_add(1) as u8 as u128);
        assert!(sketches_similar(a, jittered));
        assert!(sketches_similar(jittered, a), "similarity is symmetric");
        // Two quanta in a single bucket is a different shape.
        let moved = (a & !0xffu128) | (bucket0.wrapping_add(2) as u8 as u128);
        assert!(!sketches_similar(a, moved));
    }

    #[test]
    fn stable_class_reuses_until_drift() {
        let cache = ModelCache::new();
        let week0 = series(0, 100.0);
        cache.commit(0, vec![update("a/s1", 42, "stable", &week0)], &[]);
        // Slightly different bytes, same level: stable reuse.
        let week1 = series(1, 100.0001);
        assert!(matches!(
            cache.lookup("a/s1", 99, "stable", &week1),
            Lookup::Hit(_)
        ));
        // Level shift well past the drift gate: refit.
        let drifted = series(2, 500.0);
        assert!(matches!(
            cache.lookup("a/s1", 7, "stable", &drifted),
            Lookup::Miss(MissReason::Drift)
        ));
        assert_eq!(cache.stats().invalidated_drift, 1);
    }

    #[test]
    fn misaligned_or_reshaped_history_misses() {
        let cache = ModelCache::new();
        let week0 = series(0, 10.0);
        cache.commit(0, vec![update("a/s1", 42, "stable", &week0)], &[]);
        // Start not a whole-week multiple ahead.
        let misaligned = TimeSeries::from_fn(
            Timestamp::from_minutes(MINUTES_PER_WEEK + 1440),
            30,
            7 * 48,
            |_| 10.0,
        )
        .unwrap();
        assert!(matches!(
            cache.lookup("a/s1", 42, "stable", &misaligned),
            Lookup::Miss(MissReason::Fingerprint)
        ));
        // Different length.
        let reshaped = TimeSeries::from_fn(
            Timestamp::from_minutes(MINUTES_PER_WEEK),
            30,
            6 * 48,
            |_| 10.0,
        )
        .unwrap();
        assert!(matches!(
            cache.lookup("a/s1", 42, "stable", &reshaped),
            Lookup::Miss(MissReason::Fingerprint)
        ));
    }

    #[test]
    fn lru_evicts_oldest_stamp_then_smallest_key() {
        let cache = ModelCache::with_capacity(2);
        let week0 = series(0, 1.0);
        cache.commit(0, vec![update("k/a", 1, "stable", &week0)], &[]);
        cache.commit(1, vec![update("k/b", 2, "stable", &week0)], &[]);
        cache.commit(2, vec![update("k/c", 3, "stable", &week0)], &[]);
        cache.evict_to_capacity();
        assert_eq!(cache.len(), 2);
        assert!(!cache.contains("k/a"), "oldest stamp evicted");
        assert!(cache.contains("k/b") && cache.contains("k/c"));
        assert_eq!(cache.stats().evictions, 1);

        // A hit bumps recency: k/b survives the next eviction.
        cache.commit(3, Vec::new(), &["k/b".to_string()]);
        cache.commit(4, vec![update("k/d", 4, "stable", &week0)], &[]);
        cache.evict_to_capacity();
        assert!(cache.contains("k/b"));
        assert!(!cache.contains("k/c"));
    }

    #[test]
    fn hit_prediction_reanchors_with_shift() {
        let cache = ModelCache::new();
        let week0 = series(0, 10.0);
        cache.commit(0, vec![update("a/s1", 42, "stable", &week0)], &[]);
        let week2 = series(2, 10.0);
        let Lookup::Hit(hit) = cache.lookup("a/s1", 42, "stable", &week2) else {
            panic!("expected hit");
        };
        let pred = hit
            .fitted
            .predict(48)
            .unwrap()
            .shifted(hit.shift_min)
            .unwrap();
        assert_eq!(pred.start(), week2.end());
    }
}
