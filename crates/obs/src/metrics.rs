//! Lock-cheap metrics registry: monotonic counters, gauges, and
//! log-bucketed histograms, labelled by `(region, stage)`-style label sets.
//!
//! The registry mutex is only taken when a metric handle is first created
//! (or when snapshotting); the hot path — `Counter::inc`,
//! `Histogram::observe` — is pure atomics on a shared `Arc` handle.
//!
//! Determinism: every aggregate a metric exposes (counts, sums, bucket
//! tallies, quantile estimates) is a pure function of the observed values,
//! and snapshots iterate a `BTreeMap`, so a run that observes the same
//! values in any order exports byte-identical text. Metrics derived from
//! wall-clock time must be registered [`Stability::Volatile`] so the stable
//! export can exclude them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Whether a metric is reproducible across same-seed runs.
///
/// `Stable` metrics depend only on simulated inputs (ticks, item counts,
/// seeded faults) and appear in the stable export. `Volatile` metrics carry
/// wall-clock or scheduling noise and are excluded from it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stability {
    /// Reproducible across same-seed runs; included in the stable export.
    Stable,
    /// Carries wall-clock or scheduling noise; excluded from the stable
    /// export.
    Volatile,
}

/// Metric identity: name plus a sorted label set.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId {
    /// Metric name, e.g. `seagull_retry_attempts_total`.
    pub name: String,
    /// Label pairs, sorted by key so equal label sets compare equal.
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    /// Builds an id from a name and unsorted label pairs (sorting them).
    pub fn new(name: &str, labels: &[(&str, &str)]) -> MetricId {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricId {
            name: name.to_string(),
            labels,
        }
    }
}

/// A monotonic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value. For mirroring an external cumulative total
    /// (e.g. a chaos store's op counters) into the registry idempotently —
    /// regular counting should use [`Counter::inc`]/[`Counter::add`].
    pub fn store(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge holding an arbitrary `f64` (stored as bits in an atomic).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Latest value set (0.0 if never set).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of log buckets: index 0 catches `v <= 2^-30`, indices `1..=181`
/// cover half-octave buckets `(2^(k/2), 2^((k+1)/2)]` for `k in -60..=120`.
pub const BUCKETS: usize = 182;

const MIN_EXP2: i64 = -60; // in half-octaves: 2^-30
const MAX_EXP2: i64 = 120; // 2^60

fn bucket_index(v: f64) -> usize {
    // NaN and non-positive values (including -0.0) land in the catch-all
    // bucket 0.
    if v <= 0.0 || v.is_nan() {
        return 0;
    }
    let k = (v.log2() * 2.0).floor() as i64;
    let k = k.clamp(MIN_EXP2, MAX_EXP2);
    (k - MIN_EXP2 + 1) as usize
}

/// Upper bound of bucket `i` (the value reported for quantiles landing in it).
pub fn bucket_upper(i: usize) -> f64 {
    if i == 0 {
        return 2f64.powf(MIN_EXP2 as f64 / 2.0);
    }
    2f64.powf((i as i64 + MIN_EXP2) as f64 / 2.0)
}

/// Lower bound of bucket `i`. Bucket 0 is the non-positive/underflow
/// catch-all, so its lower bound is 0.0 for interpolation purposes.
pub fn bucket_lower(i: usize) -> f64 {
    if i == 0 {
        return 0.0;
    }
    bucket_upper(i - 1)
}

/// A log-bucketed histogram with p50/p95/p99/max estimation.
///
/// Buckets grow geometrically (factor `sqrt(2)` per bucket), so the quantile
/// estimate returned by [`Histogram::quantile`] is at most one half-octave
/// above the true value, and never above the observed maximum.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observations, f64 bits, CAS-updated.
    sum_bits: AtomicU64,
    /// Max observation, f64 bits, CAS-updated.
    max_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }
}

impl Histogram {
    /// Records one observation (NaN and non-positive values land in the
    /// catch-all underflow bucket).
    pub fn observe(&self, v: f64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        let mut cur = self.max_bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.max_bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Largest observed value (0.0 when empty).
    pub fn max(&self) -> f64 {
        let m = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        if m == f64::NEG_INFINITY {
            0.0
        } else {
            m
        }
    }

    /// Arithmetic mean of the observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) from the bucket tallies.
    ///
    /// Interpolates linearly within the bucket containing the target rank
    /// (a rank one-third of the way into a bucket's tally lands one-third
    /// of the way between the bucket's bounds), clamped to the observed
    /// maximum; 0.0 when empty. Because the estimate is a pure function of
    /// the bucket tallies, merged histograms report exactly the quantiles
    /// the whole stream would, and the estimate is always within one bucket
    /// width (a factor of `sqrt(2)`) of the true quantile.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 && cum + c >= rank {
                let lo = bucket_lower(i);
                let hi = bucket_upper(i);
                let frac = (rank - cum) as f64 / c as f64;
                return (lo + frac * (hi - lo)).min(self.max());
            }
            cum += c;
        }
        self.max()
    }

    /// Non-empty buckets as `(bucket_upper, count)`, for export.
    pub fn nonzero_buckets(&self) -> Vec<(f64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                if c > 0 {
                    Some((bucket_upper(i), c))
                } else {
                    None
                }
            })
            .collect()
    }

    /// Merge another histogram's tallies into this one (associative).
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        let n = other.count.load(Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        if n > 0 {
            let mut cur = self.sum_bits.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + other.sum()).to_bits();
                match self.sum_bits.compare_exchange_weak(
                    cur,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
            let other_max = f64::from_bits(other.max_bits.load(Ordering::Relaxed));
            let mut cur = self.max_bits.load(Ordering::Relaxed);
            while other_max > f64::from_bits(cur) {
                match self.max_bits.compare_exchange_weak(
                    cur,
                    other_max.to_bits(),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Entry {
    metric: Metric,
    stability: Stability,
}

/// A point-in-time reading of one metric, as produced by
/// [`Registry::snapshot`]. Sorted by `(name, labels)`.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSample {
    /// Which metric this reading belongs to.
    pub id: MetricId,
    /// Whether the metric is reproducible across same-seed runs.
    pub stability: Stability,
    /// The reading itself.
    pub value: SampleValue,
}

/// The value part of a [`MetricSample`], by metric kind.
#[derive(Clone, Debug, PartialEq)]
pub enum SampleValue {
    /// A counter's cumulative total.
    Counter(u64),
    /// A gauge's latest value.
    Gauge(f64),
    /// A histogram's aggregates and bucket tallies.
    Histogram(HistogramSnapshot),
}

/// Point-in-time aggregates of one [`Histogram`].
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Largest observed value.
    pub max: f64,
    /// Estimated median (see [`Histogram::quantile`]).
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
    /// `(bucket_upper, count)` for non-empty buckets.
    pub buckets: Vec<(f64, u64)>,
}

/// The fleet-wide metrics registry.
///
/// Cheap to clone handles out of; intended to be shared via [`crate::Obs`].
/// The registry mutex is only taken when a handle is first created or a
/// snapshot is read — incrementing through a handle is pure atomics.
///
/// # Example
///
/// ```
/// use seagull_obs::{Registry, SampleValue};
///
/// let reg = Registry::new();
/// reg.counter("requests_total", &[("region", "west")]).inc();
/// reg.histogram("latency_ticks", &[]).observe(3.0);
///
/// let snap = reg.snapshot();
/// assert_eq!(snap.len(), 2);
/// assert_eq!(snap[1].id.name, "requests_total");
/// assert_eq!(snap[1].value, SampleValue::Counter(1));
/// ```
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<MetricId, Entry>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Handle to the counter with this identity, registering a
    /// [`Stability::Stable`] one on first use.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.counter_with(name, labels, Stability::Stable)
    }

    /// Like [`Registry::counter`] with an explicit stability class (the
    /// class recorded at first registration wins).
    ///
    /// # Panics
    /// If the identity is already registered as a different metric type.
    pub fn counter_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        stability: Stability,
    ) -> Arc<Counter> {
        let id = MetricId::new(name, labels);
        let mut metrics = self.metrics.lock().unwrap();
        let entry = metrics.entry(id).or_insert_with(|| Entry {
            metric: Metric::Counter(Arc::new(Counter::default())),
            stability,
        });
        match &entry.metric {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Handle to the gauge with this identity, registering a
    /// [`Stability::Stable`] one on first use.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.gauge_with(name, labels, Stability::Stable)
    }

    /// Like [`Registry::gauge`] with an explicit stability class (the
    /// class recorded at first registration wins).
    ///
    /// # Panics
    /// If the identity is already registered as a different metric type.
    pub fn gauge_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        stability: Stability,
    ) -> Arc<Gauge> {
        let id = MetricId::new(name, labels);
        let mut metrics = self.metrics.lock().unwrap();
        let entry = metrics.entry(id).or_insert_with(|| Entry {
            metric: Metric::Gauge(Arc::new(Gauge::default())),
            stability,
        });
        match &entry.metric {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Handle to the histogram with this identity, registering a
    /// [`Stability::Stable`] one on first use.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.histogram_with(name, labels, Stability::Stable)
    }

    /// Like [`Registry::histogram`] with an explicit stability class (the
    /// class recorded at first registration wins).
    ///
    /// # Panics
    /// If the identity is already registered as a different metric type.
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        stability: Stability,
    ) -> Arc<Histogram> {
        let id = MetricId::new(name, labels);
        let mut metrics = self.metrics.lock().unwrap();
        let entry = metrics.entry(id).or_insert_with(|| Entry {
            metric: Metric::Histogram(Arc::new(Histogram::default())),
            stability,
        });
        match &entry.metric {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Read every metric, sorted by `(name, labels)`.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let metrics = self.metrics.lock().unwrap();
        metrics
            .iter()
            .map(|(id, entry)| MetricSample {
                id: id.clone(),
                stability: entry.stability,
                value: match &entry.metric {
                    Metric::Counter(c) => SampleValue::Counter(c.get()),
                    Metric::Gauge(g) => SampleValue::Gauge(g.get()),
                    Metric::Histogram(h) => SampleValue::Histogram(HistogramSnapshot {
                        count: h.count(),
                        sum: h.sum(),
                        max: h.max(),
                        p50: h.quantile(0.50),
                        p95: h.quantile(0.95),
                        p99: h.quantile(0.99),
                        buckets: h.nonzero_buckets(),
                    }),
                },
            })
            .collect()
    }

    /// Snapshot restricted to [`Stability::Stable`] metrics: the set that
    /// must be byte-identical across same-seed runs.
    pub fn stable_snapshot(&self) -> Vec<MetricSample> {
        self.snapshot()
            .into_iter()
            .filter(|s| s.stability == Stability::Stable)
            .collect()
    }

    /// Fold another registry into this one: counters add, gauges take the
    /// other's latest value, histograms merge bucket tallies. Stability is
    /// taken from the other registry when the metric is first seen here.
    ///
    /// This is the metrics half of determinism-by-merge: concurrent region
    /// runs record into private scratch registries, which the orchestrator
    /// absorbs in region input order so the merged export is independent of
    /// completion order.
    pub fn absorb(&self, other: &Registry) {
        let entries: Vec<(MetricId, Stability, Metric)> = {
            let metrics = other.metrics.lock().unwrap();
            metrics
                .iter()
                .map(|(id, entry)| {
                    let metric = match &entry.metric {
                        Metric::Counter(c) => Metric::Counter(Arc::clone(c)),
                        Metric::Gauge(g) => Metric::Gauge(Arc::clone(g)),
                        Metric::Histogram(h) => Metric::Histogram(Arc::clone(h)),
                    };
                    (id.clone(), entry.stability, metric)
                })
                .collect()
        };
        for (id, stability, metric) in entries {
            let labels: Vec<(&str, &str)> = id
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            match metric {
                Metric::Counter(theirs) => {
                    self.counter_with(&id.name, &labels, stability)
                        .add(theirs.get());
                }
                Metric::Gauge(theirs) => {
                    self.gauge_with(&id.name, &labels, stability)
                        .set(theirs.get());
                }
                Metric::Histogram(theirs) => {
                    self.histogram_with(&id.name, &labels, stability)
                        .merge(&theirs);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let reg = Registry::new();
        let c = reg.counter("requests_total", &[("region", "west"), ("stage", "ingest")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same id returns the same underlying counter.
        let c2 = reg.counter("requests_total", &[("stage", "ingest"), ("region", "west")]);
        c2.inc();
        assert_eq!(c.get(), 6);
    }

    #[test]
    fn gauge_holds_latest() {
        let reg = Registry::new();
        let g = reg.gauge("breaker_state", &[("region", "east")]);
        g.set(2.0);
        g.set(1.0);
        assert_eq!(g.get(), 1.0);
    }

    #[test]
    fn histogram_quantiles_bound_observations() {
        let h = Histogram::default();
        for v in 1..=1000 {
            h.observe(v as f64);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        assert_eq!(h.max(), 1000.0);
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        // Half-octave buckets with in-bucket interpolation: estimate within
        // one bucket width (factor sqrt(2)) of the true quantile, either side.
        let rt2 = 2f64.sqrt();
        assert!(p50 >= 500.0 / rt2 && p50 <= 500.0 * rt2, "p50 = {p50}");
        assert!(p99 >= 990.0 / rt2 && p99 <= 990.0 * rt2, "p99 = {p99}");
        assert!(h.quantile(1.0) <= h.max());
    }

    #[test]
    fn bucket_bounds_nest() {
        for i in 1..BUCKETS {
            assert_eq!(bucket_lower(i), bucket_upper(i - 1));
            assert!(bucket_lower(i) < bucket_upper(i));
        }
        assert_eq!(bucket_lower(0), 0.0);
    }

    #[test]
    fn single_bucket_quantiles_interpolate_not_pin_to_upper() {
        // 100 identical observations land in one bucket; interpolated
        // quantiles must spread across the bucket rather than all reporting
        // the bucket upper bound (the old pessimistic behaviour).
        let h = Histogram::default();
        for _ in 0..100 {
            h.observe(10.0);
        }
        let (p10, p90) = (h.quantile(0.10), h.quantile(0.90));
        assert!(p10 < p90, "interpolation collapsed: p10={p10} p90={p90}");
        assert!(h.quantile(1.0) <= h.max());
    }

    #[test]
    fn histogram_nonpositive_goes_to_underflow_bucket() {
        let h = Histogram::default();
        h.observe(0.0);
        h.observe(-3.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.nonzero_buckets().len(), 1);
    }

    #[test]
    fn absorb_merges_each_metric_kind() {
        let shared = Registry::new();
        shared.counter("ops_total", &[("region", "a")]).add(2);
        let scratch = Registry::new();
        scratch.counter("ops_total", &[("region", "a")]).add(3);
        scratch.gauge("depth", &[]).set(7.0);
        scratch
            .histogram_with("lat", &[], Stability::Volatile)
            .observe(4.0);
        shared.absorb(&scratch);
        assert_eq!(shared.counter("ops_total", &[("region", "a")]).get(), 5);
        assert_eq!(shared.gauge("depth", &[]).get(), 7.0);
        let h = shared.histogram_with("lat", &[], Stability::Volatile);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 4.0);
        // Stability carried over from the scratch registry.
        let snap = shared.snapshot();
        let lat = snap.iter().find(|s| s.id.name == "lat").unwrap();
        assert_eq!(lat.stability, Stability::Volatile);
    }

    #[test]
    fn absorb_in_fixed_order_is_deterministic() {
        let run = |counts: &[u64]| {
            let shared = Registry::new();
            for (i, n) in counts.iter().enumerate() {
                let scratch = Registry::new();
                scratch.counter("c_total", &[]).add(*n);
                scratch.gauge("last", &[]).set(i as f64);
                shared.absorb(&scratch);
            }
            shared.snapshot()
        };
        assert_eq!(run(&[1, 2, 3]), run(&[1, 2, 3]));
    }

    #[test]
    fn snapshot_is_sorted_and_stability_filtered() {
        let reg = Registry::new();
        reg.counter("b_total", &[]).inc();
        reg.counter("a_total", &[]).inc();
        reg.histogram_with("wall_seconds", &[], Stability::Volatile)
            .observe(0.5);
        let all = reg.snapshot();
        assert_eq!(all.len(), 3);
        assert!(all.windows(2).all(|w| w[0].id < w[1].id));
        let stable = reg.stable_snapshot();
        assert_eq!(stable.len(), 2);
        assert!(stable.iter().all(|s| s.stability == Stability::Stable));
    }
}
