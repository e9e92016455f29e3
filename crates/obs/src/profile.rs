//! Profiling hooks for parallel execution: per-worker items processed,
//! busy/steal-idle wall time, and an imbalance ratio.
//!
//! Worker-to-item assignment depends on OS scheduling, so everything here
//! except the total item count is inherently non-deterministic; when
//! recorded into a [`crate::metrics::Registry`] the per-worker series are
//! registered [`crate::metrics::Stability::Volatile`].

use crate::metrics::{Registry, Stability};
use std::time::Duration;

/// What one worker did during a `parallel_map` region.
#[derive(Clone, Debug)]
pub struct WorkerProfile {
    /// Participant index within the map (0 is the caller).
    pub worker: usize,
    /// Items this worker claimed from the map's input.
    pub items: u64,
    /// Wall time spent inside the mapped closure.
    pub busy: Duration,
    /// Wall time the worker spent without work while the region was still
    /// running (the input was drained but siblings were busy, or the helper
    /// was never forked).
    pub idle: Duration,
}

/// Profile of one parallel region.
#[derive(Clone, Debug, Default)]
pub struct ParallelProfile {
    /// Per-worker breakdown, indexed by worker.
    pub workers: Vec<WorkerProfile>,
    /// Wall duration of the whole region (fork to last join).
    pub region_wall: Duration,
}

impl ParallelProfile {
    /// Items processed across all workers.
    pub fn total_items(&self) -> u64 {
        self.workers.iter().map(|w| w.items).sum()
    }

    /// Steal-idle time summed across all workers.
    pub fn total_idle(&self) -> Duration {
        self.workers.iter().map(|w| w.idle).sum()
    }

    /// Max items on one worker over the mean items per worker.
    /// 1.0 means perfectly balanced; 0.0 when the region processed nothing.
    pub fn imbalance_ratio(&self) -> f64 {
        let total = self.total_items();
        if total == 0 || self.workers.is_empty() {
            return 0.0;
        }
        let max = self.workers.iter().map(|w| w.items).max().unwrap_or(0) as f64;
        let mean = total as f64 / self.workers.len() as f64;
        max / mean
    }

    /// Record this profile into `registry` under the given stage label.
    ///
    /// Stable: item totals. Volatile: worker count (it mirrors the
    /// configured thread count, and stable exports must compare equal across
    /// thread counts), per-worker items, busy/idle seconds, imbalance ratio
    /// (all scheduling-dependent).
    pub fn record(&self, registry: &Registry, stage: &str) {
        let labels = [("stage", stage)];
        registry
            .counter("seagull_parallel_items_total", &labels)
            .add(self.total_items());
        registry
            .gauge_with("seagull_parallel_workers", &labels, Stability::Volatile)
            .set(self.workers.len() as f64);
        registry
            .gauge_with(
                "seagull_parallel_imbalance_ratio",
                &labels,
                Stability::Volatile,
            )
            .set(self.imbalance_ratio());
        registry
            .gauge_with(
                "seagull_parallel_idle_seconds",
                &labels,
                Stability::Volatile,
            )
            .set(self.total_idle().as_secs_f64());
        let items_hist = registry.histogram_with(
            "seagull_parallel_worker_items",
            &labels,
            Stability::Volatile,
        );
        let busy_hist = registry.histogram_with(
            "seagull_parallel_worker_busy_seconds",
            &labels,
            Stability::Volatile,
        );
        for w in &self.workers {
            items_hist.observe(w.items as f64);
            busy_hist.observe(w.busy.as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{SampleValue, Stability};

    fn worker(worker: usize, items: u64, busy_ms: u64, idle_ms: u64) -> WorkerProfile {
        WorkerProfile {
            worker,
            items,
            busy: Duration::from_millis(busy_ms),
            idle: Duration::from_millis(idle_ms),
        }
    }

    #[test]
    fn imbalance_ratio_balanced_is_one() {
        let p = ParallelProfile {
            workers: vec![worker(0, 10, 5, 0), worker(1, 10, 5, 0)],
            region_wall: Duration::from_millis(5),
        };
        assert!((p.imbalance_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_ratio_skew() {
        let p = ParallelProfile {
            workers: vec![worker(0, 30, 5, 0), worker(1, 10, 2, 3)],
            region_wall: Duration::from_millis(5),
        };
        // max=30, mean=20 -> 1.5
        assert!((p.imbalance_ratio() - 1.5).abs() < 1e-12);
        assert_eq!(p.total_items(), 40);
        assert_eq!(p.total_idle(), Duration::from_millis(3));
    }

    #[test]
    fn empty_profile_is_zero() {
        let p = ParallelProfile::default();
        assert_eq!(p.imbalance_ratio(), 0.0);
        assert_eq!(p.total_items(), 0);
    }

    #[test]
    fn record_marks_scheduling_series_volatile() {
        let reg = Registry::new();
        let p = ParallelProfile {
            workers: vec![worker(0, 4, 1, 0), worker(1, 2, 1, 1)],
            region_wall: Duration::from_millis(2),
        };
        p.record(&reg, "train-infer");
        let snapshot = reg.snapshot();
        let stability = |name: &str| {
            snapshot
                .iter()
                .find(|s| s.id.name == name)
                .unwrap_or_else(|| panic!("missing {name}"))
                .stability
        };
        assert_eq!(stability("seagull_parallel_items_total"), Stability::Stable);
        assert_eq!(stability("seagull_parallel_workers"), Stability::Volatile);
        assert_eq!(
            stability("seagull_parallel_imbalance_ratio"),
            Stability::Volatile
        );
        assert_eq!(
            stability("seagull_parallel_worker_items"),
            Stability::Volatile
        );
        let items = snapshot
            .iter()
            .find(|s| s.id.name == "seagull_parallel_items_total")
            .unwrap();
        assert_eq!(items.value, SampleValue::Counter(6));
    }
}
