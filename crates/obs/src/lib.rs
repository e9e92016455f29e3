//! # seagull-obs: fleet-wide observability
//!
//! Dependency-free observability layer shared by every Seagull crate:
//!
//! * [`metrics`] — a lock-cheap registry of counters, gauges, and
//!   log-bucketed histograms (p50/p95/p99/max), labelled by
//!   `(region, stage)`-style label sets.
//! * [`trace`] — span tracing with explicit start/end, parent links, and
//!   dual clocks: virtual scheduler ticks (deterministic) and wall time.
//! * [`export`] — Prometheus text exposition (with a parser, so
//!   round-trips are testable), JSON-lines spans, and chrome://tracing
//!   `trace_event` output.
//! * [`profile`] — per-worker profiles for `parallel_map` regions
//!   (items processed, steal-idle time, imbalance ratio).
//!
//! ## Determinism contract
//!
//! With a fixed seed and the simulated clock, every metric and span tick
//! recorded by the pipeline is a pure function of the inputs, so
//! [`Obs::stable_export`] is **byte-identical across runs**. Anything
//! derived from wall time or OS scheduling must be registered
//! [`metrics::Stability::Volatile`] (or carried in span wall fields), which
//! the stable export excludes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use export::TimeMode;
pub use metrics::{
    Counter, Exemplar, Gauge, Histogram, HistogramSnapshot, MetricId, MetricSample, Registry,
    SampleValue, Stability,
};
pub use profile::{ParallelProfile, WorkerProfile};
pub use trace::{SpanId, SpanRecord, Tracer};

use std::sync::Arc;

/// Shared observability handle: one registry + one tracer, cheap to clone.
#[derive(Clone, Default)]
pub struct Obs {
    registry: Arc<Registry>,
    tracer: Arc<Tracer>,
}

impl Obs {
    /// Creates a fresh handle with an empty registry and tracer.
    pub fn new() -> Obs {
        Obs::default()
    }

    /// The metrics registry shared by all clones of this handle.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The span tracer shared by all clones of this handle.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Deterministic export: Prometheus text for stable metrics, a blank
    /// line, then stable JSON-lines spans. Byte-identical across same-seed
    /// runs.
    pub fn stable_export(&self) -> String {
        let mut out = export::to_prometheus(&self.registry.stable_snapshot());
        out.push('\n');
        out.push_str(&export::spans_to_json_lines(
            &self.tracer.spans(),
            TimeMode::Stable,
        ));
        out
    }

    /// Fold another `Obs` into this one: counters add, gauges take the
    /// other's latest value, histograms merge, and spans are appended with
    /// remapped ids (see [`Registry::absorb`] and [`Tracer::absorb`]).
    ///
    /// Used by the fleet orchestrator to merge per-region scratch handles in
    /// region input order, keeping [`Obs::stable_export`] independent of
    /// which region finished first.
    pub fn absorb(&self, other: &Obs) {
        self.registry.absorb(&other.registry);
        self.tracer.absorb(&other.tracer);
    }

    /// Full export including volatile metrics and span wall times.
    pub fn full_export(&self) -> String {
        let mut out = export::to_prometheus(&self.registry.snapshot());
        out.push('\n');
        out.push_str(&export::spans_to_json_lines(
            &self.tracer.spans(),
            TimeMode::Full,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_clone_shares_state() {
        let obs = Obs::new();
        let clone = obs.clone();
        clone.registry().counter("shared_total", &[]).inc();
        let span = clone.tracer().start("s", &[], 0);
        clone.tracer().end(span, 1);
        assert_eq!(obs.registry().counter("shared_total", &[]).get(), 1);
        assert_eq!(obs.tracer().spans().len(), 1);
    }

    #[test]
    fn stable_export_is_byte_identical_across_runs() {
        let run = || {
            let obs = Obs::new();
            let reg = obs.registry();
            reg.counter(
                "seagull_retry_attempts_total",
                &[("region", "west"), ("stage", "features")],
            )
            .add(3);
            reg.histogram("seagull_stage_ticks", &[("region", "west")])
                .observe(7.0);
            // Volatile wall metric must not leak into the stable export.
            reg.gauge_with("seagull_wall_seconds", &[], Stability::Volatile)
                .set(0.123456);
            let root = obs.tracer().start("run-week", &[("region", "west")], 0);
            let stage = obs.tracer().child(root, "features", &[], 2);
            obs.tracer().end(stage, 3);
            obs.tracer().end(root, 7);
            obs.stable_export()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(!a.contains("seagull_wall_seconds"));
        assert!(!a.contains("wall_us"));
        assert!(a.contains("seagull_retry_attempts_total"));
    }

    #[test]
    fn full_export_includes_volatile_and_wall() {
        let obs = Obs::new();
        obs.registry()
            .gauge_with("seagull_wall_seconds", &[], Stability::Volatile)
            .set(1.5);
        let s = obs.tracer().start("stage", &[], 0);
        obs.tracer().end(s, 1);
        let full = obs.full_export();
        assert!(full.contains("seagull_wall_seconds"));
        assert!(full.contains("wall_us"));
    }
}
