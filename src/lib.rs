//! # Seagull
//!
//! A from-scratch Rust reproduction of *Seagull: An Infrastructure for Load
//! Prediction and Optimized Resource Allocation* (Poppe et al., Microsoft,
//! VLDB 2020).
//!
//! Seagull ingests per-server telemetry, validates it, extracts features,
//! trains and deploys forecasting models, predicts per-server customer load
//! 24 hours ahead, and uses those predictions to schedule full database
//! backups inside each server's *lowest-load window*. This facade crate
//! re-exports the workspace:
//!
//! * [`timeseries`] — gridded series, calendar math, resampling.
//! * [`linalg`] — dense matrices, eigen/SVD/least-squares kernels.
//! * [`telemetry`] — synthetic fleet simulation, blob store, load extraction.
//! * [`forecast`] — the deployable models: persistent forecast and SSA,
//!   with the warm-model cache. The Figure 11 baselines and the Appendix A
//!   SQL auto-scale use case are experiment code in `seagull-bench`.
//! * [`core`] — the paper's contribution: low-load accuracy metrics, server
//!   classification, the AML-style pipeline, model registry, parallel
//!   accuracy evaluation, document store, incidents and dashboard.
//! * [`serve`] — the prediction-serving layer: epoch-swapped model
//!   snapshots published at deploy time, low-latency per-server queries.
//! * [`backup`] — the backup-scheduling use case (Sections 2.3, 4, 6).
//! * [`obs`] — fleet-wide observability: metrics registry, span tracing,
//!   profiling hooks, Prometheus/JSON-lines/chrome-trace exports.
//! * [`watch`] — the watchtower: declarative SLOs with burn-rate alerting,
//!   per-query latency exemplars, and online deployment-accuracy
//!   monitoring feeding the warm-cache drift gate.
//!
//! ## Quickstart
//!
//! ```
//! use seagull::prelude::*;
//!
//! // Generate one week of 5-minute telemetry for a small fleet.
//! let spec = FleetSpec::small_region(42);
//! let fleet = FleetGenerator::new(spec).generate_weeks(4);
//!
//! // Classify the servers per the paper's Definitions 3-6.
//! let bound = ErrorBound::default();
//! let report = classify_fleet(&fleet, &bound);
//! assert!(report.total() > 0);
//! ```

#![forbid(unsafe_code)]

pub use seagull_backup as backup;
pub use seagull_core as core;
pub use seagull_forecast as forecast;
pub use seagull_linalg as linalg;
pub use seagull_obs as obs;
pub use seagull_serve as serve;
pub use seagull_telemetry as telemetry;
pub use seagull_timeseries as timeseries;
pub use seagull_watch as watch;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use seagull_core::classify::{classify_fleet, ServerClass};
    pub use seagull_core::metrics::{bucket_ratio, ErrorBound, LowLoadWindow};
    pub use seagull_forecast::{Forecaster, PersistentForecast, PersistentVariant};
    pub use seagull_telemetry::fleet::{FleetGenerator, FleetSpec, ServerTelemetry};
    pub use seagull_timeseries::{TimeSeries, Timestamp};
}
