//! # seagull-core
//!
//! The Seagull infrastructure itself — the paper's primary contribution
//! (Sections 2–4): the use-case-agnostic pipeline that consumes load,
//! validates it, extracts features, trains/deploys forecasting models,
//! performs inference, evaluates low-load prediction accuracy, stores
//! results, and monitors itself.
//!
//! * [`metrics`] — Definitions 1–8: the asymmetric error bound, bucket
//!   ratio, lowest-load windows, and the combined evaluation the pipeline
//!   scores its stored predictions with.
//! * [`classify`] — Definitions 3–6 server classification (Figure 3).
//! * [`validation`] — the Data Validation module (schema/bound anomalies).
//! * [`features`] — the Feature Extraction module.
//! * [`pipeline`] — the AML-pipeline substitute orchestrating all stages,
//!   with per-stage timing (Figure 12(a)); its accuracy-eval stage scores
//!   last week's predictions and moves each server's three-week
//!   predictability gate (Definition 9).
//! * [`registry`] — model version tracking: each region's last successful
//!   deploy, the version its served snapshot carries.
//! * [`docstore`] — the Cosmos DB substitute where results land.
//! * [`incident`] / [`dashboard`] — alerting and the Application Insights
//!   substitute, a summary read from the stored run reports.
//! * [`resilience`] — retry of transient faults and per-region circuit breaking,
//!   threaded through every pipeline stage so transient faults degrade runs
//!   instead of aborting them.
//! * [`par`] — the Dask substitute: the fork-join parallel maps used by the
//!   per-server stages (Figure 12(b)), scoped threads over one atomic cursor.
//! * [`fleet`] — the cross-region orchestrator: concurrent region runs with
//!   deterministic observability merging and a warm-model cache.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod classify;
pub mod dashboard;
pub mod docstore;
pub mod features;
pub mod fleet;
pub mod incident;
pub mod metrics;
pub mod par;
pub mod pipeline;
pub mod registry;
pub mod resilience;
pub mod validation;

pub use classify::{classify_fleet, ClassificationReport, ServerClass};
pub use dashboard::DashboardSummary;
pub use docstore::{DocStore, DocStoreError};
pub use features::{extract_features, ServerFeatures};
pub use fleet::{checkpoint_key, FleetRunner, CHECKPOINT_KIND};
pub use incident::{Incident, IncidentManager, Severity};
pub use metrics::{
    bucket_ratio, evaluate_low_load, is_accurate, lowest_load_window, AccuracyConfig, ErrorBound,
    LowLoadEvaluation, LowLoadWindow,
};
pub use par::{configured_threads, default_threads, parallel_map};
pub use pipeline::{AccuracySummary, AmlPipeline, DegradedRun, PipelineConfig, PipelineRunReport};
pub use registry::ModelRegistry;
pub use resilience::{BreakerState, CircuitBreaker, InjectedCrash, StageChaos, StageError};
pub use validation::{validate_columnar, Anomaly, DataProfile, ValidationReport};
