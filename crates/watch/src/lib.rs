//! # seagull-watch: the watchtower
//!
//! Deterministic evaluation layer on top of `seagull-obs`: the pieces that
//! *watch* a Seagull fleet rather than run it. §5 of the paper describes
//! the production posture this reproduces — Microsoft monitors deployment
//! accuracy, staleness, and pipeline health for ~100k servers and alerts
//! on regressions.
//!
//! * [`slo`] — declarative [`slo::SloSpec`]s (latency, error-rate,
//!   staleness, availability) with Google-SRE multi-window burn-rate pairs.
//! * [`engine`] — the [`engine::WatchEngine`]: sliding-window SLI series on
//!   the virtual clock, burn-rate alert lifecycle through the existing
//!   [`seagull_core::IncidentManager`], per-region health gauges.
//! * [`accuracy`] — the [`accuracy::AccuracyMonitor`]: scores
//!   previously-served predictions as actuals arrive (§5.4 deployment
//!   accuracy), keeps rolling error/drift series per region and model
//!   class, raises `ModelRegression` incidents, and pulls the warm-cache
//!   drift gate so regressed servers are refit.
//! * [`report`] — the [`report::WatchReport`]: one JSON artifact
//!   summarizing SLO attainment, open alerts, and accuracy trends.
//!
//! ## Determinism contract
//!
//! Everything the watchtower computes is a pure function of the events
//! recorded into it — virtual ticks, good/bad counts, accuracy scores —
//! never of wall time. Metrics it exports are registered
//! [`seagull_obs::Stability::Stable`], so `Obs::stable_export()` including
//! watch series stays byte-identical across same-seed runs and thread
//! counts, provided the caller follows the same rule the fleet
//! orchestrator does: record from parallel regions only with region-keyed
//! (disjoint) state, and evaluate/sweep only from serial steps at
//! orchestrator barriers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod accuracy;
pub mod engine;
pub mod report;
pub mod slo;

pub use accuracy::{AccuracyMonitor, AccuracyMonitorConfig};
pub use engine::{AlertTransition, WatchEngine};
pub use report::WatchReport;
pub use slo::{default_pairs, BurnRatePair, SloKind, SloSpec};
