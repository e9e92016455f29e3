//! # seagull-autoscale
//!
//! The second Seagull use case: preemptive auto-scale of Azure SQL databases
//! (Appendix A of the paper).
//!
//! SQL telemetry is coarser than PostgreSQL/MySQL telemetry — "database
//! identifier, timestamp in minutes, and average CPU load per 15 minutes" —
//! and the prediction target is the full CPU curve 24 hours ahead rather
//! than a lowest-load window. Accuracy therefore uses the standard Mean
//! NRMSE and MASE metrics (Equations 1–3), not the bucket ratio.
//!
//! * [`classify`] — Definition 10 stable/unstable databases (the paper
//!   measures 19.36 % stable).
//! * [`evaluate`] — the Figure 16/17 harness: per-model accuracy (Mean
//!   NRMSE, MASE) and training/inference/accuracy-evaluation runtime for a
//!   24-hour-ahead forecast per database.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod classify;
pub mod evaluate;
pub mod policy;

pub use classify::{classify_sql_fleet, is_stable_database, SqlClassification, StableDbConfig};
pub use evaluate::{evaluate_models, sql_fleet_spec, ModelEvalRow};
pub use policy::{
    evaluate_policy, simulate_day, AutoscalePolicy, DayOutcome, PolicySummary, SizingMode,
    SkuLadder,
};
