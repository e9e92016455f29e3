//! # seagull-bench
//!
//! The experiment harness: one binary per table/figure of the paper (see
//! `DESIGN.md` §4 for the full index), the experiment code only those
//! binaries run, and the micro-benchmarks in `benches/micro.rs`.
//!
//! * [`zoo`] — the Figure 11 baselines (ARIMA, feed-forward network,
//!   additive model) and the Section 5.2 per-class router.
//! * [`autoscale`] — the Appendix A use case: preemptive auto-scale of SQL
//!   databases, with its NRMSE/MASE metrics.
//! * [`refit`] — the Section 5.3.1 harness: fit on the week before a backup
//!   day, score the day. [`deployed`] reads Section 5.4 from the pipeline.
//! * [`spans`] — reads `seagull-obs` span dumps back, for `obs_dump` and
//!   the observability tests.
//!
//! Every binary prints the same rows/series the paper reports and also
//! writes a JSON record under `experiments/` at the workspace root so
//! `EXPERIMENTS.md` can be cross-checked against fresh runs.
//!
//! Scale is controlled by the `SEAGULL_SCALE` environment variable:
//! `small` (default; seconds per experiment) or `paper` (population sizes
//! closer to the paper's; minutes). All experiments are seeded and
//! deterministic at either scale.

#![forbid(unsafe_code)]

pub mod autoscale;
pub mod deployed;
pub mod fleets;
pub mod output;
pub mod refit;
pub mod spans;
pub mod zoo;

pub use fleets::{scale, Scale};
pub use output::{emit_json, Table};
