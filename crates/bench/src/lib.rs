//! # seagull-bench
//!
//! The experiment harness: one binary per table/figure of the paper (see
//! `DESIGN.md` §4 for the full index) plus Criterion micro-benchmarks.
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

pub mod fleets;
pub mod output;

pub use fleets::{scale, Scale};
pub use output::{emit_json, Table};
