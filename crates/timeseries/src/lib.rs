//! # seagull-timeseries
//!
//! Time-series substrate for the Seagull reproduction.
//!
//! Seagull consumes *regularly gridded* telemetry: average customer CPU load
//! percentage per five minutes for PostgreSQL/MySQL servers (Section 2.2 of
//! the paper) and per fifteen minutes for SQL databases (Appendix A). This
//! crate provides the [`TimeSeries`] type used everywhere downstream, plus
//! calendar math (backup *days*, days of week, week alignment), gap filling,
//! rolling windows, and summary statistics.
//!
//! The per-server kernels are [`SummaryStats::compute`] (the featurizer's
//! load statistics), [`min_mean_window`] (the lowest-load window search) and
//! [`fill_gaps`] (the repair ahead of every fit).
//!
//! Timestamps are minutes since the Unix epoch ([`Timestamp`]); all paper
//! experiments operate at minute granularity, so this representation is exact
//! and cheap (a single `i64`).

#![forbid(unsafe_code)]

pub mod calendar;
pub mod resample;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;
pub mod window;

pub use calendar::{DayOfWeek, MINUTES_PER_DAY, MINUTES_PER_HOUR, MINUTES_PER_WEEK};
pub use resample::{fill_gaps, GapFill};
pub use series::{TimeSeries, TimeSeriesError};
pub use stats::{max, mean, min, quantile, stddev, SummaryStats};
pub use time::Timestamp;
pub use window::{min_mean_window, rolling_mean, WindowStat};
