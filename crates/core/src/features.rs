//! The Feature Extraction module.
//!
//! "Lifespan and typical resource usage patterns are examples of the features
//! that are useful for load prediction. In particular, we differentiate
//! between short-lived and long-lived servers, stable and unstable servers,
//! servers that follow a daily or a weekly pattern ..." (Section 2.2).
//!
//! Lifespan is judged from fleet metadata, so the one feature recovered from
//! the load itself is the pattern class. It is also the only field the
//! pipeline reads back: it keys the model cache, for a forecaster that
//! consults one. The other fields are stored in the `FEATURES` document and
//! read by nothing in the pipeline.

use crate::classify::{classify_series, ServerClass};
use seagull_telemetry::extract::ExtractedServer;
use seagull_timeseries::{fill_gaps, GapFill, SummaryStats, TimeSeries};
use serde::Serialize;

/// The features extracted for one server in one pipeline run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServerFeatures {
    /// Server the features were extracted for.
    pub server_id: u64,
    /// Days of telemetry available in this input window.
    pub observed_days: f64,
    /// Load summary statistics over the window, taken on the gap-repaired
    /// series the model trains on (so `stats.missing` is 0 unless the week
    /// had no sample at all).
    pub stats: SummaryStats,
    /// Fraction of missing buckets in the series as ingested, before gap
    /// repair (1 for an empty series).
    pub missing_fraction: f64,
    /// The pattern class recovered from the gap-repaired load (lifespan is
    /// judged separately, from fleet metadata, by the caller).
    pub pattern: ServerClass,
    /// Length of the server's default backup window in minutes.
    pub backup_duration_min: i64,
}

/// Extracts features for one server from its week as ingested (`s`, whose
/// missing buckets are NaN) and the same week with its gaps repaired
/// (`repaired`): the per-server body of [`extract_features`], called
/// directly by the dataflow pipeline's fused operators, which repair the
/// series for the fit anyway.
pub fn extract_server_features(s: &ExtractedServer, repaired: &TimeSeries) -> ServerFeatures {
    let len = s.series.len();
    ServerFeatures {
        server_id: s.id.0,
        observed_days: len as f64 / s.series.points_per_day() as f64,
        stats: SummaryStats::compute(repaired.values()),
        missing_fraction: if len == 0 {
            1.0
        } else {
            s.series.missing_count() as f64 / len as f64
        },
        pattern: classify_series(repaired),
        backup_duration_min: s.default_backup_end - s.default_backup_start,
    }
}

/// Extracts features for every server in a region-week as ingested,
/// repairing each series as the pipeline does (`GapFill::Linear`).
pub fn extract_features(servers: &[ExtractedServer]) -> Vec<ServerFeatures> {
    servers
        .iter()
        .map(|s| {
            let mut repaired = s.series.clone();
            fill_gaps(&mut repaired, GapFill::Linear);
            extract_server_features(s, &repaired)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seagull_telemetry::server::ServerId;
    use seagull_timeseries::{TimeSeries, Timestamp};

    fn server(id: u64, values: Vec<f64>) -> ExtractedServer {
        ExtractedServer {
            id: ServerId(id),
            series: TimeSeries::new(Timestamp::from_days(7), 5, values).unwrap(),
            default_backup_start: Timestamp::from_days(8),
            default_backup_end: Timestamp::from_days(8) + 90,
        }
    }

    #[test]
    fn features_capture_basics() {
        let servers = vec![server(1, vec![10.0; 2 * 288])];
        let feats = extract_features(&servers);
        assert_eq!(feats.len(), 1);
        let f = &feats[0];
        assert_eq!(f.server_id, 1);
        assert!((f.observed_days - 2.0).abs() < 1e-9);
        assert_eq!(f.stats.mean, 10.0);
        assert_eq!(f.missing_fraction, 0.0);
        assert_eq!(f.pattern, ServerClass::Stable);
        assert_eq!(f.backup_duration_min, 90);
    }

    /// The missing fraction is the ingested series'; the statistics are the
    /// repaired series', so the gaps are counted once and not again there.
    #[test]
    fn missing_fraction_counted() {
        let mut values = vec![5.0; 288];
        for v in values.iter_mut().take(72) {
            *v = f64::NAN;
        }
        let feats = extract_features(&[server(2, values)]);
        assert!((feats[0].missing_fraction - 0.25).abs() < 1e-9);
        assert_eq!(feats[0].stats.missing, 0);
        assert_eq!(feats[0].stats.count, 288);
    }

    #[test]
    fn empty_series_is_fully_missing() {
        let feats = extract_features(&[server(3, vec![])]);
        assert_eq!(feats[0].missing_fraction, 1.0);
        assert_eq!(feats[0].observed_days, 0.0);
    }

    #[test]
    fn pattern_flags_flow_through() {
        let wavy: Vec<f64> = (0..7 * 288)
            .map(|i| {
                let m = (i % 288) as f64 * 5.0;
                30.0 + 30.0 * (2.0 * std::f64::consts::PI * m / 1440.0).sin()
            })
            .collect();
        let feats = extract_features(&[server(4, wavy)]);
        assert_eq!(feats[0].pattern, ServerClass::DailyPattern);
    }
}
