//! The Feature Extraction module.
//!
//! "Lifespan and typical resource usage patterns are examples of the features
//! that are useful for load prediction. In particular, we differentiate
//! between short-lived and long-lived servers, stable and unstable servers,
//! servers that follow a daily or a weekly pattern ..." (Section 2.2).

use crate::classify::{classify_series, ClassifyConfig, ServerClass};
use seagull_telemetry::extract::ExtractedServer;
use seagull_timeseries::{decompose, detect_anomalies, AnomalyConfig, SummaryStats};
use serde::{Deserialize, Serialize};

/// The features extracted for one server in one pipeline run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerFeatures {
    /// Server the features were extracted for.
    pub server_id: u64,
    /// Days of telemetry available in this input window.
    pub observed_days: f64,
    /// Load summary statistics over the window.
    pub stats: SummaryStats,
    /// Fraction of missing buckets.
    pub missing_fraction: f64,
    /// The pattern class recovered from the load (lifespan is judged
    /// separately, from fleet metadata, by the caller).
    pub pattern: ServerClass,
    /// Daily seasonal strength in [0, 1] (0 when undecomposable): the
    /// continuous counterpart of the daily-pattern flag.
    pub daily_seasonal_strength: f64,
    /// Trend strength in [0, 1].
    pub trend_strength: f64,
    /// Number of robust load anomalies (spikes/level shifts) in the window.
    pub load_anomalies: usize,
    /// Length of the server's default backup window in minutes.
    pub backup_duration_min: i64,
}

/// Extracts features for one server: the per-server body of
/// [`extract_features`], called directly by the dataflow pipeline's fused
/// operators so featurization flows server-by-server instead of waiting on
/// a whole-batch barrier.
pub fn extract_server_features(s: &ExtractedServer, config: &ClassifyConfig) -> ServerFeatures {
    let anomaly_config = AnomalyConfig::default();
    let len = s.series.len();
    let stats = SummaryStats::compute(s.series.values());
    let (daily_seasonal_strength, trend_strength) =
        decompose(&s.series, s.series.points_per_day()).map_or((0.0, 0.0), |d| d.strengths());
    let load_anomalies = detect_anomalies(&s.series, &anomaly_config).len();
    ServerFeatures {
        server_id: s.id.0,
        observed_days: len as f64 / s.series.points_per_day() as f64,
        stats,
        missing_fraction: if len == 0 {
            1.0
        } else {
            stats.missing as f64 / len as f64
        },
        pattern: classify_series(&s.series, config),
        daily_seasonal_strength,
        trend_strength,
        load_anomalies,
        backup_duration_min: s.default_backup_end - s.default_backup_start,
    }
}

/// Extracts features for every server in a region-week.
pub fn extract_features(
    servers: &[ExtractedServer],
    config: &ClassifyConfig,
) -> Vec<ServerFeatures> {
    servers
        .iter()
        .map(|s| extract_server_features(s, config))
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
        let feats = extract_features(&servers, &ClassifyConfig::default());
        assert_eq!(feats.len(), 1);
        let f = &feats[0];
        assert_eq!(f.server_id, 1);
        assert!((f.observed_days - 2.0).abs() < 1e-9);
        assert_eq!(f.stats.mean, 10.0);
        assert_eq!(f.missing_fraction, 0.0);
        assert_eq!(f.pattern, ServerClass::Stable);
        assert_eq!(f.backup_duration_min, 90);
    }

    #[test]
    fn missing_fraction_counted() {
        let mut values = vec![5.0; 288];
        for v in values.iter_mut().take(72) {
            *v = f64::NAN;
        }
        let feats = extract_features(&[server(2, values)], &ClassifyConfig::default());
        assert!((feats[0].missing_fraction - 0.25).abs() < 1e-9);
        assert_eq!(feats[0].stats.missing, 72);
    }

    #[test]
    fn empty_series_is_fully_missing() {
        let feats = extract_features(&[server(3, vec![])], &ClassifyConfig::default());
        assert_eq!(feats[0].missing_fraction, 1.0);
        assert_eq!(feats[0].observed_days, 0.0);
    }

    #[test]
    fn seasonal_strength_separates_patterned_from_flat() {
        let flat = server(10, vec![20.0; 7 * 288]);
        let wavy_vals: Vec<f64> = (0..7 * 288)
            .map(|i| {
                let m = (i % 288) as f64 * 5.0;
                30.0 + 30.0 * (2.0 * std::f64::consts::PI * m / 1440.0).sin()
            })
            .collect();
        let wavy = server(11, wavy_vals);
        let feats = extract_features(&[flat, wavy], &ClassifyConfig::default());
        assert!(feats[0].daily_seasonal_strength < 0.2);
        assert!(feats[1].daily_seasonal_strength > 0.8);
    }

    #[test]
    fn anomaly_count_flows_through() {
        let mut vals = vec![20.0; 2 * 288];
        vals[100] = 99.0;
        let feats = extract_features(&[server(12, vals)], &ClassifyConfig::default());
        assert_eq!(feats[0].load_anomalies, 1);
    }

    #[test]
    fn pattern_flags_flow_through() {
        let wavy: Vec<f64> = (0..7 * 288)
            .map(|i| {
                let m = (i % 288) as f64 * 5.0;
                30.0 + 30.0 * (2.0 * std::f64::consts::PI * m / 1440.0).sin()
            })
            .collect();
        let feats = extract_features(&[server(4, wavy)], &ClassifyConfig::default());
        assert_eq!(feats[0].pattern, ServerClass::DailyPattern);
    }
}
