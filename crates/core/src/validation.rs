//! The Data Validation module.
//!
//! "Since data validation is a well-studied topic, we implemented existing
//! rules such as detection of schema and bound anomalies" (Section 2.2), and
//! from Section 2.4: "we automatically deduce schema and other data
//! properties (e.g., min and max values of numeric attribute values) from the
//! input data. The schema and data properties are stored in a file. After the
//! file has been verified by a domain expert, it is used to detect schema and
//! bound anomalies."
//!
//! [`DataProfile::standard`] is the verified profile (loads are CPU
//! percentages, so nothing is left to deduce); [`validate_columnar`]
//! applies it to a decoded region-week and reports anomalies, which the
//! pipeline converts into incidents.

use seagull_telemetry::columnar::ColumnarBatch;
use seagull_telemetry::extract::ExtractedServer;
use serde::Serialize;

/// Expert-verified data properties (Section 2.4).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DataProfile {
    /// Lower inclusive load bound.
    pub min_load: f64,
    /// Upper inclusive load bound.
    pub max_load: f64,
    /// Expected grid step in minutes.
    pub grid_min: u32,
    /// Maximum tolerated fraction of missing buckets per server before an
    /// anomaly fires.
    pub max_missing_fraction: f64,
}

impl DataProfile {
    /// The expert-verified profile used in production: loads are CPU
    /// percentages.
    pub const fn standard(grid_min: u32) -> DataProfile {
        DataProfile {
            min_load: 0.0,
            max_load: 100.0,
            grid_min,
            max_missing_fraction: 0.25,
        }
    }
}

/// One detected anomaly.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Anomaly {
    /// The region-week holds no server the run can read: no block at all,
    /// or none on the profile's grid.
    EmptyInput,
    /// A load value outside the profile's bounds.
    BoundViolation {
        /// Offending server.
        server_id: u64,
        /// Offending row's timestamp, minutes.
        timestamp_min: i64,
        /// The out-of-bounds load value.
        value: f64,
    },
    /// A non-finite load value.
    NonFiniteValue {
        /// Offending server.
        server_id: u64,
        /// Offending row's timestamp, minutes.
        timestamp_min: i64,
    },
    /// A server block on another grid than the profile's; the run leaves
    /// the server out.
    OffGridTimestamp {
        /// Offending server.
        server_id: u64,
        /// First point of the offending block, minutes.
        timestamp_min: i64,
    },
    /// A default backup window with non-positive length.
    InvalidBackupWindow {
        /// Offending server.
        server_id: u64,
    },
    /// A server whose missing-bucket fraction exceeds the profile threshold.
    ExcessiveMissingData {
        /// Offending server.
        server_id: u64,
        /// Observed missing-bucket fraction.
        fraction: f64,
    },
}

impl Anomaly {
    /// True for anomalies that should block the pipeline rather than just
    /// alert (empty input means nothing downstream can run).
    pub fn is_blocking(&self) -> bool {
        matches!(self, Anomaly::EmptyInput)
    }
}

/// Validation output.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct ValidationReport {
    /// Every anomaly detected in the batch.
    pub anomalies: Vec<Anomaly>,
    /// Rows inspected.
    pub rows: usize,
    /// Distinct servers seen.
    pub servers: usize,
}

impl ValidationReport {
    /// True when no anomaly at all was found.
    pub fn is_clean(&self) -> bool {
        self.anomalies.is_empty()
    }

    /// True when a blocking anomaly was found.
    pub fn is_blocked(&self) -> bool {
        self.anomalies.iter().any(Anomaly::is_blocking)
    }
}

/// Validates a decoded region-week against a profile: backup windows, the
/// grid, bounds and finiteness. Reported anomalies are capped at
/// `max_reports` per kind so a systematically broken file cannot flood the
/// incident store.
///
/// Every present (non-NaN) sample is one row and gets the bound and
/// finiteness checks; NaN buckets are *missing* — counted per server by
/// [`validate_server`] downstream — not anomalies. An invalid default
/// backup window is reported once per server block, where the window is
/// stored. A block whose step is not the profile's grid is reported once, at
/// its first point, and not scanned: [`ColumnarBatch::extract`] leaves it
/// out of the run. A region-week with no block on the grid (none at all, or
/// every one off it) leaves the run no server and reports the one blocking
/// anomaly, [`Anomaly::EmptyInput`], last. Alignment within a block and
/// duplicate buckets cannot be written in the format at all.
pub fn validate_columnar(
    batch: &ColumnarBatch,
    profile: &DataProfile,
    max_reports: usize,
) -> ValidationReport {
    let mut report = ValidationReport::default();
    let mut bound_hits = 0usize;
    let mut grid_hits = 0usize;
    let mut window_hits = 0usize;
    let mut nonfinite_hits = 0usize;
    let mut servers: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let (lo, hi) = (profile.min_load, profile.max_load);
    for block in batch.blocks() {
        servers.insert(block.server_id.0);
        if block.default_backup_end <= block.default_backup_start {
            window_hits += 1;
            if window_hits <= max_reports {
                report.anomalies.push(Anomaly::InvalidBackupWindow {
                    server_id: block.server_id.0,
                });
            }
        }
        if block.step_min != profile.grid_min {
            grid_hits += 1;
            if grid_hits <= max_reports {
                report.anomalies.push(Anomaly::OffGridTimestamp {
                    server_id: block.server_id.0,
                    timestamp_min: block.series_start_min,
                });
            }
            continue;
        }
        // One scan without a per-sample branch (NaN, a missing bucket, fails
        // every comparison); only a block with something to report is walked
        // sample by sample, so a clean fleet never is.
        let values = batch.block_values(block);
        let (mut present, mut dirty) = (0usize, false);
        for &v in values {
            present += usize::from(!v.is_nan());
            dirty |= (v.abs() == f64::INFINITY) | (v < lo) | (v > hi);
        }
        report.rows += present;
        if !dirty {
            continue;
        }
        for (i, &v) in values.iter().enumerate() {
            if v.is_nan() {
                continue;
            }
            if !v.is_finite() {
                nonfinite_hits += 1;
                if nonfinite_hits <= max_reports {
                    report.anomalies.push(Anomaly::NonFiniteValue {
                        server_id: block.server_id.0,
                        timestamp_min: block.timestamp_at(i),
                    });
                }
            } else if v < lo || v > hi {
                bound_hits += 1;
                if bound_hits <= max_reports {
                    report.anomalies.push(Anomaly::BoundViolation {
                        server_id: block.server_id.0,
                        timestamp_min: block.timestamp_at(i),
                        value: v,
                    });
                }
            }
        }
    }
    if grid_hits == batch.blocks().len() {
        report.anomalies.push(Anomaly::EmptyInput);
    }
    report.servers = servers.len();
    report
}

/// Validates one reassembled server series for missing-data density, called
/// by the pipeline's fused per-server operators (whether the run may start
/// at all is [`validate_columnar`]'s to decide, before any server flows).
pub fn validate_server(s: &ExtractedServer, profile: &DataProfile) -> Option<Anomaly> {
    if s.series.is_empty() {
        return None;
    }
    let fraction = s.series.missing_count() as f64 / s.series.len() as f64;
    (fraction > profile.max_missing_fraction).then_some(Anomaly::ExcessiveMissingData {
        server_id: s.id.0,
        fraction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use seagull_telemetry::record::{LoadRecord, RecordBatch};
    use seagull_telemetry::server::ServerId;
    use seagull_timeseries::{TimeSeries, Timestamp};

    fn rec(server: u64, ts: i64, cpu: f64) -> LoadRecord {
        LoadRecord {
            server_id: ServerId(server),
            timestamp_min: ts,
            avg_cpu: cpu,
            default_backup_start: 0,
            default_backup_end: 60,
        }
    }

    /// The region-week `rows` grid into at `grid_min`.
    fn week(rows: Vec<LoadRecord>, grid_min: u32) -> ColumnarBatch {
        ColumnarBatch::from_records(&RecordBatch::new(rows), grid_min)
    }

    #[test]
    fn clean_batch_passes() {
        let batch = week(vec![rec(1, 0, 10.0), rec(1, 5, 20.0), rec(2, 0, 30.0)], 5);
        let report = validate_columnar(&batch, &DataProfile::standard(5), 10);
        assert!(report.is_clean());
        assert_eq!(report.rows, 3);
        assert_eq!(report.servers, 2);
    }

    #[test]
    fn empty_input_blocks() {
        let report = validate_columnar(&week(vec![], 5), &DataProfile::standard(5), 10);
        assert!(report.is_blocked());
        assert_eq!(report.anomalies, vec![Anomaly::EmptyInput]);
    }

    #[test]
    fn nonfinite_detected_separately() {
        // NaN is a missing bucket on the wire; ±∞ is the non-finite load.
        let batch = week(vec![rec(1, 0, f64::INFINITY), rec(1, 5, 50.0)], 5);
        let report = validate_columnar(&batch, &DataProfile::standard(5), 10);
        assert_eq!(
            report.anomalies,
            vec![Anomaly::NonFiniteValue {
                server_id: 1,
                timestamp_min: 0
            }]
        );
    }

    /// A block on another grid is reported once, capped like every kind,
    /// and not scanned; a backup window is checked on every block.
    #[test]
    fn off_grid_blocks_and_windows() {
        let mut bad_window = rec(3, 20, 1.0);
        bad_window.default_backup_end = bad_window.default_backup_start;
        let batch = week(
            vec![
                rec(1, 10, 500.0),
                rec(2, 0, 10.0),
                rec(2, 10, 11.0),
                bad_window,
            ],
            10,
        );
        let report = validate_columnar(&batch, &DataProfile::standard(5), 2);
        assert_eq!(
            report.anomalies,
            vec![
                Anomaly::OffGridTimestamp {
                    server_id: 1,
                    timestamp_min: 10
                },
                Anomaly::OffGridTimestamp {
                    server_id: 2,
                    timestamp_min: 0
                },
                Anomaly::InvalidBackupWindow { server_id: 3 },
                // No block is on the grid: the run has no server to read.
                Anomaly::EmptyInput,
            ]
        );
        assert!(report.is_blocked());
        assert_eq!((report.rows, report.servers), (0, 3));
        let on_grid = validate_columnar(&batch, &DataProfile::standard(10), 2);
        assert_eq!(on_grid.anomalies.len(), 2, "{:?}", on_grid.anomalies);
        assert_eq!(on_grid.rows, 4);
    }

    #[test]
    fn report_flood_is_capped() {
        let records: Vec<LoadRecord> = (0..100).map(|i| rec(1, i * 5, 500.0)).collect();
        let report = validate_columnar(&week(records, 5), &DataProfile::standard(5), 3);
        assert_eq!(report.anomalies.len(), 3);
    }

    #[test]
    fn columnar_bound_violations_detected() {
        let batch = RecordBatch::new(vec![rec(1, 0, 120.0), rec(1, 5, 50.0), rec(1, 10, -3.0)]);
        let report = validate_columnar(
            &ColumnarBatch::from_records(&batch, 5),
            &DataProfile::standard(5),
            10,
        );
        assert_eq!(
            report
                .anomalies
                .iter()
                .filter(|a| matches!(a, Anomaly::BoundViolation { .. }))
                .count(),
            2
        );
        assert_eq!(report.rows, 3);
    }

    #[test]
    fn columnar_missing_buckets_are_not_anomalies() {
        // Rows at 0 and 10 leave a NaN bucket at 5 in the columnar column.
        let batch = RecordBatch::new(vec![rec(1, 0, 10.0), rec(1, 10, 20.0)]);
        let col = ColumnarBatch::from_records(&batch, 5);
        assert_eq!(col.total_points(), 3);
        let report = validate_columnar(&col, &DataProfile::standard(5), 10);
        assert!(report.is_clean());
        assert_eq!(report.rows, 2);
    }

    #[test]
    fn columnar_invalid_window_reported_per_server() {
        let mut bad = rec(3, 0, 1.0);
        bad.default_backup_end = bad.default_backup_start;
        let mut bad2 = rec(3, 5, 2.0);
        bad2.default_backup_end = bad2.default_backup_start;
        let batch = RecordBatch::new(vec![bad, bad2]);
        let report = validate_columnar(
            &ColumnarBatch::from_records(&batch, 5),
            &DataProfile::standard(5),
            10,
        );
        // One block, one window anomaly — not one per row.
        assert_eq!(
            report
                .anomalies
                .iter()
                .filter(|a| matches!(a, Anomaly::InvalidBackupWindow { server_id: 3 }))
                .count(),
            1
        );
    }

    /// `validate_columnar` as it was: every sample through every branch.
    fn validate_columnar_reference(
        batch: &ColumnarBatch,
        profile: &DataProfile,
        max_reports: usize,
    ) -> ValidationReport {
        let mut report = ValidationReport::default();
        if batch.blocks().is_empty() {
            report.anomalies.push(Anomaly::EmptyInput);
            return report;
        }
        let mut bound_hits = 0usize;
        let mut window_hits = 0usize;
        let mut nonfinite_hits = 0usize;
        let mut servers: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let (lo, hi) = (profile.min_load, profile.max_load);
        for block in batch.blocks() {
            servers.insert(block.server_id.0);
            if block.default_backup_end <= block.default_backup_start {
                window_hits += 1;
                if window_hits <= max_reports {
                    report.anomalies.push(Anomaly::InvalidBackupWindow {
                        server_id: block.server_id.0,
                    });
                }
            }
            for (i, &v) in batch.block_values(block).iter().enumerate() {
                if v.is_nan() {
                    continue;
                }
                report.rows += 1;
                if !v.is_finite() {
                    nonfinite_hits += 1;
                    if nonfinite_hits <= max_reports {
                        report.anomalies.push(Anomaly::NonFiniteValue {
                            server_id: block.server_id.0,
                            timestamp_min: block.timestamp_at(i),
                        });
                    }
                } else if v < lo || v > hi {
                    bound_hits += 1;
                    if bound_hits <= max_reports {
                        report.anomalies.push(Anomaly::BoundViolation {
                            server_id: block.server_id.0,
                            timestamp_min: block.timestamp_at(i),
                            value: v,
                        });
                    }
                }
            }
        }
        report.servers = servers.len();
        report
    }

    /// A decoded batch holding exactly `blocks` (backup window, then values):
    /// the wire format written by hand, because `from_records` quantizes and
    /// the values here must arrive to the bit. A block whose every value is
    /// a positive `k / 100` (`k` up to 65,534) or the canonical NaN is written
    /// narrow, as the `k`s (`0xFFFF` for NaN); any other wide, as `f64` bits.
    fn forged_batch(blocks: &[((i64, i64), Vec<f64>)]) -> ColumnarBatch {
        use seagull_telemetry::columnar::{COLUMNAR_MAGIC, COLUMNAR_VERSION};
        use seagull_telemetry::frame;
        let hundredths = |v: f64| {
            let k = (v * 100.0).round();
            if v.to_bits() == f64::NAN.to_bits() {
                Some(u16::MAX)
            } else {
                (v.is_sign_positive()
                    && (0.0..=65_534.0).contains(&k)
                    && (f64::from(k as u16) / 100.0).to_bits() == v.to_bits())
                .then_some(k as u16)
            }
        };
        let narrow: Vec<Option<Vec<u16>>> = blocks
            .iter()
            .map(|(_, values)| values.iter().map(|&v| hundredths(v)).collect())
            .collect();
        let mut blob = frame::header(COLUMNAR_MAGIC, COLUMNAR_VERSION).to_vec();
        blob.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
        for (i, ((backup_start, backup_end), values)) in blocks.iter().enumerate() {
            blob.extend_from_slice(&(i as u64 + 1).to_le_bytes());
            blob.extend_from_slice(&backup_start.to_le_bytes());
            blob.extend_from_slice(&backup_end.to_le_bytes());
            blob.extend_from_slice(&(1440 * i as i64).to_le_bytes());
            blob.extend_from_slice(&5u32.to_le_bytes());
            blob.extend_from_slice(&(values.len() as u32).to_le_bytes());
            blob.push(if narrow[i].is_some() { 2 } else { 8 });
        }
        for ((_, values), narrow) in blocks.iter().zip(&narrow) {
            match narrow {
                Some(ks) => ks
                    .iter()
                    .for_each(|k| blob.extend_from_slice(&k.to_le_bytes())),
                None => values
                    .iter()
                    .for_each(|v| blob.extend_from_slice(&v.to_le_bytes())),
            }
        }
        ColumnarBatch::decode(&frame::seal(blob)).expect("well-formed blob")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The branch-free scan reports what the per-sample loop reported —
        /// same rows, same servers, same anomalies in the same order — on
        /// blocks mixing missing buckets, ±∞, −0.0, values at and one ulp
        /// outside both bounds, clean blocks between dirty ones, inverted
        /// backup windows and every cap.
        #[test]
        fn columnar_scan_matches_the_per_sample_loop(
            blocks in proptest::collection::vec(
                (
                    any::<bool>(),
                    any::<bool>(),
                    proptest::collection::vec((0u8..14, 0.0f64..100.0), 0..40),
                ),
                1..6,
            ),
            max_reports in prop_oneof![Just(0usize), Just(1), Just(20)],
        ) {
            let profile = DataProfile::standard(5);
            let (lo, hi) = (profile.min_load, profile.max_load);
            let blocks: Vec<((i64, i64), Vec<f64>)> = blocks
                .into_iter()
                .map(|(clean, inverted, samples)| {
                    let values = samples.into_iter().map(|(kind, load)| match kind {
                        0 => f64::NAN,
                        1 => -0.0,
                        2 => lo,
                        3 => hi,
                        4 if !clean => f64::INFINITY,
                        5 if !clean => f64::NEG_INFINITY,
                        6 if !clean => lo.next_down(),
                        7 if !clean => hi.next_up(),
                        8 if !clean => load * 3.0 - 100.0,
                        _ => load,
                    });
                    (if inverted { (60, 60) } else { (0, 60) }, values.collect())
                })
                .collect();
            let batch = forged_batch(&blocks);
            prop_assert_eq!(
                validate_columnar(&batch, &profile, max_reports),
                validate_columnar_reference(&batch, &profile, max_reports)
            );
        }
    }

    #[test]
    fn missing_data_per_server() {
        let dense = ExtractedServer {
            id: ServerId(1),
            series: TimeSeries::new(Timestamp::EPOCH, 5, vec![1.0, 2.0, 3.0, 4.0]).unwrap(),
            default_backup_start: Timestamp::EPOCH,
            default_backup_end: Timestamp::EPOCH + 60,
        };
        let sparse = ExtractedServer {
            id: ServerId(2),
            series: TimeSeries::new(Timestamp::EPOCH, 5, vec![1.0, f64::NAN, f64::NAN, f64::NAN])
                .unwrap(),
            default_backup_start: Timestamp::EPOCH,
            default_backup_end: Timestamp::EPOCH + 60,
        };
        let profile = DataProfile::standard(5);
        assert_eq!(validate_server(&dense, &profile), None);
        assert!(matches!(
            validate_server(&sparse, &profile),
            Some(Anomaly::ExcessiveMissingData { server_id: 2, .. })
        ));
    }
}
