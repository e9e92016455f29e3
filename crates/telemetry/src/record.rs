//! Raw telemetry records and the CSV codec.
//!
//! The paper's per-region input files "are in csv format. They contain server
//! identifier, timestamp in minutes, average user CPU load percentage per
//! five minutes, default backup start and end timestamps" (Section 5.3.1).
//! [`LoadRecord`] is that row; [`RecordBatch`] encodes/decodes a blob of them.
//!
//! The pipeline does not read CSV: extraction writes the `SGCB` blob of
//! [`crate::columnar`], built from the same rows. The codec stays as the
//! paper's text form of a region-week and as the reference [`csv_quantized`]
//! and the columnar codec are checked against.

use crate::blobstore::Blob;
use crate::server::ServerId;
use serde::Serialize;
use std::fmt::Write as _;

/// One telemetry row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LoadRecord {
    /// Server the sample belongs to.
    pub server_id: ServerId,
    /// Timestamp in minutes since the epoch.
    pub timestamp_min: i64,
    /// Average user CPU load percentage over the grid bucket.
    pub avg_cpu: f64,
    /// Default backup window start (minutes since epoch) on the server's
    /// next backup day.
    pub default_backup_start: i64,
    /// Default backup window end (minutes since epoch).
    pub default_backup_end: i64,
}

/// The canonical CSV header.
pub const CSV_HEADER: &str =
    "server_id,timestamp_min,avg_cpu_5min,default_backup_start,default_backup_end";

/// A decoded batch of rows plus helpers to move between rows and blobs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecordBatch {
    /// The rows, in file order.
    pub records: Vec<LoadRecord>,
}

/// A CSV parse failure with its line number (1-based, counting the header).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvError {
    /// 1-based line number of the offending row (0 for whole-blob errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "csv parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CsvError {}

impl RecordBatch {
    /// Wraps rows in a batch.
    pub fn new(records: Vec<LoadRecord>) -> RecordBatch {
        RecordBatch { records }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Encodes the batch as a CSV blob (header + one line per record).
    pub fn to_csv(&self) -> Blob {
        // ~48 bytes per row is a good initial estimate for this schema.
        let mut out = String::with_capacity(CSV_HEADER.len() + 1 + self.records.len() * 48);
        out.push_str(CSV_HEADER);
        out.push('\n');
        for r in &self.records {
            // Loads are percentages; two decimals keeps blobs compact without
            // observable metric impact (grid values are already averaged).
            let _ = writeln!(
                out,
                "{},{},{:.2},{},{}",
                r.server_id.0,
                r.timestamp_min,
                r.avg_cpu,
                r.default_backup_start,
                r.default_backup_end
            );
        }
        Blob::from(out.into_bytes())
    }

    /// Decodes a CSV blob produced by [`RecordBatch::to_csv`]. The header is
    /// verified so schema drift is caught at the boundary (the Data
    /// Validation module re-checks semantics downstream).
    pub fn from_csv(blob: &[u8]) -> Result<RecordBatch, CsvError> {
        let text = std::str::from_utf8(blob).map_err(|e| CsvError {
            line: 0,
            message: format!("not utf-8: {e}"),
        })?;
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, header)) if header.trim() == CSV_HEADER => {}
            Some((_, header)) => {
                return Err(CsvError {
                    line: 1,
                    message: format!("unexpected header {header:?}"),
                })
            }
            None => {
                return Err(CsvError {
                    line: 1,
                    message: "empty blob".into(),
                })
            }
        }
        let mut records = Vec::new();
        for (idx, line) in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut fields = line.split(',');
            let mut next = |name: &str| {
                fields.next().ok_or(CsvError {
                    line: idx + 1,
                    message: format!("missing field {name}"),
                })
            };
            let server_id: u64 = parse(next("server_id")?, idx + 1)?;
            let timestamp_min: i64 = parse(next("timestamp_min")?, idx + 1)?;
            let avg_cpu: f64 = parse(next("avg_cpu_5min")?, idx + 1)?;
            let start: i64 = parse(next("default_backup_start")?, idx + 1)?;
            let end: i64 = parse(next("default_backup_end")?, idx + 1)?;
            if fields.next().is_some() {
                return Err(CsvError {
                    line: idx + 1,
                    message: "too many fields".into(),
                });
            }
            records.push(LoadRecord {
                server_id: ServerId(server_id),
                timestamp_min,
                avg_cpu,
                default_backup_start: start,
                default_backup_end: end,
            });
        }
        Ok(RecordBatch { records })
    }
}

fn parse<T: std::str::FromStr>(s: &str, line: usize) -> Result<T, CsvError>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| CsvError {
        line,
        message: format!("bad value {s:?}: {e}"),
    })
}

/// The value a load takes after a round trip through
/// [`RecordBatch::to_csv`] / [`RecordBatch::from_csv`] (two-decimal fixed
/// formatting). The columnar codec applies the same quantization at encode
/// time, so a load reads the same bits from a blob as from the CSV text.
///
/// Loads take the arithmetic path: the rounded product `|v|·100` is within
/// 1e-8 of the exact one below 1e6, so unless it sits within 1e-6 of a
/// half it rounds to the hundredth the formatter picks, and dividing that
/// integer by 100 is the same correctly rounded double the parser returns.
/// Near-ties and large values take the round trip itself.
#[inline]
pub fn csv_quantized(v: f64) -> f64 {
    match csv_hundredths(v) {
        (hundredths, true) => (hundredths / 100.0).copysign(v),
        _ => csv_round_trip(v),
    }
}

/// [`csv_quantized`]'s arithmetic path without its branch: `|v|·100` rounded
/// to an integer, and whether `v` may take the path (never for NaN), for a
/// caller that decides for several loads at once. On the path the load is
/// `(hundredths / 100).copysign(v)`.
///
/// The nearest integer comes from adding and subtracting 2⁵² (exact below
/// it, ties to even) because baseline x86-64 has no rounding instruction and
/// `f64::round` is a libm call per sample; an exact tie is 0.5 away whichever
/// way it went, so the guard hands it to the formatter as it would `round`'s.
#[inline]
pub(crate) fn csv_hundredths(v: f64) -> (f64, bool) {
    const TWO_POW_52: f64 = 4_503_599_627_370_496.0;
    let scaled = v.abs() * 100.0;
    let hundredths = (scaled + TWO_POW_52) - TWO_POW_52;
    let settled = (scaled < 1e8) & ((scaled - hundredths).abs() < 0.5 - 1e-6);
    (hundredths, settled)
}

/// [`csv_quantized`] off its arithmetic path: the format-and-parse round trip.
#[cold]
fn csv_round_trip(v: f64) -> f64 {
    if !v.is_finite() {
        return v;
    }
    format!("{v:.2}").parse().expect("fixed-format float")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> RecordBatch {
        RecordBatch::new(vec![
            LoadRecord {
                server_id: ServerId(1),
                timestamp_min: 100,
                avg_cpu: 12.34,
                default_backup_start: 5000,
                default_backup_end: 5060,
            },
            LoadRecord {
                server_id: ServerId(2),
                timestamp_min: 105,
                avg_cpu: 0.0,
                default_backup_start: 6000,
                default_backup_end: 6120,
            },
        ])
    }

    #[test]
    fn round_trip() {
        let batch = sample();
        let blob = batch.to_csv();
        let back = RecordBatch::from_csv(&blob).unwrap();
        assert_eq!(back, batch);
    }

    #[test]
    fn empty_batch_round_trips() {
        let blob = RecordBatch::default().to_csv();
        let back = RecordBatch::from_csv(&blob).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn header_verified() {
        let err = RecordBatch::from_csv(b"wrong,header\n1,2,3,4,5\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(RecordBatch::from_csv(b"").is_err());
    }

    #[test]
    fn bad_field_reported_with_line() {
        let blob = format!("{CSV_HEADER}\n1,100,not_a_number,0,0\n");
        let err = RecordBatch::from_csv(blob.as_bytes()).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("not_a_number"));
    }

    #[test]
    fn field_count_enforced() {
        let short = format!("{CSV_HEADER}\n1,100,2.0,0\n");
        assert!(RecordBatch::from_csv(short.as_bytes()).is_err());
        let long = format!("{CSV_HEADER}\n1,100,2.0,0,0,99\n");
        assert!(RecordBatch::from_csv(long.as_bytes()).is_err());
    }

    #[test]
    fn blank_lines_skipped() {
        let blob = format!("{CSV_HEADER}\n\n1,100,2.00,0,60\n\n");
        let back = RecordBatch::from_csv(blob.as_bytes()).unwrap();
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn non_utf8_rejected() {
        assert!(RecordBatch::from_csv(&[0xff, 0xfe, 0x00]).is_err());
    }

    /// `csv_quantized` as it was: always through the formatter and the
    /// parser, which is what a CSV blob does to a load.
    fn csv_quantized_reference(v: f64) -> f64 {
        if !v.is_finite() {
            return v;
        }
        format!("{v:.2}").parse().expect("fixed-format float")
    }

    fn assert_quantizes_like_csv(v: f64) {
        let (got, want) = (csv_quantized(v), csv_quantized_reference(v));
        assert_eq!(got.to_bits(), want.to_bits(), "{v:e}: {got:e} vs {want:e}");
    }

    #[test]
    fn quantization_edge_cases_match_the_csv_round_trip() {
        for v in [
            0.0,
            -0.0,
            -0.001,
            0.005,
            0.015,
            0.125,
            // Exact ties where ties-to-even and `round` pick different
            // integers (62.5 → 62 against 63): the guard must refuse both.
            0.625,
            1.125,
            2.125,
            2.675,
            99.995,
            100.0,
            999_999.994_999,
            999_999.995,
            1e6,
            1e8,
            1e15,
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_quantizes_like_csv(v);
            assert_quantizes_like_csv(-v);
        }
        assert!(csv_quantized(f64::NAN).is_nan());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The arithmetic path and its fallback return the bits of the
        /// format-and-parse round trip on loads, on the x.xx5 ties the
        /// formatter rounds by exact binary value, on every bit pattern, and
        /// either side of the 1e6 cut-over.
        #[test]
        fn quantization_matches_the_csv_round_trip(
            load in 0.0f64..100.0,
            thousandths in 0u64..2_000_000_000,
            nudge in -4i64..=4,
            bits in any::<u64>(),
            large in 1e5f64..1e9,
        ) {
            // k.xx5 as the nearest double, and its neighbours a few ulps off.
            let tie = (thousandths / 10 * 10 + 5) as f64 / 1000.0;
            let near_tie = f64::from_bits((tie.to_bits() as i64 + nudge) as u64);
            let any_bits = f64::from_bits(bits);
            for v in [load, tie, near_tie, large] {
                assert_quantizes_like_csv(v);
                assert_quantizes_like_csv(-v);
            }
            if any_bits.is_nan() {
                prop_assert!(csv_quantized(any_bits).is_nan());
            } else {
                assert_quantizes_like_csv(any_bits);
            }
        }
    }
}
