//! The Load Extraction module.
//!
//! "Load Extraction Module is implemented as a recurring query that extracts
//! relevant data from raw production telemetry and stores this data in Azure
//! Data Lake Store. These files are input to the AML pipeline. ... the load
//! extraction query runs once a week per region" (Section 2.2).
//!
//! Here the "raw production telemetry" is the simulated fleet; the recurring
//! query reduces one week of one region to a blob in the [`BlobStore`] — CSV
//! or columnar, per [`LoadExtraction::format`] — and [`RegionWeekBatch::decode`]
//! sniffs a blob's format by its magic bytes; [`RegionWeekBatch::extract`]
//! turns it back into per-server series for the pipeline.

use crate::blobstore::{BlobKey, BlobStore};
use crate::columnar::{self, ColumnarBatch, ColumnarError, SampleRun, COLUMNAR_MAGIC};
use crate::fleet::ServerTelemetry;
use crate::frame;
use crate::record::{CsvError, LoadRecord, RecordBatch};
use crate::server::ServerId;
use seagull_timeseries::{DayOfWeek, TimeSeries, Timestamp};
use std::collections::BTreeMap;
use std::fmt;
use std::io;

/// The on-disk encoding of an extracted region-week blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlobFormat {
    /// The paper's row-per-sample text format — slow but inspectable.
    #[default]
    Csv,
    /// The checksummed binary format of [`crate::columnar`] — decodes into
    /// zero-copy series views.
    Columnar,
}

/// Extraction configuration.
#[derive(Debug, Clone, Copy)]
pub struct LoadExtraction {
    /// Telemetry grid in minutes.
    pub grid_min: u32,
    /// Blob encoding written by [`LoadExtraction::run`].
    pub format: BlobFormat,
}

impl Default for LoadExtraction {
    fn default() -> Self {
        LoadExtraction {
            grid_min: 5,
            format: BlobFormat::Csv,
        }
    }
}

impl LoadExtraction {
    /// CSV extraction on the given grid.
    pub fn csv(grid_min: u32) -> LoadExtraction {
        LoadExtraction {
            grid_min,
            format: BlobFormat::Csv,
        }
    }

    /// Columnar extraction on the given grid.
    pub fn columnar(grid_min: u32) -> LoadExtraction {
        LoadExtraction {
            grid_min,
            format: BlobFormat::Columnar,
        }
    }
}

/// One server's extracted week, as consumed by the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractedServer {
    /// Server the series belongs to.
    pub id: ServerId,
    /// The week's load on the grid; missing buckets are NaN.
    pub series: TimeSeries,
    /// Default backup window start for the server's next backup day.
    pub default_backup_start: Timestamp,
    /// Default backup window end.
    pub default_backup_end: Timestamp,
}

/// The samples each server of `region` has inside the week starting on
/// `week_start_day`, in fleet order: what both blob encodings are built from.
fn week_runs<'a>(
    fleet: &'a [ServerTelemetry],
    region: &'a str,
    week_start_day: i64,
) -> impl Iterator<Item = SampleRun<'a>> {
    let from = Timestamp::from_days(week_start_day);
    let to = Timestamp::from_days(week_start_day + 7);
    fleet
        .iter()
        .filter(move |s| s.meta.region == region)
        .filter_map(move |server| {
            // Default backup window on the server's next backup day in/after
            // this week.
            let backup_day = (0..7)
                .map(|o| week_start_day + o)
                .find(|&d| {
                    DayOfWeek::from_day_index(d).index()
                        == server.meta.backup.backup_weekday as usize
                })
                .expect("every weekday occurs within a week");
            let (bstart, bend) = server.meta.backup.default_window_on(backup_day);

            let lo = server.series.start().max(from);
            let hi = server.series.end().min(to);
            if lo >= hi {
                return None;
            }
            Some(SampleRun {
                server_id: server.meta.id,
                start_min: lo.minutes(),
                values: server
                    .series
                    .slice_values(lo, hi)
                    .expect("range intersected with coverage"),
                default_backup_start: bstart.minutes(),
                default_backup_end: bend.minutes(),
            })
        })
}

impl LoadExtraction {
    /// Builds the record batch for one region-week from fleet telemetry.
    ///
    /// `week_start_day` is the first day of the week (any day index). Only
    /// servers in `region` with data inside the week are emitted.
    pub fn extract_week(
        &self,
        fleet: &[ServerTelemetry],
        region: &str,
        week_start_day: i64,
    ) -> RecordBatch {
        let mut records = Vec::new();
        for run in week_runs(fleet, region, week_start_day) {
            for (i, &v) in run.values.iter().enumerate() {
                if v.is_nan() {
                    continue; // Missing raw buckets simply produce no row.
                }
                records.push(LoadRecord {
                    server_id: run.server_id,
                    timestamp_min: run.start_min + i as i64 * self.grid_min as i64,
                    avg_cpu: v,
                    default_backup_start: run.default_backup_start,
                    default_backup_end: run.default_backup_end,
                });
            }
        }
        RecordBatch::new(records)
    }

    /// Runs the recurring query: one blob per region per week, written to the
    /// store under [`BlobKey::extracted`] with `week` set to the week's first
    /// day index. Returns the keys written.
    ///
    /// A columnar blob is written from the fleet's series directly
    /// (`columnar::encode_runs`): the same bytes as
    /// `ColumnarBatch::from_records(&self.extract_week(..)).encode()`, without
    /// a 40-byte row per sample or a batch in between.
    pub fn run(
        &self,
        fleet: &[ServerTelemetry],
        regions: &[String],
        week_start_days: &[i64],
        store: &dyn BlobStore,
    ) -> io::Result<Vec<BlobKey>> {
        let mut keys = Vec::new();
        for region in regions {
            for &week in week_start_days {
                let key = BlobKey::extracted(region, week);
                let blob = match self.format {
                    BlobFormat::Csv => self.extract_week(fleet, region, week).to_csv(),
                    BlobFormat::Columnar => {
                        columnar::encode_runs(week_runs(fleet, region, week), self.grid_min)
                    }
                };
                store.put(&key, blob)?;
                keys.push(key);
            }
        }
        Ok(keys)
    }
}

/// A decode failure for a region-week blob, tagged by format.
#[derive(Debug, Clone, PartialEq)]
pub enum RegionWeekError {
    /// The blob sniffed as CSV and failed to parse.
    Csv(CsvError),
    /// The blob sniffed as columnar and failed to decode.
    Columnar(ColumnarError),
}

impl fmt::Display for RegionWeekError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionWeekError::Csv(e) => write!(f, "{e}"),
            RegionWeekError::Columnar(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RegionWeekError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegionWeekError::Csv(e) => Some(e),
            RegionWeekError::Columnar(e) => Some(e),
        }
    }
}

impl From<CsvError> for RegionWeekError {
    fn from(e: CsvError) -> Self {
        RegionWeekError::Csv(e)
    }
}

impl From<ColumnarError> for RegionWeekError {
    fn from(e: ColumnarError) -> Self {
        RegionWeekError::Columnar(e)
    }
}

/// A region-week blob decoded into whichever representation it was stored as.
///
/// Keeping both variants (rather than eagerly converting to rows) lets the
/// validation module inspect the columnar block table directly and lets
/// [`RegionWeekBatch::extract`] hand out zero-copy series views for the
/// columnar case.
#[derive(Debug, Clone, PartialEq)]
pub enum RegionWeekBatch {
    /// Decoded CSV rows.
    Csv(RecordBatch),
    /// Decoded columnar batch (zero-copy series views).
    Columnar(ColumnarBatch),
}

impl RegionWeekBatch {
    /// Decodes a blob, sniffing the format by its magic bytes. Anything that
    /// does not start with the columnar magic is treated as CSV.
    pub fn decode(blob: &[u8]) -> Result<RegionWeekBatch, RegionWeekError> {
        if frame::has_magic(blob, COLUMNAR_MAGIC) {
            Ok(RegionWeekBatch::Columnar(ColumnarBatch::decode(blob)?))
        } else {
            Ok(RegionWeekBatch::Csv(RecordBatch::from_csv(blob)?))
        }
    }

    /// The format this blob was stored as.
    pub fn format(&self) -> BlobFormat {
        match self {
            RegionWeekBatch::Csv(_) => BlobFormat::Csv,
            RegionWeekBatch::Columnar(_) => BlobFormat::Columnar,
        }
    }

    /// Number of decoded rows (CSV) or present samples (columnar).
    pub fn rows(&self) -> usize {
        match self {
            RegionWeekBatch::Csv(batch) => batch.len(),
            RegionWeekBatch::Columnar(batch) => {
                batch.values().iter().filter(|v| !v.is_nan()).count()
            }
        }
    }

    /// Reassembles per-server series. CSV rows are re-gridded; columnar
    /// blocks become views into the shared decode buffer without copying.
    pub fn extract(&self, grid_min: u32) -> Vec<ExtractedServer> {
        match self {
            RegionWeekBatch::Csv(batch) => parse_record_rows(batch, grid_min),
            RegionWeekBatch::Columnar(batch) => batch.extract(),
        }
    }
}

/// Reassembles per-server series from decoded CSV rows.
///
/// Rows may arrive in any order; buckets absent from the batch become NaN
/// (missing) so the validation module can count them. Rows that do not lie on
/// the grid are dropped (production telemetry contains stragglers).
pub fn parse_record_rows(batch: &RecordBatch, grid_min: u32) -> Vec<ExtractedServer> {
    struct Acc {
        min_ts: i64,
        max_ts: i64,
        points: Vec<(i64, f64)>,
        backup_start: i64,
        backup_end: i64,
    }
    let mut by_server: BTreeMap<ServerId, Acc> = BTreeMap::new();
    let step = grid_min as i64;
    for r in &batch.records {
        if r.timestamp_min.rem_euclid(step) != 0 {
            continue;
        }
        let acc = by_server.entry(r.server_id).or_insert_with(|| Acc {
            min_ts: r.timestamp_min,
            max_ts: r.timestamp_min,
            points: Vec::new(),
            backup_start: r.default_backup_start,
            backup_end: r.default_backup_end,
        });
        acc.min_ts = acc.min_ts.min(r.timestamp_min);
        acc.max_ts = acc.max_ts.max(r.timestamp_min);
        acc.points.push((r.timestamp_min, r.avg_cpu));
    }
    by_server
        .into_iter()
        .map(|(id, acc)| {
            let n = ((acc.max_ts - acc.min_ts) / step) as usize + 1;
            let mut values = vec![f64::NAN; n];
            for (ts, v) in acc.points {
                values[((ts - acc.min_ts) / step) as usize] = v;
            }
            let series = TimeSeries::new(Timestamp::from_minutes(acc.min_ts), grid_min, values)
                .expect("grid-aligned rows");
            ExtractedServer {
                id,
                series,
                default_backup_start: Timestamp::from_minutes(acc.backup_start),
                default_backup_end: Timestamp::from_minutes(acc.backup_end),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blobstore::MemoryBlobStore;
    use crate::fleet::{FleetGenerator, FleetSpec};

    fn small_fleet() -> (Vec<ServerTelemetry>, i64) {
        let mut spec = FleetSpec::small_region(77);
        spec.regions[0].servers = 20;
        let start = spec.start_day;
        (FleetGenerator::new(spec).generate_weeks(1), start)
    }

    #[test]
    fn extract_then_parse_round_trips_series() {
        let (fleet, start) = small_fleet();
        let ex = LoadExtraction::default();
        let batch = ex.extract_week(&fleet, "region-a", start);
        assert!(!batch.is_empty());
        let servers = parse_record_rows(&batch, 5);
        // Every long-lived generated server appears with its full week.
        for s in &fleet {
            if s.series.is_empty() {
                continue;
            }
            let got = servers.iter().find(|e| e.id == s.meta.id);
            let got = got.unwrap_or_else(|| panic!("server {} missing", s.meta.id));
            // Values round-trip through the two-decimal CSV encoding.
            let lo = got.series.start();
            let expected = s.series.slice_values(lo, got.series.end()).unwrap();
            for (a, b) in got.series.values().iter().zip(expected) {
                assert!((a - b).abs() <= 0.005 + 1e-9, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn backup_window_lands_on_configured_weekday() {
        let (fleet, start) = small_fleet();
        let ex = LoadExtraction::default();
        let batch = ex.extract_week(&fleet, "region-a", start);
        let servers = parse_record_rows(&batch, 5);
        for e in &servers {
            let meta = &fleet.iter().find(|s| s.meta.id == e.id).unwrap().meta;
            let day = e.default_backup_start.day_index();
            assert_eq!(
                DayOfWeek::from_day_index(day).index(),
                meta.backup.backup_weekday as usize
            );
            assert!(day >= start && day < start + 7);
            assert_eq!(
                e.default_backup_end - e.default_backup_start,
                meta.backup.duration_min as i64
            );
        }
    }

    #[test]
    fn run_writes_one_blob_per_region_week() {
        let (fleet, start) = small_fleet();
        let store = MemoryBlobStore::new();
        let ex = LoadExtraction::default();
        let keys = ex
            .run(
                &fleet,
                &["region-a".to_string(), "ghost".to_string()],
                &[start],
                &store,
            )
            .unwrap();
        assert_eq!(keys.len(), 2);
        assert!(store.size(&BlobKey::extracted("region-a", start)).unwrap() > 0);
        // Unknown region still yields a (header-only) blob.
        let ghost = store.get(&BlobKey::extracted("ghost", start)).unwrap();
        let parsed = RecordBatch::from_csv(&ghost).unwrap();
        assert!(parsed.is_empty());
    }

    #[test]
    fn off_grid_rows_dropped_and_gaps_marked() {
        use crate::record::LoadRecord;
        let batch = RecordBatch::new(vec![
            LoadRecord {
                server_id: ServerId(9),
                timestamp_min: 0,
                avg_cpu: 1.0,
                default_backup_start: 0,
                default_backup_end: 60,
            },
            LoadRecord {
                server_id: ServerId(9),
                timestamp_min: 3, // off-grid straggler
                avg_cpu: 99.0,
                default_backup_start: 0,
                default_backup_end: 60,
            },
            LoadRecord {
                server_id: ServerId(9),
                timestamp_min: 10,
                avg_cpu: 2.0,
                default_backup_start: 0,
                default_backup_end: 60,
            },
        ]);
        let servers = parse_record_rows(&batch, 5);
        assert_eq!(servers.len(), 1);
        let s = &servers[0].series;
        assert_eq!(s.len(), 3);
        assert_eq!(s.values()[0], 1.0);
        assert!(s.values()[1].is_nan());
        assert_eq!(s.values()[2], 2.0);
    }

    #[test]
    fn unsorted_rows_are_handled() {
        use crate::record::LoadRecord;
        let mk = |ts, v| LoadRecord {
            server_id: ServerId(1),
            timestamp_min: ts,
            avg_cpu: v,
            default_backup_start: 0,
            default_backup_end: 60,
        };
        let batch = RecordBatch::new(vec![mk(10, 3.0), mk(0, 1.0), mk(5, 2.0)]);
        let servers = parse_record_rows(&batch, 5);
        assert_eq!(servers[0].series.values(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn columnar_run_round_trips_through_sniffing_parse() {
        let (fleet, start) = small_fleet();
        let store = MemoryBlobStore::new();
        let csv_keys = LoadExtraction::csv(5)
            .run(&fleet, &["region-a".to_string()], &[start], &store)
            .unwrap();
        let csv_blob = store.get(&csv_keys[0]).unwrap();

        let col_store = MemoryBlobStore::new();
        let col_keys = LoadExtraction::columnar(5)
            .run(&fleet, &["region-a".to_string()], &[start], &col_store)
            .unwrap();
        let col_blob = col_store.get(&col_keys[0]).unwrap();

        assert!(frame::has_magic(&col_blob, COLUMNAR_MAGIC));
        assert!(!frame::has_magic(&csv_blob, COLUMNAR_MAGIC));
        assert!(col_blob.len() < csv_blob.len(), "columnar should be denser");

        let from_csv = RegionWeekBatch::decode(&csv_blob).unwrap().extract(5);
        let from_col = RegionWeekBatch::decode(&col_blob).unwrap().extract(5);
        assert_eq!(from_csv, from_col);
    }

    #[test]
    fn columnar_run_writes_the_blob_of_the_rows() {
        // Three weeks of a fleet with short-lived servers, the last week past
        // the end of every series.
        let mut spec = FleetSpec::small_region(78);
        spec.regions[0].servers = 40;
        let start = spec.start_day;
        let fleet = FleetGenerator::new(spec).generate_weeks(2);
        let ex = LoadExtraction::columnar(5);
        let store = MemoryBlobStore::new();
        let weeks = [start, start + 7, start + 14];
        let keys = ex
            .run(&fleet, &["region-a".to_string()], &weeks, &store)
            .unwrap();
        for (key, week) in keys.iter().zip(weeks) {
            let rows = ex.extract_week(&fleet, "region-a", week);
            assert_eq!(rows.is_empty(), week == start + 14);
            let by_rows = ColumnarBatch::from_records(&rows, 5).encode();
            assert_eq!(store.get(key).unwrap(), by_rows, "week {week}");
        }
    }

    #[test]
    fn columnar_extract_shares_one_decode_buffer() {
        let (fleet, start) = small_fleet();
        let blob = ColumnarBatch::from_records(
            &LoadExtraction::csv(5).extract_week(&fleet, "region-a", start),
            5,
        )
        .encode();
        let decoded = match RegionWeekBatch::decode(&blob).unwrap() {
            RegionWeekBatch::Columnar(batch) => batch,
            other => panic!("expected columnar, got {:?}", other.format()),
        };
        let servers = decoded.extract();
        assert!(servers.len() > 1);
        for s in &servers {
            assert!(std::sync::Arc::ptr_eq(s.series.storage(), decoded.values()));
        }
    }

    #[test]
    fn decode_errors_carry_format() {
        let torn = {
            let blob = ColumnarBatch::from_records(&RecordBatch::default(), 5).encode();
            blob.slice(0..blob.len() - 1)
        };
        match RegionWeekBatch::decode(&torn) {
            Err(RegionWeekError::Columnar(_)) => {}
            other => panic!("expected columnar error, got {other:?}"),
        }
        match RegionWeekBatch::decode(b"not,a,known,header\n") {
            Err(RegionWeekError::Csv(_)) => {}
            other => panic!("expected csv error, got {other:?}"),
        }
    }
}
