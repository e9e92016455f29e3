//! The Load Extraction module.
//!
//! "Load Extraction Module is implemented as a recurring query that extracts
//! relevant data from raw production telemetry and stores this data in Azure
//! Data Lake Store. These files are input to the AML pipeline. ... the load
//! extraction query runs once a week per region" (Section 2.2).
//!
//! Here the "raw production telemetry" is the simulated fleet; the recurring
//! query, [`LoadExtraction::run`], reduces one week of one region to one
//! `SGCB` blob ([`crate::columnar`]) in the [`BlobStore`], and
//! [`ColumnarBatch::decode`] + [`ColumnarBatch::extract`] turn it back into
//! per-server series for the pipeline. [`LoadExtraction::extract_week`]
//! spells the same week as the paper's CSV rows ([`crate::record`]); the
//! pipeline never reads them.

use crate::blobstore::{BlobKey, BlobStore};
use crate::columnar::{self, ColumnarBatch, SampleRun};
use crate::fleet::ServerTelemetry;
use crate::record::{LoadRecord, RecordBatch};
use crate::server::{weekday_in_week, ServerId};
use seagull_timeseries::{TimeSeries, Timestamp};
use std::io;

/// Extraction configuration.
#[derive(Debug, Clone, Copy)]
pub struct LoadExtraction {
    /// Telemetry grid in minutes.
    pub grid_min: u32,
}

/// A decoded region-week blob. Kept only because the benchmark harness
/// (`e2e/src/layers.rs`) still names it; everything in the workspace names
/// [`ColumnarBatch`], and the alias goes once that file does too.
pub type RegionWeekBatch = ColumnarBatch;

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

impl ExtractedServer {
    /// The server's backup day in the week starting on `week_start_day`.
    /// The blob carries only the default window of one backup day, and the
    /// backup recurs on that day's weekday every week.
    pub fn backup_day(&self, week_start_day: i64) -> i64 {
        let weekday = self.default_backup_start.day_of_week().index();
        weekday_in_week(weekday, week_start_day)
    }
}

/// The samples each server of `region` has inside the week starting on
/// `week_start_day`, in fleet order: what both the blob and the CSV rows are
/// built from.
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
            // Default backup window on the server's backup day this week.
            let backup_day = server.meta.backup.day_in_week(week_start_day);
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
    /// Extraction on the given grid.
    pub fn columnar(grid_min: u32) -> LoadExtraction {
        LoadExtraction { grid_min }
    }

    /// Builds the CSV rows of one region-week from fleet telemetry.
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
    /// The blob is written from the fleet's series directly
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
                let blob = columnar::encode_runs(week_runs(fleet, region, week), self.grid_min);
                store.put(&key, blob)?;
                keys.push(key);
            }
        }
        Ok(keys)
    }
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

    /// The region-week as the pipeline reads it: written, read back, decoded.
    fn extracted_week(fleet: &[ServerTelemetry], start: i64) -> Vec<ExtractedServer> {
        let store = MemoryBlobStore::new();
        let keys = LoadExtraction::columnar(5)
            .run(fleet, &["region-a".to_string()], &[start], &store)
            .unwrap();
        ColumnarBatch::decode(&store.get(&keys[0]).unwrap())
            .unwrap()
            .extract(5)
    }

    #[test]
    fn extract_then_parse_round_trips_series() {
        let (fleet, start) = small_fleet();
        let servers = extracted_week(&fleet, start);
        assert!(!servers.is_empty());
        // Every long-lived generated server appears with its full week.
        for s in &fleet {
            if s.series.is_empty() {
                continue;
            }
            let got = servers.iter().find(|e| e.id == s.meta.id);
            let got = got.unwrap_or_else(|| panic!("server {} missing", s.meta.id));
            // Values round-trip through the two-decimal quantization.
            let lo = got.series.start();
            let expected = s.series.slice_values(lo, got.series.end()).unwrap();
            for (a, b) in got.series.values().iter().zip(expected) {
                assert!((a - b).abs() <= 0.005 + 1e-9, "{a} vs {b}");
            }
        }
    }

    /// The blob's default window lies on the server's backup day of the
    /// week, and the extracted server reads the same day back for that week
    /// and every other.
    #[test]
    fn backup_window_lands_on_configured_weekday() {
        let (fleet, start) = small_fleet();
        for e in &extracted_week(&fleet, start) {
            let meta = &fleet.iter().find(|s| s.meta.id == e.id).unwrap().meta;
            let day = e.default_backup_start.day_index();
            assert_eq!(day, meta.backup.day_in_week(start));
            assert_eq!(
                e.default_backup_end - e.default_backup_start,
                meta.backup.duration_min as i64
            );
            for week in start - 9..start + 9 {
                assert_eq!(e.backup_day(week), meta.backup.day_in_week(week));
            }
        }
    }

    #[test]
    fn run_writes_one_blob_per_region_week() {
        let (fleet, start) = small_fleet();
        let store = MemoryBlobStore::new();
        let ex = LoadExtraction::columnar(5);
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
        // Unknown region still yields a (block-less) blob.
        let ghost = store.get(&BlobKey::extracted("ghost", start)).unwrap();
        assert!(ColumnarBatch::decode(&ghost).unwrap().is_empty());
    }

    #[test]
    fn off_grid_rows_dropped_and_gaps_marked() {
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
        let servers = ColumnarBatch::from_records(&batch, 5).extract(5);
        assert_eq!(servers.len(), 1);
        let s = &servers[0].series;
        assert_eq!(s.len(), 3);
        assert_eq!(s.values()[0], 1.0);
        assert!(s.values()[1].is_nan());
        assert_eq!(s.values()[2], 2.0);
    }

    #[test]
    fn unsorted_rows_are_handled() {
        let mk = |ts, v| LoadRecord {
            server_id: ServerId(1),
            timestamp_min: ts,
            avg_cpu: v,
            default_backup_start: 0,
            default_backup_end: 60,
        };
        let batch = RecordBatch::new(vec![mk(10, 3.0), mk(0, 1.0), mk(5, 2.0)]);
        let servers = ColumnarBatch::from_records(&batch, 5).extract(5);
        assert_eq!(servers[0].series.values(), &[1.0, 2.0, 3.0]);
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
            &LoadExtraction::columnar(5).extract_week(&fleet, "region-a", start),
            5,
        )
        .encode();
        let decoded = ColumnarBatch::decode(&blob).unwrap();
        let servers = decoded.extract(5);
        assert!(servers.len() > 1);
        for s in &servers {
            assert!(std::sync::Arc::ptr_eq(s.series.storage(), decoded.values()));
        }
    }
}
