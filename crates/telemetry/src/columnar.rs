//! The columnar region-week blob codec.
//!
//! The CSV codec in [`crate::record`] spells every 5-minute sample as a text
//! row; a 1k-server region-week is ~2M rows, and decoding them dominates the
//! pipeline's ingestion stage. [`ColumnarBatch`] stores the same region-week
//! as a binary blob: a block table describing each server's grid, followed by
//! one contiguous little-endian `f64` column holding every server's values
//! back to back (missing buckets are NaN, as everywhere else), closed by a
//! checksum footer. Decoding is a bounds-checked `memcpy` into **one** shared
//! buffer, and each server's series becomes a zero-copy
//! [`seagull_timeseries::TimeSeries`] view into it.
//!
//! The checksum exists for the failure mode [`crate::chaos::ChaosBlobStore`]
//! injects: a torn read returns a strict prefix of the blob, which for CSV
//! silently parses as a *shorter valid file*. A torn columnar blob fails the
//! checksum and the pipeline retries the read instead of training on
//! truncated series.
//!
//! ## Body layout (version 1, all little-endian, inside a [`crate::frame`])
//!
//! ```text
//! [0..4)    server block count u32
//! ...       block table, 40 bytes per server:
//!             server_id u64, default_backup_start i64,
//!             default_backup_end i64, series_start_min i64,
//!             step_min u32, point count u32
//! ...       value column: every server's points, concatenated, f64 bits
//! ```

use crate::extract::ExtractedServer;
use crate::frame::{self, checksum64, fnv_step, Cursor, FrameError, Overrun};
use crate::record::{csv_quantized, csv_quantized_arith, RecordBatch};
use crate::server::ServerId;
use bytes::Bytes;
use seagull_timeseries::{TimeSeries, Timestamp, MINUTES_PER_DAY};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Leading magic bytes of a columnar region-week blob.
pub const COLUMNAR_MAGIC: [u8; 4] = *b"SGCB";
/// Current wire version.
pub const COLUMNAR_VERSION: u16 = 1;

/// Where the block table starts: after the frame header and the block count.
const TABLE_AT: usize = frame::HEADER_LEN + 4;
const BLOCK_LEN: usize = 40;

/// A decode failure. Every variant means "the blob is not usable as read":
/// the pipeline treats them all as transient (a re-read of a torn blob
/// yields the full bytes), never as silently shorter data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnarError {
    /// The frame did not open: not a columnar blob, torn, or a version this
    /// build does not read.
    Frame(FrameError),
    /// The checksum holds, but the block table and the value column are not
    /// the size the counts declare (a forgery or an encoder bug).
    Malformed(&'static str),
    /// A block table entry describing an impossible grid.
    InvalidBlock {
        /// Server whose block entry is invalid.
        server_id: u64,
    },
}

impl fmt::Display for ColumnarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnarError::Frame(e) => write!(f, "columnar blob: {e}"),
            ColumnarError::Malformed(why) => write!(f, "malformed columnar blob: {why}"),
            ColumnarError::InvalidBlock { server_id } => {
                write!(f, "invalid block table entry for server {server_id}")
            }
        }
    }
}

impl From<FrameError> for ColumnarError {
    fn from(e: FrameError) -> ColumnarError {
        ColumnarError::Frame(e)
    }
}

impl From<Overrun> for ColumnarError {
    fn from(_: Overrun) -> ColumnarError {
        ColumnarError::Malformed("block table overruns the body")
    }
}

impl std::error::Error for ColumnarError {}

/// One server's entry in the block table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerBlock {
    /// Server the block belongs to.
    pub server_id: ServerId,
    /// Default backup window start (minutes since epoch).
    pub default_backup_start: i64,
    /// Default backup window end (minutes since epoch).
    pub default_backup_end: i64,
    /// First grid point of the series (minutes since epoch).
    pub series_start_min: i64,
    /// Grid step in minutes.
    pub step_min: u32,
    /// Start of this server's points inside the shared value column.
    pub offset: usize,
    /// Number of points.
    pub len: usize,
}

impl ServerBlock {
    /// Timestamp (minutes since epoch) of point `i`.
    #[inline]
    pub fn timestamp_at(&self, i: usize) -> i64 {
        self.series_start_min + i as i64 * self.step_min as i64
    }
}

/// One server's consecutive samples, `grid_min` apart from `start_min` on
/// (NaN where a bucket is missing): the input of [`encode_runs`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct SampleRun<'a> {
    /// Server the samples belong to.
    pub server_id: ServerId,
    /// Timestamp of `values[0]` (minutes since epoch).
    pub start_min: i64,
    /// The samples.
    pub values: &'a [f64],
    /// Default backup window start (minutes since epoch).
    pub default_backup_start: i64,
    /// Default backup window end (minutes since epoch).
    pub default_backup_end: i64,
}

/// A decoded (or to-be-encoded) columnar region-week: the block table plus
/// one shared value column every server's series views into.
#[derive(Debug, Clone)]
pub struct ColumnarBatch {
    blocks: Vec<ServerBlock>,
    values: Arc<[f64]>,
}

/// Bit-wise value equality: NaN buckets (missing samples) compare equal, so a
/// decode of an encode is `==` its source.
impl PartialEq for ColumnarBatch {
    fn eq(&self, other: &ColumnarBatch) -> bool {
        self.blocks == other.blocks
            && self.values.len() == other.values.len()
            && self
                .values
                .iter()
                .zip(other.values.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl ColumnarBatch {
    /// Builds a columnar batch from raw telemetry rows, applying exactly the
    /// gridding the CSV ingest path applies when reassembling series: rows
    /// off the `grid_min` grid are dropped, each server spans its own
    /// `min..=max` timestamp range with absent buckets as NaN, later
    /// duplicates overwrite earlier ones, and values are quantized through
    /// [`csv_quantized`]. Both formats therefore produce bit-identical
    /// [`ExtractedServer`]s from the same rows.
    pub fn from_records(batch: &RecordBatch, grid_min: u32) -> ColumnarBatch {
        struct Acc {
            min_ts: i64,
            max_ts: i64,
            points: Vec<(i64, f64)>,
            backup_start: i64,
            backup_end: i64,
        }
        let step = grid_min as i64;
        let mut by_server: BTreeMap<ServerId, Acc> = BTreeMap::new();
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
        let mut blocks = Vec::with_capacity(by_server.len());
        let mut values: Vec<f64> = Vec::new();
        for (id, acc) in by_server {
            let n = ((acc.max_ts - acc.min_ts) / step) as usize + 1;
            let offset = values.len();
            values.resize(offset + n, f64::NAN);
            for (ts, v) in acc.points {
                values[offset + ((ts - acc.min_ts) / step) as usize] = csv_quantized(v);
            }
            blocks.push(ServerBlock {
                server_id: id,
                default_backup_start: acc.backup_start,
                default_backup_end: acc.backup_end,
                series_start_min: acc.min_ts,
                step_min: grid_min,
                offset,
                len: n,
            });
        }
        ColumnarBatch {
            blocks,
            values: values.into(),
        }
    }

    /// The block table, sorted by server id.
    pub fn blocks(&self) -> &[ServerBlock] {
        &self.blocks
    }

    /// The shared value column.
    pub fn values(&self) -> &Arc<[f64]> {
        &self.values
    }

    /// One server's slice of the value column.
    pub fn block_values(&self, block: &ServerBlock) -> &[f64] {
        &self.values[block.offset..block.offset + block.len]
    }

    /// Number of server blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if no server has any data.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Total points in the value column.
    pub fn total_points(&self) -> usize {
        self.values.len()
    }

    /// Encodes to the versioned wire layout with a trailing checksum.
    pub fn encode(&self) -> Bytes {
        let mut writer = BlobWriter::new(&self.blocks, self.values.len());
        writer.put(&self.values);
        writer.finish()
    }

    /// Decodes a blob. [`frame::open`] verifies the checksum *before* any of
    /// the structure is trusted, so a torn read (a strict byte prefix) is
    /// reported as a torn frame rather than parsed as shorter data.
    pub fn decode(blob: &[u8]) -> Result<ColumnarBatch, ColumnarError> {
        let mut body = Cursor::new(frame::open(blob, COLUMNAR_MAGIC, COLUMNAR_VERSION)?);
        // The count is outside input (the checksum is no MAC): the table is
        // taken from the body before anything is sized by it.
        let count = body.u32()? as usize;
        let table = body.take(count.saturating_mul(BLOCK_LEN))?;
        let mut blocks = Vec::with_capacity(count);
        let mut offset = 0usize;
        for entry in table.chunks_exact(BLOCK_LEN) {
            let mut entry = Cursor::new(entry);
            let block = ServerBlock {
                server_id: ServerId(entry.u64()?),
                default_backup_start: entry.i64()?,
                default_backup_end: entry.i64()?,
                series_start_min: entry.i64()?,
                step_min: entry.u32()?,
                offset,
                len: entry.u32()? as usize,
            };
            // A step that divides the day is at most 1,440, so the span of
            // `len: u32` points cannot overflow; where the grid ends can.
            let step = block.step_min;
            if step == 0
                || MINUTES_PER_DAY % step as i64 != 0
                || block.series_start_min.rem_euclid(step as i64) != 0
                || block
                    .series_start_min
                    .checked_add(block.len as i64 * step as i64)
                    .is_none()
            {
                return Err(ColumnarError::InvalidBlock {
                    server_id: block.server_id.0,
                });
            }
            offset += block.len;
            blocks.push(block);
        }
        let column = body.rest();
        if column.len() != offset * 8 {
            return Err(ColumnarError::Malformed(
                "value column is not the size the block table declares",
            ));
        }
        // An exact-size iterator collects into the `Arc` with one allocation.
        let values = column
            .chunks_exact(8)
            .map(|chunk| f64::from_bits(u64::from_le_bytes(chunk.try_into().expect("8 bytes"))))
            .collect();
        Ok(ColumnarBatch { blocks, values })
    }

    /// Reassembles per-server series as zero-copy views into the shared
    /// value column — every returned series' storage is the same `Arc`
    /// buffer.
    pub fn extract(&self) -> Vec<ExtractedServer> {
        self.blocks
            .iter()
            .map(|b| ExtractedServer {
                id: b.server_id,
                series: TimeSeries::from_shared(
                    Timestamp::from_minutes(b.series_start_min),
                    b.step_min,
                    Arc::clone(&self.values),
                    b.offset,
                    b.len,
                )
                .expect("block table validated at decode"),
                default_backup_start: Timestamp::from_minutes(b.default_backup_start),
                default_backup_end: Timestamp::from_minutes(b.default_backup_end),
            })
            .collect()
    }
}

/// A blob being written: header and block table done, the value column
/// filled in order by [`BlobWriter::put`] with the checksum folded along, so
/// no finished byte is read back; the buffer is reserved for the whole blob.
/// The column starts four bytes into a checksum word (`12 + 40·N ≡ 4 mod 8`):
/// each word is the upper half of one value under the lower half of the
/// next, and the last half is the tail [`checksum64`] mixes its length into.
struct BlobWriter {
    out: Vec<u8>,
    at: usize,
    sum: u64,
    half: u64,
}

impl BlobWriter {
    fn new(blocks: &[ServerBlock], points: usize) -> BlobWriter {
        let at = TABLE_AT + blocks.len() * BLOCK_LEN; // where the column starts
        let mut out = Vec::with_capacity(at + points * 8 + frame::FOOTER_LEN);
        out.extend_from_slice(&frame::header(COLUMNAR_MAGIC, COLUMNAR_VERSION));
        out.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
        for b in blocks {
            out.extend_from_slice(&b.server_id.0.to_le_bytes());
            out.extend_from_slice(&b.default_backup_start.to_le_bytes());
            out.extend_from_slice(&b.default_backup_end.to_le_bytes());
            out.extend_from_slice(&b.series_start_min.to_le_bytes());
            out.extend_from_slice(&b.step_min.to_le_bytes());
            out.extend_from_slice(&(b.len as u32).to_le_bytes());
        }
        let (words, half) = out.split_at(at - 4);
        let sum = checksum64(words);
        let half = u32::from_le_bytes(half.try_into().expect("four bytes")) as u64;
        out.resize(at + points * 8, 0);
        BlobWriter { out, at, sum, half }
    }

    /// Appends `values` to the column as they are.
    #[inline]
    fn put(&mut self, values: &[f64]) {
        let slots = &mut self.out[self.at..][..values.len() * 8];
        for (slot, v) in slots.chunks_exact_mut(8).zip(values) {
            let bits = v.to_bits();
            slot.copy_from_slice(&bits.to_le_bytes());
            self.sum = fnv_step(self.sum, self.half | bits << 32);
            self.half = bits >> 32;
        }
        self.at += slots.len();
    }

    /// Appends what the wire holds for `samples`: each load quantized, the
    /// canonical NaN where a bucket is missing. Eight at a time down
    /// [`csv_quantized`]'s arithmetic path under one branch, which vectorizes;
    /// a missing bucket or a near-tie among them sends the eight one by one.
    fn put_quantized(&mut self, samples: &[f64]) {
        let one = |v: f64| {
            if v.is_nan() {
                f64::NAN
            } else {
                csv_quantized(v)
            }
        };
        let mut eights = samples.chunks_exact(8);
        for eight in eights.by_ref() {
            let mut wire = [0.0; 8];
            let mut settled = true;
            for (slot, &v) in wire.iter_mut().zip(eight) {
                let (hundredth, ok) = csv_quantized_arith(v);
                *slot = hundredth;
                settled &= ok;
            }
            if !settled {
                for (slot, &v) in wire.iter_mut().zip(eight) {
                    *slot = one(v);
                }
            }
            self.put(&wire);
        }
        for &v in eights.remainder() {
            self.put(&[one(v)]);
        }
    }

    /// Closes the blob with its checksum footer.
    fn finish(self) -> Bytes {
        assert_eq!(self.at, self.out.len(), "a column short of its points");
        let sum = fnv_step(self.sum, self.half ^ (4 << 56));
        frame::seal_with(self.out, sum)
    }
}

/// Writes the blob `ColumnarBatch::from_records(rows, grid_min).encode()`
/// writes for the rows of `runs` (one row per present sample, `grid_min`
/// apart, in the order given) without the rows or a batch in between.
/// `from_records` stays the definition; the `runs_match_rows` tests hold the
/// two together byte for byte.
///
/// A run that starts off the grid has every row off it and vanishes; of the
/// others the rows span first to last present sample. Runs of one server are
/// laid over each other in the order given, so a later sample overwrites an
/// earlier one and the first run supplies the backup window.
pub(crate) fn encode_runs<'a>(runs: impl Iterator<Item = SampleRun<'a>>, grid_min: u32) -> Bytes {
    let step = grid_min as i64;
    let mut kept: Vec<SampleRun<'a>> = runs
        .filter(|run| run.start_min.rem_euclid(step) == 0)
        .filter_map(|mut run| {
            let first = run.values.iter().position(|v| !v.is_nan())?;
            let last = run.values.iter().rposition(|v| !v.is_nan())?;
            run.start_min += first as i64 * step;
            run.values = &run.values[first..=last];
            Some(run)
        })
        .collect();
    kept.sort_by_key(|run| run.server_id); // stable: the order given survives
    let same_server = |a: &SampleRun<'_>, b: &SampleRun<'_>| a.server_id == b.server_id;
    let mut blocks = Vec::with_capacity(kept.len());
    let mut points = 0;
    for server in kept.chunk_by(same_server) {
        let first_min = |run: &SampleRun<'_>| run.start_min;
        let last_min = |run: &SampleRun<'_>| run.start_min + (run.values.len() as i64 - 1) * step;
        let min_ts = server.iter().map(first_min).min().expect("non-empty");
        let max_ts = server.iter().map(last_min).max().expect("non-empty");
        let len = ((max_ts - min_ts) / step) as usize + 1;
        blocks.push(ServerBlock {
            server_id: server[0].server_id,
            default_backup_start: server[0].default_backup_start,
            default_backup_end: server[0].default_backup_end,
            series_start_min: min_ts,
            step_min: grid_min,
            offset: points,
            len,
        });
        points += len;
    }
    let mut writer = BlobWriter::new(&blocks, points);
    let mut laid = Vec::new();
    for (block, server) in blocks.iter().zip(kept.chunk_by(same_server)) {
        // A lone run (all `week_runs` yields) is its block as it stands;
        // several are laid over each other first, unquantized.
        let samples = match server {
            [run] => run.values,
            _ => {
                laid.clear();
                laid.resize(block.len, f64::NAN);
                for run in server {
                    let at = ((run.start_min - block.series_start_min) / step) as usize;
                    for (slot, &v) in laid[at..].iter_mut().zip(run.values) {
                        if !v.is_nan() {
                            *slot = v;
                        }
                    }
                }
                &laid
            }
        };
        writer.put_quantized(samples);
    }
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::LoadRecord;
    use proptest::prelude::*;

    fn rec(server: u64, ts: i64, cpu: f64) -> LoadRecord {
        LoadRecord {
            server_id: ServerId(server),
            timestamp_min: ts,
            avg_cpu: cpu,
            default_backup_start: 1440,
            default_backup_end: 1500,
        }
    }

    fn sample() -> ColumnarBatch {
        ColumnarBatch::from_records(
            &RecordBatch::new(vec![
                rec(2, 10, 30.0),
                rec(1, 0, 12.345),
                rec(1, 10, 20.0),
                rec(2, 5, 25.0),
            ]),
            5,
        )
    }

    #[test]
    fn encode_decode_round_trips() {
        let batch = sample();
        let blob = batch.encode();
        assert!(frame::has_magic(&blob, COLUMNAR_MAGIC));
        let back = ColumnarBatch::decode(&blob).unwrap();
        assert_eq!(back, batch);
    }

    #[test]
    fn encode_is_byte_stable() {
        assert_eq!(sample().encode(), sample().encode());
    }

    #[test]
    fn gridding_matches_csv_reassembly() {
        let batch = sample();
        // Server 1 spans 0..=10 with a NaN gap at 5.
        let b1 = &batch.blocks()[0];
        assert_eq!(b1.server_id, ServerId(1));
        assert_eq!(b1.len, 3);
        let vals = batch.block_values(b1);
        assert_eq!(vals[0], csv_quantized(12.345));
        assert!(vals[1].is_nan());
        assert_eq!(vals[2], 20.0);
    }

    /// The rows `LoadExtraction::extract_week` spells `runs` as.
    fn rows_of(runs: &[SampleRun<'_>], grid_min: u32) -> RecordBatch {
        let mut records = Vec::new();
        for run in runs {
            for (i, &v) in run.values.iter().enumerate() {
                if !v.is_nan() {
                    records.push(LoadRecord {
                        server_id: run.server_id,
                        timestamp_min: run.start_min + i as i64 * grid_min as i64,
                        avg_cpu: v,
                        default_backup_start: run.default_backup_start,
                        default_backup_end: run.default_backup_end,
                    });
                }
            }
        }
        RecordBatch::new(records)
    }

    /// The writer's blob is the row path's, and decodes to the row path's
    /// batch (returned for a closer look).
    fn assert_runs_match_rows(runs: &[SampleRun<'_>], grid_min: u32) -> ColumnarBatch {
        let direct = encode_runs(runs.iter().copied(), grid_min);
        let by_rows = ColumnarBatch::from_records(&rows_of(runs, grid_min), grid_min);
        assert_eq!(direct, by_rows.encode());
        assert_eq!(ColumnarBatch::decode(&direct).unwrap(), by_rows);
        by_rows
    }

    fn run(server: u64, start_min: i64, values: &[f64]) -> SampleRun<'_> {
        SampleRun {
            server_id: ServerId(server),
            start_min,
            values,
            default_backup_start: 1440 + server as i64,
            default_backup_end: 1500 + server as i64,
        }
    }

    #[test]
    fn runs_match_rows_on_edge_cases() {
        const NAN: f64 = f64::NAN;
        assert_runs_match_rows(&[], 5);
        // Servers out of id order, gaps inside, NaN at both ends.
        assert_runs_match_rows(
            &[
                run(9, 100, &[NAN, 1.234, NAN, 5.675, NAN, NAN]),
                run(2, -15, &[0.005, -0.0, 99.995]),
            ],
            5,
        );
        // Nothing present, nothing at all, and a start off the grid.
        assert_runs_match_rows(
            &[
                run(1, 0, &[NAN, NAN]),
                run(2, 0, &[]),
                run(3, 7, &[4.0, 5.0]),
            ],
            5,
        );
        assert!(assert_runs_match_rows(&[run(3, 7, &[4.0])], 5).is_empty());
        // Past the writer's eight-at-a-time step: two clean eights and a
        // tail, then a near-tie in the first eight and a gap in the second.
        let mut long: Vec<f64> = (0..19).map(|i| 1.2345 * i as f64).collect();
        assert_runs_match_rows(&[run(6, 0, &long)], 5);
        (long[3], long[12]) = (33.335, NAN);
        assert_runs_match_rows(&[run(6, 0, &long), run(7, 5, &long[..8])], 5);
        // One server twice: overlapping, apart, and the earlier run later;
        // the first run's backup window is the block's.
        let mut again = run(4, 20, &[7.0, NAN, 8.0]);
        again.default_backup_start = -1;
        assert_runs_match_rows(&[run(4, 10, &[1.0, 2.0, 3.0, NAN, 4.0]), again], 5);
        assert_runs_match_rows(
            &[run(4, 100, &[1.0]), run(5, 0, &[2.0]), run(4, 0, &[3.0])],
            5,
        );
        let twice = assert_runs_match_rows(&[run(4, 100, &[1.0]), again], 5);
        assert_eq!(twice.blocks()[0].default_backup_start, 1444);
        assert_eq!(twice.blocks()[0].series_start_min, 20);
        assert_eq!(twice.blocks()[0].len, 17);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Written from runs or encoded from the rows of the same runs, the
        /// bytes are the same: ids repeat and arrive in any order, runs
        /// start on and off the grid, samples are missing anywhere.
        #[test]
        fn runs_match_rows(
            runs in proptest::collection::vec(
                (
                    0u64..6,
                    -50i64..50,
                    proptest::collection::vec(
                        prop_oneof![Just(f64::NAN), 0.0f64..100.0, Just(33.335), Just(-0.0)],
                        0..40,
                    ),
                ),
                0..8,
            ),
            grid_min in prop_oneof![Just(1u32), Just(5), Just(15)],
        ) {
            let runs: Vec<SampleRun<'_>> = runs
                .iter()
                .map(|(server, start, values)| run(*server, *start, values))
                .collect();
            assert_runs_match_rows(&runs, grid_min);
        }
    }

    #[test]
    fn off_grid_rows_dropped() {
        let batch =
            ColumnarBatch::from_records(&RecordBatch::new(vec![rec(1, 0, 1.0), rec(1, 3, 9.0)]), 5);
        assert_eq!(batch.blocks()[0].len, 1);
    }

    #[test]
    fn torn_prefix_fails_checksum() {
        let blob = sample().encode();
        for cut in 5..blob.len() {
            let torn = &blob[..cut];
            match ColumnarBatch::decode(torn) {
                Err(ColumnarError::Frame(e)) if e.is_torn() => {}
                other => panic!("torn read at {cut} must fail decode, got {other:?}"),
            }
        }
    }

    /// Every single-bit flip of a three-server blob is caught: inside the
    /// magic the blob no longer sniffs as columnar, anywhere after it FNV-1a's
    /// odd multiplier carries the changed word into a different checksum.
    /// The blob itself is the one every build since ISSUE 19 has written.
    #[test]
    fn corrupt_byte_fails_checksum() {
        let rows = vec![
            rec(2, 10, 30.0),
            rec(1, 0, 12.345),
            rec(3, 5, 7.5),
            rec(1, 10, 20.0),
            rec(3, 20, 99.99),
        ];
        let blob = ColumnarBatch::from_records(&RecordBatch::new(rows), 5)
            .encode()
            .to_vec();
        assert_eq!(checksum64(&blob), 0x1cfd_8221_8a45_8b51, "wire bytes moved");
        assert_eq!(ColumnarBatch::decode(&blob).unwrap().len(), 3);
        for bit in 0..blob.len() * 8 {
            let mut bad = blob.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let got = ColumnarBatch::decode(&bad);
            if bit / 8 < COLUMNAR_MAGIC.len() {
                assert_eq!(got, Err(FrameError::BadMagic.into()), "flip of bit {bit}");
            } else {
                assert!(
                    matches!(
                        got,
                        Err(ColumnarError::Frame(FrameError::ChecksumMismatch { .. }))
                    ),
                    "flip of bit {bit} must fail the checksum, got {got:?}"
                );
            }
        }
    }

    #[test]
    fn csv_blob_is_not_columnar() {
        let csv = RecordBatch::new(vec![rec(1, 0, 1.0)]).to_csv();
        assert!(!frame::has_magic(&csv, COLUMNAR_MAGIC));
        assert_eq!(
            ColumnarBatch::decode(&csv),
            Err(FrameError::BadMagic.into())
        );
    }

    /// Gives a tampered blob a valid checksum, so only the structure checks
    /// behind it can object.
    fn reseal(blob: &mut [u8]) {
        let at = blob.len() - frame::FOOTER_LEN;
        let sum = checksum64(&blob[..at]);
        blob[at..].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn unsupported_version_rejected() {
        let mut blob = sample().encode().to_vec();
        blob[4] = 9; // bump version…
        reseal(&mut blob); // …with a valid checksum
        assert_eq!(
            ColumnarBatch::decode(&blob),
            Err(FrameError::UnsupportedVersion { version: 9 }.into())
        );
    }

    /// A block whose grid runs past `i64::MAX` is refused at decode, not
    /// handed out as a series whose `end()` overflows.
    #[test]
    fn grid_end_past_i64_rejected() {
        let start_at = TABLE_AT + 24; // block 0 (server 1, three points): series_start_min
        let forge = |start: i64| {
            let mut blob = sample().encode().to_vec();
            blob[start_at..start_at + 8].copy_from_slice(&start.to_le_bytes());
            reseal(&mut blob);
            ColumnarBatch::decode(&blob)
        };
        // Both starts are on the 5-minute grid; the first ends at i64::MAX - 2.
        let fits = forge(i64::MAX - 17).expect("the grid end fits");
        assert_eq!(
            fits.extract()[0].series.end(),
            Timestamp::from_minutes(i64::MAX - 2)
        );
        assert_eq!(
            forge(i64::MAX - 2),
            Err(ColumnarError::InvalidBlock { server_id: 1 })
        );
    }

    #[test]
    fn extract_yields_views_into_one_buffer() {
        let batch = sample();
        let servers = batch.extract();
        assert_eq!(servers.len(), 2);
        for s in &servers {
            assert!(
                Arc::ptr_eq(s.series.storage(), batch.values()),
                "server {} series must view the shared decode buffer",
                s.id
            );
        }
        assert_eq!(
            servers[0].default_backup_start,
            Timestamp::from_minutes(1440)
        );
        assert_eq!(servers[0].default_backup_end, Timestamp::from_minutes(1500));
    }

    #[test]
    fn empty_batch_round_trips() {
        let empty = ColumnarBatch::from_records(&RecordBatch::default(), 5);
        assert!(empty.is_empty());
        let back = ColumnarBatch::decode(&empty.encode()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.total_points(), 0);
    }

    #[test]
    fn nan_payloads_survive_the_wire() {
        let batch = sample();
        let back = ColumnarBatch::decode(&batch.encode()).unwrap();
        let b1 = &back.blocks()[0];
        assert!(back.block_values(b1)[1].is_nan());
    }
}
