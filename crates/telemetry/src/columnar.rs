//! The region-week blob codec (`SGCB`): the one format the pipeline reads.
//!
//! The paper's CSV rows ([`crate::record`]) spell every 5-minute sample as a
//! text row; a 1k-server region-week is ~2M of them. [`ColumnarBatch`] stores
//! the same region-week as a binary blob: a block table describing each
//! server's grid, followed by one column holding every server's values back
//! to back (missing buckets are NaN, as everywhere else), closed by a
//! checksum footer. A block whose every value is a load of two decimals up
//! to 655.34 or a missing bucket — every block a CPU percentage fills — is
//! stored *narrow*, two bytes a value; any other block *wide*, as `f64` bits.
//! Decoding widens the column into **one** shared `f64` buffer, and each
//! server's series becomes a zero-copy [`seagull_timeseries::TimeSeries`]
//! view into it.
//!
//! The checksum exists for the failure mode [`crate::chaos::ChaosBlobStore`]
//! injects: a torn read returns a strict prefix of the blob, which a text
//! format would parse as a *shorter valid file*. A torn blob fails the
//! checksum ([`ColumnarError::is_torn`]) and the pipeline retries the read
//! instead of training on truncated series; a blob that is intact but not a
//! region-week this build reads is refused without a retry.
//!
//! ## Body layout (version 3, all little-endian, inside a [`crate::frame`])
//!
//! ```text
//! [0..4)    server block count u32
//! ...       block table, 41 bytes per server, in ascending server id:
//!             server_id u64, default_backup_start i64,
//!             default_backup_end i64, series_start_min i64,
//!             step_min u32, point count u32, value width u8 (2 or 8)
//! ...       value column: every server's points, concatenated; a narrow
//!             block (width 2) as u16 hundredths with 0xFFFF for NaN, a
//!             wide block (width 8) as f64 bits
//! ```
//!
//! A value *fits* narrow when it is the canonical NaN, or when it is
//! `k / 100` for an integer `k` in `0..=65_534`, bit for bit (so not `-0.0`,
//! no negative, no NaN payload). A block is narrow exactly when every value
//! fits: decode refuses a wide block that could have been narrow, so every
//! blob it accepts re-encodes to its own bytes.

use crate::blobstore::Blob;
use crate::extract::ExtractedServer;
use crate::frame::{self, Cursor, FrameError, Overrun};
use crate::record::{csv_hundredths, csv_quantized, RecordBatch};
use crate::server::ServerId;
use seagull_timeseries::{TimeSeries, Timestamp, MINUTES_PER_DAY};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Leading magic bytes of a columnar region-week blob.
pub const COLUMNAR_MAGIC: [u8; 4] = *b"SGCB";
/// Current wire version (1 was sealed with the single-chain checksum, 2
/// stored every value as `f64` bits).
pub const COLUMNAR_VERSION: u16 = 3;

/// Where the block table starts: after the frame header and the block count.
const TABLE_AT: usize = frame::HEADER_LEN + 4;
const BLOCK_LEN: usize = 41;
/// Where the width byte sits in a block table entry.
const WIDTH_AT: usize = 40;
/// Width bytes: a block stored as u16 hundredths, and one stored as f64 bits.
const NARROW: u8 = 2;
const WIDE: u8 = 8;
/// A missing bucket in a narrow block.
const NARROW_NAN: u16 = u16::MAX;
/// The largest value a narrow block holds, in hundredths.
const NARROW_MAX: f64 = 65_534.0;

/// The u16 a value is stored as in a narrow block, or `None` when it does not
/// fit (module docs). `k` is taken the way [`csv_quantized`] rounds, so a
/// load that came through it fits exactly when its hundredths are in range.
#[inline]
fn narrow(v: f64) -> Option<u16> {
    if v.to_bits() == f64::NAN.to_bits() {
        return Some(NARROW_NAN);
    }
    let (k, _) = csv_hundredths(v);
    (k <= NARROW_MAX && (k / 100.0).to_bits() == v.to_bits()).then_some(k as u16)
}

/// A narrow column's values: each u16 looked up in a table of the 65,536
/// values it can stand for (512 KiB, built on first use), not divided —
/// baseline x86-64 divides at a few cycles per `f64`, which made a decode
/// about twice as slow, and the quotient must be the correctly rounded
/// `k / 100` the writer checked (the reciprocal's product is not, for one
/// `k` in eight).
fn widen(narrow: &[u8]) -> impl Iterator<Item = f64> + '_ {
    static WIDENED: OnceLock<Box<[f64; 1 << 16]>> = OnceLock::new();
    let widened = WIDENED.get_or_init(|| {
        let all: Vec<f64> = (0..=u16::MAX)
            .map(|k| match k {
                NARROW_NAN => f64::NAN,
                k => f64::from(k) / 100.0,
            })
            .collect();
        all.into_boxed_slice()
            .try_into()
            .expect("one value per u16")
    });
    let (pairs, _) = narrow.as_chunks();
    pairs
        .iter()
        .map(|&pair| widened[usize::from(u16::from_le_bytes(pair))])
}

/// A decode failure: the blob is not usable as read, never silently shorter
/// data. Only a torn frame ([`ColumnarError::is_torn`]) may read whole on a
/// retry; every other variant is the blob's own content.
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

impl ColumnarError {
    /// True when a re-read may succeed: the frame was cut short or its bytes
    /// rotted. False for a blob that is intact but foreign or malformed.
    pub fn is_torn(&self) -> bool {
        matches!(self, ColumnarError::Frame(e) if e.is_torn())
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
    /// Builds a columnar batch from CSV rows, gridding them into series:
    /// rows off the `grid_min` grid are dropped, each server spans its own
    /// `min..=max` timestamp range with absent buckets as NaN, later
    /// duplicates overwrite earlier ones, and values are quantized through
    /// [`csv_quantized`], so a load reads the same whether it went through
    /// the CSV text or not.
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
    pub fn encode(&self) -> Blob {
        let mut writer = BlobWriter::new(&self.blocks);
        for block in &self.blocks {
            writer.put(self.block_values(block));
        }
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
        let mut blocks: Vec<ServerBlock> = Vec::with_capacity(count);
        let mut widths = Vec::with_capacity(count);
        let mut offset = 0usize;
        let mut column_len = 0usize;
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
            if blocks
                .last()
                .is_some_and(|last| last.server_id >= block.server_id)
            {
                return Err(ColumnarError::Malformed("server ids out of order"));
            }
            let width = entry.take(1)?[0];
            if width != NARROW && width != WIDE {
                return Err(ColumnarError::Malformed("unknown value width"));
            }
            // `len` is a u32 and each entry takes 41 bytes of the body, so
            // neither sum can overflow.
            offset += block.len;
            column_len += block.len * width as usize;
            blocks.push(block);
            widths.push(width);
        }
        let mut column = body.rest();
        if column.len() != column_len {
            return Err(ColumnarError::Malformed(
                "value column is not the size the block table declares",
            ));
        }
        // One allocation, sized by a column whose bytes are there. When every
        // block is narrow (every blob of a CPU fleet) the column is widened
        // straight into it: the exact-size iterator collects with one write
        // per value. Otherwise the buffer is zero-filled first and written
        // block by block, which costs a second write of every page.
        if widths.iter().all(|&width| width == NARROW) {
            let values = widen(column).collect();
            return Ok(ColumnarBatch { blocks, values });
        }
        let mut values: Arc<[f64]> = std::iter::repeat_n(0.0, offset).collect();
        let out = Arc::get_mut(&mut values).expect("a fresh buffer has one owner");
        for (block, width) in blocks.iter().zip(widths) {
            let (bytes, rest) = column.split_at(block.len * width as usize);
            column = rest;
            let out = &mut out[block.offset..][..block.len];
            if width == NARROW {
                for (slot, v) in out.iter_mut().zip(widen(bytes)) {
                    *slot = v;
                }
                continue;
            }
            let (words, _) = bytes.as_chunks();
            for (slot, &word) in out.iter_mut().zip(words) {
                *slot = f64::from_le_bytes(word);
            }
            if out.iter().all(|&v| narrow(v).is_some()) {
                return Err(ColumnarError::Malformed(
                    "a wide block whose values fit narrow",
                ));
            }
        }
        Ok(ColumnarBatch { blocks, values })
    }

    /// Reassembles per-server series as zero-copy views into the shared
    /// value column — every returned series' storage is the same `Arc`
    /// buffer. A block on another grid than `grid_min` is left out: its
    /// points do not mean what the caller's horizon math assumes
    /// (validation reports it as an off-grid anomaly).
    pub fn extract(&self, grid_min: u32) -> Vec<ExtractedServer> {
        self.blocks
            .iter()
            .filter(|b| b.step_min == grid_min)
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

/// A blob being written: header and block table done, then one block after
/// another by [`BlobWriter::put`] or [`BlobWriter::put_quantized`], each
/// narrow until a value does not fit, and [`frame::seal`] hashing the
/// finished buffer once. The buffer is reserved for a blob of narrow blocks
/// and grows by exactly what a block going wide adds, so the sealed blob
/// holds no spare capacity.
struct BlobWriter<'a> {
    out: Vec<u8>,
    blocks: &'a [ServerBlock],
    /// Blocks written so far.
    written: usize,
    /// Where the block being written starts in `out`, and whether it went wide.
    block_at: usize,
    wide: bool,
}

impl<'a> BlobWriter<'a> {
    fn new(blocks: &'a [ServerBlock]) -> BlobWriter<'a> {
        let points: usize = blocks.iter().map(|b| b.len).sum();
        let at = TABLE_AT + blocks.len() * BLOCK_LEN; // where the column starts
        let mut out = Vec::with_capacity(at + points * 2 + frame::FOOTER_LEN);
        out.extend_from_slice(&frame::header(COLUMNAR_MAGIC, COLUMNAR_VERSION));
        out.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
        for b in blocks {
            out.extend_from_slice(&b.server_id.0.to_le_bytes());
            out.extend_from_slice(&b.default_backup_start.to_le_bytes());
            out.extend_from_slice(&b.default_backup_end.to_le_bytes());
            out.extend_from_slice(&b.series_start_min.to_le_bytes());
            out.extend_from_slice(&b.step_min.to_le_bytes());
            out.extend_from_slice(&(b.len as u32).to_le_bytes());
            out.push(NARROW);
        }
        BlobWriter {
            out,
            blocks,
            written: 0,
            block_at: at,
            wide: false,
        }
    }

    /// Starts the next block, narrow.
    fn begin(&mut self, len: usize) {
        assert_eq!(
            len, self.blocks[self.written].len,
            "a block short of its points"
        );
        self.block_at = self.out.len();
        self.wide = false;
    }

    /// Appends one value of the block being written.
    #[inline]
    fn push(&mut self, v: f64) {
        if !self.wide {
            if let Some(k) = narrow(v) {
                self.out.extend_from_slice(&k.to_le_bytes());
                return;
            }
            self.widen();
        }
        self.out.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Rewrites the block's values so far as f64 bits (each narrow value is
    /// one exactly) and marks the block wide.
    #[cold]
    fn widen(&mut self) {
        let narrow = self.out.split_off(self.block_at);
        // The spare capacity holds the block at two bytes a value.
        let len = self.blocks[self.written].len;
        self.out
            .reserve_exact(self.out.capacity() - self.out.len() + 6 * len);
        for v in widen(&narrow) {
            self.out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        self.wide = true;
        self.out[TABLE_AT + self.written * BLOCK_LEN + WIDTH_AT] = WIDE;
    }

    /// Appends the next block's values as they are.
    fn put(&mut self, values: &[f64]) {
        self.begin(values.len());
        for &v in values {
            self.push(v);
        }
        self.written += 1;
    }

    /// Appends the next block as the wire holds `samples`: each load
    /// quantized, the canonical NaN where a bucket is missing. Eight at a time
    /// down [`csv_quantized`]'s arithmetic path under one branch, which
    /// vectorizes and hands over each load's hundredths, so the eight are
    /// written narrow as they are; a missing bucket or a near-tie among them
    /// sends the eight one by one.
    fn put_quantized(&mut self, samples: &[f64]) {
        self.begin(samples.len());
        let one = |v: f64| {
            if v.is_nan() {
                f64::NAN
            } else {
                csv_quantized(v)
            }
        };
        let mut eights = samples.chunks_exact(8);
        for eight in eights.by_ref() {
            let mut hundredths = [0.0; 8];
            let (mut settled, mut fits) = (true, true);
            for (slot, &v) in hundredths.iter_mut().zip(eight) {
                let (k, ok) = csv_hundredths(v);
                *slot = k;
                settled &= ok;
                fits &= v.is_sign_positive() & (k <= NARROW_MAX);
            }
            if !settled {
                for &v in eight {
                    self.push(one(v));
                }
            } else if fits && !self.wide {
                let mut narrow = [0u8; 16];
                for (pair, k) in narrow.chunks_exact_mut(2).zip(hundredths) {
                    pair.copy_from_slice(&(k as u16).to_le_bytes());
                }
                self.out.extend_from_slice(&narrow);
            } else {
                for (k, &v) in hundredths.into_iter().zip(eight) {
                    self.push((k / 100.0).copysign(v));
                }
            }
        }
        for &v in eights.remainder() {
            self.push(one(v));
        }
        self.written += 1;
    }

    /// Closes the blob with its checksum footer.
    fn finish(self) -> Blob {
        assert_eq!(self.written, self.blocks.len(), "a block left unwritten");
        debug_assert_eq!(
            self.out.capacity(),
            self.out.len() + frame::FOOTER_LEN,
            "the blob's buffer is reserved to its size"
        );
        frame::seal(self.out)
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
pub(crate) fn encode_runs<'a>(runs: impl Iterator<Item = SampleRun<'a>>, grid_min: u32) -> Blob {
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
    let mut writer = BlobWriter::new(&blocks);
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

    const FITS_NARROW: &str = "a wide block whose values fit narrow";

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
        assert_eq!(blob[..4], COLUMNAR_MAGIC);
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

    /// The column writer of version 2, every value as its `f64` bits, under
    /// the version 3 block table with every block marked wide: the oracle the
    /// narrowing writer is held to.
    fn encode_all_wide(batch: &ColumnarBatch) -> Vec<u8> {
        let mut out = frame::header(COLUMNAR_MAGIC, COLUMNAR_VERSION).to_vec();
        out.extend_from_slice(&(batch.len() as u32).to_le_bytes());
        for b in batch.blocks() {
            out.extend_from_slice(&b.server_id.0.to_le_bytes());
            out.extend_from_slice(&b.default_backup_start.to_le_bytes());
            out.extend_from_slice(&b.default_backup_end.to_le_bytes());
            out.extend_from_slice(&b.series_start_min.to_le_bytes());
            out.extend_from_slice(&b.step_min.to_le_bytes());
            out.extend_from_slice(&(b.len as u32).to_le_bytes());
            out.push(WIDE);
        }
        for v in batch.values.iter() {
            out.extend_from_slice(&v.to_le_bytes());
        }
        frame::seal(out).to_vec()
    }

    /// The narrowing rule as the format states it, rounding with `round`.
    fn fits(v: f64) -> bool {
        let k = (v * 100.0).round();
        v.to_bits() == f64::NAN.to_bits()
            || (v.is_sign_positive()
                && (0.0..=65_534.0).contains(&k)
                && (f64::from(k as u16) / 100.0).to_bits() == v.to_bits())
    }

    /// Each block of `blob` is narrow exactly when every value of the
    /// matching block of `batch` fits.
    fn assert_widths(blob: &[u8], batch: &ColumnarBatch) {
        for (i, block) in batch.blocks().iter().enumerate() {
            let all_fit = batch.block_values(block).iter().all(|&v| fits(v));
            let width = blob[TABLE_AT + i * BLOCK_LEN + WIDTH_AT];
            assert_eq!(width, if all_fit { NARROW } else { WIDE }, "block {i}");
        }
    }

    /// A batch holding `blocks` to the bit, ids 1, 2, …
    fn batch_of(blocks: &[Vec<f64>]) -> ColumnarBatch {
        let mut offset = 0;
        let table = blocks
            .iter()
            .zip(1..)
            .map(|(values, id)| {
                let block = ServerBlock {
                    server_id: ServerId(id),
                    default_backup_start: 1440,
                    default_backup_end: 1500,
                    series_start_min: 0,
                    step_min: 5,
                    offset,
                    len: values.len(),
                };
                offset += values.len();
                block
            })
            .collect();
        ColumnarBatch {
            blocks: table,
            values: blocks.concat().into(),
        }
    }

    /// A wire value of every kind the narrowing rule tells apart, most of
    /// them loads of two decimals and missing buckets, as a CPU week is.
    fn wire_value() -> impl Strategy<Value = f64> {
        prop_oneof![
            30 => (0u32..=10_000).prop_map(|k| f64::from(k) / 100.0),
            8 => Just(f64::NAN),
            4 => 0.0f64..100.0,
            2 => prop_oneof![Just(0.0), Just(-0.0)],
            2 => prop_oneof![Just(f64::INFINITY), Just(f64::NEG_INFINITY)],
            2 => (1u64..1 << 52).prop_map(f64::from_bits),
            2 => prop_oneof![Just(655.34), Just(655.35), Just(655.335), Just(655.345)],
            2 => prop_oneof![Just(33.335), Just(2.675), Just(0.125), Just(99.995), Just(0.005)],
            2 => 1e6f64..1e12,
            1 => -100.0f64..0.0,
            1 => any::<u64>().prop_map(|b| f64::from_bits(0x7ff0_0000_0000_0001 | b >> 12)),
            1 => Just(-f64::NAN),
        ]
    }

    proptest! {
        /// Both writers narrow a block exactly when every value fits, and the
        /// blob decodes to the values the all-wide oracle wrote, bit for bit:
        /// `encode` on the values as they are, `encode_runs` on the same
        /// values quantized (its blob is the rows', `runs_match_rows`). The
        /// oracle's blob is this blob when every block is wide, and refused
        /// when one could have been narrow.
        #[test]
        fn narrow_exactly_when_every_value_fits(
            blocks in proptest::collection::vec(
                proptest::collection::vec(wire_value(), 0..24),
                0..6,
            ),
        ) {
            let batch = batch_of(&blocks);
            let blob = batch.encode();
            assert_widths(&blob, &batch);
            let oracle = encode_all_wide(&batch);
            let end = oracle.len() - frame::FOOTER_LEN;
            let decoded = ColumnarBatch::decode(&blob).unwrap();
            let widened: Vec<u8> = decoded.values.iter().flat_map(|v| v.to_le_bytes()).collect();
            assert_eq!(decoded, batch);
            assert_eq!(&oracle[end - widened.len()..end], &widened[..]);
            assert_eq!(decoded.encode(), blob);
            match ColumnarBatch::decode(&oracle) {
                Ok(all_wide) => {
                    assert_eq!(all_wide, batch);
                    assert_eq!(&oracle[..], &blob[..]);
                }
                Err(refused) => {
                    assert_eq!(refused, ColumnarError::Malformed(FITS_NARROW));
                    let mut widths = (0..batch.len()).map(|i| blob[TABLE_AT + i * BLOCK_LEN + WIDTH_AT]);
                    assert!(widths.any(|width| width == NARROW));
                }
            }

            let runs: Vec<SampleRun<'_>> = blocks
                .iter()
                .zip(1..)
                .map(|(values, id)| run(id, 0, values))
                .collect();
            let by_rows = assert_runs_match_rows(&runs, 5);
            assert_widths(&encode_runs(runs.iter().copied(), 5), &by_rows);
        }
    }

    /// Every wide block of an accepted blob holds a value that does not fit,
    /// so the all-wide layout of loads that all do is refused, and the same
    /// bytes with one load that does not fit are accepted.
    #[test]
    fn wide_block_whose_values_fit_narrow_is_refused() {
        let narrow = sample();
        assert_eq!(
            ColumnarBatch::decode(&encode_all_wide(&narrow)),
            Err(ColumnarError::Malformed(FITS_NARROW))
        );
        let wide = batch_of(&[vec![12.34, f64::NAN, 700.0], vec![0.5]]);
        let blob = encode_all_wide(&wide);
        assert_eq!(
            ColumnarBatch::decode(&blob),
            Err(ColumnarError::Malformed(FITS_NARROW)),
            "the second block fits"
        );
        let wide = batch_of(&[vec![12.34, f64::NAN, 700.0], vec![-0.5]]);
        let blob = encode_all_wide(&wide);
        assert_eq!(ColumnarBatch::decode(&blob), Ok(wide.clone()));
        assert_eq!(wide.encode().to_vec(), blob);
    }

    /// A NaN with a payload is no missing bucket: it keeps its block wide,
    /// its bits survive the wire, and the blob re-encodes to its own bytes.
    /// A missing bucket beside it is the canonical NaN, as everywhere.
    #[test]
    fn nan_payload_keeps_its_block_wide() {
        let payload = f64::from_bits(f64::NAN.to_bits() | 1);
        let rows = vec![rec(1, 0, 12.5), rec(1, 10, payload), rec(2, 0, 7.0)];
        let batch = ColumnarBatch::from_records(&RecordBatch::new(rows), 5);
        let blob = batch.encode();
        assert_eq!(blob[TABLE_AT + WIDTH_AT], WIDE);
        assert_eq!(blob[TABLE_AT + BLOCK_LEN + WIDTH_AT], NARROW);
        let back = ColumnarBatch::decode(&blob).unwrap();
        let bits: Vec<u64> = back.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            bits,
            [
                12.5f64.to_bits(),
                f64::NAN.to_bits(),
                payload.to_bits(),
                7.0f64.to_bits()
            ]
        );
        assert_eq!(back.encode(), blob);
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

    /// Every single-bit flip of a three-server blob (two narrow blocks, one
    /// wide) is caught: inside the magic the blob is refused as foreign,
    /// anywhere after it FNV-1a's odd multiplier carries the changed word
    /// into a different checksum. The body is pinned through the
    /// single-chain reference so that only a moved body byte fails it.
    #[test]
    fn corrupt_byte_fails_checksum() {
        let rows = vec![
            rec(2, 10, 30.0),
            rec(1, 0, 12.345),
            rec(3, 5, 7.5),
            rec(1, 10, 20.0),
            rec(3, 20, 99.99),
            rec(2, 15, 700.0),
        ];
        let blob = ColumnarBatch::from_records(&RecordBatch::new(rows), 5)
            .encode()
            .to_vec();
        let body = &blob[frame::HEADER_LEN..blob.len() - frame::FOOTER_LEN];
        assert_eq!(
            frame::checksum64_single_lane(body),
            0x772e_f841_4886_b93e,
            "wire bytes moved"
        );
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
        let refused = ColumnarBatch::decode(&csv).unwrap_err();
        assert_eq!(refused, FrameError::BadMagic.into());
        assert!(!refused.is_torn());
    }

    /// Gives a tampered blob a valid checksum, so only the structure checks
    /// behind it can object.
    fn reseal(blob: &mut [u8]) {
        let at = blob.len() - frame::FOOTER_LEN;
        let sum = frame::checksum64(&blob[..at]);
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
            fits.extract(5)[0].series.end(),
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
        let servers = batch.extract(5);
        assert_eq!(servers.len(), 2);
        for s in &servers {
            assert!(
                Arc::ptr_eq(s.series.storage(), &batch.values),
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
    fn extract_leaves_other_grids_out() {
        let ten = ColumnarBatch::from_records(
            &RecordBatch::new(vec![rec(4, 0, 1.0), rec(4, 10, 2.0)]),
            10,
        );
        assert!(ten.extract(5).is_empty());
        let servers = ten.extract(10);
        assert_eq!(servers.len(), 1);
        assert_eq!(servers[0].series.step_min(), 10);
    }

    #[test]
    fn empty_batch_round_trips() {
        let empty = ColumnarBatch::from_records(&RecordBatch::default(), 5);
        assert!(empty.is_empty());
        let back = ColumnarBatch::decode(&empty.encode()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.total_points(), 0);
    }
}
