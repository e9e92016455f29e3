//! Durable deploys and restart recovery for the serving layer.
//!
//! The in-memory [`SnapshotStore`](crate::SnapshotStore) loses everything
//! when the process dies. This module makes deployments crash-safe:
//!
//! 1. **Persisted snapshots** — at publish time every [`ModelSnapshot`] is
//!    serialized (an `SGSS` [`frame`]) and written to a [`BlobStore`] under a
//!    per-region sequence number.
//! 2. **Deploy journal** — after the snapshot blob lands, a [`DeployRecord`]
//!    is appended to the deploy journal (one `SGJL` [`frame`] per successful
//!    deploy). Only then is the snapshot published in memory, so the durable
//!    state never runs ahead of what a restart could recover and the
//!    in-memory state never runs ahead of the journal by more than the
//!    in-flight deploy.
//! 3. **Recovery** — [`DurableServeSink::recover`] walks the journal's
//!    segments up to the first that is missing, torn or no deploy record,
//!    then each region's records newest-first, and republishes the first
//!    snapshot blob whose footer is the one the journal recorded and whose
//!    frame opens (the footer is the checksum of its bytes). A torn or
//!    missing newest snapshot therefore falls back to the previous journaled
//!    epoch — never a torn read.
//!
//! Write ordering is the crux: snapshot blob → journal record → in-memory
//! publish. A crash between any two steps leaves at most one orphaned blob
//! (overwritten when the region re-deploys under the same sequence number)
//! and the journal never references a snapshot that was not fully written
//! first — modulo torn writes, which the checksums catch on replay.
//!
//! ## Why one segment blob per record
//!
//! [`BlobStore`] has no append, so an "append" must be a `put` somewhere. A
//! whole-journal rewrite on every append is the obvious encoding, but it is
//! not crash-safe: tearing the rewrite mid-blob destroys *committed*
//! records, not just the in-flight one — and other subsystems (the fleet
//! runner's completion markers) may already hold durable references to those
//! deploys. The crash-injection sweep caught exactly that: a torn journal
//! rewrite during week N's last deploy erased earlier week-N records whose
//! checkpoint markers were intact, so the restart skipped their regions and
//! served week N−1. The journal is therefore stored as numbered *segments*
//! ([`journal_segment_key`]), one per append, walked in order on recovery
//! until the first missing or torn segment. The blast radius of a torn
//! append is exactly the record being appended, never history — and each
//! append writes O(record) bytes, not O(journal).

use crate::service::ServeService;
use crate::snapshot::{ModelSnapshot, ServedServer};
use seagull_core::pipeline::{DeployEvent, DeploySink, GateState};
use seagull_telemetry::blobstore::{Blob, BlobKey, BlobStore};
use seagull_telemetry::frame::{self, Cursor, FrameError, Overrun, JOURNAL_MAGIC, JOURNAL_VERSION};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io;
use std::sync::{Arc, Mutex, PoisonError};

/// Magic bytes opening every serialized snapshot blob.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"SGSS";

/// Current snapshot-codec format version (1 was sealed with the single-chain
/// checksum; 2 carried no gate, and a server read from it would be served
/// with none).
pub const SNAPSHOT_VERSION: u16 = 3;

/// Blob kind under which serialized snapshots are stored (the key's week
/// slot carries the per-region deploy sequence number).
pub const SNAPSHOT_KIND: &str = "snapshot";

/// Blob kind of the deploy journal.
pub const JOURNAL_KIND: &str = "journal";

/// The blob key of one persisted snapshot: per-region, sequence-numbered.
pub fn snapshot_key(region: &str, seq: u64) -> BlobKey {
    BlobKey {
        kind: SNAPSHOT_KIND.into(),
        region: region.into(),
        week: seq as i64,
    }
}

/// The blob key of one deploy-journal segment. Segment `seg` holds the
/// `seg`-th appended record (see the module docs for why the journal is
/// segmented instead of rewritten whole).
pub fn journal_segment_key(seg: u64) -> BlobKey {
    BlobKey {
        kind: JOURNAL_KIND.into(),
        region: "deploys".into(),
        week: seg as i64,
    }
}

/// Why a persisted blob could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The frame did not open: torn, not this format, or a version this
    /// build does not read.
    Frame(FrameError),
    /// The checksum passed but the structure is inconsistent (an encoder
    /// bug or a deliberate forgery, not a torn write).
    Malformed(
        /// What was inconsistent.
        String,
    ),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Frame(e) => write!(f, "persisted blob: {e}"),
            PersistError::Malformed(why) => write!(f, "malformed blob: {why}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<FrameError> for PersistError {
    fn from(e: FrameError) -> PersistError {
        PersistError::Frame(e)
    }
}

impl From<Overrun> for PersistError {
    fn from(_: Overrun) -> PersistError {
        PersistError::Malformed("field overruns blob".into())
    }
}

fn take_string(r: &mut Cursor<'_>) -> Result<String, PersistError> {
    let len = r.u32()? as usize;
    String::from_utf8(r.take(len)?.to_vec())
        .map_err(|_| PersistError::Malformed("string not utf-8".into()))
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// Snapshot codec (SGSS)
// ---------------------------------------------------------------------------

/// Bytes of one server's block besides its values.
const SERVER_BLOCK: usize = 34;

/// Serializes a snapshot's durable half as the body of an `SGSS` [`frame`]:
/// registry version, week, region, model name, the server count, then one
/// block per server in ascending id order (id, materialized day, backup
/// duration, grid step, value count, the gate's two counts, values).
///
/// Attached fitted models are *not* serialized — after recovery, servers
/// answer from their materialized prediction only, exactly like a deploy
/// of the production persistent forecast, which attaches none.
pub fn encode_snapshot(snapshot: &ModelSnapshot) -> Blob {
    // The exact size (44 fixed bytes with the footer, 34 per server besides
    // its values), so a deploy never regrows and recopies the buffer.
    let points: usize = snapshot.servers().map(|(_, s)| s.prediction().len()).sum();
    let strings = snapshot.region().len() + snapshot.model_name().len();
    let wire_len = 44 + strings + SERVER_BLOCK * snapshot.len() + 8 * points;
    let mut out = Vec::with_capacity(wire_len);
    out.extend_from_slice(&frame::header(SNAPSHOT_MAGIC, SNAPSHOT_VERSION));
    out.extend_from_slice(&snapshot.version().to_le_bytes());
    out.extend_from_slice(&snapshot.week_start_day().to_le_bytes());
    put_string(&mut out, snapshot.region());
    put_string(&mut out, snapshot.model_name());
    out.extend_from_slice(&(snapshot.len() as u32).to_le_bytes());
    for (id, server) in snapshot.servers() {
        let prediction = server.prediction();
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&server.materialized_day().to_le_bytes());
        out.extend_from_slice(&server.duration_min().to_le_bytes());
        out.extend_from_slice(&prediction.step_min().to_le_bytes());
        out.extend_from_slice(&(prediction.len() as u32).to_le_bytes());
        let gate = server.gate();
        out.extend_from_slice(&[gate.to_score, gate.to_pass]);
        // Inside the reservation: grows the length, never the buffer.
        let at = out.len();
        out.resize(at + 8 * prediction.len(), 0);
        for (word, v) in out[at..].chunks_exact_mut(8).zip(prediction.values()) {
            word.copy_from_slice(&v.to_le_bytes());
        }
    }
    let blob = frame::seal(out);
    debug_assert_eq!(blob.len(), wire_len, "the reservation is the blob's size");
    blob
}

/// Decodes a blob written by [`encode_snapshot`]. [`frame::open`] verifies
/// the checksum *before* any structure is trusted — a torn write fails there
/// as a torn frame, never a partially-built snapshot. Behind a checksum that
/// holds, the body must be what the encoder writes and nothing else: server
/// ids strictly ascending, every server a day-aligned series, no byte left
/// over; anything else is [`PersistError::Malformed`]. Each value is copied
/// once, from the blob into the series that serves it.
pub fn decode_snapshot(blob: &[u8]) -> Result<ModelSnapshot, PersistError> {
    let mut r = Cursor::new(frame::open(blob, SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?);
    let model_version = r.u64()?;
    let week_start_day = r.i64()?;
    let region = take_string(&mut r)?;
    let model_name = take_string(&mut r)?;
    // The checksum is no MAC, so both counts below are outside input and
    // must not size an allocation on their own word: a server is at least
    // `SERVER_BLOCK` bytes, and a server's values are taken from the blob
    // before any are stored.
    let servers = r.u32()? as usize;
    if servers > r.rest().len() / SERVER_BLOCK {
        return Err(PersistError::Malformed(format!(
            "{servers} servers cannot fit in {} bytes",
            r.rest().len()
        )));
    }
    let mut table = Vec::with_capacity(servers);
    let mut previous = None;
    for _ in 0..servers {
        let server_id = r.u64()?;
        // Out of order, a blob would decode to a snapshot that re-encodes
        // to other bytes; a repeated id would lose a server its journal
        // record counts.
        if let Some(previous) = previous.filter(|&p| server_id <= p) {
            return Err(PersistError::Malformed(format!(
                "server {server_id} follows server {previous}"
            )));
        }
        previous = Some(server_id);
        let day = r.i64()?;
        let duration_min = r.i64()?;
        let step_min = r.u32()?;
        let len = r.u32()? as usize;
        let gate = r.take(2)?;
        let gate = GateState {
            to_score: gate[0],
            to_pass: gate[1],
        };
        let values: Arc<[f64]> = r
            .take(len.saturating_mul(8))?
            .chunks_exact(8)
            .map(|v| f64::from_le_bytes(v.try_into().expect("8 bytes")))
            .collect();
        let server = ServedServer::materialized(day, step_min, values, duration_min, gate)
            .ok_or_else(|| {
                PersistError::Malformed(format!("server {server_id} forms no day-aligned series"))
            })?;
        table.push((server_id, server));
    }
    if !r.rest().is_empty() {
        return Err(PersistError::Malformed(
            "trailing bytes after servers".into(),
        ));
    }
    Ok(ModelSnapshot::from_servers(
        region,
        model_version,
        week_start_day,
        model_name,
        table,
    ))
}

// ---------------------------------------------------------------------------
// Deploy journal records
// ---------------------------------------------------------------------------

/// One successful deployment, as journaled: the body of one `SGJL`
/// [`frame`], which is one journal segment. The frame checksums the record;
/// the record carries the footer of the snapshot blob it references, and the
/// snapshot's own frame pins its bytes to that footer, so recovery can detect
/// a snapshot that was overwritten or torn after the journal record landed
/// without hashing it twice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeployRecord {
    /// Region the deployment belongs to.
    pub region: String,
    /// Per-region deploy sequence number (the snapshot blob's key slot).
    pub seq: u64,
    /// Version that started serving: the model registry's number for the
    /// deploy, which `ModelRegistry::deployed` reports until the next one.
    pub version: u64,
    /// First day of the training week.
    pub week_start_day: i64,
    /// Name of the deployed forecaster.
    pub model_name: String,
    /// The persisted snapshot blob's frame footer ([`frame::footer`]): the
    /// checksum `seal` wrote over everything before it.
    pub snapshot_checksum: u64,
    /// Servers carried by the snapshot.
    pub servers: u32,
}

impl DeployRecord {
    /// Serializes the record as one sealed journal segment.
    pub fn encode(&self) -> Blob {
        let wire_len = 60 + self.region.len() + self.model_name.len();
        let mut out = Vec::with_capacity(wire_len);
        out.extend_from_slice(&frame::header(JOURNAL_MAGIC, JOURNAL_VERSION));
        put_string(&mut out, &self.region);
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.week_start_day.to_le_bytes());
        put_string(&mut out, &self.model_name);
        out.extend_from_slice(&self.snapshot_checksum.to_le_bytes());
        out.extend_from_slice(&self.servers.to_le_bytes());
        let segment = frame::seal(out);
        debug_assert_eq!(
            segment.len(),
            wire_len,
            "the reservation is the segment's size"
        );
        segment
    }

    /// Reads back a segment written by [`DeployRecord::encode`]:
    /// [`PersistError::Frame`] when the frame does not open,
    /// [`PersistError::Malformed`] when it does and holds something else.
    pub fn decode(segment: &[u8]) -> Result<DeployRecord, PersistError> {
        let mut r = Cursor::new(frame::open(segment, JOURNAL_MAGIC, JOURNAL_VERSION)?);
        let record = DeployRecord {
            region: take_string(&mut r)?,
            seq: r.u64()?,
            version: r.u64()?,
            week_start_day: r.i64()?,
            model_name: take_string(&mut r)?,
            snapshot_checksum: r.u64()?,
            servers: r.u32()?,
        };
        if !r.rest().is_empty() {
            return Err(PersistError::Malformed(
                "trailing bytes after record".into(),
            ));
        }
        // The sequence number is the snapshot key's `i64` slot, and the
        // region's next deploy takes the one after it.
        if record.seq >= i64::MAX as u64 {
            return Err(PersistError::Malformed(format!(
                "sequence number {} is past the key space",
                record.seq
            )));
        }
        Ok(record)
    }
}

// ---------------------------------------------------------------------------
// The durable sink
// ---------------------------------------------------------------------------

/// What a [`DurableServeSink::recover`] pass found and restored.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Journal segments that opened and decoded, in order from the first.
    pub journal_records: usize,
    /// Size of the segment the journal ended at because it was torn or held
    /// no deploy record (0 when it ended at a missing segment).
    pub truncated_bytes: usize,
    /// Regions whose snapshot was restored and republished.
    pub snapshots_restored: usize,
    /// Journaled epochs skipped because their snapshot blob was missing
    /// (`NotFound`), torn, or not the blob the record's footer names (each
    /// skip falls back one epoch). Any other read error is no fallback:
    /// [`DurableServeSink::recover`] returns it.
    pub snapshot_fallbacks: usize,
    /// Regions with journal records but no recoverable snapshot at all.
    pub regions_unrecovered: Vec<String>,
    /// Total bytes read during recovery (journal + every snapshot blob
    /// examined) — the numerator of a replay-throughput measurement.
    pub bytes_replayed: u64,
}

#[derive(Default)]
struct SinkState {
    /// Leading journal segments known durable.
    durable: usize,
    /// Segments whose `put` has not succeeded yet, oldest first: segment
    /// `durable + i` of the journal. Written ahead of anything newer on the
    /// next deploy; empty on a healthy store.
    unflushed: VecDeque<Blob>,
    /// Next deploy sequence number per region (starts at 1).
    next_seq: BTreeMap<String, u64>,
}

/// A [`DeploySink`] that makes every deployment durable before it becomes
/// visible: snapshot blob first, journal record second, in-memory publish
/// last (see the module docs for why that order).
///
/// Register it with
/// [`AmlPipeline::with_deploy_sink`](seagull_core::pipeline::AmlPipeline::with_deploy_sink)
/// in place of the bare [`ServeService`]. On restart, build the replacement
/// with [`DurableServeSink::recover`], which republishes each region's
/// last-known-good snapshot from the blob store.
///
/// Durability failures never block serving: if the snapshot or journal put
/// returns an error, the deploy still publishes in memory and a counter
/// records the miss (availability over durability). A journal segment
/// whose put failed is kept in memory and written ahead of the next
/// deploy's, so the next successful put self-heals the durable copy.
pub struct DurableServeSink {
    serve: ServeService,
    store: Arc<dyn BlobStore>,
    state: Mutex<SinkState>,
}

impl DurableServeSink {
    /// Wraps a serving handle and a blob store with an empty journal (a
    /// fresh deployment history). Use [`DurableServeSink::recover`] when
    /// the store may already hold state from a previous process.
    pub fn new(serve: ServeService, store: Arc<dyn BlobStore>) -> DurableServeSink {
        DurableServeSink {
            serve,
            store,
            state: Mutex::new(SinkState::default()),
        }
    }

    /// Reads the deploy journal from `store` and republishes each
    /// region's newest recoverable snapshot into `serve`, returning the
    /// sink (primed to continue the journal where it left off) and a
    /// [`RecoveryReport`].
    ///
    /// Per region, records are walked newest-first and the first snapshot
    /// blob whose footer matches the record and whose frame opens (one hash
    /// of its bytes) is published — so a torn or missing newest snapshot falls
    /// back to the previous journaled epoch. A missing journal is a fresh
    /// start, not an error; a segment that is not ours (wrong magic or
    /// version) is, and so is any journal or snapshot read that fails with
    /// anything but `NotFound`: a transient error on the newest snapshot
    /// must not republish an older epoch as if that snapshot were gone.
    ///
    /// Recovery progress lands in `serve`'s metrics registry as stable
    /// counters (`seagull_recovery_*`), so `stable_export()` stays
    /// deterministic for identical recoveries.
    pub fn recover(
        serve: ServeService,
        store: Arc<dyn BlobStore>,
    ) -> io::Result<(DurableServeSink, RecoveryReport)> {
        let mut report = RecoveryReport::default();
        // Walk journal segments in order, grouping records per region in
        // append (= sequence) order. A segment is one of three things: a
        // deploy record; foreign, which recovery must not guess at; or the
        // end of the journal — torn (the append a crash interrupted) or
        // intact around something that is no deploy record. Appends are
        // sequential, so nothing valid lies past the end, and the segment is
        // not durable: the next deploy overwrites it.
        let mut by_region: BTreeMap<String, Vec<DeployRecord>> = BTreeMap::new();
        let mut next_seq: BTreeMap<String, u64> = BTreeMap::new();
        loop {
            let segment = match store.get(&journal_segment_key(report.journal_records as u64)) {
                Ok(segment) => segment,
                Err(e) if e.kind() == io::ErrorKind::NotFound => break,
                Err(e) => return Err(e),
            };
            report.bytes_replayed += segment.len() as u64;
            let record = match DeployRecord::decode(&segment) {
                Ok(record) => record,
                Err(PersistError::Frame(e)) if !e.is_torn() => {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
                }
                Err(_) => {
                    report.truncated_bytes = segment.len();
                    break;
                }
            };
            report.journal_records += 1;
            let next = next_seq.entry(record.region.clone()).or_insert(1);
            *next = (*next).max(record.seq + 1);
            by_region
                .entry(record.region.clone())
                .or_default()
                .push(record);
        }

        for (region, records) in &by_region {
            let mut restored = false;
            for record in records.iter().rev() {
                match store.get(&snapshot_key(region, record.seq)) {
                    Ok(blob) => {
                        report.bytes_replayed += blob.len() as u64;
                        // The record pins the footer, `open` pins the bytes
                        // to the footer: one hash binds the blob to its epoch.
                        if frame::footer(&blob) == Some(record.snapshot_checksum) {
                            if let Ok(snapshot) = decode_snapshot(&blob) {
                                serve.publish(snapshot);
                                report.snapshots_restored += 1;
                                restored = true;
                                break;
                            }
                        }
                        report.snapshot_fallbacks += 1;
                    }
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {
                        report.snapshot_fallbacks += 1;
                    }
                    Err(e) => return Err(e),
                }
            }
            if !restored {
                report.regions_unrecovered.push(region.clone());
            }
        }

        let registry = serve.obs().registry();
        registry
            .counter("seagull_recovery_journal_records_replayed_total", &[])
            .add(report.journal_records as u64);
        registry
            .counter("seagull_recovery_snapshots_restored_total", &[])
            .add(report.snapshots_restored as u64);
        registry
            .counter("seagull_recovery_snapshot_fallbacks_total", &[])
            .add(report.snapshot_fallbacks as u64);
        registry
            .counter("seagull_recovery_torn_tails_truncated_total", &[])
            .add(u64::from(report.truncated_bytes > 0));

        let sink = DurableServeSink {
            serve,
            store,
            state: Mutex::new(SinkState {
                durable: report.journal_records,
                next_seq,
                ..SinkState::default()
            }),
        };
        Ok((sink, report))
    }

    /// The serving handle deployments publish into.
    pub fn serve(&self) -> &ServeService {
        &self.serve
    }

    /// Records journaled so far, durable or still waiting for their `put`.
    pub fn journal_records(&self) -> usize {
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.durable + st.unflushed.len()
    }

    /// The next deploy sequence number for a region (1 before any deploy).
    pub fn next_seq(&self, region: &str) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .next_seq
            .get(region)
            .copied()
            .unwrap_or(1)
    }
}

impl DeploySink for DurableServeSink {
    /// Persist-then-publish: snapshot blob, journal record, in-memory swap.
    ///
    /// A crash (panic) inside either put propagates out before the publish,
    /// so a killed deploy is never visible in memory and at worst leaves a
    /// torn trailing blob for recovery's checksums to reject.
    fn on_deploy(&self, event: &DeployEvent<'_>) {
        let snapshot = ModelSnapshot::from_deploy(event);
        let blob = encode_snapshot(&snapshot);
        let snapshot_checksum = frame::footer(&blob).expect("a sealed snapshot");
        let registry = self.serve.obs().registry();
        {
            let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            let seq = st.next_seq.get(event.region).copied().unwrap_or(1);
            match self.store.put(&snapshot_key(event.region, seq), blob) {
                Ok(()) => {
                    let record = DeployRecord {
                        region: event.region.to_string(),
                        seq,
                        version: event.version,
                        week_start_day: event.week_start_day,
                        model_name: event.model_name.to_string(),
                        snapshot_checksum,
                        servers: snapshot.len() as u32,
                    };
                    st.unflushed.push_back(record.encode());
                    st.next_seq.insert(event.region.to_string(), seq + 1);
                    // Flush oldest-first: appending never rewrites committed
                    // segments, so a torn put can only lose the record it
                    // carries, and a segment whose put failed is retried
                    // here ahead of the new one, healing the gap before
                    // anything newer lands.
                    while let Some(segment) = st.unflushed.front() {
                        let key = journal_segment_key(st.durable as u64);
                        if self.store.put(&key, segment.clone()).is_ok() {
                            st.unflushed.pop_front();
                            st.durable += 1;
                        } else {
                            registry
                                .counter("seagull_durable_journal_put_failures_total", &[])
                                .inc();
                            break;
                        }
                    }
                }
                Err(_) => {
                    registry
                        .counter("seagull_durable_snapshot_put_failures_total", &[])
                        .inc();
                }
            }
        }
        self.serve.publish(snapshot);
    }

    /// Failed deployment: nothing is journaled (the journal records only
    /// successful deploys) and the serving layer keeps last-known-good.
    fn on_fallback(&self, region: &str, week_start_day: i64) {
        DeploySink::on_fallback(&self.serve, region, week_start_day);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seagull_core::pipeline::{GateState, PredictionDoc};
    use seagull_telemetry::blobstore::MemoryBlobStore;

    fn doc(server_id: u64, day: i64, values: Vec<f64>) -> PredictionDoc {
        PredictionDoc {
            region: "west".into(),
            server_id,
            day,
            step_min: 30,
            values,
            duration_min: 60,
            gate: GateState::OPEN,
        }
    }

    fn snap(version: u64) -> ModelSnapshot {
        ModelSnapshot::from_predictions(
            "west",
            version,
            7,
            "persistent-prev-day",
            &[
                doc(7, 14, (0..48).map(|i| i as f64).collect()),
                PredictionDoc {
                    gate: GateState {
                        to_score: 0,
                        to_pass: 2,
                    },
                    ..doc(9, 15, vec![2.5; 48])
                },
            ],
        )
    }

    fn deploy(sink: &DurableServeSink, version: u64, predictions: &[PredictionDoc]) {
        sink.on_deploy(&DeployEvent {
            region: "west",
            version,
            week_start_day: 7,
            model_name: "persistent-prev-day",
            predictions,
            cache: None,
        });
    }

    /// The single-chain FNV-1a every frame was sealed with before the
    /// four-lane `checksum64` (`frame`'s own test reference, again here).
    fn single_lane(data: &[u8]) -> u64 {
        data.chunks(8).fold(frame::FNV_OFFSET, |h, chunk| {
            let word = chunk.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
            frame::fnv_step(h, word ^ (((chunk.len() % 8) as u64) << 56))
        })
    }

    #[test]
    fn snapshot_codec_round_trips() {
        let original = snap(3);
        let blob = encode_snapshot(&original);
        // The body, hashed with the single-chain reference: only a moved
        // body byte fails the pin.
        let body = &blob[frame::HEADER_LEN..blob.len() - frame::FOOTER_LEN];
        assert_eq!(single_lane(body), 0x275e_4f74_7d45_d1c7, "wire bytes moved");
        let decoded = decode_snapshot(&blob).unwrap();
        assert_eq!(decoded.region(), "west");
        assert_eq!(decoded.version(), 3);
        assert_eq!(decoded.week_start_day(), 7);
        assert_eq!(decoded.model_name(), "persistent-prev-day");
        assert_eq!(decoded.len(), 2);
        for id in original.server_ids() {
            let a = original.server(id).unwrap();
            let b = decoded.server(id).unwrap();
            assert_eq!(a.prediction().values(), b.prediction().values());
            assert_eq!(a.materialized_day(), b.materialized_day());
            assert_eq!(a.duration_min(), b.duration_min());
            assert_eq!(a.gate(), b.gate());
        }
        assert_eq!(decoded.server(9).unwrap().gate().to_pass, 2);
    }

    #[test]
    fn torn_snapshot_blob_fails_checksum_first() {
        let blob = encode_snapshot(&snap(1));
        for cut in [1, 8, 20, blob.len() - 1] {
            let torn = &blob[..cut];
            let err = decode_snapshot(torn).unwrap_err();
            assert!(
                matches!(err, PersistError::Frame(e) if e.is_torn()),
                "cut {cut}: {err}"
            );
        }
        // Bit-flip anywhere in the body is also caught by the footer.
        let mut flipped = blob.to_vec();
        flipped[10] ^= 0x40;
        assert!(matches!(
            decode_snapshot(&flipped).unwrap_err(),
            PersistError::Frame(FrameError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn deploy_record_round_trips() {
        let record = DeployRecord {
            region: "west".into(),
            seq: 4,
            version: 9,
            week_start_day: 21,
            model_name: "m".into(),
            snapshot_checksum: 0xDEAD_BEEF,
            servers: 12,
        };
        assert_eq!(DeployRecord::decode(&record.encode()).unwrap(), record);
        assert!(DeployRecord::decode(&record.encode()[..5]).is_err());
    }

    #[test]
    fn deploys_persist_and_recover() {
        let store: Arc<dyn BlobStore> = Arc::new(MemoryBlobStore::new());
        let sink = DurableServeSink::new(ServeService::with_defaults(), Arc::clone(&store));
        deploy(&sink, 1, &[doc(7, 14, vec![1.0; 48])]);
        deploy(&sink, 2, &[doc(7, 14, vec![2.0; 48])]);
        assert_eq!(sink.journal_records(), 2);
        assert_eq!(sink.next_seq("west"), 3);
        assert_eq!(sink.serve().snapshot("west").unwrap().version(), 2);

        // "Restart": fresh service, recover from the same store.
        let (recovered, report) =
            DurableServeSink::recover(ServeService::with_defaults(), store).unwrap();
        assert_eq!(report.journal_records, 2);
        assert_eq!(report.snapshots_restored, 1);
        assert_eq!(report.snapshot_fallbacks, 0);
        assert_eq!(report.truncated_bytes, 0);
        assert!(report.regions_unrecovered.is_empty());
        let snapshot = recovered.serve().snapshot("west").unwrap();
        assert_eq!(snapshot.version(), 2);
        assert_eq!(
            snapshot.server(7).unwrap().prediction().values(),
            &[2.0; 48][..]
        );
        assert_eq!(recovered.next_seq("west"), 3);
        let export = recovered.serve().obs().stable_export();
        assert!(export.contains("seagull_recovery_journal_records_replayed_total"));
    }

    #[test]
    fn torn_newest_snapshot_falls_back_to_previous_epoch() {
        let store: Arc<dyn BlobStore> = Arc::new(MemoryBlobStore::new());
        let sink = DurableServeSink::new(ServeService::with_defaults(), Arc::clone(&store));
        deploy(&sink, 1, &[doc(7, 14, vec![1.0; 48])]);
        deploy(&sink, 2, &[doc(7, 14, vec![2.0; 48])]);
        // Tear the newest snapshot blob (seq 2) mid-write.
        let key = snapshot_key("west", 2);
        let whole = store.get(&key).unwrap();
        store.put(&key, whole.slice(0..whole.len() / 2)).unwrap();

        let (recovered, report) =
            DurableServeSink::recover(ServeService::with_defaults(), store).unwrap();
        assert_eq!(report.snapshot_fallbacks, 1);
        assert_eq!(report.snapshots_restored, 1);
        let snapshot = recovered.serve().snapshot("west").unwrap();
        assert_eq!(snapshot.version(), 1, "fell back to last-known-good");
        assert_eq!(
            snapshot.server(7).unwrap().prediction().values(),
            &[1.0; 48][..]
        );
    }

    /// Two deploys, then the seq-2 snapshot replaced by what `alter` makes of
    /// it; recovery must fall back exactly one epoch, to version 1.
    fn assert_newest_snapshot_falls_back(alter: impl Fn(Vec<u8>) -> Blob) {
        let store: Arc<dyn BlobStore> = Arc::new(MemoryBlobStore::new());
        let sink = DurableServeSink::new(ServeService::with_defaults(), Arc::clone(&store));
        deploy(&sink, 1, &[doc(7, 14, vec![1.0; 48])]);
        deploy(&sink, 2, &[doc(7, 14, vec![2.0; 48])]);
        let key = snapshot_key("west", 2);
        store
            .put(&key, alter(store.get(&key).unwrap().to_vec()))
            .unwrap();

        let (recovered, report) =
            DurableServeSink::recover(ServeService::with_defaults(), store).unwrap();
        assert_eq!(report.snapshot_fallbacks, 1);
        assert_eq!(report.snapshots_restored, 1);
        assert!(report.regions_unrecovered.is_empty());
        assert_eq!(recovered.serve().snapshot("west").unwrap().version(), 1);
    }

    /// The case a second hash of the whole blob used to catch: the footer is
    /// still the one journaled, a value byte is not what it sealed. `open`
    /// hashes the bytes against that footer and refuses them.
    #[test]
    fn altered_value_under_the_journaled_footer_falls_back() {
        assert_newest_snapshot_falls_back(|mut blob| {
            let value = blob.len() - frame::FOOTER_LEN - 3; // a byte of the last value
            blob[value] ^= 0x10;
            Blob::from(blob)
        });
    }

    /// An intact frame that is not the snapshot the record names (another
    /// epoch's bytes, re-sealed): its footer is not the journaled one.
    #[test]
    fn resealed_snapshot_under_another_footer_falls_back() {
        assert_newest_snapshot_falls_back(|mut blob| {
            blob.truncate(blob.len() - frame::FOOTER_LEN);
            let value = blob.len() - 3;
            blob[value] ^= 0x10;
            let resealed = frame::seal(blob);
            assert!(decode_snapshot(&resealed).is_ok(), "the frame itself opens");
            resealed
        });
    }

    /// A blob an earlier build sealed (the single-chain checksum, the version
    /// it wrote then) fails the checksum, which `open` checks before the
    /// version: it reads as torn, not foreign, and a journal from before ends
    /// at its first segment.
    #[test]
    fn blobs_sealed_by_an_earlier_build_read_as_torn() {
        let earlier = |magic: [u8; 4], version: u16, body: &[u8]| {
            let mut framed = frame::header(magic, version).to_vec();
            framed.extend_from_slice(body);
            let sum = single_lane(&framed);
            framed.extend_from_slice(&sum.to_le_bytes());
            framed
        };
        let snapshot = encode_snapshot(&snap(3));
        let body = &snapshot[frame::HEADER_LEN..snapshot.len() - frame::FOOTER_LEN];
        let old_snapshot = earlier(SNAPSHOT_MAGIC, 1, body);
        let err = decode_snapshot(&old_snapshot).unwrap_err();
        assert!(
            matches!(err, PersistError::Frame(e @ FrameError::ChecksumMismatch { .. }) if e.is_torn()),
            "{err}"
        );

        let record = DeployRecord {
            region: "west".into(),
            seq: 1,
            version: 3,
            week_start_day: 7,
            model_name: "persistent-prev-day".into(),
            // What an earlier build recorded: a second hash of the whole blob.
            snapshot_checksum: single_lane(&old_snapshot),
            servers: 2,
        }
        .encode();
        let record_body = &record[frame::HEADER_LEN..record.len() - frame::FOOTER_LEN];
        let old_segment = earlier(JOURNAL_MAGIC, 2, record_body);
        let err = DeployRecord::decode(&old_segment).unwrap_err();
        assert!(
            matches!(err, PersistError::Frame(e) if e.is_torn()),
            "{err}"
        );

        let store: Arc<dyn BlobStore> = Arc::new(MemoryBlobStore::new());
        store
            .put(&journal_segment_key(0), old_segment.clone().into())
            .unwrap();
        let (recovered, report) =
            DurableServeSink::recover(ServeService::with_defaults(), store).unwrap();
        assert_eq!(report.journal_records, 0);
        assert_eq!(report.truncated_bytes, old_segment.len());
        assert!(recovered.serve().regions().is_empty());
        assert_eq!(recovered.next_seq("west"), 1);
    }

    /// A blob no torn write leaves: every checksum holds, but `bytes`
    /// overwrite the first server's record `at` bytes in (its id is at 0,
    /// day at 8, duration at 16, step at 24, value count at 28, gate at 32;
    /// the server count sits just before it, at -4).
    fn forged_blob(snapshot: &ModelSnapshot, at: isize, bytes: &[u8]) -> Blob {
        let mut blob = encode_snapshot(snapshot).to_vec();
        let strings = 4 + snapshot.region().len() + 4 + snapshot.model_name().len();
        // Header, then the server count.
        let first = 4 + 2 + 2 + 8 + 8 + strings + 4;
        let id = snapshot.server_ids().next().unwrap();
        assert_eq!(blob[first..first + 8], id.to_le_bytes());
        let at = first.checked_add_signed(at).unwrap();
        blob[at..at + bytes.len()].copy_from_slice(bytes);
        blob.truncate(blob.len() - frame::FOOTER_LEN);
        frame::seal(blob)
    }

    #[test]
    fn snapshot_off_the_day_grid_is_malformed_and_recovery_falls_back() {
        let forged = forged_blob(&snap(2), 24, &0u32.to_le_bytes());
        // A day whose first minute is past `i64`, and one whose last is.
        let starts_late = forged_blob(&snap(2), 8, &(i64::MAX / 1440 + 1).to_le_bytes());
        let ends_late = forged_blob(&snap(2), 8, &(i64::MAX / 1440).to_le_bytes());
        for blob in [&forged, &starts_late, &ends_late] {
            let err = decode_snapshot(blob).unwrap_err();
            assert!(matches!(err, PersistError::Malformed(_)), "{err}");
        }

        // Journaled under its own checksum, as a faulty encoder would have
        // left it: recovery reaches the decoder and must come back with the
        // previous epoch, not a panic and not a snapshot short of a server.
        let store: Arc<dyn BlobStore> = Arc::new(MemoryBlobStore::new());
        let sink = DurableServeSink::new(ServeService::with_defaults(), Arc::clone(&store));
        deploy(&sink, 1, &[doc(7, 14, vec![1.0; 48])]);
        let record = DeployRecord {
            region: "west".into(),
            seq: 2,
            version: 2,
            week_start_day: 7,
            model_name: "persistent-prev-day".into(),
            snapshot_checksum: frame::footer(&forged).unwrap(),
            servers: 2,
        };
        store.put(&snapshot_key("west", 2), forged).unwrap();
        store.put(&journal_segment_key(1), record.encode()).unwrap();

        let (recovered, report) =
            DurableServeSink::recover(ServeService::with_defaults(), store).unwrap();
        assert_eq!(report.journal_records, 2);
        assert_eq!(report.snapshot_fallbacks, 1);
        assert_eq!(report.snapshots_restored, 1);
        assert_eq!(recovered.serve().snapshot("west").unwrap().version(), 1);
    }

    /// Every block whole and the checksum good, but the ids not in the order
    /// the encoder writes them. Accepted, server 7 would carry server 9's
    /// day 15 and the snapshot would re-encode to other bytes; with both ids
    /// 7, one server would vanish.
    #[test]
    fn server_ids_out_of_order_are_malformed() {
        let blob = encode_snapshot(&snap(2)).to_vec();
        let block = SERVER_BLOCK + 8 * 48;
        let first = blob.len() - frame::FOOTER_LEN - 2 * block;
        let second = first + block;
        assert_eq!(blob[first..first + 8], 7u64.to_le_bytes());
        assert_eq!(blob[second..second + 8], 9u64.to_le_bytes());
        let resealed = |ids: [u64; 2]| {
            let mut body = blob[..blob.len() - frame::FOOTER_LEN].to_vec();
            body[first..first + 8].copy_from_slice(&ids[0].to_le_bytes());
            body[second..second + 8].copy_from_slice(&ids[1].to_le_bytes());
            frame::seal(body)
        };
        assert!(decode_snapshot(&resealed([7, 9])).is_ok());
        assert!(decode_snapshot(&resealed([7, 8])).is_ok());
        for ids in [[9, 7], [7, 7], [9, 9]] {
            let err = decode_snapshot(&resealed(ids)).unwrap_err();
            assert!(matches!(err, PersistError::Malformed(_)), "{ids:?}: {err}");
        }
    }

    /// A version-2 blob, whole and sealed under its footer, carries no gate:
    /// it is refused as a version this build does not read, and recovery
    /// counts it as a fallback to the epoch before instead of serving its
    /// servers with no gate.
    #[test]
    fn version_2_snapshot_is_refused_and_recovery_falls_back() {
        // The version-2 body of `snap(2)`: each server block without the
        // two gate bytes that close its fixed part.
        let v3 = encode_snapshot(&snap(2));
        let mut body = v3[frame::HEADER_LEN..v3.len() - frame::FOOTER_LEN].to_vec();
        let block = SERVER_BLOCK + 8 * 48;
        let second = body.len() - block;
        let first = second - block;
        for at in [second, first] {
            body.drain(at + SERVER_BLOCK - 2..at + SERVER_BLOCK);
        }
        let mut framed = frame::header(SNAPSHOT_MAGIC, 2).to_vec();
        framed.extend_from_slice(&body);
        let v2 = frame::seal(framed);
        assert_eq!(v2.len(), v3.len() - 4);
        assert_eq!(
            decode_snapshot(&v2).unwrap_err(),
            PersistError::Frame(FrameError::UnsupportedVersion { version: 2 })
        );

        let store: Arc<dyn BlobStore> = Arc::new(MemoryBlobStore::new());
        let sink = DurableServeSink::new(ServeService::with_defaults(), Arc::clone(&store));
        deploy(&sink, 1, &[doc(7, 14, vec![1.0; 48])]);
        let record = DeployRecord {
            region: "west".into(),
            seq: 2,
            version: 2,
            week_start_day: 7,
            model_name: "persistent-prev-day".into(),
            snapshot_checksum: frame::footer(&v2).unwrap(),
            servers: 2,
        };
        store.put(&snapshot_key("west", 2), v2).unwrap();
        store.put(&journal_segment_key(1), record.encode()).unwrap();
        let (recovered, report) =
            DurableServeSink::recover(ServeService::with_defaults(), store).unwrap();
        assert_eq!(report.journal_records, 2);
        assert_eq!(report.snapshot_fallbacks, 1);
        assert_eq!(report.snapshots_restored, 1);
        assert_eq!(recovered.serve().snapshot("west").unwrap().version(), 1);
    }

    #[test]
    fn server_count_past_the_blob_is_malformed_not_allocated() {
        for count in [u32::MAX, 3] {
            let forged = forged_blob(&snap(2), -4, &count.to_le_bytes());
            let err = decode_snapshot(&forged).unwrap_err();
            assert!(matches!(err, PersistError::Malformed(_)), "{err}");
        }
    }

    #[test]
    fn value_count_past_the_blob_is_malformed_not_allocated() {
        let whole = encode_snapshot(&snap(2)).len();
        for count in [u32::MAX, (whole / 8) as u32] {
            let forged = forged_blob(&snap(2), 28, &count.to_le_bytes());
            let err = decode_snapshot(&forged).unwrap_err();
            assert!(matches!(err, PersistError::Malformed(_)), "{err}");
        }
    }

    #[test]
    fn torn_journal_tail_truncates_to_last_good_record() {
        let store: Arc<dyn BlobStore> = Arc::new(MemoryBlobStore::new());
        let sink = DurableServeSink::new(ServeService::with_defaults(), Arc::clone(&store));
        deploy(&sink, 1, &[doc(7, 14, vec![1.0; 48])]);
        deploy(&sink, 2, &[doc(7, 14, vec![2.0; 48])]);
        // Tear the second append's segment mid-record.
        let key = journal_segment_key(1);
        let whole = store.get(&key).unwrap();
        store.put(&key, whole.slice(0..whole.len() - 4)).unwrap();

        let (recovered, report) =
            DurableServeSink::recover(ServeService::with_defaults(), Arc::clone(&store)).unwrap();
        assert_eq!(report.journal_records, 1);
        assert!(report.truncated_bytes > 0);
        // Only the journaled epoch is recovered, even though the seq-2 blob
        // is intact: the journal is the authority.
        assert_eq!(recovered.serve().snapshot("west").unwrap().version(), 1);
        // The healed journal continues from the truncated prefix,
        // overwriting the torn segment.
        assert_eq!(recovered.next_seq("west"), 2);
        deploy(&recovered, 5, &[doc(7, 14, vec![5.0; 48])]);
        assert_eq!(recovered.journal_records(), 2);
        let (again, report2) =
            DurableServeSink::recover(ServeService::with_defaults(), store).unwrap();
        assert_eq!(report2.journal_records, 2);
        assert_eq!(report2.truncated_bytes, 0);
        assert_eq!(again.serve().snapshot("west").unwrap().version(), 5);
    }

    /// The regression the crash sweep caught: when the journal was a single
    /// blob rewritten on every append, tearing the rewrite destroyed
    /// *committed* records, so a crash during deploy N un-journaled deploys
    /// < N whose completion markers were already durable. With segmented
    /// appends, a torn append loses exactly the in-flight record.
    #[test]
    fn torn_journal_append_never_destroys_committed_records() {
        let store: Arc<dyn BlobStore> = Arc::new(MemoryBlobStore::new());
        let sink = DurableServeSink::new(ServeService::with_defaults(), Arc::clone(&store));
        deploy(&sink, 1, &[doc(7, 14, vec![1.0; 48])]);
        deploy(&sink, 2, &[doc(7, 14, vec![2.0; 48])]);
        deploy(&sink, 3, &[doc(7, 14, vec![3.0; 48])]);
        // Crash-tear the third append at every prefix length, including the
        // zero-byte prefix a crash at the very start of the put leaves.
        let key = journal_segment_key(2);
        let whole = store.get(&key).unwrap();
        for cut in 0..whole.len() {
            store.put(&key, whole.slice(0..cut)).unwrap();
            let (recovered, report) =
                DurableServeSink::recover(ServeService::with_defaults(), Arc::clone(&store))
                    .unwrap();
            assert_eq!(report.journal_records, 2, "cut at {cut}");
            assert_eq!(
                recovered.serve().snapshot("west").unwrap().version(),
                2,
                "cut at {cut}: both committed deploys must survive"
            );
        }
    }

    /// FNV-1a is no MAC and the segment comes from a store: one that opens
    /// but holds no deploy record ends the journal like a torn one — counted,
    /// not durable, overwritten by the next deploy — instead of hiding every
    /// later deploy behind it.
    #[test]
    fn undecodable_record_ends_the_journal_and_is_overwritten() {
        let store: Arc<dyn BlobStore> = Arc::new(MemoryBlobStore::new());
        let sink = DurableServeSink::new(ServeService::with_defaults(), Arc::clone(&store));
        deploy(&sink, 1, &[doc(7, 14, vec![1.0; 48])]);
        let mut forged = frame::header(JOURNAL_MAGIC, JOURNAL_VERSION).to_vec();
        forged.extend_from_slice(b"not a deploy record");
        let forged = frame::seal(forged);
        store.put(&journal_segment_key(1), forged.clone()).unwrap();

        let (recovered, report) =
            DurableServeSink::recover(ServeService::with_defaults(), Arc::clone(&store)).unwrap();
        assert_eq!(report.journal_records, 1);
        assert_eq!(report.truncated_bytes, forged.len());
        assert_eq!(recovered.journal_records(), 1);
        let torn_tails = |sink: &DurableServeSink| {
            let registry = sink.serve().obs().registry();
            registry
                .counter("seagull_recovery_torn_tails_truncated_total", &[])
                .get()
        };
        assert_eq!(torn_tails(&recovered), 1);

        deploy(&recovered, 5, &[doc(7, 14, vec![5.0; 48])]);
        let (again, report) =
            DurableServeSink::recover(ServeService::with_defaults(), store).unwrap();
        assert_eq!(report.journal_records, 2);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(torn_tails(&again), 0);
        assert_eq!(again.serve().snapshot("west").unwrap().version(), 5);
    }

    /// A store whose journal is down while the flag is set (a whole-store
    /// outage fails the snapshot put first and journals nothing).
    struct JournalOutage {
        inner: MemoryBlobStore,
        down: std::sync::atomic::AtomicBool,
    }

    impl BlobStore for JournalOutage {
        fn put(&self, key: &BlobKey, data: Blob) -> io::Result<()> {
            if key.kind == JOURNAL_KIND && self.down.load(std::sync::atomic::Ordering::SeqCst) {
                return Err(io::Error::other("journal unreachable"));
            }
            self.inner.put(key, data)
        }
        fn get(&self, key: &BlobKey) -> io::Result<Blob> {
            self.inner.get(key)
        }
        fn list(&self, kind: &str) -> io::Result<Vec<BlobKey>> {
            self.inner.list(kind)
        }
        fn size(&self, key: &BlobKey) -> io::Result<u64> {
            self.inner.size(key)
        }
        fn delete(&self, key: &BlobKey) -> io::Result<bool> {
            self.inner.delete(key)
        }
    }

    #[test]
    fn failed_journal_puts_are_held_and_flushed_oldest_first() {
        use std::sync::atomic::Ordering;
        let store = Arc::new(JournalOutage {
            inner: MemoryBlobStore::new(),
            down: false.into(),
        });
        let sink = DurableServeSink::new(
            ServeService::with_defaults(),
            Arc::clone(&store) as Arc<dyn BlobStore>,
        );
        let held = |sink: &DurableServeSink| {
            sink.state
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .unflushed
                .len()
        };
        let put_failures = |sink: &DurableServeSink| {
            let registry = sink.serve().obs().registry();
            registry
                .counter("seagull_durable_journal_put_failures_total", &[])
                .get()
        };
        const N: u64 = 5;
        for version in 1..=N {
            deploy(&sink, version, &[doc(7, 14, vec![version as f64; 48])]);
        }
        assert_eq!(held(&sink), 0, "a healthy store leaves nothing in memory");

        store.down.store(true, Ordering::SeqCst);
        deploy(&sink, N + 1, &[doc(7, 14, vec![0.5; 48])]);
        deploy(&sink, N + 2, &[doc(7, 14, vec![0.5; 48])]);
        assert_eq!(held(&sink), 2);
        assert_eq!(put_failures(&sink), 2);
        assert_eq!(sink.journal_records(), (N + 2) as usize);
        assert_eq!(store.list(JOURNAL_KIND).unwrap().len(), N as usize);

        store.down.store(false, Ordering::SeqCst);
        deploy(&sink, N + 3, &[doc(7, 14, vec![0.5; 48])]);
        assert_eq!(held(&sink), 0);
        assert_eq!(put_failures(&sink), 2);
        // Oldest first: segment i holds the i-th deploy.
        for seg in 0..N + 3 {
            let segment = store.get(&journal_segment_key(seg)).unwrap();
            assert_eq!(DeployRecord::decode(&segment).unwrap().version, seg + 1);
        }
        let (recovered, report) =
            DurableServeSink::recover(ServeService::with_defaults(), store).unwrap();
        assert_eq!(report.journal_records, (N + 3) as usize);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(recovered.serve().snapshot("west").unwrap().version(), N + 3);
    }

    /// A store whose `get` of one key, while that blob exists, fails with
    /// something other than `NotFound` (a timeout, a refused connection).
    struct ReadFault {
        inner: MemoryBlobStore,
        key: BlobKey,
    }

    impl BlobStore for ReadFault {
        fn put(&self, key: &BlobKey, data: Blob) -> io::Result<()> {
            self.inner.put(key, data)
        }
        fn get(&self, key: &BlobKey) -> io::Result<Blob> {
            let blob = self.inner.get(key)?;
            if *key == self.key {
                return Err(io::Error::other("snapshot read timed out"));
            }
            Ok(blob)
        }
        fn list(&self, kind: &str) -> io::Result<Vec<BlobKey>> {
            self.inner.list(kind)
        }
        fn size(&self, key: &BlobKey) -> io::Result<u64> {
            self.inner.size(key)
        }
        fn delete(&self, key: &BlobKey) -> io::Result<bool> {
            self.inner.delete(key)
        }
    }

    #[test]
    fn snapshot_read_error_is_returned_not_a_fallback() {
        let store = Arc::new(ReadFault {
            inner: MemoryBlobStore::new(),
            key: snapshot_key("west", 2),
        });
        let sink = DurableServeSink::new(
            ServeService::with_defaults(),
            Arc::clone(&store) as Arc<dyn BlobStore>,
        );
        deploy(&sink, 1, &[doc(7, 14, vec![1.0; 48])]);
        deploy(&sink, 2, &[doc(7, 14, vec![2.0; 48])]);

        let err = DurableServeSink::recover(
            ServeService::with_defaults(),
            Arc::clone(&store) as Arc<dyn BlobStore>,
        )
        .err()
        .expect("a failed snapshot read must not fall back to version 1");
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert_eq!(err.to_string(), "snapshot read timed out");

        // The same blob gone (`NotFound`) is still a fallback.
        store.inner.delete(&snapshot_key("west", 2)).unwrap();
        let (recovered, report) =
            DurableServeSink::recover(ServeService::with_defaults(), store as Arc<dyn BlobStore>)
                .unwrap();
        assert_eq!(report.snapshot_fallbacks, 1);
        assert!(report.regions_unrecovered.is_empty());
        assert_eq!(recovered.serve().snapshot("west").unwrap().version(), 1);
    }

    #[test]
    fn missing_journal_is_a_fresh_start() {
        let store: Arc<dyn BlobStore> = Arc::new(MemoryBlobStore::new());
        let (sink, report) =
            DurableServeSink::recover(ServeService::with_defaults(), store).unwrap();
        assert_eq!(report, RecoveryReport::default());
        assert_eq!(sink.journal_records(), 0);
        assert!(sink.serve().regions().is_empty());
    }

    /// A crash inside `on_deploy` unwinds through the `state` guard, which
    /// poisons the lock; the sink's readers still take it.
    #[test]
    fn state_lock_survives_a_crash_inside_on_deploy() {
        use seagull_telemetry::chaos::{ChaosBlobStore, ChaosConfig, CrashPoint, InjectedCrash};
        let store = ChaosBlobStore::new(Arc::new(MemoryBlobStore::new()), ChaosConfig::default());
        store.arm_crash(CrashPoint::on_key(
            snapshot_key("west", 2).to_string(),
            1,
            0.5,
        ));
        let sink = DurableServeSink::new(ServeService::with_defaults(), Arc::new(store));
        deploy(&sink, 1, &[doc(7, 14, vec![1.0; 48])]);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            deploy(&sink, 2, &[doc(7, 14, vec![2.0; 48])])
        }))
        .unwrap_err();
        assert!(died.downcast_ref::<InjectedCrash>().is_some());
        assert!(sink.state.is_poisoned());
        assert_eq!(sink.journal_records(), 1);
        assert_eq!(sink.next_seq("west"), 2);
    }
}
