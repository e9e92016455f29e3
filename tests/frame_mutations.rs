//! One seeded mutation sweep over every stored format (DESIGN.md "Frames").
//!
//! The blobs come from a store, FNV-1a is no MAC, and three decoder bugs in a
//! row were found by reading (ISSUEs 18–20). There is one `frame::open` now,
//! so the hunt is written once: over a valid blob of each format — a
//! three-server `SGCB`, a two-server `SGSS`, an `SGJL` deploy segment and a
//! checkpoint marker — every truncation, every single-bit flip of header and
//! footer, a seeded sample of body bits, every count / length / grid field,
//! every server id and every `SGCB` value width forged to 0, 1, `MAX`,
//! `MAX − 1` behind a valid checksum, and every blob
//! handed to the other formats' readers. A reader may refuse with a typed
//! error or accept a value that re-encodes to the bytes it was given; it may
//! not panic, hand out part of a record, or ask the allocator for more than
//! 8× the input + 64 KiB in one piece.
//!
//! This is the one place outside `seagull_linalg::kernel` with `unsafe`: the
//! counting allocator below, a test-only shim over `System`.

use seagull::core::fleet::{checkpoint_key, FleetRunner};
use seagull::core::pipeline::{AmlPipeline, GateState, PipelineConfig, PredictionDoc};
use seagull::serve::{
    decode_snapshot, encode_snapshot, journal_segment_key, DeployRecord, DurableServeSink,
    ModelSnapshot, PersistError, ServeService,
};
use seagull::telemetry::blobstore::{BlobStore, MemoryBlobStore};
use seagull::telemetry::chaos::DetRng;
use seagull::telemetry::columnar::{ColumnarBatch, ColumnarError};
use seagull::telemetry::extract::LoadExtraction;
use seagull::telemetry::fleet::{FleetGenerator, FleetSpec};
use seagull::telemetry::frame::{self, FrameError, FOOTER_LEN, HEADER_LEN};
use seagull::telemetry::record::{LoadRecord, RecordBatch};
use seagull::telemetry::server::ServerId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// The allocator shim
// ---------------------------------------------------------------------------

thread_local! {
    /// Largest single request this thread has made since it was last zeroed.
    /// Const-initialized and without a destructor, so touching it allocates
    /// nothing and the allocator below cannot re-enter itself.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // A thread past its TLS teardown is not one a test measures on.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

struct Counting;

// SAFETY: every method hands its arguments to `System` unchanged and returns
// what `System` returns; `note` touches one thread-local `Cell` and nothing
// the allocator owns.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

// ---------------------------------------------------------------------------
// Formats: a valid blob, its reader, and where its forgeable fields sit
// ---------------------------------------------------------------------------

/// What a reader made of a blob.
#[derive(Debug, PartialEq)]
enum Read {
    /// A typed error.
    Refused(String),
    /// A value; these are the bytes it encodes to.
    Accepted(Vec<u8>),
}

#[derive(Clone, Copy)]
enum Field {
    U8(usize),
    U32(usize),
    I64(usize),
    U64(usize),
}

type Reader = Box<dyn Fn(&[u8]) -> Read>;

struct Format {
    name: &'static str,
    blob: Vec<u8>,
    read: Reader,
    fields: Vec<Field>,
}

/// Where block `block` of an `SGCB` table starts.
fn sgcb_block_at(block: usize) -> usize {
    HEADER_LEN + 4 + 41 * block
}

fn sgcb() -> Format {
    let rec = |server: u64, ts: i64, cpu: f64| LoadRecord {
        server_id: ServerId(server),
        timestamp_min: ts,
        avg_cpu: cpu,
        default_backup_start: 1440,
        default_backup_end: 1500,
    };
    let rows = vec![
        rec(2, 10, 30.0),
        rec(1, 0, 12.345),
        rec(3, 5, 7.5),
        rec(1, 10, 20.0),
        rec(3, 20, 99.99),
        rec(2, 15, 700.0), // a load a narrow block cannot hold
    ];
    let blob = ColumnarBatch::from_records(&RecordBatch::new(rows), 5)
        .encode()
        .to_vec();
    // Block count, then per 41-byte block: server id (u64 at 0), backup
    // start, backup end, series start (i64 at 8, 16, 24), step and point
    // count (u32 at 32, 36), value width (u8 at 40; block 1 is wide).
    let mut fields = vec![Field::U32(HEADER_LEN)];
    for block in 0..3 {
        let at = sgcb_block_at(block);
        fields.push(Field::U64(at));
        fields.extend([8, 16, 24].map(|o| Field::I64(at + o)));
        fields.extend([32, 36].map(|o| Field::U32(at + o)));
        fields.push(Field::U8(at + 40));
    }
    Format {
        name: "SGCB",
        blob,
        read: Box::new(|blob| match ColumnarBatch::decode(blob) {
            Ok(batch) => {
                // What the pipeline does next with it.
                for server in batch.extract(5) {
                    let _ = server.series.end();
                }
                Read::Accepted(batch.encode().to_vec())
            }
            Err(e) => Read::Refused(e.to_string()),
        }),
        fields,
    }
}

fn sgss() -> Format {
    let doc = |server_id: u64, day: i64, values: Vec<f64>| PredictionDoc {
        region: "west".into(),
        server_id,
        day,
        step_min: 30,
        values,
        duration_min: 60,
        gate: GateState::OPEN,
    };
    let snapshot = ModelSnapshot::from_predictions(
        "west",
        3,
        7,
        "persistent-prev-day",
        &[
            doc(7, 14, (0..48).map(|i| i as f64).collect()),
            doc(9, 15, vec![2.5; 48]),
        ],
    );
    // Version u64, week i64, region (u32 + 4), model name (u32 + 19), server
    // count u32; per server id u64, day i64, duration i64, step u32, value
    // count u32, the gate's two u8 counts, 48 values.
    let week = HEADER_LEN + 8;
    let region_len = week + 8;
    let name_len = region_len + 4 + 4;
    let servers = name_len + 4 + 19;
    let mut fields = vec![
        Field::I64(week),
        Field::U32(region_len),
        Field::U32(name_len),
        Field::U32(servers),
    ];
    for server in 0..2 {
        let at = servers + 4 + server * (34 + 48 * 8);
        fields.extend([Field::U64(at), Field::I64(at + 8), Field::I64(at + 16)]);
        fields.extend([Field::U32(at + 24), Field::U32(at + 28)]);
        fields.extend([Field::U8(at + 32), Field::U8(at + 33)]);
    }
    Format {
        name: "SGSS",
        blob: encode_snapshot(&snapshot).to_vec(),
        read: Box::new(|blob| match decode_snapshot(blob) {
            Ok(snapshot) => Read::Accepted(encode_snapshot(&snapshot).to_vec()),
            Err(e) => Read::Refused(e.to_string()),
        }),
        fields,
    }
}

/// A deploy segment is read twice: by `DeployRecord::decode`, and by the
/// recovery that finds it first in a journal — which must agree with the
/// decoder on all three of its cases.
fn read_segment(blob: &[u8]) -> Read {
    let store = Arc::new(MemoryBlobStore::new());
    store
        .put(&journal_segment_key(0), blob.to_vec().into())
        .unwrap();
    let recovered = DurableServeSink::recover(ServeService::with_defaults(), store);
    match (DeployRecord::decode(blob), recovered) {
        (Ok(record), Ok((sink, report))) => {
            assert_eq!((report.journal_records, report.truncated_bytes), (1, 0));
            assert_eq!(sink.next_seq(&record.region), record.seq + 1);
            Read::Accepted(record.encode().to_vec())
        }
        (Err(PersistError::Frame(e)), Err(refused)) if !e.is_torn() => {
            assert_eq!(refused.kind(), io::ErrorKind::InvalidData);
            Read::Refused(e.to_string())
        }
        (Err(e), Ok((sink, report))) => {
            assert_eq!(
                (report.journal_records, report.truncated_bytes),
                (0, blob.len()),
                "the journal ends at a segment that is torn or no record: {e}"
            );
            assert_eq!(sink.journal_records(), 0);
            Read::Refused(e.to_string())
        }
        (decoded, recovered) => panic!(
            "decoder and recovery disagree: {decoded:?} against {:?}",
            recovered.map(|(_, report)| report)
        ),
    }
}

fn sgjl() -> Format {
    let record = DeployRecord {
        region: "west".into(),
        seq: 4,
        version: 9,
        week_start_day: 21,
        model_name: "persistent-prev-day".into(),
        snapshot_checksum: 0xDEAD_BEEF,
        servers: 12,
    };
    // Region (u32 + 4), seq u64, version u64, week i64, model name
    // (u32 + 19), snapshot checksum u64, server count u32.
    let seq = HEADER_LEN + 4 + 4;
    let name_len = seq + 24;
    Format {
        name: "SGJL deploy segment",
        blob: record.encode().to_vec(),
        read: Box::new(read_segment),
        fields: vec![
            Field::U32(HEADER_LEN),
            Field::U64(seq),
            Field::I64(seq + 16),
            Field::U32(name_len),
            Field::U32(name_len + 4 + 19 + 8),
        ],
    }
}

/// A checkpoint marker as a twelve-server fleet-week writes it, read the way
/// a restarted runner reads it. The reader answers yes or no, so a yes stands
/// for the one marker that says this region and week: the original.
fn marker() -> Format {
    let mut spec = FleetSpec::small_region(417);
    spec.regions[0].servers = 12;
    let week = spec.start_day;
    let regions = vec!["region-a".to_string()];
    let fleet = FleetGenerator::new(spec).generate_weeks(1);
    let telemetry = Arc::new(MemoryBlobStore::new());
    LoadExtraction::columnar(5)
        .run(&fleet, &regions, &[week], telemetry.as_ref())
        .unwrap();
    let config = PipelineConfig {
        threads: 1,
        ..PipelineConfig::production()
    };
    let marks = Arc::new(MemoryBlobStore::new());
    let runner = FleetRunner::new(AmlPipeline::new(config, telemetry), regions)
        .with_checkpoints(Arc::clone(&marks) as Arc<dyn BlobStore>);
    assert_eq!(runner.run_week(week).len(), 1);
    let key = checkpoint_key("region-a", week);
    let original = marks.get(&key).unwrap().to_vec();
    Format {
        name: "SGJL checkpoint marker",
        blob: original.clone(),
        read: Box::new(move |blob| {
            marks.put(&key, blob.to_vec().into()).unwrap();
            if runner.completed("region-a", week) {
                Read::Accepted(original.clone())
            } else {
                Read::Refused("not an intact marker for this region and week".into())
            }
        }),
        fields: Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// The sweep
// ---------------------------------------------------------------------------

/// Reads `blob` under the three nevers. Returns what the reader said.
fn read_checked(format: &Format, blob: &[u8], what: &str) -> Read {
    LARGEST.set(0);
    let read = catch_unwind(AssertUnwindSafe(|| (format.read)(blob)))
        .unwrap_or_else(|_| panic!("{}: the reader panicked on {what}", format.name));
    let (largest, bound) = (LARGEST.get(), 8 * blob.len() + (64 << 10));
    assert!(
        largest <= bound,
        "{}: {what} made the reader ask for {largest} bytes at once (bound {bound})",
        format.name
    );
    if let Read::Accepted(reencoded) = &read {
        assert!(
            reencoded == blob,
            "{}: {what} was accepted as a value that encodes to other bytes",
            format.name
        );
    }
    read
}

fn assert_refused(format: &Format, blob: &[u8], what: &str) {
    let read = read_checked(format, blob, what);
    assert!(
        matches!(read, Read::Refused(_)),
        "{}: {what} was accepted",
        format.name
    );
}

/// `blob` with `bytes` written at `at` and the checksum made good again: what
/// no torn write leaves, so only the checks behind the checksum can object.
fn forged(blob: &[u8], at: usize, bytes: &[u8]) -> Vec<u8> {
    let mut framed = blob[..blob.len() - FOOTER_LEN].to_vec();
    framed[at..at + bytes.len()].copy_from_slice(bytes);
    frame::seal(framed).to_vec()
}

fn sweep(format: &Format, rng: &mut DetRng) {
    let blob = &format.blob;
    assert_eq!(
        read_checked(format, blob, "the blob as written"),
        Read::Accepted(blob.clone()),
        "{}: the fixture must round-trip",
        format.name
    );

    // Truncation at every byte: nothing partial comes back.
    for cut in 0..blob.len() {
        assert_refused(format, &blob[..cut], &format!("a cut at byte {cut}"));
    }

    // Every bit of the header and of the footer, and a seeded sample of the
    // body's: FNV-1a's odd multiplier carries any one flipped bit through.
    let body = HEADER_LEN * 8..(blob.len() - FOOTER_LEN) * 8;
    let sampled = (0..256).map(|_| body.start + rng.next_u64() as usize % body.len());
    let bits = (0..body.start)
        .chain(body.end..blob.len() * 8)
        .chain(sampled);
    for bit in bits.collect::<Vec<_>>() {
        let mut flipped = blob.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        assert_refused(format, &flipped, &format!("a flip of bit {bit}"));
    }

    // Every count, length and grid field forged behind a valid checksum.
    for &field in &format.fields {
        let (at, values) = match field {
            Field::U8(at) => (at, [0, 1, u8::MAX, u8::MAX - 1].map(|v| vec![v])),
            Field::U32(at) => (
                at,
                [0, 1, u32::MAX, u32::MAX - 1].map(|v| v.to_le_bytes().to_vec()),
            ),
            Field::I64(at) => (
                at,
                [0, 1, i64::MAX, i64::MAX - 1].map(|v| v.to_le_bytes().to_vec()),
            ),
            Field::U64(at) => (
                at,
                [0, 1, u64::MAX, u64::MAX - 1].map(|v| v.to_le_bytes().to_vec()),
            ),
        };
        for bytes in values {
            let what = format!("bytes {at}.. forged to {bytes:?}");
            read_checked(format, &forged(blob, at, &bytes), &what);
        }
    }
}

/// The allocation bound means something only if the shim sees requests.
#[test]
fn the_allocator_shim_sees_this_threads_requests() {
    LARGEST.set(0);
    let big = std::hint::black_box(vec![0u8; 1 << 20]);
    assert!(LARGEST.get() >= big.len());
    let mut grown = std::hint::black_box(Vec::<u8>::with_capacity(16));
    grown.resize(2 << 20, 1);
    assert!(LARGEST.get() >= grown.len());
}

#[test]
fn sgcb_survives_the_sweep() {
    sweep(&sgcb(), &mut DetRng::new(0x5eed_5c6b));
}

#[test]
fn sgss_survives_the_sweep() {
    sweep(&sgss(), &mut DetRng::new(0x5eed_5c55));
}

#[test]
fn deploy_segment_survives_the_sweep() {
    sweep(&sgjl(), &mut DetRng::new(0x5eed_5c71));
}

#[test]
fn checkpoint_marker_survives_the_sweep() {
    sweep(&marker(), &mut DetRng::new(0x5eed_5c3a));
}

/// The field offsets above are this file's knowledge of the three bodies: a
/// forged field must at least be read back as the value written there.
#[test]
fn forged_fields_land_where_the_layouts_say() {
    let sgcb = sgcb();
    let more_points = forged(&sgcb.blob, sgcb_block_at(0) + 36, &4u32.to_le_bytes());
    let Read::Refused(why) = read_checked(&sgcb, &more_points, "a fourth point") else {
        panic!("a block one point longer than its column was accepted");
    };
    assert!(why.contains("value column"), "{why}");
    let on_grid = forged(&sgcb.blob, sgcb_block_at(0) + 24, &1440i64.to_le_bytes());
    let batch = ColumnarBatch::decode(&on_grid).unwrap();
    assert_eq!(batch.blocks()[0].series_start_min, 1440);

    let sgss = sgss();
    let Field::I64(week) = sgss.fields[0] else {
        panic!("the week leads the list");
    };
    let later = decode_snapshot(&forged(&sgss.blob, week, &14i64.to_le_bytes())).unwrap();
    assert_eq!(later.week_start_day(), 14);
    let [Field::U64(id), _, Field::I64(duration)] = sgss.fields[4..7] else {
        panic!("id, day, then duration");
    };
    let renamed = decode_snapshot(&forged(&sgss.blob, id, &8u64.to_le_bytes())).unwrap();
    assert_eq!(renamed.server_ids().collect::<Vec<_>>(), [8, 9]);
    let longer = decode_snapshot(&forged(&sgss.blob, duration, &90i64.to_le_bytes())).unwrap();
    assert_eq!(longer.server(7).unwrap().duration_min(), 90);
    let [Field::U8(to_score), Field::U8(to_pass)] = sgss.fields[9..11] else {
        panic!("the gate closes a server's fixed part");
    };
    assert_eq!(to_pass, to_score + 1);
    let closed = decode_snapshot(&forged(&sgss.blob, to_score, &[1, 2])).unwrap();
    assert_eq!(
        closed.server(7).unwrap().gate(),
        GateState {
            to_score: 1,
            to_pass: 2
        }
    );

    let sgjl = sgjl();
    let Field::U32(servers) = sgjl.fields[4] else {
        panic!("the server count closes the record");
    };
    let fewer = DeployRecord::decode(&forged(&sgjl.blob, servers, &3u32.to_le_bytes())).unwrap();
    assert_eq!((fewer.servers, fewer.seq, fewer.week_start_day), (3, 4, 21));
}

/// `SGCB` blocks come in strictly ascending server id, as every writer
/// emits them: ids out of order or repeated are refused, not handed to the
/// pipeline as one server twice.
#[test]
fn sgcb_server_ids_must_ascend() {
    let sgcb = sgcb();
    let with_ids = |ids: [u64; 3]| {
        (0..3).fold(sgcb.blob.clone(), |blob, block| {
            forged(&blob, sgcb_block_at(block), &ids[block].to_le_bytes())
        })
    };
    for ids in [[1, 9, 1], [1, 1, 3], [1, 3, 3], [3, 2, 1]] {
        let what = format!("ids {ids:?}");
        let Read::Refused(why) = read_checked(&sgcb, &with_ids(ids), &what) else {
            panic!("{what} were accepted");
        };
        assert!(why.contains("out of order"), "{what}: {why}");
    }
    let apart = ColumnarBatch::decode(&with_ids([1, 9, 10])).unwrap();
    let ids: Vec<u64> = apart.blocks().iter().map(|b| b.server_id.0).collect();
    assert_eq!(ids, [1, 9, 10]);
}

/// Every blob handed to every other format's reader; the region-week reader
/// refuses each as foreign, so ingestion blocks on it without a retry.
#[test]
fn no_reader_takes_another_formats_blob() {
    let formats = [sgcb(), sgss(), sgjl(), marker()];
    for (i, reader) in formats.iter().enumerate() {
        for (j, other) in formats.iter().enumerate() {
            if i != j {
                let what = format!("a valid {} blob", other.name);
                assert_refused(reader, &other.blob, &what);
            }
        }
    }
    for other in &formats[1..] {
        assert_eq!(
            ColumnarBatch::decode(&other.blob),
            Err(ColumnarError::Frame(FrameError::BadMagic)),
            "{} to the region-week reader",
            other.name
        );
    }
}
