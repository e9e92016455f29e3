//! The `SGSS` codec against the one it replaced, kept here as oracles: an
//! encoder that writes each value with its own `extend_from_slice`, and a
//! decoder that builds a `PredictionDoc` per server and keys them in a
//! `BTreeMap`, as `from_predictions` did. Over generated deploys (ids in any
//! order and repeated, 0–300 values, grid steps that do and do not divide a
//! day, days at the edge of the `i64` minute) a deploy's snapshot must encode
//! to the oracle's bytes, and a blob, as written or with a field forged
//! behind a good checksum, must decode to the snapshot the oracle decodes it
//! to or be refused by both. The one difference allowed is made on purpose:
//! the oracle accepted server ids out of order. Both read version 3, whose
//! server blocks carry the two bytes of the server's gate.
//!
//! CI runs this optimized at `PROPTEST_CASES=5000`.

use proptest::prelude::*;
use seagull_core::pipeline::{GateState, PredictionDoc};
use seagull_serve::persist::{SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use seagull_serve::{decode_snapshot, encode_snapshot, ModelSnapshot, PersistError};
use seagull_telemetry::frame::{self, checksum64, Cursor, FOOTER_LEN, HEADER_LEN};
use seagull_timeseries::{TimeSeries, Timestamp, MINUTES_PER_DAY};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// The oracles
// ---------------------------------------------------------------------------

/// A snapshot as the oracle holds it: the served document per id.
#[derive(Debug)]
struct Table {
    region: String,
    version: u64,
    week_start_day: i64,
    model_name: String,
    servers: BTreeMap<u64, PredictionDoc>,
}

/// The day-aligned series a document forms, checked as `PredictionDoc`
/// checked it.
fn series(doc: &PredictionDoc) -> Option<TimeSeries> {
    let start = doc.day.checked_mul(MINUTES_PER_DAY)?;
    let span = (doc.values.len() as i64).checked_mul(i64::from(doc.step_min))?;
    start.checked_add(span.max(MINUTES_PER_DAY))?;
    TimeSeries::new(
        Timestamp::from_minutes(start),
        doc.step_min,
        doc.values.clone(),
    )
    .ok()
}

/// `from_predictions` as a map insert per document that forms a series.
fn oracle_from_predictions(
    region: &str,
    version: u64,
    week_start_day: i64,
    model_name: &str,
    predictions: &[PredictionDoc],
) -> Table {
    let mut servers = BTreeMap::new();
    for doc in predictions {
        if series(doc).is_some() {
            servers.insert(doc.server_id, doc.clone());
        }
    }
    Table {
        region: region.to_string(),
        version,
        week_start_day,
        model_name: model_name.to_string(),
        servers,
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// `encode_snapshot`, one `extend_from_slice` per value.
fn oracle_encode(table: &Table) -> Vec<u8> {
    let mut out = frame::header(SNAPSHOT_MAGIC, SNAPSHOT_VERSION).to_vec();
    out.extend_from_slice(&table.version.to_le_bytes());
    out.extend_from_slice(&table.week_start_day.to_le_bytes());
    put_string(&mut out, &table.region);
    put_string(&mut out, &table.model_name);
    out.extend_from_slice(&(table.servers.len() as u32).to_le_bytes());
    for (id, doc) in &table.servers {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&doc.day.to_le_bytes());
        out.extend_from_slice(&doc.duration_min.to_le_bytes());
        out.extend_from_slice(&doc.step_min.to_le_bytes());
        out.extend_from_slice(&(doc.values.len() as u32).to_le_bytes());
        out.push(doc.gate.to_score);
        out.push(doc.gate.to_pass);
        for &v in &doc.values {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    frame::seal(out).to_vec()
}

fn take_string(r: &mut Cursor<'_>) -> Result<String, PersistError> {
    let len = r.u32()? as usize;
    String::from_utf8(r.take(len)?.to_vec())
        .map_err(|_| PersistError::Malformed("string not utf-8".into()))
}

/// `decode_snapshot` through a `PredictionDoc` per server; also says whether
/// the blob's ids were strictly ascending.
fn oracle_decode(blob: &[u8]) -> Result<(Table, bool), PersistError> {
    let mut r = Cursor::new(frame::open(blob, SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?);
    let version = r.u64()?;
    let week_start_day = r.i64()?;
    let region = take_string(&mut r)?;
    let model_name = take_string(&mut r)?;
    let servers = r.u32()? as usize;
    if servers > r.rest().len() / 34 {
        return Err(PersistError::Malformed("server count".into()));
    }
    let mut docs = Vec::with_capacity(servers);
    for _ in 0..servers {
        let server_id = r.u64()?;
        let day = r.i64()?;
        let duration_min = r.i64()?;
        let step_min = r.u32()?;
        let len = r.u32()? as usize;
        let gate = r.take(2)?;
        let gate = GateState {
            to_score: gate[0],
            to_pass: gate[1],
        };
        let values = r
            .take(len.saturating_mul(8))?
            .chunks_exact(8)
            .map(|v| f64::from_le_bytes(v.try_into().unwrap()))
            .collect();
        docs.push(PredictionDoc {
            region: region.clone(),
            server_id,
            day,
            step_min,
            values,
            duration_min,
            gate,
        });
    }
    if !r.rest().is_empty() {
        return Err(PersistError::Malformed("trailing bytes".into()));
    }
    let ascending = docs.windows(2).all(|w| w[0].server_id < w[1].server_id);
    let table = oracle_from_predictions(&region, version, week_start_day, &model_name, &docs);
    if table.servers.len() != servers {
        return Err(PersistError::Malformed("servers lost".into()));
    }
    Ok((table, ascending))
}

// ---------------------------------------------------------------------------
// Generated deploys and forgeries
// ---------------------------------------------------------------------------

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

/// The two-server snapshot the `persist` tests and the mutation sweep use.
fn fixture() -> ModelSnapshot {
    ModelSnapshot::from_predictions(
        "west",
        3,
        7,
        "persistent-prev-day",
        &[
            doc(7, 14, (0..48).map(f64::from).collect()),
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

fn step() -> impl Strategy<Value = u32> {
    prop_oneof![
        4 => prop_oneof![Just(1u32), Just(5), Just(30), Just(60), Just(1440)],
        1 => prop_oneof![Just(0u32), Just(7), Just(1441), Just(u32::MAX)],
    ]
}

/// Mostly ordinary days; else one whose first or last minute is at the top
/// or the bottom of the `i64` minute.
fn day() -> impl Strategy<Value = i64> {
    let top = i64::MAX / MINUTES_PER_DAY;
    let bottom = i64::MIN / MINUTES_PER_DAY;
    prop_oneof![
        4 => 0i64..400,
        1 => (top - 2)..=(top + 1),
        1 => (bottom - 1)..=(bottom + 2),
    ]
}

fn value() -> impl Strategy<Value = f64> {
    prop_oneof![
        8 => -1e3f64..1e3,
        1 => prop_oneof![
            Just(f64::NAN),
            Just(-0.0),
            Just(f64::INFINITY),
            Just(f64::MIN_POSITIVE / 2.0),
        ],
    ]
}

fn prediction() -> impl Strategy<Value = PredictionDoc> {
    let id = prop_oneof![5 => 0u64..6, 1 => any::<u64>()];
    let duration = prop_oneof![4 => -60i64..600, 1 => Just(i64::MIN), 1 => Just(i64::MAX)];
    let values = proptest::collection::vec(value(), 0..=300);
    let gate = (0u8..4, 0u8..4).prop_map(|(to_score, to_pass)| GateState { to_score, to_pass });
    (id, day(), step(), values, duration, gate).prop_map(
        |(server_id, day, step_min, values, duration_min, gate)| PredictionDoc {
            region: "west".into(),
            server_id,
            day,
            step_min,
            values,
            duration_min,
            gate,
        },
    )
}

#[derive(Debug)]
struct Deploy {
    region: String,
    version: u64,
    week_start_day: i64,
    model_name: String,
    predictions: Vec<PredictionDoc>,
}

fn deploy() -> impl Strategy<Value = Deploy> {
    let name = || {
        prop_oneof![
            Just(String::new()),
            Just("west".to_string()),
            Just("région-ü".to_string()),
        ]
    };
    let week = prop_oneof![0i64..400, Just(i64::MIN), Just(i64::MAX)];
    let predictions = proptest::collection::vec(prediction(), 0..6);
    (name(), any::<u64>(), week, name(), predictions).prop_map(
        |(region, version, week_start_day, model_name, predictions)| Deploy {
            region,
            version,
            week_start_day,
            model_name,
            predictions,
        },
    )
}

/// What to do to a blob before it is read: `kind` picks the field, `at` the
/// server or byte, `word` the value written there.
fn mutation() -> impl Strategy<Value = (u8, u64, u64)> {
    let word = prop_oneof![
        Just(0u64),
        Just(1),
        Just(u64::MAX),
        Just(u64::MAX - 1),
        0u64..400,
        any::<u64>(),
    ];
    (0u8..11, any::<u64>(), word)
}

/// `blob` with `edit` applied to its body and the checksum made good again.
fn resealed(blob: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut framed = blob[..blob.len() - FOOTER_LEN].to_vec();
    edit(&mut framed);
    frame::seal(framed).to_vec()
}

/// `snapshot`'s blob after `mutation`. Server blocks sit where the encoder
/// puts them: after the header, the strings and the count, one per server
/// in id order, 34 bytes each and the values.
fn mutated(snapshot: &ModelSnapshot, (kind, at, word): (u8, u64, u64)) -> Vec<u8> {
    let blob = encode_snapshot(snapshot).to_vec();
    let count = HEADER_LEN + 16 + 8 + snapshot.region().len() + snapshot.model_name().len();
    let mut blocks = Vec::new();
    let mut offset = count + 4;
    for (_, server) in snapshot.servers() {
        blocks.push(offset);
        offset += 34 + 8 * server.prediction().len();
    }
    let block = |n: u64| blocks[(n % blocks.len() as u64) as usize];
    let write = |at: usize, bytes: &[u8]| {
        resealed(&blob, |body| {
            body[at..at + bytes.len()].copy_from_slice(bytes)
        })
    };
    match kind {
        2 if blocks.len() >= 2 => {
            let (a, b) = (block(at), block(at / 7 + 1));
            resealed(&blob, |body| {
                let id_a: [u8; 8] = body[a..a + 8].try_into().unwrap();
                body.copy_within(b..b + 8, a);
                body[b..b + 8].copy_from_slice(&id_a);
            })
        }
        3 if !blocks.is_empty() => write(block(at), &word.to_le_bytes()),
        4 if !blocks.is_empty() => write(block(at) + 8, &word.to_le_bytes()),
        5 if !blocks.is_empty() => write(block(at) + 24, &(word as u32).to_le_bytes()),
        6 if !blocks.is_empty() => write(block(at) + 28, &(word as u32).to_le_bytes()),
        10 if !blocks.is_empty() => write(block(at) + 32, &(word as u16).to_le_bytes()),
        7 => write(count, &(word as u32).to_le_bytes()),
        8 => resealed(&blob, |body| {
            body.truncate(HEADER_LEN + (at % (body.len() - HEADER_LEN) as u64) as usize)
        }),
        9 => {
            let at = HEADER_LEN + (at % (blob.len() - HEADER_LEN - FOOTER_LEN) as u64) as usize;
            write(at, &[word as u8])
        }
        _ => blob,
    }
}

// ---------------------------------------------------------------------------
// The properties
// ---------------------------------------------------------------------------

proptest! {
    /// A deploy's snapshot is the oracle's, byte for byte; the blob reads
    /// back as the oracle reads it, as written and forged.
    #[test]
    fn codec_agrees_with_the_oracle(deploy in deploy(), mutation in mutation()) {
        let Deploy { region, version, week_start_day, model_name, predictions } = &deploy;
        let snapshot = ModelSnapshot::from_predictions(
            region,
            *version,
            *week_start_day,
            model_name,
            predictions,
        );
        let table =
            oracle_from_predictions(region, *version, *week_start_day, model_name, predictions);
        let blob = encode_snapshot(&snapshot).to_vec();
        prop_assert_eq!(&blob, &oracle_encode(&table));
        let decoded = decode_snapshot(&blob).map(|s| encode_snapshot(&s).to_vec());
        prop_assert_eq!(decoded, Ok(blob));

        let blob = mutated(&snapshot, mutation);
        let new = decode_snapshot(&blob);
        let old = oracle_decode(&blob);
        match (&new, &old) {
            (Ok(snapshot), Ok((table, _))) => {
                let reencoded = encode_snapshot(snapshot).to_vec();
                prop_assert_eq!(&reencoded, &oracle_encode(table));
                prop_assert!(reencoded == blob, "an accepted blob re-encodes to itself");
            }
            (Err(PersistError::Frame(a)), Err(PersistError::Frame(b))) => prop_assert_eq!(a, b),
            (Err(PersistError::Malformed(_)), Err(PersistError::Malformed(_))) => {}
            // Refused on purpose: the oracle read ids out of order.
            (Err(PersistError::Malformed(_)), Ok((_, false))) => {}
            _ => prop_assert!(false, "the decoders disagree: {new:?} against {old:?}"),
        }
    }
}

/// "No format change" as a test: the fixture's `SGSS` blob is the one the
/// per-value encoder wrote.
#[test]
fn fixture_bytes_are_pinned() {
    let blob = encode_snapshot(&fixture());
    assert_eq!(blob.len(), 903);
    assert_eq!(checksum64(&blob), 0xcbc6_dd3f_018c_b4d6, "SGSS bytes moved");
    let (table, ascending) = oracle_decode(&blob).unwrap();
    assert!(ascending);
    assert_eq!(oracle_encode(&table), blob.to_vec());
}

/// The bug the ascending-id rule closes: the fixture with its two ids
/// swapped and resealed. The oracle accepted it and served server 7 with
/// server 9's day 15, a snapshot that encodes to other bytes.
#[test]
fn ids_out_of_order_are_the_one_difference() {
    let swapped = mutated(&fixture(), (2, 0, 0));
    let (table, ascending) = oracle_decode(&swapped).unwrap();
    assert!(!ascending);
    assert_eq!(table.servers[&7].day, 15);
    assert_ne!(oracle_encode(&table), swapped);
    assert!(matches!(
        decode_snapshot(&swapped),
        Err(PersistError::Malformed(_))
    ));
}
