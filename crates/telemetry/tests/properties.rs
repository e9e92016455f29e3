//! Property-based tests for the telemetry substrate: CSV codec, blob store,
//! and extraction invariants under randomized inputs.

use proptest::prelude::*;
use seagull_telemetry::blobstore::{BlobKey, BlobStore, MemoryBlobStore};
use seagull_telemetry::columnar::ColumnarBatch;
use seagull_telemetry::extract::{parse_record_rows, RegionWeekBatch};
use seagull_telemetry::record::{LoadRecord, RecordBatch};
use seagull_telemetry::server::ServerId;

fn record_strategy() -> impl Strategy<Value = LoadRecord> {
    (0u64..50, 0i64..2000, 0.0f64..100.0, 0i64..10_000, 1i64..500).prop_map(
        |(server, slot, cpu, bstart, blen)| LoadRecord {
            server_id: ServerId(server),
            // Timestamps always on the 5-minute grid for codec tests.
            timestamp_min: slot * 5,
            // Two-decimal values survive the codec exactly.
            avg_cpu: (cpu * 100.0).round() / 100.0,
            default_backup_start: bstart,
            default_backup_end: bstart + blen,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSV encode/decode is the identity on grid-aligned, two-decimal rows.
    #[test]
    fn csv_round_trip(records in proptest::collection::vec(record_strategy(), 0..60)) {
        let batch = RecordBatch::new(records);
        let decoded = RecordBatch::from_csv(&batch.to_csv()).unwrap();
        prop_assert_eq!(decoded, batch);
    }

    /// Parsing reassembles exactly the set of (server, timestamp, value)
    /// triples that went in, regardless of row order.
    #[test]
    fn parse_preserves_points(mut records in proptest::collection::vec(record_strategy(), 1..60), seed in 0u64..1000) {
        // Deduplicate (server, ts) pairs — parse keeps the last write; make
        // inputs unique so set-equality is exact.
        records.sort_by_key(|r| (r.server_id.0, r.timestamp_min));
        records.dedup_by_key(|r| (r.server_id.0, r.timestamp_min));
        // Shuffle deterministically.
        let n = records.len();
        for i in (1..n).rev() {
            let j = ((seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(i as u64)) % (i as u64 + 1)) as usize;
            records.swap(i, j);
        }
        let servers = parse_record_rows(&RecordBatch::new(records.clone()), 5);
        let mut reassembled: Vec<(u64, i64, f64)> = Vec::new();
        for s in &servers {
            for (t, v) in s.series.iter() {
                if !v.is_nan() {
                    reassembled.push((s.id.0, t.minutes(), v));
                }
            }
        }
        let mut expected: Vec<(u64, i64, f64)> = records
            .iter()
            .map(|r| (r.server_id.0, r.timestamp_min, r.avg_cpu))
            .collect();
        expected.sort_by_key(|e| (e.0, e.1));
        reassembled.sort_by_key(|e| (e.0, e.1));
        prop_assert_eq!(reassembled.len(), expected.len());
        for (got, want) in reassembled.iter().zip(&expected) {
            prop_assert_eq!(got.0, want.0);
            prop_assert_eq!(got.1, want.1);
            prop_assert!((got.2 - want.2).abs() < 1e-9);
        }
    }

    /// The same record batch encoded as CSV and as columnar yields identical
    /// extracted series through the format-sniffing parse, and the columnar
    /// encoding itself is byte-stable (same input, same bytes).
    #[test]
    fn csv_columnar_extraction_parity(records in proptest::collection::vec(record_strategy(), 0..60)) {
        let batch = RecordBatch::new(records);
        let csv_blob = batch.to_csv();
        let columnar = ColumnarBatch::from_records(&batch, 5);
        let col_blob = columnar.encode();
        prop_assert_eq!(&col_blob, &ColumnarBatch::from_records(&batch, 5).encode());

        let from_csv = RegionWeekBatch::decode(&csv_blob).unwrap().extract(5);
        let from_col = RegionWeekBatch::decode(&col_blob).unwrap().extract(5);
        // Gap buckets are NaN and NaN != NaN, so samples compare by bits.
        prop_assert_eq!(from_csv.len(), from_col.len());
        for (a, b) in from_csv.iter().zip(&from_col) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.series.start(), b.series.start());
            prop_assert_eq!(a.series.step_min(), b.series.step_min());
            prop_assert_eq!(a.default_backup_start, b.default_backup_start);
            prop_assert_eq!(a.default_backup_end, b.default_backup_end);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            prop_assert_eq!(bits(a.series.values()), bits(b.series.values()));
        }

        // Decode is the inverse of encode on the block level too.
        let decoded = ColumnarBatch::decode(&col_blob).unwrap();
        prop_assert_eq!(decoded.blocks(), columnar.blocks());
    }

    /// Blob store: last write wins, reads return exactly what was written.
    #[test]
    fn blobstore_last_write_wins(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 1..10),
        week in 0i64..100,
    ) {
        let store = MemoryBlobStore::new();
        let key = BlobKey::extracted("prop-region", week);
        for p in &payloads {
            store.put(&key, bytes::Bytes::from(p.clone())).unwrap();
        }
        let got = store.get(&key).unwrap();
        prop_assert_eq!(&got[..], &payloads.last().unwrap()[..]);
        prop_assert_eq!(store.size(&key).unwrap() as usize, payloads.last().unwrap().len());
    }
}
