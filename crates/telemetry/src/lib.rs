//! # seagull-telemetry
//!
//! Telemetry substrate for the Seagull reproduction: everything the paper's
//! production deployment obtained from Azure is rebuilt here.
//!
//! * [`server`] — server identities, lifecycle metadata, and per-server
//!   telemetry bundles.
//! * [`shape`] — per-class load-shape models (stable, daily pattern, weekly
//!   pattern, unstable) that generate the average-customer-CPU-per-5-minutes
//!   signal the paper forecasts.
//! * [`fleet`] — the seeded fleet generator. Population mix defaults to the
//!   measured Azure distribution of the paper's Figure 3 (42.1 % short-lived,
//!   53.5 % stable, 0.2 % daily/weekly pattern, 4.2 % unstable).
//! * [`record`] — the raw telemetry record schema and CSV codec (the paper's
//!   per-region input files: `server id, timestamp in minutes, average user
//!   CPU load percentage per five minutes, default backup start and end`),
//!   kept as the text form of a region-week and the reference the columnar
//!   codec's quantization is checked against; the pipeline does not read it.
//! * [`blobstore`] — the Azure Data Lake Store substitute: partitioned blobs
//!   keyed by `(region, week)` with in-memory and on-disk backends.
//! * [`frame`] — the one frame every stored blob wears (`magic | version | 0 |
//!   body | checksum`), its one `open`, the one FNV-1a checksum and the
//!   bounds-checked cursor the three body decoders read with.
//! * [`columnar`] — the binary region-week codec (`SGCB`), the one format
//!   the pipeline reads; decodes into zero-copy series views over one shared
//!   buffer.
//! * [`extract`] — the Load Extraction module: the recurring query that
//!   reduces raw telemetry to one `SGCB` blob per region-week.
//! * [`chaos`] — deterministic fault injection: a [`BlobStore`] decorator
//!   that replays seeded, reproducible fault schedules (transient errors,
//!   torn reads, sliced sustained outages, and seeded crash kill-points).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod blobstore;
pub mod chaos;
pub mod columnar;
pub mod extract;
pub mod fleet;
pub mod frame;
pub mod record;
pub mod server;
pub mod shape;

pub use blobstore::{BlobKey, BlobStore, DiskBlobStore, MemoryBlobStore};
pub use chaos::{
    ChaosBlobStore, ChaosConfig, ChaosStats, CrashPoint, CrashSpec, DetRng, InjectedCrash,
};
pub use columnar::{ColumnarBatch, ColumnarError, ServerBlock};
pub use extract::{LoadExtraction, RegionWeekBatch};
pub use fleet::{FleetGenerator, FleetSpec, RegionSpec, ServerTelemetry};
pub use frame::FrameError;
pub use record::{csv_quantized, CsvError, LoadRecord, RecordBatch};
pub use server::{BackupConfig, GeneratedClass, ServerId, ServerMeta};
pub use shape::{LoadShape, ShapeParams};
