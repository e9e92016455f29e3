//! # seagull-serve: the prediction-serving layer
//!
//! Seagull's pipeline (Section 4 of the paper) trains models and
//! materializes next-backup-day predictions into the document store. This
//! crate is the other half of the story: an **in-process prediction
//! service** that answers per-server load queries — `predict(region,
//! server, horizon)`, low-load-window lookups, batched multi-server
//! queries — from an immutable **model snapshot** the pipeline publishes
//! at deployment time.
//!
//! ## Snapshot lifecycle
//!
//! 1. The deployment stage of
//!    [`AmlPipeline`](seagull_core::pipeline::AmlPipeline) fires its
//!    [`DeploySink`](seagull_core::pipeline::DeploySink). [`ServeService`]
//!    implements that trait: it builds a [`ModelSnapshot`] from the
//!    deployed [`PredictionDoc`](seagull_core::pipeline::PredictionDoc)s,
//!    attaching fitted models from the warm cache when available.
//! 2. The snapshot is published into the [`SnapshotStore`] via an atomic
//!    **pointer swap**: the store installs the new snapshot in one atomic
//!    store and retires the old one to an epoch GC that frees it only
//!    after every in-flight reader pin has drained. Readers never lock
//!    against a deploy — or against anything else.
//! 3. When deployment *fails*, the sink's fallback hook leaves the store
//!    untouched: the **last-known-good** snapshot keeps serving, mirroring
//!    the model registry's fallback rule.
//!
//! ## Read path
//!
//! The hot path is **lock-free end to end**: a query pins the store's GC
//! epoch (two thread-private atomic stores), resolves its region through
//! a 16-way sharded copy-on-write map, borrows the snapshot straight off
//! an atomic pointer — no `RwLock`, no `Arc` refcount traffic — and
//! checks admission against a lock-free
//! [`BreakerProbe`](seagull_core::resilience::BreakerProbe) mirror of the
//! shared per-region
//! [`CircuitBreaker`](seagull_core::resilience::CircuitBreaker)
//! (read-only — the service never consumes the pipeline's half-open
//! probes). Horizons inside the materialized day are zero-copy slices;
//! longer horizons and other days run the cached fitted model. Batched
//! queries resolve the snapshot once, so every response in a batch comes
//! from the same epoch.
//!
//! Every request lands in a [`seagull_obs`] registry: stable
//! request/outcome counters and staleness histograms (deterministic across
//! runs), volatile wall-clock latency histograms.
//!
//! ## Durability
//!
//! Snapshots live in memory; a process restart would lose them. The
//! [`persist`] module adds the crash-safe path: [`DurableServeSink`] writes
//! every deployed snapshot to a blob store and appends a checksummed record
//! to an append-only deploy journal *before* the in-memory publish, and
//! [`DurableServeSink::recover`] replays that journal on startup to
//! republish each region's last-known-good snapshot — falling back one
//! journaled epoch when the newest snapshot blob is torn. See `DESIGN.md`
//! §12.
//!
//! See `DESIGN.md` §11 for the staleness model and §16 for the lock-free
//! read path's memory-ordering argument.

#![warn(missing_docs)]
// `unsafe` is denied crate-wide; the one exception is the `shard` module,
// whose epoch-GC read path needs raw-pointer derefs and carries a safety
// argument on every unsafe block (see its module docs and DESIGN.md §16).
#![deny(unsafe_code)]

pub mod persist;
pub mod service;
mod shard;
pub mod snapshot;
pub mod store;

pub use persist::{
    decode_snapshot, encode_snapshot, journal_segment_key, snapshot_key, DeployRecord,
    DurableServeSink, PersistError, RecoveryReport,
};
pub use service::{ServeError, ServeService};
pub use snapshot::{ModelSnapshot, ServedServer};
pub use store::{GcStats, SnapshotStore, StoreStats};
