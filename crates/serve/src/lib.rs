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
//!    attaching fitted models from the warm cache when the deploy carries
//!    it (a forecaster that uses the cache, such as SSA; the production
//!    persistent forecast carries none).
//! 2. The snapshot is published into the [`SnapshotStore`] by swapping
//!    one `Arc`: the store builds and stamps the new snapshot off to the
//!    side, replaces the region's `Arc` under a write lock held for that
//!    one assignment, and drops the old `Arc` after releasing it. A reader
//!    that cloned the old `Arc` keeps it alive; the last owner frees it.
//! 3. When deployment *fails*, the sink's fallback hook leaves the store
//!    untouched: the **last-known-good** snapshot keeps serving. It is the
//!    system's only last-known-good; the model registry, which registers
//!    no version for a failed deploy, names the same version.
//!
//! ## Read path
//!
//! A query takes two uncontended read locks — the service's region
//! contexts, then the region's snapshot cell — clones the context and the
//! snapshot `Arc` out of them, and releases both before it answers; no
//! guard is held across a query. Admission is one atomic load on a
//! [`BreakerProbe`](seagull_core::resilience::BreakerProbe) mirror of the
//! shared per-region
//! [`CircuitBreaker`](seagull_core::resilience::CircuitBreaker)
//! (read-only — the service never consumes the pipeline's half-open
//! probes). Horizons inside the materialized day are zero-copy slices;
//! longer horizons and other days run the cached fitted model where one is
//! attached, and are unavailable where none is. Batched
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
//! every deployed snapshot to a blob store and appends one sealed record
//! (`seagull_telemetry::frame`) to the deploy journal *before* the
//! in-memory publish, and [`DurableServeSink::recover`] reads that journal
//! on startup to republish each region's last-known-good snapshot — falling
//! back one journaled epoch when the newest snapshot blob is torn. See
//! `DESIGN.md` §12.
//!
//! See `DESIGN.md` §11 for the staleness model, the read path's
//! measurements and its one untested hypothesis.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod persist;
pub mod service;
pub mod snapshot;
pub mod store;

pub use persist::{
    decode_snapshot, encode_snapshot, journal_segment_key, snapshot_key, DeployRecord,
    DurableServeSink, PersistError, RecoveryReport,
};
pub use service::{ServeError, ServeService};
pub use snapshot::{ModelSnapshot, ServedServer};
pub use store::{SnapshotStore, StoreStats};
