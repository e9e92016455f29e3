//! Immutable per-region model snapshots — the unit the serving layer swaps.
//!
//! A [`ModelSnapshot`] is everything the read path needs to answer queries
//! for one region: the materialized backup-day prediction per server, the
//! backup duration the window search should use, the server's Definition 9
//! gate as the pipeline stamped it, and (when available) the
//! fitted model extracted from the warm cache for horizons the materialized
//! prediction does not cover. Snapshots are built once at deploy time and
//! never mutated afterwards — readers share them through `Arc`, so a reader
//! holding an old epoch keeps a fully coherent prediction set no matter how
//! many deploys happen after it.

use seagull_core::pipeline::{DeployEvent, GateState, PredictionDoc};
use seagull_forecast::{FittedModel, ModelCache};
use seagull_timeseries::{TimeSeries, Timestamp, MINUTES_PER_DAY};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// Cache-dense server index: ids sorted ascending in one contiguous array,
/// server payloads in a parallel array. Lookups binary-search the id
/// column only — ~3 cache lines for a thousand-server region versus a
/// pointer chase per `BTreeMap` level — and batch queries walking sorted
/// ids scan both columns linearly.
struct ServerTable {
    ids: Vec<u64>,
    servers: Vec<ServedServer>,
}

impl ServerTable {
    /// Sorts `(id, server)` pairs by id and keeps one per id: of several,
    /// the last given, as a map insert would. The sort is stable and finds
    /// already-ascending input in one pass.
    fn from_pairs(mut pairs: Vec<(u64, ServedServer)>) -> ServerTable {
        pairs.sort_by_key(|&(id, _)| id);
        let mut ids: Vec<u64> = Vec::with_capacity(pairs.len());
        let mut servers: Vec<ServedServer> = Vec::with_capacity(pairs.len());
        for (id, server) in pairs {
            match servers.last_mut() {
                Some(last) if ids.last() == Some(&id) => *last = server,
                _ => {
                    ids.push(id);
                    servers.push(server);
                }
            }
        }
        ServerTable { ids, servers }
    }

    fn index_of(&self, server_id: u64) -> Option<usize> {
        self.ids.binary_search(&server_id).ok()
    }
}

/// One server's share of a [`ModelSnapshot`].
pub struct ServedServer {
    prediction: TimeSeries,
    duration_min: i64,
    gate: GateState,
    model: Option<Arc<dyn FittedModel>>,
}

/// Fitted models carry no state worth printing; Debug shows whether one is
/// cached, which is what recovery tests assert about.
impl fmt::Debug for ServedServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServedServer")
            .field("prediction", &self.prediction)
            .field("duration_min", &self.duration_min)
            .field("gate", &self.gate)
            .field("has_model", &self.model.is_some())
            .finish()
    }
}

impl ServedServer {
    /// A server serving `values` as its prediction for `day` behind `gate`,
    /// with no model attached; `None` when they form no day-aligned series:
    /// `step_min` does not divide a day, or `day` is so far out that the
    /// day's or the values' end is no `i64` minute. The one check a deploy and
    /// `decode_snapshot` share (the pipeline only writes predictions that
    /// pass it). The series views `values` without copying them.
    pub(crate) fn materialized(
        day: i64,
        step_min: u32,
        values: Arc<[f64]>,
        duration_min: i64,
        gate: GateState,
    ) -> Option<ServedServer> {
        let start = day.checked_mul(MINUTES_PER_DAY)?;
        let span = (values.len() as i64).checked_mul(i64::from(step_min))?;
        start.checked_add(span.max(MINUTES_PER_DAY))?;
        let len = values.len();
        let prediction =
            TimeSeries::from_shared(Timestamp::from_minutes(start), step_min, values, 0, len)
                .ok()?;
        Some(ServedServer {
            prediction,
            duration_min,
            gate,
            model: None,
        })
    }

    /// The materialized prediction: one full day, anchored at the server's
    /// next backup day.
    pub fn prediction(&self) -> &TimeSeries {
        &self.prediction
    }

    /// The day index the materialized prediction covers.
    pub fn materialized_day(&self) -> i64 {
        self.prediction.start().day_index()
    }

    /// Backup duration the low-load window search should use, minutes.
    pub fn duration_min(&self) -> i64 {
        self.duration_min
    }

    /// The server's Definition 9 gate as of the run that deployed it.
    pub fn gate(&self) -> GateState {
        self.gate
    }

    /// The fitted model extracted from the warm cache, if one was attached.
    pub fn model(&self) -> Option<&Arc<dyn FittedModel>> {
        self.model.as_ref()
    }
}

/// An immutable, versioned prediction set for one region.
///
/// Built by the deployment stage (see
/// [`seagull_core::pipeline::DeploySink`]) and published through
/// [`crate::SnapshotStore`], which stamps the epoch. All accessors are
/// read-only; the snapshot never changes after publication.
pub struct ModelSnapshot {
    region: String,
    version: u64,
    week_start_day: i64,
    model_name: String,
    epoch: u64,
    table: ServerTable,
}

impl fmt::Debug for ModelSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let servers: BTreeMap<u64, &ServedServer> = self
            .table
            .ids
            .iter()
            .copied()
            .zip(self.table.servers.iter())
            .collect();
        f.debug_struct("ModelSnapshot")
            .field("region", &self.region)
            .field("version", &self.version)
            .field("week_start_day", &self.week_start_day)
            .field("model_name", &self.model_name)
            .field("epoch", &self.epoch)
            .field("servers", &servers)
            .finish()
    }
}

impl ModelSnapshot {
    /// Builds a snapshot from the prediction documents one pipeline run
    /// materialized. Documents whose values do not form a day-aligned
    /// series are skipped (the pipeline only writes day-aligned docs); of
    /// two documents for one server, the later is served. Each document's
    /// values are copied once, into the series that serves them.
    pub fn from_predictions(
        region: &str,
        version: u64,
        week_start_day: i64,
        model_name: &str,
        predictions: &[PredictionDoc],
    ) -> ModelSnapshot {
        let servers = predictions
            .iter()
            .filter_map(|doc| {
                let values = Arc::from(doc.values.as_slice());
                let server = ServedServer::materialized(
                    doc.day,
                    doc.step_min,
                    values,
                    doc.duration_min,
                    doc.gate,
                )?;
                Some((doc.server_id, server))
            })
            .collect();
        ModelSnapshot::from_servers(
            region.to_string(),
            version,
            week_start_day,
            model_name.to_string(),
            servers,
        )
    }

    /// A snapshot of `(id, server)` pairs in any order; of two with one id,
    /// the later is kept.
    pub(crate) fn from_servers(
        region: String,
        version: u64,
        week_start_day: i64,
        model_name: String,
        servers: Vec<(u64, ServedServer)>,
    ) -> ModelSnapshot {
        ModelSnapshot {
            region,
            version,
            week_start_day,
            model_name,
            epoch: 0,
            table: ServerTable::from_pairs(servers),
        }
    }

    /// Builds a snapshot straight from a pipeline [`DeployEvent`],
    /// attaching cached fitted models when the event carries a warm-cache
    /// handle.
    pub fn from_deploy(event: &DeployEvent<'_>) -> ModelSnapshot {
        let mut snapshot = ModelSnapshot::from_predictions(
            event.region,
            event.version,
            event.week_start_day,
            event.model_name,
            event.predictions,
        );
        if let Some(cache) = event.cache {
            snapshot.attach_cached_models(cache);
        }
        snapshot
    }

    /// Extracts each server's fitted model from the warm cache (keys are
    /// `region/server_id`, the pipeline's cache-key scheme) and attaches it
    /// for extended-horizon queries. Servers without a cached fit simply
    /// stay materialized-only. One read lock of the cache and one key
    /// buffer serve every server.
    pub fn attach_cached_models(&mut self, cache: &ModelCache) {
        let mut key = format!("{}/", self.region);
        let prefix = key.len();
        let table = &mut self.table;
        cache.with_fitted(|fitted| {
            for (id, server) in table.ids.iter().zip(table.servers.iter_mut()) {
                key.truncate(prefix);
                write!(key, "{id}").expect("writing to a String cannot fail");
                server.model = fitted(&key);
            }
        });
    }

    /// Attaches (or replaces) one server's extended-horizon model.
    pub fn attach_model(&mut self, server_id: u64, model: Arc<dyn FittedModel>) {
        if let Some(i) = self.table.index_of(server_id) {
            self.table.servers[i].model = Some(model);
        }
    }

    /// The region this snapshot serves.
    pub fn region(&self) -> &str {
        &self.region
    }

    /// The model-registry version of the deploy that built this snapshot;
    /// while it serves, `ModelRegistry::deployed` names the same version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// First day of the week whose data trained this snapshot's model.
    pub fn week_start_day(&self) -> i64 {
        self.week_start_day
    }

    /// Name of the deployed forecaster.
    pub fn model_name(&self) -> &str {
        &self.model_name
    }

    /// The swap epoch stamped at publication (0 before publication).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub(crate) fn stamp_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Number of servers with a materialized prediction.
    pub fn len(&self) -> usize {
        self.table.ids.len()
    }

    /// Whether the snapshot holds no servers at all.
    pub fn is_empty(&self) -> bool {
        self.table.ids.is_empty()
    }

    /// The served server ids, ascending.
    pub fn server_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.table.ids.iter().copied()
    }

    /// One server's served state, if present. Binary search over the
    /// dense sorted id column.
    pub fn server(&self, server_id: u64) -> Option<&ServedServer> {
        self.table
            .index_of(server_id)
            .map(|i| &self.table.servers[i])
    }

    /// Every `(id, server)` pair in ascending id order — the vectorized
    /// batch path walks this instead of point-probing per id.
    pub fn servers(&self) -> impl Iterator<Item = (u64, &ServedServer)> + '_ {
        self.table
            .ids
            .iter()
            .copied()
            .zip(self.table.servers.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(server_id: u64, day: i64, value: f64) -> PredictionDoc {
        PredictionDoc {
            region: "west".into(),
            server_id,
            day,
            step_min: 30,
            values: vec![value; 48],
            duration_min: 60,
            gate: GateState::OPEN,
        }
    }

    #[test]
    fn snapshot_indexes_servers_by_id() {
        let snap = ModelSnapshot::from_predictions(
            "west",
            3,
            7,
            "persistent-prev-day",
            // Of two documents for one server, the later is served.
            &[doc(9, 13, 0.0), doc(4, 15, 2.0), doc(9, 14, 1.0)],
        );
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.server_ids().collect::<Vec<_>>(), vec![4, 9]);
        assert_eq!(snap.version(), 3);
        assert_eq!(snap.week_start_day(), 7);
        let s = snap.server(9).unwrap();
        assert_eq!(s.materialized_day(), 14);
        assert_eq!(s.prediction().values()[0], 1.0);
        assert_eq!(s.duration_min(), 60);
        assert!(s.model().is_none());
        assert!(snap.server(999).is_none());
    }

    #[test]
    fn documents_off_the_day_grid_are_skipped() {
        let mut zero_step = doc(4, 14, 1.0);
        zero_step.step_min = 0;
        let mut uneven_step = doc(5, 14, 1.0);
        uneven_step.step_min = 7;
        // The last minute of one and the first minute of the other are
        // past `i64`.
        let ends_late = doc(6, i64::MAX / 1440, 1.0);
        let starts_late = doc(7, i64::MAX / 1440 + 1, 1.0);
        let snap = ModelSnapshot::from_predictions(
            "west",
            1,
            7,
            "m",
            &[
                zero_step,
                doc(9, 14, 2.0),
                uneven_step,
                ends_late,
                starts_late,
            ],
        );
        assert_eq!(snap.server_ids().collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    fn empty_snapshot_is_empty() {
        let snap = ModelSnapshot::from_predictions("west", 1, 0, "m", &[]);
        assert!(snap.is_empty());
    }
}
