//! Snapshot storage: one `RwLock<Option<Arc<ModelSnapshot>>>` per region
//! behind a `RwLock<BTreeMap>` of regions.
//!
//! A read takes two uncontended read locks — the region map's, then the
//! region's — clones one `Arc` and releases both before it answers. No
//! guard is ever held across a query: answering can run a fitted model,
//! and a publisher waiting for the write lock would queue every later
//! reader behind that one. A publish builds and stamps the new snapshot
//! outside the lock, swaps the `Arc` under the region's write lock and
//! drops the superseded `Arc` after releasing it; a per-region mutex
//! serializes deploys so epochs are dense. The map is write-locked only
//! the first time a region is seen.
//!
//! Coherence comes from swapping the whole snapshot `Arc`: a reader sees
//! the entire old snapshot or the entire new one, never a mixture, and a
//! reader that cloned the `Arc` before the swap keeps a consistent
//! prediction set until it drops the handle. Ownership frees: the last
//! `Arc` to go — the store's at the swap, or a reader's afterwards —
//! drops the snapshot. `DESIGN.md` §11 has the measurements and the one
//! hypothesis this box cannot test (many-core reader–reader contention).

use crate::snapshot::ModelSnapshot;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// Per-region state: the current snapshot plus the publish-side
/// serialization.
#[derive(Default)]
pub(crate) struct RegionSlot {
    snap: RwLock<Option<Arc<ModelSnapshot>>>,
    /// 0 before the first publish, then one increment per deploy.
    epoch: AtomicU64,
    publish_lock: Mutex<()>,
}

impl RegionSlot {
    /// Clones the current snapshot `Arc`; the read lock is released before
    /// this returns.
    pub(crate) fn load(&self) -> Option<Arc<ModelSnapshot>> {
        self.snap
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The region's deploy epoch (0 = nothing published).
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn publish(&self, mut snapshot: ModelSnapshot) -> u64 {
        let (next, superseded) = {
            let _serialize = self
                .publish_lock
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let next = self.epoch.load(Ordering::Relaxed) + 1;
            snapshot.stamp_epoch(next);
            let fresh = Some(Arc::new(snapshot));
            let superseded = std::mem::replace(
                &mut *self.snap.write().unwrap_or_else(PoisonError::into_inner),
                fresh,
            );
            // Release pairs with `epoch`'s Acquire: a reader that sees
            // epoch `n` then loads a snapshot stamped `n` or later.
            self.epoch.store(next, Ordering::Release);
            (next, superseded)
        };
        // Outside both locks: freeing a region's tables is the slow part
        // of a deploy and nothing else should wait on it.
        drop(superseded);
        next
    }
}

/// Deterministic store statistics: stable across thread counts for a
/// fixed publish schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Publishes accepted.
    pub publishes: u64,
    /// Regions with at least one publish.
    pub regions: usize,
    /// Snapshots superseded by a later publish (= publishes − regions).
    pub snapshots_retired: u64,
}

/// The serving layer's snapshot registry: one swappable snapshot `Arc`
/// per region. `Clone`-free by design — share it through `Arc` (as
/// [`crate::ServeService`] does).
#[derive(Default)]
pub struct SnapshotStore {
    /// Slots may be registered by first queries (the service's region
    /// contexts) before anything is published; such a slot's epoch is 0.
    regions: RwLock<BTreeMap<String, Arc<RegionSlot>>>,
    publishes: AtomicU64,
    snapshots_retired: AtomicU64,
}

impl SnapshotStore {
    /// Creates an empty store with no regions.
    pub fn new() -> SnapshotStore {
        SnapshotStore::default()
    }

    fn slot(&self, region: &str) -> Option<Arc<RegionSlot>> {
        self.regions
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(region)
            .cloned()
    }

    /// The region's slot, registering an empty one if absent — used by
    /// publishes and by the service's region contexts (a context may exist
    /// before the first publish; its slot simply loads `None`).
    pub(crate) fn slot_or_insert(&self, region: &str) -> Arc<RegionSlot> {
        if let Some(slot) = self.slot(region) {
            return slot;
        }
        // `entry` re-checks under the write lock: a racing inserter may
        // have won, and every caller must end up with the same slot.
        Arc::clone(
            self.regions
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(region.to_string())
                .or_default(),
        )
    }

    /// Publishes a snapshot for its region, stamping and returning the new
    /// epoch. Publishes for the same region are serialized; a reader waits
    /// at most for the pointer swap.
    pub fn publish(&self, snapshot: ModelSnapshot) -> u64 {
        let slot = self.slot_or_insert(snapshot.region());
        let epoch = slot.publish(snapshot);
        self.publishes.fetch_add(1, Ordering::Relaxed);
        // Every publish but a region's first supersedes exactly one
        // snapshot; the epoch the slot hands back says which this was.
        if epoch > 1 {
            self.snapshots_retired.fetch_add(1, Ordering::Relaxed);
        }
        epoch
    }

    /// The current snapshot for a region, or `None` if nothing has been
    /// published yet. The returned `Arc` stays coherent even if a deploy
    /// swaps the region while the caller holds it.
    pub fn load(&self, region: &str) -> Option<Arc<ModelSnapshot>> {
        self.slot(region).and_then(|slot| slot.load())
    }

    /// The region's current epoch: 0 before the first publish, then one
    /// increment per successful deploy.
    pub fn epoch(&self, region: &str) -> u64 {
        self.slot(region).map_or(0, |slot| slot.epoch())
    }

    /// Regions that have seen at least one publish, ascending.
    pub fn regions(&self) -> Vec<String> {
        let regions = self.regions.read().unwrap_or_else(PoisonError::into_inner);
        let published = regions.iter().filter(|(_, slot)| slot.epoch() > 0);
        published.map(|(region, _)| region.clone()).collect()
    }

    /// Deterministic store statistics (see [`StoreStats`]).
    pub fn stats(&self) -> StoreStats {
        let regions = self.regions.read().unwrap_or_else(PoisonError::into_inner);
        StoreStats {
            publishes: self.publishes.load(Ordering::Relaxed),
            regions: regions.values().filter(|slot| slot.epoch() > 0).count(),
            snapshots_retired: self.snapshots_retired.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seagull_core::pipeline::{GateState, PredictionDoc};

    fn snap(region: &str, version: u64) -> ModelSnapshot {
        let doc = PredictionDoc {
            region: region.into(),
            server_id: 1,
            day: 14,
            step_min: 30,
            values: vec![version as f64; 48],
            duration_min: 60,
            gate: GateState::OPEN,
        };
        ModelSnapshot::from_predictions(region, version, 7, "m", &[doc])
    }

    #[test]
    fn empty_store_loads_nothing() {
        let store = SnapshotStore::new();
        assert!(store.load("west").is_none());
        assert_eq!(store.epoch("west"), 0);
        assert!(store.regions().is_empty());
    }

    #[test]
    fn publish_bumps_epoch_and_swaps() {
        let store = SnapshotStore::new();
        assert_eq!(store.publish(snap("west", 1)), 1);
        let first = store.load("west").unwrap();
        assert_eq!(first.version(), 1);
        assert_eq!(first.epoch(), 1);

        assert_eq!(store.publish(snap("west", 2)), 2);
        let second = store.load("west").unwrap();
        assert_eq!(second.version(), 2);
        assert_eq!(store.epoch("west"), 2);
        // The old Arc is still fully coherent.
        assert_eq!(first.version(), 1);
        assert_eq!(first.server(1).unwrap().prediction().values()[0], 1.0);
    }

    #[test]
    fn regions_are_independent() {
        let store = SnapshotStore::new();
        store.publish(snap("west", 1));
        store.publish(snap("east", 1));
        store.publish(snap("west", 2));
        assert_eq!(store.epoch("west"), 2);
        assert_eq!(store.epoch("east"), 1);
        assert_eq!(
            store.regions(),
            vec!["east".to_string(), "west".to_string()]
        );
    }

    #[test]
    fn stats_track_publishes_and_retirement() {
        let store = SnapshotStore::new();
        store.publish(snap("west", 1));
        store.publish(snap("west", 2));
        store.publish(snap("east", 1));
        assert_eq!(
            store.stats(),
            StoreStats {
                publishes: 3,
                regions: 2,
                snapshots_retired: 1, // west's first snapshot
            }
        );
    }

    #[test]
    fn first_publishes_racing_on_one_region_count_every_retirement() {
        // Whichever publish wins the region's first epoch, the other seven
        // each supersede one snapshot. The test holds the region's publish
        // lock while the eight line up behind it: whatever a publish
        // decides before taking that lock, it decides at epoch 0.
        const THREADS: u64 = 8;
        let store = SnapshotStore::new();
        let slot = store.slot_or_insert("fresh");
        assert!(store.regions().is_empty(), "registered, not published");
        let gate = slot
            .publish_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let barrier = std::sync::Barrier::new(THREADS as usize + 1);
        std::thread::scope(|scope| {
            for v in 1..=THREADS {
                let (store, barrier) = (&store, &barrier);
                scope.spawn(move || {
                    let snapshot = snap("fresh", v);
                    barrier.wait();
                    store.publish(snapshot);
                });
            }
            barrier.wait();
            // Time for the publishers to reach the lock. Only the test's
            // power depends on it: the assertions hold in any interleaving.
            std::thread::sleep(std::time::Duration::from_millis(50));
            drop(gate);
        });
        assert_eq!(slot.epoch(), THREADS, "every publish found this slot");
        assert_eq!(store.regions(), vec!["fresh".to_string()]);
        assert_eq!(
            store.stats(),
            StoreStats {
                publishes: THREADS,
                regions: 1,
                snapshots_retired: THREADS - 1,
            }
        );
    }

    #[test]
    fn concurrent_readers_vs_swap_storm() {
        // `snap` stamps its version into every value, so a load that mixed
        // two publishes would show a version and a value that disagree.
        const SWAPS: u64 = 2_000;
        let store = SnapshotStore::new();
        store.publish(snap("west", 1));
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for v in 2..=SWAPS {
                    store.publish(snap("west", v));
                }
                stop.store(true, Ordering::Release);
            });
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut last = 0;
                    while !stop.load(Ordering::Acquire) {
                        let seen = store.load("west").expect("published");
                        let values = seen.server(1).unwrap().prediction().values();
                        assert!(
                            values.iter().all(|v| *v == seen.version() as f64),
                            "torn value observed"
                        );
                        assert_eq!(seen.epoch(), seen.version(), "stamped before the swap");
                        assert!(seen.epoch() >= last, "a later load saw an older snapshot");
                        last = seen.epoch();
                    }
                });
            }
        });
        assert_eq!(store.load("west").unwrap().version(), SWAPS);
        assert_eq!(store.stats().snapshots_retired, SWAPS - 1);
    }

    #[test]
    fn held_snapshot_survives_deploy_storm() {
        let store = SnapshotStore::new();
        store.publish(snap("west", 1));
        let held = store.load("west").unwrap();
        for v in 2..200 {
            store.publish(snap("west", v));
        }
        assert_eq!(held.version(), 1);
        assert_eq!(held.server(1).unwrap().prediction().values()[0], 1.0);
        assert_eq!(store.load("west").unwrap().version(), 199);
    }
}
