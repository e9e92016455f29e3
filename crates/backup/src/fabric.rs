//! The Service Fabric property store substitute.
//!
//! The scheduling algorithm "stores the start time of this window as a
//! service fabric property of respective PostgreSQL and MySQL database
//! instances. This property is used by the backup service to schedule
//! backups" (Section 2.3). Properties here are string key/values per server
//! instance, exactly like fabric properties.

use seagull_telemetry::chaos::DetRng;
use seagull_telemetry::server::ServerId;
use seagull_timeseries::Timestamp;
use std::collections::HashMap;
use std::io;
use std::sync::{Arc, PoisonError, RwLock};

/// The property the backup service reads: minutes-since-epoch of the chosen
/// backup window start.
pub const BACKUP_WINDOW_START_PROPERTY: &str = "seagull.backupWindowStart";

/// Seeded write-fault injection state (tests).
struct ChaosRoll {
    prob: f64,
    rng: DetRng,
}

#[derive(Default)]
struct Inner {
    properties: HashMap<ServerId, HashMap<String, String>>,
    chaos: Option<ChaosRoll>,
    injected_faults: u64,
}

/// Thread-safe per-server property map.
#[derive(Clone, Default)]
pub struct FabricPropertyStore {
    inner: Arc<RwLock<Inner>>,
}

impl FabricPropertyStore {
    /// Creates an empty store.
    pub fn new() -> FabricPropertyStore {
        FabricPropertyStore::default()
    }

    /// Enables seeded write-fault injection: each [`FabricPropertyStore::try_set`]
    /// fails with the given probability, deterministically per seed.
    pub fn inject_write_faults(&self, seed: u64, prob: f64) {
        self.inner
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .chaos = Some(ChaosRoll {
            prob,
            rng: DetRng::new(seed),
        });
    }

    /// Write faults injected so far.
    pub fn injected_faults(&self) -> u64 {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .injected_faults
    }

    /// Sets a property on a server instance (infallible; bypasses fault
    /// injection).
    pub fn set(&self, server: ServerId, key: &str, value: impl Into<String>) {
        self.inner
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .properties
            .entry(server)
            .or_default()
            .insert(key.to_string(), value.into());
    }

    /// Fault-aware property write: rolls the injected write-fault dice (a
    /// no-op in production, where no chaos is configured), then writes.
    pub fn try_set(&self, server: ServerId, key: &str, value: impl Into<String>) -> io::Result<()> {
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let fail = match inner.chaos.as_mut() {
            Some(roll) => roll.prob > 0.0 && roll.rng.next_f64() < roll.prob,
            None => false,
        };
        if fail {
            inner.injected_faults += 1;
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("injected fabric write fault for server {}", server.0),
            ));
        }
        inner
            .properties
            .entry(server)
            .or_default()
            .insert(key.to_string(), value.into());
        Ok(())
    }

    /// Reads a property.
    pub fn get(&self, server: ServerId, key: &str) -> Option<String> {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .properties
            .get(&server)?
            .get(key)
            .cloned()
    }

    /// Removes a property; returns whether it existed.
    pub fn remove(&self, server: ServerId, key: &str) -> bool {
        self.inner
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .properties
            .get_mut(&server)
            .is_some_and(|p| p.remove(key).is_some())
    }

    /// Convenience: fault-aware write of the backup-window start timestamp.
    pub fn try_set_backup_window_start(
        &self,
        server: ServerId,
        start: Timestamp,
    ) -> io::Result<()> {
        self.try_set(
            server,
            BACKUP_WINDOW_START_PROPERTY,
            start.minutes().to_string(),
        )
    }

    /// Convenience: read the backup-window start timestamp, if set and valid.
    pub fn backup_window_start(&self, server: ServerId) -> Option<Timestamp> {
        self.get(server, BACKUP_WINDOW_START_PROPERTY)?
            .parse::<i64>()
            .ok()
            .map(Timestamp::from_minutes)
    }

    /// Number of servers holding at least one property.
    pub fn server_count(&self) -> usize {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .properties
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_remove() {
        let store = FabricPropertyStore::new();
        let s = ServerId(7);
        assert!(store.get(s, "k").is_none());
        store.set(s, "k", "v1");
        store.set(s, "k", "v2");
        assert_eq!(store.get(s, "k").as_deref(), Some("v2"));
        assert!(store.remove(s, "k"));
        assert!(!store.remove(s, "k"));
        assert!(store.get(s, "k").is_none());
    }

    #[test]
    fn backup_window_round_trip() {
        let store = FabricPropertyStore::new();
        let s = ServerId(1);
        let t = Timestamp::from_minutes(123_456);
        store.try_set_backup_window_start(s, t).unwrap();
        assert_eq!(store.backup_window_start(s), Some(t));
        assert_eq!(store.server_count(), 1);
    }

    #[test]
    fn malformed_property_reads_as_none() {
        let store = FabricPropertyStore::new();
        let s = ServerId(2);
        store.set(s, BACKUP_WINDOW_START_PROPERTY, "not-a-number");
        assert!(store.backup_window_start(s).is_none());
    }

    #[test]
    fn injected_write_faults_are_deterministic() {
        let run = || {
            let store = FabricPropertyStore::new();
            store.inject_write_faults(9, 0.5);
            let outcomes: Vec<bool> = (0..40)
                .map(|i| store.try_set(ServerId(i), "k", "v").is_ok())
                .collect();
            (outcomes, store.injected_faults())
        };
        let (a, faults_a) = run();
        let (b, faults_b) = run();
        assert_eq!(a, b);
        assert_eq!(faults_a, faults_b);
        assert!(faults_a > 0, "50% fault rate over 40 writes must fire");
        assert!(a.iter().any(|ok| *ok), "and some writes must succeed");
    }

    #[test]
    fn try_set_without_chaos_always_succeeds() {
        let store = FabricPropertyStore::new();
        let t = Timestamp::from_minutes(99);
        store.try_set_backup_window_start(ServerId(5), t).unwrap();
        assert_eq!(store.backup_window_start(ServerId(5)), Some(t));
        assert_eq!(store.injected_faults(), 0);
    }

    #[test]
    fn properties_are_per_server() {
        let store = FabricPropertyStore::new();
        store.set(ServerId(1), "k", "a");
        store.set(ServerId(2), "k", "b");
        assert_eq!(store.get(ServerId(1), "k").as_deref(), Some("a"));
        assert_eq!(store.get(ServerId(2), "k").as_deref(), Some("b"));
    }
}
