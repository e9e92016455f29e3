//! Incident management.
//!
//! "Examples of incidents include missing or invalid input data, errors or
//! exceptions in any step of the pipeline, and failed model deployment"
//! (Section 2.2). Incidents raised here feed the dashboard and, in
//! production, the paging system.
//!
//! Raises are fingerprinted: a repeat of the same open
//! `(severity, source, region, message-key)` increments a count on the
//! existing incident instead of appending a duplicate row, so retry loops
//! cannot flood the log. The key defaults to the full message
//! ([`IncidentManager::raise`]); components with varying detail text pass a
//! stable key via [`IncidentManager::raise_keyed`].

use serde::Serialize;
use std::sync::{Arc, PoisonError, RwLock};

/// Incident severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum Severity {
    /// Informational; no operator action expected.
    Info,
    /// Degraded but serving; worth a look.
    Warning,
    /// Requires operator attention (pages in production).
    Critical,
}

/// Incident lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum IncidentState {
    /// Raised and not yet resolved.
    Open,
    /// Resolved; kept in the log for history.
    Resolved,
}

/// One incident.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Incident {
    /// Monotonically increasing id within one manager.
    pub id: u64,
    /// How bad it is.
    pub severity: Severity,
    /// The component that raised it (e.g. `"validation"`, `"deployment"`).
    pub source: String,
    /// Region the run belonged to.
    pub region: String,
    /// Latest human-readable description.
    pub message: String,
    /// Dedup fingerprint within `(severity, source, region)`; defaults to
    /// the message.
    pub message_key: String,
    /// How many times this incident was raised while open.
    pub count: u32,
    /// Current lifecycle state.
    pub state: IncidentState,
}

/// One raise, as recorded by a journaling manager (see
/// [`IncidentManager::recording`]).
#[derive(Debug, Clone)]
struct RaiseEvent {
    severity: Severity,
    source: String,
    region: String,
    key: String,
    message: String,
}

#[derive(Default)]
struct Inner {
    incidents: Vec<Incident>,
    next_id: u64,
    /// `Some` when this manager journals its mutations for later replay
    /// onto another manager via [`IncidentManager::absorb`].
    journal: Option<Vec<RaiseEvent>>,
}

/// Thread-safe incident log shared across pipeline components.
#[derive(Clone, Default)]
pub struct IncidentManager {
    inner: Arc<RwLock<Inner>>,
}

impl IncidentManager {
    /// Creates an empty manager.
    pub fn new() -> IncidentManager {
        IncidentManager::default()
    }

    /// Creates an empty manager that journals every `raise*` call, so the
    /// sequence can later be replayed onto a shared manager with
    /// [`IncidentManager::absorb`].
    ///
    /// The fleet orchestrator hands each concurrent region run a recording
    /// scratch manager and absorbs them in region input order: the merged
    /// log (ids, and dedup counts against incidents open from earlier weeks)
    /// is then identical to a sequential run. Note [`IncidentManager::resolve`]
    /// by id is *not* journaled — ids are scratch-local.
    pub fn recording() -> IncidentManager {
        let m = IncidentManager::new();
        m.inner
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .journal = Some(Vec::new());
        m
    }

    /// Replays the journal of a [`IncidentManager::recording`] manager onto
    /// this one, applying the same dedup as if the calls had been made here
    /// directly. Drains the other's journal.
    pub fn absorb(&self, other: &IncidentManager) {
        let events = {
            let mut inner = other.inner.write().unwrap_or_else(PoisonError::into_inner);
            inner
                .journal
                .as_mut()
                .map(std::mem::take)
                .unwrap_or_default()
        };
        for e in events {
            self.raise_with_key(e.severity, &e.source, &e.region, e.key, e.message);
        }
    }

    /// Raises an incident, returning its id. The message doubles as the
    /// dedup key: an identical open incident gains a count instead of a row.
    pub fn raise(
        &self,
        severity: Severity,
        source: &str,
        region: &str,
        message: impl Into<String>,
    ) -> u64 {
        let message = message.into();
        let key = message.clone();
        self.raise_with_key(severity, source, region, key, message)
    }

    /// Raises an incident with an explicit dedup key, for callers whose
    /// message carries varying detail (attempt counts, error text) that
    /// should still coalesce into one open incident.
    pub fn raise_keyed(
        &self,
        severity: Severity,
        source: &str,
        region: &str,
        key: impl Into<String>,
        message: impl Into<String>,
    ) -> u64 {
        self.raise_with_key(severity, source, region, key.into(), message.into())
    }

    fn raise_with_key(
        &self,
        severity: Severity,
        source: &str,
        region: &str,
        key: String,
        message: String,
    ) -> u64 {
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(journal) = inner.journal.as_mut() {
            journal.push(RaiseEvent {
                severity,
                source: source.to_string(),
                region: region.to_string(),
                key: key.clone(),
                message: message.clone(),
            });
        }
        if let Some(existing) = inner.incidents.iter_mut().find(|i| {
            i.state == IncidentState::Open
                && i.severity == severity
                && i.source == source
                && i.region == region
                && i.message_key == key
        }) {
            existing.count += 1;
            // Keep the latest detail text.
            existing.message = message;
            return existing.id;
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.incidents.push(Incident {
            id,
            severity,
            source: source.to_string(),
            region: region.to_string(),
            message,
            message_key: key,
            count: 1,
            state: IncidentState::Open,
        });
        id
    }

    /// Resolves an incident; returns whether it existed and was open.
    pub fn resolve(&self, id: u64) -> bool {
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        match inner.incidents.iter_mut().find(|i| i.id == id) {
            Some(i) if i.state == IncidentState::Open => {
                i.state = IncidentState::Resolved;
                true
            }
            _ => false,
        }
    }

    /// All incidents (snapshot).
    pub fn all(&self) -> Vec<Incident> {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .incidents
            .clone()
    }

    /// Open incidents (snapshot).
    pub fn open(&self) -> Vec<Incident> {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .incidents
            .iter()
            .filter(|i| i.state == IncidentState::Open)
            .cloned()
            .collect()
    }

    /// Count by severity, open incidents only.
    pub fn open_count(&self, severity: Severity) -> usize {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .incidents
            .iter()
            .filter(|i| i.state == IncidentState::Open && i.severity == severity)
            .count()
    }

    /// Open incidents across all severities.
    pub fn open_total(&self) -> usize {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .incidents
            .iter()
            .filter(|i| i.state == IncidentState::Open)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_and_list() {
        let m = IncidentManager::new();
        let a = m.raise(Severity::Warning, "validation", "west", "bound anomaly");
        let b = m.raise(Severity::Critical, "deployment", "west", "deploy failed");
        assert_ne!(a, b);
        assert_eq!(m.all().len(), 2);
        assert_eq!(m.open_count(Severity::Critical), 1);
        assert_eq!(m.open_count(Severity::Warning), 1);
        assert_eq!(m.open_count(Severity::Info), 0);
        assert_eq!(m.open_total(), 2);
    }

    #[test]
    fn resolve_lifecycle() {
        let m = IncidentManager::new();
        let id = m.raise(Severity::Info, "x", "r", "msg");
        assert!(m.resolve(id));
        assert!(!m.resolve(id), "double resolve is a no-op");
        assert!(!m.resolve(999), "unknown id");
        assert!(m.open().is_empty());
        assert_eq!(m.all().len(), 1);
    }

    #[test]
    fn duplicate_raises_coalesce() {
        let m = IncidentManager::new();
        let a = m.raise(Severity::Warning, "validation", "west", "bound anomaly");
        let b = m.raise(Severity::Warning, "validation", "west", "bound anomaly");
        assert_eq!(a, b, "repeat raise returns the open incident's id");
        assert_eq!(m.all().len(), 1);
        assert_eq!(m.all()[0].count, 2);

        // Different region, severity, or message each open a fresh row.
        m.raise(Severity::Warning, "validation", "east", "bound anomaly");
        m.raise(Severity::Critical, "validation", "west", "bound anomaly");
        m.raise(Severity::Warning, "validation", "west", "other anomaly");
        assert_eq!(m.all().len(), 4);
    }

    #[test]
    fn keyed_raises_keep_latest_detail() {
        let m = IncidentManager::new();
        let a = m.raise_keyed(
            Severity::Critical,
            "train",
            "west",
            "train-failed",
            "attempt 1",
        );
        let b = m.raise_keyed(
            Severity::Critical,
            "train",
            "west",
            "train-failed",
            "attempt 2",
        );
        assert_eq!(a, b);
        let all = m.all();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].count, 2);
        assert_eq!(all[0].message, "attempt 2");
    }

    #[test]
    fn resolved_incidents_do_not_absorb_new_raises() {
        let m = IncidentManager::new();
        let a = m.raise(Severity::Warning, "s", "r", "m");
        assert!(m.resolve(a));
        let b = m.raise(Severity::Warning, "s", "r", "m");
        assert_ne!(a, b, "a resolved incident stays closed; a new row opens");
        assert_eq!(m.all().len(), 2);
        assert_eq!(m.open_total(), 1);
    }

    #[test]
    fn absorb_replays_dedup_across_managers() {
        let shared = IncidentManager::new();
        // Open incident from an "earlier week" on the shared manager.
        shared.raise(Severity::Critical, "ingestion", "west", "blocked");

        let scratch = IncidentManager::recording();
        scratch.raise(Severity::Warning, "validation", "west", "gap");
        scratch.raise(Severity::Warning, "validation", "west", "gap");
        // A repeat recorded in the scratch must coalesce into the shared
        // manager's open incident on replay.
        scratch.raise(Severity::Critical, "ingestion", "west", "blocked");

        shared.absorb(&scratch);
        let all = shared.all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].count, 2, "earlier week's incident counted again");
        assert_eq!(all[1].source, "validation");
        assert_eq!(all[1].count, 2, "dedup preserved through replay");

        // Journal drained: a second absorb is a no-op.
        shared.absorb(&scratch);
        assert_eq!(shared.all().len(), 2);
    }

    #[test]
    fn absorb_in_region_order_matches_sequential() {
        let sequential = IncidentManager::new();
        sequential.raise(Severity::Warning, "ingestion", "region-a", "m");
        sequential.raise(Severity::Critical, "train", "region-b", "m");

        let merged = IncidentManager::new();
        let a = IncidentManager::recording();
        a.raise(Severity::Warning, "ingestion", "region-a", "m");
        let b = IncidentManager::recording();
        b.raise(Severity::Critical, "train", "region-b", "m");
        merged.absorb(&a);
        merged.absorb(&b);
        assert_eq!(sequential.all(), merged.all());
    }

    #[test]
    fn concurrent_duplicate_raises_coalesce_into_one() {
        let m = IncidentManager::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        m.raise(Severity::Info, "t", "r", "m");
                    }
                });
            }
        });
        let all = m.all();
        assert_eq!(all.len(), 1, "identical raises dedup to one incident");
        assert_eq!(all[0].count, 200);
    }
}
