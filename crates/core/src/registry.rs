//! Model deployment, version tracking, and last-known-good fallback.
//!
//! The AML pipeline "trains a model, deploys the model, and makes it
//! accessible through a REST endpoint. The pipeline tracks the versions of
//! deployed models" and "SEAGULL continually re-evaluates accuracy of
//! predictions, fallback to previously known good models and triggers alerts
//! as appropriate" (Sections 1 and 2.2).
//!
//! [`ModelRegistry`] is the version/metadata tracker. The scoring endpoint
//! itself is `seagull-serve`, which the pipeline publishes each deployed
//! region snapshot to.

use crate::incident::{IncidentManager, Severity};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

/// Use-case accuracy of one model version, as recorded by the Accuracy
/// Evaluation module (all percentages, 0–100).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ModelAccuracy {
    /// Correctly chosen LL windows (Definition 8).
    pub window_correct_pct: f64,
    /// Accurately predicted load inside LL windows (Definition 2).
    pub load_accurate_pct: f64,
    /// Predictable servers (Definition 9).
    pub predictable_pct: f64,
}

impl ModelAccuracy {
    /// The scalar the fallback rule compares: the minimum of the two
    /// per-window metrics (both must stay healthy).
    pub fn health(&self) -> f64 {
        self.window_correct_pct.min(self.load_accurate_pct)
    }
}

/// Deployment state of a version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum VersionState {
    /// Currently serving its region.
    Deployed,
    /// Superseded by a newer version.
    Retired,
    /// Reverted after a bad deploy.
    RolledBack,
}

/// One tracked model version.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ModelVersion {
    /// Region the version serves.
    pub region: String,
    /// Monotonically increasing version number within the region.
    pub version: u64,
    /// Forecaster family the version was trained with.
    pub model_name: String,
    /// Week (first day index) whose data trained this version.
    pub trained_week: i64,
    /// Current deployment state.
    pub state: VersionState,
    /// Evaluation results attached once the next week scores it.
    pub accuracy: Option<ModelAccuracy>,
}

#[derive(Default)]
struct RegistryInner {
    /// Version history per region, oldest first.
    versions: HashMap<String, Vec<ModelVersion>>,
}

/// Version tracker with last-known-good fallback.
#[derive(Clone, Default)]
pub struct ModelRegistry {
    inner: Arc<RwLock<RegistryInner>>,
}

impl ModelRegistry {
    /// Creates an empty registry.
    pub fn new() -> ModelRegistry {
        ModelRegistry::default()
    }

    /// Registers and deploys a new version for a region; the previous
    /// deployed version is retired. Returns the new version number.
    pub fn deploy(&self, region: &str, model_name: &str, trained_week: i64) -> u64 {
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let history = inner.versions.entry(region.to_string()).or_default();
        for v in history.iter_mut() {
            if v.state == VersionState::Deployed {
                v.state = VersionState::Retired;
            }
        }
        let version = history.last().map_or(1, |v| v.version + 1);
        history.push(ModelVersion {
            region: region.to_string(),
            version,
            model_name: model_name.to_string(),
            trained_week,
            state: VersionState::Deployed,
            accuracy: None,
        });
        version
    }

    /// Records measured accuracy for a version.
    pub fn record_accuracy(&self, region: &str, version: u64, accuracy: ModelAccuracy) -> bool {
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let Some(history) = inner.versions.get_mut(region) else {
            return false;
        };
        match history.iter_mut().find(|v| v.version == version) {
            Some(v) => {
                v.accuracy = Some(accuracy);
                true
            }
            None => false,
        }
    }

    /// The currently deployed version for a region.
    pub fn deployed(&self, region: &str) -> Option<ModelVersion> {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .versions
            .get(region)?
            .iter()
            .rev()
            .find(|v| v.state == VersionState::Deployed)
            .cloned()
    }

    /// Full version history for a region, oldest first.
    pub fn history(&self, region: &str) -> Vec<ModelVersion> {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .versions
            .get(region)
            .cloned()
            .unwrap_or_default()
    }

    /// The fallback rule: if the deployed version's measured health dropped
    /// more than `tolerance` percentage points below the best previously
    /// measured version, roll back to that version and raise a critical
    /// incident. Returns the version rolled back to, if any.
    pub fn maybe_fallback(
        &self,
        region: &str,
        tolerance: f64,
        incidents: &IncidentManager,
    ) -> Option<u64> {
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let history = inner.versions.get_mut(region)?;
        let deployed_idx = history
            .iter()
            .rposition(|v| v.state == VersionState::Deployed)?;
        let deployed_health = history[deployed_idx].accuracy?.health();
        // Last known good: the best-scoring earlier version.
        let (good_idx, good_health) = history[..deployed_idx]
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.accuracy.map(|a| (i, a.health())))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite health"))?;
        if deployed_health >= good_health - tolerance {
            return None;
        }
        let bad_version = history[deployed_idx].version;
        history[deployed_idx].state = VersionState::RolledBack;
        history[good_idx].state = VersionState::Deployed;
        let good_version = history[good_idx].version;
        incidents.raise(
            Severity::Critical,
            "model-registry",
            region,
            format!(
                "accuracy regression: v{bad_version} health {deployed_health:.1} < \
                 last-known-good v{good_version} health {good_health:.1} - {tolerance:.1}; \
                 rolled back"
            ),
        );
        Some(good_version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(w: f64, l: f64) -> ModelAccuracy {
        ModelAccuracy {
            window_correct_pct: w,
            load_accurate_pct: l,
            predictable_pct: 75.0,
        }
    }

    #[test]
    fn deploy_versions_monotonically() {
        let reg = ModelRegistry::new();
        assert_eq!(reg.deploy("west", "persistent-prev-day", 100), 1);
        assert_eq!(reg.deploy("west", "persistent-prev-day", 107), 2);
        assert_eq!(reg.deploy("east", "ssa", 100), 1);
        let deployed = reg.deployed("west").unwrap();
        assert_eq!(deployed.version, 2);
        let history = reg.history("west");
        assert_eq!(history[0].state, VersionState::Retired);
        assert_eq!(history[1].state, VersionState::Deployed);
    }

    #[test]
    fn record_accuracy_targets_version() {
        let reg = ModelRegistry::new();
        let v = reg.deploy("west", "m", 100);
        assert!(reg.record_accuracy("west", v, acc(99.0, 96.0)));
        assert!(!reg.record_accuracy("west", 999, acc(1.0, 1.0)));
        assert!(!reg.record_accuracy("ghost", v, acc(1.0, 1.0)));
        assert_eq!(
            reg.deployed("west").unwrap().accuracy.unwrap().health(),
            96.0
        );
    }

    #[test]
    fn fallback_on_regression() {
        let reg = ModelRegistry::new();
        let incidents = IncidentManager::new();
        let v1 = reg.deploy("west", "m", 100);
        reg.record_accuracy("west", v1, acc(99.0, 96.0));
        let v2 = reg.deploy("west", "m", 107);
        reg.record_accuracy("west", v2, acc(60.0, 55.0));
        let rolled = reg.maybe_fallback("west", 5.0, &incidents);
        assert_eq!(rolled, Some(v1));
        assert_eq!(reg.deployed("west").unwrap().version, v1);
        assert_eq!(reg.history("west")[1].state, VersionState::RolledBack);
        assert_eq!(incidents.open_count(Severity::Critical), 1);
    }

    #[test]
    fn no_fallback_within_tolerance() {
        let reg = ModelRegistry::new();
        let incidents = IncidentManager::new();
        let v1 = reg.deploy("west", "m", 100);
        reg.record_accuracy("west", v1, acc(99.0, 96.0));
        let v2 = reg.deploy("west", "m", 107);
        reg.record_accuracy("west", v2, acc(97.0, 93.0));
        assert_eq!(reg.maybe_fallback("west", 5.0, &incidents), None);
        assert_eq!(reg.deployed("west").unwrap().version, v2);
        assert!(incidents.all().is_empty());
    }

    #[test]
    fn fallback_needs_measured_history() {
        let reg = ModelRegistry::new();
        let incidents = IncidentManager::new();
        let v1 = reg.deploy("west", "m", 100);
        reg.record_accuracy("west", v1, acc(10.0, 10.0));
        // Only one version: nothing to fall back to.
        assert_eq!(reg.maybe_fallback("west", 5.0, &incidents), None);
    }
}
