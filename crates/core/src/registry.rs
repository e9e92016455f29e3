//! Model deployment and version tracking.
//!
//! The AML pipeline "trains a model, deploys the model, and makes it
//! accessible through a REST endpoint. The pipeline tracks the versions of
//! deployed models" (Section 2.2).
//!
//! [`ModelRegistry`] numbers each region's successful deploys and keeps the
//! last one. The scoring endpoint itself is `seagull-serve`, which the
//! pipeline publishes each deployed region snapshot to; a failed deploy
//! registers nothing, so [`ModelRegistry::deployed`] names the version of
//! the snapshot the region keeps serving. That kept snapshot is the only
//! last-known-good.

use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

/// A region's last successful deploy.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelVersion {
    /// Monotonically increasing version number within the region.
    pub version: u64,
    /// Forecaster family the version was trained with.
    pub model_name: String,
    /// Week (first day index) whose data trained this version.
    pub trained_week: i64,
}

/// The last successful deploy per region.
#[derive(Clone, Default)]
pub struct ModelRegistry {
    deployed: Arc<RwLock<HashMap<String, ModelVersion>>>,
}

impl ModelRegistry {
    /// Creates an empty registry.
    pub fn new() -> ModelRegistry {
        ModelRegistry::default()
    }

    /// Records a successful deploy for a region, numbered one past the
    /// region's previous deploy (1 for its first). Returns the new version
    /// number.
    pub fn deploy(&self, region: &str, model_name: &str, trained_week: i64) -> u64 {
        let mut deployed = self
            .deployed
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let version = deployed.get(region).map_or(1, |v| v.version + 1);
        deployed.insert(
            region.to_string(),
            ModelVersion {
                version,
                model_name: model_name.to_string(),
                trained_week,
            },
        );
        version
    }

    /// The region's last successful deploy, if it has one.
    pub fn deployed(&self, region: &str) -> Option<ModelVersion> {
        self.deployed
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(region)
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deploy_versions_monotonically() {
        let reg = ModelRegistry::new();
        assert!(reg.deployed("west").is_none());
        assert_eq!(reg.deploy("west", "persistent-prev-day", 100), 1);
        assert_eq!(reg.deploy("west", "persistent-prev-day", 107), 2);
        assert_eq!(reg.deploy("east", "ssa", 100), 1);
        assert_eq!(
            reg.deployed("west"),
            Some(ModelVersion {
                version: 2,
                model_name: "persistent-prev-day".into(),
                trained_week: 107,
            })
        );
        assert_eq!(reg.deployed("east").unwrap().model_name, "ssa");
    }
}
