//! Versioned model registry: the serving front door.
//!
//! Every `(name, version)` pair is immutable once registered; publishing a
//! new version atomically swings the `latest` alias under the registry write
//! lock, so concurrent `infer` calls see either the old or the new version,
//! never a torn state. In-flight requests pinned to the old version drain
//! normally — a version's batcher only stops when the model is unregistered
//! (or the registry is dropped).

use crate::batcher::{BatchPolicy, Model, Servable};
use crate::error::ServeError;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::sync::RwLock;
use tfe_parallel::{read, write};
use tfe_runtime::Tensor;

struct ModelEntry {
    versions: BTreeMap<u64, Arc<Model>>,
    latest: u64,
}

/// A thread-safe, versioned registry of servable models, each with its own
/// adaptive micro-batcher.
#[derive(Default)]
pub struct ModelRegistry {
    inner: RwLock<HashMap<String, ModelEntry>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> ModelRegistry {
        ModelRegistry::default()
    }

    /// Register `servable` as `name` at `version` with the default
    /// [`BatchPolicy`]. `latest` moves to the highest registered version.
    ///
    /// # Errors
    /// The `(name, version)` pair is already taken.
    pub fn register(
        &self,
        name: &str,
        version: u64,
        servable: impl Into<Servable>,
    ) -> Result<(), ServeError> {
        self.register_with(name, version, servable, BatchPolicy::default())
    }

    /// [`register`](ModelRegistry::register) with an explicit policy.
    ///
    /// # Errors
    /// The `(name, version)` pair is already taken.
    pub fn register_with(
        &self,
        name: &str,
        version: u64,
        servable: impl Into<Servable>,
        policy: BatchPolicy,
    ) -> Result<(), ServeError> {
        // Start the worker outside the write lock; insertion below is the
        // atomic publish point.
        let model = Model::start(name, version, servable.into(), policy);
        let mut reg = write(&self.inner);
        let entry = reg
            .entry(name.to_string())
            .or_insert_with(|| ModelEntry { versions: BTreeMap::new(), latest: version });
        if entry.versions.contains_key(&version) {
            drop(reg);
            model.shutdown();
            return Err(ServeError::DuplicateVersion { model: name.to_string(), version });
        }
        entry.versions.insert(version, model);
        entry.latest = entry.latest.max(version);
        Ok(())
    }

    /// Re-point the `latest` alias (e.g. a rollback to an older version).
    ///
    /// # Errors
    /// Unknown model or version.
    pub fn set_latest(&self, name: &str, version: u64) -> Result<(), ServeError> {
        let mut reg = write(&self.inner);
        let entry = reg.get_mut(name).ok_or_else(|| ServeError::UnknownModel(name.to_string()))?;
        if !entry.versions.contains_key(&version) {
            return Err(ServeError::UnknownVersion { model: name.to_string(), version });
        }
        entry.latest = version;
        Ok(())
    }

    /// The version `latest` currently points at.
    pub fn latest(&self, name: &str) -> Option<u64> {
        read(&self.inner).get(name).map(|e| e.latest)
    }

    /// All registered versions of `name`, ascending.
    pub fn versions(&self, name: &str) -> Vec<u64> {
        read(&self.inner)
            .get(name)
            .map(|e| e.versions.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Registered model names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = read(&self.inner).keys().cloned().collect();
        names.sort();
        names
    }

    /// Remove `name` entirely, shutting down every version's batcher and
    /// failing still-queued requests with [`ServeError::Shutdown`]. Returns
    /// whether the model existed.
    pub fn unregister(&self, name: &str) -> bool {
        let entry = write(&self.inner).remove(name);
        match entry {
            Some(e) => {
                for model in e.versions.values() {
                    model.shutdown();
                }
                true
            }
            None => false,
        }
    }

    fn resolve(&self, name: &str, version: Option<u64>) -> Result<Arc<Model>, ServeError> {
        let reg = read(&self.inner);
        let entry = reg.get(name).ok_or_else(|| ServeError::UnknownModel(name.to_string()))?;
        let v = version.unwrap_or(entry.latest);
        entry
            .versions
            .get(&v)
            .cloned()
            .ok_or(ServeError::UnknownVersion { model: name.to_string(), version: v })
    }

    /// Run one inference request against `latest`, blocking until its batch
    /// resolves. Inputs must carry a leading batch dimension (a single
    /// example is shape `[1, ...]`); the batcher coalesces concurrent
    /// requests along it.
    ///
    /// # Errors
    /// Unknown model, malformed request, batch fault, or shutdown.
    pub fn infer(&self, name: &str, inputs: &[&Tensor]) -> Result<Vec<Tensor>, ServeError> {
        self.resolve(name, None)?.infer(inputs)
    }

    /// [`infer`](ModelRegistry::infer) pinned to a specific version.
    ///
    /// # Errors
    /// Unknown model/version, malformed request, batch fault, or shutdown.
    pub fn infer_version(
        &self,
        name: &str,
        version: u64,
        inputs: &[&Tensor],
    ) -> Result<Vec<Tensor>, ServeError> {
        self.resolve(name, Some(version))?.infer(inputs)
    }

    /// The live [`Model`] behind `name` (at `version`, or `latest`), for
    /// introspection (EWMA estimate, metrics).
    ///
    /// # Errors
    /// Unknown model or version.
    pub fn model(&self, name: &str, version: Option<u64>) -> Result<Arc<Model>, ServeError> {
        self.resolve(name, version)
    }
}

impl Drop for ModelRegistry {
    fn drop(&mut self) {
        for entry in write(&self.inner).values() {
            for model in entry.versions.values() {
                model.shutdown();
            }
        }
    }
}
