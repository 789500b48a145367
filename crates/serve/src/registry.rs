//! The multi-model registry: many named, versioned [`FrozenModel`]s behind
//! one micro-batcher, with atomic zero-downtime hot-swap.
//!
//! # Why a registry
//!
//! One process serving one frozen model cannot host multi-tenant load, and
//! picking up retrained weights required a restart. The [`ModelRegistry`]
//! fixes both: entries are addressed by a `u16` model id (the id the `FF8P`
//! protocol carries in its header flags word), and each
//! entry's model can be **replaced while it is being served** — the
//! train-and-serve-in-one-process story, fed by rotating `FF8C` checkpoints
//! ([`ModelRegistry::swap_from_checkpoint`]).
//!
//! # Swap semantics and memory ordering
//!
//! Each entry holds its current model behind an epoch pointer —
//! `RwLock<Arc<FrozenModel>>`, the std-only equivalent of an arc-swap. A
//! reader *resolves* the entry once per request wave
//! ([`ModelRegistry::resolve`]), cloning the `Arc` under a momentary read
//! lock; a swap takes the write lock only to replace the pointer (never to
//! run inference) and bumps the entry's version gauge with release
//! ordering. Consequences, which the hot-swap determinism suite asserts:
//!
//! - a resolved [`ModelSnapshot`] pins its epoch — every row submitted
//!   through it is served by exactly that model, bit-exactly, no matter how
//!   many swaps land while the rows sit in the batch queue;
//! - readers never observe a torn model: they see the old `Arc` or the new
//!   one, never a mix, because the pointer swap is a single guarded store;
//! - swaps are zero-downtime: the write lock is held for one pointer store,
//!   and in-flight batches keep the old epoch alive through their `Arc`
//!   until the last reply is delivered, after which it is freed.
//!
//! # Chaos safety
//!
//! [`ModelRegistry::swap_from_checkpoint`] builds and validates the
//! replacement **before** touching the entry: a truncated, byte-flipped or
//! wrong-version `FF8C` artifact yields a typed [`ServeError`] and the
//! currently-serving model remains exactly as it was — a failed reload can
//! never evict or corrupt live traffic.

use crate::{FrozenModel, Result, ServeError, ShedCounters};
use ff_metrics::{Counter, Gauge, LatencySummary};
use ff_trace::{MetricsRegistry, SharedHistogram};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// The model id requests address when they do not say otherwise.
pub const DEFAULT_MODEL_ID: u16 = 0;

/// One registry slot: a named model behind an epoch pointer, plus the
/// per-model serving statistics the stats endpoint reports.
#[derive(Debug)]
pub struct ModelEntry {
    id: u16,
    name: String,
    /// The epoch pointer (see the [module docs](self) for the ordering
    /// contract).
    current: RwLock<Arc<FrozenModel>>,
    /// Monotonic model version: 1 for the registered model, bumped by every
    /// successful swap.
    version: Gauge,
    swaps: Counter,
    requests: Counter,
    shed: ShedCounters,
    latency: SharedHistogram,
    /// Wall-clock duration of each [`ModelEntry::swap_model`] (lock +
    /// shape check + pointer store) — the hot-swap cost the observability
    /// story promises is bounded.
    swap_latency: SharedHistogram,
}

impl ModelEntry {
    fn new(id: u16, name: String, model: FrozenModel) -> Self {
        let version = Gauge::new();
        version.set(1);
        ModelEntry {
            id,
            name,
            current: RwLock::new(Arc::new(model)),
            version,
            swaps: Counter::new(),
            requests: Counter::new(),
            shed: ShedCounters::default(),
            latency: SharedHistogram::new(),
            swap_latency: SharedHistogram::new(),
        }
    }

    /// Publishes this entry's existing metric handles into `metrics` under
    /// stable `serve.model.<id>.*` names — the call sites keep bumping the
    /// handles they already hold; the registry just sees the same cells.
    fn bind_metrics(&self, metrics: &MetricsRegistry) {
        let prefix = format!("serve.model.{}", self.id);
        metrics.register_gauge(&format!("{prefix}.version"), self.version.clone());
        metrics.register_counter(&format!("{prefix}.swaps"), self.swaps.clone());
        metrics.register_counter(&format!("{prefix}.requests"), self.requests.clone());
        metrics.register_counter(
            &format!("{prefix}.shed_expired"),
            self.shed.shed_expired.clone(),
        );
        metrics.register_counter(
            &format!("{prefix}.rejected_overload"),
            self.shed.rejected_overload.clone(),
        );
        metrics.register_counter(
            &format!("{prefix}.rejected_deadline"),
            self.shed.rejected_deadline.clone(),
        );
        metrics.register_histogram(&format!("{prefix}.latency_ns"), self.latency.clone());
        metrics.register_histogram(&format!("{prefix}.swap_ns"), self.swap_latency.clone());
    }

    /// The entry's model id.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// The entry's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current model version (1 at registration, +1 per swap).
    pub fn version(&self) -> u64 {
        self.version.get()
    }

    /// The model this entry currently serves (a momentary read lock; the
    /// returned `Arc` pins that epoch).
    pub fn model(&self) -> Arc<FrozenModel> {
        Arc::clone(&self.current.read().expect("model epoch lock poisoned"))
    }

    /// Cloneable handles onto this entry's load-shedding counters, so a
    /// front-end can record per-model refusals it makes itself.
    pub fn shed_counters(&self) -> &ShedCounters {
        &self.shed
    }

    /// Records one served request's queue-to-reply latency.
    pub(crate) fn record_served(&self, latency: Duration) {
        self.requests.inc();
        self.latency.record(latency);
    }

    /// A consistent snapshot of this entry's serving statistics.
    pub fn stats(&self) -> ModelStats {
        ModelStats {
            id: self.id,
            name: self.name.clone(),
            version: self.version.get(),
            swaps: self.swaps.get(),
            requests: self.requests.get(),
            shed_expired: self.shed.shed_expired.get(),
            rejected_overload: self.shed.rejected_overload.get(),
            rejected_deadline: self.shed.rejected_deadline.get(),
            latency: self.latency.summary(),
        }
    }

    /// Replaces the entry's model, enforcing shape compatibility.
    fn swap_model(&self, model: FrozenModel) -> Result<u64> {
        let swap_started = Instant::now();
        let replacement = Arc::new(model);
        let mut current = self.current.write().expect("model epoch lock poisoned");
        if replacement.input_features() != current.input_features()
            || replacement.num_classes() != current.num_classes()
        {
            return Err(ServeError::InvalidModel {
                message: format!(
                    "swap shape mismatch for model {}: serving {}→{} classes, \
                     replacement is {}→{}",
                    self.id,
                    current.input_features(),
                    current.num_classes(),
                    replacement.input_features(),
                    replacement.num_classes()
                ),
            });
        }
        *current = replacement;
        self.swaps.inc();
        let version = self.version.bump();
        self.swap_latency.record(swap_started.elapsed());
        Ok(version)
    }
}

/// One model's serving statistics, as reported through
/// [`crate::ServerStats`] and the `FF8P` stats reply.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelStats {
    /// The registry id requests address this model by.
    pub id: u16,
    /// Human-readable entry name.
    pub name: String,
    /// Current model version (1 at registration, +1 per swap).
    pub version: u64,
    /// Successful hot-swaps performed on this entry.
    pub swaps: u64,
    /// Requests this model answered successfully.
    pub requests: u64,
    /// Requests shed in the batch queue on an expired deadline.
    pub shed_expired: u64,
    /// Requests refused admission under overload.
    pub rejected_overload: u64,
    /// Requests refused on arrival with an already-expired deadline.
    pub rejected_deadline: u64,
    /// Queue-to-reply latency distribution (served requests only).
    pub latency: LatencySummary,
}

/// A resolved (entry, model-epoch) pair: the unit of torn-reply prevention.
///
/// Resolving once per request wave and submitting every row through the
/// same snapshot guarantees the whole wave is answered by one model epoch,
/// even when a swap lands mid-wave (see the module docs above).
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    entry: Arc<ModelEntry>,
    model: Arc<FrozenModel>,
}

impl ModelSnapshot {
    /// The model id this snapshot resolved.
    pub fn model_id(&self) -> u16 {
        self.entry.id
    }

    /// The pinned model epoch.
    pub fn model(&self) -> &Arc<FrozenModel> {
        &self.model
    }

    /// The registry entry (live statistics, *not* pinned — its `version()`
    /// keeps moving under swaps).
    pub fn entry(&self) -> &Arc<ModelEntry> {
        &self.entry
    }
}

#[derive(Debug)]
struct RegistryInner {
    entries: RwLock<BTreeMap<u16, Arc<ModelEntry>>>,
    default_id: u16,
    /// Set by [`ModelRegistry::bind_metrics`]; entries registered after the
    /// bind publish their metrics here immediately.
    metrics: Mutex<Option<MetricsRegistry>>,
}

/// Many named, versioned frozen models behind one id space — the module
/// docs above cover the swap semantics. Cheap to clone; clones share one
/// registry.
///
/// # Examples
///
/// ```
/// use ff_models::small_mlp;
/// use ff_serve::{FrozenModel, ModelRegistry, DEFAULT_MODEL_ID};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), ff_serve::ServeError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let registry = ModelRegistry::new(FrozenModel::freeze(
///     &small_mlp(12, &[8], 4, &mut rng),
///     4,
/// )?);
/// registry.register(
///     7,
///     "candidate",
///     FrozenModel::freeze(&small_mlp(12, &[8], 4, &mut rng), 4)?,
/// )?;
/// assert_eq!(registry.ids(), vec![DEFAULT_MODEL_ID, 7]);
///
/// // Zero-downtime replacement: readers keep the epoch they resolved.
/// let replacement = FrozenModel::freeze(&small_mlp(12, &[8], 4, &mut rng), 4)?;
/// assert_eq!(registry.swap(7, replacement)?, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ModelRegistry {
    inner: Arc<RegistryInner>,
}

impl ModelRegistry {
    /// Creates a registry serving `model` as the default entry
    /// ([`DEFAULT_MODEL_ID`], named `"default"`) — what id-less callers
    /// get.
    pub fn new(model: FrozenModel) -> Self {
        let entry = ModelEntry::new(DEFAULT_MODEL_ID, "default".to_string(), model);
        let mut entries = BTreeMap::new();
        entries.insert(DEFAULT_MODEL_ID, Arc::new(entry));
        ModelRegistry {
            inner: Arc::new(RegistryInner {
                entries: RwLock::new(entries),
                default_id: DEFAULT_MODEL_ID,
                metrics: Mutex::new(None),
            }),
        }
    }

    /// Publishes every entry's metric handles (version, swaps, requests,
    /// shed counts, serve latency, swap latency) into `metrics` under
    /// `serve.model.<id>.*` names, and remembers the registry so models
    /// registered later are published the moment they appear.
    /// [`crate::Server::start_registry`] calls this automatically.
    pub fn bind_metrics(&self, metrics: &MetricsRegistry) {
        for entry in self.read_entries().values() {
            entry.bind_metrics(metrics);
        }
        *self
            .inner
            .metrics
            .lock()
            .expect("registry metrics lock poisoned") = Some(metrics.clone());
    }

    /// Registers a new entry under `id`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] when `id` is already registered —
    /// replacing a live model is [`ModelRegistry::swap`]'s job, and the two
    /// must not be confused silently.
    pub fn register(&self, id: u16, name: &str, model: FrozenModel) -> Result<()> {
        let mut entries = self.write_entries();
        if entries.contains_key(&id) {
            return Err(ServeError::BadRequest {
                message: format!("model id {id} is already registered (use swap to replace)"),
            });
        }
        let entry = Arc::new(ModelEntry::new(id, name.to_string(), model));
        if let Some(metrics) = self
            .inner
            .metrics
            .lock()
            .expect("registry metrics lock poisoned")
            .as_ref()
        {
            entry.bind_metrics(metrics);
        }
        entries.insert(id, entry);
        Ok(())
    }

    /// Atomically replaces the model served under `id` and returns the new
    /// version. In-flight requests that already resolved the entry keep the
    /// old epoch; every later resolve sees the replacement.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] for an unregistered id and
    /// [`ServeError::InvalidModel`] when the replacement's shape
    /// (`input_features`, `num_classes`) differs from the serving model —
    /// a swap must never change the contract live clients rely on.
    pub fn swap(&self, id: u16, model: FrozenModel) -> Result<u64> {
        self.entry(id)?.swap_model(model)
    }

    /// [`ModelRegistry::swap`] from a training checkpoint: restores the
    /// checkpoint into `net`, freezes it, and swaps the result in — the
    /// zero-downtime reload path fed by a rotating `FF8C` directory.
    ///
    /// The replacement is fully built and validated **before** the entry is
    /// touched; on any error the currently-serving model is untouched.
    ///
    /// # Errors
    ///
    /// Checkpoint/restore failures as typed [`ServeError`]s (see
    /// [`FrozenModel::from_checkpoint`]), plus the [`ModelRegistry::swap`]
    /// errors.
    pub fn swap_from_checkpoint(
        &self,
        id: u16,
        checkpoint: &ff_core::Checkpoint,
        net: &mut ff_nn::Sequential,
        num_classes: usize,
    ) -> Result<u64> {
        let replacement = FrozenModel::from_checkpoint(checkpoint, net, num_classes)?;
        self.swap(id, replacement)
    }

    /// Resolves `id` to a pinned (entry, model-epoch) snapshot. Resolve
    /// once per request wave; see [`ModelSnapshot`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] for an unregistered id.
    pub fn resolve(&self, id: u16) -> Result<ModelSnapshot> {
        let entry = self.entry(id)?;
        let model = entry.model();
        Ok(ModelSnapshot { entry, model })
    }

    /// The registry entry for `id`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] for an unregistered id.
    pub fn entry(&self, id: u16) -> Result<Arc<ModelEntry>> {
        self.read_entries()
            .get(&id)
            .map(Arc::clone)
            .ok_or(ServeError::UnknownModel { id })
    }

    /// The model currently served under `id`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] for an unregistered id.
    pub fn get(&self, id: u16) -> Result<Arc<FrozenModel>> {
        Ok(self.entry(id)?.model())
    }

    /// The id id-less requests are routed to.
    pub fn default_id(&self) -> u16 {
        self.inner.default_id
    }

    /// The model currently served under the default id.
    pub fn default_model(&self) -> Arc<FrozenModel> {
        self.get(self.inner.default_id)
            .expect("the default entry always exists")
    }

    /// Registered model ids, ascending.
    pub fn ids(&self) -> Vec<u16> {
        self.read_entries().keys().copied().collect()
    }

    /// Number of registered models (at least 1: the default entry).
    pub fn len(&self) -> usize {
        self.read_entries().len()
    }

    /// Never true — a registry always holds its default entry. Present for
    /// API completeness alongside [`ModelRegistry::len`].
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Per-model statistics for every entry, ascending by id.
    pub fn model_stats(&self) -> Vec<ModelStats> {
        self.read_entries()
            .values()
            .map(|entry| entry.stats())
            .collect()
    }

    fn read_entries(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<u16, Arc<ModelEntry>>> {
        self.inner
            .entries
            .read()
            .expect("registry entries lock poisoned")
    }

    fn write_entries(&self) -> std::sync::RwLockWriteGuard<'_, BTreeMap<u16, Arc<ModelEntry>>> {
        self.inner
            .entries
            .write()
            .expect("registry entries lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_models::small_mlp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model(seed: u64) -> FrozenModel {
        let mut rng = StdRng::seed_from_u64(seed);
        FrozenModel::freeze(&small_mlp(8, &[6], 3, &mut rng), 3).unwrap()
    }

    #[test]
    fn registers_resolves_and_lists_models() {
        let registry = ModelRegistry::new(model(0));
        assert_eq!(registry.default_id(), DEFAULT_MODEL_ID);
        assert_eq!(registry.len(), 1);
        assert!(!registry.is_empty());
        registry.register(3, "candidate", model(1)).unwrap();
        assert_eq!(registry.ids(), vec![0, 3]);
        let snapshot = registry.resolve(3).unwrap();
        assert_eq!(snapshot.model_id(), 3);
        assert_eq!(snapshot.entry().name(), "candidate");
        assert_eq!(snapshot.entry().version(), 1);
        assert_eq!(
            registry.resolve(9).unwrap_err(),
            ServeError::UnknownModel { id: 9 }
        );
        assert!(matches!(
            registry.register(3, "again", model(2)),
            Err(ServeError::BadRequest { .. })
        ));
    }

    #[test]
    fn swap_bumps_the_version_and_keeps_resolved_epochs() {
        let registry = ModelRegistry::new(model(0));
        let before = registry.resolve(0).unwrap();
        assert_eq!(registry.swap(0, model(1)).unwrap(), 2);
        let after = registry.resolve(0).unwrap();
        // The pre-swap snapshot still pins the old epoch...
        assert!(!Arc::ptr_eq(before.model(), after.model()));
        // ...while the entry's live view moved on.
        assert_eq!(before.entry().version(), 2);
        assert_eq!(after.entry().stats().swaps, 1);
    }

    #[test]
    fn swap_rejects_unknown_ids_and_shape_changes() {
        let registry = ModelRegistry::new(model(0));
        assert_eq!(
            registry.swap(7, model(1)).unwrap_err(),
            ServeError::UnknownModel { id: 7 }
        );
        let mut rng = StdRng::seed_from_u64(9);
        let wrong_shape = FrozenModel::freeze(&small_mlp(10, &[6], 3, &mut rng), 3).unwrap();
        assert!(matches!(
            registry.swap(0, wrong_shape),
            Err(ServeError::InvalidModel { .. })
        ));
        // The failed swap left the entry untouched.
        assert_eq!(registry.entry(0).unwrap().version(), 1);
    }

    #[test]
    fn per_model_stats_start_empty() {
        let registry = ModelRegistry::new(model(0));
        registry.register(1, "b", model(1)).unwrap();
        let stats = registry.model_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].id, 0);
        assert_eq!(stats[1].name, "b");
        assert!(stats.iter().all(|s| s.requests == 0 && s.version == 1));
    }
}
