//! The model registry: named, versioned models compiled once and shared
//! across every service worker.
//!
//! Registration runs the shape-generic compiler phases (parse,
//! typecheck, Density IL, schedule, Low-- lowering) exactly once per
//! `(source, schedule, opt-flags)` spec; every request against the
//! registered model then goes through [`RegisteredModel::plan`], which
//! lands in that model's shared plan cache — so N workers serving the
//! same data shape specialize once and share the compiled tapes
//! (`misses == 1` no matter how many race).
//!
//! Re-registering a name appends a new **version** rather than
//! replacing the old one: requests pin a version explicitly or follow
//! the latest, and in-flight requests against an older version keep
//! their artifact alive (it is reference-counted, never torn down
//! under a running chain).

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use augur::{ExecBackend, HostValue, Model, Plan, PlanCacheStats};
use augur_blk::OptFlags;

/// Everything a model registration needs: the surface source, an
/// optional user MCMC schedule (`None` = the compiler's heuristic), and
/// the Blk-IL optimization flags every plan of this model uses.
#[derive(Debug, Clone, Default)]
pub struct ModelSpec {
    /// The model in the surface language, e.g. `"(N) => { ... }"`.
    pub source: String,
    /// User schedule in the paper's notation (`"ESlice mu (*) Gibbs z"`),
    /// or `None` for the heuristic one.
    pub schedule: Option<String>,
    /// Optimization flags; they participate in every plan-cache key
    /// derived from this registration.
    pub opt_flags: OptFlags,
    /// Execution backend for requests against this model that bring no
    /// config of their own (`None` = the service default). `Native`
    /// shares the compiled artifact across all workers through the plan
    /// cache and falls back to the tape when no C toolchain exists.
    pub backend: Option<ExecBackend>,
}

impl ModelSpec {
    /// A spec with the heuristic schedule and default flags.
    pub fn new(source: impl Into<String>) -> ModelSpec {
        ModelSpec { source: source.into(), ..ModelSpec::default() }
    }

    /// Sets the user schedule.
    #[must_use]
    pub fn schedule(mut self, schedule: impl Into<String>) -> ModelSpec {
        self.schedule = Some(schedule.into());
        self
    }

    /// Sets the execution backend for requests without a config.
    #[must_use]
    pub fn backend(mut self, backend: ExecBackend) -> ModelSpec {
        self.backend = Some(backend);
        self
    }
}

/// One compiled registration: a name, a version, and the shape-generic
/// artifact whose plan cache all requests against it share.
#[derive(Debug)]
pub struct RegisteredModel {
    name: String,
    version: u32,
    spec: ModelSpec,
    model: Model,
}

impl RegisteredModel {
    /// The registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The registration version (1-based; registering a name again
    /// appends version `latest + 1`).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The spec this version was registered with.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The compiled shape-generic model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Specializes this model to concrete data under the registration's
    /// opt flags, reusing the shared plan cache when the shape has been
    /// planned before (by any worker).
    ///
    /// # Errors
    ///
    /// Returns binding/allocation failures as [`augur::Error`].
    pub fn plan(
        &self,
        args: Vec<HostValue>,
        data: Vec<(&str, HostValue)>,
    ) -> Result<Plan, augur::Error> {
        Ok(self.model.plan_opt(args, data, self.spec.opt_flags.clone())?)
    }

    /// This version's plan-cache counters.
    pub fn cache_stats(&self) -> PlanCacheStats {
        self.model.cache_stats()
    }

    /// Why this model is demoted Native→Tape by its circuit breaker,
    /// or `None` while the breaker is closed.
    pub fn native_demotion(&self) -> Option<String> {
        self.model.compiled().native_breaker().open_reason()
    }
}

/// Per-model cache counters, as reported by
/// [`ModelRegistry::cache_stats`] and the service metrics snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelCacheStats {
    /// The registered name.
    pub name: String,
    /// The registration version the counters belong to.
    pub version: u32,
    /// The version's plan-cache counters.
    pub stats: PlanCacheStats,
    /// The native circuit breaker's open reason, when this model has
    /// been demoted Native→Tape (`None` = breaker closed).
    pub demoted: Option<String>,
}

/// Named, versioned models behind a read-mostly lock: registration is
/// rare, resolution is every request.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: RwLock<HashMap<String, Vec<Arc<RegisteredModel>>>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> ModelRegistry {
        ModelRegistry::default()
    }

    /// Compiles `spec` and registers it under `name`, returning the new
    /// version number (1 for a fresh name, `latest + 1` otherwise).
    /// Compilation happens outside the registry lock, so a slow build
    /// never blocks request resolution.
    ///
    /// # Errors
    ///
    /// Returns frontend/schedule failures as [`augur::Error`]; a failed
    /// registration leaves the registry unchanged.
    pub fn register(&self, name: &str, spec: ModelSpec) -> Result<u32, augur::Error> {
        let model = match &spec.schedule {
            Some(s) => Model::with_schedule(&spec.source, s)?,
            None => Model::compile(&spec.source)?,
        };
        let mut models = self.models.write().unwrap_or_else(|e| e.into_inner());
        let versions = models.entry(name.to_owned()).or_default();
        let version = versions.len() as u32 + 1;
        versions.push(Arc::new(RegisteredModel { name: name.to_owned(), version, spec, model }));
        Ok(version)
    }

    /// Resolves a name to a registration: `version: None` follows the
    /// latest, `Some(v)` pins one.
    pub fn resolve(&self, name: &str, version: Option<u32>) -> Option<Arc<RegisteredModel>> {
        let models = self.models.read().unwrap_or_else(|e| e.into_inner());
        let versions = models.get(name)?;
        match version {
            None => versions.last().cloned(),
            Some(v) => versions.get(v.checked_sub(1)? as usize).cloned(),
        }
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let models = self.models.read().unwrap_or_else(|e| e.into_inner());
        let mut names: Vec<String> = models.keys().cloned().collect();
        names.sort();
        names
    }

    /// Plan-cache counters of every registered version, sorted by name
    /// then version.
    pub fn cache_stats(&self) -> Vec<ModelCacheStats> {
        let models = self.models.read().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<ModelCacheStats> = models
            .values()
            .flatten()
            .map(|m| ModelCacheStats {
                name: m.name.clone(),
                version: m.version,
                stats: m.cache_stats(),
                demoted: m.native_demotion(),
            })
            .collect();
        out.sort_by(|a, b| (&a.name, a.version).cmp(&(&b.name, b.version)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BETA_BERN: &str = "(N) => {
        param p ~ Beta(1.0, 1.0) ;
        data y[n] ~ Bernoulli(p) for n <- 0 until N ;
    }";

    #[test]
    fn register_resolve_and_version() {
        let reg = ModelRegistry::new();
        assert_eq!(reg.register("bb", ModelSpec::new(BETA_BERN)).unwrap(), 1);
        assert_eq!(reg.register("bb", ModelSpec::new(BETA_BERN).schedule("MH p")).unwrap(), 2);
        assert_eq!(reg.resolve("bb", None).unwrap().version(), 2);
        assert_eq!(reg.resolve("bb", Some(1)).unwrap().version(), 1);
        assert!(reg.resolve("bb", Some(3)).is_none());
        assert!(reg.resolve("bb", Some(0)).is_none());
        assert!(reg.resolve("nope", None).is_none());
        assert_eq!(reg.names(), vec!["bb".to_owned()]);
    }

    #[test]
    fn bad_source_is_rejected_and_leaves_registry_unchanged() {
        let reg = ModelRegistry::new();
        let err = reg.register("bad", ModelSpec::new("not a model")).unwrap_err();
        assert_eq!(err.kind(), augur::ErrorKind::Compile);
        assert!(reg.names().is_empty());
    }

    #[test]
    fn versions_have_independent_plan_caches() {
        let reg = ModelRegistry::new();
        reg.register("bb", ModelSpec::new(BETA_BERN)).unwrap();
        reg.register("bb", ModelSpec::new(BETA_BERN)).unwrap();
        let v1 = reg.resolve("bb", Some(1)).unwrap();
        v1.plan(vec![HostValue::Int(2)], vec![("y", HostValue::VecF(vec![1.0, 0.0]))]).unwrap();
        let stats = reg.cache_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].stats.misses, 1);
        assert_eq!(stats[1].stats.misses, 0);
    }
}
