//! The service's telemetry wiring: the registry-backed instruments the
//! request path records into, and the streaming convergence tracker
//! behind the per-(model, param) `augur_ess` / `augur_split_rhat`
//! gauges.
//!
//! The counters here *are* the service's metrics — `MetricsSnapshot`
//! is derived from them, not the other way around — so a `/metrics`
//! scrape, the snapshot API, and the v4 trace-event counts all
//! reconcile by construction (asserted in `tests/chaos.rs`).

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use augur::diag::OnlineParamDiag;
use augur_obs::{Counter, Gauge, GaugeMode, Histogram, MetricsRegistry};

/// One streaming convergence estimate, as exported on the `augur_ess`
/// and `augur_split_rhat` gauges and surfaced through
/// [`MetricsSnapshot::convergence`](crate::MetricsSnapshot::convergence).
#[derive(Debug, Clone)]
pub struct ConvergenceStat {
    /// Registered model name.
    pub model: String,
    /// Recorded parameter name.
    pub param: String,
    /// ESS summed across chains, minimized over the parameter's
    /// components (the conservative aggregate: a vector parameter is
    /// only as converged as its worst component).
    pub ess: f64,
    /// Split-R̂ maximized over the parameter's components; NaN while
    /// any chain still has fewer than 4 draws.
    pub split_rhat: f64,
}

/// Per-parameter online estimators for the latest sample request
/// against one model (latest request wins; concurrent requests for the
/// same model simply keep the newest).
struct ModelConvergence {
    request: u64,
    chains: usize,
    /// Parameter name → one estimator per flattened component.
    params: BTreeMap<String, Vec<OnlineParamDiag>>,
}

/// Every instrument the service records into, plus the registry they
/// live in (which the HTTP exporter renders).
pub(crate) struct Telemetry {
    pub obs: Arc<MetricsRegistry>,
    pub submitted: Arc<Counter>,
    pub completed: Arc<Counter>,
    pub failed: Arc<Counter>,
    pub migrations: Arc<Counter>,
    pub shed: Arc<Counter>,
    pub timeouts: Arc<Counter>,
    pub retries: Arc<Counter>,
    pub respawns: Arc<Counter>,
    pub demotions: Arc<Counter>,
    /// Windowed high-water gauge: each scrape takes (and resets) the
    /// highest single-shard depth seen since the previous scrape. The
    /// since-start variant stays on `MetricsSnapshot`.
    pub queue_high_water: Arc<Gauge>,
    pub inflight_chains: Arc<Gauge>,
    /// Worker threads inside their run loop (`/healthz` liveness: a
    /// panicking worker leaves, its respawn re-enters).
    pub workers_alive: Arc<Gauge>,
    pub latency: Arc<Histogram>,
    conv: Mutex<BTreeMap<String, ModelConvergence>>,
}

impl Telemetry {
    pub(crate) fn new() -> Telemetry {
        let obs = Arc::new(MetricsRegistry::new());
        let counter = |name: &str, help: &str| obs.counter(name, help, &[]);
        Telemetry {
            submitted: counter(
                "augur_requests_submitted_total",
                "Requests accepted by submit (includes shed requests).",
            ),
            completed: counter("augur_requests_completed_total", "Requests answered successfully."),
            failed: counter(
                "augur_requests_failed_total",
                "Requests answered with an error (sheds not included).",
            ),
            migrations: counter(
                "augur_migrations_total",
                "Worker-to-worker chain migrations performed.",
            ),
            shed: counter(
                "augur_requests_shed_total",
                "Requests shed at admission (every shard queue at its bound).",
            ),
            timeouts: counter(
                "augur_request_timeouts_total",
                "Requests failed with a deadline timeout (subset of failed).",
            ),
            retries: counter("augur_retries_total", "Transient-failure task requeues performed."),
            respawns: counter(
                "augur_respawns_total",
                "Shard workers respawned after a panic escaped execution.",
            ),
            demotions: counter(
                "augur_demotions_total",
                "Models demoted Native->Tape by their circuit breaker.",
            ),
            queue_high_water: obs.gauge(
                "augur_queue_high_water",
                "Highest single-shard queue depth since the last scrape (reset on collect).",
                &[],
                GaugeMode::ResetOnCollect,
            ),
            inflight_chains: obs.gauge(
                "augur_inflight_chains",
                "Sample-request chains currently in flight.",
                &[],
                GaugeMode::Standard,
            ),
            workers_alive: obs.gauge(
                "augur_workers_alive",
                "Worker threads currently inside their run loop.",
                &[],
                GaugeMode::Standard,
            ),
            latency: obs.histogram(
                "augur_request_latency_seconds",
                "Request latency, submit to response.",
                &[],
                Histogram::latency_bounds(),
            ),
            conv: Mutex::new(BTreeMap::new()),
            obs,
        }
    }

    /// Starts convergence tracking for a freshly planned sample
    /// request (latest request per model wins).
    pub(crate) fn begin_sample(&self, model: &str, request: u64, chains: usize) {
        if chains == 0 {
            return;
        }
        let mut conv = self.conv.lock().unwrap_or_else(|e| e.into_inner());
        conv.insert(
            model.to_owned(),
            ModelConvergence { request, chains, params: BTreeMap::new() },
        );
    }

    /// Folds one chain slice's fresh draws into the model's estimators
    /// and republishes the model's `augur_ess` / `augur_split_rhat`
    /// gauges — the "updated at slice boundaries" contract.
    pub(crate) fn record_slice(
        &self,
        model: &str,
        request: u64,
        chain: usize,
        sweeps: &[HashMap<String, Vec<f64>>],
    ) {
        if sweeps.is_empty() {
            return;
        }
        let mut conv = self.conv.lock().unwrap_or_else(|e| e.into_inner());
        let Some(mc) = conv.get_mut(model) else { return };
        if mc.request != request {
            return;
        }
        let chains = mc.chains;
        for sweep in sweeps {
            for (param, values) in sweep {
                let diags = mc
                    .params
                    .entry(param.clone())
                    .or_insert_with(|| vec![OnlineParamDiag::new(chains); values.len()]);
                for (component, &v) in values.iter().enumerate() {
                    if let Some(d) = diags.get_mut(component) {
                        d.push(chain, v);
                    }
                }
            }
        }
        for (param, diags) in &mc.params {
            let (ess, rhat) = aggregate(diags);
            self.obs
                .gauge(
                    "augur_ess",
                    "Streaming ESS (summed across chains, min over components) \
                     of the latest sample request.",
                    &[("model", model), ("param", param)],
                    GaugeMode::Standard,
                )
                .set(ess);
            if !rhat.is_nan() {
                self.obs
                    .gauge(
                        "augur_split_rhat",
                        "Streaming split-Rhat (max over components) of the \
                         latest sample request.",
                        &[("model", model), ("param", param)],
                        GaugeMode::Standard,
                    )
                    .set(rhat);
            }
        }
    }

    /// The current streaming estimates, sorted by (model, param).
    pub(crate) fn convergence(&self) -> Vec<ConvergenceStat> {
        let conv = self.conv.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::new();
        for (model, mc) in conv.iter() {
            for (param, diags) in &mc.params {
                let (ess, split_rhat) = aggregate(diags);
                out.push(ConvergenceStat {
                    model: model.clone(),
                    param: param.clone(),
                    ess,
                    split_rhat,
                });
            }
        }
        out
    }
}

/// Collapses a parameter's per-component estimators to the exported
/// pair: min ESS, max split-R̂ (NaN until computable — fewer than 4
/// draws in some chain, or no components).
fn aggregate(diags: &[OnlineParamDiag]) -> (f64, f64) {
    let mut ess = f64::INFINITY;
    let mut rhat = f64::NAN;
    for d in diags {
        ess = ess.min(d.ess_sum());
        if let Ok(r) = d.split_rhat() {
            rhat = if rhat.is_nan() { r } else { rhat.max(r) };
        }
    }
    if ess.is_infinite() {
        ess = f64::NAN;
    }
    (ess, rhat)
}
