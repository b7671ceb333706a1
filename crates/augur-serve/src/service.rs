//! The inference service: a hand-rolled thread-pool executor turning
//! registered models into a long-lived `sample`/`score`/`explain`
//! front-end.
//!
//! # Architecture
//!
//! Each of the N **worker shards** owns a queue; [`Service::submit`]
//! round-robins requests across shards and returns a [`Ticket`]
//! immediately (the hermetic stand-in for an async future — block on it
//! with [`Ticket::wait`]). A `sample` request is executed in two
//! stages: the owning worker resolves the model, plans the data shape
//! (hitting the model's shared plan cache), and fans the chains out as
//! independent **chain-slice tasks**; each slice runs up to
//! `migrate_every` sweeps, then checkpoints its session and re-enqueues
//! itself on the *next* shard. Because the checkpoint protocol restores
//! byte-identically (the checkpoint layer's kill-and-resume guarantee), a chain that
//! hops workers mid-run produces exactly the draws and report digest of
//! an unmigrated one — preemption and rebalancing are free of
//! correctness risk, so the scheduler can be dumb.
//!
//! Determinism: per-chain seeds come from [`augur::chains::chain_seed`]
//! — the same derivation [`augur::chains::ChainPlan`] uses — and chains
//! are collected by index, so a service-path run is byte-identical to a
//! direct `ChainPlan` run with the same base config, at any worker
//! count and any migration cadence.
//!
//! This file holds the public types, the [`Service`] front end and the
//! state its workers share; the rest is split by job:
//!
//! * `queue` — the shard queues, admission control, the task that sits
//!   in a queue, and the one requeue path every retry takes;
//! * `supervisor` — the worker loop, the `panic@shard`/`slow@shard`
//!   drills, and the respawn guard;
//! * `slice` — request execution, `sample` fan-out, the chain-slice
//!   lifecycle (bind, sweep, checkpoint, migrate) and chain completion.
//!
//! # Survivability
//!
//! The service is built to keep answering under partial failure and
//! overload (see `DESIGN.md` §5.14):
//!
//! * **Shard supervision** — request and slice execution run under
//!   `catch_unwind`, and a panic that escapes anyway (the
//!   `panic@shard` drill kills the worker at dequeue) trips a drop
//!   guard that recovers the in-flight task, re-enqueues it on the
//!   next shard, and respawns the worker. Because chain slices travel
//!   as byte-identical [`Checkpoint`](augur::Checkpoint)s, a killed
//!   worker costs at most one slice of progress and never changes the
//!   draws.
//! * **Deadlines** — [`Request::deadline`] (or
//!   [`ServiceConfig::default_deadline`]) is checked at dequeue and
//!   between migration slices; late requests resolve with a typed
//!   `timeout` code instead of running to completion.
//! * **Admission control** — [`ServiceConfig::queue_bound`] bounds
//!   every shard queue; a submit that finds all queues full resolves
//!   immediately with `overloaded` and is counted as shed.
//! * **Retries** — transient failures (`!is_caller_fault()`) requeue
//!   the task up to [`ServiceConfig::max_retries`] times, a failed
//!   slice after a deterministic, counter-seeded backoff (no wall-clock
//!   jitter), so fault-injected differential runs stay reproducible.
//! * **Backend degradation** — each model's [`augur::NativeBreaker`]
//!   trips Native→Tape after consecutive native failures; the service
//!   records the first demotion per model in its metrics and trace.

mod queue;
mod slice;
mod supervisor;

use std::collections::HashSet;
use std::fmt;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use augur::{ExecBackend, FaultPlan, HostValue, McmcConfig, SessionConfig, Target};
use augur_backend::metrics::{json_str, TraceSink};
use augur_obs::trace::{span_id, trace_id};
use augur_obs::{Endpoints, Health, TelemetryServer};

use crate::registry::{ModelCacheStats, ModelRegistry};
use crate::telemetry::{ConvergenceStat, Telemetry};
use queue::{Shard, Task};
use slice::RequestTask;

/// A [`SessionConfig`] that ignores every `AUGUR_*` environment
/// variable — the service must behave identically no matter what
/// the host process inherited, so request configs default to this
/// instead of `SessionConfig::default()`.
pub fn hermetic_config(seed: u64) -> SessionConfig {
    SessionConfig {
        target: Target::Cpu,
        seed,
        mcmc: McmcConfig::default(),
        backend: ExecBackend::default(),
        threads: 1,
        trace_path: None,
        timers: true,
        checkpoint_path: None,
        checkpoint_every: 0,
        fault: None,
    }
}

/// Service-level failures: everything a request can come back with.
///
/// Library failures arrive wrapped in [`ServeError::Model`]; map them
/// to a response code with [`ServeError::code`], which routes through
/// the stable [`augur::ErrorKind`] taxonomy instead of matching on
/// internal enums.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The request named a model (or version) that is not registered.
    UnknownModel {
        /// The requested name.
        name: String,
        /// The requested version (`None` = latest).
        version: Option<u32>,
    },
    /// The service shut down before the request completed.
    Canceled,
    /// The request exceeded its deadline (checked at dequeue and
    /// between migration slices).
    Timeout {
        /// Time the request had spent when the check fired.
        elapsed: Duration,
        /// The deadline it was submitted with.
        deadline: Duration,
    },
    /// Every shard queue was at its admission bound; the request was
    /// shed instead of queued. Transient: resubmit when load drops.
    Overloaded {
        /// The per-shard queue bound in force.
        bound: usize,
    },
    /// The underlying compiler/runtime failed.
    Model(augur::Error),
}

impl ServeError {
    /// The stable response code: `"unknown_model"`, `"canceled"`,
    /// `"timeout"`, `"overloaded"`, or the [`augur::ErrorKind`] string
    /// of the wrapped library error.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::UnknownModel { .. } => "unknown_model",
            ServeError::Canceled => "canceled",
            ServeError::Timeout { .. } => augur::ErrorKind::Timeout.as_str(),
            ServeError::Overloaded { .. } => augur::ErrorKind::Overloaded.as_str(),
            ServeError::Model(e) => e.kind().as_str(),
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownModel { name, version } => match version {
                Some(v) => write!(f, "no registered model `{name}` version {v}"),
                None => write!(f, "no registered model `{name}`"),
            },
            ServeError::Canceled => write!(f, "service shut down before the request completed"),
            ServeError::Timeout { elapsed, deadline } => write!(
                f,
                "request exceeded its deadline ({:.3}s allowed, {:.3}s elapsed)",
                deadline.as_secs_f64(),
                elapsed.as_secs_f64()
            ),
            ServeError::Overloaded { bound } => {
                write!(f, "all shard queues at their bound ({bound}); request shed")
            }
            ServeError::Model(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<augur::Error> for ServeError {
    fn from(e: augur::Error) -> Self {
        ServeError::Model(e)
    }
}

/// A `sample` request: fan `chains` independently seeded chains over
/// one cached plan of `model`, recording `record` after every sweep.
#[derive(Debug, Clone)]
pub struct SampleRequest {
    /// Registered model name.
    pub model: String,
    /// Registration version (`None` = latest).
    pub version: Option<u32>,
    /// Model arguments, in declaration order.
    pub args: Vec<HostValue>,
    /// Observed-data bindings.
    pub data: Vec<(String, HostValue)>,
    /// Number of independently seeded chains.
    pub chains: usize,
    /// Sweeps per chain.
    pub sweeps: usize,
    /// Parameters recorded after each sweep.
    pub record: Vec<String>,
    /// Base session config; per-chain seeds are derived from its seed
    /// exactly as [`augur::chains::ChainPlan`] derives them. `None` =
    /// [`hermetic_config`] with the service's base seed.
    pub config: Option<SessionConfig>,
    /// Overrides the service's migration cadence for this request
    /// (`Some(0)` pins chains to one worker; `Some(n)` checkpoints and
    /// re-shards every `n` sweeps).
    pub migrate_every: Option<u64>,
    /// Per-request deadline, measured from submission. Checked at
    /// dequeue and between migration slices; `None` falls back to
    /// [`ServiceConfig::default_deadline`].
    pub deadline: Option<Duration>,
}

impl SampleRequest {
    /// A request against the latest version of `model` with the
    /// service-default config: 4 chains, 1000 sweeps, nothing recorded.
    pub fn new(model: impl Into<String>) -> SampleRequest {
        SampleRequest {
            model: model.into(),
            version: None,
            args: Vec::new(),
            data: Vec::new(),
            chains: 4,
            sweeps: 1000,
            record: Vec::new(),
            config: None,
            migrate_every: None,
            deadline: None,
        }
    }
}

/// A `score` request: the log-joint density of the model at its seeded
/// initial state, given the bound data.
#[derive(Debug, Clone)]
pub struct ScoreRequest {
    /// Registered model name.
    pub model: String,
    /// Registration version (`None` = latest).
    pub version: Option<u32>,
    /// Model arguments, in declaration order.
    pub args: Vec<HostValue>,
    /// Observed-data bindings.
    pub data: Vec<(String, HostValue)>,
    /// Session config (`None` = [`hermetic_config`] with the service's
    /// base seed).
    pub config: Option<SessionConfig>,
    /// Per-request deadline, measured from submission (`None` falls
    /// back to [`ServiceConfig::default_deadline`]).
    pub deadline: Option<Duration>,
}

/// An `explain` request: the compiler's explain plan for this model
/// specialized to the given data shape.
#[derive(Debug, Clone)]
pub struct ExplainRequest {
    /// Registered model name.
    pub model: String,
    /// Registration version (`None` = latest).
    pub version: Option<u32>,
    /// Model arguments, in declaration order.
    pub args: Vec<HostValue>,
    /// Observed-data bindings.
    pub data: Vec<(String, HostValue)>,
    /// Per-request deadline, measured from submission (`None` falls
    /// back to [`ServiceConfig::default_deadline`]).
    pub deadline: Option<Duration>,
}

/// Any request the service accepts.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Request {
    /// Fan chains over a cached plan and collect draws.
    Sample(SampleRequest),
    /// Log-joint at the seeded initial state.
    Score(ScoreRequest),
    /// Explain plan for a data shape.
    Explain(ExplainRequest),
}

impl Request {
    /// The per-request deadline, if one was set.
    pub fn deadline(&self) -> Option<Duration> {
        match self {
            Request::Sample(r) => r.deadline,
            Request::Score(r) => r.deadline,
            Request::Explain(r) => r.deadline,
        }
    }

    /// The model, version and bindings every kind of request carries.
    fn parts(&mut self) -> RequestParts<'_> {
        match self {
            Request::Sample(r) => (&r.model, r.version, &mut r.args, &r.data),
            Request::Score(r) => (&r.model, r.version, &mut r.args, &r.data),
            Request::Explain(r) => (&r.model, r.version, &mut r.args, &r.data),
        }
    }
}

/// What [`Request::parts`] lends: model, version, arguments, data.
type RequestParts<'a> =
    (&'a String, Option<u32>, &'a mut Vec<HostValue>, &'a [(String, HostValue)]);

/// The result of a `sample` request.
#[derive(Debug, Clone)]
pub struct SampleOutput {
    /// Per-chain, per-sweep recordings — exactly
    /// [`augur::chains::Chains::draws`] of the equivalent direct run.
    pub draws: Vec<Vec<std::collections::HashMap<String, Vec<f64>>>>,
    /// Per-chain deterministic run-report digests, in chain order.
    pub report_digests: Vec<String>,
    /// The plan-cache fingerprint the request was served under.
    pub fingerprint: u64,
    /// Worker-to-worker chain migrations performed while serving this
    /// request.
    pub migrations: u64,
}

/// The result of a `score` request.
#[derive(Debug, Clone, Copy)]
pub struct ScoreOutput {
    /// Log-joint density at the seeded initial state.
    pub log_joint: f64,
}

/// The result of an `explain` request.
#[derive(Debug, Clone)]
pub struct ExplainOutput {
    /// The schedule in Kernel-IL notation.
    pub kernel: String,
    /// The stable explain-plan tree (no wall times).
    pub explain: String,
}

/// Any response the service produces.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Response {
    /// Draws and digests from a `sample` request.
    Sample(SampleOutput),
    /// A `score` result.
    Score(ScoreOutput),
    /// An `explain` result.
    Explain(ExplainOutput),
}

impl Response {
    /// The sample output, if this is a sample response.
    pub fn into_sample(self) -> Option<SampleOutput> {
        match self {
            Response::Sample(s) => Some(s),
            _ => None,
        }
    }
}

/// The async handle returned by [`Service::submit`]: a one-shot
/// receiver for the request's response.
#[derive(Debug)]
pub struct Ticket {
    id: u64,
    rx: mpsc::Receiver<Result<Response, ServeError>>,
}

impl Ticket {
    /// The request id (matches the `"id"` field of the request's v4
    /// trace records).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the response arrives. A service that shuts down
    /// with the request still queued yields [`ServeError::Canceled`].
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Canceled))
    }

    /// Non-blocking poll: `None` while the request is still in flight.
    pub fn try_wait(&self) -> Option<Result<Response, ServeError>> {
        self.rx.try_recv().ok()
    }
}

/// Tunables of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker shards (each owns a queue and a thread). `0` = one per
    /// available core.
    pub workers: usize,
    /// Default migration cadence: every `migrate_every` sweeps a chain
    /// checkpoints and re-enqueues on the next shard (`0` = chains stay
    /// put). Requests can override per call.
    pub migrate_every: u64,
    /// Seed used by [`hermetic_config`] when a request has no config.
    pub base_seed: u64,
    /// Execution backend for requests that bring no config of their
    /// own. A registration can override it per model
    /// (`ModelSpec::backend`); an explicit request config wins over
    /// both. `Native` still falls back to the tape (with the reason
    /// recorded in the run report) when the host has no C toolchain,
    /// so setting it here is always safe.
    pub backend: ExecBackend,
    /// When set, the service streams v4 request-lifecycle JSONL records
    /// here (see `DESIGN.md` § JSONL trace schema), each carrying the
    /// request's deterministic trace/span ids.
    pub trace_path: Option<PathBuf>,
    /// When set (e.g. `"127.0.0.1:9464"`; port 0 picks an ephemeral
    /// port), the service serves its telemetry plane over HTTP at this
    /// address: `/metrics` (Prometheus text exposition), `/healthz`
    /// (shard liveness + breaker state), `/statusz` (human-readable
    /// status). The default honors the `AUGUR_TELEMETRY` environment
    /// variable. [`Service::start`] panics if the address cannot be
    /// bound — a telemetry endpoint the operator asked for that
    /// silently isn't there is worse than a loud config error.
    pub telemetry_addr: Option<String>,
    /// Admission bound per shard queue (`0` = unbounded). A submit
    /// that finds every queue at the bound is shed with
    /// [`ServeError::Overloaded`] instead of queued. Chain-slice
    /// re-enqueues bypass the bound (admitted work always finishes).
    pub queue_bound: usize,
    /// Deadline applied to requests that carry none of their own
    /// (`None` = no deadline).
    pub default_deadline: Option<Duration>,
    /// Times a transient failure (`!is_caller_fault()`) may requeue a
    /// task before the error is returned to the caller.
    pub max_retries: u32,
    /// Base delay of the deterministic retry backoff, in milliseconds
    /// (doubles per attempt, jittered from the counter-based RNG).
    pub retry_backoff_ms: u64,
    /// Deterministic fault-injection plan for the service's own chaos
    /// drills (`panic@shard`, `slow@shard`, `compile@native`). The
    /// default honors the `AUGUR_FAULT` environment variable; session
    /// configs without a plan of their own inherit this one.
    pub fault: Option<FaultPlan>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            migrate_every: 0,
            base_seed: 0xA464,
            trace_path: None,
            telemetry_addr: std::env::var("AUGUR_TELEMETRY").ok().filter(|s| !s.is_empty()),
            backend: ExecBackend::default(),
            queue_bound: 0,
            default_deadline: None,
            max_retries: 3,
            retry_backoff_ms: 2,
            fault: FaultPlan::from_env().unwrap_or_else(|e| panic!("AUGUR_FAULT: {e}")),
        }
    }
}

/// Latency quantiles over completed requests, in seconds — derived
/// from the `augur_request_latency_seconds` histogram (p50/p99 are
/// bucket-interpolated; the max is tracked exactly).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyStats {
    /// Completed-request count the quantiles are over.
    pub count: u64,
    /// Median latency.
    pub p50_secs: f64,
    /// 99th-percentile latency.
    pub p99_secs: f64,
    /// Worst observed latency.
    pub max_secs: f64,
}

/// A point-in-time snapshot of the service's observability counters.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Requests accepted by [`Service::submit`].
    pub submitted: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with an error.
    pub failed: u64,
    /// Worker-to-worker chain migrations performed.
    pub migrations: u64,
    /// Requests shed at admission (every shard queue at its bound).
    /// Shed requests count in `submitted` but not in `failed`.
    pub shed: u64,
    /// Requests that failed with a deadline timeout (a subset of
    /// `failed`).
    pub timeouts: u64,
    /// Transient-failure task requeues performed.
    pub retries: u64,
    /// Shard workers respawned after a panic escaped execution.
    pub respawns: u64,
    /// Models demoted Native→Tape by their circuit breaker (distinct
    /// models, not demoted requests).
    pub demotions: u64,
    /// Tasks currently queued across all shards.
    pub queue_depth: usize,
    /// Highest single-shard queue depth observed **since service
    /// start** (never resets). The registry additionally exposes
    /// `augur_queue_high_water`, a windowed variant that resets on
    /// every scrape, so per-window behavior is observable too.
    pub queue_high_water: usize,
    /// Request latency quantiles (submit → response), derived from the
    /// latency histogram.
    pub latency: LatencyStats,
    /// The latency histogram itself: `(upper bound in seconds,
    /// cumulative count)` per bucket, ending with `(+Inf, total)`.
    pub latency_buckets: Vec<(f64, u64)>,
    /// Streaming convergence estimates of the latest sample request
    /// per model: per-(model, param) ESS and split-R̂, as exported on
    /// the `augur_ess` / `augur_split_rhat` gauges.
    pub convergence: Vec<ConvergenceStat>,
    /// Plan-cache counters of every registered model version.
    pub models: Vec<ModelCacheStats>,
}

/// Everything workers and the front-end share.
struct Shared {
    registry: ModelRegistry,
    config: ServiceConfig,
    shards: Vec<Shard>,
    open: AtomicBool,
    next_id: AtomicU64,
    next_shard: AtomicUsize,
    high_water: AtomicUsize,
    /// The registry-backed instruments every counter lands in (the
    /// snapshot API reads these back).
    tel: Telemetry,
    /// Models whose breaker demotion has been observed (and traced).
    demoted: Mutex<HashSet<String>>,
    /// Live worker handles; respawned workers push themselves here.
    handles: Mutex<Vec<JoinHandle<()>>>,
    trace: Option<Mutex<TraceSink>>,
}

/// One admitted request: what every v4 record of it names, and where
/// its answer goes. The request task, the `sample` aggregate and every
/// chain slice share it.
struct Caller {
    id: u64,
    model: String,
    /// The request's deterministic trace id (v4 records).
    trace: String,
    t0: Instant,
    deadline: Option<Duration>,
    reply: mpsc::Sender<Result<Response, ServeError>>,
}

impl Caller {
    /// The timeout error once the request has outlived its deadline.
    fn late(&self) -> Option<ServeError> {
        let deadline = self.deadline?;
        let elapsed = self.t0.elapsed();
        (elapsed > deadline).then_some(ServeError::Timeout { elapsed, deadline })
    }

    /// Answers the request: counts it completed or failed, observes its
    /// latency, writes the closing `completed`/`failed` record (its span
    /// hangs directly off the root `submit` span) and sends the result.
    fn answer(&self, shared: &Shared, result: Result<Response, ServeError>) {
        let latency = self.t0.elapsed().as_secs_f64();
        let (event, code) = match &result {
            Ok(_) => {
                shared.tel.completed.inc();
                ("completed", None)
            }
            Err(e) => {
                shared.tel.failed.inc();
                if matches!(e, ServeError::Timeout { .. }) {
                    shared.tel.timeouts.inc();
                }
                ("failed", Some(e.code()))
            }
        };
        shared.tel.latency.observe(latency);
        let fields = [("latency_secs", latency)];
        shared.event(Some(self), event, code, "finish", Some("submit"), &fields);
        let _ = self.reply.send(result);
    }
}

/// The inference service: spawn with [`Service::start`], register
/// models, submit requests, read metrics, shut down.
pub struct Service {
    shared: Arc<Shared>,
    /// The HTTP telemetry exporter, when
    /// [`ServiceConfig::telemetry_addr`] is set.
    telemetry: Option<TelemetryServer>,
}

impl fmt::Debug for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Service")
            .field("workers", &self.shared.shards.len())
            .finish_non_exhaustive()
    }
}

impl Service {
    /// Starts the worker shards over `registry`.
    pub fn start(registry: ModelRegistry, config: ServiceConfig) -> Service {
        let workers = match config.workers {
            0 => std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
            n => n,
        };
        let trace =
            config.trace_path.as_ref().and_then(|p| TraceSink::create(p).ok()).map(Mutex::new);
        let shared = Arc::new(Shared {
            registry,
            config,
            shards: (0..workers).map(|_| Shard::default()).collect(),
            open: AtomicBool::new(true),
            next_id: AtomicU64::new(1),
            next_shard: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
            tel: Telemetry::new(),
            demoted: Mutex::new(HashSet::new()),
            handles: Mutex::new(Vec::with_capacity(workers)),
            trace,
        });
        register_collectors(&shared);
        let telemetry = shared.config.telemetry_addr.clone().map(|addr| {
            let endpoints = Endpoints {
                health: {
                    let shared = Arc::clone(&shared);
                    Box::new(move || healthz(&shared))
                },
                status: {
                    let shared = Arc::clone(&shared);
                    Box::new(move || statusz(&shared))
                },
            };
            TelemetryServer::start(addr.as_str(), Arc::clone(&shared.tel.obs), endpoints)
                .unwrap_or_else(|e| panic!("telemetry_addr {addr}: {e}"))
        });
        let handles: Vec<JoinHandle<()>> =
            (0..workers).map(|idx| supervisor::spawn_worker(&shared, idx)).collect();
        shared.handles.lock().unwrap_or_else(|e| e.into_inner()).extend(handles);
        Service { shared, telemetry }
    }

    /// The address the telemetry exporter is bound to, when
    /// [`ServiceConfig::telemetry_addr`] was set (resolves port 0 to
    /// the actual ephemeral port).
    pub fn telemetry_addr(&self) -> Option<std::net::SocketAddr> {
        self.telemetry.as_ref().map(TelemetryServer::local_addr)
    }

    /// The registry behind the service (register models through this at
    /// any time; in-flight requests are unaffected).
    pub fn registry(&self) -> &ModelRegistry {
        &self.shared.registry
    }

    /// Enqueues a request on the next shard (round-robin) and returns
    /// its ticket immediately. With [`ServiceConfig::queue_bound`] set,
    /// a submit that finds every shard queue at the bound sheds the
    /// request: the ticket resolves promptly with
    /// [`ServeError::Overloaded`] and the shed is counted and traced.
    pub fn submit(&self, mut req: Request) -> Ticket {
        let shared = &self.shared;
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let (reply, rx) = mpsc::channel();
        let caller = Arc::new(Caller {
            id,
            model: req.parts().0.clone(),
            // The trace id is minted here, deterministically, and rides
            // the task through every lifecycle stage.
            trace: trace_id(shared.config.base_seed, id),
            t0: Instant::now(),
            deadline: req.deadline().or(shared.config.default_deadline),
            reply,
        });
        shared.tel.submitted.inc();
        let Some(shard) = shared.admit() else {
            let bound = shared.config.queue_bound;
            shared.tel.shed.inc();
            let fields = [("queue_bound", bound as f64)];
            shared.event(Some(&caller), "shed", Some("overloaded"), "submit", None, &fields);
            let _ = caller.reply.send(Err(ServeError::Overloaded { bound }));
            return Ticket { id, rx };
        };
        let task = RequestTask { caller: Arc::clone(&caller), attempts: 0, req };
        let depth = shared.enqueue(shard, Task::Request(Box::new(task)));
        let fields = [("queue_depth", depth as f64)];
        shared.event(Some(&caller), "submitted", None, "submit", None, &fields);
        Ticket { id, rx }
    }

    /// [`Service::submit`] for a `sample` request.
    pub fn sample(&self, req: SampleRequest) -> Ticket {
        self.submit(Request::Sample(req))
    }

    /// [`Service::submit`] for a `score` request.
    pub fn score(&self, req: ScoreRequest) -> Ticket {
        self.submit(Request::Score(req))
    }

    /// [`Service::submit`] for an `explain` request.
    pub fn explain(&self, req: ExplainRequest) -> Ticket {
        self.submit(Request::Explain(req))
    }

    /// A point-in-time snapshot of every observability counter,
    /// derived from the same registry instruments a `/metrics` scrape
    /// renders — the two surfaces reconcile by construction.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.snapshot()
    }

    /// Drains every queue, stops the workers, and flushes the trace
    /// sink. Requests still queued at shutdown are processed; requests
    /// submitted after it are not accepted (tickets resolve to
    /// [`ServeError::Canceled`]).
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if !self.shared.open.swap(false, Ordering::SeqCst) {
            return;
        }
        // Stop scrapes first: the exporter holds callbacks into the
        // service state being torn down below.
        if let Some(mut server) = self.telemetry.take() {
            server.shutdown();
        }
        for shard in &self.shared.shards {
            shard.wake_all();
        }
        // Join until no handle remains: a panicking worker's respawn
        // guard may push a replacement handle while we join the old one.
        loop {
            let handles: Vec<JoinHandle<()>> =
                std::mem::take(&mut *self.shared.handles.lock().unwrap_or_else(|e| e.into_inner()));
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
        // No ticket hangs at shutdown: anything a dead worker left
        // behind (queued or parked in-flight) resolves as canceled.
        for shard in &self.shared.shards {
            for task in shard.drain() {
                task.fail(&self.shared, ServeError::Canceled);
            }
        }
        if let Some(trace) = &self.shared.trace {
            trace.lock().unwrap_or_else(|e| e.into_inner()).flush();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Registers the pull-model collect hooks: queue depths, plan-cache
/// counters, and breaker state are owned by their subsystems and
/// mirrored into the registry at scrape time (the Prometheus collector
/// pattern). The hook holds a `Weak` so the registry never keeps a dead
/// service alive.
fn register_collectors(shared: &Arc<Shared>) {
    let weak = Arc::downgrade(shared);
    let obs = Arc::clone(&shared.tel.obs);
    shared.tel.obs.on_collect(move || {
        let Some(shared) = weak.upgrade() else { return };
        let mut total = 0usize;
        for (i, shard) in shared.shards.iter().enumerate() {
            let depth = shard.depth.load(Ordering::Relaxed);
            total += depth;
            obs.gauge(
                "augur_shard_queue_depth",
                "Tasks queued on one shard.",
                &[("shard", &i.to_string())],
                augur_obs::GaugeMode::Standard,
            )
            .set(depth as f64);
        }
        obs.gauge(
            "augur_queue_depth",
            "Tasks queued across all shards.",
            &[],
            augur_obs::GaugeMode::Standard,
        )
        .set(total as f64);
        for m in shared.registry.cache_stats() {
            let version = m.version.to_string();
            let labels: &[(&str, &str)] = &[("model", m.name.as_str()), ("version", &version)];
            let mirror = |name: &str, help: &str, total: u64| {
                obs.counter(name, help, labels).store(total);
            };
            mirror("augur_plan_cache_hits_total", "Plan-cache hits.", m.stats.hits);
            mirror("augur_plan_cache_misses_total", "Plan-cache misses.", m.stats.misses);
            mirror(
                "augur_plan_cache_respecializes_total",
                "Plan-cache respecializations.",
                m.stats.respecializes,
            );
            mirror(
                "augur_native_builds_total",
                "Native artifacts compiled.",
                m.stats.native_builds,
            );
            mirror("augur_native_hits_total", "Native artifact cache hits.", m.stats.native_hits);
            obs.gauge(
                "augur_plan_cache_entries",
                "Plans currently cached.",
                labels,
                augur_obs::GaugeMode::Standard,
            )
            .set(m.stats.entries as f64);
            obs.gauge(
                "augur_native_breaker_open",
                "1 when the model's Native->Tape circuit breaker is open.",
                labels,
                augur_obs::GaugeMode::Standard,
            )
            .set(if m.demoted.is_some() { 1.0 } else { 0.0 });
        }
    });
}

/// The `/healthz` answer: healthy while the service is open and every
/// shard has a live worker; the body carries the shard counts and any
/// open breakers.
fn healthz(shared: &Shared) -> Health {
    let workers = shared.shards.len();
    let alive = shared.tel.workers_alive.get() as usize;
    let open = shared.open.load(Ordering::SeqCst);
    let breakers: Vec<String> = shared
        .registry
        .cache_stats()
        .into_iter()
        .filter(|m| m.demoted.is_some())
        .map(|m| json_str(&m.name))
        .collect();
    let healthy = open && alive >= workers;
    Health {
        healthy,
        body: format!(
            "{{\"status\":\"{}\",\"open\":{open},\"workers\":{workers},\
             \"workers_alive\":{alive},\"breakers_open\":[{}]}}",
            if healthy { "ok" } else { "degraded" },
            breakers.join(",")
        ),
    }
}

/// The `/statusz` page: the metrics snapshot rendered for humans.
fn statusz(shared: &Shared) -> String {
    let m = shared.snapshot();
    let mut out = String::new();
    out.push_str("augur-serve status\n==================\n\n");
    out.push_str(&format!(
        "requests: {} submitted, {} completed, {} failed ({} timeouts), {} shed\n",
        m.submitted, m.completed, m.failed, m.timeouts, m.shed
    ));
    out.push_str(&format!(
        "resilience: {} retries, {} respawns, {} migrations, {} demotions\n",
        m.retries, m.respawns, m.migrations, m.demotions
    ));
    out.push_str(&format!(
        "latency: count {}, p50 {:.6}s, p99 {:.6}s, max {:.6}s\n\n",
        m.latency.count, m.latency.p50_secs, m.latency.p99_secs, m.latency.max_secs
    ));
    out.push_str(&format!(
        "queues: depth {} (high water since start {}), in-flight chains {}\n",
        m.queue_depth,
        m.queue_high_water,
        shared.tel.inflight_chains.get() as i64
    ));
    for (i, shard) in shared.shards.iter().enumerate() {
        out.push_str(&format!("  shard {i}: depth {}\n", shard.depth.load(Ordering::Relaxed)));
    }
    out.push_str("\nmodels:\n");
    for model in &m.models {
        out.push_str(&format!(
            "  {} v{}: hits {}, misses {}, respecializes {}, entries {}, backend {}\n",
            model.name,
            model.version,
            model.stats.hits,
            model.stats.misses,
            model.stats.respecializes,
            model.stats.entries,
            match &model.demoted {
                Some(reason) => format!("DEMOTED to tape ({reason})"),
                None => "available".to_string(),
            }
        ));
    }
    if !m.convergence.is_empty() {
        out.push_str("\nconvergence (latest sample request per model):\n");
        for c in &m.convergence {
            out.push_str(&format!(
                "  {}/{}: ess {:.1}, split_rhat {:.4}\n",
                c.model, c.param, c.ess, c.split_rhat
            ));
        }
    }
    out
}

impl Shared {
    /// Builds the metrics snapshot from the registry instruments.
    fn snapshot(&self) -> MetricsSnapshot {
        let latency = LatencyStats {
            count: self.tel.latency.count(),
            p50_secs: self.tel.latency.quantile(0.50),
            p99_secs: self.tel.latency.quantile(0.99),
            max_secs: self.tel.latency.max(),
        };
        MetricsSnapshot {
            submitted: self.tel.submitted.get(),
            completed: self.tel.completed.get(),
            failed: self.tel.failed.get(),
            migrations: self.tel.migrations.get(),
            shed: self.tel.shed.get(),
            timeouts: self.tel.timeouts.get(),
            retries: self.tel.retries.get(),
            respawns: self.tel.respawns.get(),
            demotions: self.tel.demotions.get(),
            queue_depth: self.shards.iter().map(|s| s.depth.load(Ordering::Relaxed)).sum(),
            queue_high_water: self.high_water.load(Ordering::Relaxed),
            latency,
            latency_buckets: self.tel.latency.cumulative_buckets(),
            convergence: self.tel.convergence(),
            models: self.registry.cache_stats(),
        }
    }

    /// Writes one v4 request-lifecycle record (`"v":4`, see `DESIGN.md`
    /// § 5.12) when the service traces: span `tag` of the caller's trace,
    /// hanging off span `parent` (another tag of the same trace). Span
    /// ids derive from the tags, so one `grep` for the trace id
    /// reconstructs a request across shards, migrations, retries and
    /// respawns. Without a caller the record joins the service-level
    /// trace (request id 0, no model). `code` carries the stable error
    /// code on failures; `fields` are numeric attributes.
    fn event(
        &self,
        caller: Option<&Caller>,
        event: &str,
        code: Option<&str>,
        tag: &str,
        parent: Option<&str>,
        fields: &[(&str, f64)],
    ) {
        let Some(sink) = &self.trace else { return };
        let service_trace;
        let (id, model, trace) = match caller {
            Some(c) => (c.id, c.model.as_str(), c.trace.as_str()),
            None => {
                service_trace = trace_id(self.config.base_seed, 0);
                (0, "", service_trace.as_str())
            }
        };
        let mut line = format!(
            "{{\"v\":4,\"req\":{{\"id\":{id},\"trace\":{},\"span\":{}",
            json_str(trace),
            json_str(&span_id(trace, tag))
        );
        if let Some(parent) = parent {
            let _ = write!(line, ",\"parent\":{}", json_str(&span_id(trace, parent)));
        }
        let _ = write!(line, ",\"model\":{},\"event\":{}", json_str(model), json_str(event));
        if let Some(code) = code {
            let _ = write!(line, ",\"code\":{}", json_str(code));
        }
        for (key, value) in fields {
            let _ = write!(line, ",{}:{value}", json_str(key));
        }
        line.push_str("}}\n");
        sink.lock().unwrap_or_else(|e| e.into_inner()).write_line(&line);
    }
}
