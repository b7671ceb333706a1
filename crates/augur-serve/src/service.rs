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
//! byte-identically (PR 4's kill-and-resume guarantee), a chain that
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
//!   as byte-identical [`Checkpoint`]s, a killed worker costs at most
//!   one slice of progress and never changes the draws.
//! * **Deadlines** — [`Request::deadline`] (or
//!   [`ServiceConfig::default_deadline`]) is checked at dequeue and
//!   between migration slices; late requests resolve with a typed
//!   `timeout` code instead of running to completion.
//! * **Admission control** — [`ServiceConfig::queue_bound`] bounds
//!   every shard queue; a submit that finds all queues full resolves
//!   immediately with `overloaded` and is counted as shed.
//! * **Retries** — transient failures (`!is_caller_fault()`) requeue
//!   the slice up to [`ServiceConfig::max_retries`] times with a
//!   deterministic, counter-seeded backoff (no wall-clock jitter), so
//!   fault-injected differential runs stay reproducible.
//! * **Backend degradation** — each model's [`augur::NativeBreaker`]
//!   trips Native→Tape after consecutive native failures; the service
//!   records the first demotion per model in its metrics and trace.

use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use augur::chains::chain_seed;
use augur::{
    Checkpoint, ExecBackend, FaultPlan, HostValue, McmcConfig, Plan, SessionConfig, Target,
};
use augur_backend::fault::INJECTED_SHARD_PANIC;
use augur_backend::metrics::{RequestSpan, TraceSink};
use augur_math::Prng;
use augur_obs::trace::{span_id, trace_id};
use augur_obs::{Endpoints, Health, TelemetryServer};

use crate::registry::{ModelCacheStats, ModelRegistry, RegisteredModel};
use crate::telemetry::{ConvergenceStat, Telemetry};

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
}

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

/// One worker shard: a queue, its wakeup, depth tracking, and the
/// parking slot for the task a dying worker had in hand (the respawn
/// guard recovers it; see [`RespawnGuard`]).
#[derive(Default)]
struct Shard {
    queue: Mutex<VecDeque<Task>>,
    wakeup: Condvar,
    depth: AtomicUsize,
    inflight: Mutex<Option<Task>>,
}

impl Shard {
    /// Appends a task and returns the new depth. The depth moves inside
    /// the queue's critical section, as [`Shard::pop`]'s does, so a pop
    /// can never be counted before its push.
    fn push(&self, task: Task) -> usize {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.push_back(task);
        self.depth.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Takes the front task from the locked queue `q`.
    fn pop(&self, q: &mut VecDeque<Task>) -> Option<Task> {
        let task = q.pop_front()?;
        self.depth.fetch_sub(1, Ordering::Relaxed);
        Some(task)
    }
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
    /// Worker threads currently inside their run loop (`/healthz`
    /// liveness: a panicking worker leaves, its respawn re-enters).
    workers_alive: AtomicUsize,
    /// The registry-backed instruments every counter lands in (the
    /// snapshot API reads these back).
    tel: Telemetry,
    /// Models whose breaker demotion has been observed (and traced).
    demoted: Mutex<HashSet<String>>,
    /// Live worker handles; respawned workers push themselves here.
    handles: Mutex<Vec<JoinHandle<()>>>,
    trace: Option<Mutex<TraceSink>>,
}

/// What sits in a shard queue.
enum Task {
    Request(Box<RequestTask>),
    Slice(Box<SliceTask>),
}

/// A freshly submitted request, before fan-out.
struct RequestTask {
    id: u64,
    /// The request's deterministic trace id (v4 records).
    trace: String,
    t0: Instant,
    deadline: Option<Duration>,
    /// Times this task has been recovered from a dead worker.
    attempts: u32,
    req: Request,
    reply: mpsc::Sender<Result<Response, ServeError>>,
}

/// The shared completion state of one in-flight `sample` request.
struct SampleAgg {
    id: u64,
    /// The request's deterministic trace id (v4 records).
    trace: String,
    /// The `planned` record's span id — the parent of each chain's
    /// first slice span.
    plan_span: String,
    t0: Instant,
    deadline: Option<Duration>,
    model: String,
    fingerprint: u64,
    reply: mpsc::Sender<Result<Response, ServeError>>,
    state: Mutex<AggState>,
}

#[derive(Default)]
struct AggState {
    remaining: usize,
    migrations: u64,
    chains: Vec<Option<Result<ChainResult, ServeError>>>,
}

/// One finished chain's contribution.
struct ChainResult {
    draws: Vec<std::collections::HashMap<String, Vec<f64>>>,
    report_digest: String,
}

/// One chain's next execution slice. The session itself is not `Send`,
/// so what travels between shards is the plain-data [`Checkpoint`]; the
/// receiving worker binds a fresh session off the shared plan and
/// restores it byte-identically.
struct SliceTask {
    agg: Arc<SampleAgg>,
    plan: Arc<Plan>,
    cfg: SessionConfig,
    chain: usize,
    total: usize,
    done: usize,
    record: Vec<String>,
    draws: Vec<std::collections::HashMap<String, Vec<f64>>>,
    ckpt: Option<Checkpoint>,
    migrate_every: u64,
    /// Consecutive failed/recovered executions of the *current* slice;
    /// reset to zero every time a slice completes, so a long chain that
    /// keeps crossing a faulty shard never exhausts its retry budget.
    attempts: u32,
    /// Slices this chain has completed (numbers the `slice` spans).
    slice_no: u64,
    /// The span id of the chain's most recent lifecycle record — the
    /// parent of its next `slice` span, so a chain's records form a
    /// linked chain from `planned` through every slice to `completed`.
    parent_span: String,
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
        let trace = config
            .trace_path
            .as_ref()
            .and_then(|p| TraceSink::create(p).ok())
            .map(Mutex::new);
        let shared = Arc::new(Shared {
            registry,
            config,
            shards: (0..workers).map(|_| Shard::default()).collect(),
            open: AtomicBool::new(true),
            next_id: AtomicU64::new(1),
            next_shard: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
            workers_alive: AtomicUsize::new(0),
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
            (0..workers).map(|idx| spawn_worker(&shared, idx)).collect();
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
    pub fn submit(&self, req: Request) -> Ticket {
        let shared = &self.shared;
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        let model = request_model(&req).to_owned();
        let deadline = req.deadline().or(shared.config.default_deadline);
        // The trace id is minted here, deterministically, and rides the
        // task through every lifecycle stage.
        let trace = trace_id(shared.config.base_seed, id);
        let root = span_id(&trace, "submit");
        shared.tel.submitted.inc();
        let n = shared.shards.len();
        let start = shared.next_shard.fetch_add(1, Ordering::Relaxed) % n;
        let bound = shared.config.queue_bound;
        // Admission control: take the round-robin shard, or any shard
        // with room; if every queue is at the bound, shed.
        let shard = (0..n)
            .map(|i| (start + i) % n)
            .find(|&s| bound == 0 || shared.shards[s].depth.load(Ordering::Relaxed) < bound);
        let Some(shard) = shard else {
            shared.tel.shed.inc();
            shared.trace(
                id,
                &model,
                "shed",
                Some("overloaded"),
                RequestSpan { trace: &trace, span: &root, parent: None },
                &[("queue_bound", bound as f64)],
            );
            let _ = tx.send(Err(ServeError::Overloaded { bound }));
            return Ticket { id, rx };
        };
        let depth = shared.enqueue(
            shard,
            Task::Request(Box::new(RequestTask {
                id,
                trace: trace.clone(),
                t0: Instant::now(),
                deadline,
                attempts: 0,
                req,
                reply: tx,
            })),
        );
        shared.trace(
            id,
            &model,
            "submitted",
            None,
            RequestSpan { trace: &trace, span: &root, parent: None },
            &[("queue_depth", depth as f64)],
        );
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
            let _guard = shard.queue.lock().unwrap_or_else(|e| e.into_inner());
            shard.wakeup.notify_all();
        }
        // Join until no handle remains: a panicking worker's respawn
        // guard may push a replacement handle while we join the old one.
        loop {
            let handles: Vec<JoinHandle<()>> = std::mem::take(
                &mut *self.shared.handles.lock().unwrap_or_else(|e| e.into_inner()),
            );
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
            let leftovers: Vec<Task> = {
                let mut q = shard.queue.lock().unwrap_or_else(|e| e.into_inner());
                let mut tasks: Vec<Task> = q.drain(..).collect();
                shard.depth.store(0, Ordering::Relaxed);
                if let Some(t) =
                    shard.inflight.lock().unwrap_or_else(|e| e.into_inner()).take()
                {
                    tasks.push(t);
                }
                tasks
            };
            for task in leftovers {
                cancel_task(&self.shared, task);
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

/// Resolves an abandoned task with [`ServeError::Canceled`].
fn cancel_task(shared: &Arc<Shared>, task: Task) {
    match task {
        Task::Request(t) => {
            let model = request_model(&t.req).to_owned();
            let result: Result<Response, ServeError> = Err(ServeError::Canceled);
            shared.finish(t.id, &model, &t.trace, t.t0, &result);
            let _ = t.reply.send(result);
        }
        Task::Slice(t) => {
            let agg = Arc::clone(&t.agg);
            let chain = t.chain;
            complete_chain(shared, &agg, chain, Err(ServeError::Canceled));
        }
    }
}

/// Spawns the shard-`idx` worker thread (initial start and respawns).
fn spawn_worker(shared: &Arc<Shared>, idx: usize) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("augur-serve-{idx}"))
        .spawn(move || worker_loop(&shared, idx))
        .expect("spawn service worker")
}

/// The model name a request targets (for trace records).
fn request_model(req: &Request) -> &str {
    match req {
        Request::Sample(r) => &r.model,
        Request::Score(r) => &r.model,
        Request::Explain(r) => &r.model,
    }
}

/// Registers the pull-model collect hooks: queue depths, worker
/// liveness, plan-cache counters, and breaker state are owned by their
/// subsystems and mirrored into the registry at scrape time (the
/// Prometheus collector pattern). The hook holds a `Weak` so the
/// registry never keeps a dead service alive.
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
        obs.gauge(
            "augur_workers_alive",
            "Worker threads currently inside their run loop.",
            &[],
            augur_obs::GaugeMode::Standard,
        )
        .set(shared.workers_alive.load(Ordering::Relaxed) as f64);
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
            mirror(
                "augur_native_hits_total",
                "Native artifact cache hits.",
                m.stats.native_hits,
            );
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
fn healthz(shared: &Arc<Shared>) -> Health {
    let workers = shared.shards.len();
    let alive = shared.workers_alive.load(Ordering::Relaxed);
    let open = shared.open.load(Ordering::SeqCst);
    let breakers: Vec<String> = shared
        .registry
        .cache_stats()
        .into_iter()
        .filter(|m| m.demoted.is_some())
        .map(|m| format!("\"{}\"", m.name))
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
fn statusz(shared: &Arc<Shared>) -> String {
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
    /// Pushes a task and wakes the shard; returns the shard's new depth.
    fn enqueue(&self, shard: usize, task: Task) -> usize {
        let s = &self.shards[shard];
        let depth = s.push(task);
        self.high_water.fetch_max(depth, Ordering::Relaxed);
        // Both high-water surfaces: the since-start snapshot counter
        // above, and the per-scrape-window registry gauge (resets on
        // every collect).
        self.tel.queue_high_water.set_max(depth as f64);
        s.wakeup.notify_one();
        depth
    }

    /// Best-effort v4 trace record for one request-lifecycle event.
    fn trace(
        &self,
        id: u64,
        model: &str,
        event: &str,
        code: Option<&str>,
        span: RequestSpan<'_>,
        fields: &[(&str, f64)],
    ) {
        if let Some(trace) = &self.trace {
            trace
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .write_request(id, model, event, code, span, fields);
        }
    }

    /// Records a finished request into the metrics and its trace event.
    /// The `completed`/`failed` record closes the trace: its span hangs
    /// directly off the root `submit` span.
    fn finish(
        &self,
        id: u64,
        model: &str,
        trace: &str,
        t0: Instant,
        result: &Result<Response, ServeError>,
    ) {
        let latency = t0.elapsed().as_secs_f64();
        match result {
            Ok(_) => self.tel.completed.inc(),
            Err(e) => {
                self.tel.failed.inc();
                if matches!(e, ServeError::Timeout { .. }) {
                    self.tel.timeouts.inc();
                }
            }
        }
        self.tel.latency.observe(latency);
        let span = span_id(trace, "finish");
        let root = span_id(trace, "submit");
        let rs = RequestSpan { trace, span: &span, parent: Some(&root) };
        match result {
            Ok(_) => self.trace(id, model, "completed", None, rs, &[("latency_secs", latency)]),
            Err(e) => {
                self.trace(id, model, "failed", Some(e.code()), rs, &[("latency_secs", latency)])
            }
        }
    }

    /// Records a model's first observed Native→Tape breaker demotion
    /// (later sightings are no-ops: `demotions` counts models).
    fn note_demotion(&self, id: u64, model: &str, trace: &str, plan: &Plan) {
        if plan.native_demotion().is_some() {
            let mut set = self.demoted.lock().unwrap_or_else(|e| e.into_inner());
            if set.insert(model.to_owned()) {
                self.tel.demotions.inc();
                let trips = plan.native_breaker().trips() as f64;
                let span = span_id(trace, "demoted");
                let root = span_id(trace, "submit");
                self.trace(
                    id,
                    model,
                    "demoted",
                    Some("native_breaker"),
                    RequestSpan { trace, span: &span, parent: Some(&root) },
                    &[("trips", trips)],
                );
            }
        }
    }
}

/// One shard's run loop: pop until the queue is empty *and* the service
/// is closed (so shutdown drains in-flight work). A [`RespawnGuard`]
/// armed for the whole loop turns a panic that escapes task execution
/// into a recover-and-respawn instead of a dead shard.
fn worker_loop(shared: &Arc<Shared>, idx: usize) {
    let guard = RespawnGuard { shared: Arc::clone(shared), idx };
    shared.workers_alive.fetch_add(1, Ordering::Relaxed);
    loop {
        let task = {
            let shard = &shared.shards[idx];
            let mut q = shard.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(t) = shard.pop(&mut q) {
                    break Some(t);
                }
                if !shared.open.load(Ordering::SeqCst) {
                    break None;
                }
                q = shard.wakeup.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        match task {
            None => break,
            Some(t) => process(shared, idx, t),
        }
    }
    // Clean exit: the guard is for panics only.
    shared.workers_alive.fetch_sub(1, Ordering::Relaxed);
    std::mem::forget(guard);
}

/// The request id a task belongs to (fault `req=` filters and trace).
fn task_request_id(task: &Task) -> u64 {
    match task {
        Task::Request(t) => t.id,
        Task::Slice(t) => t.agg.id,
    }
}

/// Times this task has already been recovered/retried.
fn task_attempts(task: &Task) -> u32 {
    match task {
        Task::Request(t) => t.attempts,
        Task::Slice(t) => t.attempts,
    }
}

/// Executes one dequeued task, applying the service-level fault drills
/// first: `slow@shard` stalls the worker, `panic@shard` parks the task
/// in the shard's in-flight slot and kills the worker (the respawn
/// guard recovers both). The panic only fires on a task's *first*
/// delivery — recovered tasks run, so the drill costs one slice and
/// terminates even on a single-shard service.
fn process(shared: &Arc<Shared>, idx: usize, task: Task) {
    if let Some(fault) = &shared.config.fault {
        if let Some(ms) = fault.shard_slow_ms(idx) {
            std::thread::sleep(Duration::from_millis(ms));
        }
        if task_attempts(&task) == 0 && fault.shard_panic_hits(idx, task_request_id(&task)) {
            *shared.shards[idx].inflight.lock().unwrap_or_else(|e| e.into_inner()) = Some(task);
            panic!("{INJECTED_SHARD_PANIC}");
        }
    }
    match task {
        Task::Request(t) => run_request(shared, idx, *t),
        Task::Slice(t) => run_slice(shared, idx, *t),
    }
}

/// Renders a caught panic payload.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// The armed-for-panic drop guard every worker runs under. If the
/// worker thread unwinds, the guard (running during that unwind):
///
/// 1. recovers the task parked in the shard's in-flight slot, if any,
///    and either re-enqueues it on the next shard (retry budget left)
///    or resolves it with the panic as a typed error — so a killed
///    worker never strands a ticket;
/// 2. respawns the shard's worker thread (unless the service is
///    shutting down), pushing the new handle where `stop` joins it.
struct RespawnGuard {
    shared: Arc<Shared>,
    idx: usize,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let shared = &self.shared;
        let idx = self.idx;
        // This thread is leaving its run loop; the respawn (if any)
        // re-enters and counts itself back in.
        shared.workers_alive.fetch_sub(1, Ordering::Relaxed);
        let inflight =
            shared.shards[idx].inflight.lock().unwrap_or_else(|e| e.into_inner()).take();
        // The recovered task's trace context, kept for the `respawned`
        // record after the task itself moves on.
        let mut affected: Option<(u64, String, String)> = None;
        if let Some(mut task) = inflight {
            let next = (idx + 1) % shared.shards.len();
            let (id, attempts) = (task_request_id(&task), task_attempts(&task) + 1);
            match &mut task {
                Task::Request(t) => t.attempts = attempts,
                Task::Slice(t) => t.attempts = attempts,
            }
            let (trace, parent, tag) = match &task {
                Task::Request(t) => (
                    t.trace.clone(),
                    span_id(&t.trace, "submit"),
                    format!("submit/attempt{attempts}"),
                ),
                Task::Slice(t) => (
                    t.agg.trace.clone(),
                    t.parent_span.clone(),
                    format!("chain{}/slice{}/attempt{attempts}", t.chain, t.slice_no),
                ),
            };
            affected = Some((id, trace.clone(), parent.clone()));
            if attempts <= shared.config.max_retries {
                shared.tel.retries.inc();
                let span = span_id(&trace, &tag);
                shared.trace(
                    id,
                    "",
                    "retried",
                    Some("fault"),
                    RequestSpan { trace: &trace, span: &span, parent: Some(&parent) },
                    &[("shard", idx as f64), ("attempt", attempts as f64)],
                );
                shared.enqueue(next, task);
            } else {
                let err = || {
                    ServeError::Model(augur::Error::WorkerPanic {
                        kernel: format!("service shard {idx}"),
                        detail: INJECTED_SHARD_PANIC.to_string(),
                    })
                };
                match task {
                    Task::Request(t) => {
                        let model = request_model(&t.req).to_owned();
                        let result = Err(err());
                        shared.finish(t.id, &model, &t.trace, t.t0, &result);
                        let _ = t.reply.send(result);
                    }
                    Task::Slice(t) => {
                        let agg = Arc::clone(&t.agg);
                        complete_chain(shared, &agg, t.chain, Err(err()));
                    }
                }
            }
        }
        if shared.open.load(Ordering::SeqCst) {
            shared.tel.respawns.inc();
            let nth = shared.tel.respawns.get();
            // The respawn record joins the affected request's trace when
            // a task was in flight; an idle-worker panic gets the
            // service-level trace (request id 0).
            let (id, trace, parent) = match affected {
                Some((id, trace, parent)) => (id, trace, Some(parent)),
                None => (0, trace_id(shared.config.base_seed, 0), None),
            };
            let span = span_id(&trace, &format!("respawn{nth}/shard{idx}"));
            shared.trace(
                id,
                "",
                "respawned",
                None,
                RequestSpan { trace: &trace, span: &span, parent: parent.as_deref() },
                &[("shard", idx as f64)],
            );
            let handle = spawn_worker(shared, idx);
            shared.handles.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
        }
    }
}

/// Checks a deadline; `Some(err)` when it has passed.
fn deadline_exceeded(t0: Instant, deadline: Option<Duration>) -> Option<ServeError> {
    let deadline = deadline?;
    let elapsed = t0.elapsed();
    (elapsed > deadline).then_some(ServeError::Timeout { elapsed, deadline })
}

/// Executes a freshly dequeued request: `score`/`explain` inline
/// (under `catch_unwind`, so an organic panic answers the ticket with
/// a typed error instead of killing the shard), `sample` by fanning
/// chain slices across the shards.
fn run_request(shared: &Arc<Shared>, idx: usize, task: RequestTask) {
    let RequestTask { id, trace, t0, deadline, attempts: _, req, reply } = task;
    let model = request_model(&req).to_owned();
    fn answer(
        shared: &Arc<Shared>,
        id: u64,
        model: &str,
        trace: &str,
        t0: Instant,
        reply: &mpsc::Sender<Result<Response, ServeError>>,
        result: Result<Response, ServeError>,
    ) {
        shared.finish(id, model, trace, t0, &result);
        let _ = reply.send(result);
    }
    if let Some(e) = deadline_exceeded(t0, deadline) {
        return answer(shared, id, &model, &trace, t0, &reply, Err(e));
    }
    let resolved = match &req {
        Request::Sample(r) => resolve(shared, &r.model, r.version),
        Request::Score(r) => resolve(shared, &r.model, r.version),
        Request::Explain(r) => resolve(shared, &r.model, r.version),
    };
    let registered = match resolved {
        Ok(m) => m,
        Err(e) => return answer(shared, id, &model, &trace, t0, &reply, Err(e)),
    };
    match req {
        Request::Score(r) => {
            let result =
                catch_unwind(AssertUnwindSafe(|| score(shared, id, &trace, &registered, r)))
                    .unwrap_or_else(|p| {
                        Err(ServeError::Model(augur::Error::WorkerPanic {
                            kernel: format!("service shard {idx}"),
                            detail: panic_detail(p.as_ref()),
                        }))
                    });
            answer(shared, id, &model, &trace, t0, &reply, result);
        }
        Request::Explain(r) => {
            let result =
                catch_unwind(AssertUnwindSafe(|| explain(shared, id, &trace, &registered, r)))
                    .unwrap_or_else(|p| {
                        Err(ServeError::Model(augur::Error::WorkerPanic {
                            kernel: format!("service shard {idx}"),
                            detail: panic_detail(p.as_ref()),
                        }))
                    });
            answer(shared, id, &model, &trace, t0, &reply, result);
        }
        Request::Sample(r) => {
            fan_sample(shared, idx, id, trace, t0, deadline, &registered, r, reply)
        }
    }
}

/// Resolves a registration or produces the typed miss.
fn resolve(
    shared: &Shared,
    name: &str,
    version: Option<u32>,
) -> Result<Arc<RegisteredModel>, ServeError> {
    shared
        .registry
        .resolve(name, version)
        .ok_or_else(|| ServeError::UnknownModel { name: name.to_owned(), version })
}

/// The config a request without one of its own runs under: hermetic
/// defaults, with the backend resolved registration-over-service
/// (`ModelSpec::backend` wins over `ServiceConfig::backend`).
fn default_config(shared: &Shared, registered: &RegisteredModel) -> SessionConfig {
    let mut cfg = hermetic_config(shared.config.base_seed);
    cfg.backend = registered.spec().backend.unwrap_or(shared.config.backend);
    cfg
}

/// Resolves the session config a request runs under, threading the
/// service's fault plan into configs that carry none of their own (the
/// service-level clauses are inert inside sweeps, so draws are
/// unchanged; `compile@native` steers backend selection only).
fn effective_config(
    shared: &Shared,
    registered: &RegisteredModel,
    config: Option<SessionConfig>,
) -> SessionConfig {
    let mut cfg = config.unwrap_or_else(|| default_config(shared, registered));
    if cfg.fault.is_none() {
        cfg.fault = shared.config.fault.clone();
    }
    cfg
}

/// `score`: plan, bind, init, log-joint.
fn score(
    shared: &Shared,
    id: u64,
    trace: &str,
    registered: &RegisteredModel,
    r: ScoreRequest,
) -> Result<Response, ServeError> {
    let data: Vec<(&str, HostValue)> =
        r.data.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    let plan = registered.plan(r.args, data)?;
    let cfg = effective_config(shared, registered, r.config);
    let mut session = plan.session(cfg).map_err(augur::Error::from)?;
    shared.note_demotion(id, &r.model, trace, &plan);
    session.init().map_err(augur::Error::from)?;
    Ok(Response::Score(ScoreOutput { log_joint: session.log_joint() }))
}

/// `explain`: plan, bind, render the stable explain tree.
fn explain(
    shared: &Shared,
    id: u64,
    trace: &str,
    registered: &RegisteredModel,
    r: ExplainRequest,
) -> Result<Response, ServeError> {
    let data: Vec<(&str, HostValue)> =
        r.data.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    let plan = registered.plan(r.args, data)?;
    let cfg = effective_config(shared, registered, None);
    let session = plan.session(cfg).map_err(augur::Error::from)?;
    shared.note_demotion(id, &r.model, trace, &plan);
    Ok(Response::Explain(ExplainOutput {
        kernel: registered.model().kernel(),
        explain: session.explain().render(),
    }))
}

/// Plans a `sample` request and fans its chains out as slice tasks;
/// a planning failure answers the ticket directly.
#[allow(clippy::too_many_arguments)]
fn fan_sample(
    shared: &Arc<Shared>,
    idx: usize,
    id: u64,
    trace: String,
    t0: Instant,
    deadline: Option<Duration>,
    registered: &RegisteredModel,
    r: SampleRequest,
    reply: mpsc::Sender<Result<Response, ServeError>>,
) {
    let data: Vec<(&str, HostValue)> =
        r.data.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    let plan = match registered.plan(r.args, data) {
        Ok(p) => Arc::new(p),
        Err(e) => {
            let result: Result<Response, ServeError> = Err(ServeError::Model(e));
            shared.finish(id, &r.model, &trace, t0, &result);
            let _ = reply.send(result);
            return;
        }
    };
    shared.note_demotion(id, &r.model, &trace, &plan);
    let root = span_id(&trace, "submit");
    let plan_span = span_id(&trace, "plan");
    shared.trace(
        id,
        &r.model,
        "planned",
        None,
        RequestSpan { trace: &trace, span: &plan_span, parent: Some(&root) },
        &[("chains", r.chains as f64), ("sweeps", r.sweeps as f64)],
    );
    let base = effective_config(shared, registered, r.config);
    let migrate_every = r.migrate_every.unwrap_or(shared.config.migrate_every);
    let fingerprint = plan.fingerprint();
    if r.chains == 0 {
        let result = Ok(Response::Sample(SampleOutput {
            draws: Vec::new(),
            report_digests: Vec::new(),
            fingerprint,
            migrations: 0,
        }));
        shared.finish(id, &r.model, &trace, t0, &result);
        let _ = reply.send(result);
        return;
    }
    shared.tel.begin_sample(&r.model, id, r.chains);
    shared.tel.inflight_chains.add(r.chains as f64);
    let agg = Arc::new(SampleAgg {
        id,
        trace,
        plan_span,
        t0,
        deadline,
        model: r.model.clone(),
        fingerprint,
        reply,
        state: Mutex::new(AggState {
            remaining: r.chains,
            migrations: 0,
            chains: (0..r.chains).map(|_| None).collect(),
        }),
    });
    for c in 0..r.chains {
        let mut cfg = base.clone();
        cfg.seed = chain_seed(base.seed, c);
        let task = Box::new(SliceTask {
            agg: Arc::clone(&agg),
            plan: Arc::clone(&plan),
            cfg,
            chain: c,
            total: r.sweeps,
            done: 0,
            record: r.record.clone(),
            draws: Vec::new(),
            ckpt: None,
            migrate_every,
            attempts: 0,
            slice_no: 0,
            parent_span: agg.plan_span.clone(),
        });
        shared.enqueue((idx + 1 + c) % shared.shards.len(), Task::Slice(task));
    }
}

/// What one slice execution did.
enum SliceOutcome {
    /// The chain has more sweeps to run; the task carries the
    /// checkpoint for its next hop.
    Continue,
    /// The chain finished and reported to its aggregate.
    Done,
}

/// One slice execution: bind a session, restore-or-init, run up to
/// `migrate_every` sweeps, then checkpoint (more to do) or report the
/// finished chain. Mutates `task` only after the sweeps succeed, so a
/// failed execution leaves the task exactly at its last good
/// checkpoint and a retry reruns the identical sweeps — byte-identical
/// draws, no matter how many times the slice is retried or recovered.
fn slice_step(shared: &Arc<Shared>, task: &mut SliceTask) -> Result<SliceOutcome, augur::Error> {
    let mut session = task.plan.session(task.cfg.clone())?;
    shared.note_demotion(task.agg.id, &task.agg.model, &task.agg.trace, &task.plan);
    match &task.ckpt {
        Some(ck) => session.restore(ck)?,
        None => session.init()?,
    }
    let remaining = task.total - task.done;
    let migrating =
        shared.open.load(Ordering::SeqCst) && task.migrate_every > 0 && shared.shards.len() > 1;
    let slice = if migrating { remaining.min(task.migrate_every as usize) } else { remaining };
    let record: Vec<&str> = task.record.iter().map(String::as_str).collect();
    let draws = session.sample(slice, &record)?;
    // Slice boundary: fold the fresh draws into the streaming
    // convergence estimators and close this slice's span (the next
    // slice — or the migration hop — parents onto it).
    shared.tel.record_slice(&task.agg.model, task.agg.id, task.chain, &draws);
    let span = span_id(&task.agg.trace, &format!("chain{}/slice{}", task.chain, task.slice_no));
    shared.trace(
        task.agg.id,
        &task.agg.model,
        "slice",
        None,
        RequestSpan { trace: &task.agg.trace, span: &span, parent: Some(&task.parent_span) },
        &[
            ("chain", task.chain as f64),
            ("sweep_from", task.done as f64),
            ("sweep_to", (task.done + slice) as f64),
        ],
    );
    task.parent_span = span;
    task.slice_no += 1;
    task.draws.extend(draws);
    task.done += slice;
    task.attempts = 0;
    if task.done < task.total {
        task.ckpt = Some(session.checkpoint());
        Ok(SliceOutcome::Continue)
    } else {
        let digest = session.report().digest();
        let chain = task.chain;
        let draws = std::mem::take(&mut task.draws);
        let agg = Arc::clone(&task.agg);
        complete_chain(shared, &agg, chain, Ok(ChainResult { draws, report_digest: digest }));
        Ok(SliceOutcome::Done)
    }
}

/// Executes one chain-slice task under supervision: deadline check
/// first, then the slice under `catch_unwind`; a transient failure
/// requeues the task (deterministic backoff) until the retry budget
/// runs out.
fn run_slice(shared: &Arc<Shared>, idx: usize, mut task: SliceTask) {
    if let Some(e) = deadline_exceeded(task.agg.t0, task.agg.deadline) {
        let agg = Arc::clone(&task.agg);
        complete_chain(shared, &agg, task.chain, Err(e));
        return;
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| slice_step(shared, &mut task)))
        .unwrap_or_else(|p| {
            Err(augur::Error::WorkerPanic {
                kernel: format!("service shard {idx}"),
                detail: panic_detail(p.as_ref()),
            })
        });
    match outcome {
        Ok(SliceOutcome::Done) => {}
        Ok(SliceOutcome::Continue) => {
            let next = (idx + 1) % shared.shards.len();
            shared.tel.migrations.inc();
            {
                let mut st = task.agg.state.lock().unwrap_or_else(|e| e.into_inner());
                st.migrations += 1;
            }
            // The hop parents onto the slice that just closed, and the
            // next slice parents onto the hop — one unbroken chain of
            // spans per chain.
            let span = span_id(
                &task.agg.trace,
                &format!("chain{}/slice{}/migrate", task.chain, task.slice_no - 1),
            );
            shared.trace(
                task.agg.id,
                &task.agg.model,
                "migrated",
                None,
                RequestSpan {
                    trace: &task.agg.trace,
                    span: &span,
                    parent: Some(&task.parent_span),
                },
                &[
                    ("chain", task.chain as f64),
                    ("sweep", task.done as f64),
                    ("from_worker", idx as f64),
                    ("to_worker", next as f64),
                ],
            );
            task.parent_span = span;
            shared.enqueue(next, Task::Slice(Box::new(task)));
        }
        Err(e) => retry_or_fail(shared, idx, task, e),
    }
}

/// Routes a failed slice: caller faults and exhausted budgets answer
/// the chain with the error; transient failures requeue the task on
/// the next shard after a deterministic backoff.
fn retry_or_fail(shared: &Arc<Shared>, idx: usize, mut task: SliceTask, e: augur::Error) {
    let transient = !e.kind().is_caller_fault();
    if !transient || task.attempts >= shared.config.max_retries {
        let agg = Arc::clone(&task.agg);
        complete_chain(shared, &agg, task.chain, Err(ServeError::Model(e)));
        return;
    }
    task.attempts += 1;
    shared.tel.retries.inc();
    let span = span_id(
        &task.agg.trace,
        &format!("chain{}/slice{}/attempt{}", task.chain, task.slice_no, task.attempts),
    );
    shared.trace(
        task.agg.id,
        &task.agg.model,
        "retried",
        Some(ServeError::Model(e).code()),
        RequestSpan { trace: &task.agg.trace, span: &span, parent: Some(&task.parent_span) },
        &[("chain", task.chain as f64), ("attempt", task.attempts as f64)],
    );
    std::thread::sleep(retry_backoff(
        shared.config.retry_backoff_ms,
        task.agg.id,
        task.chain as u64,
        task.attempts,
    ));
    shared.enqueue((idx + 1) % shared.shards.len(), Task::Slice(Box::new(task)));
}

/// The deterministic retry delay for `(request, chain, attempt)`:
/// exponential in the attempt, jittered from the counter-based
/// splitmix64 stream — no wall clock anywhere, so fault-injected
/// differential runs reproduce exactly.
fn retry_backoff(base_ms: u64, request: u64, chain: u64, attempt: u32) -> Duration {
    if base_ms == 0 {
        return Duration::ZERO;
    }
    let mut rng = Prng::seed_from_u64(
        request.wrapping_mul(0x0000_0100_0000_01b3) ^ (chain << 32) ^ attempt as u64,
    );
    let jitter = rng.uniform(); // [0, 1)
    let exp = attempt.saturating_sub(1).min(6);
    let scaled_ms = (base_ms << exp) as f64 * (0.5 + 0.5 * jitter);
    Duration::from_micros((scaled_ms * 1000.0) as u64)
}

/// Records one chain's result; the last chain to land assembles the
/// response (first error by chain index wins, matching `ChainPlan`).
fn complete_chain(
    shared: &Arc<Shared>,
    agg: &Arc<SampleAgg>,
    chain: usize,
    result: Result<ChainResult, ServeError>,
) {
    let finished = {
        let mut st = agg.state.lock().unwrap_or_else(|e| e.into_inner());
        st.chains[chain] = Some(result);
        st.remaining -= 1;
        st.remaining == 0
    };
    shared.tel.inflight_chains.add(-1.0);
    if !finished {
        return;
    }
    let (chains, migrations) = {
        let mut st = agg.state.lock().unwrap_or_else(|e| e.into_inner());
        (std::mem::take(&mut st.chains), st.migrations)
    };
    let mut draws = Vec::with_capacity(chains.len());
    let mut digests = Vec::with_capacity(chains.len());
    let mut first_err = None;
    for slot in chains {
        match slot.expect("every chain reported") {
            Ok(c) => {
                draws.push(c.draws);
                digests.push(c.report_digest);
            }
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    let result = match first_err {
        Some(e) => Err(e),
        None => Ok(Response::Sample(SampleOutput {
            draws,
            report_digests: digests,
            fingerprint: agg.fingerprint,
            migrations,
        })),
    };
    shared.finish(agg.id, &agg.model, &agg.trace, agg.t0, &result);
    let _ = agg.reply.send(result);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The backoff is a pure function of its counters: same
    /// (request, chain, attempt) → same delay, across processes and
    /// platforms — no wall clock feeds it.
    #[test]
    fn backoff_is_deterministic() {
        for (req, chain, attempt) in [(1, 0, 1), (7, 2, 3), (u64::MAX, 9, 10)] {
            let a = retry_backoff(2, req, chain, attempt);
            let b = retry_backoff(2, req, chain, attempt);
            assert_eq!(a, b, "req={req} chain={chain} attempt={attempt}");
        }
    }

    /// Delays grow exponentially with the attempt (jitter keeps them
    /// within [0.5, 1.0)× the 2^(attempt-1) rung, capped at 2^6) and
    /// differ across chains so retries de-synchronize.
    #[test]
    fn backoff_schedule_is_exponential_and_bounded() {
        let base = 2u64;
        for attempt in 1..=10u32 {
            let d = retry_backoff(base, 42, 1, attempt);
            let exp = attempt.saturating_sub(1).min(6);
            let rung = (base << exp) as f64 / 1000.0;
            let secs = d.as_secs_f64();
            assert!(secs >= rung * 0.5 - 1e-9, "attempt {attempt}: {secs} < {}", rung * 0.5);
            assert!(secs < rung + 1e-9, "attempt {attempt}: {secs} >= {rung}");
        }
        // Distinct chains jitter apart on the same attempt.
        let deltas: HashSet<u128> =
            (0..8u64).map(|c| retry_backoff(base, 42, c, 2).as_micros()).collect();
        assert!(deltas.len() > 1, "jitter collapsed: {deltas:?}");
        // A zero base disables the sleep entirely.
        assert_eq!(retry_backoff(0, 42, 0, 3), Duration::ZERO);
    }

    /// A queued task that is never run.
    fn idle_task() -> Task {
        Task::Request(Box::new(RequestTask {
            id: 0,
            trace: String::new(),
            t0: Instant::now(),
            deadline: None,
            attempts: 0,
            req: Request::Explain(ExplainRequest {
                model: String::new(),
                version: None,
                args: Vec::new(),
                data: Vec::new(),
                deadline: None,
            }),
            reply: mpsc::channel().0,
        }))
    }

    /// One thread pushes while another pops as fast as it can: after
    /// every pop the depth is at most the pushes so far minus the pops,
    /// so it never wraps below zero, and it ends at 0. A push that
    /// counted itself after unlocking would let a pop in between wrap the
    /// counter, and overflow its own `+ 1` in debug builds.
    #[test]
    fn shard_depth_never_counts_a_pop_before_its_push() {
        const TASKS: usize = 50_000;
        let shard = Shard::default();
        let pushed = AtomicUsize::new(0);
        let popped = std::thread::scope(|scope| {
            let pusher = scope.spawn(|| {
                for _ in 0..TASKS {
                    pushed.fetch_add(1, Ordering::Relaxed);
                    shard.push(idle_task());
                }
            });
            let mut popped = 0;
            loop {
                let mut q = shard.queue.lock().unwrap();
                if shard.pop(&mut q).is_some() {
                    popped += 1;
                    let depth = shard.depth.load(Ordering::Relaxed);
                    let bound = pushed.load(Ordering::Relaxed) - popped;
                    assert!(depth <= bound, "depth {depth} after {popped} pops, bound {bound}");
                } else if pusher.is_finished() {
                    break popped;
                }
            }
        });
        assert_eq!(popped, TASKS);
        assert_eq!(shard.depth.load(Ordering::Relaxed), 0);
    }
}
