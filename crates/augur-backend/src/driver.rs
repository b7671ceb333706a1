//! The sampler driver: executes the `⊗`-composition of base updates, one
//! sweep per posterior sample, against either target.

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use augur_blk::OptReport;
use augur_density::DensityError;
use augur_dist::Prng;
use augur_kernel::{KernelError, KernelPlan, KernelUnit, UpdateKind};
use augur_lang::LangError;
use augur_low::{LowerError, Step};
use augur_math::PoolVec;
use gpu_sim::{Device, DeviceConfig};

use crate::checkpoint::{Checkpoint, CheckpointError, StepTuning};
use crate::compile::ProcTable;
use crate::eval::{Engine, ExecMode};
use crate::fault::FaultPlan;
use crate::mcmc::{self, GradTarget, McmcConfig, Proposal};
use crate::metrics::{ExecReport, KernelReport, KernelStats, RunReport, TraceSink, UpdateOutcome};
use crate::plan::Plan;
use crate::profile::{ExplainPlan, MemWatermark, Profile, Span, StepProfile};
use crate::setup::SetupError;
use crate::state::{BufId, State};
use crate::tape::ExecBackend;
#[cfg(test)]
use crate::{plan::CompiledModel, state::HostValue};

/// Compilation target (Fig. 2's `Opt(target=...)`).
#[derive(Debug, Clone)]
pub enum Target {
    /// Sequential host execution.
    Cpu,
    /// The simulated SIMT device.
    Gpu(DeviceConfig),
}

/// Session construction options.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// CPU or (simulated) GPU.
    pub target: Target,
    /// RNG seed; fixing it makes entire runs reproducible.
    pub seed: u64,
    /// MCMC tuning.
    pub mcmc: McmcConfig,
    /// How compiled procedures execute on the CPU target: a flat
    /// instruction tape (the default), the reference tree-walking
    /// interpreter, or emitted C compiled with the host toolchain
    /// ([`ExecBackend::Native`]). Traces are bit-identical across
    /// backends; `Tree` is kept as the differential testing oracle and
    /// for debugging via `Tape::disasm`. The GPU target always runs Blk
    /// IL on the tree-walker (see [`Session::backend`]). The default
    /// honors the `AUGUR_BACKEND` environment variable
    /// (`tree` / `tape` / `native`) when set.
    pub backend: ExecBackend,
    /// Worker threads for tape execution. `1` (the default) runs
    /// sequentially; `0` means one per available core. Traces are
    /// bit-identical at every thread count (see `DESIGN.md`
    /// § Deterministic parallelism). The default honors the
    /// `AUGUR_THREADS` environment variable when set.
    pub threads: usize,
    /// Opt-in JSONL event sink: when set, the sampler streams one record
    /// per sweep (per-kernel counter deltas) to this path. The default
    /// honors the `AUGUR_TRACE` environment variable when set. See
    /// `DESIGN.md` § JSONL trace schema.
    pub trace_path: Option<PathBuf>,
    /// Whether to time each base update (`KernelStats::wall_secs`).
    /// Enabled by default; disable to measure the sampler's raw
    /// throughput without clock reads.
    pub timers: bool,
    /// When set, the sampler writes a [`Checkpoint`] to this path every
    /// [`SessionConfig::checkpoint_every`] sweeps (atomic tmp-file+rename
    /// writes). The default honors the `AUGUR_CKPT` environment variable.
    pub checkpoint_path: Option<PathBuf>,
    /// Checkpoint cadence in sweeps (only meaningful with
    /// `checkpoint_path`; `0` disables periodic writes). The default is
    /// 100, overridable via `AUGUR_CKPT_EVERY`.
    pub checkpoint_every: u64,
    /// Deterministic fault-injection plan for recovery drills. The
    /// default honors the `AUGUR_FAULT` environment variable (and panics
    /// on a malformed value — a drill that silently doesn't run is worse
    /// than a loud failure).
    pub fault: Option<FaultPlan>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            target: Target::Cpu,
            seed: 0xA464,
            mcmc: McmcConfig::default(),
            backend: default_backend(),
            threads: default_threads(),
            trace_path: std::env::var_os("AUGUR_TRACE").map(PathBuf::from),
            timers: true,
            checkpoint_path: std::env::var_os("AUGUR_CKPT").map(PathBuf::from),
            checkpoint_every: default_checkpoint_every(),
            fault: FaultPlan::from_env().unwrap_or_else(|e| panic!("AUGUR_FAULT: {e}")),
        }
    }
}

/// The default execution backend: `AUGUR_BACKEND` when set and parseable
/// (`tree` / `tape` / `native`), otherwise [`ExecBackend::Tape`]. A
/// malformed value panics — silently sampling under the wrong backend is
/// worse than a loud failure.
fn default_backend() -> ExecBackend {
    match std::env::var("AUGUR_BACKEND") {
        Ok(s) => ExecBackend::parse(s.trim())
            .unwrap_or_else(|| panic!("AUGUR_BACKEND: unknown backend {s:?}")),
        Err(_) => ExecBackend::default(),
    }
}

/// The default worker-thread count: `AUGUR_THREADS` when set (`0` = one
/// per core), otherwise `1`. A malformed value panics, as for
/// `AUGUR_BACKEND`: a thread-count lane that silently runs one thread
/// tests nothing.
fn default_threads() -> usize {
    parse_knob("AUGUR_THREADS", std::env::var("AUGUR_THREADS").ok().as_deref(), 1)
}

/// The default checkpoint cadence: `AUGUR_CKPT_EVERY` when set, otherwise
/// every 100 sweeps. A malformed value panics.
fn default_checkpoint_every() -> u64 {
    parse_knob("AUGUR_CKPT_EVERY", std::env::var("AUGUR_CKPT_EVERY").ok().as_deref(), 100)
}

/// The value of numeric environment knob `name` (`None` when unset):
/// `default` when unset, else the value parsed after trimming.
///
/// # Panics
///
/// When the value does not parse, naming the variable and the value.
fn parse_knob<T: std::str::FromStr>(name: &str, value: Option<&str>, default: T) -> T {
    match value {
        Some(s) => s.trim().parse().unwrap_or_else(|_| panic!("{name}: cannot parse {s:?}")),
        None => default,
    }
}

/// Any error from model source to runnable sampler.
#[derive(Debug)]
pub enum BuildError {
    /// Frontend (parse/type) error.
    Lang(LangError),
    /// Density translation error.
    Density(DensityError),
    /// Schedule parsing/planning error.
    Kernel(KernelError),
    /// Lowering error.
    Lower(LowerError),
    /// Binding/allocation error.
    Setup(SetupError),
    /// The JSONL trace sink could not be opened.
    Trace(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Lang(e) => write!(f, "frontend: {e}"),
            BuildError::Density(e) => write!(f, "density: {e}"),
            BuildError::Kernel(e) => write!(f, "kernel: {e}"),
            BuildError::Lower(e) => write!(f, "lowering: {e}"),
            BuildError::Setup(e) => write!(f, "setup: {e}"),
            BuildError::Trace(e) => write!(f, "trace: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<LangError> for BuildError {
    fn from(e: LangError) -> Self {
        BuildError::Lang(e)
    }
}
impl From<DensityError> for BuildError {
    fn from(e: DensityError) -> Self {
        BuildError::Density(e)
    }
}
impl From<KernelError> for BuildError {
    fn from(e: KernelError) -> Self {
        BuildError::Kernel(e)
    }
}
impl From<LowerError> for BuildError {
    fn from(e: LowerError) -> Self {
        BuildError::Lower(e)
    }
}
impl From<SetupError> for BuildError {
    fn from(e: SetupError) -> Self {
        BuildError::Setup(e)
    }
}

/// A runtime lookup of a parameter (buffer) name that does not exist in
/// the compiled state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownParam {
    /// The name that failed to resolve.
    pub name: String,
}

impl fmt::Display for UnknownParam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no parameter named `{}`", self.name)
    }
}

impl std::error::Error for UnknownParam {}

/// A runtime error from an already-built sampler: a bad buffer lookup, an
/// initialization that produced non-finite parameter values, a kernel
/// unit that panicked mid-sweep (isolated by [`Session::try_sweep`]), or
/// a checkpoint that could not be written or applied.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// A requested buffer name does not exist in the compiled state.
    UnknownParam(UnknownParam),
    /// Prior initialization left a parameter with NaN/infinite cells
    /// (typically improper hyperparameters).
    NonFiniteInit {
        /// The offending parameter.
        param: String,
    },
    /// A kernel update indexed outside a buffer (ragged or size-inferred
    /// indexing gone wrong), caught and surfaced instead of aborting.
    OutOfBounds {
        /// The Kernel-IL label of the step that failed.
        kernel: String,
        /// The underlying bounds-check message.
        detail: String,
    },
    /// A kernel update (or one of its parallel workers) panicked; the
    /// sweep failed but the process — and the worker pool — survive.
    WorkerPanic {
        /// The Kernel-IL label of the step that failed.
        kernel: String,
        /// The panic payload, rendered.
        detail: String,
    },
    /// A periodic checkpoint could not be written, or a resume could not
    /// be read or applied.
    Checkpoint(CheckpointError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::UnknownParam(e) => write!(f, "{e}"),
            RunError::NonFiniteInit { param } => {
                write!(f, "initialization produced non-finite values for `{param}`")
            }
            RunError::OutOfBounds { kernel, detail } => {
                write!(f, "out-of-bounds access in `{kernel}`: {detail}")
            }
            RunError::WorkerPanic { kernel, detail } => {
                write!(f, "kernel `{kernel}` panicked: {detail}")
            }
            RunError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl From<CheckpointError> for RunError {
    fn from(e: CheckpointError) -> Self {
        RunError::Checkpoint(e)
    }
}

impl std::error::Error for RunError {}

impl From<UnknownParam> for RunError {
    fn from(e: UnknownParam) -> Self {
        RunError::UnknownParam(e)
    }
}

/// One compiled step of the sweep.
#[derive(Debug, Clone)]
pub(crate) enum CompiledStep {
    Gibbs { proc_: usize, target: BufId },
    Hmc { targets: Vec<GradTarget>, ll: usize, grad: usize, nuts: bool },
    SliceRefl { targets: Vec<GradTarget>, ll: usize, grad: usize },
    Mala { targets: Vec<GradTarget>, ll: usize, grad: usize },
    ESlice { target: BufId, lik: usize, psamp: usize, pmean: usize, aux: BufId, mean: BufId },
    RwMh { targets: Vec<GradTarget>, ll: usize },
}

/// An executable, data-bound MCMC sampler — the paper's `aug` inference
/// object after `compile(...)(data)`. A session owns its mutable run
/// state (engine, RNG, statistics, trace sink) and *shares* the
/// immutable compiled artifact (tapes, schedule steps) with the
/// [`Plan`] that produced it, so fanning N sessions over one plan costs
/// one compilation.
#[derive(Debug)]
pub struct Session {
    engine: Engine,
    table: Arc<ProcTable>,
    steps: Arc<Vec<CompiledStep>>,
    init_idx: usize,
    model_ll_idx: usize,
    mcmc_cfg: McmcConfig,
    /// Cumulative per-step statistics, aligned with `steps`/`labels`.
    stats: Vec<KernelStats>,
    /// Kernel-IL labels of the schedule steps (`Gibbs Single(z)`, …).
    labels: Vec<String>,
    /// Per-step step-size-backoff state, aligned with `steps`.
    tuning: Vec<StepTuning>,
    sweeps: u64,
    timers: bool,
    trace: Option<TraceSink>,
    opt_report: OptReport,
    param_names: Vec<String>,
    proposals: HashMap<usize, Box<dyn Proposal>>,
    checkpoint_path: Option<PathBuf>,
    checkpoint_every: u64,
    /// The step a panic unwound from (for error labeling).
    current_step: usize,
    /// Compile-time explain plan, recorded while the pipeline ran.
    explain: ExplainPlan,
    /// Deterministic work attributed per schedule step (profiler; only
    /// populated while `timers` is on). Session-local: not checkpointed.
    step_work: Vec<u64>,
    /// Static memory watermark (size-inference bound vs. statically
    /// touched bytes).
    mem: MemWatermark,
    /// Why the session runs on another backend than the configured one
    /// (`None` when no fallback happened).
    backend_fallback: Option<String>,
}

impl Session {
    /// Binds an executable session to a shape-specialized [`Plan`]: the
    /// compiled tapes, the schedule steps and the bound data are shared
    /// by reference, the plan's pristine cell arena is copied, and the
    /// engine/RNG/trace sink are created fresh from `config`.
    pub(crate) fn from_plan(plan: &Plan, config: SessionConfig) -> Result<Session, BuildError> {
        let (device, mode) = match &config.target {
            Target::Cpu => (Device::new(DeviceConfig::host_cpu_like()), ExecMode::Cpu),
            Target::Gpu(cfg) => (Device::new(cfg.clone()), ExecMode::Gpu),
        };
        let mut engine =
            Engine::new(plan.state.clone(), Prng::seed_from_u64(config.seed), device, mode);
        engine.backend = config.backend;
        let mut backend_fallback = None;
        if mode == ExecMode::Gpu {
            // The simulated device runs Blk IL on the reference
            // interpreter; the backend choice is a CPU-target concern.
            engine.backend = ExecBackend::Tree;
            if config.backend != ExecBackend::Tree {
                backend_fallback = Some(format!(
                    "the simulated GPU runs Blk IL on the tree-walker; {:?} selects a CPU engine",
                    config.backend
                ));
            }
        } else if config.backend == ExecBackend::Native {
            // Native requested: build (or reuse) the plan's dlopen'ed C
            // artifact. Failure is not fatal — the session degrades to
            // the tape and records why.
            let breaker = plan.native_breaker();
            if let Some(reason) = breaker.open_reason() {
                // Demoted: the model's breaker tripped earlier, so skip
                // the build/probe entirely and run on the tape. The
                // recorded reason keeps the original failure text.
                engine.backend = ExecBackend::Tape;
                backend_fallback = Some(format!(
                    "native circuit breaker open after {} consecutive native failures: {reason}",
                    crate::plan::NATIVE_BREAKER_THRESHOLD
                ));
            } else if config.fault.as_ref().is_some_and(|f| f.compile_native) {
                // Injected native-compile failure: feed the breaker and
                // degrade exactly as a real toolchain fault would.
                breaker.record_failure(crate::fault::INJECTED_NATIVE_FAILURE);
                engine.backend = ExecBackend::Tape;
                backend_fallback = Some(crate::fault::INJECTED_NATIVE_FAILURE.to_string());
            } else {
                match plan.native_module() {
                    Ok(module) => {
                        breaker.record_success();
                        engine.native = Some(module);
                    }
                    Err(reason) => {
                        breaker.record_failure(&reason);
                        engine.backend = ExecBackend::Tape;
                        backend_fallback = Some(reason);
                    }
                }
            }
        }
        engine.profile_ops = config.timers;
        engine.set_threads(config.threads);
        if matches!(config.target, Target::Gpu(_)) {
            // Model the host→device shipment of the whole state.
            let bytes = engine.state.total_cells() as u64 * 8;
            engine.device.transfer(bytes);
        }

        let steps = Arc::clone(&plan.artifact.steps);
        let labels: Vec<String> = (*plan.labels).clone();
        let stats = vec![KernelStats::default(); steps.len()];
        let fault = config.fault.filter(|p| !p.is_empty());
        let mut trace = match &config.trace_path {
            Some(p) => Some(TraceSink::create(p).map_err(BuildError::Trace)?),
            None => None,
        };
        if let Some(sink) = &mut trace {
            // The plan-provenance record goes out before fault arming:
            // it describes session *construction*, which the trace-I/O
            // drill (a run-time failure) deliberately does not cover.
            sink.write_plan(plan.event.name(), plan.fingerprint, &plan.stats);
            if fault.as_ref().is_some_and(|f| f.trace_io) {
                sink.set_fail_writes(true);
            }
        }
        engine.fault = fault;
        let tuning = vec![StepTuning::default(); steps.len()];
        let step_work = vec![0u64; steps.len()];
        Ok(Session {
            engine,
            table: Arc::clone(&plan.artifact.table),
            steps,
            init_idx: plan.artifact.init_idx,
            model_ll_idx: plan.artifact.model_ll_idx,
            mcmc_cfg: config.mcmc,
            stats,
            labels,
            tuning,
            sweeps: 0,
            timers: config.timers,
            trace,
            opt_report: plan.artifact.opt_report,
            param_names: plan.param_names.clone(),
            proposals: HashMap::new(),
            checkpoint_path: config.checkpoint_path,
            checkpoint_every: config.checkpoint_every,
            current_step: 0,
            explain: plan.explain.clone(),
            step_work,
            mem: plan.mem,
            backend_fallback,
        })
    }

    /// The backend this session actually executes on. Differs from the
    /// configured [`SessionConfig::backend`] when a requested `Native`
    /// session fell back to the tape (no C toolchain, open breaker, …),
    /// and on the GPU target, which always runs Blk IL on the
    /// tree-walker and so reports [`ExecBackend::Tree`];
    /// [`Session::backend_fallback`] records why.
    pub fn backend(&self) -> ExecBackend {
        self.engine.backend
    }

    /// The recorded reason this session runs on another backend than
    /// [`SessionConfig::backend`] requested (a `Native` session on the
    /// tape, or a `Tape`/`Native` request on the GPU target), or `None`
    /// when no fallback happened.
    pub fn backend_fallback(&self) -> Option<&str> {
        self.backend_fallback.as_deref()
    }

    /// Registers a user-supplied proposal (the Kernel IL's
    /// `Prop (Just α)`) for schedule step `step_index`, which must be an
    /// `MH` entry. The proposal operates on the block's flattened values
    /// in their natural space.
    ///
    /// # Panics
    ///
    /// Panics if the step is not a Metropolis–Hastings update.
    pub fn set_proposal(&mut self, step_index: usize, proposal: Box<dyn Proposal>) {
        assert!(
            matches!(self.steps.get(step_index), Some(CompiledStep::RwMh { .. })),
            "step {step_index} is not an MH update"
        );
        self.proposals.insert(step_index, proposal);
    }

    /// Initializes every parameter by ancestral sampling from its prior.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::NonFiniteInit`] if any parameter comes out of
    /// the prior with NaN or infinite cells — catching improper
    /// hyperparameters before the first sweep silently diverges.
    pub fn init(&mut self) -> Result<(), RunError> {
        self.engine.run_proc(&self.table, self.init_idx);
        for name in &self.param_names {
            if let Some(id) = self.engine.state.id(name) {
                if !self.engine.state.flat(id).iter().all(|x| x.is_finite()) {
                    return Err(RunError::NonFiniteInit { param: name.clone() });
                }
            }
        }
        Ok(())
    }

    /// Overwrites a parameter's flat cells (manual initialization).
    ///
    /// # Panics
    ///
    /// Panics on unknown names or length mismatches.
    pub fn set_param(&mut self, name: &str, values: &[f64]) {
        let id = self.engine.state.expect_id(name);
        assert_eq!(self.engine.state.flat(id).len(), values.len(), "length mismatch for `{name}`");
        self.engine.state.flat_mut(id).copy_from_slice(values);
    }

    /// The flat cells of a parameter (or any buffer).
    ///
    /// # Errors
    ///
    /// Returns [`UnknownParam`] if no buffer has that name.
    pub fn param(&self, name: &str) -> Result<&[f64], UnknownParam> {
        match self.engine.state.id(name) {
            Some(id) => Ok(self.engine.state.flat(id)),
            None => Err(UnknownParam { name: name.to_owned() }),
        }
    }

    /// Names of the model parameters, in declaration order.
    pub fn param_names(&self) -> &[String] {
        &self.param_names
    }

    /// Names of the compiled procedures, in table order.
    pub fn proc_names(&self) -> Vec<&str> {
        self.table.proc_names()
    }

    /// The compiled tape of the named procedure (its CPU form) rendered
    /// as readable assembly — diagnostics and golden tests.
    ///
    /// # Panics
    ///
    /// Panics on unknown procedure names.
    pub fn disasm(&self, proc_name: &str) -> String {
        self.table.tapes[self.table.index(proc_name)].tape.disasm()
    }

    /// Runs one sweep: every base update once, in schedule order. Each
    /// update's outcome (acceptance, leapfrogs, divergences, slice
    /// counters) folds into the per-kernel statistics behind
    /// [`Session::report`]; when a trace sink is configured, the sweep's
    /// counter deltas stream out as one JSONL record.
    ///
    /// # Panics
    ///
    /// Panics if the sweep fails ([`Session::try_sweep`] for the fallible
    /// form) or a periodic checkpoint cannot be written.
    pub fn sweep(&mut self) {
        if let Err(e) = self.try_sweep() {
            panic!("sweep failed: {e}");
        }
    }

    /// [`Session::sweep`] with panic isolation: a kernel unit that
    /// panics — a bounds violation in compiled indexing code, a poisoned
    /// parallel worker — fails this sweep with a typed [`RunError`]
    /// instead of unwinding through the caller. The worker pool survives
    /// and later sweeps can run, but the *state* of the failed sweep is
    /// unspecified: recover by [`Session::resume`]-ing from the last
    /// checkpoint.
    ///
    /// On success, writes a periodic checkpoint when configured
    /// (`checkpoint_path` + `checkpoint_every`).
    ///
    /// # Errors
    ///
    /// [`RunError::OutOfBounds`] or [`RunError::WorkerPanic`] for an
    /// isolated kernel failure; [`RunError::Checkpoint`] if the periodic
    /// checkpoint write fails.
    pub fn try_sweep(&mut self) -> Result<(), RunError> {
        let env_depth = self.engine.env.len();
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| self.sweep_inner())) {
            // unwind can leave interpreter scratch dirty; reset it so the
            // sampler object (not the chain state) stays usable
            self.engine.env.truncate(env_depth);
            self.engine.in_parallel = false;
            self.engine.write_log = None;
            let detail = panic_message(payload);
            let kernel = self.labels.get(self.current_step).cloned().unwrap_or_default();
            return Err(if detail.contains("out of bounds") || detail.contains("out of range") {
                RunError::OutOfBounds { kernel, detail }
            } else {
                RunError::WorkerPanic { kernel, detail }
            });
        }
        if self.checkpoint_every > 0 && self.sweeps.is_multiple_of(self.checkpoint_every) {
            if let Some(path) = self.checkpoint_path.clone() {
                self.checkpoint().write_atomic(&path)?;
            }
        }
        Ok(())
    }

    fn sweep_inner(&mut self) {
        let snap: Option<Vec<KernelStats>> = self.trace.as_ref().map(|_| self.stats.clone());
        let work_snap: Option<Vec<u64>> =
            if self.trace.is_some() && self.timers { Some(self.step_work.clone()) } else { None };
        let sweep_t0 = self.trace.as_ref().map(|_| Instant::now());
        self.engine.fault_sweep = self.sweeps + 1; // fault clauses are 1-based
                                                   // Share the step list by reference for the whole sweep — the hot
                                                   // loop performs no per-step clones (steady-state sweeps are
                                                   // allocation-free; see `tests/alloc_free.rs`).
        let steps = Arc::clone(&self.steps);
        for (i, step) in steps.iter().enumerate() {
            self.current_step = i;
            let t0 = if self.timers { Some(Instant::now()) } else { None };
            let w0 = if self.timers { Some(self.engine.work) } else { None };
            let outcome = self.update(i, step);
            if matches!(step, CompiledStep::Hmc { .. }) {
                self.update_tuning(i, &outcome);
            }
            self.stats[i].record(outcome);
            if let Some(t0) = t0 {
                self.stats[i].wall_secs += t0.elapsed().as_secs_f64();
            }
            if let Some(w0) = w0 {
                self.step_work[i] += self.engine.work - w0;
            }
        }
        self.sweeps += 1;
        if let (Some(sink), Some(snap)) = (&mut self.trace, snap) {
            let deltas: Vec<KernelStats> =
                self.stats.iter().zip(&snap).map(|(now, then)| now.delta(then)).collect();
            let wall = sweep_t0.map(|t| t.elapsed().as_secs_f64()).unwrap_or(0.0);
            let work_deltas: Option<Vec<u64>> = work_snap.map(|then| {
                self.step_work.iter().zip(&then).map(|(now, then)| now - then).collect()
            });
            sink.write_sweep(self.sweeps, &self.labels, &deltas, wall, work_deltas.as_deref());
        }
    }

    /// Runs base update `i` (`step`, the schedule's `i`-th step) once.
    fn update(&mut self, i: usize, step: &CompiledStep) -> UpdateOutcome {
        match step {
            CompiledStep::Gibbs { proc_, target } => self.gibbs_update(*proc_, *target),
            CompiledStep::Hmc { targets, ll, grad, nuts } => {
                let cfg = self.effective_cfg(i);
                if *nuts {
                    mcmc::nuts_update(&mut self.engine, &self.table, *ll, *grad, targets, &cfg)
                } else {
                    mcmc::hmc_update(&mut self.engine, &self.table, *ll, *grad, targets, &cfg)
                }
            }
            CompiledStep::SliceRefl { targets, ll, grad } => mcmc::reflective_slice_update(
                &mut self.engine,
                &self.table,
                *ll,
                *grad,
                targets,
                &self.mcmc_cfg,
            ),
            CompiledStep::Mala { targets, ll, grad } => mcmc::mala_update(
                &mut self.engine,
                &self.table,
                *ll,
                *grad,
                targets,
                &self.mcmc_cfg,
            ),
            CompiledStep::ESlice { target, lik, psamp, pmean, aux, mean } => mcmc::eslice_update(
                &mut self.engine,
                &self.table,
                *lik,
                *psamp,
                *pmean,
                *target,
                *aux,
                *mean,
            ),
            CompiledStep::RwMh { targets, ll } => {
                if let Some(proposal) = self.proposals.get_mut(&i) {
                    mcmc::custom_mh_update(
                        &mut self.engine,
                        &self.table,
                        *ll,
                        targets,
                        proposal.as_mut(),
                    )
                } else {
                    mcmc::rw_mh_update(&mut self.engine, &self.table, *ll, targets, &self.mcmc_cfg)
                }
            }
        }
    }

    /// One Gibbs update with the numerical guardrail: the conditional
    /// resample always accepts (§5.5), but if it leaves any non-finite
    /// cell in the target — an overflowed conditional, or an injected
    /// NaN — the previous value is restored and the event recorded
    /// instead of poisoning every later sweep.
    fn gibbs_update(&mut self, proc_: usize, target: BufId) -> UpdateOutcome {
        let saved = PoolVec::from_slice(self.engine.state.flat(target));
        self.engine.run_proc(&self.table, proc_);
        let poison = self
            .engine
            .fault
            .as_ref()
            .is_some_and(|p| p.nan_hits(self.table.proc_name(proc_), self.engine.fault_sweep));
        if poison {
            // Gibbs procedures return no scalar, so a matching nan@proc
            // clause poisons the resampled buffer itself
            self.engine.state.flat_mut(target)[0] = f64::NAN;
        }
        if self.engine.state.flat(target).iter().all(|x| x.is_finite()) {
            UpdateOutcome::accepted()
        } else {
            self.engine.state.flat_mut(target).copy_from_slice(&saved);
            UpdateOutcome { numerical_events: 1, ..UpdateOutcome::default() }
        }
    }

    /// The MCMC config for step `i` with its backoff scale applied.
    fn effective_cfg(&self, i: usize) -> McmcConfig {
        let scale = self.tuning[i].scale;
        if scale == 1.0 {
            self.mcmc_cfg.clone()
        } else {
            McmcConfig { step_size: self.mcmc_cfg.step_size * scale, ..self.mcmc_cfg.clone() }
        }
    }

    /// Deterministic step-size backoff (HMC/NUTS): after
    /// `divergence_backoff` consecutive divergent updates the step size
    /// halves; after `backoff_recovery` consecutive clean updates at a
    /// reduced size it doubles back toward the configured value. Purely a
    /// function of the update outcomes, so it replays identically from a
    /// checkpoint.
    fn update_tuning(&mut self, i: usize, outcome: &UpdateOutcome) {
        let k = self.mcmc_cfg.divergence_backoff as u64;
        if k == 0 {
            return;
        }
        let t = &mut self.tuning[i];
        if outcome.divergences > 0 {
            t.consec_clean = 0;
            t.consec_div += 1;
            if t.consec_div >= k {
                t.scale = (t.scale * 0.5).max(1.0 / 1024.0);
                t.consec_div = 0;
            }
        } else {
            t.consec_div = 0;
            if t.scale < 1.0 {
                t.consec_clean += 1;
                if t.consec_clean >= self.mcmc_cfg.backoff_recovery as u64 {
                    t.scale = (t.scale * 2.0).min(1.0);
                    t.consec_clean = 0;
                }
            }
        }
    }

    /// Draws `n` samples, recording the named parameters after each sweep.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::UnknownParam`] if a recorded name is not a
    /// model buffer — validated up front, before any sweep runs — and any
    /// [`Session::try_sweep`] error (isolated kernel panics, failed
    /// periodic checkpoints).
    pub fn sample(
        &mut self,
        n: usize,
        record: &[&str],
    ) -> Result<Vec<HashMap<String, Vec<f64>>>, RunError> {
        let ids: Vec<BufId> = record
            .iter()
            .map(|name| {
                self.engine
                    .state
                    .id(name)
                    .ok_or_else(|| UnknownParam { name: (*name).to_owned() }.into())
            })
            .collect::<Result<_, RunError>>()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            self.try_sweep()?;
            let mut snap = HashMap::new();
            for (name, id) in record.iter().zip(&ids) {
                snap.insert((*name).to_owned(), self.engine.state.flat(*id).to_vec());
            }
            out.push(snap);
        }
        Ok(out)
    }

    /// Sweeps completed so far.
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }

    /// A complete snapshot of the chain: every state buffer bit-exact, in
    /// id (allocation) order, the RNG words, the launch/work counters,
    /// the cumulative kernel statistics, and the backoff tuning.
    /// Resuming from it continues the trace byte-identically to an
    /// uninterrupted run, at any `AUGUR_THREADS` count and under either
    /// execution strategy.
    pub fn checkpoint(&self) -> Checkpoint {
        let (rng_state, rng_spare) = self.engine.rng.state_words();
        let buffers = self
            .engine
            .state
            .names()
            .map(|(name, id)| {
                (name.to_owned(), self.engine.state.flat(id).iter().map(|x| x.to_bits()).collect())
            })
            .collect();
        Checkpoint {
            schedule: self.labels.join(" (*) "),
            sweep: self.sweeps,
            rng_state,
            rng_spare,
            master_seed: self.engine.master_seed,
            launch_counter: self.engine.launch_counter,
            work: self.engine.work,
            stats: self.stats.clone(),
            tuning: self.tuning.clone(),
            buffers,
        }
    }

    /// Writes [`Session::checkpoint`] atomically to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Checkpoint`] on I/O failure.
    pub fn write_checkpoint(&self, path: &Path) -> Result<(), RunError> {
        Ok(self.checkpoint().write_atomic(path)?)
    }

    /// Restores this sampler from a checkpoint file written by a sampler
    /// built from the same model, schedule, and data. Returns the sweep
    /// index the chain resumes from; subsequent sweeps reproduce the
    /// uninterrupted run bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Checkpoint`] if the file cannot be read or
    /// does not match this sampler (different schedule, or unknown /
    /// wrongly-sized buffers).
    pub fn resume(&mut self, path: &Path) -> Result<u64, RunError> {
        let ck = Checkpoint::read(path)?;
        self.restore(&ck)?;
        Ok(self.sweeps)
    }

    /// Applies an in-memory checkpoint (see [`Session::resume`]).
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Checkpoint`] on a schedule or buffer mismatch.
    pub fn restore(&mut self, ck: &Checkpoint) -> Result<(), RunError> {
        let schedule = self.labels.join(" (*) ");
        let mismatch = |detail: String| RunError::Checkpoint(CheckpointError::Mismatch { detail });
        if ck.schedule != schedule {
            return Err(mismatch(format!(
                "checkpoint schedule `{}` vs sampler `{schedule}`",
                ck.schedule
            )));
        }
        if ck.stats.len() != self.steps.len() || ck.tuning.len() != self.steps.len() {
            return Err(mismatch(format!(
                "checkpoint has {} stats / {} tuning entries for {} steps",
                ck.stats.len(),
                ck.tuning.len(),
                self.steps.len()
            )));
        }
        let expected = self.engine.state.names().count();
        if ck.buffers.len() != expected {
            return Err(mismatch(format!(
                "checkpoint has {} buffers, state has {expected}",
                ck.buffers.len()
            )));
        }
        // validate every buffer before mutating anything
        for (name, cells) in &ck.buffers {
            let id = self
                .engine
                .state
                .id(name)
                .ok_or_else(|| mismatch(format!("no buffer named `{name}`")))?;
            let len = self.engine.state.flat(id).len();
            if cells.len() != len {
                return Err(mismatch(format!(
                    "buffer `{name}` has {} cells, state expects {len}",
                    cells.len()
                )));
            }
        }
        // A data buffer is written only when the checkpoint edits it, so
        // bound data it leaves as it is stays shared with the plan's other
        // sessions.
        for (name, cells) in &ck.buffers {
            let id = self.engine.state.expect_id(name);
            let state = &mut self.engine.state;
            if state.is_data(id)
                && state.flat(id).iter().zip(cells).all(|(x, &bits)| x.to_bits() == bits)
            {
                continue;
            }
            for (dst, &bits) in state.flat_mut(id).iter_mut().zip(cells) {
                *dst = f64::from_bits(bits);
            }
        }
        self.engine.rng = Prng::from_state_words(ck.rng_state, ck.rng_spare);
        self.engine.master_seed = ck.master_seed;
        self.engine.launch_counter = ck.launch_counter;
        self.engine.work = ck.work;
        self.sweeps = ck.sweep;
        self.stats = ck.stats.clone();
        self.tuning = ck.tuning.clone();
        Ok(())
    }

    /// The model's joint log-density at the current state.
    pub fn log_joint(&mut self) -> f64 {
        self.engine.run_proc(&self.table, self.model_ll_idx).expect("model ll returns a value")
    }

    /// Virtual time elapsed on the target, in seconds.
    pub fn virtual_secs(&self) -> f64 {
        self.engine.device.elapsed_secs()
    }

    /// Device activity counters.
    pub fn device_counters(&self) -> gpu_sim::Counters {
        self.engine.device.counters()
    }

    /// Acceptance rate of step `i` of the schedule.
    pub fn acceptance_rate(&self, i: usize) -> f64 {
        self.stats[i].acceptance_rate()
    }

    /// The structured account of everything this sampler has done: the
    /// Kernel-IL schedule, per-kernel acceptance/divergence/slice
    /// counters and wall-time breakdown, the deterministic work counter,
    /// and execution-shape statistics. The deterministic portion
    /// ([`RunReport::digest`]) is bit-identical at any `AUGUR_THREADS`
    /// count and under either execution strategy.
    pub fn report(&self) -> RunReport {
        let kernels = self
            .labels
            .iter()
            .zip(&self.stats)
            .map(|(l, s)| KernelReport { kernel: l.clone(), stats: s.clone() })
            .collect();
        RunReport {
            schedule: self.labels.join(" (*) "),
            sweeps: self.sweeps,
            kernels,
            work: self.engine.work,
            trace_records_dropped: self.trace.as_ref().map_or(0, TraceSink::records_dropped),
            exec: ExecReport {
                threads: self.engine.threads(),
                proc_calls: self.engine.metrics.proc_calls,
                instrs_retired: self.engine.metrics.instrs_retired,
                par_dispatches: self.engine.metrics.par_dispatches,
                par_chunks: self.engine.metrics.par_chunks,
                total_wall_secs: self.stats.iter().map(|s| s.wall_secs).sum(),
            },
        }
    }

    /// The compile-time explain plan recorded while this sampler was
    /// built: which §3.3 conditional rewrite fired per kernel unit (and
    /// why fallbacks happened), the Kernel-IL strategy per update, the
    /// size-inference allocation table with resolved byte bounds, AD
    /// statistics, and the Blk-IL decisions. `render()` is stable for a
    /// fixed model/schedule/data-size; `render_timed()` adds wall times.
    pub fn explain(&self) -> &ExplainPlan {
        &self.explain
    }

    /// The runtime phase profile: deterministic per-schedule-step work,
    /// per-tape-op-class instruction counts, wall-time breakdown, and the
    /// static memory watermark. Per-step attribution is gated by
    /// [`SessionConfig::timers`] and covers the sweeps run by *this*
    /// sampler object (it is not checkpointed); the total work counter is
    /// cumulative across resume. The work-counter portion
    /// ([`Profile::digest`]) is byte-identical at any `AUGUR_THREADS`
    /// count and under either execution strategy.
    pub fn profile(&self) -> Profile {
        let steps = self
            .labels
            .iter()
            .zip(&self.step_work)
            .zip(&self.stats)
            .map(|((label, work), stats)| StepProfile {
                label: label.clone(),
                work: *work,
                wall_secs: stats.wall_secs,
            })
            .collect();
        Profile {
            schedule: self.labels.join(" (*) "),
            sweeps: self.sweeps,
            work: self.engine.work,
            steps,
            op_class: self.engine.metrics.op_class,
            mem: self.mem,
            threads: self.engine.threads(),
            strategy: format!("{:?}", self.engine.backend),
        }
    }

    /// The path of the configured JSONL trace sink, if any.
    pub fn trace_path(&self) -> Option<&std::path::Path> {
        self.trace.as_ref().map(TraceSink::path)
    }

    /// What the Blk-IL optimizer did at compile time (GPU target).
    pub fn opt_report(&self) -> OptReport {
        self.opt_report
    }

    /// Mutable access to the engine (tests and baselines).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Shared access to the engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

pub(crate) fn table_index(table: &ProcTable, name: &str) -> usize {
    table.index(name)
}

/// Builds the `density` and `kernel-plan` explain spans from a validated
/// kernel plan: one child span per kernel unit naming the §3.3 rewrite
/// that aligned each conditional factor (or why alignment fell back), and
/// one naming the per-update strategy (conjugacy relation / finite-sum
/// support). Shared by [`CompiledModel::compile`](crate::plan::CompiledModel::compile)
/// and `augur`'s pipeline API.
pub fn explain_plan_spans(kp: &KernelPlan) -> (Span, Span) {
    let mut density = Span::new("density");
    let mut kernel = Span::new("kernel-plan");
    kernel.attr("schedule", format!("{}", kp.kernel()));
    for u in &kp.updates {
        let name = format!("unit {} {}", u.base.kind.name(), u.base.unit);
        let mut d = Span::new(name.clone());
        for f in &u.base.cond.factors {
            d.attr(format!("factor {}", f.factor.point), f.rewrite.describe());
        }
        density.child(d);
        let mut k = Span::new(name);
        if let Some(fc) = &u.fc {
            k.attr("strategy", fc.describe());
        }
        kernel.child(k);
    }
    (density, kernel)
}

/// Renders a caught panic payload (the `&str` / `String` payloads every
/// `panic!` produces; anything else gets a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// The Kernel-IL label of a lowered step — the stable key under which
/// its statistics appear in [`RunReport`] (e.g. `Gibbs Single(z)`,
/// `NUTS Block(sigma2, b, theta)`). Built from the Kernel IL's own
/// naming ([`UpdateKind::name`], [`KernelUnit`]'s rendering) so report
/// keys match `kernel_plan()` output.
pub(crate) fn step_label(s: &Step) -> String {
    let (kind, unit) = match s {
        Step::Gibbs { target, .. } => (UpdateKind::Gibbs, KernelUnit::from_vars([target.as_str()])),
        Step::Hmc { targets, nuts, .. } => (
            if *nuts { UpdateKind::Nuts } else { UpdateKind::Hmc },
            KernelUnit::from_vars(targets.iter().map(|(v, _)| v.as_str())),
        ),
        Step::Mala { targets, .. } => {
            (UpdateKind::Mala, KernelUnit::from_vars(targets.iter().map(|(v, _)| v.as_str())))
        }
        Step::SliceRefl { targets, .. } => (
            UpdateKind::ReflectiveSlice,
            KernelUnit::from_vars(targets.iter().map(|(v, _)| v.as_str())),
        ),
        Step::ESlice { target, .. } => {
            (UpdateKind::EllipticalSlice, KernelUnit::from_vars([target.as_str()]))
        }
        Step::RwMh { targets, .. } => (
            UpdateKind::MetropolisHastings,
            KernelUnit::from_vars(targets.iter().map(|(v, _)| v.as_str())),
        ),
    };
    format!("{} {}", kind.name(), unit)
}

/// Resolves a lowered schedule step against the bound state and the
/// compiled procedure table (a per-shape phase: buffer ids depend on
/// data shapes).
pub(crate) fn compile_step(state: &State, table: &ProcTable, s: &Step) -> CompiledStep {
    let id = |name: &str| state.expect_id(name);
    match s {
        Step::Gibbs { proc_, target } => {
            CompiledStep::Gibbs { proc_: table.index(proc_), target: id(target) }
        }
        Step::Hmc { targets, ll_proc, grad_proc, adj_bufs, nuts } => CompiledStep::Hmc {
            targets: targets
                .iter()
                .zip(adj_bufs)
                .map(|((var, tr), adj)| GradTarget {
                    var: id(var),
                    adj: Some(id(adj)),
                    transform: *tr,
                })
                .collect(),
            ll: table.index(ll_proc),
            grad: table.index(grad_proc),
            nuts: *nuts,
        },
        Step::Mala { targets, ll_proc, grad_proc, adj_bufs } => CompiledStep::Mala {
            targets: targets
                .iter()
                .zip(adj_bufs)
                .map(|((var, tr), adj)| GradTarget {
                    var: id(var),
                    adj: Some(id(adj)),
                    transform: *tr,
                })
                .collect(),
            ll: table.index(ll_proc),
            grad: table.index(grad_proc),
        },
        Step::SliceRefl { targets, ll_proc, grad_proc, adj_bufs } => CompiledStep::SliceRefl {
            targets: targets
                .iter()
                .zip(adj_bufs)
                .map(|((var, tr), adj)| GradTarget {
                    var: id(var),
                    adj: Some(id(adj)),
                    transform: *tr,
                })
                .collect(),
            ll: table.index(ll_proc),
            grad: table.index(grad_proc),
        },
        Step::ESlice {
            target,
            lik_proc,
            prior_sample_proc,
            aux_buf,
            prior_mean_proc,
            mean_buf,
        } => CompiledStep::ESlice {
            target: id(target),
            lik: table.index(lik_proc),
            psamp: table.index(prior_sample_proc),
            pmean: table.index(prior_mean_proc),
            aux: id(aux_buf),
            mean: id(mean_buf),
        },
        Step::RwMh { targets, ll_proc } => CompiledStep::RwMh {
            targets: targets
                .iter()
                .map(|(var, tr)| GradTarget { var: id(var), adj: None, transform: *tr })
                .collect(),
            ll: table.index(ll_proc),
        },
    }
}

/// Source → plan → session in one call: the unit tests' shorthand for
/// `CompiledModel::compile` → `plan` → `session`.
#[cfg(test)]
fn build_session(
    src: &str,
    schedule: Option<&str>,
    args: Vec<HostValue>,
    data: Vec<(&str, HostValue)>,
    config: SessionConfig,
) -> Result<Session, BuildError> {
    let model = CompiledModel::compile(src, schedule)?;
    model.plan(args, data)?.session(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_math::vecops::mean;

    #[test]
    fn numeric_knobs_parse_or_fall_back_when_unset() {
        assert_eq!(parse_knob::<usize>("AUGUR_THREADS", None, 1), 1);
        assert_eq!(parse_knob::<usize>("AUGUR_THREADS", Some(" 8\n"), 1), 8);
        assert_eq!(parse_knob::<usize>("AUGUR_THREADS", Some("0"), 1), 0);
        assert_eq!(parse_knob::<u64>("AUGUR_CKPT_EVERY", None, 100), 100);
        assert_eq!(parse_knob::<u64>("AUGUR_CKPT_EVERY", Some("5"), 100), 5);
    }

    #[test]
    fn malformed_numeric_knobs_panic_naming_variable_and_value() {
        for (name, value) in
            [("AUGUR_THREADS", "8x"), ("AUGUR_THREADS", "-1"), ("AUGUR_CKPT_EVERY", "")]
        {
            let err = std::panic::catch_unwind(|| parse_knob::<u64>(name, Some(value), 1))
                .expect_err("a malformed knob panics");
            let msg = err.downcast_ref::<String>().expect("a formatted panic message");
            assert_eq!(*msg, format!("{name}: cannot parse {value:?}"));
        }
    }

    /// Conjugate Normal–Normal model: the Gibbs chain must match the
    /// analytic posterior.
    #[test]
    fn gibbs_matches_analytic_posterior() {
        let src = "(N, tau2, s2) => {
            param m ~ Normal(0.0, tau2) ;
            data y[n] ~ Normal(m, s2) for n <- 0 until N ;
        }";
        let data = vec![1.2, 0.8, 1.0, 1.4, 0.6];
        let sum: f64 = data.iter().sum();
        let n = data.len() as f64;
        let (tau2, s2) = (4.0, 1.0);
        let (post_mu, post_var) = augur_dist::conjugacy::normal_normal_mean(0.0, tau2, s2, sum, n);
        let mut s = build_session(
            src,
            None,
            vec![HostValue::Int(5), HostValue::Real(tau2), HostValue::Real(s2)],
            vec![("y", HostValue::VecF(data))],
            SessionConfig::default(),
        )
        .unwrap();
        s.init().unwrap();
        let draws: Vec<f64> = (0..6000)
            .map(|_| {
                s.sweep();
                s.param("m").unwrap()[0]
            })
            .collect();
        let m = mean(&draws);
        let v = augur_math::vecops::variance(&draws);
        assert!((m - post_mu).abs() < 0.05, "mean {m} vs {post_mu}");
        assert!((v - post_var).abs() < 0.05, "var {v} vs {post_var}");
    }

    /// Beta–Bernoulli: posterior mean must match (a+k)/(a+b+n).
    #[test]
    fn beta_bernoulli_gibbs() {
        let src = "(N) => {
            param p ~ Beta(2.0, 2.0) ;
            data y[n] ~ Bernoulli(p) for n <- 0 until N ;
        }";
        let data = vec![1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0];
        let k: f64 = data.iter().sum();
        let n = data.len() as f64;
        let expect = (2.0 + k) / (4.0 + n);
        let mut s = build_session(
            src,
            None,
            vec![HostValue::Int(8)],
            vec![("y", HostValue::VecF(data))],
            SessionConfig::default(),
        )
        .unwrap();
        s.init().unwrap();
        let draws: Vec<f64> = (0..6000)
            .map(|_| {
                s.sweep();
                s.param("p").unwrap()[0]
            })
            .collect();
        assert!((mean(&draws) - expect).abs() < 0.02);
    }

    /// HMC on a conjugate model must agree with the analytic posterior.
    #[test]
    fn hmc_matches_analytic_posterior() {
        let src = "(N, tau2, s2) => {
            param m ~ Normal(0.0, tau2) ;
            data y[n] ~ Normal(m, s2) for n <- 0 until N ;
        }";
        let data = vec![1.2, 0.8, 1.0, 1.4, 0.6];
        let sum: f64 = data.iter().sum();
        let (post_mu, post_var) =
            augur_dist::conjugacy::normal_normal_mean(0.0, 4.0, 1.0, sum, 5.0);
        let cfg = SessionConfig {
            mcmc: McmcConfig { step_size: 0.15, leapfrog_steps: 12, ..Default::default() },
            ..Default::default()
        };
        let mut s = build_session(
            src,
            Some("HMC m"),
            vec![HostValue::Int(5), HostValue::Real(4.0), HostValue::Real(1.0)],
            vec![("y", HostValue::VecF(data))],
            cfg,
        )
        .unwrap();
        s.init().unwrap();
        let mut draws = Vec::new();
        for _ in 0..8000 {
            s.sweep();
            draws.push(s.param("m").unwrap()[0]);
        }
        assert!(s.acceptance_rate(0) > 0.6, "acceptance {}", s.acceptance_rate(0));
        let m = mean(&draws);
        let v = augur_math::vecops::variance(&draws);
        assert!((m - post_mu).abs() < 0.06, "mean {m} vs {post_mu}");
        assert!((v - post_var).abs() < 0.07, "var {v} vs {post_var}");
    }

    /// The GMM of Fig. 1 with the Fig. 2 schedule runs end to end and
    /// separates two well-separated clusters.
    #[test]
    fn fig1_gmm_with_fig2_schedule() {
        let src = r#"(K, N, mu_0, Sigma_0, pis, Sigma) => {
            param mu[k] ~ MvNormal(mu_0, Sigma_0) for k <- 0 until K ;
            param z[n] ~ Categorical(pis) for n <- 0 until N ;
            data x[n] ~ MvNormal(mu[z[n]], Sigma) for n <- 0 until N ;
        }"#;
        // two clusters at (-5,-5) and (5,5)
        let mut rows = Vec::new();
        let mut rng = Prng::seed_from_u64(9);
        for i in 0..40 {
            let c = if i % 2 == 0 { -5.0 } else { 5.0 };
            rows.push(vec![c + 0.3 * rng.std_normal(), c + 0.3 * rng.std_normal()]);
        }
        let data = augur_math::FlatRagged::from_rows(rows);
        let mut s = build_session(
            src,
            Some("ESlice mu (*) Gibbs z"),
            vec![
                HostValue::Int(2),
                HostValue::Int(40),
                HostValue::VecF(vec![0.0, 0.0]),
                HostValue::Mat(augur_math::Matrix::identity(2).scale(25.0)),
                HostValue::VecF(vec![0.5, 0.5]),
                HostValue::Mat(augur_math::Matrix::identity(2)),
            ],
            vec![("x", HostValue::Ragged(data))],
            SessionConfig::default(),
        )
        .unwrap();
        s.init().unwrap();
        for _ in 0..150 {
            s.sweep();
        }
        let mu = s.param("mu").unwrap();
        // one mean near -5, the other near +5 (either order)
        let m0 = mu[0];
        let m1 = mu[2];
        let (lo, hi) = if m0 < m1 { (m0, m1) } else { (m1, m0) };
        assert!((lo + 5.0).abs() < 1.0, "lo cluster at {lo}");
        assert!((hi - 5.0).abs() < 1.0, "hi cluster at {hi}");
    }

    /// CPU and GPU targets produce identical chains for the same seed.
    #[test]
    fn cpu_and_gpu_targets_agree_exactly() {
        let src = "(N, tau2, s2) => {
            param m ~ Normal(0.0, tau2) ;
            data y[n] ~ Normal(m, s2) for n <- 0 until N ;
        }";
        let data = vec![1.0, 0.5, -0.5, 0.2];
        let build = |target| {
            build_session(
                src,
                None,
                vec![HostValue::Int(4), HostValue::Real(4.0), HostValue::Real(1.0)],
                vec![("y", HostValue::VecF(data.clone()))],
                SessionConfig { target, ..Default::default() },
            )
            .unwrap()
        };
        let mut cpu = build(Target::Cpu);
        let mut gpu = build(Target::Gpu(DeviceConfig::titan_black_like()));
        cpu.init().unwrap();
        gpu.init().unwrap();
        for _ in 0..50 {
            cpu.sweep();
            gpu.sweep();
            assert_eq!(cpu.param("m").unwrap()[0].to_bits(), gpu.param("m").unwrap()[0].to_bits());
        }
        // but their virtual clocks differ (launch overhead vs sequential)
        assert!(gpu.virtual_secs() > 0.0 && cpu.virtual_secs() > 0.0);
        assert!(gpu.device_counters().launches > 0);
        assert_eq!(cpu.device_counters().launches, 0);
    }

    #[test]
    fn build_error_names_phase() {
        let err = build_session("(((", None, vec![], vec![], SessionConfig::default()).unwrap_err();
        assert!(format!("{err}").starts_with("frontend:"));
    }
}

#[cfg(test)]
mod exactness_tests {
    use super::*;
    use augur_math::vecops::{mean, variance};

    /// ESlice on a conjugate Normal–Normal model must match the analytic
    /// posterior (it needs only likelihood evaluations + the Gaussian
    /// prior, both of which the compiler generated).
    #[test]
    fn eslice_matches_analytic_posterior() {
        let src = "(N, tau2, s2) => {
            param m ~ Normal(1.0, tau2) ;
            data y[n] ~ Normal(m, s2) for n <- 0 until N ;
        }";
        let data = vec![2.2, 1.8, 2.0, 2.4, 1.6];
        let sum: f64 = data.iter().sum();
        let (tau2, s2) = (4.0, 1.0);
        let prec = 1.0 / tau2 + 5.0 / s2;
        let post_var = 1.0 / prec;
        let post_mu = post_var * (1.0 / tau2 + sum / s2);
        let mut s = build_session(
            src,
            Some("ESlice m"),
            vec![HostValue::Int(5), HostValue::Real(tau2), HostValue::Real(s2)],
            vec![("y", HostValue::VecF(data))],
            SessionConfig::default(),
        )
        .unwrap();
        s.init().unwrap();
        let draws: Vec<f64> = (0..8000)
            .map(|_| {
                s.sweep();
                s.param("m").unwrap()[0]
            })
            .collect();
        assert!((mean(&draws) - post_mu).abs() < 0.05, "mean {} vs {post_mu}", mean(&draws));
        assert!(
            (variance(&draws) - post_var).abs() < 0.05,
            "var {} vs {post_var}",
            variance(&draws)
        );
    }

    /// Random-walk MH with the log transform on a positive-support
    /// variable targets the right distribution (Gamma posterior).
    #[test]
    fn mh_log_transform_targets_gamma_posterior() {
        let src = "(N, a, b) => {
            param r ~ Gamma(a, b) ;
            data c[n] ~ Poisson(r) for n <- 0 until N ;
        }";
        let counts = vec![3.0, 5.0, 4.0, 2.0, 6.0, 4.0];
        let sum: f64 = counts.iter().sum();
        let (a, b) = (2.0, 1.0);
        // analytic posterior Gamma(a + Σc, b + n): mean (a+Σc)/(b+n)
        let post_mean = (a + sum) / (b + 6.0);
        let post_var = (a + sum) / ((b + 6.0) * (b + 6.0));
        let cfg = SessionConfig {
            mcmc: crate::mcmc::McmcConfig { mh_step: 0.3, ..Default::default() },
            ..Default::default()
        };
        let mut s = build_session(
            src,
            Some("MH r"),
            vec![HostValue::Int(6), HostValue::Real(a), HostValue::Real(b)],
            vec![("c", HostValue::VecF(counts))],
            cfg,
        )
        .unwrap();
        s.init().unwrap();
        for _ in 0..500 {
            s.sweep(); // burn-in
        }
        let draws: Vec<f64> = (0..20000)
            .map(|_| {
                s.sweep();
                s.param("r").unwrap()[0]
            })
            .collect();
        assert!((mean(&draws) - post_mean).abs() < 0.1, "mean {} vs {post_mean}", mean(&draws));
        assert!(
            (variance(&draws) - post_var).abs() < 0.15,
            "var {} vs {post_var}",
            variance(&draws)
        );
    }

    /// Reflective slice on the same conjugate model.
    #[test]
    fn reflective_slice_matches_analytic_posterior() {
        let src = "(N, tau2, s2) => {
            param m ~ Normal(0.0, tau2) ;
            data y[n] ~ Normal(m, s2) for n <- 0 until N ;
        }";
        let data = vec![1.2, 0.8, 1.0, 1.4, 0.6];
        let sum: f64 = data.iter().sum();
        let (post_mu, post_var) =
            augur_dist::conjugacy::normal_normal_mean(0.0, 4.0, 1.0, sum, 5.0);
        let mut s = build_session(
            src,
            Some("Slice m"),
            vec![HostValue::Int(5), HostValue::Real(4.0), HostValue::Real(1.0)],
            vec![("y", HostValue::VecF(data))],
            SessionConfig::default(),
        )
        .unwrap();
        s.init().unwrap();
        let draws: Vec<f64> = (0..8000)
            .map(|_| {
                s.sweep();
                s.param("m").unwrap()[0]
            })
            .collect();
        assert!((mean(&draws) - post_mu).abs() < 0.06, "mean {}", mean(&draws));
        assert!((variance(&draws) - post_var).abs() < 0.06, "var {}", variance(&draws));
    }

    /// The logit transform: HMC on a Beta–Bernoulli posterior must match
    /// the analytic Beta posterior.
    #[test]
    fn hmc_logit_transform_targets_beta_posterior() {
        let src = "(N) => {
            param p ~ Beta(2.0, 2.0) ;
            data y[n] ~ Bernoulli(p) for n <- 0 until N ;
        }";
        let data = vec![1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0];
        let k: f64 = data.iter().sum();
        let n = data.len() as f64;
        let (a, b) = (2.0 + k, 2.0 + n - k);
        let post_mean = a / (a + b);
        let post_var = a * b / ((a + b) * (a + b) * (a + b + 1.0));
        let cfg = SessionConfig {
            mcmc: crate::mcmc::McmcConfig {
                step_size: 0.25,
                leapfrog_steps: 8,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut s = build_session(
            src,
            Some("HMC p"),
            vec![HostValue::Int(8)],
            vec![("y", HostValue::VecF(data))],
            cfg,
        )
        .unwrap();
        s.init().unwrap();
        for _ in 0..500 {
            s.sweep();
        }
        let draws: Vec<f64> = (0..12000)
            .map(|_| {
                s.sweep();
                s.param("p").unwrap()[0]
            })
            .collect();
        assert!(draws.iter().all(|&p| (0.0..=1.0).contains(&p)));
        assert!((mean(&draws) - post_mean).abs() < 0.02, "mean {} vs {post_mean}", mean(&draws));
        assert!(
            (variance(&draws) - post_var).abs() < 0.01,
            "var {} vs {post_var}",
            variance(&draws)
        );
    }

    /// NUTS prototype on the conjugate model.
    #[test]
    fn nuts_matches_analytic_posterior_mean() {
        let src = "(N, tau2, s2) => {
            param m ~ Normal(0.0, tau2) ;
            data y[n] ~ Normal(m, s2) for n <- 0 until N ;
        }";
        let data = vec![1.2, 0.8, 1.0, 1.4, 0.6];
        let sum: f64 = data.iter().sum();
        let (post_mu, _) = augur_dist::conjugacy::normal_normal_mean(0.0, 4.0, 1.0, sum, 5.0);
        let cfg = SessionConfig {
            mcmc: crate::mcmc::McmcConfig { step_size: 0.2, ..Default::default() },
            ..Default::default()
        };
        let mut s = build_session(
            src,
            Some("NUTS m"),
            vec![HostValue::Int(5), HostValue::Real(4.0), HostValue::Real(1.0)],
            vec![("y", HostValue::VecF(data))],
            cfg,
        )
        .unwrap();
        s.init().unwrap();
        let draws: Vec<f64> = (0..8000)
            .map(|_| {
                s.sweep();
                s.param("m").unwrap()[0]
            })
            .collect();
        assert!((mean(&draws) - post_mu).abs() < 0.08, "mean {}", mean(&draws));
    }
}

#[cfg(test)]
mod proposal_tests {
    use super::*;
    use augur_math::vecops::{mean, variance};

    /// A deliberately asymmetric multiplicative proposal with the correct
    /// Hastings correction: x' = x·e^u, u ~ N(0, s²) ⇒
    /// log q(x'→x) − log q(x→x') = log(x'/x).
    #[derive(Debug)]
    struct LogRandomWalk {
        scale: f64,
    }

    impl crate::mcmc::Proposal for LogRandomWalk {
        fn propose(&mut self, rng: &mut augur_dist::Prng, current: &[f64], out: &mut [f64]) -> f64 {
            let mut correction = 0.0;
            for (o, &x) in out.iter_mut().zip(current) {
                let factor = (self.scale * rng.std_normal()).exp();
                *o = x * factor;
                correction += factor.ln(); // log(x'/x)
            }
            correction
        }
    }

    /// The custom proposal must target the same Gamma posterior as the
    /// conjugate closed form.
    #[test]
    fn custom_proposal_targets_correct_posterior() {
        let src = "(N, a, b) => {
            param r ~ Gamma(a, b) ;
            data c[n] ~ Poisson(r) for n <- 0 until N ;
        }";
        let counts = vec![3.0, 5.0, 4.0, 2.0, 6.0, 4.0];
        let sum: f64 = counts.iter().sum();
        let (a, b) = (2.0, 1.0);
        let post_mean = (a + sum) / (b + 6.0);
        let post_var = (a + sum) / ((b + 6.0) * (b + 6.0));
        let mut s = build_session(
            src,
            Some("MH r"),
            vec![HostValue::Int(6), HostValue::Real(a), HostValue::Real(b)],
            vec![("c", HostValue::VecF(counts))],
            SessionConfig::default(),
        )
        .unwrap();
        s.set_proposal(0, Box::new(LogRandomWalk { scale: 0.25 }));
        s.init().unwrap();
        for _ in 0..500 {
            s.sweep();
        }
        let draws: Vec<f64> = (0..20000)
            .map(|_| {
                s.sweep();
                s.param("r").unwrap()[0]
            })
            .collect();
        assert!((mean(&draws) - post_mean).abs() < 0.1, "mean {}", mean(&draws));
        assert!((variance(&draws) - post_var).abs() < 0.15, "var {}", variance(&draws));
        let rate = s.acceptance_rate(0);
        assert!(rate > 0.3 && rate < 0.99, "acceptance {rate}");
    }

    #[test]
    #[should_panic(expected = "not an MH update")]
    fn proposal_on_non_mh_step_panics() {
        let src = "(N) => {
            param p ~ Beta(1.0, 1.0) ;
            data y[n] ~ Bernoulli(p) for n <- 0 until N ;
        }";
        let mut s = build_session(
            src,
            None,
            vec![HostValue::Int(2)],
            vec![("y", HostValue::VecF(vec![1.0, 0.0]))],
            SessionConfig::default(),
        )
        .unwrap();
        s.set_proposal(0, Box::new(LogRandomWalk { scale: 0.1 }));
    }
}

#[cfg(test)]
mod mala_tests {
    use super::*;
    use augur_math::vecops::{mean, variance};

    /// The new base update (§7.1 extensibility exercise) must target the
    /// same analytic posterior as every other kernel.
    #[test]
    fn mala_matches_analytic_posterior() {
        let src = "(N, tau2, s2) => {
            param m ~ Normal(0.0, tau2) ;
            data y[n] ~ Normal(m, s2) for n <- 0 until N ;
        }";
        let data = vec![1.2, 0.8, 1.0, 1.4, 0.6];
        let sum: f64 = data.iter().sum();
        let (post_mu, post_var) =
            augur_dist::conjugacy::normal_normal_mean(0.0, 4.0, 1.0, sum, 5.0);
        let cfg = SessionConfig {
            mcmc: crate::mcmc::McmcConfig { step_size: 0.35, ..Default::default() },
            ..Default::default()
        };
        let mut s = build_session(
            src,
            Some("MALA m"),
            vec![HostValue::Int(5), HostValue::Real(4.0), HostValue::Real(1.0)],
            vec![("y", HostValue::VecF(data))],
            cfg,
        )
        .unwrap();
        s.init().unwrap();
        for _ in 0..500 {
            s.sweep();
        }
        let draws: Vec<f64> = (0..20000)
            .map(|_| {
                s.sweep();
                s.param("m").unwrap()[0]
            })
            .collect();
        assert!(s.acceptance_rate(0) > 0.5, "acceptance {}", s.acceptance_rate(0));
        assert!((mean(&draws) - post_mu).abs() < 0.05, "mean {} vs {post_mu}", mean(&draws));
        assert!(
            (variance(&draws) - post_var).abs() < 0.05,
            "var {} vs {post_var}",
            variance(&draws)
        );
    }

    /// MALA composes with Gibbs in a schedule, and works through the log
    /// transform on a positive-support variable.
    #[test]
    fn mala_composes_and_transforms() {
        let src = "(N, a, b) => {
            param r ~ Gamma(a, b) ;
            data c[n] ~ Poisson(r) for n <- 0 until N ;
        }";
        let counts = vec![3.0, 5.0, 4.0, 2.0, 6.0, 4.0];
        let sum: f64 = counts.iter().sum();
        let post_mean = (2.0 + sum) / (1.0 + 6.0);
        let cfg = SessionConfig {
            mcmc: crate::mcmc::McmcConfig { step_size: 0.15, ..Default::default() },
            ..Default::default()
        };
        let mut s = build_session(
            src,
            Some("MALA r"),
            vec![HostValue::Int(6), HostValue::Real(2.0), HostValue::Real(1.0)],
            vec![("c", HostValue::VecF(counts))],
            cfg,
        )
        .unwrap();
        s.init().unwrap();
        for _ in 0..500 {
            s.sweep();
        }
        let draws: Vec<f64> = (0..20000)
            .map(|_| {
                s.sweep();
                s.param("r").unwrap()[0]
            })
            .collect();
        assert!((mean(&draws) - post_mean).abs() < 0.1, "mean {} vs {post_mean}", mean(&draws));
        assert!(draws.iter().all(|&r| r > 0.0));
    }
}

#[cfg(test)]
mod reference_integrators;
