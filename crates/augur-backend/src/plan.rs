//! The plan lifecycle: cached compilation and incremental respecialization.
//!
//! The paper's central idea is *runtime* compilation: a kernel is
//! specialized to a (model, schedule, data) triple right before the first
//! sweep (§5.2 binds and allocates everything up front). This module
//! phase-separates that pipeline so the expensive, **shape-generic**
//! phases run once per model and the cheap, **shape-specialized** phases
//! run once per data shape:
//!
//! ```text
//! Model source ──parse/typecheck──► Density IL ──schedule/plan──► Kernel IL
//!        └──────────────── shape-generic: CompiledModel ────────────────┘
//!                                   │ lower (Low--)
//!                                   ▼
//!            per data shape: size inference → Blk optimize → tapes
//!        └──────────── shape-specialized: Plan (cached) ───────────┘
//!                                   │ clone state, seed RNG
//!                                   ▼
//!                     per chain / per run: Session
//! ```
//!
//! * [`CompiledModel`] holds the Density IL and the lowered Low-- program
//!   — everything that depends only on model source and schedule.
//! * [`CompiledModel::plan`] re-runs only the size-dependent phases
//!   (size inference via `build_state`, the Blk optimizer's
//!   commuting/`sumBlk` decisions against the runtime size oracle, and
//!   tape emission) and memoizes the result in a [`PlanCache`] keyed by a
//!   canonical shape fingerprint. Same shape → the cached tapes are
//!   reused verbatim; new shape → only the specialization phases rerun
//!   (a *respecialize*).
//! * [`Plan::session`](crate::Session) binds a [`Session`](crate::Session)
//!   — engine, RNG, trace sink — that executes sweeps against the shared
//!   plan artifact with zero steady-state heap allocation.
//!
//! Cache validity rests on a structural invariant of `build_state`:
//! buffer ids are assigned in a deterministic order (positional args,
//! then data in model-declaration order, then size-inference allocs), so
//! two states with the same shape fingerprint have identical buffer
//! layouts and the compiled tapes/steps transfer between them unchanged.
//! The differential suite (`tests/plan_lifecycle.rs`) checks this by
//! running cache-hit plans over *different data values* of the same
//! shape.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use augur_blk::{optimize, to_blocks, OptFlags, OptReport};
use augur_density::DensityModel;
use augur_kernel::{heuristic_schedule, parse_schedule, plan as kernel_plan};
use augur_low::{lower, LoweredModel};

use crate::compile::{Compiler, ProcTable};
use crate::driver::{
    compile_step, explain_plan_spans, step_label, table_index, BuildError, CompiledStep, Session,
    SessionConfig, UnknownParam,
};
use crate::native::NativeModule;
use crate::oracle::StateOracle;
use crate::profile::{ExplainPlan, MemWatermark, Span};
use crate::setup::build_state;
use crate::state::{BufId, HostValue, State};
use crate::tape::ExecBackend;

/// What the plan cache did for a [`CompiledModel::plan`] request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanEvent {
    /// First specialization of this model — nothing was cached yet.
    Cold,
    /// The shape fingerprint matched a cached artifact; only size
    /// inference (state binding) re-ran.
    Hit,
    /// A new data shape arrived after the first build; the
    /// size-dependent phases re-ran and the artifact joined the cache.
    Respecialize,
}

impl PlanEvent {
    /// Stable lowercase name (used in `explain()` and the JSONL trace).
    pub fn name(self) -> &'static str {
        match self {
            PlanEvent::Cold => "cold",
            PlanEvent::Hit => "hit",
            PlanEvent::Respecialize => "respecialize",
        }
    }
}

/// Consecutive native failures that trip a model's [`NativeBreaker`].
pub const NATIVE_BREAKER_THRESHOLD: u64 = 3;

/// Per-model circuit breaker guarding the native backend.
///
/// Every native compile/`dlopen` outcome for sessions over this model
/// feeds the breaker: a success resets the consecutive-failure count, a
/// failure increments it, and [`NATIVE_BREAKER_THRESHOLD`] consecutive
/// failures *trip* the breaker — subsequent sessions demote straight to
/// the tape without re-probing the toolchain, and the demotion (with the
/// last failure's reason) is reported by [`Plan::backends`],
/// [`Plan::native_demotion`], and the serving layer's metrics/trace.
/// The breaker stays open until [`NativeBreaker::reset`] (there is no
/// half-open probe: native availability is a host property that does not
/// heal on its own, and re-probing per request would stampede `cc`).
#[derive(Debug, Default)]
pub struct NativeBreaker {
    consecutive: AtomicU64,
    trips: AtomicU64,
    reason: Mutex<Option<String>>,
}

impl NativeBreaker {
    /// The reason the breaker is open, or `None` while closed.
    pub fn open_reason(&self) -> Option<String> {
        self.reason.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Whether the breaker has tripped (native demoted to tape).
    pub fn is_open(&self) -> bool {
        self.open_reason().is_some()
    }

    /// Consecutive native failures recorded since the last success.
    pub fn consecutive_failures(&self) -> u64 {
        self.consecutive.load(Ordering::Relaxed)
    }

    /// Times the breaker has tripped over its lifetime.
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Records a successful native build/load. Resets the
    /// consecutive-failure count; does **not** close an open breaker
    /// (reopening is an operator decision via [`NativeBreaker::reset`]).
    pub fn record_success(&self) {
        self.consecutive.store(0, Ordering::Relaxed);
    }

    /// Records a native failure; returns `true` if this call tripped the
    /// breaker open.
    pub fn record_failure(&self, reason: &str) -> bool {
        let n = self.consecutive.fetch_add(1, Ordering::Relaxed) + 1;
        if n < NATIVE_BREAKER_THRESHOLD {
            return false;
        }
        let mut slot = self.reason.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(reason.to_string());
            self.trips.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Closes the breaker and clears the failure count, letting the next
    /// session probe native again.
    pub fn reset(&self) {
        self.consecutive.store(0, Ordering::Relaxed);
        *self.reason.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

/// Counters describing a [`PlanCache`]'s history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Requests served from the cache (shape already specialized).
    pub hits: u64,
    /// Requests that had to build an artifact (cold + respecialize).
    pub misses: u64,
    /// Misses after the first — i.e. new shapes that re-specialized an
    /// already-built model.
    pub respecializes: u64,
    /// Distinct shape fingerprints currently cached.
    pub entries: u64,
    /// Native artifacts built (emit + cc + dlopen, or a recorded failure)
    /// across all cached plans.
    pub native_builds: u64,
    /// Native-module requests served from an artifact's memoized module.
    pub native_hits: u64,
}

/// Memoizes shape-specialized plan artifacts, keyed by the canonical
/// data-shape fingerprint.
///
/// Safe and efficient under concurrent access (the serving layer shares
/// one cache across worker threads): the map lock is held only for the
/// fingerprint lookup, never across specialization. Each fingerprint
/// maps to a once-initialized cell, so N workers racing to plan the
/// same shape build the artifact exactly once (`misses == 1`, everyone
/// else blocks on the cell and records a hit), while *different* shapes
/// specialize genuinely in parallel.
#[derive(Debug, Default)]
struct PlanCache {
    entries: HashMap<u64, Arc<OnceLock<Arc<PlanArtifact>>>>,
    hits: u64,
    misses: u64,
    respecializes: u64,
}

impl PlanCache {
    fn stats(&self) -> PlanCacheStats {
        let (native_builds, native_hits) =
            self.entries.values().filter_map(|c| c.get()).fold((0, 0), |(b, h), a| {
                (
                    b + a.native_builds.load(Ordering::Relaxed),
                    h + a.native_hits.load(Ordering::Relaxed),
                )
            });
        PlanCacheStats {
            hits: self.hits,
            misses: self.misses,
            respecializes: self.respecializes,
            // Count only *built* artifacts: a cell exists from the moment
            // a planner claims a fingerprint, but joins the entry count
            // once its artifact is in place.
            entries: self.entries.values().filter(|c| c.get().is_some()).count() as u64,
            native_builds,
            native_hits,
        }
    }
}

/// The shape-specialized compilation product: everything a [`Session`]
/// shares and never mutates. Stored behind `Arc` so cache hits and
/// multi-chain fan-out reuse the tapes without copying them.
#[derive(Debug)]
pub(crate) struct PlanArtifact {
    /// Compiled procedures (CPU trees + tapes, GPU blocks).
    pub(crate) table: Arc<ProcTable>,
    /// The sweep's schedule steps, resolved to procedure indices.
    pub(crate) steps: Arc<Vec<CompiledStep>>,
    /// Blk-IL optimizer outcome (aggregated).
    pub(crate) opt_report: OptReport,
    /// The optimizer's per-procedure explain span.
    pub(crate) blk_span: Span,
    /// The tape optimizer's per-procedure decisions, for explain.
    pub(crate) tape_span: Span,
    /// Wall seconds the specialization phases took (explain only).
    pub(crate) codegen_secs: f64,
    /// Index of the ancestral-sampling initializer.
    pub(crate) init_idx: usize,
    /// Index of the model log-joint procedure.
    pub(crate) model_ll_idx: usize,
    /// Lazily-built native module (or the recorded reason it cannot
    /// build), memoized next to the tapes so every session over this
    /// shape shares one `dlopen`'ed artifact and a missing toolchain is
    /// probed exactly once.
    pub(crate) native: OnceLock<Result<Arc<NativeModule>, String>>,
    /// Times the native cell was populated (emit + compile + load, or a
    /// recorded failure).
    pub(crate) native_builds: AtomicU64,
    /// Times a memoized native module (or failure) was served.
    pub(crate) native_hits: AtomicU64,
}

/// A shape-generic compiled model: the frontend + middle-end result
/// (parse, typecheck, Density IL conditional rewrites, Kernel IL
/// schedule, Low-- lowering), which depends only on model source and
/// schedule — not on data sizes.
///
/// Produce one with [`CompiledModel::compile`] (or via the `augur`
/// facade's `Model::compile`), then specialize it to data with
/// [`CompiledModel::plan`]. The model carries its own [`PlanCache`]:
/// planning the same data shape twice reuses the compiled tapes and only
/// re-binds the state.
#[derive(Debug)]
pub struct CompiledModel {
    /// Identity of the shape-generic phases (hash of source + schedule).
    base_fp: u64,
    dm: DensityModel,
    lowered: Arc<LoweredModel>,
    /// Frontend/density/kernel/lowering explain spans, recorded when the
    /// shape-generic phases ran (cloned into every plan's explain).
    front: Vec<Span>,
    param_names: Vec<String>,
    labels: Arc<Vec<String>>,
    cache: Mutex<PlanCache>,
    breaker: Arc<NativeBreaker>,
}

impl CompiledModel {
    /// Runs the shape-generic phases: parse, typecheck, Density IL
    /// construction (with conditional rewrites), schedule validation
    /// (user schedule when given, else the heuristic), and Low--
    /// lowering.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] naming the failing phase.
    pub fn compile(src: &str, schedule: Option<&str>) -> Result<CompiledModel, BuildError> {
        let t0 = Instant::now();
        let model = augur_lang::parse(src)?;
        let typed = augur_lang::typecheck(&model)?;
        let mut frontend = Span::timed("frontend", t0.elapsed().as_secs_f64());
        frontend.attr("model", typed.summary());
        let t0 = Instant::now();
        let dm = DensityModel::from_typed(&typed)?;
        let density_secs = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let sched = match schedule {
            Some(s) => parse_schedule(s)?,
            None => heuristic_schedule(&dm)?,
        };
        let kp = kernel_plan(&dm, &sched)?;
        let (mut density, mut kernel) = explain_plan_spans(&kp);
        density.wall_secs = density_secs;
        kernel.wall_secs = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let lowered = lower(&dm, &kp)?;
        let lowering = Span::timed("lowering", t0.elapsed().as_secs_f64());
        let mut base = Fnv::new();
        base.bytes(src.as_bytes());
        base.bytes(schedule.unwrap_or("<heuristic>").as_bytes());
        Ok(CompiledModel::assemble(base, dm, lowered, vec![frontend, density, kernel, lowering]))
    }

    /// Wraps an already-lowered model (used by the `augur` facade's
    /// pipeline API, which runs the frontend itself to expose
    /// intermediate representations). `front` carries any caller-timed
    /// explain spans to prepend; see
    /// [`explain_plan_spans`](crate::driver::explain_plan_spans).
    pub fn from_parts(dm: DensityModel, lowered: LoweredModel, front: Vec<Span>) -> CompiledModel {
        // No source text here, so derive the shape-generic identity from
        // stable facts of the lowering: the schedule labels and the
        // parameter names. (Deliberately NOT a Debug hash of the
        // DensityModel — HashMap iteration order would make it
        // nondeterministic across runs.)
        let mut base = Fnv::new();
        for s in &lowered.steps {
            base.bytes(step_label(s).as_bytes());
        }
        for p in dm.params() {
            base.bytes(p.name.as_bytes());
        }
        CompiledModel::assemble(base, dm, lowered, front)
    }

    fn assemble(
        base: Fnv,
        dm: DensityModel,
        lowered: LoweredModel,
        front: Vec<Span>,
    ) -> CompiledModel {
        let labels: Vec<String> = lowered.steps.iter().map(step_label).collect();
        let param_names = dm.params().map(|p| p.name.clone()).collect();
        CompiledModel {
            base_fp: base.finish(),
            dm,
            lowered: Arc::new(lowered),
            front,
            param_names,
            labels: Arc::new(labels),
            cache: Mutex::new(PlanCache::default()),
            breaker: Arc::new(NativeBreaker::default()),
        }
    }

    /// This model's native circuit breaker (shared by every plan and
    /// session specialized from it).
    pub fn native_breaker(&self) -> &Arc<NativeBreaker> {
        &self.breaker
    }

    /// Specializes the model to concrete data, reusing a cached artifact
    /// when the data *shape* has been seen before (default optimization
    /// flags; see [`CompiledModel::plan_opt`]).
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for binding/allocation problems.
    pub fn plan(
        &self,
        args: Vec<HostValue>,
        data: Vec<(&str, HostValue)>,
    ) -> Result<Plan, BuildError> {
        self.plan_opt(args, data, OptFlags::default())
    }

    /// [`CompiledModel::plan`] with explicit Blk-IL optimization flags.
    /// The flags participate in the cache key: the optimizer's
    /// commuting/`sumBlk` decisions depend on them.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for binding/allocation problems.
    pub fn plan_opt(
        &self,
        args: Vec<HostValue>,
        data: Vec<(&str, HostValue)>,
        opt_flags: OptFlags,
    ) -> Result<Plan, BuildError> {
        let data: Vec<(String, HostValue)> =
            data.into_iter().map(|(n, v)| (n.to_owned(), v)).collect();
        let fp = self.fingerprint(&args, &data, &opt_flags);

        // Size inference / state binding always runs: it is what turns
        // host values into the bound, allocated state (§5.2), and every
        // plan needs its own pristine copy of the data.
        let t0 = Instant::now();
        let state = build_state(&self.dm, &self.lowered, args, data)?;
        let setup_secs = t0.elapsed().as_secs_f64();

        // Claim the fingerprint's cell under the map lock, then build (if
        // first) *outside* it: concurrent planners of different shapes
        // specialize in parallel, and same-shape racers serialize on the
        // cell so the artifact is built exactly once.
        let cell = {
            let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(cache.entries.entry(fp).or_insert_with(|| Arc::new(OnceLock::new())))
        };
        let mut built = false;
        let artifact = Arc::clone(cell.get_or_init(|| {
            built = true;
            Arc::new(build_artifact(&self.lowered, &state, &opt_flags))
        }));
        let (event, stats) = {
            let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
            let event = if built {
                let event = if cache.misses == 0 {
                    PlanEvent::Cold
                } else {
                    cache.respecializes += 1;
                    PlanEvent::Respecialize
                };
                cache.misses += 1;
                event
            } else {
                cache.hits += 1;
                PlanEvent::Hit
            };
            (event, cache.stats())
        };

        let mem = watermark(&artifact.table, &state);
        let explain = assemble_explain(
            &self.front,
            &self.lowered,
            &state,
            &artifact,
            mem,
            setup_secs,
            event,
            stats,
            self.breaker.open_reason(),
        );
        Ok(Plan {
            artifact,
            state,
            lowered: Arc::clone(&self.lowered),
            param_names: self.param_names.clone(),
            labels: Arc::clone(&self.labels),
            explain,
            mem,
            event,
            fingerprint: fp,
            stats,
            breaker: Arc::clone(&self.breaker),
        })
    }

    /// Cache counters so far (hits, misses, respecializes, entries).
    pub fn cache_stats(&self) -> PlanCacheStats {
        self.cache.lock().unwrap_or_else(|e| e.into_inner()).stats()
    }

    /// The Density IL this model compiled to (facade diagnostics).
    pub fn density_model(&self) -> &DensityModel {
        &self.dm
    }

    /// The lowered Low-- program (facade diagnostics / codegen).
    pub fn lowered(&self) -> &LoweredModel {
        &self.lowered
    }

    /// Schedule step labels, in sweep order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// The canonical shape fingerprint `plan` would use for this binding
    /// — exposed for tests and cache diagnostics.
    pub fn shape_fingerprint(
        &self,
        args: &[HostValue],
        data: &[(String, HostValue)],
        opt_flags: &OptFlags,
    ) -> u64 {
        self.fingerprint(args, data, opt_flags)
    }

    /// Canonical `DataShape` fingerprint: shape-generic identity
    /// (model + schedule), optimizer flags, and the *shape* of every
    /// bound value. Value payloads stay out of the key except where they
    /// determine buffer sizes (integer scalars and integer vectors feed
    /// size inference — e.g. LDA's per-document lengths).
    fn fingerprint(
        &self,
        args: &[HostValue],
        data: &[(String, HostValue)],
        opt_flags: &OptFlags,
    ) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.base_fp);
        h.bytes(format!("{opt_flags:?}").as_bytes());
        h.usize(args.len());
        for v in args {
            hash_shape(&mut h, v);
        }
        h.usize(data.len());
        for (name, v) in data {
            h.bytes(name.as_bytes());
            hash_shape(&mut h, v);
        }
        h.finish()
    }
}

/// Canonical shape encoding of one bound host value. Real-valued
/// payloads are excluded (two datasets of the same shape share a plan);
/// integer payloads are included because size inference consumes them.
fn hash_shape(h: &mut Fnv, v: &HostValue) {
    match v {
        HostValue::Int(i) => {
            h.u8(0);
            h.u64(*i as u64);
        }
        HostValue::Real(_) => h.u8(1),
        HostValue::VecF(xs) => {
            h.u8(2);
            h.usize(xs.len());
        }
        HostValue::VecI(xs) => {
            h.u8(3);
            h.usize(xs.len());
            for x in xs {
                h.u64(*x as u64);
            }
        }
        HostValue::Mat(m) => {
            h.u8(4);
            h.usize(m.rows());
            h.usize(m.cols());
        }
        HostValue::Ragged(r) => {
            h.u8(5);
            h.usize(r.num_rows());
            for i in 0..r.num_rows() {
                h.usize(r.row_len(i));
            }
        }
        HostValue::RaggedI(rows) => {
            h.u8(6);
            h.usize(rows.len());
            for row in rows {
                h.usize(row.len());
            }
        }
        HostValue::VecMat(ms) => {
            h.u8(7);
            h.usize(ms.len());
            for m in ms {
                h.usize(m.rows());
                h.usize(m.cols());
            }
        }
    }
}

/// Runs the size-dependent phases against a freshly bound state:
/// per-procedure tree compilation, Blk translation + optimization
/// (commuting/`sumBlk` against the runtime size oracle), tape emission,
/// and schedule-step resolution.
fn build_artifact(lowered: &LoweredModel, state: &State, opt_flags: &OptFlags) -> PlanArtifact {
    let t0 = Instant::now();
    let mut table = ProcTable::default();
    let mut opt_report = OptReport::default();
    let mut blk_span = Span::new("blk");
    for p in &lowered.procs {
        let cpu = Compiler::new(state).proc(p);
        let mut blk = to_blocks(p);
        let r = optimize(&mut blk, &StateOracle::new(state), opt_flags);
        if !r.is_noop() {
            blk_span.attr(&p.name, r.describe());
        }
        opt_report += r;
        let gpu = Compiler::new(state).blk_proc(&blk);
        table.insert(cpu, gpu, state);
    }
    blk_span.attr("total", opt_report.describe());
    let mut tape_span = Span::new("tape");
    let counts = |[h, e, s, f, l]: [usize; 5]| {
        format!("hoisted={h} expanded={e} inlined_samples={s} fused_weights={f} scatter_loops={l}")
    };
    let mut total = [0; 5];
    for p in &table.tapes {
        let summary = crate::tape_opt::summary(&p.tape, state);
        if summary != [0; 5] {
            tape_span.attr(&p.name, counts(summary));
        }
        total.iter_mut().zip(summary).for_each(|(t, x)| *t += x);
    }
    tape_span.attr("total", counts(total));
    let steps: Vec<CompiledStep> =
        lowered.steps.iter().map(|s| compile_step(state, &table, s)).collect();
    let init_idx = table_index(&table, &lowered.init_proc);
    let model_ll_idx = table_index(&table, &lowered.model_ll_proc);
    PlanArtifact {
        table: Arc::new(table),
        steps: Arc::new(steps),
        opt_report,
        blk_span,
        tape_span,
        codegen_secs: t0.elapsed().as_secs_f64(),
        init_idx,
        model_ll_idx,
        native: OnceLock::new(),
        native_builds: AtomicU64::new(0),
        native_hits: AtomicU64::new(0),
    }
}

/// Static memory watermark: bytes size inference bound up front versus
/// bytes the compiled procedures statically reference.
fn watermark(table: &ProcTable, state: &State) -> MemWatermark {
    let bound_bytes = state.total_cells() as u64 * 8;
    let touched: std::collections::HashSet<BufId> =
        table.buf_refs.iter().flatten().copied().collect();
    let touched_bytes: u64 = touched.iter().map(|id| state.flat(*id).len() as u64 * 8).sum();
    MemWatermark { bound_bytes, touched_bytes }
}

#[allow(clippy::too_many_arguments)]
fn assemble_explain(
    front: &[Span],
    lowered: &LoweredModel,
    state: &State,
    artifact: &PlanArtifact,
    mem: MemWatermark,
    setup_secs: f64,
    event: PlanEvent,
    stats: PlanCacheStats,
    demotion: Option<String>,
) -> ExplainPlan {
    let mut explain = ExplainPlan { root: Span::new("explain") };
    for s in front {
        explain.root.child(s.clone());
    }
    let mut size_span = Span::new("size-inference");
    for a in &lowered.allocs {
        let bytes = state.id(&a.name).map(|id| state.flat(id).len() as u64 * 8).unwrap_or(0);
        let kind = match a.kind {
            augur_low::shape::AllocKind::Shared => "",
            augur_low::shape::AllocKind::ThreadLocal => " (thread-local)",
        };
        size_span.attr(&a.name, format!("{} = {bytes} bytes{kind}", a.shape.pretty()));
    }
    size_span.attr("bound", format!("{} bytes (all buffers)", mem.bound_bytes));
    size_span.attr("touched", format!("{} bytes (statically referenced)", mem.touched_bytes));
    explain.root.child(size_span);
    let mut ad_span = Span::new("autodiff");
    ad_span.attr("procs", lowered.procs.len().to_string());
    let adjoints: Vec<&str> =
        lowered.allocs.iter().map(|a| a.name.as_str()).filter(|n| n.contains("_adj_")).collect();
    ad_span.attr(
        "grad_procs",
        (lowered.procs.iter())
            .filter(|p| p.body.written_vars().iter().any(|v| adjoints.contains(v)))
            .count()
            .to_string(),
    );
    ad_span.attr("adjoint_buffers", adjoints.len().to_string());
    explain.root.child(ad_span);
    let mut codegen = Span::timed("codegen", setup_secs + artifact.codegen_secs);
    codegen.attr("procs", artifact.table.procs.len().to_string());
    codegen.child(artifact.blk_span.clone());
    codegen.child(artifact.tape_span.clone());
    explain.root.child(codegen);
    // The cache's verdict for THIS plan request. The fingerprint itself
    // is deliberately absent from the render (golden explain files stay
    // stable); it is carried on the JSONL trace's plan record instead.
    let mut cache_span = Span::new("plan-cache");
    cache_span.attr("event", event.name());
    cache_span.attr("hits", stats.hits.to_string());
    cache_span.attr("misses", stats.misses.to_string());
    cache_span.attr("respecializes", stats.respecializes.to_string());
    cache_span.attr("entries", stats.entries.to_string());
    cache_span.attr("native_builds", stats.native_builds.to_string());
    cache_span.attr("native_hits", stats.native_hits.to_string());
    // Only present while demoted, so golden explain renders on healthy
    // hosts stay byte-stable.
    if let Some(reason) = demotion {
        cache_span.attr("native_breaker", format!("open: {reason}"));
    }
    explain.root.child(cache_span);
    explain
}

/// A shape-specialized plan: compiled tapes + a pristine, data-bound
/// state. Cheap to produce on a cache hit (only state binding re-runs)
/// and cheap to fan out — [`Plan::session`] copies the state's cell
/// arena and shares the bound data and the tapes by reference, so N
/// chains cost one compile and one copy of the data.
#[derive(Debug)]
pub struct Plan {
    pub(crate) artifact: Arc<PlanArtifact>,
    pub(crate) state: State,
    pub(crate) lowered: Arc<LoweredModel>,
    pub(crate) param_names: Vec<String>,
    pub(crate) labels: Arc<Vec<String>>,
    pub(crate) explain: ExplainPlan,
    pub(crate) mem: MemWatermark,
    pub(crate) event: PlanEvent,
    pub(crate) fingerprint: u64,
    pub(crate) stats: PlanCacheStats,
    pub(crate) breaker: Arc<NativeBreaker>,
}

impl Plan {
    /// Binds an executable [`Session`]: engine, RNG seeded from
    /// `config.seed`, trace sink, checkpointing. Many sessions can share
    /// one plan — each gets its own cell arena and reads the plan's
    /// bound data.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if the trace sink cannot be created.
    pub fn session(&self, config: SessionConfig) -> Result<Session, BuildError> {
        Session::from_plan(self, config)
    }

    /// The compile-time explain plan: frontend spans (when the plan came
    /// from [`CompiledModel::compile`]), size inference, autodiff,
    /// codegen, and the plan-cache verdict.
    pub fn explain(&self) -> &ExplainPlan {
        &self.explain
    }

    /// What the plan cache did for this request.
    pub fn cache_event(&self) -> PlanEvent {
        self.event
    }

    /// The canonical shape fingerprint this plan is keyed by.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Cache counters at the time this plan was produced.
    pub fn cache_stats(&self) -> PlanCacheStats {
        self.stats
    }

    /// Schedule step labels, in sweep order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// The schedule rendered as the checkpoint header does.
    pub fn schedule(&self) -> String {
        self.labels.join(" (*) ")
    }

    /// Parameter names, in model order.
    pub fn param_names(&self) -> &[String] {
        &self.param_names
    }

    /// Checks names to record against this plan's buffers — the check
    /// [`Session::sample`] makes, without binding a session.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownParam`] for the first name no buffer has.
    pub fn check_record(&self, record: &[String]) -> Result<(), UnknownParam> {
        match record.iter().find(|name| self.state.id(name).is_none()) {
            Some(name) => Err(UnknownParam { name: name.clone() }),
            None => Ok(()),
        }
    }

    /// Aggregated Blk-IL optimizer outcome for this plan's procedures.
    pub fn opt_report(&self) -> OptReport {
        self.artifact.opt_report
    }

    /// Static memory watermark for this plan's state.
    pub fn mem_watermark(&self) -> MemWatermark {
        self.mem
    }

    /// The owning model's native circuit breaker.
    pub fn native_breaker(&self) -> &Arc<NativeBreaker> {
        &self.breaker
    }

    /// Why this plan's model is demoted Native→Tape, or `None` while
    /// the breaker is closed.
    pub fn native_demotion(&self) -> Option<String> {
        self.breaker.open_reason()
    }

    /// The native module for this plan, built (emit → host `cc` →
    /// `dlopen`) on first request and memoized in the plan cache next to
    /// the tapes — every later session over this shape reuses the loaded
    /// artifact, and a failure (no toolchain, a compile error) is probed
    /// once and replayed as the recorded fallback reason.
    ///
    /// # Errors
    ///
    /// Returns the human-readable reason the native backend is
    /// unavailable for this plan; sessions record it and fall back to
    /// the tape.
    pub fn native_module(&self) -> Result<Arc<NativeModule>, String> {
        let mut built = false;
        let res = self.artifact.native.get_or_init(|| {
            built = true;
            crate::native::build_native(&self.artifact.table, &self.state).map(Arc::new)
        });
        if built {
            self.artifact.native_builds.fetch_add(1, Ordering::Relaxed);
        } else {
            self.artifact.native_hits.fetch_add(1, Ordering::Relaxed);
        }
        res.clone()
    }

    /// Host availability of every execution backend for this plan:
    /// `Tree` and `Tape` are always runnable; `Native` reports the
    /// disk-cached artifact or the toolchain probe (or the feature
    /// gate) without compiling anything — a cached `.so` makes `Native`
    /// selectable even on a host with no C compiler. The artifact is
    /// found by emitting the plan's C (no compiler needed) and hashing
    /// it, exactly as [`Plan::native_module`] names it.
    pub fn backends(&self) -> Vec<BackendAvailability> {
        let (native_ok, native_detail) = if let Some(reason) = self.breaker.open_reason() {
            (false, format!("circuit breaker open: {reason}"))
        } else if !cfg!(feature = "native") {
            (false, "built without the `native` feature".to_string())
        } else if let Err(reason) = crate::native::jit::cache_dir_usable() {
            (false, reason)
        } else if let Some(so) = crate::native::jit::cached_artifact(
            &crate::native::emit::emit_module(&self.artifact.table, &self.state),
        ) {
            (true, format!("cached artifact: {}", so.display()))
        } else {
            match crate::native::jit::find_cc() {
                Ok(cc) => (true, format!("toolchain: {cc}")),
                Err(e) => (false, e),
            }
        };
        vec![
            BackendAvailability {
                backend: ExecBackend::Tree,
                available: true,
                detail: "reference tree-walking interpreter".to_string(),
            },
            BackendAvailability {
                backend: ExecBackend::Tape,
                available: true,
                detail: "flat register-machine tape".to_string(),
            },
            BackendAvailability {
                backend: ExecBackend::Native,
                available: native_ok,
                detail: native_detail,
            },
        ]
    }
}

/// Host availability of one execution backend (see [`Plan::backends`]).
#[derive(Debug, Clone)]
pub struct BackendAvailability {
    /// The backend this row describes.
    pub backend: ExecBackend,
    /// Whether a session can select it on this host right now.
    pub available: bool,
    /// Human-readable detail: which toolchain was found, or why the
    /// backend would fall back.
    pub detail: String,
}

// The serving layer shares one registry of compiled models — and the
// plans specialized from them — across worker threads; pin that
// capability at compile time so a refactor cannot silently lose it.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledModel>();
    assert_send_sync::<Plan>();
};

/// 64-bit FNV-1a, the workspace's canonical dependency-free hash.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u8(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.u8(b);
        }
        // Length-prefix-free framing: a terminator byte keeps
        // ("ab","c") distinct from ("a","bc").
        self.u8(0xff);
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.u8(b);
        }
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_trips_after_threshold_and_holds_until_reset() {
        let b = NativeBreaker::default();
        for i in 1..NATIVE_BREAKER_THRESHOLD {
            assert!(!b.record_failure("cc: not found"), "tripped early at {i}");
            assert!(!b.is_open());
        }
        assert!(b.record_failure("cc: not found"), "did not trip at threshold");
        assert_eq!(b.open_reason().as_deref(), Some("cc: not found"));
        assert_eq!(b.trips(), 1);
        // Further failures keep it open without re-tripping; a success
        // clears the count but does not close an open breaker.
        assert!(!b.record_failure("still broken"));
        b.record_success();
        assert!(b.is_open());
        assert_eq!(b.trips(), 1);
        b.reset();
        assert!(!b.is_open());
        assert_eq!(b.consecutive_failures(), 0);
    }

    #[test]
    fn breaker_success_resets_the_failure_streak() {
        let b = NativeBreaker::default();
        for _ in 1..NATIVE_BREAKER_THRESHOLD {
            b.record_failure("flaky");
        }
        b.record_success();
        // The streak restarts: threshold-1 more failures still don't trip.
        for _ in 1..NATIVE_BREAKER_THRESHOLD {
            assert!(!b.record_failure("flaky"));
        }
        assert!(!b.is_open());
    }
}
