//! The execution engine: a fast tree-walking interpreter over the
//! slot-resolved IL, with CPU and simulated-GPU targets.
//!
//! Both targets run the *same* resolved statements, so results agree
//! exactly for a fixed RNG seed; they differ in how virtual time is
//! charged. The CPU target charges sequential work; the GPU target runs
//! Blk-IL blocks, charging one kernel launch per `parBlk`, throughput-
//! limited compute, atomic-contention serialization for `AtmPar`
//! increments, and tree reductions for `sumBlk`s (see `gpu-sim`).

use augur_dist::{DistKind, Prng, ValueMut, ValueRef};
use augur_lang::ast::{BinOp, Builtin};
use augur_low::il::{AssignOp, LoopKind, OpN};
use augur_math::{Cholesky, Matrix, PoolVec};
use gpu_sim::Device;

use crate::compile::{ProcTable, RBlk, RExpr, RLValue, RRef, RStmt};
use crate::state::{BufId, RowElem, Shape, State};
use crate::tape::ExecBackend;

/// Which execution target the engine charges time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Sequential host execution of Low-- code.
    Cpu,
    /// Blk-IL execution on the simulated device.
    Gpu,
}

/// A lazily-resolved value: views carry buffer coordinates, not borrows,
/// so the engine can hold them across mutation points.
#[derive(Debug, Clone)]
pub enum View {
    /// A scalar.
    Num(f64),
    /// A vector region of a buffer.
    Slice {
        /// Buffer.
        buf: BufId,
        /// Start cell.
        start: usize,
        /// Length.
        len: usize,
    },
    /// A matrix region of a buffer.
    MatV {
        /// Buffer.
        buf: BufId,
        /// Start cell.
        start: usize,
        /// Dimension.
        dim: usize,
    },
    /// A whole `Rows` buffer (only indexable).
    Rows {
        /// Buffer.
        buf: BufId,
    },
    /// An owned vector (result of a functional primitive), pooled so the
    /// storage recycles instead of hitting the heap each evaluation.
    Own(PoolVec),
    /// An owned matrix (pooled).
    OwnMat(PoolVec, usize),
}

/// An owned value ready to be written.
#[derive(Debug, Clone)]
pub(crate) enum OwnVal {
    Num(f64),
    VecD(PoolVec),
}

/// One state mutation recorded by a worker engine during a parallel
/// launch. The main thread replays worker logs in chunk order — which is
/// exactly sequential iteration order — so floating-point accumulation
/// order (and therefore every bit of the result) matches single-threaded
/// execution. Thread-local scratch buffers are not logged.
#[derive(Debug, Clone)]
pub(crate) enum WriteOp {
    /// A scalar cell write (`Set`) or increment (`Inc` carries the delta).
    Cell { buf: BufId, idx: usize, op: AssignOp, val: f64 },
    /// A scalar broadcast over a range (always `Set`).
    Fill { buf: BufId, start: usize, len: usize, val: f64 },
    /// A vector write; `Inc` carries the per-cell deltas.
    Slice { buf: BufId, start: usize, op: AssignOp, vals: PoolVec },
}

/// An owned distribution argument.
#[derive(Debug, Clone)]
pub(crate) enum OwnArg {
    Num(f64),
    VecD(PoolVec),
    MatD(PoolVec, usize),
}

impl OwnArg {
    pub(crate) fn as_ref(&self) -> ValueRef<'_> {
        match self {
            OwnArg::Num(x) => ValueRef::Scalar(*x),
            OwnArg::VecD(v) => ValueRef::Vector(v),
            OwnArg::MatD(m, d) => ValueRef::Matrix { data: m, dim: *d },
        }
    }
}

/// The interpreter.
#[derive(Debug)]
pub struct Engine {
    /// The runtime store.
    pub state: State,
    /// The RNG driving every sampler.
    pub rng: Prng,
    /// The (virtual) device time is charged to.
    pub device: Device,
    /// Execution target.
    pub mode: ExecMode,
    /// Execution backend: flat compiled tape (default), the recursive
    /// tree-walker reference oracle, or dlopen'ed native code. All
    /// produce bit-identical traces.
    pub backend: ExecBackend,
    /// The dlopen'ed native module when `backend == Native` and the
    /// plan's C artifact built; every CPU procedure then runs through it.
    pub(crate) native: Option<std::sync::Arc<crate::native::NativeModule>>,
    /// Recycled buffer-pointer table handed to native procedures.
    pub(crate) native_bufs: crate::native::BufTable,
    /// Master RNG saved across a native parallel region (the native
    /// analogue of the tree-walker's stack-local `master` clone).
    pub(crate) native_master_rng: Option<Prng>,
    pub(crate) env: Vec<i64>,
    pub(crate) work: u64,
    pub(crate) atomics: Vec<u64>,
    pub(crate) record_atomics: bool,
    /// Seed from which per-thread streams are derived.
    pub(crate) master_seed: u64,
    /// Kernel-launch ordinal — the per-thread stream key.
    pub(crate) launch_counter: u64,
    /// True while executing inside a parallel region (nested loops then
    /// run on the enclosing thread's stream).
    pub(crate) in_parallel: bool,
    /// Reusable scalar register bank for the tape VM.
    pub(crate) tape_fregs: Vec<f64>,
    /// Reusable view register bank for the tape VM.
    pub(crate) tape_vregs: Vec<View>,
    /// Reusable scratch cells for the tape's invariant log-density
    /// vectors (`TInstr::LlFill`).
    pub(crate) tape_scratch: Vec<f64>,
    /// Recycled loop-frame stack for tape execution (allocation-free
    /// steady state).
    pub(crate) tape_frames: Vec<crate::tape::TapeFrame>,
    /// Covariance factors of the tape's `MvNormal` densities, reused while
    /// the covariance cells are unchanged (the tree-walker refactors).
    pub(crate) factors: crate::factor_memo::FactorMemo,
    /// Worker-thread count for parallel tape execution (1 = sequential).
    pub(crate) threads: usize,
    /// The persistent worker pool, created lazily on first dispatch.
    pub(crate) pool: Option<crate::par::Pool>,
    /// Present on worker engines: every state mutation is recorded here
    /// for ordered replay on the main thread.
    pub(crate) write_log: Option<Vec<WriteOp>>,
    /// Execution counters (proc calls, tape instructions, parallel
    /// dispatches); worker counters merge in chunk order.
    pub(crate) metrics: crate::metrics::EngineMetrics,
    /// When set, the tape VM additionally buckets retired instructions
    /// by op class (`EngineMetrics::op_class`) for the phase profiler.
    /// Set from `SessionConfig::timers`.
    pub(crate) profile_ops: bool,
    /// Deterministic fault-injection plan (drills only; `None` in
    /// production runs).
    pub(crate) fault: Option<crate::fault::FaultPlan>,
    /// The 1-based sweep index faults key on (set by the driver).
    pub(crate) fault_sweep: u64,
}

impl Engine {
    /// Creates an engine over a populated state.
    pub fn new(state: State, rng: Prng, device: Device, mode: ExecMode) -> Self {
        let master_seed = {
            // derive a stable stream key from the supplied generator
            let mut probe = rng.clone();
            (probe.uniform() * u64::MAX as f64) as u64
        };
        Engine {
            state,
            rng,
            device,
            mode,
            backend: ExecBackend::default(),
            native: None,
            native_bufs: Default::default(),
            native_master_rng: None,
            env: Vec::new(),
            work: 0,
            atomics: Vec::new(),
            record_atomics: false,
            master_seed,
            launch_counter: 0,
            in_parallel: false,
            tape_fregs: Vec::new(),
            tape_vregs: Vec::new(),
            tape_scratch: Vec::new(),
            tape_frames: Vec::new(),
            factors: Default::default(),
            threads: 1,
            pool: None,
            write_log: None,
            metrics: crate::metrics::EngineMetrics::default(),
            profile_ops: false,
            fault: None,
            fault_sweep: 0,
        }
    }

    /// Sets the worker-thread count for parallel tape execution. `0`
    /// resolves to the machine's available parallelism. Any existing pool
    /// is dropped and re-created lazily at the next parallel launch.
    pub fn set_threads(&mut self, n: usize) {
        let n = if n == 0 {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
        } else {
            n
        };
        if n != self.threads {
            self.threads = n;
            self.pool = None;
        }
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Clones this engine into a worker for one parallel launch: the
    /// worker copies the cell arena and shares the bound data, the
    /// per-thread-stream seed and launch bookkeeping carry over, and
    /// every write is logged for ordered replay. Workers always run with
    /// `threads = 1`.
    pub(crate) fn fork_worker(&self) -> Engine {
        Engine {
            state: self.state.clone(),
            rng: Prng::seed_from_u64(0),
            device: Device::new(gpu_sim::DeviceConfig::host_cpu_like()),
            mode: self.mode,
            backend: self.backend,
            // Workers run tape loop chunks handed to them by the
            // dispatcher; the native module stays on the main engine.
            native: None,
            native_bufs: Default::default(),
            native_master_rng: None,
            env: self.env.clone(),
            work: 0,
            atomics: Vec::new(),
            record_atomics: false,
            master_seed: self.master_seed,
            launch_counter: self.launch_counter,
            in_parallel: true,
            tape_fregs: Vec::new(),
            tape_vregs: Vec::new(),
            tape_scratch: Vec::new(),
            tape_frames: Vec::new(),
            factors: Default::default(),
            threads: 1,
            pool: None,
            write_log: Some(Vec::new()),
            metrics: crate::metrics::EngineMetrics::default(),
            profile_ops: self.profile_ops,
            fault: None, // injection decisions are made at the dispatch site
            fault_sweep: self.fault_sweep,
        }
    }

    /// Logs a scalar cell write on worker engines (no-op otherwise).
    #[inline]
    pub(crate) fn log_cell(&mut self, buf: BufId, idx: usize, op: AssignOp, val: f64) {
        if let Some(log) = &mut self.write_log {
            if !self.state.is_thread_local(buf) {
                log.push(WriteOp::Cell { buf, idx, op, val });
            }
        }
    }

    /// Logs a broadcast fill on worker engines (no-op otherwise).
    #[inline]
    pub(crate) fn log_fill(&mut self, buf: BufId, start: usize, len: usize, val: f64) {
        if let Some(log) = &mut self.write_log {
            if !self.state.is_thread_local(buf) {
                log.push(WriteOp::Fill { buf, start, len, val });
            }
        }
    }

    /// Logs a vector write on worker engines, taking ownership of the
    /// values (no-op otherwise).
    #[inline]
    pub(crate) fn log_vals(&mut self, buf: BufId, start: usize, op: AssignOp, vals: PoolVec) {
        if let Some(log) = &mut self.write_log {
            if !self.state.is_thread_local(buf) {
                log.push(WriteOp::Slice { buf, start, op, vals });
            }
        }
    }

    /// Logs the current contents of a just-written range (used after
    /// in-place vector sampling, where the values only exist in the
    /// state). No-op unless this is a logging worker.
    pub(crate) fn log_written_range(&mut self, buf: BufId, start: usize, len: usize) {
        if self.write_log.is_none() || self.state.is_thread_local(buf) {
            return;
        }
        let vals = PoolVec::from_slice(&self.state.flat(buf)[start..start + len]);
        if let Some(log) = &mut self.write_log {
            log.push(WriteOp::Slice { buf, start, op: AssignOp::Set, vals });
        }
    }

    /// Replays a worker's write log into this engine's cell arena. Raw
    /// writes only: the worker already charged the work for these
    /// mutations.
    pub(crate) fn replay_writes(&mut self, log: Vec<WriteOp>) {
        for entry in log {
            match entry {
                WriteOp::Cell { buf, idx, op, val } => {
                    let cell = &mut self.state.flat_mut(buf)[idx];
                    match op {
                        AssignOp::Set => *cell = val,
                        AssignOp::Inc => *cell += val,
                    }
                }
                WriteOp::Fill { buf, start, len, val } => {
                    for cell in &mut self.state.flat_mut(buf)[start..start + len] {
                        *cell = val;
                    }
                }
                WriteOp::Slice { buf, start, op, vals } => {
                    let cells = &mut self.state.flat_mut(buf)[start..start + vals.len()];
                    match op {
                        AssignOp::Set => cells.copy_from_slice(&vals),
                        AssignOp::Inc => {
                            for (c, x) in cells.iter_mut().zip(&vals) {
                                *c += x;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Takes over a worker's work and metrics and replays its logged
    /// writes. Thread-local scratch is not logged: the dispatcher copies
    /// it from the last chunk's worker ([`Engine::adopt_thread_locals`]),
    /// which holds what sequential execution would have left in it.
    pub(crate) fn merge_worker(&mut self, worker: &mut Engine) {
        self.work += worker.work;
        self.metrics.absorb(worker.metrics);
        let log = worker.write_log.take().unwrap_or_default();
        self.replay_writes(log);
    }

    /// Copies the cells of every thread-local buffer from `worker`.
    pub(crate) fn adopt_thread_locals(&mut self, worker: &Engine) {
        for id in 0..self.state.num_buffers() {
            if self.state.is_thread_local(id) {
                self.state.flat_mut(id).copy_from_slice(worker.state.flat(id));
            }
        }
    }

    /// The RNG stream of thread `t` of kernel launch `launch` — the
    /// emulation of per-thread `curand` states: draws inside a parallel
    /// sampling loop are independent of thread execution order, so the
    /// sequential emulation produces exactly what a truly parallel device
    /// would.
    pub(crate) fn thread_rng(&self, launch: u64, t: i64) -> Prng {
        // splitmix64-style mixing of (master, launch, thread)
        let mut z = self
            .master_seed
            .wrapping_add(launch.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((t as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Prng::seed_from_u64(z ^ (z >> 31))
    }

    /// Runs a procedure by table index, charging time per the mode.
    /// Returns the procedure's scalar result, if it has one.
    pub fn run_proc(&mut self, table: &ProcTable, idx: usize) -> Option<f64> {
        let out = self.run_proc_inner(table, idx);
        if out.is_some() {
            // fault drill: poison the scalar result of a matching
            // procedure (`nan@proc:NAME`) to exercise the guardrails
            if let Some(plan) = &self.fault {
                if plan.nan_hits(table.proc_name(idx), self.fault_sweep) {
                    return Some(f64::NAN);
                }
            }
        }
        out
    }

    fn run_proc_inner(&mut self, table: &ProcTable, idx: usize) -> Option<f64> {
        self.metrics.proc_calls += 1;
        match (self.mode, self.backend) {
            (ExecMode::Cpu, ExecBackend::Tree) => {
                let before = self.work;
                let body = &table.procs[idx].body;
                self.exec(body);
                let delta = (self.work - before) as f64;
                self.device.sequential(delta);
                table.procs[idx].ret.as_ref().map(|e| self.eval_num(e))
            }
            (ExecMode::Cpu, ExecBackend::Tape | ExecBackend::Native) => {
                let proc_ = &table.tapes[idx];
                let before = self.work;
                if let Some(module) = self.native.clone() {
                    crate::native::run_native_proc(self, &module, idx, &proc_.tape);
                } else {
                    self.metrics.instrs_retired += self.run_tape(&proc_.tape);
                }
                let delta = (self.work - before) as f64;
                self.device.sequential(delta);
                proc_.ret.as_ref().map(|e| self.eval_num(e))
            }
            // The simulated device runs Blk IL on the reference
            // interpreter whatever backend was requested; the session
            // reports `Tree` for it.
            (ExecMode::Gpu, _) => {
                let proc_ = &table.blk_procs[idx];
                for b in &proc_.blocks {
                    self.run_blk(b);
                }
                let ret = proc_.ret.as_ref().map(|e| self.eval_num(e));
                if ret.is_some() {
                    // scalar result synced back to the host
                    self.device.readback();
                }
                ret
            }
        }
    }

    fn run_blk(&mut self, b: &RBlk) {
        match b {
            RBlk::Seq(s) => {
                let before = self.work;
                self.exec(s);
                let delta = (self.work - before) as f64;
                self.device.sequential(delta);
            }
            RBlk::Par { kind, lo, hi, body, inner_par } => {
                let lo = self.eval_int(lo);
                let hi = self.eval_int(hi);
                let threads = (hi - lo).max(0) as usize;
                let record = *kind == LoopKind::AtmPar;
                let before_work = self.work;
                self.record_atomics = record;
                self.atomics.clear();
                if *kind == LoopKind::Par {
                    self.launch_counter += 1;
                    let launch = self.launch_counter;
                    let master = self.rng.clone();
                    self.in_parallel = true;
                    for t in lo..hi {
                        self.rng = self.thread_rng(launch, t);
                        self.env.push(t);
                        self.exec(body);
                        self.env.pop();
                    }
                    self.in_parallel = false;
                    self.rng = master;
                } else {
                    for t in lo..hi {
                        self.env.push(t);
                        self.exec(body);
                        self.env.pop();
                    }
                }
                self.record_atomics = false;
                let total_work = self.work - before_work;
                let width = inner_par.as_ref().map(|e| self.eval_int(e).max(1)).unwrap_or(1);
                let drained: Vec<u64> = std::mem::take(&mut self.atomics);
                let mut scope = self.device.begin_kernel();
                scope.thread_work(total_work);
                for loc in drained {
                    scope.atomic(loc);
                }
                scope.finish(threads * width as usize);
            }
            RBlk::Loop { lo, hi, body } => {
                let lo = self.eval_int(lo);
                let hi = self.eval_int(hi);
                for i in lo..hi {
                    self.env.push(i);
                    for inner in body {
                        self.run_blk(inner);
                    }
                    self.env.pop();
                }
            }
            RBlk::Sum { acc, lo, hi, rhs } => {
                let lo = self.eval_int(lo);
                let hi = self.eval_int(hi);
                let n = (hi - lo).max(0) as usize;
                let before_work = self.work;
                let mut scalar_acc = 0.0;
                let mut vec_acc: Option<PoolVec> = None;
                for i in lo..hi {
                    self.env.push(i);
                    let v = self.eval(rhs);
                    self.env.pop();
                    match self.own_val(v) {
                        OwnVal::Num(x) => scalar_acc += x,
                        OwnVal::VecD(xs) => match &mut vec_acc {
                            Some(acc_v) => {
                                for (a, x) in acc_v.iter_mut().zip(&xs) {
                                    *a += x;
                                }
                            }
                            None => vec_acc = Some(xs),
                        },
                    }
                }
                let total_work = (self.work - before_work) as f64;
                let per_elem = if n > 0 { total_work / n as f64 } else { 0.0 };
                self.device.reduce(n, per_elem);
                // acc += reduction result
                let add = match vec_acc {
                    Some(v) => OwnVal::VecD(v),
                    None => OwnVal::Num(scalar_acc),
                };
                self.write(acc, AssignOp::Inc, add, false);
            }
        }
    }

    /// Executes one statement (CPU semantics; the GPU path reuses this for
    /// thread bodies).
    pub fn exec(&mut self, s: &RStmt) {
        match s {
            RStmt::Seq(stmts) => {
                for t in stmts {
                    self.exec(t);
                }
            }
            RStmt::Assign { lhs, op, rhs } => {
                let v = self.eval(rhs);
                let val = self.own_val(v);
                let record = self.record_atomics && *op == AssignOp::Inc;
                self.write(lhs, *op, val, record);
            }
            RStmt::IfEq { a, b, then, els } => {
                let (x, y) = (self.eval_num(a), self.eval_num(b));
                if x == y {
                    self.exec(then);
                } else if let Some(e) = els {
                    self.exec(e);
                }
            }
            RStmt::Loop { kind, lo, hi, body } => {
                let lo = self.eval_int(lo);
                let hi = self.eval_int(hi);
                let fresh_parallel = *kind == LoopKind::Par && !self.in_parallel;
                if fresh_parallel {
                    // one kernel launch: every thread gets its own stream
                    self.launch_counter += 1;
                    let launch = self.launch_counter;
                    let master = self.rng.clone();
                    self.in_parallel = true;
                    for i in lo..hi {
                        self.rng = self.thread_rng(launch, i);
                        self.env.push(i);
                        self.exec(body);
                        self.env.pop();
                    }
                    self.in_parallel = false;
                    self.rng = master;
                } else {
                    for i in lo..hi {
                        self.env.push(i);
                        self.exec(body);
                        self.env.pop();
                    }
                }
            }
            RStmt::Sample { lhs, dist, args } => {
                // Fixed-arity argument spine (every primitive has arity
                // <= 2): no per-sample heap allocation.
                debug_assert!(args.len() <= 2, "distribution arity exceeds 2");
                let mut owned = [OwnArg::Num(0.0), OwnArg::Num(0.0)];
                let n = args.len();
                for (slot, a) in owned.iter_mut().zip(args) {
                    let v = self.eval(a);
                    *slot = self.own_arg(v);
                }
                self.work += sample_cost(*dist, &owned[..n]);
                let refs_buf = [owned[0].as_ref(), owned[1].as_ref()];
                let refs = &refs_buf[..n];
                let dest = self.resolve_dest(lhs);
                match dest {
                    Dest::Cell { buf, idx } => {
                        let mut out = 0.0;
                        dist.sample(refs, &mut self.rng, ValueMut::Scalar(&mut out))
                            .expect("sampling failed");
                        self.state.flat_mut(buf)[idx] = out;
                    }
                    Dest::Range { buf, start, len } => {
                        let slice = &mut self.state.flat_mut(buf)[start..start + len];
                        let out = match dist.point_ty() {
                            augur_dist::SimpleTy::Mat => {
                                let dim = (len as f64).sqrt() as usize;
                                ValueMut::Matrix { data: slice, dim }
                            }
                            _ => ValueMut::Vector(slice),
                        };
                        dist.sample(refs, &mut self.rng, out).expect("sampling failed");
                    }
                }
            }
            RStmt::SampleLogits { lhs, weights } => {
                self.work += 4;
                let wview = self.eval(weights);
                let idx = {
                    let w = slice_of(&self.state, &wview);
                    self.work += w.len() as u64;
                    self.rng.categorical_log(w)
                };
                match self.resolve_dest(lhs) {
                    Dest::Cell { buf, idx: cell } => self.state.flat_mut(buf)[cell] = idx as f64,
                    Dest::Range { .. } => panic!("SampleLogits writes a scalar"),
                }
            }
        }
    }

    /// Evaluates an expression to a numeric value.
    ///
    /// # Panics
    ///
    /// Panics when the expression is not scalar-valued.
    pub fn eval_num(&mut self, e: &RExpr) -> f64 {
        match self.eval(e) {
            View::Num(x) => x,
            other => panic!("expected scalar, got {other:?}"),
        }
    }

    pub(crate) fn eval_int(&mut self, e: &RExpr) -> i64 {
        let x = self.eval_num(e);
        debug_assert!(x.fract() == 0.0, "expected integer, got {x}");
        x as i64
    }

    /// Evaluates an expression to a view.
    pub fn eval(&mut self, e: &RExpr) -> View {
        self.work += 1;
        match e {
            RExpr::Const(v) => View::Num(*v),
            RExpr::Ref(RRef::Loop(d)) => View::Num(self.env[*d] as f64),
            RExpr::Ref(RRef::Buf(id)) => self.buf_view(*id),
            RExpr::Index(base, idx) => {
                let i = self.eval_num(idx);
                assert!(i >= 0.0, "negative index {i}");
                let i = i as usize;
                let b = self.eval(base);
                self.index_view(b, i)
            }
            RExpr::Binop(op, a, b) => {
                let x = self.eval_num(a);
                let y = self.eval_num(b);
                View::Num(match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                })
            }
            RExpr::Neg(a) => View::Num(-self.eval_num(a)),
            RExpr::Call(f, args) => self.eval_call(*f, args),
            RExpr::DistLl { dist, args, point } => {
                let ll = self.dist_ll(*dist, args, point);
                View::Num(ll)
            }
            RExpr::DistGradParam { dist, i, args, point } => {
                self.dist_grad(*dist, Some(*i), args, point)
            }
            RExpr::DistGradPoint { dist, args, point } => self.dist_grad(*dist, None, args, point),
            RExpr::Op(op, args) => self.eval_op(*op, args),
            RExpr::Len(a) => {
                let v = self.eval(a);
                View::Num(self.view_len(&v) as f64)
            }
        }
    }

    pub(crate) fn buf_view(&self, id: BufId) -> View {
        match self.state.shape(id) {
            Shape::Num => View::Num(self.state.flat(id)[0]),
            Shape::Vector(n) => View::Slice { buf: id, start: 0, len: *n },
            Shape::Matrix(d) => View::MatV { buf: id, start: 0, dim: *d },
            Shape::Rows { .. } => View::Rows { buf: id },
        }
    }

    pub(crate) fn index_view(&mut self, base: View, i: usize) -> View {
        self.work += 1;
        match base {
            View::Rows { buf } => {
                let (start, end) = self.state.row_range(buf, i);
                match self.state.shape(buf) {
                    Shape::Rows { elem: RowElem::Vec, .. } => {
                        View::Slice { buf, start, len: end - start }
                    }
                    Shape::Rows { elem: RowElem::Mat(d), .. } => View::MatV { buf, start, dim: *d },
                    _ => unreachable!("Rows view over non-Rows shape"),
                }
            }
            View::Slice { buf, start, len } => {
                assert!(i < len, "index {i} out of bounds for slice of {len}");
                View::Num(self.state.flat(buf)[start + i])
            }
            View::MatV { buf, start, dim } => {
                assert!(i < dim, "row {i} out of bounds for {dim}x{dim} matrix");
                View::Slice { buf, start: start + i * dim, len: dim }
            }
            View::Own(v) => {
                assert!(i < v.len(), "index {i} out of bounds");
                View::Num(v[i])
            }
            View::OwnMat(v, dim) => {
                assert!(i < dim, "row {i} out of bounds");
                View::Own(PoolVec::from_slice(&v[i * dim..(i + 1) * dim]))
            }
            View::Num(x) => panic!("cannot index scalar {x}"),
        }
    }

    fn eval_call(&mut self, f: Builtin, args: &[RExpr]) -> View {
        match f {
            Builtin::Sigmoid => View::Num(augur_math::special::sigmoid(self.eval_num(&args[0]))),
            Builtin::Exp => View::Num(self.eval_num(&args[0]).exp()),
            Builtin::Log => View::Num(self.eval_num(&args[0]).ln()),
            Builtin::Sqrt => View::Num(self.eval_num(&args[0]).sqrt()),
            Builtin::Dot => {
                let a = self.eval(&args[0]);
                let b = self.eval(&args[1]);
                let (sa, sb) = (slice_of(&self.state, &a), slice_of(&self.state, &b));
                self.work += sa.len() as u64;
                View::Num(augur_math::vecops::dot(sa, sb))
            }
        }
    }

    /// Evaluates distribution arguments into a fixed-size buffer (every
    /// primitive has arity ≤ 2), avoiding per-call heap allocation on the
    /// interpreter's hottest path.
    fn dist_args(&mut self, args: &[RExpr]) -> ([View; 2], usize) {
        debug_assert!(args.len() <= 2, "distribution arity exceeds 2");
        let mut buf = [View::Num(0.0), View::Num(0.0)];
        for (slot, a) in buf.iter_mut().zip(args) {
            *slot = self.eval(a);
        }
        (buf, args.len())
    }

    fn dist_ll(&mut self, dist: DistKind, args: &[RExpr], point: &RExpr) -> f64 {
        let (avs, n) = self.dist_args(args);
        let pv = self.eval(point);
        self.work += dist_op_cost(dist, self.view_len(&pv));
        let refs = [value_ref_of(&self.state, &avs[0]), value_ref_of(&self.state, &avs[1])];
        let pref = value_ref_of(&self.state, &pv);
        dist.log_pdf(&refs[..n], pref).expect("ll evaluation failed")
    }

    /// Gradient with respect to parameter `i` (Some) or the point (None).
    fn dist_grad(
        &mut self,
        dist: DistKind,
        i: Option<usize>,
        args: &[RExpr],
        point: &RExpr,
    ) -> View {
        let (avs, n) = self.dist_args(args);
        let pv = self.eval(point);
        let refs_buf = [value_ref_of(&self.state, &avs[0]), value_ref_of(&self.state, &avs[1])];
        let refs = &refs_buf[..n];
        let pref = value_ref_of(&self.state, &pv);
        self.work += dist_op_cost(dist, self.view_len(&pv));
        // Output slot type from the differentiated argument.
        let out_len = match i {
            Some(pos) => match dist.param_tys()[pos] {
                augur_dist::SimpleTy::Vec => self.view_len(&avs[pos]),
                _ => 0,
            },
            None => match dist.point_ty() {
                augur_dist::SimpleTy::Vec => self.view_len(&pv),
                _ => 0,
            },
        };
        if out_len == 0 {
            let mut out = 0.0;
            match i {
                Some(pos) => dist
                    .grad_param(pos, refs, pref, ValueMut::Scalar(&mut out))
                    .expect("grad_param failed"),
                None => dist
                    .grad_point(refs, pref, ValueMut::Scalar(&mut out))
                    .expect("grad_point failed"),
            }
            View::Num(out)
        } else {
            self.work += out_len as u64;
            let mut out = PoolVec::zeroed(out_len);
            match i {
                Some(pos) => dist
                    .grad_param(pos, refs, pref, ValueMut::Vector(&mut out))
                    .expect("grad_param failed"),
                None => dist
                    .grad_point(refs, pref, ValueMut::Vector(&mut out))
                    .expect("grad_point failed"),
            }
            View::Own(out)
        }
    }

    fn eval_op(&mut self, op: OpN, args: &[RExpr]) -> View {
        let a = self.eval(&args[0]);
        let b = if args.len() > 1 { self.eval(&args[1]) } else { View::Num(0.0) };
        self.op_views(op, a, b)
    }

    /// Applies a functional vector/matrix primitive to evaluated operand
    /// views (shared between the tree-walker and the tape VM).
    pub(crate) fn op_views(&mut self, op: OpN, a: View, b: View) -> View {
        match op {
            OpN::VecAdd | OpN::VecSub => {
                let (sa, sb) =
                    (PoolVec::from_slice(slice_of(&self.state, &a)), slice_of(&self.state, &b));
                self.work += sa.len() as u64;
                let mut out = sa;
                for (o, x) in out.iter_mut().zip(sb) {
                    if op == OpN::VecAdd {
                        *o += x;
                    } else {
                        *o -= x;
                    }
                }
                View::Own(out)
            }
            OpN::VecScale => {
                let s = scalar_of(&a);
                let sv = slice_of(&self.state, &b);
                self.work += sv.len() as u64;
                View::Own(sv.iter().map(|x| s * x).collect::<PoolVec>())
            }
            OpN::MatAdd => {
                let (ma, da) = self.mat_view(a);
                let (mb, _) = self.mat_view(b);
                self.work += ma.len() as u64;
                let out: PoolVec = ma.iter().zip(mb.iter()).map(|(x, y)| x + y).collect();
                View::OwnMat(out, da)
            }
            OpN::MatScale => {
                let s = scalar_of(&a);
                let (m, d) = self.mat_view(b);
                self.work += m.len() as u64;
                View::OwnMat(m.iter().map(|x| s * x).collect::<PoolVec>(), d)
            }
            OpN::MatInv => {
                let (m, d) = self.mat_view(a);
                self.work += (d * d * d) as u64;
                let mat = Matrix::from_pooled(d, d, m).expect("matrix shape");
                let inv = Cholesky::new(&mat).expect("mat_inv of a non-SPD matrix").inverse();
                View::OwnMat(inv.into_pooled(), d)
            }
            OpN::MatVec => {
                let (m, d) = self.mat_view(a);
                self.work += (d * d) as u64;
                let mat = Matrix::from_pooled(d, d, m).expect("matrix shape");
                let out = mat.matvec(slice_of(&self.state, &b));
                View::Own(out)
            }
            OpN::OuterSub => {
                let diff = {
                    let sa = slice_of(&self.state, &a);
                    let sb = slice_of(&self.state, &b);
                    PoolVec::from_fn(sa.len(), |i| sa[i] - sb[i])
                };
                let d = diff.len();
                self.work += (d * d) as u64;
                let mut out = PoolVec::zeroed(d * d);
                for i in 0..d {
                    for j in 0..d {
                        out[i * d + j] = diff[i] * diff[j];
                    }
                }
                View::OwnMat(out, d)
            }
        }
    }

    fn mat_view(&self, v: View) -> (PoolVec, usize) {
        match v {
            View::MatV { buf, start, dim } => {
                (PoolVec::from_slice(&self.state.flat(buf)[start..start + dim * dim]), dim)
            }
            View::OwnMat(m, d) => (m, d),
            other => panic!("expected matrix, got {other:?}"),
        }
    }

    pub(crate) fn view_len(&self, v: &View) -> usize {
        match v {
            View::Num(_) => 0,
            View::Slice { len, .. } => *len,
            View::MatV { dim, .. } => dim * dim,
            View::Rows { buf } => self.state.shape(*buf).num_cells(),
            View::Own(o) => o.len(),
            View::OwnMat(m, _) => m.len(),
        }
    }

    pub(crate) fn own_val(&mut self, v: View) -> OwnVal {
        match v {
            View::Num(x) => OwnVal::Num(x),
            View::Own(o) => OwnVal::VecD(o),
            View::OwnMat(m, _) => OwnVal::VecD(m),
            View::Slice { buf, start, len } => {
                OwnVal::VecD(PoolVec::from_slice(&self.state.flat(buf)[start..start + len]))
            }
            View::MatV { buf, start, dim } => {
                OwnVal::VecD(PoolVec::from_slice(&self.state.flat(buf)[start..start + dim * dim]))
            }
            View::Rows { buf } => OwnVal::VecD(PoolVec::from_slice(self.state.flat(buf))),
        }
    }

    pub(crate) fn own_arg(&mut self, v: View) -> OwnArg {
        match v {
            View::Num(x) => OwnArg::Num(x),
            View::Own(o) => OwnArg::VecD(o),
            View::OwnMat(m, d) => OwnArg::MatD(m, d),
            View::Slice { buf, start, len } => {
                OwnArg::VecD(PoolVec::from_slice(&self.state.flat(buf)[start..start + len]))
            }
            View::MatV { buf, start, dim } => OwnArg::MatD(
                PoolVec::from_slice(&self.state.flat(buf)[start..start + dim * dim]),
                dim,
            ),
            View::Rows { buf } => OwnArg::VecD(PoolVec::from_slice(self.state.flat(buf))),
        }
    }

    fn resolve_dest(&mut self, l: &RLValue) -> Dest {
        let mut view = self.buf_view_dest(l.buf);
        for (k, idx) in l.indices.iter().enumerate() {
            let i = self.eval_num(idx);
            assert!(i >= 0.0, "negative store index");
            view = dest_index(&self.state, view, i as usize, k == 0);
        }
        view
    }

    pub(crate) fn buf_view_dest(&self, id: BufId) -> Dest {
        match self.state.shape(id) {
            Shape::Num => Dest::Cell { buf: id, idx: 0 },
            Shape::Vector(n) => Dest::Range { buf: id, start: 0, len: *n },
            Shape::Matrix(d) => Dest::Range { buf: id, start: 0, len: d * d },
            Shape::Rows { .. } => Dest::Range { buf: id, start: 0, len: self.state.flat(id).len() },
        }
    }

    pub(crate) fn write(&mut self, l: &RLValue, op: AssignOp, val: OwnVal, record_atomic: bool) {
        let dest = self.resolve_dest(l);
        self.write_dest(dest, op, val, record_atomic);
    }

    /// Writes an owned value to an already-resolved destination (shared
    /// between the tree-walker and the tape VM).
    pub(crate) fn write_dest(
        &mut self,
        dest: Dest,
        op: AssignOp,
        val: OwnVal,
        record_atomic: bool,
    ) {
        match (dest, val) {
            (Dest::Cell { buf, idx }, OwnVal::Num(x)) => {
                self.work += 1;
                let cell = &mut self.state.flat_mut(buf)[idx];
                match op {
                    AssignOp::Set => *cell = x,
                    AssignOp::Inc => {
                        *cell += x;
                        if record_atomic {
                            self.atomics.push(((buf as u64) << 40) | idx as u64);
                        }
                    }
                }
                self.log_cell(buf, idx, op, x);
            }
            (Dest::Range { buf, start, len }, OwnVal::Num(x)) => {
                self.work += len as u64;
                assert!(
                    op == AssignOp::Set,
                    "broadcast increment is not generated by the compiler"
                );
                for cell in &mut self.state.flat_mut(buf)[start..start + len] {
                    *cell = x;
                }
                self.log_fill(buf, start, len, x);
            }
            (Dest::Range { buf, start, len }, OwnVal::VecD(xs)) => {
                assert_eq!(xs.len(), len, "store length mismatch");
                self.work += len as u64;
                let cells = &mut self.state.flat_mut(buf)[start..start + len];
                match op {
                    AssignOp::Set => cells.copy_from_slice(&xs),
                    AssignOp::Inc => {
                        for (i, (c, x)) in cells.iter_mut().zip(&xs).enumerate() {
                            *c += x;
                            if record_atomic {
                                self.atomics.push(((buf as u64) << 40) | (start + i) as u64);
                            }
                        }
                    }
                }
                self.log_vals(buf, start, op, xs);
            }
            (Dest::Cell { .. }, OwnVal::VecD(_)) => {
                panic!("cannot store a vector into a scalar cell")
            }
        }
    }

    /// Reads a named buffer as a flat slice (driver convenience).
    pub fn flat_of(&self, name: &str) -> &[f64] {
        self.state.flat(self.state.expect_id(name))
    }

    /// Work units retired so far.
    pub fn work(&self) -> u64 {
        self.work
    }
}

/// A resolved store destination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Dest {
    Cell { buf: BufId, idx: usize },
    Range { buf: BufId, start: usize, len: usize },
}

fn scalar_of(v: &View) -> f64 {
    match v {
        View::Num(x) => *x,
        other => panic!("expected scalar, got {other:?}"),
    }
}

/// Applies one destination index. The first index into a `Rows`
/// buffer (`first`) selects a row; every other index selects a cell.
pub(crate) fn dest_index(state: &State, d: Dest, i: usize, first: bool) -> Dest {
    match d {
        Dest::Range { buf, start, len } => match state.shape(buf) {
            Shape::Rows { .. } if first => {
                let (s, e) = state.row_range(buf, i);
                Dest::Range { buf, start: s, len: e - s }
            }
            _ => {
                assert!(i < len, "store index {i} out of bounds for {len}");
                Dest::Cell { buf, idx: start + i }
            }
        },
        Dest::Cell { .. } => panic!("cannot index into a scalar destination"),
    }
}

/// Resolves a view to a slice borrowed from the state (or the view's own
/// storage).
#[inline]
pub(crate) fn slice_of<'a>(state: &'a State, v: &'a View) -> &'a [f64] {
    view_cells(v, |buf| state.flat(buf))
}

/// [`slice_of`] over any reader of buffer cells (`flat`), such as the
/// rest of the state next to a buffer borrowed for an in-place store.
#[inline]
pub(crate) fn view_cells<'a>(v: &'a View, flat: impl Fn(BufId) -> &'a [f64]) -> &'a [f64] {
    match v {
        View::Slice { buf, start, len } => &flat(*buf)[*start..start + len],
        View::MatV { buf, start, dim } => &flat(*buf)[*start..start + dim * dim],
        View::Own(o) => o,
        View::OwnMat(m, _) => m,
        View::Rows { buf } => flat(*buf),
        View::Num(_) => panic!("expected vector view, got scalar"),
    }
}

/// Algorithmic cost of a log-density / gradient evaluation, in work
/// units. `point_len` is the flat size of the point (0 for scalars).
/// Categorical's pmf is an O(1) lookup however long its probability
/// vector is; the multivariate normal pays a Cholesky factorization —
/// also when the tape's factor memo reuses one, so work counters, digests
/// and simulated-GPU virtual time are the same on every engine.
pub(crate) fn dist_op_cost(dist: DistKind, point_len: usize) -> u64 {
    match dist {
        DistKind::MvNormal => {
            let d = point_len.max(1) as u64;
            8 + d * d * d / 3 + 2 * d * d
        }
        DistKind::InvWishart => {
            let d = (point_len as f64).sqrt().max(1.0) as u64;
            8 + d * d * d
        }
        DistKind::Dirichlet => 8 + point_len as u64,
        _ => 4,
    }
}

/// Algorithmic cost of drawing one sample.
pub(crate) fn sample_cost(dist: DistKind, args: &[OwnArg]) -> u64 {
    let arg_len = |i: usize| -> u64 {
        match args.get(i) {
            Some(OwnArg::VecD(v)) => v.len() as u64,
            Some(OwnArg::MatD(m, _)) => m.len() as u64,
            _ => 1,
        }
    };
    match dist {
        // inverse-CDF scan over the weights
        DistKind::Categorical => 4 + arg_len(0),
        // one Gamma draw per component, then normalize
        DistKind::Dirichlet => 8 + 20 * arg_len(0),
        DistKind::MvNormal => {
            let d = arg_len(0);
            8 + d * d * d / 3 + 2 * d * d
        }
        DistKind::InvWishart => {
            let d2 = arg_len(1);
            let d = (d2 as f64).sqrt().max(1.0) as u64;
            8 + 3 * d * d * d
        }
        // rejection samplers cost a handful of uniforms/normals
        _ => 12,
    }
}

pub(crate) fn value_ref_of<'a>(state: &'a State, v: &'a View) -> ValueRef<'a> {
    match v {
        View::Num(x) => ValueRef::Scalar(*x),
        View::Slice { .. } | View::Own(_) | View::Rows { .. } => {
            ValueRef::Vector(slice_of(state, v))
        }
        View::MatV { buf, start, dim } => {
            ValueRef::Matrix { data: &state.flat(*buf)[*start..start + dim * dim], dim: *dim }
        }
        View::OwnMat(m, d) => ValueRef::Matrix { data: m, dim: *d },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::Compiler;
    use augur_low::il::{Expr, LValue, ProcDecl, Stmt};
    use gpu_sim::DeviceConfig;

    fn engine(state: State) -> Engine {
        Engine::new(
            state,
            Prng::seed_from_u64(1),
            Device::new(DeviceConfig::host_cpu_like()),
            ExecMode::Cpu,
        )
    }

    fn compile_and_run(state: State, p: ProcDecl) -> (Engine, Option<f64>) {
        let r = Compiler::new(&state).proc(&p);
        let mut table = ProcTable::default();
        let blk = augur_blk::to_blocks(&p);
        let rb = Compiler::new(&state).blk_proc(&blk);
        table.insert(r, rb, &state);
        let mut eng = engine(state);
        let ret = eng.run_proc(&table, 0);
        (eng, ret)
    }

    #[test]
    fn loop_accumulation() {
        let mut st = State::new();
        st.insert("acc", Shape::Num);
        let p = ProcDecl {
            name: "p".into(),
            body: Stmt::Loop {
                kind: LoopKind::Seq,
                var: "i".into(),
                lo: Expr::Int(0),
                hi: Expr::Int(5),
                body: Box::new(Stmt::Assign {
                    lhs: LValue::name("acc"),
                    op: AssignOp::Inc,
                    rhs: Expr::var("i"),
                }),
            },
            ret: Some(Expr::var("acc")),
        };
        let (_, ret) = compile_and_run(st, p);
        assert_eq!(ret, Some(10.0));
    }

    #[test]
    fn broadcast_reset_and_indexed_store() {
        let mut st = State::new();
        st.insert("v", Shape::Vector(4));
        let p = ProcDecl {
            name: "p".into(),
            body: Stmt::Seq(vec![
                Stmt::Assign { lhs: LValue::name("v"), op: AssignOp::Set, rhs: Expr::Real(2.0) },
                Stmt::Assign {
                    lhs: LValue { var: "v".into(), indices: vec![Expr::Int(1)] },
                    op: AssignOp::Set,
                    rhs: Expr::Real(9.0),
                },
            ]),
            ret: None,
        };
        let (eng, _) = compile_and_run(st, p);
        assert_eq!(eng.flat_of("v"), &[2.0, 9.0, 2.0, 2.0]);
    }

    #[test]
    fn normal_ll_through_il() {
        let mut st = State::new();
        st.insert("mu", Shape::Num);
        let p = ProcDecl {
            name: "p".into(),
            body: Stmt::nop(),
            ret: Some(Expr::DistLl {
                dist: DistKind::Normal,
                args: vec![Expr::var("mu"), Expr::Real(1.0)],
                point: Box::new(Expr::Real(0.5)),
            }),
        };
        let (_, ret) = compile_and_run(st, p);
        let expect = augur_dist::scalar::normal_log_pdf(0.5, 0.0, 1.0);
        assert!((ret.unwrap() - expect).abs() < 1e-14);
    }

    #[test]
    fn rows_indexing_and_row_store() {
        let mut st = State::new();
        st.insert("m", Shape::Rows { offsets: vec![0, 2, 4], elem: RowElem::Vec });
        // m[1] = [3.0, 3.0] via broadcast on the row
        let p = ProcDecl {
            name: "p".into(),
            body: Stmt::Assign {
                lhs: LValue { var: "m".into(), indices: vec![Expr::Int(1)] },
                op: AssignOp::Set,
                rhs: Expr::Real(3.0),
            },
            ret: Some(Expr::index(Expr::index(Expr::var("m"), Expr::Int(1)), Expr::Int(0))),
        };
        let (eng, ret) = compile_and_run(st, p);
        assert_eq!(ret, Some(3.0));
        assert_eq!(eng.flat_of("m"), &[0.0, 0.0, 3.0, 3.0]);
    }

    #[test]
    fn vector_ops_compose() {
        let mut st = State::new();
        let a = st.insert("a", Shape::Vector(2));
        st.flat_mut(a).copy_from_slice(&[1.0, 2.0]);
        let p = ProcDecl {
            name: "p".into(),
            body: Stmt::Assign {
                lhs: LValue::name("a"),
                op: AssignOp::Set,
                rhs: Expr::Op(
                    OpN::VecAdd,
                    vec![
                        Expr::var("a"),
                        Expr::Op(OpN::VecScale, vec![Expr::Real(2.0), Expr::var("a")]),
                    ],
                ),
            },
            ret: None,
        };
        let (eng, _) = compile_and_run(st, p);
        assert_eq!(eng.flat_of("a"), &[3.0, 6.0]);
    }

    #[test]
    fn mat_inv_via_op() {
        let mut st = State::new();
        let m = st.insert("m", Shape::Matrix(2));
        st.flat_mut(m).copy_from_slice(&[4.0, 0.0, 0.0, 2.0]);
        st.insert("out", Shape::Matrix(2));
        let p = ProcDecl {
            name: "p".into(),
            body: Stmt::Assign {
                lhs: LValue::name("out"),
                op: AssignOp::Set,
                rhs: Expr::Op(OpN::MatInv, vec![Expr::var("m")]),
            },
            ret: None,
        };
        let (eng, _) = compile_and_run(st, p);
        let out = eng.flat_of("out");
        assert!((out[0] - 0.25).abs() < 1e-12 && (out[3] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sampling_writes_destination() {
        let mut st = State::new();
        st.insert("x", Shape::Num);
        let p = ProcDecl {
            name: "p".into(),
            body: Stmt::Sample {
                lhs: LValue::name("x"),
                dist: DistKind::Uniform,
                args: vec![Expr::Real(5.0), Expr::Real(6.0)],
            },
            ret: Some(Expr::var("x")),
        };
        let (_, ret) = compile_and_run(st, p);
        let x = ret.unwrap();
        assert!((5.0..6.0).contains(&x));
    }

    #[test]
    fn sample_logits_prefers_heavy_weight() {
        let mut st = State::new();
        let w = st.insert("w", Shape::Vector(3));
        st.flat_mut(w).copy_from_slice(&[-100.0, 0.0, -100.0]);
        st.insert("z", Shape::Num);
        let p = ProcDecl {
            name: "p".into(),
            body: Stmt::SampleLogits { lhs: LValue::name("z"), weights: Expr::var("w") },
            ret: Some(Expr::var("z")),
        };
        let (_, ret) = compile_and_run(st, p);
        assert_eq!(ret, Some(1.0));
    }

    #[test]
    fn gpu_mode_charges_launches() {
        let mut st = State::new();
        st.insert("acc", Shape::Num);
        st.insert("N", Shape::Num);
        let n = st.expect_id("N");
        st.flat_mut(n)[0] = 100.0;
        let p = ProcDecl {
            name: "p".into(),
            body: Stmt::Loop {
                kind: LoopKind::AtmPar,
                var: "i".into(),
                lo: Expr::Int(0),
                hi: Expr::var("N"),
                body: Box::new(Stmt::Assign {
                    lhs: LValue::name("acc"),
                    op: AssignOp::Inc,
                    rhs: Expr::Real(1.0),
                }),
            },
            ret: Some(Expr::var("acc")),
        };
        let r = Compiler::new(&st).proc(&p);
        let blk = augur_blk::to_blocks(&p);
        let rb = Compiler::new(&st).blk_proc(&blk);
        let mut table = ProcTable::default();
        table.insert(r, rb, &st);
        let mut eng = Engine::new(
            st,
            Prng::seed_from_u64(2),
            Device::new(DeviceConfig::titan_black_like()),
            ExecMode::Gpu,
        );
        let ret = eng.run_proc(&table, 0);
        assert_eq!(ret, Some(100.0));
        assert_eq!(eng.device.counters().launches, 1);
        assert_eq!(eng.device.counters().atomic_ops, 100);
    }

    #[test]
    fn sum_blk_matches_atomic_result() {
        // acc += Σ i for i in 0..10, starting from acc = 5.
        let mut st = State::new();
        let acc = st.insert("acc", Shape::Num);
        st.flat_mut(acc)[0] = 5.0;
        let rb = RBlk::Sum {
            acc: RLValue { buf: acc, indices: vec![] },
            lo: RExpr::Const(0.0),
            hi: RExpr::Const(10.0),
            rhs: RExpr::Ref(RRef::Loop(0)),
        };
        let mut eng = Engine::new(
            st,
            Prng::seed_from_u64(3),
            Device::new(DeviceConfig::titan_black_like()),
            ExecMode::Gpu,
        );
        eng.run_blk(&rb);
        assert_eq!(eng.state.flat(acc)[0], 50.0);
        assert_eq!(eng.device.counters().reductions, 1);
    }
}

#[cfg(test)]
mod thread_rng_tests {
    use super::*;
    use crate::compile::Compiler;
    use augur_low::il::{Expr, LValue, ProcDecl, Stmt};
    use gpu_sim::DeviceConfig;

    fn run_sampling_loop(per_thread_draws: usize) -> Vec<f64> {
        // loop Par (i <- 0 until 8) { tmp = N(0,1); ...; out[i] = first draw }
        let mut st = State::new();
        st.insert("out", Shape::Vector(8));
        st.insert("scratch", Shape::Num);
        let mut stmts = vec![Stmt::Sample {
            lhs: LValue { var: "out".into(), indices: vec![Expr::var("i")] },
            dist: DistKind::Normal,
            args: vec![Expr::Real(0.0), Expr::Real(1.0)],
        }];
        for _ in 1..per_thread_draws {
            stmts.push(Stmt::Sample {
                lhs: LValue::name("scratch"),
                dist: DistKind::Normal,
                args: vec![Expr::Real(0.0), Expr::Real(1.0)],
            });
        }
        let p = ProcDecl {
            name: "draw".into(),
            body: Stmt::Loop {
                kind: LoopKind::Par,
                var: "i".into(),
                lo: Expr::Int(0),
                hi: Expr::Int(8),
                body: Box::new(Stmt::seq(stmts)),
            },
            ret: None,
        };
        let cpu = Compiler::new(&st).proc(&p);
        let blk = augur_blk::to_blocks(&p);
        let gpu = Compiler::new(&st).blk_proc(&blk);
        let mut table = ProcTable::default();
        table.insert(cpu, gpu, &st);
        let mut eng = Engine::new(
            st,
            Prng::seed_from_u64(777),
            Device::new(DeviceConfig::host_cpu_like()),
            ExecMode::Cpu,
        );
        eng.run_proc(&table, 0);
        eng.flat_of("out").to_vec()
    }

    /// Per-thread streams: thread `i`'s first draw must not depend on how
    /// many draws *other* threads make — the property real per-thread
    /// curand states have, which sequential emulation without stream
    /// splitting violates.
    #[test]
    fn thread_draws_are_order_and_count_independent() {
        let one = run_sampling_loop(1);
        let three = run_sampling_loop(3);
        for i in 0..8 {
            assert_eq!(
                one[i].to_bits(),
                three[i].to_bits(),
                "thread {i}'s first draw changed with other threads' draw counts"
            );
        }
        // and threads differ from each other
        assert_ne!(one[0].to_bits(), one[1].to_bits());
    }

    /// The master stream is unaffected by parallel draws: sequential code
    /// after a sampling kernel sees the same randomness regardless of the
    /// kernel's internal draw count.
    #[test]
    fn master_stream_survives_parallel_regions() {
        let build = |draws: usize| -> f64 {
            let mut st = State::new();
            st.insert("out", Shape::Vector(4));
            st.insert("after", Shape::Num);
            let mut body = vec![];
            for _ in 0..draws {
                body.push(Stmt::Sample {
                    lhs: LValue { var: "out".into(), indices: vec![Expr::var("i")] },
                    dist: DistKind::Normal,
                    args: vec![Expr::Real(0.0), Expr::Real(1.0)],
                });
            }
            let p = ProcDecl {
                name: "p".into(),
                body: Stmt::Seq(vec![
                    Stmt::Loop {
                        kind: LoopKind::Par,
                        var: "i".into(),
                        lo: Expr::Int(0),
                        hi: Expr::Int(4),
                        body: Box::new(Stmt::seq(body)),
                    },
                    // host-side draw afterwards
                    Stmt::Sample {
                        lhs: LValue::name("after"),
                        dist: DistKind::Normal,
                        args: vec![Expr::Real(0.0), Expr::Real(1.0)],
                    },
                ]),
                ret: Some(Expr::var("after")),
            };
            let cpu = Compiler::new(&st).proc(&p);
            let blk = augur_blk::to_blocks(&p);
            let gpu = Compiler::new(&st).blk_proc(&blk);
            let mut table = ProcTable::default();
            table.insert(cpu, gpu, &st);
            let mut eng = Engine::new(
                st,
                Prng::seed_from_u64(888),
                Device::new(DeviceConfig::host_cpu_like()),
                ExecMode::Cpu,
            );
            eng.run_proc(&table, 0).unwrap()
        };
        assert_eq!(build(1).to_bits(), build(5).to_bits());
    }
}
