//! The native execution backend: C printed from the tape, compiled with
//! the host toolchain and `dlopen`ed.
//!
//! Layout:
//!
//! * [`emit`] — prints each procedure's [`Tape`] as a C function: scalar
//!   registers as locals, loads/arithmetic/loops/hot densities and
//!   categorical draws inline, every other instruction a callback into
//!   the interpreter's own code;
//! * [`jit`] — toolchain discovery, compilation, the content-addressed
//!   on-disk artifact cache, and `dlopen`;
//! * this module — the callback ABI ([`AugCtx`], the five-entry vtable),
//!   the callbacks, and [`NativeModule`].
//!
//! The ABI is deliberately small. `step(pc)` runs tape instruction `pc`
//! through `Engine::exec_instr` — the same code the interpreter loop
//! dispatches to — against the engine's register banks, so semantics,
//! work charges, and the allocation-free scratch discipline are the
//! tape's by construction. `trap(pc)` does the same after an inline
//! bounds check failed, so the panic carries the interpreter's message.
//! `par_enter`/`par_iter`/`par_exit` replicate the interpreter's kernel
//! launch bookkeeping for fresh `Par` loops (per-thread RNG streams).
//! Inline categorical draws step the engine's RNG through the context's
//! `R` field, a pointer to its splitmix64 counter
//! ([`augur_dist::Prng::counter_mut`]); every callback that changes the
//! stream assigns the engine's `Prng` in place, so the pointer stays
//! valid for the whole call.
//!
//! Native procedures always run on the main engine's thread: the repo
//! guarantees parallel and sequential execution are bit-identical, so a
//! sequential native sweep matches an 8-thread tape sweep exactly.
//!
//! Panic behavior: the artifact is compiled with `-fexceptions`, so a
//! panic raised in a callback unwinds through the C frames back to the
//! driver's `catch_unwind`. Work units accumulated C-side in the
//! aborted procedure are lost; that is only observable on sweeps that
//! are already being poisoned.

pub(crate) mod emit;
pub(crate) mod jit;

use std::path::{Path, PathBuf};

use crate::compile::ProcTable;
use crate::eval::{Engine, View};
use crate::state::State;
use crate::tape::{stored_buf, Tape};

pub use emit::CODEGEN_VERSION;

/// The per-call context handed to a native procedure. The C side sees
/// the leading fields as `struct augctx`; the rest is Rust-only.
#[repr(C)]
pub struct AugCtx {
    bufs: *const *mut f64,
    f: *mut f64,
    vt: *const VTable,
    w: u64,
    rng: *mut u64,
    eng: *mut Engine,
    tape: *const Tape,
    regions: *const u32,
    v: *mut View,
}

/// A native procedure entry point.
type ProcFn = unsafe extern "C-unwind" fn(*mut AugCtx);

/// The callback vtable; field order is the ABI and must match the C
/// `augvt` typedef in the emitted preamble exactly.
#[repr(C)]
struct VTable {
    step: unsafe extern "C-unwind" fn(*mut AugCtx, u32),
    trap: unsafe extern "C-unwind" fn(*mut AugCtx, u32),
    par_enter: unsafe extern "C-unwind" fn(*mut AugCtx) -> u64,
    par_iter: unsafe extern "C-unwind" fn(*mut AugCtx, u64, i64),
    par_exit: unsafe extern "C-unwind" fn(*mut AugCtx),
}

static VTABLE: VTable = VTable {
    step: rt_step,
    trap: rt_trap,
    par_enter: rt_par_enter,
    par_iter: rt_par_iter,
    par_exit: rt_par_exit,
};

/// The buffer-pointer table handed to native code, recycled across calls
/// as engine scratch.
#[derive(Debug, Default)]
pub(crate) struct BufTable(Vec<*mut f64>);

// SAFETY: the table's one field holds buffer pointers that only native
// code dereferences, during `run_native_proc`, on the thread that holds
// the engine mutably; between calls they are stale scratch, rebuilt
// before the next use, so moving the table to another thread is sound.
unsafe impl Send for BufTable {}

/// A compiled-and-loaded native artifact for one plan: an entry point
/// for every procedure.
pub struct NativeModule {
    // Field order matters: `procs` holds pointers into the library's
    // mapping, so the library must drop last (fields drop in declaration
    // order — keep `_lib` below `procs`).
    procs: Vec<ProcFn>,
    _lib: jit::Library,
    /// Per procedure, [`emit::region_defs`] of its tape.
    regions: Vec<Vec<u32>>,
    source: String,
    compile_secs: f64,
    artifact_path: PathBuf,
    disk_hit: bool,
}

impl std::fmt::Debug for NativeModule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeModule")
            .field("procs", &self.procs.len())
            .field("artifact_path", &self.artifact_path)
            .field("disk_hit", &self.disk_hit)
            .finish_non_exhaustive()
    }
}

impl NativeModule {
    /// Number of procedures with native entry points — every procedure
    /// of the plan.
    pub fn covered(&self) -> usize {
        self.procs.len()
    }

    /// The emitted C source of the module.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Wall-clock seconds spent in the C compiler (0 on a disk cache hit).
    pub fn compile_secs(&self) -> f64 {
        self.compile_secs
    }

    /// Path of the cached shared object.
    pub fn artifact_path(&self) -> &Path {
        &self.artifact_path
    }

    /// Whether the shared object was reused from the on-disk cache.
    pub fn disk_hit(&self) -> bool {
        self.disk_hit
    }
}

/// Emits, compiles, and loads the native module for a specialized plan.
///
/// Fails (with a human-readable reason recorded by the session as its
/// fallback cause) when the crate was built without the `native`
/// feature, no C toolchain is available, or compilation fails.
pub(crate) fn build_native(table: &ProcTable, state: &State) -> Result<NativeModule, String> {
    if !cfg!(feature = "native") {
        return Err("built without the `native` feature".into());
    }
    // The pointer table's data entries point into the region every
    // session of the plan shares, so C may only read them.
    let instrs = table.tapes.iter().flat_map(|p| &p.tape.instrs);
    let data_store = instrs.filter_map(stored_buf).find(|&b| state.is_data(b));
    assert!(data_store.is_none(), "a procedure stores to bound data buffer {data_store:?}");
    let source = emit::emit_module(table, state);
    let artifact = jit::compile(&source)?;
    let lib = jit::Library::open(&artifact.path)?;
    let sym = lib.symbol("aug_procs")?;
    // SAFETY: the emitter exports `aug_procs` as an array of one
    // non-null function pointer per procedure of this table.
    let procs =
        unsafe { std::slice::from_raw_parts(sym as *const ProcFn, table.tapes.len()) }.to_vec();
    Ok(NativeModule {
        procs,
        _lib: lib,
        regions: table.tapes.iter().map(|p| emit::region_defs(&p.tape)).collect(),
        source,
        compile_secs: artifact.compile_secs,
        artifact_path: artifact.path,
        disk_hit: artifact.disk_hit,
    })
}

/// Runs procedure `idx` (whose tape is `tape`) through its native entry
/// point. Allocation-free once the engine's scratch has grown: the
/// pointer table and register banks are recycled engine fields.
pub(crate) fn run_native_proc(eng: &mut Engine, module: &NativeModule, idx: usize, tape: &Tape) {
    // The table points into the engine's cell arena and the shared data
    // region. Callbacks store into the arena in place and never resize
    // it, and no instruction stores to data (`build_native` checks), so
    // the table stays valid for the whole call.
    let mut bufs = std::mem::take(&mut eng.native_bufs);
    eng.state.base_ptrs(&mut bufs.0);
    // The register banks leave the engine for the call, so callbacks can
    // hold them next to `&mut Engine`.
    let mut f = std::mem::take(&mut eng.tape_fregs);
    let mut v = std::mem::take(&mut eng.tape_vregs);
    if f.len() < tape.n_fregs {
        f.resize(tape.n_fregs, 0.0);
    }
    if v.len() < tape.n_vregs {
        v.resize(tape.n_vregs, View::Num(0.0));
    }
    // A fill that calls back writes the engine's scratch.
    if eng.tape_scratch.len() < tape.n_scratch {
        eng.tape_scratch.resize(tape.n_scratch, 0.0);
    }
    let eng: *mut Engine = eng;
    let mut ctx = AugCtx {
        bufs: bufs.0.as_ptr(),
        f: f.as_mut_ptr(),
        vt: &VTABLE,
        w: 0,
        // SAFETY: `eng` comes from the live `&mut Engine` of this call.
        rng: unsafe { (*eng).rng.counter_mut() },
        eng,
        tape,
        regions: module.regions[idx].as_ptr(),
        v: v.as_mut_ptr(),
    };
    // SAFETY: the context and everything it points to outlive the call:
    // the pointer table, the register banks (taken out of the engine, so
    // no other reference reaches them), the tape, the region table, and
    // the engine's RNG counter. The engine pointer is only dereferenced
    // from callbacks on this thread while this frame does not touch
    // `eng`. A panic raised in a callback unwinds through the
    // `-fexceptions` C frames ("C-unwind" on both sides).
    unsafe { (module.procs[idx])(&mut ctx) };
    // SAFETY: the call returned; `eng` is this function's `&mut Engine`.
    let eng = unsafe { &mut *eng };
    eng.work += ctx.w;
    eng.tape_fregs = f;
    eng.tape_vregs = v;
    eng.native_bufs = bufs;
}

// ---------------------------------------------------------------------
// Runtime callbacks. Native code calls them only with the live context of
// a `run_native_proc` call on this thread, which holds the unique
// `&mut Engine` and never touches it during the call — the `# Safety`
// contract of every function below.
// ---------------------------------------------------------------------

/// Reborrows the engine from a context pointer.
///
/// # Safety
/// `c` is the live context of a `run_native_proc` call on this thread.
unsafe fn eng_of<'a>(c: *mut AugCtx) -> &'a mut Engine {
    &mut *(*c).eng
}

/// Runs tape instruction `pc` of the executing procedure through the
/// interpreter's own code, against the engine's register banks.
///
/// # Safety
/// `c` is the live context of a `run_native_proc` call on this thread,
/// and `pc` indexes its tape.
unsafe extern "C-unwind" fn rt_step(c: *mut AugCtx, pc: u32) {
    let eng = eng_of(c);
    let tape: &Tape = &*(*c).tape;
    let f = std::slice::from_raw_parts_mut((*c).f, tape.n_fregs);
    let v = std::slice::from_raw_parts_mut((*c).v, tape.n_vregs);
    let regions = std::slice::from_raw_parts((*c).regions, tape.n_vregs);
    let instr = &tape.instrs[pc as usize];
    // Regions live in C: rebuild the ones this instruction reads by
    // re-running their definitions (C spilled their index registers and
    // already charged their work).
    crate::tape::reads(instr, &mut |o| {
        let def = if o.is_view() { regions[o.index()] } else { emit::NOT_REGION };
        if def != emit::NOT_REGION {
            let work = eng.work;
            eng.exec_instr(&tape.instrs[def as usize], f, v, &mut 0);
            eng.work = work;
        }
    });
    let mut w = 0;
    eng.exec_instr(instr, f, v, &mut w);
    eng.work += w;
}

/// An inline bounds check failed at `pc`: run the instruction in Rust,
/// which raises the interpreter's panic for the same operands.
///
/// # Safety
/// As for [`rt_step`].
unsafe extern "C-unwind" fn rt_trap(c: *mut AugCtx, pc: u32) {
    rt_step(c, pc);
    panic!("native bounds check at tape pc {pc} failed but the interpreter accepted it");
}

unsafe extern "C-unwind" fn rt_par_enter(c: *mut AugCtx) -> u64 {
    let eng = eng_of(c);
    eng.launch_counter += 1;
    eng.native_master_rng = Some(eng.rng.clone());
    eng.in_parallel = true;
    eng.launch_counter
}

unsafe extern "C-unwind" fn rt_par_iter(c: *mut AugCtx, launch: u64, t: i64) {
    let eng = eng_of(c);
    eng.rng = eng.thread_rng(launch, t);
}

unsafe extern "C-unwind" fn rt_par_exit(c: *mut AugCtx) {
    let eng = eng_of(c);
    eng.rng = eng.native_master_rng.take().expect("par_exit without par_enter");
    eng.in_parallel = false;
}
