//! Cuda/C code emission — the textual form of the paper's backend output.
//!
//! The paper's compiler "generates Cuda/C code depending on whether the
//! target is the GPU or the CPU", then hands it to Nvcc or Clang (§2.3).
//! Two render paths share one API:
//!
//! * **CPU flavor** ([`CodegenTarget::C`]) — each procedure becomes a C
//!   function; `Par`/`AtmPar` loops carry OpenMP pragmas, atomic
//!   increments `#pragma omp atomic`. Shape-generic: renders straight
//!   from the lowered model, for inspection and golden tests. The
//!   *executable* C path is different — [`crate::plan::Plan::emit`]
//!   with the `C` target returns the slot-resolved translation unit the
//!   native backend actually compiles and `dlopen`s.
//! * **GPU flavor** ([`CodegenTarget::Cuda`]) — each `parBlk` becomes a
//!   `__global__` kernel with the canonical thread-index prologue,
//!   atomic `+=` becomes `atomicAdd`, `sumBlk`s call the runtime's tree
//!   reduction, and the host function launches the kernels in block
//!   order.
//!
//! Emission returns a [`CodegenUnit`]: the source text plus a **symbol
//! manifest** — one [`SymbolInfo`] per emitted function/kernel — so
//! consumers (the `gpu-sim` cost model, golden tests) read structure
//! from data instead of re-parsing the text for `__global__` markers.

use std::fmt::Write as _;

use augur_blk::Blk;
use augur_low::il::{AssignOp, BinOp, Builtin, Cond, Expr, LValue, LoopKind, OpN, Stmt};
use augur_low::{LoweredModel, Step};

use crate::driver::BuildError;
use crate::plan::Plan;

/// Which flavor of native code to render.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodegenTarget {
    /// C with OpenMP annotations (the Clang path).
    C,
    /// Cuda with `__global__` kernels (the Nvcc path).
    Cuda,
}

/// What kind of function a [`SymbolInfo`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymbolKind {
    /// A host-side procedure (C function, or the Cuda host launcher).
    Proc,
    /// A `__global__` Cuda kernel.
    CudaKernel {
        /// Whether the kernel serializes through atomic read-modify-writes
        /// (`AtmPar` loops / `atomicAdd` increments) — the §5.4
        /// contention term of the cost model.
        atomic: bool,
    },
    /// The `mcmc_sweep` driver (the `⊗`-composition).
    SweepDriver,
    /// A slot-resolved procedure in the executable native module
    /// (entry in the exported `aug_procs` table).
    NativeProc,
}

/// One emitted function, kernel, or driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolInfo {
    /// The function name as it appears in the source.
    pub name: String,
    /// What the symbol is.
    pub kind: SymbolKind,
}

/// A complete emitted translation unit: source text plus the symbol
/// manifest collected during emission.
#[derive(Debug, Clone)]
pub struct CodegenUnit {
    /// The rendered Cuda/C source.
    pub source: String,
    /// One entry per emitted function, in emission order.
    pub symbols: Vec<SymbolInfo>,
}

impl CodegenUnit {
    /// Distills the symbol manifest into the launch manifest the
    /// `gpu-sim` cost model consumes (kernel and atomic-kernel counts).
    pub fn manifest(&self) -> gpu_sim::KernelManifest {
        let mut m = gpu_sim::KernelManifest::default();
        for s in &self.symbols {
            match s.kind {
                SymbolKind::CudaKernel { atomic } => {
                    m.kernels += 1;
                    if atomic {
                        m.atomic_kernels += 1;
                    }
                }
                SymbolKind::Proc | SymbolKind::NativeProc => m.host_procs += 1,
                SymbolKind::SweepDriver => {}
            }
        }
        m
    }

    /// Symbols of the given kind, in emission order.
    pub fn symbols_of(&self, kind: SymbolKind) -> impl Iterator<Item = &SymbolInfo> {
        self.symbols.iter().filter(move |s| s.kind == kind)
    }
}

impl Plan {
    /// Renders this plan as the translation unit for `target`.
    ///
    /// * `C` — the **executable** unit: the slot-resolved C source the
    ///   native backend compiles and `dlopen`s for this exact data
    ///   shape, with one [`SymbolKind::NativeProc`] per covered
    ///   procedure (uncovered procedures run on the tape and have no
    ///   symbol).
    /// * `Cuda` — the inspection rendering of the paper's GPU output:
    ///   memory is made explicit (§5.2) on a copy of the lowered model,
    ///   then kernels/launchers are emitted as [`emit`] does.
    ///
    /// # Errors
    ///
    /// Returns lowering errors from memory explication (Cuda target).
    pub fn emit(&self, target: CodegenTarget) -> Result<CodegenUnit, BuildError> {
        match target {
            CodegenTarget::C => {
                let em = crate::native::emit::emit_module(&self.artifact.table, &self.state);
                let symbols = em
                    .symbols
                    .into_iter()
                    .map(|name| SymbolInfo { name, kind: SymbolKind::NativeProc })
                    .collect();
                Ok(CodegenUnit { source: em.source, symbols })
            }
            CodegenTarget::Cuda => {
                let mut lowered = (*self.lowered).clone();
                augur_low::memory::make_memory_explicit(&mut lowered)?;
                Ok(emit(&lowered, CodegenTarget::Cuda))
            }
        }
    }
}

/// Renders the lowered model as a complete Cuda/C translation unit.
pub fn emit(lowered: &LoweredModel, target: CodegenTarget) -> CodegenUnit {
    let mut out = String::new();
    let mut symbols: Vec<SymbolInfo> = Vec::new();
    let _ = writeln!(out, "/* generated by augurv2-rs — {} target */", match target {
        CodegenTarget::C => "CPU (C + OpenMP)",
        CodegenTarget::Cuda => "GPU (Cuda)",
    });
    let _ = writeln!(out, "#include \"augur_runtime.h\"\n");

    // Planned buffers (size inference, §5.2): allocated once at setup.
    let _ = writeln!(out, "/* buffers planned by size inference (allocated at setup) */");
    for a in &lowered.allocs {
        let _ = writeln!(out, "static augur_buf_t {}; /* {:?}, {:?} */", a.name, a.shape, a.kind);
    }
    let _ = writeln!(out);

    for p in &lowered.procs {
        match target {
            CodegenTarget::C => emit_c_proc(&mut out, &mut symbols, p),
            CodegenTarget::Cuda => emit_cuda_proc(&mut out, &mut symbols, p),
        }
    }

    emit_sweep(&mut out, &mut symbols, lowered);
    CodegenUnit { source: out, symbols }
}

/// The sweep driver: the `⊗`-composition as a C function.
fn emit_sweep(out: &mut String, symbols: &mut Vec<SymbolInfo>, lowered: &LoweredModel) {
    symbols.push(SymbolInfo { name: "mcmc_sweep".to_string(), kind: SymbolKind::SweepDriver });
    let _ = writeln!(out, "void mcmc_sweep(augur_rng *rng) {{");
    for step in &lowered.steps {
        match step {
            Step::Gibbs { proc_, target } => {
                let _ = writeln!(out, "  {proc_}(rng); /* Gibbs: resamples {target}, always accepted */");
            }
            Step::Hmc { targets, ll_proc, grad_proc, nuts, .. } => {
                let names: Vec<&str> = targets.iter().map(|(t, _)| t.as_str()).collect();
                let fun = if *nuts { "augur_nuts_update" } else { "augur_hmc_update" };
                let _ = writeln!(
                    out,
                    "  {fun}(rng, {ll_proc}, {grad_proc}); /* block: {} */",
                    names.join(", ")
                );
            }
            Step::Mala { targets, ll_proc, grad_proc, .. } => {
                let names: Vec<&str> = targets.iter().map(|(t, _)| t.as_str()).collect();
                let _ = writeln!(
                    out,
                    "  augur_mala_update(rng, {ll_proc}, {grad_proc}); /* {} */",
                    names.join(", ")
                );
            }
            Step::SliceRefl { targets, ll_proc, grad_proc, .. } => {
                let names: Vec<&str> = targets.iter().map(|(t, _)| t.as_str()).collect();
                let _ = writeln!(
                    out,
                    "  augur_refl_slice_update(rng, {ll_proc}, {grad_proc}); /* {} */",
                    names.join(", ")
                );
            }
            Step::ESlice { target, lik_proc, prior_sample_proc, .. } => {
                let _ = writeln!(
                    out,
                    "  augur_eslice_update(rng, {lik_proc}, {prior_sample_proc}); /* {target} */"
                );
            }
            Step::RwMh { targets, ll_proc } => {
                let names: Vec<&str> = targets.iter().map(|(t, _)| t.as_str()).collect();
                let _ = writeln!(out, "  augur_rw_mh_update(rng, {ll_proc}); /* {} */", names.join(", "));
            }
        }
    }
    let _ = writeln!(out, "}}");
}

// ---------- CPU flavor ----------

fn emit_c_proc(out: &mut String, symbols: &mut Vec<SymbolInfo>, p: &augur_low::il::ProcDecl) {
    symbols.push(SymbolInfo { name: p.name.clone(), kind: SymbolKind::Proc });
    let _ = writeln!(out, "double {}(augur_rng *rng) {{", p.name);
    emit_c_stmt(out, &p.body, 1);
    match &p.ret {
        Some(r) => {
            let _ = writeln!(out, "  return {};", expr(r));
        }
        None => {
            let _ = writeln!(out, "  return 0.0;");
        }
    }
    let _ = writeln!(out, "}}\n");
}

fn emit_c_stmt(out: &mut String, s: &Stmt, ind: usize) {
    let pad = "  ".repeat(ind);
    match s {
        Stmt::Seq(ss) => {
            for t in ss {
                emit_c_stmt(out, t, ind);
            }
        }
        Stmt::Assign { lhs, op, rhs } => match op {
            AssignOp::Set => {
                let _ = writeln!(out, "{pad}{} = {};", lvalue(lhs), expr(rhs));
            }
            AssignOp::Inc => {
                let _ = writeln!(out, "{pad}#pragma omp atomic");
                let _ = writeln!(out, "{pad}{} += {};", lvalue(lhs), expr(rhs));
            }
        },
        Stmt::If { cond: Cond::Eq(a, b), then, els } => {
            let _ = writeln!(out, "{pad}if ({} == {}) {{", expr(a), expr(b));
            emit_c_stmt(out, then, ind + 1);
            if let Some(e) = els {
                let _ = writeln!(out, "{pad}}} else {{");
                emit_c_stmt(out, e, ind + 1);
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::Loop { kind, var, lo, hi, body } => {
            match kind {
                LoopKind::Par => {
                    let _ = writeln!(out, "{pad}#pragma omp parallel for");
                }
                LoopKind::AtmPar => {
                    let _ = writeln!(out, "{pad}#pragma omp parallel for /* atomic increments */");
                }
                LoopKind::Seq => {}
            }
            let _ = writeln!(
                out,
                "{pad}for (int {var} = {}; {var} < {}; {var}++) {{",
                expr(lo),
                expr(hi)
            );
            emit_c_stmt(out, body, ind + 1);
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::Sample { lhs, dist, args } => {
            let rendered: Vec<String> = args.iter().map(expr).collect();
            let _ = writeln!(
                out,
                "{pad}augur_{}_sample(rng, &{}, {});",
                dist.name().to_lowercase(),
                lvalue(lhs),
                rendered.join(", ")
            );
        }
        Stmt::SampleLogits { lhs, weights } => {
            let _ = writeln!(
                out,
                "{pad}{} = augur_categorical_logits_sample(rng, {});",
                lvalue(lhs),
                expr(weights)
            );
        }
    }
}

// ---------- GPU flavor ----------

fn emit_cuda_proc(out: &mut String, symbols: &mut Vec<SymbolInfo>, p: &augur_low::il::ProcDecl) {
    let blk = augur_blk::to_blocks(p);
    let mut kernels: Vec<String> = Vec::new();
    let mut host = String::new();
    symbols.push(SymbolInfo { name: p.name.clone(), kind: SymbolKind::Proc });
    let _ = writeln!(host, "double {}(augur_rng *rng) {{", p.name);
    for (i, b) in blk.blocks.iter().enumerate() {
        emit_cuda_blk(&mut kernels, symbols, &mut host, &p.name, i, b, 1);
    }
    match &p.ret {
        Some(r) => {
            let _ = writeln!(host, "  augur_memcpy_dtoh_scalar(&host_ret, {});", expr(r));
            let _ = writeln!(host, "  return host_ret;");
        }
        None => {
            let _ = writeln!(host, "  return 0.0;");
        }
    }
    let _ = writeln!(host, "}}\n");
    for k in kernels {
        out.push_str(&k);
    }
    out.push_str(&host);
}

#[allow(clippy::too_many_arguments)]
fn emit_cuda_blk(
    kernels: &mut Vec<String>,
    symbols: &mut Vec<SymbolInfo>,
    host: &mut String,
    proc_name: &str,
    idx: usize,
    b: &Blk,
    ind: usize,
) {
    let pad = "  ".repeat(ind);
    match b {
        Blk::SeqBlk(s) => {
            let _ = writeln!(host, "{pad}/* seqBlk (host) */");
            let mut tmp = String::new();
            emit_cuda_host_stmt(&mut tmp, s, ind);
            host.push_str(&tmp);
        }
        Blk::ParBlk { kind, var, lo, hi, body, inner_par } => {
            let kname = format!("{proc_name}_k{idx}");
            // Increments inside a device body always serialize through
            // atomicAdd, whatever the loop kind claims.
            let atomic = *kind == LoopKind::AtmPar || stmt_has_inc(body);
            symbols.push(SymbolInfo { name: kname.clone(), kind: SymbolKind::CudaKernel { atomic } });
            let mut k = String::new();
            let _ = writeln!(k, "__global__ void {kname}(augur_rng_state *rngs) {{");
            let _ = writeln!(k, "  int {var} = blockIdx.x * blockDim.x + threadIdx.x + {};", expr(lo));
            let _ = writeln!(k, "  if ({var} >= {}) return;", expr(hi));
            if *kind == LoopKind::AtmPar {
                let _ = writeln!(k, "  /* AtmPar: increments compiled to atomicAdd */");
            }
            emit_cuda_device_stmt(&mut k, body, 1);
            let _ = writeln!(k, "}}\n");
            kernels.push(k);
            let grid = format!("augur_grid({} - {})", expr(hi), expr(lo));
            let _ = writeln!(host, "{pad}{kname}<<<{grid}, AUGUR_BLOCK>>>(rng_states);");
            if let Some(w) = inner_par {
                let _ = writeln!(
                    host,
                    "{pad}/* inlined primitive exposes inner width {} */",
                    expr(w)
                );
            }
        }
        Blk::LoopBlk { var, lo, hi, body } => {
            let _ = writeln!(
                host,
                "{pad}for (int {var} = {}; {var} < {}; {var}++) {{ /* loopBlk */",
                expr(lo),
                expr(hi)
            );
            for (j, inner) in body.iter().enumerate() {
                emit_cuda_blk(kernels, symbols, host, proc_name, idx * 16 + j + 1, inner, ind + 1);
            }
            let _ = writeln!(host, "{pad}}}");
        }
        Blk::SumBlk { acc, var, lo, hi, rhs } => {
            let _ = writeln!(
                host,
                "{pad}{} += augur_reduce(({}) .. ({}), /* {var} */ {});",
                lvalue(acc),
                expr(lo),
                expr(hi),
                expr(rhs)
            );
        }
    }
}

/// Whether a device statement tree contains an `Inc` assignment (which
/// the Cuda flavor renders as `atomicAdd`).
fn stmt_has_inc(s: &Stmt) -> bool {
    match s {
        Stmt::Seq(ss) => ss.iter().any(stmt_has_inc),
        Stmt::Assign { op, .. } => *op == AssignOp::Inc,
        Stmt::If { then, els, .. } => {
            stmt_has_inc(then) || els.as_deref().is_some_and(stmt_has_inc)
        }
        Stmt::Loop { body, .. } => stmt_has_inc(body),
        Stmt::Sample { .. } | Stmt::SampleLogits { .. } => false,
    }
}

fn emit_cuda_host_stmt(out: &mut String, s: &Stmt, ind: usize) {
    // host-side sequential code is plain C
    emit_c_stmt(out, s, ind);
}

fn emit_cuda_device_stmt(out: &mut String, s: &Stmt, ind: usize) {
    let pad = "  ".repeat(ind);
    match s {
        Stmt::Seq(ss) => {
            for t in ss {
                emit_cuda_device_stmt(out, t, ind);
            }
        }
        Stmt::Assign { lhs, op, rhs } => match op {
            AssignOp::Set => {
                let _ = writeln!(out, "{pad}{} = {};", lvalue(lhs), expr(rhs));
            }
            AssignOp::Inc => {
                let _ = writeln!(out, "{pad}atomicAdd(&{}, {});", lvalue(lhs), expr(rhs));
            }
        },
        Stmt::If { cond: Cond::Eq(a, b), then, els } => {
            let _ = writeln!(out, "{pad}if ({} == {}) {{", expr(a), expr(b));
            emit_cuda_device_stmt(out, then, ind + 1);
            if let Some(e) = els {
                let _ = writeln!(out, "{pad}}} else {{");
                emit_cuda_device_stmt(out, e, ind + 1);
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::Loop { var, lo, hi, body, .. } => {
            let _ = writeln!(
                out,
                "{pad}for (int {var} = {}; {var} < {}; {var}++) {{",
                expr(lo),
                expr(hi)
            );
            emit_cuda_device_stmt(out, body, ind + 1);
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::Sample { lhs, dist, args } => {
            let rendered: Vec<String> = args.iter().map(expr).collect();
            let _ = writeln!(
                out,
                "{pad}augur_{}_sample_dev(rngs, &{}, {});",
                dist.name().to_lowercase(),
                lvalue(lhs),
                rendered.join(", ")
            );
        }
        Stmt::SampleLogits { lhs, weights } => {
            let _ = writeln!(
                out,
                "{pad}{} = augur_categorical_logits_sample_dev(rngs, {});",
                lvalue(lhs),
                expr(weights)
            );
        }
    }
}

// ---------- shared expression rendering ----------

fn lvalue(l: &LValue) -> String {
    let mut s = l.var.clone();
    for i in &l.indices {
        let _ = write!(s, "[{}]", expr(i));
    }
    s
}

fn expr(e: &Expr) -> String {
    match e {
        Expr::Var(n) => n.clone(),
        Expr::Int(v) => v.to_string(),
        Expr::Real(v) => {
            if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                format!("{v:.1}")
            } else {
                format!("{v}")
            }
        }
        Expr::Index(a, b) => format!("{}[{}]", expr(a), expr(b)),
        Expr::Binop(op, a, b) => {
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
            };
            format!("({} {} {})", expr(a), sym, expr(b))
        }
        Expr::Neg(a) => format!("(-{})", expr(a)),
        Expr::Call(f, args) => {
            let name = match f {
                Builtin::Sigmoid => "augur_sigmoid",
                Builtin::Exp => "exp",
                Builtin::Log => "log",
                Builtin::Sqrt => "sqrt",
                Builtin::Dot => "augur_dot",
            };
            let rendered: Vec<String> = args.iter().map(expr).collect();
            format!("{name}({})", rendered.join(", "))
        }
        Expr::DistLl { dist, args, point } => {
            let mut rendered: Vec<String> = args.iter().map(expr).collect();
            rendered.push(expr(point));
            format!("augur_{}_ll({})", dist.name().to_lowercase(), rendered.join(", "))
        }
        Expr::DistGradParam { dist, i, args, point } => {
            let mut rendered: Vec<String> = args.iter().map(expr).collect();
            rendered.push(expr(point));
            // the paper's 1-based convention counts the point as arg 1
            format!(
                "augur_{}_grad{}({})",
                dist.name().to_lowercase(),
                i + 2,
                rendered.join(", ")
            )
        }
        Expr::DistGradPoint { dist, args, point } => {
            let mut rendered: Vec<String> = args.iter().map(expr).collect();
            rendered.push(expr(point));
            format!("augur_{}_grad1({})", dist.name().to_lowercase(), rendered.join(", "))
        }
        Expr::Op(op, args) => {
            let name = match op {
                OpN::VecAdd => "augur_vec_add",
                OpN::VecSub => "augur_vec_sub",
                OpN::VecScale => "augur_vec_scale",
                OpN::MatAdd => "augur_mat_add",
                OpN::MatScale => "augur_mat_scale",
                OpN::MatInv => "augur_mat_inv",
                OpN::MatVec => "augur_mat_vec",
                OpN::OuterSub => "augur_outer_sub",
            };
            let rendered: Vec<String> = args.iter().map(expr).collect();
            format!("{name}({})", rendered.join(", "))
        }
        Expr::Len(a) => format!("augur_len({})", expr(a)),
    }
}
