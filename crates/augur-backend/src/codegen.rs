//! Code printing — the textual form of the paper's backend output.
//!
//! The paper's compiler "generates Cuda/C code depending on whether the
//! target is the GPU or the CPU", then hands it to Nvcc or Clang (§2.3).
//! [`Plan::emit`] is the one printer, with one unit per target:
//!
//! * **C** ([`CodegenTarget::C`]) — the executable translation unit the
//!   native backend compiles and `dlopen`s, printed from the plan's
//!   tapes for its exact data shape (`native::emit`).
//! * **Cuda** ([`CodegenTarget::Cuda`]) — the paper's GPU rendering of
//!   the memory-explicit Low-- program: each `parBlk` becomes a
//!   `__global__` kernel with the canonical thread-index prologue,
//!   atomic `+=` becomes `atomicAdd`, `sumBlk`s call the runtime's tree
//!   reduction, and each host function launches its kernels in block
//!   order. No toolchain compiles it; the simulated device runs the same
//!   Blk IL on the reference interpreter.

use std::fmt::Write as _;

use augur_blk::Blk;
use augur_low::il::{AssignOp, BinOp, Builtin, Cond, Expr, LValue, LoopKind, OpN, Stmt};
use augur_low::{LoweredModel, Step};

use crate::driver::BuildError;
use crate::plan::Plan;

/// Which unit [`Plan::emit`] prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodegenTarget {
    /// The executable C unit (the Clang path).
    C,
    /// Cuda with `__global__` kernels (the Nvcc path).
    Cuda,
}

impl Plan {
    /// Renders this plan as the translation unit for `target`.
    ///
    /// * `C` — the slot-resolved C source the native backend compiles
    ///   and `dlopen`s for this exact data shape; its `aug_procs` table
    ///   holds one entry per procedure.
    /// * `Cuda` — memory is made explicit (§5.2) on a copy of the
    ///   lowered model, then every procedure is printed as kernels plus
    ///   a host launcher, followed by the `mcmc_sweep` driver.
    ///
    /// # Errors
    ///
    /// Returns lowering errors from memory explication (Cuda target).
    pub fn emit(&self, target: CodegenTarget) -> Result<String, BuildError> {
        match target {
            CodegenTarget::C => {
                Ok(crate::native::emit::emit_module(&self.artifact.table, &self.state))
            }
            CodegenTarget::Cuda => {
                let mut lowered = (*self.lowered).clone();
                augur_low::memory::make_memory_explicit(&mut lowered)?;
                Ok(emit_cuda(&lowered))
            }
        }
    }
}

/// Renders a memory-explicit lowered model as one Cuda translation unit.
fn emit_cuda(lowered: &LoweredModel) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "/* generated by augurv2-rs — GPU (Cuda) target */");
    let _ = writeln!(out, "#include \"augur_runtime.h\"\n");

    // Planned buffers (size inference, §5.2): allocated once at setup.
    let _ = writeln!(out, "/* buffers planned by size inference (allocated at setup) */");
    for a in &lowered.allocs {
        let _ = writeln!(out, "static augur_buf_t {}; /* {:?}, {:?} */", a.name, a.shape, a.kind);
    }
    let _ = writeln!(out);

    for p in &lowered.procs {
        emit_cuda_proc(&mut out, p);
    }

    emit_sweep(&mut out, lowered);
    out
}

/// The sweep driver: the `⊗`-composition as a C function.
fn emit_sweep(out: &mut String, lowered: &LoweredModel) {
    let _ = writeln!(out, "void mcmc_sweep(augur_rng *rng) {{");
    for step in &lowered.steps {
        match step {
            Step::Gibbs { proc_, target } => {
                let _ = writeln!(
                    out,
                    "  {proc_}(rng); /* Gibbs: resamples {target}, always accepted */"
                );
            }
            Step::Hmc { targets, llgrad_proc, nuts, .. } => {
                let names: Vec<&str> = targets.iter().map(|(t, _)| t.as_str()).collect();
                let fun = if *nuts { "augur_nuts_update" } else { "augur_hmc_update" };
                let _ =
                    writeln!(out, "  {fun}(rng, {llgrad_proc}); /* block: {} */", names.join(", "));
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
                let _ = writeln!(
                    out,
                    "  augur_rw_mh_update(rng, {ll_proc}); /* {} */",
                    names.join(", ")
                );
            }
        }
    }
    let _ = writeln!(out, "}}");
}

fn emit_cuda_proc(out: &mut String, p: &augur_low::il::ProcDecl) {
    let blk = augur_blk::to_blocks(p);
    let mut kernels: Vec<String> = Vec::new();
    let mut host = String::new();
    let _ = writeln!(host, "double {}(augur_rng *rng) {{", p.name);
    for (i, b) in blk.blocks.iter().enumerate() {
        emit_cuda_blk(&mut kernels, &mut host, &p.name, i, b, 1);
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

fn emit_cuda_blk(
    kernels: &mut Vec<String>,
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
            emit_stmt(host, s, ind, false);
        }
        Blk::ParBlk { kind, var, lo, hi, body, inner_par } => {
            let kname = format!("{proc_name}_k{idx}");
            let mut k = String::new();
            let _ = writeln!(k, "__global__ void {kname}(augur_rng_state *rngs) {{");
            let _ =
                writeln!(k, "  int {var} = blockIdx.x * blockDim.x + threadIdx.x + {};", expr(lo));
            let _ = writeln!(k, "  if ({var} >= {}) return;", expr(hi));
            if *kind == LoopKind::AtmPar {
                let _ = writeln!(k, "  /* AtmPar: increments compiled to atomicAdd */");
            }
            emit_stmt(&mut k, body, 1, true);
            let _ = writeln!(k, "}}\n");
            kernels.push(k);
            let grid = format!("augur_grid({} - {})", expr(hi), expr(lo));
            let _ = writeln!(host, "{pad}{kname}<<<{grid}, AUGUR_BLOCK>>>(rng_states);");
            if let Some(w) = inner_par {
                let _ =
                    writeln!(host, "{pad}/* inlined primitive exposes inner width {} */", expr(w));
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
                emit_cuda_blk(kernels, host, proc_name, idx * 16 + j + 1, inner, ind + 1);
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

/// Prints a statement as device code (`dev`: increments through
/// `atomicAdd`, draws from the per-thread `rngs`) or as plain host C.
fn emit_stmt(out: &mut String, s: &Stmt, ind: usize, dev: bool) {
    let pad = "  ".repeat(ind);
    let (rng, sfx) = if dev { ("rngs", "_dev") } else { ("rng", "") };
    match s {
        Stmt::Seq(ss) => {
            for t in ss {
                emit_stmt(out, t, ind, dev);
            }
        }
        Stmt::Assign { lhs, op: AssignOp::Inc, rhs } if dev => {
            let _ = writeln!(out, "{pad}atomicAdd(&{}, {});", lvalue(lhs), expr(rhs));
        }
        Stmt::Assign { lhs, op, rhs } => {
            let op = if *op == AssignOp::Inc { "+=" } else { "=" };
            let _ = writeln!(out, "{pad}{} {op} {};", lvalue(lhs), expr(rhs));
        }
        Stmt::If { cond: Cond::Eq(a, b), then, els } => {
            let _ = writeln!(out, "{pad}if ({} == {}) {{", expr(a), expr(b));
            emit_stmt(out, then, ind + 1, dev);
            if let Some(e) = els {
                let _ = writeln!(out, "{pad}}} else {{");
                emit_stmt(out, e, ind + 1, dev);
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
            emit_stmt(out, body, ind + 1, dev);
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::Sample { lhs, dist, args } => {
            let rendered: Vec<String> = args.iter().map(expr).collect();
            let _ = writeln!(
                out,
                "{pad}augur_{}_sample{sfx}({rng}, &{}, {});",
                dist.name().to_lowercase(),
                lvalue(lhs),
                rendered.join(", ")
            );
        }
        Stmt::SampleLogits { lhs, weights } => {
            let _ = writeln!(
                out,
                "{pad}{} = augur_categorical_logits_sample{sfx}({rng}, {});",
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
            format!("augur_{}_grad{}({})", dist.name().to_lowercase(), i + 2, rendered.join(", "))
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
