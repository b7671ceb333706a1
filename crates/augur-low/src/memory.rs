//! The Low-- memory-explication pass (paper §5.2).
//!
//! "Primitives such as vector addition that produce a result that requires
//! allocation will be converted into a side-effecting primitive that
//! updates an explicitly allocated location. These functional primitives
//! made the initial lowering step from model and query into algorithm
//! tractable and can be removed at this step."
//!
//! This pass hoists every compound-valued [`OpN`] expression out of the
//! statement that contains it into a `tmp = op(...)` assignment targeting
//! a planned buffer, leaving only variable references behind. Temporaries
//! hoisted inside parallel loops are planned [`AllocKind::ThreadLocal`].
//! Size inference derives each temporary's shape from its operands.

use augur_density::DExpr;
use augur_dist::DistKind;
use augur_lang::ast::Builtin;

use crate::il::{AssignOp, Expr, LValue, OpN, Stmt};
use crate::shape::{AllocDecl, ShapeSpec, SizeExpr};
use crate::{LowerError, LoweredModel};

/// Applies the pass to a whole lowered model, planning the temporaries it
/// introduces.
///
/// Results are unchanged (the engine evaluates the hoisted assignments in
/// the same order the functional expressions evaluated); what changes is
/// that every allocation is now a named, planned buffer — the Low-- form
/// proper.
///
/// # Errors
///
/// Returns [`LowerError::UnsupportedAd`]-style errors only for operand
/// shapes the size inference cannot express (not reachable from the
/// generators in this crate).
pub fn make_memory_explicit(lowered: &mut LoweredModel) -> Result<usize, LowerError> {
    let mut hoisted_total = 0;
    let mut new_allocs = Vec::new();
    for p in &mut lowered.procs {
        let mut ctx =
            Hoister { proc_name: p.name.clone(), counter: 0, allocs: Vec::new(), in_loop: 0 };
        let body = std::mem::replace(&mut p.body, Stmt::nop());
        p.body = ctx.stmt(body)?;
        // `ret` expressions are scalar; ops cannot appear there.
        hoisted_total += ctx.counter;
        new_allocs.extend(ctx.allocs);
    }
    lowered.allocs.extend(new_allocs);
    Ok(hoisted_total)
}

struct Hoister {
    proc_name: String,
    counter: usize,
    allocs: Vec<AllocDecl>,
    in_loop: usize,
}

impl Hoister {
    fn stmt(&mut self, s: Stmt) -> Result<Stmt, LowerError> {
        Ok(match s {
            Stmt::Seq(ss) => {
                let mut out = Vec::with_capacity(ss.len());
                for t in ss {
                    out.push(self.stmt(t)?);
                }
                Stmt::Seq(out)
            }
            Stmt::Assign { lhs, op, rhs } => {
                let mut pre = Vec::new();
                let rhs = self.expr(rhs, &mut pre)?;
                wrap(pre, Stmt::Assign { lhs, op, rhs })
            }
            Stmt::If { cond, then, els } => Stmt::If {
                cond,
                then: Box::new(self.stmt(*then)?),
                els: match els {
                    Some(e) => Some(Box::new(self.stmt(*e)?)),
                    None => None,
                },
            },
            Stmt::Loop { kind, var, lo, hi, body } => {
                self.in_loop += 1;
                let body = self.stmt(*body)?;
                self.in_loop -= 1;
                Stmt::Loop { kind, var, lo, hi, body: Box::new(body) }
            }
            Stmt::Sample { lhs, dist, args } => {
                let mut pre = Vec::new();
                let mut new_args = Vec::with_capacity(args.len());
                for a in args {
                    new_args.push(self.expr(a, &mut pre)?);
                }
                wrap(pre, Stmt::Sample { lhs, dist, args: new_args })
            }
            Stmt::SampleLogits { lhs, weights } => {
                let mut pre = Vec::new();
                let weights = self.expr(weights, &mut pre)?;
                wrap(pre, Stmt::SampleLogits { lhs, weights })
            }
        })
    }

    /// Rewrites an expression, hoisting compound-valued ops into `pre`.
    fn expr(&mut self, e: Expr, pre: &mut Vec<Stmt>) -> Result<Expr, LowerError> {
        Ok(match e {
            Expr::Op(op, args) => {
                let mut new_args = Vec::with_capacity(args.len());
                for a in args {
                    new_args.push(self.expr(a, pre)?);
                }
                let shape = op_shape(op, &new_args)?;
                let name = format!("{}_tmp{}", self.proc_name, self.counter);
                self.counter += 1;
                let alloc = if self.in_loop > 0 {
                    AllocDecl::thread_local(&name, shape)
                } else {
                    AllocDecl::shared(&name, shape)
                };
                self.allocs.push(alloc);
                // tmp = op(args) — the side-effecting primitive
                pre.push(Stmt::Assign {
                    lhs: LValue::name(&name),
                    op: AssignOp::Set,
                    rhs: Expr::Op(op, new_args),
                });
                Expr::var(name)
            }
            Expr::Index(a, b) => {
                Expr::Index(Box::new(self.expr(*a, pre)?), Box::new(self.expr(*b, pre)?))
            }
            Expr::Binop(op, a, b) => {
                Expr::Binop(op, Box::new(self.expr(*a, pre)?), Box::new(self.expr(*b, pre)?))
            }
            Expr::Neg(a) => Expr::Neg(Box::new(self.expr(*a, pre)?)),
            Expr::Call(f, args) => {
                let mut out = Vec::with_capacity(args.len());
                for a in args {
                    out.push(self.expr(a, pre)?);
                }
                Expr::Call(f, out)
            }
            Expr::DistLl { dist, args, point } => {
                let mut out = Vec::with_capacity(args.len());
                for a in args {
                    out.push(self.expr(a, pre)?);
                }
                let point = Box::new(self.expr(*point, pre)?);
                Expr::DistLl { dist, args: out, point }
            }
            Expr::DistGradParam { dist, i, args, point } => {
                let mut out = Vec::with_capacity(args.len());
                for a in args {
                    out.push(self.expr(a, pre)?);
                }
                let point = Box::new(self.expr(*point, pre)?);
                Expr::DistGradParam { dist, i, args: out, point }
            }
            Expr::DistGradPoint { dist, args, point } => {
                let mut out = Vec::with_capacity(args.len());
                for a in args {
                    out.push(self.expr(a, pre)?);
                }
                let point = Box::new(self.expr(*point, pre)?);
                Expr::DistGradPoint { dist, args: out, point }
            }
            leaf => leaf,
        })
    }
}

fn wrap(mut pre: Vec<Stmt>, last: Stmt) -> Stmt {
    if pre.is_empty() {
        last
    } else {
        pre.push(last);
        Stmt::Seq(pre)
    }
}

/// Shape of an op's result, in terms of its (already-hoisted) operands.
fn op_shape(op: OpN, args: &[Expr]) -> Result<ShapeSpec, LowerError> {
    let vec_of = |e: &Expr| -> Result<ShapeSpec, LowerError> {
        Ok(ShapeSpec::Vec(SizeExpr::LenOf(to_dexpr(e)?)))
    };
    let mat_of = |e: &Expr| -> Result<ShapeSpec, LowerError> {
        Ok(ShapeSpec::Mat(SizeExpr::DimOf(to_dexpr(e)?)))
    };
    Ok(match op {
        OpN::VecAdd | OpN::VecSub => vec_of(&args[0])?,
        OpN::VecScale => vec_of(&args[1])?,
        OpN::MatAdd | OpN::MatInv => mat_of(&args[0])?,
        OpN::MatScale => mat_of(&args[1])?,
        OpN::MatVec => {
            // result length = matrix dimension
            ShapeSpec::Vec(SizeExpr::DimOf(to_dexpr(&args[0])?))
        }
        OpN::OuterSub => {
            // (a − b)(a − b)ᵀ: square in len(a)
            let d = to_dexpr(&args[0])?;
            ShapeSpec::Mat(SizeExpr::LenOf(d))
        }
    })
}

/// Converts the shape-relevant fragment of a Low expression back into a
/// model expression so size inference can evaluate it at setup time.
fn to_dexpr(e: &Expr) -> Result<DExpr, LowerError> {
    Ok(match e {
        Expr::Var(n) => DExpr::var(n),
        Expr::Int(v) => DExpr::Int(*v),
        Expr::Real(v) => DExpr::Real(*v),
        Expr::Index(a, b) => DExpr::index(to_dexpr(a)?, to_dexpr(b)?),
        Expr::Binop(op, a, b) => DExpr::Binop(*op, Box::new(to_dexpr(a)?), Box::new(to_dexpr(b)?)),
        Expr::Neg(a) => DExpr::Neg(Box::new(to_dexpr(a)?)),
        Expr::Call(f, args) => {
            let mut out = Vec::with_capacity(args.len());
            for a in args {
                out.push(to_dexpr(a)?);
            }
            DExpr::Call(*f, out)
        }
        other => {
            return Err(LowerError::UnsupportedAd {
                expr: format!("size inference over {other:?}"),
            })
        }
    })
}

// Re-exported for the doc comment above; silences the unused-import lint
// when the crate is built without this pass engaged.
const _: Option<(DistKind, Builtin)> = None;

#[cfg(test)]
mod tests {
    use super::*;
    use augur_kernel::{heuristic_schedule, plan};
    use augur_lang::{parse, typecheck};

    const HGMM: &str = r#"(K, N, alpha, mu_0, Sigma_0, nu, Psi) => {
        param pi ~ Dirichlet(alpha) ;
        param mu[k] ~ MvNormal(mu_0, Sigma_0) for k <- 0 until K ;
        param Sigma[k] ~ InvWishart(nu, Psi) for k <- 0 until K ;
        param z[n] ~ Categorical(pi) for n <- 0 until N ;
        data y[n] ~ MvNormal(mu[z[n]], Sigma[z[n]]) for n <- 0 until N ;
    }"#;

    fn lower_hgmm() -> LoweredModel {
        let dm =
            augur_density::DensityModel::from_typed(&typecheck(&parse(HGMM).unwrap()).unwrap())
                .unwrap();
        let sched = heuristic_schedule(&dm).unwrap();
        crate::lower(&dm, &plan(&dm, &sched).unwrap()).unwrap()
    }

    #[test]
    fn pass_hoists_every_functional_primitive() {
        let mut lm = lower_hgmm();
        let before_allocs = lm.allocs.len();
        let hoisted = make_memory_explicit(&mut lm).unwrap();
        assert!(hoisted > 0, "the MvNormal posterior uses mat_inv/mat_vec");
        assert_eq!(lm.allocs.len(), before_allocs + hoisted);
        // no Op expression survives in any statement's value position
        // except as the top-level rhs of its own temp assignment
        fn check_expr(e: &Expr, at_top: bool) {
            match e {
                Expr::Op(_, args) => {
                    assert!(at_top, "nested functional primitive survived: {e:?}");
                    for a in args {
                        check_expr(a, false);
                    }
                }
                Expr::Index(a, b) | Expr::Binop(_, a, b) => {
                    check_expr(a, false);
                    check_expr(b, false);
                }
                Expr::Neg(a) | Expr::Len(a) => check_expr(a, false),
                Expr::Call(_, args) => args.iter().for_each(|a| check_expr(a, false)),
                Expr::DistLl { args, point, .. }
                | Expr::DistGradParam { args, point, .. }
                | Expr::DistGradPoint { args, point, .. } => {
                    args.iter().for_each(|a| check_expr(a, false));
                    check_expr(point, false);
                }
                _ => {}
            }
        }
        fn check_stmt(s: &Stmt) {
            match s {
                Stmt::Seq(ss) => ss.iter().for_each(check_stmt),
                Stmt::Assign { rhs, .. } => check_expr(rhs, true),
                Stmt::If { then, els, .. } => {
                    check_stmt(then);
                    if let Some(e) = els {
                        check_stmt(e);
                    }
                }
                Stmt::Loop { body, .. } => check_stmt(body),
                Stmt::Sample { args, .. } => args.iter().for_each(|a| check_expr(a, false)),
                Stmt::SampleLogits { weights, .. } => check_expr(weights, false),
            }
        }
        for p in &lm.procs {
            check_stmt(&p.body);
        }
    }

    #[test]
    fn temporaries_in_loops_are_thread_local() {
        let mut lm = lower_hgmm();
        let before = lm.allocs.len();
        make_memory_explicit(&mut lm).unwrap();
        // the posterior-sampling loop hoists per-slice matrix temps
        let loop_temps: Vec<_> = lm.allocs[before..]
            .iter()
            .filter(|a| a.kind == crate::shape::AllocKind::ThreadLocal)
            .collect();
        assert!(!loop_temps.is_empty(), "per-slice temporaries should be thread-local");
    }

    #[test]
    fn emitted_code_shows_explicit_temporaries() {
        let mut lm = lower_hgmm();
        make_memory_explicit(&mut lm).unwrap();
        let gibbs_mu = lm.procs.iter().find(|p| p.name == "u1_gibbs").unwrap();
        let s = crate::il::pretty_proc(gibbs_mu);
        // mat_inv now lands in a named temporary before the sample
        assert!(s.contains("u1_gibbs_tmp"), "{s}");
        assert!(s.contains("= mat_inv(Sigma_0);") || s.contains("= mat_inv(Sigma[k]);"), "{s}");
    }
}
