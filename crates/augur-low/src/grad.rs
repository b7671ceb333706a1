//! Source-to-source reverse-mode automatic differentiation (paper §4.4,
//! Fig. 8).
//!
//! The adjoint of a density function is built directly from the Density IL:
//! every comprehension product becomes an `AtmPar` loop (parallel
//! comprehensions are order-independent, so no reversal stack is needed —
//! the optimization the paper highlights), and every atom contributes
//! `adj += adj_ll * dist.grad_i(...)` increments through the chain rule of
//! its argument expressions. Gradient accumulations are *atomic
//! increments*; whether they stay atomic or become a summation block is
//! decided later by the Blk-IL optimizer (§5.4).

use augur_density::{CondFactor, Conditional, DExpr};
use augur_lang::ast::{BinOp, Builtin};

use crate::from_density::{ll_inc, lower_expr, stabilized_atom, wrap_comps, wrap_inds};
use crate::il::{AssignOp, Expr, LValue, LoopKind, OpN, ProcDecl, Stmt};
use crate::shape::{AllocDecl, ShapeSpec};
use crate::LowerError;

/// The adjoint buffer name for a target variable.
pub fn adj_name(prefix: &str, var: &str) -> String {
    format!("{prefix}_adj_{var}")
}

/// Generates the gradient procedure for a conditional with respect to
/// `targets`, together with the adjoint buffers it writes (one per target,
/// shaped like the target).
///
/// With a log-density accumulator `ll_acc` the procedure also computes
/// the conditional log-density, in the same pass (reverse-mode AD yields
/// the value with its adjoints): it resets `ll_acc` with the adjoints,
/// opens each factor's guarded body with the factor's `ll_acc += ll` term
/// (the increments `factors_ll_body` makes, in its order), and returns
/// `ll_acc`. The accumulator's buffer is the caller's to plan.
///
/// # Errors
///
/// Returns [`LowerError::UnsupportedAd`] when an expression mentioning a
/// target falls outside the differentiable fragment.
pub fn gen_grad_proc(
    prefix: &str,
    proc_name: &str,
    cond: &Conditional,
    targets: &[String],
    ll_acc: Option<&str>,
) -> Result<(Vec<AllocDecl>, ProcDecl), LowerError> {
    let mut allocs = Vec::new();
    // Reset: broadcast stores of 0.0 over the accumulator and every
    // adjoint buffer.
    let reset = |var: &str| Stmt::Assign {
        lhs: LValue::name(var),
        op: AssignOp::Set,
        rhs: Expr::Real(0.0),
    };
    let mut stmts: Vec<Stmt> = ll_acc.into_iter().map(reset).collect();
    for t in targets {
        let name = adj_name(prefix, t);
        allocs.push(AllocDecl::shared(&name, ShapeSpec::LikeVar(t.clone())));
        stmts.push(reset(&name));
    }
    for cf in &cond.factors {
        stmts.push(factor_adjoint(prefix, cf, targets, ll_acc)?);
    }
    let proc_ =
        ProcDecl { name: proc_name.to_owned(), body: Stmt::seq(stmts), ret: ll_acc.map(Expr::var) };
    Ok((allocs, proc_))
}

/// The adjoint of one factor: loops, guards, and per-atom chain-rule
/// increments (Fig. 8b's `Π` rule composed with Fig. 8a's expression
/// rules), after the factor's `ll_acc += ll` term when there is an
/// accumulator.
fn factor_adjoint(
    prefix: &str,
    cf: &CondFactor,
    targets: &[String],
    ll_acc: Option<&str>,
) -> Result<Stmt, LowerError> {
    let f = &cf.factor;
    let (dist, args) = stabilized_atom(f);
    let largs: Vec<Expr> = args.iter().map(lower_expr).collect();
    let lpoint = lower_expr(&f.point);

    let mut body: Vec<Stmt> = ll_acc.map(|acc| ll_inc(f, acc)).into_iter().collect();
    for (i, arg) in args.iter().enumerate() {
        if !mentions_any(arg, targets) {
            continue;
        }
        let seed =
            Expr::DistGradParam { dist, i, args: largs.clone(), point: Box::new(lpoint.clone()) };
        adj_expr(prefix, arg, seed, targets, &mut body)?;
    }
    if mentions_any(&f.point, targets) {
        let seed =
            Expr::DistGradPoint { dist, args: largs.clone(), point: Box::new(lpoint.clone()) };
        adj_expr(prefix, &f.point, seed, targets, &mut body)?;
    }
    let guarded = wrap_inds(f, Stmt::seq(body));
    Ok(wrap_comps(&f.comps, LoopKind::AtmPar, guarded))
}

fn mentions_any(e: &DExpr, targets: &[String]) -> bool {
    targets.iter().any(|t| e.mentions(t))
}

/// Root variable of an index chain, if the expression is one.
fn chain_root(e: &DExpr) -> Option<&str> {
    match e {
        DExpr::Var(n) => Some(n),
        DExpr::Index(base, _) => chain_root(base),
        _ => None,
    }
}

/// The Fig. 8a adjoint translation: pushes `seed` (the partial derivative
/// flowing into `e`) down to target leaves, emitting atomic increments.
fn adj_expr(
    prefix: &str,
    e: &DExpr,
    seed: Expr,
    targets: &[String],
    out: &mut Vec<Stmt>,
) -> Result<(), LowerError> {
    if !mentions_any(e, targets) {
        return Ok(()); // ∂e/∂target = 0 — nothing flows
    }
    // Leaf: an index chain rooted at a target → adj_t[idx…] += seed.
    if let Some(root) = chain_root(e) {
        if targets.iter().any(|t| t == root) {
            let mut indices = Vec::new();
            collect_chain_indices(e, &mut indices);
            out.push(Stmt::Assign {
                lhs: LValue { var: adj_name(prefix, root), indices },
                op: AssignOp::Inc,
                rhs: seed,
            });
            return Ok(());
        }
        // A chain rooted at a non-target that nevertheless mentions a
        // target can only do so through its *indices* (e.g. `mu[z[n]]`
        // when differentiating w.r.t. z) — discrete, no gradient flows.
        return Ok(());
    }
    match e {
        DExpr::Binop(BinOp::Add, a, b) => {
            adj_expr(prefix, a, seed.clone(), targets, out)?;
            adj_expr(prefix, b, seed, targets, out)
        }
        DExpr::Binop(BinOp::Sub, a, b) => {
            adj_expr(prefix, a, seed.clone(), targets, out)?;
            adj_expr(prefix, b, Expr::Neg(Box::new(seed)), targets, out)
        }
        DExpr::Binop(BinOp::Mul, a, b) => {
            adj_expr(prefix, a, mul(seed.clone(), lower_expr(b)), targets, out)?;
            adj_expr(prefix, b, mul(seed, lower_expr(a)), targets, out)
        }
        DExpr::Binop(BinOp::Div, a, b) => {
            adj_expr(prefix, a, div(seed.clone(), lower_expr(b)), targets, out)?;
            let lb = lower_expr(b);
            adj_expr(
                prefix,
                b,
                Expr::Neg(Box::new(div(mul(seed, lower_expr(a)), mul(lb.clone(), lb)))),
                targets,
                out,
            )
        }
        DExpr::Neg(a) => adj_expr(prefix, a, Expr::Neg(Box::new(seed)), targets, out),
        DExpr::Call(Builtin::Sigmoid, args) => {
            // σ'(x) = σ(x)(1 − σ(x))
            let s = Expr::Call(Builtin::Sigmoid, vec![lower_expr(&args[0])]);
            let deriv =
                mul(s.clone(), Expr::Binop(BinOp::Sub, Box::new(Expr::Real(1.0)), Box::new(s)));
            adj_expr(prefix, &args[0], mul(seed, deriv), targets, out)
        }
        DExpr::Call(Builtin::Exp, args) => {
            let deriv = Expr::Call(Builtin::Exp, vec![lower_expr(&args[0])]);
            adj_expr(prefix, &args[0], mul(seed, deriv), targets, out)
        }
        DExpr::Call(Builtin::Log, args) => {
            adj_expr(prefix, &args[0], div(seed, lower_expr(&args[0])), targets, out)
        }
        DExpr::Call(Builtin::Sqrt, args) => {
            let deriv = div(Expr::Real(0.5), Expr::Call(Builtin::Sqrt, vec![lower_expr(&args[0])]));
            adj_expr(prefix, &args[0], mul(seed, deriv), targets, out)
        }
        DExpr::Call(Builtin::Dot, args) => {
            // ∂(u·v)/∂u = v (and symmetrically): seed scales the other side.
            for (this, other) in [(&args[0], &args[1]), (&args[1], &args[0])] {
                if !mentions_any(this, targets) {
                    continue;
                }
                let root = chain_root(this)
                    .ok_or_else(|| LowerError::UnsupportedAd { expr: format!("{this}") })?;
                if !targets.iter().any(|t| t == root) {
                    continue;
                }
                let mut indices = Vec::new();
                collect_chain_indices(this, &mut indices);
                out.push(Stmt::Assign {
                    lhs: LValue { var: adj_name(prefix, root), indices },
                    op: AssignOp::Inc,
                    rhs: Expr::Op(OpN::VecScale, vec![seed.clone(), lower_expr(other)]),
                });
            }
            Ok(())
        }
        other => Err(LowerError::UnsupportedAd { expr: format!("{other}") }),
    }
}

fn collect_chain_indices(e: &DExpr, out: &mut Vec<Expr>) {
    if let DExpr::Index(base, idx) = e {
        collect_chain_indices(base, out);
        out.push(lower_expr(idx));
    }
}

fn mul(a: Expr, b: Expr) -> Expr {
    Expr::Binop(BinOp::Mul, Box::new(a), Box::new(b))
}
fn div(a: Expr, b: Expr) -> Expr {
    Expr::Binop(BinOp::Div, Box::new(a), Box::new(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_density::{conditional, DensityModel};
    use augur_lang::{parse, typecheck};

    fn build(src: &str) -> DensityModel {
        DensityModel::from_typed(&typecheck(&parse(src).unwrap()).unwrap()).unwrap()
    }

    #[test]
    fn gmm_mu_gradient_matches_paper_excerpt() {
        let dm = build(
            r#"(K, N, mu_0, Sigma_0, pis, Sigma) => {
            param mu[k] ~ MvNormal(mu_0, Sigma_0) for k <- 0 until K ;
            param z[n] ~ Categorical(pis) for n <- 0 until N ;
            data x[n] ~ MvNormal(mu[z[n]], Sigma) for n <- 0 until N ;
        }"#,
        );
        let cond = conditional(&dm, &["mu"]);
        let (allocs, p) = gen_grad_proc("g0", "g0_grad", &cond, &["mu".to_owned()], None).unwrap();
        let s = crate::il::pretty_proc(&p);
        // the paper's §4.4 excerpt: an AtmPar loop over n incrementing
        // adj_mu[z[n]] with the mean-gradient of the likelihood
        assert!(s.contains("loop AtmPar (n <- 0 until N)"), "{s}");
        assert!(s.contains("g0_adj_mu[z[n]] += MvNormal(mu[z[n]], Sigma).grad2(x[n]);"), "{s}");
        // prior contributes through its point
        assert!(s.contains("g0_adj_mu[k] += MvNormal(mu_0, Sigma_0).grad1(mu[k]);"), "{s}");
        assert_eq!(allocs.len(), 1);
        assert!(matches!(allocs[0].shape, ShapeSpec::LikeVar(_)));
    }

    #[test]
    fn hlr_block_gradient_covers_all_targets() {
        let dm = build(
            r#"(lambda, N, D, x) => {
            param sigma2 ~ Exponential(lambda) ;
            param b ~ Normal(0.0, sigma2) ;
            param theta[j] ~ Normal(0.0, sigma2) for j <- 0 until D ;
            data y[n] ~ Bernoulli(sigmoid(dot(x[n], theta) + b)) for n <- 0 until N ;
        }"#,
        );
        let targets = vec!["sigma2".to_owned(), "b".to_owned(), "theta".to_owned()];
        let cond = conditional(&dm, &["sigma2", "b", "theta"]);
        let (allocs, p) = gen_grad_proc("g1", "g1_grad", &cond, &targets, None).unwrap();
        let s = crate::il::pretty_proc(&p);
        // the likelihood lowered to the stable logit form
        assert!(!s.contains("BernoulliLogit(dot(x[n], theta)).grad2(y[n])"), "{s}");
        assert!(s.contains("BernoulliLogit((dot(x[n], theta) + b)).grad2(y[n])"), "{s}");
        // chain rule into theta via the dot product
        assert!(s.contains("g1_adj_theta += vec_scale("), "{s}");
        // chain rule into b
        assert!(s.contains("g1_adj_b += "), "{s}");
        // variance gradient from both priors — the contended increment of
        // the paper's summation-block example (§5.4)
        assert!(s.contains("g1_adj_sigma2 += Normal(0.0, sigma2).grad3(theta[j]);"), "{s}");
        assert_eq!(allocs.len(), 3);
    }

    #[test]
    fn discrete_index_does_not_leak_gradient() {
        let dm = build(
            r#"(K, N, mu_0, s0, pis, s) => {
            param mu[k] ~ Normal(mu_0, s0) for k <- 0 until K ;
            param z[n] ~ Categorical(pis) for n <- 0 until N ;
            data x[n] ~ Normal(mu[z[n]], s) for n <- 0 until N ;
        }"#,
        );
        // Differentiate w.r.t. z (nonsensical but must be *silent*, not
        // wrong): no increments should be produced for the z adjoint from
        // the likelihood's mean (z enters only through an index).
        let cond = conditional(&dm, &["mu"]);
        let (_, p) = gen_grad_proc("g2", "g2_grad", &cond, &["mu".to_owned()], None).unwrap();
        let s = crate::il::pretty_proc(&p);
        assert!(!s.contains("adj_z"), "{s}");
    }

    #[test]
    fn exp_and_log_chain_rules() {
        let dm = build(
            r#"(N, s2) => {
            param a ~ Normal(0.0, 1.0) ;
            data y[n] ~ Normal(exp(a), s2) for n <- 0 until N ;
        }"#,
        );
        let cond = conditional(&dm, &["a"]);
        let (_, p) = gen_grad_proc("g3", "g3_grad", &cond, &["a".to_owned()], None).unwrap();
        let s = crate::il::pretty_proc(&p);
        assert!(s.contains("g3_adj_a += (Normal(exp(a), s2).grad2(y[n]) * exp(a));"), "{s}");
    }
}
