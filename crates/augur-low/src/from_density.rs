//! Translation helpers from the Density IL into Low++ code.

use augur_density::{Comp, DExpr, Factor};
use augur_dist::DistKind;
use augur_lang::ast::Builtin;

use crate::il::{AssignOp, Cond, Expr, LValue, LoopKind, Stmt};

/// Converts a Density-IL expression into a Low++ expression (they share
/// structure; this is the `α`-instantiation boundary).
pub fn lower_expr(e: &DExpr) -> Expr {
    match e {
        DExpr::Var(n) => Expr::Var(n.clone()),
        DExpr::Int(v) => Expr::Int(*v),
        DExpr::Real(v) => Expr::Real(*v),
        DExpr::Index(a, b) => Expr::index(lower_expr(a), lower_expr(b)),
        DExpr::Call(f, args) => Expr::Call(*f, args.iter().map(lower_expr).collect()),
        DExpr::Binop(op, a, b) => {
            Expr::Binop(*op, Box::new(lower_expr(a)), Box::new(lower_expr(b)))
        }
        DExpr::Neg(a) => Expr::Neg(Box::new(lower_expr(a))),
    }
}

/// The stabilized view of a factor's atom: `Bernoulli(sigmoid(e))` is
/// rewritten to `BernoulliLogit(e)` so log-densities and gradients are
/// computed in the logit domain (the standard trick Stan users apply by
/// hand; here it is a peephole of the lowering).
pub fn stabilized_atom(f: &Factor) -> (DistKind, Vec<DExpr>) {
    if f.dist == DistKind::Bernoulli {
        if let [DExpr::Call(Builtin::Sigmoid, inner)] = f.args.as_slice() {
            return (DistKind::BernoulliLogit, vec![inner[0].clone()]);
        }
    }
    (f.dist, f.args.clone())
}

/// Builds the `ll` expression of a factor's atom.
pub fn atom_ll(f: &Factor) -> Expr {
    let (dist, args) = stabilized_atom(f);
    Expr::DistLl {
        dist,
        args: args.iter().map(lower_expr).collect(),
        point: Box::new(lower_expr(&f.point)),
    }
}

/// Wraps a statement in the factor's indicator conditions (innermost
/// last).
pub fn wrap_inds(f: &Factor, body: Stmt) -> Stmt {
    let mut out = body;
    for (l, r) in f.inds.iter().rev() {
        out = Stmt::If {
            cond: Cond::Eq(lower_expr(l), lower_expr(r)),
            then: Box::new(out),
            els: None,
        };
    }
    out
}

/// Wraps a statement in the given comprehensions (outermost first) with
/// the given loop annotation.
pub fn wrap_comps(comps: &[Comp], kind: LoopKind, body: Stmt) -> Stmt {
    let mut out = body;
    for c in comps.iter().rev() {
        out = Stmt::Loop {
            kind,
            var: c.var.clone(),
            lo: lower_expr(&c.lo),
            hi: lower_expr(&c.hi),
            body: Box::new(out),
        };
    }
    out
}

/// `acc += ll`: one term of a factor's log-likelihood, at one point of
/// its comprehensions.
pub fn ll_inc(f: &Factor, acc: &str) -> Stmt {
    Stmt::Assign { lhs: LValue::name(acc), op: AssignOp::Inc, rhs: atom_ll(f) }
}

/// Builds the statement that accumulates a factor's log-likelihood into
/// `acc`: the paper's map-reduce reification of a likelihood (§4.4),
/// annotated `AtmPar` because the increments must be atomic when
/// parallelized.
pub fn factor_ll_stmt(f: &Factor, acc: &str) -> Stmt {
    wrap_comps(&f.comps, LoopKind::AtmPar, wrap_inds(f, ll_inc(f, acc)))
}

/// Builds a whole log-likelihood procedure body over several factors,
/// accumulating into `acc` (which is reset first).
pub fn factors_ll_body(factors: &[&Factor], acc: &str) -> Stmt {
    let mut stmts =
        vec![Stmt::Assign { lhs: LValue::name(acc), op: AssignOp::Set, rhs: Expr::Real(0.0) }];
    for f in factors {
        stmts.push(factor_ll_stmt(f, acc));
    }
    Stmt::seq(stmts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_density::DensityModel;
    use augur_lang::{parse, typecheck};

    fn gmm() -> DensityModel {
        let src = r#"(K, N, mu_0, Sigma_0, pis, Sigma) => {
            param mu[k] ~ MvNormal(mu_0, Sigma_0) for k <- 0 until K ;
            param z[n] ~ Categorical(pis) for n <- 0 until N ;
            data x[n] ~ MvNormal(mu[z[n]], Sigma) for n <- 0 until N ;
        }"#;
        DensityModel::from_typed(&typecheck(&parse(src).unwrap()).unwrap()).unwrap()
    }

    #[test]
    fn factor_ll_reifies_comprehension_as_atmpar_loop() {
        let dm = gmm();
        let s = factor_ll_stmt(&dm.factors[2], "__ll");
        let p = crate::il::pretty_stmt(&s, 0);
        assert!(p.contains("loop AtmPar (n <- 0 until N)"), "{p}");
        assert!(p.contains("__ll += MvNormal(mu[z[n]], Sigma).ll(x[n]);"), "{p}");
    }

    #[test]
    fn indicators_become_guards() {
        let dm = gmm();
        let cond = augur_density::conditional(&dm, &["mu"]);
        let lik = cond.likelihoods().next().unwrap();
        let s = factor_ll_stmt(&lik.factor, "__ll");
        let p = crate::il::pretty_stmt(&s, 0);
        assert!(p.contains("if (k == z[n])"), "{p}");
        assert!(p.contains("loop AtmPar (k <- 0 until K)"), "{p}");
    }

    #[test]
    fn bernoulli_sigmoid_is_stabilized() {
        let src = r#"(lambda, N, D, x) => {
            param theta[j] ~ Normal(0.0, lambda) for j <- 0 until D ;
            data y[n] ~ Bernoulli(sigmoid(dot(x[n], theta))) for n <- 0 until N ;
        }"#;
        let dm = DensityModel::from_typed(&typecheck(&parse(src).unwrap()).unwrap()).unwrap();
        let (dist, args) = stabilized_atom(&dm.factors[1]);
        assert_eq!(dist, DistKind::BernoulliLogit);
        assert_eq!(format!("{}", args[0]), "dot(x[n], theta)");
    }

    #[test]
    fn ll_body_resets_accumulator() {
        let dm = gmm();
        let refs: Vec<&augur_density::Factor> = dm.factors.iter().collect();
        let body = factors_ll_body(&refs, "__ll");
        let p = crate::il::pretty_stmt(&body, 0);
        assert!(p.starts_with("__ll = 0.0;"), "{p}");
        assert_eq!(p.matches("loop AtmPar").count(), 3);
    }
}
