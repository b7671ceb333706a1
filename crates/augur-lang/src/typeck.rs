//! Type checking and model restrictions (paper §2.2, Fig. 4).
//!
//! Beyond standard type inference, this pass enforces AugurV2's two model
//! restrictions:
//!
//! 1. **Fixed structure** — comprehension bounds may mention only model
//!    arguments and enclosing comprehension variables, never model
//!    parameters. This is what lets the backend bound memory statically
//!    (§5.2).
//! 2. **Primitive distributions only** — guaranteed syntactically, since
//!    the parser resolves distribution names against
//!    [`augur_dist::DistKind`].
//!
//! It also enforces declaration ordering (a Bayesian network must be
//! acyclic: declarations reference only earlier declarations) and that
//! subscripts match comprehension variables exactly.

use std::collections::HashMap;

use augur_dist::SimpleTy;

use crate::ast::{Builtin, Decl, DeclRhs, Expr, Ident, Model};
use crate::error::LangError;
use crate::ty::{Ty, Unifier};

/// The result of type checking: the model plus resolved types for every
/// argument and declared variable.
#[derive(Debug, Clone)]
pub struct TypedModel {
    /// The (unchanged) model AST.
    pub model: Model,
    /// Resolved type of each model argument and declared variable.
    pub var_tys: HashMap<String, Ty>,
}

impl TypedModel {
    /// The resolved type of a variable.
    ///
    /// # Panics
    ///
    /// Panics if the name is not an argument or declaration of the model.
    pub fn ty(&self, name: &str) -> &Ty {
        self.var_tys.get(name).unwrap_or_else(|| panic!("no such model variable `{name}`"))
    }

    /// One-line structural summary for explain plans:
    /// `args=7 params=4 data=1`.
    pub fn summary(&self) -> String {
        format!(
            "args={} params={} data={}",
            self.model.args.len(),
            self.model.params().count(),
            self.model.data().count()
        )
    }
}

/// Type checks a parsed model.
///
/// # Errors
///
/// Returns the first violation found: scope errors, type mismatches,
/// subscript/comprehension mismatches, or a fixed-structure violation.
pub fn typecheck(model: &Model) -> Result<TypedModel, LangError> {
    let mut ck = Checker { u: Unifier::new(), tys: HashMap::new() };

    // Introduce all arguments with fresh types.
    for arg in &model.args {
        if ck.tys.contains_key(&arg.name) {
            return Err(LangError::ty(
                format!("duplicate model argument `{}`", arg.name),
                Some(arg.span),
            ));
        }
        let v = ck.u.fresh();
        ck.tys.insert(arg.name.clone(), v);
    }

    for (i, decl) in model.decls.iter().enumerate() {
        ck.check_decl(model, i, decl)?;
    }

    let var_tys = ck.tys.iter().map(|(name, ty)| (name.clone(), ck.u.finalize(ty))).collect();
    Ok(TypedModel { model: model.clone(), var_tys })
}

struct Checker {
    u: Unifier,
    /// Types of model args and of declarations seen so far.
    tys: HashMap<String, Ty>,
}

/// Per-declaration lexical scope: the comprehension variables.
type LoopScope = HashMap<String, ()>;

impl Checker {
    fn check_decl(&mut self, model: &Model, index: usize, decl: &Decl) -> Result<(), LangError> {
        if self.tys.contains_key(&decl.lhs.name) {
            return Err(LangError::ty(
                format!("`{}` is declared twice", decl.lhs.name),
                Some(decl.lhs.span),
            ));
        }

        // Subscripts must be exactly the comprehension variables, in order.
        if decl.subscripts.len() != decl.gens.len() {
            return Err(LangError::ty(
                format!(
                    "`{}` has {} subscript(s) but {} comprehension(s)",
                    decl.lhs.name,
                    decl.subscripts.len(),
                    decl.gens.len()
                ),
                Some(decl.lhs.span),
            ));
        }
        for (sub, gen) in decl.subscripts.iter().zip(&decl.gens) {
            if sub.name != gen.var.name {
                return Err(LangError::ty(
                    format!(
                        "subscript `{}` does not match comprehension variable `{}`",
                        sub.name, gen.var.name
                    ),
                    Some(sub.span),
                ));
            }
        }

        // Comprehension bounds: Int-typed, and fixed-structure.
        let mut loops = LoopScope::new();
        for gen in &decl.gens {
            self.check_bound_fixed_structure(model, index, &gen.lo, &loops)?;
            self.check_bound_fixed_structure(model, index, &gen.hi, &loops)?;
            let lo_ty = self.infer_expr(&gen.lo, &loops)?;
            let hi_ty = self.infer_expr(&gen.hi, &loops)?;
            self.expect(&Ty::INT, &lo_ty, gen.lo.span())?;
            self.expect(&Ty::INT, &hi_ty, gen.hi.span())?;
            if loops.insert(gen.var.name.clone(), ()).is_some() {
                return Err(LangError::ty(
                    format!("duplicate comprehension variable `{}`", gen.var.name),
                    Some(gen.var.span),
                ));
            }
        }

        // The point type of the declaration.
        let point_ty = match &decl.rhs {
            DeclRhs::Dist(call) => {
                // Check each distribution argument against its signature.
                let expected = call.dist.param_tys();
                if call.args.len() != expected.len() {
                    return Err(LangError::ty(
                        format!(
                            "{} expects {} parameter(s), got {}",
                            call.dist,
                            expected.len(),
                            call.args.len()
                        ),
                        Some(call.span),
                    ));
                }
                for (arg, &sig) in call.args.iter().zip(expected) {
                    let arg_ty = self.infer_expr(arg, &loops)?;
                    let want = simple_to_ty(sig);
                    self.coerce(&want, &arg_ty, arg.span())?;
                }
                simple_to_ty(call.dist.point_ty())
            }
            DeclRhs::Det(expr) => self.infer_expr(expr, &loops)?,
        };

        let full_ty = point_ty.vec_of(decl.gens.len());
        self.tys.insert(decl.lhs.name.clone(), full_ty);
        Ok(())
    }

    /// Fixed-structure restriction: a comprehension bound may reference
    /// only model arguments and enclosing comprehension variables.
    fn check_bound_fixed_structure(
        &self,
        model: &Model,
        decl_index: usize,
        bound: &Expr,
        loops: &LoopScope,
    ) -> Result<(), LangError> {
        let mut err = None;
        bound.visit_vars(&mut |id: &Ident| {
            if err.is_some() || loops.contains_key(&id.name) {
                return;
            }
            if model.args.iter().any(|a| a.name == id.name) {
                return;
            }
            // Anything declared in the model body is off-limits in bounds.
            let declared = model.decls[..decl_index]
                .iter()
                .chain(model.decls[decl_index..].iter())
                .any(|d| d.lhs.name == id.name);
            let what = if declared { "model parameter" } else { "unknown variable" };
            err = Some(LangError::ty(
                format!(
                    "comprehension bound mentions {what} `{}`; bounds may only use model \
                     arguments and enclosing comprehension variables (fixed-structure restriction)",
                    id.name
                ),
                Some(id.span),
            ));
        });
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn expect(
        &mut self,
        expected: &Ty,
        actual: &Ty,
        span: crate::token::Span,
    ) -> Result<(), LangError> {
        self.u.unify(expected, actual).map_err(|m| LangError::ty(m, Some(span)))
    }

    fn coerce(
        &mut self,
        expected: &Ty,
        actual: &Ty,
        span: crate::token::Span,
    ) -> Result<(), LangError> {
        self.u.coerce_numeric(expected, actual).map_err(|m| LangError::ty(m, Some(span)))
    }

    fn infer_expr(&mut self, expr: &Expr, loops: &LoopScope) -> Result<Ty, LangError> {
        match expr {
            Expr::Var(id) => {
                if loops.contains_key(&id.name) {
                    return Ok(Ty::INT);
                }
                match self.tys.get(&id.name) {
                    Some(t) => Ok(t.clone()),
                    None => Err(LangError::ty(
                        format!("undefined variable `{}`", id.name),
                        Some(id.span),
                    )),
                }
            }
            Expr::Int(..) => Ok(Ty::INT),
            Expr::Real(..) => Ok(Ty::REAL),
            Expr::Index(base, idx, span) => {
                let idx_ty = self.infer_expr(idx, loops)?;
                self.expect(&Ty::INT, &idx_ty, idx.span())?;
                let base_ty = self.infer_expr(base, loops)?;
                let elem = self.u.fresh();
                let vec_ty = Ty::Vec(Box::new(elem.clone()));
                self.u.unify(&vec_ty, &base_ty).map_err(|m| {
                    LangError::ty(format!("indexing a non-vector: {m}"), Some(*span))
                })?;
                Ok(elem)
            }
            Expr::Call(builtin, args, span) => match builtin {
                Builtin::Sigmoid | Builtin::Exp | Builtin::Log | Builtin::Sqrt => {
                    let t = self.infer_expr(&args[0], loops)?;
                    self.coerce(&Ty::REAL, &t, args[0].span())?;
                    Ok(Ty::REAL)
                }
                Builtin::Dot => {
                    // either argument may be a vector of reals or of
                    // integers (e.g. binary hidden units of a sigmoid
                    // belief network)
                    for arg in &args[..2] {
                        let t = self.infer_expr(arg, loops)?;
                        let resolved = self.u.resolve(&t);
                        if resolved == Ty::INT.vec_of(1) {
                            continue;
                        }
                        self.expect(&Ty::REAL.vec_of(1), &t, arg.span())?;
                    }
                    let _ = span;
                    Ok(Ty::REAL)
                }
            },
            Expr::Binop(_, a, b, span) => {
                let ta = self.infer_expr(a, loops)?;
                let tb = self.infer_expr(b, loops)?;
                let (ra, rb) = (self.u.resolve(&ta), self.u.resolve(&tb));
                if ra == Ty::INT && rb == Ty::INT {
                    return Ok(Ty::INT);
                }
                // Mixed or unresolved numeric: default to Real.
                self.coerce(&Ty::REAL, &ra, *span)?;
                self.coerce(&Ty::REAL, &rb, *span)?;
                Ok(Ty::REAL)
            }
            Expr::Neg(inner, _) => {
                let t = self.infer_expr(inner, loops)?;
                let r = self.u.resolve(&t);
                if r == Ty::INT {
                    Ok(Ty::INT)
                } else {
                    self.coerce(&Ty::REAL, &r, inner.span())?;
                    Ok(Ty::REAL)
                }
            }
        }
    }
}

fn simple_to_ty(s: SimpleTy) -> Ty {
    match s {
        SimpleTy::Int => Ty::INT,
        SimpleTy::Real => Ty::REAL,
        SimpleTy::Vec => Ty::REAL.vec_of(1),
        SimpleTy::Mat => Ty::Mat,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    const GMM: &str = r#"
        (K, N, mu_0, Sigma_0, pis, Sigma) => {
          param mu[k] ~ MvNormal(mu_0, Sigma_0) for k <- 0 until K ;
          param z[n] ~ Categorical(pis) for n <- 0 until N ;
          data x[n] ~ MvNormal(mu[z[n]], Sigma) for n <- 0 until N ;
        }"#;

    #[test]
    fn gmm_types_resolve() {
        let tm = typecheck(&parse(GMM).unwrap()).unwrap();
        assert_eq!(*tm.ty("K"), Ty::INT);
        assert_eq!(*tm.ty("N"), Ty::INT);
        assert_eq!(*tm.ty("mu_0"), Ty::REAL.vec_of(1));
        assert_eq!(*tm.ty("Sigma_0"), Ty::Mat);
        assert_eq!(*tm.ty("pis"), Ty::REAL.vec_of(1));
        assert_eq!(*tm.ty("mu"), Ty::REAL.vec_of(2)); // Vec (Vec Real)
        assert_eq!(*tm.ty("z"), Ty::INT.vec_of(1));
        assert_eq!(*tm.ty("x"), Ty::REAL.vec_of(2));
    }

    #[test]
    fn lda_ragged_types() {
        let src = r#"(K, D, alpha, beta, len) => {
            param theta[d] ~ Dirichlet(alpha) for d <- 0 until D ;
            param phi[k] ~ Dirichlet(beta) for k <- 0 until K ;
            param z[d][j] ~ Categorical(theta[d]) for d <- 0 until D, j <- 0 until len[d] ;
            data w[d][j] ~ Categorical(phi[z[d][j]]) for d <- 0 until D, j <- 0 until len[d] ;
        }"#;
        let tm = typecheck(&parse(src).unwrap()).unwrap();
        assert_eq!(*tm.ty("len"), Ty::INT.vec_of(1)); // ragged bounds vector
        assert_eq!(*tm.ty("z"), Ty::INT.vec_of(2));
        assert_eq!(*tm.ty("theta"), Ty::REAL.vec_of(2));
    }

    #[test]
    fn hlr_builtin_types() {
        let src = r#"(lambda, N, D, x) => {
            param sigma2 ~ Exponential(lambda) ;
            param b ~ Normal(0.0, sigma2) ;
            param theta[j] ~ Normal(0.0, sigma2) for j <- 0 until D ;
            data y[n] ~ Bernoulli(sigmoid(dot(x[n], theta) + b)) for n <- 0 until N ;
        }"#;
        let tm = typecheck(&parse(src).unwrap()).unwrap();
        assert_eq!(*tm.ty("x"), Ty::REAL.vec_of(2));
        assert_eq!(*tm.ty("theta"), Ty::REAL.vec_of(1));
        assert_eq!(*tm.ty("sigma2"), Ty::REAL);
        assert_eq!(*tm.ty("y"), Ty::INT.vec_of(1));
    }

    #[test]
    fn rejects_bound_mentioning_parameter() {
        // z's bound mentions the parameter m — fixed-structure violation.
        let src = r#"(N) => {
            param m ~ Poisson(3.0) ;
            param z[n] ~ Normal(0.0, 1.0) for n <- 0 until m ;
        }"#;
        let err = typecheck(&parse(src).unwrap()).unwrap_err();
        assert!(err.message.contains("fixed-structure"), "{}", err.message);
    }

    #[test]
    fn rejects_undefined_variable() {
        let src = "(N) => { param z[n] ~ Normal(ghost, 1.0) for n <- 0 until N ; }";
        let err = typecheck(&parse(src).unwrap()).unwrap_err();
        assert!(err.message.contains("ghost"));
    }

    #[test]
    fn rejects_forward_reference() {
        let src = r#"(N) => {
            param a ~ Normal(b, 1.0) ;
            param b ~ Normal(0.0, 1.0) ;
        }"#;
        let err = typecheck(&parse(src).unwrap()).unwrap_err();
        assert!(err.message.contains("undefined variable `b`"));
    }

    #[test]
    fn rejects_duplicate_declaration() {
        let src = "() => { param a ~ Normal(0.0, 1.0) ; param a ~ Normal(0.0, 1.0) ; }";
        let err = typecheck(&parse(src).unwrap()).unwrap_err();
        assert!(err.message.contains("declared twice"));
    }

    #[test]
    fn rejects_subscript_mismatch() {
        let src = "(K) => { param mu[j] ~ Normal(0.0, 1.0) for k <- 0 until K ; }";
        let err = typecheck(&parse(src).unwrap()).unwrap_err();
        assert!(err.message.contains("does not match"));
    }

    #[test]
    fn rejects_missing_subscript() {
        let src = "(K) => { param mu ~ Normal(0.0, 1.0) for k <- 0 until K ; }";
        let err = typecheck(&parse(src).unwrap()).unwrap_err();
        assert!(err.message.contains("comprehension"));
    }

    #[test]
    fn rejects_type_mismatch_in_dist_arg() {
        // Categorical expects Vec Real; N is already Int from the bound.
        let src = "(K, N) => { param z[n] ~ Categorical(N) for n <- 0 until N ; }";
        assert!(typecheck(&parse(src).unwrap()).is_err());
    }

    #[test]
    fn int_literal_coerces_to_real_param() {
        let src = "() => { param x ~ Normal(0, 1) ; }";
        let tm = typecheck(&parse(src).unwrap()).unwrap();
        assert_eq!(*tm.ty("x"), Ty::REAL);
    }

    #[test]
    fn det_declaration_types_flow() {
        let src = "(a, b) => { let c = a * b ; param x ~ Normal(c, 1.0) ; }";
        let tm = typecheck(&parse(src).unwrap()).unwrap();
        assert_eq!(*tm.ty("c"), Ty::REAL);
    }

    #[test]
    fn rejects_indexing_scalar() {
        let src = "(a, N) => { param x ~ Normal(a, 1.0) ; data y[n] ~ Normal(x[n], 1.0) for n <- 0 until N ; }";
        let err = typecheck(&parse(src).unwrap()).unwrap_err();
        assert!(
            err.message.contains("non-vector") || err.message.contains("unify"),
            "{}",
            err.message
        );
    }

    #[test]
    fn rejects_duplicate_argument() {
        let src = "(a, a) => { param x ~ Normal(a, 1.0) ; }";
        let err = typecheck(&parse(src).unwrap()).unwrap_err();
        assert!(err.message.contains("duplicate model argument"));
    }

    #[test]
    fn hgmm_full_model_types() {
        let src = r#"(K, N, alpha, mu_0, Sigma_0, nu, Psi) => {
            param pi ~ Dirichlet(alpha) ;
            param mu[k] ~ MvNormal(mu_0, Sigma_0) for k <- 0 until K ;
            param Sigma[k] ~ InvWishart(nu, Psi) for k <- 0 until K ;
            param z[n] ~ Categorical(pi) for n <- 0 until N ;
            data y[n] ~ MvNormal(mu[z[n]], Sigma[z[n]]) for n <- 0 until N ;
        }"#;
        let tm = typecheck(&parse(src).unwrap()).unwrap();
        assert_eq!(*tm.ty("pi"), Ty::REAL.vec_of(1));
        assert_eq!(*tm.ty("Sigma"), Ty::Mat.vec_of(1)); // Vec (Mat Real)
        assert_eq!(*tm.ty("nu"), Ty::REAL);
        assert_eq!(*tm.ty("Psi"), Ty::Mat);
    }
}
