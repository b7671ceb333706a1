//! The Density IL proper: models as lists of comprehension-wrapped factors.
//!
//! The paper's grammar (Fig. 4) builds densities from products, structured
//! products, lets, and indicators. Products are associative and the
//! compiler constantly re-associates them during rewriting, so the IL here
//! normalizes a density to a **flat list of factors**, each factor carrying
//! its own chain of comprehensions and indicator conditions. This is the
//! same normal form the conditional analysis of §3.3 works over.

use std::collections::HashMap;
use std::fmt;

use augur_dist::DistKind;
use augur_lang::ast::{DeclRhs, DeclRole};
use augur_lang::ty::Ty;
use augur_lang::typeck::TypedModel;

use crate::expr::DExpr;

/// A comprehension `var ← lo until hi` (parallel semantics).
#[derive(Debug, Clone, PartialEq)]
pub struct Comp {
    /// The bound index variable.
    pub var: String,
    /// Inclusive lower bound.
    pub lo: DExpr,
    /// Exclusive upper bound.
    pub hi: DExpr,
}

impl Comp {
    /// Creates a comprehension over `0 until hi` with the given variable.
    pub fn upto(var: impl Into<String>, hi: DExpr) -> Comp {
        Comp { var: var.into(), lo: DExpr::Int(0), hi }
    }

    /// Structural bound equality — the side condition of the factoring
    /// rule. Bounds are constant expressions (fixed-structure restriction),
    /// so syntactic equality is the paper's test.
    pub fn same_bounds(&self, other: &Comp) -> bool {
        self.lo == other.lo && self.hi == other.hi
    }
}

/// One factor of a density factorization:
/// `Π_{comps} [ p_dist(args)(point) ]_{inds}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Factor {
    /// Comprehension chain, outermost first.
    pub comps: Vec<Comp>,
    /// Indicator conditions `lhs = rhs` wrapped around the atom; the factor
    /// contributes only where all hold (`[fn]_{x=e}` in Fig. 4).
    pub inds: Vec<(DExpr, DExpr)>,
    /// The primitive distribution of the atom.
    pub dist: DistKind,
    /// Distribution parameters.
    pub args: Vec<DExpr>,
    /// The point the density is evaluated at (e.g. `mu[k]`, `x[n]`).
    pub point: DExpr,
}

impl Factor {
    /// True when any expression of the factor (point, args, indicator
    /// sides) mentions `name`. Comprehension bounds are excluded: they are
    /// constants by the fixed-structure restriction, so they never carry a
    /// functional dependence on a parameter.
    pub fn mentions(&self, name: &str) -> bool {
        self.point.mentions(name)
            || self.args.iter().any(|a| a.mentions(name))
            || self.inds.iter().any(|(l, r)| l.mentions(name) || r.mentions(name))
    }

    /// Substitutes a variable throughout the factor's expressions
    /// (not the comprehension variables).
    pub fn subst(&self, name: &str, replacement: &DExpr) -> Factor {
        Factor {
            comps: self.comps.clone(),
            inds: self
                .inds
                .iter()
                .map(|(l, r)| (l.subst(name, replacement), r.subst(name, replacement)))
                .collect(),
            dist: self.dist,
            args: self.args.iter().map(|a| a.subst(name, replacement)).collect(),
            point: self.point.subst(name, replacement),
        }
    }
}

/// The role a name plays in a density model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarRole {
    /// A closed-over model argument (hyper-/meta-parameter or covariate).
    Arg,
    /// A latent variable (sampled by inference).
    Param,
    /// An observed variable (bound to user data).
    Data,
}

/// Name, role and type of a model variable.
#[derive(Debug, Clone, PartialEq)]
pub struct VarInfo {
    /// The variable name.
    pub name: String,
    /// Its role.
    pub role: VarRole,
    /// Its resolved surface type.
    pub ty: Ty,
}

/// Errors produced while building a density model.
#[derive(Debug, Clone, PartialEq)]
pub enum DensityError {
    /// A comprehension-shaped `let` was referenced whole rather than
    /// pointwise — inlining needs an index per comprehension level.
    DetWholeUse(String),
    /// A `let` was indexed with fewer indices than its comprehension has
    /// levels.
    DetArity {
        /// The `let` name.
        name: String,
        /// Comprehension levels of the definition.
        expected: usize,
        /// Indices at the use site.
        actual: usize,
    },
}

impl fmt::Display for DensityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DensityError::DetWholeUse(name) => write!(
                f,
                "deterministic array `{name}` used whole; reference it pointwise (`{name}[i]`)"
            ),
            DensityError::DetArity { name, expected, actual } => write!(
                f,
                "deterministic array `{name}` has {expected} comprehension level(s) but was \
                 indexed with {actual}"
            ),
        }
    }
}

impl std::error::Error for DensityError {}

/// A model in the Density IL: `λ(args, params, data). Π factors`.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityModel {
    /// Closed-over arguments, in order.
    pub args: Vec<VarInfo>,
    /// Random variables (params then data), in declaration order.
    pub vars: Vec<VarInfo>,
    /// The factors of the density, in declaration order. Factor `i`
    /// corresponds to random-variable declaration `i`.
    pub factors: Vec<Factor>,
}

impl DensityModel {
    /// Translates a type-checked surface model into its density
    /// factorization.
    ///
    /// Deterministic (`let`) declarations are *inlined* into every factor
    /// that references them — the Density IL keeps `let` in its grammar,
    /// but inlining keeps the conditional analysis purely structural.
    /// Comprehension-shaped `let`s (`let m[n] = … for n <- …`) inline
    /// pointwise: a use `m[e]` becomes the body with the comprehension
    /// variable substituted by `e`.
    ///
    /// # Errors
    ///
    /// Returns [`DensityError::DetWholeUse`] / [`DensityError::DetArity`]
    /// when a deterministic array is referenced whole or under-indexed.
    pub fn from_typed(typed: &TypedModel) -> Result<Self, DensityError> {
        let model = &typed.model;
        let args: Vec<VarInfo> = model
            .args
            .iter()
            .map(|a| VarInfo {
                name: a.name.clone(),
                role: VarRole::Arg,
                ty: typed.ty(&a.name).clone(),
            })
            .collect();

        let mut vars = Vec::new();
        let mut factors = Vec::new();
        let mut lets: HashMap<String, LetDef> = HashMap::new();

        for decl in &model.decls {
            match (&decl.role, &decl.rhs) {
                (DeclRole::Det, DeclRhs::Det(e)) => {
                    // Close the body over earlier lets at definition time.
                    let body = inline(&DExpr::from_surface(e), &lets)?;
                    let params: Vec<String> =
                        decl.gens.iter().map(|g| g.var.name.clone()).collect();
                    lets.insert(decl.lhs.name.clone(), LetDef { params, body });
                }
                (role, DeclRhs::Dist(call)) => {
                    let var_role = match role {
                        DeclRole::Param => VarRole::Param,
                        DeclRole::Data => VarRole::Data,
                        DeclRole::Det => unreachable!("det decl with dist rhs"),
                    };
                    vars.push(VarInfo {
                        name: decl.lhs.name.clone(),
                        role: var_role,
                        ty: typed.ty(&decl.lhs.name).clone(),
                    });
                    let mut comps = Vec::with_capacity(decl.gens.len());
                    for g in &decl.gens {
                        comps.push(Comp {
                            var: g.var.name.clone(),
                            lo: inline(&DExpr::from_surface(&g.lo), &lets)?,
                            hi: inline(&DExpr::from_surface(&g.hi), &lets)?,
                        });
                    }
                    // point = lhs[sub1][sub2]...
                    let mut point = DExpr::var(&decl.lhs.name);
                    for sub in &decl.subscripts {
                        point = DExpr::index(point, DExpr::var(&sub.name));
                    }
                    let mut fargs = Vec::with_capacity(call.args.len());
                    for a in &call.args {
                        fargs.push(inline(&DExpr::from_surface(a), &lets)?);
                    }
                    factors.push(Factor {
                        comps,
                        inds: Vec::new(),
                        dist: call.dist,
                        args: fargs,
                        point,
                    });
                }
                (DeclRole::Param | DeclRole::Data, DeclRhs::Det(_)) => {
                    unreachable!("parser produces Det rhs only for let")
                }
            }
        }
        Ok(DensityModel { args, vars, factors })
    }

    /// Looks up a random variable by name.
    pub fn var(&self, name: &str) -> Option<&VarInfo> {
        self.vars.iter().find(|v| v.name == name)
    }

    /// Looks up an argument by name.
    pub fn arg(&self, name: &str) -> Option<&VarInfo> {
        self.args.iter().find(|a| a.name == name)
    }

    /// The factor whose point is the declaration of `name` (its prior
    /// factor), together with its index.
    pub fn prior_factor(&self, name: &str) -> Option<(usize, &Factor)> {
        self.factors.iter().enumerate().find(|(_, f)| match root_var(&f.point) {
            Some(root) => root == name,
            None => false,
        })
    }

    /// Latent variables, in declaration order.
    pub fn params(&self) -> impl Iterator<Item = &VarInfo> {
        self.vars.iter().filter(|v| v.role == VarRole::Param)
    }

    /// Observed variables, in declaration order.
    pub fn data(&self) -> impl Iterator<Item = &VarInfo> {
        self.vars.iter().filter(|v| v.role == VarRole::Data)
    }
}

/// A deterministic definition: comprehension variables plus a body closed
/// over earlier lets.
#[derive(Debug, Clone)]
struct LetDef {
    params: Vec<String>,
    body: DExpr,
}

/// Inlines deterministic definitions into an expression, pointwise for
/// comprehension-shaped lets.
fn inline(e: &DExpr, lets: &HashMap<String, LetDef>) -> Result<DExpr, DensityError> {
    match e {
        DExpr::Var(n) => match lets.get(n) {
            Some(def) if def.params.is_empty() => Ok(def.body.clone()),
            Some(_) => Err(DensityError::DetWholeUse(n.clone())),
            None => Ok(e.clone()),
        },
        DExpr::Int(_) | DExpr::Real(_) => Ok(e.clone()),
        DExpr::Index(..) => {
            // Peel the index chain and check whether the root is a let.
            let mut indices = Vec::new();
            let mut root = e;
            while let DExpr::Index(base, idx) = root {
                indices.push(idx.as_ref());
                root = base;
            }
            indices.reverse();
            if let DExpr::Var(name) = root {
                if let Some(def) = lets.get(name) {
                    if indices.len() < def.params.len() {
                        return Err(DensityError::DetArity {
                            name: name.clone(),
                            expected: def.params.len(),
                            actual: indices.len(),
                        });
                    }
                    // substitute the leading indices for the comprehension
                    // variables, then apply any remaining indices
                    let mut out = def.body.clone();
                    for (pvar, ie) in def.params.iter().zip(&indices) {
                        let inlined_idx = inline(ie, lets)?;
                        out = out.subst(pvar, &inlined_idx);
                    }
                    for ie in &indices[def.params.len()..] {
                        out = DExpr::index(out, inline(ie, lets)?);
                    }
                    return Ok(out);
                }
            }
            // ordinary chain: inline recursively
            let DExpr::Index(base, idx) = e else { unreachable!() };
            Ok(DExpr::index(inline(base, lets)?, inline(idx, lets)?))
        }
        DExpr::Call(f, args) => {
            let mut out = Vec::with_capacity(args.len());
            for a in args {
                out.push(inline(a, lets)?);
            }
            Ok(DExpr::Call(*f, out))
        }
        DExpr::Binop(op, a, b) => {
            Ok(DExpr::Binop(*op, Box::new(inline(a, lets)?), Box::new(inline(b, lets)?)))
        }
        DExpr::Neg(a) => Ok(DExpr::Neg(Box::new(inline(a, lets)?))),
    }
}

/// The root variable of an lvalue-shaped expression (`mu[k][j] → mu`).
pub(crate) fn root_var(e: &DExpr) -> Option<&str> {
    match e {
        DExpr::Var(n) => Some(n),
        DExpr::Index(base, _) => root_var(base),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_lang::{parse, typecheck};

    fn build(src: &str) -> DensityModel {
        DensityModel::from_typed(&typecheck(&parse(src).unwrap()).unwrap()).unwrap()
    }

    const GMM: &str = r#"(K, N, mu_0, Sigma_0, pis, Sigma) => {
        param mu[k] ~ MvNormal(mu_0, Sigma_0) for k <- 0 until K ;
        param z[n] ~ Categorical(pis) for n <- 0 until N ;
        data x[n] ~ MvNormal(mu[z[n]], Sigma) for n <- 0 until N ;
    }"#;

    #[test]
    fn gmm_has_three_factors() {
        let dm = build(GMM);
        assert_eq!(dm.factors.len(), 3);
        assert_eq!(dm.vars.len(), 3);
        assert_eq!(format!("{}", dm.factors[0].point), "mu[k]");
        assert_eq!(format!("{}", dm.factors[2].args[0]), "mu[z[n]]");
        assert_eq!(dm.factors[0].comps.len(), 1);
        assert_eq!(dm.factors[0].comps[0].var, "k");
    }

    #[test]
    fn roles_and_lookup() {
        let dm = build(GMM);
        assert_eq!(dm.var("mu").unwrap().role, VarRole::Param);
        assert_eq!(dm.var("x").unwrap().role, VarRole::Data);
        assert!(dm.var("nope").is_none());
        assert_eq!(dm.arg("K").unwrap().role, VarRole::Arg);
        assert_eq!(dm.params().count(), 2);
        assert_eq!(dm.data().count(), 1);
    }

    #[test]
    fn prior_factor_finds_declaration() {
        let dm = build(GMM);
        let (i, f) = dm.prior_factor("z").unwrap();
        assert_eq!(i, 1);
        assert_eq!(f.dist, DistKind::Categorical);
    }

    #[test]
    fn factor_mentions_excludes_bounds() {
        let dm = build(GMM);
        // The mu prior factor's bound is K but no expression mentions K.
        assert!(!dm.factors[0].mentions("K"));
        assert!(dm.factors[2].mentions("mu"));
        assert!(dm.factors[2].mentions("z"));
    }

    #[test]
    fn let_declarations_are_inlined() {
        let dm = build(
            "(a, b) => { let c = a * b ; param x ~ Normal(c, 1.0) ; data y ~ Normal(x, c) ; }",
        );
        assert_eq!(dm.factors.len(), 2);
        assert_eq!(format!("{}", dm.factors[0].args[0]), "(a * b)");
        assert_eq!(format!("{}", dm.factors[1].args[1]), "(a * b)");
    }

    #[test]
    fn nested_lets_inline_transitively() {
        let dm = build("(a) => { let b = a + 1.0 ; let c = b * 2.0 ; param x ~ Normal(c, 1.0) ; }");
        assert_eq!(format!("{}", dm.factors[0].args[0]), "((a + 1.0) * 2.0)");
    }

    #[test]
    fn comprehension_let_inlines_pointwise() {
        let dm = build(
            "(N, v, s2) => {
                let m[n] = v[n] * 2.0 for n <- 0 until N ;
                data y[n] ~ Normal(m[n], s2) for n <- 0 until N ;
            }",
        );
        assert_eq!(dm.factors.len(), 1);
        assert_eq!(format!("{}", dm.factors[0].args[0]), "(v[n] * 2.0)");
    }

    #[test]
    fn comprehension_let_whole_use_is_rejected() {
        let typed = typecheck(
            &parse(
                "(N, v) => {
                    let m[n] = v[n] for n <- 0 until N ;
                    param t ~ Categorical(m) ;
                }",
            )
            .unwrap(),
        )
        .unwrap();
        assert!(matches!(DensityModel::from_typed(&typed), Err(DensityError::DetWholeUse(_))));
    }

    #[test]
    fn nested_comprehension_let_substitutes_indices() {
        // the index expression at the use site replaces the comprehension
        // variable — including through another variable's index
        let dm = build(
            "(K, N, base, pis, s2) => {
                let center[k] = base[k] + 1.0 for k <- 0 until K ;
                param z[n] ~ Categorical(pis) for n <- 0 until N ;
                data y[n] ~ Normal(center[z[n]], s2) for n <- 0 until N ;
            }",
        );
        assert_eq!(format!("{}", dm.factors[1].args[0]), "(base[z[n]] + 1.0)");
    }

    #[test]
    fn lda_double_comprehension_point() {
        let dm = build(
            r#"(K, D, alpha, beta, len) => {
            param theta[d] ~ Dirichlet(alpha) for d <- 0 until D ;
            param phi[k] ~ Dirichlet(beta) for k <- 0 until K ;
            param z[d][j] ~ Categorical(theta[d]) for d <- 0 until D, j <- 0 until len[d] ;
            data w[d][j] ~ Categorical(phi[z[d][j]]) for d <- 0 until D, j <- 0 until len[d] ;
        }"#,
        );
        assert_eq!(format!("{}", dm.factors[2].point), "z[d][j]");
        assert_eq!(dm.factors[3].comps.len(), 2);
        assert_eq!(format!("{}", dm.factors[3].comps[1].hi), "len[d]");
    }

    #[test]
    fn same_bounds_is_syntactic() {
        let a = Comp::upto("i", DExpr::var("N"));
        let b = Comp::upto("j", DExpr::var("N"));
        let c = Comp::upto("j", DExpr::var("M"));
        assert!(a.same_bounds(&b));
        assert!(!a.same_bounds(&c));
    }
}
