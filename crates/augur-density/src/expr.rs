//! Span-free expressions for the Density IL and everything downstream.

pub use augur_lang::ast::{BinOp, Builtin};

/// An expression in the Density IL (and, unchanged, in the lower ILs).
///
/// Compared to the surface AST this is span-free and uses plain string
/// names; the compiler pipeline resolves names to storage slots only at the
/// very end (`augur-backend`), because the rewrite rules are *syntactic*
/// and easier to state over names.
#[derive(Debug, Clone, PartialEq)]
pub enum DExpr {
    /// A variable reference.
    Var(String),
    /// An integer literal.
    Int(i64),
    /// A real literal.
    Real(f64),
    /// Indexing `e[e]`.
    Index(Box<DExpr>, Box<DExpr>),
    /// A builtin call.
    Call(Builtin, Vec<DExpr>),
    /// A binary operation.
    Binop(BinOp, Box<DExpr>, Box<DExpr>),
    /// Unary negation.
    Neg(Box<DExpr>),
}

impl DExpr {
    /// Shorthand for a variable.
    pub fn var(name: impl Into<String>) -> DExpr {
        DExpr::Var(name.into())
    }

    /// Shorthand for `base[idx]`.
    pub fn index(base: DExpr, idx: DExpr) -> DExpr {
        DExpr::Index(Box::new(base), Box::new(idx))
    }

    /// Visits every variable name in the expression.
    pub fn visit_vars<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        match self {
            DExpr::Var(n) => f(n),
            DExpr::Int(_) | DExpr::Real(_) => {}
            DExpr::Index(a, b) | DExpr::Binop(_, a, b) => {
                a.visit_vars(f);
                b.visit_vars(f);
            }
            DExpr::Call(_, args) => {
                for a in args {
                    a.visit_vars(f);
                }
            }
            DExpr::Neg(a) => a.visit_vars(f),
        }
    }

    /// True when the expression mentions the variable.
    pub fn mentions(&self, name: &str) -> bool {
        let mut found = false;
        self.visit_vars(&mut |n| found |= n == name);
        found
    }

    /// Substitutes `replacement` for every occurrence of the variable
    /// `name`, returning the new expression.
    pub fn subst(&self, name: &str, replacement: &DExpr) -> DExpr {
        match self {
            DExpr::Var(n) if n == name => replacement.clone(),
            DExpr::Var(_) | DExpr::Int(_) | DExpr::Real(_) => self.clone(),
            DExpr::Index(a, b) => DExpr::Index(
                Box::new(a.subst(name, replacement)),
                Box::new(b.subst(name, replacement)),
            ),
            DExpr::Call(f, args) => {
                DExpr::Call(*f, args.iter().map(|a| a.subst(name, replacement)).collect())
            }
            DExpr::Binop(op, a, b) => DExpr::Binop(
                *op,
                Box::new(a.subst(name, replacement)),
                Box::new(b.subst(name, replacement)),
            ),
            DExpr::Neg(a) => DExpr::Neg(Box::new(a.subst(name, replacement))),
        }
    }

    /// Substitutes a whole *expression* occurrence: every subexpression
    /// structurally equal to `from` becomes `to`. Used by the categorical
    /// indexing rule (`mu[z[n]] ↦ mu[k]` inside the indicator slice).
    pub fn subst_expr(&self, from: &DExpr, to: &DExpr) -> DExpr {
        if self == from {
            return to.clone();
        }
        match self {
            DExpr::Var(_) | DExpr::Int(_) | DExpr::Real(_) => self.clone(),
            DExpr::Index(a, b) => {
                DExpr::Index(Box::new(a.subst_expr(from, to)), Box::new(b.subst_expr(from, to)))
            }
            DExpr::Call(f, args) => {
                DExpr::Call(*f, args.iter().map(|a| a.subst_expr(from, to)).collect())
            }
            DExpr::Binop(op, a, b) => DExpr::Binop(
                *op,
                Box::new(a.subst_expr(from, to)),
                Box::new(b.subst_expr(from, to)),
            ),
            DExpr::Neg(a) => DExpr::Neg(Box::new(a.subst_expr(from, to))),
        }
    }

    /// Converts a surface AST expression (types already checked) into a
    /// density-IL expression.
    pub fn from_surface(e: &augur_lang::ast::Expr) -> DExpr {
        use augur_lang::ast::Expr as S;
        match e {
            S::Var(id) => DExpr::Var(id.name.clone()),
            S::Int(v, _) => DExpr::Int(*v),
            S::Real(v, _) => DExpr::Real(*v),
            S::Index(a, b, _) => {
                DExpr::Index(Box::new(DExpr::from_surface(a)), Box::new(DExpr::from_surface(b)))
            }
            S::Call(f, args, _) => DExpr::Call(*f, args.iter().map(DExpr::from_surface).collect()),
            S::Binop(op, a, b, _) => DExpr::Binop(
                *op,
                Box::new(DExpr::from_surface(a)),
                Box::new(DExpr::from_surface(b)),
            ),
            S::Neg(a, _) => DExpr::Neg(Box::new(DExpr::from_surface(a))),
        }
    }
}

impl std::fmt::Display for DExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DExpr::Var(n) => f.write_str(n),
            DExpr::Int(v) => write!(f, "{v}"),
            DExpr::Real(v) => {
                if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            DExpr::Index(a, b) => write!(f, "{a}[{b}]"),
            DExpr::Call(b, args) => {
                write!(f, "{}(", b.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
            DExpr::Binop(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            DExpr::Neg(a) => write!(f, "(-{a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mu_z_n() -> DExpr {
        // mu[z[n]]
        DExpr::index(DExpr::var("mu"), DExpr::index(DExpr::var("z"), DExpr::var("n")))
    }

    #[test]
    fn subst_var() {
        let e = mu_z_n();
        let s = e.subst("n", &DExpr::Int(3));
        assert_eq!(format!("{s}"), "mu[z[3]]");
        assert!(!s.mentions("n"));
    }

    #[test]
    fn subst_expr_replaces_structural_match() {
        let e = mu_z_n();
        let from = DExpr::index(DExpr::var("z"), DExpr::var("n"));
        let to = DExpr::var("k");
        assert_eq!(format!("{}", e.subst_expr(&from, &to)), "mu[k]");
    }

    #[test]
    fn mentions_and_visit() {
        let e = mu_z_n();
        assert!(e.mentions("z") && e.mentions("mu") && !e.mentions("x"));
        let mut names = Vec::new();
        e.visit_vars(&mut |n| names.push(n.to_owned()));
        assert_eq!(names, ["mu", "z", "n"]);
    }

    #[test]
    fn display_binop_parenthesizes() {
        let e = DExpr::Binop(
            BinOp::Add,
            Box::new(DExpr::var("a")),
            Box::new(DExpr::Neg(Box::new(DExpr::var("b")))),
        );
        assert_eq!(format!("{e}"), "(a + (-b))");
    }
}
