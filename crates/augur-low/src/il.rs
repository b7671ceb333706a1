//! The **Low++ / Low--** imperative ILs (paper §4.3, Fig. 6).
//!
//! Low++ makes *parallelism* explicit — every loop carries a `Seq`, `Par`,
//! or `AtmPar` annotation decided when the base update was generated, so
//! parallelism never has to be rediscovered — while memory stays abstract
//! (functional vector/matrix primitives that "allocate" their result).
//! Low-- is structurally the same language with memory made explicit; in
//! this reproduction the [`crate::shape`] pass plays that role by planning
//! every named buffer up front, and the backend's arena supplies the
//! temporaries of functional primitives.

use std::fmt;

use augur_dist::DistKind;
pub use augur_lang::ast::{BinOp, Builtin};

/// Loop annotations (Fig. 6 `lk`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    /// Must execute sequentially.
    Seq,
    /// Iterations are independent.
    Par,
    /// Iterations are independent given that `+=` runs atomically.
    AtmPar,
}

impl fmt::Display for LoopKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LoopKind::Seq => "Seq",
            LoopKind::Par => "Par",
            LoopKind::AtmPar => "AtmPar",
        })
    }
}

/// Assignment operators. `+=` has its own category (Fig. 6 `sk`) because
/// the backend must execute it atomically inside `AtmPar` loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignOp {
    /// Plain store.
    Set,
    /// Increment-and-store; atomic under `AtmPar`.
    Inc,
}

/// Functional vector/matrix primitives of Low++. Each produces a fresh
/// value; the Low-- step accounts for their storage (see
/// [`crate::shape`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpN {
    /// Element-wise vector addition.
    VecAdd,
    /// Element-wise vector subtraction.
    VecSub,
    /// `scale(s, v)`.
    VecScale,
    /// Matrix addition.
    MatAdd,
    /// `scale(s, M)`.
    MatScale,
    /// SPD matrix inverse (via Cholesky).
    MatInv,
    /// Matrix–vector product.
    MatVec,
    /// `outer(a − b)`: the scatter increment `(a−b)(a−b)ᵀ`.
    OuterSub,
}

impl OpN {
    /// Surface name for pretty-printing.
    pub fn name(self) -> &'static str {
        match self {
            OpN::VecAdd => "vec_add",
            OpN::VecSub => "vec_sub",
            OpN::VecScale => "vec_scale",
            OpN::MatAdd => "mat_add",
            OpN::MatScale => "mat_scale",
            OpN::MatInv => "mat_inv",
            OpN::MatVec => "mat_vec",
            OpN::OuterSub => "outer_sub",
        }
    }
}

/// Distribution operations (Fig. 6 `dop`), beyond the implicit density of
/// the Density IL: log-likelihood, sampling, and gradients. Sampling is a
/// statement ([`Stmt::Sample`]) since it consumes randomness and writes a
/// location; `ll`/`grad` are expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A named buffer or loop variable.
    Var(String),
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// Indexing.
    Index(Box<Expr>, Box<Expr>),
    /// Binary arithmetic.
    Binop(BinOp, Box<Expr>, Box<Expr>),
    /// Negation.
    Neg(Box<Expr>),
    /// Builtin scalar/vector function.
    Call(Builtin, Vec<Expr>),
    /// `dist(args).ll(point)` — log-density evaluation.
    DistLl {
        /// The distribution.
        dist: DistKind,
        /// Parameters.
        args: Vec<Expr>,
        /// Evaluation point.
        point: Box<Expr>,
    },
    /// `dist(args).grad_{i+2}(point)` — gradient of the log-density with
    /// respect to parameter `i` (the paper's 1-based `grad` counts the
    /// point as argument 1).
    DistGradParam {
        /// The distribution.
        dist: DistKind,
        /// Which parameter.
        i: usize,
        /// Parameters.
        args: Vec<Expr>,
        /// Evaluation point.
        point: Box<Expr>,
    },
    /// `dist(args).grad_1(point)` — gradient with respect to the point.
    DistGradPoint {
        /// The distribution.
        dist: DistKind,
        /// Parameters.
        args: Vec<Expr>,
        /// Evaluation point.
        point: Box<Expr>,
    },
    /// A functional vector/matrix primitive.
    Op(OpN, Vec<Expr>),
    /// Length of a vector value.
    Len(Box<Expr>),
}

impl Expr {
    /// Shorthand for a variable reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// Shorthand for `base[idx]`.
    pub fn index(base: Expr, idx: Expr) -> Expr {
        Expr::Index(Box::new(base), Box::new(idx))
    }
}

/// A store destination: `var[idx]...[idx]`. Fewer indices than the
/// variable's depth denote a whole-slice store (broadcast for scalars).
#[derive(Debug, Clone, PartialEq)]
pub struct LValue {
    /// The buffer name.
    pub var: String,
    /// Index expressions, outermost first.
    pub indices: Vec<Expr>,
}

impl LValue {
    /// An unindexed lvalue.
    pub fn name(var: impl Into<String>) -> LValue {
        LValue { var: var.into(), indices: Vec::new() }
    }
}

/// Boolean guards for `if` (indicator conditions).
#[derive(Debug, Clone, PartialEq)]
pub enum Cond {
    /// Equality of two scalar expressions.
    Eq(Expr, Expr),
}

/// Statements (Fig. 6 `s`).
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Statement sequence.
    Seq(Vec<Stmt>),
    /// `lhs = rhs` or `lhs += rhs`. Vector-valued right-hand sides store
    /// element-wise; a scalar stored to a slice lvalue broadcasts.
    Assign {
        /// Destination.
        lhs: LValue,
        /// Set or atomic increment.
        op: AssignOp,
        /// Value.
        rhs: Expr,
    },
    /// Conditional.
    If {
        /// Guard.
        cond: Cond,
        /// Then-branch.
        then: Box<Stmt>,
        /// Optional else-branch.
        els: Option<Box<Stmt>>,
    },
    /// Annotated loop `loop lk (var ← lo until hi) { body }`.
    Loop {
        /// Parallelism annotation.
        kind: LoopKind,
        /// Loop variable.
        var: String,
        /// Inclusive lower bound.
        lo: Expr,
        /// Exclusive upper bound.
        hi: Expr,
        /// Body.
        body: Box<Stmt>,
    },
    /// `lhs = dist(args).samp`.
    Sample {
        /// Destination.
        lhs: LValue,
        /// Distribution to draw from.
        dist: DistKind,
        /// Parameters.
        args: Vec<Expr>,
    },
    /// `lhs = CategoricalLogits(weights).samp` — draw an index from a
    /// buffer of *log* weights (the finite-sum Gibbs primitive).
    SampleLogits {
        /// Destination (an integer-valued slot).
        lhs: LValue,
        /// The log-weight vector expression.
        weights: Expr,
    },
}

impl Stmt {
    /// An empty statement.
    pub fn nop() -> Stmt {
        Stmt::Seq(Vec::new())
    }

    /// Wraps statements in a sequence, flattening singletons.
    pub fn seq(mut stmts: Vec<Stmt>) -> Stmt {
        if stmts.len() == 1 {
            stmts.pop().expect("one element")
        } else {
            Stmt::Seq(stmts)
        }
    }
}

/// A procedure (Fig. 6 `decl`): a body plus an optional returned scalar.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcDecl {
    /// The procedure name.
    pub name: String,
    /// The body.
    pub body: Stmt,
    /// An optional scalar result (e.g. the accumulated log-likelihood).
    pub ret: Option<Expr>,
}

/// Pretty-prints an expression in C-like syntax (the `CodegenC` view).
pub fn pretty_expr(e: &Expr) -> String {
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
        Expr::Index(a, b) => format!("{}[{}]", pretty_expr(a), pretty_expr(b)),
        Expr::Binop(op, a, b) => {
            format!("({} {} {})", pretty_expr(a), op.symbol(), pretty_expr(b))
        }
        Expr::Neg(a) => format!("(-{})", pretty_expr(a)),
        Expr::Call(b, args) => format!("{}({})", b.name(), join(args)),
        Expr::DistLl { dist, args, point } => {
            format!("{dist}({}).ll({})", join(args), pretty_expr(point))
        }
        Expr::DistGradParam { dist, i, args, point } => {
            format!("{dist}({}).grad{}({})", join(args), i + 2, pretty_expr(point))
        }
        Expr::DistGradPoint { dist, args, point } => {
            format!("{dist}({}).grad1({})", join(args), pretty_expr(point))
        }
        Expr::Op(op, args) => format!("{}({})", op.name(), join(args)),
        Expr::Len(a) => format!("len({})", pretty_expr(a)),
    }
}

fn join(args: &[Expr]) -> String {
    args.iter().map(pretty_expr).collect::<Vec<_>>().join(", ")
}

/// Pretty-prints a statement with indentation.
pub fn pretty_stmt(s: &Stmt, indent: usize) -> String {
    let pad = "  ".repeat(indent);
    match s {
        Stmt::Seq(stmts) => {
            stmts.iter().map(|t| pretty_stmt(t, indent)).collect::<Vec<_>>().join("")
        }
        Stmt::Assign { lhs, op, rhs } => {
            let sym = match op {
                AssignOp::Set => "=",
                AssignOp::Inc => "+=",
            };
            format!("{pad}{} {sym} {};\n", pretty_lvalue(lhs), pretty_expr(rhs))
        }
        Stmt::If { cond, then, els } => {
            let Cond::Eq(a, b) = cond;
            let mut out = format!(
                "{pad}if ({} == {}) {{\n{}{pad}}}",
                pretty_expr(a),
                pretty_expr(b),
                pretty_stmt(then, indent + 1)
            );
            if let Some(e) = els {
                out.push_str(&format!(" else {{\n{}{pad}}}", pretty_stmt(e, indent + 1)));
            }
            out.push('\n');
            out
        }
        Stmt::Loop { kind, var, lo, hi, body } => format!(
            "{pad}loop {kind} ({var} <- {} until {}) {{\n{}{pad}}}\n",
            pretty_expr(lo),
            pretty_expr(hi),
            pretty_stmt(body, indent + 1)
        ),
        Stmt::Sample { lhs, dist, args } => {
            format!("{pad}{} = {dist}({}).samp;\n", pretty_lvalue(lhs), join(args))
        }
        Stmt::SampleLogits { lhs, weights } => format!(
            "{pad}{} = CategoricalLogits({}).samp;\n",
            pretty_lvalue(lhs),
            pretty_expr(weights)
        ),
    }
}

fn pretty_lvalue(l: &LValue) -> String {
    let mut s = l.var.clone();
    for i in &l.indices {
        s.push_str(&format!("[{}]", pretty_expr(i)));
    }
    s
}

/// Pretty-prints a whole procedure.
pub fn pretty_proc(p: &ProcDecl) -> String {
    let mut out = format!("{}() {{\n{}", p.name, pretty_stmt(&p.body, 1));
    if let Some(r) = &p.ret {
        out.push_str(&format!("  ret {};\n", pretty_expr(r)));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_grad_matches_paper_excerpt_shape() {
        // adj_mu[t0] += adj_ll * MvNormal(mu[t0], Sigma).grad2(y[n]);
        let s = Stmt::Assign {
            lhs: LValue { var: "adj_mu".into(), indices: vec![Expr::var("t0")] },
            op: AssignOp::Inc,
            rhs: Expr::DistGradParam {
                dist: DistKind::MvNormal,
                i: 0,
                args: vec![Expr::index(Expr::var("mu"), Expr::var("t0")), Expr::var("Sigma")],
                point: Box::new(Expr::index(Expr::var("y"), Expr::var("n"))),
            },
        };
        let p = pretty_stmt(&s, 0);
        assert_eq!(p, "adj_mu[t0] += MvNormal(mu[t0], Sigma).grad2(y[n]);\n");
    }

    #[test]
    fn pretty_loop_annotations() {
        let s = Stmt::Loop {
            kind: LoopKind::AtmPar,
            var: "n".into(),
            lo: Expr::Int(0),
            hi: Expr::var("N"),
            body: Box::new(Stmt::Assign {
                lhs: LValue::name("acc"),
                op: AssignOp::Inc,
                rhs: Expr::Real(1.0),
            }),
        };
        let p = pretty_stmt(&s, 0);
        assert!(p.starts_with("loop AtmPar (n <- 0 until N) {"));
        assert!(p.contains("acc += 1.0;"));
    }

    #[test]
    fn seq_flattens_singleton() {
        let s = Stmt::seq(vec![Stmt::nop()]);
        assert_eq!(s, Stmt::nop());
    }

    #[test]
    fn pretty_proc_with_ret() {
        let p = ProcDecl {
            name: "ll".into(),
            body: Stmt::Assign {
                lhs: LValue::name("acc"),
                op: AssignOp::Set,
                rhs: Expr::Real(0.0),
            },
            ret: Some(Expr::var("acc")),
        };
        let s = pretty_proc(&p);
        assert!(s.contains("ret acc;"));
        assert!(s.starts_with("ll() {"));
    }
}
