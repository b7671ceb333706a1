//! Pretty-printing of models back to surface syntax.
//!
//! Used for diagnostics and for the parser round-trip property tests:
//! `parse(pretty(parse(src)))` must equal `parse(src)`.

use std::fmt::Write;

use crate::ast::{Decl, DeclRhs, DeclRole, Expr, Model};

/// Renders a model in canonical surface syntax.
pub fn pretty_model(model: &Model) -> String {
    let mut out = String::new();
    let args: Vec<&str> = model.args.iter().map(|a| a.name.as_str()).collect();
    let _ = writeln!(out, "({}) => {{", args.join(", "));
    for decl in &model.decls {
        let _ = writeln!(out, "  {}", pretty_decl(decl));
    }
    out.push('}');
    out
}

fn pretty_decl(decl: &Decl) -> String {
    let mut s = String::new();
    let kw = match decl.role {
        DeclRole::Param => "param",
        DeclRole::Data => "data",
        DeclRole::Det => "let",
    };
    let _ = write!(s, "{kw} {}", decl.lhs.name);
    for sub in &decl.subscripts {
        let _ = write!(s, "[{}]", sub.name);
    }
    match &decl.rhs {
        DeclRhs::Dist(call) => {
            let args: Vec<String> = call.args.iter().map(pretty_expr).collect();
            let _ = write!(s, " ~ {}({})", call.dist, args.join(", "));
        }
        DeclRhs::Det(e) => {
            let _ = write!(s, " = {}", pretty_expr(e));
        }
    }
    if !decl.gens.is_empty() {
        let gens: Vec<String> = decl
            .gens
            .iter()
            .map(|g| {
                format!("{} <- {} until {}", g.var.name, pretty_expr(&g.lo), pretty_expr(&g.hi))
            })
            .collect();
        let _ = write!(s, " for {}", gens.join(", "));
    }
    s.push_str(" ;");
    s
}

/// Renders an expression with full parenthesization of binary operations
/// (so precedence never needs reconstructing).
pub fn pretty_expr(expr: &Expr) -> String {
    match expr {
        Expr::Var(id) => id.name.clone(),
        Expr::Int(v, _) => v.to_string(),
        Expr::Real(v, _) => {
            if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                format!("{v:.1}")
            } else {
                format!("{v}")
            }
        }
        Expr::Index(base, idx, _) => format!("{}[{}]", pretty_expr(base), pretty_expr(idx)),
        Expr::Call(b, args, _) => {
            let rendered: Vec<String> = args.iter().map(pretty_expr).collect();
            format!("{}({})", b.name(), rendered.join(", "))
        }
        Expr::Binop(op, a, b, _) => {
            format!("({} {} {})", pretty_expr(a), op.symbol(), pretty_expr(b))
        }
        Expr::Neg(inner, _) => format!("(-{})", pretty_expr(inner)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    /// Strips spans so round-trip comparisons ignore layout.
    fn reparse(src: &str) -> String {
        pretty_model(&parse(src).unwrap())
    }

    #[test]
    fn roundtrip_is_stable() {
        let src = r#"(K, N, mu_0, Sigma_0, pis, Sigma) => {
          param mu[k] ~ MvNormal(mu_0, Sigma_0) for k <- 0 until K ;
          param z[n] ~ Categorical(pis) for n <- 0 until N ;
          data x[n] ~ MvNormal(mu[z[n]], Sigma) for n <- 0 until N ;
        }"#;
        let once = reparse(src);
        let twice = reparse(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn renders_fig1_shape() {
        let p = reparse("(K) => { param mu[k] ~ Normal(0.0, 1.0) for k <- 0 until K ; }");
        assert!(p.contains("param mu[k] ~ Normal(0.0, 1.0) for k <- 0 until K ;"), "{p}");
    }

    #[test]
    fn parenthesization_preserves_precedence() {
        let p = reparse("(a, b, c) => { let d = a + b * c ; }");
        assert!(p.contains("(a + (b * c))"), "{p}");
    }
}
