//! Pretty-printing of the Density IL in the paper's notation.

use std::fmt::Write;

use crate::il::{DensityModel, Factor};

/// Renders one factor as `Π_{i←lo until hi} [ p_Dist(args)(point) ]_{x=e}`.
pub fn pretty_factor(f: &Factor) -> String {
    let mut s = String::new();
    for c in &f.comps {
        let _ = write!(s, "Π_{{{}←{} until {}}} ", c.var, c.lo, c.hi);
    }
    let needs_brackets = !f.inds.is_empty();
    if needs_brackets {
        s.push('[');
    }
    let args: Vec<String> = f.args.iter().map(|a| format!("{a}")).collect();
    let _ = write!(s, "p_{}({})({})", f.dist, args.join(", "), f.point);
    if needs_brackets {
        s.push(']');
        let conds: Vec<String> = f.inds.iter().map(|(l, r)| format!("{l}={r}")).collect();
        let _ = write!(s, "_{{{}}}", conds.join(", "));
    }
    s
}

/// Renders a whole density model as `λ(args, vars). Π factors`.
pub fn pretty_density(m: &DensityModel) -> String {
    let mut s = String::new();
    let names: Vec<&str> = m
        .args
        .iter()
        .map(|a| a.name.as_str())
        .chain(m.vars.iter().map(|v| v.name.as_str()))
        .collect();
    let _ = writeln!(s, "λ({}).", names.join(", "));
    for f in &m.factors {
        let _ = writeln!(s, "  {}", pretty_factor(f));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DensityModel;
    use augur_lang::{parse, typecheck};

    #[test]
    fn gmm_density_renders_like_paper() {
        let src = r#"(K, N, mu_0, Sigma_0, pis, Sigma) => {
            param mu[k] ~ MvNormal(mu_0, Sigma_0) for k <- 0 until K ;
            param z[n] ~ Categorical(pis) for n <- 0 until N ;
            data x[n] ~ MvNormal(mu[z[n]], Sigma) for n <- 0 until N ;
        }"#;
        let dm = DensityModel::from_typed(&typecheck(&parse(src).unwrap()).unwrap()).unwrap();
        let p = pretty_density(&dm);
        assert!(p.contains("Π_{k←0 until K} p_MvNormal(mu_0, Sigma_0)(mu[k])"), "{p}");
        assert!(p.contains("Π_{n←0 until N} p_MvNormal(mu[z[n]], Sigma)(x[n])"), "{p}");
        assert!(p.starts_with("λ(K, N, mu_0, Sigma_0, pis, Sigma, mu, z, x)."), "{p}");
    }

    #[test]
    fn indicator_brackets_render() {
        let src = r#"(K, N, mu_0, s0, pis, s) => {
            param mu[k] ~ Normal(mu_0, s0) for k <- 0 until K ;
            param z[n] ~ Categorical(pis) for n <- 0 until N ;
            data x[n] ~ Normal(mu[z[n]], s) for n <- 0 until N ;
        }"#;
        let dm = DensityModel::from_typed(&typecheck(&parse(src).unwrap()).unwrap()).unwrap();
        let cond = crate::conditional(&dm, &["mu"]);
        let lik = cond.likelihoods().next().unwrap();
        let p = pretty_factor(&lik.factor);
        assert!(p.contains("[p_Normal(mu[z[n]], s)(x[n])]_{k=z[n]}"), "rendered: {p}");
    }
}
