//! Symbolic computation of model conditionals (paper §3.2–3.3).
//!
//! Given the density factorization and a target parameter `v`, the
//! conditional `p(v | rest)` up to a normalizing constant is the product of
//! the factors with a *functional dependence* on `v` — the others cancel.
//! The subtlety is structured products: the compiler cannot unfold them
//! (sizes are large and regularity would be lost), so it reasons
//! symbolically, applying the **categorical indexing** rule first and then
//! the **factoring** rule, exactly as §3.3 prescribes.
//!
//! The output [`Conditional`] is a list of factors *aligned* to the
//! target's own comprehension structure wherever the rules apply: an
//! aligned factor's leading comprehensions are the target's, so a Gibbs
//! update can sample every `v[k]` slice independently (and in parallel).
//! Factors the rules cannot align are kept unaligned — a loss of precision
//! the paper accepts — and still participate in whole-variable updates
//! (HMC, slice, MH).

use crate::expr::DExpr;
use crate::il::{root_var, Comp, DensityModel, Factor};

/// A conditional `p(targets | rest) ∝ Π factors`, in Density IL form.
#[derive(Debug, Clone, PartialEq)]
pub struct Conditional {
    /// The target variable(s) — one for `Single(x)` kernel units, several
    /// for `Block(xs)`.
    pub targets: Vec<String>,
    /// The comprehension structure of the (single) target's declaration;
    /// empty for scalar targets and for blocks.
    pub target_comps: Vec<Comp>,
    /// The factors of the conditional.
    pub factors: Vec<CondFactor>,
}

/// One factor of a conditional, with alignment metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct CondFactor {
    /// The (possibly rewritten) factor.
    pub factor: Factor,
    /// True when `factor.comps` begins with the target's comprehensions,
    /// so the factor decomposes pointwise over target slices.
    pub aligned: bool,
    /// True when this is the target's own prior factor.
    pub is_prior: bool,
    /// Index of the originating factor in the model.
    pub source: usize,
    /// Which §3.3 rewrite aligned this factor — or why none did.
    pub rewrite: Rewrite,
}

/// The §3.3 rewrite that aligned a conditional factor to its target's
/// comprehension structure, or the reason alignment was abandoned. Recorded
/// on every [`CondFactor`] so explain plans can report exactly which rule
/// fired (and why fallbacks happened) without re-deriving the analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rewrite {
    /// The target's own prior factor; aligned by construction.
    Prior,
    /// Scalar target (no comprehensions): every factor contributes whole.
    TrivialScalar,
    /// Factoring rule: every occurrence is `target[c1]..[cm]` over the
    /// factor's leading comprehensions with the target's bounds.
    DirectAlignment,
    /// Categorical indexing rule (mixture pattern): all occurrences are
    /// `target[e]` for one shared `e` rooted in a Categorical parameter.
    CategoricalIndexing,
    /// No rule applied; the factor stays unaligned. Carries the most
    /// specific diagnosable reason (a stable, human-readable string).
    Fallback(String),
    /// Block (multi-target) conditional: alignment is never attempted.
    BlockJoint,
}

impl Rewrite {
    /// Stable short name of the rewrite, as printed in explain plans.
    pub fn describe(&self) -> String {
        match self {
            Rewrite::Prior => "prior".to_owned(),
            Rewrite::TrivialScalar => "trivial-scalar".to_owned(),
            Rewrite::DirectAlignment => "direct-alignment (factoring rule)".to_owned(),
            Rewrite::CategoricalIndexing => "categorical-indexing (mixture rule)".to_owned(),
            Rewrite::Fallback(reason) => format!("fallback: {reason}"),
            Rewrite::BlockJoint => "block-joint (no alignment attempted)".to_owned(),
        }
    }
}

impl Conditional {
    /// True when every factor is aligned to the target comprehensions —
    /// the precondition for slice-parallel Gibbs updates.
    pub fn fully_aligned(&self) -> bool {
        self.factors.iter().all(|f| f.aligned)
    }

    /// The prior factor of the (single) target, if present and aligned.
    pub fn prior(&self) -> Option<&CondFactor> {
        self.factors.iter().find(|f| f.is_prior)
    }

    /// The non-prior (likelihood) factors.
    pub fn likelihoods(&self) -> impl Iterator<Item = &CondFactor> {
        self.factors.iter().filter(|f| !f.is_prior)
    }
}

/// Computes the conditional of `targets` given everything else, up to a
/// normalizing constant.
///
/// For a single target the factors are aligned to the target's
/// comprehension structure using the §3.3 rewrite rules. For a block of
/// targets no alignment is attempted (block updates always evaluate the
/// joint conditional whole).
///
/// # Panics
///
/// Panics if any target is not a `param` of the model.
pub fn conditional(model: &DensityModel, targets: &[&str]) -> Conditional {
    for t in targets {
        assert!(
            model.var(t).is_some(),
            "conditional target `{t}` is not a random variable of the model"
        );
    }
    let single = if targets.len() == 1 { Some(targets[0]) } else { None };

    let target_comps: Vec<Comp> = match single {
        Some(t) => model.prior_factor(t).map(|(_, f)| f.comps.clone()).unwrap_or_default(),
        None => Vec::new(),
    };

    let mut factors = Vec::new();
    for (i, f) in model.factors.iter().enumerate() {
        let mentions_any = targets.iter().any(|t| f.mentions(t));
        if !mentions_any {
            continue; // cancels in the ratio — no functional dependence
        }
        let is_prior = single.is_some_and(|t| root_var(&f.point) == Some(t));
        if let Some(t) = single {
            if is_prior {
                factors.push(CondFactor {
                    factor: f.clone(),
                    aligned: true,
                    is_prior,
                    source: i,
                    rewrite: Rewrite::Prior,
                });
                continue;
            }
            match align_factor(model, t, &target_comps, f) {
                Ok((aligned_factor, rewrite)) => factors.push(CondFactor {
                    factor: aligned_factor,
                    aligned: true,
                    is_prior: false,
                    source: i,
                    rewrite,
                }),
                Err(reason) => factors.push(CondFactor {
                    factor: f.clone(),
                    aligned: false,
                    is_prior: false,
                    source: i,
                    rewrite: Rewrite::Fallback(reason),
                }),
            }
        } else {
            factors.push(CondFactor {
                factor: f.clone(),
                aligned: false,
                is_prior: false,
                source: i,
                rewrite: Rewrite::BlockJoint,
            });
        }
    }

    Conditional {
        targets: targets.iter().map(|s| (*s).to_owned()).collect(),
        target_comps,
        factors,
    }
}

/// Attempts to align a likelihood factor to the target's comprehensions,
/// returning the rewritten factor and the rule that fired on success, or
/// the most specific diagnosable fallback reason on failure.
fn align_factor(
    model: &DensityModel,
    target: &str,
    target_comps: &[Comp],
    f: &Factor,
) -> Result<(Factor, Rewrite), String> {
    // A scalar target (no comprehensions) is trivially aligned: every
    // factor mentioning it contributes whole.
    if target_comps.is_empty() {
        return Ok((f.clone(), Rewrite::TrivialScalar));
    }
    let occs = occurrences(f, target);
    if occs.is_empty() {
        return Err(format!("`{target}` has no indexable occurrence in the factor"));
    }

    // Case 1 — direct alignment (factoring rule): every occurrence is
    // `target[c1]..[cm]` where `ci` are the factor's leading comprehension
    // variables with the same bounds as the target's.
    if let Some(aligned) = try_direct_alignment(target, target_comps, f, &occs) {
        return Ok((aligned, Rewrite::DirectAlignment));
    }

    // Case 2 — categorical indexing rule (mixture pattern): all
    // occurrences are `target[e]` for one common index expression `e`
    // whose root is a Categorical-distributed parameter. Rewrite
    //   Π_{comps} fn  →  Π_{k} Π_{comps} [fn]_{k = e}
    if target_comps.len() == 1 {
        if let Some(aligned) = try_categorical_indexing(model, target_comps, f, &occs) {
            return Ok((aligned, Rewrite::CategoricalIndexing));
        }
    }
    Err(fallback_reason(model, target, target_comps, &occs))
}

/// Diagnoses why neither §3.3 rule applied, in decreasing specificity.
fn fallback_reason(
    model: &DensityModel,
    target: &str,
    target_comps: &[Comp],
    occs: &[DExpr],
) -> String {
    // Whole-value use (e.g. `dot(x[n], theta)`) defeats both rules.
    if occs.iter().any(|o| matches!(o, DExpr::Var(_))) {
        return format!("whole-value use of `{target}` cannot be sliced");
    }
    // All occurrences `target[e]` with one shared `e`: the categorical
    // indexing rule was shape-applicable, so the root test must have
    // failed (or the target is multi-dimensional).
    if let DExpr::Index(_, idx0) = &occs[0] {
        let shared = occs.iter().all(|o| matches!(o, DExpr::Index(_, i) if *i == *idx0));
        if shared {
            if target_comps.len() > 1 {
                return format!(
                    "indexed occurrence of {}-dimensional `{target}` fits no rule",
                    target_comps.len()
                );
            }
            return match root_var(idx0) {
                Some(root) => match model.prior_factor(root) {
                    Some((_, prior)) if prior.dist != augur_dist::DistKind::Categorical => {
                        format!(
                            "index root `{root}` is {:?}-distributed, not Categorical",
                            prior.dist
                        )
                    }
                    Some(_) => format!("occurrences `{target}[{idx0}]` match no alignment rule"),
                    None => format!("index root `{root}` is not a parameter of the model"),
                },
                None => "index expression has no root variable".to_owned(),
            };
        }
    }
    format!("occurrences of `{target}` do not share the factor's leading comprehensions")
}

fn try_direct_alignment(
    target: &str,
    target_comps: &[Comp],
    f: &Factor,
    occs: &[DExpr],
) -> Option<Factor> {
    let m = target_comps.len();
    if f.comps.len() < m {
        return None;
    }
    // Build the expected occurrence `target[c1]..[cm]` and the renaming
    // ci ↦ ki (the target's comprehension variables).
    let mut expected = DExpr::var(target);
    for comp in f.comps.iter().take(m) {
        expected = DExpr::index(expected, DExpr::var(&comp.var));
    }
    if !occs.iter().all(|o| *o == expected) {
        return None;
    }
    // Check bounds match pairwise, renaming as we go (handles ragged
    // bounds like `len[d]` that mention earlier comprehension variables).
    let mut renames: Vec<(String, String)> = Vec::new();
    for (fc, tc) in f.comps.iter().take(m).zip(target_comps) {
        let mut lo = fc.lo.clone();
        let mut hi = fc.hi.clone();
        for (from, to) in &renames {
            lo = lo.subst(from, &DExpr::var(to));
            hi = hi.subst(from, &DExpr::var(to));
        }
        if lo != tc.lo || hi != tc.hi {
            return None;
        }
        renames.push((fc.var.clone(), tc.var.clone()));
    }
    // Apply the renaming to the whole factor and install the target comps.
    let mut out = f.clone();
    for (from, to) in &renames {
        out = out.subst(from, &DExpr::var(to));
        for comp in &mut out.comps {
            comp.lo = comp.lo.subst(from, &DExpr::var(to));
            comp.hi = comp.hi.subst(from, &DExpr::var(to));
        }
    }
    let inner = out.comps.split_off(m);
    let mut comps = target_comps.to_vec();
    comps.extend(inner);
    out.comps = comps;
    Some(out)
}

fn try_categorical_indexing(
    model: &DensityModel,
    target_comps: &[Comp],
    f: &Factor,
    occs: &[DExpr],
) -> Option<Factor> {
    // All occurrences must be `target[e]` with one shared `e`.
    let index_expr = match &occs[0] {
        DExpr::Index(_, idx) => (**idx).clone(),
        _ => return None,
    };
    for occ in occs {
        match occ {
            DExpr::Index(_, idx) if **idx == index_expr => {}
            _ => return None,
        }
    }
    // `e`'s root must be a Categorical-distributed parameter of the model.
    let root = root_var(&index_expr)?;
    let (_, prior) = model.prior_factor(root)?;
    if prior.dist != augur_dist::DistKind::Categorical {
        return None;
    }
    // Π_{comps} fn → Π_{k} Π_{comps} [fn]_{k = e}
    let k = &target_comps[0];
    let mut out = f.clone();
    let mut comps = vec![k.clone()];
    comps.extend(out.comps);
    out.comps = comps;
    out.inds.push((DExpr::var(&k.var), index_expr));
    Some(out)
}

/// Collects the maximal index-chain occurrences of `target` in a factor's
/// expressions (`mu[z[n]]` yields `mu[z[n]]` for target `mu` and `z[n]`
/// for target `z`).
pub(crate) fn occurrences(f: &Factor, target: &str) -> Vec<DExpr> {
    let mut out = Vec::new();
    for a in &f.args {
        collect_occurrences(a, target, &mut out);
    }
    collect_occurrences(&f.point, target, &mut out);
    for (l, r) in &f.inds {
        collect_occurrences(l, target, &mut out);
        collect_occurrences(r, target, &mut out);
    }
    out
}

fn collect_occurrences(e: &DExpr, target: &str, out: &mut Vec<DExpr>) {
    match e {
        DExpr::Var(n) => {
            if n == target {
                out.push(e.clone());
            }
        }
        DExpr::Int(_) | DExpr::Real(_) => {}
        DExpr::Index(base, idx) => {
            if root_var(e) == Some(target) {
                out.push(e.clone());
                // Do not recurse into the base (it is part of this chain),
                // but the index may itself mention the target.
                collect_occurrences(idx, target, out);
            } else {
                collect_occurrences(base, target, out);
                collect_occurrences(idx, target, out);
            }
        }
        DExpr::Call(_, args) => {
            for a in args {
                collect_occurrences(a, target, out);
            }
        }
        DExpr::Binop(_, a, b) => {
            collect_occurrences(a, target, out);
            collect_occurrences(b, target, out);
        }
        DExpr::Neg(a) => collect_occurrences(a, target, out),
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
    fn gmm_mu_conditional_applies_categorical_indexing() {
        let dm = build(GMM);
        let cond = conditional(&dm, &["mu"]);
        assert_eq!(cond.factors.len(), 2, "z prior must cancel");
        assert!(cond.fully_aligned());
        let lik = cond.likelihoods().next().unwrap();
        // Π_k Π_n [p_MvNormal(mu[z[n]], Sigma)(x[n])]_{k = z[n]}
        assert_eq!(lik.factor.comps.len(), 2);
        assert_eq!(lik.factor.comps[0].var, "k");
        assert_eq!(lik.factor.comps[1].var, "n");
        assert_eq!(lik.factor.inds.len(), 1);
        assert_eq!(format!("{}", lik.factor.inds[0].0), "k");
        assert_eq!(format!("{}", lik.factor.inds[0].1), "z[n]");
    }

    #[test]
    fn gmm_z_conditional_aligns_directly() {
        let dm = build(GMM);
        let cond = conditional(&dm, &["z"]);
        assert_eq!(cond.factors.len(), 2);
        assert!(cond.fully_aligned());
        let lik = cond.likelihoods().next().unwrap();
        // the x factor aligns over n with no extra inner comps
        assert_eq!(lik.factor.comps.len(), 1);
        assert_eq!(lik.factor.comps[0].var, "n");
        assert!(lik.factor.inds.is_empty());
    }

    #[test]
    fn gmm_mu_conditional_drops_independent_factors() {
        let dm = build(GMM);
        let cond = conditional(&dm, &["mu"]);
        assert!(cond.factors.iter().all(|f| f.factor.mentions("mu")));
    }

    #[test]
    fn lda_theta_conditional_uses_factoring_rule() {
        let dm = build(
            r#"(K, D, alpha, beta, len) => {
            param theta[d] ~ Dirichlet(alpha) for d <- 0 until D ;
            param phi[k] ~ Dirichlet(beta) for k <- 0 until K ;
            param z[d][j] ~ Categorical(theta[d]) for d <- 0 until D, j <- 0 until len[d] ;
            data w[d][j] ~ Categorical(phi[z[d][j]]) for d <- 0 until D, j <- 0 until len[d] ;
        }"#,
        );
        let cond = conditional(&dm, &["theta"]);
        assert_eq!(cond.factors.len(), 2);
        assert!(cond.fully_aligned());
        let lik = cond.likelihoods().next().unwrap();
        assert_eq!(lik.factor.comps[0].var, "d");
        assert_eq!(lik.factor.comps[1].var, "j");
        assert!(lik.factor.inds.is_empty(), "factoring rule needs no indicator");
    }

    #[test]
    fn lda_phi_conditional_uses_categorical_indexing() {
        let dm = build(
            r#"(K, D, alpha, beta, len) => {
            param theta[d] ~ Dirichlet(alpha) for d <- 0 until D ;
            param phi[k] ~ Dirichlet(beta) for k <- 0 until K ;
            param z[d][j] ~ Categorical(theta[d]) for d <- 0 until D, j <- 0 until len[d] ;
            data w[d][j] ~ Categorical(phi[z[d][j]]) for d <- 0 until D, j <- 0 until len[d] ;
        }"#,
        );
        let cond = conditional(&dm, &["phi"]);
        assert!(cond.fully_aligned());
        let lik = cond.likelihoods().next().unwrap();
        assert_eq!(lik.factor.comps.len(), 3); // k, d, j
        assert_eq!(lik.factor.comps[0].var, "k");
        assert_eq!(format!("{}", lik.factor.inds[0].1), "z[d][j]");
    }

    #[test]
    fn scalar_target_is_trivially_aligned() {
        let dm = build(
            r#"(N, a) => {
            param lambda ~ Gamma(a, a) ;
            data c[n] ~ Poisson(lambda) for n <- 0 until N ;
        }"#,
        );
        let cond = conditional(&dm, &["lambda"]);
        assert!(cond.fully_aligned());
        assert!(cond.target_comps.is_empty());
        assert_eq!(cond.factors.len(), 2);
    }

    #[test]
    fn block_conditional_keeps_factors_unaligned() {
        let dm = build(
            r#"(lambda, N, D, x) => {
            param sigma2 ~ Exponential(lambda) ;
            param b ~ Normal(0.0, sigma2) ;
            param theta[j] ~ Normal(0.0, sigma2) for j <- 0 until D ;
            data y[n] ~ Bernoulli(sigmoid(dot(x[n], theta) + b)) for n <- 0 until N ;
        }"#,
        );
        let cond = conditional(&dm, &["b", "theta"]);
        // b prior, theta prior, y likelihood — sigma2 prior cancels.
        assert_eq!(cond.factors.len(), 3);
        assert!(!cond.fully_aligned());
    }

    #[test]
    fn hlr_theta_whole_vector_use_is_not_aligned() {
        let dm = build(
            r#"(lambda, N, D, x) => {
            param sigma2 ~ Exponential(lambda) ;
            param theta[j] ~ Normal(0.0, sigma2) for j <- 0 until D ;
            data y[n] ~ Bernoulli(sigmoid(dot(x[n], theta))) for n <- 0 until N ;
        }"#,
        );
        let cond = conditional(&dm, &["theta"]);
        let lik = cond.likelihoods().next().unwrap();
        assert!(!lik.aligned, "whole-vector use cannot be sliced");
    }

    #[test]
    fn sigma2_conditional_includes_all_dependents() {
        let dm = build(
            r#"(lambda, N, D, x) => {
            param sigma2 ~ Exponential(lambda) ;
            param b ~ Normal(0.0, sigma2) ;
            param theta[j] ~ Normal(0.0, sigma2) for j <- 0 until D ;
            data y[n] ~ Bernoulli(sigmoid(dot(x[n], theta) + b)) for n <- 0 until N ;
        }"#,
        );
        let cond = conditional(&dm, &["sigma2"]);
        // prior + b prior + theta prior; y does not mention sigma2.
        assert_eq!(cond.factors.len(), 3);
        assert!(cond.fully_aligned());
    }

    #[test]
    fn rewrites_are_recorded_per_factor() {
        let dm = build(GMM);
        let mu = conditional(&dm, &["mu"]);
        assert_eq!(mu.prior().unwrap().rewrite, Rewrite::Prior);
        assert_eq!(mu.likelihoods().next().unwrap().rewrite, Rewrite::CategoricalIndexing);
        let z = conditional(&dm, &["z"]);
        assert_eq!(z.likelihoods().next().unwrap().rewrite, Rewrite::DirectAlignment);
    }

    #[test]
    fn whole_vector_fallback_reason_is_diagnosed() {
        let dm = build(
            r#"(lambda, N, D, x) => {
            param sigma2 ~ Exponential(lambda) ;
            param theta[j] ~ Normal(0.0, sigma2) for j <- 0 until D ;
            data y[n] ~ Bernoulli(sigmoid(dot(x[n], theta))) for n <- 0 until N ;
        }"#,
        );
        let cond = conditional(&dm, &["theta"]);
        let lik = cond.likelihoods().next().unwrap();
        match &lik.rewrite {
            Rewrite::Fallback(reason) => {
                assert!(reason.contains("whole-value"), "got reason: {reason}")
            }
            other => panic!("expected fallback, got {other:?}"),
        }
        // Scalar targets and block conditionals carry their own markers.
        let scalar = conditional(&dm, &["sigma2"]);
        assert!(scalar.likelihoods().all(|f| f.rewrite == Rewrite::TrivialScalar));
        let block = conditional(&dm, &["sigma2", "theta"]);
        assert!(block.factors.iter().all(|f| f.rewrite == Rewrite::BlockJoint));
    }

    #[test]
    fn occurrences_finds_maximal_chains() {
        let dm = build(GMM);
        let f = &dm.factors[2]; // MvNormal(mu[z[n]], Sigma)(x[n])
        let mu_occ = occurrences(f, "mu");
        assert_eq!(mu_occ.len(), 1);
        assert_eq!(format!("{}", mu_occ[0]), "mu[z[n]]");
        let z_occ = occurrences(f, "z");
        assert_eq!(z_occ.len(), 1);
        assert_eq!(format!("{}", z_occ[0]), "z[n]");
    }

    #[test]
    #[should_panic(expected = "not a random variable")]
    fn unknown_target_panics() {
        let dm = build(GMM);
        conditional(&dm, &["ghost"]);
    }

    #[test]
    fn hgmm_sigma_conditional_categorical_indexing_on_arg1() {
        let dm = build(
            r#"(K, N, alpha, mu_0, Sigma_0, nu, Psi) => {
            param pi ~ Dirichlet(alpha) ;
            param mu[k] ~ MvNormal(mu_0, Sigma_0) for k <- 0 until K ;
            param Sigma[k] ~ InvWishart(nu, Psi) for k <- 0 until K ;
            param z[n] ~ Categorical(pi) for n <- 0 until N ;
            data y[n] ~ MvNormal(mu[z[n]], Sigma[z[n]]) for n <- 0 until N ;
        }"#,
        );
        let cond = conditional(&dm, &["Sigma"]);
        assert!(cond.fully_aligned());
        let lik = cond.likelihoods().next().unwrap();
        assert_eq!(format!("{}", lik.factor.inds[0].1), "z[n]");
        // pi conditional: scalar simplex target, direct
        let pi_cond = conditional(&dm, &["pi"]);
        assert_eq!(pi_cond.factors.len(), 2);
        assert!(pi_cond.fully_aligned());
    }
}
