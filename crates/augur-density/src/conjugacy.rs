//! Conjugacy *detection* by structural pattern matching on conditionals
//! (paper §4.4, "the AugurV2 compiler supports conjugacy relations via
//! table lookup").
//!
//! The compiler may fail to detect a relation when the conditional
//! approximation was imprecise or when detecting it would need algebraic
//! rearrangement beyond structural matching — both failure modes are
//! faithful to the paper (which suggests a CAS as future work). Detection
//! failure is not an error: the schedule heuristic falls back to
//! finite-sum Gibbs for discrete variables and gradient-based updates for
//! continuous ones.

use augur_dist::conjugacy::Relation;
use augur_dist::DistKind;

use crate::cond::Conditional;
use crate::expr::DExpr;
use crate::il::{root_var, DensityModel};

/// A successful conjugacy match for a conditional.
#[derive(Debug, Clone, PartialEq)]
pub struct ConjugacyMatch {
    /// The relation from the well-known table.
    pub relation: Relation,
    /// The prior's parameter expressions (free of the target).
    pub prior_args: Vec<DExpr>,
    /// One entry per likelihood factor of the conditional.
    pub likelihoods: Vec<LikTerm>,
}

/// How one likelihood factor participates in a conjugacy relation.
#[derive(Debug, Clone, PartialEq)]
pub struct LikTerm {
    /// Index into `Conditional::factors`.
    pub cond_factor_index: usize,
    /// The distribution-argument position occupied by the target.
    pub target_pos: usize,
    /// The likelihood distribution.
    pub dist: DistKind,
}

/// The support size of a discrete variable, for finite-sum Gibbs
/// (paper §4.4: "directly sums over the support of the discrete variable").
#[derive(Debug, Clone, PartialEq)]
pub enum SupportSize {
    /// The length of a probability-vector expression, resolved at runtime.
    VecLen(DExpr),
    /// A fixed size (Bernoulli ⇒ 2).
    Fixed(i64),
}

/// Attempts to match the conditional against the conjugacy table.
///
/// Returns `None` when no relation applies — the caller falls back to a
/// non-conjugate update.
pub fn detect(_model: &DensityModel, cond: &Conditional) -> Option<ConjugacyMatch> {
    if cond.targets.len() != 1 || !cond.fully_aligned() {
        return None;
    }
    let target = &cond.targets[0];
    let prior = cond.prior()?;
    if prior.factor.args.iter().any(|a| a.mentions(target)) {
        return None;
    }

    let mut relation: Option<Relation> = None;
    let mut likelihoods = Vec::new();
    for (i, cf) in cond.factors.iter().enumerate() {
        if cf.is_prior {
            continue;
        }
        let f = &cf.factor;
        // The target must not be the factor's point (each variable has one
        // declaration) and must occupy exactly one argument, wholly.
        if f.point.mentions(target) {
            return None;
        }
        let mut target_pos = None;
        for (pos, arg) in f.args.iter().enumerate() {
            if !arg.mentions(target) {
                continue;
            }
            // The whole argument must be an index chain rooted at the
            // target (`mu[z[n]]`, `theta[d]`, `pi`); anything else (e.g.
            // `sigmoid(dot(x, theta))`) defeats structural matching.
            if root_var(arg) != Some(target.as_str()) || target_pos.is_some() {
                return None;
            }
            target_pos = Some(pos);
        }
        let pos = target_pos?;
        let rel = table(prior.factor.dist, f.dist, pos)?;
        match relation {
            None => relation = Some(rel),
            Some(r) if r == rel => {}
            Some(_) => return None, // mixed relations: bail out
        }
        likelihoods.push(LikTerm { cond_factor_index: i, target_pos: pos, dist: f.dist });
    }

    Some(ConjugacyMatch { relation: relation?, prior_args: prior.factor.args.clone(), likelihoods })
}

/// The well-known table: `(prior, likelihood, target position) → relation`.
fn table(prior: DistKind, lik: DistKind, pos: usize) -> Option<Relation> {
    Some(match (prior, lik, pos) {
        (DistKind::Dirichlet, DistKind::Categorical, 0) => Relation::DirichletCategorical,
        (DistKind::Beta, DistKind::Bernoulli, 0) => Relation::BetaBernoulli,
        (DistKind::Normal, DistKind::Normal, 0) => Relation::NormalNormalMean,
        (DistKind::MvNormal, DistKind::MvNormal, 0) => Relation::MvNormalMvNormalMean,
        (DistKind::InvGamma, DistKind::Normal, 1) => Relation::InvGammaNormalVar,
        (DistKind::InvWishart, DistKind::MvNormal, 1) => Relation::InvWishartMvNormalCov,
        (DistKind::Gamma, DistKind::Poisson, 0) => Relation::GammaPoisson,
        (DistKind::Gamma, DistKind::Exponential, 0) => Relation::GammaExponential,
        _ => return None,
    })
}

/// Determines the support size of a discrete target for finite-sum Gibbs.
///
/// Returns `None` when the target is not discrete-finite.
pub fn discrete_support(model: &DensityModel, target: &str) -> Option<SupportSize> {
    let (_, prior) = model.prior_factor(target)?;
    match prior.dist {
        DistKind::Categorical => Some(SupportSize::VecLen(prior.args[0].clone())),
        DistKind::Bernoulli | DistKind::BernoulliLogit => Some(SupportSize::Fixed(2)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{conditional, DensityModel};
    use augur_lang::{parse, typecheck};

    fn build(src: &str) -> DensityModel {
        DensityModel::from_typed(&typecheck(&parse(src).unwrap()).unwrap()).unwrap()
    }

    const HGMM: &str = r#"(K, N, alpha, mu_0, Sigma_0, nu, Psi) => {
        param pi ~ Dirichlet(alpha) ;
        param mu[k] ~ MvNormal(mu_0, Sigma_0) for k <- 0 until K ;
        param Sigma[k] ~ InvWishart(nu, Psi) for k <- 0 until K ;
        param z[n] ~ Categorical(pi) for n <- 0 until N ;
        data y[n] ~ MvNormal(mu[z[n]], Sigma[z[n]]) for n <- 0 until N ;
    }"#;

    #[test]
    fn hgmm_is_fully_conjugate() {
        let dm = build(HGMM);
        let cases = [
            ("pi", Relation::DirichletCategorical),
            ("mu", Relation::MvNormalMvNormalMean),
            ("Sigma", Relation::InvWishartMvNormalCov),
        ];
        for (var, expect) in cases {
            let cond = conditional(&dm, &[var]);
            let m = detect(&dm, &cond).unwrap_or_else(|| panic!("{var} should be conjugate"));
            assert_eq!(m.relation, expect, "{var}");
            assert_eq!(m.likelihoods.len(), 1);
        }
    }

    #[test]
    fn hgmm_sigma_target_position_is_one() {
        let dm = build(HGMM);
        let cond = conditional(&dm, &["Sigma"]);
        let m = detect(&dm, &cond).unwrap();
        assert_eq!(m.likelihoods[0].target_pos, 1);
    }

    #[test]
    fn z_is_not_conjugate_but_has_finite_support() {
        let dm = build(HGMM);
        let cond = conditional(&dm, &["z"]);
        // z appears *inside* index expressions (mu[z[n]]), not as a whole
        // argument, so no conjugacy relation matches …
        assert!(detect(&dm, &cond).is_none());
        // … but its support is the length of pi.
        match discrete_support(&dm, "z") {
            Some(SupportSize::VecLen(e)) => assert_eq!(format!("{e}"), "pi"),
            other => panic!("unexpected support {other:?}"),
        }
    }

    #[test]
    fn lda_theta_and_phi_are_dirichlet_categorical() {
        let dm = build(
            r#"(K, D, alpha, beta, len) => {
            param theta[d] ~ Dirichlet(alpha) for d <- 0 until D ;
            param phi[k] ~ Dirichlet(beta) for k <- 0 until K ;
            param z[d][j] ~ Categorical(theta[d]) for d <- 0 until D, j <- 0 until len[d] ;
            data w[d][j] ~ Categorical(phi[z[d][j]]) for d <- 0 until D, j <- 0 until len[d] ;
        }"#,
        );
        for var in ["theta", "phi"] {
            let cond = conditional(&dm, &[var]);
            let m = detect(&dm, &cond).unwrap_or_else(|| panic!("{var}"));
            assert_eq!(m.relation, Relation::DirichletCategorical);
        }
    }

    #[test]
    fn hlr_theta_is_not_conjugate() {
        let dm = build(
            r#"(lambda, N, D, x) => {
            param sigma2 ~ Exponential(lambda) ;
            param theta[j] ~ Normal(0.0, sigma2) for j <- 0 until D ;
            data y[n] ~ Bernoulli(sigmoid(dot(x[n], theta))) for n <- 0 until N ;
        }"#,
        );
        let cond = conditional(&dm, &["theta"]);
        assert!(detect(&dm, &cond).is_none());
        // Exponential prior on a Normal variance is not in the table either.
        let cond2 = conditional(&dm, &["sigma2"]);
        assert!(detect(&dm, &cond2).is_none());
    }

    #[test]
    fn normal_normal_chain_detects_mean_relation() {
        let dm = build(
            r#"(N, tau2, s2) => {
            param m ~ Normal(0.0, tau2) ;
            data y[n] ~ Normal(m, s2) for n <- 0 until N ;
        }"#,
        );
        let cond = conditional(&dm, &["m"]);
        let mt = detect(&dm, &cond).unwrap();
        assert_eq!(mt.relation, Relation::NormalNormalMean);
        assert_eq!(format!("{}", mt.prior_args[1]), "tau2");
    }

    #[test]
    fn invgamma_variance_relation() {
        let dm = build(
            r#"(N, a, b, m) => {
            param v ~ InvGamma(a, b) ;
            data y[n] ~ Normal(m, v) for n <- 0 until N ;
        }"#,
        );
        let cond = conditional(&dm, &["v"]);
        assert_eq!(detect(&dm, &cond).unwrap().relation, Relation::InvGammaNormalVar);
    }

    #[test]
    fn gamma_poisson_and_exponential_relations() {
        let dm = build(
            r#"(N, a, b) => {
            param r ~ Gamma(a, b) ;
            data c[n] ~ Poisson(r) for n <- 0 until N ;
        }"#,
        );
        let cond = conditional(&dm, &["r"]);
        assert_eq!(detect(&dm, &cond).unwrap().relation, Relation::GammaPoisson);

        let dm2 = build(
            r#"(N, a, b) => {
            param r ~ Gamma(a, b) ;
            data t[n] ~ Exponential(r) for n <- 0 until N ;
        }"#,
        );
        let cond2 = conditional(&dm2, &["r"]);
        assert_eq!(detect(&dm2, &cond2).unwrap().relation, Relation::GammaExponential);
    }

    #[test]
    fn beta_bernoulli_relation() {
        let dm = build(
            r#"(N) => {
            param p ~ Beta(1.0, 1.0) ;
            data y[n] ~ Bernoulli(p) for n <- 0 until N ;
        }"#,
        );
        let cond = conditional(&dm, &["p"]);
        assert_eq!(detect(&dm, &cond).unwrap().relation, Relation::BetaBernoulli);
    }

    #[test]
    fn mean_used_through_arithmetic_defeats_matching() {
        // p(m | y) IS conjugate mathematically (2m is linear), but the
        // structural matcher — like the paper's — does not rearrange.
        let dm = build(
            r#"(N, s2) => {
            param m ~ Normal(0.0, 1.0) ;
            data y[n] ~ Normal(2.0 * m, s2) for n <- 0 until N ;
        }"#,
        );
        let cond = conditional(&dm, &["m"]);
        assert!(detect(&dm, &cond).is_none());
    }

    #[test]
    fn bernoulli_support_is_two() {
        let dm = build(
            r#"(N) => {
            param s ~ Bernoulli(0.3) ;
            data y[n] ~ Normal(s, 1.0) for n <- 0 until N ;
        }"#,
        );
        assert_eq!(discrete_support(&dm, "s"), Some(SupportSize::Fixed(2)));
        assert_eq!(discrete_support(&dm, "y"), None);
    }

    #[test]
    fn two_likelihoods_same_relation_accumulate() {
        let dm = build(
            r#"(N, M, tau2, s2) => {
            param m ~ Normal(0.0, tau2) ;
            data y[n] ~ Normal(m, s2) for n <- 0 until N ;
            data w[j] ~ Normal(m, s2) for j <- 0 until M ;
        }"#,
        );
        let cond = conditional(&dm, &["m"]);
        let mt = detect(&dm, &cond).unwrap();
        assert_eq!(mt.likelihoods.len(), 2);
    }
}
