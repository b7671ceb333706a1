//! Schedule planning (paper §4.2): turning a user schedule — or the
//! heuristic default — into a validated [`KernelPlan`] with conditionals
//! attached.

use augur_density::conjugacy::{detect, discrete_support, ConjugacyMatch, SupportSize};
use augur_density::{conditional, Conditional, DensityModel, VarRole};
use augur_dist::{DistKind, Support};

use crate::il::{BaseUpdate, Kernel, KernelUnit, UpdateKind};
use crate::sched::{KernelError, Schedule, ScheduleEntry};

/// How a Gibbs (`FC`) update obtains its closed-form conditional.
#[derive(Debug, Clone, PartialEq)]
pub enum FcStrategy {
    /// A conjugacy relation from the table.
    Conjugate(ConjugacyMatch),
    /// Finite-sum enumeration over the discrete support (§4.4).
    FiniteSum(SupportSize),
}

impl FcStrategy {
    /// Stable one-line description for explain plans, naming the conjugacy
    /// relation or the enumerated support.
    pub fn describe(&self) -> String {
        match self {
            FcStrategy::Conjugate(m) => format!("conjugate({:?})", m.relation),
            FcStrategy::FiniteSum(SupportSize::VecLen(e)) => {
                format!("finite-sum(support=len({e}))")
            }
            FcStrategy::FiniteSum(SupportSize::Fixed(n)) => {
                format!("finite-sum(support={n})")
            }
        }
    }
}

/// One validated base update with its conditional and FC strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedUpdate {
    /// The base update (kind + unit + conditional).
    pub base: BaseUpdate<Conditional>,
    /// For Gibbs updates, how the closed form is obtained.
    pub fc: Option<FcStrategy>,
}

/// A validated plan: the Kernel IL instantiated with Density-IL
/// conditionals, ready for lowering.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelPlan {
    /// The updates in sweep order.
    pub updates: Vec<PlannedUpdate>,
}

impl KernelPlan {
    /// View as a plain [`Kernel`] over conditionals.
    pub fn kernel(&self) -> Kernel<&Conditional> {
        Kernel {
            updates: self
                .updates
                .iter()
                .map(|u| BaseUpdate {
                    kind: u.base.kind,
                    unit: u.base.unit.clone(),
                    cond: &u.base.cond,
                })
                .collect(),
        }
    }
}

/// Validates a schedule against a model and attaches conditionals.
///
/// Checks that every `param` is covered exactly once and that each
/// requested update can actually be generated (e.g. `Gibbs` needs a
/// conjugacy match or a finite discrete support; `ESlice` needs a Gaussian
/// prior; gradient methods need differentiable continuous conditionals).
///
/// # Errors
///
/// Returns the first [`KernelError`] encountered.
pub fn plan(model: &DensityModel, schedule: &Schedule) -> Result<KernelPlan, KernelError> {
    // Coverage checks.
    let mut seen: Vec<&str> = Vec::new();
    for entry in &schedule.updates {
        for v in entry.unit.vars() {
            match model.var(v) {
                Some(info) if info.role == VarRole::Param => {}
                _ => return Err(KernelError::NoSuchParam(v.clone())),
            }
            if seen.contains(&v.as_str()) {
                return Err(KernelError::DuplicateParam(v.clone()));
            }
            seen.push(v);
        }
    }
    for p in model.params() {
        if !seen.contains(&p.name.as_str()) {
            return Err(KernelError::UncoveredParam(p.name.clone()));
        }
    }

    let mut updates = Vec::new();
    for entry in &schedule.updates {
        updates.push(plan_entry(model, entry)?);
    }
    Ok(KernelPlan { updates })
}

fn plan_entry(model: &DensityModel, entry: &ScheduleEntry) -> Result<PlannedUpdate, KernelError> {
    let vars: Vec<&str> = entry.unit.vars().iter().map(String::as_str).collect();
    let cond = conditional(model, &vars);
    let unit_str = vars.join(" ");
    let cannot = |reason: &str| KernelError::CannotGenerate {
        kind: entry.kind,
        unit: unit_str.clone(),
        reason: reason.to_owned(),
    };

    let mut fc = None;
    match entry.kind {
        UpdateKind::Gibbs => {
            if vars.len() != 1 {
                return Err(cannot(
                    "Gibbs blocks are not supported; schedule variables separately",
                ));
            }
            if let Some(m) = detect(model, &cond) {
                fc = Some(FcStrategy::Conjugate(m));
            } else if let Some(sz) = discrete_support(model, vars[0]) {
                // Unaligned conditionals fall back to sequential
                // single-site enumeration in the lowering.
                fc = Some(FcStrategy::FiniteSum(sz));
            } else {
                return Err(cannot(
                    "no conjugacy relation matched and the variable is not discrete with finite support",
                ));
            }
        }
        UpdateKind::Hmc | UpdateKind::Nuts | UpdateKind::Mala | UpdateKind::ReflectiveSlice => {
            for v in &vars {
                let support = prior_support(model, v)
                    .ok_or_else(|| cannot("variable has no prior factor"))?;
                if support.is_discrete() {
                    return Err(cannot("gradient-based updates require continuous variables"));
                }
            }
            // Every factor of the conditional must support point gradients
            // with respect to the targets it mentions.
            for cf in &cond.factors {
                let mentions_target = |e: &augur_density::DExpr| vars.iter().any(|v| e.mentions(v));
                let needs_point_grad = mentions_target(&cf.factor.point);
                if needs_point_grad && !cf.factor.dist.has_point_grad() {
                    return Err(cannot(&format!(
                        "{} has no gradient with respect to its point",
                        cf.factor.dist
                    )));
                }
            }
        }
        UpdateKind::EllipticalSlice => {
            if vars.len() != 1 {
                return Err(cannot(
                    "elliptical slice blocks are not supported; schedule variables separately",
                ));
            }
            for v in &vars {
                let prior =
                    model.prior_factor(v).ok_or_else(|| cannot("variable has no prior factor"))?.1;
                if !matches!(prior.dist, DistKind::Normal | DistKind::MvNormal) {
                    return Err(cannot("elliptical slice sampling requires a Gaussian prior"));
                }
            }
        }
        UpdateKind::MetropolisHastings => {
            for v in &vars {
                let support = prior_support(model, v)
                    .ok_or_else(|| cannot("variable has no prior factor"))?;
                if support.is_discrete() {
                    return Err(cannot(
                        "the random-walk proposal applies to continuous variables; use Gibbs",
                    ));
                }
            }
        }
    }

    Ok(PlannedUpdate { base: BaseUpdate { kind: entry.kind, unit: entry.unit.clone(), cond }, fc })
}

fn prior_support(model: &DensityModel, var: &str) -> Option<Support> {
    model.prior_factor(var).map(|(_, f)| f.dist.support())
}

/// The §4.2 heuristic: conjugate parameters get Gibbs; remaining discrete
/// parameters get finite-sum Gibbs; remaining continuous parameters are
/// blocked into a single HMC update.
///
/// # Errors
///
/// Returns [`KernelError::CannotGenerate`] if some parameter fits none of
/// the three strategies (e.g. a continuous variable whose conditional has
/// no gradients).
pub fn heuristic_schedule(model: &DensityModel) -> Result<Schedule, KernelError> {
    let mut entries = Vec::new();
    let mut hmc_block: Vec<String> = Vec::new();
    for p in model.params() {
        let cond = conditional(model, &[&p.name]);
        if detect(model, &cond).is_some() {
            entries.push(ScheduleEntry {
                kind: UpdateKind::Gibbs,
                unit: KernelUnit::Single(p.name.clone()),
            });
            continue;
        }
        let support = prior_support(model, &p.name);
        match support {
            Some(s) if s.is_discrete() => {
                if discrete_support(model, &p.name).is_some() {
                    entries.push(ScheduleEntry {
                        kind: UpdateKind::Gibbs,
                        unit: KernelUnit::Single(p.name.clone()),
                    });
                } else {
                    return Err(KernelError::CannotGenerate {
                        kind: UpdateKind::Gibbs,
                        unit: p.name.clone(),
                        reason: "discrete variable without enumerable support".into(),
                    });
                }
            }
            _ => hmc_block.push(p.name.clone()),
        }
    }
    if !hmc_block.is_empty() {
        let unit = if hmc_block.len() == 1 {
            KernelUnit::Single(hmc_block.into_iter().next().expect("one"))
        } else {
            KernelUnit::Block(hmc_block)
        };
        entries.push(ScheduleEntry { kind: UpdateKind::Hmc, unit });
    }
    Ok(Schedule { updates: entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::parse_schedule;
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

    const HLR: &str = r#"(lambda, N, D, x) => {
        param sigma2 ~ Exponential(lambda) ;
        param b ~ Normal(0.0, sigma2) ;
        param theta[j] ~ Normal(0.0, sigma2) for j <- 0 until D ;
        data y[n] ~ Bernoulli(sigmoid(dot(x[n], theta) + b)) for n <- 0 until N ;
    }"#;

    #[test]
    fn heuristic_hgmm_is_all_gibbs() {
        let dm = build(HGMM);
        let sched = heuristic_schedule(&dm).unwrap();
        assert_eq!(sched.updates.len(), 4);
        assert!(sched.updates.iter().all(|u| u.kind == UpdateKind::Gibbs));
        let p = plan(&dm, &sched).unwrap();
        // pi, mu, Sigma conjugate; z finite-sum
        assert!(matches!(p.updates[0].fc, Some(FcStrategy::Conjugate(_))));
        assert!(matches!(p.updates[3].fc, Some(FcStrategy::FiniteSum(_))));
    }

    #[test]
    fn heuristic_hlr_is_one_hmc_block() {
        let dm = build(HLR);
        let sched = heuristic_schedule(&dm).unwrap();
        assert_eq!(sched.updates.len(), 1);
        assert_eq!(sched.updates[0].kind, UpdateKind::Hmc);
        assert_eq!(
            sched.updates[0].unit,
            KernelUnit::Block(vec!["sigma2".into(), "b".into(), "theta".into()])
        );
        assert!(plan(&dm, &sched).is_ok());
    }

    #[test]
    fn fig2_user_schedule_plans_on_gmm() {
        let dm = build(
            r#"(K, N, mu_0, Sigma_0, pis, Sigma) => {
            param mu[k] ~ MvNormal(mu_0, Sigma_0) for k <- 0 until K ;
            param z[n] ~ Categorical(pis) for n <- 0 until N ;
            data x[n] ~ MvNormal(mu[z[n]], Sigma) for n <- 0 until N ;
        }"#,
        );
        let sched = parse_schedule("ESlice mu (*) Gibbs z").unwrap();
        let p = plan(&dm, &sched).unwrap();
        assert_eq!(p.updates.len(), 2);
        assert_eq!(p.updates[0].base.kind, UpdateKind::EllipticalSlice);
        assert!(matches!(p.updates[1].fc, Some(FcStrategy::FiniteSum(_))));
    }

    #[test]
    fn uncovered_param_is_rejected() {
        let dm = build(HGMM);
        let sched = parse_schedule("Gibbs z").unwrap();
        assert!(matches!(plan(&dm, &sched), Err(KernelError::UncoveredParam(_))));
    }

    #[test]
    fn duplicate_param_is_rejected() {
        let dm = build(HGMM);
        let sched = parse_schedule("Gibbs z (*) Gibbs z (*) Gibbs pi (*) Gibbs mu (*) Gibbs Sigma")
            .unwrap();
        assert!(matches!(plan(&dm, &sched), Err(KernelError::DuplicateParam(_))));
    }

    #[test]
    fn data_variable_cannot_be_scheduled() {
        let dm = build(HGMM);
        let sched = parse_schedule("Gibbs y").unwrap();
        assert!(matches!(plan(&dm, &sched), Err(KernelError::NoSuchParam(_))));
    }

    #[test]
    fn gibbs_on_nonconjugate_continuous_fails() {
        let dm = build(HLR);
        let sched = parse_schedule("Gibbs sigma2 (*) HMC b theta").unwrap();
        match plan(&dm, &sched) {
            Err(KernelError::CannotGenerate { kind, .. }) => assert_eq!(kind, UpdateKind::Gibbs),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn hmc_on_discrete_fails() {
        let dm = build(HGMM);
        let sched = parse_schedule("HMC z (*) Gibbs pi (*) Gibbs mu (*) Gibbs Sigma").unwrap();
        match plan(&dm, &sched) {
            Err(KernelError::CannotGenerate { reason, .. }) => {
                assert!(reason.contains("continuous"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn eslice_requires_gaussian_prior() {
        let dm = build(HLR);
        let sched = parse_schedule("ESlice sigma2 (*) HMC b theta").unwrap();
        match plan(&dm, &sched) {
            Err(KernelError::CannotGenerate { reason, .. }) => {
                assert!(reason.contains("Gaussian"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // mu in the HGMM has an MvNormal prior — ESlice is fine there.
        let dm2 = build(HGMM);
        let s2 = parse_schedule("Gibbs pi (*) ESlice mu (*) Gibbs Sigma (*) Gibbs z").unwrap();
        assert!(plan(&dm2, &s2).is_ok());
    }

    #[test]
    fn mh_allows_continuous_only() {
        let dm = build(HLR);
        let ok = parse_schedule("MH sigma2 (*) HMC b theta").unwrap();
        assert!(plan(&dm, &ok).is_ok());
        let dm2 = build(HGMM);
        let bad = parse_schedule("MH z (*) Gibbs pi (*) Gibbs mu (*) Gibbs Sigma").unwrap();
        assert!(plan(&dm2, &bad).is_err());
    }

    #[test]
    fn hmc_alternative_for_gmm_means() {
        let dm = build(
            r#"(K, N, mu_0, Sigma_0, pis, Sigma) => {
            param mu[k] ~ MvNormal(mu_0, Sigma_0) for k <- 0 until K ;
            param z[n] ~ Categorical(pis) for n <- 0 until N ;
            data x[n] ~ MvNormal(mu[z[n]], Sigma) for n <- 0 until N ;
        }"#,
        );
        // The three Fig. 10 schedules for the cluster means:
        for sched_str in ["Gibbs mu (*) Gibbs z", "ESlice mu (*) Gibbs z", "HMC mu (*) Gibbs z"] {
            let sched = parse_schedule(sched_str).unwrap();
            let p = plan(&dm, &sched);
            assert!(p.is_ok(), "{sched_str}: {p:?}");
        }
    }
}

#[cfg(test)]
mod block_tests {
    use super::*;
    use crate::sched::parse_schedule;
    use augur_lang::{parse, typecheck};

    #[test]
    fn eslice_block_is_rejected() {
        let src = r#"(N, s2) => {
            param a ~ Normal(0.0, 1.0) ;
            param b ~ Normal(0.0, 1.0) ;
            data y[n] ~ Normal(a + b, s2) for n <- 0 until N ;
        }"#;
        let dm = augur_density::DensityModel::from_typed(&typecheck(&parse(src).unwrap()).unwrap())
            .unwrap();
        let sched = parse_schedule("ESlice a b").unwrap();
        match plan(&dm, &sched) {
            Err(KernelError::CannotGenerate { reason, .. }) => {
                assert!(reason.contains("separately"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
