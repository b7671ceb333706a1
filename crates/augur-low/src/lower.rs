//! Lowering the Kernel IL into Low++/Low-- procedures (paper §4.3–4.4).
//!
//! Each base update becomes the procedures its MCMC primitive needs
//! (Fig. 7): likelihood evaluation, closed-form conditional code, and/or a
//! gradient procedure from the AD pass. HMC and NUTS, which need both at
//! every position, get one procedure that computes them in one pass over
//! the data. The rest of each update — leapfrog
//! integration, slice bracketing, acceptance ratios — is runtime *library
//! code* in `augur-backend`, parameterized by these procedures, exactly as
//! the paper splits responsibilities.

use augur_density::{DensityModel, Factor};
use augur_dist::Support;
use augur_kernel::{FcStrategy, KernelPlan, UpdateKind};

use crate::from_density::{factors_ll_body, lower_expr};
use crate::gibbs::{gen_conjugate, gen_finite_sum};
use crate::grad::{adj_name, gen_grad_proc};
use crate::il::{AssignOp, Expr, LValue, LoopKind, ProcDecl, Stmt};
use crate::shape::{AllocDecl, ShapeSpec};
use crate::LowerError;

/// A support-driven reparameterization for unconstrained samplers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transform {
    /// Sample the variable directly.
    Identity,
    /// Sample `u = log x` (positive supports), with the Jacobian term
    /// `+u` added to the log-density by the runtime library.
    Log,
    /// Sample `u = logit x` (unit-interval supports), with the Jacobian
    /// term `+ log σ(u) + log σ(−u)`.
    Logit,
}

/// One executable step of the compiled MCMC algorithm — the Kernel IL with
/// `α` instantiated by Low-- procedure names.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Run a Gibbs procedure; it resamples `target` in place and is always
    /// accepted.
    Gibbs {
        /// Procedure to execute.
        proc_: String,
        /// The variable it resamples.
        target: String,
    },
    /// Hamiltonian Monte Carlo over a block of variables.
    Hmc {
        /// Targets with their transforms.
        targets: Vec<(String, Transform)>,
        /// Value-and-gradient procedure: returns the conditional
        /// log-likelihood and writes the adjoint buffers in one pass.
        llgrad_proc: String,
        /// Adjoint buffer per target, aligned with `targets`.
        adj_bufs: Vec<String>,
        /// Whether to use the No-U-Turn variant.
        nuts: bool,
    },
    /// Reflective slice sampling over a block.
    SliceRefl {
        /// Targets with their transforms.
        targets: Vec<(String, Transform)>,
        /// Conditional log-likelihood procedure.
        ll_proc: String,
        /// Gradient procedure.
        grad_proc: String,
        /// Adjoint buffer per target.
        adj_bufs: Vec<String>,
    },
    /// Elliptical slice sampling of one Gaussian-prior variable.
    ESlice {
        /// The variable.
        target: String,
        /// Likelihood-only procedure (prior excluded).
        lik_proc: String,
        /// Procedure drawing the auxiliary prior sample into `aux_buf`.
        prior_sample_proc: String,
        /// Auxiliary buffer (shaped like the target).
        aux_buf: String,
        /// Procedure writing the prior mean into `mean_buf`.
        prior_mean_proc: String,
        /// Prior-mean buffer (shaped like the target).
        mean_buf: String,
    },
    /// Metropolis-adjusted Langevin over a block (the §7.1 extensibility
    /// exercise: a new base update assembled from the existing ll/grad
    /// primitives).
    Mala {
        /// Targets with their transforms.
        targets: Vec<(String, Transform)>,
        /// Conditional log-likelihood procedure.
        ll_proc: String,
        /// Gradient procedure.
        grad_proc: String,
        /// Adjoint buffer per target.
        adj_bufs: Vec<String>,
    },
    /// Random-walk Metropolis–Hastings over a block.
    RwMh {
        /// Targets with their transforms.
        targets: Vec<(String, Transform)>,
        /// Conditional log-likelihood procedure.
        ll_proc: String,
    },
}

impl Step {
    /// The variables this step resamples.
    pub fn targets(&self) -> Vec<&str> {
        match self {
            Step::Gibbs { target, .. } | Step::ESlice { target, .. } => vec![target],
            Step::Hmc { targets, .. }
            | Step::SliceRefl { targets, .. }
            | Step::Mala { targets, .. }
            | Step::RwMh { targets, .. } => targets.iter().map(|(t, _)| t.as_str()).collect(),
        }
    }
}

/// The fully lowered model: planned allocations, procedures, the sweep
/// steps, and the prior-sampling initializer.
#[derive(Debug, Clone)]
pub struct LoweredModel {
    /// Buffers to allocate up front (size inference, §5.2).
    pub allocs: Vec<AllocDecl>,
    /// All generated procedures.
    pub procs: Vec<ProcDecl>,
    /// The sweep, in order.
    pub steps: Vec<Step>,
    /// Initializes every parameter by ancestral sampling from its prior.
    pub init_proc: String,
    /// Evaluates the full model log-joint (diagnostics / log-predictive).
    pub model_ll_proc: String,
}

/// Lowers a validated kernel plan into executable Low-- form.
///
/// # Errors
///
/// Returns a [`LowerError`] for constructs outside the supported fragment
/// (non-slice-constant likelihood parameters, non-differentiable target
/// expressions, unsupported constraint transforms).
pub fn lower(model: &DensityModel, plan: &KernelPlan) -> Result<LoweredModel, LowerError> {
    let mut allocs = Vec::new();
    let mut procs = Vec::new();
    let mut steps = Vec::new();

    for (i, pu) in plan.updates.iter().enumerate() {
        let cond = &pu.base.cond;
        let prefix = format!("u{i}");
        match pu.base.kind {
            UpdateKind::Gibbs => {
                let target = cond.targets[0].clone();
                let strategy = pu.fc.as_ref().ok_or_else(|| LowerError::MissingStrategy {
                    update: prefix.clone(),
                    var: target.clone(),
                })?;
                let code = match strategy {
                    FcStrategy::Conjugate(m) => gen_conjugate(i, cond, m)?,
                    FcStrategy::FiniteSum(sz) => gen_finite_sum(i, cond, sz)?,
                };
                allocs.extend(code.allocs);
                steps.push(Step::Gibbs { proc_: code.proc_.name.clone(), target });
                procs.push(code.proc_);
            }
            UpdateKind::Hmc | UpdateKind::Nuts => {
                // One procedure per position: the leapfrog needs the
                // log-density and the gradient at every point it visits.
                let targets = transforms_for(model, cond.targets.clone(), &prefix)?;
                let acc = format!("{prefix}_llacc");
                allocs.push(AllocDecl::shared(&acc, ShapeSpec::Scalar));
                let llgrad_proc = format!("{prefix}_llgrad");
                let (grad_allocs, proc_) =
                    gen_grad_proc(&prefix, &llgrad_proc, cond, &cond.targets, Some(&acc))?;
                allocs.extend(grad_allocs);
                procs.push(proc_);
                steps.push(Step::Hmc {
                    targets,
                    llgrad_proc,
                    adj_bufs: cond.targets.iter().map(|t| adj_name(&prefix, t)).collect(),
                    nuts: pu.base.kind == UpdateKind::Nuts,
                });
            }
            UpdateKind::Mala | UpdateKind::ReflectiveSlice => {
                // Two procedures: MALA and reflective slice evaluate the
                // log-density at points where they take no gradient.
                let targets = transforms_for(model, cond.targets.clone(), &prefix)?;
                let ll_name = format!("{prefix}_ll");
                let factors: Vec<&Factor> = cond.factors.iter().map(|cf| &cf.factor).collect();
                procs.push(ProcDecl {
                    name: ll_name.clone(),
                    body: factors_ll_body(&factors, &format!("{prefix}_llacc")),
                    ret: Some(Expr::var(format!("{prefix}_llacc"))),
                });
                allocs.push(AllocDecl::shared(format!("{prefix}_llacc"), ShapeSpec::Scalar));
                let grad_name = format!("{prefix}_grad");
                let (grad_allocs, grad_proc) =
                    gen_grad_proc(&prefix, &grad_name, cond, &cond.targets, None)?;
                let adj_bufs: Vec<String> =
                    cond.targets.iter().map(|t| adj_name(&prefix, t)).collect();
                allocs.extend(grad_allocs);
                procs.push(grad_proc);
                steps.push(if pu.base.kind == UpdateKind::Mala {
                    Step::Mala { targets, ll_proc: ll_name, grad_proc: grad_name, adj_bufs }
                } else {
                    Step::SliceRefl { targets, ll_proc: ll_name, grad_proc: grad_name, adj_bufs }
                });
            }
            UpdateKind::EllipticalSlice => {
                let target = cond.targets[0].clone();
                let lik_name = format!("{prefix}_lik");
                let lik_factors: Vec<&Factor> = cond.likelihoods().map(|cf| &cf.factor).collect();
                procs.push(ProcDecl {
                    name: lik_name.clone(),
                    body: factors_ll_body(&lik_factors, &format!("{prefix}_llacc")),
                    ret: Some(Expr::var(format!("{prefix}_llacc"))),
                });
                allocs.push(AllocDecl::shared(format!("{prefix}_llacc"), ShapeSpec::Scalar));

                let prior = cond
                    .prior()
                    .ok_or_else(|| LowerError::MissingPrior { var: target.clone() })?
                    .factor
                    .clone();
                let aux_buf = format!("{prefix}_nu");
                let mean_buf = format!("{prefix}_pm");
                allocs.push(AllocDecl::shared(&aux_buf, ShapeSpec::LikeVar(target.clone())));
                allocs.push(AllocDecl::shared(&mean_buf, ShapeSpec::LikeVar(target.clone())));

                let psamp_name = format!("{prefix}_prior_sample");
                procs.push(sample_into_proc(&psamp_name, &prior, &aux_buf));
                let pmean_name = format!("{prefix}_prior_mean");
                procs.push(store_arg_proc(&pmean_name, &prior, 0, &mean_buf));
                steps.push(Step::ESlice {
                    target,
                    lik_proc: lik_name,
                    prior_sample_proc: psamp_name,
                    aux_buf,
                    prior_mean_proc: pmean_name,
                    mean_buf,
                });
            }
            UpdateKind::MetropolisHastings => {
                let targets = transforms_for(model, cond.targets.clone(), &prefix)?;
                let ll_name = format!("{prefix}_ll");
                let factors: Vec<&Factor> = cond.factors.iter().map(|cf| &cf.factor).collect();
                procs.push(ProcDecl {
                    name: ll_name.clone(),
                    body: factors_ll_body(&factors, &format!("{prefix}_llacc")),
                    ret: Some(Expr::var(format!("{prefix}_llacc"))),
                });
                allocs.push(AllocDecl::shared(format!("{prefix}_llacc"), ShapeSpec::Scalar));
                steps.push(Step::RwMh { targets, ll_proc: ll_name });
            }
        }
    }

    // Initializer: ancestral sampling of every parameter from its prior.
    let init_proc = "init_params".to_owned();
    procs.push(init_params_proc(model, &init_proc)?);

    // Full-model joint log-density.
    let model_ll_proc = "model_ll".to_owned();
    let all_factors: Vec<&Factor> = model.factors.iter().collect();
    allocs.push(AllocDecl::shared("model_llacc", ShapeSpec::Scalar));
    procs.push(ProcDecl {
        name: model_ll_proc.clone(),
        body: factors_ll_body(&all_factors, "model_llacc"),
        ret: Some(Expr::var("model_llacc")),
    });

    Ok(LoweredModel { allocs, procs, steps, init_proc, model_ll_proc })
}

/// Chooses the constraint transform for each target from its prior
/// support.
fn transforms_for(
    model: &DensityModel,
    targets: Vec<String>,
    prefix: &str,
) -> Result<Vec<(String, Transform)>, LowerError> {
    targets
        .into_iter()
        .map(|t| {
            let support = model
                .prior_factor(&t)
                .map(|(_, f)| f.dist.support())
                .ok_or_else(|| LowerError::MissingPrior { var: t.clone() })?;
            let tr = match support {
                Support::RealPos => Transform::Log,
                Support::UnitInterval => Transform::Logit,
                Support::RealLine | Support::RealVector | Support::Interval => Transform::Identity,
                other => {
                    return Err(LowerError::UnsupportedTransform {
                        update: prefix.to_owned(),
                        var: t.clone(),
                        support: format!("{other:?}"),
                    })
                }
            };
            Ok((t, tr))
        })
        .collect()
}

/// `loop Par (comps) { buf[idx…] = dist(args).samp }`.
fn sample_into_proc(name: &str, prior: &Factor, buf: &str) -> ProcDecl {
    let lhs = LValue {
        var: buf.to_owned(),
        indices: prior.comps.iter().map(|c| Expr::var(&c.var)).collect(),
    };
    let body = crate::from_density::wrap_comps(
        &prior.comps,
        LoopKind::Par,
        Stmt::Sample { lhs, dist: prior.dist, args: prior.args.iter().map(lower_expr).collect() },
    );
    ProcDecl { name: name.to_owned(), body, ret: None }
}

/// `loop Par (comps) { buf[idx…] = args[pos] }` — e.g. materializing the
/// prior mean for elliptical slice rotation.
fn store_arg_proc(name: &str, prior: &Factor, pos: usize, buf: &str) -> ProcDecl {
    let lhs = LValue {
        var: buf.to_owned(),
        indices: prior.comps.iter().map(|c| Expr::var(&c.var)).collect(),
    };
    let body = crate::from_density::wrap_comps(
        &prior.comps,
        LoopKind::Par,
        Stmt::Assign { lhs, op: AssignOp::Set, rhs: lower_expr(&prior.args[pos]) },
    );
    ProcDecl { name: name.to_owned(), body, ret: None }
}

/// Ancestral prior sampling of all parameters, in declaration order.
fn init_params_proc(model: &DensityModel, name: &str) -> Result<ProcDecl, LowerError> {
    let mut stmts = Vec::new();
    for p in model.params() {
        let (_, prior) = model
            .prior_factor(&p.name)
            .ok_or_else(|| LowerError::MissingPrior { var: p.name.clone() })?;
        let lhs = LValue {
            var: p.name.clone(),
            indices: prior.comps.iter().map(|c| Expr::var(&c.var)).collect(),
        };
        stmts.push(crate::from_density::wrap_comps(
            &prior.comps,
            LoopKind::Par,
            Stmt::Sample {
                lhs,
                dist: prior.dist,
                args: prior.args.iter().map(lower_expr).collect(),
            },
        ));
    }
    Ok(ProcDecl { name: name.to_owned(), body: Stmt::seq(stmts), ret: None })
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_kernel::{heuristic_schedule, parse_schedule, plan};
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
    fn hgmm_heuristic_lowers_to_four_gibbs_steps() {
        let dm = build(HGMM);
        let sched = heuristic_schedule(&dm).unwrap();
        let kp = plan(&dm, &sched).unwrap();
        let lm = lower(&dm, &kp).unwrap();
        assert_eq!(lm.steps.len(), 4);
        assert!(lm.steps.iter().all(|s| matches!(s, Step::Gibbs { .. })));
        // init + model_ll + 4 gibbs procs
        assert_eq!(lm.procs.len(), 6);
    }

    #[test]
    fn hlr_heuristic_lowers_to_one_hmc_step_with_log_transform() {
        let dm = build(HLR);
        let sched = heuristic_schedule(&dm).unwrap();
        let kp = plan(&dm, &sched).unwrap();
        let lm = lower(&dm, &kp).unwrap();
        assert_eq!(lm.steps.len(), 1);
        match &lm.steps[0] {
            Step::Hmc { targets, adj_bufs, nuts, .. } => {
                assert!(!nuts);
                assert_eq!(targets.len(), 3);
                assert_eq!(targets[0], ("sigma2".to_owned(), Transform::Log));
                assert_eq!(targets[1].1, Transform::Identity);
                assert_eq!(adj_bufs.len(), 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn hmc_gets_one_value_and_gradient_procedure_and_mala_two() {
        let dm = build(HLR);
        let lm = lower(&dm, &plan(&dm, &parse_schedule("HMC sigma2 b theta").unwrap()).unwrap())
            .unwrap();
        let names: Vec<&str> = lm.procs.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["u0_llgrad", "init_params", "model_ll"]);
        assert!(
            matches!(&lm.steps[0], Step::Hmc { llgrad_proc, .. } if llgrad_proc == "u0_llgrad")
        );
        let s = crate::il::pretty_proc(&lm.procs[0]);
        assert!(s.starts_with("u0_llgrad() {"), "{s}");
        assert!(s.contains("u0_llacc = 0.0;"), "{s}");
        assert!(s.contains("ret u0_llacc;"), "{s}");
        // the row's log-density term opens the body its adjoints share
        let ll = s.find("u0_llacc += BernoulliLogit((dot(x[n], theta) + b)).ll(y[n]);").unwrap();
        let adj = s.find("u0_adj_theta += vec_scale(").unwrap();
        assert!(ll < adj, "{s}");
        assert_eq!(s.matches("loop AtmPar (n <- 0 until N)").count(), 1, "{s}");
        // allocation order: the accumulator, then the adjoints
        let allocs: Vec<&str> = lm.allocs.iter().map(|a| a.name.as_str()).take(4).collect();
        assert_eq!(allocs, ["u0_llacc", "u0_adj_sigma2", "u0_adj_b", "u0_adj_theta"]);

        let lm = lower(&dm, &plan(&dm, &parse_schedule("MALA sigma2 b theta").unwrap()).unwrap())
            .unwrap();
        let names: Vec<&str> = lm.procs.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["u0_ll", "u0_grad", "init_params", "model_ll"]);
        assert!(lm.procs[1].ret.is_none());
    }

    #[test]
    fn mismatched_plan_and_model_is_a_typed_error() {
        // Plan built for HLR, lowered against HGMM: the plan's HMC targets
        // (`sigma2`, `b`, `theta`) have no priors in HGMM, so lowering must
        // fail with a typed error rather than panic.
        let hlr = build(HLR);
        let sched = heuristic_schedule(&hlr).unwrap();
        let kp = plan(&hlr, &sched).unwrap();
        let hgmm = build(HGMM);
        match lower(&hgmm, &kp) {
            Err(LowerError::MissingPrior { var }) => assert_eq!(var, "sigma2"),
            other => panic!("expected MissingPrior, got {other:?}"),
        }
    }

    #[test]
    fn fig2_schedule_lowers_eslice_and_finite_gibbs() {
        let dm = build(
            r#"(K, N, mu_0, Sigma_0, pis, Sigma) => {
            param mu[k] ~ MvNormal(mu_0, Sigma_0) for k <- 0 until K ;
            param z[n] ~ Categorical(pis) for n <- 0 until N ;
            data x[n] ~ MvNormal(mu[z[n]], Sigma) for n <- 0 until N ;
        }"#,
        );
        let sched = parse_schedule("ESlice mu (*) Gibbs z").unwrap();
        let kp = plan(&dm, &sched).unwrap();
        let lm = lower(&dm, &kp).unwrap();
        assert_eq!(lm.steps.len(), 2);
        match &lm.steps[0] {
            Step::ESlice { target, lik_proc, .. } => {
                assert_eq!(target, "mu");
                let lik = lm.procs.iter().find(|p| &p.name == lik_proc).unwrap();
                let s = crate::il::pretty_proc(lik);
                // prior excluded: only the data factor appears
                assert!(s.contains("MvNormal(mu[z[n]], Sigma).ll(x[n])"), "{s}");
                assert!(!s.contains("MvNormal(mu_0, Sigma_0)"), "{s}");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(&lm.steps[1], Step::Gibbs { .. }));
    }

    #[test]
    fn init_proc_samples_every_param_in_order() {
        let dm = build(HGMM);
        let sched = heuristic_schedule(&dm).unwrap();
        let kp = plan(&dm, &sched).unwrap();
        let lm = lower(&dm, &kp).unwrap();
        let init = lm.procs.iter().find(|p| p.name == lm.init_proc).unwrap();
        let s = crate::il::pretty_proc(init);
        let pi_pos = s.find("pi = Dirichlet(alpha).samp").unwrap();
        let z_pos = s.find("z[n] = Categorical(pi).samp").unwrap();
        assert!(pi_pos < z_pos, "{s}");
        assert!(s.contains("Sigma[k] = InvWishart(nu, Psi).samp;"), "{s}");
    }

    #[test]
    fn model_ll_covers_all_factors() {
        let dm = build(HLR);
        let sched = heuristic_schedule(&dm).unwrap();
        let kp = plan(&dm, &sched).unwrap();
        let lm = lower(&dm, &kp).unwrap();
        let ll = lm.procs.iter().find(|p| p.name == lm.model_ll_proc).unwrap();
        let s = crate::il::pretty_proc(ll);
        assert!(s.contains("Exponential(lambda).ll(sigma2)"), "{s}");
        assert!(s.contains("BernoulliLogit((dot(x[n], theta) + b)).ll(y[n])"), "{s}");
        assert!(s.contains("ret model_llacc;"), "{s}");
    }

    #[test]
    fn reflective_slice_step_lowered() {
        let dm = build(
            r#"(N, s2) => {
            param m ~ Normal(0.0, 10.0) ;
            data y[n] ~ Normal(m, s2) for n <- 0 until N ;
        }"#,
        );
        let sched = parse_schedule("Slice m").unwrap();
        let kp = plan(&dm, &sched).unwrap();
        let lm = lower(&dm, &kp).unwrap();
        assert!(matches!(&lm.steps[0], Step::SliceRefl { .. }));
    }

    #[test]
    fn mh_step_lowered_with_ll_only() {
        let dm = build(HLR);
        let sched = parse_schedule("MH sigma2 (*) HMC b theta").unwrap();
        let kp = plan(&dm, &sched).unwrap();
        let lm = lower(&dm, &kp).unwrap();
        match &lm.steps[0] {
            Step::RwMh { targets, .. } => {
                assert_eq!(targets[0], ("sigma2".to_owned(), Transform::Log));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
