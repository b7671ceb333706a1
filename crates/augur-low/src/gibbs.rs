//! Gibbs (`FC`) update code generation (paper §4.4).
//!
//! Two flavours:
//!
//! * **conjugate** — one generator per conjugacy relation: reset the
//!   sufficient statistics, accumulate them with an `AtmPar` loop over the
//!   likelihood (this is the "traversing the involved variables and
//!   computing some simple statistic"), then sample every target slice
//!   from the closed-form posterior in a `Par` loop;
//! * **finite-sum** — for discrete variables: enumerate the support,
//!   score each candidate against the conditional's factors, and draw from
//!   the normalized weights (§4.4's "directly sums over the support").

use augur_density::conjugacy::{ConjugacyMatch, SupportSize};
use augur_density::{Comp, Conditional, DExpr};
use augur_dist::conjugacy::Relation;
use augur_dist::DistKind;

use crate::from_density::{lower_expr, stabilized_atom, wrap_comps};
use crate::il::{AssignOp, Expr, LValue, LoopKind, OpN, ProcDecl, Stmt};
use crate::shape::{AllocDecl, ShapeSpec, SizeExpr};
use crate::LowerError;

/// The code generated for one Gibbs update.
#[derive(Debug, Clone)]
pub struct GibbsCode {
    /// Buffers the update needs (sufficient statistics or weight vectors).
    pub allocs: Vec<AllocDecl>,
    /// The update procedure; running it resamples the target in place.
    pub proc_: ProcDecl,
}

/// Generates a conjugate Gibbs update for `cond` matched by `m`.
///
/// # Errors
///
/// Returns [`LowerError`] when a likelihood's fixed parameters are not
/// constant on target slices (a precision loss the structural analysis
/// cannot repair).
pub fn gen_conjugate(
    uidx: usize,
    cond: &Conditional,
    m: &ConjugacyMatch,
) -> Result<GibbsCode, LowerError> {
    let target = &cond.targets[0];
    assert!(cond.target_comps.len() <= 1, "conjugate targets have at most one comprehension level");
    let slice = cond.target_comps.first();
    let prefix = format!("u{uidx}");
    let mut allocs = Vec::new();
    let mut stmts = Vec::new();

    // Prior parameters, lowered once.
    let prior_args: Vec<Expr> = m.prior_args.iter().map(lower_expr).collect();

    // --- 1. declare + reset sufficient statistics (one set per term) ---
    let stats = stat_layout(m);
    for (t, term_stats) in stats.iter().enumerate() {
        for st in term_stats {
            let name = stat_name(&prefix, t, st.tag);
            allocs.push(AllocDecl::shared(&name, wrap_table(slice, st.shape.clone())));
            stmts.push(reset_stat(&name, slice, &st.shape));
        }
    }

    // --- 2. accumulate statistics over each likelihood term ---
    for (t, lik) in m.likelihoods.iter().enumerate() {
        let cf = &cond.factors[lik.cond_factor_index];
        let f = &cf.factor;
        // Iteration space and slice index:
        //  * indicator form (categorical indexing): iterate the inner
        //    comps only; the slice index is the indicator's right side.
        //  * direct alignment: iterate all comps; the slice index is the
        //    target's own comprehension variable.
        let (iter_comps, idx): (&[Comp], Option<DExpr>) = if let Some((_, rhs)) = f.inds.first() {
            (&f.comps[1..], Some(rhs.clone()))
        } else if slice.is_some() {
            (&f.comps[..], Some(DExpr::var(&f.comps[0].var)))
        } else {
            (&f.comps[..], None)
        };
        let body = accumulate_stats(&prefix, t, m.relation, lik.target_pos, f, idx.as_ref())?;
        stmts.push(wrap_comps(iter_comps, LoopKind::AtmPar, body));
    }

    // --- 3. sample each target slice from the closed-form posterior ---
    let sample = posterior_sample(&prefix, m, cond, &prior_args, slice)?;
    match slice {
        Some(c) => stmts.push(Stmt::Loop {
            kind: LoopKind::Par,
            var: c.var.clone(),
            lo: lower_expr(&c.lo),
            hi: lower_expr(&c.hi),
            body: Box::new(sample),
        }),
        None => stmts.push(sample),
    }

    let _ = target;
    Ok(GibbsCode {
        allocs,
        proc_: ProcDecl { name: format!("{prefix}_gibbs"), body: Stmt::seq(stmts), ret: None },
    })
}

/// One sufficient statistic of a relation term.
struct StatSpec {
    tag: &'static str,
    shape: ShapeSpec,
}

/// Per-term sufficient statistics of each relation. Shapes are *per
/// slice*; [`wrap_table`] adds the slice dimension.
fn stat_layout(m: &ConjugacyMatch) -> Vec<Vec<StatSpec>> {
    m.likelihoods
        .iter()
        .map(|_| match m.relation {
            Relation::DirichletCategorical => vec![StatSpec {
                tag: "cnt",
                shape: ShapeSpec::Vec(SizeExpr::LenOf(m.prior_args[0].clone())),
            }],
            Relation::BetaBernoulli => vec![
                StatSpec { tag: "n1", shape: ShapeSpec::Scalar },
                StatSpec { tag: "n0", shape: ShapeSpec::Scalar },
            ],
            Relation::NormalNormalMean | Relation::GammaPoisson | Relation::GammaExponential => {
                vec![
                    StatSpec { tag: "cnt", shape: ShapeSpec::Scalar },
                    StatSpec { tag: "sum", shape: ShapeSpec::Scalar },
                ]
            }
            Relation::MvNormalMvNormalMean => vec![
                StatSpec { tag: "cnt", shape: ShapeSpec::Scalar },
                StatSpec {
                    tag: "sum",
                    shape: ShapeSpec::Vec(SizeExpr::LenOf(m.prior_args[0].clone())),
                },
            ],
            Relation::InvGammaNormalVar => vec![
                StatSpec { tag: "cnt", shape: ShapeSpec::Scalar },
                StatSpec { tag: "ssd", shape: ShapeSpec::Scalar },
            ],
            Relation::InvWishartMvNormalCov => vec![
                StatSpec { tag: "cnt", shape: ShapeSpec::Scalar },
                StatSpec {
                    tag: "scatter",
                    shape: ShapeSpec::Mat(SizeExpr::DimOf(m.prior_args[1].clone())),
                },
            ],
        })
        .collect()
}

fn stat_name(prefix: &str, term: usize, tag: &str) -> String {
    format!("{prefix}_t{term}_{tag}")
}

fn wrap_table(slice: Option<&Comp>, inner: ShapeSpec) -> ShapeSpec {
    match slice {
        Some(c) => ShapeSpec::Table { rows: SizeExpr::Expr(c.hi.clone()), inner: Box::new(inner) },
        None => inner,
    }
}

fn reset_stat(name: &str, slice: Option<&Comp>, _inner: &ShapeSpec) -> Stmt {
    // Broadcast store of 0.0 over the whole buffer (or the slice row).
    let zero = Stmt::Assign { lhs: LValue::name(name), op: AssignOp::Set, rhs: Expr::Real(0.0) };
    // Whole-buffer broadcast works regardless of slicing.
    let _ = slice;
    zero
}

/// Builds the per-datum statistic increments for one likelihood term.
fn accumulate_stats(
    prefix: &str,
    term: usize,
    relation: Relation,
    target_pos: usize,
    f: &augur_density::Factor,
    idx: Option<&DExpr>,
) -> Result<Stmt, LowerError> {
    let stat_lv = |tag: &str, extra: Option<Expr>| {
        let mut indices = Vec::new();
        if let Some(i) = idx {
            indices.push(lower_expr(i));
        }
        if let Some(e) = extra {
            indices.push(e);
        }
        LValue { var: stat_name(prefix, term, tag), indices }
    };
    let inc = |lhs: LValue, rhs: Expr| Stmt::Assign { lhs, op: AssignOp::Inc, rhs };
    let pt = lower_expr(&f.point);
    let one = Expr::Real(1.0);

    // The "other" likelihood parameter (mean for variance updates, …),
    // used inside deviation statistics.
    let other_arg = |pos: usize| -> Expr { lower_expr(&f.args[pos]) };

    let stmt = match relation {
        Relation::DirichletCategorical => {
            // cnt[idx][point] += 1
            inc(stat_lv("cnt", Some(pt)), one)
        }
        Relation::BetaBernoulli => Stmt::seq(vec![
            inc(stat_lv("n1", None), pt.clone()),
            inc(
                stat_lv("n0", None),
                Expr::Binop(crate::il::BinOp::Sub, Box::new(one), Box::new(pt)),
            ),
        ]),
        Relation::NormalNormalMean
        | Relation::MvNormalMvNormalMean
        | Relation::GammaPoisson
        | Relation::GammaExponential => {
            Stmt::seq(vec![inc(stat_lv("cnt", None), one), inc(stat_lv("sum", None), pt)])
        }
        Relation::InvGammaNormalVar => {
            let mean = other_arg(1 - target_pos);
            let dev = Expr::Binop(crate::il::BinOp::Sub, Box::new(pt), Box::new(mean));
            Stmt::seq(vec![
                inc(stat_lv("cnt", None), one),
                inc(
                    stat_lv("ssd", None),
                    Expr::Binop(crate::il::BinOp::Mul, Box::new(dev.clone()), Box::new(dev)),
                ),
            ])
        }
        Relation::InvWishartMvNormalCov => {
            let mean = other_arg(1 - target_pos);
            Stmt::seq(vec![
                inc(stat_lv("cnt", None), one),
                inc(stat_lv("scatter", None), Expr::Op(OpN::OuterSub, vec![pt, mean])),
            ])
        }
    };
    Ok(stmt)
}

/// Builds the posterior sampling statement for one target slice.
fn posterior_sample(
    prefix: &str,
    m: &ConjugacyMatch,
    cond: &Conditional,
    prior_args: &[Expr],
    slice: Option<&Comp>,
) -> Result<Stmt, LowerError> {
    let target = &cond.targets[0];
    let slice_var = slice.map(|c| c.var.clone());
    let stat = |term: usize, tag: &str| -> Expr {
        let base = Expr::var(stat_name(prefix, term, tag));
        match &slice_var {
            Some(v) => Expr::index(base, Expr::var(v)),
            None => base,
        }
    };
    let lhs = LValue {
        var: target.clone(),
        indices: slice_var.iter().map(|v| Expr::var(v.clone())).collect(),
    };
    // Fold helper: sums an expression over all likelihood terms.
    let terms = m.likelihoods.len();
    let sum_terms = |mk: &dyn Fn(usize) -> Expr| -> Expr {
        let mut acc = mk(0);
        for t in 1..terms {
            acc = add(acc, mk(t));
        }
        acc
    };

    // The fixed likelihood parameter (e.g. the known variance), evaluated
    // on the current slice: inside an indicator factor the index
    // expression equals the slice variable, so substitute it.
    let fixed_arg = |term: usize, pos: usize| -> Result<Expr, LowerError> {
        let cf = &cond.factors[m.likelihoods[term].cond_factor_index];
        let f = &cf.factor;
        let mut e = f.args[pos].clone();
        if let (Some((lhs_ind, rhs_ind)), Some(sv)) = (f.inds.first(), &slice_var) {
            let _ = lhs_ind;
            e = e.subst_expr(rhs_ind, &DExpr::var(sv));
        }
        // After substitution the expression must be slice-constant: free of
        // the factor's inner comprehension variables.
        for c in f.comps.iter().skip(if f.inds.is_empty() { 0 } else { 1 }) {
            let is_target_comp = slice.is_some_and(|tc| tc.var == c.var);
            if !is_target_comp && e.mentions(&c.var) {
                return Err(LowerError::NotSliceConstant {
                    update: prefix.to_owned(),
                    expr: format!("{e}"),
                    comp_var: c.var.clone(),
                });
            }
        }
        Ok(lower_expr(&e))
    };

    let stmt = match m.relation {
        Relation::DirichletCategorical => Stmt::Sample {
            lhs,
            dist: DistKind::Dirichlet,
            args: vec![sum_terms(&|t| {
                if t == 0 {
                    Expr::Op(OpN::VecAdd, vec![prior_args[0].clone(), stat(0, "cnt")])
                } else {
                    stat(t, "cnt")
                }
            })],
        },
        Relation::BetaBernoulli => Stmt::Sample {
            lhs,
            dist: DistKind::Beta,
            args: vec![
                add(prior_args[0].clone(), sum_terms(&|t| stat(t, "n1"))),
                add(prior_args[1].clone(), sum_terms(&|t| stat(t, "n0"))),
            ],
        },
        Relation::NormalNormalMean => {
            // prec = 1/var0 + Σ_t cnt_t / var_t ; post_var = 1/prec ;
            // post_mu = post_var * (mu0/var0 + Σ_t sum_t / var_t)
            let mut prec = div(Expr::Real(1.0), prior_args[1].clone());
            let mut num = div(prior_args[0].clone(), prior_args[1].clone());
            for t in 0..terms {
                let var_t = fixed_arg(t, 1 - m.likelihoods[t].target_pos)?;
                prec = add(prec, div(stat(t, "cnt"), var_t.clone()));
                num = add(num, div(stat(t, "sum"), var_t));
            }
            let post_var = div(Expr::Real(1.0), prec);
            let post_mu = mul(post_var.clone(), num);
            Stmt::Sample { lhs, dist: DistKind::Normal, args: vec![post_mu, post_var] }
        }
        Relation::MvNormalMvNormalMean => {
            // Λ = Σ0⁻¹ + Σ_t cnt_t Σ_t⁻¹ ; post_cov = Λ⁻¹ ;
            // post_mu = post_cov (Σ0⁻¹ mu0 + Σ_t Σ_t⁻¹ sum_t)
            let prior_prec = Expr::Op(OpN::MatInv, vec![prior_args[1].clone()]);
            let mut lam = prior_prec.clone();
            let mut rhs = Expr::Op(OpN::MatVec, vec![prior_prec, prior_args[0].clone()]);
            for t in 0..terms {
                let cov_t = fixed_arg(t, 1 - m.likelihoods[t].target_pos)?;
                let prec_t = Expr::Op(OpN::MatInv, vec![cov_t]);
                lam = Expr::Op(
                    OpN::MatAdd,
                    vec![lam, Expr::Op(OpN::MatScale, vec![stat(t, "cnt"), prec_t.clone()])],
                );
                rhs = Expr::Op(
                    OpN::VecAdd,
                    vec![rhs, Expr::Op(OpN::MatVec, vec![prec_t, stat(t, "sum")])],
                );
            }
            let post_cov = Expr::Op(OpN::MatInv, vec![lam]);
            let post_mu = Expr::Op(OpN::MatVec, vec![post_cov.clone(), rhs]);
            Stmt::Sample { lhs, dist: DistKind::MvNormal, args: vec![post_mu, post_cov] }
        }
        Relation::InvGammaNormalVar => Stmt::Sample {
            lhs,
            dist: DistKind::InvGamma,
            args: vec![
                add(prior_args[0].clone(), mul(Expr::Real(0.5), sum_terms(&|t| stat(t, "cnt")))),
                add(prior_args[1].clone(), mul(Expr::Real(0.5), sum_terms(&|t| stat(t, "ssd")))),
            ],
        },
        Relation::InvWishartMvNormalCov => {
            let mut psi = prior_args[1].clone();
            for t in 0..terms {
                psi = Expr::Op(OpN::MatAdd, vec![psi, stat(t, "scatter")]);
            }
            Stmt::Sample {
                lhs,
                dist: DistKind::InvWishart,
                args: vec![add(prior_args[0].clone(), sum_terms(&|t| stat(t, "cnt"))), psi],
            }
        }
        Relation::GammaPoisson => Stmt::Sample {
            lhs,
            dist: DistKind::Gamma,
            args: vec![
                add(prior_args[0].clone(), sum_terms(&|t| stat(t, "sum"))),
                add(prior_args[1].clone(), sum_terms(&|t| stat(t, "cnt"))),
            ],
        },
        Relation::GammaExponential => Stmt::Sample {
            lhs,
            dist: DistKind::Gamma,
            args: vec![
                add(prior_args[0].clone(), sum_terms(&|t| stat(t, "cnt"))),
                add(prior_args[1].clone(), sum_terms(&|t| stat(t, "sum"))),
            ],
        },
    };
    Ok(stmt)
}

fn add(a: Expr, b: Expr) -> Expr {
    Expr::Binop(crate::il::BinOp::Add, Box::new(a), Box::new(b))
}
fn mul(a: Expr, b: Expr) -> Expr {
    Expr::Binop(crate::il::BinOp::Mul, Box::new(a), Box::new(b))
}
fn div(a: Expr, b: Expr) -> Expr {
    Expr::Binop(crate::il::BinOp::Div, Box::new(a), Box::new(b))
}

/// Generates a finite-sum Gibbs update for a discrete variable.
///
/// Two lowerings:
///
/// * **aligned** (mixture pattern) — every conditional factor decomposes
///   over the target's slices, so candidates are scored with the slice
///   substituted symbolically and all slices resample in parallel;
/// * **mutate-and-score** — some factor uses the variable whole (e.g. the
///   binary hidden units of a sigmoid belief network flowing through
///   `dot`), so slices are *not* conditionally independent: the generated
///   code walks slices sequentially, writes each candidate into the state,
///   scores the full conditional, and draws from the log weights. This is
///   single-site Gibbs — more expensive, still exact.
pub fn gen_finite_sum(
    uidx: usize,
    cond: &Conditional,
    support: &SupportSize,
) -> Result<GibbsCode, LowerError> {
    let target = &cond.targets[0];
    let prefix = format!("u{uidx}");
    let cand = format!("{prefix}_c");
    let wname = format!("{prefix}_w");

    let support_expr = match support {
        SupportSize::VecLen(e) => Expr::Len(Box::new(lower_expr(e))),
        SupportSize::Fixed(n) => Expr::Int(*n),
    };
    let support_size = match support {
        SupportSize::VecLen(e) => SizeExpr::LenOf(e.clone()),
        SupportSize::Fixed(n) => SizeExpr::Const(*n),
    };
    let allocs = vec![AllocDecl::thread_local(&wname, ShapeSpec::Vec(support_size))];

    // The target slice expression, e.g. `z[n]` or `z[d][j]`.
    let mut chain = DExpr::var(target);
    for c in &cond.target_comps {
        chain = DExpr::index(chain, DExpr::var(&c.var));
    }

    if cond.fully_aligned() {
        gen_finite_sum_aligned(cond, &prefix, &cand, &wname, support_expr, allocs, &chain)
    } else {
        gen_finite_sum_sequential(cond, &prefix, &cand, &wname, support_expr, allocs)
    }
}

/// The parallel, substitution-based lowering (mixture models).
#[allow(clippy::too_many_arguments)]
fn gen_finite_sum_aligned(
    cond: &Conditional,
    prefix: &str,
    cand: &str,
    wname: &str,
    support_expr: Expr,
    allocs: Vec<AllocDecl>,
    chain: &DExpr,
) -> Result<GibbsCode, LowerError> {
    let target = &cond.targets[0];
    // Candidate scoring: w[c] = Σ_factors ll(factor with chain := c).
    let mut score = vec![Stmt::Assign {
        lhs: LValue { var: wname.to_owned(), indices: vec![Expr::var(cand)] },
        op: AssignOp::Set,
        rhs: Expr::Real(0.0),
    }];
    for cf in &cond.factors {
        let f = &cf.factor;
        // Substitute the candidate for the target slice throughout.
        let subst = |e: &DExpr| e.subst_expr(chain, &DExpr::var(cand));
        let sf = augur_density::Factor {
            comps: f.comps.clone(),
            inds: f.inds.iter().map(|(l, r)| (subst(l), subst(r))).collect(),
            dist: f.dist,
            args: f.args.iter().map(&subst).collect(),
            point: subst(&f.point),
        };
        let atom = {
            let (dist, args) = stabilized_atom(&sf);
            Expr::DistLl {
                dist,
                args: args.iter().map(lower_expr).collect(),
                point: Box::new(lower_expr(&sf.point)),
            }
        };
        let body = crate::from_density::wrap_inds(
            &sf,
            Stmt::Assign {
                lhs: LValue { var: wname.to_owned(), indices: vec![Expr::var(cand)] },
                op: AssignOp::Inc,
                rhs: atom,
            },
        );
        // Inner comprehensions beyond the target's own (rare) run
        // sequentially inside the candidate loop.
        let inner = &f.comps[cond.target_comps.len()..];
        score.push(wrap_comps(inner, LoopKind::Seq, body));
    }

    let candidate_loop = Stmt::Loop {
        kind: LoopKind::Seq,
        var: cand.to_owned(),
        lo: Expr::Int(0),
        hi: support_expr,
        body: Box::new(Stmt::seq(score)),
    };
    let draw = Stmt::SampleLogits {
        lhs: LValue {
            var: target.clone(),
            indices: cond.target_comps.iter().map(|c| Expr::var(&c.var)).collect(),
        },
        weights: Expr::var(wname),
    };
    let body = wrap_comps(&cond.target_comps, LoopKind::Par, Stmt::seq(vec![candidate_loop, draw]));
    Ok(GibbsCode { allocs, proc_: ProcDecl { name: format!("{prefix}_gibbs"), body, ret: None } })
}

/// The sequential mutate-and-score lowering (whole-variable likelihood
/// dependence, e.g. sigmoid belief networks).
fn gen_finite_sum_sequential(
    cond: &Conditional,
    prefix: &str,
    cand: &str,
    wname: &str,
    support_expr: Expr,
    allocs: Vec<AllocDecl>,
) -> Result<GibbsCode, LowerError> {
    let target = &cond.targets[0];
    let slice_lv = LValue {
        var: target.clone(),
        indices: cond.target_comps.iter().map(|c| Expr::var(&c.var)).collect(),
    };
    // Candidate loop body: write the candidate into the state, then score
    // every conditional factor *whole*.
    let mut score = vec![
        Stmt::Assign { lhs: slice_lv.clone(), op: AssignOp::Set, rhs: Expr::var(cand) },
        Stmt::Assign {
            lhs: LValue { var: wname.to_owned(), indices: vec![Expr::var(cand)] },
            op: AssignOp::Set,
            rhs: Expr::Real(0.0),
        },
    ];
    for cf in &cond.factors {
        let f = &cf.factor;
        let atom = {
            let (dist, args) = stabilized_atom(f);
            Expr::DistLl {
                dist,
                args: args.iter().map(lower_expr).collect(),
                point: Box::new(lower_expr(&f.point)),
            }
        };
        let body = crate::from_density::wrap_inds(
            f,
            Stmt::Assign {
                lhs: LValue { var: wname.to_owned(), indices: vec![Expr::var(cand)] },
                op: AssignOp::Inc,
                rhs: atom,
            },
        );
        score.push(wrap_comps(&f.comps, LoopKind::Seq, body));
    }
    let candidate_loop = Stmt::Loop {
        kind: LoopKind::Seq,
        var: cand.to_owned(),
        lo: Expr::Int(0),
        hi: support_expr,
        body: Box::new(Stmt::seq(score)),
    };
    let draw = Stmt::SampleLogits { lhs: slice_lv, weights: Expr::var(wname) };
    // Slices are coupled through the whole-variable use: strictly
    // sequential single-site Gibbs.
    let body = wrap_comps(&cond.target_comps, LoopKind::Seq, Stmt::seq(vec![candidate_loop, draw]));
    Ok(GibbsCode { allocs, proc_: ProcDecl { name: format!("{prefix}_gibbs"), body, ret: None } })
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_density::conjugacy::{detect, discrete_support};
    use augur_density::{conditional, DensityModel};
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
    fn mu_gibbs_has_reset_accumulate_sample_structure() {
        let dm = build(HGMM);
        let cond = conditional(&dm, &["mu"]);
        let m = detect(&dm, &cond).unwrap();
        let code = gen_conjugate(1, &cond, &m).unwrap();
        let p = crate::il::pretty_proc(&code.proc_);
        // stats reset
        assert!(p.contains("u1_t0_cnt = 0.0;"), "{p}");
        // atomic accumulation indexed by z[n]
        assert!(p.contains("loop AtmPar (n <- 0 until N)"), "{p}");
        assert!(p.contains("u1_t0_cnt[z[n]] += 1.0;"), "{p}");
        assert!(p.contains("u1_t0_sum[z[n]] += y[n];"), "{p}");
        // per-slice posterior sampling
        assert!(p.contains("loop Par (k <- 0 until K)"), "{p}");
        assert!(p.contains("mu[k] = MvNormal("), "{p}");
        // the slice covariance Sigma[z[n]] became Sigma[k]
        assert!(p.contains("mat_inv(Sigma[k])"), "{p}");
        assert_eq!(code.allocs.len(), 2);
    }

    #[test]
    fn sigma_gibbs_accumulates_scatter() {
        let dm = build(HGMM);
        let cond = conditional(&dm, &["Sigma"]);
        let m = detect(&dm, &cond).unwrap();
        let code = gen_conjugate(2, &cond, &m).unwrap();
        let p = crate::il::pretty_proc(&code.proc_);
        assert!(p.contains("u2_t0_scatter[z[n]] += outer_sub(y[n], mu[z[n]]);"), "{p}");
        assert!(p.contains("Sigma[k] = InvWishart("), "{p}");
        assert!(p.contains("mat_add(Psi, u2_t0_scatter[k])"), "{p}");
    }

    #[test]
    fn pi_gibbs_is_unsliced_dirichlet() {
        let dm = build(HGMM);
        let cond = conditional(&dm, &["pi"]);
        let m = detect(&dm, &cond).unwrap();
        let code = gen_conjugate(0, &cond, &m).unwrap();
        let p = crate::il::pretty_proc(&code.proc_);
        assert!(p.contains("u0_t0_cnt[z[n]] += 1.0;"), "{p}");
        assert!(p.contains("pi = Dirichlet(vec_add(alpha, u0_t0_cnt)).samp;"), "{p}");
        // no Par loop around the sample — scalar simplex target
        assert!(!p.contains("pi[k]"), "{p}");
    }

    #[test]
    fn z_finite_sum_enumerates_support() {
        let dm = build(HGMM);
        let cond = conditional(&dm, &["z"]);
        let sz = discrete_support(&dm, "z").unwrap();
        let code = gen_finite_sum(3, &cond, &sz).unwrap();
        let p = crate::il::pretty_proc(&code.proc_);
        assert!(p.contains("loop Par (n <- 0 until N)"), "{p}");
        assert!(p.contains("loop Seq (u3_c <- 0 until len(pi))"), "{p}");
        // prior scored at the candidate
        assert!(p.contains("u3_w[u3_c] += Categorical(pi).ll(u3_c);"), "{p}");
        // likelihood scored with z[n] := candidate
        assert!(p.contains("MvNormal(mu[u3_c], Sigma[u3_c]).ll(y[n])"), "{p}");
        assert!(p.contains("z[n] = CategoricalLogits(u3_w).samp;"), "{p}");
        assert_eq!(code.allocs.len(), 1);
        assert_eq!(code.allocs[0].kind, crate::shape::AllocKind::ThreadLocal);
    }

    #[test]
    fn lda_theta_gibbs_uses_doc_slices() {
        let dm = build(
            r#"(K, D, alpha, beta, len) => {
            param theta[d] ~ Dirichlet(alpha) for d <- 0 until D ;
            param phi[k] ~ Dirichlet(beta) for k <- 0 until K ;
            param z[d][j] ~ Categorical(theta[d]) for d <- 0 until D, j <- 0 until len[d] ;
            data w[d][j] ~ Categorical(phi[z[d][j]]) for d <- 0 until D, j <- 0 until len[d] ;
        }"#,
        );
        let cond = conditional(&dm, &["theta"]);
        let m = detect(&dm, &cond).unwrap();
        let code = gen_conjugate(0, &cond, &m).unwrap();
        let p = crate::il::pretty_proc(&code.proc_);
        // direct alignment: iterate d and j, counts indexed by d and z[d][j]
        assert!(p.contains("loop AtmPar (d <- 0 until D)"), "{p}");
        assert!(p.contains("loop AtmPar (j <- 0 until len[d])"), "{p}");
        assert!(p.contains("u0_t0_cnt[d][z[d][j]] += 1.0;"), "{p}");
        assert!(p.contains("theta[d] = Dirichlet(vec_add(alpha, u0_t0_cnt[d])).samp;"), "{p}");
    }

    #[test]
    fn lda_z_finite_sum_scores_both_factors() {
        let dm = build(
            r#"(K, D, alpha, beta, len) => {
            param theta[d] ~ Dirichlet(alpha) for d <- 0 until D ;
            param phi[k] ~ Dirichlet(beta) for k <- 0 until K ;
            param z[d][j] ~ Categorical(theta[d]) for d <- 0 until D, j <- 0 until len[d] ;
            data w[d][j] ~ Categorical(phi[z[d][j]]) for d <- 0 until D, j <- 0 until len[d] ;
        }"#,
        );
        let cond = conditional(&dm, &["z"]);
        let sz = discrete_support(&dm, "z").unwrap();
        let code = gen_finite_sum(2, &cond, &sz).unwrap();
        let p = crate::il::pretty_proc(&code.proc_);
        assert!(p.contains("u2_w[u2_c] += Categorical(theta[d]).ll(u2_c);"), "{p}");
        assert!(p.contains("u2_w[u2_c] += Categorical(phi[u2_c]).ll(w[d][j]);"), "{p}");
        assert!(p.contains("z[d][j] = CategoricalLogits(u2_w).samp;"), "{p}");
    }

    #[test]
    fn scalar_normal_mean_posterior_formula() {
        let dm = build(
            r#"(N, tau2, s2) => {
            param m ~ Normal(5.0, tau2) ;
            data y[n] ~ Normal(m, s2) for n <- 0 until N ;
        }"#,
        );
        let cond = conditional(&dm, &["m"]);
        let mt = detect(&dm, &cond).unwrap();
        let code = gen_conjugate(0, &cond, &mt).unwrap();
        let p = crate::il::pretty_proc(&code.proc_);
        assert!(p.contains("m = Normal("), "{p}");
        assert!(p.contains("(u0_t0_cnt / s2)"), "{p}");
        assert!(p.contains("(5.0 / tau2)"), "{p}");
    }
}
