//! Node-by-node Gibbs sweeps over the reified graph.
//!
//! Everything here is deliberately *interpretive*: parent expressions are
//! re-evaluated against the graph on every visit, children are traversed
//! through index lists, and values are boxed per node — the overheads the
//! paper's Fig. 11 comparison attributes to graph-based Gibbs.

use std::collections::HashMap;

use augur_density::conjugacy::SupportSize;
use augur_density::DExpr;
use augur_dist::conjugacy::Relation;
use augur_dist::{DistKind, ValueMut, ValueRef};
use augur_math::{Cholesky, Matrix};

use crate::graph::{eval_scalar_env, JagsError, JagsModel, NodeVal, Strategy};

impl JagsModel {
    /// Initializes every latent node by ancestral sampling from its prior,
    /// in declaration order.
    pub fn init(&mut self) {
        for vi in 0..self.vars.len() {
            if matches!(self.vars[vi].strategy, Strategy::Observed) {
                continue;
            }
            for ni in 0..self.vars[vi].node_ids.len() {
                let id = self.vars[vi].node_ids[ni];
                let env = self.node_env(vi, id);
                let factor = self.dm.factors[self.vars[vi].factor].clone();
                let args: Vec<NodeVal> = factor.args.iter().map(|a| self.eval(&env, a)).collect();
                let value = self.sample_dist(factor.dist, &args);
                self.nodes[id].value = value;
            }
        }
    }

    /// One full sweep: every latent node resampled once, in declaration
    /// and index order.
    pub fn sweep(&mut self) {
        for vi in 0..self.vars.len() {
            let strategy = self.vars[vi].strategy.clone();
            match strategy {
                Strategy::Observed => {}
                Strategy::Conjugate { relation, ref lik_pos } => {
                    for ni in 0..self.vars[vi].node_ids.len() {
                        let id = self.vars[vi].node_ids[ni];
                        self.conjugate_update(vi, id, relation, lik_pos);
                    }
                }
                Strategy::Discrete(ref sz) => {
                    for ni in 0..self.vars[vi].node_ids.len() {
                        let id = self.vars[vi].node_ids[ni];
                        self.discrete_update(vi, id, sz);
                    }
                }
                Strategy::Slice => {
                    for ni in 0..self.vars[vi].node_ids.len() {
                        let id = self.vars[vi].node_ids[ni];
                        self.slice_update(vi, id);
                    }
                }
            }
        }
    }

    /// The joint log-density of the whole graph (diagnostics).
    pub fn log_joint(&self) -> f64 {
        let mut acc = 0.0;
        for vi in 0..self.vars.len() {
            for &id in &self.vars[vi].node_ids {
                acc += self.node_prior_ll(vi, id);
            }
        }
        acc
    }

    // ----- node updates ---------------------------------------------------

    fn conjugate_update(
        &mut self,
        vi: usize,
        id: usize,
        relation: Relation,
        lik_pos: &HashMap<usize, usize>,
    ) {
        let env = self.node_env(vi, id);
        let prior = self.dm.factors[self.vars[vi].factor].clone();
        let prior_args: Vec<NodeVal> = prior.args.iter().map(|a| self.eval(&env, a)).collect();
        let my_idx = self.nodes[id].idx.clone();
        let children = self.nodes[id].children.clone();

        // Gather active children: those whose target-position argument
        // currently references *this* node.
        struct Obs {
            value: NodeVal,
            other: NodeVal,
        }
        let mut observations: Vec<Obs> = Vec::new();
        for c in children {
            let cvar = self.nodes[c].var;
            let cf = self.dm.factors[self.vars[cvar].factor].clone();
            let Some(&pos) = lik_pos.get(&self.vars[cvar].factor) else { continue };
            let cenv = self.node_env(cvar, c);
            // active test: the chain indices of the target occurrence
            // evaluate to this node's indices
            let mut indices = Vec::new();
            collect_chain_indices(&cf.args[pos], &mut indices);
            let mut active = true;
            for (k, ie) in indices.iter().enumerate() {
                let v = self.eval(&cenv, ie).flat().first().copied().unwrap_or(f64::NAN) as i64;
                if my_idx.get(k) != Some(&v) {
                    active = false;
                    break;
                }
            }
            if !active {
                continue;
            }
            let other_pos = if cf.args.len() > 1 { 1 - pos } else { pos };
            let other = self.eval(&cenv, &cf.args[other_pos]);
            observations.push(Obs { value: self.nodes[c].value.clone(), other });
        }

        let new_value = match relation {
            Relation::DirichletCategorical => {
                let alpha = match &prior_args[0] {
                    NodeVal::VecV(v) => v.clone(),
                    other => panic!("alpha must be a vector, got {other:?}"),
                };
                let mut post = alpha;
                for o in &observations {
                    if let NodeVal::Num(x) = o.value {
                        post[x as usize] += 1.0;
                    }
                }
                let mut out = vec![0.0; post.len()];
                self.rng.dirichlet(&post, &mut out);
                NodeVal::VecV(out)
            }
            Relation::BetaBernoulli => {
                let (a, b) = (scalar(&prior_args[0]), scalar(&prior_args[1]));
                let n1: f64 = observations.iter().map(|o| scalar(&o.value)).sum();
                let n0 = observations.len() as f64 - n1;
                NodeVal::Num(self.rng.beta(a + n1, b + n0))
            }
            Relation::NormalNormalMean => {
                let (mu0, var0) = (scalar(&prior_args[0]), scalar(&prior_args[1]));
                let mut prec = 1.0 / var0;
                let mut num = mu0 / var0;
                for o in &observations {
                    let v = scalar(&o.other);
                    prec += 1.0 / v;
                    num += scalar(&o.value) / v;
                }
                let post_var = 1.0 / prec;
                NodeVal::Num(self.rng.normal(post_var * num, post_var))
            }
            Relation::MvNormalMvNormalMean => {
                let mu0 = vector(&prior_args[0]);
                let sigma0 = matrix(&prior_args[1]);
                let prec0 = Cholesky::new(&sigma0).expect("Sigma0 SPD").inverse();
                let mut lam = prec0.clone();
                let mut rhs = prec0.matvec(&mu0);
                for o in &observations {
                    let cov = matrix(&o.other);
                    let prec = Cholesky::new(&cov).expect("likelihood cov SPD").inverse();
                    lam = &lam + &prec;
                    let contrib = prec.matvec(&vector(&o.value));
                    for (r, c) in rhs.iter_mut().zip(&contrib) {
                        *r += c;
                    }
                }
                let post_cov = Cholesky::new(&lam).expect("posterior precision SPD").inverse();
                let post_mu = post_cov.matvec(&rhs);
                let cache = augur_dist::vector::MvNormalCache::new(&post_cov)
                    .expect("posterior covariance SPD");
                let mut out = vec![0.0; post_mu.len()];
                cache.sample(&post_mu, &mut self.rng, &mut out);
                NodeVal::VecV(out)
            }
            Relation::InvGammaNormalVar => {
                let (a, b) = (scalar(&prior_args[0]), scalar(&prior_args[1]));
                let mut cnt = 0.0;
                let mut ssd = 0.0;
                for o in &observations {
                    let d = scalar(&o.value) - scalar(&o.other);
                    cnt += 1.0;
                    ssd += d * d;
                }
                NodeVal::Num(self.rng.inv_gamma(a + 0.5 * cnt, b + 0.5 * ssd))
            }
            Relation::InvWishartMvNormalCov => {
                let df = scalar(&prior_args[0]);
                let psi = matrix(&prior_args[1]);
                let d = psi.rows();
                let mut scatter = Matrix::zeros(d, d);
                let mut cnt = 0.0;
                for o in &observations {
                    let x = vector(&o.value);
                    let m = vector(&o.other);
                    let diff: Vec<f64> = x.iter().zip(&m).map(|(a, b)| a - b).collect();
                    scatter = &scatter + &Matrix::outer(&diff, &diff);
                    cnt += 1.0;
                }
                let post_psi = &psi + &scatter;
                NodeVal::MatV(augur_dist::matrix::inv_wishart_sample(
                    df + cnt,
                    &post_psi,
                    &mut self.rng,
                ))
            }
            Relation::GammaPoisson => {
                let (a, b) = (scalar(&prior_args[0]), scalar(&prior_args[1]));
                let sum: f64 = observations.iter().map(|o| scalar(&o.value)).sum();
                let n = observations.len() as f64;
                NodeVal::Num(self.rng.gamma(a + sum, b + n))
            }
            Relation::GammaExponential => {
                let (a, b) = (scalar(&prior_args[0]), scalar(&prior_args[1]));
                let sum: f64 = observations.iter().map(|o| scalar(&o.value)).sum();
                let n = observations.len() as f64;
                NodeVal::Num(self.rng.gamma(a + n, b + sum))
            }
        };
        self.nodes[id].value = new_value;
    }

    fn discrete_update(&mut self, vi: usize, id: usize, sz: &SupportSize) {
        let env = self.node_env(vi, id);
        let prior = self.dm.factors[self.vars[vi].factor].clone();
        let support = match sz {
            SupportSize::Fixed(n) => *n as usize,
            SupportSize::VecLen(e) => match self.eval(&env, e) {
                NodeVal::VecV(v) => v.len(),
                other => panic!("support expression is not a vector: {other:?}"),
            },
        };
        let prior_args: Vec<NodeVal> = prior.args.iter().map(|a| self.eval(&env, a)).collect();
        let children = self.nodes[id].children.clone();
        let saved = self.nodes[id].value.clone();
        let mut weights = Vec::with_capacity(support);
        for c in 0..support {
            self.nodes[id].value = NodeVal::Num(c as f64);
            let mut ll = self.ll_of(prior.dist, &prior_args, &NodeVal::Num(c as f64));
            for &ch in &children {
                let cvi = self.nodes[ch].var;
                ll += self.node_prior_ll(cvi, ch);
            }
            weights.push(ll);
        }
        self.nodes[id].value = saved;
        let choice = self.rng.categorical_log(&weights);
        self.nodes[id].value = NodeVal::Num(choice as f64);
    }

    /// Univariate step-out slice sampling (the stand-in for Jags's
    /// adaptive rejection sampling on non-conjugate scalars).
    fn slice_update(&mut self, vi: usize, id: usize) {
        let x0 = match self.nodes[id].value {
            NodeVal::Num(x) => x,
            ref other => panic!("slice sampling needs scalar nodes, got {other:?}"),
        };
        let ll = |this: &mut Self, x: f64| -> f64 {
            this.nodes[id].value = NodeVal::Num(x);
            let mut acc = this.node_prior_ll(vi, id);
            let children = this.nodes[id].children.clone();
            for ch in children {
                let cvi = this.nodes[ch].var;
                acc += this.node_prior_ll(cvi, ch);
            }
            acc
        };
        let ll0 = ll(self, x0);
        let log_y = ll0 - self.rng.exponential(1.0);
        let w = 1.0;
        let mut lo = x0 - w * self.rng.uniform();
        let mut hi = lo + w;
        for _ in 0..50 {
            if ll(self, lo) < log_y {
                break;
            }
            lo -= w;
        }
        for _ in 0..50 {
            if ll(self, hi) < log_y {
                break;
            }
            hi += w;
        }
        loop {
            let x = self.rng.uniform_range(lo, hi);
            if ll(self, x) >= log_y {
                return; // value already stored by ll()
            }
            if x < x0 {
                lo = x;
            } else {
                hi = x;
            }
            if hi - lo < 1e-12 {
                self.nodes[id].value = NodeVal::Num(x0);
                return;
            }
        }
    }

    // ----- interpretive evaluation -----------------------------------------

    /// The prior log-density of a node given its parents' current values.
    pub(crate) fn node_prior_ll(&self, vi: usize, id: usize) -> f64 {
        let env = self.node_env(vi, id);
        let factor = &self.dm.factors[self.vars[vi].factor];
        let args: Vec<NodeVal> = factor.args.iter().map(|a| self.eval(&env, a)).collect();
        self.ll_of(factor.dist, &args, &self.nodes[id].value)
    }

    fn ll_of(&self, dist: DistKind, args: &[NodeVal], point: &NodeVal) -> f64 {
        let refs: Vec<ValueRef> = args.iter().map(NodeVal::as_ref).collect();
        dist.log_pdf(&refs, point.as_ref()).expect("ll evaluation")
    }

    fn sample_dist(&mut self, dist: DistKind, args: &[NodeVal]) -> NodeVal {
        let refs: Vec<ValueRef> = args.iter().map(NodeVal::as_ref).collect();
        match dist.point_ty() {
            augur_dist::SimpleTy::Int | augur_dist::SimpleTy::Real => {
                let mut out = 0.0;
                dist.sample(&refs, &mut self.rng, ValueMut::Scalar(&mut out)).expect("sampling");
                NodeVal::Num(out)
            }
            augur_dist::SimpleTy::Vec => {
                let len = match &args[0] {
                    NodeVal::VecV(v) => v.len(),
                    other => panic!("vector point needs vector first arg, got {other:?}"),
                };
                let mut out = vec![0.0; len];
                dist.sample(&refs, &mut self.rng, ValueMut::Vector(&mut out)).expect("sampling");
                NodeVal::VecV(out)
            }
            augur_dist::SimpleTy::Mat => {
                let dim = match &args[1] {
                    NodeVal::MatV(m) => m.rows(),
                    other => panic!("matrix point needs matrix arg, got {other:?}"),
                };
                let mut out = vec![0.0; dim * dim];
                dist.sample(&refs, &mut self.rng, ValueMut::Matrix { data: &mut out, dim })
                    .expect("sampling");
                NodeVal::MatV(Matrix::from_vec(dim, dim, out).expect("shape"))
            }
        }
    }

    /// Evaluates a model expression against constants and node values —
    /// the interpretive inner loop of the baseline.
    pub(crate) fn eval(&self, env: &HashMap<String, i64>, e: &DExpr) -> NodeVal {
        use augur_backend::state::Shape;
        match e {
            DExpr::Int(v) => NodeVal::Num(*v as f64),
            DExpr::Real(v) => NodeVal::Num(*v),
            DExpr::Var(n) => {
                if let Some(v) = env.get(n) {
                    return NodeVal::Num(*v as f64);
                }
                if let Some(id) = self.consts.id(n) {
                    return match self.consts.shape(id) {
                        Shape::Num => NodeVal::Num(self.consts.flat(id)[0]),
                        Shape::Vector(_) => NodeVal::VecV(self.consts.flat(id).to_vec()),
                        Shape::Matrix(d) => NodeVal::MatV(
                            Matrix::from_vec(*d, *d, self.consts.flat(id).to_vec())
                                .expect("const matrix"),
                        ),
                        Shape::Rows { .. } => {
                            panic!("whole ragged constant `{n}` used as a value")
                        }
                    };
                }
                // A random variable used whole: single node, or a gather
                // over scalar nodes (e.g. `dot(x[n], theta)`).
                let group = &self.vars[self.var_index[n]];
                if group.node_ids.len() == 1 && self.nodes[group.node_ids[0]].idx.is_empty() {
                    return self.nodes[group.node_ids[0]].value.clone();
                }
                NodeVal::VecV(
                    group
                        .node_ids
                        .iter()
                        .map(|&id| match &self.nodes[id].value {
                            NodeVal::Num(x) => *x,
                            other => panic!("gather over non-scalar nodes: {other:?}"),
                        })
                        .collect(),
                )
            }
            DExpr::Index(..) => self.eval_chain(env, e),
            DExpr::Binop(op, a, b) => {
                let (x, y) = (num(self.eval(env, a)), num(self.eval(env, b)));
                NodeVal::Num(match op {
                    augur_lang::ast::BinOp::Add => x + y,
                    augur_lang::ast::BinOp::Sub => x - y,
                    augur_lang::ast::BinOp::Mul => x * y,
                    augur_lang::ast::BinOp::Div => x / y,
                })
            }
            DExpr::Neg(a) => NodeVal::Num(-num(self.eval(env, a))),
            DExpr::Call(f, args) => match f {
                augur_lang::ast::Builtin::Sigmoid => {
                    NodeVal::Num(augur_math::special::sigmoid(num(self.eval(env, &args[0]))))
                }
                augur_lang::ast::Builtin::Exp => NodeVal::Num(num(self.eval(env, &args[0])).exp()),
                augur_lang::ast::Builtin::Log => NodeVal::Num(num(self.eval(env, &args[0])).ln()),
                augur_lang::ast::Builtin::Sqrt => {
                    NodeVal::Num(num(self.eval(env, &args[0])).sqrt())
                }
                augur_lang::ast::Builtin::Dot => {
                    let a = self.eval(env, &args[0]);
                    let b = self.eval(env, &args[1]);
                    NodeVal::Num(augur_math::vecops::dot(&vector(&a), &vector(&b)))
                }
            },
        }
    }

    /// Evaluates an index chain `root[e1][e2…]`.
    fn eval_chain(&self, env: &HashMap<String, i64>, e: &DExpr) -> NodeVal {
        use augur_backend::state::{RowElem, Shape};
        // peel the chain
        let mut indices = Vec::new();
        let mut root = e;
        while let DExpr::Index(base, idx) = root {
            indices.push(idx.as_ref());
            root = base;
        }
        indices.reverse();
        let DExpr::Var(name) = root else {
            panic!("index chain with non-variable root: {e}");
        };
        let vals: Vec<i64> = indices.iter().map(|ie| num(self.eval(env, ie)) as i64).collect();

        if let Some(id) = self.consts.id(name) {
            return match (self.consts.shape(id), vals.as_slice()) {
                (Shape::Vector(_), [i]) => NodeVal::Num(self.consts.flat(id)[*i as usize]),
                (Shape::Rows { offsets, elem: RowElem::Vec }, [i]) => {
                    let (s, t) = (offsets[*i as usize], offsets[*i as usize + 1]);
                    NodeVal::VecV(self.consts.flat(id)[s..t].to_vec())
                }
                (Shape::Rows { offsets, elem: RowElem::Vec }, [i, j]) => {
                    let s = offsets[*i as usize];
                    NodeVal::Num(self.consts.flat(id)[s + *j as usize])
                }
                (Shape::Rows { offsets, elem: RowElem::Mat(d) }, [i]) => {
                    let s = offsets[*i as usize];
                    NodeVal::MatV(
                        Matrix::from_vec(*d, *d, self.consts.flat(id)[s..s + d * d].to_vec())
                            .expect("const matrix row"),
                    )
                }
                (shape, _) => panic!("cannot index constant `{name}` of shape {shape:?}"),
            };
        }

        // random variable: resolve the node, then index into its value
        let group = &self.vars[self.var_index[name]];
        let levels = if group.offsets.is_some() {
            2
        } else {
            usize::from(!self.nodes[group.node_ids[0]].idx.is_empty())
        };
        let (node_idx, rest) = vals.split_at(levels.min(vals.len()));
        let nid =
            self.node_of(group, node_idx).unwrap_or_else(|| panic!("no node {name}{node_idx:?}"));
        let mut value = self.nodes[nid].value.clone();
        for &j in rest {
            value = match value {
                NodeVal::VecV(v) => NodeVal::Num(v[j as usize]),
                other => panic!("cannot index into {other:?}"),
            };
        }
        value
    }

    /// Evaluates a constant scalar (setup helper re-export for tests).
    pub fn eval_const(&self, e: &DExpr) -> Result<f64, JagsError> {
        eval_scalar_env(&self.consts, &HashMap::new(), e)
    }
}

fn num(v: NodeVal) -> f64 {
    match v {
        NodeVal::Num(x) => x,
        other => panic!("expected scalar, got {other:?}"),
    }
}

fn scalar(v: &NodeVal) -> f64 {
    match v {
        NodeVal::Num(x) => *x,
        other => panic!("expected scalar, got {other:?}"),
    }
}

fn vector(v: &NodeVal) -> Vec<f64> {
    match v {
        NodeVal::VecV(x) => x.clone(),
        other => panic!("expected vector, got {other:?}"),
    }
}

fn matrix(v: &NodeVal) -> Matrix {
    match v {
        NodeVal::MatV(m) => m.clone(),
        other => panic!("expected matrix, got {other:?}"),
    }
}

fn collect_chain_indices<'a>(chain: &'a DExpr, out: &mut Vec<&'a DExpr>) {
    if let DExpr::Index(base, idx) = chain {
        collect_chain_indices(base, out);
        out.push(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_backend::state::HostValue;
    use augur_math::vecops::{mean, variance};

    #[test]
    fn conjugate_normal_chain_matches_analytic_posterior() {
        let data = vec![1.2, 0.8, 1.0, 1.4, 0.6];
        let sum: f64 = data.iter().sum();
        let (post_mu, post_var) =
            augur_dist::conjugacy::normal_normal_mean(0.0, 4.0, 1.0, sum, 5.0);
        let mut m = JagsModel::build(
            "(N, tau2, s2) => {
                param m ~ Normal(0.0, tau2) ;
                data y[n] ~ Normal(m, s2) for n <- 0 until N ;
            }",
            vec![HostValue::Int(5), HostValue::Real(4.0), HostValue::Real(1.0)],
            vec![("y", HostValue::VecF(data))],
            11,
        )
        .unwrap();
        m.init();
        let draws: Vec<f64> = (0..6000)
            .map(|_| {
                m.sweep();
                m.values("m")[0]
            })
            .collect();
        assert!((mean(&draws) - post_mu).abs() < 0.05);
        assert!((variance(&draws) - post_var).abs() < 0.05);
    }

    #[test]
    fn slice_fallback_samples_nonconjugate_scalar() {
        // Exponential prior on a Normal variance: not in the table.
        let mut m = JagsModel::build(
            "(N, lam, mu) => {
                param v ~ Exponential(lam) ;
                data y[n] ~ Normal(mu, v) for n <- 0 until N ;
            }",
            vec![HostValue::Int(6), HostValue::Real(1.0), HostValue::Real(0.0)],
            vec![("y", HostValue::VecF(vec![2.0, -2.1, 1.9, -1.8, 2.2, -2.0]))],
            12,
        )
        .unwrap();
        m.init();
        let draws: Vec<f64> = (0..4000)
            .map(|_| {
                m.sweep();
                m.values("v")[0]
            })
            .collect();
        // variance of the data is ≈ 4; the posterior should sit near it
        let post_mean = mean(&draws);
        assert!(post_mean > 1.5 && post_mean < 7.0, "posterior mean {post_mean}");
        assert!(draws.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn gmm_mixture_recovers_clusters() {
        let src = r#"(K, N, mu_0, Sigma_0, pis, Sigma) => {
            param mu[k] ~ MvNormal(mu_0, Sigma_0) for k <- 0 until K ;
            param z[n] ~ Categorical(pis) for n <- 0 until N ;
            data x[n] ~ MvNormal(mu[z[n]], Sigma) for n <- 0 until N ;
        }"#;
        let mut rng = augur_dist::Prng::seed_from_u64(5);
        let mut rows = Vec::new();
        for i in 0..30 {
            let c = if i % 2 == 0 { -4.0 } else { 4.0 };
            rows.push(vec![c + 0.3 * rng.std_normal(), c + 0.3 * rng.std_normal()]);
        }
        let mut m = JagsModel::build(
            src,
            vec![
                HostValue::Int(2),
                HostValue::Int(30),
                HostValue::VecF(vec![0.0, 0.0]),
                HostValue::Mat(Matrix::identity(2).scale(25.0)),
                HostValue::VecF(vec![0.5, 0.5]),
                HostValue::Mat(Matrix::identity(2)),
            ],
            vec![("x", HostValue::Ragged(augur_math::FlatRagged::from_rows(rows)))],
            13,
        )
        .unwrap();
        m.init();
        for _ in 0..100 {
            m.sweep();
        }
        let mu = m.values("mu");
        let (a, b) = (mu[0], mu[2]);
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        assert!((lo + 4.0).abs() < 1.0, "lo {lo}");
        assert!((hi - 4.0).abs() < 1.0, "hi {hi}");
    }

    #[test]
    fn log_joint_is_finite_after_init() {
        let mut m = JagsModel::build(
            "(N) => {
                param p ~ Beta(2.0, 2.0) ;
                data y[n] ~ Bernoulli(p) for n <- 0 until N ;
            }",
            vec![HostValue::Int(3)],
            vec![("y", HostValue::VecF(vec![1.0, 0.0, 1.0]))],
            14,
        )
        .unwrap();
        m.init();
        assert!(m.log_joint().is_finite());
    }
}
