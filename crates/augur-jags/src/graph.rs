//! Graph construction: unrolling a [`DensityModel`] into one node per
//! random-variable instance, with conservative edges under stochastic
//! indexing (as in BUGS/Jags).

use std::collections::HashMap;
use std::fmt;

use augur_backend::state::{HostValue, Shape, State};
use augur_density::conjugacy::{detect, discrete_support, SupportSize};
use augur_density::{conditional, DExpr, DensityModel, VarRole};
use augur_dist::{Prng, ValueRef};
use augur_math::Matrix;

/// Errors from graph construction.
#[derive(Debug)]
pub enum JagsError {
    /// Frontend failure (parse/type/density).
    Frontend(String),
    /// Binding failure.
    Binding(String),
    /// The model uses a construct this baseline does not support.
    Unsupported(String),
}

impl fmt::Display for JagsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JagsError::Frontend(m) => write!(f, "frontend: {m}"),
            JagsError::Binding(m) => write!(f, "binding: {m}"),
            JagsError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for JagsError {}

/// A node's boxed value — one allocation per node, as in a pointer-based
/// graph system.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeVal {
    /// Scalar (including integer-valued).
    Num(f64),
    /// Vector (simplex draws, multivariate means).
    VecV(Vec<f64>),
    /// Matrix (covariances).
    MatV(Matrix),
}

impl NodeVal {
    pub(crate) fn as_ref(&self) -> ValueRef<'_> {
        match self {
            NodeVal::Num(x) => ValueRef::Scalar(*x),
            NodeVal::VecV(v) => ValueRef::Vector(v),
            NodeVal::MatV(m) => ValueRef::Matrix { data: m.as_slice(), dim: m.rows() },
        }
    }

    pub(crate) fn flat(&self) -> Vec<f64> {
        match self {
            NodeVal::Num(x) => vec![*x],
            NodeVal::VecV(v) => v.clone(),
            NodeVal::MatV(m) => m.as_slice().to_vec(),
        }
    }
}

/// One random-variable instance.
#[derive(Debug, Clone)]
#[allow(dead_code)] // `observed` documents node provenance
pub(crate) struct Node {
    pub var: usize,
    pub idx: Vec<i64>,
    pub value: NodeVal,
    pub observed: bool,
    pub children: Vec<usize>,
}

/// How a variable's nodes are resampled.
#[derive(Debug, Clone)]
pub(crate) enum Strategy {
    /// Node-level conjugate update; maps a *model factor index* to the
    /// argument position the target occupies in that likelihood.
    Conjugate { relation: augur_dist::conjugacy::Relation, lik_pos: HashMap<usize, usize> },
    /// Enumerate a finite discrete support.
    Discrete(SupportSize),
    /// Univariate slice sampling (scalar nodes only).
    Slice,
    /// Observed — never resampled.
    Observed,
}

/// Per-variable bookkeeping.
#[derive(Debug, Clone)]
pub(crate) struct VarGroup {
    pub name: String,
    pub factor: usize,
    pub node_ids: Vec<usize>,
    /// For two-level (ragged) variables: row offsets into `node_ids`.
    pub offsets: Option<Vec<usize>>,
    pub strategy: Strategy,
}

/// The graph-reified model.
#[derive(Debug)]
pub struct JagsModel {
    pub(crate) dm: DensityModel,
    pub(crate) consts: State,
    pub(crate) vars: Vec<VarGroup>,
    pub(crate) var_index: HashMap<String, usize>,
    pub(crate) nodes: Vec<Node>,
    pub(crate) rng: Prng,
}

impl JagsModel {
    /// Builds the graph from model source, positional arguments, and named
    /// data (same conventions as the AugurV2 sampler).
    ///
    /// # Errors
    ///
    /// Returns [`JagsError`] for frontend, binding, or support problems.
    pub fn build(
        src: &str,
        args: Vec<HostValue>,
        data: Vec<(&str, HostValue)>,
        seed: u64,
    ) -> Result<JagsModel, JagsError> {
        let ast = augur_lang::parse(src).map_err(|e| JagsError::Frontend(e.to_string()))?;
        let typed = augur_lang::typecheck(&ast).map_err(|e| JagsError::Frontend(e.to_string()))?;
        let dm = augur_density::DensityModel::from_typed(&typed)
            .map_err(|e| JagsError::Frontend(e.to_string()))?;

        // constants
        if args.len() != dm.args.len() {
            return Err(JagsError::Binding(format!(
                "model takes {} arguments, got {}",
                dm.args.len(),
                args.len()
            )));
        }
        let mut consts = State::new();
        for (info, v) in dm.args.iter().zip(&args) {
            consts.insert_host(&info.name, v);
        }

        let provided: HashMap<String, HostValue> =
            data.into_iter().map(|(n, v)| (n.to_owned(), v)).collect();

        // nodes per variable
        let mut vars = Vec::new();
        let mut var_index = HashMap::new();
        let mut nodes: Vec<Node> = Vec::new();
        for (vi, info) in dm.vars.iter().enumerate() {
            let (fi, factor) = dm
                .prior_factor(&info.name)
                .ok_or_else(|| JagsError::Unsupported(format!("no factor for {}", info.name)))?;
            let observed = info.role == VarRole::Data;
            let data_val = if observed {
                Some(provided.get(&info.name).ok_or_else(|| {
                    JagsError::Binding(format!("data `{}` not supplied", info.name))
                })?)
            } else {
                None
            };

            let mut node_ids = Vec::new();
            let mut offsets = None;
            match factor.comps.len() {
                0 => {
                    node_ids.push(nodes.len());
                    nodes.push(Node {
                        var: vi,
                        idx: vec![],
                        value: initial_value(data_val, &[], &consts)?,
                        observed,
                        children: vec![],
                    });
                }
                1 => {
                    let n = eval_const_scalar(&consts, &factor.comps[0].hi)? as i64;
                    for i in 0..n {
                        node_ids.push(nodes.len());
                        nodes.push(Node {
                            var: vi,
                            idx: vec![i],
                            value: initial_value(data_val, &[i], &consts)?,
                            observed,
                            children: vec![],
                        });
                    }
                }
                2 => {
                    let outer = eval_const_scalar(&consts, &factor.comps[0].hi)? as i64;
                    let mut offs = vec![0usize];
                    for d in 0..outer {
                        let mut env = HashMap::new();
                        env.insert(factor.comps[0].var.clone(), d);
                        let len = eval_scalar_env(&consts, &env, &factor.comps[1].hi)? as i64;
                        for j in 0..len {
                            node_ids.push(nodes.len());
                            nodes.push(Node {
                                var: vi,
                                idx: vec![d, j],
                                value: initial_value(data_val, &[d, j], &consts)?,
                                observed,
                                children: vec![],
                            });
                        }
                        offs.push(node_ids.len());
                    }
                    offsets = Some(offs);
                }
                _ => {
                    return Err(JagsError::Unsupported(format!(
                        "{}: more than two comprehension levels",
                        info.name
                    )))
                }
            }

            // per-variable sampling strategy from the shared analysis
            let strategy = if observed {
                Strategy::Observed
            } else {
                let cond = conditional(&dm, &[&info.name]);
                if let Some(m) = detect(&dm, &cond) {
                    let lik_pos = m
                        .likelihoods
                        .iter()
                        .map(|l| (cond.factors[l.cond_factor_index].source, l.target_pos))
                        .collect();
                    Strategy::Conjugate { relation: m.relation, lik_pos }
                } else if let Some(sz) = discrete_support(&dm, &info.name) {
                    Strategy::Discrete(sz)
                } else {
                    Strategy::Slice
                }
            };
            var_index.insert(info.name.clone(), vars.len());
            vars.push(VarGroup {
                name: info.name.clone(),
                factor: fi,
                node_ids,
                offsets,
                strategy,
            });
        }

        let mut model =
            JagsModel { dm, consts, vars, var_index, nodes, rng: Prng::seed_from_u64(seed) };
        model.wire_children()?;
        Ok(model)
    }

    /// Adds parent→child edges. Statically-resolvable index chains give
    /// exact edges; stochastic indexing gives conservative all-node edges.
    fn wire_children(&mut self) -> Result<(), JagsError> {
        let mut edges: Vec<(usize, usize)> = Vec::new(); // (parent, child)
        for (vi, group) in self.vars.iter().enumerate() {
            let factor = &self.dm.factors[group.factor];
            // variables mentioned in this factor's args
            for parent in &self.dm.vars {
                if parent.name == group.name {
                    continue;
                }
                let occs: Vec<DExpr> =
                    factor.args.iter().flat_map(|a| chains_rooted_at(a, &parent.name)).collect();
                if occs.is_empty() {
                    continue;
                }
                let p_group = &self.vars[self.var_index[&parent.name]];
                for &child_id in &group.node_ids {
                    let env = self.node_env(vi, child_id);
                    for occ in &occs {
                        match self.resolve_static_chain(occ, &env, p_group) {
                            Some(pid) => edges.push((pid, child_id)),
                            None => {
                                // stochastic indexing: all nodes are parents
                                for &pid in &p_group.node_ids {
                                    edges.push((pid, child_id));
                                }
                            }
                        }
                    }
                }
            }
        }
        for (p, c) in edges {
            self.nodes[p].children.push(c);
        }
        for n in &mut self.nodes {
            n.children.sort_unstable();
            n.children.dedup();
        }
        Ok(())
    }

    /// The comprehension environment of a node.
    pub(crate) fn node_env(&self, var: usize, node: usize) -> HashMap<String, i64> {
        let factor = &self.dm.factors[self.vars[var].factor];
        factor.comps.iter().zip(&self.nodes[node].idx).map(|(c, &i)| (c.var.clone(), i)).collect()
    }

    /// Resolves `parent[e1][e2…]` to a node when every index is a static
    /// expression of the environment; `None` under stochastic indexing.
    fn resolve_static_chain(
        &self,
        chain: &DExpr,
        env: &HashMap<String, i64>,
        parent: &VarGroup,
    ) -> Option<usize> {
        let mut indices = Vec::new();
        collect_indices(chain, &mut indices);
        let mut vals = Vec::with_capacity(indices.len());
        for ie in indices {
            vals.push(eval_scalar_env(&self.consts, env, ie).ok()? as i64);
        }
        self.node_of(parent, &vals)
    }

    pub(crate) fn node_of(&self, group: &VarGroup, idx: &[i64]) -> Option<usize> {
        match (idx.len(), &group.offsets) {
            (0, None) => group.node_ids.first().copied(),
            (1, None) => group.node_ids.get(idx[0] as usize).copied(),
            (2, Some(offs)) => {
                let d = idx[0] as usize;
                let base = *offs.get(d)?;
                group.node_ids.get(base + idx[1] as usize).copied()
            }
            _ => None,
        }
    }

    /// Flattened current values of a variable.
    pub fn values(&self, name: &str) -> Vec<f64> {
        let group = &self.vars[self.var_index[name]];
        group.node_ids.iter().flat_map(|&id| self.nodes[id].value.flat()).collect()
    }

    /// Sets the values of a scalar-node variable (manual initialization).
    ///
    /// # Panics
    ///
    /// Panics on name or length mismatches.
    pub fn set_values(&mut self, name: &str, values: &[f64]) {
        let group = self.vars[self.var_index[name]].clone();
        assert_eq!(group.node_ids.len(), values.len(), "value count mismatch");
        for (&id, &v) in group.node_ids.iter().zip(values) {
            self.nodes[id].value = NodeVal::Num(v);
        }
    }
}

/// Initial value for a node: observed data, or a zero of the right shape
/// (replaced by `init`).
fn initial_value(
    data: Option<&HostValue>,
    idx: &[i64],
    consts: &State,
) -> Result<NodeVal, JagsError> {
    let _ = consts;
    match data {
        None => Ok(NodeVal::Num(0.0)),
        Some(HostValue::VecF(v)) => Ok(NodeVal::Num(v[idx[0] as usize])),
        Some(HostValue::VecI(v)) => Ok(NodeVal::Num(v[idx[0] as usize] as f64)),
        Some(HostValue::Ragged(r)) => match idx.len() {
            1 => Ok(NodeVal::VecV(r.row(idx[0] as usize).to_vec())),
            2 => Ok(NodeVal::Num(
                r.get(idx[0] as usize, idx[1] as usize)
                    .ok_or_else(|| JagsError::Binding("ragged index out of range".into()))?,
            )),
            _ => Err(JagsError::Unsupported("deep ragged data".into())),
        },
        Some(HostValue::RaggedI(rows)) => match idx.len() {
            2 => Ok(NodeVal::Num(rows[idx[0] as usize][idx[1] as usize] as f64)),
            _ => Err(JagsError::Unsupported("integer ragged data needs two indices".into())),
        },
        Some(HostValue::Real(x)) => Ok(NodeVal::Num(*x)),
        Some(other) => Err(JagsError::Unsupported(format!("data value {other:?}"))),
    }
}

/// Collects the maximal index chains rooted at `target` within `e`.
fn chains_rooted_at(e: &DExpr, target: &str) -> Vec<DExpr> {
    let mut out = Vec::new();
    collect_chains(e, target, &mut out);
    out
}

fn collect_chains(e: &DExpr, target: &str, out: &mut Vec<DExpr>) {
    match e {
        DExpr::Var(n) => {
            if n == target {
                out.push(e.clone());
            }
        }
        DExpr::Int(_) | DExpr::Real(_) => {}
        DExpr::Index(base, idx) => {
            if root_of(e) == Some(target) {
                out.push(e.clone());
                collect_chains(idx, target, out);
            } else {
                collect_chains(base, target, out);
                collect_chains(idx, target, out);
            }
        }
        DExpr::Call(_, args) => {
            for a in args {
                collect_chains(a, target, out);
            }
        }
        DExpr::Binop(_, a, b) => {
            collect_chains(a, target, out);
            collect_chains(b, target, out);
        }
        DExpr::Neg(a) => collect_chains(a, target, out),
    }
}

fn root_of(e: &DExpr) -> Option<&str> {
    match e {
        DExpr::Var(n) => Some(n),
        DExpr::Index(base, _) => root_of(base),
        _ => None,
    }
}

fn collect_indices<'a>(chain: &'a DExpr, out: &mut Vec<&'a DExpr>) {
    if let DExpr::Index(base, idx) = chain {
        collect_indices(base, out);
        out.push(idx);
    }
}

/// Evaluates a constant scalar expression against the bound arguments.
pub(crate) fn eval_const_scalar(consts: &State, e: &DExpr) -> Result<f64, JagsError> {
    eval_scalar_env(consts, &HashMap::new(), e)
}

/// Evaluates a scalar expression of constants and comprehension indices.
pub(crate) fn eval_scalar_env(
    consts: &State,
    env: &HashMap<String, i64>,
    e: &DExpr,
) -> Result<f64, JagsError> {
    match e {
        DExpr::Int(v) => Ok(*v as f64),
        DExpr::Real(v) => Ok(*v),
        DExpr::Var(n) => {
            if let Some(v) = env.get(n) {
                return Ok(*v as f64);
            }
            let id =
                consts.id(n).ok_or_else(|| JagsError::Unsupported(format!("non-static `{n}`")))?;
            match consts.shape(id) {
                Shape::Num => Ok(consts.flat(id)[0]),
                _ => Err(JagsError::Unsupported(format!("`{n}` is not scalar"))),
            }
        }
        DExpr::Index(base, idx) => {
            let i = eval_scalar_env(consts, env, idx)? as usize;
            if let DExpr::Var(n) = &**base {
                if let Some(id) = consts.id(n) {
                    if let Shape::Vector(len) = consts.shape(id) {
                        if i < *len {
                            return Ok(consts.flat(id)[i]);
                        }
                    }
                }
            }
            Err(JagsError::Unsupported(format!("non-static index `{e}`")))
        }
        DExpr::Binop(op, a, b) => {
            let (x, y) = (eval_scalar_env(consts, env, a)?, eval_scalar_env(consts, env, b)?);
            Ok(match op {
                augur_lang::ast::BinOp::Add => x + y,
                augur_lang::ast::BinOp::Sub => x - y,
                augur_lang::ast::BinOp::Mul => x * y,
                augur_lang::ast::BinOp::Div => x / y,
            })
        }
        DExpr::Neg(a) => Ok(-eval_scalar_env(consts, env, a)?),
        DExpr::Call(..) => Err(JagsError::Unsupported(format!("non-static call `{e}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GMM: &str = r#"(K, N, mu_0, Sigma_0, pis, Sigma) => {
        param mu[k] ~ MvNormal(mu_0, Sigma_0) for k <- 0 until K ;
        param z[n] ~ Categorical(pis) for n <- 0 until N ;
        data x[n] ~ MvNormal(mu[z[n]], Sigma) for n <- 0 until N ;
    }"#;

    fn gmm_model(n: usize) -> JagsModel {
        let data = augur_math::FlatRagged::rect(n, 2);
        JagsModel::build(
            GMM,
            vec![
                HostValue::Int(3),
                HostValue::Int(n as i64),
                HostValue::VecF(vec![0.0, 0.0]),
                HostValue::Mat(Matrix::identity(2).scale(10.0)),
                HostValue::VecF(vec![1.0 / 3.0; 3]),
                HostValue::Mat(Matrix::identity(2)),
            ],
            vec![("x", HostValue::Ragged(data))],
            1,
        )
        .unwrap()
    }

    #[test]
    fn node_counts_match_unrolling() {
        let m = gmm_model(5);
        // 3 mu + 5 z + 5 x = 13 nodes
        assert_eq!(m.nodes.len(), 13);
        assert_eq!(m.vars.len(), 3);
    }

    #[test]
    fn stochastic_indexing_gives_conservative_edges() {
        let m = gmm_model(5);
        let mu_group = &m.vars[m.var_index["mu"]];
        for &mu_id in &mu_group.node_ids {
            // every mu[k] has all 5 x-nodes as children
            assert_eq!(m.nodes[mu_id].children.len(), 5, "mu node {mu_id}");
        }
        let z_group = &m.vars[m.var_index["z"]];
        for (i, &z_id) in z_group.node_ids.iter().enumerate() {
            // z[n] has exactly x[n]
            assert_eq!(m.nodes[z_id].children.len(), 1, "z node {i}");
        }
    }

    #[test]
    fn strategies_match_the_analysis() {
        let m = gmm_model(4);
        assert!(matches!(m.vars[m.var_index["mu"]].strategy, Strategy::Conjugate { .. }));
        assert!(matches!(m.vars[m.var_index["z"]].strategy, Strategy::Discrete(_)));
        assert!(matches!(m.vars[m.var_index["x"]].strategy, Strategy::Observed));
    }

    #[test]
    fn observed_values_come_from_data() {
        let mut rows = augur_math::FlatRagged::new();
        rows.push_row(&[1.5, 2.5]);
        let m = JagsModel::build(
            GMM,
            vec![
                HostValue::Int(2),
                HostValue::Int(1),
                HostValue::VecF(vec![0.0, 0.0]),
                HostValue::Mat(Matrix::identity(2)),
                HostValue::VecF(vec![0.5, 0.5]),
                HostValue::Mat(Matrix::identity(2)),
            ],
            vec![("x", HostValue::Ragged(rows))],
            1,
        )
        .unwrap();
        assert_eq!(m.values("x"), vec![1.5, 2.5]);
    }

    #[test]
    fn ragged_two_level_nodes() {
        let src = r#"(D, len, pis) => {
            param z[d][j] ~ Categorical(pis) for d <- 0 until D, j <- 0 until len[d] ;
        }"#;
        let m = JagsModel::build(
            src,
            vec![HostValue::Int(2), HostValue::VecI(vec![3, 1]), HostValue::VecF(vec![0.5, 0.5])],
            vec![],
            1,
        )
        .unwrap();
        let g = &m.vars[m.var_index["z"]];
        assert_eq!(g.node_ids.len(), 4);
        assert_eq!(g.offsets, Some(vec![0, 3, 4]));
        assert_eq!(m.node_of(g, &[1, 0]), Some(3));
    }
}
