//! Binding and up-front allocation (paper §5.2).
//!
//! The compiler runs *after* the user supplies hyper-parameters and data
//! (Fig. 2's `aug.compile(K, N, mu0, S0, pis, S)(x)`), so every symbolic
//! size resolves to a concrete integer here and the whole state — model
//! arguments, data, parameters, and planned temporaries — is allocated
//! before the first sweep. Nothing allocates during sampling, which is
//! what GPU execution requires.

use std::collections::HashMap;
use std::fmt;

use augur_density::{DExpr, DensityModel, Factor};
use augur_dist::DistKind;
use augur_low::shape::{AllocDecl, AllocKind, ShapeSpec, SizeExpr};
use augur_low::LoweredModel;
use augur_math::Matrix;

use crate::state::{HostValue, RowElem, Shape, State};

/// Errors while binding and allocating.
#[derive(Debug, Clone, PartialEq)]
pub enum SetupError {
    /// Wrong number of positional model arguments.
    ArgCount {
        /// Expected count.
        expected: usize,
        /// Provided count.
        actual: usize,
    },
    /// A required data variable was not supplied.
    MissingData(String),
    /// A supplied data name is not a data variable of the model.
    UnknownData(String),
    /// A size expression could not be resolved.
    Unresolvable(String),
    /// The model nests deeper than vectors of vectors.
    TooDeep(String),
    /// A bound value has the wrong extent.
    WrongExtent {
        /// The variable.
        var: String,
        /// What the model implies.
        expected: usize,
        /// What was supplied.
        actual: usize,
    },
    /// A variable has no generating factor in the density model (the
    /// lowered model and the density model disagree).
    MissingFactor(String),
    /// An `MvNormal` factor's mean, covariance and point disagree in
    /// dimension.
    MvNormalDims {
        /// The variable the factor generates.
        var: String,
        /// Length of the mean.
        mean: usize,
        /// Dimension of the (square) covariance.
        cov: usize,
        /// Length of the point: the first row that disagrees with the
        /// mean, or the mean's length when every row agrees.
        point: usize,
    },
    /// A matrix binding is not square, or a vector of matrices holds one
    /// whose shape differs from the first one's square shape.
    MatrixShape {
        /// The argument or data variable.
        var: String,
        /// Rows of the offending matrix.
        rows: usize,
        /// Columns of the offending matrix.
        cols: usize,
    },
}

impl fmt::Display for SetupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetupError::ArgCount { expected, actual } => {
                write!(f, "model takes {expected} arguments, got {actual}")
            }
            SetupError::MissingData(n) => write!(f, "data variable `{n}` was not supplied"),
            SetupError::UnknownData(n) => write!(f, "`{n}` is not a data variable"),
            SetupError::Unresolvable(e) => write!(f, "cannot resolve size of `{e}`"),
            SetupError::TooDeep(n) => {
                write!(f, "`{n}` nests deeper than vectors of vectors")
            }
            SetupError::WrongExtent { var, expected, actual } => write!(
                f,
                "`{var}` should have {expected} element(s) at its outer level, got {actual}"
            ),
            SetupError::MissingFactor(n) => {
                write!(f, "`{n}` has no generating factor in the model")
            }
            SetupError::MvNormalDims { var, mean, cov, point } => write!(
                f,
                "`{var}` ~ MvNormal: the mean has length {mean}, the covariance is \
                 {cov}x{cov} and the point has length {point}; all three must agree"
            ),
            SetupError::MatrixShape { var, rows, cols } => write!(
                f,
                "`{var}` binds a {rows}x{cols} matrix; matrices must be square, and the \
                 matrices of a vector must share the first one's dimension"
            ),
        }
    }
}

impl std::error::Error for SetupError {}

/// Builds the fully-allocated state: binds `args` positionally, `data` by
/// name, allocates every parameter from its declaration, and every
/// planned temporary from size inference.
///
/// # Errors
///
/// Returns a [`SetupError`] for arity mismatches, missing/unknown data,
/// malformed matrices, unresolvable sizes, or `MvNormal` dimensions that
/// disagree.
pub fn build_state(
    model: &DensityModel,
    lowered: &LoweredModel,
    args: Vec<HostValue>,
    data: Vec<(String, HostValue)>,
) -> Result<State, SetupError> {
    let mut state = State::new();

    // 1. positional model arguments
    if args.len() != model.args.len() {
        return Err(SetupError::ArgCount { expected: model.args.len(), actual: args.len() });
    }
    for (info, value) in model.args.iter().zip(&args) {
        check_matrices(&info.name, value)?;
        state.insert_host(&info.name, value);
    }

    // 2. data by name
    let mut provided: HashMap<String, HostValue> = data.into_iter().collect();
    for d in model.data() {
        let value =
            provided.remove(&d.name).ok_or_else(|| SetupError::MissingData(d.name.clone()))?;
        check_matrices(&d.name, &value)?;
        let id = state.insert_host(&d.name, &value);
        // light extent check against the outer comprehension
        let (_, prior) =
            model.prior_factor(&d.name).ok_or_else(|| SetupError::MissingFactor(d.name.clone()))?;
        if let Some(c) = prior.comps.first() {
            let expected = eval_scalar(&state, &HashMap::new(), &c.hi)? as usize;
            let actual = match state.shape(id) {
                Shape::Vector(n) => *n,
                Shape::Rows { offsets, .. } => offsets.len() - 1,
                _ => expected,
            };
            if actual != expected {
                return Err(SetupError::WrongExtent { var: d.name.clone(), expected, actual });
            }
        }
    }
    if let Some(name) = provided.keys().next() {
        return Err(SetupError::UnknownData(name.clone()));
    }

    // 3. parameters, shaped by their declarations
    for p in model.params() {
        let (_, prior) =
            model.prior_factor(&p.name).ok_or_else(|| SetupError::MissingFactor(p.name.clone()))?;
        let shape = param_shape(&state, &p.name, prior)?;
        state.insert(&p.name, shape);
    }
    check_mv_normal_dims(model, &state)?;

    // 4. planned temporaries (size inference output)
    for alloc in &lowered.allocs {
        let shape = alloc_shape(&state, alloc)?;
        let id = state.insert(&alloc.name, shape);
        if alloc.kind == AllocKind::ThreadLocal {
            state.mark_thread_local(id);
        }
    }

    Ok(state)
}

/// A bound matrix must be square, and the matrices of a vector must all
/// share the first one's dimension: [`State::insert_host`] asserts both,
/// and bindings come from the caller.
fn check_matrices(var: &str, value: &HostValue) -> Result<(), SetupError> {
    let bad = |m: &Matrix| SetupError::MatrixShape {
        var: var.to_owned(),
        rows: m.rows(),
        cols: m.cols(),
    };
    match value {
        HostValue::Mat(m) if !m.is_square() => Err(bad(m)),
        HostValue::VecMat(ms) => {
            let dim = ms.first().map_or(0, Matrix::rows);
            ms.iter().find(|m| m.rows() != dim || m.cols() != dim).map_or(Ok(()), |m| Err(bad(m)))
        }
        _ => Ok(()),
    }
}

/// Every `MvNormal` factor's mean length, covariance dimension and point
/// length must agree — for a data variable, on every row — or the first
/// sweep would trip a shape assertion inside a kernel. Means and
/// covariances resolve at comprehension index 0 (parameter rows share one
/// shape); a factor whose arguments do not resolve at setup is left to the
/// kernels.
fn check_mv_normal_dims(model: &DensityModel, state: &State) -> Result<(), SetupError> {
    for (var, factor) in model.vars.iter().zip(&model.factors) {
        if factor.dist != DistKind::MvNormal {
            continue;
        }
        let env: HashMap<String, i64> = factor.comps.iter().map(|c| (c.var.clone(), 0)).collect();
        let (Ok(mean), Ok(cov)) =
            (vec_len_of(state, &env, &factor.args[0]), mat_dim_of(state, &env, &factor.args[1]))
        else {
            continue;
        };
        let Some(id) = state.id(&var.name) else { continue };
        let bad_point = match state.shape(id) {
            Shape::Vector(n) => Some(*n).filter(|&p| p != mean),
            Shape::Rows { offsets, elem: RowElem::Vec } => {
                offsets.windows(2).map(|w| w[1] - w[0]).find(|&p| p != mean)
            }
            _ => continue,
        };
        if mean != cov || bad_point.is_some() {
            return Err(SetupError::MvNormalDims {
                var: var.name.clone(),
                mean,
                cov,
                point: bad_point.unwrap_or(mean),
            });
        }
    }
    Ok(())
}

/// Shape of a parameter from its prior factor: comprehension extents wrap
/// the point shape of the prior distribution.
fn param_shape(state: &State, name: &str, prior: &Factor) -> Result<Shape, SetupError> {
    let env: HashMap<String, i64> = HashMap::new();
    let elem = point_shape(state, prior)?;
    match prior.comps.len() {
        0 => Ok(elem),
        1 => {
            let n = eval_scalar(state, &env, &prior.comps[0].hi)? as usize;
            match elem {
                Shape::Num => Ok(Shape::Vector(n)),
                Shape::Vector(len) => Ok(Shape::Rows {
                    offsets: (0..=n).map(|i| i * len).collect(),
                    elem: RowElem::Vec,
                }),
                Shape::Matrix(d) => Ok(Shape::Rows {
                    offsets: (0..=n).map(|i| i * d * d).collect(),
                    elem: RowElem::Mat(d),
                }),
                Shape::Rows { .. } => Err(SetupError::TooDeep(name.to_owned())),
            }
        }
        2 => {
            // ragged two-level scalar array (e.g. LDA's z[d][j])
            if elem != Shape::Num {
                return Err(SetupError::TooDeep(name.to_owned()));
            }
            let outer = eval_scalar(state, &env, &prior.comps[0].hi)? as usize;
            let mut offsets = Vec::with_capacity(outer + 1);
            offsets.push(0usize);
            let mut acc = 0;
            for d in 0..outer {
                let mut env = HashMap::new();
                env.insert(prior.comps[0].var.clone(), d as i64);
                let len = eval_scalar(state, &env, &prior.comps[1].hi)? as usize;
                acc += len;
                offsets.push(acc);
            }
            Ok(Shape::Rows { offsets, elem: RowElem::Vec })
        }
        n => Err(SetupError::TooDeep(format!("{name} ({n} comprehension levels)"))),
    }
}

/// The shape of one draw from a distribution, resolved against its
/// argument expressions.
fn point_shape(state: &State, prior: &Factor) -> Result<Shape, SetupError> {
    let env: HashMap<String, i64> = prior.comps.iter().map(|c| (c.var.clone(), 0)).collect();
    Ok(match prior.dist.point_ty() {
        augur_dist::SimpleTy::Int | augur_dist::SimpleTy::Real => Shape::Num,
        augur_dist::SimpleTy::Vec => {
            let len = vec_len_of(state, &env, &prior.args[0])?;
            Shape::Vector(len)
        }
        augur_dist::SimpleTy::Mat => {
            let arg = match prior.dist {
                DistKind::InvWishart => &prior.args[1],
                _ => &prior.args[0],
            };
            Shape::Matrix(mat_dim_of(state, &env, arg)?)
        }
    })
}

/// Resolves one planned temporary's shape.
fn alloc_shape(state: &State, alloc: &AllocDecl) -> Result<Shape, SetupError> {
    shape_of_spec(state, &alloc.shape)
}

fn shape_of_spec(state: &State, spec: &ShapeSpec) -> Result<Shape, SetupError> {
    let env: HashMap<String, i64> = HashMap::new();
    Ok(match spec {
        ShapeSpec::Scalar => Shape::Num,
        ShapeSpec::Vec(sz) => Shape::Vector(eval_size(state, sz)?),
        ShapeSpec::Mat(sz) => Shape::Matrix(eval_size(state, sz)?),
        ShapeSpec::Table { rows, inner } => {
            let n = eval_size(state, rows)?;
            match shape_of_spec(state, inner)? {
                Shape::Num => Shape::Vector(n),
                Shape::Vector(len) => {
                    Shape::Rows { offsets: (0..=n).map(|i| i * len).collect(), elem: RowElem::Vec }
                }
                Shape::Matrix(d) => Shape::Rows {
                    offsets: (0..=n).map(|i| i * d * d).collect(),
                    elem: RowElem::Mat(d),
                },
                Shape::Rows { .. } => return Err(SetupError::TooDeep("nested table".into())),
            }
        }
        ShapeSpec::LikeVar(v) => {
            let id =
                state.id(v).ok_or_else(|| SetupError::Unresolvable(format!("like-var {v}")))?;
            let _ = env;
            state.shape(id).clone()
        }
    })
}

fn eval_size(state: &State, sz: &SizeExpr) -> Result<usize, SetupError> {
    let env: HashMap<String, i64> = HashMap::new();
    match sz {
        SizeExpr::Const(v) => Ok(*v as usize),
        SizeExpr::Expr(e) => Ok(eval_scalar(state, &env, e)? as usize),
        SizeExpr::LenOf(e) => vec_len_of(state, &env, e),
        SizeExpr::DimOf(e) => mat_dim_of(state, &env, e),
    }
}

/// A lightweight view over bound buffers used only at setup time.
enum SetupView {
    #[allow(dead_code)] // carried for diagnostics
    Num(f64),
    Slice(usize), // length
    Mat(usize),   // dimension
    Rows {
        buf: crate::state::BufId,
    },
}

fn resolve_view(
    state: &State,
    env: &HashMap<String, i64>,
    e: &DExpr,
) -> Result<SetupView, SetupError> {
    match e {
        DExpr::Int(v) => Ok(SetupView::Num(*v as f64)),
        DExpr::Real(v) => Ok(SetupView::Num(*v)),
        DExpr::Var(name) => {
            if let Some(v) = env.get(name) {
                return Ok(SetupView::Num(*v as f64));
            }
            let id = state.id(name).ok_or_else(|| SetupError::Unresolvable(name.clone()))?;
            Ok(match state.shape(id) {
                Shape::Num => SetupView::Num(state.flat(id)[0]),
                Shape::Vector(n) => SetupView::Slice(*n),
                Shape::Matrix(d) => SetupView::Mat(*d),
                Shape::Rows { .. } => SetupView::Rows { buf: id },
            })
        }
        DExpr::Index(base, idx) => {
            let i = eval_scalar(state, env, idx).unwrap_or(0.0) as usize;
            match resolve_view(state, env, base)? {
                SetupView::Rows { buf } => {
                    let rows = state.shape(buf).num_rows();
                    if rows == 0 {
                        return Err(SetupError::Unresolvable(format!("{e} (no rows)")));
                    }
                    let i = i.min(rows - 1);
                    let (s, t) = state.row_range(buf, i);
                    match state.shape(buf) {
                        Shape::Rows { elem: RowElem::Mat(d), .. } => Ok(SetupView::Mat(*d)),
                        _ => {
                            let _ = s;
                            Ok(SetupView::Slice(t - s))
                        }
                    }
                }
                SetupView::Slice(_) => {
                    // Element of a vector: value lookup happens in
                    // eval_scalar; here we only need the kind.
                    Ok(SetupView::Num(eval_scalar(state, env, e)?))
                }
                _ => Err(SetupError::Unresolvable(format!("{e}"))),
            }
        }
        DExpr::Binop(..) | DExpr::Neg(..) | DExpr::Call(..) => {
            Ok(SetupView::Num(eval_scalar(state, env, e)?))
        }
    }
}

/// Evaluates a scalar model expression against bound buffers at setup
/// time.
pub(crate) fn eval_scalar(
    state: &State,
    env: &HashMap<String, i64>,
    e: &DExpr,
) -> Result<f64, SetupError> {
    match e {
        DExpr::Int(v) => Ok(*v as f64),
        DExpr::Real(v) => Ok(*v),
        DExpr::Var(name) => {
            if let Some(v) = env.get(name) {
                return Ok(*v as f64);
            }
            let id = state.id(name).ok_or_else(|| SetupError::Unresolvable(name.clone()))?;
            match state.shape(id) {
                Shape::Num => Ok(state.flat(id)[0]),
                _ => Err(SetupError::Unresolvable(format!("{name} is not scalar"))),
            }
        }
        DExpr::Index(base, idx) => {
            let i = eval_scalar(state, env, idx)? as usize;
            match &**base {
                DExpr::Var(name) => {
                    let id =
                        state.id(name).ok_or_else(|| SetupError::Unresolvable(name.clone()))?;
                    match state.shape(id) {
                        Shape::Vector(n) if i < *n => Ok(state.flat(id)[i]),
                        _ => Err(SetupError::Unresolvable(format!("{e}"))),
                    }
                }
                _ => Err(SetupError::Unresolvable(format!("{e}"))),
            }
        }
        DExpr::Binop(op, a, b) => {
            let (x, y) = (eval_scalar(state, env, a)?, eval_scalar(state, env, b)?);
            Ok(match op {
                augur_lang::ast::BinOp::Add => x + y,
                augur_lang::ast::BinOp::Sub => x - y,
                augur_lang::ast::BinOp::Mul => x * y,
                augur_lang::ast::BinOp::Div => x / y,
            })
        }
        DExpr::Neg(a) => Ok(-eval_scalar(state, env, a)?),
        DExpr::Call(..) => Err(SetupError::Unresolvable(format!("{e}"))),
    }
}

fn vec_len_of(state: &State, env: &HashMap<String, i64>, e: &DExpr) -> Result<usize, SetupError> {
    match resolve_view(state, env, e)? {
        SetupView::Slice(n) => Ok(n),
        _ => Err(SetupError::Unresolvable(format!("{e} is not a vector"))),
    }
}

fn mat_dim_of(state: &State, env: &HashMap<String, i64>, e: &DExpr) -> Result<usize, SetupError> {
    match resolve_view(state, env, e)? {
        SetupView::Mat(d) => Ok(d),
        _ => Err(SetupError::Unresolvable(format!("{e} is not a matrix"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_kernel::{heuristic_schedule, plan};
    use augur_lang::{parse, typecheck};

    fn lower_model(src: &str) -> (DensityModel, LoweredModel) {
        let dm = DensityModel::from_typed(&typecheck(&parse(src).unwrap()).unwrap()).unwrap();
        let sched = heuristic_schedule(&dm).unwrap();
        let lm = augur_low::lower(&dm, &plan(&dm, &sched).unwrap()).unwrap();
        (dm, lm)
    }

    const HGMM: &str = r#"(K, N, alpha, mu_0, Sigma_0, nu, Psi) => {
        param pi ~ Dirichlet(alpha) ;
        param mu[k] ~ MvNormal(mu_0, Sigma_0) for k <- 0 until K ;
        param Sigma[k] ~ InvWishart(nu, Psi) for k <- 0 until K ;
        param z[n] ~ Categorical(pi) for n <- 0 until N ;
        data y[n] ~ MvNormal(mu[z[n]], Sigma[z[n]]) for n <- 0 until N ;
    }"#;

    fn hgmm_args(k: i64, n: usize, d: usize) -> Vec<HostValue> {
        vec![
            HostValue::Int(k),
            HostValue::Int(n as i64),
            HostValue::VecF(vec![1.0; k as usize]),
            HostValue::VecF(vec![0.0; d]),
            HostValue::Mat(Matrix::identity(d).scale(10.0)),
            HostValue::Real((d + 2) as f64),
            HostValue::Mat(Matrix::identity(d)),
        ]
    }

    #[test]
    fn hgmm_allocation_shapes() {
        let (dm, lm) = lower_model(HGMM);
        let n = 13;
        let data = augur_math::FlatRagged::rect(n, 2);
        let st =
            build_state(&dm, &lm, hgmm_args(3, n, 2), vec![("y".into(), HostValue::Ragged(data))])
                .unwrap();
        assert_eq!(st.shape(st.expect_id("pi")), &Shape::Vector(3));
        match st.shape(st.expect_id("mu")) {
            Shape::Rows { offsets, elem: RowElem::Vec } => {
                assert_eq!(offsets, &[0, 2, 4, 6]);
            }
            other => panic!("mu: {other:?}"),
        }
        match st.shape(st.expect_id("Sigma")) {
            Shape::Rows { elem: RowElem::Mat(2), offsets } => {
                assert_eq!(offsets.len(), 4);
            }
            other => panic!("Sigma: {other:?}"),
        }
        assert_eq!(st.shape(st.expect_id("z")), &Shape::Vector(n));
        // sufficient statistics allocated: e.g. the Dirichlet counts K-vector
        assert!(st.id("u0_t0_cnt").is_some());
    }

    #[test]
    fn missing_data_is_reported() {
        let (dm, lm) = lower_model(HGMM);
        let err = build_state(&dm, &lm, hgmm_args(3, 4, 2), vec![]).unwrap_err();
        assert_eq!(err, SetupError::MissingData("y".into()));
    }

    #[test]
    fn wrong_arg_count_is_reported() {
        let (dm, lm) = lower_model(HGMM);
        let err = build_state(&dm, &lm, vec![HostValue::Int(3)], vec![]).unwrap_err();
        assert!(matches!(err, SetupError::ArgCount { expected: 7, actual: 1 }));
    }

    #[test]
    fn wrong_extent_is_reported() {
        let (dm, lm) = lower_model(HGMM);
        let data = augur_math::FlatRagged::rect(99, 2);
        let err =
            build_state(&dm, &lm, hgmm_args(3, 4, 2), vec![("y".into(), HostValue::Ragged(data))])
                .unwrap_err();
        assert!(matches!(err, SetupError::WrongExtent { .. }));
    }

    #[test]
    fn mismatched_mv_normal_dimensions_are_reported() {
        let (dm, lm) = lower_model(HGMM);
        let y = || vec![("y".to_owned(), HostValue::Ragged(augur_math::FlatRagged::rect(5, 2)))];
        let with = |i: usize, v: HostValue| {
            let mut args = hgmm_args(3, 5, 2);
            args[i] = v;
            args
        };
        let cases = [
            // mu_0 of length 3 against 2-D data and a 2x2 Sigma_0
            (with(3, HostValue::VecF(vec![0.0; 3])), "mu", (3, 2, 3)),
            // a 3x3 Sigma_0 for 2-D means
            (with(4, HostValue::Mat(Matrix::identity(3))), "mu", (2, 3, 2)),
            // a 3x3 Psi: every Sigma[k] is 3x3 against 2-D means and data
            (with(6, HostValue::Mat(Matrix::identity(3))), "y", (2, 3, 2)),
        ];
        for (args, var, (mean, cov, point)) in cases {
            let err = build_state(&dm, &lm, args, y()).unwrap_err();
            assert_eq!(
                err,
                SetupError::MvNormalDims { var: var.into(), mean, cov, point },
                "{err}"
            );
        }
        // one short data row among well-formed ones
        let rows = vec![vec![0.0, 1.0], vec![2.0], vec![3.0, 4.0]];
        let err = build_state(
            &dm,
            &lm,
            hgmm_args(3, 3, 2),
            vec![("y".into(), HostValue::Ragged(augur_math::FlatRagged::from_rows(rows)))],
        )
        .unwrap_err();
        assert_eq!(err, SetupError::MvNormalDims { var: "y".into(), mean: 2, cov: 2, point: 1 });
        // no components: `mu[z[n]]` names a row of an empty buffer, which
        // the check must skip rather than index
        let st = build_state(&dm, &lm, hgmm_args(0, 5, 2), y()).unwrap();
        assert_eq!(st.shape(st.expect_id("mu")).num_rows(), 0);
    }

    #[test]
    fn lda_ragged_param_allocation() {
        let src = r#"(K, D, V, alpha, beta, len) => {
            param theta[d] ~ Dirichlet(alpha) for d <- 0 until D ;
            param phi[k] ~ Dirichlet(beta) for k <- 0 until K ;
            param z[d][j] ~ Categorical(theta[d]) for d <- 0 until D, j <- 0 until len[d] ;
            data w[d][j] ~ Categorical(phi[z[d][j]]) for d <- 0 until D, j <- 0 until len[d] ;
        }"#;
        let (dm, lm) = lower_model(src);
        let lens = [3i64, 1, 4];
        let docs: Vec<Vec<i64>> = vec![vec![0, 1, 2], vec![3], vec![4, 0, 1, 2]];
        let st = build_state(
            &dm,
            &lm,
            vec![
                HostValue::Int(2),               // K topics
                HostValue::Int(3),               // D docs
                HostValue::Int(5),               // V vocab
                HostValue::VecF(vec![0.5, 0.5]), // alpha (K)
                HostValue::VecF(vec![0.1; 5]),   // beta (V)
                HostValue::VecI(lens.to_vec()),  // len
            ],
            vec![("w".into(), HostValue::RaggedI(docs))],
        )
        .unwrap();
        match st.shape(st.expect_id("z")) {
            Shape::Rows { offsets, elem: RowElem::Vec } => {
                assert_eq!(offsets, &[0, 3, 4, 8]);
            }
            other => panic!("z: {other:?}"),
        }
        // theta: D rows of K; phi: K rows of V
        assert_eq!(st.row_range(st.expect_id("theta"), 2), (4, 6));
        assert_eq!(st.row_range(st.expect_id("phi"), 1), (5, 10));
    }
}
