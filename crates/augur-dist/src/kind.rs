use std::fmt;
use std::str::FromStr;

use augur_math::Matrix;

use crate::value::{ValueMut, ValueRef};
use crate::{matrix as mat_dist, scalar, vector, Prng};

/// Simple runtime-level types, mirroring the Density IL base/compound types
/// (`σ ::= Int | Real`, `τ ::= σ | Vec τ | Mat σ`, paper Fig. 4) as far as
/// the distribution signatures need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimpleTy {
    /// Integer scalar.
    Int,
    /// Real scalar.
    Real,
    /// Vector of reals.
    Vec,
    /// Square matrix of reals.
    Mat,
}

impl fmt::Display for SimpleTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SimpleTy::Int => "Int",
            SimpleTy::Real => "Real",
            SimpleTy::Vec => "Vec Real",
            SimpleTy::Mat => "Mat Real",
        };
        f.write_str(s)
    }
}

/// The support of a distribution — drives the HMC constraint transforms and
/// the schedule heuristic (discrete ⇒ Gibbs, continuous ⇒ gradient-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Support {
    /// Finite discrete support `{0, …, K−1}` with `K` given by a parameter.
    DiscreteFinite,
    /// Countable discrete support (e.g. Poisson).
    DiscreteCount,
    /// The whole real line.
    RealLine,
    /// Positive reals.
    RealPos,
    /// The unit interval `[0, 1]`.
    UnitInterval,
    /// A bounded interval given by parameters.
    Interval,
    /// Real vectors.
    RealVector,
    /// The probability simplex.
    Simplex,
    /// Symmetric positive-definite matrices.
    PosDefMatrix,
}

impl Support {
    /// True for discrete supports.
    pub fn is_discrete(self) -> bool {
        matches!(self, Support::DiscreteFinite | Support::DiscreteCount)
    }
}

/// Error type for dynamic distribution operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistError {
    /// Wrong number of parameters for the distribution.
    Arity {
        /// The distribution.
        kind: DistKind,
        /// Expected parameter count.
        expected: usize,
        /// Received parameter count.
        actual: usize,
    },
    /// The requested operation is not implemented for this distribution
    /// (e.g. gradients of a discrete distribution), matching the paper's
    /// Fig. 7 primitive-support table.
    Unsupported {
        /// The distribution.
        kind: DistKind,
        /// Short operation name (`"grad"`, `"samp"`, …).
        op: &'static str,
    },
    /// An unknown distribution name was parsed.
    UnknownName(String),
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Arity { kind, expected, actual } => {
                write!(f, "{kind} expects {expected} parameters, got {actual}")
            }
            DistError::Unsupported { kind, op } => {
                write!(f, "operation {op} is not supported for {kind}")
            }
            DistError::UnknownName(n) => write!(f, "unknown distribution {n}"),
        }
    }
}

impl std::error::Error for DistError {}

/// The primitive distributions of the AugurV2 modeling language.
///
/// Each variant provides the three Low++ IL distribution operations of the
/// paper (Fig. 6): `ll` ([`DistKind::log_pdf`]), `samp`
/// ([`DistKind::sample`]), and `grad_i` ([`DistKind::grad_param`] /
/// [`DistKind::grad_point`]).
///
/// # Example
///
/// ```
/// use augur_dist::DistKind;
///
/// let d: DistKind = "MvNormal".parse().unwrap();
/// assert_eq!(d, DistKind::MvNormal);
/// assert_eq!(d.arity(), 2);
/// assert!(!d.support().is_discrete());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistKind {
    /// `Normal(mu, var)` — scalar normal, *variance* parameterization.
    Normal,
    /// `MvNormal(mu, Sigma)` — multivariate normal.
    MvNormal,
    /// `Categorical(pis)` — finite discrete with probability vector.
    Categorical,
    /// `Dirichlet(alpha)`.
    Dirichlet,
    /// `Bernoulli(p)`.
    Bernoulli,
    /// `BernoulliLogit(eta)` — Bernoulli with logit parameter; the stable
    /// form the HLR likelihood lowers to.
    BernoulliLogit,
    /// `Gamma(shape, rate)`.
    Gamma,
    /// `InvGamma(shape, scale)`.
    InvGamma,
    /// `Beta(a, b)`.
    Beta,
    /// `Exponential(rate)`.
    Exponential,
    /// `Poisson(lambda)`.
    Poisson,
    /// `Uniform(lo, hi)` — continuous uniform.
    Uniform,
    /// `InvWishart(df, psi)`.
    InvWishart,
    /// `Binomial(n, p)`.
    Binomial,
}

/// All distribution kinds, for iteration in tests and tables.
pub const ALL_KINDS: [DistKind; 14] = [
    DistKind::Normal,
    DistKind::MvNormal,
    DistKind::Categorical,
    DistKind::Dirichlet,
    DistKind::Bernoulli,
    DistKind::BernoulliLogit,
    DistKind::Gamma,
    DistKind::InvGamma,
    DistKind::Beta,
    DistKind::Exponential,
    DistKind::Poisson,
    DistKind::Uniform,
    DistKind::InvWishart,
    DistKind::Binomial,
];

impl fmt::Display for DistKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for DistKind {
    type Err = DistError;

    fn from_str(s: &str) -> Result<Self, DistError> {
        ALL_KINDS
            .iter()
            .copied()
            .find(|k| k.name() == s)
            .ok_or_else(|| DistError::UnknownName(s.to_owned()))
    }
}

impl DistKind {
    /// The surface-syntax name of the distribution.
    pub fn name(self) -> &'static str {
        match self {
            DistKind::Normal => "Normal",
            DistKind::MvNormal => "MvNormal",
            DistKind::Categorical => "Categorical",
            DistKind::Dirichlet => "Dirichlet",
            DistKind::Bernoulli => "Bernoulli",
            DistKind::BernoulliLogit => "BernoulliLogit",
            DistKind::Gamma => "Gamma",
            DistKind::InvGamma => "InvGamma",
            DistKind::Beta => "Beta",
            DistKind::Exponential => "Exponential",
            DistKind::Poisson => "Poisson",
            DistKind::Uniform => "Uniform",
            DistKind::InvWishart => "InvWishart",
            DistKind::Binomial => "Binomial",
        }
    }

    /// Number of parameters.
    pub fn arity(self) -> usize {
        self.param_tys().len()
    }

    /// Parameter types, in surface-syntax order.
    pub fn param_tys(self) -> &'static [SimpleTy] {
        match self {
            DistKind::Normal => &[SimpleTy::Real, SimpleTy::Real],
            DistKind::MvNormal => &[SimpleTy::Vec, SimpleTy::Mat],
            DistKind::Categorical => &[SimpleTy::Vec],
            DistKind::Dirichlet => &[SimpleTy::Vec],
            DistKind::Bernoulli | DistKind::BernoulliLogit => &[SimpleTy::Real],
            DistKind::Gamma | DistKind::InvGamma | DistKind::Beta => {
                &[SimpleTy::Real, SimpleTy::Real]
            }
            DistKind::Exponential | DistKind::Poisson => &[SimpleTy::Real],
            DistKind::Uniform => &[SimpleTy::Real, SimpleTy::Real],
            DistKind::InvWishart => &[SimpleTy::Real, SimpleTy::Mat],
            DistKind::Binomial => &[SimpleTy::Int, SimpleTy::Real],
        }
    }

    /// The type of a point in the support.
    pub fn point_ty(self) -> SimpleTy {
        match self {
            DistKind::Normal
            | DistKind::Gamma
            | DistKind::InvGamma
            | DistKind::Beta
            | DistKind::Exponential
            | DistKind::Uniform => SimpleTy::Real,
            DistKind::Categorical
            | DistKind::Bernoulli
            | DistKind::BernoulliLogit
            | DistKind::Poisson
            | DistKind::Binomial => SimpleTy::Int,
            DistKind::MvNormal | DistKind::Dirichlet => SimpleTy::Vec,
            DistKind::InvWishart => SimpleTy::Mat,
        }
    }

    /// The support of the distribution.
    pub fn support(self) -> Support {
        match self {
            DistKind::Normal => Support::RealLine,
            DistKind::MvNormal => Support::RealVector,
            DistKind::Categorical => Support::DiscreteFinite,
            DistKind::Dirichlet => Support::Simplex,
            DistKind::Bernoulli | DistKind::BernoulliLogit => Support::DiscreteFinite,
            DistKind::Gamma | DistKind::InvGamma | DistKind::Exponential => Support::RealPos,
            DistKind::Beta => Support::UnitInterval,
            DistKind::Poisson => Support::DiscreteCount,
            DistKind::Uniform => Support::Interval,
            DistKind::InvWishart => Support::PosDefMatrix,
            DistKind::Binomial => Support::DiscreteFinite,
        }
    }

    /// Whether gradients of the log-density with respect to the point are
    /// available (paper Fig. 7: HMC/reflective-slice need them).
    pub fn has_point_grad(self) -> bool {
        matches!(
            self,
            DistKind::Normal
                | DistKind::MvNormal
                | DistKind::Gamma
                | DistKind::InvGamma
                | DistKind::Beta
                | DistKind::Exponential
                | DistKind::Dirichlet
        )
    }

    fn check_arity(self, params: &[ValueRef]) -> Result<(), DistError> {
        if params.len() != self.arity() {
            return Err(DistError::Arity {
                kind: self,
                expected: self.arity(),
                actual: params.len(),
            });
        }
        Ok(())
    }

    /// Evaluates the log-density (`ll` in the Low++ IL) at `point`.
    ///
    /// Out-of-support points yield `-inf` rather than an error, matching
    /// MCMC usage where a proposal may step outside the support.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::Arity`] when the parameter count is wrong.
    pub fn log_pdf(self, params: &[ValueRef], point: ValueRef) -> Result<f64, DistError> {
        self.check_arity(params)?;
        let ll = match self {
            DistKind::Normal => {
                scalar::normal_log_pdf(point.scalar(), params[0].scalar(), params[1].scalar())
            }
            DistKind::MvNormal => {
                let (cov, dim) = params[1].matrix();
                vector::mv_normal_log_pdf(point.vector(), params[0].vector(), cov, dim)
            }
            DistKind::Categorical => {
                let k = point.scalar();
                if k < 0.0 {
                    f64::NEG_INFINITY
                } else {
                    vector::categorical_log_pmf(k as usize, params[0].vector())
                }
            }
            DistKind::Dirichlet => vector::dirichlet_log_pdf(point.vector(), params[0].vector()),
            DistKind::Bernoulli => {
                let x = point.scalar();
                if x == 0.0 || x == 1.0 {
                    scalar::bernoulli_log_pmf(x as u8, params[0].scalar())
                } else {
                    f64::NEG_INFINITY
                }
            }
            DistKind::BernoulliLogit => {
                let x = point.scalar();
                if x == 0.0 || x == 1.0 {
                    scalar::bernoulli_logit_log_pmf(x as u8, params[0].scalar())
                } else {
                    f64::NEG_INFINITY
                }
            }
            DistKind::Gamma => {
                scalar::gamma_log_pdf(point.scalar(), params[0].scalar(), params[1].scalar())
            }
            DistKind::InvGamma => {
                scalar::inv_gamma_log_pdf(point.scalar(), params[0].scalar(), params[1].scalar())
            }
            DistKind::Beta => {
                scalar::beta_log_pdf(point.scalar(), params[0].scalar(), params[1].scalar())
            }
            DistKind::Exponential => {
                scalar::exponential_log_pdf(point.scalar(), params[0].scalar())
            }
            DistKind::Poisson => {
                let x = point.scalar();
                if x < 0.0 || x.fract() != 0.0 {
                    f64::NEG_INFINITY
                } else {
                    scalar::poisson_log_pmf(x as u64, params[0].scalar())
                }
            }
            DistKind::Uniform => {
                scalar::uniform_log_pdf(point.scalar(), params[0].scalar(), params[1].scalar())
            }
            DistKind::InvWishart => {
                let (x, d) = point.matrix();
                let (psi, dp) = params[1].matrix();
                let xm = Matrix::from_slice(d, d, x).expect("point matrix shape");
                let pm = Matrix::from_slice(dp, dp, psi).expect("psi matrix shape");
                mat_dist::inv_wishart_log_pdf(&xm, params[0].scalar(), &pm)
            }
            DistKind::Binomial => {
                let x = point.scalar();
                let n = params[0].scalar();
                if x < 0.0 || x.fract() != 0.0 || n < 0.0 {
                    f64::NEG_INFINITY
                } else {
                    scalar::binomial_log_pmf(x as u64, n as u64, params[1].scalar())
                }
            }
        };
        Ok(ll)
    }

    /// Samples a fresh point (`samp` in the Low++ IL) into `out`.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::Arity`] on a wrong parameter count.
    ///
    /// # Panics
    ///
    /// Panics when parameters are outside their domain (e.g. a negative
    /// variance), consistent with the paper's runtime which traps on
    /// malformed parameters.
    pub fn sample(
        self,
        params: &[ValueRef],
        rng: &mut Prng,
        out: ValueMut,
    ) -> Result<(), DistError> {
        self.check_arity(params)?;
        match self {
            DistKind::Normal => {
                *out.scalar() = rng.normal(params[0].scalar(), params[1].scalar());
            }
            DistKind::MvNormal => {
                let (cov, dim) = params[1].matrix();
                vector::mv_normal_sample(params[0].vector(), cov, dim, rng, out.vector());
            }
            DistKind::Categorical => {
                *out.scalar() = rng.categorical(params[0].vector()) as f64;
            }
            DistKind::Dirichlet => {
                rng.dirichlet(params[0].vector(), out.vector());
            }
            DistKind::Bernoulli => {
                *out.scalar() = f64::from(rng.bernoulli(params[0].scalar()));
            }
            DistKind::BernoulliLogit => {
                let p = augur_math::special::sigmoid(params[0].scalar());
                *out.scalar() = f64::from(rng.bernoulli(p));
            }
            DistKind::Gamma => {
                *out.scalar() = rng.gamma(params[0].scalar(), params[1].scalar());
            }
            DistKind::InvGamma => {
                *out.scalar() = rng.inv_gamma(params[0].scalar(), params[1].scalar());
            }
            DistKind::Beta => {
                *out.scalar() = rng.beta(params[0].scalar(), params[1].scalar());
            }
            DistKind::Exponential => {
                *out.scalar() = rng.exponential(params[0].scalar());
            }
            DistKind::Poisson => {
                *out.scalar() = rng.poisson(params[0].scalar()) as f64;
            }
            DistKind::Uniform => {
                *out.scalar() = rng.uniform_range(params[0].scalar(), params[1].scalar());
            }
            DistKind::InvWishart => {
                let (psi, dp) = params[1].matrix();
                let pm = Matrix::from_slice(dp, dp, psi).expect("psi matrix shape");
                let draw = mat_dist::inv_wishart_sample(params[0].scalar(), &pm, rng);
                let (slot, dim) = out.matrix();
                assert_eq!(dim, dp, "inv-wishart output dimension");
                slot.copy_from_slice(draw.as_slice());
            }
            DistKind::Binomial => {
                let n = params[0].scalar() as u64;
                let p = params[1].scalar();
                let mut c = 0u64;
                for _ in 0..n {
                    c += u64::from(rng.bernoulli(p));
                }
                *out.scalar() = c as f64;
            }
        }
        Ok(())
    }

    /// Accumulates `∂/∂point log p(point | params)` into `out` (the Low++
    /// `grad_1`, position 1 being the point by the paper's convention).
    ///
    /// # Errors
    ///
    /// Returns [`DistError::Unsupported`] for distributions without point
    /// gradients (see [`DistKind::has_point_grad`]) and [`DistError::Arity`]
    /// on a wrong parameter count.
    pub fn grad_point(
        self,
        params: &[ValueRef],
        point: ValueRef,
        out: ValueMut,
    ) -> Result<(), DistError> {
        self.check_arity(params)?;
        match self {
            DistKind::Normal => {
                *out.scalar() +=
                    scalar::normal_grad_x(point.scalar(), params[0].scalar(), params[1].scalar());
            }
            DistKind::MvNormal => {
                let (cov, dim) = params[1].matrix();
                let m = Matrix::from_slice(dim, dim, cov).expect("cov shape");
                let cache =
                    vector::MvNormalCache::new(&m).expect("covariance must be SPD for gradients");
                cache.grad_x(point.vector(), params[0].vector(), out.vector());
            }
            DistKind::Gamma => {
                *out.scalar() +=
                    scalar::gamma_grad_x(point.scalar(), params[0].scalar(), params[1].scalar());
            }
            DistKind::InvGamma => {
                *out.scalar() += scalar::inv_gamma_grad_x(
                    point.scalar(),
                    params[0].scalar(),
                    params[1].scalar(),
                );
            }
            DistKind::Beta => {
                *out.scalar() +=
                    scalar::beta_grad_x(point.scalar(), params[0].scalar(), params[1].scalar());
            }
            DistKind::Exponential => {
                *out.scalar() += scalar::exponential_grad_x(point.scalar(), params[0].scalar());
            }
            DistKind::Dirichlet => {
                vector::dirichlet_grad_x(point.vector(), params[0].vector(), out.vector());
            }
            _ => return Err(DistError::Unsupported { kind: self, op: "grad_point" }),
        }
        Ok(())
    }

    /// Accumulates `∂/∂params[i] log p(point | params)` into `out` (the
    /// Low++ `grad_{i+2}` by the paper's 1-based argument convention).
    ///
    /// # Errors
    ///
    /// Returns [`DistError::Unsupported`] for parameters without gradient
    /// support and [`DistError::Arity`] on a wrong parameter count.
    pub fn grad_param(
        self,
        i: usize,
        params: &[ValueRef],
        point: ValueRef,
        out: ValueMut,
    ) -> Result<(), DistError> {
        self.check_arity(params)?;
        match (self, i) {
            (DistKind::Normal, 0) => {
                *out.scalar() +=
                    scalar::normal_grad_mu(point.scalar(), params[0].scalar(), params[1].scalar());
            }
            (DistKind::Normal, 1) => {
                *out.scalar() +=
                    scalar::normal_grad_var(point.scalar(), params[0].scalar(), params[1].scalar());
            }
            (DistKind::MvNormal, 0) => {
                let (cov, dim) = params[1].matrix();
                let m = Matrix::from_slice(dim, dim, cov).expect("cov shape");
                let cache =
                    vector::MvNormalCache::new(&m).expect("covariance must be SPD for gradients");
                cache.grad_mu(point.vector(), params[0].vector(), out.vector());
            }
            (DistKind::BernoulliLogit, 0) => {
                let x = point.scalar();
                *out.scalar() += scalar::bernoulli_logit_grad_eta(x as u8, params[0].scalar());
            }
            (DistKind::Bernoulli, 0) => {
                // ∂/∂p ln Bern(y | p) = y/p − (1−y)/(1−p)
                let y = point.scalar();
                let p = params[0].scalar();
                *out.scalar() += if y == 1.0 { 1.0 / p } else { -1.0 / (1.0 - p) };
            }
            (DistKind::Exponential, 0) => {
                // ∂/∂rate [ln rate − rate·x] = 1/rate − x
                *out.scalar() += 1.0 / params[0].scalar() - point.scalar();
            }
            (DistKind::Poisson, 0) => {
                // ∂/∂λ [x ln λ − λ] = x/λ − 1
                *out.scalar() += point.scalar() / params[0].scalar() - 1.0;
            }
            _ => return Err(DistError::Unsupported { kind: self, op: "grad_param" }),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_every_name_roundtrips() {
        for k in ALL_KINDS {
            assert_eq!(k.name().parse::<DistKind>().unwrap(), k);
        }
        assert!(matches!("Gumbel".parse::<DistKind>(), Err(DistError::UnknownName(_))));
    }

    #[test]
    fn arity_mismatch_is_error() {
        let err = DistKind::Normal.log_pdf(&[ValueRef::Scalar(0.0)], ValueRef::Scalar(0.0));
        assert!(matches!(err, Err(DistError::Arity { expected: 2, actual: 1, .. })));
    }

    #[test]
    fn dynamic_normal_matches_static() {
        let params = [ValueRef::Scalar(1.0), ValueRef::Scalar(4.0)];
        let ll = DistKind::Normal.log_pdf(&params, ValueRef::Scalar(0.0)).unwrap();
        assert!((ll - scalar::normal_log_pdf(0.0, 1.0, 4.0)).abs() < 1e-15);
    }

    #[test]
    fn dynamic_sampling_all_scalar_kinds() {
        let mut rng = Prng::seed_from_u64(5);
        let cases: Vec<(DistKind, Vec<f64>)> = vec![
            (DistKind::Normal, vec![0.0, 1.0]),
            (DistKind::Gamma, vec![2.0, 2.0]),
            (DistKind::InvGamma, vec![3.0, 2.0]),
            (DistKind::Beta, vec![2.0, 2.0]),
            (DistKind::Exponential, vec![1.5]),
            (DistKind::Poisson, vec![4.0]),
            (DistKind::Uniform, vec![-1.0, 1.0]),
            (DistKind::Bernoulli, vec![0.4]),
            (DistKind::BernoulliLogit, vec![0.3]),
        ];
        for (kind, ps) in cases {
            let params: Vec<ValueRef> = ps.iter().map(|&p| ValueRef::Scalar(p)).collect();
            let mut x = f64::NAN;
            kind.sample(&params, &mut rng, ValueMut::Scalar(&mut x)).unwrap();
            assert!(x.is_finite(), "{kind} sample");
            // The drawn point must be inside the support: finite ll.
            let ll = kind.log_pdf(&params, ValueRef::Scalar(x)).unwrap();
            assert!(ll.is_finite(), "{kind} ll at own sample: {ll}");
        }
    }

    #[test]
    fn categorical_and_dirichlet_dispatch() {
        let pis = [0.25, 0.25, 0.5];
        let params = [ValueRef::Vector(&pis)];
        let mut rng = Prng::seed_from_u64(6);
        let mut k = f64::NAN;
        DistKind::Categorical.sample(&params, &mut rng, ValueMut::Scalar(&mut k)).unwrap();
        assert!((0.0..=2.0).contains(&k) && k.fract() == 0.0);
        let alpha = [1.0, 2.0, 3.0];
        let dparams = [ValueRef::Vector(&alpha)];
        let mut theta = vec![0.0; 3];
        DistKind::Dirichlet.sample(&dparams, &mut rng, ValueMut::Vector(&mut theta)).unwrap();
        let ll = DistKind::Dirichlet.log_pdf(&dparams, ValueRef::Vector(&theta)).unwrap();
        assert!(ll.is_finite());
    }

    #[test]
    fn grad_point_unsupported_for_discrete() {
        let pis = [0.5, 0.5];
        let params = [ValueRef::Vector(&pis)];
        let mut out = 0.0;
        let err = DistKind::Categorical.grad_point(
            &params,
            ValueRef::Scalar(0.0),
            ValueMut::Scalar(&mut out),
        );
        assert!(matches!(err, Err(DistError::Unsupported { .. })));
    }

    #[test]
    fn grad_accumulates_rather_than_overwrites() {
        let params = [ValueRef::Scalar(0.0), ValueRef::Scalar(1.0)];
        let mut out = 10.0;
        DistKind::Normal
            .grad_point(&params, ValueRef::Scalar(2.0), ValueMut::Scalar(&mut out))
            .unwrap();
        assert!((out - (10.0 - 2.0)).abs() < 1e-14);
    }

    #[test]
    fn inv_wishart_dispatch_roundtrip() {
        let psi = [1.0, 0.0, 0.0, 1.0];
        let params = [ValueRef::Scalar(5.0), ValueRef::Matrix { data: &psi, dim: 2 }];
        let mut rng = Prng::seed_from_u64(7);
        let mut draw = vec![0.0; 4];
        DistKind::InvWishart
            .sample(&params, &mut rng, ValueMut::Matrix { data: &mut draw, dim: 2 })
            .unwrap();
        let ll = DistKind::InvWishart
            .log_pdf(&params, ValueRef::Matrix { data: &draw, dim: 2 })
            .unwrap();
        assert!(ll.is_finite());
    }

    #[test]
    fn support_table_consistency() {
        for k in ALL_KINDS {
            if k.support().is_discrete() {
                assert!(!k.has_point_grad(), "{k} is discrete but claims point grads");
            }
        }
    }
}
