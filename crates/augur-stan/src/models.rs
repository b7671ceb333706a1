//! Hand-written Stan-style models: the user supplies `log_prob` over an
//! unconstrained parameter vector, with discrete variables marginalized
//! out by hand — exactly what the paper notes Stan requires ("the user
//! must write the model to marginalize out all discrete variables",
//! §7.2).

use crate::tape::{Tape, V};

/// A model in Stan form: a differentiable log-density over an
/// unconstrained parameter vector.
pub trait StanModel {
    /// Dimension of the unconstrained parameter vector.
    fn dim(&self) -> usize;
    /// Records the log-density of `q` on the tape (including any
    /// change-of-variables Jacobians).
    fn log_prob(&self, tape: &mut Tape, q: &[V]) -> V;
    /// A reasonable initialization point.
    fn init(&self) -> Vec<f64> {
        vec![0.0; self.dim()]
    }
}

/// Conjugate Normal-mean test model: `m ~ N(0, prior_var)`,
/// `y_n ~ N(m, like_var)`.
#[derive(Debug, Clone)]
pub struct NormalMean {
    /// Prior variance of the mean.
    pub prior_var: f64,
    /// Known likelihood variance.
    pub like_var: f64,
    /// Observations.
    pub data: Vec<f64>,
}

impl StanModel for NormalMean {
    fn dim(&self) -> usize {
        1
    }

    fn log_prob(&self, tape: &mut Tape, q: &[V]) -> V {
        let m = q[0];
        let zero = tape.leaf(0.0);
        let mut lp = tape.normal_lpdf(m, zero, self.prior_var);
        for &y in &self.data {
            let yv = tape.leaf(y);
            let term = tape.normal_lpdf(yv, m, self.like_var);
            lp = tape.add(lp, term);
        }
        lp
    }
}

/// Hierarchical logistic regression (the paper's HLR):
///
/// ```text
/// σ² ~ Exponential(λ);  b ~ N(0, σ²);  θ_j ~ N(0, σ²)
/// y_n ~ Bernoulli(sigmoid(x_n · θ + b))
/// ```
///
/// Unconstrained parameterization: `q = [log σ², b, θ_1..θ_D]` with the
/// log-Jacobian of the positive transform included.
#[derive(Debug, Clone)]
pub struct HlrModel {
    /// Covariate rows.
    pub x: Vec<Vec<f64>>,
    /// Binary responses.
    pub y: Vec<u8>,
    /// Prior rate of the variance.
    pub lambda: f64,
}

impl StanModel for HlrModel {
    fn dim(&self) -> usize {
        2 + self.x.first().map_or(0, Vec::len)
    }

    fn log_prob(&self, tape: &mut Tape, q: &[V]) -> V {
        let log_s2 = q[0];
        let b = q[1];
        let theta = &q[2..];
        let s2 = tape.exp(log_s2);
        // prior on σ² with Jacobian d σ²/d log σ² = σ²
        let mut lp = tape.exponential_lpdf(s2, self.lambda);
        lp = tape.add(lp, log_s2);
        // priors on b and θ
        let zero = tape.leaf(0.0);
        let pb = tape.normal_lpdf_v(b, zero, s2);
        lp = tape.add(lp, pb);
        for &t in theta {
            let pt = tape.normal_lpdf_v(t, zero, s2);
            lp = tape.add(lp, pt);
        }
        // likelihood
        for (row, &y) in self.x.iter().zip(&self.y) {
            let dot = tape.dot_const(theta, row);
            let eta = tape.add(dot, b);
            let term = tape.bernoulli_logit_lpmf(y, eta);
            lp = tape.add(lp, term);
        }
        lp
    }

    fn init(&self) -> Vec<f64> {
        let mut q = vec![0.0; self.dim()];
        q[0] = 0.0; // σ² = 1
        q
    }
}

/// A Gaussian mixture with the assignments marginalized out by hand —
/// the form Stan forces on the Fig. 10 HGMM comparison:
///
/// ```text
/// p(y | π, μ) = Π_n Σ_k π_k N(y_n | μ_k, Σ)
/// ```
///
/// Unconstrained parameterization: `q = [π logits (K), μ (K·D)]`; the
/// component covariance is held at the supplied spherical value (this
/// reproduction's documented simplification of the full HGMM — the
/// comparison's subject is the marginalized-mixture gradient cost).
#[derive(Debug, Clone)]
pub struct MarginalGmm {
    /// Observations (N × D).
    pub data: Vec<Vec<f64>>,
    /// Number of components.
    pub k: usize,
    /// Prior variance of each mean coordinate.
    pub prior_var: f64,
    /// Known spherical likelihood variance.
    pub like_var: f64,
    /// Dirichlet concentration of the weights (symmetric).
    pub alpha: f64,
}

impl MarginalGmm {
    /// Data dimensionality.
    pub fn d(&self) -> usize {
        self.data.first().map_or(0, Vec::len)
    }

    /// Splits a draw back into (weights, means).
    pub fn unpack(&self, q: &[f64]) -> (Vec<f64>, Vec<Vec<f64>>) {
        let logits = &q[..self.k];
        let m = augur_math::special::log_sum_exp(logits);
        let pis: Vec<f64> = logits.iter().map(|l| (l - m).exp()).collect();
        let d = self.d();
        let mus = (0..self.k).map(|c| q[self.k + c * d..self.k + (c + 1) * d].to_vec()).collect();
        (pis, mus)
    }
}

impl StanModel for MarginalGmm {
    fn dim(&self) -> usize {
        self.k + self.k * self.d()
    }

    fn log_prob(&self, tape: &mut Tape, q: &[V]) -> V {
        let k = self.k;
        let d = self.d();
        let logits = &q[..k];
        let mus = &q[k..];

        // log softmax weights: logπ_c = logit_c − lse(logits); softmax
        // Jacobian handled implicitly by the overparameterized logits with
        // a normal anchor on the logits (a standard Stan trick).
        let lse = tape.log_sum_exp(logits);
        let zero = tape.leaf(0.0);
        let mut lp = tape.leaf(0.0);
        // weak anchor N(0,1) on logits keeps the overparameterization proper
        for &l in logits {
            let a = tape.normal_lpdf(l, zero, 1.0);
            lp = tape.add(lp, a);
        }
        // Dirichlet(α) prior on the weights: Σ (α−1)·logπ_c
        for &l in logits {
            let logpi = tape.sub(l, lse);
            let term = tape.mul_c(logpi, self.alpha - 1.0);
            lp = tape.add(lp, term);
        }
        // priors on the means
        for &m in mus {
            let pm = tape.normal_lpdf(m, zero, self.prior_var);
            lp = tape.add(lp, pm);
        }
        // marginalized likelihood
        for row in &self.data {
            let mut comps = Vec::with_capacity(k);
            for c in 0..k {
                let logpi = tape.sub(logits[c], lse);
                let mut comp = logpi;
                for (j, &yj) in row.iter().enumerate() {
                    let yv = tape.leaf(yj);
                    let term = tape.normal_lpdf(yv, mus[c * d + j], self.like_var);
                    comp = tape.add(comp, term);
                }
                comps.push(comp);
            }
            let mix = tape.log_sum_exp(&comps);
            lp = tape.add(lp, mix);
        }
        lp
    }

    fn init(&self) -> Vec<f64> {
        // spread initial means over the data range
        let d = self.d();
        let mut q = vec![0.0; self.dim()];
        for c in 0..self.k {
            if let Some(row) = self.data.get(c * self.data.len() / self.k.max(1)) {
                for j in 0..d {
                    q[self.k + c * d + j] = row[j];
                }
            }
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numeric_grad(model: &dyn StanModel, q: &[f64]) -> Vec<f64> {
        let f = |qq: &[f64]| {
            let mut tape = Tape::new();
            let vs: Vec<V> = qq.iter().map(|&v| tape.leaf(v)).collect();
            let lp = model.log_prob(&mut tape, &vs);
            tape.val(lp)
        };
        let h = 1e-6;
        (0..q.len())
            .map(|i| {
                let mut qp = q.to_vec();
                qp[i] += h;
                let mut qm = q.to_vec();
                qm[i] -= h;
                (f(&qp) - f(&qm)) / (2.0 * h)
            })
            .collect()
    }

    fn tape_grad(model: &dyn StanModel, q: &[f64]) -> Vec<f64> {
        let mut tape = Tape::new();
        let vs: Vec<V> = q.iter().map(|&v| tape.leaf(v)).collect();
        let lp = model.log_prob(&mut tape, &vs);
        tape.grad(lp, &vs)
    }

    #[test]
    fn normal_mean_gradients_match_numeric() {
        let m = NormalMean { prior_var: 4.0, like_var: 1.0, data: vec![1.0, 0.5, 1.5] };
        let q = [0.3];
        let (g, n) = (tape_grad(&m, &q), numeric_grad(&m, &q));
        assert!((g[0] - n[0]).abs() < 1e-5);
    }

    #[test]
    fn hlr_gradients_match_numeric() {
        let m = HlrModel {
            x: vec![vec![1.0, -0.5], vec![0.3, 0.8], vec![-1.0, 0.2]],
            y: vec![1, 0, 1],
            lambda: 1.0,
        };
        let q = [0.2, -0.1, 0.4, -0.3];
        let (g, n) = (tape_grad(&m, &q), numeric_grad(&m, &q));
        for i in 0..q.len() {
            assert!((g[i] - n[i]).abs() < 1e-5, "dim {i}: {} vs {}", g[i], n[i]);
        }
    }

    #[test]
    fn marginal_gmm_gradients_match_numeric() {
        let m = MarginalGmm {
            data: vec![vec![-2.0, -2.1], vec![2.0, 2.1], vec![-1.9, -2.0]],
            k: 2,
            prior_var: 10.0,
            like_var: 1.0,
            alpha: 1.0,
        };
        let q = [0.1, -0.2, -1.0, -1.0, 1.0, 1.0];
        let (g, n) = (tape_grad(&m, &q), numeric_grad(&m, &q));
        for i in 0..q.len() {
            assert!((g[i] - n[i]).abs() < 1e-4, "dim {i}: {} vs {}", g[i], n[i]);
        }
    }

    #[test]
    fn unpack_produces_simplex() {
        let m =
            MarginalGmm { data: vec![vec![0.0]], k: 3, prior_var: 1.0, like_var: 1.0, alpha: 1.0 };
        let (pis, mus) = m.unpack(&[0.5, -0.5, 0.0, 1.0, 2.0, 3.0]);
        assert!((pis.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(mus.len(), 3);
        assert_eq!(mus[2], vec![3.0]);
    }
}
