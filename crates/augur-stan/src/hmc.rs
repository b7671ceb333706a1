//! HMC/NUTS driver with dual-averaging step-size adaptation — the
//! inference engine of the Stan baseline. Every gradient re-records the
//! tape, which is the instrumentation overhead the paper contrasts with
//! AugurV2's generated gradient code.

use augur_dist::Prng;

use crate::models::StanModel;
use crate::tape::{Tape, V};

/// Sampling options.
#[derive(Debug, Clone)]
pub struct SampleOpts {
    /// Warmup (adaptation) iterations, discarded.
    pub warmup: usize,
    /// Retained samples.
    pub samples: usize,
    /// RNG seed.
    pub seed: u64,
    /// Initial step size (adapted during warmup).
    pub step_size: f64,
    /// Leapfrog steps (ignored when `nuts` is set).
    pub leapfrog: usize,
    /// Use the No-U-Turn sampler.
    pub nuts: bool,
    /// Dual-averaging target acceptance.
    pub target_accept: f64,
}

impl Default for SampleOpts {
    fn default() -> Self {
        SampleOpts {
            warmup: 100,
            samples: 100,
            seed: 1,
            step_size: 0.1,
            leapfrog: 16,
            nuts: false,
            target_accept: 0.8,
        }
    }
}

/// Sampler output.
#[derive(Debug, Clone)]
pub struct SampleOutput {
    /// One unconstrained draw per retained sample.
    pub draws: Vec<Vec<f64>>,
    /// Mean acceptance probability over retained samples.
    pub accept_rate: f64,
    /// The adapted step size.
    pub adapted_step: f64,
    /// Gradient evaluations performed (tape recordings).
    pub grad_evals: u64,
}

struct Evaluator<'m> {
    model: &'m dyn StanModel,
    grad_evals: u64,
}

impl Evaluator<'_> {
    fn lp(&mut self, q: &[f64]) -> f64 {
        let mut tape = Tape::new();
        let vs: Vec<V> = q.iter().map(|&v| tape.leaf(v)).collect();
        let lp = self.model.log_prob(&mut tape, &vs);
        tape.val(lp)
    }

    fn lp_grad(&mut self, q: &[f64]) -> (f64, Vec<f64>) {
        self.grad_evals += 1;
        let mut tape = Tape::new();
        let vs: Vec<V> = q.iter().map(|&v| tape.leaf(v)).collect();
        let lp = self.model.log_prob(&mut tape, &vs);
        (tape.val(lp), tape.grad(lp, &vs))
    }
}

/// Draws posterior samples with HMC (or NUTS) after a dual-averaging
/// warmup, mirroring Stan's defaults in miniature.
pub fn sample(model: &dyn StanModel, opts: SampleOpts) -> SampleOutput {
    let mut rng = Prng::seed_from_u64(opts.seed);
    let mut ev = Evaluator { model, grad_evals: 0 };
    let mut q = model.init();
    let dim = q.len();

    // dual averaging state (Hoffman & Gelman 2014, §3.2)
    let mut eps = opts.step_size;
    let mu = (10.0 * eps).ln();
    let mut h_bar = 0.0;
    let mut log_eps_bar = eps.ln();
    let (gamma, t0, kappa) = (0.05, 10.0, 0.75);

    let mut draws = Vec::with_capacity(opts.samples);
    let mut accept_acc = 0.0;

    for iter in 0..(opts.warmup + opts.samples) {
        let adapting = iter < opts.warmup;
        let alpha = if opts.nuts {
            nuts_iter(&mut ev, &mut rng, &mut q, eps, 8)
        } else {
            hmc_iter(&mut ev, &mut rng, &mut q, eps, opts.leapfrog, dim)
        };
        if adapting {
            let m = (iter + 1) as f64;
            h_bar = (1.0 - 1.0 / (m + t0)) * h_bar + (opts.target_accept - alpha) / (m + t0);
            let log_eps = mu - m.sqrt() / gamma * h_bar;
            let w = m.powf(-kappa);
            log_eps_bar = w * log_eps + (1.0 - w) * log_eps_bar;
            eps = log_eps.exp();
        } else {
            eps = log_eps_bar.exp();
            accept_acc += alpha;
            draws.push(q.clone());
        }
    }
    SampleOutput {
        draws,
        accept_rate: accept_acc / opts.samples.max(1) as f64,
        adapted_step: log_eps_bar.exp(),
        grad_evals: ev.grad_evals,
    }
}

/// One HMC iteration; returns the acceptance probability.
fn hmc_iter(
    ev: &mut Evaluator,
    rng: &mut Prng,
    q: &mut Vec<f64>,
    eps: f64,
    leapfrog: usize,
    dim: usize,
) -> f64 {
    let p0: Vec<f64> = (0..dim).map(|_| rng.std_normal()).collect();
    let (lp0, mut g) = ev.lp_grad(q);
    let h0 = lp0 - 0.5 * p0.iter().map(|x| x * x).sum::<f64>();
    let mut qn = q.clone();
    let mut p = p0;
    let mut lp = lp0;
    for _ in 0..leapfrog {
        for (pi, gi) in p.iter_mut().zip(&g) {
            *pi += 0.5 * eps * gi;
        }
        for (qi, pi) in qn.iter_mut().zip(&p) {
            *qi += eps * pi;
        }
        let (lp1, g1) = ev.lp_grad(&qn);
        lp = lp1;
        g = g1;
        for (pi, gi) in p.iter_mut().zip(&g) {
            *pi += 0.5 * eps * gi;
        }
        if !lp.is_finite() {
            break;
        }
    }
    let h1 = if lp.is_finite() {
        lp - 0.5 * p.iter().map(|x| x * x).sum::<f64>()
    } else {
        f64::NEG_INFINITY
    };
    let alpha = (h1 - h0).exp().min(1.0);
    if rng.uniform() < alpha {
        *q = qn;
    }
    if alpha.is_nan() {
        0.0
    } else {
        alpha
    }
}

/// One (simplified) NUTS iteration; returns a pseudo acceptance statistic
/// for dual averaging.
fn nuts_iter(
    ev: &mut Evaluator,
    rng: &mut Prng,
    q: &mut Vec<f64>,
    eps: f64,
    max_depth: usize,
) -> f64 {
    let dim = q.len();
    let p0: Vec<f64> = (0..dim).map(|_| rng.std_normal()).collect();
    let lp0 = ev.lp(q);
    let h0 = lp0 - 0.5 * p0.iter().map(|x| x * x).sum::<f64>();
    let log_u = h0 + rng.uniform().max(1e-300).ln();

    let mut q_minus = q.clone();
    let mut p_minus = p0.clone();
    let mut q_plus = q.clone();
    let mut p_plus = p0;
    let mut n: f64 = 1.0;
    let mut alpha_acc = 0.0;
    let mut alpha_n = 0.0;

    for depth in 0..max_depth {
        let dir: f64 = if rng.uniform() < 0.5 { -1.0 } else { 1.0 };
        // take 2^depth leapfrog steps in the chosen direction
        let (mut qc, mut pc) = if dir < 0.0 {
            (q_minus.clone(), p_minus.clone())
        } else {
            (q_plus.clone(), p_plus.clone())
        };
        let steps = 1usize << depth;
        let mut n_new: f64 = 0.0;
        let mut ok = true;
        for _ in 0..steps {
            let (_, g) = ev.lp_grad(&qc);
            for (pi, gi) in pc.iter_mut().zip(&g) {
                *pi += 0.5 * dir * eps * gi;
            }
            for (qi, pi) in qc.iter_mut().zip(&pc) {
                *qi += dir * eps * pi;
            }
            let (lp, g1) = ev.lp_grad(&qc);
            for (pi, gi) in pc.iter_mut().zip(&g1) {
                *pi += 0.5 * dir * eps * gi;
            }
            let h = if lp.is_finite() {
                lp - 0.5 * pc.iter().map(|x| x * x).sum::<f64>()
            } else {
                f64::NEG_INFINITY
            };
            alpha_acc += (h - h0).exp().min(1.0);
            alpha_n += 1.0;
            if log_u <= h {
                n_new += 1.0;
                if rng.uniform() < 1.0 / n_new.max(1.0) {
                    *q = qc.clone();
                }
            }
            if log_u > h + 1000.0 {
                ok = false;
                break;
            }
        }
        if dir < 0.0 {
            q_minus = qc;
            p_minus = pc;
        } else {
            q_plus = qc;
            p_plus = pc;
        }
        n += n_new;
        let _ = n;
        // u-turn check
        let mut dm = 0.0;
        let mut dp = 0.0;
        for i in 0..dim {
            let dq = q_plus[i] - q_minus[i];
            dm += dq * p_minus[i];
            dp += dq * p_plus[i];
        }
        if !ok || dm < 0.0 || dp < 0.0 {
            break;
        }
    }
    if alpha_n > 0.0 {
        alpha_acc / alpha_n
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::NormalMean;
    use augur_math::vecops::{mean, variance};

    #[test]
    fn hmc_recovers_conjugate_posterior() {
        let data = vec![1.2, 0.8, 1.0, 1.4, 0.6];
        let sum: f64 = data.iter().sum();
        let (post_mu, post_var) =
            augur_dist::conjugacy::normal_normal_mean(0.0, 4.0, 1.0, sum, 5.0);
        let model = NormalMean { prior_var: 4.0, like_var: 1.0, data };
        let out = sample(
            &model,
            SampleOpts { warmup: 300, samples: 4000, seed: 5, ..Default::default() },
        );
        let xs: Vec<f64> = out.draws.iter().map(|d| d[0]).collect();
        assert!((mean(&xs) - post_mu).abs() < 0.05, "mean {}", mean(&xs));
        assert!((variance(&xs) - post_var).abs() < 0.06, "var {}", variance(&xs));
        assert!(out.accept_rate > 0.6);
    }

    #[test]
    fn nuts_recovers_conjugate_posterior() {
        let data = vec![1.2, 0.8, 1.0, 1.4, 0.6];
        let sum: f64 = data.iter().sum();
        let (post_mu, _) = augur_dist::conjugacy::normal_normal_mean(0.0, 4.0, 1.0, sum, 5.0);
        let model = NormalMean { prior_var: 4.0, like_var: 1.0, data };
        let out = sample(
            &model,
            SampleOpts { warmup: 300, samples: 4000, seed: 6, nuts: true, ..Default::default() },
        );
        let xs: Vec<f64> = out.draws.iter().map(|d| d[0]).collect();
        assert!((mean(&xs) - post_mu).abs() < 0.08, "mean {}", mean(&xs));
    }

    #[test]
    fn dual_averaging_moves_step_size() {
        let model = NormalMean { prior_var: 1.0, like_var: 1.0, data: vec![0.0; 20] };
        let out = sample(
            &model,
            SampleOpts { warmup: 200, samples: 100, seed: 7, step_size: 1.5, ..Default::default() },
        );
        assert!(out.adapted_step > 0.0 && out.adapted_step.is_finite());
        assert!(out.grad_evals > 0);
    }
}
