//! Geweke (2004) joint-distribution tests for the compiled samplers.
//!
//! Two simulators for the joint `p(θ, y)`:
//!
//! * **marginal-conditional** — θ ~ p(θ), y ~ p(y | θ): exact i.i.d.
//!   draws from the joint;
//! * **successive-conditional** — alternate the *compiled* transition
//!   θ ← K(θ | y) with fresh data y ~ p(y | θ).
//!
//! If the compiled kernel leaves the posterior invariant, both streams
//! have the same distribution; any bug in the conditional analysis, the
//! Gibbs codegen, or the acceptance logic shows up as a moment mismatch.

use augur::{CompiledModel, HostValue, OptFlags, Session, SessionConfig};
use augur_dist::Prng;
use augur_math::vecops::{mean, variance};

/// Builds the sampler and runs the successive-conditional simulator,
/// returning the θ-statistic stream. `regen` draws fresh data given the
/// current parameters, writing into the data buffer.
#[allow(clippy::too_many_arguments)]
fn successive_conditional(
    src: &str,
    sched: Option<&str>,
    args: Vec<HostValue>,
    data_var: &str,
    initial_data: HostValue,
    iters: usize,
    stat: impl Fn(&Session) -> f64,
    regen: impl Fn(&mut Session, &mut Prng),
) -> Vec<f64> {
    let mut s = CompiledModel::compile(src, sched)
        .unwrap()
        .plan_opt(args, vec![(data_var, initial_data)], OptFlags::default())
        .unwrap()
        .session(SessionConfig { seed: 42, ..Default::default() })
        .unwrap();
    let mut rng = Prng::seed_from_u64(43);
    s.init().unwrap();
    let mut out = Vec::with_capacity(iters);
    for _ in 0..iters {
        s.sweep(); // θ ← K(θ | y)
        regen(&mut s, &mut rng); // y ~ p(y | θ)
        out.push(stat(&s));
    }
    out
}

/// Two-sample z-test on means; fails loudly when the streams disagree.
fn assert_same_mean(a: &[f64], b: &[f64], label: &str) {
    let (ma, mb) = (mean(a), mean(b));
    // crude ESS discount for autocorrelation of the chain stream
    let ess_a = a.len() as f64 / 10.0;
    let se = (variance(a) / ess_a + variance(b) / b.len() as f64).sqrt();
    let z = (ma - mb) / se;
    assert!(
        z.abs() < 4.0,
        "{label}: marginal-conditional mean {mb:.4} vs successive-conditional {ma:.4} (z = {z:.2})"
    );
}

/// [`assert_same_mean`] on the streams and on their squares.
fn assert_same_moments(a: &[f64], b: &[f64], label: &str) {
    assert_same_mean(a, b, &format!("{label} (mean)"));
    let a2: Vec<f64> = a.iter().map(|x| x * x).collect();
    let b2: Vec<f64> = b.iter().map(|x| x * x).collect();
    assert_same_mean(&a2, &b2, &format!("{label} (second moment)"));
}

#[test]
fn geweke_beta_bernoulli_gibbs() {
    let n = 6;
    let src = "(N) => {
        param p ~ Beta(2.0, 3.0) ;
        data y[n] ~ Bernoulli(p) for n <- 0 until N ;
    }";

    // marginal-conditional: p ~ Beta(2,3) directly
    let mut rng = Prng::seed_from_u64(1);
    let mc: Vec<f64> = (0..20_000).map(|_| rng.beta(2.0, 3.0)).collect();

    let sc = successive_conditional(
        src,
        None,
        vec![HostValue::Int(n as i64)],
        "y",
        HostValue::VecF(vec![0.0; n]),
        20_000,
        |s| s.param("p").unwrap()[0],
        |s, rng| {
            let p = s.param("p").unwrap()[0];
            let fresh: Vec<f64> = (0..n).map(|_| f64::from(rng.bernoulli(p))).collect();
            let engine = s.engine_mut();
            let id = engine.state.expect_id("y");
            engine.state.flat_mut(id).copy_from_slice(&fresh);
        },
    );

    assert_same_moments(&sc, &mc, "beta-bernoulli p");
}

/// The successive-conditional stream of `sched` on the Normal–Normal
/// joint (4 points, prior N(0.5, 2), noise variance 1), and an i.i.d.
/// prior stream drawn from `mc_seed`.
fn normal_normal_streams(sched: Option<&str>, mc_seed: u64) -> (Vec<f64>, Vec<f64>) {
    let n = 4;
    let (tau2, s2) = (2.0, 1.0);
    let src = "(N, tau2, s2) => {
        param m ~ Normal(0.5, tau2) ;
        data y[n] ~ Normal(m, s2) for n <- 0 until N ;
    }";

    let mut rng = Prng::seed_from_u64(mc_seed);
    let mc: Vec<f64> = (0..20_000).map(|_| rng.normal(0.5, tau2)).collect();

    let sc = successive_conditional(
        src,
        sched,
        vec![HostValue::Int(n as i64), HostValue::Real(tau2), HostValue::Real(s2)],
        "y",
        HostValue::VecF(vec![0.0; n]),
        20_000,
        |s| s.param("m").unwrap()[0],
        |s, rng| {
            let m = s.param("m").unwrap()[0];
            let fresh: Vec<f64> = (0..n).map(|_| rng.normal(m, s2)).collect();
            let engine = s.engine_mut();
            let id = engine.state.expect_id("y");
            engine.state.flat_mut(id).copy_from_slice(&fresh);
        },
    );
    (sc, mc)
}

#[test]
fn geweke_normal_normal_gibbs() {
    let (sc, mc) = normal_normal_streams(None, 2);
    assert_same_moments(&sc, &mc, "normal-normal m");
}

#[test]
fn geweke_normal_normal_hmc() {
    // the same joint, but with the gradient-based kernel: catches errors
    // in AD, the leapfrog integrator, or the acceptance ratio
    let (sc, mc) = normal_normal_streams(Some("HMC m"), 3);
    assert_same_moments(&sc, &mc, "normal-normal m via HMC");
}

#[test]
fn geweke_normal_normal_nuts() {
    // the doubling tree, its U-turn and divergence checks, and the
    // gradients its edges carry
    let (sc, mc) = normal_normal_streams(Some("NUTS m"), 5);
    assert_same_moments(&sc, &mc, "normal-normal m via NUTS");
}

#[test]
fn geweke_normal_normal_reflective_slice() {
    let (sc, mc) = normal_normal_streams(Some("Slice m"), 6);
    assert_same_moments(&sc, &mc, "normal-normal m via reflective slice");
}

#[test]
fn geweke_normal_normal_eslice() {
    let (sc, mc) = normal_normal_streams(Some("ESlice m"), 7);
    assert_same_moments(&sc, &mc, "normal-normal m via elliptical slice");
}

/// The successive-conditional stream of `sched` on the Gamma–Poisson
/// joint (5 counts, prior Gamma(3, 2)), and an i.i.d. prior stream drawn
/// from `mc_seed`.
fn gamma_poisson_streams(sched: Option<&str>, mc_seed: u64) -> (Vec<f64>, Vec<f64>) {
    let n = 5;
    let src = "(N, a, b) => {
        param r ~ Gamma(3.0, 2.0) ;
        data c[n] ~ Poisson(r) for n <- 0 until N ;
    }";

    let mut rng = Prng::seed_from_u64(mc_seed);
    let mc: Vec<f64> = (0..20_000).map(|_| rng.gamma(3.0, 2.0)).collect();

    let sc = successive_conditional(
        src,
        sched,
        vec![HostValue::Int(n as i64), HostValue::Real(3.0), HostValue::Real(2.0)],
        "c",
        HostValue::VecF(vec![1.0; n]),
        20_000,
        |s| s.param("r").unwrap()[0],
        |s, rng| {
            let r = s.param("r").unwrap()[0];
            let fresh: Vec<f64> = (0..n).map(|_| rng.poisson(r) as f64).collect();
            let engine = s.engine_mut();
            let id = engine.state.expect_id("c");
            engine.state.flat_mut(id).copy_from_slice(&fresh);
        },
    );
    (sc, mc)
}

#[test]
fn geweke_gamma_poisson_finite_data() {
    let (sc, mc) = gamma_poisson_streams(None, 4);
    assert_same_mean(&sc, &mc, "gamma-poisson r (mean)");
}

#[test]
fn geweke_gamma_poisson_hmc() {
    // r > 0: HMC moves in log space, so the log transform's Jacobian and
    // its chain-rule gradient are under test
    let (sc, mc) = gamma_poisson_streams(Some("HMC r"), 8);
    assert_same_moments(&sc, &mc, "gamma-poisson r via HMC");
}
