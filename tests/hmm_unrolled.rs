//! An unrolled Hidden Markov Model — §2.2: "we would need to write a
//! Hidden Markov Model, where each hidden state depends on the previous
//! state, by unfolding the entire model. This is doable…".
//!
//! Three time steps, two hidden states, Gaussian emissions. Each hidden
//! state is its own scalar declaration; transitions index the (ragged)
//! transition matrix by the previous state. The compiled finite-sum Gibbs
//! marginals are validated against exact enumeration over all 2³ paths.

use augur::{HostValue, Model, SessionConfig};
use augur_dist::scalar::normal_log_pdf;
use augur_math::FlatRagged;

/// p(z, y) for a concrete path under the test model.
fn joint_ll(
    z: &[usize; 3],
    y: &[f64; 3],
    pi0: &[f64],
    a: &[[f64; 2]; 2],
    mus: &[f64],
    s2: f64,
) -> f64 {
    let mut ll = pi0[z[0]].ln();
    ll += a[z[0]][z[1]].ln();
    ll += a[z[1]][z[2]].ln();
    for t in 0..3 {
        ll += normal_log_pdf(y[t], mus[z[t]], s2);
    }
    ll
}

#[test]
fn unrolled_hmm_matches_exact_marginals() {
    let src = r#"(pi0, A, mus, s2) => {
        param z0 ~ Categorical(pi0) ;
        param z1 ~ Categorical(A[z0]) ;
        param z2 ~ Categorical(A[z1]) ;
        data y0 ~ Normal(mus[z0], s2) ;
        data y1 ~ Normal(mus[z1], s2) ;
        data y2 ~ Normal(mus[z2], s2) ;
    }"#;

    let pi0 = vec![0.6, 0.4];
    let a = [[0.8, 0.2], [0.3, 0.7]];
    let mus = vec![-1.0, 2.0];
    let s2 = 1.0;
    let y = [-0.8, 1.5, 1.9];

    // exact posterior marginals by enumerating the 8 paths
    let mut path_probs = Vec::new();
    let mut total = f64::NEG_INFINITY;
    for z0 in 0..2usize {
        for z1 in 0..2usize {
            for z2 in 0..2usize {
                let ll = joint_ll(&[z0, z1, z2], &y, &pi0, &a, &mus, s2);
                path_probs.push(([z0, z1, z2], ll));
                total = augur_math::special::log_sum_exp(&[total, ll]);
            }
        }
    }
    let mut exact = [0.0f64; 3]; // P(z_t = 1 | y)
    for (z, ll) in &path_probs {
        let p = (ll - total).exp();
        for t in 0..3 {
            if z[t] == 1 {
                exact[t] += p;
            }
        }
    }

    // compiled Gibbs chain
    let a_ragged = FlatRagged::from_rows(vec![a[0].to_vec(), a[1].to_vec()]);
    let model = Model::compile(src).unwrap();
    assert_eq!(model.kernel(), "Gibbs Single(z0) (*) Gibbs Single(z1) (*) Gibbs Single(z2)");
    let mut s = model
        .plan(
            vec![
                HostValue::VecF(pi0.clone()),
                HostValue::Ragged(a_ragged),
                HostValue::VecF(mus.clone()),
                HostValue::Real(s2),
            ],
            vec![
                ("y0", HostValue::Real(y[0])),
                ("y1", HostValue::Real(y[1])),
                ("y2", HostValue::Real(y[2])),
            ],
        )
        .unwrap()
        .session(SessionConfig::default())
        .unwrap();
    s.init().unwrap();
    let sweeps = 40_000;
    let mut freq = [0.0f64; 3];
    for _ in 0..sweeps {
        s.sweep();
        for (t, name) in ["z0", "z1", "z2"].iter().enumerate() {
            freq[t] += s.param(name).unwrap()[0] / sweeps as f64;
        }
    }
    for t in 0..3 {
        assert!(
            (freq[t] - exact[t]).abs() < 0.02,
            "P(z{t}=1|y): chain {:.3} vs exact {:.3}",
            freq[t],
            exact[t]
        );
    }
}

/// The conditional of the *middle* state must include both the transition
/// into it and the transition out of it (z1 appears in z2's prior's
/// arguments) — a structural check that the dependence filter catches
/// argument-position occurrences across declarations.
#[test]
fn middle_state_conditional_sees_both_transitions() {
    let src = r#"(pi0, A, mus, s2) => {
        param z0 ~ Categorical(pi0) ;
        param z1 ~ Categorical(A[z0]) ;
        param z2 ~ Categorical(A[z1]) ;
        data y1 ~ Normal(mus[z1], s2) ;
    }"#;
    let model = Model::compile(src).unwrap();
    let dm = model.density_model();
    let cond = augur_density::conditional(dm, &["z1"]);
    // factors: z1's prior, z2's prior (transition out), y1's emission
    assert_eq!(cond.factors.len(), 3);
    let sources: Vec<usize> = cond.factors.iter().map(|f| f.source).collect();
    assert_eq!(sources, vec![1, 2, 3]);
}
