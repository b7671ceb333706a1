//! Integration tests: the full compiler pipeline on the paper's benchmark
//! models, across schedules and targets.
#![allow(clippy::needless_range_loop)]

use augur::{DeviceConfig, HostValue, McmcConfig, Model, SessionConfig, Target};
use augur_math::vecops::mean;
use augur_math::Matrix;
use augurv2::models::{hgmm_args, lda_args};
use augurv2::{models, workloads};

#[test]
fn hgmm_heuristic_recovers_clusters_and_weights() {
    let (k, d, n) = (3, 2, 450);
    let data = workloads::hgmm_data(k, d, n, 32);
    let model = Model::compile(models::HGMM).unwrap();
    assert_eq!(
        model.kernel(),
        "Gibbs Single(pi) (*) Gibbs Single(mu) (*) Gibbs Single(Sigma) (*) Gibbs Single(z)"
    );
    let mut s = model
        .plan(hgmm_args(k, d, n), vec![("y", HostValue::Ragged(data.points.clone()))])
        .unwrap()
        .session(SessionConfig::default())
        .unwrap();
    s.init().unwrap();
    for _ in 0..120 {
        s.sweep();
    }
    // each true mean is matched by some posterior component
    let mu = s.param("mu").unwrap().to_vec();
    for tm in &data.true_means {
        let best = (0..k)
            .map(|c| {
                let est = &mu[c * d..(c + 1) * d];
                est.iter().zip(tm).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt()
            })
            .fold(f64::INFINITY, f64::min);
        assert!(best < 1.0, "no component near {tm:?} (best distance {best})");
    }
    // mixture weights near uniform (data generated uniformly)
    let pi = s.param("pi").unwrap();
    for &p in pi {
        assert!((p - 1.0 / k as f64).abs() < 0.15, "weight {p}");
    }
    // assignments mostly agree with the truth up to relabeling
    let z = s.param("z").unwrap();
    let mut label_map = vec![0usize; k];
    for c in 0..k {
        // map true component c to the nearest posterior component
        let tm = &data.true_means[c];
        label_map[c] = (0..k)
            .min_by(|&a, &b| {
                let da: f64 = mu[a * d..(a + 1) * d].iter().zip(tm).map(|(x, y)| (x - y).powi(2)).sum();
                let db: f64 = mu[b * d..(b + 1) * d].iter().zip(tm).map(|(x, y)| (x - y).powi(2)).sum();
                da.total_cmp(&db)
            })
            .expect("k > 0");
    }
    let agree = (0..n)
        .filter(|&i| z[i] as usize == label_map[data.true_z[i]])
        .count();
    assert!(agree * 10 > n * 9, "only {agree}/{n} assignments agree");
}

#[test]
fn fig10_three_schedules_converge_to_similar_log_joint() {
    let (k, d, n) = (3, 2, 300);
    let data = workloads::hgmm_data(k, d, n, 33);
    let mut finals = Vec::new();
    for sched in [
        "Gibbs pi (*) Gibbs mu (*) Gibbs Sigma (*) Gibbs z",
        "Gibbs pi (*) ESlice mu (*) Gibbs Sigma (*) Gibbs z",
        "Gibbs pi (*) HMC mu (*) Gibbs Sigma (*) Gibbs z",
    ] {
        let model = Model::with_schedule(models::HGMM, sched).unwrap();
        let mut s = model
            .plan(hgmm_args(k, d, n), vec![("y", HostValue::Ragged(data.points.clone()))])
            .unwrap()
            .session(SessionConfig {
                mcmc: McmcConfig { step_size: 0.05, leapfrog_steps: 12, ..Default::default() },
                ..Default::default()
            })
            .unwrap();
        s.init().unwrap();
        for _ in 0..1000 {
            s.sweep();
        }
        finals.push(s.log_joint());
    }
    // all three composable samplers land in the same ballpark (Fig. 10:
    // "every system converges to roughly the same log-predictive
    // probability")
    let best = finals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    for (i, &f) in finals.iter().enumerate() {
        assert!(
            f > best - 0.25 * best.abs(),
            "schedule {i} at {f} vs best {best} ({finals:?})"
        );
    }
}

#[test]
fn lda_gibbs_beats_random_assignments_on_log_joint() {
    let topics = 3;
    let corpus = workloads::lda_corpus(topics, 30, 60, 25, 41);
    let model = Model::compile(models::LDA).unwrap();
    let args = lda_args(topics, &corpus);
    let mut s = model
        .plan(args, vec![("w", HostValue::RaggedI(corpus.docs.clone()))])
        .unwrap()
        .session(SessionConfig::default())
        .unwrap();
    s.init().unwrap();
    let initial = s.log_joint();
    for _ in 0..60 {
        s.sweep();
    }
    let trained = s.log_joint();
    assert!(
        trained > initial + 50.0,
        "no improvement: {initial} -> {trained}"
    );
    // theta rows remain simplex vectors
    let theta = s.param("theta").unwrap();
    for dch in theta.chunks(topics) {
        let sum: f64 = dch.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(dch.iter().all(|&p| p >= 0.0));
    }
}

#[test]
fn gpu_target_matches_cpu_bitwise_on_lda() {
    let topics = 3;
    let corpus = workloads::lda_corpus(topics, 12, 40, 15, 43);
    let args = lda_args(topics, &corpus);
    // one shared plan: the target is a session concern, and the second
    // session must not trigger a recompile.
    let model = Model::compile(models::LDA).unwrap();
    let plan = model
        .plan(args, vec![("w", HostValue::RaggedI(corpus.docs.clone()))])
        .unwrap();
    let build = |target: Target| {
        let mut s = plan.session(SessionConfig { target, ..Default::default() }).unwrap();
        s.init().unwrap();
        for _ in 0..10 {
            s.sweep();
        }
        s
    };
    let cpu = build(Target::Cpu);
    let gpu = build(Target::Gpu(DeviceConfig::titan_black_like()));
    assert_eq!(model.cache_stats().misses, 1, "sessions must share one specialization");
    let (ct, gt) = (cpu.param("theta").unwrap(), gpu.param("theta").unwrap());
    assert_eq!(ct.len(), gt.len());
    for (a, b) in ct.iter().zip(gt) {
        assert_eq!(a.to_bits(), b.to_bits(), "CPU/GPU divergence");
    }
    // and the optimizer actually did something on the GPU build
    let report = gpu.opt_report();
    assert!(report.converted_to_sum > 0 || report.commuted > 0 || report.inlined > 0);
}

#[test]
fn augur_and_jags_agree_on_hgmm_posterior_means() {
    // The Fig. 11 comparison runs "the same high-level inference
    // algorithm" on both systems; their posteriors must agree.
    let (k, d, n) = (2, 2, 200);
    let data = workloads::hgmm_data(k, d, n, 51);
    let model = Model::compile(models::HGMM).unwrap();
    let mut s = model
        .plan(hgmm_args(k, d, n), vec![("y", HostValue::Ragged(data.points.clone()))])
        .unwrap()
        .session(SessionConfig::default())
        .unwrap();
    s.init().unwrap();
    for _ in 0..80 {
        s.sweep();
    }

    let mut j = augur_jags::JagsModel::build(
        models::HGMM,
        hgmm_args(k, d, n),
        vec![("y", HostValue::Ragged(data.points.clone()))],
        52,
    )
    .unwrap();
    j.init();
    for _ in 0..80 {
        j.sweep();
    }

    // compare the *sets* of cluster means (label switching allowed)
    let mu_a = s.param("mu").unwrap().to_vec();
    let mu_j = j.values("mu");
    for c in 0..k {
        let ma = &mu_a[c * d..(c + 1) * d];
        let best = (0..k)
            .map(|cj| {
                mu_j[cj * d..(cj + 1) * d]
                    .iter()
                    .zip(ma)
                    .map(|(x, y)| (x - y) * (x - y))
                    .sum::<f64>()
                    .sqrt()
            })
            .fold(f64::INFINITY, f64::min);
        assert!(best < 0.5, "augur component {c} has no jags counterpart ({best})");
    }
}

#[test]
fn stan_baseline_agrees_on_mixture_means() {
    let (k, d, n) = (2, 2, 150);
    let data = workloads::hgmm_data(k, d, n, 61);
    let rows: Vec<Vec<f64>> = (0..n).map(|i| data.points.row(i).to_vec()).collect();
    let stan = augur_stan::MarginalGmm {
        data: rows,
        k,
        prior_var: 50.0,
        like_var: 1.0,
        alpha: 1.0,
    };
    let out = augur_stan::sample(
        &stan,
        augur_stan::SampleOpts { warmup: 150, samples: 150, seed: 62, ..Default::default() },
    );
    let last = out.draws.last().unwrap();
    let (_, mus) = stan.unpack(last);
    for tm in &data.true_means {
        let best = mus
            .iter()
            .map(|m| {
                m.iter().zip(tm).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt()
            })
            .fold(f64::INFINITY, f64::min);
        assert!(best < 1.2, "stan found no component near {tm:?} (best {best})");
    }
}

#[test]
fn log_predictive_improves_with_training() {
    let (k, d, n) = (3, 2, 300);
    let train = workloads::hgmm_data(k, d, n, 71);
    let test = workloads::hgmm_data(k, d, 100, 72);
    let model = Model::compile(models::HGMM).unwrap();
    let mut s = model
        .plan(hgmm_args(k, d, n), vec![("y", HostValue::Ragged(train.points.clone()))])
        .unwrap()
        .session(SessionConfig::default())
        .unwrap();
    s.init().unwrap();
    let lp_of = |s: &augur::Session| {
        let pi = s.param("pi").unwrap().to_vec();
        let mu = s.param("mu").unwrap().to_vec();
        let sig = s.param("Sigma").unwrap().to_vec();
        let mus: Vec<Vec<f64>> = (0..k).map(|c| mu[c * d..(c + 1) * d].to_vec()).collect();
        let sigs: Vec<Matrix> = (0..k)
            .map(|c| Matrix::from_vec(d, d, sig[c * d * d..(c + 1) * d * d].to_vec()).unwrap())
            .collect();
        workloads::gmm_log_predictive(&test.points, &pi, &mus, &sigs)
    };
    let before = lp_of(&s);
    for _ in 0..100 {
        s.sweep();
    }
    let after = lp_of(&s);
    assert!(after > before + 10.0, "log-predictive {before} -> {after}");
}

#[test]
fn acceptance_rates_are_tracked_per_step() {
    let data = workloads::logistic_data(100, 4, 81);
    let model = Model::compile(models::HLR).unwrap();
    let mut s = model
        .plan(
            vec![
                HostValue::Real(1.0),
                HostValue::Int(100),
                HostValue::Int(4),
                HostValue::Ragged(data.x.clone()),
            ],
            vec![("y", HostValue::VecF(data.y.clone()))],
        )
        .unwrap()
        .session(SessionConfig {
            mcmc: McmcConfig { step_size: 0.05, leapfrog_steps: 10, ..Default::default() },
            ..Default::default()
        })
        .unwrap();
    s.init().unwrap();
    for _ in 0..50 {
        s.sweep();
    }
    let rate = s.acceptance_rate(0);
    assert!(rate > 0.3 && rate <= 1.0, "HMC acceptance {rate}");
}

#[test]
fn sample_records_requested_parameters() {
    let data = workloads::hgmm_data(2, 2, 60, 91);
    let model = Model::compile(models::HGMM).unwrap();
    let mut s = model
        .plan(hgmm_args(2, 2, 60), vec![("y", HostValue::Ragged(data.points.clone()))])
        .unwrap()
        .session(SessionConfig::default())
        .unwrap();
    s.init().unwrap();
    let samples = s.sample(5, &["pi", "mu"]).unwrap();
    assert_eq!(samples.len(), 5);
    for snap in &samples {
        assert_eq!(snap["pi"].len(), 2);
        assert_eq!(snap["mu"].len(), 4);
        assert!(!snap.contains_key("z"));
        assert!((snap["pi"].iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
    // chains actually move
    let firsts: Vec<f64> = samples.iter().map(|m| m["mu"][0]).collect();
    assert!(mean(&firsts).is_finite());
}
