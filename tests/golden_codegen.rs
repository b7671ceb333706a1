//! Golden tests for the generated code on the benchmark models: lock the
//! *structure* of every compiled update so rewrite/lowering regressions
//! surface as diffs here. The Low-- pins read `Model::compile_info`; the
//! Cuda pins read `Plan::emit(CodegenTarget::Cuda)` over small data-bound
//! plans — the paper's GPU output after §5.2 memory explication.

use augur::{CodegenTarget, HostValue, Model};
use augur_math::Matrix;
use augurv2::models::hgmm_args;
use augurv2::{models, workloads};

fn code(src: &str, sched: Option<&str>) -> String {
    let model = match sched {
        Some(s) => Model::with_schedule(src, s),
        None => Model::compile(src),
    }
    .unwrap();
    model.compile_info().code
}

#[test]
fn hgmm_gibbs_structure_is_stable() {
    let c = code(models::HGMM, None);
    // π: Dirichlet counts over assignments
    assert!(c.contains("u0_t0_cnt[z[n]] += 1.0;"), "{c}");
    assert!(c.contains("pi = Dirichlet(vec_add(alpha, u0_t0_cnt)).samp;"), "{c}");
    // μ: per-cluster sums under the categorical-indexing rewrite
    assert!(c.contains("u1_t0_sum[z[n]] += y[n];"), "{c}");
    assert!(c.contains("mu[k] = MvNormal("), "{c}");
    // Σ: scatter accumulation and the InvWishart posterior
    assert!(c.contains("u2_t0_scatter[z[n]] += outer_sub(y[n], mu[z[n]]);"), "{c}");
    assert!(
        c.contains(
            "Sigma[k] = InvWishart((nu + u2_t0_cnt[k]), mat_add(Psi, u2_t0_scatter[k])).samp;"
        ),
        "{c}"
    );
    // z: parallel finite-sum enumeration over len(pi) candidates
    assert!(c.contains("loop Seq (u3_c <- 0 until len(pi))"), "{c}");
    assert!(c.contains("z[n] = CategoricalLogits(u3_w).samp;"), "{c}");
    // initializer samples in declaration order
    let init_pos = c.find("init_params() {").expect("init proc");
    assert!(c[init_pos..].contains("pi = Dirichlet(alpha).samp;"));
}

#[test]
fn lda_gibbs_structure_is_stable() {
    let c = code(models::LDA, None);
    // θ: per-document topic counts (factoring rule, no indicator)
    assert!(c.contains("u0_t0_cnt[d][z[d][j]] += 1.0;"), "{c}");
    assert!(c.contains("theta[d] = Dirichlet(vec_add(alpha, u0_t0_cnt[d])).samp;"), "{c}");
    // φ: per-topic word counts (categorical-indexing rewrite)
    assert!(c.contains("u1_t0_cnt[z[d][j]][w[d][j]] += 1.0;"), "{c}");
    assert!(c.contains("phi[k] = Dirichlet(vec_add(beta, u1_t0_cnt[k])).samp;"), "{c}");
    // z: both factors scored per candidate
    assert!(c.contains("u2_w[u2_c] += Categorical(theta[d]).ll(u2_c);"), "{c}");
    assert!(c.contains("u2_w[u2_c] += Categorical(phi[u2_c]).ll(w[d][j]);"), "{c}");
}

#[test]
fn hlr_hmc_structure_is_stable() {
    let c = code(models::HLR, None);
    // stabilized logit-form likelihood in ll and grad
    assert!(c.contains("BernoulliLogit((dot(x[n], theta) + b)).ll(y[n])"), "{c}");
    assert!(c.contains("BernoulliLogit((dot(x[n], theta) + b)).grad2(y[n])"), "{c}");
    // adjoint accumulation: vector chain rule through dot, scalar into b
    assert!(c.contains("u0_adj_theta += vec_scale("), "{c}");
    assert!(c.contains("u0_adj_b += BernoulliLogit"), "{c}");
    // the prior's variance gradient — the §5.4 contention example
    assert!(c.contains("u0_adj_sigma2 += Normal(0.0, sigma2).grad3(theta[j]);"), "{c}");
}

#[test]
fn gmm_eslice_structure_is_stable() {
    let c = code(models::GMM, Some("ESlice mu (*) Gibbs z"));
    // likelihood-only procedure for the slice (prior excluded)
    let lik_start = c.find("u0_lik() {").expect("lik proc");
    let lik_end = c[lik_start..].find("}\n").unwrap() + lik_start;
    let lik = &c[lik_start..lik_end];
    assert!(lik.contains("MvNormal(mu[z[n]], Sigma).ll(x[n])"), "{lik}");
    assert!(!lik.contains("MvNormal(mu_0, Sigma_0)"), "{lik}");
    // prior sampler and prior mean writers
    assert!(c.contains("u0_nu[k] = MvNormal(mu_0, Sigma_0).samp;"), "{c}");
    assert!(c.contains("u0_pm[k] = mu_0;"), "{c}");
}

/// Plans `model` on small data and renders its Cuda unit.
fn cuda(model: &Model, args: Vec<HostValue>, data: Vec<(&str, HostValue)>) -> String {
    model.plan(args, data).unwrap().emit(CodegenTarget::Cuda).unwrap()
}

fn gmm_cuda(sched: Option<&str>) -> String {
    let model = match sched {
        Some(s) => Model::with_schedule(models::GMM, s),
        None => Model::compile(models::GMM),
    }
    .unwrap();
    let data = workloads::hgmm_data(3, 2, 30, 7);
    let args = vec![
        HostValue::Int(3),
        HostValue::Int(30),
        HostValue::VecF(vec![0.0; 2]),
        HostValue::Mat(Matrix::identity(2).scale(10.0)),
        HostValue::VecF(vec![1.0 / 3.0; 3]),
        HostValue::Mat(Matrix::identity(2)),
    ];
    cuda(&model, args, vec![("x", HostValue::Ragged(data.points))])
}

fn hgmm_cuda() -> String {
    let (k, d, n) = (2, 2, 40);
    let data = workloads::hgmm_data(k, d, n, 91);
    let args = hgmm_args(k, d, n);
    cuda(&Model::compile(models::HGMM).unwrap(), args, vec![("y", HostValue::Ragged(data.points))])
}

#[test]
fn cuda_emission_structure_is_stable() {
    let cu = hgmm_cuda();
    // one kernel per top-level parallel loop; canonical prologue
    assert!(cu.matches("__global__ void").count() >= 6, "{cu}");
    assert!(cu.contains("int n = blockIdx.x * blockDim.x + threadIdx.x + 0;"), "{cu}");
    // counting kernels use atomicAdd
    assert!(cu.contains("atomicAdd(&u0_t0_cnt[z[n]], 1.0);"), "{cu}");
    // the sweep is the ⊗-composition in schedule order
    let sweep = cu.find("void mcmc_sweep").unwrap();
    let (p0, p1, p2, p3) = (
        cu[sweep..].find("u0_gibbs").unwrap(),
        cu[sweep..].find("u1_gibbs").unwrap(),
        cu[sweep..].find("u2_gibbs").unwrap(),
        cu[sweep..].find("u3_gibbs").unwrap(),
    );
    assert!(p0 < p1 && p1 < p2 && p2 < p3);
}

#[test]
fn emitted_cuda_uses_explicit_temporaries() {
    let cu = hgmm_cuda();
    // the functional form `MvNormal(mat_vec(mat_inv(...)), ...)` is gone:
    // temporaries are assigned first, then consumed
    assert!(cu.contains("_tmp"), "{cu}");
    assert!(cu.contains("static augur_buf_t u1_gibbs_tmp0;"), "{cu}");
}

#[test]
fn sweep_driver_renders_gibbs_updates() {
    let cu = gmm_cuda(None);
    assert!(cu.contains("#include \"augur_runtime.h\""));
    assert!(cu.contains("void mcmc_sweep(augur_rng *rng)"));
    assert!(cu.contains("u0_gibbs(rng); /* Gibbs: resamples mu"), "{cu}");
    // finite-sum Gibbs draws from log weights
    assert!(cu.contains("augur_categorical_logits_sample"), "{cu}");
}

#[test]
fn cuda_flavor_has_kernels_and_atomics() {
    let cu = gmm_cuda(None);
    assert!(cu.contains("__global__ void"), "{cu}");
    assert!(cu.contains("blockIdx.x * blockDim.x + threadIdx.x"), "{cu}");
    assert!(cu.contains("atomicAdd(&"), "{cu}");
    assert!(cu.contains("<<<"), "kernel launches: {cu}");
}

#[test]
fn hmc_sweep_calls_library_update() {
    let d = 4;
    let data = workloads::logistic_data(60, d, 17);
    let cu = cuda(
        &Model::compile(models::HLR).unwrap(),
        vec![
            HostValue::Real(1.0),
            HostValue::Int(60),
            HostValue::Int(d as i64),
            HostValue::Ragged(data.x),
        ],
        vec![("y", HostValue::VecF(data.y))],
    );
    assert!(cu.contains("augur_hmc_update(rng, u0_ll, u0_grad)"), "{cu}");
    assert!(cu.contains("/* block: sigma2, b, theta */"), "{cu}");
    // the AD-generated gradient calls the paper's grad primitives
    assert!(cu.contains("augur_bernoullilogit_grad2("), "{cu}");
}

#[test]
fn eslice_schedule_renders_library_call() {
    let cu = gmm_cuda(Some("ESlice mu (*) Gibbs z"));
    assert!(cu.contains("augur_eslice_update(rng, u0_lik, u0_prior_sample)"), "{cu}");
}

#[test]
fn buffers_are_declared_up_front() {
    let cu = gmm_cuda(None);
    // sufficient statistics of the conjugate mu update
    assert!(cu.contains("static augur_buf_t u0_t0_cnt;"), "{cu}");
    assert!(cu.contains("static augur_buf_t u0_t0_sum;"), "{cu}");
}
