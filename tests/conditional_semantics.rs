//! Semantic validation of the §3.3 conditional computation: for any two
//! values `v`, `v'` of a target slice,
//!
//! ```text
//! log p(x[v]) − log p(x[v']) = log cond(v) − log cond(v')
//! ```
//!
//! — the factors dropped by the conditional have no functional dependence
//! on the target, and the categorical-indexing/factoring rewrites must not
//! change the function. We check this numerically by compiling both the
//! full-model log-joint and the conditional's factors to Low-- procedures
//! and evaluating them on random states.

use augur_backend::compile::{Compiler, ProcTable};
use augur_backend::eval::{Engine, ExecMode};
use augur_backend::setup::build_state;
use augur_backend::state::HostValue;
use augur_density::{conditional, DensityModel, Factor};
use augur_dist::Prng;
use augur_kernel::{heuristic_schedule, plan};
use augur_low::from_density::factors_ll_body;
use augur_low::il::{Expr, ProcDecl};
use gpu_sim::{Device, DeviceConfig};

/// Builds an engine with the full-model ll proc at index 0 and the
/// conditional-of-`target` ll proc at index 1.
fn build_engine(
    src: &str,
    target: &str,
    args: Vec<HostValue>,
    data: Vec<(&str, HostValue)>,
) -> (Engine, ProcTable) {
    let typed = augur_lang::typecheck(&augur_lang::parse(src).unwrap()).unwrap();
    let dm = DensityModel::from_typed(&typed).unwrap();
    let sched = heuristic_schedule(&dm).unwrap();
    let lowered = augur_low::lower(&dm, &plan(&dm, &sched).unwrap()).unwrap();
    let state = build_state(
        &dm,
        &lowered,
        args,
        data.into_iter().map(|(n, v)| (n.to_owned(), v)).collect(),
    )
    .unwrap();

    let full_factors: Vec<&Factor> = dm.factors.iter().collect();
    let full = ProcDecl {
        name: "full_ll".into(),
        body: factors_ll_body(&full_factors, "model_llacc"),
        ret: Some(Expr::var("model_llacc")),
    };
    let cond = conditional(&dm, &[target]);
    let cond_factors: Vec<&Factor> = cond.factors.iter().map(|cf| &cf.factor).collect();
    let cond_proc = ProcDecl {
        name: "cond_ll".into(),
        body: factors_ll_body(&cond_factors, "model_llacc"),
        ret: Some(Expr::var("model_llacc")),
    };

    let mut table = ProcTable::default();
    for p in [&full, &cond_proc] {
        let cpu = Compiler::new(&state).proc(p);
        let blk = augur_blk::to_blocks(p);
        let gpu = Compiler::new(&state).blk_proc(&blk);
        table.insert(cpu, gpu, &state);
    }
    // initialize params by running the generated initializer
    let init = lowered.procs.iter().find(|p| p.name == lowered.init_proc).expect("init proc");
    let cpu = Compiler::new(&state).proc(init);
    let blk = augur_blk::to_blocks(init);
    let gpu = Compiler::new(&state).blk_proc(&blk);
    table.insert(cpu, gpu, &state);

    let mut engine = Engine::new(
        state,
        Prng::seed_from_u64(1234),
        Device::new(DeviceConfig::host_cpu_like()),
        ExecMode::Cpu,
    );
    engine.run_proc(&table, 2); // init
    (engine, table)
}

/// Perturbs one cell of the target and checks the log-density difference
/// identity.
fn check_identity(engine: &mut Engine, table: &ProcTable, target: &str, cell: usize, delta: f64) {
    let id = engine.state.expect_id(target);
    let full_0 = engine.run_proc(table, 0).unwrap();
    let cond_0 = engine.run_proc(table, 1).unwrap();
    engine.state.flat_mut(id)[cell] += delta;
    let full_1 = engine.run_proc(table, 0).unwrap();
    let cond_1 = engine.run_proc(table, 1).unwrap();
    engine.state.flat_mut(id)[cell] -= delta;
    let lhs = full_1 - full_0;
    let rhs = cond_1 - cond_0;
    assert!(
        (lhs - rhs).abs() < 1e-9,
        "{target}[{cell}] += {delta}: joint diff {lhs} vs conditional diff {rhs}"
    );
}

#[test]
fn gmm_mu_conditional_preserves_density_differences() {
    let n = 20;
    let mut rng = Prng::seed_from_u64(7);
    let rows: Vec<Vec<f64>> = (0..n).map(|_| vec![rng.std_normal(), rng.std_normal()]).collect();
    let (mut engine, table) = build_engine(
        augurv2::models::GMM,
        "mu",
        vec![
            HostValue::Int(3),
            HostValue::Int(n as i64),
            HostValue::VecF(vec![0.0, 0.0]),
            HostValue::Mat(augur_math::Matrix::identity(2).scale(4.0)),
            HostValue::VecF(vec![1.0 / 3.0; 3]),
            HostValue::Mat(augur_math::Matrix::identity(2)),
        ],
        vec![("x", HostValue::Ragged(augur_math::FlatRagged::from_rows(rows)))],
    );
    for cell in 0..6 {
        for delta in [0.3, -0.7, 1.3] {
            check_identity(&mut engine, &table, "mu", cell, delta);
        }
    }
}

#[test]
fn gmm_z_conditional_preserves_density_differences() {
    // discrete target: flip assignments between categories
    let n = 15;
    let mut rng = Prng::seed_from_u64(8);
    let rows: Vec<Vec<f64>> = (0..n).map(|_| vec![rng.std_normal(), rng.std_normal()]).collect();
    let (mut engine, table) = build_engine(
        augurv2::models::GMM,
        "z",
        vec![
            HostValue::Int(3),
            HostValue::Int(n as i64),
            HostValue::VecF(vec![0.0, 0.0]),
            HostValue::Mat(augur_math::Matrix::identity(2).scale(4.0)),
            HostValue::VecF(vec![0.2, 0.3, 0.5]),
            HostValue::Mat(augur_math::Matrix::identity(2)),
        ],
        vec![("x", HostValue::Ragged(augur_math::FlatRagged::from_rows(rows)))],
    );
    // set every z to category 0, then flip selected ones to 1 and 2
    let zid = engine.state.expect_id("z");
    for c in engine.state.flat_mut(zid).iter_mut() {
        *c = 0.0;
    }
    for cell in 0..n {
        for delta in [1.0, 2.0] {
            check_identity(&mut engine, &table, "z", cell, delta);
        }
    }
}

#[test]
fn lda_phi_conditional_preserves_density_differences() {
    // the categorical-indexing rewrite with a two-level discrete variable
    let corpus = augurv2::workloads::lda_corpus(3, 8, 20, 10, 9);
    let (mut engine, table) = build_engine(
        augurv2::models::LDA,
        "phi",
        vec![
            HostValue::Int(3),
            HostValue::Int(corpus.docs.len() as i64),
            HostValue::VecF(vec![0.5; 3]),
            HostValue::VecF(vec![0.2; corpus.vocab]),
            HostValue::VecI(corpus.lens.clone()),
        ],
        vec![("w", HostValue::RaggedI(corpus.docs.clone()))],
    );
    // multiplicative perturbations keep phi rows positive (they no longer
    // sum to one, but the identity is about *unnormalized* densities being
    // equal as functions of phi — Dirichlet ll is defined elementwise)
    let pid = engine.state.expect_id("phi");
    let cells = engine.state.flat(pid).len();
    for cell in (0..cells).step_by(7) {
        check_identity(&mut engine, &table, "phi", cell, 0.05);
    }
}

#[test]
fn hlr_sigma2_conditional_preserves_density_differences() {
    let data = augurv2::workloads::logistic_data(25, 4, 10);
    let (mut engine, table) = build_engine(
        augurv2::models::HLR,
        "sigma2",
        vec![
            HostValue::Real(1.0),
            HostValue::Int(25),
            HostValue::Int(4),
            HostValue::Ragged(data.x.clone()),
        ],
        vec![("y", HostValue::VecF(data.y.clone()))],
    );
    for delta in [0.2, 0.9, 2.5] {
        check_identity(&mut engine, &table, "sigma2", 0, delta);
    }
}

#[test]
fn hgmm_sigma_conditional_preserves_density_differences() {
    // matrix-valued target under the categorical-indexing rewrite
    let data = augurv2::workloads::hgmm_data(2, 2, 25, 11);
    let (mut engine, table) = build_engine(
        augurv2::models::HGMM,
        "Sigma",
        vec![
            HostValue::Int(2),
            HostValue::Int(25),
            HostValue::VecF(vec![1.0; 2]),
            HostValue::VecF(vec![0.0; 2]),
            HostValue::Mat(augur_math::Matrix::identity(2).scale(10.0)),
            HostValue::Real(4.0),
            HostValue::Mat(augur_math::Matrix::identity(2)),
        ],
        vec![("y", HostValue::Ragged(data.points.clone()))],
    );
    // perturb diagonal entries (keeps the matrices SPD)
    for cell in [0usize, 3, 4, 7] {
        check_identity(&mut engine, &table, "Sigma", cell, 0.4);
    }
}
