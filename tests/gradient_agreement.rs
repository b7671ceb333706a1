//! Cross-system gradient check: the compiler's source-to-source AD
//! (Fig. 8) must agree with the Stan baseline's tape AD on the same HLR
//! posterior — two completely independent implementations.

use augur::{HostValue, Model, SessionConfig};
use augur_backend::mcmc::{gradient, log_density_flat, write_position, GradTarget};
use augur_stan::{HlrModel, StanModel, Tape};
use augurv2::{models, workloads};

#[test]
fn source_to_source_ad_matches_tape_ad_on_hlr() {
    let (n, d) = (20, 3);
    let data = workloads::logistic_data(n, d, 99);
    let rows: Vec<Vec<f64>> = (0..n).map(|i| data.x.row(i).to_vec()).collect();
    let lambda = 1.0;

    // --- AugurV2 side: compiled ll and grad procedures ---
    let model = Model::compile(models::HLR).unwrap();
    let mut sampler = model
        .plan(
            vec![
                HostValue::Real(lambda),
                HostValue::Int(n as i64),
                HostValue::Int(d as i64),
                HostValue::Ragged(data.x.clone()),
            ],
            vec![("y", HostValue::VecF(data.y.clone()))],
        )
        .unwrap()
        .session(SessionConfig::default())
        .unwrap();
    sampler.init().unwrap();

    // --- Stan side: the same posterior, hand-marginalized ---
    let stan = HlrModel { x: rows, y: data.y.iter().map(|&v| v as u8).collect(), lambda };

    // Probe several unconstrained positions q = [log σ², b, θ…].
    let probes: Vec<Vec<f64>> = vec![
        vec![0.0, 0.0, 0.0, 0.0, 0.0],
        vec![0.5, -0.3, 0.7, -0.2, 0.1],
        vec![-1.0, 0.4, -0.6, 0.9, -0.5],
    ];

    // Reach into the backend: rebuild the HMC step's target layout.
    // The heuristic schedule makes step 0 an HMC block over
    // (sigma2, b, theta) with a Log transform on sigma2.
    let engine = sampler.engine_mut();
    let ids: Vec<GradTarget> = [
        ("sigma2", "u0_adj_sigma2", augur_low::Transform::Log),
        ("b", "u0_adj_b", augur_low::Transform::Identity),
        ("theta", "u0_adj_theta", augur_low::Transform::Identity),
    ]
    .iter()
    .map(|(v, a, t)| GradTarget {
        var: engine.state.expect_id(v),
        adj: Some(engine.state.expect_id(a)),
        transform: *t,
    })
    .collect();
    let table = sampler_table(&mut sampler);

    for q in probes {
        let (ll_a, g_a) = {
            let engine = sampler.engine_mut();
            let ll = log_density_flat(engine, &table, table_index(&table, "u0_ll"), &ids, &q);
            write_position(engine, &ids, &q);
            let g = gradient(engine, &table, table_index(&table, "u0_grad"), &ids, &q);
            (ll, g)
        };
        let (ll_s, g_s) = {
            let mut tape = Tape::new();
            let vs: Vec<augur_stan::V> = q.iter().map(|&v| tape.leaf(v)).collect();
            let lp = stan.log_prob(&mut tape, &vs);
            let g = tape.grad(lp, &vs);
            (tape.val(lp), g)
        };
        assert!((ll_a - ll_s).abs() < 1e-8, "log-density mismatch at {q:?}: {ll_a} vs {ll_s}");
        for i in 0..q.len() {
            assert!(
                (g_a[i] - g_s[i]).abs() < 1e-8,
                "gradient dim {i} mismatch at {q:?}: {} vs {}",
                g_a[i],
                g_s[i]
            );
        }
    }
}

// The driver does not expose its ProcTable; recompile the procedures the
// same way it does. This keeps the test honest: it compiles the lowered
// model independently and compares against the tape.
fn sampler_table(sampler: &mut augur::Session) -> augur_backend::compile::ProcTable {
    use augur_backend::compile::Compiler;
    let model = Model::compile(models::HLR).unwrap();
    let dm = model.density_model();
    let sched = augur_kernel::heuristic_schedule(dm).unwrap();
    let kp = augur_kernel::plan(dm, &sched).unwrap();
    let lowered = augur_low::lower(dm, &kp).unwrap();
    let mut table = augur_backend::compile::ProcTable::default();
    let engine = sampler.engine_mut();
    for p in &lowered.procs {
        let cpu = Compiler::new(&engine.state).proc(p);
        let blk = augur_blk::to_blocks(p);
        let gpu = Compiler::new(&engine.state).blk_proc(&blk);
        table.insert(cpu, gpu, &engine.state);
    }
    table
}

fn table_index(table: &augur_backend::compile::ProcTable, name: &str) -> usize {
    table.index(name)
}
