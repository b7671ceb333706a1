//! The §5.2 memory-explication pass must be semantics-preserving: a
//! sampler built from the memory-explicit Low-- form produces the exact
//! chain of the functional form.

use augur::{CompiledModel, HostValue, Model, OptFlags, SessionConfig};
use augurv2::models::hgmm_args;
use augurv2::workloads;

#[test]
fn memory_explicit_lowering_is_bit_identical() {
    let (k, d, n) = (2, 2, 80);
    let data = workloads::hgmm_data(k, d, n, 6001);
    let args = || hgmm_args(k, d, n);
    let model = Model::compile(augurv2::models::HGMM).unwrap();
    let dm = model.density_model();
    let sched = augur_kernel::heuristic_schedule(dm).unwrap();
    let kp = augur_kernel::plan(dm, &sched).unwrap();
    let lowered = augur_low::lower(dm, &kp).unwrap();
    let mut explicit = lowered.clone();
    let hoisted = augur_low::memory::make_memory_explicit(&mut explicit).unwrap();
    assert!(hoisted > 0);

    let build = |lm: &augur_low::LoweredModel| {
        let mut s = CompiledModel::from_parts(dm.clone(), lm.clone(), Vec::new())
            .plan_opt(
                args(),
                vec![("y", HostValue::Ragged(data.points.clone()))],
                OptFlags::default(),
            )
            .unwrap()
            .session(SessionConfig::default())
            .unwrap();
        s.init().unwrap();
        for _ in 0..30 {
            s.sweep();
        }
        (
            s.param("mu").unwrap().to_vec(),
            s.param("pi").unwrap().to_vec(),
            s.param("z").unwrap().to_vec(),
        )
    };
    let (mu_a, pi_a, z_a) = build(&lowered);
    let (mu_b, pi_b, z_b) = build(&explicit);
    for (a, b) in mu_a.iter().zip(&mu_b) {
        assert_eq!(a.to_bits(), b.to_bits(), "mu diverged");
    }
    for (a, b) in pi_a.iter().zip(&pi_b) {
        assert_eq!(a.to_bits(), b.to_bits(), "pi diverged");
    }
    assert_eq!(z_a, z_b, "assignments diverged");
}
