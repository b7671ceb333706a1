//! The recompute-everything integrators that the production updates in
//! [`crate::mcmc`] replaced, kept as a test-only reference.
//!
//! Production HMC and NUTS carry each leapfrog gradient into the next step
//! (and NUTS one per tree edge), so they run their value-and-gradient
//! procedure once per position; reflective slice keeps its last in-loop
//! log-density, and elliptical slice carries the likelihood from slice to
//! slice. Here every step recomputes what it needs, as it did before. Two
//! identical sessions run in lockstep, one through each, and every update
//! must leave bit-identical state, RNG words and counters while running
//! exactly the expected number of procedures. Bit-identity across engines
//! cannot catch a carry bug (all three engines run the same `mcmc` code);
//! this comparison can.
//!
//! The lockstep runs HMC and NUTS through the one value-and-gradient
//! procedure they lower to, so it cannot catch a wrong one either. A
//! second comparison lowers each block both ways — HMC (or NUTS) gives
//! the fused procedure, MALA the `_ll`/`_grad` pair — and checks that the
//! two agree bitwise at the same positions.

use std::sync::Arc;

use augur_dist::Prng;
use augur_math::{FlatRagged, Matrix, PoolVec};

use super::{build_session, CompiledStep, Session, SessionConfig};
use crate::compile::ProcTable;
use crate::eval::Engine;
use crate::mcmc::{
    contain_nonfinite, gradient, log_density_and_gradient, log_density_flat, read_position,
    restore_targets, snapshot_targets, write_position, GradTarget, McmcConfig,
};
use crate::metrics::UpdateOutcome;
use crate::state::{BufId, HostValue, Shape};
use crate::tape::ExecBackend;

/// The value-and-gradient procedure's log-density at `q`, its gradient
/// dropped.
fn log_density(
    engine: &mut Engine,
    table: &ProcTable,
    llgrad: usize,
    t: &[GradTarget],
    q: &[f64],
) -> f64 {
    log_density_and_gradient(engine, table, llgrad, t, q, &mut PoolVec::zeroed(q.len()))
}

#[allow(clippy::too_many_arguments)]
fn leapfrog(
    engine: &mut Engine,
    table: &ProcTable,
    llgrad_proc: usize,
    targets: &[GradTarget],
    q: &mut [f64],
    p: &mut [f64],
    eps: f64,
) -> f64 {
    let mut g = PoolVec::zeroed(q.len());
    log_density_and_gradient(engine, table, llgrad_proc, targets, q, &mut g);
    for (pi, gi) in p.iter_mut().zip(&g) {
        *pi += 0.5 * eps * gi;
    }
    for (qi, pi) in q.iter_mut().zip(p.iter()) {
        *qi += eps * pi;
    }
    let ll = log_density_and_gradient(engine, table, llgrad_proc, targets, q, &mut g);
    for (pi, gi) in p.iter_mut().zip(&g) {
        *pi += 0.5 * eps * gi;
    }
    ll
}

fn hmc_update(
    engine: &mut Engine,
    table: &ProcTable,
    llgrad_proc: usize,
    targets: &[GradTarget],
    cfg: &McmcConfig,
) -> UpdateOutcome {
    let mut out = UpdateOutcome::default();
    let saved = snapshot_targets(engine, targets);
    let q0 = read_position(engine, targets);
    let mut q = q0.clone();
    let mut p = PoolVec::from_fn(q0.len(), |_| engine.rng.std_normal());
    let h0 = log_density(engine, table, llgrad_proc, targets, &q)
        - 0.5 * p.iter().map(|x| x * x).sum::<f64>();
    if !h0.is_finite() {
        out.numerical_events += 1;
    }
    let mut ll = f64::NAN;
    for _ in 0..cfg.leapfrog_steps {
        ll = leapfrog(engine, table, llgrad_proc, targets, &mut q, &mut p, cfg.step_size);
        out.leapfrogs += 1;
        if !ll.is_finite() {
            out.divergences += 1;
            out.numerical_events += 1;
            break;
        }
    }
    let h1 = if ll.is_finite() {
        ll - 0.5 * p.iter().map(|x| x * x).sum::<f64>()
    } else {
        f64::NEG_INFINITY
    };
    out.accepted = engine.rng.uniform().ln() < h1 - h0;
    if out.accepted {
        write_position(engine, targets, &q);
    } else {
        restore_targets(engine, targets, &saved);
    }
    contain_nonfinite(engine, targets, &saved, &mut out);
    out
}

fn nuts_update(
    engine: &mut Engine,
    table: &ProcTable,
    llgrad_proc: usize,
    targets: &[GradTarget],
    cfg: &McmcConfig,
) -> UpdateOutcome {
    let mut out = UpdateOutcome::default();
    let saved = snapshot_targets(engine, targets);
    let q0 = read_position(engine, targets);
    let p0 = PoolVec::from_fn(q0.len(), |_| engine.rng.std_normal());
    let h0 = log_density(engine, table, llgrad_proc, targets, &q0)
        - 0.5 * p0.iter().map(|x| x * x).sum::<f64>();
    if !h0.is_finite() {
        out.numerical_events += 1;
    }
    let log_u = h0 + engine.rng.uniform().max(1e-300).ln();

    let mut q_minus = q0.clone();
    let mut p_minus = p0.clone();
    let mut q_plus = q0.clone();
    let mut p_plus = p0.clone();
    let mut q_new = q0.clone();
    let mut n_total: f64 = 1.0;
    let mut moved = false;

    for depth in 0..cfg.max_tree_depth {
        let dir: f64 = if engine.rng.uniform() < 0.5 { -1.0 } else { 1.0 };
        let (q_prop, n_prop, ok) = if dir < 0.0 {
            let (qm, pm, _, _, qp, np, ok) = build_tree(
                engine,
                table,
                llgrad_proc,
                targets,
                &q_minus,
                &p_minus,
                log_u,
                dir,
                depth,
                cfg,
                &mut out,
            );
            q_minus = qm;
            p_minus = pm;
            (qp, np, ok)
        } else {
            let (_, _, qp2, pp2, qp, np, ok) = build_tree(
                engine,
                table,
                llgrad_proc,
                targets,
                &q_plus,
                &p_plus,
                log_u,
                dir,
                depth,
                cfg,
                &mut out,
            );
            q_plus = qp2;
            p_plus = pp2;
            (qp, np, ok)
        };
        if ok && engine.rng.uniform() < n_prop / n_total.max(1.0) {
            q_new = q_prop;
            moved = true;
        }
        n_total += n_prop;
        if !ok || u_turn(&q_minus, &q_plus, &p_minus, &p_plus) {
            break;
        }
    }
    out.accepted = moved;
    if moved {
        write_position(engine, targets, &q_new);
    } else {
        restore_targets(engine, targets, &saved);
    }
    contain_nonfinite(engine, targets, &saved, &mut out);
    out
}

type Tree = (PoolVec, PoolVec, PoolVec, PoolVec, PoolVec, f64, bool);

#[allow(clippy::too_many_arguments)]
fn build_tree(
    engine: &mut Engine,
    table: &ProcTable,
    llgrad_proc: usize,
    targets: &[GradTarget],
    q: &[f64],
    p: &[f64],
    log_u: f64,
    dir: f64,
    depth: usize,
    cfg: &McmcConfig,
    out: &mut UpdateOutcome,
) -> Tree {
    if depth == 0 {
        let mut q1 = PoolVec::from_slice(q);
        let mut p1 = PoolVec::from_slice(p);
        let ll =
            leapfrog(engine, table, llgrad_proc, targets, &mut q1, &mut p1, dir * cfg.step_size);
        out.leapfrogs += 1;
        if !ll.is_finite() {
            out.numerical_events += 1;
        }
        let h = if ll.is_finite() {
            ll - 0.5 * p1.iter().map(|x| x * x).sum::<f64>()
        } else {
            f64::NEG_INFINITY
        };
        let n = if log_u <= h { 1.0 } else { 0.0 };
        let ok = log_u < h + 1000.0;
        if !ok {
            out.divergences += 1;
        }
        (q1.clone(), p1.clone(), q1.clone(), p1.clone(), q1, n, ok)
    } else {
        let (mut qm, mut pm, mut qp, mut pp, mut qn, mut n, ok) =
            build_tree(engine, table, llgrad_proc, targets, q, p, log_u, dir, depth - 1, cfg, out);
        if ok {
            let (qn2, n2, ok2) = if dir < 0.0 {
                let (qm2, pm2, _, _, qn2, n2, ok2) = build_tree(
                    engine,
                    table,
                    llgrad_proc,
                    targets,
                    &qm,
                    &pm,
                    log_u,
                    dir,
                    depth - 1,
                    cfg,
                    out,
                );
                qm = qm2;
                pm = pm2;
                (qn2, n2, ok2)
            } else {
                let (_, _, qp2, pp2, qn2, n2, ok2) = build_tree(
                    engine,
                    table,
                    llgrad_proc,
                    targets,
                    &qp,
                    &pp,
                    log_u,
                    dir,
                    depth - 1,
                    cfg,
                    out,
                );
                qp = qp2;
                pp = pp2;
                (qn2, n2, ok2)
            };
            if ok2 && n + n2 > 0.0 && engine.rng.uniform() < n2 / (n + n2) {
                qn = qn2;
            }
            n += n2;
            let still_ok = ok2 && !u_turn(&qm, &qp, &pm, &pp);
            return (qm, pm, qp, pp, qn, n, still_ok);
        }
        (qm, pm, qp, pp, qn, n, false)
    }
}

fn u_turn(q_minus: &[f64], q_plus: &[f64], p_minus: &[f64], p_plus: &[f64]) -> bool {
    let mut dot_minus = 0.0;
    let mut dot_plus = 0.0;
    for i in 0..q_minus.len() {
        let dq = q_plus[i] - q_minus[i];
        dot_minus += dq * p_minus[i];
        dot_plus += dq * p_plus[i];
    }
    dot_minus < 0.0 || dot_plus < 0.0
}

fn reflective_slice_update(
    engine: &mut Engine,
    table: &ProcTable,
    ll_proc: usize,
    grad_proc: usize,
    targets: &[GradTarget],
    cfg: &McmcConfig,
) -> UpdateOutcome {
    let mut out = UpdateOutcome::default();
    let saved = snapshot_targets(engine, targets);
    let q0 = read_position(engine, targets);
    let ll0 = log_density_flat(engine, table, ll_proc, targets, &q0);
    if !ll0.is_finite() {
        out.numerical_events += 1;
    }
    let log_y = ll0 - engine.rng.exponential(1.0);
    let mut q = q0.clone();
    let mut p = PoolVec::from_fn(q0.len(), |_| engine.rng.std_normal());
    let eps = cfg.step_size * cfg.slice_width;
    for _ in 0..cfg.leapfrog_steps {
        for (qi, pi) in q.iter_mut().zip(&p) {
            *qi += eps * pi;
        }
        let ll = log_density_flat(engine, table, ll_proc, targets, &q);
        if ll < log_y {
            let g = gradient(engine, table, grad_proc, targets, &q);
            let gg: f64 = g.iter().map(|x| x * x).sum();
            if gg > 0.0 {
                out.slice_reflections += 1;
                let pg: f64 = p.iter().zip(&g).map(|(a, b)| a * b).sum();
                for (pi, gi) in p.iter_mut().zip(&g) {
                    *pi -= 2.0 * pg * gi / gg;
                }
            }
        }
    }
    let ll_final = log_density_flat(engine, table, ll_proc, targets, &q);
    out.accepted = ll_final >= log_y;
    if out.accepted {
        write_position(engine, targets, &q);
    } else {
        restore_targets(engine, targets, &saved);
    }
    contain_nonfinite(engine, targets, &saved, &mut out);
    out
}

#[allow(clippy::too_many_arguments)]
fn eslice_update(
    engine: &mut Engine,
    table: &ProcTable,
    lik_proc: usize,
    prior_sample_proc: usize,
    prior_mean_proc: usize,
    target: BufId,
    aux: BufId,
    mean: BufId,
) -> UpdateOutcome {
    let mut out = UpdateOutcome::accepted();
    engine.run_proc(table, prior_sample_proc);
    engine.run_proc(table, prior_mean_proc);
    let x = PoolVec::from_slice(engine.state.flat(target));
    let nu = PoolVec::from_slice(engine.state.flat(aux));
    let m = PoolVec::from_slice(engine.state.flat(mean));
    for slice_i in 0..num_slices(engine, target) {
        let (lo_i, hi_i) = match engine.state.shape(target) {
            Shape::Rows { .. } => engine.state.row_range(target, slice_i),
            _ => (0, x.len()),
        };
        let ll0 = engine.run_proc(table, lik_proc).expect("lik proc returns");
        if !ll0.is_finite() {
            out.numerical_events += 1;
            continue;
        }
        let log_y = ll0 + engine.rng.uniform().max(1e-300).ln();
        let mut theta = engine.rng.uniform_range(0.0, 2.0 * std::f64::consts::PI);
        let mut lo = theta - 2.0 * std::f64::consts::PI;
        let mut hi = theta;
        loop {
            let (c, s) = (theta.cos(), theta.sin());
            {
                let buf = engine.state.flat_mut(target);
                for i in lo_i..hi_i {
                    buf[i] = m[i] + (x[i] - m[i]) * c + (nu[i] - m[i]) * s;
                }
            }
            let ll = engine.run_proc(table, lik_proc).expect("lik proc returns");
            if ll > log_y {
                break;
            }
            out.slice_shrinks += 1;
            if theta < 0.0 {
                lo = theta;
            } else {
                hi = theta;
            }
            if hi - lo < 1e-12 {
                let buf = engine.state.flat_mut(target);
                buf[lo_i..hi_i].copy_from_slice(&x[lo_i..hi_i]);
                break;
            }
            theta = engine.rng.uniform_range(lo, hi);
        }
    }
    out
}

/// The slices an elliptical slice update visits: the target's rows.
fn num_slices(engine: &Engine, target: BufId) -> usize {
    match engine.state.shape(target) {
        Shape::Rows { offsets, .. } => offsets.len().saturating_sub(1),
        _ => 1,
    }
}

/// Runs base update `i` through the reference integrators where one
/// exists, and through the production update otherwise.
fn reference_update(s: &mut Session, i: usize, step: &CompiledStep) -> UpdateOutcome {
    match step {
        CompiledStep::Hmc { targets, llgrad, nuts } => {
            let cfg = s.effective_cfg(i);
            let update = if *nuts { nuts_update } else { hmc_update };
            update(&mut s.engine, &s.table, *llgrad, targets, &cfg)
        }
        CompiledStep::SliceRefl { targets, ll, grad } => {
            reflective_slice_update(&mut s.engine, &s.table, *ll, *grad, targets, &s.mcmc_cfg)
        }
        CompiledStep::ESlice { target, lik, psamp, pmean, aux, mean } => {
            eslice_update(&mut s.engine, &s.table, *lik, *psamp, *pmean, *target, *aux, *mean)
        }
        _ => s.update(i, step),
    }
}

/// The procedure runs the production update must take, given the
/// reference update's outcome and its procedure runs.
fn expected_proc_calls(
    s: &Session,
    step: &CompiledStep,
    out: &UpdateOutcome,
    reference: u64,
) -> u64 {
    match step {
        // both run the value-and-gradient procedure at the start; the
        // reference then runs it at both ends of every leapfrog,
        // production only at the end
        CompiledStep::Hmc { .. } => {
            assert_eq!(reference, 2 * out.leapfrogs + 1, "reference HMC/NUTS procedure runs");
            out.leapfrogs + 1
        }
        CompiledStep::SliceRefl { .. } => reference - 1,
        CompiledStep::ESlice { target, .. } => {
            reference - (num_slices(&s.engine, *target) as u64 - 1)
        }
        _ => reference,
    }
}

fn assert_same_state(a: &Session, b: &Session, at: &str) {
    for (name, id) in a.engine.state.names() {
        let (x, y) = (a.engine.state.flat(id), b.engine.state.flat(id));
        assert!(
            x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits()),
            "{at}: buffer {name} differs from the reference"
        );
    }
    assert_eq!(a.engine.rng.state_words(), b.engine.rng.state_words(), "{at}: RNG words");
    assert_eq!(a.engine.launch_counter, b.engine.launch_counter, "{at}: launch counter");
}

/// Runs two sessions from `make` in lockstep for `sweeps` sweeps on every
/// CPU engine at 1 and 8 threads: one through the production updates, one
/// through the reference integrators. Every update must agree bitwise and
/// run the expected procedures. Returns the reference's extra procedure
/// runs, so callers can check the comparison exercised the change.
fn assert_matches_reference(
    label: &str,
    make: &dyn Fn(ExecBackend, usize) -> Session,
    sweeps: usize,
) -> u64 {
    let mut saved = 0;
    for backend in [ExecBackend::Tree, ExecBackend::Tape, ExecBackend::Native] {
        for threads in [1, 8] {
            let (mut prod, mut refr) = (make(backend, threads), make(backend, threads));
            prod.init().unwrap();
            refr.init().unwrap();
            let steps = Arc::clone(&prod.steps);
            for sweep in 0..sweeps {
                for (i, step) in steps.iter().enumerate() {
                    let at =
                        format!("{label} {:?}/{threads}t sweep {sweep} step {i}", prod.backend());
                    let calls = prod.engine.metrics.proc_calls;
                    let ref_calls = refr.engine.metrics.proc_calls;
                    let out = prod.update(i, step);
                    let want = reference_update(&mut refr, i, step);
                    let calls = prod.engine.metrics.proc_calls - calls;
                    let ref_calls = refr.engine.metrics.proc_calls - ref_calls;
                    assert_eq!(out, want, "{at}: update outcome");
                    assert_same_state(&prod, &refr, &at);
                    assert_eq!(
                        calls,
                        expected_proc_calls(&refr, step, &want, ref_calls),
                        "{at}: procedure runs (reference ran {ref_calls})"
                    );
                    saved += ref_calls - calls;
                    for s in [&mut prod, &mut refr] {
                        if matches!(step, CompiledStep::Hmc { .. }) {
                            s.update_tuning(i, &out);
                        }
                        s.stats[i].record(out);
                    }
                }
            }
            assert_eq!(prod.report().kernels, refr.report().kernels, "{label}: kernel stats");
        }
    }
    saved
}

fn session_config(backend: ExecBackend, threads: usize, mcmc: McmcConfig) -> SessionConfig {
    SessionConfig {
        backend,
        threads,
        mcmc,
        seed: 0x1EAF,
        trace_path: None,
        checkpoint_path: None,
        fault: None,
        ..SessionConfig::default()
    }
}

/// Runs the value-and-gradient procedure of `fused` (an HMC or NUTS
/// schedule) and the `_ll`/`_grad` pair of `pair` (MALA on the same
/// block, step `step` of both) at every position of `probes`, on every
/// CPU engine: the log-densities, gradients and adjoint buffers must be
/// equal bit for bit.
fn assert_fused_matches_pair(
    label: &str,
    make: &dyn Fn(&str, ExecBackend) -> Session,
    (fused, pair): (&str, &str),
    step: usize,
    probes: &[Vec<f64>],
) {
    for backend in [ExecBackend::Tree, ExecBackend::Tape, ExecBackend::Native] {
        let (mut f, mut p) = (make(fused, backend), make(pair, backend));
        f.init().unwrap();
        p.init().unwrap();
        let at = format!("{label} {:?}", f.backend());
        let (f_steps, p_steps) = (Arc::clone(&f.steps), Arc::clone(&p.steps));
        let CompiledStep::Hmc { targets, llgrad, .. } = &f_steps[step] else {
            panic!("{at}: step {step} of `{fused}` is not HMC/NUTS")
        };
        let CompiledStep::Mala { targets: p_targets, ll, grad } = &p_steps[step] else {
            panic!("{at}: step {step} of `{pair}` is not MALA")
        };
        let (llgrad, ll, grad) = (*llgrad, *ll, *grad);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for q in probes {
            let mut g = PoolVec::zeroed(q.len());
            let ll_f =
                log_density_and_gradient(&mut f.engine, &f.table, llgrad, targets, q, &mut g);
            let ll_p = log_density_flat(&mut p.engine, &p.table, ll, p_targets, q);
            let g_p = gradient(&mut p.engine, &p.table, grad, p_targets, q);
            assert_eq!(ll_f.to_bits(), ll_p.to_bits(), "{at}: log-density at {q:?}");
            assert_eq!(bits(&g), bits(&g_p), "{at}: gradient at {q:?}");
            for (t, u) in targets.iter().zip(p_targets) {
                let (a, b) = (t.adj.unwrap(), u.adj.unwrap());
                let name = f.engine.state.names().nth(a).unwrap().0.to_owned();
                let (a, b) = (f.engine.state.flat(a), p.engine.state.flat(b));
                assert_eq!(bits(a), bits(b), "{at}: adjoint {name} at {q:?}");
            }
        }
    }
}

/// `n` unconstrained positions of length `len`, seeded.
fn random_probes(seed: u64, n: usize, len: usize, scale: f64) -> Vec<Vec<f64>> {
    let mut rng = Prng::seed_from_u64(seed);
    (0..n).map(|_| (0..len).map(|_| scale * rng.std_normal()).collect()).collect()
}

const HLR: &str = "(lambda, N, D, x) => {
    param sigma2 ~ Exponential(lambda) ;
    param b ~ Normal(0.0, sigma2) ;
    param theta[j] ~ Normal(0.0, sigma2) for j <- 0 until D ;
    data y[n] ~ Bernoulli(sigmoid(dot(x[n], theta) + b)) for n <- 0 until N ;
}";

const HGMM: &str = "(K, N, alpha, mu_0, Sigma_0, nu, Psi) => {
    param pi ~ Dirichlet(alpha) ;
    param mu[k] ~ MvNormal(mu_0, Sigma_0) for k <- 0 until K ;
    param Sigma[k] ~ InvWishart(nu, Psi) for k <- 0 until K ;
    param z[n] ~ Categorical(pi) for n <- 0 until N ;
    data y[n] ~ MvNormal(mu[z[n]], Sigma[z[n]]) for n <- 0 until N ;
}";

#[test]
fn hlr_updates_match_reference_integrators() {
    let (n, d) = (80, 4);
    let mut rng = Prng::seed_from_u64(17);
    let theta: Vec<f64> = (0..d).map(|_| 0.8 * rng.std_normal()).collect();
    let mut rows = Vec::new();
    let mut y = Vec::new();
    for _ in 0..n {
        let row: Vec<f64> = (0..d).map(|_| rng.std_normal()).collect();
        let eta: f64 = row.iter().zip(&theta).map(|(a, b)| a * b).sum::<f64>() + 0.3;
        y.push(f64::from(rng.bernoulli(augur_math::special::sigmoid(eta))));
        rows.push(row);
    }
    let x = FlatRagged::from_rows(rows);
    // NUTS trees stop at 2^4 − 1 leapfrogs to keep the debug-build test short
    let mcmc =
        McmcConfig { step_size: 0.03, leapfrog_steps: 10, max_tree_depth: 4, ..Default::default() };
    for kernel in ["HMC", "NUTS", "Slice"] {
        let sched = format!("{kernel} sigma2 b theta");
        let make = |backend, threads| {
            build_session(
                HLR,
                Some(&sched),
                vec![
                    HostValue::Real(1.0),
                    HostValue::Int(n as i64),
                    HostValue::Int(d as i64),
                    HostValue::Ragged(x.clone()),
                ],
                vec![("y", HostValue::VecF(y.clone()))],
                session_config(backend, threads, mcmc.clone()),
            )
            .unwrap()
        };
        let saved = assert_matches_reference(&format!("hlr/{kernel}"), &make, 15);
        assert!(saved > 0, "hlr/{kernel}: the production updates ran no fewer procedures");
    }
}

#[test]
fn hgmm_updates_match_reference_integrators() {
    let (k, d, n) = (3, 2, 60);
    let mut rng = Prng::seed_from_u64(91);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            let c = rng.below(k) as f64;
            (0..d).map(|_| 4.0 * (c - 1.0) + rng.std_normal()).collect()
        })
        .collect();
    let points = FlatRagged::from_rows(rows);
    let mcmc =
        McmcConfig { step_size: 0.05, leapfrog_steps: 8, max_tree_depth: 4, ..Default::default() };
    for kernel in ["HMC", "NUTS", "Slice", "ESlice"] {
        let sched = format!("Gibbs pi (*) {kernel} mu (*) Gibbs Sigma (*) Gibbs z");
        let make = |backend, threads| {
            build_session(
                HGMM,
                Some(&sched),
                vec![
                    HostValue::Int(k as i64),
                    HostValue::Int(n as i64),
                    HostValue::VecF(vec![1.0; k]),
                    HostValue::VecF(vec![0.0; d]),
                    HostValue::Mat(Matrix::identity(d).scale(50.0)),
                    HostValue::Real((d + 2) as f64),
                    HostValue::Mat(Matrix::identity(d)),
                ],
                vec![("y", HostValue::Ragged(points.clone()))],
                session_config(backend, threads, mcmc.clone()),
            )
            .unwrap()
        };
        let saved = assert_matches_reference(&format!("hgmm/{kernel}"), &make, 12);
        assert!(saved > 0, "hgmm/{kernel}: the production updates ran no fewer procedures");
    }
}

#[test]
fn value_and_gradient_procedure_matches_the_pair_bitwise() {
    // HLR at gradient_agreement's shape and probes, plus random ones
    let (n, d) = (20, 3);
    let mut rng = Prng::seed_from_u64(99);
    let rows: Vec<Vec<f64>> = (0..n).map(|_| (0..d).map(|_| rng.std_normal()).collect()).collect();
    let y: Vec<f64> = (0..n).map(|_| f64::from(rng.bernoulli(0.5))).collect();
    let x = FlatRagged::from_rows(rows);
    let hlr = |sched: &str, backend| {
        build_session(
            HLR,
            Some(sched),
            vec![
                HostValue::Real(1.0),
                HostValue::Int(n as i64),
                HostValue::Int(d as i64),
                HostValue::Ragged(x.clone()),
            ],
            vec![("y", HostValue::VecF(y.clone()))],
            session_config(backend, 1, McmcConfig::default()),
        )
        .unwrap()
    };
    let mut probes = vec![
        vec![0.0, 0.0, 0.0, 0.0, 0.0],
        vec![0.5, -0.3, 0.7, -0.2, 0.1],
        vec![-1.0, 0.4, -0.6, 0.9, -0.5],
    ];
    probes.extend(random_probes(7, 8, 2 + d, 1.5));
    let pair = "MALA sigma2 b theta";
    assert_fused_matches_pair("hlr/HMC", &hlr, ("HMC sigma2 b theta", pair), 0, &probes);
    assert_fused_matches_pair("hlr/NUTS", &hlr, ("NUTS sigma2 b theta", pair), 0, &probes);

    // HGMM's `mu`: the likelihood factor sits under `if k == z[n]`
    let (k, d, n) = (3, 2, 40);
    let mut rng = Prng::seed_from_u64(91);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            let c = rng.below(k) as f64;
            (0..d).map(|_| 4.0 * (c - 1.0) + rng.std_normal()).collect()
        })
        .collect();
    let points = FlatRagged::from_rows(rows);
    let hgmm = |sched: &str, backend| {
        build_session(
            HGMM,
            Some(sched),
            vec![
                HostValue::Int(k as i64),
                HostValue::Int(n as i64),
                HostValue::VecF(vec![1.0; k]),
                HostValue::VecF(vec![0.0; d]),
                HostValue::Mat(Matrix::identity(d).scale(50.0)),
                HostValue::Real((d + 2) as f64),
                HostValue::Mat(Matrix::identity(d)),
            ],
            vec![("y", HostValue::Ragged(points.clone()))],
            session_config(backend, 1, McmcConfig::default()),
        )
        .unwrap()
    };
    let sched = |kernel: &str| format!("Gibbs pi (*) {kernel} mu (*) Gibbs Sigma (*) Gibbs z");
    let probes = random_probes(13, 10, k * d, 4.0);
    let (hmc, mala) = (sched("HMC"), sched("MALA"));
    assert_fused_matches_pair("hgmm/HMC mu", &hgmm, (&hmc, &mala), 1, &probes);
}
