//! The MCMC runtime library (paper §4.4, §5.5).
//!
//! Base updates decompose into primitives — likelihood evaluation,
//! closed-form conditionals, gradient evaluation — plus *library code*
//! ("between 0 lines of C code for a Gibbs update to 30 lines … e.g. an
//! implementation of leapfrog integration"). This module is that library:
//! leapfrog HMC and a No-U-Turn prototype, elliptical slice sampling
//! (Murray, Adams & MacKay 2010), reflective slice sampling, and
//! random-walk Metropolis–Hastings.
//!
//! Updates that can reject implement the §5.5 state discipline: the
//! proposal mutates the live state, and on rejection the saved copy is
//! restored, so the two logical copies of the state are equal after every
//! base update.

use augur_low::Transform;
use augur_math::PoolVec;

use crate::compile::ProcTable;
use crate::eval::Engine;
use crate::metrics::UpdateOutcome;
use crate::state::BufId;

/// A user-supplied Metropolis–Hastings proposal — the `Prop (Maybe α)`
/// of the Kernel IL (Fig. 5) with `Just` a proposal. The paper accepts
/// proposal *code*; here the proposal is a host callback over the
/// flattened target block in its natural (constrained) space.
pub trait Proposal: std::fmt::Debug + Send {
    /// Writes a proposed value into `out` given the current value, and
    /// returns the log-ratio correction
    /// `log q(x' → x) − log q(x → x')` (zero for symmetric proposals).
    fn propose(&mut self, rng: &mut augur_dist::Prng, current: &[f64], out: &mut [f64]) -> f64;
}

/// Tuning for gradient-based and random-walk updates.
#[derive(Debug, Clone)]
pub struct McmcConfig {
    /// Leapfrog step size.
    pub step_size: f64,
    /// Leapfrog steps per HMC update.
    pub leapfrog_steps: usize,
    /// Random-walk MH proposal scale.
    pub mh_step: f64,
    /// Initial bracket width for reflective slice.
    pub slice_width: f64,
    /// Maximum tree depth for NUTS.
    pub max_tree_depth: usize,
    /// Consecutive divergent HMC/NUTS updates before the step size is
    /// halved (numerical guardrail; `0` disables backoff).
    pub divergence_backoff: usize,
    /// Consecutive clean updates at a reduced step size before it is
    /// doubled back toward the configured value.
    pub backoff_recovery: usize,
}

impl Default for McmcConfig {
    fn default() -> Self {
        McmcConfig {
            step_size: 0.05,
            leapfrog_steps: 16,
            mh_step: 0.25,
            slice_width: 1.0,
            max_tree_depth: 8,
            divergence_backoff: 3,
            backoff_recovery: 8,
        }
    }
}

/// Forces a rejection if an accepted proposal left any non-finite value in
/// the target buffers: the snapshot is restored and the event recorded, so
/// a numerical blow-up (or an injected NaN) is contained instead of
/// poisoning every later sweep. No-op — and no extra RNG draws — on finite
/// states, so finite traces are unchanged.
pub(crate) fn contain_nonfinite(
    engine: &mut Engine,
    targets: &[GradTarget],
    saved: &[f64],
    out: &mut UpdateOutcome,
) {
    if !out.accepted {
        return;
    }
    let poisoned = targets.iter().any(|t| engine.state.flat(t.var).iter().any(|x| !x.is_finite()));
    if poisoned {
        restore_targets(engine, targets, saved);
        out.accepted = false;
        out.numerical_events += 1;
    }
}

/// One variable of a gradient-based block with its adjoint buffer and
/// constraint transform.
#[derive(Debug, Clone)]
pub struct GradTarget {
    /// The sampled variable.
    pub var: BufId,
    /// Its adjoint buffer (written by the grad procedure); `None` for
    /// gradient-free updates (random-walk MH).
    pub adj: Option<BufId>,
    /// The unconstraining transform.
    pub transform: Transform,
}

/// Snapshots the raw (constrained) values of a block — the §5.5 "copy of
/// the MCMC state": rejected proposals restore these bitwise, rather than
/// round-tripping through the unconstraining transform. The snapshot is a
/// single flat pooled buffer (per-target extents are recomputed from the
/// engine on restore), so no per-update spine allocation.
pub fn snapshot_targets(engine: &Engine, targets: &[GradTarget]) -> PoolVec {
    let n: usize = targets.iter().map(|t| engine.state.flat(t.var).len()).sum();
    let mut snap = PoolVec::with_capacity(n);
    for t in targets {
        snap.extend_from_slice(engine.state.flat(t.var));
    }
    snap
}

/// Restores a snapshot taken with [`snapshot_targets`].
pub fn restore_targets(engine: &mut Engine, targets: &[GradTarget], snap: &[f64]) {
    let mut off = 0;
    for t in targets {
        let buf = engine.state.flat_mut(t.var);
        buf.copy_from_slice(&snap[off..off + buf.len()]);
        off += buf.len();
    }
    debug_assert_eq!(off, snap.len());
}

/// Reads the flattened, *unconstrained* position of a block.
pub fn read_position(engine: &Engine, targets: &[GradTarget]) -> PoolVec {
    let n: usize = targets.iter().map(|t| engine.state.flat(t.var).len()).sum();
    let mut q = PoolVec::with_capacity(n);
    for t in targets {
        for &x in engine.state.flat(t.var) {
            q.push(match t.transform {
                Transform::Identity => x,
                Transform::Log => x.max(1e-300).ln(),
                Transform::Logit => {
                    let c = x.clamp(1e-12, 1.0 - 1e-12);
                    (c / (1.0 - c)).ln()
                }
            });
        }
    }
    q
}

/// Writes an unconstrained position back into the (constrained) state.
pub fn write_position(engine: &mut Engine, targets: &[GradTarget], q: &[f64]) {
    let mut off = 0;
    for t in targets {
        let buf = engine.state.flat_mut(t.var);
        for cell in buf.iter_mut() {
            let v = q[off];
            *cell = match t.transform {
                Transform::Identity => v,
                Transform::Log => v.exp(),
                Transform::Logit => augur_math::special::sigmoid(v),
            };
            off += 1;
        }
    }
    debug_assert_eq!(off, q.len());
}

/// The gradient of [`log_density_flat`] with respect to the unconstrained
/// position (chain rule through the transform, including the Jacobian
/// term). Assumes the position has already been written.
pub fn gradient(
    engine: &mut Engine,
    table: &ProcTable,
    grad_proc: usize,
    targets: &[GradTarget],
    q: &[f64],
) -> PoolVec {
    let mut g = PoolVec::zeroed(q.len());
    engine.run_proc(table, grad_proc);
    chain_adjoints(engine, targets, q, &mut g);
    g
}

/// Chains the adjoint buffers the last procedure run wrote through the
/// transforms at `q` into `g`, the gradient in the unconstrained space.
fn chain_adjoints(engine: &Engine, targets: &[GradTarget], q: &[f64], g: &mut [f64]) {
    let mut off = 0;
    for t in targets {
        let adj = engine.state.flat(t.adj.expect("gradient-based update has adjoint buffers"));
        for (i, &a) in adj.iter().enumerate() {
            g[off + i] = match t.transform {
                Transform::Identity => a,
                // d/dq [ll(e^q) + q] = ll'(x)·x + 1
                Transform::Log => a * q[off + i].exp() + 1.0,
                // x = σ(u): d/du [ll(σ(u)) + log σ(u) + log σ(−u)]
                //         = ll'(x)·x(1−x) + (1 − 2x)
                Transform::Logit => {
                    let x = augur_math::special::sigmoid(q[off + i]);
                    a * x * (1.0 - x) + (1.0 - 2.0 * x)
                }
            };
        }
        off += adj.len();
    }
}

/// One leapfrog step from `(q, p)`: half-step momentum, full-step
/// position, half-step momentum. `g` holds the gradient at `q` on entry
/// and the gradient at the new `q` on return, so consecutive steps share
/// it and each step runs the value-and-gradient procedure once, at the
/// new position. Returns the new log-density.
#[allow(clippy::too_many_arguments)]
fn leapfrog(
    engine: &mut Engine,
    table: &ProcTable,
    llgrad_proc: usize,
    targets: &[GradTarget],
    q: &mut [f64],
    p: &mut [f64],
    g: &mut [f64],
    eps: f64,
) -> f64 {
    for (pi, gi) in p.iter_mut().zip(g.iter()) {
        *pi += 0.5 * eps * gi;
    }
    for (qi, pi) in q.iter_mut().zip(p.iter()) {
        *qi += eps * pi;
    }
    let ll = log_density_and_gradient(engine, table, llgrad_proc, targets, q, g);
    for (pi, gi) in p.iter_mut().zip(g.iter()) {
        *pi += 0.5 * eps * gi;
    }
    ll
}

/// The log-density in the unconstrained space: conditional log-likelihood
/// plus the log-Jacobian of the transforms (per-target lengths are read
/// off the engine). Writes the position first.
pub fn log_density_flat(
    engine: &mut Engine,
    table: &ProcTable,
    ll_proc: usize,
    targets: &[GradTarget],
    q: &[f64],
) -> f64 {
    write_position(engine, targets, q);
    let ll = engine.run_proc(table, ll_proc).expect("ll proc returns a value");
    ll + log_jacobian(engine, targets, q)
}

/// [`log_density_flat`] and [`gradient`] from one run of a
/// value-and-gradient procedure: writes the position, runs the
/// procedure, fills `g` and returns the log-density.
pub fn log_density_and_gradient(
    engine: &mut Engine,
    table: &ProcTable,
    llgrad_proc: usize,
    targets: &[GradTarget],
    q: &[f64],
    g: &mut [f64],
) -> f64 {
    write_position(engine, targets, q);
    let ll = engine.run_proc(table, llgrad_proc).expect("llgrad proc returns a value");
    chain_adjoints(engine, targets, q, g);
    ll + log_jacobian(engine, targets, q)
}

/// The log-Jacobian of the unconstraining transforms at `q`.
fn log_jacobian(engine: &Engine, targets: &[GradTarget], q: &[f64]) -> f64 {
    let mut jac = 0.0;
    let mut off = 0;
    for t in targets {
        let len = engine.state.flat(t.var).len();
        match t.transform {
            Transform::Log => jac += q[off..off + len].iter().sum::<f64>(),
            Transform::Logit => {
                for &u in &q[off..off + len] {
                    // log σ(u) + log σ(−u)
                    jac -= augur_math::special::log1p_exp(-u) + augur_math::special::log1p_exp(u);
                }
            }
            Transform::Identity => {}
        }
        off += len;
    }
    jac
}

/// One HMC update of a block. Reports acceptance, the leapfrog steps
/// actually integrated, and whether the trajectory diverged (non-finite
/// energy, which aborts the integration).
pub fn hmc_update(
    engine: &mut Engine,
    table: &ProcTable,
    llgrad_proc: usize,
    targets: &[GradTarget],
    cfg: &McmcConfig,
) -> UpdateOutcome {
    let mut out = UpdateOutcome::default();
    let saved = snapshot_targets(engine, targets);
    let mut q = read_position(engine, targets);
    let mut p = PoolVec::from_fn(q.len(), |_| engine.rng.std_normal());
    // the gradient at q0 starts the trajectory
    let mut g = PoolVec::zeroed(q.len());
    let h0 = log_density_and_gradient(engine, table, llgrad_proc, targets, &q, &mut g)
        - 0.5 * p.iter().map(|x| x * x).sum::<f64>();
    if !h0.is_finite() {
        // current state already has a non-finite density (e.g. an injected
        // NaN): `ln(u) < h1 - h0` is then false/NaN → guaranteed rejection,
        // recorded as a numerical event rather than silently looping.
        out.numerical_events += 1;
    }
    let mut ll = f64::NAN;
    for _ in 0..cfg.leapfrog_steps {
        ll = leapfrog(engine, table, llgrad_proc, targets, &mut q, &mut p, &mut g, cfg.step_size);
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
        restore_targets(engine, targets, &saved); // §5.5: exact state copy
    }
    contain_nonfinite(engine, targets, &saved, &mut out);
    out
}

/// One NUTS update (Hoffman & Gelman 2014, Algorithm 3 — the paper's §4.4
/// footnote prototype). Reports whether the position moved, plus the
/// leapfrog steps taken and divergence-guard trips across the whole
/// doubling tree.
pub fn nuts_update(
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
    // both edges start from the gradient at q0
    let mut g0 = PoolVec::zeroed(q0.len());
    let h0 = log_density_and_gradient(engine, table, llgrad_proc, targets, &q0, &mut g0)
        - 0.5 * p0.iter().map(|x| x * x).sum::<f64>();
    if !h0.is_finite() {
        out.numerical_events += 1;
    }
    // slice variable
    let log_u = h0 + engine.rng.uniform().max(1e-300).ln();

    let mut minus = Edge { q: q0.clone(), p: p0, g: g0 };
    let mut plus = minus.clone();
    let mut q_new = q0;
    let mut n_total: f64 = 1.0;
    let mut moved = false;

    for depth in 0..cfg.max_tree_depth {
        let dir: f64 = if engine.rng.uniform() < 0.5 { -1.0 } else { 1.0 };
        let edge = if dir < 0.0 { &minus } else { &plus };
        let t =
            build_tree(engine, table, llgrad_proc, targets, edge, log_u, dir, depth, cfg, &mut out);
        if dir < 0.0 {
            minus = t.minus;
        } else {
            plus = t.plus;
        }
        if t.ok && engine.rng.uniform() < t.n / n_total.max(1.0) {
            q_new = t.proposal;
            moved = true;
        }
        n_total += t.n;
        if !t.ok || u_turn(&minus, &plus) {
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

/// One end of a NUTS trajectory: position, momentum, and the gradient at
/// the position, carried so that extending the edge runs the
/// value-and-gradient procedure once per step.
#[derive(Clone)]
struct Edge {
    q: PoolVec,
    p: PoolVec,
    g: PoolVec,
}

/// A subtree built by [`build_tree`]: its two edges, the point proposed
/// from it, how many of its points lie inside the slice, and whether it
/// may be extended further (no divergence, no U-turn).
struct Tree {
    minus: Edge,
    plus: Edge,
    proposal: PoolVec,
    n: f64,
    ok: bool,
}

/// Builds a subtree of `2^depth` leapfrog steps from `edge` in direction
/// `dir`. Each step starts from the gradient its edge carries and leaves
/// the gradient at its end point on the new edge, so a subtree runs one
/// value-and-gradient procedure per step.
#[allow(clippy::too_many_arguments)]
fn build_tree(
    engine: &mut Engine,
    table: &ProcTable,
    llgrad_proc: usize,
    targets: &[GradTarget],
    edge: &Edge,
    log_u: f64,
    dir: f64,
    depth: usize,
    cfg: &McmcConfig,
    out: &mut UpdateOutcome,
) -> Tree {
    if depth == 0 {
        let mut e = edge.clone();
        let ll = leapfrog(
            engine,
            table,
            llgrad_proc,
            targets,
            &mut e.q,
            &mut e.p,
            &mut e.g,
            dir * cfg.step_size,
        );
        out.leapfrogs += 1;
        if !ll.is_finite() {
            out.numerical_events += 1;
        }
        let h = if ll.is_finite() {
            ll - 0.5 * e.p.iter().map(|x| x * x).sum::<f64>()
        } else {
            f64::NEG_INFINITY
        };
        let n = if log_u <= h { 1.0 } else { 0.0 };
        let ok = log_u < h + 1000.0; // divergence guard
        if !ok {
            out.divergences += 1;
        }
        return Tree { minus: e.clone(), proposal: e.q.clone(), plus: e, n, ok };
    }
    let mut t =
        build_tree(engine, table, llgrad_proc, targets, edge, log_u, dir, depth - 1, cfg, out);
    if !t.ok {
        return t;
    }
    let outer = if dir < 0.0 { &t.minus } else { &t.plus };
    let t2 =
        build_tree(engine, table, llgrad_proc, targets, outer, log_u, dir, depth - 1, cfg, out);
    if t2.ok && t.n + t2.n > 0.0 && engine.rng.uniform() < t2.n / (t.n + t2.n) {
        t.proposal = t2.proposal;
    }
    t.n += t2.n;
    if dir < 0.0 {
        t.minus = t2.minus;
    } else {
        t.plus = t2.plus;
    }
    t.ok = t2.ok && !u_turn(&t.minus, &t.plus);
    t
}

fn u_turn(minus: &Edge, plus: &Edge) -> bool {
    let mut dot_minus = 0.0;
    let mut dot_plus = 0.0;
    for i in 0..minus.q.len() {
        let dq = plus.q[i] - minus.q[i];
        dot_minus += dq * minus.p[i];
        dot_plus += dq * plus.p[i];
    }
    dot_minus < 0.0 || dot_plus < 0.0
}

/// One elliptical slice update (needs only the likelihood; the target's
/// prior must be Gaussian — validated at planning time). The update runs
/// slice by slice over the target's comprehension structure: given the
/// rest of the state, the slices are conditionally independent, so each
/// gets its own ellipse (this is the compiled analogue of the per-slice
/// Gibbs structure). Always accepts; reports the total bracket-shrink
/// count across all slices.
#[allow(clippy::too_many_arguments)]
pub fn eslice_update(
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
    // ν ~ prior, m = prior mean (for every slice at once)
    engine.run_proc(table, prior_sample_proc);
    engine.run_proc(table, prior_mean_proc);
    let x = PoolVec::from_slice(engine.state.flat(target));
    let nu = PoolVec::from_slice(engine.state.flat(aux));
    let m = PoolVec::from_slice(engine.state.flat(mean));

    // Slice boundaries follow the target's row structure; rows are read
    // back one at a time so no boundary list is materialized.
    let num_slices = match engine.state.shape(target) {
        crate::state::Shape::Rows { offsets, .. } => offsets.len().saturating_sub(1),
        _ => 1,
    };

    // The likelihood at the current state. Each slice leaves the state at
    // a point whose likelihood it already evaluated (the accepted point,
    // or the restored start), so it carries from slice to slice.
    let mut ll0 = engine.run_proc(table, lik_proc).expect("lik proc returns");
    for slice_i in 0..num_slices {
        let (lo_i, hi_i) = match engine.state.shape(target) {
            crate::state::Shape::Rows { .. } => engine.state.row_range(target, slice_i),
            _ => (0, x.len()),
        };
        if !ll0.is_finite() {
            // A non-finite base likelihood would make the slice threshold
            // NaN and every bracket test false; leave this slice at its
            // current value instead of shrinking the bracket to exhaustion.
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
                ll0 = ll;
                break; // this slice accepted; move to the next
            }
            // shrink the bracket toward θ = 0
            out.slice_shrinks += 1;
            if theta < 0.0 {
                lo = theta;
            } else {
                hi = theta;
            }
            if hi - lo < 1e-12 {
                // numerically exhausted: restore this slice
                let buf = engine.state.flat_mut(target);
                buf[lo_i..hi_i].copy_from_slice(&x[lo_i..hi_i]);
                break;
            }
            theta = engine.rng.uniform_range(lo, hi);
        }
    }
    out
}

/// One reflective slice update: uniform momentum, gradient reflections off
/// the slice boundary (Neal 2003). Always ends inside the slice (reverts
/// on failure); reports the boundary-reflection count.
pub fn reflective_slice_update(
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
        // NaN height makes every `ll_final >= log_y` test false — the
        // update degenerates to a guaranteed (counted) rejection.
        out.numerical_events += 1;
    }
    let log_y = ll0 - engine.rng.exponential(1.0); // slice height
    let mut q = q0.clone();
    let mut p = PoolVec::from_fn(q0.len(), |_| engine.rng.std_normal());
    let eps = cfg.step_size * cfg.slice_width;
    let steps = cfg.leapfrog_steps;
    // the log-density at q: after the loop, the last in-loop evaluation
    let mut ll_final = ll0;
    for _ in 0..steps {
        for (qi, pi) in q.iter_mut().zip(&p) {
            *qi += eps * pi;
        }
        ll_final = log_density_flat(engine, table, ll_proc, targets, &q);
        if ll_final < log_y {
            // reflect: p ← p − 2 (p·g) g / |g|²
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
    out.accepted = ll_final >= log_y;
    if out.accepted {
        write_position(engine, targets, &q);
    } else {
        restore_targets(engine, targets, &saved);
    }
    contain_nonfinite(engine, targets, &saved, &mut out);
    out
}

/// One Metropolis-adjusted Langevin update of a block: a single
/// gradient-drifted proposal `q' = q + (ε²/2)∇ + ε ξ` with the exact
/// Hastings correction. Reports whether the proposal was accepted.
///
/// This is the §7.1 extensibility exercise — note that it needs nothing
/// beyond the primitives that already existed (likelihood + gradient
/// procedures and the §5.5 restore-on-reject discipline).
pub fn mala_update(
    engine: &mut Engine,
    table: &ProcTable,
    ll_proc: usize,
    grad_proc: usize,
    targets: &[GradTarget],
    cfg: &McmcConfig,
) -> UpdateOutcome {
    let eps = cfg.step_size;
    let mut out = UpdateOutcome::default();
    let saved = snapshot_targets(engine, targets);
    let q0 = read_position(engine, targets);
    let ll0 = log_density_flat(engine, table, ll_proc, targets, &q0);
    if !ll0.is_finite() {
        out.numerical_events += 1;
    }
    let g0 = gradient(engine, table, grad_proc, targets, &q0);

    // proposal mean m0 = q0 + (ε²/2) g0
    let mut q1 = PoolVec::with_capacity(q0.len());
    for i in 0..q0.len() {
        q1.push(q0[i] + 0.5 * eps * eps * g0[i] + eps * engine.rng.std_normal());
    }
    let ll1 = log_density_flat(engine, table, ll_proc, targets, &q1);
    let accept = if ll1.is_finite() {
        let g1 = gradient(engine, table, grad_proc, targets, &q1);
        // log q(q0 | q1) − log q(q1 | q0)
        let mut correction = 0.0;
        for i in 0..q0.len() {
            let fwd = q1[i] - q0[i] - 0.5 * eps * eps * g0[i];
            let rev = q0[i] - q1[i] - 0.5 * eps * eps * g1[i];
            correction += (fwd * fwd - rev * rev) / (2.0 * eps * eps);
        }
        engine.rng.uniform().ln() < ll1 - ll0 + correction
    } else {
        out.numerical_events += 1;
        false
    };
    out.accepted = accept;
    if accept {
        write_position(engine, targets, &q1);
    } else {
        restore_targets(engine, targets, &saved);
    }
    contain_nonfinite(engine, targets, &saved, &mut out);
    out
}

/// One Metropolis–Hastings update with a *user-supplied* proposal over
/// the block's natural space. Reports whether the proposal was accepted.
pub fn custom_mh_update(
    engine: &mut Engine,
    table: &ProcTable,
    ll_proc: usize,
    targets: &[GradTarget],
    proposal: &mut dyn Proposal,
) -> UpdateOutcome {
    // natural-space values: read the raw buffers
    let n: usize = targets.iter().map(|t| engine.state.flat(t.var).len()).sum();
    let mut current = PoolVec::with_capacity(n);
    for t in targets {
        current.extend_from_slice(engine.state.flat(t.var));
    }
    let ll0 = engine.run_proc(table, ll_proc).expect("ll proc returns");
    let mut proposed = PoolVec::zeroed(current.len());
    let correction = proposal.propose(&mut engine.rng, &current, &mut proposed);
    // write the proposal
    let mut off = 0;
    for t in targets {
        let buf = engine.state.flat_mut(t.var);
        buf.copy_from_slice(&proposed[off..off + buf.len()]);
        off += buf.len();
    }
    let ll1 = engine.run_proc(table, ll_proc).expect("ll proc returns");
    let mut out = UpdateOutcome::default();
    if !ll0.is_finite() || !ll1.is_finite() {
        // the NaN-safe comparison below already rejects; record it
        out.numerical_events += 1;
    }
    out.accepted = engine.rng.uniform().ln() < ll1 - ll0 + correction;
    if out.accepted
        && targets.iter().any(|t| engine.state.flat(t.var).iter().any(|x| !x.is_finite()))
    {
        // accepted a proposal carrying a non-finite value: contain it
        out.accepted = false;
        out.numerical_events += 1;
    }
    if !out.accepted {
        let mut off = 0;
        for t in targets {
            let buf = engine.state.flat_mut(t.var);
            buf.copy_from_slice(&current[off..off + buf.len()]);
            off += buf.len();
        }
    }
    out
}

/// One random-walk Metropolis–Hastings update in the unconstrained space.
/// Reports whether the proposal was accepted.
pub fn rw_mh_update(
    engine: &mut Engine,
    table: &ProcTable,
    ll_proc: usize,
    targets: &[GradTarget],
    cfg: &McmcConfig,
) -> UpdateOutcome {
    let mut out = UpdateOutcome::default();
    let saved = snapshot_targets(engine, targets);
    let q0 = read_position(engine, targets);
    let ll0 = log_density_flat(engine, table, ll_proc, targets, &q0);
    let q1 = PoolVec::from_fn(q0.len(), |i| q0[i] + cfg.mh_step * engine.rng.std_normal());
    let ll1 = log_density_flat(engine, table, ll_proc, targets, &q1);
    if !ll0.is_finite() || !ll1.is_finite() {
        out.numerical_events += 1;
    }
    // symmetric proposal: the acceptance ratio is the density ratio (§5.5)
    out.accepted = engine.rng.uniform().ln() < ll1 - ll0;
    if out.accepted {
        write_position(engine, targets, &q1);
    } else {
        restore_targets(engine, targets, &saved);
    }
    contain_nonfinite(engine, targets, &saved, &mut out);
    out
}
