//! Plan-lifecycle differential suite: the cache must be invisible.
//!
//! The plan cache's contract is that *how* a plan was obtained — fresh
//! cold compile, cache hit, or incremental respecialization — can never
//! change what the sampler computes. These tests drive the
//! `Model → Plan → Session` lifecycle through randomized data shapes and
//! check trajectories, run-report digests, and profile work-digests are
//! bit-identical against a from-scratch compile of the same shape. A
//! cache hit must also be cheap: a fraction of a cold compile.

use std::time::Instant;

use augur::{Error, ErrorKind, HostValue, Model, PlanEvent, SessionConfig};
use augur_math::Matrix;
use augurv2::models::{hgmm_args, lda_args};
use augurv2::{models, workloads};

/// Tiny deterministic shape generator (xorshift64*); the test owns its
/// randomness so failures replay exactly.
struct ShapeRng(u64);

impl ShapeRng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `lo..hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() as usize) % (hi - lo)
    }
}

/// Everything a run exposes that the cache could possibly perturb.
#[derive(PartialEq, Debug)]
struct RunSignature {
    trajectory: Vec<u64>,
    report_digest: String,
    profile_digest: String,
}

/// Runs `sweeps` sweeps recording the bit pattern of `param[0]`, then
/// digests the run report and the profiler's work counters.
fn signature(s: &mut augur::Session, sweeps: usize, param: &str) -> RunSignature {
    s.init().unwrap();
    let mut trajectory = Vec::with_capacity(sweeps);
    for _ in 0..sweeps {
        s.sweep();
        trajectory.push(s.param(param).unwrap()[0].to_bits());
    }
    RunSignature {
        trajectory,
        report_digest: s.report().digest(),
        profile_digest: s.profile().digest(),
    }
}

/// HGMM at a random shape: (args, data, sweeps, recorded param).
fn hgmm_case(rng: &mut ShapeRng) -> (Vec<HostValue>, Vec<(&'static str, HostValue)>, &'static str) {
    let k = rng.range(2, 4);
    let d = rng.range(1, 4);
    let n = rng.range(40, 160);
    let data = workloads::hgmm_data(k, d, n, 1000 + n as u64);
    (hgmm_args(k, d, n), vec![("y", HostValue::Ragged(data.points))], "mu")
}

/// LDA at a random shape.
fn lda_case(rng: &mut ShapeRng) -> (Vec<HostValue>, Vec<(&'static str, HostValue)>, &'static str) {
    let topics = rng.range(3, 7);
    let docs = rng.range(8, 24);
    let corpus = workloads::lda_corpus(4, docs, 120, 20, 2000 + docs as u64);
    let args = lda_args(topics, &corpus);
    (args, vec![("w", HostValue::RaggedI(corpus.docs))], "theta")
}

/// The tentpole determinism claim: a plan produced by *respecializing*
/// an already-built model (only the size-dependent phases re-run) is
/// bit-identical — trajectory, report digest, profile work-digest — to a
/// plan produced by compiling the model from scratch for that shape.
/// Re-planning an already-seen shape (a cache *hit*) is likewise
/// bit-identical.
#[test]
fn respecialized_and_cached_plans_match_fresh_compile_bitwise() {
    let mut rng = ShapeRng(0xA5EED);
    for (src, cases) in [
        (models::HGMM, (0..3).map(|_| hgmm_case(&mut rng)).collect::<Vec<_>>()),
        (models::LDA, (0..2).map(|_| lda_case(&mut rng)).collect::<Vec<_>>()),
    ] {
        let shared = Model::compile(src).unwrap();
        let mut signatures = Vec::new();
        for (i, (args, data, param)) in cases.iter().enumerate() {
            // Reference: a model compiled from scratch for this shape.
            let fresh = Model::compile(src).unwrap();
            let plan = fresh.plan(args.clone(), data.clone()).unwrap();
            assert_eq!(plan.cache_event(), PlanEvent::Cold);
            let reference =
                signature(&mut plan.session(SessionConfig::default()).unwrap(), 12, param);

            // Candidate: the shared model, which respecializes for every
            // shape after its first.
            let plan = shared.plan(args.clone(), data.clone()).unwrap();
            let expected =
                if i == 0 { PlanEvent::Cold } else { PlanEvent::Respecialize };
            assert_eq!(plan.cache_event(), expected, "shape {i}");
            let candidate =
                signature(&mut plan.session(SessionConfig::default()).unwrap(), 12, param);
            assert_eq!(candidate, reference, "respecialized plan diverged at shape {i}");
            signatures.push(reference);
        }

        // Replay every shape: all are cache hits now, all bit-identical.
        for (i, (args, data, param)) in cases.iter().enumerate() {
            let plan = shared.plan(args.clone(), data.clone()).unwrap();
            assert_eq!(plan.cache_event(), PlanEvent::Hit, "replayed shape {i}");
            let replay =
                signature(&mut plan.session(SessionConfig::default()).unwrap(), 12, param);
            assert_eq!(replay, signatures[i], "cache-hit plan diverged at shape {i}");
        }

        let stats = shared.cache_stats();
        assert_eq!(stats.misses, cases.len() as u64, "one build per shape");
        assert_eq!(stats.respecializes, cases.len() as u64 - 1);
        assert_eq!(stats.hits, cases.len() as u64, "one hit per replay");
        assert_eq!(stats.entries, cases.len() as u64);
    }
}

/// The cache is keyed on data *shape*, not data values: planning a
/// different dataset of the same shape is a hit, and the hit's session
/// samples the new values — never the cached plan's.
#[test]
fn cache_hit_rebinds_new_data_values() {
    let (k, d, n) = (2, 2, 60);
    let data_a = workloads::hgmm_data(k, d, n, 7);
    let data_b = workloads::hgmm_data(k, d, n, 8);
    let model = Model::compile(models::HGMM).unwrap();

    let plan_a = model
        .plan(hgmm_args(k, d, n), vec![("y", HostValue::Ragged(data_a.points.clone()))])
        .unwrap();
    assert_eq!(plan_a.cache_event(), PlanEvent::Cold);
    let sig_a = signature(&mut plan_a.session(SessionConfig::default()).unwrap(), 10, "mu");

    let plan_b = model
        .plan(hgmm_args(k, d, n), vec![("y", HostValue::Ragged(data_b.points.clone()))])
        .unwrap();
    assert_eq!(plan_b.cache_event(), PlanEvent::Hit, "same shape, different values");
    assert_eq!(plan_b.fingerprint(), plan_a.fingerprint());
    let sig_b = signature(&mut plan_b.session(SessionConfig::default()).unwrap(), 10, "mu");

    // The hit saw dataset B: it must match a fresh compile over B ...
    let fresh = Model::compile(models::HGMM).unwrap();
    let plan = fresh
        .plan(hgmm_args(k, d, n), vec![("y", HostValue::Ragged(data_b.points))])
        .unwrap();
    let sig_fresh = signature(&mut plan.session(SessionConfig::default()).unwrap(), 10, "mu");
    assert_eq!(sig_b, sig_fresh, "cache hit must rebind the new data");
    // ... and differ from dataset A's chain.
    assert_ne!(sig_b.trajectory, sig_a.trajectory, "cached values leaked across plans");
}

/// Fingerprints are stable within a shape and sensitive to anything
/// that could change the specialized artifact: sizes, ragged row
/// layouts, and optimizer flags.
#[test]
fn fingerprint_separates_shapes_and_flags() {
    let (k, d, n) = (2, 2, 50);
    let model = Model::compile(models::HGMM).unwrap();
    let data = workloads::hgmm_data(k, d, n, 3);
    let plan = |n2: usize| {
        let data = workloads::hgmm_data(k, d, n2, 3);
        model.plan(hgmm_args(k, d, n2), vec![("y", HostValue::Ragged(data.points))]).unwrap()
    };
    let base = plan(n);
    assert_eq!(base.fingerprint(), plan(n).fingerprint(), "same shape, same key");
    assert_ne!(base.fingerprint(), plan(n + 1).fingerprint(), "size must change the key");
    let flagged = model
        .plan_opt(
            hgmm_args(k, d, n),
            vec![("y", HostValue::Ragged(data.points))],
            augur::OptFlags { commute: false, ..Default::default() },
        )
        .unwrap();
    assert_ne!(base.fingerprint(), flagged.fingerprint(), "opt flags must change the key");
}

/// Concurrency: when N workers race to plan the *same* shape on one
/// shared model, exactly one builds the specialization and the rest
/// wait for it — the service-registry contract. Pinned: `misses == 1`.
#[test]
fn racing_workers_specialize_a_shape_exactly_once() {
    const WORKERS: usize = 8;
    let (k, d, n) = (2, 2, 40);
    let data = workloads::hgmm_data(k, d, n, 7);
    let model = Model::compile(models::HGMM).unwrap();
    let fingerprints: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                let model = &model;
                let points = data.points.clone();
                scope.spawn(move || {
                    model
                        .plan(hgmm_args(k, d, n), vec![("y", HostValue::Ragged(points))])
                        .unwrap()
                        .fingerprint()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(fingerprints.windows(2).all(|w| w[0] == w[1]), "one shape, one key");
    let stats = model.cache_stats();
    assert_eq!(stats.misses, 1, "same-shape racers must build exactly once");
    assert_eq!(stats.hits, (WORKERS - 1) as u64);
    assert_eq!(stats.entries, 1);

    // Different shapes still build independently (and in parallel).
    std::thread::scope(|scope| {
        for extra in 1..=2usize {
            let model = &model;
            scope.spawn(move || {
                let data = workloads::hgmm_data(k, d, n + extra, 7);
                model
                    .plan(hgmm_args(k, d, n + extra), vec![("y", HostValue::Ragged(data.points))])
                    .unwrap();
            });
        }
    });
    assert_eq!(model.cache_stats().entries, 3);
    assert_eq!(model.cache_stats().misses, 3);
}

/// A binding whose `MvNormal` dimensions disagree is refused at plan time
/// with a typed binding error, not accepted and then failed inside the
/// first sweep's `Gibbs Single(mu)` as a caught shape-assertion panic.
#[test]
fn mismatched_mv_normal_dimensions_are_binding_errors() {
    let (k, d, n) = (3, 2, 30);
    let data = workloads::hgmm_data(k, d, n, 7);
    let model = Model::compile(models::HGMM).unwrap();
    for (i, bad) in [
        (3, HostValue::VecF(vec![0.0; 3])),           // mu_0 of length 3
        (4, HostValue::Mat(Matrix::identity(3))),     // a 3x3 Sigma_0
        (6, HostValue::Mat(Matrix::identity(3))),     // a 3x3 Psi
    ] {
        let mut args = hgmm_args(k, d, n);
        args[i] = bad;
        let err = model
            .plan(args, vec![("y", HostValue::Ragged(data.points.clone()))])
            .map(|_| ())
            .map_err(Error::from)
            .expect_err("mismatched dimensions must not plan");
        assert_eq!(err.kind(), ErrorKind::Binding, "argument {i}: {err}");
        assert!(err.to_string().contains("MvNormal"), "argument {i}: {err}");
    }
    // the well-formed binding still plans and sweeps
    let mut s = model
        .plan(hgmm_args(k, d, n), vec![("y", HostValue::Ragged(data.points))])
        .unwrap()
        .session(SessionConfig::default())
        .unwrap();
    s.init().unwrap();
    s.try_sweep().unwrap();
}

/// A 2x3 matrix binding, or a vector of matrices whose entries are not
/// all the first one's square shape, is refused at plan time with a typed
/// binding error instead of panicking in state setup (or, for a vector
/// of 2x3 matrices, binding cells out of step with their row offsets).
#[test]
fn malformed_matrix_bindings_are_binding_errors() {
    let (k, d, n) = (3, 2, 30);
    let data = workloads::hgmm_data(k, d, n, 7);
    let wide = || Matrix::from_vec(2, 3, vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0]).unwrap();
    fn expect_binding<E: Into<Error>>(planned: Result<augur::Plan, E>, what: &str) {
        let err = planned.map(|_| ()).map_err(Into::into).expect_err(what);
        assert_eq!(err.kind(), ErrorKind::Binding, "{what}: {err}");
    }
    let hgmm = Model::compile(models::HGMM).unwrap();
    let mut args = hgmm_args(k, d, n);
    args[4] = HostValue::Mat(wide());
    expect_binding(hgmm.plan(args, vec![("y", HostValue::Ragged(data.points))]), "2x3 Sigma_0");

    // One covariance per component: a vector-of-matrices argument.
    let per_k = Model::compile(
        "(K, mu_0, S) => {
            param x[k] ~ MvNormal(mu_0, S[k]) for k <- 0 until K ;
        }",
    )
    .unwrap();
    let args = |s: Vec<Matrix>| {
        vec![HostValue::Int(2), HostValue::VecF(vec![0.0; 2]), HostValue::VecMat(s)]
    };
    expect_binding(per_k.plan(args(vec![wide(), wide()]), vec![]), "2x3 matrices");
    expect_binding(
        per_k.plan(args(vec![Matrix::identity(2), Matrix::identity(3)]), vec![]),
        "2x2 then 3x3",
    );
    per_k.plan(args(vec![Matrix::identity(2), Matrix::identity(2)]), vec![]).unwrap();
}

/// The plan cache's economics: answering a same-shape `plan()` from the
/// cache costs at most a fifth of compiling source → plan cold (LDA, 30
/// topics over 12 documents, V = 300; best of 5 each). Both paths bind
/// the data, so the ratio measures the compilation the cache saves.
#[test]
fn cache_hit_is_five_times_cheaper_than_a_cold_compile() {
    const REPS: usize = 5;
    let topics = 30;
    let corpus = workloads::lda_corpus(20, 12, 300, 40, 1200);
    let data = || vec![("w", HostValue::RaggedI(corpus.docs.clone()))];
    let cached = Model::compile(models::LDA).unwrap();
    cached.plan(lda_args(topics, &corpus), data()).unwrap();
    let best_of = |run: &dyn Fn()| {
        (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                run();
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let cold = best_of(&|| {
        Model::compile(models::LDA).unwrap().plan(lda_args(topics, &corpus), data()).unwrap();
    });
    let hit = best_of(&|| {
        cached.plan(lda_args(topics, &corpus), data()).unwrap();
    });
    let stats = cached.cache_stats();
    assert_eq!((stats.misses, stats.hits), (1, REPS as u64), "one cold build, then hits");
    assert!(
        cold >= 5.0 * hit,
        "a cache hit should be >= 5x cheaper than a cold compile: {:.3} ms vs {:.3} ms",
        hit * 1e3,
        cold * 1e3
    );
}
