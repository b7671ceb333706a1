//! Steady-state sweeps perform **zero heap allocation** — the plan
//! lifecycle's runtime claim, enforced with a counting global allocator.
//!
//! All buffers are bound up front by size inference (§5.2 of the paper
//! allocates everything before the first sweep); after one warm-up sweep
//! touches every code path, a sweep must not allocate on any executor
//! lane — tree, tape, or native (skipped with a note when the host has no
//! C toolchain). This file contains a single `#[test]` so the process-wide
//! counter sees only the session under measurement (the cargo test
//! harness would otherwise interleave allocations from sibling tests).
//!
//! Known allocation sources deliberately *outside* steady state and
//! therefore outside the measured window: plan/session construction,
//! `init()` (ancestral sampling builds its scratch), the warm-up sweeps,
//! checkpoint writes, and the JSONL trace sink's `BufWriter` (no trace
//! is configured here).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use augur::{ExecBackend, HostValue, McmcConfig, Model, SessionConfig};
use augurv2::models::{hgmm_args, lda_args};
use augurv2::{models, workloads};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// While set, the first allocation panics instead of counting — the
/// resulting unwind is caught by `try_sweep`'s kernel isolation, so a
/// regression fails with the *name of the allocating kernel* (and a
/// backtrace under `RUST_BACKTRACE=1`) rather than a bare count.
static TRAP: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: defers every operation to `System`; only adds a counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if TRAP.swap(0, Ordering::Relaxed) == 1 {
            panic!("steady-state alloc of {} bytes", layout.size());
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if TRAP.swap(0, Ordering::Relaxed) == 1 {
            panic!("steady-state alloc_zeroed of {} bytes", layout.size());
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if TRAP.swap(0, Ordering::Relaxed) == 1 {
            panic!("steady-state realloc to {new_size} bytes");
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations observed across `sweeps` steady-state sweeps, after
/// `warmup` unmeasured sweeps.
fn allocs_during_sweeps(s: &mut augur::Session, warmup: usize, sweeps: usize) -> u64 {
    s.init().unwrap();
    for _ in 0..warmup {
        s.sweep();
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    TRAP.store(1, Ordering::Relaxed);
    for _ in 0..sweeps {
        s.sweep();
    }
    TRAP.store(0, Ordering::Relaxed);
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn steady_state_sweeps_do_not_allocate() {
    let cases: Vec<(&str, augur::Plan, &str)> = {
        let (k, d, n) = (2, 2, 50);
        let mix = workloads::hgmm_data(k, d, n, 5);
        let hgmm = Model::compile(models::HGMM)
            .unwrap()
            .plan(hgmm_args(k, d, n), vec![("y", HostValue::Ragged(mix.points))])
            .unwrap();

        let topics = 4;
        let corpus = workloads::lda_corpus(3, 12, 100, 18, 9);
        let lda = Model::compile(models::LDA)
            .unwrap()
            .plan(lda_args(topics, &corpus), vec![("w", HostValue::RaggedI(corpus.docs))])
            .unwrap();

        // The benchmark's topic count over uneven documents, one a single
        // token: the optimizer's scratch is sized from K.
        let topics20 = 20;
        let mut corpus = workloads::lda_corpus(topics20, 12, 200, 24, 23);
        corpus.docs[3].truncate(1);
        corpus.lens[3] = 1;
        let lda20 = Model::compile(models::LDA)
            .unwrap()
            .plan(lda_args(topics20, &corpus), vec![("w", HostValue::RaggedI(corpus.docs))])
            .unwrap();

        let (hn, hd) = (40, 4);
        let log = workloads::logistic_data(hn, hd, 13);
        let hlr = Model::compile(models::HLR)
            .unwrap()
            .plan(
                vec![
                    HostValue::Real(1.0),
                    HostValue::Int(hn as i64),
                    HostValue::Int(hd as i64),
                    HostValue::Ragged(log.x),
                ],
                vec![("y", HostValue::VecF(log.y))],
            )
            .unwrap();
        vec![
            ("hgmm", hgmm, "mu"),
            ("lda", lda, "theta"),
            ("lda-k20", lda20, "theta"),
            ("hlr", hlr, "theta"),
        ]
    };

    let mcmc = McmcConfig { step_size: 0.01, leapfrog_steps: 5, ..Default::default() };
    for (name, plan, param) in &cases {
        for exec in [ExecBackend::Tree, ExecBackend::Tape, ExecBackend::Native] {
            let native_ok =
                plan.backends().iter().any(|b| b.backend == ExecBackend::Native && b.available);
            if exec == ExecBackend::Native && !native_ok {
                eprintln!("{name}: no C toolchain, skipping the native lane");
                continue;
            }
            let mut s = plan
                .session(SessionConfig {
                    backend: exec,
                    threads: 1,
                    mcmc: mcmc.clone(),
                    ..Default::default()
                })
                .unwrap();
            assert_eq!(s.backend(), exec, "{name}/{exec:?}: {:?}", s.backend_fallback());
            let n = allocs_during_sweeps(&mut s, 3, 10);
            assert_eq!(n, 0, "{name}/{exec:?}: {n} heap allocations across 10 steady-state sweeps");
            // the chain actually moved — this wasn't a no-op sweep
            assert!(s.param(param).unwrap().iter().all(|x| x.is_finite()));
            assert_eq!(s.sweeps(), 13, "{name}/{exec:?} ran the expected sweeps");
        }
    }
}
