//! Property tests for the device cost model: virtual time must be
//! monotone in work and never negative, and the §5.4 preference ordering
//! (reduction beats contended atomics at scale) must hold over the whole
//! configuration space the optimizer sees.
//!
//! Inputs are drawn from the in-tree splitmix64 generator with a fixed
//! seed per property, so every run checks the same cases and a failure
//! message carries the inputs that reproduce it.

use augur_math::Prng;
use gpu_sim::{Device, DeviceConfig};

/// Runs `cases` cases of a property, each drawing its inputs from one
/// seeded generator.
fn check(seed: u64, cases: usize, mut case: impl FnMut(&mut Prng)) {
    let mut rng = Prng::seed_from_u64(seed);
    for _ in 0..cases {
        case(&mut rng);
    }
}

/// A uniform integer in `[lo, hi)`.
fn int_in(rng: &mut Prng, lo: u64, hi: u64) -> u64 {
    lo + rng.below((hi - lo) as usize) as u64
}

fn run_kernel(cfg: &DeviceConfig, threads: usize, work_per_thread: u64) -> f64 {
    let mut dev = Device::new(cfg.clone());
    let mut k = dev.begin_kernel();
    for _ in 0..threads {
        k.thread_work(work_per_thread);
    }
    k.finish(threads);
    dev.elapsed_ns()
}

#[test]
fn kernel_time_is_monotone_in_work() {
    let cfg = DeviceConfig::titan_black_like();
    check(0xC057_0001, 256, |rng| {
        let threads = int_in(rng, 1, 10_000) as usize;
        let w1 = int_in(rng, 1, 1000);
        let extra = int_in(rng, 0, 1000);
        let t1 = run_kernel(&cfg, threads, w1);
        let t2 = run_kernel(&cfg, threads, w1 + extra);
        assert!(t2 >= t1, "threads={threads} w1={w1} extra={extra}: {t1} -> {t2}");
        assert!(t1 > 0.0, "threads={threads} w1={w1}: non-positive time {t1}");
    });
}

#[test]
fn more_threads_for_same_total_work_never_hurts() {
    // same total work spread over more threads: the device can only
    // parallelize more (or hit the same bandwidth floor)
    let cfg = DeviceConfig::titan_black_like();
    check(0xC057_0002, 256, |rng| {
        let total = int_in(rng, 1_000, 1_000_000);
        let split = int_in(rng, 1, 64);
        let few = run_kernel(&cfg, split as usize, total / split);
        let many = run_kernel(&cfg, split as usize * 8, total / (split * 8));
        assert!(many <= few * 1.001, "total={total} split={split}: {few} -> {many}");
    });
}

#[test]
fn reduction_beats_hot_atomics_at_scale() {
    let cfg = DeviceConfig::titan_black_like();
    check(0xC057_0003, 64, |rng| {
        let n = int_in(rng, 10_000, 500_000) as usize;
        let mut atomic_dev = Device::new(cfg.clone());
        let mut k = atomic_dev.begin_kernel();
        for _ in 0..n {
            k.thread_work(1);
            k.atomic(0);
        }
        k.finish(n);
        let mut reduce_dev = Device::new(cfg.clone());
        reduce_dev.reduce(n, 1.0);
        assert!(
            reduce_dev.elapsed_ns() < atomic_dev.elapsed_ns(),
            "reduction should beat {n} fully-contended atomics"
        );
    });
}

#[test]
fn transfers_accumulate_linearly() {
    let cfg = DeviceConfig::titan_black_like();
    check(0xC057_0004, 256, |rng| {
        let a = int_in(rng, 1, 1_000_000);
        let b = int_in(rng, 1, 1_000_000);
        let mut one = Device::new(cfg.clone());
        one.transfer(a + b);
        let mut two = Device::new(cfg.clone());
        two.transfer(a);
        two.transfer(b);
        assert!((one.elapsed_ns() - two.elapsed_ns()).abs() < 1e-6, "a={a} b={b}");
    });
}
