//! The statistics the verdicts rest on, and seeded determinism of every
//! generated input.

use augur_math::Prng;
use augur_perfbench::inputs::{self, Scale};
use augur_perfbench::timing::{
    adjusted_rates, beyond, host_speed, median, percentile, quartiles, regression_bound, rel_iqr,
    throughput, windows, Op, REF_NOMINAL_SECS,
};

#[test]
fn quartiles_match_pythons_exclusive_method() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    assert!((rel_iqr(&xs) - 5.5 / 5.5).abs() < 1e-12);
}

#[test]
fn percentiles_are_measured_values_and_count_what_lies_beyond() {
    let xs: Vec<f64> = (1..=200).map(f64::from).collect();
    assert_eq!(percentile(&xs, 50.0), 100.0);
    assert_eq!(percentile(&xs, 95.0), 190.0);
    assert_eq!(beyond(200, 95.0), 10);
    assert_eq!(beyond(100, 95.0), 5);
    assert_eq!(beyond(1000, 99.0), 10);
    assert_eq!(beyond(0, 50.0), 0);
}

#[test]
fn bounds_are_twice_the_spread_and_none_beyond_the_cap() {
    assert_eq!(regression_bound(0.01), Some(0.10));
    assert!((regression_bound(0.07).unwrap() - 0.14).abs() < 1e-12);
    assert_eq!(regression_bound(0.2), Some(0.25));
    assert_eq!(regression_bound(0.3), None);
}

#[test]
fn every_window_counts_toward_the_rate() {
    // Eight windows of 0.5 s; all but the third and sixth ran at half speed.
    let mut ops = Vec::new();
    for w in 0..8 {
        let secs = if w == 2 || w == 5 { 0.01 } else { 0.02 };
        for i in 0..10 {
            ops.push(Op {
                start: w as f64 * 0.5 + i as f64 * 0.04,
                secs,
            });
        }
    }
    let rates: Vec<f64> = windows(&ops, 0.5).iter().map(|w| throughput(w)).collect();
    assert_eq!(rates.len(), 8);
    // Slow windows are the majority, so the median rate is theirs.
    assert!((median(&rates) - 50.0).abs() < 1e-9);
}

#[test]
fn window_rates_are_scaled_by_the_host_speed_of_their_window() {
    // Four windows of 0.5 s, ten 20 ms sweeps each (50/s as measured);
    // the host ran at full speed in the first two and at half speed in
    // the last two, where the reference passes took twice as long.
    let ops: Vec<Op> = (0..40)
        .map(|i| Op {
            start: i as f64 * 0.05,
            secs: 0.02,
        })
        .collect();
    let refs: Vec<Op> = (0..4)
        .map(|w| Op {
            start: w as f64 * 0.5 + 0.01,
            secs: REF_NOMINAL_SECS * if w < 2 { 1.0 } else { 2.0 },
        })
        .collect();
    let rates = adjusted_rates(&ops, &refs, 0.5, throughput);
    assert_eq!(rates.len(), 4);
    for (w, r) in rates.iter().enumerate() {
        let want = if w < 2 { 50.0 } else { 100.0 };
        assert!((r - want).abs() < 1e-9, "window {w}: {r}");
    }
    // a window without a pass of its own takes the median of all passes
    let one = adjusted_rates(&ops[..10], &refs[2..3], 0.5, throughput);
    assert!((one[0] - 100.0).abs() < 1e-9);
    assert!((host_speed(&[REF_NOMINAL_SECS * 4.0]) - 0.25).abs() < 1e-12);
}

#[test]
fn the_same_seed_gives_the_same_inputs() {
    for scale in [Scale::Smoke, Scale::Full] {
        assert_eq!(
            inputs::lda_native(3, scale).data,
            inputs::lda_native(3, scale).data
        );
        assert_eq!(
            inputs::hlr_hmc(3, scale).data,
            inputs::hlr_hmc(3, scale).data
        );
        assert_eq!(
            inputs::hgmm_gibbs(3, scale).args,
            inputs::hgmm_gibbs(3, scale).args
        );
        assert_eq!(
            inputs::hgmm_gibbs(3, scale).init_z,
            inputs::hgmm_gibbs(3, scale).init_z
        );
    }
    assert_ne!(
        inputs::hlr_hmc(3, Scale::Smoke).data,
        inputs::hlr_hmc(4, Scale::Smoke).data
    );
}

#[test]
fn the_same_seed_gives_the_same_arrivals_and_request_seeds() {
    let plan = |seed| {
        let mut rng = Prng::seed_from_u64(seed);
        let mut grow = 0;
        (inputs::schedule(&mut rng, 3, 400, 2.0, &mut grow), grow)
    };
    let (a, grow_a) = plan(9);
    let (b, grow_b) = plan(9);
    assert_eq!(a, b);
    assert_eq!(grow_a, grow_b);
    assert_ne!(a, plan(10).0);
    assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
    assert!(a.iter().all(|p| (0.0..2.0).contains(&p.due)));
    // ~10% score/explain, ~5% of sample requests with a new shape
    let side = a
        .iter()
        .filter(|p| !matches!(p.ask, inputs::Ask::Sample { .. }))
        .count();
    assert!((20..=60).contains(&side), "{side} score/explain requests");
    assert!((5..=35).contains(&grow_a), "{grow_a} new shapes");
}
