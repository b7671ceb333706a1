//! Chain diagnostics: effective sample size, autocorrelation, and split-R̂.
//!
//! The paper compares samplers by wall-clock to a log-predictive plateau
//! (Fig. 10); a downstream user additionally wants per-chain health
//! numbers. These are the standard estimators (Geyer initial positive
//! sequence for ESS; Gelman–Rubin split-R̂), surfaced through
//! [`crate::prelude`] and folded into [`crate::chains::Chains::report`].

use crate::Error;

/// Autocovariance at lag `k` (biased, as used by the ESS estimator).
pub fn autocovariance(xs: &[f64], k: usize) -> f64 {
    let n = xs.len();
    if k >= n {
        return 0.0;
    }
    let m = augur_math::vecops::mean(xs);
    xs[..n - k].iter().zip(&xs[k..]).map(|(a, b)| (a - m) * (b - m)).sum::<f64>() / n as f64
}

/// Effective sample size via Geyer's initial-positive-sequence estimator:
/// sum paired autocorrelations `ρ(2t) + ρ(2t+1)` while the pair sum stays
/// positive.
///
/// The trace is centered once up front, so each lag costs one
/// multiply-add pass — not a fresh mean computation per lag.
///
/// Degenerate traces get a defined answer instead of NaN: a constant
/// (zero-variance) chain and a chain containing non-finite values both
/// return `n` — every draw carries the same information, so the estimator
/// has nothing to discount. (`NaN <= 0.0` is false, so without the
/// explicit finiteness guards a poisoned `c0` would propagate through the
/// ratio and survive the final clamp.)
pub fn ess(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 4 {
        return n as f64;
    }
    let m = augur_math::vecops::mean(xs);
    let centered: Vec<f64> = xs.iter().map(|x| x - m).collect();
    let acov = |k: usize| -> f64 {
        centered[..n - k].iter().zip(&centered[k..]).map(|(a, b)| a * b).sum::<f64>() / n as f64
    };
    let c0 = acov(0);
    if c0 <= 0.0 || !c0.is_finite() {
        return n as f64;
    }
    let mut sum_rho = 0.0;
    let mut t = 1;
    while t + 1 < n {
        let pair = (acov(t) + acov(t + 1)) / c0;
        if pair <= 0.0 {
            break;
        }
        sum_rho += pair;
        t += 2;
    }
    let ess = n as f64 / (1.0 + 2.0 * sum_rho);
    if !ess.is_finite() {
        return n as f64;
    }
    ess.clamp(1.0, n as f64)
}

/// Split-R̂ (Gelman–Rubin with each chain halved). Values near 1 indicate
/// the chains agree; > 1.05 is conventionally suspicious.
///
/// # Errors
///
/// Returns [`Error::NoChains`] for an empty chain set and
/// [`Error::ShortChain`] for any chain with fewer than 4 draws.
pub fn split_rhat(chains: &[Vec<f64>]) -> Result<f64, Error> {
    if chains.is_empty() {
        return Err(Error::NoChains);
    }
    let mut halves: Vec<&[f64]> = Vec::new();
    for c in chains {
        if c.len() < 4 {
            return Err(Error::ShortChain { len: c.len(), min: 4 });
        }
        let mid = c.len() / 2;
        halves.push(&c[..mid]);
        halves.push(&c[mid..]);
    }
    let m = halves.len() as f64;
    let n = halves.iter().map(|h| h.len()).min().expect("non-empty") as f64;
    let means: Vec<f64> = halves.iter().map(|h| augur_math::vecops::mean(h)).collect();
    let grand = augur_math::vecops::mean(&means);
    let b = n / (m - 1.0) * means.iter().map(|mu| (mu - grand) * (mu - grand)).sum::<f64>();
    let w = halves.iter().map(|h| augur_math::vecops::variance(h)).sum::<f64>() / m;
    if w <= 0.0 {
        return Ok(1.0);
    }
    let var_plus = (n - 1.0) / n * w + b / n;
    Ok((var_plus / w).sqrt())
}

/// A Welford (single-pass) mean/variance accumulator.
///
/// `sample_variance` matches [`augur_math::vecops::variance`]'s
/// definition — unbiased `/(n-1)`, and `0.0` for fewer than two
/// observations — so an accumulator fed a slice agrees with the batch
/// function to floating-point reassociation error (≪ 1e-9 at the
/// magnitudes chains produce), which is the contract the streaming
/// split-R̂ below is tested against.
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Welford {
        Welford::default()
    }

    /// Folds in one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Observations folded in so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The running mean (0.0 when empty, matching
    /// [`augur_math::vecops::mean`]).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The unbiased sample variance (0.0 below two observations).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        self.m2 / (self.n - 1) as f64
    }
}

/// A streaming per-parameter convergence estimator over a fixed set of
/// chains: push scalar draws as they arrive (per chain, in sweep
/// order), snapshot [`ess_sum`](OnlineParamDiag::ess_sum) /
/// [`split_rhat`](OnlineParamDiag::split_rhat) at any point — the
/// serving layer does so at slice boundaries and exports the result as
/// gauges.
///
/// The split point of split-R̂ is `len/2` *of the current trace*, so it
/// moves as draws arrive; the estimator therefore keeps the raw traces
/// (the O(n) memory is the same the service already pays to return the
/// draws) and re-runs Welford accumulators over the current halves at
/// snapshot time. ESS reuses [`ess`] per chain unchanged. Snapshots
/// match the batch functions on the same prefix: exactly for ESS, to
/// well under 1e-9 for split-R̂ (single-pass vs. two-pass variance),
/// including the degenerate guards — constant chains give
/// `ess_sum == total draws` and `R̂ == 1.0`, NaN-poisoned chains give
/// `ess_sum == total draws` and a NaN R̂, exactly as the batch path
/// does.
#[derive(Debug, Clone)]
pub struct OnlineParamDiag {
    chains: Vec<Vec<f64>>,
}

impl OnlineParamDiag {
    /// An estimator over `chains` chains with no draws yet.
    pub fn new(chains: usize) -> OnlineParamDiag {
        OnlineParamDiag { chains: vec![Vec::new(); chains] }
    }

    /// Appends one draw to chain `chain` (in sweep order).
    ///
    /// # Panics
    ///
    /// Panics if `chain` is out of range.
    pub fn push(&mut self, chain: usize, x: f64) {
        self.chains[chain].push(x);
    }

    /// Number of chains tracked.
    pub fn chains(&self) -> usize {
        self.chains.len()
    }

    /// Draws recorded so far in the shortest chain.
    pub fn min_len(&self) -> usize {
        self.chains.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// ESS summed across chains — the same aggregation
    /// [`crate::chains::Chains::report`] uses for its per-parameter
    /// diagnostics, computed with the identical per-chain [`ess`].
    pub fn ess_sum(&self) -> f64 {
        self.chains.iter().map(|c| ess(c)).sum()
    }

    /// Streaming split-R̂ over the draws recorded so far: each chain's
    /// current trace is halved at `len/2` and a [`Welford`] accumulator
    /// runs over each half, then the halves enter the Gelman–Rubin
    /// B/W formula exactly as [`split_rhat`] computes it.
    ///
    /// # Errors
    ///
    /// [`Error::NoChains`] with zero chains, [`Error::ShortChain`] while
    /// any chain still has fewer than 4 draws.
    pub fn split_rhat(&self) -> Result<f64, Error> {
        if self.chains.is_empty() {
            return Err(Error::NoChains);
        }
        let mut halves: Vec<Welford> = Vec::with_capacity(self.chains.len() * 2);
        let mut min_half = usize::MAX;
        for c in &self.chains {
            if c.len() < 4 {
                return Err(Error::ShortChain { len: c.len(), min: 4 });
            }
            let mid = c.len() / 2;
            for half in [&c[..mid], &c[mid..]] {
                let mut acc = Welford::new();
                for &x in half {
                    acc.push(x);
                }
                min_half = min_half.min(half.len());
                halves.push(acc);
            }
        }
        let m = halves.len() as f64;
        let n = min_half as f64;
        let mut grand = Welford::new();
        for h in &halves {
            grand.push(h.mean());
        }
        let grand = grand.mean();
        let b = n / (m - 1.0)
            * halves.iter().map(|h| (h.mean() - grand) * (h.mean() - grand)).sum::<f64>();
        let w = halves.iter().map(Welford::sample_variance).sum::<f64>() / m;
        if w <= 0.0 {
            return Ok(1.0);
        }
        let var_plus = (n - 1.0) / n * w + b / n;
        Ok((var_plus / w).sqrt())
    }
}

/// Per-second effective sampling rate: `ess / seconds` — the quantity the
/// Fig. 10 comparison is really about.
pub fn ess_per_sec(xs: &[f64], seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return f64::INFINITY;
    }
    ess(xs) / seconds
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_dist::Prng;

    #[test]
    fn iid_draws_have_full_ess() {
        let mut rng = Prng::seed_from_u64(1);
        let xs: Vec<f64> = (0..4000).map(|_| rng.std_normal()).collect();
        let e = ess(&xs);
        assert!(e > 2500.0, "iid ESS {e} of 4000");
    }

    #[test]
    fn ar1_ess_matches_closed_form() {
        // x_t = ρ x_{t-1} + ε has asymptotic ESS n·(1-ρ)/(1+ρ).
        for (rho, seed) in [(0.5, 2u64), (0.9, 7)] {
            let n = 8000;
            let mut rng = Prng::seed_from_u64(seed);
            let mut x = 0.0;
            let xs: Vec<f64> = (0..n)
                .map(|_| {
                    x = rho * x + rng.std_normal();
                    x
                })
                .collect();
            let e = ess(&xs);
            let expect = n as f64 * (1.0 - rho) / (1.0 + rho);
            assert!(
                e < expect * 2.5 && e > expect / 2.5,
                "AR(1) ρ={rho}: ESS {e}, closed form ≈ {expect}"
            );
        }
    }

    #[test]
    fn centered_ess_equals_per_lag_mean_recomputation() {
        // The hoisted centering must not change the estimate: the biased
        // per-lag autocovariance uses the full-trace mean either way.
        let mut rng = Prng::seed_from_u64(11);
        let mut x = 0.0;
        let xs: Vec<f64> = (0..500)
            .map(|_| {
                x = 0.7 * x + rng.std_normal();
                x
            })
            .collect();
        let c0 = autocovariance(&xs, 0);
        let mut sum_rho = 0.0;
        let mut t = 1;
        while t + 1 < xs.len() {
            let pair = (autocovariance(&xs, t) + autocovariance(&xs, t + 1)) / c0;
            if pair <= 0.0 {
                break;
            }
            sum_rho += pair;
            t += 2;
        }
        let slow = (xs.len() as f64 / (1.0 + 2.0 * sum_rho)).clamp(1.0, xs.len() as f64);
        assert!((ess(&xs) - slow).abs() < 1e-9);
    }

    #[test]
    fn rhat_near_one_for_same_distribution() {
        let mut rng = Prng::seed_from_u64(3);
        let chains: Vec<Vec<f64>> =
            (0..4).map(|_| (0..1000).map(|_| rng.std_normal()).collect()).collect();
        let r = split_rhat(&chains).unwrap();
        assert!((r - 1.0).abs() < 0.03, "R̂ {r}");
    }

    #[test]
    fn rhat_flags_disagreeing_chains() {
        let mut rng = Prng::seed_from_u64(4);
        let a: Vec<f64> = (0..1000).map(|_| rng.std_normal()).collect();
        let b: Vec<f64> = (0..1000).map(|_| 5.0 + rng.std_normal()).collect();
        let r = split_rhat(&[a, b]).unwrap();
        assert!(r > 1.2, "R̂ {r} should flag separated chains");
    }

    #[test]
    fn rhat_errors_are_typed() {
        match split_rhat(&[]) {
            Err(Error::NoChains) => {}
            other => panic!("expected NoChains, got {other:?}"),
        }
        match split_rhat(&[vec![1.0, 2.0, 3.0]]) {
            Err(Error::ShortChain { len: 3, min: 4 }) => {}
            other => panic!("expected ShortChain, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_chains_get_a_defined_ess() {
        // constant chain: zero variance, full information per draw
        let constant = vec![2.5; 100];
        assert_eq!(ess(&constant), 100.0);
        // a NaN draw must not poison the estimate (NaN c0 compares false
        // against <= 0.0, so only an explicit guard catches it)
        let mut poisoned: Vec<f64> = (0..50).map(|i| i as f64).collect();
        poisoned[7] = f64::NAN;
        let e = ess(&poisoned);
        assert!(e.is_finite(), "poisoned-chain ESS {e}");
        assert_eq!(e, 50.0);
        let mut inf: Vec<f64> = (0..50).map(|i| i as f64).collect();
        inf[3] = f64::INFINITY;
        assert!(ess(&inf).is_finite());
    }

    #[test]
    fn autocovariance_lag_zero_is_variance_scale() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let c0 = autocovariance(&xs, 0);
        assert!((c0 - 1.25).abs() < 1e-12); // biased (/n) variance
        assert_eq!(autocovariance(&xs, 10), 0.0);
    }

    #[test]
    fn ess_per_sec_handles_degenerate_time() {
        assert!(ess_per_sec(&[1.0, 2.0, 3.0, 4.0], 0.0).is_infinite());
    }

    #[test]
    fn welford_matches_vecops_variance() {
        let mut rng = Prng::seed_from_u64(21);
        let xs: Vec<f64> = (0..257).map(|_| 3.0 + 2.0 * rng.std_normal()).collect();
        let mut acc = Welford::new();
        for &x in &xs {
            acc.push(x);
        }
        assert_eq!(acc.count(), 257);
        assert!((acc.mean() - augur_math::vecops::mean(&xs)).abs() < 1e-12);
        assert!((acc.sample_variance() - augur_math::vecops::variance(&xs)).abs() < 1e-12);
        // Degenerate counts follow the batch definitions.
        let mut one = Welford::new();
        one.push(5.0);
        assert_eq!(one.sample_variance(), 0.0);
        assert_eq!(Welford::new().mean(), 0.0);
    }

    #[test]
    fn online_diag_matches_batch_at_every_prefix() {
        let mut rng = Prng::seed_from_u64(33);
        let chains: Vec<Vec<f64>> = (0..3)
            .map(|_| {
                let mut x = 0.0;
                (0..120)
                    .map(|_| {
                        x = 0.6 * x + rng.std_normal();
                        x
                    })
                    .collect()
            })
            .collect();
        let mut online = OnlineParamDiag::new(3);
        for sweep in 0..120 {
            for (c, chain) in chains.iter().enumerate() {
                online.push(c, chain[sweep]);
            }
            if sweep + 1 < 4 {
                assert!(matches!(online.split_rhat(), Err(Error::ShortChain { min: 4, .. })));
                continue;
            }
            let prefix: Vec<Vec<f64>> = chains.iter().map(|c| c[..=sweep].to_vec()).collect();
            let batch_ess: f64 = prefix.iter().map(|c| ess(c)).sum();
            assert!(
                (online.ess_sum() - batch_ess).abs() <= 1e-9,
                "sweep {sweep}: ess {} vs {batch_ess}",
                online.ess_sum()
            );
            let batch_rhat = split_rhat(&prefix).unwrap();
            let online_rhat = online.split_rhat().unwrap();
            assert!(
                (online_rhat - batch_rhat).abs() <= 1e-9,
                "sweep {sweep}: rhat {online_rhat} vs {batch_rhat}"
            );
        }
    }

    #[test]
    fn online_diag_guards_match_batch() {
        // Constant chains: zero within-half variance → R̂ defined as 1,
        // ESS as n per chain.
        let mut constant = OnlineParamDiag::new(2);
        for _ in 0..10 {
            constant.push(0, 2.5);
            constant.push(1, 2.5);
        }
        assert_eq!(constant.ess_sum(), 20.0);
        assert_eq!(constant.split_rhat().unwrap(), 1.0);
        // A NaN draw: ESS falls back to n (the batch guard), R̂ goes NaN
        // on both paths.
        let mut poisoned = OnlineParamDiag::new(1);
        for i in 0..10 {
            poisoned.push(0, if i == 3 { f64::NAN } else { i as f64 });
        }
        assert_eq!(poisoned.ess_sum(), 10.0);
        let batch: Vec<f64> = (0..10).map(|i| if i == 3 { f64::NAN } else { i as f64 }).collect();
        assert!(poisoned.split_rhat().unwrap().is_nan());
        assert!(split_rhat(&[batch]).unwrap().is_nan());
        // Typed errors mirror the batch surface.
        assert!(matches!(OnlineParamDiag::new(0).split_rhat(), Err(Error::NoChains)));
    }
}
