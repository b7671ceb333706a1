//! The in-tree pseudo-random number source.
//!
//! The reproduction is built to run on a hermetic, network-less machine,
//! so the generator is implemented here rather than pulled from an
//! external crate: a splitmix64 core (Steele, Lea & Flood 2014) — the
//! same mixing function the backend already uses to derive per-thread
//! `curand`-style streams — drives the primitive sampling algorithms that
//! the AugurV2 runtime library provides (§6.2).

/// The pseudo-random number source used by every sampler in this
/// reproduction.
///
/// `Prng` wraps a splitmix64 stream and implements the primitive sampling
/// algorithms that the AugurV2 runtime library provides (§6.2): normal
/// (Marsaglia polar), gamma (Marsaglia–Tsang), beta, Dirichlet,
/// categorical, Poisson, exponential. Higher-level distribution sampling
/// in `augur-dist` and all MCMC kernels in the backend draw exclusively
/// from a `Prng`, so a fixed seed makes entire inference runs
/// reproducible.
///
/// # Example
///
/// ```
/// use augur_math::Prng;
///
/// let mut a = Prng::seed_from_u64(42);
/// let mut b = Prng::seed_from_u64(42);
/// assert_eq!(a.uniform(), b.uniform());
/// ```
#[derive(Debug, Clone)]
pub struct Prng {
    state: u64,
    /// Cached second value from the last polar-normal draw.
    spare_normal: Option<f64>,
}

impl Prng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        Prng { state: seed, spare_normal: None }
    }

    /// The generator's raw internal state: the splitmix64 counter plus
    /// the bit pattern of the cached polar-normal spare, if one is
    /// pending. Together with [`Prng::from_state_words`] this round-trips
    /// the generator bit-exactly — the basis of checkpoint/resume.
    pub fn state_words(&self) -> (u64, Option<u64>) {
        (self.state, self.spare_normal.map(f64::to_bits))
    }

    /// Rebuilds a generator from [`Prng::state_words`] output. The
    /// restored generator produces exactly the stream the saved one would
    /// have produced, including the pending polar-normal spare.
    pub fn from_state_words(state: u64, spare_bits: Option<u64>) -> Prng {
        Prng { state, spare_normal: spare_bits.map(f64::from_bits) }
    }

    /// The splitmix64 counter itself, for code that steps the stream
    /// outside Rust: the native backend's inline categorical draw adds
    /// the golden-gamma increment and mixes, exactly as
    /// [`Prng::next_u64`] does.
    pub fn counter_mut(&mut self) -> &mut u64 {
        &mut self.state
    }

    /// The next raw 64-bit word of the stream (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Draws a uniform value in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 high-quality mantissa bits
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Draws a uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "uniform_range requires lo < hi");
        lo + (hi - lo) * self.uniform()
    }

    /// Draws a uniform integer in `[0, n)` (Lemire's multiply-shift).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Draws a standard normal via the Marsaglia polar method.
    pub fn std_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        loop {
            let u = 2.0 * self.uniform() - 1.0;
            let v = 2.0 * self.uniform() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let f = (-2.0 * s.ln() / s).sqrt();
                self.spare_normal = Some(v * f);
                return u * f;
            }
        }
    }

    /// Draws from `Normal(mu, var)` (variance parameterization, as in the
    /// paper's models).
    ///
    /// # Panics
    ///
    /// Panics if `var < 0`.
    pub fn normal(&mut self, mu: f64, var: f64) -> f64 {
        assert!(var >= 0.0, "normal variance must be non-negative");
        mu + var.sqrt() * self.std_normal()
    }

    /// Draws from `Exponential(rate)`.
    ///
    /// # Panics
    ///
    /// Panics if `rate <= 0`.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        let u = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        -u.ln() / rate
    }

    /// Draws from `Gamma(shape, rate)` via Marsaglia–Tsang, with the usual
    /// boost for `shape < 1`.
    ///
    /// # Panics
    ///
    /// Panics if `shape <= 0` or `rate <= 0`.
    pub fn gamma(&mut self, shape: f64, rate: f64) -> f64 {
        assert!(shape > 0.0 && rate > 0.0, "gamma parameters must be positive");
        if shape < 1.0 {
            // Γ(a) = Γ(a+1) · U^{1/a}
            let u = loop {
                let u = self.uniform();
                if u > 0.0 {
                    break u;
                }
            };
            return self.gamma(shape + 1.0, rate) * u.powf(1.0 / shape);
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = self.std_normal();
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v = v * v * v;
            let u = self.uniform();
            if u < 1.0 - 0.0331 * x.powi(4)
                || (u > 0.0 && u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()))
            {
                return d * v / rate;
            }
        }
    }

    /// Draws from `InvGamma(shape, scale)`.
    ///
    /// # Panics
    ///
    /// Panics if `shape <= 0` or `scale <= 0`.
    pub fn inv_gamma(&mut self, shape: f64, scale: f64) -> f64 {
        1.0 / self.gamma(shape, scale)
    }

    /// Draws from `Beta(a, b)` via the two-gamma construction.
    ///
    /// # Panics
    ///
    /// Panics if `a <= 0` or `b <= 0`.
    pub fn beta(&mut self, a: f64, b: f64) -> f64 {
        let x = self.gamma(a, 1.0);
        let y = self.gamma(b, 1.0);
        x / (x + y)
    }

    /// Draws from `Bernoulli(p)`, returning 0 or 1.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn bernoulli(&mut self, p: f64) -> u8 {
        assert!((0.0..=1.0).contains(&p), "bernoulli p must be in [0,1]");
        u8::from(self.uniform() < p)
    }

    /// Draws an index from a (not necessarily normalized) non-negative
    /// weight vector by inverse-CDF scan.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to a non-positive value.
    pub fn categorical(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            !weights.is_empty() && total > 0.0 && total.is_finite(),
            "categorical weights must be non-empty with positive finite sum"
        );
        let mut t = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            t -= w;
            if t < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Draws an index given *log*-weights, using the Gumbel-free
    /// exponentiate-and-scan with max subtraction.
    ///
    /// # Panics
    ///
    /// Panics if `log_weights` is empty or all `-inf`.
    pub fn categorical_log(&mut self, log_weights: &[f64]) -> usize {
        let m = log_weights.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(m > f64::NEG_INFINITY, "categorical_log: all weights are zero");
        // Inline exponentiate-and-scan (no scratch buffer): same draw as
        // materializing the weights and calling `categorical`.
        let total: f64 = log_weights.iter().map(|l| (l - m).exp()).sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "categorical weights must be non-empty with positive finite sum"
        );
        let mut t = self.uniform() * total;
        for (i, l) in log_weights.iter().enumerate() {
            t -= (l - m).exp();
            if t < 0.0 {
                return i;
            }
        }
        log_weights.len() - 1
    }

    /// Fills `out` with a `Dirichlet(alpha)` draw.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ or any `alpha` is non-positive.
    pub fn dirichlet(&mut self, alpha: &[f64], out: &mut [f64]) {
        assert_eq!(alpha.len(), out.len(), "dirichlet length mismatch");
        for (o, &a) in out.iter_mut().zip(alpha) {
            *o = self.gamma(a, 1.0);
        }
        crate::vecops::normalize(out);
    }

    /// Draws from `Poisson(lambda)`. Uses Knuth's method for small `lambda`
    /// and additivity-based chunking for large `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda < 0`.
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        assert!(lambda >= 0.0, "poisson lambda must be non-negative");
        if lambda == 0.0 {
            return 0;
        }
        // Split large rates using Poisson additivity so the Knuth loop's
        // running product never underflows (e^-400 ≈ 1e-174 is still a
        // normal f64); each chunk is sampled exactly.
        let mut total = 0u64;
        let mut remaining = lambda;
        while remaining > 400.0 {
            total += self.poisson_knuth(400.0);
            remaining -= 400.0;
        }
        total + self.poisson_knuth(remaining)
    }

    fn poisson_knuth(&mut self, lambda: f64) -> u64 {
        if lambda <= 0.0 {
            return 0;
        }
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.uniform();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Draws a chi-squared value with `df` degrees of freedom (used by the
    /// Bartlett decomposition for Wishart sampling).
    ///
    /// # Panics
    ///
    /// Panics if `df <= 0`.
    pub fn chi_squared(&mut self, df: f64) -> f64 {
        self.gamma(df / 2.0, 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecops::{mean, variance};

    fn draws<F: FnMut(&mut Prng) -> f64>(n: usize, seed: u64, mut f: F) -> Vec<f64> {
        let mut rng = Prng::seed_from_u64(seed);
        (0..n).map(|_| f(&mut rng)).collect()
    }

    #[test]
    fn determinism_across_clones() {
        let mut a = Prng::seed_from_u64(3);
        let mut b = a.clone();
        for _ in 0..100 {
            assert_eq!(a.std_normal().to_bits(), b.std_normal().to_bits());
        }
    }

    #[test]
    fn distinct_seeds_distinct_streams() {
        let mut a = Prng::seed_from_u64(1);
        let mut b = Prng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_stays_in_unit_interval() {
        let mut rng = Prng::seed_from_u64(99);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn below_covers_range_uniformly() {
        let mut rng = Prng::seed_from_u64(13);
        let mut counts = [0usize; 5];
        for _ in 0..50_000 {
            counts[rng.below(5)] += 1;
        }
        for c in counts {
            assert!((c as f64 / 50_000.0 - 0.2).abs() < 0.01, "count {c}");
        }
    }

    #[test]
    fn normal_moments() {
        let xs = draws(60_000, 1, |r| r.normal(2.0, 9.0));
        assert!((mean(&xs) - 2.0).abs() < 0.08, "mean {}", mean(&xs));
        assert!((variance(&xs) - 9.0).abs() < 0.35, "var {}", variance(&xs));
    }

    #[test]
    fn gamma_moments() {
        // Gamma(shape=3, rate=2): mean 1.5, var 0.75
        let xs = draws(60_000, 2, |r| r.gamma(3.0, 2.0));
        assert!((mean(&xs) - 1.5).abs() < 0.03);
        assert!((variance(&xs) - 0.75).abs() < 0.05);
    }

    #[test]
    fn gamma_small_shape_moments() {
        // Gamma(0.5, 1): mean 0.5, var 0.5
        let xs = draws(80_000, 3, |r| r.gamma(0.5, 1.0));
        assert!((mean(&xs) - 0.5).abs() < 0.03);
        assert!((variance(&xs) - 0.5).abs() < 0.08);
    }

    #[test]
    fn beta_moments() {
        // Beta(2, 5): mean 2/7 ≈ 0.2857
        let xs = draws(40_000, 4, |r| r.beta(2.0, 5.0));
        assert!((mean(&xs) - 2.0 / 7.0).abs() < 0.01);
        assert!(xs.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn exponential_moments() {
        let xs = draws(50_000, 5, |r| r.exponential(4.0));
        assert!((mean(&xs) - 0.25).abs() < 0.01);
        assert!(xs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn categorical_frequencies() {
        let w = [1.0, 2.0, 7.0];
        let mut counts = [0usize; 3];
        let mut rng = Prng::seed_from_u64(6);
        for _ in 0..50_000 {
            counts[rng.categorical(&w)] += 1;
        }
        assert!((counts[2] as f64 / 50_000.0 - 0.7).abs() < 0.02);
        assert!((counts[0] as f64 / 50_000.0 - 0.1).abs() < 0.01);
    }

    #[test]
    fn categorical_log_matches_linear() {
        let w = [0.2f64, 0.5, 0.3];
        let lw: Vec<f64> = w.iter().map(|x| x.ln() + 100.0).collect(); // shifted
        let mut counts = [0usize; 3];
        let mut rng = Prng::seed_from_u64(7);
        for _ in 0..50_000 {
            counts[rng.categorical_log(&lw)] += 1;
        }
        assert!((counts[1] as f64 / 50_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn dirichlet_on_simplex_with_right_mean() {
        let alpha = [2.0, 3.0, 5.0];
        let mut rng = Prng::seed_from_u64(8);
        let mut acc = [0.0; 3];
        let mut out = [0.0; 3];
        let n = 20_000;
        for _ in 0..n {
            rng.dirichlet(&alpha, &mut out);
            let s: f64 = out.iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            for (a, &o) in acc.iter_mut().zip(&out) {
                *a += o;
            }
        }
        assert!((acc[2] / n as f64 - 0.5).abs() < 0.01);
    }

    #[test]
    fn poisson_small_and_large_lambda() {
        let xs = draws(40_000, 9, |r| r.poisson(3.5) as f64);
        assert!((mean(&xs) - 3.5).abs() < 0.06);
        let ys = draws(40_000, 10, |r| r.poisson(120.0) as f64);
        assert!((mean(&ys) - 120.0).abs() < 0.4);
        assert!((variance(&ys) - 120.0).abs() < 6.0);
    }

    #[test]
    fn bernoulli_frequency() {
        let xs = draws(40_000, 11, |r| r.bernoulli(0.3) as f64);
        assert!((mean(&xs) - 0.3).abs() < 0.01);
    }

    #[test]
    fn chi_squared_mean_is_df() {
        let xs = draws(40_000, 12, |r| r.chi_squared(7.0));
        assert!((mean(&xs) - 7.0).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "categorical weights")]
    fn categorical_rejects_zero_sum() {
        Prng::seed_from_u64(0).categorical(&[0.0, 0.0]);
    }

    /// A generator restored from its state words continues the exact
    /// stream, including the pending polar-normal spare.
    #[test]
    fn state_words_roundtrip_continues_stream() {
        let mut a = Prng::seed_from_u64(99);
        a.std_normal(); // leaves a spare cached
        let (state, spare) = a.state_words();
        assert!(spare.is_some());
        let mut b = Prng::from_state_words(state, spare);
        for _ in 0..64 {
            assert_eq!(a.std_normal().to_bits(), b.std_normal().to_bits());
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
