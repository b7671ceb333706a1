//! Synthetic workload generators for the evaluation (§7.2).
//!
//! The paper's datasets (German Credit, Adult, Kos, Nips — all UCI) are
//! replaced by synthetic generators with the same dimensions; the timing
//! and scaling experiments depend on sizes and sparsity shape, not the
//! actual values, and the log-predictive experiments use
//! synthetically-generated data exactly as the paper's Fig. 10 does.

use augur_dist::Prng;
use augur_math::special::log_sum_exp;
use augur_math::{FlatRagged, Matrix};

/// A synthetic mixture dataset with ground truth.
#[derive(Debug, Clone)]
pub struct MixtureData {
    /// Observations (N × D).
    pub points: FlatRagged,
    /// True component means.
    pub true_means: Vec<Vec<f64>>,
    /// True assignments.
    pub true_z: Vec<usize>,
}

/// Draws `n` points in `d` dimensions from `k` well-separated spherical
/// Gaussian clusters (the Fig. 10 / Fig. 11 workload).
pub fn hgmm_data(k: usize, d: usize, n: usize, seed: u64) -> MixtureData {
    let mut rng = Prng::seed_from_u64(seed);
    // means on a scaled lattice so clusters are distinguishable in any d
    let mut true_means = Vec::with_capacity(k);
    for c in 0..k {
        let mut m = vec![0.0; d];
        for (j, mj) in m.iter_mut().enumerate() {
            let sign = if (c + j) % 2 == 0 { 1.0 } else { -1.0 };
            *mj = sign * (3.0 + 3.0 * ((c + j) % k) as f64);
        }
        true_means.push(m);
    }
    let mut rows = Vec::with_capacity(n);
    let mut true_z = Vec::with_capacity(n);
    for _ in 0..n {
        let c = rng.below(k);
        true_z.push(c);
        let row: Vec<f64> = true_means[c].iter().map(|&m| m + rng.std_normal()).collect();
        rows.push(row);
    }
    MixtureData { points: FlatRagged::from_rows(rows), true_means, true_z }
}

/// The log-predictive probability of held-out mixture points under
/// `(pi, mus, sigmas)` — the Fig. 10 y-axis.
pub fn gmm_log_predictive(
    test: &FlatRagged,
    pis: &[f64],
    mus: &[Vec<f64>],
    sigmas: &[Matrix],
) -> f64 {
    let caches: Vec<augur_dist::vector::MvNormalCache> = sigmas
        .iter()
        .map(|s| augur_dist::vector::MvNormalCache::new(s).expect("SPD component"))
        .collect();
    let mut total = 0.0;
    for i in 0..test.num_rows() {
        let y = test.row(i);
        let comps: Vec<f64> = (0..pis.len())
            .map(|c| pis[c].max(1e-300).ln() + caches[c].log_pdf(y, &mus[c]))
            .collect();
        total += log_sum_exp(&comps);
    }
    total
}

/// A synthetic corpus shaped like a bag-of-words dataset.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Documents as token lists (word ids).
    pub docs: Vec<Vec<i64>>,
    /// Document lengths.
    pub lens: Vec<i64>,
    /// Vocabulary size.
    pub vocab: usize,
    /// Total token count.
    pub tokens: usize,
}

/// Generates an LDA-distributed corpus: `d_docs` documents over a
/// `vocab`-word vocabulary with ~`avg_len` tokens each, from `k` topics.
///
/// Shapes for the Fig. 12 datasets:
/// * Kos-like — `vocab = 6906`, ~460k tokens (≈ 1330 docs × 346 words);
/// * Nips-like — `vocab = 12419`, ~1.9M tokens (≈ 1500 docs × 1288 words).
pub fn lda_corpus(k: usize, d_docs: usize, vocab: usize, avg_len: usize, seed: u64) -> Corpus {
    let mut rng = Prng::seed_from_u64(seed);
    // sparse-ish topics: each topic concentrates on a slice of the vocab
    let mut topics = Vec::with_capacity(k);
    for t in 0..k {
        let mut beta = vec![0.05; vocab];
        let span = (vocab / k).max(1);
        for b in beta.iter_mut().skip(t * span).take(span) {
            *b = 5.0;
        }
        let mut phi = vec![0.0; vocab];
        rng.dirichlet(&beta, &mut phi);
        topics.push(phi);
    }
    let alpha = vec![0.5; k];
    let mut docs = Vec::with_capacity(d_docs);
    let mut lens = Vec::with_capacity(d_docs);
    let mut tokens = 0usize;
    let mut theta = vec![0.0; k];
    for _ in 0..d_docs {
        rng.dirichlet(&alpha, &mut theta);
        // lengths jittered ±25% around the average
        let len = ((avg_len as f64) * rng.uniform_range(0.75, 1.25)).round().max(1.0) as usize;
        let mut doc = Vec::with_capacity(len);
        for _ in 0..len {
            let t = rng.categorical(&theta);
            doc.push(rng.categorical(&topics[t]) as i64);
        }
        tokens += len;
        lens.push(len as i64);
        docs.push(doc);
    }
    Corpus { docs, lens, vocab, tokens }
}

/// A synthetic binary-classification dataset (logistic model), shaped
/// like the paper's German Credit (N = 1000, D = 24) or Adult
/// (N ≈ 50000, D = 14).
#[derive(Debug, Clone)]
pub struct LogisticData {
    /// Feature rows (N × D).
    pub x: FlatRagged,
    /// Binary labels.
    pub y: Vec<f64>,
    /// The generating coefficients.
    pub true_theta: Vec<f64>,
    /// The generating intercept.
    pub true_b: f64,
}

/// Generates logistic data with standard-normal features.
pub fn logistic_data(n: usize, d: usize, seed: u64) -> LogisticData {
    let mut rng = Prng::seed_from_u64(seed);
    let true_theta: Vec<f64> = (0..d).map(|_| rng.std_normal() * 0.8).collect();
    let true_b = 0.3;
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f64> = (0..d).map(|_| rng.std_normal()).collect();
        let eta = augur_math::vecops::dot(&row, &true_theta) + true_b;
        let p = augur_math::special::sigmoid(eta);
        y.push(f64::from(rng.bernoulli(p)));
        rows.push(row);
    }
    LogisticData { x: FlatRagged::from_rows(rows), y, true_theta, true_b }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hgmm_data_has_separated_clusters() {
        let data = hgmm_data(3, 2, 300, 1);
        assert_eq!(data.points.num_rows(), 300);
        assert_eq!(data.true_means.len(), 3);
        // points are near their own mean
        for i in 0..50 {
            let p = data.points.row(i);
            let m = &data.true_means[data.true_z[i]];
            let d2: f64 = p.iter().zip(m).map(|(a, b)| (a - b) * (a - b)).sum();
            assert!(d2 < 25.0, "point {i} too far from its mean");
        }
    }

    #[test]
    fn log_predictive_prefers_true_parameters() {
        let data = hgmm_data(2, 2, 200, 2);
        let test = hgmm_data(2, 2, 50, 3); // same generator, fresh draws
        let pis = vec![0.5, 0.5];
        let sigmas = vec![Matrix::identity(2), Matrix::identity(2)];
        let good = gmm_log_predictive(&test.points, &pis, &data.true_means, &sigmas);
        let bad =
            gmm_log_predictive(&test.points, &pis, &[vec![0.0, 0.0], vec![0.1, 0.1]], &sigmas);
        assert!(good > bad, "true params {good} must beat junk {bad}");
    }

    #[test]
    fn lda_corpus_dimensions() {
        let c = lda_corpus(5, 20, 100, 30, 4);
        assert_eq!(c.docs.len(), 20);
        assert_eq!(c.lens.len(), 20);
        assert_eq!(c.tokens, c.docs.iter().map(Vec::len).sum::<usize>());
        assert!(c.docs.iter().flatten().all(|&w| (w as usize) < c.vocab));
    }

    #[test]
    fn logistic_data_labels_correlate_with_features() {
        let d = logistic_data(2000, 5, 5);
        // the empirical accuracy of the true model should beat chance
        let mut correct = 0;
        for i in 0..2000 {
            let eta = augur_math::vecops::dot(d.x.row(i), &d.true_theta) + d.true_b;
            let pred = f64::from(eta > 0.0);
            if pred == d.y[i] {
                correct += 1;
            }
        }
        assert!(correct > 1200, "only {correct}/2000 correct");
    }
}
