//! The engine's factor memo for multivariate-normal covariances.
//!
//! A mixture's categorical update evaluates `MvNormal(y[n] | mu[k],
//! Sigma[k])` for every point and every component: N × K densities over
//! only K distinct covariances, all of them cells of the state. Factoring
//! each covariance once per density made Cholesky the cost of the sweep.
//! The memo factors each state-backed covariance once and reuses the
//! factor while its cells are unchanged:
//!
//! * An entry is keyed by the covariance's location `(buf, start)` and
//!   found in O(1): per buffer, slot `start / dim²` — row `i` of a
//!   `Rows`-of-matrices buffer, slot 0 of a matrix buffer.
//! * Each entry keeps a copy of the `dim²` cells it factored and compares
//!   it bitwise on every use; on a mismatch it refactors in place. Every
//!   use checks the content, so an entry cannot go stale and nothing has
//!   to invalidate it: a Gibbs step that redraws `Sigma[k]` costs one
//!   refactor at the next use.
//! * An entry allocates the first time its key is seen and lives as long
//!   as the engine, so steady-state sweeps allocate nothing.
//! * Owned (temporary) covariances factor into one scratch cache and are
//!   not remembered; that does not allocate either once warm.
//!
//! Factoring runs [`MvNormalCache::refactor`] and evaluation
//! [`MvNormalCache::log_pdf_with`], the arithmetic of the one-shot
//! [`augur_dist::vector::mv_normal_log_pdf`] the tree-walker calls, so a
//! memoized density is bit-identical to the reference. Work accounting
//! does not see the memo: `dist_op_cost` still charges a factorization per
//! density, so work counters, digests and virtual time are unchanged.

use augur_dist::vector::MvNormalCache;

use crate::state::BufId;

/// One remembered factor.
#[derive(Debug, Default)]
struct Entry {
    /// Start cell of the covariance it factored (the slot's full key).
    start: usize,
    /// The cells it factored, compared bitwise on every use.
    cov: Vec<f64>,
    /// Their factor (meaningful only when `spd`).
    factor: MvNormalCache,
    /// False when the cells are not positive definite: the density is
    /// `-inf`, as the one-shot density returns.
    spd: bool,
}

impl Entry {
    /// Refactors in place unless the entry already holds exactly `cells`
    /// at `start`.
    fn refresh(&mut self, start: usize, cells: &[f64], dim: usize) {
        let same = self.start == start
            && self.cov.len() == cells.len()
            && self.cov.iter().zip(cells).all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            self.start = start;
            self.cov.clear();
            self.cov.extend_from_slice(cells);
            self.spd = self.factor.refactor(cells, dim).is_ok();
        }
    }

    fn log_pdf(&self, x: &[f64], mu: &[f64], scratch: &mut Vec<f64>) -> f64 {
        if !self.spd {
            return f64::NEG_INFINITY;
        }
        if scratch.len() < self.factor.dim() {
            scratch.resize(self.factor.dim(), 0.0);
        }
        self.factor.log_pdf_with(x, mu, scratch)
    }
}

/// Covariance factors of the `MvNormal` densities an engine evaluates
/// (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct FactorMemo {
    /// `slots[buf][start / dim²]`.
    slots: Vec<Vec<Entry>>,
    /// Scratch entry for owned covariances, refactored on every use.
    owned: Entry,
    /// `x − mu` scratch.
    scratch: Vec<f64>,
}

impl FactorMemo {
    /// `ln N(x | mu, Σ)` where `Σ`, the row-major `dim × dim` cells `cov`,
    /// starts at cell `start` of state buffer `buf`. The factor is reused
    /// while the cells at that location stay bitwise the same.
    ///
    /// # Panics
    ///
    /// Where the one-shot density panics: on a dimension mismatch between
    /// `x`, `mu` and a positive-definite `Σ`.
    pub(crate) fn log_pdf_at(
        &mut self,
        buf: BufId,
        start: usize,
        cov: &[f64],
        dim: usize,
        x: &[f64],
        mu: &[f64],
    ) -> f64 {
        if dim == 0 {
            return self.log_pdf_owned(cov, dim, x, mu);
        }
        if self.slots.len() <= buf {
            self.slots.resize_with(buf + 1, Vec::new);
        }
        let row = &mut self.slots[buf];
        let slot = start / (dim * dim);
        if row.len() <= slot {
            row.resize_with(slot + 1, Entry::default);
        }
        let entry = &mut row[slot];
        entry.refresh(start, cov, dim);
        entry.log_pdf(x, mu, &mut self.scratch)
    }

    /// `ln N(x | mu, Σ)` for an owned `Σ` (flat row-major, `dim × dim`
    /// expected): the same arithmetic without remembering the factor.
    ///
    /// # Panics
    ///
    /// As [`FactorMemo::log_pdf_at`].
    pub(crate) fn log_pdf_owned(&mut self, cov: &[f64], dim: usize, x: &[f64], mu: &[f64]) -> f64 {
        self.owned.spd = self.owned.factor.refactor(cov, dim).is_ok();
        self.owned.log_pdf(x, mu, &mut self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_dist::{DistKind, Prng, ValueRef};

    /// The reference: the distribution library's one-shot density.
    fn reference(x: &[f64], mu: &[f64], cov: &[f64], dim: usize) -> f64 {
        DistKind::MvNormal
            .log_pdf(
                &[ValueRef::Vector(mu), ValueRef::Matrix { data: cov, dim }],
                ValueRef::Vector(x),
            )
            .unwrap()
    }

    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits()
    }

    /// A random SPD matrix `B Bᵀ + dim·I`.
    fn random_spd(rng: &mut Prng, dim: usize) -> Vec<f64> {
        let b: Vec<f64> = (0..dim * dim).map(|_| rng.std_normal()).collect();
        let mut a = vec![0.0; dim * dim];
        for i in 0..dim {
            for j in 0..dim {
                let dot: f64 = (0..dim).map(|k| b[i * dim + k] * b[j * dim + k]).sum();
                a[i * dim + j] = dot + if i == j { dim as f64 } else { 0.0 };
            }
        }
        a
    }

    fn random_vec(rng: &mut Prng, dim: usize) -> Vec<f64> {
        (0..dim).map(|_| 2.0 * rng.std_normal()).collect()
    }

    /// The density for matrix `k` of `cells`, a `Rows`-of-matrices buffer
    /// with id `buf`.
    fn at(
        memo: &mut FactorMemo,
        buf: BufId,
        cells: &[f64],
        k: usize,
        dim: usize,
        x: &[f64],
        mu: &[f64],
    ) -> f64 {
        let start = k * dim * dim;
        memo.log_pdf_at(buf, start, &cells[start..start + dim * dim], dim, x, mu)
    }

    #[test]
    fn random_spd_covariances_match_the_reference_bitwise() {
        let mut rng = Prng::seed_from_u64(17);
        let mut memo = FactorMemo::default();
        for dim in 1..=6 {
            let covs: Vec<Vec<f64>> = (0..3).map(|_| random_spd(&mut rng, dim)).collect();
            let cells = covs.concat();
            // one buffer per dimension (`dim` is its id); several points
            // per covariance: the first use factors, the rest reuse it
            for _ in 0..4 {
                for (k, cov) in covs.iter().enumerate() {
                    let (x, mu) = (random_vec(&mut rng, dim), random_vec(&mut rng, dim));
                    let got = at(&mut memo, dim, &cells, k, dim, &x, &mu);
                    let want = reference(&x, &mu, cov, dim);
                    assert!(want.is_finite());
                    assert!(same_bits(got, want), "dim {dim}, k {k}: {got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn non_spd_and_nan_covariances_give_the_reference_neg_inf() {
        let nan = f64::NAN;
        let covs = [
            vec![1.0, 2.0, 2.0, 1.0],
            vec![nan, 0.0, 0.0, 1.0],
            vec![1.0, nan, nan, 1.0],
            vec![-1.0, 0.0, 0.0, 1.0],
        ];
        let cells = covs.concat();
        let mut memo = FactorMemo::default();
        let (x, mu) = ([0.3, -0.4], [0.1, 0.2]);
        for _ in 0..2 {
            for (k, cov) in covs.iter().enumerate() {
                let got = at(&mut memo, 0, &cells, k, 2, &x, &mu);
                let want = reference(&x, &mu, cov, 2);
                assert_eq!(want, f64::NEG_INFINITY);
                assert!(same_bits(got, want), "k {k}: {got}");
            }
        }
    }

    #[test]
    fn a_covariance_rewritten_in_place_is_refactored() {
        let mut rng = Prng::seed_from_u64(5);
        let (a, b) = (random_spd(&mut rng, 3), random_spd(&mut rng, 3));
        let mut cells = a.clone();
        let mut memo = FactorMemo::default();
        let (x, mu) = (random_vec(&mut rng, 3), random_vec(&mut rng, 3));
        let first = at(&mut memo, 0, &cells, 0, 3, &x, &mu);
        assert!(same_bits(first, reference(&x, &mu, &a, 3)));
        // one cell changed by one ulp is a different covariance
        cells[4] = f64::from_bits(a[4].to_bits() + 1);
        let second = at(&mut memo, 0, &cells, 0, 3, &x, &mu);
        assert!(same_bits(second, reference(&x, &mu, &cells, 3)));
        cells.copy_from_slice(&b);
        let third = at(&mut memo, 0, &cells, 0, 3, &x, &mu);
        assert!(same_bits(third, reference(&x, &mu, &b, 3)));
        assert!(!same_bits(first, third));
        // and back: the entry follows the content, not its history
        cells.copy_from_slice(&a);
        assert!(same_bits(at(&mut memo, 0, &cells, 0, 3, &x, &mu), first));
    }

    #[test]
    fn two_locations_with_identical_contents_each_match() {
        let mut rng = Prng::seed_from_u64(9);
        let a = random_spd(&mut rng, 2);
        let b = random_spd(&mut rng, 2);
        let same = [a.clone(), a.clone()].concat();
        let mut memo = FactorMemo::default();
        let (x, mu) = (random_vec(&mut rng, 2), random_vec(&mut rng, 2));
        let (want_a, want_b) = (reference(&x, &mu, &a, 2), reference(&x, &mu, &b, 2));
        for _ in 0..2 {
            assert!(same_bits(at(&mut memo, 0, &same, 0, 2, &x, &mu), want_a));
            assert!(same_bits(at(&mut memo, 0, &same, 1, 2, &x, &mu), want_a));
            // another buffer's matrix at the same offset is another entry
            assert!(same_bits(at(&mut memo, 1, &b, 0, 2, &x, &mu), want_b));
        }
    }

    #[test]
    fn owned_covariances_match_without_being_remembered() {
        let mut rng = Prng::seed_from_u64(11);
        let mut memo = FactorMemo::default();
        for dim in 1..=4 {
            for _ in 0..3 {
                let cov = random_spd(&mut rng, dim);
                let (x, mu) = (random_vec(&mut rng, dim), random_vec(&mut rng, dim));
                let got = memo.log_pdf_owned(&cov, dim, &x, &mu);
                assert!(same_bits(got, reference(&x, &mu, &cov, dim)));
            }
        }
        let bad = [1.0, 2.0, 2.0, 1.0];
        assert_eq!(memo.log_pdf_owned(&bad, 2, &[0.0; 2], &[0.0; 2]), f64::NEG_INFINITY);
        // a wrongly sized owned covariance is -inf, as in the one-shot form
        assert_eq!(memo.log_pdf_owned(&[1.0; 3], 2, &[0.0; 2], &[0.0; 2]), f64::NEG_INFINITY);
        assert!(memo.slots.is_empty(), "owned covariances are not remembered");
    }

    #[test]
    #[should_panic(expected = "mvnormal dims")]
    fn a_dimension_mismatch_panics_like_the_reference() {
        at(&mut FactorMemo::default(), 0, &[1.0, 0.0, 0.0, 1.0], 0, 2, &[0.0; 3], &[0.0; 2]);
    }
}
