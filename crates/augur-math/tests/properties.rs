//! Property tests for the linear-algebra substrate.
//!
//! Inputs are drawn from the in-tree splitmix64 generator with a fixed
//! seed per property, so every run checks the same cases and a failure
//! message carries the input that reproduces it.

use augur_math::special::{lgamma, log_sum_exp, sigmoid};
use augur_math::{vecops, Cholesky, FlatRagged, Matrix, Prng};

const CASES: usize = 256;

/// Runs `CASES` cases of a property, each drawing its inputs from one
/// seeded generator.
fn check(seed: u64, mut case: impl FnMut(&mut Prng)) {
    let mut rng = Prng::seed_from_u64(seed);
    for _ in 0..CASES {
        case(&mut rng);
    }
}

/// `n` values uniform in `[lo, hi)`.
fn uniform_vec(rng: &mut Prng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|_| rng.uniform_range(lo, hi)).collect()
}

/// A vector of `lo..hi` entries (length uniform in the half-open range),
/// each uniform in `[a, b)`.
fn vec_of_len(rng: &mut Prng, lo: usize, hi: usize, a: f64, b: f64) -> Vec<f64> {
    let n = lo + rng.below(hi - lo);
    uniform_vec(rng, n, a, b)
}

fn small_vec(rng: &mut Prng, n: usize) -> Vec<f64> {
    uniform_vec(rng, n, -10.0, 10.0)
}

/// A random SPD matrix `A Aᵀ + n·I`.
fn spd(rng: &mut Prng, n: usize) -> Matrix {
    let a = Matrix::from_vec(n, n, uniform_vec(rng, n * n, -1.0, 1.0)).unwrap();
    let mut s = a.matmul(&a.transpose()).unwrap();
    for i in 0..n {
        s[(i, i)] += n as f64;
    }
    s
}

#[test]
fn cholesky_solve_inverts() {
    check(1, |rng| {
        let (m, b) = (spd(rng, 4), small_vec(rng, 4));
        let c = Cholesky::new(&m).unwrap();
        let x = c.solve(&b);
        let back = m.matvec(&x);
        for (u, v) in back.iter().zip(&b) {
            assert!((u - v).abs() < 1e-8, "residual too large: {m:?} {b:?}");
        }
    });
}

#[test]
fn cholesky_logdet_is_finite_and_consistent() {
    check(2, |rng| {
        let m = spd(rng, 3);
        let c = Cholesky::new(&m).unwrap();
        let ld = c.log_det();
        assert!(ld.is_finite(), "{m:?}");
        // log|A⁻¹| = -log|A|
        let ci = Cholesky::new(&c.inverse()).unwrap();
        assert!((ci.log_det() + ld).abs() < 1e-7, "{m:?}");
    });
}

#[test]
fn mahalanobis_nonnegative() {
    check(3, |rng| {
        let (m, x) = (spd(rng, 3), small_vec(rng, 3));
        let c = Cholesky::new(&m).unwrap();
        assert!(c.mahalanobis_sq(&x) >= -1e-12, "{m:?} {x:?}");
    });
}

#[test]
fn matmul_associative() {
    check(4, |rng| {
        let mut mat = || Matrix::from_vec(2, 2, uniform_vec(rng, 4, -2.0, 2.0)).unwrap();
        let (a, b, c) = (mat(), mat(), mat());
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!((left[(i, j)] - right[(i, j)]).abs() < 1e-9, "{a:?} {b:?} {c:?}");
            }
        }
    });
}

#[test]
fn transpose_respects_matmul() {
    check(5, |rng| {
        // (AB)ᵀ = Bᵀ Aᵀ
        let a = Matrix::from_vec(2, 3, uniform_vec(rng, 6, -2.0, 2.0)).unwrap();
        let b = Matrix::from_vec(3, 2, uniform_vec(rng, 6, -2.0, 2.0)).unwrap();
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        assert!((&lhs - &rhs).frobenius_norm() < 1e-10, "{a:?} {b:?}");
    });
}

#[test]
fn ragged_roundtrip() {
    check(6, |rng| {
        let rows: Vec<Vec<f64>> =
            (0..rng.below(8)).map(|_| vec_of_len(rng, 0, 6, -5.0, 5.0)).collect();
        let r = FlatRagged::from_rows(rows.clone());
        assert_eq!(r.num_rows(), rows.len());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(r.row(i), row.as_slice());
        }
        let lens: Vec<usize> = rows.iter().map(Vec::len).collect();
        let again = FlatRagged::from_flat(r.flat().to_vec(), &lens).unwrap();
        assert_eq!(r, again);
    });
}

#[test]
fn log_sum_exp_shift_invariant() {
    check(7, |rng| {
        let xs = vec_of_len(rng, 1, 10, -50.0, 50.0);
        let c = rng.uniform_range(-100.0, 100.0);
        let shifted: Vec<f64> = xs.iter().map(|x| x + c).collect();
        let l1 = log_sum_exp(&xs) + c;
        let l2 = log_sum_exp(&shifted);
        assert!((l1 - l2).abs() < 1e-8, "{xs:?} shifted by {c}");
    });
}

#[test]
fn lgamma_recurrence_holds() {
    check(8, |rng| {
        let x = rng.uniform_range(0.1, 50.0);
        assert!((lgamma(x + 1.0) - lgamma(x) - x.ln()).abs() < 1e-9, "x = {x}");
    });
}

#[test]
fn sigmoid_in_unit_interval() {
    check(9, |rng| {
        let x = rng.uniform_range(-1e6, 1e6);
        assert!((0.0..=1.0).contains(&sigmoid(x)), "x = {x}");
    });
}

#[test]
fn normalize_produces_distribution() {
    check(10, |rng| {
        let mut w = vec_of_len(rng, 1, 12, 0.01, 10.0);
        vecops::normalize(&mut w);
        let s: f64 = w.iter().sum();
        assert!((s - 1.0).abs() < 1e-10, "{w:?}");
        assert!(w.iter().all(|&v| v >= 0.0), "{w:?}");
    });
}

#[test]
fn dot_bilinear() {
    check(11, |rng| {
        let (a, b) = (small_vec(rng, 5), small_vec(rng, 5));
        let alpha = rng.uniform_range(-3.0, 3.0);
        let scaled = vecops::scale(alpha, &a);
        assert!(
            (vecops::dot(&scaled, &b) - alpha * vecops::dot(&a, &b)).abs() < 1e-9,
            "{a:?} {b:?} {alpha}"
        );
    });
}
