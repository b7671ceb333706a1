use crate::{MathError, Matrix, PoolVec};

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite matrix.
///
/// This is the workhorse behind multivariate-normal log-densities, sampling,
/// and the conjugate updates for Gaussian models: it gives `log|A|`,
/// `A⁻¹ x`, and a linear map that turns i.i.d. standard normals into draws
/// with covariance `A`.
///
/// # Example
///
/// ```
/// use augur_math::{Cholesky, Matrix};
///
/// # fn main() -> Result<(), augur_math::MathError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let chol = Cholesky::new(&a)?;
/// assert!((chol.log_det() - (4.0f64 * 3.0 - 2.0 * 2.0).ln()).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
///
/// The [`Default`] factor is empty (dimension 0); [`Cholesky::refactor`]
/// fills it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cholesky {
    /// Lower-triangular factor, stored densely.
    l: Matrix,
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] for non-square input and
    /// [`MathError::NotPositiveDefinite`] when a pivot is non-positive.
    pub fn new(a: &Matrix) -> Result<Self, MathError> {
        if !a.is_square() {
            return Err(MathError::DimensionMismatch {
                op: "Cholesky::new",
                detail: format!("{}x{} matrix", a.rows(), a.cols()),
            });
        }
        let mut c = Cholesky::default();
        c.refactor(a.as_slice(), a.rows())?;
        Ok(c)
    }

    /// Factorizes the row-major `n × n` matrix `a` into the storage this
    /// factor already owns, allocating only when `n` differs from the
    /// current dimension. This is the one factorization loop:
    /// [`Cholesky::new`] and every cached or scratch factor run it.
    ///
    /// Each entry of `L` is computed only from entries written earlier in
    /// the same pass, so a refactor is bit-identical to a fresh
    /// factorization whatever the storage held before.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::BadLength`] when `a.len() != n * n` and
    /// [`MathError::NotPositiveDefinite`] when a pivot is non-positive or
    /// not finite. After an error the factor's contents are unspecified
    /// until the next successful refactor.
    pub fn refactor(&mut self, a: &[f64], n: usize) -> Result<(), MathError> {
        if a.len() != n * n {
            return Err(MathError::BadLength { expected: n * n, actual: a.len() });
        }
        if self.dim() != n {
            self.l = Matrix::zeros(n, n);
        }
        let l = self.l.as_mut_slice();
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[i * n + j];
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(MathError::NotPositiveDefinite { pivot: i });
                    }
                    l[i * n + j] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        Ok(())
    }

    /// The dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrows the lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// `log |A|` computed as `2 Σ log L_ii`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Solves `L y = b` by forward substitution.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve_lower(&self, b: &[f64]) -> PoolVec {
        let mut y = PoolVec::from_slice(b);
        self.solve_lower_in_place(&mut y);
        y
    }

    /// Forward substitution in caller storage: overwrites `b` with the
    /// solution `y` of `L y = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    #[inline]
    pub fn solve_lower_in_place(&self, b: &mut [f64]) {
        let n = self.dim();
        assert_eq!(b.len(), n, "solve_lower length mismatch");
        let l = self.l.as_slice();
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= l[i * n + k] * b[k];
            }
            b[i] = sum / l[i * n + i];
        }
    }

    /// Solves `Lᵀ x = y` by back substitution.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != self.dim()`.
    pub fn solve_upper(&self, y: &[f64]) -> PoolVec {
        let n = self.dim();
        assert_eq!(y.len(), n, "solve_upper length mismatch");
        let mut x = PoolVec::zeroed(n);
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= self.l[(k, i)] * x[k];
            }
            x[i] = sum / self.l[(i, i)];
        }
        x
    }

    /// Solves `A x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> PoolVec {
        self.solve_upper(&self.solve_lower(b))
    }

    /// The quadratic form `xᵀ A⁻¹ x`, the squared Mahalanobis norm.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn mahalanobis_sq(&self, x: &[f64]) -> f64 {
        self.mahalanobis_sq_in_place(&mut PoolVec::from_slice(x))
    }

    /// [`Cholesky::mahalanobis_sq`] in caller storage: `x` is overwritten
    /// with `L⁻¹ x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    #[inline]
    pub fn mahalanobis_sq_in_place(&self, x: &mut [f64]) -> f64 {
        self.solve_lower_in_place(x);
        x.iter().map(|v| v * v).sum()
    }

    /// The inverse `A⁻¹`, computed column by column.
    pub fn inverse(&self) -> Matrix {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        let mut e = PoolVec::zeroed(n);
        for j in 0..n {
            e[j] = 1.0;
            let col = self.solve(&e);
            e[j] = 0.0;
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
        }
        inv
    }

    /// Maps a vector of i.i.d. standard normals to a draw with covariance
    /// `A`: returns `L z`.
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != self.dim()`.
    pub fn correlate(&self, z: &[f64]) -> PoolVec {
        let n = self.dim();
        assert_eq!(z.len(), n, "correlate length mismatch");
        let mut out = PoolVec::zeroed(n);
        for i in 0..n {
            let mut acc = 0.0;
            for k in 0..=i {
                acc += self.l[(i, k)] * z[k];
            }
            out[i] = acc;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 2.0]]).unwrap()
    }

    #[test]
    fn reconstructs_input() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let l = c.factor();
        let recon = l.matmul(&l.transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((recon[(i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn solve_recovers_rhs() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let b = vec![1.0, -2.0, 0.5];
        let x = c.solve(&b);
        let back = a.matvec(&x);
        for (u, v) in back.iter().zip(&b) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn log_det_matches_2x2_closed_form() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]).unwrap();
        let c = Cholesky::new(&a).unwrap();
        assert!((c.log_det() - 5.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn rejects_non_spd() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::new(&a),
            Err(MathError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(Cholesky::new(&a), Err(MathError::DimensionMismatch { .. })));
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = spd3();
        let inv = Cholesky::new(&a).unwrap().inverse();
        let prod = a.matmul(&inv).unwrap();
        let eye = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert!((prod[(i, j)] - eye[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn mahalanobis_matches_explicit_inverse() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let x = vec![0.3, -1.2, 2.0];
        let explicit = {
            let ax = c.solve(&x);
            x.iter().zip(&ax).map(|(u, v)| u * v).sum::<f64>()
        };
        assert!((c.mahalanobis_sq(&x) - explicit).abs() < 1e-10);
    }

    #[test]
    fn correlate_is_l_times_z() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let z = vec![1.0, 1.0, 1.0];
        let lz = c.factor().matvec(&z);
        assert_eq!(c.correlate(&z), lz);
    }
}
