use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::pool::PoolVec;
use crate::MathError;

/// A dense, row-major matrix of `f64`.
///
/// This is the matrix representation used throughout the AugurV2 runtime
/// (e.g. covariance matrices of multivariate normals). It is deliberately
/// simple: a flat buffer plus dimensions, so that it can live inside the
/// flattened runtime memory described in the paper's §6.2. The buffer is a
/// [`PoolVec`], so matrix temporaries created inside sampler sweeps recycle
/// their storage through the thread-local pool instead of hitting the heap.
///
/// # Example
///
/// ```
/// use augur_math::Matrix;
///
/// # fn main() -> Result<(), augur_math::MathError> {
/// let a = Matrix::identity(3).scale(2.0);
/// let v = a.matvec(&[1.0, 2.0, 3.0]);
/// assert_eq!(v, vec![2.0, 4.0, 6.0]);
/// # Ok(())
/// # }
/// ```
///
/// The [`Default`] matrix is empty (`0 × 0`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: PoolVec,
}

impl Matrix {
    /// Creates a matrix of zeros with the given dimensions.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: PoolVec::zeroed(rows * cols) }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if the rows have unequal
    /// lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, MathError> {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = PoolVec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(MathError::DimensionMismatch {
                    op: "Matrix::from_rows",
                    detail: format!("row of length {} in matrix with {c} columns", row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix { rows: r, cols: c, data })
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::BadLength`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, MathError> {
        if data.len() != rows * cols {
            return Err(MathError::BadLength { expected: rows * cols, actual: data.len() });
        }
        Ok(Matrix { rows, cols, data: PoolVec::from_vec(data) })
    }

    /// Creates a matrix from an already-pooled row-major buffer without
    /// copying.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::BadLength`] if `data.len() != rows * cols`.
    pub fn from_pooled(rows: usize, cols: usize, data: PoolVec) -> Result<Self, MathError> {
        if data.len() != rows * cols {
            return Err(MathError::BadLength { expected: rows * cols, actual: data.len() });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix by copying a flat row-major slice into a pooled
    /// buffer — the allocation-free analogue of
    /// `from_vec(rows, cols, data.to_vec())`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::BadLength`] if `data.len() != rows * cols`.
    pub fn from_slice(rows: usize, cols: usize, data: &[f64]) -> Result<Self, MathError> {
        if data.len() != rows * cols {
            return Err(MathError::BadLength { expected: rows * cols, actual: data.len() });
        }
        Ok(Matrix { rows, cols, data: PoolVec::from_slice(data) })
    }

    /// Creates an `n × n` diagonal matrix from the given diagonal entries.
    pub fn diag(entries: &[f64]) -> Self {
        let n = entries.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &e) in entries.iter().enumerate() {
            m[(i, i)] = e;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the flat row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the flat row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns the flat row-major buffer,
    /// removing its storage from the pool.
    pub fn into_vec(self) -> Vec<f64> {
        self.data.into_vec()
    }

    /// Consumes the matrix and returns its pooled buffer.
    pub fn into_pooled(self) -> PoolVec {
        self.data
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds for {} rows", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Returns the matrix scaled by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|x| x * s).collect() }
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> PoolVec {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        let mut out = PoolVec::zeroed(self.rows);
        for i in 0..self.rows {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(v) {
                acc += a * b;
            }
            out[i] = acc;
        }
        out
    }

    /// Matrix–matrix product `self * other`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if the inner dimensions
    /// disagree.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, MathError> {
        if self.cols != other.rows {
            return Err(MathError::DimensionMismatch {
                op: "Matrix::matmul",
                detail: format!("{}x{} * {}x{}", self.rows, self.cols, other.rows, other.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += aik * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Computes the outer product `u * vᵀ`.
    pub fn outer(u: &[f64], v: &[f64]) -> Matrix {
        let mut m = Matrix::zeros(u.len(), v.len());
        for (i, &ui) in u.iter().enumerate() {
            for (j, &vj) in v.iter().enumerate() {
                m[(i, j)] = ui * vj;
            }
        }
        m
    }

    /// Trace of a square matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace of non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Checks symmetry up to an absolute tolerance.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "matrix add shape");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "matrix sub shape");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(a, b)| a - b).collect(),
        }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;

    fn mul(self, other: &Matrix) -> Matrix {
        self.matmul(other).expect("matrix mul shape")
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matvec_is_identity() {
        let m = Matrix::identity(4);
        let v = vec![1.0, -2.0, 3.5, 0.0];
        assert_eq!(m.matvec(&v), v);
    }

    #[test]
    fn from_slice_matches_from_vec() {
        let data = [1.0, 2.0, 3.0, 4.0];
        let a = Matrix::from_slice(2, 2, &data).unwrap();
        let b = Matrix::from_vec(2, 2, data.to_vec()).unwrap();
        assert_eq!(a, b);
        assert!(Matrix::from_slice(2, 2, &data[..3]).is_err());
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, MathError::DimensionMismatch { .. }));
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        let err = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).unwrap_err();
        assert_eq!(err, MathError::BadLength { expected: 4, actual: 3 });
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap());
    }

    #[test]
    fn matmul_rejects_mismatched_inner_dims() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn outer_product_shape_and_values() {
        let m = Matrix::outer(&[1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        assert_eq!(m[(1, 2)], 10.0);
    }

    #[test]
    fn trace_of_diag() {
        let m = Matrix::diag(&[1.0, 2.0, 3.0]);
        assert_eq!(m.trace(), 6.0);
    }

    #[test]
    fn symmetry_check() {
        let s = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        assert!(s.is_symmetric(0.0));
        let ns = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 2.0]]).unwrap();
        assert!(!ns.is_symmetric(1e-12));
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[0.5, 0.5], &[0.5, 0.5]]).unwrap();
        let sum = &a + &b;
        let back = &sum - &b;
        assert_eq!(back, a);
    }
}
