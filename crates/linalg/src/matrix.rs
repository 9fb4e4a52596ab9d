//! Dense, row-major, `f64` matrix.

use crate::{LinalgError, Result};
use serde::{Deserialize, Deserializer, Serialize};
use std::fmt;

/// A dense matrix of `f64` values stored in row-major order.
///
/// `Matrix` is the workhorse of the whole reproduction: fingerprint databases,
/// factor matrices, tomographic weight matrices and correlation matrices are all
/// `Matrix` values. The type keeps a single invariant — `data.len() == rows * cols` —
/// and every constructor enforces it (including deserialization).
///
/// All element access is bounds-checked; indexing with `m[(i, j)]` panics on
/// out-of-range indices like slice indexing does, while [`Matrix::get`] /
/// [`Matrix::set`] return [`LinalgError::IndexOutOfBounds`] instead.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Mirror of [`Matrix`] used to validate the row/col/data invariant when
/// deserializing from untrusted input (snapshot files, etc.).
#[derive(Deserialize)]
struct MatrixRepr {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl<'de> Deserialize<'de> for Matrix {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> std::result::Result<Self, D::Error> {
        let repr = MatrixRepr::deserialize(deserializer)?;
        Matrix::from_vec(repr.rows, repr.cols, repr.data).map_err(serde::de::Error::custom)
    }
}

impl Matrix {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows x cols` matrix with every element equal to `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix by evaluating `f(i, j)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices. All rows must have equal length and at
    /// least one row must be given.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let Some(first) = rows.first() else {
            return Err(LinalgError::EmptyInput { op: "Matrix::from_rows" });
        };
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    op: "Matrix::from_rows",
                    lhs: (1, cols),
                    rhs: (i, r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix { rows: rows.len(), cols, data })
    }

    /// Creates a matrix whose columns are the given equal-length slices.
    pub fn from_cols(cols: &[&[f64]]) -> Result<Self> {
        let Some(first) = cols.first() else {
            return Err(LinalgError::EmptyInput { op: "Matrix::from_cols" });
        };
        let rows = first.len();
        for (j, c) in cols.iter().enumerate() {
            if c.len() != rows {
                return Err(LinalgError::DimensionMismatch {
                    op: "Matrix::from_cols",
                    lhs: (rows, 1),
                    rhs: (c.len(), j),
                });
            }
        }
        Ok(Matrix::from_fn(rows, cols.len(), |i, j| cols[j][i]))
    }

    /// Creates a column vector (`n x 1`) from a slice.
    pub fn col_vector(v: &[f64]) -> Self {
        Matrix { rows: v.len(), cols: 1, data: v.to_vec() }
    }

    /// Creates a row vector (`1 x n`) from a slice.
    pub fn row_vector(v: &[f64]) -> Self {
        Matrix { rows: 1, cols: v.len(), data: v.to_vec() }
    }

    /// Creates a square matrix with `diag` on the diagonal and zeros elsewhere.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.data[i * n + i] = d;
        }
        m
    }

    // ------------------------------------------------------------------
    // Shape queries
    // ------------------------------------------------------------------

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `true` when `rows == cols`.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    // ------------------------------------------------------------------
    // Element access
    // ------------------------------------------------------------------

    /// Returns element `(i, j)`, or an error when out of bounds.
    pub fn get(&self, i: usize, j: usize) -> Result<f64> {
        if i >= self.rows {
            return Err(LinalgError::IndexOutOfBounds {
                op: "Matrix::get(row)",
                index: i,
                bound: self.rows,
            });
        }
        if j >= self.cols {
            return Err(LinalgError::IndexOutOfBounds {
                op: "Matrix::get(col)",
                index: j,
                bound: self.cols,
            });
        }
        Ok(self.data[i * self.cols + j])
    }

    /// Sets element `(i, j)`, or returns an error when out of bounds.
    pub fn set(&mut self, i: usize, j: usize, value: f64) -> Result<()> {
        if i >= self.rows {
            return Err(LinalgError::IndexOutOfBounds {
                op: "Matrix::set(row)",
                index: i,
                bound: self.rows,
            });
        }
        if j >= self.cols {
            return Err(LinalgError::IndexOutOfBounds {
                op: "Matrix::set(col)",
                index: j,
                bound: self.cols,
            });
        }
        self.data[i * self.cols + j] = value;
        Ok(())
    }

    /// Borrows row `i` as a slice. Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice. Panics if `i >= rows`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector. Panics if `j >= cols`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column index {j} out of bounds ({})", self.cols);
        (0..self.rows).map(|i| self.data[i * self.cols + j]).collect()
    }

    /// Overwrites row `i` with `values`.
    pub fn set_row(&mut self, i: usize, values: &[f64]) -> Result<()> {
        if i >= self.rows {
            return Err(LinalgError::IndexOutOfBounds {
                op: "Matrix::set_row",
                index: i,
                bound: self.rows,
            });
        }
        if values.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::set_row",
                lhs: (1, self.cols),
                rhs: (1, values.len()),
            });
        }
        self.row_mut(i).copy_from_slice(values);
        Ok(())
    }

    /// Overwrites column `j` with `values`.
    pub fn set_col(&mut self, j: usize, values: &[f64]) -> Result<()> {
        if j >= self.cols {
            return Err(LinalgError::IndexOutOfBounds {
                op: "Matrix::set_col",
                index: j,
                bound: self.cols,
            });
        }
        if values.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::set_col",
                lhs: (self.rows, 1),
                rhs: (values.len(), 1),
            });
        }
        for (i, &v) in values.iter().enumerate() {
            self.data[i * self.cols + j] = v;
        }
        Ok(())
    }

    /// Swaps rows `a` and `b` in place. Panics when out of bounds.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        assert!(a < self.rows && b < self.rows, "row index out of bounds");
        if a == b {
            return;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(hi * self.cols);
        head[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }

    /// Swaps columns `a` and `b` in place. Panics when out of bounds.
    pub fn swap_cols(&mut self, a: usize, b: usize) {
        assert!(a < self.cols && b < self.cols, "column index out of bounds");
        if a == b {
            return;
        }
        for i in 0..self.rows {
            self.data.swap(i * self.cols + a, i * self.cols + b);
        }
    }

    /// Immutable view of the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Iterator over all elements in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.data.iter().copied()
    }

    /// Iterator over `(i, j, value)` triplets in row-major order.
    pub fn indexed_iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let cols = self.cols;
        self.data.iter().enumerate().map(move |(k, &v)| (k / cols, k % cols, v))
    }

    /// Iterator over row slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.data.chunks_exact(self.cols.max(1))
    }

    // ------------------------------------------------------------------
    // Structural operations
    // ------------------------------------------------------------------

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Returns a copy with only the selected columns, in the given order.
    /// Duplicate indices are allowed (the column is copied twice).
    pub fn select_cols(&self, indices: &[usize]) -> Result<Matrix> {
        for &j in indices {
            if j >= self.cols {
                return Err(LinalgError::IndexOutOfBounds {
                    op: "Matrix::select_cols",
                    index: j,
                    bound: self.cols,
                });
            }
        }
        Ok(Matrix::from_fn(self.rows, indices.len(), |i, k| self.data[i * self.cols + indices[k]]))
    }

    /// Returns a copy with only the selected rows, in the given order.
    pub fn select_rows(&self, indices: &[usize]) -> Result<Matrix> {
        for &i in indices {
            if i >= self.rows {
                return Err(LinalgError::IndexOutOfBounds {
                    op: "Matrix::select_rows",
                    index: i,
                    bound: self.rows,
                });
            }
        }
        Ok(Matrix::from_fn(indices.len(), self.cols, |k, j| self.data[indices[k] * self.cols + j]))
    }

    /// Copies the rectangular block `rows [r0, r1) x cols [c0, c1)`.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Result<Matrix> {
        if r1 > self.rows || r0 > r1 {
            return Err(LinalgError::IndexOutOfBounds {
                op: "Matrix::submatrix(rows)",
                index: r1,
                bound: self.rows + 1,
            });
        }
        if c1 > self.cols || c0 > c1 {
            return Err(LinalgError::IndexOutOfBounds {
                op: "Matrix::submatrix(cols)",
                index: c1,
                bound: self.cols + 1,
            });
        }
        Ok(Matrix::from_fn(r1 - r0, c1 - c0, |i, j| self.data[(r0 + i) * self.cols + (c0 + j)]))
    }

    /// Horizontally concatenates `self | other` (same row count required).
    pub fn hstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::hstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(other.row(i));
        }
        Ok(out)
    }

    /// Vertically concatenates `self` on top of `other` (same column count required).
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::vstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut data = Vec::with_capacity((self.rows + other.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Ok(Matrix { rows: self.rows + other.rows, cols: self.cols, data })
    }

    // ------------------------------------------------------------------
    // Elementwise operations
    // ------------------------------------------------------------------

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Combines two equal-shaped matrices elementwise with `f`.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::zip_map",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let data = self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect();
        Ok(Matrix { rows: self.rows, cols: self.cols, data })
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_map(other, |a, b| a * b)
    }

    // ------------------------------------------------------------------
    // Reductions and norms
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements; `0.0` for an empty matrix.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Frobenius norm `sqrt(sum of squares)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Largest absolute element; `0.0` for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |acc, v| acc.max(v.abs()))
    }

    /// Sum of diagonal elements. Errors unless the matrix is square.
    pub fn trace(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare { op: "Matrix::trace", shape: self.shape() });
        }
        Ok((0..self.rows).map(|i| self.data[i * self.cols + i]).sum())
    }

    /// `true` when every element of `self` is within `tol` of `other`.
    /// Matrices of different shapes are never approximately equal.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self.data.iter().zip(&other.data).all(|(a, b)| (a - b).abs() <= tol)
    }

    /// `true` when any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    /// Renders small matrices fully; larger ones are abbreviated to their shape.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rows > 12 || self.cols > 12 {
            return write!(f, "Matrix({}x{})", self.rows, self.cols);
        }
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4}", self.data[i * self.cols + j])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn zeros_and_filled() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.iter().all(|v| v == 0.0));
        let f = Matrix::filled(2, 2, 7.5);
        assert!(f.iter().all(|v| v == 7.5));
    }

    #[test]
    fn identity_diagonal() {
        let i = Matrix::identity(4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0; 3]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
        assert!(matches!(err, Err(LinalgError::DimensionMismatch { .. })));
        assert!(matches!(Matrix::from_rows(&[]), Err(LinalgError::EmptyInput { .. })));
    }

    #[test]
    fn from_cols_builds_expected_layout() {
        let m = Matrix::from_cols(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 0)], 2.0);
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 1)], 4.0);
    }

    #[test]
    fn from_diag_places_values() {
        let d = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.trace().unwrap(), 6.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn get_set_bounds() {
        let mut m = sample();
        assert_eq!(m.get(1, 2).unwrap(), 6.0);
        assert!(m.get(2, 0).is_err());
        assert!(m.get(0, 3).is_err());
        m.set(0, 0, -1.0).unwrap();
        assert_eq!(m[(0, 0)], -1.0);
        assert!(m.set(5, 0, 0.0).is_err());
    }

    #[test]
    fn row_and_col_access() {
        let m = sample();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(2), vec![3.0, 6.0]);
    }

    #[test]
    fn set_row_and_col() {
        let mut m = sample();
        m.set_row(0, &[9.0, 8.0, 7.0]).unwrap();
        assert_eq!(m.row(0), &[9.0, 8.0, 7.0]);
        m.set_col(1, &[0.5, 0.25]).unwrap();
        assert_eq!(m.col(1), vec![0.5, 0.25]);
        assert!(m.set_row(0, &[1.0]).is_err());
        assert!(m.set_col(9, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn swap_rows_and_cols() {
        let mut m = sample();
        m.swap_rows(0, 1);
        assert_eq!(m.row(0), &[4.0, 5.0, 6.0]);
        m.swap_cols(0, 2);
        assert_eq!(m.row(0), &[6.0, 5.0, 4.0]);
        m.swap_rows(1, 1); // no-op must not panic
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert!(t.transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn select_rows_cols_and_submatrix() {
        let m = sample();
        let c = m.select_cols(&[2, 0]).unwrap();
        assert_eq!(c.row(0), &[3.0, 1.0]);
        let r = m.select_rows(&[1]).unwrap();
        assert_eq!(r.shape(), (1, 3));
        let s = m.submatrix(0, 2, 1, 3).unwrap();
        assert_eq!(s.row(0), &[2.0, 3.0]);
        assert!(m.select_cols(&[3]).is_err());
        assert!(m.select_rows(&[2]).is_err());
        assert!(m.submatrix(0, 3, 0, 1).is_err());
    }

    #[test]
    fn stack_operations() {
        let m = sample();
        let h = m.hstack(&m).unwrap();
        assert_eq!(h.shape(), (2, 6));
        assert_eq!(h.row(0), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        let v = m.vstack(&m).unwrap();
        assert_eq!(v.shape(), (4, 3));
        assert!(m.hstack(&Matrix::zeros(3, 1)).is_err());
        assert!(m.vstack(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn map_and_hadamard() {
        let m = sample();
        let sq = m.map(|v| v * v);
        assert_eq!(sq[(1, 2)], 36.0);
        let h = m.hadamard(&m).unwrap();
        assert!(h.approx_eq(&sq, 0.0));
        assert!(m.hadamard(&Matrix::zeros(1, 1)).is_err());
    }

    #[test]
    fn reductions() {
        let m = sample();
        assert_eq!(m.sum(), 21.0);
        assert!((m.mean() - 3.5).abs() < 1e-15);
        assert!((m.frobenius_norm() - 91.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(m.max_abs(), 6.0);
        assert!(m.trace().is_err());
        assert_eq!(Matrix::identity(3).trace().unwrap(), 3.0);
        assert_eq!(Matrix::zeros(0, 0).mean(), 0.0);
    }

    #[test]
    fn approx_eq_respects_shape_and_tol() {
        let m = sample();
        let mut n = m.clone();
        n[(0, 0)] += 1e-12;
        assert!(m.approx_eq(&n, 1e-9));
        assert!(!m.approx_eq(&n, 1e-15));
        assert!(!m.approx_eq(&Matrix::zeros(2, 2), 1.0));
    }

    #[test]
    fn non_finite_detection() {
        let mut m = sample();
        assert!(!m.has_non_finite());
        m[(0, 1)] = f64::NAN;
        assert!(m.has_non_finite());
    }

    #[test]
    fn indexed_iter_and_rows_iter() {
        let m = sample();
        let items: Vec<_> = m.indexed_iter().collect();
        assert_eq!(items[4], (1, 1, 5.0));
        let rows: Vec<_> = m.rows_iter().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic]
    fn index_panics_out_of_bounds() {
        let m = sample();
        let _ = m[(2, 0)];
    }

    #[test]
    fn display_small_and_large() {
        let s = format!("{}", sample());
        assert!(s.contains("1.0000"));
        let big = Matrix::zeros(20, 20);
        assert_eq!(format!("{big}"), "Matrix(20x20)");
    }

    #[test]
    fn col_row_vectors() {
        let c = Matrix::col_vector(&[1.0, 2.0]);
        assert_eq!(c.shape(), (2, 1));
        let r = Matrix::row_vector(&[1.0, 2.0]);
        assert_eq!(r.shape(), (1, 2));
    }
}
