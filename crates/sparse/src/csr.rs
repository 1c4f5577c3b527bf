//! Compressed sparse row (CSR) matrix storage.
//!
//! CSR is the working format of the CPU experiments in the paper (Section
//! 5.1): values in the working precision, 32-bit column indices, and a row
//! pointer array.  The type is generic over the value precision so that the
//! same matrix can be stored in fp64, fp32 and fp16 copies
//! ([`CsrMatrix::to_precision`]), exactly as F3R requires (Table 1).

use f3r_precision::{Precision, Scalar};

/// A sparse matrix in compressed sparse row format with 32-bit column
/// indices.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<T> {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<T>,
}

impl<T: Scalar> CsrMatrix<T> {
    /// Build a CSR matrix from raw parts, validating the structure.
    ///
    /// # Panics
    /// Panics if the row pointer is not monotone, if its last entry does not
    /// equal `col_idx.len()`, if `col_idx` and `values` differ in length, or
    /// if any column index is out of range.
    #[must_use]
    pub fn from_parts(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<T>,
    ) -> Self {
        assert_eq!(row_ptr.len(), n_rows + 1, "row_ptr must have n_rows + 1 entries");
        assert_eq!(col_idx.len(), values.len(), "col_idx/values length mismatch");
        assert_eq!(*row_ptr.last().unwrap_or(&0), col_idx.len(), "row_ptr end mismatch");
        assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]), "row_ptr must be monotone");
        assert!(
            col_idx.iter().all(|&c| (c as usize) < n_cols),
            "column index out of range"
        );
        Self {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// The `n x n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let row_ptr = (0..=n).collect();
        let col_idx = (0..n as u32).collect();
        let values = vec![T::one(); n];
        Self::from_parts(n, n, row_ptr, col_idx, values)
    }

    /// Number of rows.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[must_use]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// `true` if the matrix is square.
    #[must_use]
    pub fn is_square(&self) -> bool {
        self.n_rows == self.n_cols
    }

    /// Number of stored nonzeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Average number of stored nonzeros per row.
    #[must_use]
    pub fn nnz_per_row(&self) -> f64 {
        if self.n_rows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.n_rows as f64
        }
    }

    /// Raw row pointer array (length `n_rows + 1`).
    #[must_use]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Raw column index array.
    #[must_use]
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Raw value array.
    #[must_use]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Mutable access to the value array (the sparsity pattern is fixed).
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// Column indices and values of row `row`.
    #[must_use]
    pub fn row_entries(&self, row: usize) -> (&[u32], &[T]) {
        let start = self.row_ptr[row];
        let end = self.row_ptr[row + 1];
        (&self.col_idx[start..end], &self.values[start..end])
    }

    /// Value stored at `(row, col)`, or `None` if the position is not in the
    /// sparsity pattern.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> Option<T> {
        let (cols, vals) = self.row_entries(row);
        cols.iter().position(|&c| c as usize == col).map(|p| vals[p])
    }

    /// Copy of the main diagonal as a dense vector (missing diagonal entries
    /// yield zero).
    #[must_use]
    pub fn diagonal(&self) -> Vec<T> {
        let n = self.n_rows.min(self.n_cols);
        let mut d = vec![T::zero(); n];
        for (i, di) in d.iter_mut().enumerate() {
            if let Some(v) = self.get(i, i) {
                *di = v;
            }
        }
        d
    }

    /// Convert the stored values to another precision, keeping the pattern.
    ///
    /// This is the "cast the preconditioner / matrix values to fp32 or fp16"
    /// operation used throughout Section 5 of the paper.
    #[must_use]
    pub fn to_precision<D: Scalar>(&self) -> CsrMatrix<D> {
        CsrMatrix {
            n_rows: self.n_rows,
            n_cols: self.n_cols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values: self.values.iter().map(|v| D::from_f64(v.to_f64())).collect(),
        }
    }

    /// Transpose (explicit, builds a new matrix).
    #[must_use]
    pub fn transpose(&self) -> CsrMatrix<T> {
        let mut row_counts = vec![0usize; self.n_cols + 1];
        for &c in &self.col_idx {
            row_counts[c as usize + 1] += 1;
        }
        for i in 0..self.n_cols {
            row_counts[i + 1] += row_counts[i];
        }
        let row_ptr = row_counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![T::zero(); self.nnz()];
        let mut next = row_counts;
        for row in 0..self.n_rows {
            let (cols, vals) = self.row_entries(row);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                let dst = next[c as usize];
                col_idx[dst] = row as u32;
                values[dst] = v;
                next[c as usize] += 1;
            }
        }
        CsrMatrix {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// `true` if the matrix is numerically symmetric to relative tolerance
    /// `tol` (pattern-symmetric and `|a_ij - a_ji| <= tol * max|a|`).
    #[must_use]
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let at = self.transpose();
        if at.row_ptr != self.row_ptr || at.col_idx != self.col_idx {
            // Patterns differ structurally; still possible to be numerically
            // symmetric if mismatched entries are zero, but we treat that as
            // non-symmetric (generators always produce pattern-symmetric
            // matrices when they are symmetric).
            return false;
        }
        let scale = self
            .values
            .iter()
            .map(|v| v.to_f64().abs())
            .fold(0.0f64, f64::max)
            .max(1e-300);
        self.values
            .iter()
            .zip(at.values.iter())
            .all(|(a, b)| (a.to_f64() - b.to_f64()).abs() <= tol * scale)
    }

    /// Largest absolute value of any stored entry.
    #[must_use]
    pub fn max_abs(&self) -> f64 {
        self.values
            .iter()
            .map(|v| v.to_f64().abs())
            .fold(0.0f64, f64::max)
    }

    /// Multiply every diagonal entry by `alpha`, in place.
    ///
    /// This is the α_ILU / α_AINV stabilisation used in Section 5: the
    /// factorisation is applied to a matrix whose diagonal has been boosted
    /// by a problem-dependent factor.
    pub fn scale_diagonal(&mut self, alpha: f64) {
        for row in 0..self.n_rows {
            let start = self.row_ptr[row];
            let end = self.row_ptr[row + 1];
            for k in start..end {
                if self.col_idx[k] as usize == row {
                    let v = self.values[k].to_f64() * alpha;
                    self.values[k] = T::from_f64(v);
                }
            }
        }
    }

    /// Return `D_r A D_c` where `D_r`, `D_c` are diagonal matrices given as
    /// dense vectors (entries in `f64`).
    ///
    /// # Panics
    /// Panics if the scaling vectors do not match the matrix dimensions.
    #[must_use]
    #[allow(clippy::needless_range_loop)] // row indexes three parallel arrays
    pub fn scale_rows_cols(&self, row_scale: &[f64], col_scale: &[f64]) -> CsrMatrix<T> {
        assert_eq!(row_scale.len(), self.n_rows);
        assert_eq!(col_scale.len(), self.n_cols);
        let mut out = self.clone();
        for row in 0..self.n_rows {
            let start = self.row_ptr[row];
            let end = self.row_ptr[row + 1];
            for k in start..end {
                let c = self.col_idx[k] as usize;
                let v = self.values[k].to_f64() * row_scale[row] * col_scale[c];
                out.values[k] = T::from_f64(v);
            }
        }
        out
    }

    /// Bytes used to store the matrix (values + 32-bit column indices +
    /// 32-bit row pointers, matching the paper's storage convention).
    #[must_use]
    pub fn storage_bytes(&self) -> u64 {
        (self.nnz() as u64) * (T::PRECISION.bytes() as u64 + 4) + 4 * (self.n_rows as u64 + 1)
    }

    /// The precision in which values are stored.
    #[must_use]
    pub fn value_precision(&self) -> Precision {
        T::PRECISION
    }

    /// Extract the lower triangle (including the diagonal) as a new CSR
    /// matrix. Used by the IC(0)/ILU(0) factorisations.
    #[must_use]
    pub fn lower_triangle(&self) -> CsrMatrix<T> {
        self.filter(|r, c| c <= r)
    }

    /// Extract the strict upper triangle as a new CSR matrix.
    #[must_use]
    pub fn strict_upper_triangle(&self) -> CsrMatrix<T> {
        self.filter(|r, c| c > r)
    }

    /// Keep only entries for which `keep(row, col)` returns true.
    #[must_use]
    pub fn filter(&self, keep: impl Fn(usize, usize) -> bool) -> CsrMatrix<T> {
        let mut row_ptr = vec![0usize; self.n_rows + 1];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for row in 0..self.n_rows {
            let (cols, vals) = self.row_entries(row);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                if keep(row, c as usize) {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr[row + 1] = col_idx.len();
        }
        CsrMatrix {
            n_rows: self.n_rows,
            n_cols: self.n_cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Extract the square diagonal sub-block spanning rows/columns
    /// `[start, end)` as a standalone CSR matrix (entries outside the block
    /// are dropped).  Used by the block-Jacobi preconditioner.
    #[must_use]
    pub fn diagonal_block(&self, start: usize, end: usize) -> CsrMatrix<T> {
        assert!(start <= end && end <= self.n_rows.min(self.n_cols));
        let n = end - start;
        let mut row_ptr = vec![0usize; n + 1];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for (local, row) in (start..end).enumerate() {
            let (cols, vals) = self.row_entries(row);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                let c = c as usize;
                if c >= start && c < end {
                    col_idx.push((c - start) as u32);
                    values.push(v);
                }
            }
            row_ptr[local + 1] = col_idx.len();
        }
        CsrMatrix {
            n_rows: n,
            n_cols: n,
            row_ptr,
            col_idx,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use half::f16;

    fn sample() -> CsrMatrix<f64> {
        // [ 4 -1  0]
        // [-1  4 -1]
        // [ 0 -1  4]
        let mut coo = CooMatrix::new(3, 3);
        for i in 0..3 {
            coo.push(i, i, 4.0);
        }
        coo.push(0, 1, -1.0);
        coo.push(1, 0, -1.0);
        coo.push(1, 2, -1.0);
        coo.push(2, 1, -1.0);
        coo.to_csr()
    }

    #[test]
    fn basic_accessors() {
        let a = sample();
        assert_eq!(a.n_rows(), 3);
        assert_eq!(a.n_cols(), 3);
        assert_eq!(a.nnz(), 7);
        assert!((a.nnz_per_row() - 7.0 / 3.0).abs() < 1e-12);
        assert!(a.is_square());
        assert_eq!(a.diagonal(), vec![4.0, 4.0, 4.0]);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.value_precision(), Precision::Fp64);
    }

    #[test]
    fn identity_matrix() {
        let i = CsrMatrix::<f32>::identity(4);
        assert_eq!(i.nnz(), 4);
        for k in 0..4 {
            assert_eq!(i.get(k, k), Some(1.0));
        }
    }

    #[test]
    fn precision_cast_keeps_pattern_and_rounds_values() {
        let a = sample();
        let a16: CsrMatrix<f16> = a.to_precision();
        assert_eq!(a16.nnz(), a.nnz());
        assert_eq!(a16.row_ptr(), a.row_ptr());
        assert_eq!(a16.col_idx(), a.col_idx());
        assert_eq!(a16.get(0, 0).map(f3r_precision::Scalar::to_f64), Some(4.0));
        assert_eq!(a16.value_precision(), Precision::Fp16);
    }

    #[test]
    fn transpose_of_symmetric_matrix_is_identical() {
        let a = sample();
        let at = a.transpose();
        assert_eq!(a, at);
        assert!(a.is_symmetric(1e-14));
    }

    #[test]
    fn transpose_of_nonsymmetric_matrix() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 2, 5.0);
        coo.push(1, 0, 2.0);
        let a = coo.to_csr();
        let at = a.transpose();
        assert_eq!(at.n_rows(), 3);
        assert_eq!(at.n_cols(), 2);
        assert_eq!(at.get(2, 0), Some(5.0));
        assert_eq!(at.get(0, 1), Some(2.0));
        assert!(!a.is_symmetric(1e-14));
    }

    #[test]
    fn scale_diagonal_only_touches_diagonal() {
        let mut a = sample();
        a.scale_diagonal(1.1);
        assert!((a.get(0, 0).unwrap() - 4.4).abs() < 1e-12);
        assert_eq!(a.get(0, 1), Some(-1.0));
    }

    #[test]
    fn scale_rows_cols_applies_jacobi_scaling() {
        let a = sample();
        let d: Vec<f64> = a.diagonal().iter().map(|v| 1.0 / v.sqrt()).collect();
        let scaled = a.scale_rows_cols(&d, &d);
        for i in 0..3 {
            assert!((scaled.get(i, i).unwrap() - 1.0).abs() < 1e-12);
        }
        assert!(scaled.is_symmetric(1e-14));
    }

    #[test]
    fn triangles_partition_the_matrix() {
        let a = sample();
        let l = a.lower_triangle();
        let u = a.strict_upper_triangle();
        assert_eq!(l.nnz() + u.nnz(), a.nnz());
        assert_eq!(l.get(1, 0), Some(-1.0));
        assert_eq!(l.get(0, 1), None);
        assert_eq!(u.get(0, 1), Some(-1.0));
    }

    #[test]
    fn diagonal_block_extraction() {
        let a = sample();
        let b = a.diagonal_block(1, 3);
        assert_eq!(b.n_rows(), 2);
        assert_eq!(b.get(0, 0), Some(4.0));
        assert_eq!(b.get(0, 1), Some(-1.0));
        assert_eq!(b.get(1, 0), Some(-1.0));
        // the (1,0) entry of A (outside the block) is dropped
        assert_eq!(b.nnz(), 4);
    }

    #[test]
    fn storage_bytes_depends_on_precision() {
        let a = sample();
        let a32: CsrMatrix<f32> = a.to_precision();
        let a16: CsrMatrix<f16> = a.to_precision();
        assert!(a16.storage_bytes() < a32.storage_bytes());
        assert!(a32.storage_bytes() < a.storage_bytes());
        assert_eq!(a.storage_bytes(), 7 * 12 + 4 * 4);
    }

    #[test]
    #[should_panic(expected = "row_ptr must be monotone")]
    fn invalid_row_ptr_panics() {
        let _ = CsrMatrix::<f64>::from_parts(3, 2, vec![0, 2, 1, 2], vec![0, 1], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "column index out of range")]
    fn invalid_col_idx_panics() {
        let _ = CsrMatrix::<f64>::from_parts(1, 1, vec![0, 1], vec![3], vec![1.0]);
    }
}
