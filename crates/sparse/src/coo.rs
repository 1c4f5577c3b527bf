//! Coordinate-format (COO) sparse matrix builder.
//!
//! COO is only used as an assembly format: the problem generators and the
//! Matrix Market reader push `(row, col, value)` triplets into a
//! [`CooMatrix`], which is then converted into the compressed sparse row
//! format ([`crate::csr::CsrMatrix`]) used by every kernel in the workspace.

use f3r_precision::Scalar;

use crate::csr::CsrMatrix;

/// A coordinate-format sparse matrix used for assembly.
///
/// Duplicate entries are allowed and are summed when converting to CSR,
/// which is the usual finite-element/stencil assembly convention.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix<T> {
    n_rows: usize,
    n_cols: usize,
    entries: Vec<(u32, u32, T)>,
}

impl<T: Scalar> CooMatrix<T> {
    /// Create an empty `n_rows x n_cols` COO matrix.
    ///
    /// # Panics
    /// Panics if either dimension exceeds `u32::MAX` (indices are stored as
    /// 32-bit integers, following the paper's storage convention).
    #[must_use]
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        assert!(n_rows <= u32::MAX as usize, "row count exceeds u32 index range");
        assert!(n_cols <= u32::MAX as usize, "column count exceeds u32 index range");
        Self {
            n_rows,
            n_cols,
            entries: Vec::new(),
        }
    }

    /// Create an empty COO matrix with room for `cap` entries.
    #[must_use]
    pub fn with_capacity(n_rows: usize, n_cols: usize, cap: usize) -> Self {
        let mut m = Self::new(n_rows, n_cols);
        m.entries.reserve(cap);
        m
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

    /// Append the triplet `(row, col, value)`.
    ///
    /// # Panics
    /// Panics if `row`/`col` are out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: T) {
        assert!(row < self.n_rows, "row {row} out of bounds ({})", self.n_rows);
        assert!(col < self.n_cols, "col {col} out of bounds ({})", self.n_cols);
        self.entries.push((row as u32, col as u32, value));
    }

    /// Append the triplet and its transpose `(col, row, value)`; convenient
    /// for assembling symmetric operators from their lower triangle.
    pub fn push_sym(&mut self, row: usize, col: usize, value: T) {
        self.push(row, col, value);
        if row != col {
            self.push(col, row, value);
        }
    }

    /// Access the raw triplets.
    #[must_use]
    pub fn entries(&self) -> &[(u32, u32, T)] {
        &self.entries
    }

    /// Convert to CSR, sorting entries and summing duplicates.
    #[must_use]
    pub fn to_csr(&self) -> CsrMatrix<T> {
        let mut entries = self.entries.clone();
        entries.sort_unstable_by_key(|&(r, c, _)| (r, c));

        let mut row_ptr = vec![0usize; self.n_rows + 1];
        let mut col_idx: Vec<u32> = Vec::with_capacity(entries.len());
        let mut values: Vec<T> = Vec::with_capacity(entries.len());

        let mut i = 0;
        while i < entries.len() {
            let (r, c, mut v) = entries[i];
            let mut j = i + 1;
            while j < entries.len() && entries[j].0 == r && entries[j].1 == c {
                v += entries[j].2;
                j += 1;
            }
            col_idx.push(c);
            values.push(v);
            row_ptr[r as usize + 1] += 1;
            i = j;
        }
        for r in 0..self.n_rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        CsrMatrix::from_parts(self.n_rows, self.n_cols, row_ptr, col_idx, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_and_sums_duplicates() {
        let mut coo = CooMatrix::<f64>::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 0, 2.0); // duplicate, summed
        coo.push(1, 2, 4.0);
        coo.push(2, 1, -1.0);
        coo.push(2, 2, 5.0);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 4);
        assert_eq!(csr.get(0, 0), Some(3.0));
        assert_eq!(csr.get(1, 2), Some(4.0));
        assert_eq!(csr.get(2, 1), Some(-1.0));
        assert_eq!(csr.get(2, 2), Some(5.0));
        assert_eq!(csr.get(1, 1), None);
    }

    #[test]
    fn push_sym_mirrors_off_diagonal() {
        let mut coo = CooMatrix::<f64>::new(2, 2);
        coo.push_sym(0, 0, 2.0);
        coo.push_sym(1, 0, -1.0);
        let csr = coo.to_csr();
        assert_eq!(csr.get(0, 1), Some(-1.0));
        assert_eq!(csr.get(1, 0), Some(-1.0));
        assert_eq!(csr.nnz(), 3);
    }

    #[test]
    fn empty_rows_are_handled() {
        let mut coo = CooMatrix::<f32>::new(4, 4);
        coo.push(0, 0, 1.0);
        coo.push(3, 3, 1.0);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.row_entries(1).0.len(), 0);
        assert_eq!(csr.row_entries(2).0.len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_push_panics() {
        let mut coo = CooMatrix::<f64>::new(2, 2);
        coo.push(2, 0, 1.0);
    }
}
