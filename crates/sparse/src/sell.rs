//! Sliced ELLPACK (SELL-C) storage.
//!
//! The GPU experiments of the paper (Section 5.2) store matrices in the
//! sliced ELLPACK format of Monakov et al. with a chunk (slice) size of 32.
//! Rows are grouped into chunks; within a chunk every row is padded to the
//! length of the longest row, and values are laid out column-major inside
//! the chunk so that consecutive lanes access consecutive memory.  The same
//! layout is reproduced here and consumed by the product driver
//! ([`crate::spmm::spmm`], eight rows of a chunk at a time where the kernel
//! backend allows); it serves as the "GPU backend" of the experiment harness.

use f3r_precision::Scalar;

use crate::csr::CsrMatrix;

/// A sparse matrix in sliced ELLPACK format with a fixed chunk size.
#[derive(Debug, Clone, PartialEq)]
pub struct SellMatrix<T> {
    n_rows: usize,
    n_cols: usize,
    chunk: usize,
    /// Width (padded row length) of each chunk.
    chunk_width: Vec<usize>,
    /// Start offset of each chunk in `col_idx`/`values`.
    chunk_ptr: Vec<usize>,
    /// Column indices, column-major within each chunk; padding lanes store
    /// the row's own index so gathers stay in bounds.
    col_idx: Vec<u32>,
    /// Values, column-major within each chunk; padding lanes store zero.
    values: Vec<T>,
    nnz: usize,
}

impl<T: Scalar> SellMatrix<T> {
    /// Convert a CSR matrix into sliced ELLPACK with the given chunk size.
    ///
    /// # Panics
    /// Panics if `chunk` is zero.
    #[must_use]
    pub fn from_csr(a: &CsrMatrix<T>, chunk: usize) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        let n_rows = a.n_rows();
        let n_chunks = n_rows.div_ceil(chunk);
        let mut chunk_width = vec![0usize; n_chunks];
        for row in 0..n_rows {
            let len = a.row_entries(row).0.len();
            let c = row / chunk;
            chunk_width[c] = chunk_width[c].max(len);
        }
        let mut chunk_ptr = vec![0usize; n_chunks + 1];
        for c in 0..n_chunks {
            chunk_ptr[c + 1] = chunk_ptr[c] + chunk_width[c] * chunk;
        }
        let total = chunk_ptr[n_chunks];
        let mut col_idx = vec![0u32; total];
        let mut values = vec![T::zero(); total];
        for row in 0..n_rows {
            let c = row / chunk;
            let lane = row % chunk;
            let base = chunk_ptr[c];
            let width = chunk_width[c];
            let (cols, vals) = a.row_entries(row);
            for k in 0..width {
                let pos = base + k * chunk + lane;
                if k < cols.len() {
                    col_idx[pos] = cols[k];
                    values[pos] = vals[k];
                } else {
                    // padding: point at the row itself with a zero value
                    col_idx[pos] = row as u32;
                    values[pos] = T::zero();
                }
            }
        }
        Self {
            n_rows,
            n_cols: a.n_cols(),
            chunk,
            chunk_width,
            chunk_ptr,
            col_idx,
            values,
            nnz: a.nnz(),
        }
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

    /// Number of logical (unpadded) nonzeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Chunk (slice) size.
    #[must_use]
    pub fn chunk_size(&self) -> usize {
        self.chunk
    }

    /// Number of stored slots including padding.
    #[must_use]
    pub fn padded_len(&self) -> usize {
        self.values.len()
    }

    /// Padding overhead: stored slots divided by logical nonzeros.
    #[must_use]
    pub fn padding_ratio(&self) -> f64 {
        if self.nnz == 0 {
            1.0
        } else {
            self.padded_len() as f64 / self.nnz as f64
        }
    }

    /// Iterate over the (column, value) pairs of one row, including padding
    /// slots (whose value is exactly zero, so they do not affect products).
    pub fn row_iter(&self, row: usize) -> impl Iterator<Item = (usize, T)> + '_ {
        let c = row / self.chunk;
        let lane = row % self.chunk;
        let base = self.chunk_ptr[c];
        let width = self.chunk_width[c];
        let chunk = self.chunk;
        (0..width).map(move |k| {
            let pos = base + k * chunk + lane;
            (self.col_idx[pos] as usize, self.values[pos])
        })
    }

    /// Raw lane view of one row for streaming kernels: column/value slices
    /// beginning at the row's first lane slot, the stride between
    /// consecutive lanes, and the row's padded width.
    ///
    /// The row's `k`-th (possibly padding) entry lives at offset
    /// `k * stride` of both slices, for `k < width`.  Padding entries store
    /// a zero value and the row's own column index, so kernels can consume
    /// all `width` lanes unconditionally.
    #[must_use]
    pub fn row_lanes(&self, row: usize) -> (&[u32], &[T], usize, usize) {
        let c = row / self.chunk;
        let lane = row % self.chunk;
        let end = self.chunk_ptr[c + 1];
        // A chunk of all-empty rows has width 0; clamp so the slices stay
        // valid (the returned width of 0 means kernels read nothing).
        let base = (self.chunk_ptr[c] + lane).min(end);
        (
            &self.col_idx[base..end],
            &self.values[base..end],
            self.chunk,
            self.chunk_width[c],
        )
    }

    /// Bytes used to store the matrix (padded values + padded 32-bit column
    /// indices + chunk bookkeeping).
    #[must_use]
    pub fn storage_bytes(&self) -> u64 {
        (self.padded_len() as u64) * (T::PRECISION.bytes() as u64 + 4)
            + 8 * (self.chunk_ptr.len() as u64 + self.chunk_width.len() as u64)
    }

    /// Convert the stored values to another precision, keeping the layout.
    #[must_use]
    pub fn to_precision<D: Scalar>(&self) -> SellMatrix<D> {
        SellMatrix {
            n_rows: self.n_rows,
            n_cols: self.n_cols,
            chunk: self.chunk,
            chunk_width: self.chunk_width.clone(),
            chunk_ptr: self.chunk_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values: self.values.iter().map(|v| D::from_f64(v.to_f64())).collect(),
            nnz: self.nnz,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn irregular() -> CsrMatrix<f64> {
        // rows with 1, 3, 2, 0, 4 nonzeros
        let mut coo = CooMatrix::new(5, 5);
        coo.push(0, 0, 1.0);
        coo.push(1, 0, 2.0);
        coo.push(1, 1, 3.0);
        coo.push(1, 4, 4.0);
        coo.push(2, 2, 5.0);
        coo.push(2, 3, 6.0);
        coo.push(4, 0, 7.0);
        coo.push(4, 1, 8.0);
        coo.push(4, 2, 9.0);
        coo.push(4, 4, 10.0);
        coo.to_csr()
    }

    #[test]
    fn conversion_preserves_entries() {
        let a = irregular();
        let s = SellMatrix::from_csr(&a, 2);
        assert_eq!(s.nnz(), a.nnz());
        assert_eq!(s.n_rows(), 5);
        for row in 0..5 {
            let mut dense = vec![0.0; 5];
            for (c, v) in s.row_iter(row) {
                dense[c] += v;
            }
            let (cols, vals) = a.row_entries(row);
            let mut expect = vec![0.0; 5];
            for (&c, &v) in cols.iter().zip(vals) {
                expect[c as usize] = v;
            }
            assert_eq!(dense, expect, "row {row}");
        }
    }

    #[test]
    fn padding_ratio_reflects_irregularity() {
        let a = irregular();
        let s1 = SellMatrix::from_csr(&a, 1); // per-row chunks: no padding
        let s5 = SellMatrix::from_csr(&a, 5); // single chunk padded to 4
        assert!((s1.padding_ratio() - 1.0).abs() < 1e-12);
        assert_eq!(s5.padded_len(), 20);
        assert!(s5.padding_ratio() > 1.9);
    }

    #[test]
    fn chunk_size_32_paper_default() {
        let a = irregular();
        let s = SellMatrix::from_csr(&a, 32);
        assert_eq!(s.chunk_size(), 32);
        // One chunk of width 4 padded to 32 lanes.
        assert_eq!(s.padded_len(), 4 * 32);
    }

    #[test]
    fn precision_cast_keeps_layout() {
        let a = irregular();
        let s = SellMatrix::from_csr(&a, 2);
        let s16 = s.to_precision::<half::f16>();
        assert_eq!(s16.padded_len(), s.padded_len());
        assert!(s16.storage_bytes() < s.storage_bytes());
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_panics() {
        let a = irregular();
        let _ = SellMatrix::from_csr(&a, 0);
    }
}
