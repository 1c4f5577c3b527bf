//! One coefficient-matrix copy as a solver level keeps it.
//!
//! A level streams the matrix in a *layout* (CSR or sliced ELLPACK) and a
//! *storage precision* `S`, plain or **row-scaled**: row-normalised values
//! plus one power-of-two `f64` amplitude scale per row, the represented row
//! being `row_scale * stored_row`.  [`StoredMatrix`] owns exactly that — it is
//! the owned twin of the [`Rows`](crate::spmm::Rows) view the product driver
//! streams, and the driver takes a reference to one like it takes a
//! reference to a bare [`CsrMatrix`] or [`SellMatrix`].
//!
//! Row scaling is the matrix-side mirror of the compressed Krylov basis
//! ([`narrow_scaled_into`](crate::blas1::narrow_scaled_into)'s convention):
//! every stored magnitude is at most one (division by a power of two is
//! exact, so the only per-element rounding is the single narrowing into
//! `S`), which keeps fp16 matrix storage finite and accurate for *any* entry
//! dynamic range across rows — general Matrix Market inputs would otherwise
//! silently overflow to ±∞ or flush to zero in an unscaled fp16 copy.  The
//! driver consumes the stored form directly: each stored element is widened
//! exactly once into the row accumulator and the row scale is folded into the
//! accumulated sum once per row, so scaled storage streams at the storage
//! precision's memory bandwidth with one extra multiply per row.

use f3r_precision::{Precision, Scalar};

use crate::csr::CsrMatrix;
use crate::sell::SellMatrix;

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Layout<S> {
    Csr(CsrMatrix<S>),
    Sell(SellMatrix<S>),
}

/// A matrix stored in precision `S`, in CSR or sliced ELLPACK, plain or under
/// per-row power-of-two amplitude scales (see the [module docs](self)).
///
/// Plain storage is made from the layout itself (`From<CsrMatrix<S>>`,
/// `From<SellMatrix<S>>`), row-scaled storage by [`row_scaled`](Self::row_scaled).
#[derive(Debug, Clone, PartialEq)]
pub struct StoredMatrix<S> {
    pub(crate) layout: Layout<S>,
    /// One scale per row when row-scaled.
    pub(crate) row_scales: Option<Vec<f64>>,
}

impl<S> From<CsrMatrix<S>> for StoredMatrix<S> {
    fn from(a: CsrMatrix<S>) -> Self {
        Self { layout: Layout::Csr(a), row_scales: None }
    }
}

impl<S> From<SellMatrix<S>> for StoredMatrix<S> {
    fn from(a: SellMatrix<S>) -> Self {
        Self { layout: Layout::Sell(a), row_scales: None }
    }
}

impl<S: Scalar> StoredMatrix<S> {
    /// The row-scaled storage-precision copy of `a`: `a_ij / scale_i` narrowed
    /// into `S`, with `scale_i` the smallest power of two at least
    /// `max_j |a_ij|` ([`pow2_row_scales`](crate::scaling::pow2_row_scales)),
    /// in CSR, or in sliced ELLPACK with chunk size `sell_chunk` (the scales
    /// are computed once on the CSR form; the padding lanes store zero, which
    /// any row scale represents exactly).
    ///
    /// When `S` is `f64` — the construction precision, with the source's full
    /// exponent range — there is nothing to normalise: the result is the
    /// plain verbatim copy, without scales.
    ///
    /// # Panics
    /// Panics if `sell_chunk` is `Some(0)`.
    #[must_use]
    pub fn row_scaled(a: &CsrMatrix<f64>, sell_chunk: Option<usize>) -> Self {
        let (csr, row_scales) = if S::PRECISION == Precision::Fp64 {
            (a.to_precision::<S>(), None)
        } else {
            let row_scales = crate::scaling::pow2_row_scales(a);
            let mut values = Vec::with_capacity(a.nnz());
            for (row, &scale) in row_scales.iter().enumerate() {
                let (_, vals) = a.row_entries(row);
                // Division by a power of two is exact in f64; the narrowing
                // into S is the single per-element rounding.  Divide rather
                // than multiply by the reciprocal: for subnormal row
                // amplitudes (scale ≤ 2^-1023) the reciprocal overflows to +∞
                // while the division stays exact.
                values.extend(vals.iter().map(|&v| S::from_f64(v / scale)));
            }
            let csr = CsrMatrix::from_parts(
                a.n_rows(),
                a.n_cols(),
                a.row_ptr().to_vec(),
                a.col_idx().to_vec(),
                values,
            );
            (csr, Some(row_scales))
        };
        let layout = match sell_chunk {
            None => Layout::Csr(csr),
            Some(chunk) => Layout::Sell(SellMatrix::from_csr(&csr, chunk)),
        };
        Self { layout, row_scales }
    }

    /// The stored (when row-scaled: row-normalised) values in CSR, if that is
    /// the layout.
    #[must_use]
    pub fn csr(&self) -> Option<&CsrMatrix<S>> {
        match &self.layout {
            Layout::Csr(m) => Some(m),
            Layout::Sell(_) => None,
        }
    }

    /// The stored values in sliced ELLPACK, if that is the layout.
    #[must_use]
    pub fn sell(&self) -> Option<&SellMatrix<S>> {
        match &self.layout {
            Layout::Csr(_) => None,
            Layout::Sell(m) => Some(m),
        }
    }

    /// The per-row power-of-two amplitude scales of row-scaled storage.
    #[must_use]
    pub fn row_scales(&self) -> Option<&[f64]> {
        self.row_scales.as_deref()
    }

    /// Bytes held: the layout's values, indices and bookkeeping, plus the
    /// `f64` row scales when row-scaled.
    #[must_use]
    pub fn storage_bytes(&self) -> u64 {
        let layout = match &self.layout {
            Layout::Csr(m) => m.storage_bytes(),
            Layout::Sell(m) => m.storage_bytes(),
        };
        layout + self.row_scales.as_ref().map_or(0, |s| 8 * s.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::spmv::spmv;
    use half::f16;

    fn wide_range() -> CsrMatrix<f64> {
        // Entries spanning 1e-12 .. 1e12 within and across rows; the unscaled
        // fp16 copy of this matrix is pure ±inf / 0.
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 2.0e12);
        coo.push(0, 1, -3.0e11);
        coo.push(1, 1, 5.0e-12);
        coo.push(1, 2, 1.0e-12);
        coo.push(2, 2, 1.0);
        coo.to_csr()
    }

    /// The represented value at `(row, col)`: `row_scale * stored`.
    fn represented<S: Scalar>(s: &StoredMatrix<S>, row: usize, col: usize) -> f64 {
        let stored = s.csr().unwrap().get(row, col).unwrap().to_f64();
        stored * s.row_scales().unwrap()[row]
    }

    #[test]
    fn row_scaled_f64_storage_is_the_plain_verbatim_copy() {
        let a = wide_range();
        let s = StoredMatrix::<f64>::row_scaled(&a, None);
        assert_eq!(s, StoredMatrix::from(a.clone()));
        assert!(s.row_scales().is_none());
        assert_eq!(s.storage_bytes(), a.storage_bytes());
        let sell = StoredMatrix::<f64>::row_scaled(&a, Some(2));
        assert_eq!(sell, StoredMatrix::from(SellMatrix::from_csr(&a, 2)));
        assert!(sell.csr().is_none() && s.sell().is_none());
    }

    #[test]
    fn row_scaled_fp16_storage_survives_wide_dynamic_range() {
        let a = wide_range();
        let unscaled: CsrMatrix<f16> = a.to_precision();
        assert!(unscaled.values().iter().any(|v| !v.to_f64().is_finite()));
        let s = StoredMatrix::<f16>::row_scaled(&a, None);
        for stored in s.csr().unwrap().values() {
            assert!(stored.to_f64().is_finite());
            assert!(stored.to_f64().abs() <= 1.0);
        }
        // Represented values match the source to fp16's relative accuracy of
        // the row amplitude.
        for row in 0..3 {
            let (cols, vals) = a.row_entries(row);
            let amax = vals.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                let got = represented(&s, row, c as usize);
                assert!((got - v).abs() <= amax * 2.0f64.powi(-10), "({row},{c}): {got} vs {v}");
            }
        }
        assert_eq!(s.row_scales().unwrap().len(), 3);
        assert_eq!(s.row_scales().unwrap()[2], 1.0);
        assert_eq!(s.storage_bytes(), unscaled.storage_bytes() + 8 * 3);
    }

    #[test]
    fn row_scaled_storage_survives_subnormal_row_amplitudes() {
        // A row whose amplitude is subnormal: 1/scale overflows to +inf, but
        // the exact power-of-two division must still store finite values
        // with |stored| <= 1.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0e-310);
        coo.push(0, 1, -0.5e-310);
        coo.push(1, 1, 1.0);
        let a = coo.to_csr();
        let s = StoredMatrix::<f16>::row_scaled(&a, None);
        let scales = s.row_scales().unwrap();
        assert!(scales[0].is_finite() && scales[0] > 0.0);
        for v in s.csr().unwrap().values() {
            assert!(v.to_f64().is_finite());
            assert!(v.to_f64().abs() <= 1.0);
        }
        assert!((represented(&s, 0, 0) - 1.0e-310).abs() <= 1.0e-310 * 2.0f64.powi(-10));
    }

    #[test]
    fn row_scaled_storage_survives_near_max_row_amplitudes() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0e308);
        coo.push(0, 1, -0.5e308);
        coo.push(1, 1, 1.0);
        let a = coo.to_csr();
        let s = StoredMatrix::<f16>::row_scaled(&a, None);
        let scales = s.row_scales().unwrap();
        assert!(scales.iter().all(|r| r.is_finite()));
        assert!(s.csr().unwrap().values().iter().all(|v| v.to_f64().is_finite()));
        let x = vec![0.5f64, 0.25];
        let mut y_ref = vec![0.0f64; 2];
        let mut y = vec![0.0f64; 2];
        spmv(&a, &x, &mut y_ref);
        spmv(&s, &x, &mut y);
        for i in 0..2 {
            assert!(y[i].is_finite());
            assert!((y[i] - y_ref[i]).abs() <= 2.0f64.powi(-9) * scales[i]);
        }
    }

    #[test]
    fn row_scaled_sell_is_the_row_scaled_csr_in_sell() {
        // rows with 1, 3, 2, 0, 4 nonzeros, amplitudes far out of fp16 range
        let mut coo = CooMatrix::new(5, 5);
        for (r, c, v) in [
            (0, 0, 1.0),
            (1, 0, 2.0),
            (1, 1, 3.0),
            (1, 4, 4.0),
            (2, 2, 5.0),
            (2, 3, 6.0),
            (4, 0, 7.0),
            (4, 1, 8.0),
            (4, 2, 9.0),
            (4, 4, 10.0),
        ] {
            coo.push(r, c, v * 1.0e8);
        }
        let a = coo.to_csr();
        let csr = StoredMatrix::<f16>::row_scaled(&a, None);
        let sell = StoredMatrix::<f16>::row_scaled(&a, Some(2));
        assert_eq!(sell.row_scales(), csr.row_scales());
        assert_eq!(sell.row_scales().unwrap(), crate::scaling::pow2_row_scales(&a).as_slice());
        assert_eq!(sell.sell().unwrap(), &SellMatrix::from_csr(csr.csr().unwrap(), 2));
        assert_eq!(sell.storage_bytes(), sell.sell().unwrap().storage_bytes() + 8 * 5);
    }
}
