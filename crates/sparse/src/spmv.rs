//! Mixed-precision sparse matrix–vector products with direct widening.
//!
//! The sparse products are the dominant memory-bound kernels of every solver
//! in the paper.  They are generic over two precisions:
//!
//! * `TA` — the precision in which the matrix values are *stored*
//!   (fp64/fp32/fp16 depending on the nesting level, Table 1),
//! * `TV` — the precision of the input/output vectors.
//!
//! Arithmetic follows the paper's rule that "higher-precision instructions
//! are used when the inputs differ in precision": each row accumulates in
//! `TV::Accum` (fp32 when the vectors are fp16, otherwise the vector
//! precision itself).
//!
//! # The widening convention
//!
//! Every stored operand enters the accumulator through a **single direct
//! conversion**: vector entries via [`Scalar::widen`] (exact; `f32`/`f64`
//! are the identity) and matrix values via [`FromScalar::from_scalar`]
//! (`TA → TV::Accum` directly).  The historical kernels instead converted
//! *every element* through `f64` (`from_f64(x.to_f64())`) and issued a
//! scalar `mul_add` per element — two extra rounding steps and a libm call
//! on targets without FMA, which blocked autovectorisation and erased the
//! bandwidth advantage of narrow storage.  Those kernels are preserved in
//! [`crate::reference`] for correctness baselines and benchmarks.
//!
//! The row bodies here take their vector **in the accumulation precision**
//! (`x: &[A]`, `A` fp32 or fp64): the driver hands fp32/fp64 vectors over
//! where they lie and an fp16 vector widened once per product, in bulk, so
//! no row converts a vector entry, and fp16 matrix values reach the scalar
//! body from a bulk-widened window (`row_acc`).  See
//! [`crate::spmm`], "fp16 operands cross in bulk".
//!
//! Inner loops are unrolled four ways over independent partial accumulators
//! so LLVM can keep several chains in flight; results are reduced pairwise
//! and rounded back once per row with [`Scalar::narrow`].
//!
//! This module holds the *row bodies* — one CSR row, one SELL row, each
//! returning its accumulator — and nothing that walks a matrix: every product
//! (`y = A x`, the residual and dot-fused sweeps, scaled storage, SELL, any
//! number of columns, inline or on the pool) is [`crate::spmm::spmm`], which
//! owns the row loop, the epilogue and the dispatch.  [`spmv`] is its plain
//! one-column spelling.
//!
//! # SIMD backend
//!
//! Row accumulators are computed through the runtime-dispatched `f3r-simd`
//! backend when it is active: CSR rows with at least eight entries go
//! through gather-based vector kernels ([`f3r_simd::try_spmv_row`]), SELL
//! chunks whose height is a multiple of eight are processed eight rows at a
//! time ([`f3r_simd::try_sell_group8`]).  Both gather fp32 or fp64 entries of
//! `x` (there is no 16-bit gather, and no need for one) and widen the matrix
//! values they load in hardware, the `n mod 8` tail of a row included.
//! Whether a given row takes the SIMD or the scalar path depends only on
//! *global* properties (latched backend, row length, chunk geometry, vector
//! length) — never on which parallel task computes it — so inline and pooled
//! products stay bit-identical, as the tests assert.  Accumulation order inside a SIMD row differs from
//! the scalar chains (8/4 lanes with FMA instead of 4/2 scalar chains), so
//! row results agree with the scalar backend within the usual reduction
//! bounds rather than bitwise; everything downstream of the row accumulator
//! (narrowing, scale folds, fused dots) is unchanged.

use f3r_precision::{FromScalar, Scalar};

use crate::sell::SellMatrix;
use crate::spmm::{spmm, Dispatch, PanelOp, Rows};

/// `y = A x`: the one-column plain product of the driver,
/// [`spmm`]`(a, x, PanelOp::Product, y, 1, Dispatch::Auto)`, for any matrix
/// the driver streams ([`Rows`]: CSR or sliced ELLPACK, plain or row-scaled).
///
/// # Panics
/// Panics if the vector lengths do not match the matrix dimensions.
pub fn spmv<'a, TA: Scalar, TV: Scalar>(a: impl Into<Rows<'a, TA>>, x: &[TV], y: &mut [TV]) {
    spmm(a, x, PanelOp::Product, y, 1, Dispatch::Auto);
}

/// One CSR row: unrolled multi-accumulator dot of the row against `x`, in
/// the accumulation precision `A` the driver hands every vector over in
/// (callers narrow once).
///
/// The gathers skip per-element bounds checks: the driver asserts that every
/// panel column holds `n_cols` entries, and
/// [`CsrMatrix::from_parts`](crate::csr::CsrMatrix::from_parts) validates
/// that every stored column index is `< n_cols`, so the indices are in range
/// by construction (also re-checked with `debug_assert!` here).
#[inline(always)]
fn spmv_row<TA: Scalar, A: FromScalar>(cols: &[u32], vals: &[TA], x: &[A]) -> A {
    let gather = |c: u32| -> A {
        debug_assert!((c as usize) < x.len(), "CSR column index out of range");
        // SAFETY: see function docs — the CSR constructor bounds all column
        // indices by n_cols and the driver asserts x.len() == n_cols.
        unsafe { *x.get_unchecked(c as usize) }
    };
    let mut acc0 = A::zero();
    let mut acc1 = A::zero();
    let mut acc2 = A::zero();
    let mut acc3 = A::zero();
    let mut c4 = cols.chunks_exact(4);
    let mut v4 = vals.chunks_exact(4);
    for (c, v) in (&mut c4).zip(&mut v4) {
        acc0 += A::from_scalar(v[0]) * gather(c[0]);
        acc1 += A::from_scalar(v[1]) * gather(c[1]);
        acc2 += A::from_scalar(v[2]) * gather(c[2]);
        acc3 += A::from_scalar(v[3]) * gather(c[3]);
    }
    for (&c, &v) in c4.remainder().iter().zip(v4.remainder().iter()) {
        acc0 += A::from_scalar(v) * gather(c);
    }
    (acc0 + acc1) + (acc2 + acc3)
}

/// One CSR row through the kernel backend: the SIMD gather kernel when the
/// backend accepts the row (active backend, ≥ 8 entries, gather-safe vector
/// length), the scalar [`spmv_row`] otherwise.  The acceptance conditions
/// are global per (matrix, vector) pair, so inline and pooled sweeps make
/// identical per-row choices.
///
/// The SIMD kernel converts the values it loads in hardware.  The scalar
/// body would convert fp16 values one by one in software, so a row it gets
/// is read from `widened()` instead when that has them — the row's values
/// already in `TA::Accum`, from a bulk conversion the driver shares between
/// rows.  Widening is exact: the row's bits are the same either way.
#[inline(always)]
pub(crate) fn row_acc<'w, TA: Scalar, A: FromScalar>(
    cols: &[u32],
    vals: &[TA],
    x: &[A],
    widened: impl FnOnce() -> Option<&'w [TA::Accum]>,
) -> A {
    // SAFETY: `try_spmv_row` requires every column index to be a valid index
    // into `x` — the CsrMatrix constructor invariant plus the driver's
    // `x.len() == n_cols` assertion (the same contract `spmv_row`'s unchecked
    // gathers rely on).
    if let Some(acc) = unsafe { f3r_simd::try_spmv_row(cols, vals, x) } {
        return acc;
    }
    match widened() {
        Some(wide) => spmv_row(cols, wide, x),
        None => spmv_row(cols, vals, x),
    }
}

/// One sliced-ELLPACK row: strided walk over the row's lanes with the same
/// widen-into-accumulator scheme as the CSR kernel (two independent chains;
/// SELL rows are strided, so deeper unrolling buys nothing here).
#[inline(always)]
pub(crate) fn sell_row<TA: Scalar, A: FromScalar>(a: &SellMatrix<TA>, row: usize, x: &[A]) -> A {
    let (cols, vals, stride, width) = a.row_lanes(row);
    let mut acc0 = A::zero();
    let mut acc1 = A::zero();
    let mut k = 0usize;
    let twice = width & !1;
    while k < twice {
        let p0 = k * stride;
        let p1 = (k + 1) * stride;
        acc0 += A::from_scalar(vals[p0]) * x[cols[p0] as usize];
        acc1 += A::from_scalar(vals[p1]) * x[cols[p1] as usize];
        k += 2;
    }
    if k < width {
        let p = k * stride;
        acc0 += A::from_scalar(vals[p]) * x[cols[p] as usize];
    }
    acc0 + acc1
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::csr::CsrMatrix;
    use crate::stored::StoredMatrix;
    use half::f16;

    fn tridiag(n: usize) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
            }
        }
        coo.to_csr()
    }

    /// Tridiagonal matrix whose row amplitudes sweep `1e-12 .. 1e12` — the
    /// unscaled fp16 copy is pure ±inf / 0.
    fn wide_range_tridiag(n: usize) -> CsrMatrix<f64> {
        let a = tridiag(n);
        let d: Vec<f64> = (0..n)
            .map(|i| 10f64.powf(-12.0 + 24.0 * i as f64 / (n - 1) as f64))
            .collect();
        a.scale_rows_cols(&d, &vec![1.0; n])
    }

    #[test]
    fn spmv_matches_dense_reference() {
        let a = tridiag(10);
        let x: Vec<f64> = (0..10).map(|i| (i as f64 + 1.0) * 0.1).collect();
        let mut y = vec![0.0; 10];
        spmv(&a, &x, &mut y);
        for i in 0..10 {
            let mut expect = 2.0 * x[i];
            if i > 0 {
                expect -= x[i - 1];
            }
            if i + 1 < 10 {
                expect -= x[i + 1];
            }
            assert!((y[i] - expect).abs() < 1e-14);
        }
    }

    #[test]
    fn mixed_precision_fp16_matrix_fp32_vectors() {
        let a = tridiag(50);
        let a16: CsrMatrix<f16> = a.to_precision();
        let x: Vec<f32> = (0..50).map(|i| (i as f32 * 0.01).cos()).collect();
        let mut y64 = vec![0.0f64; 50];
        let x64: Vec<f64> = x.iter().map(|&v| f64::from(v)).collect();
        spmv(&a, &x64, &mut y64);
        let mut y = vec![0.0f32; 50];
        spmv(&a16, &x, &mut y);
        for i in 0..50 {
            assert!(
                (f64::from(y[i]) - y64[i]).abs() < 1e-2,
                "row {i}: {} vs {}",
                y[i],
                y64[i]
            );
        }
    }

    #[test]
    fn pure_fp16_spmv_accumulates_in_fp32() {
        // With many same-sign terms an fp16 accumulation would visibly drift;
        // the f32 accumulation keeps the row sums near-exact for values that
        // are exactly representable in fp16.
        let n = 64;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for j in 0..n {
                coo.push(i, j, 1.0);
            }
        }
        let a: CsrMatrix<f16> = coo.to_csr().to_precision();
        let x = vec![f16::from_f32(1.0); n];
        let mut y = vec![f16::from_f32(0.0); n];
        spmv(&a, &x, &mut y);
        for yi in &y {
            assert_eq!(yi.to_f64(), n as f64);
        }
    }

    #[test]
    fn sell_rows_match_csr_rows() {
        let a = tridiag(1000);
        let sell = SellMatrix::from_csr(&a, 32);
        let x: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.01).sin()).collect();
        let mut y1 = vec![0.0; 1000];
        let mut y2 = vec![0.0; 1000];
        spmv(&a, &x, &mut y1);
        spmv(&sell, &x, &mut y2);
        for i in 0..1000 {
            assert!((y1[i] - y2[i]).abs() < 1e-13);
        }
    }

    #[test]
    fn scaled_spmv_matches_f64_reference_on_wide_range_matrix() {
        let n = 300;
        let a = wide_range_tridiag(n);
        let x: Vec<f64> = (0..n).map(|i| ((i % 13) as f64 - 6.0) / 13.0).collect();
        let mut y_ref = vec![0.0f64; n];
        spmv(&a, &x, &mut y_ref);

        // The unscaled fp16 copy is useless here …
        let a16: CsrMatrix<f16> = a.to_precision();
        assert!(a16.values().iter().any(|v| !v.to_f64().is_finite()));

        // … the row-scaled fp16 copies match to fp16 storage accuracy.
        let s16 = StoredMatrix::<f16>::row_scaled(&a, None);
        let sell16 = StoredMatrix::<f16>::row_scaled(&a, Some(32));
        let scales = s16.row_scales().unwrap();
        let mut y = vec![0.0f64; n];
        let mut y_sell = vec![0.0f64; n];
        spmv(&s16, &x, &mut y);
        spmv(&sell16, &x, &mut y_sell);
        for i in 0..n {
            // Per-element storage error ≤ eps_fp16 · row_scale; ≤ 3 entries
            // per row with |x| ≤ 1/2 bounds the row error by 2^-9 · scale.
            let tol = 2.0f64.powi(-9) * scales[i];
            assert!((y[i] - y_ref[i]).abs() <= tol, "row {i}: {} vs {}", y[i], y_ref[i]);
            // CSR and SELL group the row sum differently (4 vs 2 partial
            // accumulators), so allow roundoff at the row amplitude.
            let tol = 1e-13 * scales[i];
            assert!((y[i] - y_sell[i]).abs() <= tol, "row {i}: {} vs {}", y[i], y_sell[i]);
        }
    }
}
