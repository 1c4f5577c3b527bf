//! Mixed-precision sparse matrix–vector products with direct widening.
//!
//! The SpMV kernels are the dominant memory-bound kernels of every solver in
//! the paper.  They are generic over two precisions:
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
//! conversion**: vector entries via [`Scalar::widen`] (`f16 → f32` is one
//! instruction/bit-cast sequence, `f32`/`f64` are the identity) and matrix
//! values via [`FromScalar::from_scalar`] (`TA → TV::Accum` directly).  The
//! historical kernels instead converted *every element* through `f64`
//! (`from_f64(x.to_f64())`) and issued a scalar `mul_add` per element — two
//! extra rounding steps and a libm call on targets without FMA, which
//! blocked autovectorisation and erased the bandwidth advantage of narrow
//! storage.  Those kernels are preserved in [`crate::reference`] for
//! correctness baselines and benchmarks.
//!
//! Inner loops are unrolled four ways over independent partial accumulators
//! so LLVM can keep several chains in flight; results are reduced pairwise
//! and rounded back once per row with [`Scalar::narrow`].
//!
//! Every kernel has a sequential and a thread-parallel variant (chunk tasks
//! on the persistent `f3r-parallel` worker pool); the un-suffixed entry
//! points dispatch on problem size so small systems do not pay even the
//! pool's (small) dispatch overhead.  The multi-vector (SpMM) products live
//! in [`crate::spmm`].
//!
//! # SIMD backend
//!
//! Row accumulators are computed through the runtime-dispatched `f3r-simd`
//! backend when it is active: CSR rows with at least eight entries go
//! through gather-based vector kernels ([`f3r_simd::try_spmv_row`]), SELL
//! chunks whose height is a multiple of eight are processed eight rows at a
//! time ([`f3r_simd::try_sell_group8`]).  Whether a given row takes the SIMD
//! or the scalar path depends only on *global* properties (latched backend,
//! row length, chunk geometry, vector length) — never on which parallel task
//! computes it — so the sequential and parallel variants stay bit-identical,
//! as the tests assert.  Accumulation order inside a SIMD row differs from
//! the scalar chains (8/4 lanes with FMA instead of 4/2 scalar chains), so
//! row results agree with the scalar backend within the usual reduction
//! bounds rather than bitwise; everything downstream of the row accumulator
//! (narrowing, scale folds, fused dots) is unchanged.

use f3r_precision::{FromScalar, Scalar};

use crate::csr::{CsrMatrix, ScaledCsr};
use crate::sell::{ScaledSell, SellMatrix};

/// Row count at or above which the dispatching wrappers switch to the
/// parallel kernels (re-exported from the shared threshold table in
/// `f3r-parallel`).
pub use f3r_parallel::thresholds::PAR_ROW_THRESHOLD;

use f3r_parallel::thresholds::MIN_ROWS_PER_TASK;

/// One CSR row: unrolled multi-accumulator dot of the row against `x`,
/// returned in the accumulation precision (callers narrow once).
///
/// The gathers skip per-element bounds checks: every public kernel asserts
/// `x.len() == a.n_cols()` on entry, and [`CsrMatrix::from_parts`] validates
/// that every stored column index is `< n_cols`, so the indices are in range
/// by construction (also re-checked with `debug_assert!` here).
#[inline(always)]
fn spmv_row<TA: Scalar, TV: Scalar>(cols: &[u32], vals: &[TA], x: &[TV]) -> TV::Accum {
    let gather = |c: u32| -> TV {
        debug_assert!((c as usize) < x.len(), "CSR column index out of range");
        // SAFETY: see function docs — the CSR constructor bounds all column
        // indices by n_cols and callers assert x.len() == n_cols.
        unsafe { *x.get_unchecked(c as usize) }
    };
    let mut acc0 = <TV::Accum as Scalar>::zero();
    let mut acc1 = <TV::Accum as Scalar>::zero();
    let mut acc2 = <TV::Accum as Scalar>::zero();
    let mut acc3 = <TV::Accum as Scalar>::zero();
    let mut c4 = cols.chunks_exact(4);
    let mut v4 = vals.chunks_exact(4);
    for (c, v) in (&mut c4).zip(&mut v4) {
        acc0 += <TV::Accum as FromScalar>::from_scalar(v[0]) * gather(c[0]).widen();
        acc1 += <TV::Accum as FromScalar>::from_scalar(v[1]) * gather(c[1]).widen();
        acc2 += <TV::Accum as FromScalar>::from_scalar(v[2]) * gather(c[2]).widen();
        acc3 += <TV::Accum as FromScalar>::from_scalar(v[3]) * gather(c[3]).widen();
    }
    for (&c, &v) in c4.remainder().iter().zip(v4.remainder().iter()) {
        acc0 += <TV::Accum as FromScalar>::from_scalar(v) * gather(c).widen();
    }
    (acc0 + acc1) + (acc2 + acc3)
}

/// One CSR row through the kernel backend: the SIMD gather kernel when the
/// backend accepts the row (active backend, ≥ 8 entries, gather-safe vector
/// length), the scalar [`spmv_row`] otherwise.  The acceptance conditions
/// are global per (matrix, vector) pair, so sequential and parallel sweeps
/// make identical per-row choices.
#[inline(always)]
pub(crate) fn row_acc<TA: Scalar, TV: Scalar>(cols: &[u32], vals: &[TA], x: &[TV]) -> TV::Accum {
    // SAFETY: `try_spmv_row` requires every column index to be a valid index
    // into `x` — the CsrMatrix constructor invariant plus the public kernels'
    // `x.len() == n_cols` assertion (the same contract `spmv_row`'s unchecked
    // gathers rely on).
    if let Some(acc) = unsafe { f3r_simd::try_spmv_row(cols, vals, x) } {
        return acc;
    }
    spmv_row(cols, vals, x)
}

/// Sequential CSR SpMV: `y = A x`.
///
/// # Panics
/// Panics if the vector lengths do not match the matrix dimensions.
pub fn spmv_seq<TA: Scalar, TV: Scalar>(a: &CsrMatrix<TA>, x: &[TV], y: &mut [TV]) {
    assert_eq!(x.len(), a.n_cols(), "spmv: x length mismatch");
    assert_eq!(y.len(), a.n_rows(), "spmv: y length mismatch");
    for (row, yi) in y.iter_mut().enumerate() {
        let (cols, vals) = a.row_entries(row);
        *yi = TV::narrow(row_acc(cols, vals, x));
    }
}

/// Thread-parallel CSR SpMV: `y = A x` (row-wise parallelism).
pub fn spmv_par<TA: Scalar, TV: Scalar>(a: &CsrMatrix<TA>, x: &[TV], y: &mut [TV]) {
    assert_eq!(x.len(), a.n_cols(), "spmv: x length mismatch");
    assert_eq!(y.len(), a.n_rows(), "spmv: y length mismatch");
    f3r_parallel::par_chunks_mut(y, MIN_ROWS_PER_TASK, |base, chunk| {
        for (i, yi) in chunk.iter_mut().enumerate() {
            let (cols, vals) = a.row_entries(base + i);
            *yi = TV::narrow(row_acc(cols, vals, x));
        }
    });
}

/// CSR SpMV dispatching between the sequential and parallel kernels based on
/// the number of rows.
pub fn spmv<TA: Scalar, TV: Scalar>(a: &CsrMatrix<TA>, x: &[TV], y: &mut [TV]) {
    if a.n_rows() >= PAR_ROW_THRESHOLD {
        spmv_par(a, x, y);
    } else {
        spmv_seq(a, x, y);
    }
}

/// Fused residual kernel: `r = b - A x`, accumulating in `TV::Accum`.
///
/// The subtraction happens in the accumulator *before* rounding, so the
/// fused kernel is one rounding step more accurate (and one memory sweep
/// cheaper) than `spmv` followed by an `axpby`.
pub fn spmv_residual<TA: Scalar, TV: Scalar>(
    a: &CsrMatrix<TA>,
    x: &[TV],
    b: &[TV],
    r: &mut [TV],
) {
    assert_eq!(x.len(), a.n_cols(), "residual: x length mismatch");
    assert_eq!(b.len(), a.n_rows(), "residual: b length mismatch");
    assert_eq!(r.len(), a.n_rows(), "residual: r length mismatch");
    let body = |base: usize, chunk: &mut [TV]| {
        for (i, ri) in chunk.iter_mut().enumerate() {
            let row = base + i;
            let (cols, vals) = a.row_entries(row);
            let ax = row_acc(cols, vals, x);
            *ri = TV::narrow(b[row].widen() - ax);
        }
    };
    if a.n_rows() >= PAR_ROW_THRESHOLD {
        f3r_parallel::par_chunks_mut(r, MIN_ROWS_PER_TASK, body);
    } else {
        body(0, r);
    }
}

/// Sum the per-task `(uᵀ y, yᵀ y)` partials of a fused dot sweep in task
/// order.
fn sum_dot2(partials: impl IntoIterator<Item = (f64, f64)>) -> (f64, f64) {
    partials
        .into_iter()
        .fold((0.0, 0.0), |(a0, a1), (b0, b1)| (a0 + b0, a1 + b1))
}

/// Fused SpMV + dual dot product: computes `y = A x` and returns
/// `(uᵀ y, yᵀ y)` from the same sweep, with the dots accumulated in `f64`.
///
/// This is the kernel behind the adaptive Richardson weight (Algorithm 1):
/// `ω′ = (r, AMr) / (AMr, AMr)` needs exactly `A·(Mr)` plus those two dots,
/// and fusing them removes two full passes over `y` per weight update.
pub fn spmv_dot2<TA: Scalar, TV: Scalar>(
    a: &CsrMatrix<TA>,
    x: &[TV],
    u: &[TV],
    y: &mut [TV],
) -> (f64, f64) {
    assert_eq!(x.len(), a.n_cols(), "spmv_dot2: x length mismatch");
    assert_eq!(u.len(), a.n_rows(), "spmv_dot2: u length mismatch");
    assert_eq!(y.len(), a.n_rows(), "spmv_dot2: y length mismatch");
    let body = |base: usize, chunk: &mut [TV]| -> (f64, f64) {
        let mut uy = 0.0f64;
        let mut yy = 0.0f64;
        for (i, yi) in chunk.iter_mut().enumerate() {
            let row = base + i;
            let (cols, vals) = a.row_entries(row);
            let acc = row_acc(cols, vals, x);
            // Round once, then accumulate the dots on the *stored* value so
            // the result is bit-identical to running the dots after the SpMV.
            let stored = TV::narrow(acc);
            *yi = stored;
            let w = stored.widen();
            uy += (u[row].widen() * w).to_f64();
            yy += (w * w).to_f64();
        }
        (uy, yy)
    };
    if a.n_rows() >= PAR_ROW_THRESHOLD {
        sum_dot2(f3r_parallel::par_map_chunks_mut(y, MIN_ROWS_PER_TASK, body))
    } else {
        // Inline: one partial, folded like the pool's (same bits), with no
        // vector built to hold it.
        sum_dot2([body(0, y)])
    }
}

// ---------------------------------------------------------------------------
// Scaled-storage SpMV kernels.
//
// The fused kernels below consume `ScaledCsr` / `ScaledSell` directly: each
// stored element enters the row accumulator through the same single
// `FromScalar` widening as the plain kernels, and the row's power-of-two
// amplitude scale is folded into the accumulated sum once per row, in f64
// (exact — the scale is a power of two — and O(rows), not O(nnz)).  The
// stored matrix therefore streams at the storage precision's bandwidth; the
// scale fold costs one multiply and one rounding per row, which the plain
// kernels pay anyway as the final narrowing.
// ---------------------------------------------------------------------------

/// Fold a row's accumulated sum with its amplitude scale and round once into
/// the vector precision.
#[inline(always)]
fn fold_scale<TV: Scalar>(acc: TV::Accum, scale: f64) -> TV {
    TV::from_f64(acc.to_f64() * scale)
}

/// Sequential scaled CSR SpMV: `y = A x` with `A` in row-scaled storage.
///
/// # Panics
/// Panics if the vector lengths do not match the matrix dimensions.
pub fn spmv_scaled_seq<TA: Scalar, TV: Scalar>(a: &ScaledCsr<TA>, x: &[TV], y: &mut [TV]) {
    assert_eq!(x.len(), a.n_cols(), "spmv_scaled: x length mismatch");
    assert_eq!(y.len(), a.n_rows(), "spmv_scaled: y length mismatch");
    let (m, scales) = (a.matrix(), a.row_scales());
    for (row, yi) in y.iter_mut().enumerate() {
        let (cols, vals) = m.row_entries(row);
        *yi = fold_scale::<TV>(row_acc(cols, vals, x), scales[row]);
    }
}

/// Thread-parallel scaled CSR SpMV (row-wise parallelism).
pub fn spmv_scaled_par<TA: Scalar, TV: Scalar>(a: &ScaledCsr<TA>, x: &[TV], y: &mut [TV]) {
    assert_eq!(x.len(), a.n_cols(), "spmv_scaled: x length mismatch");
    assert_eq!(y.len(), a.n_rows(), "spmv_scaled: y length mismatch");
    let (m, scales) = (a.matrix(), a.row_scales());
    f3r_parallel::par_chunks_mut(y, MIN_ROWS_PER_TASK, |base, chunk| {
        for (i, yi) in chunk.iter_mut().enumerate() {
            let (cols, vals) = m.row_entries(base + i);
            *yi = fold_scale::<TV>(row_acc(cols, vals, x), scales[base + i]);
        }
    });
}

/// Scaled CSR SpMV dispatching on problem size (same threshold as [`spmv`]).
pub fn spmv_scaled<TA: Scalar, TV: Scalar>(a: &ScaledCsr<TA>, x: &[TV], y: &mut [TV]) {
    if a.n_rows() >= PAR_ROW_THRESHOLD {
        spmv_scaled_par(a, x, y);
    } else {
        spmv_scaled_seq(a, x, y);
    }
}

/// Fused scaled residual kernel: `r = b - A x` with `A` in row-scaled
/// storage, subtracting before the single rounding into `TV` (the scaled
/// twin of [`spmv_residual`]).
pub fn spmv_scaled_residual<TA: Scalar, TV: Scalar>(
    a: &ScaledCsr<TA>,
    x: &[TV],
    b: &[TV],
    r: &mut [TV],
) {
    assert_eq!(x.len(), a.n_cols(), "scaled residual: x length mismatch");
    assert_eq!(b.len(), a.n_rows(), "scaled residual: b length mismatch");
    assert_eq!(r.len(), a.n_rows(), "scaled residual: r length mismatch");
    let (m, scales) = (a.matrix(), a.row_scales());
    let body = |base: usize, chunk: &mut [TV]| {
        for (i, ri) in chunk.iter_mut().enumerate() {
            let row = base + i;
            let (cols, vals) = m.row_entries(row);
            let ax = row_acc(cols, vals, x).to_f64() * scales[row];
            *ri = TV::from_f64(b[row].to_f64() - ax);
        }
    };
    if a.n_rows() >= PAR_ROW_THRESHOLD {
        f3r_parallel::par_chunks_mut(r, MIN_ROWS_PER_TASK, body);
    } else {
        body(0, r);
    }
}

/// Fused scaled SpMV + dual dot product: `y = A x` with `A` in row-scaled
/// storage, returning `(uᵀ y, yᵀ y)` from the same sweep (the scaled twin of
/// [`spmv_dot2`]; dots accumulate in `f64` on the stored `y` values).
pub fn spmv_scaled_dot2<TA: Scalar, TV: Scalar>(
    a: &ScaledCsr<TA>,
    x: &[TV],
    u: &[TV],
    y: &mut [TV],
) -> (f64, f64) {
    assert_eq!(x.len(), a.n_cols(), "spmv_scaled_dot2: x length mismatch");
    assert_eq!(u.len(), a.n_rows(), "spmv_scaled_dot2: u length mismatch");
    assert_eq!(y.len(), a.n_rows(), "spmv_scaled_dot2: y length mismatch");
    let (m, scales) = (a.matrix(), a.row_scales());
    let body = |base: usize, chunk: &mut [TV]| -> (f64, f64) {
        let mut uy = 0.0f64;
        let mut yy = 0.0f64;
        for (i, yi) in chunk.iter_mut().enumerate() {
            let row = base + i;
            let (cols, vals) = m.row_entries(row);
            let stored = fold_scale::<TV>(row_acc(cols, vals, x), scales[row]);
            *yi = stored;
            let w = stored.to_f64();
            uy += u[row].to_f64() * w;
            yy += w * w;
        }
        (uy, yy)
    };
    if a.n_rows() >= PAR_ROW_THRESHOLD {
        sum_dot2(f3r_parallel::par_map_chunks_mut(y, MIN_ROWS_PER_TASK, body))
    } else {
        // Inline: one partial, folded like the pool's (same bits), with no
        // vector built to hold it.
        sum_dot2([body(0, y)])
    }
}

/// Sequential scaled sliced-ELLPACK SpMV: `y = A x`.
pub fn spmv_scaled_sell_seq<TA: Scalar, TV: Scalar>(
    a: &ScaledSell<TA>,
    x: &[TV],
    y: &mut [TV],
) {
    assert_eq!(x.len(), a.n_cols(), "scaled sell spmv: x length mismatch");
    assert_eq!(y.len(), a.n_rows(), "scaled sell spmv: y length mismatch");
    let (m, scales) = (a.matrix(), a.row_scales());
    sell_sweep(m, x, 0, y.len(), |row, acc| {
        y[row] = fold_scale::<TV>(acc, scales[row]);
    });
}

/// Thread-parallel scaled sliced-ELLPACK SpMV.
pub fn spmv_scaled_sell_par<TA: Scalar, TV: Scalar>(
    a: &ScaledSell<TA>,
    x: &[TV],
    y: &mut [TV],
) {
    assert_eq!(x.len(), a.n_cols(), "scaled sell spmv: x length mismatch");
    assert_eq!(y.len(), a.n_rows(), "scaled sell spmv: y length mismatch");
    let (m, scales) = (a.matrix(), a.row_scales());
    f3r_parallel::par_chunks_mut(y, MIN_ROWS_PER_TASK, |base, chunk| {
        sell_sweep(m, x, base, chunk.len(), |row, acc| {
            chunk[row - base] = fold_scale::<TV>(acc, scales[row]);
        });
    });
}

/// Scaled sliced-ELLPACK SpMV dispatching on problem size.
pub fn spmv_scaled_sell<TA: Scalar, TV: Scalar>(a: &ScaledSell<TA>, x: &[TV], y: &mut [TV]) {
    if a.n_rows() >= PAR_ROW_THRESHOLD {
        spmv_scaled_sell_par(a, x, y);
    } else {
        spmv_scaled_sell_seq(a, x, y);
    }
}

/// Sequential sliced-ELLPACK SpMV: `y = A x`.
///
/// This is the kernel used by the "GPU node" experiment configuration
/// (Section 5.2 uses sliced ELLPACK with a chunk size of 32).
pub fn spmv_sell_seq<TA: Scalar, TV: Scalar>(a: &SellMatrix<TA>, x: &[TV], y: &mut [TV]) {
    assert_eq!(x.len(), a.n_cols(), "sell spmv: x length mismatch");
    assert_eq!(y.len(), a.n_rows(), "sell spmv: y length mismatch");
    sell_sweep(a, x, 0, y.len(), |row, acc| {
        y[row] = TV::narrow(acc);
    });
}

/// Thread-parallel sliced-ELLPACK SpMV.
pub fn spmv_sell_par<TA: Scalar, TV: Scalar>(a: &SellMatrix<TA>, x: &[TV], y: &mut [TV]) {
    assert_eq!(x.len(), a.n_cols(), "sell spmv: x length mismatch");
    assert_eq!(y.len(), a.n_rows(), "sell spmv: y length mismatch");
    f3r_parallel::par_chunks_mut(y, MIN_ROWS_PER_TASK, |base, chunk| {
        sell_sweep(a, x, base, chunk.len(), |row, acc| {
            chunk[row - base] = TV::narrow(acc);
        });
    });
}

/// Sliced-ELLPACK SpMV dispatching on problem size.
pub fn spmv_sell<TA: Scalar, TV: Scalar>(a: &SellMatrix<TA>, x: &[TV], y: &mut [TV]) {
    if a.n_rows() >= PAR_ROW_THRESHOLD {
        spmv_sell_par(a, x, y);
    } else {
        spmv_sell_seq(a, x, y);
    }
}

/// Compute SELL rows `base .. base + count`, handing each row's accumulator
/// to `emit(row, acc)` (absolute row index).
///
/// When the SIMD backend is active and the chunk height is a multiple of
/// eight, rows are processed in *globally aligned* groups of eight
/// (rows `[8g, 8g + 8)`, all inside one chunk by the alignment): the column
/// lanes of the whole group load as one vector per lane position, so the
/// column-major SELL layout streams contiguously instead of gathering.  A
/// parallel task whose boundary cuts through a group computes the **full**
/// group and emits only its own rows — the few boundary rows are computed
/// twice (cheap, read-only) so every row's accumulator is identical no
/// matter which task computes it, keeping the sequential and parallel
/// variants bit-identical.  The trailing partial group (when `n_rows % 8 !=
/// 0`) and every row of a declined group fall back to the scalar
/// [`sell_row`], again a global property, so backend choice is per-row
/// deterministic.
#[inline(always)]
fn sell_sweep<TA: Scalar, TV: Scalar>(
    a: &SellMatrix<TA>,
    x: &[TV],
    base: usize,
    count: usize,
    mut emit: impl FnMut(usize, TV::Accum),
) {
    let end = base + count;
    let grouped = a.chunk_size().is_multiple_of(8)
        && x.len() <= f3r_simd::MAX_GATHER_LEN
        && f3r_simd::kernel_backend().is_simd();
    let mut row = base;
    while row < end {
        let g0 = row & !7;
        if grouped && g0 + 8 <= a.n_rows() {
            let (cols, vals, stride, width) = a.row_lanes(g0);
            // SAFETY: column indices are bounded by n_cols (SellMatrix
            // construction; padding lanes store the row's own index) and the
            // public kernels assert x.len() == n_cols.  The lane window is in
            // bounds: row_lanes(g0) slices run to the end of the chunk, whose
            // height is a multiple of 8 and whose lane offset g0 % chunk is
            // too, so `(width - 1) * stride + 8 <= slice length`.
            if let Some(accs) = unsafe { f3r_simd::try_sell_group8(cols, vals, stride, width, x) }
            {
                let hi = end.min(g0 + 8);
                while row < hi {
                    emit(row, accs[row - g0]);
                    row += 1;
                }
                continue;
            }
        }
        emit(row, sell_row(a, row, x));
        row += 1;
    }
}

/// One sliced-ELLPACK row: strided walk over the row's lanes with the same
/// widen-into-accumulator scheme as the CSR kernel (two independent chains;
/// SELL rows are strided, so deeper unrolling buys nothing here).
#[inline(always)]
pub(crate) fn sell_row<TA: Scalar, TV: Scalar>(a: &SellMatrix<TA>, row: usize, x: &[TV]) -> TV::Accum {
    let (cols, vals, stride, width) = a.row_lanes(row);
    let mut acc0 = <TV::Accum as Scalar>::zero();
    let mut acc1 = <TV::Accum as Scalar>::zero();
    let mut k = 0usize;
    let twice = width & !1;
    while k < twice {
        let p0 = k * stride;
        let p1 = (k + 1) * stride;
        acc0 += <TV::Accum as FromScalar>::from_scalar(vals[p0]) * x[cols[p0] as usize].widen();
        acc1 += <TV::Accum as FromScalar>::from_scalar(vals[p1]) * x[cols[p1] as usize].widen();
        k += 2;
    }
    if k < width {
        let p = k * stride;
        acc0 += <TV::Accum as FromScalar>::from_scalar(vals[p]) * x[cols[p] as usize].widen();
    }
    acc0 + acc1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
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

    #[test]
    fn spmv_matches_dense_reference() {
        let a = tridiag(10);
        let x: Vec<f64> = (0..10).map(|i| (i as f64 + 1.0) * 0.1).collect();
        let mut y = vec![0.0; 10];
        spmv_seq(&a, &x, &mut y);
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
    fn parallel_matches_sequential() {
        let a = tridiag(5000);
        let x: Vec<f64> = (0..5000).map(|i| (i as f64).sin()).collect();
        let mut y1 = vec![0.0; 5000];
        let mut y2 = vec![0.0; 5000];
        spmv_seq(&a, &x, &mut y1);
        spmv_par(&a, &x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn parallel_matches_sequential_above_threshold() {
        let n = PAR_ROW_THRESHOLD + 123;
        let a = tridiag(n);
        let x: Vec<f64> = (0..n).map(|i| ((i % 97) as f64 - 48.0) / 97.0).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        spmv_seq(&a, &x, &mut y1);
        spmv(&a, &x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn mixed_precision_fp16_matrix_fp32_vectors() {
        let a = tridiag(50);
        let a16: CsrMatrix<f16> = a.to_precision();
        let x: Vec<f32> = (0..50).map(|i| (i as f32 * 0.01).cos()).collect();
        let mut y64 = vec![0.0f64; 50];
        let x64: Vec<f64> = x.iter().map(|&v| f64::from(v)).collect();
        spmv_seq(&a, &x64, &mut y64);
        let mut y = vec![0.0f32; 50];
        spmv_seq(&a16, &x, &mut y);
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
        spmv_seq(&a, &x, &mut y);
        for yi in &y {
            assert_eq!(yi.to_f64(), n as f64);
        }
    }

    #[test]
    fn residual_kernel_matches_separate_ops() {
        let a = tridiag(200);
        let x: Vec<f64> = (0..200).map(|i| (i as f64 * 0.37).sin()).collect();
        let b: Vec<f64> = (0..200).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut ax = vec![0.0; 200];
        spmv_seq(&a, &x, &mut ax);
        let mut r = vec![0.0; 200];
        spmv_residual(&a, &x, &b, &mut r);
        for i in 0..200 {
            assert!((r[i] - (b[i] - ax[i])).abs() < 1e-14);
        }
    }

    #[test]
    fn fused_spmv_dot2_matches_separate_kernels() {
        let a = tridiag(300);
        let x: Vec<f64> = (0..300).map(|i| (i as f64 * 0.13).sin()).collect();
        let u: Vec<f64> = (0..300).map(|i| (i as f64 * 0.29).cos()).collect();
        let mut y1 = vec![0.0; 300];
        spmv_seq(&a, &x, &mut y1);
        let uy_ref: f64 = u.iter().zip(&y1).map(|(a, b)| a * b).sum();
        let yy_ref: f64 = y1.iter().map(|v| v * v).sum();
        let mut y2 = vec![0.0; 300];
        let (uy, yy) = spmv_dot2(&a, &x, &u, &mut y2);
        assert_eq!(y1, y2);
        assert!((uy - uy_ref).abs() < 1e-12 * uy_ref.abs().max(1.0));
        assert!((yy - yy_ref).abs() < 1e-12 * yy_ref.max(1.0));
    }

    #[test]
    fn fused_spmv_dot2_fp16_storage() {
        let a: CsrMatrix<f16> = tridiag(128).to_precision();
        let x: Vec<f32> = (0..128).map(|i| ((i % 7) as f32 - 3.0) / 7.0).collect();
        let u: Vec<f32> = (0..128).map(|i| ((i % 5) as f32 - 2.0) / 5.0).collect();
        let mut y1 = vec![0.0f32; 128];
        spmv_seq(&a, &x, &mut y1);
        let mut y2 = vec![0.0f32; 128];
        let (uy, yy) = spmv_dot2(&a, &x, &u, &mut y2);
        assert_eq!(y1, y2);
        let uy_ref: f64 = u.iter().zip(&y1).map(|(&a, &b)| f64::from(a) * f64::from(b)).sum();
        let yy_ref: f64 = y1.iter().map(|&v| f64::from(v) * f64::from(v)).sum();
        assert!((uy - uy_ref).abs() < 1e-5 * uy_ref.abs().max(1.0));
        assert!((yy - yy_ref).abs() < 1e-5 * yy_ref.max(1.0));
    }

    #[test]
    fn sell_matches_csr() {
        let a = tridiag(1000);
        let sell = SellMatrix::from_csr(&a, 32);
        let x: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.01).sin()).collect();
        let mut y1 = vec![0.0; 1000];
        let mut y2 = vec![0.0; 1000];
        let mut y3 = vec![0.0; 1000];
        spmv_seq(&a, &x, &mut y1);
        spmv_sell_seq(&sell, &x, &mut y2);
        spmv_sell_par(&sell, &x, &mut y3);
        for i in 0..1000 {
            assert!((y1[i] - y2[i]).abs() < 1e-13);
            assert!((y1[i] - y3[i]).abs() < 1e-13);
        }
    }

    #[test]
    #[should_panic(expected = "x length mismatch")]
    fn dimension_mismatch_panics() {
        let a = tridiag(4);
        let x = vec![0.0f64; 3];
        let mut y = vec![0.0f64; 4];
        spmv_seq(&a, &x, &mut y);
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
    fn scaled_spmv_matches_f64_reference_on_wide_range_matrix() {
        let n = 300;
        let a = wide_range_tridiag(n);
        let x: Vec<f64> = (0..n).map(|i| ((i % 13) as f64 - 6.0) / 13.0).collect();
        let mut y_ref = vec![0.0f64; n];
        spmv_seq(&a, &x, &mut y_ref);

        // The unscaled fp16 copy is useless here …
        let a16: CsrMatrix<f16> = a.to_precision();
        assert!(a16.values().iter().any(|v| !v.to_f64().is_finite()));

        // … the row-scaled fp16 copy matches to fp16 storage accuracy.
        let s16 = ScaledCsr::<f16>::from_f64(&a);
        let mut y = vec![0.0f64; n];
        spmv_scaled_seq(&s16, &x, &mut y);
        for i in 0..n {
            // Per-element storage error ≤ eps_fp16 · row_scale; ≤ 3 entries
            // per row with |x| ≤ 1/2 bounds the row error by 2^-9 · scale.
            let tol = 2.0f64.powi(-9) * s16.row_scales()[i];
            assert!(
                (y[i] - y_ref[i]).abs() <= tol,
                "row {i}: {} vs {}",
                y[i],
                y_ref[i]
            );
        }
    }

    #[test]
    fn scaled_f64_storage_is_bit_identical_to_plain_spmv() {
        let n = 500;
        let a = wide_range_tridiag(n);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin()).collect();
        let mut y1 = vec![0.0f64; n];
        let mut y2 = vec![0.0f64; n];
        spmv_seq(&a, &x, &mut y1);
        spmv_scaled_seq(&ScaledCsr::<f64>::from_f64(&a), &x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn scaled_parallel_matches_sequential_above_threshold() {
        let n = PAR_ROW_THRESHOLD + 57;
        let a = tridiag(n);
        let s = ScaledCsr::<f32>::from_f64(&a);
        let x: Vec<f64> = (0..n).map(|i| ((i % 97) as f64 - 48.0) / 97.0).collect();
        let mut y1 = vec![0.0f64; n];
        let mut y2 = vec![0.0f64; n];
        spmv_scaled_seq(&s, &x, &mut y1);
        spmv_scaled(&s, &x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn scaled_residual_matches_separate_ops() {
        let n = 200;
        let a = wide_range_tridiag(n);
        let s = ScaledCsr::<f32>::from_f64(&a);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut ax = vec![0.0f64; n];
        spmv_scaled_seq(&s, &x, &mut ax);
        let mut r = vec![0.0f64; n];
        spmv_scaled_residual(&s, &x, &b, &mut r);
        for i in 0..n {
            assert!((r[i] - (b[i] - ax[i])).abs() <= 1e-12 * (b[i] - ax[i]).abs().max(1.0));
        }
    }

    #[test]
    fn scaled_spmv_dot2_matches_separate_kernels() {
        let n = 300;
        let a = tridiag(n);
        let s = ScaledCsr::<f16>::from_f64(&a);
        let x: Vec<f32> = (0..n).map(|i| ((i % 7) as f32 - 3.0) / 7.0).collect();
        let u: Vec<f32> = (0..n).map(|i| ((i % 5) as f32 - 2.0) / 5.0).collect();
        let mut y1 = vec![0.0f32; n];
        spmv_scaled_seq(&s, &x, &mut y1);
        let mut y2 = vec![0.0f32; n];
        let (uy, yy) = spmv_scaled_dot2(&s, &x, &u, &mut y2);
        assert_eq!(y1, y2);
        let uy_ref: f64 = u.iter().zip(&y1).map(|(&a, &b)| f64::from(a) * f64::from(b)).sum();
        let yy_ref: f64 = y1.iter().map(|&v| f64::from(v) * f64::from(v)).sum();
        assert!((uy - uy_ref).abs() < 1e-10 * uy_ref.abs().max(1.0));
        assert!((yy - yy_ref).abs() < 1e-10 * yy_ref.max(1.0));
    }

    #[test]
    fn scaled_sell_matches_scaled_csr() {
        let n = 1000;
        let a = wide_range_tridiag(n);
        let csr = ScaledCsr::<f16>::from_f64(&a);
        let sell = ScaledSell::<f16>::from_csr_f64(&a, 32);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
        let mut y1 = vec![0.0f64; n];
        let mut y2 = vec![0.0f64; n];
        let mut y3 = vec![0.0f64; n];
        spmv_scaled_seq(&csr, &x, &mut y1);
        spmv_scaled_sell_seq(&sell, &x, &mut y2);
        spmv_scaled_sell_par(&sell, &x, &mut y3);
        for i in 0..n {
            // CSR and SELL group the row sum differently (4 vs 2 partial
            // accumulators), so allow roundoff at the row amplitude.
            let tol = 1e-13 * csr.row_scales()[i];
            assert!((y1[i] - y2[i]).abs() <= tol, "row {i}: {} vs {}", y1[i], y2[i]);
            assert_eq!(y2[i], y3[i], "row {i}");
        }
    }
}
