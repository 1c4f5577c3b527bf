//! Naive reference kernels: the pre-widening implementations, kept verbatim.
//!
//! These are the original scalar kernels that converted **every element
//! through `f64`** (`from_f64(x.to_f64())`) and issued one `mul_add` per
//! element.  They are retained for two purposes only:
//!
//! 1. **Correctness baselines** — the property tests assert that the
//!    unrolled/fused kernels in [`crate::spmv`] and [`crate::blas1`] agree
//!    with these within one ulp of the accumulation precision, for every
//!    `(TA, TV)` precision pair the solvers use.
//! 2. **Performance baselines** — the criterion benches time them next to
//!    the production kernels so the speedup of the direct-widening layer
//!    stays visible (and regressions stay measurable) across commits.
//!
//! Do **not** call these from solver code: the double conversion adds two
//! rounding steps per flop, the scalar `mul_add` lowers to a libm call on
//! targets without native FMA, and both together erase the bandwidth
//! advantage of narrow storage that the paper's speedups depend on.

use f3r_precision::Scalar;

use crate::csr::CsrMatrix;

/// Reference CSR SpMV row: per-element `f64` round trip + scalar `mul_add`.
#[inline(always)]
fn spmv_row_naive<TA: Scalar, TV: Scalar>(cols: &[u32], vals: &[TA], x: &[TV]) -> TV {
    let mut acc = <TV::Accum as Scalar>::zero();
    for (&c, &a) in cols.iter().zip(vals.iter()) {
        let xv = <TV::Accum as Scalar>::from_f64(x[c as usize].to_f64());
        let av = <TV::Accum as Scalar>::from_f64(a.to_f64());
        acc = av.mul_add(xv, acc);
    }
    TV::from_f64(acc.to_f64())
}

/// Reference sequential CSR SpMV: `y = A x`.
///
/// # Panics
/// Panics if the vector lengths do not match the matrix dimensions.
pub fn spmv_seq_naive<TA: Scalar, TV: Scalar>(a: &CsrMatrix<TA>, x: &[TV], y: &mut [TV]) {
    assert_eq!(x.len(), a.n_cols(), "spmv: x length mismatch");
    assert_eq!(y.len(), a.n_rows(), "spmv: y length mismatch");
    for (row, yi) in y.iter_mut().enumerate() {
        let (cols, vals) = a.row_entries(row);
        *yi = spmv_row_naive(cols, vals, x);
    }
}

/// Reference residual kernel: `r = b - A x` via the naive row kernel.
pub fn spmv_residual_naive<TA: Scalar, TV: Scalar>(
    a: &CsrMatrix<TA>,
    x: &[TV],
    b: &[TV],
    r: &mut [TV],
) {
    assert_eq!(x.len(), a.n_cols(), "residual: x length mismatch");
    assert_eq!(b.len(), a.n_rows(), "residual: b length mismatch");
    assert_eq!(r.len(), a.n_rows(), "residual: r length mismatch");
    for (row, ri) in r.iter_mut().enumerate() {
        let (cols, vals) = a.row_entries(row);
        let ax = spmv_row_naive(cols, vals, x);
        let val = <TV::Accum as Scalar>::from_f64(b[row].to_f64())
            - <TV::Accum as Scalar>::from_f64(ax.to_f64());
        *ri = TV::from_f64(val.to_f64());
    }
}

/// Reference dot product: per-element `f64` round trip + scalar `mul_add`,
/// accumulated in `T::Accum` and returned as `f64`.
#[must_use]
pub fn dot_naive<T: Scalar>(x: &[T], y: &[T]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let mut acc = <T::Accum as Scalar>::zero();
    for (&a, &b) in x.iter().zip(y.iter()) {
        let a = <T::Accum as Scalar>::from_f64(a.to_f64());
        let b = <T::Accum as Scalar>::from_f64(b.to_f64());
        acc = a.mul_add(b, acc);
    }
    acc.to_f64()
}

/// Reference `y ← y + alpha * x`: rounds `alpha` into `T` and uses a
/// per-element `mul_add` in the storage precision.
pub fn axpy_naive<T: Scalar>(alpha: f64, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    let a = T::from_f64(alpha);
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi = xi.mul_add(a, *yi);
    }
}

/// Reference `y ← alpha * x + beta * y` in the storage precision.
pub fn axpby_naive<T: Scalar>(alpha: f64, x: &[T], beta: f64, y: &mut [T]) {
    assert_eq!(x.len(), y.len(), "axpby: length mismatch");
    let a = T::from_f64(alpha);
    let b = T::from_f64(beta);
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi = xi * a + *yi * b;
    }
}

/// Reference `w ← alpha * x + beta * y` in the storage precision.
pub fn waxpby_naive<T: Scalar>(alpha: f64, x: &[T], beta: f64, y: &[T], w: &mut [T]) {
    assert_eq!(x.len(), y.len(), "waxpby: length mismatch");
    assert_eq!(x.len(), w.len(), "waxpby: length mismatch");
    let a = T::from_f64(alpha);
    let b = T::from_f64(beta);
    for i in 0..x.len() {
        w[i] = x[i] * a + y[i] * b;
    }
}

/// Reference `x ← alpha * x` in the storage precision.
pub fn scale_naive<T: Scalar>(alpha: f64, x: &mut [T]) {
    let a = T::from_f64(alpha);
    for xi in x.iter_mut() {
        *xi *= a;
    }
}
