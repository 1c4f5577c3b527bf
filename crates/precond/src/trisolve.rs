//! The sparse triangular sweeps shared by IC(0) and ILU(0).
//!
//! # Contract
//!
//! Within one application `z = M r` the working vector lives in
//! [`Scalar::Accum`] and every entry of the result is rounded to the storage
//! precision `T` exactly once, on the way out ([`solve`]).  For fp32
//! and fp64 the accumulation type is `T` itself: the working vector *is* `z`,
//! the sweeps run in place, read the factor where it lies, and the rounding is
//! the identity.  For fp16 the working vector is a per-thread fp32 scratch the
//! size of the block being solved (L2-resident for a block-Jacobi block), so
//! no partial result is ever rounded to fp16 — an intermediate beyond 65504 no
//! longer turns into ±inf, and the result is closer to the fp64 one — and each
//! stored factor value is widened once per sweep, a [`WINDOW`] of consecutive
//! values at a time through the bulk converter ([`Widened`] over
//! [`f3r_precision::convert_slice`], F16C/AVX-512 where the CPU has them; the
//! sparse product reads its short rows through the same window).
//!
//! The loops below are the semantic definition on every kernel backend: one
//! multiply and one subtract per stored value (never a fused multiply-add),
//! in stored order.  Only the *widening* differs between backends, and
//! widening is exact, so the sweeps are bitwise the same everywhere.  The
//! arithmetic stays scalar on purpose: each row needs an entry the previous
//! row has just stored, so a row cannot be gathered before its predecessor's
//! store retires.
//!
//! # Panels
//!
//! The same loops run on a panel of right-hand sides ([`solve_panel`]).  The
//! sweeps are generic over what one entry of the working vector is
//! ([`Lanes`]): a value, or the [`PANEL_LANES`] values of a lane group, one
//! per column.  A lane group is interleaved into a per-thread block panel in
//! `T::Accum` (`w[i]` holds the eight columns' entries `i`), each stored
//! factor value is fetched and widened once per sweep for all eight, and the
//! multiply and the subtract act on the eight lanes at once — the dependency
//! chain that bounds a single application is shared by the group, so a panel
//! application costs about one single application.  Lane `c` goes through
//! exactly the operations of a single application to column `c`, so each
//! column of the result is bitwise that application.

use std::mem::size_of_val;
use std::ops::Range;

use f3r_parallel::thresholds::PANEL_MIN_COLUMNS;
use f3r_precision::{convert_slice, Scalar, Widened};
use f3r_sparse::spmm::{deinterleave_rows, interleave_rows, PANEL_LANES};

/// Stored values widened per bulk conversion (fp16 factors only): long enough
/// to spread the converter's call over some tens of stencil rows, short
/// enough (2 KiB of fp32) to stay in L1 beside the rows it serves.
const WINDOW: usize = 512;

/// A triangular factor (or a pair sharing one pattern) in CSR, values stored
/// in `T`, with the reciprocal diagonal kept pre-widened.
#[derive(Debug, Clone)]
pub struct Factor<T: Scalar> {
    pub(crate) row_ptr: Vec<usize>,
    pub(crate) col_idx: Vec<u32>,
    pub(crate) values: Vec<T>,
    /// `1 / d_ii` rounded to `T` like every other coefficient, then widened
    /// once at construction so the sweeps never convert it.
    pub(crate) inv_diag: Vec<T::Accum>,
    /// Length of the widening window: [`WINDOW`], or the longest row if that
    /// is longer, so a row's entries always fit in one window.
    window: usize,
}

impl<T: Scalar> Factor<T> {
    /// Round the fp64 factor `values` and the reciprocals of `diag` to `T`.
    pub(crate) fn new(
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: &[f64],
        diag: &[f64],
    ) -> Self {
        let longest_row = row_ptr.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        Self {
            row_ptr,
            col_idx,
            values: values.iter().map(|&v| T::from_f64(v)).collect(),
            inv_diag: diag.iter().map(|&d| T::from_f64(1.0 / d).widen()).collect(),
            window: WINDOW.max(longest_row),
        }
    }

    pub(crate) fn n(&self) -> usize {
        self.inv_diag.len()
    }

    /// The same factor with its values held in the accumulation precision:
    /// what an application computes with, minus the widening.
    #[cfg(test)]
    pub(crate) fn widened(&self) -> Factor<T::Accum>
    where
        T::Accum: Scalar<Accum = T::Accum>,
    {
        Factor {
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values: self.values.iter().map(|v| v.widen()).collect(),
            inv_diag: self.inv_diag.clone(),
            window: self.window,
        }
    }

    /// Bytes of the four arrays.
    pub(crate) fn storage_bytes(&self) -> u64 {
        (size_of_val(&self.row_ptr[..])
            + size_of_val(&self.col_idx[..])
            + size_of_val(&self.values[..])
            + size_of_val(&self.inv_diag[..])) as u64
    }
}

/// A factorisation applied by triangular sweeps over one [`Factor`]: what
/// IC(0) and ILU(0) are to the code that drives them on a single vector
/// ([`solve`]), on a panel ([`solve_panel`]) and on the blocks of a
/// block-Jacobi preconditioner.
pub trait TriangularSolve<T: Scalar> {
    /// The stored factor.
    fn factor(&self) -> &Factor<T>;

    /// Run the forward and the backward sweep on the application `s`.
    fn sweeps<L: Lanes<T::Accum>>(&self, s: &mut Sweep<'_, T, L>);
}

/// One entry of a sweep's working vector: a value of the accumulation type
/// `A`, or one value per column of a lane group.  The operations are those
/// of the scalar loops, applied to every lane.
pub trait Lanes<A>: Copy {
    /// `self -= v * x`: one multiply, one subtract, never fused.
    fn sub_mul(&mut self, v: A, x: &Self);

    /// `self * d`.
    fn scaled(self, d: A) -> Self;
}

impl<A: Scalar> Lanes<A> for A {
    #[inline(always)]
    fn sub_mul(&mut self, v: A, x: &A) {
        *self -= v * *x;
    }

    #[inline(always)]
    fn scaled(self, d: A) -> A {
        self * d
    }
}

impl<A: Scalar> Lanes<A> for [A; PANEL_LANES] {
    #[inline(always)]
    fn sub_mul(&mut self, v: A, x: &Self) {
        for (s, &xl) in self.iter_mut().zip(x) {
            *s -= v * xl;
        }
    }

    #[inline(always)]
    fn scaled(self, d: A) -> Self {
        self.map(|s| s * d)
    }
}

/// Apply the two sweeps of the factorisation `p` to `r`: run them on a
/// working vector in `T::Accum` with the factor's values widened, and leave
/// the result in `z`, one rounding per entry (see the module docs).  `r` and
/// `z` have the factor's dimension.
pub(crate) fn solve<T: Scalar>(p: &impl TriangularSolve<T>, r: &[T], z: &mut [T]) {
    let f = p.factor();
    if let (Some(rhs), Some(w)) = (T::as_accum(r), T::as_accum_mut(z)) {
        return p.sweeps(&mut Sweep {
            factor: f,
            values: Widened::new(&f.values, &mut []),
            rhs: Some(rhs),
            w,
        });
    }
    let n = f.n();
    <T::Accum as Scalar>::with_scratch(n + f.window, |scratch| {
        let (w, window) = scratch.split_at_mut(n);
        convert_slice(r, w);
        p.sweeps(&mut Sweep {
            factor: f,
            values: Widened::new(&f.values, window),
            rhs: None,
            w,
        });
        convert_slice(w, z);
    });
}

/// Apply the factorisation `p` to rows `lo .. lo + n` (`n` the factor's
/// dimension) of every column of a column-major panel of `k` right-hand
/// sides: column `c` of `r` is `r[c * stride ..]`, of the result
/// `z + c * stride`.  Each column of the result is bitwise
/// [`solve`] on that column.
///
/// Columns go in lane groups of [`PANEL_LANES`] through the panel sweeps
/// (see the module docs); a group of fewer than [`PANEL_MIN_COLUMNS`]
/// columns is applied one column at a time.
///
/// # Safety
/// `z + c * stride + lo` must be valid for writing `n` elements for every
/// `c < k`, and no other thread may access those elements during the call.
pub(crate) unsafe fn solve_panel<T: Scalar>(
    p: &impl TriangularSolve<T>,
    r: &[T],
    z: *mut T,
    stride: usize,
    lo: usize,
    k: usize,
) {
    let f = p.factor();
    let n = f.n();
    for c0 in (0..k).step_by(PANEL_LANES) {
        let g = (k - c0).min(PANEL_LANES);
        if g < PANEL_MIN_COLUMNS {
            for c in c0..c0 + g {
                let at = c * stride + lo;
                // SAFETY: rows `lo .. lo + n` of column `c`, ours to write.
                let z_col = unsafe { std::slice::from_raw_parts_mut(z.add(at), n) };
                solve(p, &r[at..at + n], z_col);
            }
            continue;
        }
        // fp32/fp64 sweeps read the factor where it lies: no window.
        let window = if T::as_accum(&f.values).is_some() { 0 } else { f.window };
        <T::Accum as Scalar>::with_scratch(n * PANEL_LANES + window, |scratch| {
            let (w, window) = scratch.split_at_mut(n * PANEL_LANES);
            let (w, _) = w.as_chunks_mut::<PANEL_LANES>();
            interleave_rows(&r[c0 * stride..], stride, g, lo, w);
            p.sweeps(&mut Sweep {
                factor: f,
                values: Widened::new(&f.values, window),
                rhs: None,
                w,
            });
            // SAFETY: rows `lo .. lo + n` of columns `c0 .. c0 + g`, ours to
            // write by this function's contract.
            unsafe { deinterleave_rows(w, g, z.add(c0 * stride + lo), stride) };
        });
    }
}

/// One application in progress: the factor, its values as the sweeps read
/// them, the right-hand side and the working vector, whose entries are single
/// values or lane groups ([`Lanes`]).
pub struct Sweep<'a, T: Scalar, L = <T as Scalar>::Accum> {
    factor: &'a Factor<T>,
    values: Widened<'a, T>,
    /// The right-hand side where it can be read in accumulation precision
    /// (fp32/fp64 single applications); `None` when `w` was filled from it
    /// instead (fp16, panels).
    rhs: Option<&'a [L]>,
    w: &'a mut [L],
}

impl<T: Scalar, L: Lanes<T::Accum>> Sweep<'_, T, L> {
    /// Forward substitution `w ← L⁻¹ r`, rows ascending: `lower(i)` is the
    /// range of row `i`'s entries left of the diagonal; with `unit_diagonal`
    /// the diagonal of `L` is an implied one, otherwise `inv_diag` holds its
    /// reciprocal.
    pub(crate) fn forward(&mut self, lower: impl Fn(usize) -> Range<usize>, unit_diagonal: bool) {
        let (col_idx, inv_diag, rhs) = (
            &self.factor.col_idx[..],
            &self.factor.inv_diag[..],
            self.rhs,
        );
        let (values, w) = (&mut self.values, &mut *self.w);
        for i in 0..inv_diag.len() {
            let seg = lower(i);
            let cols = &col_idx[seg.clone()];
            // The values first: moving the window is a call, and an
            // accumulator that lives across a call lives in memory.
            let vals = values.get(seg);
            let mut acc = match rhs {
                Some(r) => r[i],
                None => w[i],
            };
            for (&v, &j) in vals.iter().zip(cols) {
                acc.sub_mul(v, &w[j as usize]);
            }
            w[i] = if unit_diagonal {
                acc
            } else {
                acc.scaled(inv_diag[i])
            };
        }
    }

    /// Backward substitution `w ← U⁻¹ w`, rows descending: `upper(i)` is the
    /// range of row `i`'s entries right of the diagonal.
    pub(crate) fn backward(&mut self, upper: impl Fn(usize) -> Range<usize>) {
        let (col_idx, inv_diag) = (&self.factor.col_idx[..], &self.factor.inv_diag[..]);
        let (values, w) = (&mut self.values, &mut *self.w);
        for i in (0..inv_diag.len()).rev() {
            let seg = upper(i);
            let cols = &col_idx[seg.clone()];
            let vals = values.get(seg);
            let mut acc = w[i];
            for (&v, &j) in vals.iter().zip(cols) {
                acc.sub_mul(v, &w[j as usize]);
            }
            w[i] = acc.scaled(inv_diag[i]);
        }
    }

    /// Backward substitution with the transpose of the stored lower factor,
    /// `w ← L⁻ᵀ w`: rows descending, each finished entry scattered up its
    /// row's columns.
    pub(crate) fn backward_transposed(&mut self, lower: impl Fn(usize) -> Range<usize>) {
        let (col_idx, inv_diag) = (&self.factor.col_idx[..], &self.factor.inv_diag[..]);
        let (values, w) = (&mut self.values, &mut *self.w);
        for i in (0..inv_diag.len()).rev() {
            let seg = lower(i);
            let cols = &col_idx[seg.clone()];
            let vals = values.get(seg);
            let wi = w[i].scaled(inv_diag[i]);
            w[i] = wi;
            for (&v, &j) in vals.iter().zip(cols) {
                w[j as usize].sub_mul(v, &wi);
            }
        }
    }
}

/// The triangular loops as they stood before the shared sweeps, which round
/// every partial result to `T`: what fp32/fp64 applications must still equal
/// bit for bit, and what fp16 applications are measured against.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// IC(0): forward solve with `L`, backward scatter with `Lᵀ`.
    pub(crate) fn ic0<T: Scalar>(f: &Factor<T>, r: &[T], z: &mut [T]) {
        for i in 0..f.n() {
            let mut acc = r[i].widen();
            for k in f.row_ptr[i]..f.row_ptr[i + 1] {
                let j = f.col_idx[k] as usize;
                if j >= i {
                    break;
                }
                acc -= f.values[k].widen() * z[j].widen();
            }
            z[i] = T::narrow(acc * f.inv_diag[i]);
        }
        for i in (0..f.n()).rev() {
            let zi = z[i].widen() * f.inv_diag[i];
            z[i] = T::narrow(zi);
            for k in f.row_ptr[i]..f.row_ptr[i + 1] {
                let j = f.col_idx[k] as usize;
                if j >= i {
                    break;
                }
                z[j] = T::narrow(z[j].widen() - f.values[k].widen() * zi);
            }
        }
    }

    /// ILU(0): forward solve with the unit-lower `L`, backward solve with
    /// `U`.  (Where a row stores no diagonal the old backward loop started at
    /// the row's first entry; this one starts right of the diagonal, which is
    /// the same thing on every row that stores one.)
    pub(crate) fn ilu0<T: Scalar>(f: &Factor<T>, r: &[T], z: &mut [T]) {
        for i in 0..f.n() {
            let mut acc = r[i].widen();
            for k in f.row_ptr[i]..f.row_ptr[i + 1] {
                let j = f.col_idx[k] as usize;
                if j >= i {
                    break;
                }
                acc -= f.values[k].widen() * z[j].widen();
            }
            z[i] = T::narrow(acc);
        }
        for i in (0..f.n()).rev() {
            let mut acc = z[i].widen();
            for k in f.row_ptr[i]..f.row_ptr[i + 1] {
                let j = f.col_idx[k] as usize;
                if j > i {
                    acc -= f.values[k].widen() * z[j].widen();
                }
            }
            z[i] = T::narrow(acc * f.inv_diag[i]);
        }
    }
}

/// Matrices and vectors for the sweep tests of `ic0` and `ilu0`.
#[cfg(test)]
pub(crate) mod testing {
    use super::WINDOW;
    use crate::traits::Preconditioner;
    use f3r_precision::Scalar;
    use f3r_sparse::{CooMatrix, CsrMatrix};

    /// A diagonally dominant banded matrix whose rows have 0, 1, 7, 8, 9,
    /// 15, 16, 17, 33, … entries left of the diagonal, up to more than one
    /// widening window, in an order that makes rows start, end and straddle
    /// window boundaries.  SPD when `symmetric`, else with a different upper
    /// triangle.
    pub(crate) fn ragged(symmetric: bool) -> CsrMatrix<f64> {
        let lens = [
            0,
            1,
            7,
            8,
            9,
            15,
            16,
            17,
            33,
            WINDOW - 1,
            3,
            WINDOW,
            0,
            WINDOW + 1,
            2,
            WINDOW + 90,
            5,
        ];
        let n = 2 * WINDOW + 300;
        let mut coo = CooMatrix::new(n, n);
        let mut row_sums = vec![0.0f64; n];
        for i in 0..n {
            let len = lens[i % lens.len()].min(i);
            for j in i - len..i {
                let v = -1.0 / (1 + (i * 7 + j * 13) % 11) as f64;
                let vt = if symmetric { v } else { 0.5 * v - 0.01 };
                coo.push(i, j, v);
                coo.push(j, i, vt);
                row_sums[i] += v.abs();
                row_sums[j] += vt.abs();
            }
        }
        for (i, s) in row_sums.iter().enumerate() {
            coo.push(i, i, 1.0 + s);
        }
        coo.to_csr()
    }

    /// A right-hand side with entries in (−0.5, 0.5), from integer
    /// arithmetic only.
    pub(crate) fn rhs<T: Scalar>(n: usize) -> Vec<T> {
        (0..n)
            .map(|i| T::from_f64(((i * 7919) % 1013) as f64 / 1013.0 - 0.5))
            .collect()
    }

    /// Every column of `apply_panel` must be the single application of that
    /// column, bit for bit, on widths that leave lane groups of one, of
    /// several and of eight columns.
    pub(crate) fn assert_panel_is_the_column_loop<T: Scalar>(p: &dyn Preconditioner<T>) {
        let n = p.dim();
        for k in [1usize, 2, 7, 8, 9, 16] {
            let r = rhs::<T>(n * k);
            let (mut z, mut z_ref) = (vec![T::one(); n * k], vec![T::zero(); n * k]);
            p.apply_panel(&r, &mut z, k);
            for (rc, zc) in r.chunks_exact(n).zip(z_ref.chunks_exact_mut(n)) {
                p.apply(rc, zc);
            }
            assert_eq!(bits(&z), bits(&z_ref), "{}, k = {k}", p.name());
        }
    }

    /// The exact bit patterns of `z` (through the exact widening to fp64).
    pub(crate) fn bits<T: Scalar>(z: &[T]) -> Vec<u64> {
        z.iter().map(|v| v.to_f64().to_bits()).collect()
    }

    /// ‖a − b‖₂ / ‖b‖₂ in fp64.
    pub(crate) fn rel_err<T: Scalar>(a: &[T], b: &[f64]) -> f64 {
        let num: f64 = a.iter().zip(b).map(|(x, y)| (x.to_f64() - y).powi(2)).sum();
        let den: f64 = b.iter().map(|y| y * y).sum();
        (num / den).sqrt()
    }
}
