//! Multi-vector (SpMM) products: one matrix against a column-major panel of
//! `k` vectors (column `c` of a panel is `xs[c * n .. (c + 1) * n]`).
//!
//! # The panel contract
//!
//! Batching may change how work is grouped, never what a column computes:
//! **column `c` of every product here is bitwise the single-vector kernel of
//! [`crate::spmv`] applied to column `c` alone**, on whatever kernel backend
//! the process latched, sequentially or on the pool.
//!
//! CSR panels of fp16 or fp32 vectors take the *panel kernel*.  The columns
//! are processed in lane groups of [`PANEL_LANES`]; a group is interleaved
//! once per product into a row-major scratch in the accumulation precision
//! (`xt[j]` holds the eight columns' entries `j`, each widened once, not once
//! per nonzero), then the matrix is walked once for the group: a stored
//! `a_ij` costs one widening shared by the eight columns and one multiply–add
//! on the contiguous lanes `xt[j]`, with no gather.  The kernel keeps, per
//! lane, the partial sums of the single-vector kernel in the same order —
//! under the SIMD backend the sixteen lane sums, trailing block, scalar tail
//! and horizontal reduction of the gather kernel for rows of eight entries
//! or more (`f3r-simd`, `x86_panel.rs`), and everywhere else the four-chain
//! tree of the scalar row kernel (`panel_row_tree`) — which is what makes
//! the columns bitwise equal.  Epilogues cover the plain store, the scaled
//! row fold and the residual `B − A X` ([`PanelOp`]).
//!
//! What keeps the *column loop* (each row fetched once, the single-vector row
//! kernel run once per column): fp64-vector panels, SELL panels, and a lane
//! group of fewer than [`PANEL_MIN_COLUMNS`] columns.  Of the ~150 panel
//! products of an fp16-F3R solve these are the two or three on the outermost
//! fp64 level.

use std::ops::Range;

use f3r_parallel::thresholds::{MIN_ROWS_PER_TASK, PANEL_MIN_COLUMNS, PAR_ROW_THRESHOLD};
use f3r_parallel::SyncPtr;
use f3r_precision::{FromScalar, Precision, Scalar};
use f3r_simd::{panel_finish, PanelSink};

pub use f3r_simd::PANEL_LANES;

use crate::csr::{CsrMatrix, ScaledCsr};
use crate::sell::{ScaledSell, SellMatrix};
use crate::spmv::{row_acc, sell_row};

/// How a panel product is run.  The result never depends on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dispatch {
    /// On the pool when the total work `n_rows · k` reaches
    /// [`PAR_ROW_THRESHOLD`], inline otherwise.
    #[default]
    Auto,
    /// Inline on the calling thread.
    Seq,
    /// Row ranges dealt to the pool.
    Par,
}

impl Dispatch {
    fn parallel(self, n_rows: usize, k: usize) -> bool {
        match self {
            Dispatch::Auto => n_rows.saturating_mul(k.max(1)) >= PAR_ROW_THRESHOLD,
            Dispatch::Seq => false,
            Dispatch::Par => true,
        }
    }
}

/// What a panel product leaves in its output panel.
#[derive(Debug, Clone, Copy)]
pub enum PanelOp<'a, TV> {
    /// `Y = A X`.
    Product,
    /// `R = B − A X` for the given panel `B`, subtracted before the single
    /// rounding like [`spmv_residual`](crate::spmv::spmv_residual).
    Residual(&'a [TV]),
}

/// A CSR matrix as the panel driver streams it: plain storage, or row-scaled
/// storage with its per-row power-of-two amplitude scales.
#[derive(Debug, Clone, Copy)]
pub struct CsrRows<'a, TA: Scalar> {
    matrix: &'a CsrMatrix<TA>,
    scales: Option<&'a [f64]>,
}

impl<'a, TA: Scalar> From<&'a CsrMatrix<TA>> for CsrRows<'a, TA> {
    fn from(matrix: &'a CsrMatrix<TA>) -> Self {
        Self { matrix, scales: None }
    }
}

impl<'a, TA: Scalar> From<&'a ScaledCsr<TA>> for CsrRows<'a, TA> {
    fn from(a: &'a ScaledCsr<TA>) -> Self {
        Self {
            matrix: a.matrix(),
            scales: Some(a.row_scales()),
        }
    }
}

/// Rows per pool task for the panel kernels: [`MIN_ROWS_PER_TASK`] scaled
/// down by the panel width (each row moves ~k columns of vector traffic, so
/// a k-wide task hits the single-vector task's byte budget k× sooner),
/// floored so tasks stay well above the pool's dispatch cost.  Grain only
/// affects the partition, never per-row values, so it is free to depend on k.
fn panel_grain(k: usize) -> usize {
    (MIN_ROWS_PER_TASK / k.max(1)).max(512)
}

/// Run `f` over `0..len`: as pool tasks on disjoint ranges, or inline.
fn for_row_ranges(len: usize, grain: usize, parallel: bool, f: impl Fn(Range<usize>) + Sync) {
    if parallel {
        f3r_parallel::par_ranges(len, grain, f);
    } else {
        f(0..len);
    }
}

/// CSR panel product on `k` column-major vectors: `out = A X` or
/// `out = B − A X` ([`PanelOp`]), with `A` in plain or row-scaled storage
/// ([`CsrRows`]).  Column `c` of the result is bitwise the matching
/// single-vector kernel ([`spmv`](crate::spmv::spmv),
/// [`spmv_scaled`](crate::spmv::spmv_scaled),
/// [`spmv_residual`](crate::spmv::spmv_residual),
/// [`spmv_scaled_residual`](crate::spmv::spmv_scaled_residual)) applied to
/// column `c`, whatever the dispatch — see the [module docs](self).
///
/// # Panics
/// Panics if a panel's length is not `k` times the matching matrix dimension.
pub fn csr_panel<TA: Scalar, TV: Scalar>(
    a: CsrRows<'_, TA>,
    xs: &[TV],
    op: PanelOp<'_, TV>,
    out: &mut [TV],
    k: usize,
    dispatch: Dispatch,
) {
    let (nr, nc) = (a.matrix.n_rows(), a.matrix.n_cols());
    assert_eq!(xs.len(), nc * k, "csr_panel: input panel length mismatch");
    assert_eq!(out.len(), nr * k, "csr_panel: output panel length mismatch");
    let rhs = match op {
        PanelOp::Product => None,
        PanelOp::Residual(b) => {
            assert_eq!(b.len(), nr * k, "csr_panel: right-hand-side panel length mismatch");
            Some(b)
        }
    };
    let parallel = dispatch.parallel(nr, k);
    // SAFETY: every task below writes the rows of its own range, in the
    // columns of one lane group, and each batch completes inside this call.
    let out = unsafe { SyncPtr::new(out.as_mut_ptr()) };
    for c0 in (0..k).step_by(PANEL_LANES) {
        let g = (k - c0).min(PANEL_LANES);
        let xs = &xs[c0 * nc..(c0 + g) * nc];
        // SAFETY: as `out`, of which these are the group's columns.
        let group_out = unsafe { SyncPtr::new(out.get().wrapping_add(c0 * nr)) };
        let sink = || PanelSink {
            out: group_out.get(),
            stride: nr,
            cols: g,
            scales: a.scales,
            rhs: rhs.map(|b| &b[c0 * nr..(c0 + g) * nr]),
        };
        if TV::PRECISION == Precision::Fp64 || g < PANEL_MIN_COLUMNS {
            for_row_ranges(nr, panel_grain(g), parallel, |rows| {
                // SAFETY: this task owns `rows` of the group's columns (the
                // ranges are disjoint and `out` outlives the batch).
                unsafe { column_loop_rows(a.matrix, xs, rows, &sink()) };
            });
            continue;
        }
        // The scratch rows are 32 bytes: start them on a 32-byte boundary so
        // no row load straddles a cache line.
        <TV::Accum as Scalar>::with_scratch((nc + 1) * PANEL_LANES, |flat| {
            let skip = flat.as_ptr().align_offset(32).min(PANEL_LANES);
            let xt = &mut flat[skip..skip + nc * PANEL_LANES];
            let (xt, _) = xt.as_chunks_mut::<PANEL_LANES>();
            if parallel {
                f3r_parallel::par_chunks_mut(xt, panel_grain(g), |row0, chunk| {
                    interleave_rows(xs, nc, g, row0, chunk);
                });
            } else {
                interleave_rows(xs, nc, g, 0, xt);
            }
            let xt = &*xt;
            for_row_ranges(nr, panel_grain(g), parallel, |rows| {
                // SAFETY: as above; the matrix arrays are those of a
                // validated `CsrMatrix` with `nc == xt.len()` columns.
                unsafe { panel_rows(a.matrix, xt, rows, &sink()) };
            });
        });
    }
}

/// Interleave a lane group: fill `xt[r][c]` with the widened entry
/// `row0 + r` of column `c` of `xs` (`cols ≤ PANEL_LANES` columns, column `c`
/// starting at `xs[c * stride]`); lanes past `cols` are zero.
///
/// # Panics
/// Panics if a column does not hold rows `row0 .. row0 + xt.len()`.
pub fn interleave_rows<TV: Scalar>(
    xs: &[TV],
    stride: usize,
    cols: usize,
    row0: usize,
    xt: &mut [[TV::Accum; PANEL_LANES]],
) {
    if f3r_simd::try_panel_interleave(xs, stride, cols, row0, xt) {
        return;
    }
    for (r, lanes) in xt.iter_mut().enumerate() {
        *lanes = [<TV::Accum as Scalar>::zero(); PANEL_LANES];
        for (c, lane) in lanes.iter_mut().enumerate().take(cols) {
            *lane = xs[c * stride + row0 + r].widen();
        }
    }
}

/// The inverse of [`interleave_rows`], with the one rounding back to `TV`:
/// `w[r][c]` goes to `out + c * stride + r` for the first `cols` lanes.
///
/// # Safety
/// `out + c * stride` must be valid for writing `w.len()` elements for every
/// `c < cols`, and no other thread may access those elements during the
/// call.
pub unsafe fn deinterleave_rows<TV: Scalar>(
    w: &[[TV::Accum; PANEL_LANES]],
    cols: usize,
    out: *mut TV,
    stride: usize,
) {
    // SAFETY: this function's own contract.
    if unsafe { f3r_simd::try_panel_deinterleave(w, cols, out, stride) } {
        return;
    }
    for (r, lanes) in w.iter().enumerate() {
        for (c, &lane) in lanes.iter().enumerate().take(cols) {
            // SAFETY: entry `r` of column `c`, inside the caller's extents.
            unsafe { out.add(c * stride + r).write(TV::narrow(lane)) };
        }
    }
}

/// Rows `rows` of one lane group through the panel kernel: the SIMD backend's
/// when it accepts the group, the scalar [`panel_row_tree`] otherwise.  Like
/// the single-vector `row_acc`, acceptance depends only on global properties
/// (backend, vector length), so every task makes the same choice.
///
/// # Safety
/// `sink` must hold rows `rows` of its columns, with no other thread touching
/// those rows during the call.
unsafe fn panel_rows<TA: Scalar, TV: Scalar>(
    m: &CsrMatrix<TA>,
    xt: &[[TV::Accum; PANEL_LANES]],
    rows: Range<usize>,
    sink: &PanelSink<'_, TV>,
) {
    // SAFETY: the arrays are those of a `CsrMatrix`, whose constructor bounds
    // every column index by `n_cols == xt.len()`; the sink is the caller's
    // contract.
    if unsafe { f3r_simd::try_spmm_panel(m.row_ptr(), m.col_idx(), m.values(), xt, rows.clone(), sink) } {
        return;
    }
    for row in rows {
        let (cols, vals) = m.row_entries(row);
        let acc = panel_row_tree(cols, vals, xt);
        let scale = sink.scales.map(|s| s[row]);
        for (c, &lane) in acc.iter().enumerate().take(sink.cols) {
            let at = c * sink.stride + row;
            let done = panel_finish::<TV>(lane, scale, sink.rhs.map(|b| b[at]));
            // SAFETY: slot `at` is row `row` of column `c` of the sink.
            unsafe { sink.out.add(at).write(done) };
        }
    }
}

/// One CSR row against an interleaved lane group: per lane, the four-chain
/// summation tree of the scalar single-vector row kernel (`spmv_row`) —
/// blocks of four entries into four partial sums, the remainder into the
/// first, `(acc0 + acc1) + (acc2 + acc3)`, multiply and add never fused.
#[inline(always)]
fn panel_row_tree<TA: Scalar, A: FromScalar>(
    cols: &[u32],
    vals: &[TA],
    xt: &[[A; PANEL_LANES]],
) -> [A; PANEL_LANES] {
    let mut acc = [[A::zero(); PANEL_LANES]; 4];
    let mut c4 = cols.chunks_exact(4);
    let mut v4 = vals.chunks_exact(4);
    for (c, v) in (&mut c4).zip(&mut v4) {
        for q in 0..4 {
            let (a, x) = (A::from_scalar(v[q]), &xt[c[q] as usize]);
            for (s, &xl) in acc[q].iter_mut().zip(x) {
                *s += a * xl;
            }
        }
    }
    for (&c, &v) in c4.remainder().iter().zip(v4.remainder()) {
        let (a, x) = (A::from_scalar(v), &xt[c as usize]);
        for (s, &xl) in acc[0].iter_mut().zip(x) {
            *s += a * xl;
        }
    }
    std::array::from_fn(|l| (acc[0][l] + acc[1][l]) + (acc[2][l] + acc[3][l]))
}

/// Rows `rows` of one lane group through the column loop: each row's entries
/// fetched once, the single-vector row kernel run on every column.
///
/// # Safety
/// As [`panel_rows`].
unsafe fn column_loop_rows<TA: Scalar, TV: Scalar>(
    m: &CsrMatrix<TA>,
    xs: &[TV],
    rows: Range<usize>,
    sink: &PanelSink<'_, TV>,
) {
    let nc = m.n_cols();
    for row in rows {
        let (cols, vals) = m.row_entries(row);
        let scale = sink.scales.map(|s| s[row]);
        for c in 0..sink.cols {
            let acc = row_acc(cols, vals, &xs[c * nc..(c + 1) * nc]);
            let at = c * sink.stride + row;
            let done = panel_finish::<TV>(acc, scale, sink.rhs.map(|b| b[at]));
            // SAFETY: slot `at` is row `row` of column `c` of the sink.
            unsafe { sink.out.add(at).write(done) };
        }
    }
}

/// Sliced-ELLPACK panel product `Y = A X` on `k` column-major vectors, with
/// `scales` the per-row amplitude scales of scaled storage.  SELL panels keep
/// the column loop: each row group's lane window is fetched once and swept
/// against every column with the single-vector group kernel, so column `c` is
/// bitwise [`spmv_sell`](crate::spmv::spmv_sell) /
/// [`spmv_scaled_sell`](crate::spmv::spmv_scaled_sell) on column `c`.
fn sell_panel<TA: Scalar, TV: Scalar>(
    a: &SellMatrix<TA>,
    scales: Option<&[f64]>,
    xs: &[TV],
    ys: &mut [TV],
    k: usize,
    dispatch: Dispatch,
) {
    assert_eq!(xs.len(), a.n_cols() * k, "sell spmm: xs length mismatch");
    assert_eq!(ys.len(), a.n_rows() * k, "sell spmm: ys length mismatch");
    let nr = a.n_rows();
    // SAFETY: a task writes rows of its own range only (see `emit` below),
    // and the batch completes inside this borrow of `ys`.
    let out = unsafe { SyncPtr::new(ys.as_mut_ptr()) };
    for_row_ranges(nr, panel_grain(k), dispatch.parallel(nr, k), |rows| {
        sell_sweep_multi(a, xs, k, rows.start, rows.len(), |row, c, acc| {
            let done = panel_finish::<TV>(acc, scales.map(|s| s[row]), None);
            // SAFETY: this task owns `row`, so slot `c * nr + row` is written
            // by exactly one task; boundary group rows outside `rows` are
            // computed but never emitted; `ys` outlives the batch.
            unsafe { out.get().add(c * nr + row).write(done) };
        });
    });
}

/// Sliced-ELLPACK SpMM dispatching on the total work `n_rows · k`.
///
/// # Panics
/// Panics if the panel lengths do not match the matrix dimensions.
pub fn spmv_sell_multi<TA: Scalar, TV: Scalar>(
    a: &SellMatrix<TA>,
    xs: &[TV],
    ys: &mut [TV],
    k: usize,
) {
    sell_panel(a, None, xs, ys, k, Dispatch::Auto);
}

/// Scaled sliced-ELLPACK SpMM dispatching on the total work `n_rows · k`.
///
/// # Panics
/// Panics if the panel lengths do not match the matrix dimensions.
pub fn spmv_scaled_sell_multi<TA: Scalar, TV: Scalar>(
    a: &ScaledSell<TA>,
    xs: &[TV],
    ys: &mut [TV],
    k: usize,
) {
    sell_panel(a.matrix(), Some(a.row_scales()), xs, ys, k, Dispatch::Auto);
}

/// Compute SELL rows `base .. base + count` against all `k` panel columns,
/// handing each accumulator to `emit(row, column, acc)`.
///
/// The multi-column twin of the single-vector `sell_sweep`: each row group's
/// lane window is fetched **once** and swept against every column before
/// moving on, so the padded SELL layout streams through the cache a single
/// time per call.  The group kernel's acceptance (`try_sell_group8` returning
/// `Some`) depends only on the latched backend and the column length — both
/// identical across a panel's columns — so either every column of a group
/// takes the SIMD path or none does, and each column's accumulators match the
/// single-vector sweep bit for bit.  A parallel task whose boundary cuts a
/// group computes the full group and emits only its own rows.
#[inline(always)]
fn sell_sweep_multi<TA: Scalar, TV: Scalar>(
    a: &SellMatrix<TA>,
    xs: &[TV],
    k: usize,
    base: usize,
    count: usize,
    mut emit: impl FnMut(usize, usize, TV::Accum),
) {
    if k == 0 {
        return;
    }
    let nc = a.n_cols();
    let end = base + count;
    let grouped = a.chunk_size().is_multiple_of(8)
        && nc <= f3r_simd::MAX_GATHER_LEN
        && f3r_simd::kernel_backend().is_simd();
    let mut row = base;
    while row < end {
        let g0 = row & !7;
        if grouped && g0 + 8 <= a.n_rows() {
            let (cols, vals, stride, width) = a.row_lanes(g0);
            // SAFETY: same contract as `sell_sweep` — the SellMatrix
            // constructor bounds all column indices by n_cols, the callers
            // assert each panel column has n_cols elements, and the lane
            // window is in bounds because the chunk height and lane offset
            // are multiples of 8.
            let accs = unsafe { f3r_simd::try_sell_group8(cols, vals, stride, width, &xs[..nc]) };
            if let Some(accs) = accs {
                let hi = end.min(g0 + 8);
                for r in row..hi {
                    emit(r, 0, accs[r - g0]);
                }
                for c in 1..k {
                    let x = &xs[c * nc..(c + 1) * nc];
                    // SAFETY: as above; acceptance is uniform across columns
                    // (backend and x.len() are the only gates).
                    let accs = unsafe { f3r_simd::try_sell_group8(cols, vals, stride, width, x) }
                        .expect("SELL group acceptance is uniform across panel columns");
                    for r in row..hi {
                        emit(r, c, accs[r - g0]);
                    }
                }
                row = hi;
                continue;
            }
        }
        for c in 0..k {
            let x = &xs[c * nc..(c + 1) * nc];
            emit(row, c, sell_row(a, row, x));
        }
        row += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::spmv::{
        spmv_residual, spmv_scaled_residual, spmv_scaled_sell_seq, spmv_scaled_seq, spmv_sell_seq, spmv_seq,
    };
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

    /// Tridiagonal matrix whose row amplitudes sweep `1e-12 .. 1e12`.
    fn wide_range_tridiag(n: usize) -> CsrMatrix<f64> {
        let a = tridiag(n);
        let d: Vec<f64> = (0..n)
            .map(|i| 10f64.powf(-12.0 + 24.0 * i as f64 / (n - 1) as f64))
            .collect();
        a.scale_rows_cols(&d, &vec![1.0; n])
    }

    /// Column-major panel of `k` deterministic pseudo-random columns.
    fn panel<T: Scalar>(n: usize, k: usize, seed: f64) -> Vec<T> {
        (0..n * k)
            .map(|i| T::from_f64(((i as f64) * 0.731 + seed).sin()))
            .collect()
    }

    fn product<TA: Scalar, TV: Scalar>(a: &CsrMatrix<TA>, xs: &[TV], k: usize, d: Dispatch) -> Vec<TV> {
        let mut ys = vec![TV::zero(); a.n_rows() * k];
        csr_panel(a.into(), xs, PanelOp::Product, &mut ys, k, d);
        ys
    }

    #[test]
    fn spmm_columns_are_bitwise_equal_to_spmv() {
        fn check<TV: Scalar>() {
            for &n in &[1usize, 7, 33, 100] {
                let a = tridiag(n);
                for &k in &[1usize, 2, 3, 5, 8, 9, 16] {
                    let xs = panel::<TV>(n, k, 0.3);
                    let ys = product(&a, &xs, k, Dispatch::Seq);
                    assert_eq!(ys, product(&a, &xs, k, Dispatch::Par), "n {n} k {k} seq/par");
                    for c in 0..k {
                        let mut y1 = vec![TV::zero(); n];
                        spmv_seq(&a, &xs[c * n..(c + 1) * n], &mut y1);
                        assert_eq!(&ys[c * n..(c + 1) * n], &y1[..], "n {n} k {k} col {c}");
                    }
                }
            }
        }
        check::<f64>();
        check::<f32>();
        check::<f16>();
    }

    #[test]
    fn spmm_handles_empty_rows_and_mixed_precision() {
        // Rows alternating empty / 1-entry / dense, fp16 storage, f32 panel.
        let n = 24;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            match i % 3 {
                0 => {}
                1 => coo.push(i, i, 1.5),
                _ => {
                    for j in 0..12 {
                        coo.push(i, (i + j) % n, 0.25 * (j as f64 + 1.0));
                    }
                }
            }
        }
        let a: CsrMatrix<f16> = coo.to_csr().to_precision();
        let k = 3;
        let xs: Vec<f32> = (0..n * k).map(|i| ((i % 11) as f32 - 5.0) / 11.0).collect();
        let ys = product(&a, &xs, k, Dispatch::Auto);
        for c in 0..k {
            let mut y1 = vec![0.0f32; n];
            spmv_seq(&a, &xs[c * n..(c + 1) * n], &mut y1);
            for row in 0..n {
                assert_eq!(ys[c * n + row], y1[row], "col {c} row {row}");
                if row % 3 == 0 {
                    assert_eq!(ys[c * n + row], 0.0, "empty row {row}");
                }
            }
        }
    }

    #[test]
    fn scaled_spmm_columns_match_scaled_spmv() {
        fn check<TV: Scalar>() {
            let n = 200;
            let a = wide_range_tridiag(n);
            let s = ScaledCsr::<f16>::from_f64(&a);
            for &k in &[2usize, 5, 8] {
                let xs = panel::<TV>(n, k, 1.7);
                let mut ys = vec![TV::zero(); n * k];
                let mut yp = vec![TV::zero(); n * k];
                csr_panel((&s).into(), &xs, PanelOp::Product, &mut ys, k, Dispatch::Seq);
                csr_panel((&s).into(), &xs, PanelOp::Product, &mut yp, k, Dispatch::Par);
                assert_eq!(ys, yp, "k {k} seq/par");
                for c in 0..k {
                    let mut y1 = vec![TV::zero(); n];
                    spmv_scaled_seq(&s, &xs[c * n..(c + 1) * n], &mut y1);
                    assert_eq!(&ys[c * n..(c + 1) * n], &y1[..], "k {k} col {c}");
                }
            }
        }
        check::<f64>();
        check::<f32>();
        check::<f16>();
    }

    #[test]
    fn residual_panels_match_the_single_vector_residuals() {
        fn check<TV: Scalar>() {
            let n = 150;
            let a: CsrMatrix<f32> = tridiag(n).to_precision();
            let s = ScaledCsr::<f16>::from_f64(&wide_range_tridiag(n));
            for &k in &[1usize, 3, 8, 11] {
                let xs = panel::<TV>(n, k, 0.4);
                let bs = panel::<TV>(n, k, 2.9);
                let mut rs = vec![TV::zero(); n * k];
                let mut rs_scaled = vec![TV::zero(); n * k];
                csr_panel((&a).into(), &xs, PanelOp::Residual(&bs), &mut rs, k, Dispatch::Auto);
                csr_panel((&s).into(), &xs, PanelOp::Residual(&bs), &mut rs_scaled, k, Dispatch::Auto);
                for c in 0..k {
                    let col = c * n..(c + 1) * n;
                    let mut r1 = vec![TV::zero(); n];
                    spmv_residual(&a, &xs[col.clone()], &bs[col.clone()], &mut r1);
                    assert_eq!(&rs[col.clone()], &r1[..], "k {k} col {c}");
                    spmv_scaled_residual(&s, &xs[col.clone()], &bs[col.clone()], &mut r1);
                    assert_eq!(&rs_scaled[col], &r1[..], "scaled, k {k} col {c}");
                }
            }
        }
        check::<f64>();
        check::<f32>();
        check::<f16>();
    }

    #[test]
    fn sell_spmm_columns_match_sell_spmv() {
        // Chunk 8 engages the 8-row group kernel where the backend allows;
        // chunk 4 forces the scalar per-row path; n = 70 leaves a partial
        // trailing group either way.
        let n = 70;
        let a = tridiag(n);
        for &chunk in &[4usize, 8] {
            let sell = SellMatrix::from_csr(&a, chunk);
            for &k in &[1usize, 3, 8] {
                let xs = panel::<f64>(n, k, 0.9);
                let mut ys = vec![0.0f64; n * k];
                let mut yp = vec![0.0f64; n * k];
                sell_panel(&sell, None, &xs, &mut ys, k, Dispatch::Seq);
                sell_panel(&sell, None, &xs, &mut yp, k, Dispatch::Par);
                assert_eq!(ys, yp, "chunk {chunk} k {k} seq/par");
                for c in 0..k {
                    let mut y1 = vec![0.0f64; n];
                    spmv_sell_seq(&sell, &xs[c * n..(c + 1) * n], &mut y1);
                    assert_eq!(
                        &ys[c * n..(c + 1) * n],
                        &y1[..],
                        "chunk {chunk} k {k} col {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn scaled_sell_spmm_columns_match_scaled_sell_spmv() {
        let n = 120;
        let a = wide_range_tridiag(n);
        let sell = ScaledSell::<f16>::from_csr_f64(&a, 8);
        let k = 4;
        let xs = panel::<f64>(n, k, 2.3);
        let mut ys = vec![0.0f64; n * k];
        let mut yp = vec![0.0f64; n * k];
        sell_panel(sell.matrix(), Some(sell.row_scales()), &xs, &mut ys, k, Dispatch::Seq);
        sell_panel(sell.matrix(), Some(sell.row_scales()), &xs, &mut yp, k, Dispatch::Par);
        assert_eq!(ys, yp, "seq/par");
        for c in 0..k {
            let mut y1 = vec![0.0f64; n];
            spmv_scaled_sell_seq(&sell, &xs[c * n..(c + 1) * n], &mut y1);
            assert_eq!(&ys[c * n..(c + 1) * n], &y1[..], "col {c}");
        }
    }

    #[test]
    fn spmm_parallel_dispatch_above_threshold() {
        let n = PAR_ROW_THRESHOLD / 2 + 77;
        let a = tridiag(n);
        let k = 3; // n * k crosses the work threshold even though n alone doesn't
        let xs = panel::<f32>(n, k, 0.1);
        assert_eq!(
            product(&a, &xs, k, Dispatch::Seq),
            product(&a, &xs, k, Dispatch::Auto)
        );
    }

    #[test]
    fn spmm_empty_panel_is_a_no_op() {
        let a = tridiag(10);
        let xs: Vec<f64> = vec![];
        let mut ys: Vec<f64> = vec![];
        csr_panel((&a).into(), &xs, PanelOp::Product, &mut ys, 0, Dispatch::Auto);
        let sell = SellMatrix::from_csr(&a, 8);
        spmv_sell_multi(&sell, &xs, &mut ys, 0);
    }

    #[test]
    #[should_panic(expected = "csr_panel: input panel length mismatch")]
    fn spmm_dimension_mismatch_panics() {
        let a = tridiag(4);
        let xs = vec![0.0f64; 7]; // not 4 * k for k = 2
        let mut ys = vec![0.0f64; 8];
        csr_panel((&a).into(), &xs, PanelOp::Product, &mut ys, 2, Dispatch::Auto);
    }
}
