//! The sparse-product driver: one stored matrix against a column-major panel
//! of `k` vectors (column `c` of a panel is `xs[c * n .. (c + 1) * n]`).
//!
//! The paper's hot kernel is one operation — a matrix in its *storage*
//! precision streamed against vectors in the *working* precision — and
//! [`spmm`] is its one spelling: a [`Rows`] view says how the matrix is stored
//! (CSR or sliced ELLPACK, plain or under per-row amplitude scales), a
//! [`PanelOp`] says what a finished row becomes (`A X`, the residual
//! `B − A X`, or `A X` with the dots `(uᵀy, yᵀy)` taken in the same sweep), a
//! [`Dispatch`] says where it runs, and `k` may be anything from zero up.  A
//! single vector is the one-column panel ([`crate::spmv::spmv`]).
//!
//! The driver is three layers.  *Row bodies* turn one stored row into an
//! accumulator in `TV::Accum` ([`crate::spmv`]'s CSR and SELL rows, the SELL
//! group of eight, the interleaved panel row below).  The *epilogue* turns an
//! accumulator into the stored result — scale fold, subtraction, the one
//! rounding, the dots — and is resolved once per call, outside the row loop,
//! so a product pays for exactly the epilogue it asked for.  *Dispatch* deals
//! row ranges to the pool or runs them inline.
//!
//! # The panel contract
//!
//! Batching may change how work is grouped, never what a column computes:
//! **column `c` of every product here is bitwise the one-column product of
//! column `c` alone**, on whatever kernel backend the process latched, inline
//! or on the pool.  (The dots of [`PanelOp::Dot2`] are sums of per-task
//! partials folded in task order, so they are bitwise reproducible for a
//! fixed pool size and partition, like every reduction of this crate; the
//! stored columns never depend on either.)
//!
//! CSR panels of fp16 or fp32 vectors take the *panel kernel*.  The columns
//! are processed in lane groups of [`PANEL_LANES`]; a group is interleaved
//! once per product into a row-major scratch in the accumulation precision
//! (`xt[j]` holds the eight columns' entries `j`, each widened once, not once
//! per nonzero), then the matrix is walked once for the group: a stored
//! `a_ij` costs one widening shared by the eight columns and one multiply–add
//! on the contiguous lanes `xt[j]`, with no gather.  The kernel keeps, per
//! lane, the partial sums of the single-vector row body in the same order —
//! under the SIMD backend the sixteen lane sums, trailing block, scalar tail
//! and horizontal reduction of the gather kernel for rows of eight entries
//! or more (`f3r-simd`, `x86_panel.rs`), and everywhere else the four-chain
//! tree of the scalar row body (`panel_row_tree`) — which is what makes the
//! columns bitwise equal.
//!
//! What keeps the *column loop* (each row fetched once, the single-vector row
//! body run once per column): fp64-vector panels, SELL panels (the lane
//! window of a row group fetched once per group), a lane group of fewer than
//! [`PANEL_MIN_COLUMNS`] columns — a single vector among them — and
//! [`PanelOp::Dot2`], whose dots ride on the row loop.  Of the ~150 panel
//! products of a batched fp16-F3R solve these are the two or three on the
//! outermost fp64 level.
//!
//! # fp16 operands cross in bulk
//!
//! The column loop's row bodies see vectors only in `TV::Accum`, and the
//! only conversions made one element at a time are hardware ones.  fp32 and
//! fp64 columns are read where they lie and, on an fp32 or fp64 matrix, each
//! row is finished and stored as it comes.  An fp16 operand would cost a
//! software conversion per use (the vendored `half` is ~10 operations a
//! value), so it crosses the product's boundary in bulk, through
//! [`convert_slice`] (F16C/AVX-512 where the CPU has them):
//!
//! * an fp16 `x` is widened **once per product** into this thread's scratch
//!   ([`Scalar::with_scratch`]; in parallel chunks when the product is
//!   parallel) — `SolverBuilder::build` reserves that copy on the building
//!   thread, so it is not first grown in the middle of a solve;
//! * fp16 matrix values go to the scalar row body through a [`Widened`]
//!   window on the task's stack: a block of 256 rows (`ROW_BLOCK`) whose entries
//!   the window holds — every block of rows the SIMD row kernel declines for
//!   being shorter than eight — in one conversion, any other declined row on
//!   its own; rows the SIMD kernel takes are widened by the kernel, and a
//!   block of nothing else converts nothing;
//! * fp16 results are finished a block of rows at a time
//!   (`Panel::block_rows`): the row bodies leave their accumulators in a
//!   buffer on the task's stack, the epilogue runs there on slices (`b` or
//!   `u` widened in bulk), and the block is narrowed into the output in
//!   bulk; [`PanelOp::Dot2`] takes its dots on the narrowed block widened
//!   again, rows in order, in `f64`.
//!
//! Widening is exact, the one rounding is the same rounding, and no
//! summation tree changes: every result is bitwise what one conversion per
//! use would give (`tests/panel_parity.rs` holds that loop as a reference).

use std::ops::Range;

use f3r_parallel::thresholds::{MIN_LEN_PER_TASK, MIN_ROWS_PER_TASK, PANEL_MIN_COLUMNS, PAR_ROW_THRESHOLD};
use f3r_parallel::SyncPtr;
use f3r_precision::{convert_slice, FromScalar, Precision, Scalar, Widened};
use f3r_simd::PanelSink;

pub use f3r_simd::PANEL_LANES;

use crate::csr::CsrMatrix;
use crate::sell::SellMatrix;
use crate::spmv::{row_acc, sell_row};
use crate::stored::{self, StoredMatrix};

/// How a product is run.  The result never depends on it.
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

/// What a product leaves in its output panel.
#[derive(Debug)]
pub enum PanelOp<'a, TV> {
    /// `Y = A X`.
    Product,
    /// `R = B − A X` for the given panel `B`, subtracted in the accumulator
    /// before the single rounding: one rounding more accurate, and one sweep
    /// cheaper, than the product followed by a subtraction.
    Residual(&'a [TV]),
    /// `Y = A X` and, from the same sweep, `dots[c] = (u_cᵀ y_c, y_cᵀ y_c)`
    /// for every column of the panel `U` — the pair behind CG's `(p, Ap)`,
    /// BiCGStab's `(t, s)/(t, t)` and the adaptive Richardson weight.  The
    /// dots accumulate in `f64` on the *stored* `y`, so they are the dots one
    /// would take after the product, without re-reading it.
    Dot2 {
        /// The panel `U`, laid out like the output.
        u: &'a [TV],
        /// One `(uᵀy, yᵀy)` per column; overwritten.
        dots: &'a mut [(f64, f64)],
    },
}

#[derive(Debug, Clone, Copy)]
enum Layout<'a, TA> {
    Csr(&'a CsrMatrix<TA>),
    Sell(&'a SellMatrix<TA>),
}

/// A stored matrix as the driver streams it: CSR or sliced ELLPACK, plain or
/// row-scaled with its per-row power-of-two amplitude scales.  Made from a
/// reference to a bare [`CsrMatrix`] or [`SellMatrix`] (plain), or to a
/// [`StoredMatrix`], its owned twin.
#[derive(Debug, Clone, Copy)]
pub struct Rows<'a, TA: Scalar> {
    layout: Layout<'a, TA>,
    scales: Option<&'a [f64]>,
}

impl<'a, TA: Scalar> From<&'a CsrMatrix<TA>> for Rows<'a, TA> {
    fn from(a: &'a CsrMatrix<TA>) -> Self {
        Self { layout: Layout::Csr(a), scales: None }
    }
}

impl<'a, TA: Scalar> From<&'a SellMatrix<TA>> for Rows<'a, TA> {
    fn from(a: &'a SellMatrix<TA>) -> Self {
        Self { layout: Layout::Sell(a), scales: None }
    }
}

impl<'a, TA: Scalar> From<&'a StoredMatrix<TA>> for Rows<'a, TA> {
    fn from(a: &'a StoredMatrix<TA>) -> Self {
        let layout = match &a.layout {
            stored::Layout::Csr(m) => Layout::Csr(m),
            stored::Layout::Sell(m) => Layout::Sell(m),
        };
        Self { layout, scales: a.row_scales.as_deref() }
    }
}

/// Where a row accumulator is finished: plain storage works in the
/// accumulation precision and rounds with [`Scalar::narrow`]; scaled storage
/// folds the row's power-of-two scale in `f64` (exact, once per row) and
/// rounds from there.  Everything an epilogue does between the accumulator
/// and the one rounding happens in `W`.
trait Fold<TV: Scalar>: Copy + Sync {
    type W: Scalar;
    fn lift(self, acc: TV::Accum, row: usize) -> Self::W;
    fn widen(v: TV) -> Self::W;
    fn round(w: Self::W) -> TV;
}

#[derive(Clone, Copy)]
struct Plain;

#[derive(Clone, Copy)]
struct Scaled<'a>(&'a [f64]);

impl<TV: Scalar> Fold<TV> for Plain {
    type W = TV::Accum;
    #[inline(always)]
    fn lift(self, acc: TV::Accum, _row: usize) -> TV::Accum {
        acc
    }
    #[inline(always)]
    fn widen(v: TV) -> TV::Accum {
        v.widen()
    }
    #[inline(always)]
    fn round(w: TV::Accum) -> TV {
        TV::narrow(w)
    }
}

impl<TV: Scalar> Fold<TV> for Scaled<'_> {
    type W = f64;
    #[inline(always)]
    fn lift(self, acc: TV::Accum, row: usize) -> f64 {
        acc.to_f64() * self.0[row]
    }
    #[inline(always)]
    fn widen(v: TV) -> f64 {
        v.to_f64()
    }
    #[inline(always)]
    fn round(w: f64) -> TV {
        TV::from_f64(w)
    }
}

/// The sparse product on `k` column-major vectors: `out = A X`,
/// `out = B − A X` or `out = A X` with its dots ([`PanelOp`]), for `A` in any
/// storage the driver streams ([`Rows`]).  Column `c` of the result is
/// bitwise the one-column product of column `c`, whatever the dispatch — see
/// the [module docs](self).
///
/// **Storage is no wider than the working precision**: `TA` may be `TV` or
/// narrower, never wider.  No solver level stores a matrix wider than the
/// vectors it meets (the paper's Table 1; `NestedSpec::check` says so with a
/// message at spec time), so the wide pairs are not compiled: the test below
/// is on constants, and the driver's body exists for the six pairs that
/// pass it.
///
/// # Panics
/// Panics if `TA` is wider than `TV`, if a panel's length is not `k` times
/// the matching matrix dimension, or if [`PanelOp::Dot2`]'s `dots` does not
/// hold `k` pairs.
pub fn spmm<'a, TA: Scalar, TV: Scalar>(
    a: impl Into<Rows<'a, TA>>,
    xs: &[TV],
    op: PanelOp<'_, TV>,
    out: &mut [TV],
    k: usize,
    dispatch: Dispatch,
) {
    assert!(
        const { TA::PRECISION.stores_within(TV::PRECISION) },
        "spmm: {} matrix storage is wider than the {} working precision (storage must be no wider than the working precision)",
        TA::PRECISION,
        TV::PRECISION,
    );
    // One body per (TA, TV), whichever storage type the caller holds.
    spmm_rows(a.into(), xs, op, out, k, dispatch);
}

fn spmm_rows<TA: Scalar, TV: Scalar>(
    Rows { layout, scales }: Rows<'_, TA>,
    xs: &[TV],
    op: PanelOp<'_, TV>,
    out: &mut [TV],
    k: usize,
    dispatch: Dispatch,
) {
    let (nr, nc) = match layout {
        Layout::Csr(m) => (m.n_rows(), m.n_cols()),
        Layout::Sell(s) => (s.n_rows(), s.n_cols()),
    };
    assert_eq!(xs.len(), nc * k, "spmm: input panel length mismatch");
    assert_eq!(out.len(), nr * k, "spmm: output panel length mismatch");
    let panel = Panel {
        layout,
        scales,
        xs,
        // SAFETY: every task of `Panel::run` writes the rows of its own range
        // in the columns of one lane group, the groups run one after another,
        // and each batch completes inside this call's borrow of `out`.
        out: unsafe { SyncPtr::new(out.as_mut_ptr()) },
        nr,
        nc,
        k,
        parallel: dispatch.parallel(nr, k),
    };
    match scales {
        None => panel.finish_with(Plain, op),
        Some(s) => panel.finish_with(Scaled(s), op),
    }
}

/// A block epilogue, `fin_block(w, operand, at, y, sums)` of [`Panel::run`]:
/// finish one column's rows `at .. at + w.len()` from their lifted
/// accumulators `w` into the stored `y`.
type FinBlock<'a, W, TV, S> = dyn Fn(&mut [W], &mut [W], usize, &mut [TV], &mut S) + Sync + 'a;

/// One product's operands, as the row loops see them.
struct Panel<'a, TA, TV> {
    layout: Layout<'a, TA>,
    scales: Option<&'a [f64]>,
    xs: &'a [TV],
    out: SyncPtr<TV>,
    nr: usize,
    nc: usize,
    k: usize,
    parallel: bool,
}

impl<TA: Scalar, TV: Scalar> Panel<'_, TA, TV> {
    /// Resolve the epilogue — `fold` × `op` — into one monomorphic row
    /// finisher and run the product with it.  Each epilogue comes twice: for
    /// one row, and for a block of one column's rows lifted into `F::W`
    /// (fp16 vectors, [`Self::block_rows`]), where the same operations run on
    /// slices and every conversion is a bulk one.
    fn finish_with<F: Fold<TV>>(&self, fold: F, op: PanelOp<'_, TV>) {
        let len = self.nr * self.k;
        match op {
            PanelOp::Product => self.run(
                fold,
                None,
                |acc, row, _, (): &mut ()| F::round(fold.lift(acc, row)),
                |w, _, _, y, (): &mut ()| convert_slice(w, y),
                |_, ()| {},
            ),
            PanelOp::Residual(b) => {
                assert_eq!(b.len(), len, "spmm: right-hand-side panel length mismatch");
                self.run(
                    fold,
                    Some(b),
                    |acc, row, at, (): &mut ()| F::round(F::widen(b[at]) - fold.lift(acc, row)),
                    |w, bw, at, y, (): &mut ()| {
                        convert_slice(&b[at..at + w.len()], bw);
                        for (w, &b) in w.iter_mut().zip(&*bw) {
                            *w = b - *w;
                        }
                        convert_slice(w, y);
                    },
                    |_, ()| {},
                );
            }
            PanelOp::Dot2 { u, dots } => {
                assert_eq!(u.len(), len, "spmm: dot panel length mismatch");
                assert_eq!(dots.len(), self.k, "spmm: one dot pair per column");
                dots.fill((0.0, 0.0));
                self.run(
                    fold,
                    None,
                    |acc, row, at, (uy, yy): &mut (f64, f64)| {
                        // Round once, then take the dots on the *stored*
                        // value: bitwise the dots run after the product.
                        let y = F::round(fold.lift(acc, row));
                        let w = F::widen(y);
                        *uy += (F::widen(u[at]) * w).to_f64();
                        *yy += (w * w).to_f64();
                        y
                    },
                    |w, uw, at, y, (uy, yy): &mut (f64, f64)| {
                        // The same, a block at a time: `w` becomes the stored
                        // values widened again, and the dots take the rows
                        // in order.
                        convert_slice(w, y);
                        convert_slice(y, w);
                        convert_slice(&u[at..at + w.len()], uw);
                        for (&u, &w) in uw.iter().zip(&*w) {
                            *uy += (u * w).to_f64();
                            *yy += (w * w).to_f64();
                        }
                    },
                    |c, (uy, yy)| {
                        dots[c].0 += uy;
                        dots[c].1 += yy;
                    },
                );
            }
        }
    }

    /// The row loops.  `fin(acc, row, at, sums)` finishes the accumulator of
    /// row `row` for panel slot `at = column · n_rows + row`, with `sums` the
    /// running reduction of that column in the current task;
    /// `fin_block(w, operand, at, y, sums)` finishes the rows `at ..
    /// at + w.len()` of one column at once, from their lifted accumulators
    /// `w` into the stored `y`, with `operand` as scratch of the same length;
    /// `merge(column, sums)` receives every task's reductions in task order.
    /// `rhs` is the residual's `B` again, as data, for the SIMD panel kernel,
    /// which finishes its own rows ([`PanelSink`]).
    fn run<F: Fold<TV>, S: Copy + Default + Send>(
        &self,
        fold: F,
        rhs: Option<&[TV]>,
        fin: impl Fn(TV::Accum, usize, usize, &mut S) -> TV + Sync,
        fin_block: impl Fn(&mut [F::W], &mut [F::W], usize, &mut [TV], &mut S) + Sync,
        mut merge: impl FnMut(usize, S),
    ) {
        let Self { layout, nr, nc, k, parallel, .. } = *self;
        let bulk = TA::PRECISION == Precision::Fp16 || TV::PRECISION == Precision::Fp16;
        for c0 in (0..k).step_by(PANEL_LANES) {
            let g = (k - c0).min(PANEL_LANES);
            let grain = panel_grain(g);
            let each = |sums: [S; PANEL_LANES]| {
                for (c, s) in sums.into_iter().take(g).enumerate() {
                    merge(c0 + c, s);
                }
            };
            let xs = &self.xs[c0 * nc..(c0 + g) * nc];
            match layout {
                // The panel kernel finishes its own rows, so a reduction (a
                // non-empty `S`) keeps the column loop, where it rides on
                // `fin`.
                Layout::Csr(m) if TV::PRECISION != Precision::Fp64 && g >= PANEL_MIN_COLUMNS && size_of::<S>() == 0 => {
                    // The scratch rows are 32 bytes: start them on a 32-byte
                    // boundary so no row load straddles a cache line.
                    <TV::Accum as Scalar>::with_scratch((nc + 1) * PANEL_LANES, |flat| {
                        let skip = flat.as_ptr().align_offset(32).min(PANEL_LANES);
                        let xt = &mut flat[skip..skip + nc * PANEL_LANES];
                        let (xt, _) = xt.as_chunks_mut::<PANEL_LANES>();
                        if parallel {
                            f3r_parallel::par_chunks_mut(xt, grain, |row0, chunk| {
                                interleave_rows(xs, nc, g, row0, chunk);
                            });
                        } else {
                            interleave_rows(xs, nc, g, 0, xt);
                        }
                        let xt = &*xt;
                        let task = |rows| self.panel_group_rows(m, c0, g, rhs, &fin, rows, xt);
                        for_row_ranges(nr, grain, parallel, task, each);
                    });
                }
                // The column loop reads its vectors in the accumulation
                // precision, fp32 and fp64 columns where they lie.  With no
                // fp16 operand every conversion left is a hardware one, and a
                // row is finished as it comes …
                _ => match TV::as_accum(xs) {
                    Some(x) if !bulk => {
                        let task = |rows| self.group_rows(c0, g, &fin, rows, x);
                        for_row_ranges(nr, grain, parallel, task, each);
                    }
                    // … fp16 operands cross in bulk: matrix values a block of
                    // rows at a time, results finished and narrowed likewise,
                    // fp16 columns widened once per product.
                    Some(x) => {
                        let task = |rows| self.block_rows(c0, g, fold, &fin_block, rows, x);
                        for_row_ranges(nr, grain, parallel, task, each);
                    }
                    None => <TV::Accum as Scalar>::with_scratch(xs.len(), |x| {
                        if parallel {
                            f3r_parallel::par_chunks_mut(x, MIN_LEN_PER_TASK, |at, chunk| {
                                convert_slice(&xs[at..at + chunk.len()], chunk);
                            });
                        } else {
                            convert_slice(xs, x);
                        }
                        let x = &*x;
                        let task = |rows| self.block_rows(c0, g, fold, &fin_block, rows, x);
                        for_row_ranges(nr, grain, parallel, task, each);
                    }),
                },
            }
        }
    }

    /// `emit(row, column, acc)` of one task on the lane group from column
    /// `c0`: finish the accumulator with `fin`, store the result.
    #[inline(always)]
    fn emit_with<'s, S>(
        &self,
        c0: usize,
        fin: &'s impl Fn(TV::Accum, usize, usize, &mut S) -> TV,
        sums: &'s mut [S; PANEL_LANES],
    ) -> impl FnMut(usize, usize, TV::Accum) + 's {
        // Captured by value: the row loops then keep the pointer and the
        // strides in registers across the raw stores.
        let (out, nr) = (self.out.get(), self.nr);
        move |row: usize, c: usize, acc: TV::Accum| {
            let at = (c0 + c) * nr + row;
            let y = fin(acc, row, at, &mut sums[c]);
            // SAFETY: row `row` of column `c0 + c`, which this task owns
            // (`spmm`'s note on `out`); SELL boundary-group rows outside
            // the task's rows are computed but never emitted.
            unsafe { out.add(at).write(y) };
        }
    }

    /// Rows `rows` of the lane group of `g` columns from column `c0` through
    /// the column loop, on the group's columns `x` in the accumulation
    /// precision.  Returns the group's reductions over `rows`.  One task, or
    /// the whole inline sweep — entered once per row range, so it is kept
    /// out of line: one copy of the row loops per epilogue, not one per call
    /// site.
    #[inline(never)]
    fn group_rows<S: Copy + Default>(
        &self,
        c0: usize,
        g: usize,
        fin: &impl Fn(TV::Accum, usize, usize, &mut S) -> TV,
        rows: Range<usize>,
        x: &[TV::Accum],
    ) -> [S; PANEL_LANES] {
        let mut sums = [S::default(); PANEL_LANES];
        let emit = self.emit_with(c0, fin, &mut sums);
        match self.layout {
            Layout::Csr(m) => csr_rows(m, &mut [], x, g, rows, emit),
            Layout::Sell(s) => sell_rows(s, x, g, rows, emit),
        }
        sums
    }

    /// [`Self::group_rows`] through the panel kernel, on the interleaved
    /// group `xt` of a CSR matrix `m`.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn panel_group_rows<S: Copy + Default>(
        &self,
        m: &CsrMatrix<TA>,
        c0: usize,
        g: usize,
        rhs: Option<&[TV]>,
        fin: &impl Fn(TV::Accum, usize, usize, &mut S) -> TV,
        rows: Range<usize>,
        xt: &[[TV::Accum; PANEL_LANES]],
    ) -> [S; PANEL_LANES] {
        let nr = self.nr;
        let mut sums = [S::default(); PANEL_LANES];
        let sink = PanelSink {
            out: self.out.get().wrapping_add(c0 * nr),
            stride: nr,
            cols: g,
            scales: self.scales,
            rhs: rhs.map(|b| &b[c0 * nr..(c0 + g) * nr]),
        };
        // SAFETY: rows `rows` of columns `c0 .. c0 + g`, which this task owns
        // (`spmm`'s note on `out`); the matrix arrays are those of a validated
        // `CsrMatrix` with `nc == xt.len()` columns.
        unsafe { panel_rows(m, xt, rows, &sink, self.emit_with(c0, fin, &mut sums)) };
        sums
    }

    /// [`Self::group_rows`]' column loop for fp16 vectors, `x` being the
    /// group's columns widened: the rows go in blocks of [`ROW_BLOCK`], whose
    /// accumulators the row bodies leave lifted ([`Fold::lift`]) in a buffer
    /// on the stack, one run per column, for `fin_block` to finish and narrow
    /// into the output in bulk — so neither a vector entry nor a result goes
    /// through a conversion of its own.  (`fin_block` is called once per
    /// block and column, so it is a `dyn` call: the row loops in here are
    /// compiled once for the epilogues that reduce nothing, not once each.)
    #[inline(never)]
    fn block_rows<F: Fold<TV>, S: Copy + Default>(
        &self,
        c0: usize,
        g: usize,
        fold: F,
        fin_block: &FinBlock<'_, F::W, TV, S>,
        rows: Range<usize>,
        x: &[TV::Accum],
    ) -> [S; PANEL_LANES] {
        let (nr, out) = (self.nr, self.out.get());
        let mut sums = [S::default(); PANEL_LANES];
        let mut window = [<TA::Accum as Scalar>::zero(); VALUE_WINDOW];
        let window: &mut [TA::Accum] = if TA::PRECISION == Precision::Fp16 { &mut window } else { &mut [] };
        let mut lifted = [<F::W as Scalar>::zero(); ROW_BLOCK * PANEL_LANES];
        let mut operand = [<F::W as Scalar>::zero(); ROW_BLOCK];
        let mut row = rows.start;
        while row < rows.end {
            // Blocks end on multiples of `ROW_BLOCK`, so only a task's own
            // boundaries ever cut through a SELL group of eight rows.
            let end = rows.end.min((row / ROW_BLOCK + 1) * ROW_BLOCK);
            let block = &mut lifted;
            let lift = move |r: usize, c: usize, acc: TV::Accum| block[c * ROW_BLOCK + r - row] = fold.lift(acc, r);
            match self.layout {
                Layout::Csr(m) => csr_rows(m, window, x, g, row..end, lift),
                Layout::Sell(s) => sell_rows(s, x, g, row..end, lift),
            }
            let len = end - row;
            for (c, sums) in sums.iter_mut().enumerate().take(g) {
                let at = (c0 + c) * nr + row;
                // SAFETY: rows `row .. end` of column `c0 + c`, which this
                // task owns (`spmm`'s note on `out`).
                let y = unsafe { std::slice::from_raw_parts_mut(out.add(at), len) };
                fin_block(&mut lifted[c * ROW_BLOCK..][..len], &mut operand[..len], at, y, sums);
            }
            row = end;
        }
        sums
    }
}

/// Rows per bulk conversion — of fp16 results narrowed
/// ([`Panel::block_rows`]), of fp16 matrix values widened ([`csr_rows`]): a
/// multiple of eight (the SELL row group), long enough that the converters'
/// calls vanish next to the rows, short enough that what is converted (1–2
/// KiB of accumulators per column) is still in L1 when it is used.
const ROW_BLOCK: usize = 256;

/// fp16 matrix values widened per bulk conversion: what a [`ROW_BLOCK`] of
/// rows too short for the SIMD row kernel (under eight entries) can hold,
/// 8 KiB of fp32 on the task's stack.
const VALUE_WINDOW: usize = 8 * ROW_BLOCK;

/// Rows per pool task: [`MIN_ROWS_PER_TASK`] scaled down by the panel width
/// (each row moves ~k columns of vector traffic, so a k-wide task hits the
/// single-vector task's byte budget k× sooner), floored so tasks stay well
/// above the pool's dispatch cost.  Grain only affects the partition, never
/// per-row values, so it is free to depend on k.
fn panel_grain(k: usize) -> usize {
    (MIN_ROWS_PER_TASK / k.max(1)).max(512)
}

/// Run `task` over `0..len` — inline, or as pool tasks on disjoint ranges —
/// and hand each range's result to `each` in range order.  Results without
/// content are not collected, so such a product allocates nothing.
fn for_row_ranges<R: Send>(
    len: usize,
    grain: usize,
    parallel: bool,
    task: impl Fn(Range<usize>) -> R + Sync,
    mut each: impl FnMut(R),
) {
    if !parallel {
        each(task(0..len));
    } else if size_of::<R>() == 0 {
        f3r_parallel::par_ranges(len, grain, |rows| {
            task(rows);
        });
    } else {
        f3r_parallel::par_map_ranges(len, grain, task).into_iter().for_each(each);
    }
}

/// Rows `rows` of one lane group through the column loop: each row's entries
/// fetched once, the single-vector row body run on every column of `xs`
/// (`cols` columns in the accumulation precision).
///
/// fp16 matrix values reach the scalar row body widened in bulk, into
/// `window` ([`VALUE_WINDOW`] values; unused, and empty, for fp32/fp64
/// matrices): a [`ROW_BLOCK`] of rows whose entries fit it — which is every
/// block of rows too short for the SIMD row kernel — in one conversion for
/// the block, any other row that kernel declines through a window that moves
/// with the rows ([`Widened`]).  A block of long rows therefore converts
/// nothing here: the SIMD kernel widens what it loads.  (With an fp16 matrix
/// the columns go one after another, each with its own walk over the rows:
/// more than one reaches this loop only with `Dot2` panels and fp64 vectors,
/// which no solver level combines with fp16 storage.)
#[inline(always)]
fn csr_rows<TA: Scalar, A: FromScalar>(
    m: &CsrMatrix<TA>,
    window: &mut [TA::Accum],
    xs: &[A],
    cols: usize,
    rows: Range<usize>,
    mut emit: impl FnMut(usize, usize, A),
) {
    // Everything the row loops read, in locals: the stores behind `emit` go
    // through a raw pointer, which the compiler must otherwise assume may
    // change the matrix's own array headers between rows.  (And the loops
    // spelled out: handing them their row body as a closure costs 10–25 % of
    // a product.)
    let (nc, ptr, idx, vals) = (m.n_cols(), m.row_ptr(), m.col_idx(), m.values());
    let entries = |row: usize| {
        let (start, end) = (ptr[row], ptr[row + 1]);
        (&idx[start..end], &vals[start..end])
    };
    if TA::PRECISION != Precision::Fp16 {
        if cols == 1 {
            // Every single-vector product: worth a loop with no column in it
            // (measured 7–17 % on an L2-resident HPCG 16³).
            let x = &xs[..nc];
            for row in rows {
                let (idx, vals) = entries(row);
                emit(row, 0, row_acc(idx, vals, x, || None));
            }
            return;
        }
        let x: [&[A]; PANEL_LANES] = std::array::from_fn(|c| if c < cols { &xs[c * nc..(c + 1) * nc] } else { &[] });
        for row in rows {
            let (idx, vals) = entries(row);
            for (c, x) in x.iter().enumerate().take(cols) {
                emit(row, c, row_acc(idx, vals, x, || None));
            }
        }
        return;
    }
    for c in 0..cols {
        let x = &xs[c * nc..(c + 1) * nc];
        for block in (rows.start..rows.end).step_by(ROW_BLOCK) {
            let rows = block..rows.end.min(block + ROW_BLOCK);
            let all = ptr[rows.start]..ptr[rows.end];
            if all.len() <= window.len() {
                let (base, mut values) = (all.start, Widened::new(vals, &mut window[..all.len()]));
                let block = values.get(all);
                for row in rows {
                    let (idx, vals) = entries(row);
                    let at = ptr[row] - base;
                    emit(row, c, row_acc(idx, vals, x, || Some(&block[at..at + vals.len()])));
                }
            } else {
                let mut values = Widened::new(vals, window);
                for row in rows {
                    let (idx, vals) = entries(row);
                    let seg = ptr[row]..ptr[row + 1];
                    emit(row, c, row_acc(idx, vals, x, || (seg.len() <= VALUE_WINDOW).then(|| values.get(seg))));
                }
            }
        }
    }
}

/// Rows `rows` of one lane group through the panel kernel: the SIMD backend's
/// when it accepts the group (it then finishes its rows into `sink`), the
/// scalar [`panel_row_tree`] with `emit` otherwise.  Like the single-vector
/// `row_acc`, acceptance depends only on global properties (backend, vector
/// length), so every task makes the same choice.
///
/// # Safety
/// `sink` must hold rows `rows` of its columns, with no other thread touching
/// those rows during the call.
unsafe fn panel_rows<TA: Scalar, TV: Scalar>(
    m: &CsrMatrix<TA>,
    xt: &[[TV::Accum; PANEL_LANES]],
    rows: Range<usize>,
    sink: &PanelSink<'_, TV>,
    mut emit: impl FnMut(usize, usize, TV::Accum),
) {
    // SAFETY: the arrays are those of a `CsrMatrix`, whose constructor bounds
    // every column index by `n_cols == xt.len()`; the sink is the caller's
    // contract.
    if unsafe { f3r_simd::try_spmm_panel(m.row_ptr(), m.col_idx(), m.values(), xt, rows.clone(), sink) } {
        return;
    }
    for row in rows {
        let (idx, vals) = m.row_entries(row);
        let acc = panel_row_tree(idx, vals, xt);
        for (c, &lane) in acc.iter().enumerate().take(sink.cols) {
            emit(row, c, lane);
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

/// SELL rows `rows` against the `k` columns `xs` of one lane group (in the
/// accumulation precision), each accumulator handed to
/// `emit(row, column, acc)`.
///
/// When the SIMD backend is active and the chunk height is a multiple of
/// eight, rows are processed in *globally aligned* groups of eight (rows
/// `[8g, 8g + 8)`, all inside one chunk by the alignment): the column lanes
/// of the whole group load as one vector per lane position, so the
/// column-major SELL layout streams contiguously instead of gathering, and
/// the group's lane window is fetched **once** and swept against every column
/// before moving on.  A task whose boundary cuts through a group computes the
/// **full** group and emits only its own rows — the few boundary rows are
/// computed twice (cheap, read-only) so every row's accumulator is identical
/// no matter which task computes it.  The trailing partial group (when
/// `n_rows % 8 != 0`) and every row of a declined group fall back to the
/// scalar [`sell_row`].  Acceptance (`try_sell_group8` returning `Some`)
/// depends only on the latched backend and the column length — both identical
/// across tasks and across a panel's columns — so the choice is per-row
/// deterministic.
#[inline(always)]
fn sell_rows<TA: Scalar, A: FromScalar>(
    a: &SellMatrix<TA>,
    xs: &[A],
    k: usize,
    rows: Range<usize>,
    mut emit: impl FnMut(usize, usize, A),
) {
    let nc = a.n_cols();
    let end = rows.end;
    let grouped = a.chunk_size().is_multiple_of(8)
        && nc <= f3r_simd::MAX_GATHER_LEN
        && f3r_simd::kernel_backend().is_simd();
    let mut row = rows.start;
    while row < end {
        let g0 = row & !7;
        if grouped && g0 + 8 <= a.n_rows() {
            let (cols, vals, stride, width) = a.row_lanes(g0);
            let group = |c: usize| {
                let x = &xs[c * nc..(c + 1) * nc];
                // SAFETY: column indices are bounded by n_cols (SellMatrix
                // construction; padding lanes store the row's own index) and
                // `x` has n_cols elements.  The lane window is in bounds:
                // row_lanes(g0) slices run to the end of the chunk, whose
                // height is a multiple of 8 and whose lane offset g0 % chunk
                // is too, so `(width - 1) * stride + 8 <= slice length`.
                unsafe { f3r_simd::try_sell_group8(cols, vals, stride, width, x) }
            };
            if let Some(first) = group(0) {
                let hi = end.min(g0 + 8);
                for c in 0..k {
                    let accs = if c == 0 {
                        first
                    } else {
                        group(c).expect("SELL group acceptance is uniform across panel columns")
                    };
                    for r in row..hi {
                        emit(r, c, accs[r - g0]);
                    }
                }
                row = hi;
                continue;
            }
        }
        for c in 0..k {
            emit(row, c, sell_row(a, row, &xs[c * nc..(c + 1) * nc]));
        }
        row += 1;
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

    /// Tridiagonal matrix whose row amplitudes sweep `1e-2 .. 1e2`: scales
    /// that matter, values every storage precision holds.
    fn ranged_tridiag(n: usize) -> CsrMatrix<f64> {
        let a = tridiag(n);
        let d: Vec<f64> = (0..n)
            .map(|i| 10f64.powf(-2.0 + 4.0 * i as f64 / (n - 1) as f64))
            .collect();
        a.scale_rows_cols(&d, &vec![1.0; n])
    }

    /// Column-major panel of `k` deterministic pseudo-random columns.
    fn panel<T: Scalar>(n: usize, k: usize, seed: f64) -> Vec<T> {
        (0..n * k)
            .map(|i| T::from_f64(((i as f64) * 0.731 + seed).sin()))
            .collect()
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Product,
        Residual,
        Dot2,
    }
    const OPS: [Op; 3] = [Op::Product, Op::Residual, Op::Dot2];

    /// One product through the driver; the dots are empty unless `op` is
    /// [`Op::Dot2`], whose `u` is `bs`.
    fn run<TA: Scalar, TV: Scalar>(
        a: Rows<'_, TA>,
        op: Op,
        xs: &[TV],
        bs: &[TV],
        k: usize,
        d: Dispatch,
    ) -> (Vec<TV>, Vec<(f64, f64)>) {
        let mut out = vec![TV::zero(); bs.len()];
        let mut dots = vec![(0.0, 0.0); if matches!(op, Op::Dot2) { k } else { 0 }];
        let op = match op {
            Op::Product => PanelOp::Product,
            Op::Residual => PanelOp::Residual(bs),
            Op::Dot2 => PanelOp::Dot2 { u: bs, dots: &mut dots },
        };
        spmm(a, xs, op, &mut out, k, d);
        (out, dots)
    }

    /// `(uᵀy, yᵀy)` taken after the fact, in `f64`.
    fn dots_after<TV: Scalar>(u: &[TV], y: &[TV]) -> (f64, f64) {
        let dot = |a: &[TV], b: &[TV]| a.iter().zip(b).map(|(p, q)| p.to_f64() * q.to_f64()).sum::<f64>();
        (dot(u, y), dot(y, y))
    }

    fn close(got: (f64, f64), want: (f64, f64), rel: f64) -> bool {
        let tol = rel * want.1.max(1.0);
        (got.0 - want.0).abs() <= tol && (got.1 - want.1).abs() <= tol
    }

    /// The four storages of `a` with values in `TA` (SELL chunk `chunk`).
    fn with_storages<TA: Scalar>(a: &CsrMatrix<f64>, chunk: usize, mut f: impl FnMut(&str, Rows<'_, TA>)) {
        let csr: CsrMatrix<TA> = a.to_precision();
        f("csr", (&csr).into());
        f("scaled csr", (&StoredMatrix::<TA>::row_scaled(a, None)).into());
        f("sell", (&SellMatrix::from_csr(&csr, chunk)).into());
        f("scaled sell", (&StoredMatrix::<TA>::row_scaled(a, Some(chunk))).into());
    }

    #[test]
    fn columns_are_bitwise_the_one_column_products() {
        // Every storage × epilogue × width, inline and on the pool; chunk 8
        // engages the SELL group of eight where the backend allows, chunk 4
        // the scalar row, and n = 70 leaves a partial trailing group.
        fn check<TA: Scalar, TV: Scalar>() {
            for (n, chunk) in [(1usize, 8usize), (33, 4), (70, 8)] {
                with_storages::<TA>(&tridiag(n), chunk, |storage, a| {
                    for op in OPS {
                        for k in [0usize, 1, 3, 8, 9] {
                            let label = format!("{storage} n {n} {op:?} k {k}");
                            let (xs, bs) = (panel::<TV>(n, k, 0.3), panel::<TV>(n, k, 2.9));
                            let (ys, dots) = run(a, op, &xs, &bs, k, Dispatch::Seq);
                            let (yp, dots_par) = run(a, op, &xs, &bs, k, Dispatch::Par);
                            assert_eq!(ys, yp, "{label} seq/par");
                            for c in 0..k {
                                let col = c * n..(c + 1) * n;
                                let (y1, d1) = run(a, op, &xs[col.clone()], &bs[col.clone()], 1, Dispatch::Seq);
                                assert_eq!(&ys[col], &y1[..], "{label} col {c}");
                                if let Some(&d1) = d1.first() {
                                    assert_eq!(dots[c], d1, "{label} col {c} dots");
                                    assert!(close(dots_par[c], d1, 1e-12), "{label} col {c} pool dots");
                                }
                            }
                        }
                    }
                });
            }
        }
        check::<f64, f64>();
        check::<f32, f32>();
        check::<f16, f32>();
        check::<f16, f16>();
    }

    #[test]
    fn fused_epilogues_match_the_product_and_separate_ops() {
        // Residual and dots against the plain product followed by the
        // subtraction / the dots — CSR and SELL rows, plain and scaled.
        fn check<TA: Scalar, TV: Scalar>(rel: f64) {
            let n = 300;
            with_storages::<TA>(&ranged_tridiag(n), 32, |storage, a| {
                let (x, b) = (panel::<TV>(n, 1, 0.4), panel::<TV>(n, 1, 1.7));
                let (y, _) = run(a, Op::Product, &x, &b, 1, Dispatch::Auto);
                let (r, _) = run(a, Op::Residual, &x, &b, 1, Dispatch::Auto);
                for i in 0..n {
                    let want = b[i].to_f64() - y[i].to_f64();
                    // The fused form rounds once where the separate ops round twice.
                    let tol = 2.0 * TV::epsilon() * (b[i].to_f64().abs() + y[i].to_f64().abs());
                    assert!((r[i].to_f64() - want).abs() <= tol, "{storage} residual row {i}");
                }
                let (y2, dots) = run(a, Op::Dot2, &x, &b, 1, Dispatch::Auto);
                assert_eq!(y, y2, "{storage}: the dots leave the product alone");
                assert!(close(dots[0], dots_after(&b, &y), rel), "{storage} dots {:?}", dots[0]);
            });
        }
        check::<f64, f64>(1e-12);
        check::<f32, f32>(1e-5);
        check::<f16, f32>(1e-5);
        check::<f16, f16>(1e-5);
    }

    #[test]
    fn empty_rows_and_mixed_precision() {
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
        let (ys, _) = run((&a).into(), Op::Product, &xs, &xs, k, Dispatch::Auto);
        for c in 0..k {
            let col = c * n..(c + 1) * n;
            let (y1, _) = run((&a).into(), Op::Product, &xs[col.clone()], &xs[col], 1, Dispatch::Seq);
            for row in 0..n {
                assert_eq!(ys[c * n + row], y1[row], "col {c} row {row}");
                if row % 3 == 0 {
                    assert_eq!(ys[c * n + row], 0.0, "empty row {row}");
                }
            }
        }
    }

    #[test]
    fn pool_matches_inline_above_the_threshold() {
        // One column long enough for `Auto` to deal rows to the pool, and a
        // panel whose rows alone are not (n · k crosses the work threshold).
        for (n, k) in [(PAR_ROW_THRESHOLD + 123, 1), (PAR_ROW_THRESHOLD / 2 + 77, 3)] {
            with_storages::<f32>(&tridiag(n), 32, |storage, a| {
                let (xs, bs) = (panel::<f32>(n, k, 0.1), panel::<f32>(n, k, 0.7));
                for op in OPS {
                    let (seq, dots) = run(a, op, &xs, &bs, k, Dispatch::Seq);
                    for d in [Dispatch::Auto, Dispatch::Par] {
                        let (got, got_dots) = run(a, op, &xs, &bs, k, d);
                        assert_eq!(got, seq, "{storage} {op:?} k {k} {d:?}");
                        for (g, w) in got_dots.iter().zip(&dots) {
                            assert!(close(*g, *w, 1e-12), "{storage} k {k} {d:?} dots {g:?} vs {w:?}");
                        }
                    }
                }
            });
        }
    }

    #[test]
    #[should_panic(expected = "storage must be no wider than the working precision")]
    fn storage_wider_than_the_working_precision_is_refused() {
        let a = tridiag(4);
        let mut ys = vec![0.0f32; 4];
        spmm(&a, &[0.0f32; 4], PanelOp::Product, &mut ys, 1, Dispatch::Auto);
    }

    #[test]
    #[should_panic(expected = "spmm: input panel length mismatch")]
    fn input_length_mismatch_panics() {
        let a = tridiag(4);
        let xs = vec![0.0f64; 7]; // not 4 * k for k = 2
        let mut ys = vec![0.0f64; 8];
        spmm(&a, &xs, PanelOp::Product, &mut ys, 2, Dispatch::Auto);
    }

    #[test]
    #[should_panic(expected = "spmm: output panel length mismatch")]
    fn output_length_mismatch_panics() {
        let sell = SellMatrix::from_csr(&tridiag(4), 8);
        let mut ys = vec![0.0f64; 3];
        spmm(&sell, &[0.0f64; 4], PanelOp::Product, &mut ys, 1, Dispatch::Auto);
    }

    #[test]
    #[should_panic(expected = "spmm: right-hand-side panel length mismatch")]
    fn residual_length_mismatch_panics() {
        let a = tridiag(4);
        let mut rs = vec![0.0f64; 8];
        spmm(&a, &[0.0f64; 8], PanelOp::Residual(&[0.0; 4]), &mut rs, 2, Dispatch::Auto);
    }

    #[test]
    #[should_panic(expected = "spmm: dot panel length mismatch")]
    fn dot_panel_length_mismatch_panics() {
        let a = StoredMatrix::<f32>::row_scaled(&tridiag(4), None);
        let (mut ys, mut dots) = (vec![0.0f64; 4], [(0.0, 0.0)]);
        spmm(&a, &[0.0f64; 4], PanelOp::Dot2 { u: &[0.0; 3], dots: &mut dots }, &mut ys, 1, Dispatch::Auto);
    }

    #[test]
    #[should_panic(expected = "spmm: one dot pair per column")]
    fn dot_count_mismatch_panics() {
        let a = tridiag(4);
        let (mut ys, mut dots) = (vec![0.0f64; 8], [(0.0, 0.0)]);
        spmm(&a, &[0.0f64; 8], PanelOp::Dot2 { u: &[0.0; 8], dots: &mut dots }, &mut ys, 2, Dispatch::Auto);
    }
}
