//! Parity suite for the panel (eight-column) kernels of the batched path.
//!
//! The panel contract (`docs/ARCHITECTURE.md`, "The panel contract"): a panel
//! kernel regroups work, it never changes what a column computes.  This suite
//! pins, from the public surface and on whatever kernel backend and pool
//! shape the process latched, that every column is **bitwise** what the
//! single-vector form gives for that column alone:
//!
//! * the sparse product `spmm` × {CSR, scaled CSR, SELL, scaled SELL} ×
//!   {product, residual, product with dots} × the six storage/vector
//!   precision pairs with storage no wider than the vectors × k ∈ {0, 1, 3, 8, 9, 16}, on rows of 0, 1, 3, 4, 7, 8,
//!   9, 15, 16, 17, 24, 27 and 33 entries (both summation trees, every tail
//!   length) and a last row that touches column n − 1; inline == pool;
//! * the one-column product itself, whose fp16 operands cross the product
//!   boundary in bulk (vectors widened once per product, matrix values and
//!   results a block of rows at a time), against the column loop spelled out
//!   here one row and one conversion at a time ([`per_row`]);
//! * the panel application of IC(0), ILU(0) and their block-Jacobi wrappers
//!   in fp16/fp32/fp64 on HPCG, HPGMP and a ragged banded pattern, through
//!   the trait and through both branches of `AnyPrecond::apply_panel_to`;
//! * `RichardsonLevel::apply_panel` against a twin level driven column by
//!   column: outputs, weights and invocation counter, with panels straddling
//!   update invocations and with an update on every invocation.
//!
//! The suite re-runs itself under `F3R_KERNEL_BACKEND=scalar` in a child
//! process (the backend latches once per process), the way
//! `tests/precond_parity.rs` does; CI also runs it with a two-thread pool.

use std::process::Command;
use std::sync::Arc;

use f3r::core::inner::InnerSolver;
use f3r::core::precond_any::AnyPrecond;
use f3r::core::richardson::{RichardsonLevel, WeightStrategy};
use f3r::precision::{KernelCounters, Precision, Scalar};
use f3r::precond::{build_preconditioner, PrecondKind};
use f3r::prelude::{MatrixStorage, ProblemMatrix};
use f3r::sparse::gen::laplacian::poisson2d_5pt;
use f3r::sparse::gen::{hpcg_matrix, hpgmp_matrix};
use f3r::sparse::scaling::jacobi_scale;
use f3r::sparse::spmm::{spmm, Dispatch, PanelOp, Rows};
use f3r::sparse::{CooMatrix, CsrMatrix, SellMatrix, StoredMatrix};
use half::f16;

const WIDTHS: [usize; 6] = [1, 2, 7, 8, 9, 16];
/// Panel widths of the sparse-product table: none, one, a short group, a
/// full group, a full group and a single, two full groups.
const SPMM_WIDTHS: [usize; 6] = [0, 1, 3, 8, 9, 16];

fn bits<T: Scalar>(z: &[T]) -> Vec<u64> {
    z.iter().map(|v| v.to_f64().to_bits()).collect()
}

/// Entries in (−0.5, 0.5) from integer arithmetic only.
fn panel<T: Scalar>(n: usize, k: usize, salt: usize) -> Vec<T> {
    (0..n * k)
        .map(|i| T::from_f64((((i + salt) * 7919) % 1013) as f64 / 1013.0 - 0.5))
        .collect()
}

/// Rows cycling through every interesting entry count — none, the four-chain
/// tree with and without a remainder (1, 3, 4, 7), one and two SIMD blocks
/// with every tail (8, 9, 15, 16, 17, 24, 27, 33) — with values whose sums
/// depend on the order they are added in; the last row reaches column n − 1.
fn ragged_rows() -> CsrMatrix<f64> {
    let lens = [0usize, 1, 3, 4, 7, 8, 9, 15, 16, 17, 24, 27, 33];
    let n = 5 * lens.len() + 2;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        let len = if i + 1 == n { 27 } else { lens[i % lens.len()] };
        // Spread over the columns, ending at n − 1 on the last row.
        let first = if i + 1 == n { n - len } else { (i * 5) % (n - len + 1) };
        for (t, j) in (first..first + len).enumerate() {
            let v = (1.0 + ((i * 31 + t * 17) % 29) as f64) / 7.0 * if t % 3 == 1 { -1.0 } else { 1.0 };
            coo.push(i, j, v * 10f64.powi((t % 5) as i32 - 2));
        }
    }
    coo.to_csr()
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Product,
    Residual,
    Dot2,
}

/// One product through the driver: the output panel's bits and, for
/// [`Op::Dot2`], the dots.
fn run_spmm<TA: Scalar, TV: Scalar>(
    a: Rows<'_, TA>,
    op: Op,
    xs: &[TV],
    bs: &[TV],
    n: usize,
    k: usize,
    dispatch: Dispatch,
) -> (Vec<u64>, Vec<(f64, f64)>) {
    let mut out = vec![TV::zero(); n * k];
    let mut dots = vec![(0.0, 0.0); if matches!(op, Op::Dot2) { k } else { 0 }];
    let op = match op {
        Op::Product => PanelOp::Product,
        Op::Residual => PanelOp::Residual(bs),
        Op::Dot2 => PanelOp::Dot2 { u: bs, dots: &mut dots },
    };
    spmm(a, xs, op, &mut out, k, dispatch);
    (bits(&out), dots)
}

/// Column `c` of every product is bitwise the one-column inline product of
/// column `c`, for every storage, epilogue, width and dispatch; the dots are
/// bitwise too when inline, and equal up to the order of the per-task
/// partials on the pool.
fn spmm_case<TA: Scalar, TV: Scalar>(a64: &CsrMatrix<f64>, chunk: usize) {
    let n = a64.n_rows();
    let csr: CsrMatrix<TA> = a64.to_precision();
    let scaled = StoredMatrix::<TA>::row_scaled(a64, None);
    let sell = SellMatrix::from_csr(&csr, chunk);
    let scaled_sell = StoredMatrix::<TA>::row_scaled(a64, Some(chunk));
    let storages: [(&str, Rows<'_, TA>); 4] = [
        ("csr", (&csr).into()),
        ("scaled csr", (&scaled).into()),
        ("sell", (&sell).into()),
        ("scaled sell", (&scaled_sell).into()),
    ];
    for (storage, a) in storages {
        for op in [Op::Product, Op::Residual, Op::Dot2] {
            for k in SPMM_WIDTHS {
                let label = format!("{storage} {} x {}, {op:?}, k = {k}", TA::name(), TV::name());
                let xs = panel::<TV>(n, k, 3);
                let bs = panel::<TV>(n, k, 11);
                let (mut want, mut want_dots) = (vec![], vec![]);
                for c in 0..k {
                    let col = c * n..(c + 1) * n;
                    let (y, d) = run_spmm(a, op, &xs[col.clone()], &bs[col], n, 1, Dispatch::Seq);
                    want.extend(y);
                    want_dots.extend(d);
                }
                for dispatch in [Dispatch::Seq, Dispatch::Par, Dispatch::Auto] {
                    let (got, dots) = run_spmm(a, op, &xs, &bs, n, k, dispatch);
                    assert_eq!(got, want, "{label}, {dispatch:?}");
                    assert_eq!(dots.len(), want_dots.len(), "{label}, {dispatch:?}");
                    for (c, (got, want)) in dots.iter().zip(&want_dots).enumerate() {
                        if dispatch == Dispatch::Seq {
                            assert_eq!(
                                (got.0.to_bits(), got.1.to_bits()),
                                (want.0.to_bits(), want.1.to_bits()),
                                "{label}, inline dots of column {c}"
                            );
                        }
                        // `yy` bounds both sums' terms: |u| < 1/2 entrywise.
                        let tol = 1e-12 * want.1.max(1.0) * n as f64;
                        assert!(
                            (got.0 - want.0).abs() <= tol && (got.1 - want.1).abs() <= tol,
                            "{label}, {dispatch:?} dots of column {c}: {got:?} vs {want:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn panel_spmm_is_bitwise_the_single_vector_kernels() {
    // The ragged pattern (SELL chunk 8: the group-of-eight kernel, and a
    // partial trailing group) on the six precision pairs a product is
    // compiled for (storage no wider than the vectors) …
    let ragged = ragged_rows();
    spmm_case::<f16, f16>(&ragged, 8);
    spmm_case::<f16, f32>(&ragged, 8);
    spmm_case::<f16, f64>(&ragged, 8);
    spmm_case::<f32, f32>(&ragged, 8);
    spmm_case::<f32, f64>(&ragged, 8);
    spmm_case::<f64, f64>(&ragged, 8);
    // … and HPCG 12³: 1 728 rows, so panels from k = 10 up cross the work
    // threshold (`Auto` deals rows to the pool) and a full lane group splits
    // into several tasks under `Par`.
    let hpcg = jacobi_scale(&hpcg_matrix(12, 12, 12));
    spmm_case::<f16, f16>(&hpcg, 32);
    spmm_case::<f16, f32>(&hpcg, 32);
    spmm_case::<f32, f32>(&hpcg, 32);
    spmm_case::<f64, f64>(&hpcg, 32);
}

/// The column loop as it stood before fp16 operands crossed the product
/// boundary in bulk, spelled out on the public surface: one row at a time,
/// every fp16 vector entry and matrix value converted on its own where it is
/// used, every result finished and rounded on its own.  What the driver does
/// in bulk is exact widening and the same single rounding, so every
/// one-column product must equal this bit for bit.
mod per_row {
    use super::Op;
    use f3r::precision::{FromScalar, Scalar};
    use f3r::sparse::spmm::Rows;
    use f3r::sparse::{CsrMatrix, SellMatrix};

    enum Layout<'a, TA> {
        Csr(&'a CsrMatrix<TA>),
        Sell(&'a SellMatrix<TA>),
    }

    /// One storage of the matrix: as the driver takes it, and taken apart —
    /// its layout and, when row-scaled, its scales.
    pub struct Stored<'a, TA: Scalar> {
        pub name: &'static str,
        pub rows: Rows<'a, TA>,
        layout: Layout<'a, TA>,
        pub scales: Option<&'a [f64]>,
    }

    impl<'a, TA: Scalar> Stored<'a, TA> {
        pub fn csr(name: &'static str, rows: Rows<'a, TA>, a: &'a CsrMatrix<TA>, scales: Option<&'a [f64]>) -> Self {
            Self { name, rows, layout: Layout::Csr(a), scales }
        }

        pub fn sell(name: &'static str, rows: Rows<'a, TA>, a: &'a SellMatrix<TA>, scales: Option<&'a [f64]>) -> Self {
            Self { name, rows, layout: Layout::Sell(a), scales }
        }

        /// The row accumulators of the unscaled product with `x`.
        pub fn accs<TV: Scalar>(&self, x: &[TV]) -> Vec<TV::Accum> {
            match self.layout {
                Layout::Csr(a) => csr_accs(a, x),
                Layout::Sell(a) => sell_accs(a, x),
            }
        }
    }

    fn widen<TV: Scalar>(x: &[TV]) -> Vec<TV::Accum> {
        x.iter().map(|v| v.widen()).collect()
    }

    /// Row accumulators of a CSR matrix: the SIMD row kernel where the
    /// backend takes the row (it only ever saw widened entries), the
    /// four-chain tree otherwise.
    fn csr_accs<TA: Scalar, TV: Scalar>(a: &CsrMatrix<TA>, x: &[TV]) -> Vec<TV::Accum> {
        let x_wide = widen(x);
        (0..a.n_rows())
            .map(|row| {
                let (cols, vals) = a.row_entries(row);
                // SAFETY: the column indices of a `CsrMatrix` are below its
                // column count, which is `x_wide.len()`.
                if let Some(acc) = unsafe { f3r_simd::try_spmv_row(cols, vals, &x_wide) } {
                    return acc;
                }
                let term = |i: usize| <TV::Accum>::from_scalar(vals[i]) * x[cols[i] as usize].widen();
                let mut acc = [<TV::Accum as Scalar>::zero(); 4];
                let blocks = cols.len() / 4 * 4;
                for i in 0..blocks {
                    acc[i % 4] += term(i);
                }
                for i in blocks..cols.len() {
                    acc[0] += term(i);
                }
                (acc[0] + acc[1]) + (acc[2] + acc[3])
            })
            .collect()
    }

    /// Row accumulators of a SELL matrix: aligned groups of eight rows through
    /// the SIMD group kernel where the backend takes them, the two-chain row
    /// otherwise (the trailing partial group always).
    fn sell_accs<TA: Scalar, TV: Scalar>(a: &SellMatrix<TA>, x: &[TV]) -> Vec<TV::Accum> {
        let x_wide = widen(x);
        let n = a.n_rows();
        let mut accs = Vec::with_capacity(n);
        while accs.len() < n {
            let row = accs.len();
            let (cols, vals, stride, width) = a.row_lanes(row);
            if a.chunk_size().is_multiple_of(8) && row.is_multiple_of(8) && row + 8 <= n {
                // SAFETY: a full group of eight rows inside one chunk whose
                // height is a multiple of eight, so the lane window is in
                // bounds; SELL column indices (padding included) are below
                // the column count, which is `x_wide.len()`.
                if let Some(group) = unsafe { f3r_simd::try_sell_group8(cols, vals, stride, width, &x_wide) } {
                    accs.extend(group);
                    continue;
                }
            }
            let term = |k: usize| <TV::Accum>::from_scalar(vals[k * stride]) * x[cols[k * stride] as usize].widen();
            let mut acc = [<TV::Accum as Scalar>::zero(); 2];
            let pairs = width / 2 * 2;
            for k in 0..pairs {
                acc[k % 2] += term(k);
            }
            if pairs < width {
                acc[0] += term(pairs);
            }
            accs.push(acc[0] + acc[1]);
        }
        accs
    }

    /// Finish the accumulators row by row: plain storage in `TV::Accum` with
    /// `narrow`, scaled storage in `f64` with `from_f64`; the dots on the
    /// stored values, in row order, in `f64`.
    pub fn finish<TV: Scalar>(accs: &[TV::Accum], scales: Option<&[f64]>, op: Op, b: &[TV]) -> (Vec<TV>, (f64, f64)) {
        let (mut uy, mut yy) = (0.0f64, 0.0f64);
        let y = accs
            .iter()
            .enumerate()
            .map(|(row, &acc)| match scales {
                None => match op {
                    Op::Product => TV::narrow(acc),
                    Op::Residual => TV::narrow(b[row].widen() - acc),
                    Op::Dot2 => {
                        let y = TV::narrow(acc);
                        let w = y.widen();
                        uy += (b[row].widen() * w).to_f64();
                        yy += (w * w).to_f64();
                        y
                    }
                },
                Some(scales) => {
                    let lifted = acc.to_f64() * scales[row];
                    match op {
                        Op::Product => TV::from_f64(lifted),
                        Op::Residual => TV::from_f64(b[row].to_f64() - lifted),
                        Op::Dot2 => {
                            let y = TV::from_f64(lifted);
                            let w = y.to_f64();
                            uy += b[row].to_f64() * w;
                            yy += w * w;
                            y
                        }
                    }
                }
            })
            .collect();
        (y, (uy, yy))
    }
}

/// Rows that exercise every way a row's fp16 values reach the row body, with
/// 9 001 rows (not a multiple of 16, and enough for two pool tasks that meet
/// inside a block and inside a SELL group):
///
/// * the entry counts of [`ragged_rows`] in turn — short and long rows mixed,
///   too many entries per block of 256 rows for one bulk conversion, so the
///   short ones go through the moving window, which blocks start in, end in
///   and straddle;
/// * rows 1 024 … 1 800: at most seven entries each, whole blocks widened in
///   one conversion;
/// * rows 2 300 … 2 600: five entries, every tenth row forty — a block that
///   still fits one conversion, with rows for the SIMD kernel inside it;
/// * row 700: 2 100 entries, more than the value window holds;
///
/// and among the values two that fp16 storage turns into an infinity and a
/// subnormal.
fn ragged_blocks() -> CsrMatrix<f64> {
    let cycle = [0usize, 1, 3, 4, 7, 8, 9, 15, 16, 17, 24, 27, 33];
    let n = 9001;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        let len = match i {
            700 => 2100,
            1024..=1800 => [0, 1, 2, 5, 7, 3][i % 6],
            2300..=2600 => [5, 40][usize::from(i % 10 == 0)],
            _ => cycle[i % cycle.len()],
        };
        let first = (i * 5) % (n - len + 1);
        for (t, j) in (first..first + len).enumerate() {
            let v = (1.0 + ((i * 31 + t * 17) % 29) as f64) / 7.0 * if t % 3 == 1 { -1.0 } else { 1.0 };
            let v = match (i % 97, t) {
                (5, 0) => 1.0e5,  // beyond the fp16 range
                (11, 1) => 3.0e-6, // an fp16 subnormal
                _ => v * 10f64.powi((t % 5) as i32 - 2),
            };
            coo.push(i, j, v);
        }
    }
    coo.to_csr()
}

/// Every one-column product through the driver — and every column of a
/// nine-column panel, whose last column is a lane group of one — is bitwise
/// the per-row column loop, inline and on the pool; the dots too when inline
/// (on the pool they are sums of per-task partials).
fn per_row_case<TA: Scalar, TV: Scalar>(name: &str, a64: &CsrMatrix<f64>, chunk: usize, specials: bool) {
    let n = a64.n_rows();
    let csr: CsrMatrix<TA> = a64.to_precision();
    let scaled = StoredMatrix::<TA>::row_scaled(a64, None);
    let sell = SellMatrix::from_csr(&csr, chunk);
    let scaled_sell = StoredMatrix::<TA>::row_scaled(a64, Some(chunk));
    let k = 9;
    let (mut xs, mut bs) = (panel::<TV>(n, k, 3), panel::<TV>(n, k, 11));
    if specials {
        // NaN, infinities, fp16 subnormals, the largest finite fp16 values,
        // and values that fp16 vectors turn into zero and infinity.
        let values = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 6e-8, -3e-7, 65504.0, -65504.0, 1e-40, 7e4];
        for (i, v) in values.into_iter().enumerate() {
            xs[(i * 3701 + 5) % (n * k)] = TV::from_f64(v);
            bs[(i * 5303 + 9) % (n * k)] = TV::from_f64(v);
        }
    }
    let storages = [
        per_row::Stored::csr("csr", (&csr).into(), &csr, None),
        per_row::Stored::csr("scaled csr", (&scaled).into(), scaled.csr().unwrap(), scaled.row_scales()),
        per_row::Stored::sell("sell", (&sell).into(), &sell, None),
        per_row::Stored::sell("scaled sell", (&scaled_sell).into(), scaled_sell.sell().unwrap(), scaled_sell.row_scales()),
    ];
    for stored in &storages {
        let accs: Vec<_> = xs.chunks_exact(n).map(|x| stored.accs(x)).collect();
        let a = stored.rows;
        for op in [Op::Product, Op::Residual, Op::Dot2] {
            let label = format!("{name}, {} {} x {}, {op:?}", stored.name, TA::name(), TV::name());
            let (mut want, mut want_dots) = (vec![], vec![]);
            for (acc, b) in accs.iter().zip(bs.chunks_exact(n)) {
                let (y, dots) = per_row::finish(acc, stored.scales, op, b);
                want.extend(bits(&y));
                want_dots.push(dots);
            }
            for dispatch in [Dispatch::Seq, Dispatch::Par] {
                // One column alone, then the panel.
                for width in [1, k] {
                    let label = format!("{label}, k = {width}, {dispatch:?}");
                    let (got, dots) = run_spmm(a, op, &xs[..n * width], &bs[..n * width], n, width, dispatch);
                    assert_eq!(got, want[..n * width], "{label}");
                    if !matches!(op, Op::Dot2) {
                        continue;
                    }
                    for (c, (got, want)) in dots.iter().zip(&want_dots).enumerate() {
                        if dispatch == Dispatch::Seq {
                            let bits = |d: &(f64, f64)| (d.0.to_bits(), d.1.to_bits());
                            assert_eq!(bits(got), bits(want), "{label}, dots of column {c}");
                        } else if want.0.is_finite() && want.1.is_finite() {
                            let tol = 1e-12 * want.1.max(1.0) * n as f64;
                            assert!(
                                (got.0 - want.0).abs() <= tol && (got.1 - want.1).abs() <= tol,
                                "{label}, dots of column {c}: {got:?} vs {want:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn one_column_products_are_bitwise_the_per_row_column_loop() {
    fn pairs(name: &str, a: &CsrMatrix<f64>, chunk: usize, specials: bool) {
        per_row_case::<f16, f16>(name, a, chunk, specials);
        per_row_case::<f16, f32>(name, a, chunk, specials);
        per_row_case::<f32, f32>(name, a, chunk, specials);
    }
    let ragged = ragged_blocks();
    pairs("ragged", &ragged, 8, false);
    pairs("ragged with specials", &ragged, 32, true);
    pairs("hpcg12", &jacobi_scale(&hpcg_matrix(12, 12, 12)), 32, false);
    pairs("poisson40", &jacobi_scale(&poisson2d_5pt(40, 40)), 8, true);
}

/// A diagonally dominant banded matrix whose rows cycle through 0 … 600
/// entries left of the diagonal (more than a widening window of the sweeps).
/// SPD when `symmetric`.
fn ragged_band(symmetric: bool) -> CsrMatrix<f64> {
    let lens = [0, 1, 7, 8, 9, 15, 16, 17, 33, 511, 3, 512, 0, 513, 2, 600, 5];
    let n = 1400;
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

fn precond_case<T: Scalar>(name: &str, a: &CsrMatrix<f64>, kind: PrecondKind) {
    let p = build_preconditioner::<T>(a, &kind);
    let n = a.n_rows();
    for k in WIDTHS {
        let r = panel::<T>(n, k, 5);
        let mut want = vec![T::zero(); n * k];
        for (rc, zc) in r.chunks_exact(n).zip(want.chunks_exact_mut(n)) {
            p.apply(rc, zc);
        }
        let mut got = vec![T::one(); n * k];
        p.apply_panel(&r, &mut got, k);
        assert_eq!(bits(&got), bits(&want), "{name} {} {}, k = {k}", kind.label(), T::name());
    }
}

#[test]
fn panel_preconditioners_are_bitwise_the_single_applications() {
    let spd = [
        ("hpcg12", jacobi_scale(&hpcg_matrix(12, 12, 12))),
        // 21 952 rows: block-Jacobi deals its blocks to the pool.
        ("hpcg28", jacobi_scale(&hpcg_matrix(28, 28, 28))),
        ("ragged", ragged_band(true)),
    ];
    let general = [
        ("hpgmp12", jacobi_scale(&hpgmp_matrix(12, 12, 12, 0.5))),
        ("ragged", ragged_band(false)),
    ];
    for (name, a) in &spd {
        for kind in [
            PrecondKind::Ic0 { alpha: 1.0 },
            PrecondKind::BlockJacobiIc0 { blocks: 8, alpha: 1.0 },
        ] {
            precond_case::<f16>(name, a, kind);
            precond_case::<f32>(name, a, kind);
            precond_case::<f64>(name, a, kind);
        }
    }
    for (name, a) in &general {
        for kind in [
            PrecondKind::Ilu0 { alpha: 1.0 },
            PrecondKind::BlockJacobiIlu0 { blocks: 8, alpha: 1.0 },
        ] {
            precond_case::<f16>(name, a, kind);
            precond_case::<f32>(name, a, kind);
            precond_case::<f64>(name, a, kind);
        }
    }
    // A preconditioner without panel sweeps takes the trait's column loop.
    precond_case::<f16>("hpcg12", &spd[0].1, PrecondKind::Jacobi);
}

#[test]
fn apply_panel_to_is_bitwise_apply_to_on_both_branches() {
    fn check<TV: Scalar>(m: &AnyPrecond, k: usize) {
        let n = m.dim();
        let counters = KernelCounters::new_shared();
        let mut r = panel::<TV>(n, k, 9);
        if k > 2 {
            // A zero column gives a zero column, without disturbing the rest.
            r[n..2 * n].fill(TV::zero());
        }
        let mut want = vec![TV::zero(); n * k];
        for (rc, zc) in r.chunks_exact(n).zip(want.chunks_exact_mut(n)) {
            m.apply_to(rc, zc, &counters);
        }
        let before = counters.snapshot();
        let mut got = vec![TV::one(); n * k];
        m.apply_panel_to(&r, &mut got, k, &counters);
        assert_eq!(bits(&got), bits(&want), "M in {}, {} vectors, k = {k}", m.storage_precision(), TV::name());
        // Table 3 counts stay per column; the factors are streamed once.
        let panel = counters.snapshot().since(&before);
        assert_eq!(panel.precond_applies, k as u64);
        assert!(k == 1 || panel.total_bytes() < before.total_bytes());
    }
    let a = jacobi_scale(&hpcg_matrix(10, 10, 10));
    let kind = PrecondKind::BlockJacobiIc0 { blocks: 4, alpha: 1.0 };
    for storage in Precision::all() {
        let m = AnyPrecond::build(&a, &kind, storage);
        for k in [1usize, 3, 8, 11] {
            check::<f16>(&m, k);
            check::<f32>(&m, k);
            check::<f64>(&m, k);
        }
    }
}

/// Drive `panels` through one level with `apply_panel` and through a twin
/// column by column; both must agree on every output, on the weights and on
/// the invocation counter after every panel.
fn richardson_case<T: Scalar>(storage: MatrixStorage, m_prec: Precision, strategy: WeightStrategy, panels: &[usize]) {
    let a = jacobi_scale(&hpcg_matrix(8, 8, 8));
    let matrix = Arc::new(ProblemMatrix::from_csr(a));
    let kind = PrecondKind::BlockJacobiIc0 { blocks: 2, alpha: 1.0 };
    let precond = Arc::new(AnyPrecond::for_matrix(&matrix, &kind, m_prec));
    let n = matrix.dim();
    let level = || {
        RichardsonLevel::<T>::new(
            Arc::clone(&matrix),
            storage,
            2,
            Arc::clone(&precond),
            strategy,
            4,
            KernelCounters::new_shared(),
        )
    };
    let (mut paneled, mut looped) = (level(), level());
    for (p, &k) in panels.iter().enumerate() {
        let v = panel::<T>(n, k, 13 * p + 1);
        let mut got = vec![T::one(); n * k];
        paneled.apply_panel(&v, &mut got, k);
        let mut want = vec![T::zero(); n * k];
        for (vc, zc) in v.chunks_exact(n).zip(want.chunks_exact_mut(n)) {
            looped.apply(vc, zc);
        }
        let label = format!("{} on {storage}, {strategy:?}, panel {p} (k = {k})", T::name());
        assert_eq!(bits(&got), bits(&want), "{label}");
        assert_eq!(paneled.weights(), looped.weights(), "{label}");
        assert_eq!(paneled.call_count(), looped.call_count(), "{label}");
    }
    assert_eq!(paneled.call_count(), panels.iter().sum::<usize>() as u64);
}

#[test]
fn richardson_panels_are_bitwise_the_column_loop() {
    // Invocations 0, 4, 8, … update: the panels below put an update column
    // first, in the middle, last, twice in one panel, and nowhere.
    let panels = [3usize, 3, 8, 1, 2, 9, 2];
    let adaptive = WeightStrategy::Adaptive { cycle: 4 };
    richardson_case::<f16>(MatrixStorage::Plain(Precision::Fp16), Precision::Fp16, adaptive, &panels);
    richardson_case::<f32>(MatrixStorage::Scaled(Precision::Fp16), Precision::Fp16, adaptive, &panels);
    richardson_case::<f64>(MatrixStorage::Plain(Precision::Fp64), Precision::Fp32, adaptive, &panels);
    // Every invocation updates.
    let every = WeightStrategy::Adaptive { cycle: 1 };
    richardson_case::<f16>(MatrixStorage::Plain(Precision::Fp16), Precision::Fp16, every, &panels);
    richardson_case::<f32>(MatrixStorage::Plain(Precision::Fp32), Precision::Fp32, every, &panels);
    // The paper's cycle, longer than any panel here, and a fixed weight.
    richardson_case::<f16>(
        MatrixStorage::Plain(Precision::Fp16),
        Precision::Fp16,
        WeightStrategy::default(),
        &panels,
    );
    richardson_case::<f16>(
        MatrixStorage::Plain(Precision::Fp16),
        Precision::Fp16,
        WeightStrategy::Fixed(0.9),
        &panels,
    );
}

const CHILD_ENV: &str = "F3R_PANEL_PARITY_CHILD";

#[test]
fn panel_parity_holds_under_the_scalar_backend() {
    if std::env::var_os(CHILD_ENV).is_some() {
        return; // the child runs the other tests, not itself again
    }
    let child = Command::new(std::env::current_exe().expect("path of this test binary"))
        .env(CHILD_ENV, "1")
        .env("F3R_KERNEL_BACKEND", "scalar")
        .output()
        .expect("re-running this suite under the scalar backend");
    assert!(
        child.status.success(),
        "the suite fails under the scalar backend:\n{}\n{}",
        String::from_utf8_lossy(&child.stdout),
        String::from_utf8_lossy(&child.stderr)
    );
}
