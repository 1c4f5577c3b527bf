//! SIMD/scalar parity sweep for the runtime-dispatched kernel backend.
//!
//! The `f3r-simd` crate intercepts the hot kernels in `f3r_sparse::{spmm,
//! blas1}` when the CPU supports F16C/AVX2/FMA.  This suite drives the
//! *dispatched* kernels (whatever backend the process latched — `auto` on
//! CI's main legs, `scalar` on the forced leg) against the naive
//! `f3r_sparse::reference` kernels and against each other, over the inputs
//! where vectorised code paths earn their keep and where they historically
//! go wrong:
//!
//! * odd lengths and remainder tails (1, 7, 9, 17, 31, …) around the 8-wide
//!   unroll and the 4096-element cascade boundary,
//! * CSR rows dense enough (≥ 8 nnz) that the gather-based SpMV row kernel
//!   actually engages, alongside empty rows and sub-width rows,
//! * SELL chunks that are and are not multiples of the 8-row group kernel,
//! * extreme amplitudes: fp16 subnormals, and `f64` magnitudes far outside
//!   the fp16/fp32 exponent range through the compressed-basis kernels.
//!
//! # Tolerances
//!
//! The bounds are the ones documented in `crates/simd/src/lib.rs` and
//! `tests/proptest_kernels.rs`:
//!
//! * **Element-wise kernels** (axpy, waxpby, scale, hadamard, compress /
//!   decompress): the SIMD kernels are bit-identical to the scalar unrolled
//!   kernels, so the only divergence from the *reference* is the final
//!   rounding of differently-associated arithmetic — one storage-precision
//!   ulp relative to the operand magnitudes entering the rounding.
//! * **Reductions** (dot, SpMV rows, norms, sum): both sides accumulate in
//!   `T::Accum` but in different orders (8-wide SIMD lanes vs. sequential),
//!   so they may differ by the standard summation bound, a small multiple
//!   of `n · ε_accum · Σ|terms|`.
//! * **`norm_inf`**: exactly equal — `max` commutes, and the SIMD kernel
//!   reproduces the scalar NaN-dropping `>` semantics.
//! * **Fused vs. unfused** (`axpy` vs. `axpy_norm2` vector output, the
//!   Gram–Schmidt sweeps vs. their per-vector sequence, seq vs. par):
//!   bit-identical by design; these are asserted with `assert_eq!` on the
//!   bits.

use f3r::precision::{Precision, Scalar};
use f3r::sparse::reference;
use f3r::sparse::spmm::{spmm, Dispatch, PanelOp, Rows};
use f3r::sparse::{blas1, CooMatrix, CsrMatrix, SellMatrix, StoredMatrix};
use half::f16;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Lengths that stress the 8-wide unroll, its remainder tail, and the
/// 4096-element cascade boundary.
const LENGTHS: &[usize] = &[1, 2, 7, 8, 9, 16, 17, 31, 63, 100, 255, 1023, 4095, 4096, 4097];

fn rng_for(test: &str, case: u64) -> StdRng {
    let tag: u64 = test.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    StdRng::seed_from_u64(tag ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One ulp of `v` in a precision with the given epsilon (floored so
/// zero-adjacent comparisons stay meaningful).
/// `A X` on `k` columns through the driver.
fn product<'a, TA: Scalar, TV: Scalar>(a: impl Into<Rows<'a, TA>>, xs: &[TV], k: usize, d: Dispatch) -> Vec<TV> {
    let mut ys = vec![TV::zero(); xs.len()];
    spmm(a, xs, PanelOp::Product, &mut ys, k, d);
    ys
}

/// `b − A x` through the driver's fused epilogue.
fn residual<'a, TA: Scalar, TV: Scalar>(a: impl Into<Rows<'a, TA>>, x: &[TV], b: &[TV]) -> Vec<TV> {
    let mut r = vec![TV::zero(); b.len()];
    spmm(a, x, PanelOp::Residual(b), &mut r, 1, Dispatch::Seq);
    r
}

/// `A x` with `(uᵀy, yᵀy)` from the same sweep.
fn product_dot2<'a, TA: Scalar, TV: Scalar>(
    a: impl Into<Rows<'a, TA>>,
    x: &[TV],
    u: &[TV],
) -> (Vec<TV>, (f64, f64)) {
    let mut y = vec![TV::zero(); u.len()];
    let mut dots = [(0.0, 0.0)];
    spmm(a, x, PanelOp::Dot2 { u, dots: &mut dots }, &mut y, 1, Dispatch::Seq);
    (y, dots[0])
}

/// The fused residual against the reference (which rounds `A x` into `TV`
/// before subtracting), and the fused dots against dots taken afterwards on
/// `y`, the plain product of the same storage.
fn check_fused<'a, TA: Scalar, TV: Scalar>(
    label: &str,
    a: impl Into<Rows<'a, TA>>,
    csr: &CsrMatrix<TA>,
    x: &[TV],
    b: &[TV],
    y: &[TV],
    per_row: usize,
) {
    let (a, n) = (a.into(), y.len());
    let eps_accum = <TV::Accum as Scalar>::epsilon();
    let r_new = residual(a, x, b);
    let mut r_ref = vec![TV::zero(); n];
    reference::spmv_residual_naive(csr, x, b, &mut r_ref);
    for row in 0..n {
        let abs_sum = row_abs_sum(csr, x, row) + b[row].to_f64().abs();
        let tol = 4.0 * (per_row as f64) * eps_accum * abs_sum
            + 2.0 * TV::epsilon() * abs_sum
            + 2.0 * ulp(r_ref[row].to_f64(), TV::epsilon());
        assert!(
            (r_new[row].to_f64() - r_ref[row].to_f64()).abs() <= tol,
            "{label} residual {}x{} row {row}",
            TA::name(),
            TV::name(),
        );
    }
    // Stored vector bit-identical to the plain product.
    let (y_fused, (uy, yy)) = product_dot2(a, x, b);
    for row in 0..n {
        assert_eq!(y_fused[row].to_f64(), y[row].to_f64(), "{label} fused product row {row}");
    }
    let uy_ref: f64 = b.iter().zip(y).map(|(u, y)| u.to_f64() * y.to_f64()).sum();
    let yy_ref: f64 = y.iter().map(|y| y.to_f64() * y.to_f64()).sum();
    let dot_tol = 8.0 * (n as f64) * eps_accum * (1.0 + uy_ref.abs().max(yy_ref));
    assert!((uy - uy_ref).abs() <= dot_tol, "{label} fused uy");
    assert!((yy - yy_ref).abs() <= dot_tol, "{label} fused yy");
}

fn ulp(v: f64, eps: f64) -> f64 {
    v.abs().max(1e-30) * eps
}

/// Square CSR matrix whose every row has exactly `per_row` distinct entries
/// (consecutive columns starting at the diagonal, wrapping), so the
/// gather-based SIMD row kernel engages whenever `per_row >= 8`.
fn dense_rows_csr(rng: &mut StdRng, n: usize, per_row: usize) -> CsrMatrix<f64> {
    assert!(per_row <= n);
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        for k in 0..per_row {
            let j = (i + k) % n;
            let v = if k == 0 { rng.gen_range(1.0..2.0) } else { rng.gen_range(-1.0..1.0) };
            coo.push(i, j, v);
        }
    }
    coo.to_csr()
}

/// Row-wise `Σ|aᵢⱼ·xⱼ|`, the conditioning term of the summation bound.
fn row_abs_sum<TA: Scalar, TV: Scalar>(a: &CsrMatrix<TA>, x: &[TV], row: usize) -> f64 {
    let (cols, vals) = a.row_entries(row);
    cols.iter()
        .zip(vals.iter())
        .map(|(&c, v)| (v.to_f64() * x[c as usize].to_f64()).abs())
        .sum()
}

// ---------------------------------------------------------------------------
// SpMV: dense rows (SIMD gather path), empty rows, SELL groups
// ---------------------------------------------------------------------------

fn spmv_dense_rows_parity<TA: Scalar, TV: Scalar>(case: u64) {
    let mut rng = rng_for("simd_spmv", case);
    // Row widths straddling the `>= 8 nnz` SIMD gate: 8 (exactly one group
    // of gathers, no tail), 11 and 19 (tails of 3), plus sub-width 5 rows.
    let per_row = [5, 8, 11, 19][(case % 4) as usize];
    let n = rng.gen_range(9..48.max(per_row + 1));
    let per_row = per_row.min(n);
    let a64 = dense_rows_csr(&mut rng, n, per_row);
    let a: CsrMatrix<TA> = a64.to_precision();
    let x: Vec<TV> = (0..n).map(|_| TV::from_f64(rng.gen_range(-1.0..1.0))).collect();
    let b: Vec<TV> = (0..n).map(|_| TV::from_f64(rng.gen_range(-1.0..1.0))).collect();
    let eps_accum = <TV::Accum as Scalar>::epsilon();

    let y_new = product(&a, &x, 1, Dispatch::Seq);
    let y_par = product(&a, &x, 1, Dispatch::Par);
    let mut y_ref = vec![TV::zero(); n];
    reference::spmv_seq_naive(&a, &x, &mut y_ref);
    for row in 0..n {
        // seq and par must agree bit-for-bit: path choice depends only on
        // the row, never on which task computes it.
        assert_eq!(
            y_new[row].to_f64(),
            y_par[row].to_f64(),
            "case {case} {}x{} seq/par row {row}",
            TA::name(),
            TV::name()
        );
        let abs_sum = row_abs_sum(&a, &x, row);
        let tol = 4.0 * (per_row as f64) * eps_accum * abs_sum
            + ulp(y_ref[row].to_f64(), TV::epsilon());
        assert!(
            (y_new[row].to_f64() - y_ref[row].to_f64()).abs() <= tol,
            "case {case} {}x{} row {row} ({} nnz): {} vs {} (tol {tol:e})",
            TA::name(),
            TV::name(),
            per_row,
            y_new[row],
            y_ref[row],
        );
    }

    check_fused(&format!("case {case}"), &a, &a, &x, &b, &y_new, per_row);
}

#[test]
fn spmv_dense_rows_match_reference_all_pairs() {
    for case in 0..24 {
        // Every pair a product is compiled for: storage no wider than the
        // vectors.
        spmv_dense_rows_parity::<f64, f64>(case);
        spmv_dense_rows_parity::<f32, f64>(case);
        spmv_dense_rows_parity::<f32, f32>(case);
        spmv_dense_rows_parity::<f16, f64>(case);
        spmv_dense_rows_parity::<f16, f32>(case);
        spmv_dense_rows_parity::<f16, f16>(case);
    }
}

#[test]
fn spmv_handles_empty_and_short_rows() {
    // Matrix mixing empty rows, 1-entry rows, and 12-entry rows: the SIMD
    // gate is per-row, so each takes its own path inside one sweep.
    let mut rng = rng_for("simd_empty_rows", 0);
    let n = 24;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        match i % 3 {
            0 => {} // empty row
            1 => coo.push(i, i, rng.gen_range(0.5..1.5)),
            _ => {
                for k in 0..12 {
                    coo.push(i, (i + k) % n, rng.gen_range(-1.0..1.0));
                }
            }
        }
    }
    let a = coo.to_csr();
    let a16: CsrMatrix<f16> = a.to_precision();
    let x: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0) as f32).collect();
    let mut y_new = vec![0.0f32; n];
    let mut y_ref = vec![0.0f32; n];
    spmm(&a16, &x, PanelOp::Product, &mut y_new, 1, Dispatch::Seq);
    reference::spmv_seq_naive(&a16, &x, &mut y_ref);
    for row in 0..n {
        if row % 3 == 0 {
            assert_eq!(y_new[row], 0.0, "empty row {row}");
        }
        let abs_sum = row_abs_sum(&a16, &x, row);
        let tol = 48.0 * f64::from(f32::EPSILON) * abs_sum + ulp(f64::from(y_ref[row]), 1e-7);
        assert!(
            (f64::from(y_new[row]) - f64::from(y_ref[row])).abs() <= tol,
            "row {row}: {} vs {}",
            y_new[row],
            y_ref[row]
        );
    }
}

fn sell_parity<TA: Scalar, TV: Scalar>(case: u64, chunk: usize) {
    let mut rng = rng_for("simd_sell", case * 101 + chunk as u64);
    // Sizes that leave a partial trailing group/chunk on purpose.
    let n = rng.gen_range(8..70);
    let per_row = rng.gen_range(3..14usize).min(n);
    let a64 = dense_rows_csr(&mut rng, n, per_row);
    let a: CsrMatrix<TA> = a64.to_precision();
    let sell: SellMatrix<TA> = SellMatrix::from_csr(&a, chunk);
    let x: Vec<TV> = (0..n).map(|_| TV::from_f64(rng.gen_range(-1.0..1.0))).collect();
    let b: Vec<TV> = (0..n).map(|_| TV::from_f64(rng.gen_range(-1.0..1.0))).collect();
    let eps_accum = <TV::Accum as Scalar>::epsilon();

    let y_csr = product(&a, &x, 1, Dispatch::Seq);
    let y_seq = product(&sell, &x, 1, Dispatch::Seq);
    let y_par = product(&sell, &x, 1, Dispatch::Par);
    for row in 0..n {
        // seq == par bit-for-bit: a task whose boundary cuts a group of 8
        // computes the full group and emits only its own rows.
        assert_eq!(
            y_seq[row].to_f64(),
            y_par[row].to_f64(),
            "case {case} chunk {chunk} {}x{} sell seq/par row {row}",
            TA::name(),
            TV::name()
        );
        // SELL vs CSR: same terms, both orders are legal accumulation
        // orders, so the summation bound applies.
        let abs_sum = row_abs_sum(&a, &x, row);
        let tol = 4.0 * (per_row as f64) * eps_accum * abs_sum
            + ulp(y_csr[row].to_f64(), TV::epsilon());
        assert!(
            (y_seq[row].to_f64() - y_csr[row].to_f64()).abs() <= tol,
            "case {case} chunk {chunk} {}x{} sell/csr row {row}: {} vs {}",
            TA::name(),
            TV::name(),
            y_seq[row],
            y_csr[row],
        );
    }
    // The fused epilogues on SELL rows, as on CSR rows.
    check_fused(&format!("case {case} chunk {chunk} sell"), &sell, &a, &x, &b, &y_seq, per_row);
}

#[test]
fn sell_agrees_with_csr_across_chunk_sizes() {
    for case in 0..8 {
        // chunk 4: group kernel gated off (not a multiple of 8); chunk 8 and
        // 32: the 8-row SIMD group path engages where the backend allows.
        for &chunk in &[4usize, 8, 32] {
            sell_parity::<f64, f64>(case, chunk);
            sell_parity::<f16, f32>(case, chunk);
            sell_parity::<f16, f16>(case, chunk);
            sell_parity::<f32, f64>(case, chunk);
        }
    }
}

#[test]
fn scaled_spmv_matches_unscaled_reference() {
    for case in 0..8 {
        let mut rng = rng_for("simd_scaled", case);
        let n = rng.gen_range(10..50);
        let per_row = rng.gen_range(8..12usize).min(n);
        let a64 = dense_rows_csr(&mut rng, n, per_row);
        let scaled = StoredMatrix::<f16>::row_scaled(&a64, None);
        let ssell = StoredMatrix::<f16>::row_scaled(&a64, Some(8));
        let (stored, scales) = (scaled.csr().unwrap(), scaled.row_scales().unwrap());
        let x: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0) as f32).collect();

        let y_scaled = product(&scaled, &x, 1, Dispatch::Seq);
        let y_sell = product(&ssell, &x, 1, Dispatch::Seq);

        // Reference: row sums of the *stored* fp16 matrix accumulated in
        // f64, then the exact per-row f64 scale applied.
        for row in 0..n {
            let (cols, vals) = stored.row_entries(row);
            let exact: f64 = cols
                .iter()
                .zip(vals.iter())
                .map(|(&c, v)| v.to_f64() * f64::from(x[c as usize]))
                .sum::<f64>()
                * scales[row];
            let abs_sum: f64 = cols
                .iter()
                .zip(vals.iter())
                .map(|(&c, v)| (v.to_f64() * f64::from(x[c as usize])).abs())
                .sum::<f64>()
                * scales[row].abs();
            let tol = 8.0 * (per_row as f64) * f64::from(f32::EPSILON) * abs_sum
                + 2.0 * ulp(exact, f64::from(f32::EPSILON));
            assert!(
                (f64::from(y_scaled[row]) - exact).abs() <= tol,
                "case {case} scaled csr row {row}: {} vs {exact}",
                y_scaled[row]
            );
            assert!(
                (f64::from(y_sell[row]) - exact).abs() <= tol,
                "case {case} scaled sell row {row}: {} vs {exact}",
                y_sell[row]
            );
        }
    }
}

// ---------------------------------------------------------------------------
// BLAS-1: odd lengths, remainder tails, cascade boundary, fp16 subnormals
// ---------------------------------------------------------------------------

fn blas1_parity_at_len<T: Scalar>(len: usize, amp: f64, case: u64) {
    let mut rng = rng_for("simd_blas1", case * 131 + len as u64);
    let x: Vec<T> = (0..len).map(|_| T::from_f64(rng.gen_range(-1.0..1.0) * amp)).collect();
    let y: Vec<T> = (0..len).map(|_| T::from_f64(rng.gen_range(-1.0..1.0) * amp)).collect();
    let eps_accum = <T::Accum as Scalar>::epsilon();
    // Scalars exactly representable in fp16, as in proptest_kernels.
    let alpha = [0.5, -1.25, 2.0, 0.375][rng.gen_range(0..4usize)];
    let beta = [0.25, -0.5, 1.5, -2.0][rng.gen_range(0..4usize)];
    // Below the smallest normal of `T` the rounding error is absolute (one
    // subnormal quantum), not relative, so the element-wise bound carries
    // that floor: 2^-24 for fp16, 2^-149 for fp32 (f64 subnormals are far
    // below every tolerance here).
    let subnormal_q = match T::PRECISION {
        Precision::Fp16 => 2.0f64.powi(-24),
        Precision::Fp32 => 2.0f64.powi(-149),
        Precision::Fp64 => 0.0,
    };
    let one_ulp = |m: f64| (T::epsilon() + 4.0 * eps_accum) * m.max(1e-30) + subnormal_q + 1e-300;

    // Reductions against the naive reference.
    let d_new = blas1::dot(&x, &y);
    let d_ref = reference::dot_naive(&x, &y);
    let abs_sum: f64 = x.iter().zip(&y).map(|(a, b)| (a.to_f64() * b.to_f64()).abs()).sum();
    let tol = 4.0 * (len.max(1) as f64) * eps_accum * abs_sum + 1e-300;
    assert!(
        (d_new - d_ref).abs() <= tol,
        "len {len} dot {}: {d_new} vs {d_ref} (tol {tol:e})",
        T::name()
    );
    // The Gram–Schmidt pair kernel on uncompressed storage (scale 1).
    let (d2a, d2b) = blas1::dot2_compressed(&x, &y, 1.0, &y, 1.0);
    assert!((d2a - d_new).abs() <= tol, "len {len} dot2.0 {}", T::name());
    assert_eq!(d2a, d2b, "len {len} dot2 pair {}", T::name());

    // sum: same single-widening reduction scheme as dot.
    let s_new = blas1::sum(&x);
    let s_ref: f64 = {
        let mut acc = <T::Accum as Scalar>::zero();
        for v in &x {
            acc += v.widen();
        }
        acc.to_f64()
    };
    let abs_x: f64 = x.iter().map(|v| v.to_f64().abs()).sum();
    assert!(
        (s_new - s_ref).abs() <= 4.0 * (len.max(1) as f64) * eps_accum * abs_x + 1e-300,
        "len {len} sum {}: {s_new} vs {s_ref}",
        T::name()
    );

    // norm_inf: exactly the NaN-dropping max fold, whatever the backend.
    let m_new = blas1::norm_inf(&x);
    let m_ref = x.iter().fold(0.0f64, |m, v| {
        let a = v.widen().abs().to_f64();
        if a > m {
            a
        } else {
            m
        }
    });
    assert_eq!(m_new, m_ref, "len {len} norm_inf {}", T::name());

    // axpy and the fused axpy_norm2: identical vector output, bit for bit.
    let mut y_new = y.clone();
    let mut y_ref = y.clone();
    let mut y_fused = y.clone();
    blas1::axpy(alpha, &x, &mut y_new);
    reference::axpy_naive(alpha, &x, &mut y_ref);
    let sq = blas1::axpy_norm2(alpha, &x, &mut y_fused);
    for i in 0..len {
        let (a, b) = (y_new[i].to_f64(), y_ref[i].to_f64());
        let m = (alpha * x[i].to_f64()).abs() + y[i].to_f64().abs();
        assert!((a - b).abs() <= one_ulp(m), "len {len} axpy {} [{i}]: {a} vs {b}", T::name());
        assert_eq!(y_fused[i].to_f64(), a, "len {len} axpy_norm2 vec {} [{i}]", T::name());
    }
    let sq_ref = blas1::dot(&y_new, &y_new);
    assert!(
        (sq - sq_ref).abs() <= 16.0 * (len.max(1) as f64) * eps_accum * sq_ref.max(1e-30),
        "len {len} axpy_norm2 {}: {sq} vs {sq_ref}",
        T::name()
    );

    // waxpby_norm2 against the reference waxpby.
    let mut w_new = vec![T::zero(); len];
    let mut w_ref = vec![T::zero(); len];
    let wsq = blas1::waxpby_norm2(alpha, &x, beta, &y, &mut w_new);
    reference::waxpby_naive(alpha, &x, beta, &y, &mut w_ref);
    for i in 0..len {
        let (a, b) = (w_new[i].to_f64(), w_ref[i].to_f64());
        let m = (alpha * x[i].to_f64()).abs() + (beta * y[i].to_f64()).abs();
        assert!((a - b).abs() <= 2.0 * one_ulp(m), "len {len} waxpby_norm2 {} [{i}]", T::name());
    }
    let wsq_ref = blas1::dot(&w_new, &w_new);
    assert!(
        (wsq - wsq_ref).abs() <= 16.0 * (len.max(1) as f64) * eps_accum * wsq_ref.max(1e-30),
        "len {len} waxpby_norm2 {}",
        T::name()
    );

    // scale, in place.
    let mut s_new = x.clone();
    let mut s_refv = x.clone();
    blas1::scale(beta, &mut s_new);
    reference::scale_naive(beta, &mut s_refv);
    for i in 0..len {
        let (a, b) = (s_new[i].to_f64(), s_refv[i].to_f64());
        let m = (beta * x[i].to_f64()).abs();
        assert!((a - b).abs() <= one_ulp(m), "len {len} scale {} [{i}]", T::name());
    }

    // hadamard: single product, single narrow on both paths — exact match
    // with the per-element definition.
    let mut z = vec![T::zero(); len];
    blas1::hadamard(&x, &y, &mut z);
    for i in 0..len {
        let want = T::narrow(x[i].widen() * y[i].widen()).to_f64();
        assert_eq!(z[i].to_f64(), want, "len {len} hadamard {} [{i}]", T::name());
    }
}

#[test]
fn blas1_parity_odd_lengths_and_tails() {
    for (case, &len) in LENGTHS.iter().enumerate() {
        blas1_parity_at_len::<f64>(len, 1.0, case as u64);
        blas1_parity_at_len::<f32>(len, 1.0, case as u64);
        blas1_parity_at_len::<f16>(len, 1.0, case as u64);
    }
}

#[test]
fn blas1_parity_extreme_amplitudes() {
    // fp16 subnormal territory (2^-14 ≈ 6.1e-5 is the smallest normal) and
    // near the top of each type's range; the F16C conversion path must
    // handle subnormals identically to the softfloat reference.
    for &len in &[9usize, 31, 100, 4097] {
        blas1_parity_at_len::<f16>(len, 6.0e-5, 100);
        blas1_parity_at_len::<f16>(len, 1.0e-6, 101);
        blas1_parity_at_len::<f16>(len, 1.0e4, 102);
        // High amplitudes are capped so dot products (amp²·n) stay inside
        // the accumulator's range — overflow to ±inf is out of contract.
        blas1_parity_at_len::<f32>(len, 1.0e-38, 103);
        blas1_parity_at_len::<f32>(len, 1.0e15, 104);
        blas1_parity_at_len::<f64>(len, 1.0e-300, 105);
        blas1_parity_at_len::<f64>(len, 1.0e150, 106);
    }
}

#[test]
fn blas1_empty_inputs() {
    let x: Vec<f16> = vec![];
    let y: Vec<f16> = vec![];
    assert_eq!(blas1::dot(&x, &y), 0.0);
    assert_eq!(blas1::norm_inf(&x), 0.0);
    assert_eq!(blas1::sum(&x), 0.0);
    let mut z: Vec<f16> = vec![];
    blas1::hadamard(&x, &y, &mut z);
    let mut w: Vec<f16> = vec![];
    assert_eq!(blas1::waxpby_norm2(1.0, &x, 2.0, &y, &mut w), 0.0);
    let mut e: Vec<f16> = vec![];
    blas1::scale(2.0, &mut e);
    assert_eq!(blas1::axpy_norm2(0.5, &x, &mut e), 0.0);
}

// ---------------------------------------------------------------------------
// Compressed-basis kernels: round-trips and extreme amplitudes
// ---------------------------------------------------------------------------

fn compress_roundtrip_case(len: usize, amp: f64, case: u64) {
    let mut rng = rng_for("simd_compress", case * 17 + len as u64);
    let src: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0) * amp).collect();
    let amax = src.iter().fold(0.0f64, |m, v| m.max(v.abs()));

    // fp16-compressed storage: stored = src / 2^k with |stored| <= 1; the
    // only per-element rounding is one f16 narrowing, so the round-trip
    // error is one fp16 ulp of the element plus one subnormal quantum of
    // the scale (2^k <= 2·amax).
    let mut stored = vec![f16::ZERO; len];
    let scale = blas1::narrow_scaled_into(1.0, &src, &mut stored);
    let mut back = vec![0.0f64; len];
    blas1::widen_scaled_into(scale, &stored, &mut back);
    for i in 0..len {
        let tol = f64::from(f16::EPSILON) * src[i].abs() + 2.0 * amax * 2.0f64.powi(-24) + 1e-300;
        assert!(
            (back[i] - src[i]).abs() <= tol,
            "len {len} amp {amp:e} roundtrip [{i}]: {} vs {} (tol {tol:e})",
            back[i],
            src[i]
        );
    }

    // dot_compressed against the represented values in f64.
    let x: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let d_new = blas1::dot_compressed(&x, &stored, scale);
    let d_ref: f64 = x
        .iter()
        .zip(&stored)
        .map(|(xi, si)| xi * si.to_f64())
        .sum::<f64>()
        * scale;
    let abs_sum: f64 = x
        .iter()
        .zip(&stored)
        .map(|(xi, si)| (xi * si.to_f64()).abs())
        .sum::<f64>()
        * scale.abs();
    let tol = 8.0 * (len.max(1) as f64) * f64::EPSILON * abs_sum + ulp(d_ref, f64::EPSILON);
    assert!(
        (d_new - d_ref).abs() <= tol,
        "len {len} amp {amp:e} dot_compressed: {d_new} vs {d_ref}"
    );

    // axpy_scaled_from against a per-element reference on the represented
    // vector: y += (alpha·scale) · stored.
    let alpha = 0.75f64;
    let y0: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0) * amp.max(1.0)).collect();
    let mut y_new = y0.clone();
    blas1::axpy_scaled_from(alpha, &stored, scale, &mut y_new);
    for i in 0..len {
        let want = y0[i] + alpha * scale * stored[i].to_f64();
        let m = (alpha * scale * stored[i].to_f64()).abs() + y0[i].abs();
        assert!(
            (y_new[i] - want).abs() <= 4.0 * f64::EPSILON * m.max(1e-30) + 1e-300,
            "len {len} amp {amp:e} axpy_scaled_from [{i}]: {} vs {want}",
            y_new[i]
        );
    }
}

#[test]
fn compressed_roundtrip_extreme_amplitudes() {
    // Amplitudes spanning far beyond fp16's exponent range (and f32's): the
    // power-of-two scale absorbs the magnitude, and the coefficient
    // fallback path covers scales outside the f32 accumulator's range.
    for &len in &[1usize, 9, 31, 100, 4097] {
        for (case, &amp) in [1.0, 1.0e-6, 6.0e4, 1.0e38, 1.0e-38, 1.0e300, 1.0e-300]
            .iter()
            .enumerate()
        {
            compress_roundtrip_case(len, amp, case as u64);
        }
    }
}

#[test]
fn same_precision_compress_is_lossless() {
    // S == T storage skips normalisation and stores verbatim.
    let mut rng = rng_for("simd_compress_same", 0);
    for &len in &[7usize, 64, 4097] {
        let src: Vec<f32> = (0..len).map(|_| rng.gen_range(-1.0e3..1.0e3) as f32).collect();
        let mut stored = vec![0.0f32; len];
        let scale = blas1::narrow_scaled_into(1.5, &src, &mut stored);
        assert_eq!(scale, 1.5, "len {len}");
        for i in 0..len {
            assert_eq!(stored[i].to_bits(), src[i].to_bits(), "len {len} [{i}]");
        }
    }
}

#[test]
fn zero_vector_compresses_to_zero_scale() {
    let src = vec![0.0f64; 33];
    let mut stored = vec![f16::ZERO; 33];
    let scale = blas1::narrow_scaled_into(2.0, &src, &mut stored);
    assert_eq!(scale, 0.0);
    assert!(stored.iter().all(|v| v.to_f64() == 0.0));
    assert_eq!(blas1::dot_compressed(&src, &stored, scale), 0.0);
}

// ---------------------------------------------------------------------------
// One-sweep Gram–Schmidt: bitwise the per-vector sequence
// ---------------------------------------------------------------------------

/// The per-vector sequence the one-sweep kernels replace, kept here as their
/// oracle: basis pairs through the two-vector dot, a trailing odd vector
/// through `dot_compressed`, then one `axpy_scaled_from` per vector with the
/// norm fused into the last.  The pair dot and the fused last update are the
/// kernels as they stood before the sweeps, written out in full.
mod per_vector {
    use f3r::precision::{FromScalar, Scalar};
    use f3r::sparse::blas1;
    use f3r_parallel::thresholds::{MIN_LEN_PER_TASK, PAR_LEN_THRESHOLD};
    use f3r_parallel::{par_map_chunks_mut, par_map_ranges};

    const CASCADE_BLOCK: usize = 4096;

    fn coeff_fits<A: FromScalar>(c: f64) -> bool {
        let a = A::from_f64(c);
        a.is_finite() && (c == 0.0 || a.to_f64() != 0.0)
    }

    fn dot2<T: Scalar, S: Scalar>(x: &[T], v1: &[S], s1: f64, v2: &[S], s2: f64) -> (f64, f64) {
        let body = |x: &[T], v1: &[S], v2: &[S]| -> (f64, f64) {
            let (mut t1, mut t2) = (0.0f64, 0.0f64);
            let mut start = 0;
            while start < x.len() {
                let end = (start + CASCADE_BLOCK).min(x.len());
                let mut a = [<T::Accum as Scalar>::zero(); 4];
                let mut b = [<T::Accum as Scalar>::zero(); 4];
                let n4 = start + ((end - start) & !3);
                let mut i = start;
                while i < n4 {
                    for k in 0..4 {
                        let xv = x[i + k].widen();
                        a[k] += xv * <T::Accum as FromScalar>::from_scalar(v1[i + k]);
                        b[k] += xv * <T::Accum as FromScalar>::from_scalar(v2[i + k]);
                    }
                    i += 4;
                }
                let (mut ta, mut tb) = (<T::Accum as Scalar>::zero(), <T::Accum as Scalar>::zero());
                for j in n4..end {
                    let xv = x[j].widen();
                    ta += xv * <T::Accum as FromScalar>::from_scalar(v1[j]);
                    tb += xv * <T::Accum as FromScalar>::from_scalar(v2[j]);
                }
                t1 += (((a[0] + a[1]) + (a[2] + a[3])) + ta).to_f64();
                t2 += (((b[0] + b[1]) + (b[2] + b[3])) + tb).to_f64();
                start = end;
            }
            (t1, t2)
        };
        let (r1, r2) = if x.len() >= PAR_LEN_THRESHOLD {
            par_map_ranges(x.len(), MIN_LEN_PER_TASK, |r| body(&x[r.clone()], &v1[r.clone()], &v2[r]))
                .into_iter()
                .fold((0.0, 0.0), |(s0, s1), (p0, p1)| (s0 + p0, s1 + p1))
        } else {
            body(x, v1, v2)
        };
        (r1 * s1, r2 * s2)
    }

    fn axpy_norm2<T: Scalar, S: Scalar>(alpha: f64, v: &[S], scale: f64, y: &mut [T]) -> f64 {
        let c = alpha * scale;
        let fits = coeff_fits::<T::Accum>(c);
        let a = <T::Accum as Scalar>::from_f64(c);
        let body = |base: usize, chunk: &mut [T]| -> f64 {
            let xs = &v[base..base + chunk.len()];
            let mut total = 0.0f64;
            if !fits {
                for (yi, &xi) in chunk.iter_mut().zip(xs) {
                    let val = T::from_f64(xi.to_f64() * c + yi.to_f64());
                    *yi = val;
                    total += val.to_f64() * val.to_f64();
                }
                return total;
            }
            let mut start = 0;
            while start < chunk.len() {
                let end = (start + CASCADE_BLOCK).min(chunk.len());
                let mut s = <T::Accum as Scalar>::zero();
                for i in start..end {
                    let val = T::narrow(<T::Accum as FromScalar>::from_scalar(xs[i]) * a + chunk[i].widen());
                    chunk[i] = val;
                    let w = val.widen();
                    s += w * w;
                }
                total += s.to_f64();
                start = end;
            }
            total
        };
        if y.len() >= PAR_LEN_THRESHOLD {
            par_map_chunks_mut(y, MIN_LEN_PER_TASK, body).into_iter().sum()
        } else {
            body(0, y)
        }
    }

    pub fn project<T: Scalar, S: Scalar>(w: &[T], basis: &[(Vec<S>, f64)]) -> Vec<f64> {
        let mut h = vec![0.0; basis.len()];
        let mut i = 0;
        while i + 1 < basis.len() {
            let ((v0, s0), (v1, s1)) = (&basis[i], &basis[i + 1]);
            (h[i], h[i + 1]) = dot2(w, v0, *s0, v1, *s1);
            i += 2;
        }
        if i < basis.len() {
            h[i] = blas1::dot_compressed(w, &basis[i].0, basis[i].1);
        }
        h
    }

    pub fn subtract<T: Scalar, S: Scalar>(basis: &[(Vec<S>, f64)], h: &[f64], w: &mut [T]) -> f64 {
        let last = h.len() - 1;
        for i in 0..last {
            blas1::axpy_scaled_from(-h[i], &basis[i].0, basis[i].1, w);
        }
        axpy_norm2(-h[last], &basis[last].0, basis[last].1, w)
    }
}

/// Bits of a value, as far as its `f64` widening tells them apart (exactly,
/// for every non-NaN value).  Every NaN maps to one pattern: Rust leaves the
/// sign and payload of a NaN result unspecified (the sum of two NaNs may
/// carry either's), so "bit for bit" means NaN where NaN and the same bits
/// everywhere else.
fn bits<T: Scalar>(v: T) -> u64 {
    let v = v.to_f64();
    if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

/// `count` basis vectors of length `len` compressed from working-precision
/// sources of amplitude `amp`, and a `w` of amplitude `w_amp`.
fn gs_inputs<T: Scalar, S: Scalar>(
    len: usize,
    count: usize,
    amp: f64,
    w_amp: f64,
    case: u64,
) -> (Vec<(Vec<S>, f64)>, Vec<T>) {
    let mut rng = rng_for("gram_schmidt", case * 1_000_003 + (len * 97 + count) as u64);
    let basis = (0..count)
        .map(|_| {
            let src: Vec<T> = (0..len).map(|_| T::from_f64(rng.gen_range(-1.0..1.0) * amp)).collect();
            let mut stored = vec![S::zero(); len];
            let scale = blas1::narrow_scaled_into(1.0, &src, &mut stored);
            (stored, scale)
        })
        .collect();
    let w = (0..len).map(|_| T::from_f64(rng.gen_range(-1.0..1.0) * w_amp)).collect();
    (basis, w)
}

/// Projection and update of `w` against `basis`, fused and per vector,
/// bit for bit.  The update takes the projections, except that `cold =
/// Some((k, c))` replaces `h[k]` so that vector `k`'s coefficient is `c`.
fn gs_parity<T: Scalar, S: Scalar>(label: &str, basis: &[(Vec<S>, f64)], w: &[T], cold: Option<(usize, f64)>) {
    let column = |i: usize| (&basis[i].0[..], basis[i].1);
    let mut h = vec![0.0; basis.len()];
    blas1::project_compressed(w, column, &mut h);
    let h_ref = per_vector::project(w, basis);
    for (i, (&a, &b)) in h.iter().zip(&h_ref).enumerate() {
        assert_eq!(bits(a), bits(b), "{label}: h[{i}] {a:e} vs {b:e}");
    }
    if basis.len() == 2 {
        let (d0, d1) = blas1::dot2_compressed(w, &basis[0].0, basis[0].1, &basis[1].0, basis[1].1);
        assert_eq!((bits(d0), bits(d1)), (bits(h[0]), bits(h[1])), "{label}: dot2");
    }
    if let Some((k, c)) = cold {
        h[k] = -c / basis[k].1;
    }
    let (mut w_new, mut w_ref) = (w.to_vec(), w.to_vec());
    let nn = blas1::subtract_projections(column, &h, &mut w_new);
    let nn_ref = per_vector::subtract(basis, &h, &mut w_ref);
    assert_eq!(bits(nn), bits(nn_ref), "{label}: ‖w‖² {nn:e} vs {nn_ref:e}");
    for (i, (&a, &b)) in w_new.iter().zip(&w_ref).enumerate() {
        assert_eq!(bits(a), bits(b), "{label}: w[{i}] {a} vs {b}");
    }
}

/// Lengths around the cascade block (4096), the pool threshold (2¹⁵) and
/// past two pool chunks.
const GS_LENGTHS: &[usize] = &[0, 1, 7, 4095, 4097, (1 << 15) - 1, (1 << 15) + 3, 100_003];

fn gs_counts_and_lengths<T: Scalar, S: Scalar>() {
    for &len in GS_LENGTHS {
        // Every count from one to nine (odd and even, one to four pairs),
        // and a long basis on the shorter vectors.
        let long = if len <= 4097 { &[65usize][..] } else { &[] };
        for &count in (1..=9).collect::<Vec<_>>().iter().chain(long) {
            let (basis, w) = gs_inputs::<T, S>(len, count, 1.0, 1.0, 0);
            gs_parity(&format!("{}/{} len {len} count {count}", T::name(), S::name()), &basis, &w, None);
        }
    }
}

#[test]
fn gram_schmidt_sweeps_are_bitwise_the_per_vector_sequence() {
    // Every (working, storage) pair a cycle is compiled for.
    gs_counts_and_lengths::<f64, f64>();
    gs_counts_and_lengths::<f64, f32>();
    gs_counts_and_lengths::<f64, f16>();
    gs_counts_and_lengths::<f32, f32>();
    gs_counts_and_lengths::<f32, f16>();
    gs_counts_and_lengths::<f16, f16>();
}

#[test]
fn gram_schmidt_sweeps_stay_bitwise_at_extreme_amplitudes() {
    for &len in &[7usize, 4097, (1 << 15) + 3] {
        for (case, amp) in [1.0e300, 1.0e-300].into_iter().enumerate() {
            let label = |t: &str| format!("f64/{t} len {len} amp {amp:e}");
            let (basis, w) = gs_inputs::<f64, f64>(len, 5, amp, amp, case as u64);
            gs_parity(&label("fp64"), &basis, &w, None);
            let (basis, w) = gs_inputs::<f64, f32>(len, 5, amp, 1.0 / amp, case as u64);
            gs_parity(&label("fp32"), &basis, &w, None);
            let (basis, w) = gs_inputs::<f64, f16>(len, 5, amp, amp, case as u64);
            gs_parity(&label("fp16"), &basis, &w, None);
        }
        // fp16 subnormals (below 6.1e-5) in the vectors and in fp16 storage.
        let (basis, w) = gs_inputs::<f16, f16>(len, 5, 3.0e-5, 2.0e-6, 2);
        gs_parity(&format!("fp16/fp16 len {len} subnormal"), &basis, &w, None);
        let (basis, w) = gs_inputs::<f32, f16>(len, 5, 3.0e-5, 1.0e-6, 3);
        gs_parity(&format!("fp32/fp16 len {len} subnormal"), &basis, &w, None);
    }
}

#[test]
fn gram_schmidt_sweeps_stay_bitwise_on_a_nan_and_a_cold_coefficient() {
    for &len in &[4097usize, 100_003] {
        // One NaN entry in `w`: every projection is NaN, and so is every
        // coefficient of the update.
        let (basis, mut w) = gs_inputs::<f32, f16>(len, 5, 1.0, 1.0, 4);
        w[len / 3] = f32::NAN;
        gs_parity(&format!("fp32/fp16 len {len} NaN"), &basis, &w, None);
        let (basis, mut w) = gs_inputs::<f64, f64>(len, 4, 1.0, 1.0, 5);
        w[len / 3] = f64::NAN;
        gs_parity(&format!("fp64/fp64 len {len} NaN"), &basis, &w, None);

        // Coefficients an f32 accumulator cannot hold: below its smallest
        // subnormal (converts to zero) and beyond its largest finite value.
        // Those vectors' updates take the f64 path, their neighbours' do not.
        for cold in [(1usize, 1.0e-46), (3, -1.0e39)] {
            let (basis, w) = gs_inputs::<f32, f16>(len, 5, 1.0, 1.0, 6);
            gs_parity(&format!("fp32/fp16 len {len} cold {cold:?}"), &basis, &w, Some(cold));
            let (basis, w) = gs_inputs::<f32, f32>(len, 4, 1.0, 1.0, 7);
            gs_parity(&format!("fp32/fp32 len {len} cold {cold:?}"), &basis, &w, Some(cold));
        }
    }
}

// ---------------------------------------------------------------------------
// SpMM (multi-RHS) kernels: per-column bitwise parity with single-vector SpMV
// ---------------------------------------------------------------------------

/// Matrix mixing empty rows, 1-entry rows, and rows wide enough (11 nnz)
/// to engage the gather-based SIMD row kernel — each row takes its own path
/// inside one SpMM sweep, and the path choice must be the same for every
/// panel column.
fn mixed_rows_csr(rng: &mut StdRng, n: usize) -> CsrMatrix<f64> {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        match i % 4 {
            0 => {} // empty row
            1 => coo.push(i, i, rng.gen_range(0.5..1.5)),
            _ => {
                for t in 0..11.min(n) {
                    coo.push(i, (i + t) % n, rng.gen_range(-1.0..1.0));
                }
            }
        }
    }
    coo.to_csr()
}

fn spmm_parity<TA: Scalar, TV: Scalar>(case: u64, k: usize) {
    let mut rng = rng_for("simd_spmm", case * 37 + k as u64);
    let n = rng.gen_range(9..40);
    let a64 = mixed_rows_csr(&mut rng, n);
    let a: CsrMatrix<TA> = a64.to_precision();
    let sell: SellMatrix<TA> = SellMatrix::from_csr(&a, 8);
    let xs: Vec<TV> = (0..n * k).map(|_| TV::from_f64(rng.gen_range(-1.0..1.0))).collect();

    let ys = product(&a, &xs, k, Dispatch::Auto);
    let ys_seq = product(&a, &xs, k, Dispatch::Seq);
    let ys_par = product(&a, &xs, k, Dispatch::Par);
    let ys_sell = product(&sell, &xs, k, Dispatch::Auto);
    for c in 0..k {
        let xcol = &xs[c * n..(c + 1) * n];
        let y_csr = product(&a, xcol, 1, Dispatch::Seq);
        let y_sell = product(&sell, xcol, 1, Dispatch::Seq);
        for row in 0..n {
            // Column c of the panel is the one-column product of column c,
            // bit for bit: the SIMD row/group gate depends only on the row.
            assert_eq!(
                ys[c * n + row].to_f64(),
                y_csr[row].to_f64(),
                "case {case} k {k} {}x{} csr col {c} row {row}",
                TA::name(),
                TV::name()
            );
            assert_eq!(
                ys_seq[c * n + row].to_f64(),
                ys[c * n + row].to_f64(),
                "case {case} k {k} seq col {c} row {row}"
            );
            assert_eq!(
                ys_par[c * n + row].to_f64(),
                ys[c * n + row].to_f64(),
                "case {case} k {k} par col {c} row {row}"
            );
            assert_eq!(
                ys_sell[c * n + row].to_f64(),
                y_sell[row].to_f64(),
                "case {case} k {k} {}x{} sell col {c} row {row}",
                TA::name(),
                TV::name()
            );
            if row % 4 == 0 {
                assert_eq!(ys[c * n + row].to_f64(), 0.0, "empty row {row} col {c}");
            }
        }
    }
}

#[test]
fn spmm_columns_match_single_vector_spmv() {
    // Odd widths and the k = 1 degenerate panel; mixed empty/short/SIMD rows.
    for case in 0..4 {
        for &k in &[1usize, 2, 3, 5, 8] {
            spmm_parity::<f64, f64>(case, k);
            spmm_parity::<f32, f64>(case, k);
            spmm_parity::<f16, f32>(case, k);
            spmm_parity::<f16, f16>(case, k);
        }
    }
}

#[test]
fn scaled_spmm_columns_match_single_vector_scaled_spmv() {
    for case in 0..4 {
        for &k in &[1usize, 3, 5] {
            let mut rng = rng_for("simd_spmm_scaled", case * 13 + k as u64);
            let n = rng.gen_range(10..40);
            let a64 = mixed_rows_csr(&mut rng, n);
            let scaled = StoredMatrix::<f16>::row_scaled(&a64, None);
            let ssell = StoredMatrix::<f16>::row_scaled(&a64, Some(8));
            let xs: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0..1.0) as f32).collect();
            let ys = product(&scaled, &xs, k, Dispatch::Auto);
            let ys_sell = product(&ssell, &xs, k, Dispatch::Auto);
            for c in 0..k {
                let xcol = &xs[c * n..(c + 1) * n];
                let y_csr = product(&scaled, xcol, 1, Dispatch::Seq);
                let y_sell = product(&ssell, xcol, 1, Dispatch::Seq);
                for row in 0..n {
                    assert_eq!(
                        ys[c * n + row], y_csr[row],
                        "case {case} k {k} scaled csr col {c} row {row}"
                    );
                    assert_eq!(
                        ys_sell[c * n + row], y_sell[row],
                        "case {case} k {k} scaled sell col {c} row {row}"
                    );
                }
            }
        }
    }
}
