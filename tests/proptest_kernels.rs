//! Property-based tests on the core data structures and numeric invariants
//! of the workspace, including the direct-widening kernel layer.
//!
//! The original version of this file used the `proptest` crate; the build
//! environment has no registry access, so the same properties (plus the
//! kernel-vs-reference equivalence properties for the unrolled/fused
//! kernels) are driven by a small seeded-case harness built on the vendored
//! `rand` shim.  Every case is reproducible from its printed seed.
//!
//! # Kernel equivalence tolerances
//!
//! The unrolled kernels in `f3r_sparse::{spmm, blas1}` must match the naive
//! reference kernels in `f3r_sparse::reference` for every `(TA, TV)`
//! precision pair the solvers use:
//!
//! * **Element-wise kernels** (axpy, axpby, waxpby, scale): outputs are
//!   rounded into the storage precision `T`, and the only legal divergence
//!   is the final rounding of differently-associated arithmetic — so the
//!   bound is **one ulp of `T` relative to the operand magnitudes entering
//!   the final rounding** per element (under cancellation the rounding error
//!   scales with |α·x| + |β·y|, not the small result; scalars are chosen
//!   exactly representable in fp16 so the reference's narrower scalar
//!   rounding cannot leak in).
//! * **Reductions** (dot, SpMV rows): both sides accumulate in
//!   `T::Accum`, but in different orders (8-way/4-way unrolling vs. strictly
//!   sequential FMA), so results may differ by the standard summation error
//!   bound — a small multiple of `n · ε_accum · Σ|xᵢ yᵢ|`, i.e. a few ulps
//!   of the accumulation precision scaled by the condition of the sum.

use std::sync::Arc;

use f3r::precision::{convert_vec, Precision, Scalar};
use f3r::prelude::*;
use f3r::sparse::gen::{random_rhs, random_spd};
use f3r::sparse::reference;
use f3r::sparse::scaling::jacobi_scale;
use f3r::sparse::spmm::{spmm, Dispatch, PanelOp};
use f3r::sparse::spmv::spmv;
use f3r::sparse::{blas1, CooMatrix, CsrMatrix, SellMatrix};
use half::f16;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of cases for cheap structural/kernel properties.
const CASES: u64 = 64;
/// Number of cases for full-solve properties (expensive).
const SOLVE_CASES: u64 = 8;

fn rng_for(test: &str, case: u64) -> StdRng {
    // Derive a per-test stream so adding cases to one test does not shift
    // the inputs of another.
    let tag: u64 = test.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    StdRng::seed_from_u64(tag ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn random_triplets(rng: &mut StdRng, n: usize, max_entries: usize) -> Vec<(usize, usize, f64)> {
    let count = rng.gen_range(1..max_entries);
    (0..count)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n), rng.gen_range(-10.0..10.0)))
        .collect()
}

#[test]
#[allow(clippy::needless_range_loop)] // r/c index the dense mirror
fn coo_to_csr_preserves_entries() {
    for case in 0..CASES {
        let mut rng = rng_for("coo_to_csr", case);
        let triplets = random_triplets(&mut rng, 12, 60);
        let mut coo = CooMatrix::<f64>::new(12, 12);
        let mut dense = vec![vec![0.0f64; 12]; 12];
        for &(r, c, v) in &triplets {
            coo.push(r, c, v);
            dense[r][c] += v;
        }
        let csr = coo.to_csr();
        for r in 0..12 {
            for c in 0..12 {
                let stored = csr.get(r, c).unwrap_or(0.0);
                assert!((stored - dense[r][c]).abs() < 1e-12, "case {case} ({r},{c})");
            }
        }
    }
}

#[test]
fn transpose_twice_is_identity() {
    for case in 0..CASES {
        let mut rng = rng_for("transpose", case);
        let triplets = random_triplets(&mut rng, 10, 50);
        let mut coo = CooMatrix::<f64>::new(10, 10);
        for &(r, c, v) in &triplets {
            coo.push(r, c, v);
        }
        let a = coo.to_csr();
        assert_eq!(a.transpose().transpose(), a, "case {case}");
    }
}

#[test]
fn spmv_kernels_agree() {
    for case in 0..CASES {
        let mut rng = rng_for("spmv_agree", case);
        let triplets = random_triplets(&mut rng, 16, 100);
        let x: Vec<f64> = (0..16).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let mut coo = CooMatrix::<f64>::new(16, 16);
        for &(r, c, v) in &triplets {
            coo.push(r, c, v);
        }
        let a = coo.to_csr();
        let sell = SellMatrix::from_csr(&a, 4);
        let mut y1 = vec![0.0; 16];
        let mut y2 = vec![0.0; 16];
        let mut y3 = vec![0.0; 16];
        spmm(&a, &x, PanelOp::Product, &mut y1, 1, Dispatch::Seq);
        spmm(&a, &x, PanelOp::Product, &mut y2, 1, Dispatch::Par);
        spmv(&sell, &x, &mut y3);
        for i in 0..16 {
            assert!((y1[i] - y2[i]).abs() < 1e-10, "case {case} row {i}");
            assert!((y1[i] - y3[i]).abs() < 1e-10, "case {case} row {i}");
        }
    }
}

#[test]
fn fp16_roundtrip_error_is_bounded() {
    for case in 0..CASES {
        let mut rng = rng_for("fp16_roundtrip", case);
        let len = rng.gen_range(1..64usize);
        let values: Vec<f64> = (0..len).map(|_| rng.gen_range(-1000.0..1000.0)).collect();
        let lo: Vec<f16> = convert_vec(&values);
        let back: Vec<f64> = convert_vec(&lo);
        for (orig, round) in values.iter().zip(back.iter()) {
            let tol = orig.abs() * f64::from(f16::EPSILON) + 1e-7;
            assert!((orig - round).abs() <= tol, "case {case}: {orig} -> {round}");
        }
    }
}

#[test]
fn dot_and_norm_are_consistent() {
    for case in 0..CASES {
        let mut rng = rng_for("dot_norm", case);
        let len = rng.gen_range(1..80usize);
        let x: Vec<f64> = (0..len).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let scale = rng.gen_range(0.5..7.5);
        let y: Vec<f64> = x.iter().rev().map(|v| v * scale).collect();
        assert!((blas1::dot(&x, &y) - blas1::dot(&y, &x)).abs() < 1e-9, "case {case}");
        let n2 = blas1::norm2(&x);
        assert!(
            (n2 * n2 - blas1::dot(&x, &x)).abs() < 1e-9 * (1.0 + n2 * n2),
            "case {case}"
        );
    }
}

#[test]
fn jacobi_scaling_normalises_diagonal() {
    for case in 0..CASES {
        let mut rng = rng_for("jacobi_scale", case);
        let n = rng.gen_range(3..20);
        let nnz = rng.gen_range(2..6);
        let a = random_spd(n, nnz, 0.7, case);
        let scaled = jacobi_scale(&a);
        for i in 0..n {
            let d = scaled.get(i, i).unwrap_or(0.0);
            assert!((d - 1.0).abs() < 1e-12, "case {case} diag {i} = {d}");
        }
        assert!(scaled.is_symmetric(1e-12), "case {case}");
        assert!(scaled.max_abs() <= 1.0 + 1e-9, "case {case}");
    }
}

#[test]
fn fp16_matrix_copy_is_faithful() {
    for case in 0..CASES {
        let mut rng = rng_for("fp16_copy", case);
        let n = rng.gen_range(4..16);
        let nnz = rng.gen_range(2..5);
        let a = jacobi_scale(&random_spd(n, nnz, 0.5, case));
        let a16: CsrMatrix<f16> = a.to_precision();
        assert_eq!(a16.nnz(), a.nnz(), "case {case}");
        for row in 0..n {
            let (cols, vals) = a.row_entries(row);
            let (cols16, vals16) = a16.row_entries(row);
            assert_eq!(cols, cols16, "case {case}");
            for (v, v16) in vals.iter().zip(vals16.iter()) {
                assert!(
                    (v - v16.to_f64()).abs() <= v.abs() * f64::from(f16::EPSILON) + 1e-7,
                    "case {case}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel-vs-reference equivalence for the direct-widening layer
// ---------------------------------------------------------------------------

/// Random square CSR matrix with a guaranteed diagonal.
fn random_csr(rng: &mut StdRng, n: usize, per_row: usize) -> CsrMatrix<f64> {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, rng.gen_range(0.5..2.0));
        for _ in 0..per_row {
            let j = rng.gen_range(0..n);
            coo.push(i, j, rng.gen_range(-1.0..1.0));
        }
    }
    coo.to_csr()
}

/// One ulp of `v` in a precision with the given epsilon (floored so
/// zero-adjacent comparisons stay meaningful).
fn ulp(v: f64, eps: f64) -> f64 {
    v.abs().max(1e-30) * eps
}

fn spmv_matches_reference<TA: Scalar, TV: Scalar>(case: u64) {
    let mut rng = rng_for("spmv_vs_ref", case);
    let n = rng.gen_range(8..80);
    let per_row = rng.gen_range(1..8usize);
    let a64 = random_csr(&mut rng, n, per_row);
    let a: CsrMatrix<TA> = a64.to_precision();
    let x: Vec<TV> = (0..n).map(|_| TV::from_f64(rng.gen_range(-1.0..1.0))).collect();
    let b: Vec<TV> = (0..n).map(|_| TV::from_f64(rng.gen_range(-1.0..1.0))).collect();
    let eps_accum = <TV::Accum as Scalar>::epsilon();

    let mut y_new = vec![TV::zero(); n];
    let mut y_ref = vec![TV::zero(); n];
    spmv(&a, &x, &mut y_new);
    reference::spmv_seq_naive(&a, &x, &mut y_ref);
    for row in 0..n {
        // Summation error bound: both kernels accumulate the same terms in
        // TV::Accum but in different orders, so they may differ by a few
        // accumulation-precision ulps of the row's absolute sum.
        let (cols, vals) = a.row_entries(row);
        let abs_sum: f64 = cols
            .iter()
            .zip(vals.iter())
            .map(|(&c, v)| (v.to_f64() * x[c as usize].to_f64()).abs())
            .sum();
        let tol = 4.0 * (cols.len().max(1) as f64) * eps_accum * abs_sum
            + ulp(y_ref[row].to_f64(), TV::epsilon());
        assert!(
            (y_new[row].to_f64() - y_ref[row].to_f64()).abs() <= tol,
            "case {case} {}x{} row {row}: {} vs {} (tol {tol:e})",
            TA::name(),
            TV::name(),
            y_new[row],
            y_ref[row],
        );
    }

    // Fused residual against the reference residual, same bound.
    let mut r_new = vec![TV::zero(); n];
    let mut r_ref = vec![TV::zero(); n];
    spmm(&a, &x, PanelOp::Residual(&b), &mut r_new, 1, Dispatch::Auto);
    reference::spmv_residual_naive(&a, &x, &b, &mut r_ref);
    for row in 0..n {
        let (cols, vals) = a.row_entries(row);
        let abs_sum: f64 = cols
            .iter()
            .zip(vals.iter())
            .map(|(&c, v)| (v.to_f64() * x[c as usize].to_f64()).abs())
            .sum::<f64>()
            + b[row].to_f64().abs();
        // The reference rounds A·x into TV before subtracting; under
        // cancellation that rounding scales with the pre-subtraction
        // magnitude, not the residual value.
        let tol = 4.0 * (cols.len().max(2) as f64) * eps_accum * abs_sum
            + 2.0 * TV::epsilon() * abs_sum
            + 2.0 * ulp(r_ref[row].to_f64(), TV::epsilon());
        assert!(
            (r_new[row].to_f64() - r_ref[row].to_f64()).abs() <= tol,
            "case {case} residual {}x{} row {row}",
            TA::name(),
            TV::name(),
        );
    }

    // Fused SpMV + dual dot: the stored vector must equal the plain SpMV
    // bit-for-bit, and the dots must match f64 reference dots on that vector.
    let mut y_fused = vec![TV::zero(); n];
    let mut dots = [(0.0, 0.0)];
    spmm(&a, &x, PanelOp::Dot2 { u: &b, dots: &mut dots }, &mut y_fused, 1, Dispatch::Auto);
    let [(uy, yy)] = dots;
    for row in 0..n {
        assert_eq!(
            y_fused[row].to_f64(),
            y_new[row].to_f64(),
            "case {case} fused spmv output row {row}"
        );
    }
    let uy_ref: f64 = b.iter().zip(&y_new).map(|(u, y)| u.to_f64() * y.to_f64()).sum();
    let yy_ref: f64 = y_new.iter().map(|y| y.to_f64() * y.to_f64()).sum();
    let dot_tol = 8.0 * (n as f64) * eps_accum * (1.0 + uy_ref.abs().max(yy_ref));
    assert!((uy - uy_ref).abs() <= dot_tol, "case {case} fused uy");
    assert!((yy - yy_ref).abs() <= dot_tol, "case {case} fused yy");
}

#[test]
fn spmv_matches_reference_for_all_precision_pairs() {
    for case in 0..CASES / 2 {
        // Every pair a product is compiled for: storage no wider than the
        // vectors.
        spmv_matches_reference::<f64, f64>(case);
        spmv_matches_reference::<f32, f64>(case);
        spmv_matches_reference::<f32, f32>(case);
        spmv_matches_reference::<f16, f64>(case);
        spmv_matches_reference::<f16, f32>(case);
        spmv_matches_reference::<f16, f16>(case);
    }
}

fn blas1_matches_reference<T: Scalar>(case: u64) {
    let mut rng = rng_for("blas1_vs_ref", case);
    let n = rng.gen_range(1..512);
    let x: Vec<T> = (0..n).map(|_| T::from_f64(rng.gen_range(-1.0..1.0))).collect();
    let y: Vec<T> = (0..n).map(|_| T::from_f64(rng.gen_range(-1.0..1.0))).collect();
    let eps_accum = <T::Accum as Scalar>::epsilon();

    // Reductions: summation-order bound in the accumulation precision.
    let d_new = blas1::dot(&x, &y);
    let d_ref = reference::dot_naive(&x, &y);
    let abs_sum: f64 = x.iter().zip(&y).map(|(a, b)| (a.to_f64() * b.to_f64()).abs()).sum();
    let tol = 4.0 * (n as f64) * eps_accum * abs_sum + 1e-300;
    assert!(
        (d_new - d_ref).abs() <= tol,
        "case {case} dot {}: {d_new} vs {d_ref} (tol {tol:e})",
        T::name()
    );
    // The Gram–Schmidt pair kernel on uncompressed storage (scale 1).
    let (d2a, d2b) = blas1::dot2_compressed(&x, &y, 1.0, &y, 1.0);
    assert!((d2a - d_new).abs() <= tol, "case {case} dot2.0 {}", T::name());
    assert_eq!(d2a, d2b, "case {case} dot2 pair {}", T::name());

    // Element-wise kernels: scalars exactly representable in fp16, so the
    // only legal divergence from the reference is the final rounding of
    // differently-associated arithmetic.
    let alpha = [0.5, -1.25, 2.0, 0.375][rng.gen_range(0..4usize)];
    let beta = [0.25, -0.5, 1.5, -2.0][rng.gen_range(0..4usize)];
    // One final-rounding ulp of the storage precision, taken relative to the
    // magnitudes entering the rounding: under cancellation the product
    // rounding error (FMA on the reference side, separate multiply here)
    // scales with |α·x| + |β·y|, not with the small difference.
    let one_ulp = |m: f64| (T::epsilon() + 4.0 * eps_accum) * m.max(1e-30) + 1e-300;

    let mut y_new = y.clone();
    let mut y_ref = y.clone();
    blas1::axpy(alpha, &x, &mut y_new);
    reference::axpy_naive(alpha, &x, &mut y_ref);
    for i in 0..n {
        let (a, b) = (y_new[i].to_f64(), y_ref[i].to_f64());
        let m = (alpha * x[i].to_f64()).abs() + y[i].to_f64().abs();
        assert!((a - b).abs() <= one_ulp(m), "case {case} axpy {} [{i}]: {a} vs {b}", T::name());
    }
    let norm_fused = blas1::axpy_norm2(alpha, &x, &mut y.clone()).sqrt();
    let norm_plain = blas1::norm2(&y_new);
    assert!(
        (norm_fused - norm_plain).abs() <= 16.0 * (n as f64) * eps_accum * norm_plain.max(1e-30),
        "case {case} axpy_norm2 {}",
        T::name()
    );

    let mut y_new = y.clone();
    let mut y_ref = y.clone();
    blas1::axpby(alpha, &x, beta, &mut y_new);
    reference::axpby_naive(alpha, &x, beta, &mut y_ref);
    for i in 0..n {
        let (a, b) = (y_new[i].to_f64(), y_ref[i].to_f64());
        let m = (alpha * x[i].to_f64()).abs() + (beta * y[i].to_f64()).abs();
        // two roundings on each side of differently-associated arithmetic
        assert!((a - b).abs() <= 2.0 * one_ulp(m), "case {case} axpby {} [{i}]", T::name());
    }

    let mut w_new = vec![T::zero(); n];
    let mut w_ref = vec![T::zero(); n];
    blas1::waxpby(alpha, &x, beta, &y, &mut w_new);
    reference::waxpby_naive(alpha, &x, beta, &y, &mut w_ref);
    for i in 0..n {
        let (a, b) = (w_new[i].to_f64(), w_ref[i].to_f64());
        let m = (alpha * x[i].to_f64()).abs() + (beta * y[i].to_f64()).abs();
        assert!((a - b).abs() <= 2.0 * one_ulp(m), "case {case} waxpby {} [{i}]", T::name());
    }

    let mut s_new = x.clone();
    let mut s_ref = x.clone();
    blas1::scale(beta, &mut s_new);
    reference::scale_naive(beta, &mut s_ref);
    for i in 0..n {
        let (a, b) = (s_new[i].to_f64(), s_ref[i].to_f64());
        let m = (beta * x[i].to_f64()).abs();
        assert!((a - b).abs() <= one_ulp(m), "case {case} scale {} [{i}]", T::name());
    }
}

#[test]
fn blas1_matches_reference_for_all_precisions() {
    for case in 0..CASES {
        blas1_matches_reference::<f64>(case);
        blas1_matches_reference::<f32>(case);
        blas1_matches_reference::<f16>(case);
    }
}

// ---------------------------------------------------------------------------
// Solver-level properties (expensive; few cases)
// ---------------------------------------------------------------------------

#[test]
fn f3r_converges_on_random_spd_systems() {
    for case in 0..SOLVE_CASES {
        let mut rng = rng_for("f3r_solve", case);
        let seed = rng.gen_range(0..1000u64);
        let a = jacobi_scale(&random_spd(400, 8, 0.6, seed));
        let n = a.n_rows();
        let b = random_rhs(n, seed.wrapping_add(1));
        let matrix = Arc::new(ProblemMatrix::from_csr(a.clone()));
        let mut solver = SolverBuilder::new(matrix)
            .scheme(F3rScheme::Fp16)
            .precond(PrecondKind::BlockJacobiIc0 { blocks: 4, alpha: 1.0 })
            .build()
            .session();
        let mut x = vec![0.0; n];
        let r = solver.solve(&b, &mut x);
        assert!(r.converged, "seed {seed} residual {}", r.final_relative_residual);

        let mut ax = vec![0.0; n];
        spmv(&a, &x, &mut ax);
        let num: f64 = ax.iter().zip(&b).map(|(p, q)| (p - q) * (p - q)).sum::<f64>().sqrt();
        let den: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((num / den - r.final_relative_residual).abs() < 1e-10, "seed {seed}");
        assert!(num / den < 1e-8, "seed {seed}");
    }
}

#[test]
fn precond_count_scales_with_outer_iterations() {
    for case in 0..SOLVE_CASES {
        let mut rng = rng_for("precond_count", case);
        let seed = rng.gen_range(0..200u64);
        let a = jacobi_scale(&random_spd(300, 6, 0.8, seed));
        let n = a.n_rows();
        let b = random_rhs(n, seed);
        let matrix = Arc::new(ProblemMatrix::from_csr(a));
        let mut solver = SolverBuilder::new(matrix)
            .scheme(F3rScheme::Fp16)
            .precond(PrecondKind::Jacobi)
            .build()
            .session();
        let mut x = vec![0.0; n];
        let r = solver.solve(&b, &mut x);
        assert!(r.converged, "seed {seed}");
        // Default parameters: every outermost iteration triggers m2*m3 = 32
        // Richardson invocations of m4 = 2 sweeps, i.e. 64 M applications.
        let per_outer = 64;
        assert_eq!(r.precond_applications, (r.outer_iterations as u64) * per_outer, "seed {seed}");
    }
}

#[test]
fn precision_enum_and_scalar_agree() {
    // not property-based but belongs with the cross-crate invariants
    assert_eq!(<f16 as Scalar>::PRECISION, Precision::Fp16);
    assert_eq!(<f32 as Scalar>::PRECISION, Precision::Fp32);
    assert_eq!(<f64 as Scalar>::PRECISION, Precision::Fp64);
}
