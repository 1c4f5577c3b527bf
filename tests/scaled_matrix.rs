//! End-to-end acceptance tests for the demand-driven matrix store and scaled
//! fp16/fp32 matrix storage.
//!
//! The two headline claims:
//!
//! 1. **Laziness** — a spec whose levels stream only fp64+fp32 matrix
//!    variants materializes no fp16 copy (asserted through the store's
//!    variant accounting), and `ProblemMatrix::storage_bytes()` reports the
//!    actually-materialized footprint, not the historical eager worst case.
//! 2. **Robustness** — on a matrix whose entry dynamic range overflows an
//!    unscaled fp16 copy to ±∞, a nested solver with *scaled* fp16 matrix
//!    storage solves to the paper's 1e-8 tolerance while the unscaled fp16
//!    configuration fails, with the matrix-stream traffic per storage
//!    precision visible in the `KernelCounters` snapshots.

use std::sync::Arc;

use f3r::prelude::*;
use f3r::precision::traffic::TrafficModel;
use f3r::sparse::gen::{poisson2d_5pt, random_rhs};
use f3r::sparse::io::EntryRangeStats;
use f3r::sparse::scaling::jacobi_scale;
use f3r::sparse::{CsrMatrix, StoredMatrix};

/// An SPD system whose *entries* span ~10 orders of magnitude:
/// symmetrically diagonal-scale the (Jacobi-normalised) 2-D Laplacian by
/// `d_i = 10^{-2.5 + 5·i/n}`.  The entries reach ~1e5 — far beyond fp16's
/// largest finite value of 65504 — so the unscaled fp16 copy overflows to
/// ±∞, while smoothly varying `d` keeps the *within-row* range small, so
/// per-row power-of-two scaling recovers fp16-accurate storage.
fn wide_dynamic_range_system(nx: usize) -> CsrMatrix<f64> {
    let a = jacobi_scale(&poisson2d_5pt(nx, nx));
    let n = a.n_rows();
    let d: Vec<f64> = (0..n)
        .map(|i| 10f64.powf(-2.5 + 5.0 * i as f64 / (n - 1) as f64))
        .collect();
    a.scale_rows_cols(&d, &d)
}

fn two_level_spec(name: &str, inner_matrix: MatrixStorage) -> NestedSpec {
    NestedSpec {
        levels: vec![
            LevelSpec::fgmres(30, Precision::Fp64, Precision::Fp64),
            // f64 working vectors: between configurations only the matrix
            // storage differs, isolating the axis under test.
            LevelSpec::fgmres_stored(10, inner_matrix, Precision::Fp64),
        ],
        precond: PrecondKind::Jacobi,
        precond_prec: Precision::Fp64,
        tol: 1e-8,
        max_outer_cycles: 10,
        name: name.to_string(),
    }
}

#[test]
fn scaled_fp16_matrix_storage_solves_where_unscaled_fp16_fails() {
    let a = wide_dynamic_range_system(24);
    let stats = EntryRangeStats::compute(&a);
    assert!(
        !stats.fp16_representable(),
        "the test matrix must stress fp16: {stats:?}"
    );
    assert!(stats.fp16_overflow > 0, "{stats:?}");
    assert!(stats.dynamic_range > 1e8, "{stats:?}");

    let pm = Arc::new(ProblemMatrix::from_csr(a));
    let n = pm.dim();
    let b = random_rhs(n, 42);

    // Unscaled fp16 inner matrix: the ±∞ entries poison the inner level and
    // the solve cannot reach 1e-8.
    let unscaled = SolverBuilder::new(Arc::clone(&pm))
        .spec(two_level_spec(
            "unscaled-fp16",
            MatrixStorage::Plain(Precision::Fp16),
        ))
        .build();
    let mut x = vec![0.0; n];
    let r_unscaled = unscaled.session().solve(&b, &mut x);
    assert!(
        !r_unscaled.converged,
        "unscaled fp16 matrix storage should fail on this matrix, got residual {}",
        r_unscaled.final_relative_residual
    );

    // Scaled fp16 inner matrix: converges to the paper's tolerance.
    let scaled = SolverBuilder::new(Arc::clone(&pm))
        .spec(two_level_spec(
            "scaled-fp16",
            MatrixStorage::Scaled(Precision::Fp16),
        ))
        .build();
    let mut x = vec![0.0; n];
    let r_scaled = scaled.session().solve(&b, &mut x);
    assert!(
        r_scaled.converged,
        "scaled fp16 matrix storage should converge, residual {}",
        r_scaled.final_relative_residual
    );
    assert!(r_scaled.final_relative_residual < 1e-8);
    assert!(pm.true_relative_residual(&x, &b) < 1e-8);

    // Matrix-stream traffic is attributed per storage precision: the inner
    // fp16 stream and the outer fp64 stream both show up, nothing in fp32.
    let snap = &r_scaled.counters;
    assert!(snap.matrix_bytes_in(Precision::Fp16) > 0);
    assert!(snap.matrix_bytes_in(Precision::Fp64) > 0);
    assert_eq!(snap.matrix_bytes_in(Precision::Fp32), 0);
    assert_eq!(
        snap.matrix_bytes_total(),
        snap.matrix_bytes_in(Precision::Fp16) + snap.matrix_bytes_in(Precision::Fp64)
    );
    // Scaled fp16 SpMVs price in the per-row scale stream.
    let per_spmv = TrafficModel::scaled_matrix_stream_bytes(pm.nnz(), n, Precision::Fp16);
    assert_eq!(snap.matrix_bytes_in(Precision::Fp16) % per_spmv, 0);
}

#[test]
fn f64_f32_spec_materializes_no_fp16_variant() {
    let a = jacobi_scale(&poisson2d_5pt(16, 16));
    let eager_worst_case = {
        let a64 = a.storage_bytes();
        let a32 = a.to_precision::<f32>().storage_bytes();
        let a16 = a.to_precision::<f3r::precision::f16>().storage_bytes();
        a64 + a32 + a16
    };
    let pm = Arc::new(ProblemMatrix::from_csr(a));
    let base_bytes = pm.storage_bytes();

    let prepared = SolverBuilder::new(Arc::clone(&pm))
        .levels(vec![
            LevelSpec::fgmres(30, Precision::Fp64, Precision::Fp64),
            LevelSpec::fgmres(5, Precision::Fp32, Precision::Fp32),
        ])
        .precond(PrecondKind::Jacobi)
        .build();
    let n = prepared.dim();
    let b = random_rhs(n, 7);
    let mut x = vec![0.0; n];
    assert!(prepared.session().solve(&b, &mut x).converged);

    // The store's accounting: base + fp32 variant only, no fp16 anywhere.
    let variants = pm.materialized_variants();
    assert_eq!(variants.len(), 2, "{variants:?}");
    assert!(variants
        .iter()
        .all(|v| v.storage.precision() != Precision::Fp16));
    assert!(variants.iter().all(|v| v.format == MatrixFormat::Csr));
    assert!(!pm.is_materialized(MatrixStorage::Plain(Precision::Fp16)));

    // storage_bytes() reports the materialized footprint, strictly below the
    // historical eager sextet (f64+f32+f16), and above the base alone.
    assert!(pm.storage_bytes() > base_bytes);
    assert!(
        pm.storage_bytes() < eager_worst_case,
        "{} !< {}",
        pm.storage_bytes(),
        eager_worst_case
    );
}

#[test]
fn scaled_fp64_storage_is_the_plain_fp64_variant() {
    // fp64 storage holds the source values verbatim, so a `Scaled(Fp64)`
    // level streams what a `Plain(Fp64)` level streams: no copy of its own,
    // the plain product's traffic, the same bits.
    let a = wide_dynamic_range_system(16);
    let n = a.n_rows();
    let b = random_rhs(n, 9);
    for backend in [SpmvBackend::Csr, SpmvBackend::Sell { chunk: 32 }] {
        let solve = |storage: MatrixStorage| {
            let pm = Arc::new(ProblemMatrix::new(a.clone(), backend));
            let base_bytes = pm.storage_bytes();
            let prepared = SolverBuilder::new(Arc::clone(&pm))
                .spec(two_level_spec(&format!("{storage}"), storage))
                .build();
            let mut x = vec![0.0; n];
            let r = prepared.session().solve(&b, &mut x);
            assert!(r.converged, "{backend:?} {storage}: {}", r.final_relative_residual);
            (pm, base_bytes, x, r)
        };
        let (pm_plain, _, x_plain, r_plain) = solve(MatrixStorage::Plain(Precision::Fp64));
        let (pm, base_bytes, x, r) = solve(MatrixStorage::Scaled(Precision::Fp64));
        assert_eq!(x, x_plain, "{backend:?}");
        assert_eq!(r.residual_history, r_plain.residual_history, "{backend:?}");
        assert_eq!(r.counters, r_plain.counters, "{backend:?}: counted as the plain product");
        assert_eq!(r.counters.matrix_bytes_in(Precision::Fp64), r.counters.matrix_bytes_total());
        let stream = TrafficModel::matrix_stream_bytes(pm.nnz(), n, Precision::Fp64);
        assert_eq!(r.counters.matrix_bytes_total() % stream, 0, "{backend:?}: no row-scale stream");

        assert!(pm.is_materialized(MatrixStorage::Scaled(Precision::Fp64)));
        assert_eq!(pm.materialized_variants(), pm_plain.materialized_variants(), "{backend:?}");
        match backend {
            // Both levels stream the base itself.
            SpmvBackend::Csr => {
                assert_eq!(pm.materialized_variants().len(), 1);
                assert_eq!(pm.storage_bytes(), base_bytes);
            }
            // Both levels share the one fp64 SELL copy.
            SpmvBackend::Sell { .. } => {
                let variants = pm.materialized_variants();
                assert_eq!(variants.len(), 2, "{variants:?}");
                assert_eq!(variants[1].storage, MatrixStorage::Plain(Precision::Fp64));
                assert_eq!(variants[1].format, MatrixFormat::Sell);
            }
        }
    }
}

#[test]
fn scaled_storage_on_a_benign_matrix_matches_plain_iterations() {
    // On a Jacobi-scaled matrix (entries already O(1)) scaled and plain fp16
    // inner storage must behave identically solver-wise: same convergence,
    // same outer iteration count to within one iteration.
    let a = jacobi_scale(&poisson2d_5pt(24, 24));
    let pm = Arc::new(ProblemMatrix::from_csr(a));
    let n = pm.dim();
    let b = random_rhs(n, 5);
    let run = |storage: MatrixStorage| {
        let prepared = SolverBuilder::new(Arc::clone(&pm))
            .spec(two_level_spec(&format!("{storage}"), storage))
            .build();
        let mut x = vec![0.0; n];
        let r = prepared.session().solve(&b, &mut x);
        assert!(r.converged, "{storage}: {}", r.final_relative_residual);
        r.outer_iterations
    };
    let plain = run(MatrixStorage::Plain(Precision::Fp16));
    let scaled = run(MatrixStorage::Scaled(Precision::Fp16));
    assert!(
        (plain as i64 - scaled as i64).abs() <= 1,
        "plain {plain} vs scaled {scaled} outer iterations"
    );
}

#[test]
fn property_scaled_spmv_tracks_f64_reference_within_storage_eps() {
    // Pseudo-random sparse matrices with entries spanning 1e-12..1e12: the
    // scaled fp16/fp32 SpMV must stay within storage-eps of the f64
    // reference row-wise (relative to the row amplitude), while the unscaled
    // fp16 conversion of the same matrix produces inf/0 entries.
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545F4914F6CDD1D)
    };
    for case in 0..20 {
        let n = 8 + (next() % 56) as usize;
        // Build a random sparse row pattern with huge per-row amplitudes.
        let mut coo = f3r::sparse::CooMatrix::new(n, n);
        for i in 0..n {
            let row_mag = 10f64.powf(((next() % 25) as f64) - 12.0);
            let entries = 1 + (next() % 5) as usize;
            coo.push(i, i, row_mag);
            for _ in 0..entries {
                let j = (next() % n as u64) as usize;
                let v = row_mag * ((next() % 2000) as f64 / 1000.0 - 1.0);
                coo.push(i, j, v);
            }
        }
        let a = coo.to_csr();
        let x: Vec<f64> = (0..n).map(|_| (next() % 1000) as f64 / 1000.0 - 0.5).collect();
        let mut y_ref = vec![0.0f64; n];
        f3r::sparse::spmv::spmv(&a, &x, &mut y_ref);

        let s16 = StoredMatrix::<f3r::precision::f16>::row_scaled(&a, None);
        let s32 = StoredMatrix::<f32>::row_scaled(&a, None);
        let (scales16, scales32) = (s16.row_scales().unwrap(), s32.row_scales().unwrap());
        let mut y16 = vec![0.0f64; n];
        let mut y32 = vec![0.0f64; n];
        f3r::sparse::spmv::spmv(&s16, &x, &mut y16);
        f3r::sparse::spmv::spmv(&s32, &x, &mut y32);
        for i in 0..n {
            // ≤ 6 entries/row, |x| ≤ 1/2 → error ≤ 3·eps_storage·scale.
            let tol16 = 3.0 * 2.0f64.powi(-11) * scales16[i];
            let tol32 = 3.0 * 2.0f64.powi(-24) * scales32[i];
            assert!(
                (y16[i] - y_ref[i]).abs() <= tol16,
                "case {case}, row {i}: fp16 {} vs {}",
                y16[i],
                y_ref[i]
            );
            assert!(
                (y32[i] - y_ref[i]).abs() <= tol32,
                "case {case}, row {i}: fp32 {} vs {}",
                y32[i],
                y_ref[i]
            );
            assert!(y16[i].is_finite() && y32[i].is_finite());
        }
    }
}
