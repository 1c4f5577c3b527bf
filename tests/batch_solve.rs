//! Integration tests for batched multi-RHS solving
//! (`SolveSession::solve_batch`) through the public `f3r` umbrella crate.
//!
//! The batched path runs `k` *independent* FGMRES recurrences whose SpMVs
//! fuse into one matrix pass per iteration.  For FGMRES-only nesting chains
//! every column computes the exact floating-point sequence of its
//! sequential solve, so the parity tests assert **bitwise** equality of
//! solutions, iteration counts and residual histories — on the Figure 1
//! Laplacian and the HPCG problem, across fp32 and fp16 inner working/
//! storage precisions.  Adaptive Richardson levels share weight state
//! across the batch (a batch's columns are consecutive invocations of one
//! level, a sequential solve starts its own count), so the F3R preset test
//! asserts convergence to the same tolerance instead of bitwise equality
//! with fresh sequential sessions; that a Richardson panel is bitwise the
//! column-by-column loop over the same level is pinned in
//! `tests/panel_parity.rs`.

use std::sync::Arc;

use f3r::precond::PrecondKind;
use f3r::prelude::*;
use f3r::sparse::gen::{hpcg_matrix, poisson2d_5pt, random_rhs};
use f3r::sparse::scaling::jacobi_scale;
use f3r::sparse::CsrMatrix;

/// Assert that `solve_batch` on `prepared` reproduces `k` fresh sequential
/// sessions bit for bit: solutions, stop reasons, iteration counts and
/// per-cycle true-residual histories.
fn assert_batch_matches_sequential(prepared: &Arc<PreparedSolver>, k: usize, seed: u64) {
    let n = prepared.dim();
    let bs: Vec<Vec<f64>> = (0..k as u64).map(|s| random_rhs(n, seed + s)).collect();
    let mut xs = vec![Vec::new(); k];
    let results = prepared.session().solve_batch(&bs, &mut xs);
    assert_eq!(results.len(), k);
    for c in 0..k {
        let mut x_ref = vec![0.0; n];
        let r_ref = prepared.session().solve(&bs[c], &mut x_ref);
        assert!(results[c].converged, "col {c}: {}", results[c]);
        assert_eq!(results[c].stop_reason, r_ref.stop_reason, "col {c}");
        assert_eq!(results[c].outer_iterations, r_ref.outer_iterations, "col {c}");
        assert_eq!(results[c].residual_history, r_ref.residual_history, "col {c}");
        assert_eq!(xs[c], x_ref, "col {c}: batched solution diverged bitwise");
    }
}

fn laplacian_prepared(inner: LevelSpec, storage: Option<MatrixStorage>) -> Arc<PreparedSolver> {
    let a = jacobi_scale(&poisson2d_5pt(24, 24));
    build_two_level(a, inner, storage)
}

fn hpcg_prepared(inner: LevelSpec, storage: Option<MatrixStorage>) -> Arc<PreparedSolver> {
    let a = jacobi_scale(&hpcg_matrix(16, 16, 16));
    build_two_level(a, inner, storage)
}

fn build_two_level(
    a: CsrMatrix<f64>,
    inner: LevelSpec,
    storage: Option<MatrixStorage>,
) -> Arc<PreparedSolver> {
    let mut builder = SolverBuilder::new(Arc::new(ProblemMatrix::from_csr(a)))
        .levels(vec![LevelSpec::fgmres(30, Precision::Fp64, Precision::Fp64), inner]);
    if let Some(s) = storage {
        builder = builder.matrix_storage(s);
    }
    builder.build()
}

#[test]
fn batch_matches_sequential_on_laplacian_fp32_inner() {
    let prepared = laplacian_prepared(LevelSpec::fgmres(8, Precision::Fp32, Precision::Fp32), None);
    assert_batch_matches_sequential(&prepared, 3, 500);
}

#[test]
fn batch_matches_sequential_on_laplacian_fp16_storage() {
    // fp16 inner axis: fp16-compressed Krylov basis on the inner level plus
    // the row-scaled fp16 matrix stream — the configuration whose traffic
    // the batching amortizes hardest.
    let prepared = laplacian_prepared(
        LevelSpec::fgmres(8, Precision::Fp32, Precision::Fp16),
        Some(MatrixStorage::Scaled(Precision::Fp16)),
    );
    assert_batch_matches_sequential(&prepared, 4, 600);
}

#[test]
fn batch_matches_sequential_on_hpcg_fp32_inner() {
    let prepared = hpcg_prepared(LevelSpec::fgmres(8, Precision::Fp32, Precision::Fp32), None);
    assert_batch_matches_sequential(&prepared, 2, 700);
}

#[test]
fn batch_matches_sequential_on_hpcg_fp16_storage() {
    let prepared = hpcg_prepared(
        LevelSpec::fgmres(8, Precision::Fp32, Precision::Fp16),
        Some(MatrixStorage::Scaled(Precision::Fp16)),
    );
    assert_batch_matches_sequential(&prepared, 3, 800);
}

#[test]
fn batch_amortizes_the_matrix_stream_across_columns() {
    // The acceptance claim behind `benches/solver_batch.rs`: on HPCG, the
    // counter-measured matrix bytes per right-hand side at k = 8 must be at
    // most a quarter of the k = 1 cost (ideal amortization would be 1/8) —
    // with the scaled-fp16 inner FGMRES stream, and with the fp16-F3R preset,
    // whose Richardson residuals are panel products too (only the columns
    // that land on a weight update stream the matrix on their own).
    let a = jacobi_scale(&hpcg_matrix(16, 16, 16));
    let f3r = SolverBuilder::new(Arc::new(ProblemMatrix::from_csr(a)))
        .scheme(F3rScheme::Fp16)
        .precond(PrecondKind::BlockJacobiIc0 { blocks: 4, alpha: 1.0 })
        .build();
    let fgmres = hpcg_prepared(
        LevelSpec::fgmres(8, Precision::Fp32, Precision::Fp16),
        Some(MatrixStorage::Scaled(Precision::Fp16)),
    );
    for prepared in [fgmres, f3r] {
        let name = &prepared.spec().name;
        let n = prepared.dim();
        let b1 = vec![random_rhs(n, 900)];
        let mut x1 = vec![Vec::new()];
        let r1 = prepared.session().solve_batch(&b1, &mut x1);
        let bytes_single = r1[0].counters.matrix_bytes_total();

        let k = 8;
        let bs: Vec<Vec<f64>> = (0..k as u64).map(|s| random_rhs(n, 900 + s)).collect();
        let mut xs = vec![Vec::new(); k];
        let rk = prepared.session().solve_batch(&bs, &mut xs);
        assert!(rk.iter().all(|r| r.converged), "{name}");
        let bytes_per_rhs = rk[0].counters.matrix_bytes_total() as f64 / k as f64;
        assert!(
            bytes_per_rhs <= 0.25 * bytes_single as f64,
            "{name}: matrix bytes/RHS at k=8: {bytes_per_rhs:.0} vs single {bytes_single} (want <= 25%)"
        );
    }
}

#[test]
fn batch_with_richardson_innermost_converges_to_the_same_tolerance() {
    // The full fp16-F3R preset ends in an adaptive-weight Richardson sweep
    // whose weight state is shared across the batch, so bitwise parity is
    // out of contract — but every column must still converge to the spec
    // tolerance, and the solutions must agree with sequential runs to the
    // accuracy both paths guarantee.
    let a = jacobi_scale(&hpcg_matrix(8, 8, 8));
    let prepared = SolverBuilder::new(Arc::new(ProblemMatrix::from_csr(a)))
        .scheme(F3rScheme::Fp16)
        .precond(PrecondKind::Ic0 { alpha: 1.0 })
        .build();
    let n = prepared.dim();
    let tol = prepared.spec().tol;
    let k = 3;
    let bs: Vec<Vec<f64>> = (0..k as u64).map(|s| random_rhs(n, 40 + s)).collect();
    let mut xs = vec![Vec::new(); k];
    let results = prepared.session().solve_batch(&bs, &mut xs);
    for c in 0..k {
        assert!(results[c].converged, "col {c}: {}", results[c]);
        let rel = prepared.matrix().true_relative_residual(&xs[c], &bs[c]);
        assert!(rel < tol, "col {c}: true residual {rel} vs tol {tol}");
    }
}

#[test]
fn mixed_convergence_deflates_finished_columns() {
    // Short outer cycles + a generous cycle budget so columns of different
    // difficulty finish after different numbers of shared cycles.  Deflation
    // must not perturb the surviving columns: each still matches its
    // sequential solve bitwise.
    let a = jacobi_scale(&poisson2d_5pt(24, 24));
    let n = a.n_rows();
    // A zero column (deflated before the first cycle), an easy column (the
    // image of a coordinate vector) and two generic random columns.
    let mut e = vec![0.0; n];
    e[n / 2] = 1.0;
    let mut easy = vec![0.0; n];
    f3r::sparse::spmv::spmv(&a, &e, &mut easy);
    let prepared = SolverBuilder::new(Arc::new(ProblemMatrix::from_csr(a)))
        .levels(vec![
            LevelSpec::fgmres(5, Precision::Fp64, Precision::Fp64),
            LevelSpec::fgmres(4, Precision::Fp32, Precision::Fp32),
        ])
        .max_outer_cycles(60)
        .build();
    let bs = vec![random_rhs(n, 1), vec![0.0; n], easy, random_rhs(n, 2)];
    let mut xs = vec![Vec::new(); 4];
    let results = prepared.session().solve_batch(&bs, &mut xs);
    assert!(results.iter().all(|r| r.converged), "{results:?}");
    assert_eq!(results[1].outer_iterations, 0);
    let cycle_counts: Vec<usize> =
        results.iter().map(|r| r.residual_history.len()).collect();
    assert!(
        cycle_counts.iter().any(|&c| c != cycle_counts[0]),
        "expected mixed convergence, got {cycle_counts:?}"
    );
    for c in [0usize, 2, 3] {
        let mut x_ref = vec![0.0; n];
        let r_ref = prepared.session().solve(&bs[c], &mut x_ref);
        assert_eq!(results[c].outer_iterations, r_ref.outer_iterations, "col {c}");
        assert_eq!(xs[c], x_ref, "col {c}: deflation perturbed a survivor");
    }
}

#[test]
fn solve_batch_and_solve_batch_with_share_the_mismatch_contract() {
    // Both batch entry points document the same panic; pin the message so
    // they stay consistent.
    let prepared = laplacian_prepared(LevelSpec::fgmres(5, Precision::Fp64, Precision::Fp64), None);
    let bs = vec![vec![0.0; prepared.dim()]; 2];
    for with_options in [false, true] {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut xs = vec![Vec::new(); 3];
            let mut session = prepared.session();
            if with_options {
                session.solve_batch_with(&bs, &mut xs, &[SolveOptions::new(); 2])
            } else {
                session.solve_batch(&bs, &mut xs)
            }
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("need one solution vector per right-hand side"),
            "unexpected panic message: {msg}"
        );
    }
}
