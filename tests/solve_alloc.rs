//! A warm session allocates only its result bookkeeping: the second `solve`
//! and the second `solve_batch` on a session make a small number of
//! allocations that depends neither on the problem size nor on how many cycle
//! invocations the nesting makes — `fgmres_cycle` keeps its per-column state,
//! active list and outcomes in the workspace, at every depth.
//!
//! And a thread's *first* solve allocates no more than its later ones: what a
//! product on fp16 vectors keeps in the calling thread's scratch is reserved
//! by `build()`, before any session exists, not grown in the middle of the
//! first solve.
//!
//! A warm FGMRES(m) baseline, which runs on the same driver, allocates fewer
//! times than it runs restart cycles.
//!
//! One test in a binary of its own: the counting allocator (`tests/common`)
//! is global, and a second test running beside it would be counted too.

mod common;

use std::sync::Arc;

use common::allocations;
use f3r::precond::PrecondKind;
use f3r::prelude::*;
use f3r::sparse::gen::{hpcg_matrix, poisson2d_5pt, random_rhs};
use f3r::sparse::scaling::jacobi_scale;

/// Allocations of the second `solve` and of the second `solve_batch` (k = 3)
/// on one session of fp16-F3R with inner iteration counts `(m2, m3, m4)` on
/// HPCG `nx`³, and the inner cycle invocations one such solve makes.
fn warm_allocations(nx: usize, inner: (usize, usize, usize)) -> (usize, usize, u64) {
    let a = jacobi_scale(&hpcg_matrix(nx, nx, nx));
    let n = a.n_rows();
    let prepared = SolverBuilder::new(Arc::new(ProblemMatrix::from_csr(a)))
        .scheme(F3rScheme::Fp16)
        .params(F3rParams::with_inner(inner.0, inner.1, inner.2))
        .precond(PrecondKind::Ic0 { alpha: 1.0 })
        .build();
    let mut session = prepared.session();
    let bs: Vec<Vec<f64>> = (0..3).map(|s| random_rhs(n, 7 + s)).collect();
    let mut xs = vec![vec![0.0; n]; 3];

    // Widest call first, so the workspaces are as wide as they will get.
    assert!(session.solve_batch(&bs, &mut xs).iter().all(|r| r.converged));
    let before = allocations();
    let batch = session.solve_batch(&bs, &mut xs);
    let batch_allocations = allocations() - before;
    assert!(batch.iter().all(|r| r.converged));

    assert!(session.solve(&bs[0], &mut xs[0]).converged);
    let before = allocations();
    let single = session.solve(&bs[0], &mut xs[0]);
    let single_allocations = allocations() - before;
    assert!(single.converged);
    assert_eq!(session.workspace_generation(), 1);

    // Every outer iteration invokes one depth-2 cycle, every depth-2
    // iteration one depth-3 cycle.
    let levels = single.counters.level_iterations;
    (single_allocations, batch_allocations, levels[0] + levels[1])
}

/// Allocations of the first `solve` of two fresh sessions of one fp16-F3R
/// solver on HPCG `nx`³, in the order made.  Each pays for its own
/// workspaces; only the first could pay for the thread's.
fn fresh_session_allocations(nx: usize) -> (usize, usize) {
    let a = jacobi_scale(&hpcg_matrix(nx, nx, nx));
    let n = a.n_rows();
    let prepared = SolverBuilder::new(Arc::new(ProblemMatrix::from_csr(a)))
        .scheme(F3rScheme::Fp16)
        .precond(PrecondKind::BlockJacobiIc0 { blocks: 8, alpha: 1.0 })
        .build();
    let b = random_rhs(n, 7);
    let mut x = vec![0.0; n];
    // Latch the kernel backend outside the counted region: reading
    // `F3R_KERNEL_BACKEND` allocates when it is set.
    assert!(f3r::sparse::blas1::norm2(&b) > 0.0);
    let mut first_solve = || {
        let mut session = prepared.session();
        let before = allocations();
        let result = session.solve(&b, &mut x);
        let made = allocations() - before;
        assert!(result.converged);
        made
    };
    (first_solve(), first_solve())
}

/// Allocations of the second solve of one unpreconditioned FGMRES(8)
/// baseline on Poisson 40² with a 400-iteration budget, and the restart
/// cycles that solve runs (one history entry each).
fn warm_baseline_allocations() -> (usize, usize) {
    let a = jacobi_scale(&poisson2d_5pt(40, 40));
    let n = a.n_rows();
    let config = BaselineConfig { precond: PrecondKind::Identity, max_iterations: 400, ..BaselineConfig::default() };
    let mut solver = RestartedFgmresSolver::new(Arc::new(ProblemMatrix::from_csr(a)), 8, config);
    let b = random_rhs(n, 7);
    let mut x = vec![0.0; n];
    solver.solve(&b, &mut x);
    let before = allocations();
    let result = solver.solve(&b, &mut x);
    (allocations() - before, result.residual_history.len())
}

#[test]
fn warm_solves_allocate_only_their_result_bookkeeping() {
    // Before anything else has run a kernel on this thread.
    let (first, second) = fresh_session_allocations(16);
    assert!(first <= second, "the thread's first solve allocated {first} times, its second {second}");

    let (single_8, batch_8, cycles_8) = warm_allocations(8, (8, 4, 2));
    let (single_16, batch_16, cycles_16) = warm_allocations(16, (8, 4, 2));
    // Twice the middle iterations: twice the innermost cycle invocations.
    let (single_deep, batch_deep, cycles_deep) = warm_allocations(8, (16, 4, 2));
    assert!(cycles_deep > cycles_8 && cycles_8 >= 10 && cycles_16 >= 10);

    // Independent of n and of the number of cycle invocations …
    assert_eq!(single_8, single_16, "solve: 8³ vs 16³");
    assert_eq!(batch_8, batch_16, "solve_batch: 8³ vs 16³");
    assert_eq!(single_8, single_deep, "solve: {cycles_8} vs {cycles_deep} inner cycles");
    assert_eq!(batch_8, batch_deep, "solve_batch: {cycles_8} vs {cycles_deep} inner cycles");
    // … and small: the per-column runs, the panel order/tolerance/warm lists,
    // one history and one name per column, the result vector (and for a batch
    // the default options and the two slices of column references) — far
    // below one allocation per cycle invocation.
    assert!(single_8 <= 8, "solve allocated {single_8} times");
    assert!(batch_8 <= 16, "solve_batch (k = 3) allocated {batch_8} times");
    assert!((batch_8 as u64) < cycles_8);

    // The FGMRES(m) baseline is a session solve too: its restart cycles
    // allocate nothing per cycle (the history grows by doubling).
    let (baseline, restarts) = warm_baseline_allocations();
    assert!(restarts >= 32, "only {restarts} restart cycles");
    assert!(baseline < restarts, "FGMRES(8) allocated {baseline} times in {restarts} restart cycles");
}
