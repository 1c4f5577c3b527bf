//! Integration tests for the prepared-solver session API: one shared
//! `Arc<PreparedSolver>` driving concurrent `SolveSession`s, steady-state
//! workspace reuse, warm starts and observers — through the public `f3r`
//! umbrella crate.
//!
//! The concurrency test is exercised by CI under both the default worker
//! pool and `F3R_NUM_THREADS=2`, pinning bitwise determinism of concurrent
//! sessions against sequential runs for 1- and 2-thread pools.

use std::sync::Arc;

use f3r::prelude::*;
use f3r::sparse::gen::{hpcg_matrix, random_rhs};
use f3r::sparse::scaling::jacobi_scale;

/// fp16-F3R on a small HPCG problem, prepared once.
fn prepared_f3r() -> Arc<PreparedSolver> {
    let a = jacobi_scale(&hpcg_matrix(8, 8, 8));
    SolverBuilder::new(Arc::new(ProblemMatrix::from_csr(a)))
        .scheme(F3rScheme::Fp16)
        .precond(PrecondKind::BlockJacobiIc0 { blocks: 4, alpha: 1.0 })
        .build()
}

/// N threads share one `Arc<PreparedSolver>` and solve different right-hand
/// sides concurrently; every solution must match the sequential run of a
/// fresh session on the same right-hand side *bitwise*.  Sessions never
/// alias mutable state, and the shared setup is immutable, so concurrency
/// must not change a single floating-point operation.
#[test]
fn concurrent_sessions_match_sequential_solves_bitwise() {
    const THREADS: usize = 4;
    let prepared = prepared_f3r();
    let n = prepared.dim();
    let rhs: Vec<Vec<f64>> = (0..THREADS as u64).map(|s| random_rhs(n, 1000 + s)).collect();

    // Sequential reference: one fresh session per right-hand side.
    let sequential: Vec<Vec<f64>> = rhs
        .iter()
        .map(|b| {
            let mut session = prepared.session();
            let mut x = vec![0.0; n];
            let r = session.solve(b, &mut x);
            assert!(r.converged, "sequential: {r}");
            x
        })
        .collect();

    // Concurrent: one thread per right-hand side, all sharing `prepared`.
    let concurrent: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = rhs
            .iter()
            .map(|b| {
                let prepared = Arc::clone(&prepared);
                scope.spawn(move || {
                    let mut session = prepared.session();
                    let mut x = vec![0.0; n];
                    let r = session.solve(b, &mut x);
                    assert!(r.converged, "concurrent: {r}");
                    x
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("solver thread panicked")).collect()
    });

    for (i, (seq, conc)) in sequential.iter().zip(concurrent.iter()).enumerate() {
        assert_eq!(
            seq.as_slice(),
            conc.as_slice(),
            "rhs {i}: concurrent solution differs bitwise from sequential"
        );
    }
}

/// The same prepared solver must also drive two *interleaved* sessions in a
/// single thread without aliasing (`&mut` is confined to each session).
#[test]
fn two_interleaved_sessions_do_not_interfere() {
    let prepared = prepared_f3r();
    let n = prepared.dim();
    let b1 = random_rhs(n, 7);
    let b2 = random_rhs(n, 8);
    let mut s1 = prepared.session();
    let mut s2 = prepared.session();
    let mut x1 = vec![0.0; n];
    let mut x2 = vec![0.0; n];
    // Interleave solves on the two sessions.
    assert!(s1.solve(&b1, &mut x1).converged);
    assert!(s2.solve(&b2, &mut x2).converged);
    let r1 = s1.solve(&b1, &mut x1);
    let r2 = s2.solve(&b2, &mut x2);
    assert!(r1.converged && r2.converged);
    assert!(prepared.matrix().true_relative_residual(&x1, &b1) < 1e-8);
    assert!(prepared.matrix().true_relative_residual(&x2, &b2) < 1e-8);
}

/// Steady-state reuse: after the first call allocated the workspaces
/// (generation 0 → 1), later calls no wider than it must perform zero
/// workspace (re)allocations — the generation counter stays put across
/// further batches and single solves; only a wider batch regrows the one
/// workspace set, once.
#[test]
fn steady_state_batches_perform_zero_workspace_reallocations() {
    let prepared = prepared_f3r();
    let n = prepared.dim();
    let mut session = prepared.session();
    assert_eq!(session.workspace_generation(), 0, "no workspaces before the first solve");

    let bs: Vec<Vec<f64>> = (0..4u64).map(|s| random_rhs(n, 50 + s)).collect();
    let mut xs = vec![Vec::new(); bs.len()];
    let results = session.solve_batch(&bs, &mut xs);
    assert!(results.iter().all(|r| r.converged));
    assert_eq!(
        session.workspace_generation(),
        1,
        "first solve allocates the workspaces exactly once"
    );

    // Second batch: zero (re)allocations — the generation must not move.
    let gen_before = session.workspace_generation();
    let results2 = session.solve_batch(&bs, &mut xs);
    assert!(results2.iter().all(|r| r.converged));
    assert_eq!(
        session.workspace_generation(),
        gen_before,
        "a steady-state batch must not (re)allocate workspaces"
    );
    // A single solve runs on the same workspace set …
    assert!(session.solve(&bs[0], &mut xs[0]).converged);
    assert_eq!(session.workspace_generation(), gen_before);
    let bytes_before = session.workspace_bytes();
    // … and a wider batch regrows it exactly once.
    let wide: Vec<Vec<f64>> = (0..6u64).map(|s| random_rhs(n, 70 + s)).collect();
    let mut wide_xs = vec![Vec::new(); wide.len()];
    assert!(session.solve_batch(&wide, &mut wide_xs).iter().all(|r| r.converged));
    assert_eq!(session.workspace_generation(), gen_before + 1);
    assert!(session.workspace_bytes() > bytes_before);
    assert!(session.solve_batch(&bs, &mut xs).iter().all(|r| r.converged));
    assert_eq!(session.workspace_generation(), gen_before + 1);

    // Every solution is a real solve of its own right-hand side.
    for (b, x) in bs.iter().zip(xs.iter()) {
        assert!(prepared.matrix().true_relative_residual(x, b) < 1e-8);
    }
}

/// Warm-starting from a nearby solution must cut the outer iteration count,
/// and per-solve overrides must not disturb the session for later solves.
#[test]
fn warm_start_and_overrides_compose_on_one_session() {
    let prepared = prepared_f3r();
    let n = prepared.dim();
    let b = random_rhs(n, 33);
    let mut session = prepared.session();

    let mut x = vec![0.0; n];
    let cold = session.solve(&b, &mut x);
    assert!(cold.converged, "{cold}");

    // Loose-tolerance pass, then warm-start the full-tolerance solve from it.
    let mut x_loose = vec![0.0; n];
    let loose = session.solve_with(&b, &mut x_loose, &SolveOptions::new().tol(1e-4));
    assert!(loose.converged);
    let mut x_warm = x_loose.clone();
    let warm = session.solve_with(&b, &mut x_warm, &SolveOptions::new().x0(&x_loose));
    assert!(warm.converged);
    assert!(
        warm.outer_iterations < cold.outer_iterations,
        "warm start ({}) should beat cold start ({})",
        warm.outer_iterations,
        cold.outer_iterations
    );

    // The overrides were per-solve: a plain solve still uses the spec values.
    let plain = session.solve(&b, &mut x);
    assert!(plain.converged);
    assert!(plain.final_relative_residual < 1e-8);
    assert_eq!(session.workspace_generation(), 1);
}

/// An observer sees one event per outermost iteration and can stop the solve
/// early; the early stop is reported through `StopReason` and its `Display`.
#[test]
fn observer_early_stop_reports_stopped() {
    struct StopAfter {
        seen: usize,
        limit: usize,
    }
    impl SolveObserver for StopAfter {
        fn on_outer_iteration(&mut self, event: &OuterEvent) -> SolveControl {
            assert!(event.relative_residual_estimate.is_finite());
            self.seen += 1;
            if self.seen >= self.limit {
                SolveControl::Stop
            } else {
                SolveControl::Continue
            }
        }
    }

    let prepared = prepared_f3r();
    let n = prepared.dim();
    let b = random_rhs(n, 4);
    let mut session = prepared.session();
    let mut x = vec![0.0; n];
    let mut obs = StopAfter { seen: 0, limit: 2 };
    let r = session.solve_observed(&b, &mut x, &SolveOptions::new(), &mut obs);
    assert_eq!(obs.seen, 2);
    assert_eq!(r.outer_iterations, 2);
    assert!(!r.converged);
    assert_eq!(r.stop_reason, StopReason::Stopped);
    assert!(r.to_string().contains("stopped by observer"), "{r}");
    // The partial update was still applied: x is better than the zero guess.
    assert!(r.final_relative_residual < 1.0);
}
